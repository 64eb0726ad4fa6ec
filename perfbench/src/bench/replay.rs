//! Isolated replays through each layer's public function, on the caller
//! thread, for the traced run's per-layer numbers.

use std::hint::black_box;
use std::sync::Arc;

use vif_core::enclave_app::FilterEnclaveApp;
use vif_core::filter::{StatelessFilter, Verdict};
use vif_core::logs::{PacketFingerprints, PacketLogs};
use vif_core::rules::RuleAction;
use vif_dataplane::FiveTuple;

use super::{gate, BenchError, Replays, Runner};
use crate::gen;
use crate::stats::median;

/// Repetitions of each data-plane replay.
const REPLAYS: usize = 5;
/// Repetitions of each control-plane replay.
const CONTROL_REPLAYS: usize = 50;

impl Runner<'_> {
    /// Replays slice 0's recorded bursts through each data-plane layer's
    /// public function, on the caller thread. `process_batch` runs on the
    /// live enclave, so its state (rules, hybrid cache) is the measured
    /// one; the replayed packets are then shown to slice 0's verifiers so
    /// the next audit still covers everything the enclave logged.
    pub(super) fn enclave_replays(&mut self) -> Result<(), BenchError> {
        let mut out = Replays::default();
        let Some(stage) = &self.stage else {
            return Ok(());
        };
        let (tuples, bursts) = stage.replay();
        if tuples.is_empty() {
            return Ok(());
        }
        let n = tuples.len() as f64;
        let clock = self.tr.clock();
        let slice0 = Arc::clone(&self.d.cluster.enclaves()[0]);
        let (ns, verdicts) = slice0.ecall(|app| {
            let mut ns = 0;
            let mut all: Vec<Verdict> = Vec::with_capacity(tuples.len());
            let mut out = Vec::new();
            let mut off = 0;
            for &b in &bursts {
                let burst = &tuples[off..off + b as usize];
                let t = clock.now();
                app.process_batch(burst, &mut out);
                ns += clock.now() - t;
                all.extend_from_slice(&out);
                off += b as usize;
            }
            (ns, all)
        });
        out.process_batch = ns as f64 / n;
        for ((t, _), v) in tuples.iter().zip(&verdicts) {
            let flow = gen::flow_index(t);
            if (v.action == RuleAction::Drop) != self.oracle.drops(flow) {
                return Err(gate(format!("replayed verdict of flow {flow} differs")));
            }
            let fp = PacketFingerprints::of(t);
            let driver = &mut self.d.driver;
            driver
                .neighbor_verifier_mut(0)
                .observe_fingerprint(fp.src_ip);
            if v.action == RuleAction::Allow {
                driver.victim_verifier_mut(0).observe_fingerprint(fp.tuple);
            }
        }

        let per_pkt = |f: &mut dyn FnMut()| {
            let runs: Vec<f64> = (0..REPLAYS)
                .map(|_| {
                    let t = clock.now();
                    f();
                    (clock.now() - t) as f64
                })
                .collect();
            median(&runs)
        };
        out.fingerprint = per_pkt(&mut || {
            for (t, _) in &tuples {
                black_box(PacketFingerprints::of(black_box(t)));
            }
        }) / n;

        let filter = StatelessFilter::new(slice0.ecall(|app| app.ruleset().clone()), self.secret);
        let (hashed, deterministic): (Vec<FiveTuple>, Vec<FiveTuple>) = tuples
            .iter()
            .map(|(t, _)| *t)
            .partition(|t| self.oracle.hashed(gen::flow_index(t)));
        let decide = |set: &[FiveTuple]| {
            if set.is_empty() {
                return 0.0;
            }
            let mut out = Vec::with_capacity(32);
            per_pkt(&mut || {
                for burst in set.chunks(32) {
                    out.clear();
                    filter.decide_batch(burst, &mut out);
                    black_box(&out);
                }
            }) / set.len() as f64
        };
        out.classify = decide(&deterministic);
        out.hash_filter = decide(&hashed);

        let fps: Vec<PacketFingerprints> = tuples
            .iter()
            .map(|(t, _)| PacketFingerprints::of(t))
            .collect();
        let mut logs = PacketLogs::new(self.d.session.keys().sketch_seed);
        out.sketch_log = per_pkt(&mut || {
            let mut off = 0;
            for &b in &bursts {
                let range = off..off + b as usize;
                logs.log_batch_fingerprints(&fps[range.clone()], &verdicts[range]);
                off += b as usize;
            }
            black_box(&logs);
        }) / n;
        self.phase.replay = out;
        Ok(())
    }

    /// Replays the activation's control-plane steps on the final rule set:
    /// the rebuild (`batch_edit` with one install and one withdrawal), the
    /// per-slice clone, and the on-lock swap with its teardown.
    pub(super) fn control_replays(&mut self) {
        let clock = self.tr.clock();
        let base = self.d.cluster.enclaves()[0].ecall(|app| app.ruleset().clone());
        let withdrawn = self.live.map_or(0, |(_, id)| id);
        let (mut clone, mut rebuild, mut swap) = (Vec::new(), Vec::new(), Vec::new());
        let mut rebuilt = None;
        for i in 0..CONTROL_REPLAYS {
            let t = clock.now();
            let mut rs = black_box(base.clone());
            clone.push((clock.now() - t) as f64);
            let t = clock.now();
            rs.batch_edit(|e| {
                e.insert(gen::sentinel_rule(1 << 20 | i as u32));
                e.remove(withdrawn);
            });
            rebuild.push((clock.now() - t) as f64);
            rebuilt.get_or_insert(rs);
        }
        let rebuilt = rebuilt.expect("at least one replay");
        let mut app = FilterEnclaveApp::new(base.clone(), self.secret, 0, [0u8; 32]);
        for _ in 0..CONTROL_REPLAYS {
            let replica = rebuilt.clone();
            let t = clock.now();
            app.install_published(replica);
            swap.push((clock.now() - t) as f64);
        }
        black_box(&app);
        self.phase.replay.clone = median(&clone);
        self.phase.replay.rebuild = median(&rebuild);
        self.phase.replay.swap = median(&swap);
    }
}
