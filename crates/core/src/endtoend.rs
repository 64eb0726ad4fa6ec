//! End-to-end filtering runs with optional adversarial behavior.
//!
//! Wires together the whole §III data path for tests, examples, and the
//! benchmark harness: neighbor ASes hand packets to the filtering network,
//! the (possibly malicious) host delivers them to the enclave filter, and
//! forwards the allowed output toward the victim — while every party keeps
//! its sketch. One call produces the enclave's authenticated logs and both
//! verifiers' audit reports.

use crate::enclave_app::FilterEnclaveApp;
use crate::logs::LogDirection;
use crate::rules::RuleAction;
use crate::verify::{AuditReport, BypassVerdict, NeighborVerifier, VictimVerifier};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use vif_dataplane::{FiveTuple, Packet};
use vif_sgx::Enclave;

/// What the malicious filtering network does around the enclave (§III-B's
/// three bypass attacks).
#[derive(Debug, Clone, Default)]
pub struct AdversaryBehavior {
    /// Fraction of packets dropped *before* they reach the filter.
    pub drop_before_fraction: f64,
    /// Fraction of filter-allowed packets dropped *after* the filter.
    pub drop_after_fraction: f64,
    /// Packets injected into the victim-bound stream after the filter,
    /// bypassing the filter entirely: `(flow, count)`.
    pub injected_after: Vec<(FiveTuple, u64)>,
}

impl AdversaryBehavior {
    /// An honest filtering network.
    pub fn honest() -> Self {
        AdversaryBehavior::default()
    }

    /// True if no adversarial behavior is configured.
    pub fn is_honest(&self) -> bool {
        self.drop_before_fraction == 0.0
            && self.drop_after_fraction == 0.0
            && self.injected_after.is_empty()
    }
}

/// Counters from a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounters {
    /// Packets the neighbors handed to the filtering network.
    pub offered: u64,
    /// Packets the adversary dropped before the filter.
    pub dropped_before: u64,
    /// Packets the filter dropped by rule.
    pub filtered: u64,
    /// Filter-allowed packets the adversary dropped after the filter.
    pub dropped_after: u64,
    /// Packets injected after the filter.
    pub injected: u64,
    /// Packets the victim finally received.
    pub received_by_victim: u64,
}

/// Everything a run produces.
#[derive(Debug)]
pub struct RunReport {
    /// Flow counters.
    pub counters: RunCounters,
    /// The victim's audit of the outgoing log.
    pub victim_audit: AuditReport,
    /// The neighbor's audit of the incoming log.
    pub neighbor_audit: AuditReport,
}

impl RunReport {
    /// True if any verifier detected a bypass.
    pub fn bypass_detected(&self) -> bool {
        self.victim_audit.bypass_detected() || self.neighbor_audit.bypass_detected()
    }

    /// Combined verdict summary: (victim, neighbor).
    pub fn verdicts(&self) -> (BypassVerdict, BypassVerdict) {
        (self.victim_audit.verdict, self.neighbor_audit.verdict)
    }
}

/// A single-enclave end-to-end run harness.
pub struct FilteringRun {
    enclave: Arc<Enclave<FilterEnclaveApp>>,
    victim_verifier: VictimVerifier,
    neighbor_verifier: NeighborVerifier,
    adversary: AdversaryBehavior,
    rng: StdRng,
}

impl FilteringRun {
    /// Creates a run over an enclave with session-bound verifiers.
    pub fn new(
        enclave: Arc<Enclave<FilterEnclaveApp>>,
        victim_verifier: VictimVerifier,
        neighbor_verifier: NeighborVerifier,
        adversary: AdversaryBehavior,
        seed: u64,
    ) -> Self {
        FilteringRun {
            enclave,
            victim_verifier,
            neighbor_verifier,
            adversary,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Pushes traffic through the (possibly adversarial) data path and
    /// audits the round.
    pub fn execute(mut self, traffic: &[Packet]) -> RunReport {
        let mut counters = RunCounters::default();

        for pkt in traffic {
            counters.offered += 1;
            // Neighbor AS observes what it hands over.
            self.neighbor_verifier.observe(&pkt.tuple);

            // Attack 3: drop before filtering.
            if self.rng.gen_bool(self.adversary.drop_before_fraction) {
                counters.dropped_before += 1;
                continue;
            }

            let action = self
                .enclave
                .in_enclave_thread(|app| app.process(&pkt.tuple, pkt.wire_size as u64).action);

            match action {
                RuleAction::Drop => counters.filtered += 1,
                RuleAction::Allow => {
                    // Attack 2: drop after filtering.
                    if self.rng.gen_bool(self.adversary.drop_after_fraction) {
                        counters.dropped_after += 1;
                        continue;
                    }
                    counters.received_by_victim += 1;
                    self.victim_verifier.observe(&pkt.tuple);
                }
            }
        }

        // Attack 1: injection after filtering.
        for (tuple, count) in &self.adversary.injected_after {
            for _ in 0..*count {
                counters.injected += 1;
                counters.received_by_victim += 1;
                self.victim_verifier.observe(tuple);
            }
        }

        let outgoing = self
            .enclave
            .ecall(|app| app.export_log(LogDirection::Outgoing));
        let incoming = self
            .enclave
            .ecall(|app| app.export_log(LogDirection::Incoming));

        let victim_audit = self
            .victim_verifier
            .audit(&outgoing)
            .expect("authentic export");
        let neighbor_audit = self
            .neighbor_verifier
            .audit(&incoming)
            .expect("authentic export");

        RunReport {
            counters,
            victim_audit,
            neighbor_audit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{FilterRule, FlowPattern};
    use crate::ruleset::RuleSet;
    use vif_dataplane::{FlowSet, Protocol, TrafficConfig, TrafficGenerator};

    const SEED: u64 = 5;
    const KEY: [u8; 32] = [6u8; 32];

    fn enclave_with_rules() -> Arc<Enclave<FilterEnclaveApp>> {
        use vif_sgx::{AttestationRootKey, EnclaveImage, EpcConfig, SgxPlatform};
        let root = AttestationRootKey::new([2u8; 32]);
        let platform = SgxPlatform::new(3, EpcConfig::paper_default(), &root);
        let rules = RuleSet::from_rules(vec![FilterRule::drop(FlowPattern::prefixes(
            "10.0.0.0/8".parse().unwrap(),
            "203.0.113.0/24".parse().unwrap(),
        ))]);
        let app = FilterEnclaveApp::new(rules, [1u8; 32], SEED, KEY);
        Arc::new(platform.launch(EnclaveImage::new("vif", 1, vec![0; 64]), app))
    }

    fn run(adversary: AdversaryBehavior) -> RunReport {
        let enclave = enclave_with_rules();
        let victim = VictimVerifier::new(SEED, KEY, 0);
        let neighbor = NeighborVerifier::new(SEED, KEY, 0);
        // Mixed traffic: attack sources in 10/8, benign elsewhere.
        let attack = FlowSet::random_toward_victim(40, u32::from_be_bytes([203, 0, 113, 1]), 1);
        let mut tuples: Vec<FiveTuple> = attack.flows().to_vec();
        for t in tuples.iter_mut().take(20) {
            t.src_ip = 0x0a000000 | (t.src_ip & 0x00ffffff);
        }
        for t in tuples.iter_mut().skip(20) {
            t.src_ip = 0x0b000000 | (t.src_ip & 0x00ffffff);
        }
        let flows = FlowSet::uniform(tuples);
        let traffic = TrafficGenerator::new(2).generate(
            &flows,
            TrafficConfig {
                packet_size: 128,
                offered_gbps: 1.0,
                count: 2000,
            },
        );
        FilteringRun::new(enclave, victim, neighbor, adversary, 9).execute(&traffic)
    }

    #[test]
    fn honest_run_clean() {
        let report = run(AdversaryBehavior::honest());
        assert!(!report.bypass_detected(), "{:?}", report.verdicts());
        assert_eq!(report.counters.offered, 2000);
        assert!(report.counters.filtered > 0, "attack traffic filtered");
        assert_eq!(
            report.counters.received_by_victim + report.counters.filtered,
            2000
        );
    }

    #[test]
    fn drop_after_filter_caught_by_victim_only() {
        let report = run(AdversaryBehavior {
            drop_after_fraction: 0.2,
            ..Default::default()
        });
        assert_eq!(report.victim_audit.verdict, BypassVerdict::DropDetected);
        assert_eq!(report.neighbor_audit.verdict, BypassVerdict::Clean);
    }

    #[test]
    fn injection_after_filter_caught_by_victim() {
        let spoofed = FiveTuple::new(
            0x0a010101,
            u32::from_be_bytes([203, 0, 113, 1]),
            666,
            80,
            Protocol::Udp,
        );
        let report = run(AdversaryBehavior {
            injected_after: vec![(spoofed, 100)],
            ..Default::default()
        });
        assert_eq!(
            report.victim_audit.verdict,
            BypassVerdict::InjectionDetected
        );
        assert_eq!(report.counters.injected, 100);
    }

    #[test]
    fn drop_before_filter_caught_by_neighbor_only() {
        let report = run(AdversaryBehavior {
            drop_before_fraction: 0.3,
            ..Default::default()
        });
        assert_eq!(report.neighbor_audit.verdict, BypassVerdict::DropDetected);
        // The victim sees a consistent outgoing log (the filter never saw
        // the stolen packets), so its audit stays clean.
        assert_eq!(report.victim_audit.verdict, BypassVerdict::Clean);
        assert!(report.counters.dropped_before > 0);
    }

    #[test]
    fn combined_attacks_all_caught() {
        let spoofed = FiveTuple::new(
            0x0a0a0a0a,
            u32::from_be_bytes([203, 0, 113, 1]),
            1,
            2,
            Protocol::Udp,
        );
        let report = run(AdversaryBehavior {
            drop_before_fraction: 0.1,
            drop_after_fraction: 0.1,
            injected_after: vec![(spoofed, 50)],
        });
        assert!(report.victim_audit.bypass_detected());
        assert!(report.neighbor_audit.bypass_detected());
    }

    #[test]
    fn counters_add_up() {
        let report = run(AdversaryBehavior {
            drop_before_fraction: 0.25,
            drop_after_fraction: 0.25,
            ..Default::default()
        });
        let c = report.counters;
        assert_eq!(
            c.offered,
            c.dropped_before + c.filtered + c.dropped_after + (c.received_by_victim - c.injected)
        );
    }
}
