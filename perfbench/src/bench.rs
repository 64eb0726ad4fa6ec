//! The benchmark loop: set-up, the measured phases, the correctness gate
//! and the metrics.
//!
//! Load model: the caller thread is the single load generator and the RX
//! stage. It offers one round smaller than the ring capacity, then waits
//! on `flush_round` (closed loop), so any loss is a failure. Every round's
//! forwarded and filtered counts are checked against the oracle, every
//! audit period must close Clean on every slice, and no sentinel may be
//! delivered once its rule is active. A violation ends the run with an
//! error and no metrics.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use vif_core::cost::FilterMode;
use vif_core::enclave_app::{EnclaveFilterStage, FilterEnclaveApp};
use vif_core::logs::{LogDirection, PacketFingerprints};
use vif_core::rounds::{ClusterRoundDriver, ContractState, RoundPolicy};
use vif_core::rpki::RpkiRegistry;
use vif_core::rules::FilterRule;
use vif_core::ruleset::{RuleId, RuleSet};
use vif_core::scale::EnclaveCluster;
use vif_core::session::{FilteringSession, SessionConfig, VictimClient};
use vif_core::verify::BypassVerdict;
use vif_dataplane::{
    shard_of, shard_of_fingerprint, DataplaneService, FiveTuple, Packet, ServiceConfig,
    ServiceHandle, ThreadedReport,
};
use vif_sgx::{AttestationRootKey, AttestationService, EnclaveImage, EpcConfig, SgxPlatform};

use crate::gen::{self, Oracle, Rng};
use crate::trace::{Clock, Name, StageTrace, TimedStage, Tracer, PROBE_ROUND};
use crate::workload::Workload;

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("dataplane_mpps", "Mpkt/s"),
    ("round_us_p50", "us"),
    ("activation_us_p50", "us"),
    ("audit_ms_p50", "ms"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics (traced runs): name and unit.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("service.offer_ns_per_pkt", "ns"),
    ("service.flush_us_p50", "us"),
    ("service.park_events_per_round", "count"),
    ("service.overflow", "count"),
    ("stage.busy_ns_per_pkt", "ns"),
    ("stage.burst_mean", "pkt"),
    ("stage.busy_share", "share"),
    ("dataplane.unattributed_share", "share"),
    ("enclave.process_batch_ns_per_pkt", "ns"),
    ("fingerprint.ns_per_pkt", "ns"),
    ("classify.ns_per_pkt", "ns"),
    ("hash_filter.ns_per_pkt", "ns"),
    ("sketch_log.ns_per_pkt", "ns"),
    ("hybrid.hit_ratio", "share"),
    ("hybrid.promote_ms", "ms"),
    ("hybrid.evicted_flows", "count"),
    ("enclave.table_bytes", "B"),
    ("audit.export_us", "us"),
    ("audit.verify_us", "us"),
    ("session.submit_us", "us"),
    ("publish.us", "us"),
    ("probe.flush_us", "us"),
    ("ruleset.rebuild_us", "us"),
    ("ruleset.clone_us", "us"),
    ("enclave.swap_us", "us"),
    ("activation.unattributed_share", "share"),
    ("setup.launch_ms", "ms"),
    ("setup.attest_ms", "ms"),
    ("setup.install_ms", "ms"),
    ("setup.service_start_ms", "ms"),
    ("trace.overhead_share", "share"),
];

mod replay;
mod report;

/// Share of `--seconds` the data-plane phase gets when activations run
/// in their own phase afterwards.
const DATAPLANE_SHARE: f64 = 0.7;
/// Packets of each sentinel in an activation probe.
const PROBE_PER_SENTINEL: usize = 32;
/// Activations measured at least, whatever `--seconds` says.
const MIN_ACTIVATIONS: usize = 50;
/// Rounds each later episode runs before measuring.
const EPISODE_WARMUP: u32 = 2;

/// How to run one workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured wall time.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Inverts one flow's expected verdict, to prove the gate is live.
    pub flip_flow: Option<u32>,
    /// Where a traced run writes its spans.
    pub spans_out: Option<PathBuf>,
}

/// Why a run produced no metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BenchError {
    /// The correctness gate failed.
    Gate(String),
    /// Set-up failed before any packet was offered.
    Setup(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Gate(m) => write!(f, "correctness gate failed: {m}"),
            BenchError::Setup(m) => write!(f, "set-up failed: {m}"),
        }
    }
}

impl std::error::Error for BenchError {}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run that passed the gate reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Packets offered while measuring.
    pub attempted: u64,
    /// Of those, lost to ring overflow or dead workers.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Context printed beside the metrics (sample counts, loss ratio).
    pub notes: Vec<Metric>,
    /// `(trace chunk, forwarded, filtered)` of the first rounds.
    pub round_counts: Vec<(u32, u32, u32)>,
    /// Traced runs: per span name, count, total ns and self ns.
    pub self_times: Vec<(Name, u64, u64, u64)>,
}

/// Runs workload `w` once.
///
/// # Errors
///
/// [`BenchError::Gate`] on any correctness violation,
/// [`BenchError::Setup`] if the deployment cannot be brought up.
pub fn run(w: &Workload, o: &Options) -> Result<Outcome, BenchError> {
    assert!(w.episodes > 0 && w.round > 0 && w.trace_len.is_multiple_of(w.round));
    let secret = key(o.seed, 12);
    let rules = gen::background_rules(w, o.seed);
    let trace = gen::trace(w, o.seed);
    let oracle = Oracle::build(w, &trace, &rules, secret, o.flip_flow);

    let clock = Clock::new();
    let mut tr = Tracer::new(clock, o.trace, 1 << 18);
    let mut setups = Vec::new();
    let setup = tr.open(Name::Setup, 0);
    let (d, times) = deploy(w, o.seed, secret, &rules, &mut tr)?;
    let start = tr.open(Name::ServiceStart, 0);
    let mut runner = Runner {
        w,
        o,
        oracle: &oracle,
        trace: &trace,
        secret,
        d,
        tr,
        stage: o.trace.then(|| StageTrace::new(clock)),
        delivered: Arc::new(Delivered::default()),
        buf: Vec::with_capacity(w.round),
        probe: Vec::with_capacity(2 * PROBE_PER_SENTINEL),
        next_id: 0,
        chunks: gen::chunk_order(o.seed),
        r: 0,
        episode: 0,
        rounds: Vec::with_capacity(1 << 16),
        activations: Vec::with_capacity(1 << 12),
        audits: Vec::with_capacity(1 << 12),
        promote: Vec::new(),
        export: Vec::new(),
        verify: Vec::new(),
        attempted: 0,
        failed: 0,
        round_counts: Vec::with_capacity(256),
        sentinel: 0,
        live: None,
        seen_delivered: 0,
        seen_hits: 0,
        audits_closed: 0,
        phase: Phase::default(),
    };

    // Each episode runs on a freshly started service, so one run samples
    // several thread placements; the enclaves, verifiers and trace
    // position carry over. The first episode's start ends the set-up; a
    // spare set-up before every later episode spreads the set-up samples
    // over the run.
    let mut setup = Some((setup, start, times));
    for e in 0..w.episodes {
        if e > 0 {
            setups.push(spare_setup(w, o.seed, secret, &rules, &mut runner.tr)?);
        }
        let stages = stages(&runner.d.cluster, runner.stage.as_ref());
        let delivered = Arc::clone(&runner.delivered);
        let workers = w.workers;
        DataplaneService::new(ServiceConfig::default()).run(
            stages,
            move |_, pkt: &Packet| delivered.deliver(pkt),
            move |t: &FiveTuple| shard_of(t, workers),
            |svc| {
                if let Some((setup, start, times)) = setup.take() {
                    let service_start = runner.tr.close(start, 0);
                    let total = runner.tr.close(setup, 0);
                    setups.push(SetupTimes {
                        service_start,
                        total,
                        ..times
                    });
                }
                runner.dataplane_episode(svc, e)
            },
        )?;
    }
    runner.finish_dataplane()?;
    if !w.churn {
        // Activations run after the data plane: a publication flushes the
        // hybrid cache the data-plane phase measures.
        for e in 0..w.episodes {
            setups.push(spare_setup(w, o.seed, secret, &rules, &mut runner.tr)?);
            let stages = stages(&runner.d.cluster, runner.stage.as_ref());
            let delivered = Arc::clone(&runner.delivered);
            let workers = w.workers;
            DataplaneService::new(ServiceConfig::default()).run(
                stages,
                move |_, pkt: &Packet| delivered.deliver(pkt),
                move |t: &FiveTuple| shard_of(t, workers),
                |svc| runner.activation_episode(svc, e),
            )?;
        }
    }
    // Everything offered since the last audit is audited too.
    runner.audit(false)?;
    if o.trace {
        runner.control_replays();
    }
    let workers_trace = runner.stage.as_ref().map(|s| s.take()).unwrap_or_default();
    runner.outcome(&setups, &workers_trace)
}

/// A complete set-up, up to the point a first packet could be offered,
/// that is then torn down again: it only measures itself.
fn spare_setup(
    w: &Workload,
    seed: u64,
    secret: [u8; 32],
    rules: &[FilterRule],
    tr: &mut Tracer,
) -> Result<SetupTimes, BenchError> {
    let setup = tr.open(Name::Setup, 0);
    let (d, mut times) = deploy(w, seed, secret, rules, tr)?;
    let start = tr.open(Name::ServiceStart, 0);
    let workers = w.workers;
    (times.service_start, times.total) = DataplaneService::new(ServiceConfig::default()).run(
        stages(&d.cluster, None),
        |_, _| {},
        move |t: &FiveTuple| shard_of(t, workers),
        |_| (tr.close(start, 0), tr.close(setup, 0)),
    );
    Ok(times)
}

/// A 32-byte key derived from the seed.
fn key(seed: u64, salt: u64) -> [u8; 32] {
    let mut rng = Rng::new(seed, salt);
    let mut k = [0u8; 32];
    for c in k.chunks_mut(8) {
        c.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    k
}

/// The attested deployment one run drives.
struct Deployment {
    session: FilteringSession,
    cluster: EnclaveCluster,
    driver: ClusterRoundDriver,
    rpki: RpkiRegistry,
}

/// One set-up's phases, in ns.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    launch: u64,
    attest: u64,
    install: u64,
    service_start: u64,
    total: u64,
}

/// Launches the master enclave, attests it, launches the replicas and
/// installs the background rules through the victim's session.
fn deploy(
    w: &Workload,
    seed: u64,
    secret: [u8; 32],
    rules: &[FilterRule],
    tr: &mut Tracer,
) -> Result<(Deployment, SetupTimes), BenchError> {
    let root = AttestationRootKey::new(key(seed, 10));
    let platform = SgxPlatform::new(1, EpcConfig::paper_default(), &root);
    let image = EnclaveImage::new("vif-perfbench", 1, vec![0x90; 1 << 12]);
    let (master, launch_master) = tr.time(Name::Launch, 0, || {
        Arc::new(platform.launch(image.clone(), FilterEnclaveApp::fresh(secret)))
    });

    let ias = AttestationService::new(root);
    let owner = [1u8; 32];
    let client = VictimClient::new(
        owner,
        &key(seed, 11),
        ias.verifier(),
        SessionConfig {
            expected_measurement: image.measurement(),
            tolerance: 0,
        },
    );
    let mut rpki = RpkiRegistry::new();
    rpki.register(gen::victim_prefix(), owner);
    let (session, attest) = tr.time(Name::Attest, 0, || {
        client.establish(Arc::clone(&master), &ias, key(seed, 13))
    });
    let mut session = session.map_err(|e| BenchError::Setup(format!("attestation: {e}")))?;
    let keys = session.keys().clone();

    let (mut cluster, launch_replicas) = tr.time(Name::Launch, 0, || {
        EnclaveCluster::launch_rss_with(
            platform,
            image,
            master,
            RuleSet::new(),
            w.workers,
            secret,
            keys.sketch_seed,
            keys.audit_key,
        )
    });
    let (published, install) = tr.time(Name::Install, 0, || {
        session
            .submit_rules_deferred(rules, &rpki)
            .map(|_| cluster.publish(0))
    });
    let published = published.map_err(|e| BenchError::Setup(format!("rule install: {e}")))?;
    if published.installs != rules.len() {
        return Err(BenchError::Setup(format!(
            "installed {} of {} background rules",
            published.installs,
            rules.len()
        )));
    }
    let driver = ClusterRoundDriver::new(
        cluster.enclaves().to_vec(),
        keys.sketch_seed,
        keys.audit_key,
        0,
        RoundPolicy::default(),
    );
    Ok((
        Deployment {
            session,
            cluster,
            driver,
            rpki,
        },
        SetupTimes {
            launch: launch_master + launch_replicas,
            attest,
            install,
            ..SetupTimes::default()
        },
    ))
}

/// One wrapped enclave stage per slice.
fn stages(cluster: &EnclaveCluster, trace: Option<&Arc<StageTrace>>) -> Vec<TimedStage> {
    cluster
        .enclaves()
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let inner = EnclaveFilterStage::new(Arc::clone(e), FilterMode::SgxNearZeroCopy);
            TimedStage::new(inner, i, trace.cloned())
        })
        .collect()
}

/// What the sink saw. Only the TX thread writes; the caller reads after
/// `flush_round`, whose barrier orders every delivery of the round before
/// its return.
#[derive(Default)]
struct Delivered {
    packets: AtomicU64,
    /// Deliveries of the newest (active) sentinel: must stay zero.
    active_hits: AtomicU64,
    active_src: AtomicU32,
}

impl Delivered {
    #[inline]
    fn deliver(&self, pkt: &Packet) {
        bump(&self.packets);
        if pkt.tuple.src_ip == self.active_src.load(Ordering::Relaxed) {
            bump(&self.active_hits);
        }
    }
}

/// Single-writer increment: a plain load and store, no locked add.
#[inline]
fn bump(c: &AtomicU64) {
    c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

/// One measured data-plane round.
#[derive(Debug, Clone, Copy)]
struct RoundRec {
    round: u32,
    start: u64,
    wall: u64,
    offer: u64,
    flush: u64,
    pkts: u32,
    /// Worker spans were recorded for this round.
    traced: bool,
    /// The service episode the round ran in.
    episode: u32,
}

/// One measured activation, ns per step.
#[derive(Debug, Clone, Copy)]
struct ActRec {
    episode: u32,
    total: u64,
    submit: u64,
    withdraw: u64,
    publish: u64,
    probe: u64,
    probe_flush: u64,
}

/// Hybrid-filter counters summed over the slices.
#[derive(Debug, Clone, Copy, Default)]
struct HybridTotals {
    exact_hits: u64,
    decisions: u64,
    evicted: u64,
}

/// Numbers taken around the data-plane phase.
#[derive(Debug, Clone, Copy, Default)]
struct Phase {
    measure_start: u64,
    measure_end: u64,
    park_events: u64,
    hybrid: HybridTotals,
    table_bytes: usize,
    replay: Replays,
}

/// Isolated replays, ns per packet (or per call for the control plane).
#[derive(Debug, Clone, Copy, Default)]
struct Replays {
    process_batch: f64,
    fingerprint: f64,
    classify: f64,
    hash_filter: f64,
    sketch_log: f64,
    rebuild: f64,
    clone: f64,
    swap: f64,
}

struct Runner<'a> {
    w: &'a Workload,
    o: &'a Options,
    oracle: &'a Oracle,
    /// Picks each round's chunk of the trace. A random order, not the
    /// trace order, makes every window of rounds an unbiased sample of
    /// the trace: on `zipf4m_hash` a chunk's cache hit ratio depends on
    /// how early its flows first appeared.
    chunks: Rng,
    trace: &'a [u32],
    secret: [u8; 32],
    d: Deployment,
    tr: Tracer,
    stage: Option<Arc<StageTrace>>,
    delivered: Arc<Delivered>,
    buf: Vec<Packet>,
    probe: Vec<Packet>,
    next_id: u64,
    rounds: Vec<RoundRec>,
    activations: Vec<ActRec>,
    /// Per measured audit: episode and `close_round` ns.
    audits: Vec<(u32, u64)>,
    /// Per measured audit period: update-period ns summed over slices.
    promote: Vec<u64>,
    /// Per measured audit (traced): export and verify ns over all slices.
    export: Vec<u64>,
    verify: Vec<u64>,
    attempted: u64,
    failed: u64,
    round_counts: Vec<(u32, u32, u32)>,
    /// Index of the next sentinel.
    sentinel: u32,
    /// The sentinel in force and its rule id.
    live: Option<(u32, RuleId)>,
    seen_delivered: u64,
    seen_hits: u64,
    audits_closed: u32,
    /// The next data-plane round.
    r: u32,
    /// The current service episode.
    episode: u32,
    phase: Phase,
}

fn gate(msg: String) -> BenchError {
    BenchError::Gate(msg)
}

impl Runner<'_> {
    /// Nanoseconds one episode gets of a phase with `share` of the time.
    fn episode_ns(&self, share: f64) -> u64 {
        (self.o.seconds * share * 1e9 / f64::from(self.w.episodes)) as u64
    }

    /// Data-plane rounds (churn: each followed by an activation) until the
    /// episode's share of the time is used, ending on an audit boundary.
    /// The first episode starts with the warm-up.
    fn dataplane_episode<R>(
        &mut self,
        svc: &mut ServiceHandle<'_, '_, R>,
        e: u32,
    ) -> Result<(), BenchError>
    where
        R: FnMut(&FiveTuple) -> usize,
    {
        let w = self.w;
        let clock = self.tr.clock();
        self.episode = e;
        let warm_until = self.r
            + if e == 0 {
                w.warmup_rounds
            } else {
                EPISODE_WARMUP
            };
        let mut deadline = None;
        let mut park0 = 0;
        loop {
            let r = self.r;
            let measuring = r >= warm_until;
            if measuring && deadline.is_none() {
                let now = clock.now();
                let share = if w.churn { 1.0 } else { DATAPLANE_SHARE };
                deadline = Some(now + self.episode_ns(share));
                park0 = svc.park_events();
                if e == 0 {
                    self.phase.measure_start = now;
                    self.phase.hybrid = self.hybrid_totals();
                }
            }
            // A traced run records worker spans in one half of each audit
            // period, the first half and the second half in turn, so
            // traced and untraced rounds sit equally close to audits.
            let second_half = r % w.audit_every >= w.audit_every / 2;
            let traced = measuring
                && second_half == (r / w.audit_every).is_multiple_of(2)
                && self
                    .stage
                    .as_ref()
                    .is_some_and(|s| !s.full.load(Ordering::Relaxed));
            if let Some(s) = &self.stage {
                s.on.store(traced, Ordering::Relaxed);
            }
            self.dataplane_round(svc, r, measuring, traced)?;
            if w.churn {
                self.activation(svc, measuring)?;
            }
            self.r += 1;
            if self.r.is_multiple_of(w.audit_every) {
                self.audit(measuring)?;
                if deadline.is_some_and(|d| clock.now() >= d) {
                    break;
                }
            }
        }
        if let Some(s) = &self.stage {
            s.on.store(false, Ordering::Relaxed);
        }
        self.phase.park_events += svc.park_events() - park0;
        Ok(())
    }

    /// Closes the data-plane phase: cache counters, table size and, traced,
    /// the isolated replays (before any publication flushes the cache).
    fn finish_dataplane(&mut self) -> Result<(), BenchError> {
        let clock = self.tr.clock();
        self.phase.measure_end = clock.now();
        let start = self.phase.hybrid;
        let end = self.hybrid_totals();
        self.phase.hybrid = HybridTotals {
            exact_hits: end.exact_hits - start.exact_hits,
            decisions: end.decisions - start.decisions,
            evicted: end.evicted - start.evicted,
        };
        self.phase.table_bytes = self.d.cluster.enclaves()[0].ecall(|app| app.table_bytes());
        if self.o.trace {
            self.enclave_replays()?;
        }
        Ok(())
    }

    /// Activations until the episode's share of the time is used; the
    /// episode's first activation only wakes the fresh service.
    fn activation_episode<R>(
        &mut self,
        svc: &mut ServiceHandle<'_, '_, R>,
        e: u32,
    ) -> Result<(), BenchError>
    where
        R: FnMut(&FiveTuple) -> usize,
    {
        let clock = self.tr.clock();
        self.episode = e;
        let until = clock.now() + self.episode_ns(1.0 - DATAPLANE_SHARE);
        let floor = MIN_ACTIVATIONS * (e as usize + 1) / self.w.episodes as usize;
        self.activation(svc, false)?;
        while clock.now() < until || self.activations.len() < floor {
            self.activation(svc, true)?;
        }
        Ok(())
    }

    /// Offers one round of the trace and checks it against the oracle.
    fn dataplane_round<R>(
        &mut self,
        svc: &mut ServiceHandle<'_, '_, R>,
        r: u32,
        measuring: bool,
        traced: bool,
    ) -> Result<(), BenchError>
    where
        R: FnMut(&FiveTuple) -> usize,
    {
        let n = self.w.round;
        let oracle = self.oracle;
        let chunk = self.chunks.below(oracle.chunk_filtered.len() as u32) as usize;
        let flows = &self.trace[chunk * n..(chunk + 1) * n];
        self.buf.clear();
        for &f in flows {
            self.buf.push(gen::packet(gen::flow_tuple(f), self.next_id));
            self.next_id += 1;
        }
        if let Some(s) = &self.stage {
            s.round.store(r, Ordering::Relaxed);
        }

        let round = self.tr.open(Name::Round, r);
        let start = round.start();
        let (_, offer) = self.tr.time(Name::Offer, r, || svc.offer(&self.buf));
        let (report, flush) = self.tr.time(Name::Flush, r, || svc.flush_round().total());
        let wall = self.tr.close(round, n as u32);

        let filtered = u64::from(oracle.chunk_filtered[chunk]);
        self.check(report, n as u64, n as u64 - filtered, filtered, measuring)
            .map_err(|e| gate(format!("round {r}: {e}")))?;
        if self.round_counts.len() < self.round_counts.capacity() {
            self.round_counts.push((
                chunk as u32,
                report.forwarded as u32,
                report.filtered as u32,
            ));
        }
        if measuring {
            self.rounds.push(RoundRec {
                round: r,
                start,
                wall,
                offer,
                flush,
                pkts: n as u32,
                traced,
                episode: self.episode,
            });
        }
        // Show the round to the verifiers: the neighbour hands every packet
        // over, the victim receives what the oracle forwards.
        let workers = self.w.workers;
        for (p, &f) in self.buf.iter().zip(flows) {
            let fp = PacketFingerprints::of(&p.tuple);
            let s = shard_of_fingerprint(fp.tuple, workers);
            self.d
                .driver
                .neighbor_verifier_mut(s)
                .observe_fingerprint(fp.src_ip);
            if !oracle.drops(f) {
                self.d
                    .driver
                    .victim_verifier_mut(s)
                    .observe_fingerprint(fp.tuple);
            }
        }
        Ok(())
    }

    /// Checks one flushed round: conservation, the expected verdict
    /// counts, the sink's deliveries, and that the active sentinel was
    /// never delivered.
    fn check(
        &mut self,
        rep: ThreadedReport,
        received: u64,
        forwarded: u64,
        filtered: u64,
        measuring: bool,
    ) -> Result<(), String> {
        if measuring {
            self.attempted += received;
            self.failed += rep.overflow + rep.uncovered;
        }
        let delivered = self.delivered.packets.load(Ordering::Relaxed);
        let hits = self.delivered.active_hits.load(Ordering::Relaxed);
        let sink = delivered - std::mem::replace(&mut self.seen_delivered, delivered);
        let sentinel = hits - std::mem::replace(&mut self.seen_hits, hits);
        if rep.received != received
            || rep.received != rep.forwarded + rep.filtered + rep.overflow + rep.uncovered
        {
            return Err(format!(
                "conservation: offered {received}, {rep:?} (overflow and uncovered must be 0)"
            ));
        }
        if rep.forwarded != forwarded || rep.filtered != filtered {
            return Err(format!(
                "forwarded/filtered {}/{} but the oracle expects {forwarded}/{filtered}",
                rep.forwarded, rep.filtered
            ));
        }
        if sink != rep.forwarded {
            return Err(format!(
                "sink saw {sink} deliveries, service reports {}",
                rep.forwarded
            ));
        }
        if sentinel != 0 {
            return Err(format!(
                "{sentinel} packets of an active sentinel were delivered"
            ));
        }
        Ok(())
    }

    /// One rule activation: submit a sentinel drop rule and withdraw the
    /// previous sentinel, publish, then probe until the sentinel is
    /// confirmed filtered.
    fn activation<R>(
        &mut self,
        svc: &mut ServiceHandle<'_, '_, R>,
        measuring: bool,
    ) -> Result<(), BenchError>
    where
        R: FnMut(&FiveTuple) -> usize,
    {
        let k = self.sentinel;
        self.sentinel += 1;
        let id = PROBE_ROUND | k;
        let new = gen::sentinel_tuple(k);
        let old = self.live.map(|(old_k, _)| gen::sentinel_tuple(old_k));
        self.probe.clear();
        for _ in 0..PROBE_PER_SENTINEL {
            self.probe.push(gen::packet(new, self.next_id));
            if let Some(old) = old {
                self.probe.push(gen::packet(old, self.next_id + 1));
            }
            self.next_id += 2;
        }
        self.delivered
            .active_src
            .store(new.src_ip, Ordering::Relaxed);
        if let Some(s) = &self.stage {
            s.round.store(id, Ordering::Relaxed);
        }
        let rule = gen::sentinel_rule(k);

        let act = self.tr.open(Name::Activation, id);
        let (queued, submit) = self.tr.time(Name::Submit, id, || {
            self.d.session.submit_rules_deferred(&[rule], &self.d.rpki)
        });
        let mut withdraw = 0;
        if let Some((_, old_id)) = self.live {
            let (withdrawn, ns) = self.tr.time(Name::Withdraw, id, || {
                self.d.session.withdraw_rules_deferred(&[old_id])
            });
            withdraw = ns;
            if withdrawn != Ok(1) {
                return Err(gate(format!(
                    "withdrawal of sentinel rule {old_id}: {withdrawn:?}"
                )));
            }
        }
        let (published, publish) = self
            .tr
            .time(Name::Publish, id, || self.d.cluster.publish(0));
        let (_, probe) = self.tr.time(Name::Probe, id, || svc.offer(&self.probe));
        let (report, probe_flush) = self
            .tr
            .time(Name::ProbeFlush, id, || svc.flush_round().total());
        let total = self.tr.close(act, self.probe.len() as u32);

        if queued != Ok(1) {
            return Err(gate(format!("sentinel {k} submission: {queued:?}")));
        }
        let withdrawals = usize::from(old.is_some());
        if published.installs != 1
            || published.withdrawals != withdrawals
            || !published.ack_lost_slices.is_empty()
        {
            return Err(gate(format!("sentinel {k} publication: {published:?}")));
        }
        // The new sentinel must be filtered; the withdrawn one is decided
        // by the background rules again.
        let sentinels = PROBE_PER_SENTINEL as u64;
        let old_dropped = old.is_some_and(|t| self.oracle.drops_tuple(&t));
        let (forwarded, filtered) = match old {
            None => (0, sentinels),
            Some(_) if old_dropped => (0, 2 * sentinels),
            Some(_) => (sentinels, sentinels),
        };
        self.check(
            report,
            self.probe.len() as u64,
            forwarded,
            filtered,
            measuring,
        )
        .map_err(|e| gate(format!("sentinel {k} probe: {e}")))?;
        let workers = self.w.workers;
        for p in &self.probe {
            let fp = PacketFingerprints::of(&p.tuple);
            let s = shard_of_fingerprint(fp.tuple, workers);
            self.d
                .driver
                .neighbor_verifier_mut(s)
                .observe_fingerprint(fp.src_ip);
            if p.tuple != new && !old_dropped {
                self.d
                    .driver
                    .victim_verifier_mut(s)
                    .observe_fingerprint(fp.tuple);
            }
        }
        self.live = Some((k, published.new_rule_ids[0]));
        if measuring {
            self.activations.push(ActRec {
                total,
                submit,
                withdraw,
                publish,
                probe,
                probe_flush,
                episode: self.episode,
            });
        }
        Ok(())
    }

    /// Closes one audit period; every slice must audit Clean.
    fn audit(&mut self, measuring: bool) -> Result<(), BenchError> {
        let id = self.audits_closed;
        self.audits_closed += 1;
        let enclaves = self.d.cluster.enclaves().to_vec();
        if self.w.hash_rule {
            let mut ns = 0;
            for e in &enclaves {
                ns += self
                    .tr
                    .time(Name::Promote, id, || {
                        e.ecall(|app| app.apply_update_period())
                    })
                    .1;
            }
            if measuring {
                self.promote.push(ns);
            }
        }
        if self.o.trace && measuring {
            // Replay the audit's two halves through their public calls.
            let (mut export, mut verify) = (0, 0);
            for (i, e) in enclaves.iter().enumerate() {
                let ((outgoing, incoming), ns) = self.tr.time(Name::Export, id, || {
                    (
                        e.ecall(|app| app.export_log_for(0, LogDirection::Outgoing)),
                        e.ecall(|app| app.export_log_for(0, LogDirection::Incoming)),
                    )
                });
                export += ns;
                let driver = &mut self.d.driver;
                let (verdicts, ns) = self.tr.time(Name::Verify, id, || {
                    (
                        driver
                            .victim_verifier_mut(i)
                            .audit(&outgoing)
                            .map(|a| a.verdict),
                        driver
                            .neighbor_verifier_mut(i)
                            .audit(&incoming)
                            .map(|a| a.verdict),
                    )
                });
                verify += ns;
                if verdicts != (Ok(BypassVerdict::Clean), Ok(BypassVerdict::Clean)) {
                    return Err(gate(format!("audit {id} slice {i}: {verdicts:?}")));
                }
            }
            self.export.push(export);
            self.verify.push(verify);
        }
        let (outcome, ns) = self
            .tr
            .time(Name::Audit, id, || self.d.driver.close_round());
        let outcome = outcome.map_err(|e| gate(format!("audit {id}: {e}")))?;
        let clean = outcome.slices.iter().all(|s| {
            s.victim_verdict == BypassVerdict::Clean && s.neighbor_verdict == BypassVerdict::Clean
        });
        if outcome.dirty() || !clean || self.d.driver.state() != ContractState::Active {
            return Err(gate(format!("audit {id} not clean: {outcome:?}")));
        }
        if measuring {
            self.audits.push((self.episode, ns));
        }
        Ok(())
    }

    fn hybrid_totals(&self) -> HybridTotals {
        let mut t = HybridTotals::default();
        for e in self.d.cluster.enclaves() {
            let s = e.ecall(|app| app.hybrid().stats());
            t.exact_hits += s.exact_hits;
            t.decisions += s.exact_hits + s.hash_decisions;
            t.evicted += s.pending_evicted;
        }
        t
    }
}
