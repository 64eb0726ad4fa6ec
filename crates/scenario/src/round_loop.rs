//! The one audited-round loop both harnesses run.
//!
//! A single-victim [`ScenarioHarness`](crate::harness::ScenarioHarness)
//! run is a one-tenant campaign. Each harness only sets up its
//! [`Deployment`] (master enclave, replicated cluster, attestation
//! service) and its [`Tenant`]s (an attested session, an audit driver,
//! a compiled scenario); [`run_rounds`] then drives every virtual round
//! over one always-on [`DataplaneService`]:
//!
//! 1. fire the round's scheduled faults and attempt due slice rejoins
//!    (relaunch, a fresh attested session per tenant, master-state
//!    replay, respawn into probation);
//! 2. every active tenant's neighbor verifiers observe its offered
//!    packets, and the merged offer runs through the service up to the
//!    round barrier;
//! 3. service-detected quarantines are mirrored into every tenant's
//!    driver and the cluster, and admission is re-run over the shrunken
//!    pool;
//! 4. each tenant in turn scores its deliveries, closes its audited
//!    round, reacts through its [`VictimPolicy`], and publishes its own
//!    epoch ([`EnclaveCluster::publish_contract`]);
//! 5. probation verdicts are coordinated across tenants: any tenant's
//!    dirty probation audit demotes the slice for everyone, and a slice
//!    is restored only once every tenant still auditing promoted it.
//!
//! What differs between the entry points is data fixed at construction
//! (contract id, rejoin nonce tag, contract map), never a branch here.

use crate::campaign::{CampaignConfig, RejectedContract};
use crate::harness::attribute_slice;
use crate::policy::{HeavyHitter, InstalledRule, PolicyAction, PolicyObservation, VictimPolicy};
use crate::report::{PhaseReport, ScenarioReport};
use crate::timeline::{RoundTraffic, Scenario};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use vif_core::cost::FilterMode;
use vif_core::enclave_app::{ContractId, EnclaveFilterStage};
use vif_core::logs::PacketFingerprints;
use vif_core::rounds::{
    ClusterRoundDriver, ContractState, ExportFailurePolicy, ExportFault, RoundPolicy,
};
use vif_core::rpki::RpkiRegistry;
use vif_core::rules::FilterRule;
use vif_core::ruleset::RuleId;
use vif_core::scale::EnclaveCluster;
use vif_core::session::{FilteringSession, VictimClient};
use vif_dataplane::{
    shard_of, shard_of_fingerprint, ContractMap, DataplaneService, FaultKind, FaultPlan, FiveTuple,
    Packet, ServiceConfig, ServiceHandle,
};
use vif_optimizer::{AdmissionVerdict, ArbiterConfig, Arbitration};
use vif_sgx::AttestationService;
use vif_sketch::{CountMinSketch, SketchConfig};
use vif_telemetry::{fault, EventKind, TelemetryHub};

/// Sentinel for "no worker's output is stolen" in the adversary atomic.
const NO_DROP_WORKER: usize = usize::MAX;

/// The infrastructure one run shares across its tenants.
pub(crate) struct Deployment {
    /// The replicated cluster; slice 0 is the master.
    pub(crate) cluster: EnclaveCluster,
    /// Countersigns the quotes of every (re-)attestation.
    pub(crate) ias: AttestationService,
    /// Dataplane/audit knobs plus the admission pool.
    pub(crate) config: CampaignConfig,
    /// The seeded fault schedule (faults hit infrastructure, not tenants).
    pub(crate) faults: FaultPlan,
    /// Destination-prefix → contract attribution for the service.
    pub(crate) contracts: ContractMap,
    /// Rejoins of this worker come back with an empty rule set (see
    /// [`CampaignHarness::with_stale_rejoin`](crate::CampaignHarness::with_stale_rejoin)).
    pub(crate) stale_rejoin: Option<usize>,
    /// The hub every layer records into.
    pub(crate) telemetry: Option<Arc<TelemetryHub>>,
}

impl Deployment {
    /// Builds one tenant around an attested `session`: its audit driver
    /// (one verifier pair per slice, bound to the session keys, with the
    /// plan's export faults hooked in), its compiled scenario, and its
    /// empty report accumulators. `rejoin_tag` is the domain tag of the
    /// nonces its rejoin handshakes draw (XORed with the slice index).
    pub(crate) fn tenant(
        &self,
        scenario: Scenario,
        session: FilteringSession,
        client: VictimClient,
        rpki: RpkiRegistry,
        rejoin_tag: u8,
    ) -> Tenant {
        let contract = session.contract();
        let keys = session.keys().clone();
        let mut driver = ClusterRoundDriver::new(
            self.cluster.enclaves().to_vec(),
            keys.sketch_seed,
            keys.audit_key,
            self.config.harness.tolerance,
            RoundPolicy {
                round_duration_ns: scenario.round_ns(),
                max_strikes: self.config.harness.max_strikes,
                export_failure: if self.faults.is_empty() {
                    ExportFailurePolicy::AbortContract
                } else {
                    ExportFailurePolicy::QuarantineSlice
                },
                ..Default::default()
            },
        )
        .with_contract(contract);
        if let Some(hub) = &self.telemetry {
            driver.set_telemetry(Arc::clone(hub));
        }
        if let Some(hook) = export_fault_hook(&self.faults) {
            driver.set_export_fault(hook);
        }
        let phases = scenario
            .phases
            .iter()
            .map(|p| PhaseReport {
                name: p.name.clone(),
                // Counts rounds actually run — an early contract abort
                // leaves later phases at 0, not their planned length.
                rounds: 0,
                offered_legit: 0,
                offered_attack: 0,
                delivered_legit: 0,
                delivered_attack: 0,
                rules_installed: 0,
                rules_withdrawn: 0,
                dirty_rounds: 0,
                uncovered: 0,
            })
            .collect();
        Tenant {
            contract,
            // Heavy-hitter estimation over received traffic: a bounded
            // sketch (not an exact table), cleared per round so estimates
            // are rates.
            hh_sketch: CountMinSketch::new(SketchConfig::small(
                scenario.seed ^ 0x6ea7 ^ contract as u64,
            )),
            rounds: scenario.compile(),
            scenario,
            session,
            client,
            driver,
            rpki,
            rejoin_tag,
            installed: Vec::new(),
            prev_rule_bytes: BTreeMap::new(),
            phases,
            dirty_rounds: 0,
            detection_latency: None,
            rounds_run: 0,
            total_installed: 0,
            total_withdrawn: 0,
            received: Vec::new(),
            outage_start: None,
            recovered_at: None,
        }
    }
}

/// Export faults are injected on each driver's export path; the hook is
/// keyed by (slice, round, attempt), where a driver's internal round
/// counter stays aligned with the compiled global round.
fn export_fault_hook(faults: &FaultPlan) -> Option<vif_core::rounds::ExportFaultHook> {
    let wired = faults.events().iter().any(|e| {
        matches!(
            e.kind,
            FaultKind::ExportCorrupt { .. } | FaultKind::ExportTimeout { .. }
        )
    });
    if !wired {
        return None;
    }
    let plan = faults.clone();
    Some(Box::new(move |slice, round, attempt| {
        for e in plan.due(round) {
            match e.kind {
                FaultKind::ExportCorrupt { slice: s, attempts }
                    if s == slice && attempt < attempts =>
                {
                    return ExportFault::Corrupt;
                }
                FaultKind::ExportTimeout { slice: s, attempts }
                    if s == slice && attempt < attempts =>
                {
                    return ExportFault::Timeout;
                }
                _ => {}
            }
        }
        ExportFault::None
    }))
}

/// One victim's live state inside the round loop.
pub(crate) struct Tenant {
    contract: ContractId,
    scenario: Scenario,
    rounds: Vec<RoundTraffic>,
    session: FilteringSession,
    /// Kept past setup: every slice rejoin re-attests a *fresh* session
    /// per tenant against the relaunched enclave.
    client: VictimClient,
    driver: ClusterRoundDriver,
    rpki: RpkiRegistry,
    rejoin_tag: u8,
    hh_sketch: CountMinSketch,
    installed: Vec<InstalledRule>,
    prev_rule_bytes: BTreeMap<RuleId, u64>,
    phases: Vec<PhaseReport>,
    dirty_rounds: u32,
    detection_latency: Option<u64>,
    rounds_run: u64,
    total_installed: u32,
    total_withdrawn: u32,
    /// Buffered forwarded tuples for the current round (split by dst).
    received: Vec<FiveTuple>,
    /// First round any of this contract's traffic went uncovered.
    outage_start: Option<u64>,
    /// First post-outage round with zero uncovered traffic.
    recovered_at: Option<u64>,
}

impl Tenant {
    /// Still auditing, with a scheduled round at `global_round`.
    fn runs(&self, global_round: u64) -> bool {
        self.driver.state() == ContractState::Active && (global_round as usize) < self.rounds.len()
    }
}

/// What [`run_rounds`] hands back: one report per tenant, in order, plus
/// the re-admission bookkeeping of mid-run pool changes.
pub(crate) struct RunOutcome {
    pub(crate) reports: Vec<ScenarioReport>,
    pub(crate) failover_rejected: Vec<RejectedContract>,
    pub(crate) readmitted: Vec<ContractId>,
}

/// Drives `tenants` round-locked over one always-on service until every
/// scenario ends or every contract aborts, and scores each tenant.
/// `policies` pairs with `tenants` by index; each gets its
/// [`VictimPolicy::finish`] call with its report.
pub(crate) fn run_rounds(
    dep: Deployment,
    tenants: Vec<Tenant>,
    mut policies: Vec<&mut dyn VictimPolicy>,
) -> RunOutcome {
    let Deployment {
        cluster,
        ias,
        config,
        faults,
        contracts,
        stale_rejoin,
        telemetry,
    } = dep;
    let n = config.harness.workers;
    let adversary = config.harness.adversary;
    let total_rounds = tenants
        .iter()
        .map(|t| t.rounds.len() as u64)
        .max()
        .unwrap_or(0);
    // Virtual nanoseconds per round (max over tenants): the telemetry
    // clock ticks off it; seconds feed re-arbitration's demand window.
    let round_ns_max = tenants
        .iter()
        .map(|t| t.scenario.round_ns())
        .max()
        .unwrap_or(1)
        .max(1);
    let mut lp = RoundLoop {
        n,
        round_secs: round_ns_max as f64 / 1e9,
        arbiter: config.arbiter,
        cluster,
        ias,
        faults,
        stale_rejoin,
        telemetry: telemetry.clone(),
        tenants,
        ack_loss: Arc::new(Mutex::new(vec![0u32; n])),
        stall_until: vec![0u64; n],
        seen_q: vec![false; n],
        quarantined_order: Vec::new(),
        mirrored_q: vec![false; n],
        want_rejoin: vec![false; n],
        next_rejoin_round: vec![0u64; n],
        crash_round: vec![None; n],
        recovered_order: Vec::new(),
        rejoin_rounds: None,
        failover_rejected: Vec::new(),
        readmitted: Vec::new(),
    };
    lp.arm_publish_ack_loss();

    // --- the one always-on service every tenant shares --------------
    // Stages, rings, and worker threads are built ONCE; every round
    // below is a message exchange with this running service. The
    // adversary is re-aimed between rounds through an atomic the TX sink
    // reads per delivery (the round barrier orders the store).
    let stages: Vec<EnclaveFilterStage> = lp
        .cluster
        .enclaves()
        .iter()
        .map(|e| EnclaveFilterStage::new(Arc::clone(e), FilterMode::SgxNearZeroCopy))
        .collect();
    let forwarded: Mutex<Vec<FiveTuple>> = Mutex::new(Vec::new());
    let adversary_drop = AtomicUsize::new(NO_DROP_WORKER);
    let mut service = DataplaneService::new(ServiceConfig {
        ring_capacity: config.harness.ring_capacity,
        burst: config.harness.burst,
        ..Default::default()
    })
    .with_contracts(contracts);
    if let Some(hub) = &telemetry {
        service = service.with_telemetry(Arc::clone(hub));
    }

    let reports = service.run(
        stages,
        |worker, pkt| {
            if adversary_drop.load(Ordering::Relaxed) != worker {
                forwarded.lock().expect("TX sink poisoned").push(pkt.tuple);
            }
        },
        move |t: &FiveTuple| shard_of(t, n),
        |svc| {
            let mut merged: Vec<Packet> = Vec::new();
            for global_round in 0..total_rounds {
                // Drive the hub's virtual clock: every event and snapshot
                // this round is stamped with the round's deterministic
                // start time, never wall time.
                if let Some(hub) = &telemetry {
                    hub.set_time(global_round * round_ns_max);
                }
                adversary_drop.store(
                    adversary
                        .filter(|a| global_round >= a.from_round)
                        .map(|a| a.drop_after_worker % n)
                        .unwrap_or(NO_DROP_WORKER),
                    Ordering::Relaxed,
                );
                lp.fire_faults(svc, global_round);
                lp.attempt_rejoins(svc, global_round);

                // Attribution state as the round *starts* (see
                // `attribute_slice`): a worker dying this round still
                // forwarded part of the offer under the old steering, so
                // re-steer attribution kicks in next round.
                let view = RoundView {
                    global_round,
                    pre_q: svc.quarantined().to_vec(),
                    pre_live: svc.live_workers().to_vec(),
                    pre_prob: svc.probation().to_vec(),
                    adversary_from: adversary.map(|a| a.from_round),
                };
                lp.observe_offers(&view, &mut merged);
                svc.round(&merged);
                // Per-contract uncovered traffic for this round (the
                // degraded-mode accountability counters).
                let deltas = svc.contract_deltas().to_vec();
                lp.mirror_service_quarantines(svc, global_round);

                // Split what arrived by destination prefix: each tenant
                // consumes only its own deliveries.
                for tuple in forwarded.lock().expect("TX sink poisoned").drain(..) {
                    if let Some(t) = lp
                        .tenants
                        .iter_mut()
                        .find(|t| t.scenario.victim.contains(tuple.dst_ip))
                    {
                        t.received.push(tuple);
                    }
                }

                // Each tenant closes *its own* audited round and reacts;
                // its churn publishes its own epoch before the next tenant
                // is processed, so deferred install ids are assigned
                // contract by contract, deterministically.
                for (t, policy) in lp.tenants.iter_mut().zip(policies.iter_mut()) {
                    if !t.runs(global_round) {
                        continue;
                    }
                    let uncovered = deltas
                        .iter()
                        .find(|d| d.contract == t.contract)
                        .map(|d| d.uncovered)
                        .unwrap_or(0);
                    step_tenant(t, &mut **policy, &view, &mut lp.cluster, uncovered);
                }

                lp.record_quarantines(svc);
                lp.settle_probation(svc, global_round);
                if lp
                    .tenants
                    .iter()
                    .all(|t| t.driver.state() != ContractState::Active)
                {
                    break; // every victim aborted its contract
                }
            }
            lp.reports()
        },
    );
    for (report, policy) in reports.iter().zip(policies.iter_mut()) {
        policy.finish(report);
    }
    RunOutcome {
        reports,
        failover_rejected: lp.failover_rejected,
        readmitted: lp.readmitted,
    }
}

/// The round loop's state across rounds: the shared infrastructure, the
/// tenants, and the slice-lifecycle bookkeeping (indexed by slice).
struct RoundLoop {
    n: usize,
    round_secs: f64,
    arbiter: ArbiterConfig,
    cluster: EnclaveCluster,
    ias: AttestationService,
    faults: FaultPlan,
    stale_rejoin: Option<usize>,
    telemetry: Option<Arc<TelemetryHub>>,
    tenants: Vec<Tenant>,
    /// Publish-ack losses still to inflict per slice: armed by the fault
    /// schedule, consumed by the cluster's install path.
    ack_loss: Arc<Mutex<Vec<u32>>>,
    /// Stall windows (exclusive end round) re-asserted every round of the
    /// window: the round barrier force-releases a stall, so a multi-round
    /// stall is |rounds| single-round stalls.
    stall_until: Vec<u64>,
    /// Slices already in `quarantined_order`.
    seen_q: Vec<bool>,
    quarantined_order: Vec<usize>,
    /// Crashes already mirrored into every tenant's driver and the
    /// cluster; cleared when the slice re-enters probation so a flap
    /// (re-crash mid-probation) mirrors again.
    mirrored_q: Vec<bool>,
    /// Slices a seeded WorkerRecover wants back in (re-armed with
    /// exponential backoff after each failed probation, until every
    /// tenant's rejoin budget is spent — flap damping).
    want_rejoin: Vec<bool>,
    next_rejoin_round: Vec<u64>,
    crash_round: Vec<Option<u64>>,
    recovered_order: Vec<usize>,
    rejoin_rounds: Option<u64>,
    failover_rejected: Vec<RejectedContract>,
    readmitted: Vec<ContractId>,
}

impl RoundLoop {
    /// Hooks the cluster's publish-ack path to the ack-loss countdown when
    /// the schedule injects any.
    fn arm_publish_ack_loss(&mut self) {
        if !self
            .faults
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::PublishAckLoss { .. }))
        {
            return;
        }
        let counts = Arc::clone(&self.ack_loss);
        self.cluster
            .set_publish_ack_loss(Box::new(move |slice, _attempt| {
                let mut counts = counts.lock().expect("ack-loss counters poisoned");
                if counts[slice] > 0 {
                    counts[slice] -= 1;
                    true
                } else {
                    false
                }
            }));
    }

    /// Fires this round's scheduled faults (crashes take effect at the
    /// coming barrier; stalls/storms shape the offer window; ack loss arms
    /// the cluster's install hook; export faults fire inside each driver's
    /// hook) and re-asserts open stall windows.
    fn fire_faults<R: FnMut(&FiveTuple) -> usize>(
        &mut self,
        svc: &mut ServiceHandle<'_, '_, R>,
        global_round: u64,
    ) {
        let n = self.n;
        for ev in self.faults.due(global_round) {
            match ev.kind {
                FaultKind::WorkerCrash { worker } => svc.inject_crash(worker % n),
                FaultKind::WorkerRecover { worker } => {
                    self.want_rejoin[worker % n] = true;
                    if let Some(hub) = &self.telemetry {
                        hub.record_event(
                            EventKind::FaultInjected,
                            (worker % n) as u32,
                            fault::RECOVER,
                            0,
                        );
                    }
                }
                FaultKind::WorkerStall { worker, rounds } => {
                    let w = worker % n;
                    self.stall_until[w] = self.stall_until[w].max(global_round + rounds);
                }
                FaultKind::RingOverflowStorm { worker, packets } => {
                    svc.inject_overflow_storm(worker % n, packets);
                }
                FaultKind::PublishAckLoss { slice, count } => {
                    self.ack_loss.lock().expect("ack-loss counters poisoned")[slice % n] += count;
                    if let Some(hub) = &self.telemetry {
                        hub.record_event(
                            EventKind::FaultInjected,
                            (slice % n) as u32,
                            fault::ACK_LOSS,
                            count as u64,
                        );
                    }
                }
                FaultKind::ExportCorrupt { .. } | FaultKind::ExportTimeout { .. } => {}
            }
        }
        for (w, &until) in self.stall_until.iter().enumerate() {
            if until > global_round && !svc.quarantined()[w] {
                svc.stall_worker(w, true);
            }
        }
    }

    /// Attempts scheduled rejoins: relaunches the slice on a fresh
    /// enclave, re-attests a NEW session *per tenant* (fresh channels,
    /// audit keys, and sketch seeds — pre-crash keys are never reused),
    /// replays rule and contract state from the master, and respawns the
    /// worker into probation. Live steering is untouched until every
    /// tenant has promoted the slice.
    fn attempt_rejoins<R: FnMut(&FiveTuple) -> usize>(
        &mut self,
        svc: &mut ServiceHandle<'_, '_, R>,
        global_round: u64,
    ) {
        for w in 1..self.n {
            if !self.want_rejoin[w]
                || !svc.quarantined()[w]
                || svc.probation()[w]
                || global_round < self.next_rejoin_round[w]
                || self.cluster.quarantined()[0]
                || !self
                    .tenants
                    .iter()
                    .any(|t| t.driver.state() == ContractState::Active)
            {
                continue;
            }
            self.want_rejoin[w] = false;
            if !self
                .tenants
                .iter()
                .all(|t| t.driver.quarantined()[w] && t.driver.rejoin_allowed(w))
            {
                continue;
            }
            self.cluster.relaunch_slice(w);
            let enclave = Arc::clone(&self.cluster.enclaves()[w]);
            for t in self.tenants.iter_mut() {
                if t.driver.state() != ContractState::Active {
                    continue;
                }
                let fresh = t
                    .client
                    .establish_contract(
                        Arc::clone(&enclave),
                        &self.ias,
                        derive32(t.scenario.seed ^ global_round, t.rejoin_tag ^ w as u8),
                        t.contract,
                    )
                    .expect("rejoin re-attestation handshake");
                t.driver.start_probation(
                    w,
                    Arc::clone(&enclave),
                    fresh.victim_verifier(),
                    fresh.neighbor_verifier(),
                );
            }
            self.cluster.resync_slice(0, w);
            if self.stale_rejoin == Some(w) {
                // Adversarial variant (see `with_stale_rejoin`): wipe the
                // replayed rules and keep the slice out of the control
                // plane so churn cannot heal it — probation must catch the
                // desync on its own.
                enclave.ecall(move |app| app.install_ruleset(vif_core::ruleset::RuleSet::new()));
                self.cluster.quarantine_slice(w);
            }
            svc.respawn_worker(
                w,
                EnclaveFilterStage::new(enclave, FilterMode::SgxNearZeroCopy),
            );
            self.mirrored_q[w] = false;
        }
    }

    /// Neighbor ASes observe what they hand over, attributed by the public
    /// steering hash (fingerprint-once per packet). A probation slice
    /// shadows its home shard: its fresh neighbor verifier observes the
    /// handover too (the live re-steered slice keeps its own). Every
    /// active tenant's schedule merges into one offered burst in `merged`
    /// (arrival order per tenant is preserved; cross-tenant interleaving
    /// is irrelevant — verdicts are per packet and sketch updates commute).
    fn observe_offers(&mut self, view: &RoundView, merged: &mut Vec<Packet>) {
        merged.clear();
        for t in self.tenants.iter_mut() {
            if !t.runs(view.global_round) {
                continue;
            }
            let round = &t.rounds[view.global_round as usize];
            for pkt in &round.packets {
                let fp = PacketFingerprints::of(&pkt.tuple);
                t.driver
                    .neighbor_verifier_mut(attribute_slice(fp.tuple, &view.pre_q, &view.pre_live))
                    .observe_fingerprint(fp.src_ip);
                let home = shard_of_fingerprint(fp.tuple, self.n);
                if view.pre_prob[home] {
                    t.driver
                        .neighbor_verifier_mut(home)
                        .observe_fingerprint(fp.src_ip);
                }
            }
            merged.extend_from_slice(&round.packets);
        }
    }

    /// Mirrors newly service-quarantined workers into every tenant's audit
    /// driver and the cluster *before* any tenant closes its round (the
    /// dead slice's audit is excised and future churn skips it), then
    /// re-runs admission over the shrunken pool. A worker on probation
    /// (quarantined *and* probation in the service) is left alone — the
    /// drivers audit it off its shadow logs; a worker that crashed
    /// *mid-probation* (a flap) is flap-demoted here for every tenant,
    /// with the rejoin attempt charged and backoff scheduled.
    fn mirror_service_quarantines<R: FnMut(&FiveTuple) -> usize>(
        &mut self,
        svc: &ServiceHandle<'_, '_, R>,
        global_round: u64,
    ) {
        let mut new_quarantine = false;
        for w in 0..self.n {
            if !svc.quarantined()[w] || svc.probation()[w] || self.mirrored_q[w] {
                continue;
            }
            self.mirrored_q[w] = true;
            new_quarantine = true;
            if !self.cluster.quarantined()[w] && self.cluster.live_len() > 1 {
                self.cluster.quarantine_slice(w);
            }
            if self.quarantine_in_drivers(w) {
                self.schedule_rejoin(w, global_round);
            }
            if self.crash_round[w].is_none() {
                self.crash_round[w] = Some(global_round);
            }
        }
        if new_quarantine && !self.cluster.quarantined()[0] {
            let arb = self.rearbitrate(global_round);
            for t in &self.tenants {
                if let Some(AdmissionVerdict::Rejected { reason }) = arb.verdict(t.contract) {
                    if !self
                        .failover_rejected
                        .iter()
                        .any(|r| r.contract == t.contract)
                    {
                        self.failover_rejected.push(RejectedContract {
                            contract: t.contract,
                            reason: reason.to_string(),
                        });
                    }
                }
            }
        }
    }

    /// Records every new quarantine in discovery order, whether the
    /// service (a crash) or a driver (exhausted export retries)
    /// originated it.
    fn record_quarantines<R: FnMut(&FiveTuple) -> usize>(
        &mut self,
        svc: &ServiceHandle<'_, '_, R>,
    ) {
        for (w, seen) in self.seen_q.iter_mut().enumerate() {
            if !*seen
                && (svc.quarantined()[w] || self.tenants.iter().any(|t| t.driver.quarantined()[w]))
            {
                *seen = true;
                self.quarantined_order.push(w);
            }
        }
    }

    /// Probation verdicts, coordinated across tenants: ANY tenant's dirty
    /// (or unauditable) probation audit demotes the slice for everyone —
    /// mirrored into the dataplane and the cluster, with the next attempt
    /// scheduled after exponential backoff; the worker is restored into
    /// the steering hash, byte-identical to pre-crash, only once EVERY
    /// tenant still auditing has promoted it.
    fn settle_probation<R: FnMut(&FiveTuple) -> usize>(
        &mut self,
        svc: &mut ServiceHandle<'_, '_, R>,
        global_round: u64,
    ) {
        let mut demoted_ws: BTreeSet<usize> = BTreeSet::new();
        let mut promoted_ws: BTreeSet<usize> = BTreeSet::new();
        for t in self.tenants.iter_mut() {
            demoted_ws.extend(t.driver.take_demoted());
            promoted_ws.extend(t.driver.take_promoted());
        }
        for &w in &demoted_ws {
            promoted_ws.remove(&w);
            if svc.probation()[w] {
                svc.demote_worker(w);
            }
            if !self.cluster.quarantined()[w] && self.cluster.live_len() > 1 {
                self.cluster.quarantine_slice(w);
            }
            self.mirrored_q[w] = true;
            self.quarantine_in_drivers(w);
            self.schedule_rejoin(w, global_round);
        }
        for &w in &promoted_ws {
            let all_clear = self.tenants.iter().all(|t| {
                !t.runs(global_round) || (!t.driver.probation()[w] && !t.driver.quarantined()[w])
            });
            if !all_clear {
                continue;
            }
            svc.restore_worker(w);
            self.recovered_order.push(w);
            if self.rejoin_rounds.is_none() {
                self.rejoin_rounds = self.crash_round[w].map(|c| global_round - c);
            }
            // The pool grew back: re-run admission over the restored
            // slices and re-admit failover-rejected contracts that fit
            // again.
            let arb = self.rearbitrate(global_round);
            let readmitted = &mut self.readmitted;
            self.failover_rejected.retain(|r| {
                if matches!(
                    arb.verdict(r.contract),
                    Some(AdmissionVerdict::Rejected { .. })
                ) {
                    true
                } else {
                    readmitted.push(r.contract);
                    false
                }
            });
        }
    }

    /// Quarantines slice `w` in every tenant's audit driver, demoting it
    /// where it was on probation. Returns whether any tenant demoted it
    /// (a failed rejoin).
    fn quarantine_in_drivers(&mut self, w: usize) -> bool {
        let mut demoted = false;
        for t in self.tenants.iter_mut() {
            if t.driver.probation()[w] {
                t.driver.demote_slice(w);
                demoted = true;
            } else if !t.driver.quarantined()[w] {
                t.driver.quarantine_slice(w);
            }
        }
        demoted
    }

    /// Schedules slice `w`'s next rejoin attempt after the longest backoff
    /// any tenant asks for, if every tenant still has rejoin budget.
    fn schedule_rejoin(&mut self, w: usize, global_round: u64) {
        let backoff = self
            .tenants
            .iter()
            .map(|t| t.driver.rejoin_backoff_rounds(w))
            .max()
            .unwrap_or(0);
        self.next_rejoin_round[w] = global_round + 1 + backoff;
        self.want_rejoin[w] = self.tenants.iter().all(|t| t.driver.rejoin_allowed(w));
    }

    /// Admission re-run over the live slices, with every round so far as
    /// the demand window.
    fn rearbitrate(&self, global_round: u64) -> Arbitration {
        let window_secs = (global_round + 1) as f64 * self.round_secs;
        self.cluster.rearbitrate(0, window_secs, 0.1, self.arbiter)
    }

    /// One report per tenant, in tenant order.
    fn reports(&self) -> Vec<ScenarioReport> {
        self.tenants
            .iter()
            .map(|t| ScenarioReport {
                scenario: t.scenario.name.clone(),
                contract: t.contract,
                seed: t.scenario.seed,
                workers: self.n,
                phases: t.phases.clone(),
                rounds: t.rounds_run,
                dirty_rounds: t.dirty_rounds,
                final_state: t.driver.state(),
                detection_latency_rounds: t.detection_latency,
                rules_installed: t.total_installed,
                rules_withdrawn: t.total_withdrawn,
                quarantined_slices: self.quarantined_order.clone(),
                recovery_rounds: t
                    .outage_start
                    .and_then(|start| t.recovered_at.map(|r| r - start)),
                recovered_slices: self.recovered_order.clone(),
                rejoin_rounds: self.rejoin_rounds,
                probation_rounds: t.driver.probation_rounds_used(),
            })
            .collect()
    }
}

/// The round state every tenant's step reads.
struct RoundView {
    global_round: u64,
    /// Service quarantine/live/probation state as the round started.
    pre_q: Vec<bool>,
    pre_live: Vec<usize>,
    pre_prob: Vec<bool>,
    /// First round of the scenario adversary, if one is configured.
    adversary_from: Option<u64>,
}

/// One tenant's end-of-round step: score deliveries, audit, react,
/// publish its epoch.
fn step_tenant(
    t: &mut Tenant,
    policy: &mut dyn VictimPolicy,
    view: &RoundView,
    cluster: &mut EnclaveCluster,
    uncovered: u64,
) {
    let round = &t.rounds[view.global_round as usize];
    let phase = &mut t.phases[round.phase];
    phase.rounds += 1;
    phase.offered_legit += round.offered_legit;
    phase.offered_attack += round.offered_attack;
    phase.uncovered += uncovered;
    if uncovered > 0 {
        if t.outage_start.is_none() {
            t.outage_start = Some(round.global_round);
        }
        t.recovered_at = None;
    } else if t.outage_start.is_some() && t.recovered_at.is_none() {
        t.recovered_at = Some(round.global_round);
    }

    // The victim consumes what actually arrived: verifier observation,
    // exact delivery scoring, heavy-hitter counting.
    t.hh_sketch.clear();
    let mut candidates: BTreeSet<u32> = BTreeSet::new();
    for tuple in t.received.drain(..) {
        let fp = PacketFingerprints::of(&tuple);
        t.driver
            .victim_verifier_mut(attribute_slice(fp.tuple, &view.pre_q, &view.pre_live))
            .observe_fingerprint(fp.tuple);
        // The stateless filter is deterministic, so the shadow copy of
        // every sink-delivered home-shard packet was forwarded (and
        // logged outgoing) by a probation slice too.
        let home = shard_of_fingerprint(fp.tuple, view.pre_q.len());
        if view.pre_prob[home] {
            t.driver
                .victim_verifier_mut(home)
                .observe_fingerprint(fp.tuple);
        }
        if round.attack_sources.contains(&tuple.src_ip) {
            phase.delivered_attack += 1;
        } else {
            phase.delivered_legit += 1;
        }
        t.hh_sketch.add(&tuple.src_ip.to_be_bytes(), 1);
        candidates.insert(tuple.src_ip);
    }

    let outcome = t.driver.close_round().expect("authentic slice exports");
    t.rounds_run += 1;
    // Export-failure quarantines originate in the driver (exhausted
    // retries under QuarantineSlice); mirror them into the cluster so
    // churn skips the unauditable slice.
    for w in 0..view.pre_q.len() {
        if t.driver.quarantined()[w] && !cluster.quarantined()[w] && cluster.live_len() > 1 {
            cluster.quarantine_slice(w);
        }
    }
    if outcome.dirty() {
        t.dirty_rounds += 1;
        phase.dirty_rounds += 1;
        if t.detection_latency.is_none() {
            if let Some(from) = view.adversary_from.filter(|&f| round.global_round >= f) {
                t.detection_latency = Some(round.global_round - from + 1);
            }
        }
    }

    // Per-contract rule telemetry (the B_i exchange): matched bytes of
    // the tenant's own rules across the live slices, diffed against the
    // last round's snapshot.
    let cur_rule_bytes = cluster.contract_rule_bytes(t.contract);
    for rule in &mut t.installed {
        let cur = cur_rule_bytes.get(&rule.id).copied().unwrap_or(0);
        let prev = t.prev_rule_bytes.get(&rule.id).copied().unwrap_or(0);
        if cur == prev {
            rule.rounds_idle += 1;
        } else {
            rule.rounds_idle = 0;
        }
    }

    // Heavy hitters: estimate every candidate source, sorted by estimate
    // descending (ties by address — fully deterministic).
    let mut heavy: Vec<HeavyHitter> = candidates
        .iter()
        .map(|&src| HeavyHitter {
            src_ip: src,
            estimated_packets: t.hh_sketch.estimate(&src.to_be_bytes()),
        })
        .collect();
    heavy.sort_by(|a, b| {
        b.estimated_packets
            .cmp(&a.estimated_packets)
            .then(a.src_ip.cmp(&b.src_ip))
    });

    let mut actions = Vec::new();
    policy.react(
        &PolicyObservation {
            round: round.global_round,
            outcome: &outcome,
            heavy_hitters: &heavy,
            installed: &t.installed,
            victim: t.scenario.victim,
        },
        &mut actions,
    );

    // Queue the churn through the session protocol against the master,
    // then publish one epoch: the churned rule set is built ONCE off the
    // hot path and every slice swaps to it atomically — the workers never
    // stop.
    let mut installs: Vec<FilterRule> = Vec::new();
    let mut withdrawals: Vec<RuleId> = Vec::new();
    for action in actions {
        match action {
            PolicyAction::Install(rule) => installs.push(rule),
            PolicyAction::Withdraw(id) => withdrawals.push(id),
        }
    }
    // With the master slice quarantined the §VI-B control channel is
    // down: churn is dropped until the operator re-homes the session (out
    // of scope here), and the tenant keeps running on its frozen rule set.
    let master_live = !cluster.quarantined()[0];
    if !withdrawals.is_empty() && master_live {
        let removed = t
            .session
            .withdraw_rules_deferred(&withdrawals)
            .expect("withdrawal over the session channel");
        t.installed.retain(|r| !withdrawals.contains(&r.id));
        phase.rules_withdrawn += removed as u32;
        t.total_withdrawn += removed as u32;
    }
    if !installs.is_empty() && master_live {
        t.session
            .submit_rules_deferred(&installs, &t.rpki)
            .expect("install over the session channel");
        phase.rules_installed += installs.len() as u32;
        t.total_installed += installs.len() as u32;
    }
    if master_live && (!installs.is_empty() || !withdrawals.is_empty()) {
        // Publish *this contract's* epoch only: other tenants' queues,
        // epochs, and sketches stay untouched. The report hands back the
        // ids the publisher assigned to this tenant's installs.
        let report = cluster.publish_contract(0, t.contract);
        for (i, rule) in installs.iter().enumerate() {
            t.installed.push(InstalledRule {
                id: report.new_rule_ids[i],
                rule: *rule,
                installed_round: round.global_round,
                rounds_idle: 0,
            });
        }
        // Publication resets every rule's byte counters on every slice.
        t.prev_rule_bytes = BTreeMap::new();
    } else {
        t.prev_rule_bytes = cur_rule_bytes;
    }
}

/// Expands a seed into deterministic 32-byte key material, domain-tagged
/// (one [`vif_sketch::hash::splitmix64`] output per word).
pub(crate) fn derive32(seed: u64, tag: u8) -> [u8; 32] {
    let mut out = [0u8; 32];
    let base = seed ^ (tag as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for (word, chunk) in out.chunks_mut(8).enumerate() {
        let z = vif_sketch::hash::splitmix64(
            base.wrapping_add((word as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        );
        chunk.copy_from_slice(&z.to_le_bytes());
    }
    out
}
