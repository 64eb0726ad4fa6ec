//! Runs one victim's compiled scenario through the real VIF stack, end
//! to end.
//!
//! A single-victim run is a one-tenant campaign. The harness only does
//! the single-victim setup:
//!
//! 1. it launches a **master enclave** and establishes the full §VI-B
//!    session against it on the default contract 0 (attestation, DH
//!    channel, derived audit key and sketch seed), registering the
//!    victim's prefix in RPKI;
//! 2. it builds an RSS-replicated [`EnclaveCluster`] around the master
//!    ([`EnclaveCluster::launch_rss_with`]), keyed by that session.
//!
//! It then hands the one tenant to the round loop the campaign harness
//! also runs (`round_loop`): the always-on
//! [`DataplaneService`](vif_dataplane::DataplaneService) carries every
//! virtual round, a
//! [`ClusterRoundDriver`](vif_core::rounds::ClusterRoundDriver) closes an
//! audited round per virtual round, and the [`VictimPolicy`]'s churn is
//! published mid-service, one epoch at a time.
//!
//! The resulting [`ScenarioReport`] is deterministic in the scenario seed
//! and harness configuration (see the crate docs for the argument).

use crate::campaign::CampaignConfig;
use crate::policy::VictimPolicy;
use crate::report::ScenarioReport;
use crate::round_loop::{derive32, run_rounds, Deployment};
use crate::timeline::Scenario;
use std::sync::Arc;
use vif_core::enclave_app::FilterEnclaveApp;
use vif_core::rpki::RpkiRegistry;
use vif_core::scale::EnclaveCluster;
use vif_core::session::{SessionConfig, VictimClient};
use vif_dataplane::{shard_of_fingerprint, ContractMap, FaultPlan};
use vif_sgx::{AttestationRootKey, AttestationService, EnclaveImage, EpcConfig, SgxPlatform};
use vif_telemetry::TelemetryHub;

/// A malicious filtering network inside a scenario (the per-slice variant
/// of §III-B's attack 2, switched on mid-scenario so detection latency is
/// measurable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioAdversary {
    /// First global round (0-based) the adversary is active in.
    pub from_round: u64,
    /// The worker whose post-filter output the network steals.
    pub drop_after_worker: usize,
}

/// Harness knobs.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioHarnessConfig {
    /// Filter workers (= enclave slices) in the sharded pipeline.
    pub workers: usize,
    /// Per-worker RX ring capacity. Must exceed the largest round's packet
    /// count for loss-free runs (ring overflow audits as drop-before at
    /// tolerance 0).
    pub ring_capacity: usize,
    /// Burst size of the RX/worker/TX loops.
    pub burst: usize,
    /// Verifiers' per-bin audit tolerance.
    pub tolerance: u64,
    /// Dirty rounds tolerated before the victim aborts the contract.
    /// Scenario runs default to "never" so the full report is collected;
    /// lower it to study abort behavior.
    pub max_strikes: u32,
    /// Optional scenario adversary.
    pub adversary: Option<ScenarioAdversary>,
}

impl Default for ScenarioHarnessConfig {
    fn default() -> Self {
        ScenarioHarnessConfig {
            workers: 2,
            ring_capacity: 1 << 15,
            burst: 32,
            tolerance: 0,
            max_strikes: u32::MAX,
            adversary: None,
        }
    }
}

/// Drives one [`Scenario`] through the live sharded data plane with an
/// adaptive [`VictimPolicy`] in the loop.
pub struct ScenarioHarness {
    scenario: Scenario,
    config: ScenarioHarnessConfig,
    faults: FaultPlan,
    telemetry: Option<Arc<TelemetryHub>>,
}

impl ScenarioHarness {
    /// Creates a harness.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (zero workers, ring, or burst).
    pub fn new(scenario: Scenario, config: ScenarioHarnessConfig) -> Self {
        assert!(config.workers > 0, "at least one worker");
        assert!(
            config.ring_capacity > 0 && config.burst > 0,
            "degenerate ring/burst"
        );
        ScenarioHarness {
            scenario,
            config,
            faults: FaultPlan::new(),
            telemetry: None,
        }
    }

    /// Attaches a seeded fault schedule: each event fires at the start of
    /// its global round, translated into the matching injection hook
    /// (worker crash/stall/overflow on the service, export faults on the
    /// round driver, ack loss on the cluster). A non-empty plan also
    /// switches the driver's export-failure policy to
    /// [`QuarantineSlice`](vif_core::rounds::ExportFailurePolicy::QuarantineSlice)
    /// so chaos runs degrade instead of aborting.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches a telemetry hub to the whole stack the run builds: the
    /// dataplane service records per-worker packet metrics and
    /// fault/quarantine events, the round driver records audit verdicts
    /// and probation transitions, the cluster records epoch publications
    /// and rejoins, and the harness itself drives the hub's virtual clock
    /// (`global_round × round_ns`) and records seeded publish-ack-loss
    /// and recover-intent injections. Everything recorded is
    /// seed-deterministic: two runs of the same scenario + faults + hub
    /// shape produce byte-identical snapshots and traces.
    pub fn with_telemetry(mut self, hub: Arc<TelemetryHub>) -> Self {
        self.telemetry = Some(hub);
        self
    }

    /// Runs the scenario to completion (or contract abort) and scores it.
    pub fn run(self, policy: &mut dyn VictimPolicy) -> ScenarioReport {
        let scenario = self.scenario;
        let config = self.config;
        let seed = scenario.seed;

        // --- §VI-B session against the master enclave -------------------
        let secret = derive32(seed, 0x01);
        let root = AttestationRootKey::new(derive32(seed, 0x02));
        let platform = SgxPlatform::new(seed ^ 0x51ce, EpcConfig::paper_default(), &root);
        let image = EnclaveImage::new("vif-scenario", 1, vec![0x90; 1 << 16]);
        let master = Arc::new(platform.launch(image.clone(), FilterEnclaveApp::fresh(secret)));
        let ias = AttestationService::new(root);
        let owner = derive32(seed, 0x03);
        let client = VictimClient::new(
            owner,
            &derive32(seed, 0x04),
            ias.verifier(),
            SessionConfig {
                expected_measurement: image.measurement(),
                tolerance: config.tolerance,
            },
        );
        let mut rpki = RpkiRegistry::new();
        rpki.register(scenario.victim, owner);
        let session = client
            .establish(Arc::clone(&master), &ias, derive32(seed, 0x05))
            .expect("scenario session handshake");
        let keys = session.keys().clone();

        // --- replicated cluster, keyed by the victim's session ----------
        let mut cluster = EnclaveCluster::launch_rss_with(
            platform,
            image,
            master,
            vif_core::ruleset::RuleSet::new(),
            config.workers,
            secret,
            keys.sketch_seed,
            keys.audit_key,
        );
        if let Some(hub) = &self.telemetry {
            cluster.set_telemetry(Arc::clone(hub));
        }
        let deployment = Deployment {
            cluster,
            ias,
            config: CampaignConfig {
                harness: config,
                ..Default::default()
            },
            faults: self.faults,
            contracts: ContractMap::new(),
            stale_rejoin: None,
            telemetry: self.telemetry,
        };
        // The one tenant: the victim on the default contract 0.
        let tenant = deployment.tenant(scenario, session, client, rpki, 0x40);
        let mut outcome = run_rounds(deployment, vec![tenant], vec![policy]);
        outcome.reports.remove(0)
    }
}

/// Recomputes packet → slice attribution under (possibly empty)
/// quarantine, exactly as the service handle steers: the RSS shard of the
/// fingerprint, unless that worker is quarantined, in which case the flow
/// re-hashes deterministically over the `live` survivors. Verifiers use
/// this with the quarantine state *at the start of the round*, since a
/// worker that dies mid-round still forwarded part of the offer under the
/// old steering.
pub(crate) fn attribute_slice(tuple_fp: u64, quarantined: &[bool], live: &[usize]) -> usize {
    let w0 = shard_of_fingerprint(tuple_fp, quarantined.len());
    if quarantined[w0] && !live.is_empty() {
        live[shard_of_fingerprint(tuple_fp, live.len())]
    } else {
        w0
    }
}
