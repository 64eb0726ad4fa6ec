//! Multi-victim campaign mode: many tenant contracts, one live cluster.
//!
//! A [`CampaignHarness`] runs several victims' scenarios *simultaneously*
//! against a single always-on service — the paper's actual deployment
//! shape, a transit ISP/IXP selling verifiable filtering to many
//! customers at once. A single-victim
//! [`ScenarioHarness`](crate::harness::ScenarioHarness) run is the
//! one-tenant case of the same round loop. This module owns what only
//! campaigns have — admission and per-contract provisioning:
//!
//! 1. **Admission**: each declared contract's projected per-rule demand
//!    goes through [`vif_optimizer::arbitrate`]; contracts that do not fit
//!    the shared enclave pool (rule slots, EPC memory, bandwidth) are
//!    rejected up front with a per-resource reason and never get a
//!    session.
//! 2. **Attestation**: each admitted contract runs the full §VI-B
//!    handshake under its own [`ContractId`]
//!    ([`VictimClient::establish_contract`]), landing its channel, audit
//!    key, and sketch pair in its own enclave slot on every slice
//!    ([`EnclaveCluster::provision_contract`]).
//! 3. **Execution** (the shared round loop): every virtual round merges
//!    all active scenarios' packet schedules onto one
//!    [`DataplaneService`](vif_dataplane::DataplaneService) (per-contract
//!    round deltas split by destination prefix), then each contract in
//!    turn audits its round with its own
//!    [`ClusterRoundDriver`](vif_core::rounds::ClusterRoundDriver), reacts
//!    through its own [`VictimPolicy`], and publishes its own epoch
//!    ([`EnclaveCluster::publish_contract`]) — one tenant's churn,
//!    rotation, and strikes never touch another tenant's slot.
//! 4. **Scoring**: every contract ends with its own [`ScenarioReport`]
//!    (goodput, leakage, collateral, churn), collected in a
//!    [`CampaignReport`] together with the admission verdicts.

use crate::harness::ScenarioHarnessConfig;
use crate::policy::VictimPolicy;
use crate::report::ScenarioReport;
use crate::round_loop::{derive32, run_rounds, Deployment};
use crate::timeline::Scenario;
use std::collections::BTreeSet;
use std::sync::Arc;
use vif_core::enclave_app::{ContractId, FilterEnclaveApp};
use vif_core::rpki::RpkiRegistry;
use vif_core::scale::EnclaveCluster;
use vif_core::session::{SessionConfig, VictimClient};
use vif_dataplane::{ContractMap, DegradedMode, FaultPlan};
use vif_optimizer::{arbitrate, AdmissionVerdict, ArbiterConfig, ContractDemand};
use vif_sgx::{AttestationRootKey, AttestationService, EnclaveImage, EpcConfig, SgxPlatform};
use vif_telemetry::{EventKind, TelemetryHub};

/// One tenant's entry in a campaign: who it is, what traffic it will see,
/// and what filtering capacity it asks the arbiter for.
#[derive(Debug, Clone)]
pub struct CampaignContract {
    /// The tenant's contract id. Must be nonzero (0 is the cluster's
    /// default slot) and unique within the campaign.
    pub contract: ContractId,
    /// The tenant's scripted workload; its `victim` prefix doubles as the
    /// contract's traffic scope (destination-prefix attribution), so
    /// campaign scenarios must use disjoint victim prefixes.
    pub scenario: Scenario,
    /// Projected per-rule demand, Gb/s — what the tenant asks the
    /// admission arbiter to reserve against the shared enclave pool.
    pub demand_gbps_per_rule: Vec<f64>,
}

/// Campaign knobs: the per-victim harness settings plus the shared
/// resource pool the arbiter admits against.
#[derive(Debug, Clone, Copy, Default)]
pub struct CampaignConfig {
    /// Dataplane/audit knobs shared by every contract.
    pub harness: ScenarioHarnessConfig,
    /// The arbiter's enclave pool and solver budget.
    pub arbiter: ArbiterConfig,
}

/// A contract the arbiter turned away at admission.
#[derive(Debug, Clone)]
pub struct RejectedContract {
    /// The contract id.
    pub contract: ContractId,
    /// The per-resource reason, rendered from
    /// [`vif_optimizer::arbiter::RejectReason`].
    pub reason: String,
}

/// Everything a campaign run produces: one [`ScenarioReport`] per
/// admitted contract, plus who was rejected and why.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-contract scenario reports, in declaration order of the
    /// admitted contracts.
    pub reports: Vec<ScenarioReport>,
    /// Contracts rejected at admission (never attested, never ran).
    pub rejected: Vec<RejectedContract>,
    /// Contracts whose budget no longer fit when admission was re-run
    /// over the surviving slices after a mid-run quarantine
    /// ([`EnclaveCluster::rearbitrate`]). They keep running degraded —
    /// shedding is an operator decision — but the report names them.
    /// A contract that fit again after a slice rejoined moves to
    /// [`readmitted`](CampaignReport::readmitted).
    pub failover_rejected: Vec<RejectedContract>,
    /// Contracts that were failover-rejected during an outage but fit
    /// again when admission was re-run over the restored pool after a
    /// slice completed its rejoin (re-admission order).
    pub readmitted: Vec<ContractId>,
}

impl CampaignReport {
    /// The report for one contract, if it was admitted.
    pub fn report(&self, contract: ContractId) -> Option<&ScenarioReport> {
        self.reports.iter().find(|r| r.contract == contract)
    }
}

/// Drives several victims' scenarios concurrently over one live cluster,
/// with optimizer-arbitrated admission.
pub struct CampaignHarness {
    contracts: Vec<CampaignContract>,
    config: CampaignConfig,
    faults: FaultPlan,
    degraded: Vec<(ContractId, DegradedMode)>,
    stale_rejoin: Option<usize>,
    telemetry: Option<Arc<TelemetryHub>>,
}

impl CampaignHarness {
    /// Creates a campaign harness.
    ///
    /// # Panics
    ///
    /// Panics on an empty campaign, a contract id of 0, duplicate
    /// contract ids, or a degenerate harness configuration.
    pub fn new(contracts: Vec<CampaignContract>, config: CampaignConfig) -> Self {
        assert!(!contracts.is_empty(), "campaign needs contracts");
        assert!(config.harness.workers > 0, "at least one worker");
        let mut seen = BTreeSet::new();
        for c in &contracts {
            assert!(c.contract != 0, "contract 0 is the default slot");
            assert!(seen.insert(c.contract), "duplicate contract id");
        }
        CampaignHarness {
            contracts,
            config,
            faults: FaultPlan::new(),
            degraded: Vec::new(),
            stale_rejoin: None,
            telemetry: None,
        }
    }

    /// Attaches a telemetry hub to the whole campaign: admission verdicts
    /// land in the flight recorder as [`EventKind::ContractAdmit`] /
    /// [`EventKind::ContractReject`] events, every tenant's round driver
    /// records its audit events, the shared cluster records epoch
    /// publications and rejoins, the service records per-worker metrics,
    /// and the campaign loop drives the hub's virtual clock. Build the
    /// hub with the campaign's contract ids
    /// ([`TelemetryHub::new`]) so per-contract counters are labeled.
    pub fn with_telemetry(mut self, hub: Arc<TelemetryHub>) -> Self {
        self.telemetry = Some(hub);
        self
    }

    /// Attaches a seeded fault schedule shared by the whole campaign
    /// (faults hit infrastructure, not tenants). Worker crashes, stalls,
    /// overflow storms, and publish-ack loss all fire. Export faults hook
    /// into every tenant's audit driver: a slice whose export keeps
    /// failing past the retries is quarantined by each tenant that audits
    /// it. A non-empty plan switches every driver's export-failure policy
    /// to quarantine-the-slice, so chaos runs degrade instead of aborting.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets one contract's degraded-mode policy: what the dataplane does
    /// with the contract's traffic when its worker is dead or quarantined
    /// mid-round (fail-closed drops it, fail-open forwards it unfiltered;
    /// both count it `uncovered`). Defaults to
    /// [`DegradedMode::FailClosed`].
    pub fn with_degraded_mode(mut self, contract: ContractId, mode: DegradedMode) -> Self {
        self.degraded.push((contract, mode));
        self
    }

    /// Test/bench-only adversarial knob: every rejoin of worker `worker`
    /// comes back with an *empty* rule set (the operator "restored" a
    /// stale snapshot instead of replaying the master's state). The
    /// slice's shadow verdicts then disagree with its live re-steered
    /// peer — its outgoing log carries attack packets the victim never
    /// received — so the victim's probation audit flags the slice and it
    /// is demoted straight back to quarantine with backoff, proving the
    /// probation window actually gates re-trust.
    pub fn with_stale_rejoin(mut self, worker: usize) -> Self {
        self.stale_rejoin = Some(worker);
        self
    }

    /// Runs the campaign: arbitrate admission, attest every admitted
    /// contract, drive all scenarios round-locked over one service, and
    /// score each contract separately. `policies` pairs with the declared
    /// contracts by index (rejected contracts' policies are unused).
    ///
    /// # Panics
    ///
    /// Panics if `policies` does not pair 1:1 with the declared
    /// contracts, or on any session/audit failure.
    pub fn run(self, mut policies: Vec<Box<dyn VictimPolicy>>) -> CampaignReport {
        assert_eq!(
            policies.len(),
            self.contracts.len(),
            "one policy per declared contract"
        );
        let config = self.config;
        let n = config.harness.workers;
        let seed = self.contracts[0].scenario.seed;

        // --- admission: the arbiter speaks first ------------------------
        let demands: Vec<ContractDemand> = self
            .contracts
            .iter()
            .map(|c| ContractDemand {
                contract: c.contract,
                rule_bandwidths_gbps: c.demand_gbps_per_rule.clone(),
            })
            .collect();
        let arbitration = arbitrate(&config.arbiter, &demands);
        let mut rejected = Vec::new();
        let mut admitted: Vec<(CampaignContract, Box<dyn VictimPolicy>)> = Vec::new();
        for (c, policy) in self.contracts.into_iter().zip(policies.drain(..)) {
            match arbitration.verdict(c.contract) {
                Some(AdmissionVerdict::Rejected { reason }) => {
                    if let Some(hub) = &self.telemetry {
                        hub.record_event(EventKind::ContractReject, 0, c.contract as u64, 0);
                    }
                    rejected.push(RejectedContract {
                        contract: c.contract,
                        reason: reason.to_string(),
                    });
                }
                _ => {
                    if let Some(hub) = &self.telemetry {
                        hub.record_event(EventKind::ContractAdmit, 0, c.contract as u64, 0);
                    }
                    admitted.push((c, policy));
                }
            }
        }
        if admitted.is_empty() {
            return CampaignReport {
                reports: Vec::new(),
                rejected,
                failover_rejected: Vec::new(),
                readmitted: Vec::new(),
            };
        }

        // --- shared platform, master enclave, replicated cluster --------
        let secret = derive32(seed, 0x11);
        let root = AttestationRootKey::new(derive32(seed, 0x12));
        let platform = SgxPlatform::new(seed ^ 0xca3a, EpcConfig::paper_default(), &root);
        let image = EnclaveImage::new("vif-campaign", 1, vec![0x90; 1 << 16]);
        let master = Arc::new(platform.launch(image.clone(), FilterEnclaveApp::fresh(secret)));

        // The cluster's default slot 0 gets throwaway keys — campaign
        // tenants each provision their own slot below.
        let mut cluster = EnclaveCluster::launch_rss_with(
            platform,
            image.clone(),
            Arc::clone(&master),
            vif_core::ruleset::RuleSet::new(),
            n,
            secret,
            seed ^ 0x0de0,
            derive32(seed, 0x13),
        );
        if let Some(hub) = &self.telemetry {
            cluster.set_telemetry(Arc::clone(hub));
        }
        let mut contract_map = ContractMap::new();
        for &(contract, mode) in &self.degraded {
            contract_map.set_degraded_mode(contract, mode);
        }
        let mut deployment = Deployment {
            cluster,
            ias: AttestationService::new(root),
            config,
            faults: self.faults,
            contracts: contract_map,
            stale_rejoin: self.stale_rejoin,
            telemetry: self.telemetry,
        };

        // --- per-contract attested sessions + audit drivers -------------
        let mut tenants = Vec::with_capacity(admitted.len());
        let mut policies = Vec::with_capacity(admitted.len());
        for (idx, (c, policy)) in admitted.into_iter().enumerate() {
            let tag = 0x20 + idx as u8;
            let owner = derive32(c.scenario.seed, tag);
            let client = VictimClient::new(
                owner,
                &derive32(c.scenario.seed, tag ^ 0x55),
                deployment.ias.verifier(),
                SessionConfig {
                    expected_measurement: image.measurement(),
                    tolerance: config.harness.tolerance,
                },
            );
            let mut rpki = RpkiRegistry::new();
            rpki.register(c.scenario.victim, owner);
            let session = client
                .establish_contract(
                    Arc::clone(&master),
                    &deployment.ias,
                    derive32(c.scenario.seed, tag ^ 0xaa),
                    c.contract,
                )
                .expect("campaign session handshake");
            let keys = session.keys().clone();
            // Land the contract's scope + keys on every slice (the
            // handshake itself only touched the master).
            deployment.cluster.provision_contract(
                c.contract,
                Some(c.scenario.victim),
                keys.sketch_seed,
                keys.audit_key,
            );
            deployment.contracts.assign(
                c.scenario.victim.addr(),
                c.scenario.victim.len(),
                c.contract,
            );
            let rejoin_tag = 0x60 ^ ((idx as u8) << 3);
            tenants.push(deployment.tenant(c.scenario, session, client, rpki, rejoin_tag));
            policies.push(policy);
        }

        let outcome = run_rounds(
            deployment,
            tenants,
            policies
                .iter_mut()
                .map(|p| &mut **p as &mut dyn VictimPolicy)
                .collect(),
        );
        CampaignReport {
            reports: outcome.reports,
            rejected,
            failover_rejected: outcome.failover_rejected,
            readmitted: outcome.readmitted,
        }
    }
}
