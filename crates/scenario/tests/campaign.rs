//! The multi-tenant acceptance campaign: carpet-bombing victim A while
//! victim B rides a flash crowd on the same live service, plus an
//! over-budget third contract the arbiter must turn away.

use std::sync::{Arc, Mutex};
use vif_core::rules::{FilterRule, FlowPattern};
use vif_dataplane::shard_of;
use vif_scenario::{
    CampaignConfig, CampaignContract, CampaignHarness, CampaignReport, FaultKind, FaultPlan,
    LegitProfile, Phase, PhaseKind, PolicyAction, PolicyObservation, Scenario, ScenarioAdversary,
    ScenarioHarnessConfig, ThresholdPolicy, VictimPolicy,
};
use vif_trie::Ipv4Prefix;

/// Victim A: the smoke acceptance mix (ramp, pulse, carpet bombing across
/// its /16, flash crowd) on 203.0.0.0/16.
fn scenario_a(seed: u64) -> Scenario {
    let mut s = Scenario::smoke(seed);
    s.name = "victim-a".into();
    s
}

/// Victim B: a pure flash crowd on 198.18.0.0/16 — zero malicious
/// traffic, so *any* drop or strike B sees is cross-tenant damage.
fn scenario_b(seed: u64) -> Scenario {
    Scenario {
        name: "victim-b".into(),
        seed,
        victim: Ipv4Prefix::new(u32::from_be_bytes([198, 18, 0, 0]), 16),
        legit: LegitProfile {
            sources: 48,
            gbps: 0.2,
        },
        phases: vec![
            Phase {
                name: "calm".into(),
                kind: PhaseKind::Ramp {
                    from_gbps: 0.0,
                    to_gbps: 0.0,
                },
                rounds: 3,
                attack_gbps: 0.0,
                attack_sources: 0,
                zipf_exponent: 0.0,
            },
            Phase {
                name: "flash-crowd".into(),
                kind: PhaseKind::FlashCrowd {
                    surge_sources: 96,
                    surge_gbps: 0.6,
                },
                rounds: 4,
                attack_gbps: 0.0,
                attack_sources: 0,
                zipf_exponent: 0.0,
            },
        ],
        round_ms: 1,
        packet_size: 128,
    }
}

fn run_campaign(seed: u64) -> CampaignReport {
    let contracts = vec![
        CampaignContract {
            contract: 1,
            scenario: scenario_a(seed),
            demand_gbps_per_rule: vec![0.5; 8],
        },
        CampaignContract {
            contract: 2,
            scenario: scenario_b(seed ^ 0xb),
            demand_gbps_per_rule: vec![0.25; 4],
        },
        // Contract 3 asks for more than the whole pool carries: a single
        // rule's offered load exceeds any enclave's capacity and the
        // aggregate exceeds the pool, so admission must fail with a
        // per-resource verdict — before any session is established.
        CampaignContract {
            contract: 3,
            scenario: Scenario {
                name: "victim-c".into(),
                victim: Ipv4Prefix::new(u32::from_be_bytes([100, 64, 0, 0]), 16),
                ..scenario_b(seed ^ 0xc)
            },
            demand_gbps_per_rule: vec![500.0; 4],
        },
    ];
    let policies: Vec<Box<dyn VictimPolicy>> = vec![
        // A fights back with the default control loop.
        Box::new(ThresholdPolicy::default()),
        // B never installs anything: its flash crowd is all-legitimate,
        // and with no rules of its own, every packet B loses and every
        // strike B's audit raises could only come from A's tenancy.
        Box::new(ThresholdPolicy {
            install_threshold: u64::MAX,
            ..Default::default()
        }),
        Box::new(ThresholdPolicy::default()),
    ];
    CampaignHarness::new(contracts, CampaignConfig::default()).run(policies)
}

#[test]
fn campaign_isolates_tenants_and_arbitrates_admission() {
    let report = run_campaign(1701);

    // The over-budget contract is rejected at admission with a
    // per-resource reason; the viable contracts both run.
    assert_eq!(report.rejected.len(), 1, "exactly one rejection");
    assert_eq!(report.rejected[0].contract, 3);
    let reason = &report.rejected[0].reason;
    assert!(
        reason.contains("Gb/s"),
        "reason names the exhausted resource: {reason}"
    );
    assert_eq!(report.reports.len(), 2, "one report per admitted contract");

    // Victim A (carpet-bombed) ran its whole scenario and fought back.
    let a = report.report(1).expect("contract 1 report");
    assert_eq!(a.scenario, "victim-a");
    assert_eq!(a.rounds, scenario_a(1701).total_rounds());
    assert!(a.rules_installed > 0, "A's control loop installed rules");
    assert_eq!(a.dirty_rounds, 0, "honest network: no strikes for A");
    assert!(
        a.total_leakage() < 1.0,
        "A's rules dropped some attack traffic"
    );

    // Victim B: ZERO collateral and ZERO strikes despite A's live churn
    // on the same service. B installed nothing, so any loss would be
    // cross-tenant damage — there must be none, structurally.
    let b = report.report(2).expect("contract 2 report");
    assert_eq!(b.scenario, "victim-b");
    assert_eq!(b.rounds, scenario_b(1701 ^ 0xb).total_rounds());
    assert_eq!(b.rules_installed, 0, "B's policy stayed quiet");
    assert_eq!(b.dirty_rounds, 0, "A's churn raised no strikes for B");
    for phase in &b.phases {
        assert_eq!(
            phase.delivered_legit, phase.offered_legit,
            "zero collateral for B in phase {:?}",
            phase.name
        );
    }
    assert_eq!(b.total_goodput(), 1.0);
}

/// The campaign is deterministic in its seed, like single-victim runs.
#[test]
fn campaign_is_deterministic() {
    let a = run_campaign(77);
    let b = run_campaign(77);
    assert_eq!(a.reports, b.reports);
    assert_eq!(a.rejected.len(), b.rejected.len());
}

/// Installs one drop rule for `src` after round 0, then records the rule's
/// idle telemetry at every later round.
struct IdleRecorder {
    src: u32,
    seen: Arc<Mutex<Vec<(u64, u32)>>>,
}

impl VictimPolicy for IdleRecorder {
    fn react(&mut self, obs: &PolicyObservation<'_>, actions: &mut Vec<PolicyAction>) {
        if obs.round == 0 {
            actions.push(PolicyAction::Install(FilterRule::drop(
                FlowPattern::prefixes(Ipv4Prefix::host(self.src), obs.victim),
            )));
        }
        for rule in obs.installed {
            self.seen
                .lock()
                .unwrap()
                .push((obs.round, rule.rounds_idle));
        }
    }
}

/// Rule idleness is measured across every live slice: a rule whose flows
/// RSS-steer only to a non-master slice still matches traffic there, so
/// its idle counter must stay at zero while it does.
#[test]
fn idle_telemetry_counts_traffic_on_every_slice() {
    let workers = CampaignConfig::default().harness.workers;
    let scenario = scenario_b(31);
    let rounds = scenario.compile();
    // A legitimate source with a single flow that never steers to the
    // master slice 0, sending in every round.
    let src = rounds[0]
        .packets
        .iter()
        .map(|p| p.tuple.src_ip)
        .find(|&src| {
            rounds.iter().all(|r| {
                let mut own = r.packets.iter().filter(|p| p.tuple.src_ip == src);
                let any = own.clone().next().is_some();
                any && own.all(|p| shard_of(&p.tuple, workers) != 0)
            })
        })
        .expect("a source steered off the master in every round");
    let seen = Arc::new(Mutex::new(Vec::new()));
    let report = CampaignHarness::new(
        vec![CampaignContract {
            contract: 1,
            scenario,
            demand_gbps_per_rule: vec![0.25; 4],
        }],
        CampaignConfig::default(),
    )
    .run(vec![Box::new(IdleRecorder {
        src,
        seen: Arc::clone(&seen),
    })]);
    assert_eq!(report.reports[0].rules_installed, 1);
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len() as u64, rounds.len() as u64 - 1, "{seen:?}");
    assert!(
        seen.iter().all(|&(_, idle)| idle == 0),
        "a rule matching traffic on a non-master slice read as idle: {seen:?}"
    );
}

/// Victims A and B on one cluster, both with the default policy.
fn two_tenants(config: CampaignConfig) -> CampaignHarness {
    CampaignHarness::new(
        vec![
            CampaignContract {
                contract: 1,
                scenario: scenario_a(5),
                demand_gbps_per_rule: vec![0.5; 8],
            },
            CampaignContract {
                contract: 2,
                scenario: scenario_b(5 ^ 0xb),
                demand_gbps_per_rule: vec![0.25; 4],
            },
        ],
        config,
    )
}

fn default_policies() -> Vec<Box<dyn VictimPolicy>> {
    vec![
        Box::new(ThresholdPolicy::default()),
        Box::new(ThresholdPolicy::default()),
    ]
}

/// The scenario adversary steals one worker's output from every tenant
/// at once; each tenant's own audit flags it in the onset round.
#[test]
fn campaign_adversary_is_detected_by_every_tenant() {
    let report = two_tenants(CampaignConfig {
        harness: ScenarioHarnessConfig {
            adversary: Some(ScenarioAdversary {
                from_round: 2,
                drop_after_worker: 1,
            }),
            ..Default::default()
        },
        ..Default::default()
    })
    .run(default_policies());
    assert_eq!(report.reports.len(), 2);
    for r in &report.reports {
        assert!(r.dirty_rounds > 0, "contract {} saw no strike", r.contract);
        assert_eq!(
            r.detection_latency_rounds,
            Some(1),
            "contract {}",
            r.contract
        );
        assert!(
            r.dirty_rounds as u64 <= r.rounds - 2,
            "rounds 0–1 are clean"
        );
    }
}

/// An export fault that outlasts the retries quarantines the slice in
/// every tenant's audit, not only in single-victim runs.
#[test]
fn campaign_export_fault_quarantines_the_slice_for_every_tenant() {
    const SLICE: usize = 1;
    let report = two_tenants(CampaignConfig::default())
        .with_faults(FaultPlan::new().at(
            2,
            FaultKind::ExportCorrupt {
                slice: SLICE,
                attempts: 100,
            },
        ))
        .run(default_policies());
    assert_eq!(report.reports.len(), 2);
    for r in &report.reports {
        assert_eq!(r.quarantined_slices, vec![SLICE], "contract {}", r.contract);
        assert_eq!(r.dirty_rounds, 0, "contract {}", r.contract);
    }
}
