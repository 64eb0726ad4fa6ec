//! Telemetry acceptance: a seeded chaos run with a hub attached must
//! reproduce its observability artifacts byte-for-byte — the aggregated
//! [`TelemetrySnapshot`] JSON, the Prometheus exposition, and the flight
//! recorder's binary trace are all functions of the seed alone.

use std::sync::Arc;
use vif_scenario::{
    CampaignConfig, CampaignContract, CampaignHarness, FaultKind, FaultPlan, Scenario,
    ScenarioHarness, ScenarioHarnessConfig, ThresholdPolicy, VictimPolicy,
};
use vif_telemetry::{EventKind, TelemetryHub};

const WORKERS: usize = 4;
const DEAD: usize = 2;

fn chaos_plan() -> FaultPlan {
    FaultPlan::new()
        .at(4, FaultKind::WorkerCrash { worker: DEAD })
        .at(
            6,
            FaultKind::ExportTimeout {
                slice: 1,
                attempts: 1,
            },
        )
}

/// One seeded single-victim chaos run with a fresh hub; returns the three
/// exported artifacts.
fn run_scenario(seed: u64) -> (String, String, Vec<u8>) {
    let hub = Arc::new(TelemetryHub::new(WORKERS, &[0], 4096));
    ScenarioHarness::new(
        Scenario::smoke(seed),
        ScenarioHarnessConfig {
            workers: WORKERS,
            ..Default::default()
        },
    )
    .with_faults(chaos_plan())
    .with_telemetry(Arc::clone(&hub))
    .run(&mut ThresholdPolicy::default());
    let snap = hub.snapshot(128);
    (snap.to_json(), snap.to_prometheus(), hub.trace_bytes())
}

/// One seeded two-tenant chaos campaign with a fresh hub.
fn run_campaign(seed: u64) -> (String, Vec<u8>) {
    let hub = Arc::new(TelemetryHub::new(WORKERS, &[1, 2], 4096));
    let contracts = vec![
        CampaignContract {
            contract: 1,
            scenario: Scenario::smoke(seed),
            demand_gbps_per_rule: vec![0.5; 8],
        },
        CampaignContract {
            contract: 2,
            scenario: {
                let mut s = Scenario::smoke(seed ^ 0xb);
                s.victim = vif_trie::Ipv4Prefix::new(u32::from_be_bytes([198, 18, 0, 0]), 16);
                s.name = "victim-b".into();
                s
            },
            demand_gbps_per_rule: vec![0.25; 4],
        },
    ];
    let policies: Vec<Box<dyn VictimPolicy>> = vec![
        Box::new(ThresholdPolicy::default()),
        Box::new(ThresholdPolicy::default()),
    ];
    CampaignHarness::new(
        contracts,
        CampaignConfig {
            harness: ScenarioHarnessConfig {
                workers: WORKERS,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .with_faults(FaultPlan::new().at(4, FaultKind::WorkerCrash { worker: DEAD }))
    .with_telemetry(Arc::clone(&hub))
    .run(policies);
    (hub.snapshot(128).to_json(), hub.trace_bytes())
}

#[test]
fn seeded_scenario_telemetry_is_byte_identical() {
    let (json_a, prom_a, trace_a) = run_scenario(2941);
    let (json_b, prom_b, trace_b) = run_scenario(2941);
    assert_eq!(json_a, json_b, "snapshot JSON reproduces from the seed");
    assert_eq!(prom_a, prom_b, "Prometheus exposition reproduces");
    assert_eq!(trace_a, trace_b, "flight-recorder trace is byte-identical");

    // The chaos actually landed in the trace: the crash, its quarantine,
    // and the absorbed export retry are all on the record.
    assert!(json_a.contains("\"fault_injected\""), "{json_a}");
    assert!(json_a.contains("\"quarantine\""), "{json_a}");
    assert!(json_a.contains("\"export_retry\""), "{json_a}");
    assert!(json_a.contains("\"audit_verdict\""), "{json_a}");

    // A different seed shifts traffic, so the flush barriers (which carry
    // per-round packet counts) diverge.
    let (_, _, trace_c) = run_scenario(2942);
    assert_ne!(trace_a, trace_c, "the trace is a function of the seed");
}

#[test]
fn seeded_campaign_telemetry_is_byte_identical() {
    let (json_a, trace_a) = run_campaign(77);
    let (json_b, trace_b) = run_campaign(77);
    assert_eq!(json_a, json_b);
    assert_eq!(trace_a, trace_b);

    // Both tenants were admitted on the record, labeled by contract id.
    assert!(json_a.contains("\"contract_admit\""), "{json_a}");
    assert!(json_a.contains("\"contract\":1"), "{json_a}");
    assert!(json_a.contains("\"contract\":2"), "{json_a}");
}

#[test]
fn scenario_events_are_stamped_from_the_virtual_clock() {
    let hub = Arc::new(TelemetryHub::new(WORKERS, &[0], 4096));
    let scenario = Scenario::smoke(9);
    let round_ns = scenario.round_ns();
    ScenarioHarness::new(
        scenario,
        ScenarioHarnessConfig {
            workers: WORKERS,
            ..Default::default()
        },
    )
    .with_faults(chaos_plan())
    .with_telemetry(Arc::clone(&hub))
    .run(&mut ThresholdPolicy::default());
    assert!(hub.events_recorded() > 0, "chaos run records events");
    for ev in hub.events_last(4096) {
        assert_eq!(
            ev.t_ns % round_ns,
            0,
            "event {:?} stamped off-round: t_ns={}",
            ev.kind,
            ev.t_ns
        );
        if ev.kind == EventKind::FaultInjected && ev.a == vif_telemetry::fault::CRASH {
            assert_eq!(ev.t_ns, 4 * round_ns, "crash fires at its planned round");
            assert_eq!(ev.slice, DEAD as u32);
        }
    }
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2))]

        /// Same seed ⇒ byte-identical snapshot and trace, across random
        /// seeds (the acceptance property, sampled — each case is a full
        /// live-service chaos run).
        #[test]
        fn any_seed_reproduces_its_telemetry(seed in 1u64..1_000_000) {
            let (json_a, prom_a, trace_a) = run_scenario(seed);
            let (json_b, prom_b, trace_b) = run_scenario(seed);
            prop_assert_eq!(json_a, json_b);
            prop_assert_eq!(prom_a, prom_b);
            prop_assert_eq!(trace_a, trace_b);
        }
    }
}

/// Golden digests: SHA-256 of every exported artifact of four seeded
/// runs, pinned so that a refactor of the round loop must reproduce each
/// run byte-for-byte (a determinism test only compares a build with
/// itself; these compare it with the recorded history).
mod golden {
    use super::*;
    use vif_scenario::{
        ArbiterConfig, DegradedMode, LegitProfile, Phase, PhaseKind, ScenarioReport,
    };
    use vif_trie::Ipv4Prefix;

    fn sha(bytes: &[u8]) -> String {
        vif_crypto::hex::encode(&vif_crypto::Sha256::digest(bytes))
    }

    /// Digests of (rendered reports, snapshot JSON, Prometheus, trace).
    fn digests(reports: &[ScenarioReport], debug: String, hub: &TelemetryHub) -> [String; 4] {
        let mut rendered: String = reports.iter().map(|r| format!("{r}")).collect();
        rendered.push_str(&debug);
        let snap = hub.snapshot(128);
        [
            sha(rendered.as_bytes()),
            sha(snap.to_json().as_bytes()),
            sha(snap.to_prometheus().as_bytes()),
            sha(&hub.trace_bytes()),
        ]
    }

    fn assert_pinned(name: &str, got: [String; 4], want: [&str; 4]) {
        let labels = ["report", "snapshot", "prometheus", "trace"];
        let mut diffs = Vec::new();
        for ((label, got), want) in labels.iter().zip(&got).zip(want) {
            if got != want {
                diffs.push(format!("{name} {label}: got {got}, pinned {want}"));
            }
        }
        assert!(diffs.is_empty(), "{}", diffs.join("\n"));
    }

    fn scenario_golden() -> [String; 4] {
        let hub = Arc::new(TelemetryHub::new(WORKERS, &[0], 4096));
        let report = ScenarioHarness::new(
            Scenario::smoke(2941),
            ScenarioHarnessConfig {
                workers: WORKERS,
                ..Default::default()
            },
        )
        .with_faults(chaos_plan())
        .with_telemetry(Arc::clone(&hub))
        .run(&mut ThresholdPolicy::default());
        let debug = format!("{report:?}");
        digests(&[report], debug, &hub)
    }

    fn campaign_golden() -> [String; 4] {
        let hub = Arc::new(TelemetryHub::new(WORKERS, &[1, 2], 4096));
        let contracts = vec![
            CampaignContract {
                contract: 1,
                scenario: Scenario::smoke(77),
                demand_gbps_per_rule: vec![0.5; 8],
            },
            CampaignContract {
                contract: 2,
                scenario: {
                    let mut s = Scenario::smoke(77 ^ 0xb);
                    s.victim = Ipv4Prefix::new(u32::from_be_bytes([198, 18, 0, 0]), 16);
                    s.name = "victim-b".into();
                    s
                },
                demand_gbps_per_rule: vec![0.25; 4],
            },
        ];
        let report = CampaignHarness::new(
            contracts,
            CampaignConfig {
                harness: ScenarioHarnessConfig {
                    workers: WORKERS,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .with_faults(FaultPlan::new().at(4, FaultKind::WorkerCrash { worker: DEAD }))
        .with_telemetry(Arc::clone(&hub))
        .run(vec![
            Box::new(ThresholdPolicy::default()),
            Box::new(ThresholdPolicy::default()),
        ]);
        digests(&report.reports, format!("{report:?}"), &hub)
    }

    /// The run of `heal.rs`'s `single_victim_crash_then_recover_heals`,
    /// with a hub attached.
    fn single_victim_heal_golden() -> [String; 4] {
        let ramp = |name: &str, from_gbps: f64, rounds: u32| Phase {
            name: name.into(),
            kind: PhaseKind::Ramp {
                from_gbps,
                to_gbps: 1.0,
            },
            rounds,
            attack_gbps: 1.0,
            attack_sources: 24,
            zipf_exponent: 1.1,
        };
        let scenario = Scenario {
            name: "victim-solo".into(),
            seed: 7215,
            victim: Ipv4Prefix::new(u32::from_be_bytes([203, 0, 113, 0]), 24),
            legit: LegitProfile {
                sources: 32,
                gbps: 0.3,
            },
            phases: vec![ramp("ramp", 0.2, 4), ramp("sustain", 1.0, 8)],
            round_ms: 1,
            packet_size: 128,
        };
        let hub = Arc::new(TelemetryHub::new(4, &[0], 4096));
        let report = ScenarioHarness::new(
            scenario,
            ScenarioHarnessConfig {
                workers: 4,
                ..Default::default()
            },
        )
        .with_faults(
            FaultPlan::new()
                .at(4, FaultKind::WorkerCrash { worker: 2 })
                .at(6, FaultKind::WorkerRecover { worker: 2 }),
        )
        .with_telemetry(Arc::clone(&hub))
        .run(&mut ThresholdPolicy::default());
        let debug = format!("{report:?}");
        digests(&[report], debug, &hub)
    }

    /// The run of `heal.rs`'s `run_heal_campaign(4105, false)`, with a
    /// hub attached.
    fn heal_campaign_golden() -> [String; 4] {
        const ROUNDS: u32 = 14;
        let flat = |name: &str, gbps: f64, rounds: u32, attack_sources: usize| Phase {
            name: name.into(),
            kind: PhaseKind::Ramp {
                from_gbps: gbps,
                to_gbps: gbps,
            },
            rounds,
            attack_gbps: gbps,
            attack_sources,
            zipf_exponent: 0.0,
        };
        let scenario_a = Scenario {
            name: "victim-a".into(),
            seed: 4105,
            victim: Ipv4Prefix::new(u32::from_be_bytes([203, 0, 0, 0]), 16),
            legit: LegitProfile {
                sources: 16,
                gbps: 0.2,
            },
            phases: vec![flat("assault", 22.0, ROUNDS, 330)],
            round_ms: 1,
            packet_size: 1024,
        };
        let scenario_b = Scenario {
            name: "victim-b".into(),
            seed: 4105 ^ 0xb,
            victim: Ipv4Prefix::new(u32::from_be_bytes([198, 18, 0, 0]), 16),
            legit: LegitProfile {
                sources: 48,
                gbps: 0.2,
            },
            phases: vec![
                flat("calm", 0.0, 4, 0),
                Phase {
                    name: "flash-crowd".into(),
                    kind: PhaseKind::FlashCrowd {
                        surge_sources: 96,
                        surge_gbps: 0.6,
                    },
                    rounds: ROUNDS - 4,
                    attack_gbps: 0.0,
                    attack_sources: 0,
                    zipf_exponent: 0.0,
                },
            ],
            round_ms: 1,
            packet_size: 1024,
        };
        let hub = Arc::new(TelemetryHub::new(4, &[1, 2], 4096));
        let report = CampaignHarness::new(
            vec![
                CampaignContract {
                    contract: 1,
                    scenario: scenario_a,
                    demand_gbps_per_rule: vec![0.5; 8],
                },
                CampaignContract {
                    contract: 2,
                    scenario: scenario_b,
                    demand_gbps_per_rule: vec![0.25; 4],
                },
            ],
            CampaignConfig {
                harness: ScenarioHarnessConfig {
                    workers: 4,
                    ..Default::default()
                },
                arbiter: ArbiterConfig {
                    lambda: 0.0,
                    ..Default::default()
                },
            },
        )
        .with_faults(
            FaultPlan::new()
                .at(4, FaultKind::WorkerCrash { worker: 2 })
                .at(6, FaultKind::WorkerRecover { worker: 2 }),
        )
        .with_degraded_mode(2, DegradedMode::FailOpen)
        .with_telemetry(Arc::clone(&hub))
        .run(vec![
            Box::new(ThresholdPolicy {
                install_threshold: 3,
                idle_rounds: u32::MAX,
                max_installs_per_round: 512,
            }),
            Box::new(ThresholdPolicy {
                install_threshold: u64::MAX,
                ..Default::default()
            }),
        ]);
        digests(&report.reports, format!("{report:?}"), &hub)
    }

    #[test]
    fn pinned_golden_digests() {
        let runs = [
            ("run_scenario(2941)", scenario_golden()),
            ("run_campaign(77)", campaign_golden()),
            ("single_victim_heal", single_victim_heal_golden()),
            ("heal_campaign(4105)", heal_campaign_golden()),
        ];
        let pinned: [[&str; 4]; 4] = [
            [
                "d7a5dab898157373fc17c50b9aabe7e850e6dbc793ad59eea03d8dda26327e79",
                "4477167460db4b8dbcd0ccb87cf1133eae301e7dbb2abb5dbae8e7375799273b",
                "fdb66ec2ba049f17e168e79b2a0e4ce9a836d6e969452cc479ac8487e0748d52",
                "2f3fb032fe0ba78f74584b662e8b8376ed9bae3a874f25a496011335c5daabb0",
            ],
            [
                "ce626f9eb69fd0370fcccee648b30b4ad2fdcebe680adde8df7fd13efbbb51d1",
                "aa672a1271b725cfd5e5eb0430c10126539577c31afdf4f627e8d9cb7a04f702",
                "cdb23c249738751303022639c120495842a4c1ed60eba6aa950e4f86e02f304e",
                "b39620517e8b13685d43e97f71491cf4a923c58232ced9461f58fc0d6af35f5d",
            ],
            // A rejoin records each tenant's `probation` event before the
            // cluster's `rejoin` event, in single-victim runs as in
            // campaigns.
            [
                "df5c0661be499fea3462cbc1f51cf648df7d1d91d1411cc2ad8b02058c64ca1b",
                "ce3e38d616ed686112250b14aca717b7b67f6b4fad060da9cfe4f4282353f6e4",
                "d16b6696136c2ce079de4ef2158bcd06bb5ad100a6944f8a38e49404c2528296",
                "d9b3f7e59259b2f303f090f9b95498968c650ff19146b046e77e2ebedf2ecb7e",
            ],
            [
                "1431a6639524d7f884b287c7b4a8063e14eca23ed1f752af9275b7b5ebeda520",
                "9e0b52388afe91e2577cb5b5a9f49ec72fa685ee31c663d4970c304d36fa4bd7",
                "8f3c0e071fa1b2b4630e76d61c63f4a9967840f0cf368408ae67ce4b592e8e69",
                "f226e03e68d52cd955150dd34bf55d0a62653df1e534fda81c19271305ba137f",
            ],
        ];
        for ((name, got), want) in runs.into_iter().zip(pinned) {
            assert_pinned(name, got, want);
        }
    }
}
