//! Per-slice audit over the live sharded path: one [`DataplaneService`]
//! round through an RSS-replicated cluster, closed by a
//! [`ClusterRoundDriver`] whose verifiers attribute every packet to its
//! slice with the public [`shard_of`] hash. A worker whose output the
//! network steals, or a steering stage that misroutes flows, must surface
//! as dirty slices.

use std::sync::{Arc, Mutex};
use vif_core::cost::FilterMode;
use vif_core::enclave_app::EnclaveFilterStage;
use vif_core::logs::PacketFingerprints;
use vif_core::rounds::{ClusterRoundDriver, ClusterRoundOutcome, ContractState, RoundPolicy};
use vif_core::rules::{FilterRule, FlowPattern};
use vif_core::ruleset::RuleSet;
use vif_core::scale::EnclaveCluster;
use vif_core::verify::{AuditError, BypassVerdict};
use vif_dataplane::{
    shard_of, shard_of_fingerprint, DataplaneService, FiveTuple, FlowSet, ServiceConfig,
    ShardedReport, TrafficConfig, TrafficGenerator,
};
use vif_sgx::{AttestationRootKey, EnclaveImage, EpcConfig, SgxPlatform};
use vif_sketch::hash::fingerprint;

const SEED: u64 = 5;
const KEY: [u8; 32] = [6u8; 32];
const WORKERS: usize = 4;
const PACKETS: u64 = 4000;

/// What the malicious network does around the cluster.
#[derive(Default, Clone, Copy)]
struct Adversary {
    /// Steal every filter-allowed packet of this worker after the filter.
    drop_after_worker: Option<usize>,
    /// Steer this fraction of flows to the wrong worker.
    misroute_fraction: f64,
}

struct Round {
    dataplane: ShardedReport,
    audit: Result<ClusterRoundOutcome, AuditError>,
    state: ContractState,
}

/// One audited round of mixed traffic (attack sources in 10/8, benign
/// elsewhere) through a `WORKERS`-slice cluster dropping 10/8.
fn audited_round(adversary: Adversary) -> Round {
    let root = AttestationRootKey::new([4u8; 32]);
    let platform = SgxPlatform::new(7, EpcConfig::paper_default(), &root);
    let image = EnclaveImage::new("vif", 1, vec![0; 64]);
    let rules = RuleSet::from_rules(vec![FilterRule::drop(FlowPattern::prefixes(
        "10.0.0.0/8".parse().unwrap(),
        "203.0.113.0/24".parse().unwrap(),
    ))]);
    let cluster = EnclaveCluster::launch_rss(platform, image, rules, WORKERS, [1u8; 32], SEED, KEY);
    let attack = FlowSet::random_toward_victim(64, u32::from_be_bytes([203, 0, 113, 1]), 21);
    let mut tuples: Vec<FiveTuple> = attack.flows().to_vec();
    for t in tuples.iter_mut().take(32) {
        t.src_ip = 0x0a000000 | (t.src_ip & 0x00ffffff);
    }
    for t in tuples.iter_mut().skip(32) {
        t.src_ip = 0x0b000000 | (t.src_ip & 0x00ffffff);
    }
    let traffic = TrafficGenerator::new(6).generate(
        &FlowSet::uniform(tuples),
        TrafficConfig {
            packet_size: 128,
            offered_gbps: 1.0,
            count: PACKETS as usize,
        },
    );

    let mut driver = ClusterRoundDriver::new(
        cluster.enclaves().to_vec(),
        SEED,
        KEY,
        0,
        RoundPolicy::default(),
    );
    let stages: Vec<EnclaveFilterStage> = cluster
        .enclaves()
        .iter()
        .map(|e| EnclaveFilterStage::new(Arc::clone(e), FilterMode::SgxNearZeroCopy))
        .collect();
    // The (possibly misrouting) steering stage: the honest path is the
    // public hash, so any drift from the verifiers' attribution comes
    // from the adversary alone. It decides off a different slice of the
    // hash than `shard_of` and rotates to the next worker.
    let misroute = adversary.misroute_fraction;
    let steer = move |t: &FiveTuple| {
        let honest = shard_of(t, WORKERS);
        let fp = fingerprint(&t.encode());
        if ((fp >> 17) % 1000) as f64 / 1000.0 < misroute {
            (honest + 1) % WORKERS
        } else {
            honest
        }
    };
    let forwarded: Mutex<Vec<FiveTuple>> = Mutex::new(Vec::new());
    let dataplane = DataplaneService::new(ServiceConfig {
        ring_capacity: 16_384,
        burst: 32,
        ..Default::default()
    })
    .run(
        stages,
        |worker, pkt| {
            if adversary.drop_after_worker != Some(worker) {
                forwarded.lock().unwrap().push(pkt.tuple);
            }
        },
        steer,
        |svc| {
            for pkt in &traffic {
                let fp = PacketFingerprints::of(&pkt.tuple);
                driver
                    .neighbor_verifier_mut(shard_of_fingerprint(fp.tuple, WORKERS))
                    .observe_fingerprint(fp.src_ip);
            }
            svc.round(&traffic).clone()
        },
    );
    for t in forwarded.into_inner().unwrap() {
        let fp = t.tuple_fingerprint();
        driver
            .victim_verifier_mut(shard_of_fingerprint(fp, WORKERS))
            .observe_fingerprint(fp);
    }
    let audit = driver.close_round();
    Round {
        dataplane,
        audit,
        state: driver.state(),
    }
}

#[test]
fn honest_sharded_cluster_audits_clean() {
    let round = audited_round(Adversary::default());
    let outcome = round.audit.expect("authentic exports");
    assert!(!outcome.dirty(), "{outcome:?}");
    assert_eq!(round.state, ContractState::Active);
    assert_eq!(outcome.slices.len(), WORKERS);
    let total = round.dataplane.total();
    assert_eq!(total.received, PACKETS);
    assert_eq!(total.overflow, 0);
    assert!(total.filtered > 0, "attack traffic filtered");
    assert_eq!(total.forwarded + total.filtered, total.received);
    for (w, r) in round.dataplane.per_worker.iter().enumerate() {
        assert!(r.received > 0, "worker {w} idle");
    }
}

#[test]
fn stolen_slice_output_flags_exactly_that_slice() {
    let round = audited_round(Adversary {
        drop_after_worker: Some(1),
        ..Default::default()
    });
    let outcome = round.audit.expect("authentic exports");
    assert_eq!(outcome.dirty_slices(), vec![1]);
    assert_eq!(
        outcome.slices[1].victim_verdict,
        BypassVerdict::DropDetected
    );
    assert_eq!(round.state, ContractState::Aborted { strikes: 1 });
}

#[test]
fn misrouting_steering_dirties_the_audit() {
    let round = audited_round(Adversary {
        misroute_fraction: 0.3,
        ..Default::default()
    });
    assert!(round.audit.as_ref().map_or(true, |o| o.dirty()));
    assert_eq!(round.state, ContractState::Aborted { strikes: 1 });
    // No packet was lost in the data plane itself: misrouting is a
    // *steering* integrity failure, caught purely by the audit.
    let total = round.dataplane.total();
    assert_eq!(total.forwarded + total.filtered, total.received);
}
