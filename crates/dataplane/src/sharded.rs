//! A sharded multi-worker live pipeline: RX → N filter workers → TX.
//!
//! The paper's Fig. 6 pipeline, scaled out to the §IV architecture and
//! run on real threads (one worker is the single-filter-thread case). One
//! RX thread RSS-hashes each flow onto one of `N` per-worker
//! rings — the same [`fingerprint`](vif_sketch::hash::fingerprint)-based
//! steering the scale-out load
//! balancer uses for split rules, so flow → worker assignment is
//! deterministic and connection preserving. Each worker owns its own
//! [`PacketStage`] (in deployments, one enclave slice of an
//! `EnclaveCluster`), drains its ring in bursts, and pushes forwarded
//! packets onto a shared TX ring that a single TX thread drains into the
//! caller's sink.
//!
//! # Sharding model
//!
//! Flow-hash (RSS) steering sends a flow to a worker *independently of
//! which rules it matches*, so each worker's stage must be able to decide
//! any flow — in enclave terms, every slice holds the full rule set
//! (replication trades EPC for steering simplicity; contrast with the
//! rule-partitioned steering of `vif-core`'s `LoadBalancer`, which needs
//! the full rule map to route). Because steering is a public deterministic
//! function of the five tuple ([`shard_of`]), verifiers can attribute every
//! packet to its slice and audit each slice's logs independently — which is
//! what lets bypass *and* misroute detection work per worker over this
//! live path (see `vif-core`'s `ClusterRoundDriver`).
//!
//! # One-shot runs are one-round services
//!
//! Since the always-on service landed ([`crate::service`]), this module no
//! longer owns any thread machinery: [`run_sharded`] starts a
//! [`DataplaneService`], offers the whole
//! traffic vector as a single round, flushes it, and shuts the service
//! down. There is exactly one copy of the ring/backoff/panic-propagation
//! logic, and the tear-down-per-call behavior survives purely as a
//! convenience API for tests and experiments.

use crate::packet::Packet;
use crate::pipeline::PacketStage;
use crate::service::{DataplaneService, ServiceConfig};

/// Counters from a live run (one worker's share, or a total).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadedReport {
    /// Packets injected by the RX thread.
    pub received: u64,
    /// Packets forwarded by the TX thread.
    pub forwarded: u64,
    /// Packets dropped by filter verdict.
    pub filtered: u64,
    /// Packets lost to RX-ring overflow (backpressure).
    pub overflow: u64,
    /// Packets that bypassed filtering because their worker was dead or
    /// quarantined — the degraded-mode accountability counter. Zero on
    /// every healthy run.
    pub uncovered: u64,
}

/// RSS steering: the worker that owns `t`'s flow in an `n`-way shard.
///
/// Deterministic in the five tuple (connection preserving) and identical to
/// the hash the untrusted load balancer applies to unpinned flows, so a
/// verifier can recompute the packet → slice attribution offline.
///
/// Exactly [`shard_of_fingerprint`] over
/// [`FiveTuple::tuple_fingerprint`](crate::packet::FiveTuple::tuple_fingerprint);
/// callers that already hold the packet's tuple fingerprint (the audit
/// layer derives it once per packet for the logs) should pass it to the
/// fingerprint variant instead of re-encoding here.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn shard_of(t: &crate::packet::FiveTuple, n: usize) -> usize {
    shard_of_fingerprint(t.tuple_fingerprint(), n)
}

/// [`shard_of`] for a pre-computed tuple fingerprint
/// ([`FiveTuple::tuple_fingerprint`](crate::packet::FiveTuple::tuple_fingerprint)):
/// the fingerprint-once hot path shares one per-packet hash between
/// steering and the audited packet logs.
///
/// # Panics
///
/// Panics if `n` is zero.
#[inline]
pub fn shard_of_fingerprint(tuple_fp: u64, n: usize) -> usize {
    assert!(n > 0, "at least one shard");
    (tuple_fp % n as u64) as usize
}

/// Counters from a sharded run: one [`ThreadedReport`] per worker.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardedReport {
    /// Per-worker counters, indexed by worker id.
    pub per_worker: Vec<ThreadedReport>,
    /// Per-worker quarantine flags: `true` once the service excised the
    /// worker's slice after a detected death (empty or all-false on
    /// healthy runs).
    pub quarantined: Vec<bool>,
}

impl ShardedReport {
    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.per_worker.len()
    }

    /// Worker indices currently quarantined.
    pub fn quarantined_workers(&self) -> Vec<usize> {
        self.quarantined
            .iter()
            .enumerate()
            .filter_map(|(w, &q)| q.then_some(w))
            .collect()
    }

    /// Aggregate counters across all workers.
    pub fn total(&self) -> ThreadedReport {
        let mut total = ThreadedReport::default();
        for w in &self.per_worker {
            total.received += w.received;
            total.forwarded += w.forwarded;
            total.filtered += w.filtered;
            total.overflow += w.overflow;
            total.uncovered += w.uncovered;
        }
        total
    }
}

/// Runs `traffic` through a live RX → N×filter → TX sharded pipeline with
/// the default [`shard_of`] RSS steering: a one-round
/// [`DataplaneService`].
///
/// One worker thread is spawned per element of `stages`; forwarded packets
/// reach `sink` on the TX thread as `(worker, packet)`. Returns when every
/// packet has been drained.
///
/// # Panics
///
/// Panics if `stages` is empty or `ring_capacity`/`burst` is zero.
pub fn run_sharded<S, F>(
    traffic: Vec<Packet>,
    stages: Vec<S>,
    sink: F,
    ring_capacity: usize,
    burst: usize,
) -> ShardedReport
where
    S: PacketStage + Send,
    F: FnMut(usize, &Packet) + Send,
{
    let n = stages.len();
    let config = ServiceConfig {
        ring_capacity,
        burst,
        ..Default::default()
    };
    DataplaneService::new(config).run(
        stages,
        sink,
        move |t: &crate::packet::FiveTuple| shard_of(t, n),
        |svc| svc.round(&traffic).clone(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{StageOutcome, StageVerdict};
    use crate::pktgen::{FlowSet, TrafficConfig, TrafficGenerator};

    fn traffic(count: usize) -> Vec<Packet> {
        let flows = FlowSet::random_toward_victim(64, 7, 3);
        TrafficGenerator::new(2).generate(
            &flows,
            TrafficConfig {
                packet_size: 64,
                offered_gbps: 5.0,
                count,
            },
        )
    }

    fn parity_stage() -> impl FnMut(&Packet) -> StageOutcome + Send {
        |p: &Packet| StageOutcome {
            verdict: if p.tuple.src_ip.is_multiple_of(2) {
                StageVerdict::Forward
            } else {
                StageVerdict::Drop
            },
            cost_ns: 0,
        }
    }

    #[test]
    fn sharded_accounting_adds_up_per_worker() {
        let t = traffic(8_000);
        let stages: Vec<_> = (0..4).map(|_| parity_stage()).collect();
        let report = run_sharded(t, stages, |_, _| {}, 16_384, 32);
        assert_eq!(report.workers(), 4);
        for (w, r) in report.per_worker.iter().enumerate() {
            assert_eq!(
                r.forwarded + r.filtered + r.overflow,
                r.received,
                "worker {w} leaks packets"
            );
        }
        let total = report.total();
        assert_eq!(total.received, 8_000);
        assert_eq!(total.overflow, 0, "ring sized for the whole run");
    }

    #[test]
    fn steering_is_deterministic_and_balanced() {
        let t = traffic(10_000);
        let n = 4;
        // Every packet must land on the worker shard_of names.
        let seen = std::sync::Mutex::new(Vec::new());
        let stages: Vec<_> = (0..n).map(|_| parity_stage()).collect();
        run_sharded(
            t.clone(),
            stages,
            |w, p| seen.lock().unwrap().push((w, p.tuple)),
            16_384,
            32,
        );
        let seen = seen.into_inner().unwrap();
        assert!(!seen.is_empty());
        for (w, tuple) in &seen {
            assert_eq!(*w, shard_of(tuple, n), "flow moved shards");
        }
        // All workers get some share of a 64-flow mix.
        let mut counts = [0u64; 4];
        for p in &t {
            counts[shard_of(&p.tuple, n)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "unbalanced: {counts:?}");
    }

    #[test]
    fn fingerprint_variant_matches_shard_of() {
        // The fingerprint-once path must name the same worker as the
        // encoding path for every flow and worker count — a divergence
        // would let steering and audit attribution disagree.
        for p in traffic(500) {
            let fp = p.tuple.tuple_fingerprint();
            for n in [1usize, 2, 3, 4, 7, 16] {
                assert_eq!(shard_of(&p.tuple, n), shard_of_fingerprint(fp, n));
            }
        }
    }

    #[test]
    fn custom_steering_is_clamped_and_applied() {
        let t = traffic(1_000);
        let stages: Vec<_> = (0..2).map(|_| parity_stage()).collect();
        // Everything to (out-of-range) worker 5 → clamped to 5 % 2 = 1.
        let report = DataplaneService::new(ServiceConfig {
            ring_capacity: 4_096,
            burst: 16,
            ..Default::default()
        })
        .run(stages, |_, _| {}, |_| 5usize, |svc| svc.round(&t).clone());
        assert_eq!(report.per_worker[0].received, 0);
        assert_eq!(report.per_worker[1].received, 1_000);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn empty_stage_set_rejected() {
        let stages: Vec<fn(&Packet) -> StageOutcome> = Vec::new();
        run_sharded(traffic(10), stages, |_, _| {}, 64, 8);
    }

    #[test]
    #[should_panic(expected = "worker thread")]
    fn panicking_stage_propagates_instead_of_deadlocking() {
        // A stage that dies mid-run must surface as a panic from the scope
        // join, not leave RX/TX spinning on its rings forever.
        let stages: Vec<_> = (0..2)
            .map(|_| {
                let mut seen = 0usize;
                move |_p: &Packet| {
                    seen += 1;
                    assert!(seen <= 100, "stage blew up");
                    StageOutcome {
                        verdict: StageVerdict::Forward,
                        cost_ns: 0,
                    }
                }
            })
            .collect();
        run_sharded(traffic(2_000), stages, |_, _| {}, 64, 8);
    }

    #[test]
    #[should_panic(expected = "tx thread")]
    fn panicking_sink_propagates_instead_of_deadlocking() {
        // A sink that dies must not leave the workers spinning on a full
        // TX ring: the tx_live flag is cleared on unwind and they bail.
        let stages: Vec<_> = (0..2).map(|_| parity_stage()).collect();
        run_sharded(traffic(5_000), stages, |_, _| panic!("sink died"), 64, 8);
    }
}
