//! Turning a run's records into its metrics.

use super::{gate, ActRec, BenchError, Metric, Outcome, RoundRec, Runner, SetupTimes};
use crate::stats::{median, peak_rss_mb, quantile, ratio};
use crate::trace::{covered, self_times, write_csv, Name, Span, WorkerTrace, PROBE_ROUND};

impl Runner<'_> {
    /// Turns the records into the run's metrics.
    pub(super) fn outcome(
        &self,
        setups: &[SetupTimes],
        workers: &[WorkerTrace],
    ) -> Result<Outcome, BenchError> {
        let phase = &self.phase;
        let us = |ns: u64| ns as f64 / 1e3;
        let acts: Vec<(u32, f64)> = self
            .activations
            .iter()
            .map(|a| (a.episode, us(a.total)))
            .collect();
        let audits: Vec<(u32, f64)> = self
            .audits
            .iter()
            .map(|&(e, ns)| (e, ns as f64 / 1e6))
            .collect();
        let walls: Vec<(u32, f64)> = self
            .rounds
            .iter()
            .map(|r| (r.episode, us(r.wall)))
            .collect();
        let episodes = self.w.episodes;
        // Each round's packets ÷ its wall time; the median over an
        // episode's rounds is the throughput of its typical round.
        let mpps: Vec<(u32, f64)> = self
            .rounds
            .iter()
            .map(|r| (r.episode, f64::from(r.pkts) / r.wall as f64 * 1e3))
            .collect();
        let pkts: u64 = self.rounds.iter().map(|r| u64::from(r.pkts)).sum();
        let wall: u64 = self.rounds.iter().map(|r| r.wall).sum();
        let setup = |f: fn(&SetupTimes) -> u64| {
            median(&setups.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
        };
        let mut notes = vec![
            metric(
                "loss_ratio",
                ratio(self.failed as f64, self.attempted as f64),
                "share",
            ),
            metric("rounds", self.rounds.len() as f64, "count"),
            metric("activations", acts.len() as f64, "count"),
            metric("audits", audits.len() as f64, "count"),
            metric("setups", setups.len() as f64, "count"),
            metric(
                "trace_filtered_share",
                self.oracle
                    .chunk_filtered
                    .iter()
                    .map(|&f| f64::from(f))
                    .sum::<f64>()
                    / self.trace.len() as f64,
                "share",
            ),
            metric(
                "hybrid_hit_ratio",
                ratio(
                    phase.hybrid.exact_hits as f64,
                    phase.hybrid.decisions as f64,
                ),
                "share",
            ),
            metric(
                "dataplane_s",
                (phase.measure_end - phase.measure_start) as f64 / 1e9,
                "s",
            ),
        ];
        if !self.o.trace {
            // Tail and mean figures, printed but not gated: on a shared
            // 2-vCPU host their run-to-run spread exceeds any usable bound.
            notes.extend([
                metric(
                    "dataplane_mpps_mean",
                    ratio(pkts as f64, wall as f64) * 1e3,
                    "Mpkt/s",
                ),
                metric("round_us_p90", by_episode(&walls, episodes, p90), "us"),
                metric("activation_us_p90", by_episode(&acts, episodes, p90), "us"),
            ]);
        }
        if self.rounds.is_empty() || acts.is_empty() || audits.is_empty() {
            return Err(gate("nothing was measured".to_string()));
        }

        let metrics = if !self.o.trace {
            vec![
                metric(
                    "dataplane_mpps",
                    by_episode(&mpps, episodes, median),
                    "Mpkt/s",
                ),
                metric("round_us_p50", by_episode(&walls, episodes, median), "us"),
                metric(
                    "activation_us_p50",
                    by_episode(&acts, episodes, median),
                    "us",
                ),
                metric("audit_ms_p50", by_episode(&audits, episodes, median), "ms"),
                metric("setup_s", setup(|s| s.total) / 1e9, "s"),
                metric("rss_peak_mb", peak_rss_mb(), "MB"),
            ]
        } else {
            let dp = dataplane_layers(&self.rounds, workers, self.w.workers);
            notes.push(metric("traced_rounds", dp.traced_rounds, "count"));
            notes.push(metric("traced_mpps", dp.traced_mpps, "Mpkt/s"));
            notes.push(metric("untraced_mpps", dp.untraced_mpps, "Mpkt/s"));
            let sum = |f: fn(&ActRec) -> u64| self.activations.iter().map(f).sum::<u64>() as f64;
            let act_total = sum(|a| a.total);
            let act_steps = sum(|a| a.submit + a.withdraw + a.publish + a.probe + a.probe_flush);
            let med = |v: &[u64]| median(&v.iter().map(|&x| x as f64).collect::<Vec<_>>());
            let act_med =
                |f: fn(&ActRec) -> u64| med(&self.activations.iter().map(f).collect::<Vec<_>>());
            let r = phase.replay;
            let rounds = self.rounds.len() as f64;
            vec![
                metric("service.offer_ns_per_pkt", dp.offer_ns_per_pkt, "ns"),
                metric("service.flush_us_p50", dp.flush_us_p50, "us"),
                metric(
                    "service.park_events_per_round",
                    phase.park_events as f64 / rounds,
                    "count",
                ),
                metric("service.overflow", self.failed as f64, "count"),
                metric("stage.busy_ns_per_pkt", dp.busy_ns_per_pkt, "ns"),
                metric("stage.burst_mean", dp.burst_mean, "pkt"),
                metric("stage.busy_share", dp.busy_share, "share"),
                metric(
                    "dataplane.unattributed_share",
                    dp.unattributed_share,
                    "share",
                ),
                metric("enclave.process_batch_ns_per_pkt", r.process_batch, "ns"),
                metric("fingerprint.ns_per_pkt", r.fingerprint, "ns"),
                metric("classify.ns_per_pkt", r.classify, "ns"),
                metric("hash_filter.ns_per_pkt", r.hash_filter, "ns"),
                metric("sketch_log.ns_per_pkt", r.sketch_log, "ns"),
                metric(
                    "hybrid.hit_ratio",
                    ratio(
                        phase.hybrid.exact_hits as f64,
                        phase.hybrid.decisions as f64,
                    ),
                    "share",
                ),
                metric("hybrid.promote_ms", med(&self.promote) / 1e6, "ms"),
                metric("hybrid.evicted_flows", phase.hybrid.evicted as f64, "count"),
                metric("enclave.table_bytes", phase.table_bytes as f64, "B"),
                metric("audit.export_us", med(&self.export) / 1e3, "us"),
                metric("audit.verify_us", med(&self.verify) / 1e3, "us"),
                metric("session.submit_us", act_med(|a| a.submit) / 1e3, "us"),
                metric("publish.us", act_med(|a| a.publish) / 1e3, "us"),
                metric("probe.flush_us", act_med(|a| a.probe_flush) / 1e3, "us"),
                metric("ruleset.rebuild_us", r.rebuild / 1e3, "us"),
                metric("ruleset.clone_us", r.clone / 1e3, "us"),
                metric("enclave.swap_us", r.swap / 1e3, "us"),
                metric(
                    "activation.unattributed_share",
                    ratio(act_total - act_steps, act_total),
                    "share",
                ),
                metric("setup.launch_ms", setup(|s| s.launch) / 1e6, "ms"),
                metric("setup.attest_ms", setup(|s| s.attest) / 1e6, "ms"),
                metric("setup.install_ms", setup(|s| s.install) / 1e6, "ms"),
                metric(
                    "setup.service_start_ms",
                    setup(|s| s.service_start) / 1e6,
                    "ms",
                ),
                metric(
                    "trace.overhead_share",
                    1.0 - ratio(dp.traced_mpps, dp.untraced_mpps),
                    "share",
                ),
            ]
        };

        let mut self_times = Vec::new();
        if self.o.trace {
            self_times = self_times_of(self.tr.spans(), workers);
            if let Some(path) = &self.o.spans_out {
                write_csv(path, self.tr.spans(), workers)
                    .map_err(|e| BenchError::Setup(format!("writing {}: {e}", path.display())))?;
            }
        }
        Ok(Outcome {
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            notes,
            round_counts: self.round_counts.clone(),
            self_times,
        })
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn p90(samples: &[f64]) -> f64 {
    quantile(samples, 0.9)
}

/// `stat` of each episode's samples, then the median over episodes: a
/// co-tenant burst that slows one episode does not move the result.
fn by_episode(samples: &[(u32, f64)], episodes: u32, stat: fn(&[f64]) -> f64) -> f64 {
    let per: Vec<f64> = (0..episodes)
        .filter_map(|e| {
            let v: Vec<f64> = samples.iter().filter(|s| s.0 == e).map(|s| s.1).collect();
            (!v.is_empty()).then(|| stat(&v))
        })
        .collect();
    median(&per)
}

/// Data-plane layer numbers from the traced rounds.
#[derive(Debug, Default)]
struct DataplaneLayers {
    traced_rounds: f64,
    traced_mpps: f64,
    untraced_mpps: f64,
    offer_ns_per_pkt: f64,
    flush_us_p50: f64,
    busy_ns_per_pkt: f64,
    burst_mean: f64,
    busy_share: f64,
    unattributed_share: f64,
}

fn dataplane_layers(
    rounds: &[RoundRec],
    workers: &[WorkerTrace],
    n_workers: usize,
) -> DataplaneLayers {
    // Worker spans of data-plane rounds, grouped by round.
    let mut by_round: std::collections::HashMap<u32, Vec<&Span>> = Default::default();
    for w in workers {
        for s in w.spans.iter().filter(|s| s.round < PROBE_ROUND) {
            by_round.entry(s.round).or_default().push(s);
        }
    }
    let mpps = |traced: bool| {
        let (p, ns) = rounds
            .iter()
            .filter(|r| r.traced == traced)
            .fold((0u64, 0u64), |(p, ns), r| {
                (p + u64::from(r.pkts), ns + r.wall)
            });
        ratio(p as f64, ns as f64) * 1e3
    };
    let traced: Vec<&RoundRec> = rounds.iter().filter(|r| r.traced).collect();
    let (mut pkts, mut offer, mut wall, mut busy, mut busy_pkts, mut bursts, mut idle) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let mut intervals = Vec::new();
    for r in &traced {
        pkts += u64::from(r.pkts);
        offer += r.offer;
        wall += r.wall;
        intervals.clear();
        intervals.push((r.start, r.start + r.offer));
        for s in by_round.get(&r.round).map_or(&[][..], |v| v.as_slice()) {
            busy += s.dur();
            busy_pkts += u64::from(s.count);
            bursts += 1;
            intervals.push((s.start, s.end));
        }
        idle += r.wall - covered(&mut intervals, r.start, r.start + r.wall);
    }
    let flushes: Vec<f64> = traced.iter().map(|r| r.flush as f64 / 1e3).collect();
    DataplaneLayers {
        traced_rounds: traced.len() as f64,
        traced_mpps: mpps(true),
        untraced_mpps: mpps(false),
        offer_ns_per_pkt: ratio(offer as f64, pkts as f64),
        flush_us_p50: median(&flushes),
        busy_ns_per_pkt: ratio(busy as f64, busy_pkts as f64),
        burst_mean: ratio(busy_pkts as f64, bursts as f64),
        busy_share: ratio(busy as f64, (wall * n_workers as u64) as f64),
        unattributed_share: ratio(idle as f64, wall as f64),
    }
}

/// Self times of the caller's spans plus the workers' stage spans.
fn self_times_of(caller: &[Span], workers: &[WorkerTrace]) -> Vec<(Name, u64, u64, u64)> {
    let mut rows = self_times(caller);
    for w in workers {
        for (name, n, total, own) in self_times(&w.spans) {
            match rows.iter_mut().find(|r| r.0 == name) {
                Some(r) => {
                    r.1 += n;
                    r.2 += total;
                    r.3 += own;
                }
                None => rows.push((name, n, total, own)),
            }
        }
    }
    rows
}
