//! The benchmark's own tests: every workload runs at smoke size and
//! emits every named metric, the correctness gate is live, and the same
//! seed gives the same per-round counts.

use perfbench::gen;
use perfbench::{run, BenchError, Options, Workload, END_TO_END, PER_LAYER};

fn smoke(name: &str) -> Workload {
    Workload::named(name).expect("known workload").smoke()
}

fn options(seed: u64, trace: bool) -> Options {
    Options {
        seed,
        seconds: 0.3,
        trace,
        flip_flow: None,
        spans_out: None,
    }
}

fn names(metrics: &[perfbench::Metric]) -> Vec<(&str, &str)> {
    metrics.iter().map(|m| (m.name, m.unit)).collect()
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for name in perfbench::workload::NAMES {
        let w = smoke(name);
        let plain = run(&w, &options(7, false)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(names(&plain.metrics), END_TO_END, "{name}");
        assert!(plain.attempted > 0 && plain.failed == 0, "{name}");
        assert!(
            plain
                .metrics
                .iter()
                .all(|m| m.value.is_finite() && m.value > 0.0),
            "{name}: {:?}",
            plain.metrics
        );

        let traced = run(&w, &options(7, true)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(names(&traced.metrics), PER_LAYER, "{name}");
        assert!(traced.metrics.iter().all(|m| m.value.is_finite()), "{name}");
        assert!(!traced.self_times.is_empty(), "{name}");
    }
}

#[test]
fn gate_fails_on_one_flipped_expected_verdict() {
    for name in ["paper_64k", "zipf4m_hash"] {
        let w = smoke(name);
        // The first packet of the first round offered.
        let chunks = (w.trace_len / w.round) as u32;
        let first_chunk = gen::chunk_order(3).below(chunks) as usize;
        let first_flow = gen::trace(&w, 3)[first_chunk * w.round];
        let mut o = options(3, false);
        o.flip_flow = Some(first_flow);
        match run(&w, &o) {
            Err(BenchError::Gate(msg)) => assert!(msg.contains("oracle expects"), "{msg}"),
            other => panic!("{name}: the gate let a flipped verdict through: {other:?}"),
        }
    }
}

#[test]
fn same_seed_gives_identical_round_counts() {
    let w = smoke("paper_64k");
    let a = run(&w, &options(11, false)).expect("first run");
    let b = run(&w, &options(11, false)).expect("second run");
    let c = run(&w, &options(12, false)).expect("other seed");
    let n = a.round_counts.len().min(b.round_counts.len());
    assert!(n >= 8, "too few rounds to compare");
    assert_eq!(a.round_counts[..n], b.round_counts[..n]);
    let m = n.min(c.round_counts.len());
    assert_ne!(a.round_counts[..m], c.round_counts[..m]);
}

#[test]
fn benchmark_json_lists_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(json.matches("\"bound\"").count(), END_TO_END.len());
    for name in perfbench::workload::NAMES {
        assert!(json.contains(&format!("{{\"name\": \"{name}\"")), "{name}");
    }
}
