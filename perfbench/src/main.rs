//! `vif-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one `name value unit` line per metric, then, as the last line,
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. Exits
//! 1 without a result when the correctness gate fails, 2 on bad arguments.

use std::path::Path;
use std::process::ExitCode;

use perfbench::{run, Options, Workload};

fn usage() -> ExitCode {
    eprintln!(
        "usage: vif-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        perfbench::workload::NAMES.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Workload::named(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return usage(),
        }
    }
    let (Some(w), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace) else {
        return usage();
    };
    let spans_out = trace.then(|| {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}.spans.csv", w.name))
    });
    let options = Options {
        seed,
        seconds,
        trace,
        flip_flow: None,
        spans_out,
    };
    let outcome = match run(&w, &options) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", w.name);
            return ExitCode::from(1);
        }
    };

    println!(
        "# {} seed={seed} seconds={seconds} trace={} workers={} threads={}",
        w.name,
        u8::from(trace),
        w.workers,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for m in &outcome.notes {
        println!("# {} {} {}", m.name, m.value, m.unit);
    }
    for (name, n, total, own) in &outcome.self_times {
        println!(
            "# span {} count={n} total_ms={:.3} self_ms={:.3}",
            name.as_str(),
            *total as f64 / 1e6,
            *own as f64 / 1e6
        );
    }
    if let Some(path) = &options.spans_out {
        println!("# spans written to {}", path.display());
    }
    for m in &outcome.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
