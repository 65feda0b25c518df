//! The repository benchmark: end-to-end and per-layer metrics of the
//! AsyncFilter AFL engine on three workloads.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the real engine with no telemetry sink and
//! prints the end-to-end metrics; with `--trace 1` it runs the benchmark's
//! traced replica and prints the per-layer metrics. Either way the last
//! line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the log goes to
//! standard error. `perfbench/run.py` builds and runs this binary.

mod metrics;
mod reference;
mod replica;
mod server_wide;
mod sim;
mod trace;

use metrics::Metrics;

#[global_allocator]
static ALLOC: asyncfl_telemetry::alloc::CountingAllocator =
    asyncfl_telemetry::alloc::CountingAllocator::new();

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["paper_cifar_minmax", "scale_100k_defended", "server_wide"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some(reference::CHILD_FLAG) {
        reference::child_main();
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (metrics, failures, attempted): (Metrics, Vec<String>, u64) = match args.workload.as_str() {
        "server_wide" if args.trace => {
            let (m, f) = server_wide::trace_run(args.seed);
            (m, f, 1)
        }
        "server_wide" => server_wide::measure(args.seed, args.seconds),
        name => {
            let w = match name {
                "paper_cifar_minmax" => sim::paper_cifar_minmax(args.seed),
                _ => sim::scale_100k_defended(args.seed),
            };
            if args.trace {
                let (m, f) = sim::trace_run(&w);
                (m, f, 1)
            } else {
                sim::measure(&w, args.seconds)
            }
        }
    };
    for f in &failures {
        eprintln!("check failed: {f}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {}}}",
        failures.is_empty(),
        metrics.to_json()
    );
}
