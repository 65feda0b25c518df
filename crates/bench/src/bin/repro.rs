//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro list                 # show available experiments
//! repro table2               # one artifact
//! repro table2 fig7          # several
//! repro all                  # everything, in paper order
//!
//! Options:
//!   --quick           shorter horizon (CI smoke run)
//!   --seed N          base seed (default 42; figs. use seed..seed+2)
//!   --threads N       worker threads (default: min(cores, 8)); also sets
//!                     the threads-scaling probe size for --bench-json
//!   --csv DIR         additionally write each measured table as CSV into DIR
//!   --trace FILE      write a JSONL event trace and print a telemetry summary
//!   --bench-json FILE write a perf summary (wall clocks, per-phase span
//!                     breakdown, threads=1 vs threads=N scaling probe)
//! ```

use asyncfl_bench::perf::{
    counter_rows, gauge_rows, phase_rows, run_filter_wide_probe, run_rss_probe, run_scale_probe,
    run_scaling_probe, run_training_probe, BenchJson,
};
use asyncfl_bench::{ExperimentId, RunOptions, TraceHandle};
use asyncfl_telemetry::metrics::MetricsRegistry;
use asyncfl_telemetry::{SharedSink, Sink, Stopwatch};
use std::str::FromStr;
use std::sync::Arc;

// Count every allocation the harness makes, so per-phase alloc_bytes and
// the peak_rss_estimate probe in --bench-json measure real numbers.
#[global_allocator]
static ALLOC: asyncfl_telemetry::alloc::CountingAllocator =
    asyncfl_telemetry::alloc::CountingAllocator::new();

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!(
            "usage: repro [--quick] [--seed N] [--threads N] [--csv DIR] [--trace FILE] \
             [--bench-json FILE] <experiment|all|list>..."
        );
        std::process::exit(2);
    }

    let mut opts = RunOptions::default();
    let mut base_seed = 42u64;
    let mut targets: Vec<ExperimentId> = Vec::new();
    let mut list_only = false;
    let mut csv_dir: Option<std::path::PathBuf> = None;
    let mut trace_path: Option<std::path::PathBuf> = None;
    let mut bench_json_path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--seed" => {
                let value = iter.next().unwrap_or_else(|| {
                    eprintln!("--seed requires a value");
                    std::process::exit(2);
                });
                base_seed = value.parse().unwrap_or_else(|e| {
                    eprintln!("invalid --seed '{value}': {e}");
                    std::process::exit(2);
                });
            }
            "--threads" => {
                let value = iter.next().unwrap_or_else(|| {
                    eprintln!("--threads requires a value");
                    std::process::exit(2);
                });
                opts.threads = value.parse().unwrap_or_else(|e| {
                    eprintln!("invalid --threads '{value}': {e}");
                    std::process::exit(2);
                });
                if opts.threads == 0 {
                    eprintln!("--threads must be positive");
                    std::process::exit(2);
                }
            }
            "--csv" => {
                let value = iter.next().unwrap_or_else(|| {
                    eprintln!("--csv requires a directory");
                    std::process::exit(2);
                });
                csv_dir = Some(std::path::PathBuf::from(value));
            }
            "--trace" => {
                let value = iter.next().unwrap_or_else(|| {
                    eprintln!("--trace requires a file path");
                    std::process::exit(2);
                });
                trace_path = Some(std::path::PathBuf::from(value));
            }
            "--bench-json" => {
                let value = iter.next().unwrap_or_else(|| {
                    eprintln!("--bench-json requires a file path");
                    std::process::exit(2);
                });
                bench_json_path = Some(value.clone());
            }
            "list" => list_only = true,
            "all" => targets.extend(ExperimentId::ALL),
            other => match ExperimentId::from_str(other) {
                Ok(id) => targets.push(id),
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            },
        }
    }
    opts.seeds = vec![base_seed, base_seed + 1, base_seed + 2];

    if list_only {
        println!("Available experiments:");
        for id in ExperimentId::ALL {
            println!("  {:8} {}", id.name(), id.description());
        }
        return;
    }
    if targets.is_empty() {
        eprintln!("no experiments requested; try 'repro list'");
        std::process::exit(2);
    }

    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create --csv directory {}: {e}", dir.display());
            std::process::exit(1);
        }
    }

    let trace = trace_path.map(|path| {
        let handle = TraceHandle::create(&path).unwrap_or_else(|e| {
            eprintln!("cannot create --trace file {}: {e}", path.display());
            std::process::exit(1);
        });
        opts.sink = Some(handle.sink());
        handle
    });

    // --bench-json without --trace still needs span histograms: attach a
    // bare metrics registry as the sink (the trace handle already embeds
    // one when tracing is on).
    let standalone_registry: Option<Arc<MetricsRegistry>> =
        if bench_json_path.is_some() && trace.is_none() {
            let registry = Arc::new(MetricsRegistry::new());
            opts.sink = Some(SharedSink::from_arc(Arc::clone(&registry) as Arc<dyn Sink>));
            Some(registry)
        } else {
            None
        };

    let mut experiment_secs: Vec<(String, f64)> = Vec::new();
    for id in targets {
        let started = Stopwatch::start();
        println!("== {} — {} ==\n", id.name(), id.description());
        let report = id.run_report(&opts);
        print!("{}", report.to_markdown());
        if let Some(dir) = &csv_dir {
            for (i, table) in report.tables.iter().enumerate() {
                let path = dir.join(format!("{}_{}.csv", id.name(), i));
                if let Err(e) = std::fs::write(&path, table.to_csv()) {
                    eprintln!("failed to write {}: {e}", path.display());
                }
            }
        }
        let elapsed = started.elapsed();
        experiment_secs.push((id.name().to_string(), elapsed.as_secs_f64()));
        println!("(completed in {elapsed:.1?})\n");
    }

    if let Some(handle) = &trace {
        print!("{}", handle.finish());
    }

    if let Some(path) = bench_json_path {
        println!(
            "Running threads-scaling probe (threads=1 vs threads={})...",
            opts.threads.max(2)
        );
        let probe = run_scaling_probe(opts.threads, opts.quick);
        match probe.skipped {
            Some(reason) => println!(
                "probe: timing skipped ({reason}); byte-identical: {}",
                probe.identical
            ),
            None => println!(
                "probe: baseline {:.2}s, parallel {:.2}s, speedup {:.2}x, identical: {}",
                probe.baseline_secs, probe.parallel_secs, probe.speedup, probe.identical
            ),
        }
        println!("Running local-training throughput probe...");
        let training = run_training_probe(opts.quick);
        println!(
            "probe: {} samples in {:.2}s = {:.0} samples/sec ({} steps, {:.0} ns/step)",
            training.samples,
            training.wall_secs,
            training.samples_per_sec,
            training.steps,
            training.step_mean_ns
        );
        println!("Running wide-model filter probe...");
        let wide = run_filter_wide_probe(opts.quick);
        match &wide.phase {
            Some(row) => println!(
                "probe: dim {}, {} passes, {} distances, filter_wide mean {:.2} ms \
                 (p99 {:.2} ms, {:.0} alloc bytes/pass)",
                wide.dim,
                wide.passes,
                wide.distances_computed,
                row.mean_ns / 1e6,
                row.p99_ns as f64 / 1e6,
                row.alloc_bytes_mean
            ),
            None => println!("probe: dim {}, no filter spans observed", wide.dim),
        }
        println!("Running million-client scale probe...");
        let scale = run_scale_probe(opts.quick);
        println!(
            "probe: {} clients, {}/{} rounds, {} events in {:.2}s = {:.0} events/sec, \
             resident max {} (cache {}), alloc peak {:.1} MiB, vm_hwm {}",
            scale.clients,
            scale.rounds_completed,
            scale.rounds,
            scale.loop_events,
            scale.wall_secs,
            scale.events_per_sec,
            scale.resident_client_states_max,
            scale.shard_cache_capacity,
            scale.alloc_peak_live_bytes as f64 / (1024.0 * 1024.0),
            scale
                .vm_hwm_bytes
                .map_or("unreadable".to_string(), |b| format!(
                    "{:.1} MiB",
                    b as f64 / (1024.0 * 1024.0)
                )),
        );
        let registry: Option<&MetricsRegistry> = trace
            .as_ref()
            .map(|h| h.registry())
            .or(standalone_registry.as_deref());
        // The wide probe's span summary joins the phases table (named
        // `filter_wide`), so asyncfl-bench-diff gates it like any phase.
        let mut phases = registry.map(phase_rows).unwrap_or_default();
        phases.extend(wide.phase.clone());
        let artifact = BenchJson {
            binary: "repro",
            quick: opts.quick,
            threads: opts.threads,
            total_secs: experiment_secs.iter().map(|(_, s)| s).sum(),
            experiments: experiment_secs,
            phases,
            counters: registry.map(counter_rows).unwrap_or_default(),
            gauges: registry.map(gauge_rows).unwrap_or_default(),
            scaling: Some(probe),
            training: Some(training),
            filter_wide: Some(wide),
            scale_1m: Some(scale),
            rss: Some(run_rss_probe()),
        };
        if let Err(e) = artifact.write(&path) {
            eprintln!("failed to write --bench-json {path}: {e}");
            std::process::exit(1);
        }
        println!("bench json written to {path}");
    }
}
