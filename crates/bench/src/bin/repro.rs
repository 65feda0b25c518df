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
//!   --threads N       worker threads (default: min(cores, 8))
//!   --csv DIR         additionally write each measured table as CSV into DIR
//!   --trace FILE      write a JSONL event trace and print a telemetry summary
//! ```

use asyncfl_bench::{ExperimentId, RunOptions, TraceHandle};
use asyncfl_telemetry::Stopwatch;
use std::str::FromStr;

// Count every allocation the harness makes, so the --trace summary's
// per-span alloc_bytes are real numbers.
#[global_allocator]
static ALLOC: asyncfl_telemetry::alloc::CountingAllocator =
    asyncfl_telemetry::alloc::CountingAllocator::new();

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!(
            "usage: repro [--quick] [--seed N] [--threads N] [--csv DIR] [--trace FILE] \
             <experiment|all|list>..."
        );
        std::process::exit(2);
    }

    let mut opts = RunOptions::default();
    let mut base_seed = 42u64;
    let mut targets: Vec<ExperimentId> = Vec::new();
    let mut list_only = false;
    let mut csv_dir: Option<std::path::PathBuf> = None;
    let mut trace_path: Option<std::path::PathBuf> = None;
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
        println!("(completed in {:.1?})\n", started.elapsed());
    }

    if let Some(handle) = &trace {
        print!("{}", handle.finish());
    }
}
