//! `ablations` — measure the design choices `DESIGN.md` calls out.
//!
//! Each ablation varies exactly one `AsyncFilterConfig` knob against the
//! default configuration, on FashionMNIST under the no-attack / GD / Min-Sum
//! columns (the three regimes where the knobs trade off):
//!
//! ```text
//! cargo run --release -p asyncfl-bench --bin ablations \
//!     [-- --quick] [--threads N] [--trace FILE]
//! ```
//!
//! `--threads N` runs each simulation on the deterministic worker pool.

use asyncfl_analysis::report::{pct, Table};
use asyncfl_attacks::AttackKind;
use asyncfl_bench::TraceHandle;
use asyncfl_core::aggregation::MeanAggregator;
use asyncfl_core::asyncfilter::{
    AsyncFilter, AsyncFilterConfig, MiddlePolicy, MovingAverageMode, ScoreNormalization,
};
use asyncfl_data::DatasetProfile;
use asyncfl_sim::config::SimConfig;
use asyncfl_sim::runner::{build_attack, Simulation};

// Count allocations so the --trace summary's per-span alloc_bytes are real
// numbers.
#[global_allocator]
static ALLOC: asyncfl_telemetry::alloc::CountingAllocator =
    asyncfl_telemetry::alloc::CountingAllocator::new();

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .map_or(1, |i| {
            let value = args.get(i + 1).unwrap_or_else(|| {
                eprintln!("--threads requires a value");
                std::process::exit(2);
            });
            value.parse().unwrap_or_else(|e| {
                eprintln!("invalid --threads '{value}': {e}");
                std::process::exit(2);
            })
        })
        .max(1);
    let trace = args.iter().position(|a| a == "--trace").map(|i| {
        let path = args.get(i + 1).unwrap_or_else(|| {
            eprintln!("--trace requires a file path");
            std::process::exit(2);
        });
        TraceHandle::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create --trace file {path}: {e}");
            std::process::exit(1);
        })
    });
    let attacks = [AttackKind::None, AttackKind::Gd, AttackKind::MinSum];

    let variants: Vec<(&str, AsyncFilterConfig)> = vec![
        (
            "default (EMA 0.2, gate 2, defer-once, global)",
            AsyncFilterConfig::default(),
        ),
        (
            "ablation-ma: Robbins-Monro (eq. 5 literal)",
            AsyncFilterConfig {
                ma_mode: MovingAverageMode::RobbinsMonro,
                ..Default::default()
            },
        ),
        (
            "ablation-ma: EMA beta 0.5",
            AsyncFilterConfig {
                ma_mode: MovingAverageMode::Ema { beta: 0.5 },
                ..Default::default()
            },
        ),
        (
            "ablation-gate: off (always reject top cluster)",
            AsyncFilterConfig {
                min_separation: 0.0,
                ..Default::default()
            },
        ),
        (
            "ablation-gate: 3.0",
            AsyncFilterConfig {
                min_separation: 3.0,
                ..Default::default()
            },
        ),
        (
            "ablation-score: cross-group (eq. 7 literal)",
            AsyncFilterConfig {
                score_normalization: ScoreNormalization::CrossGroup,
                ..Default::default()
            },
        ),
        (
            "ablation-score: within-group",
            AsyncFilterConfig {
                score_normalization: ScoreNormalization::WithinGroup,
                ..Default::default()
            },
        ),
        (
            "ablation-middle: accept",
            AsyncFilterConfig {
                middle_policy: MiddlePolicy::Accept,
                ..Default::default()
            },
        ),
        (
            "ablation-middle: reject",
            AsyncFilterConfig {
                middle_policy: MiddlePolicy::Reject,
                ..Default::default()
            },
        ),
        (
            "ablation-bucket: staleness buckets of 4",
            AsyncFilterConfig {
                staleness_bucket: 4,
                ..Default::default()
            },
        ),
        (
            "ablation-kmeans: 2-means (fig. 7)",
            AsyncFilterConfig::two_means(),
        ),
    ];

    let mut table = Table::new(
        "AsyncFilter design ablations (FashionMNIST, paper-default setting)",
        attacks.iter().map(|a| a.label().to_string()).collect(),
    );
    for (label, config) in variants {
        let mut row = Vec::new();
        for &attack in &attacks {
            let mut sim_config = SimConfig::paper_default(DatasetProfile::FashionMnist);
            sim_config.threads = threads;
            if quick {
                sim_config.rounds = 16;
                sim_config.test_samples = 800;
            }
            let mut sim = Simulation::new(sim_config);
            let built = build_attack(attack, sim.config().num_clients, sim.config().num_malicious);
            let result = sim.run_with_sink(
                Box::new(AsyncFilter::new(config.clone())),
                built,
                Box::new(MeanAggregator::new()),
                trace.as_ref().map(TraceHandle::sink),
            );
            row.push(pct(result.final_accuracy));
        }
        table.push_row(label, row);
        eprint!(".");
    }
    eprintln!();
    println!("{}", table.to_markdown());
    if let Some(handle) = &trace {
        print!("{}", handle.finish());
    }
}
