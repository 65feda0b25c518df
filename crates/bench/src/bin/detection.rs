//! `detection` — detector-quality table (not in the paper).
//!
//! Final accuracy hides *how* a defense wins; this binary reports the
//! detection metrics directly: precision, recall, false-positive rate and
//! AUC of the AsyncFilter suspicious score, per attack, on the
//! paper-default FashionMNIST setting.
//!
//! ```text
//! cargo run --release -p asyncfl-bench --bin detection \
//!     [-- --quick] [--threads N] [--trace FILE] [--bench-json FILE]
//! ```
//!
//! With `--trace FILE` every run also streams telemetry events into a JSONL
//! file, and the binary cross-checks the trace against its own numbers: the
//! `filter_score` verdict counts must reconcile exactly with the summed
//! `DetectionStats` confusion matrix. `--threads N` runs each simulation on
//! the deterministic worker pool; `--bench-json FILE` writes per-attack wall
//! clocks and the span breakdown as a machine-readable perf artifact.

use asyncfl_analysis::detection::{auc, LabelledScore};
use asyncfl_analysis::report::Table;
use asyncfl_attacks::AttackKind;
use asyncfl_bench::perf::{counter_rows, gauge_rows, phase_rows, run_rss_probe, BenchJson};
use asyncfl_bench::TraceHandle;
use asyncfl_core::aggregation::MeanAggregator;
use asyncfl_core::asyncfilter::{AsyncFilter, ScoreRecord};
use asyncfl_core::update::{ClientUpdate, FilterContext, FilterOutcome, UpdateFilter};
use asyncfl_data::DatasetProfile;
use asyncfl_sim::config::SimConfig;
use asyncfl_sim::metrics::DetectionStats;
use asyncfl_sim::runner::{build_attack, Simulation};
use asyncfl_telemetry::metrics::MetricsRegistry;
use asyncfl_telemetry::{SharedSink, Sink, Stopwatch, Verdict};
use std::sync::{Arc, Mutex};

// Count allocations so --bench-json reports real alloc/RSS numbers.
#[global_allocator]
static ALLOC: asyncfl_telemetry::alloc::CountingAllocator =
    asyncfl_telemetry::alloc::CountingAllocator::new();

/// Delegates to AsyncFilter while archiving every round's scores.
struct ScoreArchive {
    inner: AsyncFilter,
    records: Arc<Mutex<Vec<ScoreRecord>>>,
}

impl UpdateFilter for ScoreArchive {
    fn name(&self) -> &str {
        "ScoreArchive"
    }

    fn filter(&mut self, updates: Vec<ClientUpdate>, ctx: &FilterContext<'_>) -> FilterOutcome {
        let outcome = self.inner.filter(updates, ctx);
        self.records
            .lock()
            .unwrap()
            .extend_from_slice(self.inner.last_scores());
        outcome
    }

    fn last_scores(&self) -> &[ScoreRecord] {
        self.inner.last_scores()
    }
}

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
    let bench_json_path = args.iter().position(|a| a == "--bench-json").map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| {
                eprintln!("--bench-json requires a file path");
                std::process::exit(2);
            })
            .clone()
    });
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
    // --bench-json without --trace still needs span histograms.
    let standalone_registry: Option<Arc<MetricsRegistry>> =
        if bench_json_path.is_some() && trace.is_none() {
            Some(Arc::new(MetricsRegistry::new()))
        } else {
            None
        };
    let run_sink = |trace: Option<&TraceHandle>| -> Option<SharedSink> {
        trace.map(TraceHandle::sink).or_else(|| {
            standalone_registry
                .as_ref()
                .map(|r| SharedSink::from_arc(Arc::clone(r) as Arc<dyn Sink>))
        })
    };

    let mut experiment_secs: Vec<(String, f64)> = Vec::new();
    let mut totals = DetectionStats::default();
    let mut table = Table::new(
        "AsyncFilter detection quality (FashionMNIST, paper-default setting)",
        vec![
            "accuracy".into(),
            "precision".into(),
            "recall".into(),
            "FPR".into(),
            "score AUC".into(),
        ],
    );
    for attack in AttackKind::ATTACKS_ONLY {
        let started = Stopwatch::start();
        let mut cfg = SimConfig::paper_default(DatasetProfile::FashionMnist);
        cfg.threads = threads;
        if quick {
            cfg.rounds = 16;
            cfg.test_samples = 800;
        }
        let records = Arc::new(Mutex::new(Vec::new()));
        let filter = ScoreArchive {
            inner: AsyncFilter::default(),
            records: Arc::clone(&records),
        };
        let mut sim = Simulation::new(cfg);
        let built = build_attack(attack, sim.config().num_clients, sim.config().num_malicious);
        let result = sim.run_with_sink(
            Box::new(filter),
            built,
            Box::new(MeanAggregator::new()),
            run_sink(trace.as_ref()),
        );
        let observations: Vec<LabelledScore> = records
            .lock()
            .unwrap()
            .iter()
            .map(|r| (r.score, r.truth_malicious))
            .collect();
        let d = result.detection;
        totals.absorb((
            d.true_positives,
            d.false_positives,
            d.false_negatives,
            d.true_negatives,
        ));
        table.push_row(
            attack.label(),
            vec![
                format!("{:.1}%", result.final_accuracy * 100.0),
                format!("{:.2}", d.precision()),
                format!("{:.2}", d.recall()),
                format!("{:.3}", d.false_positive_rate()),
                format!("{:.3}", auc(&observations)),
            ],
        );
        experiment_secs.push((attack.label().to_string(), started.elapsed_secs()));
        eprint!(".");
    }
    eprintln!();
    println!("{}", table.to_markdown());
    println!(
        "AUC reads the suspicious score as a detector independent of the 3-means \
         threshold: 0.5 is uninformative, 1.0 a perfect separator."
    );

    if let Some(handle) = &trace {
        println!();
        print!("{}", handle.finish());
        let registry = handle.registry();
        // DetectionStats counts terminal verdicts only; deferred events are
        // re-filtering passes of the same update and stay outside it.
        let rejected = registry.verdict_count(Verdict::Rejected);
        let accepted = registry.verdict_count(Verdict::Accepted);
        let want_rejected = (totals.true_positives + totals.false_positives) as u64;
        let want_accepted = (totals.false_negatives + totals.true_negatives) as u64;
        println!(
            "reconciliation: rejected events {rejected} vs DetectionStats TP+FP {want_rejected}; \
             accepted events {accepted} vs FN+TN {want_accepted}"
        );
        if rejected != want_rejected || accepted != want_accepted {
            eprintln!("error: trace verdict counts do not match DetectionStats");
            std::process::exit(1);
        }
        println!("reconciliation: OK (trace verdicts match the confusion matrix exactly)");
    }

    if let Some(path) = bench_json_path {
        let registry: Option<&MetricsRegistry> = trace
            .as_ref()
            .map(|h| h.registry())
            .or(standalone_registry.as_deref());
        let artifact = BenchJson {
            binary: "detection",
            quick,
            threads,
            total_secs: experiment_secs.iter().map(|(_, s)| s).sum(),
            experiments: experiment_secs,
            phases: registry.map(phase_rows).unwrap_or_default(),
            counters: registry.map(counter_rows).unwrap_or_default(),
            gauges: registry.map(gauge_rows).unwrap_or_default(),
            scaling: None,
            training: None,
            filter_wide: None,
            scale_1m: None,
            rss: Some(run_rss_probe()),
        };
        if let Err(e) = artifact.write(&path) {
            eprintln!("failed to write --bench-json {path}: {e}");
            std::process::exit(1);
        }
        println!("bench json written to {path}");
    }
}
