//! The simulation workloads: the paper's CIFAR-10 setting and the
//! 100 000-client defended run.

use crate::metrics::{self, median, ratio, Metrics};
use crate::reference::Reference;
use crate::replica;
use crate::trace::{self, Layer};
use asyncfl_attacks::AttackKind;
use asyncfl_core::aggregation::MeanAggregator;
use asyncfl_core::AsyncFilter;
use asyncfl_data::DatasetProfile;
use asyncfl_sim::runner::build_attack;
use asyncfl_sim::{RunResult, SimConfig, Simulation};
use asyncfl_telemetry::alloc;
use std::time::Instant;

/// A simulation workload: a configuration plus the attack it runs.
pub struct SimWorkload {
    /// The engine configuration (one thread); its seed comes from `--seed`.
    pub cfg: SimConfig,
    /// The attack the malicious clients mount.
    pub attack: AttackKind,
    /// Whether the traced run also measures the two-thread worker pool.
    pub pool: bool,
}

/// `SimConfig::paper_default(Cifar10)` under Min-Max, one thread, cut to
/// the first 12 of its 60 rounds so a run holds many repetitions.
pub fn paper_cifar_minmax(seed: u64) -> SimWorkload {
    let mut cfg = SimConfig::paper_default(DatasetProfile::Cifar10).with_seed(seed);
    cfg.rounds = 12;
    SimWorkload {
        cfg,
        attack: AttackKind::MinMax,
        pool: true,
    }
}

/// The `scale_1m` probe's shape at a tenth of its population, with GD
/// attackers at the same 0.2% share: 10⁵ clients, participation 0.5,
/// 4-sample shards, Ω = 8 192, 3 rounds, one thread.
pub fn scale_100k_defended(seed: u64) -> SimWorkload {
    let mut cfg = SimConfig::paper_default(DatasetProfile::Mnist).with_seed(seed);
    cfg.num_clients = 100_000;
    cfg.num_malicious = 200;
    cfg.aggregation_bound = 8_192;
    cfg.rounds = 3;
    cfg.partition_size = Some(4);
    cfg.test_samples = 200;
    cfg.eval_every = cfg.rounds;
    cfg.participation = 0.5;
    SimWorkload {
        cfg,
        attack: AttackKind::Gd,
        pool: false,
    }
}

impl SimWorkload {
    fn run_engine(&self, sim: &mut Simulation) -> RunResult {
        let cfg = sim.config();
        let attack = build_attack(self.attack, cfg.num_clients, cfg.num_malicious);
        sim.run_with(
            Box::new(AsyncFilter::default()),
            attack,
            Box::new(MeanAggregator::new()),
        )
    }

    /// Timed `Simulation::new`, returning the simulation and its seconds.
    fn setup(&self) -> (Simulation, f64) {
        let started = Instant::now();
        let sim = Simulation::new(self.cfg.clone());
        (sim, started.elapsed().as_secs_f64())
    }

    /// One engine run on `threads` threads, with its wall and process CPU
    /// seconds.
    fn timed_run(&self, threads: usize) -> (RunResult, f64, f64) {
        let mut sim = Simulation::new(self.cfg.clone().with_threads(threads));
        let cpu0 = metrics::process_cpu_s();
        let started = Instant::now();
        let result = self.run_engine(&mut sim);
        let wall = started.elapsed().as_secs_f64();
        (result, wall, metrics::process_cpu_s() - cpu0)
    }
}

/// Output checks that hold for any seed. Returns the failures.
fn check_result(cfg: &SimConfig, r: &RunResult, num_classes: usize) -> Vec<String> {
    let mut failures = Vec::new();
    if r.rounds_completed != cfg.rounds {
        failures.push(format!(
            "rounds_completed {} != {}",
            r.rounds_completed, cfg.rounds
        ));
    }
    let chance = 1.0 / num_classes as f64;
    if !(r.final_accuracy.is_finite() && r.final_accuracy > chance) {
        failures.push(format!(
            "final_accuracy {} not above chance {chance}",
            r.final_accuracy
        ));
    }
    if r.accuracy_history.iter().any(|(_, a)| !a.is_finite()) {
        failures.push("non-finite accuracy checkpoint".into());
    }
    let verdicts: usize = r
        .round_reports
        .iter()
        .map(|x| x.accepted + x.rejected)
        .sum();
    if r.detection.total() != verdicts {
        failures.push(format!(
            "confusion total {} != terminal verdicts {verdicts}",
            r.detection.total()
        ));
    }
    failures
}

/// Minimum number of `Simulation::new` samples behind `setup_s`.
const MIN_SETUPS: usize = 5;

/// The untraced run: repeats the engine on one seed for up to `seconds`
/// (at least once), timing the reference kernel between repetitions, and
/// reports the end-to-end metrics.
pub fn measure(w: &SimWorkload, seconds: f64) -> (Metrics, Vec<String>, u64) {
    let mut setups = Vec::new();
    for _ in 0..MIN_SETUPS {
        setups.push(w.setup().1);
    }
    let mut reference = Reference::new();
    let mut results: Vec<RunResult> = Vec::new();
    let mut alloc_bytes = 0u64;
    let mut rep_s = Vec::new();
    let began = Instant::now();
    loop {
        reference.sample();
        let (mut sim, setup_s) = w.setup();
        setups.push(setup_s);
        let before = alloc::allocated_bytes();
        let started = Instant::now();
        let result = w.run_engine(&mut sim);
        rep_s.push(started.elapsed().as_secs_f64());
        alloc_bytes += alloc::allocated_bytes() - before;
        results.push(result);
        if began.elapsed().as_secs_f64() + median(&rep_s) > seconds {
            break;
        }
    }
    reference.sample();
    let peak_rss = metrics::peak_rss_mib();

    let num_classes = Simulation::new(w.cfg.clone()).task().num_classes();
    let mut failures = check_result(&w.cfg, &results[0], num_classes);
    if results.iter().any(|r| r != &results[0]) {
        failures.push("repeated runs of one seed differ".into());
    }

    let updates = results[0].updates_received as f64;
    // Repetitions do identical work and interference only slows one down,
    // so the fastest is the steadiest estimate of the engine's own cost.
    let fastest = rep_s.iter().copied().fold(f64::INFINITY, f64::min);
    let mut m = Metrics::default();
    m.add("setup_s", median(&setups), "s");
    m.add(
        "updates_per_s_norm",
        updates / fastest * reference.slowdown(),
        "1/s",
    );
    m.add("peak_rss_mb", peak_rss, "MiB");
    m.add(
        "alloc_bytes_per_update",
        ratio(alloc_bytes as f64, updates * results.len() as f64),
        "B",
    );
    eprintln!(
        "repetitions {}, run_s {rep_s:.3?}, raw updates/s {:.1}, host slowdown {:.3}, setups {}",
        results.len(),
        updates / fastest,
        reference.slowdown(),
        setups.len()
    );
    (m, failures, results.len() as u64)
}

/// Worker threads the pool measurement uses.
const POOL_THREADS: usize = 2;

/// The traced run: one untraced engine run (and, for the pool, one on two
/// threads), then the traced replica, whose `RunResult` must equal the
/// engine's; reports the per-layer metrics.
pub fn trace_run(w: &SimWorkload) -> (Metrics, Vec<String>) {
    let cfg = &w.cfg;
    let num_classes = Simulation::new(cfg.clone()).task().num_classes();
    let (engine, engine_wall, _) = w.timed_run(1);
    let pooled = w.pool.then(|| w.timed_run(POOL_THREADS));

    let attack = build_attack(w.attack, cfg.num_clients, cfg.num_malicious);
    trace::enable();
    let (result, counts, report) = replica::run(
        cfg,
        AsyncFilter::default(),
        attack.as_ref(),
        Box::new(MeanAggregator::new()),
    );
    let stats = trace::finish();
    let report = report.lock().expect("filter report poisoned").clone();

    let mut failures = check_result(cfg, &result, num_classes);
    if result != engine {
        failures.push("replica RunResult differs from the engine's".into());
    }
    if pooled.as_ref().is_some_and(|(p, _, _)| p != &engine) {
        failures.push(format!(
            "{POOL_THREADS}-thread RunResult differs from the 1-thread run"
        ));
    }
    if !counts.global_finite {
        failures.push("non-finite global model".into());
    }

    let st = |l: Layer| &stats[l as usize];
    let mut m = Metrics::default();
    metrics::add_layer_times(&mut m, &stats, counts.wall_s);
    let dataset_calls = st(Layer::Dataset).calls as f64;
    m.add(
        "spawner.dataset_hit_ratio",
        ratio(counts.dataset_hits as f64, dataset_calls),
        "ratio",
    );
    m.add("spawner.resident_max", counts.resident_max as f64, "count");
    m.add(
        "train.samples_per_s",
        ratio(counts.train_samples as f64, st(Layer::Train).secs()),
        "1/s",
    );
    m.add(
        "train.alloc_bytes_per_call",
        ratio(
            counts.train_alloc_bytes as f64,
            st(Layer::Train).calls as f64,
        ),
        "B",
    );
    m.add(
        "attack.useful_ratio",
        ratio(st(Layer::Attack).calls as f64, counts.crafted as f64),
        "ratio",
    );
    metrics::add_filter_counts(&mut m, &report, result.updates_received);
    metrics::add_server_counts(
        &mut m,
        result.updates_received,
        result.updates_discarded_stale,
        &result.detection,
    );
    m.add("eval.final_accuracy", result.final_accuracy, "ratio");
    m.add("schedule.max_depth", counts.max_depth as f64, "count");
    let (speedup, busy) = pooled.map_or((0.0, 0.0), |(_, wall, cpu)| {
        (engine_wall / wall, cpu / (POOL_THREADS as f64 * wall))
    });
    m.add("pool.speedup", speedup, "ratio");
    m.add("pool.busy_share", busy, "ratio");
    m.add(
        "trace.overhead_share",
        (counts.wall_s - engine_wall) / engine_wall,
        "ratio",
    );
    eprint!("{}", metrics::layer_table(&stats, counts.wall_s));
    eprintln!("engine wall {engine_wall:.3} s");
    (m, failures)
}
