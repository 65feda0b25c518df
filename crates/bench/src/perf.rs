//! `BENCH_*.json` perf-trajectory export.
//!
//! The bench binaries (`repro`, `detection`, `ablations`) accept
//! `--bench-json <path>` and write a machine-readable perf summary:
//! wall-clock totals per experiment, the per-phase breakdown (local
//! training / filter / aggregation span histograms) pulled from the
//! telemetry [`MetricsRegistry`], and — for `repro` — a threads-scaling
//! probe that measures the deterministic engine at `threads = 1` vs
//! `threads = N` on the same seed and records the speedup. Future PRs
//! diff these files to keep the perf trajectory honest.
//!
//! The JSON is hand-rolled: the workspace is intentionally
//! zero-dependency, so there is no serde to lean on. Only the small,
//! flat schema below is ever emitted.

use asyncfl_attacks::AttackKind;
use asyncfl_core::aggregation::MeanAggregator;
use asyncfl_core::update::{ClientUpdate, PassthroughFilter};
use asyncfl_core::AsyncFilter;
use asyncfl_data::DatasetProfile;
use asyncfl_ml::train::{build_model, build_optimizer, LocalTrainer};
use asyncfl_rng::rngs::StdRng;
use asyncfl_rng::{SeedableRng, StandardSample};
use asyncfl_sim::config::SimConfig;
use asyncfl_sim::runner::{build_attack, Simulation};
use asyncfl_sim::server::BufferedServer;
use asyncfl_telemetry::metrics::MetricsRegistry;
use asyncfl_telemetry::{Event, MemorySink, SharedSink, Sink, Stopwatch};
use asyncfl_tensor::Vector;
use std::sync::Arc;

/// One span's latency + allocation summary (latency in nanoseconds,
/// allocation in bytes; both bucketed — see
/// [`asyncfl_telemetry::metrics::Log2Histogram`]).
#[derive(Debug, Clone)]
pub struct PhaseRow {
    /// Span name (`local_training`, `filter`, `aggregate`, `kmeans_1d`).
    pub span: String,
    /// Closed-span count.
    pub count: u64,
    /// Total time inside the span, seconds.
    pub total_secs: f64,
    /// Mean duration, nanoseconds.
    pub mean_ns: f64,
    /// 50th / 95th / 99th percentile durations, nanoseconds.
    pub p50_ns: u64,
    /// 95th percentile, nanoseconds.
    pub p95_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// Total bytes allocated across all closes of this span (0 when no
    /// counting allocator was installed — "not measured").
    pub alloc_bytes_total: u64,
    /// Mean bytes allocated per span close.
    pub alloc_bytes_mean: f64,
    /// 99th percentile of per-close allocated bytes.
    pub alloc_bytes_p99: u64,
    /// Largest allocator live-byte high-water mark seen at any close.
    pub peak_live_bytes: u64,
}

/// Extracts the per-phase breakdown from a registry's span histograms.
pub fn phase_rows(registry: &MetricsRegistry) -> Vec<PhaseRow> {
    let allocs = registry.span_allocs();
    registry
        .spans()
        .into_iter()
        .map(|(name, hist)| {
            let alloc = allocs.get(name);
            PhaseRow {
                span: name.to_string(),
                count: hist.count(),
                total_secs: hist.sum() as f64 / 1e9,
                mean_ns: hist.mean().unwrap_or(0.0),
                p50_ns: hist.percentile(50.0).unwrap_or(0),
                p95_ns: hist.percentile(95.0).unwrap_or(0),
                p99_ns: hist.percentile(99.0).unwrap_or(0),
                alloc_bytes_total: alloc.map_or(0, |h| h.sum()),
                alloc_bytes_mean: alloc.and_then(|h| h.mean()).unwrap_or(0.0),
                alloc_bytes_p99: alloc.and_then(|h| h.percentile(99.0)).unwrap_or(0),
                peak_live_bytes: registry.span_peak_live(name),
            }
        })
        .collect()
}

/// One gauge's sample summary pulled from the registry.
#[derive(Debug, Clone)]
pub struct GaugeRow {
    /// Gauge name (`buffer_occupancy`, `deferred_queue_depth`, …).
    pub name: String,
    /// Samples taken.
    pub count: u64,
    /// Most recent sample.
    pub last: u64,
    /// Mean of all samples.
    pub mean: f64,
    /// Largest sample.
    pub max: u64,
}

/// Extracts the gauge summaries from a registry.
pub fn gauge_rows(registry: &MetricsRegistry) -> Vec<GaugeRow> {
    registry
        .gauges()
        .into_iter()
        .map(|(name, hist)| GaugeRow {
            name: name.to_string(),
            count: hist.count(),
            last: registry.gauge_last(name).unwrap_or(0),
            mean: hist.mean().unwrap_or(0.0),
            max: hist.max().unwrap_or(0),
        })
        .collect()
}

/// Extracts the named monotonic counters from a registry.
pub fn counter_rows(registry: &MetricsRegistry) -> Vec<(String, u64)> {
    registry
        .counters()
        .into_iter()
        .map(|(name, n)| (name.to_string(), n))
        .collect()
}

/// Peak-memory estimate for the whole bench process: the counting
/// allocator's view plus, on Linux, the kernel's `VmHWM` (peak resident
/// set) from `/proc/self/status`. The two bracket the truth — the
/// allocator undercounts (allocator metadata, stacks, code) and `VmHWM`
/// overcounts relative to heap (it includes everything resident).
#[derive(Debug, Clone, Default)]
pub struct RssProbe {
    /// Allocator live-byte high-water mark (0 when not installed).
    pub alloc_peak_live_bytes: u64,
    /// Cumulative bytes allocated over the process lifetime.
    pub alloc_total_bytes: u64,
    /// Cumulative allocation calls.
    pub alloc_count: u64,
    /// Kernel peak resident set size in bytes, when readable.
    pub vm_hwm_bytes: Option<u64>,
}

/// Parses the `VmHWM:` line out of `/proc/self/status` contents.
/// Exposed for tests; returns bytes (the kernel reports kB).
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Samples the peak-RSS estimate for this process.
pub fn run_rss_probe() -> RssProbe {
    let snap = asyncfl_telemetry::alloc::snapshot();
    RssProbe {
        alloc_peak_live_bytes: snap.peak_live_bytes,
        alloc_total_bytes: snap.allocated_bytes,
        alloc_count: snap.alloc_count,
        vm_hwm_bytes: std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| parse_vm_hwm(&s)),
    }
}

/// One timed point of the threads-scaling curve.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Worker threads for this leg.
    pub threads: usize,
    /// Wall clock, seconds.
    pub secs: f64,
    /// `baseline_secs / secs`.
    pub speedup: f64,
    /// Whether this leg reproduced the sequential `RunResult` exactly.
    pub identical: bool,
}

/// Result of the threads-scaling probe: the same seeded AsyncFilter-vs-GD
/// run timed at `threads = 1` and at each point of a doubling thread
/// ladder up to `threads = N`.
///
/// `host_cpus` keeps the speedup interpretable when artifacts from
/// different machines are diffed: on a single-core host the parallel leg
/// can only measure the pool's overhead (speedup < 1 is expected there),
/// so timing is skipped — but the byte-identical re-check still runs on
/// every host (on a smaller workload, since it measures determinism, not
/// throughput).
#[derive(Debug, Clone)]
pub struct ScalingProbe {
    /// Worker threads used for the widest parallel leg.
    pub threads: usize,
    /// CPUs available to this process when the probe ran (see
    /// [`detect_host_cpus`]).
    pub host_cpus: usize,
    /// Probe size (clients / rounds), for context in the artifact.
    pub clients: usize,
    /// Aggregation rounds simulated.
    pub rounds: u64,
    /// Wall clock of the sequential leg, seconds.
    pub baseline_secs: f64,
    /// Wall clock of the widest parallel leg, seconds.
    pub parallel_secs: f64,
    /// `baseline_secs / parallel_secs`.
    pub speedup: f64,
    /// Whether every parallel leg produced a `RunResult` structurally
    /// identical to the sequential one (the determinism guarantee,
    /// re-checked in the artifact itself — on all hosts, skipped or not).
    pub identical: bool,
    /// Speedup curve over the thread ladder (empty when timing was
    /// skipped).
    pub curve: Vec<ScalingPoint>,
    /// Why timing was skipped, if it was. On a single-CPU host the
    /// parallel leg can only measure pool overhead, so a "speedup" number
    /// would read as a regression while measuring nothing — the probe
    /// records the skip reason instead and only reports the byte-identity
    /// verdict.
    pub skipped: Option<&'static str>,
}

/// Parses the kernel's cpu-list format (`"0-3,5,7-8"`, as found in
/// `/sys/devices/system/cpu/online`) into a CPU count.
pub fn parse_cpu_list(list: &str) -> Option<usize> {
    let mut count = 0usize;
    for part in list.trim().split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if let Some((lo, hi)) = part.split_once('-') {
            let lo: usize = lo.trim().parse().ok()?;
            let hi: usize = hi.trim().parse().ok()?;
            if hi < lo {
                return None;
            }
            count += hi - lo + 1;
        } else {
            let _: usize = part.parse().ok()?;
            count += 1;
        }
    }
    if count == 0 {
        None
    } else {
        Some(count)
    }
}

/// Pure core of [`detect_host_cpus`], split out so the fallback ladder is
/// unit-testable without touching process-global state.
fn resolve_host_cpus(
    env_override: Option<&str>,
    available: usize,
    online_list: Option<&str>,
) -> usize {
    if let Some(v) = env_override {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    if available > 1 {
        return available;
    }
    // `available_parallelism` reports 1 under affinity masks and some
    // cgroup configurations even on multi-core hardware — the earlier
    // probe trusted it blindly and never timed anything. Fall back to the
    // kernel's online-CPU list before concluding the host is single-core.
    online_list
        .and_then(parse_cpu_list)
        .map_or(available.max(1), |n| n.max(available))
}

/// How many CPUs this process can actually use: the `ASYNCFL_HOST_CPUS`
/// override if set (escape hatch for machines where both probes lie),
/// else `available_parallelism`, else the kernel's online-CPU list.
pub fn detect_host_cpus() -> usize {
    resolve_host_cpus(
        std::env::var("ASYNCFL_HOST_CPUS").ok().as_deref(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        std::fs::read_to_string("/sys/devices/system/cpu/online")
            .ok()
            .as_deref(),
    )
}

fn probe_config(quick: bool, threads: usize) -> SimConfig {
    let mut cfg = SimConfig::smoke_test();
    cfg.num_clients = 32;
    cfg.num_malicious = 6;
    cfg.aggregation_bound = 16;
    cfg.rounds = if quick { 10 } else { 30 };
    // Training-heavy on purpose: the probe measures the worker pool, so
    // per-client local training (the parallel part) must dominate the
    // serial filter/aggregate/eval work or Amdahl hides the speedup.
    cfg.partition_size = Some(2_048);
    cfg.test_samples = 200;
    cfg.eval_every = cfg.rounds;
    cfg.threads = threads;
    cfg
}

fn probe_run(cfg: SimConfig) -> (f64, asyncfl_sim::metrics::RunResult) {
    let mut sim = Simulation::new(cfg.clone());
    let attack = build_attack(AttackKind::Gd, cfg.num_clients, cfg.num_malicious);
    let started = Stopwatch::start();
    let result = sim.run_with(
        Box::new(AsyncFilter::default()),
        attack,
        Box::new(MeanAggregator::new()),
    );
    (started.elapsed_secs(), result)
}

/// Shrunk config for the byte-identity re-check on hosts where timing is
/// skipped: determinism does not need the training-heavy workload the
/// timed legs use, so the check stays cheap even on one core.
fn identity_config(quick: bool, threads: usize) -> SimConfig {
    let mut cfg = probe_config(quick, threads);
    cfg.num_clients = 16;
    cfg.num_malicious = 3;
    cfg.aggregation_bound = 8;
    cfg.rounds = if quick { 4 } else { 8 };
    cfg.partition_size = Some(128);
    cfg.test_samples = 50;
    cfg.eval_every = cfg.rounds;
    cfg
}

/// Times the deterministic engine at `threads = 1` and at each point of a
/// doubling ladder up to `threads`, on the same seed, and verifies every
/// parallel leg matches the sequential result. On a single-CPU host the
/// timing legs are skipped (see [`ScalingProbe::skipped`]) but the
/// byte-identity re-check still runs, on a smaller workload.
pub fn run_scaling_probe(threads: usize, quick: bool) -> ScalingProbe {
    let threads = threads.max(2);
    let host_cpus = detect_host_cpus();
    if host_cpus == 1 {
        let (_, sequential) = probe_run(identity_config(quick, 1));
        let (_, parallel) = probe_run(identity_config(quick, threads));
        let cfg = identity_config(quick, 1);
        return ScalingProbe {
            threads,
            host_cpus,
            clients: cfg.num_clients,
            rounds: cfg.rounds,
            baseline_secs: 0.0,
            parallel_secs: 0.0,
            speedup: 0.0,
            identical: sequential == parallel,
            curve: Vec::new(),
            skipped: Some("single-cpu host"),
        };
    }
    let cfg = probe_config(quick, 1);
    let (baseline_secs, baseline) = probe_run(probe_config(quick, 1));
    // Doubling ladder 2, 4, 8, … capped at the requested width, which is
    // always the final point (so `speedup` keeps its old meaning).
    let mut ladder: Vec<usize> = Vec::new();
    let mut t = 2;
    while t < threads {
        ladder.push(t);
        t *= 2;
    }
    ladder.push(threads);
    let mut curve = Vec::with_capacity(ladder.len());
    for t in ladder {
        let (secs, result) = probe_run(probe_config(quick, t));
        curve.push(ScalingPoint {
            threads: t,
            secs,
            speedup: if secs > 0.0 {
                baseline_secs / secs
            } else {
                0.0
            },
            identical: result == baseline,
        });
    }
    let (parallel_secs, speedup) = curve.last().map_or((0.0, 0.0), |p| (p.secs, p.speedup));
    ScalingProbe {
        threads,
        host_cpus,
        clients: cfg.num_clients,
        rounds: cfg.rounds,
        baseline_secs,
        parallel_secs,
        speedup,
        identical: curve.iter().all(|p| p.identical),
        curve,
        skipped: None,
    }
}

/// Result of the local-training throughput probe (see
/// [`run_training_probe`]): one seeded [`LocalTrainer`] run on an
/// MNIST-profile client shard, timed single-threaded so the number
/// isolates the batched-kernel hot path from pool scheduling.
#[derive(Debug, Clone)]
pub struct TrainingProbe {
    /// Dataset profile the probe trains on.
    pub profile: &'static str,
    /// Samples in the probe shard.
    pub dataset_size: usize,
    /// Local epochs per timed `train` call.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Optimizer steps taken during the timed run.
    pub steps: usize,
    /// Training samples consumed (`epochs * dataset_size`).
    pub samples: usize,
    /// Wall clock of the timed run, seconds.
    pub wall_secs: f64,
    /// Throughput: `samples / wall_secs`.
    pub samples_per_sec: f64,
    /// Mean wall clock per optimizer step, nanoseconds.
    pub step_mean_ns: f64,
}

/// Times a single-threaded [`LocalTrainer`] run on the MNIST profile and
/// reports throughput. One untimed warm-up call pages in buffers and
/// lets allocator state settle; the second call is what's measured.
pub fn run_training_probe(quick: bool) -> TrainingProbe {
    let mut rng = StdRng::seed_from_u64(0x7121);
    let profile = DatasetProfile::Mnist;
    let task = profile.build_task(&mut rng);
    let dataset_size = if quick { 1_024 } else { 4_096 };
    let data = task.test_dataset(dataset_size, &mut rng);
    let trainer = LocalTrainer::from_profile(&profile);
    let mut model = build_model(&profile, &task, &mut rng);
    let mut optimizer = build_optimizer(&profile, model.num_params());
    trainer.train(model.as_mut(), &data, optimizer.as_mut(), &mut rng);
    let started = Stopwatch::start();
    let stats = trainer.train(model.as_mut(), &data, optimizer.as_mut(), &mut rng);
    let wall_secs = started.elapsed_secs();
    let samples = trainer.epochs() * data.len();
    TrainingProbe {
        profile: "mnist",
        dataset_size,
        epochs: trainer.epochs(),
        batch_size: trainer.batch_size(),
        steps: stats.steps,
        samples,
        wall_secs,
        samples_per_sec: if wall_secs > 0.0 {
            samples as f64 / wall_secs
        } else {
            0.0
        },
        step_mean_ns: if stats.steps > 0 {
            wall_secs * 1e9 / stats.steps as f64
        } else {
            0.0
        },
    }
}

/// One filter pass of the wide-model probe, as observed through the
/// telemetry `filter` span.
#[derive(Debug, Clone)]
pub struct FilterPassStat {
    /// Pass index (0-based, in aggregation order).
    pub pass: usize,
    /// Wall-clock nanoseconds inside the span.
    pub nanos: u64,
    /// Bytes allocated while the span was open.
    pub alloc_bytes: u64,
}

/// Result of the wide-model filter probe (see [`run_filter_wide_probe`]):
/// a buffered server driven with ≥10⁵-dimensional synthetic updates so the
/// filter's distance kernels — not the tiny repro models — dominate, with
/// per-pass span stats pulled from a dedicated memory sink.
#[derive(Debug, Clone)]
pub struct FilterWideProbe {
    /// Model dimensionality of the synthetic updates.
    pub dim: usize,
    /// Aggregation bound Ω (buffer size per pass).
    pub bound: usize,
    /// Filter passes executed.
    pub passes: usize,
    /// Updates fed to the server (at most `passes * bound`; deferred
    /// re-buffers fill part of the next pass's buffer, so fewer fresh
    /// arrivals are needed to trigger it).
    pub updates_fed: usize,
    /// Total eq. 6 distance computations, from the
    /// `filter_distances_computed` counter.
    pub distances_computed: u64,
    /// The `filter` span summary, renamed `filter_wide` so it lands in
    /// the artifact's `phases` table (and under the bench-diff gate)
    /// without colliding with the repro experiments' own `filter` row.
    pub phase: Option<PhaseRow>,
    /// Per-pass latency/allocation, in aggregation order.
    pub per_pass: Vec<FilterPassStat>,
}

/// Drives a [`BufferedServer`] + [`AsyncFilter`] with wide synthetic
/// updates (131 072 parameters) across staleness lags {0, 1, 2} and
/// reports per-pass filter cost plus the distance-computation total.
/// Deterministic: the fill comes from a fixed-seed [`StdRng`].
pub fn run_filter_wide_probe(quick: bool) -> FilterWideProbe {
    let dim = 131_072;
    let bound = 32;
    let passes = if quick { 6 } else { 24 };
    let mem = Arc::new(MemorySink::new(1 << 16));
    let mut server = BufferedServer::new(
        Vector::zeros(dim),
        bound,
        64,
        Box::new(AsyncFilter::default()),
        Box::new(MeanAggregator::new()),
    )
    .with_sink(SharedSink::from_arc(mem.clone()));
    let mut rng = StdRng::seed_from_u64(0xA5F1);
    let base = Vector::zeros(dim);
    let mut delta = vec![0.0f64; dim];
    let mut updates_fed = 0usize;
    let mut completed = 0usize;
    while completed < passes {
        // Three staleness lags keep several eq. 4 groups live, so the
        // probe exercises the grouped (not single-group) scoring path.
        let lag = (updates_fed % 3) as u64;
        let base_round = server.round().saturating_sub(lag);
        for v in &mut delta {
            *v = f64::sample(&mut rng) - 0.5;
        }
        let update = ClientUpdate::from_delta(
            updates_fed % 64,
            base_round,
            server.round().saturating_sub(base_round),
            &base,
            Vector::from(delta.clone()),
            10,
        );
        updates_fed += 1;
        if server.receive(update).is_some() {
            completed += 1;
        }
    }
    let events = mem.events();
    let registry = MetricsRegistry::new();
    for event in &events {
        registry.emit(event);
    }
    let phase = phase_rows(&registry)
        .into_iter()
        .find(|row| row.span == "filter")
        .map(|mut row| {
            row.span = "filter_wide".to_string();
            row
        });
    let per_pass: Vec<FilterPassStat> = events
        .iter()
        .filter_map(|event| match event {
            Event::SpanClosed {
                name: "filter",
                nanos,
                alloc_bytes,
                ..
            } => Some((*nanos, *alloc_bytes)),
            _ => None,
        })
        .enumerate()
        .map(|(pass, (nanos, alloc_bytes))| FilterPassStat {
            pass,
            nanos,
            alloc_bytes,
        })
        .collect();
    FilterWideProbe {
        dim,
        bound,
        passes,
        updates_fed,
        distances_computed: registry.counter("filter_distances_computed"),
        phase,
        per_pass,
    }
}

/// Result of the million-client scale probe (see [`run_scale_probe`]):
/// one deterministic multi-round run at `num_clients = 1_000_000`
/// exercising lazy client materialization (DESIGN.md §11). The memory
/// fields are the scale contract: resident client state must track the
/// shard cache and the in-flight set, not the population — a regression
/// back to eager per-client arrays adds ~1 KB × 10⁶ clients and blows
/// straight past the bench-diff allocation gate.
#[derive(Debug, Clone)]
pub struct ScaleProbe {
    /// Client population (1 000 000 in the shipped artifact).
    pub clients: usize,
    /// Aggregation rounds requested (trimmed in `--quick` mode).
    pub rounds: u64,
    /// Aggregation bound Ω.
    pub aggregation_bound: usize,
    /// Per-cycle participation probability (< 1 so the probe exercises
    /// the idle/reschedule path at scale, not just training).
    pub participation: f64,
    /// Spawner shard-cache capacity in effect for the run.
    pub shard_cache_capacity: usize,
    /// Rounds actually completed (must equal `rounds`; fewer means the
    /// event budget tripped).
    pub rounds_completed: u64,
    /// Client reports received across the run.
    pub updates_received: u64,
    /// Discrete events the engine's loop consumed (deterministic per
    /// seed).
    pub loop_events: u64,
    /// Wall clock, seconds.
    pub wall_secs: f64,
    /// Event throughput: `loop_events / wall_secs`.
    pub events_per_sec: f64,
    /// Final global-model test accuracy.
    pub final_accuracy: f64,
    /// Largest `resident_client_states` gauge sample observed — the
    /// spawner's shard-cache occupancy, bounded by
    /// `shard_cache_capacity` however many clients exist.
    pub resident_client_states_max: u64,
    /// Allocator live-byte high-water mark at probe end. Process-global
    /// and monotonic, so an upper bound for the probe itself; 0 when no
    /// counting allocator is installed (plain test binaries).
    pub alloc_peak_live_bytes: u64,
    /// Kernel peak resident set size in bytes, when readable.
    pub vm_hwm_bytes: Option<u64>,
}

/// The scale probe's configuration: a million tiny-shard clients, no
/// attackers (the probe measures the engine, not the filter), threads = 1
/// (the inline path is the documented scale path), and the auto-sized
/// shard cache. The allocator peak this produces is dominated by the
/// Ω-sized aggregation buffer (each buffered update carries a full model
/// delta) — legitimate server state that scales with Ω, not with the
/// population — so Ω is kept moderate to keep the probe's wall clock and
/// footprint CI-friendly.
fn scale_probe_config(quick: bool) -> SimConfig {
    let mut cfg = SimConfig::paper_default(DatasetProfile::Mnist);
    cfg.num_clients = 1_000_000;
    cfg.num_malicious = 0;
    cfg.aggregation_bound = if quick { 4_096 } else { 8_192 };
    cfg.rounds = if quick { 4 } else { 12 };
    // Tiny shards: per-client data volume is not what this probe measures,
    // and small shards keep the million-client kickoff derivation cheap.
    cfg.partition_size = Some(4);
    cfg.test_samples = 200;
    cfg.eval_every = cfg.rounds;
    cfg.participation = 0.5;
    cfg.threads = 1;
    cfg
}

/// Pure core of [`run_scale_probe`], parameterized on the population so
/// the unit test can exercise the exact probe path at a debug-build
/// friendly size.
fn run_scale_probe_sized(clients: usize, quick: bool) -> ScaleProbe {
    let mut cfg = scale_probe_config(quick);
    cfg.num_clients = clients;
    cfg.aggregation_bound = cfg.aggregation_bound.min(clients);
    let registry = Arc::new(MetricsRegistry::new());
    let sink = SharedSink::from_arc(Arc::clone(&registry) as Arc<dyn Sink>);
    let mut sim = Simulation::new(cfg.clone());
    let attack = build_attack(AttackKind::None, cfg.num_clients, cfg.num_malicious);
    let started = Stopwatch::start();
    let result = sim.run_with_sink(
        Box::new(PassthroughFilter),
        attack,
        Box::new(MeanAggregator::new()),
        Some(sink),
    );
    let wall_secs = started.elapsed_secs();
    let snap = asyncfl_telemetry::alloc::snapshot();
    ScaleProbe {
        clients: cfg.num_clients,
        rounds: cfg.rounds,
        aggregation_bound: cfg.aggregation_bound,
        participation: cfg.participation,
        shard_cache_capacity: cfg.effective_shard_cache_capacity(),
        rounds_completed: result.rounds_completed,
        updates_received: result.updates_received,
        loop_events: result.loop_events,
        wall_secs,
        events_per_sec: if wall_secs > 0.0 {
            result.loop_events as f64 / wall_secs
        } else {
            0.0
        },
        final_accuracy: result.final_accuracy,
        resident_client_states_max: registry
            .gauge("resident_client_states")
            .and_then(|h| h.max())
            .unwrap_or(0),
        alloc_peak_live_bytes: snap.peak_live_bytes,
        vm_hwm_bytes: std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| parse_vm_hwm(&s)),
    }
}

/// Runs the deterministic engine at `--clients 1_000_000` for a
/// multi-round horizon and reports throughput plus the peak-memory
/// contract (allocator high-water mark + kernel `VmHWM`). Before lazy
/// materialization this configuration exhausted memory building the
/// per-client `Vec`s; now it completes with resident client state bounded
/// by the shard cache, and the artifact records the proof.
pub fn run_scale_probe(quick: bool) -> ScaleProbe {
    run_scale_probe_sized(1_000_000, quick)
}

/// The full artifact a bench binary writes for `--bench-json`.
#[derive(Debug, Clone, Default)]
pub struct BenchJson {
    /// Which binary produced the file.
    pub binary: &'static str,
    /// Whether `--quick` mode was active.
    pub quick: bool,
    /// Worker threads the run was configured with.
    pub threads: usize,
    /// `(experiment name, wall-clock seconds)` per executed target.
    pub experiments: Vec<(String, f64)>,
    /// Total wall clock across all targets, seconds.
    pub total_secs: f64,
    /// Per-phase span breakdown from the telemetry registry.
    pub phases: Vec<PhaseRow>,
    /// Named monotonic counters from the registry.
    pub counters: Vec<(String, u64)>,
    /// Gauge sample summaries from the registry.
    pub gauges: Vec<GaugeRow>,
    /// Threads-scaling probe (repro only).
    pub scaling: Option<ScalingProbe>,
    /// Local-training throughput probe (repro only).
    pub training: Option<TrainingProbe>,
    /// Wide-model filter probe (repro only).
    pub filter_wide: Option<FilterWideProbe>,
    /// Million-client scale probe (repro only).
    pub scale_1m: Option<ScaleProbe>,
    /// Process peak-memory estimate, sampled at the end of the run.
    pub rss: Option<RssProbe>,
}

/// Formats an `f64` as a JSON number (finite values only; anything else
/// degrades to `0` rather than emitting invalid JSON).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0".to_string()
    }
}

/// Escapes a string for a JSON literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

impl BenchJson {
    /// Renders the artifact as pretty-printed JSON.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"asyncfl-bench-v2\",\n");
        s.push_str(&format!("  \"binary\": \"{}\",\n", escape(self.binary)));
        s.push_str(&format!("  \"quick\": {},\n", self.quick));
        s.push_str(&format!("  \"threads\": {},\n", self.threads));
        s.push_str(&format!("  \"total_secs\": {},\n", num(self.total_secs)));
        s.push_str("  \"experiments\": [\n");
        for (i, (name, secs)) in self.experiments.iter().enumerate() {
            let comma = if i + 1 < self.experiments.len() {
                ","
            } else {
                ""
            };
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"wall_clock_secs\": {}}}{comma}\n",
                escape(name),
                num(*secs)
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"phases\": [\n");
        for (i, p) in self.phases.iter().enumerate() {
            let comma = if i + 1 < self.phases.len() { "," } else { "" };
            s.push_str(&format!(
                "    {{\"span\": \"{}\", \"count\": {}, \"total_secs\": {}, \
                 \"mean_ns\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \
                 \"alloc_bytes_total\": {}, \"alloc_bytes_mean\": {}, \
                 \"alloc_bytes_p99\": {}, \"peak_live_bytes\": {}}}{comma}\n",
                escape(&p.span),
                p.count,
                num(p.total_secs),
                num(p.mean_ns),
                p.p50_ns,
                p.p95_ns,
                p.p99_ns,
                p.alloc_bytes_total,
                num(p.alloc_bytes_mean),
                p.alloc_bytes_p99,
                p.peak_live_bytes
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"counters\": [\n");
        for (i, (name, n)) in self.counters.iter().enumerate() {
            let comma = if i + 1 < self.counters.len() { "," } else { "" };
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"value\": {n}}}{comma}\n",
                escape(name)
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"gauges\": [\n");
        for (i, g) in self.gauges.iter().enumerate() {
            let comma = if i + 1 < self.gauges.len() { "," } else { "" };
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"count\": {}, \"last\": {}, \
                 \"mean\": {}, \"max\": {}}}{comma}\n",
                escape(&g.name),
                g.count,
                g.last,
                num(g.mean),
                g.max
            ));
        }
        s.push_str("  ],\n");
        match &self.rss {
            None => s.push_str("  \"peak_rss_estimate\": null,\n"),
            Some(r) => {
                s.push_str("  \"peak_rss_estimate\": {\n");
                s.push_str(&format!(
                    "    \"alloc_peak_live_bytes\": {},\n",
                    r.alloc_peak_live_bytes
                ));
                s.push_str(&format!(
                    "    \"alloc_total_bytes\": {},\n",
                    r.alloc_total_bytes
                ));
                s.push_str(&format!("    \"alloc_count\": {},\n", r.alloc_count));
                match r.vm_hwm_bytes {
                    None => s.push_str("    \"vm_hwm_bytes\": null\n"),
                    Some(b) => s.push_str(&format!("    \"vm_hwm_bytes\": {b}\n")),
                }
                s.push_str("  },\n");
            }
        }
        match &self.scale_1m {
            None => s.push_str("  \"scale_1m\": null,\n"),
            Some(p) => {
                s.push_str("  \"scale_1m\": {\n");
                s.push_str(&format!("    \"clients\": {},\n", p.clients));
                s.push_str(&format!("    \"rounds\": {},\n", p.rounds));
                s.push_str(&format!(
                    "    \"aggregation_bound\": {},\n",
                    p.aggregation_bound
                ));
                s.push_str(&format!(
                    "    \"participation\": {},\n",
                    num(p.participation)
                ));
                s.push_str(&format!(
                    "    \"shard_cache_capacity\": {},\n",
                    p.shard_cache_capacity
                ));
                s.push_str(&format!(
                    "    \"rounds_completed\": {},\n",
                    p.rounds_completed
                ));
                s.push_str(&format!(
                    "    \"updates_received\": {},\n",
                    p.updates_received
                ));
                s.push_str(&format!("    \"loop_events\": {},\n", p.loop_events));
                s.push_str(&format!("    \"wall_secs\": {},\n", num(p.wall_secs)));
                s.push_str(&format!(
                    "    \"events_per_sec\": {},\n",
                    num(p.events_per_sec)
                ));
                s.push_str(&format!(
                    "    \"final_accuracy\": {},\n",
                    num(p.final_accuracy)
                ));
                s.push_str(&format!(
                    "    \"resident_client_states_max\": {},\n",
                    p.resident_client_states_max
                ));
                s.push_str(&format!(
                    "    \"alloc_peak_live_bytes\": {},\n",
                    p.alloc_peak_live_bytes
                ));
                match p.vm_hwm_bytes {
                    None => s.push_str("    \"vm_hwm_bytes\": null\n"),
                    Some(b) => s.push_str(&format!("    \"vm_hwm_bytes\": {b}\n")),
                }
                s.push_str("  },\n");
            }
        }
        match &self.scaling {
            None => s.push_str("  \"threads_scaling\": null,\n"),
            Some(probe) => {
                s.push_str("  \"threads_scaling\": {\n");
                s.push_str(&format!("    \"threads\": {},\n", probe.threads));
                s.push_str(&format!("    \"host_cpus\": {},\n", probe.host_cpus));
                s.push_str(&format!("    \"clients\": {},\n", probe.clients));
                s.push_str(&format!("    \"rounds\": {},\n", probe.rounds));
                match probe.skipped {
                    Some(reason) => {
                        // No timing numbers on a skipped probe: a speedup
                        // measured on a single CPU is noise, not data. The
                        // byte-identity re-check ran anyway, so its verdict
                        // is always reported.
                        s.push_str(&format!("    \"skipped\": \"{}\",\n", escape(reason)));
                        s.push_str(&format!("    \"byte_identical\": {}\n", probe.identical));
                    }
                    None => {
                        s.push_str(&format!(
                            "    \"baseline_secs\": {},\n",
                            num(probe.baseline_secs)
                        ));
                        s.push_str(&format!(
                            "    \"parallel_secs\": {},\n",
                            num(probe.parallel_secs)
                        ));
                        s.push_str(&format!("    \"speedup\": {},\n", num(probe.speedup)));
                        s.push_str("    \"curve\": [\n");
                        for (i, p) in probe.curve.iter().enumerate() {
                            let comma = if i + 1 < probe.curve.len() { "," } else { "" };
                            s.push_str(&format!(
                                "      {{\"threads\": {}, \"secs\": {}, \"speedup\": {}, \
                                 \"identical\": {}}}{comma}\n",
                                p.threads,
                                num(p.secs),
                                num(p.speedup),
                                p.identical
                            ));
                        }
                        s.push_str("    ],\n");
                        s.push_str(&format!("    \"byte_identical\": {}\n", probe.identical));
                    }
                }
                s.push_str("  },\n");
            }
        }
        match &self.training {
            None => s.push_str("  \"training_throughput\": null,\n"),
            Some(t) => {
                s.push_str("  \"training_throughput\": {\n");
                s.push_str(&format!("    \"profile\": \"{}\",\n", escape(t.profile)));
                s.push_str(&format!("    \"dataset_size\": {},\n", t.dataset_size));
                s.push_str(&format!("    \"epochs\": {},\n", t.epochs));
                s.push_str(&format!("    \"batch_size\": {},\n", t.batch_size));
                s.push_str(&format!("    \"steps\": {},\n", t.steps));
                s.push_str(&format!("    \"samples\": {},\n", t.samples));
                s.push_str(&format!("    \"wall_secs\": {},\n", num(t.wall_secs)));
                s.push_str(&format!(
                    "    \"samples_per_sec\": {},\n",
                    num(t.samples_per_sec)
                ));
                s.push_str(&format!("    \"step_mean_ns\": {}\n", num(t.step_mean_ns)));
                s.push_str("  },\n");
            }
        }
        match &self.filter_wide {
            None => s.push_str("  \"filter_wide_probe\": null\n"),
            Some(w) => {
                s.push_str("  \"filter_wide_probe\": {\n");
                s.push_str(&format!("    \"dim\": {},\n", w.dim));
                s.push_str(&format!("    \"bound\": {},\n", w.bound));
                s.push_str(&format!("    \"passes\": {},\n", w.passes));
                s.push_str(&format!("    \"updates_fed\": {},\n", w.updates_fed));
                s.push_str(&format!(
                    "    \"distances_computed\": {},\n",
                    w.distances_computed
                ));
                s.push_str("    \"per_pass\": [\n");
                for (i, p) in w.per_pass.iter().enumerate() {
                    let comma = if i + 1 < w.per_pass.len() { "," } else { "" };
                    s.push_str(&format!(
                        "      {{\"pass\": {}, \"nanos\": {}, \"alloc_bytes\": {}}}{comma}\n",
                        p.pass, p.nanos, p.alloc_bytes
                    ));
                }
                s.push_str("    ]\n");
                s.push_str("  }\n");
            }
        }
        s.push('}');
        s.push('\n');
        s
    }

    /// Writes the rendered artifact to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_produces_balanced_json() {
        let json = BenchJson {
            binary: "repro",
            quick: true,
            threads: 2,
            experiments: vec![("table2".into(), 1.25), ("fig7".into(), 0.5)],
            total_secs: 1.75,
            phases: vec![PhaseRow {
                span: "local_training".into(),
                count: 10,
                total_secs: 0.9,
                mean_ns: 9e7,
                p50_ns: 9_000_000,
                p95_ns: 12_000_000,
                p99_ns: 13_000_000,
                alloc_bytes_total: 1_048_576,
                alloc_bytes_mean: 104_857.6,
                alloc_bytes_p99: 131_072,
                peak_live_bytes: 4_194_304,
            }],
            counters: vec![("deferred_requeued".into(), 7)],
            gauges: vec![GaugeRow {
                name: "buffer_occupancy".into(),
                count: 10,
                last: 16,
                mean: 15.2,
                max: 16,
            }],
            scaling: Some(ScalingProbe {
                threads: 4,
                host_cpus: 8,
                clients: 32,
                rounds: 10,
                baseline_secs: 2.0,
                parallel_secs: 0.8,
                speedup: 2.5,
                identical: true,
                curve: vec![
                    ScalingPoint {
                        threads: 2,
                        secs: 1.25,
                        speedup: 1.6,
                        identical: true,
                    },
                    ScalingPoint {
                        threads: 4,
                        secs: 0.8,
                        speedup: 2.5,
                        identical: true,
                    },
                ],
                skipped: None,
            }),
            rss: Some(RssProbe {
                alloc_peak_live_bytes: 8_388_608,
                alloc_total_bytes: 67_108_864,
                alloc_count: 120_000,
                vm_hwm_bytes: Some(25_165_824),
            }),
            training: Some(TrainingProbe {
                profile: "mnist",
                dataset_size: 4096,
                epochs: 3,
                batch_size: 32,
                steps: 384,
                samples: 12288,
                wall_secs: 0.25,
                samples_per_sec: 49152.0,
                step_mean_ns: 651041.7,
            }),
            filter_wide: Some(FilterWideProbe {
                dim: 131_072,
                bound: 32,
                passes: 2,
                updates_fed: 70,
                distances_computed: 140,
                phase: None,
                per_pass: vec![
                    FilterPassStat {
                        pass: 0,
                        nanos: 5_000_000,
                        alloc_bytes: 4096,
                    },
                    FilterPassStat {
                        pass: 1,
                        nanos: 4_000_000,
                        alloc_bytes: 0,
                    },
                ],
            }),
            scale_1m: Some(ScaleProbe {
                clients: 1_000_000,
                rounds: 30,
                aggregation_bound: 16_384,
                participation: 0.5,
                shard_cache_capacity: 4096,
                rounds_completed: 30,
                updates_received: 491_520,
                loop_events: 1_966_080,
                wall_secs: 12.5,
                events_per_sec: 157_286.4,
                final_accuracy: 0.83,
                resident_client_states_max: 4096,
                alloc_peak_live_bytes: 268_435_456,
                vm_hwm_bytes: Some(402_653_184),
            }),
        }
        .render();
        // Structural sanity without a JSON parser: balanced braces/brackets
        // and the key fields present.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for needle in [
            "\"schema\": \"asyncfl-bench-v2\"",
            "\"binary\": \"repro\"",
            "\"speedup\": 2.500000",
            "\"byte_identical\": true",
            "\"span\": \"local_training\"",
            "\"alloc_bytes_total\": 1048576",
            "\"peak_live_bytes\": 4194304",
            "\"name\": \"deferred_requeued\", \"value\": 7",
            "\"name\": \"buffer_occupancy\"",
            "\"alloc_peak_live_bytes\": 8388608",
            "\"vm_hwm_bytes\": 25165824",
            "\"training_throughput\": {",
            "\"samples_per_sec\": 49152.000000",
            "\"steps\": 384",
            "\"curve\": [",
            "{\"threads\": 2, \"secs\": 1.250000, \"speedup\": 1.600000, \"identical\": true}",
            "\"filter_wide_probe\": {",
            "\"distances_computed\": 140",
            "{\"pass\": 1, \"nanos\": 4000000, \"alloc_bytes\": 0}",
            "\"scale_1m\": {",
            "\"clients\": 1000000",
            "\"shard_cache_capacity\": 4096",
            "\"resident_client_states_max\": 4096",
            "\"loop_events\": 1966080",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn skipped_scaling_probe_renders_reason_not_speedup() {
        let json = BenchJson {
            binary: "repro",
            scaling: Some(ScalingProbe {
                threads: 2,
                host_cpus: 1,
                clients: 16,
                rounds: 4,
                baseline_secs: 0.0,
                parallel_secs: 0.0,
                speedup: 0.0,
                identical: true,
                curve: Vec::new(),
                skipped: Some("single-cpu host"),
            }),
            ..Default::default()
        }
        .render();
        assert!(json.contains("\"skipped\": \"single-cpu host\""), "{json}");
        assert!(
            !json.contains("\"speedup\""),
            "skipped probe must not report a speedup: {json}"
        );
        // The identity re-check runs even when timing is skipped, so its
        // verdict is always present.
        assert!(json.contains("\"byte_identical\": true"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn scaling_probe_checks_identity_even_without_timing() {
        // On a single-CPU host the probe must refuse to time but still
        // re-check determinism; on a multi-CPU host it times a ladder and
        // every point must reproduce the sequential result.
        let probe = run_scaling_probe(2, true);
        assert!(probe.identical, "threads=1 vs N diverged");
        if probe.host_cpus == 1 {
            assert_eq!(probe.skipped, Some("single-cpu host"));
            assert_eq!(probe.baseline_secs, 0.0);
            assert!(probe.curve.is_empty());
        } else {
            assert!(probe.skipped.is_none());
            assert!(probe.baseline_secs > 0.0);
            assert!(!probe.curve.is_empty());
            assert_eq!(probe.curve.last().map(|p| p.threads), Some(2));
        }
    }

    #[test]
    fn cpu_list_parser_handles_kernel_format() {
        assert_eq!(parse_cpu_list("0-3\n"), Some(4));
        assert_eq!(parse_cpu_list("0"), Some(1));
        assert_eq!(parse_cpu_list("0-3,5,7-8"), Some(7));
        assert_eq!(parse_cpu_list(""), None);
        assert_eq!(parse_cpu_list("3-1"), None);
        assert_eq!(parse_cpu_list("garbage"), None);
    }

    #[test]
    fn host_cpu_resolution_prefers_override_then_sysfs_fallback() {
        // Explicit override wins.
        assert_eq!(resolve_host_cpus(Some("6"), 1, Some("0-7")), 6);
        // Garbage override falls through.
        assert_eq!(resolve_host_cpus(Some("zero"), 4, None), 4);
        // available_parallelism > 1 is trusted.
        assert_eq!(resolve_host_cpus(None, 8, Some("0-1")), 8);
        // available_parallelism == 1 consults the kernel's online list —
        // the bug the old probe had: it reported "single-cpu host" on
        // multi-core machines whenever affinity masked the process.
        assert_eq!(resolve_host_cpus(None, 1, Some("0-3")), 4);
        // No list at all: fall back to what we have.
        assert_eq!(resolve_host_cpus(None, 1, None), 1);
    }

    #[test]
    fn vm_hwm_parser_handles_kernel_format() {
        let status = "Name:\trepro\nVmPeak:\t  123456 kB\nVmHWM:\t   20480 kB\nThreads:\t1\n";
        assert_eq!(parse_vm_hwm(status), Some(20480 * 1024));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tgarbage kB\n"), None);
    }

    #[test]
    fn rss_probe_is_readable_on_linux() {
        let probe = run_rss_probe();
        // The bench *test* binary does not install the counting allocator,
        // so the allocator side may be zero — but /proc must parse.
        if cfg!(target_os = "linux") {
            let hwm = probe.vm_hwm_bytes.expect("VmHWM readable on Linux");
            assert!(hwm > 0);
        }
    }

    #[test]
    fn absent_probes_render_as_null() {
        let json = BenchJson {
            binary: "detection",
            ..Default::default()
        }
        .render();
        assert!(json.contains("\"threads_scaling\": null"), "{json}");
        assert!(json.contains("\"training_throughput\": null"), "{json}");
        assert!(json.contains("\"filter_wide_probe\": null"), "{json}");
        assert!(json.contains("\"peak_rss_estimate\": null"), "{json}");
        assert!(json.contains("\"scale_1m\": null"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn filter_wide_probe_reports_per_pass_stats() {
        let probe = run_filter_wide_probe(true);
        assert!(probe.dim >= 100_000, "wide profile must be ≥1e5-dim");
        assert_eq!(probe.per_pass.len(), probe.passes);
        assert!(probe.updates_fed >= probe.bound);
        assert!(probe.updates_fed <= probe.passes * probe.bound);
        assert!(probe.distances_computed > 0);
        let row = probe.phase.expect("filter span observed");
        assert_eq!(row.span, "filter_wide");
        assert_eq!(row.count, probe.passes as u64);
        assert!(probe.per_pass.iter().all(|p| p.nanos > 0));
    }

    #[test]
    fn scale_probe_keeps_resident_state_at_the_cache_bound() {
        // The exact probe path at a debug-build friendly population; the
        // shipped artifact runs the same code at one million clients.
        let probe = run_scale_probe_sized(2_048, true);
        assert_eq!(probe.clients, 2_048);
        assert_eq!(probe.rounds_completed, probe.rounds);
        assert!(probe.loop_events > 0);
        assert!(probe.events_per_sec > 0.0);
        assert!(probe.updates_received >= probe.rounds * probe.aggregation_bound as u64);
        // The scale contract the artifact exists to pin: resident client
        // state is the shard cache, not the population.
        assert!(probe.resident_client_states_max > 0);
        assert!(probe.resident_client_states_max <= probe.shard_cache_capacity as u64);
        if cfg!(target_os = "linux") {
            assert!(probe.vm_hwm_bytes.is_some());
        }
    }

    #[test]
    fn training_probe_reports_consistent_counts() {
        let probe = run_training_probe(true);
        assert_eq!(probe.samples, probe.epochs * probe.dataset_size);
        assert_eq!(
            probe.steps,
            probe.epochs * probe.dataset_size.div_ceil(probe.batch_size)
        );
        assert!(probe.samples_per_sec > 0.0);
        assert!(probe.step_mean_ns > 0.0);
    }

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn non_finite_numbers_never_reach_the_artifact() {
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(f64::INFINITY), "0");
        assert_eq!(num(1.5), "1.500000");
    }
}
