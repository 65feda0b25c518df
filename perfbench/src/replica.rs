//! A traced, single-threaded copy of `Simulation::run_with`, built only
//! from the crates' public API.
//!
//! It replays the engine's master-seed draws to rebuild the test set, the
//! template model and the attacker set, then drives the same event loop
//! with a span around every call into a layer. Events are ordered by a
//! `BinaryHeap` on `(time.total_cmp, seq)`, the order DESIGN.md §12 pins
//! the engine's scheduler to, so the replica's `RunResult` must equal the
//! engine's for the same configuration.

use crate::trace::{span, Layer, SharedReport, TimedAggregator, TimedFilter};
use asyncfl_attacks::Attack;
use asyncfl_core::aggregation::Aggregator;
use asyncfl_core::update::ClientUpdate;
use asyncfl_core::AsyncFilter;
use asyncfl_data::Dataset;
use asyncfl_ml::train::{build_model, build_optimizer, evaluate, LocalTrainer};
use asyncfl_rng::rngs::StdRng;
use asyncfl_rng::{RngExt, SeedableRng};
use asyncfl_sim::latency::LatencyModel;
use asyncfl_sim::{BufferedServer, ClientSpawner, ClientState, RunResult, SimConfig};
use asyncfl_telemetry::alloc;
use asyncfl_tensor::Vector;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// One client's pending cycle on the replica's event heap.
struct Job {
    at: f64,
    seq: u64,
    client: usize,
    base_round: u64,
    base: Arc<Vector>,
    idle: bool,
    state: ClientState,
}

impl PartialEq for Job {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Job {}

impl PartialOrd for Job {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Job {
    /// Reversed so the max-heap pops the earliest `(time, seq)` first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .total_cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Counts the replica gathers at layer boundaries.
#[derive(Debug, Clone, Default)]
pub struct ReplicaCounts {
    /// Traced wall time of the run phase, seconds.
    pub wall_s: f64,
    /// `dataset` calls served from the shard cache (no shard allocated).
    pub dataset_hits: u64,
    /// Largest `resident_states()` sampled once per aggregation.
    pub resident_max: u64,
    /// Samples passed through `LocalTrainer::train` (shard length × epochs).
    pub train_samples: u64,
    /// Bytes allocated inside `LocalTrainer::train`.
    pub train_alloc_bytes: u64,
    /// Deltas `craft_all` returned, over all calls.
    pub crafted: u64,
    /// Largest number of events resident on the heap.
    pub max_depth: u64,
    /// Whether every coordinate of the final global model is finite.
    pub global_finite: bool,
}

/// The engine's runaway-loop backstop, copied so the replica stops at the
/// same event if it ever trips.
fn event_budget(cfg: &SimConfig) -> u64 {
    let per_round = (cfg.aggregation_bound as u64).saturating_mul(64).max(4096);
    cfg.rounds
        .saturating_add(2)
        .saturating_mul(per_round)
        .saturating_add((cfg.num_clients as u64).saturating_mul(4))
        .min(1 << 33)
}

fn push(heap: &mut BinaryHeap<Job>, job: Job, max_depth: &mut u64) {
    span(Layer::Schedule, || heap.push(job));
    *max_depth = (*max_depth).max(heap.len() as u64);
}

/// Draws the next cycle's duration and participation, as the engine does.
fn next_cycle(
    cfg: &SimConfig,
    latency: &LatencyModel,
    state: &mut ClientState,
    client: usize,
) -> (f64, bool) {
    let factor = state.factor;
    let rng = state
        .rng_mut(client)
        .expect("replica never ships a stream away");
    let dur = latency.cycle_duration(factor, rng);
    let idle = cfg.participation < 1.0 && rng.random::<f64>() >= cfg.participation;
    (dur, idle)
}

/// Runs the traced replica. Tracing must be enabled by the caller; the
/// returned filter report holds the wrapper's counts and pass scores.
pub fn run(
    cfg: &SimConfig,
    filter: AsyncFilter,
    attack: &dyn Attack,
    aggregator: Box<dyn Aggregator>,
) -> (RunResult, ReplicaCounts, SharedReport) {
    assert_eq!(
        cfg.server_root_samples, 0,
        "the replica has no trusted-root path"
    );
    assert_eq!(cfg.dropout, 0.0, "the replica has no dropout path");

    // Replay the engine's construction draws on the master stream.
    let mut master = StdRng::seed_from_u64(cfg.seed);
    let task = Arc::new(cfg.profile.build_task(&mut master));
    let test_data: Dataset = task.test_dataset(cfg.test_samples, &mut master);
    let latency = LatencyModel::zipf(cfg.zipf_s, cfg.zipf_levels);
    let template = build_model(&cfg.profile, &task, &mut master);
    let malicious =
        asyncfl_data::sampling::select_prefix(&mut master, cfg.num_clients, cfg.num_malicious);
    let spawner = ClientSpawner::new(
        cfg.seed,
        cfg.num_clients,
        cfg.partitioner.clone(),
        cfg.effective_partition_size(),
        cfg.partition_jitter,
        latency.clone(),
        Arc::clone(&task),
        malicious,
        cfg.effective_shard_cache_capacity(),
    );
    let trainer = LocalTrainer::from_profile(&cfg.profile);

    let (filter, report) = TimedFilter::new(filter);
    let mut counts = ReplicaCounts::default();
    let started = Instant::now();

    let mut server = BufferedServer::new(
        template.params(),
        cfg.aggregation_bound,
        cfg.staleness_limit,
        Box::new(filter),
        Box::new(TimedAggregator(aggregator)),
    );
    let mut attack_rng = StdRng::seed_from_u64(cfg.seed ^ 0xA77A_C4E2_57A1_F00D);
    let mut eval_model = template.clone_box();

    let mut heap = BinaryHeap::new();
    let mut seq = 0u64;
    let init_base = Arc::new(server.global().clone());
    for client in 0..cfg.num_clients {
        let mut state = span(Layer::Spawn, || spawner.spawn(client));
        let factor = state.factor;
        let rng = state.rng_mut(client).expect("fresh state holds its stream");
        let at = latency.cycle_duration(factor, rng);
        let job = Job {
            at,
            seq,
            client,
            base_round: 0,
            base: Arc::clone(&init_base),
            idle: false,
            state,
        };
        push(&mut heap, job, &mut counts.max_depth);
        seq += 1;
    }

    let mut collusion: VecDeque<Vector> = VecDeque::new();
    let mut accuracy_history = Vec::new();
    let mut round_reports = Vec::new();
    let mut now = 0.0f64;
    let max_events = event_budget(cfg);
    let mut events = 0u64;

    while let Some(mut job) = span(Layer::Schedule, || heap.pop()) {
        events += 1;
        if events > max_events {
            break;
        }
        now = job.at;
        let client = job.client;

        if !job.idle {
            let honest = {
                let (mut model, mut optimizer) = span(Layer::TrainPrep, || {
                    let mut model = template.clone_box();
                    model.set_params(&job.base);
                    let optimizer = build_optimizer(&cfg.profile, model.num_params());
                    (model, optimizer)
                });
                let data = span(Layer::Dataset, || {
                    let before = alloc::allocated_bytes();
                    let data = spawner.dataset(client);
                    let shard_bytes = (data.len() * data.feature_dim() * 8) as u64;
                    if alloc::allocated_bytes() - before < shard_bytes.max(1) {
                        counts.dataset_hits += 1;
                    }
                    data
                });
                let rng = job
                    .state
                    .rng_mut(client)
                    .expect("replica never ships a stream away");
                let before = alloc::allocated_bytes();
                span(Layer::Train, || {
                    trainer.train(model.as_mut(), &data, optimizer.as_mut(), rng)
                });
                counts.train_alloc_bytes += alloc::allocated_bytes() - before;
                counts.train_samples += (data.len() * trainer.epochs()) as u64;
                span(Layer::TrainPrep, || model.params_ref() - &job.base)
            };

            let delta = if job.state.malicious {
                collusion.push_back(honest.clone());
                while collusion.len() > cfg.num_malicious.max(1) {
                    collusion.pop_front();
                }
                let known: Vec<Vector> = collusion.iter().cloned().collect();
                let crafted = span(Layer::Attack, || attack.craft_all(&known, &mut attack_rng));
                counts.crafted += crafted.len() as u64;
                crafted.last().cloned().unwrap_or(honest)
            } else {
                honest
            };

            let update = span(Layer::FromDelta, || {
                ClientUpdate::from_delta(
                    client,
                    job.base_round,
                    0,
                    &job.base,
                    delta,
                    job.state.size,
                )
                .with_truth_malicious(job.state.malicious)
            });
            if let Some(report) = span(Layer::Receive, || server.receive(update)) {
                round_reports.push(report);
                counts.resident_max = counts.resident_max.max(spawner.resident_states() as u64);
                let completed = report.round_completed + 1;
                if completed % cfg.eval_every == 0 {
                    eval_model.set_params(server.global());
                    let accuracy = span(Layer::Eval, || evaluate(eval_model.as_ref(), &test_data));
                    accuracy_history.push((completed, accuracy));
                }
                if completed >= cfg.rounds {
                    break;
                }
            }
        }

        // Wake an idle client, or start a submitter's next cycle, from the
        // current global model.
        let (dur, idle) = next_cycle(cfg, &latency, &mut job.state, client);
        let next = Job {
            at: now + dur,
            seq,
            client,
            base_round: server.round(),
            base: Arc::new(server.global().clone()),
            idle,
            state: job.state,
        };
        push(&mut heap, next, &mut counts.max_depth);
        seq += 1;
    }

    eval_model.set_params(server.global());
    let final_accuracy = span(Layer::Eval, || evaluate(eval_model.as_ref(), &test_data));
    counts.wall_s = started.elapsed().as_secs_f64();
    counts.global_finite = server.global().is_finite();
    let result = RunResult {
        final_accuracy,
        accuracy_history,
        detection: server.detection(),
        rounds_completed: server.round(),
        updates_received: server.received(),
        updates_discarded_stale: server.discarded_stale(),
        staleness_histogram: server.staleness_histogram().clone(),
        round_reports,
        sim_time: now,
        loop_events: events,
    };
    (result, counts, report)
}
