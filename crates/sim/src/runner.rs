//! The deterministic discrete-event AFL simulation.
//!
//! One [`Simulation`] owns the task, the client population (data partitions,
//! latency factors, RNG streams, attacker assignment) and drives a
//! [`BufferedServer`] through a virtual-clock event loop:
//!
//! 1. every client trains continuously: snapshot the global model, train
//!    for `E` local epochs, submit, repeat (the asynchronous workflow of
//!    Fig. 2);
//! 2. completion times follow the Zipf latency model, so fast clients
//!    submit often and stragglers return stale updates;
//! 3. malicious clients compute their *honest* update first, then replace
//!    it with the configured attack's crafted delta (threat model §3.1:
//!    attackers know their own data and updates, not benign ones);
//! 4. when the buffer reaches Ω the server filters + aggregates, and every
//!    submitting client restarts from the newest global model.
//!
//! Runs are bit-reproducible for a fixed [`SimConfig::seed`] — including
//! multi-threaded runs. With [`SimConfig::threads`] > 1 the engine
//! exploits *dispatch-time determinism*: an honest local-training result
//! is fully determined when the job is dispatched (the global-model
//! snapshot plus the client's own RNG stream), so jobs are shipped
//! eagerly to a [`crate::pool`] worker pool and their results collected
//! by sequence number in the exact order the event queue pops them.
//! Everything stateful and order-sensitive — attack crafting against the
//! shared collusion pool, the server's filter/aggregate pipeline,
//! participation and dropout draws — stays on the event-loop thread.
//!
//! The client population is **materialized lazily**: a
//! [`crate::spawner::ClientSpawner`] derives a client's full state (RNG
//! stream, dataset shard, latency factor, attacker flag) on demand as a
//! pure function of `seed + client id`, so resident memory is bounded by
//! the in-flight set plus a fixed shard cache, not by `num_clients`
//! (see DESIGN.md §11). A million-client run therefore fits in the same
//! footprint as a hundred-client one, modulo the event queue itself: one
//! entry per client, ordered by `(time, seq)` in a `BinaryHeap`
//! (DESIGN.md §12).

use asyncfl_attacks::{Attack, AttackKind, GradientDeviationAttack};
use asyncfl_core::aggregation::{Aggregator, MeanAggregator};
use asyncfl_core::update::{ClientUpdate, UpdateFilter};
use asyncfl_data::synthetic::Task;
use asyncfl_data::Dataset;
use asyncfl_ml::train::{build_model, build_optimizer, evaluate, LocalTrainer};
use asyncfl_ml::Model;
use asyncfl_rng::rngs::StdRng;
use asyncfl_rng::SeedableRng;
use asyncfl_telemetry::{Event, SharedSink, Sink, Span};
use asyncfl_tensor::Vector;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use crate::config::SimConfig;
use crate::latency::LatencyModel;
use crate::metrics::RunResult;
use crate::pool::{with_worker_pool, PoolHandle};
use crate::schedule::{EventKey, HeapEntry};
use crate::server::BufferedServer;
use crate::spawner::{ClientSpawner, ClientState};

/// An in-flight local training job, ordered by `(completes_at, seq)` in
/// the event heap. The global-model snapshot is shared via `Arc` so an
/// in-flight client costs one reference count instead of a full
/// parameter-vector clone.
struct InFlight {
    completes_at: f64,
    seq: u64,
    client: usize,
    base_round: u64,
    base_params: Arc<Vector>,
    /// A non-participating cycle (the client was not sampled): no training,
    /// no submission — just time passing.
    idle: bool,
    /// The client's lazily materialized state (live RNG, latency factor,
    /// weight, attacker flag). Each client has exactly one heap entry at
    /// all times, so this is the state's single resident home.
    state: ClientState,
}

impl EventKey for InFlight {
    fn time(&self) -> f64 {
        self.completes_at
    }
    fn seq(&self) -> u64 {
        self.seq
    }
}

/// One local-training job shipped to the worker pool at dispatch time.
/// Carries everything that determines the result: the model snapshot and
/// the client's RNG stream, which the event loop surrenders until the
/// job's completion is popped (a deterministic placeholder takes its slot
/// and is never drawn from).
struct TrainTask {
    seq: u64,
    client: usize,
    base: Arc<Vector>,
    rng: StdRng,
}

/// A finished honest update plus the client's advanced RNG stream
/// (matched back to its client via the pool's sequence-number key).
struct TrainOutput {
    delta: Vector,
    rng: StdRng,
}

/// Samples whether a client participates in its next cycle.
fn participates(cfg: &SimConfig, rng: &mut StdRng) -> bool {
    if cfg.participation >= 1.0 {
        return true;
    }
    use asyncfl_rng::RngExt;
    rng.random::<f64>() < cfg.participation
}

/// In pool mode, eagerly ships a just-scheduled training job to the
/// workers, checking the client's RNG stream out of its in-flight state.
/// The stream slot stays empty until the result is collected, so a second
/// dispatch before return surfaces as an [`crate::spawner::RngCheckedOut`]
/// error instead of silently training on a placeholder stream (the bug the
/// old `mem::replace(..., seed_from_u64(0))` checkout allowed). No-op in
/// inline mode.
fn dispatch(
    pool: &mut Option<&mut PoolHandle<TrainTask, TrainOutput>>,
    seq: u64,
    client: usize,
    base: &Arc<Vector>,
    state: &mut ClientState,
) {
    if let Some(handle) = pool {
        #[expect(
            clippy::panic,
            reason = "a double checkout means the engine scheduled one client twice; abort loudly rather than train on the wrong stream"
        )]
        let rng = state
            .checkout_rng(client)
            .unwrap_or_else(|e| panic!("dispatch failed: {e}"));
        let _ = handle.submit(TrainTask {
            seq,
            client,
            base: Arc::clone(base),
            rng,
        });
    }
}

/// Runaway-loop backstop for the event loop, in saturating `u64`
/// arithmetic with a hard cap (no overflow on any target).
///
/// The budget scales with the work a run is *allowed* to do — `rounds ×
/// aggregation_bound` submissions with ×64 headroom for idle cycles,
/// dropouts and stale discards — plus a one-off kickoff term for the
/// initial `O(num_clients)` wave. It deliberately has no per-round
/// `num_clients` multiplier: a million-client run is bounded by how many
/// updates Ω rounds can consume, not by population size, so the backstop
/// stays meaningful at scale.
fn event_budget(cfg: &SimConfig) -> u64 {
    let per_round = (cfg.aggregation_bound as u64).saturating_mul(64).max(4096);
    cfg.rounds
        .saturating_add(2)
        .saturating_mul(per_round)
        .saturating_add((cfg.num_clients as u64).saturating_mul(4))
        .min(1 << 33)
}

/// Computes the trusted delta for clean-dataset baselines: one local
/// training pass on the server's root dataset from the current global
/// model (what Zeno++/AFLGuard's server does each round).
fn trusted_delta(
    root: Option<&Dataset>,
    template: &dyn Model,
    cfg: &SimConfig,
    trainer: &LocalTrainer,
    global: &Vector,
) -> Option<Vector> {
    let root = root?;
    let mut model = template.clone_box();
    model.set_params(global);
    let mut optimizer = build_optimizer(&cfg.profile, model.num_params());
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5e17_ed5e_17ed_5e17);
    LocalTrainer::new(1, trainer.batch_size()).train(
        model.as_mut(),
        root,
        optimizer.as_mut(),
        &mut rng,
    );
    Some(model.params_ref() - global)
}

/// How strongly the GD attack scales its reversal in simulation runs.
///
/// Theorem 1 analyses λ = 1; evaluations (including the divergence the paper
/// reports on CINIC-10) require the aggregate to actually move backwards,
/// which with a ~20% malicious share needs λ ≳ 1/share. λ = 5 makes GD the
/// "strong attack" the tables show.
pub const GD_LAMBDA: f64 = 5.0;

/// Builds the attack instance an [`AttackKind`] denotes, sized for this
/// population (LIE's `z` depends on it; GD uses [`GD_LAMBDA`]).
pub fn build_attack(kind: AttackKind, total: usize, malicious: usize) -> Box<dyn Attack> {
    match kind {
        AttackKind::Gd => Box::new(GradientDeviationAttack::new(GD_LAMBDA)),
        other => other.build(total, malicious),
    }
}

/// The deterministic discrete-event simulation.
pub struct Simulation {
    config: SimConfig,
    task: Arc<Task>,
    test_data: Dataset,
    root_data: Option<Dataset>,
    spawner: ClientSpawner,
    template: Box<dyn Model>,
    latency: LatencyModel,
    trainer: LocalTrainer,
}

impl Simulation {
    /// Builds the population: task, test set, the attacker assignment and
    /// the lazy client spawner. Per-client state (partitions, latency
    /// factors, RNG streams) is *not* precomputed — it is derived on
    /// demand from `seed + client id`, so construction cost and resident
    /// memory do not scale with `num_clients`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid
    /// (see [`SimConfig::validate`]).
    #[expect(
        clippy::panic,
        reason = "documented constructor contract; validate() is the recoverable path"
    )]
    pub fn new(config: SimConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid SimConfig: {e}");
        }
        let mut master = StdRng::seed_from_u64(config.seed);
        let task = Arc::new(config.profile.build_task(&mut master));
        let test_data = task.test_dataset(config.test_samples, &mut master);
        let root_data = if config.server_root_samples > 0 {
            Some(task.test_dataset(config.server_root_samples, &mut master))
        } else {
            None
        };
        let latency = LatencyModel::zipf(config.zipf_s, config.zipf_levels);
        let template = build_model(&config.profile, &task, &mut master);

        // Attacker assignment: random subset of clients (§5.1 "we randomly
        // sample 20 out of 100 of the clients as malicious ones"). The
        // partial Fisher–Yates prefix consumes the same master-stream draws
        // as the full permutation historically drawn here and selects the
        // byte-identical id set, in O(num_malicious) memory.
        let malicious_ids = asyncfl_data::sampling::select_prefix(
            &mut master,
            config.num_clients,
            config.num_malicious,
        );

        let spawner = ClientSpawner::new(
            config.seed,
            config.num_clients,
            config.partitioner.clone(),
            config.effective_partition_size(),
            config.partition_jitter,
            latency.clone(),
            Arc::clone(&task),
            malicious_ids,
            config.effective_shard_cache_capacity(),
        );
        let trainer = LocalTrainer::from_profile(&config.profile);
        Self {
            config,
            task,
            test_data,
            root_data,
            spawner,
            template,
            latency,
            trainer,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The underlying synthetic task.
    pub fn task(&self) -> &Task {
        &self.task
    }

    /// The lazy client-materialization engine: attacker flags, latency
    /// factors and dataset shards derived on demand from seed + client id.
    pub fn spawner(&self) -> &ClientSpawner {
        &self.spawner
    }

    /// Applies label-flip **data poisoning** to every malicious client's
    /// local dataset (labels cyclically shifted). Unlike the model-poisoning
    /// attacks, poisoned clients then train *honestly* on corrupted data —
    /// a different threat vector that exercises the same defense path.
    /// Combine with [`AttackKind::None`] to study data poisoning alone.
    pub fn poison_malicious_labels(&mut self) {
        self.spawner.set_poison_labels();
    }

    /// Runs with the given filter and attack, using the FedBuff mean
    /// aggregator (the paper's configuration).
    pub fn run(&mut self, filter: Box<dyn UpdateFilter>, attack: AttackKind) -> RunResult {
        let attack = build_attack(attack, self.config.num_clients, self.config.num_malicious);
        self.run_with(filter, attack, Box::new(MeanAggregator::new()))
    }

    /// Runs with explicit filter, attack and aggregation rule.
    pub fn run_with(
        &mut self,
        filter: Box<dyn UpdateFilter>,
        attack: Box<dyn Attack>,
        aggregator: Box<dyn Aggregator>,
    ) -> RunResult {
        self.run_with_sink(filter, attack, aggregator, None)
    }

    /// As [`run_with`](Self::run_with), with a telemetry sink observing the
    /// run: the server emits update/filter/aggregation events and the event
    /// loop adds `local_training` spans and accuracy checkpoints. Pass
    /// `None` (or use `run_with`) for an untraced run at zero cost.
    pub fn run_with_sink(
        &mut self,
        filter: Box<dyn UpdateFilter>,
        attack: Box<dyn Attack>,
        aggregator: Box<dyn Aggregator>,
        sink: Option<SharedSink>,
    ) -> RunResult {
        // Split `self` into disjoint borrows: the worker pool reads the
        // population (config, spawner, template) while the event loop
        // keeps exclusive ownership of the server and the in-flight heap.
        let threads = self.config.threads.max(1);
        let Simulation {
            config,
            test_data,
            root_data,
            spawner,
            template,
            latency,
            trainer,
            ..
        } = self;
        let cfg: &SimConfig = config;
        let template: &dyn Model = template.as_ref();
        let root_data: Option<&Dataset> = root_data.as_ref();
        let spawner: &ClientSpawner = spawner;
        let test_data: &Dataset = test_data;
        let latency: &LatencyModel = latency;
        let trainer: &LocalTrainer = trainer;

        // One honest local-training job; a pure function of the snapshot
        // and the RNG handed in, so it runs identically on the event-loop
        // thread (inline mode) or a pool worker (dispatch mode). The shard
        // is fetched from the spawner's cache (regenerated on miss) outside
        // the training span, so `local_training` timing and allocation
        // accounting stay comparable across cache states.
        let train_one = |base: &Vector, client: usize, rng: &mut StdRng| -> Vector {
            let mut model = template.clone_box();
            model.set_params(base);
            let mut optimizer = build_optimizer(&cfg.profile, model.num_params());
            let data = spawner.dataset(client);
            {
                let _span = Span::start(sink.as_ref().map(|s| s.as_dyn()), "local_training");
                trainer.train(model.as_mut(), &data, optimizer.as_mut(), rng);
            }
            model.params_ref() - base
        };

        let worker = |task: TrainTask| {
            let TrainTask {
                seq,
                client,
                base,
                mut rng,
            } = task;
            let delta = train_one(&base, client, &mut rng);
            (seq, TrainOutput { delta, rng })
        };

        // The event loop itself, parameterized only by where training
        // results come from. Everything order-sensitive (attack crafting,
        // the server pipeline, participation/dropout draws) runs here, in
        // deterministic event-queue order.
        let drive = |mut pool: Option<&mut PoolHandle<TrainTask, TrainOutput>>| -> RunResult {
            let mut server = BufferedServer::new(
                template.params(),
                cfg.aggregation_bound,
                cfg.staleness_limit,
                filter,
                aggregator,
            );
            server.set_sink(sink.clone());
            let mut attack_rng = StdRng::seed_from_u64(cfg.seed ^ 0xA77A_C4E2_57A1_F00D);
            let mut eval_model = template.clone_box();

            // Kick off every client at t = 0 from the initial model. Each
            // client's state is materialized here and then lives in its
            // (single, permanent) queue entry; the event heap is the only
            // O(num_clients) structure a run keeps. Kickoff pushes exactly
            // one entry per client, so the heap is reserved at that size.
            let mut queue = BinaryHeap::with_capacity(cfg.num_clients);
            let mut seq = 0u64;
            let init_base = server.global_arc();
            for client in 0..cfg.num_clients {
                let mut state = spawner.spawn(client);
                let factor = state.factor;
                let dur = {
                    #[expect(
                        clippy::panic,
                        reason = "freshly spawned state always has its stream home; a miss is an engine bug"
                    )]
                    let rng = state
                        .rng_mut(client)
                        .unwrap_or_else(|e| panic!("kickoff: {e}"));
                    latency.cycle_duration(factor, rng)
                };
                dispatch(&mut pool, seq, client, &init_base, &mut state);
                queue.push(HeapEntry(InFlight {
                    completes_at: dur,
                    seq,
                    client,
                    base_round: 0,
                    base_params: Arc::clone(&init_base),
                    idle: false,
                    state,
                }));
                seq += 1;
            }

            if root_data.is_some() {
                let trusted = trusted_delta(root_data, template, cfg, trainer, server.global());
                server.set_trusted_delta(trusted);
            }

            let mut collusion: VecDeque<Vector> = VecDeque::new();
            let mut accuracy_history = Vec::new();
            let mut round_reports = Vec::new();
            let mut now = 0.0f64;
            let max_events = event_budget(cfg);
            let mut events = 0u64;

            while let Some(HeapEntry(mut job)) = queue.pop() {
                events += 1;
                if events > max_events {
                    break;
                }
                now = job.completes_at;
                let client = job.client;

                if job.idle {
                    // Not sampled last cycle: wake up and (maybe) participate.
                    let factor = job.state.factor;
                    let (dur, idle) = {
                        #[expect(
                            clippy::panic,
                            reason = "idle entries never dispatch, so the stream is always home; a miss is an engine bug"
                        )]
                        let rng = job
                            .state
                            .rng_mut(client)
                            .unwrap_or_else(|e| panic!("idle wake: {e}"));
                        let dur = latency.cycle_duration(factor, rng);
                        (dur, !participates(cfg, rng))
                    };
                    let base = server.global_arc();
                    if !idle {
                        dispatch(&mut pool, seq, client, &base, &mut job.state);
                    }
                    queue.push(HeapEntry(InFlight {
                        completes_at: now + dur,
                        seq,
                        client,
                        base_round: server.round(),
                        base_params: base,
                        idle,
                        state: job.state,
                    }));
                    debug_assert_eq!(queue.len(), cfg.num_clients, "one heap entry per client");
                    seq += 1;
                    continue;
                }

                // Local training from the (possibly stale) snapshot: train
                // now (inline mode) or collect the eagerly dispatched
                // result by sequence number (pool mode). Either way the
                // client's RNG ends up checked back in, in the same state.
                let honest_delta = match &mut pool {
                    None => {
                        #[expect(
                            clippy::panic,
                            reason = "inline mode never ships the stream away; a miss is an engine bug"
                        )]
                        let mut rng = job
                            .state
                            .checkout_rng(client)
                            .unwrap_or_else(|e| panic!("inline training: {e}"));
                        let delta = train_one(&job.base_params, client, &mut rng);
                        job.state.check_in_rng(rng);
                        delta
                    }
                    Some(handle) => match handle.collect(job.seq) {
                        Ok(out) => {
                            job.state.check_in_rng(out.rng);
                            out.delta
                        }
                        #[expect(
                            clippy::panic,
                            reason = "worker-pool entry point: a poisoned worker must abort the run loudly rather than hang the channel or continue from corrupt state"
                        )]
                        Err(e) => {
                            panic!("training worker pool failed: {e}")
                        }
                    },
                };

                let delta = if job.state.malicious {
                    collusion.push_back(honest_delta.clone());
                    while collusion.len() > cfg.num_malicious.max(1) {
                        collusion.pop_front();
                    }
                    let mut crafted =
                        attack.craft_all(collusion.make_contiguous(), &mut attack_rng);
                    crafted.pop().unwrap_or(honest_delta)
                } else {
                    honest_delta
                };

                let update = ClientUpdate::from_delta(
                    client,
                    job.base_round,
                    0,
                    &job.base_params,
                    delta,
                    job.state.size,
                )
                .with_truth_malicious(job.state.malicious);

                // Failure injection: the update may be lost in transit.
                let dropped = cfg.dropout > 0.0
                    && {
                        use asyncfl_rng::RngExt;
                        #[expect(
                            clippy::panic,
                            reason = "the stream was checked back in just above; a miss is an engine bug"
                        )]
                        let rng = job
                            .state
                            .rng_mut(client)
                            .unwrap_or_else(|e| panic!("dropout draw: {e}"));
                        rng.random::<f64>() < cfg.dropout
                    };
                let received = if dropped {
                    None
                } else {
                    server.receive(update)
                };

                if let Some(report) = received {
                    round_reports.push(report);
                    // Sample engine-level resource gauges once per
                    // aggregation (not per event): how many dataset
                    // shards the spawner holds materialized (bounded by
                    // its cache capacity, not by num_clients — the
                    // lazy-materialization scale contract), and the
                    // allocator's live bytes (zero when no counting
                    // allocator is installed).
                    if let Some(s) = &sink {
                        s.emit(&Event::GaugeSample {
                            name: "resident_client_states",
                            value: spawner.resident_states() as u64,
                        });
                        s.emit(&Event::GaugeSample {
                            name: "alloc_live_bytes",
                            value: asyncfl_telemetry::alloc::live_bytes(),
                        });
                    }
                    let completed = report.round_completed + 1;
                    if completed % cfg.eval_every == 0 {
                        eval_model.set_params(server.global());
                        let accuracy = evaluate(eval_model.as_ref(), test_data);
                        if let Some(s) = &sink {
                            s.emit(&Event::AccuracyCheckpoint {
                                round: completed,
                                accuracy,
                            });
                        }
                        accuracy_history.push((completed, accuracy));
                    }
                    if root_data.is_some() {
                        let trusted =
                            trusted_delta(root_data, template, cfg, trainer, server.global());
                        server.set_trusted_delta(trusted);
                    }
                    if completed >= cfg.rounds {
                        break;
                    }
                }

                // The client immediately starts its next cycle from the
                // current global model (or idles this cycle if the sampler
                // skips it).
                let factor = job.state.factor;
                let (dur, idle) = {
                    #[expect(
                        clippy::panic,
                        reason = "the stream was checked back in above; a miss is an engine bug"
                    )]
                    let rng = job
                        .state
                        .rng_mut(client)
                        .unwrap_or_else(|e| panic!("reschedule: {e}"));
                    let dur = latency.cycle_duration(factor, rng);
                    (dur, !participates(cfg, rng))
                };
                let base = server.global_arc();
                if !idle {
                    dispatch(&mut pool, seq, client, &base, &mut job.state);
                }
                queue.push(HeapEntry(InFlight {
                    completes_at: now + dur,
                    seq,
                    client,
                    base_round: server.round(),
                    base_params: base,
                    idle,
                    state: job.state,
                }));
                debug_assert_eq!(queue.len(), cfg.num_clients, "one heap entry per client");
                seq += 1;
            }

            // Jobs the loop never consumed are simply abandoned with the
            // queue: client state is derived per run, so there is nothing to
            // write back — the next run() re-derives every stream from
            // seed + client id and replays identically.

            eval_model.set_params(server.global());
            let final_accuracy = evaluate(eval_model.as_ref(), test_data);
            RunResult {
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
            }
        };

        if threads == 1 {
            drive(None)
        } else {
            with_worker_pool(threads, worker, |handle| drive(Some(handle)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncfl_core::update::PassthroughFilter;
    use asyncfl_core::AsyncFilter;

    #[test]
    fn benign_run_learns() {
        let mut sim = Simulation::new(SimConfig::smoke_test());
        let result = sim.run(Box::new(PassthroughFilter), AttackKind::None);
        assert!(
            result.final_accuracy > 0.5,
            "accuracy {}",
            result.final_accuracy
        );
        assert_eq!(result.rounds_completed, 8);
        assert!(result.updates_received >= 8 * 8);
        assert!(!result.accuracy_history.is_empty());
        assert!(result.sim_time > 0.0);
        assert!(result.loop_events > 0);
        assert!(result.loop_events <= event_budget(sim.config()));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut sim = Simulation::new(SimConfig::smoke_test());
            sim.run(Box::new(PassthroughFilter), AttackKind::Gd)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            let mut sim = Simulation::new(SimConfig::smoke_test().with_seed(seed));
            sim.run(Box::new(PassthroughFilter), AttackKind::None)
        };
        assert_ne!(run(1).final_accuracy, run(2).final_accuracy);
    }

    #[test]
    fn gd_attack_degrades_undefended_accuracy() {
        let mut cfg = SimConfig::smoke_test();
        cfg.num_malicious = 5;
        cfg.rounds = 10;
        let benign =
            Simulation::new(cfg.clone()).run(Box::new(PassthroughFilter), AttackKind::None);
        let attacked = Simulation::new(cfg).run(Box::new(PassthroughFilter), AttackKind::Gd);
        assert!(
            attacked.final_accuracy < benign.final_accuracy - 0.1,
            "GD should hurt: benign {} vs attacked {}",
            benign.final_accuracy,
            attacked.final_accuracy
        );
    }

    #[test]
    fn asyncfilter_rejects_gd_updates() {
        let mut cfg = SimConfig::smoke_test();
        cfg.num_malicious = 4;
        cfg.rounds = 10;
        let mut sim = Simulation::new(cfg);
        let result = sim.run(Box::new(AsyncFilter::default()), AttackKind::Gd);
        // Small buffers gate conservatively, so recall is partial — but what
        // the filter does reject must overwhelmingly be malicious.
        assert!(
            result.detection.recall() > 0.3,
            "recall {} stats {:?}",
            result.detection.recall(),
            result.detection
        );
        // The smoke config's buffers are tiny (bound 4), so the 3-means
        // middle cluster is thin and a few borderline benign updates get
        // rejected alongside the attackers; precision lands near 2/3 here
        // and only approaches the paper's figures at realistic buffer sizes.
        assert!(
            result.detection.precision() > 0.6,
            "precision {} stats {:?}",
            result.detection.precision(),
            result.detection
        );
    }

    #[test]
    fn staleness_histogram_populated_and_bounded() {
        let mut sim = Simulation::new(SimConfig::smoke_test());
        let result = sim.run(Box::new(PassthroughFilter), AttackKind::None);
        assert!(!result.staleness_histogram.is_empty());
        let limit = sim.config().staleness_limit;
        assert!(result.staleness_histogram.keys().all(|&tau| tau <= limit));
        // Stragglers exist: some updates have staleness > 0.
        let stale: u64 = result
            .staleness_histogram
            .iter()
            .filter(|(&tau, _)| tau > 0)
            .map(|(_, &c)| c)
            .sum();
        assert!(
            stale > 0,
            "no staleness observed: {:?}",
            result.staleness_histogram
        );
    }

    #[test]
    fn malicious_assignment_matches_config() {
        let sim = Simulation::new(SimConfig::smoke_test());
        let n = sim.config().num_clients;
        let m = (0..n).filter(|&c| sim.spawner().is_malicious(c)).count();
        assert_eq!(m, sim.config().num_malicious);
        for c in 0..n {
            let state = sim.spawner().spawn(c);
            assert_eq!(state.malicious, sim.spawner().is_malicious(c));
            assert!(state.factor >= 1.0);
        }
    }

    #[test]
    fn attacker_selection_and_factors_match_precompute_goldens() {
        // Captured from the eager implementation (full permutation + per-
        // client precompute arrays) immediately before the lazy rewrite:
        // the selected attacker sets and latency factors must stay
        // byte-identical at paper scales.
        let smoke = Simulation::new(SimConfig::smoke_test());
        let ids: Vec<usize> = (0..16)
            .filter(|&c| smoke.spawner().is_malicious(c))
            .collect();
        assert_eq!(ids, vec![4, 9, 12]);
        let factors: Vec<f64> = (0..4).map(|c| smoke.spawner().spawn(c).factor).collect();
        assert_eq!(factors, vec![3.0, 1.0, 4.0, 4.0]);

        let paper = Simulation::new(SimConfig::paper_default(
            asyncfl_data::DatasetProfile::Mnist,
        ));
        let ids: Vec<usize> = (0..100)
            .filter(|&c| paper.spawner().is_malicious(c))
            .collect();
        assert_eq!(
            ids,
            vec![0, 1, 5, 7, 14, 15, 19, 25, 26, 31, 47, 61, 70, 77, 81, 86, 87, 89, 96, 99]
        );
        let factors: Vec<f64> = (0..4).map(|c| paper.spawner().spawn(c).factor).collect();
        assert_eq!(factors, vec![1.0, 7.0, 6.0, 1.0]);
    }

    #[test]
    fn reruns_on_one_simulation_replay_identically() {
        // Client state is derived fresh each run, so a second run() on the
        // same Simulation replays the first bit-for-bit (the eager engine
        // continued from advanced RNG streams instead).
        let mut sim = Simulation::new(SimConfig::smoke_test());
        let a = sim.run(Box::new(PassthroughFilter), AttackKind::Gd);
        let b = sim.run(Box::new(PassthroughFilter), AttackKind::Gd);
        assert_eq!(a, b);
    }

    #[test]
    fn event_budget_saturates_and_ignores_population_scale() {
        let mut cfg = SimConfig::smoke_test();
        let small = event_budget(&cfg);
        cfg.num_clients = 1_000_000;
        let big = event_budget(&cfg);
        // Population contributes only the one-off kickoff term, not a
        // per-round multiplier.
        assert_eq!(big - small, (1_000_000 - 16) * 4);
        // Extreme settings saturate to the hard cap instead of overflowing.
        cfg.rounds = u64::MAX;
        cfg.aggregation_bound = usize::MAX;
        assert_eq!(event_budget(&cfg), 1 << 33);
    }

    #[test]
    fn label_flip_data_poisoning_degrades_and_filter_mitigates() {
        let mut cfg = SimConfig::smoke_test();
        cfg.num_malicious = 5;
        cfg.rounds = 10;
        let benign =
            Simulation::new(cfg.clone()).run(Box::new(PassthroughFilter), AttackKind::None);
        let mut poisoned_sim = Simulation::new(cfg.clone());
        poisoned_sim.poison_malicious_labels();
        let poisoned = poisoned_sim.run(Box::new(PassthroughFilter), AttackKind::None);
        assert!(
            poisoned.final_accuracy < benign.final_accuracy,
            "label flip had no effect: {} vs {}",
            poisoned.final_accuracy,
            benign.final_accuracy
        );
        let mut defended_sim = Simulation::new(cfg);
        defended_sim.poison_malicious_labels();
        let defended = defended_sim.run(Box::new(AsyncFilter::default()), AttackKind::None);
        // Label-flip updates are heterogeneous-but-bounded; the filter should
        // at least not make things worse.
        assert!(
            defended.final_accuracy >= poisoned.final_accuracy - 0.05,
            "filter hurt under data poisoning: {} vs {}",
            defended.final_accuracy,
            poisoned.final_accuracy
        );
    }

    #[test]
    fn partition_jitter_varies_client_sizes() {
        let mut cfg = SimConfig::smoke_test();
        cfg.partition_jitter = 0.5;
        let sim = Simulation::new(cfg);
        let n = sim.config().num_clients;
        let sizes: Vec<usize> = (0..n).map(|c| sim.spawner().spawn(c).size).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max > min, "jitter produced uniform sizes: {sizes:?}");
        assert!(sizes.iter().all(|&s| s >= 1));
        // The derived shard length (= aggregation weight) follows the
        // jittered size.
        for (c, &size) in sizes.iter().enumerate() {
            assert_eq!(sim.spawner().dataset(c).len(), size);
        }
    }

    #[test]
    fn partial_participation_slows_updates() {
        let mut full_cfg = SimConfig::smoke_test();
        full_cfg.rounds = 5;
        let mut partial_cfg = full_cfg.clone();
        partial_cfg.participation = 0.5;
        let full = Simulation::new(full_cfg).run(Box::new(PassthroughFilter), AttackKind::None);
        let partial =
            Simulation::new(partial_cfg).run(Box::new(PassthroughFilter), AttackKind::None);
        // Same number of aggregations, but the partial run needs more
        // virtual time to gather them.
        assert_eq!(partial.rounds_completed, 5);
        assert!(
            partial.sim_time > full.sim_time,
            "partial {} vs full {}",
            partial.sim_time,
            full.sim_time
        );
    }

    #[test]
    fn dropout_loses_updates_but_training_continues() {
        let mut cfg = SimConfig::smoke_test();
        cfg.rounds = 5;
        cfg.dropout = 0.4;
        let result = Simulation::new(cfg).run(Box::new(PassthroughFilter), AttackKind::None);
        assert_eq!(result.rounds_completed, 5);
        assert!(
            result.final_accuracy > 0.4,
            "accuracy {}",
            result.final_accuracy
        );
    }

    #[test]
    #[should_panic(expected = "invalid SimConfig")]
    fn invalid_config_panics() {
        let mut cfg = SimConfig::smoke_test();
        cfg.aggregation_bound = 0;
        let _ = Simulation::new(cfg);
    }
}
