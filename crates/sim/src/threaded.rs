//! Thread-per-client runtime (PLATO emulation mode).
//!
//! The paper's testbed runs "500 clients, each operating on an individual
//! thread in parallel" inside PLATO. This engine reproduces that
//! architecture: every client is an OS thread that repeatedly snapshots the
//! global model, trains locally, and submits through an `std::sync::mpsc`
//! channel to a server thread owning the [`BufferedServer`]. Latency
//! heterogeneity is emulated with short real pauses proportional to the
//! client's Zipf factor, paced by a `WakePacer`: one timer thread
//! driving a `(time, seq)` event heap in the same order the deterministic
//! engine schedules with, instead of one OS sleep timer per client.
//!
//! Unlike [`crate::runner::Simulation`], arrival order depends on the OS
//! scheduler, so **results are not bit-reproducible across runs** — the
//! trade-off PLATO's live mode makes too. All table/figure experiments use
//! the deterministic engine; this one exists to demonstrate the
//! plug-and-play filter under genuine concurrency and is exercised by the
//! integration tests and the `threaded_demo` example.

use asyncfl_attacks::AttackKind;
use asyncfl_core::aggregation::MeanAggregator;
use asyncfl_core::update::{ClientUpdate, UpdateFilter};
use asyncfl_ml::train::{build_model, build_optimizer, evaluate, LocalTrainer};
use asyncfl_rng::rngs::StdRng;
use asyncfl_rng::{RngExt, SeedableRng};
use asyncfl_telemetry::{Event, SharedSink, Sink, Span, Stopwatch};
use asyncfl_tensor::Vector;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::time::Duration;

use crate::config::SimConfig;
use crate::latency::LatencyModel;
use crate::metrics::RunResult;
use crate::runner::build_attack;
use crate::schedule::{EventKey, HeapEntry};
use crate::server::BufferedServer;

/// Per-cycle pause per latency-factor unit (keeps tests fast while still
/// creating measurable staleness spread).
const SLEEP_PER_FACTOR: Duration = Duration::from_micros(300);

/// Slack added to a parked client's self-checking timeout: the pacer's
/// unpark normally lands first, so the timeout is only the liveness
/// backstop and a little headroom keeps it from racing the pacer.
const PARK_BACKSTOP_SLACK: Duration = Duration::from_micros(200);

/// Upper bound on how long the pacer blocks between shutdown checks.
const PACER_MAX_WAIT: Duration = Duration::from_millis(5);

/// One registered wake: a client thread parked until `deadline` (seconds
/// on the pacer's stopwatch).
struct WakeEntry {
    deadline: f64,
    seq: u64,
    thread: std::thread::Thread,
}

impl EventKey for WakeEntry {
    fn time(&self) -> f64 {
        self.deadline
    }
    fn seq(&self) -> u64 {
        self.seq
    }
}

/// The pacer's mutex-guarded core: the shared event heap plus the
/// registration counter that makes the heap's order total.
struct PacerState {
    queue: BinaryHeap<HeapEntry<WakeEntry>>,
    next_seq: u64,
}

/// Latency pacer: client threads register a wake deadline in a shared
/// `(time, seq)` event heap — the order the deterministic engine runs
/// on — and park; one timer thread pops due entries and unparks their
/// owners. This replaces the old
/// per-client `thread::sleep`, so emulated latency costs one indexed
/// queue instead of `num_clients` independent OS timers.
///
/// Liveness never depends on the pacer: a sleeping client re-checks its
/// own deadline around `park_timeout`, so a backlogged (or finished)
/// pacer degrades to plain timed sleeping instead of deadlocking.
struct WakePacer {
    clock: Stopwatch,
    state: Mutex<PacerState>,
    bell: Condvar,
}

impl WakePacer {
    fn new() -> Self {
        Self {
            clock: Stopwatch::start(),
            state: Mutex::new(PacerState {
                queue: BinaryHeap::new(),
                next_seq: 0,
            }),
            bell: Condvar::new(),
        }
    }

    /// Blocks the calling client thread for `dur` of emulated latency.
    fn sleep_for(&self, dur: Duration) {
        let deadline = self.clock.elapsed_secs() + dur.as_secs_f64();
        {
            let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            let seq = s.next_seq;
            s.next_seq += 1;
            s.queue.push(HeapEntry(WakeEntry {
                deadline,
                seq,
                thread: std::thread::current(),
            }));
        }
        self.bell.notify_one();
        loop {
            let now = self.clock.elapsed_secs();
            if now >= deadline {
                return;
            }
            // The unpark is the fast path; the timeout is the backstop.
            // A stale unpark from an earlier registration only makes the
            // loop re-check and park again.
            std::thread::park_timeout(
                Duration::from_secs_f64(deadline - now) + PARK_BACKSTOP_SLACK,
            );
        }
    }

    /// The timer loop: pops due wakes and unparks their threads until
    /// `done`, then drains (and unparks) every remaining registration so
    /// nothing is stranded. Runs on one scoped thread alongside the
    /// clients.
    fn run(&self, done: &AtomicBool) {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while !done.load(Ordering::Acquire) {
            let now = self.clock.elapsed_secs();
            match s.queue.peek().map(|e| e.0.deadline) {
                Some(t) if t <= now => {
                    if let Some(HeapEntry(entry)) = s.queue.pop() {
                        entry.thread.unpark();
                    }
                }
                next => {
                    // Nothing due: wait for the earliest deadline or for
                    // a new registration to ring the bell, bounded so a
                    // bell-less shutdown is still observed promptly.
                    let wait = next
                        .map(|t| Duration::from_secs_f64((t - now).max(0.0)))
                        .unwrap_or(PACER_MAX_WAIT)
                        .min(PACER_MAX_WAIT);
                    let (guard, _) = self
                        .bell
                        .wait_timeout(s, wait)
                        .unwrap_or_else(PoisonError::into_inner);
                    s = guard;
                }
            }
        }
        while let Some(HeapEntry(entry)) = s.queue.pop() {
            entry.thread.unpark();
        }
    }
}

/// Snapshot clients pull before each local round. The parameter vector is
/// behind an `Arc` so every puller shares one allocation — the write lock
/// swaps the pointer, and a client's snapshot costs a reference count
/// instead of a full parameter-vector clone.
struct GlobalView {
    params: Arc<Vector>,
    round: u64,
}

/// Runs one federated training with a thread per client.
///
/// Returns the same [`RunResult`] as the deterministic engine (with
/// `sim_time` holding wall-clock seconds). See the module docs for the
/// determinism caveat.
///
/// # Panics
///
/// Panics if `config` is invalid.
pub fn run_threaded(
    config: SimConfig,
    filter: Box<dyn UpdateFilter>,
    attack: AttackKind,
) -> RunResult {
    run_threaded_with_sink(config, filter, attack, None)
}

/// As [`run_threaded`], with a telemetry sink shared by the server and all
/// client threads (so the sink must be, and [`SharedSink`] is, `Send +
/// Sync`). Event interleaving follows the OS scheduler; server-side counts
/// (`update_received`, `filter_score`, …) still reconcile with the returned
/// [`RunResult`], but `accuracy_checkpoint` events can outnumber
/// `accuracy_history` entries — racing threads may evaluate the same round
/// twice, and the history is deduplicated afterwards while the trace keeps
/// every evaluation.
///
/// # Panics
///
/// Panics if `config` is invalid.
#[expect(
    clippy::panic,
    reason = "documented entry-point contract; validate() is the recoverable path"
)]
pub fn run_threaded_with_sink(
    config: SimConfig,
    filter: Box<dyn UpdateFilter>,
    attack: AttackKind,
    sink: Option<SharedSink>,
) -> RunResult {
    if let Err(e) = config.validate() {
        panic!("invalid SimConfig: {e}");
    }
    let started = Stopwatch::start();
    let mut master = StdRng::seed_from_u64(config.seed);
    let task = config.profile.build_task(&mut master);
    let test_data = Arc::new(task.test_dataset(config.test_samples, &mut master));
    let latency = LatencyModel::zipf(config.zipf_s, config.zipf_levels);
    let template = build_model(&config.profile, &task, &mut master);

    // Same master-stream draws and attacker set as the deterministic
    // engine, in O(num_malicious) memory.
    let malicious_ids = asyncfl_data::sampling::select_prefix(
        &mut master,
        config.num_clients,
        config.num_malicious,
    );
    // Per-client state (shard, factor, weight, attacker flag) is derived
    // lazily by the shared spawner, exactly as in the deterministic engine.
    // One historical quirk is gone: this engine now honors
    // `partition_jitter` instead of silently ignoring it (jitter is 0 in
    // every paper configuration, so defaults are unaffected).
    let spawner = crate::spawner::ClientSpawner::new(
        config.seed,
        config.num_clients,
        config.partitioner.clone(),
        config.effective_partition_size(),
        config.partition_jitter,
        latency.clone(),
        Arc::new(task),
        malicious_ids,
        config.effective_shard_cache_capacity(),
    );

    let mut buffered = BufferedServer::new(
        template.params(),
        config.aggregation_bound,
        config.staleness_limit,
        filter,
        Box::new(MeanAggregator::new()),
    );
    buffered.set_sink(sink.clone());
    let view = Arc::new(RwLock::new(GlobalView {
        params: buffered.global_arc(),
        round: 0,
    }));
    let server = Arc::new(Mutex::new(buffered));
    let done = Arc::new(AtomicBool::new(false));
    let collusion: Arc<Mutex<VecDeque<Vector>>> = Arc::new(Mutex::new(VecDeque::new()));
    let attack = Arc::from(build_attack(
        attack,
        config.num_clients,
        config.num_malicious,
    ));
    let attack: Arc<dyn asyncfl_attacks::Attack> = attack;
    let accuracy_history = Arc::new(Mutex::new(Vec::<(u64, f64)>::new()));

    let trainer = LocalTrainer::from_profile(&config.profile);
    let (report_tx, report_rx) = mpsc::channel::<u64>();
    let pacer = WakePacer::new();

    std::thread::scope(|scope| {
        {
            let pacer = &pacer;
            let done = Arc::clone(&done);
            scope.spawn(move || pacer.run(&done));
        }
        for c in 0..config.num_clients {
            let server = Arc::clone(&server);
            let view = Arc::clone(&view);
            let done = Arc::clone(&done);
            let collusion = Arc::clone(&collusion);
            let attack = Arc::clone(&attack);
            let state = spawner.spawn(c);
            let data = spawner.dataset(c);
            let test_data = Arc::clone(&test_data);
            let accuracy_history = Arc::clone(&accuracy_history);
            let mut model = template.clone();
            let mut eval_model = template.clone();
            let is_malicious = state.malicious;
            let factor = state.factor;
            let weight = state.size;
            let seed = asyncfl_rng::stream::substream_seed(config.seed, c as u64) ^ 0x7ead;
            let cfg = &config;
            let report_tx = report_tx.clone();
            let sink = sink.clone();
            let pacer = &pacer;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                while !done.load(Ordering::Acquire) {
                    // Server-side sampling: sit this cycle out with
                    // probability 1 − participation.
                    if cfg.participation < 1.0 && rng.random::<f64>() >= cfg.participation {
                        pacer.sleep_for(SLEEP_PER_FACTOR.mul_f64(factor));
                        continue;
                    }
                    // Snapshot the latest global model.
                    let (base_params, base_round) = {
                        let v = view.read().unwrap_or_else(PoisonError::into_inner);
                        (v.params.clone(), v.round)
                    };
                    // Emulated processing latency, paced by the shared
                    // event queue.
                    pacer.sleep_for(SLEEP_PER_FACTOR.mul_f64(factor));
                    model.set_params(&base_params);
                    let mut optimizer = build_optimizer(&cfg.profile, model.num_params());
                    {
                        let _span =
                            Span::start(sink.as_ref().map(|s| s.as_dyn()), "local_training");
                        trainer.train(model.as_mut(), &data, optimizer.as_mut(), &mut rng);
                    }
                    let honest = model.params_ref() - &*base_params;
                    let delta = if is_malicious {
                        let mut pool = collusion.lock().unwrap_or_else(PoisonError::into_inner);
                        pool.push_back(honest.clone());
                        while pool.len() > cfg.num_malicious.max(1) {
                            pool.pop_front();
                        }
                        let snapshot: Vec<Vector> = pool.iter().cloned().collect();
                        drop(pool);
                        attack
                            .craft_all(&snapshot, &mut rng)
                            .last()
                            .cloned()
                            .unwrap_or(honest)
                    } else {
                        honest
                    };
                    let update =
                        ClientUpdate::from_delta(c, base_round, 0, &base_params, delta, weight)
                            .with_truth_malicious(is_malicious);
                    // Failure injection: the update may be lost in transit.
                    if cfg.dropout > 0.0 && rng.random::<f64>() < cfg.dropout {
                        continue;
                    }
                    // Submit; on aggregation, refresh the shared view.
                    let report = {
                        let mut s = server.lock().unwrap_or_else(PoisonError::into_inner);
                        let r = s.receive(update);
                        if r.is_some() {
                            let mut v = view.write().unwrap_or_else(PoisonError::into_inner);
                            v.params = s.global_arc();
                            v.round = s.round();
                        }
                        r
                    };
                    if let Some(report) = report {
                        let completed = report.round_completed + 1;
                        if completed % cfg.eval_every == 0 {
                            let params = view
                                .read()
                                .unwrap_or_else(PoisonError::into_inner)
                                .params
                                .clone();
                            eval_model.set_params(&params);
                            let acc = evaluate(eval_model.as_ref(), &test_data);
                            if let Some(s) = &sink {
                                s.emit(&Event::AccuracyCheckpoint {
                                    round: completed,
                                    accuracy: acc,
                                });
                            }
                            accuracy_history
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .push((completed, acc));
                        }
                        if completed >= cfg.rounds {
                            done.store(true, Ordering::Release);
                        }
                        let _ = report_tx.send(completed);
                    }
                }
            });
        }
        drop(report_tx);
        // The scope waits for all client threads; drain reports meanwhile so
        // the channel never fills (it is unbounded, but draining documents
        // liveness and lets future extensions observe progress).
        while report_rx.recv().is_ok() {}
    });

    #[expect(
        clippy::panic,
        reason = "unreachable: the scope above joined every thread holding a clone"
    )]
    let server = Arc::try_unwrap(server)
        .unwrap_or_else(|_| panic!("client threads still hold the server"))
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let mut eval_model = template.clone();
    eval_model.set_params(server.global());
    let final_accuracy = evaluate(eval_model.as_ref(), &test_data);
    #[expect(
        clippy::panic,
        reason = "unreachable: the scope above joined every thread holding a clone"
    )]
    let mut history = Arc::try_unwrap(accuracy_history)
        .unwrap_or_else(|_| panic!("history still shared"))
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    history.sort_by_key(|&(round, _)| round);
    history.dedup_by_key(|&mut (round, _)| round);
    RunResult {
        final_accuracy,
        accuracy_history: history,
        detection: server.detection(),
        rounds_completed: server.round(),
        updates_received: server.received(),
        updates_discarded_stale: server.discarded_stale(),
        staleness_histogram: server.staleness_histogram().clone(),
        // The threaded engine reports per-round traces only through the
        // server's aggregate statistics; per-aggregation counts would race.
        round_reports: Vec::new(),
        sim_time: started.elapsed_secs(),
        // No event loop here: clients free-run on OS threads.
        loop_events: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncfl_core::update::PassthroughFilter;
    use asyncfl_core::AsyncFilter;

    fn tiny_config() -> SimConfig {
        let mut cfg = SimConfig::smoke_test();
        cfg.num_clients = 8;
        cfg.num_malicious = 2;
        cfg.aggregation_bound = 4;
        cfg.rounds = 5;
        cfg.test_samples = 300;
        cfg
    }

    #[test]
    fn threaded_benign_run_learns() {
        let result = run_threaded(tiny_config(), Box::new(PassthroughFilter), AttackKind::None);
        assert!(result.rounds_completed >= 5);
        assert!(
            result.final_accuracy > 0.4,
            "accuracy {}",
            result.final_accuracy
        );
        assert!(result.updates_received >= 20);
        assert!(result.sim_time > 0.0);
    }

    #[test]
    fn threaded_run_with_asyncfilter_under_attack() {
        let result = run_threaded(
            tiny_config(),
            Box::new(AsyncFilter::default()),
            AttackKind::Gd,
        );
        assert!(result.rounds_completed >= 5);
        // The filter must have rejected something across the run.
        assert!(result.detection.true_positives + result.detection.false_positives > 0);
    }

    #[test]
    fn threaded_respects_participation_and_dropout() {
        let mut cfg = tiny_config();
        cfg.participation = 0.6;
        cfg.dropout = 0.3;
        let result = run_threaded(cfg, Box::new(PassthroughFilter), AttackKind::None);
        // The run still completes its rounds despite sampling and losses.
        assert!(result.rounds_completed >= 5);
        assert!(result.final_accuracy > 0.3);
    }

    #[test]
    #[should_panic(expected = "invalid SimConfig")]
    fn invalid_config_panics() {
        let mut cfg = tiny_config();
        cfg.rounds = 0;
        let _ = run_threaded(cfg, Box::new(PassthroughFilter), AttackKind::None);
    }
}
