//! Server-only ingest of wide updates: `ClientUpdate::from_delta` plus
//! `BufferedServer::receive` with AsyncFilter at Ω = 32.
//!
//! Inputs come from a seeded stream of 131 072-dimensional deltas with
//! staleness lags 0–2, a fifth of them GD-crafted against the most recent
//! honest ones. Each input is generated between timed calls, never inside
//! one, and never stored up front.

use crate::metrics::{self, median, ratio, Metrics};
use crate::reference::Reference;
use crate::trace::{self, Layer, TimedAggregator, TimedFilter};
use asyncfl_attacks::{Attack, GradientDeviationAttack};
use asyncfl_core::aggregation::{Aggregator, MeanAggregator};
use asyncfl_core::update::{ClientUpdate, UpdateFilter};
use asyncfl_core::AsyncFilter;
use asyncfl_rng::rngs::StdRng;
use asyncfl_rng::{RngExt, SeedableRng};
use asyncfl_sim::runner::GD_LAMBDA;
use asyncfl_sim::{BufferedServer, DetectionStats};
use asyncfl_telemetry::alloc;
use asyncfl_tensor::Vector;
use std::collections::VecDeque;
use std::time::Instant;

/// Model dimension: 1 MiB per `f64` vector, so the Ω-sized buffer of
/// parameters plus deltas (64 MiB) is far larger than any cache.
const DIM: usize = 131_072;
/// Aggregation bound Ω.
const OMEGA: usize = 32;
/// Staleness limit (the paper's).
const STALENESS_LIMIT: u64 = 20;
/// Filter passes per repetition.
const PASSES: u64 = 24;
/// Share of GD-crafted updates.
const MALICIOUS_SHARE: f64 = 0.2;
/// Client population the stream draws ids from.
const CLIENTS: usize = 1_000;
/// Honest deltas the GD attacker knows.
const KNOWN: usize = 8;
/// `BufferedServer::new` samples behind `setup_s`.
const SETUPS: usize = 31;

/// The seeded input stream. Honest deltas are a shared unit direction plus
/// uniform per-coordinate noise; malicious ones are GD-crafted.
struct Stream {
    rng: StdRng,
    direction: Vector,
    attack: GradientDeviationAttack,
    known: VecDeque<Vector>,
    /// Global models of the last three rounds, newest last.
    globals: VecDeque<(u64, Vector)>,
}

/// One generated input.
struct Input {
    client: usize,
    base_round: u64,
    base: usize,
    delta: Vector,
    malicious: bool,
}

impl Stream {
    fn new(seed: u64, initial: &Vector) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e4e_4e57_1de0_0001);
        let mut direction = Vector::from_fn(DIM, |_| rng.random::<f64>() - 0.5);
        let norm = direction.norm();
        direction.scale(1.0 / norm);
        Self {
            rng,
            direction,
            attack: GradientDeviationAttack::new(GD_LAMBDA),
            known: VecDeque::new(),
            globals: VecDeque::from([(0, initial.clone())]),
        }
    }

    fn honest(&mut self) -> Vector {
        // Uniform noise of total norm ≈ 0.5 around the unit direction.
        let amp = 0.5 * (3.0 / DIM as f64).sqrt();
        let rng = &mut self.rng;
        let mut delta = Vector::from_fn(DIM, |_| amp * (2.0 * rng.random::<f64>() - 1.0));
        delta.axpy(1.0, &self.direction);
        delta
    }

    fn next(&mut self) -> Input {
        let client = self.rng.random_range(0..CLIENTS);
        let malicious = self.rng.random::<f64>() < MALICIOUS_SHARE && !self.known.is_empty();
        let lag = self.rng.random_range(0..3usize).min(self.globals.len() - 1);
        let base = self.globals.len() - 1 - lag;
        let delta = if malicious {
            let known: Vec<Vector> = self.known.iter().cloned().collect();
            let crafted = self.attack.craft_all(&known, &mut self.rng);
            crafted
                .into_iter()
                .last()
                .expect("GD crafts one delta per known delta")
        } else {
            let d = self.honest();
            self.known.push_back(d.clone());
            if self.known.len() > KNOWN {
                self.known.pop_front();
            }
            d
        };
        Input {
            client,
            base_round: self.globals[base].0,
            base,
            delta,
            malicious,
        }
    }

    fn advance(&mut self, round: u64, global: &Vector) {
        self.globals.push_back((round, global.clone()));
        if self.globals.len() > 3 {
            self.globals.pop_front();
        }
    }
}

/// What one repetition did.
struct Rep {
    /// Seconds inside `from_delta` + `receive`, per update.
    ingest: Vec<f64>,
    /// Bytes allocated inside the timed calls.
    alloc_bytes: u64,
    received: u64,
    discarded_stale: u64,
    detection: DetectionStats,
    rounds: u64,
    verdicts: usize,
    finite: bool,
}

fn new_server(filter: Box<dyn UpdateFilter>, aggregator: Box<dyn Aggregator>) -> BufferedServer {
    BufferedServer::new(
        Vector::zeros(DIM),
        OMEGA,
        STALENESS_LIMIT,
        filter,
        aggregator,
    )
}

/// Feeds the stream to `server` until `PASSES` passes have completed.
fn ingest(seed: u64, mut server: BufferedServer) -> Rep {
    let mut stream = Stream::new(seed, server.global());
    let mut rep = Rep {
        ingest: Vec::new(),
        alloc_bytes: 0,
        received: 0,
        discarded_stale: 0,
        detection: DetectionStats::default(),
        rounds: 0,
        verdicts: 0,
        finite: true,
    };
    while server.round() < PASSES {
        let input = stream.next();
        let base = &stream.globals[input.base].1;
        let before = alloc::allocated_bytes();
        let started = Instant::now();
        let update = trace::span(Layer::FromDelta, || {
            ClientUpdate::from_delta(input.client, input.base_round, 0, base, input.delta, 1)
                .with_truth_malicious(input.malicious)
        });
        let report = trace::span(Layer::Receive, || server.receive(update));
        let took = started.elapsed().as_secs_f64();
        rep.ingest.push(took);
        rep.alloc_bytes += alloc::allocated_bytes() - before;
        if let Some(report) = report {
            rep.verdicts += report.accepted + report.rejected;
            stream.advance(server.round(), server.global());
        }
    }
    rep.received = server.received();
    rep.discarded_stale = server.discarded_stale();
    rep.detection = server.detection();
    rep.rounds = server.round();
    rep.finite = server.global().is_finite();
    rep
}

impl Rep {
    /// Seconds inside `from_delta` + `receive`, summed.
    fn ingest_s(&self) -> f64 {
        self.ingest.iter().sum()
    }
}

fn check(rep: &Rep) -> Vec<String> {
    let mut failures = Vec::new();
    if rep.rounds != PASSES {
        failures.push(format!(
            "passes completed {} != requested {PASSES}",
            rep.rounds
        ));
    }
    if rep.detection.total() != rep.verdicts {
        failures.push(format!(
            "confusion total {} != terminal verdicts {}",
            rep.detection.total(),
            rep.verdicts
        ));
    }
    if !rep.finite {
        failures.push("non-finite global model".into());
    }
    failures
}

fn plain_server() -> BufferedServer {
    new_server(
        Box::new(AsyncFilter::default()),
        Box::new(MeanAggregator::new()),
    )
}

/// The untraced run: fresh servers fed the same seeded stream, repeated for
/// up to `seconds` (at least once).
pub fn measure(seed: u64, seconds: f64) -> (Metrics, Vec<String>, u64) {
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let started = Instant::now();
        let server = plain_server();
        setups.push(started.elapsed().as_secs_f64());
        drop(server);
    }
    let began = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut rep_s = Vec::new();
    let mut reference = Reference::new();
    loop {
        reference.sample();
        let started = Instant::now();
        reps.push(ingest(seed, plain_server()));
        rep_s.push(started.elapsed().as_secs_f64());
        if began.elapsed().as_secs_f64() + median(&rep_s) > seconds {
            break;
        }
    }
    reference.sample();
    let peak_rss = metrics::peak_rss_mib();
    let first = &reps[0];
    let mut failures = check(first);
    let same = |r: &Rep| r.received == first.received && r.detection == first.detection;
    if !reps.iter().all(same) {
        failures.push("repeated runs of one seed differ".into());
    }
    // Every repetition replays identical inputs, and interference from
    // other processes only ever slows a call down, so each update's fastest
    // ingest over the repetitions is the steadiest estimate of its cost.
    let fastest: f64 = (0..first.ingest.len())
        .map(|i| {
            reps.iter()
                .map(|r| r.ingest[i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    let alloc_bytes: u64 = reps.iter().map(|r| r.alloc_bytes).sum();
    let updates: u64 = reps.iter().map(|r| r.received).sum();
    let mut m = Metrics::default();
    m.add("setup_s", median(&setups), "s");
    m.add(
        "updates_per_s_norm",
        first.received as f64 / fastest * reference.slowdown(),
        "1/s",
    );
    m.add("peak_rss_mb", peak_rss, "MiB");
    m.add(
        "alloc_bytes_per_update",
        ratio(alloc_bytes as f64, updates as f64),
        "B",
    );
    let ingest: Vec<f64> = reps.iter().map(|r| r.ingest_s()).collect();
    eprintln!(
        "repetitions {}, ingest_s {ingest:.3?}, raw updates/s {:.1}, host slowdown {:.3}",
        reps.len(),
        first.received as f64 / fastest,
        reference.slowdown()
    );
    (m, failures, reps.len() as u64)
}

/// The traced run: one untraced and one traced repetition on the same
/// inputs; reports the per-layer metrics.
pub fn trace_run(seed: u64) -> (Metrics, Vec<String>) {
    let plain = ingest(seed, plain_server());
    let (filter, report) = TimedFilter::new(AsyncFilter::default());
    let aggregator = TimedAggregator(Box::new(MeanAggregator::new()));
    trace::enable();
    let traced = ingest(seed, new_server(Box::new(filter), Box::new(aggregator)));
    let stats = trace::finish();
    let report = report.lock().expect("filter report poisoned").clone();

    let mut failures = check(&traced);
    if traced.received != plain.received || traced.detection != plain.detection {
        failures.push("traced run differs from the untraced run".into());
    }
    let mut m = Metrics::default();
    metrics::add_layer_times(&mut m, &stats, traced.ingest_s());
    m.add("spawner.dataset_hit_ratio", 0.0, "ratio");
    m.add("spawner.resident_max", 0.0, "count");
    m.add("train.samples_per_s", 0.0, "1/s");
    m.add("train.alloc_bytes_per_call", 0.0, "B");
    m.add("attack.useful_ratio", 0.0, "ratio");
    metrics::add_filter_counts(&mut m, &report, traced.received);
    metrics::add_server_counts(
        &mut m,
        traced.received,
        traced.discarded_stale,
        &traced.detection,
    );
    m.add("eval.final_accuracy", 0.0, "ratio");
    m.add("schedule.max_depth", 0.0, "count");
    m.add("pool.speedup", 0.0, "ratio");
    m.add("pool.busy_share", 0.0, "ratio");
    m.add(
        "trace.overhead_share",
        (traced.ingest_s() - plain.ingest_s()) / plain.ingest_s(),
        "ratio",
    );
    eprint!("{}", metrics::layer_table(&stats, traced.ingest_s()));
    (m, failures)
}
