//! Allocation bounds on the hot paths (DESIGN.md §9): a warm AsyncFilter
//! pass, ingest short of an aggregation, a FedBuff mean aggregate, an NNM
//! aggregate, one local training call, kickoff spawning, and a whole small
//! run per received update.
//!
//! Allocation is deterministic at a fixed workload, so each bound is about
//! twice what was measured, with the measured value next to it, or
//! tighter where twice would still pass the code the bound is there to
//! fail. A copy or an allocation per update, an allocation per training
//! step or a second shard synthesis per dispatch creeping back in fails
//! one of them. The
//! allocator counters are process-global, so this file has a single
//! `#[test]` function: a second one running on a parallel test thread
//! would count into the first one's measurements.

use asyncfilter::core::preagg::NnmAggregator;
use asyncfilter::core::ScoreRecord;
use asyncfilter::data::Dataset;
use asyncfilter::ml::train::{build_model, build_optimizer, LocalTrainer};
use asyncfilter::prelude::*;
use asyncfilter::sim::server::BufferedServer;
use asyncfilter::telemetry::alloc::{alloc_count, allocated_bytes};
use asyncfl_rng::rngs::StdRng;
use asyncfl_rng::{RngExt, SeedableRng};
use std::sync::{Arc, Mutex};

#[global_allocator]
static ALLOC: asyncfilter::telemetry::alloc::CountingAllocator =
    asyncfilter::telemetry::alloc::CountingAllocator::new();

/// The wide server's model dimension: one vector is 1 MiB.
const WIDE_DIM: usize = 131_072;
/// One vector of `WIDE_DIM` coordinates, in bytes.
const WIDE_VECTOR_BYTES: u64 = (WIDE_DIM * std::mem::size_of::<f64>()) as u64;
/// The CIFAR profile's model: a 48→32→10 MLP.
const CIFAR_PARAMS: usize = 1_898;

/// About twice the 5 736–5 744 bytes a warm pass allocates at dim 131 072
/// and Ω = 32. The three fresh-group passes before it allocate about
/// 2.1 MB each; a warm pass must stay below one dimension-sized vector.
const WIDE_PASS_BYTES_BOUND: u64 = 12_000;
const _: () = assert!(WIDE_PASS_BYTES_BOUND < WIDE_VECTOR_BYTES);
/// About twice the 7 152–7 168 bytes a warm pass allocates at dim 1 898
/// and the paper's Ω = 40.
const PAPER_PASS_BYTES_BOUND: u64 = 15_000;
/// About twice the 15 allocations a warm pass makes at either shape, so
/// one more allocation per update (Ω ≥ 32 of them) fails it.
const WARM_PASS_ALLOCS_BOUND: u64 = 30;
/// About 1.5× the 1 048 832 bytes one mean aggregate allocates at dim
/// 131 072 and Ω = 32: the next global model, which the mean accumulates
/// in, and the weights. A separate mean vector (2 097 408 in all) fails
/// it; copying every delta would allocate 35 652 608.
const AGGREGATE_BYTES_BOUND: u64 = 1_600_000;
/// Updates in the NNM aggregate at dim 131 072.
const NNM_UPDATES: u64 = 8;
/// One model-sized vector above what an NNM aggregate of `NNM_UPDATES`
/// wide updates over a mean needs: a mixed delta per update and the next
/// model (9 437 184 bytes of vectors, 9 439 104 measured in all). Cloning
/// each update before overwriting its delta allocated 8 MiB more.
const NNM_BYTES_BOUND: u64 = (NNM_UPDATES + 2) * WIDE_VECTOR_BYTES;
/// About twice the 104 944 bytes one CIFAR-profile `train` call allocates
/// (256 samples, 5 epochs, batch 64).
const TRAIN_BYTES_BOUND: u64 = 210_000;
/// About 1.6× the 80 bytes spawning one client allocates (a 4-sample
/// MNIST shard under Dirichlet(0.1)): the label distribution's `Vec`,
/// nothing else. Synthesizing and caching the shard at spawn allocated
/// 1 363.
const SPAWN_BYTES_PER_CLIENT_BOUND: u64 = 128;
/// Clients spawned by the kickoff measurement.
const KICKOFF_CLIENTS: usize = 1_000;
/// About twice the 160 469 bytes a small AsyncFilter run allocates per
/// received update. One 1 024-sample shard synthesis is about 295 kB, so
/// a second one per dispatch fails it.
const RUN_BYTES_PER_UPDATE_BOUND: u64 = 336_000;

/// Runs `f` and returns its result with the bytes it allocated.
fn measure<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocated_bytes();
    let out = f();
    (out, allocated_bytes() - before)
}

/// What one filter pass allocated.
#[derive(Debug, Clone, Copy)]
struct PassCost {
    bytes: u64,
    allocs: u64,
}

/// AsyncFilter, recording what each `filter` pass allocates.
struct MeteredFilter {
    inner: AsyncFilter,
    passes: Arc<Mutex<Vec<PassCost>>>,
}

impl UpdateFilter for MeteredFilter {
    fn name(&self) -> &str {
        "MeteredAsyncFilter"
    }

    fn filter(&mut self, updates: Vec<ClientUpdate>, ctx: &FilterContext<'_>) -> FilterOutcome {
        let allocs = alloc_count();
        let (outcome, bytes) = measure(|| self.inner.filter(updates, ctx));
        let allocs = alloc_count() - allocs;
        self.passes.lock().unwrap().push(PassCost { bytes, allocs });
        outcome
    }

    fn last_scores(&self) -> &[ScoreRecord] {
        self.inner.last_scores()
    }
}

/// Drives a buffered server with random updates at staleness lags
/// {0, 1, 2} for `passes` aggregations and returns what each filter pass
/// allocated. Passes 0–2 each open a fresh staleness group; later passes
/// find all three groups warm.
fn filter_pass_costs(dim: usize, omega: usize, passes: usize) -> Vec<PassCost> {
    let costs = Arc::new(Mutex::new(Vec::new()));
    let filter = MeteredFilter {
        inner: AsyncFilter::default(),
        passes: Arc::clone(&costs),
    };
    let mut server = BufferedServer::new(
        Vector::zeros(dim),
        omega,
        64,
        Box::new(filter),
        Box::new(MeanAggregator::new()),
    );
    let mut rng = StdRng::seed_from_u64(0xA5F1);
    let mut fed = 0;
    while server.round() < passes as u64 {
        let base_round = server.round().saturating_sub(fed as u64 % 3);
        let base = server.global_at(base_round).unwrap().clone();
        let delta = Vector::from_fn(dim, |_| rng.random_range(-0.5..0.5));
        server.receive(ClientUpdate::from_delta(
            fed % 64,
            base_round,
            0,
            &base,
            delta,
            10,
        ));
        fed += 1;
    }
    let costs = costs.lock().unwrap().clone();
    costs
}

/// Asserts the warm passes (index 3 on) of `costs` stay within bounds.
fn assert_warm_passes(costs: &[PassCost], shape: &str, bytes_bound: u64) {
    for (pass, cost) in costs.iter().enumerate().skip(3) {
        assert!(
            cost.bytes <= bytes_bound && cost.allocs <= WARM_PASS_ALLOCS_BOUND,
            "warm filter pass {pass} at {shape} allocated {} bytes in {} allocations \
             (bounds {bytes_bound} bytes, {WARM_PASS_ALLOCS_BOUND} allocations): {costs:?}",
            cost.bytes,
            cost.allocs
        );
    }
}

/// Bytes of one `train` call with `epochs` local epochs and the profile's
/// batch size, on a fresh model and optimizer for `profile`.
fn train_bytes(profile: DatasetProfile, epochs: usize, data: &Dataset) -> u64 {
    let mut rng = StdRng::seed_from_u64(0x7122);
    let task = profile.build_task(&mut rng);
    let mut model = build_model(&profile, &task, &mut rng);
    let mut optimizer = build_optimizer(&profile, model.num_params());
    let trainer = LocalTrainer::new(epochs, LocalTrainer::from_profile(&profile).batch_size());
    let (stats, bytes) =
        measure(|| trainer.train(model.as_mut(), data, optimizer.as_mut(), &mut rng));
    assert_eq!(
        stats.steps,
        epochs * data.len().div_ceil(trainer.batch_size())
    );
    bytes
}

#[test]
fn hot_paths_stay_within_their_allocation_bounds() {
    // Warm passes at the wide server's shape and at the paper's Ω = 40
    // on the CIFAR model.
    let wide = filter_pass_costs(WIDE_DIM, 32, 5);
    assert!(
        wide[..3].iter().all(|c| c.bytes > WIDE_VECTOR_BYTES),
        "fresh-group passes bootstrap a dimension-sized estimate: {wide:?}"
    );
    assert_warm_passes(&wide, "dim 131 072, Ω = 32", WIDE_PASS_BYTES_BOUND);
    let paper = filter_pass_costs(CIFAR_PARAMS, 40, 5);
    assert_warm_passes(&paper, "dim 1 898, Ω = 40", PAPER_PASS_BYTES_BOUND);

    // Ingest short of an aggregation, after the first pass: `from_delta`
    // plus `receive` of a wide delta builds no ω and the buffer keeps its
    // capacity across passes, so it allocates nothing. Regrowing the
    // buffer cost 5 952 bytes a pass, building ω 1 MiB per call.
    let mut server = BufferedServer::new(
        Vector::zeros(WIDE_DIM),
        32,
        20,
        Box::new(AsyncFilter::default()),
        Box::new(MeanAggregator::new()),
    );
    let mut rng = StdRng::seed_from_u64(0x1A6);
    let mut wide_delta = || Vector::from_fn(WIDE_DIM, |_| rng.random_range(-0.5..0.5));
    for i in 0..32 {
        let base = server.global_arc();
        server.receive(ClientUpdate::from_delta(i, 0, 0, &base, wide_delta(), 10));
    }
    assert_eq!(server.round(), 1);
    let mut ingest = Vec::new();
    for i in server.buffer_len()..31 {
        let (delta, base) = (wide_delta(), server.global_arc());
        let (report, bytes) =
            measure(|| server.receive(ClientUpdate::from_delta(i, 1, 0, &base, delta, 10)));
        assert!(report.is_none());
        ingest.push(bytes);
    }
    let total: u64 = ingest.iter().sum();
    assert_eq!(
        total,
        0,
        "{} non-aggregating from_delta + receive calls after the first pass at dim \
         {WIDE_DIM} allocated {total} bytes: {ingest:?}",
        ingest.len()
    );
    drop(server);

    // One FedBuff mean aggregate over 32 wide deltas.
    let mut rng = StdRng::seed_from_u64(0xA66);
    let base = Vector::zeros(WIDE_DIM);
    let updates: Vec<ClientUpdate> = (0..32)
        .map(|i| {
            let delta = Vector::from_fn(WIDE_DIM, |_| rng.random_range(-0.5..0.5));
            ClientUpdate::from_delta(i, 0, 0, &base, delta, 10)
        })
        .collect();
    let mut aggregator = MeanAggregator::new();
    let (next, bytes) = measure(|| aggregator.aggregate(&updates, &base));
    assert_eq!(next.len(), WIDE_DIM);
    drop((next, updates));
    assert!(
        bytes <= AGGREGATE_BYTES_BOUND,
        "one mean aggregate at dim {WIDE_DIM}, Ω = 32 allocated {bytes} bytes \
         (bound {AGGREGATE_BYTES_BOUND})"
    );

    // One NNM aggregate (k = 3, over a mean) of wide updates: a mixed
    // delta per update, no copy of the update it replaces.
    let mut rng = StdRng::seed_from_u64(0x22A);
    let base = Arc::new(Vector::zeros(WIDE_DIM));
    let updates: Vec<ClientUpdate> = (0..NNM_UPDATES as usize)
        .map(|i| {
            let delta = Vector::from_fn(WIDE_DIM, |_| rng.random_range(-0.5..0.5));
            ClientUpdate::with_base(i, 0, 0, Arc::clone(&base), delta, 10)
        })
        .collect();
    let mut nnm = NnmAggregator::new(3, Box::new(MeanAggregator::new()));
    let (next, bytes) = measure(|| nnm.aggregate(&updates, &base));
    assert_eq!(next.len(), WIDE_DIM);
    drop((next, updates));
    assert!(
        bytes <= NNM_BYTES_BOUND,
        "one NNM aggregate of {NNM_UPDATES} updates at dim {WIDE_DIM} allocated {bytes} bytes \
         (bound {NNM_BYTES_BOUND})"
    );

    // One local training call on the CIFAR profile, and what each epoch
    // adds on both profiles: exactly the minibatch permutation, nothing
    // per step.
    for profile in [DatasetProfile::Mnist, DatasetProfile::Cifar10] {
        let mut rng = StdRng::seed_from_u64(0x7121);
        let task = profile.build_task(&mut rng);
        let data = task.test_dataset(256, &mut rng);
        let five = train_bytes(profile, 5, &data);
        let one = train_bytes(profile, 1, &data);
        if profile == DatasetProfile::Cifar10 {
            assert_eq!(
                build_model(&profile, &task, &mut rng).num_params(),
                CIFAR_PARAMS
            );
            assert_eq!(LocalTrainer::from_profile(&profile).epochs(), 5);
            assert!(
                five <= TRAIN_BYTES_BOUND,
                "one CIFAR-profile train call allocated {five} bytes \
                 (bound {TRAIN_BYTES_BOUND})"
            );
        }
        let permutation = (data.len() * std::mem::size_of::<usize>()) as u64;
        assert_eq!(
            five - one,
            4 * permutation,
            "{profile:?}: four extra epochs must cost exactly four {permutation}-byte \
             permutations (1 epoch {one} B, 5 epochs {five} B)"
        );
    }

    // Kickoff: `spawn` skips a client's shard draws instead of building
    // the shard, and leaves the shard cache empty.
    let mut cfg = SimConfig::paper_default(DatasetProfile::Mnist);
    cfg.num_clients = KICKOFF_CLIENTS;
    cfg.num_malicious = KICKOFF_CLIENTS / 5;
    cfg.partition_size = Some(4);
    let sim = Simulation::new(cfg);
    let ((), bytes) = measure(|| {
        for client in 0..KICKOFF_CLIENTS {
            std::hint::black_box(sim.spawner().spawn(client));
        }
    });
    let per_client = bytes / KICKOFF_CLIENTS as u64;
    assert!(
        per_client <= SPAWN_BYTES_PER_CLIENT_BOUND,
        "spawning {KICKOFF_CLIENTS} clients allocated {per_client} bytes per client \
         (bound {SPAWN_BYTES_PER_CLIENT_BOUND}; {bytes} bytes in all)"
    );
    assert_eq!(
        sim.spawner().resident_states(),
        0,
        "spawn must not synthesize or cache shards"
    );

    // A whole small run, per received update.
    let mut cfg = SimConfig::smoke_test();
    cfg.threads = 1;
    cfg.partition_size = Some(1_024);
    let mut sim = Simulation::new(cfg);
    let (result, bytes) = measure(|| sim.run(Box::new(AsyncFilter::default()), AttackKind::Gd));
    assert_eq!(result.rounds_completed, 8);
    let per_update = bytes / result.updates_received;
    assert!(
        per_update <= RUN_BYTES_PER_UPDATE_BOUND,
        "a small run allocated {per_update} bytes per received update \
         (bound {RUN_BYTES_PER_UPDATE_BOUND}; {bytes} bytes over {} updates)",
        result.updates_received
    );
}
