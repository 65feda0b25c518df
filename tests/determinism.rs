//! Determinism regression tests — the runtime counterpart of the `D1`/`D2`
//! rules (`docs/LINTS.md`).
//!
//! AsyncFilter's accept/defer/reject verdicts must be a pure function of
//! (seed, inputs): the paper's detection-quality tables are only meaningful
//! if a rerun reproduces them bit-for-bit. Two properties are pinned here:
//!
//! 1. **Run-level**: the same seeded simulation executed twice yields
//!    byte-identical round reports and filter-verdict traces.
//! 2. **Batch-level**: within one aggregation buffer, the arrival *order*
//!    of updates must not change any client's verdict — the filter's
//!    geometry (eqs. 4–7) is a function of the buffer as a set.

use asyncfilter::prelude::*;
use asyncfilter::sim::runner::build_attack;
use std::sync::Arc;

// Run the determinism pins with allocation accounting live: the counting
// allocator is observer-only, so verdict traces must stay byte-identical
// with it installed (threads=1 and threads=4 both covered below).
#[global_allocator]
static ALLOC: asyncfilter::telemetry::alloc::CountingAllocator =
    asyncfilter::telemetry::alloc::CountingAllocator::new();

fn small_config() -> SimConfig {
    let mut cfg = SimConfig::smoke_test();
    cfg.num_clients = 16;
    cfg.num_malicious = 4;
    cfg.aggregation_bound = 8;
    cfg.rounds = 8;
    cfg.test_samples = 200;
    cfg
}

/// One traced run: `RunResult` plus the full filter-verdict event stream.
fn traced_run(seed: u64) -> (RunResult, Vec<Event>) {
    traced_run_threaded(seed, 1)
}

/// As [`traced_run`], with an explicit worker-thread count.
fn traced_run_threaded(seed: u64, threads: usize) -> (RunResult, Vec<Event>) {
    let mem = Arc::new(MemorySink::new(100_000));
    let sink = SharedSink::from_arc(Arc::clone(&mem) as Arc<dyn Sink>);
    let mut sim = Simulation::new(small_config().with_seed(seed).with_threads(threads));
    let attack = build_attack(
        AttackKind::Gd,
        sim.config().num_clients,
        sim.config().num_malicious,
    );
    let result = sim.run_with_sink(
        Box::new(AsyncFilter::default()),
        attack,
        Box::new(MeanAggregator::new()),
        Some(sink),
    );
    let verdicts: Vec<Event> = mem
        .events()
        .into_iter()
        .filter(|e| matches!(e, Event::FilterScore { .. }))
        .collect();
    (result, verdicts)
}

#[test]
fn seeded_runs_replay_byte_identically() {
    let (first, first_verdicts) = traced_run(42);
    let (second, second_verdicts) = traced_run(42);

    // The whole result must match structurally…
    assert_eq!(first, second);
    // …and the filtering trace must match byte-for-byte, not just "close":
    // Debug formatting captures every f64 bit pattern that differs.
    assert_eq!(
        format!("{:?}", first.round_reports),
        format!("{:?}", second.round_reports)
    );
    assert_eq!(
        format!("{first_verdicts:?}"),
        format!("{second_verdicts:?}"),
        "per-update filter verdicts diverged between identical seeded runs"
    );
    // Sanity: the trace is non-trivial (the filter actually judged updates).
    assert!(!first_verdicts.is_empty());
}

#[test]
fn worker_pool_replays_byte_identically() {
    // Dispatch-time determinism: with threads > 1 the engine trains
    // in-flight clients eagerly on a worker pool, but consumes completions
    // in the same heap order — so the parallel run must match the
    // sequential one bit-for-bit, not just statistically.
    let (sequential, sequential_verdicts) = traced_run_threaded(42, 1);
    let (parallel, parallel_verdicts) = traced_run_threaded(42, 4);

    assert_eq!(sequential, parallel);
    assert_eq!(sequential.final_accuracy, parallel.final_accuracy);
    assert_eq!(
        format!("{:?}", sequential.round_reports),
        format!("{:?}", parallel.round_reports),
        "round reports diverged between threads=1 and threads=4"
    );
    assert_eq!(
        format!("{sequential_verdicts:?}"),
        format!("{parallel_verdicts:?}"),
        "per-update filter verdicts diverged between threads=1 and threads=4"
    );
    assert!(!sequential_verdicts.is_empty());
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn golden_digest_is_stable_across_commits() {
    // Cross-commit pin: the other tests compare two runs of one binary,
    // so they cannot see a shift that moves every run alike (a change of
    // event order, a reduction or a stream). This digest of the whole
    // `RunResult` and every per-update verdict is recorded once; any
    // byte that moves changes it.
    for (threads, want) in [(1, 0x9dcf_c0e3_6f69_d4d2_u64), (4, 0x9dcf_c0e3_6f69_d4d2)] {
        let (result, verdicts) = traced_run_threaded(42, threads);
        let text = format!("{result:?}{verdicts:?}");
        let got = fnv1a64(text.as_bytes());
        assert_eq!(
            got, want,
            "golden digest moved at threads={threads}: {got:#018x}"
        );
    }
}

#[test]
fn different_seeds_actually_differ() {
    // Guards against the trivial failure mode where determinism holds
    // because the seed is ignored entirely.
    let (a, _) = traced_run(42);
    let (b, _) = traced_run(43);
    assert_ne!(a.final_accuracy, b.final_accuracy);
}

/// A buffer with clearly separated benign/outlier geometry and distinct
/// score values (so 3-means has no ties for the shuffle to exploit).
fn batch() -> Vec<ClientUpdate> {
    let base = std::sync::Arc::new(Vector::zeros(3));
    let mut updates: Vec<ClientUpdate> = (0..9)
        .map(|c| {
            let delta = Vector::from(vec![1.0 + 0.03 * c as f64, 0.5 - 0.01 * c as f64, 0.2]);
            ClientUpdate::with_base(c, 0, 0, std::sync::Arc::clone(&base), delta, 10)
        })
        .collect();
    updates.push(ClientUpdate::with_base(
        9,
        0,
        0,
        base,
        Vector::from(vec![80.0, -40.0, 60.0]),
        10,
    ));
    updates
}

/// Sorted `(client, verdict)` pairs plus client-sorted scores for one
/// freshly created filter fed `updates` in the given order.
fn verdict_fingerprint(updates: Vec<ClientUpdate>) -> (Vec<(usize, &'static str)>, Vec<f64>) {
    let mut filter = AsyncFilter::default();
    let global = Vector::zeros(3);
    let ctx = FilterContext::new(0, &global, 20);
    let outcome = filter.filter(updates, &ctx);
    let mut verdicts: Vec<(usize, &'static str)> = Vec::new();
    for u in &outcome.accepted {
        verdicts.push((u.client, "accept"));
    }
    for u in &outcome.rejected {
        verdicts.push((u.client, "reject"));
    }
    for u in &outcome.deferred {
        verdicts.push((u.client, "defer"));
    }
    verdicts.sort_unstable();
    let mut scores: Vec<(usize, f64)> = filter
        .last_scores()
        .iter()
        .map(|r| (r.client, r.score))
        .collect();
    scores.sort_by_key(|&(client, _)| client);
    (verdicts, scores.into_iter().map(|(_, s)| s).collect())
}

#[test]
fn within_batch_arrival_order_is_irrelevant() {
    let (ref_verdicts, ref_scores) = verdict_fingerprint(batch());
    // Several deterministic permutations: reversal and all rotations.
    let mut permutations: Vec<Vec<ClientUpdate>> = Vec::new();
    let mut reversed = batch();
    reversed.reverse();
    permutations.push(reversed);
    for rot in 1..batch().len() {
        let mut rotated = batch();
        rotated.rotate_left(rot);
        permutations.push(rotated);
    }
    for (i, perm) in permutations.into_iter().enumerate() {
        let (verdicts, scores) = verdict_fingerprint(perm);
        // Verdicts must match byte-for-byte: the accept/defer/reject
        // decision is what the paper's detection tables are built from.
        assert_eq!(verdicts, ref_verdicts, "permutation {i} changed a verdict");
        // Scores may differ in the final ulp (eq. 7 sums squared distances
        // in arrival order and float addition is not associative), but any
        // drift beyond that is a real order-dependence bug.
        for (s, r) in scores.iter().zip(&ref_scores) {
            assert!(
                (s - r).abs() <= 1e-12,
                "permutation {i} moved a score beyond rounding: {s} vs {r}"
            );
        }
    }
    // Sanity: the scenario is non-trivial — the outlier is actually singled
    // out by the reference run.
    assert!(ref_verdicts
        .iter()
        .any(|&(c, v)| c == 9 && (v == "reject" || v == "defer")));
}
