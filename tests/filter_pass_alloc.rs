//! Allocation bound on one AsyncFilter pass at the scale workloads' Ω
//! (DESIGN.md §6 item 4).
//!
//! A pass over a fresh staleness group bootstraps the group's estimate
//! with a coordinate-wise trimmed mean and clusters Ω scores with exact
//! 3-means. A stable sort of each coordinate's column used to allocate a
//! merge buffer per coordinate, ~64 KB each at Ω = 8 192, ~22 MB a pass.
//! The bound below is about twice what the selection-based bootstrap and
//! the divide-and-conquer 3-means allocate, so a per-column or per-cell
//! allocation creeping back in fails it. At Ω = 8 192 the bootstrap stays
//! on selection; the sorting network serves groups of at most 128.

use asyncfilter::prelude::*;
use asyncfl_rng::rngs::StdRng;
use asyncfl_rng::{RngExt, SeedableRng};

#[global_allocator]
static ALLOC: asyncfilter::telemetry::alloc::CountingAllocator =
    asyncfilter::telemetry::alloc::CountingAllocator::new();

const OMEGA: usize = 8_192;
const DIM: usize = 330;
/// About twice the 4 312 088 bytes one such pass allocates (the stable
/// sorts allocated 25 941 480).
const PASS_BYTES_BOUND: u64 = 9_000_000;

#[test]
fn one_fresh_group_pass_at_omega_8192_stays_within_its_allocation_bound() {
    let mut rng = StdRng::seed_from_u64(7);
    let center: Vec<f64> = (0..DIM).map(|_| rng.random_range(-0.5..0.5)).collect();
    // One staleness group, never seen before; every 40th update is far
    // from the benign cloud.
    let updates: Vec<ClientUpdate> = (0..OMEGA)
        .map(|i| {
            let malicious = i % 40 == 0;
            let shift = if malicious { 1.0 } else { 0.0 };
            let params =
                Vector::from_fn(DIM, |d| center[d] + shift + rng.random_range(-0.01..0.01));
            ClientUpdate::new(i, 0, 0, params, 4).with_truth_malicious(malicious)
        })
        .collect();
    let global = Vector::zeros(DIM);
    let ctx = FilterContext::new(1, &global, 20);
    let mut filter = AsyncFilter::default();

    let before = asyncfilter::telemetry::alloc::allocated_bytes();
    let outcome = filter.filter(updates, &ctx);
    let bytes = asyncfilter::telemetry::alloc::allocated_bytes() - before;

    assert_eq!(
        outcome.accepted.len() + outcome.rejected.len() + outcome.deferred.len(),
        OMEGA
    );
    assert!(
        outcome.rejected.iter().all(|u| u.truth_malicious) && !outcome.rejected.is_empty(),
        "the far updates should be the ones rejected"
    );
    assert!(
        bytes <= PASS_BYTES_BOUND,
        "one Ω = {OMEGA} pass allocated {bytes} bytes (bound {PASS_BYTES_BOUND})"
    );
}
