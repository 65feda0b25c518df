//! The one event order both engines share (DESIGN.md §12).
//!
//! Pending work is ordered by `(time, seq)`: due time first under
//! `f64::total_cmp`, then submission sequence number as the tie-break,
//! so the order is total even under time ties. Each engine keeps a
//! `std::collections::BinaryHeap` of [`HeapEntry`]; the deterministic
//! engine holds exactly one entry per client for the whole run.

use std::cmp::Ordering;

/// The scheduling key every queued event exposes: the virtual (or wall)
/// time it becomes due, plus a submission sequence number that makes the
/// order total even under time ties.
pub(crate) trait EventKey {
    /// When the event becomes due.
    fn time(&self) -> f64;
    /// Tie-break: earlier submissions pop first among equal times.
    fn seq(&self) -> u64;
}

/// `(time, seq)` ascending.
fn key_cmp<T: EventKey>(a: &T, b: &T) -> Ordering {
    a.time()
        .total_cmp(&b.time())
        .then_with(|| a.seq().cmp(&b.seq()))
}

/// Max-heap adapter: reversed `(time, seq)` so `BinaryHeap` pops the
/// minimum key first.
pub(crate) struct HeapEntry<T>(pub(crate) T);

impl<T: EventKey> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        key_cmp(&self.0, &other.0) == Ordering::Equal
    }
}
impl<T: EventKey> Eq for HeapEntry<T> {}
impl<T: EventKey> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: EventKey> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        key_cmp(&other.0, &self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    /// Minimal keyed event for exercising the order.
    struct Ev {
        t: f64,
        s: u64,
    }

    impl EventKey for Ev {
        fn time(&self) -> f64 {
            self.t
        }
        fn seq(&self) -> u64 {
            self.s
        }
    }

    /// Pushes `(time, seq)` pairs and returns the seqs in pop order.
    fn pop_order(events: &[(f64, u64)]) -> Vec<u64> {
        let mut heap: BinaryHeap<HeapEntry<Ev>> = events
            .iter()
            .map(|&(t, s)| HeapEntry(Ev { t, s }))
            .collect();
        std::iter::from_fn(|| heap.pop()).map(|e| e.0.s).collect()
    }

    #[test]
    fn pops_ascend_by_time_then_seq() {
        // Ties at t = 2.0 must pop in seq order.
        let order = pop_order(&[(5.0, 0), (2.0, 1), (2.0, 2), (9.0, 3), (0.5, 4), (2.0, 5)]);
        assert_eq!(order, vec![4, 1, 2, 5, 0, 3]);
    }

    #[test]
    fn nonfinite_times_degrade_gracefully() {
        let order = pop_order(&[(1.0, 0), (f64::INFINITY, 1), (2.0, 2)]);
        assert_eq!(order, vec![0, 2, 1]);
    }
}
