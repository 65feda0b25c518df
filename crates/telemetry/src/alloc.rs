//! A first-party counting global allocator.
//!
//! Wall-clock spans alone leave a memory blowup invisible until OOM.
//! [`CountingAllocator`] wraps [`std::alloc::System`] and keeps five
//! process-wide atomic counters — bytes allocated, bytes freed, live
//! bytes, peak live bytes, and allocation count. [`crate::Span`] samples
//! them to attribute allocation activity to the
//! `filter`/`aggregate`/`local_training` phases of a `--trace` run, and
//! the allocation-bound tests (`tests/hot_path_alloc.rs`,
//! `tests/filter_pass_alloc.rs`, `tests/memory_scale.rs`) read them
//! directly to bound the hot paths.
//!
//! Install it in a binary (or an integration-test) root:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: asyncfl_telemetry::alloc::CountingAllocator =
//!     asyncfl_telemetry::alloc::CountingAllocator::new();
//! ```
//!
//! When no `CountingAllocator` is installed every counter stays zero and
//! [`is_active`] returns `false`; span events then carry zero allocation
//! deltas, which the metrics registry's summary treats as "not measured".
//!
//! The implementation is intentionally simple and hermetic: five relaxed
//! atomics, no thread-local caching, no sampling. The counters are
//! *observers* — they never change allocation behaviour, so determinism
//! pins (`tests/determinism.rs`) hold bit-for-bit with the instrumentation
//! enabled.

#![expect(
    unsafe_code,
    reason = "implementing `GlobalAlloc` requires unsafe fn signatures; every method \
              delegates directly to `System` and only adds atomic counter updates"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Total bytes handed out by `alloc`/`realloc` since process start.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
/// Total bytes returned via `dealloc`/`realloc` shrink since process start.
static FREED: AtomicU64 = AtomicU64::new(0);
/// Bytes currently live (allocated minus freed).
static LIVE: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`LIVE`].
static PEAK_LIVE: AtomicU64 = AtomicU64::new(0);
/// Number of successful allocation calls (`alloc`, `alloc_zeroed`, and
/// growing `realloc`s).
static COUNT: AtomicU64 = AtomicU64::new(0);

/// A point-in-time reading of the allocator counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocSnapshot {
    /// Cumulative bytes allocated.
    pub allocated_bytes: u64,
    /// Cumulative bytes freed.
    pub freed_bytes: u64,
    /// Bytes currently live.
    pub live_bytes: u64,
    /// High-water mark of live bytes.
    pub peak_live_bytes: u64,
    /// Cumulative successful allocation calls.
    pub alloc_count: u64,
}

/// Reads all counters at once (each individually `Relaxed`; the snapshot
/// is not atomic across counters, which is fine for telemetry).
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocated_bytes: ALLOCATED.load(Ordering::Relaxed),
        freed_bytes: FREED.load(Ordering::Relaxed),
        live_bytes: LIVE.load(Ordering::Relaxed),
        peak_live_bytes: PEAK_LIVE.load(Ordering::Relaxed),
        alloc_count: COUNT.load(Ordering::Relaxed),
    }
}

/// Cumulative bytes allocated since process start.
pub fn allocated_bytes() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

/// Bytes currently live.
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// High-water mark of live bytes.
pub fn peak_live_bytes() -> u64 {
    PEAK_LIVE.load(Ordering::Relaxed)
}

/// Cumulative successful allocation calls.
pub fn alloc_count() -> u64 {
    COUNT.load(Ordering::Relaxed)
}

/// Whether a [`CountingAllocator`] is installed in this process (detected
/// by the counters having moved — any running Rust program allocates long
/// before user code runs, so a zero count means "not installed").
pub fn is_active() -> bool {
    COUNT.load(Ordering::Relaxed) > 0
}

fn on_alloc(bytes: usize) {
    let bytes = bytes as u64;
    ALLOCATED.fetch_add(bytes, Ordering::Relaxed);
    COUNT.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_LIVE.fetch_max(live, Ordering::Relaxed);
}

fn on_free(bytes: usize) {
    let bytes = bytes as u64;
    FREED.fetch_add(bytes, Ordering::Relaxed);
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

/// A [`GlobalAlloc`] wrapping [`System`] with byte/count accounting.
///
/// Zero-sized and `const`-constructible so it can be a
/// `#[global_allocator]` static.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAllocator;

impl CountingAllocator {
    /// The allocator value to place in a `#[global_allocator]` static.
    pub const fn new() -> Self {
        Self
    }
}

// SAFETY: every method forwards to `System`, which upholds the
// `GlobalAlloc` contract; the counter updates are side-effect-only and
// never touch the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Account the delta as one free of the old block plus one
            // allocation of the new one, so `allocated - freed` stays the
            // exact live-byte count.
            on_free(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The telemetry test binary installs the counting allocator (see
    // `lib.rs`), so these tests observe real counter movement. Counters
    // are process-global and tests run in parallel: assert monotonic
    // growth and lower bounds only, never exact values.

    #[test]
    fn counters_move_when_allocating() {
        let before = snapshot();
        assert!(is_active(), "test binary must install CountingAllocator");
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        let after = snapshot();
        drop(v);
        assert!(
            after.allocated_bytes >= before.allocated_bytes + (1 << 20),
            "1 MiB allocation must be visible: {before:?} -> {after:?}"
        );
        assert!(after.alloc_count > before.alloc_count);
        assert!(after.peak_live_bytes >= before.peak_live_bytes);
    }

    #[test]
    fn freeing_returns_bytes() {
        let before = snapshot();
        drop(Vec::<u8>::with_capacity(1 << 16));
        let after = snapshot();
        assert!(after.freed_bytes >= before.freed_bytes + (1 << 16));
    }

    #[test]
    fn live_bytes_is_allocated_minus_freed() {
        // The identity holds globally at every instant (modulo the
        // non-atomic multi-counter read, so allow concurrent-test slack
        // by re-deriving from one snapshot).
        let s = snapshot();
        assert_eq!(s.live_bytes, s.allocated_bytes - s.freed_bytes);
        assert!(s.peak_live_bytes >= s.live_bytes || s.alloc_count == 0);
    }

    #[test]
    fn realloc_accounts_the_delta() {
        let before = snapshot();
        let mut v: Vec<u8> = vec![0; 1024];
        v.reserve_exact(64 * 1024); // forces a realloc to >= 64 KiB
        let after = snapshot();
        drop(v);
        assert!(after.allocated_bytes >= before.allocated_bytes + 64 * 1024);
        assert!(after.freed_bytes >= before.freed_bytes);
    }
}
