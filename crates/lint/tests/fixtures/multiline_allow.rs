//@ lint-as: crates/core/src/fixture.rs
//! Multi-line justification: continuation comment lines extend both the
//! reason and the coverage window down to the code they explain.

// lint:allow(P2) -- the constructor asserted `k >= 1`, so the partition
// produced here is non-empty and index 0 is in bounds; the coverage
// window follows the wrapped reason down to the next code line.
fn covered(parts: &[u64]) -> u64 { parts[0] }
