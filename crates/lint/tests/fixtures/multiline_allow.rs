//@ lint-as: crates/core/src/fixture.rs
//! Multi-line justification: continuation comment lines extend both the
//! reason and the coverage window down to the code they explain.

// lint:allow(F3) -- two per-shard partial sums, added in shard order, so
// the reduction order is fixed by the caller's shard layout; the coverage
// window follows the wrapped reason down to the next code line.
fn covered(parts: &[f64]) -> f64 { parts.iter().sum::<f64>() }
