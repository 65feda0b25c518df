//@ lint-as: crates/core/src/fixture.rs
//! A0/A2 — the escape hatch policed: a reason-less allow, an allow naming
//! an unknown rule, allows naming clippy-enforced ids, and a stale allow
//! suppressing nothing.

// lint:allow(F2)
fn no_reason(loss: f64) -> bool {
    loss == 0.25
}

// lint:allow(Q9) -- no such rule
fn unknown_rule() {}

// lint:allow(P1) -- P1 is clippy's now: `#[expect(clippy::panic, reason = …)]`
fn clippy_id() {}

// lint:allow(P2) -- P2 is clippy's now: `#[expect(clippy::indexing_slicing, reason = …)]`
fn clippy_indexing_id() {}

// lint:allow(F2) -- nothing below violates F2, so this is stale
fn stale() {}
