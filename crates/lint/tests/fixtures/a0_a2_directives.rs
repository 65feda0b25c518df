//@ lint-as: crates/core/src/fixture.rs
//! A0/A2 — the escape hatch policed: a reason-less allow, an allow naming
//! an unknown rule, an allow naming a clippy-enforced id, and a stale
//! allow suppressing nothing.

// lint:allow(P2)
fn no_reason(buffer: &[u64]) -> u64 {
    buffer[0]
}

// lint:allow(Q9) -- no such rule
fn unknown_rule() {}

// lint:allow(P1) -- P1 is clippy's now: `#[expect(clippy::panic, reason = …)]`
fn clippy_id() {}

// lint:allow(F2) -- nothing below violates F2, so this is stale
fn stale() {}
