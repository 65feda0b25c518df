//! `asyncfl-lint` — the AsyncFilter workspace's token lints: the project
//! invariants clippy cannot express.
//!
//! AsyncFilter's verdicts hinge on floating-point suspicious scores (paper
//! eqs. 6–7) and a 1-D 3-means over them (§4.3). The determinism, NaN-order,
//! indexing and panic-freedom rules clippy can hold (D1, D2, D4, F1, P1, P2)
//! live in the root `clippy.toml` and each library crate's root attributes.
//! This crate is a small Rust tokenizer plus a per-file engine for the rest:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `F2` | no float `==`/`!=` against nonzero literals or NaN/∞ in non-test code |
//! | `F3` | no ad-hoc float reductions outside `asyncfl-tensor::kernels` |
//! | `A0`/`A2` | every `lint:allow` names a rule, gives a reason, and suppresses something |
//!
//! Escape hatch: `// lint:allow(<rule>) -- <reason>` on the violating line
//! or the line above. The reason is mandatory. See `docs/LINTS.md` for the
//! full catalogue, including the clippy-enforced ids, and the
//! rule-applicability matrix.
//!
//! Run it as `cargo run -p asyncfl-lint -- check`. The crate has zero
//! external dependencies, like `asyncfl-telemetry`.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod engine;
pub mod report;
pub mod rules;
pub mod tokenizer;

pub use engine::{check_source, Diagnostic, FileClass, FileReport};
pub use report::RunSummary;

/// Lints a set of `(path, source)` pairs and aggregates the results.
pub fn check_files<'a, I>(files: I) -> RunSummary
where
    I: IntoIterator<Item = (&'a str, &'a str)>,
{
    let mut summary = RunSummary::default();
    for (path, source) in files {
        let report = check_source(path, source);
        summary.files_scanned += 1;
        summary.violations.extend(report.violations);
        summary.allows_used += report.allows_used;
        summary.allows_total += report.allows_total;
    }
    summary
        .violations
        .sort_by(|a, b| (&a.path, a.line, a.col).cmp(&(&b.path, b.line, b.col)));
    summary
}
