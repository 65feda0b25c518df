//! The rules this parser enforces: the project invariants clippy cannot
//! express.
//!
//! AsyncFilter's verdicts hinge on floating-point suspicious scores (paper
//! eqs. 6–7) and a 1-D 3-means over them (§4.3), so rounding-fragile float
//! equality, reduction order and mid-run panics on hot paths all change
//! accept/defer/reject decisions. The determinism, NaN-ordering and
//! panic-freedom rules clippy can hold live in `clippy.toml` and the crate
//! roots; `docs/LINTS.md` catalogues both halves.

/// The ids this parser enforces, in catalogue order; each is also a valid
/// `lint:allow` target.
///
/// - `F2`: no float `==`/`!=` against nonzero literals or NaN/∞ in non-test
///   code;
/// - `F3`: no ad-hoc float reductions outside `asyncfl-tensor::kernels`;
/// - `P2`: no unchecked indexing in non-test code of the hot-path crates.
pub const RULES: &[&str] = &["F2", "F3", "P2"];

/// Whether `id` names a known rule (used to validate `lint:allow` lists).
pub fn is_known_rule(id: &str) -> bool {
    RULES.contains(&id)
}

/// One raw rule match, before `lint:allow` filtering.
#[derive(Debug, Clone)]
pub struct RuleHit {
    /// Rule identifier.
    pub rule: &'static str,
    /// 1-based source line.
    pub line: u32,
    /// Byte span `[start, end)` of the offending tokens in the source.
    pub span: (u32, u32),
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}
