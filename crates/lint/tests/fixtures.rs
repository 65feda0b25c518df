//! Per-rule fixture tests: each rule must fire on a minimal violating
//! snippet, stay quiet once a justified `lint:allow` is added, and report
//! the exact `file:line` of the violation.

use asyncfl_lint::engine::check_source;

const LIB_PATH: &str = "crates/core/src/somefile.rs";

/// Violations as `(rule, line)` pairs for a library-classified source.
fn violations(source: &str) -> Vec<(String, u32)> {
    let report = check_source(LIB_PATH, source);
    report
        .violations
        .into_iter()
        .map(|d| {
            assert_eq!(d.path, LIB_PATH);
            (d.rule, d.line)
        })
        .collect()
}

/// Asserts that `source` produces exactly one violation of `rule` at `line`,
/// and that `allowed` (the same snippet with a justified directive) is clean.
fn fires_and_allows(rule: &str, line: u32, source: &str, allowed: &str) {
    let found = violations(source);
    assert_eq!(
        found,
        vec![(rule.to_string(), line)],
        "rule {rule}: wrong violations for:\n{source}"
    );
    let after_allow = violations(allowed);
    assert!(
        after_allow.is_empty(),
        "rule {rule}: allow did not suppress, got {after_allow:?} for:\n{allowed}"
    );
}

#[test]
fn f2_nonzero_literal_equality() {
    fires_and_allows(
        "F2",
        1,
        "fn f(x: f64) -> bool { x == 0.5 }\n",
        "// lint:allow(F2) -- sentinel written by us, bit-exact by construction\n\
         fn f(x: f64) -> bool { x == 0.5 }\n",
    );
}

#[test]
fn f2_nan_comparison_is_always_false() {
    let found = violations("fn f(x: f64) -> bool { x != f64::NAN }\n");
    assert_eq!(found, vec![("F2".to_string(), 1)]);
}

#[test]
fn f2_permits_exact_zero_checks() {
    // x == 0.0 is a well-defined IEEE sparsity/sentinel check.
    assert!(violations("fn f(x: f64) -> bool { x == 0.0 }\n").is_empty());
    assert!(violations("fn f(x: f64) -> bool { x != -0.0 }\n").is_empty());
}

#[test]
fn f3_float_reduction_outside_kernels() {
    fires_and_allows(
        "F3",
        1,
        "fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n",
        "// lint:allow(F3) -- two-element sum, order fixed by the slice\n\
         fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n",
    );
}

#[test]
fn f3_exempts_the_kernels_module_and_bench_crate() {
    let snippet = "fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n";
    for path in ["crates/tensor/src/kernels.rs", "crates/bench/src/lib.rs"] {
        assert!(check_source(path, snippet).violations.is_empty(), "{path}");
    }
}

#[test]
fn p2_unchecked_indexing_in_hot_path_crate() {
    fires_and_allows(
        "P2",
        2,
        "fn f(x: &[u32]) -> u32 {\n    x[0]\n}\n",
        "fn f(x: &[u32]) -> u32 {\n    x[0] // lint:allow(P2) -- caller guarantees non-empty\n}\n",
    );
}

#[test]
fn p2_exempts_test_code_binaries_and_cold_crates() {
    let snippet = "fn f(x: &[u32]) -> u32 { x[0] }\n";
    for path in [
        "crates/core/src/main.rs",
        "crates/core/src/bin/tool.rs",
        "crates/analysis/src/lib.rs",
        "crates/core/tests/it.rs",
    ] {
        assert!(check_source(path, snippet).violations.is_empty(), "{path}");
    }
    let in_test_mod = format!("#[cfg(test)]\nmod tests {{\n    {snippet}}}\n");
    assert!(check_source(LIB_PATH, &in_test_mod).violations.is_empty());
}

#[test]
fn stale_allow_is_a_hard_error() {
    // v2 semantics: a lint:allow whose rule no longer fires in its window
    // is rule A2 — a violation, not a warning — so dead justifications
    // cannot accumulate.
    let report = check_source(
        LIB_PATH,
        "// lint:allow(P2) -- stale justification\nfn f() {}\n",
    );
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.violations[0].rule, "A2");
    assert_eq!(report.violations[0].line, 1);
}

#[test]
fn allow_without_reason_is_rejected() {
    let report = check_source(
        LIB_PATH,
        "fn f(x: &[u32]) -> u32 { x[0] } // lint:allow(P2)\n",
    );
    assert!(
        report.violations.iter().any(|d| d.rule == "A0"),
        "{:?}",
        report.violations
    );
}

/// Every id the parser enforces has a catalogue entry, as do the directive
/// checks it reports: `docs/LINTS.md` is where a diagnostic sends a reader.
#[test]
fn every_rule_has_a_lints_md_entry() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/LINTS.md");
    let doc = std::fs::read_to_string(&path).expect("docs/LINTS.md must exist");
    let ids = asyncfl_lint::rules::RULES.iter().copied();
    let missing: Vec<&str> = ids
        .chain(["A0", "A2"])
        .filter(|id| !doc.contains(&format!("### {id}")))
        .collect();
    assert!(
        missing.is_empty(),
        "docs/LINTS.md has no `### <id>` entry for {missing:?}"
    );
}
