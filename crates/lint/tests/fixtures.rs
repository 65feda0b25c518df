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
fn f2_negative_literal_and_neg_infinity_are_fragile_comparands() {
    let src =
        "fn f(x: f64, y: f32) -> bool {\n    x == -0.25\n        || f32::NEG_INFINITY != y\n}\n";
    assert_eq!(
        violations(src),
        vec![("F2".to_string(), 2), ("F2".to_string(), 3)]
    );
}

#[test]
fn f2_permits_exact_zero_checks() {
    // x == 0.0 is a well-defined IEEE sparsity/sentinel check.
    assert!(violations("fn f(x: f64) -> bool { x == 0.0 }\n").is_empty());
    assert!(violations("fn f(x: f64) -> bool { x != -0.0 }\n").is_empty());
}

#[test]
fn f2_ignores_comparands_inside_larger_operands() {
    // Arithmetic binds tighter than `==`: the comparand is `0.5 * y`.
    assert!(violations("fn f(x: f64, y: f64) -> bool { x == 0.5 * y }\n").is_empty());
    assert!(violations("fn f(x: f64, y: f64) -> bool { y - 0.5 == x }\n").is_empty());
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
fn f3_exempts_the_kernels_module_bench_crate_and_test_files() {
    let snippet = "fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n";
    for path in [
        "crates/tensor/src/kernels.rs",
        "crates/bench/src/lib.rs",
        "crates/core/tests/it.rs",
    ] {
        assert!(check_source(path, snippet).violations.is_empty(), "{path}");
    }
}

#[test]
fn f3_exempts_cfg_test_modules() {
    let src = "#[cfg(test)]\nmod tests {\n    fn f(xs: &[f64]) -> f64 {\n        \
               xs.iter().sum::<f64>()\n    }\n}\n";
    assert!(violations(src).is_empty());
}

#[test]
fn f3_exempts_debug_assert_arguments() {
    let src = "fn f(xs: &[f64]) {\n    debug_assert!(xs.iter().sum::<f64>() < 1.0);\n    \
               debug_assert_eq!(xs.iter().fold(0.0, |a, b| a + b), 1.0);\n}\n";
    assert!(violations(src).is_empty());
}

#[test]
fn f3_exempts_max_and_min_folds() {
    let src = "fn f(xs: &[f64]) -> f64 {\n    xs.iter().copied().fold(0.0, f64::max)\n}\n\
               fn g(xs: &[f64]) -> f64 {\n    xs.iter().copied().fold(0.0, |a, b| a.max(b))\n}\n";
    assert!(violations(src).is_empty());
}

#[test]
fn f3_accumulation_in_a_closure() {
    let src = "fn f(xs: &[f64]) -> f64 {\n    let mut acc = 0.0;\n    \
               xs.iter().for_each(|x| acc += x);\n    acc\n}\n";
    assert_eq!(violations(src), vec![("F3".to_string(), 3)]);
}

#[test]
fn f3_accumulation_outside_a_loop_is_not_a_reduction() {
    let src = "fn f(x: f64) -> f64 {\n    let mut acc = 0.0;\n    acc += x;\n    acc\n}\n";
    assert!(violations(src).is_empty());
}

#[test]
fn f3_float_local_shadowed_by_a_non_float_let() {
    let float = "fn f(xs: &[u64]) {\n    let mut acc = 0.0;\n    for x in xs {\n        \
                 acc += 1.0;\n    }\n}\n";
    assert_eq!(violations(float), vec![("F3".to_string(), 4)]);
    let shadowed = "fn f(xs: &[u64]) {\n    let mut acc = 0.0;\n    let mut acc = 0u64;\n    \
                    for x in xs {\n        acc += x;\n    }\n}\n";
    assert!(violations(shadowed).is_empty());
}

#[test]
fn f3_annotated_let_sum() {
    // F3(d): the annotation types the reduction.
    let src = "fn f(xs: &[f64]) {\n    let s: f64 = xs.iter().sum();\n}\n";
    assert_eq!(violations(src), vec![("F3".to_string(), 2)]);
    assert!(violations("fn f(xs: &[u64]) {\n    let s: u64 = xs.iter().sum();\n}\n").is_empty());
}

#[test]
fn f3_float_returning_fn_with_a_bare_sum_tail() {
    // F3(e): the return type annotates the reduction.
    let src =
        "fn f(xs: &[f64]) -> f64 {\n    let ys = xs;\n    ys.iter().map(|x| x * x).sum()\n}\n";
    assert_eq!(violations(src), vec![("F3".to_string(), 3)]);
    assert!(violations("fn f(xs: &[u64]) -> u64 {\n    xs.iter().sum()\n}\n").is_empty());
}

/// Every id this crate enforces has a catalogue entry, as do the directive
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
