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
fn d1_hashmap_in_library_state() {
    fires_and_allows(
        "D1",
        2,
        "use std::collections::VecDeque;\nstruct S { m: HashMap<u32, f64> }\n",
        "use std::collections::VecDeque;\n\
         // lint:allow(D1) -- scratch map, never iterated\n\
         struct S { m: HashMap<u32, f64> }\n",
    );
}

#[test]
fn d1_reports_hashset_too() {
    let found = violations("fn f() { let s: HashSet<u32> = HashSet::new(); }\n");
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found.iter().all(|(r, l)| r == "D1" && *l == 1));
}

#[test]
fn d2_thread_rng_is_ambient_entropy() {
    fires_and_allows(
        "D2",
        1,
        "fn f() { let r = thread_rng(); }\n",
        "// lint:allow(D2) -- demo binary, reproducibility not required\n\
         fn f() { let r = thread_rng(); }\n",
    );
}

#[test]
fn d2_system_time_now() {
    fires_and_allows(
        "D2",
        2,
        "fn f() {\n    let t = SystemTime::now();\n}\n",
        "fn f() {\n    let t = SystemTime::now(); // lint:allow(D2) -- log timestamp only\n}\n",
    );
}

#[test]
fn d2_applies_even_inside_tests() {
    // A test seeded from ambient entropy is a flaky test.
    let src = "#[cfg(test)]\nmod tests {\n    fn f() { let r = thread_rng(); }\n}\n";
    let found = violations(src);
    assert_eq!(found, vec![("D2".to_string(), 3)]);
}

#[test]
fn d4_instant_now_outside_telemetry() {
    fires_and_allows(
        "D4",
        2,
        "fn f() {\n    let t = std::time::Instant::now();\n}\n",
        "fn f() {\n    \
             // lint:allow(D4) -- measuring the lint itself\n    \
             let t = std::time::Instant::now();\n}\n",
    );
}

#[test]
fn d4_exempts_only_the_telemetry_crate() {
    let snippet = "fn f() { let t = Instant::now(); }\n";
    assert!(check_source("crates/telemetry/src/clock.rs", snippet)
        .violations
        .is_empty());
    // The bench crate is NOT exempt: its harnesses time through Stopwatch.
    let found = check_source("crates/bench/src/experiments.rs", snippet).violations;
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, "D4");
    // Bare `Instant` without ::now (e.g. storing one handed out by the
    // clock module) does not fire.
    assert!(violations("fn f(t: std::time::Instant) {}\n").is_empty());
}

#[test]
fn d3_rand_import_breaks_hermetic_build() {
    fires_and_allows(
        "D3",
        1,
        "use rand::Rng;\nfn f() {}\n",
        "// lint:allow(D3) -- documentation example of the replaced API\n\
         use rand::Rng;\nfn f() {}\n",
    );
}

#[test]
fn d3_reports_crossbeam_and_parking_lot() {
    let found = violations("use crossbeam::channel;\nuse parking_lot::Mutex;\n");
    assert_eq!(
        found,
        vec![("D3".to_string(), 1), ("D3".to_string(), 2)],
        "{found:?}"
    );
}

#[test]
fn d3_ignores_first_party_replacements_and_test_code() {
    // The substitutes lex as different idents and must not fire.
    assert!(violations("use asyncfl_rng::RngExt;\nuse std::sync::mpsc;\n").is_empty());
    // Bare `rand` without a path separator (e.g. a local variable) is fine.
    assert!(violations("fn f(rand: u32) -> u32 { rand }\n").is_empty());
    // Test code is exempt: dev-dependencies may stay external.
    let src = "#[cfg(test)]\nmod tests {\n    use rand::Rng;\n}\n";
    assert!(violations(src).is_empty());
    assert!(check_source("crates/core/tests/it.rs", "use rand::Rng;\n")
        .violations
        .is_empty());
}

#[test]
fn f1_partial_cmp_sort() {
    // No `.unwrap()` in the snippet: that would additionally trip P1, and
    // this fixture isolates F1.
    fires_and_allows(
        "F1",
        2,
        "fn f(a: f64, b: f64) {\n    let _ = a.partial_cmp(&b);\n}\n",
        "fn f(a: f64, b: f64) {\n    \
             // lint:allow(F1) -- comparing versions, not floats\n    \
             let _ = a.partial_cmp(&b);\n}\n",
    );
}

#[test]
fn f1_fires_in_test_code_too() {
    let src = "#[cfg(test)]\nmod tests {\n    fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n}\n";
    let found = violations(src);
    assert_eq!(found, vec![("F1".to_string(), 3)]);
}

#[test]
fn f1_ignores_partial_cmp_definitions() {
    // `fn partial_cmp` in a PartialOrd impl is a definition, not a call.
    let src = "impl PartialOrd for T {\n    fn partial_cmp(&self, o: &T) -> Option<Ordering> { None }\n}\n";
    assert!(violations(src).is_empty());
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
fn p1_unwrap_in_library_code() {
    fires_and_allows(
        "P1",
        2,
        "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
        "fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // lint:allow(P1) -- caller guarantees Some\n}\n",
    );
}

#[test]
fn p1_panic_macro() {
    let found = violations("fn f() {\n    panic!(\"boom\");\n}\n");
    assert_eq!(found, vec![("P1".to_string(), 2)]);
}

#[test]
fn p1_exempts_test_code_binaries_and_bench_crate() {
    let snippet = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert!(check_source("crates/core/src/main.rs", snippet)
        .violations
        .is_empty());
    assert!(check_source("crates/core/src/bin/tool.rs", snippet)
        .violations
        .is_empty());
    assert!(check_source("crates/bench/src/lib.rs", snippet)
        .violations
        .is_empty());
    assert!(check_source("crates/core/tests/it.rs", snippet)
        .violations
        .is_empty());
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
        "// lint:allow(P1) -- stale justification\nfn f() {}\n",
    );
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.violations[0].rule, "A2");
    assert_eq!(report.violations[0].line, 1);
    assert!(report.warnings.is_empty());
}

#[test]
fn allow_without_reason_is_rejected() {
    let report = check_source(
        LIB_PATH,
        "fn f(x: Option<u32>) { x.unwrap(); } // lint:allow(P1)\n",
    );
    assert!(
        report.violations.iter().any(|d| d.rule == "A0"),
        "{:?}",
        report.violations
    );
}
