//! Golden-snapshot tests over the fixture corpus in `tests/fixtures/`.
//!
//! Each `*.rs` fixture is a small source file exercising one rule (or one
//! engine behaviour, like multi-line `lint:allow` reasons). Its
//! first line declares the workspace path to lint it *as* — file
//! classification is path-driven, so a fixture can lint as library,
//! test or bench code:
//!
//! ```text
//! //@ lint-as: crates/core/src/fixture.rs
//! ```
//!
//! The expected diagnostics live next to each fixture in a `*.expected`
//! file holding the engine's rendered report verbatim. On mismatch the
//! test prints both; after an intentional rule change, regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p asyncfl-lint --test golden
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use asyncfl_lint::check_source;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Renders one fixture's full report: violations and the allow-usage
/// tally — everything a rule change could plausibly move.
fn snapshot(rel_path: &str, source: &str) -> String {
    let report = check_source(rel_path, source);
    let mut out = String::new();
    for d in &report.violations {
        let _ = writeln!(out, "{}:{}: [{}] {}", d.path, d.line, d.rule, d.message);
    }
    let _ = writeln!(
        out,
        "-- allows: {}/{}",
        report.allows_used, report.allows_total
    );
    out
}

#[test]
fn fixtures_match_golden_snapshots() {
    let dir = fixtures_dir();
    let mut fixtures: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("tests/fixtures must exist")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    fixtures.sort();
    assert!(
        fixtures.len() >= 4,
        "fixture corpus looks truncated: {fixtures:?}"
    );

    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut failures = Vec::new();
    for fixture in &fixtures {
        let source = fs::read_to_string(fixture).expect("fixture must be readable");
        let first = source.lines().next().unwrap_or("");
        let rel_path = first
            .strip_prefix("//@ lint-as:")
            .unwrap_or_else(|| panic!("{} lacks a `//@ lint-as:` header", fixture.display()))
            .trim();
        let got = snapshot(rel_path, &source);

        let golden_path = fixture.with_extension("expected");
        if update {
            fs::write(&golden_path, &got).expect("cannot write golden");
            continue;
        }
        let want = fs::read_to_string(&golden_path).unwrap_or_else(|_| {
            panic!(
                "missing golden {} — run UPDATE_GOLDEN=1 cargo test -p asyncfl-lint --test golden",
                golden_path.display()
            )
        });
        if got != want {
            failures.push(format!(
                "== {} ==\n-- expected --\n{want}\n-- got --\n{got}",
                fixture.file_name().unwrap_or_default().to_string_lossy()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "golden mismatches (UPDATE_GOLDEN=1 regenerates):\n{}",
        failures.join("\n")
    );
}
