//! Round-trips `asyncfl-lint`'s `--json` report through an independent
//! JSON parser (`json/mod.rs`).
//!
//! The lint report embeds raw Rust source lines in its `snippet` fields —
//! strings full of quotes, backslashes and braces. Both the emitter
//! (`asyncfl_lint::report`) and the parser are hand-rolled (the workspace
//! is dependency-free), so the escaping contract between them is pinned
//! here by test rather than by convention: whatever `render_json` writes,
//! `parse_json` must read back verbatim.

mod json;

use asyncfl_lint::report::JSON_SCHEMA;
use asyncfl_lint::RunSummary;
use json::{parse_json, Value};

/// Lints a nasty-but-real source under a library path and returns the
/// parsed JSON report.
fn roundtrip(source: &str) -> (RunSummary, Value) {
    let report = asyncfl_lint::check_source("crates/core/src/fake.rs", source);
    let mut summary = RunSummary {
        files_scanned: 1,
        parse_fallbacks: usize::from(report.parse_fallback),
        ..Default::default()
    };
    summary.violations.extend(report.violations);
    summary.warnings.extend(report.warnings);
    summary.allows_used = report.allows_used;
    summary.allows_total = report.allows_total;
    let json = summary.render_json();
    let value = parse_json(&json).expect("render_json must emit valid JSON");
    (summary, value)
}

#[test]
fn schema_and_counts_survive() {
    let (summary, v) = roundtrip("fn f() { let m: HashMap<u32, f64> = HashMap::new(); }\n");
    assert_eq!(
        v.get("schema").and_then(Value::as_str),
        Some(JSON_SCHEMA),
        "schema marker must round-trip"
    );
    assert_eq!(v.get("files_scanned").and_then(Value::as_f64), Some(1.0));
    let violations = v
        .get("violations")
        .and_then(Value::as_arr)
        .expect("violations array");
    assert_eq!(violations.len(), summary.violations.len());
    assert!(!violations.is_empty(), "fixture source must violate D1");
}

#[test]
fn snippet_escaping_survives_quotes_backslashes_and_unicode() {
    // The offending line carries every character class the escaper must
    // handle: double quotes, backslashes, braces, a tab escape and
    // non-ASCII text. It lands in the diagnostic's `snippet` verbatim.
    let source = "fn f() {\n    let m: HashMap<&str, f64> = HashMap::new(); \
                  let _s = \"q\\\"uote \\\\ back\\tslash → naïve\";\n}\n";
    let (summary, v) = roundtrip(source);
    let violations = v
        .get("violations")
        .and_then(Value::as_arr)
        .expect("violations array");
    assert_eq!(violations.len(), summary.violations.len());
    for (parsed, original) in violations.iter().zip(&summary.violations) {
        assert_eq!(
            parsed.get("rule").and_then(Value::as_str),
            Some(original.rule.as_str())
        );
        assert_eq!(
            parsed.get("line").and_then(Value::as_f64),
            Some(f64::from(original.line))
        );
        // The critical assertion: the snippet string read back from JSON
        // is byte-identical to the one the diagnostic carried in.
        assert_eq!(
            parsed.get("snippet").and_then(Value::as_str),
            original.snippet.as_deref(),
            "snippet must survive escaping round-trip"
        );
        assert_eq!(
            parsed.get("message").and_then(Value::as_str),
            Some(original.message.as_str())
        );
    }
    // The nasty line itself must have made it into at least one snippet.
    assert!(
        summary
            .violations
            .iter()
            .filter_map(|d| d.snippet.as_deref())
            .any(|s| s.contains("q\\\"uote") || s.contains("naïve")),
        "expected the quote/backslash line among the snippets: {:?}",
        summary.violations
    );
}

#[test]
fn clean_report_is_still_a_full_document() {
    let (_, v) = roundtrip("fn f() -> u32 { 1 }\n");
    assert_eq!(
        v.get("violations")
            .and_then(Value::as_arr)
            .map(<[Value]>::len),
        Some(0)
    );
    assert_eq!(
        v.get("warnings")
            .and_then(Value::as_arr)
            .map(<[Value]>::len),
        Some(0)
    );
    assert_eq!(v.get("allows_total").and_then(Value::as_f64), Some(0.0));
}
