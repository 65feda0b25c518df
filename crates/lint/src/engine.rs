//! Per-file lint engine: parse → AST rules, plus file classification,
//! `lint:allow` directive handling (multi-line reasons, staleness
//! detection) and diagnostic positions. A file the parser rejects is a
//! violation in its own right: no rule can vouch for code it cannot see.

use crate::ast::LineIndex;
use crate::ast_rules;
use crate::parser;
use crate::rules::{self, RuleHit};
use crate::tokenizer;

/// A confirmed lint violation (or directive problem) in one file.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule identifier (`F2`, `F3`, `P2`; `A0`/`A2` for directive
    /// problems; `parse` for a file the parser rejects).
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column of the offending span start (0 = unknown).
    pub col: u32,
    /// Byte span `[start, end)` in the file, when known.
    pub span: Option<(u32, u32)>,
    /// The source line the diagnostic points at, when available.
    pub snippet: Option<String>,
    /// Explanation.
    pub message: String,
}

impl Diagnostic {
    fn bare(rule: &str, path: &str, line: u32, message: String) -> Self {
        Self {
            rule: rule.to_string(),
            path: path.to_string(),
            line,
            col: 0,
            span: None,
            snippet: None,
            message,
        }
    }
}

/// Lint results for one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Hard violations — any of these fails the run.
    pub violations: Vec<Diagnostic>,
    /// Well-formed `lint:allow` directives that suppressed at least one hit.
    pub allows_used: usize,
    /// All well-formed `lint:allow` directives in the file.
    pub allows_total: usize,
}

/// What kind of code a file contains, derived from its workspace-relative
/// path. Decides which rules apply (see `docs/LINTS.md` for the matrix).
#[derive(Debug, Clone, Default)]
pub struct FileClass {
    /// `crates/<name>/…` member name, if any.
    pub crate_name: Option<String>,
    /// Whole file is test code: `tests/` integration dirs and `benches/`.
    pub is_test_file: bool,
    /// Binary target: `src/bin/**` or a `main.rs`.
    pub is_binary: bool,
    /// Example under an `examples/` directory.
    pub is_example: bool,
    /// Part of `crates/bench` (measurement harness; exempt from F3).
    pub is_bench_crate: bool,
}

impl FileClass {
    /// Classifies a workspace-relative path (`/` separators).
    pub fn classify(rel_path: &str) -> Self {
        let parts: Vec<&str> = rel_path.split('/').collect();
        let crate_name = if parts.first() == Some(&"crates") && parts.len() > 1 {
            Some(parts[1].to_string())
        } else {
            None
        };
        let has_dir = |d: &str| parts.iter().rev().skip(1).any(|p| *p == d);
        let file_name = parts.last().copied().unwrap_or("");
        Self {
            is_test_file: has_dir("tests") || has_dir("benches"),
            is_binary: has_dir("bin") || file_name == "main.rs",
            is_example: has_dir("examples"),
            is_bench_crate: crate_name.as_deref() == Some("bench"),
            crate_name,
        }
    }
}

/// A parsed `lint:allow` directive with its multi-line coverage window.
#[derive(Debug)]
struct Allow {
    /// Line the directive starts on (for diagnostics).
    line: u32,
    /// Lines `[cover_start, cover_end]` the directive suppresses.
    cover_start: u32,
    cover_end: u32,
    rules: Vec<String>,
    used: bool,
}

/// Lints one file. `rel_path` is the workspace-relative path used both for
/// rule scoping and in diagnostics.
pub fn check_source(rel_path: &str, source: &str) -> FileReport {
    let class = FileClass::classify(rel_path);
    let lexed = tokenizer::lex(source);
    let index = LineIndex::new(source);

    let mut report = FileReport::default();
    let file = match parser::parse_file(&lexed) {
        Ok(file) => file,
        Err(e) => {
            report.violations.push(to_diagnostic(
                rel_path,
                RuleHit {
                    rule: "parse",
                    line: e.span.line,
                    span: (e.span.start, e.span.end),
                    message: format!(
                        "file did not parse ({}), so no rule checked it; fix the syntax \
                         or teach the parser the construct",
                        e.message
                    ),
                },
                source,
                &index,
            ));
            return report;
        }
    };
    let hits = ast_rules::scan(&file, &class, rel_path);

    // Directive collection with multi-line reason folding: a directive
    // comment absorbs immediately-following comment lines (rustfmt-wrapped
    // reasons) into its justification, and its coverage window extends one
    // line past the last absorbed comment.
    let mut allows: Vec<Allow> = Vec::new();
    let comments = &lexed.comments;
    let mut i = 0usize;
    while i < comments.len() {
        let c = &comments[i];
        match parse_allow(&c.text) {
            ParsedAllow::None => {}
            ParsedAllow::Malformed(why) => {
                report
                    .violations
                    .push(Diagnostic::bare("A0", rel_path, c.line, why));
            }
            ParsedAllow::Allow { rules, mut reason } => {
                let mut last_end = c.end_line;
                while let Some(nc) = comments.get(i + 1) {
                    if nc.line != last_end + 1 {
                        break;
                    }
                    if !matches!(parse_allow(&nc.text), ParsedAllow::None) {
                        break;
                    }
                    let cont = comment_body(&nc.text);
                    if !cont.is_empty() {
                        if !reason.is_empty() {
                            reason.push(' ');
                        }
                        reason.push_str(cont);
                    }
                    last_end = nc.end_line;
                    i += 1;
                }
                if reason.trim().is_empty() {
                    report.violations.push(Diagnostic::bare(
                        "A0",
                        rel_path,
                        c.line,
                        "lint:allow requires a justification: `lint:allow(RULE) -- <reason>`"
                            .to_string(),
                    ));
                } else {
                    allows.push(Allow {
                        line: c.line,
                        cover_start: c.line,
                        cover_end: last_end + 1,
                        rules,
                        used: false,
                    });
                }
            }
        }
        i += 1;
    }
    report.allows_total = allows.len();

    // Usage is decoupled from suppression: when two directives' windows
    // overlap one hit (e.g. trailing allows on adjacent lines), both are
    // justified by it — an allow is stale only if NO hit lands in its
    // window at all.
    for hit in &hits {
        let mut suppressed = false;
        for allow in allows.iter_mut() {
            if allow.cover_start <= hit.line
                && hit.line <= allow.cover_end
                && allow.rules.iter().any(|r| r == hit.rule)
            {
                allow.used = true;
                suppressed = true;
            }
        }
        if !suppressed {
            report
                .violations
                .push(to_diagnostic(rel_path, hit.clone(), source, &index));
        }
    }

    // A2 — stale suppressions are hard errors: an allow whose rule no
    // longer fires in its window is a leftover claim about code that has
    // moved on. Delete it (or fix the window) rather than letting dead
    // justifications accumulate.
    for allow in &allows {
        report.allows_used += usize::from(allow.used);
        if !allow.used {
            report.violations.push(Diagnostic::bare(
                "A2",
                rel_path,
                allow.line,
                format!(
                    "stale lint:allow({}) — nothing in lines {}–{} violates it; \
                     delete the directive",
                    allow.rules.join(", "),
                    allow.cover_start,
                    allow.cover_end
                ),
            ));
        }
    }
    report.violations.sort_by_key(|d| (d.line, d.col));
    report
}

fn line_snippet(index: &LineIndex, source: &str, line: u32) -> Option<String> {
    let text = index.line_text(source, line);
    if text.is_empty() {
        None
    } else {
        Some(text.to_string())
    }
}

fn to_diagnostic(path: &str, hit: RuleHit, source: &str, index: &LineIndex) -> Diagnostic {
    let (line, col) = index.line_col(hit.span.0);
    Diagnostic {
        rule: hit.rule.to_string(),
        path: path.to_string(),
        line,
        col,
        span: Some(hit.span),
        snippet: line_snippet(index, source, line),
        message: hit.message,
    }
}

enum ParsedAllow {
    None,
    Malformed(String),
    Allow {
        rules: Vec<String>,
        /// May be empty on the directive line itself; continuation comment
        /// lines are folded in by the caller before the emptiness check.
        reason: String,
    },
}

/// Strips comment sigils from a comment body.
fn comment_body(comment: &str) -> &str {
    comment
        .trim_start_matches(['/', '!', '*'])
        .trim_start()
        .trim_end_matches("*/")
        .trim_end()
}

/// Parses `lint:allow(R1, R2) -- reason` out of a comment body. The reason
/// is mandatory but may continue on following comment lines (the engine
/// folds those in). Only comments that *begin* with the directive are
/// parsed, so prose that merely mentions `lint:allow` is ignored.
fn parse_allow(comment: &str) -> ParsedAllow {
    let body = comment_body(comment);
    let Some(rest) = body.strip_prefix("lint:allow") else {
        return ParsedAllow::None;
    };
    let Some(open) = rest.find('(') else {
        return ParsedAllow::Malformed(
            "lint:allow directive is missing its (RULE, …) list".to_string(),
        );
    };
    let Some(close) = rest.find(')') else {
        return ParsedAllow::Malformed(
            "lint:allow directive has an unclosed rule list".to_string(),
        );
    };
    if open > close {
        return ParsedAllow::Malformed(
            "lint:allow directive has a malformed rule list".to_string(),
        );
    }
    let rule_list: Vec<String> = rest[open + 1..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rule_list.is_empty() {
        return ParsedAllow::Malformed("lint:allow directive names no rules".to_string());
    }
    if let Some(unknown) = rule_list.iter().find(|r| !rules::is_known_rule(r)) {
        return ParsedAllow::Malformed(format!(
            "lint:allow names unknown rule {unknown:?} (known: {})",
            rules::RULES.join(", ")
        ));
    }
    let after = &rest[close + 1..];
    match after.trim_start().strip_prefix("--").map(str::trim) {
        Some(r) => ParsedAllow::Allow {
            rules: rule_list,
            reason: r.to_string(),
        },
        None => ParsedAllow::Malformed(
            "lint:allow requires a justification: `lint:allow(RULE) -- <reason>`".to_string(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        let lib = FileClass::classify("crates/core/src/asyncfilter.rs");
        assert_eq!(lib.crate_name.as_deref(), Some("core"));
        assert!(!lib.is_binary && !lib.is_test_file && !lib.is_bench_crate);

        let bin = FileClass::classify("crates/bench/src/bin/repro.rs");
        assert!(bin.is_binary && bin.is_bench_crate);

        let main = FileClass::classify("crates/lint/src/main.rs");
        assert!(main.is_binary && !main.is_bench_crate);

        let integration = FileClass::classify("tests/end_to_end.rs");
        assert!(integration.is_test_file);
        assert!(FileClass::classify("examples/quickstart.rs").is_example);
    }

    #[test]
    fn cfg_test_module_is_exempt_from_p2() {
        let src =
            "pub fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn f(x: &[u8]) -> u8 { x[0] }\n}\n";
        let report = check_source("crates/core/src/x.rs", src);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn cfg_not_test_is_still_live_code() {
        let src = "#[cfg(not(test))]\nfn f(x: &[u8]) -> u8 { x[0] }\n";
        let report = check_source("crates/core/src/x.rs", src);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "P2");
    }

    #[test]
    fn allow_with_reason_suppresses_and_counts() {
        let src = "fn f(x: &[u8]) -> u8 {\n    x[0] // lint:allow(P2) -- checked above\n}\n";
        let report = check_source("crates/core/src/x.rs", src);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.allows_used, 1);
    }

    #[test]
    fn allow_on_previous_line_suppresses() {
        let src =
            "fn f(x: &[u8]) -> u8 {\n    // lint:allow(P2) -- invariant: nonempty\n    x[0]\n}\n";
        let report = check_source("crates/core/src/x.rs", src);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn allow_without_reason_is_a_violation() {
        let src = "fn f(x: &[u8]) -> u8 {\n    x[0] // lint:allow(P2)\n}\n";
        let report = check_source("crates/core/src/x.rs", src);
        assert!(report.violations.iter().any(|d| d.rule == "A0"));
    }

    #[test]
    fn allow_unknown_rule_is_a_violation() {
        let src = "// lint:allow(Z9) -- bogus\nfn f() {}\n";
        let report = check_source("crates/core/src/x.rs", src);
        assert!(report.violations.iter().any(|d| d.rule == "A0"));
    }

    #[test]
    fn allow_naming_a_clippy_enforced_id_is_a_violation() {
        // P1 moved to clippy: its escape hatch is `#[expect(clippy::panic)]`.
        let src = "fn f() {\n    // lint:allow(P1) -- retired id\n    g();\n}\n";
        let report = check_source("crates/core/src/x.rs", src);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].rule, "A0");
    }

    #[test]
    fn stale_allow_is_an_error() {
        let src = "fn f() {\n    // lint:allow(F2) -- stale justification\n    let x = 1;\n}\n";
        let report = check_source("crates/core/src/x.rs", src);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].rule, "A2");
    }

    #[test]
    fn wrapped_reason_folds_into_directive() {
        // rustfmt wrapping splits the reason across comment lines; the
        // directive must keep its justification AND still cover the code
        // line that follows the wrapped block.
        let src = "fn f(x: &[u8]) -> u8 {\n    // lint:allow(P2) --\n    // invariant: the buffer is\n    // non-empty after insert\n    x[0]\n}\n";
        let report = check_source("crates/core/src/x.rs", src);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.allows_used, 1);
    }

    #[test]
    fn wrapped_reason_with_partial_first_line() {
        let src = "fn f(x: &[u8]) -> u8 {\n    // lint:allow(P2) -- invariant: the\n    // buffer is non-empty\n    x[0]\n}\n";
        let report = check_source("crates/core/src/x.rs", src);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.allows_used, 1);
    }

    #[test]
    fn diagnostics_carry_position_and_snippet() {
        let src = "fn f(x: f64) -> bool {\n    x == 0.5\n}\n";
        let report = check_source("crates/core/src/x.rs", src);
        assert_eq!(report.violations.len(), 1);
        let d = &report.violations[0];
        assert_eq!(d.line, 2);
        assert_eq!(d.col, 7, "col points at `==`");
        assert_eq!(d.snippet.as_deref(), Some("    x == 0.5"));
        let (s, e) = d.span.expect("span");
        assert_eq!(&src[s as usize..e as usize], "==");
    }

    #[test]
    fn malformed_file_is_a_hard_failure() {
        let src = "fn f( {\n    let q = x[0];\n";
        let report = check_source("crates/core/src/x.rs", src);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        let d = &report.violations[0];
        assert_eq!(
            (d.rule.as_str(), d.path.as_str()),
            ("parse", "crates/core/src/x.rs")
        );
        assert!(d.line >= 1 && d.message.contains("did not parse"), "{d:?}");
    }
}
