//! Per-file lint engine v2: parse → scope tables → AST rules, with the v1
//! token-pattern scan kept as a fallback for files the parser cannot
//! handle, plus file classification, `lint:allow` directive handling
//! (multi-line reasons, staleness detection) and diagnostic rendering.

use crate::ast::LineIndex;
use crate::ast_rules::{self, EventKindUse};
use crate::parser;
use crate::rules::{self, RuleHit};
use crate::scope::FileScope;
use crate::tokenizer::{self, Comment, Lexed, TokenKind};

/// A confirmed lint violation (or directive problem) in one file.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule identifier (`D1`…`P2`, `X1`, or `A0`/`A2` for directive
    /// problems; `PF` marks a parser-fallback note).
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
    /// Non-fatal notes (currently: parser-fallback files).
    pub warnings: Vec<Diagnostic>,
    /// Well-formed `lint:allow` directives that suppressed at least one hit.
    pub allows_used: usize,
    /// All well-formed `lint:allow` directives in the file.
    pub allows_total: usize,
    /// `Event::<Kind>` constructions collected for the workspace-level X1
    /// contract-drift check.
    pub event_kinds: Vec<EventKindUse>,
    /// Whether the AST parser failed and the token fallback ran (F3/P2 do
    /// not fire in fallback mode).
    pub parse_fallback: bool,
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
    /// Part of `crates/bench` (measurement harness; exempt from D1/D2/P1).
    pub is_bench_crate: bool,
    /// Part of `crates/telemetry` (owns the wall clock; exempt from D2/D4).
    pub is_telemetry_crate: bool,
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
            is_telemetry_crate: crate_name.as_deref() == Some("telemetry"),
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
    let hits: Vec<RuleHit> = match parser::parse_file(&lexed) {
        Ok(file) => {
            let scope = FileScope::build(&file);
            let scan = ast_rules::scan(&file, &scope, &class, rel_path, &lexed, &index);
            report.event_kinds = scan.event_kinds;
            scan.hits
        }
        Err(e) => {
            report.parse_fallback = true;
            let (line, col) = index.line_col(e.span.start);
            report.warnings.push(Diagnostic {
                rule: "PF".to_string(),
                path: rel_path.to_string(),
                line,
                col,
                span: Some((e.span.start, e.span.end)),
                snippet: line_snippet(&index, source, line),
                message: format!(
                    "file did not parse ({}); token-scan fallback ran — F3/P2 and \
                     scope-aware resolution are inactive here",
                    e.message
                ),
            });
            let in_test = if class.is_test_file {
                vec![true; lexed.tokens.len()]
            } else {
                test_regions(&lexed)
            };
            rules::scan(&lexed, &class, &in_test)
        }
    };

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
            rules::RULES
                .iter()
                .map(|r| r.id)
                .collect::<Vec<_>>()
                .join(", ")
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

/// Marks tokens covered by `#[test]`- or `#[cfg(test)]`-gated items.
///
/// Fallback-path heuristic (the AST path computes this from parsed
/// attributes): an attribute whose token list contains the identifier
/// `test` (and not `not`, so `#[cfg(not(test))]` stays live code) marks the
/// following item — through any further attributes, up to the matching
/// close brace or a top-level `;` — as test code.
fn test_regions(lexed: &Lexed) -> Vec<bool> {
    let toks = &lexed.tokens;
    let mut in_test = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if !is_attr_start(lexed, i) {
            i += 1;
            continue;
        }
        let start = i;
        let (attr_end, is_test) = scan_attr(lexed, i);
        if !is_test {
            i = attr_end;
            continue;
        }
        // Skip any further attributes on the same item.
        let mut k = attr_end;
        while is_attr_start(lexed, k) {
            let (next_end, _) = scan_attr(lexed, k);
            k = next_end;
        }
        // Consume the item: to the matching `}` or a top-level `;`.
        let mut depth = 0i64;
        while k < toks.len() {
            match toks[k].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        k += 1;
                        break;
                    }
                }
                ";" if depth == 0 => {
                    k += 1;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        for flag in in_test.iter_mut().take(k).skip(start) {
            *flag = true;
        }
        i = k;
    }
    in_test
}

/// Whether token `i` starts an outer attribute `#[…]`.
fn is_attr_start(lexed: &Lexed, i: usize) -> bool {
    let toks = &lexed.tokens;
    matches!(toks.get(i), Some(t) if t.kind == TokenKind::Op && t.text == "#")
        && matches!(toks.get(i + 1), Some(t) if t.kind == TokenKind::Op && t.text == "[")
}

/// Scans the attribute starting at `i`; returns (index past `]`, is-test).
fn scan_attr(lexed: &Lexed, i: usize) -> (usize, bool) {
    let toks = &lexed.tokens;
    let mut j = i + 2;
    let mut depth = 1i64;
    let mut has_test = false;
    let mut has_not = false;
    while j < toks.len() && depth > 0 {
        let t = &toks[j];
        match (t.kind, t.text.as_str()) {
            (TokenKind::Op, "[") => depth += 1,
            (TokenKind::Op, "]") => depth -= 1,
            (TokenKind::Ident, "test") => has_test = true,
            (TokenKind::Ident, "not") => has_not = true,
            _ => {}
        }
        j += 1;
    }
    (j, has_test && !has_not)
}

// Suppress an unused-field warning until a caller needs raw comments.
#[allow(dead_code)]
fn _comment_fields(c: &Comment) -> (u32, u32) {
    (c.start, c.end)
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

        let tele = FileClass::classify("crates/telemetry/src/span.rs");
        assert!(tele.is_telemetry_crate);

        let integration = FileClass::classify("tests/end_to_end.rs");
        assert!(integration.is_test_file);
        assert!(FileClass::classify("examples/quickstart.rs").is_example);
    }

    #[test]
    fn cfg_test_module_is_exempt_from_p1() {
        let src = "pub fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap(); }\n}\n";
        let report = check_source("crates/core/src/x.rs", src);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn cfg_not_test_is_still_live_code() {
        let src = "#[cfg(not(test))]\nfn f() { x.unwrap(); }\n";
        let report = check_source("crates/core/src/x.rs", src);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "P1");
    }

    #[test]
    fn allow_with_reason_suppresses_and_counts() {
        let src = "fn f() {\n    x.unwrap(); // lint:allow(P1) -- checked above\n}\n";
        let report = check_source("crates/core/src/x.rs", src);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.allows_used, 1);
    }

    #[test]
    fn allow_on_previous_line_suppresses() {
        let src = "fn f() {\n    // lint:allow(P1) -- invariant: nonempty\n    x.unwrap();\n}\n";
        let report = check_source("crates/core/src/x.rs", src);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn allow_without_reason_is_a_violation() {
        let src = "fn f() {\n    x.unwrap(); // lint:allow(P1)\n}\n";
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
    fn stale_allow_is_an_error() {
        let src = "fn f() {\n    // lint:allow(D1) -- stale justification\n    let x = 1;\n}\n";
        let report = check_source("crates/core/src/x.rs", src);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].rule, "A2");
        assert!(report.warnings.is_empty());
    }

    #[test]
    fn wrapped_reason_folds_into_directive() {
        // rustfmt wrapping splits the reason across comment lines; the
        // directive must keep its justification AND still cover the code
        // line that follows the wrapped block.
        let src = "fn f() {\n    // lint:allow(P1) --\n    // invariant: the buffer is\n    // non-empty after insert\n    x.unwrap();\n}\n";
        let report = check_source("crates/core/src/x.rs", src);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.allows_used, 1);
    }

    #[test]
    fn wrapped_reason_with_partial_first_line() {
        let src = "fn f() {\n    // lint:allow(P1) -- invariant: the\n    // buffer is non-empty\n    x.unwrap();\n}\n";
        let report = check_source("crates/core/src/x.rs", src);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.allows_used, 1);
    }

    #[test]
    fn diagnostics_carry_position_and_snippet() {
        let src = "fn f() {\n    x.unwrap();\n}\n";
        let report = check_source("crates/core/src/x.rs", src);
        assert_eq!(report.violations.len(), 1);
        let d = &report.violations[0];
        assert_eq!(d.line, 2);
        assert_eq!(d.col, 7, "col points at `unwrap`");
        assert_eq!(d.snippet.as_deref(), Some("    x.unwrap();"));
        let (s, e) = d.span.expect("span");
        assert_eq!(&src[s as usize..e as usize], "unwrap");
    }

    #[test]
    fn malformed_file_falls_back_to_token_scan() {
        let src = "fn f( {\n    let q = x.unwrap();\n";
        let report = check_source("crates/core/src/x.rs", src);
        assert!(report.parse_fallback);
        assert!(report.warnings.iter().any(|w| w.rule == "PF"));
        assert!(
            report.violations.iter().any(|d| d.rule == "P1"),
            "fallback still catches P1: {:?}",
            report.violations
        );
    }
}
