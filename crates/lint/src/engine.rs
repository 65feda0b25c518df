//! Per-file lint engine: lex → token rules, plus file classification,
//! `lint:allow` directive handling (multi-line reasons, staleness
//! detection) and diagnostic positions.

use crate::rules::{self, RuleHit};
use crate::tokenizer;

/// A confirmed lint violation (or directive problem) in one file.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule identifier (`F2`, `F3`; `A0`/`A2` for directive problems).
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
    /// Whole file is test code: `tests/` integration dirs and `benches/`.
    pub is_test_file: bool,
    /// Part of `crates/bench` (measurement harness; exempt from F3).
    pub is_bench_crate: bool,
}

impl FileClass {
    /// Classifies a workspace-relative path (`/` separators).
    pub fn classify(rel_path: &str) -> Self {
        let parts: Vec<&str> = rel_path.split('/').collect();
        let has_dir = |d: &str| parts.iter().rev().skip(1).any(|p| *p == d);
        Self {
            is_test_file: has_dir("tests") || has_dir("benches"),
            is_bench_crate: rel_path.starts_with("crates/bench/"),
        }
    }
}

/// Line-start table for byte-offset → (line, column) conversion.
struct LineIndex {
    /// Byte offset at which each 0-based line starts.
    starts: Vec<u32>,
}

impl LineIndex {
    fn new(source: &str) -> Self {
        let mut starts = vec![0u32];
        for (i, b) in source.bytes().enumerate() {
            if b == b'\n' {
                starts.push(i as u32 + 1);
            }
        }
        Self { starts }
    }

    /// 1-based (line, column) of a byte offset. Columns count bytes from
    /// the line start, which matches what editors display for ASCII
    /// source.
    fn line_col(&self, offset: u32) -> (u32, u32) {
        let line = self.starts.partition_point(|&s| s <= offset).max(1);
        let start = self.starts.get(line - 1).copied().unwrap_or(0);
        (line as u32, offset - start + 1)
    }

    /// The text of the 1-based `line` in `source`, without its trailing
    /// newline; `None` for an empty or out-of-range line.
    fn line_text(&self, source: &str, line: u32) -> Option<String> {
        let idx = line.checked_sub(1)? as usize;
        let start = *self.starts.get(idx)? as usize;
        let end = self
            .starts
            .get(idx + 1)
            .map_or(source.len(), |&e| e as usize);
        let text = source.get(start..end)?.trim_end_matches(['\n', '\r']);
        (!text.is_empty()).then(|| text.to_string())
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
    let hits = rules::scan(&lexed.tokens, &class, rel_path);

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

fn to_diagnostic(path: &str, hit: RuleHit, source: &str, index: &LineIndex) -> Diagnostic {
    let (line, col) = index.line_col(hit.span.0);
    Diagnostic {
        rule: hit.rule.to_string(),
        path: path.to_string(),
        line,
        col,
        span: Some(hit.span),
        snippet: index.line_text(source, line),
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

    const LIB: &str = "crates/core/src/x.rs";

    #[test]
    fn classify_paths() {
        let lib = FileClass::classify("crates/core/src/asyncfilter.rs");
        assert!(!lib.is_test_file && !lib.is_bench_crate);
        assert!(FileClass::classify("crates/bench/src/bin/repro.rs").is_bench_crate);
        assert!(FileClass::classify("tests/end_to_end.rs").is_test_file);
        assert!(FileClass::classify("crates/core/benches/b.rs").is_test_file);
        assert!(!FileClass::classify("examples/quickstart.rs").is_test_file);
    }

    #[test]
    fn line_index_round_trips() {
        let src = "ab\ncd\n\nxyz";
        let idx = LineIndex::new(src);
        assert_eq!(idx.line_col(0), (1, 1));
        assert_eq!(idx.line_col(1), (1, 2));
        assert_eq!(idx.line_col(3), (2, 1));
        assert_eq!(idx.line_col(6), (3, 1));
        assert_eq!(idx.line_col(7), (4, 1));
        assert_eq!(idx.line_text(src, 2).as_deref(), Some("cd"));
        assert_eq!(idx.line_text(src, 3), None, "empty line");
        assert_eq!(idx.line_text(src, 4).as_deref(), Some("xyz"));
        assert_eq!(idx.line_text(src, 99), None);
    }

    #[test]
    fn test_gate_ends_with_its_item() {
        // An item's header may hold a `,` (generics, a `where` clause)
        // before its body opens; a field's gate ends at its `,`.
        let src = "#[cfg(test)]\nmod tests {}\nfn f(x: f64) -> bool { x == 0.5 }\n\
                   struct S {\n    #[cfg(test)]\n    a: u8,\n}\nfn g(x: f64) -> bool { x == 0.5 }\n\
                   #[test]\nfn t() -> Result<(), E> { assert!(X == 0.5); Ok(()) }\n\
                   #[cfg(test)]\n#[allow(dead_code)]\nimpl<A, B> T for S where A: X, B: Y {\n    \
                   fn h(x: f64) -> bool { x == 0.5 }\n}\n#[cfg(test)]\n\
                   pub(crate) fn u<A, B>(x: f64) -> bool { x == 0.5 }\nfn k(x: f64) -> bool { x == 0.5 }\n";
        let lines: Vec<u32> = check_source(LIB, src)
            .violations
            .iter()
            .map(|d| d.line)
            .collect();
        assert_eq!(lines, vec![3, 8, 18]);
    }

    #[test]
    fn cfg_not_test_is_still_live_code() {
        let src = "#[cfg(not(test))]\nfn f(x: f64) -> bool { x == 0.5 }\n";
        let report = check_source(LIB, src);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "F2");
    }

    #[test]
    fn allow_with_reason_suppresses_and_counts() {
        let src = "fn f(x: f64) -> bool {\n    x == 0.5 // lint:allow(F2) -- sentinel\n}\n";
        let report = check_source(LIB, src);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.allows_used, 1);
    }

    #[test]
    fn allow_on_previous_line_suppresses() {
        let src = "fn f(x: f64) -> bool {\n    // lint:allow(F2) -- sentinel\n    x == 0.5\n}\n";
        let report = check_source(LIB, src);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn wrapped_reason_folds_into_directive() {
        // rustfmt wrapping splits the reason across comment lines; the
        // directive must keep its justification AND still cover the code
        // line that follows the wrapped block.
        let src = "fn f(x: f64) -> bool {\n    // lint:allow(F2) --\n    // invariant: the \
                   sentinel is\n    // written by us\n    x == 0.5\n}\n";
        let report = check_source(LIB, src);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.allows_used, 1);
    }

    #[test]
    fn wrapped_reason_with_partial_first_line() {
        let src = "fn f(x: f64) -> bool {\n    // lint:allow(F2) -- invariant: the\n    \
                   // sentinel is bit-exact\n    x == 0.5\n}\n";
        let report = check_source(LIB, src);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.allows_used, 1);
    }

    #[test]
    fn diagnostics_carry_position_and_snippet() {
        let src = "fn f(x: f64) -> bool {\n    x == 0.5\n}\n";
        let report = check_source(LIB, src);
        assert_eq!(report.violations.len(), 1);
        let d = &report.violations[0];
        assert_eq!(d.line, 2);
        assert_eq!(d.col, 7, "col points at `==`");
        assert_eq!(d.snippet.as_deref(), Some("    x == 0.5"));
        let (s, e) = d.span.expect("span");
        assert_eq!(&src[s as usize..e as usize], "==");
    }

    #[test]
    fn unbalanced_source_does_not_panic() {
        for src in [
            "fn f( {\n    x == 0.5;\n",
            "}}) ]\nlet a: f64 = ",
            "|x",
            "#[",
            "fn",
        ] {
            let _ = check_source(LIB, src);
        }
    }
}
