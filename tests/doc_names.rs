//! Docs name only code that exists: every snake_case name that
//! `DESIGN.md`, `docs/OBSERVABILITY.md`, `docs/TUTORIAL.md` or
//! `docs/LINTS.md` cites in backticks is a `fn` the workspace defines, an
//! identifier its code uses, or a name one of its string literals holds
//! whole (a telemetry event or metric name). Words inside longer literals
//! and comments do not count.
//!
//! A cited name is a snake_case identifier (one with an underscore) that
//! a backticked span holds whole, calls (`name(…)`) or ends a path with
//! (`Type::name`). A renamed or deleted test or function leaves its name
//! in no code, so a doc that still cites it fails here.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use asyncfl_lint::tokenizer::{lex, TokenKind};

const DOCS: &str = "DESIGN.md docs/OBSERVABILITY.md docs/TUTORIAL.md docs/LINTS.md";

/// Names outside the workspace that the docs cite on purpose: crates the
/// build replaced, `rand` constructors it bans, std methods and rustc
/// lints.
const EXTERNAL: &str = "parking_lot rand_distr thread_rng from_entropy expect_err unwrap_err \
                        unfulfilled_lint_expectations invalid_nan_comparisons";

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for path in entries.flatten().map(|e| e.path()) {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            // The lint fixtures violate the rules on purpose; they are not
            // workspace code.
            if name != "target" && name != "fixtures" {
                rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

fn is_snake(word: &str) -> bool {
    word.contains('_')
        && word.starts_with(|c: char| c.is_ascii_lowercase())
        && word
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// The `fn` names the workspace (and the benchmark harness) defines, and
/// every identifier its code uses or a string literal holds whole.
fn workspace_names() -> (BTreeSet<String>, BTreeSet<String>) {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "perfbench"] {
        rust_files(&root().join(dir), &mut files);
    }
    let (mut fns, mut used) = (BTreeSet::new(), BTreeSet::new());
    for file in files {
        let source = fs::read_to_string(&file).expect("workspace source is readable");
        // This file's literals are the names it tests its extractor on.
        let own = file == root().join(file!());
        let tokens = lex(&source).tokens;
        for (i, t) in tokens.iter().enumerate() {
            match t.kind {
                TokenKind::Ident if t.text == "fn" => {
                    if let Some(next) = tokens.get(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                        fns.insert(next.text.clone());
                    }
                }
                TokenKind::Ident => {
                    used.insert(t.text.clone());
                }
                TokenKind::Str if !own => {
                    let literal = &source[t.start as usize..t.end as usize];
                    if let Some(name) = literal
                        .strip_prefix('"')
                        .and_then(|l| l.strip_suffix('"'))
                        .filter(|l| words(l).eq([*l]))
                    // one word, whole
                    {
                        used.insert(name.to_string());
                    }
                }
                _ => {}
            }
        }
    }
    (fns, used)
}

/// The names one backticked span cites: the whole span, a call, or a
/// path's last segment. Lint paths and attributes name no code.
fn cited(span: &str) -> Vec<&str> {
    if span.starts_with("clippy::") || span.starts_with('#') {
        return Vec::new();
    }
    words(span)
        .filter(|word| {
            let start = word.as_ptr() as usize - span.as_ptr() as usize;
            let (before, rest) = (&span[..start], &span[start + word.len()..]);
            let whole = word.len() == span.len();
            let path_end = before.ends_with("::") && !rest.starts_with("::");
            is_snake(word) && (whole || rest.starts_with('(') || path_end)
        })
        .collect()
}

/// Backticked spans outside fenced code blocks.
fn spans(doc: &str) -> Vec<&str> {
    let mut in_fence = false;
    let mut out = Vec::new();
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if !in_fence {
            out.extend(line.split('`').skip(1).step_by(2));
        }
    }
    out
}

#[test]
fn docs_cite_only_names_the_code_has() {
    let (fns, used) = workspace_names();
    assert!(fns.len() > 500, "walked too little code: {} fns", fns.len());
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS.split_whitespace() {
        let text = fs::read_to_string(root().join(doc)).expect("doc exists");
        for span in spans(&text) {
            for name in cited(span) {
                checked += 1;
                let external = EXTERNAL.split_whitespace().any(|e| e == name);
                let known = fns.contains(name) || used.contains(name) || external;
                if !known {
                    missing.push(format!("{doc}: `{span}` cites `{name}`"));
                }
            }
        }
    }
    assert!(checked > 100, "found only {checked} citations");
    assert!(
        missing.is_empty(),
        "docs cite names no workspace code has:\n{}",
        missing.join("\n")
    );
}

#[test]
fn citations_are_whole_spans_calls_and_path_ends() {
    assert_eq!(
        cited("gap_prefers_one_cluster"),
        ["gap_prefers_one_cluster"]
    );
    assert_eq!(cited("BufferedServer::with_sink(sink)"), ["with_sink"]);
    assert_eq!(cited("kernels::sum_seq"), ["sum_seq"]);
    assert!(cited("clippy::indexing_slicing").is_empty());
    assert!(cited("--trace out.jsonl").is_empty());
    assert!(cited("num_clients = 100").is_empty());
}
