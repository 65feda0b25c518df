//! Pin: the AST parser handles every Rust file in this workspace.
//!
//! A file the parser rejects fails `asyncfl-lint check`; this test catches
//! the same gap from `cargo test`, over every `.rs` file rather than only
//! the lint surface, and lists all failures at once.

use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_workspace_file_parses() {
    let root = workspace_root();
    let mut files = Vec::new();
    for sub in ["crates", "src", "tests", "examples"] {
        collect_rs(&root.join(sub), &mut files);
    }
    assert!(
        files.len() > 50,
        "workspace walk found only {} files — wrong root?",
        files.len()
    );
    let mut failures = Vec::new();
    for path in &files {
        // The lint fixture corpus deliberately contains a malformed file.
        if path.components().any(|c| c.as_os_str() == "fixtures") {
            continue;
        }
        let Ok(src) = fs::read_to_string(path) else {
            continue;
        };
        let lexed = asyncfl_lint::tokenizer::lex(&src);
        if let Err(e) = asyncfl_lint::parser::parse_file(&lexed) {
            failures.push(format!(
                "{}:{}: {}",
                path.strip_prefix(&root).unwrap_or(path).display(),
                e.span.line,
                e.message
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "parser rejected {} of {} files:\n{}",
        failures.len(),
        files.len(),
        failures.join("\n")
    );
}
