//! CLI for the AsyncFilter workspace's token lints (F2, F3 and the
//! `lint:allow` directive checks); the rest of the catalogue is clippy's.
//!
//! ```text
//! asyncfl-lint check [--root DIR] [PATH...]
//! ```
//!
//! With no `PATH`s, walks `crates/*/src`, `src/`, `tests/` and `examples/`
//! under the workspace root. Exit codes: `0` clean, `1` violations found,
//! `2` usage or I/O error.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(message) => {
            eprintln!("asyncfl-lint: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut root = PathBuf::from(".");
    let mut explicit_paths: Vec<PathBuf> = Vec::new();
    let mut command: Option<&str> = None;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "check" if command.is_none() => command = Some("check"),
            "--root" => {
                let dir = iter
                    .next()
                    .ok_or_else(|| "--root requires a directory argument".to_string())?;
                root = PathBuf::from(dir);
            }
            "--help" | "-h" => {
                println!("usage: asyncfl-lint check [--root DIR] [PATH...]");
                return Ok(true);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other:?} (try --help)"));
            }
            path => explicit_paths.push(PathBuf::from(path)),
        }
    }
    if command != Some("check") {
        return Err("expected the `check` subcommand (try --help)".to_string());
    }

    let files = if explicit_paths.is_empty() {
        workspace_files(&root)?
    } else {
        let mut files = Vec::new();
        for p in explicit_paths {
            collect_rs_files(&p, &mut files)
                .map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        }
        files
    };
    if files.is_empty() {
        return Err(format!(
            "no .rs files found under {} — is this the workspace root? (use --root)",
            root.display()
        ));
    }

    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for path in &files {
        let source =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        sources.push((relative_label(&root, path), source));
    }
    let summary = asyncfl_lint::check_files(sources.iter().map(|(p, s)| (p.as_str(), s.as_str())));
    print!("{}", summary.render_human());
    Ok(summary.clean())
}

/// The default lint surface: every crate's `src`, plus the workspace
/// facade's `src/`, integration `tests/` and `examples/`.
fn workspace_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates) {
        for entry in entries.flatten() {
            let src = entry.path().join("src");
            if src.is_dir() {
                collect_rs_files(&src, &mut files)
                    .map_err(|e| format!("cannot walk {}: {e}", src.display()))?;
            }
        }
    }
    for top in ["src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)
                .map_err(|e| format!("cannot walk {}: {e}", dir.display()))?;
        }
    }
    files.sort();
    Ok(files)
}

/// Recursively gathers `.rs` files under `path` (or `path` itself).
/// Directories named `fixtures` are skipped: they hold lint-test corpora
/// whose files violate the rules on purpose.
fn collect_rs_files(path: &Path, out: &mut Vec<PathBuf>) -> Result<(), std::io::Error> {
    if path.is_dir() && path.file_name().is_some_and(|n| n == "fixtures") {
        return Ok(());
    }
    if path.is_file() {
        if path.extension().is_some_and(|e| e == "rs") {
            out.push(path.to_path_buf());
        }
        return Ok(());
    }
    for entry in fs::read_dir(path)? {
        let entry = entry?;
        collect_rs_files(&entry.path(), out)?;
    }
    Ok(())
}

/// Renders `path` relative to `root` with `/` separators, for stable,
/// diffable diagnostics across machines.
fn relative_label(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
