//! Plain-text rendering of lint results.

use crate::engine::Diagnostic;

/// Aggregated results across every linted file.
#[derive(Debug, Default)]
pub struct RunSummary {
    /// Files scanned.
    pub files_scanned: usize,
    /// Hard violations across all files.
    pub violations: Vec<Diagnostic>,
    /// `lint:allow` directives that suppressed something.
    pub allows_used: usize,
    /// All well-formed `lint:allow` directives.
    pub allows_total: usize,
}

impl RunSummary {
    /// Whether the run passed (no hard violations).
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Plain-text report: one header line per finding, the offending source
    /// line with a caret marker underneath, plus a trailing summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.violations {
            render_human_diag(&mut out, d);
        }
        out.push_str(&format!(
            "asyncfl-lint: {} violation(s), {} file(s) scanned, \
             {}/{} lint:allow directive(s) in use\n",
            self.violations.len(),
            self.files_scanned,
            self.allows_used,
            self.allows_total,
        ));
        out
    }
}

fn render_human_diag(out: &mut String, d: &Diagnostic) {
    let col = if d.col > 0 {
        format!(":{}", d.col)
    } else {
        String::new()
    };
    out.push_str(&format!(
        "{}:{}{col}: [{}] {}\n",
        d.path, d.line, d.rule, d.message
    ));
    if let Some(snippet) = &d.snippet {
        out.push_str(&format!("    | {snippet}\n"));
        if let (Some((start, end)), true) = (d.span, d.col > 0) {
            let width = (end.saturating_sub(start)).max(1) as usize;
            out.push_str(&format!(
                "    | {}{}\n",
                " ".repeat(d.col.saturating_sub(1) as usize),
                "^".repeat(width)
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &str, line: u32) -> Diagnostic {
        Diagnostic {
            rule: rule.to_string(),
            path: "crates/x/src/lib.rs".to_string(),
            line,
            col: 5,
            span: Some((100, 106)),
            snippet: Some("    x.unwrap(); // \"quoted\" \\ backslash".to_string()),
            message: "a \"quoted\" message".to_string(),
        }
    }

    #[test]
    fn human_report_mentions_everything() {
        let summary = RunSummary {
            files_scanned: 3,
            violations: vec![diag("F2", 7)],
            allows_used: 1,
            allows_total: 2,
        };
        let text = summary.render_human();
        assert!(text.contains("crates/x/src/lib.rs:7:5: [F2]"));
        assert!(text.contains("| "), "snippet line rendered");
        assert!(text.contains("^"), "caret marker rendered");
        assert!(text.contains("1 violation(s)"));
        assert!(!summary.clean());
    }
}
