//! Human and machine-readable rendering of lint results.
//!
//! The JSON schema is stable and versioned (`asyncfl-lint-v2`): CI archives
//! the report, and `crates/lint/tests/lint_report_roundtrip.rs`
//! round-trips it through an independent JSON parser, so snippet lines
//! containing quotes and backslashes (i.e. most Rust source) are covered
//! by test, not hope.

use crate::engine::Diagnostic;

/// Schema identifier embedded in the JSON report.
pub const JSON_SCHEMA: &str = "asyncfl-lint-v2";

/// Aggregated results across every linted file.
#[derive(Debug, Default)]
pub struct RunSummary {
    /// Files scanned.
    pub files_scanned: usize,
    /// Files where the AST parser fell back to the token scan.
    pub parse_fallbacks: usize,
    /// Hard violations across all files.
    pub violations: Vec<Diagnostic>,
    /// Non-fatal warnings (parser fallbacks).
    pub warnings: Vec<Diagnostic>,
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
            render_human_diag(&mut out, d, "");
        }
        for d in &self.warnings {
            render_human_diag(&mut out, d, "warning: ");
        }
        out.push_str(&format!(
            "asyncfl-lint: {} violation(s), {} warning(s), {} file(s) scanned \
             ({} parser fallback(s)), {}/{} lint:allow directive(s) in use\n",
            self.violations.len(),
            self.warnings.len(),
            self.files_scanned,
            self.parse_fallbacks,
            self.allows_used,
            self.allows_total,
        ));
        out
    }

    /// JSON report (hand-rolled; this crate is dependency-free). Stable key
    /// order so CI artifacts diff cleanly across PRs.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": {},\n", json_string(JSON_SCHEMA)));
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!(
            "  \"parse_fallbacks\": {},\n",
            self.parse_fallbacks
        ));
        out.push_str(&format!("  \"allows_used\": {},\n", self.allows_used));
        out.push_str(&format!("  \"allows_total\": {},\n", self.allows_total));
        out.push_str(&format!(
            "  \"violations\": {},\n",
            render_diagnostics(&self.violations)
        ));
        out.push_str(&format!(
            "  \"warnings\": {}\n",
            render_diagnostics(&self.warnings)
        ));
        out.push_str("}\n");
        out
    }
}

fn render_human_diag(out: &mut String, d: &Diagnostic, prefix: &str) {
    if d.col > 0 {
        out.push_str(&format!(
            "{}:{}:{}: [{}] {}{}\n",
            d.path, d.line, d.col, d.rule, prefix, d.message
        ));
    } else {
        out.push_str(&format!(
            "{}:{}: [{}] {}{}\n",
            d.path, d.line, d.rule, prefix, d.message
        ));
    }
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

fn render_diagnostics(diags: &[Diagnostic]) -> String {
    if diags.is_empty() {
        return "[]".to_string();
    }
    let items: Vec<String> = diags
        .iter()
        .map(|d| {
            let mut fields = vec![
                format!("\"rule\": {}", json_string(&d.rule)),
                format!("\"path\": {}", json_string(&d.path)),
                format!("\"line\": {}", d.line),
                format!("\"col\": {}", d.col),
            ];
            if let Some((start, end)) = d.span {
                fields.push(format!("\"span\": [{start}, {end}]"));
            }
            if let Some(snippet) = &d.snippet {
                fields.push(format!("\"snippet\": {}", json_string(snippet)));
            }
            fields.push(format!("\"message\": {}", json_string(&d.message)));
            format!("    {{{}}}", fields.join(", "))
        })
        .collect();
    format!("[\n{}\n  ]", items.join(",\n"))
}

/// Escapes a string for JSON output.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
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
            parse_fallbacks: 0,
            violations: vec![diag("D1", 7)],
            warnings: vec![],
            allows_used: 1,
            allows_total: 2,
        };
        let text = summary.render_human();
        assert!(text.contains("crates/x/src/lib.rs:7:5: [D1]"));
        assert!(text.contains("| "), "snippet line rendered");
        assert!(text.contains("^"), "caret marker rendered");
        assert!(text.contains("1 violation(s)"));
        assert!(!summary.clean());
    }

    #[test]
    fn json_escapes_quotes_and_parses_shapewise() {
        let summary = RunSummary {
            files_scanned: 1,
            parse_fallbacks: 1,
            violations: vec![diag("F1", 2)],
            warnings: vec![],
            allows_used: 0,
            allows_total: 0,
        };
        let json = summary.render_json();
        assert!(json.contains("\"schema\": \"asyncfl-lint-v2\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\\\\ backslash"), "backslash escaped");
        assert!(json.contains("\"files_scanned\": 1"));
        assert!(json.contains("\"parse_fallbacks\": 1"));
        assert!(json.contains("\"rule\": \"F1\""));
        assert!(json.contains("\"span\": [100, 106]"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
