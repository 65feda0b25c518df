//! `BENCH_*.json` comparison: the perf-regression gate.
//!
//! [`asyncfl-bench-diff`](../bin/bench_diff.rs) loads two bench artifacts
//! (the committed baseline and a fresh run), prints a per-phase delta
//! table (markdown by default, `--json` for machines) and, under
//! `--gate`, exits nonzero when a gated phase's mean time, p99 time, or
//! mean allocated bytes regressed beyond the configured thresholds.
//!
//! The reader is deliberately tolerant across schema versions: v1
//! artifacts have no allocation fields or gauge summaries, so those
//! columns degrade to "n/a" and allocation gating silently disarms for
//! phases the old file never measured. A skipped threads-scaling probe
//! (`"skipped": "single-cpu host"`) and a timed one are both accepted.
//!
//! The workspace is zero-dependency, so this module carries its own
//! minimal recursive-descent JSON parser — it only needs to read what
//! [`crate::perf::BenchJson`] writes, but it parses arbitrary JSON so
//! artifacts from older/newer schema versions never panic the differ.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (held as `f64`; bench artifacts stay well inside
    /// the 2^53 integer-exact range).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number this value holds, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string this value holds, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array this value holds, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error.
pub fn parse_json(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|e| format!("bad \\u escape at byte {pos}: {e}"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?} at byte {pos}")),
                }
                *pos += 1;
            }
            _ => {
                // Copy the raw UTF-8 byte run up to the next quote/escape.
                let start = *pos;
                while *pos < bytes.len() && bytes[*pos] != b'"' && bytes[*pos] != b'\\' {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
    Err("unterminated string".into())
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            other => return Err(format!("expected ',' or ']' at byte {pos}, got {other:?}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    *pos += 1; // consume '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            other => return Err(format!("expected ',' or '}}' at byte {pos}, got {other:?}")),
        }
    }
}

/// One phase's metrics as read from an artifact. Allocation fields are
/// `None` for schema-v1 files (and files written without a counting
/// allocator report zeros, which gate-disarm the alloc comparison too).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseMetrics {
    /// Closed-span count.
    pub count: u64,
    /// Mean duration, nanoseconds.
    pub mean_ns: f64,
    /// 99th percentile duration, nanoseconds.
    pub p99_ns: f64,
    /// Mean bytes allocated per close (schema v2 only).
    pub alloc_bytes_mean: Option<f64>,
}

/// The million-client scale probe's gate-relevant fields as read from an
/// artifact's `scale_1m` member (absent in artifacts that predate it).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScaleSummary {
    /// Client population the probe simulated.
    pub clients: f64,
    /// Rounds the probe was configured to run.
    pub rounds: f64,
    /// Rounds it actually completed.
    pub rounds_completed: f64,
    /// Discrete events the engine's loop consumed.
    pub loop_events: f64,
    /// Allocator live-byte high-water mark at probe end — the memory
    /// side of the lazy-materialization contract (DESIGN.md §11).
    pub alloc_peak_live_bytes: f64,
}

/// Everything the differ reads out of one artifact.
#[derive(Debug, Clone, Default)]
pub struct BenchSummary {
    /// `"asyncfl-bench-v1"` / `"asyncfl-bench-v2"`.
    pub schema: String,
    /// Producing binary (`repro`, `detection`, `ablations`).
    pub binary: String,
    /// Total wall clock, seconds.
    pub total_secs: f64,
    /// Per-phase metrics keyed by span name.
    pub phases: BTreeMap<String, PhaseMetrics>,
    /// Allocator peak live bytes from `peak_rss_estimate` (v2, measured).
    pub peak_live_bytes: Option<f64>,
    /// Million-client scale probe, when the artifact recorded one.
    pub scale_1m: Option<ScaleSummary>,
}

/// Extracts the diffable summary from a parsed artifact.
///
/// # Errors
///
/// Returns an error when the document is not a bench artifact at all
/// (no `schema` / `phases` members).
pub fn summarize(doc: &Value) -> Result<BenchSummary, String> {
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing \"schema\" — not a bench artifact?")?
        .to_string();
    let mut summary = BenchSummary {
        schema,
        binary: doc
            .get("binary")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string(),
        total_secs: doc.get("total_secs").and_then(Value::as_f64).unwrap_or(0.0),
        ..Default::default()
    };
    let phases = doc
        .get("phases")
        .and_then(Value::as_arr)
        .ok_or("missing \"phases\" array")?;
    for phase in phases {
        let Some(span) = phase.get("span").and_then(Value::as_str) else {
            continue;
        };
        summary.phases.insert(
            span.to_string(),
            PhaseMetrics {
                count: phase.get("count").and_then(Value::as_f64).unwrap_or(0.0) as u64,
                mean_ns: phase.get("mean_ns").and_then(Value::as_f64).unwrap_or(0.0),
                p99_ns: phase.get("p99_ns").and_then(Value::as_f64).unwrap_or(0.0),
                alloc_bytes_mean: phase.get("alloc_bytes_mean").and_then(Value::as_f64),
            },
        );
    }
    summary.peak_live_bytes = doc
        .get("peak_rss_estimate")
        .and_then(|r| r.get("alloc_peak_live_bytes"))
        .and_then(Value::as_f64)
        .filter(|&b| b > 0.0);
    summary.scale_1m = doc.get("scale_1m").and_then(|p| {
        let field = |k: &str| p.get(k).and_then(Value::as_f64);
        Some(ScaleSummary {
            clients: field("clients")?,
            rounds: field("rounds").unwrap_or(0.0),
            rounds_completed: field("rounds_completed").unwrap_or(0.0),
            loop_events: field("loop_events").unwrap_or(0.0),
            alloc_peak_live_bytes: field("alloc_peak_live_bytes").unwrap_or(0.0),
        })
    });
    Ok(summary)
}

/// Gate thresholds, in percent regression (new worse than old).
#[derive(Debug, Clone, Copy)]
pub struct GateConfig {
    /// Max tolerated mean-time regression, percent.
    pub max_mean_regress_pct: f64,
    /// Max tolerated p99-time regression, percent.
    pub max_p99_regress_pct: f64,
    /// Max tolerated mean-allocated-bytes regression, percent.
    pub max_alloc_regress_pct: f64,
    /// Max tolerated mean-allocated-bytes regression for `filter*`
    /// phases, percent. Tighter than the general threshold: the filter
    /// hot path is allocation-free in steady state (scratch is reused
    /// across passes), so any byte growth there is a real leak in the
    /// incremental engine, not workload noise.
    pub max_filter_alloc_regress_pct: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        // CI defaults: generous on time (shared single-CPU runners are
        // noisy) and tight on allocation (deterministic, noise-free).
        Self {
            max_mean_regress_pct: 25.0,
            max_p99_regress_pct: 50.0,
            max_alloc_regress_pct: 10.0,
            max_filter_alloc_regress_pct: 5.0,
        }
    }
}

/// One threshold breach found by [`diff`] under gating.
#[derive(Debug, Clone, PartialEq)]
pub struct Breach {
    /// Phase name.
    pub phase: String,
    /// Which metric regressed (`mean_ns`, `p99_ns`, `alloc_bytes_mean`).
    pub metric: &'static str,
    /// Old value.
    pub old: f64,
    /// New value.
    pub new: f64,
    /// Regression percent (positive = worse).
    pub pct: f64,
    /// The threshold that was exceeded.
    pub threshold_pct: f64,
}

/// The full diff between two artifacts.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Old-side summary.
    pub old: BenchSummary,
    /// New-side summary.
    pub new: BenchSummary,
    /// Phases gating applies to (order preserved from the caller).
    pub gated_phases: Vec<String>,
    /// Breaches found in the gated phases.
    pub breaches: Vec<Breach>,
}

/// Percent change from `old` to `new`; `None` when `old` is not a
/// usable baseline (zero, negative, or non-finite).
pub fn pct_change(old: f64, new: f64) -> Option<f64> {
    (old.is_finite() && new.is_finite() && old > 0.0).then(|| (new - old) / old * 100.0)
}

/// Compares two summaries and collects gate breaches for `gated_phases`.
/// Allocation is only gated when **both** sides measured it (schema v2
/// with a counting allocator installed): a v1 baseline or a zero-byte
/// phase disarms the alloc gate rather than tripping it.
pub fn diff(
    old: BenchSummary,
    new: BenchSummary,
    gated_phases: &[String],
    gate: GateConfig,
) -> DiffReport {
    let mut breaches = Vec::new();
    for phase in gated_phases {
        let (Some(o), Some(n)) = (old.phases.get(phase), new.phases.get(phase)) else {
            continue;
        };
        let mut check = |metric: &'static str, ov: f64, nv: f64, threshold: f64| {
            if let Some(pct) = pct_change(ov, nv) {
                if pct > threshold {
                    breaches.push(Breach {
                        phase: phase.clone(),
                        metric,
                        old: ov,
                        new: nv,
                        pct,
                        threshold_pct: threshold,
                    });
                }
            }
        };
        check("mean_ns", o.mean_ns, n.mean_ns, gate.max_mean_regress_pct);
        check("p99_ns", o.p99_ns, n.p99_ns, gate.max_p99_regress_pct);
        if let (Some(oa), Some(na)) = (o.alloc_bytes_mean, n.alloc_bytes_mean) {
            if oa > 0.0 && na > 0.0 {
                let alloc_threshold = if phase.starts_with("filter") {
                    gate.max_filter_alloc_regress_pct
                } else {
                    gate.max_alloc_regress_pct
                };
                check("alloc_bytes_mean", oa, na, alloc_threshold);
            }
        }
    }
    // The million-client scale probe gates by presence and memory: once a
    // baseline records it, every successor must still run it at no smaller
    // a population, complete every round, and hold the allocator peak —
    // the lazy-materialization contract (DESIGN.md §11). Reintroducing an
    // eager per-client array adds ~1 KB × 10⁶ clients and trips the peak
    // check immediately. A baseline without the probe disarms all of this
    // (older artifacts never measured it).
    if let Some(o) = &old.scale_1m {
        match &new.scale_1m {
            None => breaches.push(Breach {
                phase: "scale_1m".to_string(),
                metric: "probe_missing",
                old: o.clients,
                new: 0.0,
                pct: 100.0,
                threshold_pct: 0.0,
            }),
            Some(n) => {
                if n.clients < o.clients {
                    breaches.push(Breach {
                        phase: "scale_1m".to_string(),
                        metric: "clients",
                        old: o.clients,
                        new: n.clients,
                        pct: pct_change(o.clients, n.clients).unwrap_or(0.0),
                        threshold_pct: 0.0,
                    });
                }
                if n.rounds_completed < n.rounds {
                    breaches.push(Breach {
                        phase: "scale_1m".to_string(),
                        metric: "rounds_completed",
                        old: n.rounds,
                        new: n.rounds_completed,
                        pct: pct_change(n.rounds, n.rounds_completed).unwrap_or(0.0),
                        threshold_pct: 0.0,
                    });
                }
                if o.alloc_peak_live_bytes > 0.0 && n.alloc_peak_live_bytes > 0.0 {
                    if let Some(pct) = pct_change(o.alloc_peak_live_bytes, n.alloc_peak_live_bytes)
                    {
                        if pct > gate.max_alloc_regress_pct {
                            breaches.push(Breach {
                                phase: "scale_1m".to_string(),
                                metric: "alloc_peak_live_bytes",
                                old: o.alloc_peak_live_bytes,
                                new: n.alloc_peak_live_bytes,
                                pct,
                                threshold_pct: gate.max_alloc_regress_pct,
                            });
                        }
                    }
                }
            }
        }
    }
    DiffReport {
        old,
        new,
        gated_phases: gated_phases.to_vec(),
        breaches,
    }
}

fn fmt_delta(old: f64, new: f64) -> String {
    match pct_change(old, new) {
        Some(pct) => format!("{pct:+.1}%"),
        None => "n/a".into(),
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.0}"),
        None => "n/a".into(),
    }
}

impl DiffReport {
    /// Renders the markdown delta table (the human / CI-artifact view).
    pub fn render_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "# Bench diff: {} ({}) vs {} ({})\n",
            self.old.binary, self.old.schema, self.new.binary, self.new.schema
        );
        let _ = writeln!(
            s,
            "Total wall clock: {:.2}s -> {:.2}s ({})\n",
            self.old.total_secs,
            self.new.total_secs,
            fmt_delta(self.old.total_secs, self.new.total_secs)
        );
        if let (Some(o), Some(n)) = (self.old.peak_live_bytes, self.new.peak_live_bytes) {
            let _ = writeln!(
                s,
                "Peak live heap: {:.1} MiB -> {:.1} MiB ({})\n",
                o / (1024.0 * 1024.0),
                n / (1024.0 * 1024.0),
                fmt_delta(o, n)
            );
        }
        if let (Some(o), Some(n)) = (&self.old.scale_1m, &self.new.scale_1m) {
            let _ = writeln!(
                s,
                "Scale probe ({:.0} clients): alloc peak {:.1} MiB -> {:.1} MiB ({}), \
                 {:.0} -> {:.0} loop events, rounds {:.0}/{:.0} -> {:.0}/{:.0}\n",
                n.clients,
                o.alloc_peak_live_bytes / (1024.0 * 1024.0),
                n.alloc_peak_live_bytes / (1024.0 * 1024.0),
                fmt_delta(o.alloc_peak_live_bytes, n.alloc_peak_live_bytes),
                o.loop_events,
                n.loop_events,
                o.rounds_completed,
                o.rounds,
                n.rounds_completed,
                n.rounds,
            );
        }
        let _ = writeln!(
            s,
            "| phase | count | mean_ns old | mean_ns new | Δmean | p99_ns old | p99_ns new | Δp99 | alloc/close old | alloc/close new | Δalloc |"
        );
        let _ = writeln!(s, "|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|");
        let all_phases: std::collections::BTreeSet<&String> = self
            .old
            .phases
            .keys()
            .chain(self.new.phases.keys())
            .collect();
        for phase in all_phases {
            let o = self.old.phases.get(phase);
            let n = self.new.phases.get(phase);
            let (od, nd) = (PhaseMetrics::default(), PhaseMetrics::default());
            let o = o.unwrap_or(&od);
            let n = n.unwrap_or(&nd);
            let alloc_delta = match (o.alloc_bytes_mean, n.alloc_bytes_mean) {
                (Some(oa), Some(na)) if oa > 0.0 => fmt_delta(oa, na),
                _ => "n/a".into(),
            };
            let gated = if self.gated_phases.contains(phase) {
                " *"
            } else {
                ""
            };
            let _ = writeln!(
                s,
                "| {}{} | {} -> {} | {:.0} | {:.0} | {} | {:.0} | {:.0} | {} | {} | {} | {} |",
                phase,
                gated,
                o.count,
                n.count,
                o.mean_ns,
                n.mean_ns,
                fmt_delta(o.mean_ns, n.mean_ns),
                o.p99_ns,
                n.p99_ns,
                fmt_delta(o.p99_ns, n.p99_ns),
                fmt_opt(o.alloc_bytes_mean),
                fmt_opt(n.alloc_bytes_mean),
                alloc_delta,
            );
        }
        s.push('\n');
        if self.breaches.is_empty() {
            let _ = writeln!(
                s,
                "Gate: OK — no regression beyond thresholds in gated phases (*)."
            );
        } else {
            let _ = writeln!(s, "Gate: **FAIL** — {} breach(es):", self.breaches.len());
            for b in &self.breaches {
                let _ = writeln!(
                    s,
                    "- `{}` {}: {:.0} -> {:.0} ({:+.1}%, threshold {:.0}%)",
                    b.phase, b.metric, b.old, b.new, b.pct, b.threshold_pct
                );
            }
        }
        s
    }

    /// Renders the machine-readable view (`--json`).
    pub fn render_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"schema\": \"asyncfl-bench-diff-v1\",\n");
        let _ = writeln!(
            s,
            "  \"old_total_secs\": {:.6},\n  \"new_total_secs\": {:.6},",
            self.old.total_secs, self.new.total_secs
        );
        let scale_peak = |side: &BenchSummary| {
            side.scale_1m.as_ref().map_or("null".to_string(), |p| {
                format!("{:.0}", p.alloc_peak_live_bytes)
            })
        };
        let _ = writeln!(
            s,
            "  \"scale_1m_peak_old\": {},\n  \"scale_1m_peak_new\": {},",
            scale_peak(&self.old),
            scale_peak(&self.new)
        );
        s.push_str("  \"phases\": [\n");
        let all_phases: std::collections::BTreeSet<&String> = self
            .old
            .phases
            .keys()
            .chain(self.new.phases.keys())
            .collect();
        let total = all_phases.len();
        for (i, phase) in all_phases.into_iter().enumerate() {
            let od = PhaseMetrics::default();
            let o = self.old.phases.get(phase).unwrap_or(&od);
            let nd = PhaseMetrics::default();
            let n = self.new.phases.get(phase).unwrap_or(&nd);
            let comma = if i + 1 < total { "," } else { "" };
            let mean_pct =
                pct_change(o.mean_ns, n.mean_ns).map_or("null".into(), |p| format!("{p:.3}"));
            let p99_pct =
                pct_change(o.p99_ns, n.p99_ns).map_or("null".into(), |p| format!("{p:.3}"));
            let alloc_pct = match (o.alloc_bytes_mean, n.alloc_bytes_mean) {
                (Some(oa), Some(na)) => {
                    pct_change(oa, na).map_or("null".into(), |p| format!("{p:.3}"))
                }
                _ => "null".into(),
            };
            let _ = writeln!(
                s,
                "    {{\"phase\": \"{}\", \"gated\": {}, \"mean_ns_old\": {:.1}, \
                 \"mean_ns_new\": {:.1}, \"mean_pct\": {}, \"p99_pct\": {}, \
                 \"alloc_pct\": {}}}{}",
                phase,
                self.gated_phases.contains(phase),
                o.mean_ns,
                n.mean_ns,
                mean_pct,
                p99_pct,
                alloc_pct,
                comma
            );
        }
        s.push_str("  ],\n");
        let _ = writeln!(s, "  \"breaches\": [");
        for (i, b) in self.breaches.iter().enumerate() {
            let comma = if i + 1 < self.breaches.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"phase\": \"{}\", \"metric\": \"{}\", \"old\": {:.1}, \
                 \"new\": {:.1}, \"pct\": {:.3}, \"threshold_pct\": {:.1}}}{}",
                b.phase, b.metric, b.old, b.new, b.pct, b.threshold_pct, comma
            );
        }
        s.push_str("  ],\n");
        let _ = writeln!(s, "  \"gate_ok\": {}", self.breaches.is_empty());
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v2_doc(mean_ns: f64, p99_ns: f64, alloc_mean: f64) -> String {
        format!(
            r#"{{
  "schema": "asyncfl-bench-v2",
  "binary": "repro",
  "quick": true,
  "threads": 2,
  "total_secs": 10.5,
  "experiments": [{{"name": "table2", "wall_clock_secs": 10.5}}],
  "phases": [
    {{"span": "filter", "count": 100, "total_secs": 0.5, "mean_ns": {mean_ns},
      "p50_ns": 1000, "p95_ns": 2000, "p99_ns": {p99_ns},
      "alloc_bytes_total": 100000, "alloc_bytes_mean": {alloc_mean},
      "alloc_bytes_p99": 2048, "peak_live_bytes": 999}}
  ],
  "counters": [{{"name": "deferred_requeued", "value": 3}}],
  "gauges": [{{"name": "buffer_occupancy", "count": 10, "last": 16, "mean": 14.5, "max": 16}}],
  "peak_rss_estimate": {{"alloc_peak_live_bytes": 5000000, "alloc_total_bytes": 9000000,
    "alloc_count": 1234, "vm_hwm_bytes": null}},
  "threads_scaling": {{"threads": 2, "host_cpus": 1, "clients": 32, "rounds": 10,
    "skipped": "single-cpu host"}},
  "training_throughput": null
}}
"#
        )
    }

    const V1_DOC: &str = r#"{
  "schema": "asyncfl-bench-v1",
  "binary": "repro",
  "total_secs": 9.0,
  "phases": [
    {"span": "filter", "count": 90, "total_secs": 0.4, "mean_ns": 900.0,
     "p50_ns": 800, "p95_ns": 1800, "p99_ns": 2500}
  ],
  "threads_scaling": null,
  "training_throughput": null
}
"#;

    #[test]
    fn parser_round_trips_both_schemas() {
        let v2 = parse_json(&v2_doc(1000.0, 3000.0, 1000.0)).expect("v2 parses");
        let v1 = parse_json(V1_DOC).expect("v1 parses");
        assert_eq!(
            v2.get("schema").and_then(Value::as_str),
            Some("asyncfl-bench-v2")
        );
        assert_eq!(
            v1.get("schema").and_then(Value::as_str),
            Some("asyncfl-bench-v1")
        );
        // The skipped scaling probe is readable.
        assert_eq!(
            v2.get("threads_scaling")
                .and_then(|t| t.get("skipped"))
                .and_then(Value::as_str),
            Some("single-cpu host")
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("").is_err());
        assert!(parse_json("{").is_err());
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v =
            parse_json(r#"{"a": "x\"y\\z\nwA", "b": [1, -2.5e3, true, null]}"#).expect("parses");
        assert_eq!(v.get("a").and_then(Value::as_str), Some("x\"y\\z\nwA"));
        let b = v.get("b").and_then(Value::as_arr).unwrap();
        assert_eq!(b[1].as_f64(), Some(-2500.0));
        assert_eq!(b[2], Value::Bool(true));
        assert_eq!(b[3], Value::Null);
    }

    #[test]
    fn summarize_reads_v2_alloc_fields() {
        let doc = parse_json(&v2_doc(1000.0, 3000.0, 1000.0)).unwrap();
        let s = summarize(&doc).expect("summarizes");
        let filter = &s.phases["filter"];
        assert_eq!(filter.count, 100);
        assert_eq!(filter.mean_ns, 1000.0);
        assert_eq!(filter.alloc_bytes_mean, Some(1000.0));
        assert_eq!(s.peak_live_bytes, Some(5_000_000.0));
    }

    #[test]
    fn summarize_tolerates_v1() {
        let doc = parse_json(V1_DOC).unwrap();
        let s = summarize(&doc).expect("summarizes");
        assert_eq!(s.schema, "asyncfl-bench-v1");
        assert_eq!(s.phases["filter"].alloc_bytes_mean, None);
        assert_eq!(s.peak_live_bytes, None);
    }

    #[test]
    fn summarize_rejects_non_artifacts() {
        let doc = parse_json("{\"hello\": 1}").unwrap();
        assert!(summarize(&doc).is_err());
    }

    fn gated() -> Vec<String> {
        vec!["filter".to_string()]
    }

    #[test]
    fn gate_passes_within_thresholds() {
        let old = summarize(&parse_json(&v2_doc(1000.0, 3000.0, 1000.0)).unwrap()).unwrap();
        let new = summarize(&parse_json(&v2_doc(1100.0, 3200.0, 1050.0)).unwrap()).unwrap();
        let report = diff(old, new, &gated(), GateConfig::default());
        assert!(report.breaches.is_empty(), "{:?}", report.breaches);
        assert!(report.render_markdown().contains("Gate: OK"));
    }

    #[test]
    fn gate_trips_on_mean_time_regression() {
        let old = summarize(&parse_json(&v2_doc(1000.0, 3000.0, 1000.0)).unwrap()).unwrap();
        let new = summarize(&parse_json(&v2_doc(1400.0, 3000.0, 1000.0)).unwrap()).unwrap();
        let report = diff(old, new, &gated(), GateConfig::default());
        assert_eq!(report.breaches.len(), 1);
        assert_eq!(report.breaches[0].metric, "mean_ns");
        assert!((report.breaches[0].pct - 40.0).abs() < 1e-9);
        let md = report.render_markdown();
        assert!(md.contains("FAIL"), "{md}");
        let js = report.render_json();
        assert!(js.contains("\"gate_ok\": false"), "{js}");
    }

    #[test]
    fn gate_trips_on_alloc_regression() {
        let old = summarize(&parse_json(&v2_doc(1000.0, 3000.0, 1000.0)).unwrap()).unwrap();
        let new = summarize(&parse_json(&v2_doc(1000.0, 3000.0, 1200.0)).unwrap()).unwrap();
        let report = diff(old, new, &gated(), GateConfig::default());
        assert_eq!(report.breaches.len(), 1);
        assert_eq!(report.breaches[0].metric, "alloc_bytes_mean");
    }

    #[test]
    fn filter_phases_use_the_tighter_alloc_threshold() {
        // +8% allocation: inside the general 10% budget, outside the 5%
        // filter budget — a filter-named phase must trip, others must not.
        let old = summarize(&parse_json(&v2_doc(1000.0, 3000.0, 1000.0)).unwrap()).unwrap();
        let new = summarize(&parse_json(&v2_doc(1000.0, 3000.0, 1080.0)).unwrap()).unwrap();
        let report = diff(old.clone(), new.clone(), &gated(), GateConfig::default());
        assert_eq!(report.breaches.len(), 1, "{:?}", report.breaches);
        assert_eq!(report.breaches[0].metric, "alloc_bytes_mean");
        assert!((report.breaches[0].threshold_pct - 5.0).abs() < 1e-9);

        // The same +8% on a non-filter phase stays within thresholds.
        let rename = |mut s: BenchSummary| {
            let m = s.phases.remove("filter").unwrap();
            s.phases.insert("aggregate".to_string(), m);
            s
        };
        let report = diff(
            rename(old),
            rename(new),
            &["aggregate".to_string()],
            GateConfig::default(),
        );
        assert!(report.breaches.is_empty(), "{:?}", report.breaches);
    }

    #[test]
    fn alloc_gate_disarms_against_v1_baseline() {
        // v1 has no alloc fields: a huge "regression" vs nothing must not trip.
        let old = summarize(&parse_json(V1_DOC).unwrap()).unwrap();
        let new = summarize(&parse_json(&v2_doc(900.0, 2500.0, 99_999.0)).unwrap()).unwrap();
        let report = diff(old, new, &gated(), GateConfig::default());
        assert!(report.breaches.is_empty(), "{:?}", report.breaches);
        // The markdown still shows the new measurement with n/a delta.
        let md = report.render_markdown();
        assert!(md.contains("n/a"), "{md}");
    }

    #[test]
    fn improvements_never_breach() {
        let old = summarize(&parse_json(&v2_doc(1000.0, 3000.0, 1000.0)).unwrap()).unwrap();
        let new = summarize(&parse_json(&v2_doc(10.0, 30.0, 10.0)).unwrap()).unwrap();
        let report = diff(old, new, &gated(), GateConfig::default());
        assert!(report.breaches.is_empty());
    }

    #[test]
    fn ungated_phases_are_reported_but_never_breach() {
        let old = summarize(&parse_json(&v2_doc(1000.0, 3000.0, 1000.0)).unwrap()).unwrap();
        let new = summarize(&parse_json(&v2_doc(9000.0, 9000.0, 9000.0)).unwrap()).unwrap();
        let report = diff(old, new, &[], GateConfig::default());
        assert!(report.breaches.is_empty());
        assert!(report.render_markdown().contains("filter"));
    }

    /// A minimal v2 artifact carrying a `scale_1m` probe.
    fn scale_doc(clients: f64, rounds_completed: f64, peak: f64) -> String {
        format!(
            r#"{{
  "schema": "asyncfl-bench-v2",
  "binary": "repro",
  "total_secs": 20.0,
  "phases": [],
  "scale_1m": {{"clients": {clients}, "rounds": 30, "aggregation_bound": 16384,
    "participation": 0.5, "shard_cache_capacity": 4096,
    "rounds_completed": {rounds_completed}, "updates_received": 491520,
    "loop_events": 1966080, "wall_secs": 12.5, "events_per_sec": 157286.4,
    "final_accuracy": 0.83, "resident_client_states_max": 4096,
    "alloc_peak_live_bytes": {peak}, "vm_hwm_bytes": null}}
}}
"#
        )
    }

    fn scale_summary(clients: f64, rounds_completed: f64, peak: f64) -> BenchSummary {
        summarize(&parse_json(&scale_doc(clients, rounds_completed, peak)).unwrap()).unwrap()
    }

    #[test]
    fn summarize_reads_the_scale_probe() {
        let s = scale_summary(1_000_000.0, 30.0, 250e6);
        let probe = s.scale_1m.expect("probe parsed");
        assert_eq!(probe.clients, 1_000_000.0);
        assert_eq!(probe.rounds, 30.0);
        assert_eq!(probe.rounds_completed, 30.0);
        assert_eq!(probe.loop_events, 1_966_080.0);
        assert_eq!(probe.alloc_peak_live_bytes, 250e6);
        // Artifacts that predate the probe read as absent, not as zeros.
        let old = summarize(&parse_json(&v2_doc(1000.0, 3000.0, 1000.0)).unwrap()).unwrap();
        assert_eq!(old.scale_1m, None);
    }

    #[test]
    fn scale_gate_trips_on_peak_memory_regression() {
        let old = scale_summary(1_000_000.0, 30.0, 250e6);
        let ok = diff(
            old.clone(),
            scale_summary(1_000_000.0, 30.0, 260e6),
            &[],
            GateConfig::default(),
        );
        assert!(ok.breaches.is_empty(), "{:?}", ok.breaches);
        let bad = diff(
            old,
            scale_summary(1_000_000.0, 30.0, 400e6),
            &[],
            GateConfig::default(),
        );
        assert_eq!(bad.breaches.len(), 1, "{:?}", bad.breaches);
        assert_eq!(bad.breaches[0].metric, "alloc_peak_live_bytes");
        assert_eq!(bad.breaches[0].phase, "scale_1m");
    }

    #[test]
    fn scale_gate_trips_when_the_probe_disappears() {
        let old = scale_summary(1_000_000.0, 30.0, 250e6);
        let new = summarize(&parse_json(&v2_doc(1000.0, 3000.0, 1000.0)).unwrap()).unwrap();
        let report = diff(old, new, &[], GateConfig::default());
        assert_eq!(report.breaches.len(), 1);
        assert_eq!(report.breaches[0].metric, "probe_missing");
    }

    #[test]
    fn scale_gate_requires_full_population_and_rounds() {
        let old = scale_summary(1_000_000.0, 30.0, 250e6);
        let shrunk = diff(
            old.clone(),
            scale_summary(500_000.0, 30.0, 150e6),
            &[],
            GateConfig::default(),
        );
        assert!(shrunk.breaches.iter().any(|b| b.metric == "clients"));
        let incomplete = diff(
            old,
            scale_summary(1_000_000.0, 20.0, 250e6),
            &[],
            GateConfig::default(),
        );
        assert!(incomplete
            .breaches
            .iter()
            .any(|b| b.metric == "rounds_completed"));
    }

    #[test]
    fn scale_gate_disarms_without_a_baseline_probe() {
        // An old artifact that never measured the probe cannot gate it —
        // a huge new measurement is data, not a regression.
        let old = summarize(&parse_json(&v2_doc(1000.0, 3000.0, 1000.0)).unwrap()).unwrap();
        let new = scale_summary(1_000_000.0, 30.0, 900e6);
        let report = diff(old, new, &gated(), GateConfig::default());
        assert!(report.breaches.is_empty(), "{:?}", report.breaches);
    }

    #[test]
    fn scale_probe_delta_appears_in_both_renders() {
        let old = scale_summary(1_000_000.0, 30.0, 250e6);
        let new = scale_summary(1_000_000.0, 30.0, 260e6);
        let report = diff(old, new, &[], GateConfig::default());
        let md = report.render_markdown();
        assert!(md.contains("Scale probe (1000000 clients)"), "{md}");
        assert!(md.contains("loop events"), "{md}");
        let js = report.render_json();
        assert!(js.contains("\"scale_1m_peak_old\": 250000000"), "{js}");
        assert!(js.contains("\"scale_1m_peak_new\": 260000000"), "{js}");
    }

    #[test]
    fn pct_change_edge_cases() {
        assert_eq!(pct_change(0.0, 5.0), None);
        assert_eq!(pct_change(-1.0, 5.0), None);
        assert_eq!(pct_change(f64::NAN, 5.0), None);
        assert_eq!(pct_change(100.0, 125.0), Some(25.0));
        assert_eq!(pct_change(100.0, 75.0), Some(-25.0));
    }
}
