//! The project-invariant rules and the token-pattern scan that enforces
//! them.
//!
//! Every rule exists because AsyncFilter's verdicts hinge on floating-point
//! suspicious scores (paper eqs. 6–7) and a 1-D 3-means over them (§4.3):
//! a NaN-unsafe sort, a `HashMap` iteration in filter state, or an ambient
//! entropy source silently makes accept/defer/reject decisions
//! nondeterministic — the failure mode that makes poisoning-detection
//! reproductions untrustworthy. See `docs/LINTS.md` for the full catalogue.

use crate::engine::FileClass;
use crate::tokenizer::{float_literal_is_zero, Lexed, TokenKind};

/// Static description of one lint rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Short stable identifier (`D1`, `F2`, …) used in reports and
    /// `lint:allow` directives.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// All rules, in catalogue order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "D1",
        summary: "no HashMap/HashSet in non-test code (iteration order is nondeterministic)",
    },
    Rule {
        id: "D2",
        summary: "no ambient entropy or wall-clock time sources (seeded RNG only)",
    },
    Rule {
        id: "D3",
        summary: "no external rand/crossbeam/parking_lot in non-test code (hermetic build)",
    },
    Rule {
        id: "D4",
        summary: "no bare Instant::now() outside the telemetry crate (use telemetry::Stopwatch)",
    },
    Rule {
        id: "F1",
        summary: "no partial_cmp on floats (NaN-unsafe); use f64::total_cmp",
    },
    Rule {
        id: "F2",
        summary: "no float ==/!= against nonzero literals or NaN/INFINITY in non-test code",
    },
    Rule {
        id: "F3",
        summary: "no ad-hoc float reductions (sum/fold/+= loops) outside asyncfl-tensor::kernels",
    },
    Rule {
        id: "P1",
        summary: "no unwrap()/expect()/panic! in library non-test code",
    },
    Rule {
        id: "P2",
        summary: "no unchecked slice/array indexing in non-test code of hot-path crates",
    },
    Rule {
        id: "X1",
        summary: "cross-file contract drift: Event kinds and rule ids must be documented",
    },
];

/// Whether `id` names a known rule (used to validate `lint:allow` lists).
pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// One raw rule match, before `lint:allow` filtering.
#[derive(Debug, Clone)]
pub struct RuleHit {
    /// Rule identifier.
    pub rule: &'static str,
    /// 1-based source line.
    pub line: u32,
    /// Byte span `[start, end)` of the offending tokens in the source.
    pub span: (u32, u32),
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

/// Scans a lexed file for rule violations. `in_test[i]` marks tokens inside
/// `#[cfg(test)]` / `#[test]` regions.
pub fn scan(lexed: &Lexed, class: &FileClass, in_test: &[bool]) -> Vec<RuleHit> {
    let toks = &lexed.tokens;
    let mut hits = Vec::new();

    let d1_applies = !class.is_bench_crate && !class.is_test_file;
    let d2_applies = !class.is_bench_crate && !class.is_telemetry_crate;
    let d4_applies = !class.is_telemetry_crate;
    let d3_applies = !class.is_test_file;
    let f2_applies = !class.is_test_file;
    let p1_applies =
        !class.is_bench_crate && !class.is_test_file && !class.is_binary && !class.is_example;

    for i in 0..toks.len() {
        let t = &toks[i];
        let tested = in_test.get(i).copied().unwrap_or(false);
        let prev_text = i.checked_sub(1).map(|p| toks[p].text.as_str());
        let next = toks.get(i + 1);

        // D1 — deterministic collections in filter/aggregation state.
        if d1_applies
            && !tested
            && t.kind == TokenKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
        {
            let replacement = if t.text == "HashMap" {
                "BTreeMap"
            } else {
                "BTreeSet"
            };
            hits.push(RuleHit {
                rule: "D1",
                line: t.line,
                span: (t.start, t.end),
                message: format!(
                    "{} iteration order is nondeterministic; filter verdicts and \
                     aggregation must be reproducible — use {replacement} or a sorted Vec",
                    t.text
                ),
            });
        }

        // D2 — no ambient entropy / wall-clock outside bench + telemetry.
        if d2_applies && t.kind == TokenKind::Ident {
            if t.text == "thread_rng" || t.text == "from_entropy" {
                hits.push(RuleHit {
                    rule: "D2",
                    line: t.line,
                    span: (t.start, t.end),
                    message: format!(
                        "{} draws ambient entropy; derive a seeded StdRng from the run \
                         seed so filter decisions replay bit-identically",
                        t.text
                    ),
                });
            }
            if t.text == "SystemTime"
                && matches!(next, Some(n) if n.text == "::")
                && matches!(toks.get(i + 2), Some(n2) if n2.text == "now")
            {
                hits.push(RuleHit {
                    rule: "D2",
                    line: t.line,
                    span: (t.start, t.end),
                    message: "SystemTime::now makes behaviour depend on wall-clock time; \
                              thread virtual time through instead"
                        .to_string(),
                });
            }
        }

        // D4 — one sanctioned wall clock. Every timing measurement flows
        // through `asyncfl_telemetry::Stopwatch` so span nanos and the
        // harness wall clocks read the same clock, and the audit
        // surface for time-dependence stays a single module. The telemetry
        // crate, which owns the clock, is the only place allowed to touch
        // `Instant` directly.
        if d4_applies
            && t.kind == TokenKind::Ident
            && t.text == "Instant"
            && matches!(next, Some(n) if n.text == "::")
            && matches!(toks.get(i + 2), Some(n2) if n2.text == "now")
        {
            hits.push(RuleHit {
                rule: "D4",
                line: t.line,
                span: (t.start, t.end),
                message: "Instant::now() bypasses the sanctioned wall clock; use \
                          asyncfl_telemetry::Stopwatch so all timing reads one \
                          auditable source"
                    .to_string(),
            });
        }

        // D3 — hermetic build: the runtime dependency graph is first-party
        // only, so paths into the external crates the workspace replaced
        // (`rand`, `crossbeam`, `parking_lot`) must not reappear. The
        // first-party substitutes (`asyncfl_rng`, std `mpsc`/`Mutex`) lex as
        // different idents and never match.
        if d3_applies
            && !tested
            && t.kind == TokenKind::Ident
            && (t.text == "rand" || t.text == "crossbeam" || t.text == "parking_lot")
            && matches!(next, Some(n) if n.text == "::")
        {
            let replacement = match t.text.as_str() {
                "rand" => "asyncfl_rng",
                "crossbeam" => "std::sync::mpsc",
                _ => "std::sync::Mutex/RwLock",
            };
            hits.push(RuleHit {
                rule: "D3",
                line: t.line,
                span: (t.start, t.end),
                message: format!(
                    "{}:: pulls an external crate back into the runtime graph and breaks \
                     the offline build; use {replacement} instead",
                    t.text
                ),
            });
        }

        // F1 — NaN-unsafe float comparisons (applies to test code too: a
        // flaky test comparator is still a reproducibility bug).
        if t.kind == TokenKind::Ident && t.text == "partial_cmp" && prev_text == Some(".") {
            hits.push(RuleHit {
                rule: "F1",
                line: t.line,
                span: (t.start, t.end),
                message: "partial_cmp(..).unwrap()/expect() panics on NaN and poisons sort \
                          order; use f64::total_cmp for a NaN-safe total order"
                    .to_string(),
            });
        }

        // F2 — float equality against nonzero literals / NaN / infinities.
        // Exact-zero tests (`x == 0.0`) are well-defined IEEE sentinel and
        // sparsity checks and stay permitted; see docs/LINTS.md.
        if f2_applies && !tested && t.kind == TokenKind::Op && (t.text == "==" || t.text == "!=") {
            let float_const = |text: &str| {
                text == "NAN" || text == "INFINITY" || text == "NEG_INFINITY" || text == "EPSILON"
            };
            let prev_bad = i.checked_sub(1).is_some_and(|p| {
                let pt = &toks[p];
                (pt.kind == TokenKind::Float && !float_literal_is_zero(&pt.text))
                    || (pt.kind == TokenKind::Ident && float_const(&pt.text))
            });
            // Right-hand side: skip a unary minus, then resolve a path
            // (`f64 :: NAN`) to its final segment.
            let mut j = i + 1;
            if toks
                .get(j)
                .is_some_and(|n| n.kind == TokenKind::Op && n.text == "-")
            {
                j += 1;
            }
            while toks.get(j).is_some_and(|n| n.kind == TokenKind::Ident)
                && toks.get(j + 1).is_some_and(|n| n.text == "::")
            {
                j += 2;
            }
            let rhs = toks.get(j);
            let next_bad = rhs.is_some_and(|nt| {
                (nt.kind == TokenKind::Float && !float_literal_is_zero(&nt.text))
                    || (nt.kind == TokenKind::Ident && float_const(&nt.text))
            });
            if prev_bad || next_bad {
                hits.push(RuleHit {
                    rule: "F2",
                    line: t.line,
                    span: (t.start, t.end),
                    message: format!(
                        "float {} against a nonzero literal is rounding-fragile (and always \
                         false for NaN); compare with an epsilon or use is_nan()/is_infinite()",
                        t.text
                    ),
                });
            }
        }

        // P1 — panic-freedom in library code.
        if p1_applies && !tested && t.kind == TokenKind::Ident {
            if (t.text == "unwrap" || t.text == "expect") && prev_text == Some(".") {
                hits.push(RuleHit {
                    rule: "P1",
                    line: t.line,
                    span: (t.start, t.end),
                    message: format!(
                        ".{}() can abort a long training run mid-flight; return an error, \
                         use unwrap_or/match, or justify with a lint:allow",
                        t.text
                    ),
                });
            }
            if t.text == "panic" && matches!(next, Some(n) if n.text == "!") {
                hits.push(RuleHit {
                    rule: "P1",
                    line: t.line,
                    span: (t.start, t.end),
                    message: "panic! in library code aborts the whole server; return a \
                              Result or justify with a lint:allow"
                        .to_string(),
                });
            }
        }
    }
    hits
}
