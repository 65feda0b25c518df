//! The structured event model and its hand-rolled JSONL serialization.
//!
//! One [`Event`] is one observable fact about a run. The JSON encoding is
//! written by hand (no serde) so the crate stays dependency-free; the
//! schema is documented field-by-field in `docs/TUTORIAL.md` ("Tracing a
//! run") and is append-only: new event kinds may be added, existing fields
//! are never renamed.

/// The filter's decision about one update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Aggregated into the global model this round.
    Accepted,
    /// Dropped as suspected poisoned.
    Rejected,
    /// Re-buffered to "contribute at a later stage".
    Deferred,
}

impl Verdict {
    /// The lowercase wire name (`"accepted"`, `"rejected"`, `"deferred"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Verdict::Accepted => "accepted",
            Verdict::Rejected => "rejected",
            Verdict::Deferred => "deferred",
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a report was discarded as malformed at receipt, before any
/// filter saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MalformedReason {
    /// A `params` or `delta` dimension differs from the global model's.
    Dimension,
    /// A cached `‖params‖²` or `‖delta‖²` is not finite.
    NonFiniteNorm,
    /// The claimed base round is later than the server's round.
    FutureRound,
}

impl MalformedReason {
    /// The snake_case wire name (`"dimension"`, `"non_finite_norm"`,
    /// `"future_round"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            MalformedReason::Dimension => "dimension",
            MalformedReason::NonFiniteNorm => "non_finite_norm",
            MalformedReason::FutureRound => "future_round",
        }
    }
}

/// One structured observation of the update lifecycle.
///
/// Events are cheap, `Copy`-free value types; sinks receive them by
/// reference and decide whether to store, serialize or fold them.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A well-formed client report arrived at the server (after the
    /// receipt checks, before staleness screening).
    UpdateReceived {
        /// Submitting client.
        client: usize,
        /// Server round at receipt.
        round: u64,
        /// Staleness of the report at receipt.
        staleness: u64,
    },
    /// A report was dropped for exceeding the staleness limit (either at
    /// receipt or when a deferred update aged out before re-aggregation).
    UpdateDiscardedStale {
        /// Submitting client.
        client: usize,
        /// Server round at the discard.
        round: u64,
        /// The offending staleness value.
        staleness: u64,
    },
    /// A report was discarded at receipt as malformed. It emits no
    /// [`Event::UpdateReceived`] and never reaches a filter.
    UpdateDiscardedMalformed {
        /// Submitting client.
        client: usize,
        /// Server round at the discard.
        round: u64,
        /// The failed receipt check.
        reason: MalformedReason,
    },
    /// The filter's per-update decision for one buffered report.
    ///
    /// Every filter produces these (the server derives the verdict from the
    /// outcome partition), so FedBuff, FLDetector, Zeno++ and AsyncFilter
    /// traces compare apples-to-apples. `score` is `NaN` (serialized as
    /// `null`) for filters that do not score, e.g. the passthrough
    /// baseline or AsyncFilter's below-`min_updates` bypass.
    FilterScore {
        /// Submitting client.
        client: usize,
        /// Staleness group key (eq. 4) the update was scored in.
        staleness_group: u64,
        /// Normalized suspicious score (eq. 7), if the filter scored it.
        score: f64,
        /// The decision.
        verdict: Verdict,
    },
    /// One buffered aggregation completed.
    AggregationCompleted {
        /// The round index this aggregation completed (0-based).
        round: u64,
        /// Updates aggregated.
        accepted: usize,
        /// Updates rejected by the filter.
        rejected: usize,
        /// Updates re-buffered for a later aggregation.
        deferred: usize,
    },
    /// A test-accuracy evaluation checkpoint.
    AccuracyCheckpoint {
        /// Completed server rounds at the checkpoint.
        round: u64,
        /// Test accuracy in `[0, 1]`.
        accuracy: f64,
    },
    /// A timing span closed (see [`crate::Span`]).
    SpanClosed {
        /// Span name (`"filter"`, `"kmeans_1d"`, `"aggregate"`,
        /// `"local_training"`, …).
        name: &'static str,
        /// Elapsed wall-clock nanoseconds.
        nanos: u64,
        /// Bytes allocated while the span was open (process-global
        /// counter delta from [`crate::alloc`]; `0` when no
        /// [`crate::alloc::CountingAllocator`] is installed).
        alloc_bytes: u64,
        /// The allocator's live-byte high-water mark at span close
        /// (process-global and monotonic; `0` when no counting
        /// allocator is installed).
        peak_live_bytes: u64,
    },
    /// A named monotonic counter was incremented (e.g. bookkeeping the
    /// hot loops want tallied without a full structured event per item).
    CounterAdd {
        /// Stable counter name (see `docs/OBSERVABILITY.md`).
        name: &'static str,
        /// Increment (counters only ever go up).
        delta: u64,
    },
    /// A point-in-time sample of a named gauge (buffer occupancy,
    /// queue depths, resident bytes, …).
    GaugeSample {
        /// Stable gauge name (see `docs/OBSERVABILITY.md`).
        name: &'static str,
        /// The sampled value.
        value: u64,
    },
}

impl Event {
    /// The stable snake_case kind tag, used both as the JSON `type` field
    /// and as the [`crate::MetricsRegistry`] counter key.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::UpdateReceived { .. } => "update_received",
            Event::UpdateDiscardedStale { .. } => "update_discarded_stale",
            Event::UpdateDiscardedMalformed { .. } => "update_discarded_malformed",
            Event::FilterScore { .. } => "filter_score",
            Event::AggregationCompleted { .. } => "aggregation_completed",
            Event::AccuracyCheckpoint { .. } => "accuracy_checkpoint",
            Event::SpanClosed { .. } => "span_closed",
            Event::CounterAdd { .. } => "counter_add",
            Event::GaugeSample { .. } => "gauge_sample",
        }
    }

    /// Serializes the event as one compact JSON object (no trailing
    /// newline). Non-finite floats become `null` — JSON has no NaN.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        self.write_json(&mut out);
        out
    }

    /// Appends the JSON encoding to `out` (allocation-reuse variant of
    /// [`to_json`](Self::to_json)).
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write;
        out.push_str("{\"type\":\"");
        out.push_str(self.kind());
        out.push('"');
        match self {
            Event::UpdateReceived {
                client,
                round,
                staleness,
            }
            | Event::UpdateDiscardedStale {
                client,
                round,
                staleness,
            } => {
                let _ = write!(
                    out,
                    ",\"client\":{client},\"round\":{round},\"staleness\":{staleness}"
                );
            }
            Event::UpdateDiscardedMalformed {
                client,
                round,
                reason,
            } => {
                let _ = write!(out, ",\"client\":{client},\"round\":{round},\"reason\":\"");
                out.push_str(reason.as_str());
                out.push('"');
            }
            Event::FilterScore {
                client,
                staleness_group,
                score,
                verdict,
            } => {
                let _ = write!(
                    out,
                    ",\"client\":{client},\"staleness_group\":{staleness_group},"
                );
                out.push_str("\"score\":");
                write_f64(out, *score);
                out.push_str(",\"verdict\":\"");
                out.push_str(verdict.as_str());
                out.push('"');
            }
            Event::AggregationCompleted {
                round,
                accepted,
                rejected,
                deferred,
            } => {
                let _ = write!(
                    out,
                    ",\"round\":{round},\"accepted\":{accepted},\
                     \"rejected\":{rejected},\"deferred\":{deferred}"
                );
            }
            Event::AccuracyCheckpoint { round, accuracy } => {
                let _ = write!(out, ",\"round\":{round},");
                out.push_str("\"accuracy\":");
                write_f64(out, *accuracy);
            }
            Event::SpanClosed {
                name,
                nanos,
                alloc_bytes,
                peak_live_bytes,
            } => {
                out.push_str(",\"name\":\"");
                escape_json_into(name, out);
                let _ = write!(
                    out,
                    "\",\"nanos\":{nanos},\"alloc_bytes\":{alloc_bytes},\
                     \"peak_live_bytes\":{peak_live_bytes}"
                );
            }
            Event::CounterAdd { name, delta } => {
                out.push_str(",\"name\":\"");
                escape_json_into(name, out);
                let _ = write!(out, "\",\"delta\":{delta}");
            }
            Event::GaugeSample { name, value } => {
                out.push_str(",\"name\":\"");
                escape_json_into(name, out);
                let _ = write!(out, "\",\"value\":{value}");
            }
        }
        out.push('}');
    }
}

/// Writes a JSON number; non-finite values (which JSON cannot represent)
/// become `null`.
fn write_f64(out: &mut String, v: f64) {
    use std::fmt::Write;
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends `s` to `out` with JSON string escaping: quote, backslash, the
/// two-character escapes for the common control characters, and `\u00XX`
/// for the rest of the C0 range.
pub fn escape_json_into(s: &str, out: &mut String) {
    use std::fmt::Write;
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Position of `e`'s variant in [`every_event`]'s list. No `_` arm: a
    /// new variant fails to compile here until it is numbered, and the
    /// catalogue test then fails until the list holds a sample of it.
    fn event_index(e: &Event) -> usize {
        match e {
            Event::UpdateReceived { .. } => 0,
            Event::UpdateDiscardedStale { .. } => 1,
            Event::UpdateDiscardedMalformed { .. } => 2,
            Event::FilterScore { .. } => 3,
            Event::AggregationCompleted { .. } => 4,
            Event::AccuracyCheckpoint { .. } => 5,
            Event::SpanClosed { .. } => 6,
            Event::CounterAdd { .. } => 7,
            Event::GaugeSample { .. } => 8,
        }
    }

    /// The highest index [`event_index`] returns.
    const LAST_EVENT_INDEX: usize = 8;

    fn every_event() -> Vec<Event> {
        vec![
            Event::UpdateReceived {
                client: 0,
                round: 0,
                staleness: 0,
            },
            Event::UpdateDiscardedStale {
                client: 0,
                round: 0,
                staleness: 0,
            },
            Event::UpdateDiscardedMalformed {
                client: 0,
                round: 0,
                reason: MalformedReason::Dimension,
            },
            Event::FilterScore {
                client: 0,
                staleness_group: 0,
                score: 0.0,
                verdict: Verdict::Accepted,
            },
            Event::AggregationCompleted {
                round: 0,
                accepted: 0,
                rejected: 0,
                deferred: 0,
            },
            Event::AccuracyCheckpoint {
                round: 0,
                accuracy: 0.0,
            },
            Event::SpanClosed {
                name: "",
                nanos: 0,
                alloc_bytes: 0,
                peak_live_bytes: 0,
            },
            Event::CounterAdd { name: "", delta: 0 },
            Event::GaugeSample { name: "", value: 0 },
        ]
    }

    /// [`event_index`]'s device for [`MalformedReason`].
    fn reason_index(r: &MalformedReason) -> usize {
        match r {
            MalformedReason::Dimension => 0,
            MalformedReason::NonFiniteNorm => 1,
            MalformedReason::FutureRound => 2,
        }
    }

    /// The highest index [`reason_index`] returns.
    const LAST_REASON_INDEX: usize = 2;

    const EVERY_REASON: [MalformedReason; 3] = [
        MalformedReason::Dimension,
        MalformedReason::NonFiniteNorm,
        MalformedReason::FutureRound,
    ];

    /// `docs/OBSERVABILITY.md` is the event catalogue trace consumers read:
    /// every kind tag and every malformed-report reason a trace can carry
    /// has a backticked entry there.
    #[test]
    fn every_event_kind_and_malformed_reason_is_documented() {
        let events = every_event();
        let indices: Vec<usize> = events.iter().map(event_index).collect();
        assert_eq!(
            indices,
            (0..=LAST_EVENT_INDEX).collect::<Vec<_>>(),
            "every_event() must hold one sample per variant, in event_index order"
        );
        let indices: Vec<usize> = EVERY_REASON.iter().map(reason_index).collect();
        assert_eq!(
            indices,
            (0..=LAST_REASON_INDEX).collect::<Vec<_>>(),
            "EVERY_REASON must hold each reason once, in reason_index order"
        );

        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/OBSERVABILITY.md");
        let doc = std::fs::read_to_string(&path).expect("docs/OBSERVABILITY.md must exist");
        let mut missing: Vec<String> = events
            .iter()
            .map(|e| format!("`{}`", e.kind()))
            .filter(|tag| !doc.contains(tag.as_str()))
            .collect();
        missing.extend(
            EVERY_REASON
                .iter()
                .map(|r| format!("`\"{}\"`", r.as_str()))
                .filter(|tag| !doc.contains(tag.as_str())),
        );
        assert!(
            missing.is_empty(),
            "docs/OBSERVABILITY.md has no entry for {missing:?}"
        );
    }

    fn escaped(s: &str) -> String {
        let mut out = String::new();
        escape_json_into(s, &mut out);
        out
    }

    #[test]
    fn escapes_quotes_and_backslashes() {
        assert_eq!(escaped(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escaped(r"a\b"), r"a\\b");
        assert_eq!(escaped(r#"\""#), r#"\\\""#);
    }

    #[test]
    fn escapes_control_characters() {
        assert_eq!(escaped("a\nb"), "a\\nb");
        assert_eq!(escaped("a\tb"), "a\\tb");
        assert_eq!(escaped("a\rb"), "a\\rb");
        assert_eq!(escaped("a\u{08}\u{0C}b"), "a\\b\\fb");
        assert_eq!(escaped("a\u{01}b"), "a\\u0001b");
        assert_eq!(escaped("\u{1f}"), "\\u001f");
    }

    #[test]
    fn passes_unicode_through() {
        assert_eq!(escaped("τ = 3 → ok"), "τ = 3 → ok");
    }

    #[test]
    fn json_shapes() {
        let e = Event::UpdateReceived {
            client: 3,
            round: 7,
            staleness: 2,
        };
        assert_eq!(
            e.to_json(),
            r#"{"type":"update_received","client":3,"round":7,"staleness":2}"#
        );
        let e = Event::UpdateDiscardedMalformed {
            client: 4,
            round: 9,
            reason: MalformedReason::FutureRound,
        };
        assert_eq!(
            e.to_json(),
            r#"{"type":"update_discarded_malformed","client":4,"round":9,"reason":"future_round"}"#
        );
        let e = Event::FilterScore {
            client: 1,
            staleness_group: 0,
            score: 0.5,
            verdict: Verdict::Deferred,
        };
        assert_eq!(
            e.to_json(),
            r#"{"type":"filter_score","client":1,"staleness_group":0,"score":0.5,"verdict":"deferred"}"#
        );
        let e = Event::AggregationCompleted {
            round: 4,
            accepted: 30,
            rejected: 5,
            deferred: 5,
        };
        assert_eq!(
            e.to_json(),
            r#"{"type":"aggregation_completed","round":4,"accepted":30,"rejected":5,"deferred":5}"#
        );
        let e = Event::SpanClosed {
            name: "filter",
            nanos: 1234,
            alloc_bytes: 4096,
            peak_live_bytes: 65536,
        };
        assert_eq!(
            e.to_json(),
            r#"{"type":"span_closed","name":"filter","nanos":1234,"alloc_bytes":4096,"peak_live_bytes":65536}"#
        );
        let e = Event::CounterAdd {
            name: "deferred_requeued",
            delta: 3,
        };
        assert_eq!(
            e.to_json(),
            r#"{"type":"counter_add","name":"deferred_requeued","delta":3}"#
        );
        let e = Event::GaugeSample {
            name: "buffer_occupancy",
            value: 40,
        };
        assert_eq!(
            e.to_json(),
            r#"{"type":"gauge_sample","name":"buffer_occupancy","value":40}"#
        );
    }

    #[test]
    fn nonfinite_floats_serialize_as_null() {
        let e = Event::FilterScore {
            client: 0,
            staleness_group: 0,
            score: f64::NAN,
            verdict: Verdict::Accepted,
        };
        assert!(e.to_json().contains("\"score\":null"));
        let e = Event::AccuracyCheckpoint {
            round: 1,
            accuracy: f64::INFINITY,
        };
        assert!(e.to_json().contains("\"accuracy\":null"));
    }

    #[test]
    fn kind_tags_are_stable() {
        let e = Event::AccuracyCheckpoint {
            round: 0,
            accuracy: 0.5,
        };
        assert_eq!(e.kind(), "accuracy_checkpoint");
        assert_eq!(Verdict::Accepted.to_string(), "accepted");
        assert_eq!(MalformedReason::Dimension.as_str(), "dimension");
        assert_eq!(MalformedReason::NonFiniteNorm.as_str(), "non_finite_norm");
    }
}
