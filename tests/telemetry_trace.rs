//! End-to-end telemetry contract: the event stream a run emits must
//! reconcile exactly with the `RunResult` it returns, on both engines,
//! and the JSONL encoding must be parseable line-by-line.

use asyncfilter::prelude::*;
use asyncfilter::sim::runner::build_attack;
use asyncfilter::sim::threaded::run_threaded_with_sink;
use asyncfilter::telemetry::JsonlSink;
use std::sync::Arc;

// Install the counting allocator so span_closed events in this binary carry
// real alloc_bytes numbers (without it the fields are 0 = "not measured").
#[global_allocator]
static ALLOC: asyncfilter::telemetry::alloc::CountingAllocator =
    asyncfilter::telemetry::alloc::CountingAllocator::new();

fn small_config() -> SimConfig {
    let mut cfg = SimConfig::smoke_test();
    cfg.rounds = 6;
    cfg.test_samples = 400;
    cfg
}

fn traced_run(filter: Box<dyn UpdateFilter>, attack: AttackKind) -> (RunResult, Arc<MemorySink>) {
    let mem = Arc::new(MemorySink::new(100_000));
    let sink = SharedSink::from_arc(Arc::clone(&mem) as Arc<dyn Sink>);
    let mut sim = Simulation::new(small_config());
    let built = build_attack(attack, sim.config().num_clients, sim.config().num_malicious);
    let result = sim.run_with_sink(filter, built, Box::new(MeanAggregator::new()), Some(sink));
    (result, mem)
}

#[test]
fn event_counts_reconcile_with_run_result() {
    let (result, mem) = traced_run(Box::new(AsyncFilter::default()), AttackKind::Gd);
    assert_eq!(mem.dropped(), 0, "ring must not overflow in this test");

    assert_eq!(
        mem.count_kind("update_received") as u64,
        result.updates_received
    );
    assert_eq!(
        mem.count_kind("update_discarded_stale") as u64,
        result.updates_discarded_stale
    );
    assert_eq!(
        mem.count_kind("aggregation_completed"),
        result.round_reports.len()
    );
    assert_eq!(
        mem.count_kind("accuracy_checkpoint"),
        result.accuracy_history.len()
    );

    // Per-round aggregation events replay round_reports in order.
    let agg_events: Vec<(u64, usize, usize, usize)> = mem
        .events()
        .into_iter()
        .filter_map(|e| match e {
            Event::AggregationCompleted {
                round,
                accepted,
                rejected,
                deferred,
            } => Some((round, accepted, rejected, deferred)),
            _ => None,
        })
        .collect();
    let reports: Vec<(u64, usize, usize, usize)> = result
        .round_reports
        .iter()
        .map(|r| (r.round_completed, r.accepted, r.rejected, r.deferred))
        .collect();
    assert_eq!(agg_events, reports);

    // FilterScore verdicts reconcile with the confusion matrix: the
    // confusion matrix counts *terminal* verdicts only, so rejected events
    // are exactly TP+FP and accepted events exactly FN+TN. Deferred events
    // are re-filtering passes of the same update and stay outside the
    // matrix (a deferred update that later ages out never gets a terminal
    // verdict at all).
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let mut deferred = 0u64;
    for e in mem.events() {
        if let Event::FilterScore { verdict, .. } = e {
            match verdict {
                Verdict::Accepted => accepted += 1,
                Verdict::Rejected => rejected += 1,
                Verdict::Deferred => deferred += 1,
            }
        }
    }
    let d = result.detection;
    assert_eq!(
        rejected,
        (d.true_positives + d.false_positives) as u64,
        "rejected verdicts must equal TP+FP"
    );
    assert_eq!(
        accepted,
        (d.false_negatives + d.true_negatives) as u64,
        "accepted verdicts must equal FN+TN"
    );
    let per_round: (usize, usize, usize) = result
        .round_reports
        .iter()
        .fold((0, 0, 0), |(a, r, de), rep| {
            (a + rep.accepted, r + rep.rejected, de + rep.deferred)
        });
    assert_eq!(
        (accepted as usize, rejected as usize, deferred as usize),
        per_round,
        "verdict totals must equal the summed round reports"
    );
}

#[test]
fn every_filter_emits_scored_verdicts() {
    // The passthrough baseline never scores, but the server still derives a
    // verdict per update, so traces stay comparable across defenses.
    let (result, mem) = traced_run(Box::new(PassthroughFilter), AttackKind::None);
    let scores = mem.count_kind("filter_score");
    assert!(scores > 0);
    let d = result.detection;
    assert_eq!(scores, d.total());
}

#[test]
fn jsonl_trace_is_parseable() {
    let path =
        std::env::temp_dir().join(format!("asyncfl-trace-test-{}.jsonl", std::process::id()));
    let jsonl = Arc::new(JsonlSink::create(&path).expect("create trace file"));
    let sink = SharedSink::from_arc(Arc::clone(&jsonl) as Arc<dyn Sink>);
    let mut sim = Simulation::new(small_config());
    let built = build_attack(
        AttackKind::Gd,
        sim.config().num_clients,
        sim.config().num_malicious,
    );
    sim.run_with_sink(
        Box::new(AsyncFilter::default()),
        built,
        Box::new(MeanAggregator::new()),
        Some(sink),
    );
    jsonl.flush().expect("flush trace");
    assert_eq!(jsonl.io_errors(), 0);

    let body = std::fs::read_to_string(&path).expect("read trace back");
    let _ = std::fs::remove_file(&path);
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len() as u64, jsonl.lines_written());
    assert!(!lines.is_empty());
    for line in lines {
        assert!(
            parse_json_object(line),
            "trace line is not a valid JSON object: {line}"
        );
        assert!(line.contains("\"type\":\""), "missing type tag: {line}");
    }
}

#[test]
fn counters_gauges_and_alloc_spans_round_trip_through_jsonl() {
    // Direct emission: every new event kind must encode as one valid JSON
    // object per line with its fields intact.
    let path =
        std::env::temp_dir().join(format!("asyncfl-gauge-trace-{}.jsonl", std::process::id()));
    let jsonl = Arc::new(JsonlSink::create(&path).expect("create trace file"));
    jsonl.emit(&Event::CounterAdd {
        name: "deferred_requeued",
        delta: 3,
    });
    jsonl.emit(&Event::GaugeSample {
        name: "buffer_occupancy",
        value: 17,
    });
    jsonl.emit(&Event::SpanClosed {
        name: "filter",
        nanos: 1_234,
        alloc_bytes: 4_096,
        peak_live_bytes: 65_536,
    });
    jsonl.flush().expect("flush trace");
    assert_eq!(jsonl.io_errors(), 0);

    let body = std::fs::read_to_string(&path).expect("read trace back");
    let _ = std::fs::remove_file(&path);
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 3);
    for line in &lines {
        assert!(parse_json_object(line), "not a JSON object: {line}");
    }
    assert!(
        lines[0].contains("\"type\":\"counter_add\""),
        "{}",
        lines[0]
    );
    assert!(
        lines[0].contains("\"name\":\"deferred_requeued\"") && lines[0].contains("\"delta\":3"),
        "{}",
        lines[0]
    );
    assert!(
        lines[1].contains("\"type\":\"gauge_sample\""),
        "{}",
        lines[1]
    );
    assert!(
        lines[1].contains("\"name\":\"buffer_occupancy\"") && lines[1].contains("\"value\":17"),
        "{}",
        lines[1]
    );
    assert!(
        lines[2].contains("\"type\":\"span_closed\""),
        "{}",
        lines[2]
    );
    assert!(
        lines[2].contains("\"alloc_bytes\":4096") && lines[2].contains("\"peak_live_bytes\":65536"),
        "{}",
        lines[2]
    );
}

#[test]
fn traced_runs_carry_gauges_and_alloc_annotated_spans() {
    // A real simulation now samples server/engine gauges once per
    // aggregation and attributes allocations to spans — and the verdict
    // reconciliation that detection --trace enforces must survive the
    // extra event kinds.
    let (result, mem) = traced_run(Box::new(AsyncFilter::default()), AttackKind::Gd);
    assert_eq!(mem.dropped(), 0);

    let gauge_names: std::collections::BTreeSet<&'static str> = mem
        .events()
        .into_iter()
        .filter_map(|e| match e {
            Event::GaugeSample { name, .. } => Some(name),
            _ => None,
        })
        .collect();
    for expected in [
        "buffer_occupancy",
        "deferred_queue_depth",
        "resident_client_states",
        "alloc_live_bytes",
    ] {
        assert!(gauge_names.contains(expected), "missing gauge {expected}");
    }

    // With the counting allocator installed, the run's spans must observe
    // real allocation traffic (filter/aggregate both build Vecs).
    assert!(asyncfilter::telemetry::alloc::is_active());
    let span_alloc_total: u64 = mem
        .events()
        .into_iter()
        .filter_map(|e| match e {
            Event::SpanClosed { alloc_bytes, .. } => Some(alloc_bytes),
            _ => None,
        })
        .sum();
    assert!(span_alloc_total > 0, "spans must attribute allocations");

    // The same terminal-verdict reconciliation the detection binary's
    // --trace exit check performs.
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for e in mem.events() {
        if let Event::FilterScore { verdict, .. } = e {
            match verdict {
                Verdict::Accepted => accepted += 1,
                Verdict::Rejected => rejected += 1,
                Verdict::Deferred => {}
            }
        }
    }
    let d = result.detection;
    assert_eq!(rejected, (d.true_positives + d.false_positives) as u64);
    assert_eq!(accepted, (d.false_negatives + d.true_negatives) as u64);
}

/// Names of the closed spans in `mem`, oldest first.
fn closed_spans(mem: &MemorySink) -> Vec<(&'static str, u64)> {
    mem.events()
        .into_iter()
        .filter_map(|e| match e {
            Event::SpanClosed { name, nanos, .. } => Some((name, nanos)),
            _ => None,
        })
        .collect()
}

#[test]
fn filter_sub_spans_nest_inside_filter_and_a_warm_pass_skips_bootstrap() {
    // End to end: AsyncFilter's sub-spans close while the server's
    // `filter` span is open. The filter pass runs synchronously inside it,
    // so each child closes before its `filter` does, no other span closes
    // in between, and the children's time fits inside the pass.
    let (_, mem) = traced_run(Box::new(AsyncFilter::default()), AttackKind::Gd);
    assert_eq!(mem.dropped(), 0);
    let mut children: Vec<(&str, u64)> = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for (name, nanos) in closed_spans(&mem) {
        match name {
            "bootstrap" | "absorb" | "kmeans_1d" => {
                seen.insert(name);
                children.push((name, nanos));
            }
            "filter" => {
                let inside: u64 = children.iter().map(|&(_, n)| n).sum();
                assert!(
                    inside <= nanos,
                    "{children:?} outlast their filter pass ({nanos} ns)"
                );
                children.clear();
            }
            other => assert!(
                children.is_empty(),
                "`{other}` closed between {children:?} and their filter span"
            ),
        }
    }
    assert!(
        children.is_empty(),
        "{children:?} closed outside any filter span"
    );
    assert_eq!(
        seen.into_iter().collect::<Vec<_>>(),
        ["absorb", "bootstrap", "kmeans_1d"]
    );

    // A pass over groups the filter has never seen bootstraps their
    // estimates; the same groups on the next pass are warm, and the pass
    // emits no `bootstrap` span.
    let mem = MemorySink::new(1_000);
    let global = Vector::zeros(4);
    let ctx = FilterContext::new(1, &global, 20).with_sink(&mem);
    let buffer = || -> Vec<ClientUpdate> {
        (0..8)
            .map(|i| {
                let params = Vector::from_fn(4, |d| (i * 4 + d) as f64 * 0.01);
                ClientUpdate::new(i, 0, (i % 2) as u64, params, 10)
            })
            .collect()
    };
    let mut filter = AsyncFilter::default();
    let names = |mem: &MemorySink| -> Vec<&str> {
        closed_spans(mem)
            .into_iter()
            .map(|(name, _)| name)
            .collect()
    };
    let _ = filter.filter(buffer(), &ctx);
    let fresh = names(&mem);
    assert_eq!(fresh, ["bootstrap", "kmeans_1d", "absorb"]);
    assert_eq!(filter.tracked_groups(), 2);
    let _ = filter.filter(buffer(), &ctx);
    assert_eq!(names(&mem)[fresh.len()..], ["kmeans_1d", "absorb"]);
}

#[test]
fn threaded_engine_reports_through_the_same_sink() {
    let mem = Arc::new(MemorySink::new(100_000));
    let sink = SharedSink::from_arc(Arc::clone(&mem) as Arc<dyn Sink>);
    let result = run_threaded_with_sink(
        small_config(),
        Box::new(AsyncFilter::default()),
        AttackKind::Gd,
        Some(sink),
    );
    assert_eq!(
        mem.count_kind("update_received") as u64,
        result.updates_received
    );
    // Terminal verdicts only: deferred FilterScore events are re-filtering
    // passes and are not counted by the confusion matrix.
    let terminal = mem
        .events()
        .into_iter()
        .filter(|e| {
            matches!(
                e,
                Event::FilterScore {
                    verdict: Verdict::Accepted | Verdict::Rejected,
                    ..
                }
            )
        })
        .count();
    assert_eq!(terminal, result.detection.total());
    // The wall-clock engine may evaluate the same round from several client
    // threads; the deduplicated history is a lower bound.
    assert!(mem.count_kind("accuracy_checkpoint") >= result.accuracy_history.len());
    assert!(mem.count_kind("span_closed") > 0, "spans must time the run");
}

/// A tiny validating JSON parser — enough to prove each trace line is
/// well-formed without pulling in a JSON dependency.
fn parse_json_object(s: &str) -> bool {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let ok = parse_value(bytes, &mut pos);
    skip_ws(bytes, &mut pos);
    ok && pos == bytes.len() && s.starts_with('{')
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> bool {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_delimited(b, pos, b'}', |b, pos| {
            parse_string(b, pos) && eat(b, pos, b':') && parse_value(b, pos)
        }),
        Some(b'[') => parse_delimited(b, pos, b']', parse_value),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => eat_word(b, pos, b"true"),
        Some(b'f') => eat_word(b, pos, b"false"),
        Some(b'n') => eat_word(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        _ => false,
    }
}

fn parse_delimited(
    b: &[u8],
    pos: &mut usize,
    close: u8,
    mut item: impl FnMut(&[u8], &mut usize) -> bool,
) -> bool {
    *pos += 1; // opening brace/bracket
    skip_ws(b, pos);
    if b.get(*pos) == Some(&close) {
        *pos += 1;
        return true;
    }
    loop {
        if !item(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(&c) if c == close => {
                *pos += 1;
                return true;
            }
            _ => return false,
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> bool {
    skip_ws(b, pos);
    if b.get(*pos) != Some(&b'"') {
        return false;
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return true;
            }
            b'\\' => *pos += 2,
            0x00..=0x1f => return false, // raw control char must be escaped
            _ => *pos += 1,
        }
    }
    false
}

fn parse_number(b: &[u8], pos: &mut usize) -> bool {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    *pos > start
}

fn eat(b: &[u8], pos: &mut usize, c: u8) -> bool {
    skip_ws(b, pos);
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        true
    } else {
        false
    }
}

fn eat_word(b: &[u8], pos: &mut usize, word: &[u8]) -> bool {
    if b.len() >= *pos + word.len() && &b[*pos..*pos + word.len()] == word {
        *pos += word.len();
        true
    } else {
        false
    }
}
