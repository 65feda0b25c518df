//! Metric collection, order statistics and the one-line JSON result.

use crate::trace::{FilterReport, Layer, LayerStat};
use asyncfl_clustering::one_dim::kmeans_1d;
use asyncfl_sim::DetectionStats;
use std::time::Instant;

/// Named metrics in the order they are added.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Adds a metric.
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The metrics as a JSON object `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                // `{:?}` prints every digit needed to round-trip the value.
                let v = if value.is_finite() {
                    format!("{value:?}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between order statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest whole percentile that leaves at least ten samples beyond
/// it, but never below the median: with fewer than 20 samples there is no
/// tail to report and the median stands in.
pub fn tail_percentile(n: usize) -> f64 {
    if n < 20 {
        return 50.0;
    }
    (100.0 * (n - 10) as f64 / n as f64).floor().min(99.0)
}

/// `x / y`, or 0 when `y` is 0.
pub fn ratio(x: f64, y: f64) -> f64 {
    if y == 0.0 {
        0.0
    } else {
        x / y
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).map(str::to_string))
        })
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU time of this process, all threads, in seconds
/// (clock ticks at the Linux default of 100 per second).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Per-layer timing metrics shared by every workload's traced run.
///
/// `wall_s` is the traced wall time; `loop.self_s` is what no layer span
/// covers, so the layers' self times plus `loop.self_s` equal `wall_s`.
pub fn add_layer_times(m: &mut Metrics, stats: &[LayerStat], wall_s: f64) {
    let st = |l: Layer| &stats[l as usize];
    m.add(
        "spawner.spawn_calls",
        st(Layer::Spawn).calls as f64,
        "count",
    );
    m.add("spawner.spawn_s", st(Layer::Spawn).secs(), "s");
    m.add(
        "spawner.dataset_calls",
        st(Layer::Dataset).calls as f64,
        "count",
    );
    m.add("spawner.dataset_s", st(Layer::Dataset).secs(), "s");
    m.add("train.calls", st(Layer::Train).calls as f64, "count");
    m.add("train.s", st(Layer::Train).secs(), "s");
    m.add("train.prep_s", st(Layer::TrainPrep).secs(), "s");
    m.add("attack.calls", st(Layer::Attack).calls as f64, "count");
    m.add("attack.s", st(Layer::Attack).secs(), "s");
    m.add("update.from_delta_s", st(Layer::FromDelta).secs(), "s");
    m.add(
        "filter.on_buffered_calls",
        st(Layer::OnBuffered).calls as f64,
        "count",
    );
    m.add("filter.on_buffered_s", st(Layer::OnBuffered).secs(), "s");
    m.add("filter.pass_calls", st(Layer::Pass).calls as f64, "count");
    m.add("filter.pass_s", st(Layer::Pass).secs(), "s");
    let passes: Vec<f64> = st(Layer::Pass)
        .samples
        .iter()
        .map(|&ns| ns as f64 * 1e-6)
        .collect();
    m.add("filter.pass_p50_ms", median(&passes), "ms");
    let tail = tail_percentile(passes.len());
    m.add("filter.pass_tail_ms", quantile(&passes, tail / 100.0), "ms");
    m.add("filter.pass_tail_pct", tail, "%");
    m.add(
        "aggregate.calls",
        st(Layer::Aggregate).calls as f64,
        "count",
    );
    m.add("aggregate.s", st(Layer::Aggregate).secs(), "s");
    m.add(
        "server.receive_calls",
        st(Layer::Receive).calls as f64,
        "count",
    );
    m.add("server.receive_self_s", st(Layer::Receive).self_secs(), "s");
    let receives: Vec<f64> = st(Layer::Receive)
        .samples
        .iter()
        .map(|&ns| ns as f64 * 1e-3)
        .collect();
    m.add("server.receive_p50_us", median(&receives), "us");
    m.add("server.receive_p99_us", quantile(&receives, 0.99), "us");
    m.add("eval.calls", st(Layer::Eval).calls as f64, "count");
    m.add("eval.s", st(Layer::Eval).secs(), "s");
    m.add("schedule.ops", st(Layer::Schedule).calls as f64, "count");
    m.add("schedule.s", st(Layer::Schedule).secs(), "s");
    let attributed: f64 = stats.iter().map(LayerStat::self_secs).sum();
    let loop_self = (wall_s - attributed).max(0.0);
    m.add("loop.wall_s", wall_s, "s");
    m.add("loop.self_s", loop_self, "s");
    m.add("loop.unattributed_share", ratio(loop_self, wall_s), "ratio");
}

/// One `name calls total self share` line per layer, for the log.
pub fn layer_table(stats: &[LayerStat], wall_s: f64) -> String {
    const NAMES: [&str; 12] = [
        "spawner.spawn",
        "spawner.dataset",
        "train.prep",
        "train",
        "attack",
        "update.from_delta",
        "server.receive",
        "filter.on_buffered",
        "filter.pass",
        "aggregate",
        "eval",
        "schedule",
    ];
    let mut out = format!(
        "{:<20} {:>10} {:>10} {:>10} {:>7}\n",
        "layer", "calls", "total_s", "self_s", "self%"
    );
    for (name, s) in NAMES.iter().zip(stats) {
        out.push_str(&format!(
            "{:<20} {:>10} {:>10.4} {:>10.4} {:>6.2}%\n",
            name,
            s.calls,
            s.secs(),
            s.self_secs(),
            100.0 * ratio(s.self_secs(), wall_s)
        ));
    }
    let attributed: f64 = stats.iter().map(LayerStat::self_secs).sum();
    out.push_str(&format!(
        "{:<20} {:>10} {:>10.4} {:>10.4} {:>6.2}%\n",
        "loop (remainder)",
        "",
        "",
        wall_s - attributed,
        100.0 * ratio(wall_s - attributed, wall_s)
    ));
    out.push_str(&format!(
        "{:<20} {:>10} {:>10.4}\n",
        "traced wall", "", wall_s
    ));
    out
}

/// Filter-boundary counts shared by every traced run. The clustering
/// estimate replays each pass's scores through `kmeans_1d(_, 3)` now, after
/// the traced run, so the replay adds nothing to the traced wall time.
pub fn add_filter_counts(m: &mut Metrics, report: &FilterReport, received: u64) {
    let mut kmeans_s = 0.0;
    let mut kmeans_calls = 0u64;
    for scores in report.pass_scores.iter().filter(|s| !s.is_empty()) {
        let started = Instant::now();
        std::hint::black_box(kmeans_1d(std::hint::black_box(scores), 3));
        kmeans_s += started.elapsed().as_secs_f64();
        kmeans_calls += 1;
    }
    m.add(
        "filter.distances_computed",
        report.distances as f64,
        "count",
    );
    m.add(
        "filter.refilter_ratio",
        ratio(report.scored as f64, received as f64),
        "ratio",
    );
    let verdicts = (report.accepted + report.rejected) as f64;
    m.add(
        "filter.reject_ratio",
        ratio(report.rejected as f64, verdicts),
        "ratio",
    );
    m.add("clustering.kmeans_calls", kmeans_calls as f64, "count");
    m.add("clustering.kmeans_s", kmeans_s, "s");
}

/// Server-boundary ratios shared by every traced run.
pub fn add_server_counts(m: &mut Metrics, received: u64, discarded: u64, d: &DetectionStats) {
    m.add(
        "server.stale_discard_ratio",
        ratio(discarded as f64, received as f64),
        "ratio",
    );
    m.add("detection.tpr", d.recall(), "ratio");
    m.add("detection.fpr", d.false_positive_rate(), "ratio");
}
