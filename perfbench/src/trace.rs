//! Outside-in span tracing: the benchmark times its own calls into each
//! layer's public API, never anything inside the program.
//!
//! Spans nest on a thread-local stack. A span's self time is its duration
//! minus the time of the spans opened inside it, so the self times of all
//! layers plus the event loop's remainder add up to the traced wall time.
//! Per-call durations are kept in memory for the layers whose percentiles
//! are reported; everything is summarized when the run ends.

use asyncfl_core::aggregation::Aggregator;
use asyncfl_core::update::{ClientUpdate, FilterContext, FilterOutcome, ScoreRecord, UpdateFilter};
use asyncfl_core::AsyncFilter;
use asyncfl_tensor::Vector;
use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The layers the traced run attributes host time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `ClientSpawner::spawn`.
    Spawn,
    /// `ClientSpawner::dataset`.
    Dataset,
    /// `clone_box` + `set_params` + `build_optimizer`, and the closing
    /// `params − base` of one local-training job.
    TrainPrep,
    /// `LocalTrainer::train`.
    Train,
    /// `Attack::craft_all`.
    Attack,
    /// `ClientUpdate::from_delta`.
    FromDelta,
    /// `BufferedServer::receive`.
    Receive,
    /// `UpdateFilter::on_buffered` (AsyncFilter's arrival scoring).
    OnBuffered,
    /// `UpdateFilter::filter` (one filter pass).
    Pass,
    /// `Aggregator::aggregate`.
    Aggregate,
    /// `evaluate`.
    Eval,
    /// A push or pop on the replica's event heap.
    Schedule,
}

const LAYERS: usize = 12;

impl Layer {
    fn index(self) -> usize {
        self as usize
    }

    /// Whether per-call durations are kept (for percentiles).
    fn keeps_samples(self) -> bool {
        matches!(self, Layer::Pass | Layer::Receive)
    }
}

/// Totals for one layer.
#[derive(Debug, Clone, Default)]
pub struct LayerStat {
    /// Spans closed.
    pub calls: u64,
    /// Summed span durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus nested spans), nanoseconds.
    pub self_ns: u64,
    /// Per-call durations in nanoseconds, for layers that keep them.
    pub samples: Vec<u64>,
}

impl LayerStat {
    /// Summed span time in seconds.
    pub fn secs(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    /// Summed self time in seconds.
    pub fn self_secs(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }
}

#[derive(Default)]
struct Tracer {
    enabled: bool,
    /// Nested time accumulated by the spans currently open.
    child_ns: Vec<u64>,
    stats: Vec<LayerStat>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Starts collecting spans on this thread, discarding earlier ones.
pub fn enable() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.enabled = true;
        t.child_ns.clear();
        t.stats = vec![LayerStat::default(); LAYERS];
    });
}

/// Stops collecting and returns the per-layer totals, indexed by [`Layer`].
pub fn finish() -> Vec<LayerStat> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.enabled = false;
        std::mem::take(&mut t.stats)
    })
}

/// Runs `f` inside a span of `layer`. A no-op wrapper when tracing is off.
pub fn span<T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    let on = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.enabled {
            t.child_ns.push(0);
        }
        t.enabled
    });
    if !on {
        return f();
    }
    let start = Instant::now();
    let out = f();
    let dur = start.elapsed().as_nanos() as u64;
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let nested = t.child_ns.pop().unwrap_or(0);
        if let Some(parent) = t.child_ns.last_mut() {
            *parent += dur;
        }
        let stat = &mut t.stats[layer.index()];
        stat.calls += 1;
        stat.total_ns += dur;
        stat.self_ns += dur.saturating_sub(nested);
        if layer.keeps_samples() {
            stat.samples.push(dur);
        }
    });
    out
}

/// What the filter wrapper observed, shared with the benchmark because
/// the server owns the filter as a `Box<dyn UpdateFilter>`.
#[derive(Debug, Clone, Default)]
pub struct FilterReport {
    /// Updates handed to `filter` across all passes (a deferred update is
    /// scored again in the next pass).
    pub scored: u64,
    /// Rejected verdicts.
    pub rejected: u64,
    /// Accepted verdicts.
    pub accepted: u64,
    /// `AsyncFilter::distances_computed()` after the latest pass.
    pub distances: u64,
    /// Each pass's scores, replayed through `kmeans_1d` after the run.
    pub pass_scores: Vec<Vec<f64>>,
}

/// Handle to a [`TimedFilter`]'s report.
pub type SharedReport = Arc<Mutex<FilterReport>>;

/// Wraps a concrete [`AsyncFilter`], times each trait call and records
/// each pass's scores.
pub struct TimedFilter {
    inner: AsyncFilter,
    report: SharedReport,
}

impl TimedFilter {
    /// Wraps `inner`, returning the wrapper and the handle to its report.
    pub fn new(inner: AsyncFilter) -> (Self, SharedReport) {
        let report = SharedReport::default();
        let filter = Self {
            inner,
            report: Arc::clone(&report),
        };
        (filter, report)
    }
}

impl UpdateFilter for TimedFilter {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn filter(&mut self, updates: Vec<ClientUpdate>, ctx: &FilterContext<'_>) -> FilterOutcome {
        let scored = updates.len() as u64;
        let inner = &mut self.inner;
        let outcome = span(Layer::Pass, || inner.filter(updates, ctx));
        let mut report = self.report.lock().expect("filter report poisoned");
        report.scored += scored;
        report.rejected += outcome.rejected.len() as u64;
        report.accepted += outcome.accepted.len() as u64;
        report.distances = inner.distances_computed();
        report
            .pass_scores
            .push(inner.last_scores().iter().map(|r| r.score).collect());
        outcome
    }

    fn on_buffered(&mut self, update: &ClientUpdate, ctx: &FilterContext<'_>) {
        let inner = &mut self.inner;
        span(Layer::OnBuffered, || inner.on_buffered(update, ctx));
    }

    fn last_scores(&self) -> &[ScoreRecord] {
        self.inner.last_scores()
    }
}

/// Times each `aggregate` call of the wrapped aggregator.
pub struct TimedAggregator(pub Box<dyn Aggregator>);

impl Aggregator for TimedAggregator {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn aggregate(&mut self, updates: &[ClientUpdate], global: &Vector) -> Vector {
        let inner = &mut self.0;
        span(Layer::Aggregate, || inner.aggregate(updates, global))
    }
}
