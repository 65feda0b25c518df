//! The experiment grid runner behind every table and figure.
//!
//! A grid is defenses × attacks × seeds over one [`SimConfig`]. Each cell
//! runs on the deterministic simulator; cells are independent, so the
//! runner fans them out over OS threads (`std::thread::scope` + a shared
//! `std::sync::mpsc` work queue).

use asyncfl_attacks::AttackKind;
use asyncfl_core::aggregation::MeanAggregator;
use asyncfl_core::asyncfilter::{AsyncFilterConfig, MiddlePolicy};
use asyncfl_core::fldetector::FlDetectorConfig;
use asyncfl_core::update::UpdateFilter;
use asyncfl_core::zeno::{AflGuard, ZenoPlusPlus};
use asyncfl_core::{AsyncFilter, FlDetector, PassthroughFilter};
use asyncfl_sim::config::SimConfig;
use asyncfl_sim::metrics::RunResult;
use asyncfl_sim::runner::{build_attack, Simulation};
use asyncfl_telemetry::SharedSink;
use asyncfl_tensor::kernels;
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};

/// The defenses the evaluation compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefenseKind {
    /// FedBuff: no defense (paper baseline).
    FedBuff,
    /// FLDetector: the synchronous state-of-the-art detector (baseline).
    FlDetector,
    /// AsyncFilter with the paper's 3-means configuration.
    AsyncFilter,
    /// AsyncFilter with 2-means (Fig. 7 ablation).
    AsyncFilter2Means,
    /// Paper-literal AsyncFilter: 3-means with the separation gate off
    /// (always reject the top cluster), as Algorithm 1 states.
    AsyncFilter3MeansLiteral,
    /// Paper-literal AsyncFilter-2means: gate off (Fig. 7's contrast).
    AsyncFilter2MeansLiteral,
    /// AsyncFilter with the middle cluster accepted immediately (ablation).
    AsyncFilterAcceptMiddle,
    /// AsyncFilter with the middle cluster rejected (ablation).
    AsyncFilterRejectMiddle,
    /// Zeno++ (requires a server root dataset).
    ZenoPlusPlus,
    /// AFLGuard (requires a server root dataset).
    AflGuard,
}

impl DefenseKind {
    /// The three defenses of Tables 2–10, in row order.
    pub const TABLE_ORDER: [DefenseKind; 3] = [
        DefenseKind::FedBuff,
        DefenseKind::FlDetector,
        DefenseKind::AsyncFilter,
    ];

    /// Table row label.
    pub fn label(&self) -> &'static str {
        match self {
            DefenseKind::FedBuff => "FedBuff",
            DefenseKind::FlDetector => "FLDetector",
            DefenseKind::AsyncFilter => "AsyncFilter",
            DefenseKind::AsyncFilter2Means => "AsyncFilter-2means",
            DefenseKind::AsyncFilter3MeansLiteral => "AsyncFilter-3means (literal)",
            DefenseKind::AsyncFilter2MeansLiteral => "AsyncFilter-2means (literal)",
            DefenseKind::AsyncFilterAcceptMiddle => "AsyncFilter-acceptmid",
            DefenseKind::AsyncFilterRejectMiddle => "AsyncFilter-rejectmid",
            DefenseKind::ZenoPlusPlus => "Zeno++",
            DefenseKind::AflGuard => "AFLGuard",
        }
    }

    /// Instantiates a fresh filter (filters are stateful; one per run).
    pub fn build(&self) -> Box<dyn UpdateFilter> {
        match self {
            DefenseKind::FedBuff => Box::new(PassthroughFilter),
            DefenseKind::FlDetector => Box::new(FlDetector::new(FlDetectorConfig::default())),
            DefenseKind::AsyncFilter => Box::new(AsyncFilter::default()),
            DefenseKind::AsyncFilter2Means => {
                Box::new(AsyncFilter::new(AsyncFilterConfig::two_means()))
            }
            DefenseKind::AsyncFilter3MeansLiteral => {
                Box::new(AsyncFilter::new(AsyncFilterConfig {
                    min_separation: 0.0,
                    ..AsyncFilterConfig::default()
                }))
            }
            DefenseKind::AsyncFilter2MeansLiteral => {
                Box::new(AsyncFilter::new(AsyncFilterConfig {
                    min_separation: 0.0,
                    ..AsyncFilterConfig::two_means()
                }))
            }
            DefenseKind::AsyncFilterAcceptMiddle => Box::new(AsyncFilter::new(AsyncFilterConfig {
                middle_policy: MiddlePolicy::Accept,
                ..AsyncFilterConfig::default()
            })),
            DefenseKind::AsyncFilterRejectMiddle => Box::new(AsyncFilter::new(AsyncFilterConfig {
                middle_policy: MiddlePolicy::Reject,
                ..AsyncFilterConfig::default()
            })),
            DefenseKind::ZenoPlusPlus => Box::new(ZenoPlusPlus::new()),
            DefenseKind::AflGuard => Box::new(AflGuard::default()),
        }
    }
}

impl std::fmt::Display for DefenseKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A pass-through filter that records every buffered update it sees —
/// the instrumentation behind the Figs. 3–4 reproduction (t-SNE of local
/// updates labelled by staleness).
#[derive(Debug, Clone, Default)]
pub struct RecordingFilter {
    log: Arc<Mutex<Vec<RecordedUpdate>>>,
}

/// One recorded update observation.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedUpdate {
    /// Server round at which the update was filtered.
    pub round: u64,
    /// Submitting client.
    pub client: usize,
    /// Staleness at filtering time.
    pub staleness: u64,
    /// The update's model parameters ωᵢ = ω_base + δᵢ, built from the
    /// server's base; NaN in every coordinate for an update no server
    /// resolved (a filter driven directly with `from_delta` updates).
    pub params: asyncfl_tensor::Vector,
    /// The model update δᵢ = ωᵢ − ω_base.
    pub delta: asyncfl_tensor::Vector,
    /// Ground-truth malice.
    pub truth_malicious: bool,
}

impl RecordingFilter {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A shared handle to the recorded log (survives the filter being moved
    /// into the server). A poisoned lock is recovered with
    /// `PoisonError::into_inner`: each record is pushed atomically, so the
    /// log is never left half-written.
    pub fn log_handle(&self) -> Arc<Mutex<Vec<RecordedUpdate>>> {
        Arc::clone(&self.log)
    }
}

impl UpdateFilter for RecordingFilter {
    fn name(&self) -> &str {
        "Recording"
    }

    fn filter(
        &mut self,
        updates: Vec<asyncfl_core::ClientUpdate>,
        ctx: &asyncfl_core::FilterContext<'_>,
    ) -> asyncfl_core::FilterOutcome {
        let mut log = self.log.lock().unwrap_or_else(PoisonError::into_inner);
        for u in &updates {
            log.push(RecordedUpdate {
                round: ctx.round,
                client: u.client,
                staleness: u.staleness,
                params: u.params().unwrap_or_else(|| {
                    asyncfl_tensor::Vector::from_fn(u.delta.len(), |_| f64::NAN)
                }),
                delta: u.delta.clone(),
                truth_malicious: u.truth_malicious,
            });
        }
        drop(log);
        asyncfl_core::FilterOutcome::accept_all(updates)
    }
}

/// One completed grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct GridCell {
    /// Defense run in this cell.
    pub defense: DefenseKind,
    /// Attack run in this cell.
    pub attack: AttackKind,
    /// Seed used.
    pub seed: u64,
    /// Full run result.
    pub result: RunResult,
}

/// A defenses × attacks × seeds experiment grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentGrid {
    /// Base simulation configuration (its `seed` field is overridden per
    /// cell).
    pub config: SimConfig,
    /// Defenses to compare (table rows).
    pub defenses: Vec<DefenseKind>,
    /// Attacks to run (table columns).
    pub attacks: Vec<AttackKind>,
    /// Seeds; results are averaged over these.
    pub seeds: Vec<u64>,
}

impl ExperimentGrid {
    /// A paper-table grid: the three defenses, given attacks, one seed from
    /// the config.
    pub fn table(config: SimConfig, attacks: Vec<AttackKind>) -> Self {
        let seed = config.seed;
        Self {
            config,
            defenses: DefenseKind::TABLE_ORDER.to_vec(),
            attacks,
            seeds: vec![seed],
        }
    }

    /// Overrides the seed list (builder-style).
    pub fn with_seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Total number of cells.
    pub fn len(&self) -> usize {
        self.defenses.len() * self.attacks.len() * self.seeds.len()
    }

    /// Returns `true` if the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs every cell sequentially (deterministic order).
    pub fn run(&self) -> Vec<GridCell> {
        self.run_with_sink(None)
    }

    /// As [`run`](Self::run), with every cell's simulation reporting into
    /// the given telemetry sink (all cells share it; use the cell order to
    /// attribute events, or trace one cell at a time).
    pub fn run_with_sink(&self, sink: Option<SharedSink>) -> Vec<GridCell> {
        self.cells()
            .into_iter()
            .map(|(defense, attack, seed)| self.run_cell(defense, attack, seed, sink.clone()))
            .collect()
    }

    /// Runs every cell across `threads` OS threads. Output order matches
    /// [`run`](Self::run) regardless of scheduling.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn run_parallel(&self, threads: usize) -> Vec<GridCell> {
        self.run_parallel_with_sink(threads, None)
    }

    /// As [`run_parallel`](Self::run_parallel), with all cells reporting
    /// into one shared telemetry sink (events interleave across cells).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn run_parallel_with_sink(
        &self,
        threads: usize,
        sink: Option<SharedSink>,
    ) -> Vec<GridCell> {
        assert!(threads > 0, "run_parallel: threads must be positive");
        let cells = self.cells();
        let (task_tx, task_rx) = mpsc::channel::<(usize, (DefenseKind, AttackKind, u64))>();
        for item in cells.iter().copied().enumerate() {
            if task_tx.send(item).is_err() {
                break;
            }
        }
        drop(task_tx);
        // Workers share the single mpsc consumer behind a mutex; the lock is
        // held only for the dequeue, never while a cell runs.
        let task_rx = Arc::new(Mutex::new(task_rx));
        let (result_tx, result_rx) = mpsc::channel::<(usize, GridCell)>();
        std::thread::scope(|scope| {
            for _ in 0..threads.min(cells.len().max(1)) {
                let task_rx = Arc::clone(&task_rx);
                let result_tx = result_tx.clone();
                let sink = sink.clone();
                scope.spawn(move || loop {
                    let msg = task_rx
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .recv();
                    let Ok((idx, (defense, attack, seed))) = msg else {
                        break;
                    };
                    let cell = self.run_cell(defense, attack, seed, sink.clone());
                    if result_tx.send((idx, cell)).is_err() {
                        break;
                    }
                });
            }
        });
        drop(result_tx);
        let mut results: Vec<(usize, GridCell)> = result_rx.iter().collect();
        results.sort_by_key(|(idx, _)| *idx);
        results.into_iter().map(|(_, cell)| cell).collect()
    }

    /// Mean final accuracy over seeds for one (defense, attack) cell group.
    ///
    /// Returns `None` when the cell group is absent.
    pub fn mean_accuracy(
        cells: &[GridCell],
        defense: DefenseKind,
        attack: AttackKind,
    ) -> Option<f64> {
        let accs: Vec<f64> = cells
            .iter()
            .filter(|c| c.defense == defense && c.attack == attack)
            .map(|c| c.result.final_accuracy)
            .collect();
        if accs.is_empty() {
            None
        } else {
            Some(kernels::mean_seq(&accs))
        }
    }

    /// Standard deviation of final accuracy over seeds for a cell group.
    pub fn std_accuracy(
        cells: &[GridCell],
        defense: DefenseKind,
        attack: AttackKind,
    ) -> Option<f64> {
        let accs: Vec<f64> = cells
            .iter()
            .filter(|c| c.defense == defense && c.attack == attack)
            .map(|c| c.result.final_accuracy)
            .collect();
        if accs.is_empty() {
            return None;
        }
        let mean = kernels::mean_seq(&accs);
        let var =
            kernels::sum_seq(accs.iter().map(|a| (a - mean) * (a - mean))) / accs.len() as f64;
        Some(var.sqrt())
    }

    fn cells(&self) -> Vec<(DefenseKind, AttackKind, u64)> {
        let mut out = Vec::with_capacity(self.len());
        for &defense in &self.defenses {
            for &attack in &self.attacks {
                for &seed in &self.seeds {
                    out.push((defense, attack, seed));
                }
            }
        }
        out
    }

    fn run_cell(
        &self,
        defense: DefenseKind,
        attack: AttackKind,
        seed: u64,
        sink: Option<SharedSink>,
    ) -> GridCell {
        let config = self.config.clone().with_seed(seed);
        let mut sim = Simulation::new(config);
        let built = build_attack(attack, sim.config().num_clients, sim.config().num_malicious);
        let result = sim.run_with_sink(
            defense.build(),
            built,
            Box::new(MeanAggregator::new()),
            sink,
        );
        GridCell {
            defense,
            attack,
            seed,
            result,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> ExperimentGrid {
        let mut config = SimConfig::smoke_test();
        config.rounds = 4;
        config.test_samples = 200;
        ExperimentGrid {
            config,
            defenses: vec![DefenseKind::FedBuff, DefenseKind::AsyncFilter],
            attacks: vec![AttackKind::None, AttackKind::Gd],
            seeds: vec![1, 2],
        }
    }

    #[test]
    fn grid_size_and_order() {
        let grid = tiny_grid();
        assert_eq!(grid.len(), 8);
        assert!(!grid.is_empty());
        let cells = grid.run();
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].defense, DefenseKind::FedBuff);
        assert_eq!(cells[0].attack, AttackKind::None);
        assert_eq!(cells[0].seed, 1);
        assert_eq!(cells[7].defense, DefenseKind::AsyncFilter);
        assert_eq!(cells[7].attack, AttackKind::Gd);
        assert_eq!(cells[7].seed, 2);
    }

    #[test]
    fn parallel_matches_sequential() {
        let grid = tiny_grid();
        let seq = grid.run();
        let par = grid.run_parallel(4);
        assert_eq!(seq, par);
    }

    #[test]
    fn mean_and_std_accuracy() {
        let grid = tiny_grid();
        let cells = grid.run();
        let mean =
            ExperimentGrid::mean_accuracy(&cells, DefenseKind::FedBuff, AttackKind::None).unwrap();
        assert!(mean > 0.0 && mean <= 1.0);
        let std =
            ExperimentGrid::std_accuracy(&cells, DefenseKind::FedBuff, AttackKind::None).unwrap();
        assert!(std >= 0.0);
        assert!(
            ExperimentGrid::mean_accuracy(&cells, DefenseKind::ZenoPlusPlus, AttackKind::None)
                .is_none()
        );
    }

    #[test]
    fn every_defense_kind_builds() {
        for d in [
            DefenseKind::FedBuff,
            DefenseKind::FlDetector,
            DefenseKind::AsyncFilter,
            DefenseKind::AsyncFilter2Means,
            DefenseKind::AsyncFilter3MeansLiteral,
            DefenseKind::AsyncFilter2MeansLiteral,
            DefenseKind::AsyncFilterAcceptMiddle,
            DefenseKind::AsyncFilterRejectMiddle,
            DefenseKind::ZenoPlusPlus,
            DefenseKind::AflGuard,
        ] {
            let filter = d.build();
            assert!(!filter.name().is_empty());
            assert!(!d.label().is_empty());
            assert!(!format!("{d}").is_empty());
        }
    }

    #[test]
    fn table_constructor_uses_paper_rows() {
        let grid = ExperimentGrid::table(SimConfig::smoke_test(), vec![AttackKind::Gd]);
        assert_eq!(grid.defenses, DefenseKind::TABLE_ORDER.to_vec());
        assert_eq!(grid.seeds, vec![SimConfig::smoke_test().seed]);
        let grid = grid.with_seeds(vec![9, 10, 11]);
        assert_eq!(grid.seeds.len(), 3);
    }

    #[test]
    #[should_panic(expected = "threads")]
    fn zero_threads_panics() {
        tiny_grid().run_parallel(0);
    }

    #[test]
    fn recording_filter_captures_every_buffered_update() {
        let mut cfg = SimConfig::smoke_test();
        cfg.rounds = 3;
        let recorder = RecordingFilter::new();
        let log = recorder.log_handle();
        let result =
            Simulation::new(cfg).run(Box::new(recorder), asyncfl_attacks::AttackKind::None);
        let records = log.lock().unwrap();
        // Every filtered update was recorded (deferred never happens in a
        // passthrough recorder, so filtered == buffered).
        assert_eq!(records.len(), result.detection.total());
        assert!(records.iter().all(|r| r.params.is_finite()));
        assert!(records.iter().all(|r| r.delta.is_finite()));
        assert!(records.iter().all(|r| r.round < 3));
    }
}
