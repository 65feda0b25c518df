//! Simulation configuration (the paper's §5.1 "AFL setting").

use asyncfl_data::partition::Partitioner;
use asyncfl_data::DatasetProfile;

/// Full configuration of one federated run.
///
/// Defaults mirror the paper: 100 clients all selected each round, 20
/// malicious, aggregation bound Ω = 40 (40% of selected clients), staleness
/// limit 20, Zipf(s = 1.2) latency, Dirichlet(α = 0.1) partitions.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Dataset/model/optimizer profile (Table 1).
    pub profile: DatasetProfile,
    /// Total participating clients.
    pub num_clients: usize,
    /// Number of attacker-controlled clients among them.
    pub num_malicious: usize,
    /// Minimum aggregation bound Ω: the server aggregates when this many
    /// reports are buffered.
    pub aggregation_bound: usize,
    /// Server staleness limit *m*: updates older than this are discarded.
    pub staleness_limit: u64,
    /// Server aggregation rounds to run.
    pub rounds: u64,
    /// Zipf exponent *s* for client processing latency.
    pub zipf_s: f64,
    /// Support of the latency distribution (latency factors `1..=levels`).
    pub zipf_levels: usize,
    /// Client data partitioner (IID or Dirichlet(α)).
    pub partitioner: Partitioner,
    /// Override of the per-client partition size (None ⇒ profile value).
    pub partition_size: Option<usize>,
    /// Held-out test-set size for accuracy evaluation.
    pub test_samples: usize,
    /// Evaluate the global model every this many rounds (and always at the
    /// end).
    pub eval_every: u64,
    /// Master seed; every stochastic component derives from it.
    pub seed: u64,
    /// Server-held clean-dataset size for the Zeno++/AFLGuard baselines.
    /// `0` (default) is the paper's threat model: no server data.
    pub server_root_samples: usize,
    /// Per-cycle participation probability: before each local round a
    /// client participates with this probability and otherwise idles for
    /// one latency cycle (the server-side sampler of §2.1; the paper's
    /// default selects everyone, i.e. `1.0`).
    pub participation: f64,
    /// Failure injection: probability that a finished update is lost in
    /// transit (client crash / network failure) instead of reaching the
    /// server. `0.0` by default.
    pub dropout: f64,
    /// Per-client partition-size jitter: each client's sample count is the
    /// base partition size scaled by a uniform factor in `[1−j, 1+j]`.
    /// `0.0` (default) reproduces the paper's equal partitions; positive
    /// values exercise the sample-count aggregation weights.
    pub partition_jitter: f64,
    /// Worker threads for the deterministic engine's training pool.
    /// `1` (default) trains each in-flight client inline at completion
    /// time, exactly as the sequential engine always has; `N > 1` trains
    /// eagerly in parallel at *dispatch* time while completions are still
    /// consumed in deterministic heap order, so results are byte-identical
    /// for every `N` (see DESIGN.md "Dispatch-time determinism").
    pub threads: usize,
    /// Capacity of the spawner's dataset-shard cache — the number of
    /// client shards kept materialized at once (DESIGN.md §11). `None`
    /// (default) auto-sizes to `min(num_clients, 4096)`: every shard stays
    /// resident at paper scales, while million-client runs stay bounded.
    /// Cache state never affects results — an evicted shard is regenerated
    /// byte-identically from seed + client id — only memory and the cost
    /// of regeneration. `Some(0)` is invalid.
    pub shard_cache_capacity: Option<usize>,
}

impl SimConfig {
    /// The paper's default setting for a given dataset profile.
    pub fn paper_default(profile: DatasetProfile) -> Self {
        Self {
            profile,
            num_clients: 100,
            num_malicious: 20,
            aggregation_bound: 40,
            staleness_limit: 20,
            rounds: 60,
            zipf_s: 1.2,
            zipf_levels: 10,
            partitioner: Partitioner::dirichlet(0.1),
            partition_size: None,
            test_samples: 2_000,
            eval_every: 5,
            seed: 42,
            server_root_samples: 0,
            participation: 1.0,
            dropout: 0.0,
            partition_jitter: 0.0,
            threads: 1,
            shard_cache_capacity: None,
        }
    }

    /// A small, fast configuration for unit/integration tests: 16 clients,
    /// Ω = 8, short horizon.
    pub fn smoke_test() -> Self {
        Self {
            profile: DatasetProfile::Mnist,
            num_clients: 16,
            num_malicious: 3,
            aggregation_bound: 8,
            staleness_limit: 10,
            rounds: 8,
            zipf_s: 1.2,
            zipf_levels: 4,
            partitioner: Partitioner::dirichlet(0.5),
            partition_size: Some(64),
            test_samples: 500,
            eval_every: 4,
            seed: 7,
            server_root_samples: 0,
            participation: 1.0,
            dropout: 0.0,
            partition_jitter: 0.0,
            threads: 1,
            shard_cache_capacity: None,
        }
    }

    /// The per-client partition size in effect (override or profile value).
    pub fn effective_partition_size(&self) -> usize {
        self.partition_size
            .unwrap_or_else(|| self.profile.training_config().partition_size)
    }

    /// The shard-cache capacity in effect (override or the
    /// `min(num_clients, 4096)` auto-size; see
    /// [`shard_cache_capacity`](Self::shard_cache_capacity)).
    pub fn effective_shard_cache_capacity(&self) -> usize {
        self.shard_cache_capacity
            .unwrap_or_else(|| self.num_clients.min(4096))
            .max(1)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_clients == 0 {
            return Err("num_clients must be positive".into());
        }
        if self.num_malicious > self.num_clients {
            return Err(format!(
                "num_malicious ({}) exceeds num_clients ({})",
                self.num_malicious, self.num_clients
            ));
        }
        if self.aggregation_bound == 0 || self.aggregation_bound > self.num_clients {
            return Err(format!(
                "aggregation_bound ({}) must be in 1..={}",
                self.aggregation_bound, self.num_clients
            ));
        }
        if self.rounds == 0 {
            return Err("rounds must be positive".into());
        }
        if !(self.zipf_s > 0.0 && self.zipf_s.is_finite()) {
            return Err(format!("zipf_s must be positive, got {}", self.zipf_s));
        }
        if self.zipf_levels == 0 {
            return Err("zipf_levels must be positive".into());
        }
        if self.eval_every == 0 {
            return Err("eval_every must be positive".into());
        }
        if self.effective_partition_size() == 0 {
            return Err("partition size must be positive".into());
        }
        if !(self.participation > 0.0 && self.participation <= 1.0) {
            return Err(format!(
                "participation must be in (0, 1], got {}",
                self.participation
            ));
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return Err(format!("dropout must be in [0, 1), got {}", self.dropout));
        }
        if !(0.0..1.0).contains(&self.partition_jitter) {
            return Err(format!(
                "partition_jitter must be in [0, 1), got {}",
                self.partition_jitter
            ));
        }
        if self.threads == 0 {
            return Err("threads must be positive".into());
        }
        if self.shard_cache_capacity == Some(0) {
            return Err("shard_cache_capacity override must be positive".into());
        }
        Ok(())
    }

    /// Builder-style seed override (multi-seed sweeps).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style worker-thread override (see [`SimConfig::threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_default(DatasetProfile::Mnist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_5_1() {
        let c = SimConfig::paper_default(DatasetProfile::FashionMnist);
        assert_eq!(c.num_clients, 100);
        assert_eq!(c.num_malicious, 20);
        assert_eq!(c.aggregation_bound, 40);
        assert_eq!(c.staleness_limit, 20);
        assert_eq!(c.zipf_s, 1.2);
        assert_eq!(c.partitioner, Partitioner::dirichlet(0.1));
        assert_eq!(
            c.server_root_samples, 0,
            "paper threat model: no server data"
        );
        assert!(c.validate().is_ok());
    }

    #[test]
    fn smoke_test_is_valid_and_small() {
        let c = SimConfig::smoke_test();
        assert!(c.validate().is_ok());
        assert!(c.num_clients <= 20);
        assert!(c.rounds <= 10);
    }

    #[test]
    fn effective_partition_size_prefers_override() {
        let mut c = SimConfig::default();
        assert_eq!(
            c.effective_partition_size(),
            DatasetProfile::Mnist.training_config().partition_size
        );
        c.partition_size = Some(99);
        assert_eq!(c.effective_partition_size(), 99);
    }

    #[test]
    fn validation_catches_each_field() {
        let ok = SimConfig::smoke_test();
        assert!(SimConfig {
            num_clients: 0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            num_malicious: 17,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            aggregation_bound: 0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            aggregation_bound: 17,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            rounds: 0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            zipf_s: 0.0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            zipf_levels: 0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            eval_every: 0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            partition_size: Some(0),
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            participation: 0.0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            participation: 1.1,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            threads: 0,
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            shard_cache_capacity: Some(0),
            ..ok.clone()
        }
        .validate()
        .is_err());
        assert!(SimConfig { dropout: 1.0, ..ok }.validate().is_err());
    }

    #[test]
    fn shard_cache_capacity_auto_sizes_to_population() {
        let mut c = SimConfig::smoke_test();
        assert_eq!(c.effective_shard_cache_capacity(), c.num_clients);
        c.num_clients = 1_000_000;
        assert_eq!(c.effective_shard_cache_capacity(), 4096);
        c.shard_cache_capacity = Some(64);
        assert_eq!(c.effective_shard_cache_capacity(), 64);
    }

    #[test]
    fn with_threads_only_changes_threads() {
        let a = SimConfig::smoke_test();
        let b = a.clone().with_threads(4);
        assert_eq!(b.threads, 4);
        assert_eq!(
            SimConfig {
                threads: a.threads,
                ..b
            },
            a
        );
    }

    #[test]
    fn with_seed_only_changes_seed() {
        let a = SimConfig::smoke_test();
        let b = a.clone().with_seed(123);
        assert_eq!(b.seed, 123);
        assert_eq!(SimConfig { seed: a.seed, ..b }, a);
    }
}
