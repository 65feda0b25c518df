//! Lazy client materialization: the million-client memory contract.
//!
//! The deterministic engine used to precompute every client's dataset,
//! latency factor, attacker flag and RNG stream into `O(num_clients)`
//! resident `Vec`s, which made `--clients 1_000_000` memory-infeasible.
//! [`ClientSpawner`] replaces those arrays with a *pure derivation*: a
//! client's full state is a function of `(seed, client id)` alone, replayed
//! on demand via `asyncfl_rng::stream::substream(seed, c)` in exactly the
//! draw order the precomputing constructor used —
//!
//! 1. optional partition-size jitter draw (only when `partition_jitter > 0`),
//! 2. the dataset shard draws (`Task::client_dataset`),
//! 3. the persistent latency-factor draw,
//! 4. everything after is the client's live stream, carried in its
//!    in-flight [`ClientState`].
//!
//! Because the order is identical, every paper-scale golden and
//! `tests/determinism.rs` pin holds byte-for-byte; because it is a pure
//! function, nothing needs to stay resident.
//!
//! [`spawn`](ClientSpawner::spawn) builds no shard: it runs the label
//! distribution draw as is and skips the shard's sample draws with
//! `Task::skip_client_dataset` (`O(1)` per sample), so kickoff costs no
//! dataset synthesis. A shard is synthesized only by
//! [`dataset`](ClientSpawner::dataset), and kept in a bounded,
//! least-recently-used [`shard cache`](ClientSpawner::resident_states)
//! that regenerates it on a miss, so steady-state memory is
//! `O(cache capacity)`, not `O(num_clients)`. A regenerated shard is
//! byte-equal to the evicted one, so cache state never moves a result.
//!
//! The attacker set is derived once with
//! [`select_prefix`](asyncfl_data::sampling::select_prefix) — the same
//! master-stream draws as the historical full Fisher–Yates permutation,
//! `O(num_malicious)` memory — and queried by binary search.

use asyncfl_data::partition::Partitioner;
use asyncfl_data::synthetic::Task;
use asyncfl_data::Dataset;
use asyncfl_rng::rngs::StdRng;
use asyncfl_rng::RngExt;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use crate::latency::LatencyModel;

/// A client's RNG stream was requested while a worker already held it.
///
/// The engine moves an in-flight client's generator into its training task
/// at dispatch; a second checkout before the result returns would silently
/// train on a placeholder stream (the historical bug this type surfaces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngCheckedOut {
    /// The client whose stream was requested twice.
    pub client: usize,
}

impl std::fmt::Display for RngCheckedOut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "client {} RNG already checked out to an in-flight training job",
            self.client
        )
    }
}

impl std::error::Error for RngCheckedOut {}

/// The live, cheap (O(few words)) state of one in-flight client, carried
/// in the engine's completion-heap entry from dispatch to completion.
///
/// The RNG slot is an explicit `Option`: [`ClientState::checkout_rng`]
/// takes the stream when a job ships to the worker pool and
/// [`ClientState::check_in_rng`] returns the advanced stream with the
/// result, so a double checkout is an [`RngCheckedOut`] error instead of a
/// silent placeholder stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientState {
    rng: Option<StdRng>,
    /// Persistent latency factor (the client's "device class").
    pub factor: f64,
    /// Local partition size — the update's aggregation weight.
    pub size: usize,
    /// Ground-truth attacker flag.
    pub malicious: bool,
}

impl ClientState {
    /// Takes the client's RNG stream for a training job.
    ///
    /// # Errors
    ///
    /// [`RngCheckedOut`] if the stream is already held by an in-flight
    /// job — the double-dispatch condition that must abort the run.
    pub fn checkout_rng(&mut self, client: usize) -> Result<StdRng, RngCheckedOut> {
        self.rng.take().ok_or(RngCheckedOut { client })
    }

    /// Returns the advanced stream after the job completes.
    pub fn check_in_rng(&mut self, rng: StdRng) {
        self.rng = Some(rng);
    }

    /// Whether the stream is currently home (not shipped to a worker).
    pub fn rng_is_home(&self) -> bool {
        self.rng.is_some()
    }

    /// Mutable access to the home stream for event-loop draws (cycle
    /// scheduling, participation sampling, dropout).
    ///
    /// # Errors
    ///
    /// [`RngCheckedOut`] if the stream is currently shipped to a worker.
    pub fn rng_mut(&mut self, client: usize) -> Result<&mut StdRng, RngCheckedOut> {
        self.rng.as_mut().ok_or(RngCheckedOut { client })
    }
}

/// Bounded LRU cache of materialized dataset shards, keyed by client id.
///
/// Eviction is strictly least-recently-used on an access counter; in
/// multi-threaded runs the access order (and therefore which clients are
/// resident at a given instant) follows the scheduler, but cached *content*
/// is a pure function of the client id, so results never depend on cache
/// state.
struct ShardCache {
    capacity: usize,
    tick: u64,
    by_client: BTreeMap<usize, (u64, Arc<Dataset>)>,
    by_tick: BTreeMap<u64, usize>,
}

impl ShardCache {
    fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            tick: 0,
            by_client: BTreeMap::new(),
            by_tick: BTreeMap::new(),
        }
    }

    fn get(&mut self, client: usize) -> Option<Arc<Dataset>> {
        let tick = self.tick;
        self.tick += 1;
        let (old_tick, data) = self.by_client.get_mut(&client)?;
        self.by_tick.remove(old_tick);
        *old_tick = tick;
        self.by_tick.insert(tick, client);
        Some(Arc::clone(data))
    }

    fn insert(&mut self, client: usize, data: Arc<Dataset>) {
        if let Some((old_tick, _)) = self.by_client.remove(&client) {
            self.by_tick.remove(&old_tick);
        }
        while self.by_client.len() >= self.capacity {
            let Some((_, evicted)) = self.by_tick.pop_first() else {
                break;
            };
            self.by_client.remove(&evicted);
        }
        let tick = self.tick;
        self.tick += 1;
        self.by_client.insert(client, (tick, data));
        self.by_tick.insert(tick, client);
    }

    fn clear(&mut self) {
        self.by_client.clear();
        self.by_tick.clear();
    }
}

/// Materializes client state on demand from `(seed, client id)`.
///
/// Shared by both engines (the deterministic runner borrows it across its
/// worker pool, the threaded engine across client threads), so it is
/// `Sync`: the only interior state is the shard cache behind a mutex.
pub struct ClientSpawner {
    seed: u64,
    num_clients: usize,
    partitioner: Partitioner,
    partition_size: usize,
    partition_jitter: f64,
    latency: LatencyModel,
    task: Arc<Task>,
    /// Sorted attacker ids — `O(num_malicious)` memory.
    malicious: Vec<usize>,
    poison_labels: bool,
    cache: Mutex<ShardCache>,
}

impl ClientSpawner {
    /// Builds a spawner over `num_clients` clients.
    ///
    /// `malicious` is the sorted attacker id set (from
    /// [`select_prefix`](asyncfl_data::sampling::select_prefix));
    /// `cache_capacity` bounds resident dataset shards (values below 1 are
    /// clamped to 1).
    #[expect(
        clippy::too_many_arguments,
        reason = "one constructor argument per spawner parameter; a config struct would only rename them"
    )]
    pub fn new(
        seed: u64,
        num_clients: usize,
        partitioner: Partitioner,
        partition_size: usize,
        partition_jitter: f64,
        latency: LatencyModel,
        task: Arc<Task>,
        malicious: Vec<usize>,
        cache_capacity: usize,
    ) -> Self {
        debug_assert!(malicious.is_sorted_by(|a, b| a < b));
        Self {
            seed,
            num_clients,
            partitioner,
            partition_size,
            partition_jitter,
            latency,
            task,
            malicious,
            poison_labels: false,
            cache: Mutex::new(ShardCache::new(cache_capacity)),
        }
    }

    /// The population size this spawner derives over.
    pub fn num_clients(&self) -> usize {
        self.num_clients
    }

    /// Ground-truth attacker flag for `client`.
    pub fn is_malicious(&self, client: usize) -> bool {
        self.malicious.binary_search(&client).is_ok()
    }

    /// Enables label-flip data poisoning: every malicious client's derived
    /// shard has its labels cyclically shifted (the client then trains
    /// honestly on corrupted data). Clears the shard cache, since cached
    /// shards were derived unpoisoned.
    pub fn set_poison_labels(&mut self) {
        self.poison_labels = true;
        self.cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// Whether label-flip poisoning is enabled.
    pub fn poison_labels(&self) -> bool {
        self.poison_labels
    }

    /// Number of dataset shards currently materialized — the
    /// `resident_client_states` gauge, and the quantity the memory-flatness
    /// regression test bounds by cache capacity instead of `num_clients`.
    pub fn resident_states(&self) -> usize {
        self.cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .by_client
            .len()
    }

    /// The client's substream positioned after the partition-size jitter
    /// draw, with the partition size: the first step of both `spawn` and
    /// shard synthesis.
    fn sized_stream(&self, client: usize) -> (StdRng, usize) {
        let mut rng = asyncfl_rng::stream::substream(self.seed, client as u64);
        let size = if self.partition_jitter > 0.0 {
            let factor = 1.0 + self.partition_jitter * (2.0 * rng.random::<f64>() - 1.0);
            ((self.partition_size as f64 * factor).round() as usize).max(1)
        } else {
            self.partition_size
        };
        (rng, size)
    }

    /// Materializes `client`'s in-flight state (live RNG, latency factor,
    /// partition size, attacker flag) without building its shard: the
    /// shard's draws are skipped, and the cache is left untouched. Called
    /// once per client, at kickoff; the returned state then lives in the
    /// client's heap entry.
    pub fn spawn(&self, client: usize) -> ClientState {
        let (mut rng, size) = self.sized_stream(client);
        self.task
            .skip_client_dataset(&self.partitioner, size, &mut rng);
        let factor = self.latency.draw_factor(&mut rng);
        ClientState {
            rng: Some(rng),
            factor,
            size,
            malicious: self.is_malicious(client),
        }
    }

    /// The client's dataset shard: cache hit (one `Arc` clone, no
    /// allocation) or, on a miss, synthesis from the client's substream
    /// (labels flipped for an attacker under label poisoning).
    pub fn dataset(&self, client: usize) -> Arc<Dataset> {
        if let Some(data) = self
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(client)
        {
            return data;
        }
        let (mut rng, size) = self.sized_stream(client);
        let mut data = self
            .task
            .client_dataset(&self.partitioner, client, size, &mut rng);
        if self.poison_labels && self.is_malicious(client) {
            data = data.with_flipped_labels();
        }
        let data = Arc::new(data);
        self.cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(client, Arc::clone(&data));
        data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncfl_data::synthetic::TaskSpec;
    use asyncfl_data::DatasetProfile;
    use asyncfl_rng::SeedableRng;
    use proptest::prelude::*;

    /// The oracle `spawn` is checked against: the full derivation, which
    /// synthesizes the shard to move the stream to the factor draw.
    fn synthesized(spawner: &ClientSpawner, client: usize) -> (ClientState, Dataset) {
        let mut rng = asyncfl_rng::stream::substream(spawner.seed, client as u64);
        let size = if spawner.partition_jitter > 0.0 {
            let factor = 1.0 + spawner.partition_jitter * (2.0 * rng.random::<f64>() - 1.0);
            ((spawner.partition_size as f64 * factor).round() as usize).max(1)
        } else {
            spawner.partition_size
        };
        let mut data = spawner
            .task
            .client_dataset(&spawner.partitioner, client, size, &mut rng);
        let factor = spawner.latency.draw_factor(&mut rng);
        let malicious = spawner.is_malicious(client);
        if spawner.poison_labels && malicious {
            data = data.with_flipped_labels();
        }
        let state = ClientState {
            rng: Some(rng),
            factor,
            size,
            malicious,
        };
        (state, data)
    }

    proptest! {
        /// `spawn` reaches the state the full synthesis reaches (RNG
        /// position, factor, size, attacker flag) without filling the
        /// cache, and `dataset` returns the synthesized shard byte for
        /// byte: every profile plus a noise-free task, IID and Dirichlet
        /// at α ∈ {0.01, 0.1, 0.5}, jitter on and off, Zipf and log-normal
        /// latency, label poisoning on and off, for an attacker and an
        /// honest client.
        #[test]
        fn prop_spawn_skips_exactly_the_synthesized_draws(
            seed in 0u64..1_000_000,
            size in 1usize..24,
            client in 0usize..63,
        ) {
            let partitioners = [
                Partitioner::iid(),
                Partitioner::dirichlet(0.01),
                Partitioner::dirichlet(0.1),
                Partitioner::dirichlet(0.5),
            ];
            let latencies = [LatencyModel::zipf(1.2, 4), LatencyModel::log_normal(0.5)];
            for profile in DatasetProfile::ALL.map(Some).into_iter().chain([None]) {
                let mut master = StdRng::seed_from_u64(seed);
                let task = Arc::new(match profile {
                    Some(p) => p.build_task(&mut master),
                    None => Task::new(TaskSpec::default(), &mut master),
                });
                for partitioner in &partitioners {
                    for jitter in [0.0, 0.5] {
                        for latency in &latencies {
                            for poison in [false, true] {
                                let mut spawner = ClientSpawner::new(
                                    seed,
                                    64,
                                    partitioner.clone(),
                                    size,
                                    jitter,
                                    latency.clone(),
                                    Arc::clone(&task),
                                    vec![client],
                                    4,
                                );
                                if poison {
                                    spawner.set_poison_labels();
                                }
                                let clients = [client, client + 1];
                                let oracle = clients.map(|c| synthesized(&spawner, c));
                                for (c, (state, _)) in clients.iter().zip(&oracle) {
                                    prop_assert_eq!(&spawner.spawn(*c), state);
                                }
                                prop_assert_eq!(spawner.resident_states(), 0);
                                for (c, (_, data)) in clients.iter().zip(&oracle) {
                                    prop_assert_eq!(&*spawner.dataset(*c), data);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    fn test_spawner(cache_capacity: usize) -> ClientSpawner {
        let mut master = StdRng::seed_from_u64(7);
        let task = Arc::new(DatasetProfile::Mnist.build_task(&mut master));
        ClientSpawner::new(
            7,
            16,
            Partitioner::dirichlet(0.5),
            32,
            0.0,
            LatencyModel::zipf(1.2, 4),
            task,
            vec![1, 5, 9],
            cache_capacity,
        )
    }

    /// Satellite regression: the dispatch RNG checkout is an explicit take
    /// that surfaces a double checkout instead of handing out a silent
    /// placeholder stream.
    #[test]
    fn double_rng_checkout_is_an_error() {
        let spawner = test_spawner(16);
        let mut state = spawner.spawn(3);
        assert!(state.rng_is_home());
        let rng = state.checkout_rng(3).expect("first checkout succeeds");
        assert!(!state.rng_is_home());
        assert_eq!(state.checkout_rng(3), Err(RngCheckedOut { client: 3 }));
        state.check_in_rng(rng);
        assert!(state.rng_is_home());
        assert!(state.checkout_rng(3).is_ok());
    }

    #[test]
    fn derivation_is_a_pure_function_of_seed_and_client() {
        let spawner = test_spawner(16);
        let a = spawner.spawn(4);
        let data_a = spawner.dataset(4);
        let b = spawner.spawn(4);
        let data_b = spawner.dataset(4);
        assert_eq!(a, b);
        assert_eq!(*data_a, *data_b);
        assert_eq!(a.factor, spawner.spawn(4).factor);
    }

    #[test]
    fn cache_stays_bounded_and_regenerates_identically() {
        let spawner = test_spawner(4);
        let originals: Vec<Arc<Dataset>> = (0..16).map(|c| spawner.dataset(c)).collect();
        assert!(spawner.resident_states() <= 4);
        // Client 0 was evicted long ago; a regenerated shard is byte-equal.
        let again = spawner.dataset(0);
        assert_eq!(*again, *originals[0]);
        assert!(spawner.resident_states() <= 4);
    }

    #[test]
    fn malicious_set_queries_by_binary_search() {
        let spawner = test_spawner(16);
        let flags: Vec<bool> = (0..16).map(|c| spawner.is_malicious(c)).collect();
        let expected: Vec<bool> = (0..16).map(|c| [1, 5, 9].contains(&c)).collect();
        assert_eq!(flags, expected);
        let states: Vec<ClientState> = (0..16).map(|c| spawner.spawn(c)).collect();
        for (c, s) in states.iter().enumerate() {
            assert_eq!(s.malicious, spawner.is_malicious(c));
            assert!(s.factor >= 1.0 && s.size == 32);
        }
    }

    #[test]
    fn poisoning_flips_only_malicious_labels_and_invalidates_cache() {
        let mut spawner = test_spawner(16);
        let benign_before = spawner.dataset(0);
        let malicious_before = spawner.dataset(1);
        spawner.set_poison_labels();
        assert_eq!(spawner.resident_states(), 0, "cache must be invalidated");
        assert!(spawner.poison_labels());
        let benign_after = spawner.dataset(0);
        let malicious_after = spawner.dataset(1);
        assert_eq!(*benign_before, *benign_after);
        assert_ne!(*malicious_before, *malicious_after);
        assert_eq!(*malicious_after, malicious_before.with_flipped_labels());
    }
}
