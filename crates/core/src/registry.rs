//! Server-resident datasets and the concurrent result cache behind `ttk serve`.
//!
//! A long-lived query daemon keeps two pieces of shared state:
//!
//! * a [`DatasetRegistry`] — the named, `Arc`-shared [`Dataset`]s resident in
//!   the process. The daemon loads its startup inputs once, warms them, then
//!   serves; the admin plane can additionally register, reload and
//!   unregister datasets while the daemon runs. Mutations swap whole
//!   `Arc<Dataset>` handles under a short write lock, so they are
//!   **epoch-safe**: a query that resolved its dataset before the swap
//!   finishes on the old handle, and the swapped-in dataset has a fresh
//!   process-unique id, so stale cache entries stop matching structurally.
//! * a [`ResultCache`] — a sharded, LRU-bounded map from a query's full
//!   shape ([`CacheKey`]) to its finished [`QueryAnswer`]. Repeated queries
//!   skip execution entirely and ship the cached answer, bit-identical to
//!   the cold run (the cache stores the answer the executor produced, it
//!   never re-derives anything). Entries may additionally carry a wall-clock
//!   TTL ([`ResultCache::with_ttl`]) for relations that refresh out-of-band.
//!
//! ## Cache semantics
//!
//! The cache is *lossy by design*: a concurrent miss on the same key may run
//! the query twice (both workers execute, both insert, last write wins).
//! That is safe — execution is deterministic for a fixed dataset and query,
//! so both answers are identical — and it keeps the fast path free of any
//! per-key in-flight bookkeeping. The bound is enforced per shard: the
//! per-shard capacities sum to exactly the configured capacity, and an
//! insert into a full shard evicts that shard's least-recently-used entry.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use ttk_uncertain::{CoalescePolicy, Error, Result};

use crate::live::{AppendLog, LiveDataset};
use crate::query::{Algorithm, QueryAnswer, TopkQuery};
use crate::session::Dataset;

/// Re-imports a dataset from its original source — the hot-reload closure a
/// file-backed registration carries so the admin plane's `reload` verb can
/// rebuild it without the registry (or core) knowing how it was imported.
pub type DatasetLoader = Box<dyn Fn() -> Result<Dataset> + Send + Sync>;

/// Imports a dataset from a server-side path — installed once at daemon
/// startup ([`DatasetRegistry::set_importer`]) and invoked by the admin
/// plane's `register` verb. Returns the loaded dataset plus the
/// [`DatasetLoader`] that re-imports it for later `reload`s.
pub type DatasetImporter = Box<dyn Fn(&str) -> Result<(Dataset, DatasetLoader)> + Send + Sync>;

/// One resident dataset: its name, the queryable [`Dataset`], for live
/// datasets the shared [`AppendLog`] the append/subscribe paths operate on,
/// and for file-backed datasets the loader `reload` re-imports through.
struct Entry {
    name: String,
    dataset: Arc<Dataset>,
    live: Option<Arc<AppendLog>>,
    loader: Option<DatasetLoader>,
}

/// The named datasets resident in a serving process.
///
/// Insertion-ordered; names are unique. Built at daemon startup and shared
/// across workers behind one `Arc<DatasetRegistry>`; the admin plane
/// mutates it through the interior lock ([`DatasetRegistry::admin_register`],
/// [`reload`](DatasetRegistry::reload),
/// [`unregister`](DatasetRegistry::unregister)) while queries keep resolving
/// concurrently. Live datasets mutate through their interior [`AppendLog`],
/// not through the registry.
#[derive(Default)]
pub struct DatasetRegistry {
    entries: RwLock<Vec<Entry>>,
    importer: Option<DatasetImporter>,
}

impl DatasetRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        DatasetRegistry::default()
    }

    /// Installs the importer the admin plane's `register` verb uses to load
    /// datasets from server-side paths. Called once at daemon startup,
    /// before the registry is shared; a registry without an importer
    /// refuses admin registrations.
    pub fn set_importer(&mut self, importer: DatasetImporter) {
        self.importer = Some(importer);
    }

    /// Registers `dataset` under `name` and returns its process-unique
    /// dataset id (the id cache keys are derived from).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when a dataset with the same name
    /// is already registered — silently shadowing a resident dataset would
    /// leave stale cache entries answering for the wrong data.
    pub fn register(&self, name: impl Into<String>, dataset: Dataset) -> Result<u64> {
        self.push_entry(name.into(), dataset, None, None)
    }

    /// Registers `dataset` under `name` with the loader that re-imports it,
    /// enabling the admin plane's `reload` verb for this entry.
    ///
    /// # Errors
    ///
    /// As [`DatasetRegistry::register`].
    pub fn register_with_loader(
        &self,
        name: impl Into<String>,
        dataset: Dataset,
        loader: DatasetLoader,
    ) -> Result<u64> {
        self.push_entry(name.into(), dataset, None, Some(loader))
    }

    /// Registers `log` under `name` as a live dataset (a [`LiveDataset`]
    /// provider labelled `name`) and returns its process-unique dataset id.
    /// The log stays shared: the daemon's append and subscription paths
    /// reach it through [`DatasetRegistry::live`].
    ///
    /// # Errors
    ///
    /// As [`DatasetRegistry::register`].
    pub fn register_live(&self, name: impl Into<String>, log: Arc<AppendLog>) -> Result<u64> {
        let name = name.into();
        let dataset =
            Dataset::from_provider(LiveDataset::new(Arc::clone(&log))).with_label(name.clone());
        self.push_entry(name, dataset, Some(log), None)
    }

    /// Imports the dataset at the server-side path `path` through the
    /// installed importer and makes it resident under `name` — the admin
    /// plane's `register` verb. The duplicate-name check that guards
    /// startup registration applies here identically.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when no importer is installed or
    /// `name` already names a resident dataset, and whatever the import
    /// itself fails with.
    pub fn admin_register(&self, name: &str, path: &str) -> Result<u64> {
        let importer = self.importer.as_ref().ok_or_else(|| {
            Error::InvalidParameter(
                "this server cannot import datasets over the admin plane \
                 (no importer installed)"
                    .into(),
            )
        })?;
        // Fast-fail on a duplicate before paying for the import; the
        // insert below re-checks authoritatively under the write lock.
        if self.get(name).is_some() {
            return Err(duplicate_name(name));
        }
        let (dataset, loader) = importer(path)?;
        self.push_entry(
            name.to_string(),
            dataset.with_label(name),
            None,
            Some(loader),
        )
    }

    /// Re-imports a file-backed dataset through its registration-time
    /// loader and swaps it in under the same name, returning the fresh
    /// dataset handle. In-flight queries finish on the old `Arc`'d dataset;
    /// the swapped-in dataset has a new process-unique id, so every cached
    /// answer for the old data stops matching structurally.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `name` is not resident, is
    /// live (appends, not reloads, move live data), or was registered
    /// without a loader, and whatever the re-import itself fails with.
    pub fn reload(&self, name: &str) -> Result<Arc<Dataset>> {
        // Load under the read lock: queries (also readers) proceed
        // concurrently, and the loader stays borrowed from the entry.
        let fresh = {
            let entries = self.read_entries();
            let entry = entries
                .iter()
                .find(|entry| entry.name == name)
                .ok_or_else(|| no_such_name(name))?;
            if entry.live.is_some() {
                return Err(Error::InvalidParameter(format!(
                    "dataset `{name}` is live; reload applies to file-backed \
                     datasets (live data moves by append/seal)"
                )));
            }
            let loader = entry.loader.as_ref().ok_or_else(|| {
                Error::InvalidParameter(format!(
                    "dataset `{name}` has no reload source (it was registered \
                     without a loader)"
                ))
            })?;
            loader()?.with_label(name)
        };
        let fresh = Arc::new(fresh);
        let mut entries = self.write_entries();
        let entry = entries
            .iter_mut()
            .find(|entry| entry.name == name)
            .ok_or_else(|| no_such_name(name))?;
        entry.dataset = Arc::clone(&fresh);
        Ok(fresh)
    }

    /// Removes the resident dataset named `name`. In-flight queries (and,
    /// for live datasets, subscriptions) finish on the `Arc` handles they
    /// already hold; new lookups miss immediately.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `name` is not resident.
    pub fn unregister(&self, name: &str) -> Result<()> {
        let mut entries = self.write_entries();
        let index = entries
            .iter()
            .position(|entry| entry.name == name)
            .ok_or_else(|| no_such_name(name))?;
        entries.remove(index);
        Ok(())
    }

    fn push_entry(
        &self,
        name: String,
        dataset: Dataset,
        live: Option<Arc<AppendLog>>,
        loader: Option<DatasetLoader>,
    ) -> Result<u64> {
        let mut entries = self.write_entries();
        if entries.iter().any(|entry| entry.name == name) {
            return Err(duplicate_name(&name));
        }
        let id = dataset.id();
        entries.push(Entry {
            name,
            dataset: Arc::new(dataset),
            live,
            loader,
        });
        Ok(id)
    }

    /// Looks up a resident dataset by name. The returned handle stays valid
    /// across concurrent reloads/unregisters — it is the dataset as of the
    /// lookup.
    pub fn get(&self, name: &str) -> Option<Arc<Dataset>> {
        self.read_entries()
            .iter()
            .find(|entry| entry.name == name)
            .map(|entry| Arc::clone(&entry.dataset))
    }

    /// Looks up the append log behind a resident **live** dataset by name
    /// (`None` when the name is unknown or names a static dataset).
    pub fn live(&self, name: &str) -> Option<Arc<AppendLog>> {
        self.read_entries()
            .iter()
            .find(|entry| entry.name == name)
            .and_then(|entry| entry.live.as_ref().map(Arc::clone))
    }

    /// The registered names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.read_entries()
            .iter()
            .map(|entry| entry.name.clone())
            .collect()
    }

    /// Number of resident datasets.
    pub fn len(&self) -> usize {
        self.read_entries().len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.read_entries().is_empty()
    }

    fn read_entries(&self) -> std::sync::RwLockReadGuard<'_, Vec<Entry>> {
        self.entries.read().expect("dataset registry poisoned")
    }

    fn write_entries(&self) -> std::sync::RwLockWriteGuard<'_, Vec<Entry>> {
        self.entries.write().expect("dataset registry poisoned")
    }
}

fn duplicate_name(name: &str) -> Error {
    Error::InvalidParameter(format!("dataset `{name}` is already registered"))
}

fn no_such_name(name: &str) -> Error {
    Error::InvalidParameter(format!("no dataset named `{name}` is resident"))
}

/// The full query shape a cached answer is keyed on.
///
/// The issue's headline key is (dataset id, algorithm, k, pτ), but any query
/// knob that changes the answer must participate — otherwise a `max_lines`
/// or coalesce-policy change would be answered from stale state. Floats are
/// keyed by their IEEE-754 bits, consistent with the wire codec's
/// bit-identical discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Process-unique id of the resident dataset ([`Dataset::id`]).
    pub dataset: u64,
    /// The dataset epoch the answer was computed at ([`Dataset::epoch`]).
    /// Static datasets stay at 0 forever; live datasets advance per seal,
    /// so an answer cached at one watermark is a clean miss at the next —
    /// append/seal invalidates without any explicit eviction.
    pub epoch: u64,
    /// Number of top tuples ranked.
    pub k: usize,
    /// Raw bits of the Theorem-2 tail mass bound pτ.
    pub p_tau_bits: u64,
    /// Number of typical answers selected.
    pub typical_count: usize,
    /// Line-coalescing budget (0 = exact).
    pub max_lines: usize,
    /// Distribution algorithm.
    pub algorithm: Algorithm,
    /// Line-coalescing combine rule.
    pub coalesce: CoalescePolicy,
    /// Whether the U-Top-k baseline answer was requested.
    pub u_topk: bool,
    /// Possible-world enumeration budget (exhaustive baseline only).
    pub world_limit: u128,
}

impl CacheKey {
    /// The key for `query` against the resident dataset `dataset_id` at
    /// watermark `epoch` (0 for static datasets).
    pub fn new(dataset_id: u64, epoch: u64, query: &TopkQuery) -> Self {
        CacheKey {
            dataset: dataset_id,
            epoch,
            k: query.k,
            p_tau_bits: query.p_tau.to_bits(),
            typical_count: query.typical_count,
            max_lines: query.max_lines,
            algorithm: query.algorithm,
            coalesce: query.coalesce_policy,
            u_topk: query.compute_u_topk,
            world_limit: query.world_limit,
        }
    }
}

/// One cached answer plus its recency and insertion stamps.
struct CacheEntry {
    answer: Arc<QueryAnswer>,
    last_used: u64,
    inserted: Instant,
}

/// A concurrent, LRU-bounded result cache shared by every serving worker.
///
/// Keys hash to one of up to eight shards, each an independently locked
/// `HashMap`, so concurrent lookups on different keys rarely contend.
/// Recency is a single shared atomic tick — cheap, monotonic, and precise
/// enough for eviction. A capacity of `0` disables caching entirely
/// (lookups always miss, inserts are dropped). An optional per-entry TTL
/// ([`ResultCache::with_ttl`]) additionally expires answers by wall-clock
/// age, for relations that refresh out-of-band (hot reloads, external
/// pipelines) and so never move an epoch.
pub struct ResultCache {
    shards: Vec<Mutex<HashMap<CacheKey, CacheEntry>>>,
    caps: Vec<usize>,
    ttl: Option<Duration>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    expirations: AtomicU64,
    generation: AtomicU64,
}

impl ResultCache {
    /// A cache holding at most `capacity` answers across all shards, with
    /// no TTL (entries age out by LRU and epoch-keying only).
    pub fn new(capacity: usize) -> Self {
        let shards = capacity.clamp(1, 8);
        let caps: Vec<usize> = (0..shards)
            .map(|i| capacity / shards + usize::from(i < capacity % shards))
            .collect();
        debug_assert_eq!(caps.iter().sum::<usize>(), capacity);
        ResultCache {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            caps,
            ttl: None,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            expirations: AtomicU64::new(0),
            generation: AtomicU64::new(0),
        }
    }

    /// Bounds every entry's lifetime to `ttl`: a lookup older than that is
    /// removed and counted as an expiration + miss. `None` disables the
    /// bound (the default).
    pub fn with_ttl(mut self, ttl: Option<Duration>) -> Self {
        self.ttl = ttl;
        self
    }

    /// The configured per-entry TTL, when one is set.
    pub fn ttl(&self) -> Option<Duration> {
        self.ttl
    }

    fn shard_of(&self, key: &CacheKey) -> usize {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() % self.shards.len() as u64) as usize
    }

    /// Looks up a cached answer, refreshing its recency on a hit. Counts a
    /// hit or miss either way; an entry past the TTL is removed and counted
    /// as an expiration and a miss.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<QueryAnswer>> {
        let shard = self.shard_of(key);
        let mut map = self.shards[shard].lock().expect("cache shard poisoned");
        if let Some(ttl) = self.ttl {
            if map
                .get(key)
                .is_some_and(|entry| entry.inserted.elapsed() > ttl)
            {
                map.remove(key);
                self.expirations.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        match map.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.answer))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or refreshes) an answer, evicting the shard's
    /// least-recently-used entry when the shard is full. A no-op when the
    /// cache capacity is zero.
    pub fn insert(&self, key: CacheKey, answer: Arc<QueryAnswer>) {
        let shard = self.shard_of(&key);
        let cap = self.caps[shard];
        if cap == 0 {
            return;
        }
        let mut map = self.shards[shard].lock().expect("cache shard poisoned");
        let last_used = self.tick.fetch_add(1, Ordering::Relaxed);
        if !map.contains_key(&key) && map.len() >= cap {
            if let Some(victim) = map
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(victim, _)| *victim)
            {
                map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        map.insert(
            key,
            CacheEntry {
                answer,
                last_used,
                inserted: Instant::now(),
            },
        );
    }

    /// Number of answers currently cached.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total capacity across shards (0 = caching disabled).
    pub fn capacity(&self) -> usize {
        self.caps.iter().sum()
    }

    /// Lookups answered from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to execution so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted to uphold the bound so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Entries removed because they outlived the TTL so far.
    pub fn expirations(&self) -> u64 {
        self.expirations.load(Ordering::Relaxed)
    }

    /// The cache generation: how many times an append/seal has invalidated
    /// cached epochs. Purely observational — invalidation itself is
    /// structural (the epoch is part of every [`CacheKey`], so stale
    /// entries simply stop matching and age out by LRU); the generation is
    /// the daemon's cheap "the data moved" signal for log lines and
    /// `explain --after`.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Advances the generation (called when a live dataset's epoch moves).
    pub fn bump_generation(&self) {
        self.generation.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typical::TypicalSelection;
    use ttk_uncertain::{ScoreDistribution, UncertainTable};

    fn answer(scan_depth: usize) -> Arc<QueryAnswer> {
        Arc::new(QueryAnswer {
            distribution: ScoreDistribution::from_points(Vec::new()),
            typical: TypicalSelection {
                answers: Vec::new(),
                expected_distance: 0.0,
            },
            u_topk: None,
            scan_depth,
            distribution_time: std::time::Duration::ZERO,
            typical_time: std::time::Duration::ZERO,
        })
    }

    fn key(dataset: u64, k: usize, p_tau: f64) -> CacheKey {
        CacheKey::new(dataset, 0, &TopkQuery::new(k).with_p_tau(p_tau))
    }

    fn tiny_table() -> UncertainTable {
        UncertainTable::builder()
            .tuple(1u64, 10.0, 0.5)
            .expect("valid tuple")
            .build()
            .expect("valid table")
    }

    fn scored_table(score: f64) -> UncertainTable {
        UncertainTable::builder()
            .tuple(1u64, score, 0.5)
            .expect("valid tuple")
            .build()
            .expect("valid table")
    }

    #[test]
    fn registry_rejects_duplicate_names_and_resolves_by_name() {
        let registry = DatasetRegistry::new();
        let first = registry
            .register("sensors", Dataset::table(tiny_table()))
            .expect("first registration");
        let second = registry
            .register("soldiers", Dataset::table(tiny_table()))
            .expect("second registration");
        assert_ne!(first, second);
        assert_eq!(registry.names(), ["sensors", "soldiers"]);
        assert_eq!(registry.len(), 2);

        let err = registry
            .register("sensors", Dataset::table(tiny_table()))
            .expect_err("duplicate must be rejected");
        assert!(err.to_string().contains("already registered"));

        assert_eq!(registry.get("sensors").expect("resolves").id(), first);
        assert!(registry.get("missing").is_none());
    }

    #[test]
    fn reload_swaps_the_handle_while_old_handles_stay_valid() {
        let registry = DatasetRegistry::new();
        registry
            .register_with_loader(
                "sensors",
                Dataset::table(scored_table(1.0)).with_label("sensors"),
                Box::new(|| Ok(Dataset::table(scored_table(2.0)))),
            )
            .expect("registration");

        // An in-flight query's view of the world.
        let before = registry.get("sensors").expect("resolves");

        let fresh = registry.reload("sensors").expect("reload");
        assert_ne!(
            before.id(),
            fresh.id(),
            "reload must mint a new dataset id so cached answers stop matching"
        );
        assert_eq!(fresh.label(), "sensors");
        assert_eq!(registry.get("sensors").expect("resolves").id(), fresh.id());
        // The pre-reload handle still answers for the old data.
        assert_eq!(before.label(), "sensors");

        // A dataset registered without a loader cannot reload.
        registry
            .register("frozen", Dataset::table(tiny_table()))
            .expect("registration");
        let err = registry.reload("frozen").expect_err("no loader");
        assert!(err.to_string().contains("no reload source"), "{err}");

        // Neither can a live dataset or a missing name.
        registry
            .register_live("feed", Arc::new(AppendLog::new(8)))
            .expect("live registration");
        let err = registry.reload("feed").expect_err("live");
        assert!(err.to_string().contains("is live"), "{err}");
        let err = registry.reload("missing").expect_err("missing");
        assert!(err.to_string().contains("no dataset named"), "{err}");
    }

    #[test]
    fn unregister_removes_the_entry_and_names_the_missing_one() {
        let registry = DatasetRegistry::new();
        registry
            .register("sensors", Dataset::table(tiny_table()))
            .expect("registration");
        registry
            .register("soldiers", Dataset::table(tiny_table()))
            .expect("registration");
        registry.unregister("sensors").expect("unregister");
        assert_eq!(registry.names(), ["soldiers"]);
        assert!(registry.get("sensors").is_none());
        let err = registry.unregister("sensors").expect_err("gone");
        assert!(err.to_string().contains("no dataset named `sensors`"));
        // The freed name is available again.
        registry
            .register("sensors", Dataset::table(tiny_table()))
            .expect("re-registration");
    }

    #[test]
    fn admin_register_imports_through_the_installed_importer() {
        let mut registry = DatasetRegistry::new();
        // No importer: admin registration refuses with a clear error.
        let err = registry
            .admin_register("sensors", "/data/sensors.csv")
            .expect_err("no importer");
        assert!(err.to_string().contains("no importer"), "{err}");

        registry.set_importer(Box::new(|path| {
            if path.ends_with(".csv") {
                Ok((
                    Dataset::table(tiny_table()),
                    Box::new(|| Ok(Dataset::table(tiny_table()))) as DatasetLoader,
                ))
            } else {
                Err(Error::InvalidParameter(format!("cannot import {path}")))
            }
        }));
        let id = registry
            .admin_register("sensors", "/data/sensors.csv")
            .expect("import");
        assert_eq!(registry.get("sensors").expect("resolves").id(), id);
        assert_eq!(
            registry.get("sensors").expect("resolves").label(),
            "sensors"
        );
        // Admin-registered datasets carry a loader, so reload works.
        registry.reload("sensors").expect("reload");

        // The duplicate-name check applies to the admin plane too.
        let err = registry
            .admin_register("sensors", "/data/other.csv")
            .expect_err("duplicate");
        assert!(
            err.to_string()
                .contains("dataset `sensors` is already registered"),
            "{err}"
        );
        // Import failures surface and leave the registry unchanged.
        assert!(registry.admin_register("bad", "/data/bad.bin").is_err());
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn cache_counts_hits_and_misses_and_returns_the_stored_answer() {
        let cache = ResultCache::new(4);
        let k = key(1, 3, 1e-3);
        assert!(cache.get(&k).is_none());
        cache.insert(k, answer(42));
        let got = cache.get(&k).expect("cached");
        assert_eq!(got.scan_depth, 42);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cache_keys_differ_when_any_query_knob_differs() {
        let base = TopkQuery::new(3);
        let k0 = CacheKey::new(1, 0, &base);
        assert_ne!(k0, CacheKey::new(2, 0, &base));
        assert_ne!(k0, CacheKey::new(1, 1, &base), "epoch must participate");
        assert_ne!(k0, CacheKey::new(1, 0, &TopkQuery::new(4)));
        assert_ne!(k0, CacheKey::new(1, 0, &base.with_p_tau(1e-6)));
        assert_ne!(k0, CacheKey::new(1, 0, &base.with_max_lines(0)));
        assert_ne!(
            k0,
            CacheKey::new(1, 0, &base.with_algorithm(Algorithm::KCombo))
        );
        assert_ne!(k0, CacheKey::new(1, 0, &base.with_u_topk(false)));
    }

    #[test]
    fn live_registration_exposes_the_log_and_static_datasets_do_not() {
        use crate::live::AppendLog;
        use std::sync::Arc as StdArc;
        use ttk_uncertain::{SourceTuple, UncertainTuple};

        let registry = DatasetRegistry::new();
        registry
            .register("frozen", Dataset::table(tiny_table()))
            .expect("static registration");
        let log = StdArc::new(AppendLog::new(8));
        let id = registry
            .register_live("feed", StdArc::clone(&log))
            .expect("live registration");
        assert!(registry.live("frozen").is_none());
        assert!(registry.live("missing").is_none());
        assert!(registry.live("feed").is_some());
        assert_eq!(registry.names(), ["frozen", "feed"]);

        // The registry's dataset view and the shared log see the same data.
        let dataset = registry.get("feed").expect("resolves");
        assert_eq!(dataset.id(), id);
        assert_eq!(dataset.label(), "feed");
        assert_eq!(dataset.epoch(), 0);
        log.append(vec![SourceTuple::independent(
            UncertainTuple::new(1u64, 9.0, 0.5).expect("tuple"),
        )])
        .expect("append");
        log.seal();
        assert_eq!(dataset.epoch(), 1);

        let err = registry
            .register_live("feed", StdArc::new(AppendLog::new(8)))
            .expect_err("duplicate live name");
        assert!(err.to_string().contains("already registered"));
    }

    #[test]
    fn cache_generation_counts_bumps() {
        let cache = ResultCache::new(4);
        assert_eq!(cache.generation(), 0);
        cache.bump_generation();
        cache.bump_generation();
        assert_eq!(cache.generation(), 2);
    }

    #[test]
    fn cache_evicts_least_recently_used_within_the_bound() {
        // Capacity 1 ⇒ a single shard with capacity 1: any second key evicts.
        let cache = ResultCache::new(1);
        let first = key(1, 1, 1e-3);
        let second = key(1, 2, 1e-3);
        cache.insert(first, answer(1));
        cache.insert(second, answer(2));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(&first).is_none());
        assert_eq!(cache.get(&second).expect("survivor").scan_depth, 2);
    }

    #[test]
    fn cache_recency_refresh_protects_hot_entries() {
        let cache = ResultCache::new(1);
        let hot = key(1, 1, 1e-3);
        cache.insert(hot, answer(1));
        // Touch the hot entry, then overwrite it via re-insert: the re-insert
        // of an existing key must not evict (len stays within bound).
        assert!(cache.get(&hot).is_some());
        cache.insert(hot, answer(3));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.get(&hot).expect("refreshed").scan_depth, 3);
    }

    #[test]
    fn cache_size_bound_holds_across_many_inserts() {
        let capacity = 16;
        let cache = ResultCache::new(capacity);
        assert_eq!(cache.capacity(), capacity);
        for i in 0..200usize {
            cache.insert(key(1, i + 1, 1e-3), answer(i));
            assert!(cache.len() <= capacity, "bound violated at insert {i}");
        }
        assert_eq!(cache.len(), capacity);
        assert!(cache.evictions() >= (200 - capacity) as u64);
    }

    #[test]
    fn ttl_expires_entries_by_wall_clock_and_counts_expirations() {
        let cache = ResultCache::new(4).with_ttl(Some(Duration::from_millis(25)));
        assert_eq!(cache.ttl(), Some(Duration::from_millis(25)));
        let k = key(1, 3, 1e-3);
        cache.insert(k, answer(7));
        // Young enough: a plain hit.
        assert_eq!(cache.get(&k).expect("fresh").scan_depth, 7);
        assert_eq!(cache.expirations(), 0);

        std::thread::sleep(Duration::from_millis(60));
        assert!(cache.get(&k).is_none(), "stale entry must expire");
        assert_eq!(cache.expirations(), 1);
        assert_eq!(cache.len(), 0);
        // The expiry counted as a miss: 1 hit, 1 miss so far.
        assert_eq!((cache.hits(), cache.misses()), (1, 1));

        // Re-inserting restarts the clock.
        cache.insert(k, answer(8));
        assert_eq!(cache.get(&k).expect("fresh again").scan_depth, 8);

        // Without a TTL nothing ever expires.
        let untimed = ResultCache::new(4);
        assert_eq!(untimed.ttl(), None);
        untimed.insert(k, answer(9));
        std::thread::sleep(Duration::from_millis(40));
        assert!(untimed.get(&k).is_some());
        assert_eq!(untimed.expirations(), 0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResultCache::new(0);
        assert_eq!(cache.capacity(), 0);
        let k = key(1, 3, 1e-3);
        cache.insert(k, answer(1));
        assert!(cache.get(&k).is_none());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 1);
    }
}
