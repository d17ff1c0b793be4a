//! The unified execution API: [`Dataset`] + [`Session`].
//!
//! One composable pair runs every query, whatever the physical input:
//!
//! * a [`Dataset`] abstracts **what is scanned** — an in-memory
//!   [`UncertainTable`], an owned rank-ordered stream, a set of shard
//!   streams, or any [`DatasetProvider`] (the CSV datasets of `ttk-pdb`, a
//!   generator closure). Every kind opens into the same
//!   [`ScanHandle`], and replayable kinds cache
//!   their expensive artifacts (a spilled CSV keeps its external-sort run
//!   files) so *plan once, run many* holds across queries;
//! * a [`Session`] owns the reusable execution scratch (the rank scan and
//!   its Theorem-2 gate) and exposes exactly three verbs:
//!   [`Session::execute`], [`Session::execute_batch`] (cost-ordered,
//!   optionally with a bounded-result-memory sink) and [`Session::explain`],
//!   which reports the chosen scan path as a [`PlanDescription`] without
//!   running anything.
//!
//! ```
//! use ttk_core::{Dataset, Session, TopkQuery};
//! use ttk_uncertain::UncertainTable;
//!
//! let table = UncertainTable::builder()
//!     .tuple(1u64, 60.0, 0.6)?
//!     .tuple(2u64, 50.0, 0.4)?
//!     .tuple(3u64, 40.0, 1.0)?
//!     .me_rule([1u64, 2u64])
//!     .build()?;
//!
//! let dataset = Dataset::table(table);
//! let mut session = Session::new();
//! let query = TopkQuery::new(2).with_u_topk(false);
//! println!("{}", session.explain(&dataset, &query));
//! let answer = session.execute(&dataset, &query)?;
//! assert!(answer.expected_score() > 90.0);
//! # Ok::<(), ttk_uncertain::Error>(())
//! ```

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};

use ttk_uncertain::{Error, Result, ScanHandle, TableSource, TupleSource, UncertainTable};

use crate::query::{resolve_threads, Algorithm, Executor, QueryAnswer, TopkQuery};
use crate::scan_depth::GateMeter;

/// How a dataset will be scanned, as chosen by [`Dataset::plan`] /
/// [`Session::explain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanPath {
    /// An in-memory [`UncertainTable`] streamed in rank order (U-Topk, when
    /// requested, runs over the table directly).
    InMemory,
    /// A single rank-ordered stream.
    Stream,
    /// Per-shard rank-ordered streams fused under a loser-tree k-way merge.
    MergedShards {
        /// Number of physical shard streams.
        shards: usize,
    },
    /// External-sort spill runs replayed as shard streams under the merge.
    SpilledRuns {
        /// Number of runs under the merge, when the sort pass has already run.
        runs: Option<usize>,
        /// Number of runs spilled to disk (the rest stay in memory).
        spilled: Option<usize>,
        /// True when a cached spill index will be replayed — the external
        /// sort pass is skipped entirely.
        reused: bool,
    },
    /// Shard streams decoded from remote processes over the wire protocol,
    /// optionally merged with local shard streams — one scan spanning
    /// machines.
    Remote {
        /// Number of remote shard connections.
        remote: usize,
        /// Number of local shard streams merged alongside them.
        local: usize,
    },
    /// Remote shard streams opened with the query's `(k, pτ)` announced:
    /// each server evaluates the conservative per-shard Theorem-2 bound and
    /// ships only the gated prefix, with the merge-side gate pushing bound
    /// updates back.
    RemotePushdown {
        /// Number of remote shard connections.
        remote: usize,
        /// Number of local shard streams merged alongside them.
        local: usize,
    },
    /// The whole query shipped to a query-serving daemon (`ttk serve`): the
    /// server executes against its resident dataset and streams the answer
    /// back, so no tuples cross the network at all.
    RemoteQuery,
    /// A live dataset's watermarked snapshot: the sealed, rank-ordered
    /// segments published at one epoch, fused under the loser-tree k-way
    /// merge. Appends after the snapshot was taken are invisible to this
    /// scan.
    Live {
        /// Number of sealed segments under the merge.
        segments: usize,
        /// The snapshot's epoch (advances by one per seal).
        epoch: u64,
        /// Epoch of the log's most recent LSM-style compaction (`0` when the
        /// log was never compacted).
        compacted_epoch: u64,
    },
}

impl std::fmt::Display for ScanPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanPath::InMemory => write!(f, "in-memory table scan"),
            ScanPath::Stream => write!(f, "single-stream scan"),
            ScanPath::MergedShards { shards } => {
                write!(f, "k-way merge over {shards} shard streams")
            }
            ScanPath::SpilledRuns {
                runs,
                spilled,
                reused,
            } => {
                match runs {
                    Some(runs) => write!(f, "external-sort scan over {runs} runs")?,
                    None => write!(f, "external-sort scan (runs decided at open)")?,
                }
                if let Some(spilled) = spilled {
                    write!(f, " ({spilled} spilled to disk)")?;
                }
                if *reused {
                    write!(f, ", reusing the cached spill index (no re-sort)")?;
                }
                Ok(())
            }
            ScanPath::Remote { remote, local } => {
                write!(f, "k-way merge over {remote} remote shard streams")?;
                if *local > 0 {
                    write!(f, " and {local} local shard streams")?;
                }
                Ok(())
            }
            ScanPath::RemotePushdown { remote, local } => {
                write!(
                    f,
                    "k-way merge over {remote} remote shard streams \
                     (scan-gate pushdown: servers ship the Theorem-2 prefix)"
                )?;
                if *local > 0 {
                    write!(f, " and {local} local shard streams")?;
                }
                Ok(())
            }
            ScanPath::RemoteQuery => write!(
                f,
                "remote query execution on a serving daemon (the answer ships, \
                 not the tuples)"
            ),
            ScanPath::Live {
                segments,
                epoch,
                compacted_epoch,
            } => {
                write!(
                    f,
                    "live snapshot scan at epoch {epoch}: k-way merge over \
                     {segments} sealed segments"
                )?;
                if *compacted_epoch > 0 {
                    write!(f, " (last compacted at epoch {compacted_epoch})")?;
                }
                Ok(())
            }
        }
    }
}

/// The static facts a dataset knows about itself before it is opened.
#[derive(Debug, Clone)]
pub struct DatasetPlan {
    /// The scan path [`Dataset::open`] will take.
    pub path: ScanPath,
    /// Number of tuples the scan could read, when known without opening.
    pub rows: Option<usize>,
}

/// What the executor is about to do with a scan — handed to
/// [`DatasetProvider::open_for`] so query-aware providers (remote shard
/// datasets) can push the scan gate down to their servers. Providers that
/// ignore it behave exactly as before.
#[derive(Debug, Clone)]
pub struct ScanSpec {
    /// The query size k.
    pub k: usize,
    /// The probability threshold pτ driving the Theorem-2 bound.
    pub p_tau: f64,
    /// True when the consumer will drain the full stream regardless of
    /// Theorem 2 (U-Topk comparison, exhaustive algorithm) — pushdown must
    /// not truncate anything.
    pub full_stream: bool,
    /// The merge-side gate's accumulated-mass meter; network-backed
    /// providers read it to push bound updates to their servers.
    pub meter: GateMeter,
}

impl ScanSpec {
    /// The spec [`Session::execute`] derives from a query.
    pub fn for_query(query: &TopkQuery) -> Self {
        ScanSpec {
            k: query.k,
            p_tau: query.p_tau,
            full_stream: query.compute_u_topk || query.algorithm == Algorithm::Exhaustive,
            meter: GateMeter::new(),
        }
    }
}

/// A pluggable physical input: anything that can open into a
/// [`ScanHandle`] and describe its scan path.
///
/// This is the seam future inputs (async ingestion adapters, distributed
/// shard feeds) plug into: implement `open`/`plan` once and every [`Session`]
/// verb — single queries, cost-ordered batches, `explain` — works unchanged.
/// `ttk-pdb` implements it for CSV relations (with cached scoring passes and
/// a reusable external-sort spill index); [`Dataset::generator`] adapts any
/// replayable closure.
pub trait DatasetProvider: Send + Sync {
    /// Opens a fresh scan over the input.
    ///
    /// Called once per query; implementations should cache expensive
    /// artifacts (sort passes, schema inference) internally so repeated opens
    /// are cheap replays.
    ///
    /// # Errors
    ///
    /// Implementations surface I/O and validation failures as
    /// [`ttk_uncertain::Error`] (typically [`Error::Source`]).
    fn open(&self) -> Result<ScanHandle>;

    /// Describes how [`DatasetProvider::open`] will scan, without opening.
    fn plan(&self) -> DatasetPlan;

    /// Opens a fresh scan *for a specific query*. Query-aware providers
    /// (remote shard datasets announcing scan-gate pushdown) override this;
    /// the default ignores the spec and delegates to
    /// [`DatasetProvider::open`].
    ///
    /// # Errors
    ///
    /// As [`DatasetProvider::open`].
    fn open_for(&self, spec: &ScanSpec) -> Result<ScanHandle> {
        let _ = spec;
        self.open()
    }

    /// Describes how [`DatasetProvider::open_for`] will scan a query that
    /// does (or does not) drain the full stream. The default delegates to
    /// [`DatasetProvider::plan`].
    fn plan_for(&self, full_stream: bool) -> DatasetPlan {
        let _ = full_stream;
        self.plan()
    }

    /// The provider's current epoch — the watermark a scan opened *now*
    /// would see. Static providers never change, so the default is a
    /// constant `0`; live providers (`ttk_core::live`) report their sealed
    /// snapshot's epoch, which cache keys incorporate so an answer computed
    /// at one watermark is never served for another.
    fn epoch(&self) -> u64 {
        0
    }
}

/// Adapts a replayable closure (generators are seeded and deterministic) to
/// [`DatasetProvider`].
struct FnProvider<F> {
    open: F,
}

impl<F, S> DatasetProvider for FnProvider<F>
where
    F: Fn() -> Result<S> + Send + Sync,
    S: TupleSource + Send + 'static,
{
    fn open(&self) -> Result<ScanHandle> {
        Ok(ScanHandle::single((self.open)()?))
    }

    fn plan(&self) -> DatasetPlan {
        DatasetPlan {
            path: ScanPath::Stream,
            rows: None,
        }
    }
}

/// The physical input kinds a [`Dataset`] unifies.
enum Inner {
    Table(Arc<UncertainTable>),
    Stream(Mutex<Option<Box<dyn TupleSource + Send>>>),
    Shards {
        slot: Mutex<Option<Vec<Box<dyn TupleSource + Send>>>>,
        count: usize,
    },
    Provider(Box<dyn DatasetProvider>),
}

/// One logical relation, whatever its physical shape.
///
/// A `Dataset` is the single input abstraction of the workspace: every
/// constructor wraps one physical input kind, and [`Dataset::open`] turns any
/// of them into the uniform [`ScanHandle`] the rank-scan executor consumes.
/// Replayable kinds (tables, providers, generators) can be opened once per
/// query for as long as the dataset lives; single-pass kinds
/// ([`Dataset::stream`], [`Dataset::shards`]) open exactly once and report a
/// clear error afterwards.
///
/// Datasets are `Sync`, so one dataset can back every job of a parallel
/// [`Session::execute_batch`].
pub struct Dataset {
    inner: Inner,
    label: String,
    /// Process-unique identity, used to key per-dataset state (observed
    /// scan depths) without relying on labels, which need not be unique.
    id: u64,
}

/// Allocates the next process-unique dataset id.
fn next_dataset_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl std::fmt::Debug for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dataset")
            .field("label", &self.label)
            .field("kind", &self.kind())
            .finish()
    }
}

impl Dataset {
    /// Wraps an owned in-memory table.
    ///
    /// The table is shared behind an [`Arc`]; every open streams it in rank
    /// order, and U-Topk (when requested) runs over the table directly.
    ///
    /// ```
    /// use ttk_core::{Dataset, Session, TopkQuery};
    /// use ttk_uncertain::UncertainTable;
    ///
    /// let table = UncertainTable::builder()
    ///     .tuple(1u64, 9.0, 0.5)?
    ///     .tuple(2u64, 7.0, 1.0)?
    ///     .build()?;
    /// let dataset = Dataset::table(table);
    /// let mut session = Session::new();
    /// // Replayable: the same dataset serves many queries.
    /// for k in 1..=2 {
    ///     session.execute(&dataset, &TopkQuery::new(k).with_u_topk(false))?;
    /// }
    /// # Ok::<(), ttk_uncertain::Error>(())
    /// ```
    pub fn table(table: UncertainTable) -> Self {
        Dataset::shared_table(Arc::new(table))
    }

    /// Wraps a table already shared behind an [`Arc`] (no copy).
    pub fn shared_table(table: Arc<UncertainTable>) -> Self {
        Dataset {
            inner: Inner::Table(table),
            label: "table".to_string(),
            id: next_dataset_id(),
        }
    }

    /// Wraps a single-pass rank-ordered stream.
    ///
    /// The stream is consumed by the first open; a second
    /// [`Session::execute`] against the same dataset reports an error instead
    /// of silently returning an empty answer.
    ///
    /// ```
    /// use ttk_core::{Dataset, Session, TopkQuery};
    /// use ttk_uncertain::{SourceTuple, UncertainTuple, VecSource};
    ///
    /// let tuples = vec![
    ///     SourceTuple::independent(UncertainTuple::new(1u64, 9.0, 0.5)?),
    ///     SourceTuple::independent(UncertainTuple::new(2u64, 7.0, 1.0)?),
    /// ];
    /// let dataset = Dataset::stream(VecSource::new(tuples));
    /// let mut session = Session::new();
    /// let query = TopkQuery::new(1).with_u_topk(false);
    /// assert!(session.execute(&dataset, &query).is_ok());
    /// // Single-pass: the second run is rejected, not silently empty.
    /// assert!(session.execute(&dataset, &query).is_err());
    /// # Ok::<(), ttk_uncertain::Error>(())
    /// ```
    pub fn stream(source: impl TupleSource + Send + 'static) -> Self {
        Dataset {
            inner: Inner::Stream(Mutex::new(Some(Box::new(source)))),
            label: "stream".to_string(),
            id: next_dataset_id(),
        }
    }

    /// Wraps the shard streams of **one partitioned relation** (shared
    /// group-key namespace); opening fuses them under the loser-tree k-way
    /// merge.
    /// Single-pass, like [`Dataset::stream`].
    ///
    /// ```
    /// use ttk_core::{Dataset, ScanPath, Session, TopkQuery};
    /// use ttk_uncertain::{SourceTuple, UncertainTuple, VecSource};
    ///
    /// let shard = |id: u64, score: f64| {
    ///     VecSource::new(vec![SourceTuple::independent(
    ///         UncertainTuple::new(id, score, 0.8).unwrap(),
    ///     )])
    /// };
    /// let dataset = Dataset::shards(vec![shard(1, 9.0), shard(2, 7.0)]);
    /// let mut session = Session::new();
    /// let query = TopkQuery::new(1).with_u_topk(false);
    /// let plan = session.explain(&dataset, &query);
    /// assert_eq!(plan.path, ScanPath::MergedShards { shards: 2 });
    /// session.execute(&dataset, &query)?;
    /// # Ok::<(), ttk_uncertain::Error>(())
    /// ```
    pub fn shards<S: TupleSource + Send + 'static>(shards: Vec<S>) -> Self {
        let count = shards.len();
        let boxed: Vec<Box<dyn TupleSource + Send>> = shards
            .into_iter()
            .map(|s| Box::new(s) as Box<dyn TupleSource + Send>)
            .collect();
        Dataset {
            inner: Inner::Shards {
                slot: Mutex::new(Some(boxed)),
                count,
            },
            label: format!("shards({count})"),
            id: next_dataset_id(),
        }
    }

    /// Wraps a replayable generator closure: every open calls the closure for
    /// a fresh stream, so one dataset serves many queries (generators in this
    /// workspace are seeded and deterministic).
    ///
    /// ```
    /// use ttk_core::{Dataset, Session, TopkQuery};
    /// use ttk_uncertain::{SourceTuple, UncertainTuple, VecSource};
    ///
    /// let dataset = Dataset::generator(|| {
    ///     Ok(VecSource::new(vec![
    ///         SourceTuple::independent(UncertainTuple::new(1u64, 9.0, 0.5)?),
    ///         SourceTuple::independent(UncertainTuple::new(2u64, 7.0, 1.0)?),
    ///     ]))
    /// });
    /// let mut session = Session::new();
    /// let query = TopkQuery::new(1).with_u_topk(false);
    /// let first = session.execute(&dataset, &query)?;
    /// let second = session.execute(&dataset, &query)?; // replays
    /// assert_eq!(first.distribution, second.distribution);
    /// # Ok::<(), ttk_uncertain::Error>(())
    /// ```
    pub fn generator<F, S>(open: F) -> Self
    where
        F: Fn() -> Result<S> + Send + Sync + 'static,
        S: TupleSource + Send + 'static,
    {
        Dataset {
            inner: Inner::Provider(Box::new(FnProvider { open })),
            label: "generator".to_string(),
            id: next_dataset_id(),
        }
    }

    /// Wraps a custom [`DatasetProvider`] (e.g. the CSV datasets of
    /// `ttk-pdb`).
    pub fn from_provider(provider: impl DatasetProvider + 'static) -> Self {
        Dataset {
            inner: Inner::Provider(Box::new(provider)),
            label: "provider".to_string(),
            id: next_dataset_id(),
        }
    }

    /// Replaces the human-readable label used in plans and error messages.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// The human-readable label (file name, generator name, …).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The dataset's process-unique identity — what sessions key their
    /// observed scan depths by, and what a query-serving daemon keys its
    /// result cache by. Stable for the dataset's lifetime and never reused
    /// within a process, but **not** stable across processes.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The dataset's current epoch: `0` for every static kind, the sealed
    /// snapshot's watermark for a live provider. Part of the serving
    /// daemon's cache key, so appends invalidate cached answers.
    pub fn epoch(&self) -> u64 {
        match &self.inner {
            Inner::Provider(provider) => provider.epoch(),
            _ => 0,
        }
    }

    /// The dataset kind, for diagnostics.
    pub fn kind(&self) -> &'static str {
        match &self.inner {
            Inner::Table(_) => "in-memory table",
            Inner::Stream(_) => "single-pass stream",
            Inner::Shards { .. } => "single-pass shard set",
            Inner::Provider(_) => "provider",
        }
    }

    /// Opens a fresh scan over the dataset.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when a single-pass kind
    /// ([`Dataset::stream`] / [`Dataset::shards`]) has already been consumed,
    /// and propagates provider open failures.
    pub fn open(&self) -> Result<ScanHandle> {
        match &self.inner {
            Inner::Table(table) => Ok(ScanHandle::single(table.to_source())),
            Inner::Stream(slot) => slot
                .lock()
                .expect("dataset stream slot poisoned")
                .take()
                .map(ScanHandle::from_boxed)
                .ok_or_else(|| self.consumed_error()),
            Inner::Shards { slot, .. } => slot
                .lock()
                .expect("dataset shard slot poisoned")
                .take()
                .map(ScanHandle::merged)
                .ok_or_else(|| self.consumed_error()),
            Inner::Provider(provider) => provider.open(),
        }
    }

    /// Opens a fresh scan for a specific query: provider datasets receive
    /// the [`ScanSpec`] (remote datasets announce pushdown from it), every
    /// other kind behaves exactly like [`Dataset::open`].
    ///
    /// # Errors
    ///
    /// As [`Dataset::open`].
    pub fn open_for(&self, spec: &ScanSpec) -> Result<ScanHandle> {
        match &self.inner {
            Inner::Provider(provider) => provider.open_for(spec),
            _ => self.open(),
        }
    }

    fn consumed_error(&self) -> Error {
        Error::InvalidParameter(format!(
            "dataset `{}` ({}) was already consumed; single-pass datasets serve exactly \
             one query — use a replayable kind (table, CSV, generator) to run many",
            self.label,
            self.kind()
        ))
    }

    /// Describes how [`Dataset::open`] will scan, without opening.
    pub fn plan(&self) -> DatasetPlan {
        match &self.inner {
            Inner::Table(table) => DatasetPlan {
                path: ScanPath::InMemory,
                rows: Some(table.len()),
            },
            Inner::Stream(slot) => DatasetPlan {
                path: ScanPath::Stream,
                rows: slot
                    .lock()
                    .expect("dataset stream slot poisoned")
                    .as_ref()
                    .and_then(|s| s.size_hint()),
            },
            Inner::Shards { slot, count } => DatasetPlan {
                path: ScanPath::MergedShards { shards: *count },
                rows: slot
                    .lock()
                    .expect("dataset shard slot poisoned")
                    .as_ref()
                    .and_then(|shards| shards.iter().map(|s| s.size_hint()).sum()),
            },
            Inner::Provider(provider) => provider.plan(),
        }
    }

    /// Describes how [`Dataset::open_for`] will scan a query that does (or
    /// does not) drain the full stream, without opening.
    pub fn plan_for(&self, full_stream: bool) -> DatasetPlan {
        match &self.inner {
            Inner::Provider(provider) => provider.plan_for(full_stream),
            _ => self.plan(),
        }
    }

    /// The in-memory table behind this dataset, when it wraps one (used for
    /// the direct U-Topk path).
    fn as_table(&self) -> Option<&UncertainTable> {
        match &self.inner {
            Inner::Table(table) => Some(table),
            _ => None,
        }
    }
}

/// The executor-chosen plan for one (dataset, query) pair, as reported by
/// [`Session::explain`].
#[derive(Debug, Clone)]
pub struct PlanDescription {
    /// The dataset's label.
    pub dataset: String,
    /// The scan path execution will take.
    pub path: ScanPath,
    /// Number of tuples the scan could read, when known without opening.
    pub rows: Option<usize>,
    /// The distribution algorithm the query selects.
    pub algorithm: Algorithm,
    /// The query size k.
    pub k: usize,
    /// The probability threshold pτ driving the Theorem-2 bound.
    pub p_tau: f64,
    /// Heuristic estimate of the Theorem-2 scan depth (`None` when even an
    /// estimate is meaningless, e.g. an exhaustive scan of unknown size).
    pub estimated_depth: Option<usize>,
    /// The scan depth the session *observed* the last time it executed this
    /// `(dataset, k, pτ)` combination — the calibration signal for the cost
    /// model. `None` until the session has executed the query once.
    pub observed_depth: Option<usize>,
    /// Relative cost estimate used by the batch scheduler (bigger = run
    /// earlier under cost ordering).
    pub estimated_cost: f64,
    /// True when the query drains the full stream regardless of Theorem 2
    /// (U-Topk comparison requested, or the exhaustive algorithm).
    pub drains_stream: bool,
    /// Tuples that actually crossed the network the last time the session
    /// executed this `(dataset, k, pτ)` combination — the shipped-vs-scanned
    /// evidence for scan-gate pushdown. `None` for local datasets or before
    /// the first execution.
    pub observed_wire_tuples: Option<u64>,
    /// Columnar block frames that carried those wire tuples the last time
    /// this combination executed remotely — `None` for local datasets or
    /// before the first execution.
    pub observed_wire_blocks: Option<u64>,
    /// Tuples that arrived inside those block frames. Divide by
    /// [`observed_wire_blocks`] for the mean block fill, or use
    /// [`PlanDescription::mean_block_fill`].
    ///
    /// [`observed_wire_blocks`]: PlanDescription::observed_wire_blocks
    pub observed_wire_block_rows: Option<u64>,
    /// Whether a query-serving daemon answered this query from its result
    /// cache. `None` for local execution (there is no server-side cache);
    /// populated by the remote-query client path, where the server reports
    /// the outcome in its result header.
    pub server_cache_hit: Option<bool>,
    /// The dataset epoch this plan is pinned to: the live snapshot's
    /// watermark for live datasets (local or server-reported), `None` for
    /// static datasets.
    pub dataset_epoch: Option<u64>,
    /// The serving daemon's result-cache generation at answer time
    /// (advances whenever an append/seal invalidates cached epochs).
    /// `None` for local execution.
    pub server_cache_generation: Option<u64>,
    /// Sealed segments under the live snapshot this plan scans — local live
    /// datasets report their snapshot, servers report it in the result
    /// tail. `None` for static datasets.
    pub live_segments: Option<usize>,
    /// Epoch of the live log's most recent LSM-style compaction (`0` when it
    /// was never compacted). `None` for static datasets.
    pub last_compaction_epoch: Option<u64>,
}

impl PlanDescription {
    /// The cost model's drift for this plan: observed over estimated scan
    /// depth (1.0 = perfectly calibrated, above 1 = the heuristic
    /// underestimates). `None` until the session has both an estimate and an
    /// observation.
    pub fn observed_vs_estimated(&self) -> Option<f64> {
        let estimated = self.estimated_depth?;
        let observed = self.observed_depth?;
        Some(observed as f64 / estimated.max(1) as f64)
    }

    /// Mean tuples per columnar block frame observed on the wire. `None`
    /// until a remote execution has been observed, or when no block frames
    /// crossed at all.
    pub fn mean_block_fill(&self) -> Option<f64> {
        let blocks = self.observed_wire_blocks?;
        let tuples = self.observed_wire_block_rows?;
        (blocks > 0).then(|| tuples as f64 / blocks as f64)
    }
}

impl std::fmt::Display for PlanDescription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "dataset `{}`: {}", self.dataset, self.path)?;
        match self.rows {
            Some(rows) => writeln!(f, "  rows: {rows}")?,
            None => writeln!(f, "  rows: unknown until opened")?,
        }
        writeln!(
            f,
            "  query: algorithm {:?}, k = {}, p_tau = {:e}",
            self.algorithm, self.k, self.p_tau
        )?;
        match self.estimated_depth {
            Some(depth) => writeln!(f, "  estimated scan depth: {depth} tuples")?,
            None => writeln!(f, "  estimated scan depth: unknown")?,
        }
        if let Some(observed) = self.observed_depth {
            match self.observed_vs_estimated() {
                Some(drift) => writeln!(
                    f,
                    "  observed scan depth: {observed} tuples ({drift:.2}x estimated)"
                )?,
                None => writeln!(f, "  observed scan depth: {observed} tuples")?,
            }
        }
        if let Some(wire) = self.observed_wire_tuples {
            writeln!(f, "  observed wire tuples: {wire}")?;
            if let (Some(blocks), Some(fill)) = (self.observed_wire_blocks, self.mean_block_fill())
            {
                writeln!(
                    f,
                    "  observed wire blocks: {blocks} (mean fill {fill:.1} tuples)"
                )?;
            }
        }
        if let Some(hit) = self.server_cache_hit {
            writeln!(
                f,
                "  server result cache: {}",
                if hit { "hit" } else { "miss" }
            )?;
        }
        if let Some(epoch) = self.dataset_epoch {
            writeln!(f, "  dataset epoch: {epoch}")?;
        }
        if let Some(generation) = self.server_cache_generation {
            writeln!(f, "  server cache generation: {generation}")?;
        }
        if let Some(segments) = self.live_segments {
            writeln!(f, "  live segments: {segments}")?;
        }
        if let Some(compacted) = self.last_compaction_epoch {
            match compacted {
                0 => writeln!(f, "  last compaction: never")?,
                epoch => writeln!(f, "  last compaction: epoch {epoch}")?,
            }
        }
        writeln!(f, "  estimated cost: {:.0}", self.estimated_cost)?;
        write!(
            f,
            "  full stream drained: {}",
            if self.drains_stream {
                "yes (U-Topk comparison or exhaustive algorithm)"
            } else {
                "no (Theorem-2 bounded)"
            }
        )
    }
}

/// Heuristic estimate of the Theorem-2 scan depth for a `(k, pτ)` query over
/// a relation of `rows` tuples (when known).
///
/// The true depth depends on the data (Theorem 2 stops once the k-th largest
/// admitted group mass pushes the tail probability under pτ); this estimate
/// only needs to *order* jobs sensibly: it grows linearly in `k`,
/// logarithmically in `1/pτ`, and is clamped to the relation size.
pub fn estimated_scan_depth(k: usize, p_tau: f64, rows: Option<usize>) -> usize {
    let p = p_tau.clamp(1e-12, 1.0);
    let estimate = (k as f64 * (1.0 + (1.0 / p).ln())).ceil() as usize;
    let estimate = estimate.max(k);
    match rows {
        Some(rows) => estimate.min(rows),
        None => estimate,
    }
}

/// Relative cost estimate of one query: the batch scheduler's key (bigger =
/// scheduled earlier under [`BatchOrdering::CostDescending`]).
///
/// Scan depth × k approximates the DP work; queries that drain the full
/// stream (U-Topk requested, exhaustive algorithm) pay for the drain and the
/// full-table search on top.
pub fn estimated_cost(query: &TopkQuery, rows: Option<usize>) -> f64 {
    let depth = estimated_scan_depth(query.k, query.p_tau, rows);
    let k = query.k.max(1) as f64;
    let mut cost = depth as f64 * k;
    if query.compute_u_topk || query.algorithm == Algorithm::Exhaustive {
        cost += rows.unwrap_or(depth) as f64 * k;
    }
    cost
}

/// Indices `0..costs.len()` sorted by cost **descending**, ties broken by
/// submission order — the big-jobs-first schedule of
/// [`Session::execute_batch`].
///
/// Running expensive jobs first keeps the tail of a parallel batch short: a
/// big job submitted last no longer starts when everything else is done and
/// serializes the batch behind it.
pub fn cost_descending_order(costs: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| {
        costs[b]
            .partial_cmp(&costs[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    order
}

/// How [`Session::execute_batch`] orders its work queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchOrdering {
    /// Estimated-cost descending (big jobs first) — the default; see
    /// [`cost_descending_order`].
    #[default]
    CostDescending,
    /// Jobs run in submission order.
    Submission,
}

/// Options of a [`Session::execute_batch`] run.
#[derive(Debug, Clone, Default)]
pub struct BatchOptions {
    /// Worker threads (`0` = one per available CPU).
    pub threads: usize,
    /// Work-queue ordering (default: cost descending).
    pub ordering: BatchOrdering,
    /// Upper bound on finished-but-undelivered answers held in memory at
    /// once; `None` = unbounded (all results may be resident). See
    /// [`BatchOptions::max_resident_results`].
    pub max_resident: Option<usize>,
}

impl BatchOptions {
    /// Default options: auto thread count, cost-descending ordering,
    /// unbounded result memory.
    pub fn new() -> Self {
        BatchOptions::default()
    }

    /// Sets the worker thread count (`0` = one per available CPU).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the work-queue ordering.
    pub fn with_ordering(mut self, ordering: BatchOrdering) -> Self {
        self.ordering = ordering;
        self
    }

    /// Bounds how many finished answers may sit undelivered at once: workers
    /// block once `n` results are in flight, so a very large batch consumed
    /// through [`Session::execute_batch_with`] holds O(`n`) answers in memory
    /// instead of one per job.
    pub fn max_resident_results(mut self, n: usize) -> Self {
        self.max_resident = Some(n.max(1));
        self
    }
}

/// One job of a [`Session::execute_batch`]: a dataset reference plus the
/// query to run against it. Jobs are cheap to construct; many jobs may share
/// one replayable [`Dataset`].
#[derive(Debug, Clone, Copy)]
pub struct QueryJob<'a> {
    /// The dataset the query scans.
    pub dataset: &'a Dataset,
    /// The query parameters.
    pub query: TopkQuery,
}

impl<'a> QueryJob<'a> {
    /// Bundles a dataset and a query.
    pub fn new(dataset: &'a Dataset, query: TopkQuery) -> Self {
        QueryJob { dataset, query }
    }
}

/// A long-lived query session: one executor (scan and gate scratch reused
/// across queries) behind the three verbs of the unified API —
/// [`Session::execute`], [`Session::execute_batch`] and [`Session::explain`].
///
/// ```
/// use ttk_core::{BatchOptions, Dataset, QueryJob, Session, TopkQuery};
/// use ttk_uncertain::UncertainTable;
///
/// let table = UncertainTable::builder()
///     .tuple(1u64, 9.0, 0.5)?
///     .tuple(2u64, 7.0, 1.0)?
///     .tuple(3u64, 5.0, 0.8)?
///     .build()?;
/// let dataset = Dataset::table(table);
/// let jobs: Vec<QueryJob> = (1..=3)
///     .map(|k| QueryJob::new(&dataset, TopkQuery::new(k).with_u_topk(false)))
///     .collect();
/// let answers = Session::new().execute_batch(&jobs, &BatchOptions::new());
/// assert_eq!(answers.len(), 3);
/// assert!(answers.iter().all(|a| a.is_ok()));
/// # Ok::<(), ttk_uncertain::Error>(())
/// ```
#[derive(Debug, Default)]
pub struct Session {
    executor: Executor,
    /// Observed Theorem-2 scan depths keyed by `(dataset id, k, pτ bits)`
    /// — the calibration data [`Session::explain`] reports back as
    /// [`PlanDescription::observed_depth`]. Keyed by the dataset's
    /// process-unique id (not its label, which need not be unique), so two
    /// same-kind datasets never read each other's observations.
    observations: std::collections::HashMap<(u64, usize, u64), usize>,
    /// Observed wire traffic (same key), recorded when a dataset's scan
    /// crossed the network — reported back as
    /// [`PlanDescription::observed_wire_tuples`] and the block-transport
    /// fields next to it.
    wire_observations: std::collections::HashMap<(u64, usize, u64), WireObservation>,
}

/// What one remote execution put on the wire, as seen from the client:
/// total decoded tuples, and the block frames (and rows inside them) that
/// carried them.
#[derive(Debug, Clone, Copy)]
struct WireObservation {
    tuples: u64,
    blocks: u64,
    block_rows: u64,
}

/// The observation key of one `(dataset, query)` combination.
fn observation_key(dataset: &Dataset, query: &TopkQuery) -> (u64, usize, u64) {
    (dataset.id, query.k, query.p_tau.to_bits())
}

impl Session {
    /// Creates a session with empty scratch buffers.
    pub fn new() -> Self {
        Session::default()
    }

    /// Executes one query against a dataset.
    ///
    /// Table datasets run the direct path (U-Topk, when requested, runs over
    /// the table); every other kind opens into a [`ScanHandle`] and streams
    /// through the Theorem-2 gate, and U-Topk drains the rest of the stream.
    ///
    /// The observed scan depth is recorded per `(dataset, k, pτ)`, so a
    /// later [`Session::explain`] can report the cost model's drift
    /// ([`PlanDescription::observed_vs_estimated`]).
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors, dataset open failures
    /// (consumed single-pass datasets, provider I/O) and stream errors.
    pub fn execute(&mut self, dataset: &Dataset, query: &TopkQuery) -> Result<QueryAnswer> {
        let (answer, wire) = execute_on(&mut self.executor, dataset, query)?;
        let key = observation_key(dataset, query);
        self.observations.insert(key, answer.scan_depth);
        if let Some(wire) = wire {
            self.wire_observations.insert(key, wire);
        }
        Ok(answer)
    }

    /// Describes how [`Session::execute`] would run `query` against
    /// `dataset` — the chosen scan path, the row count when known, and the
    /// scheduler's depth/cost estimates — without opening or scanning
    /// anything.
    pub fn explain(&self, dataset: &Dataset, query: &TopkQuery) -> PlanDescription {
        let drains_stream = query.compute_u_topk || query.algorithm == Algorithm::Exhaustive;
        let plan = dataset.plan_for(drains_stream);
        let estimated_depth = match query.algorithm {
            Algorithm::Exhaustive => plan.rows,
            _ => Some(estimated_scan_depth(query.k, query.p_tau, plan.rows)),
        };
        let key = observation_key(dataset, query);
        let (dataset_epoch, live_segments, last_compaction_epoch) = match plan.path {
            ScanPath::Live {
                epoch,
                segments,
                compacted_epoch,
            } => (Some(epoch), Some(segments), Some(compacted_epoch)),
            _ => (None, None, None),
        };
        PlanDescription {
            dataset: dataset.label().to_string(),
            path: plan.path,
            rows: plan.rows,
            algorithm: query.algorithm,
            k: query.k,
            p_tau: query.p_tau,
            estimated_depth,
            observed_depth: self.observations.get(&key).copied(),
            estimated_cost: estimated_cost(query, plan.rows),
            drains_stream,
            observed_wire_tuples: self.wire_observations.get(&key).map(|w| w.tuples),
            observed_wire_blocks: self.wire_observations.get(&key).map(|w| w.blocks),
            observed_wire_block_rows: self.wire_observations.get(&key).map(|w| w.block_rows),
            server_cache_hit: None,
            dataset_epoch,
            server_cache_generation: None,
            live_segments,
            last_compaction_epoch,
        }
    }

    /// Executes a batch of independent jobs and returns the answers indexed
    /// like `jobs`.
    ///
    /// Workers claim jobs from a queue ordered by [`BatchOptions::ordering`]
    /// (estimated-cost descending by default, so a big job submitted last no
    /// longer serializes the tail); each worker owns one executor whose
    /// scratch buffers persist across the jobs it claims. Jobs are
    /// deterministic and independent, so the result vector is identical to
    /// sequential execution regardless of ordering or interleaving.
    pub fn execute_batch(
        &mut self,
        jobs: &[QueryJob<'_>],
        options: &BatchOptions,
    ) -> Vec<Result<QueryAnswer>> {
        let mut slots: Vec<Option<Result<QueryAnswer>>> = jobs.iter().map(|_| None).collect();
        self.execute_batch_with(jobs, options, |index, answer| slots[index] = Some(answer));
        slots
            .into_iter()
            .map(|slot| slot.expect("every batch job is claimed by exactly one worker"))
            .collect()
    }

    /// Executes a batch, delivering each answer through `sink(job_index,
    /// answer)` as it completes (completion order, not submission order) —
    /// the bounded-result-memory mode for very large batches.
    ///
    /// With [`BatchOptions::max_resident_results`] set to `n`, at most `n`
    /// finished answers are in flight between the workers and the sink at any
    /// moment: workers block on a bounded channel instead of accumulating a
    /// `Vec` of every answer. The sink runs on the calling thread.
    pub fn execute_batch_with(
        &mut self,
        jobs: &[QueryJob<'_>],
        options: &BatchOptions,
        sink: impl FnMut(usize, Result<QueryAnswer>),
    ) {
        let order = match options.ordering {
            BatchOrdering::Submission => (0..jobs.len()).collect(),
            BatchOrdering::CostDescending => {
                let costs: Vec<f64> = jobs
                    .iter()
                    .map(|job| estimated_cost(&job.query, job.dataset.plan().rows))
                    .collect();
                cost_descending_order(&costs)
            }
        };
        let capacity = options.max_resident.unwrap_or(jobs.len());
        let Session {
            executor,
            observations,
            wire_observations,
        } = self;
        let mut sink = sink;
        fan_out(
            jobs.len(),
            options.threads,
            order,
            capacity,
            executor,
            |index, executor| execute_on(executor, jobs[index].dataset, &jobs[index].query),
            |index, answer: Result<(QueryAnswer, Option<WireObservation>)>| {
                let answer = answer.map(|(answer, wire)| {
                    let key = observation_key(jobs[index].dataset, &jobs[index].query);
                    observations.insert(key, answer.scan_depth);
                    if let Some(wire) = wire {
                        wire_observations.insert(key, wire);
                    }
                    answer
                });
                sink(index, answer);
            },
        );
    }
}

/// Runs one query against a dataset with the given executor — the shared
/// kernel of [`Session::execute`] and the batch workers. Alongside the
/// answer it reports how many tuples crossed the network (`None` for local
/// datasets), so callers can record the pushdown evidence.
fn execute_on(
    executor: &mut Executor,
    dataset: &Dataset,
    query: &TopkQuery,
) -> Result<(QueryAnswer, Option<WireObservation>)> {
    match dataset.as_table() {
        Some(table) => executor
            .run(&mut TableSource::new(table), query, Some(table), None)
            .map(|answer| (answer, None)),
        None => {
            let spec = ScanSpec::for_query(query);
            let mut handle = dataset.open_for(&spec)?;
            let stats = handle.wire_stats().cloned();
            let answer = executor.run(&mut handle, query, None, Some(spec.meter.clone()))?;
            let observation = stats.map(|stats| WireObservation {
                tuples: stats.tuples_received(),
                blocks: stats.blocks_received(),
                block_rows: stats.block_rows_received(),
            });
            Ok((answer, observation))
        }
    }
}

/// The shared parallel fan-out engine: claims indices from `order` on a pool
/// of `threads` workers (each owning one executor), runs `work` per
/// index, and delivers `(index, answer)` pairs to `sink` on the calling
/// thread through a channel bounded to `capacity` in-flight results.
///
/// Sequential when `threads <= 1` or there is at most one job — that path
/// runs on `seq_executor` so a long-lived caller (the [`Session`]) keeps its
/// warm scratch buffers.
pub(crate) fn fan_out<A, W, S>(
    total: usize,
    threads: usize,
    order: Vec<usize>,
    capacity: usize,
    seq_executor: &mut Executor,
    work: W,
    mut sink: S,
) where
    A: Send,
    W: Fn(usize, &mut Executor) -> Result<A> + Sync,
    S: FnMut(usize, Result<A>),
{
    let threads = resolve_threads(threads, total);
    if threads <= 1 || total <= 1 {
        for index in order {
            let answer = work(index, seq_executor);
            sink(index, answer);
        }
        return;
    }

    let cursor = AtomicUsize::new(0);
    let (sender, receiver) = sync_channel::<(usize, Result<A>)>(capacity.max(1));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let sender = sender.clone();
            let cursor = &cursor;
            let order = &order;
            let work = &work;
            scope.spawn(move || {
                let mut executor = Executor::batch_worker();
                loop {
                    let slot = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&index) = order.get(slot) else { break };
                    let answer = work(index, &mut executor);
                    if sender.send((index, answer)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(sender);
        for (index, answer) in receiver {
            sink(index, answer);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttk_uncertain::{SourceTuple, UncertainTuple, VecSource};

    fn small_table() -> UncertainTable {
        UncertainTable::builder()
            .tuple(1u64, 49.0, 0.4)
            .unwrap()
            .tuple(2u64, 60.0, 0.4)
            .unwrap()
            .tuple(3u64, 110.0, 0.4)
            .unwrap()
            .tuple(4u64, 80.0, 0.3)
            .unwrap()
            .tuple(5u64, 56.0, 1.0)
            .unwrap()
            .me_rule([2u64, 4])
            .build()
            .unwrap()
    }

    fn stream_of(table: &UncertainTable) -> VecSource {
        table.to_source()
    }

    #[test]
    fn table_dataset_is_replayable_and_plans_in_memory() {
        let dataset = Dataset::table(small_table());
        let mut session = Session::new();
        let query = TopkQuery::new(2).with_u_topk(false);
        let a = session.execute(&dataset, &query).unwrap();
        let b = session.execute(&dataset, &query).unwrap();
        assert_eq!(a.distribution, b.distribution);
        let plan = session.explain(&dataset, &query);
        assert_eq!(plan.path, ScanPath::InMemory);
        assert_eq!(plan.rows, Some(5));
        assert!(!plan.drains_stream);
        assert!(plan.estimated_cost > 0.0);
    }

    #[test]
    fn stream_dataset_is_single_pass_with_a_clear_error() {
        let table = small_table();
        let dataset = Dataset::stream(stream_of(&table)).with_label("demo-stream");
        let query = TopkQuery::new(2).with_u_topk(false);
        let mut session = Session::new();
        assert!(session.execute(&dataset, &query).is_ok());
        let err = session.execute(&dataset, &query).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("demo-stream"), "{message}");
        assert!(message.contains("already consumed"), "{message}");
    }

    #[test]
    fn shards_dataset_plans_a_merge() {
        let table = small_table();
        let shards = ttk_uncertain::partition_round_robin(stream_of(&table), 2).unwrap();
        let dataset = Dataset::shards(shards);
        let plan = dataset.plan();
        assert_eq!(plan.path, ScanPath::MergedShards { shards: 2 });
        assert_eq!(plan.rows, Some(5));
        let query = TopkQuery::new(2).with_u_topk(false);
        Session::new().execute(&dataset, &query).unwrap();
        // Consumed: the plan no longer knows the rows, opening fails.
        assert_eq!(dataset.plan().rows, None);
        assert!(dataset.open().is_err());
    }

    #[test]
    fn generator_dataset_replays() {
        let dataset = Dataset::generator(|| {
            Ok(VecSource::new(vec![
                SourceTuple::independent(UncertainTuple::new(1u64, 9.0, 0.5)?),
                SourceTuple::independent(UncertainTuple::new(2u64, 7.0, 1.0)?),
            ]))
        });
        let query = TopkQuery::new(1).with_u_topk(false);
        let mut session = Session::new();
        let a = session.execute(&dataset, &query).unwrap();
        let b = session.execute(&dataset, &query).unwrap();
        assert_eq!(a.distribution, b.distribution);
        assert_eq!(session.explain(&dataset, &query).path, ScanPath::Stream);
    }

    #[test]
    fn cost_order_puts_big_jobs_first() {
        // Pathological big-last submission: the most expensive job is last.
        let costs = [1.0, 2.0, 1.5, 100.0];
        assert_eq!(cost_descending_order(&costs), vec![3, 1, 2, 0]);
        // Ties keep submission order (deterministic schedule).
        assert_eq!(cost_descending_order(&[5.0, 5.0, 1.0]), vec![0, 1, 2]);
        assert_eq!(cost_descending_order(&[]), Vec::<usize>::new());
    }

    #[test]
    fn estimates_grow_with_k_and_shrink_with_p_tau() {
        assert!(estimated_scan_depth(10, 1e-3, None) > estimated_scan_depth(2, 1e-3, None));
        assert!(estimated_scan_depth(5, 1e-6, None) > estimated_scan_depth(5, 1e-2, None));
        assert_eq!(estimated_scan_depth(5, 1e-3, Some(3)), 3);
        // Degenerate pτ values do not panic and keep at least k.
        assert!(estimated_scan_depth(4, 0.0, None) >= 4);
        assert!(estimated_scan_depth(4, 5.0, Some(1000)) >= 4);
        // Draining queries cost more than bounded ones.
        let bounded = TopkQuery::new(3).with_u_topk(false);
        let draining = TopkQuery::new(3);
        assert!(estimated_cost(&draining, Some(500)) > estimated_cost(&bounded, Some(500)));
    }

    #[test]
    fn batch_matches_sequential_for_both_orderings() {
        let dataset = Dataset::table(small_table());
        let jobs: Vec<QueryJob> = (1..=4)
            .map(|k| QueryJob::new(&dataset, TopkQuery::new(k).with_u_topk(false)))
            .collect();
        let mut session = Session::new();
        let sequential = session.execute_batch(&jobs, &BatchOptions::new().with_threads(1));
        for ordering in [BatchOrdering::CostDescending, BatchOrdering::Submission] {
            let parallel = session.execute_batch(
                &jobs,
                &BatchOptions::new().with_threads(3).with_ordering(ordering),
            );
            for (a, b) in sequential.iter().zip(&parallel) {
                match (a, b) {
                    (Ok(a), Ok(b)) => assert_eq!(a.distribution, b.distribution),
                    (a, b) => panic!("batch paths disagree: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn explain_displays_every_field() {
        let dataset = Dataset::table(small_table()).with_label("soldier-demo");
        let plan = Session::new().explain(&dataset, &TopkQuery::new(2));
        let text = plan.to_string();
        assert!(text.contains("soldier-demo"), "{text}");
        assert!(text.contains("in-memory"), "{text}");
        assert!(text.contains("estimated scan depth"), "{text}");
        assert!(text.contains("drained: yes"), "{text}");
    }
}
