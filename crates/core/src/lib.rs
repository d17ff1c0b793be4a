//! # ttk-core — score distributions and typical answers for top-k queries on uncertain data
//!
//! This crate implements the algorithms of *Top-k Queries on Uncertain Data:
//! On Score Distribution and Typical Answers* (Ge, Zdonik, Madden — SIGMOD
//! 2009) on top of the [`ttk_uncertain`] data model:
//!
//! * [`mod@scan_depth`] — the Theorem-2 stopping condition bounding how many
//!   rank-ordered tuples any algorithm must read, both as a batch formula
//!   and as the incremental [`ScanGate`] consulted per streamed tuple.
//! * [`scan`] — the streaming rank-scan executor: pulls a
//!   [`TupleSource`](ttk_uncertain::TupleSource) through the gate and
//!   assembles the Theorem-2 prefix no algorithm ever reads past.
//! * [`dp`] — the main dynamic-programming algorithm for the top-k score
//!   distribution, with line coalescing (§3.2.1), mutual-exclusion handling
//!   via rule tuples and lead-tuple regions (§3.3), and score ties (§3.4).
//! * [`mod@state_expansion`] / [`mod@k_combo`] — the two naive baselines of §3.1.
//! * [`typical`] — the c-Typical-Topk selection dynamic program of §4.
//! * [`baselines`] — the comparator semantics U-Topk, U-kRanks and PT-k, and
//!   exhaustive possible-world ground truth.
//! * [`session`] — the unified execution API: a [`Dataset`] abstracts every
//!   physical input (in-memory table, owned stream, shard set, CSV via
//!   `ttk-pdb`, generator closure, remote shard servers) behind one
//!   `open()`, and a [`Session`] exposes exactly three verbs — `execute`,
//!   `execute_batch` (cost-ordered, optionally bounded-result-memory) and
//!   `explain` (now with observed-vs-estimated scan-depth drift).
//! * [`remote`] — [`RemoteShardDataset`]: shard streams decoded from other
//!   processes over the wire protocol of `ttk-uncertain`, merged (optionally
//!   together with local shards) into one scan pulled on the scanning
//!   thread; each connection announces the query so servers ship only the
//!   Theorem-2 prefix.
//! * [`serve`] — the server side of scan-gate pushdown: [`serve_stream`]
//!   reads a connection's scan announcement and replays a shard through the
//!   conservative [`ShardScanGate`] bound.
//! * [`daemon`] — the shared daemon runtime all three serving binaries run
//!   on: listener setup with atomic port files, the blocking accept loop
//!   and its drain watcher, a bounded worker pool with rendezvous handoff, saturation
//!   shedding, write-timeout stall protection, and signal/handler-requested
//!   draining — behind one small [`ConnectionHandler`] trait.
//! * [`registry`] — the state a query-serving daemon keeps resident: the
//!   named, `Arc`-shared [`DatasetRegistry`] and the sharded LRU
//!   [`ResultCache`] keyed on the full query shape ([`CacheKey`]),
//!   epoch-stamped so live appends invalidate cached answers.
//! * [`mod@query_serve`] — query serving itself: [`serve_client`] answers one
//!   connection from the registry/cache (queries, appends, standing
//!   subscriptions), [`RemoteQueryClient`] ships whole queries to a
//!   `ttk serve` daemon and decodes bit-identical answers.
//! * [`live`] — growing datasets: an [`AppendLog`] staging out-of-order
//!   appends and sealing them into immutable rank-ordered segments under
//!   epoch-numbered watermarked snapshots; [`LiveDataset`] opens any
//!   snapshot as a plain merged scan, so every other layer works unchanged.
//! * [`query`] — the query model ([`TopkQuery`], [`QueryAnswer`]) and the
//!   execution engine each session and batch worker owns.
//!
//! ## Quick start
//!
//! ```
//! use ttk_core::{Dataset, Session, TopkQuery};
//! use ttk_uncertain::UncertainTable;
//!
//! // The soldier-monitoring example of the paper (Figure 1).
//! let table = UncertainTable::builder()
//!     .tuple(1u64, 49.0, 0.4)?
//!     .tuple(2u64, 60.0, 0.4)?
//!     .tuple(3u64, 110.0, 0.4)?
//!     .tuple(4u64, 80.0, 0.3)?
//!     .tuple(5u64, 56.0, 1.0)?
//!     .tuple(6u64, 58.0, 0.5)?
//!     .tuple(7u64, 125.0, 0.3)?
//!     .me_rule([2u64, 4, 7])
//!     .me_rule([3u64, 6])
//!     .build()?;
//!
//! let dataset = Dataset::table(table);
//! let mut session = Session::new();
//! let query = TopkQuery::new(2).with_p_tau(1e-9).with_max_lines(0);
//! let answer = session.execute(&dataset, &query)?;
//! // The U-Top2 answer has score 118, far below the expected top-2 score.
//! assert!((answer.expected_score() - 164.1).abs() < 0.05);
//! assert_eq!(answer.typical.scores(), vec![118.0, 183.0, 235.0]);
//! # Ok::<(), ttk_uncertain::Error>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod daemon;
pub mod dp;
pub mod k_combo;
pub mod live;
pub mod query;
pub mod query_serve;
pub mod registry;
pub mod remote;
pub mod scan;
pub mod scan_depth;
pub mod serve;
pub mod session;
pub mod state_expansion;
pub mod typical;

pub use baselines::{u_topk, UTopkAnswer, UTopkConfig};
pub use daemon::{
    bind_daemon_listener, run_daemon, write_file_atomically, ConnectionHandler, DaemonControl,
    DaemonOptions, DaemonReport, DrainReason, ShedPolicy,
};
pub use dp::{topk_score_distribution, MainConfig, MainOutput, MeStrategy};
pub use k_combo::k_combo;
pub use live::{AppendLog, AppendOutcome, LiveDataset, LiveSnapshot, SubscriberGuard};
pub use query::{Algorithm, QueryAnswer, TopkQuery};
pub use query_serve::{
    answer_from_wire, answer_hash, answer_to_wire, query_from_request, request_for, serve_client,
    AppendServeSummary, QueryServeOptions, QueryServeSummary, RemoteAnswer, RemoteQueryClient,
    ServeOutcome, SubscriptionSummary, WatchClient, WatchPush,
};
pub use registry::{CacheKey, DatasetImporter, DatasetLoader, DatasetRegistry, ResultCache};
pub use remote::{ConnectOptions, RemoteShardDataset};
pub use scan::{RankScan, ScanPrefix, FIRST_BLOCK_TUPLES, MAX_BLOCK_TUPLES};
pub use scan_depth::{scan_depth, stopping_threshold, GateMeter, ScanGate, ShardScanGate};
pub use serve::{serve_stream, ServeOptions, ServeSummary, StopReason};
pub use session::{
    cost_descending_order, estimated_cost, estimated_scan_depth, BatchOptions, BatchOrdering,
    Dataset, DatasetPlan, DatasetProvider, PlanDescription, QueryJob, ScanPath, ScanSpec, Session,
};
pub use state_expansion::{state_expansion, BaselineOutput, NaiveConfig};
pub use typical::{typical_topk, typical_topk_brute_force, TypicalAnswer, TypicalSelection};

// Re-export the data model so downstream users need a single dependency.
pub use ttk_uncertain as uncertain;
