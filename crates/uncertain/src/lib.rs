//! # ttk-uncertain — the uncertain-relation data model substrate
//!
//! This crate implements the tuple-independent / disjoint ("x-relation") data
//! model used by *Top-k Queries on Uncertain Data: On Score Distribution and
//! Typical Answers* (Ge, Zdonik, Madden — SIGMOD 2009) and by the wider
//! probabilistic-database literature it builds on:
//!
//! * [`UncertainTuple`] — a tuple id, a ranking score, and a membership
//!   probability in `(0, 1]`.
//! * [`UncertainTable`] — a rank-ordered collection of uncertain tuples plus
//!   *mutual-exclusion (ME) groups*: at most one member of a group can exist
//!   in a possible world. Tie groups, lead tuples and lead-tuple regions
//!   (needed by the algorithms of `ttk-core`) are derived here.
//! * [`PossibleWorlds`] — exhaustive possible-world enumeration and the exact
//!   top-k score distribution, used as ground truth in tests and examples.
//! * [`ScoreDistribution`] — the PMF over top-k total scores, with the line
//!   coalescing approximation, histogram views at any bucket width, moments,
//!   quantiles and distance measures.
//! * [`TopkVector`] — a concrete k-tuple answer with its total score and
//!   probability.
//! * [`TupleSource`] — a rank-ordered streaming view of uncertain tuples
//!   (with ME-group metadata) that lets the `ttk-core` scan executor stop at
//!   the Theorem-2 bound without ever materializing a full table. Batched
//!   pulls move columnar [`TupleBlock`]s (structure-of-arrays id/score/
//!   probability/group columns) through the same seam, amortizing dispatch,
//!   channel, and framing overhead.
//! * [`MergeSource`] — a loser-tree k-way merge fusing per-shard rank-ordered
//!   sources into one stream, so a scan can span partitions (shard files,
//!   external-sort spill runs) while reading at most one look-ahead tuple
//!   per shard.
//! * [`TupleFeed`] — the consumer side of a bounded tuple channel: any
//!   source can run on its own producer thread (or process) while the
//!   consumer still pulls a plain [`TupleSource`]; [`PrefetchPolicy`] uses
//!   it to overlap per-shard I/O with the merge.
//! * [`wire`] — a framed binary codec for [`SourceTuple`] streams over any
//!   `Read`/`Write` (raw IEEE-754 bits, length-prefixed frames), so one
//!   scan can span processes and machines.
//! * [`ScanHandle`] — the uniform opened-input type: a single stream or a
//!   merged shard set (optionally prefetched per shard) behind one owned
//!   [`TupleSource`], produced by the `Dataset` abstraction in `ttk-core`
//!   and by custom dataset providers.
//!
//! The production algorithms that *compute* score distributions and
//! c-Typical-Topk answers live in the `ttk-core` crate; this crate is the
//! model they operate on.
//!
//! ## Example
//!
//! ```
//! use ttk_uncertain::{UncertainTable, worlds};
//!
//! // Two sensors disagree about one object (mutually exclusive readings),
//! // plus an independent reading from another object.
//! let table = UncertainTable::builder()
//!     .tuple(1u64, 10.0, 0.6)?
//!     .tuple(2u64, 8.0, 0.4)?
//!     .tuple(3u64, 9.0, 0.7)?
//!     .me_rule([1u64, 2u64])
//!     .build()?;
//!
//! let dist = worlds::exact_topk_score_distribution(&table, 2, 1_000)?;
//! assert!(dist.total_probability() <= 1.0);
//! # Ok::<(), ttk_uncertain::Error>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod feed;
pub mod handle;
pub mod merge;
pub mod pmf;
pub mod probability;
pub mod source;
pub mod table;
pub mod tuple;
pub mod vector;
pub mod wire;
pub mod worlds;

pub use error::{Error, Result};
pub use feed::{FeedSender, PrefetchPolicy, TupleFeed};
pub use handle::ScanHandle;
pub use merge::{partition_round_robin, MergeSource};
pub use pmf::{
    scores_equal, CoalescePolicy, DistributionPoint, Histogram, ScoreDistribution, VectorWitness,
};
pub use probability::{Probability, PROBABILITY_EPSILON};
pub use source::{
    CountingSource, GroupKey, PullCounter, SourceTuple, TableSource, TupleBlock, TupleSource,
    VecSource,
};
pub use table::{UncertainTable, UncertainTableBuilder};
pub use tuple::{TupleId, UncertainTuple};
pub use vector::TopkVector;
pub use wire::{
    AppendAck, AppendRequest, ClientRequest, Hello, LeaseRegistry, Notification, PushdownQuery,
    QueryRequest, QueryResult, ShardAssignment, StoppedAt, SubscribeRequest, WireReader,
    WireScanStats, WireTypical, WireUTopk, WireWriter,
};
pub use worlds::{exact_topk_score_distribution, world_count, PossibleWorld, PossibleWorlds};
