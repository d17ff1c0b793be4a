//! The paper's main algorithm: dynamic programming for the top-k score
//! distribution (§3.2), extended to mutual-exclusion groups (§3.3) and score
//! ties (§3.4).
//!
//! The module is split into the mechanical recurrence ([`engine`]) and the
//! driver in this file, which
//!
//! 1. streams the rank-ordered tuples through the Theorem-2 [`ScanGate`]
//!    ([`crate::scan`]), so the dynamic program only ever sees the prefix it
//!    is allowed to read,
//! 2. decomposes the (rank-ordered) tuples into *ending segments* — maximal
//!    lead-tuple regions and individual non-lead tuples (§3.3.3),
//! 3. lists the rows each segment's program applies above its tuples: a
//!    group whose last member ranks above the segment's start is *closed*
//!    and applies as one whole row (a *rule tuple* of its members, §3.3.1,
//!    or a simple row for a singleton); a group with members on both sides
//!    of the start is *open* and applies the row of its members above the
//!    start. A single non-lead ending tuple's own group gets no row: its
//!    members above it are absent whenever it exists. Every such row is
//!    live on one contiguous run of segments (a closed group from the
//!    segment after its last member to the end; an open row while the same
//!    members rank above the start),
//! 4. hangs each row on the nodes of a binary tree over the segments that
//!    cover its run — the offline "segment tree over time" — and walks the
//!    tree depth first from the unit state: a node applies its rows, a
//!    leaf runs its segment's tuples as the only exit rows (§3.3.2),
//! 5. merges the segments' distributions in segment order.
//!
//! A leaf sees exactly the rows the paper's per-ending program builds for
//! its segment, so the distribution is the paper's; what the tree saves is
//! applying a row once per node that holds it instead of once per segment
//! it is live on. On the CarTel relations of seed 9 that is 374 rows
//! instead of 873 (199 rows, k = 5) and 605 instead of 1,069 (1,971 rows,
//! k = 10), tuple rows included. The float sums and the coalescing run in a
//! different order than one bottom-up program per segment would, so
//! coalesced outputs differ from that order's in the last bits (and, under
//! the paper's plain-mean coalescing, in the expected score by a fraction
//! of a percent); `tests/dp_parity.rs` holds the two within those bounds.
//!
//! On a table without mutual exclusion the decomposition degenerates to a
//! single segment spanning all tuples, i.e. exactly the basic algorithm of
//! §3.2.
//!
//! # The tree
//!
//! *Shapes.* The plan counts the rows both shapes would apply and walks the
//! one that applies fewer, the balanced one on a tie. The *balanced* tree
//! halves a node's segments, so a run hangs on O(log S) nodes. The *comb*
//! splits off the node's first segment, so the node over segments `i..S`
//! holds the groups that close just above segment `i` and every leaf holds
//! its open rows: that is one forward pass that folds each closed group
//! once and re-applies the open rows per segment, bit for bit (the walk
//! that preceded the tree). It wins where most runs are closed groups,
//! which reach the last segment: the comb hangs each on one node, the
//! balanced tree on up to log₂ S. The tables of Figure 11
//! (`fig11_me_portion`: 1,000 synthetic tuples, ME groups of 2–3 members
//! 1–8 ranks apart, k = 20) walk the comb. At ME portions 0.1, 0.3 and 0.5
//! it applies 166, 207 and 238 rows to the balanced tree's 242, 288 and
//! 322, and took 38, 48 and 53 ms to the balanced tree's 52, 69 and 86 ms
//! on one worker, 22, 29 and 39 ms to 32, 43 and 46 ms on two (release,
//! 2 vCPUs, medians of 6 alternated rounds of 11 calls; the comb was ahead
//! in all 36 rounds). The CarTel relations of seed 9 at k = 3, 5 and 10
//! and the synthetic tables of Figures 13–16 at k = 10 walk the balanced
//! tree.
//!
//! *Row order.* A node applies its closed groups by last member, then its
//! open rows by their group's first member, and the walk applies nodes
//! root first. Every order is a rank order: group numbers never decide
//! one, because the streamed prefix and a truncated table number groups
//! differently and must give the same bits. A leaf's rows reach it in an
//! order that depends only on the tree, never on the worker that walks it.
//!
//! *Walking it.* A worker keeps one [`Forward`](engine) state. Before a
//! left child it saves its `k` cells and restores them after, so a right
//! child starts from its parent's cells; the saved states' witness chains
//! survive the arena's compactions.
//!
//! # Segment workers
//!
//! The workers share the one tree. At the top two levels, and whenever a
//! worker waits with no subtree queued for it, a worker hands one child of
//! a node to a shared queue instead of saving its cells, with an exact
//! copy of them (every line's score, probability, witness probability and
//! ids, re-rooted in the taker's arena), and walks the other: it hands off
//! the right subtree, or the left child when that is a leaf beside three
//! or more segments (a comb's spine). Idle workers take queued subtrees;
//! the calling thread is one of the workers. A copy changes no bit, so
//! every leaf computes the same distribution whichever worker walks it and
//! however many copies its cells went through.
//!
//! *On the comb* every left child is a leaf, so one worker walks the spine
//! and, whenever the other waits, hands it the next leaf with a copy of
//! the cells. On the Figure 11 tables above, two workers took 22–39 ms,
//! against one worker's 38–53 ms and the forward pass's 28–38 ms on two;
//! without the handoff to a waiting worker they took 33–49 ms (same runs).
//! With witnesses tracked (200 lines) the copies cost more: 57, 82 and
//! 98 ms against the forward pass's 69, 83 and 85 ms.
//!
//! *Merge order.* Each worker appends its leaves' results to a flat store
//! of its own, and they are merged in segment order — the plain union,
//! then coalescing when lines are bounded — on columns whose witnesses
//! point into those stores, with the kernels and the coalescer the cells
//! use. That is `merge_from` then [`ScoreDistribution::coalesce`] on each
//! segment's distribution, bit for bit, without building one. Ids are
//! walked out only for the final lines; lines of mass 0 are dropped there,
//! with or without witnesses, and each witness's ids are sorted into table
//! rank order. Which worker ran a segment, and when, never reaches the
//! arithmetic, so the output depends only on the plan: it is bit-identical
//! for every worker count.
//!
//! *When helpers start.* Only when the work, rows applied × k, reaches
//! 1,200 cells, and never for a query a batch worker runs (the batch
//! already occupies the cores). Measured on the tree with release builds
//! on 2 vCPUs, one worker against two, as the best of 9 in each of 3
//! alternated runs, on the CarTel relations of seed 9 (199 and 1,971
//! rows) and seed 42 (103 rows):
//!
//! - Below the cutoff sit every k ≤ 3 query, the serving workloads' DPs
//!   among them, which stay on the calling thread. A helper loses at
//!   k = 2 (490–604 cells, e.g. 0.03 → 0.06–0.08 ms) and at k = 3 on the
//!   199- and 103-row relations (876 cells 0.18–0.19 → 0.23–0.25 ms, 858
//!   cells 0.21–0.23 → 0.23–0.24 ms), and is even at best on the 1,971-row
//!   relation (1,065 cells 1.13–1.15 → 1.16–1.32 ms), where it would bring
//!   its own state and thread into a daemon's or a shard client's process.
//! - From k = 4 on, at 1,284 cells and more, two workers save 20–50 %:
//!   1,284 cells (103 rows, k = 4) 0.75–0.77 → 0.57–0.62 ms, 1,332 cells
//!   (199 rows, k = 4) 1.29–1.33 → 0.93–1.01 ms, 1,870 cells (199 rows,
//!   k = 5) 4.3–5.7 → 2.8–3.2 ms, 1,980 cells (1,971 rows, k = 5) 6.5–7.0
//!   → 4.4–4.5 ms, 6,050 cells (1,971 rows, k = 10) 87–97 → 47–49 ms.
//! - A one-segment plan has no subtree to share and runs on one worker.

mod columns;
pub mod engine;

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use ttk_uncertain::{
    CoalescePolicy, Error, Result, ScoreDistribution, TableSource, UncertainTable,
};

use crate::query::resolve_threads;
use crate::scan::{RankScan, ScanPrefix};
use crate::scan_depth::ScanGate;
use columns::{merge_segments, Finished, Span};
use engine::{Branch, EngineConfig, Exported, Forward};

/// Engine work — rows the walk applies × k — from which
/// [`topk_from_prefix`] starts helper workers (the measurements behind
/// it are in the module doc).
const PARALLEL_MIN_CELLS: usize = 1_200;

/// How the driver decomposes a table with ME groups into per-ending dynamic
/// programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MeStrategy {
    /// One ending segment per maximal lead-tuple region plus one per
    /// non-lead tuple (§3.3.3), the refinement the paper recommends. Each
    /// row costs O(k) cells and applies once per tree node it hangs on —
    /// toward the paper's O(k·m·n), where m is the number of ME-correlated
    /// tuples.
    #[default]
    LeadRegions,
    /// One ending segment per candidate ending tuple (the "simple
    /// extension" of §3.3.2). More segments hold more runs of open rows,
    /// so it applies more rows than [`LeadRegions`](Self::LeadRegions)
    /// (one bottom-up program per tuple would cost O(k·n²)); a useful
    /// correctness oracle and ablation baseline.
    PerEnding,
}

/// Configuration of the main algorithm.
#[derive(Debug, Clone, Copy)]
pub struct MainConfig {
    /// Probability threshold pτ: top-k vectors with probability below this
    /// may be ignored. Controls the scan depth (Theorem 2).
    pub p_tau: f64,
    /// Maximum number of lines kept in any distribution (`c'`, §3.2.1).
    /// Zero keeps every line (exact but potentially exponential output).
    pub max_lines: usize,
    /// How coalesced lines are combined.
    pub coalesce_policy: CoalescePolicy,
    /// Whether witness vectors are tracked (required for c-Typical-Topk).
    pub track_witnesses: bool,
    /// ME-group decomposition strategy.
    pub me_strategy: MeStrategy,
}

impl Default for MainConfig {
    fn default() -> Self {
        MainConfig {
            p_tau: 1e-3,
            max_lines: 200,
            coalesce_policy: CoalescePolicy::PaperMean,
            track_witnesses: true,
            me_strategy: MeStrategy::LeadRegions,
        }
    }
}

/// Result of the main algorithm, with some execution statistics.
#[derive(Debug, Clone)]
pub struct MainOutput {
    /// The (possibly coalesced) score distribution of top-k vectors.
    pub distribution: ScoreDistribution,
    /// Scan depth n actually used (Theorem 2).
    pub scan_depth: usize,
    /// Number of ending segments (§3.3.3): the leaves of the walk's tree.
    pub segments: usize,
    /// Rows the walk applied: each group row once per tree node it hangs
    /// on, and every segment's tuples. It comes from the plan, so it does
    /// not depend on the worker count.
    pub rows_applied: usize,
}

/// Runs the main dynamic-programming algorithm and returns the top-k score
/// distribution, streaming the table through the rank-scan executor so it
/// reads at most one tuple past the Theorem-2 bound.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `k == 0` or the probability
/// threshold is outside `(0, 1)`.
pub fn topk_score_distribution(
    table: &UncertainTable,
    k: usize,
    config: &MainConfig,
) -> Result<MainOutput> {
    if k == 0 {
        return Err(Error::InvalidParameter("k must be at least 1".into()));
    }
    let mut gate = ScanGate::new(k, config.p_tau)?;
    let prefix = RankScan::new().collect_prefix(&mut TableSource::new(table), &mut gate)?;
    topk_from_prefix(&prefix, k, config, 0)
}

/// Runs the main algorithm over an already-collected scan prefix on at
/// most `max_workers` workers (0 = one per available core).
/// Shared by [`topk_score_distribution`] and the query executor.
pub(crate) fn topk_from_prefix(
    prefix: &ScanPrefix,
    k: usize,
    config: &MainConfig,
    max_workers: usize,
) -> Result<MainOutput> {
    let working = &prefix.table;
    let depth = prefix.depth();
    if working.len() < k {
        // No possible world can contain k tuples from the considered prefix;
        // with a sensible pτ this only happens when the full table itself has
        // fewer than k tuples.
        return Ok(MainOutput {
            distribution: ScoreDistribution::empty(),
            scan_depth: depth,
            segments: 0,
            rows_applied: 0,
        });
    }

    let engine_config = EngineConfig {
        max_lines: config.max_lines,
        coalesce_policy: config.coalesce_policy,
        track_witnesses: config.track_witnesses,
    };

    let plan = Plan::new(working, k, config.me_strategy);
    let workers = if plan.rows_applied() * k < PARALLEL_MIN_CELLS {
        1
    } else {
        resolve_threads(max_workers, plan.segments.len())
    };
    let distribution = run_plan(&plan, working, k, &engine_config, workers);
    Ok(MainOutput {
        distribution,
        scan_depth: depth,
        segments: plan.segments.len(),
        rows_applied: plan.rows_applied(),
    })
}

/// Walks the plan on `workers` workers and merges the segments'
/// distributions in segment order into the answer.
fn run_plan(
    plan: &Plan,
    table: &UncertainTable,
    k: usize,
    config: &EngineConfig,
    workers: usize,
) -> ScoreDistribution {
    let results = walk(plan, k, config, workers, false);
    debug_assert_eq!(results.rows_applied, plan.rows_applied());
    merge_segments(
        &results.stores,
        &results.spans,
        config.max_lines,
        config.coalesce_policy,
        |id| table.position(id).unwrap_or(usize::MAX),
    )
}

/// The walk's input: the ending segments in rank order, a binary tree over
/// them, and the rows hung on each node.
struct Plan {
    /// Every tuple's branch, group after group, each group's members in
    /// rank order.
    branches: Vec<Branch>,
    /// Per ME group, its members' range in `branches`.
    members: Vec<Range<usize>>,
    /// Per position, the index of its tuple's branch in `branches`.
    at: Vec<usize>,
    /// The segments that can host the end of a top-`k` vector: the
    /// positions of their tuples, which are the exit rows.
    segments: Vec<Range<usize>>,
    /// The tree in preorder: `nodes[0]` is the root, and a node's left
    /// child is the node after it.
    nodes: Vec<Node>,
    /// Every node's rows, one node after another: a group and how many of
    /// its members (the first ones in rank order) the row holds.
    rows: Vec<(usize, usize)>,
}

/// One node of a [`Plan`]'s tree.
struct Node {
    /// The segments below the node.
    segments: Range<usize>,
    /// The node's rows in [`Plan::rows`]: those live on every segment
    /// below it but not on every segment below its parent.
    rows: Range<usize>,
    /// The right child; `None` for a leaf, which holds one segment.
    right: Option<usize>,
}

/// How a [`Plan`]'s tree splits its segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Every node splits its segments in half.
    Balanced,
    /// The node over segments `i..S` splits off segment `i` alone: the
    /// order of one forward pass over the segments.
    Comb,
}

impl Shape {
    /// Where a node over two or more `segments` splits them.
    fn split(self, segments: &Range<usize>) -> usize {
        match self {
            Shape::Balanced => segments.start + segments.len() / 2,
            Shape::Comb => segments.start + 1,
        }
    }
}

/// A row and the contiguous segments it is live on.
struct Run {
    /// Rank order: closed groups by their last member, then open rows by
    /// their group's first member.
    order: (bool, usize),
    row: (usize, usize),
    segments: Range<usize>,
}

impl Plan {
    /// The plan in the shape that applies fewer rows: the balanced tree,
    /// unless the comb applies fewer.
    fn new(table: &UncertainTable, k: usize, strategy: MeStrategy) -> Plan {
        Plan::with_shape(table, k, strategy, None)
    }

    /// The plan in `shape`, or in the one that applies fewer rows.
    fn with_shape(
        table: &UncertainTable,
        k: usize,
        strategy: MeStrategy,
        shape: Option<Shape>,
    ) -> Plan {
        let mut branches = Vec::with_capacity(table.len());
        let mut members = Vec::with_capacity(table.group_count());
        let mut at = vec![0; table.len()];
        for group in 0..table.group_count() {
            let start = branches.len();
            for &pos in table.group_positions(group) {
                let t = table.tuple(pos);
                at[pos] = branches.len();
                branches.push((t.id(), t.score(), t.prob()));
            }
            members.push(start..branches.len());
        }
        // A vector's last member sits at position ≥ k-1; segments entirely
        // above that can never host an ending.
        let segments: Vec<Range<usize>> = build_segments(table, strategy)
            .into_iter()
            .filter(|tuples| tuples.end >= k)
            .collect();
        let runs = live_runs(table, &segments, &members);
        let (nodes, hung) = match shape {
            Some(shape) => hang(shape, segments.len(), &runs),
            None => {
                let balanced = hang(Shape::Balanced, segments.len(), &runs);
                // The comb hangs a run that reaches the last segment on one
                // node, and any other on each of its segments' leaves.
                let comb: usize = runs
                    .iter()
                    .map(|run| match run.segments.end == segments.len() {
                        true => 1,
                        false => run.segments.len(),
                    })
                    .sum();
                if comb < balanced.1.len() {
                    hang(Shape::Comb, segments.len(), &runs)
                } else {
                    balanced
                }
            }
        };
        Plan {
            branches,
            members,
            at,
            segments,
            nodes,
            rows: hung,
        }
    }

    /// The row of `group`'s first `count` members: a rule tuple (§3.3.1),
    /// or a simple row for one member.
    fn group_row(&self, group: usize, count: usize) -> &[Branch] {
        let start = self.members[group].start;
        &self.branches[start..start + count]
    }

    /// The simple row of the tuple at `pos`.
    fn tuple_row(&self, pos: usize) -> &[Branch] {
        std::slice::from_ref(&self.branches[self.at[pos]])
    }

    /// Rows the walk applies: every node's group rows once, and every
    /// segment's tuples.
    fn rows_applied(&self) -> usize {
        self.rows.len() + self.segments.iter().map(Range::len).sum::<usize>()
    }
}

/// The rows a segment's program applies above its tuples, each with the
/// contiguous run of segments it is live on, in rank order.
///
/// A group is *closed* for a segment when its last member ranks above the
/// segment's start: its whole row (a rule tuple of every member, or a
/// simple row) applies to that segment and every later one. A group with
/// members on both sides of the start is *open*: the row of its members
/// above the start applies. A single non-lead ending tuple's own group
/// gets no row, because its members above it are absent whenever it
/// exists; a lead-region segment's groups have no members above it.
fn live_runs(
    table: &UncertainTable,
    segments: &[Range<usize>],
    members: &[Range<usize>],
) -> Vec<Run> {
    let mut runs = Vec::new();
    // Closed groups, by last member: each is live from the first segment
    // that starts below it to the end.
    let mut segment = 0;
    for pos in 0..table.len() {
        let group = table.group_index(pos);
        if table.group_positions(group).last() != Some(&pos) {
            continue;
        }
        while segment < segments.len() && segments[segment].start <= pos {
            segment += 1;
        }
        if segment < segments.len() {
            runs.push(Run {
                order: (false, pos),
                row: (group, members[group].len()),
                segments: segment..segments.len(),
            });
        }
    }
    // Groups that can be open (two or more members), by first member.
    let shared: Vec<usize> = (0..table.len())
        .filter(|&pos| table.is_lead(pos) && table.group_members(pos).len() > 1)
        .map(|pos| table.group_index(pos))
        .collect();
    // The run each open row is on so far, by the branch of its last member.
    let mut open: Vec<Option<Run>> = (0..table.len()).map(|_| None).collect();
    for (index, tuples) in segments.iter().enumerate() {
        let start = tuples.start;
        let ending_group =
            (tuples.len() == 1 && !table.is_lead(start)).then(|| table.group_index(start));
        for &group in &shared {
            let positions = table.group_positions(group);
            if positions[0] >= start {
                break;
            }
            if Some(group) == ending_group || positions[positions.len() - 1] < start {
                continue;
            }
            let count = positions.partition_point(|&pos| pos < start);
            match &mut open[members[group].start + count - 1] {
                Some(run) if run.segments.end == index => run.segments.end += 1,
                slot => runs.extend(slot.replace(Run {
                    order: (true, positions[0]),
                    row: (group, count),
                    segments: index..index + 1,
                })),
            }
        }
    }
    runs.extend(open.into_iter().flatten());
    runs.sort_by_key(|run| (run.order, run.row.1, run.segments.start));
    runs
}

/// The tree of `shape` over `segments` (at least one) in preorder, with
/// each run's row hung on the nodes that cover its segments, and those
/// rows node after node, each node's in run order.
fn hang(shape: Shape, segments: usize, runs: &[Run]) -> (Vec<Node>, Vec<(usize, usize)>) {
    let mut nodes: Vec<Node> = Vec::with_capacity(2 * segments - 1);
    // Each entry: a node's segments and the parent it is the right child of.
    let mut pending: Vec<(Range<usize>, Option<usize>)> = vec![(0..segments, None)];
    while let Some((range, parent)) = pending.pop() {
        if let Some(parent) = parent {
            nodes[parent].right = Some(nodes.len());
        }
        if range.len() > 1 {
            let mid = shape.split(&range);
            pending.push((mid..range.end, Some(nodes.len())));
            pending.push((range.start..mid, None));
        }
        nodes.push(Node {
            segments: range,
            rows: 0..0,
            right: None,
        });
    }
    let mut hung = Vec::new();
    let mut below = Vec::new();
    for run in runs {
        below.push(0);
        while let Some(index) = below.pop() {
            let node = &nodes[index];
            if run.segments.start <= node.segments.start && node.segments.end <= run.segments.end {
                hung.push((index, run.row));
            } else if let Some(right) = node.right {
                let mid = nodes[right].segments.start;
                if run.segments.end > mid {
                    below.push(right);
                }
                if run.segments.start < mid {
                    below.push(index + 1);
                }
            }
        }
    }
    // The sort is stable, so each node's rows stay in run order.
    hung.sort_by_key(|&(node, _)| node);
    for (index, node) in nodes.iter_mut().enumerate() {
        node.rows = hung.partition_point(|&(at, _)| at < index)
            ..hung.partition_point(|&(at, _)| at <= index);
    }
    (nodes, hung.into_iter().map(|(_, row)| row).collect())
}

/// The distributions of a query's segments: each worker's [`Finished`]
/// store, per segment the worker that ran it and where its result sits in
/// that worker's store, and the rows the workers applied in all.
struct SegmentResults {
    stores: Vec<Finished>,
    spans: Vec<(usize, Span)>,
    rows_applied: usize,
}

/// A subtree for a worker to walk: its root, the root's depth, and the
/// cells to start from (the unit when `None`).
struct Task {
    node: usize,
    depth: usize,
    cells: Option<Exported>,
}

/// One step of a worker's walk.
enum Step {
    /// Apply a node's rows, then walk its children (or run its segment).
    Enter { node: usize, depth: usize },
    /// Return to the cells saved before a left child.
    Restore,
}

/// The subtrees waiting for a worker, shared by all of them.
struct Handoffs {
    pending: Mutex<Pending>,
    wake: Condvar,
    /// Waiting workers that no queued subtree is meant for yet, read
    /// without the lock. It is a hint that publishes no other data (a
    /// stale read only moves a handoff, never a result), so `Relaxed`.
    hungry: AtomicUsize,
    /// More than one worker was asked for.
    shared: bool,
    /// Hand off a child at every internal node, whatever its depth.
    every_node: bool,
}

struct Pending {
    tasks: Vec<Task>,
    workers: usize,
    idle: usize,
    done: bool,
}

impl Handoffs {
    /// The queue, also after a worker panicked: every update of `Pending`
    /// leaves it valid, and the panic reaches the caller through the join.
    fn lock(&self) -> MutexGuard<'_, Pending> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether a worker at a node of `depth` hands a child off: always in
    /// the top two levels, and below them while a worker waits.
    fn wants(&self, depth: usize) -> bool {
        self.every_node || (self.shared && (depth < 2 || self.hungry.load(Ordering::Relaxed) > 0))
    }

    fn give(&self, task: Task) {
        let mut pending = self.lock();
        pending.tasks.push(task);
        self.count_hungry(&pending);
        self.wake.notify_one();
    }

    /// The next subtree to walk, waiting for one while another worker may
    /// still hand one off; `None` once the walk is over.
    fn take(&self) -> Option<Task> {
        let mut pending = self.lock();
        loop {
            if let Some(task) = pending.tasks.pop() {
                self.count_hungry(&pending);
                return Some(task);
            }
            if pending.done || pending.idle + 1 == pending.workers {
                pending.done = true;
                self.wake.notify_all();
                return None;
            }
            pending.idle += 1;
            self.count_hungry(&pending);
            pending = self
                .wake
                .wait(pending)
                .unwrap_or_else(PoisonError::into_inner);
            pending.idle -= 1;
        }
    }

    fn count_hungry(&self, pending: &Pending) {
        self.hungry.store(
            pending.idle.saturating_sub(pending.tasks.len()),
            Ordering::Relaxed,
        );
    }
}

/// Ends the walk for every worker when the one holding it unwinds, so no
/// worker waits for a subtree that will never come.
struct EndOnUnwind<'a>(&'a Handoffs);

impl Drop for EndOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().done = true;
            self.0.wake.notify_all();
        }
    }
}

/// Walks the plan's tree on `workers` workers and returns every segment's
/// distribution.
///
/// A worker applies a node's rows to its cells, then walks the left child
/// and the right one. Before the left child it either saves its cells and
/// restores them afterwards, or hands one child off with an exact copy of
/// its cells (see [`Handoffs::wants`]) and walks the other: the right
/// subtree goes, or the left child when that is a leaf beside three or more
/// segments. A leaf runs its segment's tuples as exit rows. Every leaf
/// therefore sees the rows of the nodes above it, root first, whichever
/// worker reaches it and whatever copies its cells went through. The
/// calling thread is one of the workers and `workers - 1` helpers join it;
/// `every_node` hands off a child at every internal node, even on one
/// worker.
fn walk(
    plan: &Plan,
    k: usize,
    config: &EngineConfig,
    workers: usize,
    every_node: bool,
) -> SegmentResults {
    let handoffs = Handoffs {
        pending: Mutex::new(Pending {
            tasks: vec![Task {
                node: 0,
                depth: 0,
                cells: None,
            }],
            workers: 1,
            idle: 0,
            done: false,
        }),
        wake: Condvar::new(),
        hungry: AtomicUsize::new(0),
        shared: workers > 1,
        every_node,
    };
    let work = || {
        let _end = EndOnUnwind(&handoffs);
        let mut forward = Forward::new(k, *config);
        let mut store = Finished::default();
        let mut done = Vec::new();
        let mut rows_applied = 0;
        let mut steps = Vec::new();
        while let Some(Task { node, depth, cells }) = handoffs.take() {
            // The copy is dropped once imported, not held through the walk.
            match cells {
                Some(cells) => forward.import(&cells),
                None => forward.reset(),
            }
            steps.push(Step::Enter { node, depth });
            while let Some(step) = steps.pop() {
                let Step::Enter { node: index, depth } = step else {
                    forward.pop();
                    continue;
                };
                let node = &plan.nodes[index];
                for &(group, count) in &plan.rows[node.rows.clone()] {
                    forward.apply(plan.group_row(group, count));
                }
                rows_applied += node.rows.len();
                let Some(right) = node.right else {
                    let tuples = plan.segments[node.segments.start].clone();
                    for pos in tuples.clone() {
                        let row = plan.tuple_row(pos);
                        forward.exit(row);
                        if pos + 1 < tuples.end {
                            forward.apply(row);
                        }
                    }
                    rows_applied += tuples.len();
                    done.push((node.segments.start, forward.finish(&mut store)));
                    continue;
                };
                let left = index + 1;
                if handoffs.wants(depth) {
                    // A left leaf beside three or more segments (a comb's
                    // spine) is handed off so one worker keeps the spine;
                    // otherwise the right subtree goes, the larger share.
                    let (give, keep) = match plan.nodes[left].right {
                        None if plan.nodes[right].segments.len() > 2 => (left, right),
                        _ => (right, left),
                    };
                    handoffs.give(Task {
                        node: give,
                        depth: depth + 1,
                        cells: Some(forward.export()),
                    });
                    steps.push(Step::Enter {
                        node: keep,
                        depth: depth + 1,
                    });
                } else {
                    steps.push(Step::Enter {
                        node: right,
                        depth: depth + 1,
                    });
                    steps.push(Step::Restore);
                    forward.push();
                    steps.push(Step::Enter {
                        node: left,
                        depth: depth + 1,
                    });
                }
            }
        }
        (store, done, rows_applied)
    };
    let results = std::thread::scope(|scope| {
        // Helpers wait on the queue until the count of workers is final; a
        // helper the system cannot start leaves its share to the others.
        let helpers: Vec<_> = {
            let mut pending = handoffs.lock();
            let helpers: Vec<_> = (1..workers)
                .filter_map(|_| std::thread::Builder::new().spawn_scoped(scope, work).ok())
                .collect();
            pending.workers += helpers.len();
            helpers
        };
        let mut results = vec![work()];
        for helper in helpers {
            results.push(
                helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        results
    });
    let mut segment_results = SegmentResults {
        stores: Vec::with_capacity(results.len()),
        spans: vec![(0, Span::default()); plan.segments.len()],
        rows_applied: 0,
    };
    for (worker, (store, done, rows_applied)) in results.into_iter().enumerate() {
        for (segment, span) in done {
            segment_results.spans[segment] = (worker, span);
        }
        segment_results.stores.push(store);
        segment_results.rows_applied += rows_applied;
    }
    segment_results
}

/// Decomposes positions `0..table.len()` into ending segments.
fn build_segments(table: &UncertainTable, strategy: MeStrategy) -> Vec<Range<usize>> {
    match strategy {
        MeStrategy::PerEnding => (0..table.len()).map(|p| p..p + 1).collect(),
        MeStrategy::LeadRegions => {
            let mut segments = Vec::new();
            let mut run_start: Option<usize> = None;
            for pos in 0..table.len() {
                if table.is_lead(pos) {
                    if run_start.is_none() {
                        run_start = Some(pos);
                    }
                } else {
                    if let Some(s) = run_start.take() {
                        segments.push(s..pos);
                    }
                    segments.push(pos..pos + 1);
                }
            }
            if let Some(s) = run_start {
                segments.push(s..table.len());
            }
            segments
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan_depth::scan_depth;
    use ttk_uncertain::{exact_topk_score_distribution, TupleId};

    fn soldier_table() -> UncertainTable {
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
            .tuple(6u64, 58.0, 0.5)
            .unwrap()
            .tuple(7u64, 125.0, 0.3)
            .unwrap()
            .me_rule([2u64, 4, 7])
            .me_rule([3u64, 6])
            .build()
            .unwrap()
    }

    fn exact_config() -> MainConfig {
        MainConfig {
            p_tau: 1e-9,
            max_lines: 0,
            ..MainConfig::default()
        }
    }

    fn assert_distributions_match(a: &ScoreDistribution, b: &ScoreDistribution) {
        assert_eq!(a.len(), b.len(), "different number of lines:\n{a:?}\n{b:?}");
        for (pa, pb) in a.points().iter().zip(b.points()) {
            assert!(
                (pa.score - pb.score).abs() < 1e-9,
                "score mismatch {} vs {}",
                pa.score,
                pb.score
            );
            assert!(
                (pa.probability - pb.probability).abs() < 1e-9,
                "probability mismatch at score {}: {} vs {}",
                pa.score,
                pa.probability,
                pb.probability
            );
        }
    }

    #[test]
    fn matches_exhaustive_on_soldier_table_for_all_k() {
        let table = soldier_table();
        for k in 1..=5 {
            let exact = exact_topk_score_distribution(&table, k, 1 << 20).unwrap();
            for strategy in [MeStrategy::LeadRegions, MeStrategy::PerEnding] {
                let mut config = exact_config();
                config.me_strategy = strategy;
                let out = topk_score_distribution(&table, k, &config).unwrap();
                assert_distributions_match(&out.distribution, &exact);
            }
        }
    }

    #[test]
    fn soldier_top2_distribution_matches_figure_3() {
        let table = soldier_table();
        let out = topk_score_distribution(&table, 2, &exact_config()).unwrap();
        let d = &out.distribution;
        assert!((d.total_probability() - 1.0).abs() < 1e-9);
        assert!((d.expected_score() - 164.1).abs() < 0.05);
        // Pr(top-2 score = 235) = 0.12, witnessed by <T7, T3>.
        let p = d
            .points()
            .iter()
            .find(|p| (p.score - 235.0).abs() < 1e-9)
            .unwrap();
        assert!((p.probability - 0.12).abs() < 1e-9);
        let w = p.witness.as_ref().unwrap();
        assert_eq!(w.ids, vec![TupleId(7), TupleId(3)]);
        // Pr(top-2 score = 118) = 0.2, witnessed by <T2, T6> (the U-Top2).
        let p118 = d
            .points()
            .iter()
            .find(|p| (p.score - 118.0).abs() < 1e-9)
            .unwrap();
        assert!((p118.probability - 0.2).abs() < 1e-9);
        let w = p118.witness.as_ref().unwrap();
        assert_eq!(w.ids, vec![TupleId(2), TupleId(6)]);
        // Pr(score > 118) = 0.76 (observation 1 in §1).
        assert!((d.mass_above(118.0) - 0.76).abs() < 1e-9);
    }

    #[test]
    fn independent_tuples_match_exhaustive() {
        let table = UncertainTable::builder()
            .tuple(1u64, 100.0, 0.9)
            .unwrap()
            .tuple(2u64, 90.0, 0.2)
            .unwrap()
            .tuple(3u64, 70.0, 0.6)
            .unwrap()
            .tuple(4u64, 50.0, 0.8)
            .unwrap()
            .tuple(5u64, 30.0, 0.5)
            .unwrap()
            .build()
            .unwrap();
        for k in 1..=4 {
            let exact = exact_topk_score_distribution(&table, k, 1 << 20).unwrap();
            let out = topk_score_distribution(&table, k, &exact_config()).unwrap();
            assert_distributions_match(&out.distribution, &exact);
            // One lead region, therefore exactly one dynamic program.
            assert_eq!(out.segments, 1);
        }
    }

    #[test]
    fn ties_match_exhaustive() {
        // Example 4 of the paper: a tie group of three tuples at score 7 and
        // one at score 8, etc.
        let table = UncertainTable::builder()
            .tuple(1u64, 10.0, 0.5)
            .unwrap()
            .tuple(2u64, 8.0, 0.3)
            .unwrap()
            .tuple(3u64, 8.0, 0.2)
            .unwrap()
            .tuple(4u64, 8.0, 0.1)
            .unwrap()
            .tuple(5u64, 7.0, 0.5)
            .unwrap()
            .tuple(6u64, 7.0, 0.4)
            .unwrap()
            .tuple(7u64, 7.0, 0.2)
            .unwrap()
            .build()
            .unwrap();
        for k in 1..=6 {
            let exact = exact_topk_score_distribution(&table, k, 1 << 20).unwrap();
            let out = topk_score_distribution(&table, k, &exact_config()).unwrap();
            assert_distributions_match(&out.distribution, &exact);
        }
    }

    #[test]
    fn ties_and_me_groups_match_exhaustive() {
        let table = UncertainTable::builder()
            .tuple(1u64, 10.0, 0.5)
            .unwrap()
            .tuple(2u64, 9.0, 0.35)
            .unwrap()
            .tuple(3u64, 9.0, 0.45)
            .unwrap()
            .tuple(4u64, 9.0, 0.3)
            .unwrap()
            .tuple(5u64, 8.0, 0.6)
            .unwrap()
            .tuple(6u64, 7.0, 0.3)
            .unwrap()
            .tuple(7u64, 7.0, 0.2)
            .unwrap()
            .me_rule([2u64, 5])
            .me_rule([3u64, 6, 7])
            .build()
            .unwrap();
        for k in 1..=5 {
            let exact = exact_topk_score_distribution(&table, k, 1 << 20).unwrap();
            for strategy in [MeStrategy::LeadRegions, MeStrategy::PerEnding] {
                let mut config = exact_config();
                config.me_strategy = strategy;
                let out = topk_score_distribution(&table, k, &config).unwrap();
                assert_distributions_match(&out.distribution, &exact);
            }
        }
    }

    #[test]
    fn example_4_configuration_probability() {
        // §3.4 Example 4: Pr(at least 2 of {T5 0.5, T6 0.4, T7 0.2} appear)
        // must be folded into the configuration containing T1, T2, T4.
        let table = UncertainTable::builder()
            .tuple(1u64, 10.0, 0.5)
            .unwrap()
            .tuple(2u64, 8.0, 0.3)
            .unwrap()
            .tuple(3u64, 8.0, 0.2)
            .unwrap()
            .tuple(4u64, 8.0, 0.1)
            .unwrap()
            .tuple(5u64, 7.0, 0.5)
            .unwrap()
            .tuple(6u64, 7.0, 0.4)
            .unwrap()
            .tuple(7u64, 7.0, 0.2)
            .unwrap()
            .build()
            .unwrap();
        let out = topk_score_distribution(&table, 5, &exact_config()).unwrap();
        // Configuration score 10 + 8 + 8 + 7 + 7 = 40 includes several
        // configurations; verify against the exhaustive distribution instead
        // of a single hand-picked line, then check the hand-computed
        // probability from the paper: Pr(c) = 0.5·0.3·(1−0.2)·0.1·0.3 where
        // the last factor is Pr(≥2 of the tie group appear) = 0.3.
        let pr_c = 0.5 * 0.3 * (1.0 - 0.2) * 0.1 * 0.3;
        assert!(pr_c > 0.0);
        let exact = exact_topk_score_distribution(&table, 5, 1 << 20).unwrap();
        assert_distributions_match(&out.distribution, &exact);
    }

    #[test]
    fn streamed_and_materialized_paths_are_bit_identical() {
        let table = soldier_table();
        for k in 1..=5 {
            for p_tau in [1e-9, 0.05] {
                for strategy in [MeStrategy::LeadRegions, MeStrategy::PerEnding] {
                    let config = MainConfig {
                        p_tau,
                        max_lines: 0,
                        me_strategy: strategy,
                        ..MainConfig::default()
                    };
                    let streamed = topk_score_distribution(&table, k, &config).unwrap();
                    // The pre-streaming pipeline: the Theorem-2 depth over
                    // the whole table, then the DP over its truncation.
                    let depth = scan_depth(&table, k, p_tau).unwrap();
                    let materialized =
                        topk_score_distribution(&table.truncate(depth), k, &config).unwrap();
                    // PartialEq compares exact f64 values: bit-identical.
                    assert_eq!(streamed.distribution, materialized.distribution);
                    assert_eq!(streamed.scan_depth, materialized.scan_depth);
                    assert_eq!(streamed.segments, materialized.segments);
                }
            }
        }
    }

    #[test]
    fn k_larger_than_table_returns_empty() {
        let table = UncertainTable::builder()
            .tuple(1u64, 10.0, 0.5)
            .unwrap()
            .tuple(2u64, 9.0, 0.5)
            .unwrap()
            .build()
            .unwrap();
        let out = topk_score_distribution(&table, 5, &exact_config()).unwrap();
        assert!(out.distribution.is_empty());
        assert_eq!(out.segments, 0);
    }

    #[test]
    fn k_zero_is_rejected() {
        let table = soldier_table();
        assert!(topk_score_distribution(&table, 0, &exact_config()).is_err());
    }

    #[test]
    fn coalescing_bounds_output_lines_and_keeps_mass() {
        let table = soldier_table();
        let mut config = exact_config();
        config.max_lines = 3;
        let out = topk_score_distribution(&table, 2, &config).unwrap();
        assert!(out.distribution.len() <= 3);
        assert!((out.distribution.total_probability() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pruning_threshold_drops_little_mass() {
        let table = soldier_table();
        let mut config = exact_config();
        config.p_tau = 0.05;
        let out = topk_score_distribution(&table, 2, &config).unwrap();
        // With a coarse threshold the captured mass may shrink, but never by
        // more than ... it should stay close to 1 for this tiny table.
        assert!(out.distribution.total_probability() > 0.9);
        assert!(out.scan_depth <= table.len());
    }

    /// The prefix of `table` that the query at `k` reads under the default
    /// pτ.
    fn prefix(table: &UncertainTable, k: usize) -> UncertainTable {
        let mut gate = ScanGate::new(k, MainConfig::default().p_tau).unwrap();
        RankScan::new()
            .collect_prefix(&mut TableSource::new(table), &mut gate)
            .unwrap()
            .table
    }

    /// The prefix of a CarTel relation of seed 9 (60 segments: 199 rows,
    /// 600: 1,971) that the query at `k` reads.
    fn cartel_prefix(segments: usize, k: usize) -> UncertainTable {
        prefix(&ttk_datagen::cartel::area_table(segments, 9).unwrap(), k)
    }

    /// Every segment's distribution from a walk, then their merge.
    fn walk_outputs(
        plan: &Plan,
        k: usize,
        config: &EngineConfig,
        workers: usize,
        every_node: bool,
    ) -> Vec<ScoreDistribution> {
        let results = walk(plan, k, config, workers, every_node);
        assert_eq!(results.rows_applied, plan.rows_applied());
        let mut out: Vec<ScoreDistribution> = results
            .spans
            .iter()
            .map(|&(worker, span)| results.stores[worker].distribution(span))
            .collect();
        out.push(merge_segments(
            &results.stores,
            &results.spans,
            config.max_lines,
            config.coalesce_policy,
            |_| 0,
        ));
        out
    }

    #[test]
    fn segment_workers_cannot_change_the_output() {
        // The 199-row CarTel relation at k = 5, decomposed both ways, in
        // both tree shapes, walked on every worker count and with a
        // handoff at every internal node against the one-worker walk,
        // including more workers than the tree has subtrees to share.
        let k = 5;
        let working = cartel_prefix(60, k);
        let config = EngineConfig::default();
        for strategy in [MeStrategy::LeadRegions, MeStrategy::PerEnding] {
            for shape in [Shape::Balanced, Shape::Comb] {
                let plan = Plan::with_shape(&working, k, strategy, Some(shape));
                assert!(
                    plan.segments.len() > 3 && !plan.rows.is_empty(),
                    "{strategy:?}: {} segments",
                    plan.segments.len()
                );
                let serial = walk_outputs(&plan, k, &config, 1, false);
                assert!(serial.iter().any(|partial| !partial.is_empty()));
                for (workers, every_node) in
                    [(2, false), (3, false), (8, false), (1, true), (2, true)]
                {
                    let parallel = walk_outputs(&plan, k, &config, workers, every_node);
                    assert_eq!(
                        parallel, serial,
                        "{strategy:?}, {shape:?}, {workers} workers, every node {every_node}"
                    );
                }
            }
            let few = ttk_datagen::cartel::area_table(2, 9).unwrap();
            let plan = Plan::new(&few, 2, strategy);
            assert_eq!(
                walk_outputs(&plan, 2, &config, 8, false),
                walk_outputs(&plan, 2, &config, 1, false),
                "{strategy:?}, 8 workers on {} segments",
                plan.segments.len()
            );
        }
    }

    #[test]
    fn rows_applied_come_from_the_plan() {
        // The six CarTel shapes: rows the walk applies (its group rows and
        // the segments' tuples), whatever the worker count.
        for (segments, pins) in [(60, [292, 374, 496]), (600, [355, 396, 605])] {
            for (k, pin) in [3, 5, 10].into_iter().zip(pins) {
                let working = cartel_prefix(segments, k);
                let plan = Plan::new(&working, k, MeStrategy::LeadRegions);
                assert_eq!(plan.rows_applied(), pin, "{} rows, k={k}", working.len());
                for workers in [1, 2, 8] {
                    let results = walk(&plan, k, &EngineConfig::default(), workers, false);
                    assert_eq!(results.rows_applied, pin, "{workers} workers");
                }
                let out = topk_score_distribution(&working, k, &MainConfig::default()).unwrap();
                assert_eq!(out.rows_applied, pin);
            }
        }
    }

    #[test]
    fn plan_walks_the_shape_that_applies_fewer_rows() {
        // Rows applied by the balanced tree and by the comb. The CarTel
        // relations' open rows span many segments, which the balanced tree
        // splits into O(log S) nodes. Figure 11's synthetic tables (1,000
        // tuples, ME groups of 2–3 members 1–8 ranks apart, k = 20) are
        // mostly closed groups, live to the last segment, which the comb
        // hangs on one node each.
        let figure_11 = |portion| {
            ttk_datagen::synthetic::generate(&ttk_datagen::synthetic::SyntheticConfig {
                tuples: 1_000,
                me_policy: ttk_datagen::synthetic::MePolicy {
                    portion,
                    ..Default::default()
                },
                ..Default::default()
            })
            .unwrap()
        };
        for (working, k, counts) in [
            (cartel_prefix(60, 5), 5, [374, 873]),
            (cartel_prefix(600, 10), 10, [605, 1_069]),
            (prefix(&figure_11(0.1), 20), 20, [242, 166]),
            (prefix(&figure_11(0.5), 20), 20, [322, 238]),
        ] {
            let rows = |shape| {
                Plan::with_shape(&working, k, MeStrategy::LeadRegions, Some(shape)).rows_applied()
            };
            assert_eq!([rows(Shape::Balanced), rows(Shape::Comb)], counts);
            let plan = Plan::new(&working, k, MeStrategy::LeadRegions);
            assert_eq!(plan.rows_applied(), counts[0].min(counts[1]));
        }
    }

    /// FNV-1a over every bit of a distribution, as `tests/dp_parity.rs`
    /// digests it.
    fn digest(distribution: &ScoreDistribution) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        };
        eat(distribution.len() as u64);
        for point in distribution.points() {
            eat(point.score.to_bits());
            eat(point.probability.to_bits());
            match &point.witness {
                None => eat(0),
                Some(witness) => {
                    eat(witness.ids.len() as u64 + 1);
                    for id in &witness.ids {
                        eat(id.raw());
                    }
                    eat(witness.probability.to_bits());
                }
            }
        }
        hash
    }

    #[test]
    fn comb_walk_is_the_forward_pass() {
        // The digests the forward pass (one base folded per worker, the
        // open rows re-applied per segment) recorded under the default
        // configuration for k = 1..=10 on the 199- and 1,971-row CarTel
        // relations. The comb applies the same rows in the same order.
        const FORWARD: [[u64; 10]; 2] = [
            [
                0x6173_b804_9b7e_22db,
                0xc43d_5364_f74b_afdc,
                0xfce0_f284_8521_e99a,
                0x012f_d34e_7e87_d4f7,
                0x64df_8e86_847e_b39b,
                0x7458_2bba_cf79_347e,
                0x0995_2142_3d5a_585c,
                0x9de9_ff77_ee51_7b7e,
                0x888e_630d_b000_00a1,
                0xb04c_5205_8ede_4265,
            ],
            [
                0x40f8_9705_91b9_55f2,
                0xa90b_c5eb_8e33_7314,
                0xa47d_2194_f1c6_ab53,
                0x3578_3dd2_9c08_24e4,
                0x0d58_24ee_3398_ac7a,
                0x9148_b609_ced0_6183,
                0x975c_ac99_6ed7_3d6f,
                0xae7a_d30f_421a_bff0,
                0x9666_91d6_25d2_8a0f,
                0x95bb_fa60_b47b_dfc8,
            ],
        ];
        for (segments, pins) in [60, 600].into_iter().zip(FORWARD) {
            for (k, pin) in (1..).zip(pins) {
                let working = cartel_prefix(segments, k);
                let plan =
                    Plan::with_shape(&working, k, MeStrategy::LeadRegions, Some(Shape::Comb));
                let out = run_plan(&plan, &working, k, &EngineConfig::default(), 2);
                assert_eq!(digest(&out), pin, "{} rows, k={k}", working.len());
            }
        }
    }

    #[test]
    fn massless_lines_do_not_depend_on_witness_tracking() {
        // Two likely tuples, then six at 1e-200 whose products with each
        // other underflow to 0. No answer keeps a line of mass 0, so the
        // line count is the same with witnesses tracked or not.
        let mut builder = UncertainTable::builder();
        for (id, prob) in [0.9, 0.9, 1e-200, 1e-200, 1e-200, 1e-200, 1e-200, 1e-200]
            .into_iter()
            .enumerate()
        {
            builder = builder.tuple(id as u64 + 1, 8.0 - id as f64, prob).unwrap();
        }
        let table = builder.build().unwrap();
        for (k, lines) in [(2, 8), (3, 6)] {
            for track_witnesses in [true, false] {
                let config = MainConfig {
                    track_witnesses,
                    ..exact_config()
                };
                let out = topk_score_distribution(&table, k, &config).unwrap();
                assert_eq!(out.distribution.len(), lines, "k={k}, {track_witnesses}");
                assert!(out
                    .distribution
                    .points()
                    .iter()
                    .all(|p| p.probability > 0.0));
            }
        }
    }

    #[test]
    fn per_ending_and_lead_region_strategies_agree() {
        let table = soldier_table();
        for k in 1..=4 {
            let lead = topk_score_distribution(
                &table,
                k,
                &MainConfig {
                    me_strategy: MeStrategy::LeadRegions,
                    ..exact_config()
                },
            )
            .unwrap();
            let per = topk_score_distribution(
                &table,
                k,
                &MainConfig {
                    me_strategy: MeStrategy::PerEnding,
                    ..exact_config()
                },
            )
            .unwrap();
            assert_distributions_match(&lead.distribution, &per.distribution);
            assert!(per.segments >= lead.segments);
        }
    }
}
