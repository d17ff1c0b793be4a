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
//! 3. orders the prefix's ME groups by their last member: a group whose
//!    last member ranks above a segment's start is *closed* for that
//!    segment and every later one, and a group with members on both sides
//!    of the start is *open*,
//! 4. runs the engine forward once per worker: the worker folds each closed
//!    group into a base state once, as one whole row (a *rule tuple* of its
//!    members, §3.3.1, or a simple row for a singleton); per segment it
//!    copies the base, applies one row per open group holding its members
//!    above the segment's start (in first-member order), then the
//!    segment's tuples as the only exit rows (§3.3.2). A single non-lead
//!    ending tuple's own group gets no row: its members above it are absent
//!    whenever it exists.
//! 5. merges the segments' distributions in segment order.
//!
//! Every segment sees exactly the rows the paper's per-ending program
//! builds for it, so the distribution is the paper's; what the fold saves
//! is recomputing the closed groups per segment. On the 1,971-row CarTel
//! relation at k = 5 that is 508 rows applied instead of 2,051 engine rows
//! over 39 segments. The float sums and the coalescing run in a different
//! order than one bottom-up program per segment would, so coalesced
//! outputs differ from that order's in the last bits (and, under the
//! paper's plain-mean coalescing, in the expected score by up to ~0.15 %
//! on the CarTel relations); `tests/dp_parity.rs` holds the two within
//! those bounds.
//!
//! On a table without mutual exclusion the decomposition degenerates to a
//! single segment spanning all tuples, i.e. exactly the basic algorithm of
//! §3.2. The pre-streaming pipeline (materialize the full table, truncate
//! afterwards) is retained as
//! [`materialized_topk_score_distribution`] — it is the reference the
//! streaming path is property-tested against and the baseline the benches
//! quantify the streaming win with.
//!
//! # Segment workers
//!
//! Workers claim segments in segment order from one atomic counter, on up
//! to `available_parallelism()` workers, and the calling thread is one of
//! them. Each owns one `Forward` (see [`engine`]): before a segment it
//! folds the groups that closed since its previous segment into its base,
//! so its base only moves forward, and a segment's base is the same fold in
//! the same order whichever worker runs it.
//!
//! *Merge order.* Each worker appends its segments' results to a flat
//! store of its own, and they are merged in segment order — the plain
//! union, then coalescing when lines are bounded — on columns whose
//! witnesses point into those stores, with the kernels and the coalescer
//! the cells use, and walks ids out only for the final lines. That is
//! `merge_from` then [`ScoreDistribution::coalesce`] on each segment's
//! distribution, bit for bit, without building one. Which worker ran a
//! segment, and when, never reaches the arithmetic, so the output is
//! bit-identical for every worker count. One worker runs the same loop on
//! the calling thread.
//!
//! *When helpers start.* Only when the work one worker would do, rows
//! applied × k, reaches 2,000 cells, and never for a query a batch worker
//! runs (the batch already occupies the cores). Rows applied count the
//! closed groups once plus every segment's open rows and tuples. Measured
//! on the linear-sweep coalescer with release builds on 2 vCPUs, one worker
//! against two, as the best of 9 in each of 3 alternated runs, on the
//! CarTel relations:
//!
//! - Below the cutoff sit the serving workloads' DPs, which stay on the
//!   calling thread. A helper loses on the 199- and 103-row relations at
//!   k = 3 (1,464 cells 0.24–0.40 → 0.36–0.44 ms, 1,851 cells 0.17–0.30 →
//!   0.30–0.32 ms). On the 1,971-row relation at k = 3 (1,200 cells) it is
//!   about even (1.28–1.84 → 1.06–1.42 ms), and it would bring its own
//!   state and thread into a daemon's or a shard client's process.
//! - Above it two workers save 25–45 %: 2,540 cells (1,971 rows, k = 5)
//!   9.3–10.4 → 6.9–9.0 ms, 4,365 cells (199 rows, k = 5) 6.2–10.1 →
//!   4.4–5.9 ms, 14,180 cells (199 rows, k = 10) 148–187 → 85–98 ms.
//! - Work in rows × k ignores how many lines the cells hold, so the cutoff
//!   is a compromise that no other value improves: on the 103-row relation
//!   a helper loses a little at 3,132 and 4,385 cells (k = 4 and 5:
//!   0.58–0.87 → 0.83–0.88 ms, 1.28–1.69 → 1.62–1.71 ms), while 4,365
//!   cells (199 rows, k = 5) gain and 1,868 cells (1,971 rows, k = 4) would
//!   gain a fifth (4.1–5.6 → 3.1–3.7 ms).

mod columns;
pub mod engine;

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use ttk_uncertain::{
    CoalescePolicy, Error, Result, ScoreDistribution, TableSource, TupleSource, UncertainTable,
};

use crate::query::resolve_threads;
use crate::scan::{RankScan, ScanPrefix};
use crate::scan_depth::{scan_depth, ScanGate};
use columns::{merge_segments, Finished, Span};
use engine::{Branch, EngineConfig, Forward};

/// Engine work — rows one worker applies × k — from which
/// [`run_on_prefix_table`] starts helper workers (the measurements behind
/// it are in the module doc).
const PARALLEL_MIN_CELLS: usize = 2_000;

/// How the driver decomposes a table with ME groups into per-ending dynamic
/// programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MeStrategy {
    /// One ending segment per maximal lead-tuple region plus one per
    /// non-lead tuple (§3.3.3), the refinement the paper recommends. On top
    /// of the closed groups, folded once per worker, a segment applies only
    /// its open groups' rows and its own tuples, each row costing O(k)
    /// cells — toward the paper's O(k·m·n), where m is the number of
    /// ME-correlated tuples.
    #[default]
    LeadRegions,
    /// One ending segment per candidate ending tuple (the "simple
    /// extension" of §3.3.2). Every tuple recomputes the open groups above
    /// it, so it applies more rows than [`LeadRegions`](Self::LeadRegions)
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
    /// Number of ending segments (§3.3.3) the forward pass ran: one copy
    /// of the base state each, plus its open groups' rows and its tuples.
    pub segments: usize,
}

/// Runs the main dynamic-programming algorithm and returns the top-k score
/// distribution.
///
/// This is a convenience wrapper streaming the in-memory table through the
/// rank-scan executor; [`topk_score_distribution_streamed`] accepts any
/// [`TupleSource`].
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
    topk_score_distribution_streamed(&mut TableSource::new(table), k, config)
}

/// Runs the main algorithm against a rank-ordered [`TupleSource`], reading at
/// most one tuple past the Theorem-2 bound.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for invalid parameters and propagates
/// source errors.
pub fn topk_score_distribution_streamed(
    source: &mut dyn TupleSource,
    k: usize,
    config: &MainConfig,
) -> Result<MainOutput> {
    if k == 0 {
        return Err(Error::InvalidParameter("k must be at least 1".into()));
    }
    let mut gate = ScanGate::new(k, config.p_tau)?;
    let prefix = RankScan::new().collect_prefix(source, &mut gate)?;
    topk_from_prefix(&prefix, k, config, 0)
}

/// The pre-streaming pipeline: compute the Theorem-2 depth over the full
/// materialized table, truncate, then run the dynamic program.
///
/// Retained as the reference implementation the streaming path is verified
/// against (bit-identical outputs) and as the ablation baseline quantifying
/// what fusing the stopping condition into the scan saves.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `k == 0` or the probability
/// threshold is outside `(0, 1)`.
pub fn materialized_topk_score_distribution(
    table: &UncertainTable,
    k: usize,
    config: &MainConfig,
) -> Result<MainOutput> {
    if k == 0 {
        return Err(Error::InvalidParameter("k must be at least 1".into()));
    }
    let depth = scan_depth(table, k, config.p_tau)?;
    let working = table.truncate(depth);
    run_on_prefix_table(&working, depth, k, config, 0)
}

/// Runs the forward pass over an already-collected scan prefix on at most
/// `max_workers` workers (0 = one per available core).
/// Shared by the streaming entry points and the batch
/// [`crate::query::Executor`].
pub(crate) fn topk_from_prefix(
    prefix: &ScanPrefix,
    k: usize,
    config: &MainConfig,
    max_workers: usize,
) -> Result<MainOutput> {
    run_on_prefix_table(&prefix.table, prefix.depth(), k, config, max_workers)
}

fn run_on_prefix_table(
    working: &UncertainTable,
    depth: usize,
    k: usize,
    config: &MainConfig,
    max_workers: usize,
) -> Result<MainOutput> {
    if working.len() < k {
        // No possible world can contain k tuples from the considered prefix;
        // with a sensible pτ this only happens when the full table itself has
        // fewer than k tuples.
        return Ok(MainOutput {
            distribution: ScoreDistribution::empty(),
            scan_depth: depth,
            segments: 0,
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
    let results = run_forward_pass(&plan, k, &engine_config, workers);
    let distribution = merge_segments(
        &results.stores,
        &results.spans,
        config.max_lines,
        config.coalesce_policy,
    );

    // Witness vectors are assembled in row order, which may interleave rule
    // members out of rank order; restore rank order for presentation.
    let distribution = restore_witness_rank_order(distribution, working);

    Ok(MainOutput {
        distribution,
        scan_depth: depth,
        segments: plan.segments.len(),
    })
}

/// The forward pass's input: the ending segments in rank order, each with
/// the closed groups its base folds and the open groups' rows it
/// recomputes.
struct Plan {
    /// Every tuple's branch, group after group, each group's members in
    /// rank order.
    branches: Vec<Branch>,
    /// Per ME group, its members' range in `branches`.
    members: Vec<Range<usize>>,
    /// Per position, the index of its tuple's branch in `branches`.
    at: Vec<usize>,
    /// The groups in the order the base folds them: by last member.
    closing: Vec<usize>,
    /// Every segment's open rows, one segment after another: a group and
    /// how many of its members rank above the segment.
    open: Vec<(usize, usize)>,
    /// The segments that can host the end of a top-`k` vector.
    segments: Vec<Segment>,
}

/// One ending segment of a [`Plan`].
struct Segment {
    /// Positions of the ending tuples: the exit rows.
    tuples: Range<usize>,
    /// `closing[..closed]` rank above the segment entirely: the base of
    /// this segment folds exactly those.
    closed: usize,
    /// This segment's rows in [`Plan::open`].
    open: Range<usize>,
}

impl Plan {
    fn new(table: &UncertainTable, k: usize, strategy: MeStrategy) -> Plan {
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
        // A group closes at its last member; `closed_before[pos]` counts the
        // groups closed above `pos`.
        let mut closing = Vec::with_capacity(table.group_count());
        let mut closed_before = Vec::with_capacity(table.len());
        for pos in 0..table.len() {
            closed_before.push(closing.len());
            if table.group_members(pos).last() == Some(&pos) {
                closing.push(table.group_index(pos));
            }
        }
        // Groups that can be open (two or more members), by first member.
        let shared: Vec<usize> = (0..table.len())
            .filter(|&pos| table.is_lead(pos) && table.group_members(pos).len() > 1)
            .map(|pos| table.group_index(pos))
            .collect();

        let mut open = Vec::new();
        let mut segments = Vec::new();
        // A vector's last member sits at position ≥ k-1; segments entirely
        // above that can never host an ending.
        for tuples in build_segments(table, strategy) {
            if tuples.end < k {
                continue;
            }
            let start = tuples.start;
            // A single non-lead ending tuple excludes its group's members
            // above it whenever it exists, so that group gets no row. A
            // lead-region segment's groups have no members above it.
            let ending_group =
                (tuples.len() == 1 && !table.is_lead(start)).then(|| table.group_index(start));
            let first_open = open.len();
            for &group in &shared {
                let positions = table.group_positions(group);
                if positions[0] >= start {
                    break;
                }
                if Some(group) != ending_group && positions[positions.len() - 1] >= start {
                    open.push((group, positions.partition_point(|&pos| pos < start)));
                }
            }
            segments.push(Segment {
                tuples,
                closed: closed_before[start],
                open: first_open..open.len(),
            });
        }
        Plan {
            branches,
            members,
            at,
            closing,
            open,
            segments,
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

    /// Rows one worker applies when it runs every segment: the closed
    /// groups once, then per segment its open rows and its tuples.
    fn rows_applied(&self) -> usize {
        let folded = self.segments.last().map_or(0, |segment| segment.closed);
        folded
            + self
                .segments
                .iter()
                .map(|segment| segment.open.len() + segment.tuples.len())
                .sum::<usize>()
    }
}

/// The distributions of a query's segments: each worker's [`Finished`]
/// store, and per segment the worker that ran it and where its result sits
/// in that worker's store.
struct SegmentResults {
    stores: Vec<Finished>,
    spans: Vec<(usize, Span)>,
}

/// Runs the forward pass over the plan's segments on `workers` workers.
///
/// Workers claim segments in segment order from one atomic counter. Each
/// owns one [`Forward`]: before a segment it folds the groups that closed
/// since its last one into its base, so its base only moves forward, and
/// every segment's base is the same fold in the same order on any worker.
/// The calling thread is one of the workers and `workers - 1` helpers join
/// it; with one worker the same loop runs alone on the calling thread.
/// The results are looked up by segment, so which worker ran a segment,
/// and when, cannot reach the caller's merge.
fn run_forward_pass(
    plan: &Plan,
    k: usize,
    config: &EngineConfig,
    workers: usize,
) -> SegmentResults {
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut forward = Forward::new(k, *config);
        let mut folded = 0;
        let mut store = Finished::default();
        let mut done = Vec::new();
        loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(segment) = plan.segments.get(index) else {
                break;
            };
            for &group in &plan.closing[folded..segment.closed] {
                forward.fold(plan.group_row(group, plan.members[group].len()));
            }
            folded = segment.closed;
            forward.start();
            for &(group, count) in &plan.open[segment.open.clone()] {
                forward.apply(plan.group_row(group, count));
            }
            for pos in segment.tuples.clone() {
                let row = plan.tuple_row(pos);
                forward.exit(row);
                if pos + 1 < segment.tuples.end {
                    forward.apply(row);
                }
            }
            done.push((index, forward.finish(&mut store)));
        }
        (store, done)
    };
    let results = std::thread::scope(|scope| {
        // A helper the system cannot start leaves its share to the others.
        let helpers: Vec<_> = (1..workers)
            .filter_map(|_| std::thread::Builder::new().spawn_scoped(scope, work).ok())
            .collect();
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
    };
    for (worker, (store, done)) in results.into_iter().enumerate() {
        for (segment, span) in done {
            segment_results.spans[segment] = (worker, span);
        }
        segment_results.stores.push(store);
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

/// Re-sorts every witness vector into table rank order.
fn restore_witness_rank_order(
    mut distribution: ScoreDistribution,
    table: &UncertainTable,
) -> ScoreDistribution {
    let needs_fix = distribution
        .points()
        .iter()
        .any(|p| p.witness.as_ref().is_some_and(|w| w.ids.len() > 1));
    if !needs_fix {
        return distribution;
    }
    let mut rebuilt = ScoreDistribution::empty();
    for point in distribution.points() {
        let witness = point.witness.as_ref().map(|w| {
            let mut ids = w.ids.clone();
            ids.sort_by_key(|id| table.position(*id).unwrap_or(usize::MAX));
            ttk_uncertain::VectorWitness {
                ids,
                probability: w.probability,
            }
        });
        rebuilt.add_mass(point.score, point.probability, witness);
    }
    std::mem::swap(&mut distribution, &mut rebuilt);
    distribution
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttk_uncertain::{exact_topk_score_distribution, TupleId, UncertainTable};

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
                    let materialized =
                        materialized_topk_score_distribution(&table, k, &config).unwrap();
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

    #[test]
    fn segment_workers_cannot_change_the_output() {
        // The 199-row CarTel relation at k = 5, decomposed both ways, run on
        // every worker count against the one-worker loop — including more
        // workers than segments, whose bases fold different stretches of
        // the closed groups.
        let area = ttk_datagen::cartel::generate_area(&ttk_datagen::cartel::CartelConfig {
            segments: 60,
            seed: 9,
            ..ttk_datagen::cartel::CartelConfig::default()
        })
        .unwrap();
        let k = 5;
        let config = MainConfig::default();
        let depth = scan_depth(area.table(), k, config.p_tau).unwrap();
        let working = area.table().truncate(depth);
        let engine_config = EngineConfig::default();
        for strategy in [MeStrategy::LeadRegions, MeStrategy::PerEnding] {
            let mut plan = Plan::new(&working, k, strategy);
            assert!(
                plan.segments.len() > 3,
                "{strategy:?}: {} segments",
                plan.segments.len()
            );
            assert!(plan.segments.last().unwrap().closed > 0 && !plan.open.is_empty());
            let run = |plan: &Plan, workers| {
                let results = run_forward_pass(plan, k, &engine_config, workers);
                let mut out: Vec<ScoreDistribution> = results
                    .spans
                    .iter()
                    .map(|&(worker, span)| results.stores[worker].distribution(span))
                    .collect();
                out.push(merge_segments(
                    &results.stores,
                    &results.spans,
                    engine_config.max_lines,
                    engine_config.coalesce_policy,
                ));
                out
            };
            // Each segment's distribution, then their merge.
            let serial = run(&plan, 1);
            assert!(serial.iter().any(|partial| !partial.is_empty()));
            for workers in [2, 3, 8] {
                let parallel = run(&plan, workers);
                assert_eq!(parallel, serial, "{strategy:?}, {workers} workers");
            }
            plan.segments.truncate(3);
            let few = run(&plan, 8);
            assert_eq!(
                few[..3],
                serial[..3],
                "{strategy:?}, 8 workers on 3 segments"
            );
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
