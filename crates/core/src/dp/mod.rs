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
//! 3. translates each segment into a row sequence where every other ME group
//!    is compressed into a *rule tuple* (§3.3.1) and exit points are enabled
//!    only inside the segment (§3.3.2), and
//! 4. runs the engine once per segment, on every core when the work is
//!    large enough, and merges the resulting distributions in segment
//!    order.
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
//! The per-segment dynamic programs are independent, so the driver builds
//! every segment's rows first and runs them on up to
//! `available_parallelism()` workers. Workers claim segments, largest
//! (most rows) first, from one atomic counter; each owns one engine scratch
//! (see [`engine`]) for all the segments it claims, and the calling thread
//! is one of them.
//!
//! *Merge order.* Each worker appends its segments' results to a flat
//! store of its own; the driver looks them up by segment index and merges
//! them — `merge_from`, then `coalesce` when lines are bounded — in
//! segment order, exactly as one sequential loop would merge them. Which worker ran a segment, and when,
//! never reaches the arithmetic, so the output is bit-identical for every
//! worker count. One worker runs the same loop on the calling thread.
//!
//! *When helpers start.* Only when the engine work, Σ rows × k over the
//! segments, reaches 6,000 cells, and never for a query a batch worker
//! runs (the batch already occupies the cores). Measured with release
//! builds on 2 vCPUs (best of 9), one worker against two:
//!
//! - Below ~4,000 cells a helper gains nothing: 2,402 and 2,860 cells
//!   (k = 2) run 0.2–0.5 ms alone and slightly slower with a helper;
//!   3,879 cells (199 rows, k = 3) ~0.8 ms either way.
//! - Around the cutoff a serial DP takes a few milliseconds and a helper
//!   saves ~30 %: 4,947 cells (1,971 rows, k = 3) 2.8 → 2.0 ms, 6,724
//!   cells (199 rows, k = 4) 5 → 3.7 ms.
//! - Above it two workers approach twice the speed: 10,255 cells (1,971
//!   rows, k = 5) 41 → 23 ms.
//! - A helper brings its own scratch and result store, so every DP it
//!   joins costs memory as well as a thread start. The cutoff keeps the
//!   largest DPs of the benchmark's serving workloads (3,879 and 4,947
//!   cells) on the calling thread.

mod columns;
pub mod engine;

use std::cmp::Reverse;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use ttk_uncertain::{
    CoalescePolicy, Error, Result, ScoreDistribution, TableSource, TupleSource, UncertainTable,
};

use crate::query::resolve_threads;
use crate::scan::{RankScan, ScanPrefix};
use crate::scan_depth::{scan_depth, ScanGate};
use columns::{Finished, Span};
use engine::{DpRow, EngineConfig, Scratch};

/// Engine work — Σ rows × k over a query's segments — from which
/// [`run_on_prefix_table`] starts helper workers (the measurements behind
/// it are in the module doc).
const PARALLEL_MIN_CELLS: usize = 6_000;

/// How the driver decomposes a table with ME groups into per-ending dynamic
/// programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MeStrategy {
    /// One dynamic program per maximal lead-tuple region plus one per
    /// non-lead tuple (§3.3.3). This is the refinement the paper recommends;
    /// its cost is O(k·m·n) where m is the number of ME-correlated tuples.
    #[default]
    LeadRegions,
    /// One dynamic program per candidate ending tuple (the "simple
    /// extension" of §3.3.2). Asymptotically slower — O(k·n²) — but a useful
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
    /// Number of per-segment dynamic programs executed.
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

/// Runs the per-segment dynamic programs over an already-collected scan
/// prefix on at most `max_workers` workers (0 = one per available core).
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

    let jobs = segment_jobs(working, k, config.me_strategy);
    let cells: usize = jobs.iter().map(|(rows, _)| rows.len() * k).sum();
    let workers = if cells < PARALLEL_MIN_CELLS {
        1
    } else {
        resolve_threads(max_workers, jobs.len())
    };
    let partials = run_segments(&jobs, k, &engine_config, workers);
    let mut distribution = ScoreDistribution::empty();
    for job in 0..jobs.len() {
        distribution.merge_from(&partials.get(job));
        if config.max_lines > 0 {
            distribution.coalesce(config.max_lines, config.coalesce_policy);
        }
    }

    // Witness vectors are assembled in row order, which may interleave rule
    // members out of rank order; restore rank order for presentation.
    distribution = restore_witness_rank_order(distribution, working);

    Ok(MainOutput {
        distribution,
        scan_depth: depth,
        segments: jobs.len(),
    })
}

/// The engine rows and exit flags of one ending segment.
type SegmentRows = (Vec<DpRow>, Vec<bool>);

/// The engine input of every segment that can host the end of a top-`k`
/// vector, in segment order.
fn segment_jobs(working: &UncertainTable, k: usize, strategy: MeStrategy) -> Vec<SegmentRows> {
    // A vector's last member sits at position ≥ k-1; segments entirely
    // above that can never host an ending.
    build_segments(working, strategy)
        .into_iter()
        .filter(|segment| segment.end >= k)
        .map(|segment| build_rows(working, segment, k))
        .filter(|(rows, _)| !rows.is_empty())
        .collect()
}

/// The partial distributions of a query's segments: each worker's
/// [`Finished`] store, and per job the worker that ran it and where its
/// result sits in that worker's store.
struct Partials {
    stores: Vec<Finished>,
    spans: Vec<(usize, Span)>,
}

impl Partials {
    /// The partial distribution of `job`.
    fn get(&self, job: usize) -> ScoreDistribution {
        let (worker, span) = self.spans[job];
        self.stores[worker].distribution(span)
    }
}

/// Runs the engine once per job on `workers` workers.
///
/// Jobs are claimed largest first from one atomic counter, so the longest
/// DPs start early and the short ones fill in around them. The calling
/// thread is one of the workers and `workers - 1` helpers join it; with one
/// worker the same loop runs alone on the calling thread. Each worker owns
/// one [`Scratch`] and one [`Finished`] store for every job it claims. The
/// results are looked up by job, so which worker ran a job, and when,
/// cannot reach the caller's merge.
fn run_segments(jobs: &[SegmentRows], k: usize, config: &EngineConfig, workers: usize) -> Partials {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&job| Reverse(jobs[job].0.len()));
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut scratch = Scratch::default();
        let mut store = Finished::default();
        let mut done = Vec::new();
        loop {
            let slot = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&job) = order.get(slot) else { break };
            let (rows, exits) = &jobs[job];
            let span = engine::run_in(&mut scratch, rows, exits, k, config, &mut store);
            done.push((job, span));
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
    let mut partials = Partials {
        stores: Vec::with_capacity(results.len()),
        spans: vec![(0, Span::default()); jobs.len()],
    };
    for (worker, (store, done)) in results.into_iter().enumerate() {
        for (job, span) in done {
            partials.spans[job] = (worker, span);
        }
        partials.stores.push(store);
    }
    partials
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

/// Builds the engine rows and exit flags for one ending segment.
///
/// Rows consist of (a) the tuples ranked above the segment, with every ME
/// group that has two or more members in that prefix compressed into a rule
/// tuple placed at its highest-ranked member, and (b) one simple row per
/// segment position. Members of an ending tuple's own group that are ranked
/// above it are removed entirely (they are automatically absent whenever the
/// ending tuple exists); this situation only arises for single non-lead
/// segments. Exit points are enabled exactly at the segment rows.
fn build_rows(table: &UncertainTable, segment: Range<usize>, _k: usize) -> SegmentRows {
    let start = segment.start;
    // The group of a single non-lead ending tuple: its higher-ranked members
    // must be dropped from the prefix rows. A lead-region segment never has
    // such members (every segment member is the lead of its group).
    let ending_group = if segment.len() == 1 && !table.is_lead(start) {
        Some(table.group_index(start))
    } else {
        None
    };

    // Gather the prefix members of every group ranked above the segment.
    let mut first_member: HashMap<usize, usize> = HashMap::new();
    let mut members_above: HashMap<usize, Vec<usize>> = HashMap::new();
    for pos in 0..start {
        let g = table.group_index(pos);
        if Some(g) == ending_group {
            continue;
        }
        first_member.entry(g).or_insert(pos);
        members_above.entry(g).or_default().push(pos);
    }

    let mut rows = Vec::with_capacity(start + segment.len());
    let mut exits = Vec::with_capacity(start + segment.len());
    for pos in 0..start {
        let g = table.group_index(pos);
        if Some(g) == ending_group || first_member.get(&g) != Some(&pos) {
            continue;
        }
        let members = &members_above[&g];
        if members.len() == 1 {
            let t = table.tuple(pos);
            rows.push(DpRow::Simple {
                id: t.id(),
                score: t.score(),
                prob: t.prob(),
            });
        } else {
            rows.push(DpRow::Rule {
                branches: members
                    .iter()
                    .map(|&p| {
                        let t = table.tuple(p);
                        (t.id(), t.score(), t.prob())
                    })
                    .collect(),
            });
        }
        exits.push(false);
    }
    for pos in segment {
        let t = table.tuple(pos);
        rows.push(DpRow::Simple {
            id: t.id(),
            score: t.score(),
            prob: t.prob(),
        });
        exits.push(true);
    }
    (rows, exits)
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
        // workers than segments.
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
            let jobs = segment_jobs(&working, k, strategy);
            assert!(jobs.len() > 3, "{strategy:?}: {} segments", jobs.len());
            let run = |jobs: &[SegmentRows], workers| {
                let partials = run_segments(jobs, k, &engine_config, workers);
                (0..jobs.len())
                    .map(|job| partials.get(job))
                    .collect::<Vec<_>>()
            };
            let serial = run(&jobs, 1);
            assert!(serial.iter().any(|partial| !partial.is_empty()));
            for workers in [2, 3, 8] {
                let parallel = run(&jobs, workers);
                assert_eq!(parallel, serial, "{strategy:?}, {workers} workers");
            }
            let few = run(&jobs[..3], 8);
            assert_eq!(few, serial[..3], "{strategy:?}, 8 workers on 3 segments");
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
