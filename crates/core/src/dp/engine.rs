//! The generic dynamic-programming engine shared by the main algorithm.
//!
//! The engine runs the bottom-up recurrence of §3.2 over an abstract sequence
//! of [`DpRow`]s. A row is either a *simple* uncertain tuple or a *rule
//! tuple* (§3.3.1) compressing an ME group into one row whose include branch
//! enumerates the member tuples. Exit points (the auxiliary column 0 of the
//! paper, §3.3.2) are enabled per row: a top-k vector may have its last
//! (lowest-ranked) member at row `r` only when `exits[r]` is true.
//!
//! The drivers in [`super`] decide how tables are translated into rows and
//! which exits are enabled; the engine is agnostic to those decisions.
//!
//! # Cells and the witness arena
//!
//! A cell is a score distribution held as parallel columns: the scores
//! (ascending), their probabilities, and, when witnesses are tracked, one
//! `(probability, cell)` pair per line. That cell indexes an arena of
//! `(TupleId, parent)` cells, and a witness vector is the chain from its
//! cell up to the root, first id first. The include branch prepends the
//! row's tuple to every witness it carries down: one pushed cell whose
//! parent is the old chain, so a witness shares the rest of its vector
//! with the one it came from, and a prepend costs one 16-byte cell instead
//! of a copied id vector. Ids are walked out only for the final cell's
//! lines (at most `max_lines` per run), into the worker's flat result
//! store.
//!
//! Cells that no surviving line reaches any more are dead. After a row,
//! once the arena has grown to twice what its last compaction kept (and
//! to at least 16,384 cells), the chains the live cells reach are copied
//! into a fresh arena, shared tails once. The arena therefore stays
//! proportional to the live lines, as the per-line id vectors it replaced
//! were, instead of growing with every row: 1,971 rows at k = 10 peaked at
//! ~151,000 cells per segment without it. It is cleared when the next run
//! starts.
//!
//! # Per-worker scratch
//!
//! Everything else a run needs also belongs to the worker: the two rows of
//! cells the recurrence alternates between, the compaction's second arena
//! and forwarding table, a spare set of columns that every merge writes
//! its sorted union into and then swaps with its target, and the heap
//! coalescer's `next`/`prev`/`stamp` vectors and binary heap.
//! A run clears them and keeps their capacity, so a worker that runs many
//! segments stops allocating once its buffers have grown to its largest
//! cell.
//!
//! # Bit-identity
//!
//! The columnar kernels perform the floating-point operations of the
//! scalar recurrence on [`ScoreDistribution`] in the same order — exclude
//! is `shifted_scaled(0.0, p, None)`, each include branch is
//! `merge_from(&below.shifted_scaled(score, p, Some(id)))`, and each cell
//! is coalesced as [`ScoreDistribution::coalesce`] would — and they keep the
//! same witnesses, so [`run`] is bit-identical to it, witness ids included.
//! `tests/support/dp_engine_oracle.rs` keeps that recurrence as the
//! reference and `tests/dp_parity.rs` proptests the engine against it.

use ttk_uncertain::{CoalescePolicy, ScoreDistribution, TupleId};

use super::columns::{Finished, ScoreColumns, Span, Workspace};

/// One row of the dynamic-programming table.
#[derive(Debug, Clone)]
pub enum DpRow {
    /// A single uncertain tuple.
    Simple {
        /// Tuple id (for witness tracking).
        id: TupleId,
        /// Tuple score.
        score: f64,
        /// Membership probability.
        prob: f64,
    },
    /// A compressed ME group ("rule tuple", §3.3.1): when included, exactly
    /// one of the branches appears; when excluded, none of them appears.
    Rule {
        /// The member tuples: `(id, score, probability)`.
        branches: Vec<(TupleId, f64, f64)>,
    },
}

impl DpRow {
    /// Probability that the row contributes no tuple (the exclude branch).
    pub fn exclude_probability(&self) -> f64 {
        match self {
            DpRow::Simple { prob, .. } => (1.0 - prob).max(0.0),
            DpRow::Rule { branches } => (1.0 - branches.iter().map(|b| b.2).sum::<f64>()).max(0.0),
        }
    }

    /// Number of underlying uncertain tuples represented by the row.
    pub fn width(&self) -> usize {
        match self {
            DpRow::Simple { .. } => 1,
            DpRow::Rule { branches } => branches.len(),
        }
    }
}

/// Tuning knobs of the engine.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Maximum number of lines kept in any intermediate or final
    /// distribution (`c'` of §3.2.1). Zero disables coalescing.
    pub max_lines: usize,
    /// How coalesced lines combine.
    pub coalesce_policy: CoalescePolicy,
    /// Whether witness vectors are tracked (needed for c-Typical-Topk; can be
    /// disabled to save memory when only the PMF is needed).
    pub track_witnesses: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_lines: 200,
            coalesce_policy: CoalescePolicy::PaperMean,
            track_witnesses: true,
        }
    }
}

/// Everything one worker reuses from one engine run to the next: the two
/// rows of cells the recurrence alternates between and the kernels'
/// [`Workspace`] (witness arena, spare columns, coalescing buffers).
///
/// A run clears the cells and the arena before it starts and leaves every
/// buffer's capacity in place, so a worker that runs many segments stops
/// allocating once its buffers have grown.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    workspace: Workspace,
    current: Vec<ScoreColumns>,
    next: Vec<ScoreColumns>,
}

/// Runs the dynamic program and returns the distribution of the total score
/// of top-`k` selections over `rows`, where a selection may only have its
/// last selected row at a position `r` with `exits[r] == true`.
///
/// `exits.len()` must equal `rows.len()`.
///
/// The returned distribution is bit-identical to the point-at-a-time
/// formulation on [`ScoreDistribution`]. This entry point runs on fresh
/// scratch; the driver keeps one scratch per worker and reuses it across
/// the segments the worker claims.
pub fn run(rows: &[DpRow], exits: &[bool], k: usize, config: &EngineConfig) -> ScoreDistribution {
    let mut store = Finished::default();
    let span = run_in(&mut Scratch::default(), rows, exits, k, config, &mut store);
    store.distribution(span)
}

/// [`run`] on a worker's `scratch`, with the distribution appended to
/// `store`; returns where it sits there.
///
/// The working cells are [`ScoreColumns`], so the two inner-loop operations
/// run columnar: the exclude branch scales the probability column in place
/// and the include branch fuses shift, scale and merge into one sorted-union
/// sweep into the workspace's spare columns. A witness carried down a
/// branch is one arena cell, and ids are walked out only for the final
/// cell's lines.
pub(crate) fn run_in(
    scratch: &mut Scratch,
    rows: &[DpRow],
    exits: &[bool],
    k: usize,
    config: &EngineConfig,
    store: &mut Finished,
) -> Span {
    assert_eq!(rows.len(), exits.len(), "one exit flag per row");
    if k == 0 || rows.is_empty() {
        return ScoreColumns::empty().store_in(&scratch.workspace, store);
    }
    let Scratch {
        workspace,
        current,
        next,
    } = scratch;
    workspace.clear_witnesses();
    for cells in [&mut *current, &mut *next] {
        cells.resize_with(k + 1, ScoreColumns::empty);
        cells.iter_mut().for_each(ScoreColumns::clear);
    }
    let unit = ScoreColumns::unit(config.track_witnesses);

    // `current[j]` holds D_{i+1, j} while processing row i (bottom-up).
    // Column 0 is *not* stored: the recurrence consults `exits[i]` directly
    // when it needs D_{i+1, 0}, and `current[0]` stays empty in both rows of
    // cells to model the blocked exit. The new cells are written into
    // `next`; the two swap every row.
    for i in (0..rows.len()).rev() {
        let row = &rows[i];
        let exclude_p = row.exclude_probability();
        // Descending j lets the exclude branch *take* `current[j]` and scale
        // it in place — `current[j]` is never read again this row once the
        // cells above it are done, while `current[j - 1]` (the include
        // branch's input) has not been touched yet. Cell values do not depend
        // on the iteration order.
        for j in (1..=k).rev() {
            // Exclude branch: row i contributes nothing.
            let mut cell = std::mem::take(&mut current[j]);
            cell.scale_in_place(exclude_p);
            // Include branch: row i contributes one tuple; the remaining j-1
            // selections come from below (or from the exit when j == 1).
            let below = match j {
                1 if exits[i] => &unit,
                1 => &current[0],
                _ => &current[j - 1],
            };
            if !below.is_empty() {
                match row {
                    DpRow::Simple { id, score, prob } => {
                        cell.merge_shifted_scaled(below, *score, *prob, *id, workspace);
                    }
                    DpRow::Rule { branches } => {
                        for &(id, score, prob) in branches {
                            cell.merge_shifted_scaled(below, score, prob, id, workspace);
                        }
                    }
                }
            }
            if config.max_lines > 0 {
                cell.coalesce(config.max_lines, config.coalesce_policy, workspace);
            }
            // The stale buffers of `next[j]` take the emptied slot, so no
            // cell's capacity is ever dropped.
            current[j] = std::mem::replace(&mut next[j], cell);
        }
        std::mem::swap(current, next);
        // Every live witness is in `current` now; `next` holds stale cells.
        workspace.compact(current);
    }
    current[k].store_in(workspace, store)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple(id: u64, score: f64, prob: f64) -> DpRow {
        DpRow::Simple {
            id: TupleId(id),
            score,
            prob,
        }
    }

    fn cfg() -> EngineConfig {
        EngineConfig {
            max_lines: 0,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn exclude_probability_of_rows() {
        assert!((simple(1, 5.0, 0.3).exclude_probability() - 0.7).abs() < 1e-12);
        let rule = DpRow::Rule {
            branches: vec![(TupleId(1), 5.0, 0.3), (TupleId(2), 4.0, 0.5)],
        };
        assert!((rule.exclude_probability() - 0.2).abs() < 1e-12);
        assert_eq!(rule.width(), 2);
        assert_eq!(simple(1, 5.0, 0.3).width(), 1);
    }

    #[test]
    fn top1_of_two_independent_tuples() {
        // Tuples: A (score 10, 0.5), B (score 4, 0.8).
        // Top-1 = 10 with prob 0.5; 4 with prob 0.5*0.8 = 0.4.
        let rows = vec![simple(1, 10.0, 0.5), simple(2, 4.0, 0.8)];
        let d = run(&rows, &[true, true], 1, &cfg());
        assert_eq!(d.len(), 2);
        assert!((d.cdf(5.0) - 0.4).abs() < 1e-12);
        assert!((d.total_probability() - 0.9).abs() < 1e-12);
        // Witnesses recorded with their probabilities.
        let ws = d.witness_vectors();
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[1].ids(), &[TupleId(1)]);
    }

    #[test]
    fn top2_requires_both_tuples() {
        let rows = vec![simple(1, 10.0, 0.5), simple(2, 4.0, 0.8)];
        let d = run(&rows, &[true, true], 2, &cfg());
        assert_eq!(d.len(), 1);
        assert!((d.points()[0].score - 14.0).abs() < 1e-12);
        assert!((d.points()[0].probability - 0.4).abs() < 1e-12);
        let w = d.points()[0].witness.as_ref().unwrap();
        assert_eq!(w.ids, vec![TupleId(1), TupleId(2)]);
    }

    #[test]
    fn blocked_exits_restrict_endings() {
        // Only vectors ending at the second row are allowed.
        let rows = vec![simple(1, 10.0, 0.5), simple(2, 4.0, 0.8)];
        let d = run(&rows, &[false, true], 1, &cfg());
        // Top-1 ending at row 1 means row 0 must be absent.
        assert_eq!(d.len(), 1);
        assert!((d.points()[0].score - 4.0).abs() < 1e-12);
        assert!((d.points()[0].probability - 0.4).abs() < 1e-12);
    }

    #[test]
    fn rule_rows_enumerate_members_top1() {
        // One ME group {A: 10/0.3, B: 9/0.4} (both members ranked above the
        // independent tuple C: 8/0.5), exits enabled everywhere, k = 1.
        //
        // Ground truth: top-1 = 10 with 0.3 (A appears); 9 with 0.4 (B
        // appears, A automatically absent); 8 with 0.5·(1−0.7) = 0.15 (C
        // appears, neither group member does).
        let rule = DpRow::Rule {
            branches: vec![(TupleId(1), 10.0, 0.3), (TupleId(2), 9.0, 0.4)],
        };
        let rows = vec![rule, simple(3, 8.0, 0.5)];
        let d = run(&rows, &[true, true], 1, &cfg());
        let probs: Vec<(f64, f64)> = d.pairs().collect();
        assert_eq!(probs.len(), 3);
        assert!((probs[0].0 - 8.0).abs() < 1e-12 && (probs[0].1 - 0.15).abs() < 1e-12);
        assert!((probs[1].0 - 9.0).abs() < 1e-12 && (probs[1].1 - 0.4).abs() < 1e-12);
        assert!((probs[2].0 - 10.0).abs() < 1e-12 && (probs[2].1 - 0.3).abs() < 1e-12);
    }

    #[test]
    fn rule_rows_with_restricted_exit_top2() {
        // Same data, but only vectors ending at C are allowed (the per-ending
        // construction of §3.3.2), k = 2.
        //
        // Ground truth: <A, C> with 0.3·0.5 = 0.15 (score 18) and <B, C> with
        // 0.4·0.5 = 0.2 (score 17).
        let rule = DpRow::Rule {
            branches: vec![(TupleId(1), 10.0, 0.3), (TupleId(2), 9.0, 0.4)],
        };
        let rows = vec![rule, simple(3, 8.0, 0.5)];
        let d = run(&rows, &[false, true], 2, &cfg());
        let probs: Vec<(f64, f64)> = d.pairs().collect();
        assert_eq!(probs.len(), 2);
        assert!((probs[0].0 - 17.0).abs() < 1e-12 && (probs[0].1 - 0.2).abs() < 1e-12);
        assert!((probs[1].0 - 18.0).abs() < 1e-12 && (probs[1].1 - 0.15).abs() < 1e-12);
        // Witness of score 17 is <B, C>.
        let w = d.points()[0].witness.as_ref().unwrap();
        assert_eq!(w.ids, vec![TupleId(2), TupleId(3)]);
    }

    #[test]
    fn k_zero_or_empty_rows_give_empty_distribution() {
        assert!(run(&[], &[], 3, &cfg()).is_empty());
        let rows = vec![simple(1, 1.0, 0.5)];
        assert!(run(&rows, &[true], 0, &cfg()).is_empty());
    }

    #[test]
    fn witness_tracking_can_be_disabled() {
        let rows = vec![simple(1, 10.0, 0.5), simple(2, 4.0, 0.8)];
        let mut config = cfg();
        config.track_witnesses = false;
        let d = run(&rows, &[true, true], 1, &config);
        assert!(d.points().iter().all(|p| p.witness.is_none()));
    }

    #[test]
    fn coalescing_limits_lines() {
        let rows: Vec<DpRow> = (0..40)
            .map(|i| simple(i as u64, 1000.0 - i as f64 * 7.3, 0.5))
            .collect();
        let exits = vec![true; rows.len()];
        let config = EngineConfig {
            max_lines: 16,
            ..EngineConfig::default()
        };
        let d = run(&rows, &exits, 3, &config);
        assert!(d.len() <= 16);
        assert!(d.total_probability() <= 1.0 + 1e-9);
    }

    #[test]
    fn certain_tuples_concentrate_all_mass() {
        let rows = vec![
            simple(1, 5.0, 1.0),
            simple(2, 3.0, 1.0),
            simple(3, 1.0, 1.0),
        ];
        let d = run(&rows, &[true, true, true], 2, &cfg());
        assert_eq!(d.len(), 1);
        assert!((d.points()[0].score - 8.0).abs() < 1e-12);
        assert!((d.points()[0].probability - 1.0).abs() < 1e-12);
    }
}
