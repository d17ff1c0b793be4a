//! The generic dynamic-programming engine shared by the main algorithm.
//!
//! The engine runs the recurrence of §3.2 forward over an abstract sequence
//! of [`DpRow`]s. A row is either a *simple* uncertain tuple or a *rule
//! tuple* (§3.3.1) compressing an ME group into one row whose include branch
//! enumerates the member tuples. Exit points (the auxiliary column 0 of the
//! paper, §3.3.2) are enabled per row: a top-k vector may have its last
//! (lowest-ranked) member at row `r` only when `exits[r]` is true.
//!
//! The drivers in [`super`] decide how tables are translated into rows and
//! which exits are enabled; the engine is agnostic to those decisions.
//!
//! # Forward cells and exit rows
//!
//! The state is `k` cells `G[0..k)`: `G[j]` is the score distribution of
//! "exactly `j` of the rows applied so far are present, the rest absent",
//! and `G[0]` starts as the unit (score 0, probability 1). Applying a row
//! with exclude probability `q` updates `j = k − 1` down to 1 — scale
//! `G[j]` by `q`, merge `G[j − 1]` shifted by each branch's score and
//! scaled by its probability, coalesce — and finally scales `G[0]` by `q`.
//! Descending `j` reads each `G[j − 1]` before it changes.
//!
//! Before an exit row is applied, each of its branches adds
//! `p · shift(G[k − 1])` into the answer cell, which is then coalesced:
//! those are the selections whose last member is that row. Later rows
//! never scale the answer, because rows below a vector's last member do not
//! affect it. A vector's rows are the ones it selects, so the order of the
//! rows above an exit changes only the float order of the sums, never the
//! distribution.
//!
//! Running forward lets the driver share work between ending segments.
//! `Forward` holds one worker's state and has no base: the driver walks a
//! tree of segments, applying each row once to the cells every segment
//! below a node shares, and `Forward::push` / `Forward::pop` save and
//! restore the cells around a node's left child. `Forward::export` copies
//! the cells for another worker — each line's score, probability and
//! witness, ids walked out of the arena — and `Forward::import` starts from
//! such a copy with the witness chains re-rooted in its own arena, so the
//! copy changes no bit.
//!
//! # Cells and the witness arena
//!
//! A cell is a score distribution held as parallel columns: the scores
//! (ascending), their probabilities, and, when witnesses are tracked, one
//! `(probability, cell)` pair per line. That cell indexes an arena of
//! `(TupleId, parent)` cells, and a witness vector is the chain from its
//! cell up to the root. The include branch puts the row's tuple in front
//! of every witness it carries: one pushed cell whose parent is the old
//! chain, so a witness shares the rest of its vector with the one it came
//! from, and a step costs one 16-byte cell instead of a copied id vector.
//! The chain therefore lists the rows last applied first; [`run`] returns
//! each witness in row order. Ids are walked out only for the answer's
//! lines (at most `max_lines` per segment), into the worker's flat result
//! store.
//!
//! Cells that no surviving line reaches any more are dead. After a row,
//! once the arena has grown to twice what its last compaction kept (and
//! to at least 16,384 cells), the chains the live cells — the working
//! cells, every saved state and the answer — reach are copied into a
//! fresh arena, shared tails once. The arena therefore stays proportional
//! to the live lines instead of growing with every row.
//!
//! # Per-worker scratch
//!
//! Everything else a worker needs also belongs to it: the compaction's
//! second arena and forwarding table, a spare set of columns that every
//! merge writes its sorted union into and then swaps with its target, and
//! the [`Coalescer`](ttk_uncertain::Coalescer)'s line and gap buffers.
//! Saving the cells copies them into saved states that keep their
//! capacity from one save to the next, so a worker that runs many segments
//! stops allocating once its buffers have grown to its largest cell.
//! Nothing in them carries over from one call to the next: every kernel
//! clears what it reads before filling it.
//!
//! # Kernels
//!
//! The columnar kernels perform the floating-point operations of the
//! scalar recurrence on [`ScoreDistribution`] in the same order — exclude
//! is `shifted_scaled(0.0, p, None)`, each include branch is
//! `merge_from(&below.shifted_scaled(score, p, Some(id)))`, and each cell
//! is coalesced as [`ScoreDistribution::coalesce`] would — and they keep the
//! same witnesses, so [`run`] is bit-identical to the scalar forward
//! recurrence, witness ids included. `tests/support/dp_engine_oracle.rs`
//! keeps that recurrence as the reference and `tests/dp_parity.rs`
//! proptests the engine against it.

use ttk_uncertain::{CoalescePolicy, ScoreDistribution, TupleId};

use super::columns::{Finished, ScoreColumns, Span, Workspace};

/// One include branch of a row: `(id, score, probability)`.
pub(crate) type Branch = (TupleId, f64, f64);

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
            DpRow::Rule { branches } => exclude_probability(branches),
        }
    }

    /// Number of underlying uncertain tuples represented by the row.
    pub fn width(&self) -> usize {
        match self {
            DpRow::Simple { .. } => 1,
            DpRow::Rule { branches } => branches.len(),
        }
    }

    /// The row's include branches.
    fn branches(&self) -> std::borrow::Cow<'_, [Branch]> {
        match self {
            DpRow::Simple { id, score, prob } => vec![(*id, *score, *prob)].into(),
            DpRow::Rule { branches } => branches.as_slice().into(),
        }
    }
}

/// Probability that a row with these include branches contributes no tuple.
/// A one-branch row is a simple tuple: `1 − p` either way.
fn exclude_probability(branches: &[Branch]) -> f64 {
    (1.0 - branches.iter().map(|b| b.2).sum::<f64>()).max(0.0)
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

/// Runs the dynamic program and returns the distribution of the total score
/// of top-`k` selections over `rows`, where a selection may only have its
/// last selected row at a position `r` with `exits[r] == true`. Witness ids
/// are listed in row order.
///
/// `exits.len()` must equal `rows.len()`.
///
/// The returned distribution is bit-identical to the point-at-a-time forward
/// recurrence on [`ScoreDistribution`]. This entry point runs on fresh
/// scratch, starting from the unit; the driver keeps one `Forward` per
/// worker and reuses it across the subtrees the worker walks.
pub fn run(rows: &[DpRow], exits: &[bool], k: usize, config: &EngineConfig) -> ScoreDistribution {
    assert_eq!(rows.len(), exits.len(), "one exit flag per row");
    if k == 0 || rows.is_empty() {
        return ScoreDistribution::empty();
    }
    let mut forward = Forward::new(k, *config);
    for (i, (row, &exit)) in rows.iter().zip(exits).enumerate() {
        let branches = row.branches();
        if exit {
            forward.exit(&branches);
        }
        if i + 1 < rows.len() {
            forward.apply(&branches);
        }
    }
    let mut store = Finished::default();
    let span = forward.finish(&mut store);
    // The chains list the last applied row first.
    let mut points = store.distribution(span).points().to_vec();
    for witness in points.iter_mut().filter_map(|point| point.witness.as_mut()) {
        witness.ids.reverse();
    }
    ScoreDistribution::from_points(points)
}

/// The forward recurrence on one worker: the working cells `G[0..k)`, the
/// states saved from them, the answer cell of the segment in progress,
/// and the kernels' [`Workspace`] (witness arena, spare columns,
/// coalescing buffers).
///
/// The cells start as the unit in `G[0]`, or as a state another worker
/// [`export`](Self::export)ed and this one [`import`](Self::import)s.
/// [`apply`](Self::apply) adds a row to them. [`push`](Self::push) saves
/// them and [`pop`](Self::pop) restores the last saved state, so a walk
/// can return to a node after visiting its left child. A segment adds its
/// tuples with [`exit`](Self::exit) then [`apply`](Self::apply) and hands
/// its answer over with [`finish`](Self::finish). The cells, the saved
/// states and the answer share the worker's witness arena, and every
/// compaction keeps the chains all of them reach.
#[derive(Debug)]
pub(crate) struct Forward {
    config: EngineConfig,
    workspace: Workspace,
    /// `G[0..k)` after every applied row.
    cells: Vec<ScoreColumns>,
    /// The saved states, innermost last: `saved[..depth]` are in use and
    /// the rest keep their capacity for the next push.
    saved: Vec<Vec<ScoreColumns>>,
    depth: usize,
    /// The segment's distribution so far; empty between segments.
    answer: ScoreColumns,
}

/// A copy of a worker's cells that another worker can start from: each
/// cell's lines with their witness ids walked out of the exporter's arena.
#[derive(Debug, Default)]
pub(crate) struct Exported {
    store: Finished,
    cells: Vec<Span>,
}

impl Forward {
    /// A worker's state for top-`k` selections (`k ≥ 1`): the unit in
    /// `G[0]`, no row applied yet.
    pub(crate) fn new(k: usize, config: EngineConfig) -> Self {
        assert!(k > 0, "top-0 selections have no rows");
        let mut forward = Forward {
            config,
            workspace: Workspace::default(),
            cells: vec![ScoreColumns::empty(); k],
            saved: Vec::new(),
            depth: 0,
            answer: ScoreColumns::empty(),
        };
        forward.reset();
        forward
    }

    /// Returns to the unit in `G[0]`, with nothing saved.
    pub(crate) fn reset(&mut self) {
        self.cells.iter_mut().for_each(ScoreColumns::clear);
        self.cells[0].copy_from(&ScoreColumns::unit(self.config.track_witnesses));
        self.depth = 0;
        self.answer.clear();
    }

    /// Applies a row to the cells.
    pub(crate) fn apply(&mut self, branches: &[Branch]) {
        apply_row(&mut self.cells, branches, &self.config, &mut self.workspace);
        self.compact();
    }

    /// Adds the selections ending at a row with these branches to the
    /// answer: `p · shift(G[k − 1])` per branch, then coalesces it. The
    /// row itself is not applied.
    pub(crate) fn exit(&mut self, branches: &[Branch]) {
        let Forward {
            config,
            workspace,
            cells,
            answer,
            ..
        } = self;
        let top = &cells[cells.len() - 1];
        if top.is_empty() {
            return;
        }
        for &(id, score, prob) in branches {
            answer.merge_shifted_scaled(top, score, prob, Some(id), workspace);
        }
        if config.max_lines > 0 {
            answer.coalesce(config.max_lines, config.coalesce_policy, workspace);
        }
        self.compact();
    }

    /// Ends the segment: appends the answer to `store`, with each witness
    /// listing the last applied row first, and returns where it sits there.
    /// The cells are left as they are.
    pub(crate) fn finish(&mut self, store: &mut Finished) -> Span {
        let span = self.answer.store_in(&self.workspace, store);
        self.answer.clear();
        span
    }

    /// Saves a copy of the cells.
    pub(crate) fn push(&mut self) {
        if self.saved.len() == self.depth {
            self.saved
                .push(vec![ScoreColumns::empty(); self.cells.len()]);
        }
        for (saved, cell) in self.saved[self.depth].iter_mut().zip(&self.cells) {
            saved.copy_from(cell);
        }
        self.depth += 1;
    }

    /// Restores the cells saved by the last unmatched [`push`](Self::push).
    pub(crate) fn pop(&mut self) {
        self.depth -= 1;
        std::mem::swap(&mut self.cells, &mut self.saved[self.depth]);
    }

    /// An exact copy of the cells for another worker: every line's score,
    /// probability and witness (its probability and ids).
    pub(crate) fn export(&self) -> Exported {
        let mut exported = Exported::default();
        for cell in &self.cells {
            let span = cell.store_in(&self.workspace, &mut exported.store);
            exported.cells.push(span);
        }
        exported
    }

    /// Makes the cells the exported ones, their witness chains re-rooted in
    /// this worker's arena, with nothing saved and no answer.
    pub(crate) fn import(&mut self, exported: &Exported) {
        for (cell, &span) in self.cells.iter_mut().zip(&exported.cells) {
            cell.load(&exported.store, span, &mut self.workspace);
        }
        self.depth = 0;
        self.answer.clear();
        self.compact();
    }

    /// Compacts the witness arena to the chains the cells, the saved states
    /// and the answer reach.
    fn compact(&mut self) {
        let Forward {
            workspace,
            cells,
            saved,
            depth,
            answer,
            ..
        } = self;
        workspace.compact(
            cells
                .iter_mut()
                .chain(saved[..*depth].iter_mut().flatten())
                .chain(std::iter::once(answer)),
        );
    }
}

/// Applies one row to the cells `G[0..k)` in place.
///
/// The working cells are [`ScoreColumns`], so the two inner-loop operations
/// run columnar: the exclude branch scales the probability column in place
/// and the include branch fuses shift, scale and merge into one sorted-union
/// sweep into the workspace's spare columns.
fn apply_row(
    cells: &mut [ScoreColumns],
    branches: &[Branch],
    config: &EngineConfig,
    workspace: &mut Workspace,
) {
    let exclude_p = exclude_probability(branches);
    for j in (1..cells.len()).rev() {
        let (lower, upper) = cells.split_at_mut(j);
        let (cell, below) = (&mut upper[0], &lower[j - 1]);
        // Exclude branch: the row contributes nothing.
        cell.scale_in_place(exclude_p);
        // Include branch: the row contributes one tuple on top of j - 1
        // from the rows before it.
        if !below.is_empty() {
            for &(id, score, prob) in branches {
                cell.merge_shifted_scaled(below, score, prob, Some(id), workspace);
            }
        }
        if config.max_lines > 0 {
            cell.coalesce(config.max_lines, config.coalesce_policy, workspace);
        }
    }
    cells[0].scale_in_place(exclude_p);
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
