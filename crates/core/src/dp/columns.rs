//! The dynamic program's working cells: score distributions held as
//! parallel columns, with witnesses kept in a per-worker arena, and the
//! per-worker [`Workspace`] their kernels reuse. The layout, the scratch
//! and the bit-identity contract are described in the [`super::engine`]
//! module doc.
//!
//! Each kernel names the scalar [`ScoreDistribution`] call it replaces:
//! [`scale_in_place`](ScoreColumns::scale_in_place) is
//! `shifted_scaled(0.0, factor, None)`,
//! [`merge_shifted_scaled`](ScoreColumns::merge_shifted_scaled) is
//! `merge_from(&below.shifted_scaled(delta, factor, Some(id)))`, and
//! [`coalesce`](ScoreColumns::coalesce) is
//! [`ScoreDistribution::coalesce`].

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use ttk_uncertain::{
    scores_equal, CoalescePolicy, DistributionPoint, ScoreDistribution, TupleId, VectorWitness,
};

/// The end of every witness chain: the unit cell's empty vector.
const ROOT: usize = usize::MAX;

/// One arena cell: the first tuple of a witness vector and the cell
/// holding the rest of it.
#[derive(Debug, Clone, Copy)]
struct Cell {
    id: TupleId,
    parent: usize,
}

/// The witness of one line: its probability and its chain in the arena.
#[derive(Debug, Clone, Copy)]
struct Witness {
    probability: f64,
    cell: usize,
}

/// The buffers one worker's kernels reuse: the witness arena and what its
/// compaction copies through, the spare columns a merge swaps in, and the
/// heap coalescer's line links, stamps and heap.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    arena: Vec<Cell>,
    /// Cells the last [`compact`](Self::compact) of this run kept.
    kept: usize,
    /// The arena a compaction copies the live chains into.
    moved: Vec<Cell>,
    /// During a compaction, each old cell's index in `moved` ([`ROOT`]
    /// while not copied yet).
    forward: Vec<usize>,
    /// The not-yet-copied cells of the chain being copied, head first.
    path: Vec<usize>,
    spare: ScoreColumns,
    next: Vec<u32>,
    prev: Vec<u32>,
    stamp: Vec<u32>,
    heap: BinaryHeap<Reverse<GapEntry>>,
}

/// Arena cells (16 bytes each) a run may hold before its first compaction.
/// Thresholds from 8,192 to 65,536 cells timed alike (within run-to-run
/// noise) on both CarTel relations at k = 5, 8 and 10; the smaller one
/// keeps less memory.
const COMPACT_FROM: usize = 1 << 14;

impl Workspace {
    /// Forgets every witness chain. Columns built before the call must not
    /// be read afterwards.
    pub(crate) fn clear_witnesses(&mut self) {
        self.arena.clear();
        self.kept = 0;
    }

    /// Copies the chains the witnesses of `live` reach into a fresh arena
    /// and points the witnesses at the copies, once the arena has grown to
    /// twice what the last compaction kept (and at least
    /// [`COMPACT_FROM`] cells). Witnesses in columns not passed in must
    /// not be read afterwards.
    ///
    /// Cells no live witness reaches are dropped, and chains that shared a
    /// tail still share its copy, so the arena stays proportional to the
    /// live lines instead of growing with every row. Ids and witness
    /// probabilities are untouched.
    pub(crate) fn compact(&mut self, live: &mut [ScoreColumns]) {
        if self.arena.len() < COMPACT_FROM.max(2 * self.kept) {
            return;
        }
        self.forward.clear();
        self.forward.resize(self.arena.len(), ROOT);
        self.moved.clear();
        for columns in live {
            for witness in &mut columns.witnesses {
                witness.cell = self.relocate(witness.cell);
            }
        }
        std::mem::swap(&mut self.arena, &mut self.moved);
        self.kept = self.arena.len();
    }

    /// The copy in `moved` of the chain ending at `cell`, copying the cells
    /// not copied yet (root side first, so parents precede children).
    fn relocate(&mut self, mut cell: usize) -> usize {
        while cell != ROOT && self.forward[cell] == ROOT {
            self.path.push(cell);
            cell = self.arena[cell].parent;
        }
        let mut copy = if cell == ROOT {
            ROOT
        } else {
            self.forward[cell]
        };
        while let Some(old) = self.path.pop() {
            self.moved.push(Cell {
                id: self.arena[old].id,
                parent: copy,
            });
            copy = self.moved.len() - 1;
            self.forward[old] = copy;
        }
        copy
    }

    /// The witness `w` carried down a branch: `id` prepended to its vector
    /// and its probability scaled by `factor`.
    fn prepend(&mut self, id: TupleId, w: Witness, factor: f64) -> Witness {
        self.arena.push(Cell { id, parent: w.cell });
        Witness {
            probability: w.probability * factor,
            cell: self.arena.len() - 1,
        }
    }
}

/// A score distribution in columns: scores ascending, the probability of
/// each line, and each line's witness when witnesses are tracked.
///
/// Witness tracking is all-or-nothing: the witness column is either empty
/// (witnesses disabled) or exactly as long as the score column. Mixing a
/// tracked operand with an untracked one is unsupported (debug-asserted).
#[derive(Debug, Clone, Default)]
pub(crate) struct ScoreColumns {
    scores: Vec<f64>,
    probs: Vec<f64>,
    witnesses: Vec<Witness>,
}

/// One candidate pair in the coalescing heap: the gap between line `left`
/// and its right neighbour at the time the entry was pushed. Ordered by
/// `(gap, left)` so the heap pops exactly the pair the scan-for-minimum loop
/// would pick (leftmost on equal gaps); `stamp` detects stale entries.
#[derive(Debug, PartialEq)]
struct GapEntry {
    gap: f64,
    left: u32,
    stamp: u32,
}

impl Eq for GapEntry {}

impl PartialOrd for GapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for GapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gap
            .total_cmp(&other.gap)
            .then(self.left.cmp(&other.left))
            .then(self.stamp.cmp(&other.stamp))
    }
}

/// Excess × lines from which [`ScoreColumns::coalesce`] switches from the
/// scan to the heap.
///
/// Measured with both coalescers on warm workspace buffers (release build,
/// 2 vCPUs): at `max_lines` 100, 200 and 400 the heap overtakes the scan
/// at 10–16 excess lines, a product of 1,900–4,100; at `max_lines` 25–50
/// the two stay within ~20 % of each other up to ~14,000.
const COALESCE_HEAP_FROM: usize = 4096;

impl ScoreColumns {
    /// The empty distribution: the engine's initial cell value and the
    /// blocked exit point of §3.3.2.
    pub(crate) fn empty() -> Self {
        ScoreColumns::default()
    }

    /// The unit distribution (score 0, probability 1): the enabled exit
    /// point. With `track_witnesses` its line carries the empty witness.
    pub(crate) fn unit(track_witnesses: bool) -> Self {
        ScoreColumns {
            scores: vec![0.0],
            probs: vec![1.0],
            witnesses: if track_witnesses {
                vec![Witness {
                    probability: 1.0,
                    cell: ROOT,
                }]
            } else {
                Vec::new()
            },
        }
    }

    /// Number of score lines.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.scores.len()
    }

    /// True when the distribution carries no mass.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Drops every line, keeping the allocated capacity.
    pub(crate) fn clear(&mut self) {
        self.scores.clear();
        self.probs.clear();
        self.witnesses.clear();
    }

    /// Scales every probability (line and witness) by `factor` in place: the
    /// exclude branch of the recurrence. Equivalent to
    /// [`ScoreDistribution::shifted_scaled`]`(0.0, factor, None)` including
    /// its `score + 0.0` normalization of negative zeros. A non-positive
    /// `factor` empties the distribution.
    pub(crate) fn scale_in_place(&mut self, factor: f64) {
        if factor <= 0.0 {
            self.clear();
            return;
        }
        for s in &mut self.scores {
            *s += 0.0;
        }
        for p in &mut self.probs {
            *p *= factor;
        }
        for w in &mut self.witnesses {
            w.probability *= factor;
        }
    }

    /// Merges `below`, shifted by `delta` and scaled by `factor` with `id`
    /// prepended to every witness, into `self`: the include branch of the
    /// recurrence, steps (2) and (3) of §3.2 in one sorted-union pass.
    ///
    /// Bit-identical to `merge_from(&below.shifted_scaled(delta, factor,
    /// Some(id)))` on the equivalent [`ScoreDistribution`]s: equal lines
    /// (under [`scores_equal`]) sum as `self + below` and keep the strictly
    /// more probable witness. The union is written into the workspace's
    /// spare columns, which then swap with `self`, and a `below` witness
    /// costs an arena cell only when its line survives.
    pub(crate) fn merge_shifted_scaled(
        &mut self,
        below: &ScoreColumns,
        delta: f64,
        factor: f64,
        id: TupleId,
        workspace: &mut Workspace,
    ) {
        if factor <= 0.0 || below.is_empty() {
            return;
        }
        let tracked = !below.witnesses.is_empty();
        debug_assert!(
            self.is_empty() || self.witnesses.is_empty() != tracked,
            "mixing witness-tracked and untracked operands"
        );
        if self.is_empty() {
            self.scores.extend(below.scores.iter().map(|s| s + delta));
            self.probs.extend(below.probs.iter().map(|p| p * factor));
            for &w in &below.witnesses {
                self.witnesses.push(workspace.prepend(id, w, factor));
            }
            return;
        }
        let mut out = std::mem::take(&mut workspace.spare);
        out.clear();
        let (a_len, b_len) = (self.len(), below.len());
        let (mut ia, mut ib) = (0, 0);
        while ia < a_len && ib < b_len {
            let a_score = self.scores[ia];
            let b_score = below.scores[ib] + delta;
            if scores_equal(a_score, b_score) {
                out.scores.push(a_score);
                out.probs.push(self.probs[ia] + below.probs[ib] * factor);
                if tracked {
                    let mut w = self.witnesses[ia];
                    let bw = below.witnesses[ib];
                    if bw.probability * factor > w.probability {
                        w = workspace.prepend(id, bw, factor);
                    }
                    out.witnesses.push(w);
                }
                ia += 1;
                ib += 1;
            } else if a_score < b_score {
                out.scores.push(a_score);
                out.probs.push(self.probs[ia]);
                if tracked {
                    out.witnesses.push(self.witnesses[ia]);
                }
                ia += 1;
            } else {
                out.scores.push(b_score);
                out.probs.push(below.probs[ib] * factor);
                if tracked {
                    out.witnesses
                        .push(workspace.prepend(id, below.witnesses[ib], factor));
                }
                ib += 1;
            }
        }
        out.scores.extend_from_slice(&self.scores[ia..]);
        out.probs.extend_from_slice(&self.probs[ia..]);
        if tracked {
            out.witnesses.extend_from_slice(&self.witnesses[ia..]);
        }
        out.scores
            .extend(below.scores[ib..].iter().map(|s| s + delta));
        out.probs
            .extend(below.probs[ib..].iter().map(|p| p * factor));
        if tracked {
            for &w in &below.witnesses[ib..] {
                out.witnesses.push(workspace.prepend(id, w, factor));
            }
        }
        std::mem::swap(self, &mut out);
        workspace.spare = out;
    }

    /// Coalesces lines until at most `max_lines` remain: the columnar
    /// [`ScoreDistribution::coalesce`], merging the same pairs in the same
    /// order with the same arithmetic (bit-identical results).
    ///
    /// Two implementations with identical output are dispatched on size. For
    /// a handful of merges the rescan-after-every-merge loop wins: the scan
    /// is a branch-light pass over the contiguous score column. Past the
    /// crossover the lazy min-heap version takes over, dropping the cost
    /// from O((n − max)·n) to O(n log n).
    pub(crate) fn coalesce(
        &mut self,
        max_lines: usize,
        policy: CoalescePolicy,
        workspace: &mut Workspace,
    ) {
        if max_lines == 0 || self.len() <= max_lines {
            return;
        }
        // Scan cost ~ excess·n, heap cost ~ (n + excess)·log n on reused
        // buffers; the constant puts the crossover where the two measure
        // about even for the line budgets in use.
        if (self.len() - max_lines) * self.len() < COALESCE_HEAP_FROM {
            self.coalesce_scan(max_lines, policy);
        } else {
            self.coalesce_heap(max_lines, policy, workspace);
        }
    }

    /// The scan-for-minimum coalescing loop: optimal for a small number of
    /// merges over a short score column.
    fn coalesce_scan(&mut self, max_lines: usize, policy: CoalescePolicy) {
        while self.len() > max_lines {
            let mut best = 0;
            let mut best_gap = f64::INFINITY;
            for i in 0..self.scores.len() - 1 {
                let gap = self.scores[i + 1] - self.scores[i];
                if gap < best_gap {
                    best_gap = gap;
                    best = i;
                }
            }
            let right_score = self.scores.remove(best + 1);
            let right_prob = self.probs.remove(best + 1);
            let merged_prob = self.probs[best] + right_prob;
            self.scores[best] = match policy {
                CoalescePolicy::PaperMean => (self.scores[best] + right_score) / 2.0,
                CoalescePolicy::WeightedMean => {
                    (self.scores[best] * self.probs[best] + right_score * right_prob) / merged_prob
                }
            };
            self.probs[best] = merged_prob;
            if !self.witnesses.is_empty() {
                let right_witness = self.witnesses.remove(best + 1);
                if right_witness.probability > self.witnesses[best].probability {
                    self.witnesses[best] = right_witness;
                }
            }
        }
    }

    /// Heap-based coalescing: the closest pair is tracked in a lazy min-heap
    /// over the neighbour gaps, with a doubly-linked list threading the
    /// surviving lines. A merge invalidates at most the two gaps adjacent to
    /// the merged pair; fresh entries are pushed and stale ones discarded on
    /// pop via per-line stamps. The selection order is identical to the
    /// scan — the heap orders by `(gap, position)` and the scan keeps the
    /// leftmost line on equal gaps (scores are ascending, so gaps are never
    /// negative zero and `f64::total_cmp` agrees with `<` on them) — and the
    /// merge arithmetic is untouched, so results stay bit-exact.
    fn coalesce_heap(
        &mut self,
        max_lines: usize,
        policy: CoalescePolicy,
        workspace: &mut Workspace,
    ) {
        let n = self.len();
        let tracked = !self.witnesses.is_empty();
        // Line `i` is alive while `next[i] != DEAD`; `next`/`prev` thread the
        // surviving lines in ascending-score order (original indices never
        // reorder, so index order == scan order). `stamp[i]` versions the gap
        // between line `i` and its current right neighbour.
        const TAIL: u32 = u32::MAX;
        const DEAD: u32 = u32::MAX - 1;
        let Workspace {
            next,
            prev,
            stamp,
            heap,
            ..
        } = workspace;
        next.clear();
        next.extend(1..n as u32);
        next.push(TAIL);
        prev.clear();
        prev.push(TAIL);
        prev.extend(0..n as u32 - 1);
        stamp.clear();
        stamp.resize(n, 0);
        let mut entries = std::mem::take(heap).into_vec();
        entries.clear();
        entries.extend((0..n - 1).map(|i| {
            Reverse(GapEntry {
                gap: self.scores[i + 1] - self.scores[i],
                left: i as u32,
                stamp: 0,
            })
        }));
        *heap = BinaryHeap::from(entries);
        let mut remaining = n;
        while remaining > max_lines {
            let entry = heap.pop().expect("a gap per excess line").0;
            let left = entry.left as usize;
            // Stale: the left line died, or its right-neighbour gap changed
            // since the entry was pushed.
            if next[left] == DEAD || entry.stamp != stamp[left] {
                continue;
            }
            let right = next[left] as usize;
            debug_assert_ne!(next[right], DEAD);
            let right_score = self.scores[right];
            let right_prob = self.probs[right];
            let merged_prob = self.probs[left] + right_prob;
            self.scores[left] = match policy {
                CoalescePolicy::PaperMean => (self.scores[left] + right_score) / 2.0,
                CoalescePolicy::WeightedMean => {
                    (self.scores[left] * self.probs[left] + right_score * right_prob) / merged_prob
                }
            };
            self.probs[left] = merged_prob;
            if tracked && self.witnesses[right].probability > self.witnesses[left].probability {
                self.witnesses[left] = self.witnesses[right];
            }
            // Unlink `right` and refresh the two affected gaps.
            let after = next[right];
            next[left] = after;
            next[right] = DEAD;
            if after != TAIL {
                prev[after as usize] = left as u32;
            }
            remaining -= 1;
            stamp[left] = stamp[left].wrapping_add(1);
            if after != TAIL {
                heap.push(Reverse(GapEntry {
                    gap: self.scores[after as usize] - self.scores[left],
                    left: left as u32,
                    stamp: stamp[left],
                }));
            }
            let before = prev[left];
            if before != TAIL {
                let before = before as usize;
                stamp[before] = stamp[before].wrapping_add(1);
                heap.push(Reverse(GapEntry {
                    gap: self.scores[left] - self.scores[before],
                    left: before as u32,
                    stamp: stamp[before],
                }));
            }
        }
        // Compact the survivors in place, preserving order.
        let mut keep = 0;
        for (i, &slot) in next.iter().enumerate() {
            if slot != DEAD {
                self.scores[keep] = self.scores[i];
                self.probs[keep] = self.probs[i];
                if tracked {
                    self.witnesses[keep] = self.witnesses[i];
                }
                keep += 1;
            }
        }
        self.scores.truncate(keep);
        self.probs.truncate(keep);
        self.witnesses.truncate(keep);
    }

    /// Appends every line to `store`, with each witness's ids walked out of
    /// the workspace arena, and returns where the lines sit.
    pub(crate) fn store_in(&self, workspace: &Workspace, store: &mut Finished) -> Span {
        let span = Span {
            start: store.scores.len(),
            end: store.scores.len() + self.len(),
            witnesses: (!self.witnesses.is_empty()).then_some(store.witnesses.len()),
        };
        store.scores.extend_from_slice(&self.scores);
        store.probs.extend_from_slice(&self.probs);
        for w in &self.witnesses {
            let mut cell = w.cell;
            while cell != ROOT {
                let Cell { id, parent } = workspace.arena[cell];
                store.ids.push(id);
                cell = parent;
            }
            store.witnesses.push((w.probability, store.ids.len()));
        }
        span
    }
}

/// Finished distributions stored flat, one after another: the lines'
/// scores and probabilities, and for each witness its probability and the
/// end of its ids in one shared id column (it starts where the previous
/// witness's ids end).
///
/// A worker keeps its segments' results here until the driver merges them,
/// so holding every segment's result costs a few contiguous buffers per
/// worker rather than one id vector per line.
#[derive(Debug, Default)]
pub(crate) struct Finished {
    scores: Vec<f64>,
    probs: Vec<f64>,
    witnesses: Vec<(f64, usize)>,
    ids: Vec<TupleId>,
}

/// Where one distribution sits in a [`Finished`] store: its lines, and the
/// index of its first witness when witnesses are tracked.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Span {
    start: usize,
    end: usize,
    witnesses: Option<usize>,
}

impl Finished {
    /// The distribution stored at `span`.
    pub(crate) fn distribution(&self, span: Span) -> ScoreDistribution {
        let points = (span.start..span.end)
            .enumerate()
            .map(|(offset, line)| DistributionPoint {
                score: self.scores[line],
                probability: self.probs[line],
                witness: span.witnesses.map(|first| {
                    let w = first + offset;
                    let (probability, end) = self.witnesses[w];
                    let start = w.checked_sub(1).map_or(0, |prev| self.witnesses[prev].1);
                    VectorWitness {
                        ids: self.ids[start..end].to_vec(),
                        probability,
                    }
                }),
            })
            .collect();
        ScoreDistribution::from_points(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(pairs: &[(f64, f64)]) -> ScoreDistribution {
        ScoreDistribution::from_pairs(pairs.iter().copied())
    }

    impl ScoreColumns {
        /// The columns as a [`ScoreDistribution`], through a store of their
        /// own.
        fn to_distribution(&self, workspace: &Workspace) -> ScoreDistribution {
            let mut store = Finished::default();
            let span = self.store_in(workspace, &mut store);
            store.distribution(span)
        }
    }

    /// Columns of a distribution whose points either all carry witnesses or
    /// none do, with each witness's ids pushed into `workspace` as a chain.
    fn columns_of(d: &ScoreDistribution, workspace: &mut Workspace) -> ScoreColumns {
        let tracked = d.points().iter().all(|p| p.witness.is_some()) && !d.is_empty();
        let mut columns = ScoreColumns {
            scores: d.points().iter().map(|p| p.score).collect(),
            probs: d.points().iter().map(|p| p.probability).collect(),
            witnesses: Vec::new(),
        };
        if tracked {
            for point in d.points() {
                let witness = point.witness.as_ref().unwrap();
                let mut chain = Witness {
                    probability: witness.probability,
                    cell: ROOT,
                };
                for &id in witness.ids.iter().rev() {
                    chain = workspace.prepend(id, chain, 1.0);
                }
                columns.witnesses.push(chain);
            }
        }
        columns
    }

    fn witnessed(pairs: &[(f64, f64)], seed: u64) -> ScoreDistribution {
        let points = pairs
            .iter()
            .enumerate()
            .map(|(i, &(score, probability))| DistributionPoint {
                score,
                probability,
                witness: Some(VectorWitness {
                    ids: vec![TupleId(seed + i as u64), TupleId(seed + 100 + i as u64)],
                    probability: probability * 0.9,
                }),
            })
            .collect();
        ScoreDistribution::from_points(points)
    }

    #[test]
    fn exclude_then_include_on_the_unit() {
        // D = 0.3 · unit  ∪  (unit shifted by 5.0, scaled by 0.7)
        let mut workspace = Workspace::default();
        let unit = ScoreColumns::unit(false);
        let mut d = unit.clone();
        d.scale_in_place(0.3);
        d.merge_shifted_scaled(&unit, 5.0, 0.7, TupleId(1), &mut workspace);
        let dist = d.to_distribution(&workspace);
        assert_eq!(
            dist.pairs().collect::<Vec<_>>(),
            vec![(0.0, 0.3), (5.0, 0.7)]
        );
    }

    #[test]
    fn columns_scale_matches_shifted_scaled_bit_exactly() {
        let base = witnessed(&[(-0.0, 0.25), (1.5, 0.5), (8.0, 0.125)], 7);
        for factor in [0.3, 1.0, 0.0, -1.0] {
            let scalar = base.shifted_scaled(0.0, factor, None);
            let mut workspace = Workspace::default();
            let mut cols = columns_of(&base, &mut workspace);
            cols.scale_in_place(factor);
            // PartialEq compares exact f64 values; the `-0.0 + 0.0`
            // normalization of the score column is checked by its bits.
            let columnar = cols.to_distribution(&workspace);
            assert_eq!(columnar, scalar, "factor {factor}");
            for (c, s) in columnar.points().iter().zip(scalar.points()) {
                assert_eq!(c.score.to_bits(), s.score.to_bits());
            }
        }
    }

    #[test]
    fn columns_merge_matches_shift_then_merge_bit_exactly() {
        // Scores engineered so the union hits every branch: strictly
        // interleaved lines, epsilon-equal lines (witness comparison both
        // ways), and tails on both sides.
        let acc = witnessed(&[(1.0, 0.2), (4.0, 0.4), (9.0, 0.1), (12.0, 0.05)], 1);
        let below = witnessed(
            &[(0.5, 0.3), (2.0 + 1e-13, 0.9), (7.0, 0.6), (20.0, 0.01)],
            50,
        );
        // One workspace for every merge: the spare columns and the arena
        // carry over from call to call.
        let mut workspace = Workspace::default();
        for (delta, factor, id) in [
            (2.0, 0.7, TupleId(999)),
            (0.0, 1.0, TupleId(8)),
            (-3.0, 0.001, TupleId(5)),
        ] {
            let mut scalar = acc.clone();
            scalar.merge_from(&below.shifted_scaled(delta, factor, Some(id)));
            let mut cols = columns_of(&acc, &mut workspace);
            let below_cols = columns_of(&below, &mut workspace);
            cols.merge_shifted_scaled(&below_cols, delta, factor, id, &mut workspace);
            assert_eq!(cols.to_distribution(&workspace), scalar, "delta {delta}");
        }
        // Merging into an empty accumulator reproduces the clone path.
        let mut scalar = ScoreDistribution::empty();
        scalar.merge_from(&below.shifted_scaled(1.0, 0.5, Some(TupleId(3))));
        let below_cols = columns_of(&below, &mut workspace);
        let mut cols = ScoreColumns::empty();
        cols.merge_shifted_scaled(&below_cols, 1.0, 0.5, TupleId(3), &mut workspace);
        assert_eq!(cols.to_distribution(&workspace), scalar);
        // A non-positive factor is a no-op, like merging an emptied shift.
        let mut cols = columns_of(&acc, &mut workspace);
        cols.merge_shifted_scaled(&below_cols, 1.0, 0.0, TupleId(3), &mut workspace);
        assert_eq!(cols.to_distribution(&workspace), acc);
    }

    #[test]
    fn columns_merge_without_witnesses() {
        let acc = dist(&[(1.0, 0.2), (4.0, 0.4)]);
        let below = dist(&[(0.5, 0.3), (4.0, 0.25)]);
        let mut scalar = acc.clone();
        scalar.merge_from(&below.shifted_scaled(0.0, 0.5, None));
        let mut workspace = Workspace::default();
        let mut cols = columns_of(&acc, &mut workspace);
        let below_cols = columns_of(&below, &mut workspace);
        cols.merge_shifted_scaled(&below_cols, 0.0, 0.5, TupleId(1), &mut workspace);
        assert_eq!(cols.to_distribution(&workspace), scalar);
    }

    #[test]
    fn columns_coalesce_matches_distribution_coalesce_bit_exactly() {
        let base = witnessed(
            &[
                (1.0, 0.1),
                (1.4, 0.3),
                (2.0, 0.2),
                (5.0, 0.15),
                (5.3, 0.05),
                (9.0, 0.2),
            ],
            11,
        );
        for policy in [CoalescePolicy::PaperMean, CoalescePolicy::WeightedMean] {
            for max_lines in [4, 2, 1] {
                let mut scalar = base.clone();
                scalar.coalesce(max_lines, policy);
                let mut workspace = Workspace::default();
                let mut cols = columns_of(&base, &mut workspace);
                cols.coalesce(max_lines, policy, &mut workspace);
                assert_eq!(
                    cols.to_distribution(&workspace),
                    scalar,
                    "policy {policy:?} max_lines {max_lines}"
                );
            }
        }
    }

    #[test]
    fn columns_coalesce_heap_matches_scan_on_many_lines() {
        // A few hundred lines with deliberately repeated gap values, so the
        // heap's (gap, position) tie-break is exercised against the scalar
        // scan's leftmost-strictly-smaller rule at every merge.
        let mut x = 0u64;
        let mut score = 0.0;
        let pairs: Vec<(f64, f64)> = (0..300)
            .map(|_| {
                // Deterministic xorshift; gaps drawn from a small set of
                // discrete values to force plenty of exact ties.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                score += [0.5, 1.0, 1.0, 2.0, 0.25][(x % 5) as usize];
                (score, 0.001 + (x % 997) as f64 / 1000.0)
            })
            .collect();
        let base = witnessed(&pairs, 1000);
        // One workspace throughout, so the heap coalescer also runs on
        // buffers left over from a larger call.
        let mut workspace = Workspace::default();
        for policy in [CoalescePolicy::PaperMean, CoalescePolicy::WeightedMean] {
            for max_lines in [200, 64, 7] {
                let mut scalar = base.clone();
                scalar.coalesce(max_lines, policy);
                let mut cols = columns_of(&base, &mut workspace);
                cols.coalesce(max_lines, policy, &mut workspace);
                assert_eq!(
                    cols.to_distribution(&workspace),
                    scalar,
                    "policy {policy:?} max_lines {max_lines}"
                );
            }
        }
    }

    #[test]
    fn compaction_keeps_live_chains_once_and_drops_dead_cells() {
        let mut workspace = Workspace::default();
        let a = witnessed(&[(1.0, 0.2), (4.0, 0.4)], 1);
        let b = witnessed(&[(0.5, 0.3), (2.0, 0.9), (7.0, 0.6)], 50);
        let mut live = vec![columns_of(&a, &mut workspace)];
        columns_of(&witnessed(&[(3.0, 0.1)], 90), &mut workspace);
        live.push(columns_of(&b, &mut workspace));
        // `b`'s witnesses carried down one more branch share their tails
        // with `b`'s own.
        let mut merged = live[0].clone();
        merged.merge_shifted_scaled(&live[1], 1.0, 0.5, TupleId(7), &mut workspace);
        live.push(merged);
        let before: Vec<ScoreDistribution> =
            live.iter().map(|c| c.to_distribution(&workspace)).collect();
        let cells = 4 + 2 + 6 + 3;
        assert_eq!(workspace.arena.len(), cells);
        // Below the threshold nothing moves.
        workspace.compact(&mut live);
        assert_eq!(workspace.arena.len(), cells);
        let dead = Witness {
            probability: 1.0,
            cell: ROOT,
        };
        for _ in cells..COMPACT_FROM {
            workspace.prepend(TupleId(0), dead, 1.0);
        }
        workspace.compact(&mut live);
        let after: Vec<ScoreDistribution> =
            live.iter().map(|c| c.to_distribution(&workspace)).collect();
        assert_eq!(after, before);
        // Only the live cells are left, the shared tails copied once.
        assert_eq!(workspace.arena.len(), 4 + 6 + 3);
        assert_eq!(workspace.kept, 4 + 6 + 3);
    }

    #[test]
    fn columns_unit_round_trips() {
        let workspace = Workspace::default();
        assert_eq!(
            ScoreColumns::unit(true).to_distribution(&workspace),
            ScoreDistribution::unit()
        );
        assert_eq!(
            ScoreColumns::unit(false).to_distribution(&workspace),
            ScoreDistribution::singleton(0.0, 1.0, None)
        );
        assert!(ScoreColumns::empty().is_empty());
        assert_eq!(ScoreColumns::unit(true).len(), 1);
    }
}
