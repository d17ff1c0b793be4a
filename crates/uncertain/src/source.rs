//! Rank-ordered tuple sources: the streaming input abstraction of the
//! workspace.
//!
//! The paper's algorithms all consume uncertain tuples *in rank order* (score
//! descending, probability descending, id ascending — §3.4) and, by
//! Theorem 2, only ever need a *prefix* of that order. A [`TupleSource`] is a
//! pull-based stream of rank-ordered tuples carrying their mutual-exclusion
//! metadata as a [`GroupKey`]; the scan executor in `ttk-core` pulls from a
//! source tuple by tuple and stops the moment the Theorem-2 gate closes, so
//! no algorithm ever materializes (or even reads) the tuples past the bound.
//!
//! Three adapters live here:
//!
//! * [`TableSource`] — borrows an in-memory [`UncertainTable`];
//! * [`VecSource`] — owns a batch of [`SourceTuple`]s (sorted into rank order
//!   at construction), the adapter of choice for generators and file imports;
//! * [`CountingSource`] — wraps any source and counts the tuples pulled,
//!   used to *assert* that consumers respect the scan bound.

use crate::error::{Error, Result};
use crate::table::UncertainTable;
use crate::tuple::UncertainTuple;

/// Mutual-exclusion metadata of a streamed tuple.
///
/// Keys are assigned by the source; any two tuples of one stream carrying the
/// same `Shared` key are mutually exclusive (at most one of them exists in a
/// possible world). Keys have no meaning across streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupKey {
    /// The tuple is independent of every other tuple of the stream.
    Independent,
    /// The tuple belongs to the mutual-exclusion group with this key.
    Shared(u64),
}

/// One streamed tuple: the payload plus its ME-group key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceTuple {
    /// The uncertain tuple (id, score, membership probability).
    pub tuple: UncertainTuple,
    /// The tuple's mutual-exclusion group.
    pub group: GroupKey,
}

impl SourceTuple {
    /// A tuple independent of all others.
    pub fn independent(tuple: UncertainTuple) -> Self {
        SourceTuple {
            tuple,
            group: GroupKey::Independent,
        }
    }

    /// A tuple belonging to the ME group `key`.
    pub fn grouped(tuple: UncertainTuple, key: u64) -> Self {
        SourceTuple {
            tuple,
            group: GroupKey::Shared(key),
        }
    }
}

/// A columnar batch of rank-ordered tuples (structure of arrays).
///
/// Blocks are the amortized unit of the batched pull path: one
/// [`TupleSource::next_block`] call moves up to a whole block through a
/// virtual dispatch, a channel send, or a wire frame, where the scalar path
/// pays that overhead per tuple. The payload is stored as parallel columns —
/// ids, scores, membership probabilities, and packed group keys (a shared/
/// independent flag column plus a raw-key column) — so consumers that only
/// need one column (the DP convolutions, the gate's score/probability feed)
/// walk contiguous `f64` memory.
///
/// A block preserves rank order and group keys exactly: draining a source
/// block-wise yields the bit-identical tuple sequence of the scalar path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TupleBlock {
    ids: Vec<u64>,
    scores: Vec<f64>,
    probabilities: Vec<f64>,
    /// 1 where the tuple belongs to a shared ME group, 0 where independent.
    group_flags: Vec<u8>,
    /// The raw shared-group key; 0 (ignored) where the flag is 0.
    group_keys: Vec<u64>,
}

impl TupleBlock {
    /// An empty block with room for `capacity` tuples per column.
    pub fn with_capacity(capacity: usize) -> Self {
        TupleBlock {
            ids: Vec::with_capacity(capacity),
            scores: Vec::with_capacity(capacity),
            probabilities: Vec::with_capacity(capacity),
            group_flags: Vec::with_capacity(capacity),
            group_keys: Vec::with_capacity(capacity),
        }
    }

    /// Number of tuples in the block.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the block holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Appends one already-validated tuple to the columns.
    #[inline]
    pub fn push(&mut self, t: &SourceTuple) {
        self.ids.push(t.tuple.id().raw());
        self.scores.push(t.tuple.score());
        self.probabilities.push(t.tuple.prob());
        match t.group {
            GroupKey::Independent => {
                self.group_flags.push(0);
                self.group_keys.push(0);
            }
            GroupKey::Shared(key) => {
                self.group_flags.push(1);
                self.group_keys.push(key);
            }
        }
    }

    /// The tuple at position `i` (panics when out of bounds).
    #[inline]
    pub fn get(&self, i: usize) -> SourceTuple {
        SourceTuple {
            tuple: UncertainTuple::from_validated_parts(
                self.ids[i],
                self.scores[i],
                self.probabilities[i],
            ),
            group: self.group(i),
        }
    }

    /// The group key of the tuple at position `i` (panics when out of
    /// bounds).
    #[inline]
    pub fn group(&self, i: usize) -> GroupKey {
        if self.group_flags[i] == 0 {
            GroupKey::Independent
        } else {
            GroupKey::Shared(self.group_keys[i])
        }
    }

    /// The id column.
    #[inline]
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// The score column.
    #[inline]
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// The membership-probability column.
    #[inline]
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// The shared-group flag column (1 = shared, 0 = independent).
    #[inline]
    pub fn group_flags(&self) -> &[u8] {
        &self.group_flags
    }

    /// The raw shared-group key column (entries where the flag is 0 are
    /// meaningless padding).
    #[inline]
    pub fn group_keys(&self) -> &[u64] {
        &self.group_keys
    }

    /// Appends the tuples `other[start..end]` to this block (a column-wise
    /// `memcpy`; panics when the range is out of bounds).
    pub fn push_range(&mut self, other: &TupleBlock, start: usize, end: usize) {
        self.ids.extend_from_slice(&other.ids[start..end]);
        self.scores.extend_from_slice(&other.scores[start..end]);
        self.probabilities
            .extend_from_slice(&other.probabilities[start..end]);
        self.group_flags
            .extend_from_slice(&other.group_flags[start..end]);
        self.group_keys
            .extend_from_slice(&other.group_keys[start..end]);
    }

    /// Iterates the block's tuples in order.
    pub fn iter(&self) -> impl Iterator<Item = SourceTuple> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Empties the block, keeping its column allocations.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.scores.clear();
        self.probabilities.clear();
        self.group_flags.clear();
        self.group_keys.clear();
    }
}

/// A pull-based stream of uncertain tuples in rank order.
///
/// Implementations must yield tuples in the workspace rank order (score
/// descending, then probability descending, then id ascending); consumers may
/// validate this and fail otherwise. Sources are single-pass: once a tuple
/// has been pulled it is gone, which is exactly what lets adapters stream
/// from disk or from a network without retaining history. The scalar
/// [`next_tuple`](TupleSource::next_tuple) and batched
/// [`next_block`](TupleSource::next_block) pulls may be mixed freely; both
/// walk the same underlying stream.
pub trait TupleSource {
    /// Pulls the next tuple, or `Ok(None)` at the end of the stream.
    fn next_tuple(&mut self) -> Result<Option<SourceTuple>>;

    /// Pulls up to `max` tuples (at least one; `max` is clamped to ≥ 1) as
    /// one columnar [`TupleBlock`], or `Ok(None)` at the end of the stream.
    ///
    /// The default implementation assembles the block tuple-by-tuple from
    /// [`next_tuple`](TupleSource::next_tuple), so every source supports
    /// block pulls; adapters with a cheaper bulk path (tables, spill runs,
    /// wire readers, merges) override it. A returned block may be
    /// shorter than `max` without implying end-of-stream — only `Ok(None)`
    /// does that.
    ///
    /// # Errors
    ///
    /// On a mid-block failure an implementation may either surface the error
    /// immediately (dropping the partially assembled block, as the default
    /// implementation does) or deliver the complete partial block first and
    /// surface the error on the next pull.
    fn next_block(&mut self, max: usize) -> Result<Option<TupleBlock>> {
        let max = max.max(1);
        let mut block = TupleBlock::with_capacity(match self.size_hint() {
            Some(hint) => hint.min(max),
            None => max,
        });
        while block.len() < max {
            match self.next_tuple()? {
                Some(t) => block.push(&t),
                None => break,
            }
        }
        if block.is_empty() {
            Ok(None)
        } else {
            Ok(Some(block))
        }
    }

    /// An optional hint of how many tuples remain (used to presize buffers).
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

impl<T: TupleSource + ?Sized> TupleSource for Box<T> {
    fn next_tuple(&mut self) -> Result<Option<SourceTuple>> {
        (**self).next_tuple()
    }

    fn next_block(&mut self, max: usize) -> Result<Option<TupleBlock>> {
        (**self).next_block(max)
    }

    fn size_hint(&self) -> Option<usize> {
        (**self).size_hint()
    }
}

impl<T: TupleSource + ?Sized> TupleSource for &mut T {
    fn next_tuple(&mut self) -> Result<Option<SourceTuple>> {
        (**self).next_tuple()
    }

    fn next_block(&mut self, max: usize) -> Result<Option<TupleBlock>> {
        (**self).next_block(max)
    }

    fn size_hint(&self) -> Option<usize> {
        (**self).size_hint()
    }
}

/// A [`TupleSource`] borrowing an in-memory [`UncertainTable`].
#[derive(Debug, Clone)]
pub struct TableSource<'a> {
    table: &'a UncertainTable,
    next: usize,
}

impl<'a> TableSource<'a> {
    /// Streams the table's tuples in rank order.
    pub fn new(table: &'a UncertainTable) -> Self {
        TableSource { table, next: 0 }
    }
}

impl TupleSource for TableSource<'_> {
    fn next_tuple(&mut self) -> Result<Option<SourceTuple>> {
        if self.next >= self.table.len() {
            return Ok(None);
        }
        let pos = self.next;
        self.next += 1;
        let tuple = *self.table.tuple(pos);
        let group = if self.table.group_members(pos).len() > 1 {
            GroupKey::Shared(self.table.group_index(pos) as u64)
        } else {
            GroupKey::Independent
        };
        Ok(Some(SourceTuple { tuple, group }))
    }

    fn next_block(&mut self, max: usize) -> Result<Option<TupleBlock>> {
        let end = self.table.len().min(self.next + max.max(1));
        if self.next >= end {
            return Ok(None);
        }
        let mut block = TupleBlock::with_capacity(end - self.next);
        for pos in self.next..end {
            let tuple = *self.table.tuple(pos);
            let group = if self.table.group_members(pos).len() > 1 {
                GroupKey::Shared(self.table.group_index(pos) as u64)
            } else {
                GroupKey::Independent
            };
            block.push(&SourceTuple { tuple, group });
        }
        self.next = end;
        Ok(Some(block))
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.table.len() - self.next)
    }
}

/// A [`TupleSource`] owning its tuples, sorted into rank order at
/// construction.
///
/// This is the adapter generators and importers use: produce
/// `(tuple, group key)` pairs in any order, hand them to [`VecSource::new`],
/// and stream. Only the `(id, score, probability, group)` quadruple is
/// retained — the originating rows can be dropped, which is what keeps
/// file-backed scans memory-lean.
#[derive(Debug, Clone, Default)]
pub struct VecSource {
    tuples: Vec<SourceTuple>,
    next: usize,
}

impl VecSource {
    /// Builds a source from tuples in any order; they are sorted into rank
    /// order here.
    pub fn new(mut tuples: Vec<SourceTuple>) -> Self {
        tuples.sort_by_key(|t| t.tuple.rank_key());
        VecSource { tuples, next: 0 }
    }

    /// Number of tuples not yet pulled.
    pub fn remaining(&self) -> usize {
        self.tuples.len() - self.next
    }

    /// Rewinds the source to the beginning of the stream.
    pub fn rewind(&mut self) {
        self.next = 0;
    }
}

impl TupleSource for VecSource {
    fn next_tuple(&mut self) -> Result<Option<SourceTuple>> {
        if self.next >= self.tuples.len() {
            return Ok(None);
        }
        let t = self.tuples[self.next];
        self.next += 1;
        Ok(Some(t))
    }

    fn next_block(&mut self, max: usize) -> Result<Option<TupleBlock>> {
        let end = self.tuples.len().min(self.next + max.max(1));
        if self.next >= end {
            return Ok(None);
        }
        let mut block = TupleBlock::with_capacity(end - self.next);
        for t in &self.tuples[self.next..end] {
            block.push(t);
        }
        self.next = end;
        Ok(Some(block))
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining())
    }
}

impl UncertainTable {
    /// Copies the table into an owning [`VecSource`] (the tuples are `Copy`,
    /// so this is cheap; use [`TableSource`] to avoid even that copy).
    pub fn to_source(&self) -> VecSource {
        let tuples = (0..self.len())
            .map(|pos| SourceTuple {
                tuple: *self.tuple(pos),
                group: if self.group_members(pos).len() > 1 {
                    GroupKey::Shared(self.group_index(pos) as u64)
                } else {
                    GroupKey::Independent
                },
            })
            .collect();
        // Already rank ordered; VecSource's sort is a stable no-op.
        VecSource::new(tuples)
    }
}

/// A shareable pull counter: a cloneable handle onto the number of tuples a
/// [`CountingSource`] has served.
///
/// Sharded scans hand their per-shard [`CountingSource`]s to a
/// [`MergeSource`](crate::merge::MergeSource), which takes ownership — so the
/// counts must be observable from *outside* the source. Cloning the handle
/// (via [`CountingSource::counter`]) before the source is consumed keeps the
/// per-shard read-bound assertion (≤ 1 tuple past each shard's contribution
/// to the Theorem-2 prefix) testable.
#[derive(Debug, Clone, Default)]
pub struct PullCounter(std::sync::Arc<std::sync::atomic::AtomicUsize>);

impl PullCounter {
    /// Number of tuples pulled so far.
    pub fn get(&self) -> usize {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn increment(&self) {
        self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    fn add(&self, n: usize) {
        self.0.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
    }
}

/// A [`TupleSource`] decorator counting how many tuples the consumer pulled.
///
/// The streaming executor promises to read at most one tuple past the
/// Theorem-2 prefix (the single look-ahead needed to observe a tie-group
/// boundary); wrapping a source in a `CountingSource` turns that promise into
/// a testable assertion. Under a sharded scan each shard gets its own
/// `CountingSource`, and the shared [`PullCounter`] handle keeps the count
/// observable after the merge takes ownership of the source.
#[derive(Debug)]
pub struct CountingSource<S> {
    inner: S,
    counter: PullCounter,
}

impl<S: TupleSource> CountingSource<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        CountingSource {
            inner,
            counter: PullCounter::default(),
        }
    }

    /// Number of tuples pulled from the underlying source so far.
    pub fn pulled(&self) -> usize {
        self.counter.get()
    }

    /// A cloneable handle onto the pull count, usable after this source has
    /// been moved into a merge or an executor.
    pub fn counter(&self) -> PullCounter {
        self.counter.clone()
    }

    /// Unwraps the decorator.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: TupleSource> TupleSource for CountingSource<S> {
    fn next_tuple(&mut self) -> Result<Option<SourceTuple>> {
        let t = self.inner.next_tuple()?;
        if t.is_some() {
            self.counter.increment();
        }
        Ok(t)
    }

    fn next_block(&mut self, max: usize) -> Result<Option<TupleBlock>> {
        let block = self.inner.next_block(max)?;
        if let Some(block) = &block {
            self.counter.add(block.len());
        }
        Ok(block)
    }

    fn size_hint(&self) -> Option<usize> {
        self.inner.size_hint()
    }
}

impl UncertainTable {
    /// Builds a table from tuples **already in rank order** with per-tuple
    /// group keys — the constructor the streaming scan uses to assemble a
    /// Theorem-2 prefix without re-sorting or re-deriving rules.
    ///
    /// Tuples sharing a [`GroupKey::Shared`] key form one mutual-exclusion
    /// group; [`GroupKey::Independent`] tuples form singleton groups. The
    /// resulting table is indistinguishable from building the same prefix via
    /// [`UncertainTable::new`] + [`UncertainTable::truncate`]: positions,
    /// group memberships and all derived quantities agree.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `keys.len() != tuples.len()`
    /// or the tuples are not in rank order, [`Error::DuplicateTupleId`] on a
    /// repeated id, and [`Error::GroupProbabilityExceedsOne`] when a shared
    /// group's probabilities sum to more than one.
    pub fn from_rank_ordered(
        tuples: Vec<UncertainTuple>,
        keys: &[crate::source::GroupKey],
    ) -> Result<Self> {
        use std::collections::HashMap;

        if tuples.len() != keys.len() {
            return Err(Error::InvalidParameter(format!(
                "{} tuples but {} group keys",
                tuples.len(),
                keys.len()
            )));
        }
        for pair in tuples.windows(2) {
            if pair[0].rank_key() > pair[1].rank_key() {
                return Err(Error::InvalidParameter(format!(
                    "tuples are not in rank order: {} precedes {}",
                    pair[0].id(),
                    pair[1].id()
                )));
            }
        }
        let mut id_to_pos = HashMap::with_capacity(tuples.len());
        for (pos, t) in tuples.iter().enumerate() {
            if id_to_pos.insert(t.id().raw(), pos).is_some() {
                return Err(Error::DuplicateTupleId(t.id().raw()));
            }
        }

        // Shared groups in order of first appearance, then singletons.
        let mut group_of = vec![usize::MAX; tuples.len()];
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut slot_of_key: HashMap<u64, usize> = HashMap::new();
        for (pos, key) in keys.iter().enumerate() {
            if let crate::source::GroupKey::Shared(k) = key {
                let slot = *slot_of_key.entry(*k).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[slot].push(pos);
                group_of[pos] = slot;
            }
        }
        for (slot, members) in groups.iter().enumerate() {
            let sum: f64 = members.iter().map(|&p| tuples[p].prob()).sum();
            if sum > 1.0 + 1e-6 {
                return Err(Error::GroupProbabilityExceedsOne { group: slot, sum });
            }
        }
        for (pos, slot) in group_of.iter_mut().enumerate() {
            if *slot == usize::MAX {
                *slot = groups.len();
                groups.push(vec![pos]);
            }
        }
        Ok(UncertainTable::from_parts(
            tuples, group_of, groups, id_to_pos,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn drain(source: &mut dyn TupleSource) -> Vec<SourceTuple> {
        let mut out = Vec::new();
        while let Some(t) = source.next_tuple().unwrap() {
            out.push(t);
        }
        out
    }

    #[test]
    fn table_source_streams_in_rank_order_with_groups() {
        let table = soldier_table();
        let mut source = TableSource::new(&table);
        assert_eq!(source.size_hint(), Some(7));
        let tuples = drain(&mut source);
        let ids: Vec<u64> = tuples.iter().map(|t| t.tuple.id().raw()).collect();
        assert_eq!(ids, vec![7, 3, 4, 2, 6, 5, 1]);
        // T7, T4, T2 share one group; T3, T6 share another; T5, T1 independent.
        assert_eq!(tuples[0].group, tuples[2].group);
        assert_eq!(tuples[0].group, tuples[3].group);
        assert_eq!(tuples[1].group, tuples[4].group);
        assert_ne!(tuples[0].group, tuples[1].group);
        assert_eq!(tuples[5].group, GroupKey::Independent);
        assert_eq!(tuples[6].group, GroupKey::Independent);
        assert_eq!(source.size_hint(), Some(0));
        assert!(source.next_tuple().unwrap().is_none());
    }

    #[test]
    fn vec_source_sorts_into_rank_order() {
        let mut source = VecSource::new(vec![
            SourceTuple::independent(UncertainTuple::new(1u64, 5.0, 0.5).unwrap()),
            SourceTuple::grouped(UncertainTuple::new(2u64, 9.0, 0.4).unwrap(), 7),
            SourceTuple::independent(UncertainTuple::new(3u64, 9.0, 0.8).unwrap()),
        ]);
        let tuples = drain(&mut source);
        let ids: Vec<u64> = tuples.iter().map(|t| t.tuple.id().raw()).collect();
        // Score desc, then probability desc.
        assert_eq!(ids, vec![3, 2, 1]);
        source.rewind();
        assert_eq!(source.remaining(), 3);
    }

    #[test]
    fn to_source_round_trips_through_from_rank_ordered() {
        let table = soldier_table();
        let mut source = table.to_source();
        let streamed = drain(&mut source);
        let tuples: Vec<UncertainTuple> = streamed.iter().map(|t| t.tuple).collect();
        let keys: Vec<GroupKey> = streamed.iter().map(|t| t.group).collect();
        let rebuilt = UncertainTable::from_rank_ordered(tuples, &keys).unwrap();
        assert_eq!(rebuilt.len(), table.len());
        for pos in 0..table.len() {
            assert_eq!(rebuilt.tuple(pos), table.tuple(pos));
            assert_eq!(rebuilt.is_lead(pos), table.is_lead(pos));
            let a: Vec<usize> = rebuilt.group_members(pos).to_vec();
            let b: Vec<usize> = table.group_members(pos).to_vec();
            assert_eq!(a, b, "group members at position {pos}");
        }
        assert_eq!(rebuilt.lead_regions(), table.lead_regions());
        assert_eq!(rebuilt.tie_groups(), table.tie_groups());
    }

    #[test]
    fn from_rank_ordered_validates_input() {
        let a = UncertainTuple::new(1u64, 5.0, 0.5).unwrap();
        let b = UncertainTuple::new(2u64, 9.0, 0.5).unwrap();
        // Out of order.
        let err = UncertainTable::from_rank_ordered(
            vec![a, b],
            &[GroupKey::Independent, GroupKey::Independent],
        );
        assert!(matches!(err, Err(Error::InvalidParameter(_))));
        // Key count mismatch.
        let err = UncertainTable::from_rank_ordered(vec![b, a], &[GroupKey::Independent]);
        assert!(matches!(err, Err(Error::InvalidParameter(_))));
        // Duplicate ids.
        let dup = UncertainTuple::new(2u64, 5.0, 0.5).unwrap();
        let err = UncertainTable::from_rank_ordered(
            vec![b, dup],
            &[GroupKey::Independent, GroupKey::Independent],
        );
        assert!(matches!(err, Err(Error::DuplicateTupleId(2))));
        // Overweight shared group.
        let c = UncertainTuple::new(3u64, 9.0, 0.4).unwrap();
        let d = UncertainTuple::new(4u64, 5.0, 0.7).unwrap();
        let err = UncertainTable::from_rank_ordered(
            vec![c, d],
            &[GroupKey::Shared(1), GroupKey::Shared(1)],
        );
        assert!(matches!(err, Err(Error::GroupProbabilityExceedsOne { .. })));
    }

    #[test]
    fn counting_source_tracks_pulls() {
        let table = soldier_table();
        let mut source = CountingSource::new(TableSource::new(&table));
        assert_eq!(source.pulled(), 0);
        source.next_tuple().unwrap();
        source.next_tuple().unwrap();
        assert_eq!(source.pulled(), 2);
        drain(&mut source);
        assert_eq!(source.pulled(), 7);
        // Pulling at the end does not inflate the count.
        assert!(source.next_tuple().unwrap().is_none());
        assert_eq!(source.pulled(), 7);
    }
}
