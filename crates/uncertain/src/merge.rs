//! Sharded sources: a loser-tree k-way merge over per-shard rank-ordered
//! streams.
//!
//! The Theorem-2 scan consumes *one* rank-ordered stream, but a relation
//! serving real traffic is partitioned: per-shard CSV files, external-sort
//! runs spilled to disk, per-machine partitions. [`MergeSource`] makes any
//! such partitioning look like the single stream every consumer already
//! understands — it merges N rank-ordered [`TupleSource`]s into one
//! rank-ordered [`TupleSource`] using a tournament **loser tree**, the
//! classic k-way-merge structure: one comparison path of length ⌈log₂ N⌉ per
//! emitted tuple, independent of how skewed the shards are.
//!
//! The shards are a **partition of one logical relation**: [`GroupKey`]s
//! share one namespace across shards, so a mutual-exclusion group whose
//! members were split across shards is reunified by the merge. That covers
//! `--shard` inputs, external-sort runs, remote shard servers (which hash
//! group labels into one namespace) and the partitioned generators.
//!
//! The merge is *stable on ties*: when two shard heads compare equal under
//! the workspace rank order, the lower shard index wins, so equal-score
//! tie-groups stay contiguous across shard boundaries and the merged stream
//! is deterministic. Because the rank order is total (score desc, probability
//! desc, id asc), merging any partition of a stream reproduces that stream
//! **exactly** — bit-identical downstream distributions, which the proptests
//! in `ttk-core` assert.
//!
//! Reads stay bounded per shard: the tree buffers at most one look-ahead
//! tuple per shard, so when the scan gate closes after `n + 1` merged tuples,
//! no shard has been read more than one tuple past its contribution to the
//! merged prefix (asserted with per-shard [`CountingSource`] counters).
//!
//! [`CountingSource`]: crate::source::CountingSource
//! [`GroupKey`]: crate::source::GroupKey

use crate::error::{Error, Result};
use crate::source::{SourceTuple, TupleBlock, TupleSource, VecSource};

/// One shard of a merge: its source, the buffered head tuple, and the rank
/// key of the last tuple pulled (for per-shard order validation).
#[derive(Debug)]
struct Shard<S> {
    source: S,
    head: Option<SourceTuple>,
    last: Option<SourceTuple>,
}

impl<S: TupleSource> Shard<S> {
    /// Pulls the shard's next tuple into `head`, validating that the shard
    /// stream is rank-ordered.
    fn refill(&mut self, index: usize) -> Result<()> {
        let next = self.source.next_tuple()?;
        if let (Some(prev), Some(next)) = (&self.last, &next) {
            if next.tuple.rank_key() < prev.tuple.rank_key() {
                return Err(Error::InvalidParameter(format!(
                    "shard {index} is not rank-ordered: {} streams after {}",
                    next.tuple.id(),
                    prev.tuple.id()
                )));
            }
        }
        if next.is_some() {
            self.last = next;
        }
        self.head = next;
        Ok(())
    }
}

/// A rank-ordered k-way merge over per-shard rank-ordered [`TupleSource`]s.
///
/// See the [module documentation](self) for the shared key namespace, the
/// stability guarantee and the per-shard read bound. The merge itself is a
/// [`TupleSource`], so it plugs into the rank-scan executor, the batch
/// executor and every other consumer unchanged.
#[derive(Debug)]
pub struct MergeSource<S> {
    shards: Vec<Shard<S>>,
    /// Loser tree over the shard heads: `tree[0]` holds the overall winner,
    /// `tree[1..n]` the losers of the internal tournament nodes (external
    /// node `n + i` is shard `i`, children of internal node `t` are `2t` and
    /// `2t + 1`).
    tree: Vec<usize>,
    initialized: bool,
    emitted: usize,
}

impl<S: TupleSource> MergeSource<S> {
    /// Merges shards that partition **one logical relation**: group keys are
    /// shared across shards, so an ME group split across shards is reunified.
    pub fn new(shards: Vec<S>) -> Self {
        let n = shards.len();
        MergeSource {
            shards: shards
                .into_iter()
                .map(|source| Shard {
                    source,
                    head: None,
                    last: None,
                })
                .collect(),
            tree: vec![0; n],
            initialized: false,
            emitted: 0,
        }
    }

    /// Number of shards under the merge.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of tuples emitted so far.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// True when shard `a`'s head beats shard `b`'s head (comes earlier in
    /// the merged rank order). Exhausted shards lose to everything; full
    /// rank-key ties go to the lower shard index, which is what makes the
    /// merge stable.
    fn beats(&self, a: usize, b: usize) -> bool {
        match (&self.shards[a].head, &self.shards[b].head) {
            (None, _) => false,
            (Some(_), None) => true,
            (Some(x), Some(y)) => (x.tuple.rank_key(), a) < (y.tuple.rank_key(), b),
        }
    }

    /// Plays the tournament of the subtree rooted at node `t` bottom-up,
    /// storing losers at internal nodes and returning the subtree winner.
    fn build(&mut self, t: usize) -> usize {
        let n = self.shards.len();
        if t >= n {
            return t - n;
        }
        let a = self.build(2 * t);
        let b = self.build(2 * t + 1);
        let (winner, loser) = if self.beats(b, a) { (b, a) } else { (a, b) };
        self.tree[t] = loser;
        winner
    }

    /// Replays the path from shard `shard`'s leaf to the root after its head
    /// changed, updating losers along the way and the winner at `tree[0]`.
    fn adjust(&mut self, shard: usize) {
        let n = self.shards.len();
        let mut winner = shard;
        let mut t = (n + shard) / 2;
        while t > 0 {
            if self.beats(self.tree[t], winner) {
                std::mem::swap(&mut self.tree[t], &mut winner);
            }
            t /= 2;
        }
        self.tree[0] = winner;
    }

    /// Fills every shard head and plays the initial tournament.
    fn initialize(&mut self) -> Result<()> {
        for i in 0..self.shards.len() {
            self.shards[i].refill(i)?;
        }
        if self.shards.len() >= 2 {
            self.tree[0] = self.build(1);
        }
        self.initialized = true;
        Ok(())
    }

    /// The strongest live challenger to `winner`: the best among the losers
    /// stored on the path from `winner`'s leaf to the root. `None` when every
    /// challenger is exhausted (or there is only one shard).
    ///
    /// The loser-tree invariant puts the overall runner-up somewhere on this
    /// path (it must have lost directly to the winner), so as long as the
    /// winner's refilled head still beats this challenger, the winner keeps
    /// winning and a whole run can be emitted without replaying the
    /// tournament.
    fn second_best(&self, winner: usize) -> Option<usize> {
        let n = self.shards.len();
        if n < 2 {
            return None;
        }
        let mut best: Option<usize> = None;
        let mut t = (n + winner) / 2;
        while t > 0 {
            let candidate = self.tree[t];
            if self.shards[candidate].head.is_some()
                && best.is_none_or(|b| self.beats(candidate, b))
            {
                best = Some(candidate);
            }
            t /= 2;
        }
        best
    }
}

impl<S: TupleSource> TupleSource for MergeSource<S> {
    fn next_tuple(&mut self) -> Result<Option<SourceTuple>> {
        if self.shards.is_empty() {
            return Ok(None);
        }
        if !self.initialized {
            self.initialize()?;
        }
        let winner = if self.shards.len() == 1 {
            0
        } else {
            self.tree[0]
        };
        let Some(tuple) = self.shards[winner].head.take() else {
            return Ok(None);
        };
        self.shards[winner].refill(winner)?;
        if self.shards.len() >= 2 {
            self.adjust(winner);
        }
        self.emitted += 1;
        Ok(Some(tuple))
    }

    /// Batched pull: drains *runs* of same-shard winners per loser-tree
    /// descent. After the tournament picks a winner, the strongest live
    /// challenger is computed once ([`Self::second_best`]); tuples then
    /// stream from the winning shard — refilling and validating per tuple,
    /// exactly like the scalar path — for as long as its refilled head still
    /// beats that challenger, and only the run's end replays the tournament
    /// path. The emitted sequence is bit-identical to repeated
    /// [`next_tuple`](TupleSource::next_tuple) calls.
    fn next_block(&mut self, max: usize) -> Result<Option<TupleBlock>> {
        let max = max.max(1);
        if self.shards.is_empty() {
            return Ok(None);
        }
        if !self.initialized {
            self.initialize()?;
        }
        let mut block = TupleBlock::with_capacity(max);
        while block.len() < max {
            let winner = if self.shards.len() == 1 {
                0
            } else {
                self.tree[0]
            };
            if self.shards[winner].head.is_none() {
                break;
            }
            let second = self.second_best(winner);
            loop {
                let tuple = self.shards[winner].head.take().expect("head checked above");
                self.shards[winner].refill(winner)?;
                self.emitted += 1;
                block.push(&tuple);
                if block.len() >= max
                    || self.shards[winner].head.is_none()
                    || second.is_some_and(|s| !self.beats(winner, s))
                {
                    break;
                }
                // `second == None` means no live challenger: drain freely.
            }
            if self.shards.len() >= 2 {
                self.adjust(winner);
            }
        }
        if block.is_empty() {
            Ok(None)
        } else {
            Ok(Some(block))
        }
    }

    fn size_hint(&self) -> Option<usize> {
        let mut remaining = 0usize;
        for shard in &self.shards {
            remaining += shard.source.size_hint()?;
            remaining += usize::from(shard.head.is_some());
        }
        Some(remaining)
    }
}

/// Partitions a rank-ordered source into `shards` rank-ordered [`VecSource`]
/// shards by dealing tuples round-robin.
///
/// Every shard preserves the source's rank order and its **global** group-key
/// namespace, so `MergeSource::new(partition_round_robin(s, n)?)` reproduces
/// the stream of `s` exactly. This is the partitioner the `--shards N`
/// generators and the sharding tests use.
///
/// # Errors
///
/// Propagates source errors; `shards == 0` is an [`Error::InvalidParameter`].
pub fn partition_round_robin<S: TupleSource>(
    mut source: S,
    shards: usize,
) -> Result<Vec<VecSource>> {
    if shards == 0 {
        return Err(Error::InvalidParameter(
            "cannot partition into zero shards".into(),
        ));
    }
    let mut parts: Vec<Vec<SourceTuple>> = (0..shards).map(|_| Vec::new()).collect();
    let mut index = 0usize;
    while let Some(t) = source.next_tuple()? {
        parts[index % shards].push(t);
        index += 1;
    }
    // Each part is a subsequence of a rank-ordered stream, so VecSource's
    // stable sort is a no-op and the shard streams come out rank-ordered.
    Ok(parts.into_iter().map(VecSource::new).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{CountingSource, GroupKey, TableSource};
    use crate::table::UncertainTable;
    use crate::tuple::UncertainTuple;

    fn tuple(id: u64, score: f64, prob: f64) -> SourceTuple {
        SourceTuple::independent(UncertainTuple::new(id, score, prob).unwrap())
    }

    fn grouped(id: u64, score: f64, prob: f64, key: u64) -> SourceTuple {
        SourceTuple::grouped(UncertainTuple::new(id, score, prob).unwrap(), key)
    }

    fn drain(source: &mut dyn TupleSource) -> Vec<SourceTuple> {
        let mut out = Vec::new();
        while let Some(t) = source.next_tuple().unwrap() {
            out.push(t);
        }
        out
    }

    fn mixed_tuples(n: u64) -> Vec<SourceTuple> {
        (0..n)
            .map(|i| {
                let score = ((i * 7) % 23) as f64; // plenty of score ties
                let prob = 0.1 + 0.8 * ((i % 9) as f64 / 9.0);
                if i % 3 == 0 {
                    grouped(i, score, prob, i / 6)
                } else {
                    tuple(i, score, prob)
                }
            })
            .collect()
    }

    #[test]
    fn merge_of_any_partition_reproduces_the_single_stream() {
        let tuples = mixed_tuples(200);
        let single = drain(&mut VecSource::new(tuples.clone()));
        for shards in [1usize, 2, 3, 5, 8, 200, 250] {
            let parts = partition_round_robin(VecSource::new(tuples.clone()), shards).unwrap();
            let mut merged = MergeSource::new(parts);
            assert_eq!(merged.shard_count(), shards);
            assert_eq!(merged.size_hint(), Some(200));
            let out = drain(&mut merged);
            assert_eq!(out, single, "{shards} shards");
            assert_eq!(merged.emitted(), 200);
            assert!(merged.next_tuple().unwrap().is_none());
        }
    }

    #[test]
    fn ties_across_shard_boundaries_stay_contiguous_and_stable() {
        // Every tuple has the same score; rank order falls back to
        // probability desc then id asc, exercised across 4 shards.
        let tuples: Vec<SourceTuple> = (0..40)
            .map(|i| tuple(i, 42.0, 0.1 + 0.02 * ((i % 11) as f64)))
            .collect();
        let single = drain(&mut VecSource::new(tuples.clone()));
        let parts = partition_round_robin(VecSource::new(tuples), 4).unwrap();
        let merged = drain(&mut MergeSource::new(parts));
        assert_eq!(merged, single);
    }

    #[test]
    fn shared_mode_reunifies_groups_split_across_shards() {
        let a = VecSource::new(vec![grouped(1, 9.0, 0.4, 7), tuple(3, 5.0, 0.5)]);
        let b = VecSource::new(vec![grouped(2, 8.0, 0.5, 7)]);
        let out = drain(&mut MergeSource::new(vec![a, b]));
        assert_eq!(out[0].group, GroupKey::Shared(7));
        assert_eq!(out[1].group, GroupKey::Shared(7));
    }

    #[test]
    fn empty_and_unbalanced_shards_are_handled() {
        let out = drain(&mut MergeSource::<VecSource>::new(Vec::new()));
        assert!(out.is_empty());

        let empty = VecSource::new(Vec::new());
        let full = VecSource::new(vec![tuple(1, 3.0, 0.5), tuple(2, 1.0, 0.5)]);
        let mut merged = MergeSource::new(vec![empty, full]);
        let out = drain(&mut merged);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].tuple.id().raw(), 1);
    }

    #[test]
    fn out_of_order_shards_are_rejected() {
        // TableSource is rank-ordered, but a hand-built VecSource cannot be
        // out of order (it sorts) — so wrap a misbehaving source directly.
        struct Backwards(Vec<SourceTuple>);
        impl TupleSource for Backwards {
            fn next_tuple(&mut self) -> Result<Option<SourceTuple>> {
                Ok(self.0.pop())
            }
        }
        let bad = Backwards(vec![tuple(1, 9.0, 0.5), tuple(2, 1.0, 0.5)]);
        let good = Backwards(vec![tuple(3, 4.0, 0.5)]);
        let mut merged = MergeSource::new(vec![bad, good]);
        let err = loop {
            match merged.next_tuple() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("order violation must surface"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, Error::InvalidParameter(_)));
    }

    #[test]
    fn per_shard_reads_stay_within_one_tuple_of_the_emitted_prefix() {
        let table = UncertainTable::new(
            (0..120)
                .map(|i| UncertainTuple::new(i as u64, (120 - i) as f64, 0.9).unwrap())
                .collect(),
            Vec::new(),
        )
        .unwrap();
        let parts = partition_round_robin(TableSource::new(&table), 3).unwrap();
        let counted: Vec<CountingSource<VecSource>> =
            parts.into_iter().map(CountingSource::new).collect();
        let counters: Vec<_> = counted.iter().map(|c| c.counter()).collect();
        let mut merged = MergeSource::new(counted);
        for _ in 0..10 {
            merged.next_tuple().unwrap().unwrap();
        }
        // 10 emitted tuples deal 4/3/3 across the shards; each shard may have
        // buffered at most one look-ahead head beyond its contribution.
        for (i, counter) in counters.iter().enumerate() {
            let emitted = (10 - i).div_ceil(3);
            assert!(
                counter.get() <= emitted + 1,
                "shard {i} pulled {} for {emitted} emitted",
                counter.get()
            );
        }
    }

    #[test]
    fn partition_rejects_zero_shards() {
        let err = partition_round_robin(VecSource::new(Vec::new()), 0);
        assert!(matches!(err, Err(Error::InvalidParameter(_))));
    }
}
