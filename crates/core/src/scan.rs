//! The streaming rank-scan executor: pull rank-ordered tuples through the
//! Theorem-2 gate and assemble the prefix every algorithm runs on.
//!
//! Before this abstraction existed, every algorithm materialized the full
//! [`UncertainTable`], computed the Theorem-2 depth, and *truncated*
//! afterwards — the whole input was read, sorted and grouped even though only
//! a prefix was ever needed. [`RankScan::collect_prefix`] fuses the stopping
//! condition into the scan instead: tuples are pulled from a [`TupleSource`]
//! in geometrically growing columnar [`TupleBlock`]s, each row is offered to
//! a [`ScanGate`] by an in-block scalar tail, and the scan ends the moment
//! the gate closes — the stopping depth is **bit-identical** to pulling one
//! tuple at a time, the block pull only changes how many tuples sit in the
//! executor's hand when the gate closes. The unconsumed remainder of that
//! last block is kept as [`ScanPrefix::surplus`] (it is never lost, and
//! [`ScanPrefix::into_full_table`] splices it back), so the over-read past
//! the bound is bounded by the final block ask, which starts at
//! [`FIRST_BLOCK_TUPLES`] and at most doubles per pull up to
//! [`MAX_BLOCK_TUPLES`] — out-of-core and incrementally-arriving inputs stay
//! viable while deep scans amortize per-tuple dispatch (spill decode, wire
//! frames, feed channel hops) over whole blocks.
//!
//! The admitted prefix is assembled into a regular [`UncertainTable`] via
//! [`UncertainTable::from_rank_ordered`] — no re-sort, no rule re-derivation
//! — so the downstream dynamic programs run unchanged on a table that is
//! observationally identical to the old truncate-based one.

use ttk_uncertain::{
    GroupKey, Result, SourceTuple, TupleBlock, TupleSource, UncertainTable, UncertainTuple,
};

use crate::scan_depth::ScanGate;

/// The executor's first block ask: small, so a scan whose gate closes within
/// the first few ranks over-reads almost nothing.
pub const FIRST_BLOCK_TUPLES: usize = 32;

/// The executor's largest block ask, reached after a few doublings; also the
/// block size used when draining a stream to exhaustion.
pub const MAX_BLOCK_TUPLES: usize = 512;

/// The Theorem-2 prefix produced by one rank scan.
#[derive(Debug, Clone)]
pub struct ScanPrefix {
    /// The admitted prefix as a regular uncertain table (rank positions
    /// `0..depth`).
    pub table: UncertainTable,
    /// The source-assigned group key of each prefix tuple, in rank order
    /// (needed to splice the prefix back onto the remaining stream, see
    /// [`ScanPrefix::into_full_table`]).
    pub keys: Vec<GroupKey>,
    /// The single look-ahead tuple the gate rejected, when it closed
    /// mid-stream.
    pub pending: Option<SourceTuple>,
    /// The unconsumed remainder of the block the gate closed inside: the
    /// rows after [`pending`](ScanPrefix::pending) in rank order, already
    /// pulled from the source but never offered to the gate. Empty when the
    /// gate closed on the last row of its block or the stream was exhausted.
    pub surplus: TupleBlock,
    /// Number of tuples pulled from the source, including the look-ahead
    /// and the surplus rows.
    pub pulled: usize,
    /// True when the source was exhausted before the gate closed (the prefix
    /// is the entire stream).
    pub exhausted: bool,
}

impl ScanPrefix {
    /// The scan depth: the number of tuples every algorithm may read.
    pub fn depth(&self) -> usize {
        self.table.len()
    }

    /// Consumes the prefix, drains the rest of `source`, and builds the full
    /// table of the stream — prefix, rejected look-ahead and remainder.
    ///
    /// This is the escape hatch for consumers whose semantics Theorem 2 does
    /// not bound (U-Topk has no probability threshold): they can still scan
    /// through the gate and fall back to the whole stream only when needed.
    ///
    /// # Errors
    ///
    /// Propagates source errors and table-validation errors.
    pub fn into_full_table(self, source: &mut dyn TupleSource) -> Result<UncertainTable> {
        if self.exhausted && self.pending.is_none() && self.surplus.is_empty() {
            return Ok(self.table);
        }
        let mut tuples: Vec<UncertainTuple> = self.table.tuples().to_vec();
        let mut keys = self.keys;
        if let Some(pending) = self.pending {
            tuples.push(pending.tuple);
            keys.push(pending.group);
        }
        for streamed in self.surplus.iter() {
            tuples.push(streamed.tuple);
            keys.push(streamed.group);
        }
        while let Some(block) = source.next_block(MAX_BLOCK_TUPLES)? {
            for streamed in block.iter() {
                tuples.push(streamed.tuple);
                keys.push(streamed.group);
            }
        }
        UncertainTable::from_rank_ordered(tuples, &keys)
    }
}

/// The streaming rank-scan executor: pulls a source through a gate and
/// assembles [`ScanPrefix`]es. Stateless — cross-query reuse lives in the
/// executor each [`Session`](crate::Session) owns, which re-arms one
/// [`ScanGate`] per query so its group-mass table keeps its allocation.
#[derive(Debug, Default, Clone, Copy)]
pub struct RankScan;

impl RankScan {
    /// Creates a scan.
    pub fn new() -> Self {
        RankScan
    }

    /// Pulls tuples from `source` while `gate` admits them and assembles the
    /// admitted prefix.
    ///
    /// Tuples are pulled in geometrically growing blocks and admitted by an
    /// in-block scalar tail, so the prefix and stopping depth are
    /// bit-identical to a tuple-at-a-time scan; the unconsumed rows of the
    /// block the gate closed inside land in [`ScanPrefix::surplus`].
    ///
    /// # Errors
    ///
    /// Propagates source errors and prefix-validation errors (out-of-order
    /// streams, duplicate ids, overweight ME groups).
    pub fn collect_prefix(
        &mut self,
        source: &mut dyn TupleSource,
        gate: &mut ScanGate,
    ) -> Result<ScanPrefix> {
        // Presize for the stream when it is small; the Theorem-2 bound keeps
        // real prefixes short, so never reserve more than a modest block up
        // front for huge streams.
        let hint = source.size_hint().unwrap_or(0).min(4096);
        let mut tuples: Vec<UncertainTuple> = Vec::with_capacity(hint);
        let mut keys: Vec<GroupKey> = Vec::with_capacity(hint);
        let mut pulled = 0usize;
        let mut pending = None;
        let mut surplus = TupleBlock::default();
        let mut exhausted = true;
        let mut ask = FIRST_BLOCK_TUPLES;
        'scan: while let Some(block) = source.next_block(ask)? {
            pulled += block.len();
            for at in 0..block.len() {
                let streamed = block.get(at);
                if !gate.admit(
                    streamed.tuple.score(),
                    streamed.tuple.prob(),
                    streamed.group,
                ) {
                    pending = Some(streamed);
                    exhausted = false;
                    if at + 1 < block.len() {
                        surplus.push_range(&block, at + 1, block.len());
                    }
                    break 'scan;
                }
                tuples.push(streamed.tuple);
                keys.push(streamed.group);
            }
            ask = (ask * 2).min(MAX_BLOCK_TUPLES);
        }
        let table = UncertainTable::from_rank_ordered(tuples, &keys)?;
        Ok(ScanPrefix {
            table,
            keys,
            pending,
            surplus,
            pulled,
            exhausted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan_depth::scan_depth;
    use ttk_uncertain::{CountingSource, TableSource, UncertainTable};

    fn uniform_table(n: usize, prob: f64) -> UncertainTable {
        UncertainTable::new(
            (0..n)
                .map(|i| {
                    ttk_uncertain::UncertainTuple::new(i as u64, (n - i) as f64, prob).unwrap()
                })
                .collect(),
            Vec::new(),
        )
        .unwrap()
    }

    #[test]
    fn prefix_equals_materialized_truncation() {
        let table = uniform_table(2000, 0.5);
        for (k, p_tau) in [(5usize, 1e-3), (20, 1e-3), (3, 0.05)] {
            let depth = scan_depth(&table, k, p_tau).unwrap();
            let truncated = table.truncate(depth);

            let mut source = TableSource::new(&table);
            let mut gate = ScanGate::new(k, p_tau).unwrap();
            let prefix = RankScan::new()
                .collect_prefix(&mut source, &mut gate)
                .unwrap();

            assert_eq!(prefix.depth(), depth);
            assert_eq!(prefix.table.len(), truncated.len());
            for pos in 0..depth {
                assert_eq!(prefix.table.tuple(pos), truncated.tuple(pos));
                assert_eq!(
                    prefix.table.group_members(pos),
                    truncated.group_members(pos)
                );
            }
        }
    }

    #[test]
    fn scan_over_read_is_bounded_by_the_block_ask() {
        let table = uniform_table(5000, 0.8);
        let k = 10;
        let p_tau = 1e-3;
        let depth = scan_depth(&table, k, p_tau).unwrap();
        assert!(depth < table.len(), "workload must stop early");

        let mut source = CountingSource::new(TableSource::new(&table));
        let mut gate = ScanGate::new(k, p_tau).unwrap();
        let prefix = RankScan::new()
            .collect_prefix(&mut source, &mut gate)
            .unwrap();

        assert_eq!(prefix.depth(), depth);
        assert!(!prefix.exhausted);
        // Every pulled tuple is accounted for: the admitted prefix, one
        // rejected look-ahead, and the unconsumed surplus of the last block.
        assert_eq!(source.pulled(), prefix.pulled);
        assert_eq!(prefix.pulled, depth + 1 + prefix.surplus.len());
        assert!(
            prefix.surplus.len() < MAX_BLOCK_TUPLES,
            "surplus {} must stay under the largest block ask",
            prefix.surplus.len()
        );
    }

    #[test]
    fn block_scan_matches_the_tuple_at_a_time_scan() {
        /// Degrades every block ask to a single tuple, forcing the exact
        /// pre-block pull pattern.
        struct OneAtATime<S>(S);
        impl<S: TupleSource> TupleSource for OneAtATime<S> {
            fn next_tuple(&mut self) -> ttk_uncertain::Result<Option<SourceTuple>> {
                self.0.next_tuple()
            }
            fn next_block(
                &mut self,
                _max: usize,
            ) -> ttk_uncertain::Result<Option<ttk_uncertain::TupleBlock>> {
                self.0.next_block(1)
            }
        }

        let table = uniform_table(3000, 0.7);
        for (k, p_tau) in [(5usize, 1e-3), (12, 0.01)] {
            let mut gate = ScanGate::new(k, p_tau).unwrap();
            let blocked = RankScan::new()
                .collect_prefix(&mut TableSource::new(&table), &mut gate)
                .unwrap();
            let mut gate = ScanGate::new(k, p_tau).unwrap();
            let scalar = RankScan::new()
                .collect_prefix(&mut OneAtATime(TableSource::new(&table)), &mut gate)
                .unwrap();
            assert_eq!(blocked.depth(), scalar.depth());
            assert_eq!(blocked.table.tuples(), scalar.table.tuples());
            assert_eq!(blocked.keys, scalar.keys);
            assert_eq!(blocked.pending, scalar.pending);
            assert!(scalar.surplus.is_empty(), "unit blocks leave no surplus");
        }
    }

    #[test]
    fn into_full_table_splices_prefix_lookahead_and_remainder() {
        // ME groups straddle the scan bound: members 150 apart.
        let mut builder = UncertainTable::builder();
        for i in 0..600u64 {
            builder.push(ttk_uncertain::UncertainTuple::new(i, (600 - i) as f64, 0.3).unwrap());
        }
        for g in 0..150u64 {
            builder.add_me_rule([g, g + 150, g + 300]);
        }
        let table = builder.build().unwrap();

        let mut source = TableSource::new(&table);
        let mut gate = ScanGate::new(3, 1e-3).unwrap();
        let prefix = RankScan::new()
            .collect_prefix(&mut source, &mut gate)
            .unwrap();
        assert!(!prefix.exhausted);
        assert!(prefix.pending.is_some());
        assert!(prefix.depth() < table.len());

        let full = prefix.into_full_table(&mut source).unwrap();
        assert_eq!(full.len(), table.len());
        for pos in 0..table.len() {
            assert_eq!(full.tuple(pos), table.tuple(pos));
            assert_eq!(
                full.group_members(pos),
                table.group_members(pos),
                "group members at position {pos}"
            );
        }

        // Exhausted prefixes return their table unchanged.
        let small = uniform_table(10, 0.5);
        let mut source = TableSource::new(&small);
        let mut gate = ScanGate::new(2, 1e-3).unwrap();
        let prefix = RankScan::new()
            .collect_prefix(&mut source, &mut gate)
            .unwrap();
        assert!(prefix.exhausted);
        let full = prefix.into_full_table(&mut source).unwrap();
        assert_eq!(full.len(), 10);
    }

    #[test]
    fn exhausted_streams_are_flagged() {
        let table = uniform_table(20, 0.5);
        let mut source = TableSource::new(&table);
        let mut gate = ScanGate::new(5, 1e-3).unwrap();
        let prefix = RankScan::new()
            .collect_prefix(&mut source, &mut gate)
            .unwrap();
        assert!(prefix.exhausted);
        assert_eq!(prefix.depth(), 20);
        assert_eq!(prefix.pulled, 20);
    }

    #[test]
    fn scratch_buffers_are_reusable_across_queries() {
        let big = uniform_table(1000, 0.9);
        let small = uniform_table(15, 0.4);
        let mut scan = RankScan::new();
        for (table, k) in [(&big, 3usize), (&small, 2), (&big, 8)] {
            let mut source = TableSource::new(table);
            let mut gate = ScanGate::new(k, 1e-3).unwrap();
            let prefix = scan.collect_prefix(&mut source, &mut gate).unwrap();
            assert_eq!(prefix.depth(), scan_depth(table, k, 1e-3).unwrap());
        }
    }
}
