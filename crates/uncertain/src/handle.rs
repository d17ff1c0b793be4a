//! [`ScanHandle`] — the uniform opened-input type of the workspace.
//!
//! Every physical input the workspace knows (an in-memory table's stream, a
//! generator’s `VecSource`, a set of shard streams, the
//! replayed runs of an external sort) ultimately *opens* into one of two
//! shapes: a single rank-ordered [`TupleSource`], or several per-shard
//! rank-ordered sources fused under a loser-tree
//! [`MergeSource`]. A `ScanHandle` erases that
//! distinction behind one owned, `Send` stream that the rank-scan executor
//! (and anything else consuming a [`TupleSource`]) can pull from without
//! knowing how many physical streams feed it. Every shard is pulled
//! synchronously on the scanning thread, so a merged scan reads no more
//! than the merge asks for.
//!
//! `Dataset::open` in `ttk-core` returns a `ScanHandle`; custom dataset
//! providers (the CSV datasets of `ttk-pdb`, generator closures) construct
//! one with [`ScanHandle::single`] or [`ScanHandle::merged`].

use std::sync::Arc;

use crate::error::Result;
use crate::merge::MergeSource;
use crate::source::{SourceTuple, TupleBlock, TupleSource};
use crate::wire::WireScanStats;

/// An opened, rank-ordered scan over one logical relation: either a single
/// stream or a k-way merge over shard streams, behind one uniform
/// [`TupleSource`].
///
/// The handle owns its stream(s); like every source it is single-pass — a
/// fresh handle is opened per query (cheaply, from cached artifacts, by the
/// `Dataset` abstraction in `ttk-core`).
pub struct ScanHandle {
    source: Box<dyn TupleSource + Send>,
    wire_stats: Option<Arc<WireScanStats>>,
}

impl ScanHandle {
    /// Wraps a single rank-ordered stream.
    pub fn single(source: impl TupleSource + Send + 'static) -> Self {
        ScanHandle::from_boxed(Box::new(source))
    }

    /// Wraps an already-boxed single stream without double boxing.
    pub fn from_boxed(source: Box<dyn TupleSource + Send>) -> Self {
        ScanHandle {
            source,
            wire_stats: None,
        }
    }

    /// Fuses the shards of **one partitioned relation** (shared group-key
    /// namespace) under a loser-tree [`MergeSource`], exactly as the sharded
    /// executor path does — the merged stream is bit-identical to the
    /// unpartitioned stream.
    pub fn merged<S: TupleSource + Send + 'static>(shards: Vec<S>) -> Self {
        ScanHandle::single(MergeSource::new(shards))
    }

    /// Attaches the shared wire-scan counters the handle's network-backed
    /// streams record into, so the planner can read them after the scan.
    pub fn with_wire_stats(mut self, stats: Arc<WireScanStats>) -> Self {
        self.wire_stats = Some(stats);
        self
    }

    /// The wire-scan counters attached by [`with_wire_stats`]
    /// (`None` for purely local scans).
    ///
    /// [`with_wire_stats`]: ScanHandle::with_wire_stats
    pub fn wire_stats(&self) -> Option<&Arc<WireScanStats>> {
        self.wire_stats.as_ref()
    }
}

impl std::fmt::Debug for ScanHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanHandle")
            .field("remaining", &self.source.size_hint())
            .finish()
    }
}

impl TupleSource for ScanHandle {
    fn next_tuple(&mut self) -> Result<Option<SourceTuple>> {
        self.source.next_tuple()
    }

    fn next_block(&mut self, max: usize) -> Result<Option<TupleBlock>> {
        self.source.next_block(max)
    }

    fn size_hint(&self) -> Option<usize> {
        self.source.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::VecSource;
    use crate::tuple::UncertainTuple;

    fn tuples(ids: &[(u64, f64)]) -> Vec<SourceTuple> {
        ids.iter()
            .map(|&(id, score)| {
                SourceTuple::independent(UncertainTuple::new(id, score, 0.5).unwrap())
            })
            .collect()
    }

    fn drain(mut source: impl TupleSource) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(t) = source.next_tuple().unwrap() {
            out.push(t.tuple.id().raw());
        }
        out
    }

    #[test]
    fn single_handle_streams_the_source() {
        let handle = ScanHandle::single(VecSource::new(tuples(&[(1, 5.0), (2, 9.0)])));
        assert_eq!(handle.size_hint(), Some(2));
        assert_eq!(drain(handle), vec![2, 1]);
    }

    #[test]
    fn merged_handle_equals_the_single_stream() {
        let all = tuples(&[(1, 9.0), (2, 7.0), (3, 5.0), (4, 3.0)]);
        let single = drain(ScanHandle::single(VecSource::new(all.clone())));
        let a = VecSource::new(vec![all[0], all[2]]);
        let b = VecSource::new(vec![all[1], all[3]]);
        let merged = ScanHandle::merged(vec![a, b]);
        assert_eq!(merged.size_hint(), Some(4));
        assert_eq!(drain(merged), single);
    }

    #[test]
    fn boxed_handle_avoids_extra_indirection() {
        let boxed: Box<dyn TupleSource + Send> = Box::new(VecSource::new(tuples(&[(7, 1.0)])));
        let handle = ScanHandle::from_boxed(boxed);
        assert_eq!(drain(handle), vec![7]);
    }
}
