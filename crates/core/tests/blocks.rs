//! Property-based validation of the columnar block pull path: for **any**
//! table, partitioning and block-ask schedule, `next_block` composed through
//! every source kind — in-memory vectors, loser-tree merges of shards
//! (including all-ties partitions), the wire codec at any block size, and a
//! loopback remote scan — yields the
//! bit-identical tuple sequence of the tuple-at-a-time path; and the gated
//! rank scan admits the identical Theorem-2 prefix with the identical
//! stopping depth even when the gate closes in the middle of a pulled
//! block.

use std::net::TcpListener;

use proptest::prelude::*;
use ttk_core::{
    serve_stream, Dataset, QueryAnswer, RankScan, RemoteShardDataset, ScanGate, ServeOptions,
    Session, TopkQuery, MAX_BLOCK_TUPLES,
};
use ttk_uncertain::{
    GroupKey, MergeSource, Result, SourceTuple, TupleSource, UncertainTable, VecSource, WireReader,
    WireWriter,
};

mod support;
use support::table_with;

/// The full bit pattern of one streamed tuple: id, score bits, probability
/// bits and group key. Two drains agree iff their key sequences are equal.
type TupleKey = (u64, u64, u64, Option<u64>);

fn key(t: &SourceTuple) -> TupleKey {
    (
        t.tuple.id().raw(),
        t.tuple.score().to_bits(),
        t.tuple.prob().to_bits(),
        match t.group {
            GroupKey::Independent => None,
            GroupKey::Shared(k) => Some(k),
        },
    )
}

/// Drains a source tuple-at-a-time.
fn scalar_drain(source: &mut dyn TupleSource) -> Vec<TupleKey> {
    let mut out = Vec::new();
    while let Some(t) = source.next_tuple().unwrap() {
        out.push(key(&t));
    }
    out
}

/// Drains a source block-wise, cycling through the ask schedule so block
/// boundaries land in arbitrary places (including mid-tie-group).
fn block_drain(source: &mut dyn TupleSource, asks: &[usize]) -> Vec<TupleKey> {
    let mut out = Vec::new();
    let mut turn = 0usize;
    loop {
        let ask = asks[turn % asks.len()];
        turn += 1;
        match source.next_block(ask).unwrap() {
            Some(block) => out.extend(block.iter().map(|t| key(&t))),
            None => return out,
        }
    }
}

/// Round-robin partition of the table's rank-ordered stream (global group
/// keys preserved).
fn partition(table: &UncertainTable, shards: usize) -> Vec<VecSource> {
    let mut parts: Vec<Vec<SourceTuple>> = (0..shards).map(|_| Vec::new()).collect();
    let mut source = table.to_source();
    let mut index = 0usize;
    while let Some(t) = source.next_tuple().unwrap() {
        parts[index % shards].push(t);
        index += 1;
    }
    parts.into_iter().map(VecSource::new).collect()
}

/// A block-ask schedule that forces short, long and degenerate (1) asks.
fn ask_schedule() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..70, 1..6)
}

fn assert_identical(
    a: Result<QueryAnswer>,
    b: Result<QueryAnswer>,
) -> std::result::Result<(), TestCaseError> {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(a.distribution, b.distribution);
            prop_assert_eq!(a.scan_depth, b.scan_depth);
            prop_assert_eq!(a.typical.scores(), b.typical.scores());
            let (ua, ub) = (a.u_topk.map(|u| u.vector), b.u_topk.map(|u| u.vector));
            prop_assert_eq!(ua, ub);
        }
        (Err(_), Err(_)) => {}
        (a, b) => prop_assert!(false, "paths disagree: {:?} vs {:?}", a, b),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// In-memory vector source: block pulls reproduce the scalar sequence
    /// for any ask schedule.
    #[test]
    fn vec_source_blocks_match_scalar(
        table in table_with(4),
        asks in ask_schedule(),
    ) {
        let expected = scalar_drain(&mut table.to_source());
        let got = block_drain(&mut table.to_source(), &asks);
        prop_assert_eq!(got, expected);
    }

    /// Merged shards (including the all-ties partition when `span == 1`):
    /// the loser-tree's run-draining block path reproduces the scalar merge
    /// exactly, tie groups and all.
    #[test]
    fn merged_shards_blocks_match_scalar(
        table in table_with(4),
        shards in 1usize..5,
        asks in ask_schedule(),
    ) {
        let mut scalar_parts = partition(&table, shards);
        let expected =
            scalar_drain(&mut MergeSource::new(scalar_parts.iter_mut().collect()));
        let mut block_parts = partition(&table, shards);
        let got = block_drain(
            &mut MergeSource::new(block_parts.iter_mut().collect()),
            &asks,
        );
        prop_assert_eq!(got, expected);
    }

    /// The wire codec: the same relation encoded as single-row block frames
    /// and as block frames of any size, then drained scalar and block-wise —
    /// all four framing x pull combinations decode the bit-identical
    /// sequence.
    #[test]
    fn wire_framings_match_scalar(
        table in table_with(4),
        asks in ask_schedule(),
        encode_block in 1usize..600,
    ) {
        let expected = scalar_drain(&mut table.to_source());
        let encode = |rows: usize| {
            let mut wire = Vec::new();
            let mut writer = WireWriter::new(&mut wire, Some(table.len()), None).unwrap();
            let mut source = table.to_source();
            while let Some(block) = source.next_block(rows).unwrap() {
                writer.write_block(&block).unwrap();
            }
            writer.finish().unwrap();
            wire
        };
        for wire in [&encode(1), &encode(encode_block)] {
            prop_assert_eq!(scalar_drain(&mut WireReader::new(&wire[..])), expected.clone());
            prop_assert_eq!(
                block_drain(&mut WireReader::new(&wire[..]), &asks),
                expected.clone()
            );
        }
    }

    /// Mid-block gate closure: the block-pulling rank scan admits exactly
    /// the tuples a tuple-at-a-time gate admits, stops at the identical
    /// depth, rejects the identical look-ahead, and accounts for every
    /// over-read row in the surplus.
    #[test]
    fn gated_scan_closes_mid_block_identically(
        table in table_with(4),
        shards in 1usize..5,
        k in 1usize..5,
    ) {
        let p_tau = 1e-3;
        // Tuple-at-a-time oracle over the merged stream.
        let mut parts = partition(&table, shards);
        let mut merged = MergeSource::new(parts.iter_mut().collect());
        let mut gate = ScanGate::new(k, p_tau).unwrap();
        let mut admitted: Vec<TupleKey> = Vec::new();
        let mut rejected: Option<TupleKey> = None;
        while let Some(t) = merged.next_tuple().unwrap() {
            if gate.admit(t.tuple.score(), t.tuple.prob(), t.group) {
                admitted.push(key(&t));
            } else {
                rejected = Some(key(&t));
                break;
            }
        }
        // The block-pulling executor path over a fresh identical stream.
        let mut parts = partition(&table, shards);
        let mut merged = MergeSource::new(parts.iter_mut().collect());
        let mut gate = ScanGate::new(k, p_tau).unwrap();
        let prefix = RankScan::new().collect_prefix(&mut merged, &mut gate).unwrap();
        prop_assert_eq!(prefix.depth(), admitted.len());
        let got: Vec<TupleKey> = prefix
            .table
            .tuples()
            .iter()
            .zip(&prefix.keys)
            .map(|(t, g)| {
                key(&SourceTuple {
                    tuple: *t,
                    group: *g,
                })
            })
            .collect();
        prop_assert_eq!(got, admitted);
        prop_assert_eq!(prefix.pending.as_ref().map(key), rejected);
        // Over-read accounting: every pulled row is either admitted, the
        // rejected look-ahead, or sits in the surplus — and the surplus is
        // bounded by the largest block ask.
        prop_assert_eq!(
            prefix.pulled,
            prefix.depth() + usize::from(prefix.pending.is_some()) + prefix.surplus.len()
        );
        prop_assert!(prefix.surplus.len() <= MAX_BLOCK_TUPLES);
    }

    /// The adversarial all-ties case: every tuple ties on score, so one tie
    /// group spans every shard and every block boundary. The merge's
    /// run-draining block path must still reproduce the scalar sequence.
    #[test]
    fn all_ties_merged_blocks_match_scalar(
        table in table_with(1),
        shards in 2usize..5,
        asks in ask_schedule(),
    ) {
        let mut scalar_parts = partition(&table, shards);
        let expected =
            scalar_drain(&mut MergeSource::new(scalar_parts.iter_mut().collect()));
        let mut block_parts = partition(&table, shards);
        let got = block_drain(
            &mut MergeSource::new(block_parts.iter_mut().collect()),
            &asks,
        );
        prop_assert_eq!(got, expected);
    }

    /// All-ties through the gate: the gate may only close at a tie-group
    /// boundary, and the block scan must agree with the tuple-at-a-time
    /// oracle on where that is.
    #[test]
    fn all_ties_gated_scan_matches_oracle(
        table in table_with(1),
        shards in 2usize..5,
        k in 1usize..5,
    ) {
        let p_tau = 1e-3;
        let mut parts = partition(&table, shards);
        let mut merged = MergeSource::new(parts.iter_mut().collect());
        let mut gate = ScanGate::new(k, p_tau).unwrap();
        let mut admitted = 0usize;
        while let Some(t) = merged.next_tuple().unwrap() {
            if !gate.admit(t.tuple.score(), t.tuple.prob(), t.group) {
                break;
            }
            admitted += 1;
        }
        let mut parts = partition(&table, shards);
        let mut merged = MergeSource::new(parts.iter_mut().collect());
        let mut gate = ScanGate::new(k, p_tau).unwrap();
        let prefix = RankScan::new().collect_prefix(&mut merged, &mut gate).unwrap();
        prop_assert_eq!(prefix.depth(), admitted);
    }

    /// Loopback remote: a gated scan and a full-replay scan (`k = 0`) are
    /// both bit-identical to the in-process single-source answer.
    #[test]
    fn remote_block_negotiation_is_bit_identical(
        table in table_with(4),
        shards in 1usize..4,
        k in 1usize..4,
        u_topk in any::<bool>(),
    ) {
        let query = TopkQuery::new(k).with_p_tau(1e-3).with_u_topk(u_topk);
        let mut session = Session::new();
        let single = session.execute(&Dataset::stream(table.to_source()), &query);
        let addrs: Vec<String> = partition(&table, shards)
            .into_iter()
            .map(|mut source| {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let addr = listener.local_addr().unwrap().to_string();
                let options = ServeOptions::default();
                std::thread::spawn(move || {
                    // One connection per announcement below.
                    for _ in 0..2 {
                        let Ok((stream, _)) = listener.accept() else {
                            return;
                        };
                        source.rewind();
                        let _ = serve_stream(stream, &mut source, None, &options);
                    }
                });
                addr
            })
            .collect();
        for pushdown in [true, false] {
            let remote = RemoteShardDataset::new(addrs.clone())
                .with_pushdown(pushdown)
                .into_dataset();
            let answer = session.execute(&remote, &query);
            assert_identical(single.clone(), answer)?;
        }
    }
}
