//! Property-based validation of the spilled-CSV replay's block pull path:
//! for **any** imported relation, run-buffer size (so any number of spilled
//! runs) and block-ask schedule, `next_block` over the run-file replay
//! yields the bit-identical tuple sequence of the tuple-at-a-time replay.

use std::sync::Arc;

use proptest::prelude::*;
use ttk_pdb::{parse_expression, CsvOptions, ShardImportOptions, SpillIndex, SpillOptions};
use ttk_uncertain::{GroupKey, SourceTuple, TupleSource};

/// The full bit pattern of one streamed tuple: id, score bits, probability
/// bits and group key.
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

fn scalar_drain(source: &mut dyn TupleSource) -> Vec<TupleKey> {
    let mut out = Vec::new();
    while let Some(t) = source.next_tuple().unwrap() {
        out.push(key(&t));
    }
    out
}

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

/// Raw rows: (score, probability tenths, grouped flag). Scores repeat (ties)
/// and some rows share ME groups.
fn csv_rows() -> impl Strategy<Value = Vec<(u32, u32, bool)>> {
    proptest::collection::vec((0u32..50, 1u32..=10, any::<bool>()), 1..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn spilled_replay_blocks_match_scalar(
        rows in csv_rows(),
        run_buffer in 1usize..40,
        asks in proptest::collection::vec(1usize..70, 1..6),
    ) {
        let mut csv = String::from("score,probability,group_key\n");
        for (i, (score, tenths, grouped)) in rows.iter().enumerate() {
            let group = if *grouped {
                format!("g{}", i % 7)
            } else {
                String::new()
            };
            csv.push_str(&format!("{score},{:.1},{group}\n", *tenths as f64 / 10.0));
        }
        let expr = parse_expression("score").unwrap();
        let index = Arc::new(
            SpillIndex::from_csv_text(
                &csv,
                &CsvOptions::default(),
                &expr,
                &SpillOptions::with_run_buffer(run_buffer),
                &ShardImportOptions::default(),
            )
            .unwrap(),
        );
        let expected = scalar_drain(&mut index.replay().unwrap());
        prop_assert_eq!(expected.len(), rows.len());
        let got = block_drain(&mut index.replay().unwrap(), &asks);
        prop_assert_eq!(got, expected);
    }
}
