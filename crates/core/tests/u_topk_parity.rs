//! Bit-for-bit parity of the arena-based U-Topk search with the per-state
//! search it replaced (kept in `support/u_topk_oracle.rs`), on random tables
//! built from the numerical edge cases, and pinned answers on the CarTel
//! evaluation relations.

#[path = "support/u_topk_oracle.rs"]
mod u_topk_oracle;

use proptest::prelude::*;
use ttk_core::baselines::{u_topk, UTopkAnswer, UTopkConfig};
use ttk_datagen::cartel::{generate_area, CartelConfig};
use ttk_uncertain::{Result, TupleId, UncertainTable, UncertainTuple};

/// Member probabilities of one ME group: singletons at the extremes (two
/// 1e-300 tuples underflow, so some searches end without an answer), groups
/// whose mass is exactly 1, groups whose members sum a rounding step or
/// 1e-12 past 1 (inside the table's tolerance), and partial groups.
const GROUP_SHAPES: &[&[f64]] = &[
    &[1.0],
    &[1e-12],
    &[1e-300],
    &[0.5],
    &[0.9],
    &[0.5, 0.5],
    &[0.25, 0.75],
    &[0.125, 0.375, 0.5],
    &[0.1, 0.2, 0.7],
    &[1e-12, 1.0],
    &[1e-12, 0.5],
    &[0.3, 0.3],
    &[0.4, 0.2, 0.1, 0.2],
];

/// A table of up to ten ME groups drawn from [`GROUP_SHAPES`], with scores
/// from a four-value range so ties are everywhere, plus a small expansion
/// limit that some searches hit.
fn table_and_limit() -> impl Strategy<Value = (UncertainTable, u64)> {
    let group = (0..GROUP_SHAPES.len(), 0i32..4, 0i32..4, 0i32..4, 0i32..4);
    (proptest::collection::vec(group, 1..11), 1u64..3000).prop_map(|(groups, limit)| {
        let mut tuples = Vec::new();
        let mut rules = Vec::new();
        for (shape, s0, s1, s2, s3) in groups {
            let scores = [s0, s1, s2, s3];
            let mut rule = Vec::new();
            for (&prob, &score) in GROUP_SHAPES[shape].iter().zip(&scores) {
                let id = tuples.len() as u64;
                tuples.push(UncertainTuple::new(id, f64::from(score), prob).unwrap());
                rule.push(TupleId(id));
            }
            if rule.len() > 1 {
                rules.push(rule);
            }
        }
        (UncertainTable::new(tuples, rules).unwrap(), limit)
    })
}

/// Fails unless both searches gave the same outcome: the same error, no
/// answer, or the same ids, probability and score bits, `expansions` and
/// `deepest_position`.
fn assert_same(
    k: usize,
    new: Result<Option<UTopkAnswer>>,
    old: Result<Option<UTopkAnswer>>,
) -> std::result::Result<(), TestCaseError> {
    match (new, old) {
        (Ok(Some(new)), Ok(Some(old))) => {
            prop_assert_eq!(new.vector.ids(), old.vector.ids(), "k={}", k);
            prop_assert_eq!(
                new.vector.probability().to_bits(),
                old.vector.probability().to_bits(),
                "k={}",
                k
            );
            prop_assert_eq!(
                new.vector.total_score().to_bits(),
                old.vector.total_score().to_bits(),
                "k={}",
                k
            );
            prop_assert_eq!(new.expansions, old.expansions, "k={}", k);
            prop_assert_eq!(new.deepest_position, old.deepest_position, "k={}", k);
        }
        (Ok(None), Ok(None)) => {}
        (Err(new), Err(old)) => prop_assert_eq!(new.to_string(), old.to_string(), "k={}", k),
        (new, old) => prop_assert!(false, "k={k}: {new:?} vs {old:?}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arena_search_matches_the_per_state_search(case in table_and_limit()) {
        let (table, limit) = case;
        let config = UTopkConfig { max_expansions: limit };
        for k in 1..=table.group_count() {
            assert_same(
                k,
                u_topk(&table, k, &config),
                u_topk_oracle::u_topk(&table, k, &config),
            )?;
        }
    }
}

/// A U-Topk answer on a CarTel evaluation relation (`generate_area` with the
/// default config at seed 9), bit for bit.
struct Pin {
    segments: usize,
    k: usize,
    ids: &'static [u64],
    probability_bits: u64,
    score_bits: u64,
    expansions: u64,
    deepest_position: usize,
}

/// 199 rows (60 segments) at k = 8 and 10; 1,971 rows (600 segments) at
/// k = 5.
const PINS: &[Pin] = &[
    Pin {
        segments: 60,
        k: 8,
        ids: &[72, 3, 99, 32, 51, 48, 34, 157],
        probability_bits: 0x3f27_f00e_6b1e_de82,
        score_bits: 0x4059_1273_db20_ea5c,
        expansions: 11_101,
        deepest_position: 34,
    },
    Pin {
        segments: 60,
        k: 10,
        ids: &[72, 3, 99, 95, 32, 51, 48, 34, 157, 130],
        probability_bits: 0x3ee7_f00e_6b1e_de82,
        score_bits: 0x405e_ee2f_ff1a_9356,
        expansions: 180_008,
        deepest_position: 43,
    },
    Pin {
        segments: 600,
        k: 5,
        ids: &[535, 1633, 1520, 1411, 1826],
        probability_bits: 0x3f32_f3c3_dd9e_476f,
        score_bits: 0x405c_65e7_6bf1_00dd,
        expansions: 7_955,
        deepest_position: 39,
    },
];

#[test]
fn cartel_answers_are_pinned() {
    for pin in PINS {
        let area = generate_area(&CartelConfig {
            segments: pin.segments,
            seed: 9,
            ..CartelConfig::default()
        })
        .unwrap();
        let answer = u_topk(area.table(), pin.k, &UTopkConfig::default())
            .unwrap()
            .expect("the relation has a U-Topk vector");
        let case = format!("{} rows, k={}", area.table().len(), pin.k);
        let ids: Vec<u64> = answer.vector.ids().iter().map(|id| id.raw()).collect();
        assert_eq!(ids, pin.ids, "{case}");
        assert_eq!(
            answer.vector.probability().to_bits(),
            pin.probability_bits,
            "{case}"
        );
        assert_eq!(
            answer.vector.total_score().to_bits(),
            pin.score_bits,
            "{case}"
        );
        assert_eq!(answer.expansions, pin.expansions, "{case}");
        assert_eq!(answer.deepest_position, pin.deepest_position, "{case}");
    }
}
