//! The one-pass U-Topk against the per-state best-first search it replaced
//! (kept in `support/u_topk_oracle.rs`): on random tables built from the
//! numerical edge cases, on a family where the pass's Theorem-2 stop fires,
//! and as pinned answers on the CarTel evaluation relations. The two agree
//! on whether there is an answer and on its probability within 1e-9
//! relative; where vectors tie, they may pick different ones.

#[path = "support/u_topk_oracle.rs"]
mod u_topk_oracle;

use proptest::prelude::*;
use proptest::TestRng;
use ttk_core::baselines::{u_topk, UTopkAnswer, UTopkConfig};
use ttk_datagen::cartel::{generate_area, CartelConfig};
use ttk_uncertain::{TupleId, UncertainTable, UncertainTuple};

/// Member probabilities of one ME group: singletons at the extremes (two
/// 1e-300 tuples underflow, so some tables have no answer), groups whose
/// mass is exactly 1, groups whose members sum a rounding step or 1e-12
/// past 1 (inside the table's tolerance), and partial groups.
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
/// from a four-value range so ties are everywhere.
fn edge_case_table() -> impl Strategy<Value = UncertainTable> {
    let group = (0..GROUP_SHAPES.len(), 0i32..4, 0i32..4, 0i32..4, 0i32..4);
    proptest::collection::vec(group, 1..11).prop_map(|groups| {
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
        UncertainTable::new(tuples, rules).unwrap()
    })
}

/// 30 to 80 rows with probabilities 0.3 to 1.0, each joining the group of
/// the row generated before it when a coin says so and the group's mass
/// allows. That is enough mass for the threshold of Theorem 2 to be reached
/// well before the last row at k ≤ 5.
fn stopping_table() -> impl Strategy<Value = UncertainTable> {
    let row = (0i32..1000, 3u32..=10, any::<bool>());
    proptest::collection::vec(row, 30..81).prop_map(|rows| {
        let mut tuples = Vec::new();
        let mut rules: Vec<Vec<TupleId>> = Vec::new();
        let mut mass = f64::INFINITY;
        for (id, (score, tenths, join)) in rows.into_iter().enumerate() {
            let prob = f64::from(tenths) / 10.0;
            let id = id as u64;
            tuples.push(UncertainTuple::new(id, f64::from(score), prob).unwrap());
            match rules.last_mut() {
                Some(rule) if join && mass + prob <= 1.0 => {
                    rule.push(TupleId(id));
                    mass += prob;
                }
                _ => {
                    rules.push(vec![TupleId(id)]);
                    mass = prob;
                }
            }
        }
        rules.retain(|rule| rule.len() > 1);
        UncertainTable::new(tuples, rules).unwrap()
    })
}

/// |a − b| / max(|a|, |b|).
fn relative_gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs())
}

/// The probability that the tuples `ids` are the top-k of a world: each
/// appears, and no other tuple ranked above the last of them does.
fn vector_probability(table: &UncertainTable, ids: &[TupleId]) -> f64 {
    let positions: Vec<usize> = ids.iter().map(|&id| table.position(id).unwrap()).collect();
    let last = *positions.iter().max().unwrap();
    (0..table.group_count())
        .map(|group| {
            let above = table
                .group_positions(group)
                .iter()
                .filter(|&&pos| pos <= last);
            match above.clone().find(|pos| positions.contains(pos)) {
                Some(&chosen) => table.tuple(chosen).prob(),
                None => 1.0 - above.map(|&pos| table.tuple(pos).prob()).sum::<f64>(),
            }
        })
        .product()
}

/// Fails unless the pass and the search both have no answer, or both have
/// one with the same probability within 1e-9 relative. The pass's vector
/// must also hold k tuples and have the probability it reports.
fn assert_agree(
    table: &UncertainTable,
    k: usize,
    pass: Option<&UTopkAnswer>,
    search: Option<&UTopkAnswer>,
) -> std::result::Result<(), TestCaseError> {
    match (pass, search) {
        (Some(pass), Some(search)) => {
            let (got, want) = (pass.vector.probability(), search.vector.probability());
            prop_assert!(
                relative_gap(got, want) <= 1e-9,
                "k={k}: {got:e} vs {want:e}"
            );
            prop_assert_eq!(pass.vector.len(), k);
            let own = vector_probability(table, pass.vector.ids());
            prop_assert!(relative_gap(got, own) <= 1e-9, "k={k}: {got:e} vs {own:e}");
        }
        (None, None) => {}
        (pass, search) => prop_assert!(false, "k={k}: {pass:?} vs {search:?}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pass_matches_the_per_state_search(table in edge_case_table()) {
        for k in 1..=table.group_count() {
            let pass = u_topk(&table, k, &UTopkConfig::default()).unwrap();
            let search = u_topk_oracle::u_topk(&table, k).unwrap();
            assert_agree(&table, k, pass.as_ref(), search.as_ref())?;
        }
    }
}

#[test]
fn the_theorem_2_stop_fires_and_keeps_the_answer() {
    let tables = stopping_table();
    let mut rng = TestRng::seed_from_u64(proptest::seed_for("stopping_table"));
    let mut stopped = 0;
    for case in 0..64 {
        let table = tables.generate(&mut rng);
        for k in 1..=5 {
            let pass = u_topk(&table, k, &UTopkConfig::default()).unwrap();
            let search = u_topk_oracle::u_topk(&table, k).unwrap();
            if let Err(e) = assert_agree(&table, k, pass.as_ref(), search.as_ref()) {
                panic!("case {case}: {e}");
            }
            stopped += usize::from(pass.is_some_and(|a| a.deepest_position + 1 < table.len()));
        }
    }
    assert!(stopped > 0, "the stop never fired");
}

/// A U-Topk answer on a CarTel evaluation relation (`generate_area` with the
/// default config at seed 9): the pass's ids, probability and score bits and
/// where it stopped, and the probability the best-first search found.
struct Pin {
    segments: usize,
    k: usize,
    ids: &'static [u64],
    probability_bits: u64,
    score_bits: u64,
    deepest_position: usize,
    search_probability: f64,
}

/// k = 1..10 on 199 rows (60 segments) and 1,971 rows (600 segments). At
/// k = 9 and 10 on 199 rows and k = 4 and 10 on 1,971 rows the search
/// returned another vector of the same probability; the pass's ties go to
/// the earliest last position.
const PINS: &[Pin] = &[
    Pin {
        segments: 60,
        k: 1,
        ids: &[99],
        probability_bits: 0x3fd1_5e96_a74e_b24c,
        score_bits: 0x4029_fca2_baa3_c6f0,
        deepest_position: 21,
        search_probability: 2.713982232915312e-1,
    },
    Pin {
        segments: 60,
        k: 2,
        ids: &[3, 99],
        probability_bits: 0x3fc1_5e96_a74e_b24b,
        score_bits: 0x403b_cf59_e334_d152,
        deepest_position: 36,
        search_probability: 1.3569911164576556e-1,
    },
    Pin {
        segments: 60,
        k: 3,
        ids: &[3, 99, 32],
        probability_bits: 0x3fa9_599d_9a3b_80c3,
        score_bits: 0x4043_c2b7_64e5_48f5,
        deepest_position: 45,
        search_probability: 4.9511838032914465e-2,
    },
    Pin {
        segments: 60,
        k: 4,
        ids: &[3, 99, 32, 51],
        probability_bits: 0x3f91_04aa_4027_f22e,
        score_bits: 0x4049_7f6b_9dad_8a3d,
        deepest_position: 60,
        search_probability: 1.6619358220838425e-2,
    },
    Pin {
        segments: 60,
        k: 5,
        ids: &[3, 99, 32, 51, 34],
        probability_bits: 0x3f78_ef64_5a40_27c3,
        score_bits: 0x404f_1713_5caa_8995,
        deepest_position: 69,
        search_probability: 6.087677003970118e-3,
    },
    Pin {
        segments: 60,
        k: 6,
        ids: &[3, 99, 32, 51, 34, 157],
        probability_bits: 0x3f60_9f98_3c2a_c52c,
        score_bits: 0x4052_5031_cf40_826c,
        deepest_position: 85,
        search_probability: 2.029225667990039e-3,
    },
    Pin {
        segments: 60,
        k: 7,
        ids: &[72, 3, 99, 32, 51, 34, 157],
        probability_bits: 0x3f43_f2b6_ae99_b969,
        score_bits: 0x4056_3cdb_5c72_3e50,
        deepest_position: 96,
        search_probability: 6.087677003970122e-4,
    },
    Pin {
        segments: 60,
        k: 8,
        ids: &[72, 3, 99, 32, 51, 48, 34, 157],
        probability_bits: 0x3f27_f00e_6b1e_de7d,
        score_bits: 0x4059_1273_db20_ea5c,
        deepest_position: 106,
        search_probability: 1.8263031011910366e-4,
    },
    Pin {
        segments: 60,
        k: 9,
        ids: &[72, 190, 3, 99, 32, 51, 48, 34, 157],
        probability_bits: 0x3f07_f00e_6b1e_de7d,
        score_bits: 0x405c_e264_b86f_fe8c,
        deepest_position: 122,
        search_probability: 4.5657577529775915e-5,
    },
    Pin {
        segments: 60,
        k: 10,
        ids: &[72, 190, 3, 99, 95, 32, 51, 48, 34, 157],
        probability_bits: 0x3ee7_f00e_6b1e_de7d,
        score_bits: 0x405f_fd2e_ab81_d5aa,
        deepest_position: 135,
        search_probability: 1.1414394382443979e-5,
    },
    Pin {
        segments: 600,
        k: 1,
        ids: &[535],
        probability_bits: 0x3fc4_28f5_c28f_5c29,
        score_bits: 0x4039_e2c5_42b8_d872,
        deepest_position: 35,
        search_probability: 1.575e-1,
    },
    Pin {
        segments: 600,
        k: 2,
        ids: &[535, 1633],
        probability_bits: 0x3f9d_52d9_d52d_9d54,
        score_bits: 0x4048_ae18_ca1f_8f41,
        deepest_position: 56,
        search_probability: 2.863636363636364e-2,
    },
    Pin {
        segments: 600,
        k: 3,
        ids: &[535, 1633, 1520],
        probability_bits: 0x3f74_1b8e_0e85_adb7,
        score_bits: 0x4051_e98f_870b_832f,
        deepest_position: 81,
        search_probability: 4.909090909090911e-3,
    },
    Pin {
        segments: 600,
        k: 4,
        ids: &[535, 1633, 1411, 1826],
        probability_bits: 0x3f52_f3c3_dd9e_476c,
        score_bits: 0x4056_d364_49f5_454e,
        deepest_position: 98,
        search_probability: 1.1567509413663265e-3,
    },
    Pin {
        segments: 600,
        k: 5,
        ids: &[535, 1633, 1520, 1411, 1826],
        probability_bits: 0x3f32_f3c3_dd9e_476c,
        score_bits: 0x405c_65e7_6bf1_00dd,
        deepest_position: 116,
        search_probability: 2.891877353415816e-4,
    },
    Pin {
        segments: 600,
        k: 6,
        ids: &[1826, 635, 1013, 1747, 1488, 1503],
        probability_bits: 0x3f14_51b3_005d_4c36,
        score_bits: 0x405b_7866_9fc0_c170,
        deepest_position: 136,
        search_probability: 7.751135862337004e-5,
    },
    Pin {
        segments: 600,
        k: 7,
        ids: &[1826, 635, 246, 1013, 1747, 1488, 1503],
        probability_bits: 0x3eff_9b88_3974_af75,
        score_bits: 0x4060_1987_0e48_c8fc,
        deepest_position: 150,
        search_probability: 3.0143306131310567e-5,
    },
    Pin {
        segments: 600,
        k: 8,
        ids: &[1826, 635, 246, 1787, 1013, 1747, 1488, 1503],
        probability_bits: 0x3ee6_93aa_722e_c674,
        score_bits: 0x4062_6880_491a_4533,
        deepest_position: 162,
        search_probability: 1.0765466475468058e-5,
    },
    Pin {
        segments: 600,
        k: 9,
        ids: &[1411, 1826, 635, 246, 1787, 1013, 1747, 1488, 1503],
        probability_bits: 0x3ece_1a38_983e_5def,
        score_bits: 0x4065_0b00_c2cb_0810,
        deepest_position: 179,
        search_probability: 3.5884888251560206e-6,
    },
    Pin {
        segments: 600,
        k: 10,
        ids: &[1411, 1826, 635, 246, 350, 1787, 1013, 1747, 1488, 1503],
        probability_bits: 0x3eb4_117b_1029_93f5,
        score_bits: 0x4067_6026_416e_418a,
        deepest_position: 195,
        search_probability: 1.1961629417186732e-6,
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
        let probability = answer.vector.probability();
        assert_eq!(ids, pin.ids, "{case}");
        assert_eq!(probability.to_bits(), pin.probability_bits, "{case}");
        assert_eq!(
            answer.vector.total_score().to_bits(),
            pin.score_bits,
            "{case}"
        );
        assert_eq!(answer.deepest_position, pin.deepest_position, "{case}");
        assert!(
            relative_gap(probability, pin.search_probability) <= 1e-9,
            "{case}: {probability:e} vs the search's {:e}",
            pin.search_probability
        );
    }
}
