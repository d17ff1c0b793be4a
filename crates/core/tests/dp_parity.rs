//! Bit-for-bit parity of the main dynamic program: the columnar engine
//! against the scalar recurrence it replaced (kept in
//! `support/dp_engine_oracle.rs`) on random row sequences built from the
//! numerical edge cases, and pinned digests of the driver's output on the
//! CarTel evaluation relations.

#[path = "support/dp_engine_oracle.rs"]
mod dp_engine_oracle;

use proptest::prelude::*;
use ttk_core::dp::engine::{self, DpRow, EngineConfig};
use ttk_core::dp::{topk_score_distribution, MainConfig};
use ttk_datagen::cartel::{generate_area, CartelConfig};
use ttk_uncertain::{CoalescePolicy, ScoreDistribution, TupleId};

/// FNV-1a over every bit of a distribution: the line count, then per line
/// the score and probability bits and the witness (absent, or its length,
/// ids and probability bits).
fn digest(distribution: &ScoreDistribution) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(distribution.len() as u64);
    for point in distribution.points() {
        eat(point.score.to_bits());
        eat(point.probability.to_bits());
        match &point.witness {
            None => eat(0),
            Some(witness) => {
                eat(witness.ids.len() as u64 + 1);
                for id in &witness.ids {
                    eat(id.raw());
                }
                eat(witness.probability.to_bits());
            }
        }
    }
    hash
}

/// Branch probabilities of one row. Simple rows at the extremes (1.0 and
/// 1e-12) and in between; rule rows of one to four branches, some whose
/// mass is exactly 1, one a rounding step past it, and some partial.
const SHAPES: &[(bool, &[f64])] = &[
    (false, &[1.0]),
    (false, &[1e-12]),
    (false, &[0.5]),
    (false, &[0.3]),
    (false, &[0.9]),
    (true, &[0.4]),
    (true, &[1.0]),
    (true, &[0.5, 0.5]),
    (true, &[0.25, 0.75]),
    (true, &[1e-12, 0.6]),
    (true, &[0.125, 0.375, 0.5]),
    (true, &[0.1, 0.2, 0.7]),
    (true, &[0.1, 0.2, 0.3]),
    (true, &[0.4, 0.2, 0.1, 0.2]),
    (true, &[0.25, 0.25, 0.25, 0.25]),
];

/// Scores on a coarse grid, so equal scores and equal totals are common
/// and exact output stays small, plus one a hair off the grid so lines
/// merge under `scores_equal` without being bit-equal.
fn score(step: u32) -> f64 {
    if step == 16 {
        3.0 + 1e-12
    } else {
        f64::from(step) * 0.75
    }
}

/// One engine input: rows, exit flags with at least one set, k in
/// `1..=rows + 1`, and the engine configuration.
#[derive(Debug)]
struct Case {
    rows: Vec<DpRow>,
    exits: Vec<bool>,
    k: usize,
    config: EngineConfig,
}

fn case() -> impl Strategy<Value = Case> {
    let steps = (0u32..17, 0u32..17, 0u32..17, 0u32..17);
    let row = (0..SHAPES.len(), steps, any::<bool>());
    let config = (0usize..5, any::<bool>(), any::<bool>());
    (
        proptest::collection::vec(row, 1..19),
        0usize..64,
        0usize..64,
        config,
    )
        .prop_map(|(raw, exit_at, k_raw, (lines, weighted, witnesses))| {
            let mut rows = Vec::new();
            let mut exits = Vec::new();
            for (shape, (s0, s1, s2, s3), exit) in raw {
                let (rule, probs) = SHAPES[shape];
                let id = rows.len() as u64 * 10;
                let branches: Vec<(TupleId, f64, f64)> = probs
                    .iter()
                    .zip([s0, s1, s2, s3])
                    .enumerate()
                    .map(|(b, (&prob, step))| (TupleId(id + b as u64), score(step), prob))
                    .collect();
                rows.push(if rule {
                    DpRow::Rule { branches }
                } else {
                    let (id, score, prob) = branches[0];
                    DpRow::Simple { id, score, prob }
                });
                exits.push(exit);
            }
            let n = rows.len();
            exits[exit_at % n] = true;
            Case {
                rows,
                exits,
                k: 1 + k_raw % (n + 1),
                config: EngineConfig {
                    max_lines: [0, 1, 3, 16, 200][lines],
                    coalesce_policy: if weighted {
                        CoalescePolicy::WeightedMean
                    } else {
                        CoalescePolicy::PaperMean
                    },
                    track_witnesses: witnesses,
                },
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn columnar_engine_matches_the_scalar_recurrence(case in case()) {
        let Case { rows, exits, k, config } = &case;
        let columnar = engine::run(rows, exits, *k, config);
        let scalar = dp_engine_oracle::run(rows, exits, *k, config);
        prop_assert_eq!(&columnar, &scalar, "{:?}", case);
        prop_assert_eq!(digest(&columnar), digest(&scalar), "{:?}", case);
    }
}

/// [`digest`] of `topk_score_distribution` under the default
/// [`MainConfig`] for k = 1..=10, on the CarTel relations of
/// `generate_area` at seed 9: 60 segments (199 rows), then 600 segments
/// (1,971 rows). Recorded from the per-segment engine before it gained a
/// witness arena, worker-owned scratch and segment workers.
const PINNED: [[u64; 10]; 2] = [
    [
        0xd27d_eead_b2ad_26cb,
        0x4987_49b2_f610_1518,
        0x9b1b_336e_00d5_fd70,
        0x1c71_e8da_4d7a_a21b,
        0x1823_5660_d732_b3c0,
        0x520f_bdf3_12ee_ef27,
        0xb51b_031b_fe99_bc5b,
        0x1857_91eb_6686_7c3b,
        0x1725_98e2_c286_6f7c,
        0x6c50_cbfb_13ce_e2da,
    ],
    [
        0xc2b7_ea49_ba3d_0be2,
        0x58d7_c4b2_e915_2cb0,
        0x84e7_a4c7_bbaa_c827,
        0xb286_b1e0_208f_bf86,
        0x801f_f7db_7e23_107b,
        0x8414_64e0_ebc7_b270,
        0x375b_d2ce_8cbe_fd5e,
        0x66e9_9b02_42f1_3d43,
        0x07c5_df37_1687_ad5f,
        0x5a13_8a76_fe31_8306,
    ],
];

#[test]
fn cartel_distributions_are_pinned() {
    for (segments, pins) in [60, 600].into_iter().zip(PINNED) {
        let area = generate_area(&CartelConfig {
            segments,
            seed: 9,
            ..CartelConfig::default()
        })
        .unwrap();
        for (k, pin) in (1..).zip(pins) {
            let out = topk_score_distribution(area.table(), k, &MainConfig::default()).unwrap();
            assert_eq!(
                digest(&out.distribution),
                pin,
                "{} rows, k={k}",
                area.table().len()
            );
        }
    }
}
