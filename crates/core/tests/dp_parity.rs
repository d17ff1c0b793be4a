//! Parity of the main dynamic program.
//!
//! - The columnar forward engine against the scalar forward recurrence it
//!   implements (`support/dp_engine_oracle.rs`), bit for bit, on random row
//!   sequences built from the numerical edge cases; and that recurrence
//!   against the bottom-up one when nothing is coalesced.
//! - The per-segment driver the forward pass replaced, kept as an oracle in
//!   the same file: pinned digests of its output on the CarTel evaluation
//!   relations prove it is that driver bit for bit.
//! - The library's driver (a walk over a segment tree of the ending
//!   segments) against the oracle within the tolerances a different float
//!   and coalescing order allows, and pinned digests of its own output.

#[path = "support/dp_engine_oracle.rs"]
mod dp_engine_oracle;
mod support;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use proptest::prelude::*;
use ttk_core::dp::engine::{self, DpRow, EngineConfig};
use ttk_core::dp::{topk_score_distribution, MainConfig, MeStrategy};
use ttk_datagen::cartel::area_table;
use ttk_uncertain::{CoalescePolicy, ScoreDistribution, TupleId, UncertainTable};

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
        let scalar = dp_engine_oracle::run_forward(rows, exits, *k, config);
        prop_assert_eq!(&columnar, &scalar, "{:?}", case);
        prop_assert_eq!(digest(&columnar), digest(&scalar), "{:?}", case);
    }

    /// With nothing coalesced the forward and bottom-up recurrences compute
    /// the same distribution; only the order of the float sums differs.
    #[test]
    fn forward_recurrence_matches_bottom_up_unbounded(case in case()) {
        let Case { rows, exits, k, config } = &case;
        let config = EngineConfig { max_lines: 0, ..*config };
        let forward = dp_engine_oracle::run_forward(rows, exits, *k, &config);
        let bottom_up = dp_engine_oracle::run(rows, exits, *k, &config);
        prop_assert_eq!(forward.len(), bottom_up.len(), "{:?}", case);
        for (f, b) in forward.points().iter().zip(bottom_up.points()) {
            prop_assert!((f.score - b.score).abs() < 1e-9, "{:?}", case);
            prop_assert!((f.probability - b.probability).abs() < 1e-9, "{:?}", case);
        }
    }
}

/// The relations of `area_table` at seed 9: 60 segments (199 rows), then
/// 600 segments (1,971 rows).
fn cartel() -> &'static [UncertainTable; 2] {
    static TABLES: OnceLock<[UncertainTable; 2]> = OnceLock::new();
    TABLES.get_or_init(|| [60, 600].map(|segments| area_table(segments, 9).unwrap()))
}

/// The configurations the CarTel comparisons run under: the default
/// [`MainConfig`] (PaperMean, witnesses tracked), then WeightedMean without
/// witnesses, which reach neither mass nor scores.
fn cartel_configs() -> [MainConfig; 2] {
    [
        MainConfig::default(),
        MainConfig {
            coalesce_policy: CoalescePolicy::WeightedMean,
            track_witnesses: false,
            ..MainConfig::default()
        },
    ]
}

/// The oracle's output on each [`cartel`] relation for k = 1..=10 under
/// each of [`cartel_configs`], indexed `[config][relation][k - 1]`.
///
/// The scalar oracle takes ~40 s of CPU for all forty, most of it at
/// k ≥ 7, so the tests share one computation on two threads, slowest runs
/// first.
fn oracle_on_cartel() -> &'static [[Vec<ScoreDistribution>; 2]; 2] {
    static OUTPUT: OnceLock<[[Vec<ScoreDistribution>; 2]; 2]> = OnceLock::new();
    OUTPUT.get_or_init(|| {
        let mut jobs: Vec<(usize, usize, usize)> = (0..2)
            .flat_map(|config| {
                (0..2).flat_map(move |relation| (1..=10).map(move |k| (config, relation, k)))
            })
            .collect();
        jobs.sort_by_key(|&(_, relation, k)| std::cmp::Reverse((k, relation)));
        let next = AtomicUsize::new(0);
        let done = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    while let Some(&(config, relation, k)) =
                        jobs.get(next.fetch_add(1, Ordering::Relaxed))
                    {
                        let out = dp_engine_oracle::topk_score_distribution(
                            &cartel()[relation],
                            k,
                            &cartel_configs()[config],
                        );
                        done.lock().unwrap().push(((config, relation, k), out));
                    }
                });
            }
        });
        let mut output: [[Vec<ScoreDistribution>; 2]; 2] = Default::default();
        let mut done = done.into_inner().unwrap();
        done.sort_by_key(|&(job, _)| job);
        for ((config, relation, _), out) in done {
            output[config][relation].push(out);
        }
        output
    })
}

/// [`digest`] of the per-segment driver's output under the default
/// [`MainConfig`] for k = 1..=10 on the [`cartel`] relations. Recorded from
/// the library's per-segment engine before it gained a witness arena,
/// worker-owned scratch and segment workers; that engine and its successor
/// matched them bit for bit.
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
    for ((table, outputs), pins) in cartel().iter().zip(&oracle_on_cartel()[0]).zip(PINNED) {
        for ((k, output), pin) in (1..).zip(outputs).zip(pins) {
            assert_eq!(digest(output), pin, "{} rows, k={k}", table.len());
        }
    }
}

/// [`digest`] of the library's `topk_score_distribution` under the default
/// [`MainConfig`] for k = 1..=10 on the [`cartel`] relations, recorded from
/// the segment-tree walk when it replaced the forward pass. Its raw W1 to a
/// `max_lines` 4,000 reference was 0.66–1.07× the forward pass's on both
/// relations at k = 3, 5 and 10 under both policies; k = 1 is one segment,
/// the same program either way.
const FORWARD_PINNED: [[u64; 10]; 2] = [
    [
        0x6173_b804_9b7e_22db,
        0x5144_e1ca_eb4a_6edc,
        0x6e07_9d61_45b2_61a8,
        0xdd04_8ff8_51a4_438a,
        0xe6d3_c0a4_2a6d_8e9b,
        0x7291_df66_18c7_056d,
        0x8409_a64b_cad1_ff79,
        0xa153_db28_1bf4_2ee9,
        0x55e1_112d_0d43_ddf1,
        0x31c3_e1dc_e495_0577,
    ],
    [
        0x40f8_9705_91b9_55f2,
        0x4597_0616_b6ab_616c,
        0x528d_811a_dede_7ed8,
        0x1621_200f_4332_dd8c,
        0x7b13_129f_e0b7_9a66,
        0xa968_1927_064d_02fc,
        0x71af_7bbb_1887_550a,
        0x4d0d_69c5_c70e_c743,
        0x3cd9_f5f1_42a6_9bbf,
        0xcaf4_b13c_6fe3_22ad,
    ],
];

#[test]
fn forward_driver_distributions_are_pinned() {
    for (table, pins) in cartel().iter().zip(FORWARD_PINNED) {
        for (k, pin) in (1..).zip(pins) {
            let out = topk_score_distribution(table, k, &MainConfig::default()).unwrap();
            assert_eq!(
                digest(&out.distribution),
                pin,
                "{} rows, k={k}",
                table.len()
            );
        }
    }
}

/// `a` and `b` within `bound` of the larger of them.
fn relatively_close(a: f64, b: f64, bound: f64) -> bool {
    (a - b).abs() <= bound * a.abs().max(b.abs())
}

/// What the library's driver may change against the per-segment oracle:
/// the order of float sums and of coalescing. Total mass agrees to rounding, as
/// does the expected score under WeightedMean, which preserves it; the
/// paper's plain-mean coalescing moves it by a fraction of a percent.
fn within_tolerance(
    forward: &ScoreDistribution,
    oracle: &ScoreDistribution,
    policy: CoalescePolicy,
) -> Result<(), String> {
    let (mass, oracle_mass) = (forward.total_probability(), oracle.total_probability());
    if !relatively_close(mass, oracle_mass, 1e-12) {
        return Err(format!("total mass {mass} vs {oracle_mass}"));
    }
    let bound = match policy {
        CoalescePolicy::WeightedMean => 1e-9,
        CoalescePolicy::PaperMean => 5e-3,
    };
    let (mean, oracle_mean) = (forward.expected_score(), oracle.expected_score());
    if !relatively_close(mean, oracle_mean, bound) {
        return Err(format!("expected score {mean} vs {oracle_mean}"));
    }
    Ok(())
}

#[test]
fn forward_driver_stays_within_tolerance_of_the_oracle_on_cartel() {
    for (config, oracle) in cartel_configs().iter().zip(oracle_on_cartel()) {
        for (table, oracle) in cartel().iter().zip(oracle) {
            for (k, oracle) in (1..).zip(oracle) {
                let forward = topk_score_distribution(table, k, config).unwrap();
                within_tolerance(&forward.distribution, oracle, config.coalesce_policy)
                    .unwrap_or_else(|error| {
                        panic!(
                            "{} rows, k={k}, {:?}: {error}",
                            table.len(),
                            config.coalesce_policy
                        )
                    });
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same tolerances on random tables with score ties and ME groups,
    /// both decompositions, with the line budget small enough that
    /// coalescing runs.
    #[test]
    fn forward_driver_stays_within_tolerance_of_the_oracle(
        table in support::table_with(40),
        k in 1usize..7,
        lines in 0usize..3,
    ) {
        let max_lines = [16, 64, 200][lines];
        for strategy in [MeStrategy::LeadRegions, MeStrategy::PerEnding] {
            for policy in [CoalescePolicy::PaperMean, CoalescePolicy::WeightedMean] {
                let config = MainConfig {
                    max_lines,
                    coalesce_policy: policy,
                    me_strategy: strategy,
                    ..MainConfig::default()
                };
                let forward = topk_score_distribution(&table, k, &config).unwrap();
                let oracle = dp_engine_oracle::topk_score_distribution(&table, k, &config);
                if let Err(error) = within_tolerance(&forward.distribution, &oracle, policy) {
                    return Err(TestCaseError::fail(format!("k={k}, {strategy:?}, {policy:?}, {max_lines} lines: {error}")));
                }
            }
        }
    }
}
