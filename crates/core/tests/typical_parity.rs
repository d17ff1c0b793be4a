//! Parity of c-Typical-Topk selection: the library's divide and conquer
//! over monotone argmins against the plain O(c·n²) scans of Figure 7
//! (`support/typical_oracle.rs`) — the same typical answers and the same
//! objective bits — and against the brute force over every subset.

#[path = "support/typical_oracle.rs"]
mod typical_oracle;

use proptest::prelude::*;
use ttk_core::dp::{topk_score_distribution, MainConfig};
use ttk_core::{typical_topk, typical_topk_brute_force, TypicalSelection};
use ttk_datagen::cartel::area_table;
use ttk_uncertain::{ScoreDistribution, TupleId, UncertainTable};

/// `fast` against the oracle's selection on `distribution`: the same
/// answers and objective bits, or — where rounding breaks the argmins'
/// monotonicity at a near-tie — an objective equal within 1e-12 relative
/// that the chosen scores really attain.
fn agrees(
    distribution: &ScoreDistribution,
    fast: &TypicalSelection,
    oracle: &TypicalSelection,
) -> Result<(), String> {
    if fast.answers == oracle.answers
        && fast.expected_distance.to_bits() == oracle.expected_distance.to_bits()
    {
        return Ok(());
    }
    let (a, b) = (fast.expected_distance, oracle.expected_distance);
    let attained = distribution.expected_min_distance(&fast.scores());
    if (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
        && (attained - a).abs() <= 1e-9 * a.abs().max(1.0)
    {
        return Ok(());
    }
    Err(format!(
        "chose {:?} at {a:e}, the oracle {:?} at {b:e}",
        fast.scores(),
        oracle.scores()
    ))
}

#[test]
fn cartel_answers_match_the_plain_scans() {
    for segments in [60, 600] {
        let table = area_table(segments, 9).unwrap();
        for k in [3, 5, 10] {
            let out = topk_score_distribution(&table, k, &MainConfig::default()).unwrap();
            for c in 1..=10 {
                let fast = typical_topk(&out.distribution, c).unwrap();
                let oracle = typical_oracle::typical_topk(&out.distribution, c);
                assert_eq!(
                    fast.answers,
                    oracle.answers,
                    "{} rows, k={k}, c={c}",
                    table.len()
                );
                assert_eq!(
                    fast.expected_distance.to_bits(),
                    oracle.expected_distance.to_bits(),
                    "{} rows, k={k}, c={c}",
                    table.len()
                );
            }
        }
    }
}

/// A distribution of up to 250 lines: scores on a coarse grid (so costs
/// tie exactly, and equal scores merge) or a fine one, probabilities from
/// a few values or many.
fn distribution() -> impl Strategy<Value = ScoreDistribution> {
    let line = (0u32..8, 1u32..=1000);
    (
        proptest::collection::vec(line, 1..250),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(lines, coarse_scores, coarse_probs)| {
            let mut score = 0.0;
            ScoreDistribution::from_pairs(lines.into_iter().map(|(gap, p)| {
                score += if coarse_scores {
                    f64::from(gap) * 0.5
                } else {
                    f64::from(gap) * 0.37 + f64::from(p) * 1e-4
                };
                let probability = if coarse_probs {
                    f64::from(p % 4 + 1) / 1024.0
                } else {
                    f64::from(p) / 250_000.0
                };
                (score, probability)
            }))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn selection_matches_the_plain_scans(d in distribution(), c in 1usize..13) {
        let fast = typical_topk(&d, c).unwrap();
        let oracle = typical_oracle::typical_topk(&d, c);
        if let Err(error) = agrees(&d, &fast, &oracle) {
            return Err(TestCaseError::fail(format!("c={c}, {} lines: {error}", d.len())));
        }
    }
}

#[test]
fn selection_matches_the_brute_force_on_small_inputs() {
    // Deterministic pseudo-random distributions of 2–10 lines.
    let mut seed = 0x2545_F491_4F6C_DD1Du64;
    let mut next = || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    for case in 0..200 {
        let n = 2 + (next() % 9) as usize;
        let d = ScoreDistribution::from_pairs((0..n).map(|_| {
            (
                (next() % 500) as f64 / 4.0,
                ((next() % 99) + 1) as f64 / 100.0,
            )
        }));
        for c in 1..=4usize.min(d.len()) {
            let fast = typical_topk(&d, c).unwrap();
            let slow = typical_topk_brute_force(&d, c).unwrap();
            assert!(
                (fast.expected_distance - slow.expected_distance).abs() < 1e-9,
                "case {case}, c={c}: {} vs {}",
                fast.expected_distance,
                slow.expected_distance
            );
            let attained = d.expected_min_distance(&fast.scores());
            assert!((attained - fast.expected_distance).abs() < 1e-9);
        }
    }
}

#[test]
fn soldier_anchors_hold() {
    // §2.2: the 3-Typical-Top-2 scores of the soldier table are 118, 183
    // and 235.
    let table = UncertainTable::builder()
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
        .unwrap();
    let config = MainConfig {
        p_tau: 1e-9,
        max_lines: 0,
        ..MainConfig::default()
    };
    let d = topk_score_distribution(&table, 2, &config)
        .unwrap()
        .distribution;
    let three = typical_topk(&d, 3).unwrap();
    assert_eq!(three.scores(), vec![118.0, 183.0, 235.0]);
    assert_eq!(three, typical_oracle::typical_topk(&d, 3));
    let ids: Vec<&[TupleId]> = three.vectors().iter().map(|v| v.ids()).collect();
    assert_eq!(
        ids,
        [
            &[TupleId(2), TupleId(6)][..],
            &[TupleId(7), TupleId(6)],
            &[TupleId(7), TupleId(3)]
        ]
    );
}
