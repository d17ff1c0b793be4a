//! Property-based cross-validation of every algorithm against exhaustive
//! possible-world enumeration on random small tables (with score ties and
//! mutual-exclusion groups).

#[path = "support/materialized.rs"]
mod materialized;

use materialized::materialized_topk_score_distribution;
use proptest::prelude::*;
use ttk_core::baselines::{exhaustive_u_topk, u_topk, UTopkConfig};
use ttk_core::dp::{topk_score_distribution, MainConfig, MeStrategy};
use ttk_core::state_expansion::NaiveConfig;
use ttk_core::typical::{typical_topk, typical_topk_brute_force};
use ttk_core::{k_combo, state_expansion};
use ttk_uncertain::{
    exact_topk_score_distribution, ScoreDistribution, UncertainTable, UncertainTuple,
};

/// Random small table with ties (small integer score range) and greedy ME
/// grouping.
fn small_table() -> impl Strategy<Value = UncertainTable> {
    let tuple = (0u64..1000, 0i32..8, 1u32..=10)
        .prop_map(|(id, score, p)| (id, score as f64, p as f64 / 10.0));
    (proptest::collection::vec(tuple, 1..9), any::<bool>()).prop_map(|(mut raw, group_dense)| {
        raw.sort_by_key(|r| r.0);
        raw.dedup_by_key(|r| r.0);
        let tuples: Vec<UncertainTuple> = raw
            .iter()
            .map(|&(id, s, p)| UncertainTuple::new(id, s, p).unwrap())
            .collect();
        let max_group = if group_dense { 4 } else { 2 };
        let mut rules: Vec<Vec<u64>> = Vec::new();
        let mut current: Vec<u64> = Vec::new();
        let mut current_sum = 0.0;
        for t in &tuples {
            if current.len() < max_group && current_sum + t.prob() <= 1.0 {
                current.push(t.id().raw());
                current_sum += t.prob();
            } else {
                if current.len() > 1 {
                    rules.push(current.clone());
                }
                current = vec![t.id().raw()];
                current_sum = t.prob();
            }
        }
        if current.len() > 1 {
            rules.push(current);
        }
        UncertainTable::new(
            tuples,
            rules
                .into_iter()
                .map(|r| r.into_iter().map(Into::into).collect())
                .collect(),
        )
        .unwrap()
    })
}

/// Random larger table (tens to hundreds of tuples) with frequent score ties
/// and greedy ME grouping — big enough that the Theorem-2 gate actually
/// closes before the end of the stream, exercising real truncation.
fn large_table() -> impl Strategy<Value = UncertainTable> {
    let tuple = (0u64..100_000, 0i32..40, 1u32..=10)
        .prop_map(|(id, score, p)| (id, score as f64, p as f64 / 10.0));
    proptest::collection::vec(tuple, 60..220).prop_map(|mut raw| {
        raw.sort_by_key(|r| r.0);
        raw.dedup_by_key(|r| r.0);
        let tuples: Vec<UncertainTuple> = raw
            .iter()
            .map(|&(id, s, p)| UncertainTuple::new(id, s, p).unwrap())
            .collect();
        let mut rules: Vec<Vec<u64>> = Vec::new();
        let mut current: Vec<u64> = Vec::new();
        let mut current_sum = 0.0;
        for t in &tuples {
            if current.len() < 4 && current_sum + t.prob() <= 1.0 {
                current.push(t.id().raw());
                current_sum += t.prob();
            } else {
                if current.len() > 1 {
                    rules.push(current.clone());
                }
                current = vec![t.id().raw()];
                current_sum = t.prob();
            }
        }
        if current.len() > 1 {
            rules.push(current);
        }
        UncertainTable::new(
            tuples,
            rules
                .into_iter()
                .map(|r| r.into_iter().map(Into::into).collect())
                .collect(),
        )
        .unwrap()
    })
}

/// Member probabilities of one ME group: certain and 1e-12 tuples, groups
/// whose mass is exactly 1 (0.5 + 0.5, 0.25 + 0.75, 0.125 + 0.375 + 0.5),
/// one a rounding step past it (0.1 + 0.2 + 0.7), and partial groups.
const EDGE_GROUPS: &[&[f64]] = &[
    &[1.0],
    &[1e-12],
    &[0.5],
    &[0.3],
    &[0.5, 0.5],
    &[0.25, 0.75],
    &[1e-12, 0.6],
    &[0.125, 0.375, 0.5],
    &[0.1, 0.2, 0.7],
    &[0.1, 0.2, 0.3],
];

/// Scores on a coarse grid, so equal scores and equal totals are common,
/// plus `3.0 + 1e-12` (1e-12 from the grid's 3.0: a different rank, the
/// same line under `scores_equal`) and two denormals.
fn edge_score(step: u32) -> f64 {
    match step {
        0 => 5e-324,
        1 => 1e-310,
        2 => 3.0 + 1e-12,
        step => f64::from(step) * 0.75,
    }
}

/// A table of one to four groups drawn from [`EDGE_GROUPS`], each member
/// scored by [`edge_score`], and a k from 1 to the table's length.
fn edge_case_table() -> impl Strategy<Value = (UncertainTable, usize)> {
    let group = (0..EDGE_GROUPS.len(), (0u32..9, 0u32..9, 0u32..9));
    (proptest::collection::vec(group, 1..5), 0usize..64).prop_map(|(groups, k_raw)| {
        let mut tuples = Vec::new();
        let mut rules = Vec::new();
        for (shape, (s0, s1, s2)) in groups {
            let members: Vec<u64> = EDGE_GROUPS[shape]
                .iter()
                .zip([s0, s1, s2])
                .map(|(&prob, step)| {
                    let id = tuples.len() as u64;
                    tuples.push(UncertainTuple::new(id, edge_score(step), prob).unwrap());
                    id
                })
                .collect();
            if members.len() > 1 {
                rules.push(members.into_iter().map(Into::into).collect());
            }
        }
        let k = 1 + k_raw % tuples.len();
        (UncertainTable::new(tuples, rules).unwrap(), k)
    })
}

/// `got` and `exact` carry the same mass, and the same CDF at every score
/// either has a line at, looked up 1e-9 above it: lines equal under
/// `scores_equal` may keep different representatives, and different float
/// orders leave rounding-residue lines of no meaning.
fn assert_cdf_close(
    got: &ScoreDistribution,
    exact: &ScoreDistribution,
    label: &str,
) -> Result<(), TestCaseError> {
    let (mass, exact_mass) = (got.total_probability(), exact.total_probability());
    prop_assert!(
        (mass - exact_mass).abs() < 1e-9,
        "{label}: mass {mass} vs {exact_mass}"
    );
    for point in got.points().iter().chain(exact.points()) {
        let x = point.score + 1e-9;
        let (cdf, exact_cdf) = (got.cdf(x), exact.cdf(x));
        prop_assert!(
            (cdf - exact_cdf).abs() < 1e-9,
            "{label}: CDF at {x}: {cdf} vs {exact_cdf}"
        );
    }
    Ok(())
}

fn assert_close(a: &ScoreDistribution, b: &ScoreDistribution, label: &str) {
    assert_eq!(
        a.len(),
        b.len(),
        "{label}: line count {} vs {}",
        a.len(),
        b.len()
    );
    for (pa, pb) in a.points().iter().zip(b.points()) {
        assert!(
            (pa.score - pb.score).abs() < 1e-9,
            "{label}: score {} vs {}",
            pa.score,
            pb.score
        );
        assert!(
            (pa.probability - pb.probability).abs() < 1e-9,
            "{label}: probability at score {}: {} vs {}",
            pa.score,
            pa.probability,
            pb.probability
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The main DP (both ME strategies), StateExpansion and k-Combo all
    /// reproduce the exhaustive score distribution exactly when pruning and
    /// coalescing are disabled.
    #[test]
    fn all_algorithms_match_exhaustive(table in small_table(), k in 1usize..5) {
        let exact = exact_topk_score_distribution(&table, k, 1 << 24).unwrap();

        for strategy in [MeStrategy::LeadRegions, MeStrategy::PerEnding] {
            let config = MainConfig {
                p_tau: 1e-12,
                max_lines: 0,
                me_strategy: strategy,
                ..MainConfig::default()
            };
            let got = topk_score_distribution(&table, k, &config).unwrap();
            assert_close(&got.distribution, &exact, &format!("main/{strategy:?} k={k}"));
        }

        let naive = NaiveConfig { p_tau: 1e-12, max_lines: 0, ..NaiveConfig::default() };
        let se = state_expansion(&table, k, &naive).unwrap();
        assert_close(&se.distribution, &exact, &format!("state-expansion k={k}"));
        let kc = k_combo(&table, k, &naive).unwrap();
        assert_close(&kc.distribution, &exact, &format!("k-combo k={k}"));
    }

    /// The one-pass U-Topk finds a vector whose probability equals the
    /// maximum probability over all vectors found by enumeration.
    ///
    /// (Under score ties the two approaches may pick different but equally
    /// probable vectors; under the prefix semantics the pass's probability
    /// never exceeds the enumeration optimum.)
    #[test]
    fn u_topk_probability_is_maximal(table in small_table(), k in 1usize..4) {
        let exact = exhaustive_u_topk(&table, k, 1 << 24).unwrap();
        let got = u_topk(&table, k, &UTopkConfig::default()).unwrap();
        match (exact, got) {
            (None, None) => {}
            (Some((_, best)), Some(answer)) => {
                prop_assert!(answer.vector.probability() <= best + 1e-9);
                // Without ties the probabilities must match exactly.
                let has_ties = table.tie_groups().iter().any(|g| g.len() > 1);
                if !has_ties {
                    prop_assert!(
                        (answer.vector.probability() - best).abs() < 1e-9,
                        "{} vs {}",
                        answer.vector.probability(),
                        best
                    );
                }
            }
            (exact, got) => {
                return Err(TestCaseError::fail(format!(
                    "existence mismatch: exhaustive={:?} search={:?}",
                    exact.is_some(),
                    got.is_some()
                )));
            }
        }
    }

    /// The typical-selection DP achieves the same optimal objective as brute
    /// force, and its reported objective is consistent with the scores it
    /// returns.
    #[test]
    fn typical_selection_is_optimal(table in small_table(), k in 1usize..4, c in 1usize..5) {
        let dist = exact_topk_score_distribution(&table, k, 1 << 24).unwrap();
        if dist.is_empty() {
            return Ok(());
        }
        let fast = typical_topk(&dist, c).unwrap();
        let slow = typical_topk_brute_force(&dist, c).unwrap();
        prop_assert!((fast.expected_distance - slow.expected_distance).abs() < 1e-9,
            "c={c}: {} vs {}", fast.expected_distance, slow.expected_distance);
        let recomputed = dist.expected_min_distance(&fast.scores());
        prop_assert!((recomputed - fast.expected_distance).abs() < 1e-9);
    }

    /// Coalesced and pruned runs never report more than the allowed number of
    /// lines, never exceed unit mass, and keep the expected score within the
    /// exact distribution's span.
    #[test]
    fn approximation_stays_sane(table in small_table(), k in 1usize..4, max_lines in 1usize..12) {
        let exact = exact_topk_score_distribution(&table, k, 1 << 24).unwrap();
        if exact.is_empty() {
            return Ok(());
        }
        let config = MainConfig {
            p_tau: 1e-3,
            max_lines,
            ..MainConfig::default()
        };
        let got = topk_score_distribution(&table, k, &config).unwrap().distribution;
        prop_assert!(got.len() <= max_lines);
        prop_assert!(got.total_probability() <= 1.0 + 1e-9);
        if !got.is_empty() {
            let lo = exact.min_score().unwrap();
            let hi = exact.max_score().unwrap();
            prop_assert!(got.expected_score() >= lo - 1e-9 && got.expected_score() <= hi + 1e-9);
        }
    }

    /// The streaming `ScanGate` path produces **bit-identical**
    /// `ScoreDistribution`s to the old materialize-then-truncate path, on
    /// small tables (never truncated) and on large ones (genuinely truncated
    /// mid-stream), across ME groups, score ties, both decomposition
    /// strategies, and with coalescing both off and on.
    #[test]
    fn streaming_path_is_bit_identical_to_materialized(
        small in small_table(),
        large in large_table(),
        k in 1usize..5,
    ) {
        for table in [&small, &large] {
            for strategy in [MeStrategy::LeadRegions, MeStrategy::PerEnding] {
                for (p_tau, max_lines) in [(1e-3, 0usize), (0.05, 8)] {
                    let config = MainConfig {
                        p_tau,
                        max_lines,
                        me_strategy: strategy,
                        ..MainConfig::default()
                    };
                    let streamed = topk_score_distribution(table, k, &config).unwrap();
                    let materialized =
                        materialized_topk_score_distribution(table, k, &config).unwrap();
                    // `PartialEq` on distributions compares every score,
                    // probability and witness with exact f64 equality.
                    prop_assert_eq!(&streamed.distribution, &materialized.distribution);
                    prop_assert_eq!(streamed.scan_depth, materialized.scan_depth);
                    prop_assert_eq!(streamed.segments, materialized.segments);
                }
            }
        }
    }

    /// The scan depth never cuts off more than pτ worth of top-k vector mass:
    /// running the DP with the Theorem-2 truncation captures at least the
    /// exhaustive mass minus a generous multiple of pτ.
    #[test]
    fn scan_depth_preserves_mass(table in small_table(), k in 1usize..4) {
        let exact = exact_topk_score_distribution(&table, k, 1 << 24).unwrap();
        let config = MainConfig { p_tau: 1e-3, max_lines: 0, ..MainConfig::default() };
        let got = topk_score_distribution(&table, k, &config).unwrap().distribution;
        // Tiny tables are never truncated, so the masses must agree almost
        // exactly; the tolerance accounts for the per-vector pτ pruning
        // guarantee only.
        prop_assert!(got.total_probability() >= exact.total_probability() - 1e-2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Every distribution algorithm matches the exhaustive one on the
    /// numerical edge cases: probabilities of 1.0 and 1e-12, ME groups of
    /// mass exactly 1 and a rounding step past it, scores equal under
    /// `scores_equal` but not bit-equal, denormal scores, and k up to the
    /// table's length.
    #[test]
    fn numerical_edge_cases_match_exhaustive(case in edge_case_table()) {
        let (table, k) = case;
        let exact = exact_topk_score_distribution(&table, k, 1 << 24).unwrap();
        for strategy in [MeStrategy::LeadRegions, MeStrategy::PerEnding] {
            let config = MainConfig {
                p_tau: 1e-12,
                max_lines: 0,
                me_strategy: strategy,
                ..MainConfig::default()
            };
            let got = topk_score_distribution(&table, k, &config).unwrap();
            assert_cdf_close(&got.distribution, &exact, &format!("main/{strategy:?} k={k}"))?;
        }
        let naive = NaiveConfig { p_tau: 1e-12, max_lines: 0, ..NaiveConfig::default() };
        let se = state_expansion(&table, k, &naive).unwrap();
        assert_cdf_close(&se.distribution, &exact, &format!("state-expansion k={k}"))?;
        let kc = k_combo(&table, k, &naive).unwrap();
        assert_cdf_close(&kc.distribution, &exact, &format!("k-combo k={k}"))?;
    }
}
