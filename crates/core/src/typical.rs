//! Selecting c-Typical-Topk answers from a score distribution (§4).
//!
//! Given the PMF `{(s_1, p_1), …, (s_n, p_n)}` of top-k total scores (scores
//! ascending) the c-Typical-Topk *scores* are the `c` support points that
//! minimise the expected distance between a random score drawn from the PMF
//! and the closest chosen score (Definition 1) — a one-dimensional c-median
//! problem restricted to the support. The c-Typical-Topk *tuples* are, for
//! each chosen score, the most probable top-k vector attaining it
//! (Definition 2); those witnesses are carried by the
//! [`ScoreDistribution`] produced by the
//! algorithms of this crate.
//!
//! The solver is the two-function dynamic program of Figure 7 (after Hassin &
//! Tamir, "Improved complexity bounds for location problems on the real
//! line", 1991): `F_a(j)` is the optimal cost of covering the suffix
//! `{s_j, …}` with at most `a` typical scores, and `G_a(j)` the same under
//! the constraint that `s_j` itself is typical. With prefix sums `P`/`PS`
//! every candidate split is evaluated in O(1).
//!
//! # Monotone argmins
//!
//! Both inner minimisations have monotone argmins, which is what brings
//! Hassin & Tamir's bound within reach. Write `F_a(j) = min_k [L(j, k) +
//! G_a(k)]` over `j ≤ k < n`, where `L(j, k)` assigns `s_j..=s_k` to `s_k`.
//! For `j₁ < j₂ ≤ k₁ < k₂` the quadrangle inequality
//! `L(j₁, k₁) + L(j₂, k₂) ≤ L(j₁, k₂) + L(j₂, k₁)` holds: the two sides
//! differ by `(P[j₂] − P[j₁])·(s_k₁ − s_k₂) ≤ 0`, since the mass between
//! `j₁` and `j₂` pays the smaller of the two scores on the left side. The
//! term `G_a(k)` depends on `k` alone and cancels, and a split with
//! `k < j` is infinite, which only helps the inequality. So the leftmost
//! minimising `k` never decreases as `j` grows. The same holds for `G_a(j)
//! = min_k [R(j, k − 1) + F_{a−1}(k)]` over `j < k ≤ n`, where `R(j, k)`
//! assigns `s_j..=s_k` to `s_j`: the difference is `(P[k₂ + 1] − P[k₁ +
//! 1])·(s_j₁ − s_j₂) ≤ 0`.
//!
//! So each layer solves the middle `j` by a scan, then the `j` below it
//! only over splits up to its argmin and the `j` above only from it on:
//! O(n log n) per layer and O(c·n·log n) in all, against O(c·n²) for the
//! plain scans. (SMAWK would make a layer O(n), Hassin & Tamir's O(c·n).)
//! Every candidate is the same expression the plain scan evaluates, and a
//! scan keeps the leftmost minimum, so the two agree bit for bit wherever
//! rounding keeps the argmins monotone. `tests/typical_parity.rs` holds the
//! selection to the plain scans (kept in `tests/support/typical_oracle.rs`)
//! and to the brute force.

use ttk_uncertain::{Error, Result, ScoreDistribution, TopkVector};

/// One selected typical answer.
#[derive(Debug, Clone, PartialEq)]
pub struct TypicalAnswer {
    /// The typical score (a support point of the distribution).
    pub score: f64,
    /// Probability mass the distribution assigns to that exact score.
    pub probability: f64,
    /// The most probable top-k vector attaining the score, when the
    /// producing algorithm tracked witnesses.
    pub vector: Option<TopkVector>,
}

/// The result of c-Typical-Topk selection.
#[derive(Debug, Clone, PartialEq)]
pub struct TypicalSelection {
    /// The selected answers in ascending score order. Contains
    /// `min(c, support size)` entries.
    pub answers: Vec<TypicalAnswer>,
    /// The achieved objective: `E[min_i |S − s_i|]` over the captured mass.
    pub expected_distance: f64,
}

impl TypicalSelection {
    /// The typical scores in ascending order.
    pub fn scores(&self) -> Vec<f64> {
        self.answers.iter().map(|a| a.score).collect()
    }

    /// The typical vectors (where available) in ascending score order.
    pub fn vectors(&self) -> Vec<&TopkVector> {
        self.answers
            .iter()
            .filter_map(|a| a.vector.as_ref())
            .collect()
    }
}

/// Selects the c-Typical-Topk answers from a score distribution with the
/// dynamic program of Figure 7, its inner minimisations solved over
/// monotone argmins in O(c·n·log n) (see the module doc).
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `c == 0` or the distribution is
/// empty.
pub fn typical_topk(distribution: &ScoreDistribution, c: usize) -> Result<TypicalSelection> {
    if c == 0 {
        return Err(Error::InvalidParameter(
            "the number of typical answers c must be at least 1".into(),
        ));
    }
    if distribution.is_empty() {
        return Err(Error::InvalidParameter(
            "cannot select typical answers from an empty distribution".into(),
        ));
    }
    let n = distribution.len();
    let points = distribution.points();
    let answer = |i: usize| TypicalAnswer {
        score: points[i].score,
        probability: points[i].probability,
        vector: points[i]
            .witness
            .as_ref()
            .map(|w| w.to_vector(points[i].score)),
    };
    if c >= n {
        // Every support point becomes typical; the objective is zero.
        return Ok(TypicalSelection {
            answers: (0..n).map(answer).collect(),
            expected_distance: 0.0,
        });
    }

    // Prefix sums: P[j] = Σ_{b<j} p_b, PS[j] = Σ_{b<j} p_b·s_b  (0-based,
    // exclusive upper bound, so P[0] = 0 and P[n] is the total mass).
    let mut prefix_p = vec![0.0; n + 1];
    let mut prefix_ps = vec![0.0; n + 1];
    for (j, point) in points.iter().enumerate() {
        prefix_p[j + 1] = prefix_p[j] + point.probability;
        prefix_ps[j + 1] = prefix_ps[j] + point.probability * point.score;
    }
    let score = |j: usize| points[j].score;
    // Cost of assigning points j..=k to the typical score s_k (all of them
    // lie at or below s_k).
    let left_cost = |j: usize, k: usize| -> f64 {
        (prefix_p[k + 1] - prefix_p[j]) * score(k) - (prefix_ps[k + 1] - prefix_ps[j])
    };
    // Cost of assigning points j..=k to the typical score s_j (all of them
    // lie at or above s_j).
    let right_cost = |j: usize, k: usize| -> f64 {
        (prefix_ps[k + 1] - prefix_ps[j]) - (prefix_p[k + 1] - prefix_p[j]) * score(j)
    };

    // Layer a of F and G, and the minimising splits for the traceback, in
    // flat tables of c + 1 rows of n + 1 entries: F_a(j) is f[a·(n+1) + j].
    // Entry n of a row is the empty suffix, which costs nothing.
    let width = n + 1;
    let mut f = vec![0.0; (c + 1) * width];
    let mut g = vec![0.0; (c + 1) * width];
    let mut f_arg = vec![0usize; (c + 1) * width];
    let mut g_arg = vec![0usize; (c + 1) * width];
    // G_1(j): the whole suffix assigned to s_j; the next subproblem starts
    // past the end.
    for j in 0..n {
        g[width + j] = right_cost(j, n - 1);
        g_arg[width + j] = n;
    }
    for a in 1..=c {
        let row = a * width..a * width + n;
        if a >= 2 {
            // G_a(j) = min_{j < k ≤ n} [ right_cost(j, k-1) + F_{a-1}(k) ].
            let f_below = &f[(a - 1) * width..a * width];
            monotone_minima(
                n,
                |j| j + 1..n + 1,
                |j, k| right_cost(j, k - 1) + f_below[k],
                &mut g[row.clone()],
                &mut g_arg[row.clone()],
            );
        }
        // F_a(j) = min_{j ≤ k < n} [ left_cost(j, k) + G_a(k) ].
        let (g_row, f_row) = (&g[row.clone()], &mut f[row.clone()]);
        monotone_minima(
            n,
            |j| j..n,
            |j, k| left_cost(j, k) + g_row[k],
            f_row,
            &mut f_arg[row],
        );
    }

    // Traceback (lines 36–41 of Figure 7).
    let mut chosen = Vec::with_capacity(c);
    let mut start = 0usize;
    for a in (1..=c).rev() {
        if start >= n {
            break;
        }
        let typical = f_arg[a * width + start];
        chosen.push(typical);
        start = if a >= 2 {
            g_arg[a * width + typical]
        } else {
            n
        };
    }
    chosen.sort_unstable();
    chosen.dedup();
    Ok(TypicalSelection {
        answers: chosen.into_iter().map(answer).collect(),
        expected_distance: f[c * width],
    })
}

/// For every `j < n`, the minimum of `cost(j, k)` over `k` in
/// `splits(j)` and the leftmost `k` attaining it, written to `value[j]`
/// and `arg[j]`, when those leftmost argmins never decrease in `j` and
/// `splits(j)`'s bounds do not either.
///
/// Solves the middle `j` by a scan, then the lower half over splits up to
/// its argmin and the upper half from its argmin on: each level of the
/// recursion scans O(n) splits in all.
fn monotone_minima(
    n: usize,
    splits: impl Fn(usize) -> std::ops::Range<usize>,
    cost: impl Fn(usize, usize) -> f64,
    value: &mut [f64],
    arg: &mut [usize],
) {
    // Pending halves: rows lo..hi, whose argmins lie in k_lo..=k_hi.
    let mut pending = vec![(0, n, 0, usize::MAX)];
    while let Some((lo, hi, k_lo, k_hi)) = pending.pop() {
        if lo >= hi {
            continue;
        }
        let j = lo + (hi - lo) / 2;
        let range = splits(j);
        let first = range.start.max(k_lo);
        let last = range.end.min(k_hi.saturating_add(1));
        let mut best = f64::INFINITY;
        let mut best_k = first;
        for k in first..last {
            let candidate = cost(j, k);
            if candidate < best {
                best = candidate;
                best_k = k;
            }
        }
        value[j] = best;
        arg[j] = best_k;
        pending.push((lo, j, k_lo, best_k));
        pending.push((j + 1, hi, best_k, k_hi));
    }
}

/// Brute-force reference implementation: tries every subset of `c` support
/// points. Exponential; used for testing the dynamic program and exposed for
/// small didactic cases.
pub fn typical_topk_brute_force(
    distribution: &ScoreDistribution,
    c: usize,
) -> Result<TypicalSelection> {
    if c == 0 {
        return Err(Error::InvalidParameter(
            "the number of typical answers c must be at least 1".into(),
        ));
    }
    if distribution.is_empty() {
        return Err(Error::InvalidParameter(
            "cannot select typical answers from an empty distribution".into(),
        ));
    }
    let n = distribution.len();
    let points = distribution.points();
    let take = c.min(n);
    let mut best: Option<(Vec<usize>, f64)> = None;

    fn search(
        distribution: &ScoreDistribution,
        n: usize,
        take: usize,
        start: usize,
        current: &mut Vec<usize>,
        best: &mut Option<(Vec<usize>, f64)>,
    ) {
        if current.len() == take {
            let representatives: Vec<f64> = current
                .iter()
                .map(|&i| distribution.points()[i].score)
                .collect();
            let cost = distribution.expected_min_distance(&representatives);
            if best.as_ref().is_none_or(|(_, b)| cost < *b - 1e-15) {
                *best = Some((current.clone(), cost));
            }
            return;
        }
        for i in start..n {
            if n - i < take - current.len() {
                break;
            }
            current.push(i);
            search(distribution, n, take, i + 1, current, best);
            current.pop();
        }
    }
    search(distribution, n, take, 0, &mut Vec::new(), &mut best);
    let (idx, cost) = best.expect("at least one combination exists");
    let answers = idx
        .iter()
        .map(|&i| TypicalAnswer {
            score: points[i].score,
            probability: points[i].probability,
            vector: points[i]
                .witness
                .as_ref()
                .map(|w| w.to_vector(points[i].score)),
        })
        .collect();
    Ok(TypicalSelection {
        answers,
        expected_distance: cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttk_uncertain::ScoreDistribution;

    fn dist(pairs: &[(f64, f64)]) -> ScoreDistribution {
        ScoreDistribution::from_pairs(pairs.iter().copied())
    }

    #[test]
    fn rejects_invalid_inputs() {
        let d = dist(&[(1.0, 0.5)]);
        assert!(typical_topk(&d, 0).is_err());
        assert!(typical_topk(&ScoreDistribution::empty(), 1).is_err());
        assert!(typical_topk_brute_force(&d, 0).is_err());
        assert!(typical_topk_brute_force(&ScoreDistribution::empty(), 2).is_err());
    }

    #[test]
    fn one_typical_score_of_a_symmetric_distribution_is_the_median() {
        let d = dist(&[(0.0, 0.25), (10.0, 0.5), (20.0, 0.25)]);
        let sel = typical_topk(&d, 1).unwrap();
        assert_eq!(sel.answers.len(), 1);
        assert_eq!(sel.answers[0].score, 10.0);
        assert!((sel.expected_distance - 5.0).abs() < 1e-12);
    }

    #[test]
    fn c_at_least_support_size_costs_nothing() {
        let d = dist(&[(0.0, 0.5), (7.0, 0.5)]);
        for c in [2, 3, 10] {
            let sel = typical_topk(&d, c).unwrap();
            assert_eq!(sel.answers.len(), 2);
            assert_eq!(sel.expected_distance, 0.0);
        }
    }

    #[test]
    fn two_clusters_are_covered_by_two_typicals() {
        let d = dist(&[(0.0, 0.3), (1.0, 0.3), (100.0, 0.2), (101.0, 0.2)]);
        let sel = typical_topk(&d, 2).unwrap();
        let scores = sel.scores();
        assert!(scores[0] <= 1.0 && scores[1] >= 100.0, "{scores:?}");
        // The optimal cost covers only the within-cluster spread.
        assert!(sel.expected_distance <= 0.3 + 0.2 + 1e-12);
    }

    #[test]
    fn matches_brute_force_on_random_small_inputs() {
        // Deterministic pseudo-random inputs (no external RNG needed).
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..30 {
            let n = 2 + (next() % 9) as usize;
            let pairs: Vec<(f64, f64)> = (0..n)
                .map(|_| {
                    (
                        (next() % 1000) as f64 / 10.0,
                        ((next() % 99) + 1) as f64 / 100.0,
                    )
                })
                .collect();
            let d = dist(&pairs);
            for c in 1..=3usize.min(d.len()) {
                let fast = typical_topk(&d, c).unwrap();
                let slow = typical_topk_brute_force(&d, c).unwrap();
                assert!(
                    (fast.expected_distance - slow.expected_distance).abs() < 1e-9,
                    "case {case}, c={c}: {} vs {} ({:?})",
                    fast.expected_distance,
                    slow.expected_distance,
                    pairs
                );
                // The reported objective must equal the objective of the
                // reported scores.
                let recomputed = d.expected_min_distance(&fast.scores());
                assert!((recomputed - fast.expected_distance).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn soldier_example_three_typical_scores() {
        // §2.2: the 3-Typical-Top-2 scores of the soldier table are
        // {118, 183, 235} with expected distance 6.6, and the 1-Typical-Top-2
        // score is 170 (vector <T3, T2>).
        let table = ttk_uncertain::UncertainTable::builder()
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
        let dist = crate::dp::topk_score_distribution(
            &table,
            2,
            &crate::dp::MainConfig {
                p_tau: 1e-9,
                max_lines: 0,
                ..crate::dp::MainConfig::default()
            },
        )
        .unwrap()
        .distribution;

        let three = typical_topk(&dist, 3).unwrap();
        assert_eq!(three.scores(), vec![118.0, 183.0, 235.0]);
        assert!((three.expected_distance - 6.6).abs() < 0.05);
        let vectors = three.vectors();
        assert_eq!(vectors.len(), 3);
        assert_eq!(
            vectors[0].ids(),
            &[ttk_uncertain::TupleId(2), ttk_uncertain::TupleId(6)]
        );
        assert_eq!(
            vectors[1].ids(),
            &[ttk_uncertain::TupleId(7), ttk_uncertain::TupleId(6)]
        );
        assert_eq!(
            vectors[2].ids(),
            &[ttk_uncertain::TupleId(7), ttk_uncertain::TupleId(3)]
        );

        let one = typical_topk(&dist, 1).unwrap();
        assert_eq!(one.scores(), vec![170.0]);
        let v = &one.vectors()[0];
        assert_eq!(
            v.ids(),
            &[ttk_uncertain::TupleId(3), ttk_uncertain::TupleId(2)]
        );
        assert!((v.probability() - 0.16).abs() < 1e-9);
    }
}
