//! c-Typical-Topk selection (§4) as the plain O(c·n²) scans of Figure 7
//! that the library ran before it solved the inner minimisations over
//! monotone argmins: every split of every suffix, keeping the leftmost
//! minimum. The reference the library must match.

use ttk_core::{TypicalAnswer, TypicalSelection};
use ttk_uncertain::ScoreDistribution;

/// The typical answers of a non-empty `distribution` for `c ≥ 1`.
#[allow(clippy::needless_range_loop)] // index arithmetic mirrors the paper's recurrences
pub fn typical_topk(distribution: &ScoreDistribution, c: usize) -> TypicalSelection {
    assert!(c > 0 && !distribution.is_empty());
    let n = distribution.len();
    let points = distribution.points();
    let scores: Vec<f64> = points.iter().map(|p| p.score).collect();
    let probs: Vec<f64> = points.iter().map(|p| p.probability).collect();
    let answer = |i: usize| TypicalAnswer {
        score: points[i].score,
        probability: points[i].probability,
        vector: points[i]
            .witness
            .as_ref()
            .map(|w| w.to_vector(points[i].score)),
    };
    if c >= n {
        return TypicalSelection {
            answers: (0..n).map(answer).collect(),
            expected_distance: 0.0,
        };
    }

    let mut prefix_p = vec![0.0; n + 1];
    let mut prefix_ps = vec![0.0; n + 1];
    for j in 0..n {
        prefix_p[j + 1] = prefix_p[j] + probs[j];
        prefix_ps[j + 1] = prefix_ps[j] + probs[j] * scores[j];
    }
    let left_cost = |j: usize, k: usize| -> f64 {
        (prefix_p[k + 1] - prefix_p[j]) * scores[k] - (prefix_ps[k + 1] - prefix_ps[j])
    };
    let right_cost = |j: usize, k: usize| -> f64 {
        (prefix_ps[k + 1] - prefix_ps[j]) - (prefix_p[k + 1] - prefix_p[j]) * scores[j]
    };

    // f[a][j]: optimal cost for the suffix starting at j with at most a
    // typical scores; g[a][j]: the same with s_j forced typical.
    let mut f = vec![vec![f64::INFINITY; n + 2]; c + 1];
    let mut g = vec![vec![f64::INFINITY; n + 2]; c + 1];
    let mut f_arg = vec![vec![0usize; n + 2]; c + 1];
    let mut g_arg = vec![vec![0usize; n + 2]; c + 1];
    for j in 0..n {
        g[1][j] = right_cost(j, n - 1);
        g_arg[1][j] = n;
    }
    for a in 1..=c {
        f[a][n] = 0.0;
        g[a][n] = 0.0;
    }
    // F_a(j) = min_{j ≤ k < n} [ left_cost(j, k) + G_a(k) ].
    let fill_f = |f: &mut Vec<Vec<f64>>, f_arg: &mut Vec<Vec<usize>>, g: &[Vec<f64>], a: usize| {
        for j in (0..n).rev() {
            let mut best = f64::INFINITY;
            let mut best_k = j;
            for k in j..n {
                let candidate = left_cost(j, k) + g[a][k];
                if candidate < best {
                    best = candidate;
                    best_k = k;
                }
            }
            f[a][j] = best;
            f_arg[a][j] = best_k;
        }
    };
    fill_f(&mut f, &mut f_arg, &g, 1);
    for a in 2..=c {
        // G_a(j) = min_{j < k ≤ n} [ right_cost(j, k-1) + F_{a-1}(k) ].
        for j in (0..n).rev() {
            let mut best = f64::INFINITY;
            let mut best_k = j + 1;
            for k in (j + 1)..=n {
                let candidate = right_cost(j, k - 1) + f[a - 1][k];
                if candidate < best {
                    best = candidate;
                    best_k = k;
                }
            }
            g[a][j] = best;
            g_arg[a][j] = best_k;
        }
        fill_f(&mut f, &mut f_arg, &g, a);
    }

    let mut chosen = Vec::with_capacity(c);
    let mut start = 0usize;
    for a in (1..=c).rev() {
        if start >= n {
            break;
        }
        let typical = f_arg[a][start];
        chosen.push(typical);
        start = if a >= 2 { g_arg[a][typical] } else { n };
    }
    chosen.sort_unstable();
    chosen.dedup();
    TypicalSelection {
        answers: chosen.into_iter().map(answer).collect(),
        expected_distance: f[c][0],
    }
}
