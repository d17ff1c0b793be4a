//! The greedy rule of line coalescing (§3.2.1), written as the
//! scan-for-minimum loop the library ran before its linear-sweep
//! [`Coalescer`](ttk_uncertain::Coalescer): rescan every gap, merge the
//! smallest (the leftmost of equal ones), repeat. O((n − c)·n), and the
//! reference the sweep must match bit for bit.

use ttk_uncertain::{CoalescePolicy, DistributionPoint, ScoreDistribution};

/// `distribution` coalesced to at most `max_lines` lines (`0` keeps every
/// line). A merge adds the masses; its score is the policy's mean (the
/// plain mean when the mass is 0) clamped to the two scores; the right
/// witness wins only when strictly more probable, and any witness beats
/// none.
pub fn coalesce(
    distribution: &ScoreDistribution,
    max_lines: usize,
    policy: CoalescePolicy,
) -> ScoreDistribution {
    let mut points: Vec<DistributionPoint> = distribution.points().to_vec();
    while max_lines > 0 && points.len() > max_lines {
        let mut best = 0;
        let mut best_gap = f64::INFINITY;
        for i in 0..points.len() - 1 {
            let gap = points[i + 1].score - points[i].score;
            if gap < best_gap {
                best_gap = gap;
                best = i;
            }
        }
        let right = points.remove(best + 1);
        let left = &mut points[best];
        let merged_prob = left.probability + right.probability;
        let mean = match policy {
            CoalescePolicy::WeightedMean if merged_prob != 0.0 => {
                (left.score * left.probability + right.score * right.probability) / merged_prob
            }
            _ => (left.score + right.score) / 2.0,
        };
        left.score = mean.max(left.score).min(right.score);
        left.probability = merged_prob;
        if let Some(candidate) = right.witness {
            let better = left
                .witness
                .as_ref()
                .is_none_or(|current| candidate.probability > current.probability);
            if better {
                left.witness = Some(candidate);
            }
        }
    }
    ScoreDistribution::from_points(points)
}
