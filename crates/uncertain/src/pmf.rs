//! Probability mass functions over top-k total scores.
//!
//! The complete answer to a top-k query on uncertain data is a joint
//! distribution over k-tuple vectors; the paper's proposal is to expose the
//! induced distribution over *total scores* (a one-dimensional PMF), plus one
//! witness vector per score. [`ScoreDistribution`] is that object. It also
//! implements the *line coalescing* approximation of §3.2.1 that keeps
//! intermediate and final distributions at a bounded number of points.

use crate::tuple::TupleId;
use crate::vector::TopkVector;

/// Relative tolerance under which two scores are considered the same line of
/// the PMF (guards against floating point dust produced by different
/// summation orders).
const SCORE_MERGE_EPSILON: f64 = 1e-9;

/// Returns true when two total scores should be treated as the same value.
#[inline]
pub fn scores_equal(a: f64, b: f64) -> bool {
    let scale = 1.0_f64.max(a.abs()).max(b.abs());
    (a - b).abs() <= SCORE_MERGE_EPSILON * scale
}

/// How two coalesced lines combine into one (§3.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CoalescePolicy {
    /// The paper's rule: the merged score is the plain average of the two
    /// scores and the probability is their sum.
    #[default]
    PaperMean,
    /// A slight refinement: the merged score is the probability-weighted
    /// average, which preserves the expectation of the distribution exactly.
    WeightedMean,
}

/// The most probable top-k vector attaining a given total score.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorWitness {
    /// Tuple ids of the witness vector in rank order.
    pub ids: Vec<TupleId>,
    /// Probability that this exact vector is the top-k vector.
    pub probability: f64,
}

impl VectorWitness {
    /// An empty witness (used as the seed of dynamic programs).
    pub fn empty() -> Self {
        VectorWitness {
            ids: Vec::new(),
            probability: 1.0,
        }
    }

    /// Converts the witness into a full [`TopkVector`] given its total score.
    pub fn to_vector(&self, total_score: f64) -> TopkVector {
        TopkVector::new(self.ids.clone(), total_score, self.probability)
    }
}

/// One vertical line of the PMF: a total score, the probability that the
/// top-k vector has that total score, and optionally the most probable
/// vector attaining it.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributionPoint {
    /// Total score of the top-k vector.
    pub score: f64,
    /// Probability mass at this score.
    pub probability: f64,
    /// Most probable single vector attaining this score, when tracked.
    pub witness: Option<VectorWitness>,
}

/// A histogram view of a [`ScoreDistribution`] at a caller-chosen bucket
/// width (usage (1) of §2.2: "an application can access the distribution at
/// any granularity of precision").
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive lower bound of the first bucket.
    pub start: f64,
    /// Width of every bucket.
    pub width: f64,
    /// Probability mass per bucket.
    pub buckets: Vec<f64>,
}

impl Histogram {
    /// The inclusive lower edge of bucket `i`.
    pub fn bucket_start(&self, i: usize) -> f64 {
        self.start + self.width * i as f64
    }

    /// Total mass captured by the histogram.
    pub fn total(&self) -> f64 {
        self.buckets.iter().sum()
    }
}

/// A discrete probability distribution over top-k total scores.
///
/// Points are kept sorted by score. The distribution is *not* required to sum
/// to one: pruning thresholds (pτ), possible worlds with fewer than `k`
/// tuples, and line coalescing all legitimately leave the captured mass
/// slightly below one. Use [`total_probability`](Self::total_probability) to
/// inspect the captured mass and [`normalize`](Self::normalize) to rescale.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScoreDistribution {
    points: Vec<DistributionPoint>,
}

impl ScoreDistribution {
    /// The empty distribution (no mass). Merging it into another distribution
    /// is a no-op; it is also the "blocked exit point" of §3.3.2.
    pub fn empty() -> Self {
        ScoreDistribution { points: Vec::new() }
    }

    /// The unit distribution: score 0 with probability 1 and an empty witness
    /// vector. This is the "enabled exit point" / auxiliary column-0 cell of
    /// the dynamic program (§3.2).
    pub fn unit() -> Self {
        ScoreDistribution {
            points: vec![DistributionPoint {
                score: 0.0,
                probability: 1.0,
                witness: Some(VectorWitness::empty()),
            }],
        }
    }

    /// A distribution with a single point.
    pub fn singleton(score: f64, probability: f64, witness: Option<VectorWitness>) -> Self {
        ScoreDistribution {
            points: vec![DistributionPoint {
                score,
                probability,
                witness,
            }],
        }
    }

    /// Builds a distribution from `(score, probability)` pairs (no witnesses).
    pub fn from_pairs<I: IntoIterator<Item = (f64, f64)>>(pairs: I) -> Self {
        let mut d = ScoreDistribution::empty();
        for (s, p) in pairs {
            d.add_mass(s, p, None);
        }
        d
    }

    /// Reconstructs a distribution from score lines produced by
    /// [`points`](Self::points) elsewhere (the wire codec) — **verbatim**, no
    /// sorting and no coalescing, so the reconstruction is bit-identical to
    /// the original. The caller asserts the points are in ascending score
    /// order; routing arbitrary lines through [`add_mass`](Self::add_mass)
    /// instead keeps the ordering invariant but may merge epsilon-close
    /// scores, which is exactly what a bit-exact transport must not do.
    pub fn from_points(points: Vec<DistributionPoint>) -> Self {
        ScoreDistribution { points }
    }

    /// Number of distinct score lines.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the distribution carries no mass.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The score lines in ascending score order.
    #[inline]
    pub fn points(&self) -> &[DistributionPoint] {
        &self.points
    }

    /// Iterates over `(score, probability)` pairs in ascending score order.
    pub fn pairs(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.points.iter().map(|p| (p.score, p.probability))
    }

    /// Adds probability mass at a score, merging with an existing line when
    /// the scores are equal (keeping the more probable witness).
    pub fn add_mass(&mut self, score: f64, probability: f64, witness: Option<VectorWitness>) {
        if probability <= 0.0 {
            return;
        }
        match self.points.binary_search_by(|p| p.score.total_cmp(&score)) {
            Ok(i) => {
                self.points[i].probability += probability;
                Self::keep_better_witness(&mut self.points[i].witness, witness);
            }
            Err(i) => {
                // Check the neighbours for epsilon-equality before inserting.
                if i > 0 && scores_equal(self.points[i - 1].score, score) {
                    self.points[i - 1].probability += probability;
                    Self::keep_better_witness(&mut self.points[i - 1].witness, witness);
                } else if i < self.points.len() && scores_equal(self.points[i].score, score) {
                    self.points[i].probability += probability;
                    Self::keep_better_witness(&mut self.points[i].witness, witness);
                } else {
                    self.points.insert(
                        i,
                        DistributionPoint {
                            score,
                            probability,
                            witness,
                        },
                    );
                }
            }
        }
    }

    fn keep_better_witness(slot: &mut Option<VectorWitness>, candidate: Option<VectorWitness>) {
        match (slot.as_ref(), candidate) {
            (_, None) => {}
            (None, Some(c)) => *slot = Some(c),
            (Some(cur), Some(c)) => {
                if c.probability > cur.probability {
                    *slot = Some(c);
                }
            }
        }
    }

    /// Returns a copy with every score shifted by `delta` and every
    /// probability (point and witness) multiplied by `factor`; `prepend`, when
    /// given, is pushed onto the front of every witness vector.
    ///
    /// This is exactly step (2) of the distribution merging process of §3.2
    /// (and, with `delta = 0`, `prepend = None`, step (1)).
    pub fn shifted_scaled(&self, delta: f64, factor: f64, prepend: Option<TupleId>) -> Self {
        if factor <= 0.0 {
            return ScoreDistribution::empty();
        }
        let points = self
            .points
            .iter()
            .map(|p| DistributionPoint {
                score: p.score + delta,
                probability: p.probability * factor,
                witness: p.witness.as_ref().map(|w| {
                    let mut ids = Vec::with_capacity(w.ids.len() + usize::from(prepend.is_some()));
                    if let Some(id) = prepend {
                        ids.push(id);
                    }
                    ids.extend_from_slice(&w.ids);
                    VectorWitness {
                        ids,
                        probability: w.probability * factor,
                    }
                }),
            })
            .collect();
        ScoreDistribution { points }
    }

    /// Merges another distribution into this one (step (3) of §3.2): the
    /// union of the lines, with equal scores combined by summing their
    /// probabilities and keeping the more probable witness.
    pub fn merge_from(&mut self, other: &ScoreDistribution) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other.clone();
            return;
        }
        let mut merged = Vec::with_capacity(self.points.len() + other.points.len());
        let mut a = std::mem::take(&mut self.points).into_iter().peekable();
        let mut b = other.points.iter().cloned().peekable();
        while let (Some(pa), Some(pb)) = (a.peek(), b.peek()) {
            if scores_equal(pa.score, pb.score) {
                let mut pa = a.next().unwrap();
                let pb = b.next().unwrap();
                pa.probability += pb.probability;
                Self::keep_better_witness(&mut pa.witness, pb.witness);
                merged.push(pa);
            } else if pa.score < pb.score {
                merged.push(a.next().unwrap());
            } else {
                merged.push(b.next().unwrap());
            }
        }
        merged.extend(a);
        merged.extend(b);
        self.points = merged;
    }

    /// Total probability mass captured by the distribution.
    pub fn total_probability(&self) -> f64 {
        self.points.iter().map(|p| p.probability).sum()
    }

    /// Rescales the distribution so it sums to one. No-op on empty
    /// distributions.
    pub fn normalize(&mut self) {
        let total = self.total_probability();
        if total > 0.0 {
            for p in &mut self.points {
                p.probability /= total;
            }
        }
    }

    /// Smallest score carrying mass.
    pub fn min_score(&self) -> Option<f64> {
        self.points.first().map(|p| p.score)
    }

    /// Largest score carrying mass.
    pub fn max_score(&self) -> Option<f64> {
        self.points.last().map(|p| p.score)
    }

    /// The score with the largest probability mass (the mode).
    pub fn mode(&self) -> Option<&DistributionPoint> {
        self.points
            .iter()
            .max_by(|a, b| a.probability.total_cmp(&b.probability))
    }

    /// Expected total score, conditioned on the captured mass.
    pub fn expected_score(&self) -> f64 {
        let total = self.total_probability();
        if total <= 0.0 {
            return 0.0;
        }
        self.points
            .iter()
            .map(|p| p.score * p.probability)
            .sum::<f64>()
            / total
    }

    /// Variance of the total score, conditioned on the captured mass.
    pub fn variance(&self) -> f64 {
        let total = self.total_probability();
        if total <= 0.0 {
            return 0.0;
        }
        let mean = self.expected_score();
        self.points
            .iter()
            .map(|p| (p.score - mean).powi(2) * p.probability)
            .sum::<f64>()
            / total
    }

    /// Standard deviation of the total score.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Probability that the total score is at most `x` (unnormalized CDF).
    pub fn cdf(&self, x: f64) -> f64 {
        self.points
            .iter()
            .take_while(|p| p.score <= x)
            .map(|p| p.probability)
            .sum()
    }

    /// The smallest score `s` such that the normalized CDF at `s` is at least
    /// `q` (`q ∈ [0, 1]`). Returns `None` on an empty distribution.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let total = self.total_probability();
        let mut acc = 0.0;
        for p in &self.points {
            acc += p.probability;
            if acc / total >= q - 1e-12 {
                return Some(p.score);
            }
        }
        self.max_score()
    }

    /// Probability mass with a score strictly greater than `x`.
    pub fn mass_above(&self, x: f64) -> f64 {
        self.points
            .iter()
            .rev()
            .take_while(|p| p.score > x)
            .map(|p| p.probability)
            .sum()
    }

    /// Builds a histogram with the given bucket width (usage (1) of §2.2).
    /// Returns `None` on an empty distribution or a non-positive width.
    pub fn histogram(&self, bucket_width: f64) -> Option<Histogram> {
        if self.is_empty() || bucket_width <= 0.0 || !bucket_width.is_finite() {
            return None;
        }
        let lo = self.min_score()?;
        let hi = self.max_score()?;
        let n = (((hi - lo) / bucket_width).floor() as usize) + 1;
        let mut buckets = vec![0.0; n];
        for p in &self.points {
            let mut idx = ((p.score - lo) / bucket_width).floor() as usize;
            if idx >= n {
                idx = n - 1;
            }
            buckets[idx] += p.probability;
        }
        Some(Histogram {
            start: lo,
            width: bucket_width,
            buckets,
        })
    }

    /// Expected distance from a random score drawn from this distribution to
    /// the closest score in `representatives` — the objective minimized by
    /// the c-Typical-Topk scores (Definition 1). The expectation is taken
    /// over the captured (unnormalized) mass, matching the paper's objective.
    pub fn expected_min_distance(&self, representatives: &[f64]) -> f64 {
        if representatives.is_empty() {
            return f64::INFINITY;
        }
        self.points
            .iter()
            .map(|p| {
                let d = representatives
                    .iter()
                    .map(|r| (p.score - r).abs())
                    .fold(f64::INFINITY, f64::min);
                d * p.probability
            })
            .sum()
    }

    /// First-order Wasserstein (earth mover's) distance between two
    /// distributions, treating both as normalized. A convenient scalar for
    /// comparing an approximate (coalesced or pruned) distribution against an
    /// exact one.
    pub fn earth_movers_distance(&self, other: &ScoreDistribution) -> f64 {
        if self.is_empty() || other.is_empty() {
            return if self.is_empty() && other.is_empty() {
                0.0
            } else {
                f64::INFINITY
            };
        }
        let ta = self.total_probability();
        let tb = other.total_probability();
        // Walk the union of the supports accumulating |CDF_a - CDF_b|.
        let mut grid: Vec<f64> = self
            .points
            .iter()
            .map(|p| p.score)
            .chain(other.points.iter().map(|p| p.score))
            .collect();
        grid.sort_by(|a, b| a.total_cmp(b));
        grid.dedup_by(|a, b| scores_equal(*a, *b));
        let mut ia = 0;
        let mut ib = 0;
        let mut cdf_a = 0.0;
        let mut cdf_b = 0.0;
        let mut dist = 0.0;
        for w in grid.windows(2) {
            let (x0, x1) = (w[0], w[1]);
            while ia < self.points.len() && self.points[ia].score <= x0 + 1e-15 {
                cdf_a += self.points[ia].probability / ta;
                ia += 1;
            }
            while ib < other.points.len() && other.points[ib].score <= x0 + 1e-15 {
                cdf_b += other.points[ib].probability / tb;
                ib += 1;
            }
            dist += (cdf_a - cdf_b).abs() * (x1 - x0);
        }
        dist
    }

    /// Coalesces lines until at most `max_lines` remain (§3.2.1): repeatedly
    /// merge the two closest-in-score neighbouring lines. Under
    /// [`CoalescePolicy::PaperMean`] the merged score is the plain average of
    /// the two (the paper's rule); under
    /// [`CoalescePolicy::WeightedMean`] it is the probability-weighted
    /// average. In both cases probabilities add and the more probable witness
    /// is kept.
    pub fn coalesce(&mut self, max_lines: usize, policy: CoalescePolicy) {
        if max_lines == 0 || self.points.len() <= max_lines {
            return;
        }
        // The number of merges needed is small in steady state (the DP calls
        // this after every merge step), so a scan-for-minimum loop is
        // adequate and allocation free.
        while self.points.len() > max_lines {
            let mut best = 0;
            let mut best_gap = f64::INFINITY;
            for i in 0..self.points.len() - 1 {
                let gap = self.points[i + 1].score - self.points[i].score;
                if gap < best_gap {
                    best_gap = gap;
                    best = i;
                }
            }
            let right = self.points.remove(best + 1);
            let left = &mut self.points[best];
            let merged_prob = left.probability + right.probability;
            left.score = match policy {
                CoalescePolicy::PaperMean => (left.score + right.score) / 2.0,
                CoalescePolicy::WeightedMean => {
                    (left.score * left.probability + right.score * right.probability) / merged_prob
                }
            };
            left.probability = merged_prob;
            Self::keep_better_witness(&mut left.witness, right.witness);
        }
    }

    /// Returns the witness vectors as full [`TopkVector`]s, one per line that
    /// has a witness, in ascending score order.
    pub fn witness_vectors(&self) -> Vec<TopkVector> {
        self.points
            .iter()
            .filter_map(|p| p.witness.as_ref().map(|w| w.to_vector(p.score)))
            .collect()
    }

    /// The point whose score is closest to `score`.
    pub fn nearest_point(&self, score: f64) -> Option<&DistributionPoint> {
        self.points
            .iter()
            .min_by(|a, b| (a.score - score).abs().total_cmp(&(b.score - score).abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(pairs: &[(f64, f64)]) -> ScoreDistribution {
        ScoreDistribution::from_pairs(pairs.iter().copied())
    }

    #[test]
    fn unit_and_empty() {
        assert!(ScoreDistribution::empty().is_empty());
        let u = ScoreDistribution::unit();
        assert_eq!(u.len(), 1);
        assert_eq!(u.total_probability(), 1.0);
        assert_eq!(u.points()[0].score, 0.0);
        assert!(u.points()[0].witness.is_some());
    }

    #[test]
    fn add_mass_merges_equal_scores() {
        let mut d = ScoreDistribution::empty();
        d.add_mass(10.0, 0.2, None);
        d.add_mass(12.0, 0.3, None);
        d.add_mass(10.0 + 1e-12, 0.1, None);
        assert_eq!(d.len(), 2);
        assert!((d.cdf(10.5) - 0.3).abs() < 1e-12);
        // Zero or negative mass is ignored.
        d.add_mass(50.0, 0.0, None);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn add_mass_keeps_more_probable_witness() {
        let mut d = ScoreDistribution::empty();
        d.add_mass(
            5.0,
            0.2,
            Some(VectorWitness {
                ids: vec![TupleId(1)],
                probability: 0.2,
            }),
        );
        d.add_mass(
            5.0,
            0.3,
            Some(VectorWitness {
                ids: vec![TupleId(2)],
                probability: 0.3,
            }),
        );
        let w = d.points()[0].witness.as_ref().unwrap();
        assert_eq!(w.ids, vec![TupleId(2)]);
        assert!((d.points()[0].probability - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shifted_scaled_applies_delta_factor_and_prepend() {
        let base = ScoreDistribution::unit();
        let d = base.shifted_scaled(7.0, 0.4, Some(TupleId(3)));
        assert_eq!(d.len(), 1);
        assert!((d.points()[0].score - 7.0).abs() < 1e-12);
        assert!((d.points()[0].probability - 0.4).abs() < 1e-12);
        let w = d.points()[0].witness.as_ref().unwrap();
        assert_eq!(w.ids, vec![TupleId(3)]);
        assert!((w.probability - 0.4).abs() < 1e-12);
        // Scaling by zero empties the distribution.
        assert!(base.shifted_scaled(1.0, 0.0, None).is_empty());
    }

    #[test]
    fn merge_from_unions_and_sums() {
        let mut a = dist(&[(1.0, 0.1), (3.0, 0.2)]);
        let b = dist(&[(2.0, 0.3), (3.0, 0.1)]);
        a.merge_from(&b);
        assert_eq!(a.len(), 3);
        assert!((a.total_probability() - 0.7).abs() < 1e-12);
        let probs: Vec<f64> = a.pairs().map(|(_, p)| p).collect();
        assert!((probs[2] - 0.3).abs() < 1e-12); // 0.2 + 0.1 at score 3
                                                 // Merging an empty distribution is a no-op; merging into empty copies.
        let mut e = ScoreDistribution::empty();
        e.merge_from(&a);
        assert_eq!(e.len(), 3);
        a.merge_from(&ScoreDistribution::empty());
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn moments_and_quantiles() {
        let d = dist(&[(10.0, 0.25), (20.0, 0.5), (30.0, 0.25)]);
        assert!((d.expected_score() - 20.0).abs() < 1e-12);
        assert!((d.variance() - 50.0).abs() < 1e-12);
        assert!((d.std_dev() - 50.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(d.min_score(), Some(10.0));
        assert_eq!(d.max_score(), Some(30.0));
        assert_eq!(d.mode().unwrap().score, 20.0);
        assert_eq!(d.quantile(0.0), Some(10.0));
        assert_eq!(d.quantile(0.5), Some(20.0));
        assert_eq!(d.quantile(1.0), Some(30.0));
        assert!((d.mass_above(15.0) - 0.75).abs() < 1e-12);
        assert!((d.cdf(25.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn moments_are_conditioned_on_captured_mass() {
        // Same shape but only 0.5 total mass: expectation must not change.
        let d = dist(&[(10.0, 0.125), (20.0, 0.25), (30.0, 0.125)]);
        assert!((d.expected_score() - 20.0).abs() < 1e-12);
        assert!((d.variance() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_rescales_to_one() {
        let mut d = dist(&[(10.0, 0.2), (20.0, 0.2)]);
        d.normalize();
        assert!((d.total_probability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_capture_all_mass() {
        let d = dist(&[(0.0, 0.1), (4.9, 0.2), (5.0, 0.3), (14.9, 0.4)]);
        let h = d.histogram(5.0).unwrap();
        assert_eq!(h.buckets.len(), 3);
        assert!((h.buckets[0] - 0.3).abs() < 1e-12);
        assert!((h.buckets[1] - 0.3).abs() < 1e-12);
        assert!((h.buckets[2] - 0.4).abs() < 1e-12);
        assert!((h.total() - 1.0).abs() < 1e-12);
        assert_eq!(h.bucket_start(1), 5.0);
        assert!(d.histogram(0.0).is_none());
        assert!(ScoreDistribution::empty().histogram(1.0).is_none());
    }

    #[test]
    fn expected_min_distance_matches_hand_computation() {
        let d = dist(&[(0.0, 0.5), (10.0, 0.5)]);
        assert!((d.expected_min_distance(&[0.0]) - 5.0).abs() < 1e-12);
        assert!((d.expected_min_distance(&[5.0]) - 5.0).abs() < 1e-12);
        assert!((d.expected_min_distance(&[0.0, 10.0]) - 0.0).abs() < 1e-12);
        assert_eq!(d.expected_min_distance(&[]), f64::INFINITY);
    }

    #[test]
    fn coalesce_respects_max_lines_and_preserves_mass() {
        let mut d = dist(&[(1.0, 0.1), (1.1, 0.1), (5.0, 0.3), (9.0, 0.5)]);
        d.coalesce(3, CoalescePolicy::PaperMean);
        assert_eq!(d.len(), 3);
        assert!((d.total_probability() - 1.0).abs() < 1e-12);
        // The two closest lines (1.0 and 1.1) merged to their plain average.
        assert!((d.points()[0].score - 1.05).abs() < 1e-12);

        let mut d = dist(&[(0.0, 0.9), (1.0, 0.1), (100.0, 0.5)]);
        d.coalesce(2, CoalescePolicy::WeightedMean);
        assert_eq!(d.len(), 2);
        assert!((d.points()[0].score - 0.1).abs() < 1e-12);

        // max_lines = 0 disables coalescing.
        let mut d = dist(&[(1.0, 0.5), (2.0, 0.5)]);
        d.coalesce(0, CoalescePolicy::PaperMean);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn weighted_coalescing_preserves_expectation() {
        let mut d = dist(&[(1.0, 0.2), (2.0, 0.4), (10.0, 0.2), (11.0, 0.2)]);
        let before = d.expected_score();
        d.coalesce(2, CoalescePolicy::WeightedMean);
        assert!((d.expected_score() - before).abs() < 1e-9);
    }

    #[test]
    fn emd_of_identical_distributions_is_zero() {
        let a = dist(&[(1.0, 0.4), (5.0, 0.6)]);
        let b = dist(&[(1.0, 0.4), (5.0, 0.6)]);
        assert!(a.earth_movers_distance(&b).abs() < 1e-12);
        let c = dist(&[(2.0, 0.4), (6.0, 0.6)]);
        assert!((a.earth_movers_distance(&c) - 1.0).abs() < 1e-9);
        assert_eq!(
            ScoreDistribution::empty().earth_movers_distance(&ScoreDistribution::empty()),
            0.0
        );
        assert!(a
            .earth_movers_distance(&ScoreDistribution::empty())
            .is_infinite());
    }

    #[test]
    fn nearest_point_and_witness_vectors() {
        let mut d = ScoreDistribution::empty();
        d.add_mass(
            5.0,
            0.5,
            Some(VectorWitness {
                ids: vec![TupleId(1), TupleId(2)],
                probability: 0.4,
            }),
        );
        d.add_mass(9.0, 0.5, None);
        assert_eq!(d.nearest_point(6.0).unwrap().score, 5.0);
        assert_eq!(d.nearest_point(8.0).unwrap().score, 9.0);
        let vs = d.witness_vectors();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].total_score(), 5.0);
        assert_eq!(vs[0].ids().len(), 2);
    }
}
