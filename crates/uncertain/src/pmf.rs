//! Probability mass functions over top-k total scores.
//!
//! The complete answer to a top-k query on uncertain data is a joint
//! distribution over k-tuple vectors; the paper's proposal is to expose the
//! induced distribution over *total scores* (a one-dimensional PMF), plus one
//! witness vector per score. [`ScoreDistribution`] is that object. It also
//! implements the *line coalescing* approximation of §3.2.1 that keeps
//! intermediate and final distributions at a bounded number of points; the
//! [`Coalescer`] computes it for every layout that holds lines.

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
    /// is kept. The [`Coalescer`] docs give the exact rule and how it runs.
    ///
    /// Each call sets up a fresh [`Coalescer`]; a caller coalescing in a
    /// loop can keep one and call it directly.
    pub fn coalesce(&mut self, max_lines: usize, policy: CoalescePolicy) {
        if max_lines == 0 || self.points.len() <= max_lines {
            return;
        }
        let mut coalescer = Coalescer::new();
        let lines = coalescer.coalesce(
            self.points.iter().map(|point| {
                let witness = point
                    .witness
                    .as_ref()
                    .map_or(f64::NEG_INFINITY, |w| w.probability);
                (point.score, point.probability, witness)
            }),
            max_lines,
            policy,
        );
        // A line's witness comes from its own run of input lines, which
        // starts at or after its output slot, so moving left is safe.
        for (slot, line) in lines.iter().enumerate() {
            let witness = self.points[line.witness()].witness.take();
            self.points[slot] = DistributionPoint {
                score: line.score(),
                probability: line.probability(),
                witness,
            };
        }
        self.points.truncate(lines.len());
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

/// One line inside a [`Coalescer`]: a score, its mass, and the input line
/// whose witness it keeps.
#[derive(Debug, Clone, Copy)]
pub struct CoalescedLine {
    score: f64,
    probability: f64,
    /// Probability of the kept witness; −∞ stands for no witness.
    witness_probability: f64,
    /// Input index of the line whose witness this line keeps.
    witness: u32,
    /// The line's first position in the current round, which is also the
    /// id of the gap to its left.
    start: u32,
}

impl CoalescedLine {
    /// The line's score.
    pub fn score(&self) -> f64 {
        self.score
    }

    /// The line's probability mass.
    pub fn probability(&self) -> f64 {
        self.probability
    }

    /// The index, among the lines given to [`Coalescer::coalesce`], of the
    /// line whose witness this line keeps. It lies in the run of input
    /// lines merged into this one.
    pub fn witness(&self) -> usize {
        self.witness as usize
    }

    /// `self` and its right neighbour as one line. Masses add; the score is
    /// the policy's mean (the plain mean when the mass is 0, where the
    /// weighted one is 0/0), clamped to `[self, right]`, which rounding can
    /// leave by an ulp; the right witness wins only when strictly more
    /// probable.
    fn merge(&self, right: &Self, policy: CoalescePolicy) -> Self {
        let probability = self.probability + right.probability;
        let mean = match policy {
            CoalescePolicy::WeightedMean if probability != 0.0 => {
                (self.score * self.probability + right.score * right.probability) / probability
            }
            _ => (self.score + right.score) / 2.0,
        };
        let winner = if right.witness_probability > self.witness_probability {
            right
        } else {
            self
        };
        CoalescedLine {
            score: mean.max(self.score).min(right.score),
            probability,
            witness_probability: winner.witness_probability,
            witness: winner.witness,
            start: self.start,
        }
    }
}

/// The key of the gap between neighbouring lines: its width, then its id,
/// the right line's start. `+ 0.0` turns the −0.0 of `-0.0 - 0.0` into 0.0,
/// so keys order widths as `<` does.
#[inline]
fn gap_key(left: &CoalescedLine, right: &CoalescedLine) -> (f64, u32) {
    (right.score - left.score + 0.0, right.start)
}

#[inline]
fn key_order(a: &(f64, u32), b: &(f64, u32)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// Line coalescing (§3.2.1) with buffers reused across calls: the one
/// coalescer behind [`ScoreDistribution::coalesce`] and the main DP's
/// columnar cells.
///
/// # The rule
///
/// The key of the gap between neighbouring lines is its width, ordered by
/// `f64::total_cmp`, then its position. The greedy rule merges the
/// smallest key until at most `max_lines` lines remain. A merge adds the
/// two masses and keeps the right witness only when it is strictly more
/// probable. Its score is `(a + b) / 2` under
/// [`PaperMean`](CoalescePolicy::PaperMean) and `(a·p + b·q) / (p + q)`
/// under [`WeightedMean`](CoalescePolicy::WeightedMean) (the plain mean
/// when p + q = 0), clamped to `[a, b]`.
///
/// # The sweep
///
/// [`coalesce`](Self::coalesce) computes that rule's output in rounds.
/// With m = n − c merges left, T is the m-th smallest key
/// (`select_nth_unstable`, O(n)). Then one left-to-right
/// nearest-neighbour-chain sweep (Benzécri 1982; Murtagh 1983) runs: lines
/// go on a stack whose gap keys fall toward the top. When the next gap's
/// key exceeds the top gap's, the top pair is reciprocal-nearest, a local
/// minimum of the keys. If its key is ≤ T it is merged, and the merged line
/// is placed against the stack again, so merges cascade. Otherwise every
/// line on the stack is final for this round. Rounds repeat until c lines
/// remain.
///
/// # Why it is exact
///
/// Give each gap the position of the boundary it spans as its id: the same
/// order as positions, and a gap keeps its id until a merge consumes it.
///
/// 1. A merged score lies in `[left, right]` (the clamp makes that hold
///    after rounding too), so a merge never narrows a neighbouring gap and
///    no key ever falls.
/// 2. A round starts with exactly m keys ≤ T, and each of its merges
///    consumes one. Say a local-minimum pair P with key ≤ T is found after
///    j merges. At most m − j keys are ≤ T, P's among them, so fewer than
///    m − j lie below P's. The greedy consumes one of those with every
///    merge it makes before P and creates none, so it merges P within its
///    next m − j merges.
/// 3. P's neighbouring keys only grow, so P stays reciprocal and its lines
///    untouched until the greedy merges it. Merging P first leaves every
///    other key the same except P's two neighbours', which stay above every
///    key the greedy picks before P. So the greedy makes the same choices
///    and reaches the same lines, with the same arithmetic.
///
/// # Rounds
///
/// After a round no key ≤ T is left, unless its m merges are done. Each
/// merge consumes one gap and widens at most two, so a round makes at
/// least m/3 merges and at most ⌈log₃⁄₂ m⌉ + 1 rounds run: O(n log(n − c))
/// in the worst case. [`rounds`](Self::rounds) reports the last call's
/// count.
#[derive(Debug, Clone, Default)]
pub struct Coalescer {
    lines: Vec<CoalescedLine>,
    keys: Vec<(f64, u32)>,
    rounds: usize,
}

impl Coalescer {
    /// A coalescer with empty buffers.
    pub fn new() -> Self {
        Coalescer::default()
    }

    /// Coalesces the lines `(score, probability, witness probability)`,
    /// given in ascending score order, until at most `max_lines` remain
    /// (`max_lines == 0` keeps them all), and returns the survivors in
    /// score order. Use −∞ as the witness probability of a line without a
    /// witness.
    ///
    /// # Panics
    ///
    /// When given more than `u32::MAX` lines.
    pub fn coalesce(
        &mut self,
        lines: impl IntoIterator<Item = (f64, f64, f64)>,
        max_lines: usize,
        policy: CoalescePolicy,
    ) -> &[CoalescedLine] {
        self.lines.clear();
        self.lines.extend(lines.into_iter().enumerate().map(
            |(index, (score, probability, witness_probability))| CoalescedLine {
                score,
                probability,
                witness_probability,
                witness: u32::try_from(index).expect("at most u32::MAX lines"),
                start: 0,
            },
        ));
        self.rounds = 0;
        if max_lines > 0 {
            while self.lines.len() > max_lines {
                self.round(max_lines, policy);
                self.rounds += 1;
            }
        }
        &self.lines
    }

    /// How many rounds the last [`coalesce`](Self::coalesce) call ran.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// One round toward `target` lines (fewer than there are).
    fn round(&mut self, target: usize, policy: CoalescePolicy) {
        let Coalescer { lines, keys, .. } = self;
        let n = lines.len();
        let excess = n - target;
        for (start, line) in lines.iter_mut().enumerate() {
            line.start = start as u32;
        }
        keys.clear();
        keys.extend(lines.windows(2).map(|pair| gap_key(&pair[0], &pair[1])));
        let threshold = *keys.select_nth_unstable_by(excess - 1, key_order).1;
        // The live lines in order: final ones in [0, base), the stack in
        // [base, base + len), merged lines waiting to be placed in
        // [pending, read), then the lines not read yet. Each merge frees
        // one slot between the stack and the waiting lines.
        let (mut base, mut len, mut pending, mut read, mut merges) = (0, 0, 0, 0, 0);
        while merges < excess {
            let next = if pending < read {
                Some(pending)
            } else {
                (read < n).then_some(read)
            };
            if len >= 2 {
                let top = base + len - 1;
                let key = gap_key(&lines[top - 1], &lines[top]);
                let reciprocal = next.is_none_or(|next| {
                    key_order(&key, &gap_key(&lines[top], &lines[next])).is_lt()
                });
                if reciprocal {
                    if key_order(&key, &threshold).is_le() {
                        let merged = lines[top - 1].merge(&lines[top], policy);
                        len -= 2;
                        pending -= 1;
                        lines[pending] = merged;
                        merges += 1;
                        continue;
                    }
                    // Every gap on the stack and the one to `next` exceed T.
                    base += len;
                    len = 0;
                }
            }
            let Some(next) = next else { break };
            lines[base + len] = lines[next];
            len += 1;
            if next == read {
                read += 1;
                pending = read;
            } else {
                pending += 1;
            }
        }
        // Once the round's merges are done the rest is final as it stands.
        lines.copy_within(pending.., base + len);
        lines.truncate(n - merges);
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
