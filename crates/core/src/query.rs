//! High-level query interface.
//!
//! [`TopkQuery`] bundles every knob of the paper's proposal — the query size
//! `k`, the number of typical answers `c`, the probability threshold pτ, the
//! line-coalescing budget and the algorithm choice — and a [`Session`]
//! (driving the crate-private executor defined here) runs the whole pipeline:
//! score distribution → c-Typical-Topk selection → U-Topk comparison point.
//! This is the API the examples, the CLI and the probabilistic-database
//! layer (`ttk-pdb`) build on.
//!
//! Every algorithm choice runs through the same streaming front end: the
//! input — an in-memory table or any [`TupleSource`] — is pulled through a
//! Theorem-2 [`ScanGate`] by the rank-scan executor, and only the admitted
//! prefix reaches the algorithm. The executor owns the scan's scratch
//! buffers, and each [`Session`] (and each batch worker) owns one executor,
//! so serving many queries does not reallocate per query.
//!
//! **Use the unified API.** The per-shape entry points of earlier releases
//! (`execute`, `execute_source`, `execute_shards`, `execute_batch`,
//! `execute_batch_sources`) have been removed: wrap the input in a
//! [`Dataset`] and run it through a [`Session`] instead — one seam for
//! every physical input, with plan-once/run-many caching, cost-ordered
//! batches and `explain`.

use std::time::{Duration, Instant};

use ttk_uncertain::{
    CoalescePolicy, Error, Result, ScoreDistribution, TupleSource, UncertainTable,
};

use crate::baselines::exhaustive::exhaustive_topk_distribution;
use crate::baselines::u_topk::{u_topk, UTopkAnswer, UTopkConfig};
use crate::dp::{topk_from_prefix, MainConfig, MeStrategy};
use crate::k_combo::k_combo_on_prefix;
use crate::scan::RankScan;
use crate::scan_depth::{GateMeter, ScanGate};
use crate::state_expansion::{state_expansion_on_prefix, NaiveConfig};
use crate::typical::{typical_topk, TypicalSelection};

// The unified execution API lives in [`crate::session`]; re-exported here so
// the successor types sit next to the entry points they replace.
pub use crate::session::{Dataset, Session};

/// Which algorithm computes the score distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// The main dynamic-programming algorithm (§3.2–3.4) with the lead-region
    /// refinement for ME groups. This is the default.
    #[default]
    Main,
    /// The main algorithm with the simpler per-ending decomposition (§3.3.2);
    /// slower but useful for ablation.
    MainPerEnding,
    /// The StateExpansion baseline (Figure 4).
    StateExpansion,
    /// The k-Combo baseline (§3.1).
    KCombo,
    /// Exhaustive possible-world enumeration (tiny tables only).
    Exhaustive,
}

/// A fully specified typical top-k query.
#[derive(Debug, Clone, Copy)]
pub struct TopkQuery {
    /// Number of tuples per answer vector.
    pub k: usize,
    /// Number of typical vectors to return (the `c` of c-Typical-Topk).
    pub typical_count: usize,
    /// Probability threshold pτ: vectors less likely than this may be
    /// ignored (drives the Theorem-2 scan depth and state pruning).
    pub p_tau: f64,
    /// Maximum number of lines kept in any distribution (0 = exact).
    pub max_lines: usize,
    /// How coalesced lines combine.
    pub coalesce_policy: CoalescePolicy,
    /// Algorithm used to compute the score distribution.
    pub algorithm: Algorithm,
    /// Whether the U-Topk comparison answer is also computed.
    pub compute_u_topk: bool,
    /// Upper bound on possible worlds for [`Algorithm::Exhaustive`].
    pub world_limit: u128,
}

impl TopkQuery {
    /// A query with the defaults used throughout the paper's evaluation:
    /// `c = 3`, pτ = 10⁻³, at most 200 lines, main algorithm, U-Topk
    /// comparison enabled.
    pub fn new(k: usize) -> Self {
        TopkQuery {
            k,
            typical_count: 3,
            p_tau: 1e-3,
            max_lines: 200,
            coalesce_policy: CoalescePolicy::PaperMean,
            algorithm: Algorithm::Main,
            compute_u_topk: true,
            world_limit: 1 << 22,
        }
    }

    /// Sets the query size k (handy for fanning one parameter set across a
    /// batch of k values).
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the number of typical answers.
    pub fn with_typical_count(mut self, c: usize) -> Self {
        self.typical_count = c;
        self
    }

    /// Sets the probability threshold pτ.
    pub fn with_p_tau(mut self, p_tau: f64) -> Self {
        self.p_tau = p_tau;
        self
    }

    /// Sets the line-coalescing budget (0 keeps every line).
    pub fn with_max_lines(mut self, max_lines: usize) -> Self {
        self.max_lines = max_lines;
        self
    }

    /// Sets the coalescing policy.
    pub fn with_coalesce_policy(mut self, policy: CoalescePolicy) -> Self {
        self.coalesce_policy = policy;
        self
    }

    /// Sets the algorithm.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Enables or disables the U-Topk comparison answer.
    pub fn with_u_topk(mut self, compute: bool) -> Self {
        self.compute_u_topk = compute;
        self
    }
}

/// The complete answer to a [`TopkQuery`].
#[derive(Debug, Clone)]
pub struct QueryAnswer {
    /// The score distribution of top-k vectors (usage (1) of §2.2).
    pub distribution: ScoreDistribution,
    /// The c-Typical-Topk selection (usage (2) of §2.2).
    pub typical: TypicalSelection,
    /// The U-Topk answer, when requested and when one exists.
    pub u_topk: Option<UTopkAnswer>,
    /// Scan depth n used by the distribution algorithm (Theorem 2); zero for
    /// the exhaustive algorithm.
    pub scan_depth: usize,
    /// Wall-clock time spent computing the distribution (excludes U-Topk).
    pub distribution_time: Duration,
    /// Wall-clock time spent selecting typical answers.
    pub typical_time: Duration,
}

impl QueryAnswer {
    /// Expected total score of the top-k vectors.
    pub fn expected_score(&self) -> f64 {
        self.distribution.expected_score()
    }

    /// Convenience accessor: where does the U-Topk score fall within the
    /// distribution? Returns the normalized CDF value at the U-Topk score,
    /// or `None` when U-Topk was not computed. Values close to 0 or 1 mean
    /// the U-Topk answer is atypical.
    pub fn u_topk_percentile(&self) -> Option<f64> {
        let answer = self.u_topk.as_ref()?;
        let total = self.distribution.total_probability();
        if total <= 0.0 {
            return None;
        }
        Some(self.distribution.cdf(answer.vector.total_score()) / total)
    }
}

/// The reusable scratch of query execution, owned by a [`Session`] and by
/// each of its batch workers.
///
/// An `Executor` owns the streaming rank scan and one [`ScanGate`] that is
/// re-armed per query, so a long-lived serving process (or a batch worker
/// thread) keeps the gate's group-mass table allocation across queries.
/// Every execution — regardless of the [`Algorithm`] chosen — flows through
/// [`TupleSource`] + [`ScanGate`]: the gate implements Theorem 2 for the
/// four bounded algorithms and stays open for the exhaustive ground truth,
/// which simply needs the entire stream. The main algorithm's ending
/// segments run on every core once they are large enough (see
/// [`crate::dp`]), except in a batch's worker threads, which already
/// occupy the cores.
#[derive(Debug)]
pub(crate) struct Executor {
    scan: RankScan,
    gate: ScanGate,
    /// Most workers a main-algorithm DP may run its segments on (0 = one
    /// per available core).
    dp_workers: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Executor {
            scan: RankScan::new(),
            gate: ScanGate::open(),
            dp_workers: 0,
        }
    }
}

impl Executor {
    /// An executor for a batch worker thread, whose main-algorithm DPs run
    /// every segment on that thread: the batch's workers already occupy the
    /// cores.
    pub(crate) fn batch_worker() -> Self {
        Executor {
            dp_workers: 1,
            ..Executor::default()
        }
    }

    /// Pulls `source` through the Theorem-2 gate and runs the selected
    /// algorithm on the admitted prefix. `full_table` lets U-Topk run on the
    /// table directly when the caller holds the materialized table;
    /// otherwise U-Topk drains the rest of the stream. `meter`, when given,
    /// is attached to the gate for the duration of the scan, so a concurrent
    /// observer (the remote pushdown plumbing) can watch the accumulated
    /// probability mass tighten as tuples are admitted.
    ///
    /// # Errors
    ///
    /// Parameter validation errors of the underlying algorithms (`k == 0`,
    /// pτ out of range, `typical_count == 0`, too many possible worlds for
    /// the exhaustive algorithm, …) and stream errors.
    pub(crate) fn run(
        &mut self,
        source: &mut dyn TupleSource,
        query: &TopkQuery,
        full_table: Option<&UncertainTable>,
        meter: Option<GateMeter>,
    ) -> Result<QueryAnswer> {
        if query.typical_count == 0 {
            return Err(Error::InvalidParameter(
                "the number of typical answers c must be at least 1".into(),
            ));
        }
        if query.k == 0 {
            return Err(Error::InvalidParameter("k must be at least 1".into()));
        }
        let start = Instant::now();
        match query.algorithm {
            Algorithm::Exhaustive => self.gate.reset_open(),
            _ => self.gate.reset(query.k, query.p_tau)?,
        }
        self.gate.set_meter(meter);
        let prefix = self.scan.collect_prefix(source, &mut self.gate)?;
        let (distribution, scan_depth) = match query.algorithm {
            Algorithm::Main | Algorithm::MainPerEnding => {
                let config = MainConfig {
                    p_tau: query.p_tau,
                    max_lines: query.max_lines,
                    coalesce_policy: query.coalesce_policy,
                    track_witnesses: true,
                    me_strategy: if query.algorithm == Algorithm::Main {
                        MeStrategy::LeadRegions
                    } else {
                        MeStrategy::PerEnding
                    },
                };
                let out = topk_from_prefix(&prefix, query.k, &config, self.dp_workers)?;
                (out.distribution, out.scan_depth)
            }
            Algorithm::StateExpansion | Algorithm::KCombo => {
                let config = NaiveConfig {
                    p_tau: query.p_tau,
                    max_lines: query.max_lines,
                    coalesce_policy: query.coalesce_policy,
                    track_witnesses: true,
                };
                let out = if query.algorithm == Algorithm::StateExpansion {
                    state_expansion_on_prefix(&prefix.table, query.k, &config)
                } else {
                    k_combo_on_prefix(&prefix.table, query.k, &config)
                };
                (out.distribution, out.scan_depth)
            }
            Algorithm::Exhaustive => {
                let dist = exhaustive_topk_distribution(&prefix.table, query.k, query.world_limit)?;
                (dist, prefix.depth())
            }
        };
        let distribution_time = start.elapsed();

        if distribution.is_empty() {
            return Err(Error::InvalidParameter(format!(
                "the table admits no top-{} vector (fewer than k compatible tuples)",
                query.k
            )));
        }

        let typical_start = Instant::now();
        let typical = typical_topk(&distribution, query.typical_count)?;
        let typical_time = typical_start.elapsed();

        let u_topk_answer = if query.compute_u_topk {
            match full_table {
                Some(table) => u_topk(table, query.k, &UTopkConfig::default())?,
                None => {
                    // U-Topk is defined over the whole relation: drain the
                    // rest of the stream rather than answer from the pτ
                    // prefix alone.
                    let full = prefix.into_full_table(source)?;
                    u_topk(&full, query.k, &UTopkConfig::default())?
                }
            }
        } else {
            None
        };

        let answer = QueryAnswer {
            distribution,
            typical,
            u_topk: u_topk_answer,
            scan_depth,
            distribution_time,
            typical_time,
        };
        if cfg!(debug_assertions) {
            if let Some(violation) = answer_violation(&answer, query.k) {
                panic!("a top-{} answer breaks an invariant: {violation}", query.k);
            }
        }
        Ok(answer)
    }
}

/// The first invariant that `answer`, the answer to a top-`k` query, breaks,
/// or `None` when it keeps them all:
///
/// - the total mass is at most 1 + 1e-9;
/// - scores are finite and strictly ascending;
/// - probabilities are finite and non-negative;
/// - every witness holds exactly `k` distinct ids, and its probability is
///   at most its line's mass × (1 + 1e-12);
/// - every typical score is a support point of the distribution.
///
/// The executor checks every answer it returns in debug builds.
pub(crate) fn answer_violation(answer: &QueryAnswer, k: usize) -> Option<String> {
    let points = answer.distribution.points();
    let mass = answer.distribution.total_probability();
    if mass.is_nan() || mass > 1.0 + 1e-9 {
        return Some(format!("the total mass is {mass}"));
    }
    for (line, point) in points.iter().enumerate() {
        if !point.score.is_finite() {
            return Some(format!("line {line} has score {}", point.score));
        }
        if line > 0 && points[line - 1].score >= point.score {
            return Some(format!(
                "line {line}'s score {} does not exceed the previous line's {}",
                point.score,
                points[line - 1].score
            ));
        }
        if !point.probability.is_finite() || point.probability < 0.0 {
            return Some(format!("line {line} has probability {}", point.probability));
        }
        let Some(witness) = &point.witness else {
            continue;
        };
        let ids = &witness.ids;
        let repeated = (1..ids.len()).any(|i| ids[..i].contains(&ids[i]));
        if ids.len() != k || repeated {
            return Some(format!(
                "line {line}'s witness {ids:?} is not {k} distinct ids"
            ));
        }
        if witness.probability.is_nan() || witness.probability > point.probability * (1.0 + 1e-12) {
            return Some(format!(
                "line {line}'s witness probability {} exceeds the line's mass {}",
                witness.probability, point.probability
            ));
        }
    }
    answer
        .typical
        .answers
        .iter()
        .find(|typical| !points.iter().any(|point| point.score == typical.score))
        .map(|typical| format!("typical score {} is not a support point", typical.score))
}

/// Resolves a thread-count request (`0` = one per available CPU) against the
/// number of jobs.
pub(crate) fn resolve_threads(threads: usize, jobs: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
    .min(jobs.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttk_uncertain::{TupleId, UncertainTuple};

    /// Runs one query against a table through a fresh [`Session`].
    fn execute(table: &UncertainTable, query: &TopkQuery) -> Result<QueryAnswer> {
        Session::new().execute(&Dataset::table(table.clone()), query)
    }

    fn soldier_table() -> UncertainTable {
        UncertainTable::builder()
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
            .unwrap()
    }

    #[test]
    fn end_to_end_soldier_query() {
        let table = soldier_table();
        let query = TopkQuery::new(2).with_p_tau(1e-9).with_max_lines(0);
        let answer = execute(&table, &query).unwrap();
        assert!((answer.expected_score() - 164.1).abs() < 0.05);
        assert_eq!(answer.typical.scores(), vec![118.0, 183.0, 235.0]);
        let u = answer.u_topk.as_ref().unwrap();
        assert_eq!(u.vector.ids(), &[TupleId(2), TupleId(6)]);
        // The U-Top2 score of 118 sits in the lowest quarter of the
        // distribution — the "atypical" observation of §1.
        assert!(answer.u_topk_percentile().unwrap() < 0.25);
        assert!(answer.scan_depth == table.len());
    }

    #[test]
    fn all_algorithms_agree_on_expected_score() {
        let table = soldier_table();
        let mut expected = Vec::new();
        for algorithm in [
            Algorithm::Main,
            Algorithm::MainPerEnding,
            Algorithm::StateExpansion,
            Algorithm::KCombo,
            Algorithm::Exhaustive,
        ] {
            let query = TopkQuery::new(2)
                .with_p_tau(1e-9)
                .with_max_lines(0)
                .with_algorithm(algorithm)
                .with_u_topk(false);
            let answer = execute(&table, &query).unwrap();
            expected.push(answer.expected_score());
        }
        for pair in expected.windows(2) {
            assert!((pair[0] - pair[1]).abs() < 1e-6, "{expected:?}");
        }
    }

    #[test]
    fn builder_methods_set_fields() {
        let q = TopkQuery::new(7)
            .with_typical_count(5)
            .with_p_tau(0.01)
            .with_max_lines(64)
            .with_coalesce_policy(CoalescePolicy::WeightedMean)
            .with_algorithm(Algorithm::KCombo)
            .with_u_topk(false);
        assert_eq!(q.k, 7);
        assert_eq!(q.typical_count, 5);
        assert_eq!(q.p_tau, 0.01);
        assert_eq!(q.max_lines, 64);
        assert_eq!(q.coalesce_policy, CoalescePolicy::WeightedMean);
        assert_eq!(q.algorithm, Algorithm::KCombo);
        assert!(!q.compute_u_topk);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let table = soldier_table();
        assert!(execute(&table, &TopkQuery::new(0)).is_err());
        assert!(execute(&table, &TopkQuery::new(2).with_typical_count(0)).is_err());
        // k larger than the table can support.
        assert!(execute(&table, &TopkQuery::new(10)).is_err());
    }

    /// `answer` with its distribution's points passed through `corrupt`.
    fn corrupted(
        answer: &QueryAnswer,
        corrupt: impl FnOnce(&mut Vec<ttk_uncertain::DistributionPoint>),
    ) -> QueryAnswer {
        let mut points = answer.distribution.points().to_vec();
        corrupt(&mut points);
        QueryAnswer {
            distribution: ScoreDistribution::from_points(points),
            ..answer.clone()
        }
    }

    #[test]
    fn answer_check_reports_the_first_broken_invariant() {
        let table = soldier_table();
        let query = TopkQuery::new(2)
            .with_p_tau(1e-9)
            .with_max_lines(0)
            .with_u_topk(false);
        let answer = execute(&table, &query).unwrap();
        assert_eq!(answer_violation(&answer, 2), None);
        // The witnesses hold two ids each, so the same answer fails as a
        // top-3 answer.
        let wrong_k = answer_violation(&answer, 3).unwrap();
        assert!(wrong_k.contains("is not 3 distinct ids"), "{wrong_k}");

        let cases: Vec<(QueryAnswer, &str)> = vec![
            (
                corrupted(&answer, |points| points[0].probability += 0.5),
                "the total mass is",
            ),
            (
                corrupted(&answer, |points| points[1].score = f64::NAN),
                "line 1 has score NaN",
            ),
            (
                corrupted(&answer, |points| points.swap(1, 2)),
                "line 2's score",
            ),
            (
                corrupted(&answer, |points| points[2].score = points[1].score),
                "line 2's score",
            ),
            (
                corrupted(&answer, |points| points[0].probability = -1e-3),
                "line 0 has probability",
            ),
            (
                corrupted(&answer, |points| points[1].probability = f64::INFINITY),
                "the total mass is inf",
            ),
            (
                corrupted(&answer, |points| {
                    points[1].witness.as_mut().unwrap().ids.pop();
                }),
                "line 1's witness",
            ),
            (
                corrupted(&answer, |points| {
                    let ids = &mut points[1].witness.as_mut().unwrap().ids;
                    ids[1] = ids[0];
                }),
                "is not 2 distinct ids",
            ),
            (
                corrupted(&answer, |points| {
                    let line = &mut points[3];
                    line.witness.as_mut().unwrap().probability = line.probability * 1.001;
                }),
                "line 3's witness probability",
            ),
            (
                {
                    let mut answer = answer.clone();
                    answer.typical.answers[0].score += 0.5;
                    answer
                },
                "is not a support point",
            ),
        ];
        for (case, expected) in cases {
            let violation = answer_violation(&case, 2).expect(expected);
            assert!(violation.contains(expected), "{violation} vs {expected}");
        }
    }

    #[test]
    fn typical_answers_lie_inside_the_distribution_span() {
        let table = soldier_table();
        let answer = execute(&table, &TopkQuery::new(3)).unwrap();
        let lo = answer.distribution.min_score().unwrap();
        let hi = answer.distribution.max_score().unwrap();
        for score in answer.typical.scores() {
            assert!(score >= lo && score <= hi);
        }
    }

    /// Independent tuples ids 1.. with the given probabilities, scores
    /// falling by 1.37 per rank from 100.
    fn vanishing_table(probabilities: &[f64]) -> UncertainTable {
        let tuples = probabilities
            .iter()
            .enumerate()
            .map(|(rank, &p)| {
                UncertainTuple::new(rank as u64 + 1, 100.0 - 1.37 * rank as f64, p).unwrap()
            })
            .collect();
        UncertainTable::new(tuples, Vec::new()).unwrap()
    }

    #[test]
    fn weighted_coalescing_of_massless_lines_stays_finite() {
        // Products of 1e-200 underflow to 0, and two massless lines used to
        // merge to the weighted mean 0·s/0 = NaN.
        let mut probabilities = vec![0.9, 0.9];
        probabilities.extend([1e-200; 6]);
        let dataset = Dataset::table(vanishing_table(&probabilities));
        for max_lines in [2, 3, 4] {
            let query = TopkQuery::new(2)
                .with_u_topk(false)
                .with_p_tau(1e-9)
                .with_coalesce_policy(CoalescePolicy::WeightedMean)
                .with_max_lines(max_lines);
            let answer = Session::new().execute(&dataset, &query).unwrap();
            assert_eq!(answer_violation(&answer, 2), None, "max_lines {max_lines}");
            let scores: Vec<f64> = answer.distribution.pairs().map(|(s, _)| s).collect();
            assert!(scores.iter().all(|s| s.is_finite()), "{scores:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Coalescing under either policy keeps every answer valid when
        /// masses vanish: probabilities of 1e-200, whose products underflow
        /// to 0, beside ordinary ones, at line budgets of 1 to 4.
        #[test]
        fn vanishing_masses_keep_coalesced_answers_valid(
            raw in proptest::collection::vec(0usize..4, 3..10),
            k in 1usize..4,
            max_lines in 1usize..5,
            weighted in proptest::prelude::any::<bool>(),
        ) {
            let probabilities: Vec<f64> =
                raw.iter().map(|&code| [0.9, 1e-200, 0.5, 1e-200][code]).collect();
            let table = vanishing_table(&probabilities);
            let policy = if weighted {
                CoalescePolicy::WeightedMean
            } else {
                CoalescePolicy::PaperMean
            };
            let query = TopkQuery::new(k.min(probabilities.len()))
                .with_u_topk(false)
                .with_p_tau(1e-9)
                .with_coalesce_policy(policy)
                .with_max_lines(max_lines);
            if let Ok(answer) = execute(&table, &query) {
                let violation = answer_violation(&answer, query.k);
                proptest::prop_assert!(violation.is_none(), "{probabilities:?} {query:?}: {violation:?}");
            }
        }
    }
}
