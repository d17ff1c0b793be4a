//! Parity of line coalescing: the linear-sweep [`Coalescer`] behind
//! [`ScoreDistribution::coalesce`] and the DP's columns against the greedy
//! scan-for-minimum loop (`support/coalesce_oracle.rs`), bit for bit in
//! scores, masses, witness probabilities and ids, plus the sweep's bound
//! on rounds.
//!
//! The families are the ones where the sweep could go wrong: exact gap
//! ties; strictly increasing, decreasing, geometric and equal gaps;
//! adjacent floats; zero, vanishing and subnormal masses; budgets of one
//! line and of one line fewer; both policies, with and without witnesses.

#[path = "support/coalesce_oracle.rs"]
mod coalesce_oracle;

use proptest::prelude::*;
use ttk_uncertain::{
    CoalescePolicy, Coalescer, DistributionPoint, ScoreDistribution, TupleId, VectorWitness,
};

const POLICIES: [CoalescePolicy; 2] = [CoalescePolicy::PaperMean, CoalescePolicy::WeightedMean];

/// Deterministic xorshift, for the families' masses and random gaps.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The gaps of each family, `n - 1` of them, by name.
fn gap_families(n: usize) -> Vec<(&'static str, Vec<f64>)> {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ n as u64);
    let gaps = |f: &mut dyn FnMut(usize) -> f64| (0..n - 1).map(f).collect::<Vec<f64>>();
    vec![
        (
            "exact ties",
            gaps(&mut |i| [0.5, 1.0, 1.0, 2.0, 0.25][(i * 7 + i / 3) % 5]),
        ),
        ("increasing", gaps(&mut |i| 1.0 + i as f64)),
        ("decreasing", gaps(&mut |i| (n - i) as f64)),
        ("geometric", gaps(&mut |i| 1.03f64.powi(i as i32))),
        ("equal", gaps(&mut |_| 0.75)),
        ("random", gaps(&mut |_| rng.unit() * 10.0)),
    ]
}

/// Scores from a start and gaps.
fn scores_from(start: f64, gaps: &[f64]) -> Vec<f64> {
    let mut scores = vec![start];
    for gap in gaps {
        scores.push(scores[scores.len() - 1] + gap);
    }
    scores
}

/// `n` scores one float apart, with every fifth step wider (two or three
/// floats), so merged lines land on their neighbours' values.
fn adjacent_floats(n: usize) -> Vec<f64> {
    let mut bits = 1000.0f64.to_bits();
    (0..n)
        .map(|i| {
            let score = f64::from_bits(bits);
            bits += if i % 5 == 4 { 2 + (i % 2) as u64 } else { 1 };
            score
        })
        .collect()
}

/// The families' masses, by name.
fn mass_families(n: usize, seed: u64) -> Vec<(&'static str, Vec<f64>)> {
    let mut rng = Rng(seed | 1);
    let mut masses = |f: &mut dyn FnMut(usize, f64) -> f64| {
        (0..n).map(|i| f(i, rng.unit())).collect::<Vec<f64>>()
    };
    vec![
        ("random", masses(&mut |_, u| 0.001 + u / 10.0)),
        (
            "zero",
            masses(&mut |i, u| if i % 4 < 2 { 0.0 } else { u / 10.0 }),
        ),
        (
            "vanishing",
            masses(&mut |i, u| if i % 4 == 1 { 0.5 * u } else { 1e-200 * u }),
        ),
        (
            "subnormal",
            masses(&mut |i, _| f64::from_bits(1 + (i as u64 * 7) % 5)),
        ),
    ]
}

/// How lines carry witnesses.
#[derive(Debug, Clone, Copy)]
enum Witnesses {
    None,
    All,
    /// Every third line has none.
    Mixed,
}

/// A distribution with exactly these lines (kept verbatim, even where two
/// scores are equal), witnesses as `mode` says: line `i` witnessed by
/// `[i, i + 10_000]` at a probability at most its mass.
fn distribution(scores: &[f64], masses: &[f64], mode: Witnesses, seed: u64) -> ScoreDistribution {
    let mut rng = Rng(seed | 1);
    let points = scores
        .iter()
        .zip(masses)
        .enumerate()
        .map(|(i, (&score, &probability))| {
            let witnessed = match mode {
                Witnesses::None => false,
                Witnesses::All => true,
                Witnesses::Mixed => i % 3 != 0,
            };
            DistributionPoint {
                score,
                probability,
                witness: witnessed.then(|| VectorWitness {
                    ids: vec![TupleId(i as u64), TupleId(i as u64 + 10_000)],
                    // Coarse values, so equal witness probabilities occur.
                    probability: probability * [0.25, 0.5, 0.5, 1.0][(rng.next() % 4) as usize],
                }),
            }
        })
        .collect();
    ScoreDistribution::from_points(points)
}

/// Every bit of `got` equals `want`'s: scores, masses, witness ids and
/// witness probabilities.
fn assert_bit_identical(got: &ScoreDistribution, want: &ScoreDistribution, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: line counts");
    for (line, (g, w)) in got.points().iter().zip(want.points()).enumerate() {
        assert_eq!(
            g.score.to_bits(),
            w.score.to_bits(),
            "{what}: line {line} score {} vs {}",
            g.score,
            w.score
        );
        assert_eq!(
            g.probability.to_bits(),
            w.probability.to_bits(),
            "{what}: line {line} mass {} vs {}",
            g.probability,
            w.probability
        );
        match (&g.witness, &w.witness) {
            (None, None) => {}
            (Some(g), Some(w)) => {
                assert_eq!(g.ids, w.ids, "{what}: line {line} witness ids");
                assert_eq!(
                    g.probability.to_bits(),
                    w.probability.to_bits(),
                    "{what}: line {line} witness probability"
                );
            }
            (g, w) => panic!("{what}: line {line} witness {g:?} vs {w:?}"),
        }
    }
}

/// The [`Coalescer`]'s survivors as a distribution, each with its kept
/// input line's witness.
fn through_coalescer(
    coalescer: &mut Coalescer,
    input: &ScoreDistribution,
    max_lines: usize,
    policy: CoalescePolicy,
) -> ScoreDistribution {
    let lines = coalescer.coalesce(
        input.points().iter().map(|p| {
            let witness = p
                .witness
                .as_ref()
                .map_or(f64::NEG_INFINITY, |w| w.probability);
            (p.score, p.probability, witness)
        }),
        max_lines,
        policy,
    );
    ScoreDistribution::from_points(
        lines
            .iter()
            .map(|line| DistributionPoint {
                score: line.score(),
                probability: line.probability(),
                witness: input.points()[line.witness()].witness.clone(),
            })
            .collect(),
    )
}

/// Both entry points against the oracle on one input, every policy.
fn check(coalescer: &mut Coalescer, input: &ScoreDistribution, max_lines: usize, what: &str) {
    for policy in POLICIES {
        let what = format!("{what}, {policy:?}, max_lines {max_lines}");
        let want = coalesce_oracle::coalesce(input, max_lines, policy);
        let mut got = input.clone();
        got.coalesce(max_lines, policy);
        assert_bit_identical(&got, &want, &what);
        let got = through_coalescer(coalescer, input, max_lines, policy);
        assert_bit_identical(&got, &want, &format!("{what} (reused coalescer)"));
    }
}

#[test]
fn the_sweep_matches_the_greedy_scan_on_every_family() {
    // One coalescer for every call, so buffers left by a larger call are
    // reused by smaller ones.
    let mut coalescer = Coalescer::new();
    for n in [2, 3, 7, 61, 400] {
        let mut shapes: Vec<(String, Vec<f64>)> = gap_families(n)
            .into_iter()
            .map(|(name, gaps)| (name.to_string(), scores_from(-3.0, &gaps)))
            .collect();
        shapes.push(("adjacent floats".to_string(), adjacent_floats(n)));
        for (gaps, scores) in &shapes {
            for (masses, probs) in mass_families(n, scores.len() as u64 + gaps.len() as u64) {
                for mode in [Witnesses::None, Witnesses::All, Witnesses::Mixed] {
                    let input = distribution(scores, &probs, mode, n as u64);
                    for max_lines in [1, 2, n / 3, n / 2, n - 1, n, n + 1] {
                        let what = format!("{n} lines, {gaps} gaps, {masses} masses, {mode:?}");
                        check(&mut coalescer, &input, max_lines, &what);
                    }
                }
            }
        }
    }
}

/// Score steps of the proptest: exact ties, a zero step, adjacent floats.
fn step(code: u32, score: f64) -> f64 {
    match code {
        0 => score,
        1 => f64::from_bits(score.to_bits() + 1),
        2 => score + 0.25,
        3 => score + 0.5,
        4 => score + 1.0,
        _ => score + f64::from(code) * 0.37,
    }
}

/// Masses of the proptest: zero, vanishing, subnormal and ordinary.
fn mass(code: u32) -> f64 {
    match code {
        0 => 0.0,
        1 => 1e-200,
        2 => f64::from_bits(3),
        3 => 0.5,
        _ => f64::from(code) / 64.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn the_sweep_matches_the_greedy_scan_on_random_lines(
        raw in proptest::collection::vec((0u32..9, 0u32..12, 0u32..4), 1..90),
        budget in 0usize..1000,
        witnessed in 0usize..3,
    ) {
        let mut scores = Vec::with_capacity(raw.len());
        let mut score = 10.0;
        for &(code, _, _) in &raw {
            score = step(code, score);
            scores.push(score);
        }
        let masses: Vec<f64> = raw.iter().map(|&(_, code, _)| mass(code)).collect();
        let mode = [Witnesses::None, Witnesses::All, Witnesses::Mixed][witnessed];
        let input = distribution(&scores, &masses, mode, raw.len() as u64);
        let max_lines = 1 + budget % raw.len();
        let mut coalescer = Coalescer::new();
        check(&mut coalescer, &input, max_lines, &format!("{raw:?}"));
    }
}

/// ⌈log₃⁄₂ m⌉ + 1: each round makes at least a third of the merges left.
fn round_bound(merges: usize) -> usize {
    let mut rounds = 1;
    let mut reach = 1.0f64;
    while reach < merges as f64 {
        reach *= 1.5;
        rounds += 1;
    }
    rounds
}

#[test]
fn rounds_stay_within_the_bound_on_adversarial_gaps() {
    let mut coalescer = Coalescer::new();
    for n in [2, 5, 64, 400, 1000] {
        let mut shapes: Vec<(&str, Vec<f64>)> = gap_families(n)
            .into_iter()
            .map(|(name, gaps)| (name, scores_from(0.0, &gaps)))
            .collect();
        shapes.push(("adjacent floats", adjacent_floats(n)));
        for (name, scores) in &shapes {
            let masses = vec![0.001; n];
            for target in [1, n / 4, n / 2, n - 1] {
                let target = target.max(1);
                for policy in POLICIES {
                    let lines = scores.iter().zip(&masses).map(|(&s, &p)| (s, p, 0.0));
                    let kept = coalescer.coalesce(lines, target, policy).len();
                    assert_eq!(kept, target.min(n), "{name}: {n} → {target}");
                    let bound = round_bound(n.saturating_sub(target));
                    let rounds = coalescer.rounds();
                    assert!(
                        rounds <= bound && (rounds > 0) == (n > target),
                        "{name}, {policy:?}: {n} → {target} took {rounds} rounds, bound {bound}"
                    );
                }
            }
        }
    }
}
