//! Synthetic uncertain tables with controllable characteristics (§5.4).
//!
//! The paper's synthetic study sweeps four data characteristics:
//!
//! * the correlation ρ between a tuple's score and its confidence,
//! * the score variance σ,
//! * the in-rank gap between neighbouring members of an ME group, and
//! * the size of ME groups.
//!
//! [`SyntheticConfig`] exposes exactly those knobs (plus a seed) and
//! [`generate`] produces an [`UncertainTable`]. Scores and confidences are
//! drawn from a bivariate normal distribution; confidences are clamped into
//! `(0, 1]`; ME groups are then laid over the rank order according to the
//! gap/size policy, rescaling member probabilities when a group would exceed
//! total probability one.

use ttk_uncertain::{Result, UncertainTable, UncertainTuple, VecSource};

use crate::rng::DataRng;

/// Inclusive integer range used by the ME-group policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntRange {
    /// Smallest admissible value.
    pub min: u64,
    /// Largest admissible value.
    pub max: u64,
}

impl IntRange {
    /// A fixed value.
    pub fn fixed(v: u64) -> Self {
        IntRange { min: v, max: v }
    }

    /// A range `[min, max]`.
    pub fn new(min: u64, max: u64) -> Self {
        assert!(min <= max, "empty range");
        IntRange { min, max }
    }

    fn sample(&self, rng: &mut DataRng) -> u64 {
        rng.int_in(self.min, self.max)
    }
}

/// How tuples are assigned to mutual-exclusion groups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MePolicy {
    /// Number of members per group (the `s` parameter of Figure 16).
    pub group_size: IntRange,
    /// Rank-order distance between two neighbouring members of the same
    /// group (the `d` parameter of Figure 15).
    pub gap: IntRange,
    /// Fraction of tuples that participate in multi-member groups
    /// (the x-axis of Figure 11). The remaining tuples stay independent.
    pub portion: f64,
}

impl Default for MePolicy {
    fn default() -> Self {
        // The baseline of §5.4: small groups (2–3), small gaps (1–8), every
        // tuple eligible.
        MePolicy {
            group_size: IntRange::new(2, 3),
            gap: IntRange::new(1, 8),
            portion: 1.0,
        }
    }
}

impl MePolicy {
    /// A policy producing a fully independent table.
    pub fn independent() -> Self {
        MePolicy {
            group_size: IntRange::fixed(1),
            gap: IntRange::fixed(1),
            portion: 0.0,
        }
    }
}

/// Configuration of the synthetic generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticConfig {
    /// Number of tuples.
    pub tuples: usize,
    /// Mean of the score distribution.
    pub score_mean: f64,
    /// Standard deviation of the score distribution (σ of Figure 14).
    pub score_std: f64,
    /// Mean of the (pre-clamping) confidence distribution.
    pub confidence_mean: f64,
    /// Standard deviation of the confidence distribution.
    pub confidence_std: f64,
    /// Correlation coefficient between score and confidence (ρ of Figure 13).
    pub correlation: f64,
    /// ME-group layout policy.
    pub me_policy: MePolicy,
    /// PRNG seed; equal seeds produce identical tables.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        // Matches the setup of Figure 13a: ρ = 0, σ = 60, scores around 150.
        SyntheticConfig {
            tuples: 300,
            score_mean: 150.0,
            score_std: 60.0,
            confidence_mean: 0.5,
            confidence_std: 0.2,
            correlation: 0.0,
            me_policy: MePolicy::default(),
            seed: 0xC0FFEE,
        }
    }
}

impl SyntheticConfig {
    /// Convenience constructor for the correlation sweep of Figure 13.
    pub fn with_correlation(rho: f64) -> Self {
        SyntheticConfig {
            correlation: rho,
            ..SyntheticConfig::default()
        }
    }
}

/// Generates a synthetic uncertain table.
///
/// # Errors
///
/// Propagates model validation errors; with the clamping performed here they
/// can only occur for nonsensical configurations (for example zero tuples
/// are fine, but a negative σ is caught by the score validation).
pub fn generate(config: &SyntheticConfig) -> Result<UncertainTable> {
    let mut rng = DataRng::seed_from_u64(config.seed);
    // Draw (score, confidence) pairs.
    let mut tuples = Vec::with_capacity(config.tuples);
    for id in 0..config.tuples {
        let (score, raw_confidence) = rng.bivariate_normal(
            (config.score_mean, config.confidence_mean),
            (config.score_std, config.confidence_std),
            config.correlation,
        );
        let confidence = raw_confidence.clamp(0.02, 1.0);
        tuples.push(UncertainTuple::new(id as u64, score, confidence)?);
    }
    // Lay ME groups over the rank order.
    tuples.sort_by_key(|t| t.rank_key());
    let groups = assign_groups(&tuples, &config.me_policy, &mut rng);

    // Rescale probabilities inside groups whose mass exceeds one. Groups are
    // disjoint, so each member is rescaled at most once.
    for members in &groups {
        let sum: f64 = members.iter().map(|&pos| tuples[pos].prob()).sum();
        if sum > 0.99 {
            let scale = 0.99 / sum;
            for &pos in members {
                let t = &tuples[pos];
                tuples[pos] = UncertainTuple::new(t.id(), t.score(), (t.prob() * scale).max(1e-6))?;
            }
        }
    }
    let rules = groups
        .iter()
        .map(|members| members.iter().map(|&pos| tuples[pos].id()).collect())
        .collect();
    UncertainTable::new(tuples, rules)
}

/// Generates a synthetic workload directly as a rank-ordered
/// [`TupleSource`](ttk_uncertain::TupleSource) — the streaming counterpart
/// of [`generate`], equal table for equal configuration.
///
/// # Errors
///
/// As [`generate`].
pub fn generate_source(config: &SyntheticConfig) -> Result<VecSource> {
    Ok(generate(config)?.to_source())
}

/// Generates a synthetic workload **partitioned into `shards` rank-ordered
/// shard streams** (round-robin over the rank order), sharing one group-key
/// namespace — the benchmark input for the sharded scan path. Merging the
/// shards with [`ttk_uncertain::MergeSource::new`] reproduces
/// [`generate_source`] of the same configuration exactly.
///
/// # Errors
///
/// As [`generate`]; `shards == 0` is rejected.
pub fn generate_shard_sources(config: &SyntheticConfig, shards: usize) -> Result<Vec<VecSource>> {
    ttk_uncertain::partition_round_robin(generate(config)?.to_source(), shards)
}

/// Lays ME groups over rank-ordered tuples according to the policy: each
/// group's members as positions in `tuples`, in rank order.
fn assign_groups(
    tuples: &[UncertainTuple],
    policy: &MePolicy,
    rng: &mut DataRng,
) -> Vec<Vec<usize>> {
    if policy.portion <= 0.0 || policy.group_size.max < 2 {
        return Vec::new();
    }
    let n = tuples.len();
    let mut assigned = vec![false; n];
    let mut rules = Vec::new();
    let mut pos = 0usize;
    while pos < n {
        if assigned[pos] {
            pos += 1;
            continue;
        }
        if rng.uniform() > policy.portion {
            assigned[pos] = true;
            pos += 1;
            continue;
        }
        let size = policy.group_size.sample(rng).max(1) as usize;
        let mut members = vec![pos];
        assigned[pos] = true;
        let mut cursor = pos;
        while members.len() < size {
            let gap = policy.gap.sample(rng).max(1) as usize;
            let mut next = cursor + gap;
            // Skip forward to the first unassigned position.
            while next < n && assigned[next] {
                next += 1;
            }
            if next >= n {
                break;
            }
            assigned[next] = true;
            members.push(next);
            cursor = next;
        }
        if members.len() > 1 {
            rules.push(members);
        }
        pos += 1;
    }
    rules
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = SyntheticConfig::default();
        let a = generate(&config).unwrap();
        let b = generate(&config).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.tuples().iter().zip(b.tuples()) {
            assert_eq!(x.id(), y.id());
            assert_eq!(x.score(), y.score());
            assert_eq!(x.prob(), y.prob());
        }
        let c = generate(&SyntheticConfig { seed: 1, ..config }).unwrap();
        assert!(a
            .tuples()
            .iter()
            .zip(c.tuples())
            .any(|(x, y)| x.score() != y.score()));
    }

    /// FNV-1a over a table: per tuple in rank order its id, score bits,
    /// probability bits and group index.
    fn digest(table: &UncertainTable) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        };
        eat(table.len() as u64);
        for (pos, t) in table.tuples().iter().enumerate() {
            eat(t.id().raw());
            eat(t.score().to_bits());
            eat(t.prob().to_bits());
            eat(table.group_index(pos) as u64);
        }
        hash
    }

    #[test]
    fn generated_tables_are_pinned() {
        // Recorded before the rescaling looked members up by position; wide
        // groups with small gaps make many of them exceed mass one.
        let wide = MePolicy {
            group_size: IntRange::new(2, 6),
            gap: IntRange::new(1, 3),
            portion: 0.8,
        };
        for (config, pin) in [
            (
                SyntheticConfig {
                    tuples: 5_000,
                    seed: 7,
                    ..SyntheticConfig::default()
                },
                0x0b00df86f19d7cad,
            ),
            (
                SyntheticConfig {
                    tuples: 3_000,
                    confidence_mean: 0.8,
                    me_policy: wide,
                    seed: 11,
                    ..SyntheticConfig::default()
                },
                0x3f529cddd1a002d2,
            ),
        ] {
            let table = generate(&config).unwrap();
            assert_eq!(digest(&table), pin, "{config:?}");
        }
    }

    #[test]
    fn respects_tuple_count_and_probability_bounds() {
        let table = generate(&SyntheticConfig {
            tuples: 500,
            ..SyntheticConfig::default()
        })
        .unwrap();
        assert_eq!(table.len(), 500);
        for t in table.tuples() {
            assert!(t.prob() > 0.0 && t.prob() <= 1.0);
        }
        for g in 0..table.group_count() {
            assert!(table.group_total_probability(g) <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn independent_policy_creates_no_groups() {
        let table = generate(&SyntheticConfig {
            me_policy: MePolicy::independent(),
            ..SyntheticConfig::default()
        })
        .unwrap();
        assert_eq!(table.me_tuple_count(), 0);
    }

    #[test]
    fn portion_controls_me_tuple_fraction() {
        let base = SyntheticConfig {
            tuples: 600,
            ..SyntheticConfig::default()
        };
        let mut portions = Vec::new();
        for p in [0.1, 0.3, 0.5, 0.9] {
            let table = generate(&SyntheticConfig {
                me_policy: MePolicy {
                    portion: p,
                    ..MePolicy::default()
                },
                ..base
            })
            .unwrap();
            portions.push(table.me_tuple_portion());
        }
        // Monotonically (roughly) increasing in the requested portion.
        assert!(portions[0] < portions[3]);
        assert!(portions[0] > 0.0 && portions[0] < 0.35);
        assert!(portions[3] > 0.6);
    }

    #[test]
    fn larger_group_sizes_increase_group_width() {
        let small = generate(&SyntheticConfig::default()).unwrap();
        let large = generate(&SyntheticConfig {
            me_policy: MePolicy {
                group_size: IntRange::new(2, 10),
                ..MePolicy::default()
            },
            ..SyntheticConfig::default()
        })
        .unwrap();
        let avg = |t: &UncertainTable| {
            let groups: Vec<usize> = (0..t.group_count())
                .map(|g| t.group_positions(g).len())
                .filter(|&l| l > 1)
                .collect();
            groups.iter().sum::<usize>() as f64 / groups.len() as f64
        };
        assert!(avg(&large) > avg(&small));
    }

    #[test]
    fn correlation_shifts_top_scores_probability() {
        // Positive correlation: high-score tuples are more likely to exist,
        // so the average confidence of the top decile is higher than with
        // negative correlation.
        let top_decile_confidence = |rho: f64| {
            let table = generate(&SyntheticConfig::with_correlation(rho)).unwrap();
            let n = table.len() / 10;
            table.tuples()[..n].iter().map(|t| t.prob()).sum::<f64>() / n as f64
        };
        assert!(top_decile_confidence(0.8) > top_decile_confidence(0.0));
        assert!(top_decile_confidence(0.0) > top_decile_confidence(-0.8));
    }
}
