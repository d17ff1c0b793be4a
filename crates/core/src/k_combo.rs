//! The k-Combo baseline algorithm (§3.1).
//!
//! k-Combo iterates over all k-combinations of the first `n` rank-ordered
//! tuples (`n` given by Theorem 2), skips combinations that violate a mutual
//! exclusion rule, and computes for each remaining combination the
//! probability that it is the top-k prefix of a possible world. Its cost is
//! O(n^k); like StateExpansion it exists as a baseline for the main
//! algorithm. Combinations whose partial probability already fell to pτ or
//! below are pruned, which matches the threshold semantics used throughout
//! the paper (a top-k vector with probability below pτ need not be
//! reported).

use ttk_uncertain::{Error, Result, ScoreDistribution, TableSource, UncertainTable, VectorWitness};

use crate::scan::RankScan;
use crate::scan_depth::ScanGate;
use crate::state_expansion::{BaselineOutput, NaiveConfig};

/// Runs k-Combo and returns the top-k score distribution, streaming the
/// table so it reads at most one tuple past the Theorem-2 bound.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for `k == 0` or an out-of-range pτ.
pub fn k_combo(table: &UncertainTable, k: usize, config: &NaiveConfig) -> Result<BaselineOutput> {
    if k == 0 {
        return Err(Error::InvalidParameter("k must be at least 1".into()));
    }
    let mut gate = ScanGate::new(k, config.p_tau)?;
    let prefix = RankScan::new().collect_prefix(&mut TableSource::new(table), &mut gate)?;
    Ok(k_combo_on_prefix(&prefix.table, k, config))
}

/// The combination enumeration over an already-collected Theorem-2 prefix.
pub(crate) fn k_combo_on_prefix(
    table: &UncertainTable,
    k: usize,
    config: &NaiveConfig,
) -> BaselineOutput {
    let depth = table.len();
    let mut ctx = Context {
        table,
        k,
        config,
        depth,
        dist: ScoreDistribution::empty(),
        explored: 0,
        chosen: Vec::with_capacity(k),
    };
    if depth >= k {
        ctx.recurse(0, 1.0, 0.0);
    }
    let mut dist = ctx.dist;
    if config.max_lines > 0 {
        dist.coalesce(config.max_lines, config.coalesce_policy);
    }
    BaselineOutput {
        distribution: dist,
        scan_depth: depth,
        explored: ctx.explored,
    }
}

struct Context<'a> {
    table: &'a UncertainTable,
    k: usize,
    config: &'a NaiveConfig,
    depth: usize,
    dist: ScoreDistribution,
    explored: u64,
    /// Positions chosen so far (ascending).
    chosen: Vec<usize>,
}

impl Context<'_> {
    /// Depth-first enumeration of combinations. `selected_prob` is the
    /// product of the membership probabilities of the chosen tuples — an
    /// upper bound on the probability of any completed combination, used for
    /// pτ pruning. `score` is the accumulated total score.
    fn recurse(&mut self, next: usize, selected_prob: f64, score: f64) {
        if self.chosen.len() == self.k {
            self.explored += 1;
            self.emit(selected_prob, score);
            return;
        }
        let remaining_needed = self.k - self.chosen.len();
        // `pos` can go up to depth - remaining_needed.
        for pos in next..=self.depth.saturating_sub(remaining_needed) {
            if !self.violates_me(pos) {
                let p = self.table.tuple(pos).prob();
                let new_prob = selected_prob * p;
                if new_prob > self.config.p_tau || self.config.p_tau <= 0.0 {
                    self.chosen.push(pos);
                    self.recurse(pos + 1, new_prob, score + self.table.tuple(pos).score());
                    self.chosen.pop();
                }
            }
            // Skipping past a certain tuple (probability one) that no chosen
            // tuple excludes makes every later combination impossible — the
            // certain tuple would have to be absent. Stop extending here.
            if self.table.tuple(pos).probability().is_certain() && !self.violates_me(pos) {
                break;
            }
        }
    }

    /// True when `pos` shares an ME group with an already chosen position.
    fn violates_me(&self, pos: usize) -> bool {
        let group = self.table.group_index(pos);
        self.chosen
            .iter()
            .any(|&c| self.table.group_index(c) == group)
    }

    /// Computes the exact probability of the completed combination and adds
    /// it to the distribution.
    ///
    /// The probability that the chosen combination `C` is the top-k prefix is
    ///
    /// ```text
    /// ∏_{t ∈ C} p_t · ∏_{g without a member in C} (1 − Σ_{u ∈ g, rank(u) < rank(last(C))} p_u)
    /// ```
    ///
    /// Groups that contributed a member to `C` need no factor for their
    /// remaining members: those are automatically absent because the members
    /// of an ME group are disjoint events.
    fn emit(&mut self, selected_prob: f64, score: f64) {
        let last = *self.chosen.last().expect("k >= 1");
        let mut probability = selected_prob;
        // One exclusion factor per ME group without a chosen member; the
        // factor is applied when the group's lead (highest-ranked) member is
        // visited, which is necessarily below `last` whenever any member is.
        for pos in 0..last {
            if !self.table.is_lead(pos) {
                continue;
            }
            let group = self.table.group_index(pos);
            if self
                .chosen
                .iter()
                .any(|&c| self.table.group_index(c) == group)
            {
                continue;
            }
            let mass: f64 = self
                .table
                .group_positions(group)
                .iter()
                .filter(|&&m| m < last)
                .map(|&m| self.table.tuple(m).prob())
                .sum();
            probability *= (1.0 - mass).max(0.0);
            if probability <= 0.0 {
                return;
            }
        }
        if probability <= self.config.p_tau && self.config.p_tau > 0.0 {
            return;
        }
        let witness = self.config.track_witnesses.then(|| VectorWitness {
            ids: self
                .chosen
                .iter()
                .map(|&p| self.table.tuple(p).id())
                .collect(),
            probability,
        });
        self.dist.add_mass(score, probability, witness);
        if self.config.max_lines > 0 {
            self.dist
                .coalesce(self.config.max_lines, self.config.coalesce_policy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttk_uncertain::exact_topk_score_distribution;

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

    fn exact_config() -> NaiveConfig {
        NaiveConfig {
            p_tau: 1e-12,
            max_lines: 0,
            ..NaiveConfig::default()
        }
    }

    fn assert_matches_exact(table: &UncertainTable, k: usize) {
        let exact = exact_topk_score_distribution(table, k, 1 << 22).unwrap();
        let got = k_combo(table, k, &exact_config()).unwrap();
        assert_eq!(
            got.distribution.len(),
            exact.len(),
            "k={k}: {:?} vs {:?}",
            got.distribution,
            exact
        );
        for (a, b) in got.distribution.points().iter().zip(exact.points()) {
            assert!((a.score - b.score).abs() < 1e-9);
            assert!(
                (a.probability - b.probability).abs() < 1e-9,
                "k={k} score {}: {} vs {}",
                a.score,
                a.probability,
                b.probability
            );
        }
    }

    #[test]
    fn matches_exhaustive_on_soldier_table() {
        let table = soldier_table();
        for k in 1..=4 {
            assert_matches_exact(&table, k);
        }
    }

    #[test]
    fn matches_exhaustive_with_ties_and_groups() {
        let table = UncertainTable::builder()
            .tuple(1u64, 10.0, 0.5)
            .unwrap()
            .tuple(2u64, 8.0, 0.3)
            .unwrap()
            .tuple(3u64, 8.0, 0.2)
            .unwrap()
            .tuple(4u64, 7.0, 0.6)
            .unwrap()
            .tuple(5u64, 7.0, 0.4)
            .unwrap()
            .tuple(6u64, 5.0, 0.7)
            .unwrap()
            .me_rule([2u64, 5])
            .me_rule([3u64, 6])
            .build()
            .unwrap();
        for k in 1..=4 {
            assert_matches_exact(&table, k);
        }
    }

    #[test]
    fn independent_tuples_match_exhaustive() {
        let table = UncertainTable::builder()
            .tuple(1u64, 40.0, 0.7)
            .unwrap()
            .tuple(2u64, 30.0, 0.5)
            .unwrap()
            .tuple(3u64, 20.0, 0.9)
            .unwrap()
            .tuple(4u64, 10.0, 0.4)
            .unwrap()
            .build()
            .unwrap();
        for k in 1..=3 {
            assert_matches_exact(&table, k);
        }
    }

    #[test]
    fn pruning_never_increases_captured_mass() {
        let table = soldier_table();
        let exact = k_combo(&table, 2, &exact_config()).unwrap();
        let pruned = k_combo(
            &table,
            2,
            &NaiveConfig {
                p_tau: 0.05,
                max_lines: 0,
                ..NaiveConfig::default()
            },
        )
        .unwrap();
        assert!(
            pruned.distribution.total_probability()
                <= exact.distribution.total_probability() + 1e-12
        );
        assert!(pruned.explored <= exact.explored);
    }

    #[test]
    fn rejects_k_zero_and_handles_small_tables() {
        let table = soldier_table();
        assert!(k_combo(&table, 0, &exact_config()).is_err());
        let tiny = UncertainTable::builder()
            .tuple(1u64, 5.0, 0.5)
            .unwrap()
            .build()
            .unwrap();
        let out = k_combo(&tiny, 3, &exact_config()).unwrap();
        assert!(out.distribution.is_empty());
    }
}
