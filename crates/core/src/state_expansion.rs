//! The StateExpansion baseline algorithm (Figure 4 of the paper).
//!
//! StateExpansion walks the tuples in rank order and maintains a set of
//! partial states, each recording which of the processed tuples appear and
//! which do not. A state that has accumulated `k` appearing tuples
//! contributes one `(score, probability)` line to the output distribution; a
//! state whose probability drops to the threshold pτ or below is discarded.
//! The cost is exponential in the number of tuples considered, which is
//! exactly why the paper uses it only as a baseline for the main dynamic
//! programming algorithm.

use std::collections::HashMap;

use ttk_uncertain::{
    CoalescePolicy, Error, Result, ScoreDistribution, TableSource, TupleId, UncertainTable,
    VectorWitness,
};

use crate::scan::RankScan;
use crate::scan_depth::ScanGate;

/// Configuration shared by the two naive baselines (StateExpansion, k-Combo).
#[derive(Debug, Clone, Copy)]
pub struct NaiveConfig {
    /// Probability threshold pτ below which top-k vectors are ignored.
    pub p_tau: f64,
    /// Maximum number of lines in the output distribution (0 = unbounded).
    pub max_lines: usize,
    /// How coalesced lines combine.
    pub coalesce_policy: CoalescePolicy,
    /// Whether witness vectors are tracked.
    pub track_witnesses: bool,
}

impl Default for NaiveConfig {
    fn default() -> Self {
        NaiveConfig {
            p_tau: 1e-3,
            max_lines: 200,
            coalesce_policy: CoalescePolicy::PaperMean,
            track_witnesses: true,
        }
    }
}

/// Output of a baseline algorithm run.
#[derive(Debug, Clone)]
pub struct BaselineOutput {
    /// The computed score distribution.
    pub distribution: ScoreDistribution,
    /// Scan depth used (Theorem 2).
    pub scan_depth: usize,
    /// Number of states expanded (StateExpansion) or combinations evaluated
    /// (k-Combo); a machine-independent cost measure.
    pub explored: u64,
}

/// One partial state: decisions for every processed tuple.
#[derive(Debug, Clone)]
struct State {
    /// Ids of the tuples selected so far (rank order), kept only when
    /// witnesses are tracked.
    selected: Vec<TupleId>,
    /// Number of selected tuples.
    count: usize,
    /// Total score of the selected tuples.
    score: f64,
    /// Probability of this exact appearance pattern.
    probability: f64,
    /// For each ME group with at least one *excluded* member and no included
    /// member: the accumulated probability mass of its excluded members.
    excluded: HashMap<usize, f64>,
    /// ME groups that already contributed an included member.
    included_groups: Vec<usize>,
}

impl State {
    fn initial() -> Self {
        State {
            selected: Vec::new(),
            count: 0,
            score: 0.0,
            probability: 1.0,
            excluded: HashMap::new(),
            included_groups: Vec::new(),
        }
    }

    fn has_included(&self, group: usize) -> bool {
        self.included_groups.contains(&group)
    }
}

/// Runs StateExpansion and returns the top-k score distribution, streaming
/// the table so it reads at most one tuple past the Theorem-2 bound.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for `k == 0` or an out-of-range pτ.
pub fn state_expansion(
    table: &UncertainTable,
    k: usize,
    config: &NaiveConfig,
) -> Result<BaselineOutput> {
    if k == 0 {
        return Err(Error::InvalidParameter("k must be at least 1".into()));
    }
    let mut gate = ScanGate::new(k, config.p_tau)?;
    let prefix = RankScan::new().collect_prefix(&mut TableSource::new(table), &mut gate)?;
    Ok(state_expansion_on_prefix(&prefix.table, k, config))
}

/// The expansion loop over an already-collected Theorem-2 prefix.
pub(crate) fn state_expansion_on_prefix(
    table: &UncertainTable,
    k: usize,
    config: &NaiveConfig,
) -> BaselineOutput {
    let depth = table.len();
    let mut dist = ScoreDistribution::empty();
    let mut states = vec![State::initial()];
    let mut explored: u64 = 0;

    for pos in 0..depth {
        if states.is_empty() {
            break;
        }
        let tuple = table.tuple(pos);
        let group = table.group_index(pos);
        let group_is_singleton = table.group_members(pos).len() == 1;
        let mut next_states = Vec::with_capacity(states.len() * 2);
        for state in &states {
            explored += 1;
            // Branch 1: tuple appears (is part of the top-k prefix).
            if !state.has_included(group) {
                let excluded_mass = state.excluded.get(&group).copied().unwrap_or(0.0);
                let denom = 1.0 - excluded_mass;
                if denom > 1e-15 {
                    let probability = state.probability / denom * tuple.prob();
                    if probability > 0.0 {
                        let mut s1 = state.clone();
                        s1.probability = probability;
                        s1.score += tuple.score();
                        s1.count += 1;
                        if config.track_witnesses {
                            s1.selected.push(tuple.id());
                        }
                        if !group_is_singleton {
                            s1.excluded.remove(&group);
                            s1.included_groups.push(group);
                        }
                        if s1.count == k {
                            let witness = config.track_witnesses.then(|| VectorWitness {
                                ids: s1.selected.clone(),
                                probability: s1.probability,
                            });
                            dist.add_mass(s1.score, s1.probability, witness);
                            if config.max_lines > 0 {
                                dist.coalesce(config.max_lines, config.coalesce_policy);
                            }
                        } else if s1.probability > config.p_tau {
                            next_states.push(s1);
                        }
                    }
                }
            }
            // Branch 2: tuple does not appear.
            let (probability, new_excluded) = if state.has_included(group) || group_is_singleton {
                // Either implied by the included member (probability already
                // accounts for it) or a simple independent complement.
                if group_is_singleton {
                    (state.probability * tuple.probability().complement(), None)
                } else {
                    (state.probability, None)
                }
            } else {
                let excluded_mass = state.excluded.get(&group).copied().unwrap_or(0.0);
                let denom = 1.0 - excluded_mass;
                let numer = 1.0 - excluded_mass - tuple.prob();
                if denom <= 1e-15 || numer <= 0.0 {
                    (0.0, None)
                } else {
                    (
                        state.probability / denom * numer,
                        Some(excluded_mass + tuple.prob()),
                    )
                }
            };
            if probability > config.p_tau {
                let mut s2 = state.clone();
                s2.probability = probability;
                if let Some(mass) = new_excluded {
                    s2.excluded.insert(group, mass);
                }
                next_states.push(s2);
            }
        }
        states = next_states;
    }

    if config.max_lines > 0 {
        dist.coalesce(config.max_lines, config.coalesce_policy);
    }
    BaselineOutput {
        distribution: dist,
        scan_depth: depth,
        explored,
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
        let got = state_expansion(table, k, &exact_config()).unwrap();
        assert_eq!(got.distribution.len(), exact.len());
        for (a, b) in got.distribution.points().iter().zip(exact.points()) {
            assert!((a.score - b.score).abs() < 1e-9);
            assert!(
                (a.probability - b.probability).abs() < 1e-9,
                "score {}: {} vs {}",
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
    fn matches_exhaustive_with_ties() {
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
            .me_rule([2u64, 5])
            .build()
            .unwrap();
        for k in 1..=4 {
            assert_matches_exact(&table, k);
        }
    }

    #[test]
    fn u_top2_vector_is_among_witnesses() {
        let table = soldier_table();
        let got = state_expansion(&table, 2, &exact_config()).unwrap();
        let w = got
            .distribution
            .points()
            .iter()
            .find(|p| (p.score - 118.0).abs() < 1e-9)
            .and_then(|p| p.witness.as_ref())
            .expect("witness for score 118");
        assert_eq!(w.ids, vec![TupleId(2), TupleId(6)]);
        assert!((w.probability - 0.2).abs() < 1e-9);
    }

    #[test]
    fn pruning_reduces_exploration() {
        let table = soldier_table();
        let exact = state_expansion(&table, 2, &exact_config()).unwrap();
        let pruned = state_expansion(
            &table,
            2,
            &NaiveConfig {
                p_tau: 0.05,
                ..exact_config()
            },
        )
        .unwrap();
        assert!(pruned.explored <= exact.explored);
        assert!(pruned.distribution.total_probability() <= exact.distribution.total_probability());
    }

    #[test]
    fn rejects_k_zero() {
        assert!(state_expansion(&soldier_table(), 0, &exact_config()).is_err());
    }

    #[test]
    fn coalescing_limits_output_size() {
        let table = soldier_table();
        let got = state_expansion(
            &table,
            2,
            &NaiveConfig {
                max_lines: 3,
                p_tau: 1e-12,
                ..NaiveConfig::default()
            },
        )
        .unwrap();
        assert!(got.distribution.len() <= 3);
        assert!((got.distribution.total_probability() - 1.0).abs() < 1e-9);
    }
}
