//! The U-Topk comparator semantics (Soliman, Ilyas, Chang — ICDE 2007).
//!
//! U-Topk returns the single k-tuple vector with the highest probability of
//! being the top-k across all possible worlds. The paper under reproduction
//! uses U-Topk as the comparison point for every evaluation figure: the
//! U-Topk score is marked on each score distribution to show how *atypical*
//! it can be.
//!
//! The implementation is the classical best-first search over prefix states:
//! tuples are processed in rank order, each state records which of the
//! processed tuples appear, and states are expanded in order of decreasing
//! probability. Because extending a state can only lower its probability,
//! the first state that reaches `k` appearing tuples is the optimal answer
//! (the "optimal number of accessed tuples" property of \[18\]).
//!
//! # State layout
//!
//! A frontier state is a `Copy` value of four words: its probability, the
//! next rank position to decide, how many tuples it has selected, and the
//! arena index of the last one. The selected tuples live once, in a
//! search-owned arena of `(position, parent)` cells: an include step
//! appends one cell pointing at the state's previous last cell, so a child
//! shares its whole selection with its parent. Only the answer's chain is
//! turned into tuple ids, and its score is summed then, from `0.0` in
//! selection order, as a running per-state score would have been. The
//! arena grows by at most one cell per expansion and is indexed by `usize`,
//! so its indices cannot wrap for any [`UTopkConfig::max_expansions`].
//!
//! # Excluded mass
//!
//! Deciding the tuple at position `p` conditions on the probability mass its
//! ME group has already excluded. No state stores that mass, because it is
//! fixed by `p`: a state at `p` whose group has no included member has
//! excluded exactly that group's members ranked above `p`. (Every earlier
//! member was decided by an ancestor; including one would make the group
//! included, and an exclusion that leaves the group no mass kills the
//! state.) The mass is therefore a rank-order prefix sum within the group,
//! filled lazily per position up to the deepest one the search reaches. It
//! is summed member by member from `0.0`, in the order a per-state map of
//! excluded mass would accumulate it, so every probability, the heap order
//! (probability, then position) and the push order match that per-state
//! search exactly: answers, `expansions`, `deepest_position` and the
//! expansion-limit error are bit-identical to it. The per-state search is
//! kept as the test oracle in `tests/support/u_topk_oracle.rs`.

use std::collections::BinaryHeap;

use ttk_uncertain::{Error, Result, TopkVector, TupleSource, UncertainTable};

use crate::scan::RankScan;
use crate::scan_depth::ScanGate;

/// Safety limit and outcome statistics for the best-first search.
#[derive(Debug, Clone, Copy)]
pub struct UTopkConfig {
    /// Maximum number of states popped from the frontier before giving up.
    /// Protects against pathological inputs where the frontier grows
    /// exponentially; the default is generous.
    pub max_expansions: u64,
}

impl Default for UTopkConfig {
    fn default() -> Self {
        UTopkConfig {
            max_expansions: 20_000_000,
        }
    }
}

/// The U-Topk answer together with search statistics.
#[derive(Debug, Clone)]
pub struct UTopkAnswer {
    /// The most probable top-k vector.
    pub vector: TopkVector,
    /// Number of states popped from the frontier.
    pub expansions: u64,
    /// Deepest rank position examined (the "scan depth" of the search).
    pub deepest_position: usize,
}

/// One frontier state; its selected tuples are a chain of [`Selections`]
/// cells ending at `last`.
#[derive(Debug, Clone, Copy)]
struct SearchState {
    probability: f64,
    /// Next rank position to decide.
    next: usize,
    /// Number of selected tuples.
    selected: usize,
    /// Arena cell of the last selected tuple ([`ROOT`] before the first).
    last: usize,
}

impl PartialEq for SearchState {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for SearchState {}
impl PartialOrd for SearchState {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SearchState {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap by probability; deeper states win ties so completed
        // vectors surface promptly.
        self.probability
            .total_cmp(&other.probability)
            .then(self.next.cmp(&other.next))
    }
}

/// The arena's sentinel cell: the parent of every first selection.
const ROOT: usize = 0;

/// One selected tuple: its rank position and the cell selected before it.
#[derive(Debug, Clone, Copy)]
struct Cell {
    position: usize,
    parent: usize,
}

/// The search-owned arena every state's selection chain lives in. Chains
/// run from a state's last selection back to [`ROOT`] in strictly
/// decreasing rank position.
struct Selections {
    cells: Vec<Cell>,
}

impl Selections {
    fn new() -> Self {
        Selections {
            cells: vec![Cell {
                position: usize::MAX,
                parent: ROOT,
            }],
        }
    }

    /// Appends `position` after the chain ending at `parent`; returns the
    /// new chain's last cell.
    fn push(&mut self, position: usize, parent: usize) -> usize {
        self.cells.push(Cell { position, parent });
        self.cells.len() - 1
    }

    /// Whether the chain ending at `last` selects a member of `group`, whose
    /// first member (in rank order) sits at `first_member`.
    fn holds_group(
        &self,
        table: &UncertainTable,
        mut last: usize,
        group: usize,
        first_member: usize,
    ) -> bool {
        while last != ROOT {
            let cell = self.cells[last];
            if cell.position < first_member {
                return false;
            }
            if table.group_index(cell.position) == group {
                return true;
            }
            last = cell.parent;
        }
        false
    }

    /// The vector the chain ending at `last` selects: its ids in selection
    /// (rank) order and their scores summed in that order from `0.0`.
    fn vector(&self, table: &UncertainTable, mut last: usize, probability: f64) -> TopkVector {
        let mut positions = Vec::new();
        while last != ROOT {
            let cell = self.cells[last];
            positions.push(cell.position);
            last = cell.parent;
        }
        positions.reverse();
        let score = positions
            .iter()
            .fold(0.0, |sum, &pos| sum + table.tuple(pos).score());
        let ids = positions.iter().map(|&pos| table.tuple(pos).id()).collect();
        TopkVector::new(ids, score, probability)
    }
}

/// Rank-order prefix sums of ME-group mass, filled lazily: entry `p` is the
/// summed probability of the members of `p`'s group ranked above `p`.
struct MassAbove {
    filled: Vec<f64>,
}

impl MassAbove {
    fn at(&mut self, table: &UncertainTable, pos: usize) -> f64 {
        while self.filled.len() <= pos {
            let p = self.filled.len();
            let members = table.group_members(p);
            let mass = match members.partition_point(|&m| m < p).checked_sub(1) {
                None => 0.0,
                Some(i) => self.filled[members[i]] + table.tuple(members[i]).prob(),
            };
            self.filled.push(mass);
        }
        self.filled[pos]
    }
}

/// Computes the U-Topk answer from a rank-ordered [`TupleSource`].
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `k == 0` or the search exceeds
/// [`UTopkConfig::max_expansions`]; propagates source errors.
pub fn u_topk_streamed(
    source: &mut dyn TupleSource,
    k: usize,
    config: &UTopkConfig,
) -> Result<Option<UTopkAnswer>> {
    // U-Topk has no probability threshold, so Theorem 2 provides no bound for
    // it; the stream is drained through an open gate (the best-first search
    // itself then stops at its optimal depth).
    let mut gate = ScanGate::open();
    let prefix = RankScan::new().collect_prefix(source, &mut gate)?;
    u_topk(&prefix.table, k, config)
}

/// Computes the U-Topk answer: the k-tuple vector with the highest
/// probability of being the top-k vector of the table (see
/// [`u_topk_streamed`] for the source-based variant).
///
/// Returns `None` when the table cannot produce `k` co-existing tuples (for
/// example when it has fewer than `k` ME groups).
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `k == 0` or the search exceeds
/// [`UTopkConfig::max_expansions`].
pub fn u_topk(
    table: &UncertainTable,
    k: usize,
    config: &UTopkConfig,
) -> Result<Option<UTopkAnswer>> {
    if k == 0 {
        return Err(Error::InvalidParameter("k must be at least 1".into()));
    }
    if k > table.group_count() {
        // A world holds at most one tuple per ME group.
        return Ok(None);
    }
    let mut selections = Selections::new();
    let mut mass_above = MassAbove { filled: Vec::new() };
    let mut heap = BinaryHeap::new();
    heap.push(SearchState {
        probability: 1.0,
        next: 0,
        selected: 0,
        last: ROOT,
    });
    let mut expansions: u64 = 0;
    let mut deepest = 0usize;

    while let Some(state) = heap.pop() {
        expansions += 1;
        if expansions > config.max_expansions {
            return Err(Error::InvalidParameter(format!(
                "U-Topk search exceeded {} expansions",
                config.max_expansions
            )));
        }
        deepest = deepest.max(state.next);
        if state.selected == k {
            return Ok(Some(UTopkAnswer {
                vector: selections.vector(table, state.last, state.probability),
                expansions,
                deepest_position: deepest,
            }));
        }
        if state.next >= table.len() {
            continue; // Dead end: ran out of tuples before reaching k.
        }
        let pos = state.next;
        let tuple = table.tuple(pos);
        let group = table.group_index(pos);
        let members = table.group_members(pos);
        let singleton = members.len() == 1;
        let has_included =
            members[0] < pos && selections.holds_group(table, state.last, group, members[0]);
        if has_included {
            // The group's member is already in: this tuple is certainly out.
            heap.push(SearchState {
                next: pos + 1,
                ..state
            });
            continue;
        }
        let excluded_mass = mass_above.at(table, pos);

        // Include branch.
        let denom = 1.0 - excluded_mass;
        if denom > 1e-15 {
            let probability = state.probability / denom * tuple.prob();
            if probability > 0.0 {
                heap.push(SearchState {
                    probability,
                    next: pos + 1,
                    selected: state.selected + 1,
                    last: selections.push(pos, state.last),
                });
            }
        }
        // Exclude branch.
        let probability = if singleton {
            state.probability * tuple.probability().complement()
        } else {
            let numer = 1.0 - excluded_mass - tuple.prob();
            if denom <= 1e-15 || numer <= 0.0 {
                0.0
            } else {
                state.probability / denom * numer
            }
        };
        if probability > 0.0 {
            heap.push(SearchState {
                probability,
                next: pos + 1,
                ..state
            });
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttk_uncertain::TupleId;

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
    fn u_top2_of_the_soldier_table_is_t2_t6() {
        // §1: the U-Top2 vector is <T2, T6> with probability 0.2 and total
        // score 118.
        let answer = u_topk(&soldier_table(), 2, &UTopkConfig::default())
            .unwrap()
            .unwrap();
        assert_eq!(answer.vector.ids(), &[TupleId(2), TupleId(6)]);
        assert!((answer.vector.probability() - 0.2).abs() < 1e-9);
        assert!((answer.vector.total_score() - 118.0).abs() < 1e-9);
    }

    #[test]
    fn u_top1_is_the_certain_tuple() {
        // T5 has probability 1 but score 56; the top-1 is T5 only when every
        // higher-scored tuple is absent: 0.7 * 0.6 * ... let's check that the
        // search agrees with brute force via the exhaustive baseline.
        let table = soldier_table();
        let answer = u_topk(&table, 1, &UTopkConfig::default()).unwrap().unwrap();
        let exact = crate::baselines::exhaustive::exhaustive_u_topk(&table, 1, 1 << 20).unwrap();
        let (ids, prob) = exact.expect("table has top-1 vectors");
        assert_eq!(answer.vector.ids(), &ids[..]);
        assert!((answer.vector.probability() - prob).abs() < 1e-9);
    }

    #[test]
    fn matches_exhaustive_for_all_small_k() {
        let table = soldier_table();
        for k in 1..=4 {
            let answer = u_topk(&table, k, &UTopkConfig::default()).unwrap().unwrap();
            let exact = crate::baselines::exhaustive::exhaustive_u_topk(&table, k, 1 << 20)
                .unwrap()
                .unwrap();
            assert!(
                (answer.vector.probability() - exact.1).abs() < 1e-9,
                "k={k}: {} vs {}",
                answer.vector.probability(),
                exact.1
            );
        }
    }

    #[test]
    fn impossible_k_returns_none() {
        let table = UncertainTable::builder()
            .tuple(1u64, 5.0, 0.5)
            .unwrap()
            .tuple(2u64, 4.0, 0.5)
            .unwrap()
            .me_rule([1u64, 2])
            .build()
            .unwrap();
        assert!(u_topk(&table, 2, &UTopkConfig::default())
            .unwrap()
            .is_none());
        assert!(u_topk(&table, 1, &UTopkConfig::default())
            .unwrap()
            .is_some());

        // 40 tuples in 20 two-member groups: no world holds 21 tuples. The
        // answer must come without a search, which would walk all 2^20
        // equally likely selections before giving up.
        let mut builder = UncertainTable::builder();
        for id in 0..40u64 {
            builder = builder.tuple(id, id as f64, 0.5).unwrap();
        }
        for pair in 0..20u64 {
            builder = builder.me_rule([2 * pair, 2 * pair + 1]);
        }
        let table = builder.build().unwrap();
        assert_eq!(table.group_count(), 20);
        assert!(u_topk(&table, 21, &UTopkConfig { max_expansions: 1 })
            .unwrap()
            .is_none());
    }

    #[test]
    fn rejects_k_zero_and_expansion_limit() {
        let table = soldier_table();
        assert!(u_topk(&table, 0, &UTopkConfig::default()).is_err());
        let err = u_topk(&table, 2, &UTopkConfig { max_expansions: 1 });
        assert!(err.is_err());
    }

    #[test]
    fn search_does_not_scan_past_what_it_needs() {
        // With certain tuples at the top, the search must terminate after
        // roughly k positions.
        let table = UncertainTable::new(
            (0..100u64)
                .map(|i| ttk_uncertain::UncertainTuple::new(i, 1000.0 - i as f64, 1.0).unwrap())
                .collect(),
            Vec::new(),
        )
        .unwrap();
        let answer = u_topk(&table, 5, &UTopkConfig::default()).unwrap().unwrap();
        assert!((answer.vector.probability() - 1.0).abs() < 1e-12);
        assert!(answer.deepest_position <= 6);
    }
}
