//! The per-state U-Topk search of Soliman, Ilyas & Chang (ICDE 2007), kept
//! as the reference the library's one-pass `baselines::u_topk` is checked
//! against.
//!
//! Every state owns its selected ids, the groups it has included and a map
//! of the probability mass it has excluded per still-open ME group, and an
//! include step clones all three. States are expanded best first; the first
//! one to select `k` tuples is the answer. For `k > group_count()` this
//! search runs until the frontier empties, where the library answers
//! `Ok(None)` up front.

use std::collections::{BinaryHeap, HashMap};

use ttk_core::baselines::UTopkAnswer;
use ttk_uncertain::{Error, Result, TopkVector, TupleId, UncertainTable};

#[derive(Debug, Clone)]
struct SearchState {
    probability: f64,
    /// Next rank position to decide.
    next: usize,
    selected: Vec<TupleId>,
    score: f64,
    /// Per-group probability mass excluded so far (groups without an
    /// included member only).
    excluded: HashMap<usize, f64>,
    included_groups: Vec<usize>,
}

impl PartialEq for SearchState {
    fn eq(&self, other: &Self) -> bool {
        self.probability == other.probability
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

/// The reference U-Topk search: same contract as `baselines::u_topk` for
/// `1 <= k <= table.group_count()`; `expansions` counts popped states.
pub fn u_topk(table: &UncertainTable, k: usize) -> Result<Option<UTopkAnswer>> {
    if k == 0 {
        return Err(Error::InvalidParameter("k must be at least 1".into()));
    }
    let mut heap = BinaryHeap::new();
    heap.push(SearchState {
        probability: 1.0,
        next: 0,
        selected: Vec::new(),
        score: 0.0,
        excluded: HashMap::new(),
        included_groups: Vec::new(),
    });
    let mut expansions: u64 = 0;
    let mut deepest = 0usize;

    while let Some(state) = heap.pop() {
        expansions += 1;
        deepest = deepest.max(state.next);
        if state.selected.len() == k {
            return Ok(Some(UTopkAnswer {
                vector: TopkVector::new(state.selected, state.score, state.probability),
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
        let singleton = table.group_members(pos).len() == 1;
        let has_included = state.included_groups.contains(&group);

        // Include branch.
        if !has_included {
            let excluded_mass = state.excluded.get(&group).copied().unwrap_or(0.0);
            let denom = 1.0 - excluded_mass;
            if denom > 1e-15 {
                let probability = state.probability / denom * tuple.prob();
                if probability > 0.0 {
                    let mut s = state.clone();
                    s.probability = probability;
                    s.next = pos + 1;
                    s.selected.push(tuple.id());
                    s.score += tuple.score();
                    if !singleton {
                        s.excluded.remove(&group);
                        s.included_groups.push(group);
                    }
                    heap.push(s);
                }
            }
        }
        // Exclude branch.
        let (probability, new_excluded) = if has_included {
            (state.probability, None)
        } else if singleton {
            (state.probability * tuple.probability().complement(), None)
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
        if probability > 0.0 {
            let mut s = state;
            s.probability = probability;
            s.next = pos + 1;
            if let Some(mass) = new_excluded {
                s.excluded.insert(group, mass);
            }
            heap.push(s);
        }
    }
    Ok(None)
}
