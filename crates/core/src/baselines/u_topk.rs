//! The U-Topk comparator semantics (Soliman, Ilyas & Chang, ICDE 2007).
//!
//! U-Topk returns the single k-tuple vector with the highest probability of
//! being the top-k across all possible worlds. The paper under reproduction
//! marks the U-Topk score on every score distribution to show how
//! *atypical* it can be.
//!
//! # One rank-order pass
//!
//! The answer comes from the scan of Yi, Li, Kollios & Srivastava
//! ("Efficient Processing of Top-k Queries in Uncertain Databases", ICDE
//! 2008), not from Soliman et al.'s best-first search over prefix states.
//! Rank means table position; an independent tuple is an ME group of one.
//!
//! A vector whose lowest-ranked member sits at position `i`, in group `g`,
//! is the top-k of a world exactly when its members appear and no other
//! tuple ranked above `i` does. Groups are independent, so its probability
//! is `pᵢ` times, per other group with members above `i`, the chosen
//! member's `p`, or `1 − m` if the group contributes none (`m` is its mass
//! above `i`). The best vector ending at `i` thus takes each group's best
//! member, every *forced* group (one left no exclusion mass), and the
//! unforced groups with the largest ratios `p_best / (1 − m)`:
//!
//! ```text
//! pᵢ · Π (1 − m) over the unforced · Π p_best over the forced
//!    · the k − 1 − forced largest ratios
//! ```
//!
//! `i` is skipped when `g` has no exclusion mass left, when fewer than
//! `k − 1` other groups have been seen, or when more than `k − 1` of them
//! are forced. A group is forced once `1 − m` above a member is at most
//! `1e-15`, or `1 − m − p` after it at most `0`: the search's guards, so
//! the two agree on which vectors can exist.
//!
//! The unforced groups are kept ordered by (ratio, best member's rank), so
//! the top `k − 1` outside `g` take O(k) to read; their exclusion product
//! is a running sum of logs. The pass costs O(n·(k + log G)) for n rows and
//! G groups.
//!
//! # Where it stops
//!
//! Theorem 2 with pτ set to the best probability so far: the pass stops
//! before `i` once a vector has been found and `i`'s μ (its mass above
//! outside `g`, as in [`ScanGate`](crate::scan_depth::ScanGate)) reaches
//! [`stopping_threshold`]`(k, best)`. A vector ending at `j ≥ i` is the
//! top-k only in worlds where at most `k − 1` tuples ranked above `i`
//! appear. That count sums independent per-group indicators with a mean of
//! at least μ, so the Chernoff bound behind Theorem 2 puts its chance under
//! `best`: no vector ending at `i` or later can beat `best`. The threshold
//! only falls as `best` rises.
//!
//! # Ties
//!
//! A group's best member is its earliest-ranked most probable one. Equal
//! ratios go to the group whose best member ranks first. A later position
//! wins only with a strictly higher probability, so the earliest last
//! position wins. If every vector's probability underflows to 0, there is
//! no answer.

use std::cmp::Reverse;
use std::collections::BTreeSet;

use ttk_uncertain::{Error, Result, TopkVector, UncertainTable};

use crate::scan_depth::stopping_threshold;

/// Options of [`u_topk`]: none to set; the type keeps the call's shape.
#[derive(Debug, Clone, Copy, Default)]
pub struct UTopkConfig {}

/// The U-Topk answer together with pass statistics.
#[derive(Debug, Clone)]
pub struct UTopkAnswer {
    /// The most probable top-k vector.
    pub vector: TopkVector,
    /// Rank positions the pass evaluated: all of those before its stop.
    pub expansions: u64,
    /// The last rank position the pass evaluated.
    pub deepest_position: usize,
}

/// `best` of a group none of whose members has been passed.
const UNSEEN: usize = usize::MAX;

/// One ME group's members above the pass's current position.
#[derive(Debug, Clone, Copy)]
struct Group {
    /// Their summed probability, added in rank order from `0.0`.
    mass: f64,
    /// The exclusion factor `1 − mass`, as `1 − m − p` at the last member.
    left: f64,
    /// The earliest-ranked most probable member, or [`UNSEEN`].
    best: usize,
    /// Whether the group has no exclusion mass left.
    forced: bool,
}

impl Group {
    /// The group's place among the unforced groups: ratio descending, then
    /// the rank of its best member. Positive floats order as their bits.
    fn key(&self, table: &UncertainTable) -> (Reverse<u64>, usize) {
        let ratio = table.tuple(self.best).prob() / self.left;
        (Reverse(ratio.to_bits()), self.best)
    }
}

/// Computes the U-Topk answer: the k-tuple vector with the highest
/// probability of being the top-k vector of the table.
///
/// Returns `None` when no k tuples can co-exist (for example when the table
/// has fewer than `k` ME groups) or every vector's probability underflows.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `k == 0`.
pub fn u_topk(
    table: &UncertainTable,
    k: usize,
    _config: &UTopkConfig,
) -> Result<Option<UTopkAnswer>> {
    if k == 0 {
        return Err(Error::InvalidParameter("k must be at least 1".into()));
    }
    if k > table.group_count() {
        // A world holds at most one tuple per ME group.
        return Ok(None);
    }
    let unseen = Group {
        mass: 0.0,
        left: 1.0,
        best: UNSEEN,
        forced: false,
    };
    let mut groups = vec![unseen; table.group_count()];
    let mut open = BTreeSet::new();
    let mut forced: Vec<usize> = Vec::new();
    // Σ ln(left) over `open`, and the mass of every position passed.
    let mut log_left = 0.0;
    let mut total_mass = 0.0;
    let mut best = (0.0, Vec::new());
    let mut threshold = f64::INFINITY;
    let mut chosen = Vec::with_capacity(k);
    let mut evaluated = 0;

    for i in 0..table.len() {
        let g = table.group_index(i);
        let own = groups[g];
        if total_mass - own.mass >= threshold {
            break;
        }
        evaluated = i + 1;
        let p = table.tuple(i).prob();
        // False for a forced group, so `open` holds `g` once it is seen.
        let includable = 1.0 - own.mass > 1e-15;

        if includable && forced.len() < k {
            chosen.clear();
            chosen.extend(forced.iter().map(|&h| groups[h].best));
            let mut log_rest = log_left - own.left.ln();
            let free = open
                .iter()
                .filter(|&&(_, pos)| pos != own.best)
                .take(k - 1 - forced.len());
            for &(_, pos) in free {
                chosen.push(pos);
                log_rest -= groups[table.group_index(pos)].left.ln();
            }
            if chosen.len() == k - 1 {
                let probability = chosen
                    .iter()
                    .fold(p, |product, &pos| product * table.tuple(pos).prob())
                    * log_rest.exp();
                if probability > best.0 {
                    chosen.push(i);
                    chosen.sort_unstable();
                    best = (probability, chosen.clone());
                    threshold = stopping_threshold(k, probability);
                }
            }
        }

        total_mass += p;
        let group = &mut groups[g];
        group.mass += p;
        if own.forced {
            continue;
        }
        if own.best != UNSEEN {
            open.remove(&own.key(table));
            log_left -= own.left.ln();
        }
        if includable && (own.best == UNSEEN || p > table.tuple(own.best).prob()) {
            group.best = i;
        }
        group.left = 1.0 - own.mass - p;
        if includable && group.left > 0.0 {
            open.insert(group.key(table));
            log_left += group.left.ln();
        } else {
            group.forced = true;
            forced.push(g);
        }
    }

    let (probability, positions) = best;
    if positions.is_empty() {
        return Ok(None);
    }
    let score = positions
        .iter()
        .fold(0.0, |sum, &pos| sum + table.tuple(pos).score());
    let ids = positions.iter().map(|&pos| table.tuple(pos).id()).collect();
    Ok(Some(UTopkAnswer {
        vector: TopkVector::new(ids, score, probability),
        expansions: evaluated as u64,
        deepest_position: evaluated - 1,
    }))
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
        // The threshold is never reached on seven rows: the pass reads all.
        assert_eq!((answer.expansions, answer.deepest_position), (7, 6));
    }

    #[test]
    fn u_top1_is_the_certain_tuple() {
        // T5 has probability 1 but score 56; the top-1 is T5 only when every
        // higher-scored tuple is absent. Check the pass against brute force
        // via the exhaustive baseline.
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

        // 40 tuples in 20 two-member groups: no world holds 21 tuples.
        let mut builder = UncertainTable::builder();
        for id in 0..40u64 {
            builder = builder.tuple(id, id as f64, 0.5).unwrap();
        }
        for pair in 0..20u64 {
            builder = builder.me_rule([2 * pair, 2 * pair + 1]);
        }
        let table = builder.build().unwrap();
        assert_eq!(table.group_count(), 20);
        assert!(u_topk(&table, 21, &UTopkConfig::default())
            .unwrap()
            .is_none());
    }

    #[test]
    fn rejects_k_zero() {
        assert!(u_topk(&soldier_table(), 0, &UTopkConfig::default()).is_err());
    }

    #[test]
    fn search_does_not_scan_past_what_it_needs() {
        // With certain tuples at the top, the pass must stop after roughly
        // k positions.
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

    /// The U-Top2 ids of `(id, score, probability)` rows with the given ME
    /// rules.
    fn u_top2_ids(rows: &[(u64, f64, f64)], rules: &[&[u64]]) -> Vec<u64> {
        let mut builder = UncertainTable::builder();
        for &(id, score, prob) in rows {
            builder = builder.tuple(id, score, prob).unwrap();
        }
        for rule in rules {
            builder = builder.me_rule(rule.iter().copied());
        }
        let answer = u_topk(&builder.build().unwrap(), 2, &UTopkConfig::default())
            .unwrap()
            .unwrap();
        answer.vector.ids().iter().map(|id| id.raw()).collect()
    }

    #[test]
    fn ties_go_to_the_earliest_ranked_tuples() {
        // <1, 2> and <1, 3> both have probability 0.5: the earliest last
        // position wins.
        let rows = [(1, 3.0, 1.0), (2, 2.0, 0.5), (3, 1.0, 0.5)];
        assert_eq!(u_top2_ids(&rows, &[&[2, 3]]), [1, 2]);
        // Ending at 3, tuples 1 and 2 have equal ratios 0.4 / 0.6: <1, 3>
        // is chosen over <2, 3> (both 0.24, above <1, 2>'s 0.16).
        let rows = [(1, 3.0, 0.4), (2, 2.0, 0.4), (3, 1.0, 1.0)];
        assert_eq!(u_top2_ids(&rows, &[]), [1, 3]);
        // Members 1 and 2 of one group are equally probable: the earlier
        // one is the group's best.
        assert_eq!(u_top2_ids(&rows, &[&[1, 2]]), [1, 3]);
    }
}
