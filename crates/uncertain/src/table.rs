//! Uncertain tables: rank-ordered uncertain tuples plus mutual-exclusion rules.

use std::collections::HashMap;
use std::ops::Range;

use crate::error::{Error, Result};
use crate::tuple::{TupleId, UncertainTuple};

/// An uncertain table in the tuple-independent / disjoint (x-relation) model.
///
/// The table owns a set of [`UncertainTuple`]s and a partition of those tuples
/// into *mutual-exclusion (ME) groups*: at most one tuple of a group may
/// appear in any possible world, and the probabilities of a group's members
/// sum to at most one (the remaining mass is the probability that no member
/// appears). Tuples that are not mentioned in any ME rule form singleton
/// groups and are independent of everything else.
///
/// After construction the tuples are stored in *rank order*: descending by
/// score, then descending by probability, then ascending by id. This is the
/// order required by every algorithm in the workspace (the probability
/// component implements the tie-handling rule of §3.4 of the paper).
/// Positions (`usize` indexes into that order) are the working currency of
/// the algorithms; [`TupleId`]s map results back to application data.
#[derive(Debug, Clone)]
pub struct UncertainTable {
    tuples: Vec<UncertainTuple>,
    /// Position → index of the ME group that contains it.
    group_of: Vec<usize>,
    /// ME group index → member positions in ascending (rank) order.
    groups: Vec<Vec<usize>>,
    /// Tuple id → position.
    id_to_pos: HashMap<u64, usize>,
}

/// Builder for [`UncertainTable`].
#[derive(Debug, Default, Clone)]
pub struct UncertainTableBuilder {
    tuples: Vec<UncertainTuple>,
    rules: Vec<Vec<TupleId>>,
}

impl UncertainTableBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one uncertain tuple.
    pub fn tuple(mut self, id: impl Into<TupleId>, score: f64, probability: f64) -> Result<Self> {
        self.tuples
            .push(UncertainTuple::new(id, score, probability)?);
        Ok(self)
    }

    /// Adds an already-constructed tuple.
    pub fn push(&mut self, tuple: UncertainTuple) -> &mut Self {
        self.tuples.push(tuple);
        self
    }

    /// Adds many tuples at once.
    pub fn tuples<I: IntoIterator<Item = UncertainTuple>>(mut self, iter: I) -> Self {
        self.tuples.extend(iter);
        self
    }

    /// Declares a mutual-exclusion rule over the given tuple ids: at most one
    /// of them may exist in a possible world.
    pub fn me_rule<I, T>(mut self, ids: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<TupleId>,
    {
        self.rules.push(ids.into_iter().map(Into::into).collect());
        self
    }

    /// Declares a mutual-exclusion rule (by-reference variant).
    pub fn add_me_rule<I, T>(&mut self, ids: I) -> &mut Self
    where
        I: IntoIterator<Item = T>,
        T: Into<TupleId>,
    {
        self.rules.push(ids.into_iter().map(Into::into).collect());
        self
    }

    /// Validates the declarations and builds the table.
    pub fn build(self) -> Result<UncertainTable> {
        UncertainTable::new(self.tuples, self.rules)
    }
}

impl UncertainTable {
    /// Returns a new builder.
    pub fn builder() -> UncertainTableBuilder {
        UncertainTableBuilder::new()
    }

    /// Builds a table of fully independent tuples (every tuple is its own ME
    /// group).
    pub fn from_tuples<I: IntoIterator<Item = UncertainTuple>>(tuples: I) -> Result<Self> {
        Self::new(tuples.into_iter().collect(), Vec::new())
    }

    /// Builds a table from tuples and mutual-exclusion rules (each rule lists
    /// the tuple ids of one ME group).
    pub fn new(mut tuples: Vec<UncertainTuple>, rules: Vec<Vec<TupleId>>) -> Result<Self> {
        // Detect duplicate ids before sorting so the error is deterministic.
        {
            let mut seen = HashMap::with_capacity(tuples.len());
            for t in &tuples {
                if seen.insert(t.id().raw(), ()).is_some() {
                    return Err(Error::DuplicateTupleId(t.id().raw()));
                }
            }
        }

        tuples.sort_by_key(|t| t.rank_key());

        let mut id_to_pos = HashMap::with_capacity(tuples.len());
        for (pos, t) in tuples.iter().enumerate() {
            id_to_pos.insert(t.id().raw(), pos);
        }

        // Assign ME groups. `usize::MAX` marks "not yet grouped".
        let mut group_of = vec![usize::MAX; tuples.len()];
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (rule_idx, rule) in rules.iter().enumerate() {
            let mut members = Vec::with_capacity(rule.len());
            for id in rule {
                let pos = *id_to_pos
                    .get(&id.raw())
                    .ok_or(Error::UnknownTupleId(id.raw()))?;
                if group_of[pos] != usize::MAX {
                    return Err(Error::TupleInMultipleGroups(id.raw()));
                }
                group_of[pos] = groups.len();
                members.push(pos);
            }
            if members.is_empty() {
                continue;
            }
            members.sort_unstable();
            let sum: f64 = members.iter().map(|&p| tuples[p].prob()).sum();
            if sum > 1.0 + 1e-6 {
                return Err(Error::GroupProbabilityExceedsOne {
                    group: rule_idx,
                    sum,
                });
            }
            groups.push(members);
        }
        // Singleton groups for everything not mentioned in a rule.
        for (pos, slot) in group_of.iter_mut().enumerate() {
            if *slot == usize::MAX {
                *slot = groups.len();
                groups.push(vec![pos]);
            }
        }

        Ok(UncertainTable {
            tuples,
            group_of,
            groups,
            id_to_pos,
        })
    }

    /// Assembles a table whose invariants (rank order, consistent group
    /// indexes, id map) have already been established by the caller — used by
    /// the streaming-prefix constructor in [`crate::source`].
    pub(crate) fn from_parts(
        tuples: Vec<UncertainTuple>,
        group_of: Vec<usize>,
        groups: Vec<Vec<usize>>,
        id_to_pos: HashMap<u64, usize>,
    ) -> Self {
        debug_assert_eq!(tuples.len(), group_of.len());
        UncertainTable {
            tuples,
            group_of,
            groups,
            id_to_pos,
        }
    }

    /// Number of tuples in the table.
    #[inline]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when the table has no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The tuples in rank order (score desc, probability desc, id asc).
    #[inline]
    pub fn tuples(&self) -> &[UncertainTuple] {
        &self.tuples
    }

    /// The tuple at rank position `pos`.
    #[inline]
    pub fn tuple(&self, pos: usize) -> &UncertainTuple {
        &self.tuples[pos]
    }

    /// The rank position of the tuple with the given id, if present.
    pub fn position(&self, id: impl Into<TupleId>) -> Option<usize> {
        self.id_to_pos.get(&id.into().raw()).copied()
    }

    /// Number of mutual-exclusion groups (singletons included).
    #[inline]
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Index of the ME group containing the tuple at `pos`.
    #[inline]
    pub fn group_index(&self, pos: usize) -> usize {
        self.group_of[pos]
    }

    /// Member positions (rank order) of group `group`.
    #[inline]
    pub fn group_positions(&self, group: usize) -> &[usize] {
        &self.groups[group]
    }

    /// Member positions of the group containing the tuple at `pos`.
    #[inline]
    pub fn group_members(&self, pos: usize) -> &[usize] {
        &self.groups[self.group_of[pos]]
    }

    /// Total membership probability of the group `group`.
    pub fn group_total_probability(&self, group: usize) -> f64 {
        self.groups[group]
            .iter()
            .map(|&p| self.tuples[p].prob())
            .sum()
    }

    /// Number of tuples that are mutually exclusive with at least one other
    /// tuple (the quantity `m` in the O(kmn) complexity of §3.3.3).
    pub fn me_tuple_count(&self) -> usize {
        self.groups
            .iter()
            .filter(|g| g.len() > 1)
            .map(|g| g.len())
            .sum()
    }

    /// Fraction of tuples that are mutually exclusive with another tuple.
    pub fn me_tuple_portion(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.me_tuple_count() as f64 / self.len() as f64
        }
    }

    /// True when the tuple at `pos` is a *lead tuple*: the highest-ranked
    /// member of its ME group (singleton tuples are always lead tuples).
    #[inline]
    pub fn is_lead(&self, pos: usize) -> bool {
        self.group_members(pos)[0] == pos
    }

    /// Maximal contiguous runs of lead tuples, in rank order (the *lead tuple
    /// regions* of §3.3.3). Every position of the table belongs either to
    /// exactly one returned region or to no region (non-lead tuples).
    pub fn lead_regions(&self) -> Vec<Range<usize>> {
        let mut regions = Vec::new();
        let mut start = None;
        for pos in 0..self.len() {
            if self.is_lead(pos) {
                if start.is_none() {
                    start = Some(pos);
                }
            } else if let Some(s) = start.take() {
                regions.push(s..pos);
            }
        }
        if let Some(s) = start {
            regions.push(s..self.len());
        }
        regions
    }

    /// Maximal runs of equal-score tuples, in rank order (*tie groups*,
    /// §2.3). Tuples with a unique score form a tie group of size one.
    pub fn tie_groups(&self) -> Vec<Range<usize>> {
        let mut groups = Vec::new();
        let mut start = 0;
        for pos in 1..=self.len() {
            if pos == self.len() || self.tuples[pos].score() != self.tuples[start].score() {
                groups.push(start..pos);
                start = pos;
            }
        }
        groups
    }

    /// End position (exclusive) of the tie group containing `pos`.
    pub fn tie_group_end(&self, pos: usize) -> usize {
        let score = self.tuples[pos].score();
        let mut end = pos + 1;
        while end < self.len() && self.tuples[end].score() == score {
            end += 1;
        }
        end
    }

    /// The quantity μ of Theorem 2 for the tuple at `pos`: the sum of the
    /// membership probabilities of all tuples ranked higher than `pos`,
    /// excluding the members of `pos`'s own ME group.
    pub fn mu(&self, pos: usize) -> f64 {
        let own_group = self.group_of[pos];
        self.tuples[..pos]
            .iter()
            .enumerate()
            .filter(|(p, _)| self.group_of[*p] != own_group)
            .map(|(_, t)| t.prob())
            .sum()
    }

    /// Sum of the scores of the `k` highest-ranked tuples (the maximum
    /// possible top-k total score, `s_max` of §3.2.1). Returns `None` when
    /// the table has fewer than `k` tuples.
    pub fn max_topk_score(&self, k: usize) -> Option<f64> {
        if k == 0 || k > self.len() {
            return None;
        }
        Some(self.tuples[..k].iter().map(|t| t.score()).sum())
    }

    /// Sum of the scores of the `k` lowest-ranked tuples (the minimum
    /// possible top-k total score, `s_min` of §3.2.1). Returns `None` when
    /// the table has fewer than `k` tuples.
    pub fn min_topk_score(&self, k: usize) -> Option<f64> {
        if k == 0 || k > self.len() {
            return None;
        }
        Some(
            self.tuples[self.len() - k..]
                .iter()
                .map(|t| t.score())
                .sum(),
        )
    }

    /// Returns a new table containing only the `n` highest-ranked tuples.
    /// ME groups are truncated accordingly (members beyond the prefix are
    /// dropped), mirroring the truncation step of §3.3.2.
    pub fn truncate(&self, n: usize) -> UncertainTable {
        let n = n.min(self.len());
        let tuples: Vec<UncertainTuple> = self.tuples[..n].to_vec();
        let rules: Vec<Vec<TupleId>> = self
            .groups
            .iter()
            .map(|g| {
                g.iter()
                    .filter(|&&p| p < n)
                    .map(|&p| self.tuples[p].id())
                    .collect::<Vec<_>>()
            })
            .filter(|g: &Vec<TupleId>| g.len() > 1)
            .collect();
        UncertainTable::new(tuples, rules)
            .expect("truncating a valid table always yields a valid table")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soldier_table() -> UncertainTable {
        // The table of Figure 1 of the paper.
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
    fn tuples_are_rank_ordered() {
        let t = soldier_table();
        let ids: Vec<u64> = t.tuples().iter().map(|x| x.id().raw()).collect();
        // Scores: T7=125, T3=110, T4=80, T2=60, T6=58, T5=56, T1=49.
        assert_eq!(ids, vec![7, 3, 4, 2, 6, 5, 1]);
        assert_eq!(t.position(7u64), Some(0));
        assert_eq!(t.position(1u64), Some(6));
        assert_eq!(t.position(99u64), None);
    }

    #[test]
    fn groups_are_tracked_by_position() {
        let t = soldier_table();
        let p7 = t.position(7u64).unwrap();
        let p2 = t.position(2u64).unwrap();
        let p4 = t.position(4u64).unwrap();
        assert_eq!(t.group_index(p7), t.group_index(p2));
        assert_eq!(t.group_index(p7), t.group_index(p4));
        assert_eq!(t.group_members(p7).len(), 3);
        let p5 = t.position(5u64).unwrap();
        assert_eq!(t.group_members(p5), &[p5]);
        assert_eq!(t.me_tuple_count(), 5);
        assert!((t.me_tuple_portion() - 5.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn group_probability_sums_validated() {
        let r = UncertainTable::builder()
            .tuple(1u64, 10.0, 0.7)
            .unwrap()
            .tuple(2u64, 9.0, 0.6)
            .unwrap()
            .me_rule([1u64, 2])
            .build();
        assert!(matches!(r, Err(Error::GroupProbabilityExceedsOne { .. })));
    }

    #[test]
    fn duplicate_and_unknown_ids_rejected() {
        let r = UncertainTable::builder()
            .tuple(1u64, 10.0, 0.7)
            .unwrap()
            .tuple(1u64, 9.0, 0.2)
            .unwrap()
            .build();
        assert!(matches!(r, Err(Error::DuplicateTupleId(1))));

        let r = UncertainTable::builder()
            .tuple(1u64, 10.0, 0.7)
            .unwrap()
            .me_rule([1u64, 5])
            .build();
        assert!(matches!(r, Err(Error::UnknownTupleId(5))));

        let r = UncertainTable::builder()
            .tuple(1u64, 10.0, 0.2)
            .unwrap()
            .tuple(2u64, 9.0, 0.2)
            .unwrap()
            .tuple(3u64, 8.0, 0.2)
            .unwrap()
            .me_rule([1u64, 2])
            .me_rule([2u64, 3])
            .build();
        assert!(matches!(r, Err(Error::TupleInMultipleGroups(2))));
    }

    #[test]
    fn lead_tuples_and_regions() {
        let t = soldier_table();
        // Rank order: T7 T3 T4 T2 T6 T5 T1.
        // Groups: {T7,T4,T2} lead=T7; {T3,T6} lead=T3; singletons T5, T1.
        let lead: Vec<bool> = (0..t.len()).map(|p| t.is_lead(p)).collect();
        assert_eq!(lead, vec![true, true, false, false, false, true, true]);
        assert_eq!(t.lead_regions(), vec![0..2, 5..7]);
    }

    #[test]
    fn tie_groups_detected() {
        let t = UncertainTable::builder()
            .tuple(1u64, 10.0, 0.5)
            .unwrap()
            .tuple(2u64, 8.0, 0.3)
            .unwrap()
            .tuple(3u64, 8.0, 0.2)
            .unwrap()
            .tuple(4u64, 8.0, 0.1)
            .unwrap()
            .tuple(5u64, 7.0, 0.5)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(t.tie_groups(), vec![0..1, 1..4, 4..5]);
        assert_eq!(t.tie_group_end(1), 4);
        assert_eq!(t.tie_group_end(0), 1);
    }

    #[test]
    fn mu_excludes_own_group() {
        let t = soldier_table();
        // For T2 (position 3), higher ranked are T7, T3, T4; T7 and T4 share
        // T2's group so only T3 (0.4) counts.
        let p2 = t.position(2u64).unwrap();
        assert!((t.mu(p2) - 0.4).abs() < 1e-12);
        // For T6 (position 4), higher ranked are T7, T3, T4, T2; T3 shares
        // T6's group, so 0.3 + 0.3 + 0.4 = 1.0.
        let p6 = t.position(6u64).unwrap();
        assert!((t.mu(p6) - 1.0).abs() < 1e-12);
        assert_eq!(t.mu(0), 0.0);
    }

    #[test]
    fn score_span_helpers() {
        let t = soldier_table();
        assert_eq!(t.max_topk_score(2), Some(235.0));
        assert_eq!(t.min_topk_score(2), Some(105.0));
        assert_eq!(t.max_topk_score(0), None);
        assert_eq!(t.max_topk_score(8), None);
    }

    #[test]
    fn truncation_preserves_prefix_and_groups() {
        let t = soldier_table();
        let tr = t.truncate(4); // keeps T7 T3 T4 T2
        assert_eq!(tr.len(), 4);
        let p7 = tr.position(7u64).unwrap();
        assert_eq!(tr.group_members(p7).len(), 3); // T7, T4, T2 all kept
        let tr2 = t.truncate(2); // keeps T7 T3 only
        assert_eq!(tr2.len(), 2);
        assert_eq!(tr2.group_members(0), &[0]); // T7 group truncated to itself
                                                // Truncating beyond the length is a no-op.
        assert_eq!(t.truncate(100).len(), 7);
    }

    #[test]
    fn from_tuples_builds_independent_table() {
        let t = UncertainTable::from_tuples(vec![
            UncertainTuple::new(1u64, 5.0, 0.5).unwrap(),
            UncertainTuple::new(2u64, 3.0, 0.5).unwrap(),
        ])
        .unwrap();
        assert_eq!(t.group_count(), 2);
        assert_eq!(t.me_tuple_count(), 0);
        let regions = t.lead_regions();
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0], 0..2);
    }
}
