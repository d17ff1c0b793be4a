//! Exhaustive possible-world baselines.
//!
//! These functions enumerate every possible world of a table and are the
//! ground truth against which the efficient algorithms are verified. Their
//! cost is exponential in the number of ME groups, so they are only suitable
//! for small tables (tests, toy examples and sanity checks in the benchmark
//! harness).

use std::collections::HashMap;

use ttk_uncertain::{
    PossibleWorlds, Result, ScoreDistribution, TupleId, UncertainTable, VectorWitness,
};

/// Computes the exact top-k score distribution *with witness vectors*: each
/// line carries the most probable single vector attaining that score, where a
/// vector's probability is the total mass of the worlds in which it is one of
/// the top-k vectors.
pub fn exhaustive_topk_distribution(
    table: &UncertainTable,
    k: usize,
    world_limit: u128,
) -> Result<ScoreDistribution> {
    let mut score_mass: Vec<(f64, f64)> = Vec::new();
    let mut vector_mass: HashMap<Vec<usize>, f64> = HashMap::new();
    for world in PossibleWorlds::new(table, world_limit)? {
        if world.probability <= 0.0 {
            continue;
        }
        let Some(score) = world.topk_score(table, k) else {
            continue;
        };
        match score_mass
            .iter_mut()
            .find(|(s, _)| ttk_uncertain::scores_equal(*s, score))
        {
            Some((_, p)) => *p += world.probability,
            None => score_mass.push((score, world.probability)),
        }
        for vector in world.topk_vectors(table, k) {
            *vector_mass.entry(vector).or_insert(0.0) += world.probability;
        }
    }

    // For each score, find the most probable vector attaining it.
    let mut best_vector_for_score: HashMap<u64, (Vec<usize>, f64)> = HashMap::new();
    for (vector, mass) in &vector_mass {
        let score: f64 = vector.iter().map(|&p| table.tuple(p).score()).sum();
        let key = score.to_bits();
        let entry = best_vector_for_score
            .entry(key)
            .or_insert((vector.clone(), *mass));
        if *mass > entry.1 {
            *entry = (vector.clone(), *mass);
        }
    }

    let mut dist = ScoreDistribution::empty();
    for (score, probability) in score_mass {
        let witness = best_vector_for_score
            .get(&score.to_bits())
            .map(|(v, p)| VectorWitness {
                ids: v.iter().map(|&pos| table.tuple(pos).id()).collect(),
                probability: *p,
            });
        dist.add_mass(score, probability, witness);
    }
    Ok(dist)
}

/// Computes the exact U-Topk answer by enumeration: the vector with the
/// highest probability of being *a* top-k vector, returned as
/// `(ids in rank order, probability)`. Returns `Ok(None)` when no world has
/// `k` tuples.
pub fn exhaustive_u_topk(
    table: &UncertainTable,
    k: usize,
    world_limit: u128,
) -> Result<Option<(Vec<TupleId>, f64)>> {
    let mut vector_mass: HashMap<Vec<usize>, f64> = HashMap::new();
    for world in PossibleWorlds::new(table, world_limit)? {
        if world.probability <= 0.0 {
            continue;
        }
        for vector in world.topk_vectors(table, k) {
            *vector_mass.entry(vector).or_insert(0.0) += world.probability;
        }
    }
    Ok(vector_mass
        .into_iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(positions, mass)| {
            (
                positions.iter().map(|&p| table.tuple(p).id()).collect(),
                mass,
            )
        }))
}

/// Probability that the tuple with the given id appears among the top-k in a
/// random possible world (its *top-k membership probability*, the quantity
/// the PT-k semantics thresholds).
pub fn exhaustive_topk_membership(
    table: &UncertainTable,
    id: impl Into<TupleId>,
    k: usize,
    world_limit: u128,
) -> Result<f64> {
    let Some(target) = table.position(id.into()) else {
        return Ok(0.0);
    };
    let mut mass = 0.0;
    for world in PossibleWorlds::new(table, world_limit)? {
        if world.probability <= 0.0 {
            continue;
        }
        // The tuple is in the top-k when its rank among present tuples is
        // within k (ties handled by rank order, consistently with the rest of
        // the workspace). Worlds with fewer than k tuples count as long as
        // the tuple exists, matching the PT-k membership semantics.
        if world.present.iter().take(k).any(|&p| p == target) {
            mass += world.probability;
        }
    }
    Ok(mass)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn distribution_with_witnesses_matches_figure_3() {
        let d = exhaustive_topk_distribution(&soldier_table(), 2, 1 << 20).unwrap();
        assert!((d.total_probability() - 1.0).abs() < 1e-9);
        let p118 = d
            .points()
            .iter()
            .find(|p| (p.score - 118.0).abs() < 1e-9)
            .unwrap();
        assert!((p118.probability - 0.2).abs() < 1e-9);
        assert_eq!(
            p118.witness.as_ref().unwrap().ids,
            vec![TupleId(2), TupleId(6)]
        );
    }

    #[test]
    fn u_topk_by_enumeration_is_t2_t6() {
        let (ids, prob) = exhaustive_u_topk(&soldier_table(), 2, 1 << 20)
            .unwrap()
            .unwrap();
        assert_eq!(ids, vec![TupleId(2), TupleId(6)]);
        assert!((prob - 0.2).abs() < 1e-9);
    }

    #[test]
    fn membership_probability_of_the_certain_tuple() {
        // T5 exists in every world; it is in the top-2 whenever at most one
        // higher-scored tuple appears.
        let table = soldier_table();
        let p = exhaustive_topk_membership(&table, 5u64, 2, 1 << 20).unwrap();
        assert!(p > 0.0 && p < 1.0);
        // Unknown tuples have zero membership probability.
        assert_eq!(
            exhaustive_topk_membership(&table, 999u64, 2, 1 << 20).unwrap(),
            0.0
        );
    }
}
