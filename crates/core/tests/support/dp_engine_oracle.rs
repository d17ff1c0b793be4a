//! The scalar dynamic program, kept as the reference the library's columnar
//! `dp::engine::run` must match bit for bit.
//!
//! It is the recurrence of §3.2 written point at a time on
//! [`ScoreDistribution`]: the exclude branch is `shifted_scaled(0.0, p,
//! None)`, every include branch is `merge_from(below.shifted_scaled(score,
//! p, id))`, and each cell is coalesced with [`ScoreDistribution::coalesce`].
//! Every witness owns its id vector and every step clones. The columnar
//! kernels are specified to perform the same float operations in the same
//! order, and to keep the same witnesses.

use ttk_core::dp::engine::{DpRow, EngineConfig};
use ttk_uncertain::ScoreDistribution;

/// The distribution of the total score of top-`k` selections over `rows`,
/// ending only at rows whose exit flag is set.
pub fn run(rows: &[DpRow], exits: &[bool], k: usize, config: &EngineConfig) -> ScoreDistribution {
    assert_eq!(rows.len(), exits.len(), "one exit flag per row");
    if k == 0 || rows.is_empty() {
        return ScoreDistribution::empty();
    }
    let unit = if config.track_witnesses {
        ScoreDistribution::unit()
    } else {
        ScoreDistribution::singleton(0.0, 1.0, None)
    };
    // `current[j]` is D_{i+1, j}; column 0 is the blocked exit (empty).
    let mut current = vec![ScoreDistribution::empty(); k + 1];
    for i in (0..rows.len()).rev() {
        let branches = match &rows[i] {
            DpRow::Simple { id, score, prob } => vec![(*id, *score, *prob)],
            DpRow::Rule { branches } => branches.clone(),
        };
        let mut next = vec![ScoreDistribution::empty(); k + 1];
        for j in 1..=k {
            let mut cell = current[j].shifted_scaled(0.0, rows[i].exclude_probability(), None);
            let below = match j {
                1 if exits[i] => &unit,
                1 => &current[0],
                _ => &current[j - 1],
            };
            for &(id, score, prob) in &branches {
                let prepend = config.track_witnesses.then_some(id);
                cell.merge_from(&below.shifted_scaled(score, prob, prepend));
            }
            if config.max_lines > 0 {
                cell.coalesce(config.max_lines, config.coalesce_policy);
            }
            next[j] = cell;
        }
        current = next;
    }
    std::mem::take(&mut current[k])
}
