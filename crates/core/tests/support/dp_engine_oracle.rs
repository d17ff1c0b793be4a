//! Scalar references for the main dynamic program, written point at a time
//! on [`ScoreDistribution`]: the exclude branch is `shifted_scaled(0.0, p,
//! None)`, every include branch is `merge_from(below.shifted_scaled(score,
//! p, id))`, and each cell is coalesced with [`ScoreDistribution::coalesce`].
//! Every witness owns its id vector and every step clones.
//!
//! - [`run_forward`] is the forward recurrence. The library's columnar
//!   `dp::engine::run` performs the same float operations in the same order
//!   and keeps the same witnesses, so it must match bit for bit.
//! - [`run`] is the bottom-up recurrence, and [`topk_score_distribution`]
//!   the per-segment driver on top of it: one bottom-up run per ending
//!   segment over every row ranked above it, merged in segment order. The
//!   library's driver produced exactly this output before it folded the
//!   closed ME groups once per worker; the forward driver is checked against
//!   it within tolerances, not bit for bit.

use std::collections::HashMap;
use std::ops::Range;

use ttk_core::dp::engine::{DpRow, EngineConfig};
use ttk_core::dp::{MainConfig, MeStrategy};
use ttk_core::scan_depth::scan_depth;
use ttk_uncertain::{ScoreDistribution, TupleId, UncertainTable, VectorWitness};

/// The unit cell: score 0, probability 1, the empty witness when tracked.
fn unit(config: &EngineConfig) -> ScoreDistribution {
    if config.track_witnesses {
        ScoreDistribution::unit()
    } else {
        ScoreDistribution::singleton(0.0, 1.0, None)
    }
}

/// A row's include branches.
fn branches(row: &DpRow) -> Vec<(TupleId, f64, f64)> {
    match row {
        DpRow::Simple { id, score, prob } => vec![(*id, *score, *prob)],
        DpRow::Rule { branches } => branches.clone(),
    }
}

/// Merges `below`, shifted by each branch's score and scaled by its
/// probability, into `cell`, then coalesces `cell`.
fn include(
    cell: &mut ScoreDistribution,
    below: &ScoreDistribution,
    branches: &[(TupleId, f64, f64)],
    config: &EngineConfig,
) {
    for &(id, score, prob) in branches {
        let prepend = config.track_witnesses.then_some(id);
        cell.merge_from(&below.shifted_scaled(score, prob, prepend));
    }
    if config.max_lines > 0 {
        cell.coalesce(config.max_lines, config.coalesce_policy);
    }
}

/// The distribution of the total score of top-`k` selections over `rows`,
/// ending only at rows whose exit flag is set: the bottom-up recurrence.
pub fn run(rows: &[DpRow], exits: &[bool], k: usize, config: &EngineConfig) -> ScoreDistribution {
    assert_eq!(rows.len(), exits.len(), "one exit flag per row");
    if k == 0 || rows.is_empty() {
        return ScoreDistribution::empty();
    }
    let unit = unit(config);
    // `current[j]` is D_{i+1, j}; column 0 is the blocked exit (empty).
    let mut current = vec![ScoreDistribution::empty(); k + 1];
    for i in (0..rows.len()).rev() {
        let branches = branches(&rows[i]);
        let mut next = vec![ScoreDistribution::empty(); k + 1];
        for j in 1..=k {
            let mut cell = current[j].shifted_scaled(0.0, rows[i].exclude_probability(), None);
            let below = match j {
                1 if exits[i] => &unit,
                1 => &current[0],
                _ => &current[j - 1],
            };
            include(&mut cell, below, &branches, config);
            next[j] = cell;
        }
        current = next;
    }
    std::mem::take(&mut current[k])
}

/// The same distribution as [`run`], by the forward recurrence: `cells[j]`
/// holds "exactly j of the rows so far are present", and before an exit row
/// is applied its branches add `p · shift(cells[k - 1])` into the answer.
/// Witness ids come out in row order.
pub fn run_forward(
    rows: &[DpRow],
    exits: &[bool],
    k: usize,
    config: &EngineConfig,
) -> ScoreDistribution {
    assert_eq!(rows.len(), exits.len(), "one exit flag per row");
    if k == 0 || rows.is_empty() {
        return ScoreDistribution::empty();
    }
    let mut cells = vec![ScoreDistribution::empty(); k];
    cells[0] = unit(config);
    let mut answer = ScoreDistribution::empty();
    for (i, row) in rows.iter().enumerate() {
        let branches = branches(row);
        if exits[i] {
            include(&mut answer, &cells[k - 1], &branches, config);
        }
        if i + 1 == rows.len() {
            break;
        }
        let exclude = row.exclude_probability();
        for j in (1..k).rev() {
            let mut cell = cells[j].shifted_scaled(0.0, exclude, None);
            include(&mut cell, &cells[j - 1], &branches, config);
            cells[j] = cell;
        }
        cells[0] = cells[0].shifted_scaled(0.0, exclude, None);
    }
    // Every include prepended its row, so the ids list the last row first.
    let mut points = answer.points().to_vec();
    for witness in points.iter_mut().filter_map(|point| point.witness.as_mut()) {
        witness.ids.reverse();
    }
    ScoreDistribution::from_points(points)
}

/// The top-`k` score distribution of `table` by the per-segment driver: the
/// Theorem-2 prefix, one bottom-up [`run`] per ending segment, merged (and
/// coalesced) in segment order, witnesses in rank order.
pub fn topk_score_distribution(
    table: &UncertainTable,
    k: usize,
    config: &MainConfig,
) -> ScoreDistribution {
    let depth = scan_depth(table, k, config.p_tau).unwrap();
    let working = table.truncate(depth);
    if working.len() < k {
        return ScoreDistribution::empty();
    }
    let engine = EngineConfig {
        max_lines: config.max_lines,
        coalesce_policy: config.coalesce_policy,
        track_witnesses: config.track_witnesses,
    };
    let mut distribution = ScoreDistribution::empty();
    for segment in build_segments(&working, config.me_strategy) {
        // A vector's last member sits at position ≥ k-1.
        if segment.end < k {
            continue;
        }
        let (rows, exits) = build_rows(&working, segment);
        distribution.merge_from(&run(&rows, &exits, k, &engine));
        if config.max_lines > 0 {
            distribution.coalesce(config.max_lines, config.coalesce_policy);
        }
    }
    restore_witness_rank_order(distribution, &working)
}

/// Decomposes positions `0..table.len()` into ending segments: maximal
/// lead-tuple regions and single non-lead tuples, or one per position.
fn build_segments(table: &UncertainTable, strategy: MeStrategy) -> Vec<Range<usize>> {
    match strategy {
        MeStrategy::PerEnding => (0..table.len()).map(|p| p..p + 1).collect(),
        MeStrategy::LeadRegions => {
            let mut segments = Vec::new();
            let mut run_start: Option<usize> = None;
            for pos in 0..table.len() {
                if table.is_lead(pos) {
                    if run_start.is_none() {
                        run_start = Some(pos);
                    }
                } else {
                    if let Some(s) = run_start.take() {
                        segments.push(s..pos);
                    }
                    segments.push(pos..pos + 1);
                }
            }
            if let Some(s) = run_start {
                segments.push(s..table.len());
            }
            segments
        }
    }
}

/// The rows and exit flags of one ending segment: every ME group with a
/// member ranked above the segment as one row of those members (a rule
/// tuple at its highest-ranked member, or a simple row), then one exit row
/// per segment position. A single non-lead ending tuple's own group gets no
/// row.
fn build_rows(table: &UncertainTable, segment: Range<usize>) -> (Vec<DpRow>, Vec<bool>) {
    let start = segment.start;
    let ending_group = if segment.len() == 1 && !table.is_lead(start) {
        Some(table.group_index(start))
    } else {
        None
    };

    let mut first_member: HashMap<usize, usize> = HashMap::new();
    let mut members_above: HashMap<usize, Vec<usize>> = HashMap::new();
    for pos in 0..start {
        let g = table.group_index(pos);
        if Some(g) == ending_group {
            continue;
        }
        first_member.entry(g).or_insert(pos);
        members_above.entry(g).or_default().push(pos);
    }

    let mut rows = Vec::with_capacity(start + segment.len());
    let mut exits = Vec::with_capacity(start + segment.len());
    for pos in 0..start {
        let g = table.group_index(pos);
        if Some(g) == ending_group || first_member.get(&g) != Some(&pos) {
            continue;
        }
        let members = &members_above[&g];
        if members.len() == 1 {
            let t = table.tuple(pos);
            rows.push(DpRow::Simple {
                id: t.id(),
                score: t.score(),
                prob: t.prob(),
            });
        } else {
            rows.push(DpRow::Rule {
                branches: members
                    .iter()
                    .map(|&p| {
                        let t = table.tuple(p);
                        (t.id(), t.score(), t.prob())
                    })
                    .collect(),
            });
        }
        exits.push(false);
    }
    for pos in segment {
        let t = table.tuple(pos);
        rows.push(DpRow::Simple {
            id: t.id(),
            score: t.score(),
            prob: t.prob(),
        });
        exits.push(true);
    }
    (rows, exits)
}

/// Re-sorts every witness vector into table rank order, rebuilding the
/// distribution line by line when any witness has two or more ids.
fn restore_witness_rank_order(
    distribution: ScoreDistribution,
    table: &UncertainTable,
) -> ScoreDistribution {
    let needs_fix = distribution
        .points()
        .iter()
        .any(|p| p.witness.as_ref().is_some_and(|w| w.ids.len() > 1));
    if !needs_fix {
        return distribution;
    }
    let mut rebuilt = ScoreDistribution::empty();
    for point in distribution.points() {
        let witness = point.witness.as_ref().map(|w| {
            let mut ids = w.ids.clone();
            ids.sort_by_key(|id| table.position(*id).unwrap_or(usize::MAX));
            VectorWitness {
                ids,
                probability: w.probability,
            }
        });
        rebuilt.add_mass(point.score, point.probability, witness);
    }
    rebuilt
}
