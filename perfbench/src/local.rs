//! `local-query`: the paper's queries through `Session::execute` in process,
//! one client in a closed loop. The DP and U-Topk do almost all the work;
//! no sockets or caches are involved.

use std::time::Instant;

use ttk_core::{answer_hash, Dataset, Session, TopkQuery};
use ttk_uncertain::UncertainTable;

use crate::layers::{self, Counts, Input};
use crate::trace::Tracer;
use crate::util::{cartel_area, ms, peak_rss_mb, quantile, whole_cycles_left, Report, Rng};
use crate::{Opts, SETUPS};

/// The two CarTel relations: 60 segments (199 rows) and 600 segments
/// (1,971 rows), both from area seed 9 as in `bench_smoke`.
const RELATIONS: [(usize, u64); 2] = [(60, 9), (600, 9)];

/// One query shape: relation index, k, and whether U-Topk runs (the
/// default `TopkQuery::new(k)` every `ttk query` issues) or not (the
/// distribution-only path the paper times).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Shape {
    relation: usize,
    k: usize,
    u_topk: bool,
}

impl Shape {
    fn query(&self) -> TopkQuery {
        TopkQuery::new(self.k).with_u_topk(self.u_topk)
    }
}

/// One cycle of the interleave: 40 queries, half distribution-only and half
/// CLI-shaped. Sorted by latency the blocks are 199 rows k = 3 (0–22.5 %),
/// 1,971 rows k = 3 (22.5–37.5 %), 199 rows k = 5 (37.5–67.5 %, holding
/// the median), 1,971 rows k = 5 (67.5–97.5 %, holding the 90th
/// percentile), then one CLI query at k = 10 on 1,971 rows. Up to k = 5 the
/// DP is nearly all of a query, so the percentiles follow the DP. The
/// k = 10 query is about three quarters U-Topk and most of the cycle's
/// time, so `queries_per_s` follows U-Topk: U-Topk is about 60 % of the
/// cycle, and a 2x change in it moves the rate by more than a quarter.
/// k = 10 on 199 rows is left out: a third of it is U-Topk, two thirds DP,
/// and its second of DP per cycle would dilute both signals.
const MIX: [(usize, usize, usize, usize); 5] = [
    // (relation, k, distribution-only count, CLI count)
    (0, 3, 5, 4),
    (1, 3, 3, 3),
    (0, 5, 6, 6),
    (1, 5, 6, 6),
    (1, 10, 0, 1),
];

fn shapes() -> Vec<Shape> {
    let mut shapes = Vec::new();
    for (relation, k, dist, cli) in MIX {
        for (count, u_topk) in [(dist, false), (cli, true)] {
            shapes.extend((0..count).map(|_| Shape {
                relation,
                k,
                u_topk,
            }));
        }
    }
    shapes
}

struct Inputs {
    tables: Vec<UncertainTable>,
    datasets: Vec<Dataset>,
}

/// Generates the relations and answers a first query.
fn setup() -> Inputs {
    let tables: Vec<UncertainTable> = RELATIONS
        .iter()
        .map(|&(segments, seed)| cartel_area(segments, seed).into_table())
        .collect();
    let datasets: Vec<Dataset> = tables.iter().cloned().map(Dataset::table).collect();
    Session::new()
        .execute(&datasets[0], &TopkQuery::new(3).with_u_topk(false))
        .expect("first query");
    Inputs { tables, datasets }
}

pub fn run(opts: &Opts, report: &mut Report) {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        inputs = Some(setup());
        setups.push(start.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");

    // Reference answers, one per distinct shape.
    let mut distinct: Vec<Shape> = Vec::new();
    for shape in shapes() {
        if !distinct.contains(&shape) {
            distinct.push(shape);
        }
    }
    let mut session = Session::new();
    let reference: Vec<(Shape, u64)> = distinct
        .iter()
        .map(|shape| {
            let answer = session
                .execute(&inputs.datasets[shape.relation], &shape.query())
                .expect("reference query");
            (*shape, answer_hash(&answer))
        })
        .collect();
    let expected = |shape: &Shape| {
        reference
            .iter()
            .find(|(s, _)| s == shape)
            .map(|(_, hash)| *hash)
            .expect("every shape has a reference")
    };

    // The closed loop: whole shuffled cycles until the window is spent and
    // there are enough queries for a p90.
    let mut rng = Rng::new(opts.seed);
    let mut ops: Vec<Shape> = Vec::new();
    let mut latencies = Vec::new();
    let mut cycle_rates = Vec::new();
    let window = opts.window();
    let start = Instant::now();
    while whole_cycles_left(
        start.elapsed(),
        cycle_rates.len(),
        latencies.len(),
        opts.min_queries(),
        window,
    ) {
        let mut cycle = shapes();
        rng.shuffle(&mut cycle);
        let cycle_start = Instant::now();
        for shape in cycle {
            let query = shape.query();
            let t = Instant::now();
            let result = session.execute(&inputs.datasets[shape.relation], &query);
            latencies.push(ms(t.elapsed()));
            report.attempted += 1;
            match result {
                Ok(answer) if answer_hash(&answer) == expected(&shape) => {}
                Ok(_) => report.fail(format!("{shape:?}: answer differs from the reference")),
                Err(e) => report.fail(format!("{shape:?}: {e}")),
            }
            ops.push(shape);
        }
        cycle_rates.push(shapes().len() as f64 / cycle_start.elapsed().as_secs_f64());
    }
    let elapsed = start.elapsed();

    if !opts.trace {
        report.metric("setup_s", quantile(&setups, 0.5), "s");
        report.metric("queries_per_s", quantile(&cycle_rates, 0.5), "1/s");
        report.metric("query_p50_ms", quantile(&latencies, 0.5), "ms");
        report.metric("query_p90_ms", quantile(&latencies, 0.9), "ms");
        report.metric("peak_rss_mb", peak_rss_mb("self"), "MB");
        return;
    }

    // Traced half: replay exactly the same operations layer by layer.
    let mut tracer = Tracer::new();
    let mut counts: Vec<Counts> = Vec::with_capacity(ops.len());
    let traced_start = Instant::now();
    for shape in &ops {
        tracer.begin_op();
        let input = Input::Table(&inputs.tables[shape.relation]);
        report.attempted += 1;
        match layers::replay(&mut tracer, &input, &shape.query()) {
            Ok((answer, c)) => {
                counts.push(c);
                if answer_hash(&answer) != expected(shape) {
                    report.fail(format!(
                        "{shape:?}: replayed answer differs from Session::execute"
                    ));
                }
            }
            Err(e) => report.fail(format!("{shape:?}: replay failed: {e}")),
        }
    }
    let traced = traced_start.elapsed();
    layers::layer_metrics(report, &tracer, &counts);
    layers::tracing_metrics(report, &tracer, elapsed, traced, &latencies);
    crate::trace::log_self_times(&tracer);
    let _ = tracer.write_tsv(
        &opts
            .work_dir
            .join(format!("spans-local-query-{}.tsv", opts.seed)),
    );
}
