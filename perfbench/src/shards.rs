//! `remote-shards`: two `ttk serve-shard` children serve the 1,971-row
//! relation split in two; one client runs `Session::execute` over a
//! `RemoteShardDataset`. Half the queries use the scan-gate pushdown (U-Topk
//! off); the other half stream everything (U-Topk on announces k = 0).

use std::time::{Duration, Instant};

use ttk_core::{answer_hash, ConnectOptions, Dataset, RemoteShardDataset, Session, TopkQuery};
use ttk_pdb::{parse_expression, CsvDataset, CsvOptions, ShardImportOptions};

use crate::layers::{self, Counts, Input};
use crate::trace::Tracer;
use crate::util::{
    cartel_area, cartel_relation, ms, peak_rss_mb, quantile, split_round_robin, whole_cycles_left,
    write_csv, Daemon, Report, Rng, WorkDir, SCORE_EXPR,
};
use crate::{Opts, SETUPS};

/// The relation: 600 segments of area seed 9 (1,971 rows), in two shards.
const SEGMENTS: usize = 600;
const AREA_SEED: u64 = 9;
const SHARDS: usize = 2;

/// One cycle of 16 queries at k ∈ {2, 3}: ten gated (U-Topk off) and six
/// full-stream (U-Topk on). Gated queries answer in tens of milliseconds and
/// full-stream ones in well over a hundred, so with five eighths gated the
/// median sits inside the gated block and the 90th percentile inside the
/// full-stream block, away from the edge between them.
const CYCLE: [(usize, bool); 16] = [
    (2, false),
    (2, false),
    (2, false),
    (2, false),
    (2, false),
    (3, false),
    (3, false),
    (3, false),
    (3, false),
    (3, false),
    (2, true),
    (2, true),
    (2, true),
    (3, true),
    (3, true),
    (3, true),
];

/// The distinct shapes of the cycle.
const SHAPES: [(usize, bool); 4] = [(2, false), (3, false), (2, true), (3, true)];

fn query(shape: (usize, bool)) -> TopkQuery {
    TopkQuery::new(shape.0).with_u_topk(shape.1)
}

struct Setup {
    daemons: Vec<Daemon>,
    dataset: Dataset,
}

/// Generates and writes the shards, starts one daemon per shard, and
/// answers a first query across both.
fn setup(opts: &Opts, work: &WorkDir) -> Setup {
    let relation = cartel_relation(&cartel_area(SEGMENTS, AREA_SEED));
    let mut id_base = 0;
    let mut daemons = Vec::with_capacity(SHARDS);
    for (index, shard) in split_round_robin(&relation, SHARDS).iter().enumerate() {
        let path = work.path(&format!("shard{index}.csv"));
        write_csv(&path, shard);
        let args: Vec<String> = vec![
            "serve-shard".to_string(),
            path.display().to_string(),
            "--score".to_string(),
            SCORE_EXPR.to_string(),
            "--id-base".to_string(),
            id_base.to_string(),
        ];
        daemons.push(Daemon::start(
            &opts.ttk,
            &args,
            work.path(&format!("port{index}")),
            work.path(&format!("shard{index}.log")),
        ));
        id_base += shard.rows().len();
    }
    let dataset = RemoteShardDataset::new(daemons.iter().map(|d| d.addr.clone()))
        .with_connect_options(ConnectOptions::default().with_timeout(Duration::from_secs(30)))
        .into_dataset();
    Session::new()
        .execute(&dataset, &query((2, false)))
        .expect("first query");
    Setup { daemons, dataset }
}

pub fn run(opts: &Opts, report: &mut Report) {
    let work = WorkDir::new(&opts.work_dir, "remote-shards");
    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept: Option<Setup> = None;
    for _ in 0..SETUPS {
        // Stop the previous set-up's daemons before timing the next one.
        drop(kept.take());
        let start = Instant::now();
        kept = Some(setup(opts, &work));
        setups.push(start.elapsed().as_secs_f64());
    }
    let Setup { daemons, dataset } = kept.expect("at least one set-up");

    // The reference: the same shard files imported in process, with the
    // servers' id placement and hashed group keys.
    let expr = parse_expression(SCORE_EXPR).expect("valid score expression");
    let import_start = Instant::now();
    let local = CsvDataset::from_shard_paths(
        (0..SHARDS).map(|i| work.path(&format!("shard{i}.csv"))),
        CsvOptions::default(),
        expr,
    )
    .with_import(ShardImportOptions {
        first_tuple_id: 0,
        hashed_group_keys: true,
    });
    local.warm().expect("import the shards");
    let import_ms = ms(import_start.elapsed());
    let local = local.into_dataset();
    let mut session = Session::new();
    let expected: Vec<((usize, bool), u64)> = SHAPES
        .iter()
        .map(|&shape| {
            let answer = session
                .execute(&local, &query(shape))
                .expect("reference query");
            (shape, answer_hash(&answer))
        })
        .collect();
    let expected = |shape: (usize, bool)| {
        expected
            .iter()
            .find(|(s, _)| *s == shape)
            .map(|(_, hash)| *hash)
            .expect("every shape has a reference")
    };

    let mut rng = Rng::new(opts.seed);
    let mut ops = Vec::new();
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
        let mut cycle = CYCLE;
        rng.shuffle(&mut cycle);
        let cycle_start = Instant::now();
        for shape in cycle {
            let t = Instant::now();
            let result = session.execute(&dataset, &query(shape));
            latencies.push(ms(t.elapsed()));
            report.attempted += 1;
            match result {
                Ok(answer) if answer_hash(&answer) == expected(shape) => {}
                Ok(_) => report.fail(format!("{shape:?}: answer differs from the local shards")),
                Err(e) => report.fail(format!("{shape:?}: {e}")),
            }
            ops.push(shape);
        }
        cycle_rates.push(CYCLE.len() as f64 / cycle_start.elapsed().as_secs_f64());
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

    let mut tracer = Tracer::new();
    let mut counts: Vec<Counts> = Vec::with_capacity(ops.len());
    let traced_start = Instant::now();
    for &shape in &ops {
        tracer.begin_op();
        report.attempted += 1;
        match layers::replay(&mut tracer, &Input::Dataset(&dataset), &query(shape)) {
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
    drop(daemons);
    layers::layer_metrics(report, &tracer, &counts);
    layers::tracing_metrics(report, &tracer, elapsed, traced, &latencies);
    report.metric("import.ms", import_ms, "ms");
    crate::trace::log_self_times(&tracer);
    let _ = tracer.write_tsv(
        &opts
            .work_dir
            .join(format!("spans-remote-shards-{}.tsv", opts.seed)),
    );
}
