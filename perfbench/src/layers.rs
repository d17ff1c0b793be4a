//! A query replayed layer by layer through the crates' public functions,
//! with a span around each call: the scan, the main DP on the collected
//! prefix, typical selection, and U-Topk — the same steps, in the same
//! order, as `Session::execute`.

use std::time::{Duration, Instant};

use ttk_core::baselines::{u_topk, UTopkConfig};
use ttk_core::dp::{topk_score_distribution, MainConfig, MeStrategy};
use ttk_core::{typical_topk, Dataset, QueryAnswer, RankScan, ScanGate, ScanSpec, TopkQuery};
use ttk_uncertain::{Result, TableSource, TupleSource, UncertainTable};

use crate::trace::Tracer;
use crate::util::{mean, Report};

/// What a replay can count from the layers' public results.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub depth: usize,
    pub pulled: usize,
    pub segments: usize,
    pub lines: usize,
    /// Tuples decoded off the wire (remote datasets only).
    pub tuples_received: Option<u64>,
}

/// Where the replayed query reads its tuples.
pub enum Input<'a> {
    /// An in-memory table: U-Topk searches it directly.
    Table(&'a UncertainTable),
    /// Any other dataset: opened for the query's scan; U-Topk drains the
    /// rest of the stream first.
    Dataset(&'a Dataset),
}

fn main_config(query: &TopkQuery) -> MainConfig {
    MainConfig {
        p_tau: query.p_tau,
        max_lines: query.max_lines,
        coalesce_policy: query.coalesce_policy,
        track_witnesses: true,
        me_strategy: MeStrategy::LeadRegions,
    }
}

/// Runs `query` (the main algorithm) against `input` one layer at a time,
/// recording spans `open`, `scan`, `dp`, `typical`, `drain_rest` and
/// `u_topk` under one `query` span.
pub fn replay(
    tracer: &mut Tracer,
    input: &Input<'_>,
    query: &TopkQuery,
) -> Result<(QueryAnswer, Counts)> {
    tracer.span("query", |tracer| match input {
        Input::Table(table) => {
            let mut source = TableSource::new(table);
            run(tracer, &mut source, query, Some(table), None)
        }
        Input::Dataset(dataset) => {
            let spec = ScanSpec::for_query(query);
            let mut handle = tracer.span("open", |_| dataset.open_for(&spec))?;
            let stats = handle.wire_stats().cloned();
            let (answer, mut counts) = run(tracer, &mut handle, query, None, Some(&spec))?;
            counts.tuples_received = stats.map(|stats| stats.tuples_received());
            Ok((answer, counts))
        }
    })
}

fn run(
    tracer: &mut Tracer,
    source: &mut dyn TupleSource,
    query: &TopkQuery,
    full_table: Option<&UncertainTable>,
    spec: Option<&ScanSpec>,
) -> Result<(QueryAnswer, Counts)> {
    let start = Instant::now();
    let mut gate = ScanGate::new(query.k, query.p_tau)?;
    gate.set_meter(spec.map(|spec| spec.meter.clone()));
    let prefix = tracer.span("scan", |_| {
        RankScan::new().collect_prefix(source, &mut gate)
    })?;
    let out = tracer.span("dp", |_| {
        topk_score_distribution(&prefix.table, query.k, &main_config(query))
    })?;
    let distribution_time = start.elapsed();
    let typical_start = Instant::now();
    let typical = tracer.span("typical", |_| {
        typical_topk(&out.distribution, query.typical_count)
    })?;
    let typical_time = typical_start.elapsed();
    let mut counts = Counts {
        depth: prefix.depth(),
        pulled: prefix.pulled,
        segments: out.segments,
        lines: out.distribution.len(),
        tuples_received: None,
    };
    let u_topk_answer = if query.compute_u_topk {
        match full_table {
            Some(table) => tracer.span("u_topk", |_| {
                u_topk(table, query.k, &UTopkConfig::default())
            })?,
            None => {
                let full = tracer.span("drain_rest", |_| prefix.into_full_table(source))?;
                counts.pulled = full.len();
                tracer.span("u_topk", |_| {
                    u_topk(&full, query.k, &UTopkConfig::default())
                })?
            }
        }
    } else {
        None
    };
    Ok((
        QueryAnswer {
            distribution: out.distribution,
            typical,
            u_topk: u_topk_answer,
            scan_depth: out.scan_depth,
            distribution_time,
            typical_time,
        },
        counts,
    ))
}

/// Per-layer metrics every traced workload reports, from its spans and
/// counts. Layers a workload does not reach read 0.
pub fn layer_metrics(report: &mut Report, tracer: &Tracer, counts: &[Counts]) {
    let sum = |name: &str| tracer.durations_ms(name).iter().sum::<f64>();
    let per = |name: &str| mean(&tracer.durations_ms(name));
    let n = counts.len().max(1) as f64;
    let segments: f64 = counts.iter().map(|c| c.segments as f64).sum();
    let depth: f64 = counts.iter().map(|c| c.depth as f64).sum();
    let pulled: f64 = counts.iter().map(|c| c.pulled as f64).sum();
    let received: Vec<f64> = counts
        .iter()
        .filter_map(|c| c.tuples_received.map(|t| t as f64))
        .collect();
    let received_depth: f64 = counts
        .iter()
        .filter(|c| c.tuples_received.is_some())
        .map(|c| c.depth as f64)
        .sum();
    report.metric("dp.ms", per("dp"), "ms");
    report.metric("dp.segments", segments / n, "count");
    report.metric(
        "dp.ms_per_segment",
        if segments > 0.0 {
            sum("dp") / segments
        } else {
            0.0
        },
        "ms",
    );
    report.metric(
        "dp.lines",
        counts.iter().map(|c| c.lines as f64).sum::<f64>() / n,
        "count",
    );
    report.metric("u_topk.ms", per("u_topk"), "ms");
    report.metric("scan.collect_us", per("scan") * 1e3, "us");
    report.metric("scan.depth", depth / n, "count");
    report.metric("scan.pulled", pulled / n, "count");
    report.metric(
        "scan.useful_ratio",
        if pulled > 0.0 { depth / pulled } else { 0.0 },
        "ratio",
    );
    report.metric("typical.us", per("typical") * 1e3, "us");
    let drains = tracer.durations_ms("drain_rest");
    let opens = tracer.durations_ms("open");
    let remote = !received.is_empty();
    report.metric(
        "remote.open_ms",
        if remote { mean(&opens) } else { 0.0 },
        "ms",
    );
    report.metric(
        "remote.drain_ms",
        if remote {
            (sum("scan") + drains.iter().sum::<f64>()) / received.len() as f64
        } else {
            0.0
        },
        "ms",
    );
    report.metric("remote.tuples_received", mean(&received), "count");
    let received_total: f64 = received.iter().sum();
    report.metric(
        "remote.useful_ratio",
        if received_total > 0.0 {
            received_depth / received_total
        } else {
            0.0
        },
        "ratio",
    );
}

/// `trace.overhead_pct`: how much longer the traced replay of the same
/// operations took than the untraced loop. `trace.remainder_pct`: the share
/// of the untraced `Session::execute` time the traced layer spans do not
/// account for (negative when the spans add up to more).
pub fn tracing_metrics(
    report: &mut Report,
    tracer: &Tracer,
    untraced: Duration,
    traced: Duration,
    untraced_latencies: &[f64],
) {
    report.metric(
        "trace.overhead_pct",
        (traced.as_secs_f64() / untraced.as_secs_f64() - 1.0) * 100.0,
        "%",
    );
    let execute_ms: f64 = untraced_latencies.iter().sum();
    let layers_ms: f64 = ["open", "scan", "dp", "typical", "drain_rest", "u_topk"]
        .iter()
        .map(|name| tracer.durations_ms(name).iter().sum::<f64>())
        .sum();
    report.metric(
        "trace.remainder_pct",
        (execute_ms - layers_ms) / execute_ms * 100.0,
        "%",
    );
}
