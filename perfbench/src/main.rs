//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload local-query|serve-mixed|remote-shards --seed N
//!           --seconds S --trace 0|1 --ttk PATH --work-dir DIR
//! ```
//!
//! Every workload generates its inputs from `--seed`, sets up several times
//! (reporting the median set-up time), runs a closed loop for `--seconds`,
//! checks every answer against a reference computed in-process, and prints
//! one JSON object as the last line of standard output. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` runs the loop untraced for half the
//! time and then traced for the other half, and reports the per-layer
//! metrics plus the tracing overhead. See `README.md` next to this crate.

mod layers;
mod local;
mod serve;
mod shards;
mod trace;
mod util;

use std::path::PathBuf;
use std::time::Duration;

use ttk_core::{answer_hash, Dataset, Session, TopkQuery};
use ttk_uncertain::TupleId;

use crate::layers::Input;
use crate::trace::Tracer;
use crate::util::Report;

/// How many times each workload sets up; `setup_s` is the median. Set-ups
/// take milliseconds, so nine cost little and steady the median.
pub const SETUPS: usize = 9;

/// The end-to-end metrics every untraced run reports (`BENCHMARK.json`).
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports (`BENCHMARK.json`);
/// a layer the workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 34] = [
    ("dp.ms", "ms"),
    ("dp.segments", "count"),
    ("dp.ms_per_segment", "ms"),
    ("dp.lines", "count"),
    ("u_topk.ms", "ms"),
    ("scan.collect_us", "us"),
    ("scan.depth", "count"),
    ("scan.pulled", "count"),
    ("scan.useful_ratio", "ratio"),
    ("typical.us", "us"),
    ("result.encode_us", "us"),
    ("result.decode_us", "us"),
    ("result.bytes", "B"),
    ("request.hit_ms", "ms"),
    ("request.miss_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.get_ns", "ns"),
    ("cache.mixed_ops_per_s", "1/s"),
    ("live.append_us", "us"),
    ("live.seal_ms", "ms"),
    ("live.compact_ms", "ms"),
    ("live.segments", "count"),
    ("live.compactions", "count"),
    ("append_p50_ms", "ms"),
    ("append_p90_ms", "ms"),
    ("remote.open_ms", "ms"),
    ("remote.drain_ms", "ms"),
    ("remote.tuples_received", "count"),
    ("remote.useful_ratio", "ratio"),
    ("import.ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.remainder_pct", "%"),
    ("failed_ratio", "ratio"),
];

/// Command-line options shared by every workload.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub ttk: PathBuf,
    pub work_dir: PathBuf,
}

impl Opts {
    /// The measured window: the whole run untraced, or each half of a
    /// traced run.
    pub fn window(&self) -> Duration {
        let seconds = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(seconds)
    }

    /// The fewest queries a cycle-based loop runs: enough that at least ten
    /// lie beyond the 90th percentile when it is reported (untraced runs).
    pub fn min_queries(&self) -> usize {
        if self.trace {
            0
        } else {
            110
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload local-query|serve-mixed|remote-shards --seed N \
         --seconds S --trace 0|1 --ttk PATH --work-dir DIR"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let required = |name: &str| flag(name).unwrap_or_else(|| usage());
    let workload = required("--workload");
    let opts = Opts {
        seed: required("--seed").parse().unwrap_or_else(|_| usage()),
        seconds: required("--seconds").parse().unwrap_or_else(|_| usage()),
        trace: match required("--trace").as_str() {
            "0" => false,
            "1" => true,
            _ => usage(),
        },
        ttk: PathBuf::from(required("--ttk")),
        work_dir: PathBuf::from(required("--work-dir")),
    };
    std::fs::create_dir_all(&opts.work_dir).expect("create the work directory");

    let mut report = Report::default();
    check_soldier(&mut report);
    match workload.as_str() {
        "local-query" => local::run(&opts, &mut report),
        "serve-mixed" => serve::run(&opts, &mut report),
        "remote-shards" => shards::run(&opts, &mut report),
        _ => usage(),
    }
    let expected = if opts.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let failed_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    report.metric("failed_ratio", failed_ratio, "ratio");
    report
        .metrics
        .retain(|name, _| expected.iter().any(|(known, _)| known == name));
    for (name, unit) in expected {
        report
            .metrics
            .entry(name.to_string())
            .or_insert((0.0, unit));
    }
    for error in &report.errors {
        eprintln!("perfbench: {error}");
    }
    eprintln!(
        "perfbench: {workload} seed {} trace {}: {} attempted, {} failed (failed_ratio {failed_ratio})",
        opts.seed,
        u8::from(opts.trace),
        report.attempted,
        report.failed
    );
    for (name, (value, unit)) in &report.metrics {
        eprintln!("  {name:<24} {value:>14.4} {unit}");
    }
    println!("{}", report.to_json());
}

/// The paper's soldier example (Figure 3): expected score 164.10, typical
/// scores 118/183/235, U-Top2 = <T2, T6> at probability 0.2 — through
/// `Session::execute` and through the layer-by-layer replay.
fn check_soldier(report: &mut Report) {
    let table = ttk_datagen::soldier::table().expect("static table is valid");
    let query = TopkQuery::new(2).with_p_tau(1e-9).with_max_lines(0);
    let dataset = Dataset::table(table.clone());
    let answer = Session::new()
        .execute(&dataset, &query)
        .expect("soldier query runs");
    let (replayed, _) =
        layers::replay(&mut Tracer::new(), &Input::Table(&table), &query).expect("soldier replay");
    let u_topk = answer.u_topk.as_ref();
    let anchors = [
        (
            "expected score 164.10",
            (answer.expected_score() - 164.1).abs() < 0.005,
        ),
        (
            "typical scores 118/183/235",
            answer.typical.scores() == [118.0, 183.0, 235.0],
        ),
        (
            "U-Top2 <T2, T6>",
            u_topk.is_some_and(|u| u.vector.ids() == [TupleId(2), TupleId(6)]),
        ),
        (
            "U-Top2 probability 0.2",
            u_topk.is_some_and(|u| (u.vector.probability() - 0.2).abs() < 1e-9),
        ),
        (
            "replayed layers match Session::execute",
            answer_hash(&replayed) == answer_hash(&answer),
        ),
    ];
    for (anchor, holds) in anchors {
        report.attempted += 1;
        if !holds {
            report.fail(format!("soldier anchor failed: {anchor}"));
        }
    }
}
