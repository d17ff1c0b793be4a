//! `serve-mixed`: the release `ttk serve` daemon as a child process holding
//! two resident CSV relations and one live dataset, driven by a closed loop
//! of two connections through `RemoteQueryClient`. Reads are CLI-shaped
//! (U-Topk on, k ≤ 3) and Zipf-skewed over a key population several times
//! the daemon's 64-entry result cache; about one request in ten appends a
//! small batch to the live dataset and seals it, which advances its epoch
//! and compacts past `--compact-at` sealed segments.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ttk_core::{
    answer_from_wire, answer_hash, answer_to_wire, AppendLog, CacheKey, ConnectOptions, Dataset,
    LiveDataset, QueryAnswer, RemoteQueryClient, ResultCache, Session, TopkQuery,
};
use ttk_pdb::{parse_expression, CsvDataset, CsvOptions};
use ttk_uncertain::wire::{read_query_result, write_query_result, WIRE_VERSION_V6};
use ttk_uncertain::{SourceTuple, UncertainTuple};

use crate::layers::{self, Counts, Input};
use crate::trace::Tracer;
use crate::util::{
    cartel_area, cartel_relation, mean, ms, peak_rss_mb, quantile, write_csv, Daemon, Report, Rng,
    WorkDir, Zipf, SCORE_EXPR,
};
use crate::{Opts, SETUPS};

/// The resident relations: `roads` (60 segments, 199 rows) and `grid`
/// (30 segments of area seed 42, 103 rows), whose k = 3 misses cost about
/// the same; then the live dataset `feed`.
const STATIC: [(&str, usize, u64); 2] = [("roads", 60, 9), ("grid", 30, 42)];
const LIVE: &str = "feed";
const CLIENTS: usize = 2;
/// Share of requests that append a batch and seal it.
const WRITE_SHARE: f64 = 0.1;
const BATCH_ROWS: usize = 8;
const INITIAL_ROWS: usize = 200;
/// The daemon's `--compact-at`: every seal past this many sealed segments
/// folds the oldest ones.
const COMPACT_AT: usize = 8;
/// The daemon's default result-cache capacity (`--cache-entries`).
const CACHE_ENTRIES: usize = 64;
/// Distinct pτ values per (dataset, k): 3 datasets × 3 k × 32 = 288 keys,
/// 4.5× the cache.
const P_TAUS: usize = 32;
const ZIPF_S: f64 = 1.0;

/// One read key: dataset index (2 = live), k, pτ.
#[derive(Debug, Clone, Copy)]
struct Key {
    dataset: usize,
    k: usize,
    p_tau: f64,
}

impl Key {
    fn query(&self) -> TopkQuery {
        TopkQuery::new(self.k).with_p_tau(self.p_tau)
    }

    fn name(&self) -> &'static str {
        match self.dataset {
            0 | 1 => STATIC[self.dataset].0,
            _ => LIVE,
        }
    }

    fn cache_key(&self, epoch: u64) -> CacheKey {
        CacheKey::new(self.dataset as u64, epoch, &self.query())
    }
}

/// The keys in Zipf rank order. Rank `r` always reads dataset `r % 3` at
/// k = `r / 3 % 3 + 1`, so every seed has the same cost structure; the seed
/// picks which pτ each rank uses.
fn ranked_keys(rng: &mut Rng) -> Vec<Key> {
    let mut keys = Vec::with_capacity(3 * 3 * P_TAUS);
    let mut perms: Vec<Vec<usize>> = (0..9)
        .map(|_| {
            let mut perm: Vec<usize> = (0..P_TAUS).collect();
            rng.shuffle(&mut perm);
            perm
        })
        .collect();
    for rank in 0..3 * 3 * P_TAUS {
        let dataset = rank % 3;
        let k = rank / 3 % 3 + 1;
        let j = perms[dataset * 3 + k - 1].pop().expect("one pτ per rank");
        keys.push(Key {
            dataset,
            k,
            p_tau: 1e-3 * 1.07f64.powi(j as i32),
        });
    }
    keys
}

/// `count` fresh independent rows with ids from `next_id` on.
fn live_rows(rng: &mut Rng, next_id: &mut u64, count: usize) -> Vec<SourceTuple> {
    (0..count)
        .map(|_| {
            let id = *next_id;
            *next_id += 1;
            let score = 10.0 + 190.0 * rng.unit();
            let prob = 0.05 + 0.9 * rng.unit();
            SourceTuple::independent(UncertainTuple::new(id, score, prob).expect("valid row"))
        })
        .collect()
}

struct Setup {
    daemon: Daemon,
    client: RemoteQueryClient,
}

/// Generates and writes the relations and starts the daemon, which imports
/// and scores them before it publishes its address. The set-up ends there:
/// a first request would wait out a part of the daemon's 10 ms accept poll
/// that depends on a race with its start, which splits set-up times into
/// several modes. Seeding the live dataset follows outside the timed set-up.
fn setup(opts: &Opts, work: &WorkDir) -> Setup {
    let mut args = vec!["serve".to_string()];
    for (name, segments, seed) in STATIC {
        let path = work.path(&format!("{name}.csv"));
        write_csv(&path, &cartel_relation(&cartel_area(segments, seed)));
        args.push(format!("{name}={}", path.display()));
    }
    for flag in ["--live", LIVE, "--score", SCORE_EXPR, "--compact-at"] {
        args.push(flag.to_string());
    }
    args.push(COMPACT_AT.to_string());
    let daemon = Daemon::start(&opts.ttk, &args, work.path("port"), work.path("serve.log"));
    let client = RemoteQueryClient::new(daemon.addr.clone())
        .with_connect_options(ConnectOptions::default().with_timeout(Duration::from_secs(30)));
    Setup { daemon, client }
}

struct Read {
    key: usize,
    epoch: u64,
    hash: u64,
    hit: bool,
    live_segments: Option<u64>,
    start: Instant,
    end: Instant,
    /// Kept for a sample of reads, for the wire encode/decode replay.
    answer: Option<QueryAnswer>,
}

struct Append {
    epoch: u64,
    rows: Vec<SourceTuple>,
    start: Instant,
    end: Instant,
}

#[derive(Default)]
struct Log {
    reads: Vec<Read>,
    appends: Vec<Append>,
    attempted: u64,
    errors: Vec<String>,
}

/// Appends are serialised so that each one is exactly one epoch: the
/// next row id and the last acknowledged epoch.
struct Writer {
    next_id: u64,
    epoch: u64,
}

/// Runs the two-connection closed loop for `window`.
fn drive(
    client: &RemoteQueryClient,
    keys: &[Key],
    writer: &Mutex<Writer>,
    rng: &Rng,
    window: Duration,
    keep_answers: bool,
) -> (Log, Duration) {
    let zipf = Zipf::new(keys.len(), ZIPF_S);
    let start = Instant::now();
    let logs: Vec<Log> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|lane| {
                let mut rng = rng.fork(lane as u64);
                let zipf = &zipf;
                scope.spawn(move || {
                    let mut log = Log::default();
                    while start.elapsed() < window {
                        log.attempted += 1;
                        if rng.unit() < WRITE_SHARE {
                            let mut w = writer.lock().expect("writer lock");
                            let rows = live_rows(&mut rng, &mut w.next_id, BATCH_ROWS);
                            let t = Instant::now();
                            match client.append(LIVE, rows.clone(), true) {
                                Ok(ack) if ack.sealed_now && ack.epoch == w.epoch + 1 => {
                                    w.epoch = ack.epoch;
                                    log.appends.push(Append {
                                        epoch: ack.epoch,
                                        rows,
                                        start: t,
                                        end: Instant::now(),
                                    });
                                }
                                Ok(ack) => {
                                    log.errors.push(format!(
                                        "append acknowledged epoch {} (sealed {}), expected {}",
                                        ack.epoch,
                                        ack.sealed_now,
                                        w.epoch + 1
                                    ));
                                    w.epoch = ack.epoch;
                                }
                                Err(e) => log.errors.push(format!("append failed: {e}")),
                            }
                        } else {
                            let key = zipf.sample(&mut rng);
                            let t = Instant::now();
                            match client.execute(keys[key].name(), &keys[key].query()) {
                                Ok(remote) => {
                                    let keep = keep_answers && log.reads.len() % 8 == 0;
                                    log.reads.push(Read {
                                        key,
                                        epoch: remote.epoch.unwrap_or(0),
                                        hash: answer_hash(&remote.answer),
                                        hit: remote.cache_hit,
                                        live_segments: remote.live_segments,
                                        start: t,
                                        end: Instant::now(),
                                        answer: keep.then_some(remote.answer),
                                    });
                                }
                                Err(e) => log
                                    .errors
                                    .push(format!("query {:?} failed: {e}", keys[key])),
                            }
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut all = Log::default();
    for log in logs {
        all.reads.extend(log.reads);
        all.appends.extend(log.appends);
        all.attempted += log.attempted;
        all.errors.extend(log.errors);
    }
    all.reads.sort_by_key(|r| r.end);
    all.appends.sort_by_key(|a| a.epoch);
    (all, elapsed)
}

fn absorb(report: &mut Report, log: &mut Log) {
    report.attempted += log.attempted;
    for error in log.errors.drain(..) {
        report.fail(error);
    }
}

pub fn run(opts: &Opts, report: &mut Report) {
    let work = WorkDir::new(&opts.work_dir, "serve-mixed");
    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        // Stop the previous set-up's daemons before timing the next one.
        drop(kept.take());
        let start = Instant::now();
        kept = Some(setup(opts, &work));
        setups.push(start.elapsed().as_secs_f64());
    }
    let Setup { daemon, client } = kept.expect("at least one set-up");
    let initial = live_rows(&mut Rng::new(opts.seed).fork(99), &mut 0, INITIAL_ROWS);
    client
        .append(LIVE, initial.clone(), true)
        .expect("seed the live dataset");

    // In-process references over the same CSV files (the import layer).
    let expr = parse_expression(SCORE_EXPR).expect("valid score expression");
    let import_start = Instant::now();
    let references: Vec<Dataset> = STATIC
        .iter()
        .map(|(name, _, _)| {
            let csv = CsvDataset::from_path(
                work.path(&format!("{name}.csv")),
                CsvOptions::default(),
                expr.clone(),
            );
            csv.warm().expect("import the relation");
            csv.into_dataset()
        })
        .collect();
    let import_ms = ms(import_start.elapsed()) / STATIC.len() as f64;
    let mut rng = Rng::new(opts.seed);
    let keys = ranked_keys(&mut rng);
    let mut session = Session::new();
    let static_hash: Vec<Option<u64>> = keys
        .iter()
        .map(|key| {
            (key.dataset < 2).then(|| {
                answer_hash(
                    &session
                        .execute(&references[key.dataset], &key.query())
                        .expect("reference query"),
                )
            })
        })
        .collect();

    let writer = Mutex::new(Writer {
        next_id: INITIAL_ROWS as u64,
        epoch: 1,
    });
    // Created before the loop: request spans are recorded from its clock.
    let mut tracer = Tracer::new();
    let window = opts.window();
    let (mut first, first_elapsed) = drive(&client, &keys, &writer, &rng, window, false);
    absorb(report, &mut first);
    let traced = opts.trace.then(|| {
        let (mut second, elapsed) = drive(&client, &keys, &writer, &rng.fork(7), window, true);
        absorb(report, &mut second);
        (second, elapsed)
    });
    let rss = peak_rss_mb(&daemon.pid());
    let daemon_log = daemon.stop();

    // Check every read: static ones against the set-up references, live
    // ones against an in-process log that replays the acknowledged appends
    // in epoch order.
    let mut appends: Vec<&Append> = first.appends.iter().collect();
    let mut live_checks: BTreeMap<u64, Vec<(usize, u64)>> = BTreeMap::new();
    let all_reads = first
        .reads
        .iter()
        .chain(traced.iter().flat_map(|(second, _)| second.reads.iter()));
    for read in all_reads {
        match static_hash[read.key] {
            Some(hash) if hash == read.hash => {}
            Some(_) => report.fail(format!(
                "{:?}: answer differs from the reference",
                keys[read.key]
            )),
            None => live_checks
                .entry(read.epoch)
                .or_default()
                .push((read.key, read.hash)),
        }
    }
    if let Some((second, _)) = &traced {
        appends.extend(second.appends.iter());
    }
    let compactions = check_live(report, &mut tracer, &initial, &appends, &live_checks, &keys);

    let (log, elapsed) = match &traced {
        Some((second, elapsed)) => (second, *elapsed),
        None => (&first, first_elapsed),
    };
    let reads = &log.reads;
    let latencies: Vec<f64> = reads.iter().map(|r| ms(r.end - r.start)).collect();
    let qps = reads.len() as f64 / elapsed.as_secs_f64();
    if !opts.trace {
        report.metric("setup_s", quantile(&setups, 0.5), "s");
        report.metric("queries_per_s", qps, "1/s");
        report.metric("query_p50_ms", quantile(&latencies, 0.5), "ms");
        report.metric("query_p90_ms", quantile(&latencies, 0.9), "ms");
        report.metric("peak_rss_mb", rss, "MB");
        return;
    }

    // Per-layer metrics from the traced half.
    let first_qps = first.reads.len() as f64 / first_elapsed.as_secs_f64();
    report.metric("trace.overhead_pct", (first_qps / qps - 1.0) * 100.0, "%");
    for read in reads {
        let op = tracer.begin_op();
        tracer.record("request", op, read.start, read.end);
    }
    let append_ms: Vec<f64> = log.appends.iter().map(|a| ms(a.end - a.start)).collect();
    report.metric("append_p50_ms", quantile(&append_ms, 0.5), "ms");
    report.metric("append_p90_ms", quantile(&append_ms, 0.9), "ms");
    let hits: Vec<f64> = reads
        .iter()
        .filter(|r| r.hit)
        .map(|r| ms(r.end - r.start))
        .collect();
    let misses: Vec<f64> = reads
        .iter()
        .filter(|r| !r.hit)
        .map(|r| ms(r.end - r.start))
        .collect();
    report.metric("request.hit_ms", quantile(&hits, 0.5), "ms");
    report.metric("request.miss_ms", quantile(&misses, 0.5), "ms");
    report.metric(
        "cache.hit_ratio",
        hits.len() as f64 / reads.len().max(1) as f64,
        "ratio",
    );
    report.metric("cache.evictions", drained_evictions(&daemon_log), "count");
    let live_segments: Vec<f64> = reads
        .iter()
        .filter_map(|r| r.live_segments.map(|s| s as f64))
        .collect();
    report.metric("live.segments", mean(&live_segments), "count");
    report.metric("live.compactions", compactions as f64, "count");
    report.metric(
        "live.append_us",
        mean(&tracer.durations_ms("live.append")) * 1e3,
        "us",
    );
    report.metric(
        "live.seal_ms",
        mean(&tracer.durations_ms("live.seal")),
        "ms",
    );
    report.metric(
        "live.compact_ms",
        mean(&tracer.durations_ms("live.compact")),
        "ms",
    );
    report.metric("import.ms", import_ms, "ms");
    cache_replay(report, &mut tracer, reads, &keys);
    wire_replay(report, &mut tracer, reads);

    // The layers behind a static miss, replayed in process.
    let mut counts: Vec<Counts> = Vec::new();
    for read in reads
        .iter()
        .filter(|r| !r.hit && keys[r.key].dataset < 2)
        .take(400)
    {
        let key = keys[read.key];
        tracer.begin_op();
        report.attempted += 1;
        let input = Input::Dataset(&references[key.dataset]);
        match layers::replay(&mut tracer, &input, &key.query()) {
            Ok((answer, c)) if answer_hash(&answer) == read.hash => counts.push(c),
            Ok(_) => report.fail(format!(
                "{key:?}: replayed answer differs from the daemon's"
            )),
            Err(e) => report.fail(format!("{key:?}: replay failed: {e}")),
        }
    }
    layers::layer_metrics(report, &tracer, &counts);
    crate::trace::log_self_times(&tracer);
    let _ = tracer.write_tsv(
        &opts
            .work_dir
            .join(format!("spans-serve-mixed-{}.tsv", opts.seed)),
    );
}

/// Replays the acknowledged appends into an in-process `AppendLog` with the
/// daemon's settings, in epoch order, and checks every live read against
/// the answer at its epoch. Returns the number of seals that compacted.
fn check_live(
    report: &mut Report,
    tracer: &mut Tracer,
    initial: &[SourceTuple],
    appends: &[&Append],
    checks: &BTreeMap<u64, Vec<(usize, u64)>>,
    keys: &[Key],
) -> usize {
    let mut appends = appends.to_vec();
    appends.sort_by_key(|a| a.epoch);
    let log = Arc::new(AppendLog::new(1024).with_compact_at(COMPACT_AT));
    let dataset = Dataset::from_provider(LiveDataset::new(Arc::clone(&log)));
    let mut session = Session::new();
    let mut compactions = 0;
    let batches =
        std::iter::once((1, initial)).chain(appends.iter().map(|a| (a.epoch, &a.rows[..])));
    let mut last_epoch = 0;
    for (expected_epoch, rows) in batches {
        tracer.begin_op();
        let outcome = tracer.span("live.append", |_| log.append(rows.to_vec()));
        if let Err(e) = outcome {
            report.fail(format!(
                "replaying the append of epoch {expected_epoch}: {e}"
            ));
            continue;
        }
        let start = Instant::now();
        let sealed = log.seal();
        let end = Instant::now();
        let compacted = log.snapshot().compacted_epoch() == sealed.epoch;
        compactions += usize::from(compacted);
        tracer.record(
            if compacted {
                "live.compact"
            } else {
                "live.seal"
            },
            0,
            start,
            end,
        );
        if sealed.epoch != expected_epoch {
            report.fail(format!(
                "appends are not one epoch each: replayed epoch {} for acknowledged {expected_epoch}",
                sealed.epoch
            ));
        }
        last_epoch = sealed.epoch;
        let mut computed: BTreeMap<usize, u64> = BTreeMap::new();
        for &(key, hash) in checks.get(&sealed.epoch).into_iter().flatten() {
            let reference = *computed.entry(key).or_insert_with(|| {
                session
                    .execute(&dataset, &keys[key].query())
                    .map_or(0, |answer| answer_hash(&answer))
            });
            if reference != hash {
                report.fail(format!(
                    "{:?} at epoch {}: answer differs from the replayed log",
                    keys[key], sealed.epoch
                ));
            }
        }
    }
    for (epoch, reads) in checks.range(last_epoch + 1..) {
        for _ in reads {
            report.fail(format!(
                "a live read reported epoch {epoch}, past every acknowledged append"
            ));
        }
    }
    compactions
}

/// `cache.get_ns` from a replay of the traced reads' keys (with inserts on
/// misses) against an in-process cache of the daemon's capacity, and
/// `cache.mixed_ops_per_s` from the same key streams replayed from two
/// threads against one shared cache.
fn cache_replay(report: &mut Report, tracer: &mut Tracer, reads: &[Read], keys: &[Key]) {
    const OPS_PER_THREAD: usize = 200_000;
    let Some(answer) = reads.iter().find_map(|r| r.answer.clone()) else {
        return;
    };
    let answer = Arc::new(answer);
    let stream: Vec<CacheKey> = reads
        .iter()
        .map(|r| keys[r.key].cache_key(r.epoch))
        .collect();
    let cache = ResultCache::new(CACHE_ENTRIES);
    let mut get_ns = Vec::with_capacity(stream.len());
    for key in &stream {
        let start = Instant::now();
        let got = cache.get(key);
        let end = Instant::now();
        get_ns.push((end - start).as_nanos() as f64);
        tracer.record("cache.get", 0, start, end);
        if got.is_none() {
            let start = Instant::now();
            cache.insert(*key, Arc::clone(&answer));
            tracer.record("cache.insert", 0, start, Instant::now());
        }
    }
    report.metric("cache.get_ns", mean(&get_ns), "ns");

    let shared = ResultCache::new(CACHE_ENTRIES);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for lane in 0..CLIENTS {
            let (shared, stream, answer) = (&shared, &stream, &answer);
            scope.spawn(move || {
                let lane_keys: Vec<&CacheKey> = stream.iter().skip(lane).step_by(CLIENTS).collect();
                for op in 0..OPS_PER_THREAD {
                    let key = lane_keys[op % lane_keys.len()];
                    if shared.get(key).is_none() {
                        shared.insert(*key, Arc::clone(answer));
                    }
                }
            });
        }
    });
    let ops = (CLIENTS * OPS_PER_THREAD) as f64;
    report.metric(
        "cache.mixed_ops_per_s",
        ops / start.elapsed().as_secs_f64(),
        "1/s",
    );
}

/// `result.encode_us`, `result.decode_us` and `result.bytes`: a sample of
/// the received answers through the daemon's encode path and the client's
/// decode path; the decoded answer must hash like the received one.
fn wire_replay(report: &mut Report, tracer: &mut Tracer, reads: &[Read]) {
    let mut bytes = Vec::new();
    for read in reads {
        let Some(answer) = &read.answer else { continue };
        tracer.begin_op();
        let buffer = tracer.span("result.encode", |_| {
            let mut result = answer_to_wire(answer, read.hit);
            result.version = WIRE_VERSION_V6;
            let mut buffer = Vec::new();
            write_query_result(&mut buffer, &result).map(|_| buffer)
        });
        let Ok(buffer) = buffer else {
            report.fail("encoding a received answer failed".to_string());
            continue;
        };
        bytes.push(buffer.len() as f64);
        let decoded = tracer.span("result.decode", |_| {
            read_query_result(&mut &buffer[..]).map(answer_from_wire)
        });
        report.attempted += 1;
        match decoded {
            Ok((decoded, _)) if answer_hash(&decoded) == read.hash => {}
            _ => report.fail("a re-encoded answer does not decode to itself".to_string()),
        }
    }
    report.metric(
        "result.encode_us",
        mean(&tracer.durations_ms("result.encode")) * 1e3,
        "us",
    );
    report.metric(
        "result.decode_us",
        mean(&tracer.durations_ms("result.decode")) * 1e3,
        "us",
    );
    report.metric("result.bytes", mean(&bytes), "B");
}

/// The eviction count from the daemon's drain line (`result cache: H hits,
/// M misses, E evictions, ...`).
fn drained_evictions(log: &str) -> f64 {
    log.lines()
        .filter_map(|line| line.strip_prefix("result cache: "))
        .flat_map(|rest| rest.split(", "))
        .find_map(|part| part.strip_suffix(" evictions"))
        .and_then(|n| n.parse().ok())
        .unwrap_or(0.0)
}
