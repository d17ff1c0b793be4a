//! `ttk` — a small command line front end for typical top-k queries on
//! uncertain data.
//!
//! Subcommands:
//!
//! * `ttk generate cartel|synthetic [options]` — write a CSV dataset to
//!   stdout (or `--out FILE`).
//! * `ttk query DATA.csv --score EXPR --k K [options]` — run a top-k
//!   distribution query over a CSV relation and print the histogram, the
//!   typical answers and the U-Topk comparison point. Every input form
//!   (positional/`--file` single file, repeatable `--shard`, out-of-core
//!   `--spill-buffer`) resolves to one `Dataset` served by one `Session`.
//! * `ttk explain DATA.csv --score EXPR [--k K]` — print the execution plan
//!   (chosen scan path, row/depth/cost estimates) without running the query;
//!   `--after` executes the query first so the plan also reports the
//!   observed scan depth and the cost model's drift.
//! * `ttk serve-shard <input> --score EXPR --listen ADDR` — a long-lived
//!   concurrent daemon serving the resolved dataset as a rank-ordered tuple
//!   stream over TCP (the wire protocol of `ttk-uncertain`), one replay per
//!   connection, with up to `--max-parallel` connections served at once. A
//!   `ttk query --remote-shard ADDR` (repeatable, mixable with local
//!   `--shard`) scans the served shards as one relation. With
//!   `--coordinator ADDR` the daemon leases its tuple-id base and group-key
//!   namespace instead of taking `--id-base` from the operator.
//! * `ttk coordinator --listen ADDR` — hands out `(id base, namespace)`
//!   leases to registering `serve-shard` daemons, so the shards of one
//!   relation land in disjoint id ranges without operator arithmetic.
//! * `ttk serve NAME=FILE.csv ... --score EXPR --listen ADDR` — a resident-
//!   dataset query daemon: the named datasets are scored once and kept
//!   resident, a bounded worker pool (each worker owning a plan-once/
//!   run-many `Session`) answers whole queries over the wire, and a
//!   concurrent LRU result cache short-circuits repeated (dataset,
//!   algorithm, k, pτ) queries. `ttk query --server ADDR --dataset NAME`
//!   ships a query instead of scanning tuples; `ttk explain --server ADDR
//!   --dataset NAME --after` reports the server-observed scan depth and
//!   cache outcome.
//! * `ttk serve --live NAME` — growing datasets: the daemon keeps a named
//!   append-only log whose sealed segments form epoch-numbered snapshots.
//!   `ttk append --server ADDR --dataset NAME` stages rows into the log
//!   (`--seal` publishes a new epoch), and `ttk watch` holds a standing
//!   top-k subscription the daemon re-evaluates on every epoch advance,
//!   pushing a fresh answer only when its distribution actually shifted.
//! * `ttk soldier` — print the paper's toy example end to end.

use std::collections::HashMap;
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ttk_core::remote;
use ttk_core::{
    bind_daemon_listener, run_daemon, serve_client, serve_stream, Algorithm, AppendLog,
    BatchOptions, ConnectOptions, ConnectionHandler, DaemonControl, DaemonOptions, Dataset,
    DatasetLoader, DatasetProvider, DatasetRegistry, PlanDescription, QueryJob, QueryServeOptions,
    RemoteQueryClient, RemoteShardDataset, ResultCache, ScanPath, ServeOptions, Session,
    ShedPolicy, TopkQuery,
};
use ttk_datagen::cartel::{generate_area, CartelConfig};
use ttk_datagen::soldier;
use ttk_datagen::synthetic::{generate, IntRange, MePolicy, SyntheticConfig};
use ttk_pdb::{
    count_csv_records, parse_expression, stable_group_key, table_to_csv, CsvDataset, CsvOptions,
    DataType, Expr, PTable, Schema, ShardImportOptions, SpillOptions,
};
use ttk_uncertain::{
    wire, LeaseRegistry, ScoreDistribution, ShardAssignment, SourceTuple, TupleSource,
    UncertainTuple,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn usage() -> &'static str {
    "usage:
  ttk soldier
  ttk generate cartel   [--segments N] [--seed S] [--out FILE] [--shards N]
  ttk generate synthetic [--tuples N] [--rho R] [--sigma S] [--me-size LO:HI] [--me-gap LO:HI] [--seed S] [--out FILE] [--shards N]
  ttk query   (DATA.csv | --file DATA.csv | --shard s0.csv --shard s1.csv ...
               | --remote-shard HOST:PORT ... [--shard s.csv ...]
               | --server HOST:PORT --dataset NAME)
              --score EXPR --k K
              [--c C] [--p-tau P] [--max-lines N] [--algorithm main|per-ending|state-expansion|k-combo]
              [--prob-column NAME] [--group-column NAME] [--buckets N]
              [--batch KS] [--threads N] [--spill-buffer TUPLES] [--id-base N]
              [--remote-timeout SECS] [--remote-retries N]
              [--no-pushdown] [--bound-update-every TUPLES]
  ttk explain (DATA.csv | --file DATA.csv | --shard ... | --remote-shard ...
               | --server HOST:PORT --dataset NAME --after)
              --score EXPR [--k K] [--c C] [--p-tau P] [--max-lines N]
              [--algorithm ...] [--prob-column NAME] [--group-column NAME]
              [--spill-buffer TUPLES] [--id-base N] [--after]
              [--remote-timeout SECS] [--remote-retries N]
              [--no-pushdown] [--bound-update-every TUPLES]
  ttk serve   [NAME=FILE.csv ...] [--live NAME ...] [--score EXPR]
              --listen HOST:PORT
              [--seal-every ROWS] [--compact-at SEGMENTS]
              [--max-conns N] [--max-parallel N] [--cache-entries N]
              [--cache-ttl-ms MS] [--write-timeout-ms MS]
              [--request-wait-ms MS] [--port-file FILE]
              [--prob-column NAME] [--group-column NAME]
  ttk append  --server HOST:PORT --dataset NAME
              (--row ID:SCORE:PROB[:GROUP] ... | --file DATA.csv --score EXPR)
              [--seal] [--prob-column NAME] [--group-column NAME]
              [--remote-timeout SECS] [--remote-retries N]
  ttk watch   --server HOST:PORT --dataset NAME --k K
              [--c C] [--p-tau P] [--max-lines N] [--algorithm ...]
              [--pushes N] [--buckets N]
              [--remote-timeout SECS] [--remote-retries N]
  ttk serve-shard (DATA.csv | --file DATA.csv | --shard ...) --score EXPR
              --listen HOST:PORT
              [--id-base N [--namespace LABEL] | --coordinator HOST:PORT]
              [--spill-buffer TUPLES]
              [--max-conns N] [--max-parallel N] [--port-file FILE]
              [--write-timeout-ms MS]
              [--prob-column NAME] [--group-column NAME]
  ttk coordinator --listen HOST:PORT [--namespace LABEL] [--max-leases N]
              [--port-file FILE] [--write-timeout-ms MS]
  ttk admin   --server HOST:PORT
              (stats | register NAME=FILE.csv | unregister NAME
               | reload NAME | compact NAME)
              [--remote-timeout SECS] [--remote-retries N]

  Each command accepts exactly the flags listed for it above; any other
  flag is an error naming the flag and the command.

  Every input form resolves to one dataset: a single CSV file (positional or
  --file), the shard files of one partitioned relation (--shard, repeatable;
  scanned under a k-way merge), an out-of-core scan (--spill-buffer T
  external-sorts a single file through runs of at most T tuples spilled to
  temp files), or remote shard servers (--remote-shard, repeatable, mixable
  with local --shard files). A merged scan pulls every shard on the
  querying thread. Remote dials connect and read under --remote-timeout
  seconds (default 10/none) and retry --remote-retries times (default 3)
  with exponential backoff, so a server still starting up is retried
  instead of failing the query.

  Remote scans push the Theorem-2 scan gate down to the servers by default:
  the query's (k, p-tau) is announced on connect, servers stop at a
  conservative per-shard bound instead of draining the shard, and the client
  refreshes each server's bound every --bound-update-every tuples pulled
  (default 64) as its merge-side gate tightens. --no-pushdown announces
  k = 0, which asks for the full replay. Results are bit-identical either
  way.

  serve-shard scores its input once and then serves it as a rank-ordered
  binary tuple stream — a long-lived daemon handling up to --max-parallel
  connections concurrently (default 8), one full replay per connection,
  until --max-conns connections were served (0 or absent = forever) or
  SIGINT/SIGTERM; both drain in-flight connections before exiting. A slow or
  dead client only ever costs its own worker. --id-base places the served
  rows in the relation's shared tuple-id space (pass the total row count of
  the shards before this one); with --coordinator the daemon registers its
  row count and is leased its id base and group-key namespace instead.
  Group keys are hashed from the group label so independently-served shards
  agree on ME groups. --port-file writes the actually-bound address
  atomically (useful with --listen 127.0.0.1:0). A connection that sends no
  scan announcement within 10 s is dropped; each served connection logs one
  summary line (rows scanned, tuples shipped, stop reason:
  gate/exhausted/client-gone).

  coordinator hands out non-overlapping id-base leases (and one shared
  namespace label, --namespace, stamped into every served hello) to
  registering serve-shard daemons; --max-leases N exits after N leases.

  serve answers whole queries instead of replaying tuples: each NAME=FILE
  positional is scored once at startup and kept resident, --max-parallel
  workers (default 4) each own a reusable Session, and a shared result
  cache of --cache-entries answers (default 64, 0 disables) returns
  repeated (dataset, algorithm, k, p-tau) queries without executing —
  bit-identical to the cold run. The accept loop hands connections to
  workers over a rendezvous channel, so a flood queues in the listen
  backlog instead of spawning threads; a client that connects but never
  sends its request is dropped after --request-wait-ms (default 10000)
  and only ever costs its own worker. --max-conns, --port-file and
  SIGINT/SIGTERM draining behave as in serve-shard. On the client,
  `ttk query --server HOST:PORT --dataset NAME --k K` ships the query
  (no --score: the server's datasets are already scored; --batch works
  and re-dials per k), and `ttk explain --server ... --after` prints the
  plan with the server-observed scan depth and result-cache outcome.

  serve --live NAME (repeatable, mixable with NAME=FILE positionals; --score
  is only needed when CSV positionals are given) registers a growing dataset
  backed by an append-only log. `ttk append` stages scored rows into it —
  either literal --row ID:SCORE:PROB[:GROUP] flags (GROUP labels hash to the
  same group keys a CSV import would derive) or a local CSV scored with
  --score — and --seal publishes the staged rows as a new immutable sealed
  segment under the next snapshot epoch (the log also auto-seals whenever
  --seal-every staged rows accumulate, default 1024). Queries always scan
  the latest sealed snapshot (staged rows stay invisible), the result cache
  is keyed on the epoch so an advance is a structural cache miss, and
  `ttk watch` holds a standing subscription: the daemon re-executes the
  query on every epoch advance and pushes the answer only when its
  distribution actually shifted (--pushes N closes the subscription after N
  pushes; the baseline answer counts as the first push). When every worker
  stays busy through the admission grace window, serve now sheds the
  connection with a busy/retry-after frame instead of parking it — clients
  retry with backoff, and shed connections do not count toward --max-conns.

  All three daemons run on one shared runtime: --port-file atomic address
  publication, a bounded worker pool fed over a rendezvous channel,
  --max-conns / signal-requested draining, and --write-timeout-ms MS (0 or
  absent = no timeout) arming a socket write timeout on every accepted
  connection so a stalled reader is shed instead of pinning a worker
  forever.

  ttk admin manages a running serve daemon over the same port:
  `stats` prints the resident roster (per-dataset epoch, segment count,
  last compaction epoch) and result-cache counters; `register NAME=FILE.csv`
  imports a CSV server-side and makes it resident (the server must have
  been started with --score so it knows how to score imports; duplicate
  names are refused); `reload NAME` re-imports a file-backed dataset from
  its source path and swaps it in atomically — in-flight queries finish on
  the old snapshot; `unregister NAME` drops a resident dataset; `compact
  NAME` folds every sealed segment of a live dataset into one. serve also
  compacts automatically past --compact-at sealed segments (0 or absent =
  never; minimum 2), and --cache-ttl-ms MS expires cached answers by age
  on top of the epoch/generation invalidation (0 or absent = no TTL).

  --batch KS runs one query per k in KS (comma list `1,5,10` or range
  `LO:HI`) through the cost-ordered parallel batch executor and prints a
  summary table; --k is ignored when --batch is given. Batches work on every
  dataset kind — a spilled file is sorted once and its runs are replayed per
  job; remote shards are re-connected per job.

  explain prints the chosen scan path and the scheduler's row/depth/cost
  estimates without executing (with --after it executes once and reports the
  observed scan depth next to the estimate); generate --shards N writes one
  CSV per shard (FILE.shardI.csv)."
}

/// Parsed `--key value` flags; repeated flags accumulate in order.
type Flags = HashMap<String, Vec<String>>;

/// The flags one verb accepts, as space-separated names. Each takes one
/// value, except the switches, whose presence means `true`.
struct VerbFlags {
    verb: &'static str,
    values: &'static str,
    switches: &'static str,
}

impl VerbFlags {
    fn is_switch(&self, name: &str) -> bool {
        self.switches
            .split_whitespace()
            .any(|switch| switch == name)
    }

    fn accepts(&self, name: &str) -> bool {
        self.is_switch(name) || self.values.split_whitespace().any(|value| value == name)
    }
}

/// Every verb's flag table.
const VERBS: [VerbFlags; 10] = [
    SOLDIER,
    GENERATE,
    QUERY,
    EXPLAIN,
    SERVE,
    APPEND,
    WATCH,
    SERVE_SHARD,
    COORDINATOR,
    ADMIN,
];

const SOLDIER: VerbFlags = VerbFlags {
    verb: "soldier",
    values: "",
    switches: "",
};

const GENERATE: VerbFlags = VerbFlags {
    verb: "generate",
    values: "segments tuples rho sigma me-size me-gap seed out shards",
    switches: "",
};

const QUERY: VerbFlags = VerbFlags {
    verb: "query",
    values: "file shard remote-shard server dataset score k c p-tau max-lines algorithm \
             prob-column group-column buckets batch threads spill-buffer id-base \
             remote-timeout remote-retries bound-update-every",
    switches: "no-pushdown",
};

const EXPLAIN: VerbFlags = VerbFlags {
    verb: "explain",
    values: "file shard remote-shard server dataset score k c p-tau max-lines algorithm \
             prob-column group-column spill-buffer id-base remote-timeout remote-retries \
             bound-update-every",
    switches: "after no-pushdown",
};

const SERVE: VerbFlags = VerbFlags {
    verb: "serve",
    values: "live score listen seal-every compact-at max-conns max-parallel cache-entries \
             cache-ttl-ms write-timeout-ms request-wait-ms port-file prob-column group-column",
    switches: "",
};

const APPEND: VerbFlags = VerbFlags {
    verb: "append",
    values: "server dataset row file score prob-column group-column remote-timeout \
             remote-retries",
    switches: "seal",
};

const WATCH: VerbFlags = VerbFlags {
    verb: "watch",
    values: "server dataset k c p-tau max-lines algorithm pushes buckets remote-timeout \
             remote-retries",
    switches: "",
};

const SERVE_SHARD: VerbFlags = VerbFlags {
    verb: "serve-shard",
    values: "file shard score listen id-base namespace coordinator spill-buffer max-conns \
             max-parallel port-file write-timeout-ms prob-column group-column",
    switches: "",
};

const COORDINATOR: VerbFlags = VerbFlags {
    verb: "coordinator",
    values: "listen namespace max-leases port-file write-timeout-ms",
    switches: "",
};

const ADMIN: VerbFlags = VerbFlags {
    verb: "admin",
    values: "server remote-timeout remote-retries",
    switches: "",
};

/// Parses `--key value` style flags into a map; bare words are positional.
/// A flag is a switch when the verbs' tables list it as one; a flag no verb
/// accepts is an error.
fn parse_flags(args: &[String]) -> Result<(Vec<String>, Flags), String> {
    let mut positional = Vec::new();
    let mut flags: Flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if let Some(name) = arg.strip_prefix("--") {
            if !VERBS.iter().any(|verb| verb.accepts(name)) {
                return Err(format!("unknown flag --{name}"));
            }
            if VERBS.iter().any(|verb| verb.is_switch(name)) {
                flags
                    .entry(name.to_string())
                    .or_default()
                    .push("true".to_string());
                i += 1;
                continue;
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags
                .entry(name.to_string())
                .or_default()
                .push(value.clone());
            i += 2;
        } else {
            positional.push(arg.clone());
            i += 1;
        }
    }
    Ok((positional, flags))
}

/// Parses the arguments of `verb`, rejecting every flag outside its table.
fn parse_args(verb: &VerbFlags, args: &[String]) -> Result<(Vec<String>, Flags), String> {
    let (positional, flags) = parse_flags(args).map_err(|e| format!("ttk {}: {e}", verb.verb))?;
    let mut unknown: Vec<&String> = flags.keys().filter(|name| !verb.accepts(name)).collect();
    unknown.sort();
    match unknown.first() {
        Some(name) => Err(format!("ttk {}: unknown flag --{name}", verb.verb)),
        None => Ok((positional, flags)),
    }
}

/// The value of a single-valued flag (the last occurrence wins).
fn get<'a>(flags: &'a Flags, name: &str) -> Option<&'a str> {
    flags.get(name).and_then(|v| v.last()).map(String::as_str)
}

fn get_parse<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, String> {
    match get(flags, name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("invalid value `{raw}` for --{name}")),
    }
}

/// The most histogram buckets `--buckets` may ask for.
const MAX_BUCKETS: usize = 1_000;

/// `--buckets N` of `query` and `watch`: the histogram's bucket count, 16 by
/// default. Zero would make the bucket width infinite, and the histogram
/// allocates one value per bucket, so N must lie in 1..=[`MAX_BUCKETS`].
fn parse_buckets(flags: &Flags) -> Result<usize, String> {
    let buckets = get_parse(flags, "buckets", 16usize)?;
    if (1..=MAX_BUCKETS).contains(&buckets) {
        Ok(buckets)
    } else {
        Err(format!(
            "--buckets must be between 1 and {MAX_BUCKETS}, got {buckets}"
        ))
    }
}

fn parse_range(raw: &str) -> Result<IntRange, String> {
    let (lo, hi) = raw
        .split_once(':')
        .ok_or_else(|| format!("expected LO:HI, got `{raw}`"))?;
    let lo: u64 = lo.parse().map_err(|_| format!("invalid range `{raw}`"))?;
    let hi: u64 = hi.parse().map_err(|_| format!("invalid range `{raw}`"))?;
    if lo > hi {
        return Err(format!("empty range `{raw}`"));
    }
    Ok(IntRange::new(lo, hi))
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err("missing command".to_string());
    };
    let rest = &args[1..];
    match command.as_str() {
        "soldier" => cmd_soldier(rest),
        "generate" => cmd_generate(rest),
        "query" => cmd_query(rest),
        "explain" => cmd_explain(rest),
        "serve-shard" => cmd_serve_shard(rest),
        "serve" => cmd_serve(rest),
        "append" => cmd_append(rest),
        "watch" => cmd_watch(rest),
        "coordinator" => cmd_coordinator(rest),
        "admin" => cmd_admin(rest),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn cmd_soldier(args: &[String]) -> Result<(), String> {
    parse_args(&SOLDIER, args)?;
    let table = soldier::table().map_err(|e| e.to_string())?;
    let dataset = Dataset::table(table).with_label("soldier (Figure 1)");
    let query = TopkQuery::new(2).with_p_tau(1e-9).with_max_lines(0);
    let answer = Session::new()
        .execute(&dataset, &query)
        .map_err(|e| e.to_string())?;
    println!("The soldier-monitoring example of the paper (k = 2):");
    print_histogram(&answer.distribution, 14, &markers(&answer));
    print_answer_summary(&answer);
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse_args(&GENERATE, args)?;
    let kind = positional
        .first()
        .ok_or("generate needs a dataset kind: cartel or synthetic")?;
    let seed = get_parse(&flags, "seed", 42u64)?;
    let table = match kind.as_str() {
        "cartel" => {
            let segments = get_parse(&flags, "segments", 60usize)?;
            let area = generate_area(&CartelConfig {
                segments,
                seed,
                ..CartelConfig::default()
            })
            .map_err(|e| e.to_string())?;
            let schema = Schema::default()
                .with("segment_id", DataType::Integer)
                .with("speed_limit", DataType::Float)
                .with("length", DataType::Float)
                .with("delay", DataType::Float);
            let mut table = PTable::new("area", schema);
            for segment in &area.segments {
                for bin in &segment.bins {
                    table
                        .insert(
                            vec![
                                (segment.segment_id as i64).into(),
                                segment.speed_limit_kmh.into(),
                                segment.length_m.into(),
                                bin.delay_seconds.into(),
                            ],
                            bin.probability.clamp(1e-6, 1.0),
                            Some(&format!("segment-{}", segment.segment_id)),
                        )
                        .map_err(|e| e.to_string())?;
                }
            }
            table
        }
        "synthetic" => {
            let tuples = get_parse(&flags, "tuples", 300usize)?;
            let rho = get_parse(&flags, "rho", 0.0f64)?;
            let sigma = get_parse(&flags, "sigma", 60.0f64)?;
            let group_size = match get(&flags, "me-size") {
                Some(raw) => parse_range(raw)?,
                None => IntRange::new(2, 3),
            };
            let gap = match get(&flags, "me-gap") {
                Some(raw) => parse_range(raw)?,
                None => IntRange::new(1, 8),
            };
            let table = generate(&SyntheticConfig {
                tuples,
                correlation: rho,
                score_std: sigma,
                me_policy: MePolicy {
                    group_size,
                    gap,
                    portion: 1.0,
                },
                seed,
                ..SyntheticConfig::default()
            })
            .map_err(|e| e.to_string())?;
            // Export as a flat relation: score column + probability + group.
            let schema = Schema::default().with("score", DataType::Float);
            let mut out = PTable::new("synthetic", schema);
            for pos in 0..table.len() {
                let t = table.tuple(pos);
                let group_label = {
                    let members = table.group_members(pos);
                    (members.len() > 1).then(|| format!("g{}", table.group_index(pos)))
                };
                out.insert(vec![t.score().into()], t.prob(), group_label.as_deref())
                    .map_err(|e| e.to_string())?;
            }
            out
        }
        other => return Err(format!("unknown dataset kind `{other}`")),
    };
    let shards = get_parse(&flags, "shards", 1usize)?;
    if shards > 1 {
        let out = get(&flags, "out")
            .ok_or("--shards needs --out FILE (used as the shard file name template)")?;
        for (index, part) in split_rows_round_robin(&table, shards)?.iter().enumerate() {
            let path = shard_path(out, index);
            std::fs::write(&path, table_to_csv(part, &CsvOptions::default()))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        println!(
            "wrote {} rows as {shards} shard files: {} .. {}",
            table.len(),
            shard_path(out, 0),
            shard_path(out, shards - 1)
        );
        return Ok(());
    }
    let csv = table_to_csv(&table, &CsvOptions::default());
    match get(&flags, "out") {
        Some(path) => std::fs::write(path, csv).map_err(|e| e.to_string())?,
        None => print!("{csv}"),
    }
    Ok(())
}

/// Partitions a table's rows round-robin into `shards` tables sharing its
/// schema (and therefore its global group-key strings).
fn split_rows_round_robin(table: &PTable, shards: usize) -> Result<Vec<PTable>, String> {
    let mut parts: Vec<PTable> = (0..shards)
        .map(|i| PTable::new(format!("{}_shard{i}", table.name()), table.schema().clone()))
        .collect();
    for (i, row) in table.rows().iter().enumerate() {
        parts[i % shards]
            .insert(row.values.clone(), row.probability, row.group.as_deref())
            .map_err(|e| e.to_string())?;
    }
    Ok(parts)
}

/// Names shard file `index` after the `--out` template: `area.csv` becomes
/// `area.shard0.csv`, an extension-less name gets `.shard0` appended. Only
/// the file-name component is rewritten, so dots in directory names are left
/// alone.
fn shard_path(out: &str, index: usize) -> String {
    let path = std::path::Path::new(out);
    let file = path
        .file_name()
        .map(|f| f.to_string_lossy().into_owned())
        .unwrap_or_default();
    let sharded = match file.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() => format!("{stem}.shard{index}.{ext}"),
        _ => format!("{file}.shard{index}"),
    };
    path.with_file_name(sharded).to_string_lossy().into_owned()
}

/// Parses a `--batch` specification: `1,5,10` or `LO:HI` (inclusive).
fn parse_k_list(raw: &str) -> Result<Vec<usize>, String> {
    if let Some((lo, hi)) = raw.split_once(':') {
        let lo: usize = lo
            .parse()
            .map_err(|_| format!("invalid batch range `{raw}`"))?;
        let hi: usize = hi
            .parse()
            .map_err(|_| format!("invalid batch range `{raw}`"))?;
        if lo == 0 || lo > hi {
            return Err(format!("empty batch range `{raw}`"));
        }
        return Ok((lo..=hi).collect());
    }
    let ks: Vec<usize> = raw
        .split(',')
        .map(|part| part.trim().parse())
        .collect::<Result<_, _>>()
        .map_err(|_| format!("invalid batch list `{raw}`"))?;
    if ks.contains(&0) {
        return Err(format!("batch list `{raw}` must contain positive k values"));
    }
    Ok(ks)
}

/// The query-shape flags shared by `ttk query` and `ttk explain`.
struct QuerySpec {
    topk: TopkQuery,
    expression_text: String,
}

/// Parses the query-shape flags alone (k, c, p-tau, max-lines, algorithm) —
/// everything a `--server` query ships over the wire, where no local
/// scoring expression applies.
fn parse_topk_params(flags: &Flags, k: usize) -> Result<TopkQuery, String> {
    let c = get_parse(flags, "c", 3usize)?;
    let p_tau = get_parse(flags, "p-tau", 1e-3f64)?;
    let max_lines = get_parse(flags, "max-lines", 200usize)?;
    let algorithm = match get(flags, "algorithm") {
        None | Some("main") => Algorithm::Main,
        Some("per-ending") => Algorithm::MainPerEnding,
        Some("state-expansion") => Algorithm::StateExpansion,
        Some("k-combo") => Algorithm::KCombo,
        Some(other) => return Err(format!("unknown algorithm `{other}`")),
    };
    Ok(TopkQuery::new(k)
        .with_typical_count(c)
        .with_p_tau(p_tau)
        .with_max_lines(max_lines)
        .with_algorithm(algorithm))
}

/// Parses the query-parameter flags (everything except the input form).
fn parse_query_spec(flags: &Flags, k: usize) -> Result<QuerySpec, String> {
    let score = get(flags, "score").ok_or("--score is required")?;
    Ok(QuerySpec {
        topk: parse_topk_params(flags, k)?,
        expression_text: score.to_string(),
    })
}

/// Rejects the local-input flags that conflict with `--server` mode, where
/// the whole query ships to the daemon's resident, already-scored dataset.
fn reject_local_input_flags(positional: &[String], flags: &Flags) -> Result<(), String> {
    if !positional.is_empty()
        || get(flags, "file").is_some()
        || flags.contains_key("shard")
        || flags.contains_key("remote-shard")
        || get(flags, "spill-buffer").is_some()
    {
        return Err(
            "--server ships the whole query to the daemon's resident dataset; drop the local \
             input flags (positional file, --file, --shard, --remote-shard, --spill-buffer)"
                .to_string(),
        );
    }
    if get(flags, "score").is_some() {
        return Err(
            "--server queries run against the daemon's already-scored dataset; drop --score \
             (the scoring expression was fixed when the server loaded the dataset)"
                .to_string(),
        );
    }
    Ok(())
}

/// The `--server`/`--dataset` client of `query`/`explain`.
fn server_query_client(server: &str, flags: &Flags) -> Result<(RemoteQueryClient, String), String> {
    let dataset = get(flags, "dataset")
        .ok_or("--server queries name a resident dataset: add --dataset NAME")?
        .to_string();
    let client = RemoteQueryClient::new(server).with_connect_options(parse_connect_options(flags)?);
    Ok((client, dataset))
}

/// The remote-dial options of `query`/`explain`: `--remote-timeout SECS`
/// bounds both the connect and the per-read wait on every shard server
/// connection, `--remote-retries N` sets how many times a failed dial or
/// lost handshake is retried (exponential backoff between attempts).
fn parse_connect_options(flags: &Flags) -> Result<ConnectOptions, String> {
    let mut connect = ConnectOptions::default();
    if let Some(raw) = get(flags, "remote-timeout") {
        let secs: f64 = raw
            .parse()
            .map_err(|_| format!("invalid value `{raw}` for --remote-timeout"))?;
        let timeout = Duration::try_from_secs_f64(secs)
            .ok()
            .filter(|t| !t.is_zero())
            .ok_or_else(|| {
                format!("--remote-timeout must be a positive number of seconds, got `{raw}`")
            })?;
        connect = connect.with_timeout(timeout);
    }
    connect.retries = get_parse(flags, "remote-retries", connect.retries)?;
    Ok(connect)
}

/// The CSV metadata-column options from the shared flags.
fn parse_csv_options(flags: &Flags) -> CsvOptions {
    CsvOptions {
        probability_column: get(flags, "prob-column")
            .unwrap_or("probability")
            .to_string(),
        group_column: Some(
            get(flags, "group-column")
                .unwrap_or("group_key")
                .to_string(),
        ),
    }
}

/// Resolves the input flags of `query`/`explain`/`serve-shard` to exactly
/// one [`Dataset`].
///
/// The input forms — a single CSV file (positional or `--file`), a shard
/// set (repeatable `--shard`), the out-of-core scan of a single file
/// (`--spill-buffer`) and remote shard servers (repeatable `--remote-shard`,
/// mixable with `--shard`) — are mutually constrained; any conflicting
/// combination is rejected with one error naming the dataset kind each flag
/// resolves to. `serving` marks the serve-shard mode, whose flag table has
/// no `--remote-shard`: group keys are hashed so independently-served
/// shards agree on ME groups without coordination.
fn resolve_dataset(
    positional: &[String],
    flags: &Flags,
    csv_options: &CsvOptions,
    score: &str,
    serving: bool,
) -> Result<Dataset, String> {
    let shard_files: Vec<String> = flags.get("shard").cloned().unwrap_or_default();
    let remote_shards: Vec<String> = flags.get("remote-shard").cloned().unwrap_or_default();
    let flag_file = get(flags, "file");
    if positional.len() > 1 {
        return Err(format!(
            "unexpected extra positional arguments {:?}: a query scans one dataset — pass a \
             single CSV file, or use --shard (repeatable) for the shard files of one \
             partitioned relation",
            &positional[1..]
        ));
    }
    let positional_file = positional.first().map(String::as_str);
    let spill_buffer = get_parse(flags, "spill-buffer", 0usize)?;
    let id_base = get_parse(flags, "id-base", 0u64)?;
    let expression = parse_expression(score).map_err(|e| e.to_string())?;

    if let (Some(p), Some(f)) = (positional_file, flag_file) {
        return Err(format!(
            "conflicting input flags: the positional argument `{p}` and --file `{f}` both \
             resolve to a single-file CSV dataset; pass the file once"
        ));
    }
    let file = flag_file.or(positional_file);

    if !remote_shards.is_empty() {
        if let Some(file) = file {
            return Err(format!(
                "conflicting input flags: `{file}` resolves to a single-file CSV dataset, \
                 but --remote-shard was also given ({} servers resolving to a remote shard \
                 dataset); use --shard for local shards merged with remote ones",
                remote_shards.len()
            ));
        }
        if spill_buffer > 0 {
            return Err(
                "conflicting input flags: --spill-buffer configures the external sort of a \
                 single-file CSV dataset, but the input resolved to a remote shard dataset; \
                 spill on the serving side (ttk serve-shard --spill-buffer) instead"
                    .to_string(),
            );
        }
        let mut dataset = RemoteShardDataset::new(remote_shards)
            .with_connect_options(parse_connect_options(flags)?)
            .with_pushdown(!flags.contains_key("no-pushdown"))
            .with_bound_update_every(get_parse(flags, "bound-update-every", 64u64)?.max(1));
        if !shard_files.is_empty() {
            // Local shards merged into the same relation: hashed group keys
            // (matching the serving side) and the caller-provided id base.
            // Wrapped in a CsvDataset so the scoring pass is cached — every
            // open (e.g. each job of a --batch) replays the cached sources
            // as one pre-merged stream instead of re-reading the files.
            let count = shard_files.len();
            let local = CsvDataset::from_shard_paths(shard_files, csv_options.clone(), expression)
                .with_import(ShardImportOptions {
                    first_tuple_id: id_base,
                    hashed_group_keys: true,
                });
            dataset = dataset.with_local_shards(count, move || {
                Ok(vec![Box::new(local.open()?) as Box<dyn TupleSource + Send>])
            });
        }
        return Ok(dataset.into_dataset());
    }

    let import = ShardImportOptions {
        first_tuple_id: id_base,
        hashed_group_keys: serving,
    };
    match (file, shard_files.is_empty()) {
        (Some(file), false) => Err(format!(
            "conflicting input flags: `{file}` resolves to a single-file CSV dataset, but \
             --shard was also given ({} shard files resolving to a sharded CSV dataset); \
             pass exactly one input form",
            shard_files.len()
        )),
        (None, true) => Err(
            "no input: pass a CSV file (positional or --file), --shard files, or \
             --remote-shard servers"
                .to_string(),
        ),
        (Some(file), true) => {
            let dataset =
                CsvDataset::from_path(file, csv_options.clone(), expression).with_import(import);
            Ok(if spill_buffer > 0 {
                dataset
                    .with_spill(SpillOptions::with_run_buffer(spill_buffer))
                    .map_err(|e| e.to_string())?
                    .into_dataset()
            } else {
                dataset.into_dataset()
            })
        }
        (None, false) => {
            if spill_buffer > 0 {
                return Err(format!(
                    "conflicting input flags: --spill-buffer configures the external sort of \
                     a single-file CSV dataset, but the input resolved to a sharded CSV \
                     dataset ({} --shard files, loaded as in-memory shard streams); drop \
                     --spill-buffer or pass a single file",
                    shard_files.len()
                ));
            }
            Ok(
                CsvDataset::from_shard_paths(shard_files, csv_options.clone(), expression)
                    .with_import(import)
                    .into_dataset(),
            )
        }
    }
}

/// Set by the SIGINT/SIGTERM handler; the daemon runtime's drain watcher
/// polls it, and the daemon drains in-flight connections instead of dying
/// mid-stream.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Installs the graceful-shutdown signal handler (SIGINT + SIGTERM). The
/// first signal requests a drain (an async-signal-safe atomic store); a
/// second signal exits immediately — the escape hatch when the drain is
/// held up by a worker blocked on a client that will never read.
#[cfg(unix)]
fn install_shutdown_handler() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn _exit(status: i32) -> !;
    }
    extern "C" fn mark_shutdown(_signal: i32) {
        if SHUTDOWN.swap(true, Ordering::SeqCst) {
            // Second signal: the operator insists. `_exit` is
            // async-signal-safe; 130 is the conventional fatal-signal code.
            unsafe { _exit(130) }
        }
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal`/`_exit` are provided by the C library std already
    // links; the handler is async-signal-safe (atomic swap, `_exit`).
    unsafe {
        signal(SIGINT, mark_shutdown);
        signal(SIGTERM, mark_shutdown);
    }
}

#[cfg(not(unix))]
fn install_shutdown_handler() {}

/// The optional per-socket write timeout of a daemon (`--write-timeout-ms`,
/// default 0 = off): how long a worker's blocked reply write may stall on a
/// client that stopped reading before the connection is shed and the worker
/// freed.
fn parse_write_timeout(flags: &Flags) -> Result<Option<Duration>, String> {
    Ok(match get_parse(flags, "write-timeout-ms", 0u64)? {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    })
}

/// Counts the data records of the CSV files an input form resolves to — the
/// row count a serve-shard daemon registers with the coordinator, obtained
/// without scoring the relation. Delegates to
/// [`ttk_pdb::count_csv_records`], which shares the record discipline of
/// every import path, so the leased id range always covers exactly the rows
/// the (leased) scoring pass then assigns.
fn count_input_rows(positional: &[String], flags: &Flags) -> Result<u64, String> {
    let mut paths: Vec<&str> = Vec::new();
    if let Some(file) = get(flags, "file").or(positional.first().map(String::as_str)) {
        paths.push(file);
    }
    if let Some(shards) = flags.get("shard") {
        paths.extend(shards.iter().map(String::as_str));
    }
    if paths.is_empty() {
        return Err("no input to count rows of".to_string());
    }
    let mut rows = 0u64;
    for path in paths {
        let file = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        rows += count_csv_records(std::io::BufReader::new(file))
            .map_err(|e| format!("cannot count rows of {path}: {e}"))?;
    }
    Ok(rows)
}

/// Registers with the coordinator at `coordinator` and returns the leased
/// `(id base, namespace)`. The coordinator may still be starting (daemons
/// and coordinator are typically launched together), so the registration
/// dial retries briefly with exponential backoff.
fn obtain_lease(coordinator: &str, rows: u64, label: &str) -> Result<ShardAssignment, String> {
    let options = ConnectOptions::default()
        .with_timeout(Duration::from_secs(10))
        .with_retries(5)
        .with_backoff(Duration::from_millis(50));
    let action = format!("registering with coordinator {coordinator}");
    remote::retry(&options, &action, "remote registration failed", || {
        let stream = remote::connect(coordinator, &options)?;
        wire::write_register(&mut (&stream), rows, label)?;
        wire::read_lease(&mut (&stream))
    })
    .map_err(|e| e.to_string())
}

/// The `ttk serve-shard` handler on the shared daemon runtime: every
/// connection gets a fresh replay of the resolved dataset through
/// [`serve_stream`] — the gate-bounded prefix for a client announcing
/// `k > 0`, the full replay for `k = 0` — behind a hello advertising the
/// daemon's assignment when it holds one. Failures — a poisoned socket, a
/// dataset open error, a refused opening frame — are isolated to their
/// connection by the runtime.
struct ShardHandler {
    dataset: Dataset,
    assignment: Option<ShardAssignment>,
}

impl ConnectionHandler for ShardHandler {
    type Worker = ();

    fn worker(&self, _worker_id: usize) {}

    fn serve(
        &self,
        _worker: &mut (),
        stream: TcpStream,
        _control: &DaemonControl<'_>,
    ) -> Result<String, String> {
        self.dataset
            .open()
            .and_then(|mut handle| {
                let options = ServeOptions::default();
                serve_stream(stream, &mut handle, self.assignment.as_ref(), &options)
            })
            .map(|summary| {
                format!(
                    "scanned {} rows, shipped {} tuples, stopped: {} ({})",
                    summary.scanned,
                    summary.shipped,
                    summary.reason,
                    if summary.pushdown {
                        "scan-gate pushdown"
                    } else {
                        "full replay"
                    }
                )
            })
            // A failing replay (or a peer violating the protocol) is normal
            // operation for a streaming server, not a reason to exit.
            .map_err(|e| e.to_string())
    }
}

/// `ttk serve-shard`: score the resolved dataset once, then serve it as a
/// long-lived concurrent daemon — a framed binary tuple stream over TCP,
/// one full replay per accepted connection (replayable datasets cache their
/// scoring pass / spill index, so replays are cheap), up to `--max-parallel`
/// connections at once. Exits after `--max-conns` connections or on
/// SIGINT/SIGTERM, joining in-flight connections first; a slow or dead
/// client only ever costs its own worker thread.
fn cmd_serve_shard(args: &[String]) -> Result<(), String> {
    let (positional, mut flags) = parse_args(&SERVE_SHARD, args)?;
    let score = get(&flags, "score")
        .ok_or("--score is required")?
        .to_string();
    let listen = get(&flags, "listen")
        .ok_or("--listen HOST:PORT is required")?
        .to_string();
    let max_conns = get_parse(&flags, "max-conns", 0usize)?;
    let max_parallel = get_parse(&flags, "max-parallel", 8usize)?;
    if max_parallel == 0 {
        return Err("--max-parallel must be at least 1".to_string());
    }
    let csv_options = parse_csv_options(&flags);

    // The daemon's assignment: a coordinator lease (id base + namespace),
    // or an operator-pinned namespace with the operator's --id-base. Served
    // in every hello so clients can cross-check their shard set; absent
    // both, the hello asserts nothing.
    let assignment: Option<ShardAssignment> = match get(&flags, "coordinator") {
        Some(coordinator) => {
            if get(&flags, "id-base").is_some() {
                return Err(
                    "conflicting flags: --coordinator leases the id base; drop --id-base"
                        .to_string(),
                );
            }
            if get(&flags, "namespace").is_some() {
                return Err(
                    "conflicting flags: --coordinator leases the namespace (set it on the \
                     coordinator with `ttk coordinator --namespace`); drop --namespace"
                        .to_string(),
                );
            }
            let rows = count_input_rows(&positional, &flags)?;
            let label = positional
                .first()
                .map(String::as_str)
                .or_else(|| get(&flags, "file"))
                .unwrap_or("shard set")
                .to_string();
            let lease = obtain_lease(coordinator, rows, &label)?;
            eprintln!(
                "leased id base {} in namespace `{}` from {coordinator} ({rows} rows)",
                lease.id_base, lease.namespace
            );
            // The scoring pass below places rows at the leased id base.
            flags.insert("id-base".to_string(), vec![lease.id_base.to_string()]);
            Some(lease)
        }
        None => get(&flags, "namespace")
            .map(|namespace| {
                Ok::<_, String>(ShardAssignment {
                    id_base: get_parse(&flags, "id-base", 0u64)?,
                    namespace: namespace.to_string(),
                })
            })
            .transpose()?,
    };

    let dataset = resolve_dataset(&positional, &flags, &csv_options, &score, true)?;

    let (listener, bound) = bind_daemon_listener(&listen, get(&flags, "port-file"))?;
    install_shutdown_handler();
    eprintln!(
        "serving dataset `{}` on {bound} ({max_parallel} parallel connections{})",
        dataset.label(),
        if max_conns > 0 {
            format!(", exiting after {max_conns}")
        } else {
            String::new()
        }
    );

    let handler = ShardHandler {
        dataset,
        assignment,
    };
    let daemon_options = DaemonOptions {
        workers: max_parallel,
        max_conns,
        write_timeout: parse_write_timeout(&flags)?,
        // Streaming clients block on their replay anyway: when every worker
        // is busy the flood waits in the listen backlog, as it always has.
        shed: ShedPolicy::Block,
    };
    run_daemon(&listener, &handler, &daemon_options, &SHUTDOWN)?;
    Ok(())
}

/// Builds the loader that (re-)imports `path` with the daemon's CSV options
/// and score expression. Registered alongside every file-backed dataset so
/// the admin plane's `reload` verb can re-import it without a restart, and
/// the building block of the admin `register` importer.
fn csv_loader(path: String, csv_options: CsvOptions, expression: Expr) -> DatasetLoader {
    Box::new(move || {
        let csv = CsvDataset::from_path(path.clone(), csv_options.clone(), expression.clone());
        csv.warm()
            .map_err(|e| ttk_uncertain::Error::Source(format!("cannot load {path}: {e}")))?;
        Ok(csv.into_dataset())
    })
}

/// The `ttk serve` handler on the shared daemon runtime: each worker owns
/// one plan-once/run-many [`Session`], and every connection — a query, an
/// append, a subscription or an admin request — is answered by
/// [`serve_client`] from the shared registry and result cache. When every
/// worker stays busy, shed connections get a busy/retry-after frame.
struct QueryHandler {
    registry: DatasetRegistry,
    cache: ResultCache,
    options: QueryServeOptions,
}

impl ConnectionHandler for QueryHandler {
    type Worker = Session;

    fn worker(&self, _worker_id: usize) -> Session {
        Session::new()
    }

    fn serve(
        &self,
        session: &mut Session,
        stream: TcpStream,
        control: &DaemonControl<'_>,
    ) -> Result<String, String> {
        // Per-connection error isolation: a stalled client, a garbled
        // request or a failing execution is logged and the worker moves on.
        serve_client(
            stream,
            &self.registry,
            &self.cache,
            session,
            &self.options,
            control.shutdown_flag(),
        )
        .map(|outcome| outcome.to_string())
        .map_err(|e| e.to_string())
    }

    fn shed(&self, stream: &TcpStream, retry_after_ms: u64) {
        let _ = wire::write_busy(&mut &*stream, retry_after_ms);
    }
}

/// `ttk serve`: a resident-dataset query daemon. Each `NAME=FILE.csv`
/// positional is scored once at startup (failing fast on bad inputs) and
/// registered under its name; a bounded pool of workers — each owning one
/// plan-once/run-many [`Session`] — answers whole queries over the wire,
/// consulting a shared LRU result cache so repeated (dataset, algorithm,
/// k, pτ) queries skip execution entirely. Connections are handed to
/// workers over a rendezvous channel: when every worker is busy the accept
/// loop stops accepting and the flood queues in the listen backlog
/// (admission control), and a stalled client is dropped after
/// `--request-wait-ms` so it only ever costs its own worker. Exits after
/// `--max-conns` accepted connections or on SIGINT/SIGTERM, draining
/// in-flight queries first.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    /// Handoff polls (5 ms apart) before a connection nobody can serve is
    /// shed with a busy frame instead of waiting for a worker.
    const BUSY_GRACE_POLLS: usize = 10;
    /// The retry-after hint stamped into shed busy frames.
    const BUSY_RETRY_AFTER_MS: u64 = 100;
    let (positional, flags) = parse_args(&SERVE, args)?;
    let live_names: Vec<String> = flags.get("live").cloned().unwrap_or_default();
    let listen = get(&flags, "listen")
        .ok_or("--listen HOST:PORT is required")?
        .to_string();
    if positional.is_empty() && live_names.is_empty() {
        return Err(
            "no datasets: pass NAME=FILE.csv positionals naming the datasets to keep resident, \
             or --live NAME for growing datasets fed by `ttk append`"
                .to_string(),
        );
    }
    let max_conns = get_parse(&flags, "max-conns", 0usize)?;
    let max_parallel = get_parse(&flags, "max-parallel", 4usize)?;
    if max_parallel == 0 {
        return Err("--max-parallel must be at least 1".to_string());
    }
    let cache_entries = get_parse(&flags, "cache-entries", 64usize)?;
    let seal_every = get_parse(&flags, "seal-every", 1024usize)?;
    if seal_every == 0 {
        return Err("--seal-every must be at least 1".to_string());
    }
    let compact_at = get_parse(&flags, "compact-at", 0usize)?;
    if compact_at == 1 {
        return Err("--compact-at must be 0 (disabled) or at least 2 sealed segments".to_string());
    }
    let cache_ttl = match get_parse(&flags, "cache-ttl-ms", 0u64)? {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    };
    let serve_options = QueryServeOptions {
        request_wait: Duration::from_millis(get_parse(&flags, "request-wait-ms", 10_000u64)?),
        ..QueryServeOptions::default()
    };
    let csv_options = parse_csv_options(&flags);
    let expression = get(&flags, "score")
        .map(|score| parse_expression(score).map_err(|e| e.to_string()))
        .transpose()?;

    let mut registry = DatasetRegistry::new();
    if !positional.is_empty() {
        let expression = expression
            .clone()
            .ok_or("--score is required to score the NAME=FILE.csv datasets")?;
        for spec in &positional {
            let (name, path) = spec.split_once('=').ok_or_else(|| {
                format!(
                    "expected NAME=FILE.csv, got `{spec}` (name the dataset clients will query)"
                )
            })?;
            if name.is_empty() || path.is_empty() {
                return Err(format!("expected NAME=FILE.csv, got `{spec}`"));
            }
            let csv = CsvDataset::from_path(path, csv_options.clone(), expression.clone());
            // Warm eagerly: a missing file or malformed CSV fails the daemon
            // here, before it accepts a query, and the scoring pass is cached
            // so the first query opens warm.
            csv.warm()
                .map_err(|e| format!("cannot load dataset `{name}` from {path}: {e}"))?;
            let dataset = csv.into_dataset().with_label(name);
            // The loader lets the admin plane's `reload` verb re-import this
            // dataset from its original path without a restart.
            let loader = csv_loader(path.to_string(), csv_options.clone(), expression.clone());
            let id = registry
                .register_with_loader(name, dataset, loader)
                .map_err(|e| e.to_string())?;
            eprintln!("dataset `{name}` resident from {path} (dataset id {id})");
        }
    }
    for name in &live_names {
        let log = Arc::new(AppendLog::new(seal_every).with_compact_at(compact_at));
        let id = registry
            .register_live(name, log)
            .map_err(|e| e.to_string())?;
        eprintln!(
            "dataset `{name}` live (append-only, auto-seals every {seal_every} staged rows{}, \
             dataset id {id})",
            if compact_at > 0 {
                format!(", compacts past {compact_at} sealed segments")
            } else {
                String::new()
            }
        );
    }
    // With a score expression the daemon can import datasets at runtime:
    // the admin plane's `register NAME=FILE.csv` verb scores the server-side
    // file exactly like a startup NAME=FILE.csv positional.
    if let Some(expression) = expression {
        let importer_options = csv_options.clone();
        registry.set_importer(Box::new(move |path| {
            let loader = csv_loader(
                path.to_string(),
                importer_options.clone(),
                expression.clone(),
            );
            let dataset = loader()?;
            Ok((dataset, loader))
        }));
    }
    let registry = registry;
    let cache = ResultCache::new(cache_entries).with_ttl(cache_ttl);
    let (listener, bound) = bind_daemon_listener(&listen, get(&flags, "port-file"))?;
    install_shutdown_handler();
    eprintln!(
        "serving {} resident dataset(s) on {bound} ({max_parallel} workers, result cache of \
         {cache_entries} entries{})",
        registry.len(),
        if max_conns > 0 {
            format!(", exiting after {max_conns} connections")
        } else {
            String::new()
        }
    );

    let handler = QueryHandler {
        registry,
        cache,
        options: serve_options,
    };
    let daemon_options = DaemonOptions {
        workers: max_parallel,
        max_conns,
        write_timeout: parse_write_timeout(&flags)?,
        // A pool that stays busy through the whole grace window sheds the
        // connection with a busy/retry-after frame instead of parking it —
        // the client retries with backoff, and the daemon never accumulates
        // a queue of connections nobody is draining.
        shed: ShedPolicy::Busy {
            grace_polls: BUSY_GRACE_POLLS,
            retry_after_ms: BUSY_RETRY_AFTER_MS,
        },
    };
    run_daemon(&listener, &handler, &daemon_options, &SHUTDOWN)?;
    eprintln!(
        "result cache: {} hits, {} misses, {} evictions, {} expirations",
        handler.cache.hits(),
        handler.cache.misses(),
        handler.cache.evictions(),
        handler.cache.expirations()
    );
    Ok(())
}

/// The `ttk coordinator` handler on the shared daemon runtime. A pool of
/// exactly one worker processes registrations strictly in arrival order, so
/// the id ranges of the registered shards stay contiguous and
/// non-overlapping; the worker owns the [`LeaseRegistry`] plus the count of
/// leases *delivered* (lease frame written without error). A registrant
/// dying mid-exchange advances the id watermark — re-leasing a range the
/// peer may have received risks overlap, while a gap in the id space is
/// harmless — but must not count toward `--max-leases`, or a failed
/// delivery would exit the coordinator before every daemon got a lease.
struct CoordinatorHandler {
    namespace: String,
    max_leases: usize,
}

impl ConnectionHandler for CoordinatorHandler {
    type Worker = (LeaseRegistry, usize);

    fn worker(&self, _worker_id: usize) -> (LeaseRegistry, usize) {
        (LeaseRegistry::new(self.namespace.clone()), 0)
    }

    fn serve(
        &self,
        worker: &mut (LeaseRegistry, usize),
        stream: TcpStream,
        control: &DaemonControl<'_>,
    ) -> Result<String, String> {
        let (registry, delivered) = worker;
        // Per-registration error isolation: a malformed, stalled or foreign
        // registrant is answered with an error frame, logged and dropped; it
        // never kills the lease loop (the read timeout bounds how long it
        // can stall the line).
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        let (rows, label) = match wire::read_client_request(&mut (&stream)) {
            Ok(wire::ClientRequest::Register { rows, label }) => Ok((rows, label)),
            Ok(other) => Err(format!("a coordinator does not serve a {}", other.name())),
            Err(e) => Err(e.to_string()),
        }
        .inspect_err(|refusal| {
            let _ = wire::write_error(&mut (&stream), refusal);
        })?;
        let lease = registry.register(rows);
        wire::write_lease(&mut (&stream), &lease).map_err(|e| e.to_string())?;
        *delivered += 1;
        if self.max_leases > 0 && *delivered >= self.max_leases {
            eprintln!("--max-leases reached after {delivered} leases");
            control.request_drain();
        }
        Ok(format!(
            "leased id base {} (`{label}`, {rows} rows)",
            lease.id_base
        ))
    }
}

/// `ttk coordinator`: hands out `(id base, namespace)` leases to
/// registering `serve-shard` daemons. Registrations are a two-frame
/// exchange (register in, lease out) processed in arrival order, so the id
/// ranges of the registered shards are contiguous and non-overlapping —
/// exactly the arithmetic operators previously did by hand with --id-base.
fn cmd_coordinator(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse_args(&COORDINATOR, args)?;
    if !positional.is_empty() {
        return Err(format!(
            "unexpected positional arguments {positional:?}: the coordinator serves leases, \
             not data"
        ));
    }
    let listen = get(&flags, "listen").ok_or("--listen HOST:PORT is required")?;
    let namespace = get(&flags, "namespace")
        .unwrap_or("ttk-coordinated")
        .to_string();
    let max_leases = get_parse(&flags, "max-leases", 0usize)?;

    let (listener, bound) = bind_daemon_listener(listen, get(&flags, "port-file"))?;
    install_shutdown_handler();
    eprintln!("coordinating namespace `{namespace}` on {bound}");

    let handler = CoordinatorHandler {
        namespace,
        max_leases,
    };
    let daemon_options = DaemonOptions {
        workers: 1,
        max_conns: 0,
        write_timeout: parse_write_timeout(&flags)?,
        shed: ShedPolicy::Block,
    };
    run_daemon(&listener, &handler, &daemon_options, &SHUTDOWN)?;
    Ok(())
}

/// `ttk admin`: ships one management verb to a running `ttk serve` daemon
/// over the admin plane and prints the server's report.
fn cmd_admin(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse_args(&ADMIN, args)?;
    let server = get(&flags, "server").ok_or("--server HOST:PORT is required")?;
    let mut words = positional.iter().map(String::as_str);
    let verb = words.next().ok_or(
        "missing admin verb: expected stats, register NAME=FILE.csv, unregister NAME, \
         reload NAME or compact NAME",
    )?;
    let mut named = |verb: wire::AdminVerb| -> Result<wire::AdminRequest, String> {
        let name = words
            .next()
            .ok_or_else(|| format!("{verb} needs a dataset NAME"))?;
        Ok(wire::AdminRequest {
            verb,
            name: name.to_string(),
            arg: String::new(),
        })
    };
    let request = match verb {
        "stats" => wire::AdminRequest {
            verb: wire::AdminVerb::Stats,
            name: String::new(),
            arg: String::new(),
        },
        "register" => {
            let spec = words.next().ok_or("register needs NAME=FILE.csv")?;
            let (name, path) = spec
                .split_once('=')
                .ok_or_else(|| format!("expected NAME=FILE.csv, got `{spec}`"))?;
            if name.is_empty() || path.is_empty() {
                return Err(format!("expected NAME=FILE.csv, got `{spec}`"));
            }
            wire::AdminRequest {
                verb: wire::AdminVerb::Register,
                name: name.to_string(),
                arg: path.to_string(),
            }
        }
        "unregister" => named(wire::AdminVerb::Unregister)?,
        "reload" => named(wire::AdminVerb::Reload)?,
        "compact" => named(wire::AdminVerb::Compact)?,
        other => {
            return Err(format!(
                "unknown admin verb `{other}`: expected stats, register, unregister, \
                 reload or compact"
            ))
        }
    };
    if let Some(extra) = words.next() {
        return Err(format!("unexpected argument `{extra}` after {verb}"));
    }
    let client =
        RemoteQueryClient::new(server).with_connect_options(parse_connect_options(&flags)?);
    let report = client.admin(&request).map_err(|e| e.to_string())?;
    println!("{report}");
    Ok(())
}

/// One line summarising what was scanned, from the post-execution plan.
fn describe_scan(plan: &PlanDescription) -> String {
    let rows = plan
        .rows
        .map(|r| r.to_string())
        .unwrap_or_else(|| "?".to_string());
    match plan.path {
        ScanPath::InMemory => format!("{rows} rows (in-memory table) from {}", plan.dataset),
        ScanPath::Stream => format!("{rows} rows loaded from {}", plan.dataset),
        ScanPath::MergedShards { shards } => {
            format!(
                "{rows} rows loaded from {} ({shards} shard streams)",
                plan.dataset
            )
        }
        ScanPath::SpilledRuns {
            runs: Some(runs),
            spilled: Some(spilled),
            ..
        } => format!(
            "{rows} rows external-sorted from {} into {runs} runs ({spilled} spilled to disk)",
            plan.dataset
        ),
        ScanPath::SpilledRuns { .. } => {
            format!("{rows} rows from {} (external sort pending)", plan.dataset)
        }
        ScanPath::Remote { remote, local } => {
            if local > 0 {
                format!(
                    "{rows} rows merged from {remote} remote shard streams and {local} local \
                     shards ({})",
                    plan.dataset
                )
            } else {
                format!(
                    "{rows} rows streamed from {remote} remote shards ({})",
                    plan.dataset
                )
            }
        }
        ScanPath::RemotePushdown { remote, local } => {
            let blocks = match (plan.observed_wire_blocks, plan.mean_block_fill()) {
                (Some(blocks), Some(fill)) => {
                    format!(" in {blocks} blocks, mean fill {fill:.1}")
                }
                _ => String::new(),
            };
            let wire = plan
                .observed_wire_tuples
                .map(|n| format!(", {n} tuples observed over the wire{blocks}"))
                .unwrap_or_default();
            if local > 0 {
                format!(
                    "{rows} rows merged from {remote} remote shard streams (scan-gate \
                     pushdown{wire}) and {local} local shards ({})",
                    plan.dataset
                )
            } else {
                format!(
                    "{rows} rows streamed from {remote} remote shards (scan-gate \
                     pushdown{wire}) ({})",
                    plan.dataset
                )
            }
        }
        ScanPath::Live {
            segments,
            epoch,
            compacted_epoch,
        } => format!(
            "{rows} rows from the live snapshot at epoch {epoch} ({segments} sealed segments, \
             {}, {})",
            if compacted_epoch > 0 {
                format!("last compacted at epoch {compacted_epoch}")
            } else {
                "never compacted".to_string()
            },
            plan.dataset
        ),
        ScanPath::RemoteQuery => {
            let cache = match plan.server_cache_hit {
                Some(true) => ", server cache hit",
                Some(false) => ", server cache miss",
                None => "",
            };
            format!(
                "whole query answered by the serving daemon ({}{cache})",
                plan.dataset
            )
        }
    }
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse_args(&QUERY, args)?;
    let k = get_parse(&flags, "k", 0usize)?;
    let batch_ks = match get(&flags, "batch") {
        Some(raw) => Some(parse_k_list(raw)?),
        None => None,
    };
    if k == 0 && batch_ks.is_none() {
        return Err("--k (or --batch) is required and must be at least 1".to_string());
    }
    let buckets = parse_buckets(&flags)?;

    if let Some(server) = get(&flags, "server") {
        reject_local_input_flags(&positional, &flags)?;
        let (client, dataset) = server_query_client(server, &flags)?;
        let topk = parse_topk_params(&flags, k.max(1))?;
        if let Some(ks) = batch_ks {
            // The batch re-dials per k; repeated shapes land in the server's
            // result cache, so a re-run of the batch is answered cache-hot.
            let started = std::time::Instant::now();
            let answers: Vec<ttk_uncertain::Result<ttk_core::QueryAnswer>> = ks
                .iter()
                .map(|&batch_k| {
                    client
                        .execute(&dataset, &topk.with_k(batch_k))
                        .map(|remote| remote.answer)
                })
                .collect();
            println!(
                "batch served remotely from `{dataset}` on {}",
                client.addr()
            );
            print_batch_summary(&ks, &answers, started.elapsed(), 1);
            return Ok(());
        }
        let remote = client.execute(&dataset, &topk).map_err(|e| e.to_string())?;
        let plan = client.plan(&dataset, &topk, &remote);
        println!("{}", describe_scan(&plan));
        print_histogram(
            &remote.answer.distribution,
            buckets,
            &markers(&remote.answer),
        );
        print_answer_summary(&remote.answer);
        return Ok(());
    }

    let spec = parse_query_spec(&flags, k.max(1))?;
    let threads = get_parse(&flags, "threads", 0usize)?;
    let csv_options = parse_csv_options(&flags);
    let dataset = resolve_dataset(
        &positional,
        &flags,
        &csv_options,
        &spec.expression_text,
        false,
    )?;
    let mut session = Session::new();

    if let Some(ks) = batch_ks {
        let jobs: Vec<QueryJob> = ks
            .iter()
            .map(|&batch_k| QueryJob::new(&dataset, spec.topk.with_k(batch_k)))
            .collect();
        let started = std::time::Instant::now();
        let answers = session.execute_batch(&jobs, &BatchOptions::new().with_threads(threads));
        let plan = session.explain(&dataset, &spec.topk);
        println!(
            "{}; scoring expression: {}",
            describe_scan(&plan),
            spec.expression_text
        );
        print_batch_summary(&ks, &answers, started.elapsed(), threads);
        return Ok(());
    }

    let answer = session
        .execute(&dataset, &spec.topk)
        .map_err(|e| e.to_string())?;
    let plan = session.explain(&dataset, &spec.topk);
    println!(
        "{}; scoring expression: {}",
        describe_scan(&plan),
        spec.expression_text
    );
    print_histogram(&answer.distribution, buckets, &markers(&answer));
    print_answer_summary(&answer);
    Ok(())
}

/// Parses one `--row ID:SCORE:PROB[:GROUP]` spec into a scored row. A GROUP
/// label is hashed with the same FNV the CSV importer uses, so literal rows
/// and CSV-file appends naming the same group land in the same ME group.
fn parse_row_spec(raw: &str) -> Result<SourceTuple, String> {
    let mut parts = raw.splitn(4, ':');
    let bad = || format!("expected ID:SCORE:PROB[:GROUP], got `{raw}`");
    let id: u64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let score: f64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let prob: f64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let tuple = UncertainTuple::new(id, score, prob).map_err(|e| format!("row `{raw}`: {e}"))?;
    Ok(match parts.next() {
        Some(label) if !label.is_empty() => SourceTuple::grouped(tuple, stable_group_key(label)),
        _ => SourceTuple::independent(tuple),
    })
}

/// `ttk append`: ship scored rows to a live dataset of a `ttk serve` daemon.
/// Rows come either from repeatable `--row ID:SCORE:PROB[:GROUP]` literals
/// or from a local CSV scored with `--score` — exactly the scoring pass
/// `ttk serve` itself would run. `--seal` publishes the staged rows as a new
/// snapshot epoch in the same request.
fn cmd_append(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse_args(&APPEND, args)?;
    if !positional.is_empty() {
        return Err(format!(
            "unexpected positional arguments {positional:?}: appends name their input with \
             --row or --file"
        ));
    }
    let server = get(&flags, "server")
        .ok_or("--server HOST:PORT is required (appends go to a ttk serve daemon)")?;
    let dataset = get(&flags, "dataset")
        .ok_or("--dataset NAME is required: name the live dataset to append to")?
        .to_string();
    let seal = get(&flags, "seal").is_some();

    let row_specs: Vec<String> = flags.get("row").cloned().unwrap_or_default();
    let file = get(&flags, "file");
    let rows: Vec<SourceTuple> =
        match (row_specs.is_empty(), file) {
            (false, Some(_)) => return Err(
                "conflicting input flags: pass either --row literals or one --file CSV, not both"
                    .to_string(),
            ),
            (true, None) => {
                return Err(
                    "no rows: pass --row ID:SCORE:PROB[:GROUP] (repeatable) or --file DATA.csv \
                 --score EXPR"
                        .to_string(),
                )
            }
            (false, None) => {
                if get(&flags, "score").is_some() {
                    return Err(
                        "--score only applies to --file appends; --row literals carry their score"
                            .to_string(),
                    );
                }
                row_specs
                    .iter()
                    .map(|raw| parse_row_spec(raw))
                    .collect::<Result<_, _>>()?
            }
            (true, Some(path)) => {
                let score = get(&flags, "score")
                    .ok_or("--score is required to score the --file CSV before appending")?;
                let expression = parse_expression(score).map_err(|e| e.to_string())?;
                CsvDataset::from_path(path, parse_csv_options(&flags), expression)
                    .scored_rows()
                    .map_err(|e| format!("cannot score {path}: {e}"))?
            }
        };

    let accepted = rows.len();
    let client =
        RemoteQueryClient::new(server).with_connect_options(parse_connect_options(&flags)?);
    let ack = client
        .append(&dataset, rows, seal)
        .map_err(|e| e.to_string())?;
    println!(
        "appended {accepted} row(s) to `{dataset}` on {}: epoch {}, {} staged, {} rows visible{}",
        client.addr(),
        ack.epoch,
        ack.staged,
        ack.sealed_rows,
        if ack.sealed_now { " (sealed now)" } else { "" }
    );
    Ok(())
}

/// `ttk watch`: hold a standing top-k subscription against a live dataset.
/// The daemon pushes the answer once as a baseline and then again on every
/// epoch advance that actually shifted its distribution; `--pushes N` asks
/// the server to close the subscription after N pushes (0 = until either
/// side disconnects).
fn cmd_watch(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse_args(&WATCH, args)?;
    reject_local_input_flags(&positional, &flags)?;
    let server = get(&flags, "server")
        .ok_or("--server HOST:PORT is required (watch subscribes to a ttk serve daemon)")?;
    let k = get_parse(&flags, "k", 0usize)?;
    if k == 0 {
        return Err("--k is required and must be at least 1".to_string());
    }
    let buckets = parse_buckets(&flags)?;
    let (client, dataset) = server_query_client(server, &flags)?;
    let topk = parse_topk_params(&flags, k)?;
    let pushes = get_parse(&flags, "pushes", 0u64)?;

    let mut watch = client
        .watch(&dataset, &topk, pushes)
        .map_err(|e| e.to_string())?;
    println!(
        "watching `{dataset}` on {} (k = {k}{})",
        client.addr(),
        if pushes > 0 {
            format!(", closing after {pushes} push(es)")
        } else {
            String::new()
        }
    );
    let mut received = 0u64;
    while let Some(push) = watch.next_push().map_err(|e| e.to_string())? {
        received += 1;
        println!(
            "push {received}: epoch {}, answer hash {:016x}",
            push.epoch, push.answer_hash
        );
        print_histogram(&push.answer.distribution, buckets, &markers(&push.answer));
        print_answer_summary(&push.answer);
    }
    println!("subscription closed by the server after {received} push(es)");
    Ok(())
}

fn cmd_explain(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse_args(&EXPLAIN, args)?;
    let k = get_parse(&flags, "k", 1usize)?;
    if k == 0 {
        return Err("--k must be at least 1".to_string());
    }

    if let Some(server) = get(&flags, "server") {
        reject_local_input_flags(&positional, &flags)?;
        if get(&flags, "after").is_none() {
            return Err(
                "explain --server needs --after: the plan lives on the server, so the query \
                 must execute once for the daemon to report its observed scan depth and \
                 result-cache outcome"
                    .to_string(),
            );
        }
        let (client, dataset) = server_query_client(server, &flags)?;
        let topk = parse_topk_params(&flags, k)?;
        let remote = client.execute(&dataset, &topk).map_err(|e| e.to_string())?;
        let plan = client.plan(&dataset, &topk, &remote);
        println!("{plan}");
        if let Some(drift) = plan.observed_vs_estimated() {
            println!("cost-model drift (observed / estimated scan depth): {drift:.3}");
        }
        return Ok(());
    }

    let spec = parse_query_spec(&flags, k)?;
    let csv_options = parse_csv_options(&flags);
    let dataset = resolve_dataset(
        &positional,
        &flags,
        &csv_options,
        &spec.expression_text,
        false,
    )?;
    let mut session = Session::new();
    if get(&flags, "after").is_some() {
        // Execute once so the plan can report the observed scan depth (and
        // the cost model's drift) next to the estimate.
        session
            .execute(&dataset, &spec.topk)
            .map_err(|e| e.to_string())?;
    }
    let plan = session.explain(&dataset, &spec.topk);
    println!("{plan}");
    if let Some(drift) = plan.observed_vs_estimated() {
        println!("cost-model drift (observed / estimated scan depth): {drift:.3}");
    }
    Ok(())
}

/// Prints the per-k summary table of a batch run.
fn print_batch_summary(
    ks: &[usize],
    answers: &[ttk_uncertain::Result<ttk_core::QueryAnswer>],
    elapsed: std::time::Duration,
    threads: usize,
) {
    println!(
        "batch of {} queries executed in {:.3} s ({} worker threads)",
        ks.len(),
        elapsed.as_secs_f64(),
        if threads == 0 {
            "auto".to_string()
        } else {
            // The executor never spawns more workers than jobs.
            threads.min(ks.len()).to_string()
        }
    );
    println!(
        "{:>4}  {:>10}  {:>9}  {:>6}  {:>10}  typical scores",
        "k", "E[score]", "std dev", "depth", "U-Topk"
    );
    for (batch_k, answer) in ks.iter().zip(answers) {
        match answer {
            Ok(a) => {
                let u = a
                    .u_topk
                    .as_ref()
                    .map(|u| format!("{:.2}", u.vector.total_score()))
                    .unwrap_or_else(|| "-".to_string());
                let typical: Vec<String> = a
                    .typical
                    .scores()
                    .iter()
                    .map(|s| format!("{s:.2}"))
                    .collect();
                println!(
                    "{batch_k:>4}  {:>10.2}  {:>9.2}  {:>6}  {u:>10}  [{}]",
                    a.expected_score(),
                    a.distribution.std_dev(),
                    a.scan_depth,
                    typical.join(", ")
                );
            }
            Err(e) => println!("{batch_k:>4}  error: {e}"),
        }
    }
}

fn markers(answer: &ttk_core::QueryAnswer) -> Vec<(f64, String)> {
    let mut markers = Vec::new();
    if let Some(u) = &answer.u_topk {
        markers.push((u.vector.total_score(), "U-Topk".to_string()));
    }
    for (i, s) in answer.typical.scores().iter().enumerate() {
        markers.push((*s, format!("typical #{}", i + 1)));
    }
    markers
}

fn print_histogram(distribution: &ScoreDistribution, buckets: usize, markers: &[(f64, String)]) {
    let Some(lo) = distribution.min_score() else {
        println!("(empty distribution)");
        return;
    };
    let hi = distribution.max_score().unwrap_or(lo);
    let width = if hi > lo {
        (hi - lo) / buckets as f64
    } else {
        1.0
    };
    let Some(hist) = distribution.histogram(width) else {
        println!("(empty distribution)");
        return;
    };
    let max_mass = hist
        .buckets
        .iter()
        .cloned()
        .fold(f64::MIN_POSITIVE, f64::max);
    for (i, &mass) in hist.buckets.iter().enumerate() {
        let start = hist.bucket_start(i);
        let end = start + hist.width;
        let bar = "#".repeat(((mass / max_mass) * 50.0).round() as usize);
        let mut annotation = String::new();
        for (value, label) in markers {
            let in_last = i + 1 == hist.buckets.len() && *value >= start;
            if (*value >= start && *value < end) || in_last {
                annotation.push_str(&format!("  <-- {label} ({value:.1})"));
            }
        }
        println!("[{start:9.2}, {end:9.2})  {mass:6.4}  {bar}{annotation}");
    }
}

fn print_answer_summary(answer: &ttk_core::QueryAnswer) {
    println!();
    println!(
        "captured mass {:.4}, expected score {:.2}, std dev {:.2}, scan depth {}",
        answer.distribution.total_probability(),
        answer.expected_score(),
        answer.distribution.std_dev(),
        answer.scan_depth
    );
    println!("typical answers:");
    for t in &answer.typical.answers {
        match &t.vector {
            Some(v) => println!("  score {:10.2}  {}", t.score, v),
            None => println!(
                "  score {:10.2}  (probability {:.4})",
                t.score, t.probability
            ),
        }
    }
    if let Some(u) = &answer.u_topk {
        println!(
            "U-Topk: {} ({} positions evaluated, depth {})",
            u.vector, u.expansions, u.deepest_position
        );
        if let Some(p) = answer.u_topk_percentile() {
            println!("U-Topk score percentile within the distribution: {:.3}", p);
        }
    }
    println!(
        "distribution computed in {:.3} s, typical selection in {:.6} s",
        answer.distribution_time.as_secs_f64(),
        answer.typical_time.as_secs_f64()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    /// Polls for a `--port-file` until it appears. Port files are written
    /// atomically (temp file + rename), so any successful non-empty read is
    /// a complete address — the partial-read race of the non-atomic write
    /// is gone, which the parse below asserts.
    fn poll_port_file(pf: &std::path::Path) -> String {
        for _ in 0..500 {
            if let Ok(addr) = std::fs::read_to_string(pf) {
                if !addr.is_empty() {
                    addr.parse::<std::net::SocketAddr>()
                        .expect("an atomically-written port file holds a complete address");
                    return addr;
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        panic!("server did not write {pf:?}");
    }

    #[test]
    fn flag_parsing_separates_positionals_and_flags() {
        let (pos, flags) = parse_flags(&s(&["cartel", "--segments", "40", "--seed", "7"])).unwrap();
        assert_eq!(pos, vec!["cartel"]);
        assert_eq!(get(&flags, "segments"), Some("40"));
        assert_eq!(get(&flags, "seed"), Some("7"));
        assert!(parse_flags(&s(&["--oops"])).is_err());
        // Repeated flags accumulate in order; `get` returns the last value.
        let (_, flags) = parse_flags(&s(&[
            "--shard", "a.csv", "--shard", "b.csv", "--k", "1", "--k", "2",
        ]))
        .unwrap();
        assert_eq!(flags.get("shard").unwrap(), &vec!["a.csv", "b.csv"]);
        assert_eq!(get(&flags, "k"), Some("2"));
    }

    #[test]
    fn shard_paths_are_derived_from_the_out_template() {
        assert_eq!(shard_path("area.csv", 0), "area.shard0.csv");
        assert_eq!(shard_path("area.csv", 11), "area.shard11.csv");
        assert_eq!(shard_path("area", 2), "area.shard2");
        assert_eq!(shard_path(".hidden", 1), ".hidden.shard1");
        // Dots in directory components never attract the shard suffix.
        assert_eq!(shard_path("results.d/area", 0), "results.d/area.shard0");
        assert_eq!(shard_path("data/v1.2/a.csv", 3), "data/v1.2/a.shard3.csv");
    }

    #[test]
    fn flag_value_parsing_and_ranges() {
        let (_, flags) = parse_flags(&s(&["--k", "5"])).unwrap();
        assert_eq!(get_parse(&flags, "k", 0usize).unwrap(), 5);
        assert_eq!(get_parse(&flags, "missing", 3usize).unwrap(), 3);
        assert!(get_parse::<usize>(&flags, "k", 0).is_ok());
        let (_, bad) = parse_flags(&s(&["--k", "five"])).unwrap();
        assert!(get_parse::<usize>(&bad, "k", 0).is_err());
        assert_eq!(parse_range("2:10").unwrap(), IntRange::new(2, 10));
        assert!(parse_range("10:2").is_err());
        assert!(parse_range("abc").is_err());
    }

    #[test]
    fn unknown_commands_are_rejected_and_soldier_runs() {
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
        assert!(run(&s(&["soldier"])).is_ok());
    }

    #[test]
    fn unknown_flags_are_rejected_naming_the_flag_and_the_verb() {
        // Each case fails while parsing, before any file is read, any
        // address bound or any server dialled.
        let cases: [(&str, &[&str]); 11] = [
            ("--k", &["soldier", "--k", "3"]),
            (
                "--bogus",
                &["generate", "cartel", "--segments", "2", "--bogus", "1"],
            ),
            (
                "--prefetch",
                &["query", "--file", "x", "--score", "d", "--prefetch", "8"],
            ),
            (
                "--prefetch",
                &["query", "--file", "x", "--score", "d", "--prefetch"],
            ),
            (
                "--threads",
                &["explain", "--file", "x", "--score", "d", "--threads", "2"],
            ),
            (
                "--cache-entires",
                &["serve", "--live", "feed", "--cache-entires", "8"],
            ),
            (
                "--no-pushdown",
                &["serve-shard", "x", "--score", "d", "--no-pushdown"],
            ),
            (
                "--max-conns",
                &["coordinator", "--listen", "127.0.0.1:0", "--max-conns", "1"],
            ),
            (
                "--k",
                &["admin", "--server", "127.0.0.1:1", "--k", "1", "stats"],
            ),
            (
                "--after",
                &[
                    "append",
                    "--server",
                    "127.0.0.1:1",
                    "--dataset",
                    "d",
                    "--after",
                ],
            ),
            (
                "--file",
                &[
                    "watch",
                    "--server",
                    "127.0.0.1:1",
                    "--dataset",
                    "d",
                    "--file",
                    "x",
                ],
            ),
        ];
        for (flag, args) in cases {
            let err = run(&s(args)).unwrap_err();
            assert!(err.contains(flag), "{args:?}: {err}");
            assert!(
                err.contains(&format!("ttk {}:", args[0])),
                "{args:?}: {err}"
            );
        }
        // A name is a switch for every verb that takes it, or for none.
        for verb in &VERBS {
            for switch in verb.switches.split_whitespace() {
                assert!(
                    VERBS
                        .iter()
                        .all(|other| other.is_switch(switch) || !other.accepts(switch)),
                    "--{switch}"
                );
            }
        }
    }

    #[test]
    fn batch_specs_parse() {
        assert_eq!(parse_k_list("1,5,10").unwrap(), vec![1, 5, 10]);
        assert_eq!(parse_k_list("2:5").unwrap(), vec![2, 3, 4, 5]);
        assert!(parse_k_list("0:4").is_err());
        assert!(parse_k_list("5:2").is_err());
        assert!(parse_k_list("1,0").is_err());
        assert!(parse_k_list("abc").is_err());
    }

    #[test]
    fn batch_query_runs_over_a_range_of_k() {
        let dir = std::env::temp_dir();
        let data = dir.join("ttk_cli_test_batch.csv");
        let path = data.to_string_lossy().to_string();
        run(&s(&[
            "generate",
            "cartel",
            "--segments",
            "15",
            "--seed",
            "11",
            "--out",
            &path,
        ]))
        .unwrap();
        run(&s(&[
            "query",
            "--file",
            &path,
            "--score",
            "speed_limit / (length / delay)",
            "--batch",
            "1:4",
            "--threads",
            "2",
        ]))
        .unwrap();
        // A bad batch spec is rejected.
        assert!(run(&s(&[
            "query", "--file", &path, "--score", "delay", "--batch", "4:1",
        ]))
        .is_err());
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn buckets_outside_one_to_a_thousand_are_rejected() {
        let data = std::env::temp_dir().join("ttk_cli_test_buckets.csv");
        let path = data.to_string_lossy().to_string();
        run(&s(&[
            "generate",
            "cartel",
            "--segments",
            "5",
            "--seed",
            "1",
            "--out",
            &path,
        ]))
        .unwrap();
        let local = s(&["query", &path, "--score", "delay", "--k", "3"]);
        // Nothing listens on port 1: the flag is checked before any dial.
        let remote = s(&["--server", "127.0.0.1:1", "--dataset", "d", "--k", "3"]);
        for buckets in ["0", "1001", "4000000000"] {
            let flag = s(&["--buckets", buckets]);
            for args in [
                [local.clone(), flag.clone()].concat(),
                [s(&["query"]), remote.clone(), flag.clone()].concat(),
                [s(&["watch"]), remote.clone(), flag.clone()].concat(),
            ] {
                let err = run(&args).unwrap_err();
                assert!(err.contains("--buckets"), "{args:?}: {err}");
            }
        }
        run(&[local, s(&["--buckets", "1000"])].concat()).unwrap();
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn sharded_generate_and_query_round_trip() {
        let dir = std::env::temp_dir();
        let data = dir.join("ttk_cli_test_shards.csv");
        let path = data.to_string_lossy().to_string();
        run(&s(&[
            "generate",
            "cartel",
            "--segments",
            "20",
            "--seed",
            "5",
            "--shards",
            "3",
            "--out",
            &path,
        ]))
        .unwrap();
        let shard_paths: Vec<String> = (0..3).map(|i| shard_path(&path, i)).collect();
        for p in &shard_paths {
            assert!(std::path::Path::new(p).exists(), "{p} missing");
        }
        // Single query and a batch, both over the shard files.
        let mut query_args = s(&["query", "--score", "speed_limit / (length / delay)"]);
        for p in &shard_paths {
            query_args.extend(s(&["--shard", p]));
        }
        let mut single = query_args.clone();
        single.extend(s(&["--k", "3"]));
        run(&single).unwrap();
        let mut batch = query_args.clone();
        batch.extend(s(&["--batch", "1:4", "--threads", "2"]));
        run(&batch).unwrap();
        // --file and --shard conflict, with an error naming both dataset kinds.
        let mut both = single.clone();
        both.extend(s(&["--file", &path]));
        let err = run(&both).unwrap_err();
        assert!(err.contains("single-file CSV dataset"), "{err}");
        assert!(err.contains("sharded CSV dataset"), "{err}");
        // --spill-buffer applies to a single file only, never silently ignored.
        let mut spill = single.clone();
        spill.extend(s(&["--spill-buffer", "64"]));
        let err = run(&spill).unwrap_err();
        assert!(err.contains("sharded CSV dataset"), "{err}");
        // A positional file and --file together are ambiguous.
        let err = run(&s(&[
            "query", &path, "--file", &path, "--score", "delay", "--k", "2",
        ]))
        .unwrap_err();
        assert!(err.contains("pass the file once"), "{err}");
        assert!(run(&s(&["query", "--score", "delay", "--k", "2"])).is_err());
        // --shards without --out is rejected.
        assert!(run(&s(&["generate", "cartel", "--shards", "2"])).is_err());
        // explain works over the shard set without executing.
        let mut explain = s(&["explain", "--score", "speed_limit / (length / delay)"]);
        for p in &shard_paths {
            explain.extend(s(&["--shard", p]));
        }
        run(&explain).unwrap();
        for p in &shard_paths {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn spill_buffer_query_runs_out_of_core() {
        let dir = std::env::temp_dir();
        let data = dir.join("ttk_cli_test_spill.csv");
        let path = data.to_string_lossy().to_string();
        run(&s(&[
            "generate",
            "cartel",
            "--segments",
            "25",
            "--seed",
            "13",
            "--out",
            &path,
        ]))
        .unwrap();
        run(&s(&[
            "query",
            "--file",
            &path,
            "--score",
            "speed_limit / (length / delay)",
            "--k",
            "3",
            "--spill-buffer",
            "16",
        ]))
        .unwrap();
        // The spill index is replayable, so --batch works over a spilled
        // file: the external sort runs once and every job replays the runs.
        run(&s(&[
            "query",
            "--file",
            &path,
            "--score",
            "delay",
            "--batch",
            "1:3",
            "--spill-buffer",
            "16",
        ]))
        .unwrap();
        // explain over the spilled dataset reports the external-sort path.
        run(&s(&[
            "explain",
            &path,
            "--score",
            "delay",
            "--k",
            "3",
            "--spill-buffer",
            "16",
        ]))
        .unwrap();
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn serve_shard_and_remote_query_round_trip() {
        let dir = std::env::temp_dir();
        let data = dir.join("ttk_cli_test_remote.csv");
        let path = data.to_string_lossy().to_string();
        run(&s(&[
            "generate",
            "cartel",
            "--segments",
            "18",
            "--seed",
            "21",
            "--shards",
            "2",
            "--out",
            &path,
        ]))
        .unwrap();
        let shard_paths: Vec<String> = (0..2).map(|i| shard_path(&path, i)).collect();
        // Row count of shard 0 = the id base of shard 1 in the shared space.
        let shard0_rows = std::fs::read_to_string(&shard_paths[0])
            .unwrap()
            .lines()
            .filter(|l| !l.trim().is_empty())
            .count()
            - 1; // header
        let expr = "speed_limit / (length / delay)";

        // Serve both shards on ephemeral ports. Shard 0 serves two
        // connections (the pure-remote query and the mixed query below);
        // shard 1 serves one — the servers exit once those are done.
        let mut port_files = Vec::new();
        let mut servers = Vec::new();
        for (i, shard) in shard_paths.iter().enumerate() {
            let port_file = dir.join(format!("ttk_cli_test_remote_port{i}"));
            std::fs::remove_file(&port_file).ok();
            let args = s(&[
                "serve-shard",
                shard,
                "--score",
                expr,
                "--listen",
                "127.0.0.1:0",
                "--port-file",
                &port_file.to_string_lossy(),
                "--max-conns",
                if i == 0 { "2" } else { "1" },
                "--id-base",
                &if i == 0 { 0 } else { shard0_rows }.to_string(),
            ]);
            servers.push(std::thread::spawn(move || run(&args)));
            port_files.push(port_file);
        }
        let addrs: Vec<String> = port_files.iter().map(|pf| poll_port_file(pf)).collect();

        // Pure remote: both shards over loopback, single query and explain.
        run(&s(&[
            "query",
            "--remote-shard",
            &addrs[0],
            "--remote-shard",
            &addrs[1],
            "--score",
            expr,
            "--k",
            "3",
        ]))
        .unwrap();
        run(&s(&[
            "explain",
            "--remote-shard",
            &addrs[0],
            "--remote-shard",
            &addrs[1],
            "--score",
            expr,
            "--k",
            "3",
        ]))
        .unwrap();

        // Mixed: shard 0 remote, shard 1 local (hashed keys + id base align
        // the local shard with the served one).
        run(&s(&[
            "query",
            "--remote-shard",
            &addrs[0],
            "--shard",
            &shard_paths[1],
            "--id-base",
            &shard0_rows.to_string(),
            "--score",
            expr,
            "--k",
            "2",
        ]))
        .unwrap();

        for server in servers {
            server.join().unwrap().unwrap();
        }

        // Conflicting input forms are rejected with explanatory errors.
        let err = run(&s(&[
            "query",
            "--remote-shard",
            "127.0.0.1:1",
            "--file",
            &path,
            "--score",
            expr,
            "--k",
            "1",
        ]))
        .unwrap_err();
        assert!(err.contains("remote shard dataset"), "{err}");
        let err = run(&s(&[
            "query",
            "--remote-shard",
            "127.0.0.1:1",
            "--spill-buffer",
            "8",
            "--score",
            expr,
            "--k",
            "1",
        ]))
        .unwrap_err();
        assert!(err.contains("serving side"), "{err}");
        // serve-shard refuses remote inputs and requires --listen.
        assert!(run(&s(&[
            "serve-shard",
            "--remote-shard",
            "127.0.0.1:1",
            "--score",
            expr,
            "--listen",
            "127.0.0.1:0"
        ]))
        .is_err());
        assert!(run(&s(&["serve-shard", &path, "--score", expr])).is_err());

        for p in shard_paths.iter().map(std::path::Path::new) {
            std::fs::remove_file(p).ok();
        }
        for pf in &port_files {
            std::fs::remove_file(pf).ok();
        }
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn remote_flag_validation() {
        let (_, flags) =
            parse_flags(&s(&["--remote-timeout", "2.5", "--remote-retries", "7"])).unwrap();
        let connect = parse_connect_options(&flags).unwrap();
        assert_eq!(
            connect.connect_timeout,
            std::time::Duration::from_millis(2500)
        );
        assert_eq!(
            connect.read_timeout,
            Some(std::time::Duration::from_millis(2500))
        );
        assert_eq!(connect.retries, 7);
        let (_, bad) = parse_flags(&s(&["--remote-timeout", "-1"])).unwrap();
        assert!(parse_connect_options(&bad).is_err());
        let (_, bad) = parse_flags(&s(&["--remote-timeout", "forever"])).unwrap();
        assert!(parse_connect_options(&bad).is_err());
    }

    /// The acceptance property of the concurrent daemon: two clients query
    /// one `serve-shard` process **concurrently** and both complete with
    /// results bit-identical to the local scan, while a deliberately stalled
    /// third connection stays open the whole time. Under the old sequential
    /// accept loop the stalled connection (whose replay cannot fit in the
    /// socket buffers) would block the daemon before the query connections
    /// were ever accepted.
    #[test]
    fn concurrent_clients_complete_around_a_stalled_reader() {
        let dir = std::env::temp_dir();
        let data = dir.join("ttk_cli_test_concurrent.csv");
        let path = data.to_string_lossy().to_string();
        run(&s(&[
            "generate",
            "synthetic",
            "--tuples",
            "30000",
            "--seed",
            "9",
            "--out",
            &path,
        ]))
        .unwrap();
        let port_file = dir.join("ttk_cli_test_concurrent_port");
        std::fs::remove_file(&port_file).ok();
        let server_args = s(&[
            "serve-shard",
            &path,
            "--score",
            "score",
            "--listen",
            "127.0.0.1:0",
            "--port-file",
            &port_file.to_string_lossy(),
            "--max-conns",
            "3",
            "--max-parallel",
            "4",
        ]);
        let server = std::thread::spawn(move || run(&server_args));
        let addr = poll_port_file(&port_file);

        // The stalled client: connects first, announces a full replay
        // (k = 0), reads only the hello frame, then holds the connection
        // open without reading further — the replay of 30k tuples cannot fit
        // the socket buffers, so its worker blocks mid-write until we hang
        // up.
        let stalled = std::net::TcpStream::connect(&addr).unwrap();
        wire::write_scan(&mut (&stalled), &wire::PushdownQuery { k: 0, p_tau: 0.0 }).unwrap();
        ttk_uncertain::WireReader::new(&stalled).hello().unwrap();

        // The local reference: the same file imported exactly as the daemon
        // imports it (hashed group keys, id base 0).
        let query = TopkQuery::new(3).with_p_tau(1e-3).with_u_topk(false);
        let local = CsvDataset::from_path(
            &path,
            CsvOptions::default(),
            parse_expression("score").unwrap(),
        )
        .with_import(ShardImportOptions {
            first_tuple_id: 0,
            hashed_group_keys: true,
        })
        .into_dataset();
        let reference = Session::new().execute(&local, &query).unwrap();

        // Two full query clients, concurrently, while the third connection
        // stalls.
        let clients: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    Session::new().execute(&RemoteShardDataset::new([addr]).into_dataset(), &query)
                })
            })
            .collect();
        for client in clients {
            let answer = client.join().unwrap().unwrap();
            assert_eq!(answer.distribution, reference.distribution);
            assert_eq!(answer.scan_depth, reference.scan_depth);
            assert_eq!(answer.typical.scores(), reference.typical.scores());
        }

        // Only now release the stalled connection; the daemon drains its
        // worker and exits cleanly at --max-conns.
        drop(stalled);
        server.join().unwrap().unwrap();
        std::fs::remove_file(&port_file).ok();
        std::fs::remove_file(&data).ok();
    }

    /// End-to-end `ttk serve` round trip over loopback: two resident
    /// datasets, a cold query then the identical query again, asserting the
    /// repeat is answered from the result cache (via the client's plan — the
    /// explain surface) and that cold, cached and `run()`-driven answers are
    /// all bit-identical to a local `Session::execute` of the same file.
    #[test]
    fn serve_query_round_trip_with_cache_parity_and_explain_surface() {
        let dir = std::env::temp_dir();
        let data_alpha = dir.join("ttk_cli_test_serve_alpha.csv");
        let data_beta = dir.join("ttk_cli_test_serve_beta.csv");
        let path_alpha = data_alpha.to_string_lossy().to_string();
        let path_beta = data_beta.to_string_lossy().to_string();
        let expr = "speed_limit / (length / delay)";
        for (path, segments, seed) in [(&path_alpha, "20", "5"), (&path_beta, "12", "8")] {
            run(&s(&[
                "generate",
                "cartel",
                "--segments",
                segments,
                "--seed",
                seed,
                "--out",
                path,
            ]))
            .unwrap();
        }

        let port_file = dir.join("ttk_cli_test_serve_port");
        std::fs::remove_file(&port_file).ok();
        let alpha_spec = format!("alpha={path_alpha}");
        let beta_spec = format!("beta={path_beta}");
        // Exactly six connections: cold, cached, beta, `run` query, `run`
        // explain --after, unknown dataset.
        let server_args = s(&[
            "serve",
            &alpha_spec,
            &beta_spec,
            "--score",
            expr,
            "--listen",
            "127.0.0.1:0",
            "--port-file",
            &port_file.to_string_lossy(),
            "--max-conns",
            "6",
            "--max-parallel",
            "2",
            "--cache-entries",
            "8",
        ]);
        let server = std::thread::spawn(move || run(&server_args));
        let addr = poll_port_file(&port_file);

        // The local reference: the same file, scored the same way the
        // daemon scores it at startup.
        let query = TopkQuery::new(3);
        let local = CsvDataset::from_path(
            &path_alpha,
            CsvOptions::default(),
            parse_expression(expr).unwrap(),
        )
        .into_dataset();
        let reference = Session::new().execute(&local, &query).unwrap();

        let client = RemoteQueryClient::new(addr.as_str());
        let cold = client.execute("alpha", &query).unwrap();
        assert!(!cold.cache_hit, "first query must execute");
        let cached = client.execute("alpha", &query).unwrap();
        assert!(
            cached.cache_hit,
            "the repeat must be answered from the cache"
        );
        for remote in [&cold, &cached] {
            assert_eq!(remote.answer.distribution, reference.distribution);
            assert_eq!(remote.answer.typical, reference.typical);
            assert_eq!(remote.answer.scan_depth, reference.scan_depth);
            let u = remote.answer.u_topk.as_ref().expect("U-Topk requested");
            let ru = reference.u_topk.as_ref().expect("U-Topk requested");
            assert_eq!(u.vector, ru.vector);
            assert_eq!(u.expansions, ru.expansions);
            assert_eq!(u.deepest_position, ru.deepest_position);
        }

        // The explain surface reports the cache outcome.
        let plan_cold = client.plan("alpha", &query, &cold);
        assert!(plan_cold.to_string().contains("server result cache: miss"));
        let plan_cached = client.plan("alpha", &query, &cached);
        assert!(plan_cached.to_string().contains("server result cache: hit"));
        assert!(describe_scan(&plan_cached).contains("server cache hit"));

        // The second resident dataset answers under its own cache key.
        let beta = client.execute("beta", &query).unwrap();
        assert!(!beta.cache_hit);
        assert_ne!(beta.answer.distribution, reference.distribution);

        // The CLI client paths work end to end.
        run(&s(&[
            "query",
            "--server",
            &addr,
            "--dataset",
            "alpha",
            "--k",
            "3",
        ]))
        .unwrap();
        run(&s(&[
            "explain",
            "--server",
            &addr,
            "--dataset",
            "alpha",
            "--k",
            "3",
            "--after",
        ]))
        .unwrap();

        // An unknown dataset is a clean error naming the resident ones.
        let err = client.execute("missing", &query).unwrap_err().to_string();
        assert!(err.contains("no such dataset"), "{err}");
        assert!(err.contains("alpha"), "{err}");

        server.join().unwrap().unwrap();

        // Client-side flag validation (nothing dials).
        let err = run(&s(&["query", "--server", &addr, "--k", "1"])).unwrap_err();
        assert!(err.contains("--dataset"), "{err}");
        let err = run(&s(&[
            "query",
            "--server",
            &addr,
            "--dataset",
            "alpha",
            "--score",
            "x",
            "--k",
            "1",
        ]))
        .unwrap_err();
        assert!(err.contains("drop --score"), "{err}");
        let err = run(&s(&[
            "query",
            "--server",
            &addr,
            "--dataset",
            "alpha",
            "--file",
            "x.csv",
            "--k",
            "1",
        ]))
        .unwrap_err();
        assert!(err.contains("resident dataset"), "{err}");
        let err = run(&s(&[
            "explain",
            "--server",
            &addr,
            "--dataset",
            "alpha",
            "--k",
            "1",
        ]))
        .unwrap_err();
        assert!(err.contains("--after"), "{err}");
        // Serve-side validation: malformed NAME=FILE and missing datasets.
        assert!(run(&s(&[
            "serve",
            "alpha",
            "--score",
            expr,
            "--listen",
            "127.0.0.1:0",
        ]))
        .is_err());
        assert!(run(&s(&["serve", "--score", expr, "--listen", "127.0.0.1:0"])).is_err());

        std::fs::remove_file(&port_file).ok();
        std::fs::remove_file(&data_alpha).ok();
        std::fs::remove_file(&data_beta).ok();
    }

    /// A client that connects to `ttk serve` and never sends its request
    /// only costs its own worker: two full query clients complete (bit-
    /// identically to a local run) while the stalled connection sits there,
    /// and the daemon still drains cleanly at --max-conns.
    #[test]
    fn serve_concurrent_query_clients_complete_around_a_stalled_reader() {
        let dir = std::env::temp_dir();
        let data = dir.join("ttk_cli_test_serve_stall.csv");
        let path = data.to_string_lossy().to_string();
        run(&s(&[
            "generate",
            "synthetic",
            "--tuples",
            "20000",
            "--seed",
            "13",
            "--out",
            &path,
        ]))
        .unwrap();
        let port_file = dir.join("ttk_cli_test_serve_stall_port");
        std::fs::remove_file(&port_file).ok();
        let dataset_spec = format!("data={path}");
        let server_args = s(&[
            "serve",
            &dataset_spec,
            "--score",
            "score",
            "--listen",
            "127.0.0.1:0",
            "--port-file",
            &port_file.to_string_lossy(),
            "--max-conns",
            "3",
            "--max-parallel",
            "2",
            "--request-wait-ms",
            "400",
        ]);
        let server = std::thread::spawn(move || run(&server_args));
        let addr = poll_port_file(&port_file);

        // The stalled client: connects first (occupying one of the two
        // workers) and never sends the request frame.
        let stalled = std::net::TcpStream::connect(&addr).unwrap();

        let query = TopkQuery::new(3).with_p_tau(1e-3).with_u_topk(false);
        let local = CsvDataset::from_path(
            &path,
            CsvOptions::default(),
            parse_expression("score").unwrap(),
        )
        .into_dataset();
        let reference = Session::new().execute(&local, &query).unwrap();

        // Two full query clients, concurrently, around the stalled one.
        let clients: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || RemoteQueryClient::new(addr).execute("data", &query))
            })
            .collect();
        for client in clients {
            let remote = client.join().unwrap().unwrap();
            assert_eq!(remote.answer.distribution, reference.distribution);
            assert_eq!(remote.answer.scan_depth, reference.scan_depth);
            assert_eq!(remote.answer.typical.scores(), reference.typical.scores());
        }

        // The daemon reaches --max-conns and drains: the stalled worker is
        // released by --request-wait-ms, no hang. Only then hang up.
        server.join().unwrap().unwrap();
        drop(stalled);
        std::fs::remove_file(&port_file).ok();
        std::fs::remove_file(&data).ok();
    }

    /// The whole live-dataset flow over the wire: `ttk append` feeds a
    /// `--live` dataset, queries scan exactly the sealed snapshot (a seal is
    /// an epoch-keyed cache miss on the next query), a standing `watch`
    /// subscription is pushed only when the answer distribution actually
    /// shifts, and the `ttk watch`/`ttk append --file` verbs work end to
    /// end.
    #[test]
    fn serve_live_append_watch_round_trip() {
        let dir = std::env::temp_dir();
        let port_file = dir.join("ttk_cli_test_live_port");
        std::fs::remove_file(&port_file).ok();
        let extra_csv = dir.join("ttk_cli_test_live_extra.csv");
        std::fs::write(&extra_csv, "score,probability,group_key\n5,0.5,\n").unwrap();
        // Exactly nine connections: the append verb, cold query, cached
        // requery, the standing subscription, the no-shift append, the
        // shift append, the post-shift requery, the --file append, and the
        // watch verb.
        let server_args = s(&[
            "serve",
            "--live",
            "feed",
            "--seal-every",
            "1000",
            "--listen",
            "127.0.0.1:0",
            "--port-file",
            &port_file.to_string_lossy(),
            "--max-conns",
            "9",
            "--max-parallel",
            "2",
            "--cache-entries",
            "8",
        ]);
        let server = std::thread::spawn(move || run(&server_args));
        let addr = poll_port_file(&port_file);

        // Seed the log through the CLI verb: three rows, sealed into epoch 1.
        run(&s(&[
            "append",
            "--server",
            &addr,
            "--dataset",
            "feed",
            "--row",
            "1:100:1.0",
            "--row",
            "2:50:0.5",
            "--row",
            "3:10:0.8",
            "--seal",
        ]))
        .unwrap();

        // Cold query at epoch 1: the certain score-100 tuple is the whole
        // top-1 distribution. The repeat is a cache hit at the same epoch.
        let query = TopkQuery::new(1).with_p_tau(1e-6).with_u_topk(false);
        let client = RemoteQueryClient::new(addr.as_str());
        let cold = client.execute("feed", &query).unwrap();
        assert!(!cold.cache_hit, "first query must execute");
        assert_eq!(cold.epoch, Some(1), "three sealed rows mean epoch 1");
        assert_eq!(cold.answer.distribution.len(), 1);
        let cached = client.execute("feed", &query).unwrap();
        assert!(cached.cache_hit, "same epoch, same shape: cache hit");
        assert_eq!(cached.answer.distribution, cold.answer.distribution);

        // The standing subscription, on its own thread: the baseline answer
        // is the first push, the distribution shift is the second (and
        // last: max_pushes = 2 makes the server close the stream).
        let (push_tx, push_rx) = std::sync::mpsc::channel();
        let watch_addr = addr.clone();
        let watch_query = query;
        let watcher = std::thread::spawn(move || {
            let mut watch = RemoteQueryClient::new(watch_addr)
                .watch("feed", &watch_query, 2)
                .unwrap();
            let baseline = watch.next_push().unwrap().expect("baseline push");
            push_tx.send(baseline).unwrap();
            let shifted = watch.next_push().unwrap().expect("shift push");
            push_tx.send(shifted).unwrap();
            watch.next_push().unwrap()
        });
        let baseline = push_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the subscription pushes its baseline answer");
        assert_eq!(baseline.epoch, 1);
        assert_eq!(baseline.answer.distribution, cold.answer.distribution);

        // A no-shift append: a low certain-loser row seals epoch 2, but the
        // top-1 distribution is unchanged, so nothing may be pushed. Give
        // the subscription ample time to have evaluated epoch 2.
        let no_shift = vec![SourceTuple::independent(
            UncertainTuple::new(4u64, 20.0, 0.5).unwrap(),
        )];
        let ack = client.append("feed", no_shift, true).unwrap();
        assert_eq!(ack.epoch, 2);
        assert!(ack.sealed_now);
        std::thread::sleep(Duration::from_millis(400));
        assert!(
            push_rx.try_recv().is_err(),
            "an epoch advance that does not shift the answer must push nothing"
        );

        // The shift: a score-200 maybe-tuple seals epoch 3 and changes the
        // top-1 distribution. The push reports epoch 3 — epoch 2 was
        // evaluated and skipped, not queued.
        let shift = vec![SourceTuple::independent(
            UncertainTuple::new(5u64, 200.0, 0.5).unwrap(),
        )];
        let ack = client.append("feed", shift, true).unwrap();
        assert_eq!(ack.epoch, 3);
        let shifted = push_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the shift must be pushed");
        assert_eq!(shifted.epoch, 3, "the no-shift epoch is skipped");
        assert_ne!(shifted.answer_hash, baseline.answer_hash);
        assert_eq!(shifted.answer.distribution.len(), 2);
        assert!(
            watcher.join().unwrap().is_none(),
            "after max_pushes the server closes the push stream cleanly"
        );

        // The sealed epoch is part of the cache key: the same query shape
        // misses and sees the shifted distribution.
        let reheated = client.execute("feed", &query).unwrap();
        assert!(!reheated.cache_hit, "epoch 3 is a different cache key");
        assert_eq!(reheated.epoch, Some(3));
        assert_eq!(reheated.answer.distribution, shifted.answer.distribution);

        // `ttk append --file` scores a CSV locally and stages it (no seal:
        // the rows stay invisible, the epoch stays put).
        run(&s(&[
            "append",
            "--server",
            &addr,
            "--dataset",
            "feed",
            "--file",
            &extra_csv.to_string_lossy(),
            "--score",
            "score",
        ]))
        .unwrap();

        // The `ttk watch` verb: the baseline push arrives and --pushes 1
        // closes the subscription server-side.
        run(&s(&[
            "watch",
            "--server",
            &addr,
            "--dataset",
            "feed",
            "--k",
            "1",
            "--pushes",
            "1",
        ]))
        .unwrap();

        server.join().unwrap().unwrap();

        // Client-side validation (nothing dials).
        let err = run(&s(&["append", "--server", &addr, "--dataset", "feed"])).unwrap_err();
        assert!(err.contains("no rows"), "{err}");
        let err = run(&s(&[
            "append",
            "--server",
            &addr,
            "--dataset",
            "feed",
            "--row",
            "1:2:0.5",
            "--file",
            "x.csv",
        ]))
        .unwrap_err();
        assert!(err.contains("either --row literals or one --file"), "{err}");
        let err = run(&s(&[
            "append",
            "--server",
            &addr,
            "--dataset",
            "feed",
            "--row",
            "nope",
        ]))
        .unwrap_err();
        assert!(err.contains("ID:SCORE:PROB"), "{err}");
        let err = run(&s(&["watch", "--server", &addr, "--dataset", "feed"])).unwrap_err();
        assert!(err.contains("--k"), "{err}");
        // Serve-side: --live without a score works, but no datasets at all
        // is still an error.
        assert!(run(&s(&["serve", "--listen", "127.0.0.1:0"])).is_err());

        std::fs::remove_file(&port_file).ok();
        std::fs::remove_file(&extra_csv).ok();
    }

    /// Admission control: when the only worker stays busy past the grace
    /// window, new connections are shed with a busy/retry-after frame. The
    /// client retries with backoff and completes once the worker frees, and
    /// the shed attempts do not count toward --max-conns (the daemon exits
    /// after exactly the two *served* connections).
    #[test]
    fn serve_sheds_busy_connections_and_clients_retry() {
        let dir = std::env::temp_dir();
        let data = dir.join("ttk_cli_test_shed.csv");
        let path = data.to_string_lossy().to_string();
        run(&s(&[
            "generate",
            "synthetic",
            "--tuples",
            "2000",
            "--seed",
            "21",
            "--out",
            &path,
        ]))
        .unwrap();
        let port_file = dir.join("ttk_cli_test_shed_port");
        std::fs::remove_file(&port_file).ok();
        let dataset_spec = format!("data={path}");
        let server_args = s(&[
            "serve",
            &dataset_spec,
            "--score",
            "score",
            "--listen",
            "127.0.0.1:0",
            "--port-file",
            &port_file.to_string_lossy(),
            "--max-conns",
            "2",
            "--max-parallel",
            "1",
            "--request-wait-ms",
            "400",
        ]);
        let server = std::thread::spawn(move || run(&server_args));
        let addr = poll_port_file(&port_file);

        // The stall: the sole worker sits on this connection until the
        // request timeout fires at 400ms. Every dial in between must be
        // shed, not queued.
        let stalled = std::net::TcpStream::connect(&addr).unwrap();
        // Let the handoff land before dialling the real client.
        std::thread::sleep(Duration::from_millis(100));

        let query = TopkQuery::new(2).with_p_tau(1e-3).with_u_topk(false);
        let client = RemoteQueryClient::new(addr.as_str()).with_connect_options(ConnectOptions {
            retries: 6,
            ..ConnectOptions::default()
        });
        let remote = client.execute("data", &query).unwrap();
        assert!(!remote.cache_hit);

        // --max-conns 2 counts the stalled and the served connection only;
        // if shed attempts counted, the daemon would have exited before the
        // query was ever served and the execute above would have failed.
        server.join().unwrap().unwrap();
        drop(stalled);
        std::fs::remove_file(&port_file).ok();
        std::fs::remove_file(&data).ok();
    }

    /// Three `serve-shard` daemons lease their id bases from one
    /// `ttk coordinator` (no `--id-base` anywhere) and a query over all
    /// three is bit-identical to the local `--shard` scan of the same files.
    #[test]
    fn coordinator_assigned_three_server_query_round_trip() {
        let dir = std::env::temp_dir();
        let data = dir.join("ttk_cli_test_coord.csv");
        let path = data.to_string_lossy().to_string();
        let expr = "speed_limit / (length / delay)";
        run(&s(&[
            "generate",
            "cartel",
            "--segments",
            "18",
            "--seed",
            "33",
            "--shards",
            "3",
            "--out",
            &path,
        ]))
        .unwrap();
        let shard_paths: Vec<String> = (0..3).map(|i| shard_path(&path, i)).collect();

        // The coordinator on an ephemeral port, exiting after three leases.
        let coord_port_file = dir.join("ttk_cli_test_coord_port");
        std::fs::remove_file(&coord_port_file).ok();
        let coord_args = s(&[
            "coordinator",
            "--listen",
            "127.0.0.1:0",
            "--namespace",
            "cli-e2e",
            "--max-leases",
            "3",
            "--port-file",
            &coord_port_file.to_string_lossy(),
        ]);
        let coordinator = std::thread::spawn(move || run(&coord_args));
        let coord_addr = poll_port_file(&coord_port_file);

        // Start the shard daemons one at a time, waiting for each port file
        // (written after the lease arrives), so the registration order is
        // the shard order and the leased bases equal the operator
        // arithmetic — making the comparison below bit-identical, ids
        // included.
        let mut servers = Vec::new();
        let mut server_port_files = Vec::new();
        let mut addrs = Vec::new();
        for (i, shard) in shard_paths.iter().enumerate() {
            let pf = dir.join(format!("ttk_cli_test_coord_s{i}"));
            std::fs::remove_file(&pf).ok();
            let args = s(&[
                "serve-shard",
                shard,
                "--score",
                expr,
                "--listen",
                "127.0.0.1:0",
                "--port-file",
                &pf.to_string_lossy(),
                "--max-conns",
                "2",
                "--coordinator",
                &coord_addr,
            ]);
            servers.push(std::thread::spawn(move || run(&args)));
            addrs.push(poll_port_file(&pf));
            server_port_files.push(pf);
        }
        coordinator.join().unwrap().unwrap();

        // CLI query over the three coordinated servers (connection 1 each).
        let mut query_args = s(&[
            "query",
            "--score",
            expr,
            "--k",
            "3",
            "--remote-timeout",
            "10",
        ]);
        for addr in &addrs {
            query_args.extend(s(&["--remote-shard", addr]));
        }
        run(&query_args).unwrap();

        // Library-level parity (connection 2 each): bit-identical to the
        // local shard scan with the same import discipline.
        let query = TopkQuery::new(3).with_p_tau(1e-3);
        let local = CsvDataset::from_shard_paths(
            shard_paths.clone(),
            CsvOptions::default(),
            parse_expression(expr).unwrap(),
        )
        .with_import(ShardImportOptions {
            first_tuple_id: 0,
            hashed_group_keys: true,
        })
        .into_dataset();
        let mut session = Session::new();
        let reference = session.execute(&local, &query).unwrap();
        let remote = session
            .execute(&RemoteShardDataset::new(addrs).into_dataset(), &query)
            .unwrap();
        assert_eq!(remote.distribution, reference.distribution);
        assert_eq!(remote.scan_depth, reference.scan_depth);
        assert_eq!(
            remote.u_topk.as_ref().unwrap().vector.ids(),
            reference.u_topk.as_ref().unwrap().vector.ids()
        );
        for server in servers {
            server.join().unwrap().unwrap();
        }

        // --coordinator and --id-base conflict (checked before any dial).
        let err = run(&s(&[
            "serve-shard",
            &shard_paths[0],
            "--score",
            expr,
            "--listen",
            "127.0.0.1:0",
            "--coordinator",
            "127.0.0.1:1",
            "--id-base",
            "5",
        ]))
        .unwrap_err();
        assert!(err.contains("--coordinator"), "{err}");
        // ... and so do --coordinator and --namespace (the lease carries it).
        let err = run(&s(&[
            "serve-shard",
            &shard_paths[0],
            "--score",
            expr,
            "--listen",
            "127.0.0.1:0",
            "--coordinator",
            "127.0.0.1:1",
            "--namespace",
            "mine",
        ]))
        .unwrap_err();
        assert!(err.contains("--namespace"), "{err}");
        // The coordinator serves leases, not data.
        assert!(run(&s(&["coordinator", "data.csv", "--listen", "127.0.0.1:0"])).is_err());
        assert!(run(&s(&["coordinator"])).is_err());

        for p in &shard_paths {
            std::fs::remove_file(p).ok();
        }
        std::fs::remove_file(&coord_port_file).ok();
        for pf in &server_port_files {
            std::fs::remove_file(pf).ok();
        }
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn explain_after_reports_observed_depth() {
        let dir = std::env::temp_dir();
        let data = dir.join("ttk_cli_test_after.csv");
        let path = data.to_string_lossy().to_string();
        run(&s(&[
            "generate",
            "cartel",
            "--segments",
            "10",
            "--seed",
            "2",
            "--out",
            &path,
        ]))
        .unwrap();
        run(&s(&[
            "explain", &path, "--score", "delay", "--k", "2", "--after",
        ]))
        .unwrap();
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn generate_and_query_round_trip_through_a_temp_file() {
        let dir = std::env::temp_dir();
        let data = dir.join("ttk_cli_test_area.csv");
        let path = data.to_string_lossy().to_string();
        run(&s(&[
            "generate",
            "cartel",
            "--segments",
            "12",
            "--seed",
            "3",
            "--out",
            &path,
        ]))
        .unwrap();
        run(&s(&[
            "query",
            "--file",
            &path,
            "--score",
            "speed_limit / (length / delay)",
            "--k",
            "3",
        ]))
        .unwrap();
        // The positional input form resolves to the same single-file dataset.
        run(&s(&[
            "query",
            &path,
            "--score",
            "speed_limit / (length / delay)",
            "--k",
            "3",
        ]))
        .unwrap();
        // explain prints the plan without executing.
        run(&s(&["explain", &path, "--score", "delay", "--k", "3"])).unwrap();
        assert!(run(&s(&["explain", &path, "--score", "delay", "--k", "0"])).is_err());
        // Missing required flags are reported as errors.
        assert!(run(&s(&["query", "--file", &path])).is_err());
        assert!(run(&s(&["query", "--file", &path, "--score", "delay"])).is_err());
        std::fs::remove_file(&data).ok();
    }

    /// The admin plane against a live daemon: stats, runtime
    /// registration (guarded by the same duplicate-name check as startup),
    /// reload picking up a rewritten source file, and unregister — while
    /// the original resident keeps answering throughout.
    #[test]
    fn admin_plane_manages_residents_end_to_end() {
        let dir = std::env::temp_dir();
        let alpha_csv = dir.join("ttk_cli_test_admin_alpha.csv");
        let beta_csv = dir.join("ttk_cli_test_admin_beta.csv");
        std::fs::write(&alpha_csv, "score,probability\n100,1.0\n90,0.5\n80,0.25\n").unwrap();
        std::fs::write(&beta_csv, "score,probability\n50,1.0\n40,0.5\n").unwrap();
        let port_file = dir.join("ttk_cli_test_admin_port");
        std::fs::remove_file(&port_file).ok();
        let alpha_spec = format!("alpha={}", alpha_csv.to_string_lossy());
        // Nine connections: stats, register, cold beta query, duplicate
        // register, reload, reloaded query, stats, unregister, missing
        // query.
        let server_args = s(&[
            "serve",
            &alpha_spec,
            "--score",
            "score",
            "--listen",
            "127.0.0.1:0",
            "--port-file",
            &port_file.to_string_lossy(),
            "--max-conns",
            "9",
            "--max-parallel",
            "2",
        ]);
        let server = std::thread::spawn(move || run(&server_args));
        let addr = poll_port_file(&port_file);
        let client = RemoteQueryClient::new(addr.as_str());
        let query = TopkQuery::new(1).with_p_tau(1e-6).with_u_topk(false);
        let stats_request = wire::AdminRequest {
            verb: wire::AdminVerb::Stats,
            name: String::new(),
            arg: String::new(),
        };

        // The roster before any admin mutation.
        let stats = client.admin(&stats_request).unwrap();
        assert!(stats.contains("resident datasets: 1"), "{stats}");
        assert!(stats.contains("alpha: static"), "{stats}");

        // Runtime registration through the CLI verb, then the fresh
        // resident answers immediately (its top score is certain).
        let beta_spec = format!("beta={}", beta_csv.to_string_lossy());
        run(&s(&["admin", "--server", &addr, "register", &beta_spec])).unwrap();
        let v1 = client.execute("beta", &query).unwrap();
        assert_eq!(v1.answer.distribution.max_score(), Some(50.0));

        // The startup duplicate-name check guards the admin plane too.
        let err = client
            .admin(&wire::AdminRequest {
                verb: wire::AdminVerb::Register,
                name: "beta".to_string(),
                arg: beta_csv.to_string_lossy().into_owned(),
            })
            .unwrap_err()
            .to_string();
        assert!(err.contains("already registered"), "{err}");

        // Rewrite the source and reload: the swap is epoch-safe (queries
        // in flight finish on their Arc'd handle) and lands as a new
        // dataset id, so the repeat is a structural cache miss that sees
        // the new rows.
        std::fs::write(&beta_csv, "score,probability\n70,1.0\n60,0.5\n").unwrap();
        let report = client
            .admin(&wire::AdminRequest {
                verb: wire::AdminVerb::Reload,
                name: "beta".to_string(),
                arg: String::new(),
            })
            .unwrap();
        assert!(report.contains("reloaded `beta`"), "{report}");
        let v2 = client.execute("beta", &query).unwrap();
        assert!(!v2.cache_hit, "a reload must not serve the stale answer");
        assert_eq!(v2.answer.distribution.max_score(), Some(70.0));

        // Stats reflect the grown roster; unregister names the survivors;
        // the dropped name stops resolving.
        let stats = client.admin(&stats_request).unwrap();
        assert!(stats.contains("resident datasets: 2"), "{stats}");
        assert!(stats.contains("beta: static"), "{stats}");
        let report = client
            .admin(&wire::AdminRequest {
                verb: wire::AdminVerb::Unregister,
                name: "beta".to_string(),
                arg: String::new(),
            })
            .unwrap();
        assert!(report.contains("unregistered `beta`"), "{report}");
        assert!(report.contains("alpha"), "{report}");
        let err = client.execute("beta", &query).unwrap_err().to_string();
        assert!(err.contains("no such dataset"), "{err}");
        assert!(err.contains("alpha"), "{err}");

        server.join().unwrap().unwrap();

        // Verb parsing fails before anything dials.
        assert!(run(&s(&["admin", "stats"])).is_err());
        assert!(run(&s(&["admin", "--server", &addr])).is_err());
        assert!(run(&s(&["admin", "--server", &addr, "frobnicate"])).is_err());
        assert!(run(&s(&["admin", "--server", &addr, "register", "nope"])).is_err());
        assert!(run(&s(&["admin", "--server", &addr, "reload"])).is_err());
        assert!(run(&s(&["admin", "--server", &addr, "stats", "extra"])).is_err());

        std::fs::remove_file(&port_file).ok();
        std::fs::remove_file(&alpha_csv).ok();
        std::fs::remove_file(&beta_csv).ok();
    }

    /// Live-log compaction over the admin plane: seal three segments, fold
    /// them into one, and the merged answer (and its live-scan plan tail) stays
    /// bit-identical while the segment count drops to one.
    #[test]
    fn admin_compacts_a_live_dataset_over_the_wire() {
        let dir = std::env::temp_dir();
        let port_file = dir.join("ttk_cli_test_admin_compact_port");
        std::fs::remove_file(&port_file).ok();
        // Nine connections: three sealing appends, the fragmented query,
        // compact, the compacted query, the no-op compact, the
        // importer-less register, and the reload-of-a-live-log error.
        let server_args = s(&[
            "serve",
            "--live",
            "stream",
            "--listen",
            "127.0.0.1:0",
            "--port-file",
            &port_file.to_string_lossy(),
            "--max-conns",
            "9",
            "--max-parallel",
            "2",
        ]);
        let server = std::thread::spawn(move || run(&server_args));
        let addr = poll_port_file(&port_file);
        let client = RemoteQueryClient::new(addr.as_str());
        let query = TopkQuery::new(2).with_p_tau(1e-6).with_u_topk(false);

        // Three sealed segments (epochs 1-3), appended out of rank order so
        // the fragmented scan genuinely k-way merges.
        let mut epoch = 0;
        for pair in [
            [(1u64, 90.0), (2u64, 50.0)],
            [(3, 120.0), (4, 30.0)],
            [(5, 70.0), (6, 110.0)],
        ] {
            let rows: Vec<SourceTuple> = pair
                .iter()
                .map(|&(id, score)| {
                    SourceTuple::independent(UncertainTuple::new(id, score, 0.5).unwrap())
                })
                .collect();
            let ack = client.append("stream", rows, true).unwrap();
            epoch = ack.epoch;
        }
        assert_eq!(epoch, 3);

        // The fragmented answer, with the live tail on the wire.
        let fragmented = client.execute("stream", &query).unwrap();
        assert_eq!(fragmented.epoch, Some(3));
        assert_eq!(fragmented.live_segments, Some(3));
        assert_eq!(fragmented.compacted_epoch, Some(0), "never compacted");

        // Fold all three segments into one; the fold publishes epoch 4.
        let compact_request = wire::AdminRequest {
            verb: wire::AdminVerb::Compact,
            name: "stream".to_string(),
            arg: String::new(),
        };
        let report = client.admin(&compact_request).unwrap();
        assert!(
            report.contains("compacted `stream`: 3 segments -> 1 at epoch 4"),
            "{report}"
        );

        // Bit-identical answer from one segment. The compaction epoch is a
        // different cache key, so this executed rather than serving the
        // fragmented run's cached answer.
        let compacted = client.execute("stream", &query).unwrap();
        assert!(!compacted.cache_hit);
        assert_eq!(compacted.epoch, Some(4));
        assert_eq!(compacted.live_segments, Some(1));
        assert_eq!(compacted.compacted_epoch, Some(4));
        assert_eq!(
            compacted.answer.distribution,
            fragmented.answer.distribution
        );
        assert_eq!(compacted.answer.typical, fragmented.answer.typical);
        assert_eq!(compacted.answer.scan_depth, fragmented.answer.scan_depth);

        // Compaction is idempotent: one segment is nothing to fold.
        let report = client.admin(&compact_request).unwrap();
        assert!(report.contains("nothing to compact"), "{report}");

        // No --score at startup means no importer for runtime registration,
        // and reload targets file-backed datasets, never live logs.
        let err = client
            .admin(&wire::AdminRequest {
                verb: wire::AdminVerb::Register,
                name: "x".to_string(),
                arg: "x.csv".to_string(),
            })
            .unwrap_err()
            .to_string();
        assert!(err.contains("cannot import"), "{err}");
        let err = client
            .admin(&wire::AdminRequest {
                verb: wire::AdminVerb::Reload,
                name: "stream".to_string(),
                arg: String::new(),
            })
            .unwrap_err()
            .to_string();
        assert!(err.contains("live"), "{err}");

        server.join().unwrap().unwrap();

        // Flag validation: a compaction bound of one segment is senseless.
        let err = run(&s(&[
            "serve",
            "--live",
            "x",
            "--listen",
            "127.0.0.1:0",
            "--compact-at",
            "1",
        ]))
        .unwrap_err();
        assert!(err.contains("--compact-at"), "{err}");

        std::fs::remove_file(&port_file).ok();
    }

    /// `--write-timeout-ms` on the shared runtime: a client that connects
    /// and never reads is shed once the socket write stalls past the
    /// timeout, releasing the only worker for a real query — and the daemon
    /// still drains cleanly at --max-conns.
    #[test]
    fn serve_shard_write_timeout_sheds_a_stalled_reader() {
        let dir = std::env::temp_dir();
        let data = dir.join("ttk_cli_test_wtimeout.csv");
        let path = data.to_string_lossy().to_string();
        run(&s(&[
            "generate",
            "synthetic",
            "--tuples",
            "200000",
            "--seed",
            "29",
            "--out",
            &path,
        ]))
        .unwrap();
        let port_file = dir.join("ttk_cli_test_wtimeout_port");
        std::fs::remove_file(&port_file).ok();
        let server_args = s(&[
            "serve-shard",
            &path,
            "--score",
            "score",
            "--listen",
            "127.0.0.1:0",
            "--port-file",
            &port_file.to_string_lossy(),
            "--max-conns",
            "2",
            "--max-parallel",
            "1",
            "--write-timeout-ms",
            "200",
        ]);
        let server = std::thread::spawn(move || run(&server_args));
        let addr = poll_port_file(&port_file);

        // The stalled reader: connects, announces a full replay (k = 0),
        // reads nothing. The server replays 200k tuples into the socket
        // until the kernel buffers fill, then the 200 ms write timeout sheds
        // the connection and frees the worker.
        let stalled = TcpStream::connect(&addr).unwrap();
        wire::write_scan(&mut (&stalled), &wire::PushdownQuery { k: 0, p_tau: 0.0 }).unwrap();
        std::thread::sleep(Duration::from_millis(100));

        // The real query completes on the single worker the stall would
        // otherwise have pinned forever.
        run(&s(&[
            "query",
            "--remote-shard",
            &addr,
            "--score",
            "score",
            "--k",
            "2",
            "--remote-timeout",
            "30",
        ]))
        .unwrap();

        drop(stalled);
        server.join().unwrap().unwrap();
        std::fs::remove_file(&port_file).ok();
        std::fs::remove_file(&data).ok();
    }
}
