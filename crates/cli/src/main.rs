//! `ttk` — a small command line front end for typical top-k queries on
//! uncertain data.
//!
//! Subcommands:
//!
//! * `ttk generate cartel|synthetic [options]` — write a CSV dataset to
//!   stdout (or `--out FILE`).
//! * `ttk query DATA.csv --score EXPR --k K [options]` — run a top-k
//!   distribution query over a CSV relation and print the plan, the
//!   histogram, the typical answers and the U-Topk comparison point. Every
//!   input form (positional/`--file` single file, repeatable `--shard`,
//!   out-of-core `--spill-buffer`) resolves to one `Dataset` served by one
//!   `Session`.
//! * `ttk explain DATA.csv --score EXPR [--k K]` — print the execution plan
//!   (chosen scan path, row/depth/cost estimates) without running the query;
//!   `--after` executes the query first so the plan also reports the
//!   observed scan depth next to the estimate.
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
//!
//! Each verb mode has one flag table listing exactly the flags it reads
//! (the modes are chosen by the generator kind, by `--server` on `query`
//! and `explain`, by `--coordinator` on `serve-shard` and by `--row` or
//! `--file` on `append`); [`parse`] rejects every other flag before the
//! verb reads a file or dials an address. The code is split by verb:
//!
//! * this file — dispatch, [`usage`], the flag tables and the flag helpers;
//! * [`generate`] — `ttk generate`;
//! * [`query`] — `ttk soldier`, `query` and `explain`: input resolution and
//!   answer printing;
//! * [`daemons`] — `ttk serve-shard`, `serve` and `coordinator`: their
//!   connection handlers, the bootstrap they share and the signal handler;
//! * [`clients`] — `ttk append`, `watch` and `admin`.

mod clients;
mod daemons;
mod generate;
mod query;

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Duration;

use ttk_core::{Algorithm, ConnectOptions, RemoteQueryClient, TopkQuery};
use ttk_pdb::CsvOptions;

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

/// Runs one `ttk` command line; a verb's errors start `ttk VERB:`.
fn run(args: &[String]) -> Result<(), String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("missing command".to_string());
    };
    let verb: fn(&[String]) -> Result<(), String> = match command.as_str() {
        "soldier" => query::cmd_soldier,
        "generate" => generate::cmd_generate,
        "query" => query::cmd_query,
        "explain" => query::cmd_explain,
        "serve-shard" => daemons::cmd_serve_shard,
        "serve" => daemons::cmd_serve,
        "coordinator" => daemons::cmd_coordinator,
        "append" => clients::cmd_append,
        "watch" => clients::cmd_watch,
        "admin" => clients::cmd_admin,
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            return Ok(());
        }
        other => return Err(format!("unknown command `{other}`")),
    };
    verb(rest).map_err(|e| format!("ttk {command}: {e}"))
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
              [--remote-timeout SECS] [--remote-retries N] [--no-pushdown]
  ttk explain (DATA.csv | --file DATA.csv | --shard ... | --remote-shard ...
               | --server HOST:PORT --dataset NAME --after)
              --score EXPR [--k K] [--c C] [--p-tau P] [--max-lines N]
              [--algorithm ...] [--prob-column NAME] [--group-column NAME]
              [--spill-buffer TUPLES] [--id-base N] [--after]
              [--remote-timeout SECS] [--remote-retries N] [--no-pushdown]
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

  Each command accepts exactly the flags listed for it above, and each of
  its modes (the generator kind; --server on query and explain;
  --coordinator on serve-shard; --row or --file on append) only the flags
  that mode reads; any other flag is an error naming the flag and the mode.

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
  refreshes each server's bound every 64 tuples pulled as its merge-side
  gate tightens. --no-pushdown announces k = 0, which asks for the full
  replay. Results are bit-identical either way.

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

/// The flags one mode of a verb reads, as space-separated names. Each takes
/// one value, except the switches, whose presence means `true`.
struct Mode {
    /// The verb, and what selects this mode when the verb has several.
    name: &'static str,
    /// Why a flag outside the table does not apply in this mode.
    reason: &'static str,
    values: &'static str,
    switches: &'static str,
    /// Whether the mode reads bare words (input files, dataset specs, the
    /// generator kind, admin verbs).
    positionals: bool,
}

const SOLDIER: Mode = Mode {
    name: "soldier",
    reason: "it runs the paper's fixed example",
    values: "",
    switches: "",
    positionals: false,
};

const GENERATE_CARTEL: Mode = Mode {
    name: "generate cartel",
    reason: "a CarTel area is sized by --segments",
    values: "segments seed out shards",
    switches: "",
    positionals: true,
};

const GENERATE_SYNTHETIC: Mode = Mode {
    name: "generate synthetic",
    reason: "a synthetic table is sized by --tuples and shaped by --rho, --sigma, --me-size and \
             --me-gap",
    values: "tuples rho sigma me-size me-gap seed out shards",
    switches: "",
    positionals: true,
};

const QUERY: Mode = Mode {
    name: "query",
    reason: "without --server it scans its own input (a CSV file, --shard files or \
             --remote-shard servers) scored with --score",
    values: "file shard remote-shard score k c p-tau max-lines algorithm prob-column \
             group-column buckets batch threads spill-buffer id-base remote-timeout \
             remote-retries",
    switches: "no-pushdown",
    positionals: true,
};

const QUERY_SERVER: Mode = Mode {
    name: "query --server",
    reason: "the whole query ships to the daemon's resident dataset, scored when the daemon \
             loaded it",
    values: "server dataset k c p-tau max-lines algorithm buckets batch remote-timeout \
             remote-retries",
    switches: "",
    positionals: false,
};

const EXPLAIN: Mode = Mode {
    name: "explain",
    reason: "without --server it plans a scan of its own input (a CSV file, --shard files or \
             --remote-shard servers) scored with --score",
    values: "file shard remote-shard score k c p-tau max-lines algorithm prob-column \
             group-column spill-buffer id-base remote-timeout remote-retries",
    switches: "after no-pushdown",
    positionals: true,
};

const EXPLAIN_SERVER: Mode = Mode {
    name: "explain --server",
    reason: "the whole query ships to the daemon's resident dataset, scored when the daemon \
             loaded it",
    values: "server dataset k c p-tau max-lines algorithm remote-timeout remote-retries",
    switches: "after",
    positionals: false,
};

const SERVE_SHARD: Mode = Mode {
    name: "serve-shard",
    reason: "without --coordinator it serves one local CSV input (a file or --shard files) at \
             the operator's --id-base",
    values: "file shard score listen id-base namespace spill-buffer max-conns max-parallel \
             port-file write-timeout-ms prob-column group-column",
    switches: "",
    positionals: true,
};

const SERVE_SHARD_LEASED: Mode = Mode {
    name: "serve-shard --coordinator",
    reason: "the coordinator leases the id base and the namespace (set it with `ttk \
             coordinator --namespace`)",
    values: "file shard score listen coordinator spill-buffer max-conns max-parallel \
             port-file write-timeout-ms prob-column group-column",
    switches: "",
    positionals: true,
};

const SERVE: Mode = Mode {
    name: "serve",
    reason: "the usage below lists the flags serve reads",
    values: "live score listen seal-every compact-at max-conns max-parallel cache-entries \
             cache-ttl-ms write-timeout-ms request-wait-ms port-file prob-column group-column",
    switches: "",
    positionals: true,
};

const COORDINATOR: Mode = Mode {
    name: "coordinator",
    reason: "it serves id-base leases, not data, and exits after --max-leases",
    values: "listen namespace max-leases port-file write-timeout-ms",
    switches: "",
    positionals: false,
};

const APPEND_ROWS: Mode = Mode {
    name: "append --row",
    reason: "pass either --row literals or one --file CSV, not both; --row literals carry \
             their own score and group",
    values: "server dataset row remote-timeout remote-retries",
    switches: "seal",
    positionals: false,
};

const APPEND_FILE: Mode = Mode {
    name: "append",
    reason: "without --row it scores one --file CSV with --score",
    values: "server dataset file score prob-column group-column remote-timeout remote-retries",
    switches: "seal",
    positionals: false,
};

const WATCH: Mode = Mode {
    name: "watch",
    reason: "it subscribes to a resident dataset of a ttk serve daemon",
    values: "server dataset k c p-tau max-lines algorithm pushes buckets remote-timeout \
             remote-retries",
    switches: "",
    positionals: false,
};

const ADMIN: Mode = Mode {
    name: "admin",
    reason: "it ships one management verb to a ttk serve daemon",
    values: "server remote-timeout remote-retries",
    switches: "",
    positionals: true,
};

/// Whether `args` pass the flag `--name`: what chooses between a verb's
/// modes.
fn passes(args: &[String], name: &str) -> bool {
    args.iter().any(|arg| arg.strip_prefix("--") == Some(name))
}

/// Parses `args` against `mode`'s table in one pass into bare words and
/// `--name value` flags. A flag outside the table, or a bare word where the
/// mode reads none, is an error naming it and giving the mode's reason.
fn parse(mode: &Mode, args: &[String]) -> Result<(Vec<String>, Flags), String> {
    let lists = |names: &str, name: &str| names.split_whitespace().any(|listed| listed == name);
    let mut positional = Vec::new();
    let mut flags = Flags::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(name) = arg.strip_prefix("--") else {
            if !mode.positionals {
                return Err(format!(
                    "{} takes no positional argument `{arg}`: {}",
                    mode.name, mode.reason
                ));
            }
            positional.push(arg.clone());
            continue;
        };
        let value = if lists(mode.switches, name) {
            "true".to_string()
        } else if lists(mode.values, name) {
            args.next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?
                .clone()
        } else {
            return Err(format!(
                "{} takes no --{name}: {}; drop --{name}",
                mode.name, mode.reason
            ));
        };
        flags.entry(name.to_string()).or_default().push(value);
    }
    Ok((positional, flags))
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

/// Parses the query-shape flags (k, c, p-tau, max-lines, algorithm):
/// everything a `--server` query ships over the wire.
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

/// The `--server`/`--dataset` client of `query`, `explain` and `watch`.
fn server_query_client(flags: &Flags) -> Result<(RemoteQueryClient, String), String> {
    let server = get(flags, "server").ok_or("--server HOST:PORT is required")?;
    let dataset = get(flags, "dataset")
        .ok_or("--server queries name a resident dataset: add --dataset NAME")?
        .to_string();
    let client = RemoteQueryClient::new(server).with_connect_options(parse_connect_options(flags)?);
    Ok((client, dataset))
}

/// The remote-dial options: `--remote-timeout SECS` bounds both the connect
/// and the per-read wait on every connection, `--remote-retries N` sets how
/// many times a failed dial or lost handshake is retried (exponential
/// backoff between attempts).
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

/// Splits a `NAME=FILE.csv` dataset spec (a `serve` positional, `admin
/// register`) into its two non-empty halves.
fn parse_named_file(spec: &str) -> Result<(&str, &str), String> {
    spec.split_once('=')
        .filter(|(name, path)| !name.is_empty() && !path.is_empty())
        .ok_or_else(|| {
            format!("expected NAME=FILE.csv, got `{spec}` (name the dataset clients will query)")
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;
    use std::time::Duration;

    use crate::generate::{parse_range, shard_path};
    use ttk_core::{RemoteShardDataset, Session};
    use ttk_datagen::synthetic::IntRange;
    use ttk_pdb::{parse_expression, CsvDataset, ShardImportOptions};
    use ttk_uncertain::{wire, SourceTuple, UncertainTuple};

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
        let (pos, flags) = parse(
            &GENERATE_CARTEL,
            &s(&["cartel", "--segments", "40", "--seed", "7"]),
        )
        .unwrap();
        assert_eq!(pos, vec!["cartel"]);
        assert_eq!(get(&flags, "segments"), Some("40"));
        assert_eq!(get(&flags, "seed"), Some("7"));
        assert!(parse(&GENERATE_CARTEL, &s(&["--oops"])).is_err());
        // Repeated flags accumulate in order; `get` returns the last value.
        let (_, flags) = parse(
            &QUERY,
            &s(&[
                "--shard", "a.csv", "--shard", "b.csv", "--k", "1", "--k", "2",
            ]),
        )
        .unwrap();
        assert_eq!(flags.get("shard").unwrap(), &vec!["a.csv", "b.csv"]);
        assert_eq!(get(&flags, "k"), Some("2"));
    }

    #[test]
    fn flag_value_parsing_and_ranges() {
        let (_, flags) = parse(&QUERY, &s(&["--k", "5"])).unwrap();
        assert_eq!(get_parse(&flags, "k", 0usize).unwrap(), 5);
        assert_eq!(get_parse(&flags, "missing", 3usize).unwrap(), 3);
        assert!(get_parse::<usize>(&flags, "k", 0).is_ok());
        let (_, bad) = parse(&QUERY, &s(&["--k", "five"])).unwrap();
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
        // Each case fails before any file is read, any address bound or any
        // server dialled.
        let cases: [(&str, &[&str]); 20] = [
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
            // Flags of another mode of the same verb.
            (
                "--tuples",
                &["generate", "cartel", "--segments", "2", "--tuples", "5"],
            ),
            (
                "--segments",
                &["generate", "synthetic", "--tuples", "3", "--segments", "2"],
            ),
            (
                "--dataset",
                &[
                    "query",
                    "x.csv",
                    "--score",
                    "d",
                    "--k",
                    "2",
                    "--dataset",
                    "d",
                ],
            ),
            (
                "--no-pushdown",
                &[
                    "query",
                    "x.csv",
                    "--score",
                    "d",
                    "--k",
                    "2",
                    "--no-pushdown",
                ],
            ),
            (
                "--remote-timeout",
                &[
                    "query",
                    "x.csv",
                    "--score",
                    "d",
                    "--k",
                    "2",
                    "--remote-timeout",
                    "3",
                ],
            ),
            (
                "--threads",
                &[
                    "query",
                    "--server",
                    "127.0.0.1:1",
                    "--dataset",
                    "d",
                    "--k",
                    "1",
                    "--threads",
                    "4",
                ],
            ),
            (
                "--no-pushdown",
                &[
                    "query",
                    "--server",
                    "127.0.0.1:1",
                    "--dataset",
                    "d",
                    "--k",
                    "1",
                    "--no-pushdown",
                ],
            ),
            (
                "--id-base",
                &[
                    "explain",
                    "--server",
                    "127.0.0.1:1",
                    "--dataset",
                    "d",
                    "--k",
                    "1",
                    "--after",
                    "--id-base",
                    "7",
                ],
            ),
            (
                "--prob-column",
                &[
                    "append",
                    "--server",
                    "127.0.0.1:1",
                    "--dataset",
                    "d",
                    "--row",
                    "1:2:0.5",
                    "--prob-column",
                    "p",
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
    }

    /// The synopsis of each verb in `usage()` lists exactly the flags of its
    /// mode tables, and each generator kind's line those of its own table.
    #[test]
    fn usage_synopsis_lists_exactly_the_flags_of_the_mode_tables() {
        use std::collections::{BTreeMap, BTreeSet};
        let synopsis = usage().split("\n\n").next().unwrap();
        let mut listed: BTreeMap<String, BTreeSet<&str>> = BTreeMap::new();
        let mut verb = String::new();
        for line in synopsis.lines().skip(1) {
            if let Some(rest) = line.trim_start().strip_prefix("ttk ") {
                let words = if rest.starts_with("generate") { 2 } else { 1 };
                verb = rest
                    .split_whitespace()
                    .take(words)
                    .collect::<Vec<_>>()
                    .join(" ");
            }
            let flags = line
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter_map(|word| word.strip_prefix("--"));
            listed.entry(verb.clone()).or_default().extend(flags);
        }
        let tables: [(&str, &[&Mode]); 11] = [
            ("soldier", &[&SOLDIER]),
            ("generate cartel", &[&GENERATE_CARTEL]),
            ("generate synthetic", &[&GENERATE_SYNTHETIC]),
            ("query", &[&QUERY, &QUERY_SERVER]),
            ("explain", &[&EXPLAIN, &EXPLAIN_SERVER]),
            ("serve", &[&SERVE]),
            ("append", &[&APPEND_ROWS, &APPEND_FILE]),
            ("watch", &[&WATCH]),
            ("serve-shard", &[&SERVE_SHARD, &SERVE_SHARD_LEASED]),
            ("coordinator", &[&COORDINATOR]),
            ("admin", &[&ADMIN]),
        ];
        assert_eq!(listed.len(), tables.len(), "{:?}", listed.keys());
        for (verb, modes) in tables {
            let union: BTreeSet<&str> = modes
                .iter()
                .flat_map(|mode| {
                    mode.values
                        .split_whitespace()
                        .chain(mode.switches.split_whitespace())
                })
                .collect();
            assert_eq!(listed[verb], union, "ttk {verb}");
        }
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
        let (_, flags) = parse(
            &QUERY,
            &s(&["--remote-timeout", "2.5", "--remote-retries", "7"]),
        )
        .unwrap();
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
        let (_, bad) = parse(&QUERY, &s(&["--remote-timeout", "-1"])).unwrap();
        assert!(parse_connect_options(&bad).is_err());
        let (_, bad) = parse(&QUERY, &s(&["--remote-timeout", "forever"])).unwrap();
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
