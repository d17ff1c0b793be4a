//! `ttk serve-shard`, `ttk serve` and `ttk coordinator`: the three daemon
//! verbs, their connection handlers on the shared runtime of
//! `ttk_core::daemon`, the start-up they share and the signal handler.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ttk_core::remote;
use ttk_core::{
    bind_daemon_listener, run_daemon, serve_client, serve_stream, AppendLog, ConnectOptions,
    ConnectionHandler, DaemonControl, DaemonOptions, Dataset, DatasetLoader, DatasetRegistry,
    QueryServeOptions, ResultCache, ServeOptions, Session, ShedPolicy,
};
use ttk_pdb::{count_csv_records, parse_expression, CsvDataset, CsvOptions, Expr};
use ttk_uncertain::{wire, LeaseRegistry, ShardAssignment};

use crate::query::resolve_dataset;
use crate::{
    get, get_parse, parse, parse_csv_options, parse_named_file, passes, Flags, COORDINATOR, SERVE,
    SERVE_SHARD, SERVE_SHARD_LEASED,
};

/// The start-up the three daemon verbs share: the flags every daemon reads
/// (`--listen`, `--port-file`, `--max-conns`, `--max-parallel`,
/// `--write-timeout-ms`), checked before the verb loads anything.
struct Daemon {
    listen: String,
    port_file: Option<String>,
    options: DaemonOptions,
}

impl Daemon {
    /// Reads the daemon flags. `workers` is the `--max-parallel` default,
    /// and the pool size of a verb whose table has no `--max-parallel`.
    fn new(flags: &Flags, workers: usize, shed: ShedPolicy) -> Result<Self, String> {
        let listen = get(flags, "listen").ok_or("--listen HOST:PORT is required")?;
        let workers = get_parse(flags, "max-parallel", workers)?;
        if workers == 0 {
            return Err("--max-parallel must be at least 1".to_string());
        }
        // How long a worker's blocked reply write may stall on a client that
        // stopped reading before the connection is shed (0 = no timeout).
        let write_timeout = match get_parse(flags, "write-timeout-ms", 0u64)? {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        };
        Ok(Daemon {
            listen: listen.to_string(),
            port_file: get(flags, "port-file").map(str::to_string),
            options: DaemonOptions {
                workers,
                max_conns: get_parse(flags, "max-conns", 0usize)?,
                write_timeout,
                shed,
            },
        })
    }

    /// Binds the listener (publishing `--port-file`), installs the signal
    /// handler, logs what it serves and runs `handler` until `--max-conns`
    /// connections were served or a signal drained the daemon.
    fn run<H: ConnectionHandler>(&self, serving: &str, handler: &H) -> Result<(), String> {
        let (listener, bound) = bind_daemon_listener(&self.listen, self.port_file.as_deref())?;
        install_shutdown_handler();
        let exit = match self.options.max_conns {
            0 => String::new(),
            n => format!(", exiting after {n} connections"),
        };
        eprintln!(
            "{serving} on {bound} (workers: {}{exit})",
            self.options.workers
        );
        run_daemon(&listener, handler, &self.options, &SHUTDOWN)?;
        Ok(())
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
pub(crate) fn cmd_serve_shard(args: &[String]) -> Result<(), String> {
    let leased = passes(args, "coordinator");
    let (positional, mut flags) = parse(
        if leased {
            &SERVE_SHARD_LEASED
        } else {
            &SERVE_SHARD
        },
        args,
    )?;
    // Checked before a lease is taken; the dataset reads it again.
    get(&flags, "score").ok_or("--score is required")?;
    // Streaming clients block on their replay anyway: when every worker is
    // busy the flood waits in the listen backlog, as it always has.
    let daemon = Daemon::new(&flags, 8, ShedPolicy::Block)?;

    // The daemon's assignment: a coordinator lease (id base + namespace),
    // or an operator-pinned namespace with the operator's --id-base. Served
    // in every hello so clients can cross-check their shard set; absent
    // both, the hello asserts nothing.
    let assignment: Option<ShardAssignment> = match get(&flags, "coordinator") {
        Some(coordinator) => {
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

    let dataset = resolve_dataset(&positional, &flags, true)?;
    let serving = format!("serving dataset `{}`", dataset.label());
    let handler = ShardHandler {
        dataset,
        assignment,
    };
    daemon.run(&serving, &handler)
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
pub(crate) fn cmd_serve(args: &[String]) -> Result<(), String> {
    /// Handoff polls (5 ms apart) before a connection nobody can serve is
    /// shed with a busy frame instead of waiting for a worker.
    const BUSY_GRACE_POLLS: usize = 10;
    /// The retry-after hint stamped into shed busy frames.
    const BUSY_RETRY_AFTER_MS: u64 = 100;
    let (positional, flags) = parse(&SERVE, args)?;
    // A pool that stays busy through the whole grace window sheds the
    // connection with a busy/retry-after frame instead of parking it — the
    // client retries with backoff, and the daemon never accumulates a queue
    // of connections nobody is draining.
    let daemon = Daemon::new(
        &flags,
        4,
        ShedPolicy::Busy {
            grace_polls: BUSY_GRACE_POLLS,
            retry_after_ms: BUSY_RETRY_AFTER_MS,
        },
    )?;
    let live_names: Vec<String> = flags.get("live").cloned().unwrap_or_default();
    if positional.is_empty() && live_names.is_empty() {
        return Err(
            "no datasets: pass NAME=FILE.csv positionals naming the datasets to keep resident, \
             or --live NAME for growing datasets fed by `ttk append`"
                .to_string(),
        );
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
            let (name, path) = parse_named_file(spec)?;
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
    let serving = format!(
        "serving {} resident dataset(s) with a result cache of {cache_entries} entries",
        registry.len()
    );
    let handler = QueryHandler {
        registry,
        cache: ResultCache::new(cache_entries).with_ttl(cache_ttl),
        options: serve_options,
    };
    daemon.run(&serving, &handler)?;
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
pub(crate) fn cmd_coordinator(args: &[String]) -> Result<(), String> {
    let (_, flags) = parse(&COORDINATOR, args)?;
    // One worker processes registrations in arrival order, so the leased id
    // ranges stay contiguous and non-overlapping.
    let daemon = Daemon::new(&flags, 1, ShedPolicy::Block)?;
    let handler = CoordinatorHandler {
        namespace: get(&flags, "namespace")
            .unwrap_or("ttk-coordinated")
            .to_string(),
        max_leases: get_parse(&flags, "max-leases", 0usize)?,
    };
    daemon.run(
        &format!("coordinating namespace `{}`", handler.namespace),
        &handler,
    )
}
