//! The shared daemon runtime every `ttk` serving process runs on.
//!
//! Before this module, `ttk serve-shard`, `ttk coordinator` and `ttk serve`
//! each hand-rolled the same lifecycle: bind a listener (optionally
//! advertising the bound port through an atomically-written port file), run
//! an accept loop that honours a shutdown flag, bound concurrency with a
//! worker pool, isolate per-connection failures, and drain in-flight
//! connections on exit. [`run_daemon`] is that lifecycle extracted once:
//!
//! * **Admission control.** Accepted connections are handed to a bounded
//!   pool of pre-spawned workers over a rendezvous channel (capacity 0): a
//!   handoff only succeeds when a worker is actually waiting, so a
//!   connection flood queues in the listen backlog instead of buffering
//!   inside the process. [`ShedPolicy`] decides what happens when every
//!   worker stays busy: [`ShedPolicy::Block`] waits (a streaming daemon's
//!   clients are patient), [`ShedPolicy::Busy`] sheds the connection after
//!   a short grace window via [`ConnectionHandler::shed`] — typically a
//!   busy/retry-after frame — so the daemon never accumulates connections
//!   nobody is draining.
//! * **Error isolation.** A worker serves one connection at a time through
//!   [`ConnectionHandler::serve`]; whether the connection ends in a summary
//!   or an error, the runtime logs one line and the worker moves on. A bad
//!   client never kills the daemon.
//! * **Stall protection.** [`DaemonOptions::write_timeout`] arms
//!   `set_write_timeout` on every accepted socket, so a client that stops
//!   reading mid-reply costs its worker a bounded wait, not forever.
//! * **Drain discipline.** The accept loop blocks in `accept`, so a new
//!   connection is picked up the moment it arrives. Two flags ask it to
//!   stop: the caller's shutdown flag (set by a signal handler the *binary*
//!   installs — this crate forbids unsafe code) and the handler-requested
//!   drain ([`DaemonControl::request_drain`], how `ttk coordinator
//!   --max-leases` exits). A watcher thread checks them every 10 ms; once
//!   either is set, it dials the listener once to wake the blocked `accept`
//!   (loopback of the same family for a wildcard bind). The loop checks the
//!   flags after every accept and drops that connection unserved when
//!   draining. [`DaemonOptions::max_conns`] ends the loop inline, right
//!   after the last handoff. Either way the loop stops accepting, the
//!   channel closes, and every in-flight connection is joined before
//!   [`run_daemon`] returns its [`DaemonReport`].
//!
//! Transient accept failures (an aborted handshake, fd pressure) are logged
//! and survived; [`MAX_CONSECUTIVE_ACCEPT_FAILURES`] of them back-to-back —
//! or one fatal listener error — end the daemon with an error after the
//! in-flight connections drain.

use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How often the drain watcher checks the stop flags while the accept loop
/// blocks in `accept`.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// How long the handoff loop sleeps between attempts to hand a connection
/// to a worker.
const HANDOFF_POLL: Duration = Duration::from_millis(5);

/// Even "transient" accept errors repeating back-to-back with no successful
/// accept in between mean the listener is wedged; give up after this many.
pub const MAX_CONSECUTIVE_ACCEPT_FAILURES: usize = 128;

/// What a daemon does with a connection when every worker is busy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Wait for a worker, however long it takes (still honouring drain
    /// requests). Right for streaming replays whose clients block anyway.
    Block,
    /// Wait `grace_polls` handoff polls, then shed the connection through
    /// [`ConnectionHandler::shed`] with `retry_after_ms` as the hint.
    /// Shed connections never count toward [`DaemonOptions::max_conns`],
    /// which bounds *served* connections.
    Busy {
        /// Handoff polls (5 ms apart) before the connection is shed.
        grace_polls: usize,
        /// The retry-after hint passed to [`ConnectionHandler::shed`].
        retry_after_ms: u64,
    },
}

/// The knobs of one [`run_daemon`] invocation.
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// Workers in the pool — the daemon's connection parallelism (≥ 1).
    pub workers: usize,
    /// Exit after this many *served* connections (0 = unlimited). Shed
    /// connections do not count.
    pub max_conns: usize,
    /// When set, armed as `set_write_timeout` on every accepted socket so a
    /// stalled reader cannot pin a worker forever. `None` keeps the OS
    /// default (block indefinitely), the historical behaviour.
    pub write_timeout: Option<Duration>,
    /// What to do when every worker is busy.
    pub shed: ShedPolicy,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        DaemonOptions {
            workers: 4,
            max_conns: 0,
            write_timeout: None,
            shed: ShedPolicy::Block,
        }
    }
}

/// The runtime's view of "should we stop?", shared with every handler call.
///
/// Two flags feed it: the caller's shutdown flag (flipped by the binary's
/// signal handler) and an internal drain flag any handler can raise with
/// [`request_drain`](DaemonControl::request_drain) — how a daemon that has
/// done its configured amount of work (say, delivered `--max-leases`
/// leases) asks the accept loop to wind down.
pub struct DaemonControl<'a> {
    shutdown: &'a AtomicBool,
    drain: AtomicBool,
}

impl<'a> DaemonControl<'a> {
    fn new(shutdown: &'a AtomicBool) -> Self {
        DaemonControl {
            shutdown,
            drain: AtomicBool::new(false),
        }
    }

    /// True once either stop condition holds: the accept loop will accept
    /// no further connections.
    pub fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || self.drain.load(Ordering::SeqCst)
    }

    /// Asks the accept loop to stop accepting and drain. In-flight
    /// connections (including the one whose handler is calling this)
    /// finish normally.
    pub fn request_drain(&self) {
        self.drain.store(true, Ordering::SeqCst);
    }

    /// The caller's shutdown flag — what long-running per-connection loops
    /// (subscription pushes) poll so a drain request interrupts them.
    pub fn shutdown_flag(&self) -> &'a AtomicBool {
        self.shutdown
    }
}

/// What one daemon serves per connection. Implementations are shared across
/// the worker pool (`Sync`); per-worker mutable state (a [`crate::Session`],
/// a lease registry) lives in [`ConnectionHandler::Worker`].
pub trait ConnectionHandler: Sync {
    /// Per-worker state, built once per pool worker and threaded through
    /// every connection that worker serves.
    type Worker: Send;

    /// Builds worker `worker_id`'s state (ids run `0..workers`).
    fn worker(&self, worker_id: usize) -> Self::Worker;

    /// Serves one connection to completion. Both arms become one log line
    /// (`connection PEER (worker N): …`): `Ok` is the summary of a served
    /// connection, `Err` the isolated failure — either way the worker moves
    /// on to the next connection.
    fn serve(
        &self,
        worker: &mut Self::Worker,
        stream: TcpStream,
        control: &DaemonControl<'_>,
    ) -> Result<String, String>;

    /// Called on the accept thread for a connection shed under
    /// [`ShedPolicy::Busy`] — the place to write a busy/retry-after frame.
    /// Best-effort: the default does nothing (the client just sees the
    /// close).
    fn shed(&self, stream: &TcpStream, retry_after_ms: u64) {
        let _ = (stream, retry_after_ms);
    }
}

/// Why [`run_daemon`] stopped accepting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainReason {
    /// The caller's shutdown flag flipped (a signal, typically).
    Shutdown,
    /// [`DaemonOptions::max_conns`] served connections were reached.
    MaxConns,
    /// A handler called [`DaemonControl::request_drain`].
    HandlerDrain,
}

/// What one [`run_daemon`] run did, reported after the drain completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonReport {
    /// Connections handed to a worker (shed connections excluded).
    pub served: u64,
    /// Connections shed under [`ShedPolicy::Busy`].
    pub shed: u64,
    /// Why the accept loop stopped.
    pub reason: DrainReason,
}

/// Binds the daemon listener on `listen` and — when `port_file` is set —
/// advertises the bound address through an atomically-written file (the
/// `--listen 127.0.0.1:0` + `--port-file` handshake scripts and tests use).
/// Returns the listener and the bound `host:port`.
///
/// # Errors
///
/// A human-readable message when the bind or the port-file write fails.
pub fn bind_daemon_listener(
    listen: &str,
    port_file: Option<&str>,
) -> Result<(TcpListener, String), String> {
    let listener =
        TcpListener::bind(listen).map_err(|e| format!("cannot listen on {listen}: {e}"))?;
    let bound = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    if let Some(path) = port_file {
        write_file_atomically(path, &bound)?;
    }
    Ok((listener, bound))
}

/// Writes `contents` to `path` atomically: the bytes land in a unique temp
/// file in the same directory which is then renamed into place, so a
/// concurrently-polling reader observes either no file or the complete
/// contents — never a partial write.
///
/// # Errors
///
/// A human-readable message when the temp write or the rename fails.
pub fn write_file_atomically(path: &str, contents: &str) -> Result<(), String> {
    let target = std::path::Path::new(path);
    let mut tmp_name = target.as_os_str().to_owned();
    tmp_name.push(format!(".tmp-{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp_name);
    std::fs::write(&tmp, contents).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, target)
        .map_err(|e| format!("cannot move {} to {path}: {e}", tmp.display()))
}

/// True for accept-loop failures that concern one connection attempt (an
/// aborted handshake, a reset before accept, fd pressure) rather than the
/// listener itself. Fatal errors — the listener fd is dead, the address
/// became invalid — must exit non-zero instead of spinning forever.
pub fn accept_error_is_transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::WouldBlock
    )
}

/// The peer address for log lines, tolerating sockets already dead.
fn peer_of(stream: &TcpStream) -> String {
    stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "<unknown>".to_string())
}

/// Runs the daemon lifecycle on `listener` until a drain condition: spawns
/// `options.workers` pool workers, accepts and hands off connections under
/// the shed policy, and joins every in-flight connection before returning.
///
/// The caller owns `shutdown` (typically a `static` its signal handler
/// flips); the runtime only reads it. The loop blocks in `accept` (the
/// listener is switched to blocking mode if it was not), and a watcher
/// thread wakes it with one connection of its own once a drain is
/// requested — see the module doc.
///
/// # Errors
///
/// A human-readable message when the listener's mode or address cannot be
/// read or set, when the listener dies (a fatal accept error, or
/// [`MAX_CONSECUTIVE_ACCEPT_FAILURES`] transient ones back-to-back), when
/// every worker exits while connections still arrive, or when
/// `options.workers` is zero. In-flight connections are joined before any
/// error returns.
pub fn run_daemon<H: ConnectionHandler>(
    listener: &TcpListener,
    handler: &H,
    options: &DaemonOptions,
    shutdown: &AtomicBool,
) -> Result<DaemonReport, String> {
    if options.workers == 0 {
        return Err("a daemon needs at least one worker".to_string());
    }
    listener
        .set_nonblocking(false)
        .map_err(|e| format!("cannot block on the listener: {e}"))?;
    let wake = wake_address(listener)?;

    let control = DaemonControl::new(shutdown);
    // The rendezvous handoff: capacity 0 means `try_send` only succeeds
    // when a worker is actually blocked in `recv`, so the accept loop
    // backpressures instead of buffering connections nobody can serve yet.
    let (conn_tx, conn_rx) = sync_channel::<TcpStream>(0);
    let conn_rx = Arc::new(Mutex::new(conn_rx));

    std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(options.workers);
        for worker_id in 0..options.workers {
            let conn_rx = Arc::clone(&conn_rx);
            let control = &control;
            workers.push(scope.spawn(move || {
                let mut state = handler.worker(worker_id);
                loop {
                    // Take the receiver lock only to pull the next
                    // connection; serving happens outside it so workers run
                    // concurrently.
                    let next = conn_rx.lock().expect("connection channel poisoned").recv();
                    let Ok(stream) = next else {
                        break; // Sender dropped: the daemon is draining.
                    };
                    let peer = peer_of(&stream);
                    match handler.serve(&mut state, stream, control) {
                        Ok(line) => eprintln!("connection {peer} (worker {worker_id}): {line}"),
                        Err(line) => eprintln!("connection {peer} (worker {worker_id}): {line}"),
                    }
                }
            }));
        }
        drop(conn_rx); // Workers hold the only receiver handles now.

        // Disconnected when the accept loop ends, which stops the watcher.
        let (loop_done, watcher_done) = channel::<()>();
        let watcher_control = &control;
        scope.spawn(move || watch_for_drain(watcher_control, wake, &watcher_done));

        let mut served = 0u64;
        let mut shed = 0u64;
        let mut consecutive_failures = 0usize;
        let result = 'accept: loop {
            if control.draining() {
                break Ok(drain_reason(&control));
            }
            let stream = match listener.accept() {
                Ok((stream, _)) => {
                    consecutive_failures = 0;
                    stream
                }
                Err(e) if accept_error_is_transient(&e) => {
                    consecutive_failures += 1;
                    if consecutive_failures >= MAX_CONSECUTIVE_ACCEPT_FAILURES {
                        break Err(format!(
                            "accept failing persistently ({e} and \
                             {MAX_CONSECUTIVE_ACCEPT_FAILURES} predecessors); the listener is \
                             presumed dead"
                        ));
                    }
                    eprintln!("accepting connection: {e}");
                    continue;
                }
                Err(e) => break Err(format!("accept failed fatally: {e}")),
            };
            // A drain request (or the watcher's wake-up connection): the
            // connection just accepted is dropped unserved.
            if control.draining() {
                break Ok(drain_reason(&control));
            }
            // The stall bound is armed when configured. A socket refusing it
            // is dead on arrival: log and move on, exactly like any other
            // per-connection error.
            if let Some(timeout) = options.write_timeout {
                if let Err(e) = stream.set_write_timeout(Some(timeout)) {
                    eprintln!(
                        "connection {}: cannot arm the write timeout: {e}",
                        peer_of(&stream)
                    );
                    continue;
                }
            }

            // Hand off under backpressure, still honouring drain requests
            // (the connection just accepted is then dropped unserved — its
            // client sees a clean close before any hello).
            let mut pending = stream;
            let mut grace_polls = 0usize;
            let handed_off = loop {
                if control.draining() {
                    break 'accept Ok(drain_reason(&control));
                }
                match conn_tx.try_send(pending) {
                    Ok(()) => break true,
                    Err(TrySendError::Full(back)) => {
                        pending = back;
                        if let ShedPolicy::Busy {
                            grace_polls: grace,
                            retry_after_ms,
                        } = options.shed
                        {
                            grace_polls += 1;
                            if grace_polls >= grace {
                                handler.shed(&pending, retry_after_ms);
                                eprintln!(
                                    "connection {}: shed by admission control (every worker \
                                     busy), retry-after {retry_after_ms}ms",
                                    peer_of(&pending)
                                );
                                break false;
                            }
                        }
                        std::thread::sleep(HANDOFF_POLL);
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        break 'accept Err(
                            "every worker exited; the daemon cannot serve".to_string()
                        );
                    }
                }
            };
            if !handed_off {
                shed += 1;
                continue;
            }
            served += 1;
            if options.max_conns > 0 && served >= options.max_conns as u64 {
                break Ok(DrainReason::MaxConns);
            }
        };

        // Whatever ended the loop, stop the watcher, close the channel and
        // join every in-flight connection before reporting.
        drop(loop_done);
        drop(conn_tx);
        let in_flight = workers.iter().filter(|w| !w.is_finished()).count();
        if in_flight > 0 {
            let why = match &result {
                Ok(DrainReason::Shutdown) => "shutdown requested",
                Ok(DrainReason::MaxConns) => "--max-conns reached",
                Ok(DrainReason::HandlerDrain) => "drain requested",
                Err(_) => "listener failed",
            };
            eprintln!("{why}: joining {in_flight} in-flight connection(s)");
        }
        for worker in workers {
            let _ = worker.join();
        }
        result.map(|reason| DaemonReport {
            served,
            shed,
            reason,
        })
    })
}

/// Where the drain watcher dials to wake a blocked `accept`: the listener's
/// own address, with a wildcard IP replaced by loopback of the same family.
fn wake_address(listener: &TcpListener) -> Result<SocketAddr, String> {
    let mut addr = listener
        .local_addr()
        .map_err(|e| format!("cannot read the listener address: {e}"))?;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    Ok(addr)
}

/// The drain watcher: checks the stop flags every [`ACCEPT_POLL`] and, once
/// the daemon is draining, connects to `wake` so the accept loop returns
/// from `accept` and sees the flags. A failed wake-up is retried on the
/// next poll. Returns after a successful wake-up, or as soon as the accept
/// loop has ended (`done` disconnects).
fn watch_for_drain(control: &DaemonControl<'_>, wake: SocketAddr, done: &Receiver<()>) {
    while let Err(RecvTimeoutError::Timeout) = done.recv_timeout(ACCEPT_POLL) {
        if control.draining() && TcpStream::connect_timeout(&wake, ACCEPT_POLL).is_ok() {
            return;
        }
    }
}

/// Which drain condition fired (shutdown wins: it is the operator's word).
fn drain_reason(control: &DaemonControl<'_>) -> DrainReason {
    if control.shutdown.load(Ordering::SeqCst) {
        DrainReason::Shutdown
    } else {
        DrainReason::HandlerDrain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::sync::mpsc;

    fn local_listener() -> (TcpListener, String) {
        bind_daemon_listener("127.0.0.1:0", None).expect("bind")
    }

    /// Reads one byte and echoes it back, tagging it with the worker id.
    struct Echo;

    impl ConnectionHandler for Echo {
        type Worker = usize;

        fn worker(&self, worker_id: usize) -> usize {
            worker_id
        }

        fn serve(
            &self,
            worker: &mut usize,
            mut stream: TcpStream,
            _control: &DaemonControl<'_>,
        ) -> Result<String, String> {
            let mut byte = [0u8; 1];
            stream
                .read_exact(&mut byte)
                .map_err(|e| format!("read: {e}"))?;
            stream.write_all(&byte).map_err(|e| format!("write: {e}"))?;
            Ok(format!("echoed {} on worker {worker}", byte[0]))
        }

        fn shed(&self, stream: &TcpStream, _retry_after_ms: u64) {
            let _ = (&mut &*stream).write_all(b"B");
        }
    }

    fn echo_round_trip(addr: &str, byte: u8) -> u8 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        stream.write_all(&[byte]).expect("send");
        let mut back = [0u8; 1];
        stream.read_exact(&mut back).expect("echo");
        back[0]
    }

    #[test]
    fn serves_until_max_conns_then_drains() {
        let (listener, addr) = local_listener();
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let daemon = scope.spawn(|| {
                run_daemon(
                    &listener,
                    &Echo,
                    &DaemonOptions {
                        workers: 2,
                        max_conns: 3,
                        ..DaemonOptions::default()
                    },
                    &shutdown,
                )
            });
            for byte in [7u8, 8, 9] {
                assert_eq!(echo_round_trip(&addr, byte), byte);
            }
            let report = daemon.join().expect("daemon").expect("clean exit");
            assert_eq!(report.served, 3);
            assert_eq!(report.shed, 0);
            assert_eq!(report.reason, DrainReason::MaxConns);
        });
    }

    #[test]
    fn shutdown_flag_drains_the_loop() {
        let (listener, addr) = local_listener();
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let daemon =
                scope.spawn(|| run_daemon(&listener, &Echo, &DaemonOptions::default(), &shutdown));
            assert_eq!(echo_round_trip(&addr, 42), 42);
            shutdown.store(true, Ordering::SeqCst);
            let report = daemon.join().expect("daemon").expect("clean exit");
            assert_eq!(report.served, 1);
            assert_eq!(report.reason, DrainReason::Shutdown);
        });
    }

    /// A daemon on a wildcard address that no client ever dials still
    /// drains when the flag flips: the watcher wakes the blocked `accept`
    /// through loopback. Were the loop not yet blocked when the flag flips,
    /// the test would still pass — it can only fail by hanging, which the
    /// timeout turns into a failure.
    #[test]
    fn idle_wildcard_daemon_drains_on_shutdown() {
        let (listener, _) = bind_daemon_listener("0.0.0.0:0", None).expect("bind");
        let shutdown = Arc::new(AtomicBool::new(false));
        let (report_tx, report_rx) = mpsc::channel();
        let flag = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            let report = run_daemon(&listener, &Echo, &DaemonOptions::default(), &flag);
            let _ = report_tx.send(report);
        });
        std::thread::sleep(ACCEPT_POLL * 3);
        shutdown.store(true, Ordering::SeqCst);
        let report = report_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the idle daemon drained")
            .expect("clean exit");
        assert_eq!(report.served, 0);
        assert_eq!(report.reason, DrainReason::Shutdown);
    }

    /// Sequential round trips on an idle daemon pay no accept poll: the
    /// loop is blocked in `accept` when each client dials.
    #[test]
    fn sequential_round_trips_do_not_wait_for_an_accept_poll() {
        let (listener, addr) = local_listener();
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let daemon =
                scope.spawn(|| run_daemon(&listener, &Echo, &DaemonOptions::default(), &shutdown));
            let mut trips: Vec<Duration> = (0..21u8)
                .map(|byte| {
                    let start = std::time::Instant::now();
                    assert_eq!(echo_round_trip(&addr, byte), byte);
                    start.elapsed()
                })
                .collect();
            shutdown.store(true, Ordering::SeqCst);
            let report = daemon.join().expect("daemon").expect("clean exit");
            assert_eq!(report.served, 21);
            trips.sort();
            let median = trips[trips.len() / 2];
            assert!(
                median < ACCEPT_POLL / 2,
                "median round trip {median:?} (all: {trips:?})"
            );
        });
    }

    /// Holds every connection until the test releases it, so the pool can
    /// be saturated deterministically.
    struct HoldUntilReleased {
        started: mpsc::Sender<()>,
        release: Mutex<mpsc::Receiver<()>>,
    }

    impl ConnectionHandler for HoldUntilReleased {
        type Worker = ();

        fn worker(&self, _worker_id: usize) {}

        fn serve(
            &self,
            _worker: &mut (),
            _stream: TcpStream,
            _control: &DaemonControl<'_>,
        ) -> Result<String, String> {
            self.started.send(()).expect("test alive");
            self.release
                .lock()
                .expect("release channel")
                .recv()
                .map_err(|e| format!("released: {e}"))?;
            Ok("held connection released".to_string())
        }

        fn shed(&self, stream: &TcpStream, retry_after_ms: u64) {
            let _ = (&mut &*stream).write_all(&[retry_after_ms as u8]);
        }
    }

    #[test]
    fn busy_policy_sheds_when_every_worker_is_pinned() {
        let (listener, addr) = local_listener();
        let shutdown = AtomicBool::new(false);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let handler = HoldUntilReleased {
            started: started_tx,
            release: Mutex::new(release_rx),
        };
        std::thread::scope(|scope| {
            let daemon = scope.spawn(|| {
                run_daemon(
                    &listener,
                    &handler,
                    &DaemonOptions {
                        workers: 1,
                        shed: ShedPolicy::Busy {
                            grace_polls: 2,
                            retry_after_ms: 77,
                        },
                        ..DaemonOptions::default()
                    },
                    &shutdown,
                )
            });
            // Pin the only worker…
            let held = TcpStream::connect(&addr).expect("connect");
            started_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("worker picked up the first connection");
            // …then watch the second connection get shed with the hint.
            let mut second = TcpStream::connect(&addr).expect("connect");
            second
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            let mut hint = [0u8; 1];
            second.read_exact(&mut hint).expect("busy hint");
            assert_eq!(hint[0], 77);
            release_tx.send(()).expect("release the worker");
            shutdown.store(true, Ordering::SeqCst);
            let report = daemon.join().expect("daemon").expect("clean exit");
            assert_eq!(report.served, 1);
            assert_eq!(report.shed, 1);
            assert_eq!(report.reason, DrainReason::Shutdown);
            drop(held);
        });
    }

    #[test]
    fn block_policy_waits_for_the_worker_instead_of_shedding() {
        let (listener, addr) = local_listener();
        let shutdown = AtomicBool::new(false);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let handler = HoldUntilReleased {
            started: started_tx,
            release: Mutex::new(release_rx),
        };
        std::thread::scope(|scope| {
            let daemon = scope.spawn(|| {
                run_daemon(
                    &listener,
                    &handler,
                    &DaemonOptions {
                        workers: 1,
                        max_conns: 2,
                        shed: ShedPolicy::Block,
                        ..DaemonOptions::default()
                    },
                    &shutdown,
                )
            });
            let first = TcpStream::connect(&addr).expect("connect");
            started_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("first connection picked up");
            let second = TcpStream::connect(&addr).expect("connect");
            // The accept loop is now blocked on the handoff. Release the
            // worker twice: both connections are served, nothing shed.
            release_tx.send(()).expect("release first");
            started_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("second connection picked up");
            release_tx.send(()).expect("release second");
            let report = daemon.join().expect("daemon").expect("clean exit");
            assert_eq!(report.served, 2);
            assert_eq!(report.shed, 0);
            drop((first, second));
        });
    }

    /// Writes a reply far larger than the socket buffers, so a client that
    /// never reads stalls the write until the timeout fires.
    struct FloodReply;

    impl ConnectionHandler for FloodReply {
        type Worker = ();

        fn worker(&self, _worker_id: usize) {}

        fn serve(
            &self,
            _worker: &mut (),
            mut stream: TcpStream,
            _control: &DaemonControl<'_>,
        ) -> Result<String, String> {
            let chunk = vec![0u8; 1 << 20];
            for _ in 0..64 {
                stream
                    .write_all(&chunk)
                    .map_err(|e| format!("flood write: {e}"))?;
            }
            Ok("flood delivered".to_string())
        }
    }

    #[test]
    fn write_timeout_sheds_a_stalled_reader_and_frees_the_worker() {
        let (listener, addr) = local_listener();
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let daemon = scope.spawn(|| {
                run_daemon(
                    &listener,
                    &FloodReply,
                    &DaemonOptions {
                        workers: 1,
                        max_conns: 2,
                        write_timeout: Some(Duration::from_millis(200)),
                        ..DaemonOptions::default()
                    },
                    &shutdown,
                )
            });
            // A client that connects and never reads: the worker's flood
            // fills the socket buffers and then blocks — until the armed
            // write timeout sheds it.
            let stalled = TcpStream::connect(&addr).expect("connect");
            // The freed worker must then serve a reading client in full.
            let mut reader = TcpStream::connect(&addr).expect("connect");
            reader
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("timeout");
            let mut sink = Vec::new();
            reader.read_to_end(&mut sink).expect("full flood");
            assert_eq!(sink.len(), 64 << 20);
            let report = daemon.join().expect("daemon").expect("clean exit");
            assert_eq!(report.served, 2);
            drop(stalled);
        });
    }

    /// Requests a drain from inside the first served connection.
    struct DrainOnFirst;

    impl ConnectionHandler for DrainOnFirst {
        type Worker = ();

        fn worker(&self, _worker_id: usize) {}

        fn serve(
            &self,
            _worker: &mut (),
            mut stream: TcpStream,
            control: &DaemonControl<'_>,
        ) -> Result<String, String> {
            control.request_drain();
            stream.write_all(b"x").map_err(|e| format!("ack: {e}"))?;
            Ok("drain requested".to_string())
        }
    }

    #[test]
    fn handler_requested_drain_stops_the_accept_loop() {
        let (listener, addr) = local_listener();
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let daemon = scope.spawn(|| {
                run_daemon(
                    &listener,
                    &DrainOnFirst,
                    &DaemonOptions::default(),
                    &shutdown,
                )
            });
            let mut stream = TcpStream::connect(&addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            let mut ack = [0u8; 1];
            stream.read_exact(&mut ack).expect("ack");
            let report = daemon.join().expect("daemon").expect("clean exit");
            assert_eq!(report.served, 1);
            assert_eq!(report.reason, DrainReason::HandlerDrain);
        });
    }

    #[test]
    fn zero_workers_is_refused() {
        let (listener, _) = local_listener();
        let shutdown = AtomicBool::new(false);
        let err = run_daemon(
            &listener,
            &Echo,
            &DaemonOptions {
                workers: 0,
                ..DaemonOptions::default()
            },
            &shutdown,
        )
        .expect_err("zero workers");
        assert!(err.contains("at least one worker"), "{err}");
    }

    #[test]
    fn accept_errors_are_classified() {
        use std::io::{Error, ErrorKind};
        assert!(accept_error_is_transient(&Error::from(
            ErrorKind::ConnectionAborted
        )));
        assert!(accept_error_is_transient(&Error::from(
            ErrorKind::Interrupted
        )));
        assert!(!accept_error_is_transient(&Error::from(
            ErrorKind::InvalidInput
        )));
        assert!(!accept_error_is_transient(&Error::from(
            ErrorKind::PermissionDenied
        )));
    }

    #[test]
    fn port_files_are_written_atomically_and_hold_the_bound_address() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ttk_daemon_port_{}", std::process::id()));
        let path_str = path.to_string_lossy().to_string();
        let (_listener, bound) =
            bind_daemon_listener("127.0.0.1:0", Some(&path_str)).expect("bind");
        let advertised = std::fs::read_to_string(&path).expect("port file");
        assert_eq!(advertised, bound);
        advertised
            .parse::<std::net::SocketAddr>()
            .expect("a complete address");
        std::fs::remove_file(&path).expect("cleanup");
    }
}
