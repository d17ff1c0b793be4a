//! The server side of scan-gate pushdown: one accepted `serve-shard`
//! connection, negotiated and driven end to end.
//!
//! [`serve_stream`] owns the protocol decision the wire layer documents: a
//! v3 pushdown client speaks first (a query frame right after connecting),
//! so the server peeks the socket under a short grace window. Data waiting
//! → read the query, answer with a v3 hello and stream only the
//! [`ShardScanGate`]-bounded prefix, closing with a stopped-at trailer.
//! Silence → the peer is a v1/v2 client; serve the full replay exactly as
//! previous releases did.
//!
//! A pushdown client keeps sending bound updates on the same socket while
//! the replay runs. A helper thread blocks on the socket's read half,
//! parses them, and publishes the largest mass (and whether the client hung
//! up) through atomics; every [`ServeOptions::drain_every`] tuples the
//! replay loop reads those atomics and never waits on the socket. When the
//! replay ends, it shuts down the read side so the helper returns and is
//! joined before [`serve_stream`] does.
//!
//! The function is transport-specific (`TcpStream`) because the negotiation
//! is: it needs `peek`, read timeouts, a second handle on the socket for the
//! helper, and `shutdown` to wake it. Everything protocol-level (frames,
//! gates) lives in `ttk_uncertain::wire` and [`crate::scan_depth`].

use std::io::{BufWriter, Read};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use ttk_uncertain::wire::{self, ControlFrame, ControlParser, PushdownQuery, StoppedAt};
use ttk_uncertain::{Error, Result, ShardAssignment, TupleBlock, TupleSource, WireWriter};

use crate::scan_depth::ShardScanGate;

/// How a [`serve_stream`] replay ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The shard source was drained to its end.
    Exhausted,
    /// The server-side [`ShardScanGate`] proved no later tuple can be in the
    /// merge-side Theorem-2 prefix.
    Gate,
    /// The client hung up (or its socket died) before the replay finished.
    ClientGone,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StopReason::Exhausted => "exhausted",
            StopReason::Gate => "gate",
            StopReason::ClientGone => "client-gone",
        })
    }
}

/// What one connection's replay amounted to — the per-connection summary
/// the `serve-shard` daemon logs, and what the pushdown tests assert on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Rows pulled from the shard source.
    pub scanned: u64,
    /// Tuples framed onto the wire.
    pub shipped: u64,
    /// Why the replay stopped.
    pub reason: StopReason,
    /// Whether the connection negotiated v3 pushdown.
    pub pushdown: bool,
    /// Bytes framed onto the wire (length prefixes included); best-effort
    /// on [`StopReason::ClientGone`], exact otherwise.
    pub wire_bytes: u64,
}

/// Knobs for [`serve_stream`].
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// How long to wait for a client query frame before falling back to the
    /// full v1/v2 replay.
    pub pushdown_wait: Duration,
    /// Apply the client's latest bound update, and notice a client that
    /// hung up, every this many shipped tuples.
    pub drain_every: u64,
    /// Most tuples packed into one block frame when the client negotiates
    /// columnar blocks (the effective size is the smaller of this and the
    /// client's announced maximum). Per-tuple clients are unaffected.
    pub block_tuples: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            pushdown_wait: Duration::from_millis(25),
            drain_every: 64,
            block_tuples: 512,
        }
    }
}

/// Serves one accepted shard connection: negotiates the protocol version as
/// described in the module doc, replays `source` (fully, or up to the
/// conservative per-shard Theorem-2 bound), and reports what happened.
///
/// A vanished client is a normal outcome ([`StopReason::ClientGone`]), not
/// an error; errors are reserved for a failing `source` (forwarded to the
/// peer as an error frame first) and for protocol violations.
///
/// # Errors
///
/// [`Error::Source`] on a source failure, a malformed query frame, local
/// socket configuration failures, or when the thread that reads a pushdown
/// client's bound updates cannot be started.
pub fn serve_stream(
    stream: TcpStream,
    source: &mut dyn TupleSource,
    assignment: Option<&ShardAssignment>,
    options: &ServeOptions,
) -> Result<ServeSummary> {
    stream.set_nonblocking(false).map_err(|e| io_config(&e))?;
    stream
        .set_read_timeout(Some(options.pushdown_wait.max(Duration::from_millis(1))))
        .map_err(|e| io_config(&e))?;
    let mut peek = [0u8; 1];
    match stream.peek(&mut peek) {
        // The client connected and hung up before saying anything.
        Ok(0) => Ok(ServeSummary {
            scanned: 0,
            shipped: 0,
            reason: StopReason::ClientGone,
            pushdown: false,
            wire_bytes: 0,
        }),
        Ok(_) => serve_pushdown(stream, source, assignment, options),
        Err(e) if would_block(&e) => serve_legacy(stream, source, assignment),
        Err(_) => Ok(ServeSummary {
            scanned: 0,
            shipped: 0,
            reason: StopReason::ClientGone,
            pushdown: false,
            wire_bytes: 0,
        }),
    }
}

fn io_config(e: &std::io::Error) -> Error {
    Error::Source(format!("serve-stream socket configuration: {e}"))
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// The pre-v3 serving path: full replay behind the v1/v2 hello, bit-exactly
/// what previous releases sent. A peer write failure means the client went
/// away, which is a summary, not an error.
fn serve_legacy(
    stream: TcpStream,
    source: &mut dyn TupleSource,
    assignment: Option<&ShardAssignment>,
) -> Result<ServeSummary> {
    stream.set_read_timeout(None).map_err(|e| io_config(&e))?;
    let hint = source.size_hint();
    let buffered = BufWriter::new(stream);
    let writer = match assignment {
        Some(assignment) => WireWriter::with_assignment(buffered, hint, assignment),
        None => WireWriter::new(buffered, hint),
    };
    let mut writer = match writer {
        Ok(writer) => writer,
        Err(_) => {
            return Ok(ServeSummary {
                scanned: 0,
                shipped: 0,
                reason: StopReason::ClientGone,
                pushdown: false,
                wire_bytes: 0,
            })
        }
    };
    let mut shipped = 0u64;
    loop {
        match source.next_tuple() {
            Ok(Some(tuple)) => {
                if writer.write_tuple(&tuple).is_err() {
                    return Ok(ServeSummary {
                        scanned: shipped + 1,
                        shipped,
                        reason: StopReason::ClientGone,
                        pushdown: false,
                        wire_bytes: writer.bytes_written(),
                    });
                }
                shipped += 1;
            }
            Ok(None) => {
                let sent = writer.bytes_written();
                let (reason, wire_bytes) = match writer.finish() {
                    Ok(total) => (StopReason::Exhausted, total),
                    Err(_) => (StopReason::ClientGone, sent),
                };
                return Ok(ServeSummary {
                    scanned: shipped,
                    shipped,
                    reason,
                    pushdown: false,
                    wire_bytes,
                });
            }
            Err(error) => {
                let _ = writer.fail(&error.to_string());
                return Err(error);
            }
        }
    }
}

/// The v3 query-mode path: read the query frame, answer with the v3 hello,
/// replay through a [`ShardScanGate`] while a helper thread follows the
/// client's bound updates, and close with the stopped-at trailer.
///
/// A client that announced block capability (the kind-19 query frame) gets
/// the same gated prefix packed into kind-20 block frames; the gate still
/// admits tuple by tuple, so scanned/shipped counts and the stopping point
/// are identical to the per-tuple path.
fn serve_pushdown(
    stream: TcpStream,
    source: &mut dyn TupleSource,
    assignment: Option<&ShardAssignment>,
    options: &ServeOptions,
) -> Result<ServeSummary> {
    // The query frame is already (at least partially) in the receive buffer;
    // keep the grace-window timeout for the remainder rather than blocking
    // forever on a half-written frame from a dying client.
    let (query, max_block) = wire::read_query_negotiated(&mut (&stream))?;
    let gate = match query.k {
        0 => None,
        k => Some(ShardScanGate::new(k as usize, query.p_tau)?),
    };
    let block_cap = max_block.map(|m| (m as usize).min(options.block_tuples.max(1)));

    // From here on only the helper reads, and it blocks until the client
    // sends or the replay shuts the read side down.
    stream.set_read_timeout(None).map_err(|e| io_config(&e))?;
    let read_half = stream.try_clone().map_err(|e| io_config(&e))?;
    let updates = BoundUpdates::default();
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("ttk-bound-updates".to_string())
            .spawn_scoped(scope, || updates.follow(&read_half))
            .map_err(|e| Error::Source(format!("starting the bound-update reader: {e}")))?;
        // Dropped on every exit from the replay, so the scope can join the
        // helper.
        let _wake = ShutdownReadOnDrop(&read_half);
        replay_gated(
            stream, source, assignment, options, gate, block_cap, &updates,
        )
    })
}

/// The client's bound updates as the helper thread publishes them for the
/// replay loop, which only ever loads them. Each atomic is the whole
/// message and publishes no other data, so both sides use `Relaxed`.
#[derive(Default)]
struct BoundUpdates {
    /// The bits of the largest mass announced so far. Masses are
    /// non-negative, so `fetch_max` on the bits orders them like the values.
    mass_bits: AtomicU64,
    /// Set once the client closed its half of the socket.
    closed: AtomicBool,
}

impl BoundUpdates {
    /// The helper thread: reads control frames until the client closes its
    /// half, the socket fails, or the replay shuts the read side down. A
    /// failed read or a malformed frame ends the updates, not the replay,
    /// which falls back to its local-only bound.
    fn follow(&self, mut read_half: &TcpStream) {
        let mut parser = ControlParser::new();
        let mut buf = [0u8; 256];
        loop {
            match read_half.read(&mut buf) {
                Ok(0) => {
                    self.closed.store(true, Ordering::Relaxed);
                    return;
                }
                Ok(n) => parser.extend(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
            loop {
                match parser.next_frame() {
                    Ok(Some(ControlFrame::Bound(mass))) => {
                        // The gate only ever raises its remote mass, so a
                        // NaN, negative or zero update would change nothing.
                        if mass > 0.0 {
                            self.mass_bits.fetch_max(mass.to_bits(), Ordering::Relaxed);
                        }
                    }
                    Ok(None) => break,
                    Err(_) => return,
                }
            }
        }
    }

    /// The largest mass announced so far (0.0 before any update).
    fn mass(&self) -> f64 {
        f64::from_bits(self.mass_bits.load(Ordering::Relaxed))
    }

    /// Whether the client has closed its half of the socket.
    fn client_closed(&self) -> bool {
        self.closed.load(Ordering::Relaxed)
    }
}

/// Shuts down the read side of the socket when dropped, which returns the
/// helper blocked in [`BoundUpdates::follow`].
struct ShutdownReadOnDrop<'a>(&'a TcpStream);

impl Drop for ShutdownReadOnDrop<'_> {
    fn drop(&mut self) {
        // Fails only when the socket is already dead, which also ends the
        // helper's read.
        let _ = self.0.shutdown(Shutdown::Read);
    }
}

/// The v3 replay proper: hello, the gated prefix, and the trailer.
fn replay_gated(
    stream: TcpStream,
    source: &mut dyn TupleSource,
    assignment: Option<&ShardAssignment>,
    options: &ServeOptions,
    mut gate: Option<ShardScanGate>,
    block_cap: Option<usize>,
    updates: &BoundUpdates,
) -> Result<ServeSummary> {
    let writer = WireWriter::v3(BufWriter::new(stream), source.size_hint(), assignment);
    let mut writer = match writer {
        Ok(writer) => writer,
        Err(_) => {
            return Ok(ServeSummary {
                scanned: 0,
                shipped: 0,
                reason: StopReason::ClientGone,
                pushdown: true,
                wire_bytes: 0,
            })
        }
    };

    let mut scanned = 0u64;
    let mut shipped = 0u64;
    let mut block = TupleBlock::default();
    let mut reason = loop {
        let tuple = match source.next_tuple() {
            Ok(Some(tuple)) => tuple,
            Ok(None) => break StopReason::Exhausted,
            Err(error) => {
                let _ = writer.fail(&error.to_string());
                return Err(error);
            }
        };
        scanned += 1;
        if let Some(gate) = &mut gate {
            if !gate.admit(tuple.tuple.score(), tuple.tuple.prob(), tuple.group) {
                break StopReason::Gate;
            }
        }
        match block_cap {
            None => {
                if writer.write_tuple(&tuple).is_err() {
                    break StopReason::ClientGone;
                }
            }
            Some(cap) => {
                block.push(&tuple);
                if block.len() >= cap {
                    if writer.write_block(&block).is_err() {
                        break StopReason::ClientGone;
                    }
                    block.clear();
                }
            }
        }
        shipped += 1;
        if shipped.is_multiple_of(options.drain_every) {
            if updates.client_closed() {
                break StopReason::ClientGone;
            }
            if let Some(gate) = &mut gate {
                gate.update_remote_mass(updates.mass());
            }
        }
    };

    // Flush the partially filled block before the trailer, so the shipped
    // count the trailer reports is exactly what crossed the wire.
    if reason != StopReason::ClientGone && !block.is_empty() && writer.write_block(&block).is_err()
    {
        reason = StopReason::ClientGone;
    }
    let mut wire_bytes = writer.bytes_written();
    if reason != StopReason::ClientGone {
        let trailer = StoppedAt {
            scanned,
            shipped,
            gate_limited: reason == StopReason::Gate,
        };
        if writer.write_stopped(&trailer).is_err() {
            reason = StopReason::ClientGone;
        } else {
            match writer.finish() {
                Ok(total) => wire_bytes = total,
                Err(_) => reason = StopReason::ClientGone,
            }
        }
    }
    Ok(ServeSummary {
        scanned,
        shipped,
        reason,
        pushdown: true,
        wire_bytes,
    })
}

/// The [`PushdownQuery`] a client announces for a given query shape:
/// `k == 0` (stream everything) when the consumer needs the full stream
/// (U-Topk witnesses, exhaustive enumeration), the real Theorem-2
/// parameters otherwise.
pub fn pushdown_query(k: usize, p_tau: f64, full_stream: bool) -> PushdownQuery {
    if full_stream {
        PushdownQuery { k: 0, p_tau: 0.0 }
    } else {
        PushdownQuery { k: k as u64, p_tau }
    }
}
