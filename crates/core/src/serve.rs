//! The server side of a shard stream: one accepted `serve-shard`
//! connection, driven end to end.
//!
//! [`serve_stream`] reads the client's opening frame — a scan announcement,
//! waited for under [`ServeOptions::request_wait`] — answers with a hello,
//! streams the prefix a [`ShardScanGate`] admits (everything when the client
//! announced `k = 0`) as tuple-block frames, and closes with a stopped-at
//! trailer. Any other opening frame, including one at a foreign wire
//! version, is answered with an error frame.
//!
//! A gated client keeps sending bound updates on the same socket while the
//! replay runs. A helper thread blocks on the socket's read half, parses
//! them, and publishes the largest mass (and whether the client hung up)
//! through atomics; every [`ServeOptions::drain_every`] tuples the replay
//! loop reads those atomics and never waits on the socket. When the replay
//! ends, it shuts down the read side so the helper returns and is joined
//! before [`serve_stream`] does.
//!
//! The function is transport-specific (`TcpStream`) because the helper needs
//! a second handle on the socket and `shutdown` to wake it. Everything
//! protocol-level (frames, gates) lives in `ttk_uncertain::wire` and
//! [`crate::scan_depth`].

use std::io::{BufWriter, Read};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use ttk_uncertain::wire::{self, ClientRequest, ControlFrame, ControlParser, StoppedAt};
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
    /// Whether the client announced `k > 0`, so a scan gate bounded the
    /// replay (`false` for a full replay).
    pub pushdown: bool,
    /// Bytes framed onto the wire (length prefixes included); best-effort
    /// on [`StopReason::ClientGone`], exact otherwise.
    pub wire_bytes: u64,
}

/// Knobs for [`serve_stream`].
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// How long to wait for the client's scan announcement before dropping
    /// the connection (a silent client holds its worker for at most this
    /// long). `Duration::ZERO` waits forever.
    pub request_wait: Duration,
    /// Apply the client's latest bound update, and notice a client that
    /// hung up, every this many shipped tuples.
    pub drain_every: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            request_wait: Duration::from_secs(10),
            drain_every: 64,
        }
    }
}

/// Most tuples packed into one block frame.
const BLOCK_TUPLES: usize = 512;

/// Serves one accepted shard connection: reads the client's scan
/// announcement, replays `source` (fully for `k = 0`, otherwise up to the
/// conservative per-shard Theorem-2 bound) as described in the module doc,
/// and reports what happened.
///
/// A vanished client is a normal outcome ([`StopReason::ClientGone`]), not
/// an error; errors are reserved for a failing `source` (forwarded to the
/// peer as an error frame first) and for a client that sent no valid scan
/// announcement in time (answered with an error frame).
///
/// # Errors
///
/// [`Error::Source`] on a source failure, a missing, refused or malformed
/// announcement, local socket configuration failures, or when the thread
/// that reads a gated client's bound updates cannot be started.
pub fn serve_stream(
    stream: TcpStream,
    source: &mut dyn TupleSource,
    assignment: Option<&ShardAssignment>,
    options: &ServeOptions,
) -> Result<ServeSummary> {
    stream.set_nonblocking(false).map_err(|e| io_config(&e))?;
    let wait = Some(options.request_wait).filter(|wait| !wait.is_zero());
    stream.set_read_timeout(wait).map_err(|e| io_config(&e))?;
    let query = match wire::read_client_request(&mut (&stream)) {
        Ok(ClientRequest::Scan(query)) => Ok(query),
        Ok(other) => Err(Error::Source(format!(
            "a shard server does not serve a {}",
            other.name()
        ))),
        Err(e) => Err(e),
    }
    .inspect_err(|e| {
        let _ = wire::write_error(&mut (&stream), &e.to_string());
    })?;
    let gate = match query.k {
        0 => None,
        k => Some(ShardScanGate::new(k as usize, query.p_tau)?),
    };

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
        replay_gated(stream, source, assignment, options, gate, &updates)
    })
}

fn io_config(e: &std::io::Error) -> Error {
    Error::Source(format!("serve-stream socket configuration: {e}"))
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

/// The replay proper: hello, the gated prefix, and the trailer. The gate
/// admits tuple by tuple; admitted tuples leave in blocks of
/// [`BLOCK_TUPLES`].
fn replay_gated(
    stream: TcpStream,
    source: &mut dyn TupleSource,
    assignment: Option<&ShardAssignment>,
    options: &ServeOptions,
    mut gate: Option<ShardScanGate>,
    updates: &BoundUpdates,
) -> Result<ServeSummary> {
    let pushdown = gate.is_some();
    let writer = WireWriter::new(BufWriter::new(stream), source.size_hint(), assignment);
    let mut writer = match writer {
        Ok(writer) => writer,
        Err(_) => {
            return Ok(ServeSummary {
                scanned: 0,
                shipped: 0,
                reason: StopReason::ClientGone,
                pushdown,
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
        block.push(&tuple);
        if block.len() >= BLOCK_TUPLES {
            if writer.write_block(&block).is_err() {
                break StopReason::ClientGone;
            }
            block.clear();
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
        pushdown,
        wire_bytes,
    })
}
