//! The wire layer: one framed binary protocol for everything the daemons
//! exchange — shard streams, coordinator leases and whole queries.
//!
//! A shard served from another process (or machine) is just a rank-ordered
//! tuple stream, so the wire format is deliberately minimal: a blocking,
//! **length-prefixed** frame protocol over any [`Read`]/[`Write`] pair —
//! a `TcpStream`, a Unix pipe, an in-memory buffer in tests. Scores and
//! probabilities travel as raw IEEE-754 bits (the same encoding discipline
//! as the spill-run files of `ttk-pdb`), so a stream decoded from the wire
//! is **bit-identical** to the stream the server pulled locally.
//!
//! Every frame is `u32` little-endian body length followed by the body; the
//! body's first byte is the frame kind:
//!
//! | kind | meaning | payload |
//! |---|---|---|
//! | `0` | end of stream | none |
//! | `2` | error (a refusal or a server-side failure) | UTF-8 message |
//! | `3` | hello (server→client, opens a shard stream) | version `u8`, size hint `u64` (`u64::MAX` = unknown), assignment flag `u8` and, when set, id base `u64`, namespace length `u16`, namespace bytes |
//! | `5` | coordinator register | version `u8`, row count `u64`, label length `u16`, label bytes |
//! | `6` | coordinator lease | version `u8`, id base `u64`, namespace length `u16`, namespace bytes |
//! | `8` | bound update (client→server, mid-stream) | accumulated merge-side mass bits `u64` |
//! | `9` | stopped-at trailer (server→client, precedes `end`) | rows scanned `u64`, tuples shipped `u64`, gate-limited flag `u8` |
//! | `10` | query request | version `u8`, k `u64`, pτ bits `u64`, typical count `u64`, max lines `u64`, algorithm `u8`, coalesce `u8`, flags `u8`, dataset length `u16`, dataset bytes |
//! | `11` | query result header | version `u8`, flags `u8`, scan depth `u64`, phase times `u64`×2, point count `u64`, expected distance bits `u64`, typical answers, optional U-Top-k, dataset epoch `u64`, cache generation `u64`, live flag `u8`, live segments `u64`, last compaction epoch `u64` |
//! | `12` | result chunk (precedes `end`) | point count `u16`, encoded distribution points |
//! | `13` | append request header | version `u8`, flags `u8` (bit 0 = seal), row count `u64`, dataset length `u16`, dataset bytes |
//! | `14` | append row chunk (precedes `end`) | row count `u16`, encoded rows |
//! | `15` | append acknowledgement | version `u8`, flags `u8` (bit 0 = sealed now), epoch `u64`, staged rows `u64`, sealed rows `u64` |
//! | `16` | subscribe request | the query request fields, then max pushes `u64`, dataset length `u16`, dataset bytes |
//! | `17` | notification (precedes a result stream) | version `u8`, epoch `u64`, answer hash `u64` |
//! | `18` | busy / retry-after | version `u8`, retry-after millis `u64` |
//! | `20` | tuple block | tuple count `u16`, encoded rows |
//! | `21` | admin request | version `u8`, verb `u8`, name length `u16`, name, argument length `u16`, argument |
//! | `22` | admin response | version `u8`, UTF-8 report |
//! | `23` | scan announcement (client→server, opens a shard stream) | version `u8`, k `u64` (`0` = stream everything), pτ bits `u64` |
//!
//! A row — in a tuple block or an append chunk — is id `u64`, score bits
//! `u64`, probability bits `u64`, group flag `u8` and, for grouped rows, the
//! group key `u64`. All integers are little-endian. Kinds 1, 4, 7 and 19 are
//! retired and never reused.
//!
//! # The handshake
//!
//! The client speaks first. Every connection opens with one client frame
//! whose body starts `[kind][version]` — a scan announcement, register,
//! query request, append, subscribe or admin request — and all three daemons
//! decode it with [`read_client_request`]. The server's opening frame (hello,
//! lease, result header, append ack, notification, admin response or busy)
//! starts with the same two bytes. This build speaks exactly one version,
//! [`WIRE_VERSION_V6`]: a frame carrying any other is refused with an error
//! naming both versions, which a daemon sends back as an error frame before
//! closing and a client's decoder returns as is. The length bound, the kind
//! byte and the version byte together refuse foreign bytes, so there is no
//! magic number.
//!
//! # Shard streams
//!
//! A scan client announces its `(k, pτ)` ([`write_scan`]); `k = 0` asks for
//! the whole shard. The server answers with a hello, ships the prefix its
//! per-shard Theorem-2 gate admits as tuple-block frames ([`WireWriter`]),
//! folds the client's bound updates ([`write_bound`], decoded by
//! [`ControlParser`]) into that gate, and closes with a stopped-at trailer
//! ([`StoppedAt`]) and the end frame. A [`WireReader`] decodes the stream as
//! a [`TupleSource`] and surfaces *every* abnormality — I/O failure, corrupt
//! frame, connection lost before the end frame, server-side error — as
//! [`Error::Source`], never as a silently truncated stream.
//!
//! # Query serving
//!
//! A query client sends a request ([`write_query_request`]) and reads a
//! result header, size-bounded distribution chunks and the end frame
//! ([`read_query_result`]). Live datasets add appends
//! ([`write_append_request`], answered by one [`AppendAck`]) and
//! subscriptions ([`write_subscribe`]), which turn the connection into a push
//! stream of [`Notification`]s, each followed by a full result. The admin
//! plane ([`write_admin_request`]) carries lifecycle verbs, and the busy
//! frame ([`write_busy`]) is a daemon's retryable admission-control refusal.
//!
//! The register/lease frames are the coordinator handshake: a shard server
//! connects to the coordinator, frames its row count and a display label
//! ([`write_register`]), and receives the `(id base, namespace)` lease the
//! coordinator allotted from its [`LeaseRegistry`] ([`read_lease`]).

use std::fmt;
use std::io::{Read, Write};

use crate::error::{Error, Result};
use crate::pmf::{DistributionPoint, VectorWitness};
use crate::source::{GroupKey, SourceTuple, TupleBlock, TupleSource};
use crate::tuple::{TupleId, UncertainTuple};
use crate::vector::TopkVector;

/// The protocol version this build speaks, and the only one it accepts: the
/// second byte of every frame that opens a direction of a connection.
pub const WIRE_VERSION_V6: u8 = 6;

/// Frame kinds (first byte of every frame body).
const FRAME_END: u8 = 0;
const FRAME_ERROR: u8 = 2;
const FRAME_HELLO: u8 = 3;
const FRAME_REGISTER: u8 = 5;
const FRAME_LEASE: u8 = 6;
const FRAME_BOUND: u8 = 8;
const FRAME_STOPPED: u8 = 9;
const FRAME_QUERY_REQUEST: u8 = 10;
const FRAME_QUERY_RESULT: u8 = 11;
const FRAME_RESULT_CHUNK: u8 = 12;
const FRAME_APPEND: u8 = 13;
const FRAME_APPEND_ROWS: u8 = 14;
const FRAME_APPEND_ACK: u8 = 15;
const FRAME_SUBSCRIBE: u8 = 16;
const FRAME_NOTIFY: u8 = 17;
const FRAME_BUSY: u8 = 18;
const FRAME_TUPLE_BLOCK: u8 = 20;
const FRAME_ADMIN: u8 = 21;
const FRAME_ADMIN_RESPONSE: u8 = 22;
const FRAME_SCAN: u8 = 23;

/// Largest frame body a reader will accept. Guards against garbage length
/// prefixes allocating gigabytes; chunked frames pack items up to it.
const MAX_FRAME_BODY: usize = 64 * 1024;

/// Bytes of a chunk frame (result, append rows, tuple block) spent on the
/// kind and the `u16` item count.
const CHUNK_HEADER: usize = 3;

/// Smallest encoded row (an independent tuple): id, score, probability and
/// the group flag.
const MIN_ROW_BYTES: usize = 25;

fn io_err(context: &str, e: std::io::Error) -> Error {
    Error::Source(format!("wire {context}: {e}"))
}

/// The coordination metadata a hello (or a coordinator lease) carries:
/// where the served shard's rows live in the relation's shared tuple-id
/// space, and which group-key namespace the shard was imported under.
///
/// Two shards whose servers report the **same namespace** were scored with
/// the same group-key discipline (hashed labels under one coordinator), so a
/// consumer may merge them as one relation; shards reporting **different**
/// namespaces were never meant to be merged and the consumer should refuse.
/// An empty namespace means the server asserted nothing (an operator-managed
/// `--id-base` setup), which consumers accept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAssignment {
    /// Tuple id of the shard's first row in the shared id space.
    pub id_base: u64,
    /// Group-key namespace label all shards of the relation share.
    pub namespace: String,
}

/// Everything a decoded hello frame carried.
#[derive(Debug, Clone, PartialEq)]
pub struct Hello {
    /// Tuple-count hint, when the server knew it.
    pub size_hint: Option<usize>,
    /// The shard's id-base/namespace assignment, when the server holds one.
    pub assignment: Option<ShardAssignment>,
}

/// Reads one length-prefixed frame body from `reader`. The body is never
/// empty, so every caller may read its kind byte as `body[0]`.
fn read_frame_from(reader: &mut impl Read) -> Result<Vec<u8>> {
    let mut len = [0u8; 4];
    reader
        .read_exact(&mut len)
        .map_err(|e| io_err("read (stream ended before the end frame?)", e))?;
    let len = u32::from_le_bytes(len) as usize;
    if len == 0 || len > MAX_FRAME_BODY {
        return Err(Error::Source(format!(
            "wire frame of {len} bytes is outside the accepted range"
        )));
    }
    let mut body = vec![0u8; len];
    reader
        .read_exact(&mut body)
        .map_err(|e| io_err("read (truncated frame)", e))?;
    Ok(body)
}

/// Frames `body` onto `writer`.
fn write_frame_to(writer: &mut impl Write, body: &[u8]) -> Result<()> {
    let len = body.len() as u32;
    writer
        .write_all(&len.to_le_bytes())
        .and_then(|_| writer.write_all(body))
        .map_err(|e| io_err("write", e))
}

/// Frames `body` onto `writer` and flushes.
fn write_flushed(writer: &mut impl Write, body: &[u8]) -> Result<()> {
    write_frame_to(writer, body)?;
    writer.flush().map_err(|e| io_err("flush", e))
}

/// A frame body that opens a direction of a connection: `[kind][version]`.
fn opening(kind: u8, capacity: usize) -> Vec<u8> {
    let mut body = Vec::with_capacity(capacity);
    body.push(kind);
    body.push(WIRE_VERSION_V6);
    body
}

/// Checks the version byte of an opening frame (kind already matched) and
/// returns a cursor over the fields after it. The one place a version is
/// compared: a peer speaking any other version is refused with both named.
fn open_frame<'a>(body: &'a [u8], what: &'static str) -> Result<FrameCursor<'a>> {
    let mut cursor = FrameCursor::new(body, 1, what);
    match cursor.u8()? {
        WIRE_VERSION_V6 => Ok(cursor),
        version => Err(Error::Source(format!(
            "peer speaks wire version {version}; this build speaks {WIRE_VERSION_V6}"
        ))),
    }
}

/// The error a peer's error frame carries, under the `remote {what}
/// failed` prefix the retrying clients treat as final.
fn remote_failed(what: &str, body: &[u8]) -> Error {
    Error::Source(format!(
        "remote {what} failed: {}",
        String::from_utf8_lossy(&body[1..])
    ))
}

/// Matches a server's opening frame against the `kind` a client expects
/// and checks its version. An error frame in its place is the server's
/// refusal, under the `remote {failure} failed` prefix; a busy frame is the
/// retryable busy error.
fn open_reply<'a>(
    body: &'a [u8],
    kind: u8,
    what: &'static str,
    failure: &str,
) -> Result<FrameCursor<'a>> {
    match body[0] {
        FRAME_ERROR => Err(remote_failed(failure, body)),
        FRAME_BUSY => Err(busy_error(body)),
        found if found == kind => open_frame(body, what),
        _ => Err(Error::Source(format!("corrupt wire {what} frame"))),
    }
}

/// Reads the chunk frames of `kind` that follow a header, through the end
/// frame, handing every encoded item to `pop`. An error frame instead is the
/// peer's failure, under the `remote {failure} failed` prefix.
fn read_chunks(
    reader: &mut impl Read,
    kind: u8,
    what: &'static str,
    failure: &str,
    mut pop: impl FnMut(&mut FrameCursor<'_>) -> Result<()>,
) -> Result<()> {
    loop {
        let body = read_frame_from(reader)?;
        match body[0] {
            FRAME_END if body.len() == 1 => return Ok(()),
            FRAME_ERROR => return Err(remote_failed(failure, &body)),
            found if found == kind => {
                let mut cursor = FrameCursor::new(&body, 1, what);
                for _ in 0..cursor.u16()? {
                    pop(&mut cursor)?;
                }
                cursor.finish()?;
            }
            other => return Err(Error::Source(format!("unknown wire frame kind {other}"))),
        }
    }
}

/// Longest label/namespace accepted in a frame. Bounded well under
/// [`MAX_FRAME_BODY`] (with margin for the fixed fields) so a frame that
/// writes successfully is always readable — an over-long label must fail
/// here, where the error can name it, not as a corrupt-frame error on every
/// peer.
const MAX_LABEL: usize = MAX_FRAME_BODY - 64;

/// Appends a length-prefixed UTF-8 label (`u16` length) to a frame body.
fn push_label(body: &mut Vec<u8>, label: &str) -> Result<()> {
    if label.len() > MAX_LABEL {
        return Err(Error::Source(format!(
            "wire label of {} bytes exceeds the {MAX_LABEL}-byte limit",
            label.len()
        )));
    }
    body.extend_from_slice(&(label.len() as u16).to_le_bytes());
    body.extend_from_slice(label.as_bytes());
    Ok(())
}

/// Incremental decoder over one frame body: every short read, trailing
/// garbage or malformed label is the same corrupt-frame error.
struct FrameCursor<'a> {
    body: &'a [u8],
    at: usize,
    what: &'static str,
}

impl<'a> FrameCursor<'a> {
    fn new(body: &'a [u8], at: usize, what: &'static str) -> Self {
        FrameCursor { body, at, what }
    }

    fn corrupt(&self) -> Error {
        Error::Source(format!("corrupt wire {} frame", self.what))
    }

    /// Bytes not yet consumed — the bound on anything a count field can
    /// ask to allocate.
    fn remaining(&self) -> usize {
        self.body.len() - self.at
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.body.len())
            .ok_or_else(|| self.corrupt())?;
        let slice = &self.body[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn flag(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(self.corrupt()),
        }
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A [`push_label`]-encoded label.
    fn label(&mut self) -> Result<String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.corrupt())
    }

    /// Requires the cursor to have consumed the body exactly.
    fn finish(self) -> Result<()> {
        if self.at == self.body.len() {
            Ok(())
        } else {
            Err(self.corrupt())
        }
    }
}

/// Frames `items` as chunk frames of `kind` — `[kind][count u16][items]`,
/// each body at most [`MAX_FRAME_BODY`] bytes — handing every chunk body to
/// `emit`. Frames nothing for no items.
fn write_chunked<T>(
    kind: u8,
    items: impl IntoIterator<Item = T>,
    push: impl Fn(&mut Vec<u8>, T) -> Result<()>,
    mut emit: impl FnMut(&[u8]) -> Result<()>,
) -> Result<()> {
    let mut chunk = vec![kind, 0, 0];
    let mut count: u16 = 0;
    for item in items {
        let mark = chunk.len();
        push(&mut chunk, item)?;
        if count > 0 && (chunk.len() > MAX_FRAME_BODY || count == u16::MAX) {
            // The item that overflowed opens the next chunk.
            let overflow = chunk.split_off(mark);
            chunk[1..CHUNK_HEADER].copy_from_slice(&count.to_le_bytes());
            emit(&chunk)?;
            chunk.truncate(CHUNK_HEADER);
            chunk.extend_from_slice(&overflow);
            count = 0;
        }
        if chunk.len() > MAX_FRAME_BODY {
            return Err(Error::Source(format!(
                "a single wire item of {} bytes exceeds the {MAX_FRAME_BODY}-byte frame limit",
                chunk.len() - CHUNK_HEADER
            )));
        }
        count += 1;
    }
    if count > 0 {
        chunk[1..CHUNK_HEADER].copy_from_slice(&count.to_le_bytes());
        emit(&chunk)?;
    }
    Ok(())
}

/// Encodes one row: id, score bits, probability bits, group flag [+ key].
fn push_source_tuple(body: &mut Vec<u8>, row: &SourceTuple) {
    body.extend_from_slice(&row.tuple.id().raw().to_le_bytes());
    body.extend_from_slice(&row.tuple.score().to_bits().to_le_bytes());
    body.extend_from_slice(&row.tuple.prob().to_bits().to_le_bytes());
    match row.group {
        GroupKey::Independent => body.push(0),
        GroupKey::Shared(key) => {
            body.push(1);
            body.extend_from_slice(&key.to_le_bytes());
        }
    }
}

/// Decodes one row, re-validating through [`UncertainTuple::new`] so a peer
/// cannot ship rows the import paths would have refused.
fn pop_source_tuple(cursor: &mut FrameCursor<'_>) -> Result<SourceTuple> {
    let id = cursor.u64()?;
    let score = cursor.f64()?;
    let prob = cursor.f64()?;
    let tuple = UncertainTuple::new(id, score, prob)?;
    match cursor.u8()? {
        0 => Ok(SourceTuple::independent(tuple)),
        1 => Ok(SourceTuple::grouped(tuple, cursor.u64()?)),
        _ => Err(cursor.corrupt()),
    }
}

/// Registers a shard server with a coordinator: frames the shard's row count
/// and a display label, then flushes. The coordinator reads it with
/// [`read_client_request`] and answers with a lease frame ([`read_lease`]).
///
/// # Errors
///
/// [`Error::Source`] on I/O failure or an over-long label.
pub fn write_register(writer: &mut impl Write, rows: u64, label: &str) -> Result<()> {
    let mut body = opening(FRAME_REGISTER, 12 + label.len());
    body.extend_from_slice(&rows.to_le_bytes());
    push_label(&mut body, label)?;
    write_flushed(writer, &body)
}

/// Coordinator-side reply to a registration: frames the allotted lease and
/// flushes.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure or an over-long namespace.
pub fn write_lease(writer: &mut impl Write, lease: &ShardAssignment) -> Result<()> {
    let mut body = opening(FRAME_LEASE, 12 + lease.namespace.len());
    body.extend_from_slice(&lease.id_base.to_le_bytes());
    push_label(&mut body, &lease.namespace)?;
    write_flushed(writer, &body)
}

/// Shard-server-side decode of the coordinator's [`write_lease`] reply.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure, a malformed frame, a foreign version,
/// or the coordinator's refusal (an error frame in place of the lease).
pub fn read_lease(reader: &mut impl Read) -> Result<ShardAssignment> {
    let body = read_frame_from(reader)?;
    let mut cursor = open_reply(&body, FRAME_LEASE, "lease", "registration")?;
    let lease = ShardAssignment {
        id_base: cursor.u64()?,
        namespace: cursor.label()?,
    };
    cursor.finish()?;
    Ok(lease)
}

/// The scan announcement a shard client sends right after connecting: the
/// top-k parameters the server needs to evaluate the per-shard Theorem-2
/// stopping bound during replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PushdownQuery {
    /// Number of answers requested; `0` asks the server to stream everything
    /// (a full replay).
    pub k: u64,
    /// The paper's pτ stopping parameter (ignored when `k == 0`).
    pub p_tau: f64,
}

/// Frames a scan announcement and flushes. A shard client sends this
/// immediately after connecting, **before** reading the hello.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure.
pub fn write_scan(writer: &mut impl Write, query: &PushdownQuery) -> Result<()> {
    let mut body = opening(FRAME_SCAN, 18);
    body.extend_from_slice(&query.k.to_le_bytes());
    body.extend_from_slice(&query.p_tau.to_bits().to_le_bytes());
    write_flushed(writer, &body)
}

/// Frames a bound update — the merge-side gate's accumulated probability
/// mass — and flushes. The client pushes these periodically while pulling
/// tuples; the server folds the latest mass into its conservative stopping
/// bound.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure.
pub fn write_bound(writer: &mut impl Write, mass: f64) -> Result<()> {
    let mut body = Vec::with_capacity(9);
    body.push(FRAME_BOUND);
    body.extend_from_slice(&mass.to_bits().to_le_bytes());
    write_flushed(writer, &body)
}

/// The stopped-at trailer: how the server's replay ended, sent just before
/// the end frame so the client can account shipped-vs-scanned tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoppedAt {
    /// Rows the server pulled from its shard source.
    pub scanned: u64,
    /// Tuples the server actually framed onto the wire.
    pub shipped: u64,
    /// `true` when the server's conservative scan gate stopped the replay;
    /// `false` when the shard was exhausted.
    pub gate_limited: bool,
}

/// A control frame a shard server reads off the client half of the socket
/// mid-replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControlFrame {
    /// A [`write_bound`] update carrying the merge-side accumulated mass.
    Bound(f64),
}

/// Incremental decoder for client→server control frames: the server feeds
/// whatever bytes each read returns in with
/// [`extend`](ControlParser::extend), and pops complete frames with
/// [`next_frame`](ControlParser::next_frame) — partial frames stay buffered
/// across reads.
#[derive(Debug, Default)]
pub struct ControlParser {
    buf: Vec<u8>,
}

impl ControlParser {
    /// An empty parser.
    pub fn new() -> Self {
        ControlParser::default()
    }

    /// Appends raw bytes read off the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete control frame, or `None` when only a partial
    /// frame (or nothing) is buffered.
    ///
    /// # Errors
    ///
    /// [`Error::Source`] on a malformed or unexpected frame.
    pub fn next_frame(&mut self) -> Result<Option<ControlFrame>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
        if len == 0 || len > MAX_FRAME_BODY {
            return Err(Error::Source(format!(
                "wire control frame of {len} bytes is outside the accepted range"
            )));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let body: Vec<u8> = self.buf.drain(..4 + len).skip(4).collect();
        match body[0] {
            FRAME_BOUND if body.len() == 9 => Ok(Some(ControlFrame::Bound(f64::from_bits(
                u64::from_le_bytes(body[1..9].try_into().expect("8 bytes")),
            )))),
            FRAME_BOUND => Err(Error::Source("corrupt wire bound frame".into())),
            other => Err(Error::Source(format!(
                "unexpected wire control frame kind {other}"
            ))),
        }
    }
}

/// A query request: the full query shape a client asks a query-serving
/// daemon to execute against one of its resident datasets. Everything that
/// influences the answer is on the wire — the serving side uses the same
/// fields as its result-cache key, so two requests that encode identically
/// are answered identically.
///
/// Algorithm and coalesce policy travel as raw code bytes: the wire layer
/// cannot see the engine's enums, so the serving layer maps (and
/// range-checks) the codes.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Name of the server-resident dataset to query.
    pub dataset: String,
    /// Number of answers requested (`k >= 1`).
    pub k: u64,
    /// The paper's pτ stopping parameter, in `(0, 1)`.
    pub p_tau: f64,
    /// Number of typical answers to select.
    pub typical_count: u64,
    /// Line-coalescing budget for the distribution (`0` = unbounded).
    pub max_lines: u64,
    /// Engine algorithm code (mapped and validated by the serving layer).
    pub algorithm: u8,
    /// Line-coalescing policy code (mapped and validated by the serving
    /// layer).
    pub coalesce: u8,
    /// Whether the server should also run the U-Top-k baseline.
    pub u_topk: bool,
}

/// Appends the k-through-flags query-shape fields shared by the query
/// request and subscribe frames.
fn push_query_shape(body: &mut Vec<u8>, request: &QueryRequest) {
    body.extend_from_slice(&request.k.to_le_bytes());
    body.extend_from_slice(&request.p_tau.to_bits().to_le_bytes());
    body.extend_from_slice(&request.typical_count.to_le_bytes());
    body.extend_from_slice(&request.max_lines.to_le_bytes());
    body.push(request.algorithm);
    body.push(request.coalesce);
    body.push(u8::from(request.u_topk));
}

/// Decodes the fields [`push_query_shape`] wrote; the caller decodes what
/// follows (max pushes for a subscription) and the trailing dataset label.
fn pop_query_shape(cursor: &mut FrameCursor<'_>) -> Result<QueryRequest> {
    let k = cursor.u64()?;
    let p_tau = cursor.f64()?;
    let typical_count = cursor.u64()?;
    let max_lines = cursor.u64()?;
    let algorithm = cursor.u8()?;
    let coalesce = cursor.u8()?;
    let u_topk = cursor.flag()?;
    if k == 0 || !(p_tau > 0.0 && p_tau < 1.0) {
        return Err(Error::Source(format!(
            "{} carries k {k} / p_tau {p_tau} outside the accepted range",
            cursor.what
        )));
    }
    Ok(QueryRequest {
        dataset: String::new(),
        k,
        p_tau,
        typical_count,
        max_lines,
        algorithm,
        coalesce,
        u_topk,
    })
}

/// Frames a query request and flushes. The client sends this immediately
/// after connecting; the server reads it with [`read_client_request`].
///
/// # Errors
///
/// [`Error::Source`] on I/O failure or an over-long dataset name.
pub fn write_query_request(writer: &mut impl Write, request: &QueryRequest) -> Result<()> {
    let mut body = opening(FRAME_QUERY_REQUEST, 39 + request.dataset.len());
    push_query_shape(&mut body, request);
    push_label(&mut body, &request.dataset)?;
    write_flushed(writer, &body)
}

/// One typical answer as it travels in a result header: the score line it
/// represents, the line's probability, and (when the engine tracked
/// witnesses) the most probable vector attaining it.
#[derive(Debug, Clone, PartialEq)]
pub struct WireTypical {
    /// Total score of the answer's line.
    pub score: f64,
    /// Probability mass at that line.
    pub probability: f64,
    /// Most probable vector attaining the line, when tracked.
    pub vector: Option<TopkVector>,
}

/// The U-Top-k baseline answer as it travels in a result header.
#[derive(Debug, Clone, PartialEq)]
pub struct WireUTopk {
    /// The most probable top-k vector.
    pub vector: TopkVector,
    /// Rank positions the baseline's one pass evaluated.
    pub expansions: u64,
    /// The last rank position that pass evaluated (0-based).
    pub deepest_position: u64,
}

/// A query result: everything the server's answer carried. Scores and
/// probabilities are raw IEEE-754 bits on the wire, so a decoded result is
/// bit-identical to the server-side computation.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Protocol version of the result layout: [`WIRE_VERSION_V6`], the only
    /// value [`write_query_result`] accepts.
    pub version: u8,
    /// Whether the server answered from its result cache.
    pub cache_hit: bool,
    /// Scan depth the server-side execution observed.
    pub scan_depth: u64,
    /// Server-side distribution-phase wall time, in nanoseconds.
    pub distribution_time_ns: u64,
    /// Server-side typical-answer-phase wall time, in nanoseconds.
    pub typical_time_ns: u64,
    /// Expected distance of the typical-answer selection.
    pub expected_distance: f64,
    /// The full score distribution, in ascending score order.
    pub points: Vec<DistributionPoint>,
    /// The typical answers.
    pub typical: Vec<WireTypical>,
    /// The U-Top-k baseline answer, when the request asked for it.
    pub u_topk: Option<WireUTopk>,
    /// Epoch of the dataset snapshot the answer was computed against (`0`
    /// for static datasets).
    pub epoch: u64,
    /// The server's result-cache generation — bumped on every append/seal
    /// that advanced any live dataset's epoch.
    pub cache_generation: u64,
    /// Whether the answered dataset is live — i.e. whether the segment/
    /// compaction tail below is meaningful.
    pub live: bool,
    /// Sealed segments under the live snapshot the answer was computed
    /// against (`0` for static datasets).
    pub live_segments: u64,
    /// Epoch of the live log's most recent compaction, `0` when it was
    /// never compacted (and for static datasets).
    pub compacted_epoch: u64,
}

fn push_ids(body: &mut Vec<u8>, ids: &[TupleId]) -> Result<()> {
    if ids.len() > u16::MAX as usize {
        return Err(Error::Source(format!(
            "wire vector of {} ids exceeds the {}-id limit",
            ids.len(),
            u16::MAX
        )));
    }
    body.extend_from_slice(&(ids.len() as u16).to_le_bytes());
    for id in ids {
        body.extend_from_slice(&id.raw().to_le_bytes());
    }
    Ok(())
}

fn pop_ids(cursor: &mut FrameCursor<'_>) -> Result<Vec<TupleId>> {
    let count = cursor.u16()? as usize;
    let mut ids = Vec::with_capacity(count.min(cursor.remaining() / 8));
    for _ in 0..count {
        ids.push(TupleId(cursor.u64()?));
    }
    Ok(ids)
}

fn push_vector(body: &mut Vec<u8>, vector: &TopkVector) -> Result<()> {
    body.extend_from_slice(&vector.total_score().to_bits().to_le_bytes());
    body.extend_from_slice(&vector.probability().to_bits().to_le_bytes());
    push_ids(body, vector.ids())
}

fn pop_vector(cursor: &mut FrameCursor<'_>) -> Result<TopkVector> {
    let total_score = cursor.f64()?;
    let probability = cursor.f64()?;
    Ok(TopkVector::new(pop_ids(cursor)?, total_score, probability))
}

fn push_point(body: &mut Vec<u8>, point: &DistributionPoint) -> Result<()> {
    body.extend_from_slice(&point.score.to_bits().to_le_bytes());
    body.extend_from_slice(&point.probability.to_bits().to_le_bytes());
    match &point.witness {
        None => body.push(0),
        Some(witness) => {
            body.push(1);
            body.extend_from_slice(&witness.probability.to_bits().to_le_bytes());
            push_ids(body, &witness.ids)?;
        }
    }
    Ok(())
}

fn pop_point(cursor: &mut FrameCursor<'_>) -> Result<DistributionPoint> {
    let score = cursor.f64()?;
    let probability = cursor.f64()?;
    let witness = match cursor.u8()? {
        0 => None,
        1 => {
            let probability = cursor.f64()?;
            Some(VectorWitness {
                ids: pop_ids(cursor)?,
                probability,
            })
        }
        _ => return Err(cursor.corrupt()),
    };
    Ok(DistributionPoint {
        score,
        probability,
        witness,
    })
}

/// Frames a query result — header, distribution chunks, end frame — and
/// flushes. Chunks are packed up to the frame-body limit, so the full
/// distribution streams regardless of its line count.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure, a `version` other than
/// [`WIRE_VERSION_V6`], or when a single header/point encoding exceeds the
/// frame-body limit (vectors of more than `u16::MAX` ids, or a pathological
/// typical-answer set).
pub fn write_query_result(writer: &mut impl Write, result: &QueryResult) -> Result<()> {
    if result.version != WIRE_VERSION_V6 {
        return Err(Error::Source(format!(
            "query result version {} is not the version this build speaks ({WIRE_VERSION_V6})",
            result.version
        )));
    }
    let mut body = opening(FRAME_QUERY_RESULT, 128);
    let mut flags = 0u8;
    if result.cache_hit {
        flags |= 1;
    }
    if result.u_topk.is_some() {
        flags |= 2;
    }
    body.push(flags);
    body.extend_from_slice(&result.scan_depth.to_le_bytes());
    body.extend_from_slice(&result.distribution_time_ns.to_le_bytes());
    body.extend_from_slice(&result.typical_time_ns.to_le_bytes());
    body.extend_from_slice(&(result.points.len() as u64).to_le_bytes());
    body.extend_from_slice(&result.expected_distance.to_bits().to_le_bytes());
    if result.typical.len() > u16::MAX as usize {
        return Err(Error::Source(format!(
            "query result carries {} typical answers (limit {})",
            result.typical.len(),
            u16::MAX
        )));
    }
    body.extend_from_slice(&(result.typical.len() as u16).to_le_bytes());
    for typical in &result.typical {
        body.extend_from_slice(&typical.score.to_bits().to_le_bytes());
        body.extend_from_slice(&typical.probability.to_bits().to_le_bytes());
        match &typical.vector {
            None => body.push(0),
            Some(vector) => {
                body.push(1);
                push_vector(&mut body, vector)?;
            }
        }
    }
    if let Some(u_topk) = &result.u_topk {
        push_vector(&mut body, &u_topk.vector)?;
        body.extend_from_slice(&u_topk.expansions.to_le_bytes());
        body.extend_from_slice(&u_topk.deepest_position.to_le_bytes());
    }
    body.extend_from_slice(&result.epoch.to_le_bytes());
    body.extend_from_slice(&result.cache_generation.to_le_bytes());
    body.push(u8::from(result.live));
    body.extend_from_slice(&result.live_segments.to_le_bytes());
    body.extend_from_slice(&result.compacted_epoch.to_le_bytes());
    if body.len() > MAX_FRAME_BODY {
        return Err(Error::Source(format!(
            "query result header of {} bytes exceeds the {MAX_FRAME_BODY}-byte frame limit",
            body.len()
        )));
    }
    write_frame_to(writer, &body)?;
    write_chunked(FRAME_RESULT_CHUNK, &result.points, push_point, |chunk| {
        write_frame_to(writer, chunk)
    })?;
    write_flushed(writer, &[FRAME_END])
}

/// Client-side decode of a [`write_query_result`] stream: the header frame,
/// every distribution chunk, and the end frame.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure, a malformed frame, a foreign version, a
/// point count that does not match the header's announcement, or a
/// server-side failure (an error frame in place of the header or
/// mid-stream).
pub fn read_query_result(reader: &mut impl Read) -> Result<QueryResult> {
    let body = read_frame_from(reader)?;
    let mut cursor = open_reply(&body, FRAME_QUERY_RESULT, "query result", "query")?;
    let flags = cursor.u8()?;
    if flags > 3 {
        return Err(cursor.corrupt());
    }
    let scan_depth = cursor.u64()?;
    let distribution_time_ns = cursor.u64()?;
    let typical_time_ns = cursor.u64()?;
    let point_count = cursor.u64()?;
    let expected_distance = cursor.f64()?;
    let typical_count = cursor.u16()? as usize;
    // An encoded typical answer takes at least 17 bytes.
    let mut typical = Vec::with_capacity(typical_count.min(cursor.remaining() / 17));
    for _ in 0..typical_count {
        let score = cursor.f64()?;
        let probability = cursor.f64()?;
        let vector = match cursor.u8()? {
            0 => None,
            1 => Some(pop_vector(&mut cursor)?),
            _ => return Err(cursor.corrupt()),
        };
        typical.push(WireTypical {
            score,
            probability,
            vector,
        });
    }
    let u_topk = if flags & 2 != 0 {
        let vector = pop_vector(&mut cursor)?;
        Some(WireUTopk {
            vector,
            expansions: cursor.u64()?,
            deepest_position: cursor.u64()?,
        })
    } else {
        None
    };
    let epoch = cursor.u64()?;
    let cache_generation = cursor.u64()?;
    let live = cursor.flag()?;
    let live_segments = cursor.u64()?;
    let compacted_epoch = cursor.u64()?;
    cursor.finish()?;

    // The announced count sizes the allocation only up to a clamp — the
    // actual frames, not the header, decide how much memory is committed.
    let mut points = Vec::with_capacity((point_count as usize).min(4096));
    read_chunks(
        reader,
        FRAME_RESULT_CHUNK,
        "result chunk",
        "query",
        |cursor| {
            points.push(pop_point(cursor)?);
            Ok(())
        },
    )?;
    if points.len() as u64 != point_count {
        return Err(Error::Source(format!(
            "query result shipped {} distribution points but announced {point_count}",
            points.len()
        )));
    }
    Ok(QueryResult {
        version: WIRE_VERSION_V6,
        cache_hit: flags & 1 != 0,
        scan_depth,
        distribution_time_ns,
        typical_time_ns,
        expected_distance,
        points,
        typical,
        u_topk,
        epoch,
        cache_generation,
        live,
        live_segments,
        compacted_epoch,
    })
}

/// Frames an error and flushes: a daemon's refusal of a connection's opening
/// frame, or a server-side failure sent in place of (or in the middle of) a
/// reply. Every client decoder surfaces it as [`Error::Source`].
///
/// # Errors
///
/// [`Error::Source`] on I/O failure.
pub fn write_error(writer: &mut impl Write, message: &str) -> Result<()> {
    let mut body = Vec::with_capacity(1 + message.len());
    body.push(FRAME_ERROR);
    body.extend_from_slice(message.as_bytes());
    write_flushed(writer, &body)
}

/// Frames a busy/retry-after refusal and flushes: the admission-control
/// answer of a daemon whose worker handoff would block. Sent in place of any
/// reply (the daemon closes right after), so a flood is shed with one cheap
/// frame instead of sitting in the listen backlog.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure.
pub fn write_busy(writer: &mut impl Write, retry_after_ms: u64) -> Result<()> {
    let mut body = opening(FRAME_BUSY, 10);
    body.extend_from_slice(&retry_after_ms.to_le_bytes());
    write_flushed(writer, &body)
}

/// Decodes a busy frame body into the client-side error. The message
/// deliberately does **not** carry the semantic `remote … failed` prefix the
/// retrying clients treat as final — a busy refusal is the one server answer
/// that is *meant* to be retried.
fn busy_error(body: &[u8]) -> Error {
    let retry_after_ms = open_frame(body, "busy").and_then(|mut cursor| {
        let retry_after_ms = cursor.u64()?;
        cursor.finish()?;
        Ok(retry_after_ms)
    });
    match retry_after_ms {
        Ok(ms) => Error::Source(format!(
            "server busy: connection shed by admission control, retry after {ms}ms"
        )),
        Err(e) => e,
    }
}

/// An append request: scored rows for one of the server's live datasets,
/// with an optional seal trigger publishing them as a new snapshot epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct AppendRequest {
    /// Name of the server-resident live dataset to append to.
    pub dataset: String,
    /// Whether to seal the staging buffer after the rows land.
    pub seal: bool,
    /// The scored rows, in any order (the seal sorts them).
    pub rows: Vec<SourceTuple>,
}

/// Most rows a single append request may announce — bounds the server-side
/// allocation the same way [`MAX_FRAME_BODY`] bounds one frame.
const MAX_APPEND_ROWS: u64 = 1 << 20;

/// Frames an append request — header, row chunks, end frame — and flushes.
/// Rows pack into size-bounded chunk frames like a result's distribution
/// points, so an append of any size streams without oversized frames.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure, an over-long dataset name, or more rows
/// than one request may announce.
pub fn write_append_request(writer: &mut impl Write, request: &AppendRequest) -> Result<()> {
    if request.rows.len() as u64 > MAX_APPEND_ROWS {
        return Err(Error::Source(format!(
            "append request carries {} rows (limit {MAX_APPEND_ROWS}); split it",
            request.rows.len()
        )));
    }
    let mut body = opening(FRAME_APPEND, 13 + request.dataset.len());
    body.push(u8::from(request.seal));
    body.extend_from_slice(&(request.rows.len() as u64).to_le_bytes());
    push_label(&mut body, &request.dataset)?;
    write_frame_to(writer, &body)?;
    write_chunked(
        FRAME_APPEND_ROWS,
        &request.rows,
        |chunk, row| {
            push_source_tuple(chunk, row);
            Ok(())
        },
        |chunk| write_frame_to(writer, chunk),
    )?;
    write_flushed(writer, &[FRAME_END])
}

/// Decodes the rest of an append header (`cursor` sits after its version
/// byte), then the row chunks and end frame that follow it. Cross-checks the
/// shipped row count against the header's announcement.
fn read_append_rows(reader: &mut impl Read, mut cursor: FrameCursor<'_>) -> Result<AppendRequest> {
    let seal = cursor.flag()?;
    let announced = cursor.u64()?;
    let dataset = cursor.label()?;
    cursor.finish()?;
    if announced > MAX_APPEND_ROWS {
        return Err(Error::Source(format!(
            "append request announces {announced} rows (limit {MAX_APPEND_ROWS})"
        )));
    }
    // The announced count sizes the allocation only up to a clamp — the
    // actual frames, not the header, decide how much memory is committed.
    let mut rows = Vec::with_capacity((announced as usize).min(4096));
    read_chunks(
        reader,
        FRAME_APPEND_ROWS,
        "append row chunk",
        "append client",
        |cursor| {
            if rows.len() as u64 >= MAX_APPEND_ROWS {
                return Err(Error::Source(format!(
                    "append request ships more than {MAX_APPEND_ROWS} rows"
                )));
            }
            rows.push(pop_source_tuple(cursor)?);
            Ok(())
        },
    )?;
    if rows.len() as u64 != announced {
        return Err(Error::Source(format!(
            "append request shipped {} rows but announced {announced}",
            rows.len()
        )));
    }
    Ok(AppendRequest {
        dataset,
        seal,
        rows,
    })
}

/// The server's answer to an append request: where the live dataset stands
/// after the rows (and any seal) landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendAck {
    /// Snapshot epoch after this request was applied.
    pub epoch: u64,
    /// Rows currently staged (appended but not yet sealed).
    pub staged: u64,
    /// Total rows across all sealed segments.
    pub sealed_rows: u64,
    /// Whether this request advanced the epoch (an explicit or size-
    /// triggered seal published a new snapshot).
    pub sealed_now: bool,
}

/// Frames an append acknowledgement and flushes.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure.
pub fn write_append_ack(writer: &mut impl Write, ack: &AppendAck) -> Result<()> {
    let mut body = opening(FRAME_APPEND_ACK, 27);
    body.push(u8::from(ack.sealed_now));
    body.extend_from_slice(&ack.epoch.to_le_bytes());
    body.extend_from_slice(&ack.staged.to_le_bytes());
    body.extend_from_slice(&ack.sealed_rows.to_le_bytes());
    write_flushed(writer, &body)
}

/// Client-side decode of a [`write_append_ack`] frame. A server-side error
/// frame in its place surfaces with the semantic `remote append failed`
/// prefix (never retried); a busy frame surfaces as the retryable busy
/// error.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure, a malformed frame, a foreign version, a
/// server-side refusal, or a busy refusal.
pub fn read_append_ack(reader: &mut impl Read) -> Result<AppendAck> {
    let body = read_frame_from(reader)?;
    let mut cursor = open_reply(&body, FRAME_APPEND_ACK, "append ack", "append")?;
    let ack = AppendAck {
        sealed_now: cursor.flag()?,
        epoch: cursor.u64()?,
        staged: cursor.u64()?,
        sealed_rows: cursor.u64()?,
    };
    cursor.finish()?;
    Ok(ack)
}

/// A subscription request: a standing query the server re-evaluates on
/// every epoch advance of the named live dataset, pushing a notification
/// (plus a full result stream) only when the answer distribution shifted.
#[derive(Debug, Clone, PartialEq)]
pub struct SubscribeRequest {
    /// The standing query shape (its `dataset` names the live dataset).
    pub query: QueryRequest,
    /// Pushes after which the server closes the subscription (`0` = no
    /// limit; the subscription lives until a side disconnects).
    pub max_pushes: u64,
}

/// Frames a subscribe request and flushes. Sent immediately after
/// connecting, like the query request it extends.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure or an over-long dataset name.
pub fn write_subscribe(writer: &mut impl Write, request: &SubscribeRequest) -> Result<()> {
    let mut body = opening(FRAME_SUBSCRIBE, 47 + request.query.dataset.len());
    push_query_shape(&mut body, &request.query);
    body.extend_from_slice(&request.max_pushes.to_le_bytes());
    push_label(&mut body, &request.query.dataset)?;
    write_flushed(writer, &body)
}

/// One subscription push announcement: the epoch the standing query was
/// re-evaluated at and the answer-distribution hash that shifted. A complete
/// result stream ([`read_query_result`]) follows every notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Notification {
    /// Epoch of the snapshot the pushed answer was computed against.
    pub epoch: u64,
    /// The server's hash of the answer distribution (what it compares
    /// between epochs to decide whether to push).
    pub answer_hash: u64,
}

/// Frames a notification. The caller streams the full query result right
/// after it; no flush here, so notification + result leave as one write.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure.
pub fn write_notification(writer: &mut impl Write, notification: &Notification) -> Result<()> {
    let mut body = opening(FRAME_NOTIFY, 18);
    body.extend_from_slice(&notification.epoch.to_le_bytes());
    body.extend_from_slice(&notification.answer_hash.to_le_bytes());
    write_frame_to(writer, &body)
}

/// Server-side close of a push stream: frames a bare end marker (what
/// [`read_push`] decodes as `None`) and flushes, so the subscriber sees a
/// clean end instead of a dropped connection.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure.
pub fn write_push_end(writer: &mut impl Write) -> Result<()> {
    write_flushed(writer, &[FRAME_END])
}

/// Client-side read of the next subscription event: `Some(notification)`
/// when the server pushed (decode the result stream next), `None` when the
/// server closed the subscription cleanly (push budget reached or daemon
/// drain).
///
/// # Errors
///
/// [`Error::Source`] on I/O failure, a malformed frame, a foreign version, a
/// server-side subscription failure, or a busy refusal (possible only as the
/// very first event).
pub fn read_push(reader: &mut impl Read) -> Result<Option<Notification>> {
    let body = read_frame_from(reader)?;
    if body == [FRAME_END] {
        return Ok(None);
    }
    let mut cursor = open_reply(&body, FRAME_NOTIFY, "notification", "subscription")?;
    let notification = Notification {
        epoch: cursor.u64()?,
        answer_hash: cursor.u64()?,
    };
    cursor.finish()?;
    Ok(Some(notification))
}

/// The lifecycle verbs an admin client can send a serving daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdminVerb {
    /// Report the resident datasets, cache counters and runtime state.
    Stats,
    /// Import a new dataset (`name` = dataset, `arg` = server-side CSV path)
    /// and make it resident without a restart.
    Register,
    /// Drop a resident dataset; in-flight queries finish on the old handle.
    Unregister,
    /// Re-import a file-backed dataset from its original path and swap it in.
    Reload,
    /// Fold a live dataset's sealed segments into one (LSM-style compaction).
    Compact,
}

impl AdminVerb {
    fn code(self) -> u8 {
        match self {
            AdminVerb::Stats => 0,
            AdminVerb::Register => 1,
            AdminVerb::Unregister => 2,
            AdminVerb::Reload => 3,
            AdminVerb::Compact => 4,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(AdminVerb::Stats),
            1 => Some(AdminVerb::Register),
            2 => Some(AdminVerb::Unregister),
            3 => Some(AdminVerb::Reload),
            4 => Some(AdminVerb::Compact),
            _ => None,
        }
    }
}

impl fmt::Display for AdminVerb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AdminVerb::Stats => "stats",
            AdminVerb::Register => "register",
            AdminVerb::Unregister => "unregister",
            AdminVerb::Reload => "reload",
            AdminVerb::Compact => "compact",
        })
    }
}

/// One admin-plane request: a verb plus its (possibly empty) operands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdminRequest {
    /// What the server should do.
    pub verb: AdminVerb,
    /// The dataset the verb targets; empty for [`AdminVerb::Stats`].
    pub name: String,
    /// The verb's argument — the server-side CSV path for
    /// [`AdminVerb::Register`], empty otherwise.
    pub arg: String,
}

/// Frames an admin request and flushes.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure or an over-long name/argument.
pub fn write_admin_request(writer: &mut impl Write, request: &AdminRequest) -> Result<()> {
    let mut body = opening(FRAME_ADMIN, 7 + request.name.len() + request.arg.len());
    body.push(request.verb.code());
    push_label(&mut body, &request.name)?;
    push_label(&mut body, &request.arg)?;
    if body.len() > MAX_FRAME_BODY {
        return Err(Error::Source(format!(
            "admin request of {} bytes exceeds the frame-body limit",
            body.len()
        )));
    }
    write_flushed(writer, &body)
}

/// Frames a successful admin outcome — a short human-readable report — and
/// flushes. Failures are sent as plain error frames ([`write_error`])
/// instead, which [`read_admin_response`] surfaces as [`Error::Source`].
///
/// # Errors
///
/// [`Error::Source`] on I/O failure or an over-long report.
pub fn write_admin_response(writer: &mut impl Write, text: &str) -> Result<()> {
    let mut body = opening(FRAME_ADMIN_RESPONSE, 2 + text.len());
    body.extend_from_slice(text.as_bytes());
    if body.len() > MAX_FRAME_BODY {
        return Err(Error::Source(format!(
            "admin response of {} bytes exceeds the frame-body limit",
            body.len()
        )));
    }
    write_flushed(writer, &body)
}

/// Client-side decode of the server's answer to an admin request: the report
/// text on success.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure, a malformed frame, a foreign version, a
/// busy refusal (which clients may retry), or a server-side failure —
/// surfaced with the `remote admin failed` prefix the retrying clients treat
/// as final.
pub fn read_admin_response(reader: &mut impl Read) -> Result<String> {
    let body = read_frame_from(reader)?;
    let cursor = open_reply(&body, FRAME_ADMIN_RESPONSE, "admin response", "admin")?;
    String::from_utf8(body[cursor.at..].to_vec()).map_err(|_| cursor.corrupt())
}

/// The opening frame of a connection, as [`read_client_request`] decodes it
/// for every daemon. Each daemon serves some of the kinds and refuses the
/// rest with an error frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientRequest {
    /// A shard scan ([`write_scan`]), served by `serve-shard`.
    Scan(PushdownQuery),
    /// A shard server's registration ([`write_register`]), served by the
    /// coordinator.
    Register {
        /// Rows of the registering shard.
        rows: u64,
        /// The shard's display label.
        label: String,
    },
    /// A one-shot query ([`write_query_request`]), served by `serve`.
    Query(QueryRequest),
    /// An append (+ optional seal) to a live dataset
    /// ([`write_append_request`]), served by `serve`.
    Append(AppendRequest),
    /// A standing-query subscription ([`write_subscribe`]), served by
    /// `serve`.
    Subscribe(SubscribeRequest),
    /// A lifecycle verb on the admin plane ([`write_admin_request`]), served
    /// by `serve`.
    Admin(AdminRequest),
}

impl ClientRequest {
    /// What kind of request this is, for a daemon's refusal of kinds it does
    /// not serve.
    pub fn name(&self) -> &'static str {
        match self {
            ClientRequest::Scan(_) => "scan announcement",
            ClientRequest::Register { .. } => "register request",
            ClientRequest::Query(_) => "query request",
            ClientRequest::Append(_) => "append request",
            ClientRequest::Subscribe(_) => "subscribe request",
            ClientRequest::Admin(_) => "admin request",
        }
    }
}

/// Decodes the opening frame of a connection — the one decoder every daemon
/// reads its first frame through. An append also drains its row chunks.
/// Anything that is not a request, or a request at a version other than
/// [`WIRE_VERSION_V6`], is an error the daemon answers with an error frame.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure, a malformed or unexpected frame, a
/// foreign version, or invalid request fields.
pub fn read_client_request(reader: &mut impl Read) -> Result<ClientRequest> {
    let body = read_frame_from(reader)?;
    match body[0] {
        FRAME_SCAN => {
            let mut cursor = open_frame(&body, "scan announcement")?;
            let query = PushdownQuery {
                k: cursor.u64()?,
                p_tau: cursor.f64()?,
            };
            cursor.finish()?;
            if query.k > 0 && !(query.p_tau > 0.0 && query.p_tau < 1.0) {
                return Err(Error::Source(format!(
                    "wire scan announcement carries p_tau {} outside (0, 1)",
                    query.p_tau
                )));
            }
            Ok(ClientRequest::Scan(query))
        }
        FRAME_REGISTER => {
            let mut cursor = open_frame(&body, "register")?;
            let rows = cursor.u64()?;
            let label = cursor.label()?;
            cursor.finish()?;
            Ok(ClientRequest::Register { rows, label })
        }
        FRAME_QUERY_REQUEST => {
            let mut cursor = open_frame(&body, "query request")?;
            let mut query = pop_query_shape(&mut cursor)?;
            query.dataset = cursor.label()?;
            cursor.finish()?;
            Ok(ClientRequest::Query(query))
        }
        FRAME_APPEND => {
            let cursor = open_frame(&body, "append request")?;
            Ok(ClientRequest::Append(read_append_rows(reader, cursor)?))
        }
        FRAME_SUBSCRIBE => {
            let mut cursor = open_frame(&body, "subscribe request")?;
            let mut query = pop_query_shape(&mut cursor)?;
            let max_pushes = cursor.u64()?;
            query.dataset = cursor.label()?;
            cursor.finish()?;
            Ok(ClientRequest::Subscribe(SubscribeRequest {
                query,
                max_pushes,
            }))
        }
        FRAME_ADMIN => {
            let mut cursor = open_frame(&body, "admin")?;
            let code = cursor.u8()?;
            let verb = AdminVerb::from_code(code)
                .ok_or_else(|| Error::Source(format!("unknown admin verb {code}")))?;
            let name = cursor.label()?;
            let arg = cursor.label()?;
            cursor.finish()?;
            Ok(ClientRequest::Admin(AdminRequest { verb, name, arg }))
        }
        other => Err(Error::Source(format!(
            "unexpected wire frame kind {other} (a connection opens with a scan announcement, \
             register, query, append, subscribe or admin request)"
        ))),
    }
}

/// The coordinator's allocation state: hands out contiguous, non-overlapping
/// tuple-id ranges (and one shared namespace label) to registering shard
/// servers, replacing operator-passed `--id-base` arithmetic.
///
/// Pure bookkeeping — the TCP accept loop around it lives in the CLI — so
/// the allocation discipline is testable without sockets: the `i`-th
/// registration receives an id base equal to the total row count of the
/// `0..i` registrations, exactly what an operator would have passed by hand
/// for shards imported in that order.
#[derive(Debug, Clone)]
pub struct LeaseRegistry {
    namespace: String,
    next_id_base: u64,
    leases: usize,
}

impl LeaseRegistry {
    /// A registry whose leases all carry `namespace`.
    pub fn new(namespace: impl Into<String>) -> Self {
        LeaseRegistry {
            namespace: namespace.into(),
            next_id_base: 0,
            leases: 0,
        }
    }

    /// Allots the next lease to a shard of `rows` rows: the current id-base
    /// watermark plus the shared namespace. The watermark advances by `rows`.
    pub fn register(&mut self, rows: u64) -> ShardAssignment {
        let lease = ShardAssignment {
            id_base: self.next_id_base,
            namespace: self.namespace.clone(),
        };
        self.next_id_base = self.next_id_base.saturating_add(rows);
        self.leases += 1;
        lease
    }

    /// Number of leases handed out so far.
    pub fn lease_count(&self) -> usize {
        self.leases
    }

    /// The id base the next registration would receive (= total rows leased).
    pub fn next_id_base(&self) -> u64 {
        self.next_id_base
    }

    /// The namespace label stamped on every lease.
    pub fn namespace(&self) -> &str {
        &self.namespace
    }
}

/// The sending half of a shard stream: frames a rank-ordered tuple stream
/// onto any blocking [`Write`].
///
/// Construction writes the hello frame. Call
/// [`write_block`](WireWriter::write_block) for the tuples, optionally
/// [`write_stopped`](WireWriter::write_stopped), then exactly one of
/// [`finish`](WireWriter::finish) or [`fail`](WireWriter::fail).
#[derive(Debug)]
pub struct WireWriter<W: Write> {
    writer: W,
    bytes: u64,
}

impl<W: Write> WireWriter<W> {
    /// Wraps `writer` and sends the hello frame: `size_hint` (a tuple-count
    /// hint the receiving planner can surface) and, when the server holds
    /// one, the shard's id-base/namespace assignment.
    ///
    /// # Errors
    ///
    /// [`Error::Source`] when the hello frame cannot be written or the
    /// namespace label is over-long.
    pub fn new(
        writer: W,
        size_hint: Option<usize>,
        assignment: Option<&ShardAssignment>,
    ) -> Result<Self> {
        let mut body = opening(
            FRAME_HELLO,
            21 + assignment.map_or(0, |a| a.namespace.len()),
        );
        let hint = size_hint.map(|n| n as u64).unwrap_or(u64::MAX);
        body.extend_from_slice(&hint.to_le_bytes());
        match assignment {
            None => body.push(0),
            Some(assignment) => {
                body.push(1);
                body.extend_from_slice(&assignment.id_base.to_le_bytes());
                push_label(&mut body, &assignment.namespace)?;
            }
        }
        let mut this = WireWriter { writer, bytes: 0 };
        this.frame(&body)?;
        Ok(this)
    }

    /// Sends the stopped-at trailer. Call at most once, just before
    /// [`finish`](WireWriter::finish).
    ///
    /// # Errors
    ///
    /// [`Error::Source`] on I/O failure.
    pub fn write_stopped(&mut self, stopped: &StoppedAt) -> Result<()> {
        let mut body = Vec::with_capacity(18);
        body.push(FRAME_STOPPED);
        body.extend_from_slice(&stopped.scanned.to_le_bytes());
        body.extend_from_slice(&stopped.shipped.to_le_bytes());
        body.push(u8::from(stopped.gate_limited));
        self.frame(&body)
    }

    fn frame(&mut self, body: &[u8]) -> Result<()> {
        self.bytes += body.len() as u64 + 4;
        write_frame_to(&mut self.writer, body)
    }

    /// Total bytes framed onto the writer so far (length prefixes included)
    /// — the shipped-byte accounting the bench and serve summaries report.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Frames a columnar tuple block as one or more tuple-block frames of at
    /// most [`MAX_FRAME_BODY`] bytes each (an empty block frames nothing).
    ///
    /// # Errors
    ///
    /// [`Error::Source`] on I/O failure.
    pub fn write_block(&mut self, block: &TupleBlock) -> Result<()> {
        write_chunked(
            FRAME_TUPLE_BLOCK,
            (0..block.len()).map(|row| block.get(row)),
            |chunk, row| {
                push_source_tuple(chunk, &row);
                Ok(())
            },
            |chunk| self.frame(chunk),
        )
    }

    /// Sends the end-of-stream frame and flushes, returning the total bytes
    /// framed over the connection's lifetime (see
    /// [`bytes_written`](WireWriter::bytes_written)).
    ///
    /// # Errors
    ///
    /// [`Error::Source`] on I/O failure.
    pub fn finish(mut self) -> Result<u64> {
        self.frame(&[FRAME_END])?;
        self.writer.flush().map_err(|e| io_err("flush", e))?;
        Ok(self.bytes)
    }

    /// Sends an error frame (delivered to the peer as [`Error::Source`])
    /// and flushes.
    ///
    /// # Errors
    ///
    /// [`Error::Source`] on I/O failure.
    pub fn fail(mut self, message: &str) -> Result<()> {
        self.bytes += 5 + message.len() as u64;
        write_error(&mut self.writer, message)
    }
}

/// The receiving half of a shard stream: a [`TupleSource`] decoding frames
/// from any blocking [`Read`].
///
/// The hello frame is read lazily on the first pull, so constructing a
/// reader never blocks. Wrap network streams in a `BufReader` — the decoder
/// issues small reads.
#[derive(Debug)]
pub struct WireReader<R: Read> {
    reader: R,
    hello: Option<Hello>,
    done: bool,
    hint: Option<usize>,
    stopped: Option<StoppedAt>,
    /// Undelivered remainder of the last tuple-block frame; frames are only
    /// read while this buffer is empty.
    pending: TupleBlock,
    cursor: usize,
    /// Tuple-block frames decoded off the wire, and the rows they carried —
    /// the framing truth, independent of how the consumer pulls (a merge
    /// draining tuple-at-a-time still empties block frames through the
    /// buffer above).
    block_frames: u64,
    block_frame_rows: u64,
}

impl<R: Read> WireReader<R> {
    /// Wraps `reader`.
    pub fn new(reader: R) -> Self {
        WireReader {
            reader,
            hello: None,
            done: false,
            hint: None,
            stopped: None,
            pending: TupleBlock::default(),
            cursor: 0,
            block_frames: 0,
            block_frame_rows: 0,
        }
    }

    /// How many tuple-block frames this reader has decoded so far, and the
    /// total rows they carried — regardless of whether the consumer pulled
    /// them back out as blocks or tuple-at-a-time.
    pub fn block_frames_decoded(&self) -> (u64, u64) {
        (self.block_frames, self.block_frame_rows)
    }

    fn expect_hello(&mut self) -> Result<Hello> {
        let body = read_frame_from(&mut self.reader)?;
        let mut cursor = open_reply(&body, FRAME_HELLO, "hello", "source")?;
        let hint = cursor.u64()?;
        let assignment = match cursor.u8()? {
            0 => None,
            1 => Some(ShardAssignment {
                id_base: cursor.u64()?,
                namespace: cursor.label()?,
            }),
            _ => return Err(cursor.corrupt()),
        };
        cursor.finish()?;
        Ok(Hello {
            size_hint: (hint != u64::MAX).then_some(hint as usize),
            assignment,
        })
    }

    /// Forces the hello frame to be read (a no-op if already decoded) and
    /// returns it. Lets a connection manager validate the
    /// [`ShardAssignment`] **before** handing the reader to a merge — a dead
    /// or misconfigured peer then fails at connection time, where it can be
    /// retried, instead of mid-scan.
    ///
    /// # Errors
    ///
    /// [`Error::Source`] when the stream does not open with a valid hello.
    pub fn hello(&mut self) -> Result<&Hello> {
        if self.hello.is_none() {
            match self.expect_hello() {
                Ok(hello) => {
                    self.hint = hello.size_hint;
                    self.hello = Some(hello);
                }
                Err(e) => {
                    self.done = true;
                    return Err(e);
                }
            }
        }
        Ok(self.hello.as_ref().expect("hello decoded above"))
    }

    /// The stopped-at trailer, once the stream has ended (`None` before,
    /// and for a stream the server closed without one).
    pub fn stopped_at(&self) -> Option<&StoppedAt> {
        self.stopped.as_ref()
    }

    /// Reads frames until a non-empty block is buffered (`true`) or the
    /// stream has ended (`false`). Every failure ends the stream.
    fn fill(&mut self) -> Result<bool> {
        if self.done {
            return Ok(false);
        }
        self.hello()?;
        let filled = self.load_block();
        if !matches!(filled, Ok(true)) {
            self.done = true;
        }
        filled
    }

    fn load_block(&mut self) -> Result<bool> {
        loop {
            let body = read_frame_from(&mut self.reader)?;
            match body[0] {
                FRAME_TUPLE_BLOCK => {
                    let mut cursor = FrameCursor::new(&body, 1, "tuple block");
                    let count = cursor.u16()? as usize;
                    let mut block =
                        TupleBlock::with_capacity(count.min(cursor.remaining() / MIN_ROW_BYTES));
                    for _ in 0..count {
                        block.push(&pop_source_tuple(&mut cursor)?);
                    }
                    cursor.finish()?;
                    self.block_frames += 1;
                    self.block_frame_rows += block.len() as u64;
                    if !block.is_empty() {
                        self.pending = block;
                        self.cursor = 0;
                        return Ok(true);
                    }
                }
                FRAME_STOPPED => {
                    let mut cursor = FrameCursor::new(&body, 1, "stopped-at");
                    let stopped = StoppedAt {
                        scanned: cursor.u64()?,
                        shipped: cursor.u64()?,
                        gate_limited: cursor.flag()?,
                    };
                    cursor.finish()?;
                    // The end frame follows the trailer.
                    self.stopped = Some(stopped);
                }
                FRAME_END => return Ok(false),
                FRAME_ERROR => return Err(remote_failed("source", &body)),
                other => return Err(Error::Source(format!("unknown wire frame kind {other}"))),
            }
        }
    }

    /// Moves `delivered` rows out of the buffer, maintaining the hint.
    fn consume(&mut self, delivered: usize) {
        self.cursor += delivered;
        if self.cursor >= self.pending.len() {
            self.pending.clear();
            self.cursor = 0;
        }
        if let Some(hint) = &mut self.hint {
            *hint = hint.saturating_sub(delivered);
        }
    }
}

impl<R: Read> TupleSource for WireReader<R> {
    fn next_tuple(&mut self) -> Result<Option<SourceTuple>> {
        if self.cursor >= self.pending.len() && !self.fill()? {
            return Ok(None);
        }
        let row = self.pending.get(self.cursor);
        self.consume(1);
        Ok(Some(row))
    }

    fn next_block(&mut self, max: usize) -> Result<Option<TupleBlock>> {
        if self.cursor >= self.pending.len() && !self.fill()? {
            return Ok(None);
        }
        let take = (self.pending.len() - self.cursor).min(max.max(1));
        // Whole-block handover when the buffer fits the ask; otherwise copy
        // a slice of the columns and keep the remainder buffered.
        let block = if self.cursor == 0 && take == self.pending.len() {
            std::mem::take(&mut self.pending)
        } else {
            let mut out = TupleBlock::with_capacity(take);
            out.push_range(&self.pending, self.cursor, self.cursor + take);
            out
        };
        self.consume(take);
        Ok(Some(block))
    }

    fn size_hint(&self) -> Option<usize> {
        if self.done {
            return Some(0);
        }
        // Unknown until the hello frame has been decoded.
        self.hint.filter(|_| self.hello.is_some())
    }
}

/// Shared observability for one remote scan: every wire-backed connection
/// feeding the scan records what actually crossed the network, so the
/// planner can report shipped-vs-scanned tuples per query. All counters are
/// atomic, so the connections and the handle reading them share one `Arc`
/// across the `Send` scan.
#[derive(Debug, Default)]
pub struct WireScanStats {
    tuples: std::sync::atomic::AtomicU64,
    blocks: std::sync::atomic::AtomicU64,
    block_rows: std::sync::atomic::AtomicU64,
    server_scanned: std::sync::atomic::AtomicU64,
    server_shipped: std::sync::atomic::AtomicU64,
}

impl WireScanStats {
    const ORDER: std::sync::atomic::Ordering = std::sync::atomic::Ordering::Relaxed;

    /// Records one tuple received over the wire.
    pub fn record_tuple(&self) {
        self.tuples.fetch_add(1, Self::ORDER);
    }

    /// Records `tuples` tuples delivered through one block pull — they count
    /// toward [`tuples_received`] exactly like per-tuple deliveries. Wire
    /// framing is tracked separately via [`record_block_frames`]: a block
    /// pull may be served from a buffered frame, and a buffered frame may be
    /// drained tuple-at-a-time.
    ///
    /// [`tuples_received`]: WireScanStats::tuples_received
    /// [`record_block_frames`]: WireScanStats::record_block_frames
    pub fn record_block_pull(&self, tuples: usize) {
        self.tuples.fetch_add(tuples as u64, Self::ORDER);
    }

    /// Folds in tuple-block frames decoded off the wire (`frames` frames
    /// carrying `rows` rows total), typically harvested from
    /// [`WireReader::block_frames_decoded`].
    pub fn record_block_frames(&self, frames: u64, rows: u64) {
        self.blocks.fetch_add(frames, Self::ORDER);
        self.block_rows.fetch_add(rows, Self::ORDER);
    }

    /// Folds in a server's stopped-at trailer.
    pub fn record_stopped(&self, stopped: &StoppedAt) {
        self.server_scanned.fetch_add(stopped.scanned, Self::ORDER);
        self.server_shipped.fetch_add(stopped.shipped, Self::ORDER);
    }

    /// Tuples received over the wire so far.
    pub fn tuples_received(&self) -> u64 {
        self.tuples.load(Self::ORDER)
    }

    /// Tuple-block frames decoded off the wire so far.
    pub fn blocks_received(&self) -> u64 {
        self.blocks.load(Self::ORDER)
    }

    /// Rows that arrived inside decoded block frames (divide by
    /// [`blocks_received`] for the mean block fill).
    ///
    /// [`blocks_received`]: WireScanStats::blocks_received
    pub fn block_rows_received(&self) -> u64 {
        self.block_rows.load(Self::ORDER)
    }

    /// Total rows the servers reported scanning (summed trailers).
    pub fn server_scanned(&self) -> u64 {
        self.server_scanned.load(Self::ORDER)
    }

    /// Total tuples the servers reported shipping (summed trailers).
    pub fn server_shipped(&self) -> u64 {
        self.server_shipped.load(Self::ORDER)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuples(n: u64) -> Vec<SourceTuple> {
        (0..n)
            .map(|i| {
                let t = UncertainTuple::new(i, (n - i) as f64 + 0.125, 0.5).unwrap();
                if i % 3 == 0 {
                    SourceTuple::grouped(t, i / 3)
                } else {
                    SourceTuple::independent(t)
                }
            })
            .collect()
    }

    fn block_of(rows: &[SourceTuple]) -> TupleBlock {
        let mut block = TupleBlock::with_capacity(rows.len());
        for row in rows {
            block.push(row);
        }
        block
    }

    /// A complete shard stream: hello, `rows` as one block, end.
    fn stream_of(
        rows: &[SourceTuple],
        hint: Option<usize>,
        assignment: Option<&ShardAssignment>,
    ) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut writer = WireWriter::new(&mut buf, hint, assignment).unwrap();
        writer.write_block(&block_of(rows)).unwrap();
        writer.finish().unwrap();
        buf
    }

    fn drain(source: &mut dyn TupleSource) -> Result<Vec<SourceTuple>> {
        let mut out = Vec::new();
        while let Some(t) = source.next_tuple()? {
            out.push(t);
        }
        Ok(out)
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let all = tuples(50);
        let buf = stream_of(&all, Some(all.len()), None);
        let mut reader = WireReader::new(buf.as_slice());
        assert_eq!(reader.size_hint(), None, "hint unknown before hello");
        let decoded = drain(&mut reader).unwrap();
        assert_eq!(decoded, all);
        assert_eq!(reader.size_hint(), Some(0));
        assert!(reader.next_tuple().unwrap().is_none());
    }

    #[test]
    fn block_frames_round_trip_bit_identical() {
        let all = tuples(1000);
        let mut buf = Vec::new();
        let mut writer = WireWriter::new(&mut buf, Some(all.len()), None).unwrap();
        writer.write_block(&block_of(&all)).unwrap();
        assert!(writer.bytes_written() > 0);
        writer.finish().unwrap();

        // Tuple-at-a-time consumption of the blocked stream.
        let mut reader = WireReader::new(buf.as_slice());
        assert_eq!(drain(&mut reader).unwrap(), all);

        // Blocked consumption: same tuples, same order, hint maintained.
        let mut reader = WireReader::new(buf.as_slice());
        let mut out = Vec::new();
        while let Some(b) = reader.next_block(97).unwrap() {
            assert!(b.len() <= 97);
            out.extend(b.iter());
        }
        assert_eq!(out, all);
        assert_eq!(reader.size_hint(), Some(0));
    }

    #[test]
    fn oversized_block_splits_into_bounded_frames() {
        // 33-byte grouped rows: more than a 64 KiB frame holds, so the
        // writer must split.
        let rows = MAX_FRAME_BODY / 33 + 10;
        let all: Vec<SourceTuple> = (0..rows as u64)
            .map(|i| SourceTuple::grouped(UncertainTuple::new(i, 1e6 - i as f64, 0.5).unwrap(), i))
            .collect();
        let buf = stream_of(&all, None, None);
        let mut reader = WireReader::new(buf.as_slice());
        assert_eq!(drain(&mut reader).unwrap(), all);
        assert_eq!(reader.block_frames_decoded(), (2, rows as u64));
    }

    #[test]
    fn empty_block_frames_nothing() {
        let mut buf = Vec::new();
        let mut writer = WireWriter::new(&mut buf, None, None).unwrap();
        let before = writer.bytes_written();
        writer.write_block(&TupleBlock::default()).unwrap();
        assert_eq!(writer.bytes_written(), before);
        writer.finish().unwrap();
        assert!(drain(&mut WireReader::new(buf.as_slice()))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn blocked_query_negotiation_round_trips() {
        // The scan announcement opens a shard stream; k = 0 asks for a full
        // replay and skips the pτ range check.
        for query in [
            PushdownQuery { k: 7, p_tau: 0.125 },
            PushdownQuery { k: 0, p_tau: 0.0 },
        ] {
            let mut buf = Vec::new();
            write_scan(&mut buf, &query).unwrap();
            assert_eq!(buf[4..6], [FRAME_SCAN, WIRE_VERSION_V6]);
            assert_eq!(
                read_client_request(&mut buf.as_slice()).unwrap(),
                ClientRequest::Scan(query)
            );
        }
    }

    #[test]
    fn size_hint_counts_down_after_hello() {
        let buf = stream_of(&tuples(4), Some(4), None);
        let mut reader = WireReader::new(buf.as_slice());
        reader.next_tuple().unwrap().unwrap();
        assert_eq!(reader.size_hint(), Some(3));
    }

    #[test]
    fn server_side_error_is_forwarded_as_source_error() {
        let mut buf = Vec::new();
        WireWriter::new(&mut buf, None, None)
            .unwrap()
            .fail("backing store gone")
            .unwrap();
        let err = drain(&mut WireReader::new(buf.as_slice())).unwrap_err();
        assert!(
            matches!(&err, Error::Source(m) if m.contains("backing store gone")),
            "{err}"
        );
    }

    #[test]
    fn truncation_and_corruption_surface_as_errors() {
        let buf = stream_of(&tuples(5), None, None);

        // Cut the stream before the end frame: every prefix fails, none hang
        // and none pretend the stream ended cleanly.
        for cut in [3usize, 11, buf.len() - 2] {
            let err = drain(&mut WireReader::new(&buf[..cut])).unwrap_err();
            assert!(matches!(err, Error::Source(_)), "cut at {cut}");
        }

        // A garbage length prefix is rejected instead of allocated.
        let mut garbage = buf.clone();
        garbage[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            drain(&mut WireReader::new(garbage.as_slice())),
            Err(Error::Source(_))
        ));

        // A stream that does not open with hello is rejected.
        let headless = &buf[15..]; // skip the 4+11 byte hello frame
        assert!(matches!(
            drain(&mut WireReader::new(headless)),
            Err(Error::Source(_))
        ));
    }

    #[test]
    fn future_versions_and_corrupt_v2_hellos_are_rejected() {
        let assignment = ShardAssignment {
            id_base: 0,
            namespace: "ns".into(),
        };
        let buf = stream_of(&[], None, Some(&assignment));
        // Bump the version byte past what this build speaks.
        let mut future = buf.clone();
        future[5] = WIRE_VERSION_V6 + 1;
        let err = drain(&mut WireReader::new(future.as_slice())).unwrap_err();
        assert!(
            matches!(&err, Error::Source(m) if m.contains("peer speaks wire version 7")),
            "{err}"
        );
        // Truncate the namespace out of the hello: corrupt, not a panic.
        let mut short = buf.clone();
        short[0..4].copy_from_slice(&19u32.to_le_bytes());
        short.truncate(4 + 19);
        assert!(drain(&mut WireReader::new(short.as_slice())).is_err());
    }

    #[test]
    fn register_and_lease_frames_round_trip() {
        let mut registry = LeaseRegistry::new("coord-A");
        assert_eq!(registry.next_id_base(), 0);
        let mut buf = Vec::new();
        write_register(&mut buf, 120, "area.shard0.csv").unwrap();
        let ClientRequest::Register { rows, label } =
            read_client_request(&mut buf.as_slice()).unwrap()
        else {
            panic!("expected a register request");
        };
        assert_eq!((rows, label.as_str()), (120, "area.shard0.csv"));
        let lease = registry.register(rows);
        assert_eq!(lease.id_base, 0);
        let mut reply = Vec::new();
        write_lease(&mut reply, &lease).unwrap();
        assert_eq!(read_lease(&mut reply.as_slice()).unwrap(), lease);
        // The next registration starts where the previous shard ended.
        let second = registry.register(30);
        assert_eq!(second.id_base, 120);
        assert_eq!(second.namespace, "coord-A");
        assert_eq!(registry.next_id_base(), 150);
        assert_eq!(registry.lease_count(), 2);
        // An over-long label is rejected at write time (a frame larger than
        // MAX_FRAME_BODY would write fine but fail on every reader).
        let huge = "x".repeat(MAX_FRAME_BODY);
        assert!(write_register(&mut Vec::new(), 1, &huge).is_err());
        assert!(write_lease(
            &mut Vec::new(),
            &ShardAssignment {
                id_base: 0,
                namespace: huge,
            }
        )
        .is_err());
        // Malformed register/lease frames are errors, not panics; the
        // coordinator's refusal surfaces through the lease read.
        assert!(read_client_request(&mut [0u8; 3].as_slice()).is_err());
        assert!(read_lease(&mut buf.as_slice()).is_err(), "kind mismatch");
        let mut refusal = Vec::new();
        write_error(&mut refusal, "no more leases").unwrap();
        let err = read_lease(&mut refusal.as_slice()).unwrap_err();
        assert!(
            matches!(&err, Error::Source(m) if m.contains("no more leases")),
            "{err}"
        );
    }

    #[test]
    fn v2_hello_round_trips_the_assignment() {
        let all = tuples(10);
        let assignment = ShardAssignment {
            id_base: 40,
            namespace: "coord-7".into(),
        };
        let buf = stream_of(&all, Some(all.len()), Some(&assignment));
        assert_eq!(buf[4], FRAME_HELLO);
        assert_eq!(buf[5], WIRE_VERSION_V6, "version byte on the wire");
        let mut reader = WireReader::new(buf.as_slice());
        let hello = reader.hello().unwrap();
        assert_eq!(hello.size_hint, Some(10));
        assert_eq!(hello.assignment.as_ref(), Some(&assignment));
        assert_eq!(reader.size_hint(), Some(10), "hint known right after hello");
        assert_eq!(drain(&mut reader).unwrap(), all);
        // The decoded hello stays available once the stream has ended.
        assert_eq!(
            reader.hello().unwrap().assignment.as_ref(),
            Some(&assignment)
        );
    }

    #[test]
    fn v3_hello_round_trips_with_and_without_an_assignment() {
        let all = tuples(8);
        for assignment in [
            None,
            Some(ShardAssignment {
                id_base: 64,
                namespace: "coord-9".into(),
            }),
        ] {
            let mut buf = Vec::new();
            let mut writer =
                WireWriter::new(&mut buf, Some(all.len()), assignment.as_ref()).unwrap();
            writer.write_block(&block_of(&all)).unwrap();
            writer
                .write_stopped(&StoppedAt {
                    scanned: 12,
                    shipped: 8,
                    gate_limited: true,
                })
                .unwrap();
            writer.finish().unwrap();
            let mut reader = WireReader::new(buf.as_slice());
            let hello = reader.hello().unwrap();
            assert_eq!(hello.size_hint, Some(8));
            assert_eq!(hello.assignment, assignment);
            assert_eq!(reader.stopped_at(), None, "no trailer before the end");
            assert_eq!(drain(&mut reader).unwrap(), all);
            assert_eq!(
                reader.stopped_at(),
                Some(&StoppedAt {
                    scanned: 12,
                    shipped: 8,
                    gate_limited: true,
                })
            );
        }
    }

    #[test]
    fn query_and_bound_frames_round_trip() {
        // A gated announcement with pτ outside (0, 1) is rejected
        // server-side.
        let mut bad = Vec::new();
        write_scan(&mut bad, &PushdownQuery { k: 3, p_tau: 1.5 }).unwrap();
        assert!(read_client_request(&mut bad.as_slice()).is_err());

        // Bound updates decode through the incremental control parser, even
        // when they arrive split across reads or back to back.
        let mut wire = Vec::new();
        write_bound(&mut wire, 2.5).unwrap();
        write_bound(&mut wire, 3.75).unwrap();
        let mut parser = ControlParser::new();
        parser.extend(&wire[..7]); // a partial first frame
        assert_eq!(parser.next_frame().unwrap(), None);
        parser.extend(&wire[7..]);
        assert_eq!(parser.next_frame().unwrap(), Some(ControlFrame::Bound(2.5)));
        assert_eq!(
            parser.next_frame().unwrap(),
            Some(ControlFrame::Bound(3.75))
        );
        assert_eq!(parser.next_frame().unwrap(), None);

        // Garbage in the control stream is an error, not a hang.
        let mut parser = ControlParser::new();
        parser.extend(&9u32.to_le_bytes());
        parser.extend(&[FRAME_TUPLE_BLOCK; 9]);
        assert!(parser.next_frame().is_err());
    }

    #[test]
    fn scan_stats_accumulate_across_connections() {
        let stats = WireScanStats::default();
        stats.record_tuple();
        stats.record_tuple();
        stats.record_block_frames(1, 2);
        stats.record_stopped(&StoppedAt {
            scanned: 10,
            shipped: 2,
            gate_limited: true,
        });
        assert_eq!(stats.tuples_received(), 2);
        assert_eq!(stats.blocks_received(), 1);
        assert_eq!(stats.block_rows_received(), 2);
        assert_eq!(stats.server_scanned(), 10);
        assert_eq!(stats.server_shipped(), 2);
    }

    fn sample_request() -> QueryRequest {
        QueryRequest {
            dataset: "area-60".into(),
            k: 5,
            p_tau: 1e-3,
            typical_count: 3,
            max_lines: 200,
            algorithm: 2,
            coalesce: 1,
            u_topk: true,
        }
    }

    fn sample_result(points: usize) -> QueryResult {
        let witness = |seed: u64| VectorWitness {
            ids: vec![TupleId(seed), TupleId(seed + 1), TupleId(seed + 2)],
            probability: 0.25 + (seed % 7) as f64 / 100.0,
        };
        QueryResult {
            version: WIRE_VERSION_V6,
            cache_hit: true,
            scan_depth: 69,
            distribution_time_ns: 1_234_567,
            typical_time_ns: 89_012,
            expected_distance: 6.5,
            points: (0..points as u64)
                .map(|i| DistributionPoint {
                    score: 100.0 + i as f64 / 8.0,
                    probability: 1.0 / (i + 2) as f64,
                    witness: (i % 3 != 0).then(|| witness(i)),
                })
                .collect(),
            typical: vec![
                WireTypical {
                    score: 118.0,
                    probability: 0.2,
                    vector: Some(TopkVector::new(vec![TupleId(2), TupleId(6)], 118.0, 0.2)),
                },
                WireTypical {
                    score: 183.0,
                    probability: 0.1,
                    vector: None,
                },
            ],
            u_topk: Some(WireUTopk {
                vector: TopkVector::new(vec![TupleId(2), TupleId(6)], 118.0, 0.2),
                expansions: 42,
                deepest_position: 7,
            }),
            epoch: 9,
            cache_generation: 4,
            live: true,
            live_segments: 12,
            compacted_epoch: 31,
        }
    }

    #[test]
    fn query_request_round_trips_and_rejects_bad_shapes() {
        let request = sample_request();
        let mut buf = Vec::new();
        write_query_request(&mut buf, &request).unwrap();
        assert_eq!(
            read_client_request(&mut buf.as_slice()).unwrap(),
            ClientRequest::Query(request)
        );

        // k == 0 and pτ outside (0, 1) are refused server-side.
        for (k, p_tau) in [(0, 1e-3), (5, 0.0), (5, 1.0), (5, -0.5)] {
            let mut bad = Vec::new();
            write_query_request(
                &mut bad,
                &QueryRequest {
                    k,
                    p_tau,
                    ..sample_request()
                },
            )
            .unwrap();
            let err = read_client_request(&mut bad.as_slice()).unwrap_err();
            assert!(
                matches!(&err, Error::Source(m) if m.contains("outside the accepted range")),
                "{err}"
            );
        }

        // A version bump is named in the refusal, and truncation is an error.
        let mut future = buf.clone();
        future[5] = WIRE_VERSION_V6 + 1;
        let err = read_client_request(&mut future.as_slice()).unwrap_err();
        assert!(
            matches!(&err, Error::Source(m) if m.contains("peer speaks wire version 7")),
            "{err}"
        );
        assert!(read_client_request(&mut buf[..buf.len() - 3].as_ref()).is_err());
        // An over-long dataset name fails at write time, like every label.
        assert!(write_query_request(
            &mut Vec::new(),
            &QueryRequest {
                dataset: "x".repeat(MAX_FRAME_BODY),
                ..sample_request()
            }
        )
        .is_err());
    }

    #[test]
    fn query_result_round_trip_is_bit_identical() {
        for (points, u_topk, cache_hit) in [(40, true, true), (0, false, false)] {
            let mut result = sample_result(points);
            if !u_topk {
                result.u_topk = None;
            }
            result.cache_hit = cache_hit;
            let mut buf = Vec::new();
            write_query_result(&mut buf, &result).unwrap();
            let decoded = read_query_result(&mut buf.as_slice()).unwrap();
            assert_eq!(decoded, result);
        }
        // A result at any other version is refused at write time.
        assert!(write_query_result(
            &mut Vec::new(),
            &QueryResult {
                version: WIRE_VERSION_V6 - 1,
                ..sample_result(1)
            }
        )
        .is_err());
    }

    #[test]
    fn v6_result_tail_round_trips_and_pre_v6_layouts_are_byte_identical() {
        // Every result carries the live-scan tail: 17 bytes (flag + segments
        // + last compaction epoch) closing the header, live or not.
        let live = sample_result(3);
        let settled = QueryResult {
            live: false,
            live_segments: 0,
            compacted_epoch: 0,
            ..live.clone()
        };
        let (mut live_buf, mut settled_buf) = (Vec::new(), Vec::new());
        write_query_result(&mut live_buf, &live).unwrap();
        write_query_result(&mut settled_buf, &settled).unwrap();
        let header = |buf: &[u8]| u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
        assert_eq!(header(&live_buf), header(&settled_buf));
        let tail = &live_buf[4 + header(&live_buf) - 17..4 + header(&live_buf)];
        assert_eq!(tail[0], 1);
        assert_eq!(u64::from_le_bytes(tail[1..9].try_into().unwrap()), 12);
        assert_eq!(u64::from_le_bytes(tail[9..17].try_into().unwrap()), 31);
        // The two encodings differ in the tail bytes only.
        assert_eq!(live_buf.len(), settled_buf.len());
        let differing: Vec<usize> = (0..live_buf.len())
            .filter(|&i| live_buf[i] != settled_buf[i])
            .collect();
        assert!(differing
            .iter()
            .all(|&i| (4 + header(&live_buf) - 17..4 + header(&live_buf)).contains(&i)));

        let decoded = read_query_result(&mut live_buf.as_slice()).unwrap();
        assert_eq!(decoded, live);
        assert_eq!(
            (decoded.live, decoded.live_segments, decoded.compacted_epoch),
            (true, 12, 31)
        );
        let decoded = read_query_result(&mut settled_buf.as_slice()).unwrap();
        assert_eq!(decoded, settled);
        assert_eq!(
            (decoded.live, decoded.live_segments, decoded.compacted_epoch),
            (false, 0, 0)
        );

        // Pre-v6 layouts are gone: a result framed under an older version
        // byte is refused, naming both versions.
        let mut old = live_buf.clone();
        old[5] = WIRE_VERSION_V6 - 1;
        let err = read_query_result(&mut old.as_slice()).unwrap_err();
        assert!(
            matches!(&err, Error::Source(m) if m.contains("wire version 5") && m.contains("speaks 6")),
            "{err}"
        );
    }

    #[test]
    fn query_result_chunks_split_and_reassemble_large_distributions() {
        // ~52 bytes per witnessed point: thousands of points span several
        // 64 KiB chunk frames and must reassemble verbatim.
        let result = sample_result(5_000);
        let mut buf = Vec::new();
        write_query_result(&mut buf, &result).unwrap();
        let chunks = buf.iter().filter(|&&b| b == FRAME_RESULT_CHUNK).count();
        assert!(chunks >= 2, "expected several chunk frames");
        assert_eq!(read_query_result(&mut buf.as_slice()).unwrap(), result);
    }

    #[test]
    fn query_result_corruption_and_server_errors_surface() {
        let result = sample_result(10);
        let mut buf = Vec::new();
        write_query_result(&mut buf, &result).unwrap();

        // Any truncation point fails instead of hanging or fabricating data.
        for cut in [2usize, 20, buf.len() - 2] {
            assert!(read_query_result(&mut buf[..cut].as_ref()).is_err());
        }

        // An error frame in place of the header decodes as Error::Source.
        let mut refusal = Vec::new();
        write_error(&mut refusal, "no such dataset `missing`").unwrap();
        let err = read_query_result(&mut refusal.as_slice()).unwrap_err();
        assert!(
            matches!(&err, Error::Source(m) if m.contains("no such dataset")),
            "{err}"
        );

        // A shipped-vs-announced point count mismatch is rejected: drop the
        // final chunk + end frame and splice in a bare end frame.
        let header_len = 4 + u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
        let mut short = buf[..header_len].to_vec();
        short.extend_from_slice(&1u32.to_le_bytes());
        short.push(FRAME_END);
        let err = read_query_result(&mut short.as_slice()).unwrap_err();
        assert!(
            matches!(&err, Error::Source(m) if m.contains("announced")),
            "{err}"
        );
    }

    #[test]
    fn admin_requests_round_trip_through_client_dispatch() {
        let requests = [
            AdminRequest {
                verb: AdminVerb::Stats,
                name: String::new(),
                arg: String::new(),
            },
            AdminRequest {
                verb: AdminVerb::Register,
                name: "sensors".into(),
                arg: "/data/sensors.csv".into(),
            },
            AdminRequest {
                verb: AdminVerb::Unregister,
                name: "sensors".into(),
                arg: String::new(),
            },
            AdminRequest {
                verb: AdminVerb::Reload,
                name: "soldiers".into(),
                arg: String::new(),
            },
            AdminRequest {
                verb: AdminVerb::Compact,
                name: "feed".into(),
                arg: String::new(),
            },
        ];
        for request in requests {
            let mut buf = Vec::new();
            write_admin_request(&mut buf, &request).unwrap();
            match read_client_request(&mut buf.as_slice()).unwrap() {
                ClientRequest::Admin(decoded) => assert_eq!(decoded, request),
                other => panic!("expected an admin request, got {other:?}"),
            }
        }

        // An unknown verb byte and truncation anywhere are refusals.
        let mut buf = Vec::new();
        write_admin_request(
            &mut buf,
            &AdminRequest {
                verb: AdminVerb::Compact,
                name: "feed".into(),
                arg: String::new(),
            },
        )
        .unwrap();
        let mut bad = buf.clone();
        bad[4 + 2] = 9;
        let err = read_client_request(&mut bad.as_slice()).unwrap_err();
        assert!(
            matches!(&err, Error::Source(m) if m.contains("unknown admin verb")),
            "{err}"
        );
        for cut in [2usize, 6, buf.len() - 2] {
            assert!(read_client_request(&mut buf[..cut].as_ref()).is_err());
        }
    }

    #[test]
    fn admin_responses_round_trip_and_refusals_surface() {
        let mut buf = Vec::new();
        write_admin_response(&mut buf, "registered `sensors` (1,024 rows)").unwrap();
        assert_eq!(
            read_admin_response(&mut buf.as_slice()).unwrap(),
            "registered `sensors` (1,024 rows)"
        );

        // A server error frame decodes with the semantic (never-retried)
        // prefix, a busy frame with the retryable message.
        let mut refusal = Vec::new();
        write_error(&mut refusal, "dataset `sensors` is already registered").unwrap();
        let err = read_admin_response(&mut refusal.as_slice()).unwrap_err();
        assert!(
            matches!(&err, Error::Source(m) if m.starts_with("remote admin failed: ")
                && m.contains("already registered")),
            "{err}"
        );
        let mut busy = Vec::new();
        write_busy(&mut busy, 250).unwrap();
        let err = read_admin_response(&mut busy.as_slice()).unwrap_err();
        assert!(
            matches!(&err, Error::Source(m) if m.contains("retry after 250ms")),
            "{err}"
        );
    }

    #[test]
    fn append_request_round_trips_through_client_dispatch() {
        for (n, seal) in [(0u64, true), (5, false), (9_000, true)] {
            let request = AppendRequest {
                dataset: "feed".into(),
                seal,
                rows: tuples(n),
            };
            let mut buf = Vec::new();
            write_append_request(&mut buf, &request).unwrap();
            match read_client_request(&mut buf.as_slice()).unwrap() {
                ClientRequest::Append(decoded) => assert_eq!(decoded, request),
                other => panic!("expected an append request, got {other:?}"),
            }
        }

        // An invalid probability is refused at decode time, like every
        // import path.
        let row = SourceTuple::independent(UncertainTuple::new(1u64, 10.0, 0.5).unwrap());
        let mut buf = Vec::new();
        write_append_request(
            &mut buf,
            &AppendRequest {
                dataset: "feed".into(),
                seal: false,
                rows: vec![row],
            },
        )
        .unwrap();
        // Zero the probability bits inside the row chunk: the row starts at
        // chunk body offset 3, its prob field 16 bytes in.
        let header_len = 4 + u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
        let prob_at = header_len + 4 + CHUNK_HEADER + 16;
        buf[prob_at..prob_at + 8].copy_from_slice(&0u64.to_le_bytes());
        assert!(read_client_request(&mut buf.as_slice()).is_err());

        // A shipped-vs-announced row count mismatch is rejected.
        let request = AppendRequest {
            dataset: "feed".into(),
            seal: false,
            rows: tuples(4),
        };
        let mut buf = Vec::new();
        write_append_request(&mut buf, &request).unwrap();
        buf[4 + 3] = 9; // bump the announced count
        let err = read_client_request(&mut buf.as_slice()).unwrap_err();
        assert!(
            matches!(&err, Error::Source(m) if m.contains("announced")),
            "{err}"
        );

        // Truncation anywhere is an error, not a hang or a partial append.
        let mut buf = Vec::new();
        write_append_request(
            &mut buf,
            &AppendRequest {
                dataset: "feed".into(),
                seal: true,
                rows: tuples(8),
            },
        )
        .unwrap();
        for cut in [2usize, 25, buf.len() - 2] {
            assert!(read_client_request(&mut buf[..cut].as_ref()).is_err());
        }
    }

    #[test]
    fn append_ack_round_trips_and_server_refusals_surface() {
        let ack = AppendAck {
            epoch: 12,
            staged: 7,
            sealed_rows: 4_096,
            sealed_now: true,
        };
        let mut buf = Vec::new();
        write_append_ack(&mut buf, &ack).unwrap();
        assert_eq!(read_append_ack(&mut buf.as_slice()).unwrap(), ack);

        // A server error frame decodes with the semantic (never-retried)
        // prefix; a busy frame decodes as the retryable busy error.
        let mut refusal = Vec::new();
        write_error(&mut refusal, "dataset `feed` is not live").unwrap();
        let err = read_append_ack(&mut refusal.as_slice()).unwrap_err();
        assert!(
            matches!(&err, Error::Source(m) if m.starts_with("remote append failed")),
            "{err}"
        );
        let mut busy = Vec::new();
        write_busy(&mut busy, 250).unwrap();
        let err = read_append_ack(&mut busy.as_slice()).unwrap_err();
        assert!(
            matches!(&err, Error::Source(m) if m.contains("retry after 250ms")
                && !m.contains("failed")),
            "{err}"
        );
    }

    #[test]
    fn subscribe_round_trips_and_requires_v5() {
        let request = SubscribeRequest {
            query: sample_request(),
            max_pushes: 3,
        };
        let mut buf = Vec::new();
        write_subscribe(&mut buf, &request).unwrap();
        match read_client_request(&mut buf.as_slice()).unwrap() {
            ClientRequest::Subscribe(decoded) => assert_eq!(decoded, request),
            other => panic!("expected a subscribe request, got {other:?}"),
        }

        // A subscription at a foreign version is refused at decode time.
        let mut doctored = buf.clone();
        doctored[5] = WIRE_VERSION_V6 - 1;
        let err = read_client_request(&mut doctored.as_slice()).unwrap_err();
        assert!(
            matches!(&err, Error::Source(m) if m.contains("peer speaks wire version 5")),
            "{err}"
        );
    }

    #[test]
    fn notifications_and_busy_frames_decode_on_the_push_stream() {
        let mut buf = Vec::new();
        write_notification(
            &mut buf,
            &Notification {
                epoch: 3,
                answer_hash: 0xDEAD_BEEF,
            },
        )
        .unwrap();
        write_push_end(&mut buf).unwrap();
        let mut reader = buf.as_slice();
        assert_eq!(
            read_push(&mut reader).unwrap(),
            Some(Notification {
                epoch: 3,
                answer_hash: 0xDEAD_BEEF,
            })
        );
        assert_eq!(read_push(&mut reader).unwrap(), None, "clean close");

        // A busy refusal on the query path is retryable: no semantic prefix.
        let mut busy = Vec::new();
        write_busy(&mut busy, 100).unwrap();
        let err = read_query_result(&mut busy.as_slice()).unwrap_err();
        assert!(
            matches!(&err, Error::Source(m) if m.contains("server busy")
                && !m.starts_with("remote query failed")),
            "{err}"
        );
        let err = read_push(&mut busy.as_slice()).unwrap_err();
        assert!(
            matches!(&err, Error::Source(m) if m.contains("server busy")),
            "{err}"
        );

        // Dispatch refuses non-request frames by kind, naming the surprise.
        let hello = stream_of(&[], None, None);
        let err = read_client_request(&mut hello.as_slice()).unwrap_err();
        assert!(
            matches!(&err, Error::Source(m) if m.contains("unexpected wire frame kind")),
            "{err}"
        );
    }
}
