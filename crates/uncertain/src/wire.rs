//! The wire layer: a framed binary codec for [`SourceTuple`] streams.
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
//! | `1` | tuple | id `u64`, score bits `u64`, prob bits `u64`, group flag `u8` (+ key `u64` when shared) |
//! | `2` | producer error | UTF-8 message |
//! | `3` | hello (first frame) | version `u8`, size hint `u64` (`u64::MAX` = unknown); v2 appends id base `u64`, namespace length `u16`, namespace bytes; v3 appends an assignment-present flag `u8` and, when set, the v2 assignment fields |
//! | `5` | coordinator register | version `u8`, row count `u64`, label length `u16`, label bytes |
//! | `6` | coordinator lease | version `u8`, id base `u64`, namespace length `u16`, namespace bytes |
//! | `7` | query announcement (client→server, v3) | k `u64` (`0` = stream everything), pτ bits `u64` |
//! | `8` | bound update (client→server, v3) | accumulated merge-side mass bits `u64` |
//! | `9` | stopped-at trailer (server→client, v3, precedes `end`) | rows scanned `u64`, tuples shipped `u64`, gate-limited flag `u8` |
//! | `10` | query request (client→server, v4/v5) | version `u8`, k `u64`, pτ bits `u64`, typical count `u64`, max lines `u64`, algorithm `u8`, coalesce `u8`, flags `u8`, dataset length `u16`, dataset bytes |
//! | `11` | query result header (server→client, v4/v5) | version `u8`, flags `u8`, scan depth `u64`, phase times `u64`×2, point count `u64`, expected distance bits `u64`, typical answers, optional U-Top-k; v5 appends dataset epoch `u64` and cache generation `u64` |
//! | `12` | result chunk (server→client, v4/v5, precedes `end`) | point count `u16`, encoded distribution points |
//! | `13` | append request header (client→server, v5) | version `u8`, flags `u8` (bit 0 = seal), row count `u64`, dataset length `u16`, dataset bytes |
//! | `14` | append row chunk (client→server, v5, precedes `end`) | row count `u16`, encoded rows (tuple layout sans kind byte) |
//! | `15` | append acknowledgement (server→client, v5) | version `u8`, flags `u8` (bit 0 = sealed now), epoch `u64`, staged rows `u64`, sealed rows `u64` |
//! | `16` | subscribe request (client→server, v5) | the v5 query request fields, then max pushes `u64`, dataset length `u16`, dataset bytes |
//! | `17` | notification (server→client, v5, precedes a result stream) | version `u8`, epoch `u64`, answer hash `u64` |
//! | `18` | busy / retry-after (server→client, v5) | version `u8`, retry-after millis `u64` |
//! | `19` | block-capable query announcement (client→server) | the kind-7 fields, then max tuples per block frame `u16` |
//! | `20` | tuple block (server→client, negotiated via kind 19) | tuple count `u16`, encoded rows (tuple layout sans kind byte) |
//!
//! All integers are little-endian. A [`WireWriter`] emits the hello frame at
//! construction and exactly one terminal frame (`end` or `error`); a
//! [`WireReader`] implements [`TupleSource`], decoding tuples until the
//! terminal frame and surfacing *every* abnormality — I/O failure, corrupt
//! frame, connection lost before the end frame, server-side error — as
//! [`Error::Source`], never as a silently truncated stream.
//!
//! # Protocol versions
//!
//! **v1** is the original one-way stream: the server speaks first and the
//! hello frame carries only the version byte and a size hint. **v2** adds
//! coordination: the hello may also carry a [`ShardAssignment`] — the tuple-id
//! base and group-key namespace label the serving process imported its shard
//! under — so the consumer can check that independently-served shards really
//! partition one relation instead of trusting operator-passed `--id-base`
//! flags.
//!
//! Through v2 the stream is strictly one-way (the server speaks, the client
//! only reads), so the hello version is chosen by the **server's
//! configuration**: [`WireWriter::new`] emits the v1 layout every reader
//! since protocol v1 decodes, and a server emits the extended v2 layout
//! ([`WireWriter::with_assignment`]) only when it actually holds an
//! assignment to advertise (a coordinator lease or an operator-pinned
//! namespace). A v2 reader accepts both layouts; a v1 client keeps decoding
//! any server that has no assignment to announce.
//!
//! **v3** adds *scan-gate pushdown*: a client that wants the server to stop
//! at a conservative per-shard Theorem-2 bound speaks **first**, sending a
//! query frame ([`write_query`]) right after connecting. A v3 server waits a
//! short grace window for that frame; when it arrives the server answers
//! with a v3 hello, streams only the gated prefix, reads periodic
//! bound-update frames ([`write_bound`]) off the same socket to tighten its
//! gate with the merge-side accumulated mass, and closes the stream with a
//! stopped-at trailer ([`StoppedAt`]) before the end frame. When no query
//! frame arrives inside the grace window the server serves the full v1/v2
//! replay exactly as before — so old clients keep working against v3
//! servers, and a v3 client whose query frame lands on an old server simply
//! gets the v1/v2 hello back and silently disables pushdown. (The old
//! server never drains the query frame, which turns its close into a
//! connection reset — harmless, because the kernel delivers the queued
//! in-order stream before surfacing the reset and the reader stops at the
//! end frame.)
//!
//! **v4** adds *query serving*: instead of replaying a shard, a server holds
//! whole datasets resident and answers `(dataset, algorithm, k, pτ)` queries.
//! The client again speaks first ([`write_query_request`]); the server
//! answers with a result header frame, streams the score distribution in
//! size-bounded chunks, and terminates with the usual end frame
//! ([`write_query_result`] / [`read_query_result`]). The exchange replaces
//! the hello entirely — there is no v4 hello layout — and every score and
//! probability still travels as raw IEEE-754 bits, so a decoded answer is
//! bit-identical to the one the server computed. A query-serving daemon that
//! receives anything other than a request frame answers with an error frame
//! and closes, so pre-v4 peers fail cleanly instead of hanging; a v4 client
//! pointed at a shard-replay server gets a clean decode error off the
//! server's hello in the same way.
//!
//! **v5** adds *live datasets*: a query-serving daemon may hold append-only
//! datasets that grow under epoch-numbered snapshots, so the client-speaks-
//! first exchange gains two new request kinds next to the query request. An
//! **append** ([`write_append_request`]) ships scored rows in size-bounded
//! chunks (the tuple-frame encoding, minus the kind byte) with an optional
//! seal trigger, and is answered by a single acknowledgement frame carrying
//! the dataset's post-append epoch ([`AppendAck`]). A **subscription**
//! ([`write_subscribe`]) registers a standing query: the server pushes a
//! notification frame ([`Notification`]) followed by a complete v5 result
//! stream each time the answer distribution actually shifts, and closes the
//! subscription with a bare end frame. Query requests and result headers are
//! version-stamped: a v5 result appends the dataset epoch and the server's
//! cache generation, while a v4 client keeps receiving the byte-identical v4
//! layout — the server echoes the version the client spoke. Finally, the
//! **busy** frame ([`write_busy`]) is a cheap admission-control refusal: a
//! daemon whose worker handoff would block answers it in place of any reply
//! and closes, and clients decode it as a retryable (never semantic) error.
//!
//! **Columnar block framing** rides on the same client-speaks-first
//! negotiation as v3–v5: a client that can consume [`TupleBlock`]s announces
//! its query with the kind-19 frame ([`write_query_blocks`]) — the kind-7
//! fields plus the largest per-frame tuple count it wants — and a
//! block-aware server then ships the gated prefix as size-bounded kind-20
//! tuple-block frames instead of one frame per tuple. The rows inside a
//! block frame use the tuple-frame layout minus the kind byte (identical to
//! the append-chunk row encoding), so a decoded block is bit-identical to
//! the per-tuple stream. Compatibility needs no capability exchange: an old
//! v3–v5 server *strictly* rejects the unknown 19-byte query frame, the
//! client sees the failed hello and redials speaking the plain kind-7 query,
//! and everything downstream proceeds byte-identically to today. A new
//! server answering a kind-7 client never emits a block frame.
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

/// The v2 protocol version byte: the hello layout carrying a
/// [`ShardAssignment`], and the version the coordinator frames speak.
pub const WIRE_VERSION: u8 = 2;

/// The v3 protocol version byte: the query-mode (scan-gate pushdown) hello.
pub const WIRE_VERSION_V3: u8 = 3;

/// The v4 protocol version byte: the query-serving request/result exchange.
/// v4 defines no hello layout — the request and result frames carry their own
/// version byte and replace the hello entirely, so hello decoding still
/// rejects version bytes past v3.
pub const WIRE_VERSION_V4: u8 = 4;

/// The v5 protocol version byte: live datasets — append/seal requests,
/// standing-query subscriptions, epoch-stamped result headers, and the
/// busy/retry-after admission frame. Like v4 it defines no hello layout.
pub const WIRE_VERSION_V5: u8 = 5;

/// The v6 protocol version byte: the serving-lifecycle admin plane
/// (stats/register/unregister/reload/compact against a resident-dataset
/// daemon) and the live-scan result tail (segment count + last compaction
/// epoch after the v5 epoch/generation fields). Like v4/v5 it defines no
/// hello layout, and it stays client-speaks-first: v5-and-older peers never
/// see a v6 byte unless they asked for one.
pub const WIRE_VERSION_V6: u8 = 6;

/// The original protocol version: a 10-byte hello, no assignment metadata.
const WIRE_VERSION_V1: u8 = 1;

/// Frame kinds (first byte of every frame body).
const FRAME_END: u8 = 0;
const FRAME_TUPLE: u8 = 1;
const FRAME_ERROR: u8 = 2;
const FRAME_HELLO: u8 = 3;
// Frame kind 4 is reserved (an abandoned client-hello design; never shipped).
const FRAME_REGISTER: u8 = 5;
const FRAME_LEASE: u8 = 6;
const FRAME_QUERY: u8 = 7;
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
const FRAME_QUERY_BLOCKS: u8 = 19;
const FRAME_TUPLE_BLOCK: u8 = 20;
const FRAME_ADMIN: u8 = 21;
const FRAME_ADMIN_RESPONSE: u8 = 22;

/// Largest frame body a reader will accept (an error message, at most; tuple
/// frames are 34 bytes and block frames pack rows up to this bound). Guards
/// against garbage length prefixes allocating gigabytes.
const MAX_FRAME_BODY: usize = 64 * 1024;

/// Most rows one tuple-block frame can carry: the frame body bound divided
/// by the worst-case 33-byte row encoding (plus the 3-byte chunk header).
const MAX_BLOCK_ROWS: usize = (MAX_FRAME_BODY - CHUNK_HEADER) / 33;

fn io_err(context: &str, e: std::io::Error) -> Error {
    Error::Source(format!("wire {context}: {e}"))
}

/// The coordination metadata a v2 hello (or a coordinator lease) carries:
/// where the served shard's rows live in the relation's shared tuple-id
/// space, and which group-key namespace the shard was imported under.
///
/// Two shards whose servers report the **same namespace** were scored with
/// the same group-key discipline (hashed labels under one coordinator), so a
/// consumer may merge them as one relation; shards reporting **different**
/// namespaces were never meant to be merged and the consumer should refuse.
/// An empty namespace means the server asserted nothing (an operator-managed
/// `--id-base` setup), which consumers accept for backwards compatibility.
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
    /// Protocol version the server spoke (1, 2 or 3).
    pub version: u8,
    /// Tuple-count hint, when the server knew it.
    pub size_hint: Option<usize>,
    /// The shard's id-base/namespace assignment (v2/v3 hellos only).
    pub assignment: Option<ShardAssignment>,
}

/// Reads one length-prefixed frame body from `reader`.
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

/// Decodes the `u16`-length-prefixed label starting at `body[at..]`,
/// requiring it to end exactly at the frame boundary.
fn pop_label(body: &[u8], at: usize, what: &str) -> Result<String> {
    let corrupt = || Error::Source(format!("corrupt wire {what} frame"));
    if body.len() < at + 2 {
        return Err(corrupt());
    }
    let len = u16::from_le_bytes(body[at..at + 2].try_into().expect("2 bytes")) as usize;
    if body.len() != at + 2 + len {
        return Err(corrupt());
    }
    String::from_utf8(body[at + 2..].to_vec()).map_err(|_| corrupt())
}

/// Registers a shard server with a coordinator: frames the shard's row count
/// and a display label, then flushes. The coordinator answers with a lease
/// frame ([`read_lease`]).
///
/// # Errors
///
/// [`Error::Source`] on I/O failure or an over-long label.
pub fn write_register(writer: &mut impl Write, rows: u64, label: &str) -> Result<()> {
    let mut body = Vec::with_capacity(12 + label.len());
    body.push(FRAME_REGISTER);
    body.push(WIRE_VERSION);
    body.extend_from_slice(&rows.to_le_bytes());
    push_label(&mut body, label)?;
    write_frame_to(writer, &body)?;
    writer.flush().map_err(|e| io_err("flush", e))
}

/// Coordinator-side decode of a [`write_register`] frame; returns the
/// registering shard's `(row count, label)`.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure or a malformed frame.
pub fn read_register(reader: &mut impl Read) -> Result<(u64, String)> {
    let body = read_frame_from(reader)?;
    let corrupt = || Error::Source("corrupt wire register frame".into());
    if body.first() != Some(&FRAME_REGISTER) || body.len() < 12 {
        return Err(corrupt());
    }
    if body[1] < 2 {
        return Err(Error::Source(format!(
            "register frame speaks protocol version {} (coordination needs v2)",
            body[1]
        )));
    }
    let rows = u64::from_le_bytes(body[2..10].try_into().expect("8 bytes"));
    Ok((rows, pop_label(&body, 10, "register")?))
}

/// Coordinator-side reply to a registration: frames the allotted lease and
/// flushes.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure or an over-long namespace.
pub fn write_lease(writer: &mut impl Write, lease: &ShardAssignment) -> Result<()> {
    let mut body = Vec::with_capacity(12 + lease.namespace.len());
    body.push(FRAME_LEASE);
    body.push(WIRE_VERSION);
    body.extend_from_slice(&lease.id_base.to_le_bytes());
    push_label(&mut body, &lease.namespace)?;
    write_frame_to(writer, &body)?;
    writer.flush().map_err(|e| io_err("flush", e))
}

/// Shard-server-side decode of the coordinator's [`write_lease`] reply.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure or a malformed frame.
pub fn read_lease(reader: &mut impl Read) -> Result<ShardAssignment> {
    let body = read_frame_from(reader)?;
    let corrupt = || Error::Source("corrupt wire lease frame".into());
    if body.first() != Some(&FRAME_LEASE) || body.len() < 12 {
        return Err(corrupt());
    }
    let id_base = u64::from_le_bytes(body[2..10].try_into().expect("8 bytes"));
    Ok(ShardAssignment {
        id_base,
        namespace: pop_label(&body, 10, "lease")?,
    })
}

/// The query announcement a v3 pushdown client sends before reading the
/// hello: the top-k parameters the server needs to evaluate the per-shard
/// Theorem-2 stopping bound during replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PushdownQuery {
    /// Number of answers requested; `0` asks the server to stream everything
    /// (a full-replay query that still wants the v3 trailer accounting).
    pub k: u64,
    /// The paper's pτ stopping parameter (ignored when `k == 0`).
    pub p_tau: f64,
}

/// Frames a v3 query announcement and flushes. The pushdown client sends
/// this immediately after connecting, **before** reading the hello.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure.
pub fn write_query(writer: &mut impl Write, query: &PushdownQuery) -> Result<()> {
    let mut body = Vec::with_capacity(17);
    body.push(FRAME_QUERY);
    body.extend_from_slice(&query.k.to_le_bytes());
    body.extend_from_slice(&query.p_tau.to_bits().to_le_bytes());
    write_frame_to(writer, &body)?;
    writer.flush().map_err(|e| io_err("flush", e))
}

/// Server-side decode of a [`write_query`] frame.
///
/// This is the strict pre-block decoder: it accepts only the 17-byte v3
/// layout, which is exactly why a block-capable client that guessed wrong
/// about its peer gets an immediate error (and redials speaking plain v3)
/// instead of a silent misinterpretation. New servers use
/// [`read_query_negotiated`].
///
/// # Errors
///
/// [`Error::Source`] on I/O failure, a malformed frame, or (for `k > 0`) a
/// pτ outside `(0, 1)`.
pub fn read_query(reader: &mut impl Read) -> Result<PushdownQuery> {
    let body = read_frame_from(reader)?;
    if body.first() != Some(&FRAME_QUERY) || body.len() != 17 {
        return Err(Error::Source("corrupt wire query frame".into()));
    }
    decode_query_fields(&body)
}

/// Decodes the shared `(k, p_tau)` fields at `body[1..17]`.
fn decode_query_fields(body: &[u8]) -> Result<PushdownQuery> {
    let k = u64::from_le_bytes(body[1..9].try_into().expect("8 bytes"));
    let p_tau = f64::from_bits(u64::from_le_bytes(body[9..17].try_into().expect("8 bytes")));
    if k > 0 && !(p_tau > 0.0 && p_tau < 1.0) {
        return Err(Error::Source(format!(
            "wire query frame carries p_tau {p_tau} outside (0, 1)"
        )));
    }
    Ok(PushdownQuery { k, p_tau })
}

/// Frames a block-capable query announcement and flushes: the v3 query
/// fields plus the largest tuple-block (in rows) the client wants per frame.
///
/// Negotiation is client-speaks-first, like every extension since v3: a
/// block-capable server answers with its hello and ships
/// [`WireWriter::write_block`] frames; a **pre-block v3–v5 server** rejects
/// the unknown first frame (its [`read_query`] is strict), which the client
/// observes as a failed hello and handles by redialing with the plain
/// [`write_query`] announcement — old servers never see block frames, old
/// byte layouts are untouched.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure.
pub fn write_query_blocks(
    writer: &mut impl Write,
    query: &PushdownQuery,
    max_block: u16,
) -> Result<()> {
    let mut body = Vec::with_capacity(19);
    body.push(FRAME_QUERY_BLOCKS);
    body.extend_from_slice(&query.k.to_le_bytes());
    body.extend_from_slice(&query.p_tau.to_bits().to_le_bytes());
    body.extend_from_slice(&max_block.to_le_bytes());
    write_frame_to(writer, &body)?;
    writer.flush().map_err(|e| io_err("flush", e))
}

/// Server-side decode of a query announcement in either layout: the plain
/// v3 [`write_query`] frame (returns `None` for the block size — ship
/// per-tuple frames) or the block-capable [`write_query_blocks`] frame
/// (returns the client's requested rows-per-block, clamped to ≥ 1).
///
/// # Errors
///
/// [`Error::Source`] on I/O failure, a malformed frame, or (for `k > 0`) a
/// pτ outside `(0, 1)`.
pub fn read_query_negotiated(reader: &mut impl Read) -> Result<(PushdownQuery, Option<u16>)> {
    let body = read_frame_from(reader)?;
    match body.first() {
        Some(&FRAME_QUERY) if body.len() == 17 => Ok((decode_query_fields(&body)?, None)),
        Some(&FRAME_QUERY_BLOCKS) if body.len() == 19 => {
            let query = decode_query_fields(&body)?;
            let max_block = u16::from_le_bytes(body[17..19].try_into().expect("2 bytes")).max(1);
            Ok((query, Some(max_block)))
        }
        _ => Err(Error::Source("corrupt wire query frame".into())),
    }
}

/// Frames a v3 bound update — the merge-side gate's accumulated probability
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
    write_frame_to(writer, &body)?;
    writer.flush().map_err(|e| io_err("flush", e))
}

/// The v3 stopped-at trailer: how the server's replay ended, sent just
/// before the end frame so the client can account shipped-vs-scanned tuples.
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

/// A control frame a v3 server reads off the client half of the socket
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

/// A v4 query request: the full query shape a client asks a query-serving
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
    /// Protocol version the request speaks ([`WIRE_VERSION_V4`] through
    /// [`WIRE_VERSION_V6`]). The server echoes it in the result header, so a
    /// v4 client keeps receiving the byte-identical v4 result layout.
    pub version: u8,
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

/// Appends the version-through-flags query-shape fields shared by the query
/// request and subscribe frames.
fn push_query_shape(body: &mut Vec<u8>, request: &QueryRequest) -> Result<()> {
    if !(WIRE_VERSION_V4..=WIRE_VERSION_V6).contains(&request.version) {
        return Err(Error::Source(format!(
            "query request version {} is not a version this build speaks (v4-v6)",
            request.version
        )));
    }
    body.push(request.version);
    body.extend_from_slice(&request.k.to_le_bytes());
    body.extend_from_slice(&request.p_tau.to_bits().to_le_bytes());
    body.extend_from_slice(&request.typical_count.to_le_bytes());
    body.extend_from_slice(&request.max_lines.to_le_bytes());
    body.push(request.algorithm);
    body.push(request.coalesce);
    body.push(u8::from(request.u_topk));
    Ok(())
}

/// Frames a query request and flushes. The client sends this immediately
/// after connecting — the query-serving exchange has no hello. The frame
/// carries [`QueryRequest::version`]: v4 requests encode byte-identically to
/// the v4 release, v5 requests tell the server to stamp epoch metadata into
/// the result header.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure, an over-long dataset name, or a version
/// this build does not speak.
pub fn write_query_request(writer: &mut impl Write, request: &QueryRequest) -> Result<()> {
    let mut body = Vec::with_capacity(39 + request.dataset.len());
    body.push(FRAME_QUERY_REQUEST);
    push_query_shape(&mut body, request)?;
    push_label(&mut body, &request.dataset)?;
    write_frame_to(writer, &body)?;
    writer.flush().map_err(|e| io_err("flush", e))
}

/// Decodes the version-through-flags query shape starting at `body[1]`,
/// shared by the query request and subscribe frames. Returns the fields and
/// the offset past them; the caller decodes what follows (max-pushes for a
/// subscription) and the trailing dataset label.
fn pop_query_shape(
    body: &[u8],
    what: &'static str,
    min_version: u8,
) -> Result<(QueryRequest, usize)> {
    if body.len() < 39 {
        return Err(Error::Source(format!("corrupt wire {what} frame")));
    }
    let version = body[1];
    if !(WIRE_VERSION_V4..=WIRE_VERSION_V6).contains(&version) {
        return Err(Error::Source(format!(
            "{what} speaks protocol version {version} (query serving needs v4)"
        )));
    }
    if version < min_version {
        return Err(Error::Source(format!(
            "{what} needs protocol version {min_version} or later (got v{version})"
        )));
    }
    let k = u64::from_le_bytes(body[2..10].try_into().expect("8 bytes"));
    let p_tau = f64::from_bits(u64::from_le_bytes(
        body[10..18].try_into().expect("8 bytes"),
    ));
    let typical_count = u64::from_le_bytes(body[18..26].try_into().expect("8 bytes"));
    let max_lines = u64::from_le_bytes(body[26..34].try_into().expect("8 bytes"));
    let algorithm = body[34];
    let coalesce = body[35];
    let flags = body[36];
    if flags > 1 {
        return Err(Error::Source(format!("corrupt wire {what} frame")));
    }
    if k == 0 || !(p_tau > 0.0 && p_tau < 1.0) {
        return Err(Error::Source(format!(
            "{what} carries k {k} / p_tau {p_tau} outside the accepted range"
        )));
    }
    Ok((
        QueryRequest {
            version,
            dataset: String::new(),
            k,
            p_tau,
            typical_count,
            max_lines,
            algorithm,
            coalesce,
            u_topk: flags == 1,
        },
        37,
    ))
}

/// Decodes a [`write_query_request`] frame body (kind byte already matched).
fn decode_query_request(body: &[u8]) -> Result<QueryRequest> {
    let (mut request, at) = pop_query_shape(body, "query request", WIRE_VERSION_V4)?;
    request.dataset = pop_label(body, at, "query request")?;
    Ok(request)
}

/// Server-side decode of a [`write_query_request`] frame.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure, a malformed frame, a version other than
/// v4/v5, `k == 0`, or a pτ outside `(0, 1)`.
pub fn read_query_request(reader: &mut impl Read) -> Result<QueryRequest> {
    let body = read_frame_from(reader)?;
    if body.first() != Some(&FRAME_QUERY_REQUEST) {
        return Err(Error::Source("corrupt wire query request frame".into()));
    }
    decode_query_request(&body)
}

/// One typical answer as it travels in a v4 result header: the score line it
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

/// The U-Top-k baseline answer as it travels in a v4 result header.
#[derive(Debug, Clone, PartialEq)]
pub struct WireUTopk {
    /// The most probable top-k vector.
    pub vector: TopkVector,
    /// State expansions the baseline spent finding it.
    pub expansions: u64,
    /// Deepest scan position the baseline touched (1-based).
    pub deepest_position: u64,
}

/// A query result: everything the server's answer carried. Scores and
/// probabilities are raw IEEE-754 bits on the wire, so a decoded result is
/// bit-identical to the server-side computation.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Protocol version of the result layout ([`WIRE_VERSION_V4`] through
    /// [`WIRE_VERSION_V6`]). Servers echo the version the request spoke; a
    /// v4 result encodes byte-identically to the v4 release and carries
    /// `epoch`/`cache_generation` as zero, and pre-v6 results carry the
    /// live-scan tail (`live`/`live_segments`/`compacted_epoch`) as zero.
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
    /// Epoch of the dataset snapshot the answer was computed against
    /// (v5 results; `0` for v4 results and static datasets).
    pub epoch: u64,
    /// The server's result-cache generation — bumped on every append/seal
    /// that advanced any live dataset's epoch (v5 results; `0` on v4).
    pub cache_generation: u64,
    /// Whether the answered dataset is live — i.e. whether the segment/
    /// compaction tail below is meaningful (v6 results; `false` on pre-v6).
    pub live: bool,
    /// Sealed segments under the live snapshot the answer was computed
    /// against (v6 results for live datasets; `0` otherwise).
    pub live_segments: u64,
    /// Epoch of the live log's most recent compaction, `0` when it was
    /// never compacted (v6 results for live datasets; `0` otherwise).
    pub compacted_epoch: u64,
}

/// Incremental decoder over one frame body: every short read or trailing
/// garbage is the same corrupt-frame error the label decoder reports.
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

    /// Requires the cursor to have consumed the body exactly.
    fn finish(self) -> Result<()> {
        if self.at == self.body.len() {
            Ok(())
        } else {
            Err(self.corrupt())
        }
    }
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
    let mut ids = Vec::with_capacity(count);
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

/// Bytes of a result-chunk frame spent on kind + point count.
const CHUNK_HEADER: usize = 3;

fn new_chunk() -> Vec<u8> {
    vec![FRAME_RESULT_CHUNK, 0, 0]
}

fn flush_chunk(writer: &mut impl Write, chunk: &mut Vec<u8>, count: &mut u16) -> Result<()> {
    chunk[1..CHUNK_HEADER].copy_from_slice(&count.to_le_bytes());
    write_frame_to(writer, chunk)?;
    *chunk = new_chunk();
    *count = 0;
    Ok(())
}

/// Frames a v4 query result — header, distribution chunks, end frame — and
/// flushes. Chunks are packed up to the frame-body limit, so the full
/// distribution streams regardless of its line count.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure, or when a single header/point encoding
/// exceeds the frame-body limit (vectors of more than `u16::MAX` ids, or a
/// pathological typical-answer set).
pub fn write_query_result(writer: &mut impl Write, result: &QueryResult) -> Result<()> {
    if !(WIRE_VERSION_V4..=WIRE_VERSION_V6).contains(&result.version) {
        return Err(Error::Source(format!(
            "query result version {} is not a version this build speaks (v4-v6)",
            result.version
        )));
    }
    let mut body = Vec::with_capacity(128);
    body.push(FRAME_QUERY_RESULT);
    body.push(result.version);
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
    if result.version >= WIRE_VERSION_V5 {
        // v5 only: a v4 client reads the byte-identical v4 header.
        body.extend_from_slice(&result.epoch.to_le_bytes());
        body.extend_from_slice(&result.cache_generation.to_le_bytes());
    }
    if result.version >= WIRE_VERSION_V6 {
        // v6 only: the live-scan tail. Pre-v6 clients asked for pre-v6
        // results and read a byte-identical older header.
        body.push(u8::from(result.live));
        body.extend_from_slice(&result.live_segments.to_le_bytes());
        body.extend_from_slice(&result.compacted_epoch.to_le_bytes());
    }
    if body.len() > MAX_FRAME_BODY {
        return Err(Error::Source(format!(
            "query result header of {} bytes exceeds the {MAX_FRAME_BODY}-byte frame limit",
            body.len()
        )));
    }
    write_frame_to(writer, &body)?;

    let mut chunk = new_chunk();
    let mut in_chunk: u16 = 0;
    for point in &result.points {
        let mut encoded = Vec::with_capacity(32);
        push_point(&mut encoded, point)?;
        if CHUNK_HEADER + encoded.len() > MAX_FRAME_BODY {
            return Err(Error::Source(format!(
                "a single distribution point of {} bytes exceeds the {MAX_FRAME_BODY}-byte frame limit",
                encoded.len()
            )));
        }
        if in_chunk > 0 && (chunk.len() + encoded.len() > MAX_FRAME_BODY || in_chunk == u16::MAX) {
            flush_chunk(writer, &mut chunk, &mut in_chunk)?;
        }
        chunk.extend_from_slice(&encoded);
        in_chunk += 1;
    }
    if in_chunk > 0 {
        flush_chunk(writer, &mut chunk, &mut in_chunk)?;
    }
    write_frame_to(writer, &[FRAME_END])?;
    writer.flush().map_err(|e| io_err("flush", e))
}

/// Client-side decode of a [`write_query_result`] stream: the header frame,
/// every distribution chunk, and the end frame.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure, a malformed frame, a point count that
/// does not match the header's announcement, or a server-side failure (an
/// error frame in place of the header or mid-stream).
pub fn read_query_result(reader: &mut impl Read) -> Result<QueryResult> {
    let remote_failed = |body: &[u8]| {
        Error::Source(format!(
            "remote query failed: {}",
            String::from_utf8_lossy(body)
        ))
    };
    let body = read_frame_from(reader)?;
    match body.first() {
        Some(&FRAME_QUERY_RESULT) => {}
        Some(&FRAME_ERROR) => return Err(remote_failed(&body[1..])),
        Some(&FRAME_BUSY) => return Err(busy_error(&body)),
        _ => return Err(Error::Source("corrupt wire query result frame".into())),
    }
    let mut cursor = FrameCursor::new(&body, 1, "query result");
    let version = cursor.u8()?;
    if !(WIRE_VERSION_V4..=WIRE_VERSION_V6).contains(&version) {
        return Err(Error::Source(format!(
            "unsupported query result protocol version {version}"
        )));
    }
    let flags = cursor.u8()?;
    if flags > 3 {
        return Err(cursor.corrupt());
    }
    let scan_depth = cursor.u64()?;
    let distribution_time_ns = cursor.u64()?;
    let typical_time_ns = cursor.u64()?;
    let point_count = cursor.u64()?;
    let expected_distance = cursor.f64()?;
    let typical_count = cursor.u16()?;
    let mut typical = Vec::with_capacity(typical_count as usize);
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
    let (epoch, cache_generation) = if version >= WIRE_VERSION_V5 {
        (cursor.u64()?, cursor.u64()?)
    } else {
        (0, 0)
    };
    let (live, live_segments, compacted_epoch) = if version >= WIRE_VERSION_V6 {
        let live = match cursor.u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(Error::Source(format!(
                    "corrupt query result live flag {other}"
                )));
            }
        };
        (live, cursor.u64()?, cursor.u64()?)
    } else {
        (false, 0, 0)
    };
    cursor.finish()?;

    // The announced count sizes the allocation only up to a clamp — the
    // actual frames, not the header, decide how much memory is committed.
    let mut points = Vec::with_capacity((point_count as usize).min(4096));
    loop {
        let body = read_frame_from(reader)?;
        match body.first() {
            Some(&FRAME_RESULT_CHUNK) => {
                let mut cursor = FrameCursor::new(&body, 1, "result chunk");
                let count = cursor.u16()?;
                for _ in 0..count {
                    points.push(pop_point(&mut cursor)?);
                }
                cursor.finish()?;
            }
            Some(&FRAME_END) if body.len() == 1 => break,
            Some(&FRAME_ERROR) => return Err(remote_failed(&body[1..])),
            Some(&other) => return Err(Error::Source(format!("unknown wire frame kind {other}"))),
            None => return Err(Error::Source("corrupt wire result chunk frame".into())),
        }
    }
    if points.len() as u64 != point_count {
        return Err(Error::Source(format!(
            "query result shipped {} distribution points but announced {point_count}",
            points.len()
        )));
    }
    Ok(QueryResult {
        version,
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

/// Frames a server-side failure on a v4 query connection and flushes: sent in
/// place of the result header (or mid-stream) so the client's
/// [`read_query_result`] surfaces it as [`Error::Source`]. Also the
/// query-serving daemon's answer to a peer that opened with anything other
/// than a request frame — pre-v4 peers get a decodable refusal, not a hang.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure.
pub fn write_query_error(writer: &mut impl Write, message: &str) -> Result<()> {
    let mut body = Vec::with_capacity(1 + message.len());
    body.push(FRAME_ERROR);
    body.extend_from_slice(message.as_bytes());
    write_frame_to(writer, &body)?;
    writer.flush().map_err(|e| io_err("flush", e))
}

/// Frames a v5 busy/retry-after refusal and flushes: the admission-control
/// answer of a daemon whose worker handoff would block. Sent in place of any
/// reply (the daemon closes right after), so a flood is shed with one cheap
/// frame instead of sitting in the listen backlog.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure.
pub fn write_busy(writer: &mut impl Write, retry_after_ms: u64) -> Result<()> {
    let mut body = Vec::with_capacity(10);
    body.push(FRAME_BUSY);
    body.push(WIRE_VERSION_V5);
    body.extend_from_slice(&retry_after_ms.to_le_bytes());
    write_frame_to(writer, &body)?;
    writer.flush().map_err(|e| io_err("flush", e))
}

/// Decodes a busy frame body into the client-side error. The message
/// deliberately does **not** carry the semantic `remote … failed` prefix the
/// retrying clients treat as final — a busy refusal is the one server answer
/// that is *meant* to be retried.
fn busy_error(body: &[u8]) -> Error {
    if body.len() != 10 || body[1] != WIRE_VERSION_V5 {
        return Error::Source("corrupt wire busy frame".into());
    }
    let retry_after_ms = u64::from_le_bytes(body[2..10].try_into().expect("8 bytes"));
    Error::Source(format!(
        "server busy: connection shed by admission control, retry after {retry_after_ms}ms"
    ))
}

/// A v5 append request: scored rows for one of the server's live datasets,
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

/// Encodes one row in a chunk body: the tuple-frame layout minus the kind
/// byte (id, score bits, prob bits, group flag [+ key]).
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

/// Decodes one row from a chunk body, re-validating through
/// [`UncertainTuple::new`] so a peer cannot append rows the import paths
/// would have refused.
fn pop_source_tuple(cursor: &mut FrameCursor<'_>) -> Result<SourceTuple> {
    let id = cursor.u64()?;
    let score = f64::from_bits(cursor.u64()?);
    let prob = f64::from_bits(cursor.u64()?);
    let tuple = UncertainTuple::new(id, score, prob)?;
    match cursor.u8()? {
        0 => Ok(SourceTuple::independent(tuple)),
        1 => Ok(SourceTuple::grouped(tuple, cursor.u64()?)),
        _ => Err(cursor.corrupt()),
    }
}

/// Frames a v5 append request — header, row chunks, end frame — and flushes.
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
    let mut body = Vec::with_capacity(13 + request.dataset.len());
    body.push(FRAME_APPEND);
    body.push(WIRE_VERSION_V5);
    body.push(u8::from(request.seal));
    body.extend_from_slice(&(request.rows.len() as u64).to_le_bytes());
    push_label(&mut body, &request.dataset)?;
    write_frame_to(writer, &body)?;

    let mut chunk = vec![FRAME_APPEND_ROWS, 0, 0];
    let mut in_chunk: u16 = 0;
    for row in &request.rows {
        // A row is at most 33 bytes, so one more always fits a fresh chunk.
        if in_chunk > 0 && (chunk.len() + 33 > MAX_FRAME_BODY || in_chunk == u16::MAX) {
            chunk[1..CHUNK_HEADER].copy_from_slice(&in_chunk.to_le_bytes());
            write_frame_to(writer, &chunk)?;
            chunk = vec![FRAME_APPEND_ROWS, 0, 0];
            in_chunk = 0;
        }
        push_source_tuple(&mut chunk, row);
        in_chunk += 1;
    }
    if in_chunk > 0 {
        chunk[1..CHUNK_HEADER].copy_from_slice(&in_chunk.to_le_bytes());
        write_frame_to(writer, &chunk)?;
    }
    write_frame_to(writer, &[FRAME_END])?;
    writer.flush().map_err(|e| io_err("flush", e))
}

/// Decodes the row chunks and end frame following an append header whose
/// body is `body`. Cross-checks the shipped row count against the header's
/// announcement.
fn read_append_rows(reader: &mut impl Read, body: &[u8]) -> Result<AppendRequest> {
    let corrupt = || Error::Source("corrupt wire append request frame".into());
    if body.len() < 13 || body[1] != WIRE_VERSION_V5 || body[2] > 1 {
        return Err(corrupt());
    }
    let seal = body[2] == 1;
    let announced = u64::from_le_bytes(body[3..11].try_into().expect("8 bytes"));
    if announced > MAX_APPEND_ROWS {
        return Err(Error::Source(format!(
            "append request announces {announced} rows (limit {MAX_APPEND_ROWS})"
        )));
    }
    let dataset = pop_label(body, 11, "append request")?;
    // The announced count sizes the allocation only up to a clamp — the
    // actual frames, not the header, decide how much memory is committed.
    let mut rows = Vec::with_capacity((announced as usize).min(4096));
    loop {
        let body = read_frame_from(reader)?;
        match body.first() {
            Some(&FRAME_APPEND_ROWS) => {
                let mut cursor = FrameCursor::new(&body, 1, "append row chunk");
                let count = cursor.u16()?;
                for _ in 0..count {
                    if rows.len() as u64 >= MAX_APPEND_ROWS {
                        return Err(Error::Source(format!(
                            "append request ships more than {MAX_APPEND_ROWS} rows"
                        )));
                    }
                    rows.push(pop_source_tuple(&mut cursor)?);
                }
                cursor.finish()?;
            }
            Some(&FRAME_END) if body.len() == 1 => break,
            Some(&FRAME_ERROR) => {
                return Err(Error::Source(format!(
                    "append request aborted by the peer: {}",
                    String::from_utf8_lossy(&body[1..])
                )))
            }
            Some(&other) => return Err(Error::Source(format!("unknown wire frame kind {other}"))),
            None => return Err(corrupt()),
        }
    }
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

/// Frames a v5 append acknowledgement and flushes.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure.
pub fn write_append_ack(writer: &mut impl Write, ack: &AppendAck) -> Result<()> {
    let mut body = Vec::with_capacity(27);
    body.push(FRAME_APPEND_ACK);
    body.push(WIRE_VERSION_V5);
    body.push(u8::from(ack.sealed_now));
    body.extend_from_slice(&ack.epoch.to_le_bytes());
    body.extend_from_slice(&ack.staged.to_le_bytes());
    body.extend_from_slice(&ack.sealed_rows.to_le_bytes());
    write_frame_to(writer, &body)?;
    writer.flush().map_err(|e| io_err("flush", e))
}

/// Client-side decode of a [`write_append_ack`] frame. A server-side error
/// frame in its place surfaces with the semantic `remote append failed`
/// prefix (never retried); a busy frame surfaces as the retryable busy
/// error.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure, a malformed frame, a server-side
/// refusal, or a busy refusal.
pub fn read_append_ack(reader: &mut impl Read) -> Result<AppendAck> {
    let body = read_frame_from(reader)?;
    match body.first() {
        Some(&FRAME_APPEND_ACK) => {}
        Some(&FRAME_ERROR) => {
            return Err(Error::Source(format!(
                "remote append failed: {}",
                String::from_utf8_lossy(&body[1..])
            )))
        }
        Some(&FRAME_BUSY) => return Err(busy_error(&body)),
        _ => return Err(Error::Source("corrupt wire append ack frame".into())),
    }
    if body.len() != 27 || body[1] != WIRE_VERSION_V5 || body[2] > 1 {
        return Err(Error::Source("corrupt wire append ack frame".into()));
    }
    Ok(AppendAck {
        sealed_now: body[2] == 1,
        epoch: u64::from_le_bytes(body[3..11].try_into().expect("8 bytes")),
        staged: u64::from_le_bytes(body[11..19].try_into().expect("8 bytes")),
        sealed_rows: u64::from_le_bytes(body[19..27].try_into().expect("8 bytes")),
    })
}

/// A v5 subscription request: a standing query the server re-evaluates on
/// every epoch advance of the named live dataset, pushing a notification
/// (plus a full result stream) only when the answer distribution shifted.
#[derive(Debug, Clone, PartialEq)]
pub struct SubscribeRequest {
    /// The standing query shape (its `dataset` names the live dataset; its
    /// `version` must be [`WIRE_VERSION_V5`]).
    pub query: QueryRequest,
    /// Pushes after which the server closes the subscription (`0` = no
    /// limit; the subscription lives until a side disconnects).
    pub max_pushes: u64,
}

/// Frames a v5 subscribe request and flushes. Sent immediately after
/// connecting, like the query request it extends.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure, an over-long dataset name, or a query
/// whose version is not v5.
pub fn write_subscribe(writer: &mut impl Write, request: &SubscribeRequest) -> Result<()> {
    if request.query.version != WIRE_VERSION_V5 {
        return Err(Error::Source(format!(
            "subscriptions need protocol version {WIRE_VERSION_V5} (request speaks v{})",
            request.query.version
        )));
    }
    let mut body = Vec::with_capacity(47 + request.query.dataset.len());
    body.push(FRAME_SUBSCRIBE);
    push_query_shape(&mut body, &request.query)?;
    body.extend_from_slice(&request.max_pushes.to_le_bytes());
    push_label(&mut body, &request.query.dataset)?;
    write_frame_to(writer, &body)?;
    writer.flush().map_err(|e| io_err("flush", e))
}

/// Decodes a [`write_subscribe`] frame body (kind byte already matched).
fn decode_subscribe(body: &[u8]) -> Result<SubscribeRequest> {
    let (mut query, at) = pop_query_shape(body, "subscribe request", WIRE_VERSION_V5)?;
    let corrupt = || Error::Source("corrupt wire subscribe request frame".into());
    let max_pushes = u64::from_le_bytes(
        body.get(at..at + 8)
            .ok_or_else(corrupt)?
            .try_into()
            .expect("8 bytes"),
    );
    query.dataset = pop_label(body, at + 8, "subscribe request")?;
    Ok(SubscribeRequest { query, max_pushes })
}

/// One subscription push announcement: the epoch the standing query was
/// re-evaluated at and the answer-distribution hash that shifted. A complete
/// v5 result stream ([`read_query_result`]) follows every notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Notification {
    /// Epoch of the snapshot the pushed answer was computed against.
    pub epoch: u64,
    /// The server's hash of the answer distribution (what it compares
    /// between epochs to decide whether to push).
    pub answer_hash: u64,
}

/// Frames a v5 notification. The caller streams the full query result right
/// after it; no flush here, so notification + result leave as one write.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure.
pub fn write_notification(writer: &mut impl Write, notification: &Notification) -> Result<()> {
    let mut body = Vec::with_capacity(18);
    body.push(FRAME_NOTIFY);
    body.push(WIRE_VERSION_V5);
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
    write_frame_to(writer, &[FRAME_END])?;
    writer
        .flush()
        .map_err(|e| Error::Source(format!("flushing the wire stream: {e}")))
}

/// Client-side read of the next subscription event: `Some(notification)`
/// when the server pushed (decode the result stream next), `None` when the
/// server closed the subscription cleanly (push budget reached or daemon
/// drain).
///
/// # Errors
///
/// [`Error::Source`] on I/O failure, a malformed frame, a server-side
/// subscription failure, or a busy refusal (possible only as the very first
/// event).
pub fn read_push(reader: &mut impl Read) -> Result<Option<Notification>> {
    let body = read_frame_from(reader)?;
    match body.first() {
        Some(&FRAME_NOTIFY) if body.len() == 18 && body[1] == WIRE_VERSION_V5 => {
            Ok(Some(Notification {
                epoch: u64::from_le_bytes(body[2..10].try_into().expect("8 bytes")),
                answer_hash: u64::from_le_bytes(body[10..18].try_into().expect("8 bytes")),
            }))
        }
        Some(&FRAME_NOTIFY) => Err(Error::Source("corrupt wire notification frame".into())),
        Some(&FRAME_END) if body.len() == 1 => Ok(None),
        Some(&FRAME_ERROR) => Err(Error::Source(format!(
            "remote subscription failed: {}",
            String::from_utf8_lossy(&body[1..])
        ))),
        Some(&FRAME_BUSY) => Err(busy_error(&body)),
        Some(&other) => Err(Error::Source(format!("unknown wire frame kind {other}"))),
        None => Err(Error::Source("corrupt wire notification frame".into())),
    }
}

/// Decodes a `u16`-length-prefixed label starting at `body[at..]` that is
/// *not* required to end at the frame boundary; returns the label and the
/// offset of the first byte after it. Multi-label frames decode every label
/// but the last through this, and the last through [`pop_label`] (which
/// enforces the frame boundary).
fn pop_label_chained(body: &[u8], at: usize, what: &str) -> Result<(String, usize)> {
    let corrupt = || Error::Source(format!("corrupt wire {what} frame"));
    if body.len() < at + 2 {
        return Err(corrupt());
    }
    let len = u16::from_le_bytes(body[at..at + 2].try_into().expect("2 bytes")) as usize;
    let end = at + 2 + len;
    if body.len() < end {
        return Err(corrupt());
    }
    let label = String::from_utf8(body[at + 2..end].to_vec()).map_err(|_| corrupt())?;
    Ok((label, end))
}

/// The lifecycle verbs a wire-v6 admin client can send a serving daemon.
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

/// Frames a wire-v6 admin request and flushes. Client-speaks-first: a server
/// that never receives one never emits a v6 byte, so v5-and-older peers
/// interop byte-identically.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure or an over-long name/argument.
pub fn write_admin_request(writer: &mut impl Write, request: &AdminRequest) -> Result<()> {
    let mut body = Vec::with_capacity(7 + request.name.len() + request.arg.len());
    body.push(FRAME_ADMIN);
    body.push(WIRE_VERSION_V6);
    body.push(request.verb.code());
    push_label(&mut body, &request.name)?;
    push_label(&mut body, &request.arg)?;
    if body.len() > MAX_FRAME_BODY {
        return Err(Error::Source(format!(
            "admin request of {} bytes exceeds the frame-body limit",
            body.len()
        )));
    }
    write_frame_to(writer, &body)?;
    writer.flush().map_err(|e| io_err("flush", e))
}

/// Decodes an already-read [`write_admin_request`] frame body.
fn decode_admin(body: &[u8]) -> Result<AdminRequest> {
    let corrupt = || Error::Source("corrupt wire admin frame".into());
    if body.len() < 3 {
        return Err(corrupt());
    }
    if body[1] != WIRE_VERSION_V6 {
        return Err(Error::Source(format!(
            "admin frame speaks protocol version {} (the admin plane needs v6)",
            body[1]
        )));
    }
    let verb = AdminVerb::from_code(body[2])
        .ok_or_else(|| Error::Source(format!("unknown admin verb {}", body[2])))?;
    let (name, after_name) = pop_label_chained(body, 3, "admin")?;
    let arg = pop_label(body, after_name, "admin")?;
    Ok(AdminRequest { verb, name, arg })
}

/// Frames a successful admin outcome — a short human-readable report — and
/// flushes. Failures are sent as plain error frames ([`write_query_error`])
/// instead, which [`read_admin_response`] surfaces as [`Error::Source`].
///
/// # Errors
///
/// [`Error::Source`] on I/O failure or an over-long report.
pub fn write_admin_response(writer: &mut impl Write, text: &str) -> Result<()> {
    let mut body = Vec::with_capacity(2 + text.len());
    body.push(FRAME_ADMIN_RESPONSE);
    body.push(WIRE_VERSION_V6);
    body.extend_from_slice(text.as_bytes());
    if body.len() > MAX_FRAME_BODY {
        return Err(Error::Source(format!(
            "admin response of {} bytes exceeds the frame-body limit",
            body.len()
        )));
    }
    write_frame_to(writer, &body)?;
    writer.flush().map_err(|e| io_err("flush", e))
}

/// Client-side decode of the server's answer to an admin request: the report
/// text on success.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure, a malformed frame, a busy refusal (which
/// clients may retry), or a server-side failure — surfaced with the `remote
/// admin failed` prefix the retrying clients treat as final.
pub fn read_admin_response(reader: &mut impl Read) -> Result<String> {
    let body = read_frame_from(reader)?;
    match body.first() {
        Some(&FRAME_ADMIN_RESPONSE) if body.len() >= 2 && body[1] == WIRE_VERSION_V6 => {
            String::from_utf8(body[2..].to_vec())
                .map_err(|_| Error::Source("corrupt wire admin response frame".into()))
        }
        Some(&FRAME_ERROR) => Err(Error::Source(format!(
            "remote admin failed: {}",
            String::from_utf8_lossy(&body[1..])
        ))),
        Some(&FRAME_BUSY) => Err(busy_error(&body)),
        _ => Err(Error::Source("corrupt wire admin response frame".into())),
    }
}

/// The first frame a serving daemon reads off a fresh connection: one of
/// the four client-speaks-first request kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientRequest {
    /// A one-shot query ([`write_query_request`], v4 through v6).
    Query(QueryRequest),
    /// An append (+ optional seal) to a live dataset
    /// ([`write_append_request`], v5).
    Append(AppendRequest),
    /// A standing-query subscription ([`write_subscribe`], v5).
    Subscribe(SubscribeRequest),
    /// A lifecycle verb on the admin plane ([`write_admin_request`], v6).
    Admin(AdminRequest),
}

/// Server-side dispatch on the first frame of a connection: decodes a query,
/// append (draining its row chunks), subscribe or admin request. Anything
/// else — a pre-v4 hello, garbage — is an error the daemon answers with an
/// error frame, so old peers fail cleanly instead of hanging.
///
/// # Errors
///
/// [`Error::Source`] on I/O failure, a malformed or unexpected frame, or
/// invalid request fields.
pub fn read_client_request(reader: &mut impl Read) -> Result<ClientRequest> {
    let body = read_frame_from(reader)?;
    match body.first() {
        Some(&FRAME_QUERY_REQUEST) => Ok(ClientRequest::Query(decode_query_request(&body)?)),
        Some(&FRAME_APPEND) => Ok(ClientRequest::Append(read_append_rows(reader, &body)?)),
        Some(&FRAME_SUBSCRIBE) => Ok(ClientRequest::Subscribe(decode_subscribe(&body)?)),
        Some(&FRAME_ADMIN) => Ok(ClientRequest::Admin(decode_admin(&body)?)),
        Some(&other) => Err(Error::Source(format!(
            "unexpected wire frame kind {other} (a query-serving daemon expects a query, \
             append, subscribe or admin request)"
        ))),
        None => Err(Error::Source("corrupt wire request frame".into())),
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

/// The sending half of the codec: frames a rank-ordered tuple stream onto
/// any blocking [`Write`].
///
/// Construction writes the hello frame (protocol version plus an optional
/// tuple-count hint the receiving planner can surface). Call
/// [`write_tuple`](WireWriter::write_tuple) per tuple, then exactly one of
/// [`finish`](WireWriter::finish) or [`fail`](WireWriter::fail);
/// [`serve`](WireWriter::serve) drives all three from a [`TupleSource`].
#[derive(Debug)]
pub struct WireWriter<W: Write> {
    writer: W,
    bytes: u64,
}

impl<W: Write> WireWriter<W> {
    /// Wraps `writer` and sends the **v1** hello frame carrying `size_hint` —
    /// the layout every reader since protocol v1 decodes. Use
    /// [`with_assignment`](WireWriter::with_assignment) to speak v2 to a
    /// client that announced it.
    ///
    /// # Errors
    ///
    /// [`Error::Source`] when the hello frame cannot be written.
    pub fn new(writer: W, size_hint: Option<usize>) -> Result<Self> {
        let mut body = Vec::with_capacity(10);
        body.push(FRAME_HELLO);
        body.push(WIRE_VERSION_V1);
        let hint = size_hint.map(|n| n as u64).unwrap_or(u64::MAX);
        body.extend_from_slice(&hint.to_le_bytes());
        let mut this = WireWriter { writer, bytes: 0 };
        this.frame(&body)?;
        Ok(this)
    }

    /// Wraps `writer` and sends the **v2** hello frame: `size_hint` plus the
    /// shard's id-base/namespace assignment. Serve this layout only when the
    /// server actually holds an assignment to advertise (a coordinator lease
    /// or an operator-pinned namespace) — a v1 reader rejects it, which is
    /// the intended contract: coordinated serving requires v2 consumers.
    ///
    /// # Errors
    ///
    /// [`Error::Source`] when the hello frame cannot be written or the
    /// namespace label is over-long.
    pub fn with_assignment(
        writer: W,
        size_hint: Option<usize>,
        assignment: &ShardAssignment,
    ) -> Result<Self> {
        let mut body = Vec::with_capacity(20 + assignment.namespace.len());
        body.push(FRAME_HELLO);
        body.push(WIRE_VERSION);
        let hint = size_hint.map(|n| n as u64).unwrap_or(u64::MAX);
        body.extend_from_slice(&hint.to_le_bytes());
        body.extend_from_slice(&assignment.id_base.to_le_bytes());
        push_label(&mut body, &assignment.namespace)?;
        let mut this = WireWriter { writer, bytes: 0 };
        this.frame(&body)?;
        Ok(this)
    }

    /// Wraps `writer` and sends the **v3** (query-mode) hello frame:
    /// `size_hint`, an assignment-present flag, and the assignment fields
    /// when the server holds one. Serve this layout only to a client that
    /// announced itself with a query frame — old clients never see it.
    ///
    /// # Errors
    ///
    /// [`Error::Source`] when the hello frame cannot be written or the
    /// namespace label is over-long.
    pub fn v3(
        writer: W,
        size_hint: Option<usize>,
        assignment: Option<&ShardAssignment>,
    ) -> Result<Self> {
        let mut body = Vec::with_capacity(19 + assignment.map_or(0, |a| 10 + a.namespace.len()));
        body.push(FRAME_HELLO);
        body.push(WIRE_VERSION_V3);
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

    /// Sends the v3 stopped-at trailer. Call exactly once, just before
    /// [`finish`](WireWriter::finish), and only on streams opened with the
    /// v3 hello.
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

    /// Frames one tuple.
    ///
    /// # Errors
    ///
    /// [`Error::Source`] on I/O failure.
    pub fn write_tuple(&mut self, tuple: &SourceTuple) -> Result<()> {
        let mut body = Vec::with_capacity(34);
        body.push(FRAME_TUPLE);
        body.extend_from_slice(&tuple.tuple.id().raw().to_le_bytes());
        body.extend_from_slice(&tuple.tuple.score().to_bits().to_le_bytes());
        body.extend_from_slice(&tuple.tuple.prob().to_bits().to_le_bytes());
        match tuple.group {
            GroupKey::Independent => body.push(0),
            GroupKey::Shared(key) => {
                body.push(1);
                body.extend_from_slice(&key.to_le_bytes());
            }
        }
        self.frame(&body)
    }

    /// Frames a columnar tuple block as one or more kind-20 frames of at
    /// most [`MAX_FRAME_BODY`] bytes each (an empty block frames nothing).
    /// Only send on connections whose peer announced block support with the
    /// kind-19 query frame — per-tuple peers treat kind 20 as corrupt.
    ///
    /// # Errors
    ///
    /// [`Error::Source`] on I/O failure.
    pub fn write_block(&mut self, block: &TupleBlock) -> Result<()> {
        let mut at = 0;
        while at < block.len() {
            let count = (block.len() - at).min(MAX_BLOCK_ROWS);
            let mut body = vec![FRAME_TUPLE_BLOCK, 0, 0];
            for row in at..at + count {
                push_source_tuple(&mut body, &block.get(row));
            }
            body[1..CHUNK_HEADER].copy_from_slice(&(count as u16).to_le_bytes());
            self.frame(&body)?;
            at += count;
        }
        Ok(())
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
        let mut body = Vec::with_capacity(1 + message.len());
        body.push(FRAME_ERROR);
        body.extend_from_slice(message.as_bytes());
        self.frame(&body)?;
        self.writer.flush().map_err(|e| io_err("flush", e))
    }

    /// Pulls `source` to exhaustion and frames every tuple, terminating the
    /// stream correctly on both outcomes: a clean end sends the end frame, a
    /// source failure is forwarded as an error frame (and returned).
    ///
    /// Returns the number of tuples served.
    ///
    /// # Errors
    ///
    /// The source's error (after forwarding it to the peer), or
    /// [`Error::Source`] on I/O failure.
    pub fn serve(mut self, source: &mut dyn TupleSource) -> Result<usize> {
        let mut served = 0usize;
        loop {
            match source.next_tuple() {
                Ok(Some(tuple)) => {
                    self.write_tuple(&tuple)?;
                    served += 1;
                }
                Ok(None) => {
                    self.finish()?;
                    return Ok(served);
                }
                Err(error) => {
                    self.fail(&error.to_string())?;
                    return Err(error);
                }
            }
        }
    }
}

/// The receiving half of the codec: a [`TupleSource`] decoding frames from
/// any blocking [`Read`].
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
    /// Undelivered remainder of the last kind-20 block frame; frames are
    /// only read while this buffer is empty.
    pending: TupleBlock,
    cursor: usize,
    /// Kind-20 block frames decoded off the wire, and the rows they carried
    /// — the framing truth, independent of how the consumer pulls (a merge
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

    /// How many kind-20 block frames this reader has decoded so far, and
    /// the total rows they carried — regardless of whether the consumer
    /// pulled them back out as blocks or tuple-at-a-time. `(0, 0)` means the
    /// peer framed every tuple individually (a pre-block server, or blocks
    /// disabled at either end).
    pub fn block_frames_decoded(&self) -> (u64, u64) {
        (self.block_frames, self.block_frame_rows)
    }

    fn read_frame(&mut self) -> Result<Vec<u8>> {
        read_frame_from(&mut self.reader)
    }

    fn expect_hello(&mut self) -> Result<()> {
        let body = self.read_frame()?;
        if body.first() != Some(&FRAME_HELLO) || body.len() < 10 {
            return Err(Error::Source(
                "wire stream does not start with a hello frame".into(),
            ));
        }
        let version = body[1];
        let assignment = match version {
            WIRE_VERSION_V1 => {
                if body.len() != 10 {
                    return Err(Error::Source("corrupt v1 wire hello frame".into()));
                }
                None
            }
            WIRE_VERSION => Some(ShardAssignment {
                id_base: u64::from_le_bytes(
                    body.get(10..18)
                        .ok_or_else(|| Error::Source("corrupt v2 wire hello frame".into()))?
                        .try_into()
                        .expect("8 bytes"),
                ),
                namespace: pop_label(&body, 18, "hello")?,
            }),
            WIRE_VERSION_V3 => {
                let corrupt = || Error::Source("corrupt v3 wire hello frame".into());
                match body.get(10) {
                    Some(0) if body.len() == 11 => None,
                    Some(1) => Some(ShardAssignment {
                        id_base: u64::from_le_bytes(
                            body.get(11..19)
                                .ok_or_else(corrupt)?
                                .try_into()
                                .expect("8 bytes"),
                        ),
                        namespace: pop_label(&body, 19, "hello")?,
                    }),
                    _ => return Err(corrupt()),
                }
            }
            other => {
                return Err(Error::Source(format!(
                    "unsupported wire protocol version {other}"
                )))
            }
        };
        let hint = u64::from_le_bytes(body[2..10].try_into().expect("8 bytes"));
        self.hint = (hint != u64::MAX).then_some(hint as usize);
        self.hello = Some(Hello {
            version,
            size_hint: self.hint,
            assignment,
        });
        Ok(())
    }

    /// Forces the hello frame to be read (a no-op if already decoded) and
    /// returns it. Lets a connection manager validate version and
    /// [`ShardAssignment`] **before** handing the reader to a merge — a dead
    /// or misconfigured peer then fails at connection time, where it can be
    /// retried, instead of mid-scan.
    ///
    /// # Errors
    ///
    /// [`Error::Source`] when the stream does not open with a valid hello.
    pub fn hello(&mut self) -> Result<&Hello> {
        if self.hello.is_none() {
            if let Err(e) = self.expect_hello() {
                self.done = true;
                return Err(e);
            }
        }
        Ok(self.hello.as_ref().expect("hello decoded above"))
    }

    /// The shard assignment the hello carried, when one was decoded.
    pub fn assignment(&self) -> Option<&ShardAssignment> {
        self.hello.as_ref().and_then(|h| h.assignment.as_ref())
    }

    /// The v3 stopped-at trailer, once the stream has ended (always `None`
    /// on v1/v2 streams, which carry no trailer).
    pub fn stopped_at(&self) -> Option<&StoppedAt> {
        self.stopped.as_ref()
    }

    fn decode_tuple(body: &[u8]) -> Result<SourceTuple> {
        let corrupt = || Error::Source("corrupt wire tuple frame".into());
        if body.len() != 26 && body.len() != 34 {
            return Err(corrupt());
        }
        let id = u64::from_le_bytes(body[1..9].try_into().expect("8 bytes"));
        let score = f64::from_bits(u64::from_le_bytes(body[9..17].try_into().expect("8 bytes")));
        let prob = f64::from_bits(u64::from_le_bytes(
            body[17..25].try_into().expect("8 bytes"),
        ));
        let tuple = UncertainTuple::new(id, score, prob)?;
        match (body[25], body.len()) {
            (0, 26) => Ok(SourceTuple::independent(tuple)),
            (1, 34) => Ok(SourceTuple::grouped(
                tuple,
                u64::from_le_bytes(body[26..34].try_into().expect("8 bytes")),
            )),
            _ => Err(corrupt()),
        }
    }

    fn decode_block(body: &[u8]) -> Result<TupleBlock> {
        let mut cursor = FrameCursor::new(body, 1, "tuple block");
        let count = cursor.u16()? as usize;
        let mut block = TupleBlock::with_capacity(count);
        for _ in 0..count {
            block.push(&pop_source_tuple(&mut cursor)?);
        }
        cursor.finish()?;
        Ok(block)
    }

    /// Delivers the next buffered block-frame row, maintaining the hint.
    fn pop_buffered(&mut self) -> Option<SourceTuple> {
        if self.cursor >= self.pending.len() {
            return None;
        }
        let row = self.pending.get(self.cursor);
        self.cursor += 1;
        if self.cursor >= self.pending.len() {
            self.pending.clear();
            self.cursor = 0;
        }
        if let Some(hint) = &mut self.hint {
            *hint = hint.saturating_sub(1);
        }
        Some(row)
    }

    fn note_stopped(&mut self, body: &[u8]) -> Result<()> {
        if body.len() != 18 || body[17] > 1 {
            self.done = true;
            return Err(Error::Source("corrupt wire stopped-at frame".into()));
        }
        self.stopped = Some(StoppedAt {
            scanned: u64::from_le_bytes(body[1..9].try_into().expect("8 bytes")),
            shipped: u64::from_le_bytes(body[9..17].try_into().expect("8 bytes")),
            gate_limited: body[17] == 1,
        });
        Ok(())
    }
}

impl<R: Read> TupleSource for WireReader<R> {
    fn next_tuple(&mut self) -> Result<Option<SourceTuple>> {
        if let Some(row) = self.pop_buffered() {
            return Ok(Some(row));
        }
        if self.done {
            return Ok(None);
        }
        if self.hello.is_none() {
            self.hello()?;
        }
        loop {
            let body = match self.read_frame() {
                Ok(body) => body,
                Err(e) => {
                    self.done = true;
                    return Err(e);
                }
            };
            return match body[0] {
                FRAME_TUPLE => match Self::decode_tuple(&body) {
                    Ok(tuple) => {
                        if let Some(hint) = &mut self.hint {
                            *hint = hint.saturating_sub(1);
                        }
                        Ok(Some(tuple))
                    }
                    Err(e) => {
                        self.done = true;
                        Err(e)
                    }
                },
                FRAME_TUPLE_BLOCK => match Self::decode_block(&body) {
                    Ok(block) => {
                        self.block_frames += 1;
                        self.block_frame_rows += block.len() as u64;
                        self.pending = block;
                        self.cursor = 0;
                        match self.pop_buffered() {
                            Some(row) => Ok(Some(row)),
                            None => continue, // empty block frame
                        }
                    }
                    Err(e) => {
                        self.done = true;
                        Err(e)
                    }
                },
                FRAME_END => {
                    self.done = true;
                    Ok(None)
                }
                FRAME_STOPPED => {
                    self.note_stopped(&body)?;
                    continue; // the end frame follows the trailer
                }
                FRAME_ERROR => {
                    self.done = true;
                    Err(Error::Source(format!(
                        "remote source failed: {}",
                        String::from_utf8_lossy(&body[1..])
                    )))
                }
                other => {
                    self.done = true;
                    Err(Error::Source(format!("unknown wire frame kind {other}")))
                }
            };
        }
    }

    fn next_block(&mut self, max: usize) -> Result<Option<TupleBlock>> {
        let max = max.max(1);
        let buffered = self.pending.len() - self.cursor;
        if buffered > 0 {
            // Whole-block handover when the buffer fits the ask; otherwise
            // copy a slice of the columns and keep the remainder buffered.
            let block = if self.cursor == 0 && buffered <= max {
                std::mem::take(&mut self.pending)
            } else {
                let take = buffered.min(max);
                let mut out = TupleBlock::with_capacity(take);
                out.push_range(&self.pending, self.cursor, self.cursor + take);
                self.cursor += take;
                if self.cursor >= self.pending.len() {
                    self.pending.clear();
                    self.cursor = 0;
                }
                out
            };
            if let Some(hint) = &mut self.hint {
                *hint = hint.saturating_sub(block.len());
            }
            return Ok(Some(block));
        }
        if self.done {
            return Ok(None);
        }
        if self.hello.is_none() {
            self.hello()?;
        }
        loop {
            let body = match self.read_frame() {
                Ok(body) => body,
                Err(e) => {
                    self.done = true;
                    return Err(e);
                }
            };
            match body[0] {
                FRAME_TUPLE_BLOCK => match Self::decode_block(&body) {
                    Ok(block) if block.is_empty() => {
                        self.block_frames += 1;
                        continue;
                    }
                    Ok(block) => {
                        self.block_frames += 1;
                        self.block_frame_rows += block.len() as u64;
                        self.pending = block;
                        self.cursor = 0;
                        // Deliver through the buffer path above, which
                        // honors `max` and maintains the hint.
                        return self.next_block(max);
                    }
                    Err(e) => {
                        self.done = true;
                        return Err(e);
                    }
                },
                // A per-tuple peer: hand each tuple up as a unit block
                // rather than blocking here to batch frames the server may
                // not have sent yet.
                FRAME_TUPLE => match Self::decode_tuple(&body) {
                    Ok(tuple) => {
                        if let Some(hint) = &mut self.hint {
                            *hint = hint.saturating_sub(1);
                        }
                        let mut block = TupleBlock::with_capacity(1);
                        block.push(&tuple);
                        return Ok(Some(block));
                    }
                    Err(e) => {
                        self.done = true;
                        return Err(e);
                    }
                },
                FRAME_END => {
                    self.done = true;
                    return Ok(None);
                }
                FRAME_STOPPED => {
                    self.note_stopped(&body)?;
                    continue;
                }
                FRAME_ERROR => {
                    self.done = true;
                    return Err(Error::Source(format!(
                        "remote source failed: {}",
                        String::from_utf8_lossy(&body[1..])
                    )));
                }
                other => {
                    self.done = true;
                    return Err(Error::Source(format!("unknown wire frame kind {other}")));
                }
            }
        }
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
/// atomic — prefetched connections record from their producer threads.
#[derive(Debug, Default)]
pub struct WireScanStats {
    tuples: std::sync::atomic::AtomicU64,
    blocks: std::sync::atomic::AtomicU64,
    block_tuples: std::sync::atomic::AtomicU64,
    pushdown_conns: std::sync::atomic::AtomicU64,
    plain_conns: std::sync::atomic::AtomicU64,
    server_scanned: std::sync::atomic::AtomicU64,
    server_shipped: std::sync::atomic::AtomicU64,
    trailers: std::sync::atomic::AtomicU64,
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

    /// Folds in kind-20 block frames decoded off the wire (`frames` frames
    /// carrying `rows` rows total), typically harvested from
    /// [`WireReader::block_frames_decoded`].
    pub fn record_block_frames(&self, frames: u64, rows: u64) {
        self.blocks.fetch_add(frames, Self::ORDER);
        self.block_tuples.fetch_add(rows, Self::ORDER);
    }

    /// Records one opened connection, pushdown-negotiated or plain.
    pub fn record_connection(&self, pushdown: bool) {
        if pushdown {
            self.pushdown_conns.fetch_add(1, Self::ORDER);
        } else {
            self.plain_conns.fetch_add(1, Self::ORDER);
        }
    }

    /// Folds in a server's stopped-at trailer.
    pub fn record_stopped(&self, stopped: &StoppedAt) {
        self.server_scanned.fetch_add(stopped.scanned, Self::ORDER);
        self.server_shipped.fetch_add(stopped.shipped, Self::ORDER);
        self.trailers.fetch_add(1, Self::ORDER);
    }

    /// Tuples received over the wire so far.
    pub fn tuples_received(&self) -> u64 {
        self.tuples.load(Self::ORDER)
    }

    /// Kind-20 columnar block frames decoded off the wire so far.
    pub fn blocks_received(&self) -> u64 {
        self.blocks.load(Self::ORDER)
    }

    /// Rows that arrived inside decoded block frames (divide by
    /// [`blocks_received`] for the mean block fill).
    ///
    /// [`blocks_received`]: WireScanStats::blocks_received
    pub fn block_tuples_received(&self) -> u64 {
        self.block_tuples.load(Self::ORDER)
    }

    /// Connections that negotiated v3 pushdown.
    pub fn pushdown_connections(&self) -> u64 {
        self.pushdown_conns.load(Self::ORDER)
    }

    /// Connections served over the plain v1/v2 protocol.
    pub fn plain_connections(&self) -> u64 {
        self.plain_conns.load(Self::ORDER)
    }

    /// Total rows the servers reported scanning (summed trailers).
    pub fn server_scanned(&self) -> u64 {
        self.server_scanned.load(Self::ORDER)
    }

    /// Total tuples the servers reported shipping (summed trailers).
    pub fn server_shipped(&self) -> u64 {
        self.server_shipped.load(Self::ORDER)
    }

    /// Number of stopped-at trailers received.
    pub fn trailers(&self) -> u64 {
        self.trailers.load(Self::ORDER)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::VecSource;

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
        let mut buf = Vec::new();
        let writer = WireWriter::new(&mut buf, Some(all.len())).unwrap();
        let served = writer.serve(&mut VecSource::new(all.clone())).unwrap();
        assert_eq!(served, 50);
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
        let mut block = TupleBlock::with_capacity(all.len());
        for t in &all {
            block.push(t);
        }
        let mut buf = Vec::new();
        let mut writer = WireWriter::new(&mut buf, Some(all.len())).unwrap();
        writer.write_block(&block).unwrap();
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
        // 34-byte grouped rows: MAX_BLOCK_ROWS rows won't fit one frame
        // once every row carries a key, so the writer must split.
        let mut block = TupleBlock::with_capacity(MAX_BLOCK_ROWS + 10);
        for i in 0..(MAX_BLOCK_ROWS + 10) as u64 {
            let t = UncertainTuple::new(i, 1e6 - i as f64, 0.5).unwrap();
            block.push(&SourceTuple::grouped(t, i));
        }
        let mut buf = Vec::new();
        let mut writer = WireWriter::new(&mut buf, None).unwrap();
        writer.write_block(&block).unwrap();
        writer.finish().unwrap();
        let mut reader = WireReader::new(buf.as_slice());
        let decoded = drain(&mut reader).unwrap();
        assert_eq!(decoded.len(), block.len());
        assert_eq!(decoded[MAX_BLOCK_ROWS], block.get(MAX_BLOCK_ROWS));
    }

    #[test]
    fn empty_block_frames_nothing() {
        let mut buf = Vec::new();
        let mut writer = WireWriter::new(&mut buf, None).unwrap();
        let before = writer.bytes_written();
        writer.write_block(&TupleBlock::default()).unwrap();
        assert_eq!(writer.bytes_written(), before);
        writer.finish().unwrap();
        assert!(drain(&mut WireReader::new(buf.as_slice()))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn mixed_tuple_and_block_frames_interleave() {
        let all = tuples(10);
        let mut block = TupleBlock::default();
        for t in &all[2..7] {
            block.push(t);
        }
        let mut buf = Vec::new();
        let mut writer = WireWriter::new(&mut buf, None).unwrap();
        writer.write_tuple(&all[0]).unwrap();
        writer.write_tuple(&all[1]).unwrap();
        writer.write_block(&block).unwrap();
        for t in &all[7..] {
            writer.write_tuple(t).unwrap();
        }
        writer.finish().unwrap();
        assert_eq!(drain(&mut WireReader::new(buf.as_slice())).unwrap(), all);
    }

    #[test]
    fn blocked_query_negotiation_round_trips() {
        let query = PushdownQuery { k: 7, p_tau: 0.125 };
        let mut buf = Vec::new();
        write_query_blocks(&mut buf, &query, 512).unwrap();
        let (decoded, max_block) = read_query_negotiated(&mut buf.as_slice()).unwrap();
        assert_eq!(decoded, query);
        assert_eq!(max_block, Some(512));

        // A plain kind-7 query decodes with no block capability.
        let mut buf = Vec::new();
        write_query(&mut buf, &query).unwrap();
        let (decoded, max_block) = read_query_negotiated(&mut buf.as_slice()).unwrap();
        assert_eq!(decoded, query);
        assert_eq!(max_block, None);

        // The strict pre-block reader rejects the kind-19 frame — that
        // rejection is what triggers the client's plain-query redial.
        let mut buf = Vec::new();
        write_query_blocks(&mut buf, &query, 512).unwrap();
        assert!(read_query(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn negotiated_zero_block_clamps_to_one() {
        let query = PushdownQuery { k: 1, p_tau: 0.5 };
        let mut buf = Vec::new();
        write_query_blocks(&mut buf, &query, 0).unwrap();
        let (_, max_block) = read_query_negotiated(&mut buf.as_slice()).unwrap();
        assert_eq!(max_block, Some(1));
    }

    #[test]
    fn size_hint_counts_down_after_hello() {
        let all = tuples(4);
        let mut buf = Vec::new();
        WireWriter::new(&mut buf, Some(4))
            .unwrap()
            .serve(&mut VecSource::new(all))
            .unwrap();
        let mut reader = WireReader::new(buf.as_slice());
        reader.next_tuple().unwrap().unwrap();
        assert_eq!(reader.size_hint(), Some(3));
    }

    #[test]
    fn server_side_error_is_forwarded_as_source_error() {
        struct Fails;
        impl TupleSource for Fails {
            fn next_tuple(&mut self) -> Result<Option<SourceTuple>> {
                Err(Error::Source("backing store gone".into()))
            }
        }
        let mut buf = Vec::new();
        let err = WireWriter::new(&mut buf, None)
            .unwrap()
            .serve(&mut Fails)
            .unwrap_err();
        assert!(matches!(err, Error::Source(_)));
        let err = drain(&mut WireReader::new(buf.as_slice())).unwrap_err();
        assert!(
            matches!(&err, Error::Source(m) if m.contains("backing store gone")),
            "{err}"
        );
    }

    #[test]
    fn truncation_and_corruption_surface_as_errors() {
        let mut buf = Vec::new();
        WireWriter::new(&mut buf, None)
            .unwrap()
            .serve(&mut VecSource::new(tuples(5)))
            .unwrap();

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
        let headless = &buf[14..]; // skip the 4+10 byte hello frame
        assert!(matches!(
            drain(&mut WireReader::new(headless)),
            Err(Error::Source(_))
        ));
    }

    #[test]
    fn v2_hello_round_trips_the_assignment() {
        let all = tuples(10);
        let assignment = ShardAssignment {
            id_base: 40,
            namespace: "coord-7".into(),
        };
        let mut buf = Vec::new();
        WireWriter::with_assignment(&mut buf, Some(all.len()), &assignment)
            .unwrap()
            .serve(&mut VecSource::new(all.clone()))
            .unwrap();
        let mut reader = WireReader::new(buf.as_slice());
        let hello = reader.hello().unwrap();
        assert_eq!(hello.version, WIRE_VERSION);
        assert_eq!(hello.size_hint, Some(10));
        assert_eq!(hello.assignment.as_ref(), Some(&assignment));
        assert_eq!(reader.size_hint(), Some(10), "hint known right after hello");
        assert_eq!(drain(&mut reader).unwrap(), all);
        assert_eq!(reader.assignment(), Some(&assignment));
    }

    #[test]
    fn v1_hello_still_decodes_and_carries_no_assignment() {
        // A v1 server (today's `WireWriter::new`) against the v2 reader.
        let all = tuples(6);
        let mut buf = Vec::new();
        WireWriter::new(&mut buf, Some(6))
            .unwrap()
            .serve(&mut VecSource::new(all.clone()))
            .unwrap();
        let mut reader = WireReader::new(buf.as_slice());
        let hello = reader.hello().unwrap();
        assert_eq!(hello.version, 1);
        assert_eq!(hello.assignment, None);
        assert_eq!(drain(&mut reader).unwrap(), all);
        // And the v1 decode rules (10-byte hello, version byte 1) accept what
        // `WireWriter::new` emits — a v1-era client decodes a v2 server that
        // answered its silence with the v1 hello.
        assert_eq!(buf[4], FRAME_HELLO);
        assert_eq!(u32::from_le_bytes(buf[0..4].try_into().unwrap()), 10);
        assert_eq!(buf[5], WIRE_VERSION_V1);
    }

    #[test]
    fn future_versions_and_corrupt_v2_hellos_are_rejected() {
        let mut buf = Vec::new();
        WireWriter::with_assignment(
            &mut buf,
            None,
            &ShardAssignment {
                id_base: 0,
                namespace: "ns".into(),
            },
        )
        .unwrap()
        .finish()
        .unwrap();
        // Bump the version byte past what this build speaks. (Version 3 is
        // spoken since the pushdown release — but with its own hello layout,
        // so the first genuinely-unknown version is 4.)
        let mut future = buf.clone();
        future[5] = WIRE_VERSION_V3 + 1;
        let err = drain(&mut WireReader::new(future.as_slice())).unwrap_err();
        assert!(
            matches!(&err, Error::Source(m) if m.contains("version")),
            "{err}"
        );
        // Truncate the namespace out of the v2 hello: corrupt, not a panic.
        let mut short = buf.clone();
        short[0..4].copy_from_slice(&18u32.to_le_bytes());
        short.truncate(4 + 18);
        assert!(drain(&mut WireReader::new(short.as_slice())).is_err());
    }

    #[test]
    fn register_and_lease_frames_round_trip() {
        let mut registry = LeaseRegistry::new("coord-A");
        assert_eq!(registry.next_id_base(), 0);
        let mut buf = Vec::new();
        write_register(&mut buf, 120, "area.shard0.csv").unwrap();
        let (rows, label) = read_register(&mut buf.as_slice()).unwrap();
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
        // Malformed register/lease frames are errors, not panics.
        assert!(read_register(&mut [0u8; 3].as_slice()).is_err());
        let mut v1_register = Vec::new();
        write_frame_to(
            &mut v1_register,
            &[&[FRAME_REGISTER, 1][..], &[0u8; 10][..]].concat(),
        )
        .unwrap();
        let err = read_register(&mut v1_register.as_slice()).unwrap_err();
        assert!(
            matches!(&err, Error::Source(m) if m.contains("needs v2")),
            "{err}"
        );
        assert!(read_lease(&mut buf.as_slice()).is_err(), "kind mismatch");
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
                WireWriter::v3(&mut buf, Some(all.len()), assignment.as_ref()).unwrap();
            for t in &all {
                writer.write_tuple(t).unwrap();
            }
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
            assert_eq!(hello.version, WIRE_VERSION_V3);
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
        let query = PushdownQuery { k: 5, p_tau: 1e-3 };
        let mut buf = Vec::new();
        write_query(&mut buf, &query).unwrap();
        assert_eq!(read_query(&mut buf.as_slice()).unwrap(), query);

        // k == 0 announces a full replay and skips the pτ range check.
        let full = PushdownQuery { k: 0, p_tau: 0.0 };
        let mut buf = Vec::new();
        write_query(&mut buf, &full).unwrap();
        assert_eq!(read_query(&mut buf.as_slice()).unwrap(), full);

        // A gated query with pτ outside (0, 1) is rejected server-side.
        let mut bad = Vec::new();
        write_query(&mut bad, &PushdownQuery { k: 3, p_tau: 1.5 }).unwrap();
        assert!(read_query(&mut bad.as_slice()).is_err());

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
        parser.extend(&[FRAME_TUPLE; 9]);
        assert!(parser.next_frame().is_err());
    }

    #[test]
    fn scan_stats_accumulate_across_connections() {
        let stats = WireScanStats::default();
        stats.record_connection(true);
        stats.record_connection(false);
        stats.record_tuple();
        stats.record_tuple();
        stats.record_stopped(&StoppedAt {
            scanned: 10,
            shipped: 2,
            gate_limited: true,
        });
        assert_eq!(stats.tuples_received(), 2);
        assert_eq!(stats.pushdown_connections(), 1);
        assert_eq!(stats.plain_connections(), 1);
        assert_eq!(stats.server_scanned(), 10);
        assert_eq!(stats.server_shipped(), 2);
        assert_eq!(stats.trailers(), 1);
    }

    fn sample_request() -> QueryRequest {
        QueryRequest {
            version: WIRE_VERSION_V5,
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
            version: WIRE_VERSION_V5,
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
            live: false,
            live_segments: 0,
            compacted_epoch: 0,
        }
    }

    #[test]
    fn query_request_round_trips_and_rejects_bad_shapes() {
        let request = sample_request();
        let mut buf = Vec::new();
        write_query_request(&mut buf, &request).unwrap();
        assert_eq!(read_query_request(&mut buf.as_slice()).unwrap(), request);

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
            let err = read_query_request(&mut bad.as_slice()).unwrap_err();
            assert!(
                matches!(&err, Error::Source(m) if m.contains("outside the accepted range")),
                "{err}"
            );
        }

        // A version bump is named in the refusal, and truncation is an error.
        let mut future = buf.clone();
        future[5] = WIRE_VERSION_V6 + 1;
        let err = read_query_request(&mut future.as_slice()).unwrap_err();
        assert!(
            matches!(&err, Error::Source(m) if m.contains("needs v4")),
            "{err}"
        );
        assert!(read_query_request(&mut buf[..buf.len() - 3].as_ref()).is_err());
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
        write_query_error(&mut refusal, "no such dataset `missing`").unwrap();
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
    fn v4_request_and_result_layouts_are_preserved_for_old_peers() {
        // A v4 request round-trips with the v4 version byte on the wire.
        let request = QueryRequest {
            version: WIRE_VERSION_V4,
            ..sample_request()
        };
        let mut buf = Vec::new();
        write_query_request(&mut buf, &request).unwrap();
        assert_eq!(buf[5], WIRE_VERSION_V4, "version byte on the wire");
        assert_eq!(read_query_request(&mut buf.as_slice()).unwrap(), request);

        // A result answered at v4 is byte-identical to the v4 release: the
        // header is exactly 16 bytes shorter (no epoch / cache generation)
        // and decodes with both fields zero.
        let v5 = sample_result(3);
        let v4 = QueryResult {
            version: WIRE_VERSION_V4,
            epoch: 0,
            cache_generation: 0,
            ..v5.clone()
        };
        let (mut buf4, mut buf5) = (Vec::new(), Vec::new());
        write_query_result(&mut buf4, &v4).unwrap();
        write_query_result(&mut buf5, &v5).unwrap();
        let header = |buf: &[u8]| u32::from_le_bytes(buf[0..4].try_into().unwrap());
        assert_eq!(header(&buf5), header(&buf4) + 16);
        let decoded = read_query_result(&mut buf4.as_slice()).unwrap();
        assert_eq!(decoded, v4);
        assert_eq!((decoded.epoch, decoded.cache_generation), (0, 0));
        // And the v5 result carries its epoch metadata through.
        let decoded = read_query_result(&mut buf5.as_slice()).unwrap();
        assert_eq!((decoded.epoch, decoded.cache_generation), (9, 4));
        // Versions outside v4-v6 are refused at write time.
        assert!(write_query_result(
            &mut Vec::new(),
            &QueryResult {
                version: WIRE_VERSION_V6 + 1,
                ..v5
            }
        )
        .is_err());
    }

    #[test]
    fn v6_result_tail_round_trips_and_pre_v6_layouts_are_byte_identical() {
        // A v6 result carries the live-scan tail: 17 bytes (flag + segments
        // + last compaction epoch) after the v5 header.
        let v5 = sample_result(3);
        let v6 = QueryResult {
            version: WIRE_VERSION_V6,
            live: true,
            live_segments: 12,
            compacted_epoch: 31,
            ..v5.clone()
        };
        let (mut buf5, mut buf6) = (Vec::new(), Vec::new());
        write_query_result(&mut buf5, &v5).unwrap();
        write_query_result(&mut buf6, &v6).unwrap();
        let header = |buf: &[u8]| u32::from_le_bytes(buf[0..4].try_into().unwrap());
        assert_eq!(header(&buf6), header(&buf5) + 17);
        let decoded = read_query_result(&mut buf6.as_slice()).unwrap();
        assert_eq!(decoded, v6);
        assert_eq!(
            (decoded.live, decoded.live_segments, decoded.compacted_epoch),
            (true, 12, 31)
        );

        // A result answered at v5 by this build is byte-identical to the v5
        // release — not a single v6 byte unless the client asked for one —
        // and decodes with the live tail zeroed.
        let decoded = read_query_result(&mut buf5.as_slice()).unwrap();
        assert_eq!(decoded, v5);
        assert_eq!(
            (decoded.live, decoded.live_segments, decoded.compacted_epoch),
            (false, 0, 0)
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
        write_query_error(&mut refusal, "dataset `sensors` is already registered").unwrap();
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
        write_query_error(&mut refusal, "dataset `feed` is not live").unwrap();
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

        // A v4 query shape cannot subscribe — refused at write time, and a
        // doctored frame is refused at decode time.
        let v4 = SubscribeRequest {
            query: QueryRequest {
                version: WIRE_VERSION_V4,
                ..sample_request()
            },
            max_pushes: 0,
        };
        assert!(write_subscribe(&mut Vec::new(), &v4).is_err());
        let mut doctored = buf.clone();
        doctored[5] = WIRE_VERSION_V4;
        let err = read_client_request(&mut doctored.as_slice()).unwrap_err();
        assert!(
            matches!(&err, Error::Source(m) if m.contains("needs protocol version 5")),
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
        write_frame_to(&mut buf, &[FRAME_END]).unwrap();
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
        let mut hello = Vec::new();
        WireWriter::new(&mut hello, None).unwrap().finish().unwrap();
        let err = read_client_request(&mut hello.as_slice()).unwrap_err();
        assert!(
            matches!(&err, Error::Source(m) if m.contains("unexpected wire frame kind")),
            "{err}"
        );
    }
}
