//! Remote shard serving: one scan spanning processes and machines.
//!
//! A [`RemoteShardDataset`] is the [`DatasetProvider`] of the transport
//! layer: each configured address is a shard server speaking the
//! [`wire`](ttk_uncertain::wire) protocol (`ttk serve-shard` on the CLI, or
//! any program driving a [`WireWriter`](ttk_uncertain::WireWriter)), and
//! opening the dataset connects to every server and fuses the decoded
//! streams — optionally together with locally-opened shard streams — under
//! the loser-tree k-way merge. Because the wire format carries raw IEEE-754
//! bits, the merged stream is **bit-identical** to scanning the same shards
//! in-process, and every [`Session`](crate::Session) verb (`execute`,
//! `execute_batch`, `explain`) works unchanged. The merge pulls every
//! connection synchronously on the scanning thread.
//!
//! Three knobs shape the scan:
//!
//! * [`RemoteShardDataset::with_local_shards`] mixes local shard streams
//!   into the same merge (the `--shard` + `--remote-shard` combination of
//!   the CLI). Remote and local shards must partition one relation and
//!   share a group-key namespace — servers derive stable keys by hashing
//!   the group label, see `ShardImportOptions` in `ttk-pdb`.
//! * [`RemoteShardDataset::with_pushdown`] announces the query's `(k, pτ)`
//!   on every connection, so servers ship only their Theorem-2 prefix; the
//!   merge-side gate pushes its tightening bound back every 64 tuples
//!   pulled off a connection.
//! * [`RemoteShardDataset::with_connect_options`] bounds and retries the
//!   dial: every connection attempt runs under [`ConnectOptions`] —
//!   per-attempt connect timeout, optional read timeout on the established
//!   socket, and exponential-backoff retries covering refused dials, failed
//!   scan announcements and connections lost before the hello frame — so a
//!   server still starting up (or briefly restarting) is retried instead of
//!   failing the query, and a black-holed address fails after a bounded wait
//!   instead of hanging a `Session` verb forever.
//!
//! Opening the dataset reads each connection's hello frame **eagerly**: when
//! servers attach a [`ShardAssignment`] (coordinator-leased id bases, see
//! `ttk coordinator`), the per-connection hellos are cross-checked —
//! conflicting group-key namespaces or overlapping tuple-id ranges fail the
//! open with a message naming the offending servers, instead of silently
//! merging shards that never partitioned one relation.
//!
//! Connection failures (after the retry budget), mid-stream disconnects and
//! server-side errors all surface as [`Error::Source`] on the pulling thread
//! — a remote scan never hangs on a dead peer and never silently truncates.

use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use ttk_uncertain::wire::{self, PushdownQuery};
use ttk_uncertain::{
    Error, Result, ScanHandle, ShardAssignment, SourceTuple, TupleBlock, TupleSource, WireReader,
    WireScanStats,
};

use crate::scan_depth::GateMeter;
use crate::session::{Dataset, DatasetPlan, DatasetProvider, ScanPath, ScanSpec};

/// Dial behaviour of a [`RemoteShardDataset`]: how long to wait, how often
/// to retry, and how fast to back off.
///
/// A *retryable* failure is anything that happens before the peer's hello
/// frame is decoded — name resolution, the TCP dial, the scan announcement,
/// a connection reset mid-handshake. Once the hello has arrived the stream
/// belongs to the merge, and later failures surface as [`Error::Source`]
/// without reconnecting (a resumed stream could silently skip tuples).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectOptions {
    /// Upper bound on each individual TCP dial.
    pub connect_timeout: Duration,
    /// Read timeout armed on the established socket for the whole stream
    /// (`None` = block forever on a silent peer).
    pub read_timeout: Option<Duration>,
    /// Additional attempts after the first failed dial/handshake.
    pub retries: u32,
    /// Sleep before the first retry; doubles on every further retry.
    pub backoff: Duration,
}

impl Default for ConnectOptions {
    fn default() -> Self {
        ConnectOptions {
            connect_timeout: Duration::from_secs(10),
            read_timeout: None,
            retries: 3,
            backoff: Duration::from_millis(100),
        }
    }
}

impl ConnectOptions {
    /// Sets both timeouts (connect and read) to `timeout`.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = timeout;
        self.read_timeout = Some(timeout);
        self
    }

    /// Sets the retry budget.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Sets the initial backoff (doubled per retry).
    pub fn with_backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }
}

/// Opens the local shard streams merged alongside the remote connections.
type LocalShardOpener = Box<dyn Fn() -> Result<Vec<Box<dyn TupleSource + Send>>> + Send + Sync>;

/// A relation whose shards are served by remote processes over the wire
/// protocol. See the [module documentation](self).
pub struct RemoteShardDataset {
    addrs: Vec<String>,
    local: Option<LocalShardOpener>,
    local_count: usize,
    connect: ConnectOptions,
    pushdown: bool,
}

/// How many tuples the client pulls off a pushdown connection between two
/// bound updates, which re-send the merge-side gate's accumulated mass so
/// the server's shard gate can stop earlier.
const BOUND_UPDATE_EVERY: u64 = 64;

/// The announcement of a full replay: `k = 0` asks for the whole shard.
const FULL_REPLAY: PushdownQuery = PushdownQuery { k: 0, p_tau: 0.0 };

impl std::fmt::Debug for RemoteShardDataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteShardDataset")
            .field("addrs", &self.addrs)
            .field("local_shards", &self.local_count)
            .field("connect", &self.connect)
            .field("pushdown", &self.pushdown)
            .finish()
    }
}

impl RemoteShardDataset {
    /// A dataset over the shard servers at `addrs` (`host:port`, one shard
    /// stream per address). Nothing is connected until the first open.
    pub fn new(addrs: impl IntoIterator<Item = impl Into<String>>) -> Self {
        RemoteShardDataset {
            addrs: addrs.into_iter().map(Into::into).collect(),
            local: None,
            local_count: 0,
            connect: ConnectOptions::default(),
            pushdown: true,
        }
    }

    /// Enables or disables scan-gate pushdown (on by default): when enabled,
    /// every connection opened through a [`Session`](crate::Session)
    /// announces the query's Theorem-2 parameters up front, so servers ship
    /// only their conservative prefix instead of the whole shard; when
    /// disabled, connections announce `k = 0` and servers ship everything.
    /// Results are bit-identical either way.
    pub fn with_pushdown(mut self, pushdown: bool) -> Self {
        self.pushdown = pushdown;
        self
    }

    /// Sets the dial behaviour (timeouts, retries, backoff) applied to every
    /// connection of every open.
    pub fn with_connect_options(mut self, connect: ConnectOptions) -> Self {
        self.connect = connect;
        self
    }

    /// Merges `count` locally-opened shard streams alongside the remote
    /// ones; `open` is called once per query for fresh streams (sources are
    /// single-pass) and must yield exactly `count` shards of the same
    /// partitioned relation, in a group-key namespace shared with the
    /// servers.
    pub fn with_local_shards(
        mut self,
        count: usize,
        open: impl Fn() -> Result<Vec<Box<dyn TupleSource + Send>>> + Send + Sync + 'static,
    ) -> Self {
        self.local = Some(Box::new(open));
        self.local_count = count;
        self
    }

    /// Wraps the provider into the unified [`Dataset`] type consumed by
    /// [`Session`](crate::Session).
    pub fn into_dataset(self) -> Dataset {
        let mut label = format!("remote({})", self.addrs.join(", "));
        if self.local_count > 0 {
            label.push_str(&format!(" + {} local shards", self.local_count));
        }
        Dataset::from_provider(self).with_label(label)
    }
}

/// Resolves `addr` and connects under the options' connect timeout, arming
/// the read timeout on the established socket.
///
/// # Errors
///
/// [`Error::Source`] when the address does not resolve, no resolved address
/// accepts the dial in time, or the socket cannot be configured.
pub fn connect(addr: &str, options: &ConnectOptions) -> Result<TcpStream> {
    let sock_addrs: Vec<_> = addr
        .to_socket_addrs()
        .map_err(|e| Error::Source(format!("resolving {addr}: {e}")))?
        .collect();
    let mut last = None;
    let stream = sock_addrs
        .iter()
        .find_map(
            |sock| match TcpStream::connect_timeout(sock, options.connect_timeout) {
                Ok(stream) => Some(stream),
                Err(e) => {
                    last = Some(e);
                    None
                }
            },
        )
        .ok_or_else(|| match last {
            Some(e) => Error::Source(format!("dialing {addr}: {e}")),
            None => Error::Source(format!("{addr} resolved to no addresses")),
        })?;
    stream
        .set_read_timeout(options.read_timeout)
        .map_err(|e| Error::Source(format!("arming read timeout on {addr}: {e}")))?;
    Ok(stream)
}

/// Runs `attempt` up to `retries + 1` times under exponential backoff until
/// it succeeds. An error whose message starts with `semantic` means the
/// server answered and refused, which retrying cannot help: it returns at
/// once. Every attempt must use a fresh connection, so a retry never
/// resumes a half-spoken exchange.
///
/// # Errors
///
/// The refusal as is, or [`Error::Source`] naming `action`, the first and
/// last failures and the attempt count once the budget is spent.
pub fn retry<T>(
    options: &ConnectOptions,
    action: &str,
    semantic: &str,
    mut attempt: impl FnMut() -> Result<T>,
) -> Result<T> {
    let mut delay = options.backoff;
    let mut first = None;
    let mut last = None;
    for round in 0..=options.retries {
        if round > 0 {
            std::thread::sleep(delay);
            delay = delay.saturating_mul(2);
        }
        match attempt() {
            Ok(value) => return Ok(value),
            Err(Error::Source(m)) if m.starts_with(semantic) => return Err(Error::Source(m)),
            Err(e) => {
                // Unwrap the Error::Source shell so the final message does
                // not nest its prefix per attempt.
                let text = match e {
                    Error::Source(m) => m,
                    other => other.to_string(),
                };
                first.get_or_insert(text.clone());
                last = Some(text);
            }
        }
    }
    let attempts = options.retries as usize + 1;
    let first = first.expect("at least one attempt ran");
    let last = last.expect("at least one attempt ran");
    // When later attempts fail differently (a one-shot server consumed, a
    // port recycled), the first failure is usually the diagnostic one — keep
    // both.
    let history = if last == first {
        first
    } else {
        format!("{first}; finally: {last}")
    };
    Err(Error::Source(format!(
        "{action}: {history} (after {attempts} attempt{})",
        if attempts == 1 { "" } else { "s" }
    )))
}

/// One dial attempt: connect, announce `query` (the client speaks first,
/// see [`ttk_uncertain::wire`]), and decode the hello eagerly so handshake
/// failures stay retryable. Returns the reader and the connection's write
/// half, which carries the bound updates.
fn try_dial(
    addr: &str,
    options: &ConnectOptions,
    query: &PushdownQuery,
) -> Result<(WireReader<BufReader<TcpStream>>, TcpStream)> {
    let stream = connect(addr, options)?;
    let mut write_half = stream
        .try_clone()
        .map_err(|e| Error::Source(format!("cloning the socket to {addr}: {e}")))?;
    wire::write_scan(&mut write_half, query)?;
    let mut reader = WireReader::new(BufReader::new(stream));
    reader.hello()?;
    Ok((reader, write_half))
}

/// Cross-checks the hello assignments of every connection: all asserted
/// namespaces must agree and no two asserted tuple-id ranges may overlap.
/// Servers that asserted nothing are skipped.
fn validate_assignments(
    assignments: &[(String, Option<ShardAssignment>, Option<usize>)],
) -> Result<()> {
    let asserted: Vec<(&String, &ShardAssignment, Option<usize>)> = assignments
        .iter()
        .filter_map(|(addr, a, hint)| a.as_ref().map(|a| (addr, a, *hint)))
        .filter(|(_, a, _)| !a.namespace.is_empty())
        .collect();
    for window in asserted.windows(2) {
        let ((addr_a, a, _), (addr_b, b, _)) = (&window[0], &window[1]);
        if a.namespace != b.namespace {
            return Err(Error::Source(format!(
                "shard servers disagree on the group-key namespace: {addr_a} serves \
                 `{}` but {addr_b} serves `{}` — these shards do not partition one \
                 relation",
                a.namespace, b.namespace
            )));
        }
    }
    // Overlapping id ranges mean two servers were leased (or configured) the
    // same rows; merging them would double-count tuples.
    let mut ranges: Vec<(&String, u64, Option<u64>)> = asserted
        .iter()
        // Saturating: base and hint are wire-controlled values, and a wrap
        // here would silence the very overlap this check exists to catch.
        .map(|(addr, a, hint)| {
            (
                *addr,
                a.id_base,
                hint.map(|h| a.id_base.saturating_add(h as u64)),
            )
        })
        .collect();
    ranges.sort_by_key(|(_, base, _)| *base);
    for window in ranges.windows(2) {
        let ((addr_a, base_a, end_a), (addr_b, base_b, _)) = (&window[0], &window[1]);
        let collides = match end_a {
            Some(end_a) => base_b < end_a,
            // Without a size hint only an identical base is provably wrong.
            None => base_b == base_a,
        };
        if collides {
            return Err(Error::Source(format!(
                "shard servers {addr_a} and {addr_b} serve overlapping tuple-id \
                 ranges (bases {base_a} and {base_b}) — check the id-base leases"
            )));
        }
    }
    Ok(())
}

/// One remote connection as the merge sees it: decoded tuples counted into
/// the shared [`WireScanStats`], with the merge-side gate's mass pushed back
/// to the server every [`BOUND_UPDATE_EVERY`] pulls while the write half
/// lives (a failed update write drops it, and the connection just counts
/// from then on).
struct BoundSource {
    reader: WireReader<BufReader<TcpStream>>,
    write: Option<TcpStream>,
    meter: GateMeter,
    last_sent: f64,
    pulls: u64,
    stats: Arc<WireScanStats>,
    finished: bool,
    /// Frame counts already folded into `stats`, so each harvest only adds
    /// the delta since the previous reader call.
    reported_frames: (u64, u64),
}

impl BoundSource {
    /// Pushes the merge-side gate's mass to the server when it grew — the
    /// server keeps the max anyway. A dead write half ends the updates, not
    /// the scan: the server falls back to its local-only bound.
    fn send_bound(&mut self) {
        let Some(write) = &mut self.write else {
            return;
        };
        let mass = self.meter.current();
        if mass > self.last_sent {
            match wire::write_bound(write, mass) {
                Ok(()) => self.last_sent = mass,
                Err(_) => self.write = None,
            }
        }
    }

    /// Folds what the last reader call decoded into the shared stats: newly
    /// decoded block frames (the reader decodes block frames into its buffer
    /// even when the merge above drains tuple-at-a-time, so pull-site
    /// counting alone would miss the wire framing entirely) and, once the
    /// stream has ended, the server's stopped-at trailer.
    fn account<T>(&mut self, pulled: &Result<Option<T>>) {
        let (frames, rows) = self.reader.block_frames_decoded();
        let (seen_frames, seen_rows) = self.reported_frames;
        if frames > seen_frames || rows > seen_rows {
            self.stats
                .record_block_frames(frames - seen_frames, rows - seen_rows);
            self.reported_frames = (frames, rows);
        }
        if matches!(pulled, Ok(None)) && !self.finished {
            self.finished = true;
            if let Some(stopped) = self.reader.stopped_at() {
                self.stats.record_stopped(stopped);
            }
        }
    }
}

impl TupleSource for BoundSource {
    fn next_tuple(&mut self) -> Result<Option<SourceTuple>> {
        self.pulls += 1;
        if self.pulls.is_multiple_of(BOUND_UPDATE_EVERY) {
            self.send_bound();
        }
        let pulled = self.reader.next_tuple();
        self.account(&pulled);
        if let Ok(Some(_)) = &pulled {
            self.stats.record_tuple();
        }
        pulled
    }

    fn next_block(&mut self, max: usize) -> Result<Option<TupleBlock>> {
        // Blocks are hundreds of tuples, so the bound-update cadence check
        // runs once per block pull instead of every `BOUND_UPDATE_EVERY`
        // tuples.
        self.send_bound();
        let pulled = self.reader.next_block(max);
        self.account(&pulled);
        if let Ok(Some(block)) = &pulled {
            self.pulls += block.len() as u64;
            self.stats.record_block_pull(block.len());
        }
        pulled
    }

    fn size_hint(&self) -> Option<usize> {
        self.reader.size_hint()
    }
}

impl RemoteShardDataset {
    /// The shared open path: dials every address announcing `query`,
    /// cross-checks the hellos, and fuses the connections — wrapped in
    /// counting/bounding [`BoundSource`]s — with any local shards.
    fn open_connections(&self, query: &PushdownQuery, meter: &GateMeter) -> Result<ScanHandle> {
        let stats = Arc::new(WireScanStats::default());
        let mut shards: Vec<Box<dyn TupleSource + Send>> =
            Vec::with_capacity(self.addrs.len() + self.local_count);
        let mut assignments = Vec::with_capacity(self.addrs.len());
        for addr in &self.addrs {
            let action = format!("connecting to shard server {addr}");
            let (mut reader, write) =
                retry(&self.connect, &action, "remote source failed", || {
                    try_dial(addr, &self.connect, query)
                })?;
            let hello = reader.hello().expect("hello decoded during dial").clone();
            assignments.push((addr.clone(), hello.assignment, hello.size_hint));
            shards.push(Box::new(BoundSource {
                reader,
                write: Some(write),
                meter: meter.clone(),
                last_sent: 0.0,
                pulls: 0,
                stats: Arc::clone(&stats),
                finished: false,
                reported_frames: (0, 0),
            }));
        }
        validate_assignments(&assignments)?;
        if let Some(open) = &self.local {
            shards.extend(open()?);
        }
        Ok(ScanHandle::merged(shards).with_wire_stats(stats))
    }
}

impl DatasetProvider for RemoteShardDataset {
    fn open(&self) -> Result<ScanHandle> {
        // No query context: a full replay, counted but never gated
        // server-side.
        self.open_connections(&FULL_REPLAY, &GateMeter::new())
    }

    fn open_for(&self, spec: &ScanSpec) -> Result<ScanHandle> {
        let query = if self.pushdown && !spec.full_stream {
            PushdownQuery {
                k: spec.k as u64,
                p_tau: spec.p_tau,
            }
        } else {
            FULL_REPLAY
        };
        self.open_connections(&query, &spec.meter)
    }

    fn plan(&self) -> DatasetPlan {
        DatasetPlan {
            path: ScanPath::Remote {
                remote: self.addrs.len(),
                local: self.local_count,
            },
            // Row counts arrive with each connection's hello frame; the plan
            // never connects, so they are unknown here.
            rows: None,
        }
    }

    fn plan_for(&self, full_stream: bool) -> DatasetPlan {
        let path = if self.pushdown && !full_stream {
            ScanPath::RemotePushdown {
                remote: self.addrs.len(),
                local: self.local_count,
            }
        } else {
            ScanPath::Remote {
                remote: self.addrs.len(),
                local: self.local_count,
            }
        };
        DatasetPlan { path, rows: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{serve_stream, ServeOptions, Session, TopkQuery};
    use std::net::TcpListener;
    use ttk_uncertain::{SourceTuple, UncertainTuple, VecSource};

    fn tuples(n: u64) -> Vec<SourceTuple> {
        (0..n)
            .map(|i| {
                let t = UncertainTuple::new(i, (n - i) as f64, 0.6).unwrap();
                if i % 4 == 0 {
                    SourceTuple::grouped(t, i / 4)
                } else {
                    SourceTuple::independent(t)
                }
            })
            .collect()
    }

    /// Serves each shard once over a loopback listener; returns the
    /// addresses.
    fn serve_once(shards: Vec<Vec<SourceTuple>>) -> Vec<String> {
        shards
            .into_iter()
            .map(|shard| {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let addr = listener.local_addr().unwrap().to_string();
                std::thread::spawn(move || {
                    let (stream, _) = listener.accept().unwrap();
                    let mut source = VecSource::new(shard);
                    let _ = serve_stream(stream, &mut source, None, &ServeOptions::default());
                });
                addr
            })
            .collect()
    }

    #[test]
    fn remote_scan_matches_the_local_scan() {
        let all = tuples(60);
        let shards: Vec<Vec<SourceTuple>> = (0..3)
            .map(|s| {
                all.iter()
                    .enumerate()
                    .filter(|(i, _)| i % 3 == s)
                    .map(|(_, t)| *t)
                    .collect()
            })
            .collect();
        let query = TopkQuery::new(3).with_p_tau(1e-3).with_u_topk(false);
        let mut session = Session::new();
        let local = session
            .execute(&Dataset::stream(VecSource::new(all)), &query)
            .unwrap();

        let dataset = RemoteShardDataset::new(serve_once(shards)).into_dataset();
        let plan = session.explain(&dataset, &query);
        assert_eq!(
            plan.path,
            ScanPath::RemotePushdown {
                remote: 3,
                local: 0
            }
        );
        let remote = session.execute(&dataset, &query).unwrap();
        assert_eq!(remote.distribution, local.distribution);
        assert_eq!(remote.scan_depth, local.scan_depth);
        assert_eq!(remote.typical.scores(), local.typical.scores());
    }

    #[test]
    fn mixed_local_and_remote_shards_merge_into_one_relation() {
        let all = tuples(40);
        let remote_shard: Vec<SourceTuple> = all.iter().step_by(2).copied().collect();
        let local_shard: Vec<SourceTuple> = all.iter().skip(1).step_by(2).copied().collect();
        let query = TopkQuery::new(2).with_p_tau(1e-3).with_u_topk(false);
        let mut session = Session::new();
        let single = session
            .execute(&Dataset::stream(VecSource::new(all)), &query)
            .unwrap();

        let dataset = RemoteShardDataset::new(serve_once(vec![remote_shard]))
            .with_local_shards(1, move || {
                Ok(vec![
                    Box::new(VecSource::new(local_shard.clone())) as Box<dyn TupleSource + Send>
                ])
            })
            .into_dataset();
        assert_eq!(
            session.explain(&dataset, &query).path,
            ScanPath::RemotePushdown {
                remote: 1,
                local: 1
            }
        );
        let mixed = session.execute(&dataset, &query).unwrap();
        assert_eq!(mixed.distribution, single.distribution);
        assert_eq!(mixed.scan_depth, single.scan_depth);
    }

    #[test]
    fn unreachable_server_is_a_source_error() {
        // A bound-then-dropped listener leaves a port nothing listens on.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let dataset = RemoteShardDataset::new([addr]).into_dataset();
        let err = Session::new()
            .execute(&dataset, &TopkQuery::new(1))
            .unwrap_err();
        assert!(matches!(err, Error::Source(_)), "{err:?}");
    }
}
