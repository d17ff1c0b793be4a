//! The query-serving layer behind `ttk serve`: whole queries ship to a
//! resident-dataset daemon, answers ship back.
//!
//! The shard fabric of [`serve`](crate::serve) / [`remote`](crate::remote)
//! moves *tuples*: every remote query replays (a Theorem-2 prefix of) the
//! shard stream and pays scan setup on the client. This module moves
//! *queries*: a daemon keeps its datasets resident (a
//! [`DatasetRegistry`]), reuses one [`Session`] per worker so cost
//! observations accumulate across connections, and consults a shared
//! [`ResultCache`] so repeated (dataset, algorithm, k, pτ) queries skip
//! execution entirely.
//!
//! Three layers live here:
//!
//! * conversions between the engine types and the wire structs —
//!   [`request_for`] / [`query_from_request`] and [`answer_to_wire`] /
//!   [`answer_from_wire`]. The wire codec preserves raw IEEE-754 bits and
//!   per-line witnesses, so a decoded answer compares equal to the answer
//!   the executor produced.
//! * [`serve_client`] — one connection's server side: read the opening
//!   frame (bounded by [`QueryServeOptions::request_wait`] so a stalled
//!   client cannot pin a worker forever) and dispatch on it. A query is
//!   answered from the cache or executed; an append lands on a
//!   registry-resident live dataset's [`AppendLog`](crate::live::AppendLog)
//!   (optionally sealing), bumps the cache generation when the epoch
//!   advances and is acknowledged with the new watermark; a subscription
//!   turns the connection into a push stream that re-evaluates the standing
//!   query whenever the epoch advances and pushes a notification + full
//!   result **only when the answer distribution actually shifted**
//!   ([`answer_hash`] compares distributions, not scan bookkeeping); an
//!   admin request carries a lifecycle verb — `stats`, `register`,
//!   `unregister`, `reload`, `compact` — against the shared
//!   [`DatasetRegistry`]. Every failure, a refused opening frame included, is
//!   answered with an error frame on a best-effort basis and surfaced to the
//!   caller, which isolates it to this connection.
//! * [`RemoteQueryClient`] — the client side: dial with the same
//!   retry/backoff discipline as the shard client, send the request, decode
//!   the answer. [`RemoteQueryClient::plan`] folds the server-reported scan
//!   depth, cache outcome, epoch and live-scan tail into a
//!   [`PlanDescription`] for `ttk explain --server --after`.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ttk_uncertain::wire::{
    self, AdminRequest, AdminVerb, AppendAck, AppendRequest, ClientRequest, Notification,
    QueryRequest, QueryResult, SubscribeRequest, WireTypical, WireUTopk, WIRE_VERSION_V6,
};
use ttk_uncertain::{CoalescePolicy, Error, Result, ScoreDistribution, SourceTuple};

use crate::baselines::UTopkAnswer;
use crate::query::{Algorithm, QueryAnswer, TopkQuery};
use crate::registry::{CacheKey, DatasetRegistry, ResultCache};
use crate::remote::{self, ConnectOptions};
use crate::session::{estimated_cost, estimated_scan_depth, PlanDescription, ScanPath, Session};
use crate::typical::{TypicalAnswer, TypicalSelection};

/// Wire code for an [`Algorithm`] (stable across releases — append only).
pub fn algorithm_code(algorithm: Algorithm) -> u8 {
    match algorithm {
        Algorithm::Main => 0,
        Algorithm::MainPerEnding => 1,
        Algorithm::StateExpansion => 2,
        Algorithm::KCombo => 3,
        Algorithm::Exhaustive => 4,
    }
}

/// Decodes an [`Algorithm`] wire code.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for an unknown code (a newer client
/// speaking to an older server).
pub fn algorithm_from_code(code: u8) -> Result<Algorithm> {
    Ok(match code {
        0 => Algorithm::Main,
        1 => Algorithm::MainPerEnding,
        2 => Algorithm::StateExpansion,
        3 => Algorithm::KCombo,
        4 => Algorithm::Exhaustive,
        other => {
            return Err(Error::InvalidParameter(format!(
                "unknown algorithm code {other} (this server knows codes 0..=4)"
            )))
        }
    })
}

/// Wire code for a [`CoalescePolicy`] (stable across releases).
pub fn coalesce_code(policy: CoalescePolicy) -> u8 {
    match policy {
        CoalescePolicy::PaperMean => 0,
        CoalescePolicy::WeightedMean => 1,
    }
}

/// Decodes a [`CoalescePolicy`] wire code.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for an unknown code.
pub fn coalesce_from_code(code: u8) -> Result<CoalescePolicy> {
    Ok(match code {
        0 => CoalescePolicy::PaperMean,
        1 => CoalescePolicy::WeightedMean,
        other => {
            return Err(Error::InvalidParameter(format!(
                "unknown coalesce-policy code {other} (this server knows codes 0 and 1)"
            )))
        }
    })
}

/// The wire request for `query` against the resident dataset `dataset`.
pub fn request_for(dataset: &str, query: &TopkQuery) -> QueryRequest {
    QueryRequest {
        dataset: dataset.to_string(),
        k: query.k as u64,
        p_tau: query.p_tau,
        typical_count: query.typical_count as u64,
        max_lines: query.max_lines as u64,
        algorithm: algorithm_code(query.algorithm),
        coalesce: coalesce_code(query.coalesce_policy),
        u_topk: query.compute_u_topk,
    }
}

/// Reconstructs the engine query a request describes.
///
/// The possible-world budget (`world_limit`) is *not* part of the wire
/// request: the serving process enforces its own budget, so a remote client
/// cannot ask an exhaustive enumeration past what the server allows.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for unknown algorithm or
/// coalesce-policy codes (shape validation — k ≥ 1, pτ ∈ (0, 1) — already
/// happened when the frame was decoded).
pub fn query_from_request(request: &QueryRequest) -> Result<TopkQuery> {
    Ok(TopkQuery::new(request.k as usize)
        .with_p_tau(request.p_tau)
        .with_typical_count(request.typical_count as usize)
        .with_max_lines(request.max_lines as usize)
        .with_algorithm(algorithm_from_code(request.algorithm)?)
        .with_coalesce_policy(coalesce_from_code(request.coalesce)?)
        .with_u_topk(request.u_topk))
}

/// Flattens a finished answer into the wire result, tagged with whether it
/// came from the result cache. The epoch, cache generation and live-scan
/// tail are zero; the serving path stamps them.
pub fn answer_to_wire(answer: &QueryAnswer, cache_hit: bool) -> QueryResult {
    QueryResult {
        version: WIRE_VERSION_V6,
        epoch: 0,
        cache_generation: 0,
        live: false,
        live_segments: 0,
        compacted_epoch: 0,
        cache_hit,
        scan_depth: answer.scan_depth as u64,
        distribution_time_ns: answer.distribution_time.as_nanos() as u64,
        typical_time_ns: answer.typical_time.as_nanos() as u64,
        expected_distance: answer.typical.expected_distance,
        points: answer.distribution.points().to_vec(),
        typical: answer
            .typical
            .answers
            .iter()
            .map(|typical| WireTypical {
                score: typical.score,
                probability: typical.probability,
                vector: typical.vector.clone(),
            })
            .collect(),
        u_topk: answer.u_topk.as_ref().map(|u_topk| WireUTopk {
            vector: u_topk.vector.clone(),
            expansions: u_topk.expansions,
            deepest_position: u_topk.deepest_position as u64,
        }),
    }
}

/// Rebuilds the engine answer a wire result carries, plus the server's
/// cache outcome.
///
/// The distribution is reconstructed verbatim
/// ([`ScoreDistribution::from_points`]) — no re-coalescing — so the decoded
/// answer is bit-identical to what the serving process computed.
pub fn answer_from_wire(result: QueryResult) -> (QueryAnswer, bool) {
    let cache_hit = result.cache_hit;
    let answer = QueryAnswer {
        distribution: ScoreDistribution::from_points(result.points),
        typical: TypicalSelection {
            answers: result
                .typical
                .into_iter()
                .map(|typical| TypicalAnswer {
                    score: typical.score,
                    probability: typical.probability,
                    vector: typical.vector,
                })
                .collect(),
            expected_distance: result.expected_distance,
        },
        u_topk: result.u_topk.map(|u_topk| UTopkAnswer {
            vector: u_topk.vector,
            expansions: u_topk.expansions,
            deepest_position: u_topk.deepest_position as usize,
        }),
        scan_depth: result.scan_depth as usize,
        distribution_time: Duration::from_nanos(result.distribution_time_ns),
        typical_time: Duration::from_nanos(result.typical_time_ns),
    };
    (answer, cache_hit)
}

/// Knobs of [`serve_client`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryServeOptions {
    /// How long a worker waits for the connection's request frame before
    /// giving up on the client (a stalled client holds its worker for at
    /// most this long). `Duration::ZERO` waits forever.
    pub request_wait: Duration,
    /// How long a subscription loop sleeps on the epoch condvar before
    /// re-checking its stop conditions (daemon shutdown, client
    /// disconnect). Purely a responsiveness/cost trade-off: an epoch
    /// advance wakes the loop immediately regardless.
    pub subscription_poll: Duration,
}

impl Default for QueryServeOptions {
    fn default() -> Self {
        QueryServeOptions {
            request_wait: Duration::from_secs(10),
            subscription_poll: Duration::from_millis(50),
        }
    }
}

/// What one served connection did — the daemon's per-connection log line.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryServeSummary {
    /// Registered name of the dataset queried.
    pub dataset: String,
    /// Process-unique id of that dataset (the cache-key component).
    pub dataset_id: u64,
    /// Algorithm the query selected.
    pub algorithm: Algorithm,
    /// Query size k.
    pub k: usize,
    /// Probability threshold pτ.
    pub p_tau: f64,
    /// True when the answer came from the result cache.
    pub cache_hit: bool,
    /// Scan depth of the answer that was shipped (the cold run's depth when
    /// the cache answered).
    pub scan_depth: usize,
    /// The dataset epoch the answer is pinned to (0 for static datasets).
    pub epoch: u64,
    /// The result cache's generation when the answer shipped.
    pub cache_generation: u64,
    /// Sealed segments under the live snapshot answered from (`None` for
    /// static datasets).
    pub live_segments: Option<u64>,
    /// Epoch of the live log's most recent compaction, 0 = never (`None`
    /// for static datasets).
    pub compacted_epoch: Option<u64>,
}

impl fmt::Display for QueryServeSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "query `{}` (dataset id {}, epoch {}): algorithm {:?}, k = {}, p_tau = {:e} -> cache {} (generation {}), scan depth {} tuples",
            self.dataset,
            self.dataset_id,
            self.epoch,
            self.algorithm,
            self.k,
            self.p_tau,
            if self.cache_hit { "hit" } else { "miss" },
            self.cache_generation,
            self.scan_depth,
        )?;
        if let Some(segments) = self.live_segments {
            write!(f, ", {segments} live segments")?;
        }
        if let Some(compacted) = self.compacted_epoch {
            match compacted {
                0 => write!(f, ", never compacted")?,
                epoch => write!(f, ", last compacted at epoch {epoch}")?,
            }
        }
        Ok(())
    }
}

/// One query: resolve the dataset, answer from `cache` or execute on
/// `session`, ship the result.
fn serve_decoded_query(
    stream: &TcpStream,
    request: &QueryRequest,
    registry: &DatasetRegistry,
    cache: &ResultCache,
    session: &mut Session,
) -> Result<QueryServeSummary> {
    let query = query_from_request(request)?;
    let dataset = registry
        .get(&request.dataset)
        .ok_or_else(|| no_such_dataset(registry, &request.dataset))?;

    let epoch = dataset.epoch();
    let key = CacheKey::new(dataset.id(), epoch, &query);
    let (answer, cache_hit) = match cache.get(&key) {
        Some(answer) => (answer, true),
        None => {
            let answer = Arc::new(session.execute(&dataset, &query)?);
            cache.insert(key, Arc::clone(&answer));
            (answer, false)
        }
    };

    // The live-scan tail of the result and the daemon's summary line.
    let live_meta = registry.live(&request.dataset).map(|log| {
        let snapshot = log.snapshot();
        (snapshot.segment_count() as u64, snapshot.compacted_epoch())
    });

    let cache_generation = cache.generation();
    let mut result = answer_to_wire(&answer, cache_hit);
    result.epoch = epoch;
    result.cache_generation = cache_generation;
    if let Some((segments, compacted)) = live_meta {
        result.live = true;
        result.live_segments = segments;
        result.compacted_epoch = compacted;
    }
    let mut writer = BufWriter::new(stream);
    wire::write_query_result(&mut writer, &result)?;

    Ok(QueryServeSummary {
        dataset: request.dataset.clone(),
        dataset_id: dataset.id(),
        algorithm: query.algorithm,
        k: query.k,
        p_tau: query.p_tau,
        cache_hit,
        scan_depth: answer.scan_depth,
        epoch,
        cache_generation,
        live_segments: live_meta.map(|(segments, _)| segments),
        compacted_epoch: live_meta.map(|(_, compacted)| compacted),
    })
}

/// The "no such dataset" refusal every request kind answers with.
fn no_such_dataset(registry: &DatasetRegistry, name: &str) -> Error {
    let resident = registry.names().join(", ");
    Error::InvalidParameter(if resident.is_empty() {
        format!("no such dataset `{name}` (no datasets are resident)")
    } else {
        format!("no such dataset `{name}`; resident datasets: {resident}")
    })
}

/// A stable fingerprint of *what a query answered* — the score
/// distribution (raw IEEE-754 bits), the typical selection, and the U-Top-k
/// vector when present.
///
/// Scan bookkeeping (scan depth, timings, per-line witnesses, U-Top-k
/// pass counters) is deliberately excluded: an append that does not
/// change the top-k distribution may still change how deep the scan ran,
/// and a standing subscription must stay silent for it.
pub fn answer_hash(answer: &QueryAnswer) -> u64 {
    let mut hasher = DefaultHasher::new();
    for point in answer.distribution.points() {
        point.score.to_bits().hash(&mut hasher);
        point.probability.to_bits().hash(&mut hasher);
    }
    answer.typical.expected_distance.to_bits().hash(&mut hasher);
    for typical in &answer.typical.answers {
        typical.score.to_bits().hash(&mut hasher);
        typical.probability.to_bits().hash(&mut hasher);
    }
    if let Some(u_topk) = &answer.u_topk {
        for id in u_topk.vector.ids() {
            id.raw().hash(&mut hasher);
        }
    }
    hasher.finish()
}

/// What one append connection did — the daemon's log line for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendServeSummary {
    /// Registered name of the live dataset appended to.
    pub dataset: String,
    /// Rows the request carried (all accepted, or none).
    pub rows: u64,
    /// The acknowledgement shipped back: the watermark after the request.
    pub ack: AppendAck,
    /// The result cache's generation after the request (bumped when the
    /// epoch advanced).
    pub cache_generation: u64,
}

impl fmt::Display for AppendServeSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "append `{}`: {} rows accepted -> epoch {}, {} staged, {} visible{}, cache generation {}",
            self.dataset,
            self.rows,
            self.ack.epoch,
            self.ack.staged,
            self.ack.sealed_rows,
            if self.ack.sealed_now { " (sealed)" } else { "" },
            self.cache_generation,
        )
    }
}

/// What one subscription connection did over its lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubscriptionSummary {
    /// Registered name of the live dataset watched.
    pub dataset: String,
    /// Standing-query evaluations (one per epoch advance, plus the
    /// baseline).
    pub evaluations: u64,
    /// Pushes actually sent — evaluations whose answer distribution
    /// differed from the previous push.
    pub pushes: u64,
    /// The last epoch the subscription evaluated at.
    pub last_epoch: u64,
}

impl fmt::Display for SubscriptionSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "subscription `{}`: {} evaluations, {} pushes, last epoch {}",
            self.dataset, self.evaluations, self.pushes, self.last_epoch,
        )
    }
}

/// What one admin connection did — the daemon's log line for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdminServeSummary {
    /// The lifecycle verb executed.
    pub verb: AdminVerb,
    /// The dataset the verb targeted (empty for `stats`).
    pub target: String,
    /// The report shipped back to the admin client.
    pub report: String,
}

impl fmt::Display for AdminServeSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let first_line = self.report.lines().next().unwrap_or("");
        if self.target.is_empty() {
            write!(f, "admin {}: {first_line}", self.verb)
        } else {
            write!(f, "admin {} `{}`: {first_line}", self.verb, self.target)
        }
    }
}

/// What one served connection turned out to be, for the daemon's log.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeOutcome {
    /// A one-shot query.
    Query(QueryServeSummary),
    /// An append (+ optional seal) to a live dataset.
    Append(AppendServeSummary),
    /// A standing-query subscription that has now ended.
    Subscription(SubscriptionSummary),
    /// An admin-plane request.
    Admin(AdminServeSummary),
}

impl fmt::Display for ServeOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeOutcome::Query(summary) => summary.fmt(f),
            ServeOutcome::Append(summary) => summary.fmt(f),
            ServeOutcome::Subscription(summary) => summary.fmt(f),
            ServeOutcome::Admin(summary) => summary.fmt(f),
        }
    }
}

/// Serves one connection, whatever its first frame asks for: a query, an
/// append to a live dataset, a standing-query subscription or an admin
/// verb. Shard-stream kinds (scan announcements, registrations) are refused.
///
/// `stop` is the daemon's drain flag: a subscription loop re-checks it
/// every [`QueryServeOptions::subscription_poll`] and closes its push
/// stream cleanly when it flips, so workers can be joined.
///
/// # Errors
///
/// Every failure — a stalled, garbled or refused opening frame, an unknown
/// dataset, an execution error — is answered with a best-effort error frame
/// and returned, so the daemon's accept loop can log it and move on without
/// the connection poisoning anything shared. Connection-level failures are
/// [`Error::Source`]; dataset/execution errors propagate as-is.
pub fn serve_client(
    stream: TcpStream,
    registry: &DatasetRegistry,
    cache: &ResultCache,
    session: &mut Session,
    options: &QueryServeOptions,
    stop: &AtomicBool,
) -> Result<ServeOutcome> {
    let wait = Some(options.request_wait).filter(|wait| !wait.is_zero());
    stream
        .set_read_timeout(wait)
        .map_err(|e| Error::Source(format!("arming the request timeout: {e}")))?;
    let outcome = match wire::read_client_request(&mut &stream) {
        Ok(ClientRequest::Query(request)) => {
            serve_decoded_query(&stream, &request, registry, cache, session)
                .map(ServeOutcome::Query)
        }
        Ok(ClientRequest::Append(request)) => {
            serve_append(&stream, request, registry, cache).map(ServeOutcome::Append)
        }
        Ok(ClientRequest::Subscribe(request)) => {
            serve_subscription(&stream, &request, registry, cache, session, options, stop)
                .map(ServeOutcome::Subscription)
        }
        Ok(ClientRequest::Admin(request)) => {
            serve_admin(&stream, request, registry, cache).map(ServeOutcome::Admin)
        }
        Ok(other) => Err(Error::Source(format!(
            "a query-serving daemon does not serve a {}",
            other.name()
        ))),
        Err(e) => Err(e),
    };
    if let Err(e) = &outcome {
        let _ = wire::write_error(&mut &stream, &e.to_string());
    }
    outcome
}

/// One append connection: resolve the live dataset, apply the batch (and
/// the optional seal), bump the cache generation when the watermark moved,
/// acknowledge.
fn serve_append(
    stream: &TcpStream,
    request: AppendRequest,
    registry: &DatasetRegistry,
    cache: &ResultCache,
) -> Result<AppendServeSummary> {
    let log = registry.live(&request.dataset).ok_or_else(|| {
        if registry.get(&request.dataset).is_some() {
            Error::InvalidParameter(format!(
                "dataset `{}` is static; appends need a dataset served with --live",
                request.dataset
            ))
        } else {
            no_such_dataset(registry, &request.dataset)
        }
    })?;

    let rows = request.rows.len() as u64;
    let epoch_before = log.epoch();
    let mut outcome = log.append(request.rows)?;
    if request.seal {
        let sealed = log.seal();
        outcome = crate::live::AppendOutcome {
            sealed_now: outcome.sealed_now || sealed.sealed_now,
            ..sealed
        };
    }
    if outcome.epoch > epoch_before {
        cache.bump_generation();
    }

    let ack = AppendAck {
        epoch: outcome.epoch,
        staged: outcome.staged,
        sealed_rows: outcome.sealed_rows,
        sealed_now: outcome.sealed_now,
    };
    wire::write_append_ack(&mut &*stream, &ack)?;
    Ok(AppendServeSummary {
        dataset: request.dataset,
        rows,
        ack,
        cache_generation: cache.generation(),
    })
}

/// One admin connection: execute the lifecycle verb against the registry
/// and ship a human-readable report back in a single
/// [`wire::write_admin_response`] frame.
///
/// Failures return through `serve_client`'s common error path (a
/// best-effort error frame), so an admin client reads them as
/// `remote admin failed: …` — the same isolation every other request
/// kind gets.
fn serve_admin(
    stream: &TcpStream,
    request: AdminRequest,
    registry: &DatasetRegistry,
    cache: &ResultCache,
) -> Result<AdminServeSummary> {
    let AdminRequest { verb, name, arg } = request;
    let report = match verb {
        AdminVerb::Stats => stats_report(registry, cache),
        AdminVerb::Register => {
            let id = registry.admin_register(&name, &arg)?;
            format!("registered `{name}` from `{arg}` (dataset id {id})")
        }
        AdminVerb::Unregister => {
            registry.unregister(&name)?;
            format!("unregistered `{name}`; residents: {}", roster(registry))
        }
        AdminVerb::Reload => {
            let fresh = registry.reload(&name)?;
            cache.bump_generation();
            format!(
                "reloaded `{name}` (dataset id {}, cache generation {})",
                fresh.id(),
                cache.generation()
            )
        }
        AdminVerb::Compact => {
            let log = registry.live(&name).ok_or_else(|| {
                if registry.get(&name).is_some() {
                    Error::InvalidParameter(format!(
                        "dataset `{name}` is static; compaction applies to live datasets"
                    ))
                } else {
                    no_such_dataset(registry, &name)
                }
            })?;
            let outcome = log.compact();
            if outcome.compacted_now {
                cache.bump_generation();
                format!(
                    "compacted `{name}`: {} segments -> {} at epoch {} ({} rows visible)",
                    outcome.segments_before, outcome.segments_after, outcome.epoch, outcome.rows
                )
            } else {
                format!(
                    "nothing to compact in `{name}`: {} segment(s) at epoch {}",
                    outcome.segments_after, outcome.epoch
                )
            }
        }
    };
    wire::write_admin_response(&mut &*stream, &report)?;
    Ok(AdminServeSummary {
        verb,
        target: name,
        report,
    })
}

/// The `stats` verb's report: one line per resident dataset (live ones
/// with their epoch/segment/compaction state) plus the cache counters.
fn stats_report(registry: &DatasetRegistry, cache: &ResultCache) -> String {
    use std::fmt::Write as _;
    let names = registry.names();
    let mut report = format!("resident datasets: {}", names.len());
    for name in names {
        match registry.live(&name) {
            Some(log) => {
                let snapshot = log.snapshot();
                let _ = write!(
                    report,
                    "\n  {name}: live, epoch {}, {} segment(s), ",
                    snapshot.epoch(),
                    snapshot.segment_count()
                );
                match snapshot.compacted_epoch() {
                    0 => report.push_str("never compacted"),
                    epoch => {
                        let _ = write!(report, "last compacted at epoch {epoch}");
                    }
                }
                let _ = write!(
                    report,
                    ", {} row(s) visible, {} staged, {} subscriber(s)",
                    snapshot.rows(),
                    log.staged_rows(),
                    log.subscriber_count()
                );
            }
            None => {
                let _ = write!(report, "\n  {name}: static");
            }
        }
    }
    let _ = write!(
        report,
        "\nresult cache: {} hit(s), {} miss(es), {} expiration(s), generation {}",
        cache.hits(),
        cache.misses(),
        cache.expirations(),
        cache.generation()
    );
    report
}

/// The resident-dataset names as one comma-joined line (`(none)` when the
/// registry is empty) — the tail of the `unregister` report.
fn roster(registry: &DatasetRegistry) -> String {
    let names = registry.names();
    if names.is_empty() {
        "(none)".to_string()
    } else {
        names.join(", ")
    }
}

/// True when the subscribed client hung up (clean EOF or a dead socket).
fn client_gone(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let gone = match stream.peek(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    let _ = stream.set_nonblocking(false);
    gone
}

/// One subscription connection: evaluate the standing query at the current
/// watermark (the baseline push), then re-evaluate on every epoch advance
/// and push only when the answer distribution shifted.
///
/// Pushes bypass the result cache deliberately: the subscription's
/// evaluations must not warm (or be warmed by) the one-shot query path, so
/// a cold query after an append still demonstrates the epoch-keyed miss.
fn serve_subscription(
    stream: &TcpStream,
    request: &SubscribeRequest,
    registry: &DatasetRegistry,
    cache: &ResultCache,
    session: &mut Session,
    options: &QueryServeOptions,
    stop: &AtomicBool,
) -> Result<SubscriptionSummary> {
    let name = request.query.dataset.as_str();
    let query = query_from_request(&request.query)?;
    let dataset = registry
        .get(name)
        .ok_or_else(|| no_such_dataset(registry, name))?;
    let log = registry.live(name).ok_or_else(|| {
        Error::InvalidParameter(format!(
            "dataset `{name}` is static; subscriptions need a dataset served with --live"
        ))
    })?;
    let _guard = log.subscribe();

    let mut evaluations = 0u64;
    let mut pushes = 0u64;
    let mut last_hash: Option<u64> = None;
    let mut last_epoch = log.epoch();

    'serve: loop {
        evaluations += 1;
        let answer = session.execute(&dataset, &query)?;
        let hash = answer_hash(&answer);
        if last_hash != Some(hash) {
            let mut result = answer_to_wire(&answer, false);
            result.epoch = last_epoch;
            result.cache_generation = cache.generation();
            let mut writer = BufWriter::new(stream);
            wire::write_notification(
                &mut writer,
                &Notification {
                    epoch: last_epoch,
                    answer_hash: hash,
                },
            )?;
            wire::write_query_result(&mut writer, &result)?;
            pushes += 1;
            last_hash = Some(hash);
            if request.max_pushes != 0 && pushes >= request.max_pushes {
                wire::write_push_end(&mut &*stream)?;
                break 'serve;
            }
        }
        loop {
            if stop.load(Ordering::Relaxed) {
                let _ = wire::write_push_end(&mut &*stream);
                break 'serve;
            }
            if client_gone(stream) {
                break 'serve;
            }
            if let Some(snapshot) = log.wait_for_epoch_beyond(last_epoch, options.subscription_poll)
            {
                last_epoch = snapshot.epoch();
                continue 'serve;
            }
        }
    }

    Ok(SubscriptionSummary {
        dataset: name.to_string(),
        evaluations,
        pushes,
        last_epoch,
    })
}

/// A remote answer: the engine answer plus the server's cache outcome.
#[derive(Debug, Clone)]
pub struct RemoteAnswer {
    /// The decoded answer, bit-identical to the serving process's run.
    pub answer: QueryAnswer,
    /// True when the server answered from its result cache.
    pub cache_hit: bool,
    /// The dataset epoch the answer is pinned to (0 for static datasets).
    /// Always `Some` from a decoded result.
    pub epoch: Option<u64>,
    /// The server's result-cache generation at answer time. Always `Some`
    /// from a decoded result.
    pub cache_generation: Option<u64>,
    /// Sealed segments behind a live dataset's answer (`None` for a static
    /// dataset).
    pub live_segments: Option<u64>,
    /// The epoch the live dataset was last compacted at — 0 means never
    /// (`None` for a static dataset).
    pub compacted_epoch: Option<u64>,
}

/// The client side of query serving: dials a `ttk serve` daemon, ships the
/// query, decodes the answer.
///
/// Dialing follows the shard client's retry discipline: transient failures
/// (resolution, the TCP dial, a connection lost before the result header)
/// retry under exponential backoff; an error frame *answered by the server*
/// is a semantic failure and returns immediately — retrying "no such
/// dataset" cannot help.
#[derive(Debug, Clone)]
pub struct RemoteQueryClient {
    addr: String,
    options: ConnectOptions,
}

impl RemoteQueryClient {
    /// A client for the daemon at `addr` (`host:port`). Nothing connects
    /// until the first [`execute`](Self::execute).
    pub fn new(addr: impl Into<String>) -> Self {
        RemoteQueryClient {
            addr: addr.into(),
            options: ConnectOptions::default(),
        }
    }

    /// Overrides the dial behaviour (timeouts, retries, backoff).
    pub fn with_connect_options(mut self, options: ConnectOptions) -> Self {
        self.options = options;
        self
    }

    /// The daemon address this client dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Ships `query` against the resident dataset `dataset` and decodes the
    /// answer. Each attempt uses a fresh connection, so a retry never
    /// resumes a half-spoken exchange.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Source`] with the dial history once the retry budget
    /// is spent, or the server's own error immediately (unknown dataset,
    /// invalid parameters, execution failure).
    pub fn execute(&self, dataset: &str, query: &TopkQuery) -> Result<RemoteAnswer> {
        let request = request_for(dataset, query);
        self.retry("remote query failed", "querying", || {
            self.try_query(&request)
        })
    }

    /// Appends `rows` to the server-resident **live** dataset `dataset`,
    /// sealing the staging buffer afterwards when `seal` is set, and decodes
    /// the server's watermark acknowledgement.
    ///
    /// Retries follow [`execute`](Self::execute)'s discipline. A retry after
    /// a connection lost mid-exchange may find the first attempt's rows
    /// already applied; the server then rejects the duplicate ids, which
    /// surfaces as a semantic `remote append failed` error rather than a
    /// silent double-append.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Source`] with the dial history once the retry budget
    /// is spent, or the server's own refusal immediately (unknown or static
    /// dataset, duplicate ids, ME-group mass overflow).
    pub fn append(&self, dataset: &str, rows: Vec<SourceTuple>, seal: bool) -> Result<AppendAck> {
        let request = AppendRequest {
            dataset: dataset.to_string(),
            seal,
            rows,
        };
        self.retry("remote append failed", "appending to", || {
            let stream = self.dial()?;
            wire::write_append_request(&mut &stream, &request)?;
            let mut reader = BufReader::new(&stream);
            wire::read_append_ack(&mut reader)
        })
    }

    /// Subscribes a standing `query` against the server-resident live
    /// dataset `dataset` and returns the push stream. The server pushes a
    /// baseline answer immediately, then again whenever the top-k answer
    /// distribution shifts; after `max_pushes` pushes (0 = unlimited) it
    /// ends the stream cleanly.
    ///
    /// Only the dial retries here — once the subscription is written, the
    /// connection belongs to [`WatchClient`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Source`] with the dial history once the retry budget
    /// is spent.
    pub fn watch(&self, dataset: &str, query: &TopkQuery, max_pushes: u64) -> Result<WatchClient> {
        let request = SubscribeRequest {
            query: request_for(dataset, query),
            max_pushes,
        };
        let stream = self.retry("remote subscription failed", "subscribing to", || {
            let stream = self.dial()?;
            wire::write_subscribe(&mut &stream, &request)?;
            Ok(stream)
        })?;
        Ok(WatchClient {
            reader: BufReader::new(stream),
        })
    }

    /// The shared retry/backoff loop: transient failures retry, messages
    /// starting with `semantic` (the server answered; retrying cannot help)
    /// return immediately.
    fn retry<T>(&self, semantic: &str, action: &str, run: impl Fn() -> Result<T>) -> Result<T> {
        let action = format!("{action} server {}", self.addr);
        remote::retry(&self.options, &action, semantic, run)
    }

    /// Resolves and connects one fresh stream, read timeout armed.
    fn dial(&self) -> Result<TcpStream> {
        remote::connect(&self.addr, &self.options)
    }

    /// One attempt: resolve, connect, send the request, decode the result.
    fn try_query(&self, request: &QueryRequest) -> Result<RemoteAnswer> {
        let stream = self.dial()?;
        wire::write_query_request(&mut &stream, request)?;
        let mut reader = BufReader::new(&stream);
        let result = wire::read_query_result(&mut reader)?;
        let (epoch, cache_generation) = (Some(result.epoch), Some(result.cache_generation));
        let (live_segments, compacted_epoch) = if result.live {
            (Some(result.live_segments), Some(result.compacted_epoch))
        } else {
            (None, None)
        };
        let (answer, cache_hit) = answer_from_wire(result);
        Ok(RemoteAnswer {
            answer,
            cache_hit,
            epoch,
            cache_generation,
            live_segments,
            compacted_epoch,
        })
    }

    /// The plan view of a remote execution, for `explain --server --after`:
    /// the server's observed scan depth and cache outcome folded into a
    /// [`PlanDescription`] whose path is [`ScanPath::RemoteQuery`].
    pub fn plan(&self, dataset: &str, query: &TopkQuery, remote: &RemoteAnswer) -> PlanDescription {
        PlanDescription {
            dataset: format!("{dataset}@{}", self.addr),
            path: ScanPath::RemoteQuery,
            rows: None,
            algorithm: query.algorithm,
            k: query.k,
            p_tau: query.p_tau,
            estimated_depth: Some(estimated_scan_depth(query.k, query.p_tau, None)),
            observed_depth: Some(remote.answer.scan_depth),
            estimated_cost: estimated_cost(query, None),
            drains_stream: query.compute_u_topk || query.algorithm == Algorithm::Exhaustive,
            observed_wire_tuples: None,
            observed_wire_blocks: None,
            observed_wire_block_rows: None,
            server_cache_hit: Some(remote.cache_hit),
            dataset_epoch: remote.epoch,
            server_cache_generation: remote.cache_generation,
            live_segments: remote.live_segments.map(|segments| segments as usize),
            last_compaction_epoch: remote.compacted_epoch,
        }
    }

    /// Ships one admin-plane request and returns the server's
    /// plain-text report.
    ///
    /// Retries follow [`execute`](Self::execute)'s discipline: transient
    /// dial failures retry under backoff, a server-answered refusal
    /// (`remote admin failed: …`) returns immediately. Every verb here is
    /// safe to retry after a connection lost mid-exchange — `register`
    /// re-sent after a success fails on the duplicate-name check rather
    /// than double-registering.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Source`] with the dial history once the retry
    /// budget is spent, or the server's own refusal immediately.
    pub fn admin(&self, request: &AdminRequest) -> Result<String> {
        self.retry("remote admin failed", "administering", || {
            let stream = self.dial()?;
            wire::write_admin_request(&mut &stream, request)?;
            let mut reader = BufReader::new(&stream);
            wire::read_admin_response(&mut reader)
        })
    }
}

/// One pushed subscription event: the server's watermark and answer hash,
/// plus the full decoded answer.
#[derive(Debug, Clone)]
pub struct WatchPush {
    /// Epoch the pushed answer was computed at.
    pub epoch: u64,
    /// The server's [`answer_hash`] of the pushed answer.
    pub answer_hash: u64,
    /// The decoded answer, bit-identical to the server's evaluation.
    pub answer: QueryAnswer,
}

/// The client side of a standing subscription: a connection the server
/// pushes on. Obtained from [`RemoteQueryClient::watch`]; dropping it
/// cancels the subscription (the server notices the hang-up on its next
/// poll tick).
#[derive(Debug)]
pub struct WatchClient {
    reader: BufReader<TcpStream>,
}

impl WatchClient {
    /// Blocks for the next push. `Ok(None)` means the server ended the
    /// stream cleanly (push budget reached, or the daemon is draining).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Source`] on a lost connection, a malformed frame, or
    /// a server-side subscription failure.
    pub fn next_push(&mut self) -> Result<Option<WatchPush>> {
        let Some(notification) = wire::read_push(&mut self.reader)? else {
            return Ok(None);
        };
        let result = wire::read_query_result(&mut self.reader)?;
        let (answer, _) = answer_from_wire(result);
        Ok(Some(WatchPush {
            epoch: notification.epoch,
            answer_hash: notification.answer_hash,
            answer,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Dataset;
    use std::net::TcpListener;
    use ttk_uncertain::UncertainTable;

    fn soldier_table() -> UncertainTable {
        UncertainTable::builder()
            .tuple(1u64, 49.0, 0.4)
            .expect("tuple")
            .tuple(2u64, 60.0, 0.4)
            .expect("tuple")
            .tuple(3u64, 110.0, 0.4)
            .expect("tuple")
            .tuple(4u64, 80.0, 0.3)
            .expect("tuple")
            .tuple(5u64, 56.0, 1.0)
            .expect("tuple")
            .tuple(6u64, 58.0, 0.5)
            .expect("tuple")
            .tuple(7u64, 125.0, 0.3)
            .expect("tuple")
            .me_rule([2u64, 4, 7])
            .me_rule([3u64, 6])
            .build()
            .expect("table")
    }

    #[test]
    fn request_and_query_round_trip_preserves_every_knob() {
        let query = TopkQuery::new(5)
            .with_p_tau(1e-6)
            .with_typical_count(7)
            .with_max_lines(0)
            .with_algorithm(Algorithm::StateExpansion)
            .with_coalesce_policy(CoalescePolicy::WeightedMean)
            .with_u_topk(false);
        let request = request_for("sensors", &query);
        assert_eq!(request.dataset, "sensors");
        let back = query_from_request(&request).expect("valid request");
        assert_eq!(back.k, query.k);
        assert_eq!(back.p_tau.to_bits(), query.p_tau.to_bits());
        assert_eq!(back.typical_count, query.typical_count);
        assert_eq!(back.max_lines, query.max_lines);
        assert_eq!(back.algorithm, query.algorithm);
        assert_eq!(back.coalesce_policy, query.coalesce_policy);
        assert_eq!(back.compute_u_topk, query.compute_u_topk);
    }

    #[test]
    fn unknown_wire_codes_are_rejected() {
        assert!(algorithm_from_code(99).is_err());
        assert!(coalesce_from_code(99).is_err());
        for algorithm in [
            Algorithm::Main,
            Algorithm::MainPerEnding,
            Algorithm::StateExpansion,
            Algorithm::KCombo,
            Algorithm::Exhaustive,
        ] {
            assert_eq!(
                algorithm_from_code(algorithm_code(algorithm)).expect("round trip"),
                algorithm
            );
        }
    }

    #[test]
    fn answer_conversion_is_bit_identical() {
        let dataset = Dataset::table(soldier_table());
        let mut session = Session::new();
        let query = TopkQuery::new(2).with_p_tau(1e-9).with_max_lines(0);
        let answer = session.execute(&dataset, &query).expect("executes");

        let (decoded, cache_hit) = answer_from_wire(answer_to_wire(&answer, true));
        assert!(cache_hit);
        assert_eq!(decoded.distribution, answer.distribution);
        assert_eq!(decoded.typical, answer.typical);
        assert_eq!(decoded.scan_depth, answer.scan_depth);
        let decoded_u = decoded.u_topk.expect("u-topk requested");
        let cold_u = answer.u_topk.as_ref().expect("u-topk requested");
        assert_eq!(decoded_u.vector, cold_u.vector);
        assert_eq!(decoded_u.expansions, cold_u.expansions);
        assert_eq!(decoded_u.deepest_position, cold_u.deepest_position);
    }

    #[test]
    fn loopback_serve_query_misses_then_hits_bit_identically() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();

        let server = std::thread::spawn(move || {
            let registry = DatasetRegistry::new();
            registry
                .register("soldiers", Dataset::table(soldier_table()))
                .expect("registers");
            let cache = ResultCache::new(8);
            let mut session = Session::new();
            let options = QueryServeOptions::default();
            let stop = AtomicBool::new(false);
            let mut summaries = Vec::new();
            for _ in 0..3 {
                let (stream, _) = listener.accept().expect("accept");
                summaries.push(serve_client(
                    stream,
                    &registry,
                    &cache,
                    &mut session,
                    &options,
                    &stop,
                ));
            }
            summaries
        });

        let dataset = Dataset::table(soldier_table());
        let mut session = Session::new();
        let query = TopkQuery::new(2).with_p_tau(1e-9).with_max_lines(0);
        let local = session.execute(&dataset, &query).expect("local run");

        let client = RemoteQueryClient::new(addr.as_str());
        let cold = client.execute("soldiers", &query).expect("cold query");
        assert!(!cold.cache_hit);
        let cached = client.execute("soldiers", &query).expect("cached query");
        assert!(cached.cache_hit);

        for remote in [&cold, &cached] {
            assert_eq!(remote.answer.distribution, local.distribution);
            assert_eq!(remote.answer.typical, local.typical);
            assert_eq!(remote.answer.scan_depth, local.scan_depth);
        }

        let err = client
            .execute("missing", &query)
            .expect_err("unknown dataset");
        let text = err.to_string();
        assert!(text.contains("no such dataset"), "got: {text}");
        assert!(text.contains("soldiers"), "got: {text}");

        let summaries = server.join().expect("server thread");
        let outcomes: Vec<bool> = summaries
            .iter()
            .take(2)
            .map(|s| match s {
                Ok(ServeOutcome::Query(summary)) => summary.cache_hit,
                other => panic!("expected a served query, got {other:?}"),
            })
            .collect();
        assert_eq!(outcomes, vec![false, true]);
        let first = summaries[0].as_ref().expect("served");
        let line = first.to_string();
        assert!(line.contains("dataset id"), "got: {line}");
        assert!(line.contains("cache miss"), "got: {line}");
        assert!(summaries[2].is_err(), "unknown dataset must surface");
    }

    #[test]
    fn stalled_client_releases_the_worker_after_request_wait() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");

        // Connect and never send the request frame.
        let _stalled = TcpStream::connect(addr).expect("connect");
        let (stream, _) = listener.accept().expect("accept");

        let registry = DatasetRegistry::new();
        let cache = ResultCache::new(1);
        let mut session = Session::new();
        let options = QueryServeOptions {
            request_wait: Duration::from_millis(50),
            ..QueryServeOptions::default()
        };
        let started = std::time::Instant::now();
        let stop = AtomicBool::new(false);
        let outcome = serve_client(stream, &registry, &cache, &mut session, &options, &stop);
        assert!(outcome.is_err(), "a stalled client cannot produce a query");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the worker must be released promptly"
        );
    }

    #[test]
    fn plan_reports_remote_path_and_server_cache_outcome() {
        let client = RemoteQueryClient::new("example.invalid:4321");
        let query = TopkQuery::new(3);
        let dataset = Dataset::table(soldier_table());
        let mut session = Session::new();
        let answer = session.execute(&dataset, &query).expect("executes");
        let remote = RemoteAnswer {
            answer,
            cache_hit: true,
            epoch: Some(3),
            cache_generation: Some(2),
            live_segments: Some(4),
            compacted_epoch: Some(2),
        };
        let plan = client.plan("soldiers", &query, &remote);
        assert_eq!(plan.path, ScanPath::RemoteQuery);
        assert_eq!(plan.server_cache_hit, Some(true));
        assert_eq!(plan.dataset_epoch, Some(3));
        assert_eq!(plan.server_cache_generation, Some(2));
        assert_eq!(plan.live_segments, Some(4));
        assert_eq!(plan.last_compaction_epoch, Some(2));
        assert_eq!(plan.observed_depth, Some(remote.answer.scan_depth));
        let text = plan.to_string();
        assert!(text.contains("server result cache: hit"), "got: {text}");
        assert!(
            text.contains("soldiers@example.invalid:4321"),
            "got: {text}"
        );
    }
}
