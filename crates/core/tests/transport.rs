//! Property-based validation of the transport layer: for **any** table and
//! **any** partitioning, a scan whose shards are merged in process or served
//! over loopback-TCP wire connections must be **bit-identical** —
//! distribution, scan depth, typical answers, U-Topk — to the in-process
//! single-source path, including the adversarial all-ties case where one
//! tie group crosses every shard (and machine) boundary. A server whose
//! source errors or dies mid-stream must surface as `Error::Source` on the
//! consumer, never hang or truncate.

use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::mpsc;
use std::time::Duration;

use proptest::prelude::*;
use ttk_core::{
    answer_to_wire, request_for, serve_client, serve_stream, ConnectOptions, Dataset,
    DatasetRegistry, QueryAnswer, QueryServeOptions, RemoteShardDataset, ResultCache, ScanPath,
    ServeOptions, ServeSummary, Session, ShardScanGate, StopReason, TopkQuery,
};
use ttk_uncertain::wire::{
    self, AdminRequest, AdminVerb, AppendRequest, PushdownQuery, SubscribeRequest, WireReader,
    WIRE_VERSION_V6,
};
use ttk_uncertain::{
    Error, LeaseRegistry, Result, ShardAssignment, SourceTuple, TupleBlock, TupleSource,
    UncertainTable, UncertainTuple, VecSource, WireWriter,
};

mod support;
use support::table_with;

/// Round-robin partition of the table's rank-ordered stream (global group
/// keys preserved), as `Vec<SourceTuple>` shards.
fn partition(table: &UncertainTable, shards: usize) -> Vec<Vec<SourceTuple>> {
    let mut parts: Vec<Vec<SourceTuple>> = (0..shards).map(|_| Vec::new()).collect();
    let mut source = table.to_source();
    let mut index = 0usize;
    while let Some(t) = source.next_tuple().unwrap() {
        parts[index % shards].push(t);
        index += 1;
    }
    parts
}

/// Serves each shard through [`serve_stream`] — the `serve-shard` daemon's
/// own path — on its own loopback listener, one connection each, behind a
/// hello carrying the shard's assignment. Every connection's
/// [`ServeSummary`] is reported through the returned channel, tagged with
/// its shard index.
fn serve_shards_as(
    shards: Vec<(Vec<SourceTuple>, Option<ShardAssignment>)>,
) -> (Vec<String>, mpsc::Receiver<(usize, ServeSummary)>) {
    let (sender, receiver) = mpsc::channel();
    let addrs = shards
        .into_iter()
        .enumerate()
        .map(|(index, (shard, assignment))| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let sender = sender.clone();
            std::thread::spawn(move || {
                let (stream, _) = listener.accept().unwrap();
                let options = ServeOptions {
                    drain_every: 4,
                    ..ServeOptions::default()
                };
                // A vanished client is a summary, not an error; a source
                // error cannot happen with a VecSource.
                let mut source = VecSource::new(shard);
                if let Ok(summary) =
                    serve_stream(stream, &mut source, assignment.as_ref(), &options)
                {
                    let _ = sender.send((index, summary));
                }
            });
            addr
        })
        .collect();
    (addrs, receiver)
}

/// [`serve_shards_as`] without assignments, summaries unread.
fn serve_shards(shards: Vec<Vec<SourceTuple>>) -> Vec<String> {
    serve_shards_as(shards.into_iter().map(|shard| (shard, None)).collect()).0
}

fn assert_identical(
    a: Result<QueryAnswer>,
    b: Result<QueryAnswer>,
) -> std::result::Result<(), TestCaseError> {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(a.distribution, b.distribution);
            prop_assert_eq!(a.scan_depth, b.scan_depth);
            prop_assert_eq!(a.typical.scores(), b.typical.scores());
            let (ua, ub) = (a.u_topk.map(|u| u.vector), b.u_topk.map(|u| u.vector));
            prop_assert_eq!(ua, ub);
        }
        (Err(_), Err(_)) => {}
        (a, b) => prop_assert!(false, "paths disagree: {:?} vs {:?}", a, b),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Remote shards over loopback TCP are bit-identical to the in-process
    /// scan — the acceptance property of the wire layer.
    #[test]
    fn remote_loopback_shards_match_single_source(
        table in table_with(8),
        shards in 1usize..4,
        k in 1usize..4,
    ) {
        let query = TopkQuery::new(k).with_p_tau(1e-3).with_u_topk(false);
        let mut session = Session::new();
        let single = session.execute(&Dataset::stream(table.to_source()), &query);
        let addrs = serve_shards(partition(&table, shards));
        let dataset = RemoteShardDataset::new(addrs).into_dataset();
        prop_assert_eq!(
            session.explain(&dataset, &query).path,
            ScanPath::RemotePushdown { remote: shards, local: 0 }
        );
        let served = session.execute(&dataset, &query);
        assert_identical(single, served)?;
    }

    /// The adversarial all-ties case (one tie group across every shard and
    /// machine boundary) stays bit-identical through every transport.
    #[test]
    fn all_ties_partitions_survive_every_transport(
        table in table_with(1),
        shards in 2usize..5,
        k in 1usize..4,
    ) {
        let query = TopkQuery::new(k).with_p_tau(1e-3).with_u_topk(false);
        let mut session = Session::new();
        let single = session.execute(&Dataset::stream(table.to_source()), &query);

        // In-process merge.
        let parts: Vec<VecSource> = partition(&table, shards)
            .into_iter()
            .map(VecSource::new)
            .collect();
        let merged = session.execute(&Dataset::shards(parts), &query);
        assert_identical(single.clone(), merged)?;

        // Remote loopback.
        let addrs = serve_shards(partition(&table, shards));
        let served = session.execute(&RemoteShardDataset::new(addrs).into_dataset(), &query);
        assert_identical(single, served)?;
    }

    /// Mixing remote and local shards of one partition is bit-identical to
    /// the in-process scan.
    #[test]
    fn mixed_remote_and_local_shards_match(
        table in table_with(4),
        shards in 2usize..5,
        k in 1usize..4,
    ) {
        let query = TopkQuery::new(k).with_p_tau(1e-3).with_u_topk(false);
        let mut session = Session::new();
        let single = session.execute(&Dataset::stream(table.to_source()), &query);
        let mut parts = partition(&table, shards);
        let local: Vec<Vec<SourceTuple>> = parts.split_off(shards / 2);
        let local_count = local.len();
        let addrs = serve_shards(parts);
        let dataset = RemoteShardDataset::new(addrs)
            .with_local_shards(local_count, move || {
                Ok(local
                    .iter()
                    .map(|shard| {
                        Box::new(VecSource::new(shard.clone())) as Box<dyn TupleSource + Send>
                    })
                    .collect())
            })
            .into_dataset();
        let mixed = session.execute(&dataset, &query);
        assert_identical(single, mixed)?;
    }
}

/// [`serve_shards_as`] with every shard's hello advertising its
/// assignment, summaries unread.
fn serve_shards_with_assignments(shards: Vec<(Vec<SourceTuple>, ShardAssignment)>) -> Vec<String> {
    serve_shards_as(
        shards
            .into_iter()
            .map(|(shard, assignment)| (shard, Some(assignment)))
            .collect(),
    )
    .0
}

/// The bare rows of a shard before id assignment: `(score, prob, group)`.
type RawShard = Vec<(f64, f64, Option<u64>)>;

/// Assigns tuple ids `base..` to a raw shard, yielding its wire stream in
/// rank order.
fn materialize_shard(rows: &RawShard, base: u64) -> Vec<SourceTuple> {
    let mut tuples: Vec<SourceTuple> = rows
        .iter()
        .enumerate()
        .map(|(j, &(score, prob, group))| {
            let tuple = UncertainTuple::new(base + j as u64, score, prob).unwrap();
            match group {
                Some(key) => SourceTuple::grouped(tuple, key),
                None => SourceTuple::independent(tuple),
            }
        })
        .collect();
    tuples.sort_by_key(|t| t.tuple.rank_key());
    tuples
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Coordinator-leased id bases — handed out by a [`LeaseRegistry`] in an
    /// arbitrary registration order and advertised in the hellos — yield the
    /// same distributions as the operator passing each shard's cumulative
    /// row count by hand. Scores are distinct, so the rank order (and with
    /// it the scan depth and typical answers) is id-independent.
    #[test]
    fn leased_id_bases_match_operator_passed_bases(
        rows in 8usize..60,
        shards in 2usize..5,
        k in 1usize..4,
        rotation in 0usize..5,
    ) {
        let raw: Vec<(f64, f64, Option<u64>)> = (0..rows)
            .map(|i| (
                (rows - i) as f64 + 0.25,
                // Grouped rows stay small enough that no ME group's
                // probabilities can sum past 1.
                0.2 + 0.02 * ((i % 7) as f64),
                (i % 3 == 0).then_some((i / 6) as u64),
            ))
            .collect();
        let parts: Vec<RawShard> = (0..shards)
            .map(|s| raw.iter().skip(s).step_by(shards).copied().collect())
            .collect();

        // Operator arithmetic: shard i starts at the total rows of 0..i.
        let mut operator_bases = Vec::with_capacity(shards);
        let mut base = 0u64;
        for part in &parts {
            operator_bases.push(base);
            base += part.len() as u64;
        }
        // Coordinator: the same shards register in rotated (launch) order.
        let mut registry = LeaseRegistry::new("coord-prop");
        let mut leases: Vec<Option<ShardAssignment>> = vec![None; shards];
        for offset in 0..shards {
            let shard = (rotation + offset) % shards;
            leases[shard] = Some(registry.register(parts[shard].len() as u64));
        }

        let query = TopkQuery::new(k).with_p_tau(1e-3).with_u_topk(false);
        let mut session = Session::new();
        let operator_addrs = serve_shards(
            parts
                .iter()
                .zip(&operator_bases)
                .map(|(part, &base)| materialize_shard(part, base))
                .collect(),
        );
        let operator = session
            .execute(&RemoteShardDataset::new(operator_addrs).into_dataset(), &query)
            .unwrap();
        let leased_addrs = serve_shards_with_assignments(
            parts
                .iter()
                .zip(&leases)
                .map(|(part, lease)| {
                    let lease = lease.clone().expect("every shard leased");
                    (materialize_shard(part, lease.id_base), lease)
                })
                .collect(),
        );
        let leased = session
            .execute(&RemoteShardDataset::new(leased_addrs).into_dataset(), &query)
            .unwrap();
        // The id *assignment* differs when registration order differs, so
        // witness ids may legitimately differ — the distribution's
        // (score, probability) mass, the scan depth and the typical answers
        // must not.
        let mass = |answer: &QueryAnswer| -> Vec<(u64, u64)> {
            answer
                .distribution
                .pairs()
                .map(|(s, p)| (s.to_bits(), p.to_bits()))
                .collect()
        };
        prop_assert_eq!(mass(&leased), mass(&operator));
        prop_assert_eq!(leased.scan_depth, operator.scan_depth);
        prop_assert_eq!(leased.typical.scores(), operator.typical.scores());
    }
}

/// A server that comes up shortly **after** the first dial must be reached
/// via the retry/backoff path — the "restarting server" scenario.
#[test]
fn late_server_is_reached_via_retry() {
    let all = descending_tuples(30);
    let addr = {
        // Reserve an ephemeral port, then release it for the late server.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let server_addr = addr.clone();
    let server_shard = all.clone();
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        let listener = TcpListener::bind(&server_addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let mut source = VecSource::new(server_shard);
        let _ = serve_stream(stream, &mut source, None, &ServeOptions::default());
    });
    let query = TopkQuery::new(2).with_p_tau(1e-3).with_u_topk(false);
    let mut session = Session::new();
    let local = session
        .execute(&Dataset::stream(VecSource::new(all)), &query)
        .unwrap();
    let dataset = RemoteShardDataset::new([addr])
        .with_connect_options(
            ConnectOptions::default()
                .with_retries(20)
                .with_backoff(Duration::from_millis(25)),
        )
        .into_dataset();
    let remote = session.execute(&dataset, &query).unwrap();
    assert_eq!(remote.distribution, local.distribution);
    assert_eq!(remote.scan_depth, local.scan_depth);
}

/// A server that never comes back fails with a clean `Error::Source` after
/// the retry budget — never a hang, and the message names the attempts.
#[test]
fn dead_server_fails_cleanly_after_retries() {
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let dataset = RemoteShardDataset::new([addr])
        .with_connect_options(
            ConnectOptions::default()
                .with_retries(2)
                .with_backoff(Duration::from_millis(5)),
        )
        .into_dataset();
    let started = std::time::Instant::now();
    let err = Session::new()
        .execute(&dataset, &TopkQuery::new(1))
        .unwrap_err();
    assert!(
        matches!(&err, Error::Source(m) if m.contains("after 3 attempts")),
        "{err:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "retry budget must bound the wait"
    );
}

/// A connection dropped **mid-hello** (accepted, then closed before the
/// hello frame) is retried like a failed dial: the stream has not started,
/// so reconnecting cannot skip tuples — and the retried connection speaks
/// the same block framing as a first-time one.
#[test]
fn mid_hello_disconnects_are_retried() {
    let all = descending_tuples(20);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server_shard = all.clone();
    std::thread::spawn(move || {
        // Two flaky accepts (dropped before the hello), then a real serve.
        for _ in 0..2 {
            let (stream, _) = listener.accept().unwrap();
            drop(stream);
        }
        let (stream, _) = listener.accept().unwrap();
        let mut source = VecSource::new(server_shard);
        let _ = serve_stream(stream, &mut source, None, &ServeOptions::default());
    });
    let query = TopkQuery::new(2).with_p_tau(1e-3).with_u_topk(false);
    let mut session = Session::new();
    let local = session
        .execute(&Dataset::stream(VecSource::new(all)), &query)
        .unwrap();
    let dataset = RemoteShardDataset::new([addr])
        .with_connect_options(
            ConnectOptions::default()
                .with_retries(5)
                .with_backoff(Duration::from_millis(10)),
        )
        .into_dataset();
    let remote = session.execute(&dataset, &query).unwrap();
    assert_eq!(remote.distribution, local.distribution);
    let blocks = session.explain(&dataset, &query).observed_wire_blocks;
    assert!(blocks.is_some_and(|blocks| blocks > 0), "{blocks:?}");
}

/// A peer that accepts and drops every connection is dialled exactly once
/// per attempt — `retries + 1` times — and the error names that count.
#[test]
fn a_peer_that_never_answers_is_dialled_once_per_attempt() {
    const RETRIES: u32 = 3;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (accepted, accepts) = mpsc::channel();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            drop(stream);
            if accepted.send(()).is_err() {
                return;
            }
        }
    });
    let dataset = RemoteShardDataset::new([addr])
        .with_connect_options(
            ConnectOptions::default()
                .with_retries(RETRIES)
                .with_backoff(Duration::from_millis(5)),
        )
        .into_dataset();
    let err = Session::new()
        .execute(&dataset, &TopkQuery::new(1))
        .unwrap_err();
    assert!(
        matches!(&err, Error::Source(m) if m.contains(&format!("after {} attempts", RETRIES + 1))),
        "{err:?}"
    );
    // Every attempt's accept has landed by the time the client gave up.
    let mut dials = 0;
    while accepts.recv_timeout(Duration::from_millis(200)).is_ok() {
        dials += 1;
    }
    assert_eq!(dials, RETRIES + 1);
}

/// Servers advertising conflicting assignments — different group-key
/// namespaces, or overlapping tuple-id ranges — fail the open with a
/// diagnostic instead of silently merging shards that never partitioned one
/// relation.
#[test]
fn conflicting_hello_assignments_are_rejected() {
    let shard_a = descending_tuples(10);
    let shard_b: Vec<SourceTuple> = (10u64..20)
        .map(|i| SourceTuple::independent(UncertainTuple::new(i, (30 - i) as f64, 0.5).unwrap()))
        .collect();
    // Namespace conflict.
    let addrs = serve_shards_with_assignments(vec![
        (
            shard_a.clone(),
            ShardAssignment {
                id_base: 0,
                namespace: "coord-A".into(),
            },
        ),
        (
            shard_b.clone(),
            ShardAssignment {
                id_base: 10,
                namespace: "coord-B".into(),
            },
        ),
    ]);
    let err = Session::new()
        .execute(
            &RemoteShardDataset::new(addrs).into_dataset(),
            &TopkQuery::new(1),
        )
        .unwrap_err();
    assert!(
        matches!(&err, Error::Source(m) if m.contains("namespace")),
        "{err:?}"
    );
    // Overlapping id ranges (both shards claim base 0 over 10 rows).
    let addrs = serve_shards_with_assignments(vec![
        (
            shard_a,
            ShardAssignment {
                id_base: 0,
                namespace: "coord-A".into(),
            },
        ),
        (
            shard_b,
            ShardAssignment {
                id_base: 5,
                namespace: "coord-A".into(),
            },
        ),
    ]);
    let err = Session::new()
        .execute(
            &RemoteShardDataset::new(addrs).into_dataset(),
            &TopkQuery::new(1),
        )
        .unwrap_err();
    assert!(
        matches!(&err, Error::Source(m) if m.contains("overlapping")),
        "{err:?}"
    );
}

/// The deterministic local-only pushdown bound of one shard: what a
/// [`ShardScanGate`] admits over the shard with **no** remote updates. With
/// updates the server can only stop earlier, so tuples shipped by any gated
/// connection must stay ≤ this.
fn shard_pushdown_bound(shard: &[SourceTuple], k: usize, p_tau: f64) -> u64 {
    let mut gate = ShardScanGate::new(k, p_tau).unwrap();
    let mut admitted = 0u64;
    for t in shard {
        if !gate.admit(t.tuple.score(), t.tuple.prob(), t.group) {
            break;
        }
        admitted += 1;
    }
    admitted
}

/// Runs `query` against pushdown servers over `shards` and checks the
/// tentpole properties: bit-identity with `single`, and — for gated queries
/// — every server's shipped count within its conservative local bound.
fn check_pushdown_case(
    session: &mut Session,
    single: Result<QueryAnswer>,
    shards: Vec<Vec<SourceTuple>>,
    query: &TopkQuery,
) -> std::result::Result<(), TestCaseError> {
    let shard_count = shards.len();
    let bounds: Vec<u64> = shards
        .iter()
        .map(|shard| shard_pushdown_bound(shard, query.k, query.p_tau))
        .collect();
    let rows: Vec<u64> = shards.iter().map(|s| s.len() as u64).collect();
    let (addrs, summaries) =
        serve_shards_as(shards.into_iter().map(|shard| (shard, None)).collect());
    let dataset = RemoteShardDataset::new(addrs).into_dataset();
    let pushed = session.execute(&dataset, query);
    let succeeded = pushed.is_ok();
    assert_identical(single, pushed)?;
    if !succeeded {
        return Ok(());
    }
    let drains = query.compute_u_topk;
    let mut shipped_total = 0u64;
    for _ in 0..shard_count {
        let (index, summary) = summaries
            .recv_timeout(Duration::from_secs(10))
            .expect("every server reports a summary");
        prop_assert_eq!(
            summary.pushdown,
            !drains,
            "a gated query must announce k > 0: {:?}",
            summary
        );
        shipped_total += summary.shipped;
        prop_assert!(summary.scanned <= rows[index]);
        if !drains {
            // The acceptance bound of the PR: tuples over the wire never
            // exceed the conservative per-shard Theorem-2 bound (remote
            // updates and early client hangups can only lower it).
            prop_assert!(
                summary.shipped <= bounds[index],
                "shard {} shipped {} over its bound {}",
                index,
                summary.shipped,
                bounds[index]
            );
        }
    }
    if drains {
        // Full-stream mode (`k = 0` announced): every row crosses the wire.
        prop_assert_eq!(shipped_total, rows.iter().sum::<u64>());
    }
    // The session records the client-side observed wire traffic for
    // `explain`; the client never decodes more than the servers shipped.
    let plan = session.explain(&dataset, query);
    let observed = plan.observed_wire_tuples.expect("remote scan was observed");
    prop_assert!(
        observed <= shipped_total,
        "{} > {}",
        observed,
        shipped_total
    );
    // The block transport stats count decoded block frames — the framing
    // truth, independent of how the merge pulled. Every delivered tuple rode
    // a block frame (observed ≤ frame rows), the client never decodes more
    // rows than the servers shipped, and the per-frame accounting is
    // self-consistent.
    let blocks = plan
        .observed_wire_blocks
        .expect("remote scan records block transport stats");
    let block_rows = plan
        .observed_wire_block_rows
        .expect("remote scan records block transport stats");
    prop_assert!(observed <= block_rows);
    prop_assert!(block_rows <= shipped_total);
    prop_assert!(blocks <= block_rows || (blocks == 0 && block_rows == 0));
    prop_assert!(observed == 0 || blocks > 0, "tuples arrived outside blocks");
    if drains {
        prop_assert_eq!(observed, shipped_total);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// **Tentpole property.** For any table, partitioning and k, the
    /// pushdown scan is bit-identical to the single-source scan (including
    /// U-Topk witness ids), and every gated server ships at most its
    /// conservative local Theorem-2 bound — never the whole shard by
    /// default.
    #[test]
    fn pushdown_scans_are_bit_identical_and_bounded(
        table in table_with(8),
        shards in 1usize..4,
        k in 1usize..4,
        u_topk in any::<bool>(),
    ) {
        let query = TopkQuery::new(k).with_p_tau(1e-3).with_u_topk(u_topk);
        let mut session = Session::new();
        let single = session.execute(&Dataset::stream(table.to_source()), &query);
        check_pushdown_case(&mut session, single, partition(&table, shards), &query)?;
    }

    /// The adversarial all-ties case — one tie group spanning every shard —
    /// through the pushdown path: the per-shard gates must finish their tie
    /// groups before closing, keeping the merge bit-identical.
    #[test]
    fn all_ties_pushdown_stays_bit_identical(
        table in table_with(1),
        shards in 2usize..5,
        k in 1usize..4,
        u_topk in any::<bool>(),
    ) {
        let query = TopkQuery::new(k).with_p_tau(1e-3).with_u_topk(u_topk);
        let mut session = Session::new();
        let single = session.execute(&Dataset::stream(table.to_source()), &query);
        check_pushdown_case(&mut session, single, partition(&table, shards), &query)?;
    }
}

/// A source that yields `good` tuples, then fails.
struct FailsAfter {
    tuples: Vec<SourceTuple>,
    served: usize,
}

impl TupleSource for FailsAfter {
    fn next_tuple(&mut self) -> Result<Option<SourceTuple>> {
        if self.served >= self.tuples.len() {
            return Err(Error::Source("shard backend failed mid-stream".into()));
        }
        self.served += 1;
        Ok(Some(self.tuples[self.served - 1]))
    }
}

fn descending_tuples(n: u64) -> Vec<SourceTuple> {
    (0..n)
        .map(|i| SourceTuple::independent(UncertainTuple::new(i, (n - i) as f64, 0.9).unwrap()))
        .collect()
}

/// A server that dies mid-stream (socket closed without the end frame)
/// surfaces as `Error::Source` on the querying side.
#[test]
fn remote_server_dying_mid_stream_is_a_source_error() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        wire::read_client_request(&mut &stream).unwrap();
        let mut writer = WireWriter::new(std::io::BufWriter::new(stream), Some(100), None).unwrap();
        let mut block = TupleBlock::default();
        for t in descending_tuples(3) {
            block.push(&t);
        }
        writer.write_block(&block).unwrap();
        // Drop without the end frame: the connection just dies.
    });
    let err = Session::new()
        .execute(
            &RemoteShardDataset::new([addr]).into_dataset(),
            &TopkQuery::new(2),
        )
        .unwrap_err();
    assert!(matches!(err, Error::Source(_)), "{err:?}");
}

/// A server that forwards its own source failure delivers that failure (as
/// `Error::Source`) to the querying side through the error frame.
#[test]
fn remote_source_failure_is_forwarded_through_the_wire() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut source = FailsAfter {
            tuples: descending_tuples(4),
            served: 0,
        };
        let _ = serve_stream(stream, &mut source, None, &ServeOptions::default());
    });
    let err = Session::new()
        .execute(
            &RemoteShardDataset::new([addr]).into_dataset(),
            &TopkQuery::new(2),
        )
        .unwrap_err();
    assert!(
        matches!(&err, Error::Source(m) if m.contains("shard backend failed")),
        "{err:?}"
    );
}

/// Yields `tuples`, pausing before tuple `pause_at` until the test signals
/// `resume` — so a test can act on the socket while the replay is
/// mid-stream, whatever the socket buffers could have absorbed.
struct PausingSource {
    tuples: Vec<SourceTuple>,
    served: usize,
    pause_at: usize,
    resume: mpsc::Receiver<()>,
}

impl TupleSource for PausingSource {
    fn next_tuple(&mut self) -> Result<Option<SourceTuple>> {
        if self.served == self.pause_at {
            let _ = self.resume.recv();
        }
        let next = self.tuples.get(self.served).copied();
        self.served += 1;
        Ok(next)
    }
}

/// Serves one connection through [`serve_stream`] on a background thread,
/// reporting its result through the returned channel.
fn serve_one(
    mut source: impl TupleSource + Send + 'static,
) -> (String, mpsc::Receiver<Result<ServeSummary>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (sender, receiver) = mpsc::channel();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let _ = sender.send(serve_stream(
            stream,
            &mut source,
            None,
            &ServeOptions::default(),
        ));
    });
    (addr, receiver)
}

/// Dials `addr` as a full-stream (k = 0) client and reads the hello.
fn full_stream_client(addr: &str) -> WireReader<BufReader<TcpStream>> {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    wire::write_scan(&mut &stream, &PushdownQuery { k: 0, p_tau: 0.0 }).unwrap();
    let mut reader = WireReader::new(BufReader::new(stream));
    reader.hello().unwrap();
    reader
}

/// A full-stream client that reads the hello and one block and then drops
/// its socket: the server stops short of the end with `ClientGone` — and
/// returns at all, which it only does once its bound-update helper thread
/// has been joined.
#[test]
fn serve_stream_stops_when_a_full_stream_client_vanishes() {
    const ROWS: u64 = 20_000;
    let (resume, paused) = mpsc::channel();
    let (addr, summaries) = serve_one(PausingSource {
        tuples: descending_tuples(ROWS),
        served: 0,
        pause_at: 2_048,
        resume: paused,
    });
    let mut client = full_stream_client(&addr);
    let block = client.next_block(512).unwrap().expect("a first block");
    assert!(!block.is_empty());
    drop(client);
    resume.send(()).unwrap();
    let summary = summaries
        .recv_timeout(Duration::from_secs(30))
        .expect("serve_stream returned")
        .expect("a vanished client is a summary, not an error");
    assert!(!summary.pushdown, "{summary:?}");
    assert_eq!(summary.reason, StopReason::ClientGone, "{summary:?}");
    assert!(summary.shipped < ROWS, "{summary:?}");
}

/// A client that reads the whole stream and keeps its socket open: the
/// server shuts down its read side after the trailer, so the helper blocked
/// on that socket returns and `serve_stream` completes while the client is
/// still connected.
#[test]
fn serve_stream_returns_while_the_client_holds_its_socket() {
    const ROWS: u64 = 3_000;
    let (addr, summaries) = serve_one(VecSource::new(descending_tuples(ROWS)));
    let mut client = full_stream_client(&addr);
    let mut received = 0u64;
    while let Some(block) = client.next_block(512).unwrap() {
        received += block.len() as u64;
    }
    assert_eq!(received, ROWS);
    let summary = summaries
        .recv_timeout(Duration::from_secs(30))
        .expect("serve_stream returned with the client still connected")
        .expect("clean replay");
    assert_eq!(summary.reason, StopReason::Exhausted, "{summary:?}");
    assert_eq!(summary.shipped, ROWS);
    drop(client);
}

/// The first frame of an encoding: the opening frame a peer reads alone
/// before it decides whether to read on.
fn first_frame(encoding: &[u8]) -> &[u8] {
    let len = u32::from_le_bytes(encoding[..4].try_into().unwrap()) as usize;
    &encoding[..4 + len]
}

/// Connects to `addr`, sends `frame`, and returns the text of the error
/// frame the daemon answers with.
fn error_frame_reply(addr: &str, frame: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(frame).unwrap();
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).unwrap();
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut body).unwrap();
    assert_eq!(body[0], 2, "the daemon answers with an error frame");
    String::from_utf8(body[1..].to_vec()).unwrap()
}

/// One version, refused everywhere: an opening frame of any kind at a
/// version other than this build's is refused by the one opening decoder,
/// answered with an error frame by the shard server and the query daemon,
/// and every client decoder of a server's opening frame refuses it the same
/// way — each error naming both versions.
#[test]
fn foreign_wire_versions_are_refused_naming_both_versions() {
    let refusal = |version: u8| {
        format!("peer speaks wire version {version}; this build speaks {WIRE_VERSION_V6}")
    };
    let request = request_for("data", &TopkQuery::new(2));
    let mut openings: Vec<Vec<u8>> = vec![Vec::new(); 6];
    wire::write_scan(&mut openings[0], &PushdownQuery { k: 3, p_tau: 1e-3 }).unwrap();
    wire::write_register(&mut openings[1], 10, "shard0.csv").unwrap();
    wire::write_query_request(&mut openings[2], &request).unwrap();
    wire::write_append_request(
        &mut openings[3],
        &AppendRequest {
            dataset: "feed".into(),
            seal: true,
            rows: descending_tuples(2),
        },
    )
    .unwrap();
    wire::write_subscribe(
        &mut openings[4],
        &SubscribeRequest {
            query: request,
            max_pushes: 1,
        },
    )
    .unwrap();
    wire::write_admin_request(
        &mut openings[5],
        &AdminRequest {
            verb: AdminVerb::Stats,
            name: String::new(),
            arg: String::new(),
        },
    )
    .unwrap();
    let foreign: Vec<(u8, Vec<u8>)> = [5u8, 7]
        .into_iter()
        .flat_map(|version| {
            openings.iter().map(move |opening| {
                let mut frame = first_frame(opening).to_vec();
                frame[5] = version;
                (version, frame)
            })
        })
        .collect();

    // The opening decoder every daemon reads its first frame through.
    for (version, frame) in &foreign {
        let err = wire::read_client_request(&mut frame.as_slice()).unwrap_err();
        assert!(err.to_string().contains(&refusal(*version)), "{err}");
    }

    // The shard server and the query daemon answer with an error frame.
    let connections = foreign.len();
    let shard_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let shard_addr = shard_listener.local_addr().unwrap().to_string();
    let shard_server = std::thread::spawn(move || {
        (0..connections)
            .map(|_| {
                let (stream, _) = shard_listener.accept().unwrap();
                let mut empty = VecSource::new(Vec::new());
                serve_stream(stream, &mut empty, None, &ServeOptions::default()).unwrap_err()
            })
            .collect::<Vec<_>>()
    });
    let query_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let query_addr = query_listener.local_addr().unwrap().to_string();
    let query_server = std::thread::spawn(move || {
        let (registry, cache) = (DatasetRegistry::new(), ResultCache::new(1));
        let mut session = Session::new();
        let stop = AtomicBool::new(false);
        (0..connections)
            .map(|_| {
                let (stream, _) = query_listener.accept().unwrap();
                let options = QueryServeOptions::default();
                serve_client(stream, &registry, &cache, &mut session, &options, &stop).unwrap_err()
            })
            .collect::<Vec<_>>()
    });
    for (version, frame) in &foreign {
        for addr in [&shard_addr, &query_addr] {
            let reply = error_frame_reply(addr, frame);
            assert!(reply.contains(&refusal(*version)), "{addr}: {reply}");
        }
    }
    for server in [shard_server, query_server] {
        for (err, (version, _)) in server.join().unwrap().iter().zip(&foreign) {
            assert!(err.to_string().contains(&refusal(*version)), "{err}");
        }
    }

    // Every client decoder of a server's opening frame.
    let answer = Session::new()
        .execute(
            &Dataset::stream(VecSource::new(descending_tuples(5))),
            &TopkQuery::new(2).with_u_topk(false),
        )
        .unwrap();
    let mut replies: Vec<Vec<u8>> = vec![Vec::new(); 7];
    WireWriter::new(&mut replies[0], None, None)
        .unwrap()
        .finish()
        .unwrap();
    wire::write_query_result(&mut replies[1], &answer_to_wire(&answer, false)).unwrap();
    wire::write_append_ack(
        &mut replies[2],
        &wire::AppendAck {
            epoch: 1,
            staged: 0,
            sealed_rows: 2,
            sealed_now: true,
        },
    )
    .unwrap();
    wire::write_lease(
        &mut replies[3],
        &ShardAssignment {
            id_base: 0,
            namespace: "ns".into(),
        },
    )
    .unwrap();
    wire::write_notification(
        &mut replies[4],
        &wire::Notification {
            epoch: 1,
            answer_hash: 7,
        },
    )
    .unwrap();
    wire::write_admin_response(&mut replies[5], "resident datasets: 0").unwrap();
    wire::write_busy(&mut replies[6], 100).unwrap();
    for version in [5u8, 7] {
        let decoded: Vec<Result<()>> = replies
            .iter()
            .enumerate()
            .map(|(kind, reply)| {
                let mut frame = reply.clone();
                frame[5] = version;
                let mut bytes = frame.as_slice();
                match kind {
                    0 => WireReader::new(bytes).hello().map(drop),
                    1 | 6 => wire::read_query_result(&mut bytes).map(drop),
                    2 => wire::read_append_ack(&mut bytes).map(drop),
                    3 => wire::read_lease(&mut bytes).map(drop),
                    4 => wire::read_push(&mut bytes).map(drop),
                    _ => wire::read_admin_response(&mut bytes).map(drop),
                }
            })
            .collect();
        for (kind, outcome) in decoded.into_iter().enumerate() {
            let err = outcome.expect_err("a foreign version must not decode");
            assert!(err.to_string().contains(&refusal(version)), "{kind}: {err}");
        }
    }
}
