//! The acceptance property of the transport layer, end to end at the
//! database level: a relation split into shard CSV files, each served by an
//! independent "process" (its own scoring pass, its own wire stream over a
//! loopback socket), queried through `RemoteShardDataset`, must produce
//! **bit-identical** results to the equivalent local `--shard` scan of the
//! same files — distribution, scan depth, typical answers and U-Topk ids.

use std::net::TcpListener;
use std::sync::mpsc;
use std::time::Duration;

use ttk_core::{
    serve_stream, RemoteShardDataset, ServeOptions, ServeSummary, Session, ShardScanGate, TopkQuery,
};
use ttk_integration_tests::small_area;
use ttk_pdb::{
    shard_sources_from_csv_with, table_to_csv, CsvDataset, CsvOptions, ShardImportOptions,
};
use ttk_uncertain::{ShardAssignment, TupleSource};

/// Exports the small CarTel area as `shards` CSV texts (round-robin rows,
/// shared schema and group-key strings), returning the texts.
fn shard_texts(shards: usize) -> Vec<String> {
    let area = small_area();
    let schema = ttk_pdb::Schema::default()
        .with("delay", ttk_pdb::DataType::Float)
        .with("speed_limit", ttk_pdb::DataType::Float)
        .with("length", ttk_pdb::DataType::Float);
    let mut parts: Vec<ttk_pdb::PTable> = (0..shards)
        .map(|i| ttk_pdb::PTable::new(format!("shard{i}"), schema.clone()))
        .collect();
    let mut row = 0usize;
    for segment in &area.segments {
        for bin in &segment.bins {
            parts[row % shards]
                .insert(
                    vec![
                        bin.delay_seconds.into(),
                        segment.speed_limit_kmh.into(),
                        segment.length_m.into(),
                    ],
                    bin.probability.clamp(1e-6, 1.0),
                    Some(&format!("segment-{}", segment.segment_id)),
                )
                .unwrap();
            row += 1;
        }
    }
    parts
        .iter()
        .map(|p| table_to_csv(p, &CsvOptions::default()))
        .collect()
}

/// Serves one shard text the way `ttk serve-shard` does: scored with hashed
/// group keys and an explicit id base (or the `assignment`'s leased one),
/// streamed through [`serve_stream`] once per accepted connection, `conns`
/// times, behind a hello advertising the assignment when there is one.
/// Every connection's [`ServeSummary`] is reported through the returned
/// channel.
fn serve_as(
    text: String,
    id_base: u64,
    conns: usize,
    assignment: Option<ShardAssignment>,
) -> (String, mpsc::Receiver<ServeSummary>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (sender, receiver) = mpsc::channel();
    std::thread::spawn(move || {
        let expr = ttk_pdb::parse_expression("speed_limit / (length / delay)").unwrap();
        for _ in 0..conns {
            let (stream, _) = listener.accept().unwrap();
            let import = match &assignment {
                Some(lease) => ShardImportOptions::from(lease),
                None => ShardImportOptions {
                    first_tuple_id: id_base,
                    hashed_group_keys: true,
                },
            };
            let mut source = shard_sources_from_csv_with(
                &[text.as_str()],
                &CsvOptions::default(),
                &expr,
                &import,
            )
            .unwrap()
            .pop()
            .unwrap();
            let options = ServeOptions {
                drain_every: 8,
                ..ServeOptions::default()
            };
            let summary = serve_stream(stream, &mut source, assignment.as_ref(), &options).unwrap();
            let _ = sender.send(summary);
        }
    });
    (addr, receiver)
}

#[test]
fn remote_shard_scan_is_bit_identical_to_the_local_shard_scan() {
    let shards = 3usize;
    let texts = shard_texts(shards);
    let expr = || ttk_pdb::parse_expression("speed_limit / (length / delay)").unwrap();

    // The local reference: the same shard files scanned in-process with the
    // same import discipline (hashed keys, cumulative id bases).
    let local =
        CsvDataset::from_shard_texts("local-shards", texts.clone(), CsvOptions::default(), expr())
            .with_import(ShardImportOptions {
                first_tuple_id: 0,
                hashed_group_keys: true,
            })
            .into_dataset();

    // Serve each shard "process"-style; three connections each — one per k
    // the loop below issues.
    let mut id_base = 0u64;
    let addrs: Vec<String> = texts
        .iter()
        .map(|text| {
            let rows = text.lines().filter(|l| !l.trim().is_empty()).count() as u64 - 1;
            let (addr, _) = serve_as(text.clone(), id_base, 3, None);
            id_base += rows;
            addr
        })
        .collect();

    let mut session = Session::new();
    for k in [1usize, 3, 5] {
        let query = TopkQuery::new(k).with_p_tau(1e-3);
        let reference = session.execute(&local, &query).unwrap();
        let remote = RemoteShardDataset::new(addrs.clone()).into_dataset();
        let answer = session.execute(&remote, &query).unwrap();
        assert_eq!(answer.distribution, reference.distribution, "k={k}");
        assert_eq!(answer.scan_depth, reference.scan_depth, "k={k}");
        assert_eq!(answer.typical.scores(), reference.typical.scores(), "k={k}");
        let (ua, ub) = (
            answer.u_topk.as_ref().unwrap(),
            reference.u_topk.as_ref().unwrap(),
        );
        assert_eq!(ua.vector.ids(), ub.vector.ids(), "k={k}");
    }

    // The hashed-key import is itself bit-identical (in distribution) to the
    // classic coordinated import of the same shards.
    let coordinated =
        CsvDataset::from_shard_texts("coordinated", texts, CsvOptions::default(), expr())
            .into_dataset();
    let query = TopkQuery::new(4).with_p_tau(1e-3);
    let a = session.execute(&coordinated, &query).unwrap();
    let b = session.execute(&local, &query).unwrap();
    assert_eq!(a.distribution, b.distribution);
    assert_eq!(a.scan_depth, b.scan_depth);
}

/// Opens one shard text exactly as the serving side does (hashed group
/// keys, explicit id base).
fn open_shard(text: &str, id_base: u64) -> impl TupleSource {
    let expr = ttk_pdb::parse_expression("speed_limit / (length / delay)").unwrap();
    shard_sources_from_csv_with(
        &[text],
        &CsvOptions::default(),
        &expr,
        &ShardImportOptions {
            first_tuple_id: id_base,
            hashed_group_keys: true,
        },
    )
    .unwrap()
    .pop()
    .unwrap()
}

/// The deterministic local-only bound of one served shard: what its
/// [`ShardScanGate`] admits with no remote updates — remote updates and
/// early client hangups can only lower the shipped count below this.
fn shard_bound(text: &str, id_base: u64, k: usize, p_tau: f64) -> u64 {
    let mut source = open_shard(text, id_base);
    let mut gate = ShardScanGate::new(k, p_tau).unwrap();
    let mut admitted = 0u64;
    while let Some(t) = source.next_tuple().unwrap() {
        if !gate.admit(t.tuple.score(), t.tuple.prob(), t.group) {
            break;
        }
        admitted += 1;
    }
    admitted
}

/// **The tentpole property at the database level.** Shard CSVs served by
/// pushdown daemons produce bit-identical answers to the local `--shard`
/// scan, while each server ships at most its conservative per-shard
/// Theorem-2 bound for gated queries — and the full shard (exactly) when the
/// client needs the whole stream for U-Topk witnesses.
#[test]
fn pushdown_serving_is_bit_identical_and_ships_within_the_shard_bound() {
    let shards = 3usize;
    let texts = shard_texts(shards);
    let expr = || ttk_pdb::parse_expression("speed_limit / (length / delay)").unwrap();
    let gated = TopkQuery::new(3).with_p_tau(1e-3).with_u_topk(false);
    let draining = TopkQuery::new(3).with_p_tau(1e-3);

    let local =
        CsvDataset::from_shard_texts("local-shards", texts.clone(), CsvOptions::default(), expr())
            .with_import(ShardImportOptions {
                first_tuple_id: 0,
                hashed_group_keys: true,
            })
            .into_dataset();

    // Two connections per server: the gated query, then the draining one.
    let mut id_base = 0u64;
    let mut servers = Vec::new();
    for text in &texts {
        let rows = text.lines().filter(|l| !l.trim().is_empty()).count() as u64 - 1;
        let bound = shard_bound(text, id_base, gated.k, gated.p_tau);
        let (addr, summaries) = serve_as(text.clone(), id_base, 2, None);
        servers.push((addr, summaries, bound, rows));
        id_base += rows;
    }
    let addrs: Vec<String> = servers.iter().map(|(addr, ..)| addr.clone()).collect();
    let remote = RemoteShardDataset::new(addrs).into_dataset();
    let mut session = Session::new();

    let reference = session.execute(&local, &gated).unwrap();
    let answer = session.execute(&remote, &gated).unwrap();
    assert_eq!(answer.distribution, reference.distribution);
    assert_eq!(answer.scan_depth, reference.scan_depth);
    assert_eq!(answer.typical.scores(), reference.typical.scores());
    for (_, summaries, bound, rows) in &servers {
        let summary = summaries
            .recv_timeout(Duration::from_secs(10))
            .expect("gated-connection summary");
        assert!(summary.pushdown, "{summary:?}");
        assert!(summary.scanned <= *rows, "{summary:?}");
        assert!(
            summary.shipped <= *bound,
            "shipped {} over the shard bound {bound}",
            summary.shipped
        );
    }

    let reference = session.execute(&local, &draining).unwrap();
    let answer = session.execute(&remote, &draining).unwrap();
    assert_eq!(answer.distribution, reference.distribution);
    assert_eq!(
        answer.u_topk.as_ref().unwrap().vector.ids(),
        reference.u_topk.as_ref().unwrap().vector.ids()
    );
    for (_, summaries, _, rows) in &servers {
        let summary = summaries
            .recv_timeout(Duration::from_secs(10))
            .expect("draining-connection summary");
        // U-Topk needs the whole stream: the client announces `k = 0` and
        // every row crosses the wire.
        assert!(!summary.pushdown, "{summary:?}");
        assert_eq!(summary.shipped, *rows, "{summary:?}");
    }
}

/// Shards imported under coordinator leases ([`ShardImportOptions::from`])
/// and served with hellos advertising those leases are bit-identical to
/// the local `--shard` scan — and the client accepts the consistent
/// namespace assertions without complaint.
#[test]
fn lease_driven_v2_serving_matches_the_local_shard_scan() {
    let shards = 3usize;
    let texts = shard_texts(shards);
    let expr = || ttk_pdb::parse_expression("speed_limit / (length / delay)").unwrap();

    let local =
        CsvDataset::from_shard_texts("local-shards", texts.clone(), CsvOptions::default(), expr())
            .with_import(ShardImportOptions {
                first_tuple_id: 0,
                hashed_group_keys: true,
            })
            .into_dataset();

    // Lease each shard its id base in shard order (the registration order a
    // sequential daemon launch produces) under one namespace.
    let mut registry = ttk_uncertain::LeaseRegistry::new("pdb-e2e");
    let addrs: Vec<String> = texts
        .iter()
        .map(|text| {
            let rows = text.lines().filter(|l| !l.trim().is_empty()).count() as u64 - 1;
            let lease = registry.register(rows);
            serve_as(text.clone(), lease.id_base, 1, Some(lease)).0
        })
        .collect();

    let mut session = Session::new();
    let query = TopkQuery::new(3).with_p_tau(1e-3);
    let reference = session.execute(&local, &query).unwrap();
    let answer = session
        .execute(&RemoteShardDataset::new(addrs).into_dataset(), &query)
        .unwrap();
    assert_eq!(answer.distribution, reference.distribution);
    assert_eq!(answer.scan_depth, reference.scan_depth);
    assert_eq!(
        answer.u_topk.as_ref().unwrap().vector.ids(),
        reference.u_topk.as_ref().unwrap().vector.ids()
    );
}
