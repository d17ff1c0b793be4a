//! Totality of the wire decoders: every reader of socket bytes returns `Ok`
//! or `Err` and never panics — on arbitrary bytes, on valid encodings of
//! every frame kind with one byte changed, on valid encodings cut at every
//! length, and on valid encodings with a frame's length prefix replaced.

use proptest::prelude::*;
use ttk_uncertain::wire::{
    self, AdminRequest, AdminVerb, AppendAck, AppendRequest, ControlParser, Notification,
    PushdownQuery, QueryRequest, QueryResult, ShardAssignment, StoppedAt, SubscribeRequest,
    WireTypical, WireUTopk, WIRE_VERSION_V6,
};
use ttk_uncertain::{
    DistributionPoint, SourceTuple, TopkVector, TupleBlock, TupleId, TupleSource, UncertainTuple,
    VectorWitness, WireReader, WireWriter,
};

/// Runs every decoder of socket bytes over `bytes`, driving each to the end
/// of its input.
fn decode_all(bytes: &[u8]) {
    let _ = wire::read_client_request(&mut &bytes[..]);
    let mut reader = WireReader::new(bytes);
    while let Ok(Some(_)) = reader.next_tuple() {}
    let mut reader = WireReader::new(bytes);
    while let Ok(Some(_)) = reader.next_block(7) {}
    let _ = wire::read_query_result(&mut &bytes[..]);
    let _ = wire::read_append_ack(&mut &bytes[..]);
    let _ = wire::read_admin_response(&mut &bytes[..]);
    let _ = wire::read_lease(&mut &bytes[..]);
    let mut push = bytes;
    while let Ok(Some(_)) = wire::read_push(&mut push) {
        if wire::read_query_result(&mut push).is_err() {
            break;
        }
    }
    let mut parser = ControlParser::new();
    parser.extend(bytes);
    while let Ok(Some(_)) = parser.next_frame() {}
}

fn rows(n: u64) -> Vec<SourceTuple> {
    (0..n)
        .map(|i| {
            let tuple = UncertainTuple::new(i, 100.0 - i as f64, 0.25).unwrap();
            if i % 2 == 0 {
                SourceTuple::grouped(tuple, i)
            } else {
                SourceTuple::independent(tuple)
            }
        })
        .collect()
}

fn sample_query() -> QueryRequest {
    QueryRequest {
        dataset: "roads".into(),
        k: 3,
        p_tau: 1e-3,
        typical_count: 3,
        max_lines: 100,
        algorithm: 0,
        coalesce: 1,
        u_topk: true,
    }
}

fn sample_result() -> QueryResult {
    let vector = TopkVector::new(vec![TupleId(2), TupleId(6)], 118.0, 0.2);
    QueryResult {
        version: WIRE_VERSION_V6,
        cache_hit: true,
        scan_depth: 7,
        distribution_time_ns: 10,
        typical_time_ns: 5,
        expected_distance: 1.5,
        points: (0..4)
            .map(|i| DistributionPoint {
                score: 100.0 + i as f64,
                probability: 0.25,
                witness: (i % 2 == 0).then(|| VectorWitness {
                    ids: vec![TupleId(i), TupleId(i + 1)],
                    probability: 0.1,
                }),
            })
            .collect(),
        typical: vec![
            WireTypical {
                score: 118.0,
                probability: 0.2,
                vector: Some(vector.clone()),
            },
            WireTypical {
                score: 183.0,
                probability: 0.1,
                vector: None,
            },
        ],
        u_topk: Some(WireUTopk {
            vector,
            expansions: 8,
            deepest_position: 5,
        }),
        epoch: 2,
        cache_generation: 1,
        live: true,
        live_segments: 3,
        compacted_epoch: 1,
    }
}

/// A valid encoding of every frame kind, each as a peer would send it.
fn corpus() -> Vec<Vec<u8>> {
    let mut corpus = Vec::new();
    let mut push = |encode: &dyn Fn(&mut Vec<u8>)| {
        let mut bytes = Vec::new();
        encode(&mut bytes);
        corpus.push(bytes);
    };
    // Client to server: the six opening kinds.
    push(&|b| wire::write_scan(b, &PushdownQuery { k: 3, p_tau: 1e-3 }).unwrap());
    push(&|b| wire::write_register(b, 120, "area.shard0.csv").unwrap());
    push(&|b| wire::write_query_request(b, &sample_query()).unwrap());
    push(&|b| {
        wire::write_append_request(
            b,
            &AppendRequest {
                dataset: "feed".into(),
                seal: true,
                rows: rows(5),
            },
        )
        .unwrap()
    });
    push(&|b| {
        wire::write_subscribe(
            b,
            &SubscribeRequest {
                query: sample_query(),
                max_pushes: 2,
            },
        )
        .unwrap()
    });
    push(&|b| {
        wire::write_admin_request(
            b,
            &AdminRequest {
                verb: AdminVerb::Register,
                name: "grid".into(),
                arg: "/data/grid.csv".into(),
            },
        )
        .unwrap()
    });
    // Client to server, mid-stream: bound updates.
    push(&|b| {
        wire::write_bound(b, 0.5).unwrap();
        wire::write_bound(b, 0.75).unwrap();
    });
    // Server to client: shard streams (hello, blocks, trailer, end; and a
    // failure after the hello).
    push(&|b| {
        let assignment = ShardAssignment {
            id_base: 40,
            namespace: "coord".into(),
        };
        let mut writer = WireWriter::new(b, Some(6), Some(&assignment)).unwrap();
        for chunk in rows(6).chunks(4) {
            let mut block = TupleBlock::default();
            for row in chunk {
                block.push(row);
            }
            writer.write_block(&block).unwrap();
        }
        writer
            .write_stopped(&StoppedAt {
                scanned: 7,
                shipped: 6,
                gate_limited: true,
            })
            .unwrap();
        writer.finish().unwrap();
    });
    push(&|b| {
        WireWriter::new(b, None, None)
            .unwrap()
            .fail("source failed")
            .unwrap()
    });
    // Server to client: the other opening frames.
    push(&|b| {
        wire::write_lease(
            b,
            &ShardAssignment {
                id_base: 120,
                namespace: "coord".into(),
            },
        )
        .unwrap()
    });
    push(&|b| wire::write_query_result(b, &sample_result()).unwrap());
    push(&|b| {
        wire::write_append_ack(
            b,
            &AppendAck {
                epoch: 3,
                staged: 1,
                sealed_rows: 9,
                sealed_now: true,
            },
        )
        .unwrap()
    });
    push(&|b| {
        wire::write_notification(
            b,
            &Notification {
                epoch: 3,
                answer_hash: 0xFEED,
            },
        )
        .unwrap();
        wire::write_query_result(b, &sample_result()).unwrap();
        wire::write_push_end(b).unwrap();
    });
    push(&|b| wire::write_admin_response(b, "resident datasets: 1").unwrap());
    push(&|b| wire::write_busy(b, 100).unwrap());
    push(&|b| wire::write_error(b, "no such dataset `x`").unwrap());
    corpus
}

/// Offsets of the length prefixes of the frames in a valid encoding.
fn frame_offsets(encoding: &[u8]) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut at = 0;
    while at + 4 <= encoding.len() {
        offsets.push(at);
        at += 4 + u32::from_le_bytes(encoding[at..at + 4].try_into().unwrap()) as usize;
    }
    offsets
}

#[test]
fn the_corpus_decodes_cleanly() {
    let corpus = corpus();
    assert!(wire::read_client_request(&mut corpus[3].as_slice()).is_ok());
    let mut reader = WireReader::new(corpus[7].as_slice());
    let mut shipped = 0;
    while let Some(tuple) = reader.next_tuple().unwrap() {
        assert_eq!(tuple, rows(6)[shipped]);
        shipped += 1;
    }
    assert_eq!(shipped, 6);
    assert_eq!(
        wire::read_query_result(&mut corpus[10].as_slice()).unwrap(),
        sample_result()
    );
}

#[test]
fn cut_encodings_never_panic() {
    for encoding in corpus() {
        for cut in 0..=encoding.len() {
            decode_all(&encoding[..cut]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..513)) {
        decode_all(&bytes);
    }

    #[test]
    fn one_changed_byte_never_panics(
        pick in 0usize..1024,
        at in 0usize..1 << 20,
        value in 0u8..=255,
    ) {
        let corpus = corpus();
        let mut encoding = corpus[pick % corpus.len()].clone();
        let at = at % encoding.len();
        encoding[at] = value;
        decode_all(&encoding);
    }

    #[test]
    fn replaced_length_prefixes_never_panic(
        pick in 0usize..1024,
        frame in 0usize..64,
        len in 0u32..140_000,
    ) {
        let corpus = corpus();
        let mut encoding = corpus[pick % corpus.len()].clone();
        let offsets = frame_offsets(&encoding);
        let at = offsets[frame % offsets.len()];
        encoding[at..at + 4].copy_from_slice(&len.to_le_bytes());
        decode_all(&encoding);
    }
}
