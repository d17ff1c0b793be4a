//! Acceptance tests for the streaming rank-scan executor:
//!
//! * every `Algorithm` variant runs through `TupleSource` + `ScanGate`, and
//!   none of the Theorem-2-bounded algorithms reads past the bound (asserted
//!   with a counting source);
//! * a batch of ≥ 100 independent queries executed in parallel produces
//!   results identical to sequential execution.
//!
//! Everything runs through the unified `Dataset`/`Session` API — the
//! per-shape entry points of earlier releases are gone.

use ttk_core::{scan_depth, Algorithm, BatchOptions, Dataset, QueryJob, Session, TopkQuery};
use ttk_datagen::cartel::{generate_area, CartelConfig};
use ttk_datagen::synthetic::{generate, MePolicy, SyntheticConfig};
use ttk_uncertain::{
    partition_round_robin, CountingSource, TableSource, UncertainTable, VecSource,
};

/// A large workload whose top tuples carry high confidence (ρ = +0.8), so
/// even the combination-enumerating baselines keep answers above pτ.
fn confident_synthetic_table() -> UncertainTable {
    generate(&SyntheticConfig {
        tuples: 2_000,
        correlation: 0.8,
        me_policy: MePolicy::default(),
        seed: 4242,
        ..SyntheticConfig::default()
    })
    .expect("synthetic generation succeeds")
}

#[test]
fn bounded_algorithms_over_read_at_most_the_last_block_ask() {
    let table = confident_synthetic_table();
    let k = 4;
    let p_tau = 1e-3;
    let depth = scan_depth(&table, k, p_tau).unwrap();
    assert!(
        depth + 1 < table.len(),
        "workload must stop early (depth {depth} of {})",
        table.len()
    );

    let mut session = Session::new();
    for algorithm in [
        Algorithm::Main,
        Algorithm::MainPerEnding,
        Algorithm::StateExpansion,
        Algorithm::KCombo,
    ] {
        let source = CountingSource::new(table.to_source());
        let counter = source.counter();
        let dataset = Dataset::stream(source);
        let query = TopkQuery::new(k)
            .with_p_tau(p_tau)
            .with_algorithm(algorithm)
            .with_u_topk(false);
        let answer = session
            .execute(&dataset, &query)
            .unwrap_or_else(|e| panic!("{algorithm:?}: {e}"));
        assert_eq!(answer.scan_depth, depth, "{algorithm:?}");
        // The gate still admits exactly `depth` tuples and closes on the
        // `depth + 1`-st, but the scan pulls columnar blocks, so the source
        // may be read past the stopping tuple by at most the remainder of
        // the block the gate closed inside (< MAX_BLOCK_TUPLES).
        assert!(
            counter.get() > depth,
            "{algorithm:?} must read past the bound to close the gate"
        );
        assert!(
            counter.get() <= depth + ttk_core::MAX_BLOCK_TUPLES,
            "{algorithm:?} read {} tuples for depth {depth}: more than one \
             block past the bound",
            counter.get()
        );
        assert!(
            answer.distribution.total_probability() > 0.5,
            "{algorithm:?}"
        );
    }
}

#[test]
fn source_path_u_topk_keeps_full_table_semantics() {
    // U-Topk has no probability threshold, so the source path drains the
    // remainder of the stream for it instead of searching only the pτ prefix.
    let table = confident_synthetic_table();
    let query = TopkQuery::new(3).with_p_tau(1e-3); // U-Topk on by default.

    let source = CountingSource::new(table.to_source());
    let counter = source.counter();
    let mut session = Session::new();
    let streamed = session.execute(&Dataset::stream(source), &query).unwrap();
    let materialized = Session::new()
        .execute(&Dataset::table(table.clone()), &query)
        .unwrap();

    let (a, b) = (
        streamed.u_topk.as_ref().unwrap(),
        materialized.u_topk.as_ref().unwrap(),
    );
    assert_eq!(a.vector.ids(), b.vector.ids());
    assert_eq!(a.vector.probability(), b.vector.probability());
    assert_eq!(streamed.distribution, materialized.distribution);
    // Draining for U-Topk reads the whole stream — the bound only holds when
    // the comparison answer is disabled.
    assert_eq!(counter.get(), table.len());
}

#[test]
fn exhaustive_variant_runs_through_the_source_too() {
    // Exhaustive enumeration needs the whole (tiny) stream; the open gate
    // drains it and the result matches the table-based path.
    let table = generate(&SyntheticConfig {
        tuples: 12,
        me_policy: MePolicy::default(),
        seed: 99,
        ..SyntheticConfig::default()
    })
    .unwrap();
    let query = TopkQuery::new(3)
        .with_p_tau(1e-12)
        .with_max_lines(0)
        .with_algorithm(Algorithm::Exhaustive)
        .with_u_topk(false);

    let source = CountingSource::new(table.to_source());
    let counter = source.counter();
    let streamed = Session::new()
        .execute(&Dataset::stream(source), &query)
        .unwrap();
    assert_eq!(counter.get(), table.len());

    let materialized = Session::new()
        .execute(&Dataset::table(table), &query)
        .unwrap();
    assert_eq!(streamed.distribution, materialized.distribution);
}

#[test]
fn parallel_batch_matches_sequential_execution() {
    // ≥ 100 independent queries: three tables × a (k, pτ, algorithm) grid.
    // Seeds are chosen for small areas so the suite stays fast on one core.
    let tables: Vec<UncertainTable> = [100u64, 104, 105]
        .iter()
        .map(|&seed| {
            generate_area(&CartelConfig {
                segments: 25,
                seed,
                ..CartelConfig::default()
            })
            .unwrap()
            .into_table()
        })
        .collect();
    let datasets: Vec<Dataset> = tables.iter().map(|t| Dataset::table(t.clone())).collect();
    let mut jobs = Vec::new();
    let mut job_tables = Vec::new(); // table index per job, for spot-checks
    for (table_index, dataset) in datasets.iter().enumerate() {
        let mut push = |query: TopkQuery| {
            jobs.push(QueryJob::new(dataset, query));
            job_tables.push(table_index);
        };
        for k in 1..=10usize {
            for p_tau in [1e-3, 1e-2] {
                push(
                    TopkQuery::new(k)
                        .with_p_tau(p_tau)
                        .with_algorithm(Algorithm::Main)
                        .with_u_topk(k % 2 == 0 && k <= 4),
                );
            }
            if k <= 8 {
                push(
                    TopkQuery::new(k)
                        .with_p_tau(1e-3)
                        .with_algorithm(Algorithm::MainPerEnding)
                        .with_u_topk(false),
                );
            }
            if k <= 4 {
                push(
                    TopkQuery::new(k)
                        .with_p_tau(5e-2)
                        .with_algorithm(Algorithm::StateExpansion)
                        .with_u_topk(false),
                );
            }
            if k <= 2 {
                push(
                    TopkQuery::new(k)
                        .with_p_tau(1e-2)
                        .with_algorithm(Algorithm::KCombo)
                        .with_u_topk(false),
                );
            }
        }
    }
    assert!(jobs.len() >= 100, "{} jobs", jobs.len());

    let mut session = Session::new();
    let parallel = session.execute_batch(&jobs, &BatchOptions::new().with_threads(4));
    let sequential = session.execute_batch(&jobs, &BatchOptions::new().with_threads(1));
    assert_eq!(parallel.len(), jobs.len());

    for (index, (p, s)) in parallel.iter().zip(&sequential).enumerate() {
        match (p, s) {
            // Determinism covers failures too: identical messages.
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "job {index}"),
            (Ok(p), Ok(s)) => {
                assert_eq!(p.distribution, s.distribution, "job {index}");
                assert_eq!(p.typical.scores(), s.typical.scores(), "job {index}");
                assert_eq!(p.scan_depth, s.scan_depth, "job {index}");
                match (&p.u_topk, &s.u_topk) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        assert_eq!(a.vector.ids(), b.vector.ids(), "job {index}");
                        assert_eq!(
                            a.vector.probability(),
                            b.vector.probability(),
                            "job {index}"
                        );
                    }
                    other => panic!("job {index}: U-Topk presence mismatch {other:?}"),
                }
                // Spot-check against a fresh session's single execution.
                if index % 10 == 0 {
                    let direct = Session::new()
                        .execute(&datasets[job_tables[index]], &jobs[index].query)
                        .unwrap();
                    assert_eq!(p.distribution, direct.distribution, "job {index}");
                }
            }
            other => panic!("job {index}: outcome mismatch {other:?}"),
        }
    }
}

#[test]
fn executor_scratch_reuse_does_not_leak_state_between_queries() {
    let big = Dataset::table(confident_synthetic_table());
    let small = Dataset::table(ttk_datagen::soldier::table().unwrap());
    let mut session = Session::new();

    let first = session
        .execute(&big, &TopkQuery::new(8).with_u_topk(false))
        .unwrap();
    let second = session
        .execute(
            &small,
            &TopkQuery::new(2).with_p_tau(1e-9).with_max_lines(0),
        )
        .unwrap();
    let third = session
        .execute(&big, &TopkQuery::new(8).with_u_topk(false))
        .unwrap();

    // Interleaving an unrelated query must not perturb results.
    assert_eq!(first.distribution, third.distribution);
    assert_eq!(second.typical.scores(), vec![118.0, 183.0, 235.0]);

    // A fresh session agrees with the reused one.
    let fresh = Session::new()
        .execute(&big, &TopkQuery::new(8).with_u_topk(false))
        .unwrap();
    assert_eq!(first.distribution, fresh.distribution);
}

#[test]
fn sharded_scan_over_read_is_bounded_by_the_block_ask_per_shard() {
    let table = confident_synthetic_table();
    let k = 4;
    let p_tau = 1e-3;
    let shards = 4usize;
    let depth = scan_depth(&table, k, p_tau).unwrap();
    assert!(depth + 1 < table.len(), "workload must stop early");

    let parts = partition_round_robin(TableSource::new(&table), shards).unwrap();
    let counted: Vec<CountingSource<VecSource>> =
        parts.into_iter().map(CountingSource::new).collect();
    let counters: Vec<_> = counted.iter().map(|c| c.counter()).collect();
    let query = TopkQuery::new(k).with_p_tau(p_tau).with_u_topk(false);
    let answer = Session::new()
        .execute(&Dataset::shards(counted), &query)
        .unwrap();
    assert_eq!(answer.scan_depth, depth);

    // The merged scan emits at least depth + 1 tuples (the gate closes on
    // the depth + 1-st) and at most the remainder of the block the gate
    // closed inside on top (< MAX_BLOCK_TUPLES). Round robin deals global
    // rank position p to shard p % shards, so the emitted tuples spread
    // evenly, and each shard may additionally hold one buffered merge head.
    let emitted_bound = depth + ttk_core::MAX_BLOCK_TUPLES;
    for (i, counter) in counters.iter().enumerate() {
        assert!(
            counter.get() <= emitted_bound.div_ceil(shards) + 1,
            "shard {i}: pulled {} for at most {emitted_bound} merged tuples",
            counter.get()
        );
    }
    let pulled_total: usize = counters.iter().map(|c| c.get()).sum();
    assert!(
        pulled_total > depth,
        "the merged scan must read past the bound to close the gate"
    );
    assert!(
        pulled_total <= emitted_bound + shards,
        "total reads {pulled_total} exceed depth {depth} + one block + {shards} heads"
    );
}

#[test]
fn sharded_execution_matches_single_source_end_to_end() {
    let table = confident_synthetic_table();
    let whole = Dataset::table(table.clone());
    let mut session = Session::new();
    for shards in [1usize, 2, 3, 7] {
        let query = TopkQuery::new(5).with_p_tau(1e-3).with_u_topk(false);
        let single = Session::new().execute(&whole, &query).unwrap();
        let parts = partition_round_robin(TableSource::new(&table), shards).unwrap();
        let sharded = session.execute(&Dataset::shards(parts), &query).unwrap();
        assert_eq!(single.distribution, sharded.distribution, "{shards} shards");
        assert_eq!(single.scan_depth, sharded.scan_depth);
        assert_eq!(single.typical.scores(), sharded.typical.scores());
    }
}

#[test]
fn source_batch_matches_table_batch() {
    // Per-job shard datasets (each job owning its single-pass streams) agree
    // with the shared-table batch, in parallel and sequentially.
    let table = confident_synthetic_table();
    let ks: Vec<usize> = (1..=8).collect();
    let shared = Dataset::table(table.clone());
    let table_jobs: Vec<QueryJob> = ks
        .iter()
        .map(|&k| QueryJob::new(&shared, TopkQuery::new(k).with_p_tau(1e-3)))
        .collect();
    let mut session = Session::new();
    let expected = session.execute_batch(&table_jobs, &BatchOptions::new().with_threads(1));

    for threads in [1usize, 3] {
        let datasets: Vec<Dataset> = ks
            .iter()
            .map(|_| Dataset::shards(partition_round_robin(TableSource::new(&table), 3).unwrap()))
            .collect();
        let source_jobs: Vec<QueryJob> = datasets
            .iter()
            .zip(&ks)
            .map(|(dataset, &k)| QueryJob::new(dataset, TopkQuery::new(k).with_p_tau(1e-3)))
            .collect();
        let answers =
            session.execute_batch(&source_jobs, &BatchOptions::new().with_threads(threads));
        assert_eq!(answers.len(), expected.len());
        for ((k, a), e) in ks.iter().zip(&answers).zip(&expected) {
            let (a, e) = (a.as_ref().unwrap(), e.as_ref().unwrap());
            assert_eq!(a.distribution, e.distribution, "k={k} threads={threads}");
            let (ua, ue) = (a.u_topk.as_ref().unwrap(), e.u_topk.as_ref().unwrap());
            assert_eq!(ua.vector.ids(), ue.vector.ids(), "k={k}");
        }
    }
}
