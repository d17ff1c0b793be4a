//! Cross-kind parity of the unified `Dataset`/`Session` API: for **any**
//! random table, executing through `Session::execute` must be
//! **bit-identical** across every `Dataset` kind wrapping the same relation
//! (in-memory table, owned stream, shard set, generator closure), and
//! `Session::execute_batch` must match sequential execution under every
//! ordering and delivery mode.

use proptest::prelude::*;
use ttk_core::{
    answer_hash, cost_descending_order, estimated_cost, BatchOptions, BatchOrdering, Dataset,
    QueryAnswer, QueryJob, Session, TopkQuery,
};
use ttk_uncertain::{partition_round_robin, Result, UncertainTable, UncertainTuple, VecSource};

mod support;

/// The shared adversarial table generator (score ties, greedy ME grouping).
fn random_table() -> impl Strategy<Value = UncertainTable> {
    support::table_with(8)
}

/// Asserts two execution results are bit-identical (or fail together).
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
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `Dataset::stream` ≡ `Dataset::table` (full-table U-Topk path
    /// included: the stream path drains the remainder for it).
    #[test]
    fn stream_dataset_matches_table_dataset(
        table in random_table(),
        k in 1usize..5,
        u_topk in any::<bool>(),
    ) {
        let query = TopkQuery::new(k).with_p_tau(1e-3).with_u_topk(u_topk);
        let mut session = Session::new();
        let stream = session.execute(&Dataset::stream(table.to_source()), &query);
        let via_table = session.execute(&Dataset::table(table), &query);
        assert_identical(via_table, stream)?;
    }

    /// `Dataset::shards` ≡ `Dataset::stream` for any round-robin partition.
    #[test]
    fn shards_dataset_matches_stream_dataset(
        table in random_table(),
        shards in 1usize..5,
        k in 1usize..5,
    ) {
        let query = TopkQuery::new(k).with_p_tau(1e-3).with_u_topk(false);
        let mut session = Session::new();
        let single = session.execute(&Dataset::stream(table.to_source()), &query);
        let dataset =
            Dataset::shards(partition_round_robin(table.to_source(), shards).unwrap());
        let sharded = session.execute(&dataset, &query);
        assert_identical(single, sharded)?;
    }

    /// `Dataset::generator` ≡ the stream path, and replays identically.
    #[test]
    fn generator_dataset_matches_stream_and_replays(
        table in random_table(),
        k in 1usize..4,
    ) {
        let query = TopkQuery::new(k).with_p_tau(1e-3).with_u_topk(false);
        let mut session = Session::new();
        let single = session.execute(&Dataset::stream(table.to_source()), &query);
        let template: VecSource = table.to_source();
        let dataset = Dataset::generator(move || Ok(template.clone()));
        let first = session.execute(&dataset, &query);
        let second = session.execute(&dataset, &query);
        assert_identical(single, first)?;
        match (session.execute(&dataset, &query), second) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a.distribution, b.distribution),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "replays disagree: {:?} vs {:?}", a, b),
        }
    }

    /// `Session::execute_batch` ≡ per-job `Session::execute` over a shared
    /// table, for both orderings and any thread count.
    #[test]
    fn session_batch_matches_per_job_execution(
        table in random_table(),
        threads in 0usize..4,
        ordering_cost in any::<bool>(),
    ) {
        let ks: Vec<usize> = (1..=6).collect();
        let dataset = Dataset::table(table);
        let jobs: Vec<QueryJob> = ks
            .iter()
            .map(|&k| QueryJob::new(&dataset, TopkQuery::new(k).with_u_topk(false)))
            .collect();
        let mut session = Session::new();
        let sequential: Vec<Result<QueryAnswer>> = jobs
            .iter()
            .map(|job| session.execute(job.dataset, &job.query))
            .collect();

        let ordering = if ordering_cost {
            BatchOrdering::CostDescending
        } else {
            BatchOrdering::Submission
        };
        let batch = session.execute_batch(
            &jobs,
            &BatchOptions::new().with_threads(threads).with_ordering(ordering),
        );
        prop_assert_eq!(sequential.len(), batch.len());
        for (a, b) in sequential.into_iter().zip(batch) {
            assert_identical(a, b)?;
        }
    }

    /// Per-job shard datasets under the batch executor ≡ the shared-table
    /// batch (each job owning its single-pass shard streams).
    #[test]
    fn per_job_shard_batch_matches_table_batch(
        table in random_table(),
        shards in 1usize..4,
        threads in 0usize..4,
    ) {
        let ks: Vec<usize> = (1..=5).collect();
        let mut session = Session::new();
        let shared = Dataset::table(table.clone());
        let table_jobs: Vec<QueryJob> = ks
            .iter()
            .map(|&k| QueryJob::new(&shared, TopkQuery::new(k).with_u_topk(false)))
            .collect();
        let expected =
            session.execute_batch(&table_jobs, &BatchOptions::new().with_threads(1));

        let datasets: Vec<Dataset> = ks
            .iter()
            .map(|_| Dataset::shards(partition_round_robin(table.to_source(), shards).unwrap()))
            .collect();
        let jobs: Vec<QueryJob> = datasets
            .iter()
            .zip(&ks)
            .map(|(dataset, &k)| QueryJob::new(dataset, TopkQuery::new(k).with_u_topk(false)))
            .collect();
        let sharded =
            session.execute_batch(&jobs, &BatchOptions::new().with_threads(threads));
        prop_assert_eq!(expected.len(), sharded.len());
        for (a, b) in expected.into_iter().zip(sharded) {
            assert_identical(a, b)?;
        }
    }
}

/// The pathological big-last schedule: under cost ordering the expensive job
/// runs first instead of serializing the tail of the batch.
#[test]
fn big_last_job_is_scheduled_first() {
    let small = TopkQuery::new(1).with_p_tau(0.5).with_u_topk(false);
    // Huge k, tiny pτ, and a full U-Topk drain: by far the biggest job.
    let big = TopkQuery::new(40).with_p_tau(1e-9);
    let queries = [small, small, small, big];
    let costs: Vec<f64> = queries
        .iter()
        .map(|q| estimated_cost(q, Some(10_000)))
        .collect();
    let order = cost_descending_order(&costs);
    assert_eq!(
        order[0], 3,
        "the big job submitted last must run first: {costs:?}"
    );
    // Equal-cost jobs keep submission order behind it.
    assert_eq!(&order[1..], &[0, 1, 2]);
}

/// Bounded result-memory mode: a >100-job batch delivered through the
/// callback sink with at most 4 resident results matches sequential
/// execution exactly.
#[test]
fn bounded_memory_batch_matches_sequential_for_many_jobs() {
    let table = UncertainTable::new(
        (0..60)
            .map(|i| {
                UncertainTuple::new(i as u64, (60 - i) as f64, 0.5 + 0.4 * ((i % 2) as f64))
                    .unwrap()
            })
            .collect(),
        Vec::new(),
    )
    .unwrap();
    let dataset = Dataset::table(table.clone());
    let jobs: Vec<QueryJob> = (0..120)
        .map(|i| QueryJob::new(&dataset, TopkQuery::new(1 + i % 7).with_u_topk(false)))
        .collect();

    let mut delivered: Vec<Option<QueryAnswer>> = (0..jobs.len()).map(|_| None).collect();
    let mut deliveries = 0usize;
    Session::new().execute_batch_with(
        &jobs,
        &BatchOptions::new().with_threads(4).max_resident_results(4),
        |index, answer| {
            assert!(delivered[index].is_none(), "job {index} delivered twice");
            delivered[index] = Some(answer.expect("jobs are valid"));
            deliveries += 1;
        },
    );
    assert_eq!(deliveries, jobs.len());

    let mut session = Session::new();
    for (i, job) in jobs.iter().enumerate() {
        let sequential = session.execute(&dataset, &job.query).unwrap();
        let batched = delivered[i].as_ref().expect("every job delivered");
        assert_eq!(sequential.distribution, batched.distribution, "job {i}");
        assert_eq!(sequential.scan_depth, batched.scan_depth, "job {i}");
    }
}

/// Answers depend neither on what a session ran before nor on how many
/// workers ran the DP. The `local-query` benchmark's shapes (k = 3 and 5 on
/// the 199- and 1,971-row CarTel relations, U-Topk on and off) go through
/// a fresh session each, through one long-lived session in two shuffled
/// orders, and through a batch, whose workers run each DP on one worker;
/// every [`answer_hash`] must agree.
#[test]
fn answers_do_not_depend_on_history_or_worker_count() {
    let datasets: Vec<Dataset> = [60, 600]
        .map(|segments| Dataset::table(ttk_datagen::cartel::area_table(segments, 9).unwrap()))
        .into();
    let mut shapes = Vec::new();
    for relation in 0..2 {
        for k in [3, 5] {
            for u_topk in [false, true] {
                shapes.push((relation, TopkQuery::new(k).with_u_topk(u_topk)));
            }
        }
    }
    let fresh: Vec<u64> = shapes
        .iter()
        .map(|(relation, query)| {
            answer_hash(&Session::new().execute(&datasets[*relation], query).unwrap())
        })
        .collect();

    let mut session = Session::new();
    for seed in [11u64, 12] {
        // Each shape three times, Fisher–Yates shuffled by a xorshift.
        let mut order: Vec<usize> = (0..shapes.len()).flat_map(|s| [s; 3]).collect();
        let mut x = seed;
        for i in (1..order.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        for shape in order {
            let (relation, query) = &shapes[shape];
            let answer = session.execute(&datasets[*relation], query).unwrap();
            assert_eq!(
                answer_hash(&answer),
                fresh[shape],
                "relation {relation}, {query:?}, shuffle {seed}"
            );
        }
    }

    let jobs: Vec<QueryJob> = shapes
        .iter()
        .map(|(relation, query)| QueryJob::new(&datasets[*relation], *query))
        .collect();
    let batched = Session::new().execute_batch(&jobs, &BatchOptions::new().with_threads(2));
    for (((relation, query), answer), want) in shapes.iter().zip(batched).zip(&fresh) {
        let answer = answer.unwrap();
        assert_eq!(
            answer_hash(&answer),
            *want,
            "relation {relation}, {query:?} in a batch"
        );
    }
}

/// The cost-model drift hook: after an execution, `explain` reports the
/// observed scan depth and the observed/estimated ratio.
#[test]
fn explain_reports_observed_depth_after_execution() {
    let table = UncertainTable::new(
        (0..200)
            .map(|i| UncertainTuple::new(i as u64, (200 - i) as f64, 0.9).unwrap())
            .collect(),
        Vec::new(),
    )
    .unwrap();
    let dataset = Dataset::table(table).with_label("calibration-demo");
    let query = TopkQuery::new(3).with_p_tau(1e-3).with_u_topk(false);
    let mut session = Session::new();

    // Before execution there is an estimate but no observation.
    let before = session.explain(&dataset, &query);
    assert!(before.estimated_depth.is_some());
    assert_eq!(before.observed_depth, None);
    assert_eq!(before.observed_vs_estimated(), None);

    let answer = session.execute(&dataset, &query).unwrap();
    let after = session.explain(&dataset, &query);
    assert_eq!(after.observed_depth, Some(answer.scan_depth));
    let drift = after.observed_vs_estimated().expect("both sides known");
    assert!(drift > 0.0);
    assert!(
        (drift - answer.scan_depth as f64 / after.estimated_depth.unwrap() as f64).abs() < 1e-12
    );
    let text = after.to_string();
    assert!(text.contains("observed scan depth"), "{text}");

    // A different (k, pτ) has its own observation slot.
    let other = TopkQuery::new(4).with_p_tau(1e-3).with_u_topk(false);
    assert_eq!(session.explain(&dataset, &other).observed_depth, None);

    // A *different* dataset — even with an identical label — never reads
    // this dataset's observations (keys are per dataset identity).
    let twin = Dataset::table(
        UncertainTable::new(
            (0..10)
                .map(|i| UncertainTuple::new(i as u64, (10 - i) as f64, 0.9).unwrap())
                .collect(),
            Vec::new(),
        )
        .unwrap(),
    )
    .with_label("calibration-demo");
    assert_eq!(session.explain(&twin, &query).observed_depth, None);

    // Batches record observations too.
    let jobs = [QueryJob::new(&dataset, other)];
    session.execute_batch(&jobs, &BatchOptions::new());
    assert!(session.explain(&dataset, &other).observed_depth.is_some());
}
