//! `ttk soldier`, `ttk query` and `ttk explain`: input resolution, local or
//! `--server` execution, and the printing of plans and answers.

use ttk_core::{
    BatchOptions, Dataset, DatasetProvider, QueryAnswer, QueryJob, RemoteShardDataset, Session,
    TopkQuery,
};
use ttk_datagen::soldier;
use ttk_pdb::{parse_expression, CsvDataset, ShardImportOptions, SpillOptions};
use ttk_uncertain::{ScoreDistribution, TupleSource};

use crate::{
    get, get_parse, parse, parse_buckets, parse_connect_options, parse_csv_options,
    parse_topk_params, passes, server_query_client, Flags, EXPLAIN, EXPLAIN_SERVER, QUERY,
    QUERY_SERVER, SOLDIER,
};

pub(crate) fn cmd_soldier(args: &[String]) -> Result<(), String> {
    parse(&SOLDIER, args)?;
    let table = soldier::table().map_err(|e| e.to_string())?;
    let dataset = Dataset::table(table).with_label("soldier (Figure 1)");
    let query = TopkQuery::new(2).with_p_tau(1e-9).with_max_lines(0);
    let answer = Session::new()
        .execute(&dataset, &query)
        .map_err(|e| e.to_string())?;
    println!("The soldier-monitoring example of the paper (k = 2):");
    print_answer(&answer, 14);
    Ok(())
}

pub(crate) fn cmd_query(args: &[String]) -> Result<(), String> {
    let server = passes(args, "server");
    let (positional, flags) = parse(if server { &QUERY_SERVER } else { &QUERY }, args)?;
    let k = get_parse(&flags, "k", 0usize)?;
    let batch_ks = get(&flags, "batch").map(parse_k_list).transpose()?;
    if k == 0 && batch_ks.is_none() {
        return Err("--k (or --batch) is required and must be at least 1".to_string());
    }
    let buckets = parse_buckets(&flags)?;
    let topk = parse_topk_params(&flags, k.max(1))?;

    if server {
        let (client, dataset) = server_query_client(&flags)?;
        if let Some(ks) = batch_ks {
            // The batch re-dials per k; repeated shapes land in the server's
            // result cache, so a re-run of the batch is answered cache-hot.
            let started = std::time::Instant::now();
            let answers: Vec<ttk_uncertain::Result<QueryAnswer>> = ks
                .iter()
                .map(|&batch_k| {
                    client
                        .execute(&dataset, &topk.with_k(batch_k))
                        .map(|remote| remote.answer)
                })
                .collect();
            println!(
                "batch served remotely from `{dataset}` on {}",
                client.addr()
            );
            print_batch_summary(&ks, &answers, started.elapsed(), 1);
            return Ok(());
        }
        let remote = client.execute(&dataset, &topk).map_err(|e| e.to_string())?;
        println!("{}", client.plan(&dataset, &topk, &remote));
        print_answer(&remote.answer, buckets);
        return Ok(());
    }

    let threads = get_parse(&flags, "threads", 0usize)?;
    let dataset = resolve_dataset(&positional, &flags, false)?;
    let mut session = Session::new();

    if let Some(ks) = batch_ks {
        let jobs: Vec<QueryJob> = ks
            .iter()
            .map(|&batch_k| QueryJob::new(&dataset, topk.with_k(batch_k)))
            .collect();
        let started = std::time::Instant::now();
        let answers = session.execute_batch(&jobs, &BatchOptions::new().with_threads(threads));
        println!("{}", session.explain(&dataset, &topk.with_k(ks[0])));
        print_batch_summary(&ks, &answers, started.elapsed(), threads);
        return Ok(());
    }

    let answer = session
        .execute(&dataset, &topk)
        .map_err(|e| e.to_string())?;
    println!("{}", session.explain(&dataset, &topk));
    print_answer(&answer, buckets);
    Ok(())
}

pub(crate) fn cmd_explain(args: &[String]) -> Result<(), String> {
    let server = passes(args, "server");
    let (positional, flags) = parse(if server { &EXPLAIN_SERVER } else { &EXPLAIN }, args)?;
    let k = get_parse(&flags, "k", 1usize)?;
    if k == 0 {
        return Err("--k must be at least 1".to_string());
    }
    let topk = parse_topk_params(&flags, k)?;
    let after = flags.contains_key("after");

    let plan = if server {
        if !after {
            return Err(
                "explain --server needs --after: the plan lives on the server, so the query \
                 must execute once for the daemon to report its observed scan depth and \
                 result-cache outcome"
                    .to_string(),
            );
        }
        let (client, dataset) = server_query_client(&flags)?;
        let remote = client.execute(&dataset, &topk).map_err(|e| e.to_string())?;
        client.plan(&dataset, &topk, &remote)
    } else {
        let dataset = resolve_dataset(&positional, &flags, false)?;
        let mut session = Session::new();
        if after {
            // Execute once so the plan can report the observed scan depth
            // next to the estimate.
            session
                .execute(&dataset, &topk)
                .map_err(|e| e.to_string())?;
        }
        session.explain(&dataset, &topk)
    };
    println!("{plan}");
    Ok(())
}

/// Parses a `--batch` specification: `1,5,10` or `LO:HI` (inclusive).
fn parse_k_list(raw: &str) -> Result<Vec<usize>, String> {
    if let Some((lo, hi)) = raw.split_once(':') {
        let lo: usize = lo
            .parse()
            .map_err(|_| format!("invalid batch range `{raw}`"))?;
        let hi: usize = hi
            .parse()
            .map_err(|_| format!("invalid batch range `{raw}`"))?;
        if lo == 0 || lo > hi {
            return Err(format!("empty batch range `{raw}`"));
        }
        return Ok((lo..=hi).collect());
    }
    let ks: Vec<usize> = raw
        .split(',')
        .map(|part| part.trim().parse())
        .collect::<Result<_, _>>()
        .map_err(|_| format!("invalid batch list `{raw}`"))?;
    if ks.contains(&0) {
        return Err(format!("batch list `{raw}` must contain positive k values"));
    }
    Ok(ks)
}

/// Resolves the input flags of `query`/`explain`/`serve-shard` to exactly
/// one [`Dataset`] scored with `--score`.
///
/// The input forms — a single CSV file (positional or `--file`), a shard
/// set (repeatable `--shard`), the out-of-core scan of a single file
/// (`--spill-buffer`) and remote shard servers (repeatable `--remote-shard`,
/// mixable with `--shard`) — are mutually constrained; any conflicting
/// combination is rejected with one error naming the dataset kind each flag
/// resolves to, before any file is read or any server dialled. `serving`
/// marks the serve-shard mode, whose flag table has no `--remote-shard`:
/// group keys are hashed so independently-served shards agree on ME groups
/// without coordination.
pub(crate) fn resolve_dataset(
    positional: &[String],
    flags: &Flags,
    serving: bool,
) -> Result<Dataset, String> {
    let shard_files: Vec<String> = flags.get("shard").cloned().unwrap_or_default();
    let remote_shards: Vec<String> = flags.get("remote-shard").cloned().unwrap_or_default();
    let flag_file = get(flags, "file");
    if positional.len() > 1 {
        return Err(format!(
            "unexpected extra positional arguments {:?}: a query scans one dataset — pass a \
             single CSV file, or use --shard (repeatable) for the shard files of one \
             partitioned relation",
            &positional[1..]
        ));
    }
    let positional_file = positional.first().map(String::as_str);
    let spill_buffer = get_parse(flags, "spill-buffer", 0usize)?;
    let id_base = get_parse(flags, "id-base", 0u64)?;
    let score = get(flags, "score").ok_or("--score is required")?;
    let expression = parse_expression(score).map_err(|e| e.to_string())?;
    let csv_options = parse_csv_options(flags);

    if let (Some(p), Some(f)) = (positional_file, flag_file) {
        return Err(format!(
            "conflicting input flags: the positional argument `{p}` and --file `{f}` both \
             resolve to a single-file CSV dataset; pass the file once"
        ));
    }
    let file = flag_file.or(positional_file);

    if !remote_shards.is_empty() {
        if let Some(file) = file {
            return Err(format!(
                "conflicting input flags: `{file}` resolves to a single-file CSV dataset, \
                 but --remote-shard was also given ({} servers resolving to a remote shard \
                 dataset); use --shard for local shards merged with remote ones",
                remote_shards.len()
            ));
        }
        if spill_buffer > 0 {
            return Err(
                "conflicting input flags: --spill-buffer configures the external sort of a \
                 single-file CSV dataset, but the input resolved to a remote shard dataset; \
                 spill on the serving side (ttk serve-shard --spill-buffer) instead"
                    .to_string(),
            );
        }
        let mut dataset = RemoteShardDataset::new(remote_shards)
            .with_connect_options(parse_connect_options(flags)?)
            .with_pushdown(!flags.contains_key("no-pushdown"));
        if !shard_files.is_empty() {
            // Local shards merged into the same relation: hashed group keys
            // (matching the serving side) and the caller-provided id base.
            // Wrapped in a CsvDataset so the scoring pass is cached — every
            // open (e.g. each job of a --batch) replays the cached sources
            // as one pre-merged stream instead of re-reading the files.
            let count = shard_files.len();
            let local = CsvDataset::from_shard_paths(shard_files, csv_options, expression)
                .with_import(ShardImportOptions {
                    first_tuple_id: id_base,
                    hashed_group_keys: true,
                });
            dataset = dataset.with_local_shards(count, move || {
                Ok(vec![Box::new(local.open()?) as Box<dyn TupleSource + Send>])
            });
        }
        return Ok(dataset.into_dataset());
    }
    if let Some(flag) = ["no-pushdown", "remote-timeout", "remote-retries"]
        .into_iter()
        .find(|flag| flags.contains_key(*flag))
    {
        return Err(format!(
            "conflicting input flags: --{flag} configures the dials of a remote shard \
             dataset, but no --remote-shard was given; drop --{flag}"
        ));
    }

    let import = ShardImportOptions {
        first_tuple_id: id_base,
        hashed_group_keys: serving,
    };
    match (file, shard_files.is_empty()) {
        (Some(file), false) => Err(format!(
            "conflicting input flags: `{file}` resolves to a single-file CSV dataset, but \
             --shard was also given ({} shard files resolving to a sharded CSV dataset); \
             pass exactly one input form",
            shard_files.len()
        )),
        (None, true) => Err(
            "no input: pass a CSV file (positional or --file), --shard files, or \
             --remote-shard servers"
                .to_string(),
        ),
        (Some(file), true) => {
            let dataset = CsvDataset::from_path(file, csv_options, expression).with_import(import);
            Ok(if spill_buffer > 0 {
                dataset
                    .with_spill(SpillOptions::with_run_buffer(spill_buffer))
                    .map_err(|e| e.to_string())?
                    .into_dataset()
            } else {
                dataset.into_dataset()
            })
        }
        (None, false) => {
            if spill_buffer > 0 {
                return Err(format!(
                    "conflicting input flags: --spill-buffer configures the external sort of \
                     a single-file CSV dataset, but the input resolved to a sharded CSV \
                     dataset ({} --shard files, loaded as in-memory shard streams); drop \
                     --spill-buffer or pass a single file",
                    shard_files.len()
                ));
            }
            Ok(
                CsvDataset::from_shard_paths(shard_files, csv_options, expression)
                    .with_import(import)
                    .into_dataset(),
            )
        }
    }
}

/// Prints the per-k summary table of a batch run.
fn print_batch_summary(
    ks: &[usize],
    answers: &[ttk_uncertain::Result<QueryAnswer>],
    elapsed: std::time::Duration,
    threads: usize,
) {
    println!(
        "batch of {} queries executed in {:.3} s ({} worker threads)",
        ks.len(),
        elapsed.as_secs_f64(),
        if threads == 0 {
            "auto".to_string()
        } else {
            // The executor never spawns more workers than jobs.
            threads.min(ks.len()).to_string()
        }
    );
    println!(
        "{:>4}  {:>10}  {:>9}  {:>6}  {:>10}  typical scores",
        "k", "E[score]", "std dev", "depth", "U-Topk"
    );
    for (batch_k, answer) in ks.iter().zip(answers) {
        match answer {
            Ok(a) => {
                let u = a
                    .u_topk
                    .as_ref()
                    .map(|u| format!("{:.2}", u.vector.total_score()))
                    .unwrap_or_else(|| "-".to_string());
                let typical: Vec<String> = a
                    .typical
                    .scores()
                    .iter()
                    .map(|s| format!("{s:.2}"))
                    .collect();
                println!(
                    "{batch_k:>4}  {:>10.2}  {:>9.2}  {:>6}  {u:>10}  [{}]",
                    a.expected_score(),
                    a.distribution.std_dev(),
                    a.scan_depth,
                    typical.join(", ")
                );
            }
            Err(e) => println!("{batch_k:>4}  error: {e}"),
        }
    }
}

/// Prints an answer: its distribution as a histogram of `buckets` buckets
/// marked with the U-Topk and typical scores, then its summary.
pub(crate) fn print_answer(answer: &QueryAnswer, buckets: usize) {
    let mut markers = Vec::new();
    if let Some(u) = &answer.u_topk {
        markers.push((u.vector.total_score(), "U-Topk".to_string()));
    }
    for (i, s) in answer.typical.scores().iter().enumerate() {
        markers.push((*s, format!("typical #{}", i + 1)));
    }
    print_histogram(&answer.distribution, buckets, &markers);
    println!();
    println!(
        "captured mass {:.4}, expected score {:.2}, std dev {:.2}, scan depth {}",
        answer.distribution.total_probability(),
        answer.expected_score(),
        answer.distribution.std_dev(),
        answer.scan_depth
    );
    println!("typical answers:");
    for t in &answer.typical.answers {
        match &t.vector {
            Some(v) => println!("  score {:10.2}  {}", t.score, v),
            None => println!(
                "  score {:10.2}  (probability {:.4})",
                t.score, t.probability
            ),
        }
    }
    if let Some(u) = &answer.u_topk {
        println!(
            "U-Topk: {} ({} positions evaluated, depth {})",
            u.vector, u.expansions, u.deepest_position
        );
        if let Some(p) = answer.u_topk_percentile() {
            println!("U-Topk score percentile within the distribution: {:.3}", p);
        }
    }
    println!(
        "distribution computed in {:.3} s, typical selection in {:.6} s",
        answer.distribution_time.as_secs_f64(),
        answer.typical_time.as_secs_f64()
    );
}

fn print_histogram(distribution: &ScoreDistribution, buckets: usize, markers: &[(f64, String)]) {
    let Some(lo) = distribution.min_score() else {
        println!("(empty distribution)");
        return;
    };
    let hi = distribution.max_score().unwrap_or(lo);
    let width = if hi > lo {
        (hi - lo) / buckets as f64
    } else {
        1.0
    };
    let Some(hist) = distribution.histogram(width) else {
        println!("(empty distribution)");
        return;
    };
    let max_mass = hist
        .buckets
        .iter()
        .cloned()
        .fold(f64::MIN_POSITIVE, f64::max);
    for (i, &mass) in hist.buckets.iter().enumerate() {
        let start = hist.bucket_start(i);
        let end = start + hist.width;
        let bar = "#".repeat(((mass / max_mass) * 50.0).round() as usize);
        let mut annotation = String::new();
        for (value, label) in markers {
            let in_last = i + 1 == hist.buckets.len() && *value >= start;
            if (*value >= start && *value < end) || in_last {
                annotation.push_str(&format!("  <-- {label} ({value:.1})"));
            }
        }
        println!("[{start:9.2}, {end:9.2})  {mass:6.4}  {bar}{annotation}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_specs_parse() {
        assert_eq!(parse_k_list("1,5,10").unwrap(), vec![1, 5, 10]);
        assert_eq!(parse_k_list("2:5").unwrap(), vec![2, 3, 4, 5]);
        assert!(parse_k_list("0:4").is_err());
        assert!(parse_k_list("5:2").is_err());
        assert!(parse_k_list("1,0").is_err());
        assert!(parse_k_list("abc").is_err());
    }
}
