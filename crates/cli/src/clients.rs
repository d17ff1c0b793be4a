//! `ttk append`, `ttk watch` and `ttk admin`: the clients of a running
//! `ttk serve` daemon beyond plain queries.

use ttk_core::RemoteQueryClient;
use ttk_pdb::{parse_expression, stable_group_key, CsvDataset};
use ttk_uncertain::{wire, SourceTuple, UncertainTuple};

use crate::query::print_answer;
use crate::{
    get, get_parse, parse, parse_buckets, parse_connect_options, parse_csv_options,
    parse_named_file, parse_topk_params, passes, server_query_client, ADMIN, APPEND_FILE,
    APPEND_ROWS, WATCH,
};

/// Parses one `--row ID:SCORE:PROB[:GROUP]` spec into a scored row. A GROUP
/// label is hashed with the same FNV the CSV importer uses, so literal rows
/// and CSV-file appends naming the same group land in the same ME group.
fn parse_row_spec(raw: &str) -> Result<SourceTuple, String> {
    let mut parts = raw.splitn(4, ':');
    let bad = || format!("expected ID:SCORE:PROB[:GROUP], got `{raw}`");
    let id: u64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let score: f64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let prob: f64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let tuple = UncertainTuple::new(id, score, prob).map_err(|e| format!("row `{raw}`: {e}"))?;
    Ok(match parts.next() {
        Some(label) if !label.is_empty() => SourceTuple::grouped(tuple, stable_group_key(label)),
        _ => SourceTuple::independent(tuple),
    })
}

/// `ttk append`: ship scored rows to a live dataset of a `ttk serve` daemon.
/// Rows come either from repeatable `--row ID:SCORE:PROB[:GROUP]` literals
/// or from a local CSV scored with `--score` — exactly the scoring pass
/// `ttk serve` itself would run. `--seal` publishes the staged rows as a new
/// snapshot epoch in the same request.
pub(crate) fn cmd_append(args: &[String]) -> Result<(), String> {
    let mode = if passes(args, "row") {
        &APPEND_ROWS
    } else {
        &APPEND_FILE
    };
    let (_, flags) = parse(mode, args)?;
    let server = get(&flags, "server")
        .ok_or("--server HOST:PORT is required (appends go to a ttk serve daemon)")?;
    let dataset = get(&flags, "dataset")
        .ok_or("--dataset NAME is required: name the live dataset to append to")?
        .to_string();
    let seal = flags.contains_key("seal");

    // The --row table has no --file, and the --file table no --row.
    let rows: Vec<SourceTuple> = match (flags.get("row"), get(&flags, "file")) {
        (Some(specs), _) => specs
            .iter()
            .map(|raw| parse_row_spec(raw))
            .collect::<Result<_, _>>()?,
        (None, Some(path)) => {
            let score = get(&flags, "score")
                .ok_or("--score is required to score the --file CSV before appending")?;
            let expression = parse_expression(score).map_err(|e| e.to_string())?;
            CsvDataset::from_path(path, parse_csv_options(&flags), expression)
                .scored_rows()
                .map_err(|e| format!("cannot score {path}: {e}"))?
        }
        (None, None) => {
            return Err(
                "no rows: pass --row ID:SCORE:PROB[:GROUP] (repeatable) or --file DATA.csv \
                 --score EXPR"
                    .to_string(),
            )
        }
    };

    let accepted = rows.len();
    let client =
        RemoteQueryClient::new(server).with_connect_options(parse_connect_options(&flags)?);
    let ack = client
        .append(&dataset, rows, seal)
        .map_err(|e| e.to_string())?;
    println!(
        "appended {accepted} row(s) to `{dataset}` on {}: epoch {}, {} staged, {} rows visible{}",
        client.addr(),
        ack.epoch,
        ack.staged,
        ack.sealed_rows,
        if ack.sealed_now { " (sealed now)" } else { "" }
    );
    Ok(())
}

/// `ttk watch`: hold a standing top-k subscription against a live dataset.
/// The daemon pushes the answer once as a baseline and then again on every
/// epoch advance that actually shifted its distribution; `--pushes N` asks
/// the server to close the subscription after N pushes (0 = until either
/// side disconnects).
pub(crate) fn cmd_watch(args: &[String]) -> Result<(), String> {
    let (_, flags) = parse(&WATCH, args)?;
    let k = get_parse(&flags, "k", 0usize)?;
    if k == 0 {
        return Err("--k is required and must be at least 1".to_string());
    }
    let buckets = parse_buckets(&flags)?;
    let (client, dataset) = server_query_client(&flags)?;
    let topk = parse_topk_params(&flags, k)?;
    let pushes = get_parse(&flags, "pushes", 0u64)?;

    let mut watch = client
        .watch(&dataset, &topk, pushes)
        .map_err(|e| e.to_string())?;
    println!(
        "watching `{dataset}` on {} (k = {k}{})",
        client.addr(),
        if pushes > 0 {
            format!(", closing after {pushes} push(es)")
        } else {
            String::new()
        }
    );
    let mut received = 0u64;
    while let Some(push) = watch.next_push().map_err(|e| e.to_string())? {
        received += 1;
        println!(
            "push {received}: epoch {}, answer hash {:016x}",
            push.epoch, push.answer_hash
        );
        print_answer(&push.answer, buckets);
    }
    println!("subscription closed by the server after {received} push(es)");
    Ok(())
}

/// `ttk admin`: ships one management verb to a running `ttk serve` daemon
/// over the admin plane and prints the server's report.
pub(crate) fn cmd_admin(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse(&ADMIN, args)?;
    let server = get(&flags, "server").ok_or("--server HOST:PORT is required")?;
    let mut words = positional.iter().map(String::as_str);
    let verb = words.next().ok_or(
        "missing admin verb: expected stats, register NAME=FILE.csv, unregister NAME, \
         reload NAME or compact NAME",
    )?;
    let mut named = |verb: wire::AdminVerb| -> Result<wire::AdminRequest, String> {
        let name = words
            .next()
            .ok_or_else(|| format!("{verb} needs a dataset NAME"))?;
        Ok(wire::AdminRequest {
            verb,
            name: name.to_string(),
            arg: String::new(),
        })
    };
    let request = match verb {
        "stats" => wire::AdminRequest {
            verb: wire::AdminVerb::Stats,
            name: String::new(),
            arg: String::new(),
        },
        "register" => {
            let (name, path) =
                parse_named_file(words.next().ok_or("register needs NAME=FILE.csv")?)?;
            wire::AdminRequest {
                verb: wire::AdminVerb::Register,
                name: name.to_string(),
                arg: path.to_string(),
            }
        }
        "unregister" => named(wire::AdminVerb::Unregister)?,
        "reload" => named(wire::AdminVerb::Reload)?,
        "compact" => named(wire::AdminVerb::Compact)?,
        other => {
            return Err(format!(
                "unknown admin verb `{other}`: expected stats, register, unregister, \
                 reload or compact"
            ))
        }
    };
    if let Some(extra) = words.next() {
        return Err(format!("unexpected argument `{extra}` after {verb}"));
    }
    let client =
        RemoteQueryClient::new(server).with_connect_options(parse_connect_options(&flags)?);
    let report = client.admin(&request).map_err(|e| e.to_string())?;
    println!("{report}");
    Ok(())
}
