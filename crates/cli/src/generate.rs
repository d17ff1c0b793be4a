//! `ttk generate`: writes a CarTel-like or synthetic relation as CSV, to
//! stdout, to `--out FILE`, or as `--shards N` round-robin shard files.

use ttk_datagen::cartel::{generate_area, CartelConfig};
use ttk_datagen::synthetic::{generate, IntRange, MePolicy, SyntheticConfig};
use ttk_pdb::{table_to_csv, CsvOptions, DataType, PTable, Schema};

use crate::{get, get_parse, parse, GENERATE_CARTEL, GENERATE_SYNTHETIC};

pub(crate) fn cmd_generate(args: &[String]) -> Result<(), String> {
    // Every generator flag takes a value, so the kind is the first bare
    // word at an even position.
    let kind = args
        .iter()
        .step_by(2)
        .find(|arg| !arg.starts_with("--"))
        .ok_or("generate needs a dataset kind: cartel or synthetic")?;
    let mode = match kind.as_str() {
        "cartel" => &GENERATE_CARTEL,
        "synthetic" => &GENERATE_SYNTHETIC,
        other => return Err(format!("unknown dataset kind `{other}`")),
    };
    let (_, flags) = parse(mode, args)?;
    let seed = get_parse(&flags, "seed", 42u64)?;
    let table = if kind == "cartel" {
        let segments = get_parse(&flags, "segments", 60usize)?;
        let area = generate_area(&CartelConfig {
            segments,
            seed,
            ..CartelConfig::default()
        })
        .map_err(|e| e.to_string())?;
        let schema = Schema::default()
            .with("segment_id", DataType::Integer)
            .with("speed_limit", DataType::Float)
            .with("length", DataType::Float)
            .with("delay", DataType::Float);
        let mut table = PTable::new("area", schema);
        for segment in &area.segments {
            for bin in &segment.bins {
                table
                    .insert(
                        vec![
                            (segment.segment_id as i64).into(),
                            segment.speed_limit_kmh.into(),
                            segment.length_m.into(),
                            bin.delay_seconds.into(),
                        ],
                        bin.probability.clamp(1e-6, 1.0),
                        Some(&format!("segment-{}", segment.segment_id)),
                    )
                    .map_err(|e| e.to_string())?;
            }
        }
        table
    } else {
        let tuples = get_parse(&flags, "tuples", 300usize)?;
        let rho = get_parse(&flags, "rho", 0.0f64)?;
        let sigma = get_parse(&flags, "sigma", 60.0f64)?;
        let group_size = match get(&flags, "me-size") {
            Some(raw) => parse_range(raw)?,
            None => IntRange::new(2, 3),
        };
        let gap = match get(&flags, "me-gap") {
            Some(raw) => parse_range(raw)?,
            None => IntRange::new(1, 8),
        };
        let table = generate(&SyntheticConfig {
            tuples,
            correlation: rho,
            score_std: sigma,
            me_policy: MePolicy {
                group_size,
                gap,
                portion: 1.0,
            },
            seed,
            ..SyntheticConfig::default()
        })
        .map_err(|e| e.to_string())?;
        // Export as a flat relation: score column + probability + group.
        let schema = Schema::default().with("score", DataType::Float);
        let mut out = PTable::new("synthetic", schema);
        for pos in 0..table.len() {
            let t = table.tuple(pos);
            let group_label = {
                let members = table.group_members(pos);
                (members.len() > 1).then(|| format!("g{}", table.group_index(pos)))
            };
            out.insert(vec![t.score().into()], t.prob(), group_label.as_deref())
                .map_err(|e| e.to_string())?;
        }
        out
    };
    let shards = get_parse(&flags, "shards", 1usize)?;
    if shards > 1 {
        let out = get(&flags, "out")
            .ok_or("--shards needs --out FILE (used as the shard file name template)")?;
        for (index, part) in split_rows_round_robin(&table, shards)?.iter().enumerate() {
            let path = shard_path(out, index);
            std::fs::write(&path, table_to_csv(part, &CsvOptions::default()))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        println!(
            "wrote {} rows as {shards} shard files: {} .. {}",
            table.len(),
            shard_path(out, 0),
            shard_path(out, shards - 1)
        );
        return Ok(());
    }
    let csv = table_to_csv(&table, &CsvOptions::default());
    match get(&flags, "out") {
        Some(path) => std::fs::write(path, csv).map_err(|e| e.to_string())?,
        None => print!("{csv}"),
    }
    Ok(())
}

pub(crate) fn parse_range(raw: &str) -> Result<IntRange, String> {
    let (lo, hi) = raw
        .split_once(':')
        .ok_or_else(|| format!("expected LO:HI, got `{raw}`"))?;
    let lo: u64 = lo.parse().map_err(|_| format!("invalid range `{raw}`"))?;
    let hi: u64 = hi.parse().map_err(|_| format!("invalid range `{raw}`"))?;
    if lo > hi {
        return Err(format!("empty range `{raw}`"));
    }
    Ok(IntRange::new(lo, hi))
}

/// Partitions a table's rows round-robin into `shards` tables sharing its
/// schema (and therefore its global group-key strings).
fn split_rows_round_robin(table: &PTable, shards: usize) -> Result<Vec<PTable>, String> {
    let mut parts: Vec<PTable> = (0..shards)
        .map(|i| PTable::new(format!("{}_shard{i}", table.name()), table.schema().clone()))
        .collect();
    for (i, row) in table.rows().iter().enumerate() {
        parts[i % shards]
            .insert(row.values.clone(), row.probability, row.group.as_deref())
            .map_err(|e| e.to_string())?;
    }
    Ok(parts)
}

/// Names shard file `index` after the `--out` template: `area.csv` becomes
/// `area.shard0.csv`, an extension-less name gets `.shard0` appended. Only
/// the file-name component is rewritten, so dots in directory names are left
/// alone.
pub(crate) fn shard_path(out: &str, index: usize) -> String {
    let path = std::path::Path::new(out);
    let file = path
        .file_name()
        .map(|f| f.to_string_lossy().into_owned())
        .unwrap_or_default();
    let sharded = match file.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() => format!("{stem}.shard{index}.{ext}"),
        _ => format!("{file}.shard{index}"),
    };
    path.with_file_name(sharded).to_string_lossy().into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_paths_are_derived_from_the_out_template() {
        assert_eq!(shard_path("area.csv", 0), "area.shard0.csv");
        assert_eq!(shard_path("area.csv", 11), "area.shard11.csv");
        assert_eq!(shard_path("area", 2), "area.shard2");
        assert_eq!(shard_path(".hidden", 1), ".hidden.shard1");
        // Dots in directory components never attract the shard suffix.
        assert_eq!(shard_path("results.d/area", 0), "results.d/area.shard0");
        assert_eq!(shard_path("data/v1.2/a.csv", 3), "data/v1.2/a.shard3.csv");
    }
}
