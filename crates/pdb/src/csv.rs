//! Minimal CSV import/export for probabilistic tables.
//!
//! The format is conventional RFC-4180-style CSV with a header row. Two
//! designated columns carry the uncertainty metadata:
//!
//! * the *probability column* (required) holds the membership probability;
//! * the *group column* (optional) holds the x-tuple key — rows sharing a
//!   non-empty key are mutually exclusive.
//!
//! Both metadata columns are stripped from the relational schema; all other
//! columns are type-inferred (integer → float → boolean → text).

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ttk_uncertain::{
    GroupKey, MergeSource, SourceTuple, TupleBlock, TupleSource, UncertainTuple, VecSource,
};

use crate::error::{PdbError, Result};
use crate::expr::Expr;
use crate::schema::{Column, Schema};
use crate::table::PTable;
use crate::value::{DataType, Value};

/// Options controlling CSV import.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Name of the column holding membership probabilities.
    pub probability_column: String,
    /// Name of the column holding x-tuple group keys, if any.
    pub group_column: Option<String>,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            probability_column: "probability".to_string(),
            group_column: Some("group_key".to_string()),
        }
    }
}

/// Splits one CSV record, honouring double-quoted fields with embedded commas
/// and doubled quotes.
fn split_record(line: &str, line_no: usize) -> Result<Vec<String>> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' if field.is_empty() => in_quotes = true,
            '"' => {
                return Err(PdbError::CsvError {
                    line: line_no,
                    message: "unexpected quote in unquoted field".into(),
                })
            }
            ',' if !in_quotes => {
                fields.push(std::mem::take(&mut field));
            }
            c => field.push(c),
        }
    }
    if in_quotes {
        return Err(PdbError::CsvError {
            line: line_no,
            message: "unterminated quoted field".into(),
        });
    }
    fields.push(field);
    Ok(fields)
}

/// The structural layout of a CSV file: header names plus the positions of
/// the metadata columns.
struct CsvLayout {
    header: Vec<String>,
    prob_idx: usize,
    group_idx: Option<usize>,
    data_columns: Vec<usize>,
}

/// Parses the header row and locates the probability/group columns.
fn parse_layout(text: &str, options: &CsvOptions) -> Result<CsvLayout> {
    let header_line = text
        .lines()
        .find(|l| !l.trim().is_empty())
        .ok_or(PdbError::CsvError {
            line: 1,
            message: "missing header row".into(),
        })?;
    layout_from_header(header_line, options)
}

/// Builds a layout from an already-extracted header line.
fn layout_from_header(header_line: &str, options: &CsvOptions) -> Result<CsvLayout> {
    let header = split_record(header_line, 1)?;
    let prob_idx = header
        .iter()
        .position(|h| h.trim() == options.probability_column)
        .ok_or_else(|| PdbError::CsvError {
            line: 1,
            message: format!(
                "probability column `{}` not found in header",
                options.probability_column
            ),
        })?;
    let group_idx = match &options.group_column {
        Some(name) => header.iter().position(|h| h.trim() == *name),
        None => None,
    };
    let data_columns: Vec<usize> = (0..header.len())
        .filter(|&i| i != prob_idx && Some(i) != group_idx)
        .collect();
    Ok(CsvLayout {
        header,
        prob_idx,
        group_idx,
        data_columns,
    })
}

/// Parses the data records of a CSV text once (header skipped, blank lines
/// ignored), validating field counts against the layout. Returned as
/// `(line number, fields)` pairs so both the type-inference and the loading
/// pass run over the same parse. Thin collecting wrapper over
/// [`for_each_record`], which the out-of-core paths stream through instead.
fn parse_records(text: &str, layout: &CsvLayout) -> Result<Vec<(usize, Vec<String>)>> {
    let mut records = Vec::new();
    for_each_record(text.as_bytes(), layout, |line_no, record| {
        records.push((line_no, record));
        Ok(())
    })?;
    Ok(records)
}

/// Widens a column type to accommodate one more inferred value.
fn merge_type(ty: DataType, value: &Value) -> DataType {
    match value {
        Value::Integer(_) | Value::Null => ty,
        Value::Float(_) => {
            if ty == DataType::Integer {
                DataType::Float
            } else {
                ty
            }
        }
        Value::Boolean(_) => {
            if ty == DataType::Integer {
                DataType::Boolean
            } else if ty != DataType::Boolean {
                DataType::Text
            } else {
                ty
            }
        }
        Value::Text(_) => DataType::Text,
    }
}

/// Infers the relational schema of the data columns over the parsed records.
fn infer_schema(records: &[(usize, Vec<String>)], layout: &CsvLayout) -> Result<Schema> {
    let mut types = vec![DataType::Integer; layout.data_columns.len()];
    for (_, record) in records {
        for (slot, &col) in layout.data_columns.iter().enumerate() {
            types[slot] = merge_type(types[slot], &Value::infer_from_str(&record[col]));
        }
    }
    schema_from_types(layout, &types)
}

/// Assembles the schema of the data columns from their inferred types.
fn schema_from_types(layout: &CsvLayout, types: &[DataType]) -> Result<Schema> {
    let columns = layout
        .data_columns
        .iter()
        .zip(types)
        .map(|(&col, &ty)| Column::new(layout.header[col].trim(), ty))
        .collect();
    Schema::new(columns)
}

fn parse_probability(record: &[String], layout: &CsvLayout, line_no: usize) -> Result<f64> {
    let probability: f64 =
        record[layout.prob_idx]
            .trim()
            .parse()
            .map_err(|_| PdbError::CsvError {
                line: line_no,
                message: format!("invalid probability `{}`", record[layout.prob_idx]),
            })?;
    // A NaN would poison every probability sum downstream; reject it here
    // where the row and column can still be named.
    if !probability.is_finite() {
        return Err(PdbError::CsvError {
            line: line_no,
            message: format!(
                "non-finite probability `{}` in column `{}`",
                record[layout.prob_idx].trim(),
                layout.header[layout.prob_idx].trim()
            ),
        });
    }
    Ok(probability)
}

fn group_key<'a>(record: &'a [String], layout: &CsvLayout) -> Option<&'a str> {
    layout.group_idx.and_then(|g| {
        let key = record[g].trim();
        (!key.is_empty()).then_some(key)
    })
}

/// Parses CSV text into a probabilistic table.
///
/// # Errors
///
/// Returns [`PdbError::CsvError`] for malformed input (missing header,
/// missing probability column, ragged rows, unparsable probabilities) and
/// propagates schema/probability validation errors from [`PTable::insert`].
pub fn table_from_csv(name: &str, text: &str, options: &CsvOptions) -> Result<PTable> {
    let layout = parse_layout(text, options)?;
    let records = parse_records(text, &layout)?;
    let schema = infer_schema(&records, &layout)?;
    let mut table = PTable::new(name, schema);
    for (line_no, record) in &records {
        let probability = parse_probability(record, &layout, *line_no)?;
        let values: Vec<Value> = layout
            .data_columns
            .iter()
            .map(|&c| Value::infer_from_str(&record[c]))
            .collect();
        table.insert(values, probability, group_key(record, &layout))?;
    }
    Ok(table)
}

/// Options shaping how the shards of one partitioned relation are scored
/// when the shard files are imported by **independent processes** (the
/// `ttk serve-shard` scenario): each process must place its rows in the
/// shared tuple-id space and derive group keys every other process agrees
/// on without any shared state.
#[derive(Debug, Clone, Default)]
pub struct ShardImportOptions {
    /// The tuple id assigned to the first data record; ids count up from
    /// here. A server handed shard `i` of a partition passes the total row
    /// count of shards `0..i` so the global id space matches a single-process
    /// import of the concatenation.
    pub first_tuple_id: u64,
    /// Derive each group key by **hashing the group label** (64-bit FNV-1a)
    /// instead of first-sight sequential numbering. Hashed keys are stable
    /// across processes: two servers scoring the same label emit the same
    /// key, so an ME group split across remotely-served shards is reunified
    /// by the merge without any coordination.
    pub hashed_group_keys: bool,
}

impl From<&ttk_uncertain::ShardAssignment> for ShardImportOptions {
    /// Import options matching a coordinator lease (or a server-advertised
    /// hello assignment): the leased id base, with hashed group keys — the
    /// only key discipline independently-scoring processes can agree on.
    fn from(lease: &ttk_uncertain::ShardAssignment) -> Self {
        ShardImportOptions {
            first_tuple_id: lease.id_base,
            hashed_group_keys: true,
        }
    }
}

/// 64-bit FNV-1a over a group label — the stable cross-process group key of
/// [`ShardImportOptions::hashed_group_keys`]. Public so clients staging live
/// appends (`ttk append --row ID:SCORE:PROB:GROUP`) derive the same group
/// keys a CSV import of the same labels would.
pub fn stable_group_key(label: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in label.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The cross-record state of a scoring pass: the group-key namespace and the
/// tuple-id counter (both of which persist **across shard files**, giving
/// every shard of a partition one id space and one ME-group namespace), plus
/// a row-value scratch buffer reused across records so the bulk-import hot
/// path does not allocate per row.
struct ScoreState {
    key_of_group: HashMap<String, u64>,
    hashed_keys: bool,
    next_id: u64,
    row_values: Vec<Value>,
}

impl ScoreState {
    fn with_import(import: &ShardImportOptions) -> Self {
        ScoreState {
            key_of_group: HashMap::new(),
            hashed_keys: import.hashed_group_keys,
            next_id: import.first_tuple_id,
            row_values: Vec::new(),
        }
    }

    /// Scores one parsed record into a [`SourceTuple`], assigning the next
    /// tuple id and the record's group key from the shared namespace.
    fn score_record(
        &mut self,
        record: &[String],
        layout: &CsvLayout,
        schema: &Schema,
        score: &Expr,
        line_no: usize,
    ) -> Result<SourceTuple> {
        let probability = parse_probability(record, layout, line_no)?;
        self.row_values.clear();
        self.row_values.extend(
            layout
                .data_columns
                .iter()
                .map(|&c| Value::infer_from_str(&record[c])),
        );
        let score_value = score.evaluate(schema, &self.row_values)?;
        // A NaN (or infinite) score would silently violate the total rank
        // order the loser-tree merge and the scan gate depend on — reject it
        // at parse time, naming the row and the columns that produced it.
        if !score_value.is_finite() {
            return Err(PdbError::CsvError {
                line: line_no,
                message: format!(
                    "non-finite score `{score_value}` evaluated from the scoring expression \
                     over column(s) {:?}",
                    score.referenced_columns()
                ),
            });
        }
        let tuple =
            UncertainTuple::new(self.next_id, score_value, probability).map_err(PdbError::Core)?;
        self.next_id += 1;
        Ok(match group_key(record, layout) {
            Some(g) if self.hashed_keys => SourceTuple::grouped(tuple, stable_group_key(g)),
            Some(g) => {
                let next_key = self.key_of_group.len() as u64;
                let key = *self.key_of_group.entry(g.to_string()).or_insert(next_key);
                SourceTuple::grouped(tuple, key)
            }
            None => SourceTuple::independent(tuple),
        })
    }
}

/// Parses several CSV texts — the **shards of one partitioned relation** —
/// into one rank-ordered [`VecSource`] per shard, scoring each row with the
/// given expression as it is read.
///
/// No relational table is built: after one parsing pass per shard only the
/// `(tuple id, score, probability, group)` of each record is retained, so
/// the sources' footprint is independent of the relation's width.
///
/// The shards share a tuple-id space (ids count up from
/// [`ShardImportOptions::first_tuple_id`] across shards in the order given)
/// and a group-key namespace (equal group-column strings in different
/// shards name the **same** mutual-exclusion group), so merging the
/// returned sources with [`MergeSource::new`] behaves exactly like importing
/// the concatenation of the shards. With the default options the ids are
/// the 0-based data-record indexes a [`table_from_csv`] import assigns.
/// Each shard may carry its own column order; every shard's schema must
/// satisfy the scoring expression.
///
/// A process importing **some** shards of a relation whose other shards
/// live elsewhere (`ttk serve-shard`, `--shard` mixed with `--remote-shard`)
/// passes the rows' place in the shared id space as `first_tuple_id` and
/// sets `hashed_group_keys` so every process derives the same group keys.
///
/// # Errors
///
/// [`PdbError::CsvError`] for malformed input, expression
/// validation/evaluation errors, and tuple validation errors, per shard.
pub fn shard_sources_from_csv_with(
    texts: &[&str],
    options: &CsvOptions,
    score: &Expr,
    import: &ShardImportOptions,
) -> Result<Vec<VecSource>> {
    let mut state = ScoreState::with_import(import);
    let mut shards = Vec::with_capacity(texts.len());
    for text in texts {
        let layout = parse_layout(text, options)?;
        let records = parse_records(text, &layout)?;
        let schema = infer_schema(&records, &layout)?;
        score.validate(&schema)?;
        let mut tuples = Vec::with_capacity(records.len());
        for (line_no, record) in &records {
            tuples.push(state.score_record(record, &layout, &schema, score, *line_no)?);
        }
        shards.push(VecSource::new(tuples));
    }
    Ok(shards)
}

/// Options of the external-sort (out-of-core) CSV scan.
#[derive(Debug, Clone)]
pub struct SpillOptions {
    /// Maximum number of scored tuples buffered in memory at once. When the
    /// buffer fills, it is sorted into rank order and spilled to a temporary
    /// run file; the runs are then replayed as shard streams under a k-way
    /// merge. Memory use is `O(run_buffer_tuples + runs)`, independent of the
    /// relation size.
    pub run_buffer_tuples: usize,
    /// Directory for run files; defaults to [`std::env::temp_dir`].
    pub temp_dir: Option<PathBuf>,
    /// Upper bound on the number of run files the final merge fans in. When
    /// an import spills more runs than this (a tiny buffer over a huge
    /// relation), intermediate merge passes fold batches of `max_fan_in`
    /// runs into larger runs first, so the per-tuple cost of the final merge
    /// stays `O(log max_fan_in)` and its open-file count bounded. Clamped to
    /// at least 2.
    pub max_fan_in: usize,
}

impl Default for SpillOptions {
    fn default() -> Self {
        SpillOptions {
            run_buffer_tuples: 64 * 1024,
            temp_dir: None,
            max_fan_in: 64,
        }
    }
}

impl SpillOptions {
    /// A spill configuration buffering at most `run_buffer_tuples` tuples.
    pub fn with_run_buffer(run_buffer_tuples: usize) -> Self {
        SpillOptions {
            run_buffer_tuples: run_buffer_tuples.max(1),
            ..SpillOptions::default()
        }
    }

    /// Sets the final-merge fan-in bound (clamped to at least 2).
    pub fn with_max_fan_in(mut self, max_fan_in: usize) -> Self {
        self.max_fan_in = max_fan_in.max(2);
        self
    }
}

/// Distinguishes run files of concurrent imports within one process.
static SPILL_SEQUENCE: AtomicU64 = AtomicU64::new(0);

/// Owns the temporary run files of one spilled import; removes them on drop
/// (including the error paths of a partially-completed import).
#[derive(Debug, Default)]
struct RunFiles {
    paths: Vec<PathBuf>,
    dir: PathBuf,
}

/// Encodes one tuple as a run-file line. Scores and probabilities are stored
/// as raw IEEE-754 bits so the replayed run is bit-identical to the
/// in-memory path.
fn write_run_line(writer: &mut impl Write, t: &SourceTuple) -> std::io::Result<()> {
    let group = match t.group {
        GroupKey::Independent => "i".to_string(),
        GroupKey::Shared(k) => format!("s{k}"),
    };
    writeln!(
        writer,
        "{} {:016x} {:016x} {group}",
        t.tuple.id().raw(),
        t.tuple.score().to_bits(),
        t.tuple.prob().to_bits()
    )
}

impl RunFiles {
    fn new(dir: Option<PathBuf>) -> Self {
        RunFiles {
            paths: Vec::new(),
            dir: dir.unwrap_or_else(std::env::temp_dir),
        }
    }

    /// Creates (and registers for cleanup) the next run file, returning its
    /// writer. Registration happens before writing so a failed write still
    /// gets cleaned up.
    fn create_run(&mut self) -> Result<BufWriter<File>> {
        let sequence = SPILL_SEQUENCE.fetch_add(1, Ordering::Relaxed);
        let path = self
            .dir
            .join(format!("ttk-spill-{}-{sequence}.run", std::process::id()));
        let writer = BufWriter::new(File::create(&path)?);
        self.paths.push(path);
        Ok(writer)
    }

    /// Sorts `buffer` into rank order and writes it as a new run file.
    fn spill(&mut self, buffer: &mut Vec<SourceTuple>) -> Result<()> {
        buffer.sort_by_key(|t| t.tuple.rank_key());
        let mut writer = self.create_run()?;
        for t in buffer.iter() {
            write_run_line(&mut writer, t)?;
        }
        writer.flush()?;
        buffer.clear();
        Ok(())
    }

    /// Deletes the first `n` run files (after an intermediate merge pass has
    /// folded them into a larger run appended at the end).
    fn remove_first(&mut self, n: usize) {
        for path in self.paths.drain(..n) {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for RunFiles {
    fn drop(&mut self) {
        for path in &self.paths {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Fan-in control: while more than `max_fan_in` run files exist, merge the
/// oldest `max_fan_in` of them — streamed through the loser tree, never
/// buffered — into one larger run, so the final merge (and every replay)
/// fans in a bounded number of files regardless of how many runs a tiny
/// buffer produced. Each pass reduces the run count by `max_fan_in - 1`;
/// every intermediate run stays rank-sorted, so the final merged stream is
/// unchanged.
fn compact_runs(runs: &mut RunFiles, run_sizes: &mut Vec<usize>, max_fan_in: usize) -> Result<()> {
    while runs.paths.len() > max_fan_in {
        let take = max_fan_in.min(runs.paths.len());
        let mut sources = Vec::with_capacity(take);
        for (path, &tuples) in runs.paths[..take].iter().zip(run_sizes.iter()) {
            sources.push(RunSource::file(path, tuples)?);
        }
        let mut merge = MergeSource::new(sources);
        let mut writer = runs.create_run()?;
        let mut merged_tuples = 0usize;
        while let Some(t) = merge.next_tuple().map_err(PdbError::Core)? {
            write_run_line(&mut writer, &t)?;
            merged_tuples += 1;
        }
        writer.flush()?;
        drop(merge); // close the input cursors before deleting their files
        runs.remove_first(take);
        run_sizes.drain(..take);
        run_sizes.push(merged_tuples);
    }
    Ok(())
}

/// One sorted run of a spilled import: either a run file replayed from disk
/// or the final in-memory buffer that never needed spilling.
#[derive(Debug)]
enum Run {
    File(std::io::Lines<BufReader<File>>),
    Memory(std::vec::IntoIter<SourceTuple>),
}

/// A rank-ordered stream over one external-sort run.
#[derive(Debug)]
struct RunSource {
    run: Run,
    remaining: usize,
}

impl RunSource {
    fn file(path: &Path, tuples: usize) -> Result<Self> {
        Ok(RunSource {
            run: Run::File(BufReader::new(File::open(path)?).lines()),
            remaining: tuples,
        })
    }

    /// Wraps a run that is **already rank-sorted** ([`SpillIndex`] stores
    /// its in-memory tail sorted, so replays skip the comparison pass).
    fn memory(tuples: Vec<SourceTuple>) -> Self {
        debug_assert!(
            tuples
                .windows(2)
                .all(|w| w[0].tuple.rank_key() <= w[1].tuple.rank_key()),
            "in-memory runs must be rank-sorted"
        );
        RunSource {
            remaining: tuples.len(),
            run: Run::Memory(tuples.into_iter()),
        }
    }
}

/// Decodes one run-file line back into a [`SourceTuple`]. Stream-time
/// failures surface as [`ttk_uncertain::Error::Source`], the error channel of
/// the [`TupleSource`] trait.
fn decode_run_line(line: &str) -> ttk_uncertain::Result<SourceTuple> {
    let corrupt = || ttk_uncertain::Error::Source(format!("corrupt spill run record `{line}`"));
    let mut fields = line.split_ascii_whitespace();
    let id: u64 = fields
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or_else(corrupt)?;
    let score_bits = fields
        .next()
        .and_then(|f| u64::from_str_radix(f, 16).ok())
        .ok_or_else(corrupt)?;
    let prob_bits = fields
        .next()
        .and_then(|f| u64::from_str_radix(f, 16).ok())
        .ok_or_else(corrupt)?;
    let group = fields.next().ok_or_else(corrupt)?;
    let tuple = UncertainTuple::new(id, f64::from_bits(score_bits), f64::from_bits(prob_bits))?;
    Ok(match group.strip_prefix('s') {
        Some(key) => SourceTuple::grouped(tuple, key.parse().map_err(|_| corrupt())?),
        None => SourceTuple::independent(tuple),
    })
}

impl TupleSource for RunSource {
    fn next_tuple(&mut self) -> ttk_uncertain::Result<Option<SourceTuple>> {
        let next = match &mut self.run {
            Run::Memory(iter) => iter.next(),
            Run::File(lines) => match lines.next() {
                None => None,
                Some(line) => {
                    let line = line.map_err(|e| {
                        ttk_uncertain::Error::Source(format!("reading spill run: {e}"))
                    })?;
                    Some(decode_run_line(&line)?)
                }
            },
        };
        if next.is_some() {
            self.remaining = self.remaining.saturating_sub(1);
        }
        Ok(next)
    }

    /// Bulk pull: decodes up to `max` run lines straight into one columnar
    /// block, so a replay pays the merge's dispatch cost once per block
    /// instead of once per line.
    fn next_block(&mut self, max: usize) -> ttk_uncertain::Result<Option<TupleBlock>> {
        let max = max.max(1);
        let mut block = TupleBlock::with_capacity(self.remaining.min(max));
        match &mut self.run {
            Run::Memory(iter) => {
                for t in iter.take(max) {
                    block.push(&t);
                }
            }
            Run::File(lines) => {
                while block.len() < max {
                    match lines.next() {
                        None => break,
                        Some(line) => {
                            let line = line.map_err(|e| {
                                ttk_uncertain::Error::Source(format!("reading spill run: {e}"))
                            })?;
                            block.push(&decode_run_line(&line)?);
                        }
                    }
                }
            }
        }
        self.remaining = self.remaining.saturating_sub(block.len());
        if block.is_empty() {
            Ok(None)
        } else {
            Ok(Some(block))
        }
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

/// The reusable artifact of one external-sort pass over a CSV relation: the
/// rank-sorted run files on disk, the final in-memory run, the inferred
/// schema and the record count.
///
/// Building an index is the expensive part of an out-of-core scan (two
/// passes over the CSV plus the sort of every run); **replaying** it is
/// cheap — [`SpillIndex::replay`] just reopens the run files as fresh
/// cursors under a new k-way merge. Holding the index (for example inside a
/// `CsvDataset`) therefore turns the external sort into a plan-once artifact:
/// every query after the first skips the sort pass entirely. The run files
/// are deleted when the last [`Arc`] holding the index drops.
#[derive(Debug)]
pub struct SpillIndex {
    runs: RunFiles,
    run_sizes: Vec<usize>,
    /// The final buffer that never needed spilling, already rank-sorted.
    tail: Vec<SourceTuple>,
    total_tuples: usize,
    schema: Schema,
}

impl SpillIndex {
    /// Runs the external sort over CSV text and keeps the runs as a reusable
    /// index. `import` places the rows in the relation's tuple-id space and
    /// picks the group-key discipline, as in [`shard_sources_from_csv_with`];
    /// the replayed stream is bit-identical to that in-memory import.
    ///
    /// # Errors
    ///
    /// As [`shard_sources_from_csv_with`], plus [`PdbError::Io`] for
    /// run-file failures.
    pub fn from_csv_text(
        text: &str,
        options: &CsvOptions,
        score: &Expr,
        spill: &SpillOptions,
        import: &ShardImportOptions,
    ) -> Result<Self> {
        SpillIndex::build(|| Ok(text.as_bytes()), options, score, spill, import)
    }

    /// [`SpillIndex::from_csv_text`] reading straight from a file path, so
    /// the raw CSV text never needs to fit in memory either.
    ///
    /// # Errors
    ///
    /// As [`SpillIndex::from_csv_text`].
    pub fn from_csv_path(
        path: &Path,
        options: &CsvOptions,
        score: &Expr,
        spill: &SpillOptions,
        import: &ShardImportOptions,
    ) -> Result<Self> {
        SpillIndex::build(
            || Ok(BufReader::new(File::open(path)?)),
            options,
            score,
            spill,
            import,
        )
    }

    /// The generic two-pass external-sort import: pass 1 infers the schema,
    /// pass 2 scores each record and spills sorted runs. `open` must yield a
    /// fresh reader over the same bytes for each pass.
    fn build<R: BufRead>(
        open: impl Fn() -> Result<R>,
        options: &CsvOptions,
        score: &Expr,
        spill: &SpillOptions,
        import: &ShardImportOptions,
    ) -> Result<Self> {
        let layout = layout_from_header(&read_header(open()?)?, options)?;

        // Pass 1: type inference only — nothing is retained per record.
        let mut types = vec![DataType::Integer; layout.data_columns.len()];
        for_each_record(open()?, &layout, |_, record| {
            for (slot, &col) in layout.data_columns.iter().enumerate() {
                types[slot] = merge_type(types[slot], &Value::infer_from_str(&record[col]));
            }
            Ok(())
        })?;
        let schema = schema_from_types(&layout, &types)?;
        score.validate(&schema)?;

        // Pass 2: score records into a bounded buffer, spilling sorted runs.
        let capacity = spill.run_buffer_tuples.max(1);
        let mut runs = RunFiles::new(spill.temp_dir.clone());
        let mut buffer: Vec<SourceTuple> = Vec::with_capacity(capacity.min(64 * 1024));
        let mut run_sizes: Vec<usize> = Vec::new();
        let mut state = ScoreState::with_import(import);
        for_each_record(open()?, &layout, |line_no, record| {
            buffer.push(state.score_record(&record, &layout, &schema, score, line_no)?);
            if buffer.len() >= capacity {
                run_sizes.push(buffer.len());
                runs.spill(&mut buffer)?;
            }
            Ok(())
        })?;
        buffer.sort_by_key(|t| t.tuple.rank_key());
        compact_runs(&mut runs, &mut run_sizes, spill.max_fan_in.max(2))?;
        Ok(SpillIndex {
            runs,
            run_sizes,
            tail: buffer,
            total_tuples: (state.next_id - import.first_tuple_id) as usize,
            schema,
        })
    }

    /// Opens fresh cursors over every run and fuses them under a new k-way
    /// merge — a complete re-scan of the relation **without re-reading or
    /// re-sorting the CSV**. The returned stream is bit-identical to the one
    /// the original import produced.
    ///
    /// # Errors
    ///
    /// [`PdbError::Io`] when a run file can no longer be opened.
    pub fn replay(self: &Arc<Self>) -> Result<SpilledSource> {
        let mut runs = Vec::with_capacity(self.runs.paths.len() + 1);
        for (path, &tuples) in self.runs.paths.iter().zip(&self.run_sizes) {
            runs.push(RunSource::file(path, tuples)?);
        }
        if !self.tail.is_empty() {
            runs.push(RunSource::memory(self.tail.clone()));
        }
        Ok(SpilledSource {
            merge: MergeSource::new(runs),
            index: Arc::clone(self),
        })
    }

    /// Total number of runs under a replayed merge (spilled files plus the
    /// final in-memory buffer, when non-empty).
    pub fn run_count(&self) -> usize {
        self.runs.paths.len() + usize::from(!self.tail.is_empty())
    }

    /// Number of runs that were spilled to disk.
    pub fn spilled_run_count(&self) -> usize {
        self.runs.paths.len()
    }

    /// Number of data records imported.
    pub fn len(&self) -> usize {
        self.total_tuples
    }

    /// True when the relation had no data records.
    pub fn is_empty(&self) -> bool {
        self.total_tuples == 0
    }

    /// The relational schema inferred during the import's first pass.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }
}

/// A rank-ordered [`TupleSource`] over a CSV relation larger than memory:
/// sorted runs spilled to temporary files, replayed under a loser-tree k-way
/// merge. Produced by [`SpillIndex::replay`]; the run files live as long as
/// any replayed source (or other holder) keeps the shared [`SpillIndex`]
/// alive.
pub struct SpilledSource {
    merge: MergeSource<RunSource>,
    index: Arc<SpillIndex>,
}

impl std::fmt::Debug for SpilledSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpilledSource")
            .field("runs", &self.merge.shard_count())
            .field("index", &self.index)
            .finish()
    }
}

impl SpilledSource {
    /// Total number of runs under the merge (spilled files plus the final
    /// in-memory buffer, when non-empty).
    pub fn run_count(&self) -> usize {
        self.merge.shard_count()
    }

    /// Number of runs that were spilled to disk.
    pub fn spilled_run_count(&self) -> usize {
        self.index.spilled_run_count()
    }

    /// Number of data records imported.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the relation had no data records.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The shared external-sort index backing this source; clone it to
    /// replay the relation again without re-sorting.
    pub fn index(&self) -> &Arc<SpillIndex> {
        &self.index
    }
}

impl TupleSource for SpilledSource {
    fn next_tuple(&mut self) -> ttk_uncertain::Result<Option<SourceTuple>> {
        self.merge.next_tuple()
    }

    fn next_block(&mut self, max: usize) -> ttk_uncertain::Result<Option<TupleBlock>> {
        self.merge.next_block(max)
    }

    fn size_hint(&self) -> Option<usize> {
        self.merge.size_hint()
    }
}

/// Streams the raw data lines of a CSV reader — the record discipline every
/// import path (and [`count_csv_records`]) shares: the header is the first
/// non-blank line, blank lines are skipped, everything else is a data line,
/// delivered with its 1-based line number.
fn for_each_data_line<R: BufRead>(
    reader: R,
    mut visit: impl FnMut(usize, String) -> Result<()>,
) -> Result<()> {
    let mut header_seen = false;
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        if !header_seen {
            header_seen = true;
            continue;
        }
        visit(i + 1, line)?;
    }
    Ok(())
}

/// Counts the data records a CSV import of `reader` would score, without
/// parsing fields — the row count a `serve-shard` daemon registers with a
/// coordinator *before* the (leased) scoring pass runs. Shares the record
/// discipline of [`for_each_data_line`] with every import path, so the
/// leased id range always covers exactly the rows the import then assigns.
///
/// # Errors
///
/// [`PdbError::Io`] when the reader fails.
pub fn count_csv_records<R: BufRead>(reader: R) -> Result<u64> {
    let mut rows = 0u64;
    for_each_data_line(reader, |_, _| {
        rows += 1;
        Ok(())
    })?;
    Ok(rows)
}

/// Streams the data records of a CSV reader (header skipped, blank lines
/// ignored, field counts validated) through `visit` without retaining them.
fn for_each_record<R: BufRead>(
    reader: R,
    layout: &CsvLayout,
    mut visit: impl FnMut(usize, Vec<String>) -> Result<()>,
) -> Result<()> {
    for_each_data_line(reader, |line_no, line| {
        let record = split_record(&line, line_no)?;
        if record.len() != layout.header.len() {
            return Err(PdbError::CsvError {
                line: line_no,
                message: format!(
                    "expected {} fields, got {}",
                    layout.header.len(),
                    record.len()
                ),
            });
        }
        visit(line_no, record)
    })
}

/// Reads the header line (the first non-blank line) of a CSV reader.
fn read_header<R: BufRead>(reader: R) -> Result<String> {
    for line in reader.lines() {
        let line = line?;
        if !line.trim().is_empty() {
            return Ok(line);
        }
    }
    Err(PdbError::CsvError {
        line: 1,
        message: "missing header row".into(),
    })
}

/// Serialises a probabilistic table back to CSV (probability and group
/// columns appended after the data columns).
pub fn table_to_csv(table: &PTable, options: &CsvOptions) -> String {
    let mut out = String::new();
    let mut header: Vec<String> = table
        .schema()
        .columns()
        .iter()
        .map(|c| c.name.clone())
        .collect();
    header.push(options.probability_column.clone());
    if let Some(g) = &options.group_column {
        header.push(g.clone());
    }
    out.push_str(&header.join(","));
    out.push('\n');
    for row in table.rows() {
        let mut fields: Vec<String> = row.values.iter().map(escape_field).collect();
        fields.push(format!("{}", row.probability));
        if options.group_column.is_some() {
            fields.push(row.group.clone().unwrap_or_default());
        }
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

fn escape_field(value: &Value) -> String {
    let s = value.to_string();
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
segment_id,speed_limit,length,delay,probability,group_key
1,50,1000,120,0.6,seg-1
1,50,1000,300,0.4,seg-1
2,30,500,90,1.0,seg-2
3,60,\"1,200\",100,0.5,
";

    #[test]
    fn imports_a_table_with_groups_and_quotes() {
        let t = table_from_csv("area", SAMPLE, &CsvOptions::default()).unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!(t.schema().len(), 4);
        assert_eq!(t.rows()[0].group.as_deref(), Some("seg-1"));
        assert_eq!(t.rows()[3].group, None);
        // The quoted "1,200" stays one field and becomes text (not numeric).
        assert_eq!(t.rows()[3].values[2], Value::Text("1,200".into()));
        // speed_limit is inferred as integer, delay as integer, probability
        // column is stripped from the schema.
        assert!(t.schema().index_of("probability").is_err());
    }

    #[test]
    fn round_trips_through_export_and_import() {
        let t = table_from_csv("area", SAMPLE, &CsvOptions::default()).unwrap();
        let text = table_to_csv(&t, &CsvOptions::default());
        let t2 = table_from_csv("area", &text, &CsvOptions::default()).unwrap();
        assert_eq!(t.len(), t2.len());
        for (a, b) in t.rows().iter().zip(t2.rows()) {
            assert_eq!(a.probability, b.probability);
            assert_eq!(a.group, b.group);
        }
    }

    #[test]
    fn reports_malformed_input() {
        assert!(matches!(
            table_from_csv("x", "", &CsvOptions::default()),
            Err(PdbError::CsvError { .. })
        ));
        let missing_prob = "a,b\n1,2\n";
        assert!(matches!(
            table_from_csv("x", missing_prob, &CsvOptions::default()),
            Err(PdbError::CsvError { line: 1, .. })
        ));
        let ragged = "a,probability\n1,0.5\n2\n";
        assert!(matches!(
            table_from_csv("x", ragged, &CsvOptions::default()),
            Err(PdbError::CsvError { line: 3, .. })
        ));
        let bad_prob = "a,probability\n1,huh\n";
        assert!(matches!(
            table_from_csv("x", bad_prob, &CsvOptions::default()),
            Err(PdbError::CsvError { line: 2, .. })
        ));
        let unterminated = "a,probability\n\"oops,0.5\n";
        assert!(matches!(
            table_from_csv("x", unterminated, &CsvOptions::default()),
            Err(PdbError::CsvError { .. })
        ));
    }

    #[test]
    fn tuple_source_matches_the_table_route() {
        use ttk_uncertain::TupleSource;

        let csv = "\
speed_limit,length,delay,probability,group_key
50,1000,120,0.6,seg-1
50,1000,300,0.4,seg-1
30,500,90,1.0,seg-2
60,900,240,0.5,
";
        let expr = crate::parser::parse_expression("speed_limit / (length / delay)").unwrap();
        let mut direct = scored(csv, &expr).unwrap();
        let table = table_from_csv("area", csv, &CsvOptions::default()).unwrap();
        let uncertain = table.to_uncertain_table(&expr).unwrap();
        let mut via_table = uncertain.to_source();
        loop {
            let a = direct.next_tuple().unwrap();
            let b = via_table.next_tuple().unwrap();
            match (a, b) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    assert_eq!(a.tuple.id(), b.tuple.id());
                    assert_eq!(a.tuple.score(), b.tuple.score());
                    assert_eq!(a.tuple.prob(), b.tuple.prob());
                    // Group keys are source-local; only the partition must
                    // match, which the id pairing above implies per stream.
                }
                (a, b) => panic!("stream length mismatch: {a:?} vs {b:?}"),
            }
        }
        // Expression referencing an unknown column fails up front.
        let bad = crate::parser::parse_expression("nope + 1").unwrap();
        assert!(scored(csv, &bad).is_err());
    }

    fn drain(source: &mut dyn TupleSource) -> Vec<SourceTuple> {
        let mut out = Vec::new();
        while let Some(t) = source.next_tuple().unwrap() {
            out.push(t);
        }
        out
    }

    /// The in-memory scoring pass over one CSV text, default import.
    fn scored(csv: &str, expr: &Expr) -> Result<VecSource> {
        let import = ShardImportOptions::default();
        let mut shards =
            shard_sources_from_csv_with(&[csv], &CsvOptions::default(), expr, &import)?;
        Ok(shards.pop().expect("one shard per text"))
    }

    /// The external sort over one CSV text, default import, replayed once.
    fn spilled(csv: &str, expr: &Expr, spill: &SpillOptions) -> Result<SpilledSource> {
        let import = ShardImportOptions::default();
        Arc::new(SpillIndex::from_csv_text(
            csv,
            &CsvOptions::default(),
            expr,
            spill,
            &import,
        )?)
        .replay()
    }

    /// A CSV with many rows, score ties and ME groups straddling arbitrary
    /// run boundaries.
    fn big_csv(rows: usize) -> String {
        let mut csv = String::from("score,probability,group_key\n");
        for i in 0..rows {
            let score = (i * 13) % 37;
            let prob = 0.05 + 0.01 * ((i % 30) as f64);
            let group = if i % 4 == 0 {
                format!("g{}", i / 8)
            } else {
                String::new()
            };
            csv.push_str(&format!("{score},{prob},{group}\n"));
        }
        csv
    }

    #[test]
    fn spilled_source_is_bit_identical_to_the_in_memory_path() {
        let csv = big_csv(500);
        let expr = crate::parser::parse_expression("score").unwrap();
        let in_memory = drain(&mut scored(&csv, &expr).unwrap());
        for run_buffer in [7usize, 64, 499, 500, 10_000] {
            let mut spilled =
                spilled(&csv, &expr, &SpillOptions::with_run_buffer(run_buffer)).unwrap();
            assert_eq!(spilled.len(), 500);
            if run_buffer <= 500 {
                // The import spills; fan-in control then folds the runs into
                // at most `max_fan_in` (default 64) larger runs.
                let initial_runs = 500 / run_buffer.max(1);
                let max_fan_in = SpillOptions::default().max_fan_in;
                if initial_runs <= max_fan_in {
                    assert_eq!(
                        spilled.spilled_run_count(),
                        initial_runs,
                        "run buffer {run_buffer} must spill"
                    );
                } else {
                    let count = spilled.spilled_run_count();
                    assert!(
                        count >= 2 && count <= max_fan_in,
                        "fan-in bound violated for run buffer {run_buffer}: {count} runs"
                    );
                }
            } else {
                assert_eq!(spilled.spilled_run_count(), 0);
            }
            assert_eq!(spilled.size_hint(), Some(500));
            let streamed = drain(&mut spilled);
            assert_eq!(streamed, in_memory, "run buffer {run_buffer}");
        }
    }

    #[test]
    fn spill_index_replays_without_recreating_runs() {
        let dir = std::env::temp_dir().join(format!("ttk-spill-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = big_csv(300);
        let expr = crate::parser::parse_expression("score").unwrap();
        let spill = SpillOptions {
            run_buffer_tuples: 64,
            temp_dir: Some(dir.clone()),
            ..SpillOptions::default()
        };
        let index = Arc::new(
            SpillIndex::from_csv_text(
                &csv,
                &CsvOptions::default(),
                &expr,
                &spill,
                &ShardImportOptions::default(),
            )
            .unwrap(),
        );
        assert_eq!(index.len(), 300);
        assert_eq!(index.spilled_run_count(), 300 / 64);
        assert_eq!(index.run_count(), 300 / 64 + 1);
        assert!(index.schema().index_of("score").is_ok());
        let files_after_build: Vec<String> = {
            let mut names: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            names
        };
        let first = drain(&mut index.replay().unwrap());
        let second = drain(&mut index.replay().unwrap());
        assert_eq!(first, second);
        assert_eq!(first.len(), 300);
        // Replaying reopened the existing run files; no new ones appeared.
        let files_after_replays: Vec<String> = {
            let mut names: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            names
        };
        assert_eq!(files_after_build, files_after_replays);
        // A replayed source keeps the index (and its files) alive.
        let survivor = index.replay().unwrap();
        drop(index);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 300 / 64);
        drop(survivor);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn spilled_run_files_are_removed_on_drop() {
        let dir = std::env::temp_dir().join(format!("ttk-spill-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = big_csv(100);
        let expr = crate::parser::parse_expression("score").unwrap();
        let spill = SpillOptions {
            run_buffer_tuples: 10,
            temp_dir: Some(dir.clone()),
            ..SpillOptions::default()
        };
        let source = spilled(&csv, &expr, &spill).unwrap();
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 10);
        drop(source);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn spilled_path_from_file_and_error_reporting() {
        let path = std::env::temp_dir().join(format!("ttk-spill-input-{}.csv", std::process::id()));
        std::fs::write(&path, big_csv(120)).unwrap();
        let expr = crate::parser::parse_expression("score").unwrap();
        let from_path = |path: &Path, spill: &SpillOptions| {
            SpillIndex::from_csv_path(
                path,
                &CsvOptions::default(),
                &expr,
                spill,
                &ShardImportOptions::default(),
            )
        };
        let index = Arc::new(from_path(&path, &SpillOptions::with_run_buffer(16)).unwrap());
        let text = std::fs::read_to_string(&path).unwrap();
        let in_memory = drain(&mut scored(&text, &expr).unwrap());
        assert_eq!(drain(&mut index.replay().unwrap()), in_memory);
        std::fs::remove_file(&path).unwrap();

        // Missing files and malformed input surface as errors.
        assert!(matches!(
            from_path(Path::new("/nonexistent/ttk.csv"), &SpillOptions::default()),
            Err(PdbError::Io(_))
        ));
        assert!(spilled(
            "score,probability\n1,huh\n",
            &expr,
            &SpillOptions::default()
        )
        .is_err());
    }

    #[test]
    fn shard_sources_share_ids_and_group_namespaces() {
        let expr = crate::parser::parse_expression("score").unwrap();
        // One relation split across two shard files; group "g1" spans both.
        let shard_a = "score,probability,group_key\n10,0.4,g1\n5,0.5,\n";
        let shard_b = "score,probability,group_key\n8,0.5,g1\n7,0.9,g2\n";
        let import = ShardImportOptions::default();
        let shards = shard_sources_from_csv_with(
            &[shard_a, shard_b],
            &CsvOptions::default(),
            &expr,
            &import,
        )
        .unwrap();
        assert_eq!(shards.len(), 2);
        let merged = drain(&mut MergeSource::new(shards));
        // Ids count across shards: 0,1 in shard A; 2,3 in shard B.
        let ids: Vec<u64> = merged.iter().map(|t| t.tuple.id().raw()).collect();
        assert_eq!(ids, vec![0, 2, 3, 1]);
        // The g1 rows of both shards share one group key.
        assert_eq!(merged[0].group, merged[1].group);
        assert!(matches!(merged[0].group, GroupKey::Shared(_)));
        assert_ne!(merged[2].group, merged[0].group);
        // Equals the single-file import of the concatenation.
        let combined = "score,probability,group_key\n10,0.4,g1\n5,0.5,\n8,0.5,g1\n7,0.9,g2\n";
        let single = drain(&mut scored(combined, &expr).unwrap());
        assert_eq!(merged, single);
        // A shard whose schema misses the scored column fails validation.
        assert!(shard_sources_from_csv_with(
            &[shard_a, "other,probability\n1,0.5\n"],
            &CsvOptions::default(),
            &expr,
            &import
        )
        .is_err());
    }

    #[test]
    fn fan_in_control_folds_hundreds_of_runs_and_stays_bit_identical() {
        let dir = std::env::temp_dir().join(format!("ttk-fan-in-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = big_csv(400);
        let expr = crate::parser::parse_expression("score").unwrap();
        let in_memory = drain(&mut scored(&csv, &expr).unwrap());

        // A 3-tuple buffer forces 133 runs — well past the fan-in bound of 8,
        // so several intermediate merge passes must run.
        let spill = SpillOptions {
            run_buffer_tuples: 3,
            temp_dir: Some(dir.clone()),
            max_fan_in: 8,
        };
        let index = Arc::new(
            SpillIndex::from_csv_text(
                &csv,
                &CsvOptions::default(),
                &expr,
                &spill,
                &ShardImportOptions::default(),
            )
            .unwrap(),
        );
        let initial_runs = 400usize.div_ceil(spill.run_buffer_tuples);
        assert!(
            initial_runs > 100,
            "the workload must force 100+ initial runs, got {initial_runs}"
        );
        assert!(
            index.spilled_run_count() <= 8,
            "{} runs survive a max_fan_in of 8",
            index.spilled_run_count()
        );
        assert!(index.spilled_run_count() >= 2);
        assert_eq!(index.len(), 400);
        // The files on disk match the bookkeeping (intermediate inputs were
        // deleted as they were folded).
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            index.spilled_run_count()
        );

        // Replays are bit-identical to the in-memory import.
        assert_eq!(drain(&mut index.replay().unwrap()), in_memory);

        drop(index);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn corrupt_run_files_surface_as_source_errors() {
        let csv = big_csv(200);
        let expr = crate::parser::parse_expression("score").unwrap();
        let index = Arc::new(
            SpillIndex::from_csv_text(
                &csv,
                &CsvOptions::default(),
                &expr,
                &SpillOptions::with_run_buffer(16),
                &ShardImportOptions::default(),
            )
            .unwrap(),
        );

        // Corrupt a run file behind the index's back: the replay must
        // surface the decode failure as an error, not truncate the stream.
        let victim = index.runs.paths[0].clone();
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, "these are not tuple bits\n").unwrap();
        let mut broken = index.replay().unwrap();
        let mut result = Ok(());
        loop {
            match broken.next_tuple() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        assert!(
            matches!(result, Err(ttk_uncertain::Error::Source(_))),
            "{result:?}"
        );
        std::fs::write(&victim, bytes).unwrap(); // restore for clean drop
    }

    #[test]
    fn hashed_group_keys_unify_across_independent_imports() {
        let expr = crate::parser::parse_expression("score").unwrap();
        // One relation split across two shard files; group "g1" spans both,
        // but each shard is imported by an *independent* ScoreState (as two
        // serve-shard processes would).
        let shard_a = "score,probability,group_key\n10,0.4,g1\n5,0.5,\n";
        let shard_b = "score,probability,group_key\n8,0.5,g1\n7,0.9,g2\n";
        let a = shard_sources_from_csv_with(
            &[shard_a],
            &CsvOptions::default(),
            &expr,
            &ShardImportOptions {
                first_tuple_id: 0,
                hashed_group_keys: true,
            },
        )
        .unwrap()
        .pop()
        .unwrap();
        let b = shard_sources_from_csv_with(
            &[shard_b],
            &CsvOptions::default(),
            &expr,
            &ShardImportOptions {
                first_tuple_id: 2, // shard A holds rows 0..2
                hashed_group_keys: true,
            },
        )
        .unwrap()
        .pop()
        .unwrap();
        let merged = drain(&mut MergeSource::new(vec![a, b]));
        // Same ids as the coordinated single-process import of both shards.
        let ids: Vec<u64> = merged.iter().map(|t| t.tuple.id().raw()).collect();
        assert_eq!(ids, vec![0, 2, 3, 1]);
        // The g1 rows of both shards share one (hashed) key; g2 differs.
        assert_eq!(merged[0].group, merged[1].group);
        assert!(matches!(merged[0].group, GroupKey::Shared(_)));
        assert_ne!(merged[2].group, merged[0].group);
        // The group *partition* matches the coordinated import exactly.
        let coordinated = drain(&mut MergeSource::new(
            shard_sources_from_csv_with(
                &[shard_a, shard_b],
                &CsvOptions::default(),
                &expr,
                &ShardImportOptions::default(),
            )
            .unwrap(),
        ));
        for (x, y) in merged.iter().zip(&coordinated) {
            assert_eq!(x.tuple, y.tuple);
            assert_eq!(
                matches!(x.group, GroupKey::Shared(_)),
                matches!(y.group, GroupKey::Shared(_))
            );
        }
    }

    #[test]
    fn non_finite_scores_and_probabilities_are_rejected_at_parse_time() {
        let expr = crate::parser::parse_expression("score").unwrap();
        // `nan` parses as an f64 but would corrupt the total rank order the
        // loser-tree merge and scan gate rely on; the error names row and
        // column.
        let nan_score = "score,probability\n1.5,0.5\nnan,0.5\n";
        let err = scored(nan_score, &expr).unwrap_err();
        match &err {
            PdbError::CsvError { line, message } => {
                assert_eq!(*line, 3);
                assert!(message.contains("non-finite score"), "{message}");
                assert!(message.contains("score"), "{message}");
            }
            other => panic!("expected CsvError, got {other:?}"),
        }
        // The spilled (out-of-core) import runs the same validation.
        assert!(matches!(
            spilled(nan_score, &expr, &SpillOptions::with_run_buffer(1)),
            Err(PdbError::CsvError { line: 3, .. })
        ));
        // An infinite score is just as rank-hostile as a NaN.
        let inf_score = "score,probability\ninf,0.5\n";
        assert!(matches!(
            scored(inf_score, &expr),
            Err(PdbError::CsvError { line: 2, .. })
        ));
        // Non-finite probabilities are rejected naming the metadata column.
        let nan_prob = "score,probability\n1.0,NaN\n";
        let err = table_from_csv("x", nan_prob, &CsvOptions::default()).unwrap_err();
        match &err {
            PdbError::CsvError { line, message } => {
                assert_eq!(*line, 2);
                assert!(message.contains("non-finite probability"), "{message}");
                assert!(message.contains("`probability`"), "{message}");
            }
            other => panic!("expected CsvError, got {other:?}"),
        }
        assert!(matches!(
            scored("score,probability\n1.0,inf\n", &expr),
            Err(PdbError::CsvError { line: 2, .. })
        ));
    }

    #[test]
    fn record_counting_matches_the_import_discipline() {
        let csv = "\n\nscore,probability\n1,0.5\n\n2,0.25\n   \n3,0.125\n";
        assert_eq!(count_csv_records(csv.as_bytes()).unwrap(), 3);
        let expr = crate::parser::parse_expression("score").unwrap();
        let imported = scored(csv, &expr).unwrap();
        assert_eq!(
            count_csv_records(csv.as_bytes()).unwrap(),
            imported.size_hint().unwrap() as u64,
            "the count a coordinator leases must equal the rows the import scores"
        );
        // Headers-only and empty inputs count zero records.
        assert_eq!(
            count_csv_records("score,probability\n".as_bytes()).unwrap(),
            0
        );
        assert_eq!(count_csv_records("".as_bytes()).unwrap(), 0);
    }

    #[test]
    fn import_options_follow_a_lease() {
        let lease = ttk_uncertain::ShardAssignment {
            id_base: 77,
            namespace: "coord-1".into(),
        };
        let import = ShardImportOptions::from(&lease);
        assert_eq!(import.first_tuple_id, 77);
        assert!(import.hashed_group_keys);
    }

    #[test]
    fn group_column_is_optional() {
        let options = CsvOptions {
            probability_column: "p".into(),
            group_column: None,
        };
        let csv = "score,p\n10,0.5\n20,0.25\n";
        let t = table_from_csv("simple", csv, &options).unwrap();
        assert_eq!(t.len(), 2);
        assert!(t.rows().iter().all(|r| r.group.is_none()));
    }
}
