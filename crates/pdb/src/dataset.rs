//! CSV-backed [`Dataset`]s: the `ttk-pdb` implementation of the unified
//! execution API's [`DatasetProvider`] seam.
//!
//! A [`CsvDataset`] bundles a CSV input (file path, inline text, or the
//! shard files of one partitioned relation), the [`CsvOptions`] naming its
//! metadata columns, the scoring [`Expr`], and optionally the
//! [`SpillOptions`] of an out-of-core scan. It caches whatever the first
//! open computes — the scored rank-ordered sources for in-memory inputs, the
//! external-sort [`SpillIndex`] for spilled ones — so **plan once, run
//! many** holds: a second query against the same spilled CSV replays the
//! existing run files instead of re-reading and re-sorting the relation.
//!
//! ```
//! use ttk_core::{Session, TopkQuery};
//! use ttk_pdb::{parse_expression, CsvDataset, CsvOptions};
//!
//! let csv = "\
//! score,probability,group_key
//! 9,0.5,g1
//! 7,1.0,
//! 4,0.5,g1
//! ";
//! let dataset =
//!     CsvDataset::from_text("demo", csv, CsvOptions::default(), parse_expression("score")?)
//!         .into_dataset();
//! let mut session = Session::new();
//! let query = TopkQuery::new(1).with_u_topk(false);
//! // Replayable: the scoring pass is cached after the first execute.
//! let first = session.execute(&dataset, &query)?;
//! let second = session.execute(&dataset, &query)?;
//! assert_eq!(first.distribution, second.distribution);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use ttk_core::{Dataset, DatasetPlan, DatasetProvider, ScanPath};
use ttk_uncertain::{ScanHandle, SourceTuple, TupleSource, VecSource};

use crate::csv::{
    shard_sources_from_csv_with, CsvOptions, ShardImportOptions, SpillIndex, SpillOptions,
};
use crate::error::{PdbError, Result};
use crate::expr::Expr;

/// The physical CSV input of a [`CsvDataset`].
#[derive(Debug, Clone)]
enum CsvInput {
    /// A single CSV file on disk.
    Path(PathBuf),
    /// Inline CSV text.
    Text(String),
    /// The shard files of one partitioned relation (shared id space and
    /// group-key namespace).
    ShardPaths(Vec<PathBuf>),
    /// Inline shard texts of one partitioned relation.
    ShardTexts(Vec<String>),
}

impl CsvInput {
    fn shard_count(&self) -> usize {
        match self {
            CsvInput::Path(_) | CsvInput::Text(_) => 1,
            CsvInput::ShardPaths(paths) => paths.len(),
            CsvInput::ShardTexts(texts) => texts.len(),
        }
    }

    fn is_sharded(&self) -> bool {
        matches!(self, CsvInput::ShardPaths(_) | CsvInput::ShardTexts(_))
    }
}

/// What the first open computed and every later open replays.
enum Cache {
    /// Nothing opened yet.
    Empty,
    /// In-memory scoring pass done: pristine rank-ordered sources, cloned
    /// per open.
    Scored(Vec<VecSource>),
    /// External sort done: the reusable run-file index.
    Spilled(Arc<SpillIndex>),
}

/// A CSV relation as a replayable [`Dataset`] input.
///
/// See the [module documentation](self) for the caching behaviour. Convert
/// with [`CsvDataset::into_dataset`] and run through a
/// [`Session`](ttk_core::Session).
pub struct CsvDataset {
    input: CsvInput,
    options: CsvOptions,
    score: Expr,
    spill: Option<SpillOptions>,
    import: ShardImportOptions,
    cache: Mutex<Cache>,
    label: String,
}

impl std::fmt::Debug for CsvDataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsvDataset")
            .field("label", &self.label)
            .field("input", &self.input)
            .field("spill", &self.spill)
            .finish()
    }
}

impl CsvDataset {
    fn new(input: CsvInput, options: CsvOptions, score: Expr, label: String) -> Self {
        CsvDataset {
            input,
            options,
            score,
            spill: None,
            import: ShardImportOptions::default(),
            cache: Mutex::new(Cache::Empty),
            label,
        }
    }

    /// A dataset over a single CSV file on disk.
    pub fn from_path(path: impl Into<PathBuf>, options: CsvOptions, score: Expr) -> Self {
        let path = path.into();
        let label = path.to_string_lossy().into_owned();
        CsvDataset::new(CsvInput::Path(path), options, score, label)
    }

    /// A dataset over inline CSV text.
    pub fn from_text(
        label: impl Into<String>,
        text: impl Into<String>,
        options: CsvOptions,
        score: Expr,
    ) -> Self {
        CsvDataset::new(CsvInput::Text(text.into()), options, score, label.into())
    }

    /// A dataset over the shard files of **one partitioned relation**: the
    /// shards share one tuple-id space and one group-key namespace, and open
    /// under the loser-tree k-way merge.
    pub fn from_shard_paths(
        paths: impl IntoIterator<Item = impl Into<PathBuf>>,
        options: CsvOptions,
        score: Expr,
    ) -> Self {
        let paths: Vec<PathBuf> = paths.into_iter().map(Into::into).collect();
        let label = paths
            .first()
            .map(|p| format!("{} ..", p.to_string_lossy()))
            .unwrap_or_else(|| "<no shards>".to_string());
        CsvDataset::new(CsvInput::ShardPaths(paths), options, score, label)
    }

    /// A dataset over inline shard texts of one partitioned relation.
    pub fn from_shard_texts(
        label: impl Into<String>,
        texts: impl IntoIterator<Item = impl Into<String>>,
        options: CsvOptions,
        score: Expr,
    ) -> Self {
        CsvDataset::new(
            CsvInput::ShardTexts(texts.into_iter().map(Into::into).collect()),
            options,
            score,
            label.into(),
        )
    }

    /// Enables the out-of-core scan: the first open external-sorts the CSV
    /// through a bounded run buffer and keeps the resulting [`SpillIndex`];
    /// every later open replays the run files without re-sorting.
    ///
    /// # Errors
    ///
    /// [`PdbError::InvalidQuery`] for sharded inputs — spill options apply to
    /// single-file datasets only, and rejecting the combination here keeps
    /// `plan`/`open` (and therefore `explain`/`execute`) consistent.
    pub fn with_spill(mut self, spill: SpillOptions) -> Result<Self> {
        if self.input.is_sharded() {
            return Err(PdbError::InvalidQuery(format!(
                "spill options apply to a single-file CSV dataset, but `{}` is a {}-shard \
                 set; drop the spill configuration or merge the shards into one file",
                self.label,
                self.input.shard_count()
            )));
        }
        self.spill = Some(spill);
        Ok(self)
    }

    /// Sets the [`ShardImportOptions`] of the scoring pass — the id base and
    /// stable hashed group keys a `ttk serve-shard` process uses so the
    /// shard it serves slots into the relation's shared id space and
    /// group-key namespace without coordinating with its peers.
    pub fn with_import(mut self, import: ShardImportOptions) -> Self {
        self.import = import;
        self
    }

    /// Eagerly runs the first open — the scoring pass (or external sort)
    /// that populates the reuse cache — and discards the stream.
    ///
    /// A long-lived serving process (`ttk serve`) calls this at startup so a
    /// missing file or malformed CSV fails the daemon before it accepts its
    /// first query, and that first query pays a warm open instead of the
    /// cold scoring pass.
    ///
    /// # Errors
    ///
    /// Whatever the first open would have returned: I/O failures, CSV or
    /// expression errors, spill failures.
    pub fn warm(&self) -> Result<()> {
        self.open_impl().map(drop)
    }

    /// Drains the scored scan into owned rows, in rank order.
    ///
    /// This is the bridge from a CSV file to a live append: `ttk append
    /// --file` scores the CSV exactly like `ttk serve` would serve it, then
    /// ships the resulting rows to the daemon's
    /// [`AppendLog`](ttk_core::AppendLog) instead of opening a local scan.
    ///
    /// ```
    /// use ttk_pdb::{parse_expression, CsvDataset, CsvOptions};
    ///
    /// let csv = "score,probability,group_key\n9,0.5,g1\n7,1.0,\n";
    /// let dataset =
    ///     CsvDataset::from_text("feed", csv, CsvOptions::default(), parse_expression("score")?);
    /// let rows = dataset.scored_rows()?;
    /// assert_eq!(rows.len(), 2);
    /// assert_eq!(rows[0].tuple.score(), 9.0);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Whatever the open would have returned: I/O failures, CSV or
    /// expression errors, spill failures.
    pub fn scored_rows(&self) -> Result<Vec<SourceTuple>> {
        let mut handle = self.open_impl()?;
        let mut rows = Vec::new();
        while let Some(row) = handle.next_tuple()? {
            rows.push(row);
        }
        Ok(rows)
    }

    /// Wraps the dataset into the unified [`Dataset`] type consumed by
    /// [`Session`](ttk_core::Session).
    pub fn into_dataset(self) -> Dataset {
        let label = self.label.clone();
        Dataset::from_provider(self).with_label(label)
    }

    fn open_impl(&self) -> Result<ScanHandle> {
        let mut cache = self.cache.lock().expect("csv dataset cache poisoned");
        if let Some(spill) = &self.spill {
            let index = match &*cache {
                Cache::Spilled(index) => Arc::clone(index),
                _ => {
                    // `with_spill` rejects sharded inputs, so only the
                    // single-file kinds can reach this arm.
                    let built = match &self.input {
                        CsvInput::Path(path) => SpillIndex::from_csv_path(
                            path,
                            &self.options,
                            &self.score,
                            spill,
                            &self.import,
                        )?,
                        CsvInput::Text(text) => SpillIndex::from_csv_text(
                            text,
                            &self.options,
                            &self.score,
                            spill,
                            &self.import,
                        )?,
                        CsvInput::ShardPaths(_) | CsvInput::ShardTexts(_) => {
                            unreachable!("with_spill rejects sharded inputs")
                        }
                    };
                    let index = Arc::new(built);
                    *cache = Cache::Spilled(Arc::clone(&index));
                    index
                }
            };
            return Ok(ScanHandle::single(index.replay()?));
        }

        let sources = match &*cache {
            Cache::Scored(sources) => sources.clone(),
            _ => {
                let scored = match &self.input {
                    CsvInput::Path(path) => {
                        let text = std::fs::read_to_string(path)?;
                        shard_sources_from_csv_with(
                            &[text.as_str()],
                            &self.options,
                            &self.score,
                            &self.import,
                        )?
                    }
                    CsvInput::Text(text) => shard_sources_from_csv_with(
                        &[text.as_str()],
                        &self.options,
                        &self.score,
                        &self.import,
                    )?,
                    CsvInput::ShardPaths(paths) => {
                        let texts: Vec<String> = paths
                            .iter()
                            .map(std::fs::read_to_string)
                            .collect::<std::io::Result<_>>()?;
                        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
                        shard_sources_from_csv_with(
                            &refs,
                            &self.options,
                            &self.score,
                            &self.import,
                        )?
                    }
                    CsvInput::ShardTexts(texts) => {
                        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
                        shard_sources_from_csv_with(
                            &refs,
                            &self.options,
                            &self.score,
                            &self.import,
                        )?
                    }
                };
                *cache = Cache::Scored(scored.clone());
                scored
            }
        };
        Ok(if sources.len() == 1 {
            let source = sources.into_iter().next().expect("one source");
            ScanHandle::single(source)
        } else {
            ScanHandle::merged(sources)
        })
    }
}

impl DatasetProvider for CsvDataset {
    fn open(&self) -> ttk_uncertain::Result<ScanHandle> {
        self.open_impl().map_err(|error| match error {
            // Model-level failures keep their typed form.
            PdbError::Core(inner) => inner,
            // Everything else crosses the crate boundary as a source error.
            other => ttk_uncertain::Error::Source(other.to_string()),
        })
    }

    fn plan(&self) -> DatasetPlan {
        let cache = self.cache.lock().expect("csv dataset cache poisoned");
        // `with_spill` rejects sharded inputs, so a configured spill always
        // means the single-file external-sort path — plan and open agree.
        if self.spill.is_some() {
            return match &*cache {
                Cache::Spilled(index) => DatasetPlan {
                    path: ScanPath::SpilledRuns {
                        runs: Some(index.run_count()),
                        spilled: Some(index.spilled_run_count()),
                        reused: true,
                    },
                    rows: Some(index.len()),
                },
                _ => DatasetPlan {
                    path: ScanPath::SpilledRuns {
                        runs: None,
                        spilled: None,
                        reused: false,
                    },
                    rows: None,
                },
            };
        }
        let rows = match &*cache {
            Cache::Scored(sources) => sources.iter().map(|s| s.size_hint()).sum(),
            _ => None,
        };
        let shards = self.input.shard_count();
        DatasetPlan {
            path: if shards == 1 {
                ScanPath::Stream
            } else {
                ScanPath::MergedShards { shards }
            },
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expression;
    use ttk_core::{Session, TopkQuery};

    const SAMPLE: &str = "\
score,probability,group_key
9,0.5,g1
7,1.0,
4,0.5,g1
2,0.8,g2
";

    #[test]
    fn text_dataset_replays_and_plans() {
        let dataset = CsvDataset::from_text(
            "sample",
            SAMPLE,
            CsvOptions::default(),
            parse_expression("score").unwrap(),
        );
        assert_eq!(dataset.plan().rows, None);
        let unified = dataset.into_dataset();
        let mut session = Session::new();
        let query = TopkQuery::new(2).with_u_topk(false);
        let first = session.execute(&unified, &query).unwrap();
        // After the first open the scoring pass is cached: rows are known.
        let plan = session.explain(&unified, &query);
        assert_eq!(plan.path, ScanPath::Stream);
        assert_eq!(plan.rows, Some(4));
        let second = session.execute(&unified, &query).unwrap();
        assert_eq!(first.distribution, second.distribution);
    }

    #[test]
    fn shard_texts_open_under_a_merge() {
        let shard_a = "score,probability,group_key\n9,0.5,g1\n4,0.5,g1\n";
        let shard_b = "score,probability,group_key\n7,1.0,\n2,0.8,g2\n";
        let sharded = CsvDataset::from_shard_texts(
            "two-shards",
            [shard_a, shard_b],
            CsvOptions::default(),
            parse_expression("score").unwrap(),
        )
        .into_dataset();
        // Ids count across shards in shard order, so the reference is the
        // import of the shard concatenation.
        let concatenated = "score,probability,group_key\n9,0.5,g1\n4,0.5,g1\n7,1.0,\n2,0.8,g2\n";
        let single = CsvDataset::from_text(
            "single",
            concatenated,
            CsvOptions::default(),
            parse_expression("score").unwrap(),
        )
        .into_dataset();
        let mut session = Session::new();
        let query = TopkQuery::new(2).with_u_topk(false);
        let merged = session.execute(&sharded, &query).unwrap();
        let reference = session.execute(&single, &query).unwrap();
        assert_eq!(merged.distribution, reference.distribution);
        assert_eq!(
            session.explain(&sharded, &query).path,
            ScanPath::MergedShards { shards: 2 }
        );
    }

    #[test]
    fn second_query_on_a_spilled_csv_reuses_the_spill_index() {
        let dir = std::env::temp_dir().join(format!("ttk-dataset-spill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut csv = String::from("score,probability,group_key\n");
        for i in 0..200 {
            csv.push_str(&format!("{},0.{}5,\n", (i * 7) % 83, 1 + i % 8));
        }
        let spill = SpillOptions {
            run_buffer_tuples: 32,
            temp_dir: Some(dir.clone()),
            ..SpillOptions::default()
        };
        let dataset = CsvDataset::from_text(
            "spilled",
            &csv,
            CsvOptions::default(),
            parse_expression("score").unwrap(),
        )
        .with_spill(spill)
        .unwrap()
        .into_dataset();
        let mut session = Session::new();
        let query = TopkQuery::new(3).with_u_topk(false);

        // Before the first query the external sort has not run.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        let first = session.execute(&dataset, &query).unwrap();
        let run_files: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(run_files.len(), 200 / 32, "the first query spills runs");
        let modified: Vec<std::time::SystemTime> = run_files
            .iter()
            .map(|p| std::fs::metadata(p).unwrap().modified().unwrap())
            .collect();

        // The second query replays the cached index: identical answer, the
        // very same run files (none re-created, none added, none rewritten).
        let second = session.execute(&dataset, &query).unwrap();
        assert_eq!(first.distribution, second.distribution);
        assert_eq!(first.scan_depth, second.scan_depth);
        let after: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(run_files, after, "run files were re-created");
        for (path, stamp) in run_files.iter().zip(&modified) {
            assert_eq!(
                &std::fs::metadata(path).unwrap().modified().unwrap(),
                stamp,
                "{path:?} was rewritten"
            );
        }
        // The plan now reports the reused external-sort path.
        let plan = session.explain(&dataset, &query);
        assert_eq!(
            plan.path,
            ScanPath::SpilledRuns {
                runs: Some(200 / 32 + 1),
                spilled: Some(200 / 32),
                reused: true
            }
        );
        assert_eq!(plan.rows, Some(200));

        drop(dataset);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn spill_on_shards_is_rejected_at_construction() {
        let err = CsvDataset::from_shard_texts(
            "bad",
            ["score,probability\n1,0.5\n"],
            CsvOptions {
                probability_column: "probability".into(),
                group_column: None,
            },
            parse_expression("score").unwrap(),
        )
        .with_spill(SpillOptions::with_run_buffer(4))
        .unwrap_err();
        assert!(err.to_string().contains("single-file"), "{err}");
    }

    #[test]
    fn missing_file_errors_surface_through_open() {
        let dataset = CsvDataset::from_path(
            "/nonexistent/ttk-dataset.csv",
            CsvOptions::default(),
            parse_expression("score").unwrap(),
        )
        .into_dataset();
        let err = Session::new()
            .execute(&dataset, &TopkQuery::new(1))
            .unwrap_err();
        assert!(matches!(err, ttk_uncertain::Error::Source(_)), "{err:?}");
    }
}
