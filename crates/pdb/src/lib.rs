//! # ttk-pdb — a minimal probabilistic database layer
//!
//! The paper frames its proposal as a database feature: an application issues
//! an SQL top-k query over an uncertain relation and receives, instead of a
//! single answer vector, the score distribution of top-k vectors plus a set
//! of typical answers. This crate supplies the thin relational substrate that
//! makes the examples, the CLI and the benchmark harness look like that
//! scenario end to end:
//!
//! * [`value`] / [`schema`] — typed values and table schemas;
//! * [`table`] — probabilistic tables: rows with membership probabilities and
//!   x-tuple (mutual-exclusion) group keys;
//! * [`expr`] / [`parser`] — the scoring-expression language used in
//!   `ORDER BY <expr> DESC LIMIT k`;
//! * [`csv`] — CSV import/export with probability and group columns,
//!   including the external-sort [`SpillIndex`] for out-of-core scans;
//! * [`dataset`] — [`CsvDataset`]: CSV relations as replayable `Dataset`s
//!   for the unified `Session` API of `ttk-core`, with cached scoring passes
//!   and spill-index reuse;
//! * [`query`] — execution of [`DistributionQuery`]s through the `ttk-core`
//!   pipeline, with results mapped back to rows.
//!
//! ```
//! use ttk_pdb::{run_distribution_query, table_from_csv, CsvOptions, DistributionQuery};
//!
//! let csv = "\
//! segment_id,speed_limit,length,delay,probability,group_key
//! 1,50,1000,120,0.6,seg-1
//! 1,50,1000,300,0.4,seg-1
//! 2,30,500,90,1.0,seg-2
//! 3,60,900,240,1.0,seg-3
//! ";
//! let area = table_from_csv("area", csv, &CsvOptions::default())?;
//! let query = DistributionQuery::new("speed_limit / (length / delay)", 2);
//! let result = run_distribution_query(&area, &query)?;
//! assert!(result.answer.distribution.total_probability() > 0.99);
//! # Ok::<(), ttk_pdb::PdbError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod csv;
pub mod dataset;
pub mod error;
pub mod expr;
pub mod parser;
pub mod query;
pub mod schema;
pub mod table;
pub mod value;

pub use csv::{
    count_csv_records, shard_sources_from_csv_with, stable_group_key, table_from_csv, table_to_csv,
    CsvOptions, ShardImportOptions, SpillIndex, SpillOptions, SpilledSource,
};
pub use dataset::CsvDataset;
pub use error::{PdbError, Result};
pub use expr::{BinaryOp, Expr};
pub use parser::parse_expression;
pub use query::{run_distribution_query, DistributionQuery, QueryResult};
pub use schema::{Column, Schema};
pub use table::{PTable, UncertainRow};
pub use value::{DataType, Value};
