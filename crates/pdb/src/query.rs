//! Executing top-k distribution queries against probabilistic tables.
//!
//! This is the layer that corresponds to the paper's SQL scenario:
//!
//! ```sql
//! SELECT segment_id, speed_limit / (length / delay) AS congestion_score
//! FROM area
//! ORDER BY congestion_score DESC
//! LIMIT k
//! ```
//!
//! A [`DistributionQuery`] carries the scoring expression (as text) plus the
//! knobs of the underlying [`TopkQuery`]; [`run_distribution_query`] scores
//! the rows, assembles the uncertain table, runs the core pipeline and maps
//! the answers back to row indexes of the probabilistic table.

use ttk_core::{Dataset, QueryAnswer, Session, TopkQuery};
use ttk_uncertain::TopkVector;

use crate::error::Result;
use crate::expr::Expr;
use crate::parser::parse_expression;
use crate::table::PTable;

/// A top-k distribution query over a probabilistic table.
#[derive(Debug, Clone)]
pub struct DistributionQuery {
    /// The scoring expression (`ORDER BY <expr> DESC`).
    pub score: String,
    /// The top-k parameters (k, c, pτ, max lines, algorithm, …).
    pub topk: TopkQuery,
}

impl DistributionQuery {
    /// Creates a query with default top-k parameters.
    pub fn new(score: impl Into<String>, k: usize) -> Self {
        DistributionQuery {
            score: score.into(),
            topk: TopkQuery::new(k),
        }
    }

    /// Replaces the top-k parameters.
    pub fn with_topk(mut self, topk: TopkQuery) -> Self {
        self.topk = topk;
        self
    }
}

/// A query result, answering both at the level of the uncertain-table
/// machinery (score distribution, typical vectors, U-Topk) and at the level
/// of the original rows.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The scoring expression after parsing (normalised form).
    pub score_expression: Expr,
    /// The full answer from the core engine.
    pub answer: QueryAnswer,
}

impl QueryResult {
    /// Maps a top-k vector back to row indexes of the probabilistic table
    /// (tuple ids are row indexes by construction).
    pub fn rows_of(&self, vector: &TopkVector) -> Vec<usize> {
        vector.ids().iter().map(|id| id.raw() as usize).collect()
    }

    /// Row indexes of every typical vector, in ascending typical-score order.
    pub fn typical_rows(&self) -> Vec<Vec<usize>> {
        self.answer
            .typical
            .answers
            .iter()
            .filter_map(|a| a.vector.as_ref())
            .map(|v| self.rows_of(v))
            .collect()
    }

    /// Row indexes of the U-Topk vector, when it was computed.
    pub fn u_topk_rows(&self) -> Option<Vec<usize>> {
        self.answer.u_topk.as_ref().map(|u| self.rows_of(&u.vector))
    }
}

/// Parses the scoring expression, scores the rows and runs the complete
/// typical top-k pipeline.
///
/// # Errors
///
/// Returns parse errors, expression evaluation errors, data-model validation
/// errors and core algorithm errors.
pub fn run_distribution_query(table: &PTable, query: &DistributionQuery) -> Result<QueryResult> {
    let score_expression = parse_expression(&query.score)?;
    let uncertain = table.to_uncertain_table(&score_expression)?;
    let dataset = Dataset::table(uncertain).with_label(table.name().to_string());
    let answer = Session::new().execute(&dataset, &query.topk)?;
    Ok(QueryResult {
        score_expression,
        answer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::{table_to_csv, CsvOptions};
    use crate::dataset::CsvDataset;
    use crate::schema::Schema;
    use crate::value::DataType;

    /// The soldier table of Figure 1 expressed as a probabilistic relation.
    fn soldier_ptable() -> PTable {
        let schema = Schema::default()
            .with("soldier_id", DataType::Integer)
            .with("medical_score", DataType::Float);
        let mut t = PTable::new("soldiers", schema);
        let rows: [(i64, f64, f64, Option<&str>); 7] = [
            (1, 49.0, 0.4, None),
            (2, 60.0, 0.4, Some("soldier-2")),
            (3, 110.0, 0.4, Some("soldier-3")),
            (2, 80.0, 0.3, Some("soldier-2")),
            (4, 56.0, 1.0, None),
            (3, 58.0, 0.5, Some("soldier-3")),
            (2, 125.0, 0.3, Some("soldier-2")),
        ];
        for (soldier, score, p, group) in rows {
            t.insert(vec![soldier.into(), score.into()], p, group)
                .unwrap();
        }
        t
    }

    #[test]
    fn end_to_end_soldier_query_matches_the_paper() {
        let table = soldier_ptable();
        let query = DistributionQuery::new("medical_score", 2)
            .with_topk(TopkQuery::new(2).with_p_tau(1e-9).with_max_lines(0));
        let result = run_distribution_query(&table, &query).unwrap();
        assert!((result.answer.expected_score() - 164.1).abs() < 0.05);
        assert_eq!(result.answer.typical.scores(), vec![118.0, 183.0, 235.0]);
        // Row indexes: row 1 is the T2 reading, row 5 is the T6 reading.
        assert_eq!(result.u_topk_rows().unwrap(), vec![1, 5]);
        let typical_rows = result.typical_rows();
        assert_eq!(typical_rows.len(), 3);
        assert_eq!(typical_rows[2], vec![6, 2]); // <T7, T3> = rows 6 and 2
    }

    #[test]
    fn expressions_can_combine_columns() {
        let schema = Schema::default()
            .with("base", DataType::Float)
            .with("penalty", DataType::Float);
        let mut t = PTable::new("scores", schema);
        t.insert(vec![10.0.into(), 1.0.into()], 0.5, None).unwrap();
        t.insert(vec![8.0.into(), 0.0.into()], 0.9, None).unwrap();
        t.insert(vec![12.0.into(), 5.0.into()], 0.7, None).unwrap();
        let query = DistributionQuery::new("base - penalty", 1)
            .with_topk(TopkQuery::new(1).with_p_tau(1e-9).with_max_lines(0));
        let result = run_distribution_query(&t, &query).unwrap();
        // Scores: 9, 8, 7 → the mode of the top-1 distribution is 9 (p=0.5).
        let mode = result.answer.distribution.mode().unwrap();
        assert!((mode.score - 9.0).abs() < 1e-9);
        assert!((mode.probability - 0.5).abs() < 1e-9);
    }

    #[test]
    fn streamed_query_matches_the_materialized_route() {
        let table = soldier_ptable();
        let query = DistributionQuery::new("medical_score", 2)
            .with_topk(TopkQuery::new(2).with_p_tau(1e-9).with_max_lines(0));
        let materialized = run_distribution_query(&table, &query).unwrap();
        // The streamed route: the same rows exported as CSV, scored by the
        // import pass and pulled through the scan gate as one stream.
        let score_expression = parse_expression(&query.score).unwrap();
        let csv = table_to_csv(&table, &CsvOptions::default());
        let dataset = CsvDataset::from_text(
            "soldiers",
            csv,
            CsvOptions::default(),
            score_expression.clone(),
        )
        .into_dataset();
        let streamed = QueryResult {
            score_expression,
            answer: Session::new().execute(&dataset, &query.topk).unwrap(),
        };
        assert_eq!(
            materialized.answer.distribution,
            streamed.answer.distribution
        );
        assert_eq!(
            materialized.answer.typical.scores(),
            streamed.answer.typical.scores()
        );
        // The toy table is scanned in full, so even the prefix-based U-Topk
        // search sees the same input.
        assert_eq!(materialized.u_topk_rows(), streamed.u_topk_rows());
    }

    #[test]
    fn parse_errors_surface() {
        let table = soldier_ptable();
        let query = DistributionQuery::new("medical_score +", 2);
        assert!(run_distribution_query(&table, &query).is_err());
        let query = DistributionQuery::new("unknown_column", 2);
        assert!(run_distribution_query(&table, &query).is_err());
    }
}
