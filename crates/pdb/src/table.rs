//! Probabilistic tables: relational rows with membership probabilities and
//! x-tuple (mutual exclusion) groups.

use std::collections::HashMap;

use ttk_uncertain::{TupleId, UncertainTable, UncertainTuple};

use crate::error::{PdbError, Result};
use crate::expr::Expr;
use crate::schema::Schema;
use crate::value::Value;

/// One uncertain row: the attribute values, the membership probability, and
/// an optional x-tuple group key. Rows that share a group key are mutually
/// exclusive (at most one of them exists), mirroring how, for example, the
/// binned delay measurements of one road segment relate to each other.
#[derive(Debug, Clone, PartialEq)]
pub struct UncertainRow {
    /// Attribute values, laid out according to the table schema.
    pub values: Vec<Value>,
    /// Membership probability in `(0, 1]`.
    pub probability: f64,
    /// Optional x-tuple group key.
    pub group: Option<String>,
}

/// An in-memory probabilistic table.
#[derive(Debug, Clone)]
pub struct PTable {
    name: String,
    schema: Schema,
    rows: Vec<UncertainRow>,
}

impl PTable {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        PTable {
            name: name.into(),
            schema,
            rows: Vec::new(),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows in insertion order.
    pub fn rows(&self) -> &[UncertainRow] {
        &self.rows
    }

    /// One row by index.
    pub fn row(&self, index: usize) -> Option<&UncertainRow> {
        self.rows.get(index)
    }

    /// Inserts a row, validating it against the schema and the probability
    /// range. Returns the row index.
    ///
    /// # Errors
    ///
    /// Returns schema/type errors from [`Schema::check_row`] and
    /// [`PdbError::InvalidQuery`] for out-of-range probabilities.
    pub fn insert(
        &mut self,
        values: Vec<Value>,
        probability: f64,
        group: Option<&str>,
    ) -> Result<usize> {
        let values = self.schema.check_row(&values)?;
        if !(probability > 0.0 && probability <= 1.0 + 1e-9) {
            return Err(PdbError::InvalidQuery(format!(
                "membership probability must be in (0, 1], got {probability}"
            )));
        }
        self.rows.push(UncertainRow {
            values,
            probability: probability.min(1.0),
            group: group.map(str::to_string),
        });
        Ok(self.rows.len() - 1)
    }

    /// Total probability mass per x-tuple group (useful for sanity checks).
    pub fn group_masses(&self) -> HashMap<String, f64> {
        let mut masses = HashMap::new();
        for row in &self.rows {
            if let Some(g) = &row.group {
                *masses.entry(g.clone()).or_insert(0.0) += row.probability;
            }
        }
        masses
    }

    /// Scores every row with the given expression and builds the
    /// [`UncertainTable`] the top-k algorithms operate on. Tuple ids are row
    /// indices, so results map straight back to rows.
    ///
    /// # Errors
    ///
    /// Returns expression evaluation errors and data-model validation errors
    /// (for example a group whose probabilities sum to more than one).
    pub fn to_uncertain_table(&self, score: &Expr) -> Result<UncertainTable> {
        if self.rows.is_empty() {
            return Err(PdbError::InvalidQuery(format!(
                "table `{}` is empty",
                self.name
            )));
        }
        score.validate(&self.schema)?;
        let mut tuples = Vec::with_capacity(self.rows.len());
        let mut groups: HashMap<&str, Vec<TupleId>> = HashMap::new();
        for (idx, row) in self.rows.iter().enumerate() {
            let score_value = score.evaluate(&self.schema, &row.values)?;
            let id = TupleId(idx as u64);
            tuples.push(
                UncertainTuple::new(id, score_value, row.probability).map_err(PdbError::Core)?,
            );
            if let Some(g) = &row.group {
                groups.entry(g.as_str()).or_default().push(id);
            }
        }
        let rules: Vec<Vec<TupleId>> = groups
            .into_values()
            .filter(|members| members.len() > 1)
            .collect();
        UncertainTable::new(tuples, rules).map_err(PdbError::Core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expression;
    use crate::value::DataType;

    fn road_table() -> PTable {
        let schema = Schema::default()
            .with("segment_id", DataType::Integer)
            .with("speed_limit", DataType::Float)
            .with("length", DataType::Float)
            .with("delay", DataType::Float);
        let mut t = PTable::new("area", schema);
        // Segment 1 has two mutually exclusive delay estimates.
        t.insert(
            vec![1.into(), 50.0.into(), 1000.0.into(), 120.0.into()],
            0.6,
            Some("seg-1"),
        )
        .unwrap();
        t.insert(
            vec![1.into(), 50.0.into(), 1000.0.into(), 300.0.into()],
            0.4,
            Some("seg-1"),
        )
        .unwrap();
        // Segment 2 has a single certain measurement.
        t.insert(
            vec![2.into(), 30.0.into(), 500.0.into(), 90.0.into()],
            1.0,
            Some("seg-2"),
        )
        .unwrap();
        t
    }

    #[test]
    fn insert_validates_probability_and_schema() {
        let mut t = road_table();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert!(t
            .insert(
                vec![3.into(), 1.0.into(), 1.0.into(), 1.0.into()],
                0.0,
                None
            )
            .is_err());
        assert!(t.insert(vec![3.into(), 1.0.into()], 0.5, None).is_err());
        assert_eq!(t.row(0).unwrap().probability, 0.6);
        assert!(t.row(99).is_none());
        assert_eq!(t.name(), "area");
        assert_eq!(t.schema().len(), 4);
    }

    #[test]
    fn group_masses_aggregate_per_key() {
        let t = road_table();
        let masses = t.group_masses();
        assert!((masses["seg-1"] - 1.0).abs() < 1e-12);
        assert!((masses["seg-2"] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn converts_to_an_uncertain_table_with_me_rules() {
        let t = road_table();
        let expr = parse_expression("speed_limit / (length / delay)").unwrap();
        let ut = t.to_uncertain_table(&expr).unwrap();
        assert_eq!(ut.len(), 3);
        // The two rows of segment 1 are mutually exclusive.
        let p0 = ut.position(0u64).unwrap();
        let p1 = ut.position(1u64).unwrap();
        assert_eq!(ut.group_index(p0), ut.group_index(p1));
        let p2 = ut.position(2u64).unwrap();
        assert_ne!(ut.group_index(p0), ut.group_index(p2));
        // Scores follow the congestion formula.
        let expected = 50.0 / (1000.0 / 120.0);
        assert!((ut.tuple(p0).score() - expected).abs() < 1e-9);
    }

    #[test]
    fn conversion_errors_are_reported() {
        let t = road_table();
        let missing = parse_expression("not_a_column * 2").unwrap();
        assert!(matches!(
            t.to_uncertain_table(&missing),
            Err(PdbError::UnknownColumn(_))
        ));
        let empty = PTable::new("empty", Schema::default().with("x", DataType::Float));
        let expr = parse_expression("x").unwrap();
        assert!(matches!(
            empty.to_uncertain_table(&expr),
            Err(PdbError::InvalidQuery(_))
        ));
    }

    #[test]
    fn overweight_groups_are_rejected_at_conversion() {
        let schema = Schema::default().with("x", DataType::Float);
        let mut t = PTable::new("bad", schema);
        t.insert(vec![1.0.into()], 0.7, Some("g")).unwrap();
        t.insert(vec![2.0.into()], 0.6, Some("g")).unwrap();
        let expr = parse_expression("x").unwrap();
        assert!(matches!(
            t.to_uncertain_table(&expr),
            Err(PdbError::Core(_))
        ));
    }
}
