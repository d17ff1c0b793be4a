//! Error type of the probabilistic-database layer.

use std::fmt;

/// Errors raised while defining schemas, evaluating expressions, parsing CSV
/// input or executing queries.
#[derive(Debug, Clone, PartialEq)]
pub enum PdbError {
    /// A column name was not found in the schema.
    UnknownColumn(String),
    /// A value had the wrong type for the requested operation.
    TypeMismatch {
        /// What the operation expected.
        expected: String,
        /// What it found.
        found: String,
        /// Where the mismatch occurred.
        context: String,
    },
    /// A scoring expression could not be parsed.
    ParseError {
        /// Byte offset of the error in the input.
        position: usize,
        /// Description of what went wrong.
        message: String,
    },
    /// Division by zero (or by a value indistinguishable from zero) during
    /// expression evaluation.
    DivisionByZero,
    /// A row did not match the table schema.
    SchemaMismatch(String),
    /// A malformed CSV input.
    CsvError {
        /// 1-based line number.
        line: usize,
        /// Description of what went wrong.
        message: String,
    },
    /// The requested query was invalid (empty table, bad parameters, …).
    InvalidQuery(String),
    /// An I/O failure while reading input or spilling external-sort runs.
    Io(String),
    /// An error bubbled up from the underlying top-k machinery.
    Core(ttk_uncertain::Error),
}

impl fmt::Display for PdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PdbError::UnknownColumn(name) => write!(f, "unknown column `{name}`"),
            PdbError::TypeMismatch {
                expected,
                found,
                context,
            } => write!(
                f,
                "type mismatch in {context}: expected {expected}, found {found}"
            ),
            PdbError::ParseError { position, message } => {
                write!(f, "parse error at byte {position}: {message}")
            }
            PdbError::DivisionByZero => write!(f, "division by zero"),
            PdbError::SchemaMismatch(msg) => write!(f, "row does not match schema: {msg}"),
            PdbError::CsvError { line, message } => {
                write!(f, "CSV error on line {line}: {message}")
            }
            PdbError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            PdbError::Io(msg) => write!(f, "I/O error: {msg}"),
            PdbError::Core(e) => write!(f, "top-k engine error: {e}"),
        }
    }
}

impl std::error::Error for PdbError {}

impl From<ttk_uncertain::Error> for PdbError {
    fn from(e: ttk_uncertain::Error) -> Self {
        PdbError::Core(e)
    }
}

impl From<std::io::Error> for PdbError {
    fn from(e: std::io::Error) -> Self {
        PdbError::Io(e.to_string())
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, PdbError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(PdbError::UnknownColumn("delay".into())
            .to_string()
            .contains("delay"));
        assert!(PdbError::CsvError {
            line: 4,
            message: "too few fields".into()
        }
        .to_string()
        .contains("line 4"));
        let wrapped: PdbError = ttk_uncertain::Error::InvalidParameter("k".into()).into();
        assert!(wrapped.to_string().contains("top-k engine"));
    }
}
