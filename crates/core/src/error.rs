//! TeCoRe pipeline errors.

use std::fmt;

use tecore_ground::SolveError;
use tecore_kg::KgError;
use tecore_logic::LogicError;
use tecore_wal::WalError;

/// Errors of the end-to-end pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum TecoreError {
    /// Rule/constraint language error (parse or validation).
    Logic(LogicError),
    /// Graph/data error.
    Kg(KgError),
    /// A MAP backend failed (see `tecore_ground::SolveError`).
    Solve(SolveError),
    /// A request the API cannot map to an outcome: an unknown backend
    /// name (the registry), or an edit batch that reported no outcome
    /// (`Engine`, `tecore-stream`).
    Session(String),
    /// The durability layer failed (see `tecore_wal::WalError`). The
    /// in-memory engine is still consistent, but edits were refused.
    Wal(WalError),
}

impl fmt::Display for TecoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TecoreError::Logic(e) => write!(f, "logic error: {e}"),
            TecoreError::Kg(e) => write!(f, "knowledge-graph error: {e}"),
            TecoreError::Solve(e) => write!(f, "solver error: {e}"),
            TecoreError::Session(msg) => write!(f, "session error: {msg}"),
            TecoreError::Wal(e) => write!(f, "wal error: {e}"),
        }
    }
}

impl std::error::Error for TecoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TecoreError::Logic(e) => Some(e),
            TecoreError::Kg(e) => Some(e),
            TecoreError::Solve(e) => Some(e),
            TecoreError::Session(_) => None,
            TecoreError::Wal(e) => Some(e),
        }
    }
}

impl From<LogicError> for TecoreError {
    fn from(e: LogicError) -> Self {
        TecoreError::Logic(e)
    }
}

impl From<KgError> for TecoreError {
    fn from(e: KgError) -> Self {
        TecoreError::Kg(e)
    }
}

impl From<SolveError> for TecoreError {
    fn from(e: SolveError) -> Self {
        TecoreError::Solve(e)
    }
}

impl From<WalError> for TecoreError {
    fn from(e: WalError) -> Self {
        TecoreError::Wal(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        use std::error::Error;
        let e: TecoreError = LogicError::Validation {
            formula: Some("c1".into()),
            message: "bad".into(),
        }
        .into();
        assert!(e.to_string().contains("logic error"));
        assert!(e.source().is_some());

        let e: TecoreError = KgError::InvalidConfidence(2.0).into();
        assert!(e.to_string().contains("knowledge-graph"));

        let e = TecoreError::Session("unknown backend `x`".into());
        assert!(e.to_string().contains("unknown backend"));
        assert!(e.source().is_none());
    }
}
