//! Error type for temporal operations.

use std::fmt;

use crate::point::TimePoint;

/// Errors raised by interval construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemporalError {
    /// An interval was requested with `start > end`.
    EmptyInterval { start: TimePoint, end: TimePoint },
}

impl fmt::Display for TemporalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemporalError::EmptyInterval { start, end } => {
                write!(f, "empty interval: start {start} is after end {end}")
            }
        }
    }
}

impl std::error::Error for TemporalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = TemporalError::EmptyInterval {
            start: TimePoint(5),
            end: TimePoint(3),
        };
        assert!(e.to_string().contains("empty interval"));
    }
}
