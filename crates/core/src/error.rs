use std::error::Error;
use std::fmt;

/// Error type for the spg-CNN framework.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpgError {
    /// A network description failed to parse.
    Parse {
        /// 1-based line of the offending token.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The parsed network is structurally invalid.
    InvalidNetwork {
        /// What went wrong.
        message: String,
    },
    /// The plan-time verifier rejected a candidate execution plan.
    PlanRejected {
        /// Technique id of the rejected candidate.
        technique: &'static str,
        /// The verifier's proof obligation that failed.
        check: spg_check::CheckError,
    },
}

impl fmt::Display for SpgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpgError::Parse { line, message } => write!(f, "parse error on line {line}: {message}"),
            SpgError::InvalidNetwork { message } => write!(f, "invalid network: {message}"),
            SpgError::PlanRejected { technique, check } => {
                write!(f, "plan rejected by static verifier: {technique}: {check}")
            }
        }
    }
}

impl Error for SpgError {}

impl From<SpgError> for spg_error::Error {
    fn from(e: SpgError) -> Self {
        let kind = match e {
            SpgError::Parse { .. } => spg_error::ErrorKind::Parse,
            SpgError::InvalidNetwork { .. } => spg_error::ErrorKind::InvalidNetwork,
            SpgError::PlanRejected { .. } => spg_error::ErrorKind::Tuning,
        };
        spg_error::Error::with_source(kind, e.to_string(), e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_line() {
        let e = SpgError::Parse { line: 3, message: "unexpected token".into() };
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SpgError>();
    }
}
