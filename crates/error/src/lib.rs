//! Unified error type for the spg-CNN workspace.
//!
//! Every crate in the workspace keeps its own precise error enum
//! (`spg_convnet::ConvError`, `spg_core::SpgError`, `spg_gemm::GemmError`,
//! `spg_serve::ServeError`), because kernels and parsers want exact,
//! matchable variants. Public entry points — the `spg_convnet::Engine`
//! facade and the serving front end — surface this single [`Error`]
//! instead, so callers handle one type with a stable [`ErrorKind`]
//! classification and walk the original error through
//! [`std::error::Error::source`].
//!
//! The crate is dependency-free; the member crates depend on it and
//! provide their own `From<TheirError> for spg_error::Error` impls, which
//! keeps the dependency graph acyclic.
//!
//! # Example
//!
//! ```
//! use spg_error::{Error, ErrorKind};
//!
//! let e = Error::new(ErrorKind::InvalidNetwork, "layer 2 expects 64 inputs");
//! assert_eq!(e.kind(), ErrorKind::InvalidNetwork);
//! assert!(e.to_string().contains("layer 2"));
//! ```

#![warn(missing_docs)]

use std::error::Error as StdError;
use std::fmt;

/// Broad classification of an [`Error`].
///
/// Non-exhaustive: new kinds may be added as the workspace grows, so
/// downstream matches must carry a wildcard arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorKind {
    /// A convolution spec or layer geometry is invalid.
    InvalidSpec,
    /// A network failed structural validation (layer chaining, weight
    /// lengths, missing sections).
    InvalidNetwork,
    /// A textual description failed to parse.
    Parse,
    /// A GEMM shape or schedule was rejected.
    Gemm,
    /// Autotuning could not produce a plan.
    Tuning,
    /// The serving engine rejected or failed a request.
    Serving,
    /// A training run failed (e.g. a worker crashed past its restart
    /// budget).
    Training,
    /// A cluster operation failed (shard routing, the gradient
    /// all-reduce, or the cluster wire protocol).
    Cluster,
    /// An I/O operation failed (weight files, metrics documents).
    Io,
    /// Anything not covered by a more specific kind.
    Other,
}

impl ErrorKind {
    /// Stable lower-kebab name, usable in logs and metrics labels.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::InvalidSpec => "invalid-spec",
            ErrorKind::InvalidNetwork => "invalid-network",
            ErrorKind::Parse => "parse",
            ErrorKind::Gemm => "gemm",
            ErrorKind::Tuning => "tuning",
            ErrorKind::Serving => "serving",
            ErrorKind::Training => "training",
            ErrorKind::Cluster => "cluster",
            ErrorKind::Io => "io",
            ErrorKind::Other => "other",
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The unified workspace error: a kind, a human-readable message, and an
/// optional boxed source preserving the originating crate's precise enum.
#[derive(Debug)]
pub struct Error {
    kind: ErrorKind,
    message: String,
    source: Option<Box<dyn StdError + Send + Sync + 'static>>,
}

impl Error {
    /// Creates an error with no source.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        Error { kind, message: message.into(), source: None }
    }

    /// Creates an error wrapping `source`; the source stays reachable
    /// through [`std::error::Error::source`] for callers that need the
    /// precise originating variant.
    pub fn with_source(
        kind: ErrorKind,
        message: impl Into<String>,
        source: impl StdError + Send + Sync + 'static,
    ) -> Self {
        Error { kind, message: message.into(), source: Some(Box::new(source)) }
    }

    /// The broad classification.
    // lint: allow(test-only) tests check which subsystem a unified error names
    pub fn kind(&self) -> ErrorKind {
        self.kind
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

impl StdError for Error {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        self.source.as_deref().map(|s| s as &(dyn StdError + 'static))
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::with_source(ErrorKind::Io, e.to_string(), e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Inner;
    impl fmt::Display for Inner {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("inner detail")
        }
    }
    impl StdError for Inner {}

    #[test]
    fn display_includes_kind_and_message() {
        let e = Error::new(ErrorKind::Parse, "bad token");
        assert_eq!(e.to_string(), "parse: bad token");
    }

    #[test]
    fn source_chain_is_walkable() {
        let e = Error::with_source(ErrorKind::Serving, "request failed", Inner);
        let src = e.source().expect("source present");
        assert_eq!(src.to_string(), "inner detail");
        assert!(Error::new(ErrorKind::Other, "x").source().is_none());
    }

    #[test]
    fn io_errors_convert() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let e: Error = io.into();
        assert_eq!(e.kind(), ErrorKind::Io);
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
