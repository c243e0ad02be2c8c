use std::error::Error;
use std::fmt;

/// Error type for tensor construction and conversion operations.
///
/// # Example
///
/// ```
/// use spg_tensor::{Matrix, TensorError};
///
/// let err = Matrix::from_vec(2, 3, vec![0.0; 5]).unwrap_err();
/// assert!(matches!(err, TensorError::LengthMismatch { .. }));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TensorError {
    /// The provided buffer length does not match the requested shape.
    LengthMismatch {
        /// Number of elements the shape requires.
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// A tile width of zero was requested for a tiled sparse format.
    ZeroTileWidth,
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::LengthMismatch { expected, actual } => {
                write!(f, "buffer length {actual} does not match shape requiring {expected}")
            }
            TensorError::ZeroTileWidth => write!(f, "tile width must be positive"),
        }
    }
}

impl Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = TensorError::LengthMismatch { expected: 4, actual: 5 };
        let s = e.to_string();
        assert!(s.starts_with("buffer length"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
