use std::error::Error;
use std::fmt;

/// Error type for convolution-spec and network construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConvError {
    /// A spec dimension was zero.
    ZeroDimension {
        /// Name of the offending dimension.
        dim: &'static str,
    },
    /// The kernel does not fit inside the input even once.
    KernelTooLarge {
        /// Input extent along the offending axis.
        input: usize,
        /// Kernel extent along the offending axis.
        kernel: usize,
    },
    /// Adjacent layers disagree about activation geometry.
    LayerMismatch {
        /// Index of the layer whose input did not match.
        layer: usize,
        /// Activation length produced by the previous layer.
        produced: usize,
        /// Activation length the layer expects.
        expected: usize,
    },
    /// The network has no layers or no loss configured.
    EmptyNetwork,
}

impl fmt::Display for ConvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvError::ZeroDimension { dim } => write!(f, "dimension `{dim}` must be positive"),
            ConvError::KernelTooLarge { input, kernel } => {
                write!(f, "kernel extent {kernel} exceeds input extent {input}")
            }
            ConvError::LayerMismatch { layer, produced, expected } => write!(
                f,
                "layer {layer} expects {expected} input activations but receives {produced}"
            ),
            ConvError::EmptyNetwork => write!(f, "network must contain at least one layer"),
        }
    }
}

impl Error for ConvError {}

/// Error type for a supervised training run.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TrainError {
    /// A sample panicked and its sample thread's restart budget was
    /// already spent, so the epoch could not complete.
    WorkerFault {
        /// Index of the sample thread (slot) whose block held the sample.
        worker: usize,
        /// 1-based epoch the fault occurred in.
        epoch: usize,
        /// 0-based batch within the epoch.
        batch: usize,
        /// The panic message, best effort.
        message: String,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::WorkerFault { worker, epoch, batch, message } => write!(
                f,
                "training worker {worker} crashed in epoch {epoch}, batch {batch}, \
                 with restart budget exhausted: {message}"
            ),
        }
    }
}

impl Error for TrainError {}

impl From<TrainError> for spg_error::Error {
    fn from(e: TrainError) -> Self {
        spg_error::Error::with_source(spg_error::ErrorKind::Training, e.to_string(), e)
    }
}

impl From<ConvError> for spg_error::Error {
    fn from(e: ConvError) -> Self {
        let kind = match e {
            ConvError::ZeroDimension { .. } | ConvError::KernelTooLarge { .. } => {
                spg_error::ErrorKind::InvalidSpec
            }
            ConvError::LayerMismatch { .. } | ConvError::EmptyNetwork => {
                spg_error::ErrorKind::InvalidNetwork
            }
        };
        spg_error::Error::with_source(kind, e.to_string(), e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(ConvError::ZeroDimension { dim: "f" }.to_string().contains("`f`"));
        assert!(ConvError::KernelTooLarge { input: 3, kernel: 5 }.to_string().contains('5'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConvError>();
        assert_send_sync::<TrainError>();
    }

    #[test]
    fn train_error_converts_to_unified_error() {
        let e =
            TrainError::WorkerFault { worker: 2, epoch: 1, batch: 4, message: "boom".to_string() };
        assert!(e.to_string().contains("worker 2"));
        let unified: spg_error::Error = e.into();
        assert_eq!(unified.kind(), spg_error::ErrorKind::Training);
        assert!(std::error::Error::source(&unified).is_some());
    }
}
