//! Sharded serving and synchronous data-parallel SGD for the spg-CNN
//! workspace: the single-process [`spg_serve::Server`] and
//! [`spg_convnet::Trainer`] carried across replicas and ranks.
//!
//! Two distributed paths share one wire protocol ([`wire`]):
//!
//! - **Serving** ([`router`], [`shard`], [`hash`]): a consistent-hash
//!   shard router in front of N engine replicas — in-process
//!   [`spg_serve::Server`]s or shard processes over UDS/TCP — with
//!   per-shard bounded queues (`spg_serve` backpressure semantics),
//!   health-based eviction, and budgeted respawn. [`Router::start`]
//!   takes a [`ShardSpawner`] that starts one shard's backend; the
//!   router's restart loop calls it again after an eviction and drops
//!   the dead backend first.
//! - **Training** ([`allreduce`], [`train`]): synchronous data-parallel
//!   SGD — each rank calls `spg_convnet::Trainer`'s own loop — whose
//!   gradient all-reduce is a from-scratch chunked ring. The ring folds
//!   sample gradients in global sample order, so epoch losses are
//!   **bit-identical** to the single-process `Trainer` pool for any
//!   worker count, and mid-all-reduce faults replay deterministically
//!   from committed rank state. [`train_in_proc`] runs a whole ring of
//!   in-process ranks.
//!
//! # Example
//!
//! Two in-process shards, each a [`spg_serve::Server`] replica of one
//! shared network:
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//! use spg_cluster::{ClusterError, InProcShard, Router, RouterConfig, ShardBackend};
//! use spg_convnet::layer::FcLayer;
//! use spg_convnet::Network;
//! use spg_serve::{ServeConfig, Server};
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! let net = Arc::new(Network::new(vec![Box::new(FcLayer::new(4, 2, &mut rng))])?);
//! let spawner = Arc::new(move |_shard: usize| {
//!     let server = Server::start(Arc::clone(&net), &[], ServeConfig::default())
//!         .map_err(|e| ClusterError::Config { detail: e.to_string() })?;
//!     Ok(Box::new(InProcShard::new(server)) as Box<dyn ShardBackend>)
//! });
//! let router = Router::start(spawner, &RouterConfig { shards: 2, ..RouterConfig::default() })?;
//! let timeout = Duration::from_secs(5);
//! let reply = router.submit_timeout(b"user-42", vec![0.0; 4], timeout)?.wait()?;
//! assert!(reply.class < 2);
//! router.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Relation to `Engine`
//!
//! The single-process `Engine` paths are untouched; the cluster composes
//! them. A shard replica serves an engine's network
//! (`Engine::into_shared`), and cluster failures unify into
//! [`spg_error::Error`] under [`spg_error::ErrorKind::Cluster`] (the
//! workspace error crate stays upstream of every member crate, so the
//! unification runs through a `From` impl here rather than a variant
//! there).

#![warn(missing_docs)]

use std::time::Duration;

use spg_serve::ServeError;

pub mod allreduce;
pub mod hash;
pub mod router;
pub mod shard;
pub mod train;
pub mod wire;

pub use allreduce::{ring_allreduce, AllReduce, RingLink, SampleGrad};
pub use hash::HashRing;
pub use router::{
    InProcShard, PendingRoute, RemoteShard, RouteReply, Router, RouterConfig, ShardBackend,
    ShardError, ShardSpawner,
};
pub use shard::{serve_connection, ConnectionEnd, KillDrill};
pub use train::{
    run_rank, train_in_proc, InProcTrainOptions, RankOptions, TrainFault, DEFAULT_CHUNK_FLOATS,
};
pub use wire::{Message, WireError};

/// Typed failure modes of the cluster: routing, shard supervision, the
/// gradient all-reduce, and the wire protocol.
///
/// The serving-side variants mirror [`spg_serve::ServeError`] one for
/// one (see [`from_serve`](Self::from_serve)), so backpressure and
/// fault semantics survive the redesign unchanged.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ClusterError {
    /// Every shard is evicted; no key can route.
    NoShards,
    /// The owning shard's bounded queue was full: backpressure.
    Rejected {
        /// The queue capacity that was exhausted.
        capacity: usize,
    },
    /// The submission deadline passed while the queue stayed full.
    Timeout {
        /// How long the submitter waited.
        waited: Duration,
    },
    /// The router (or shard) is shutting down.
    ShuttingDown,
    /// The request input has the wrong length for the model.
    BadInput {
        /// Expected input activation count.
        expected: usize,
        /// Provided input activation count.
        actual: usize,
    },
    /// The router was torn down with the request in flight.
    Disconnected,
    /// A shard replica failed (worker fault inside the replica, or the
    /// shard process/connection died). `WorkerFault`-class: only
    /// requests in flight on that shard are affected.
    ShardFault {
        /// The shard that failed.
        shard: usize,
        /// Best-effort description.
        message: String,
    },
    /// A training rank's ring link failed mid-all-reduce (peer dropped,
    /// stream died, or an injected drill fired), or one of its sample
    /// slots faulted past its restart budget.
    RingFault {
        /// The rank reporting the fault.
        rank: usize,
        /// Epoch (1-based) of the faulted batch.
        epoch: usize,
        /// Batch index within the epoch.
        batch: usize,
        /// Best-effort description.
        message: String,
    },
    /// A peer violated the all-reduce sequence (wrong epoch/batch/chunk
    /// ordering) — a bug or version skew, not a transport fault.
    Protocol {
        /// The rank reporting the violation.
        rank: usize,
        /// What was out of sequence.
        detail: String,
    },
    /// The cluster configuration or topology is unusable.
    Config {
        /// What was wrong.
        detail: String,
    },
}

impl ClusterError {
    /// Maps a serve-side error observed on `shard` to its cluster
    /// counterpart, preserving `ServeError` semantics: backpressure
    /// stays backpressure, worker faults become
    /// [`ShardFault`](Self::ShardFault).
    pub fn from_serve(shard: usize, e: ServeError) -> ClusterError {
        match e {
            ServeError::Rejected { capacity } => ClusterError::Rejected { capacity },
            ServeError::Timeout { waited } => ClusterError::Timeout { waited },
            ServeError::ShuttingDown => ClusterError::ShuttingDown,
            ServeError::BadInput { expected, actual } => {
                ClusterError::BadInput { expected, actual }
            }
            ServeError::Disconnected => ClusterError::Disconnected,
            other => ClusterError::ShardFault { shard, message: other.to_string() },
        }
    }
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NoShards => write!(f, "no live shards to route to"),
            ClusterError::Rejected { capacity } => {
                write!(f, "request rejected: shard queue at capacity {capacity}")
            }
            ClusterError::Timeout { waited } => {
                write!(f, "request timed out after {waited:?} of backpressure")
            }
            ClusterError::ShuttingDown => write!(f, "cluster is shutting down"),
            ClusterError::BadInput { expected, actual } => {
                write!(f, "input has {actual} values, model expects {expected}")
            }
            ClusterError::Disconnected => write!(f, "cluster router disconnected"),
            ClusterError::ShardFault { shard, message } => {
                write!(f, "shard {shard} faulted: {message}")
            }
            ClusterError::RingFault { rank, epoch, batch, message } => {
                write!(f, "rank {rank} ring fault at epoch {epoch} batch {batch}: {message}")
            }
            ClusterError::Protocol { rank, detail } => {
                write!(f, "rank {rank} protocol violation: {detail}")
            }
            ClusterError::Config { detail } => write!(f, "cluster misconfigured: {detail}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<ClusterError> for spg_error::Error {
    fn from(e: ClusterError) -> Self {
        spg_error::Error::with_source(spg_error::ErrorKind::Cluster, e.to_string(), e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_error_unifies_under_the_cluster_kind() {
        let e = spg_error::Error::from(ClusterError::NoShards);
        assert_eq!(e.kind(), spg_error::ErrorKind::Cluster);
        assert_eq!(e.kind().as_str(), "cluster");
        let source = std::error::Error::source(&e).expect("source preserved");
        assert!(source.downcast_ref::<ClusterError>().is_some());
    }

    #[test]
    fn shard_backpressure_stays_backpressure() {
        let e = ClusterError::from_serve(1, ServeError::Rejected { capacity: 4 });
        assert!(matches!(e, ClusterError::Rejected { capacity: 4 }), "{e}");
    }
}
