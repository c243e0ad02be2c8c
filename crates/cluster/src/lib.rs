//! Sharded serving and synchronous data-parallel SGD for the spg-CNN
//! workspace, behind a [`Cluster`] facade mirroring
//! [`spg_convnet::Engine`].
//!
//! Two distributed paths share one wire protocol ([`wire`]):
//!
//! - **Serving** ([`router`], [`shard`], [`hash`]): a consistent-hash
//!   shard router in front of N engine replicas — in-process
//!   [`spg_serve::Server`]s or shard processes over UDS/TCP — with
//!   per-shard bounded queues (`spg_serve` backpressure semantics),
//!   health-based eviction, and budgeted respawn.
//! - **Training** ([`allreduce`], [`train`]): synchronous data-parallel
//!   SGD — each rank calls `spg_convnet::Trainer`'s own loop — whose
//!   gradient all-reduce is a from-scratch chunked ring. The ring folds
//!   sample gradients in global sample order, so epoch losses are
//!   **bit-identical** to the single-process `Trainer` pool for any
//!   worker count, and mid-all-reduce faults replay deterministically
//!   from committed rank state.
//!
//! # Example
//!
//! ```
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//! use spg_cluster::Cluster;
//! use spg_convnet::layer::FcLayer;
//! use spg_convnet::Network;
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! let net = Network::new(vec![Box::new(FcLayer::new(4, 2, &mut rng))])?;
//! let cluster = Cluster::builder().shards(2).network(net).build()?;
//! let router = cluster.serve()?;
//! let reply = router.try_submit(b"user-42", vec![0.0; 4])?.wait()?;
//! assert!(reply.class < 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Relation to `Engine`
//!
//! The single-process `Engine` paths are untouched; `Cluster` composes
//! them. [`IntoShard`] embeds an existing engine as a replica, and
//! cluster failures unify into [`spg_error::Error`] under
//! [`spg_error::ErrorKind::Cluster`] (the workspace error crate stays
//! upstream of every member crate, so the unification runs through a
//! `From` impl here rather than a variant there).

#![warn(missing_docs)]

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use spg_convnet::data::Dataset;
use spg_convnet::{Engine, EpochStats, Network, TrainerConfig};
use spg_serve::{ServeConfig, ServeError};

pub mod allreduce;
pub mod hash;
pub mod router;
pub mod shard;
pub mod train;
pub mod wire;

pub use allreduce::{ring_allreduce, AllReduce, BatchAcc, RingLink, SampleGrad};
pub use hash::HashRing;
pub use router::{
    InProcShard, PendingRoute, RemoteShard, RouteReply, Router, RouterConfig, ShardBackend,
    ShardError, ShardSpawner,
};
pub use shard::{serve_connection, ConnectionEnd, KillDrill};
pub use train::{
    block_bounds, run_rank, train_in_proc, Comm, InProcTrainOptions, RankOptions, RankState,
    TrainFault, DEFAULT_CHUNK_FLOATS,
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
    /// stream died, or an injected drill fired).
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
    /// A frame failed to encode, decode, or travel.
    Wire(WireError),
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
            ClusterError::Wire(e) => write!(f, "wire protocol error: {e}"),
            ClusterError::Config { detail } => write!(f, "cluster misconfigured: {detail}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for ClusterError {
    fn from(e: WireError) -> Self {
        ClusterError::Wire(e)
    }
}

impl From<ClusterError> for spg_error::Error {
    fn from(e: ClusterError) -> Self {
        spg_error::Error::with_source(spg_error::ErrorKind::Cluster, e.to_string(), e)
    }
}

/// How the cluster's shards and ranks are connected.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Transport {
    /// Everything in this process: shards are embedded
    /// [`spg_serve::Server`] replicas, training ranks are threads over
    /// socketpairs. The default.
    InProc,
    /// Shard processes listening on Unix domain sockets
    /// `<dir>/shard_<i>.sock`.
    Uds {
        /// Directory holding the shard sockets.
        dir: PathBuf,
    },
    /// Shard processes listening on loopback TCP ports
    /// `base_port + shard`.
    Tcp {
        /// Host to connect to (usually `127.0.0.1`).
        host: String,
        /// Port of shard 0; shard `i` listens on `base_port + i`.
        base_port: u16,
    },
}

/// Configuration for a [`Cluster`], mirroring the `Engine` builder's
/// shape.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of serving shards (and training ranks).
    pub shards: usize,
    /// Worker threads inside each shard replica.
    pub workers_per_shard: usize,
    /// Seed for the consistent-hash ring.
    pub hash_seed: u64,
    /// Virtual points per shard on the hash ring.
    pub vnodes: usize,
    /// Per-shard bounded queue capacity.
    pub queue_capacity: usize,
    /// Shard respawns (serving) or whole-cluster replays (training)
    /// allowed before a fault surfaces.
    pub restart_budget: usize,
    /// Base backoff before a respawn/replay; doubles per consecutive
    /// restart.
    pub restart_backoff: Duration,
    /// Shard/rank connectivity.
    pub transport: Transport,
    /// Floats per all-reduce wire chunk.
    pub chunk_floats: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 2,
            workers_per_shard: 1,
            hash_seed: 0x5b9c,
            vnodes: HashRing::DEFAULT_VNODES,
            queue_capacity: 64,
            restart_budget: 3,
            restart_backoff: Duration::from_millis(5),
            transport: Transport::InProc,
            chunk_floats: DEFAULT_CHUNK_FLOATS,
        }
    }
}

/// Embeds an existing model as a cluster shard replica.
///
/// Serving weights are immutable, so every in-process shard shares one
/// `Arc<Network>`; an [`Engine`] hands over its network without a copy.
pub trait IntoShard {
    /// The shared network the shards will serve.
    fn into_shard(self) -> Arc<Network>;
}

impl IntoShard for Engine {
    fn into_shard(self) -> Arc<Network> {
        self.into_shared()
    }
}

impl IntoShard for Network {
    fn into_shard(self) -> Arc<Network> {
        Arc::new(self)
    }
}

impl IntoShard for Arc<Network> {
    fn into_shard(self) -> Arc<Network> {
        self
    }
}

/// Deterministic network constructor used by training ranks; must build
/// the *same* initial network on every call.
pub type NetFactory = dyn Fn() -> Result<Network, spg_error::Error> + Send + Sync;

/// Builder for [`Cluster`], mirroring [`Engine::builder`].
pub struct ClusterBuilder {
    config: ClusterConfig,
    net: Option<Arc<Network>>,
    factory: Option<Arc<NetFactory>>,
}

impl ClusterBuilder {
    fn new() -> Self {
        ClusterBuilder { config: ClusterConfig::default(), net: None, factory: None }
    }

    /// Number of shards (serving) / ranks (training).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Worker threads inside each shard replica.
    #[must_use]
    pub fn workers_per_shard(mut self, workers: usize) -> Self {
        self.config.workers_per_shard = workers;
        self
    }

    /// Seed for the consistent-hash ring.
    #[must_use]
    pub fn hash_seed(mut self, seed: u64) -> Self {
        self.config.hash_seed = seed;
        self
    }

    /// Per-shard bounded queue capacity.
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Restart budget for shard respawns / training replays.
    #[must_use]
    pub fn restart_budget(mut self, budget: usize) -> Self {
        self.config.restart_budget = budget;
        self
    }

    /// Base restart backoff.
    #[must_use]
    pub fn restart_backoff(mut self, backoff: Duration) -> Self {
        self.config.restart_backoff = backoff;
        self
    }

    /// Shard/rank connectivity.
    #[must_use]
    pub fn transport(mut self, transport: Transport) -> Self {
        self.config.transport = transport;
        self
    }

    /// Floats per all-reduce wire chunk.
    #[must_use]
    pub fn chunk_floats(mut self, floats: usize) -> Self {
        self.config.chunk_floats = floats;
        self
    }

    /// The model the shards serve — a [`Network`], an `Arc<Network>`,
    /// or a whole [`Engine`] via [`IntoShard`].
    #[must_use]
    pub fn network(mut self, net: impl IntoShard) -> Self {
        self.net = Some(net.into_shard());
        self
    }

    /// Deterministic network factory for training ranks (each rank
    /// builds its own identical copy; weights never travel).
    #[must_use]
    pub fn factory(
        mut self,
        factory: impl Fn() -> Result<Network, spg_error::Error> + Send + Sync + 'static,
    ) -> Self {
        self.factory = Some(Arc::new(factory));
        self
    }

    /// Validates and builds the [`Cluster`].
    ///
    /// # Errors
    ///
    /// [`spg_error::ErrorKind::Cluster`] when the configuration is
    /// unusable (zero shards/workers/chunk size, or neither a network
    /// nor a factory was provided).
    pub fn build(self) -> Result<Cluster, spg_error::Error> {
        let bad = |detail: &str| {
            spg_error::Error::from(ClusterError::Config { detail: detail.to_string() })
        };
        if self.config.shards == 0 {
            return Err(bad("shard count must be positive"));
        }
        if self.config.workers_per_shard == 0 {
            return Err(bad("workers per shard must be positive"));
        }
        if self.config.queue_capacity == 0 {
            return Err(bad("queue capacity must be positive"));
        }
        if self.config.chunk_floats == 0 {
            return Err(bad("chunk size must be positive"));
        }
        if self.net.is_none() && self.factory.is_none() {
            return Err(bad("provide a network (serving) or a factory (training)"));
        }
        Ok(Cluster { config: self.config, net: self.net, factory: self.factory })
    }
}

/// The cluster facade: shard-routed serving and synchronous
/// data-parallel training over one configuration, mirroring the
/// single-process [`Engine`]'s serve/train surface.
pub struct Cluster {
    config: ClusterConfig,
    net: Option<Arc<Network>>,
    factory: Option<Arc<NetFactory>>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("config", &self.config)
            .field("net", &self.net.is_some())
            .field("factory", &self.factory.is_some())
            .finish()
    }
}

impl Cluster {
    /// Starts building a cluster.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::new()
    }

    /// The configuration in use.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The shared network, materializing it from the factory if only a
    /// factory was provided.
    fn shared_net(&self) -> Result<Arc<Network>, spg_error::Error> {
        if let Some(net) = &self.net {
            return Ok(Arc::clone(net));
        }
        let factory = self.factory.as_ref().expect("build() enforced net or factory");
        Ok(Arc::new(factory()?))
    }

    /// Starts the shard router serving `shards` replicas of the model
    /// over the configured transport. Remote transports expect the
    /// shard processes to already be listening (the `spgcnn
    /// serve-cluster` command orchestrates them); replicas use the
    /// heuristic per-layer plans.
    ///
    /// # Errors
    ///
    /// Shard spawn/connect failures, surfaced under
    /// [`spg_error::ErrorKind::Cluster`].
    pub fn serve(&self) -> Result<Router, spg_error::Error> {
        let router_config = RouterConfig {
            shards: self.config.shards,
            queue_capacity: self.config.queue_capacity,
            hash_seed: self.config.hash_seed,
            vnodes: self.config.vnodes,
            restart_budget: self.config.restart_budget,
            restart_backoff: self.config.restart_backoff,
        };
        let spawner: Arc<dyn ShardSpawner> = match &self.config.transport {
            Transport::InProc => {
                let net = self.shared_net()?;
                // Replicas compile the same heuristic cores = 1 forward
                // plans the single-process `spgcnn serve` path uses, so
                // replies stay bit-identical to a planned Engine's
                // forward pass.
                let framework = spg_core::autotune::Framework::new(
                    1,
                    spg_core::autotune::TuningMode::Heuristic,
                    1,
                );
                let plans: Vec<(usize, spg_core::schedule::LayerPlan)> = net
                    .layers()
                    .iter()
                    .enumerate()
                    .filter_map(|(i, layer)| {
                        layer.conv_spec().map(|spec| {
                            (
                                i,
                                spg_core::schedule::LayerPlan {
                                    forward: framework.plan_layer_forward(spec),
                                    backward: spg_core::schedule::recommended_plan(spec, 0.0, 1)
                                        .backward,
                                },
                            )
                        })
                    })
                    .collect();
                let serve_config = ServeConfig {
                    workers: self.config.workers_per_shard,
                    queue_capacity: self.config.queue_capacity,
                    restart_budget: self.config.restart_budget,
                    restart_backoff: self.config.restart_backoff,
                    ..ServeConfig::default()
                };
                Arc::new(move |_shard: usize| {
                    let server =
                        spg_serve::Server::start(Arc::clone(&net), &plans, serve_config.clone())
                            .map_err(|e| ClusterError::Config { detail: e.to_string() })?;
                    Ok(Box::new(InProcShard::new(server)) as Box<dyn ShardBackend>)
                })
            }
            Transport::Uds { dir } => {
                let dir = dir.clone();
                Arc::new(move |shard: usize| {
                    let path = dir.join(format!("shard_{shard}.sock"));
                    let stream =
                        connect_with_retry(|| std::os::unix::net::UnixStream::connect(&path))
                            .map_err(|e| ClusterError::ShardFault {
                                shard,
                                message: format!("connecting {}: {e}", path.display()),
                            })?;
                    Ok(Box::new(RemoteShard::new(stream)) as Box<dyn ShardBackend>)
                })
            }
            Transport::Tcp { host, base_port } => {
                let host = host.clone();
                let base_port = *base_port;
                Arc::new(move |shard: usize| {
                    let port = base_port + u16::try_from(shard).unwrap_or(u16::MAX - base_port);
                    let stream =
                        connect_with_retry(|| std::net::TcpStream::connect((host.as_str(), port)))
                            .map_err(|e| ClusterError::ShardFault {
                                shard,
                                message: format!("connecting {host}:{port}: {e}"),
                            })?;
                    stream.set_nodelay(true).ok();
                    Ok(Box::new(RemoteShard::new(stream)) as Box<dyn ShardBackend>)
                })
            }
        };
        Router::start(spawner, &router_config).map_err(spg_error::Error::from)
    }

    /// Runs synchronous data-parallel SGD over `shards` ranks with the
    /// ordered ring all-reduce; epoch losses are bit-identical to
    /// [`spg_convnet::Trainer`] on the same seed (pinned by tests).
    ///
    /// Requires a [`factory`](ClusterBuilder::factory) and the
    /// [`Transport::InProc`] transport — multi-process training rings
    /// are orchestrated by the `spgcnn train-cluster` command over the
    /// same [`train`] building blocks.
    ///
    /// # Errors
    ///
    /// Typed cluster faults once the replay budget is spent, under
    /// [`spg_error::ErrorKind::Cluster`].
    pub fn train(
        &self,
        data: &Dataset,
        trainer: &TrainerConfig,
    ) -> Result<Vec<EpochStats>, spg_error::Error> {
        let Some(factory) = &self.factory else {
            return Err(ClusterError::Config {
                detail: "training needs a deterministic network factory".to_string(),
            }
            .into());
        };
        if !matches!(self.config.transport, Transport::InProc) {
            return Err(ClusterError::Config {
                detail: "Cluster::train is in-process; use `spgcnn train-cluster` for \
                         multi-process rings"
                    .to_string(),
            }
            .into());
        }
        let opts = InProcTrainOptions {
            world: self.config.shards,
            algo: AllReduce::Ring,
            chunk_floats: self.config.chunk_floats,
            restart_budget: self.config.restart_budget,
            restart_backoff: self.config.restart_backoff,
            fault: None,
        };
        train_in_proc(&**factory, data, trainer, &opts).map_err(spg_error::Error::from)
    }
}

/// Retries a connect for a few seconds (shard processes take a moment
/// to bind their listeners).
fn connect_with_retry<S>(mut connect: impl FnMut() -> std::io::Result<S>) -> std::io::Result<S> {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match connect() {
            Ok(s) => return Ok(s),
            Err(e) if std::time::Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spg_convnet::layer::FcLayer;

    fn tiny_net() -> Network {
        let mut rng = SmallRng::seed_from_u64(7);
        Network::new(vec![Box::new(FcLayer::new(4, 3, &mut rng))]).unwrap()
    }

    #[test]
    fn builder_validates_the_configuration() {
        let err = Cluster::builder().shards(0).network(tiny_net()).build().unwrap_err();
        assert_eq!(err.kind(), spg_error::ErrorKind::Cluster);
        let err = Cluster::builder().build().unwrap_err();
        assert_eq!(err.kind(), spg_error::ErrorKind::Cluster);
    }

    /// A default `Cluster::builder()` parent must be able to ring with a
    /// default `train_in_proc` / `cluster-rank` peer: ranks that disagree
    /// on the chunk size fail the all-reduce with a `Protocol` error.
    #[test]
    fn every_default_names_one_chunk_size() {
        assert_eq!(
            ClusterConfig::default().chunk_floats,
            InProcTrainOptions::default().chunk_floats
        );
    }

    #[test]
    fn engine_embeds_as_a_shard() {
        let engine = Engine::builder().network(tiny_net()).build().unwrap();
        let cluster = Cluster::builder().shards(2).network(engine).build().unwrap();
        let router = cluster.serve().unwrap();
        let reply = router.try_submit(b"k", vec![0.5; 4]).unwrap().wait().unwrap();
        assert_eq!(reply.logits.len(), 3);
        router.shutdown();
    }

    #[test]
    fn in_proc_cluster_serves_across_shards() {
        let cluster =
            Cluster::builder().shards(3).hash_seed(9).network(tiny_net()).build().unwrap();
        let router = cluster.serve().unwrap();
        let mut shards_seen = std::collections::HashSet::new();
        for i in 0..60 {
            let key = format!("key-{i}");
            let reply = router.try_submit(key.as_bytes(), vec![0.1; 4]).unwrap();
            shards_seen.insert(reply.wait().unwrap().shard);
        }
        assert!(shards_seen.len() > 1, "keys spread over shards: {shards_seen:?}");
        router.shutdown();
    }

    #[test]
    fn serve_errors_keep_their_semantics_through_the_facade() {
        let cluster = Cluster::builder().shards(1).network(tiny_net()).build().unwrap();
        let router = cluster.serve().unwrap();
        let err = router.try_submit(b"k", vec![1.0]).unwrap().wait().unwrap_err();
        assert!(matches!(err, ClusterError::BadInput { expected: 4, actual: 1 }), "got {err:?}");
        router.shutdown();
    }

    #[test]
    fn cluster_error_unifies_under_the_cluster_kind() {
        let e = spg_error::Error::from(ClusterError::NoShards);
        assert_eq!(e.kind(), spg_error::ErrorKind::Cluster);
        assert_eq!(e.kind().as_str(), "cluster");
        let source = std::error::Error::source(&e).expect("source preserved");
        assert!(source.downcast_ref::<ClusterError>().is_some());
    }
}
