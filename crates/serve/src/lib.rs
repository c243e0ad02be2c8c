//! Batched inference serving for spg-CNN models.
//!
//! The paper's central scalability argument — run many independent
//! single-threaded kernels (GEMM-in-Parallel, Sec. 4.1) instead of one
//! multi-threaded kernel, preserving per-core arithmetic intensity —
//! applies directly to inference serving. This crate is that analogue:
//!
//! * single-sample requests land on a bounded MPMC [`queue`];
//! * each persistent worker pops a request and gathers a dynamic
//!   micro-batch (up to `max_batch` requests or `max_delay` of waiting);
//! * every worker owns one warm one-sample
//!   [`SampleTrace`](spg_convnet::SampleTrace) and
//!   [`ConvScratch`](spg_convnet::workspace::ConvScratch) and runs each
//!   request through the network's own forward walk
//!   ([`Network::forward_sample`](spg_convnet::Network::forward_sample))
//!   at a core budget of one — the executors the autotuner installed on
//!   the shared network, with no second compiled copy of any layer — so
//!   the steady-state request path allocates nothing and pays no
//!   weight-transform cost;
//! * a full queue *rejects* ([`ServeError::Rejected`] /
//!   [`ServeError::Timeout`]) instead of buffering unbounded work, and
//!   shutdown drains every accepted request before the workers exit.
//!
//! Per-request latency and per-batch histograms are recorded through
//! `spg_telemetry` (`serve.request` / `serve.batch` labels). Each
//! worker's wall time accumulates under its `serve-worker{i}` scope; the
//! kernels' flops land in the walk's per-layer forward scopes (`conv0`,
//! `relu1`, ...), as in every other forward.
//!
//! Workers are *supervised*: a panic inside a micro-batch fails only that
//! batch (its requests get [`ServeError::WorkerFault`]) and the worker
//! restarts with fresh scratch up to a configurable restart budget —
//! see the [`server`](ServeConfig) docs, and [`ServeConfig::fault_plan`]
//! for the deterministic crash drill. The
//! `serve.worker_restarts` / `serve.faulted_batches` counters surface the
//! pool's fault history in the metrics document.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use spg_convnet::{ConvSpec, Engine};
//! use spg_serve::{ServeConfig, Server};
//!
//! let spec = ConvSpec::new(1, 8, 8, 4, 3, 3, 1, 1)?;
//! let engine = Engine::builder().spec(spec).seed(1).build()?;
//! let input_len = engine.network().input_len();
//! let net = engine.into_shared();
//!
//! let server = Server::start(Arc::clone(&net), &[], ServeConfig::default())?;
//! let pending = server.try_submit(vec![0.5; input_len]).expect("queue has room");
//! let response = pending.wait().expect("server alive");
//! assert!(response.class < net.output_len());
//! server.shutdown();
//! # Ok::<(), spg_error::Error>(())
//! ```

#![warn(missing_docs)]

pub mod queue;
mod server;
pub(crate) mod sync_prims;

pub use queue::{BoundedQueue, PushError};
pub use server::{PendingResponse, Response, ServeConfig, ServeError, Server};
pub use spg_sync::{FaultInjector, FaultPlan, ANY_WORKER};
