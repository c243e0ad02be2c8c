//! The micro-batching serving engine.
//!
//! Requests enter on a bounded MPMC queue; each of `workers` persistent
//! threads pops a request, gathers more until `max_batch` or `max_delay`
//! elapses, then runs the whole micro-batch through its own warm
//! single-threaded kernels — the serving analogue of GEMM-in-Parallel:
//! instead of one multi-threaded kernel per request, many independent
//! single-threaded pipelines preserve per-core arithmetic intensity.
//!
//! # Fault isolation & supervision
//!
//! Each worker thread is its own supervisor: one [`spg_sync::supervise`]
//! call around the worker loop. The loop runs every micro-batch inside
//! [`std::panic::catch_unwind`]: a panicking kernel fails only that
//! batch — its requests get a typed [`ServeError::WorkerFault`] reply —
//! and ends the incarnation; the next one starts with a fresh
//! [`ConvScratch`] and fresh activation buffers, up to
//! [`ServeConfig::restart_budget`] restarts with exponential backoff.
//! The compiled kernels are immutable (`forward_scratch` takes `&self`),
//! so they are compiled once in [`Server::start`] and shared by every
//! worker and incarnation; only what a panic can leave torn is rebuilt.
//! Lock handling everywhere in this crate recovers from poisoning (see
//! [`spg_sync`]), so one crash never cascades into process-wide aborts.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spg_convnet::workspace::ConvScratch;
use spg_convnet::Network;
use spg_core::backend::{Backend, ConvDescriptor, CpuBackend};
use spg_core::compiled::CompiledConv;
use spg_core::schedule::{recommended_plan, LayerPlan};
use spg_sync::{deadline_after, FaultInjector, FaultPlan, Restarts};

use crate::queue::{BoundedQueue, PushError};

/// Configuration for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads, each owning warm per-layer kernels and scratch.
    pub workers: usize,
    /// Maximum requests per micro-batch.
    pub max_batch: usize,
    /// How long a worker waits to fill a micro-batch after its first
    /// request arrives. `0` serves every request in its own batch.
    pub max_delay: Duration,
    /// Bounded request-queue capacity; pushes beyond it are rejected.
    pub queue_capacity: usize,
    /// How many times a crashed worker is respawned before its thread
    /// retires. The budget is per worker slot, not global.
    pub restart_budget: usize,
    /// Base delay before the first respawn; doubles per consecutive
    /// restart of the same worker (capped at one second).
    pub restart_backoff: Duration,
    /// Deterministic fault to inject for supervision testing. Inert
    /// unless the `fault-injection` cargo feature is enabled.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            max_batch: 8,
            max_delay: Duration::from_millis(2),
            queue_capacity: 64,
            restart_budget: 3,
            restart_backoff: Duration::from_millis(5),
            fault_plan: None,
        }
    }
}

/// Typed failure modes of the serving front end.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// The bounded queue was full: backpressure, try again later.
    Rejected {
        /// The queue capacity that was exhausted.
        capacity: usize,
    },
    /// The submission deadline passed while the queue stayed full.
    Timeout {
        /// How long the submitter waited.
        waited: Duration,
    },
    /// The server is shutting down and accepts no new requests.
    ShuttingDown,
    /// The request input has the wrong length for the model.
    BadInput {
        /// Expected input activation count.
        expected: usize,
        /// Provided input activation count.
        actual: usize,
    },
    /// The worker processing the request disappeared (server dropped
    /// while the request was in flight).
    Disconnected,
    /// The worker panicked while executing this request's micro-batch.
    /// Only the requests in that batch fail; the worker is respawned
    /// (within its restart budget) and later requests are unaffected.
    WorkerFault {
        /// Index of the worker that crashed.
        worker: usize,
        /// 1-based micro-batch index within that worker's incarnation.
        batch: u64,
        /// The panic message, best effort.
        message: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected { capacity } => {
                write!(f, "request rejected: queue at capacity {capacity}")
            }
            ServeError::Timeout { waited } => {
                write!(f, "request timed out after {waited:?} of backpressure")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::BadInput { expected, actual } => {
                write!(f, "input has {actual} values, model expects {expected}")
            }
            ServeError::Disconnected => write!(f, "serving worker disconnected"),
            ServeError::WorkerFault { worker, batch, message } => {
                write!(f, "worker {worker} panicked on micro-batch {batch}: {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ServeError> for spg_error::Error {
    fn from(e: ServeError) -> Self {
        spg_error::Error::with_source(spg_error::ErrorKind::Serving, e.to_string(), e)
    }
}

/// A completed classification.
#[derive(Debug, Clone)]
pub struct Response {
    /// Raw network outputs.
    pub logits: Vec<f32>,
    /// Argmax of the logits (same tie-breaking as
    /// [`Network::predict`](spg_convnet::Network::predict)).
    pub class: usize,
    /// Submit-to-completion wall time.
    pub latency: Duration,
    /// Index of the worker that served the request.
    pub worker: usize,
    /// Size of the micro-batch the request rode in.
    pub batch_size: usize,
}

/// One queued request.
struct Request {
    input: Vec<f32>,
    submitted: Instant,
    reply: mpsc::SyncSender<Result<Response, ServeError>>,
}

/// Handle to a submitted request; redeem with [`wait`](Self::wait).
#[derive(Debug)]
pub struct PendingResponse {
    rx: mpsc::Receiver<Result<Response, ServeError>>,
}

impl PendingResponse {
    /// Blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerFault`] if the worker panicked while running
    /// this request's micro-batch, [`ServeError::Disconnected`] if the
    /// server was torn down before the request completed.
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().map_err(|_| ServeError::Disconnected)?
    }
}

/// Shared restart/fault counters for one server's worker pool.
#[derive(Debug, Default)]
struct PoolStats {
    restarts: spg_sync::ProgressCounter,
    faulted_batches: AtomicU64,
}

/// The batched inference server: a bounded request queue feeding a pool
/// of persistent workers, each owning one warm [`ConvScratch`] and sharing
/// one compiled kernel per convolution layer.
///
/// Dropping the server performs the same graceful shutdown as
/// [`shutdown`](Self::shutdown): the queue closes, in-flight and queued
/// requests drain, then the workers exit.
pub struct Server {
    queue: Arc<BoundedQueue<Request>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    input_len: usize,
    stats: Arc<PoolStats>,
}

impl Server {
    /// Starts `config.workers` worker threads serving `net`.
    ///
    /// `plans` maps convolution-layer indices to their autotuned
    /// [`LayerPlan`]s (as returned by
    /// `Framework::plan_network_forward`); conv layers without an entry
    /// fall back to the paper's heuristic plan. One single-threaded
    /// [`CompiledConv`] per conv layer is compiled here and shared by every
    /// worker — weight transforms are paid once per server, never per
    /// worker, respawn or request.
    ///
    /// # Errors
    ///
    /// Returns [`spg_error::ErrorKind::InvalidNetwork`] if a conv layer's
    /// weights cannot be compiled.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers`, `config.max_batch`, or
    /// `config.queue_capacity` is zero.
    pub fn start(
        net: Arc<Network>,
        plans: &[(usize, LayerPlan)],
        config: ServeConfig,
    ) -> Result<Self, spg_error::Error> {
        assert!(config.workers > 0, "worker count must be positive");
        assert!(config.max_batch > 0, "max batch must be positive");
        let plan_by_layer: HashMap<usize, LayerPlan> = plans.iter().copied().collect();
        let kernels = Arc::new(compile_kernels(&net, &plan_by_layer)?);

        let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
        let input_len = net.input_len();
        let stats = Arc::new(PoolStats::default());
        let injector = FaultInjector::new(config.fault_plan);
        // Batch-starvation clamp: the bounded queue can hold at most
        // `queue_capacity` requests, so a pool wider than the queue keeps
        // slots that can never all find work. Spawn only as many workers
        // as the queue can feed and count the declined slots.
        let effective_workers = config.workers.min(config.queue_capacity).max(1);
        let starved = config.workers - effective_workers;
        if starved > 0 {
            spg_telemetry::record_counter("serve.starved_workers", starved as u64);
        }
        let workers = (0..effective_workers)
            .map(|w| {
                let net = Arc::clone(&net);
                let queue = Arc::clone(&queue);
                let stats = Arc::clone(&stats);
                let kernels = Arc::clone(&kernels);
                let injector = injector.clone();
                let config = config.clone();
                let restarts =
                    Restarts { budget: config.restart_budget, backoff: config.restart_backoff };
                // lint: allow(thread-spawn) long-lived service thread: one serve worker slot
                std::thread::spawn(move || {
                    // `Err` is a fault with the budget spent: the slot
                    // retires. Remaining workers keep serving; queued
                    // requests are never lost unless every slot retires.
                    let _ = spg_sync::supervise(
                        restarts,
                        || worker_loop(w, &net, &kernels, &queue, &config, &stats, &injector),
                        |_, ()| {
                            stats.restarts.bump();
                            spg_telemetry::record_counter("serve.worker_restarts", 1);
                        },
                    );
                })
            })
            .collect();
        Ok(Server { queue, workers, input_len, stats })
    }

    /// Non-blocking submission: full queues reject immediately.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadInput`] on a wrong-length input,
    /// [`ServeError::Rejected`] when the queue is at capacity,
    /// [`ServeError::ShuttingDown`] after shutdown began.
    pub fn try_submit(&self, input: Vec<f32>) -> Result<PendingResponse, ServeError> {
        let request = self.make_request(input)?;
        match self.queue.try_push(request.0) {
            Ok(()) => Ok(request.1),
            Err(PushError::Full) => Err(ServeError::Rejected { capacity: self.queue.capacity() }),
            Err(PushError::Closed | PushError::TimedOut) => Err(ServeError::ShuttingDown),
        }
    }

    /// Submission that tolerates backpressure for up to `patience`, then
    /// times out rather than blocking indefinitely. A patience too large
    /// to represent as a deadline (`Duration::MAX`) waits for space for as
    /// long as the queue stays open.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadInput`], [`ServeError::Timeout`], or
    /// [`ServeError::ShuttingDown`].
    pub fn submit_timeout(
        &self,
        input: Vec<f32>,
        patience: Duration,
    ) -> Result<PendingResponse, ServeError> {
        let request = self.make_request(input)?;
        let start = Instant::now();
        match self.queue.push_deadline(request.0, deadline_after(start, patience)) {
            Ok(()) => Ok(request.1),
            Err(PushError::TimedOut | PushError::Full) => {
                Err(ServeError::Timeout { waited: start.elapsed() })
            }
            Err(PushError::Closed) => Err(ServeError::ShuttingDown),
        }
    }

    fn make_request(&self, input: Vec<f32>) -> Result<(Request, PendingResponse), ServeError> {
        if input.len() != self.input_len {
            return Err(ServeError::BadInput { expected: self.input_len, actual: input.len() });
        }
        let (tx, rx) = mpsc::sync_channel(1);
        Ok((Request { input, submitted: Instant::now(), reply: tx }, PendingResponse { rx }))
    }

    /// Requests currently waiting in the queue.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// How many worker respawns the supervisor has performed so far.
    pub fn restarts(&self) -> u64 {
        self.stats.restarts.get()
    }

    /// Block until the supervisor has performed at least `n` respawns,
    /// or `timeout` expires; `true` when the count was reached. The
    /// event-based alternative to sleep-polling in fault drills: a
    /// drill submits, waits for the respawn it induced, then asserts.
    pub fn wait_restarts(&self, n: u64, timeout: Duration) -> bool {
        self.stats.restarts.wait_until_timeout(n, timeout)
    }

    /// How many micro-batches have failed with a worker panic so far.
    pub fn faulted_batches(&self) -> u64 {
        self.stats.faulted_batches.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: closes the queue to new work, drains every
    /// queued request through the workers, and joins them.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Compiles one single-threaded kernel per convolution layer, indexed by
/// layer position (`None` for non-conv layers), dispatching through the
/// [`CpuBackend`] so serving runs exactly the algorithms the backend
/// enumerates, and records one telemetry decision per conv layer naming
/// the backend and algorithm it is served with (schema minor 6; a no-op
/// when telemetry is disabled).
fn compile_kernels(
    net: &Network,
    plan_by_layer: &HashMap<usize, LayerPlan>,
) -> Result<Vec<Option<CompiledConv>>, spg_error::Error> {
    let backend = CpuBackend::new();
    net.layers()
        .iter()
        .enumerate()
        .map(|(i, layer)| {
            let Some(spec) = layer.conv_spec() else { return Ok(None) };
            let plan =
                plan_by_layer.get(&i).copied().unwrap_or_else(|| recommended_plan(spec, 0.0, 1));
            let weights = layer.params().expect("conv layers expose parameters");
            // cores = 1: each serving worker is one independent
            // single-threaded pipeline (the GEMM-in-Parallel analogue).
            let desc = ConvDescriptor::new(*spec, 1);
            let algo = backend.algo_for(&desc, plan);
            let compiled = backend.compile(&desc, algo, weights)?;
            spg_telemetry::record_decision(spg_telemetry::Decision {
                label: format!("serve-conv{i}"),
                phase: spg_telemetry::Phase::Forward,
                chosen: plan.forward.id().to_string(),
                sparsity: 0.0,
                cores: 1,
                candidates: Vec::new(),
                rejected: Vec::new(),
                kernel: None,
                backend: Some(backend.name().to_string()),
                algo: Some(algo.id()),
                partition: Some(compiled.program().partition().to_string()),
            });
            Ok(Some(compiled))
        })
        .collect()
}

/// One worker incarnation, with its own fresh scratch and activation
/// buffers: pop one request, gather a micro-batch until `max_batch` or
/// `max_delay`, run it inside a panic boundary, reply, repeat until the
/// queue is closed and drained (`Ok`) or a batch panics (`Err`: its
/// requests were failed with [`ServeError::WorkerFault`] and this
/// incarnation's scratch is suspect).
fn worker_loop(
    worker: usize,
    net: &Network,
    kernels: &[Option<CompiledConv>],
    queue: &BoundedQueue<Request>,
    config: &ServeConfig,
    stats: &PoolStats,
    injector: &FaultInjector,
) -> Result<(), ()> {
    let label = format!("serve-worker{worker}");
    let mut scratch = ConvScratch::new();
    // Ping-pong activation buffers sized for the widest layer boundary.
    let buf_len = net
        .layers()
        .iter()
        .flat_map(|l| [l.input_len(), l.output_len()])
        .max()
        .unwrap_or(net.input_len());
    let mut cur = vec![0.0f32; buf_len];
    let mut next = vec![0.0f32; buf_len];
    let mut batch: Vec<Request> = Vec::with_capacity(config.max_batch);
    let mut batch_index: u64 = 0;

    while let Some(first) = queue.pop() {
        batch.push(first);
        // `checked_add` guards against pathological `max_delay` values;
        // an unrepresentable deadline degrades to "no extra waiting".
        let deadline = Instant::now().checked_add(config.max_delay).unwrap_or_else(Instant::now);
        while batch.len() < config.max_batch {
            match queue.pop_deadline(deadline) {
                Some(request) => batch.push(request),
                None => break,
            }
        }

        batch_index += 1;
        let batch_start = Instant::now();
        let batch_size = batch.len();
        // The panic boundary: everything that can execute model code runs
        // inside. Replies are sent only after the whole batch succeeded,
        // so a request never observes both a response and a fault.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            injector.check(worker, batch_index);
            // One telemetry scope per micro-batch: kernels attribute
            // their flops to the innermost scope, so this bucket
            // accumulates the worker's goodput for the whole run.
            let _scope = spg_telemetry::scope(&label, spg_telemetry::Phase::Forward);
            let mut replies = Vec::with_capacity(batch_size);
            for request in batch.iter() {
                let class =
                    forward_sample(net, kernels, &request.input, &mut cur, &mut next, &mut scratch);
                let logits = cur[..net.output_len()].to_vec();
                replies.push((logits, class));
            }
            replies
        }));

        match outcome {
            Ok(replies) => {
                for (request, (logits, class)) in batch.drain(..).zip(replies) {
                    let latency = request.submitted.elapsed();
                    spg_telemetry::record_latency_ns(
                        "serve.request",
                        spg_telemetry::saturating_nanos(latency),
                    );
                    // A dropped PendingResponse just means the caller
                    // stopped caring; the worker carries on.
                    let _ = request.reply.send(Ok(Response {
                        logits,
                        class,
                        latency,
                        worker,
                        batch_size,
                    }));
                }
                spg_telemetry::record_latency_ns(
                    "serve.batch",
                    spg_telemetry::saturating_nanos(batch_start.elapsed()),
                );
            }
            Err(payload) => {
                stats.faulted_batches.fetch_add(1, Ordering::Relaxed);
                spg_telemetry::record_counter("serve.faulted_batches", 1);
                let message = spg_sync::panic_message(payload.as_ref());
                for request in batch.drain(..) {
                    let _ = request.reply.send(Err(ServeError::WorkerFault {
                        worker,
                        batch: batch_index,
                        message: message.clone(),
                    }));
                }
                return Err(());
            }
        }
    }
    Ok(())
}

/// Runs one sample through the layer chain, leaving the logits in
/// `cur[..net.output_len()]` and returning the argmax class (identical
/// tie-breaking to `Network::predict`: first maximum wins).
fn forward_sample(
    net: &Network,
    kernels: &[Option<CompiledConv>],
    input: &[f32],
    cur: &mut Vec<f32>,
    next: &mut Vec<f32>,
    scratch: &mut ConvScratch,
) -> usize {
    cur[..input.len()].copy_from_slice(input);
    for (layer, kernel) in net.layers().iter().zip(kernels) {
        let (in_len, out_len) = (layer.input_len(), layer.output_len());
        match kernel {
            Some(compiled) => {
                compiled.forward_scratch(&cur[..in_len], &mut next[..out_len], scratch)
            }
            None => layer.forward(&cur[..in_len], &mut next[..out_len], scratch),
        }
        std::mem::swap(cur, next);
    }
    let logits = &cur[..net.output_len()];
    let mut best = 0;
    for i in 1..logits.len() {
        if logits[i] > logits[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: `start + Duration::MAX` panicked in the submitter. An
    /// unrepresentable deadline on a full queue waits for as long as the
    /// queue stays open, and `close` releases it with `ShuttingDown`.
    /// (Closing under a parked `&self` submitter needs the queue itself,
    /// so this case lives here; the has-room case is in
    /// `tests/serving.rs`.)
    #[test]
    fn unrepresentable_deadline_on_a_full_queue_waits_for_close() {
        // No workers: nothing ever drains the queue.
        let server = Server {
            queue: Arc::new(BoundedQueue::new(1)),
            workers: Vec::new(),
            input_len: 2,
            stats: Arc::default(),
        };
        let _queued = server.try_submit(vec![0.0; 2]).expect("room for one");
        std::thread::scope(|scope| {
            let parked = scope.spawn(|| server.submit_timeout(vec![0.0; 2], Duration::MAX));
            server.queue.close();
            let released = parked.join().expect("the submitter must not panic");
            assert!(matches!(released, Err(ServeError::ShuttingDown)), "got {released:?}");
        });
    }
}
