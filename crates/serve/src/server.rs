//! The micro-batching serving engine.
//!
//! Requests enter on a bounded MPMC queue; each of `workers` persistent
//! threads pops a request, gathers more until `max_batch` or `max_delay`
//! elapses, then runs each request of the micro-batch through the
//! network's own forward walk ([`Network::forward_sample`]) at a core
//! budget of one — the serving analogue of GEMM-in-Parallel: instead of
//! one multi-threaded kernel per request, many independent
//! single-threaded pipelines preserve per-core arithmetic intensity.
//!
//! # Fault isolation & supervision
//!
//! Each worker thread is its own supervisor: one [`spg_sync::supervise`]
//! call around the worker loop. The loop runs every micro-batch inside
//! [`std::panic::catch_unwind`]: a panicking kernel fails only that
//! batch — its requests get a typed [`ServeError::WorkerFault`] reply —
//! and ends the incarnation; the next one starts with a fresh
//! [`ConvScratch`] and a fresh one-sample [`SampleTrace`], up to
//! [`ServeConfig::restart_budget`] restarts with exponential backoff.
//! The network is immutable behind its [`Arc`] (the forward walk takes
//! `&self`), so every worker and incarnation shares it; only what a
//! panic can leave torn is rebuilt.
//! Lock handling everywhere in this crate recovers from poisoning (see
//! [`spg_sync`]), so one crash never cascades into process-wide aborts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spg_convnet::layer::ConvLayer;
use spg_convnet::workspace::ConvScratch;
use spg_convnet::{Network, SampleTrace};
use spg_core::schedule::{LayerPlan, Technique};
use spg_error::{Error, ErrorKind};
use spg_sync::{deadline_after, FaultInjector, FaultPlan, Restarts};

use crate::queue::{BoundedQueue, PushError};

/// Configuration for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads, each owning a warm activation trace and scratch.
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
    /// Deterministic fault to inject for supervision testing: worker `K`
    /// (or any worker) panics when it starts its `N`-th micro-batch. It
    /// fires whenever set, once per server; `None` costs one `Option`
    /// test per micro-batch.
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
/// of persistent workers that share one network and each own one warm
/// one-sample [`SampleTrace`] and [`ConvScratch`]. A worker runs every
/// request through the network's own forward walk at a core budget of
/// one — the kernels the network has installed, with no second compiled
/// copy of any layer.
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
    /// Starts `config.workers` worker threads serving `net` as it is:
    /// each request runs the forward executors installed on `net` (by
    /// `Framework::plan_network_forward`, say) through
    /// [`Network::forward_sample`] at a core budget of one, so the served
    /// logits are the bits [`Network::forward`] returns. A program lowered
    /// for more cores runs its sequential program.
    ///
    /// `plans` is what the caller installed, as that call returned it:
    /// it is checked, not compiled. Conv layers it does not name are
    /// served with whatever executor they hold.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::InvalidNetwork`] if an entry of `plans` names
    /// a layer that is not a convolution, or a convolution whose installed
    /// forward executor does not run the entry's forward technique.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers`, `config.max_batch`, or
    /// `config.queue_capacity` is zero.
    pub fn start(
        net: Arc<Network>,
        plans: &[(usize, LayerPlan)],
        config: ServeConfig,
    ) -> Result<Self, Error> {
        assert!(config.workers > 0, "worker count must be positive");
        assert!(config.max_batch > 0, "max batch must be positive");
        check_plans(&net, plans)?;
        record_decisions(&net);

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
                        || worker_loop(w, &net, &queue, &config, &stats, &injector),
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

/// The forward technique `conv`'s installed executor runs.
fn installed_forward(conv: &ConvLayer) -> Technique {
    if conv.executor_names().0 == Technique::StencilFp.id() {
        Technique::StencilFp
    } else {
        Technique::GemmInParallel
    }
}

/// Checks that each `(i, plan)` names a convolution layer of `net` whose
/// installed forward executor runs `plan.forward`.
fn check_plans(net: &Network, plans: &[(usize, LayerPlan)]) -> Result<(), Error> {
    for &(i, plan) in plans {
        let installed =
            net.layers().get(i).and_then(|layer| layer.as_conv()).map(installed_forward);
        if installed != Some(plan.forward) {
            let runs = installed.map_or("no convolution", Technique::id);
            let message =
                format!("a {} plan names layer {i}, which runs {runs}", plan.forward.id());
            return Err(Error::new(ErrorKind::InvalidNetwork, message));
        }
    }
    Ok(())
}

/// Records one telemetry decision per convolution layer naming the
/// forward technique its installed executor runs — one sample on one core
/// (a no-op when telemetry is disabled).
fn record_decisions(net: &Network) {
    for (i, layer) in net.layers().iter().enumerate() {
        let Some(conv) = layer.as_conv() else { continue };
        spg_telemetry::record_decision(spg_telemetry::Decision {
            label: format!("serve-conv{i}"),
            phase: spg_telemetry::Phase::Forward,
            chosen: installed_forward(conv).id().to_string(),
            sparsity: 0.0,
            cores: 1,
            candidates: Vec::new(),
            rejected: Vec::new(),
            kernel: None,
            backend: Some("cpu".to_string()),
            algo: None,
            partition: Some("sample".to_string()),
        });
    }
}

/// One worker incarnation, with its own fresh scratch and one-sample
/// trace: pop one request, gather a micro-batch until `max_batch` or
/// `max_delay`, run it inside a panic boundary, reply, repeat until the
/// queue is closed and drained (`Ok`) or a batch panics (`Err`: its
/// requests were failed with [`ServeError::WorkerFault`] and this
/// incarnation's scratch is suspect).
fn worker_loop(
    worker: usize,
    net: &Network,
    queue: &BoundedQueue<Request>,
    config: &ServeConfig,
    stats: &PoolStats,
    injector: &FaultInjector,
) -> Result<(), ()> {
    let label = format!("serve-worker{worker}");
    // Budget 1: this worker is one of the pool's single-core pipelines.
    let mut scratch = ConvScratch::new();
    let mut trace = SampleTrace::for_network(net);
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
            // One telemetry scope per micro-batch: it accumulates the
            // worker's wall time; the kernels' flops land in the walk's
            // per-layer scopes inside it.
            let _scope = spg_telemetry::scope(&label, spg_telemetry::Phase::Forward);
            let mut replies = Vec::with_capacity(batch_size);
            for request in batch.iter() {
                net.forward_sample(&request.input, &mut trace, &mut scratch);
                let logits = trace.logits().as_slice().to_vec();
                let class = argmax(&logits);
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

/// Index of the largest logit, the first on ties (as
/// [`Network::predict`] breaks them).
fn argmax(logits: &[f32]) -> usize {
    (1..logits.len()).fold(0, |best, i| if logits[i] > logits[best] { i } else { best })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spg_convnet::exec::UnfoldGemmExecutor;
    use spg_core::autotune::{Framework, TuningMode};
    use spg_core::config::NetworkDescription;

    /// Each `serve-conv{i}` decision names the forward technique of the
    /// executor installed on layer `i` — what the workers run, one sample
    /// on one core.
    #[test]
    fn serve_decisions_name_the_installed_executor() {
        const TWO_CONVS: &str = r#"
            name: "two-convs"
            input { channels: 1 height: 8 width: 8 }
            conv { features: 4 kernel: 3 stride: 1 }
            relu { }
            conv { features: 2 kernel: 3 stride: 1 }
            fc { outputs: 3 }
        "#;
        let mut net =
            NetworkDescription::parse(TWO_CONVS).expect("parses").build(42).expect("builds");
        Framework::new(1, TuningMode::Heuristic, 1).plan_network_forward(&mut net);
        let conv2 = net.layers_mut()[2].as_conv_mut().expect("layer 2 is a conv");
        conv2.set_forward_executor(Arc::new(UnfoldGemmExecutor::default()));
        spg_telemetry::reset();
        spg_telemetry::set_enabled(true);
        record_decisions(&net);
        spg_telemetry::set_enabled(false);
        let decisions = spg_telemetry::snapshot().decisions;
        let mut rows = Vec::new();
        for (i, layer) in net.layers().iter().enumerate() {
            let Some(conv) = layer.as_conv() else { continue };
            let label = format!("serve-conv{i}");
            let decision = decisions.iter().find(|d| d.label == label).expect("one per conv");
            assert_eq!((decision.cores, decision.algo.as_deref()), (1, None), "{label}");
            assert_eq!(decision.partition.as_deref(), Some("sample"), "{label}");
            assert_eq!(decision.backend.as_deref(), Some("cpu"), "{label}");
            rows.push((conv.executor_names().0, decision.chosen.clone()));
        }
        let named = |executor: &str, chosen: &str| (executor.to_string(), chosen.to_string());
        // The 6-wide output plans the narrow stencil; layer 2 was reset.
        assert_eq!(
            rows,
            [named("stencil-fp", "stencil-fp"), named("unfold+gemm", "gemm-in-parallel")]
        );
    }

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
