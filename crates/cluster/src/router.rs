//! The shard router: consistent hashing in front of N engine replicas.
//!
//! Each shard gets a bounded request queue (reusing `spg_serve`'s
//! [`BoundedQueue`] backpressure semantics — full queue rejects, closed
//! queue means shutdown) drained by one forwarder thread that owns the
//! shard's backend: either an in-process [`spg_serve::Server`] replica
//! or a framed stream to a shard process ([`RemoteShard`]).
//!
//! # Health-based eviction and respawn
//!
//! A fatal backend error (stream died, server torn down) fails the one
//! in-flight request with a typed [`ClusterError::ShardFault`], evicts
//! the shard from the hash ring — consistent hashing re-routes *only*
//! that shard's keys — and respawns the backend through the
//! [`ShardSpawner`] under the router's restart budget with exponential
//! backoff: each forwarder is one [`spg_sync::supervise`] call, the same
//! restart loop as the serving and training pools', whose incarnation is
//! "obtain a backend, serve until it dies". Requests already queued on
//! the shard are not failed: they wait for the respawned backend, so a
//! kill drill produces exactly one `ShardFault`-class error and every
//! other key's result is unchanged.

use std::io::{Read, Write};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use spg_serve::{BoundedQueue, PushError, ServeError};
use spg_sync::{deadline_after, Restarts};

use crate::hash::HashRing;
use crate::wire::{read_frame, write_frame, Message, WireError};
use crate::ClusterError;

/// A completed routed classification.
#[derive(Debug, Clone)]
pub struct RouteReply {
    /// Raw network outputs.
    pub logits: Vec<f32>,
    /// Argmax of the logits.
    pub class: usize,
    /// Shard that served the request.
    pub shard: usize,
}

/// How a backend failure affects the shard.
#[derive(Debug)]
pub enum ShardError {
    /// Only this request failed; the shard stays live.
    Request(ClusterError),
    /// The shard is gone: evict it and respawn.
    Fatal(ClusterError),
}

/// One shard's serving backend, driven sequentially by its forwarder.
pub trait ShardBackend: Send {
    /// Serves one request.
    ///
    /// # Errors
    ///
    /// [`ShardError::Request`] fails only this request;
    /// [`ShardError::Fatal`] additionally evicts the shard.
    fn infer(
        &mut self,
        shard: usize,
        key: &[u8],
        input: Vec<f32>,
    ) -> Result<RouteReply, ShardError>;
}

/// Creates (and re-creates, after eviction) a shard's backend.
pub trait ShardSpawner: Send + Sync {
    /// Builds the backend for `shard`.
    ///
    /// # Errors
    ///
    /// Any [`ClusterError`]; the router retries under its restart
    /// budget.
    fn spawn(&self, shard: usize) -> Result<Box<dyn ShardBackend>, ClusterError>;
}

impl<F> ShardSpawner for F
where
    F: Fn(usize) -> Result<Box<dyn ShardBackend>, ClusterError> + Send + Sync,
{
    fn spawn(&self, shard: usize) -> Result<Box<dyn ShardBackend>, ClusterError> {
        self(shard)
    }
}

/// Classifies a serve-side error: shutdown/teardown kills the shard,
/// everything else fails only the request.
fn classify(shard: usize, e: ServeError) -> ShardError {
    match e {
        ServeError::ShuttingDown | ServeError::Disconnected => {
            ShardError::Fatal(ClusterError::ShardFault { shard, message: e.to_string() })
        }
        other => ShardError::Request(ClusterError::from_serve(shard, other)),
    }
}

/// An in-process shard: a full [`spg_serve::Server`] replica.
pub struct InProcShard {
    server: spg_serve::Server,
}

impl InProcShard {
    /// Wraps a started server as a shard backend.
    pub fn new(server: spg_serve::Server) -> Self {
        InProcShard { server }
    }
}

impl ShardBackend for InProcShard {
    fn infer(
        &mut self,
        shard: usize,
        _key: &[u8],
        input: Vec<f32>,
    ) -> Result<RouteReply, ShardError> {
        let pending = self.server.try_submit(input).map_err(|e| classify(shard, e))?;
        let resp = pending.wait().map_err(|e| classify(shard, e))?;
        Ok(RouteReply { logits: resp.logits, class: resp.class, shard })
    }
}

/// A shard process reached over a framed stream (UDS or TCP): requests
/// and replies travel as checksummed wire frames, one in flight per
/// connection.
pub struct RemoteShard<S: Read + Write + Send> {
    stream: S,
    next_id: u64,
}

impl<S: Read + Write + Send> RemoteShard<S> {
    /// Wraps a connected stream.
    pub fn new(stream: S) -> Self {
        RemoteShard { stream, next_id: 0 }
    }
}

impl<S: Read + Write + Send> ShardBackend for RemoteShard<S> {
    fn infer(
        &mut self,
        shard: usize,
        key: &[u8],
        input: Vec<f32>,
    ) -> Result<RouteReply, ShardError> {
        let id = self.next_id;
        self.next_id += 1;
        let dead = |e: WireError| {
            ShardError::Fatal(ClusterError::ShardFault {
                shard,
                message: format!("shard connection failed: {e}"),
            })
        };
        write_frame(&mut self.stream, &Message::InferRequest { id, key: key.to_vec(), input })
            .map_err(dead)?;
        match read_frame(&mut self.stream).map_err(dead)? {
            Message::InferResponse { id: rid, class, logits } if rid == id => {
                Ok(RouteReply { logits, class: class as usize, shard })
            }
            Message::InferError { id: rid, message } if rid == id => {
                Err(ShardError::Request(ClusterError::ShardFault { shard, message }))
            }
            other => Err(ShardError::Fatal(ClusterError::ShardFault {
                shard,
                message: format!("unexpected reply frame tag {:#04x}", other.tag()),
            })),
        }
    }
}

/// Configuration for [`Router::start`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Shard count.
    pub shards: usize,
    /// Per-shard bounded queue capacity.
    pub queue_capacity: usize,
    /// Seed for the consistent-hash ring.
    pub hash_seed: u64,
    /// Virtual points per shard on the ring.
    pub vnodes: usize,
    /// Respawns allowed per shard before its queue closes for good.
    pub restart_budget: usize,
    /// Base respawn backoff (doubles per consecutive restart).
    pub restart_backoff: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shards: 2,
            queue_capacity: 64,
            hash_seed: 0x5b9c,
            vnodes: HashRing::DEFAULT_VNODES,
            restart_budget: 3,
            restart_backoff: Duration::from_millis(5),
        }
    }
}

/// One queued routed request.
struct RouterRequest {
    key: Vec<u8>,
    input: Vec<f32>,
    reply: mpsc::SyncSender<Result<RouteReply, ClusterError>>,
}

/// Handle to a routed request; redeem with [`wait`](Self::wait).
#[derive(Debug)]
pub struct PendingRoute {
    rx: mpsc::Receiver<Result<RouteReply, ClusterError>>,
}

impl PendingRoute {
    /// Blocks until the reply arrives.
    ///
    /// # Errors
    ///
    /// The typed [`ClusterError`] the forwarder recorded — e.g.
    /// [`ClusterError::ShardFault`] when the owning shard died with this
    /// request in flight.
    pub fn wait(self) -> Result<RouteReply, ClusterError> {
        self.rx.recv().map_err(|_| ClusterError::Disconnected)?
    }
}

struct ShardSlot {
    queue: Arc<BoundedQueue<RouterRequest>>,
    forwarder: Option<std::thread::JoinHandle<()>>,
}

/// The shard router: routes keys over a consistent-hash ring to
/// per-shard bounded queues, each drained by a forwarder owning that
/// shard's backend.
///
/// Dropping the router performs the same graceful shutdown as
/// [`shutdown`](Self::shutdown).
pub struct Router {
    ring: Arc<Mutex<HashRing>>,
    slots: Vec<ShardSlot>,
    evictions: Arc<spg_sync::ProgressCounter>,
    respawns: Arc<spg_sync::ProgressCounter>,
}

impl Router {
    /// Starts the router: spawns every shard backend (failing fast if
    /// one cannot start) and one forwarder thread per shard.
    ///
    /// # Errors
    ///
    /// The first shard's spawn error.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards == 0` or `config.queue_capacity == 0`.
    pub fn start(
        spawner: Arc<dyn ShardSpawner>,
        config: &RouterConfig,
    ) -> Result<Router, ClusterError> {
        assert!(config.shards > 0, "router needs at least one shard");
        let ring =
            Arc::new(Mutex::new(HashRing::new(config.shards, config.vnodes, config.hash_seed)));
        let evictions = Arc::new(spg_sync::ProgressCounter::new());
        let respawns = Arc::new(spg_sync::ProgressCounter::new());
        let mut slots = Vec::with_capacity(config.shards);
        for shard in 0..config.shards {
            let backend = spawner.spawn(shard)?;
            let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
            let forwarder = {
                let queue = Arc::clone(&queue);
                let ring = Arc::clone(&ring);
                let spawner = Arc::clone(&spawner);
                let evictions = Arc::clone(&evictions);
                let respawns = Arc::clone(&respawns);
                let config = config.clone();
                // lint: allow(thread-spawn) long-lived service thread: one shard's forwarder
                std::thread::spawn(move || {
                    forward_loop(
                        shard, backend, &queue, &ring, &*spawner, &config, &evictions, &respawns,
                    );
                })
            };
            slots.push(ShardSlot { queue, forwarder: Some(forwarder) });
        }
        Ok(Router { ring, slots, evictions, respawns })
    }

    /// Routes `key` on the ring.
    fn route(&self, key: &[u8]) -> Result<usize, ClusterError> {
        spg_sync::lock(&self.ring).route(key).ok_or(ClusterError::NoShards)
    }

    /// Non-blocking submission: the owning shard's full queue rejects
    /// immediately (backpressure, same semantics as
    /// [`spg_serve::Server::try_submit`]).
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoShards`] with every shard evicted,
    /// [`ClusterError::Rejected`] on backpressure,
    /// [`ClusterError::ShuttingDown`] after shutdown began.
    pub fn try_submit(&self, key: &[u8], input: Vec<f32>) -> Result<PendingRoute, ClusterError> {
        let shard = self.route(key)?;
        spg_telemetry::record_counter("cluster.router.requests", 1);
        let (tx, rx) = mpsc::sync_channel(1);
        let queue = &self.slots[shard].queue;
        queue.try_push(RouterRequest { key: key.to_vec(), input, reply: tx }).map_err(
            |e| match e {
                PushError::Full => {
                    spg_telemetry::record_counter("cluster.router.rejected", 1);
                    ClusterError::Rejected { capacity: queue.capacity() }
                }
                PushError::Closed | PushError::TimedOut => ClusterError::ShuttingDown,
            },
        )?;
        Ok(PendingRoute { rx })
    }

    /// Blocking submission with a deadline, mirroring
    /// [`spg_serve::Server::submit_timeout`] — including that a `timeout`
    /// too large to represent as a deadline waits for space for as long as
    /// the shard's queue stays open.
    ///
    /// # Errors
    ///
    /// As [`try_submit`](Self::try_submit), with
    /// [`ClusterError::Timeout`] when the queue stayed full past the
    /// deadline.
    pub fn submit_timeout(
        &self,
        key: &[u8],
        input: Vec<f32>,
        timeout: Duration,
    ) -> Result<PendingRoute, ClusterError> {
        let shard = self.route(key)?;
        spg_telemetry::record_counter("cluster.router.requests", 1);
        let (tx, rx) = mpsc::sync_channel(1);
        let queue = &self.slots[shard].queue;
        queue
            .push_deadline(
                RouterRequest { key: key.to_vec(), input, reply: tx },
                deadline_after(Instant::now(), timeout),
            )
            .map_err(|e| match e {
                PushError::Full | PushError::TimedOut => {
                    spg_telemetry::record_counter("cluster.router.rejected", 1);
                    ClusterError::Timeout { waited: timeout }
                }
                PushError::Closed => ClusterError::ShuttingDown,
            })?;
        Ok(PendingRoute { rx })
    }

    /// Number of currently live (non-evicted) shards.
    pub fn live_shards(&self) -> usize {
        spg_sync::lock(&self.ring).live_count()
    }

    /// Total health-based shard evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Block until at least `n` evictions have been observed, or
    /// `timeout` expires; `true` when the count was reached. Kill
    /// drills wait on this instead of sleep-polling [`evictions`].
    ///
    /// [`evictions`]: Self::evictions
    pub fn wait_evictions(&self, n: u64, timeout: Duration) -> bool {
        self.evictions.wait_until_timeout(n, timeout)
    }

    /// Block until at least `n` successful respawns have been observed,
    /// or `timeout` expires; `true` when the count was reached.
    pub fn wait_respawns(&self, n: u64, timeout: Duration) -> bool {
        self.respawns.wait_until_timeout(n, timeout)
    }

    /// Total successful shard respawns so far.
    pub fn respawns(&self) -> u64 {
        self.respawns.get()
    }

    /// Graceful shutdown: closes every shard queue, drains queued
    /// requests, and joins the forwarders.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        for slot in &self.slots {
            slot.queue.close();
        }
        for slot in &mut self.slots {
            if let Some(handle) = slot.forwarder.take() {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Drains one shard's queue forever: serve, and on a fatal backend
/// error evict + respawn under the restart budget.
#[allow(clippy::too_many_arguments)]
fn forward_loop(
    shard: usize,
    backend: Box<dyn ShardBackend>,
    queue: &BoundedQueue<RouterRequest>,
    ring: &Mutex<HashRing>,
    spawner: &dyn ShardSpawner,
    config: &RouterConfig,
    evictions: &spg_sync::ProgressCounter,
    respawns: &spg_sync::ProgressCounter,
) {
    let restarts = Restarts { budget: config.restart_budget, backoff: config.restart_backoff };
    // The first incarnation serves with the backend `Router::start`
    // spawned; every later one respawns its own. A failed respawn is a
    // fault like any other: it charges the budget and backs off.
    let mut first = Some(backend);
    let retired = spg_sync::supervise(
        restarts,
        || {
            let mut backend = match first.take() {
                Some(backend) => backend,
                None => {
                    let fresh = spawner.spawn(shard).map_err(drop)?;
                    spg_sync::lock(ring).insert(shard);
                    respawns.bump();
                    spg_telemetry::record_counter("cluster.router.respawns", 1);
                    fresh
                }
            };
            while let Some(req) = queue.pop() {
                match backend.infer(shard, &req.key, req.input) {
                    Ok(reply) => {
                        let _ = req.reply.send(Ok(reply));
                    }
                    Err(ShardError::Request(e)) => {
                        let _ = req.reply.send(Err(e));
                    }
                    Err(ShardError::Fatal(e)) => {
                        // Evict first (so new submissions re-route), then
                        // fail exactly the in-flight request; queued
                        // requests wait for the respawned backend.
                        spg_sync::lock(ring).evict(shard);
                        evictions.bump();
                        spg_telemetry::record_counter("cluster.router.evictions", 1);
                        let _ = req.reply.send(Err(e));
                        return Err(());
                    }
                }
            }
            Ok(())
        },
        |_, ()| {},
    );
    if retired.is_err() {
        // Budget spent: this shard stays evicted and its remaining queue
        // drains with typed errors.
        queue.close();
        while let Some(stale) = queue.try_pop() {
            let _ = stale.reply.send(Err(ClusterError::ShardFault {
                shard,
                message: "shard retired: restart budget exhausted".to_string(),
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A scripted backend: answers with its shard id as the class, dies
    /// on request `die_on` (once per incarnation).
    struct Scripted {
        shard: usize,
        served: u64,
        die_on: Option<u64>,
    }

    impl ShardBackend for Scripted {
        fn infer(
            &mut self,
            shard: usize,
            key: &[u8],
            input: Vec<f32>,
        ) -> Result<RouteReply, ShardError> {
            self.served += 1;
            if self.die_on == Some(self.served) {
                return Err(ShardError::Fatal(ClusterError::ShardFault {
                    shard,
                    message: "scripted death".to_string(),
                }));
            }
            if input.is_empty() {
                return Err(ShardError::Request(ClusterError::BadInput { expected: 1, actual: 0 }));
            }
            let _ = key;
            Ok(RouteReply { logits: vec![input[0]], class: self.shard, shard })
        }
    }

    fn scripted_spawner(die_on: Option<u64>) -> Arc<dyn ShardSpawner> {
        let spawned = Arc::new(AtomicUsize::new(0));
        Arc::new(move |shard: usize| {
            // Only the very first incarnation of any shard carries the
            // scripted death: respawns are healthy.
            let first = spawned.fetch_add(1, Ordering::Relaxed) == 0;
            Ok(Box::new(Scripted { shard, served: 0, die_on: die_on.filter(|_| first) })
                as Box<dyn ShardBackend>)
        })
    }

    #[test]
    fn routes_by_key_and_answers_from_the_owning_shard() {
        let config = RouterConfig { shards: 3, ..Default::default() };
        let router = Router::start(scripted_spawner(None), &config).unwrap();
        let ring = HashRing::new(3, config.vnodes, config.hash_seed);
        for i in 0..60 {
            let key = format!("key-{i}");
            let reply = router.try_submit(key.as_bytes(), vec![1.0]).unwrap().wait().unwrap();
            assert_eq!(reply.shard, ring.route(key.as_bytes()).unwrap());
            assert_eq!(reply.class, reply.shard);
        }
        router.shutdown();
    }

    #[test]
    fn request_errors_do_not_evict() {
        let config = RouterConfig { shards: 2, ..Default::default() };
        let router = Router::start(scripted_spawner(None), &config).unwrap();
        let err = router.try_submit(b"k", Vec::new()).unwrap().wait().unwrap_err();
        assert!(matches!(err, ClusterError::BadInput { .. }), "got {err:?}");
        assert_eq!(router.live_shards(), 2);
        assert_eq!(router.evictions(), 0);
    }

    #[test]
    fn fatal_error_fails_one_request_and_respawns_the_shard() {
        let config = RouterConfig {
            shards: 2,
            restart_backoff: Duration::from_millis(1),
            ..Default::default()
        };
        // The first backend incarnation dies on its second request.
        let router = Router::start(scripted_spawner(Some(2)), &config).unwrap();
        // Find keys owned by shard 0 (the first spawned incarnation).
        let ring = HashRing::new(2, config.vnodes, config.hash_seed);
        let keys: Vec<String> = (0..200)
            .map(|i| format!("key-{i}"))
            .filter(|k| ring.route(k.as_bytes()) == Some(0))
            .take(4)
            .collect();
        assert!(keys.len() >= 4, "need enough shard-0 keys");

        let mut faults = 0;
        for key in &keys {
            match router.try_submit(key.as_bytes(), vec![2.0]).unwrap().wait() {
                Ok(reply) => assert_eq!(reply.shard, 0),
                Err(ClusterError::ShardFault { shard, .. }) => {
                    assert_eq!(shard, 0);
                    faults += 1;
                    // Let the respawn land before submitting the next
                    // key, so it routes back to the revived shard 0.
                    assert!(
                        router.wait_respawns(1, Duration::from_secs(5)),
                        "respawn after eviction"
                    );
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert_eq!(faults, 1, "exactly the in-flight request fails");
        assert_eq!(router.evictions(), 1);
        assert_eq!(router.respawns(), 1);
        assert_eq!(router.live_shards(), 2, "shard respawned and re-inserted");
        router.shutdown();
    }

    /// Regression: `Instant::now() + timeout` panicked on overflow, so
    /// `Duration::MAX` ("wait as long as it takes") aborted the caller.
    #[test]
    fn submit_timeout_accepts_an_unrepresentable_deadline() {
        let config = RouterConfig { shards: 1, ..Default::default() };
        let router = Router::start(scripted_spawner(None), &config).unwrap();
        let pending = router.submit_timeout(b"k", vec![3.0], Duration::MAX).unwrap();
        assert_eq!(pending.wait().unwrap().logits, [3.0]);
        router.shutdown();
    }

    /// ... and on a full queue such a deadline waits for space for as
    /// long as the queue stays open: `close` releases it, typed.
    #[test]
    fn unrepresentable_deadline_on_a_full_queue_waits_for_close() {
        /// Holds every request until the test releases the gate.
        struct Gated(mpsc::Receiver<()>);
        impl ShardBackend for Gated {
            fn infer(
                &mut self,
                shard: usize,
                _key: &[u8],
                input: Vec<f32>,
            ) -> Result<RouteReply, ShardError> {
                let _ = self.0.recv();
                Ok(RouteReply { logits: input, class: 0, shard })
            }
        }
        let (gate, gated) = mpsc::channel();
        let gated = Mutex::new(Some(gated));
        let spawner = Arc::new(move |_: usize| {
            let gate = spg_sync::lock(&gated).take().expect("one incarnation");
            Ok(Box::new(Gated(gate)) as Box<dyn ShardBackend>)
        });
        let config = RouterConfig { shards: 1, queue_capacity: 1, ..Default::default() };
        let router = Router::start(spawner, &config).unwrap();

        // `a` is popped into the gated backend; once `b` is accepted
        // behind it the one-slot queue is full and nothing drains it.
        let in_flight = router.try_submit(b"a", vec![1.0]).unwrap();
        let queued = loop {
            match router.try_submit(b"b", vec![2.0]) {
                Ok(pending) => break pending,
                Err(ClusterError::Rejected { .. }) => std::thread::yield_now(),
                Err(other) => panic!("unexpected error {other:?}"),
            }
        };
        std::thread::scope(|scope| {
            let parked = scope.spawn(|| router.submit_timeout(b"c", vec![3.0], Duration::MAX));
            router.slots[0].queue.close();
            let released = parked.join().expect("the submitter must not panic");
            assert!(matches!(released, Err(ClusterError::ShuttingDown)), "got {released:?}");
        });
        // Open the gate: accepted requests still drain after close.
        drop(gate);
        assert_eq!(in_flight.wait().unwrap().logits, [1.0]);
        assert_eq!(queued.wait().unwrap().logits, [2.0]);
    }

    #[test]
    fn exhausted_budget_retires_the_shard_but_keeps_the_rest_serving() {
        // Every incarnation of shard 0 dies on its first request; shard
        // 1 stays healthy throughout.
        let zero_dies = Arc::new(|shard: usize| {
            let die_on = if shard == 0 { Some(1) } else { None };
            Ok(Box::new(Scripted { shard, served: 0, die_on }) as Box<dyn ShardBackend>)
        });
        let config = RouterConfig {
            shards: 2,
            restart_budget: 1,
            restart_backoff: Duration::from_millis(1),
            ..Default::default()
        };
        let router = Router::start(zero_dies, &config).unwrap();
        let ring = HashRing::new(2, config.vnodes, config.hash_seed);
        let key0: String = (0..200)
            .map(|i| format!("key-{i}"))
            .find(|k| ring.route(k.as_bytes()) == Some(0))
            .unwrap();
        // First request dies, evicting shard 0; one respawn remains.
        let _ = router.try_submit(key0.as_bytes(), vec![1.0]).unwrap().wait();
        assert!(router.wait_respawns(1, Duration::from_secs(5)));
        assert_eq!(router.live_shards(), 2);
        // The respawned backend dies again, spending the budget: shard 0
        // retires for good.
        let _ = router.try_submit(key0.as_bytes(), vec![1.0]).unwrap().wait();
        assert!(router.wait_evictions(2, Duration::from_secs(5)));
        assert_eq!(router.live_shards(), 1);
        // Shard 0's keys re-route to the survivor; other shards serve on.
        let reply = router.try_submit(key0.as_bytes(), vec![1.0]).unwrap().wait().unwrap();
        assert_eq!(reply.shard, 1, "evicted shard's keys moved to the survivor");
    }
}
