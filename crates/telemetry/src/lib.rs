//! Goodput telemetry for the spg-CNN execution stack.
//!
//! The paper's third axis — *goodput*, the rate of useful (non-zero)
//! flops (Sec. 3.3) — is made observable at runtime by this crate:
//! kernels report the flops they actually performed (`useful`) against
//! the flops a dense execution of the same operator would perform
//! (`total`), attributed to the innermost active *scope* (a per-layer,
//! per-phase label pushed by the network driver). Scopes also accumulate
//! wall time and call counts, sparse kernels additionally report CT-CSR
//! tile occupancy, and the autotuner logs every measure-and-pick
//! decision with the candidate timings that justified it.
//!
//! Collection is disabled by default and the disabled fast path is one
//! relaxed atomic load per instrumentation site, so the kernels pay
//! essentially nothing unless a caller opts in via [`set_enabled`].
//! All state is process-global and thread-safe: counters are atomics,
//! the scope stack is thread-local, and [`snapshot`] linearizes the
//! registry into a serializable [`MetricsSnapshot`].
//!
//! # Example
//!
//! ```
//! use spg_telemetry as telemetry;
//!
//! telemetry::reset();
//! telemetry::set_enabled(true);
//! {
//!     let _guard = telemetry::scope("conv0", telemetry::Phase::Forward);
//!     // ... kernel work happens here ...
//!     telemetry::record_flops(75, 100);
//! }
//! telemetry::set_enabled(false);
//! let snap = telemetry::snapshot();
//! let scope = &snap.scopes[0];
//! assert_eq!((scope.label.as_str(), scope.useful_flops), ("conv0", 75));
//! assert_eq!(scope.goodput(), Some(0.75));
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub mod json;

/// Version of the emitted JSON schema. Bumped on any breaking change to
/// field names or meanings; consumers must ignore unknown fields.
pub const SCHEMA_VERSION: u64 = 1;

/// Minor schema version. Bumped when backwards-compatible fields are
/// added (consumers ignore unknown fields, so older readers keep
/// working). Minor 1 added the per-scope `workspace_bytes` gauge; minor 2
/// added the top-level `latencies` histogram array for the serving
/// engine's per-request latency and per-worker goodput reporting; minor 3
/// added the top-level `counters` array carrying the worker-pool
/// supervision counters (`serve.worker_restarts`, `serve.faulted_batches`,
/// `train.worker_restarts`, `train.faulted_samples`); minor 4 added the
/// per-decision `rejected` array listing autotune candidates the static
/// plan verifier refused before measurement, with the refusal reason;
/// minor 5 added the optional per-decision `kernel` field recording which
/// stencil forward kernel the contest's stencil candidate bound
/// (`"specialized"` for a codegen registry instance, `"generic"` for the
/// runtime-parameterized loops; absent on backward decisions); minor 6
/// added the optional per-decision `algo` field naming the algorithm
/// identifier the decision chose or compiled, and a `backend` string that
/// current writers no longer emit (every writer wrote `"cpu"`) and readers
/// still accept; minor 7 added the cluster
/// counters (`cluster.router.*` for shard routing/eviction/respawn,
/// `cluster.ring.*` for per-ring-step all-reduce traffic (the
/// `cluster.tree.*` counters went with the tree all-reduce; a training
/// rank's loop reports under the `trainer` scope, being the trainer's
/// own), `cluster.train.*` for distributed-training faults and
/// replays, `cluster.shard.requests` for shard-process serving); minor 8
/// added the optional per-decision `partition` field naming the dimension
/// the chosen technique's lowered forward plan splits one sample along
/// (`"sample"`, `"y-band"`, `"out-channel"`; `"x-band"` only from writers
/// that predate the column bands' removal), plus the
/// starved-pool counters (`serve.starved_workers`,
/// `train.starved_workers`) counting workers a pool declined to spawn
/// because the batch had fewer items than the configured pool width.
pub const SCHEMA_VERSION_MINOR: u64 = 8;

/// Identifies the JSON document family in the `schema` field.
pub const SCHEMA_NAME: &str = "spgcnn-metrics";

/// Execution phase a scope attributes its counters to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Forward propagation.
    Forward,
    /// Whole-layer backward propagation (both kernel sub-phases).
    Backward,
    /// The data-gradient kernel inside backward propagation.
    BackwardData,
    /// The weight-gradient kernel inside backward propagation.
    BackwardWeights,
    /// Autotuning / measurement traffic.
    Tune,
    /// Anything else (default attribution bucket).
    Other,
}

impl Phase {
    /// Stable lower-snake name used in the JSON schema.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Forward => "forward",
            Phase::Backward => "backward",
            Phase::BackwardData => "backward_data",
            Phase::BackwardWeights => "backward_weights",
            Phase::Tune => "tune",
            Phase::Other => "other",
        }
    }
}

/// Atomic counter block for one `(label, phase)` bucket.
#[derive(Debug, Default)]
struct PhaseCounters {
    calls: AtomicU64,
    wall_ns: AtomicU64,
    useful_flops: AtomicU64,
    total_flops: AtomicU64,
    tile_nnz: AtomicU64,
    tile_capacity: AtomicU64,
    /// High-water mark of workspace bytes reported in this bucket
    /// (a gauge updated via `fetch_max`, unlike the additive counters).
    workspace_bytes: AtomicU64,
}

/// One candidate timing inside an autotune [`Decision`].
#[derive(Debug, Clone)]
pub struct CandidateTiming {
    /// Executor / technique name as reported by the executor.
    pub technique: String,
    /// Measured mean wall time for the candidate.
    pub wall_ns: u64,
}

/// One candidate the plan-time static verifier refused before measurement.
#[derive(Debug, Clone)]
pub struct RejectedCandidate {
    /// Executor / technique name of the refused candidate.
    pub technique: String,
    /// The verifier's typed refusal, rendered (e.g. the offending access).
    pub reason: String,
}

/// One autotune measure-and-pick decision.
#[derive(Debug, Clone)]
pub struct Decision {
    /// Scope label the decision applies to (e.g. `conv0`).
    pub label: String,
    /// Phase the technique was chosen for.
    pub phase: Phase,
    /// Name of the winning technique.
    pub chosen: String,
    /// Gradient sparsity assumed while measuring.
    pub sparsity: f64,
    /// Core count the candidates were measured at.
    pub cores: usize,
    /// Every measured candidate with its timing.
    pub candidates: Vec<CandidateTiming>,
    /// Candidates the static verifier refused before measurement
    /// (schema minor 4; empty in the common all-candidates-safe case).
    pub rejected: Vec<RejectedCandidate>,
    /// Which stencil forward kernel the contest's stencil candidate bound:
    /// `"specialized"` (codegen registry instance) or `"generic"`
    /// (runtime-parameterized loops). Schema minor 5; `None` on backward
    /// decisions and when the stencil technique was not measured.
    pub kernel: Option<String>,
    /// Backend algorithm identifier the decision chose (e.g.
    /// `"stencil-fp/specialized"` from the autotuner). Schema minor 6;
    /// `None` in documents from older writers and on `serve-conv{i}` rows,
    /// whose installed executors do not expose the bound kernel.
    pub algo: Option<String>,
    /// The dimension the chosen technique's lowered forward plan splits
    /// one sample along: `"sample"` (no split), `"y-band"` or
    /// `"out-channel"` (`"x-band"` in documents from writers that still
    /// had column bands).
    /// Schema minor 8; `None` on backward decisions and in documents from
    /// older writers.
    pub partition: Option<String>,
}

/// Number of power-of-two histogram buckets kept per latency label.
/// Bucket `i` counts samples with `ns` in `[2^i, 2^(i+1))` (bucket 0 also
/// absorbs 0 ns); 40 buckets span sub-microsecond to ~18 minutes.
pub const LATENCY_BUCKETS: usize = 40;

/// Atomic histogram block for one latency label.
struct LatencyCounters {
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for LatencyCounters {
    fn default() -> Self {
        LatencyCounters {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<BTreeMap<(String, Phase), Arc<PhaseCounters>>> = Mutex::new(BTreeMap::new());
static DECISIONS: Mutex<Vec<Decision>> = Mutex::new(Vec::new());
static LATENCIES: Mutex<BTreeMap<String, Arc<LatencyCounters>>> = Mutex::new(BTreeMap::new());
static COUNTERS: Mutex<BTreeMap<String, Arc<AtomicU64>>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// Innermost-last stack of active scopes on this thread.
    static SCOPES: std::cell::RefCell<Vec<(Arc<str>, Arc<PhaseCounters>)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Turns collection on or off. Off is the default; when off, every
/// instrumentation site reduces to one relaxed atomic load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether collection is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears all recorded counters and decisions (scopes currently on any
/// thread's stack keep recording into their detached counter blocks).
pub fn reset() {
    spg_sync::lock(&REGISTRY).clear();
    spg_sync::lock(&DECISIONS).clear();
    spg_sync::lock(&LATENCIES).clear();
    spg_sync::lock(&COUNTERS).clear();
}

fn counters_for(label: &str, phase: Phase) -> Arc<PhaseCounters> {
    let mut registry = spg_sync::lock(&REGISTRY);
    if let Some(existing) = registry.get(&(label.to_string(), phase)) {
        return Arc::clone(existing);
    }
    let fresh = Arc::new(PhaseCounters::default());
    registry.insert((label.to_string(), phase), Arc::clone(&fresh));
    fresh
}

/// RAII guard produced by [`scope`] / [`phase_scope`]: accumulates wall
/// time into its bucket and pops the thread's scope stack on drop.
#[must_use = "a scope guard records on drop; binding it to _ discards it immediately"]
pub struct ScopeGuard {
    active: Option<(Instant, Arc<PhaseCounters>)>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if let Some((start, counters)) = self.active.take() {
            let ns = saturating_nanos(start.elapsed());
            counters.wall_ns.fetch_add(ns, Ordering::Relaxed);
            counters.calls.fetch_add(1, Ordering::Relaxed);
            SCOPES.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }
}

/// Opens a `(label, phase)` scope on the current thread. Kernel-level
/// [`record_flops`] / [`record_tile_occupancy`] calls made while the
/// guard lives are attributed to this bucket. Inert when disabled.
pub fn scope(label: &str, phase: Phase) -> ScopeGuard {
    if !enabled() {
        return ScopeGuard { active: None };
    }
    let counters = counters_for(label, phase);
    SCOPES.with(|stack| {
        stack.borrow_mut().push((Arc::from(label), Arc::clone(&counters)));
    });
    ScopeGuard { active: Some((Instant::now(), counters)) }
}

/// Opens a scope reusing the innermost active label but a different
/// phase — used by layers to split backward into its two kernel
/// sub-phases without knowing their own network position.
pub fn phase_scope(phase: Phase) -> ScopeGuard {
    if !enabled() {
        return ScopeGuard { active: None };
    }
    let label = current_label().unwrap_or_else(|| "unscoped".to_string());
    scope(&label, phase)
}

/// Label of the innermost active scope on this thread, if any.
pub fn current_label() -> Option<String> {
    SCOPES.with(|stack| stack.borrow().last().map(|(label, _)| label.to_string()))
}

fn current_counters() -> Arc<PhaseCounters> {
    SCOPES
        .with(|stack| stack.borrow().last().map(|(_, counters)| Arc::clone(counters)))
        .unwrap_or_else(|| counters_for("unscoped", Phase::Other))
}

/// Records one kernel execution's flop traffic: `useful` flops actually
/// performed versus the `total` a dense execution of the same operator
/// would perform. Goodput for a bucket is `useful / total` (Sec. 3.3).
pub fn record_flops(useful: u64, total: u64) {
    if !enabled() {
        return;
    }
    let counters = current_counters();
    counters.useful_flops.fetch_add(useful, Ordering::Relaxed);
    counters.total_flops.fetch_add(total, Ordering::Relaxed);
}

/// Records CT-CSR tile occupancy observed by a sparse kernel: `nnz`
/// stored values against the `capacity` of a dense matrix of the same
/// shape.
pub fn record_tile_occupancy(nnz: u64, capacity: u64) {
    if !enabled() {
        return;
    }
    let counters = current_counters();
    counters.tile_nnz.fetch_add(nnz, Ordering::Relaxed);
    counters.tile_capacity.fetch_add(capacity, Ordering::Relaxed);
}

/// Records the scratch-workspace footprint a kernel executed out of,
/// attributed to the innermost active scope. A *gauge*, not a counter:
/// the bucket keeps the high-water mark across calls, so steady-state
/// training reports the settled per-`(layer, phase)` workspace size
/// rather than a meaningless running sum.
pub fn record_workspace_bytes(bytes: u64) {
    if !enabled() {
        return;
    }
    let counters = current_counters();
    counters.workspace_bytes.fetch_max(bytes, Ordering::Relaxed);
}

fn latency_counters_for(label: &str) -> Arc<LatencyCounters> {
    let mut registry = spg_sync::lock(&LATENCIES);
    if let Some(existing) = registry.get(label) {
        return Arc::clone(existing);
    }
    let fresh = Arc::new(LatencyCounters::default());
    registry.insert(label.to_string(), Arc::clone(&fresh));
    fresh
}

/// Index of the power-of-two bucket holding `ns`.
fn latency_bucket(ns: u64) -> usize {
    let bits = 64 - ns.leading_zeros() as usize;
    bits.saturating_sub(1).min(LATENCY_BUCKETS - 1)
}

/// A duration in nanoseconds, saturating at `u64::MAX` (~584 years) so
/// instrumentation sites never need a fallible narrowing cast.
#[must_use]
pub fn saturating_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Records one latency observation (in nanoseconds) into the histogram
/// for `label` — e.g. `serve.request` for request turnaround or
/// `serve.batch` for micro-batch processing time. No-op while disabled.
pub fn record_latency_ns(label: &str, ns: u64) {
    if !enabled() {
        return;
    }
    let counters = latency_counters_for(label);
    counters.count.fetch_add(1, Ordering::Relaxed);
    counters.sum_ns.fetch_add(ns, Ordering::Relaxed);
    counters.min_ns.fetch_min(ns, Ordering::Relaxed);
    counters.max_ns.fetch_max(ns, Ordering::Relaxed);
    counters.buckets[latency_bucket(ns)].fetch_add(1, Ordering::Relaxed);
}

/// Logs one autotune decision (no-op while disabled).
pub fn record_decision(decision: Decision) {
    if !enabled() {
        return;
    }
    spg_sync::lock(&DECISIONS).push(decision);
}

/// Adds `delta` to the monotonic event counter named `label` — e.g.
/// `serve.worker_restarts` when a supervisor respawns a crashed serving
/// worker. No-op while disabled. Schema minor 3.
pub fn record_counter(label: &str, delta: u64) {
    if !enabled() {
        return;
    }
    let counter = {
        let mut registry = spg_sync::lock(&COUNTERS);
        if let Some(existing) = registry.get(label) {
            Arc::clone(existing)
        } else {
            let fresh = Arc::new(AtomicU64::new(0));
            registry.insert(label.to_string(), Arc::clone(&fresh));
            fresh
        }
    };
    counter.fetch_add(delta, Ordering::Relaxed);
}

/// Point-in-time copy of one `(label, phase)` bucket.
#[derive(Debug, Clone)]
pub struct ScopeMetrics {
    /// Scope label (e.g. `conv0`).
    pub label: String,
    /// Phase the counters belong to.
    pub phase: Phase,
    /// Number of completed scope entries.
    pub calls: u64,
    /// Accumulated wall time inside the scope, in nanoseconds.
    pub wall_ns: u64,
    /// Flops actually performed.
    pub useful_flops: u64,
    /// Flops a dense execution would have performed.
    pub total_flops: u64,
    /// CT-CSR stored values observed by sparse kernels.
    pub tile_nnz: u64,
    /// Dense capacity corresponding to `tile_nnz`.
    pub tile_capacity: u64,
    /// High-water mark of scratch-workspace bytes reported in this
    /// bucket (0 when no kernel reported a workspace).
    pub workspace_bytes: u64,
}

impl ScopeMetrics {
    /// Goodput ratio `useful / total`, or `None` when no flops were
    /// recorded.
    pub fn goodput(&self) -> Option<f64> {
        if self.total_flops == 0 {
            None
        } else {
            Some(self.useful_flops as f64 / self.total_flops as f64)
        }
    }

    /// Observed CT-CSR tile occupancy `nnz / capacity`, or `None` when no
    /// sparse kernel ran in this bucket.
    pub fn tile_occupancy(&self) -> Option<f64> {
        if self.tile_capacity == 0 {
            None
        } else {
            Some(self.tile_nnz as f64 / self.tile_capacity as f64)
        }
    }
}

/// Point-in-time copy of one latency histogram.
#[derive(Debug, Clone)]
pub struct LatencyMetrics {
    /// Histogram label (e.g. `serve.request`).
    pub label: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations, in nanoseconds.
    pub sum_ns: u64,
    /// Smallest observation (0 when `count == 0`).
    pub min_ns: u64,
    /// Largest observation.
    pub max_ns: u64,
    /// Power-of-two bucket counts: bucket `i` holds observations in
    /// `[2^i, 2^(i+1))` nanoseconds.
    pub buckets: Vec<u64>,
}

impl LatencyMetrics {
    /// Approximate quantile `q` in `[0, 1]` from the histogram: the upper
    /// bound of the bucket containing the `q`-th observation, clamped to
    /// the observed maximum. `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return None;
        }
        // Clamp on both sides: q = 0 still needs the first observation
        // (rank 1), and float rounding in `q * count` must never push the
        // rank past `count` — on a 1-element histogram p100 would
        // otherwise fall off the end of the occupied buckets.
        #[allow(clippy::cast_possible_truncation)] // ceil().max(1.0) is a small positive integer
        let rank = ((q * self.count as f64).ceil().max(1.0) as u64).min(self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if i + 1 >= 64 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
                return Some(upper.min(self.max_ns));
            }
        }
        Some(self.max_ns)
    }
}

/// Point-in-time copy of one monotonic event counter.
#[derive(Debug, Clone)]
pub struct CounterMetrics {
    /// Counter label (e.g. `serve.worker_restarts`).
    pub label: String,
    /// Accumulated value.
    pub value: u64,
}

/// Point-in-time copy of the whole telemetry state.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// All buckets, ordered by `(label, phase)`.
    pub scopes: Vec<ScopeMetrics>,
    /// All autotune decisions, in the order they were taken.
    pub decisions: Vec<Decision>,
    /// All latency histograms, ordered by label (schema minor 2).
    pub latencies: Vec<LatencyMetrics>,
    /// All event counters, ordered by label (schema minor 3).
    pub counters: Vec<CounterMetrics>,
}

impl MetricsSnapshot {
    /// Looks up one bucket by label and phase.
    // lint: allow(test-only) tests read one bucket; production serializes the whole snapshot
    pub fn scope(&self, label: &str, phase: Phase) -> Option<&ScopeMetrics> {
        self.scopes.iter().find(|s| s.label == label && s.phase == phase)
    }

    /// Looks up one latency histogram by label.
    pub fn latency(&self, label: &str) -> Option<&LatencyMetrics> {
        self.latencies.iter().find(|l| l.label == label)
    }

    /// Looks up one event counter's value by label (0 when never bumped).
    pub fn counter(&self, label: &str) -> u64 {
        self.counters.iter().find(|c| c.label == label).map_or(0, |c| c.value)
    }

    /// Serializes to the versioned metrics JSON document (see
    /// `README.md`, section *Observability*, for the schema). `meta`
    /// key/value pairs are embedded verbatim under the `meta` object.
    pub fn to_json(&self, meta: &[(&str, String)]) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", json::string(SCHEMA_NAME)));
        out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
        out.push_str(&format!("  \"schema_version_minor\": {SCHEMA_VERSION_MINOR},\n"));
        out.push_str("  \"meta\": {");
        for (i, (key, value)) in meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", json::string(key), json::string(value)));
        }
        if !meta.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n");
        out.push_str("  \"scopes\": [");
        for (i, scope) in self.scopes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"label\": {}, \"phase\": {}, \"calls\": {}, \"wall_ns\": {}, \
                 \"useful_flops\": {}, \"total_flops\": {}, \"goodput\": {}, \
                 \"tile_nnz\": {}, \"tile_capacity\": {}, \"tile_occupancy\": {}, \
                 \"workspace_bytes\": {}}}",
                json::string(&scope.label),
                json::string(scope.phase.as_str()),
                scope.calls,
                scope.wall_ns,
                scope.useful_flops,
                scope.total_flops,
                json::ratio(scope.goodput()),
                scope.tile_nnz,
                scope.tile_capacity,
                json::ratio(scope.tile_occupancy()),
                scope.workspace_bytes,
            ));
        }
        if !self.scopes.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"decisions\": [");
        for (i, decision) in self.decisions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let candidates: Vec<String> = decision
                .candidates
                .iter()
                .map(|c| {
                    format!(
                        "{{\"technique\": {}, \"wall_ns\": {}}}",
                        json::string(&c.technique),
                        c.wall_ns
                    )
                })
                .collect();
            let rejected: Vec<String> = decision
                .rejected
                .iter()
                .map(|r| {
                    format!(
                        "{{\"technique\": {}, \"reason\": {}}}",
                        json::string(&r.technique),
                        json::string(&r.reason)
                    )
                })
                .collect();
            // `kernel` is a minor-5 optional field: emitted only when the
            // decision carries a stencil kernel choice, so minor-4
            // documents stay byte-identical.
            let kernel = match &decision.kernel {
                Some(k) => format!(", \"kernel\": {}", json::string(k)),
                None => String::new(),
            };
            // `algo` is a minor-6 optional field, emitted the same way so
            // minor-5 documents stay byte-identical.
            let algo = match &decision.algo {
                Some(a) => format!(", \"algo\": {}", json::string(a)),
                None => String::new(),
            };
            // `partition` is the minor-8 optional field, emitted the same
            // way so minor-7 documents stay byte-identical.
            let partition = match &decision.partition {
                Some(p) => format!(", \"partition\": {}", json::string(p)),
                None => String::new(),
            };
            out.push_str(&format!(
                "\n    {{\"label\": {}, \"phase\": {}, \"chosen\": {}, \"sparsity\": {}, \
                 \"cores\": {}, \"candidates\": [{}], \"rejected\": [{}]{}{}{}}}",
                json::string(&decision.label),
                json::string(decision.phase.as_str()),
                json::string(&decision.chosen),
                json::number(decision.sparsity),
                decision.cores,
                candidates.join(", "),
                rejected.join(", "),
                kernel,
                algo,
                partition,
            ));
        }
        if !self.decisions.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"latencies\": [");
        for (i, lat) in self.latencies.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let buckets: Vec<String> = lat.buckets.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "\n    {{\"label\": {}, \"count\": {}, \"sum_ns\": {}, \"min_ns\": {}, \
                 \"max_ns\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \
                 \"buckets\": [{}]}}",
                json::string(&lat.label),
                lat.count,
                lat.sum_ns,
                if lat.count == 0 { 0 } else { lat.min_ns },
                lat.max_ns,
                lat.quantile_ns(0.50).unwrap_or(0),
                lat.quantile_ns(0.95).unwrap_or(0),
                lat.quantile_ns(0.99).unwrap_or(0),
                buckets.join(", "),
            ));
        }
        if !self.latencies.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"counters\": [");
        for (i, counter) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"label\": {}, \"value\": {}}}",
                json::string(&counter.label),
                counter.value,
            ));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Copies the current telemetry state out of the global registry.
pub fn snapshot() -> MetricsSnapshot {
    let registry = spg_sync::lock(&REGISTRY);
    let scopes = registry
        .iter()
        .map(|((label, phase), counters)| ScopeMetrics {
            label: label.clone(),
            phase: *phase,
            calls: counters.calls.load(Ordering::Relaxed),
            wall_ns: counters.wall_ns.load(Ordering::Relaxed),
            useful_flops: counters.useful_flops.load(Ordering::Relaxed),
            total_flops: counters.total_flops.load(Ordering::Relaxed),
            tile_nnz: counters.tile_nnz.load(Ordering::Relaxed),
            tile_capacity: counters.tile_capacity.load(Ordering::Relaxed),
            workspace_bytes: counters.workspace_bytes.load(Ordering::Relaxed),
        })
        .collect();
    drop(registry);
    let decisions = spg_sync::lock(&DECISIONS).clone();
    let latencies = spg_sync::lock(&LATENCIES)
        .iter()
        .map(|(label, counters)| {
            let count = counters.count.load(Ordering::Relaxed);
            LatencyMetrics {
                label: label.clone(),
                count,
                sum_ns: counters.sum_ns.load(Ordering::Relaxed),
                min_ns: if count == 0 { 0 } else { counters.min_ns.load(Ordering::Relaxed) },
                max_ns: counters.max_ns.load(Ordering::Relaxed),
                buckets: counters.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            }
        })
        .collect();
    let counters = spg_sync::lock(&COUNTERS)
        .iter()
        .map(|(label, value)| CounterMetrics {
            label: label.clone(),
            value: value.load(Ordering::Relaxed),
        })
        .collect();
    MetricsSnapshot { scopes, decisions, latencies, counters }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes enable/disable cycles across tests in this module:
    /// telemetry state is process-global and cargo runs tests in
    /// parallel.
    static TEST_GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_records_nothing() {
        let _lock = TEST_GUARD.lock().unwrap();
        reset();
        set_enabled(false);
        let _guard = scope("off", Phase::Forward);
        record_flops(10, 10);
        assert!(snapshot().scope("off", Phase::Forward).is_none());
    }

    #[test]
    fn scope_attributes_flops_and_wall_time() {
        let _lock = TEST_GUARD.lock().unwrap();
        reset();
        set_enabled(true);
        {
            let _guard = scope("layer", Phase::Forward);
            record_flops(30, 40);
            record_flops(10, 20);
        }
        set_enabled(false);
        let snap = snapshot();
        let metrics = snap.scope("layer", Phase::Forward).expect("bucket exists");
        assert_eq!(metrics.calls, 1);
        assert_eq!(metrics.useful_flops, 40);
        assert_eq!(metrics.total_flops, 60);
        assert_eq!(metrics.goodput(), Some(40.0 / 60.0));
    }

    #[test]
    fn nested_phase_scope_reuses_label() {
        let _lock = TEST_GUARD.lock().unwrap();
        reset();
        set_enabled(true);
        {
            let _outer = scope("convX", Phase::Backward);
            {
                let _inner = phase_scope(Phase::BackwardData);
                record_flops(5, 9);
            }
        }
        set_enabled(false);
        let snap = snapshot();
        let inner = snap.scope("convX", Phase::BackwardData).expect("inner bucket");
        assert_eq!((inner.useful_flops, inner.total_flops), (5, 9));
        assert_eq!(snap.scope("convX", Phase::Backward).expect("outer bucket").calls, 1);
    }

    #[test]
    fn unscoped_records_fall_into_default_bucket() {
        let _lock = TEST_GUARD.lock().unwrap();
        reset();
        set_enabled(true);
        record_flops(7, 7);
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.scope("unscoped", Phase::Other).expect("bucket").useful_flops, 7);
    }

    #[test]
    fn tile_occupancy_tracks_nnz() {
        let _lock = TEST_GUARD.lock().unwrap();
        reset();
        set_enabled(true);
        {
            let _guard = scope("sparse", Phase::BackwardData);
            record_tile_occupancy(25, 100);
        }
        set_enabled(false);
        let snap = snapshot();
        let metrics = snap.scope("sparse", Phase::BackwardData).expect("bucket");
        assert_eq!(metrics.tile_occupancy(), Some(0.25));
    }

    #[test]
    fn workspace_bytes_is_a_high_water_gauge() {
        let _lock = TEST_GUARD.lock().unwrap();
        reset();
        set_enabled(true);
        {
            let _guard = scope("conv1", Phase::Forward);
            record_workspace_bytes(4096);
            record_workspace_bytes(16384);
            record_workspace_bytes(8192);
        }
        set_enabled(false);
        let snap = snapshot();
        let metrics = snap.scope("conv1", Phase::Forward).expect("bucket");
        assert_eq!(metrics.workspace_bytes, 16384);
    }

    #[test]
    fn latency_histogram_tracks_quantiles() {
        let _lock = TEST_GUARD.lock().unwrap();
        reset();
        set_enabled(true);
        // 90 fast observations and 10 slow ones: p50 lands in the fast
        // bucket, p99 in the slow one.
        for _ in 0..90 {
            record_latency_ns("serve.request", 1_000);
        }
        for _ in 0..10 {
            record_latency_ns("serve.request", 1_000_000);
        }
        set_enabled(false);
        let snap = snapshot();
        let lat = snap.latency("serve.request").expect("histogram exists");
        assert_eq!(lat.count, 100);
        assert_eq!(lat.min_ns, 1_000);
        assert_eq!(lat.max_ns, 1_000_000);
        assert_eq!(lat.sum_ns, 90 * 1_000 + 10 * 1_000_000);
        let p50 = lat.quantile_ns(0.50).unwrap();
        let p99 = lat.quantile_ns(0.99).unwrap();
        assert!(p50 < 2_048, "p50 {p50} should sit in the 1 us bucket");
        assert!(p99 >= 524_288, "p99 {p99} should sit in the 1 ms bucket");
        assert_eq!(lat.buckets.iter().sum::<u64>(), 100);
    }

    #[test]
    fn latency_disabled_records_nothing() {
        let _lock = TEST_GUARD.lock().unwrap();
        reset();
        set_enabled(false);
        record_latency_ns("off", 42);
        assert!(snapshot().latency("off").is_none());
    }

    #[test]
    fn latency_bucket_indexing_is_monotone() {
        assert_eq!(latency_bucket(0), 0);
        assert_eq!(latency_bucket(1), 0);
        assert_eq!(latency_bucket(2), 1);
        assert_eq!(latency_bucket(3), 1);
        assert_eq!(latency_bucket(1024), 10);
        assert_eq!(latency_bucket(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn json_round_trips_through_validator() {
        let _lock = TEST_GUARD.lock().unwrap();
        reset();
        set_enabled(true);
        {
            let _guard = scope("conv0", Phase::Forward);
            record_flops(100, 100);
        }
        record_decision(Decision {
            label: "conv0".to_string(),
            phase: Phase::Backward,
            chosen: "sparse-bp".to_string(),
            sparsity: 0.85,
            cores: 4,
            candidates: vec![
                CandidateTiming { technique: "sparse-bp".to_string(), wall_ns: 10 },
                CandidateTiming { technique: "unfold+gemm".to_string(), wall_ns: 25 },
            ],
            rejected: vec![RejectedCandidate {
                technique: "bad-plan".to_string(),
                reason: "out-of-bounds read of output".to_string(),
            }],
            kernel: None,
            algo: None,
            partition: None,
        });
        record_decision(Decision {
            label: "conv0".to_string(),
            phase: Phase::Forward,
            chosen: "stencil-fp".to_string(),
            sparsity: 0.0,
            cores: 4,
            candidates: vec![CandidateTiming { technique: "stencil-fp".to_string(), wall_ns: 7 }],
            rejected: vec![],
            kernel: Some("specialized".to_string()),
            algo: Some("stencil-fp/specialized".to_string()),
            partition: Some("y-band".to_string()),
        });
        set_enabled(false);
        let text = snapshot().to_json(&[("command", "test".to_string())]);
        json::validate_metrics(&text).expect("snapshot JSON validates against the schema");
        assert!(text.contains("\"kernel\": \"specialized\""), "minor-5 field emitted");
        assert!(
            text.contains("\"algo\": \"stencil-fp/specialized\""),
            "minor-6 algo field emitted"
        );
        assert!(text.contains("\"partition\": \"y-band\""), "minor-8 partition field emitted");
    }

    #[test]
    fn multithreaded_scopes_are_independent() {
        let _lock = TEST_GUARD.lock().unwrap();
        reset();
        set_enabled(true);
        std::thread::scope(|threads| {
            for worker in 0..4 {
                threads.spawn(move || {
                    let label = format!("worker{worker}");
                    let _guard = scope(&label, Phase::Forward);
                    record_flops(100, 100);
                });
            }
        });
        set_enabled(false);
        let snap = snapshot();
        for worker in 0..4 {
            let label = format!("worker{worker}");
            let metrics = snap.scope(&label, Phase::Forward).expect("per-thread bucket");
            assert_eq!((metrics.calls, metrics.useful_flops), (1, 100));
        }
    }

    #[test]
    fn quantiles_pinned_on_known_inputs() {
        let _lock = TEST_GUARD.lock().unwrap();
        reset();
        set_enabled(true);
        // 100 observations spread over three well-separated buckets:
        // 50 at ~1 us, 48 at ~16 us, 2 at ~1 ms.
        for _ in 0..50 {
            record_latency_ns("pinned", 1_000);
        }
        for _ in 0..48 {
            record_latency_ns("pinned", 16_000);
        }
        for _ in 0..2 {
            record_latency_ns("pinned", 1_000_000);
        }
        set_enabled(false);
        let lat = snapshot().latency("pinned").cloned().expect("histogram exists");
        // rank(0.50) = 50: last observation of the 1 us bucket [512, 1024).
        assert_eq!(lat.quantile_ns(0.50), Some(1_023));
        // rank(0.99) = 99: first of the two 1 ms observations; the bucket
        // upper bound exceeds max_ns, so the clamp reports max_ns.
        assert_eq!(lat.quantile_ns(0.99), Some(1_000_000));
        // rank(1.00) = 100 = count: must not run past the histogram.
        assert_eq!(lat.quantile_ns(1.0), Some(1_000_000));
        assert_eq!(lat.quantile_ns(0.0), Some(1_023));
    }

    #[test]
    fn one_element_histogram_has_sane_p0_and_p100() {
        let _lock = TEST_GUARD.lock().unwrap();
        reset();
        set_enabled(true);
        record_latency_ns("single", 5_000);
        set_enabled(false);
        let lat = snapshot().latency("single").cloned().expect("histogram exists");
        // Every quantile of a single observation is that observation
        // (clamped to max_ns); p100's rank must clamp to count = 1
        // instead of scanning past the only occupied bucket.
        assert_eq!(lat.quantile_ns(0.0), Some(5_000));
        assert_eq!(lat.quantile_ns(0.5), Some(5_000));
        assert_eq!(lat.quantile_ns(1.0), Some(5_000));
    }

    #[test]
    fn counters_accumulate_and_appear_in_json() {
        let _lock = TEST_GUARD.lock().unwrap();
        reset();
        set_enabled(true);
        record_counter("serve.worker_restarts", 1);
        record_counter("serve.worker_restarts", 2);
        record_counter("serve.faulted_batches", 1);
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.counter("serve.worker_restarts"), 3);
        assert_eq!(snap.counter("serve.faulted_batches"), 1);
        assert_eq!(snap.counter("never.bumped"), 0);
        let text = snap.to_json(&[]);
        assert!(text.contains("\"counters\""));
        json::validate_metrics(&text).expect("counters validate against schema minor 3");
    }

    #[test]
    fn counters_disabled_record_nothing() {
        let _lock = TEST_GUARD.lock().unwrap();
        reset();
        set_enabled(false);
        record_counter("off", 5);
        assert!(snapshot().counters.is_empty());
    }
}
