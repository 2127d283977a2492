//! An in-process, thread-safe compile/schedule service on top of
//! [`tpn::CompiledLoop`] — the long-running layer behind `tpnc serve`.
//!
//! Architecture (see DESIGN.md "Service layer"):
//!
//! ```text
//! submit ──► bounded admission queue ──► worker pool ──► caller's reply
//!                │ full: typed               │            callback
//!                ▼ Overloaded                ▼
//!           (rejected, depth)      sharded LRU cache of
//!                                  Arc<CompiledLoop> (hit: reuse
//!                                  every memoized artifact)
//! ```
//!
//! * **Backpressure**: [`Service::submit`] never blocks — a full queue
//!   returns a typed [`Overloaded`] carrying the observed depth, so
//!   callers shed load instead of hanging.
//! * **Caching**: results are keyed by
//!   [`protocol::cache_key`] (normalized source ⊕ options fingerprint)
//!   and hold `Arc<CompiledLoop>`; the facade's internal memoization
//!   means a hit shares the frustum report, schedule, rate reports and
//!   SCP runs by depth with every other holder.
//! * **Deadlines**: a per-request wall-clock budget checked between
//!   pipeline stages (admission → compile → artifact build), on top of
//!   the engine's own [`tpn::CompileOptions::step_budget`].
//! * **Cancellation**: cooperative — [`Canceller::cancel`] flips a flag
//!   the worker re-checks at the same stage boundaries.
//! * **Panic isolation**: a request that panics mid-compile poisons only
//!   itself (`panic` error response); the worker survives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod limiter;
pub mod protocol;
mod queue;
pub mod store;

pub use limiter::{RateLimit, RateLimited};
pub use queue::Overloaded;

use std::collections::VecDeque;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cache::ShardedCache;
use limiter::{ClientLimiter, InFlightGuard};
use protocol::{error_envelope, ok_envelope, Request, Verb};
use serde::Serialize;
use store::ArtifactStore;
use tpn::metrics::{latency_slot, HistogramBucket, ServiceCounters, VerbCounters};
use tpn::CompiledLoop;

/// Result-cache shards: one lock each, with the cache capacity split
/// evenly across them.
const CACHE_SHARDS: usize = 8;

/// Request-journal ring capacity: the window the `journal` verb can look
/// back over.
const JOURNAL_RING: usize = 256;

/// Tuning knobs for one [`Service`], built with
/// [`ServiceConfig::builder`]:
///
/// ```
/// use tpn_service::ServiceConfig;
///
/// let config = ServiceConfig::builder()
///     .workers(2)
///     .queue(128)
///     .build()
///     .unwrap();
/// # let _ = config;
/// ```
///
/// `Default` matches the historical knobs: `default_threads()` workers,
/// a 64-deep queue, a 4096-weight cache over 8 shards, no store, no rate
/// limit. A request's deadline comes only from its own `deadline_ms`.
/// Every service keeps the last 256 request-journal events.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    workers: usize,
    queue_capacity: usize,
    cache_capacity: u64,
    store_path: Option<PathBuf>,
    rate_limit: Option<RateLimit>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: tpn::batch::default_threads(),
            queue_capacity: 64,
            cache_capacity: 4096,
            store_path: None,
            rate_limit: None,
        }
    }
}

impl ServiceConfig {
    /// A builder over the defaults.
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder {
            config: ServiceConfig::default(),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The configured admission-queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// The configured store root, when persistence is on.
    pub fn store_path(&self) -> Option<&std::path::Path> {
        self.store_path.as_deref()
    }
}

/// An invalid knob combination, reported by
/// [`ServiceConfigBuilder::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError(String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid service config: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Builds a [`ServiceConfig`] fluent-style; validation happens once, at
/// [`build`](Self::build).
#[derive(Clone, Debug)]
pub struct ServiceConfigBuilder {
    config: ServiceConfig,
}

impl ServiceConfigBuilder {
    /// Worker threads draining the admission queue (must be ≥ 1).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Admission-queue capacity; pushes beyond it get [`Overloaded`]
    /// (must be ≥ 1).
    #[must_use]
    pub fn queue(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Total result-cache weight across all shards (must be ≥ 1).
    #[must_use]
    pub fn cache(mut self, capacity: u64) -> Self {
        self.config.cache_capacity = capacity;
        self
    }

    /// Persists compiled artifacts under this directory and warm-starts
    /// the cache from it on boot.
    #[must_use]
    pub fn store(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.store_path = Some(path.into());
        self
    }

    /// Enforces per-client fairness: a token bucket plus an in-flight
    /// cap per client id.
    #[must_use]
    pub fn rate_limit(mut self, limit: RateLimit) -> Self {
        self.config.rate_limit = Some(limit);
        self
    }

    /// Validates and returns the config.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the first invalid knob.
    pub fn build(self) -> Result<ServiceConfig, ConfigError> {
        let c = &self.config;
        if c.workers == 0 {
            return Err(ConfigError("workers must be >= 1".into()));
        }
        if c.queue_capacity == 0 {
            return Err(ConfigError("queue capacity must be >= 1".into()));
        }
        if c.cache_capacity == 0 {
            return Err(ConfigError("cache capacity must be >= 1".into()));
        }
        if let Some(limit) = &c.rate_limit {
            if limit.per_second == 0 {
                return Err(ConfigError("rate limit per_second must be >= 1".into()));
            }
            if limit.burst == 0 {
                return Err(ConfigError("rate limit burst must be >= 1".into()));
            }
            if limit.max_in_flight == 0 {
                return Err(ConfigError("rate limit max_in_flight must be >= 1".into()));
            }
        }
        Ok(self.config)
    }
}

/// A typed admission rejection: nothing was enqueued either way.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Rejected {
    /// The admission queue is full (global backpressure).
    Overloaded(Overloaded),
    /// This client's token bucket is empty or its in-flight cap is
    /// reached (per-client fairness).
    RateLimited(RateLimited),
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::Overloaded(e) => e.fmt(f),
            Rejected::RateLimited(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for Rejected {}

// ---------------------------------------------------------------------------
// The structured request journal.
// ---------------------------------------------------------------------------

/// One request's journal record: what ran, where the compiled loop came
/// from, which engine the decision resolved to and why, where the time
/// went, and how it ended. Serialized as one NDJSON line per event.
#[derive(Clone, Debug, Serialize)]
pub struct JournalEvent {
    /// Monotone event number (1-based; survives ring eviction).
    pub seq: u64,
    /// The request's correlation id.
    pub id: u64,
    /// The verb's wire name.
    pub verb: String,
    /// The request's [`protocol::cache_key`] as 16 hex digits.
    pub source_digest: String,
    /// Cache tier: `"hot"` (cache hit), `"miss"` (compiled), `"none"`
    /// (never reached the cache).
    pub cache: String,
    /// The resolved schedule engine, once the loop compiled.
    pub engine: Option<String>,
    /// The engine-decision reason ([`tpn::CompiledLoop::engine_audit`]).
    pub engine_reason: Option<String>,
    /// Admission-queue wait before a worker picked the request up.
    pub queue_wait_micros: u64,
    /// Cache lookup + (on miss) compile time.
    pub compile_micros: u64,
    /// Artifact-build time (schedule, trace, witness, …).
    pub build_micros: u64,
    /// Admission-to-response wall time.
    pub total_micros: u64,
    /// `"ok"`, `"overloaded"`, `"deadline"`, `"cancelled"`,
    /// `"panicked"`, `"compile"`, or `"bad_request"`.
    pub outcome: String,
}

struct JournalState {
    seq: u64,
    ring: VecDeque<JournalEvent>,
    sink: Option<Box<dyn Write + Send>>,
}

/// The bounded journal: the last [`JOURNAL_RING`] events under one cheap
/// lock (events are built outside it), plus an optional NDJSON sink.
struct Journal {
    state: Mutex<JournalState>,
}

impl Journal {
    fn new() -> Journal {
        Journal {
            state: Mutex::new(JournalState {
                seq: 0,
                ring: VecDeque::with_capacity(JOURNAL_RING),
                sink: None,
            }),
        }
    }

    fn record(&self, mut event: JournalEvent) {
        let mut state = self.state.lock().expect("journal lock");
        state.seq += 1;
        event.seq = state.seq;
        if let Some(sink) = state.sink.as_mut() {
            let mut line = serde_json::to_string(&event).expect("shim serializer is infallible");
            line.push('\n');
            let _ = sink.write_all(line.as_bytes());
            let _ = sink.flush();
        }
        if state.ring.len() == JOURNAL_RING {
            state.ring.pop_front();
        }
        state.ring.push_back(event);
    }
}

/// A completed request's outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// The request's correlation id.
    pub id: u64,
    /// The verb that ran.
    pub verb: Verb,
    /// Whether the response is a success envelope.
    pub ok: bool,
    /// Whether the compiled loop came from the result cache. Not part
    /// of [`line`](Self::line): cached and uncached responses are
    /// byte-identical.
    pub cache_hit: bool,
    /// The single-line NDJSON response.
    pub line: String,
}

/// Cancels one admitted request cooperatively: the worker honours it at
/// the next stage boundary (a request already past its last check
/// still completes normally).
#[derive(Clone)]
pub struct Canceller(Arc<AtomicBool>);

impl Canceller {
    /// Requests cancellation.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

struct Job {
    request: Request,
    reply: Box<dyn FnOnce(Response) + Send>,
    cancel: Arc<AtomicBool>,
    admitted: Instant,
    deadline: Option<Instant>,
    /// The client's in-flight slot; released when the job is dropped
    /// (after the response is sent).
    _in_flight: Option<InFlightGuard>,
}

#[derive(Default)]
struct PerVerb {
    accepted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
}

struct Counters {
    accepted: AtomicU64,
    completed: AtomicU64,
    rejected_overloaded: AtomicU64,
    rate_limited: AtomicU64,
    deadline_expired: AtomicU64,
    cancelled: AtomicU64,
    panicked: AtomicU64,
    latencies: Latencies,
    /// One row per [`Verb::ALL`] entry. Counts requests by verb —
    /// including the front-end verbs (`metrics`, `metrics_prometheus`,
    /// `journal`) that never enter the admission queue, so the per-verb
    /// sums can exceed the queue-level `accepted`.
    per_verb: Vec<PerVerb>,
}

impl Counters {
    fn new() -> Counters {
        Counters {
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected_overloaded: AtomicU64::new(0),
            rate_limited: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            latencies: Latencies::new(),
            per_verb: Verb::ALL.iter().map(|_| PerVerb::default()).collect(),
        }
    }

    fn verb(&self, verb: Verb) -> &PerVerb {
        &self.per_verb[verb.index()]
    }
}

/// Request latencies in fixed atomic buckets, one per
/// [`latency_slot`]: recording is O(1) and the memory is the same after
/// any number of requests. Only the sum and the max are exact.
struct Latencies {
    slots: [AtomicU64; 64],
    sum_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl Latencies {
    fn new() -> Latencies {
        Latencies {
            slots: [const { AtomicU64::new(0) }; 64],
            sum_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }

    fn record(&self, nanos: u64) {
        self.slots[latency_slot(nanos)].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// The buckets up to the last non-empty one, exactly as
    /// [`tpn::metrics::latency_histogram`] builds them from the samples.
    fn histogram(&self) -> Vec<HistogramBucket> {
        let counts: Vec<u64> = self
            .slots
            .iter()
            .map(|slot| slot.load(Ordering::Relaxed))
            .collect();
        let last = counts.iter().rposition(|&count| count > 0).unwrap_or(0);
        (0..=last)
            .map(|k| HistogramBucket {
                le_micros: 1 << k,
                count: counts[k],
            })
            .collect()
    }

    /// The `p`-th percentile of `histogram` in microseconds: the upper
    /// bound of the bucket holding the nearest rank, clamped to the
    /// slowest request. 0 when nothing was recorded.
    fn percentile_micros(&self, histogram: &[HistogramBucket], p: f64) -> u64 {
        let total: u64 = histogram.iter().map(|b| b.count).sum();
        let rank = ((p * total as f64).ceil() as u64).clamp(1, total.max(1));
        let mut seen = 0;
        let bound = histogram
            .iter()
            .find(|b| {
                seen += b.count;
                seen >= rank
            })
            .map_or(0, |b| b.le_micros);
        bound.min(self.max_nanos.load(Ordering::Relaxed).div_ceil(1_000))
    }
}

struct Inner {
    queue: queue::BoundedQueue<Job>,
    cache: ShardedCache,
    counters: Counters,
    workers: usize,
    journal: Journal,
    store: Option<ArtifactStore>,
    limiter: Option<ClientLimiter>,
}

/// The compile service: a bounded queue, a worker pool, and a sharded
/// result cache. Dropping the service closes the queue and joins the
/// workers (in-flight requests complete first).
pub struct Service {
    inner: Arc<Inner>,
    threads: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts `config.workers` worker threads, warm-starting the cache
    /// from the persistent store when one is configured.
    ///
    /// # Panics
    ///
    /// When the configured store directory cannot be opened; use
    /// [`try_start`](Self::try_start) to handle that as a result.
    pub fn start(config: ServiceConfig) -> Self {
        Self::try_start(config).expect("open artifact store")
    }

    /// [`start`](Self::start), reporting store I/O errors instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// Any I/O error opening the store layout (services without a store
    /// are infallible).
    pub fn try_start(config: ServiceConfig) -> std::io::Result<Self> {
        let store = match &config.store_path {
            Some(path) => Some(ArtifactStore::open(path)?),
            None => None,
        };
        let cache = ShardedCache::new(CACHE_SHARDS, config.cache_capacity);
        if let Some(store) = &store {
            // Warm start: committed entries re-enter the LRU oldest
            // first, so the most recently spilled are the most recent.
            for (key, lp) in store.load() {
                cache.insert(key, lp);
            }
        }
        let inner = Arc::new(Inner {
            queue: queue::BoundedQueue::new(config.queue_capacity),
            cache,
            counters: Counters::new(),
            workers: config.workers.max(1),
            journal: Journal::new(),
            store,
            limiter: config.rate_limit.map(ClientLimiter::new),
        });
        let threads = (0..config.workers.max(1))
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("tpn-service-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn service worker")
            })
            .collect();
        Ok(Service { inner, threads })
    }

    /// Records an admission rejection in the journal.
    fn journal_rejection(&self, request: &Request, outcome: &str) {
        self.inner.journal.record(JournalEvent {
            seq: 0,
            id: request.id,
            verb: request.verb.as_str().into(),
            source_digest: format!(
                "{:016x}",
                protocol::cache_key(&request.source, &request.options)
            ),
            cache: "none".into(),
            engine: None,
            engine_reason: None,
            queue_wait_micros: 0,
            compile_micros: 0,
            build_micros: 0,
            total_micros: 0,
            outcome: outcome.into(),
        });
    }

    /// Submits a request for asynchronous execution. A worker calls
    /// `reply` with the [`Response`] once it completes, on the worker
    /// thread, after the journal record and before the request's
    /// rate-limit slot is released. Nothing is called for a rejected
    /// request.
    ///
    /// # Errors
    ///
    /// [`Rejected::Overloaded`] when the admission queue is full,
    /// [`Rejected::RateLimited`] when the client's token bucket is empty
    /// or its in-flight cap is reached; nothing was enqueued either way.
    pub fn submit(
        &self,
        request: Request,
        reply: impl FnOnce(Response) + Send + 'static,
    ) -> Result<Canceller, Rejected> {
        let in_flight = match &self.inner.limiter {
            Some(limiter) => match limiter.acquire(request.client.as_deref().unwrap_or_default()) {
                Ok(guard) => Some(guard),
                Err(limited) => {
                    self.inner
                        .counters
                        .rate_limited
                        .fetch_add(1, Ordering::Relaxed);
                    self.journal_rejection(&request, "rate_limited");
                    return Err(Rejected::RateLimited(limited));
                }
            },
            None => None,
        };
        let cancel = Arc::new(AtomicBool::new(false));
        let now = Instant::now();
        let deadline = request
            .deadline_ms
            .map(|budget| now + Duration::from_millis(budget));
        let job = Job {
            reply: Box::new(reply),
            cancel: cancel.clone(),
            admitted: now,
            deadline,
            request,
            _in_flight: in_flight,
        };
        let verb = job.request.verb;
        match self.inner.queue.push(job) {
            Ok(()) => {
                self.inner.counters.accepted.fetch_add(1, Ordering::Relaxed);
                self.inner
                    .counters
                    .verb(verb)
                    .accepted
                    .fetch_add(1, Ordering::Relaxed);
                Ok(Canceller(cancel))
            }
            Err((job, overloaded)) => {
                self.inner
                    .counters
                    .rejected_overloaded
                    .fetch_add(1, Ordering::Relaxed);
                self.journal_rejection(&job.request, "overloaded");
                Err(Rejected::Overloaded(overloaded))
            }
        }
    }

    /// Submits and waits: the synchronous convenience wrapper.
    ///
    /// # Errors
    ///
    /// [`Rejected`] when admission turns the request away.
    pub fn call(&self, request: Request) -> Result<Response, Rejected> {
        let (reply, response) = mpsc::channel();
        self.submit(request, move |r| {
            let _ = reply.send(r);
        })?;
        Ok(response
            .recv()
            .expect("a worker answers every admitted request"))
    }

    /// A snapshot of the service's counters (the `metrics` verb's
    /// payload).
    pub fn counters(&self) -> ServiceCounters {
        let c = &self.inner.counters;
        let latency = c.latencies.histogram();
        let per_verb = Verb::ALL
            .iter()
            .map(|&v| {
                let p = c.verb(v);
                VerbCounters {
                    verb: v.as_str().into(),
                    accepted: p.accepted.load(Ordering::Relaxed),
                    completed: p.completed.load(Ordering::Relaxed),
                    failed: p.failed.load(Ordering::Relaxed),
                }
            })
            .filter(|r| r.accepted + r.completed + r.failed > 0)
            .collect();
        ServiceCounters {
            workers: self.inner.workers,
            queue_capacity: self.inner.queue.capacity(),
            accepted: c.accepted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            rejected_overloaded: c.rejected_overloaded.load(Ordering::Relaxed),
            rate_limited: c.rate_limited.load(Ordering::Relaxed),
            deadline_expired: c.deadline_expired.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
            panicked: c.panicked.load(Ordering::Relaxed),
            max_queue_depth: self.inner.queue.max_depth(),
            p50_micros: c.latencies.percentile_micros(&latency, 0.50),
            p99_micros: c.latencies.percentile_micros(&latency, 0.99),
            latency_sum_micros: c
                .latencies
                .sum_nanos
                .load(Ordering::Relaxed)
                .div_ceil(1_000),
            latency,
            per_verb,
            cache: self.inner.cache.counters(),
            store: self.inner.store.as_ref().map(ArtifactStore::counters),
        }
    }

    /// The result cache's live entry count (tests use it to assert
    /// eviction behaviour).
    pub fn cache_len(&self) -> usize {
        self.inner.cache.len()
    }

    /// The last 256 journal events, oldest first.
    pub fn journal_events(&self) -> Vec<JournalEvent> {
        let state = self.inner.journal.state.lock().expect("journal lock");
        state.ring.iter().cloned().collect()
    }

    /// Attaches an NDJSON sink: every journal event is also written to
    /// it as one line (`tpnc serve --journal FILE`).
    pub fn set_journal_sink(&self, sink: Box<dyn Write + Send>) {
        self.inner.journal.state.lock().expect("journal lock").sink = Some(sink);
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.inner.queue.close();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One executed request's full outcome: the response pieces plus the
/// audit fields the journal records.
struct Exec {
    ok: bool,
    cache_hit: bool,
    line: String,
    outcome: &'static str,
    tier: &'static str,
    engine: Option<String>,
    engine_reason: Option<String>,
    compile_micros: u64,
    build_micros: u64,
}

impl Exec {
    fn failed(line: String, outcome: &'static str) -> Exec {
        Exec {
            ok: false,
            cache_hit: false,
            line,
            outcome,
            tier: "none",
            engine: None,
            engine_reason: None,
            compile_micros: 0,
            build_micros: 0,
        }
    }
}

fn duration_micros(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

fn worker_loop(inner: &Inner) {
    while let Some(job) = inner.queue.pop() {
        let started = Instant::now();
        let id = job.request.id;
        let verb = job.request.verb;
        let admitted = job.admitted;
        let key = protocol::cache_key(&job.request.source, &job.request.options);
        let outcome = catch_unwind(AssertUnwindSafe(|| execute(inner, &job, key)));
        let exec = match outcome {
            Ok(exec) => {
                if exec.ok {
                    inner.counters.completed.fetch_add(1, Ordering::Relaxed);
                    inner
                        .counters
                        .verb(verb)
                        .completed
                        .fetch_add(1, Ordering::Relaxed);
                } else {
                    inner
                        .counters
                        .verb(verb)
                        .failed
                        .fetch_add(1, Ordering::Relaxed);
                }
                exec
            }
            Err(payload) => {
                inner.counters.panicked.fetch_add(1, Ordering::Relaxed);
                inner
                    .counters
                    .verb(verb)
                    .failed
                    .fetch_add(1, Ordering::Relaxed);
                // The panic may have poisoned the compiled loop's
                // internal stage locks; drop it from the cache so the
                // next same-key request recompiles cleanly.
                if !matches!(
                    verb,
                    Verb::Cancel | Verb::Metrics | Verb::MetricsPrometheus | Verb::Journal
                ) {
                    inner.cache.remove(key);
                }
                Exec::failed(
                    error_envelope(
                        id,
                        Some(verb),
                        "panic",
                        &tpn::batch::panic_message(&*payload),
                        None,
                        None,
                    ),
                    "panicked",
                )
            }
        };
        let nanos = admitted.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        inner.counters.latencies.record(nanos);
        inner.journal.record(JournalEvent {
            seq: 0,
            id,
            verb: verb.as_str().into(),
            source_digest: format!("{key:016x}"),
            cache: exec.tier.into(),
            engine: exec.engine,
            engine_reason: exec.engine_reason,
            queue_wait_micros: duration_micros(started.duration_since(admitted)),
            compile_micros: exec.compile_micros,
            build_micros: exec.build_micros,
            total_micros: nanos.div_ceil(1_000),
            outcome: exec.outcome.into(),
        });
        // The rest of the job, its rate-limit slot included, drops after
        // the reply.
        (job.reply)(Response {
            id,
            verb,
            ok: exec.ok,
            cache_hit: exec.cache_hit,
            line: exec.line,
        });
    }
}

/// Runs one request (whose cache key is `key`) to a rendered response
/// line plus its audit fields.
fn execute(inner: &Inner, job: &Job, key: u64) -> Exec {
    let req = &job.request;
    let id = req.id;
    let verb = req.verb;

    // Stage boundary 1: admission → compile.
    if let Some((line, kind)) = interruption(inner, job) {
        return Exec::failed(line, kind);
    }

    if verb == Verb::Cancel {
        // The serve front-end resolves cancel against its in-flight
        // table; a cancel that reaches a worker targets an unknown
        // request.
        let line = error_envelope(
            id,
            Some(verb),
            "bad_request",
            "cancel target is not in flight",
            None,
            None,
        );
        return Exec::failed(line, "bad_request");
    }
    if matches!(
        verb,
        Verb::Metrics | Verb::MetricsPrometheus | Verb::Journal
    ) {
        // These read service state the worker pool cannot see; the
        // serve front-end answers them without queueing.
        let line = error_envelope(
            id,
            Some(verb),
            "bad_request",
            &format!(
                "verb {:?} is served by the serve front-end, not the worker pool",
                verb.as_str()
            ),
            None,
            None,
        );
        return Exec::failed(line, "bad_request");
    }

    let compile_start = Instant::now();
    let lookup = inner.cache.get(key);
    let tier = if lookup.is_some() { "hot" } else { "miss" };
    let (lp, cache_hit) = match lookup {
        Some(lp) => (lp, true),
        None => match CompiledLoop::from_source_with(&req.source, req.options.clone()) {
            Ok(lp) => {
                let lp = Arc::new(lp);
                inner.cache.insert(key, lp.clone());
                if let Some(store) = &inner.store {
                    // Best-effort persistence: a spill failure only
                    // bumps the store's error counter; the in-memory
                    // response already succeeded.
                    let _ = store.spill(key, &lp, &req.options);
                }
                (lp, false)
            }
            Err(e) => {
                let line = error_envelope(id, Some(verb), "compile", &e.to_string(), None, None);
                let mut exec = Exec::failed(line, "compile");
                exec.tier = tier;
                exec.compile_micros = duration_micros(compile_start.elapsed());
                return exec;
            }
        },
    };
    let audit = lp.engine_audit();
    let mut exec = Exec {
        ok: false,
        cache_hit,
        line: String::new(),
        outcome: "ok",
        tier,
        engine: Some(audit.resolved.as_str().to_string()),
        engine_reason: Some(audit.reason),
        compile_micros: duration_micros(compile_start.elapsed()),
        build_micros: 0,
    };

    // Stage boundary 2: compile → artifact build.
    if let Some((line, kind)) = interruption(inner, job) {
        exec.line = line;
        exec.outcome = kind;
        return exec;
    }

    let file = None;
    let build_start = Instant::now();
    let payload = match verb {
        Verb::Analyze => protocol::analyze_payload(&lp, file).map(|p| to_json(&p)),
        Verb::Schedule => protocol::schedule_payload(&lp, req.depth, file).map(|p| to_json(&p)),
        Verb::Rate => protocol::rate_payload(&lp, req.depth, file).map(|p| to_json(&p)),
        Verb::Scp => {
            let depth = req.depth.expect("protocol validated scp depth");
            protocol::schedule_payload(&lp, Some(depth), file).map(|p| to_json(&p))
        }
        Verb::Trace => protocol::trace_payload_json(&lp, req.depth, file),
        Verb::Storage => protocol::storage_payload(&lp, file).map(|p| to_json(&p)),
        Verb::Explain => protocol::explain_payload(&lp, file).map(|p| to_json(&p)),
        Verb::Metrics | Verb::MetricsPrometheus | Verb::Journal | Verb::Cancel => {
            unreachable!("front-end verbs return early above")
        }
    };
    exec.build_micros = duration_micros(build_start.elapsed());

    // Stage boundary 3: artifact build → response. A request that blew
    // its deadline inside a stage still reports it, matching the step
    // budget's "checked between instants" semantics.
    if let Some((line, kind)) = interruption(inner, job) {
        exec.line = line;
        exec.outcome = kind;
        return exec;
    }

    match payload {
        Ok(json) => {
            exec.ok = true;
            exec.line = ok_envelope(id, verb, &json);
        }
        Err(e) => {
            exec.line = error_envelope(id, Some(verb), "compile", &e.to_string(), None, None);
            exec.outcome = "compile";
        }
    }
    exec
}

/// Checks the job's cancel flag and wall-clock deadline; returns the
/// error response line and the journal outcome when either fired.
fn interruption(inner: &Inner, job: &Job) -> Option<(String, &'static str)> {
    let id = job.request.id;
    let verb = job.request.verb;
    if job.cancel.load(Ordering::Relaxed) {
        inner.counters.cancelled.fetch_add(1, Ordering::Relaxed);
        return Some((
            error_envelope(id, Some(verb), "cancelled", "request cancelled", None, None),
            "cancelled",
        ));
    }
    if let Some(deadline) = job.deadline {
        if Instant::now() > deadline {
            inner
                .counters
                .deadline_expired
                .fetch_add(1, Ordering::Relaxed);
            return Some((
                error_envelope(
                    id,
                    Some(verb),
                    "deadline",
                    "wall-clock deadline expired",
                    None,
                    None,
                ),
                "deadline",
            ));
        }
    }
    None
}

fn to_json<T: serde::Serialize>(payload: &T) -> String {
    serde_json::to_string(payload).expect("shim serializer is infallible")
}

/// Records a front-end verb (never queued) in the per-verb counters.
fn front_end_counts(service: &Service, verb: Verb, ok: bool) {
    let p = service.inner.counters.verb(verb);
    p.accepted.fetch_add(1, Ordering::Relaxed);
    if ok {
        p.completed.fetch_add(1, Ordering::Relaxed);
    } else {
        p.failed.fetch_add(1, Ordering::Relaxed);
    }
}

/// Handles the `metrics` verb against a running service: never queued
/// (it must succeed under overload) and never cached.
pub fn metrics_response(service: &Service, id: u64) -> Response {
    front_end_counts(service, Verb::Metrics, true);
    let payload = to_json(&service.counters());
    Response {
        id,
        verb: Verb::Metrics,
        ok: true,
        cache_hit: false,
        line: ok_envelope(id, Verb::Metrics, &payload),
    }
}

/// Handles the `metrics_prometheus` verb: the same counters snapshot as
/// [`metrics_response`], rendered as a Prometheus text exposition and
/// wrapped in the usual NDJSON envelope.
pub fn metrics_prometheus_response(service: &Service, id: u64) -> Response {
    #[derive(Serialize)]
    struct PrometheusJson {
        content_type: &'static str,
        exposition: String,
    }
    front_end_counts(service, Verb::MetricsPrometheus, true);
    let payload = to_json(&PrometheusJson {
        content_type: tpn::metrics::PROMETHEUS_CONTENT_TYPE,
        exposition: tpn::metrics::prometheus_service(&service.counters()),
    });
    Response {
        id,
        verb: Verb::MetricsPrometheus,
        ok: true,
        cache_hit: false,
        line: ok_envelope(id, Verb::MetricsPrometheus, &payload),
    }
}

/// Handles the `journal` verb: the last 256 journal events, oldest
/// first.
pub fn journal_response(service: &Service, id: u64) -> Response {
    #[derive(Serialize)]
    struct JournalJson {
        capacity: usize,
        events: Vec<JournalEvent>,
    }
    front_end_counts(service, Verb::Journal, true);
    let payload = to_json(&JournalJson {
        capacity: JOURNAL_RING,
        events: service.journal_events(),
    });
    Response {
        id,
        verb: Verb::Journal,
        ok: true,
        cache_hit: false,
        line: ok_envelope(id, Verb::Journal, &payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SOURCE: &str = "do i from 2 to n { X[i] := X[i-1] + 1; }";

    fn request(id: u64, verb: Verb) -> Request {
        Request::basic(id, verb, SOURCE)
    }

    fn workers(n: usize) -> ServiceConfig {
        ServiceConfig::builder().workers(n).build().unwrap()
    }

    /// The oracle for the bucketed percentiles: the exact `p`-th
    /// percentile (0.0 ≤ `p` ≤ 1.0) of a latency sample in nanoseconds,
    /// by the nearest-rank method; 0 for an empty sample.
    fn percentile_nanos(sample: &mut [u64], p: f64) -> u64 {
        if sample.is_empty() {
            return 0;
        }
        sample.sort_unstable();
        let rank =
            ((p.clamp(0.0, 1.0) * sample.len() as f64).ceil() as usize).clamp(1, sample.len());
        sample[rank - 1]
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut lat = vec![50, 10, 40, 30, 20];
        assert_eq!(percentile_nanos(&mut lat, 0.5), 30);
        assert_eq!(percentile_nanos(&mut lat, 0.99), 50);
        assert_eq!(percentile_nanos(&mut lat, 0.0), 10);
        assert_eq!(percentile_nanos(&mut [], 0.5), 0);
        assert_eq!(percentile_nanos(&mut [7], 0.5), 7);
    }

    #[test]
    fn percentile_edge_cases() {
        // All-identical sample: every percentile is that value.
        let mut same = vec![42; 9];
        for p in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(percentile_nanos(&mut same, p), 42);
        }
        // p = 0.0 is the minimum, p = 1.0 the maximum, even for n = 1.
        assert_eq!(percentile_nanos(&mut [9], 0.0), 9);
        assert_eq!(percentile_nanos(&mut [9], 1.0), 9);
        assert_eq!(percentile_nanos(&mut [], 0.0), 0);
        assert_eq!(percentile_nanos(&mut [], 1.0), 0);
        // Out-of-range p clamps instead of panicking.
        assert_eq!(percentile_nanos(&mut [1, 2, 3], -0.5), 1);
        assert_eq!(percentile_nanos(&mut [1, 2, 3], 7.0), 3);
    }

    #[test]
    fn bucketed_percentiles_are_the_clamped_bounds_of_the_exact_ones() {
        let sample = [
            400, 1_000, 1_001, 2_500, 2_600, 7_000, 7_900, 40_000, 41_000, 95_000, 3_000_123,
        ];
        let latencies = Latencies::new();
        for &nanos in &sample {
            latencies.record(nanos);
        }
        let histogram = latencies.histogram();
        assert_eq!(histogram, tpn::metrics::latency_histogram(&sample));
        let max_micros = 3_000_123u64.div_ceil(1_000);
        for p in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let exact = percentile_nanos(&mut sample.clone(), p);
            let bound = (1u64 << latency_slot(exact)).min(max_micros);
            assert_eq!(latencies.percentile_micros(&histogram, p), bound, "p = {p}");
            assert!(bound >= exact.div_ceil(1_000), "p = {p}");
        }
        assert_eq!(
            latencies.sum_nanos.load(Ordering::Relaxed),
            sample.iter().sum::<u64>()
        );
        let empty = Latencies::new();
        assert_eq!(empty.histogram(), tpn::metrics::latency_histogram(&[]));
        assert_eq!(empty.percentile_micros(&empty.histogram(), 0.5), 0);
    }

    #[test]
    fn analyze_twice_hits_cache_with_identical_bytes() {
        let service = Service::start(workers(2));
        let first = service.call(request(1, Verb::Analyze)).unwrap();
        let second = service.call(request(2, Verb::Analyze)).unwrap();
        assert!(first.ok && second.ok);
        assert!(!first.cache_hit);
        assert!(second.cache_hit);
        // Ids differ only in the envelope; payloads are byte-identical.
        let payload = |line: &str| line.split_once("\"payload\":").unwrap().1.to_string();
        assert_eq!(payload(&first.line), payload(&second.line));
        let counters = service.counters();
        assert_eq!(counters.completed, 2);
        assert_eq!(counters.cache.hits, 1);
        assert_eq!(counters.cache.misses, 1);
    }

    #[test]
    fn metrics_never_touches_the_cache() {
        let service = Service::start(ServiceConfig::default());
        let m = metrics_response(&service, 5);
        assert!(m.ok);
        assert!(m.line.contains("\"workers\""));
        assert_eq!(service.cache_len(), 0);
    }

    #[test]
    fn zero_deadline_expires_before_compiling() {
        let service = Service::start(workers(1));
        let mut req = request(1, Verb::Schedule);
        req.deadline_ms = Some(0);
        let response = service.call(req).unwrap();
        assert!(!response.ok);
        assert!(response.line.contains("\"kind\":\"deadline\""));
        assert_eq!(service.counters().deadline_expired, 1);
    }

    #[test]
    fn explain_verb_round_trips_and_self_validates() {
        let service = Service::start(workers(1));
        let first = service.call(request(1, Verb::Explain)).unwrap();
        assert!(first.ok, "{}", first.line);
        assert!(first.line.contains("\"validated\":true"));
        assert!(first.line.contains("\"engine_resolved\":\"analytic\""));
        // The certificate replaced the enumerated cycle table.
        assert!(
            first.line.contains("\"certificate\":{\"p\":"),
            "{}",
            first.line
        );
        assert!(!first.line.contains("\"cycles\""), "{}", first.line);
        let second = service.call(request(2, Verb::Explain)).unwrap();
        assert!(second.cache_hit);
        assert_eq!(first.line.replace("\"id\":1,", "\"id\":2,"), second.line);
    }

    #[test]
    fn per_verb_counters_split_outcomes_in_wire_order() {
        let service = Service::start(workers(1));
        assert!(service.call(request(1, Verb::Analyze)).unwrap().ok);
        assert!(service.call(request(2, Verb::Analyze)).unwrap().ok);
        let mut bad = request(3, Verb::Analyze);
        bad.source = "not a loop".into();
        assert!(!service.call(bad).unwrap().ok);
        let m = metrics_response(&service, 4);
        // Snapshot of the per-verb rows: nonzero rows only, wire order,
        // including the front-end metrics request itself.
        assert!(
            m.line.contains(
                "\"per_verb\":[\
                 {\"verb\":\"analyze\",\"accepted\":3,\"completed\":2,\"failed\":1},\
                 {\"verb\":\"metrics\",\"accepted\":1,\"completed\":1,\"failed\":0}]"
            ),
            "{}",
            m.line
        );
        let counters = service.counters();
        assert!(counters.latency_sum_micros >= counters.p50_micros);
    }

    #[test]
    fn journal_records_tiers_engine_and_caps_the_ring() {
        struct SharedSink(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedSink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let service = Service::start(workers(1));
        let sink = Arc::new(Mutex::new(Vec::new()));
        service.set_journal_sink(Box::new(SharedSink(sink.clone())));

        let total = JOURNAL_RING as u64 + 2;
        for id in 1..total {
            assert!(service.call(request(id, Verb::Analyze)).unwrap().ok);
        }
        assert!(service.call(request(total, Verb::Rate)).unwrap().ok);

        // The ring holds the last JOURNAL_RING events; seq keeps counting.
        let events = service.journal_events();
        assert_eq!(events.len(), JOURNAL_RING);
        assert_eq!(events[0].seq, 3);
        let last = events.last().unwrap();
        assert_eq!(last.seq, total);
        assert_eq!(events[0].cache, "hot");
        assert_eq!(last.verb, "rate");
        // Same source and options -> same key -> hot again.
        assert_eq!(last.cache, "hot");
        assert_eq!(last.outcome, "ok");
        assert_eq!(last.engine.as_deref(), Some("analytic"));
        assert!(last.engine_reason.as_deref().unwrap().starts_with("auto:"));
        assert_eq!(
            events[0].source_digest,
            format!(
                "{:016x}",
                protocol::cache_key(SOURCE, &request(1, Verb::Analyze).options)
            )
        );

        // The sink saw every event as a parseable NDJSON line; the first
        // request compiled, so a miss.
        let text = String::from_utf8(sink.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len() as u64, total);
        for line in &lines {
            assert!(protocol::parse_json(line).is_ok());
        }
        assert!(lines[0].contains("\"cache\":\"miss\""));

        // The journal verb returns the same ring through the envelope.
        let r = journal_response(&service, 9);
        assert!(r.ok);
        assert!(r.line.contains("\"capacity\":256"));
        assert!(r.line.contains(&format!("\"seq\":{total}")));
    }

    #[test]
    fn prometheus_verb_wraps_the_exposition_in_the_envelope() {
        let service = Service::start(ServiceConfig::default());
        assert!(service.call(request(1, Verb::Analyze)).unwrap().ok);
        let r = metrics_prometheus_response(&service, 2);
        assert!(r.ok);
        assert!(r.line.contains("tpn_service_accepted_total 1"));
        assert!(r.line.contains("text/plain; version=0.0.4"));
        assert!(protocol::parse_json(&r.line).is_ok());
    }

    #[test]
    fn front_end_verbs_reaching_a_worker_are_bad_requests() {
        let service = Service::start(ServiceConfig::default());
        for verb in [Verb::Metrics, Verb::MetricsPrometheus, Verb::Journal] {
            let mut req = request(10 + verb.index() as u64, verb);
            req.source = String::new();
            let r = service.call(req).unwrap();
            assert!(!r.ok);
            assert!(r.line.contains("\"kind\":\"bad_request\""), "{}", r.line);
        }
        // The pool survives and still answers real work.
        assert!(service.call(request(99, Verb::Analyze)).unwrap().ok);
        assert_eq!(service.counters().panicked, 0);
    }

    #[test]
    fn panicking_request_gets_panic_response_and_pool_survives() {
        let service = Service::start(workers(1));
        let mut bad = request(1, Verb::Scp);
        bad.depth = Some(0); // CompiledLoop::scp panics at depth 0.
        let response = service.call(bad).unwrap();
        assert!(!response.ok);
        assert!(response.line.contains("\"kind\":\"panic\""));
        // The single worker is still alive and serves the next request.
        let ok = service.call(request(2, Verb::Analyze)).unwrap();
        assert!(ok.ok);
        assert_eq!(service.counters().panicked, 1);
    }
}
