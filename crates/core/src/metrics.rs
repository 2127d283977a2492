//! End-to-end observability for the compilation pipeline.
//!
//! The paper's method is literally *execute and record*: the behaviour
//! graph (§4) is a trace of the earliest-firing execution. This module
//! makes the recording part first-class for the whole pipeline:
//!
//! * **stage spans** — wall-clock time of each pipeline stage (parse,
//!   lower, to_petri, frustum detection, SCP expansion, storage
//!   minimisation), collected by a [`Profiler`]
//!   attached to a [`CompiledLoop`](crate::CompiledLoop) when
//!   [`CompileOptions::profile`](crate::CompileOptions::profile) is set;
//! * **engine counters** — instants simulated, transitions fired,
//!   startable-set prune efficiency ([`EngineCounters`], mirroring
//!   [`tpn_petri::timed::EngineStats`]);
//! * **detection counters** — digest candidate hits versus
//!   replay-confirmed repetitions, checkpoints written
//!   ([`DetectionCounters`], mirroring
//!   [`tpn_sched::frustum::DetectionStats`]).
//!
//! Everything funnels into one stable serde type, [`MetricsReport`],
//! surfaced as `tpnc --profile` (text and `--format json`) and by the
//! bench binaries' `--profile` flag.
//!
//! The layer is zero-cost when disabled: without `profile(true)` no
//! [`Profiler`] is allocated and no clocks are read; the engine counters
//! are plain unconditional integer increments on state the engine already
//! touches.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use serde::Serialize;
use tpn_petri::timed::EngineStats;
use tpn_sched::frustum::DetectionStats;

/// Wall-clock time of one pipeline stage.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct StageSpan {
    /// Stage name (`parse`, `lower`, `to_petri`, `frustum_detection`, …).
    pub stage: String,
    /// Elapsed wall-clock nanoseconds.
    pub nanos: u64,
}

/// Serialisable mirror of the engine's [`EngineStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct EngineCounters {
    /// Instants simulated.
    pub instants: u64,
    /// Transition firings started.
    pub firings: u64,
    /// Transition firings completed.
    pub completions: u64,
    /// Candidates placed on fire-phase startable lists.
    pub startable_scanned: u64,
    /// Candidates removed by incremental pruning (no rescans).
    pub startable_pruned: u64,
}

impl From<EngineStats> for EngineCounters {
    fn from(s: EngineStats) -> Self {
        EngineCounters {
            instants: s.instants,
            firings: s.firings,
            completions: s.completions,
            startable_scanned: s.startable_scanned,
            startable_pruned: s.startable_pruned,
        }
    }
}

impl EngineCounters {
    /// Field-wise sum, for aggregating several runs.
    #[must_use]
    pub fn merged(self, o: EngineCounters) -> EngineCounters {
        EngineCounters {
            instants: self.instants + o.instants,
            firings: self.firings + o.firings,
            completions: self.completions + o.completions,
            startable_scanned: self.startable_scanned + o.startable_scanned,
            startable_pruned: self.startable_pruned + o.startable_pruned,
        }
    }
}

/// Serialisable mirror of one detection run's [`DetectionStats`], tagged
/// with the pipeline context that ran it.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct DetectionCounters {
    /// Which detection this was: `frustum` for the plain SDSP-PN run,
    /// `scp[l=N]` for an SCP run at pipeline depth `N`.
    pub context: String,
    /// Instants simulated (trace length).
    pub instants: u64,
    /// Digest-index candidate hits.
    pub digest_candidates: u64,
    /// Checkpoint replays run to verify candidates.
    pub replays: u64,
    /// Replays confirming a true repetition.
    pub confirmed: u64,
    /// Candidates that were 64-bit digest collisions
    /// (`replays − confirmed`).
    pub collisions: u64,
    /// Packed checkpoints written along the trace.
    pub checkpoints: u64,
    /// The engine counters of this run.
    pub engine: EngineCounters,
}

impl DetectionCounters {
    /// Tags `stats` with its pipeline `context`.
    pub fn from_stats(context: impl Into<String>, stats: &DetectionStats) -> Self {
        DetectionCounters {
            context: context.into(),
            instants: stats.instants,
            digest_candidates: stats.digest_candidates,
            replays: stats.replays,
            confirmed: stats.confirmed,
            collisions: stats.replays - stats.confirmed,
            checkpoints: stats.checkpoints,
            engine: stats.engine.into(),
        }
    }
}

/// One bucket of a latency histogram: `count` items took at most
/// `le_micros` microseconds (and more than the previous bucket's bound).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct HistogramBucket {
    /// Inclusive upper bound of the bucket, in microseconds.
    pub le_micros: u64,
    /// Items that fell in this bucket.
    pub count: u64,
}

/// The histogram slot of one latency in nanoseconds: slot k covers
/// (2^{k-1}, 2^k] µs, and slot 0 everything up to 1 µs. Every `u64`
/// lands below slot 64.
pub fn latency_slot(nanos: u64) -> usize {
    let micros = nanos.div_ceil(1_000).max(1);
    // The exponent of the next power of two at or above `micros`: no
    // scan needed.
    (u64::BITS - (micros - 1).leading_zeros()) as usize
}

/// Builds a power-of-two latency histogram (bounds 1 µs, 2 µs, 4 µs, …)
/// over per-item latencies in nanoseconds, one bucket per
/// [`latency_slot`]. Trailing empty buckets are trimmed; the final
/// bucket always covers the slowest item.
pub fn latency_histogram(latencies_nanos: &[u64]) -> Vec<HistogramBucket> {
    let mut buckets = vec![HistogramBucket {
        le_micros: 1,
        count: 0,
    }];
    for &nanos in latencies_nanos {
        let slot = latency_slot(nanos);
        while buckets.len() <= slot {
            let next = buckets.last().expect("nonempty").le_micros * 2;
            buckets.push(HistogramBucket {
                le_micros: next,
                count: 0,
            });
        }
        buckets[slot].count += 1;
    }
    buckets
}

/// Hit/miss/eviction counters of the service layer's sharded result
/// cache (see the `tpn-service` crate).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct CacheCounters {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that missed (and typically inserted afterwards).
    pub misses: u64,
    /// Entries evicted to respect the weight capacity.
    pub evictions: u64,
    /// Live entries across all shards.
    pub entries: u64,
    /// Total weight of live entries across all shards.
    pub weight: u64,
    /// The configured weight capacity.
    pub capacity: u64,
}

impl CacheCounters {
    /// Hit fraction of all lookups so far (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Counters of one persistent artifact store: entries on disk, warm-start
/// loads, spills, and the corrupt entries quarantined instead of served.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct StoreCounters {
    /// Committed entries currently on disk.
    pub entries: u64,
    /// Entries loaded into the cache at warm-start.
    pub loaded: u64,
    /// Entries spilled to disk since boot.
    pub spilled: u64,
    /// Corrupt entries moved to the quarantine directory.
    pub quarantined: u64,
    /// Spill attempts that failed with an I/O error (the request still
    /// succeeded; only persistence was lost).
    pub spill_errors: u64,
}

/// Per-verb request counters of one compile service: how many requests
/// of this protocol verb were admitted, answered successfully, and
/// answered with an error (deadline, cancellation, panic, compile
/// failure — anything with `"ok":false`).
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct VerbCounters {
    /// The protocol verb (`analyze`, `schedule`, …).
    pub verb: String,
    /// Requests of this verb admitted to the queue.
    pub accepted: u64,
    /// Requests of this verb that produced an `"ok":true` response.
    pub completed: u64,
    /// Requests of this verb that produced an error response.
    pub failed: u64,
}

/// Counters of one compile service: admission, completion and rejection
/// counts, queue high-water mark, request latencies, and the result
/// cache's counters. The stable serde payload of the service's
/// `metrics` verb.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ServiceCounters {
    /// Worker threads serving the queue.
    pub workers: usize,
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// Requests admitted to the queue.
    pub accepted: u64,
    /// Requests that produced a successful response.
    pub completed: u64,
    /// Requests rejected with a typed `Overloaded` error at admission.
    pub rejected_overloaded: u64,
    /// Requests rejected with a typed `RateLimited` error at admission
    /// (per-client token bucket or in-flight cap).
    pub rate_limited: u64,
    /// Requests that failed their wall-clock deadline.
    pub deadline_expired: u64,
    /// Requests cancelled cooperatively before completing.
    pub cancelled: u64,
    /// Requests whose pipeline panicked (the panic was confined to the
    /// request; the worker survived).
    pub panicked: u64,
    /// Highest queue depth observed at admission.
    pub max_queue_depth: u64,
    /// p50 request latency, microseconds (admission to response).
    pub p50_micros: u64,
    /// p99 request latency, microseconds.
    pub p99_micros: u64,
    /// Sum of all request latencies, microseconds (exact, unlike a sum
    /// reconstructed from histogram bucket bounds).
    pub latency_sum_micros: u64,
    /// Power-of-two latency histogram over completed requests.
    pub latency: Vec<HistogramBucket>,
    /// Per-verb accepted/completed/failed counts, in protocol verb
    /// order; verbs with no traffic are omitted.
    pub per_verb: Vec<VerbCounters>,
    /// The sharded result cache's counters.
    pub cache: CacheCounters,
    /// The persistent artifact store's counters; `None` when the service
    /// runs without a store.
    pub store: Option<StoreCounters>,
}

/// The full profile of a compilation: stage spans, aggregated engine
/// counters and per-detection counters.
///
/// This is the stable serde payload behind `tpnc --profile --format json`
/// and the bench binaries' `--profile` output.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct MetricsReport {
    /// Timed pipeline stages, in execution order. Empty when profiling
    /// was disabled (counters are still collected).
    pub stages: Vec<StageSpan>,
    /// Engine counters summed over every detection run.
    pub engine: EngineCounters,
    /// One entry per detection run (plain frustum, SCP depths).
    pub detections: Vec<DetectionCounters>,
}

impl MetricsReport {
    /// Renders the human-readable `--profile` text block.
    pub fn render_text(&self) -> String {
        let mut out = String::from("profile:\n");
        if self.stages.is_empty() {
            out.push_str("  stages: (profiling disabled)\n");
        } else {
            out.push_str("  stages:\n");
            for s in &self.stages {
                let _ = writeln!(out, "    {:<24} {:>12.3} us", s.stage, s.nanos as f64 / 1e3);
            }
        }
        let e = &self.engine;
        let _ = writeln!(
            out,
            "  engine: {} instants, {} firings, {} completions",
            e.instants, e.firings, e.completions
        );
        let _ = writeln!(
            out,
            "  startable pruning: {} scanned, {} pruned without rescan",
            e.startable_scanned, e.startable_pruned
        );
        for d in &self.detections {
            let _ = writeln!(
                out,
                "  detection {}: {} instants, {} digest candidates, {} replays, {} confirmed, {} collisions, {} checkpoints",
                d.context,
                d.instants,
                d.digest_candidates,
                d.replays,
                d.confirmed,
                d.collisions,
                d.checkpoints
            );
        }
        out
    }
}

// ---------------------------------------------------------------------
// Prometheus text exposition (version 0.0.4).
//
// Counters end in `_total`, gauges are bare, and the power-of-two
// latency histograms map onto native Prometheus histograms: per-bucket
// counts become cumulative `_bucket{le="..."}` samples plus `+Inf`,
// `_count` is the sample size, and `_sum` is the exact sum the service
// tracks beside the histogram.
// ---------------------------------------------------------------------

/// The content type Prometheus scrapers expect for [`prometheus_service`]
/// and [`prometheus_report`] output.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

fn prom_escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn prom_metric(out: &mut String, name: &str, kind: &str, help: &str, samples: &[(String, u64)]) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    for (labels, value) in samples {
        let _ = writeln!(out, "{name}{labels} {value}");
    }
}

fn prom_scalar(out: &mut String, name: &str, kind: &str, help: &str, value: u64) {
    prom_metric(out, name, kind, help, &[(String::new(), value)]);
}

fn prom_histogram(
    out: &mut String,
    name: &str,
    help: &str,
    buckets: &[HistogramBucket],
    sum_micros: u64,
) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    for b in buckets {
        cumulative += b.count;
        let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cumulative}", b.le_micros);
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
    let _ = writeln!(out, "{name}_sum {sum_micros}");
    let _ = writeln!(out, "{name}_count {cumulative}");
}

/// Renders a [`ServiceCounters`] snapshot (including its
/// [`CacheCounters`] and per-verb breakdown) as a Prometheus text
/// exposition. The payload behind the service's `metrics_prometheus`
/// verb.
pub fn prometheus_service(c: &ServiceCounters) -> String {
    let mut out = String::new();
    prom_scalar(
        &mut out,
        "tpn_service_workers",
        "gauge",
        "Worker threads serving the admission queue.",
        c.workers as u64,
    );
    prom_scalar(
        &mut out,
        "tpn_service_queue_capacity",
        "gauge",
        "Admission queue capacity.",
        c.queue_capacity as u64,
    );
    prom_scalar(
        &mut out,
        "tpn_service_accepted_total",
        "counter",
        "Requests admitted to the queue.",
        c.accepted,
    );
    prom_scalar(
        &mut out,
        "tpn_service_completed_total",
        "counter",
        "Requests that produced a successful response.",
        c.completed,
    );
    prom_scalar(
        &mut out,
        "tpn_service_rejected_overloaded_total",
        "counter",
        "Requests rejected with a typed Overloaded error at admission.",
        c.rejected_overloaded,
    );
    prom_scalar(
        &mut out,
        "tpn_service_rate_limited_total",
        "counter",
        "Requests rejected with a typed RateLimited error at admission.",
        c.rate_limited,
    );
    prom_scalar(
        &mut out,
        "tpn_service_deadline_expired_total",
        "counter",
        "Requests that failed their wall-clock deadline.",
        c.deadline_expired,
    );
    prom_scalar(
        &mut out,
        "tpn_service_cancelled_total",
        "counter",
        "Requests cancelled cooperatively before completing.",
        c.cancelled,
    );
    prom_scalar(
        &mut out,
        "tpn_service_panicked_total",
        "counter",
        "Requests whose pipeline panicked (worker survived).",
        c.panicked,
    );
    prom_scalar(
        &mut out,
        "tpn_service_queue_depth_max",
        "gauge",
        "Highest queue depth observed at admission.",
        c.max_queue_depth,
    );
    if !c.per_verb.is_empty() {
        let mut samples = Vec::new();
        for v in &c.per_verb {
            let verb = prom_escape_label(&v.verb);
            samples.push((
                format!("{{verb=\"{verb}\",outcome=\"accepted\"}}"),
                v.accepted,
            ));
            samples.push((
                format!("{{verb=\"{verb}\",outcome=\"completed\"}}"),
                v.completed,
            ));
            samples.push((format!("{{verb=\"{verb}\",outcome=\"failed\"}}"), v.failed));
        }
        prom_metric(
            &mut out,
            "tpn_service_verb_requests_total",
            "counter",
            "Per-verb request outcomes.",
            &samples,
        );
    }
    prom_scalar(
        &mut out,
        "tpn_cache_hits_total",
        "counter",
        "Result cache lookups that found a live entry.",
        c.cache.hits,
    );
    prom_scalar(
        &mut out,
        "tpn_cache_misses_total",
        "counter",
        "Result cache lookups that missed.",
        c.cache.misses,
    );
    prom_scalar(
        &mut out,
        "tpn_cache_evictions_total",
        "counter",
        "Result cache entries evicted to respect the weight capacity.",
        c.cache.evictions,
    );
    prom_scalar(
        &mut out,
        "tpn_cache_entries",
        "gauge",
        "Live result cache entries across all shards.",
        c.cache.entries,
    );
    prom_scalar(
        &mut out,
        "tpn_cache_weight",
        "gauge",
        "Total weight of live result cache entries.",
        c.cache.weight,
    );
    prom_scalar(
        &mut out,
        "tpn_cache_capacity",
        "gauge",
        "Configured result cache weight capacity.",
        c.cache.capacity,
    );
    if let Some(store) = &c.store {
        prom_scalar(
            &mut out,
            "tpn_store_entries",
            "gauge",
            "Committed artifact-store entries on disk.",
            store.entries,
        );
        prom_scalar(
            &mut out,
            "tpn_store_loaded_total",
            "counter",
            "Artifact-store entries loaded into the cache at warm-start.",
            store.loaded,
        );
        prom_scalar(
            &mut out,
            "tpn_store_spilled_total",
            "counter",
            "Artifact-store entries spilled to disk since boot.",
            store.spilled,
        );
        prom_scalar(
            &mut out,
            "tpn_store_quarantined_total",
            "counter",
            "Corrupt artifact-store entries quarantined instead of served.",
            store.quarantined,
        );
        prom_scalar(
            &mut out,
            "tpn_store_spill_errors_total",
            "counter",
            "Artifact-store spill attempts that failed with an I/O error.",
            store.spill_errors,
        );
    }
    prom_histogram(
        &mut out,
        "tpn_request_duration_micros",
        "Request latency from admission to response, microseconds.",
        &c.latency,
        c.latency_sum_micros,
    );
    out
}

/// Renders a [`MetricsReport`] (stage spans, engine/detection counters)
/// as a Prometheus text exposition. The payload behind
/// `tpnc --format prometheus`.
pub fn prometheus_report(r: &MetricsReport) -> String {
    let mut out = String::new();
    if !r.stages.is_empty() {
        let samples: Vec<(String, u64)> = r
            .stages
            .iter()
            .map(|s| {
                (
                    format!("{{stage=\"{}\"}}", prom_escape_label(&s.stage)),
                    s.nanos,
                )
            })
            .collect();
        prom_metric(
            &mut out,
            "tpn_stage_duration_nanos",
            "gauge",
            "Wall-clock time of each pipeline stage, nanoseconds.",
            &samples,
        );
    }
    prom_scalar(
        &mut out,
        "tpn_engine_instants_total",
        "counter",
        "Instants simulated across every detection run.",
        r.engine.instants,
    );
    prom_scalar(
        &mut out,
        "tpn_engine_firings_total",
        "counter",
        "Transition firings started.",
        r.engine.firings,
    );
    prom_scalar(
        &mut out,
        "tpn_engine_completions_total",
        "counter",
        "Transition firings completed.",
        r.engine.completions,
    );
    prom_scalar(
        &mut out,
        "tpn_engine_startable_scanned_total",
        "counter",
        "Candidates placed on fire-phase startable lists.",
        r.engine.startable_scanned,
    );
    prom_scalar(
        &mut out,
        "tpn_engine_startable_pruned_total",
        "counter",
        "Candidates removed by incremental pruning.",
        r.engine.startable_pruned,
    );
    if !r.detections.is_empty() {
        let mut instants = Vec::new();
        let mut candidates = Vec::new();
        let mut replays = Vec::new();
        let mut confirmed = Vec::new();
        let mut collisions = Vec::new();
        let mut checkpoints = Vec::new();
        for d in &r.detections {
            let labels = format!("{{context=\"{}\"}}", prom_escape_label(&d.context));
            instants.push((labels.clone(), d.instants));
            candidates.push((labels.clone(), d.digest_candidates));
            replays.push((labels.clone(), d.replays));
            confirmed.push((labels.clone(), d.confirmed));
            collisions.push((labels.clone(), d.collisions));
            checkpoints.push((labels, d.checkpoints));
        }
        prom_metric(
            &mut out,
            "tpn_detection_instants_total",
            "counter",
            "Instants simulated by each detection run.",
            &instants,
        );
        prom_metric(
            &mut out,
            "tpn_detection_digest_candidates_total",
            "counter",
            "Digest-index candidate hits.",
            &candidates,
        );
        prom_metric(
            &mut out,
            "tpn_detection_replays_total",
            "counter",
            "Checkpoint replays run to verify candidates.",
            &replays,
        );
        prom_metric(
            &mut out,
            "tpn_detection_confirmed_total",
            "counter",
            "Replays confirming a true repetition.",
            &confirmed,
        );
        prom_metric(
            &mut out,
            "tpn_detection_collisions_total",
            "counter",
            "Candidates that were 64-bit digest collisions.",
            &collisions,
        );
        prom_metric(
            &mut out,
            "tpn_detection_checkpoints_total",
            "counter",
            "Packed checkpoints written along the trace.",
            &checkpoints,
        );
    }
    out
}

/// A thread-safe collector of [`StageSpan`]s, shared (via `Arc`) by a
/// [`CompiledLoop`](crate::CompiledLoop) and its clones so every memoized
/// stage is timed exactly once.
#[derive(Debug, Default)]
pub struct Profiler {
    spans: Mutex<Vec<StageSpan>>,
}

impl Profiler {
    /// Records one finished span.
    pub fn record(&self, stage: impl Into<String>, elapsed: Duration) {
        self.spans
            .lock()
            .expect("profiler poisoned")
            .push(StageSpan {
                stage: stage.into(),
                nanos: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            });
    }

    /// Times `f` and records it under `stage`.
    pub fn time<R>(&self, stage: impl Into<String>, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let r = f();
        self.record(stage, started.elapsed());
        r
    }

    /// The spans recorded so far, in execution order.
    pub fn spans(&self) -> Vec<StageSpan> {
        self.spans.lock().expect("profiler poisoned").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_cover_and_count() {
        let h = latency_histogram(&[500, 1_500, 3_000, 3_000, 1_000_000]);
        // Bounds double: 1, 2, 4, ..., 1024 us.
        assert_eq!(h.first().unwrap().le_micros, 1);
        assert_eq!(h.last().unwrap().le_micros, 1024);
        assert_eq!(h.iter().map(|b| b.count).sum::<u64>(), 5);
        assert_eq!(h[0].count, 1); // 500 ns -> <= 1 us
        assert_eq!(h[1].count, 1); // 1.5 us -> <= 2 us
        assert_eq!(h[2].count, 2); // 3 us -> <= 4 us
                                   // Empty input: one empty bucket, no panic.
        let empty = latency_histogram(&[]);
        assert_eq!(empty.len(), 1);
        assert_eq!(empty[0].count, 0);
    }

    #[test]
    fn histogram_slots_land_on_power_of_two_boundaries() {
        // Exactly 1 us, 2 us, 4 us sit in slots 0, 1, 2; one past each
        // bound rolls into the next slot.
        let h = latency_histogram(&[1_000, 2_000, 4_000, 1_001, 2_001, 4_001]);
        assert_eq!(h[0].count, 1); // 1 us
        assert_eq!(h[1].count, 2); // 2 us and 1.001 us
        assert_eq!(h[2].count, 2); // 4 us and 2.001 us
        assert_eq!(h[3].count, 1); // 4.001 us
        assert_eq!(h[3].le_micros, 8);
        // Sub-microsecond latencies (including 0 ns) clamp into slot 0.
        let tiny = latency_histogram(&[0, 1, 999]);
        assert_eq!(tiny.len(), 1);
        assert_eq!(tiny[0].count, 3);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Bucket counts always sum to the sample size and the final
        /// bucket's bound covers the slowest sample.
        #[test]
        fn histogram_counts_cover_the_sample(
            sample in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..64usize),
        ) {
            let h = latency_histogram(&sample);
            proptest::prop_assert_eq!(
                h.iter().map(|b| b.count).sum::<u64>(),
                sample.len() as u64
            );
            let max_micros = sample
                .iter()
                .map(|n| n.div_ceil(1_000).max(1))
                .max()
                .unwrap_or(1);
            proptest::prop_assert!(h.last().unwrap().le_micros >= max_micros);
            // Bounds double monotonically from 1 us.
            for (i, b) in h.iter().enumerate() {
                proptest::prop_assert_eq!(b.le_micros, 1u64 << i);
            }
        }
    }

    #[test]
    fn prometheus_service_exposition_is_well_formed() {
        let c = ServiceCounters {
            workers: 4,
            queue_capacity: 64,
            accepted: 10,
            completed: 8,
            rejected_overloaded: 1,
            rate_limited: 2,
            deadline_expired: 1,
            cancelled: 0,
            panicked: 0,
            max_queue_depth: 3,
            p50_micros: 2,
            p99_micros: 7,
            latency_sum_micros: 30,
            latency: latency_histogram(&[500, 1_500, 3_000, 7_000]),
            per_verb: vec![VerbCounters {
                verb: "analyze".into(),
                accepted: 10,
                completed: 8,
                failed: 2,
            }],
            cache: CacheCounters {
                hits: 5,
                misses: 5,
                evictions: 0,
                entries: 5,
                weight: 5,
                capacity: 100,
            },
            store: Some(StoreCounters {
                entries: 5,
                loaded: 3,
                spilled: 2,
                quarantined: 1,
                spill_errors: 0,
            }),
        };
        let text = prometheus_service(&c);
        assert!(text.contains("# TYPE tpn_service_accepted_total counter"));
        assert!(text.contains("tpn_service_accepted_total 10"));
        assert!(text.contains("tpn_service_rate_limited_total 2"));
        assert!(text.contains("tpn_store_entries 5"));
        assert!(text.contains("tpn_store_loaded_total 3"));
        assert!(text.contains("tpn_store_quarantined_total 1"));
        assert!(text
            .contains("tpn_service_verb_requests_total{verb=\"analyze\",outcome=\"completed\"} 8"));
        assert!(text.contains("# TYPE tpn_request_duration_micros histogram"));
        // Buckets are cumulative: 1, 2, 3, 4 over the four samples.
        assert!(text.contains("tpn_request_duration_micros_bucket{le=\"1\"} 1"));
        assert!(text.contains("tpn_request_duration_micros_bucket{le=\"2\"} 2"));
        assert!(text.contains("tpn_request_duration_micros_bucket{le=\"4\"} 3"));
        assert!(text.contains("tpn_request_duration_micros_bucket{le=\"8\"} 4"));
        assert!(text.contains("tpn_request_duration_micros_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("tpn_request_duration_micros_sum 30"));
        assert!(text.contains("tpn_request_duration_micros_count 4"));
        assert!(text.contains("tpn_cache_hits_total 5"));
        // Every non-comment line is `name[labels] value`.
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# HELP ") || line.starts_with("# TYPE "));
            } else {
                assert!(line.rsplit_once(' ').is_some(), "bad sample line: {line}");
            }
        }
    }

    #[test]
    fn prometheus_report_covers_stages_and_detections() {
        let report = MetricsReport {
            stages: vec![StageSpan {
                stage: "parse".into(),
                nanos: 1_234,
            }],
            engine: EngineCounters {
                instants: 10,
                firings: 20,
                completions: 18,
                startable_scanned: 25,
                startable_pruned: 5,
            },
            detections: vec![DetectionCounters::from_stats(
                "scp[l=2]",
                &DetectionStats {
                    instants: 10,
                    digest_candidates: 3,
                    replays: 2,
                    confirmed: 1,
                    checkpoints: 0,
                    engine: Default::default(),
                },
            )],
        };
        let text = prometheus_report(&report);
        assert!(text.contains("tpn_stage_duration_nanos{stage=\"parse\"} 1234"));
        assert!(text.contains("tpn_engine_instants_total 10"));
        assert!(text.contains("tpn_detection_replays_total{context=\"scp[l=2]\"} 2"));
    }

    #[test]
    fn prometheus_label_escaping() {
        assert_eq!(prom_escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn cache_counters_hit_rate() {
        let mut c = CacheCounters::default();
        assert_eq!(c.hit_rate(), 0.0);
        c.hits = 3;
        c.misses = 1;
        assert!((c.hit_rate() - 0.75).abs() < 1e-12);
        let json = serde_json::to_string(&c).unwrap();
        assert!(json.contains("\"hits\":3"), "got: {json}");
    }

    #[test]
    fn profiler_records_in_order() {
        let p = Profiler::default();
        let v = p.time("first", || 41 + 1);
        assert_eq!(v, 42);
        p.record("second", Duration::from_micros(7));
        let spans = p.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, "first");
        assert_eq!(spans[1].stage, "second");
        assert_eq!(spans[1].nanos, 7_000);
    }

    #[test]
    fn report_serialises_and_renders() {
        let report = MetricsReport {
            stages: vec![StageSpan {
                stage: "parse".into(),
                nanos: 1_234,
            }],
            engine: EngineCounters {
                instants: 10,
                firings: 20,
                completions: 18,
                startable_scanned: 25,
                startable_pruned: 5,
            },
            detections: vec![DetectionCounters::from_stats(
                "frustum",
                &DetectionStats {
                    instants: 10,
                    digest_candidates: 3,
                    replays: 2,
                    confirmed: 1,
                    checkpoints: 0,
                    engine: Default::default(),
                },
            )],
        };
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"stages\":[{\"stage\":\"parse\",\"nanos\":1234}]"));
        assert!(json.contains("\"collisions\":1"));
        let text = report.render_text();
        assert!(text.contains("detection frustum"));
        assert!(text.contains("10 instants"));
    }
}
