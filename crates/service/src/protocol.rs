//! The service's NDJSON request protocol: one JSON object per line in,
//! one per line out.
//!
//! The response **payloads** are the same serde rows `tpnc --format
//! json` prints (the CLI imports them from here), so a service response
//! and a one-shot CLI run serialize byte-identically — and, because the
//! builders only read memoized [`CompiledLoop`] artifacts, a cached and
//! an uncached response are byte-identical too.
//!
//! The offline `serde_json` shim only *serializes*, so incoming requests
//! are parsed by the small recursive-descent [`parse_json`] parser here.
//!
//! ## Request schema
//!
//! ```json
//! {"id":1,"verb":"analyze","source":"do i from 2 to n { X[i] := X[i-1] + 1; }"}
//! {"id":2,"verb":"schedule","source":"...","depth":2,"deadline_ms":500,
//!  "options":{"node_time":3,"step_budget":100000,"issue_policy":"priority",
//!             "engine":"frustum","profile":true}}
//! {"id":3,"verb":"metrics"}
//! {"id":4,"verb":"cancel","target":2}
//! ```
//!
//! Verbs: `analyze`, `schedule` (optional `depth` switches to the SCP
//! model), `rate`, `scp` (requires `depth`), `trace` (optional `depth`),
//! `storage`, `explain` (the self-validated scheduling witness),
//! `metrics`, `metrics_prometheus` (the same counters as a Prometheus
//! text exposition), `journal` (the last 256 request-journal events),
//! and `cancel` (the last four are handled by the serve front-end, not
//! the worker pool). An optional top-level `client` string keys the
//! per-client fairness limiter (absent ⇒ the anonymous bucket).
//!
//! ## Response schema
//!
//! ```json
//! {"id":1,"ok":true,"verb":"analyze","payload":{...}}
//! {"id":9,"ok":false,"verb":"schedule","error":{"kind":"overloaded",
//!  "message":"...","queue_depth":64}}
//! ```
//!
//! Error kinds: `overloaded` (typed backpressure, carries
//! `queue_depth`), `rate_limited` (per-client fairness, carries
//! `retry_after_ms`), `deadline`, `cancelled`, `panic`, `compile`,
//! `bad_request`, `unsupported_version`.
//!
//! ## Versioning
//!
//! This is version 1 of the protocol. A request may say so with
//! `"v":1`; a request without `"v"` is read the same way. Any other
//! version gets a typed `unsupported_version` error echoing the id, so
//! a later version can be told apart from a malformed request.

use std::fmt::Write as _;
use std::sync::Arc;

use serde::Serialize;
use tpn::petri::rational::Ratio;
use tpn::sched::FiringTrace;
use tpn::{CompileOptions, CompiledLoop, Error, IssuePolicy, SchedulePolicy};

// ---------------------------------------------------------------------------
// Cache key: canonical digest of (normalized source, options fingerprint).
// ---------------------------------------------------------------------------

/// Canonicalizes loop source for cache keying: `//` comments are
/// stripped and whitespace runs collapse to single spaces — exactly the
/// characters the lexer ignores — so formatting variants of one loop
/// share a cache entry while any token change produces a new key.
pub fn normalize_source(source: &str) -> String {
    let mut out = String::new();
    for line in source.lines() {
        let code = match line.find("//") {
            Some(at) => &line[..at],
            None => line,
        };
        for token in code.split_whitespace() {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(token);
        }
    }
    out
}

/// The cache key: a 64-bit FNV-1a digest over the normalized source
/// followed by the [`CompileOptions::fingerprint`], so equal loops
/// compiled under different options occupy distinct entries.
pub fn cache_key(source: &str, options: &CompileOptions) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in normalize_source(source).bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    for byte in options.fingerprint().to_le_bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------------

/// A protocol verb.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Verb {
    /// Critical-cycle analysis (Theorem 3.3.1 summary).
    Analyze,
    /// The periodic schedule; with `depth`, the depth-limited SCP one.
    Schedule,
    /// Measured-versus-optimal rate report.
    Rate,
    /// SCP run at a required `depth`.
    Scp,
    /// Replay-validated firing trace (Chrome trace JSON payload).
    Trace,
    /// Storage minimisation summary.
    Storage,
    /// The self-validated scheduling witness (critical cycle, runner-up
    /// slack, engine audit, balanced issue word).
    Explain,
    /// Service counters snapshot (never queued, never cached).
    Metrics,
    /// The same counters as a Prometheus text exposition (never queued,
    /// never cached).
    MetricsPrometheus,
    /// The last-N entries of the request journal (never queued, never
    /// cached).
    Journal,
    /// Cooperative cancellation of an in-flight request (serve layer).
    Cancel,
}

impl Verb {
    /// Every verb, in wire-name order — the canonical iteration order for
    /// per-verb counters.
    pub const ALL: [Verb; 11] = [
        Verb::Analyze,
        Verb::Schedule,
        Verb::Rate,
        Verb::Scp,
        Verb::Trace,
        Verb::Storage,
        Verb::Explain,
        Verb::Metrics,
        Verb::MetricsPrometheus,
        Verb::Journal,
        Verb::Cancel,
    ];

    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Verb::Analyze => "analyze",
            Verb::Schedule => "schedule",
            Verb::Rate => "rate",
            Verb::Scp => "scp",
            Verb::Trace => "trace",
            Verb::Storage => "storage",
            Verb::Explain => "explain",
            Verb::Metrics => "metrics",
            Verb::MetricsPrometheus => "metrics_prometheus",
            Verb::Journal => "journal",
            Verb::Cancel => "cancel",
        }
    }

    /// This verb's position in [`Verb::ALL`].
    pub fn index(self) -> usize {
        Verb::ALL
            .iter()
            .position(|&v| v == self)
            .expect("every verb is in ALL")
    }

    fn parse(name: &str) -> Option<Verb> {
        Some(match name {
            "analyze" => Verb::Analyze,
            "schedule" => Verb::Schedule,
            "rate" => Verb::Rate,
            "scp" => Verb::Scp,
            "trace" => Verb::Trace,
            "storage" => Verb::Storage,
            "explain" => Verb::Explain,
            "metrics" => Verb::Metrics,
            "metrics_prometheus" => Verb::MetricsPrometheus,
            "journal" => Verb::Journal,
            "cancel" => Verb::Cancel,
            _ => return None,
        })
    }
}

/// One parsed request line.
#[derive(Clone, Debug)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// What to do.
    pub verb: Verb,
    /// The client id keying per-client fairness (`None` ⇒ the
    /// anonymous bucket).
    pub client: Option<String>,
    /// The loop source (empty for `metrics` / `cancel`).
    pub source: String,
    /// SCP depth: required for `scp`, optional for
    /// `schedule`/`rate`/`trace`.
    pub depth: Option<u64>,
    /// Compile options (fingerprinted into the cache key).
    pub options: CompileOptions,
    /// Wall-clock deadline from admission, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// The id a `cancel` request targets.
    pub target: Option<u64>,
}

impl Request {
    /// A request with defaulted optional fields — the in-process
    /// construction path (tests, benches, the chaos harness).
    pub fn basic(id: u64, verb: Verb, source: impl Into<String>) -> Request {
        Request {
            id,
            verb,
            client: None,
            source: source.into(),
            depth: None,
            options: CompileOptions::new(),
            deadline_ms: None,
            target: None,
        }
    }
}

/// Why a request line failed to parse. Each carries the line's integer
/// `"id"` when it had one, so the reply can echo it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The line carried a `"v"` this server does not speak; answered
    /// with a typed `unsupported_version` error.
    UnsupportedVersion {
        /// The request's correlation id, when present.
        id: Option<u64>,
        /// The version the client asked for.
        v: u64,
    },
    /// Anything else — invalid JSON, a missing or mistyped field;
    /// answered with `bad_request` and the message.
    Bad {
        /// The request's correlation id, when present.
        id: Option<u64>,
        /// What is wrong with the line.
        message: String,
    },
}

impl ParseError {
    /// The one reply line for a request line that failed to parse, as
    /// `tpnc serve` and `tpnc route` both send it: a typed error
    /// echoing the line's id, or 0 when it had none.
    pub fn reply(&self) -> String {
        let (id, kind) = match self {
            ParseError::UnsupportedVersion { id, .. } => (id, "unsupported_version"),
            ParseError::Bad { id, .. } => (id, "bad_request"),
        };
        error_envelope(id.unwrap_or(0), None, kind, &self.to_string(), None, None)
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::UnsupportedVersion { v, .. } => {
                write!(f, "unsupported envelope version {v} (this server speaks 1)")
            }
            ParseError::Bad { message, .. } => f.write_str(message),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses one NDJSON request line.
///
/// # Errors
///
/// [`ParseError::UnsupportedVersion`] for a `"v"` other than 1,
/// otherwise [`ParseError::Bad`] with a human-readable message; both
/// carry the line's id when it had a valid one, and
/// [`ParseError::reply`] renders the reply.
pub fn parse_request(line: &str) -> Result<Request, ParseError> {
    let value = parse_json(line).map_err(|message| ParseError::Bad { id: None, message })?;
    let Some(obj) = value.as_object() else {
        return Err(ParseError::Bad {
            id: None,
            message: "request must be a JSON object".into(),
        });
    };
    let id = get_u64(obj, "id").ok().flatten();
    match get_u64(obj, "v") {
        Ok(None | Some(1)) => {
            request_fields(obj).map_err(|message| ParseError::Bad { id, message })
        }
        Ok(Some(v)) => Err(ParseError::UnsupportedVersion { id, v }),
        Err(message) => Err(ParseError::Bad { id, message }),
    }
}

/// Reads a request's fields from the top level of its object.
fn request_fields(obj: &[(String, JsonValue)]) -> Result<Request, String> {
    let id = get_u64(obj, "id")?.ok_or("missing \"id\"")?;
    let verb = match obj.iter().find(|(k, _)| k == "verb") {
        Some((_, JsonValue::Str(name))) => {
            Verb::parse(name).ok_or_else(|| format!("unknown verb {name:?}"))?
        }
        Some(_) => return Err("\"verb\" must be a string".into()),
        None => return Err("missing \"verb\"".into()),
    };
    let client = match obj.iter().find(|(k, _)| k == "client") {
        Some((_, JsonValue::Str(s))) => Some(s.clone()),
        Some((_, JsonValue::Null)) | None => None,
        Some(_) => return Err("\"client\" must be a string".into()),
    };
    let source = match obj.iter().find(|(k, _)| k == "source") {
        Some((_, JsonValue::Str(s))) => s.clone(),
        Some(_) => return Err("\"source\" must be a string".into()),
        None => String::new(),
    };
    if source.is_empty()
        && !matches!(
            verb,
            Verb::Metrics | Verb::MetricsPrometheus | Verb::Journal | Verb::Cancel
        )
    {
        return Err(format!("verb {:?} requires \"source\"", verb.as_str()));
    }
    let depth = get_u64(obj, "depth")?;
    if verb == Verb::Scp && depth.is_none() {
        return Err("verb \"scp\" requires \"depth\"".into());
    }
    if depth == Some(0) {
        return Err("\"depth\" must be >= 1".into());
    }
    let deadline_ms = get_u64(obj, "deadline_ms")?;
    let target = get_u64(obj, "target")?;
    if verb == Verb::Cancel && target.is_none() {
        return Err("verb \"cancel\" requires \"target\"".into());
    }
    let options = match obj.iter().find(|(k, _)| k == "options") {
        None => CompileOptions::new(),
        Some((_, value)) => options_from_json(value)?,
    };
    Ok(Request {
        id,
        verb,
        client,
        source,
        depth,
        options,
        deadline_ms,
        target,
    })
}

/// Serializes compile options to the same JSON object shape
/// [`parse_request`] accepts under `"options"` — only non-default fields
/// are written, so defaults round-trip to `{}`. This is the persistence
/// form the artifact store records next to each spilled entry.
pub fn options_to_json(options: &CompileOptions) -> String {
    let mut out = String::from("{");
    let push = |out: &mut String, field: String| {
        if out.len() > 1 {
            out.push(',');
        }
        out.push_str(&field);
    };
    if let Some(t) = options.get_node_time() {
        push(&mut out, format!("\"node_time\":{t}"));
    }
    if let Some(b) = options.get_step_budget() {
        push(&mut out, format!("\"step_budget\":{b}"));
    }
    if options.get_profile() {
        push(&mut out, "\"profile\":true".into());
    }
    if options.get_issue_policy() != IssuePolicy::Fifo {
        push(&mut out, "\"issue_policy\":\"priority\"".into());
    }
    if options.get_engine() != SchedulePolicy::Auto {
        push(
            &mut out,
            format!("\"engine\":\"{}\"", options.get_engine().as_str()),
        );
    }
    out.push('}');
    out
}

/// Parses the `"options"` object form back to [`CompileOptions`] — the
/// inverse of [`options_to_json`].
///
/// # Errors
///
/// A human-readable message on an unknown key or a mistyped value.
pub fn options_from_json(value: &JsonValue) -> Result<CompileOptions, String> {
    let obj = value
        .as_object()
        .ok_or("\"options\" must be a JSON object")?;
    let mut options = CompileOptions::new();
    for (key, value) in obj {
        match key.as_str() {
            "node_time" => {
                let cycles = expect_u64(key, value)?;
                if cycles == 0 {
                    return Err("\"node_time\" must be >= 1".into());
                }
                options = options.node_time(cycles);
            }
            "step_budget" => {
                let budget = expect_u64(key, value)?;
                if budget > tpn::MAX_STEP_BUDGET {
                    return Err(format!(
                        "\"step_budget\" must be at most {} instants",
                        tpn::MAX_STEP_BUDGET
                    ));
                }
                options = options.step_budget(budget);
            }
            "profile" => options = options.profile(expect_bool(key, value)?),
            "issue_policy" => match value {
                JsonValue::Str(s) if s == "fifo" => {
                    options = options.issue_policy(IssuePolicy::Fifo);
                }
                JsonValue::Str(s) if s == "priority" => {
                    options = options.issue_policy(IssuePolicy::Priority);
                }
                _ => return Err("\"issue_policy\" must be \"fifo\" or \"priority\"".into()),
            },
            "engine" => match value {
                JsonValue::Str(s) if SchedulePolicy::parse(s).is_some() => {
                    options = options.engine(SchedulePolicy::parse(s).expect("just checked"));
                }
                _ => return Err("\"engine\" must be \"auto\", \"analytic\" or \"frustum\"".into()),
            },
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(options)
}

fn get_u64(obj: &[(String, JsonValue)], key: &str) -> Result<Option<u64>, String> {
    match obj.iter().find(|(k, _)| k == key) {
        None | Some((_, JsonValue::Null)) => Ok(None),
        Some((_, value)) => expect_u64(key, value).map(Some),
    }
}

fn expect_u64(key: &str, value: &JsonValue) -> Result<u64, String> {
    match value {
        JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
            Ok(*n as u64)
        }
        _ => Err(format!("{key:?} must be a non-negative integer")),
    }
}

fn expect_bool(key: &str, value: &JsonValue) -> Result<bool, String> {
    match value {
        JsonValue::Bool(b) => Ok(*b),
        _ => Err(format!("{key:?} must be a boolean")),
    }
}

// ---------------------------------------------------------------------------
// Response payloads — shared with `tpnc --format json`.
// ---------------------------------------------------------------------------

/// An exact rational rendered as a JSON object, emitted alongside every
/// `"p/q"` ratio string so clients get the `{num, den}` pair (and a
/// convenience float) without parsing the string form.
#[derive(Serialize)]
pub struct RationalJson {
    /// Numerator, lowest terms.
    pub num: u64,
    /// Denominator, lowest terms (never zero).
    pub den: u64,
    /// `num / den` as a double — lossy, for display only.
    pub float: f64,
}

impl From<Ratio> for RationalJson {
    fn from(r: Ratio) -> Self {
        RationalJson {
            num: r.numer(),
            den: r.denom(),
            float: r.to_f64(),
        }
    }
}

/// The `analyze` row (also `tpnc analyze --format json`).
#[derive(Serialize)]
pub struct AnalyzeJson {
    /// Source file, when invoked on one (the service sends `null`).
    pub file: Option<String>,
    /// Always `"analyze"`.
    pub command: String,
    /// Loop nodes.
    pub size: usize,
    /// Input (read-only) arrays.
    pub input_arrays: Vec<String>,
    /// Scalar parameters.
    pub params: Vec<String>,
    /// Names on a critical cycle.
    pub critical_cycle: Vec<String>,
    /// `α* = max Ω(C)/M(C)` as an exact ratio string.
    pub cycle_time: String,
    /// `α*` as an exact `{num, den}` pair.
    pub cycle_time_rational: RationalJson,
    /// `1/α*` as an exact ratio string.
    pub optimal_rate: String,
    /// `1/α*` as an exact `{num, den}` pair.
    pub optimal_rate_rational: RationalJson,
    /// Storage locations of the naive allocation.
    pub storage_locations: usize,
}

/// The `schedule` / `scp` row (also `tpnc schedule --format json`).
#[derive(Serialize)]
pub struct ScheduleJson {
    /// Source file, when invoked on one.
    pub file: Option<String>,
    /// Always `"schedule"`.
    pub command: String,
    /// The SCP depth, when scheduling the shared-pipeline model.
    pub scp_depth: Option<u64>,
    /// The initiation interval as an exact ratio string.
    pub initiation_interval: String,
    /// The initiation interval as an exact `{num, den}` pair.
    pub initiation_interval_rational: RationalJson,
    /// Steady-state period in cycles.
    pub period: u64,
    /// Iterations initiated per period.
    pub iterations_per_period: u64,
    /// Measured SCP rate (SCP rows only).
    pub rate: Option<String>,
    /// Measured SCP rate as an exact `{num, den}` pair (SCP rows only).
    pub rate_rational: Option<RationalJson>,
    /// Issue-slot utilization (SCP rows only).
    pub utilization: Option<String>,
    /// Issue-slot utilization as an exact `{num, den}` pair (SCP rows
    /// only).
    pub utilization_rational: Option<RationalJson>,
    /// The rendered kernel.
    pub kernel: String,
}

/// The `rate` row: measured-versus-bound rates.
#[derive(Serialize)]
pub struct RateJson {
    /// Source file, when invoked on one.
    pub file: Option<String>,
    /// Always `"rate"`.
    pub command: String,
    /// The SCP depth, when rating the shared-pipeline model.
    pub scp_depth: Option<u64>,
    /// The steady-state rate of every loop node.
    pub measured: String,
    /// The measured rate as an exact `{num, den}` pair.
    pub measured_rational: RationalJson,
    /// The critical-cycle bound (plain SDSP-PN rows only).
    pub optimal: Option<String>,
    /// The bound as an exact `{num, den}` pair (plain rows only).
    pub optimal_rational: Option<RationalJson>,
    /// The `1/n` resource ceiling (SCP rows only).
    pub resource_bound: Option<String>,
    /// The ceiling as an exact `{num, den}` pair (SCP rows only).
    pub resource_bound_rational: Option<RationalJson>,
    /// Issue-slot occupancy (SCP rows only).
    pub utilization: Option<String>,
    /// Issue-slot occupancy as an exact `{num, den}` pair (SCP rows
    /// only).
    pub utilization_rational: Option<RationalJson>,
    /// Whether the schedule attains the critical-cycle bound (plain
    /// rows only; Theorem 4.1.1 says it always does).
    pub time_optimal: Option<bool>,
}

/// The `storage` row in minimisation mode (also `tpnc storage --format
/// json`).
#[derive(Serialize)]
pub struct StorageJson {
    /// Source file, when invoked on one.
    pub file: Option<String>,
    /// Always `"storage"`.
    pub command: String,
    /// `"minimize"` or `"balance"`.
    pub mode: String,
    /// Locations before the transformation.
    pub locations_before: usize,
    /// Locations after.
    pub locations_after: usize,
    /// Rate before balancing (balance mode only).
    pub rate_before: Option<String>,
    /// Rate before balancing as an exact `{num, den}` pair (balance mode
    /// only).
    pub rate_before_rational: Option<RationalJson>,
    /// Rate after the transformation.
    pub rate_after: String,
    /// Rate after the transformation as an exact `{num, den}` pair.
    pub rate_after_rational: RationalJson,
}

/// The `trace` row: the replay-validated firing trace with its Chrome
/// trace-event JSON inlined (deterministic, single line).
#[derive(Serialize)]
pub struct TraceJson {
    /// Source file, when invoked on one.
    pub file: Option<String>,
    /// Always `"trace"`.
    pub command: String,
    /// The SCP depth, when tracing the shared-pipeline model.
    pub scp_depth: Option<u64>,
    /// Frustum start instant.
    pub start_time: u64,
    /// Frustum repeat instant.
    pub repeat_time: u64,
    /// Frustum period.
    pub period: u64,
    /// Events in the trace.
    pub events: usize,
    /// Events the replay validator checked.
    pub events_checked: usize,
    /// The `chrome://tracing` JSON document.
    pub chrome: String,
}

/// Builds the `analyze` payload.
///
/// # Errors
///
/// Whatever [`CompiledLoop::analyze`] reports.
pub fn analyze_payload(lp: &CompiledLoop, file: Option<String>) -> Result<AnalyzeJson, Error> {
    let a = lp.analyze()?;
    Ok(AnalyzeJson {
        file,
        command: "analyze".into(),
        size: lp.size(),
        input_arrays: lp.sdsp().input_arrays(),
        params: lp.sdsp().params(),
        critical_cycle: a.critical_nodes,
        cycle_time: a.cycle_time.to_string(),
        cycle_time_rational: a.cycle_time.into(),
        optimal_rate: a.optimal_rate.to_string(),
        optimal_rate_rational: a.optimal_rate.into(),
        storage_locations: lp.sdsp().storage_locations(),
    })
}

/// Builds the `schedule` payload; `depth` switches to the SCP model.
///
/// # Errors
///
/// Whatever [`CompiledLoop::schedule`] / [`CompiledLoop::scp`] report.
pub fn schedule_payload(
    lp: &CompiledLoop,
    depth: Option<u64>,
    file: Option<String>,
) -> Result<ScheduleJson, Error> {
    Ok(match depth {
        None => {
            let s = lp.schedule()?;
            ScheduleJson {
                file,
                command: "schedule".into(),
                scp_depth: None,
                initiation_interval: s.initiation_interval().to_string(),
                initiation_interval_rational: s.initiation_interval().into(),
                period: s.period(),
                iterations_per_period: s.iterations_per_period(),
                rate: None,
                rate_rational: None,
                utilization: None,
                utilization_rational: None,
                kernel: s.render_kernel(),
            }
        }
        Some(depth) => {
            let run = lp.scp(depth)?;
            ScheduleJson {
                file,
                command: "schedule".into(),
                scp_depth: Some(depth),
                initiation_interval: run.schedule.initiation_interval().to_string(),
                initiation_interval_rational: run.schedule.initiation_interval().into(),
                period: run.schedule.period(),
                iterations_per_period: run.schedule.iterations_per_period(),
                rate: Some(run.rates.measured.to_string()),
                rate_rational: Some(run.rates.measured.into()),
                utilization: Some(run.rates.utilization.to_string()),
                utilization_rational: Some(run.rates.utilization.into()),
                kernel: run.schedule.render_kernel(),
            }
        }
    })
}

/// Builds the `rate` payload; `depth` switches to the SCP model.
///
/// # Errors
///
/// Whatever [`CompiledLoop::rate_report`] / [`CompiledLoop::scp`]
/// report.
pub fn rate_payload(
    lp: &CompiledLoop,
    depth: Option<u64>,
    file: Option<String>,
) -> Result<RateJson, Error> {
    Ok(match depth {
        None => {
            let r = lp.rate_report()?;
            RateJson {
                file,
                command: "rate".into(),
                scp_depth: None,
                measured: r.measured.to_string(),
                measured_rational: r.measured.into(),
                optimal: Some(r.optimal.to_string()),
                optimal_rational: Some(r.optimal.into()),
                resource_bound: None,
                resource_bound_rational: None,
                utilization: None,
                utilization_rational: None,
                time_optimal: Some(r.is_time_optimal()),
            }
        }
        Some(depth) => {
            let run = lp.scp(depth)?;
            RateJson {
                file,
                command: "rate".into(),
                scp_depth: Some(depth),
                measured: run.rates.measured.to_string(),
                measured_rational: run.rates.measured.into(),
                optimal: None,
                optimal_rational: None,
                resource_bound: Some(run.rates.resource_bound.to_string()),
                resource_bound_rational: Some(run.rates.resource_bound.into()),
                utilization: Some(run.rates.utilization.to_string()),
                utilization_rational: Some(run.rates.utilization.into()),
                time_optimal: None,
            }
        }
    })
}

/// Builds the `storage` payload (minimisation mode).
///
/// # Errors
///
/// Whatever [`CompiledLoop::storage`] reports.
pub fn storage_payload(lp: &CompiledLoop, file: Option<String>) -> Result<StorageJson, Error> {
    let run = lp.storage()?;
    Ok(StorageJson {
        file,
        command: "storage".into(),
        mode: "minimize".into(),
        locations_before: run.report.before,
        locations_after: run.report.after,
        rate_before: None,
        rate_before_rational: None,
        rate_after: run.report.cycle_time.recip().to_string(),
        rate_after_rational: run.report.cycle_time.recip().into(),
    })
}

/// Builds the `trace` payload, serialized: replay-validates the firing
/// trace, then inlines its Chrome trace JSON. The other fields serialize
/// as [`TraceJson`] does; the document is written straight into its
/// string literal in escaped form instead of built and then escaped.
///
/// # Errors
///
/// Whatever [`CompiledLoop::validate_trace`] /
/// [`CompiledLoop::validate_scp_trace`] report.
pub fn trace_payload_json(
    lp: &CompiledLoop,
    depth: Option<u64>,
    file: Option<String>,
) -> Result<String, Error> {
    let (head, trace) = trace_head(lp, depth, file)?;
    let mut json = serde_json::to_string(&head).expect("shim serializer is infallible");
    // `chrome` is the last field and empty: reopen its literal.
    json.truncate(
        json.strip_suffix("\"}")
            .expect("an empty trailing chrome literal")
            .len(),
    );
    trace.write_chrome_trace_json(&mut json, true);
    json.push_str("\"}");
    Ok(json)
}

/// The `trace` payload with an empty `chrome`, and the trace to render.
fn trace_head(
    lp: &CompiledLoop,
    depth: Option<u64>,
    file: Option<String>,
) -> Result<(TraceJson, Arc<FiringTrace>), Error> {
    let (validation, trace) = match depth {
        None => (lp.validate_trace()?, lp.firing_trace()?),
        Some(depth) => (lp.validate_scp_trace(depth)?, lp.scp_trace(depth)?),
    };
    let head = TraceJson {
        file,
        command: "trace".into(),
        scp_depth: depth,
        start_time: trace.start_time,
        repeat_time: trace.repeat_time,
        period: trace.period(),
        events: trace.events.len(),
        events_checked: validation.events_checked,
        chrome: String::new(),
    };
    Ok((head, trace))
}

/// One transition row of the `explain` certificate.
#[derive(Serialize)]
pub struct ExplainTransitionJson {
    /// The loop node (or liveness buffer).
    pub name: String,
    /// Its execution time `τ`.
    pub time: u64,
    /// Its scaled potential `σ′`.
    pub potential: i128,
}

/// One place row of the `explain` certificate.
#[derive(Serialize)]
pub struct ExplainPlaceJson {
    /// The producer `u`, as an index into the transition rows.
    pub from: usize,
    /// The consumer `v`, as an index into the transition rows.
    pub to: usize,
    /// The tokens `m` the place holds initially.
    pub tokens: u32,
    /// `σ′_v − σ′_u − (q·τ_u − p·m)`: never negative, zero on every
    /// critical cycle.
    pub slack: i128,
}

/// The rate certificate of the `explain` payload: with it a client
/// re-checks `α* = p/q` without the net.
#[derive(Serialize)]
pub struct ExplainCertificateJson {
    /// `p` of `α* = p/q`.
    pub p: u64,
    /// `q` of `α* = p/q`.
    pub q: u64,
    /// Every transition, in net order.
    pub transitions: Vec<ExplainTransitionJson>,
    /// Every place, by ascending slack, then in net order.
    pub places: Vec<ExplainPlaceJson>,
    /// Positions in `places` of the witness cycle's places, in walk
    /// order (empty for a self-loop witness).
    pub witness_places: Vec<usize>,
}

/// One issue-word row of the `explain` payload.
#[derive(Serialize)]
pub struct ExplainWordJson {
    /// The loop node.
    pub node: String,
    /// `'1'`/`'0'` per cycle of the kernel window; `'1'` = starts a
    /// firing.
    pub word: String,
}

/// The `explain` row (also `tpnc explain --format json`): the
/// self-validated scheduling witness.
#[derive(Serialize)]
pub struct ExplainJson {
    /// Source file, when invoked on one (the service sends `null`).
    pub file: Option<String>,
    /// Always `"explain"`.
    pub command: String,
    /// Loop nodes.
    pub size: usize,
    /// `α* = max Ω(C)/M(C)` as an exact ratio string.
    pub cycle_time: String,
    /// `α*` as an exact `{num, den}` pair.
    pub cycle_time_rational: RationalJson,
    /// `1/α*` as an exact ratio string.
    pub rate: String,
    /// `1/α*` as an exact `{num, den}` pair.
    pub rate_rational: RationalJson,
    /// Names on the critical witness cycle (empty for a self-loop
    /// witness).
    pub witness_transitions: Vec<String>,
    /// The dominating slow node, when the bound is a single node's
    /// non-reentrance rather than a token-carrying cycle.
    pub witness_self_loop: Option<String>,
    /// `Ω(C)` of the witness cycle (`null` for a self-loop witness).
    pub total_time: Option<u64>,
    /// `M(C)` of the witness cycle (`null` for a self-loop witness).
    pub token_count: Option<u64>,
    /// The rate certificate: potentials and per-place slack.
    pub certificate: ExplainCertificateJson,
    /// The engine the compile options asked for.
    pub engine_configured: String,
    /// The engine actually used after `auto` resolution.
    pub engine_resolved: String,
    /// Whether the compiled net is a pure marked graph.
    pub marked_graph: bool,
    /// A one-line engine-decision reason.
    pub engine_reason: String,
    /// Kernel length `p` in cycles (marked graphs only).
    pub issue_period: Option<u64>,
    /// Iterations per kernel `q` (marked graphs only).
    pub issue_iterations: Option<u64>,
    /// First cycle of the steady-state window (marked graphs only).
    pub issue_anchor: Option<u64>,
    /// Balanced issue words, one row per loop node (marked graphs only).
    pub issue_words: Option<Vec<ExplainWordJson>>,
    /// Whether the certificate checked in process, the rate is the exact
    /// reciprocal of `α*`, and the issue words are balanced.
    pub validated: bool,
    /// The discrepancies found during re-validation (empty when
    /// `validated`).
    pub validation_errors: Vec<String>,
}

/// Builds the `explain` payload from the memoized witness.
///
/// # Errors
///
/// Whatever [`CompiledLoop::explain`] reports.
pub fn explain_payload(lp: &CompiledLoop, file: Option<String>) -> Result<ExplainJson, Error> {
    let e = lp.explain()?;
    Ok(ExplainJson {
        file,
        command: "explain".into(),
        size: lp.size(),
        cycle_time: e.cycle_time.to_string(),
        cycle_time_rational: e.cycle_time.into(),
        rate: e.rate.to_string(),
        rate_rational: e.rate.into(),
        witness_transitions: e.witness_transitions.clone(),
        witness_self_loop: e.witness_self_loop.clone(),
        total_time: e.total_time,
        token_count: e.token_count,
        certificate: ExplainCertificateJson {
            p: e.certificate.p,
            q: e.certificate.q,
            transitions: e
                .certificate
                .transitions
                .iter()
                .map(|t| ExplainTransitionJson {
                    name: t.name.clone(),
                    time: t.time,
                    potential: t.potential,
                })
                .collect(),
            places: e
                .certificate
                .places
                .iter()
                .map(|pl| ExplainPlaceJson {
                    from: pl.from,
                    to: pl.to,
                    tokens: pl.tokens,
                    slack: pl.slack,
                })
                .collect(),
            witness_places: e.certificate.witness_places.clone(),
        },
        engine_configured: e.engine.configured.as_str().into(),
        engine_resolved: e.engine.resolved.as_str().into(),
        marked_graph: e.engine.marked_graph,
        engine_reason: e.engine.reason.clone(),
        issue_period: e.issue_words.as_ref().map(|w| w.period),
        issue_iterations: e.issue_words.as_ref().map(|w| w.iterations),
        issue_anchor: e.issue_words.as_ref().map(|w| w.anchor),
        issue_words: e.issue_words.as_ref().map(|w| {
            w.words
                .iter()
                .map(|(node, word)| ExplainWordJson {
                    node: node.clone(),
                    word: word.clone(),
                })
                .collect()
        }),
        validated: e.validated,
        validation_errors: e.validation_errors.clone(),
    })
}

// ---------------------------------------------------------------------------
// Response envelopes.
// ---------------------------------------------------------------------------

/// Renders a success envelope around an already-serialized payload.
pub fn ok_envelope(id: u64, verb: Verb, payload_json: &str) -> String {
    // Payloads run to hundreds of kilobytes (`trace`), so the envelope is
    // written around one copy of the payload into one buffer.
    let mut out = String::with_capacity(payload_json.len() + 64);
    let _ = write!(
        out,
        "{{\"id\":{id},\"ok\":true,\"verb\":\"{}\",\"payload\":",
        verb.as_str()
    );
    out.push_str(payload_json);
    out.push('}');
    out
}

/// Renders an error envelope. `queue_depth` is set for `overloaded`,
/// `retry_after_ms` for `rate_limited` and `unavailable`.
pub fn error_envelope(
    id: u64,
    verb: Option<Verb>,
    kind: &str,
    message: &str,
    queue_depth: Option<usize>,
    retry_after_ms: Option<u64>,
) -> String {
    let mut out = format!("{{\"id\":{id},\"ok\":false");
    if let Some(verb) = verb {
        out.push_str(&format!(",\"verb\":\"{}\"", verb.as_str()));
    }
    out.push_str(&format!(",\"error\":{{\"kind\":\"{kind}\",\"message\":"));
    serde::write_json_string(message, &mut out);
    if let Some(depth) = queue_depth {
        out.push_str(&format!(",\"queue_depth\":{depth}"));
    }
    if let Some(retry) = retry_after_ms {
        out.push_str(&format!(",\"retry_after_ms\":{retry}"));
    }
    out.push_str("}}");
    out
}

/// The id of a response line that [`ok_envelope`] or [`error_envelope`]
/// wrote, read from the envelope head (`{"id":N`) without looking at the
/// rest of the line, which can run to hundreds of kilobytes. `None` for
/// a line with any other head.
pub fn envelope_id(line: &[u8]) -> Option<u64> {
    let digits = line.strip_prefix(b"{\"id\":")?;
    let end = digits
        .iter()
        .position(|b| !b.is_ascii_digit())
        .unwrap_or(digits.len());
    std::str::from_utf8(&digits[..end]).ok()?.parse().ok()
}

// ---------------------------------------------------------------------------
// A minimal JSON parser (the serde_json shim only serializes).
// ---------------------------------------------------------------------------

/// A parsed JSON value. Objects keep insertion order (a `Vec` of
/// key/value pairs), which is all the protocol needs.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (integers round-trip exactly up to 2^53).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The key/value pairs when this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Looks a key up when this is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// The deepest nesting of objects and arrays [`parse_json`] accepts. The
/// deepest request has 3 levels (envelope, `body`, `options`) and the
/// deepest response the router re-parses has 5 (`explain`'s certificate
/// rows); the cap
/// keeps a hostile line from overflowing the parsing thread's stack.
pub const MAX_DEPTH: usize = 64;

/// The request-line cap of `tpnc serve` and `tpnc route`: a connection
/// holding this many bytes with no newline gets one `bad_request`, and
/// its input is discarded through the next newline.
pub const MAX_LINE: usize = 1024 * 1024;

/// Parses a complete JSON document (rejects trailing garbage).
///
/// # Errors
///
/// A message with the byte offset of the first syntax error, or of the
/// first object or array nested deeper than [`MAX_DEPTH`].
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut parser = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing characters at byte {}", parser.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Objects and arrays open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}",
                char::from(byte),
                self.pos
            ))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses one object or array a level deeper, up to [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("invalid number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let unit = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err("lone high surrogate".into());
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err("invalid low surrogate".into());
                                }
                                let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(code).ok_or("invalid surrogate pair")?
                            } else {
                                char::from_u32(unit).ok_or("invalid \\u escape")?
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(format!("invalid escape \\{}", char::from(other)));
                        }
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash as one
                    // slice: both are ASCII, so the run ends on a char
                    // boundary of the source text.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "invalid \\u escape".to_string())?;
        let unit = u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape".to_string())?;
        self.pos = end;
        Ok(unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_payload_json_is_the_serialized_trace_json() {
        let sources = [
            "do i from 2 to n { X[i] := Z[i] * (Y[i] - X[i-1]); }",
            "doall i from 1 to n { A[i] := B[i] + 1; C[i] := A[i] * A[i]; D[i] := C[i] - B[i]; }",
            "do i from 3 to n { X[i] := X[i-2] + Z[i]; Y[i] := X[i] * 2; W[i] := Y[i-1] + X[i]; }",
        ];
        for source in sources {
            let lp = CompiledLoop::from_source(source).unwrap();
            for depth in [None, Some(1), Some(4), Some(8)] {
                for file in [None, Some("a \"quoted\\ name.tpn".to_string())] {
                    let (head, trace) = trace_head(&lp, depth, file.clone()).unwrap();
                    let chrome = trace.chrome_trace_json();
                    let want = serde_json::to_string(&TraceJson { chrome, ..head }).unwrap();
                    let got = trace_payload_json(&lp, depth, file).unwrap();
                    assert_eq!(got, want, "{source} at depth {depth:?}");
                }
            }
        }
    }

    #[test]
    fn envelope_ids_match_the_parsed_id() {
        let parsed = |line: &str| match parse_json(line).unwrap().get("id") {
            Some(JsonValue::Num(n)) => Some(*n as u64),
            _ => None,
        };
        for id in [0, 7, 1_000_042, u64::from(u32::MAX) * 1024] {
            for line in [
                ok_envelope(id, Verb::Analyze, "{\"nodes\":[1,2]}"),
                error_envelope(id, None, "unavailable", "retry", None, Some(1_000)),
                error_envelope(id, Some(Verb::Trace), "panic", "\"id\":9", Some(3), None),
            ] {
                assert_eq!(envelope_id(line.as_bytes()), Some(id), "{line}");
                assert_eq!(envelope_id(line.as_bytes()), parsed(&line), "{line}");
            }
        }
        for other in [
            "",
            "{",
            "{\"ok\":true,\"id\":3}",
            "[1]",
            "{\"id\":x}",
            "{\"v\":2,\"id\":3}",
        ] {
            assert_eq!(envelope_id(other.as_bytes()), None, "{other}");
        }
    }

    #[test]
    fn parser_round_trips_shim_output() {
        #[derive(Serialize)]
        struct Row {
            name: String,
            n: u64,
            rate: Option<String>,
            flags: Vec<bool>,
        }
        let row = Row {
            name: "a\"b\\c\nd".into(),
            n: 42,
            rate: None,
            flags: vec![true, false],
        };
        let text = serde_json::to_string(&row).unwrap();
        let value = parse_json(&text).unwrap();
        assert_eq!(
            value.get("name"),
            Some(&JsonValue::Str("a\"b\\c\nd".into()))
        );
        assert_eq!(value.get("n"), Some(&JsonValue::Num(42.0)));
        assert_eq!(value.get("rate"), Some(&JsonValue::Null));
        assert_eq!(
            value.get("flags"),
            Some(&JsonValue::Arr(vec![
                JsonValue::Bool(true),
                JsonValue::Bool(false)
            ]))
        );
    }

    #[test]
    fn parser_handles_unicode_escapes() {
        let value = parse_json(r#"{"s":"é😀"}"#).unwrap();
        assert_eq!(value.get("s"), Some(&JsonValue::Str("é😀".into())));
    }

    #[test]
    fn parser_copies_long_and_multibyte_strings_whole() {
        let long = "x".repeat(1 << 20);
        let value = parse_json(&format!("{{\"s\":\"{long}\"}}")).unwrap();
        assert_eq!(value.get("s"), Some(&JsonValue::Str(long)));
        let text = "π ≈ 3.14 — naïve 😀 \\ \"q\"";
        let value = parse_json(&serde_json::to_string(&text).unwrap()).unwrap();
        assert_eq!(value, JsonValue::Str(text.into()));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("").is_err());
        assert!(parse_json("{\"a\":1,}").is_err());
        assert!(parse_json("[1,2] trailing").is_err());
        assert!(parse_json("{\"a\" 1}").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    #[test]
    fn parser_caps_nesting_before_the_stack_runs_out() {
        let deep = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| parse_json(&"[".repeat(100_000)).unwrap_err())
            .unwrap()
            .join()
            .expect("a deep line fails to parse instead of overflowing the stack");
        assert!(deep.contains("nesting deeper than"), "{deep}");
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_json(&nest(MAX_DEPTH)).is_ok());
        assert!(parse_json(&nest(MAX_DEPTH + 1)).is_err());
        // parse_request reports it as a plain bad request.
        let line = format!(
            "{{\"id\":1,\"verb\":\"analyze\",\"source\":{}}}",
            nest(MAX_DEPTH)
        );
        assert!(matches!(
            parse_request(&line),
            Err(ParseError::Bad { id: None, .. })
        ));
    }

    #[test]
    fn request_parsing_validates_fields() {
        let req = parse_request(
            r#"{"id":7,"verb":"schedule","source":"do i from 2 to n { X[i] := X[i-1]; }",
               "depth":2,"deadline_ms":100,
               "options":{"node_time":3,"issue_policy":"priority"}}"#,
        )
        .unwrap();
        assert_eq!(req.id, 7);
        assert_eq!(req.verb, Verb::Schedule);
        assert_eq!(req.depth, Some(2));
        assert_eq!(req.deadline_ms, Some(100));
        assert_eq!(req.options.get_node_time(), Some(3));
        assert_eq!(req.options.get_issue_policy(), IssuePolicy::Priority);
        // The removed recorder switch is unknown, like any other key.
        let bad = |message: &str| ParseError::Bad {
            id: Some(1),
            message: message.into(),
        };
        assert_eq!(
            parse_request(r#"{"id":1,"verb":"schedule","source":"x","options":{"trace":true}}"#)
                .unwrap_err(),
            bad("unknown option \"trace\"")
        );

        // A zero node time is refused here; `CompileOptions::node_time`
        // would panic on it on the serving loop's thread.
        assert_eq!(
            parse_request(r#"{"id":1,"verb":"analyze","source":"x","options":{"node_time":0}}"#)
                .unwrap_err(),
            bad("\"node_time\" must be >= 1")
        );
        // A step budget past the detection ceiling is refused, not run.
        let budget = |b: u64| {
            parse_request(&format!(
                r#"{{"id":1,"verb":"schedule","source":"x","options":{{"step_budget":{b}}}}}"#
            ))
        };
        let ceiling = tpn::MAX_STEP_BUDGET;
        assert_eq!(
            budget(ceiling).unwrap().options.get_step_budget(),
            Some(ceiling)
        );
        assert_eq!(
            budget(ceiling + 1).unwrap_err(),
            bad(&format!(
                "\"step_budget\" must be at most {ceiling} instants"
            ))
        );

        assert!(parse_request(r#"{"verb":"analyze","source":"x"}"#).is_err());
        assert!(parse_request(r#"{"id":1,"verb":"warp","source":"x"}"#).is_err());
        assert!(parse_request(r#"{"id":1,"verb":"analyze"}"#).is_err());
        assert!(parse_request(r#"{"id":1,"verb":"scp","source":"x"}"#).is_err());
        assert!(parse_request(r#"{"id":1,"verb":"scp","source":"x","depth":0}"#).is_err());
        assert!(parse_request(r#"{"id":1,"verb":"cancel"}"#).is_err());
        assert!(parse_request(r#"{"id":1,"verb":"metrics"}"#).is_ok());
        // The other front-end verbs need no source either…
        assert!(parse_request(r#"{"id":1,"verb":"metrics_prometheus"}"#).is_ok());
        assert!(parse_request(r#"{"id":1,"verb":"journal"}"#).is_ok());
        // …but explain compiles a loop, so it does.
        assert!(parse_request(r#"{"id":1,"verb":"explain"}"#).is_err());
        assert!(parse_request(r#"{"id":1,"verb":"explain","source":"x"}"#).is_ok());
    }

    #[test]
    fn version_one_parses_and_other_versions_are_typed() {
        // v absent or 1 => the one protocol, fields at the top level.
        for line in [
            r#"{"id":7,"verb":"schedule","client":"ci-bot","source":"x","depth":2}"#,
            r#"{"v":1,"id":7,"verb":"schedule","client":"ci-bot","source":"x","depth":2}"#,
        ] {
            let req = parse_request(line).unwrap();
            assert_eq!((req.id, req.depth), (7, Some(2)));
            assert_eq!(req.client.as_deref(), Some("ci-bot"));
        }
        // Every other version is a typed error echoing the id.
        for v in [2, 3, 99] {
            let err = parse_request(&format!(
                r#"{{"v":{v},"id":9,"verb":"analyze","body":{{"source":"x"}}}}"#
            ))
            .unwrap_err();
            assert_eq!(err, ParseError::UnsupportedVersion { id: Some(9), v });
            assert_eq!(
                err.reply(),
                format!(
                    "{{\"id\":9,\"ok\":false,\"error\":{{\"kind\":\"unsupported_version\",\
                     \"message\":\"unsupported envelope version {v} (this server speaks 1)\"}}}}"
                )
            );
        }
        assert_eq!(
            parse_request(r#"{"v":99,"verb":"analyze"}"#).unwrap_err(),
            ParseError::UnsupportedVersion { id: None, v: 99 }
        );
        // A bad line echoes its id when it has one, 0 otherwise.
        let zero = r#"{"id":498,"verb":"analyze","source":"x","options":{"node_time":0}}"#;
        assert_eq!(
            parse_request(zero).unwrap_err().reply(),
            "{\"id\":498,\"ok\":false,\"error\":{\"kind\":\"bad_request\",\
             \"message\":\"\\\"node_time\\\" must be >= 1\"}}"
        );
        assert!(parse_request("not json")
            .unwrap_err()
            .reply()
            .starts_with("{\"id\":0,\"ok\":false,\"error\":{\"kind\":\"bad_request\""));
    }

    #[test]
    fn options_json_round_trips_non_default_fields() {
        let options = CompileOptions::new()
            .node_time(3)
            .step_budget(1_000)
            .profile(true)
            .issue_policy(IssuePolicy::Priority)
            .engine(SchedulePolicy::Frustum);
        let json = options_to_json(&options);
        let back = options_from_json(&parse_json(&json).unwrap()).unwrap();
        assert_eq!(back, options);
        assert_eq!(back.fingerprint(), options.fingerprint());

        // Defaults serialize to the empty object and round-trip.
        assert_eq!(options_to_json(&CompileOptions::new()), "{}");
        let empty = options_from_json(&parse_json("{}").unwrap()).unwrap();
        assert_eq!(empty, CompileOptions::new());
    }

    #[test]
    fn cache_keys_are_pinned() {
        // Keys name the artifact store's objects and pick the router's
        // shard, so they must not move between releases.
        let source = "do i from 2 to n { X[i] := X[i-1] + 1; }";
        let cases = [
            (CompileOptions::new(), 0x2034_6c93_e521_2f50),
            (
                CompileOptions::new().engine(SchedulePolicy::Frustum),
                0x7540_5677_05a7_0cfc,
            ),
            (
                CompileOptions::new().engine(SchedulePolicy::Analytic),
                0xf8fe_e0ef_f043_549c,
            ),
            (CompileOptions::new().node_time(3), 0x8d05_bbbf_cfc1_9375),
            (
                CompileOptions::new().step_budget(100_000),
                0xc20c_6186_ee44_d0f4,
            ),
            (
                CompileOptions::new().issue_policy(IssuePolicy::Priority),
                0x0426_21ce_30c0_78c9,
            ),
            (CompileOptions::new().profile(true), 0xc52b_2874_723d_ec6a),
        ];
        for (options, key) in cases {
            assert_eq!(cache_key(source, &options), key, "{options:?}");
        }
    }

    #[test]
    fn verb_table_round_trips_names_and_indices() {
        for (i, verb) in Verb::ALL.iter().enumerate() {
            assert_eq!(verb.index(), i);
            assert_eq!(Verb::parse(verb.as_str()), Some(*verb));
        }
    }

    #[test]
    fn explain_payload_reports_a_validated_witness() {
        let lp = CompiledLoop::from_source("do i from 2 to n { X[i] := X[i-1] + 1; }").unwrap();
        let payload = explain_payload(&lp, None).unwrap();
        assert_eq!(payload.command, "explain");
        assert!(payload.validated, "{:?}", payload.validation_errors);
        assert!(payload.validation_errors.is_empty());
        // rate is exactly the reciprocal of the cycle time.
        assert_eq!(payload.cycle_time_rational.num, payload.rate_rational.den);
        assert_eq!(payload.cycle_time_rational.den, payload.rate_rational.num);
        // A pure marked graph gets the engine audit and the issue words.
        assert!(payload.marked_graph);
        assert_eq!(payload.engine_resolved, "analytic");
        let words = payload.issue_words.as_ref().expect("marked graph");
        assert!(!words.is_empty());
        // The certificate re-checks from the payload alone: every place
        // meets its constraint, every τ its self-loop bound, and the
        // witness attains p/q through zero-slack places.
        let cert = &payload.certificate;
        let (p, q) = (i128::from(cert.p), i128::from(cert.q));
        for pl in &cert.places {
            let (u, v) = (&cert.transitions[pl.from], &cert.transitions[pl.to]);
            let weight = q * i128::from(u.time) - p * i128::from(pl.tokens);
            assert!(v.potential - u.potential >= weight);
            assert_eq!(pl.slack, v.potential - u.potential - weight);
        }
        assert!(cert.transitions.iter().all(|t| q * i128::from(t.time) <= p));
        let (mut omega, mut tokens) = (0, 0);
        for (k, &row) in cert.witness_places.iter().enumerate() {
            let next = cert.witness_places[(k + 1) % cert.witness_places.len()];
            assert_eq!(cert.places[row].to, cert.places[next].from);
            assert_eq!(cert.places[row].slack, 0);
            omega += i128::from(cert.transitions[cert.places[row].from].time);
            tokens += i128::from(cert.places[row].tokens);
        }
        assert!(tokens > 0);
        assert_eq!(q * omega, p * tokens);
        // The payload is a single serializable line.
        let line = serde_json::to_string(&payload).unwrap();
        assert!(!line.contains('\n'));
        assert!(parse_json(&line).is_ok());
    }

    #[test]
    fn normalization_ignores_formatting_but_not_tokens() {
        let a = "do i from 2 to n { X[i] := X[i-1] + 1; }";
        let b = "do i from 2 to n {\n  X[i] := X[i-1] + 1; // comment\n}";
        let c = "do i from 2 to n { X[i] := X[i-1] + 2; }";
        assert_eq!(normalize_source(a), normalize_source(b));
        assert_ne!(normalize_source(a), normalize_source(c));

        let opts = CompileOptions::new();
        assert_eq!(cache_key(a, &opts), cache_key(b, &opts));
        assert_ne!(cache_key(a, &opts), cache_key(c, &opts));
        assert_ne!(
            cache_key(a, &opts),
            cache_key(a, &CompileOptions::new().node_time(2))
        );
    }

    #[test]
    fn envelopes_are_single_line_json() {
        let ok = ok_envelope(3, Verb::Analyze, "{\"x\":1}");
        assert_eq!(
            ok,
            "{\"id\":3,\"ok\":true,\"verb\":\"analyze\",\"payload\":{\"x\":1}}"
        );
        let err = error_envelope(
            9,
            Some(Verb::Schedule),
            "overloaded",
            "queue \"full\"",
            Some(8),
            None,
        );
        assert!(!err.contains('\n'));
        assert!(parse_json(&err).is_ok());
        assert_eq!(
            err,
            "{\"id\":9,\"ok\":false,\"verb\":\"schedule\",\"error\":{\"kind\":\"overloaded\",\
             \"message\":\"queue \\\"full\\\"\",\"queue_depth\":8}}"
        );
    }
}
