//! The traced run (`--trace 1`): per-layer metrics, measured from the
//! outside in. Nothing inside the program is instrumented; every span
//! wraps a call this file makes into a layer's public function.
//!
//! 1. The wire probe serves this seed's fleet (`tpnc route --shards 2`)
//!    and times hit round trips on a shard socket and on the front
//!    socket, against the same hits on an in-process `Service`.
//! 2. The reference pass replays a prefix of the workload's own request
//!    stream through an in-process `Service::call`: the in-process
//!    request time. Every reply is checked by the oracle.
//! 3. The decomposed passes replay the same prefix as the service would
//!    run it, one public layer call at a time: untraced, traced, traced,
//!    untraced. The difference is the tracing overhead; the misses' layer
//!    self-times against the reference are the attribution.
//! 4. A layer the stream never reaches is measured once per corpus loop
//!    by an off-path sweep, so every metric has calls behind it.

use std::collections::{BTreeMap, HashSet};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use tpn::dataflow::to_petri::{to_petri, SdspPn};
use tpn::dataflow::Sdsp;
use tpn::petri::ratio::{critical_ratio, explain_rate};
use tpn::sched::analytic::{analytic_schedule, AnalyticSchedule};
use tpn::sched::frustum::{detect_frustum, detect_frustum_eager, FrustumReport};
use tpn::sched::policy::FifoPolicy;
use tpn::sched::rate::{RateReport, ScpRateReport};
use tpn::sched::schedule::LoopSchedule;
use tpn::sched::scp::build_scp;
use tpn::sched::trace::FiringTrace;
use tpn::sched::validate::replay_trace;
use tpn::{CompiledLoop, SchedulePolicy};
use tpn_service::protocol::{self, Request, TraceJson, Verb};
use tpn_service::store::ArtifactStore;
use tpn_service::{Service, ServiceConfig};

use crate::corpus::{FleetStream, Loop, Req};
use crate::json;
use crate::load::{closed_loop, Stop};
use crate::oracle::{self, Expect, HitBook};
use crate::procs::{ask, Server};
use crate::workload::{Plan, Workload};
use crate::{fill_store, median, Args, Metric, Outcome, FLEET_CONNS, FLEET_WINDOW};

/// Cold prefix length, in passes over the corpus.
const COLD_PASSES: u64 = 2;
/// Fleet prefix length, in requests.
const FLEET_PREFIX: u64 = 1_000;
/// Round trips per socket in the wire probe.
const WIRE_TRIPS: u64 = 500;
/// `CompiledLoop`'s cycle-enumeration limit for the explain witness.
const EXPLAIN_CYCLE_LIMIT: usize = 4096;
/// Request id of off-path sweep spans.
const SWEEP: u64 = u64::MAX;

/// One recorded span.
struct Span {
    name: &'static str,
    request: u64,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// Spans and counts kept in memory, written out when the run ends. With
/// `on == false` every call runs unrecorded (the untraced pass).
struct Recorder {
    t0: Instant,
    on: bool,
    /// When set, only these names are recorded (the off-path sweep).
    only: Option<Vec<&'static str>>,
    spans: Vec<Span>,
    counts: Vec<(&'static str, f64)>,
}

impl Recorder {
    fn new(on: bool) -> Recorder {
        Recorder {
            t0: Instant::now(),
            on,
            only: None,
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn records(&self, name: &str) -> bool {
        self.on && self.only.as_ref().is_none_or(|o| o.contains(&name))
    }

    fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> Option<usize> {
        if !self.records(name) {
            return None;
        }
        let now = self.t0.elapsed();
        self.spans.push(Span {
            name,
            request,
            parent,
            start: now,
            end: now,
        });
        Some(self.spans.len() - 1)
    }

    fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end = self.t0.elapsed();
        }
    }

    fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, request, parent);
        let out = std::hint::black_box(f());
        self.close(span);
        out
    }

    fn count(&mut self, name: &'static str, value: f64) {
        if self.records(name) {
            self.counts.push((name, value));
        }
    }

    /// Each span's self time: its duration minus its children's.
    fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let request = if s.request == SWEEP {
                "\"sweep\"".to_string()
            } else {
                s.request.to_string()
            };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"request\":{request},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Frustum detection under the earliest firing rule, with its instants.
fn frustum(
    rec: &mut Recorder,
    id: u64,
    root: Option<usize>,
    pn: &SdspPn,
    budget: u64,
) -> Result<FrustumReport, String> {
    let span = rec.open("sched.frustum", id, root);
    let f = detect_frustum_eager(&pn.net, pn.marking.clone(), budget).map_err(err)?;
    rec.close(span);
    if let Some(i) = span {
        let us = (rec.spans[i].end - rec.spans[i].start).as_secs_f64() * 1e6;
        rec.count("sched.frustum_instants", f.stats.instants as f64);
        rec.count(
            "sched.frustum_us_per_instant",
            us / f.stats.instants.max(1) as f64,
        );
    }
    Ok(f)
}

/// Runs the layers one request reaches, as the service's compiled loop
/// runs them, one public call per span. Returns the events a trace
/// replay checked.
#[allow(clippy::too_many_arguments)]
fn verb_layers(
    rec: &mut Recorder,
    id: u64,
    root: Option<usize>,
    verb: Verb,
    depth: Option<u64>,
    engine: SchedulePolicy,
    budget: u64,
    sdsp: &Sdsp,
    pn: &SdspPn,
) -> Result<Option<usize>, String> {
    let frustum_engine = engine == SchedulePolicy::Frustum;
    match (verb, depth) {
        (Verb::Analyze, _) => {
            rec.span("petri.critical_ratio", id, root, || {
                critical_ratio(&pn.net, &pn.marking)
            })
            .map_err(err)?;
        }
        (Verb::Scp | Verb::Schedule, Some(depth)) => {
            let span = rec.open("sched.scp", id, root);
            let model = build_scp(pn, depth);
            let scp = detect_frustum(
                &model.net,
                model.marking.clone(),
                FifoPolicy::new(&model),
                budget.saturating_mul(depth),
            )
            .map_err(err)?;
            rec.close(span);
            if span.is_some() {
                rec.count("sched.scp_instants", scp.stats.instants as f64);
            }
            rec.span("sched.scp_derive", id, root, || {
                LoopSchedule::from_scp_frustum(sdsp, &model, &scp)
                    .map_err(err)
                    .and_then(|_| ScpRateReport::for_scp(&model, &scp).map_err(err))
            })?;
        }
        (Verb::Schedule, None) if frustum_engine => {
            let f = frustum(rec, id, root, pn, budget)?;
            rec.span("sched.from_frustum", id, root, || {
                LoopSchedule::from_frustum(sdsp, pn, &f)
            })
            .map_err(err)?;
        }
        (Verb::Schedule, None) => {
            rec.span("sched.analytic", id, root, || analytic_schedule(sdsp, pn))
                .map_err(err)?;
        }
        (Verb::Rate, _) if frustum_engine => {
            let f = frustum(rec, id, root, pn, budget)?;
            rec.span("sched.rate_report", id, root, || {
                RateReport::for_sdsp_pn(pn, &f)
            })
            .map_err(err)?;
        }
        (Verb::Rate, _) => {
            rec.span("sched.rate_report", id, root, || RateReport::analytic(pn))
                .map_err(err)?;
        }
        (Verb::Trace, _) => {
            let f = frustum(rec, id, root, pn, budget)?;
            let trace = rec.span("sched.trace_derive", id, root, || {
                FiringTrace::from_frustum(&pn.net, &pn.marking, &f)
            });
            let report = rec
                .span("sched.rate_report", id, root, || {
                    RateReport::for_sdsp_pn(pn, &f)
                })
                .map_err(err)?;
            let validation = rec.span("sched.replay_trace", id, root, || {
                replay_trace(&pn.net, &pn.marking, &trace).and_then(|v| {
                    v.confirm_rate(pn.net.transition_ids(), report.measured)
                        .map(|()| v)
                })
            });
            return Ok(Some(validation.map_err(err)?.events_checked));
        }
        (Verb::Storage, _) => {
            let (optimised, _) = rec
                .span("storage.minimize", id, root, || {
                    tpn::storage::minimize_storage(sdsp)
                })
                .map_err(err)?;
            // The service wraps the optimised loop in a compiled loop,
            // which builds its net.
            rec.span("dataflow.to_petri", id, root, || to_petri(&optimised));
        }
        (Verb::Explain, _) => {
            let ex = rec
                .span("petri.explain_rate", id, root, || {
                    explain_rate(&pn.net, &pn.marking, EXPLAIN_CYCLE_LIMIT)
                })
                .map_err(err)?;
            rec.span("petri.explain_validate", id, root, || {
                ex.validate(&pn.net, &pn.marking)
            });
            rec.span("sched.analytic_words", id, root, || {
                pn.net.is_marked_graph().then(|| {
                    AnalyticSchedule::for_sdsp_pn(pn).map(|a| {
                        pn.transition_of
                            .iter()
                            .map(|&t| a.issue_word(t).len())
                            .sum::<usize>()
                    })
                })
            });
        }
        (verb, _) => return Err(format!("no layers for verb {}", verb.as_str())),
    }
    Ok(None)
}

/// The response payload, rendered from a compiled loop whose artifacts
/// are already memoized, so only rendering and serialisation run. A
/// trace's replay validation is not memoized, so its payload takes the
/// replay's event count from the layer run above.
fn payload(req: &Request, lp: &CompiledLoop, checked: Option<usize>) -> Result<String, String> {
    let json = match req.verb {
        Verb::Analyze => serde_json::to_string(&protocol::analyze_payload(lp, None).map_err(err)?),
        Verb::Schedule | Verb::Scp => {
            serde_json::to_string(&protocol::schedule_payload(lp, req.depth, None).map_err(err)?)
        }
        Verb::Rate => {
            serde_json::to_string(&protocol::rate_payload(lp, req.depth, None).map_err(err)?)
        }
        Verb::Storage => serde_json::to_string(&protocol::storage_payload(lp, None).map_err(err)?),
        Verb::Explain => serde_json::to_string(&protocol::explain_payload(lp, None).map_err(err)?),
        Verb::Trace => {
            let trace = lp.firing_trace().map_err(err)?;
            serde_json::to_string(&TraceJson {
                file: None,
                command: "trace".into(),
                scp_depth: None,
                start_time: trace.start_time,
                repeat_time: trace.repeat_time,
                period: trace.period(),
                events: trace.events.len(),
                events_checked: checked.unwrap_or(0),
                chrome: trace.chrome_trace_json(),
            })
        }
        other => return Err(format!("no payload for verb {}", other.as_str())),
    };
    json.map_err(err)
}

/// A compiled loop with every artifact the request's payload reads
/// already memoized (built outside any span).
fn warm_loop(req: &Request) -> Result<CompiledLoop, String> {
    let lp = CompiledLoop::from_source_with(&req.source, req.options.clone()).map_err(err)?;
    if req.verb == Verb::Trace {
        lp.firing_trace().map_err(err)?;
    } else {
        payload(req, &lp, None)?;
    }
    Ok(lp)
}

/// Replays `prefix` one public layer call at a time; returns its wall
/// time.
fn decomposed(
    rec: &mut Recorder,
    prefix: &[(Req, Option<CompiledLoop>)],
    hits: &Service,
    spill: Option<&ArtifactStore>,
) -> Result<Duration, String> {
    let started = Instant::now();
    for (req, warm) in prefix {
        let line = req.line();
        let id = req.id;
        let root = rec.open("request", id, None);
        let parsed = rec
            .span("service.parse_request", id, root, || {
                protocol::parse_request(&line)
            })
            .map_err(err)?;
        let key = rec.span("service.cache_key", id, root, || {
            protocol::cache_key(&parsed.source, &parsed.options)
        });
        match warm {
            None => {
                rec.span("service.call_hit", id, root, || hits.call(parsed))
                    .map_err(err)?;
            }
            Some(lp) => {
                let ast = rec
                    .span("lang.parse", id, root, || tpn::lang::parse(&parsed.source))
                    .map_err(err)?;
                let sdsp = rec
                    .span("lang.lower", id, root, || tpn::lang::lower(&ast))
                    .map_err(err)?;
                let pn = rec.span("dataflow.to_petri", id, root, || to_petri(&sdsp));
                let checked = verb_layers(
                    rec,
                    id,
                    root,
                    parsed.verb,
                    parsed.depth,
                    lp.engine(),
                    lp.budget(),
                    &sdsp,
                    &pn,
                )?;
                if let Some(store) = spill {
                    rec.span("store.spill", id, root, || {
                        store.spill(key, lp, &parsed.options)
                    })
                    .map_err(err)?;
                }
                let json = rec.span("service.payload", id, root, || {
                    payload(&parsed, lp, checked)
                })?;
                rec.count("service.response_kb", json.len() as f64 / 1024.0);
            }
        }
        rec.close(root);
    }
    Ok(started.elapsed())
}

/// Every compile layer once per loop, recording only the `missing`
/// layers (and their counts): those the workload's stream never reached.
fn sweep(
    rec: &mut Recorder,
    loops: &[Loop],
    mut missing: Vec<&'static str>,
    store: &ArtifactStore,
) -> Result<(), String> {
    if missing.is_empty() {
        return Ok(());
    }
    if missing.contains(&"sched.frustum") {
        missing.extend(["sched.frustum_instants", "sched.frustum_us_per_instant"]);
    }
    if missing.contains(&"sched.scp") {
        missing.push("sched.scp_instants");
    }
    rec.only = Some(missing);
    let verbs: [(Verb, Option<u64>, SchedulePolicy); 9] = [
        (Verb::Analyze, None, SchedulePolicy::Auto),
        (Verb::Explain, None, SchedulePolicy::Auto),
        (Verb::Schedule, None, SchedulePolicy::Analytic),
        (Verb::Rate, None, SchedulePolicy::Analytic),
        (Verb::Storage, None, SchedulePolicy::Auto),
        (Verb::Schedule, None, SchedulePolicy::Frustum),
        (Verb::Rate, None, SchedulePolicy::Frustum),
        (Verb::Trace, None, SchedulePolicy::Frustum),
        (Verb::Scp, Some(8), SchedulePolicy::Frustum),
    ];
    for lp in loops {
        let ast = rec
            .span("lang.parse", SWEEP, None, || tpn::lang::parse(&lp.source))
            .map_err(err)?;
        let sdsp = rec
            .span("lang.lower", SWEEP, None, || tpn::lang::lower(&ast))
            .map_err(err)?;
        let pn = rec.span("dataflow.to_petri", SWEEP, None, || to_petri(&sdsp));
        let compiled = CompiledLoop::from_sdsp(sdsp.clone());
        for (verb, depth, engine) in verbs {
            verb_layers(
                rec,
                SWEEP,
                None,
                verb,
                depth,
                engine,
                compiled.budget(),
                &sdsp,
                &pn,
            )?;
        }
        let key = protocol::cache_key(&lp.source, compiled.options());
        rec.span("store.spill", SWEEP, None, || {
            store.spill(key, &compiled, compiled.options())
        })
        .map_err(err)?;
    }
    rec.only = None;
    Ok(())
}

/// What the wire probe measured.
struct Wire {
    /// In-process `Service::call` of each probe hit, in µs.
    call_hit_us: Vec<f64>,
    shard_rt_us: f64,
    front_rt_us: f64,
    hit_rate: f64,
    load_ms: Vec<f64>,
    loaded: u64,
    /// The hit replies recorded when the store was filled.
    book: HitBook,
    /// The in-process service, warm-started from a store holding the hot
    /// pool, as a shard is.
    service: Service,
}

/// Median round trip, in µs, of `reqs` sent one at a time.
fn round_trips(socket: &Path, reqs: &[Req], book: &HitBook) -> Result<f64, String> {
    let phase = closed_loop(
        socket,
        1,
        1,
        Duration::ZERO,
        Stop {
            at: Instant::now() + Duration::from_secs(60),
            limit: reqs.len() as u64,
        },
        &AtomicU64::new(0),
        &|i| reqs[i as usize].clone(),
        &|req, line| oracle::check_hit(req, line, book),
    )?;
    if !phase.failures.is_empty() {
        return Err(format!("wire probe: {:?}", phase.failures));
    }
    let mut us: Vec<f64> = phase.samples.iter().map(|s| s.nanos as f64 / 1e3).collect();
    Ok(median(&mut us))
}

/// The probe's hits, each with its own id, and the shard its key routes
/// to (`cache_key % shards`, the router's rule).
fn probe_hits(stream: &FleetStream) -> Vec<(Req, usize)> {
    let pool = (stream.hot.len() * stream.verbs.len()) as u64;
    (0..WIRE_TRIPS)
        .map(|i| {
            let mut req = stream.hot_request(i % pool);
            req.id = i;
            let parsed = protocol::parse_request(&req.line()).expect("generated lines parse");
            let shard = (protocol::cache_key(&parsed.source, &parsed.options) % 2) as usize;
            (req, shard)
        })
        .collect()
}

fn wire_probe(args: &Args, stream: &FleetStream, write_expect: &[Expect]) -> Result<Wire, String> {
    let hot_expect: Vec<Expect> = stream
        .hot
        .iter()
        .map(|lp| oracle::expect_analytic(lp, true))
        .collect::<Result<_, _>>()?;
    let store = args.workdir.join("store");
    let front = args.workdir.join("route.sock");
    let book = fill_store(args, stream, &hot_expect, write_expect, &store, &front)?;
    let mut server = Server::route(&args.tpnc, &front, 2, 1, &store)?;
    server.wait_ready()?;

    let hits = probe_hits(stream);
    let mut weighted = 0.0;
    for shard in 0..2 {
        let reqs: Vec<Req> = hits
            .iter()
            .filter(|(_, s)| *s == shard)
            .map(|(r, _)| r.clone())
            .collect();
        if !reqs.is_empty() {
            let socket = &server.shard_sockets()[shard];
            weighted += round_trips(socket, &reqs, &book)? * reqs.len() as f64;
        }
    }
    let shard_rt_us = weighted / hits.len() as f64;
    let all: Vec<Req> = hits.iter().map(|(r, _)| r.clone()).collect();
    let front_rt_us = round_trips(server.front(), &all, &book)?;

    // A slice of the fleet stream, so the hit rate counts its writes.
    let slice = closed_loop(
        server.front(),
        FLEET_CONNS,
        FLEET_WINDOW,
        Duration::ZERO,
        Stop {
            at: Instant::now() + Duration::from_secs(60),
            limit: FLEET_PREFIX,
        },
        &AtomicU64::new(0),
        &|i| stream.request(i),
        &|req, line| {
            if req.hit {
                oracle::check_hit(req, line, &book)
            } else {
                oracle::check(req, line, &write_expect[req.loop_idx])
            }
        },
    )?;
    if !slice.failures.is_empty() {
        return Err(format!("wire probe stream: {:?}", slice.failures));
    }
    let (mut hits_seen, mut lookups) = (0.0, 0.0);
    for socket in server.shard_sockets() {
        let reply = ask(socket, "{\"id\":0,\"verb\":\"metrics\"}").map_err(err)?;
        let counters = json::parse(reply.trim_end())?;
        let cache = counters
            .get("payload")
            .and_then(|p| p.get("cache"))
            .ok_or("metrics reply has no cache counters")?;
        let num = |k: &str| match cache.get(k) {
            Some(json::Json::Num(n)) => Ok(*n),
            _ => Err(format!("metrics cache lacks {k}")),
        };
        hits_seen += num("hits")?;
        lookups += num("hits")? + num("misses")?;
    }
    server.stop();

    let mut load_ms = Vec::new();
    let mut loaded = 0;
    for shard in 0..2 {
        let started = Instant::now();
        let opened = ArtifactStore::open(store.join(format!("shard-{shard}"))).map_err(err)?;
        loaded += std::hint::black_box(opened.load()).len() as u64;
        load_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }

    let inproc = args.workdir.join("inproc-store");
    let config = || {
        ServiceConfig::builder()
            .workers(1)
            .store(&inproc)
            .build()
            .map_err(err)
    };
    {
        let filler = Service::try_start(config()?).map_err(err)?;
        for i in 0..(stream.hot.len() * stream.verbs.len()) as u64 {
            let req = protocol::parse_request(&stream.hot_request(i).line()).map_err(err)?;
            filler.call(req).map_err(err)?;
        }
    }
    let service = Service::try_start(config()?).map_err(err)?;
    let mut call_hit_us = Vec::new();
    for (req, _) in &hits {
        let parsed = protocol::parse_request(&req.line()).map_err(err)?;
        let started = Instant::now();
        let response = service.call(parsed).map_err(err)?;
        call_hit_us.push(started.elapsed().as_secs_f64() * 1e6);
        oracle::check_hit(req, &response.line, &book)?;
    }
    Ok(Wire {
        call_hit_us,
        shard_rt_us,
        front_rt_us,
        hit_rate: hits_seen / lookups,
        load_ms,
        loaded,
        book,
        service,
    })
}

/// Timing metrics from span self-times: (metric, span, scale, unit).
const LAYERS: [(&str, &str, f64, &str); 21] = [
    ("lang.parse_ms", "lang.parse", 1e3, "ms"),
    ("lang.lower_ms", "lang.lower", 1e3, "ms"),
    ("dataflow.to_petri_ms", "dataflow.to_petri", 1e3, "ms"),
    ("petri.critical_ratio_ms", "petri.critical_ratio", 1e3, "ms"),
    ("petri.explain_rate_ms", "petri.explain_rate", 1e3, "ms"),
    (
        "petri.explain_validate_ms",
        "petri.explain_validate",
        1e3,
        "ms",
    ),
    ("sched.analytic_ms", "sched.analytic", 1e3, "ms"),
    ("sched.analytic_words_ms", "sched.analytic_words", 1e3, "ms"),
    ("sched.rate_report_ms", "sched.rate_report", 1e3, "ms"),
    ("storage.minimize_ms", "storage.minimize", 1e3, "ms"),
    ("sched.frustum_ms", "sched.frustum", 1e3, "ms"),
    ("sched.from_frustum_ms", "sched.from_frustum", 1e3, "ms"),
    ("sched.scp_ms", "sched.scp", 1e3, "ms"),
    ("sched.scp_derive_ms", "sched.scp_derive", 1e3, "ms"),
    ("sched.trace_derive_ms", "sched.trace_derive", 1e3, "ms"),
    ("sched.replay_trace_ms", "sched.replay_trace", 1e3, "ms"),
    ("service.payload_ms", "service.payload", 1e3, "ms"),
    (
        "service.parse_request_us",
        "service.parse_request",
        1e6,
        "us",
    ),
    ("service.cache_key_us", "service.cache_key", 1e6, "us"),
    ("store.spill_us", "store.spill", 1e6, "us"),
    ("request.self_us", "request", 1e6, "us"),
];

/// Count metrics kept by the recorder: (name, unit).
const COUNTS: [(&str, &str); 4] = [
    ("sched.frustum_instants", "count"),
    ("sched.frustum_us_per_instant", "us"),
    ("sched.scp_instants", "count"),
    ("service.response_kb", "KiB"),
];

pub fn run(args: &Args, plan: &Plan, expects: &[Expect]) -> Result<Outcome, String> {
    let fleet_plan;
    let (fleet, write_expect): (&FleetStream, Vec<Expect>) = match plan {
        Plan::Fleet(stream) => (stream, expects.to_vec()),
        Plan::Cold(_) => {
            fleet_plan = Workload::FleetRestart.plan(args.seed);
            let Plan::Fleet(stream) = &fleet_plan else {
                unreachable!("the fleet workload plans a fleet stream")
            };
            let expect = stream
                .writes
                .iter()
                .map(|lp| oracle::expect_analytic(lp, false))
                .collect::<Result<_, _>>()?;
            (stream, expect)
        }
    };
    let wire = wire_probe(args, fleet, &write_expect)?;

    // The prefix of the workload's own stream, each miss's compiled loop
    // warmed outside any span.
    let prefix_len = match plan {
        Plan::Cold(stream) => COLD_PASSES * stream.pass_len(),
        Plan::Fleet(_) => FLEET_PREFIX,
    };
    let prefix: Vec<(Req, Option<CompiledLoop>)> = (0..prefix_len)
        .map(|i| {
            let req = plan.request(i);
            let parsed = protocol::parse_request(&req.line()).map_err(err)?;
            let warm = if req.hit {
                None
            } else {
                Some(warm_loop(&parsed)?)
            };
            Ok((req, warm))
        })
        .collect::<Result<_, String>>()?;

    // Reference pass: in-process request times, every reply checked. The
    // cold server has no store; the fleet's shards do.
    let cold_service;
    let reference: &Service = match plan {
        Plan::Cold(_) => {
            let cold = || {
                Service::try_start(ServiceConfig::builder().workers(1).build().map_err(err)?)
                    .map_err(err)
            };
            // One unmeasured pass first, so the worker's allocator arena
            // is as warm as the decomposed passes' thread.
            let warm = cold()?;
            for (req, _) in &prefix {
                warm.call(protocol::parse_request(&req.line()).map_err(err)?)
                    .map_err(err)?;
            }
            cold_service = cold()?;
            &cold_service
        }
        Plan::Fleet(_) => &wire.service,
    };
    // Each decomposed pass spills into a store of its own: a spill of a
    // key already committed is a no-op.
    let spill = |pass: &str| -> Result<Option<ArtifactStore>, String> {
        match plan {
            Plan::Cold(_) => Ok(None),
            Plan::Fleet(_) => ArtifactStore::open(args.workdir.join(format!("spill-{pass}")))
                .map(Some)
                .map_err(err),
        }
    };
    let mut failed = 0;
    let mut failures = Vec::new();
    let mut miss_us = Vec::new();
    let mut inproc_ms = Vec::new();
    let mut reference_misses = Duration::ZERO;
    for (req, warm) in &prefix {
        let parsed = protocol::parse_request(&req.line()).map_err(err)?;
        let started = Instant::now();
        let response = reference.call(parsed).map_err(err)?;
        let took = started.elapsed();
        inproc_ms.push(took.as_secs_f64() * 1e3);
        if warm.is_some() {
            miss_us.push(took.as_secs_f64() * 1e6);
            reference_misses += took;
        }
        let verdict = if req.hit {
            oracle::check_hit(req, &response.line, &wire.book)
        } else {
            oracle::check(req, &response.line, &expects[req.loop_idx])
        };
        if let Err(why) = verdict {
            failed += 1;
            if failures.len() < 5 {
                failures.push(format!("request {}: {why}", req.id));
            }
        }
    }

    // An unmeasured warm-up pass, then decomposed passes in the order
    // untraced, traced, traced, untraced, so drift favours neither side
    // of the overhead. The first traced pass keeps its spans.
    let mut rec = Recorder::new(true);
    let pass = |rec: &mut Recorder, name: &str| -> Result<Duration, String> {
        decomposed(rec, &prefix, reference, spill(name)?.as_ref())
    };
    pass(&mut Recorder::new(false), "warm")?;
    let untraced = pass(&mut Recorder::new(false), "u1")?;
    let traced = pass(&mut rec, "t1")?;
    let traced = traced + pass(&mut Recorder::new(true), "t2")?;
    let untraced = untraced + pass(&mut Recorder::new(false), "u2")?;
    let overhead_pct = (traced.as_secs_f64() / untraced.as_secs_f64() - 1.0) * 100.0;

    // Attribution: the misses' layer self-times against their reference
    // time. Wire parsing happens before `Service::call`, so it is left
    // out; the root's self time is the harness's own glue.
    let misses: HashSet<u64> = prefix
        .iter()
        .filter(|(_, warm)| warm.is_some())
        .map(|(r, _)| r.id)
        .collect();
    let own = rec.self_times();
    let attributed: Duration = rec
        .spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| misses.contains(&s.request))
        .filter(|(s, _)| s.name != "service.parse_request" && s.name != "request")
        .map(|(_, d)| *d)
        .sum();
    let unattributed_pct = if reference_misses.is_zero() {
        0.0
    } else {
        (1.0 - attributed.as_secs_f64() / reference_misses.as_secs_f64()) * 100.0
    };

    // Off-path sweep for the layers the stream never reached.
    let missing: Vec<&'static str> = LAYERS
        .iter()
        .map(|(_, span, _, _)| *span)
        .filter(|span| !rec.spans.iter().any(|s| s.name == *span))
        .collect();
    let sweep_store = ArtifactStore::open(args.workdir.join("sweep-store")).map_err(err)?;
    let sweep_loops: &[Loop] = match plan {
        Plan::Cold(stream) => &stream.loops,
        Plan::Fleet(stream) => &stream.hot,
    };
    sweep(&mut rec, sweep_loops, missing, &sweep_store)?;
    let own = rec.self_times();

    let mut metrics = BTreeMap::new();
    let mut put = |name: String, mut values: Vec<f64>, unit: &'static str| {
        let calls = values.len();
        let value = if calls == 0 { 0.0 } else { median(&mut values) };
        metrics.insert(
            format!("{name}.calls"),
            Metric {
                value: calls as f64,
                unit: "count",
            },
        );
        metrics.insert(name, Metric { value, unit });
    };
    for (name, span, scale, unit) in LAYERS {
        let values = rec
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == span)
            .map(|(_, d)| d.as_secs_f64() * scale)
            .collect();
        put(name.to_string(), values, unit);
    }
    for (name, unit) in COUNTS {
        let values = rec
            .counts
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .collect();
        put(name.to_string(), values, unit);
    }
    put("service.call_hit_us".into(), wire.call_hit_us.clone(), "us");
    put("service.call_miss_us".into(), miss_us, "us");
    put("request.inprocess_ms".into(), inproc_ms, "ms");
    put("store.load_ms".into(), wire.load_ms.clone(), "ms");
    let mut call_hit = wire.call_hit_us.clone();
    let base = median(&mut call_hit);
    let mut single = |name: &str, value: f64, unit: &'static str| {
        metrics.insert(name.to_string(), Metric { value, unit });
    };
    single("store.loaded", wire.loaded as f64, "count");
    single("service.hit_rate", wire.hit_rate, "ratio");
    single("serve.overhead_us", wire.shard_rt_us - base, "us");
    single("route.hop_us", wire.front_rt_us - wire.shard_rt_us, "us");
    single("trace.overhead_pct", overhead_pct, "%");
    single("trace.unattributed_pct", unattributed_pct, "%");

    let trace_file = Path::new(".bench_traces").join(format!(
        "{}-seed{}.spans.jsonl",
        args.workload.name(),
        args.seed
    ));
    rec.write(&trace_file)
        .map_err(|e| format!("writing {}: {e}", trace_file.display()))?;
    eprintln!(
        "tpnbench: {} spans in {}; tracing overhead {overhead_pct:.2}%, unattributed {unattributed_pct:.2}% of {:.1} ms in-process miss time",
        rec.spans.len(),
        trace_file.display(),
        reference_misses.as_secs_f64() * 1e3
    );
    Ok(Outcome {
        attempted: prefix.len() as u64,
        failed,
        problems: failures,
        metrics,
    })
}
