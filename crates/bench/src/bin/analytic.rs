//! The PR-7 claim: the analytic fast path derives the steady-state
//! schedule in near-linear time, with no simulation, and agrees with the
//! frustum engine exactly. Compares schedule derivation cost — analytic
//! construction versus frustum detection + read-off — on chains and
//! whole-body recurrence rings across two decades of loop size, up to
//! n = 50 000 where simulation is far past its budget.
//!
//! A second group times §6 storage minimisation against one critical-ratio
//! solve of the same net: the greedy solves once and checks every merge
//! against the solve's potentials, so the ratio stays a small constant
//! instead of growing with the number of candidate merges.
//!
//! A third group times `explain` against one critical-ratio solve: it
//! serves a rate certificate (a witness cycle and the least scaled
//! potentials) instead of enumerating cycles, so it costs a few solves at
//! any size, and checking the certificate costs one pass over the places.
//!
//! A fourth group times the paper's own method on its heaviest served
//! replies: checking and rendering a chain's firing trace, per event, and
//! detecting the frustum of depth-8 SCP runs on chains of 64, 160 and 384
//! nodes, per instant. About 13, 45 and 120 instructions wait on the run
//! place per instant on those; the cost per instant should barely grow
//! with them.
//!
//! Run: `cargo run --release -p tpn-bench --bin analytic [-- --json]
//! [-- --bench-json FILE]`; `--bench-json` additionally writes the
//! before/after comparison in the `BENCH_*.json` house format.

use std::time::Instant;

use serde::Serialize;
use tpn::{CompiledLoop, ISSUE_WORDS_BUDGET};
use tpn_bench::{emit, table};
use tpn_dataflow::to_petri::to_petri;
use tpn_dataflow::Sdsp;
use tpn_livermore::synth::{chain, recurrence_ring};
use tpn_petri::ratio::{critical_ratio, explain_rate};
use tpn_sched::analytic::AnalyticSchedule;
use tpn_sched::frustum::{detect_frustum, detect_frustum_eager};
use tpn_sched::policy::FifoPolicy;
use tpn_sched::schedule::LoopSchedule;
use tpn_sched::scp::build_scp;
use tpn_sched::trace::FiringTrace;
use tpn_sched::validate::replay_trace;
use tpn_storage::minimize_storage;

/// Frustum measurement ceiling: above this the simulated engine's
/// super-linear step cost stops being a comparison and becomes a stall,
/// so it is recorded as skipped rather than timed.
const FRUSTUM_LIMIT: usize = 4_096;

#[derive(Clone, Debug, Serialize)]
struct Row {
    shape: &'static str,
    n: usize,
    period: u64,
    rate: String,
    analytic_ns: u128,
    frustum_ns: Option<u128>,
    /// Instants the frustum detection simulated.
    instants: Option<u64>,
    /// `frustum_ns` per simulated instant: flat in n when an instant
    /// costs what it changes.
    ns_per_instant: Option<f64>,
    speedup: Option<f64>,
    /// Exact agreement of rate and initiation interval between the two
    /// engines (`None` when the frustum was skipped).
    agree: Option<bool>,
}

/// Storage minimisation next to one critical-ratio solve of the same net.
#[derive(Clone, Debug, Serialize)]
struct StorageRow {
    shape: &'static str,
    n: usize,
    /// Locations before minimisation.
    before: usize,
    /// Locations after minimisation.
    after: usize,
    /// `minimize_storage`, best of [`STORAGE_REPS`].
    minimize_ns: u128,
    /// One `critical_ratio` on the loop's SDSP-PN, best of [`STORAGE_REPS`].
    solve_ns: u128,
    /// `minimize_ns / solve_ns`.
    ratio: f64,
}

const STORAGE_REPS: u32 = 5;

fn run_storage(shape: &'static str, sdsp: Sdsp) -> StorageRow {
    let pn = to_petri(&sdsp);
    let (solve_ns, _) = best_of(STORAGE_REPS, || {
        critical_ratio(&pn.net, &pn.marking).expect("synthetic loops are live")
    });
    let (minimize_ns, (_, report)) = best_of(STORAGE_REPS, || {
        minimize_storage(&sdsp).expect("synthetic loops are live")
    });
    StorageRow {
        shape,
        n: sdsp.num_nodes(),
        before: report.before,
        after: report.after,
        minimize_ns,
        solve_ns,
        ratio: minimize_ns as f64 / solve_ns.max(1) as f64,
    }
}

/// `explain` next to one critical-ratio solve of the same net.
#[derive(Clone, Debug, Serialize)]
struct ExplainRow {
    shape: &'static str,
    n: usize,
    /// Places of the SDSP-PN: the certificate has one slack row each.
    places: usize,
    /// Characters of the issue words, `T·p`; `explain` renders them only
    /// up to `ISSUE_WORDS_BUDGET`.
    words: u64,
    /// `CompiledLoop::explain` on a freshly built loop, best of the reps.
    explain_ns: u128,
    /// The certificate check alone, best of the reps.
    certify_ns: u128,
    /// One `critical_ratio` on the loop's SDSP-PN, best of the same reps.
    solve_ns: u128,
}

fn run_explain(shape: &'static str, sdsp: Sdsp) -> ExplainRow {
    let reps = if sdsp.num_nodes() <= 512 { 9 } else { 3 };
    let pn = to_petri(&sdsp);
    let (solve_ns, critical) = best_of(reps, || {
        critical_ratio(&pn.net, &pn.marking).expect("synthetic loops are live")
    });
    let words = pn.net.num_transitions() as u64 * critical.cycle_time.numer();
    let ex = explain_rate(&pn.net, &pn.marking, 0).expect("synthetic loops are live");
    let (certify_ns, errors) = best_of(reps, || {
        ex.certificate.check(&pn.net, &pn.marking, ex.critical.rate)
    });
    assert!(
        errors.is_empty(),
        "{shape}/{}: {errors:?}",
        sdsp.num_nodes()
    );
    // Each rep explains a loop built outside the clock, so nothing is
    // memoized yet.
    let mut explain_ns = u128::MAX;
    for _ in 0..reps {
        let lp = CompiledLoop::from_sdsp(sdsp.clone());
        let begin = Instant::now();
        let explanation = lp.explain().expect("synthetic loops are live");
        explain_ns = explain_ns.min(begin.elapsed().as_nanos());
        assert!(explanation.validated, "{:?}", explanation.validation_errors);
        assert_eq!(
            explanation.issue_words.is_some(),
            words <= ISSUE_WORDS_BUDGET,
            "{shape}/{}: {words} word characters",
            sdsp.num_nodes()
        );
    }
    ExplainRow {
        shape,
        n: sdsp.num_nodes(),
        places: pn.net.num_places(),
        words,
        explain_ns,
        certify_ns,
        solve_ns,
    }
}

/// A chain's plain firing trace: the replay check and the Chrome
/// rendering, which `trace` replies run on every request.
#[derive(Clone, Debug, Serialize)]
struct TraceRow {
    shape: &'static str,
    n: usize,
    /// Start and complete events in the trace.
    events: usize,
    /// `replay_trace`, best of [`TRACE_REPS`].
    validate_ns: u128,
    /// `FiringTrace::chrome_trace_json`, best of [`TRACE_REPS`].
    render_ns: u128,
}

/// Frustum detection of a chain's SCP run under the FIFO issue policy,
/// which `scp` replies run on every request.
#[derive(Clone, Debug, Serialize)]
struct ScpRow {
    shape: &'static str,
    n: usize,
    depth: u64,
    /// `detect_frustum` with a fresh `FifoPolicy`, best of [`TRACE_REPS`].
    detect_ns: u128,
    /// Instants the detection simulated.
    instants: u64,
}

const TRACE_REPS: u32 = 7;

fn detection_budget(n: usize) -> u64 {
    (n as u64 * 70).max(100_000)
}

fn run_trace(shape: &'static str, sdsp: Sdsp) -> TraceRow {
    let pn = to_petri(&sdsp);
    let frustum = detect_frustum_eager(
        &pn.net,
        pn.marking.clone(),
        detection_budget(sdsp.num_nodes()),
    )
    .expect("detection in budget");
    let trace = FiringTrace::from_frustum(&pn.net, &pn.marking, &frustum);
    let (validate_ns, validation) = best_of(TRACE_REPS, || {
        replay_trace(&pn.net, &pn.marking, &trace).expect("derived traces replay")
    });
    assert_eq!(validation.events_checked, trace.events.len());
    let (render_ns, _) = best_of(TRACE_REPS, || trace.chrome_trace_json());
    TraceRow {
        shape,
        n: sdsp.num_nodes(),
        events: trace.events.len(),
        validate_ns,
        render_ns,
    }
}

fn run_scp(shape: &'static str, sdsp: Sdsp, depth: u64) -> ScpRow {
    let pn = to_petri(&sdsp);
    let model = build_scp(&pn, depth);
    let budget = detection_budget(sdsp.num_nodes()) * depth;
    let (detect_ns, frustum) = best_of(TRACE_REPS, || {
        detect_frustum(
            &model.net,
            model.marking.clone(),
            FifoPolicy::new(&model),
            budget,
        )
        .expect("detection in budget")
    });
    ScpRow {
        shape,
        n: sdsp.num_nodes(),
        depth,
        detect_ns,
        instants: frustum.stats.instants,
    }
}

fn per(ns: u128, count: u64) -> f64 {
    ns as f64 / count.max(1) as f64
}

/// Times `f` as the minimum over `reps` runs — the usual defence against
/// first-touch, allocator, and scheduler noise on microsecond-scale work.
fn best_of<R>(reps: u32, mut f: impl FnMut() -> R) -> (u128, R) {
    let mut best = u128::MAX;
    let mut result = None;
    for _ in 0..reps.max(1) {
        let begin = Instant::now();
        let r = f();
        best = best.min(begin.elapsed().as_nanos());
        result = Some(r);
    }
    (best, result.expect("at least one run"))
}

fn run(shape: &'static str, sdsp: Sdsp) -> Row {
    let n = sdsp.num_nodes();
    let pn = to_petri(&sdsp);

    // The analytic artifact is the closed-form schedule: exact rate,
    // period, and O(1) start-time queries for every (node, iteration).
    // The pipeline-fill prologue a rendered LoopSchedule would list is
    // O(n²) instruction instances on a chain, so the explicit kernel is
    // only materialized below, where the frustum engine renders one too.
    let reps = if n <= 512 {
        9
    } else if n <= FRUSTUM_LIMIT {
        5
    } else {
        3
    };
    let (analytic_ns, analytic) = best_of(reps, || {
        AnalyticSchedule::for_sdsp_pn(&pn).expect("synthetic loops are marked graphs")
    });

    let (frustum_ns, instants, agree) = if n <= FRUSTUM_LIMIT {
        let schedule = analytic.loop_schedule(&sdsp, &pn);
        let budget = (n as u64 * 70).max(100_000);
        // At least three runs even at n = 4096: CI compares the best ns per
        // instant across sizes, and one sample is too noisy for that.
        let reps = if n <= 512 { 5 } else { 3 };
        let (ns, simulated) = best_of(reps, || {
            let frustum = detect_frustum_eager(&pn.net, pn.marking.clone(), budget)
                .expect("detection in budget");
            let simulated =
                LoopSchedule::from_frustum(&sdsp, &pn, &frustum).expect("frustum schedule");
            (frustum, simulated)
        });
        let (frustum, simulated) = simulated;
        let agree = simulated.initiation_interval() == schedule.initiation_interval()
            && frustum.rate_of(pn.transition_of[0]) == analytic.rate();
        (Some(ns), Some(frustum.stats.instants), Some(agree))
    } else {
        (None, None, None)
    };

    Row {
        shape,
        n,
        period: analytic.period(),
        rate: analytic.rate().to_string(),
        analytic_ns,
        frustum_ns,
        instants,
        ns_per_instant: frustum_ns
            .zip(instants)
            .map(|(ns, k)| ns as f64 / k.max(1) as f64),
        speedup: frustum_ns.map(|f| f as f64 / analytic_ns.max(1) as f64),
        agree,
    }
}

fn bench_json(
    rows: &[Row],
    storage: &[StorageRow],
    explain: &[ExplainRow],
    traces: &[TraceRow],
    scp: &[ScpRow],
) -> String {
    let mut cases = String::new();
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            cases.push_str(",\n");
        }
        let after = r.analytic_ns as f64;
        match r.frustum_ns {
            Some(before) => cases.push_str(&format!(
                "      \"{}/{}\": {{\n        \"before_ns\": {},\n        \
                 \"after_ns\": {},\n        \"speedup\": {:.2},\n        \
                 \"agree\": {},\n        \"instants\": {},\n        \
                 \"ns_per_instant\": {:.1}\n      }}",
                r.shape,
                r.n,
                before,
                after,
                r.speedup.unwrap_or(0.0),
                r.agree.unwrap_or(false),
                r.instants.unwrap_or(0),
                r.ns_per_instant.unwrap_or(0.0)
            )),
            None => cases.push_str(&format!(
                "      \"{}/{}\": {{\n        \"before_ns\": null,\n        \
                 \"after_ns\": {},\n        \"speedup\": null,\n        \
                 \"note\": \"frustum skipped past n = {FRUSTUM_LIMIT}\"\n      }}",
                r.shape, r.n, after
            )),
        }
    }
    let storage_cases = storage
        .iter()
        .map(|r| {
            format!(
                "      \"{}/{}\": {{\n        \"minimize_ns\": {},\n        \
                 \"solve_ns\": {},\n        \"ratio\": {:.2},\n        \
                 \"locations_before\": {},\n        \"locations_after\": {}\n      }}",
                r.shape, r.n, r.minimize_ns, r.solve_ns, r.ratio, r.before, r.after
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let explain_cases = explain
        .iter()
        .map(|r| {
            format!(
                "      \"{}/{}\": {{\n        \"explain_ns\": {},\n        \
                 \"certify_ns\": {},\n        \"solve_ns\": {},\n        \
                 \"places\": {},\n        \"words\": {},\n        \
                 \"words_rendered\": {}\n      }}",
                r.shape,
                r.n,
                r.explain_ns,
                r.certify_ns,
                r.solve_ns,
                r.places,
                r.words,
                r.words <= ISSUE_WORDS_BUDGET
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let trace_cases = traces
        .iter()
        .map(|r| {
            format!(
                "      \"{}/{}\": {{\n        \"events\": {},\n        \
                 \"validate_ns\": {},\n        \"render_ns\": {},\n        \
                 \"validate_ns_per_event\": {:.1},\n        \
                 \"render_ns_per_event\": {:.1}\n      }}",
                r.shape,
                r.n,
                r.events,
                r.validate_ns,
                r.render_ns,
                per(r.validate_ns, r.events as u64),
                per(r.render_ns, r.events as u64)
            )
        })
        .chain(scp.iter().map(|r| {
            format!(
                "      \"{}/{}/scp{}\": {{\n        \"detect_ns\": {},\n        \
                 \"instants\": {},\n        \"ns_per_instant\": {:.1}\n      }}",
                r.shape,
                r.n,
                r.depth,
                r.detect_ns,
                r.instants,
                per(r.detect_ns, r.instants)
            )
        }))
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"benchmark\": \"analytic vs frustum schedule derivation \
         (crates/bench/src/bin/analytic.rs): chains and whole-body recurrence \
         rings\",\n  \"before\": \"frustum engine: earliest-firing simulation to \
         state repetition, schedule read off the cyclic frustum\",\n  \"after\": \
         \"analytic engine: periodic schedule constructed from the exact critical \
         ratio (longest-path offsets + balanced-word issue pattern), no \
         simulation\",\n  \"unit\": \"ns\",\n  \"groups\": {{\n    \
         \"schedule_derivation\": {{\n{cases}\n    }},\n    \
         \"storage_minimization\": {{\n{storage_cases}\n    }},\n    \
         \"explain\": {{\n{explain_cases}\n    }},\n    \
         \"trace\": {{\n{trace_cases}\n    }}\n  }}\n}}\n"
    )
}

fn main() {
    let bench_path = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--bench-json")
            .map(|i| args.get(i + 1).expect("--bench-json needs a file").clone())
    };
    // Warm the process (allocator, page cache, lazy init) off the clock.
    {
        let sdsp = chain(64);
        let pn = to_petri(&sdsp);
        let _ = AnalyticSchedule::for_sdsp_pn(&pn).expect("warm-up");
        let _ = detect_frustum_eager(&pn.net, pn.marking.clone(), 100_000).expect("warm-up");
    }
    let sizes = [512usize, 4_096, 50_000];
    let mut rows = Vec::new();
    for &n in &sizes {
        rows.push(run("chain", chain(n)));
        rows.push(run("ring", recurrence_ring(n)));
    }
    let storage = vec![
        run_storage("chain", chain(512)),
        run_storage("ring", recurrence_ring(512)),
    ];
    let explain = vec![
        run_explain("chain", chain(512)),
        run_explain("ring", recurrence_ring(512)),
        run_explain("chain", chain(50_000)),
        run_explain("ring", recurrence_ring(50_000)),
    ];
    let traces = vec![
        run_trace("chain", chain(128)),
        run_trace("chain", chain(512)),
    ];
    let scp = vec![
        run_scp("chain", chain(64), 8),
        run_scp("chain", chain(160), 8),
        run_scp("chain", chain(384), 8),
    ];
    emit(&rows, |rows| {
        let mut out =
            String::from("Schedule derivation: analytic construction vs frustum simulation:\n");
        out.push_str(&table::render(
            &[
                "shape",
                "n",
                "period",
                "rate",
                "analytic(ns)",
                "frustum(ns)",
                "instants",
                "ns/instant",
                "speedup",
                "agree",
            ],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.shape.to_string(),
                        r.n.to_string(),
                        r.period.to_string(),
                        r.rate.clone(),
                        r.analytic_ns.to_string(),
                        r.frustum_ns.map_or("skipped".into(), |v| v.to_string()),
                        r.instants.map_or("-".into(), |v| v.to_string()),
                        r.ns_per_instant.map_or("-".into(), |v| format!("{v:.0}")),
                        r.speedup.map_or("-".into(), |s| format!("{s:.1}x")),
                        r.agree.map_or("-".into(), |a| a.to_string()),
                    ]
                })
                .collect::<Vec<_>>(),
        ));
        out.push_str(
            "\nBoth engines produce the same initiation interval and rate wherever\n\
             both run; past the frustum limit only the analytic engine completes.\n",
        );
        out
    });
    emit(&storage, |rows| {
        let mut out = String::from("\nStorage minimisation vs one critical-ratio solve:\n");
        out.push_str(&table::render(
            &[
                "shape",
                "n",
                "locations",
                "minimize(ns)",
                "solve(ns)",
                "ratio",
            ],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.shape.to_string(),
                        r.n.to_string(),
                        format!("{} -> {}", r.before, r.after),
                        r.minimize_ns.to_string(),
                        r.solve_ns.to_string(),
                        format!("{:.1}x", r.ratio),
                    ]
                })
                .collect::<Vec<_>>(),
        ));
        out
    });
    emit(&explain, |rows| {
        let mut out = String::from("\nExplain (rate certificate) vs one critical-ratio solve:\n");
        out.push_str(&table::render(
            &[
                "shape",
                "n",
                "places",
                "explain(ns)",
                "certify(ns)",
                "solve(ns)",
                "explain/solve",
                "words",
            ],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.shape.to_string(),
                        r.n.to_string(),
                        r.places.to_string(),
                        r.explain_ns.to_string(),
                        r.certify_ns.to_string(),
                        r.solve_ns.to_string(),
                        format!("{:.1}x", r.explain_ns as f64 / r.solve_ns.max(1) as f64),
                        if r.words <= ISSUE_WORDS_BUDGET {
                            r.words.to_string()
                        } else {
                            format!("{} (not rendered)", r.words)
                        },
                    ]
                })
                .collect::<Vec<_>>(),
        ));
        out
    });
    emit(&traces, |rows| {
        let mut out = String::from("\nTrace replay check and Chrome rendering:\n");
        out.push_str(&table::render(
            &[
                "shape",
                "n",
                "events",
                "validate(ns)",
                "ns/event",
                "render(ns)",
                "ns/event",
            ],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.shape.to_string(),
                        r.n.to_string(),
                        r.events.to_string(),
                        r.validate_ns.to_string(),
                        format!("{:.1}", per(r.validate_ns, r.events as u64)),
                        r.render_ns.to_string(),
                        format!("{:.1}", per(r.render_ns, r.events as u64)),
                    ]
                })
                .collect::<Vec<_>>(),
        ));
        out
    });
    emit(&scp, |rows| {
        let mut out = String::from("\nSCP frustum detection (FIFO issue queue):\n");
        out.push_str(&table::render(
            &[
                "shape",
                "n",
                "depth",
                "detect(ns)",
                "instants",
                "ns/instant",
            ],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.shape.to_string(),
                        r.n.to_string(),
                        r.depth.to_string(),
                        r.detect_ns.to_string(),
                        r.instants.to_string(),
                        format!("{:.0}", per(r.detect_ns, r.instants)),
                    ]
                })
                .collect::<Vec<_>>(),
        ));
        out
    });
    if let Some(path) = bench_path {
        std::fs::write(&path, bench_json(&rows, &storage, &explain, &traces, &scp))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("bench comparison written to {path}");
    }
}
