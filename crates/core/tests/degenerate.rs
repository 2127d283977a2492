//! Degenerate-input hardening: empty sources, zero-node loops and trivial
//! self-feedback loops must flow through the whole façade as typed errors
//! (or succeed), never as panics; a poisoned batch item must not abandon
//! the rest of its batch.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use tpn::batch::{panic_message, parallel_map};
use tpn::dataflow::SdspBuilder;
use tpn::sched::SchedError;
use tpn::{CompileOptions, CompiledLoop, Error, SchedulePolicy};

fn empty_loop() -> CompiledLoop {
    CompiledLoop::from_sdsp(SdspBuilder::new().finish().unwrap())
}

#[test]
fn empty_source_is_a_clean_language_error() {
    for source in ["", "   ", "\n\n", "do", "do i from 1 to n {"] {
        let err = CompiledLoop::from_source(source).unwrap_err();
        assert!(matches!(err, Error::Lang(_)), "{source:?}: {err:?}");
        assert!(!err.to_string().is_empty());
    }
    // An empty body is grammatical: it compiles to a zero-node loop, whose
    // stages then fail with typed errors (see zero_node_sdsp_never_panics).
    let lp = CompiledLoop::from_source("do i from 1 to n { }").unwrap();
    assert_eq!(lp.size(), 0);
    assert!(lp.schedule().is_err());
}

#[test]
fn zero_node_sdsp_never_panics() {
    let lp = empty_loop();
    assert_eq!(lp.size(), 0);
    // Every stage must return a typed error (or a trivial success such as
    // the storage rewrite of an empty loop) — no stage may panic.
    assert!(lp.analyze().is_err());
    assert!(lp.frustum().is_err());
    assert!(lp.schedule().is_err());
    assert!(lp.rate_report().is_err());
    assert!(lp.emit(4).is_err());
    for depth in 1..=4 {
        assert!(lp.scp(depth).is_err(), "scp depth {depth}");
    }
    let _ = lp.storage();
    let _ = lp.balance();
    // The metrics report of a failed pipeline is well-formed and empty.
    let report = lp.metrics_report();
    assert!(report.detections.is_empty());
    assert_eq!(report.engine.instants, 0);
}

#[test]
fn zero_node_rate_errors_are_typed() {
    let lp = empty_loop();
    let err = lp.rate_report().unwrap_err();
    assert!(
        err.to_string().contains("empty") || matches!(err, Error::Sched(_) | Error::Petri(_)),
        "got: {err:?}"
    );
}

#[test]
fn single_node_self_feedback_compiles_end_to_end() {
    let source = "do i from 2 to n { X[i] := X[i-1] + 1; }";
    let lp = CompiledLoop::from_source_with(
        source,
        CompileOptions::new()
            .profile(true)
            .engine(SchedulePolicy::Frustum),
    )
    .unwrap();
    assert_eq!(lp.size(), 1);
    let analysis = lp.analyze().unwrap();
    assert_eq!(analysis.optimal_rate.to_string(), "1");
    let schedule = lp.schedule().unwrap();
    assert_eq!(schedule.initiation_interval().to_string(), "1");
    assert!(lp.rate_report().unwrap().is_time_optimal());
    let run = lp.scp(2).unwrap();
    assert!(run.rates.respects_resource_bound());
    // The profile saw every stage and both detections.
    let report = lp.metrics_report();
    let stages: Vec<&str> = report.stages.iter().map(|s| s.stage.as_str()).collect();
    for expected in [
        "parse",
        "lower",
        "to_petri",
        "analyze",
        "frustum_detection",
        "schedule_derivation",
        "scp_expansion[l=2]",
        "scp_detection[l=2]",
    ] {
        assert!(stages.contains(&expected), "missing stage {expected}");
    }
    assert_eq!(report.detections.len(), 2);
    assert!(report.engine.instants > 0);
}

#[test]
fn auto_engine_takes_the_analytic_path_on_marked_graphs() {
    let source = "do i from 2 to n { X[i] := X[i-1] + 1; }";
    let lp = CompiledLoop::from_source_with(source, CompileOptions::new().profile(true)).unwrap();
    assert_eq!(lp.engine(), SchedulePolicy::Analytic);
    let schedule = lp.schedule().unwrap();
    assert_eq!(schedule.initiation_interval().to_string(), "1");
    assert!(lp.rate_report().unwrap().is_time_optimal());
    // No simulation ran: the profile records the analytic stages and no
    // frustum detection.
    let report = lp.metrics_report();
    let stages: Vec<&str> = report.stages.iter().map(|s| s.stage.as_str()).collect();
    assert!(stages.contains(&"analytic_schedule"), "stages: {stages:?}");
    assert!(!stages.contains(&"frustum_detection"), "stages: {stages:?}");
    assert!(report.detections.is_empty());
}

fn engines(source: &str) -> [CompiledLoop; 2] {
    [SchedulePolicy::Analytic, SchedulePolicy::Frustum].map(|engine| {
        CompiledLoop::from_source_with(source, CompileOptions::new().engine(engine)).unwrap()
    })
}

#[test]
fn zero_node_loops_error_identically_under_both_engines() {
    for engine in [
        SchedulePolicy::Auto,
        SchedulePolicy::Analytic,
        SchedulePolicy::Frustum,
    ] {
        let lp = CompiledLoop::from_sdsp_with(
            SdspBuilder::new().finish().unwrap(),
            CompileOptions::new().engine(engine),
        );
        assert!(
            matches!(
                lp.schedule().unwrap_err(),
                Error::Sched(SchedError::EmptyLoop)
            ),
            "{engine:?} schedule"
        );
        assert!(
            matches!(
                lp.rate_report().unwrap_err(),
                Error::Sched(SchedError::EmptyLoop)
            ),
            "{engine:?} rate"
        );
    }
}

#[test]
fn disconnected_unequal_rate_bodies_error_identically_under_both_engines() {
    // Two independent components: X runs at rate 1, the P/Q recurrence at
    // rate 1/2. No uniform-rate schedule exists; both engines must agree
    // on the typed error rather than one panicking or succeeding.
    let source = "do i from 2 to n {
        X[i] := X[i-1] + 1;
        P[i] := Q[i-1] + 1;
        Q[i] := P[i] + 2;
    }";
    for lp in engines(source) {
        let err = lp.schedule().unwrap_err();
        assert!(
            matches!(err, Error::Sched(SchedError::NonUniformCounts { .. })),
            "{:?}: {err:?}",
            lp.options().get_engine()
        );
    }
}

#[test]
fn engines_agree_on_rates_for_connected_bodies() {
    let source = "do i from 2 to n {
        A[i] := X[i] + 5;
        B[i] := Y[i] + A[i];
        C[i] := A[i] + E[i-1];
        D[i] := B[i] + C[i];
        E[i] := W[i] + D[i];
    }";
    let [analytic, frustum] = engines(source);
    let ra = analytic.rate_report().unwrap();
    let rf = frustum.rate_report().unwrap();
    assert_eq!(ra.measured, rf.measured);
    assert_eq!(ra.optimal, rf.optimal);
    assert_eq!(
        analytic.schedule().unwrap().initiation_interval(),
        frustum.schedule().unwrap().initiation_interval()
    );
}

#[test]
fn poisoned_batch_items_run_the_rest_then_raise_the_lowest_index() {
    let items: Vec<u64> = (0..16).collect();
    let ran = AtomicUsize::new(0);
    let caught = catch_unwind(AssertUnwindSafe(|| {
        parallel_map(&items, 4, |i, &x| {
            ran.fetch_add(1, Ordering::SeqCst);
            assert!(i != 11, "poisoned item eleven");
            assert!(i != 5, "poisoned item five");
            x * 2
        })
    }));
    let payload = caught.expect_err("a poisoned item panics the map");
    assert_eq!(ran.load(Ordering::SeqCst), items.len(), "every item ran");
    assert!(
        panic_message(&*payload).contains("poisoned item five"),
        "the lowest-index panic propagates: {}",
        panic_message(&*payload)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary junk through the front door: compilation returns, it
    /// never panics.
    #[test]
    fn arbitrary_sources_never_panic(source in ".{0,120}") {
        let _ = CompiledLoop::from_source(&source);
    }

    /// Loop-shaped junk exercises the parser deeper; still no panics,
    /// and successful compiles must survive every downstream stage.
    #[test]
    fn loop_shaped_sources_never_panic(
        body in "[A-Z]\\[i\\] := [A-Z]\\[i(-[0-9])?\\]( [+*-] [A-Z]\\[i(-[0-9])?\\])?;( [A-Z]\\[i\\] := [A-Z]\\[i\\] \\+ [0-9];)?",
    ) {
        let source = format!("do i from 2 to n {{ {body} }}");
        if let Ok(lp) = CompiledLoop::from_source(&source) {
            let _ = lp.analyze();
            let _ = lp.schedule();
            let _ = lp.rate_report();
            let _ = lp.scp(2);
            let _ = lp.metrics_report();
        }
    }

    /// Degenerate loops at every SCP depth: typed errors, no panics.
    #[test]
    fn empty_loops_error_at_every_depth(depth in 1u64..6) {
        let lp = empty_loop();
        prop_assert!(lp.scp(depth).is_err());
        prop_assert!(lp.rate_report().is_err());
    }
}
