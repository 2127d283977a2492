//! Property tests for the analytic fast path: on every fuzz-generated
//! live, safe marked graph — across all generator shapes — the three
//! independent rate computations must agree *exactly* (ℚ arithmetic, no
//! tolerance), and the simulation-free schedule must be as valid as the
//! simulated one:
//!
//! * `AnalyticSchedule::rate()` (simulation-free construction),
//! * `critical_ratio` (Howard's policy iteration),
//! * the frustum `RateReport` (earliest-firing simulation);
//!
//! and the analytic schedule's synthesized firing trace must replay
//! cleanly under `replay_trace` at that rate.

use proptest::prelude::*;
use tpn_conform::{generate, Shape};
use tpn_dataflow::to_petri::to_petri;
use tpn_petri::ratio::critical_ratio;
use tpn_sched::analytic::AnalyticSchedule;
use tpn_sched::frustum::detect_frustum_eager;
use tpn_sched::rate::RateReport;
use tpn_sched::validate::replay_trace;

const STEP_BUDGET: u64 = 400_000;

fn shape_of(index: usize) -> Shape {
    Shape::ALL[index % Shape::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Analytic rate == parametric critical ratio == frustum-measured
    /// rate, exactly, on every generated shape.
    #[test]
    fn analytic_rate_agrees_with_parametric_and_frustum(
        seed in 0u64..8,
        case in 0u64..12,
        shape_index in 0usize..5,
    ) {
        let shape = shape_of(shape_index);
        let sdsp = generate(seed, case, shape);
        let pn = to_petri(&sdsp);

        let param = critical_ratio(&pn.net, &pn.marking).expect("generated net is live");
        let analytic = AnalyticSchedule::for_sdsp_pn(&pn).expect("marked graph");
        prop_assert_eq!(
            analytic.rate(), param.rate,
            "{} seed {} case {}: analytic vs parametric", shape.as_str(), seed, case
        );
        prop_assert_eq!(
            analytic.cycle_time(), param.cycle_time,
            "{} seed {} case {}: cycle time", shape.as_str(), seed, case
        );

        let frustum = detect_frustum_eager(&pn.net, pn.marking.clone(), STEP_BUDGET)
            .expect("generated net reaches a frustum");
        let report = RateReport::for_sdsp_pn(&pn, &frustum).expect("rates");
        prop_assert_eq!(
            analytic.rate(), report.measured,
            "{} seed {} case {}: analytic vs frustum-measured", shape.as_str(), seed, case
        );
        prop_assert!(report.is_time_optimal());
    }

    /// The analytic schedule's synthesized trace replays cleanly — the
    /// event stream alone reconstructs a live, safe, rate-correct run.
    #[test]
    fn analytic_trace_replays_cleanly(
        seed in 8u64..14,
        case in 0u64..10,
        shape_index in 0usize..5,
    ) {
        let shape = shape_of(shape_index);
        let sdsp = generate(seed, case, shape);
        let pn = to_petri(&sdsp);

        let param = critical_ratio(&pn.net, &pn.marking).expect("generated net is live");
        let analytic = AnalyticSchedule::for_sdsp_pn(&pn).expect("marked graph");
        let trace = analytic.trace(&pn, 2);
        let validation = replay_trace(&pn.net, &pn.marking, &trace)
            .map_err(|e| TestCaseError::fail(format!(
                "{} seed {} case {}: replay failed: {e}", shape.as_str(), seed, case
            )))?;
        validation
            .confirm_rate(pn.net.transition_ids(), param.rate)
            .map_err(|e| TestCaseError::fail(format!(
                "{} seed {} case {}: rate not confirmed: {e}", shape.as_str(), seed, case
            )))?;
    }
}
