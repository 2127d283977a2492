//! Named, always-run replays of every proptest-shrunk failure the suite
//! has caught historically (`tests/*.proptest-regressions`).
//!
//! Proptest re-runs checked-in seeds before generating novel cases, but
//! only when the owning property test executes *and* the seed file sits
//! next to it — a renamed property, a moved file, or a `--test` filter
//! silently drops the replay. These tests pin each shrunk
//! counterexample as a first-class unit test with a name that says what
//! it once broke, so the regression protection is unconditional and
//! shows up individually in test output. The policy lives in DESIGN.md:
//! seed files stay checked in (proptest replays them with the original
//! failure's RNG), **and** every shrunk case gets promoted here.

use tpn_codegen::{emit_from_starts, run_with_width};
use tpn_dataflow::interp::{execute, Env};
use tpn_dataflow::to_petri::to_petri;
use tpn_livermore::synth::{generate, SynthConfig};
use tpn_petri::marked::{check_live_safe, is_consistent_with, marked_graph_consistency};
use tpn_petri::ratio::{analyze_cycles, critical_ratio};
use tpn_petri::Ratio;
use tpn_sched::frustum::{detect_frustum, detect_frustum_eager};
use tpn_sched::modulo::modulo_schedule;
use tpn_sched::policy::{FifoPolicy, PriorityPolicy};
use tpn_sched::rate::ScpRateReport;
use tpn_sched::scp::build_scp;
use tpn_sched::steady::steady_state_net;
use tpn_sched::validate::check_schedule;
use tpn_sched::LoopSchedule;

fn env_for(sdsp: &tpn_dataflow::Sdsp, len: usize) -> Env {
    let arrays = sdsp.input_arrays();
    let names: Vec<&str> = arrays.iter().map(String::as_str).collect();
    let mut env = Env::ramp(&names, len, |ai, i| 0.5 + ai as f64 + i as f64 * 0.125);
    for (pi, p) in sdsp.params().into_iter().enumerate() {
        env.insert_scalar(p, 1.0 + pi as f64);
    }
    env
}

/// The full battery from `tests/properties.rs`, on one fixed body: the
/// regression files record the shrunk `SynthConfig` but not which
/// property tripped, so a replay exercises every invariant the file
/// guards.
fn replay_properties(config: &SynthConfig) {
    let sdsp = generate(config);
    let connected = sdsp.is_weakly_connected();
    let pn = to_petri(&sdsp);

    // Live, safe marked graph; consistent with the all-ones vector.
    assert!(pn.net.is_marked_graph());
    check_live_safe(&pn.net, &pn.marking).unwrap();
    let w = marked_graph_consistency(&pn.net).unwrap();
    assert!(is_consistent_with(&pn.net, &w));

    // Enumeration agrees with the parametric search.
    let parametric = critical_ratio(&pn.net, &pn.marking).unwrap();
    if let Ok(enumerated) = analyze_cycles(&pn.net, &pn.marking, 1 << 14) {
        assert_eq!(enumerated.cycle_time, parametric.cycle_time);
    }

    // Earliest firing attains the optimal rate (per component).
    let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 2_000_000).unwrap();
    let mut slowest = None;
    for t in pn.net.transition_ids() {
        let r = f.rate_of(t);
        assert!(r >= parametric.rate, "{t} below the critical bound");
        slowest = Some(slowest.map_or(r, |s: Ratio| s.min(r)));
    }
    assert_eq!(slowest.unwrap(), parametric.rate);
    if connected {
        for t in pn.net.transition_ids() {
            assert_eq!(f.rate_of(t), parametric.rate);
        }
    }

    // Detection stays near-linear.
    let n = sdsp.num_nodes() as u64;
    assert!(
        f.repeat_time <= 16 * n + 64,
        "repeat {} for n {n}",
        f.repeat_time
    );

    // Derived schedules are dependence-clean.
    if let Ok(schedule) = LoopSchedule::from_frustum(&sdsp, &pn, &f) {
        check_schedule(&sdsp, &schedule, 64, None, 0).unwrap();
    }

    // The steady-state equivalent net reproduces the period.
    let steady = steady_state_net(&pn.net, &f);
    assert!(steady.net.is_marked_graph());
    let r = critical_ratio(&steady.net, &steady.marking).unwrap();
    assert_eq!(r.cycle_time, Ratio::from_integer(f.period()));
}

/// The shrunk case behind `properties.proptest-regressions`
/// `62d6043f…`: a five-node pure chain with one recurrence.
#[test]
fn regression_properties_chain_with_recurrence() {
    replay_properties(&SynthConfig {
        nodes: 5,
        forward_density: 0.0,
        recurrences: 1,
        distance: 1,
        seed: 0,
    });
}

/// The shrunk case behind `properties.proptest-regressions`
/// `d696ce0a…`: two nodes carrying two recurrences.
#[test]
fn regression_properties_two_nodes_two_recurrences() {
    replay_properties(&SynthConfig {
        nodes: 2,
        forward_density: 0.0,
        recurrences: 2,
        distance: 1,
        seed: 0,
    });
}

/// The shrunk case behind `properties.proptest-regressions`
/// `3b5d506c…` and `205a2b89…` (two distinct failures shrank to the
/// same body): two disconnected recurrence-free nodes — the minimal
/// *disconnected* body, where per-component rates and schedule
/// derivation both need their escape hatches.
#[test]
fn regression_properties_minimal_disconnected_body() {
    let config = SynthConfig {
        nodes: 2,
        forward_density: 0.0,
        recurrences: 0,
        distance: 1,
        seed: 0,
    };
    assert!(!generate(&config).is_weakly_connected());
    replay_properties(&config);
}

/// The shrunk case behind `codegen_properties.proptest-regressions`
/// `1ef00904…` (from `emitted_modulo_schedules_are_machine_clean`): a
/// dense four-node body with two recurrences at width 1, where the
/// modulo schedule's pipelining depth makes the buffer-requirement
/// computation and the machine's buffer discipline earn their keep.
#[test]
fn regression_codegen_modulo_width1_buffer_requirements() {
    let config = SynthConfig {
        nodes: 4,
        forward_density: 0.6994111952295277,
        recurrences: 2,
        distance: 1,
        seed: 3647023592926643133,
    };
    let width = 1usize;
    let sdsp = generate(&config);
    let schedule = modulo_schedule(&sdsp, width).unwrap();
    schedule.validate(&sdsp).unwrap();
    let iterations = 16u64;
    let mut program = emit_from_starts(
        &sdsp,
        |node, iter| schedule.start_time(node, iter),
        iterations,
        schedule.ii(),
        1,
    );
    program.buffer_capacity = schedule.buffer_requirements(&sdsp);
    let env = env_for(&sdsp, iterations as usize + 8);
    let outcome = run_with_width(&program, &sdsp, &env, Some(width)).unwrap();
    let reference = execute(&sdsp, &env, iterations as usize).unwrap();
    for nid in sdsp.node_ids() {
        assert_eq!(
            outcome.value(nid, iterations - 1).to_bits(),
            reference.value(nid, iterations as usize - 1).to_bits()
        );
    }
}

/// The shrunk case behind `scp_properties.proptest-regressions`
/// `4eac22c3…`: the five-node single-recurrence chain on a depth-1
/// pipeline. Replays the full SCP battery: the 1/n rate bound, the
/// one-issue-per-cycle discipline, work conservation, and frustum
/// existence under both deterministic policies.
#[test]
fn regression_scp_chain_depth1() {
    let config = SynthConfig {
        nodes: 5,
        forward_density: 0.0,
        recurrences: 1,
        distance: 1,
        seed: 0,
    };
    let depth = 1u64;
    let sdsp = generate(&config);
    let connected = sdsp.is_weakly_connected();
    let pn = to_petri(&sdsp);
    let scp = build_scp(&pn, depth);
    let budget = 4_000_000;

    let f = detect_frustum(&scp.net, scp.marking.clone(), FifoPolicy::new(&scp), budget).unwrap();
    let n = scp.num_sdsp_transitions() as u64;
    if connected {
        for t in scp.sdsp_transitions() {
            assert!(f.rate_of(t) <= Ratio::new(1, n));
        }
    }
    let total_issues: u64 = scp.sdsp_transitions().map(|t| f.counts[t.index()]).sum();
    assert!(total_issues <= f.period());
    let report = ScpRateReport::for_scp(&scp, &f).unwrap();
    assert!(report.utilization <= Ratio::ONE);

    // One issue per cycle, work-conserving.
    let mut state = tpn_petri::timed::InstantaneousState::initial(&scp.net, scp.marking.clone());
    for step in f.steps() {
        let issues = step
            .started
            .iter()
            .filter(|t| scp.is_sdsp[t.index()])
            .count();
        assert!(issues <= 1, "instant {}", step.time);
        state.apply_step(&scp.net, step.started);
        let issued = step.started.iter().any(|t| scp.is_sdsp[t.index()]);
        if !issued && state.marking.tokens(scp.run_place) > 0 {
            let ready = state.startable(&scp.net);
            assert!(
                ready.iter().all(|t| !scp.is_sdsp[t.index()]),
                "idled with ready work at instant {}",
                step.time
            );
        }
    }

    // Both deterministic tie-breaks reach a frustum.
    let fp = detect_frustum(
        &scp.net,
        scp.marking.clone(),
        PriorityPolicy::new(&scp),
        budget,
    )
    .unwrap();
    assert!(f.period() > 0);
    assert!(fp.period() > 0);
    let steady = steady_state_net(&scp.net, &f);
    assert!(steady.net.is_marked_graph());
}

/// `tpnc fuzz --seed 0 --shape mixed`, case 55: policy iteration that
/// evaluated each policy cycle from wherever its walk entered the cycle
/// switched policies forever here. With the smallest-index node as every
/// cycle's reference it converges, in agreement with Johnson enumeration.
#[test]
fn regression_howard_converges_on_mixed_seed0_case55() {
    let sdsp = tpn_conform::generate(0, 55, tpn_conform::Shape::Mixed);
    let pn = to_petri(&sdsp);
    let solved = critical_ratio(&pn.net, &pn.marking).unwrap();
    let enumerated = analyze_cycles(&pn.net, &pn.marking, 1 << 14).unwrap();
    assert_eq!(solved.cycle_time, enumerated.cycle_time);
    assert_eq!(solved.cycle_time, Ratio::from_integer(7));
}
