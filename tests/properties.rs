//! Property-based tests over randomly generated loop bodies: the paper's
//! theorems, checked on thousands of graphs rather than a handful of
//! examples.

use proptest::prelude::*;
use tpn_conform::reach::explore;
use tpn_dataflow::to_petri::to_petri;
use tpn_dataflow::{OpKind, Operand, Sdsp, SdspBuilder};
use tpn_livermore::synth::{generate, SynthConfig};
use tpn_petri::marked::{check_live_safe, is_consistent_with, marked_graph_consistency};
use tpn_petri::ratio::{analyze_cycles, critical_ratio};
use tpn_sched::frustum::detect_frustum_eager;
use tpn_sched::steady::steady_state_net;
use tpn_sched::validate::check_schedule;
use tpn_sched::LoopSchedule;

fn synth_config() -> impl Strategy<Value = SynthConfig> {
    (2usize..24, 0.0f64..1.0, 0usize..3, 1u32..4, any::<u64>()).prop_map(
        |(nodes, forward_density, recurrences, distance, seed)| SynthConfig {
            nodes,
            forward_density,
            recurrences,
            distance,
            seed,
        },
    )
}

fn sdsp_of(config: &SynthConfig) -> Sdsp {
    generate(config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// §3.2: the SDSP-PN of any valid SDSP is a live, safe marked graph.
    #[test]
    fn sdsp_pn_is_live_safe_marked_graph(config in synth_config()) {
        let pn = to_petri(&sdsp_of(&config));
        prop_assert!(pn.net.is_marked_graph());
        prop_assert!(check_live_safe(&pn.net, &pn.marking).is_ok());
    }

    /// A.4: marked graphs are consistent with the all-ones firing vector.
    #[test]
    fn sdsp_pn_is_consistent(config in synth_config()) {
        let pn = to_petri(&sdsp_of(&config));
        let w = marked_graph_consistency(&pn.net).unwrap();
        prop_assert!(is_consistent_with(&pn.net, &w));
    }

    /// The two critical-cycle algorithms (exhaustive enumeration and exact
    /// parametric search) agree on every net they can both handle.
    #[test]
    fn enumeration_agrees_with_parametric(config in synth_config()) {
        let pn = to_petri(&sdsp_of(&config));
        let parametric = critical_ratio(&pn.net, &pn.marking).unwrap();
        if let Ok(enumerated) = analyze_cycles(&pn.net, &pn.marking, 1 << 14) {
            prop_assert_eq!(enumerated.cycle_time, parametric.cycle_time);
        }
    }

    /// Theorem 4.1.1 / A.7: the earliest firing rule settles into a
    /// periodic pattern whose rate equals the critical-cycle bound. The
    /// equality is per weakly-connected component (disconnected random
    /// bodies let the cheap component run at its own optimum): every
    /// transition runs at least as fast as the global bound, and the
    /// slowest attains it exactly.
    #[test]
    fn earliest_firing_attains_the_optimal_rate(config in synth_config()) {
        let sdsp = sdsp_of(&config);
        let connected = sdsp.is_weakly_connected();
        let pn = to_petri(&sdsp);
        let optimal = critical_ratio(&pn.net, &pn.marking).unwrap().rate;
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 2_000_000).unwrap();
        let mut slowest = None;
        for t in pn.net.transition_ids() {
            let r = f.rate_of(t);
            prop_assert!(r >= optimal, "{} below the critical bound", t);
            slowest = Some(slowest.map_or(r, |s: tpn_petri::Ratio| s.min(r)));
        }
        prop_assert_eq!(slowest.unwrap(), optimal);
        // For weakly connected bodies the rate is uniform across nodes.
        if connected {
            for t in pn.net.transition_ids() {
                prop_assert_eq!(f.rate_of(t), optimal);
            }
        }
    }

    /// Lemma 3.3.2 made quantitative: detection stays within a small
    /// multiple of n (the proven bound is n^4; §5 observes ~2n).
    #[test]
    fn detection_is_near_linear(config in synth_config()) {
        let sdsp = sdsp_of(&config);
        let n = sdsp.num_nodes() as u64;
        let pn = to_petri(&sdsp);
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 2_000_000).unwrap();
        // Distances up to 3 deepen pipelines; stay generous but linear.
        prop_assert!(
            f.repeat_time <= 16 * n + 64,
            "repeat {} for n {}", f.repeat_time, n
        );
    }

    /// Definition 3.3.1: the frustum of a connected marked graph fires
    /// every transition equally often (Theorem A.5.3), and the derived
    /// schedule is dependence-clean.
    #[test]
    fn schedules_are_dependence_clean(config in synth_config()) {
        let sdsp = sdsp_of(&config);
        let pn = to_petri(&sdsp);
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 2_000_000).unwrap();
        // Random bodies may be disconnected; only connected ones yield a
        // single kernel.
        if let Ok(schedule) = LoopSchedule::from_frustum(&sdsp, &pn, &f) {
            let check = check_schedule(&sdsp, &schedule, 64, None, 0);
            prop_assert!(check.is_ok(), "{:?}", check);
        }
    }

    /// Figure 1(f): the steady-state equivalent net is a live marked graph
    /// whose cycle time is exactly the frustum period.
    #[test]
    fn steady_nets_reproduce_the_period(config in synth_config()) {
        let pn = to_petri(&sdsp_of(&config));
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 2_000_000).unwrap();
        let steady = steady_state_net(&pn.net, &f);
        prop_assert!(steady.net.is_marked_graph());
        let r = critical_ratio(&steady.net, &steady.marking).unwrap();
        prop_assert_eq!(r.cycle_time, tpn_petri::Ratio::from_integer(f.period()));
    }

    /// The multi-token generalisation: after balancing (capacity ≥ 2
    /// buffers), tokens can wait several periods, and the steady-state
    /// equivalent net must still reproduce the period exactly.
    #[test]
    fn steady_nets_handle_balanced_buffers(config in synth_config()) {
        let sdsp = sdsp_of(&config);
        let (balanced, _) = tpn_storage::balance(&sdsp).unwrap();
        let pn = to_petri(&balanced);
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 4_000_000).unwrap();
        let steady = steady_state_net(&pn.net, &f);
        prop_assert!(steady.net.is_marked_graph());
        let r = critical_ratio(&steady.net, &steady.marking).unwrap();
        prop_assert_eq!(r.cycle_time, tpn_petri::Ratio::from_integer(f.period()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Appendix A.4 via the incidence matrix: the all-ones vector is a
    /// T-invariant of every SDSP-PN (so the net is consistent), and the
    /// places of every simple cycle form an S-invariant.
    #[test]
    fn invariants_agree_with_marked_graph_theory(config in synth_config()) {
        use tpn_conform::invariants::{cycle_s_invariant, is_consistent, is_t_invariant};
        let pn = to_petri(&sdsp_of(&config));
        let ones = vec![1i64; pn.net.num_transitions()];
        prop_assert!(is_t_invariant(&pn.net, &ones));
        prop_assert!(is_consistent(&pn.net));
        if let Ok(cycles) = tpn_petri::cycles::simple_cycles(&pn.net, 1 << 12) {
            for cycle in cycles.iter().take(32) {
                // cycle_s_invariant asserts yᵀ·C = 0 internally.
                let _ = cycle_s_invariant(&pn.net, cycle);
            }
        }
    }

    /// Karp–Miller agrees with the safety theorem: plain SDSP-PNs are
    /// 1-bounded, balanced ones are bounded by their largest capacity.
    #[test]
    fn coverability_agrees_with_safety(
        config in (2usize..8, 0.0f64..1.0, 0usize..2, any::<u64>()).prop_map(
            |(nodes, forward_density, recurrences, seed)| SynthConfig {
                nodes,
                forward_density,
                recurrences,
                distance: 1,
                seed,
            },
        )
    ) {
        use tpn_conform::coverability::analyze;
        let sdsp = sdsp_of(&config);
        let pn = to_petri(&sdsp);
        let cov = analyze(&pn.net, &pn.marking, 300_000);
        // 1-bounded (bound 0 for degenerate bodies with no arcs at all).
        prop_assert!(cov.bound().is_some_and(|b| b <= 1), "safe marked graphs are 1-bounded");
        let (balanced, _) = tpn_storage::balance(&sdsp).unwrap();
        let max_cap = balanced.acks().map(|(_, a)| a.capacity).max().unwrap_or(1);
        let bpn = to_petri(&balanced);
        let bcov = analyze(&bpn.net, &bpn.marking, 300_000);
        match bcov.bound() {
            Some(b) => prop_assert!(b <= max_cap),
            None => prop_assert!(false, "balanced nets stay bounded"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The lexer and parser are total: arbitrary input produces a
    /// diagnostic or an AST, never a panic.
    #[test]
    fn front_end_is_total(input in ".{0,200}") {
        let _ = tpn_lang::parse(&input);
    }

    /// Diagnostics always render with a position inside the input.
    #[test]
    fn diagnostics_point_into_the_source(input in "[a-z0-9\\[\\]();:= +*-]{0,80}") {
        if let Err(e) = tpn_lang::parse(&input) {
            if let Some(span) = e.span() {
                prop_assert!(span.start <= input.len());
                prop_assert!(span.end <= input.len() + 1);
            }
            prop_assert!(!e.render(&input).is_empty());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Behavioural cross-check on small nets: explicit reachability agrees
    /// with the structural marked-graph theorems about liveness, safety
    /// and persistence.
    #[test]
    fn reachability_agrees_with_structure(
        config in (2usize..8, 0.0f64..1.0, 0usize..2, any::<u64>()).prop_map(
            |(nodes, forward_density, recurrences, seed)| SynthConfig {
                nodes,
                forward_density,
                recurrences,
                distance: 1,
                seed,
            },
        )
    ) {
        let pn = to_petri(&sdsp_of(&config));
        prop_assert!(check_live_safe(&pn.net, &pn.marking).is_ok());
        if let Ok(graph) = explore(&pn.net, pn.marking.clone(), 200_000) {
            prop_assert!(graph.is_live(&pn.net));
            prop_assert!(graph.is_safe());
            prop_assert!(graph.is_persistent(&pn.net));
        }
    }
}

/// The paper's loop L1: a diamond with no recurrence.
fn l1() -> Sdsp {
    let mut b = SdspBuilder::new();
    let a = b.node("A", OpKind::Add, [Operand::env("X", 0), Operand::lit(5.0)]);
    let bb = b.node("B", OpKind::Add, [Operand::env("Y", 0), Operand::node(a)]);
    let c = b.node("C", OpKind::Add, [Operand::node(a), Operand::env("Z", 0)]);
    let d = b.node("D", OpKind::Add, [Operand::node(bb), Operand::node(c)]);
    let _e = b.node("E", OpKind::Add, [Operand::env("W", 0), Operand::node(d)]);
    b.finish().unwrap()
}

/// The paper's loop L2: L1 with a feedback edge E -> C.
fn l2() -> Sdsp {
    let mut b = SdspBuilder::new();
    let a = b.node("A", OpKind::Add, [Operand::env("X", 0), Operand::lit(5.0)]);
    let bb = b.node("B", OpKind::Add, [Operand::env("Y", 0), Operand::node(a)]);
    let c = b.node("C", OpKind::Add, [Operand::node(a), Operand::lit(0.0)]);
    let d = b.node("D", OpKind::Add, [Operand::node(bb), Operand::node(c)]);
    let e = b.node("E", OpKind::Add, [Operand::env("W", 0), Operand::node(d)]);
    b.set_operand(c, 1, Operand::feedback(e, 1));
    b.finish().unwrap()
}

/// Appendix A.3's behavioural definitions, by explicit reachability,
/// agree with the structural theorems on the paper's loops.
#[test]
fn reachability_confirms_structural_theorems() {
    for sdsp in [l1(), l2()] {
        let pn = to_petri(&sdsp);
        let g = explore(&pn.net, pn.marking.clone(), 100_000).unwrap();
        assert!(g.is_live(&pn.net));
        assert!(g.is_safe());
        assert!(g.is_persistent(&pn.net));
    }
}
