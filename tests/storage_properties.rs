//! Property-based tests of the §6 storage optimiser: minimisation never
//! lowers the computation rate, never breaks liveness or safety, the
//! optimised loop computes identical values, and the potentials check
//! makes exactly the merges of the re-solving reference greedy.

use proptest::prelude::*;
use tpn_dataflow::interp::Env;
use tpn_dataflow::to_petri::to_petri;
use tpn_livermore::synth::{chain, generate, recurrence_ring, SynthConfig};
use tpn_petri::marked::check_live_safe;
use tpn_petri::ratio::critical_ratio;
use tpn_sched::frustum::detect_frustum_eager;
use tpn_sched::validate::replay_semantics;
use tpn_sched::LoopSchedule;
use tpn_storage::minimize_storage;

/// The merge budgets the reference comparison runs at: the first merges
/// one by one (Figure 4 is the first), then the fixpoint.
const MAX_MERGES: [usize; 4] = [1, 2, 3, usize::MAX];

/// Production and the re-solving reference agree at every budget.
fn agrees_with_reference(sdsp: &tpn_dataflow::Sdsp) -> Result<(), String> {
    for max_merges in MAX_MERGES {
        tpn_conform::storage_agree(sdsp, max_merges)
            .map_err(|e| format!("at most {max_merges} merges: {e}"))?;
    }
    Ok(())
}

#[test]
fn livermore_kernels_match_the_re_solving_reference() {
    for kernel in tpn_livermore::kernels() {
        if let Err(e) = agrees_with_reference(&kernel.sdsp()) {
            panic!("{}: {e}", kernel.name);
        }
    }
}

fn synth_config() -> impl Strategy<Value = SynthConfig> {
    (2usize..16, 0.0f64..1.0, 0usize..3, any::<u64>()).prop_map(
        |(nodes, forward_density, recurrences, seed)| SynthConfig {
            nodes,
            forward_density,
            recurrences,
            distance: 1,
            seed,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The potentials check accepts exactly the merges that re-solving
    /// the critical ratio of every candidate accepts, in the same order,
    /// also on balanced loops, whose acknowledgements hold several slots.
    #[test]
    fn synth_loops_match_the_re_solving_reference(config in synth_config()) {
        let sdsp = generate(&config);
        let (balanced, _) = tpn_storage::balance(&sdsp).unwrap();
        for sdsp in [sdsp, balanced] {
            let result = agrees_with_reference(&sdsp);
            prop_assert!(result.is_ok(), "{:?}: {}", config, result.unwrap_err());
        }
    }

    /// The same on every conformance shape, including tied critical
    /// cycles (`MultiCritical`), where no place near the critical set has
    /// slack, and a barely unique one (`NearTie`).
    #[test]
    fn conformance_shapes_match_the_re_solving_reference(
        seed in any::<u64>(),
        case in 0u64..64,
        shape in 0usize..tpn_conform::Shape::ALL.len(),
    ) {
        let shape = tpn_conform::Shape::ALL[shape];
        let result = agrees_with_reference(&tpn_conform::generate(seed, case, shape));
        prop_assert!(result.is_ok(), "{:?} {}/{}: {}", shape, seed, case, result.unwrap_err());
    }

    /// Rate preservation: the exact critical cycle time is unchanged.
    #[test]
    fn minimisation_preserves_the_rate(config in synth_config()) {
        let sdsp = generate(&config);
        let before_pn = to_petri(&sdsp);
        let before = critical_ratio(&before_pn.net, &before_pn.marking).unwrap();
        let (optimised, report) = minimize_storage(&sdsp).unwrap();
        prop_assert!(report.after <= report.before);
        let after_pn = to_petri(&optimised);
        let after = critical_ratio(&after_pn.net, &after_pn.marking).unwrap();
        prop_assert_eq!(before.cycle_time, after.cycle_time);
        prop_assert!(check_live_safe(&after_pn.net, &after_pn.marking).is_ok());
    }

    /// Semantics preservation: the optimised loop, under its own derived
    /// schedule, computes the same values as the reference interpreter.
    #[test]
    fn minimisation_preserves_semantics(config in synth_config()) {
        let sdsp = generate(&config);
        let (optimised, _) = minimize_storage(&sdsp).unwrap();
        let pn = to_petri(&optimised);
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 2_000_000).unwrap();
        let Ok(schedule) = LoopSchedule::from_frustum(&optimised, &pn, &f) else {
            // Disconnected bodies have no single kernel; nothing to check.
            return Ok(());
        };
        let arrays = optimised.input_arrays();
        let names: Vec<&str> = arrays.iter().map(String::as_str).collect();
        let env = Env::ramp(&names, 48, |ai, i| ai as f64 * 0.5 + i as f64 * 0.25);
        let outcome = replay_semantics(&optimised, &schedule, &env, 32).unwrap();
        prop_assert!(outcome.semantics_preserved());
    }

    /// Rate preservation in the hardest regime: when *several* critical
    /// cycles tie at the optimum (so there is no slack anywhere near the
    /// critical set), the minimised allocation must still hold the exact
    /// rate — analytically and under simulation.  The synth-based cases
    /// above almost always have a unique critical cycle; this one uses
    /// the conformance generator's multi-critical shape, which builds
    /// tied critical cycles by construction.
    #[test]
    fn minimisation_preserves_the_rate_with_multiple_critical_cycles(
        seed in any::<u64>(),
        case in 0u64..64,
    ) {
        let sdsp = tpn_conform::generate(seed, case, tpn_conform::Shape::MultiCritical);
        let before_pn = to_petri(&sdsp);
        let analysis =
            tpn_petri::ratio::analyze_cycles(&before_pn.net, &before_pn.marking, 50_000).unwrap();
        prop_assert!(
            analysis.has_multiple_critical_cycles(),
            "generator contract: multi-critical shape must tie its critical cycles"
        );
        let (optimised, report) = minimize_storage(&sdsp).unwrap();
        prop_assert!(report.after <= report.before);
        let after_pn = to_petri(&optimised);
        let after = critical_ratio(&after_pn.net, &after_pn.marking).unwrap();
        prop_assert_eq!(analysis.cycle_time, after.cycle_time);
        prop_assert!(check_live_safe(&after_pn.net, &after_pn.marking).is_ok());
        // The minimised net also *runs* at the unchanged rate.
        let f = detect_frustum_eager(&after_pn.net, after_pn.marking.clone(), 400_000).unwrap();
        prop_assert_eq!(f.rate_of(after_pn.transition_of[0]), analysis.rate);
    }

    /// Idempotence: a second optimisation pass finds nothing more.
    #[test]
    fn minimisation_is_idempotent(config in synth_config()) {
        let sdsp = generate(&config);
        let (once, first) = minimize_storage(&sdsp).unwrap();
        let (_, second) = minimize_storage(&once).unwrap();
        prop_assert_eq!(first.after, second.before);
        prop_assert_eq!(second.after, second.before);
    }

    /// Balancing (the FIFO-queued extension) never lowers the rate, keeps
    /// the net live, and the balanced loop actually runs at the reported
    /// rate under the earliest firing rule.
    #[test]
    fn balancing_is_monotone_and_achieved(config in synth_config()) {
        let sdsp = generate(&config);
        let (balanced, report) = tpn_storage::balance(&sdsp).unwrap();
        prop_assert!(report.rate_after >= report.rate_before);
        let pn = to_petri(&balanced);
        prop_assert!(tpn_petri::marked::check_live(&pn.net, &pn.marking).is_ok());
        prop_assert_eq!(
            critical_ratio(&pn.net, &pn.marking).unwrap().rate,
            report.rate_after
        );
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 4_000_000).unwrap();
        // The slowest transition attains the balanced bound (uniformly so
        // on connected bodies).
        let slowest = pn
            .net
            .transition_ids()
            .map(|t| f.rate_of(t))
            .min()
            .unwrap();
        prop_assert_eq!(slowest, report.rate_after);
    }

    /// Balancing then re-balancing changes nothing.
    #[test]
    fn balancing_is_idempotent(config in synth_config()) {
        let sdsp = generate(&config);
        let (once, first) = tpn_storage::balance(&sdsp).unwrap();
        let (_, second) = tpn_storage::balance(&once).unwrap();
        prop_assert_eq!(first.rate_after, second.rate_after);
        prop_assert_eq!(first.locations_after, second.locations_after);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Loops of 64–128 nodes: long chains whose ack 2-cycles are all
    /// critical, whole-body recurrence rings that coalesce deeply, and
    /// random bodies with planted recurrences.
    #[test]
    fn large_synth_loops_match_the_re_solving_reference(
        n in 64usize..129,
        kind in 0usize..3,
        seed in any::<u64>(),
    ) {
        let sdsp = match kind {
            0 => chain(n),
            1 => recurrence_ring(n),
            _ => generate(&SynthConfig {
                nodes: n,
                forward_density: 0.7,
                recurrences: n / 8,
                distance: 1,
                seed,
            }),
        };
        let result = agrees_with_reference(&sdsp);
        prop_assert!(result.is_ok(), "kind {} n {}: {}", kind, n, result.unwrap_err());
    }
}
