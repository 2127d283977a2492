//! Property-based tests of the resource-constrained SDSP-SCP-PN model
//! (§5.2): Theorem 5.2.2's rate bound, the single-issue discipline, and
//! the work-conserving FIFO policy, over random loop bodies and pipeline
//! depths.

use proptest::prelude::*;
use tpn_dataflow::to_petri::to_petri;
use tpn_livermore::synth::{generate, SynthConfig};
use tpn_petri::Ratio;
use tpn_sched::frustum::detect_frustum;
use tpn_sched::policy::{FifoPolicy, PriorityPolicy};
use tpn_sched::rate::ScpRateReport;
use tpn_sched::scp::build_scp;
use tpn_sched::steady::steady_state_net;

fn cases() -> impl Strategy<Value = (SynthConfig, u64)> {
    (
        (2usize..12, 0.0f64..1.0, 0usize..2, any::<u64>()).prop_map(
            |(nodes, forward_density, recurrences, seed)| SynthConfig {
                nodes,
                forward_density,
                recurrences,
                distance: 1,
                seed,
            },
        ),
        1u64..10,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 5.2.2: on a *connected* body no SDSP transition's issue
    /// rate exceeds 1/n (uniform firing counts force an even share of the
    /// single issue slot); on any body, the slot itself is never
    /// oversubscribed (utilisation ≤ 1) and total issue throughput is at
    /// most one instruction per cycle.
    #[test]
    fn scp_rate_never_exceeds_one_over_n((config, depth) in cases()) {
        let sdsp = generate(&config);
        let connected = sdsp.is_weakly_connected();
        let pn = to_petri(&sdsp);
        let scp = build_scp(&pn, depth);
        let budget = 4_000_000;
        let f = detect_frustum(&scp.net, scp.marking.clone(), FifoPolicy::new(&scp), budget)
            .unwrap();
        let n = scp.num_sdsp_transitions() as u64;
        if connected {
            for t in scp.sdsp_transitions() {
                prop_assert!(f.rate_of(t) <= Ratio::new(1, n));
            }
        }
        let total_issues: u64 = scp
            .sdsp_transitions()
            .map(|t| f.counts[t.index()])
            .sum();
        prop_assert!(total_issues <= f.period());
        let report = ScpRateReport::for_scp(&scp, &f).unwrap();
        prop_assert!(report.utilization <= Ratio::ONE);
    }

    /// The pipeline issues at most one instruction per cycle, at every
    /// instant of the trace.
    #[test]
    fn scp_issues_at_most_one_per_cycle((config, depth) in cases()) {
        let pn = to_petri(&generate(&config));
        let scp = build_scp(&pn, depth);
        let f = detect_frustum(&scp.net, scp.marking.clone(), FifoPolicy::new(&scp), 4_000_000)
            .unwrap();
        for step in f.steps() {
            let issues = step
                .started
                .iter()
                .filter(|t| scp.is_sdsp[t.index()])
                .count();
            prop_assert!(issues <= 1, "instant {}", step.time);
        }
    }

    /// Assumption 5.2.1 (work conservation): the machine never leaves the
    /// issue slot idle while an instruction is ready.
    #[test]
    fn scp_fifo_is_work_conserving((config, depth) in cases()) {
        let pn = to_petri(&generate(&config));
        let scp = build_scp(&pn, depth);
        let f = detect_frustum(&scp.net, scp.marking.clone(), FifoPolicy::new(&scp), 4_000_000)
            .unwrap();
        let mut state =
            tpn_petri::timed::InstantaneousState::initial(&scp.net, scp.marking.clone());
        for step in f.steps() {
            state.apply_step(&scp.net, step.started);
            let issued = step.started.iter().any(|t| scp.is_sdsp[t.index()]);
            if !issued && state.marking.tokens(scp.run_place) > 0 {
                let ready = state.startable(&scp.net);
                prop_assert!(
                    ready.iter().all(|t| !scp.is_sdsp[t.index()]),
                    "idled with ready work at instant {}", step.time
                );
            }
        }
    }

    /// Different deterministic tie-breaks both reach a frustum, and the
    /// steady-state equivalent net of either resolves all conflicts into
    /// a marked graph.
    #[test]
    fn scp_frustum_exists_under_both_policies((config, depth) in cases()) {
        let pn = to_petri(&generate(&config));
        let scp = build_scp(&pn, depth);
        let ff = detect_frustum(&scp.net, scp.marking.clone(), FifoPolicy::new(&scp), 4_000_000)
            .unwrap();
        let fp = detect_frustum(
            &scp.net,
            scp.marking.clone(),
            PriorityPolicy::new(&scp),
            4_000_000,
        )
        .unwrap();
        prop_assert!(ff.period() > 0);
        prop_assert!(fp.period() > 0);
        let steady = steady_state_net(&scp.net, &ff);
        prop_assert!(steady.net.is_marked_graph());
    }
}
