//! Differential properties of the production frustum detector.
//!
//! The production detector ([`detect_frustum`]) steps an event-driven
//! engine, indexes instants by an incrementally maintained 64-bit state
//! digest and confirms candidate repetitions by bounded checkpoint replay.
//! The reference ([`detect_frustum_reference`], in `tpn-conform`) steps
//! the net naively — a full startable rescan after every start, a scan of
//! every residual per tick, a FIFO queue re-synced over every instruction
//! on each choice — and keys repetition on the full state plus the queue.
//! These properties hold the two to the same events at every instant on
//! hundreds of random SDSPs and SCP machines.

use proptest::prelude::*;
use tpn_conform::{agree, detect_frustum_reference, ReferencePolicy};
use tpn_dataflow::to_petri::to_petri;
use tpn_dataflow::{OpKind, Operand, Sdsp, SdspBuilder};
use tpn_livermore::synth::{generate, SynthConfig};
use tpn_petri::timed::{state_digest, EagerPolicy, Engine, InstantaneousState, PackedState};
use tpn_petri::Marking;
use tpn_sched::frustum::{detect_frustum, detect_frustum_eager};
use tpn_sched::policy::{FifoPolicy, PriorityPolicy};
use tpn_sched::scp::build_scp;
use tpn_sched::SchedError;

const BUDGET: u64 = 2_000_000;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On random SDSP-PNs under the eager policy, the production detector
    /// records exactly the reference's events and digests at every
    /// instant, and the same `(start_time, repeat_time, counts)`.
    #[test]
    fn digest_detection_matches_reference_on_sdsp(config in synth_config()) {
        let pn = to_petri(&generate(&config));
        let fast = detect_frustum(&pn.net, pn.marking.clone(), EagerPolicy, BUDGET).unwrap();
        let refr = detect_frustum_reference(
            &pn.net,
            pn.marking.clone(),
            ReferencePolicy::Eager,
            fast.repeat_time + 1,
        )
        .unwrap();
        prop_assert_eq!(agree(&fast, &refr, true), Ok(()));
    }

    /// Same agreement on SDSP-SCP-PNs at depths 1–9, under both the FIFO
    /// and the priority issue policy. The two sides fingerprint the FIFO
    /// queue differently, so digests are not compared here.
    #[test]
    fn digest_detection_matches_reference_on_scp(
        config in synth_config(),
        depth in 1u64..10,
    ) {
        let pn = to_petri(&generate(&config));
        let scp = build_scp(&pn, depth);
        let fifo = detect_frustum(&scp.net, scp.marking.clone(), FifoPolicy::new(&scp), BUDGET)
            .unwrap();
        let refr = detect_frustum_reference(
            &scp.net,
            scp.marking.clone(),
            ReferencePolicy::fifo(&scp),
            fifo.repeat_time + 1,
        )
        .unwrap();
        prop_assert_eq!(agree(&fifo, &refr, false), Ok(()));
        let priority = detect_frustum(
            &scp.net,
            scp.marking.clone(),
            PriorityPolicy::new(&scp),
            BUDGET,
        )
        .unwrap();
        let refr = detect_frustum_reference(
            &scp.net,
            scp.marking.clone(),
            ReferencePolicy::priority(&scp),
            priority.repeat_time + 1,
        )
        .unwrap();
        prop_assert_eq!(agree(&priority, &refr, false), Ok(()));
    }

    /// Every recorded digest matches a from-scratch hash of the state
    /// reconstructed by event replay (events + digest fully determine the
    /// trace, no state clones needed), and the engine's stats account for
    /// every candidate.
    #[test]
    fn recorded_events_and_digests_are_faithful(config in synth_config()) {
        let pn = to_petri(&generate(&config));
        let fast = detect_frustum(&pn.net, pn.marking.clone(), EagerPolicy, BUDGET).unwrap();
        let mut state = InstantaneousState::initial(&pn.net, pn.marking.clone());
        for step in fast.steps() {
            state.apply_step(&pn.net, step.started);
            prop_assert_eq!(state_digest(&state, step.policy_fingerprint), step.digest);
        }
        let engine = fast.stats.engine;
        prop_assert_eq!(engine.startable_scanned, engine.firings + engine.startable_pruned);
        // The replayed terminal state round-trips through packing, and
        // state_at agrees with direct replay at the boundary instants.
        prop_assert_eq!(&PackedState::pack(&state).unpack(&pn.net), &state);
        prop_assert_eq!(
            fast.state_at(&pn.net, fast.start_time),
            fast.state_at(&pn.net, fast.repeat_time)
        );
    }

    /// A fresh engine re-run produces the exact event stream the detector
    /// recorded (determinism of the earliest firing rule).
    #[test]
    fn engine_rerun_reproduces_the_trace(config in synth_config()) {
        let pn = to_petri(&generate(&config));
        let report = detect_frustum(&pn.net, pn.marking.clone(), EagerPolicy, BUDGET).unwrap();
        let mut engine = Engine::new(&pn.net, pn.marking.clone(), EagerPolicy);
        let mut steps = vec![engine.start()];
        while (steps.len() as u64) <= report.repeat_time {
            steps.push(engine.tick());
        }
        prop_assert_eq!(steps.len(), report.steps().len());
        for (a, b) in steps.iter().zip(report.steps()) {
            prop_assert_eq!(&a.started, &b.started);
            prop_assert_eq!(a.digest, b.digest);
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

#[test]
fn digest_detector_matches_reference_on_the_paper_loops() {
    for sdsp in [l1(), l2()] {
        let pn = to_petri(&sdsp);
        let fast = detect_frustum_eager(&pn.net, pn.marking.clone(), 1_000).unwrap();
        let refr =
            detect_frustum_reference(&pn.net, pn.marking.clone(), ReferencePolicy::Eager, 1_000)
                .unwrap();
        assert_eq!(agree(&fast, &refr, true), Ok(()));
        for depth in [1, 4, 8] {
            let scp = build_scp(&pn, depth);
            let fast = detect_frustum(&scp.net, scp.marking.clone(), FifoPolicy::new(&scp), 10_000)
                .unwrap();
            let refr = detect_frustum_reference(
                &scp.net,
                scp.marking.clone(),
                ReferencePolicy::fifo(&scp),
                10_000,
            )
            .unwrap();
            assert_eq!(agree(&fast, &refr, false), Ok(()), "depth {depth}");
        }
    }
}

#[test]
fn reference_applies_the_same_budget_and_errors() {
    // The single-node do-all repeats at instant 1: budget 2 finds it,
    // budget 1 must not, on both sides.
    let mut b = SdspBuilder::new();
    b.node(
        "D",
        OpKind::Sub,
        [Operand::env("Y", 1), Operand::env("Y", 0)],
    );
    let pn = to_petri(&b.finish().unwrap());
    let found =
        detect_frustum_reference(&pn.net, pn.marking.clone(), ReferencePolicy::Eager, 2).unwrap();
    assert_eq!((found.start_time, found.repeat_time), (0, 1));
    assert!(matches!(
        detect_frustum_reference(&pn.net, pn.marking.clone(), ReferencePolicy::Eager, 1),
        Err(SchedError::FrustumNotFound { max_steps: 1 })
    ));
    // A token-free marking on a marked graph is NotLive, not Deadlock.
    let pn = to_petri(&l1());
    let empty = Marking::empty(&pn.net);
    assert!(matches!(
        detect_frustum_reference(&pn.net, empty, ReferencePolicy::Eager, 100),
        Err(SchedError::Petri(tpn_petri::PetriError::NotLive { .. }))
    ));
}
