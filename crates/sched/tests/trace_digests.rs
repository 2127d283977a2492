//! The incremental marking hash behind [`FiringTrace::from_frustum`]
//! against a from-scratch replay: on every Livermore kernel, plain and as
//! a depth-8 SCP run, the derived events follow the step records in
//! engine mutation order and each one carries exactly the
//! [`marking_digest`] of the marking after its token movement.

use tpn_dataflow::to_petri::to_petri;
use tpn_livermore::kernels;
use tpn_petri::timed::marking_digest;
use tpn_petri::trace::EventKind;
use tpn_petri::{Marking, PetriNet};
use tpn_sched::frustum::{detect_frustum, detect_frustum_eager, FrustumReport};
use tpn_sched::policy::FifoPolicy;
use tpn_sched::scp::build_scp;
use tpn_sched::FiringTrace;

fn assert_stamps_match_replay(
    name: &str,
    net: &PetriNet,
    initial: &Marking,
    frustum: &FrustumReport,
    trace: &FiringTrace,
) {
    let mut replica = initial.clone();
    let mut events = trace.events.iter();
    for step in frustum.steps() {
        for &t in step.completed {
            let e = events.next().expect("an event per completion");
            replica.produce_outputs(net, t);
            assert_eq!(
                (e.time, e.transition, e.kind, e.residual),
                (step.time, t, EventKind::Complete, 0),
                "{name}"
            );
            assert_eq!(
                e.marking_digest,
                marking_digest(&replica),
                "{name}: completion of {t} at {}",
                step.time
            );
        }
        for &t in step.started {
            let e = events.next().expect("an event per start");
            replica.consume_inputs(net, t);
            assert_eq!(
                (e.time, e.transition, e.kind, e.residual),
                (step.time, t, EventKind::Start, net.transition(t).time()),
                "{name}"
            );
            assert_eq!(
                e.marking_digest,
                marking_digest(&replica),
                "{name}: start of {t} at {}",
                step.time
            );
        }
    }
    assert!(events.next().is_none(), "{name}: events beyond the steps");
    assert_eq!(
        replica,
        frustum.state_at(net, frustum.repeat_time).marking,
        "{name}"
    );
}

#[test]
fn derived_digests_match_a_from_scratch_replay() {
    for k in kernels() {
        let pn = to_petri(&k.sdsp());
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 100_000).unwrap();
        let trace = FiringTrace::from_frustum(&pn.net, &pn.marking, &f);
        assert_stamps_match_replay(k.name, &pn.net, &pn.marking, &f, &trace);

        let scp = build_scp(&pn, 8);
        let f = detect_frustum(
            &scp.net,
            scp.marking.clone(),
            FifoPolicy::new(&scp),
            800_000,
        )
        .unwrap();
        let trace = FiringTrace::from_scp_frustum(&scp, &f);
        let name = format!("{} (SCP, depth 8)", k.name);
        assert_stamps_match_replay(&name, &scp.net, &scp.marking, &f, &trace);
    }
}
