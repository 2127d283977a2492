//! The paper's Figure 1 end to end: loop L1 from source text through the
//! dataflow graph, the SDSP-PN, the behaviour graph, the cyclic frustum,
//! the steady-state equivalent net, and finally the time-optimal schedule.
//!
//! Run: `cargo run --example l1_pipeline`

use tpn::sched::behavior::BehaviorGraph;
use tpn::sched::steady::steady_state_net;
use tpn::CompiledLoop;

const L1: &str = "doall i from 1 to n {\n\
    A[i] := X[i] + 5;\n\
    B[i] := Y[i] + A[i];\n\
    C[i] := A[i] + Z[i];\n\
    D[i] := B[i] + C[i];\n\
    E[i] := W[i] + D[i];\n\
}";

fn main() -> Result<(), tpn::Error> {
    println!("(a) loop L1:\n{L1}\n");
    let lp = CompiledLoop::from_source(L1)?;

    println!(
        "(b/c) SDSP: {} nodes, {} data arcs, {} acknowledgement arcs",
        lp.sdsp().num_nodes(),
        lp.sdsp().arcs().count(),
        lp.sdsp().acks().count()
    );

    let pn = lp.petri_net();
    println!(
        "(d) SDSP-PN: {} transitions, {} places, marked graph: {}",
        pn.net.num_transitions(),
        pn.net.num_places(),
        pn.net.is_marked_graph()
    );

    let frustum = lp.frustum()?;
    let bg = BehaviorGraph::build(&pn.net, &pn.marking, frustum.steps());
    println!("\n(e) behaviour graph under the earliest firing rule:");
    print!("{}", bg.render(&pn.net));
    println!(
        "initial instantaneous state at t={}, terminal at t={}",
        frustum.start_time, frustum.repeat_time
    );

    let steady = steady_state_net(&pn.net, &frustum);
    println!(
        "\n(f) steady-state equivalent net: {} firing instances, {} token-flow places, {} period-crossing tokens",
        steady.net.num_transitions(),
        steady.net.num_places(),
        steady.marking.total()
    );

    let schedule = lp.schedule()?;
    println!(
        "\n(g) time-optimal schedule, II = {} (each node fires every {} cycles):",
        schedule.initiation_interval(),
        schedule.initiation_interval()
    );
    print!("{}", schedule.render_kernel());
    Ok(())
}
