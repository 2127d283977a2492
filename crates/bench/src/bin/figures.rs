//! Regenerates the paper's worked figures as terminal output (with
//! embedded Graphviz sources for the graph panels).
//!
//! Run: `cargo run -p tpn-bench --bin figures -- <fig1|fig2|fig3|fig4|all>`

use tpn::CompiledLoop;
use tpn_dataflow::dot as sdsp_dot;
use tpn_petri::dot as pn_dot;
use tpn_sched::behavior::BehaviorGraph;
use tpn_sched::steady::steady_state_net;

const L1: &str = "doall i from 1 to n {\n\
    A[i] := X[i] + 5;\n\
    B[i] := Y[i] + A[i];\n\
    C[i] := A[i] + Z[i];\n\
    D[i] := B[i] + C[i];\n\
    E[i] := W[i] + D[i];\n\
}";

const L2: &str = "do i from 1 to n {\n\
    A[i] := X[i] + 5;\n\
    B[i] := Y[i] + A[i];\n\
    C[i] := A[i] + E[i-1];\n\
    D[i] := B[i] + C[i];\n\
    E[i] := W[i] + D[i];\n\
}";

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match which.as_str() {
        "fig1" => fig1(),
        "fig2" => fig2(),
        "fig3" => fig3(),
        "fig4" => fig4(),
        "all" => {
            fig1();
            fig2();
            fig3();
            fig4();
        }
        other => {
            eprintln!("unknown figure {other:?}; use fig1|fig2|fig3|fig4|all");
            std::process::exit(2);
        }
    }
}

/// Figure 1: loop L1 from source to time-optimal schedule.
fn fig1() {
    println!("==== Figure 1: loop L1 (DOALL) ====\n");
    println!("(a) source:\n{L1}\n");
    let lp = CompiledLoop::from_source(L1).expect("L1 compiles");
    println!(
        "(b/c) static dataflow graph (Graphviz):\n{}",
        sdsp_dot::to_dot(lp.sdsp())
    );
    let pn = lp.petri_net();
    println!(
        "(d) SDSP-PN (Graphviz):\n{}",
        pn_dot::to_dot(&pn.net, &pn.marking)
    );
    let frustum = lp.frustum().expect("frustum");
    let bg = BehaviorGraph::build(&pn.net, &pn.marking, frustum.steps());
    println!("(e) behaviour graph under the earliest firing rule:");
    println!("{}", bg.render(&pn.net));
    println!(
        "    initial instantaneous state at t={}, terminal at t={} (frustum length {})\n",
        frustum.start_time,
        frustum.repeat_time,
        frustum.period()
    );
    let steady = steady_state_net(&pn.net, &frustum);
    println!(
        "(f) steady-state equivalent net: {} firing instances, {} places (Graphviz):",
        steady.net.num_transitions(),
        steady.net.num_places()
    );
    println!("{}", pn_dot::to_dot(&steady.net, &steady.marking));
    let schedule = lp.schedule().expect("schedule");
    println!(
        "(g) time-optimal schedule (II = {}, rate = {}):",
        schedule.initiation_interval(),
        schedule.rate()
    );
    println!("{}", schedule.render_kernel());
}

/// Figure 2: loop L2 with loop-carried dependence.
fn fig2() {
    println!("==== Figure 2: loop L2 (loop-carried dependence) ====\n");
    println!("(a) source:\n{L2}\n");
    let lp = CompiledLoop::from_source(L2).expect("L2 compiles");
    println!(
        "(b/c) SDSP with feedback arc (Graphviz):\n{}",
        sdsp_dot::to_dot(lp.sdsp())
    );
    let pn = lp.petri_net();
    println!(
        "(d) SDSP-PN (Graphviz):\n{}",
        pn_dot::to_dot(&pn.net, &pn.marking)
    );
    let analysis = lp.analyze().expect("analysis");
    println!(
        "critical cycle {} with cycle time {} => optimal rate {}\n",
        analysis.critical_nodes.join(" -> "),
        analysis.cycle_time,
        analysis.optimal_rate
    );
}

/// Figure 3: the SDSP-SCP-PN for L1 and its behaviour.
fn fig3() {
    let depth = 8;
    println!("==== Figure 3: SDSP-SCP-PN of L1 (l = {depth}) ====\n");
    let lp = CompiledLoop::from_source(L1).expect("L1 compiles");
    let run = lp.scp(depth).expect("scp run");
    println!(
        "(a) series expansion: {} SDSP transitions + {} dummy transitions of time {}",
        run.model.num_sdsp_transitions(),
        run.model.net.num_transitions() - run.model.num_sdsp_transitions(),
        depth - 1
    );
    println!(
        "(b) run place {} with one token, input and output of every SDSP transition\n",
        run.model.run_place
    );
    let bg = BehaviorGraph::build(&run.model.net, &run.model.marking, run.frustum.steps());
    println!("(c) behaviour graph (instruction issues only):");
    for row in bg.rows() {
        let issues: Vec<String> = row
            .fired
            .iter()
            .filter(|t| run.model.is_sdsp[t.index()])
            .map(|&t| run.model.net.transition(t).name().to_string())
            .collect();
        if !issues.is_empty() {
            println!("  t={:>4}: issue {}", row.time, issues.join(" "));
        }
    }
    let steady_sequence: Vec<String> = run
        .frustum
        .frustum_steps()
        .flat_map(|s| {
            s.started
                .iter()
                .filter(|t| run.model.is_sdsp[t.index()])
                .map(|&t| run.model.net.transition(t).name().to_string())
                .collect::<Vec<_>>()
        })
        .collect();
    println!(
        "\nsteady-state firing sequence: {}  (period {}, rate {}, usage {})",
        steady_sequence.join(" "),
        run.frustum.period(),
        run.rates.measured,
        run.rates.utilization
    );
    println!("issue schedule kernel:\n{}", run.schedule.render_kernel());
}

/// Figure 4: storage minimisation on L2.
fn fig4() {
    println!("==== Figure 4: minimum storage allocation for L2 ====\n");
    let lp = CompiledLoop::from_source(L2).expect("L2 compiles");
    let sdsp = lp.sdsp();
    let report = tpn_storage::balancing_report(sdsp, 256).expect("balancing");
    println!("balancing ratios (tokens / cycle time):");
    for cycle in &report {
        let names: Vec<String> = cycle
            .nodes
            .iter()
            .map(|&n| sdsp.node(n).name.clone())
            .collect();
        println!(
            "  cycle {:<24} M={} omega={} ratio={}{}",
            names.join("-"),
            cycle.token_sum,
            cycle.time_sum,
            cycle.ratio,
            if cycle.critical { "  <- critical" } else { "" }
        );
    }
    let (_, fig4) = tpn_storage::minimize_storage_steps(sdsp, 1).expect("fig4 step");
    println!(
        "\nFigure 4 merge: acknowledgements of A->B and B->D coalesce into D->A:\n\
         storage {} -> {} locations (saving {}), rate unchanged at {}",
        fig4.before,
        fig4.after,
        fig4.saving_fraction(),
        fig4.cycle_time.recip()
    );
    let (optimised, full) = tpn_storage::minimize_storage(sdsp).expect("fixpoint");
    println!(
        "greedy fixpoint: storage {} -> {} locations at the same rate",
        full.before, full.after
    );
    println!(
        "optimised acknowledgement structure: {} groups\n{}",
        optimised.storage_locations(),
        sdsp_dot::to_dot(&optimised)
    );
}
