//! The resource-constrained model (§5.2): executing L1 on machines with a
//! single clean pipeline of varying depth, and reading the issue schedule
//! off the cyclic frustum of the SDSP-SCP-PN.
//!
//! Run: `cargo run --example scp_machine`

use tpn::CompiledLoop;

const L1: &str = "doall i from 1 to n {\n\
    A[i] := X[i] + 5;\n\
    B[i] := Y[i] + A[i];\n\
    C[i] := A[i] + Z[i];\n\
    D[i] := B[i] + C[i];\n\
    E[i] := W[i] + D[i];\n\
}";

fn main() -> Result<(), tpn::Error> {
    let lp = CompiledLoop::from_source(L1)?;
    let n = lp.size();
    println!("loop L1 (n = {n}) on single-clean-pipeline machines:\n");
    println!(
        "{:>5}  {:>8}  {:>8}  {:>8}  {:>10}  {:>8}",
        "depth", "period", "rate", "1/n", "usage", "repeat@"
    );
    for depth in [1u64, 2, 4, 8, 16] {
        let run = lp.scp(depth)?;
        println!(
            "{:>5}  {:>8}  {:>8}  {:>8}  {:>10}  {:>8}",
            depth,
            run.frustum.period(),
            run.rates.measured.to_string(),
            run.rates.resource_bound.to_string(),
            run.rates.utilization.to_string(),
            run.frustum.repeat_time
        );
        assert!(run.rates.respects_resource_bound());
    }

    let run = lp.scp(8)?;
    println!("\nissue kernel at depth 8 (one instruction per cycle at most):");
    print!("{}", run.schedule.render_kernel());

    let sequence: Vec<String> = run
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
    println!("\nsteady-state firing sequence: {}", sequence.join(" "));
    Ok(())
}
