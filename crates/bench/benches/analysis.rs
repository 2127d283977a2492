//! Criterion benches for critical-cycle analysis: exhaustive enumeration
//! versus Howard's policy iteration in exact arithmetic (bench id
//! `parametric`), which stands in for the LP formulation the paper cites.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Short measurement windows keep the full suite to a few minutes while
/// remaining stable for these microsecond-scale benchmarks.
fn config() -> Criterion {
    Criterion::default()
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(900))
        .sample_size(20)
}
use std::hint::black_box;
use tpn_dataflow::to_petri::to_petri;
use tpn_livermore::kernels;
use tpn_livermore::synth::{generate, SynthConfig};
use tpn_petri::ratio::{analyze_cycles, critical_ratio};

fn analysis_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("critical_cycle_kernels");
    for kernel in kernels() {
        let pn = to_petri(&kernel.sdsp());
        group.bench_function(BenchmarkId::new("parametric", kernel.name), |b| {
            b.iter(|| {
                black_box(
                    critical_ratio(&pn.net, &pn.marking)
                        .expect("live")
                        .cycle_time,
                )
            })
        });
        group.bench_function(BenchmarkId::new("enumeration", kernel.name), |b| {
            b.iter(|| {
                black_box(
                    analyze_cycles(&pn.net, &pn.marking, 1 << 20)
                        .expect("enumerable")
                        .cycle_time,
                )
            })
        });
    }
    group.finish();
}

fn analysis_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("critical_cycle_scaling");
    for n in [32usize, 128, 512] {
        let sdsp = generate(&SynthConfig {
            nodes: n,
            forward_density: 0.6,
            recurrences: 2,
            distance: 1,
            seed: 11,
        });
        let pn = to_petri(&sdsp);
        group.bench_function(BenchmarkId::new("parametric", n), |b| {
            b.iter(|| {
                black_box(
                    critical_ratio(&pn.net, &pn.marking)
                        .expect("live")
                        .cycle_time,
                )
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = analysis_kernels, analysis_scaling
}
criterion_main!(benches);
