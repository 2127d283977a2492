//! Criterion benches for cyclic-frustum detection: the compile-time cost a
//! compiler pays per loop (Tables 1 and 2 of the paper).

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
use tpn_livermore::synth::{chain, recurrence_ring};
use tpn_sched::frustum::{detect_frustum, detect_frustum_eager};
use tpn_sched::policy::FifoPolicy;
use tpn_sched::scp::build_scp;

fn frustum_sdsp(c: &mut Criterion) {
    let mut group = c.benchmark_group("frustum_sdsp");
    for kernel in kernels() {
        let pn = to_petri(&kernel.sdsp());
        group.bench_function(BenchmarkId::from_parameter(kernel.name), |b| {
            b.iter(|| {
                let f =
                    detect_frustum_eager(&pn.net, pn.marking.clone(), 1_000_000).expect("frustum");
                black_box(f.repeat_time)
            })
        });
    }
    group.finish();
}

fn frustum_scp(c: &mut Criterion) {
    let mut group = c.benchmark_group("frustum_scp_depth8");
    for kernel in kernels() {
        let pn = to_petri(&kernel.sdsp());
        let scp = build_scp(&pn, 8);
        group.bench_function(BenchmarkId::from_parameter(kernel.name), |b| {
            b.iter(|| {
                let f = detect_frustum(
                    &scp.net,
                    scp.marking.clone(),
                    FifoPolicy::new(&scp),
                    1_000_000,
                )
                .expect("frustum");
                black_box(f.repeat_time)
            })
        });
    }
    group.finish();
}

fn frustum_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("frustum_scaling");
    for n in [16usize, 64, 256, 512] {
        let pn = to_petri(&chain(n));
        group.bench_function(BenchmarkId::new("chain", n), |b| {
            b.iter(|| {
                black_box(
                    detect_frustum_eager(&pn.net, pn.marking.clone(), 1_000_000)
                        .expect("frustum")
                        .repeat_time,
                )
            })
        });
        let pn = to_petri(&recurrence_ring(n));
        group.bench_function(BenchmarkId::new("recurrence_ring", n), |b| {
            b.iter(|| {
                black_box(
                    detect_frustum_eager(&pn.net, pn.marking.clone(), 1_000_000)
                        .expect("frustum")
                        .repeat_time,
                )
            })
        });
    }
    group.finish();
}

/// Detection on the largest scaling nets. The naive reference detector
/// this group once raced lives in `tpn-conform` as a test oracle now;
/// `BENCH_1.json` keeps the historical comparison.
fn frustum_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("frustum_engine");
    for n in [512usize] {
        for (shape, sdsp) in [("chain", chain(n)), ("recurrence_ring", recurrence_ring(n))] {
            let pn = to_petri(&sdsp);
            group.bench_function(BenchmarkId::new(format!("digest_{shape}"), n), |b| {
                b.iter(|| {
                    black_box(
                        detect_frustum_eager(&pn.net, pn.marking.clone(), 1_000_000)
                            .expect("frustum")
                            .repeat_time,
                    )
                })
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = frustum_sdsp, frustum_scp, frustum_scaling, frustum_engine
}
criterion_main!(benches);
