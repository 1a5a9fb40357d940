//! Figures 8 & 9 / Table 4's partial-failure rows: Experiments D-I.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use dike_bench::BENCH_SCALE;
use dike_experiments::ddos::{run_ddos, DdosExperiment};

fn bench_partial(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8_partial");
    g.sample_size(10);
    for exp in [
        DdosExperiment::D,
        DdosExperiment::E,
        DdosExperiment::F,
        DdosExperiment::G,
        DdosExperiment::H,
        DdosExperiment::I,
    ] {
        g.bench_with_input(
            BenchmarkId::new("experiment", exp.letter()),
            &exp,
            |b, &exp| b.iter(|| run_ddos(exp, BENCH_SCALE, 42).ok_fraction_during_attack()),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_partial);
criterion_main!(benches);
