//! Figures 10-12 / Table 7: authoritative-side accounting during the
//! high-loss experiments, including the offered-load multiplier.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use dike_bench::BENCH_SCALE;
use dike_experiments::ddos::{run_ddos, DdosExperiment};

fn bench_server_load(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig10_server_load");
    g.sample_size(10);
    for exp in [DdosExperiment::F, DdosExperiment::H, DdosExperiment::I] {
        g.bench_with_input(
            BenchmarkId::new("experiment", exp.letter()),
            &exp,
            |b, &exp| {
                b.iter(|| {
                    let r = run_ddos(exp, BENCH_SCALE, 42);
                    let mult = r.traffic_multiplier();
                    let amplification = r.output.server.amplification();
                    (mult, amplification.len())
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_server_load);
criterion_main!(benches);
