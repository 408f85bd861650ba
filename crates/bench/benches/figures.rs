//! Criterion wrappers that time a *reduced* regeneration of each paper
//! artefact (a couple of runs per cell, short simulated windows). The
//! full-fidelity regeneration lives in the `tpv-bench` study driver
//! (`cargo run --release -p tpv-bench --bin all_experiments`); these
//! benches make the cost of each artefact visible in `cargo bench` output
//! and catch performance regressions in the end-to-end pipeline.

use criterion::{criterion_group, criterion_main, Criterion};
use tpv_core::scenarios;
use tpv_sim::SimDuration;

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figure_regeneration");
    g.sample_size(10);
    g.bench_function("fig2_memcached_smt_reduced", |b| {
        b.iter(|| {
            scenarios::memcached_smt_study(&[10_000.0, 500_000.0], 2, SimDuration::from_ms(20), 1).run()
        })
    });
    g.bench_function("fig3_memcached_c1e_reduced", |b| {
        b.iter(|| {
            scenarios::memcached_c1e_study(&[10_000.0, 500_000.0], 2, SimDuration::from_ms(20), 2).run()
        })
    });
    g.bench_function("fig4_hdsearch_reduced", |b| {
        b.iter(|| scenarios::hdsearch_smt_study(&[500.0, 2500.0], 2, SimDuration::from_ms(100), 3).run())
    });
    g.bench_function("fig6_socialnet_reduced", |b| {
        b.iter(|| scenarios::socialnet_study(&[100.0, 600.0], 2, SimDuration::from_ms(200), 4).run())
    });
    g.bench_function("fig7_synthetic_reduced", |b| {
        b.iter(|| {
            scenarios::synthetic_study(
                SimDuration::from_us(400),
                &[5_000.0, 20_000.0],
                2,
                SimDuration::from_ms(20),
                5,
            )
            .run()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
