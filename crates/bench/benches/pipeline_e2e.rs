//! End-to-end benchmarks: one pipeline round trip, and one small simulated
//! experiment of each figure family.  These are the "does the whole system stay fast"
//! guards; the figure binaries in `src/bin/` are the full sweeps.  The
//! deployments are driven through the unified `ResourceManager` surface.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use actyp_bench::{baseline_comparison, fig4_pools_lan, fig7_splitting, fig8_replication, Scale};
use actyp_grid::{FleetSpec, SyntheticFleet};
use actyp_pipeline::{BackendKind, PipelineBuilder};
use actyp_query::Query;

fn bench_live_round_trip(c: &mut Criterion) {
    let db = SyntheticFleet::new(FleetSpec::with_machines(800), 6)
        .generate()
        .into_shared();
    let pipeline = PipelineBuilder::new()
        .database(db)
        .pool_managers(2)
        .build(BackendKind::Live)
        .unwrap();
    let query = Query::paper_example();
    let warm = pipeline.submit_wait(&query).unwrap();
    for a in &warm {
        pipeline.release(a).unwrap();
    }
    c.bench_function("e2e/live_submit_release_800", |b| {
        b.iter(|| {
            let allocations = pipeline.submit_wait(black_box(&query)).unwrap();
            for a in &allocations {
                pipeline.release(a).unwrap();
            }
        })
    });
    pipeline.shutdown().unwrap();
}

fn bench_figure_sweeps_quick(c: &mut Criterion) {
    let scale = Scale {
        machines: 400,
        requests_per_client: 4,
        client_counts: vec![8],
        pool_counts: vec![2, 8],
        figure9_runs: 5_000,
        seed: 9,
    };
    c.bench_function("figures/fig4_quick_sweep", |b| {
        b.iter(|| fig4_pools_lan(black_box(&scale)))
    });
    c.bench_function("figures/fig7_quick_sweep", |b| {
        b.iter(|| fig7_splitting(black_box(&scale)))
    });
    c.bench_function("figures/fig8_quick_sweep", |b| {
        b.iter(|| fig8_replication(black_box(&scale)))
    });
    c.bench_function("figures/baseline_comparison_quick", |b| {
        b.iter(|| baseline_comparison(black_box(&scale)))
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = e2e;
    config = config();
    targets = bench_live_round_trip, bench_figure_sweeps_quick
}
criterion_main!(e2e);
