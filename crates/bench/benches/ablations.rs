//! Criterion benches for the ablation experiments: A1 (linear pipelines),
//! A2 (virtual stages), A3 (overlap), A4 (buffer sizes), plus T4's
//! adversarial input.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use fg_bench::overlap::run_overlap;
use fg_pdm::DiskCfg;
use fg_sort::config::SortConfig;
use fg_sort::dsort::{run_dsort, run_dsort_with, DsortOptions};
use fg_sort::dsort_linear::run_dsort_linear;
use fg_sort::input::provision;
use fg_sort::keygen::KeyDist;

fn cfg_small(dist: KeyDist) -> SortConfig {
    let mut cfg = SortConfig::experiment_default(4, (64 << 10) / 16);
    cfg.dist = dist;
    cfg.disk = DiskCfg::new(Duration::from_micros(50), 24.0 * 1024.0 * 1024.0);
    cfg.net = fg_cluster::NetCfg::new(Duration::from_micros(10), 100.0 * 1024.0 * 1024.0);
    cfg
}

fn bench_linear_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("a1_linear");
    group.sample_size(10);
    for dist in [KeyDist::Uniform, KeyDist::Shifted { shift: 1 }] {
        let cfg = cfg_small(dist);
        group.bench_function(format!("dsort/{}", dist.label()), |b| {
            b.iter(|| run_dsort(&cfg, &provision(&cfg)).expect("dsort"))
        });
        group.bench_function(format!("dsort-linear/{}", dist.label()), |b| {
            b.iter(|| run_dsort_linear(&cfg, &provision(&cfg)).expect("linear"))
        });
    }
    group.finish();
}

fn bench_virtual_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("a2_virtual");
    group.sample_size(10);
    let mut cfg = cfg_small(KeyDist::Uniform);
    // Little merge memory -> runs at the floor of one block -> many verticals.
    cfg.run_bytes = cfg.block_bytes;
    cfg.vertical_buf_bytes = 1 << 10;
    for (name, virtual_reads) in [("virtual", true), ("plain", false)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                run_dsort_with(
                    &cfg,
                    &provision(&cfg),
                    DsortOptions {
                        virtual_reads,
                        ..DsortOptions::default()
                    },
                )
                .expect("dsort")
            })
        });
    }
    group.finish();
}

fn bench_overlap(c: &mut Criterion) {
    let mut group = c.benchmark_group("a3_overlap");
    group.sample_size(10);
    let disk = DiskCfg::new(Duration::from_micros(100), 200.0 * 1024.0 * 1024.0);
    group.bench_function("pipelined_vs_serial", |b| {
        b.iter(|| run_overlap(32, 32 << 10, disk, 8).expect("overlap"))
    });
    group.finish();
}

fn bench_buffer_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("a4_buffers");
    group.sample_size(10);
    for kib in [4usize, 16, 64] {
        let mut cfg = cfg_small(KeyDist::Uniform);
        cfg.block_bytes = kib << 10;
        cfg.run_bytes = cfg.run_bytes.max(4 * cfg.block_bytes);
        group.bench_function(format!("dsort/{kib}KiB"), |b| {
            b.iter(|| run_dsort(&cfg, &provision(&cfg)).expect("dsort"))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_linear_ablation,
    bench_virtual_ablation,
    bench_overlap,
    bench_buffer_sweep
);
criterion_main!(benches);
