//! Microbenchmarks of the FG runtime itself: per-buffer pipeline overhead,
//! queue throughput under contention, merge-tree cost, and record sorting —
//! the framework costs underneath every experiment.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use fg_core::{
    map_stage, run_linear, MetricsRegistry, PipelineCfg, Program, Rounds, Sampler, SamplerCfg,
    TelemetryServer, TraceSink,
};
use fg_sort::merge::LoserTree;
use fg_sort::record::RecordFormat;

fn bench_pipeline_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("core_pipeline");
    group.sample_size(10);
    // 1000 rounds through a 3-stage no-op pipeline: measures pure
    // accept/convey/recycle overhead per buffer.
    group.bench_function("noop_3stage_1000rounds", |b| {
        b.iter(|| {
            run_linear(
                "bench",
                PipelineCfg::new("p", 4, 4096).rounds(Rounds::Count(1000)),
                vec![
                    ("a", map_stage(|_, _| Ok(()))),
                    ("b", map_stage(|_, _| Ok(()))),
                    ("c", map_stage(|_, _| Ok(()))),
                ],
            )
            .expect("pipeline")
        })
    });
    group.finish();
}

/// The flight recorder's acceptance gate: the same no-op pipeline with no
/// [`TraceSink`](fg_core::TraceSink) installed vs every transition writing
/// a span record into the per-thread ring.  The no-sink case must stay
/// within noise of the plain hot path (<3% on queue throughput) — the hook
/// is a never-taken `Option` branch.  The live-telemetry cases ride in the
/// same group against the same baseline: queue-depth gauges and stage
/// counters publishing into a registry, then a background sampler plus an
/// idle HTTP endpoint on top (bar: <2% over `no_sink`).
fn bench_trace_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("core_trace");
    group.sample_size(10);
    let build = || {
        let mut prog = Program::new("bench");
        let a = prog.add_stage("a", map_stage(|_, _| Ok(())));
        let b = prog.add_stage("b", map_stage(|_, _| Ok(())));
        let c = prog.add_stage("c", map_stage(|_, _| Ok(())));
        prog.add_pipeline(
            PipelineCfg::new("p", 4, 4096).rounds(Rounds::Count(1000)),
            &[a, b, c],
        )
        .unwrap();
        prog
    };
    group.bench_function("no_sink_1000rounds", |b| {
        b.iter(|| build().run().expect("pipeline"))
    });
    group.bench_function("flight_recorder_1000rounds", |b| {
        b.iter(|| {
            let mut prog = build();
            prog.set_trace_sink(TraceSink::new());
            prog.run().expect("pipeline")
        })
    });
    group.bench_function("metrics_registry_1000rounds", |b| {
        b.iter(|| {
            let mut prog = build();
            prog.set_metrics(Arc::new(MetricsRegistry::new()));
            prog.run().expect("pipeline")
        })
    });
    group.bench_function("telemetry_sampled_1000rounds", |b| {
        let registry = Arc::new(MetricsRegistry::new());
        let _server =
            TelemetryServer::bind("127.0.0.1:0", Arc::clone(&registry)).expect("bind telemetry");
        let _sampler = Sampler::start(Arc::clone(&registry), SamplerCfg::default());
        b.iter(|| {
            let mut prog = build();
            prog.set_metrics(Arc::clone(&registry));
            prog.run().expect("pipeline")
        })
    });
    group.finish();
}

fn bench_loser_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("core_merge");
    for k in [4usize, 64, 256] {
        group.bench_function(format!("loser_tree_k{k}_pop100k"), |b| {
            b.iter(|| {
                let mut lanes: Vec<u64> = (0..k as u64).collect();
                let mut tree = LoserTree::new(lanes.iter().map(|&v| Some(v)));
                let mut out = 0u64;
                for _ in 0..100_000 {
                    let (lane, key) = tree.winner().expect("non-empty");
                    out = out.wrapping_add(key);
                    lanes[lane] += k as u64;
                    tree.replace(lane, Some(lanes[lane]));
                }
                out
            })
        });
    }
    group.finish();
}

fn bench_sort_bytes(c: &mut Criterion) {
    let mut group = c.benchmark_group("core_sort");
    let fmt = RecordFormat::REC16;
    let n = 16384;
    let mut data = vec![0u8; n * 16];
    for i in 0..n {
        fmt.set_key(
            &mut data[i * 16..(i + 1) * 16],
            (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
    }
    group.bench_function("sort_16k_records", |b| {
        let mut aux = Vec::new();
        b.iter(|| {
            let mut copy = data.clone();
            fmt.sort_bytes(&mut copy, &mut aux);
            copy[0]
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_pipeline_overhead,
    bench_trace_overhead,
    bench_loser_tree,
    bench_sort_bytes
);
criterion_main!(benches);
