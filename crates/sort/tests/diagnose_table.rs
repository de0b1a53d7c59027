//! The diagnoser's table: one real program a row, each seeded with one
//! cause, and the exact set of verdicts the row expects.  A verdict earns
//! its place by firing on its own row and on no other; the limiting-stage
//! line, which every run that does work gets, is not counted.  The test
//! prints every row's outcome and the table's precision and recall, and
//! holds both at 1.
//!
//! Rows whose verdict was deleted (EXPERIMENTS.md D15) keep their program
//! and expect nothing: they still catch a verdict that fires where it
//! should not.  This binary installs the tracking allocator, as `fgsort`
//! does, so every row runs with per-stage allocation counters live.  Rows
//! 1–5 need only fg-core and live beside its own tests, which run them one
//! test a row.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fg_cluster::{Cluster, ClusterCfg, ClusterObs, NetCfg};
use fg_core::cluster_report::{ClusterReport, RankReport};
use fg_core::{
    diagnose, diagnose_cluster, map_stage, Diagnosis, FgError, MemoryLedger, MetricsRegistry,
    PipelineCfg, ProfilerCfg, Program, ResourceProfiler, ResourceReport, Rounds, Stage, StageCtx,
};
use fg_pdm::{DiskCfg, SimDisk};
use fg_sort::csort::run_csort;
use fg_sort::dsort::{run_dsort_with, DsortOptions};
use fg_sort::input::{generate_node_input, provision, INPUT_FILE};
use fg_sort::{DiskBackend, KeyDist, SortConfig};

#[path = "../../core/tests/seeded_rows/mod.rs"]
mod seeded_rows;
use seeded_rows::{labels, single, Labels, Outcome, Row, CORE_ROWS};

#[global_allocator]
static FG_ALLOC: fg_core::FgAlloc = fg_core::FgAlloc;

/// Burn `d` of CPU on the calling thread.
fn spin(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Row 6: a stage that allocates a fresh `Vec` every round.
fn allocates_every_round() -> Outcome {
    let registry = Arc::new(MetricsRegistry::new());
    let mut prog = Program::new("churn");
    prog.set_metrics(Arc::clone(&registry));
    let churn = prog.add_stage(
        "churn",
        map_stage(|buf, _| {
            let scratch = std::hint::black_box(vec![buf.round() as u8; 4096]);
            buf.meta = scratch.iter().map(|&b| b as u64).sum();
            Ok(())
        }),
    );
    prog.add_pipeline(PipelineCfg::new("p", 4, 64).count(20_000), &[churn])
        .unwrap();
    let profiler = ResourceProfiler::start(Arc::clone(&registry));
    let mut report = prog.run().unwrap();
    report.resources = Some(profiler.stop());
    let churned = report.resources.as_ref().unwrap().alloc.iter();
    assert!(
        churned
            .filter(|a| a.stage == "churn")
            .any(|a| a.allocs >= 20_000),
        "{:?}",
        report.resources
    );
    single(diagnose(&report))
}

/// Row 7: CPU-bound stages, four for every core, spinning 200 µs a round.
fn four_stages_a_core() -> Outcome {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let registry = Arc::new(MetricsRegistry::new());
    let mut prog = Program::new("oversubscribed");
    prog.set_metrics(Arc::clone(&registry));
    let chain: Vec<_> = (0..4 * cores)
        .map(|i| {
            let work = map_stage(|_, _| {
                spin(Duration::from_micros(200));
                Ok(())
            });
            prog.add_stage(format!("s{i}"), work)
        })
        .collect();
    prog.add_pipeline(PipelineCfg::new("p", 4 * cores, 64).count(200), &chain)
        .unwrap();
    single(diagnose(&prog.run().unwrap()))
}

/// Row 8: eight workers of a farm sharing one lock-free input queue over
/// 200 000 rounds.
fn eight_worker_farm() -> Outcome {
    let registry = Arc::new(MetricsRegistry::new());
    let mut prog = Program::new("contended");
    prog.set_metrics(Arc::clone(&registry));
    let farm = prog.workers("farm", 8, |_| map_stage(|_, _| Ok(())));
    prog.add_pipeline(PipelineCfg::new("p", 16, 64).count(200_000), &[farm])
        .unwrap();
    single(diagnose(&prog.run().unwrap()))
}

/// `fgsort --free`'s configuration for `program` at `kib` a node.
fn fgsort_cfg(nodes: usize, kib: usize) -> SortConfig {
    let mut cfg = SortConfig::test_default(nodes, (kib << 10) / 16);
    cfg.seed = 0xCAFE;
    cfg.block_bytes = 16 << 10;
    cfg.run_bytes = 64 << 10;
    cfg.vertical_buf_bytes = 8 << 10;
    cfg
}

/// dsort under `cfg` with every rank observed, `disks` as provisioned (or
/// changed) by the row; the cluster diagnosis of the run.
fn observed_dsort(cfg: &SortConfig, disks: &[fg_pdm::DiskRef]) -> Outcome {
    let observe = DsortOptions {
        observe: true,
        ..DsortOptions::default()
    };
    let report = run_dsort_with(cfg, disks, observe).unwrap();
    let cluster = report.cluster.expect("an observed run's cluster report");
    let d = diagnose_cluster(&cluster);
    (
        labels(&d.recommendations),
        format!("{}{}", cluster.render(), d.render()),
    )
}

/// Row 9: dsort on skewed keys — nine records in ten share one key.  The
/// extended-key splitters still balance the partition, so no rank is hot.
fn dsort_hot_key() -> Outcome {
    let cfg = SortConfig {
        dist: KeyDist::HotKey { hot_percent: 90 },
        ..fgsort_cfg(4, 1024)
    };
    observed_dsort(&cfg, &provision(&cfg))
}

/// Row 9b: the paper's unbalanced scatter (Figure 4): every rank sends 70%
/// of its blocks to rank 0, the rest round-robin, through a send pipeline
/// and a receive pipeline of its own.
fn skewed_scatter() -> Outcome {
    const BLOCK: usize = 4096;
    const BLOCKS: u64 = 64;
    let nodes = 4;
    let run = Cluster::run_observed(
        ClusterCfg::zero_cost(nodes),
        ClusterObs::per_node(nodes),
        move |node| {
            let start = Instant::now();
            let (rank, comm) = (node.rank(), node.comm().clone());
            let mut prog = Program::new(format!("scatter{rank}"));
            prog.set_metrics(Arc::clone(node.registry().unwrap()));
            let tx = comm.clone();
            let send = prog.add_stage(
                "send",
                Box::new(move |ctx: &mut StageCtx| {
                    while let Some(buf) = ctx.accept()? {
                        let round = buf.round() as usize;
                        let dest = if round % 10 < 7 {
                            0
                        } else {
                            (rank + 1 + round) % nodes
                        };
                        tx.send(dest, 1, vec![1; BLOCK]).map_err(fg)?;
                        ctx.convey(buf)?;
                    }
                    (0..nodes).try_for_each(|dst| tx.send(dst, 1, vec![0]).map_err(fg))
                }) as Box<dyn Stage>,
            );
            let received = Arc::new(AtomicU64::new(0));
            let got = Arc::clone(&received);
            let receive = prog.add_stage(
                "receive",
                Box::new(move |ctx: &mut StageCtx| {
                    let pid = ctx.pipelines().next().unwrap();
                    let mut done = 0;
                    while done < nodes {
                        let Some(buf) = ctx.accept()? else {
                            return Ok(());
                        };
                        match comm.recv(None, 1).map_err(fg)?.payload.len() {
                            1 => done += 1,
                            _ => _ = got.fetch_add(1, Ordering::Relaxed),
                        }
                        ctx.discard(buf)?;
                    }
                    ctx.stop(pid)
                }) as Box<dyn Stage>,
            );
            let pipe = |name, rounds| PipelineCfg::new(name, 4, BLOCK).rounds(rounds);
            let err = |e: FgError| fg_cluster::ClusterError::Node {
                rank,
                message: e.to_string(),
            };
            prog.add_pipeline(pipe("send", Rounds::Count(BLOCKS)), &[send])
                .map_err(err)?;
            prog.add_pipeline(pipe("recv", Rounds::UntilStopped), &[receive])
                .map_err(err)?;
            let report = prog.run().map_err(err)?;
            Ok((report, start.elapsed(), received.load(Ordering::Relaxed)))
        },
    )
    .unwrap();
    let mut cluster = ClusterReport::new(nodes);
    let mut blocks = Vec::new();
    for (rank, (report, wall, got)) in run.results.into_iter().enumerate() {
        blocks.push(got);
        let metrics = run.node_metrics[rank].clone();
        let reports = vec![report];
        cluster.push(RankReport {
            rank,
            wall,
            reports,
            metrics,
        });
    }
    assert_eq!(
        blocks.iter().sum::<u64>(),
        nodes as u64 * BLOCKS,
        "{blocks:?}"
    );
    let d = diagnose_cluster(&cluster);
    assert_eq!(d.hot_rank, Some(0), "{}", d.render());
    (
        labels(&d.recommendations),
        format!("{}{}", cluster.render(), d.render()),
    )
}

fn fg(e: fg_cluster::CommError) -> FgError {
    FgError::Stage {
        stage: "comm".into(),
        message: e.to_string(),
    }
}

/// Row 10: dsort with rank 3's disk charging 300 µs an operation.
fn dsort_slow_disk() -> Outcome {
    let cfg = fgsort_cfg(4, 1024);
    let mut disks = provision(&cfg);
    let slow = SimDisk::new(DiskCfg::new(Duration::from_micros(300), f64::INFINITY));
    slow.load(INPUT_FILE, generate_node_input(&cfg, 3));
    disks[3] = slow;
    observed_dsort(&cfg, &disks)
}

/// Row 11: dsort over a 20 MiB/s network with 200 µs a message.
fn dsort_slow_net() -> Outcome {
    let cfg = SortConfig {
        net: NetCfg::new(Duration::from_micros(200), 20.0 * (1 << 20) as f64),
        ..fgsort_cfg(4, 1024)
    };
    observed_dsort(&cfg, &provision(&cfg))
}

/// Row 12: CI's `resource-smoke` shape — `fgsort --program csort --nodes 4
/// --kib-per-node 2048 --free --backend os --profile … --mem-budget 256
/// --telemetry …` — diagnosed pass by pass as `fgsort` does it — and CI's
/// `cluster-trace-smoke` dsort (`--nodes 4 --kib-per-node 64 --free
/// --cluster …`).
fn ci_smoke_shapes() -> Outcome {
    let dir = std::env::temp_dir().join(format!("fg-diagnose-table-{}", std::process::id()));
    let registry = Arc::new(MetricsRegistry::new());
    let mut cfg = fgsort_cfg(4, 2048);
    cfg.backend = DiskBackend::Os { dir: dir.clone() };
    cfg.metrics = Some(Arc::clone(&registry));
    cfg.ledger = Some(Arc::new(MemoryLedger::with_budget(256 << 20)));
    let profiler = ResourceProfiler::start_with(
        Arc::clone(&registry),
        ProfilerCfg::default(),
        cfg.ledger.clone(),
    );
    let disks = fg_sort::input::provision_with_metrics(&cfg, &registry);
    let mut reports = run_csort(&cfg, &disks).unwrap().node0_reports;
    drop(disks);
    std::fs::remove_dir_all(&dir).unwrap();
    profiler.stop();
    let resources = ResourceReport::from_metrics(&registry.snapshot());
    reports.last_mut().unwrap().resources = resources;
    let passes: Vec<Diagnosis> = reports.iter().map(diagnose).collect();
    let mut raised = labels(passes.iter().flat_map(|d| &d.recommendations));
    let mut text: String = passes.iter().map(Diagnosis::render).collect();

    let cfg = fgsort_cfg(4, 64);
    let (dsort, dsort_text) = observed_dsort(&cfg, &provision(&cfg));
    raised.extend(dsort);
    text.push_str(&dsort_text);
    (raised, text)
}

/// Rows 6 on; [`CORE_ROWS`] are rows 1–5.
const ROWS: &[Row] = &[
    ("6 allocates every round", &[], allocates_every_round),
    ("7 four stages a core", &[], four_stages_a_core),
    ("8 eight-worker farm", &[], eight_worker_farm),
    ("9 dsort, hot key", &[], dsort_hot_key),
    ("9b skewed scatter", &["hot-rank"], skewed_scatter),
    ("10 dsort, slow disk", &[], dsort_slow_disk),
    ("11 dsort, slow net", &[], dsort_slow_net),
    ("12 CI smoke shapes", &[], ci_smoke_shapes),
];

#[test]
fn every_verdict_fires_on_its_seeded_row_and_no_other() {
    let (mut hits, mut false_alarms, mut misses) = (0, 0, 0);
    let mut failed = Vec::new();
    for &(name, expects, run) in CORE_ROWS.iter().chain(ROWS) {
        let expects: Labels = expects.iter().copied().collect();
        let (raised, text) = run();
        hits += raised.intersection(&expects).count();
        false_alarms += raised.difference(&expects).count();
        misses += expects.difference(&raised).count();
        println!("{name:<26} expects {expects:?}, raised {raised:?}");
        if raised != expects {
            failed.push(format!(
                "row {name}: expected {expects:?}, raised {raised:?}\n{text}"
            ));
        }
    }
    let ratio = |a: usize, b: usize| {
        if a + b == 0 {
            1.0
        } else {
            a as f64 / (a + b) as f64
        }
    };
    let (precision, recall) = (ratio(hits, false_alarms), ratio(hits, misses));
    println!("precision {precision:.2}, recall {recall:.2} ({hits} hits)");
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}
