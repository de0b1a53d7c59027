//! Unit costs: what one operation of each layer costs in isolation,
//! measured from outside by timing calls into public functions.
//!
//! Every loop takes [`SAMPLES`] samples of at least [`SAMPLE_SECONDS`] of
//! timed work each and reports the median time per operation.  Loops whose
//! work runs on several threads also report CPU time per operation, which
//! is what the layer budget multiplies by the traced run's counts; for a
//! single-threaded loop the two are the same number.

use std::fs::OpenOptions;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use fg_cluster::{Cluster, ClusterCfg};
use fg_core::qbench::BenchQueue;
use fg_core::MetricsRegistry;
use fg_pdm::{Disk, DiskCfg, DiskRef, IoScheduler, OsDisk, SimDisk};
use fg_sort::config::{Matrix, SortConfig};
use fg_sort::input::generate_node_input;
use fg_sort::kernels::{sort_records_using, Kernel, SortScratch};
use fg_sort::merge::merge_runs;

use crate::harness::allocated_bytes;
use crate::host::cpu_seconds;
use crate::stats::median;
use crate::workloads::{hop_pipeline, sort_config, splitmix, PipelineOpts, NODES};

pub const SAMPLES: usize = 5;
pub const SAMPLE_SECONDS: f64 = 0.1;

/// Time per operation of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unit {
    /// Median over the samples of wall time per operation.
    pub wall: f64,
    /// Process CPU time per operation over all samples.
    pub cpu: f64,
}

/// Sample `batch`, which performs some operations and returns how many and
/// how long the timed part of them took.
fn sample(threads: bool, mut batch: impl FnMut() -> (u64, Duration)) -> Unit {
    let cpu0 = cpu_seconds();
    let (mut all_ops, mut per_op) = (0u64, Vec::new());
    for _ in 0..SAMPLES {
        let (mut ops, mut timed) = (0u64, 0.0);
        while timed < SAMPLE_SECONDS {
            let (n, d) = batch();
            ops += n;
            timed += d.as_secs_f64();
        }
        all_ops += ops;
        per_op.push(timed / ops as f64);
    }
    let wall = median(&per_op);
    Unit {
        wall,
        // Untimed preparation between batches (refilling a buffer to sort)
        // would count as CPU; a single-threaded loop has none to add.
        cpu: if threads {
            (cpu_seconds() - cpu0) / all_ops as f64
        } else {
            wall
        },
    }
}

fn timed(f: impl FnOnce()) -> Duration {
    let t0 = Instant::now();
    f();
    t0.elapsed()
}

/// Every unit cost by metric name, in the metric's own unit, plus the CPU
/// seconds per operation the budget needs.
pub struct Units {
    rows: Vec<(&'static str, f64, f64)>,
}

impl Units {
    fn push(&mut self, name: &'static str, scale: f64, unit: Unit) {
        self.rows.push((name, unit.wall * scale, unit.cpu));
    }

    fn push_ratio(&mut self, name: &'static str, value: f64) {
        self.rows.push((name, value, 0.0));
    }

    /// `(metric name, value in the metric's unit)`.
    pub fn metrics(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.rows.iter().map(|&(name, value, _)| (name, value))
    }

    /// CPU seconds per operation of the named unit cost.
    pub fn cpu(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|(n, ..)| *n == name)
            .map_or(0.0, |&(_, _, cpu)| cpu)
    }
}

const NS: f64 = 1e9;
const US: f64 = 1e6;

pub fn measure_all(scratch: &Path) -> Result<Units, String> {
    let mut u = Units { rows: Vec::new() };
    queue_units(&mut u);
    stage_units(&mut u);
    kernel_and_merge_units(&mut u, scratch);
    disk_units(&mut u, scratch)?;
    fabric_units(&mut u);
    Ok(u)
}

/// Buffers circulating in the queue loops, and both queues' capacity: a
/// typical pipeline's pool.
const QUEUE_POOL: usize = 8;

/// `pairs` forwarding threads and `pairs` returning threads pass a pool of
/// buffers round two queues `trips` times; every trip is two hops and no
/// hop allocates.
fn queue_ring(make: fn(usize) -> BenchQueue, pairs: usize, trips: usize) -> (u64, Duration) {
    let (forward, back) = (make(QUEUE_POOL), make(QUEUE_POOL));
    for _ in 0..QUEUE_POOL {
        back.push(BenchQueue::buffer(64));
    }
    let d = timed(|| {
        thread::scope(|s| {
            let senders: Vec<_> = (0..pairs)
                .map(|_| {
                    s.spawn(|| {
                        for _ in 0..trips / pairs {
                            let buf = back.pop().expect("the return queue stays open");
                            forward.push(buf);
                        }
                    })
                })
                .collect();
            for _ in 0..pairs {
                s.spawn(|| {
                    while let Some(buf) = forward.pop() {
                        back.push(buf);
                    }
                });
            }
            for sender in senders {
                sender.join().expect("sender thread");
            }
            forward.close();
        })
    });
    ((trips / pairs * pairs * 2) as u64, d)
}

fn queue_units(u: &mut Units) {
    type MakeQueue = fn(usize) -> BenchQueue;
    let cells: [(&'static str, MakeQueue, usize); 5] = [
        ("queue.spsc_hop_ns", BenchQueue::spsc, 1),
        ("queue.lockfree_hop_ns", BenchQueue::mpmc_lock_free, 1),
        ("queue.mutex_hop_ns", BenchQueue::mpmc, 1),
        ("queue.lockfree_c2_hop_ns", BenchQueue::mpmc_lock_free, 2),
        ("queue.mutex_c2_hop_ns", BenchQueue::mpmc, 2),
    ];
    for (name, make, pairs) in cells {
        u.push(name, NS, sample(true, || queue_ring(make, pairs, 50_000)));
    }
}

/// The `stage.*` loops run `pipe-hop`'s pipeline with small buffers, so
/// that the pool's allocation is no part of a round's cost.
fn stage_units(u: &mut Units) {
    const ROUNDS: u64 = 10_000;
    let mut state = 1u64;
    let input: Arc<Vec<u64>> = Arc::new((0..4096).map(|_| splitmix(&mut state)).collect());
    let run = |opts: PipelineOpts| {
        let checksum = Arc::new(AtomicU64::new(0));
        let prog = hop_pipeline(ROUNDS, 32, 4096, &input, &checksum, opts);
        let d = timed(|| {
            prog.run().expect("a pass-through pipeline runs");
        });
        (ROUNDS, d)
    };
    type MakeOpts = fn() -> PipelineOpts;
    let cells: [(&'static str, MakeOpts); 4] = [
        ("stage.round_ns", PipelineOpts::default),
        ("stage.round_metrics_ns", || PipelineOpts {
            metrics: Some(Arc::new(MetricsRegistry::new())),
            ..PipelineOpts::default()
        }),
        ("stage.round_trace_ns", || PipelineOpts {
            tracing: true,
            ..PipelineOpts::default()
        }),
        ("stage.farm_round_ns", || PipelineOpts {
            farm: true,
            ..PipelineOpts::default()
        }),
    ];
    for (name, opts) in cells {
        u.push(name, NS, sample(true, || run(opts())));
    }
    // `Program::run` to the first buffer at the last stage: what every pass
    // of every sort pays once before its pipeline moves data.
    let spawn = sample(true, || {
        let first = Arc::new(Mutex::new(None));
        let seen = Arc::clone(&first);
        let mut prog = fg_core::Program::new("spawn");
        let stages: Vec<_> = (0..4)
            .map(|i| {
                let seen = Arc::clone(&seen);
                prog.add_stage(
                    format!("s{i}"),
                    fg_core::map_stage(move |_buf, _ctx| {
                        if i == 3 {
                            *seen.lock().expect("stage holds no lock across a panic") =
                                Some(Instant::now());
                        }
                        Ok(())
                    }),
                )
            })
            .collect();
        prog.add_pipeline(fg_core::PipelineCfg::new("p", 4, 4096).count(1), &stages)
            .expect("a non-empty chain of distinct stages");
        let t0 = Instant::now();
        prog.run().expect("a one-round pipeline runs");
        let at = first
            .lock()
            .expect("stages have ended")
            .expect("one buffer arrived");
        (1, at - t0)
    });
    u.push("stage.spawn_us", US, spawn);
}

/// Sort kernels at the workloads' own sizes and key distributions: REC16
/// uniform in `csort-os`'s columns, REC64 Poisson in `dsort-os-skew`'s
/// runs.  Merges of equal-length sorted lanes of the same records.
fn kernel_and_merge_units(u: &mut Units, scratch: &Path) {
    let records = |name: &str, n: usize| -> (SortConfig, Vec<u8>) {
        let mut cfg = sort_config(name, 1, scratch, 1.0);
        cfg.records_per_node = n;
        let bytes = generate_node_input(&cfg, 0);
        (cfg, bytes)
    };
    let uniform16 = sort_config("csort-os", 1, scratch, 1.0);
    let column = Matrix::choose(uniform16.total_records(), NODES).map_or(1 << 16, |m| m.r);
    let skew64 = sort_config("dsort-os-skew", 1, scratch, 1.0);
    let run = skew64.run_bytes / skew64.record.record_bytes;

    let kernel_cells = [
        ("kernels.radix16_ns_rec", "csort-os", column, Kernel::Radix),
        (
            "kernels.cmp16_ns_rec",
            "csort-os",
            column,
            Kernel::Comparison,
        ),
        (
            "kernels.radix64_ns_rec",
            "dsort-os-skew",
            run,
            Kernel::Radix,
        ),
        (
            "kernels.cmp64_ns_rec",
            "dsort-os-skew",
            run,
            Kernel::Comparison,
        ),
    ];
    for (name, workload, n, kernel) in kernel_cells {
        let (cfg, template) = records(workload, n);
        let mut work = template.clone();
        let mut sort_scratch = SortScratch::new();
        let unit = sample(false, || {
            work.copy_from_slice(&template);
            let d = timed(|| sort_records_using(cfg.record, &mut work, &mut sort_scratch, kernel));
            (n as u64, d)
        });
        u.push(name, NS, unit);
    }

    let merge_cells = [
        ("merge.k4_ns_rec", "dsort-sim", 4, 1 << 16),
        ("merge.k64_ns_rec", "dsort-sim", 64, 1 << 12),
        ("merge.dup_k4_ns_rec", "dsort-os-skew", 4, 1 << 14),
    ];
    for (name, workload, lanes, per_lane) in merge_cells {
        let (cfg, mut bytes) = records(workload, lanes * per_lane);
        let lane_bytes = per_lane * cfg.record.record_bytes;
        let mut sort_scratch = SortScratch::new();
        for lane in bytes.chunks_mut(lane_bytes) {
            sort_records_using(cfg.record, lane, &mut sort_scratch, Kernel::Auto);
        }
        let runs: Vec<&[u8]> = bytes.chunks(lane_bytes).collect();
        let unit = sample(false, || {
            let d = timed(|| {
                std::hint::black_box(merge_runs(cfg.record, &runs));
            });
            ((lanes * per_lane) as u64, d)
        });
        u.push(name, NS, unit);
    }
}

const BLOCK: usize = 16 << 10;
const FILE_BLOCKS: usize = 2048; // 32 MiB
const FILE_KIB: u64 = ((BLOCK * FILE_BLOCKS) >> 10) as u64;

fn write_file(disk: &dyn Disk, block: &[u8]) -> (u64, Duration) {
    let d = timed(|| {
        for i in 0..FILE_BLOCKS {
            disk.write_at("unit", (i * BLOCK) as u64, block)
                .expect("unit-cost write");
        }
        disk.flush().expect("unit-cost flush");
    });
    (FILE_KIB, d)
}

fn read_file(disk: &dyn Disk, block: &mut [u8]) -> (u64, Duration) {
    let d = timed(|| {
        for i in 0..FILE_BLOCKS {
            disk.read_at("unit", (i * BLOCK) as u64, block)
                .expect("unit-cost read");
        }
    });
    (FILE_KIB, d)
}

/// Sequential 16 KiB blocks over a 32 MiB file: a zero-cost `SimDisk`, an
/// `OsDisk`, a bare `FileExt` loop on the same filesystem, and an `OsDisk`
/// behind an `IoScheduler` of depth 4 (write-behind, then read-ahead).
/// Every write loop ends with the flush a sort pass ends with, which on an
/// `OsDisk` is a `sync_data` to the device.
fn disk_units(u: &mut Units, scratch: &Path) -> Result<(), String> {
    let dir = scratch.join("units");
    let mut block = vec![0xA5u8; BLOCK];
    let sim: DiskRef = SimDisk::new(DiskCfg::zero());
    let os: DiskRef = OsDisk::new(dir.join("os")).map_err(|e| e.to_string())?;
    for (wr, rd, disk) in [
        ("disk.sim_wr_ns_kib", "disk.sim_rd_ns_kib", &sim),
        ("disk.os_wr_ns_kib", "disk.os_rd_ns_kib", &os),
    ] {
        u.push(wr, NS, sample(false, || write_file(disk.as_ref(), &block)));
        u.push(
            rd,
            NS,
            sample(false, || read_file(disk.as_ref(), &mut block)),
        );
    }

    let raw = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(dir.join("raw"))
        .map_err(|e| format!("raw file: {e}"))?;
    let raw_wr = sample(false, || {
        let d = timed(|| {
            for i in 0..FILE_BLOCKS {
                raw.write_all_at(&block, (i * BLOCK) as u64)
                    .expect("raw write");
            }
            // What `OsDisk::flush` does, and `write_file` calls it.
            raw.sync_data().expect("raw sync");
        });
        (FILE_KIB, d)
    });
    let raw_rd = sample(false, || {
        let d = timed(|| {
            for i in 0..FILE_BLOCKS {
                raw.read_exact_at(&mut block, (i * BLOCK) as u64)
                    .expect("raw read");
            }
        });
        (FILE_KIB, d)
    });
    u.push("disk.raw_wr_ns_kib", NS, raw_wr);
    u.push("disk.raw_rd_ns_kib", NS, raw_rd);

    let registry = MetricsRegistry::new();
    let backing: DiskRef = OsDisk::new(dir.join("sched")).map_err(|e| e.to_string())?;
    let sched: DiskRef =
        IoScheduler::with_metrics(backing, 4, &registry, "unit").map_err(|e| e.to_string())?;
    let alloc0 = allocated_bytes();
    let mut moved_kib = 0;
    let wr = sample(true, || {
        moved_kib += FILE_KIB;
        write_file(sched.as_ref(), &block)
    });
    let rd = sample(true, || {
        moved_kib += FILE_KIB;
        read_file(sched.as_ref(), &mut block)
    });
    let allocated = allocated_bytes() - alloc0;
    u.push("sched.wr_ns_kib", NS, wr);
    u.push("sched.rd_ns_kib", NS, rd);
    u.push_ratio(
        "sched.alloc_b_per_b",
        allocated as f64 / (moved_kib << 10) as f64,
    );
    let snap = registry.snapshot();
    let hits = snap.counter("disk/unit/prefetch_hit").unwrap_or(0) as f64;
    let misses = snap.counter("disk/unit/prefetch_miss").unwrap_or(0) as f64;
    u.push_ratio("sched.hit_frac", hits / (hits + misses).max(1.0));
    Ok(())
}

/// The fabric with a free network, four ranks in a ring: each sends to its
/// right neighbour and receives from its left.
fn fabric_units(u: &mut Units) {
    const TAG: u64 = 7;
    let ring = |msgs: usize, payload: usize| -> Duration {
        timed(|| {
            Cluster::run(ClusterCfg::zero_cost(NODES), move |node| {
                let (rank, comm) = (node.rank(), node.comm());
                for _ in 0..msgs {
                    comm.send((rank + 1) % NODES, TAG, vec![rank as u8; payload])?;
                    std::hint::black_box(comm.recv(Some((rank + NODES - 1) % NODES), TAG)?);
                }
                Ok(())
            })
            .expect("a ring of sends among live ranks completes");
        })
    };

    let small = sample(true, || {
        let d = ring(1_000, 8);
        ((1_000 * NODES) as u64, d)
    });
    u.push("fabric.p2p_us_msg", US, small);

    let alloc0 = allocated_bytes();
    let mut moved = 0u64;
    let large = sample(true, || {
        let d = ring(500, BLOCK);
        moved += (500 * NODES * BLOCK) as u64;
        (((500 * NODES * BLOCK) >> 10) as u64, d)
    });
    u.push("fabric.p2p_ns_kib", NS, large);
    u.push_ratio(
        "fabric.alloc_b_per_b",
        (allocated_bytes() - alloc0) as f64 / moved as f64,
    );

    let collective = sample(true, || {
        let d = timed(|| {
            Cluster::run(ClusterCfg::zero_cost(NODES), |node| {
                for _ in 0..200 {
                    let parts = vec![vec![node.rank() as u8; BLOCK]; NODES];
                    std::hint::black_box(node.comm().alltoallv(parts)?);
                }
                Ok(())
            })
            .expect("a collective among live ranks completes");
        });
        (200, d)
    });
    u.push("fabric.alltoallv_us", US, collective);
}
