//! The four workloads, each as three steps the harness times separately:
//! set-up, the timed region, and the check of the output.
//!
//! Why these four (README.md has the long form): `dsort-sim` is merge,
//! fabric and per-round allocation with free disks; `csort-os` is sort
//! kernels, file I/O, the I/O scheduler and collectives with no merge of
//! many runs and no point-to-point sends; `dsort-os-skew` drives the same
//! layers as `csort-os` through a different access pattern (appended runs,
//! many read streams, 64-byte records, duplicate keys, unbalanced
//! partitions); `pipe-hop` is fg-core alone.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fg_core::{map_stage, MetricsRegistry, MetricsSnapshot, PipelineCfg, Program, Report};
use fg_pdm::DiskRef;
use fg_sort::config::{DiskBackend, SortConfig};
use fg_sort::csort::run_csort;
use fg_sort::dsort::{run_dsort_with, DsortOptions};
use fg_sort::input::{try_provision, try_provision_with_metrics};
use fg_sort::keygen::KeyDist;
use fg_sort::record::RecordFormat;
use fg_sort::verify::{verify_output, Strictness, OUTPUT_FILE};

use crate::timed_disk::{Recorder, TimedDisk};

/// A program that makes no progress for this long is a failed operation,
/// not a stuck benchmark.
pub const WATCHDOG: Duration = Duration::from_secs(120);

pub const NODES: usize = 4;

/// One repetition's three steps.  `setup` may be called again after
/// `check`; each call starts from fresh inputs and fresh disks.
pub trait Workload {
    fn setup(&mut self) -> Result<(), String>;
    /// Exactly the call into the library: `run_dsort_with`, `run_csort` or
    /// `Program::run`.
    fn timed(&mut self) -> Result<(), String>;
    fn check(&mut self) -> Result<(), String>;
    /// What the last timed region reported about itself.
    fn facts(&self) -> &Facts;
}

/// What a finished timed region hands back without any tracing: the pass
/// times and traffic the library's own reports carry.  `metrics` is empty
/// unless the workload was built with a [`Recorder`].
#[derive(Debug, Clone, Default)]
pub struct Facts {
    /// Named wall times of the program's phases, in order.
    pub passes: Vec<(&'static str, f64)>,
    /// Largest partition over mean partition (dsort), else 0.
    pub partition_skew: f64,
    /// Sorted runs each node merged in pass 2 (dsort), else 0.
    pub runs_per_node: f64,
    pub fabric_bytes: u64,
    pub metrics: MetricsSnapshot,
}

/// Timed repetitions in a run of the contract's length, per workload:
/// fixed, never adapted to what is measured, and sized on the reference
/// host so that warm-up plus repetitions last about 25 s when the host is
/// undisturbed and stay within the driver's time cap when it is a third
/// slower.
const REPETITIONS: [(&str, usize); 4] = [
    ("dsort-sim", 35),
    ("csort-os", 30),
    ("dsort-os-skew", 36),
    ("pipe-hop", 53),
];

/// Number of timed repetitions for a run of `seconds`, of which the
/// contract's run takes `contract_seconds`: the fixed count, scaled by
/// nothing but the requested length.
pub fn repetitions(name: &str, seconds: u64, contract_seconds: u64) -> usize {
    let fixed = REPETITIONS
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, r)| *r);
    (fixed * seconds as usize / contract_seconds.max(1) as usize).max(3)
}

/// Build the named workload.  With a recorder the workload is the traced
/// variant: disks wrapped in [`TimedDisk`]s and a metrics registry attached
/// for every repetition.
pub fn build(
    name: &str,
    seed: u64,
    scratch: &Path,
    recorder: Option<Arc<Recorder>>,
) -> Option<Box<dyn Workload>> {
    match name {
        "dsort-sim" | "csort-os" | "dsort-os-skew" => {
            Some(Box::new(sort_workload(name, seed, scratch, 1.0, recorder)))
        }
        "pipe-hop" => Some(Box::new(PipeHop::new(
            seed,
            PipeHop::ROUNDS,
            recorder.is_some(),
        ))),
        _ => None,
    }
}

/// The named sort workload on an input `scale` times the benchmark's size
/// (the harness's own tests shrink it).
pub fn sort_workload(
    name: &str,
    seed: u64,
    scratch: &Path,
    scale: f64,
    recorder: Option<Arc<Recorder>>,
) -> SortWorkload {
    SortWorkload {
        cfg: sort_config(name, seed, scratch, scale),
        program: if name == "csort-os" {
            SortProgram::Csort
        } else {
            SortProgram::Dsort
        },
        recorder,
        disks: Vec::new(),
        facts: Facts::default(),
    }
}

/// The configuration of a sort workload (`scale` as in [`sort_workload`]).
pub fn sort_config(name: &str, seed: u64, scratch: &Path, scale: f64) -> SortConfig {
    // Sizes: small enough for 26 and more repetitions in a run, large
    // enough for half a CPU-second (50 clock ticks) a sort.  dsort's 48 MiB
    // puts a node's 12 MiB partition midway between two doublings of the
    // `SimDisk` file that holds its runs, so that no seed's partition sizes
    // straddle one.
    let (record, dist, mib, os) = match name {
        "dsort-sim" => (RecordFormat::REC16, KeyDist::Uniform, 48.0, false),
        "csort-os" => (RecordFormat::REC16, KeyDist::Uniform, 64.0, true),
        "dsort-os-skew" => (RecordFormat::REC64, KeyDist::Poisson, 48.0, true),
        other => panic!("{other} is not a sort workload"),
    };
    let bytes_per_node = (mib * scale * (1 << 20) as f64) as usize / NODES;
    let mut cfg = SortConfig::test_default(NODES, bytes_per_node / record.record_bytes);
    cfg.record = record;
    cfg.dist = dist;
    cfg.seed = seed;
    // The geometry `fgsort` uses by default: 16 KiB blocks, 64 KiB runs.
    cfg.block_bytes = 16 << 10;
    cfg.run_bytes = 64 << 10;
    cfg.vertical_buf_bytes = cfg.block_bytes / 2;
    cfg.watchdog = Some(WATCHDOG);
    if os {
        cfg.backend = DiskBackend::Os {
            dir: scratch.join(name),
        };
        cfg.io_depth = 4;
    }
    cfg
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortProgram {
    Dsort,
    Csort,
}

pub struct SortWorkload {
    pub cfg: SortConfig,
    pub program: SortProgram,
    pub recorder: Option<Arc<Recorder>>,
    pub disks: Vec<DiskRef>,
    pub facts: Facts,
}

impl Workload for SortWorkload {
    fn setup(&mut self) -> Result<(), String> {
        // A repetition that failed before its check left its disks behind:
        // they go before new ones open the same files.
        self.disks.clear();
        self.cfg.metrics = None;
        self.disks = match &self.recorder {
            None => try_provision(&self.cfg).map_err(|e| e.to_string())?,
            // The traced run: the library's own disk counters in a
            // registry, and a span around every call the program makes.
            Some(recorder) => {
                let registry = Arc::new(MetricsRegistry::new());
                let disks =
                    try_provision_with_metrics(&self.cfg, &registry).map_err(|e| e.to_string())?;
                self.cfg.metrics = Some(registry);
                disks
                    .into_iter()
                    .map(|disk| TimedDisk::wrap(disk, "io", recorder))
                    .collect()
            }
        };
        if matches!(self.cfg.backend, DiskBackend::Sim) {
            // A real disk has its capacity before the sort starts.  A
            // `SimDisk` file is a `Vec` that grows as blocks arrive, and pass
            // 2's blocks arrive in an order that differs from run to run, so
            // that the growth alone moved `alloc_mib` by 18% and
            // `peak_heap_mib` by 20% between repetitions of one input.  The
            // output file therefore exists at its final length beforehand.
            let node_bytes = self.cfg.records_per_node * self.cfg.record.record_bytes;
            for disk in &self.disks {
                disk.load(OUTPUT_FILE, vec![0; node_bytes]);
            }
        }
        Ok(())
    }

    fn timed(&mut self) -> Result<(), String> {
        let secs = |d: Duration| d.as_secs_f64();
        self.facts = match self.program {
            SortProgram::Dsort => {
                let opts = DsortOptions {
                    metrics: self.cfg.metrics.clone(),
                    ..DsortOptions::default()
                };
                let rep =
                    run_dsort_with(&self.cfg, &self.disks, opts).map_err(|e| e.to_string())?;
                let parts = &rep.partition_records;
                let mean = parts.iter().sum::<u64>() as f64 / parts.len() as f64;
                Facts {
                    passes: vec![
                        ("sampling", secs(rep.sampling)),
                        ("pass1", secs(rep.pass1)),
                        ("pass2", secs(rep.pass2)),
                    ],
                    partition_skew: parts.iter().copied().max().unwrap_or(0) as f64 / mean,
                    runs_per_node: rep.runs_per_node.iter().sum::<u64>() as f64 / NODES as f64,
                    fabric_bytes: rep.bytes_sent.iter().sum(),
                    metrics: rep.metrics,
                }
            }
            SortProgram::Csort => {
                let rep = run_csort(&self.cfg, &self.disks).map_err(|e| e.to_string())?;
                Facts {
                    passes: vec![
                        ("pass1", secs(rep.pass[0])),
                        ("pass2", secs(rep.pass[1])),
                        ("pass3", secs(rep.pass[2])),
                    ],
                    fabric_bytes: rep.bytes_sent.iter().sum(),
                    ..Facts::default()
                }
            }
        };
        if let Some(registry) = &self.cfg.metrics {
            // dsort's report carries the snapshot already; csort's stages
            // published into the registry the config handed them.
            self.facts.metrics = registry.snapshot();
        }
        Ok(())
    }

    fn check(&mut self) -> Result<(), String> {
        let res = verify_output(&self.cfg, &self.disks, Strictness::Fingerprint);
        // Nothing reads the disks after the check.  Releasing them here and
        // not at the next set-up keeps one data set alive at a time when
        // two workloads take turns, as in the traced run.
        self.disks.clear();
        res.map_err(|e| e.to_string())
    }

    fn facts(&self) -> &Facts {
        &self.facts
    }
}

/// SplitMix64: the input generator of `pipe-hop` and of the unit-cost
/// loops.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What stage `i` does to the payload word it touches.
fn hop(word: u64, stage: u32) -> u64 {
    word.rotate_left(stage + 1) ^ u64::from(stage)
}

/// How a pipeline of pass-through stages is instrumented and shaped; the
/// `stage.*` unit costs run the same pipeline as `pipe-hop` under each.
#[derive(Default)]
pub struct PipelineOpts {
    pub metrics: Option<Arc<MetricsRegistry>>,
    pub tracing: bool,
    /// Run stage 1 as a farm of two ordered workers.
    pub farm: bool,
}

/// One linear pipeline of [`PipeHop::STAGES`] pass-through stages: stage 0
/// copies round `r`'s input word into the buffer, every stage transforms
/// that one word, and the last stage adds it to `checksum`.
pub fn hop_pipeline(
    rounds: u64,
    buffers: usize,
    buffer_bytes: usize,
    input: &Arc<Vec<u64>>,
    checksum: &Arc<AtomicU64>,
    opts: PipelineOpts,
) -> Program {
    let mut prog = Program::new("pipe-hop");
    prog.with_watchdog(WATCHDOG);
    if let Some(registry) = opts.metrics {
        prog.set_metrics(registry);
    }
    if opts.tracing {
        prog.enable_tracing();
    }
    let stage = |i: u32| {
        let input = Arc::clone(input);
        let checksum = Arc::clone(checksum);
        map_stage(move |buf, _ctx| {
            let word = if i == 0 {
                buf.set_filled(8);
                input[buf.round() as usize % input.len()]
            } else {
                u64::from_le_bytes(buf.filled()[..8].try_into().expect("8 bytes filled"))
            };
            let word = hop(word, i);
            buf.filled_mut()[..8].copy_from_slice(&word.to_le_bytes());
            if i == PipeHop::STAGES - 1 {
                checksum.fetch_add(word, Ordering::Relaxed);
            }
            Ok(())
        })
    };
    let chain: Vec<_> = (0..PipeHop::STAGES)
        .map(|i| {
            if opts.farm && i == 1 {
                prog.workers("hop1", 2, |_| stage(i))
            } else {
                prog.add_stage(format!("hop{i}"), stage(i))
            }
        })
        .collect();
    prog.add_pipeline(
        PipelineCfg::new("hops", buffers, buffer_bytes).count(rounds),
        &chain,
    )
    .expect("a non-empty chain of distinct stages");
    prog
}

/// The checksum [`hop_pipeline`] must arrive at.
pub fn hop_checksum(rounds: u64, input: &[u64]) -> u64 {
    (0..rounds).fold(0u64, |sum, r| {
        let word = (0..PipeHop::STAGES).fold(input[r as usize % input.len()], hop);
        sum.wrapping_add(word)
    })
}

pub struct PipeHop {
    seed: u64,
    rounds: u64,
    traced: bool,
    input: Arc<Vec<u64>>,
    checksum: Arc<AtomicU64>,
    program: Option<Program>,
    report: Report,
    facts: Facts,
}

impl PipeHop {
    pub const STAGES: u32 = 4;
    /// Enough rounds for 0.4 s and 0.7 CPU-s per repetition on the reference
    /// host.
    pub const ROUNDS: u64 = 80_000;
    /// 32 buffers of 512 KiB: the pool a sort-sized pipeline carries.
    pub const BUFFERS: usize = 32;
    pub const BUFFER_BYTES: usize = 512 << 10;
    /// Seeded payload words, as many bytes as the buffer pool holds, so
    /// that set-up is milliseconds of generation.
    const INPUT_WORDS: usize = Self::BUFFERS * Self::BUFFER_BYTES / 8;

    pub fn new(seed: u64, rounds: u64, traced: bool) -> Self {
        PipeHop {
            seed,
            rounds,
            traced,
            input: Arc::default(),
            checksum: Arc::default(),
            program: None,
            report: Report::default(),
            facts: Facts::default(),
        }
    }
}

impl Workload for PipeHop {
    fn setup(&mut self) -> Result<(), String> {
        // The last repetition's program is gone, so the table is ours to
        // refill in place: set-up then costs the same every repetition,
        // whatever the allocator does with a freed 16 MiB block.
        let mut state = self.seed;
        let input = Arc::make_mut(&mut self.input);
        input.clear();
        input.extend((0..Self::INPUT_WORDS).map(|_| splitmix(&mut state)));
        self.checksum = Arc::default();
        let opts = PipelineOpts {
            metrics: self.traced.then(|| Arc::new(MetricsRegistry::new())),
            ..PipelineOpts::default()
        };
        self.program = Some(hop_pipeline(
            self.rounds,
            Self::BUFFERS,
            Self::BUFFER_BYTES,
            &self.input,
            &self.checksum,
            opts,
        ));
        Ok(())
    }

    fn timed(&mut self) -> Result<(), String> {
        let program = self.program.take().ok_or("timed() before setup()")?;
        self.report = program.run().map_err(|e| e.to_string())?;
        self.facts = Facts {
            passes: vec![("run", self.report.wall.as_secs_f64())],
            metrics: self.report.metrics.clone(),
            ..Facts::default()
        };
        Ok(())
    }

    fn check(&mut self) -> Result<(), String> {
        let last = format!("hop{}", Self::STAGES - 1);
        let conveyed = self.report.stage(&last).map_or(0, |s| s.buffers_out);
        if conveyed != self.rounds {
            return Err(format!(
                "{last} conveyed {conveyed} of {} rounds",
                self.rounds
            ));
        }
        let want = hop_checksum(self.rounds, &self.input);
        let got = self.checksum.load(Ordering::Relaxed);
        if got != want {
            return Err(format!("payload checksum {got:#x} != {want:#x}"));
        }
        Ok(())
    }

    fn facts(&self) -> &Facts {
        &self.facts
    }
}

/// A directory inside the benchmark's own tree for the os-backed disks,
/// removed when dropped: the benchmark writes nothing outside its checkout.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    pub fn new() -> std::io::Result<Self> {
        // One process may hold several (the harness's tests do).
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let name = format!(
            "{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        );
        let path = out_root().join("scratch").join(name);
        std::fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// `benchmark/target`, where scratch files and trace output go: the
/// package directory as cargo reports it at run time, else as it was when
/// the binary was built.
pub fn out_root() -> PathBuf {
    let manifest_dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    manifest_dir.join("target")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_hop_checks_its_round_count_and_its_checksum() {
        let mut w = PipeHop::new(3, 1_000, false);
        w.setup().unwrap();
        w.timed().unwrap();
        w.check().unwrap();
        assert_eq!(w.facts().passes.len(), 1);

        w.checksum.fetch_add(1, Ordering::Relaxed);
        assert!(w.check().unwrap_err().contains("checksum"));

        // A run that stopped short of its rounds is caught as well.
        w.setup().unwrap();
        w.timed().unwrap();
        w.rounds += 1;
        assert!(w.check().unwrap_err().contains("rounds"));
    }

    #[test]
    fn the_traced_pipeline_publishes_its_stage_counters() {
        let mut w = PipeHop::new(3, 500, true);
        w.setup().unwrap();
        w.timed().unwrap();
        w.check().unwrap();
        let rounds = w.facts().metrics.counter("core/stage_rounds/hop0");
        assert_eq!(rounds, Some(500));
    }
}
