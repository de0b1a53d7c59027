//! The traced run: where the time of a workload goes, layer by layer.
//!
//! Untraced and traced repetitions of the workload alternate
//! ([`TRACED_REPS`] of each, the same seed), so that `trace.overhead_frac`
//! compares two medians taken under the same host conditions.  A traced
//! repetition wraps every disk the library provisions in a
//! [`TimedDisk`](crate::timed_disk) (layer `io`: what the program's stages
//! asked for and how long they waited) and hands the library a metrics
//! registry; its attribution rows are the spans and the counters of that
//! repetition, and each reported row is the median over the traced
//! repetitions.  The unit costs are measured in the same process, and the
//! layer budget multiplies the two.
//!
//! Nothing outside `benchmark/` is instrumented for this: spans inside the
//! program are a later change.

use std::path::Path;
use std::sync::Arc;

use fg_core::{Json, MetricsSnapshot};

use crate::harness::{calibration, repetition, Sample};
use crate::host::Calibration;
use crate::stats::median;
use crate::timed_disk::{Recorder, Span};
use crate::units::{self, Units};
use crate::workloads::{self, sort_config, Facts, PipeHop, Workload};

pub const TRACED_REPS: usize = 3;

const MIB: f64 = (1u64 << 20) as f64;

/// Sum of the counters whose name starts with `prefix` and ends with
/// `suffix`: one library counter summed over its per-stage, per-disk or
/// per-rank instances.
fn counters_ending(m: &MetricsSnapshot, prefix: &str, suffix: &str) -> f64 {
    m.counters
        .iter()
        .filter(|(name, _)| name.starts_with(prefix) && name.ends_with(suffix))
        .map(|(_, v)| *v as f64)
        .sum()
}

fn counters(m: &MetricsSnapshot, prefix: &str) -> f64 {
    counters_ending(m, prefix, "")
}

/// `(samples, sum of samples)` of the histograms whose name starts with
/// `prefix` and ends with `suffix`.
fn histograms_ending(m: &MetricsSnapshot, prefix: &str, suffix: &str) -> (f64, f64) {
    m.histograms
        .iter()
        .filter(|(name, _)| name.starts_with(prefix) && name.ends_with(suffix))
        .fold((0.0, 0.0), |(count, sum), (_, h)| {
            (count + h.count as f64, sum + h.sum as f64)
        })
}

/// The reads and writes the program made of its disks in repetition `rep`.
fn transfers(spans: &[Span], rep: u32) -> impl Iterator<Item = &Span> {
    spans
        .iter()
        .filter(move |s| s.rep == rep && s.layer == "io" && s.is_transfer())
}

/// One traced repetition's attribution rows, by metric name.  Operations
/// and bytes are what reached the backends, under any scheduler, as the
/// backends' own counters in the registry have it; `disk.busy_s` is the
/// time the program's threads spent inside `Disk` calls, which a free
/// `SimDisk` does not time.
fn attribute(facts: &Facts, io: &[&Span]) -> Vec<(&'static str, f64)> {
    let m = &facts.metrics;
    let reads = histograms_ending(m, "disk/", "/read_ns").0;
    let writes = histograms_ending(m, "disk/", "/write_ns").0;
    let hits = counters_ending(m, "disk/", "/prefetch_hit");
    let lookups = hits + counters_ending(m, "disk/", "/prefetch_miss");
    let pass = |name: &str| {
        facts
            .passes
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, s)| *s)
    };
    let busy = |stage: &str| counters(m, &format!("core/stage_busy_ns/{stage}")) / 1e9;
    vec![
        ("disk.ops", reads + writes),
        (
            "disk.rd_mib",
            counters_ending(m, "disk/", "/bytes_read") / MIB,
        ),
        (
            "disk.wr_mib",
            counters_ending(m, "disk/", "/bytes_written") / MIB,
        ),
        ("disk.busy_s", io.iter().map(|s| s.seconds()).sum()),
        ("sched.prefetch_hit_frac", hits / lookups.max(1.0)),
        ("fabric.msgs", counters(m, "comm/msgs/")),
        ("fabric.mib", facts.fabric_bytes as f64 / MIB),
        (
            "fabric.recv_wait_s",
            histograms_ending(m, "comm/recv_wait_ns/", "").1 / 1e9,
        ),
        ("stage.rounds", counters(m, "core/stage_rounds/")),
        ("stage.busy_s", counters(m, "core/stage_busy_ns/") / 1e9),
        (
            "stage.blocked_s",
            (counters(m, "core/stage_blocked_accept_ns/")
                + counters(m, "core/stage_blocked_convey_ns/"))
                / 1e9,
        ),
        ("kernels.sort_busy_s", busy("sort")),
        ("merge.busy_s", busy("merge")),
        ("programs.pass1_s", pass("pass1")),
        ("programs.pass2_s", pass("pass2")),
        ("programs.pass3_s", pass("pass3")),
        ("programs.partition_skew", facts.partition_skew),
    ]
}

/// CPU seconds each layer should have cost: unit cost × the traced run's
/// counts.  README.md states what each product leaves out; whatever that
/// is lands in `budget.residual_frac`.
fn budget(
    workload: &str,
    scratch: &Path,
    units: &Units,
    rows: &dyn Fn(&str) -> f64,
    io_kib: f64,
    runs_per_node: f64,
    cpu_s: f64,
) -> Vec<(&'static str, f64)> {
    let (mut sort, mut merge, mut disk) = (0.0, 0.0, 0.0);
    if workload != "pipe-hop" {
        let cfg = sort_config(workload, 1, scratch, 1.0);
        let records = cfg.total_records() as f64;
        let wide = cfg.record.record_bytes == 64;
        let kernel = units.cpu(if wide {
            "kernels.radix64_ns_rec"
        } else {
            "kernels.radix16_ns_rec"
        });
        let k4 = units.cpu(if wide {
            "merge.dup_k4_ns_rec"
        } else {
            "merge.k4_ns_rec"
        });
        // A loser tree does one comparison per level: cost per record
        // grows with log2 of the lane count, at the slope k4 → k64 shows.
        let per_level = (units.cpu("merge.k64_ns_rec") - units.cpu("merge.k4_ns_rec")) / 4.0;
        if workload == "csort-os" {
            // Three passes sort every column; pass 3 then merges each
            // record once, two lanes at a time.
            sort = 3.0 * records * kernel;
            merge = records * (k4 - per_level).max(0.0);
        } else {
            sort = records * kernel;
            merge = records * (k4 + per_level * (runs_per_node.max(4.0).log2() - 2.0));
        }
        let os = cfg.io_depth > 0;
        let (rd, wr) = if os {
            ("disk.os_rd_ns_kib", "disk.os_wr_ns_kib")
        } else {
            ("disk.sim_rd_ns_kib", "disk.sim_wr_ns_kib")
        };
        disk = rows("disk.rd_mib") * 1024.0 * units.cpu(rd)
            + rows("disk.wr_mib") * 1024.0 * units.cpu(wr);
        if os {
            // What the scheduler adds per KiB the program moves through it.
            let over = |sched: &str, bare: &str| (units.cpu(sched) - units.cpu(bare)).max(0.0);
            disk += io_kib / 2.0
                * (over("sched.rd_ns_kib", "disk.os_rd_ns_kib")
                    + over("sched.wr_ns_kib", "disk.os_wr_ns_kib"));
        }
    }
    let fabric = rows("fabric.mib") * 1024.0 * units.cpu("fabric.p2p_ns_kib");
    // `stage.round_ns` is one round of a whole pass-through pipeline.
    let stage = rows("stage.rounds") / f64::from(PipeHop::STAGES) * units.cpu("stage.round_ns");
    let total = sort + merge + disk + fabric + stage;
    vec![
        ("budget.sort_cpu_s", sort),
        ("budget.merge_cpu_s", merge),
        ("budget.disk_cpu_s", disk),
        ("budget.fabric_cpu_s", fabric),
        ("budget.stage_cpu_s", stage),
        (
            "budget.residual_frac",
            if cpu_s > 0.0 {
                1.0 - total / cpu_s
            } else {
                0.0
            },
        ),
    ]
}

/// What a traced run produced: every per-layer metric, and the operations
/// it attempted.
pub struct Traced {
    pub metrics: Vec<(&'static str, f64)>,
    pub samples: Vec<Sample>,
    pub spans: Vec<Span>,
}

pub fn run(workload: &str, seed: u64, scratch: &Path) -> Result<Traced, String> {
    // Unit costs first, in the fresh process: isolated loops should not
    // inherit the allocator state a sort leaves behind.
    let units = units::measure_all(scratch)?;
    let recorder = Recorder::new();
    let build = |dir: &Path, recorder| {
        workloads::build(workload, seed, dir, recorder).ok_or("unknown workload".to_string())
    };
    let mut plain = build(scratch, None)?;
    let mut traced = build(&scratch.join("traced"), Some(Arc::clone(&recorder)))?;
    let mut calib = Calibration::new();
    let mut reading = calib.run_ms();
    let (mut plain_samples, mut traced_samples) = (Vec::new(), Vec::new());
    let mut attributions = Vec::new();
    let (mut io_kib, mut runs_per_node) = (Vec::new(), Vec::new());
    for rep in 0..TRACED_REPS as u32 {
        let s = repetition(plain.as_mut(), &mut calib, reading, false);
        reading = s.calib_ms[2];
        plain_samples.push(s);
        recorder.begin_rep(rep);
        let s = traced_rep(traced.as_mut(), &mut calib, reading, &recorder);
        reading = s.calib_ms[2];
        let facts = traced.facts();
        let spans = recorder.spans();
        let io: Vec<&Span> = transfers(&spans, rep).collect();
        attributions.push(attribute(facts, &io));
        io_kib.push(io.iter().map(|s| s.bytes).sum::<u64>() as f64 / 1024.0);
        runs_per_node.push(facts.runs_per_node);
        traced_samples.push(s);
    }
    drop((plain, traced));

    let ok = |samples: &[Sample], field: fn(&Sample) -> f64| -> f64 {
        let v: Vec<f64> = samples
            .iter()
            .filter(|s| s.error.is_none())
            .map(field)
            .collect();
        median(&v)
    };
    // The one per-layer row that compares times taken while the host drifts:
    // like the end-to-end times, as the reference host would have taken them.
    let reference_wall = |s: &Sample| s.wall_s / s.timed_factor();
    let plain_wall = ok(&plain_samples, reference_wall);
    let overhead = if plain_wall > 0.0 {
        ok(&traced_samples, reference_wall) / plain_wall - 1.0
    } else {
        0.0
    };

    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    metrics.extend(units.metrics());
    for (i, (name, _)) in attributions[0].iter().enumerate() {
        let per_rep: Vec<f64> = attributions.iter().map(|a| a[i].1).collect();
        metrics.push((name, median(&per_rep)));
    }
    metrics.push(("trace.overhead_frac", overhead));
    let rows = |name: &str| {
        metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let budget_rows = budget(
        workload,
        scratch,
        &units,
        &rows,
        median(&io_kib),
        median(&runs_per_node),
        ok(&plain_samples, |s| s.cpu_s),
    );
    metrics.extend(budget_rows);

    let mut samples = plain_samples;
    samples.extend(traced_samples);
    let (calib_ms, calib_min, calib_max) = calibration(&samples);
    metrics.extend([
        ("host.calib_ms", calib_ms),
        ("host.calib_min_ms", calib_min),
        ("host.calib_max_ms", calib_max),
    ]);
    Ok(Traced {
        metrics,
        samples,
        spans: recorder.spans(),
    })
}

/// A repetition of the traced workload, with a span around each of its
/// steps and, from the pass times the library reports, around each pass.
fn traced_rep(
    w: &mut dyn Workload,
    calib: &mut Calibration,
    before_ms: f64,
    recorder: &Recorder,
) -> Sample {
    struct Spanned<'a> {
        inner: &'a mut dyn Workload,
        recorder: &'a Recorder,
    }
    impl Workload for Spanned<'_> {
        fn setup(&mut self) -> Result<(), String> {
            let t0 = self.recorder.now_ns();
            let res = self.inner.setup();
            self.recorder.record("harness", "setup", 0, t0);
            res
        }
        fn timed(&mut self) -> Result<(), String> {
            let t0 = self.recorder.now_ns();
            let res = self.inner.timed();
            self.recorder.record("harness", "timed", 0, t0);
            // Passes run back to back, separated by barriers.
            let mut at = t0;
            for (name, seconds) in &self.inner.facts().passes {
                let end = at + (seconds * 1e9) as u64;
                self.recorder.record_interval("programs", name, 0, at, end);
                at = end;
            }
            res
        }
        fn check(&mut self) -> Result<(), String> {
            let t0 = self.recorder.now_ns();
            let res = self.inner.check();
            self.recorder.record("harness", "check", 0, t0);
            res
        }
        fn facts(&self) -> &Facts {
            self.inner.facts()
        }
    }
    repetition(&mut Spanned { inner: w, recorder }, calib, before_ms, false)
}

/// The spans as a JSON document: one object per span, times in
/// nanoseconds since the recorder's creation.
pub fn spans_json(workload: &str, spans: &[Span]) -> String {
    let num = |v: u64| Json::Num(v as f64);
    let items = spans
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("layer".into(), Json::Str(s.layer.into())),
                ("op".into(), Json::Str(s.op.into())),
                ("bytes".into(), num(s.bytes)),
                ("start_ns".into(), num(s.start_ns)),
                ("end_ns".into(), num(s.end_ns)),
                ("thread".into(), num(s.thread)),
                ("rep".into(), num(u64::from(s.rep))),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("spans".into(), Json::Arr(items)),
    ])
    .to_string()
}
