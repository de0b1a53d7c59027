//! The run shape: one process performs a warm-up repetition and then `R`
//! timed repetitions of one workload on one seed, and reports medians.
//!
//! A repetition is set-up → timed region → check, with a run of the
//! calibration kernel before each step, and is one operation.  The harness
//! starts no sampler, profiler or controller thread, and the kernel's two
//! threads have ended before the next step begins; while a program runs,
//! all concurrency is the program's.
//!
//! The host this benchmark has to run on changes speed by a quarter and
//! more for half a minute to minutes at a time (README.md has the
//! measurements), so that two runs of the same code differ by more than any
//! bound worth having, whatever statistic is taken inside one run.  Each
//! step's times are therefore divided by the host factor of the two
//! calibration readings that bracket it, and the medians are taken over the
//! quotients.  The times as the clock read them are printed beside them.

use std::time::Instant;

use crate::host::{self, host_factor, Calibration};
use crate::stats::median;
use crate::workloads::Workload;

const MIB: f64 = (1u64 << 20) as f64;

/// What one repetition measured, as the clock read it.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// The calibration kernel's CPU-ms before set-up, before the timed
    /// region and after it.
    pub calib_ms: [f64; 3],
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub alloc_mib: f64,
    /// FgAlloc's live-heap high-water mark at the end of the timed region.
    pub peak_heap_mib: f64,
    /// `VmHWM` at the end of the timed region.
    pub peak_rss_mib: f64,
    /// Set-up, timed region or check failed; the message is the reason.
    pub error: Option<String>,
}

impl Sample {
    /// How much slower than the reference host this host was during set-up.
    pub fn setup_factor(&self) -> f64 {
        host_factor(self.calib_ms[0], self.calib_ms[1])
    }

    /// The same during the timed region.
    pub fn timed_factor(&self) -> f64 {
        host_factor(self.calib_ms[1], self.calib_ms[2])
    }
}

/// Bytes allocated so far under every FgAlloc tag.
pub fn allocated_bytes() -> u64 {
    fg_core::alloc::snapshot()
        .iter()
        .map(|(_, c)| c.bytes)
        .sum()
}

/// Perform one repetition; `before_ms` is the calibration reading taken
/// since the last step ended.  With `reset_peak` the RSS high-water mark is reset
/// immediately before the timed region, so that in a fresh process
/// `peak_rss_mib` is the program's own peak, not the set-up's.
pub fn repetition(
    w: &mut dyn Workload,
    calib: &mut Calibration,
    before_ms: f64,
    reset_peak: bool,
) -> Sample {
    let mut s = Sample::default();
    s.calib_ms[0] = before_ms;
    let t0 = Instant::now();
    let setup = w.setup();
    s.setup_s = t0.elapsed().as_secs_f64();
    s.calib_ms[1] = calib.run_ms();
    let timed = setup.and_then(|()| {
        if reset_peak {
            host::reset_peak_rss();
        }
        let (alloc0, cpu0, t0) = (allocated_bytes(), host::cpu_seconds(), Instant::now());
        let res = w.timed();
        s.wall_s = t0.elapsed().as_secs_f64();
        s.cpu_s = host::cpu_seconds() - cpu0;
        s.alloc_mib = (allocated_bytes() - alloc0) as f64 / MIB;
        s.peak_heap_mib = fg_core::alloc::process_bytes().1 as f64 / MIB;
        s.peak_rss_mib = host::peak_rss_bytes() as f64 / MIB;
        res
    });
    s.calib_ms[2] = calib.run_ms();
    s.error = timed.and_then(|()| w.check()).err();
    s
}

/// Every repetition of one run, the warm-up first.
pub struct Run {
    pub samples: Vec<Sample>,
}

impl Run {
    /// Warm-up plus `reps` timed repetitions.
    pub fn perform(w: &mut dyn Workload, reps: usize) -> Run {
        let mut calib = Calibration::new();
        let mut samples: Vec<Sample> = Vec::with_capacity(reps + 1);
        for i in 0..=reps {
            // The check of the last repetition is short beside a regime of
            // the host: its closing reading opens this one.
            let before_ms = match samples.last() {
                Some(last) => last.calib_ms[2],
                None => calib.run_ms(),
            };
            samples.push(repetition(w, &mut calib, before_ms, i == 0));
        }
        Run { samples }
    }

    /// Median of `field` over the timed repetitions that succeeded.
    pub fn median_timed(&self, field: impl Fn(&Sample) -> f64) -> f64 {
        let ok: Vec<f64> = self.samples[1..]
            .iter()
            .filter(|s| s.error.is_none())
            .map(field)
            .collect();
        median(&ok)
    }

    /// Median of `field` over every repetition's set-up, the warm-up's too.
    fn median_setup(&self, field: impl Fn(&Sample) -> f64) -> f64 {
        let setups: Vec<f64> = self.samples.iter().map(field).collect();
        median(&setups)
    }

    /// The six end-to-end metrics, in `BENCHMARK.json`'s order: times as
    /// the reference host would have taken them, memory as measured.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let warm_up = &self.samples[0];
        vec![
            ("wall_s", self.median_timed(|s| s.wall_s / s.timed_factor())),
            ("cpu_s", self.median_timed(|s| s.cpu_s / s.timed_factor())),
            ("alloc_mib", self.median_timed(|s| s.alloc_mib)),
            ("peak_heap_mib", warm_up.peak_heap_mib),
            ("peak_rss_mib", warm_up.peak_rss_mib),
            (
                "setup_s",
                self.median_setup(|s| s.setup_s / s.setup_factor()),
            ),
        ]
    }

    /// The three time metrics as the clock read them, for the reader.
    pub fn raw_times(&self) -> [(&'static str, f64); 3] {
        [
            ("wall_s", self.median_timed(|s| s.wall_s)),
            ("cpu_s", self.median_timed(|s| s.cpu_s)),
            ("setup_s", self.median_setup(|s| s.setup_s)),
        ]
    }
}

/// Median, minimum and maximum processor time of the calibration kernel
/// over every reading of `samples`, in ms.
pub fn calibration(samples: &[Sample]) -> (f64, f64, f64) {
    let ms: Vec<f64> = samples.iter().flat_map(|s| s.calib_ms).collect();
    let min = ms.iter().copied().fold(f64::INFINITY, f64::min);
    let max = ms.iter().copied().fold(0.0, f64::max);
    (median(&ms), min, max)
}
