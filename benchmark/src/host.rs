//! What the harness reads from the host: process CPU time and memory
//! high-water mark out of `/proc`, the facts printed in the output header,
//! and the calibration kernel behind `host.calib_ms`.

use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// `/proc/<pid>/stat` reports times in `USER_HZ` ticks, which the Linux
/// ABI fixes at 100 on every architecture (it is not the kernel's `HZ`).
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds of every thread the process ever had, from
/// `/proc/self/stat`.  Resolution: one tick, 10 ms.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields count from after
    // its closing parenthesis, where field 3 is the first.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks() + ticks()) / TICKS_PER_SEC
}

/// Peak resident set size (`VmHWM`) in bytes since the last
/// [`reset_peak_rss`].
pub fn peak_rss_bytes() -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Reset the process's RSS high-water mark to its current RSS.  A kernel
/// that refuses leaves the lifetime peak in place, which still bounds the
/// sort's from above.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Filesystem type of the mount that holds `path`, from
/// `/proc/self/mountinfo`.
pub fn fs_type(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let info = fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    info.lines()
        .filter_map(|line| {
            // "... <mount point> <options> [optional]* - <fstype> <source> ..."
            let (left, right) = line.split_once(" - ")?;
            let mount = left.split(' ').nth(4)?;
            let fstype = right.split(' ').next()?;
            path.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, t)| t.to_string())
}

/// The facts a reader needs to tell a slow host from a slow program.
pub fn describe(scratch: &Path) -> String {
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "nproc {cores}, kernel {}, scratch fs {}",
        kernel.trim(),
        fs_type(scratch)
    )
}

/// Nanoseconds the calling thread has spent on a processor, from
/// `/proc/thread-self/schedstat`; 0 where the kernel does not keep it.
fn thread_cpu_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// How many times slower than the reference host this host ran the
/// calibration kernel, going by the two readings that bracket a step.
pub fn host_factor(before_ms: f64, after_ms: f64) -> f64 {
    (before_ms + after_ms) / 2.0 / Calibration::REFERENCE_CPU_MS
}

/// The calibration kernel: fixed work whose cost depends on the host alone.
///
/// [`Calibration::CHUNKS`] chunks, each filling 256 KiB with pseudo-random
/// words and sorting them with the standard library's sort: integer work
/// and cache traffic, in code no change to this repository can touch.  Two
/// threads take chunks from one counter, as the programs' threads share the
/// two cores of the reference host; the host's speed changes per core, and
/// one thread would see one core's.
pub struct Calibration {
    words: [Vec<u64>; 2],
}

impl Calibration {
    const WORDS: usize = 1 << 15;
    const CHUNKS: usize = 160;
    /// The reference host is the one on which the kernel costs this much
    /// processor time: the 2-core guest described in README.md when nothing
    /// disturbs it.  Times are reported as that host would have taken them.
    pub const REFERENCE_CPU_MS: f64 = 76.0;

    pub fn new() -> Self {
        Calibration {
            words: [vec![0; Self::WORDS], vec![0; Self::WORDS]],
        }
    }

    /// Run the kernel; the processor time of its two threads together, in
    /// milliseconds.
    pub fn run_ms(&mut self) -> f64 {
        let next = AtomicUsize::new(0);
        let t0 = Instant::now();
        let cpu_ns: u64 = std::thread::scope(|s| {
            let threads: Vec<_> = self
                .words
                .iter_mut()
                .map(|words| {
                    let next = &next;
                    s.spawn(move || {
                        let cpu0 = thread_cpu_ns();
                        loop {
                            let chunk = next.fetch_add(1, Ordering::Relaxed);
                            if chunk >= Self::CHUNKS {
                                break thread_cpu_ns() - cpu0;
                            }
                            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ chunk as u64;
                            for word in words.iter_mut() {
                                x ^= x << 13;
                                x ^= x >> 7;
                                x ^= x << 17;
                                *word = x;
                            }
                            words.sort_unstable();
                            std::hint::black_box(&words);
                        }
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("calibration thread"))
                .sum()
        });
        if cpu_ns > 0 {
            cpu_ns as f64 / 1e6
        } else {
            // A kernel without schedstat: both threads were busy throughout.
            2.0 * t0.elapsed().as_secs_f64() * 1e3
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_live_values() {
        let mut calib = Calibration::new();
        let before = cpu_seconds();
        while cpu_seconds() - before < 0.02 {
            let t0 = Instant::now();
            let cpu_ms = calib.run_ms();
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            // Two threads: between half and two processors' worth of time.
            assert!(cpu_ms > 0.5 * wall_ms, "{cpu_ms} CPU-ms in {wall_ms} ms");
            assert!(cpu_ms < 2.5 * wall_ms, "{cpu_ms} CPU-ms in {wall_ms} ms");
        }
        assert!(peak_rss_bytes() > (2 * Calibration::WORDS * 8) as u64);
        assert_ne!(fs_type(Path::new("/proc")), "unknown");
    }
}
