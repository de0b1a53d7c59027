//! Resource accounting: per-thread CPU attribution, process memory,
//! allocation counters, and the buffer pools' memory ledger.
//!
//! The rest of the observability stack measures *pipeline* behavior —
//! where stage time went, how deep queues ran, which round was slow.
//! This module measures the *machine underneath it*:
//!
//! * a stage thread of an observed program reads its own CPU clock
//!   (`CLOCK_THREAD_CPUTIME_ID`, in ns) and context-switch counts
//!   (`getrusage(RUSAGE_THREAD)`) as it exits and hands the row back with
//!   its stage statistics, adding its `yields` ([`yield_core`]);
//! * process RSS and peak RSS come from `VmRSS` and `VmHWM` in
//!   `/proc/self/status`;
//! * the opt-in tracking allocator's per-stage counters
//!   ([`alloc`](crate::alloc)) are read as they stand;
//! * a [`MemoryLedger`] keeps the buffer pools' total and high-water marks
//!   against a configurable budget.
//!
//! Everything funnels through one value type, [`ResourceReport`].  A
//! program run with a metrics registry or a ledger attached returns one in
//! [`Report::resources`](crate::Report::resources): its stage threads'
//! exit rows plus one read of the process, allocator and ledger at the end
//! of the run.  No thread samples on a cadence: RSS peak, the allocator
//! counters and the ledger peak are high-water marks or running totals, so
//! one read at the end says what every tick would have.  A live sample
//! ([`ResourceReport::sample_now`]: no thread rows) serves
//! `GET /resources`, the default `GET /report` and the watchdog
//! post-mortem.
//!
//! Off Linux a thread has no exit row, and where `/proc` is unreadable the
//! first failed read warns once a process and the RSS fields stay 0 —
//! allocator and ledger accounting (plain atomics) keep working
//! everywhere.

use std::cell::Cell;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

use crate::json::{obj, Json};

/// Set by the first sample that found `/proc` unreadable: a fleet of
/// samples failing alike warns once a process, not once a sample.
static PROC_WARNED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static YIELDS: Cell<u64> = const { Cell::new(0) };
}

/// Give the calling thread's core away once, and count it: what a thread
/// that found nothing to take does before it parks (DESIGN.md §5c).  The
/// kernel books a yield that switches threads as an *involuntary* switch,
/// so the thread's exit row reports the count beside `invol_switches`
/// for a reader to take back out.
pub fn yield_core() {
    YIELDS.with(|y| y.set(y.get() + 1));
    std::thread::yield_now();
}

/// How many times the calling thread has called [`yield_core`].
pub fn thread_yields() -> u64 {
    YIELDS.with(Cell::get)
}

/// Process RSS and peak RSS in bytes, from the `VmRSS` and `VmHWM` lines
/// of `<proc_root>/self/status`.
fn process_memory(proc_root: &Path) -> Option<(u64, u64)> {
    let status = std::fs::read_to_string(proc_root.join("self/status")).ok()?;
    let rss = parse_status_kb(&status, "VmRSS:")? * 1024;
    let peak = parse_status_kb(&status, "VmHWM:").map_or(rss, |kb| (kb * 1024).max(rss));
    Some((rss, peak))
}

/// The `123` of a `key:\t123 kB` line in a `/proc/.../status` file.
fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

// ---------------------------------------------------------------------------
// Memory ledger
// ---------------------------------------------------------------------------

/// Buffer-pool accounting: how many pool buffers (and bytes) are
/// outstanding and their high-water marks, against an optional budget.
/// Attach one to a [`Program`](crate::Program) with
/// [`Program::set_memory_ledger`](crate::Program::set_memory_ledger);
/// each pool is charged as its buffers are created and credited as they
/// retire.  This is the accounting primitive a daemon's admission control
/// builds on: admit a program only when `budget - total` covers its pool.
#[derive(Debug, Default)]
pub struct MemoryLedger {
    /// Budget in bytes; 0 means unbudgeted (accounting only).
    budget_bytes: AtomicU64,
    total_bytes: AtomicU64,
    peak_bytes: AtomicU64,
    buffers: AtomicU64,
    total_buffers: AtomicU64,
}

impl MemoryLedger {
    /// An unbudgeted ledger (accounting only).
    pub fn new() -> MemoryLedger {
        MemoryLedger::default()
    }

    /// A ledger with a `budget` in bytes; [`diagnose`](crate::diagnose)
    /// reports a memory-bound finding when process RSS approaches it.
    pub fn with_budget(budget: u64) -> MemoryLedger {
        let l = MemoryLedger::new();
        l.budget_bytes.store(budget, Relaxed);
        l
    }

    /// The configured budget in bytes (0 = unbudgeted).
    pub fn budget(&self) -> u64 {
        self.budget_bytes.load(Relaxed)
    }

    /// Charge one pool buffer of `bytes` capacity: it was just created.
    pub fn charge_pool(&self, bytes: u64) {
        let buffers = self.buffers.fetch_add(1, Relaxed) + 1;
        self.total_buffers.fetch_max(buffers, Relaxed);
        let now = self.total_bytes.fetch_add(bytes, Relaxed) + bytes;
        self.peak_bytes.fetch_max(now, Relaxed);
    }

    /// Credit one pool buffer of `bytes` capacity: it was retired as its
    /// pipeline or program ended (a pool buffer cannot outlive its program;
    /// a `BufferStock` keeps only its storage).  The high-water marks stay.
    pub fn credit_pool(&self, bytes: u64) {
        self.buffers
            .fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(1)))
            .ok();
        self.total_bytes
            .fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(bytes)))
            .ok();
    }

    /// `(buffers, bytes)` of pool charged and not yet credited — zero once
    /// every program sharing the ledger has finished.
    pub fn outstanding(&self) -> (u64, u64) {
        (self.buffers.load(Relaxed), self.total_bytes.load(Relaxed))
    }

    /// Point-in-time copy of the whole ledger.
    pub fn snapshot(&self) -> LedgerSnapshot {
        LedgerSnapshot {
            budget_bytes: self.budget(),
            total_bytes: self.total_bytes.load(Relaxed),
            peak_bytes: self.peak_bytes.load(Relaxed),
            total_buffers: self.total_buffers.load(Relaxed),
        }
    }
}

/// A [`MemoryLedger`] at a point in time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LedgerSnapshot {
    /// Configured budget in bytes (0 = unbudgeted).
    pub budget_bytes: u64,
    /// Pool bytes currently outstanding.
    pub total_bytes: u64,
    /// High-water mark of `total_bytes`.
    pub peak_bytes: u64,
    /// High-water mark of pool buffers outstanding at once.
    pub total_buffers: u64,
}

// ---------------------------------------------------------------------------
// ResourceReport
// ---------------------------------------------------------------------------

/// One stage thread's CPU attribution, read by the thread as it exits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadResources {
    /// The thread's name (`program/stage`, `program/stage#i`).
    pub name: String,
    /// CPU time, user and system, nanoseconds
    /// (`CLOCK_THREAD_CPUTIME_ID`).
    pub cpu_ns: u64,
    /// Voluntary context switches (blocking waits).
    pub vol_switches: u64,
    /// Involuntary context switches: preemptions, and the [`yields`]
    /// that handed the core to another thread.
    ///
    /// [`yields`]: ThreadResources::yields
    pub invol_switches: u64,
    /// [`yield_core`] calls.  `invol_switches − yields` is a lower bound
    /// on preemptions.
    pub yields: u64,
}

/// One allocator tag's counters (see [`alloc`](crate::alloc)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AllocResources {
    /// Stage tag (stage base name, or refinements like `sort/steady`).
    pub stage: String,
    /// Allocations charged to the tag, cumulative.
    pub allocs: u64,
    /// Frees charged to the tag, cumulative.
    pub frees: u64,
    /// Bytes allocated, cumulative.
    pub bytes: u64,
    /// Bytes freed, cumulative.
    pub freed_bytes: u64,
}

/// Point-in-time resource attribution: per-thread CPU, process memory,
/// allocator counters, and the buffer ledger.  See the module docs for
/// the surfaces this feeds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResourceReport {
    /// Process resident set size in bytes (0 when `/proc` is unavailable).
    pub rss_bytes: u64,
    /// Process peak RSS (`VmHWM`) in bytes.
    pub rss_peak_bytes: u64,
    /// Exit rows of a finished run's stage threads, in stage order; empty
    /// in a live sample and off Linux.
    pub threads: Vec<ThreadResources>,
    /// True when the tracking allocator served the process — without it
    /// the `alloc` rows mean "no data", not "zero allocations".
    pub alloc_tracking: bool,
    /// Per-stage allocator counters (only tags with activity).
    pub alloc: Vec<AllocResources>,
    /// Live heap bytes across all tags (tracking allocator only).
    pub alloc_current_bytes: u64,
    /// Peak heap bytes across all tags (tracking allocator only).
    pub alloc_peak_bytes: u64,
    /// Buffer-pool ledger, when a [`MemoryLedger`] was attached.
    pub ledger: Option<LedgerSnapshot>,
}

impl ResourceReport {
    /// Sample the process right now: RSS/peak, the allocator counters,
    /// and `ledger` if given.  No thread rows: a thread's row is read by
    /// the thread as it exits.
    pub fn sample_now(ledger: Option<&MemoryLedger>) -> ResourceReport {
        Self::collect(Path::new("/proc"), ledger, Vec::new())
    }

    /// A finished run's resources: its stage threads' exit rows and one
    /// read of the process, the allocator and `ledger`.
    pub(crate) fn at_run_end(
        ledger: Option<&MemoryLedger>,
        exit_rows: Vec<ThreadResources>,
    ) -> ResourceReport {
        Self::collect(Path::new("/proc"), ledger, exit_rows)
    }

    /// Where `proc_root` is unreadable (a test points it at a directory
    /// that does not exist) the RSS fields stay 0, with one warning a
    /// process; the thread rows are kept whatever `/proc` says.
    fn collect(
        proc_root: &Path,
        ledger: Option<&MemoryLedger>,
        threads: Vec<ThreadResources>,
    ) -> ResourceReport {
        let mut report = ResourceReport {
            threads,
            alloc_tracking: crate::alloc::installed(),
            ledger: ledger.map(MemoryLedger::snapshot),
            ..ResourceReport::default()
        };
        for (stage, c) in crate::alloc::snapshot() {
            report.alloc.push(AllocResources {
                stage,
                allocs: c.allocs,
                frees: c.frees,
                bytes: c.bytes,
                freed_bytes: c.freed_bytes,
            });
        }
        let (current, peak) = crate::alloc::process_bytes();
        report.alloc_current_bytes = current;
        report.alloc_peak_bytes = peak;
        match process_memory(proc_root) {
            Some((rss, rss_peak)) => {
                report.rss_bytes = rss;
                report.rss_peak_bytes = rss_peak;
            }
            None if !PROC_WARNED.swap(true, Relaxed) => eprintln!(
                "fg: resource accounting degraded, no RSS ({} unreadable)",
                proc_root.display()
            ),
            None => {}
        }
        report
    }

    /// The calling thread's final row — what a stage thread of an observed
    /// program hands back as it exits: its CPU clock, its context switches
    /// and its [`yield_core`] count.  Two system calls once per thread
    /// lifetime; `None` off Linux or if either call fails.
    ///
    /// CPU comes from `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`, not from
    /// `getrusage`'s `ru_utime + ru_stime`, which read 0 for a 0.5 ms spin
    /// and 2.7–3.9 ms for a 5 ms one where the clock read 0.54 and 5.01.
    #[allow(unsafe_code)]
    pub(crate) fn exit_sample(name: &str) -> Option<ThreadResources> {
        #[cfg(not(target_os = "linux"))]
        {
            let _ = name;
            return None;
        }
        #[cfg(target_os = "linux")]
        {
            use std::ffi::{c_int, c_long};
            #[repr(C)]
            struct Timespec {
                sec: c_long,
                nsec: c_long,
            }
            /// `struct rusage`: two `timeval`s, then 14 `long`s of which
            /// the last two are the context-switch counts.
            #[repr(C)]
            struct Rusage {
                times: [c_long; 4],
                counts: [c_long; 12],
                nvcsw: c_long,
                nivcsw: c_long,
            }
            extern "C" {
                fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
                fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
            }
            const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
            const RUSAGE_THREAD: c_int = 1;
            let mut ts = Timespec { sec: 0, nsec: 0 };
            let mut ru = Rusage {
                times: [0; 4],
                counts: [0; 12],
                nvcsw: 0,
                nivcsw: 0,
            };
            // SAFETY: `Timespec` and `Rusage` have the layout of Linux's
            // `struct timespec` and `struct rusage`, whose fields are all
            // `long`s, and each call writes only the struct it is handed.
            let ok = unsafe {
                clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) == 0
                    && getrusage(RUSAGE_THREAD, &mut ru) == 0
            };
            ok.then(|| ThreadResources {
                name: name.to_string(),
                cpu_ns: ts.sec as u64 * 1_000_000_000 + ts.nsec as u64,
                vol_switches: ru.nvcsw as u64,
                invol_switches: ru.nivcsw as u64,
                yields: thread_yields(),
            })
        }
    }

    /// True when the report carries no data at all (nothing sampled,
    /// nothing tracked).
    pub fn is_empty(&self) -> bool {
        self.rss_bytes == 0
            && self.threads.is_empty()
            && self.alloc.is_empty()
            && self.ledger.is_none()
    }

    /// The report as a JSON object.
    pub fn to_json_value(&self) -> Json {
        let mut members = vec![
            ("rss_bytes", Json::from(self.rss_bytes)),
            ("rss_peak_bytes", Json::from(self.rss_peak_bytes)),
            (
                "threads",
                Json::Arr(
                    self.threads
                        .iter()
                        .map(|t| {
                            obj(vec![
                                ("name", Json::from(t.name.as_str())),
                                ("cpu_ns", Json::from(t.cpu_ns)),
                                ("vol_switches", Json::from(t.vol_switches)),
                                ("invol_switches", Json::from(t.invol_switches)),
                                ("yields", Json::from(t.yields)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("alloc_tracking", Json::Bool(self.alloc_tracking)),
            (
                "alloc",
                Json::Arr(
                    self.alloc
                        .iter()
                        .map(|a| {
                            obj(vec![
                                ("stage", Json::from(a.stage.as_str())),
                                ("count", Json::from(a.allocs)),
                                ("frees", Json::from(a.frees)),
                                ("bytes", Json::from(a.bytes)),
                                ("freed_bytes", Json::from(a.freed_bytes)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("alloc_current_bytes", Json::from(self.alloc_current_bytes)),
            ("alloc_peak_bytes", Json::from(self.alloc_peak_bytes)),
        ];
        if let Some(ledger) = &self.ledger {
            members.push((
                "ledger",
                obj(vec![
                    ("budget_bytes", Json::from(ledger.budget_bytes)),
                    ("total_bytes", Json::from(ledger.total_bytes)),
                    ("peak_bytes", Json::from(ledger.peak_bytes)),
                    ("total_buffers", Json::from(ledger.total_buffers)),
                ]),
            ));
        }
        obj(members)
    }

    /// Human-readable rendering — the `== resources ==` dashboard section.
    pub fn render(&self) -> String {
        let mb = |b: u64| b as f64 / (1024.0 * 1024.0);
        let mut out = String::new();
        if self.rss_bytes > 0 {
            out.push_str(&format!(
                "process rss {:.1} MiB (peak {:.1} MiB)\n",
                mb(self.rss_bytes),
                mb(self.rss_peak_bytes)
            ));
        }
        if self.alloc_tracking {
            out.push_str(&format!(
                "heap live {:.1} MiB (peak {:.1} MiB), tracking allocator on\n",
                mb(self.alloc_current_bytes),
                mb(self.alloc_peak_bytes)
            ));
        }
        if !self.threads.is_empty() {
            let name_w = self
                .threads
                .iter()
                .map(|t| t.name.len())
                .max()
                .unwrap_or(6)
                .max(6);
            out.push_str(&format!(
                "{:<name_w$} {:>9} {:>8} {:>8} {:>8}\n",
                "thread", "cpu ms", "vol cs", "invol cs", "yields"
            ));
            for t in &self.threads {
                out.push_str(&format!(
                    "{:<name_w$} {:>9.3} {:>8} {:>8} {:>8}\n",
                    t.name,
                    t.cpu_ns as f64 / 1e6,
                    t.vol_switches,
                    t.invol_switches,
                    t.yields
                ));
            }
        }
        if !self.alloc.is_empty() {
            let name_w = self
                .alloc
                .iter()
                .map(|a| a.stage.len())
                .max()
                .unwrap_or(5)
                .max(5);
            out.push_str(&format!(
                "{:<name_w$} {:>10} {:>10} {:>12} {:>12}\n",
                "alloc", "count", "frees", "bytes", "freed"
            ));
            for a in &self.alloc {
                out.push_str(&format!(
                    "{:<name_w$} {:>10} {:>10} {:>12} {:>12}\n",
                    a.stage, a.allocs, a.frees, a.bytes, a.freed_bytes
                ));
            }
        }
        if let Some(ledger) = &self.ledger {
            let budget = if ledger.budget_bytes > 0 {
                format!(" of {:.1} MiB budget", mb(ledger.budget_bytes))
            } else {
                String::new()
            };
            out.push_str(&format!(
                "ledger: {:.1} MiB outstanding (peak {:.1} MiB in {} buffers){budget}\n",
                mb(ledger.total_bytes),
                mb(ledger.peak_bytes),
                ledger.total_buffers
            ));
        }
        if out.is_empty() {
            out.push_str("no resource data\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_parsing_extracts_fields() {
        let status = "Name:\tfgsort\nVmHWM:\t    5280 kB\nVmRSS:\t    4000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM:"), Some(5280));
        assert_eq!(parse_status_kb(status, "VmRSS:"), Some(4000));
        assert_eq!(parse_status_kb(status, "VmSwap:"), None);
    }

    #[test]
    fn unreadable_proc_degrades_to_inert_report() {
        let root = Path::new("/nonexistent-fg-proc-root");
        let report = ResourceReport::collect(root, None, Vec::new());
        assert_eq!(report.rss_bytes, 0);
        assert!(report.threads.is_empty());
        // A finished run's exit rows do not depend on `/proc`.
        let rows = vec![ThreadResources {
            name: "p/s".into(),
            cpu_ns: 7,
            ..ThreadResources::default()
        }];
        let report = ResourceReport::collect(root, None, rows.clone());
        assert_eq!((report.rss_bytes, report.threads), (0, rows));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_sample_reads_process_memory() {
        let report = ResourceReport::sample_now(None);
        assert!(report.rss_bytes > 0, "linux must report RSS");
        assert!(report.rss_peak_bytes >= report.rss_bytes);
        assert!(report.threads.is_empty(), "{:?}", report.threads);
    }

    #[test]
    fn ledger_accounts_and_clamps() {
        let ledger = MemoryLedger::with_budget(1024);
        ledger.charge_pool(600);
        ledger.charge_pool(600);
        assert_eq!(ledger.outstanding(), (2, 1200));
        ledger.credit_pool(600);
        assert_eq!(ledger.outstanding(), (1, 600));
        // A credit past what is outstanding clamps at zero, not wraps.
        ledger.credit_pool(600);
        ledger.credit_pool(600);
        assert_eq!(ledger.outstanding(), (0, 0));
        let snap = ledger.snapshot();
        assert_eq!(snap.budget_bytes, 1024);
        assert_eq!(snap.total_buffers, 2, "a high-water mark, like peak_bytes");
        assert_eq!(snap.peak_bytes, 1200);
    }

    #[test]
    fn render_mentions_every_section() {
        let report = ResourceReport {
            rss_bytes: 1 << 20,
            rss_peak_bytes: 1 << 20,
            threads: vec![ThreadResources {
                name: "t".into(),
                ..ThreadResources::default()
            }],
            alloc_tracking: true,
            alloc: vec![AllocResources {
                stage: "sort".into(),
                allocs: 1,
                ..AllocResources::default()
            }],
            ledger: Some(LedgerSnapshot::default()),
            ..ResourceReport::default()
        };
        let text = report.render();
        assert!(text.contains("process rss"));
        assert!(text.contains("thread"));
        assert!(text.contains("alloc"));
        assert!(text.contains("ledger:"));
        assert_eq!(ResourceReport::default().render(), "no resource data\n");
    }
}
