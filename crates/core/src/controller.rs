//! Closed-loop autotuning: a controller that turns live telemetry into
//! actuation.
//!
//! FG's thesis is that the framework — not the programmer — should own
//! overlap and buffer management.  The analyzer ([`diagnose`]) can *name*
//! the limiting stage and *recommend* `workers(n)` or more buffers, but a
//! recommendation read after the run ends changes nothing.  This module
//! closes the loop while the program is still running:
//!
//! 1. an internal [`Sampler`] snapshots the metrics registry every few
//!    milliseconds;
//! 2. a decide thread turns a sliding window of those snapshots into the
//!    [`Report`] of its span ([`window_report`]) and runs the one
//!    post-run diagnoser, [`diagnose`], on it;
//! 3. a small policy maps the windowed verdict onto two actuators — farm
//!    width ([`ReplicaGroup::set_active`]) and pipeline buffer-pool size
//!    ([`PoolControl`]).  A pool is also its pipeline's read-ahead (a read
//!    stage fills the next buffer while the rest work on the last), so
//!    there is no I/O depth to tune beside it.
//!
//! Actuation safety comes from three rules, all enforced here or in the
//! actuators themselves:
//!
//! * **round boundaries only** — a farm width change parks replicas at the
//!   admission gate *between* rounds (never mid-buffer), and a pool is
//!   resized by its first stage as a buffer comes home;
//! * **hysteresis** — a proposal must repeat for `confirm` consecutive
//!   decision ticks before it is applied, and after every actuation the
//!   controller holds off for `cooldown` ticks so the measured effect is
//!   attributable;
//! * **min/max clamps** — farms move within `1..=declared replicas`, pools
//!   within their declared `min..=max`.
//!
//! Every decision is itself first-class observability: it lands in a
//! bounded audit log ([`ControllerLog`], exported in the JSON report),
//! bumps `controller/*` metrics, records a
//! [`TraceKind::Actuate`](crate::trace::TraceKind::Actuate) span in the
//! flight recorder, and refreshes the JSON document served by
//! `GET /control` on the telemetry server.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::analyze::{diagnose, window_report, Diagnosis, StageVerdict, PINNED_FRAC};
use crate::json::{obj, Json};
use crate::metrics::MetricsRegistry;
use crate::program::replica_base;
use crate::stage::ReplicaGroup;
use crate::stats::{Report, StageStats};
use crate::telemetry::{Sampler, SamplerCfg};
use crate::trace::{SpanRing, TraceKind, IO_PIPELINE};

/// Live handle on one pipeline's buffer pool.
///
/// The pool is the queue that closes the pipeline's loop: the last stage
/// conveys into it and the first stage accepts from it.  As a buffer comes
/// home, the first stage's accept grows the pool by pushing fresh buffers
/// in beside it, or shrinks it by dropping that buffer instead of starting
/// its next round — at a round boundary either way, so the pool resizes
/// without ever touching a buffer a stage holds.
#[derive(Debug)]
pub struct PoolControl {
    pipeline: String,
    recycle_name: String,
    min: usize,
    max: usize,
    target: AtomicUsize,
    size: AtomicUsize,
}

impl PoolControl {
    pub(crate) fn new(
        pipeline: impl Into<String>,
        recycle_name: impl Into<String>,
        initial: usize,
        min: usize,
        max: usize,
    ) -> Arc<PoolControl> {
        let min = min.max(1);
        let max = max.max(min);
        Arc::new(PoolControl {
            pipeline: pipeline.into(),
            recycle_name: recycle_name.into(),
            min,
            max,
            target: AtomicUsize::new(initial.clamp(min, max)),
            size: AtomicUsize::new(initial.clamp(min, max)),
        })
    }

    /// The pipeline this pool belongs to.
    pub fn pipeline(&self) -> &str {
        &self.pipeline
    }

    /// Name of the pool's queue (`recycle/<pipeline>`, …), which is what
    /// the windowed diagnosis observes running dry.
    pub fn recycle_name(&self) -> &str {
        &self.recycle_name
    }

    /// The size the controller is steering toward.
    pub fn target(&self) -> usize {
        self.target.load(Ordering::SeqCst)
    }

    /// Buffers currently in circulation.
    pub fn size(&self) -> usize {
        self.size.load(Ordering::SeqCst)
    }

    /// The declared ceiling (queue capacities are pre-sized to admit it).
    pub fn max(&self) -> usize {
        self.max
    }

    /// Steer toward `n` buffers, clamped to the declared `min..=max`;
    /// returns the clamped target.  The pool converges on it over the next
    /// few round boundaries.
    pub fn set_target(&self, n: usize) -> usize {
        let n = n.clamp(self.min, self.max);
        self.target.store(n, Ordering::SeqCst);
        n
    }

    /// Claim permission to add one fresh buffer.
    pub(crate) fn try_grow(&self) -> bool {
        self.size
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |s| {
                (s < self.target()).then_some(s + 1)
            })
            .is_ok()
    }

    /// Claim permission to drop one buffer that has come home.
    pub(crate) fn try_shrink(&self) -> bool {
        self.size
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |s| {
                (s > self.target()).then_some(s - 1)
            })
            .is_ok()
    }
}

/// Shared slot holding the controller's current state as a JSON document —
/// what `GET /control` on the telemetry server returns.  The controller
/// refreshes it every decision tick.
#[derive(Default)]
pub struct ControlStatus {
    doc: Mutex<Option<String>>,
}

impl std::fmt::Debug for ControlStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlStatus").finish_non_exhaustive()
    }
}

impl ControlStatus {
    /// The current state document, or a stub when no controller has
    /// published yet.
    pub fn get_json(&self) -> String {
        self.doc
            .lock()
            .clone()
            .unwrap_or_else(|| "{\"active\":false}".to_string())
    }

    fn set(&self, doc: String) {
        *self.doc.lock() = Some(doc);
    }
}

/// Controller tuning knobs.  The defaults favor fast convergence on
/// second-scale passes; longer passes can afford longer windows.
#[derive(Debug, Clone)]
pub struct ControllerCfg {
    /// Telemetry sampling interval of the controller's internal
    /// [`Sampler`].
    pub sample_interval: Duration,
    /// Interval between decision ticks.
    pub decide_interval: Duration,
    /// A proposal must repeat for this many consecutive ticks before it is
    /// applied (hysteresis against verdict flicker).
    pub confirm: usize,
    /// Decision ticks to hold off after an actuation, so its measured
    /// effect is attributable before the next change.
    pub cooldown: usize,
    /// Override every farm's starting width (clamped to each farm's
    /// declared replica count).  `None` starts farms at full width.
    pub initial_workers: Option<usize>,
    /// Live state slot shared with a telemetry server's `GET /control`.
    pub status: Arc<ControlStatus>,
}

impl Default for ControllerCfg {
    fn default() -> ControllerCfg {
        ControllerCfg {
            sample_interval: Duration::from_millis(10),
            decide_interval: Duration::from_millis(50),
            confirm: 2,
            cooldown: 2,
            initial_workers: None,
            status: Arc::new(ControlStatus::default()),
        }
    }
}

/// One audited controller decision: what was observed, what was done, and
/// what happened next.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Monotonic decision number (also carried in the `round` field of the
    /// actuation's trace span).
    pub seq: u64,
    /// Time since the controller started when the actuation fired.
    pub at: Duration,
    /// Span of the observation window behind the verdict.
    pub window: Duration,
    /// The windowed verdict that motivated the action.
    pub verdict: String,
    /// The actuation applied.
    pub action: String,
    /// Window throughput (buffers/s through the fastest stage) at decision
    /// time.
    pub throughput_before: f64,
    /// Window throughput once the cooldown elapsed — the measured effect.
    /// `None` if the run ended first.
    pub throughput_after: Option<f64>,
}

impl Decision {
    fn to_json_value(&self) -> Json {
        obj(vec![
            ("seq", Json::from(self.seq)),
            ("at_ns", Json::from(self.at.as_nanos() as u64)),
            ("window_ns", Json::from(self.window.as_nanos() as u64)),
            ("verdict", Json::from(self.verdict.as_str())),
            ("action", Json::from(self.action.as_str())),
            ("throughput_before", Json::from(self.throughput_before)),
            (
                "throughput_after",
                match self.throughput_after {
                    Some(t) => Json::from(t),
                    None => Json::Null,
                },
            ),
        ])
    }

    fn from_json_value(j: &Json) -> Result<Decision, String> {
        let num = |key: &str| {
            j.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing or non-numeric decision field {key:?}"))
        };
        let text = |key: &str| {
            j.get(key)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or_else(|| format!("missing or non-string decision field {key:?}"))
        };
        Ok(Decision {
            seq: num("seq")? as u64,
            at: Duration::from_nanos(num("at_ns")? as u64),
            window: Duration::from_nanos(num("window_ns")? as u64),
            verdict: text("verdict")?,
            action: text("action")?,
            throughput_before: num("throughput_before")?,
            throughput_after: j.get("throughput_after").and_then(Json::as_f64),
        })
    }
}

/// The controller's bounded decision audit log, exported as the
/// `"controller"` member of the JSON report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ControllerLog {
    /// Audited decisions, oldest first (the newest 256; older ones are
    /// evicted).
    pub decisions: Vec<Decision>,
    /// Decision ticks taken.
    pub ticks: u64,
    /// Actuations applied (≤ `decisions.len()` only if the log evicted).
    pub actuations: u64,
}

impl ControllerLog {
    /// The log as a [`Json`] value.
    pub fn to_json_value(&self) -> Json {
        obj(vec![
            ("ticks", Json::from(self.ticks)),
            ("actuations", Json::from(self.actuations)),
            (
                "decisions",
                Json::Arr(self.decisions.iter().map(|d| d.to_json_value()).collect()),
            ),
        ])
    }

    /// Parse a log written by [`ControllerLog::to_json_value`].
    pub fn from_json_value(j: &Json) -> Result<ControllerLog, String> {
        Ok(ControllerLog {
            ticks: j.get("ticks").and_then(Json::as_u64).unwrap_or(0),
            actuations: j.get("actuations").and_then(Json::as_u64).unwrap_or(0),
            decisions: j
                .get("decisions")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(Decision::from_json_value)
                .collect::<Result<Vec<_>, _>>()?,
        })
    }
}

/// The live handles a controller drives, collected by the planner.
#[derive(Default)]
pub(crate) struct Actuators {
    pub(crate) farms: Vec<Arc<ReplicaGroup>>,
    pub(crate) pools: Vec<Arc<PoolControl>>,
}

/// What the policy wants to do next tick, compared across ticks for
/// hysteresis.
#[derive(Debug, Clone, PartialEq)]
enum Action {
    GrowFarm(usize),
    ShrinkFarm(usize),
    GrowPool(usize),
}

struct Shared {
    stop: Mutex<bool>,
    cv: Condvar,
    log: Mutex<ControllerLog>,
}

/// The running control loop.  [`Controller::start`] spawns it;
/// [`Controller::stop`] joins it and yields the audit log.
pub struct Controller {
    shared: Arc<Shared>,
    handle: Option<JoinHandle<()>>,
}

impl Controller {
    /// Apply `initial_workers`, start the internal sampler, and spawn the
    /// decide thread.
    pub(crate) fn start(
        registry: Arc<MetricsRegistry>,
        cfg: ControllerCfg,
        actuators: Actuators,
        ring: Option<Arc<SpanRing>>,
    ) -> Controller {
        if let Some(w) = cfg.initial_workers {
            for farm in &actuators.farms {
                farm.set_active(w);
            }
        }
        let shared = Arc::new(Shared {
            stop: Mutex::new(false),
            cv: Condvar::new(),
            log: Mutex::new(ControllerLog::default()),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("fg/controller".into())
            .spawn(move || {
                let _reg = crate::profile::register_current_thread("controller");
                decide_loop(registry, cfg, actuators, ring, thread_shared)
            })
            .expect("spawn controller thread");
        Controller {
            shared,
            handle: Some(handle),
        }
    }

    /// Stop the decide thread and return the decision audit log.
    pub fn stop(mut self) -> ControllerLog {
        {
            let mut stop = self.shared.stop.lock();
            *stop = true;
            self.shared.cv.notify_all();
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        std::mem::take(&mut *self.shared.log.lock())
    }
}

fn decide_loop(
    registry: Arc<MetricsRegistry>,
    cfg: ControllerCfg,
    actuators: Actuators,
    ring: Option<Arc<SpanRing>>,
    shared: Arc<Shared>,
) {
    let sampler = Sampler::start(
        Arc::clone(&registry),
        SamplerCfg {
            interval: cfg.sample_interval,
            // Retain enough history that a late-read window is never
            // starved by eviction between decision ticks.
            capacity: WINDOW * 4,
        },
    );
    let started = std::time::Instant::now();
    let ticks = registry.counter("controller/ticks");
    let actuations = registry.counter("controller/actuations");

    let mut last_proposal: Option<Action> = None;
    let mut streak = 0usize;
    let mut cooldown = 0usize;
    // Seq of the decision whose measured effect is still pending.
    let mut pending: Option<u64> = None;
    let mut seq = 0u64;

    loop {
        {
            let mut stop = shared.stop.lock();
            if !*stop {
                shared.cv.wait_for(&mut stop, cfg.decide_interval);
            }
            if *stop {
                break;
            }
        }
        ticks.inc();
        shared.log.lock().ticks += 1;

        let series = sampler.series();
        let window = &series[series.len().saturating_sub(WINDOW)..];
        let report = window_report(window);
        publish_gauges(&registry, &actuators);
        let Some(report) = report else {
            publish_status(&cfg, &actuators, &shared, None);
            continue;
        };
        let diag = diagnose(&report, window);
        let throughput = throughput(&report);

        // Close out the previous actuation's effect once its cooldown has
        // elapsed, so "after" reflects the post-change steady state.
        if cooldown == 0 {
            if let Some(p) = pending.take() {
                let mut log = shared.log.lock();
                if let Some(d) = log.decisions.iter_mut().find(|d| d.seq == p) {
                    d.throughput_after = Some(throughput);
                }
            }
        }

        let proposal = propose(&diag, &actuators);
        if proposal == last_proposal && proposal.is_some() {
            streak += 1;
        } else {
            streak = 1;
            last_proposal = proposal.clone();
        }

        if cooldown > 0 {
            cooldown -= 1;
        } else if let Some(action) = proposal {
            if streak >= cfg.confirm.max(1) {
                let t0 = std::time::Instant::now();
                let description = apply(&action, &actuators);
                seq += 1;
                actuations.inc();
                if let Some(ring) = &ring {
                    ring.record(
                        TraceKind::Actuate,
                        IO_PIPELINE,
                        seq,
                        0,
                        ring.ns_of(t0),
                        ring.now_ns(),
                    );
                }
                let decision = Decision {
                    seq,
                    at: started.elapsed(),
                    window: report.wall,
                    verdict: describe_verdict(&diag),
                    action: description,
                    throughput_before: throughput,
                    throughput_after: None,
                };
                {
                    let mut log = shared.log.lock();
                    log.actuations += 1;
                    log.decisions.push(decision);
                    if log.decisions.len() > LOG_CAPACITY {
                        let excess = log.decisions.len() - LOG_CAPACITY;
                        log.decisions.drain(..excess);
                    }
                }
                pending = Some(seq);
                cooldown = cfg.cooldown;
                streak = 0;
                last_proposal = None;
                publish_gauges(&registry, &actuators);
            }
        }
        publish_status(&cfg, &actuators, &shared, Some((&diag, throughput)));
    }
    sampler.stop();
}

/// Sliding-window length, in samples, fed to [`window_report`].
const WINDOW: usize = 8;
/// Decisions the audit log retains (oldest evicted first).
const LOG_CAPACITY: usize = 256;

/// Buffers per second through the fastest stage of a window's report, a
/// farm's replicas summed — the controller's "is it going faster now?"
/// yardstick.
pub(crate) fn throughput(window: &Report) -> f64 {
    let rounds = |s: &StageStats| {
        let farm = replica_base(&s.name).and_then(|farm| window.stage_rollup(farm));
        farm.map_or(s.buffers_out, |(all, _)| all.buffers_out)
    };
    let most = window.stages.iter().map(rounds).max().unwrap_or(0);
    most as f64 / window.wall.as_secs_f64()
}

/// Map the windowed verdict onto at most one actuation, in priority
/// order: widen the limiting farm, grow a dry buffer pool, then narrow an
/// idle farm.
fn propose(diag: &Diagnosis, actuators: &Actuators) -> Option<Action> {
    // (1) The limiting stage is a farm running below its declared width:
    // more workers attack the bottleneck directly.
    if let Some(lim) = &diag.limiting {
        if let Some((i, farm)) = actuators
            .farms
            .iter()
            .enumerate()
            .find(|(_, f)| f.name() == lim)
        {
            let busy = diag
                .stages
                .iter()
                .find(|s| &s.name == lim)
                .is_some_and(|s| s.verdict == StageVerdict::Busy);
            if busy && farm.active() < farm.replica_count() {
                return Some(Action::GrowFarm(i));
            }
        }
    }
    // (2) A recycle pool runs dry while the pipeline still has headroom:
    // more buffers in flight smooth the overlap.
    for (i, pool) in actuators.pools.iter().enumerate() {
        let dry = diag
            .queue_findings
            .iter()
            .find(|q| q.name == pool.recycle_name())
            .is_some_and(|q| q.empty_frac > PINNED_FRAC);
        if dry && pool.target() < pool.max() {
            return Some(Action::GrowPool(i));
        }
    }
    // (3) A farm is mostly starved: its upstream cannot feed the current
    // width, so shed a worker (never below one).
    for (i, farm) in actuators.farms.iter().enumerate() {
        let starved = diag
            .stages
            .iter()
            .find(|s| s.name == farm.name())
            .is_some_and(|s| s.verdict == StageVerdict::Starved && s.starved_frac > PINNED_FRAC);
        if starved && farm.active() > 1 {
            return Some(Action::ShrinkFarm(i));
        }
    }
    None
}

/// Apply one action and return its audit-log description.
fn apply(action: &Action, actuators: &Actuators) -> String {
    match *action {
        Action::GrowFarm(i) => {
            let farm = &actuators.farms[i];
            let before = farm.active();
            let after = farm.set_active(before + 1);
            format!("grow farm `{}` {before} -> {after}", farm.name())
        }
        Action::ShrinkFarm(i) => {
            let farm = &actuators.farms[i];
            let before = farm.active();
            let after = farm.set_active(before.saturating_sub(1));
            format!("shrink farm `{}` {before} -> {after}", farm.name())
        }
        Action::GrowPool(i) => {
            let pool = &actuators.pools[i];
            let before = pool.target();
            let after = pool.set_target(before + 1);
            format!("grow pool `{}` {before} -> {after}", pool.pipeline())
        }
    }
}

/// One-line summary of the window behind a decision.
fn describe_verdict(diag: &Diagnosis) -> String {
    match &diag.limiting {
        Some(lim) => {
            let d = diag.stages.iter().find(|s| &s.name == lim);
            match d {
                Some(d) => format!(
                    "limiting `{lim}` {} {:.0}% (workers {})",
                    d.verdict.label(),
                    match d.verdict {
                        StageVerdict::Busy => d.busy_frac,
                        StageVerdict::Starved => d.starved_frac,
                        StageVerdict::Backpressured => d.backpressured_frac,
                    } * 100.0,
                    d.workers
                ),
                None => format!("limiting `{lim}`"),
            }
        }
        None => "no limiting stage in window".to_string(),
    }
}

fn publish_gauges(registry: &MetricsRegistry, actuators: &Actuators) {
    for farm in &actuators.farms {
        registry
            .gauge(&format!("controller/active_workers/{}", farm.name()))
            .set(farm.active() as u64);
    }
    for pool in &actuators.pools {
        registry
            .gauge(&format!("controller/pool_target/{}", pool.pipeline()))
            .set(pool.target() as u64);
    }
}

fn publish_status(
    cfg: &ControllerCfg,
    actuators: &Actuators,
    shared: &Shared,
    window: Option<(&Diagnosis, f64)>,
) {
    let log = shared.log.lock();
    let recent = log.decisions.iter().rev().take(8).rev();
    let doc = obj(vec![
        ("active", Json::Bool(true)),
        ("ticks", Json::from(log.ticks)),
        ("actuations", Json::from(log.actuations)),
        (
            "limiting",
            match window.and_then(|(d, _)| d.limiting.clone()) {
                Some(l) => Json::from(l),
                None => Json::Null,
            },
        ),
        (
            "throughput",
            match window {
                Some((_, t)) => Json::from(t),
                None => Json::Null,
            },
        ),
        (
            "farms",
            Json::Arr(
                actuators
                    .farms
                    .iter()
                    .map(|f| {
                        obj(vec![
                            ("name", Json::from(f.name())),
                            ("active", Json::from(f.active())),
                            ("replicas", Json::from(f.replica_count())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "pools",
            Json::Arr(
                actuators
                    .pools
                    .iter()
                    .map(|p| {
                        obj(vec![
                            ("pipeline", Json::from(p.pipeline())),
                            ("target", Json::from(p.target())),
                            ("size", Json::from(p.size())),
                            ("max", Json::from(p.max())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "recent_decisions",
            Json::Arr(recent.map(|d| d.to_json_value()).collect()),
        ),
    ]);
    drop(log);
    cfg.status.set(doc.to_string());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_control_clamps_and_converges() {
        let pool = PoolControl::new("p", "recycle/p", 3, 1, 6);
        assert_eq!(pool.target(), 3);
        assert_eq!(pool.size(), 3);
        // Clamped to the declared ceiling / floor.
        assert_eq!(pool.set_target(99), 6);
        assert_eq!(pool.set_target(0), 1);
        // Convergence: shrink twice, then refuse.
        assert!(pool.try_shrink());
        assert!(pool.try_shrink());
        assert_eq!(pool.size(), 1);
        assert!(!pool.try_shrink());
        // And grow back up toward a raised target.
        pool.set_target(3);
        assert!(pool.try_grow());
        assert!(pool.try_grow());
        assert!(!pool.try_grow());
        assert_eq!(pool.size(), 3);
    }

    #[test]
    fn decision_log_round_trips_through_json() {
        let log = ControllerLog {
            ticks: 40,
            actuations: 2,
            decisions: vec![
                Decision {
                    seq: 1,
                    at: Duration::from_millis(120),
                    window: Duration::from_millis(80),
                    verdict: "limiting `work` busy 93% (workers 1)".into(),
                    action: "grow farm `work` 1 -> 2".into(),
                    throughput_before: 110.5,
                    throughput_after: Some(180.25),
                },
                Decision {
                    seq: 2,
                    at: Duration::from_millis(400),
                    window: Duration::from_millis(80),
                    verdict: "limiting `read` busy 88% (workers 1)".into(),
                    action: "grow pool `p` 4 -> 5".into(),
                    throughput_before: 180.25,
                    throughput_after: None,
                },
            ],
        };
        let text = log.to_json_value().to_string();
        let back = ControllerLog::from_json_value(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, log);
    }

    /// Sample every millisecond, decide every five, act on first sight.
    fn eager() -> ControllerCfg {
        ControllerCfg {
            sample_interval: Duration::from_millis(1),
            decide_interval: Duration::from_millis(5),
            confirm: 1,
            cooldown: 0,
            ..ControllerCfg::default()
        }
    }

    #[test]
    fn controller_grows_a_busy_underwidth_farm() {
        let registry = Arc::new(MetricsRegistry::new());
        let farm = ReplicaGroup::new("work", 4, true);
        farm.set_active(1);
        let cfg = eager();
        let status = Arc::clone(&cfg.status);
        // Drive the live counters by hand: replica 0 is flat-out busy.
        let busy = registry.counter("core/stage_busy_ns/work#0");
        let rounds = registry.counter("core/stage_rounds/work#0");
        registry.counter("core/stage_busy_ns/work#1");
        let controller = Controller::start(
            Arc::clone(&registry),
            cfg,
            Actuators {
                farms: vec![Arc::clone(&farm)],
                ..Actuators::default()
            },
            None,
        );
        let t0 = std::time::Instant::now();
        while farm.active() < 2 && t0.elapsed() < Duration::from_secs(5) {
            busy.add(1_000_000);
            rounds.inc();
            std::thread::sleep(Duration::from_millis(1));
        }
        let log = controller.stop();
        assert!(
            farm.active() >= 2,
            "controller never grew the farm: {log:?}"
        );
        assert!(log.actuations >= 1);
        let d = &log.decisions[0];
        assert!(d.action.contains("grow farm `work`"), "{d:?}");
        assert!(d.verdict.contains("limiting `work`"), "{d:?}");
        assert!(d.window > Duration::ZERO);
        // The live status document reflects the actuation.
        let doc = status.get_json();
        assert!(doc.contains("\"actuations\""), "{doc}");
        assert!(registry.snapshot().counter("controller/ticks").unwrap() >= 1);
        assert!(
            registry
                .snapshot()
                .gauge("controller/active_workers/work")
                .unwrap()
                .value
                >= 2
        );
    }

    #[test]
    fn controller_grows_a_dry_recycle_pool() {
        let registry = Arc::new(MetricsRegistry::new());
        let pool = PoolControl::new("p", "recycle/p", 2, 1, 4);
        // Set the pool's queue gauges by hand: wired, and sampled empty in
        // every window — every buffer is in flight.
        registry.gauge("core/queue_capacity/recycle/p").set(5);
        registry.gauge("core/queue_depth/recycle/p").set(0);
        let controller = Controller::start(
            Arc::clone(&registry),
            eager(),
            Actuators {
                pools: vec![Arc::clone(&pool)],
                ..Actuators::default()
            },
            None,
        );
        let t0 = std::time::Instant::now();
        while pool.target() < 3 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let log = controller.stop();
        assert_eq!(log.decisions[0].action, "grow pool `p` 2 -> 3", "{log:?}");
        // The gauge was published at 2 before the first actuation.
        let target = registry.snapshot().gauge("controller/pool_target/p");
        assert!(target.is_some_and(|g| g.value >= 3), "{target:?}");
    }

    /// METRICS.md's `controller/` rows are exactly the names a running
    /// controller publishes, so the catalogue cannot drift from the code.
    #[test]
    fn metrics_md_lists_exactly_the_controller_metrics() {
        use std::collections::BTreeSet;
        let documented: BTreeSet<&str> = include_str!("../../../METRICS.md")
            .lines()
            .filter_map(|l| l.strip_prefix("| `controller/")?.split('`').next())
            .collect();
        let registry = Arc::new(MetricsRegistry::new());
        let farms = vec![ReplicaGroup::new("<farm>", 2, true)];
        let pools = vec![PoolControl::new(
            "<pipeline>",
            "recycle/<pipeline>",
            1,
            1,
            2,
        )];
        let actuators = Actuators { farms, pools };
        let controller = Controller::start(Arc::clone(&registry), eager(), actuators, None);
        let ticks = registry.counter("controller/ticks");
        let t0 = std::time::Instant::now();
        while ticks.get() == 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        controller.stop();
        let snap = registry.snapshot();
        let names = snap.counters.iter().map(|(n, _)| n);
        let names = names.chain(snap.gauges.iter().map(|(n, _)| n));
        let names = names.chain(snap.histograms.iter().map(|(n, _)| n));
        let published: BTreeSet<&str> = names
            .filter_map(|n| n.strip_prefix("controller/"))
            .collect();
        assert_eq!(published, documented);
    }
}
