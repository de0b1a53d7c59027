//! Autotune convergence: does the closed-loop controller turn a
//! mis-configured pipeline into a hand-tuned one, live?
//!
//! One node streams `read → work(farm) → consume` with a deliberately
//! compute-heavy work stage (a fixed sleep per round, so farm width `w`
//! caps throughput at `w / W`) behind a latency-bearing
//! [`SimDisk`](fg_pdm::SimDisk) that the read stage reads directly: the
//! pipeline's pool is its read-ahead.  [`run_convergence`] runs the
//! identical program as two arms, one after the other:
//!
//! * **hand-tuned**: the farm fully active, open loop — the configuration
//!   an operator who profiled the pipeline would write down;
//! * **autotuned**: started wrong (one active worker) with the
//!   [`Controller`](fg_core::Controller) attached.  The controller must
//!   diagnose the starving farm from the live telemetry windows and
//!   actuate its way to the hand-tuned operating point while the pipeline
//!   runs.
//!
//! The comparison metric is **steady-state wall time**: the whole run
//! replayed at the throughput of its last quarter.  The autotuned arm pays
//! a real convergence tax in its first rounds (that is the point), so its
//! total wall time is not the claim — the claim is that where it *lands*
//! matches where the hand-tuned arm *starts*.  Every actuation that got it
//! there is in the returned decision log, with the observation window and
//! measured effect.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fg_core::{
    map_stage, ControllerCfg, ControllerLog, MetricsRegistry, PipelineCfg, Program, Rounds,
};
use fg_pdm::{DiskCfg, SimDisk};
use fg_sort::SortError;

/// Shape of one convergence arm.
#[derive(Debug, Clone, Copy)]
pub struct AutotuneShape {
    /// Rounds to stream.
    pub rounds: u64,
    /// Bytes per block/buffer.
    pub block_bytes: usize,
    /// Simulated per-op disk latency.
    pub disk_latency: Duration,
    /// Work-stage compute per round (the farm divides this).
    pub work_per_round: Duration,
    /// Declared farm width (the hand-tuned worker count).
    pub width: usize,
}

impl AutotuneShape {
    /// Default shape: long enough for the controller to converge with
    /// plenty of steady-state left to measure.
    pub fn new(quick: bool) -> Self {
        AutotuneShape {
            rounds: if quick { 300 } else { 800 },
            block_bytes: 16 << 10,
            disk_latency: Duration::from_millis(1),
            work_per_round: Duration::from_millis(4),
            width: 4,
        }
    }
}

/// Result of one arm.
#[derive(Debug, Clone)]
pub struct AutotuneResult {
    /// Total wall time of the arm.
    pub total: Duration,
    /// The run replayed at its last-quarter throughput.
    pub steady_state: Duration,
    /// Rounds streamed.
    pub rounds: u64,
    /// Farm workers active at the end.
    pub final_workers: u64,
    /// The controller's decision audit log (autotuned arm only).
    pub log: Option<ControllerLog>,
}

/// Both arms of one convergence run.
#[derive(Debug, Clone)]
pub struct Convergence {
    /// The open-loop reference: every worker admitted.
    pub hand_tuned: AutotuneResult,
    /// Started at one worker, with the controller attached.
    pub autotuned: AutotuneResult,
}

/// Run the hand-tuned arm of `shape` and then the autotuned one.
pub fn run_convergence(shape: AutotuneShape) -> Result<Convergence, SortError> {
    Ok(Convergence {
        hand_tuned: run_arm(shape, shape.width, false)?,
        autotuned: run_arm(shape, 1, true)?,
    })
}

/// Sleep-paced stages jitter on shared hosts, hence the slack; a controller
/// that stops one worker short lands at 1.33 or worse (measured: 1.00–1.02).
const STEADY_STATE_SLACK: f64 = 1.6;
/// What [`check`] holds CT1 to.
pub const CLAIM: &str = "autotuned steady state <= 1.6 x hand-tuned, final workers == width";

/// CT1's claim: where the closed loop lands matches where the hand-tuned
/// arm starts.
pub fn check(c: &Convergence, width: usize) -> Result<(), String> {
    let auto = c.autotuned.steady_state.as_secs_f64();
    let hand = c.hand_tuned.steady_state.as_secs_f64();
    if auto > STEADY_STATE_SLACK * hand {
        let ratio = auto / hand;
        return Err(format!(
            "steady state {auto:.3}s autotuned vs {hand:.3}s hand-tuned = {ratio:.2}x"
        ));
    }
    let workers = c.autotuned.final_workers;
    if workers != width as u64 {
        return Err(format!("final workers {workers} of {width}"));
    }
    Ok(())
}

/// Run one arm.  `start_workers` sets the initial farm width; `autotune`
/// attaches the controller (which then owns the farm width and pool size
/// for the rest of the run).
fn run_arm(
    shape: AutotuneShape,
    start_workers: usize,
    autotune: bool,
) -> Result<AutotuneResult, SortError> {
    let registry = Arc::new(MetricsRegistry::new());
    let disk = SimDisk::new(DiskCfg::new(shape.disk_latency, f64::INFINITY));
    disk.load(
        "in",
        vec![0xA5u8; shape.block_bytes * shape.rounds as usize],
    );

    let mut prog = Program::new("autotune-convergence");
    prog.set_metrics(Arc::clone(&registry));
    if autotune {
        prog.set_controller(ControllerCfg {
            sample_interval: Duration::from_millis(5),
            decide_interval: Duration::from_millis(25),
            initial_workers: Some(start_workers),
            ..ControllerCfg::default()
        });
    }

    let block = shape.block_bytes;
    let read = prog.add_stage(
        "read",
        map_stage(move |buf, _ctx| {
            let r = buf.round();
            disk.read_at("in", r * block as u64, &mut buf.space_mut()[..block])
                .map_err(SortError::from)?;
            buf.set_filled(block);
            Ok(())
        }),
    );
    let work_each = shape.work_per_round;
    let work = prog.workers("work", shape.width, move |_i| {
        map_stage(move |_buf, _ctx| {
            std::thread::sleep(work_each);
            Ok(())
        })
    });
    // Consume: timestamp each round's completion so steady-state
    // throughput can be measured over the tail of the run.
    let done: Arc<Mutex<Vec<Instant>>> = Arc::new(Mutex::new(Vec::new()));
    let done2 = Arc::clone(&done);
    let consume = prog.add_stage(
        "consume",
        map_stage(move |_buf, _ctx| {
            done2.lock().unwrap().push(Instant::now());
            Ok(())
        }),
    );

    let buffers = shape.width + 2;
    let mut pc =
        PipelineCfg::new("auto", buffers, shape.block_bytes).rounds(Rounds::Count(shape.rounds));
    if autotune {
        pc = pc.max_buffers(buffers * 2);
    }
    prog.add_pipeline(pc, &[read, work, consume])?;

    // The farm always declares `width` replicas.  Open loop they are all
    // admitted, so the hand-tuned arm passes start_workers == width; the
    // autotuned arm's controller parks all but `initial_workers` of them
    // at startup and re-admits as its diagnosis demands.
    let t0 = Instant::now();
    let report = prog.run()?;
    let total = t0.elapsed();

    let stamps = done.lock().unwrap().clone();
    let steady_state = steady_state_time(&stamps, shape.rounds).unwrap_or(total);
    let snap = registry.snapshot();
    let final_workers = snap
        .gauge("controller/active_workers/work")
        .map(|g| g.value)
        .unwrap_or(start_workers as u64);
    Ok(AutotuneResult {
        total,
        steady_state,
        rounds: shape.rounds,
        final_workers,
        log: report.controller,
    })
}

/// The whole run replayed at the throughput of its last quarter: rounds
/// divided by the tail completion rate.  `None` if the tail is too short
/// to measure.
fn steady_state_time(stamps: &[Instant], rounds: u64) -> Option<Duration> {
    let tail = &stamps[stamps.len().saturating_sub(stamps.len() / 4)..];
    if tail.len() < 2 {
        return None;
    }
    let span = tail[tail.len() - 1].duration_since(tail[0]);
    if span.is_zero() {
        return None;
    }
    let rate = (tail.len() - 1) as f64 / span.as_secs_f64();
    Some(Duration::from_secs_f64(rounds as f64 / rate))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_tuned_arm_runs_and_measures() {
        let shape = AutotuneShape {
            rounds: 40,
            work_per_round: Duration::from_millis(1),
            disk_latency: Duration::from_micros(100),
            ..AutotuneShape::new(true)
        };
        let r = run_arm(shape, shape.width, false).unwrap();
        assert_eq!(r.rounds, 40);
        assert!(r.log.is_none(), "open loop records no controller log");
        assert!(r.steady_state > Duration::ZERO);
    }

    #[test]
    fn autotuned_arm_attaches_the_controller() {
        let shape = AutotuneShape {
            rounds: 60,
            work_per_round: Duration::from_millis(1),
            disk_latency: Duration::from_micros(100),
            ..AutotuneShape::new(true)
        };
        let r = run_arm(shape, 1, true).unwrap();
        assert!(r.log.is_some(), "closed loop must return its audit log");
    }

    #[test]
    fn check_rejects_an_arm_that_did_not_converge() {
        let arm = |steady_ms, final_workers| AutotuneResult {
            total: Duration::from_millis(steady_ms),
            steady_state: Duration::from_millis(steady_ms),
            rounds: 300,
            final_workers,
            log: None,
        };
        let run = |auto_ms, final_workers| Convergence {
            hand_tuned: arm(340, 4),
            autotuned: arm(auto_ms, final_workers),
        };
        assert_eq!(check(&run(350, 4), 4), Ok(()));
        crate::tests::rejects(check(&run(680, 4), 4), &["0.680s autotuned", "2.00x"]);
        crate::tests::rejects(check(&run(350, 3), 4), &["final workers 3 of 4"]);
    }

    #[test]
    fn started_wrong_the_closed_loop_lands_where_the_hand_tuned_arm_starts() {
        let shape = AutotuneShape::new(true);
        crate::tests::best_of_three(|| {
            let run = run_convergence(shape).unwrap();
            assert!(run.hand_tuned.log.is_none() && run.autotuned.log.is_some());
            check(&run, shape.width)
        });
    }
}
