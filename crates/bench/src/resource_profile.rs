//! R1: the cost of resource accounting.
//!
//! Two arms of the same csort run on the simulated backend: a **base** arm
//! with no instrumentation, and a **profiled** arm carrying the full
//! resource stack — a metrics registry and a memory ledger, so that every
//! program's report carries its [`fg_core::ResourceReport`].  Each arm is
//! best-of-N (the accounting cost is a floor effect, so min wall time is
//! the honest comparison), and the last pass report's resources from the
//! profiled arm's best run ride along in the artifact, so [`check`] can
//! require the attribution to be populated as well as cheap.
//!
//! The acceptance bound is `overhead_frac < 0.02`: each stage thread reads
//! its CPU clock and `getrusage` as it exits, and each program reads the
//! process once at its end — microseconds of work a pass.  (ROADMAP item 1
//! re-gates it on a run longer than this cell's few milliseconds.)

use std::sync::Arc;
use std::time::Duration;

use fg_core::{MemoryLedger, MetricsRegistry, ResourceReport};
use fg_sort::config::SortConfig;
use fg_sort::csort::run_csort;
use fg_sort::input::provision;
use fg_sort::record::RecordFormat;
use fg_sort::SortError;

/// Both arms of the resource-accounting overhead experiment.
#[derive(Debug)]
pub struct ResourceProfileResult {
    /// Cluster nodes in each run.
    pub nodes: usize,
    /// Input bytes per node.
    pub bytes_per_node: usize,
    /// Runs per arm (both arms report best-of-N).
    pub reps: usize,
    /// Best wall time with no instrumentation attached.
    pub base: Duration,
    /// Best wall time with a registry and a ledger attached.
    pub profiled: Duration,
    /// The last pass report's resources from the profiled arm's best run.
    pub resources: ResourceReport,
}

impl ResourceProfileResult {
    /// Fractional slowdown of the profiled arm: `profiled/base - 1`.
    /// Negative values (noise) mean the accounting cost is unmeasurable.
    pub fn overhead_frac(&self) -> f64 {
        self.profiled.as_secs_f64() / self.base.as_secs_f64() - 1.0
    }
}

/// The acceptance bound, and the absolute escape that keeps sub-tick
/// scheduler jitter from failing a run whose cost is trivially small.
const OVERHEAD: (f64, Duration) = (0.02, Duration::from_millis(10));
/// What [`check`] holds R1 to.
pub const CLAIM: &str = "resource accounting overhead < 2% or < 10 ms, with per-thread rows";

/// R1's claim: watching a run costs next to nothing, and sees its threads.
pub fn check(res: &ResourceProfileResult) -> Result<(), String> {
    if res.overhead_frac() >= OVERHEAD.0 && res.profiled.saturating_sub(res.base) >= OVERHEAD.1 {
        return Err(format!(
            "overhead {:+.2}% (base {:.3}s, profiled {:.3}s)",
            100.0 * res.overhead_frac(),
            res.base.as_secs_f64(),
            res.profiled.as_secs_f64()
        ));
    }
    if res.resources.threads.is_empty() {
        return Err("the profiled arm has no thread rows".into());
    }
    Ok(())
}

/// Run both arms and return the paired timings.
pub fn run_resource_profile(quick: bool) -> Result<ResourceProfileResult, SortError> {
    let (nodes, bytes_per_node, reps) = if quick {
        (2, 256 << 10, 3)
    } else {
        (4, 1 << 20, 5)
    };
    let cfg = SortConfig::test_default(nodes, bytes_per_node / RecordFormat::REC16.record_bytes);

    let base: Result<Vec<_>, SortError> = (0..reps)
        .map(|_| Ok(run_csort(&cfg, &provision(&cfg))?.total))
        .collect();
    let base = base?.into_iter().min().unwrap_or(Duration::MAX);

    let mut profiled = Duration::MAX;
    let mut resources = ResourceReport::default();
    for _ in 0..reps {
        let mut armed = cfg.clone();
        armed.metrics = Some(Arc::new(MetricsRegistry::new()));
        armed.ledger = Some(Arc::new(MemoryLedger::new()));
        let mut r = run_csort(&armed, &provision(&armed))?;
        if r.total < profiled {
            profiled = r.total;
            resources = (r.node0_reports.pop())
                .and_then(|last| last.resources)
                .unwrap_or_default();
        }
    }

    Ok(ResourceProfileResult {
        nodes,
        bytes_per_node,
        reps,
        base,
        profiled,
        resources,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_rejects_a_profiler_that_costs_or_sees_nothing() {
        let res = |base_ms, profiled_ms, resources| ResourceProfileResult {
            nodes: 2,
            bytes_per_node: 256 << 10,
            reps: 3,
            base: Duration::from_millis(base_ms),
            profiled: Duration::from_millis(profiled_ms),
            resources,
        };
        let seen = run_resource_profile(true).unwrap().resources;
        assert!(!seen.threads.is_empty(), "a real run leaves thread rows");
        // +40% of 5 ms is jitter; +40% of 500 ms is not.
        assert_eq!(check(&res(5, 7, seen.clone())), Ok(()));
        crate::tests::rejects(check(&res(500, 700, seen)), &["+40.00%"]);
        let blind = check(&res(500, 505, ResourceReport::default()));
        crate::tests::rejects(blind, &["no thread rows"]);
    }
}
