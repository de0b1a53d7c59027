//! Property-based tests on FG runtime invariants: every round reaches
//! every stage exactly once and in order, regardless of buffer counts,
//! stage counts, or round counts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use fg_core::{
    map_stage, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, PipelineCfg, Program, Rounds,
};

/// Build a snapshot by replaying `(metric index, value)` ops against a
/// fresh registry, so every generated snapshot is internally consistent.
fn snapshot_from(
    counters: &[(u8, u64)],
    gauges: &[(u8, u64)],
    samples: &[(u8, u64)],
) -> MetricsSnapshot {
    let reg = MetricsRegistry::new();
    for (i, v) in counters {
        reg.counter(&format!("c{}", i % 4)).add(*v);
    }
    for (i, v) in gauges {
        reg.gauge(&format!("g{}", i % 4)).set(*v);
    }
    for (i, v) in samples {
        reg.histogram(&format!("h{}", i % 4)).record(*v);
    }
    reg.snapshot()
}

fn ops() -> impl Strategy<Value = Vec<(u8, u64)>> {
    proptest::collection::vec((any::<u8>(), any::<u64>()), 0..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A linear pipeline delivers all rounds, in order, through any number
    /// of stages, for any buffer pool size.
    #[test]
    fn linear_pipeline_delivers_all_rounds_in_order(
        stages in 1usize..5,
        buffers in 1usize..5,
        rounds in 0u64..60,
    ) {
        let seen = Arc::new(Mutex::new(Vec::<u64>::new()));
        let mut prog = Program::new("prop");
        let mut ids = Vec::new();
        for i in 0..stages {
            if i + 1 == stages {
                let seen2 = Arc::clone(&seen);
                ids.push(prog.add_stage(
                    format!("s{i}"),
                    map_stage(move |buf, _| {
                        seen2.lock().unwrap().push(buf.round());
                        Ok(())
                    }),
                ));
            } else {
                ids.push(prog.add_stage(format!("s{i}"), map_stage(|_, _| Ok(()))));
            }
        }
        prog.add_pipeline(
            PipelineCfg::new("p", buffers, 16).rounds(Rounds::Count(rounds)),
            &ids,
        ).unwrap();
        prog.run().unwrap();
        let got = seen.lock().unwrap().clone();
        let expect: Vec<u64> = (0..rounds).collect();
        prop_assert_eq!(got, expect);
    }

    /// Multiple disjoint pipelines each deliver their own round counts.
    #[test]
    fn disjoint_pipelines_deliver_independently(
        counts in proptest::collection::vec(0u64..40, 1..4),
    ) {
        let mut prog = Program::new("prop");
        let counters: Vec<Arc<AtomicU64>> =
            counts.iter().map(|_| Arc::new(AtomicU64::new(0))).collect();
        for (i, (&n, counter)) in counts.iter().zip(&counters).enumerate() {
            let c2 = Arc::clone(counter);
            let s = prog.add_stage(
                format!("s{i}"),
                map_stage(move |_, _| {
                    c2.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                }),
            );
            prog.add_pipeline(
                PipelineCfg::new(format!("p{i}"), 2, 8).rounds(Rounds::Count(n)),
                &[s],
            ).unwrap();
        }
        prog.run().unwrap();
        for (n, counter) in counts.iter().zip(&counters) {
            prop_assert_eq!(counter.load(Ordering::Relaxed), *n);
        }
    }

    /// A common stage accepting from two pipelines sees exactly the union
    /// of both round sets.
    #[test]
    fn common_stage_sees_union(a in 0u64..30, b in 0u64..30) {
        use fg_core::{Stage, StageCtx};
        struct Common(Arc<AtomicU64>);
        impl Stage for Common {
            fn run(&mut self, ctx: &mut StageCtx) -> fg_core::Result<()> {
                let pids: Vec<_> = ctx.pipelines().collect();
                for &p in &pids {
                    while let Some(buf) = ctx.accept_from(p)? {
                        self.0.fetch_add(1, Ordering::Relaxed);
                        ctx.convey(buf)?;
                    }
                }
                Ok(())
            }
        }
        let count = Arc::new(AtomicU64::new(0));
        let mut prog = Program::new("prop");
        let common = prog.add_stage("common", Box::new(Common(Arc::clone(&count))));
        prog.add_pipeline(PipelineCfg::new("a", 2, 8).rounds(Rounds::Count(a)), &[common])
            .unwrap();
        prog.add_pipeline(PipelineCfg::new("b", 2, 8).rounds(Rounds::Count(b)), &[common])
            .unwrap();
        prog.run().unwrap();
        prop_assert_eq!(count.load(Ordering::Relaxed), a + b);
    }

    /// Virtual stages see every member pipeline's rounds exactly once and
    /// the program spawns a constant number of threads regardless of k.
    #[test]
    fn virtual_stage_sees_all_lanes(counts in proptest::collection::vec(1u64..20, 1..6)) {
        let total: u64 = counts.iter().sum();
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        let mut prog = Program::new("prop");
        let v = prog.add_virtual_stage(
            "v",
            map_stage(move |_, _| {
                seen2.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }),
        );
        for (i, &n) in counts.iter().enumerate() {
            prog.add_pipeline(
                PipelineCfg::new(format!("p{i}"), 2, 8).rounds(Rounds::Count(n)),
                &[v],
            ).unwrap();
        }
        let report = prog.run().unwrap();
        prop_assert_eq!(seen.load(Ordering::Relaxed), total);
        // The one virtual stage thread, however many lanes.
        prop_assert_eq!(report.threads_spawned, 1);
    }

    /// Snapshot merge is associative: replace-semantics means only the
    /// last writer of each name survives, regardless of grouping.
    #[test]
    fn snapshot_merge_is_associative(
        a in (ops(), ops(), ops()),
        b in (ops(), ops(), ops()),
        c in (ops(), ops(), ops()),
    ) {
        let a = snapshot_from(&a.0, &a.1, &a.2);
        let b = snapshot_from(&b.0, &b.1, &b.2);
        let c = snapshot_from(&c.0, &c.1, &c.2);
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// Percentiles are monotone in `p`, bracketed by [min, max], and the
    /// bucket upper bound overshoots a sample by at most 2x.
    #[test]
    fn percentile_is_monotone_and_bounded(samples in proptest::collection::vec(1u64..1_000_000, 1..40)) {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("h");
        for &s in &samples {
            h.record(s);
        }
        let snap = h.snapshot();
        let lo = *samples.iter().min().unwrap();
        let hi = *samples.iter().max().unwrap();
        let mut prev = 0;
        for p in [0.0, 0.25, 0.5, 0.75, 0.99, 1.0] {
            let v = snap.percentile(p);
            prop_assert!(v >= prev, "percentile not monotone at p={p}");
            prop_assert!(v >= lo / 2 && v <= hi, "p{p}={v} outside [{lo}/2, {hi}]");
            prev = v;
        }
    }
}

#[test]
fn empty_histogram_percentiles_are_zero() {
    let empty = HistogramSnapshot::default();
    for p in [0.0, 0.5, 1.0] {
        assert_eq!(empty.percentile(p), 0);
    }
    assert_eq!(empty.mean(), 0.0);
}

#[test]
fn percentile_p_is_clamped_to_unit_interval() {
    let reg = MetricsRegistry::new();
    let h = reg.histogram("h");
    for v in [1u64, 2, 3, 1000] {
        h.record(v);
    }
    let snap = h.snapshot();
    // Out-of-range p clamps rather than panicking or indexing out of range.
    assert_eq!(snap.percentile(-1.0), snap.percentile(0.0));
    assert_eq!(snap.percentile(2.0), snap.percentile(1.0));
    assert_eq!(snap.percentile(1.0), 1000);
}

#[test]
fn merge_replaces_gauge_peaks_rather_than_maxing() {
    // Documented replace semantics: a merged-in gauge's peak wins even
    // when lower, because each snapshot is a self-consistent point in time.
    let a = MetricsRegistry::new();
    a.gauge("g").set(100);
    let b = MetricsRegistry::new();
    b.gauge("g").set(5);
    let mut merged = a.snapshot();
    merged.merge(&b.snapshot());
    let g = merged.gauge("g").unwrap();
    assert_eq!(g.value, 5);
    assert_eq!(g.peak, 5);
}

#[test]
fn merge_with_empty_is_identity_and_keeps_sorted_order() {
    let reg = MetricsRegistry::new();
    reg.counter("z").inc();
    reg.counter("a").inc();
    reg.gauge("m").set(7);
    let snap = reg.snapshot();
    let mut merged = snap.clone();
    merged.merge(&MetricsSnapshot::default());
    assert_eq!(merged, snap);
    let mut from_empty = MetricsSnapshot::default();
    from_empty.merge(&snap);
    assert_eq!(from_empty, snap);
    let names: Vec<&str> = merged.counters.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["a", "z"]);
}
