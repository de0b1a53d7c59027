//! One wiring for every program shape: a pipeline's pool is its first
//! stage's input queue, and the first and last stage play source and sink
//! on their own threads.  For each shape the runtime knows, the program
//! spawns exactly one thread per stage replica, nothing in its report is
//! named like a source or a sink, and every pipeline's last stage sees
//! rounds `0..n` exactly once — in order, unless an unordered farm sits in
//! between.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use fg_core::{map_stage, PipelineCfg, PipelineId, Program, Report, Stage, StageCtx};

/// `(pipeline, round)` of every buffer a pipeline's last stage saw, in the
/// order it saw them.
type Seen = Arc<Mutex<Vec<(PipelineId, u64)>>>;

/// A pass-through stage that notes what it was handed: the last stage of
/// its pipelines.  Works as an ordinary or a virtual stage.
fn recorder(seen: &Seen) -> Box<dyn Stage> {
    let seen = Arc::clone(seen);
    map_stage(move |buf, _| {
        seen.lock().unwrap().push((buf.pipeline(), buf.round()));
        Ok(())
    })
}

fn pass() -> Box<dyn Stage> {
    map_stage(|_, _| Ok(()))
}

/// A program under test: what it should spawn and what its pipelines,
/// by name, should run.
struct Shape {
    prog: Program,
    threads: usize,
    rounds: Vec<(&'static str, u64)>,
    /// An unordered farm sits on some pipeline: rounds arrive in any order.
    unordered: bool,
}

impl Shape {
    fn new(name: &str, threads: usize) -> Shape {
        let mut prog = Program::new(name);
        prog.enable_tracing();
        prog.with_watchdog(Duration::from_secs(2));
        Shape {
            prog,
            threads,
            rounds: Vec::new(),
            unordered: false,
        }
    }

    fn pipeline(&mut self, name: &'static str, buffers: usize, n: u64, chain: &[fg_core::StageId]) {
        self.prog
            .add_pipeline(PipelineCfg::new(name, buffers, 16).count(n), chain)
            .unwrap();
        self.rounds.push((name, n));
    }
}

fn check(shape: Shape, seen: &Seen) {
    let Shape {
        prog,
        threads,
        rounds,
        unordered,
    } = shape;
    let name = prog.name().to_string();
    let report: Report = prog.run().unwrap_or_else(|e| panic!("{name}: {e}"));

    assert_eq!(report.threads_spawned, threads, "{name}: Σ stage replicas");
    assert_eq!(report.stages.len(), threads, "{name}: one row a thread");
    assert_eq!(report.trace.len(), threads, "{name}: one ring a thread");
    let names = report
        .stages
        .iter()
        .map(|s| s.name.as_str())
        .chain(report.trace.iter().map(|l| l.thread.as_str()));
    for n in names {
        assert!(
            !n.ends_with("/source") && !n.ends_with("/sink"),
            "{name}: `{n}`"
        );
    }
    // No queue exists only to feed a forwarding thread.
    for q in &report.queues {
        assert!(
            !q.name.starts_with("sink/") && !q.name.ends_with("[0]"),
            "{name}: queue `{}`",
            q.name
        );
    }

    let mut by_pipeline: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for (p, round) in seen.lock().unwrap().iter() {
        by_pipeline.entry(p.index()).or_default().push(*round);
    }
    for (i, (pipeline, n)) in rounds.iter().enumerate() {
        let mut got = by_pipeline.remove(&i).unwrap_or_default();
        if unordered {
            got.sort_unstable();
        }
        let want: Vec<u64> = (0..*n).collect();
        assert_eq!(got, want, "{name}: rounds of `{pipeline}`");
    }
    assert!(by_pipeline.is_empty(), "{name}: {by_pipeline:?}");
}

#[test]
fn linear() {
    let seen = Seen::default();
    let mut s = Shape::new("linear", 3);
    let chain = [
        s.prog.add_stage("a", pass()),
        s.prog.add_stage("b", pass()),
        s.prog.add_stage("c", recorder(&seen)),
    ];
    s.pipeline("p", 3, 40, &chain);
    check(s, &seen);
}

#[test]
fn two_disjoint() {
    let seen = Seen::default();
    let mut s = Shape::new("disjoint", 3);
    let a = s.prog.add_stage("a", pass());
    let b = s.prog.add_stage("b", recorder(&seen));
    let solo = s.prog.add_stage("solo", recorder(&seen));
    s.pipeline("long", 4, 60, &[a, b]);
    s.pipeline("short", 1, 9, &[solo]);
    check(s, &seen);
}

/// The common stage of Figure 5: last stage of every vertical pipeline
/// (whose buffers it discards) and first stage of the horizontal one.
fn junction(seen: &Seen, verticals: usize) -> Box<dyn Stage> {
    let seen = Arc::clone(seen);
    Box::new(move |ctx: &mut StageCtx| {
        let lanes: Vec<PipelineId> = ctx.pipelines().collect();
        let (verticals, horizontal) = lanes.split_at(verticals);
        // Round-robin over the verticals until each has ended.
        let mut open = verticals.to_vec();
        while !open.is_empty() {
            let mut still = Vec::new();
            for &v in &open {
                if let Some(buf) = ctx.accept_from(v)? {
                    seen.lock().unwrap().push((v, buf.round()));
                    ctx.discard(buf)?;
                    still.push(v);
                }
            }
            open = still;
        }
        while let Some(buf) = ctx.accept_from(horizontal[0])? {
            ctx.convey(buf)?;
        }
        Ok(())
    })
}

const VERTICALS: [&str; 3] = ["v0", "v1", "v2"];

#[test]
fn intersecting() {
    let seen = Seen::default();
    let k = VERTICALS.len();
    let mut s = Shape::new("intersecting", k + 2);
    let reads: Vec<_> = (0..k)
        .map(|j| s.prog.add_stage(format!("read{j}"), pass()))
        .collect();
    let merge = s.prog.add_stage("merge", junction(&seen, k));
    let collect = s.prog.add_stage("collect", recorder(&seen));
    for (j, name) in VERTICALS.into_iter().enumerate() {
        s.pipeline(name, 2, 5 + 7 * j as u64, &[reads[j], merge]);
    }
    s.pipeline("h", 3, 25, &[merge, collect]);
    check(s, &seen);
}

#[test]
fn virtual_first() {
    // The same verticals behind one virtual read stage: its shared input is
    // the three pipelines' common pool.
    let seen = Seen::default();
    let k = VERTICALS.len();
    let mut s = Shape::new("virtual-first", 3);
    let read = s.prog.add_virtual_stage("read", pass());
    let merge = s.prog.add_stage("merge", junction(&seen, k));
    let collect = s.prog.add_stage("collect", recorder(&seen));
    for (j, name) in VERTICALS.into_iter().enumerate() {
        s.pipeline(name, 2, 5 + 7 * j as u64, &[read, merge]);
    }
    s.pipeline("h", 3, 25, &[merge, collect]);
    check(s, &seen);
}

#[test]
fn virtual_stage_mid_chain() {
    let seen = Seen::default();
    let k = VERTICALS.len();
    let mut s = Shape::new("virtual-mid", k + 2);
    let feeds: Vec<_> = (0..k)
        .map(|j| s.prog.add_stage(format!("feed{j}"), pass()))
        .collect();
    let shared = s.prog.add_virtual_stage("shared", pass());
    let tally = s.prog.add_virtual_stage("tally", recorder(&seen));
    for (j, name) in VERTICALS.into_iter().enumerate() {
        s.pipeline(name, 2, 11 + j as u64, &[feeds[j], shared, tally]);
    }
    check(s, &seen);
}

#[test]
fn two_virtual_stages_in_chain() {
    let seen = Seen::default();
    let mut s = Shape::new("virtual-virtual", 2);
    let stamp = s.prog.add_virtual_stage("stamp", pass());
    let add = s.prog.add_virtual_stage("add", recorder(&seen));
    for (j, name) in VERTICALS.into_iter().enumerate() {
        s.pipeline(name, 1 + j, 13, &[stamp, add]);
    }
    check(s, &seen);
}

#[test]
fn farm_first_ordered() {
    let seen = Seen::default();
    let mut s = Shape::new("farm-first", 5);
    let farm = s.prog.workers("farm", 4, |_| pass());
    let last = s.prog.add_stage("last", recorder(&seen));
    s.pipeline("p", 3, 80, &[farm, last]);
    check(s, &seen);
}

#[test]
fn farm_first_unordered() {
    let seen = Seen::default();
    let mut s = Shape::new("replicas-first", 4);
    s.unordered = true;
    let farm = s.prog.add_replicated_stage("farm", 3, |_| pass());
    let last = s.prog.add_stage("last", recorder(&seen));
    s.pipeline("p", 5, 80, &[farm, last]);
    check(s, &seen);
}

#[test]
fn farm_mid() {
    let seen = Seen::default();
    let mut s = Shape::new("farm-mid", 5);
    let first = s.prog.add_stage("first", pass());
    let farm = s.prog.workers("farm", 3, |_| pass());
    let last = s.prog.add_stage("last", recorder(&seen));
    s.pipeline("p", 4, 80, &[first, farm, last]);
    check(s, &seen);
}

#[test]
fn a_farm_that_is_the_whole_pipeline() {
    // First and last at once: each replica conveys into the queue it
    // accepts from.  The workers record before they take their turn to
    // emit, so what is recorded is not in emission order.
    let seen = Seen::default();
    let mut s = Shape::new("farm-only", 3);
    s.unordered = true;
    let farm = s.prog.workers("farm", 3, |_| recorder(&seen));
    s.pipeline("p", 2, 50, &[farm]);
    check(s, &seen);
}
