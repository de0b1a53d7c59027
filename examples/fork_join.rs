//! Fork–join: parallelizing a slow stage with a worker farm.
//!
//! One compute stage dominates this pipeline.  Declaring it a *worker
//! farm* makes FG run n copies on n threads sharing the stage's queues, so
//! buffers fan out to whichever worker is free (FG's fork), and each worker
//! waits for its round's turn to emit, so rounds leave the farm in order
//! (FG's join) with no stage of its own.
//!
//! ```text
//! cargo run --release --example fork_join
//! ```

use std::time::{Duration, Instant};

use fg::core::{map_stage, PipelineCfg, Program, Rounds};

const ROUNDS: u64 = 120;
const BLOCK: usize = 8 * 1024;

fn build(workers: usize) -> Program {
    let mut prog = Program::new(format!("forkjoin-{workers}"));
    let fill = prog.add_stage(
        "fill",
        map_stage(|buf, _| {
            let round = buf.round();
            for (i, b) in buf.space_mut().iter_mut().enumerate() {
                *b = (round as usize + i) as u8;
            }
            buf.fill_to_capacity();
            Ok(())
        }),
    );
    // The hot stage: a deliberately slow transform (~2 ms per block).
    let work = prog.workers("work", workers, |_| {
        map_stage(|buf, _| {
            std::thread::sleep(Duration::from_millis(2));
            for b in buf.filled_mut() {
                *b = b.wrapping_mul(31).wrapping_add(7);
            }
            Ok(())
        })
    });
    let check = prog.add_stage(
        "check",
        map_stage({
            let mut expected = 0u64;
            move |buf, _| {
                assert_eq!(buf.round(), expected, "the farm must emit in order");
                expected += 1;
                Ok(())
            }
        }),
    );
    prog.add_pipeline(
        PipelineCfg::new("p", 8, BLOCK).rounds(Rounds::Count(ROUNDS)),
        &[fill, work, check],
    )
    .unwrap();
    prog
}

fn main() {
    for workers in [1usize, 2, 4] {
        let t0 = Instant::now();
        let report = build(workers).run().expect("run");
        println!(
            "{workers} worker(s): {:>7.1} ms wall, {} threads",
            t0.elapsed().as_secs_f64() * 1e3,
            report.threads_spawned
        );
    }
    println!("\n(the ~2 ms/block stage is the bottleneck: workers divide it)");
}
