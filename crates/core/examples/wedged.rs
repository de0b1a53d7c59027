//! A deliberately wedged pipeline, rescued by the stall watchdog.
//!
//! The `hoard` stage accepts buffers and never conveys or discards them.
//! With a pool of two buffers the pipeline deadlocks almost immediately:
//! the source starves waiting for recycled buffers, the `drain` stage
//! starves waiting for input, and no stage thread changes state ever again.
//! The watchdog notices the silence after one second, prints a post-mortem
//! to stderr, writes the same report as JSON (first CLI argument, default
//! `wedged-postmortem.json`), and aborts the program with
//! [`FgError::Stalled`] naming the hoarder.  The program also enables
//! tracing, so each thread's entry in the post-mortem ends in its last
//! spans; a program armed with the watchdog alone records none.
//!
//! ```text
//! cargo run -p fg-core --example wedged -- /tmp/postmortem.json
//! ```
//!
//! The process exits 0 exactly when the watchdog caught the wedge and
//! blamed the right stage — CI runs this as a smoke test.

use std::process::ExitCode;
use std::time::Duration;

use fg_core::{
    map_stage, Buffer, FgError, PipelineCfg, Program, Result, Rounds, Stage, StageCtx, WatchdogCfg,
};

/// Accepts every buffer and keeps it: the classic leak that wedges a
/// bounded-pool pipeline.
struct Hoarder {
    stash: Vec<Buffer>,
}

impl Stage for Hoarder {
    fn run(&mut self, ctx: &mut StageCtx) -> Result<()> {
        while let Some(buf) = ctx.accept()? {
            self.stash.push(buf);
        }
        Ok(())
    }
}

fn main() -> ExitCode {
    let artifact = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "wedged-postmortem.json".into());

    let mut prog = Program::new("wedged");
    let hoard = prog.add_stage("hoard", Box::new(Hoarder { stash: Vec::new() }));
    let drain = prog.add_stage("drain", map_stage(|_buf, _ctx| Ok(())));
    prog.add_pipeline(
        PipelineCfg::new("p", 2, 64).rounds(Rounds::Count(1000)),
        &[hoard, drain],
    )
    .expect("wire pipeline");
    prog.set_watchdog(WatchdogCfg::new(Duration::from_secs(1)).artifact(&artifact));
    prog.enable_tracing();

    match prog.run() {
        Err(FgError::Stalled { culprit }) => {
            eprintln!("watchdog verdict: `{culprit}` (post-mortem in {artifact})");
            if culprit.contains("hoard") {
                ExitCode::SUCCESS
            } else {
                eprintln!("expected the culprit to be the hoarding stage");
                ExitCode::FAILURE
            }
        }
        other => {
            eprintln!("expected FgError::Stalled, got {other:?}");
            ExitCode::FAILURE
        }
    }
}
