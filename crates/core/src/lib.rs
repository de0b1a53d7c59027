//! # FG: a pipeline-structured programming environment
//!
//! A Rust reproduction of the **FG** ("ABCDEFG" — *Asynchronous Buffered
//! Computation Design and Engineering Framework Generator*) programming
//! environment from Dartmouth (Davidson & Cormen, SPAA 2006; Natarajan,
//! Cormen & Strange's companion paper on out-of-core distribution sort).
//!
//! FG mitigates the latency of disk I/O and interprocessor communication in
//! out-of-core programs by composing programmer-written *synchronous* stage
//! functions into *asynchronous* coarse-grained software pipelines:
//!
//! * each stage runs in its own thread, with bounded buffer queues between
//!   consecutive stages;
//! * every pipeline is a loop — the last stage conveys each buffer into the
//!   pool the first stage accepts from, one *round* at a time (FG's
//!   implicit **source** and **sink**, played by those two stages) — so a
//!   fixed pool of buffers services an arbitrarily long computation;
//! * **disjoint pipelines** on a node support unbalanced communication
//!   (send and receive pipelines progress at independent rates);
//! * **intersecting pipelines** share a *common stage* (e.g. a k-way merge)
//!   that accepts from an explicitly named predecessor pipeline;
//! * **virtual stages** let k identical stages in separate pipelines share a
//!   single thread and input queue, so hundreds of pipelines don't need
//!   hundreds of threads.
//!
//! ## Quick start
//!
//! ```
//! use fg_core::{map_stage, PipelineCfg, Program, Rounds};
//!
//! let mut prog = Program::new("demo");
//! let fill = prog.add_stage(
//!     "fill",
//!     map_stage(|buf, _ctx| {
//!         let round = buf.round();
//!         buf.space_mut()[0] = round as u8;
//!         buf.set_filled(1);
//!         Ok(())
//!     }),
//! );
//! let check = prog.add_stage(
//!     "check",
//!     map_stage(|buf, _ctx| {
//!         assert_eq!(buf.filled()[0] as u64, buf.round());
//!         Ok(())
//!     }),
//! );
//! let cfg = PipelineCfg::new("p", 2, 16).rounds(Rounds::Count(10));
//! prog.add_pipeline(cfg, &[fill, check]).unwrap();
//! let report = prog.run().unwrap();
//! assert_eq!(report.stage("fill").unwrap().buffers_out, 10);
//! ```

#![warn(missing_docs)]
// `deny`, not `forbid`: the tracking allocator ([`alloc`]) implements
// `GlobalAlloc`, an inherently `unsafe` trait, behind a module-scoped
// allow.  Everything else in the crate stays unsafe-free.
#![deny(unsafe_code)]

pub mod alloc;
pub mod analyze;
mod buffer;
pub mod cluster_report;
pub mod critical_path;
mod error;
mod json;
pub mod metrics;
pub mod profile;
mod program;
#[doc(hidden)]
pub mod qbench;
mod queue;
mod runtime;
mod stage;
mod stats;
pub mod telemetry;
pub mod trace;

pub use alloc::{
    assert_steady_state_alloc_free, register_tag, set_thread_tag, thread_tag_scope, with_tag,
    FgAlloc, TagCounts, TagId,
};
pub use analyze::{
    diagnose, diagnose_cluster, ClusterDiagnosis, Diagnosis, Recommendation, StageDiagnosis,
    StageVerdict, Verdict,
};
pub use buffer::{Buffer, BufferStock, PipelineId, StageId};
pub use cluster_report::{ClusterReport, RankReport};
pub use critical_path::{critical_path, CriticalPath, PathSegment, RoundPath};
pub use error::{FgError, Result};
pub use json::Json;
pub use metrics::{Counter, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use profile::{AllocResources, LedgerSnapshot, MemoryLedger, ResourceReport, ThreadResources};
pub use program::{run_linear, PipelineCfg, Program};
pub use stage::{map_stage, MapStage, Rounds, Stage, StageCtx};
pub use stats::{PipelineShape, QueueDepth, Report, StageRollup, StageStats};
pub use telemetry::TelemetryServer;
pub use trace::{
    Postmortem, SpanRec, SpanRing, ThreadLog, ThreadState, TraceCtx, TraceKind, TraceSink,
    WatchdogCfg,
};
