//! Umbrella crate re-exporting the full FG reproduction:
//!
//! * [`core`] — the FG programming environment (pipelines, stages,
//!   buffers, disjoint/intersecting/virtual pipelines).
//! * [`cluster`] — the simulated distributed-memory cluster and
//!   its thread-safe MPI-like communicator.
//! * [`pdm`] — the simulated Parallel Disk Model storage substrate.
//! * [`sort`] — the out-of-core sorting programs built on FG:
//!   `dsort` (distribution sort) and `csort` (columnsort).
//! * [`apps`] — further out-of-core algorithms on FG (group-by
//!   aggregation).
//!
//! The observability layer's entry points are re-exported at the top
//! level: attach a [`MetricsRegistry`] to a program and call
//! [`Program::enable_tracing`](core::Program::enable_tracing), then export
//! its [`Report`](core::Report) as JSON, a terminal dashboard, or a Chrome
//! trace.

pub use fg_apps as apps;
pub use fg_cluster as cluster;
pub use fg_core as core;
pub use fg_pdm as pdm;
pub use fg_sort as sort;

pub use fg_core::{Json, MetricsRegistry, MetricsSnapshot};
