//! # fg-sort: out-of-core sorting programs on FG
//!
//! The two sorting programs the paper evaluates, built on the FG pipeline
//! environment (`fg-core`), the simulated cluster (`fg-cluster`), and the
//! simulated Parallel Disk Model disks (`fg-pdm`):
//!
//! * [`dsort`] — the paper's contribution: a two-pass out-of-core
//!   distribution sort.  A preprocessing phase picks splitters by
//!   oversampling (with extended keys for uniqueness); pass 1 partitions
//!   and distributes records using **disjoint send and receive pipelines**
//!   per node (communication is unbalanced); pass 2 merges each node's
//!   sorted runs with **intersecting pipelines** (a common merge stage fed
//!   by virtual vertical read pipelines), then load-balances and stripes
//!   the output across the cluster.
//! * [`csort`] — the baseline: three-pass out-of-core columnsort, oblivious
//!   to data values, all communication balanced, one **single linear
//!   pipeline** per node per pass.
//!
//! Plus [`dsort_linear`], the ablation the paper's conclusion calls for —
//! dsort restricted to single linear pipelines — and [`csort4`], columnsort
//! without its coalesced last pass.  Every program is a list of phases over
//! the one cluster [`driver`], and every pass a list of [`stages`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chunks;
pub mod columnsort;
pub mod config;
pub mod csort;
pub mod csort4;
pub mod driver;
pub mod dsort;
pub mod dsort_linear;
pub mod input;
pub mod kernels;
pub mod keygen;
pub mod merge;
pub mod record;
pub mod stages;
pub mod verify;

pub use config::{DiskBackend, Matrix, SortConfig};
pub use keygen::{KeyDist, KeyGen};
pub use record::{ExtKey, RecordFormat};

use std::fmt;

/// Errors from the sorting programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SortError {
    /// Invalid configuration or geometry.
    Config(String),
    /// Malformed data encountered (corrupt chunk stream, bad payload).
    Corrupt(String),
    /// A storage operation failed.
    Disk(String),
    /// A communication operation failed.
    Comm(String),
    /// The FG runtime reported an error.
    Fg(String),
    /// Output verification failed.
    Verify(String),
}

impl fmt::Display for SortError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SortError::Config(m) => write!(f, "configuration error: {m}"),
            SortError::Corrupt(m) => write!(f, "corrupt data: {m}"),
            SortError::Disk(m) => write!(f, "disk error: {m}"),
            SortError::Comm(m) => write!(f, "communication error: {m}"),
            SortError::Fg(m) => write!(f, "FG error: {m}"),
            SortError::Verify(m) => write!(f, "verification failed: {m}"),
        }
    }
}

impl std::error::Error for SortError {}

impl From<fg_pdm::PdmError> for SortError {
    fn from(e: fg_pdm::PdmError) -> Self {
        SortError::Disk(e.to_string())
    }
}

impl From<fg_cluster::CommError> for SortError {
    fn from(e: fg_cluster::CommError) -> Self {
        SortError::Comm(e.to_string())
    }
}

impl From<fg_core::FgError> for SortError {
    fn from(e: fg_core::FgError) -> Self {
        SortError::Fg(e.to_string())
    }
}

impl From<SortError> for fg_core::FgError {
    fn from(e: SortError) -> Self {
        fg_core::FgError::Stage {
            stage: "<sort>".into(),
            message: e.to_string(),
        }
    }
}

impl From<SortError> for fg_cluster::ClusterError {
    fn from(e: SortError) -> Self {
        fg_cluster::ClusterError::Node {
            rank: usize::MAX,
            message: e.to_string(),
        }
    }
}
