//! # fg-cluster: a simulated distributed-memory cluster
//!
//! The FG paper evaluates on a 16-node Beowulf cluster connected by Myrinet
//! and a thread-safe MPI.  This crate substitutes a **simulated cluster**
//! that preserves every property the FG programming model relies on:
//!
//! * each node is an isolated execution context (one OS thread that may
//!   spawn more — e.g. FG stage threads) sharing *nothing* with other nodes
//!   except messages;
//! * interprocessor communication is a **high-latency blocking operation**
//!   (a configurable `latency + bytes/bandwidth` cost charged as real sleep
//!   on the sending thread), so overlapping it with other work — FG's whole
//!   point — has a measurable effect;
//! * the communicator is **thread-safe**, like ChaMPIon/Pro: many stage
//!   threads per node may send and receive concurrently.
//!
//! ```
//! use fg_cluster::{Cluster, ClusterCfg};
//!
//! let run = Cluster::run(ClusterCfg::zero_cost(4), |node| {
//!     // Ring: send rank to the right neighbor, receive from the left.
//!     let right = (node.rank() + 1) % node.nodes();
//!     let left = (node.rank() + node.nodes() - 1) % node.nodes();
//!     node.comm().send(right, 1, vec![node.rank() as u8])?;
//!     let msg = node.comm().recv(Some(left), 1)?;
//!     Ok(msg.payload[0] as usize)
//! })
//! .unwrap();
//! assert_eq!(run.results, vec![3, 0, 1, 2]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cluster;
mod comm;
mod cost;
mod fabric;

pub use cluster::{Cluster, ClusterCfg, ClusterObs, ClusterRun, NodeCtx};
pub use comm::{Communicator, Message, MAX_USER_TAG};
pub use cost::NetCfg;
pub use fabric::{NodeTraffic, Payload, PayloadStats};

use std::fmt;

/// Errors from communicator operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// Destination rank out of range.
    BadRank(usize),
    /// Tag outside the user tag range.
    BadTag(u64),
    /// Malformed collective payload or argument shape.
    BadShape(String),
    /// The fabric was poisoned because another node failed.
    Poisoned,
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::BadRank(r) => write!(f, "rank {r} out of range"),
            CommError::BadTag(t) => write!(f, "tag {t:#x} outside user tag range"),
            CommError::BadShape(m) => write!(f, "malformed communication: {m}"),
            CommError::Poisoned => write!(f, "cluster fabric poisoned by a failed node"),
        }
    }
}

impl std::error::Error for CommError {}

/// Errors from running a cluster job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// Invalid cluster configuration.
    Config(String),
    /// A communicator operation failed.
    Comm(CommError),
    /// A node function panicked.
    NodePanic {
        /// Rank of the panicking node.
        rank: usize,
        /// Rendered panic payload.
        message: String,
    },
    /// An application-level failure reported by a node.
    Node {
        /// Rank of the failing node.
        rank: usize,
        /// The message the node reported.
        message: String,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Config(m) => write!(f, "cluster configuration error: {m}"),
            ClusterError::Comm(e) => write!(f, "communication error: {e}"),
            ClusterError::NodePanic { rank, message } => {
                write!(f, "node {rank} panicked: {message}")
            }
            ClusterError::Node { rank, message } => {
                if *rank == usize::MAX {
                    write!(f, "node failed: {message}")
                } else {
                    write!(f, "node {rank} failed: {message}")
                }
            }
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<CommError> for ClusterError {
    fn from(e: CommError) -> Self {
        ClusterError::Comm(e)
    }
}
