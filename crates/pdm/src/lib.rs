//! # fg-pdm: a simulated Parallel Disk Model substrate
//!
//! Out-of-core programs in the FG papers target the Parallel Disk Model
//! (Vitter & Shriver): `P` disks, one per cluster node, data moved in
//! fixed-size blocks, final output *striped* round-robin across the disks.
//! This crate provides:
//!
//! * [`Disk`] — the backend trait the pipelines program against, held as
//!   [`DiskRef`] (`Arc<dyn Disk>`);
//! * [`SimDisk`] — an in-memory per-node disk whose reads and writes cost
//!   real wall-clock time under a configurable `latency + bytes/bandwidth`
//!   model and *serialize on the disk arm*, so unbalanced I/O shows up in
//!   measured pass times just as it does on hardware;
//! * [`OsDisk`] — a disk backed by real files under a root directory,
//!   served with positioned kernel I/O.  Every program runs on one of
//!   these two, bare: a read stage's buffer pool is its read-ahead and a
//!   write stage its write-behind;
//! * [`IoScheduler`] — a library wrapper over either backend adding
//!   read-ahead of a depth fixed at construction and coalescing
//!   write-behind on a dedicated I/O thread.  Only the benchmark's unit
//!   rows build one, to price it;
//! * [`Striping`] — PDM striping arithmetic (global ↔ per-node coordinates)
//!   and a verification helper that reassembles the global stream.
//!
//! ```
//! use fg_pdm::{DiskCfg, SimDisk, Striping};
//!
//! let disks: Vec<_> = (0..4).map(|_| SimDisk::new(DiskCfg::zero())).collect();
//! let s = Striping::new(4, 8);
//! let data: Vec<u8> = (0..64).collect();
//! for (node, local_off, range) in s.split_range(0, data.len()) {
//!     disks[node].write_at("out", local_off, &data[range]).unwrap();
//! }
//! assert_eq!(s.assemble(&disks, "out", 64).unwrap(), data);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod disk;
mod os_disk;
mod sched;
mod scratch;
mod striping;

pub use disk::{Disk, DiskCfg, DiskRef, DiskStats, SimDisk};
pub use os_disk::OsDisk;
pub use sched::{IoScheduler, MAX_IO_DEPTH, STAGING_CAP_BYTES};
pub use scratch::ScratchDir;
pub use striping::Striping;

use std::fmt;

/// Errors from the simulated storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PdmError {
    /// The disk has failed (injected via [`SimDisk::fail_after_ops`]).
    DiskFailed,
    /// The named file does not exist on this disk.
    NoSuchFile(String),
    /// A read extended past the end of the file.
    OutOfRange {
        /// File name.
        file: String,
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: usize,
        /// Actual file length.
        file_len: u64,
    },
    /// An operating-system I/O error from a real-file backend.
    Io(String),
    /// An invalid configuration value (e.g. an I/O scheduler depth of 0).
    Config(String),
}

impl fmt::Display for PdmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PdmError::DiskFailed => write!(f, "disk failed (injected fault)"),
            PdmError::NoSuchFile(name) => write!(f, "no such file: {name}"),
            PdmError::OutOfRange {
                file,
                offset,
                len,
                file_len,
            } => write!(
                f,
                "read of {len} bytes at {offset} exceeds {file} (len {file_len})"
            ),
            PdmError::Io(msg) => write!(f, "I/O error: {msg}"),
            PdmError::Config(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for PdmError {}
