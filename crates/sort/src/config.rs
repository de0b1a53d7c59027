//! Experiment configuration and derived geometry.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use fg_cluster::NetCfg;
use fg_pdm::DiskCfg;

use crate::keygen::KeyDist;
use crate::record::RecordFormat;
use crate::SortError;

/// Which storage backend [`provision`](crate::input::provision) builds the
/// per-node disks on.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum DiskBackend {
    /// In-memory [`SimDisk`](fg_pdm::SimDisk) under the configured
    /// [`DiskCfg`] cost model.
    #[default]
    Sim,
    /// Real files via [`OsDisk`](fg_pdm::OsDisk): node `r`'s disk lives
    /// under `dir/d{r}`.  The [`DiskCfg`] cost model is ignored — kernel
    /// I/O is the cost.
    Os {
        /// Root directory holding one `d{rank}` subdirectory per node.
        dir: PathBuf,
    },
}

/// Everything a sorting run needs: cluster shape, dataset, cost models, and
/// buffer geometry.
#[derive(Debug, Clone)]
pub struct SortConfig {
    /// Number of cluster nodes (`P`).
    pub nodes: usize,
    /// Records per node; total `N = nodes * records_per_node`.
    pub records_per_node: usize,
    /// Record layout (16- or 64-byte in the paper).
    pub record: RecordFormat,
    /// Input key distribution.
    pub dist: KeyDist,
    /// RNG seed for the input.
    pub seed: u64,
    /// Per-node disk cost model.
    pub disk: DiskCfg,
    /// Interconnect cost model.
    pub net: NetCfg,
    /// Block size in bytes for disk transfers, communication payload
    /// batches, and output striping.  Must be a multiple of the record
    /// size.
    pub block_bytes: usize,
    /// Floor on dsort's pass-1 run size in bytes.  Pass 1 writes one sorted
    /// run per receive-pipeline buffer and sizes those buffers from the
    /// node's pool budget ([`dsort::plan`](crate::dsort::plan)): longer than
    /// this when the budget allows, never shorter.  Must be a multiple of
    /// the record size.
    pub run_bytes: usize,
    /// dsort pass-2 vertical-pipeline buffer size in bytes.  With
    /// `vertical_buffers` this is the merge memory a run costs, so it also
    /// decides how long pass 1 makes the runs.
    pub vertical_buf_bytes: usize,
    /// dsort pass-2 buffers per vertical pipeline (the read-ahead depth on
    /// each sorted run).
    pub vertical_buffers: usize,
    /// Buffers per FG pipeline.
    pub pipeline_buffers: usize,
    /// Oversampling factor for splitter selection: each node contributes
    /// `oversample` sample keys per partition.
    pub oversample: usize,
    /// Worker replicas for the CPU-bound sort stages (`fgsort --workers`).
    /// 1 keeps every stage singular; above 1, csort and csort4 farm their
    /// in-core sort stages with `Program::workers`, whose ordered emission
    /// keeps the lockstep communication stages downstream correct.
    pub workers: usize,
    /// Storage backend for the per-node disks (`fgsort --backend`).
    pub backend: DiskBackend,
    /// Read by nothing in the library: every program runs on the bare
    /// backend, whose read stages' pools are its read-ahead (DESIGN.md §6).
    /// It stays only because `benchmark/` sets and reads it; ROADMAP item 1,
    /// which re-baselines the benchmark, deletes it.
    pub io_depth: usize,
    /// Causal-trace sink (`fgsort --trace OUT`): every FG program the sort
    /// runs flight-records per-buffer spans into this sink (export with
    /// [`TraceSink::to_chrome_trace`](fg_core::TraceSink::to_chrome_trace)).
    /// Each program's own share of the log also lands in its
    /// [`Report`](fg_core::Report), so the reports dsort returns render
    /// Gantt charts.
    pub trace_sink: Option<Arc<fg_core::TraceSink>>,
    /// Stall-watchdog timeout (`fgsort --watchdog-secs N`): armed on every
    /// FG program the sort runs; a program making no progress for this
    /// long dumps a post-mortem and aborts with
    /// [`FgError::Stalled`](fg_core::FgError::Stalled).
    pub watchdog: Option<Duration>,
    /// Metrics registry shared across the run (`fgsort --telemetry` /
    /// `--profile`): every FG program publishes its queue and stage
    /// metrics here, making them scrapeable while the sort runs.
    pub metrics: Option<Arc<fg_core::MetricsRegistry>>,
    /// Chrome-trace track group for this node's FG programs: the driver sets
    /// it to the node's rank (per node, after cloning the config into the
    /// node function) so every program's spans land in that node's track
    /// group of the merged export.
    pub trace_group: Option<u32>,
    /// Memory ledger shared by every FG program the sort runs (`fgsort
    /// --profile` / `--mem-budget`): pool buffers are charged to it as
    /// they are created and credited as they retire, so `GET /resources`
    /// and the end-of-run resource report carry the pools' total and
    /// high-water marks.  `None` skips the accounting entirely.
    pub ledger: Option<Arc<fg_core::MemoryLedger>>,
}

impl SortConfig {
    /// A small, fast, cost-free configuration for tests.
    pub fn test_default(nodes: usize, records_per_node: usize) -> Self {
        SortConfig {
            nodes,
            records_per_node,
            record: RecordFormat::REC16,
            dist: KeyDist::Uniform,
            seed: 0xF00D,
            disk: DiskCfg::zero(),
            net: NetCfg::zero(),
            block_bytes: 64 * 16,
            run_bytes: 256 * 16,
            vertical_buf_bytes: 16 * 16,
            vertical_buffers: 2,
            pipeline_buffers: 3,
            oversample: 8,
            workers: 1,
            backend: DiskBackend::Sim,
            io_depth: 0,
            trace_sink: None,
            watchdog: None,
            metrics: None,
            trace_group: None,
            ledger: None,
        }
    }

    /// A configuration with cost models shaped like the paper's cluster.
    ///
    /// The paper's nodes pair an Ultra-320 SCSI disk (~60 MB/s sustained)
    /// with 2 Gb/s Myrinet (~250 MB/s) — a ~1:4 disk:network bandwidth
    /// ratio that makes the sorts I/O-bound.  We keep that ratio but scale
    /// both bandwidths (and the dataset, see `Scale` in `fg-bench`) down
    /// by ~100×, so that simulated-I/O sleep time dominates the real CPU
    /// time of the in-memory sorts even on a single-core host: disks at
    /// 600 KiB/s with 0.5 ms per-op latency, network at 2.5 MiB/s with
    /// 100 µs latency.
    pub fn experiment_default(nodes: usize, records_per_node: usize) -> Self {
        SortConfig {
            disk: DiskCfg::new(Duration::from_micros(500), 600.0 * 1024.0),
            net: NetCfg::new(Duration::from_micros(100), 2.5 * 1024.0 * 1024.0),
            block_bytes: 16 * 1024,
            run_bytes: 64 * 1024,
            vertical_buf_bytes: 8 * 1024,
            ..SortConfig::test_default(nodes, records_per_node)
        }
    }

    /// Apply this config's observability settings to an FG program: the
    /// causal-trace sink (`trace_sink`, whose spans each program's report
    /// then carries for its Gantt chart), the stall watchdog (`watchdog`),
    /// registry, track group and ledger.  Called from the one place
    /// that makes a sort's programs, [`Node::program`](crate::driver::Node::program).
    pub fn instrument(&self, prog: &mut fg_core::Program) {
        if let Some(sink) = &self.trace_sink {
            prog.set_trace_sink(Arc::clone(sink));
            prog.enable_tracing();
        }
        if let Some(timeout) = self.watchdog {
            prog.with_watchdog(timeout);
        }
        if let Some(reg) = &self.metrics {
            prog.set_metrics(Arc::clone(reg));
        }
        if let Some(group) = self.trace_group {
            prog.set_trace_group(group);
        }
        if let Some(ledger) = &self.ledger {
            prog.set_memory_ledger(Arc::clone(ledger));
        }
    }

    /// Total records across the cluster.
    pub fn total_records(&self) -> usize {
        self.nodes * self.records_per_node
    }

    /// Total bytes across the cluster.
    pub fn total_bytes(&self) -> u64 {
        self.total_records() as u64 * self.record.record_bytes as u64
    }

    /// Bytes of input per node.
    pub fn bytes_per_node(&self) -> u64 {
        self.records_per_node as u64 * self.record.record_bytes as u64
    }

    /// Records per block.
    pub fn records_per_block(&self) -> usize {
        self.block_bytes / self.record.record_bytes
    }

    /// Validate invariants common to both sorts.
    pub fn validate(&self) -> Result<(), SortError> {
        let err = |m: String| Err(SortError::Config(m));
        if self.nodes == 0 {
            return err("need at least one node".into());
        }
        if self.records_per_node == 0 {
            return err("need at least one record per node".into());
        }
        let rb = self.record.record_bytes;
        for (what, v) in [
            ("block_bytes", self.block_bytes),
            ("run_bytes", self.run_bytes),
            ("vertical_buf_bytes", self.vertical_buf_bytes),
        ] {
            if v == 0 || v % rb != 0 {
                return err(format!(
                    "{what} = {v} must be a positive multiple of the record size {rb}"
                ));
            }
        }
        if self.pipeline_buffers == 0 {
            return err("need at least one pipeline buffer".into());
        }
        if self.vertical_buffers == 0 {
            return err("need at least one vertical buffer".into());
        }
        if self.oversample == 0 {
            return err("oversample must be positive".into());
        }
        if self.workers == 0 {
            return err("workers must be positive".into());
        }
        if self.run_bytes < self.block_bytes {
            return err(format!(
                "run_bytes {} must be at least block_bytes {}",
                self.run_bytes, self.block_bytes
            ));
        }
        Ok(())
    }
}

/// The columnsort matrix geometry: `r × s`, column-major, column `j` owned
/// by node `j mod P` as its local column `j div P`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Matrix {
    /// Rows per column.
    pub r: usize,
    /// Number of columns.
    pub s: usize,
    /// Cluster size.
    pub nodes: usize,
}

impl Matrix {
    /// Choose the columnsort geometry for `total` records on `nodes` nodes:
    /// the largest column count `s` such that
    ///
    /// * `P | s` (each node owns `s/P` columns),
    /// * `s | N` and `s | r` where `r = N/s` (clean even-step permutations),
    /// * `r` even (half-column shifts), and
    /// * `r ≥ 2(s−1)²` (Leighton's requirement).
    pub fn choose(total: usize, nodes: usize) -> Result<Matrix, SortError> {
        let mut best: Option<Matrix> = None;
        let mut m = 1usize;
        loop {
            let s = nodes * m;
            if s > total {
                break;
            }
            if total.is_multiple_of(s) {
                let r = total / s;
                if r.is_multiple_of(s) && r.is_multiple_of(2) && r >= 2 * (s - 1) * (s - 1) {
                    best = Some(Matrix { r, s, nodes });
                }
            }
            m += 1;
        }
        best.ok_or_else(|| {
            SortError::Config(format!(
                "no valid columnsort geometry for N={total}, P={nodes}; \
                 need s with P|s, s|N, s|(N/s), N/s even, N/s >= 2(s-1)^2 \
                 (powers of two for N/P work well)"
            ))
        })
    }

    /// Columns owned by each node.
    pub fn cols_per_node(&self) -> usize {
        self.s / self.nodes
    }

    /// Owner node of column `j`.
    pub fn owner(&self, col: usize) -> usize {
        col % self.nodes
    }

    /// Local column index of global column `j` on its owner.
    pub fn local_index(&self, col: usize) -> usize {
        col / self.nodes
    }

    /// Global column handled by `node` in round `t`.
    pub fn col_of_round(&self, node: usize, round: usize) -> usize {
        round * self.nodes + node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_default_validates() {
        SortConfig::test_default(4, 1024).validate().unwrap();
        SortConfig::experiment_default(16, 4096).validate().unwrap();
    }

    #[test]
    fn bad_configs_rejected() {
        let mut c = SortConfig::test_default(4, 1024);
        c.block_bytes = 100; // not a multiple of 16
        assert!(c.validate().is_err());
        let mut c = SortConfig::test_default(0, 1024);
        c.nodes = 0;
        assert!(c.validate().is_err());
        let mut c = SortConfig::test_default(4, 1024);
        c.run_bytes = c.block_bytes / 2;
        assert!(c.validate().is_err());
    }

    #[test]
    fn derived_sizes() {
        let c = SortConfig::test_default(4, 1000);
        assert_eq!(c.total_records(), 4000);
        assert_eq!(c.total_bytes(), 64_000);
        assert_eq!(c.bytes_per_node(), 16_000);
        assert_eq!(c.records_per_block(), 64);
    }

    #[test]
    fn matrix_choice_satisfies_all_constraints() {
        for (n_per, p) in [(4096usize, 4usize), (16384, 16), (1024, 2), (8192, 8)] {
            let total = n_per * p;
            let m = Matrix::choose(total, p).unwrap();
            assert_eq!(m.s % p, 0);
            assert_eq!(total % m.s, 0);
            assert_eq!(m.r, total / m.s);
            assert_eq!(m.r % m.s, 0);
            assert_eq!(m.r % 2, 0);
            assert!(m.r >= 2 * (m.s - 1) * (m.s - 1), "{m:?}");
        }
    }

    #[test]
    fn matrix_prefers_more_columns() {
        // N = 2^18, P = 16: s = 32 is valid (r = 8192 >= 2*31^2 = 1922) but
        // s = 64 is not (r = 4096 < 2*63^2).
        let m = Matrix::choose(1 << 18, 16).unwrap();
        assert_eq!(m.s, 32);
        assert_eq!(m.r, 8192);
    }

    #[test]
    fn matrix_ownership_round_robin() {
        let m = Matrix::choose(1 << 18, 16).unwrap();
        assert_eq!(m.cols_per_node(), 2);
        assert_eq!(m.owner(0), 0);
        assert_eq!(m.owner(17), 1);
        assert_eq!(m.local_index(17), 1);
        assert_eq!(m.col_of_round(1, 1), 17);
    }

    #[test]
    fn impossible_geometry_errors() {
        // 3 records on 2 nodes: nothing works.
        assert!(Matrix::choose(3, 2).is_err());
    }
}
