//! Out-of-core matrix transpose on FG.
//!
//! The other classic Parallel Disk Model workload (Vitter's survey, [1] in
//! the paper): transpose an `R × C` matrix of fixed-size elements that is
//! far larger than memory.  Like csort — and unlike dsort — the I/O and
//! communication pattern is *oblivious*, so a **single linear pipeline**
//! per node suffices — though, unlike csort's, the per-round exchange is
//! only *statically known*, not balanced (a round's runs may concentrate
//! on one stripe owner, so buffers are sized for the worst case):
//!
//! * the input is banded: node `q` owns row bands of `tile_rows` rows in
//!   round-robin order (band `b` on node `b mod P`), stored contiguously
//!   in its local `tin` file;
//! * per round, the pipeline runs `read → exchange → write`: read one
//!   band; the exchange *tilts* it (in-memory tile transpose: column `j` of
//!   the band becomes a contiguous run of the output row `j`) run by run,
//!   straight into the parts for the owners of their striped-output
//!   locations (`alltoallv`), and what arrives is written — the same
//!   stripe-placement machinery the sorts use;
//! * the output is the `C × R` transpose, row-major, striped across the
//!   cluster's disks in PDM order.

use std::sync::Arc;
use std::time::Duration;

use fg_cluster::{Cluster, ClusterCfg, ClusterError, Communicator, NetCfg};
use fg_core::{map_stage, PipelineCfg, Program, Rounds};
use fg_pdm::{Disk, DiskCfg, DiskRef, SimDisk, Striping};
use fg_sort::chunks::{Exchange, CHUNK_HEADER_BYTES};
use fg_sort::stages;
use fg_sort::SortError;

/// Per-node input file: the node's row bands, concatenated in round order.
pub const TIN_FILE: &str = "transpose_in";
/// Striped output file: the transposed matrix, row-major in PDM order.
pub const TOUT_FILE: &str = "transpose_out";

/// Geometry and cost configuration of a transpose run.
#[derive(Debug, Clone, Copy)]
pub struct TransposeConfig {
    /// Cluster nodes.
    pub nodes: usize,
    /// Matrix rows (input).
    pub rows: usize,
    /// Matrix columns (input).
    pub cols: usize,
    /// Bytes per element.
    pub elem_bytes: usize,
    /// Rows per band (per round); `rows` must be divisible by
    /// `nodes * tile_rows` so every node runs the same number of rounds.
    pub tile_rows: usize,
    /// Stripe block size of the output file, in bytes.
    pub block_bytes: usize,
    /// Buffers per pipeline.
    pub pipeline_buffers: usize,
    /// Disk cost model.
    pub disk: DiskCfg,
    /// Network cost model.
    pub net: NetCfg,
}

impl TransposeConfig {
    /// A zero-cost configuration for tests.
    pub fn test_default(nodes: usize, rows: usize, cols: usize) -> Self {
        TransposeConfig {
            nodes,
            rows,
            cols,
            elem_bytes: 8,
            tile_rows: (rows / (nodes * 4)).max(1),
            block_bytes: 1024,
            pipeline_buffers: 3,
            disk: DiskCfg::zero(),
            net: NetCfg::zero(),
        }
    }

    /// Total matrix bytes.
    pub fn total_bytes(&self) -> u64 {
        (self.rows * self.cols * self.elem_bytes) as u64
    }

    /// Row bands per node.
    pub fn bands_per_node(&self) -> usize {
        self.rows / (self.nodes * self.tile_rows)
    }

    /// Validate the geometry.
    pub fn validate(&self) -> Result<(), SortError> {
        let err = |m: String| Err(SortError::Config(m));
        if self.nodes == 0 || self.rows == 0 || self.cols == 0 || self.elem_bytes == 0 {
            return err("degenerate transpose geometry".into());
        }
        if self.tile_rows == 0 || !self.rows.is_multiple_of(self.nodes * self.tile_rows) {
            return err(format!(
                "rows = {} must be divisible by nodes * tile_rows = {}",
                self.rows,
                self.nodes * self.tile_rows
            ));
        }
        if self.block_bytes == 0 || !self.block_bytes.is_multiple_of(self.elem_bytes) {
            return err(format!(
                "block_bytes = {} must be a positive multiple of elem_bytes = {}",
                self.block_bytes, self.elem_bytes
            ));
        }
        if self.pipeline_buffers == 0 {
            return err("need at least one pipeline buffer".into());
        }
        Ok(())
    }
}

/// Provision per-node disks with banded input built from `element`, a
/// function from `(row, col)` to the element's bytes.
pub fn provision<F>(cfg: &TransposeConfig, element: F) -> Vec<Arc<SimDisk>>
where
    F: Fn(usize, usize) -> Vec<u8>,
{
    let eb = cfg.elem_bytes;
    (0..cfg.nodes)
        .map(|q| {
            let disk = SimDisk::new(cfg.disk);
            let mut tin = Vec::with_capacity(cfg.bands_per_node() * cfg.tile_rows * cfg.cols * eb);
            for t in 0..cfg.bands_per_node() {
                let band = t * cfg.nodes + q;
                let row0 = band * cfg.tile_rows;
                for i in row0..row0 + cfg.tile_rows {
                    for j in 0..cfg.cols {
                        let e = element(i, j);
                        assert_eq!(e.len(), eb, "element size mismatch");
                        tin.extend_from_slice(&e);
                    }
                }
            }
            disk.load(TIN_FILE, tin);
            disk
        })
        .collect()
}

/// Result of a transpose run.
#[derive(Debug, Clone)]
pub struct TransposeReport {
    /// Max-across-nodes wall time of the single pass.
    pub pass: Duration,
    /// Per-node bytes sent over the interconnect.
    pub bytes_sent: Vec<u64>,
}

/// Run the out-of-core transpose; leaves the striped `C × R` output in
/// [`TOUT_FILE`] on every disk.
pub fn run_transpose(
    cfg: &TransposeConfig,
    disks: &[Arc<SimDisk>],
) -> Result<TransposeReport, SortError> {
    cfg.validate()?;
    if disks.len() != cfg.nodes {
        return Err(SortError::Config(format!(
            "need {} disks, got {}",
            cfg.nodes,
            disks.len()
        )));
    }
    let cfg = *cfg;
    let disks_arc: Vec<Arc<SimDisk>> = disks.to_vec();

    let run = Cluster::run(
        ClusterCfg {
            nodes: cfg.nodes,
            net: cfg.net,
        },
        move |node| -> Result<Duration, ClusterError> {
            let disk: DiskRef = disks_arc[node.rank()].clone();
            let pass = || transpose_pass(&cfg, node.rank(), node.comm(), &disk);
            Ok(node.comm().timed(pass)?.1)
        },
    )
    .map_err(|e| SortError::Comm(e.to_string()))?;

    Ok(TransposeReport {
        pass: run.results[0],
        bytes_sent: run.traffic.iter().map(|t| t.bytes_sent).collect(),
    })
}

/// The single pass on one node.
fn transpose_pass(
    cfg: &TransposeConfig,
    rank: usize,
    comm: &Communicator,
    disk: &DiskRef,
) -> Result<(), SortError> {
    let (nodes, eb) = (cfg.nodes, cfg.elem_bytes);
    let (rows, cols, tr) = (cfg.rows, cfg.cols, cfg.tile_rows);
    let band_bytes = tr * cols * eb;
    let rounds = cfg.bands_per_node() as u64;
    let striping = Striping::new(nodes, cfg.block_bytes);
    // Tilting produces `cols` runs, each of which may split at stripe-
    // block boundaries.  The exchange is *oblivious* but not balanced per
    // round: depending on the geometry, a whole round's runs can land on
    // one stripe owner, so the buffer must hold up to every node's band.
    let run_bytes = tr * eb;
    let chunks_per_run = run_bytes / cfg.block_bytes + 2;
    let header_slack = nodes * cols * chunks_per_run * CHUNK_HEADER_BYTES;
    let buf_bytes = nodes * band_bytes + header_slack + 64;

    let mut prog = Program::new(format!("transpose-n{rank}"));

    let read = prog.add_stage(
        "read",
        stages::read_stage(disk, TIN_FILE, move |t| (t * band_bytes as u64, band_bytes)),
    );

    // exchange: tile transpose — column j of the band becomes a contiguous
    // run of output row j at global output offset (j*rows + row0) * eb, in
    // aux — and each run straight into the parts for the owners of its
    // stripe pieces, each piece behind its local offset there (an alltoallv
    // per round); what arrives lands in file order.
    let comm = comm.clone();
    let exchange = prog.add_stage("exchange", {
        let mut stripes = Exchange::new(nodes);
        map_stage(move |buf, ctx| {
            let row0 = (buf.round() as usize * nodes + rank) * tr;
            let run = &mut ctx.aux(tr * eb)[..tr * eb];
            for j in 0..cols {
                for (i, elem) in run.chunks_exact_mut(eb).enumerate() {
                    let src = (i * cols + j) * eb;
                    elem.copy_from_slice(&buf.filled()[src..src + eb]);
                }
                stripes.gather_stripes(&striping, ((j * rows + row0) * eb) as u64, run);
            }
            Ok(stripes.trade_placed(&comm, buf)?)
        })
    });

    let write = prog.add_stage("write", stages::write_stage(disk, TOUT_FILE));

    prog.add_pipeline(
        PipelineCfg::new("pass", cfg.pipeline_buffers, buf_bytes).rounds(Rounds::Count(rounds)),
        &[read, exchange, write],
    )?;
    prog.run()?;
    Ok(())
}

/// Verify the striped output equals the transpose of the generated input.
pub fn verify_transpose<F>(
    cfg: &TransposeConfig,
    disks: &[Arc<SimDisk>],
    element: F,
) -> Result<(), SortError>
where
    F: Fn(usize, usize) -> Vec<u8>,
{
    let striping = Striping::new(cfg.nodes, cfg.block_bytes);
    let got = striping.assemble(disks, TOUT_FILE, cfg.total_bytes())?;
    let eb = cfg.elem_bytes;
    for j in 0..cfg.cols {
        for i in 0..cfg.rows {
            let off = (j * cfg.rows + i) * eb;
            let expect = element(i, j);
            if got[off..off + eb] != expect[..] {
                return Err(SortError::Verify(format!(
                    "output[{j}][{i}] != input[{i}][{j}]"
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ident(i: usize, j: usize) -> Vec<u8> {
        (((i as u64) << 32) | j as u64).to_le_bytes().to_vec()
    }

    fn check(cfg: &TransposeConfig) {
        let disks = provision(cfg, ident);
        run_transpose(cfg, &disks).expect("transpose run");
        verify_transpose(cfg, &disks, ident).expect("transpose verified");
    }

    #[test]
    fn square_matrix_four_nodes() {
        check(&TransposeConfig::test_default(4, 128, 128));
    }

    #[test]
    fn wide_matrix() {
        check(&TransposeConfig::test_default(4, 64, 512));
    }

    #[test]
    fn tall_matrix() {
        check(&TransposeConfig::test_default(4, 512, 32));
    }

    #[test]
    fn single_node() {
        check(&TransposeConfig::test_default(1, 32, 48));
    }

    #[test]
    fn tiny_tiles() {
        let mut cfg = TransposeConfig::test_default(2, 64, 16);
        cfg.tile_rows = 1;
        check(&cfg);
    }

    #[test]
    fn with_cost_model() {
        let mut cfg = TransposeConfig::test_default(3, 96, 64);
        cfg.tile_rows = 8;
        cfg.disk = DiskCfg::new(Duration::from_micros(20), 16.0 * 1024.0 * 1024.0);
        cfg.net = NetCfg::new(Duration::from_micros(5), 64.0 * 1024.0 * 1024.0);
        check(&cfg);
    }

    #[test]
    fn bad_geometry_rejected() {
        let mut cfg = TransposeConfig::test_default(4, 100, 16);
        cfg.tile_rows = 7; // 100 % (4*7) != 0
        assert!(cfg.validate().is_err());
        let mut cfg = TransposeConfig::test_default(2, 64, 16);
        cfg.block_bytes = 13; // not a multiple of elem_bytes
        assert!(cfg.validate().is_err());
    }
}
