//! Out-of-core distributed group-by aggregation on FG.
//!
//! The paper closes by arguing that FG's multiple-pipeline extensions "would
//! be suitable for the design of out-of-core algorithms other than sorting"
//! (§VIII).  This module is such an algorithm: count the occurrences of
//! every key in a dataset far larger than any node's memory, in **one
//! pass**, using exactly the pass-1 shape of dsort (Figure 6):
//!
//! * the **send pipeline** `read → aggregate → send` streams the node's
//!   local input; the aggregate stage pre-combines duplicate keys *within
//!   each block* (a combiner, shrinking traffic for skewed inputs) and the
//!   send stage, dsort pass 1's, routes each partial count to the key's
//!   owner (`hash(key) mod P`) in messages it fills across blocks —
//!   unbalanced communication, hence disjoint pipelines;
//! * the **receive pipeline** `receive → merge` folds incoming partial
//!   counts into the node's in-memory table (bounded by the number of
//!   *distinct* keys it owns, not by the dataset size);
//! * a final write stage spills each node's table to its disk, sorted by
//!   key, as the output file.
//!
//! Records are the same `(u64 key, payload)` format as fg-sort's, so the
//! same input generator, distributions, and disks are reused.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use fg_core::{map_stage, PipelineCfg, Rounds};
use fg_pdm::DiskRef;
use fg_sort::config::SortConfig;
use fg_sort::driver::{self, Node};
use fg_sort::stages;
use fg_sort::SortError;
use parking_lot::Mutex;

/// Message tag for group-by traffic.
const TAG_GROUPBY: u64 = 0x6B0B_0001;

/// Bytes of a `(u64 key, u64 count)` pair.
const PAIR: usize = 16;

/// Name of the per-node output file: `(key, count)` pairs sorted by key,
/// 16 bytes each, holding the counts of the keys this node owns.
pub const COUNTS_FILE: &str = "groupby_counts";

/// Result of a group-by run.
#[derive(Debug, Clone)]
pub struct GroupByReport {
    /// Max-across-nodes wall time of the single pass.
    pub pass: Duration,
    /// Distinct keys owned per node.
    pub distinct_per_node: Vec<u64>,
    /// Total records aggregated (must equal the input record count).
    pub total_records: u64,
    /// Node 0's FG report for the pass.
    pub node0_reports: Vec<fg_core::Report>,
}

/// Which node owns a key.
pub fn owner_of(key: u64, nodes: usize) -> usize {
    // Multiplicative hash so consecutive keys spread across nodes.
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % nodes
}

/// Run the one-pass distributed group-by-count over the provisioned disks
/// (each holding fg-sort's `input` file per `cfg`); leaves each node's
/// sorted `(key, count)` table in [`COUNTS_FILE`] on its disk.
pub fn run_groupby(cfg: &SortConfig, disks: &[DiskRef]) -> Result<GroupByReport, SortError> {
    let mut run = driver::launch(cfg, disks, |node| {
        let (distinct, records) = node.phase("pass", groupby_pass)?;
        Ok((distinct, node.comm.allreduce_sum(records)?))
    })?;
    Ok(GroupByReport {
        pass: run.phases[0].1,
        distinct_per_node: run.ranks.iter().map(|r| r.out.0).collect(),
        total_records: run.ranks[0].out.1,
        node0_reports: run.take_node0_reports(),
    })
}

/// The single pass on one node; returns its distinct keys and the records
/// they count.
fn groupby_pass(node: &mut Node) -> Result<(u64, u64), SortError> {
    let cfg = &node.cfg;
    let nodes = cfg.nodes;
    let nblocks = cfg.bytes_per_node().div_ceil(cfg.block_bytes as u64);

    let mut prog = node.program("groupby");

    // ---- send pipeline ----
    let read = prog.add_stage("read", stages::read_input_stage(&node.disk, cfg));

    // Combiner: fold the block's records into (key, count) pairs, left in
    // the buffer.  The table is the stage's own, reused every round.
    let fmt = cfg.record;
    let aggregate = prog.add_stage("aggregate", {
        let mut partial: HashMap<u64, u64> = HashMap::new();
        map_stage(move |buf, _ctx| {
            partial.clear();
            for rec in fmt.records(buf.filled()) {
                *partial.entry(fmt.key(rec)).or_insert(0) += 1;
            }
            debug_assert!(partial.len() * PAIR <= buf.capacity());
            buf.clear();
            for (key, count) in &partial {
                buf.append(&key.to_le_bytes());
                buf.append(&count.to_le_bytes());
            }
            Ok(())
        })
    });

    // The exchange is dsort pass 1's; the merge stage folds what arrives
    // into the node's table.
    let cap = stages::payload_bytes(cfg);
    let dest_of = move |_round, _i, pair: &[u8]| owner_of(fmt.key(pair), nodes);
    let send = stages::scatter_send_stage(&node.comm, TAG_GROUPBY, PAIR, cap, dest_of);
    let send = prog.add_stage("send", send);
    let receive = stages::receive_stage(node.comm.clone(), TAG_GROUPBY, stages::land_bytes);
    let receive = prog.add_stage("receive", receive);

    let table = Arc::new(Mutex::new(HashMap::<u64, u64>::new()));
    let t2 = Arc::clone(&table);
    let merge = prog.add_stage(
        "merge",
        map_stage(move |buf, _ctx| {
            let mut table = t2.lock();
            for (key, count) in pairs_of(buf.filled()) {
                *table.entry(key).or_insert(0) += count;
            }
            Ok(())
        }),
    );

    // The send buffer holds a raw input block, then its combined pairs (at
    // most one a record): size for both.
    let send_buf = cfg.block_bytes.max(cfg.records_per_block() * PAIR);
    // The receive buffer must be a whole number of pairs, or a pair would
    // split across buffers and the merge stage would parse garbage.
    let recv_buf = send_buf.next_multiple_of(PAIR);
    prog.add_pipeline(
        PipelineCfg::new("send", cfg.pipeline_buffers, send_buf).rounds(Rounds::Count(nblocks)),
        &[read, aggregate, send],
    )?;
    prog.add_pipeline(
        PipelineCfg::new("recv", cfg.pipeline_buffers, recv_buf).rounds(Rounds::UntilStopped),
        &[receive, merge],
    )?;
    node.run(prog)?;

    // Spill the table, sorted by key.
    let table = Arc::try_unwrap(table)
        .map_err(|_| SortError::Fg("table still shared after run".into()))?
        .into_inner();
    let mut pairs: Vec<(u64, u64)> = table.into_iter().collect();
    pairs.sort_unstable();
    let mut bytes = Vec::with_capacity(pairs.len() * PAIR);
    let mut records = 0u64;
    for (key, count) in &pairs {
        bytes.extend_from_slice(&key.to_le_bytes());
        bytes.extend_from_slice(&count.to_le_bytes());
        records += count;
    }
    node.disk.write_at(COUNTS_FILE, 0, &bytes)?; // the driver's `sync` lands it
    Ok((pairs.len() as u64, records))
}

/// The `(key, count)` pairs packed in `bytes`, 16 bytes each.
fn pairs_of(bytes: &[u8]) -> impl Iterator<Item = (u64, u64)> + '_ {
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8 bytes"));
    bytes
        .chunks_exact(PAIR)
        .map(move |p| (word(&p[..8]), word(&p[8..])))
}

/// Read back a node's `(key, count)` table (verification helper).
pub fn read_counts(disk: &DiskRef) -> Vec<(u64, u64)> {
    pairs_of(&disk.snapshot(COUNTS_FILE).unwrap_or_default()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_covers_all_nodes() {
        let mut seen = [false; 8];
        for key in 0..10_000u64 {
            seen[owner_of(key, 8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn owner_is_stable() {
        assert_eq!(owner_of(12345, 7), owner_of(12345, 7));
    }
}
