//! dsort's memory plan: run length and fan-in from the pool budget.
//!
//! Pass 1 writes one sorted run per receive-pipeline buffer and pass 2 gives
//! every run its own vertical pipeline, so the size of pass 1's buffers
//! decides the merge's fan-in.  Neither is a constant here: both follow from
//! the memory the configured geometry commits on a node (TPIE's rule for
//! its merge sort).  Short runs mean many verticals, whose buffers then
//! dwarf pass 1's pool; the plan hands pass 1 the same bytes instead, which
//! lengthens the runs until pass 2 needs only a few verticals.  `run_bytes`
//! is the floor: a caller may ask for longer runs than the plan would pick,
//! never get shorter ones.

use crate::config::SortConfig;

/// Bytes of buffer pool the configured geometry commits on a node at its
/// larger pass: pass 1's receive pool of `run_bytes` buffers, or the
/// vertical pools pass 2 needs to merge a node's share of the input cut
/// into `run_bytes` runs.
pub fn pool_budget(cfg: &SortConfig) -> u64 {
    let pass1 = cfg.pipeline_buffers as u64 * cfg.run_bytes as u64;
    let runs = cfg.bytes_per_node().div_ceil(cfg.run_bytes as u64);
    let pass2 = runs * cfg.vertical_buffers as u64 * cfg.vertical_buf_bytes as u64;
    pass1.max(pass2)
}

/// The size of pass 1's receive buffers, hence of every sorted run but a
/// node's last: the largest multiple of the block size such that the
/// receive pool plus one run length for the sort kernel's auxiliary copy
/// fits in [`pool_budget`] — at least `run_bytes`, and otherwise no more
/// than a node's share of the input.
///
/// The auxiliary copy is what every kernel path holds beside the buffer it
/// sorts; the 16-byte radix path keeps a second ping-pong array of the same
/// size, which is not charged here.
pub fn run_len(cfg: &SortConfig) -> usize {
    let block = cfg.block_bytes as u64;
    let fit = pool_budget(cfg) / (cfg.pipeline_buffers as u64 + 1) / block * block;
    let share = cfg.bytes_per_node().div_ceil(block) * block;
    fit.min(share).max(cfg.run_bytes as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordFormat;

    /// The geometry `benchmark/` and `fgsort` run by default, on `mib` MiB
    /// of input over four nodes.
    fn benchmark_geometry(record: RecordFormat, mib: usize) -> SortConfig {
        let mut cfg = SortConfig::test_default(4, (mib << 20) / 4 / record.record_bytes);
        cfg.record = record;
        cfg.block_bytes = 16 << 10;
        cfg.run_bytes = 64 << 10;
        cfg.vertical_buf_bytes = 8 << 10;
        cfg
    }

    #[test]
    fn benchmark_geometry_plans_768_kib_runs_from_a_3_mib_budget() {
        for record in [RecordFormat::REC16, RecordFormat::REC64] {
            let cfg = benchmark_geometry(record, 48);
            assert_eq!(pool_budget(&cfg), 3 << 20);
            assert_eq!(run_len(&cfg), 768 << 10);
        }
    }

    #[test]
    fn run_bytes_is_a_floor_and_the_input_share_a_ceiling() {
        // A pass-2 budget smaller than pass 1's pool: nothing to spend.
        let cfg = SortConfig::test_default(4, 1024);
        assert_eq!(run_len(&cfg), cfg.run_bytes);
        // A floor above the planned length is honoured as it is.
        let mut cfg = benchmark_geometry(RecordFormat::REC16, 48);
        cfg.run_bytes = 1 << 20;
        assert_eq!(run_len(&cfg), 1 << 20);
        // Deep vertical pools could buy runs longer than the input.
        let mut cfg = benchmark_geometry(RecordFormat::REC16, 1);
        cfg.vertical_buffers = 64;
        assert_eq!(run_len(&cfg), 256 << 10);
    }

    /// Every shape the tests, experiments and `random_configs.rs` use.
    fn grid() -> Vec<SortConfig> {
        let mut out = Vec::new();
        for record in [RecordFormat::REC16, RecordFormat::REC64] {
            for mib in [6, 48] {
                out.push(benchmark_geometry(record, mib));
            }
            for nodes in [1, 2, 4, 8, 16] {
                for records_per_node in [64, 1000, 4096, 1 << 16] {
                    let mut test = SortConfig::test_default(nodes, records_per_node);
                    let mut experiment = SortConfig::experiment_default(nodes, records_per_node);
                    test.record = record;
                    experiment.record = record;
                    out.push(test);
                    out.push(experiment);
                }
            }
            // `random_configs.rs`: blocks of 8..64 records, runs of 1..5
            // blocks, vertical buffers of 4..32 records.
            for (block_recs, run_blocks, vert_recs, buffers) in
                [(8, 1, 4, 1), (8, 4, 31, 2), (63, 2, 4, 3), (17, 3, 9, 5)]
            {
                let mut cfg = SortConfig::test_default(3, 1777);
                cfg.record = record;
                cfg.block_bytes = block_recs * record.record_bytes;
                cfg.run_bytes = run_blocks * cfg.block_bytes;
                cfg.vertical_buf_bytes = vert_recs * record.record_bytes;
                cfg.pipeline_buffers = buffers;
                out.push(cfg);
            }
        }
        out
    }

    #[test]
    fn planned_runs_fit_the_budget_over_the_grid() {
        for cfg in grid() {
            cfg.validate().expect("grid configs are valid");
            let len = run_len(&cfg);
            let what = format!("{cfg:?}");
            assert!(len >= cfg.run_bytes, "{what}");
            assert_eq!(len % cfg.record.record_bytes, 0, "{what}");
            // Pool plus the kernel's auxiliary run length.
            let committed = (cfg.pipeline_buffers as u64 + 1) * len as u64;
            assert!(
                committed <= pool_budget(&cfg) || len == cfg.run_bytes,
                "{what}"
            );
        }
    }

    #[test]
    fn less_merge_memory_means_shorter_runs() {
        let non_increasing = |lens: &[usize], what: &SortConfig| {
            assert!(
                lens.windows(2).all(|w| w[1] <= w[0]),
                "{lens:?} for {what:?}"
            );
        };
        for base in grid() {
            // Narrower vertical buffers at the configured depth ...
            let narrower = [128, 32, 8, 4, 2, 1].map(|records| {
                let mut cfg = base.clone();
                cfg.vertical_buf_bytes = records * base.record.record_bytes;
                run_len(&cfg)
            });
            non_increasing(&narrower, &base);
            // ... and shallower ones at the configured width.
            let shallower = [16, 8, 4, 2, 1].map(|vertical_buffers| {
                let mut cfg = base.clone();
                cfg.vertical_buffers = vertical_buffers;
                run_len(&cfg)
            });
            non_increasing(&shallower, &base);
        }
    }
}
