//! The group-by's exchange is dsort pass 1's, so it is held to the same
//! claim: its fabric stages allocate their set-up and nothing per round.
//! The test binary installs the tracking allocator ([`fg_core::FgAlloc`]) to
//! read the per-stage rows; integration tests are separate binaries, so that
//! affects nothing else.

use fg_apps::groupby::run_groupby;
use fg_sort::config::SortConfig;
use fg_sort::input::provision;

#[global_allocator]
static FG_ALLOC: fg_core::FgAlloc = fg_core::FgAlloc;

/// The fabric stages of the group-by's one pass.
const TAGS: [&str; 2] = ["send", "receive"];

/// One group-by of `records_per_node` mostly distinct keys on four nodes;
/// returns what each of [`TAGS`] allocated.
fn exchange_allocations(records_per_node: usize) -> [u64; 2] {
    let tag_bytes = |name| fg_core::alloc::counts(fg_core::register_tag(name)).bytes;
    let mut cfg = SortConfig::test_default(4, records_per_node);
    cfg.block_bytes = 4 << 10;
    let disks = provision(&cfg);
    let before = TAGS.map(tag_bytes);
    let report = run_groupby(&cfg, &disks).expect("groupby run");
    let after = TAGS.map(tag_bytes);
    assert_eq!(report.total_records, cfg.total_records() as u64);
    std::array::from_fn(|i| after[i] - before[i])
}

/// Eight times the input is eight times the rounds and the messages; a send
/// stage that took a fresh payload per message, or a receive stage that
/// copied a straddling one aside, would allocate megabytes more.  The slack
/// is dsort's (`fg-sort`'s `alloc_steady.rs`): payloads and mailbox slots the
/// smaller run happened not to need.
#[test]
fn groupby_exchange_allocations_do_not_grow_with_the_input() {
    let _ = vec![0u8; 16];
    assert!(fg_core::alloc::installed());
    let small = exchange_allocations(16 << 10); // 1 MiB over the cluster
    let large = exchange_allocations(128 << 10); // 8 MiB
    for (tag, (small, large)) in TAGS.into_iter().zip(small.into_iter().zip(large)) {
        assert!(large < 1 << 20, "{tag}: {large} B allocated");
        assert!(
            large <= small + (64 << 10),
            "{tag}: {small} B for 1 MiB of input, {large} B for 8 MiB"
        );
    }
}
