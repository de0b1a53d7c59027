//! CI-enforced form of the "steady-state rounds allocate nothing" claim:
//! this test binary installs the tracking allocator
//! ([`fg_core::FgAlloc`]), warms a sort kernel once (scratch growth is
//! by-design allocation), and then asserts that every further sort round
//! performs **zero** heap allocations.  Integration tests are separate
//! binaries, so installing the global allocator here affects nothing
//! else in the workspace.

use fg_sort::kernels::SortScratch;
use fg_sort::record::RecordFormat;

#[global_allocator]
static FG_ALLOC: fg_core::FgAlloc = fg_core::FgAlloc;

/// Refill `bytes` with deterministic pseudo-random keys, in place — the
/// refill itself must not allocate or it would pollute the measurement.
fn refill(fmt: RecordFormat, bytes: &mut [u8], seed: u64) {
    let mut x = seed | 1;
    let rb = fmt.record_bytes;
    for i in 0..bytes.len() / rb {
        // xorshift64
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        fmt.set_key(&mut bytes[i * rb..(i + 1) * rb], x);
    }
}

fn assert_steady_state(fmt: RecordFormat) {
    let records = 4096;
    let mut data = vec![0u8; records * fmt.record_bytes];
    let mut scratch = SortScratch::new();

    // Warmup round: the scratch grows to the working size here, and only
    // here.  Tagged so a resource report attributes it as setup.
    let warmup = fg_core::register_tag("sort/warmup");
    refill(fmt, &mut data, 0xFEED);
    fg_core::with_tag(warmup, || {
        fmt.sort_bytes_with(&mut data, &mut scratch);
    });

    // Steady state: same buffer size, fresh keys each round; the kernel
    // must reuse its scratch and never touch the heap.
    for round in 0..3u64 {
        refill(fmt, &mut data, 0xBEEF ^ round);
        fg_core::assert_steady_state_alloc_free("kernel-sort", || {
            fmt.sort_bytes_with(&mut data, &mut scratch);
        });
    }

    // Sanity: the sort actually sorted.
    let keys: Vec<u64> = fmt.records(&data).map(|r| fmt.key(r)).collect();
    assert!(keys.windows(2).all(|w| w[0] <= w[1]), "output not sorted");
}

#[test]
fn warmed_kernel_sort_is_alloc_free_in_steady_state() {
    // The assertion only bites when the wrapper really is the global
    // allocator; building `data` above guarantees at least one recorded
    // allocation, so this must hold here.
    let _ = vec![0u8; 16];
    assert!(
        fg_core::alloc::installed(),
        "FgAlloc should be installed in this test binary"
    );
    assert_steady_state(RecordFormat::REC16);
    assert_steady_state(RecordFormat::REC64);
}

/// The tag counters are process-wide and the sorts share stage names, so the
/// tests that read them take turns.
static TAG_COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Bytes allocated so far under the stage tag `name`.
fn tag_bytes(name: &str) -> u64 {
    fg_core::alloc::counts(fg_core::register_tag(name)).bytes
}

/// The four-node dsort the allocation rows are read from.
fn dsort_cfg(records_per_node: usize) -> fg_sort::config::SortConfig {
    let mut cfg = fg_sort::config::SortConfig::test_default(4, records_per_node);
    cfg.block_bytes = 4 << 10;
    cfg.run_bytes = 16 << 10;
    cfg.vertical_buf_bytes = 2 << 10;
    cfg
}

/// The fabric stages of both dsort passes.
const DSORT_TAGS: [&str; 2] = ["send", "receive"];

/// One verified dsort of `records_per_node` records on four nodes; returns
/// what each of [`DSORT_TAGS`] allocated over both passes, and the bytes of
/// every payload the fabric can hold (each node's population, at the size
/// every payload is made).
fn dsort_stage_allocations(records_per_node: usize) -> ([u64; 2], u64) {
    use fg_sort::verify::{verify_output, Strictness};
    let cfg = dsort_cfg(records_per_node);
    let disks = fg_sort::input::provision(&cfg);
    let before = DSORT_TAGS.map(tag_bytes);
    let report = fg_sort::dsort::run_dsort(&cfg, &disks).expect("dsort run");
    let after = DSORT_TAGS.map(tag_bytes);
    verify_output(&cfg, &disks, Strictness::Fingerprint).expect("dsort output");
    let payloads: usize = report.payloads.iter().map(|p| p.population).sum();
    let fabric = (payloads * fg_sort::stages::payload_bytes(&cfg)) as u64;
    (std::array::from_fn(|i| after[i] - before[i]), fabric)
}

/// dsort's data path circulates a fixed set of buffers: what its send and
/// receive stages allocate is set-up (the destination scratch, the payload
/// population — sized once, for the longer of the two passes' headers, so
/// pass 2 reallocates none of pass 1's — and mailbox slots), so it stays
/// under 1 MiB and does not follow the input when the input grows eightfold —
/// nor the run length, which the plan grows eightfold with it: the receive
/// stage fills whatever buffers its pipeline's pool holds.
#[test]
fn dsort_data_path_allocations_do_not_grow_with_the_input() {
    use fg_sort::dsort::plan::run_len;
    let _turn = TAG_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let _ = vec![0u8; 16];
    assert!(fg_core::alloc::installed());
    assert_eq!(run_len(&dsort_cfg(16 << 10)), 16 << 10);
    assert_eq!(run_len(&dsort_cfg(128 << 10)), 128 << 10);
    let (small, _) = dsort_stage_allocations(16 << 10); // 256 KiB a node
    let (large, fabric) = dsort_stage_allocations(128 << 10); // 2 MiB a node
    for (tag, (small, large)) in DSORT_TAGS.into_iter().zip(small.into_iter().zip(large)) {
        assert!(large < 1 << 20, "{tag}: {large} B allocated");
        // 7 MiB more input; a stage that allocated per round would need
        // hundreds of KiB more.  The payloads are made on first demand, so
        // how many of them a run draws depends on load, not on input: `send`
        // is held to all the fabric can hold.  The slack covers mailbox
        // slots and markers.
        let bound = if tag == "send" { fabric } else { small } + (64 << 10);
        assert!(
            small.max(large) <= bound,
            "{tag}: {small} B for 1 MiB of input, {large} B for 8 MiB, bound {bound} B"
        );
    }
}

/// The stages of csort's data path.
const CSORT_TAGS: [&str; 5] = ["communicate", "stripe", "exchange", "read", "write"];

/// One verified csort of `records_per_node` 16-byte records on four nodes,
/// on real files; returns what each of [`CSORT_TAGS`] allocated.
fn csort_os_stage_allocations(records_per_node: usize) -> [u64; 5] {
    columnsort_os_stage_allocations(CSORT_TAGS, records_per_node, |cfg, disks| {
        fg_sort::csort::run_csort(cfg, disks).expect("csort run");
    })
}

/// [`csort_os_stage_allocations`] for any of the columnsorts and any tags.
fn columnsort_os_stage_allocations<const N: usize>(
    tags: [&str; N],
    records_per_node: usize,
    sort: impl Fn(&fg_sort::config::SortConfig, &[fg_pdm::DiskRef]),
) -> [u64; N] {
    use fg_sort::verify::{verify_output, Strictness};
    let scratch = fg_pdm::ScratchDir::new("alloc-steady").expect("scratch directory");
    let mut cfg = fg_sort::config::SortConfig::test_default(4, records_per_node);
    cfg.block_bytes = 4 << 10;
    cfg.backend = fg_sort::config::DiskBackend::Os {
        dir: scratch.path().to_path_buf(),
    };
    let disks = fg_sort::input::provision(&cfg);
    let before = tags.map(tag_bytes);
    sort(&cfg, &disks);
    let after = tags.map(tag_bytes);
    verify_output(&cfg, &disks, Strictness::Fingerprint).expect("columnsort output");
    std::array::from_fn(|i| after[i] - before[i])
}

/// csort's exchange stages trade their `Vec`s and its read and write stages
/// fill and drain pool buffers, so what they allocate is their working set —
/// a few columns — and not a function of how many rounds there are.
/// The two inputs have the same column (8192 records, 128 KiB) and 8 and 16
/// rounds a pass: a stage that allocated per round would need 4 MiB more for
/// the larger one (`write` 12 MiB more, over three passes).
#[test]
fn csort_os_allocations_do_not_grow_with_the_input() {
    let _turn = TAG_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let _ = vec![0u8; 16];
    assert!(fg_core::alloc::installed());
    const COLUMN: u64 = 128 << 10;
    for records_per_node in [64 << 10, 128 << 10] {
        let m = fg_sort::config::Matrix::choose(4 * records_per_node, 4).expect("geometry");
        assert_eq!(
            m.r as u64 * 16,
            COLUMN,
            "the inputs must share a column size"
        );
    }
    let small = csort_os_stage_allocations(64 << 10); // 4 MiB
    let large = csort_os_stage_allocations(128 << 10); // 8 MiB

    // What may differ between two runs of any size: how many half-column
    // payloads pass 3 had in flight.
    let slack = |tag: &str| match tag {
        "exchange" => 4 * 3 * COLUMN / 2,
        _ => 64 << 10,
    };
    for (tag, (small, large)) in CSORT_TAGS.into_iter().zip(small.into_iter().zip(large)) {
        assert!(
            large <= small + slack(tag),
            "{tag}: {small} B for 4 MiB of input, {large} B for 8 MiB"
        );
        // And the working set is a few columns a node: less than the 8 MiB of
        // input, of which every byte is read and written three times.
        assert!(large < 8 << 20, "{tag}: {large} B allocated");
    }
}

/// csort4's exchange of halves (`shift`, its pass 3) is csort's: pooled
/// payloads out, the received half read in place.  Twice the rounds at the
/// same column allocate no more than a few half-column payloads more (how
/// many were in flight at once differs from run to run; the slack is
/// csort's for `exchange`) — a stage that built a `Vec` of half a column
/// every round would need 2 MiB more.
#[test]
fn csort4_exchange_allocations_do_not_grow_with_the_input() {
    let _turn = TAG_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let _ = vec![0u8; 16];
    assert!(fg_core::alloc::installed());
    const COLUMN: u64 = 128 << 10;
    let shift = |records_per_node| {
        let [bytes] = columnsort_os_stage_allocations(["shift"], records_per_node, |cfg, disks| {
            fg_sort::csort4::run_csort4(cfg, disks).expect("csort4 run");
        });
        bytes
    };
    let (small, large) = (shift(64 << 10), shift(128 << 10)); // 4 MiB, 8 MiB
    assert!(
        large <= small + 4 * 3 * COLUMN / 2,
        "shift: {small} B for 4 MiB of input, {large} B for 8 MiB"
    );
}
