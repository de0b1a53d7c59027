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
    let before = fg_core::alloc::counts(warmup).bytes;
    fg_core::with_tag(warmup, || {
        fmt.sort_bytes_with(&mut data, &mut scratch);
    });
    // Both kernels finish in `data`: a 16-byte record costs one 16-byte
    // `(key, payload)` item of scratch, a wider one two 16-byte permutation
    // pairs, and no record-sized copy of the data besides (96 B a 64-byte
    // record, and 32 a 16-byte one, while the permutation was gathered
    // into an auxiliary copy and the records scattered twice).  The rest
    // is a level's histograms.
    let per_record = if fmt.record_bytes == 16 { 16 } else { 32 };
    let grown = fg_core::alloc::counts(warmup).bytes - before;
    assert!(
        grown <= (per_record * records + (64 << 10)) as u64,
        "{fmt:?}: the warm-up grew {grown} B of scratch for {records} records"
    );

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
    let _turn = TAG_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
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

/// Pass 2 alone: what its `send` and `receive` stages allocate — read between
/// barriers every node crosses, so no node is in another pass — and how
/// many payloads it had to add to the populations pass 1 left.
fn dsort_pass2_allocations(records_per_node: usize) -> ([u64; 2], u64) {
    use fg_sort::dsort::{pass1, pass2, plan, sampling};
    use fg_sort::verify::{verify_output, Strictness};
    let cfg = dsort_cfg(records_per_node);
    let disks = fg_sort::input::provision(&cfg);
    let run = fg_sort::driver::launch(&cfg, &disks, |node| {
        let made = |node: &fg_sort::driver::Node| {
            let pool = node.comm.payload_stats();
            (pool.idle + pool.outstanding) as u64
        };
        let splitters = sampling::select_splitters(node)?;
        let run_lens = pass1::pass1(node, &splitters, plan::run_len(&node.cfg))?;
        let records = run_lens.iter().sum::<u64>() / node.cfg.record.record_bytes as u64;
        let partitions = node.comm.allgather_u64(records)?;
        let before = (DSORT_TAGS.map(tag_bytes), made(node));
        node.comm.allgather_u64(0)?;
        let rank_offset = partitions[..node.rank].iter().sum();
        pass2::pass2(node, &run_lens, rank_offset, true)?;
        node.comm.allgather_u64(0)?;
        let tags = std::array::from_fn(|i| tag_bytes(DSORT_TAGS[i]) - before.0[i]);
        Ok((tags, made(node) - before.1))
    })
    .expect("dsort phases");
    verify_output(&cfg, &disks, Strictness::Exact).expect("dsort output");
    let added = run.ranks.iter().map(|rank| rank.out.1).sum();
    (run.ranks[0].out.0, added)
}

/// A message is a buffer: pass 2's send stage hands its buffer's storage to
/// the fabric and takes an idle payload's in return, and its receive stage
/// takes a whole message as its buffer the same way.  Once the populations
/// exist neither allocates, so at any input size `send` allocates only the
/// payloads pass 2 added to the pools, and the DONE markers, and `receive`
/// next to nothing.
#[test]
fn dsort_pass2_trades_storage_without_allocating() {
    let _turn = TAG_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let _ = vec![0u8; 16];
    assert!(fg_core::alloc::installed());
    let payload = fg_sort::stages::payload_bytes(&dsort_cfg(16 << 10)) as u64;
    for records_per_node in [16 << 10, 128 << 10] {
        let ([send, receive], added) = dsort_pass2_allocations(records_per_node);
        // Markers are a byte to each node; a mailbox may grow a few slots.
        let slack = 16 << 10;
        assert!(
            send <= added * payload + slack,
            "send: {send} B, {added} payloads added"
        );
        assert!(receive <= 1 << 10, "receive: {receive} B");
    }
}

/// A node's passes draw their pools from its stock, and a pass-1 run buffer
/// fits no pool of pass 2 (its vertical and payload buffers are smaller):
/// pass 1 leaves every run buffer of its receive pool in the stock — those
/// its first stage retired and those left in the pool — and pass 2's build
/// frees them before its pools allocate, so none is left once pass 2 has
/// run.
#[test]
fn dsort_frees_its_run_buffers_when_pass2_is_built() {
    use fg_sort::dsort::{pass1, pass2, plan, sampling};
    let _turn = TAG_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = dsort_cfg(16 << 10);
    let disks = fg_sort::input::provision(&cfg);
    let run = fg_sort::driver::launch(&cfg, &disks, |node| {
        let run_len = plan::run_len(&node.cfg);
        let splitters = sampling::select_splitters(node)?;
        let run_lens = pass1::pass1(node, &splitters, run_len)?;
        let after_pass1 = node.stock.sizes();
        let records = run_lens.iter().sum::<u64>() / node.cfg.record.record_bytes as u64;
        let partitions = node.comm.allgather_u64(records)?;
        let rank_offset = partitions[..node.rank].iter().sum();
        pass2::pass2(node, &run_lens, rank_offset, true)?;
        let runs = |sizes: Vec<usize>| sizes.iter().filter(|&&s| s == run_len).count();
        Ok((runs(after_pass1), runs(node.stock.sizes())))
    })
    .expect("dsort phases");
    for (rank, out) in run.ranks.iter().enumerate() {
        let (after_pass1, after_pass2) = out.out;
        let pool = cfg.pipeline_buffers;
        assert_eq!(
            after_pass1, pool,
            "rank {rank}: pass 1 stocked {after_pass1} run buffers"
        );
        assert_eq!(after_pass2, 0, "rank {rank}: run buffers outlived pass 2");
    }
}

/// Every pass of a columnsort shares one buffer size, the largest any pass
/// needs — a window of a column and a half and its striping slack — so a
/// node makes its pools once a run: the `pool` tag holds one pool a node of
/// that size (csort made three, two of a column and one of a window).
#[test]
fn csort_makes_its_pools_once_a_node() {
    let _turn = TAG_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let _ = vec![0u8; 16];
    assert!(fg_core::alloc::installed());
    const COLUMN: u64 = 128 << 10;
    let cfg = fg_sort::config::SortConfig::test_default(4, 64 << 10);
    let buffers = cfg.pipeline_buffers.max(cfg.workers + 2) as u64;
    let bound = 4 * buffers * (COLUMN * 3 / 2 + (64 << 10));
    let pools = |sort: fn(&fg_sort::config::SortConfig, &[fg_pdm::DiskRef])| {
        let [pool] = columnsort_os_stage_allocations(["pool"], 64 << 10, sort);
        pool
    };
    let csort = pools(|cfg, disks| drop(fg_sort::csort::run_csort(cfg, disks).expect("csort")));
    let csort4 = pools(|cfg, disks| drop(fg_sort::csort4::run_csort4(cfg, disks).expect("csort4")));
    for (sort, pool) in [("csort", csort), ("csort4", csort4)] {
        assert!(
            pool > 0 && pool <= bound,
            "{sort}: {pool} B of pool buffers on four nodes, bound {bound} B"
        );
    }
}

/// A node makes its exchange parts once a run, each sized for the largest
/// part any exchange of the run sends one node — a stripe part of the
/// longest window, a column and a half — and every exchanging stage of
/// every pass borrows them: so the `communicate` and `stripe` tags of a
/// csort or csort4 run together stay within one set of parts, nodes × nodes
/// of that size (each pass's stage made its own, and pass 3's regrew what it
/// was handed).  The exchange of halves merges each window where it lands,
/// so no stage allocates an `aux` column for the merge: `merge` and `sort`
/// together stay under a column on the whole cluster (a column a node
/// before).  The node function sizes the parts under the `exchange/parts`
/// tag: exactly nodes × nodes parts of `csort::exchange_part_bytes`.
#[test]
fn csort_makes_its_exchange_parts_once_a_node() {
    let _turn = TAG_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let _ = vec![0u8; 16];
    assert!(fg_core::alloc::installed());
    const COLUMN: usize = 128 << 10;
    // As `columnsort_os_stage_allocations` runs.
    let mut cfg = fg_sort::config::SortConfig::test_default(4, 64 << 10);
    cfg.block_bytes = 4 << 10;
    let m = fg_sort::config::Matrix::choose(cfg.total_records(), cfg.nodes).expect("geometry");
    let sized = (cfg.nodes * cfg.nodes * fg_sort::csort::exchange_part_bytes(&cfg, m)) as u64;
    let striping = fg_pdm::Striping::new(cfg.nodes, cfg.block_bytes);
    let part = fg_sort::chunks::stripe_part_bytes(&striping, COLUMN * 3 / 2);
    let bound = (cfg.nodes * cfg.nodes * part) as u64;
    const TAGS: [&str; 5] = ["communicate", "stripe", "merge", "sort", "exchange/parts"];
    let csort = |cfg: &_, disks: &_| drop(fg_sort::csort::run_csort(cfg, disks).expect("csort"));
    let csort4 =
        |cfg: &_, disks: &_| drop(fg_sort::csort4::run_csort4(cfg, disks).expect("csort4"));
    for (sort, run) in [("csort", csort as fn(&_, &_)), ("csort4", csort4)] {
        let [communicate, stripe, merge, sorts, parts] =
            columnsort_os_stage_allocations(TAGS, 64 << 10, run);
        assert_eq!(parts, sized, "{sort}: exchange/parts");
        assert!(
            communicate + stripe <= bound,
            "{sort}: communicate {communicate} B + stripe {stripe} B, bound {bound} B"
        );
        assert!(
            merge + sorts < COLUMN as u64,
            "{sort}: merge {merge} B + sort {sorts} B"
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
///
/// The senders place every chunk and the exchanges land them in file order,
/// file-adjacent ones merged, so the write stage has nothing to gather: it
/// allocates no gather scratch — its only `Vec` is the list of a round's
/// writes — and there is no `permute` stage to allocate a repacked column.
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
    let [.., write] = large;
    assert!(write <= 64 << 10, "write: {write} B allocated");
    let tags = fg_core::alloc::snapshot();
    assert!(tags.iter().all(|(tag, _)| tag != "permute"), "{tags:?}");
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

/// csort's sort stages, one a node, sort on the scratch the node grows in
/// pass 1: a column of `(key, payload)` items and a level's histograms, so
/// `sort/warmup` holds at most a column and 64 KiB a node (about 3 MiB on
/// four nodes while every pass's stage grew two columns of its own).
#[test]
fn csort_grows_its_sort_scratch_once_a_node() {
    let _turn = TAG_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let _ = vec![0u8; 16];
    assert!(fg_core::alloc::installed());
    const COLUMN: u64 = 128 << 10;
    let [warmup] = csort_os_warmup(64 << 10);
    assert!(
        warmup > 0 && warmup <= 4 * (COLUMN + (64 << 10)),
        "sort/warmup: {warmup} B for four nodes' {COLUMN} B columns"
    );
}

/// What csort's sort stages grew on four nodes of `records_per_node`.
fn csort_os_warmup(records_per_node: usize) -> [u64; 1] {
    columnsort_os_stage_allocations(["sort/warmup"], records_per_node, |cfg, disks| {
        fg_sort::csort::run_csort(cfg, disks).expect("csort run");
    })
}

/// A node's sort scratch lives and dies with its run: a second csort of the
/// same shape grows as much scratch as the first, none of it left over.
#[test]
fn every_csort_run_grows_its_own_sort_scratch() {
    let _turn = TAG_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let _ = vec![0u8; 16];
    assert!(fg_core::alloc::installed());
    let ([first], [second]) = (csort_os_warmup(64 << 10), csort_os_warmup(64 << 10));
    assert!(
        first > 0 && first == second,
        "sort/warmup: {first} B in the first run, {second} B in the second"
    );
}

/// A watchdog reads the stage threads' counter blocks and costs its
/// program no span rings: armed on a four-stage program, it allocates at
/// most 16 KiB more on the caller's thread than the bare run does (four
/// 4096-slot rings were 768 KiB).
#[test]
fn a_watched_program_allocates_no_span_rings() {
    let run = |tag: &str, watched: bool| {
        let tag = fg_core::register_tag(tag);
        let before = fg_core::alloc::counts(tag).bytes;
        fg_core::with_tag(tag, || {
            let mut prog = fg_core::Program::new("watched");
            let stages: Vec<_> = (0..4)
                .map(|i| prog.add_stage(format!("s{i}"), fg_core::map_stage(|_, _| Ok(()))))
                .collect();
            prog.add_pipeline(fg_core::PipelineCfg::new("p", 4, 64).count(64), &stages)
                .unwrap();
            if watched {
                prog.with_watchdog(std::time::Duration::from_secs(60));
            }
            prog.run().expect("a four-stage run");
        });
        fg_core::alloc::counts(tag).bytes - before
    };
    let bare = run("program/bare", false);
    let watched = run("program/watched", true);
    assert!(
        watched <= bare + (16 << 10),
        "watched run {watched} B, bare run {bare} B"
    );
}

/// A disk that forwards what a timing wrapper forwards (the benchmark's
/// traced run puts one over every disk): each required method and `flush`,
/// and nothing a backend only has a default for.
struct Forwarding(fg_pdm::DiskRef);

impl fg_pdm::Disk for Forwarding {
    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), fg_pdm::PdmError> {
        self.0.write_at(name, offset, data)
    }
    fn append(&self, name: &str, data: &[u8]) -> Result<u64, fg_pdm::PdmError> {
        self.0.append(name, data)
    }
    fn read_at(&self, name: &str, offset: u64, out: &mut [u8]) -> Result<(), fg_pdm::PdmError> {
        self.0.read_at(name, offset, out)
    }
    fn read_up_to(&self, name: &str, at: u64, len: usize) -> Result<Vec<u8>, fg_pdm::PdmError> {
        self.0.read_up_to(name, at, len)
    }
    fn flush(&self) -> Result<(), fg_pdm::PdmError> {
        self.0.flush()
    }
    fn load(&self, name: &str, bytes: Vec<u8>) {
        self.0.load(name, bytes)
    }
    fn snapshot(&self, name: &str) -> Option<Vec<u8>> {
        self.0.snapshot(name)
    }
    fn len(&self, name: &str) -> Option<u64> {
        self.0.len(name)
    }
    fn exists(&self, name: &str) -> bool {
        self.0.exists(name)
    }
    fn delete(&self, name: &str) -> bool {
        self.0.delete(name)
    }
    fn list(&self) -> Vec<String> {
        self.0.list()
    }
    fn stats(&self) -> fg_pdm::DiskStats {
        self.0.stats()
    }
    fn reset_stats(&self) {
        self.0.reset_stats()
    }
    fn fail_after_ops(&self, ops: u64) {
        self.0.fail_after_ops(ops)
    }
}

/// Pass 1 cannot know how many bytes its partition will hold, and asks no
/// one: a simulated file grows by what is written, so the runs file and
/// the output of a dsort are each allocated once, at their size, whether
/// the program holds its `SimDisk`s bare or behind a forwarding wrapper.
/// What the `write` stages and the node functions (`untagged`, where a
/// capacity hint once ran) allocate over a run is at most what the runs
/// and the output hold, plus the run's pools and a block a node — a file
/// that grew by doubling, or a hint of a third of slack, would exceed it.
#[test]
fn dsort_allocates_its_files_once_on_a_bare_or_a_wrapped_disk() {
    use fg_core::alloc::{counts, TagId};
    use fg_sort::verify::{verify_output, Strictness, OUTPUT_FILE};
    let _turn = TAG_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let _ = vec![0u8; 16];
    assert!(fg_core::alloc::installed());
    let cfg = dsort_cfg(64 << 10);
    let bare = fg_sort::input::provision(&cfg);
    let wrapped: Vec<fg_pdm::DiskRef> = bare
        .iter()
        .map(|disk| std::sync::Arc::new(Forwarding(disk.clone())) as _)
        .collect();
    let files = 2 * (cfg.nodes as u64 * cfg.bytes_per_node());
    let slack = cfg.nodes as u64 * cfg.block_bytes as u64;
    let tags = [
        fg_core::register_tag("write"),
        TagId::UNTAGGED,
        fg_core::register_tag("pool"),
    ];
    for (how, disks) in [("bare", &bare), ("wrapped", &wrapped)] {
        let before = tags.map(|tag| counts(tag).bytes);
        fg_sort::dsort::run_dsort(&cfg, disks).expect("dsort run");
        let [write, untagged, pool] = std::array::from_fn(|i| counts(tags[i]).bytes - before[i]);
        verify_output(&cfg, disks, Strictness::Fingerprint).expect("dsort output");
        for disk in disks {
            disk.delete(OUTPUT_FILE); // the next run writes it afresh
        }
        assert!(
            write + untagged <= files + pool + slack,
            "{how}: write {write} B + untagged {untagged} B for {files} B of runs and output, \
             pools {pool} B"
        );
    }
}
