//! Programs that share a [`BufferStock`] make their pool buffers once: a
//! pool takes stored storage of exactly its buffer size, zeroed; what no
//! pool takes is freed before any pool allocates; and a program that fails
//! leaves the stock usable.  The tracking allocator is installed so the
//! order of freeing and allocating can be read off the process's peak.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use fg_core::{map_stage, BufferStock, FgError, PipelineCfg, Program, Stage};

#[global_allocator]
static FG_ALLOC: fg_core::FgAlloc = fg_core::FgAlloc;

/// The tests read the process-wide byte counts, so they take turns.
static TURN: Mutex<()> = Mutex::new(());

type Seen = Arc<Mutex<BTreeSet<usize>>>;

/// Records the address of every buffer's storage it is handed.
fn addresses(seen: &Seen) -> Box<dyn Stage> {
    let seen = Arc::clone(seen);
    map_stage(move |buf, _| {
        seen.lock()
            .unwrap()
            .insert(buf.space_mut().as_ptr() as usize);
        Ok(())
    })
}

/// A one-stage program of `buffers` buffers of `size` bytes over 16
/// rounds, drawing from `stock`.
fn program(
    stock: &Arc<BufferStock>,
    buffers: usize,
    size: usize,
    stage: Box<dyn Stage>,
) -> Program {
    let mut prog = Program::new("stocked");
    prog.set_buffer_stock(Arc::clone(stock));
    let only = prog.add_stage("only", stage);
    prog.add_pipeline(PipelineCfg::new("p", buffers, size).count(16), &[only])
        .unwrap();
    prog
}

#[test]
fn a_second_program_reuses_the_first_ones_storage() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let stock = Arc::new(BufferStock::new());
    let (first, second): (Seen, Seen) = Default::default();
    program(&stock, 3, 4096, addresses(&first)).run().unwrap();
    assert_eq!(stock.sizes(), [4096; 3]);
    program(&stock, 3, 4096, addresses(&second)).run().unwrap();
    assert_eq!(*first.lock().unwrap(), *second.lock().unwrap());
    assert_eq!(first.lock().unwrap().len(), 3);
    assert_eq!(stock.sizes(), [4096; 3]);
}

#[test]
fn storage_no_pool_takes_is_freed_before_the_pools_allocate() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const MIB: usize = 1 << 20;
    let stock = Arc::new(BufferStock::new());
    program(&stock, 4, MIB, map_stage(|_, _| Ok(())))
        .run()
        .unwrap();
    assert_eq!(stock.sizes(), [MIB; 4]);
    // A pool of another size takes none of it: while the program runs the
    // stock is empty, and the process never held both the old 4 MiB and
    // the new 6 MiB at once.
    let (held, _) = fg_core::alloc::process_bytes();
    let watched = Arc::clone(&stock);
    let empty = map_stage(move |_, _| {
        assert!(watched.sizes().is_empty(), "{:?}", watched.sizes());
        Ok(())
    });
    program(&stock, 4, 3 * MIB / 2, empty).run().unwrap();
    let (_, peak) = fg_core::alloc::process_bytes();
    assert!(
        peak < held + 3 * MIB as u64,
        "peak {peak} B with {held} B held before a 6 MiB pool"
    );
    assert_eq!(stock.sizes(), [3 * MIB / 2; 4]);
}

#[test]
fn a_reused_buffer_reads_zero_over_its_whole_capacity() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let stock = Arc::new(BufferStock::new());
    let (first, second): (Seen, Seen) = Default::default();
    let dirty = Arc::clone(&first);
    let scribble = map_stage(move |buf, _| {
        dirty
            .lock()
            .unwrap()
            .insert(buf.space_mut().as_ptr() as usize);
        buf.space_mut().fill(0xAB);
        buf.fill_to_capacity();
        Ok(())
    });
    program(&stock, 2, 512, scribble).run().unwrap();
    let clean = Arc::clone(&second);
    let check = map_stage(move |buf, _| {
        // Every buffer's first round: nothing has written to it yet.
        if clean
            .lock()
            .unwrap()
            .insert(buf.space_mut().as_ptr() as usize)
        {
            assert_eq!(buf.capacity(), 512);
            assert!(buf.space_mut().iter().all(|&b| b == 0), "stale bytes");
        }
        Ok(())
    });
    program(&stock, 2, 512, check).run().unwrap();
    assert_eq!(*first.lock().unwrap(), *second.lock().unwrap());
}

#[test]
fn a_failed_program_leaves_a_stock_the_next_one_uses() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let stock = Arc::new(BufferStock::new());
    let fail = map_stage(|buf, _| match buf.round() {
        2 => Err(FgError::Stage {
            stage: "only".into(),
            message: "synthetic".into(),
        }),
        _ => Ok(()),
    });
    let err = program(&stock, 3, 4096, fail).run().unwrap_err();
    assert!(matches!(err, FgError::Stage { .. }), "got {err:?}");
    assert!(stock.sizes().iter().all(|&size| size == 4096));
    let seen: Seen = Default::default();
    program(&stock, 3, 4096, addresses(&seen)).run().unwrap();
    assert_eq!(seen.lock().unwrap().len(), 3);
    assert_eq!(stock.sizes(), [4096; 3]);
}
