//! Property-based tests across disk backends: any sequence of writes and
//! appends must leave byte-identical files on [`SimDisk`], [`OsDisk`], and
//! an [`IoScheduler`]-wrapped `OsDisk` (the scheduler is transparent —
//! read-ahead and write-behind change timing, never contents), and an
//! `IoScheduler` over a `SimDisk` must answer every operation of a random
//! sequence exactly as a bare `SimDisk` does.

use proptest::collection::vec;
use proptest::prelude::*;

use fg_pdm::{Disk, DiskCfg, DiskRef, IoScheduler, OsDisk, PdmError, ScratchDir, SimDisk};

/// One step of the model-based test.  `file` picks one of two names.
#[derive(Debug, Clone)]
enum Op {
    /// Anywhere: overlapping and out-of-order writes.
    WriteAt {
        file: bool,
        offset: u64,
        data: Vec<u8>,
    },
    /// Where the last write to the file ended: the adjacent run the
    /// scheduler coalesces.
    WriteNext {
        file: bool,
        data: Vec<u8>,
    },
    Append {
        file: bool,
        data: Vec<u8>,
    },
    /// Block `block` of `BLOCK` bytes: runs of these are what read-ahead
    /// predicts, so some are served from prefetched copies.
    ReadBlock {
        file: bool,
        block: u64,
    },
    ReadAt {
        file: bool,
        offset: u64,
        len: usize,
    },
    ReadUpTo {
        file: bool,
        offset: u64,
        len: usize,
    },
    Len {
        file: bool,
    },
    Delete {
        file: bool,
    },
    Load {
        file: bool,
        data: Vec<u8>,
    },
    Land,
    Flush,
}

const BLOCK: usize = 8;

fn op() -> impl Strategy<Value = Op> {
    let file = any::<bool>;
    let data = || vec(any::<u8>(), 0..24);
    // Adjacent writes and block reads are listed twice: the choice is uniform,
    // and runs of them are what coalescing and read-ahead act on.
    prop_oneof![
        (file(), 0u64..96, data()).prop_map(|(file, offset, data)| Op::WriteAt {
            file,
            offset,
            data
        }),
        (file(), data()).prop_map(|(file, data)| Op::WriteNext { file, data }),
        (file(), data()).prop_map(|(file, data)| Op::WriteNext { file, data }),
        (file(), data()).prop_map(|(file, data)| Op::Append { file, data }),
        (file(), 0u64..12).prop_map(|(file, block)| Op::ReadBlock { file, block }),
        (file(), 0u64..12).prop_map(|(file, block)| Op::ReadBlock { file, block }),
        (file(), 0u64..96, 0usize..24).prop_map(|(file, offset, len)| Op::ReadAt {
            file,
            offset,
            len
        }),
        (file(), 0u64..128, 0usize..24).prop_map(|(file, offset, len)| Op::ReadUpTo {
            file,
            offset,
            len
        }),
        file().prop_map(|file| Op::Len { file }),
        file().prop_map(|file| Op::Delete { file }),
        (file(), vec(any::<u8>(), 0..96)).prop_map(|(file, data)| Op::Load { file, data }),
        Just(Op::Land),
        Just(Op::Flush),
    ]
}

/// What one operation returned, in a form two disks can be compared by.
#[derive(Debug, PartialEq)]
enum Outcome {
    Unit(Result<(), PdmError>),
    Offset(Result<u64, PdmError>),
    Bytes(Result<Vec<u8>, PdmError>),
    Len(Option<u64>),
    Existed(bool),
}

/// Apply `op` to `disk`; `cursors` holds where the last write to each file
/// ended (the caller keeps one pair per disk, updated identically).
fn apply(disk: &dyn Disk, op: &Op, cursors: &mut [u64; 2]) -> Outcome {
    let name = |file: bool| if file { "g" } else { "f" };
    let read = |file: bool, offset: u64, len: usize| {
        let mut out = vec![0u8; len];
        Outcome::Bytes(disk.read_at(name(file), offset, &mut out).map(|()| out))
    };
    match op {
        Op::WriteAt { file, offset, data } => {
            cursors[*file as usize] = offset + data.len() as u64;
            Outcome::Unit(disk.write_at(name(*file), *offset, data))
        }
        Op::WriteNext { file, data } => {
            let offset = cursors[*file as usize];
            cursors[*file as usize] = offset + data.len() as u64;
            Outcome::Unit(disk.write_at(name(*file), offset, data))
        }
        Op::Append { file, data } => Outcome::Offset(disk.append(name(*file), data)),
        Op::ReadBlock { file, block } => read(*file, block * BLOCK as u64, BLOCK),
        Op::ReadAt { file, offset, len } => read(*file, *offset, *len),
        Op::ReadUpTo { file, offset, len } => {
            Outcome::Bytes(disk.read_up_to(name(*file), *offset, *len))
        }
        Op::Len { file } => Outcome::Len(disk.len(name(*file))),
        Op::Delete { file } => Outcome::Existed(disk.delete(name(*file))),
        Op::Load { file, data } => {
            disk.load(name(*file), data.clone());
            Outcome::Unit(Ok(()))
        }
        Op::Land => Outcome::Unit(disk.land()),
        Op::Flush => Outcome::Unit(disk.flush()),
    }
}

proptest! {
    // Each case builds real files and a scheduler thread; keep the case
    // count modest so the suite stays quick on CI.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replaying one op sequence on all three backends produces the same
    /// bytes, with the cost-free SimDisk as the reference semantics.
    #[test]
    fn backends_store_identical_bytes(
        ops in vec(
            (any::<bool>(), 0u64..128, vec(any::<u8>(), 1..24), any::<bool>()),
            1..24,
        ),
    ) {
        let scratch = ScratchDir::new("backend-props").unwrap();
        let sim: DiskRef = SimDisk::new(DiskCfg::zero());
        let os: DiskRef = OsDisk::new(scratch.path().join("bare")).unwrap();
        let sched: DiskRef = IoScheduler::new(
            OsDisk::new(scratch.path().join("sched")).unwrap() as DiskRef,
            2,
        )
        .unwrap();
        let disks = [&sim, &os, &sched];
        for (is_append, off, data, second_file) in &ops {
            let name = if *second_file { "g" } else { "f" };
            for d in disks {
                if *is_append {
                    let a = d.append(name, data).unwrap();
                    let b = sim.len(name).unwrap() - data.len() as u64;
                    prop_assert_eq!(a, b, "append offsets diverged");
                } else {
                    d.write_at(name, *off, data).unwrap();
                }
            }
        }
        for d in disks {
            d.flush().unwrap();
        }
        for name in ["f", "g"] {
            let want = sim.snapshot(name);
            prop_assert_eq!(os.snapshot(name), want.clone(), "OsDisk diverged on {}", name);
            prop_assert_eq!(sched.snapshot(name), want, "IoScheduler diverged on {}", name);
        }
    }

    /// Model-based: whatever the sequence — adjacent, overlapping and
    /// out-of-order writes, appends, reads that hit, miss or fail, `len`,
    /// `delete`, `load`, `land`, `flush` — the scheduler returns what a bare
    /// `SimDisk` returns at every step and leaves the same files.
    #[test]
    fn scheduler_over_simdisk_matches_a_bare_simdisk(
        ops in vec(op(), 1..60),
        depth in 1usize..5,
    ) {
        let model = SimDisk::new(DiskCfg::zero());
        let sched = IoScheduler::new(SimDisk::new(DiskCfg::zero()) as DiskRef, depth).unwrap();
        let (mut model_cursors, mut sched_cursors) = ([0u64; 2], [0u64; 2]);
        for (step, op) in ops.iter().enumerate() {
            let want = apply(&*model, op, &mut model_cursors);
            let got = apply(&*sched, op, &mut sched_cursors);
            prop_assert_eq!(got, want, "step {} diverged: {:?}", step, op);
        }
        sched.flush().unwrap();
        for name in ["f", "g"] {
            prop_assert_eq!(sched.len(name), model.len(name), "length of {}", name);
            prop_assert_eq!(sched.snapshot(name), model.snapshot(name), "contents of {}", name);
        }
    }

    /// Sequential block reads through the scheduler return exactly the
    /// backend's bytes at every offset, prefetched or not.
    #[test]
    fn scheduled_reads_match_backend_bytes(
        blocks in 1usize..12,
        block_bytes in 1usize..64,
        depth in 1usize..5,
        seed in any::<u8>(),
    ) {
        let scratch = ScratchDir::new("backend-props-rd").unwrap();
        let inner = OsDisk::new(scratch.path()).unwrap();
        let data: Vec<u8> = (0..blocks * block_bytes)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect();
        inner.load("f", data.clone());
        let sched = IoScheduler::new(inner as DiskRef, depth).unwrap();
        let mut buf = vec![0u8; block_bytes];
        for b in 0..blocks {
            sched.read_at("f", (b * block_bytes) as u64, &mut buf).unwrap();
            prop_assert_eq!(
                &buf[..],
                &data[b * block_bytes..(b + 1) * block_bytes],
                "block {} diverged", b
            );
        }
    }
}
