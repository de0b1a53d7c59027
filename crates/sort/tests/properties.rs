//! Property-based tests (proptest) on the sorting substrates' invariants.

use proptest::collection::vec;
use proptest::prelude::*;

use fg_pdm::Striping;
use fg_sort::chunks::{self, Exchange};
use fg_sort::columnsort::{boundary_merge, columnsort, sort_columns, transpose, untranspose};
use fg_sort::config::Matrix;
use fg_sort::kernels::{sort_records_using, Kernel, SortScratch};
use fg_sort::merge::{merge_runs, LoserTree};
use fg_sort::record::{partition_of, ExtKey, RecordFormat};

/// Build records with distinct payloads so stability is observable.
fn records_with_payloads(f: RecordFormat, keys: &[u64]) -> Vec<u8> {
    let rb = f.record_bytes;
    let mut bytes = vec![0u8; keys.len() * rb];
    for (i, &k) in keys.iter().enumerate() {
        f.set_key(&mut bytes[i * rb..(i + 1) * rb], k);
        bytes[i * rb + 8] = i as u8;
        bytes[i * rb + 9] = (i >> 8) as u8;
        bytes[i * rb + 10] = (i >> 16) as u8;
    }
    bytes
}

proptest! {
    /// Columnsort sorts any input meeting Leighton's geometry (r = 12,
    /// s = 3 is the smallest interesting valid shape; larger shapes too).
    #[test]
    fn columnsort_sorts(data in vec(any::<u64>(), 36)) {
        let mut d = data.clone();
        let mut expect = data;
        expect.sort_unstable();
        columnsort(&mut d, 12, 3).unwrap();
        prop_assert_eq!(d, expect);
    }

    #[test]
    fn columnsort_sorts_with_duplicates(data in vec(0u64..8, 128)) {
        let mut d = data.clone();
        let mut expect = data;
        expect.sort_unstable();
        columnsort(&mut d, 32, 4).unwrap();
        prop_assert_eq!(d, expect);
    }

    /// transpose/untranspose are inverse permutations for any geometry.
    #[test]
    fn transpose_roundtrip(r in 1usize..20, s in 1usize..8, seed in any::<u64>()) {
        let n = r * s;
        let data: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(seed | 1)).collect();
        let mut d = data.clone();
        transpose(&mut d, r, s);
        untranspose(&mut d, r, s);
        prop_assert_eq!(d, data);
    }

    /// transpose is a permutation (multiset preserved).
    #[test]
    fn transpose_is_permutation(r in 1usize..16, s in 1usize..8) {
        let n = r * s;
        let data: Vec<u64> = (0..n as u64).collect();
        let mut d = data.clone();
        transpose(&mut d, r, s);
        let mut sorted = d;
        sorted.sort_unstable();
        prop_assert_eq!(sorted, data);
    }

    /// Sorting columns then boundary windows never unsorts a fully sorted
    /// sequence (idempotence of the last steps on sorted input).
    #[test]
    fn final_steps_preserve_sorted(mut data in vec(any::<u64>(), 24)) {
        data.sort_unstable();
        let mut d = data.clone();
        sort_columns(&mut d, 12, 2);
        boundary_merge(&mut d, 12, 2);
        prop_assert_eq!(d, data);
    }

    /// The loser tree merges arbitrary sorted lanes into the global sort.
    #[test]
    fn loser_tree_merges(lanes in vec(vec(0u64..1000, 0..30), 1..10)) {
        let mut lanes = lanes;
        for lane in &mut lanes {
            lane.sort_unstable();
        }
        let mut expect: Vec<u64> = lanes.iter().flatten().copied().collect();
        expect.sort_unstable();

        let mut cursors = vec![0usize; lanes.len()];
        let head = |lane: &Vec<u64>, c: usize| lane.get(c).copied();
        let mut tree = LoserTree::new(lanes.iter().map(|l| head(l, 0)));
        let mut got = Vec::new();
        while let Some((lane, key)) = tree.winner() {
            got.push(key);
            cursors[lane] += 1;
            tree.replace(lane, head(&lanes[lane], cursors[lane]));
        }
        prop_assert_eq!(got, expect);
    }

    /// merge_runs over records equals sorting the concatenation.
    #[test]
    fn merge_runs_matches_sort(lanes in vec(vec(any::<u64>(), 0..20), 0..6)) {
        let f = RecordFormat::REC16;
        let mut all_keys: Vec<u64> = Vec::new();
        let runs: Vec<Vec<u8>> = lanes
            .iter()
            .map(|keys| {
                let mut keys = keys.clone();
                keys.sort_unstable();
                all_keys.extend_from_slice(&keys);
                let mut bytes = vec![0u8; keys.len() * 16];
                for (i, &k) in keys.iter().enumerate() {
                    f.set_key(&mut bytes[i * 16..(i + 1) * 16], k);
                }
                bytes
            })
            .collect();
        all_keys.sort_unstable();
        let run_refs: Vec<&[u8]> = runs.iter().map(|r| r.as_slice()).collect();
        let merged = merge_runs(f, &run_refs);
        let got: Vec<u64> = f.records(&merged).map(|r| f.key(r)).collect();
        prop_assert_eq!(got, all_keys);
    }

    /// Chunk streams round-trip arbitrary payload sets.
    #[test]
    fn chunks_roundtrip(items in vec((any::<u64>(), any::<u64>(), vec(any::<u8>(), 0..50)), 0..10)) {
        let mut buf = Vec::new();
        for (a, b, data) in &items {
            chunks::push_chunk(&mut buf, *a, *b, data);
        }
        let parsed = chunks::parse_chunks(&buf).unwrap();
        prop_assert_eq!(parsed.len(), items.len());
        for (chunk, (a, b, data)) in parsed.iter().zip(&items) {
            prop_assert_eq!(chunk.a, *a);
            prop_assert_eq!(chunk.b, *b);
            prop_assert_eq!(chunk.data, data.as_slice());
        }
    }

    /// The write stage reproduces the file image of direct writes, whether
    /// it writes a payload's chunks where they lie or an exchange landed
    /// them first — and a landing leaves no two writes mergeable.
    #[test]
    fn coalesce_preserves_file_image(
        runs in vec((0u64..200, vec(any::<u8>(), 1..20)), 0..12)
    ) {
        // Reference: apply sorted-by-offset writes directly.
        let apply = |writes: &[(u64, Vec<u8>)]| {
            let mut file = vec![0u8; 512];
            for (off, data) in writes {
                let off = *off as usize;
                file[off..off + data.len()].copy_from_slice(data);
            }
            file
        };
        // Skip overlapping inputs: a landing refuses them, and the sorts
        // never produce them.
        let mut sorted = runs.clone();
        sorted.sort_by_key(|(o, _)| *o);
        let overlapping = sorted
            .windows(2)
            .any(|w| w[0].0 + w[0].1.len() as u64 > w[1].0);
        prop_assume!(!overlapping);

        let direct = apply(&sorted);
        let mut payload = Vec::new();
        for (off, data) in &runs {
            chunks::push_chunk(&mut payload, *off, 0, data);
        }
        prop_assert_eq!(&direct, &apply(&writes(&payload)));
        let coalesced = writes(&land(&[payload]).unwrap());
        prop_assert_eq!(direct, apply(&coalesced));
        for w in coalesced.windows(2) {
            prop_assert!(w[0].0 + w[0].1.len() as u64 != w[1].0);
        }
    }

    /// Any permutation of adjacent chunk frames lands as the maximal runs:
    /// the write stage issues one write per gap-separated group, carrying
    /// the group's bytes in offset order, regardless of arrival order.
    #[test]
    fn permuted_adjacent_frames_coalesce_maximally(
        spec in vec((1u64..16, vec(1usize..12, 1..5)), 1..5),
        shuffle_seed in any::<u64>(),
    ) {
        // Lay out gap-separated groups of adjacent frames; byte values
        // record file position so placement errors are visible.
        let mut frames: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut expected: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut cursor = 0u64;
        for (gap, frame_lens) in &spec {
            cursor += gap;
            let start = cursor;
            let mut group = Vec::new();
            for &len in frame_lens {
                let bytes: Vec<u8> = (0..len).map(|i| (cursor + i as u64) as u8).collect();
                frames.push((cursor, bytes.clone()));
                group.extend_from_slice(&bytes);
                cursor += len as u64;
            }
            expected.push((start, group));
        }
        // Fisher–Yates with a seeded xorshift: an arbitrary permutation.
        let mut rng = shuffle_seed | 1;
        for i in (1..frames.len()).rev() {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            frames.swap(i, (rng % (i as u64 + 1)) as usize);
        }
        let mut payload = Vec::new();
        for (off, data) in &frames {
            chunks::push_chunk(&mut payload, *off, 0, data);
        }
        let got = writes(&land(&[payload]).unwrap());
        prop_assert_eq!(&got, &expected);
        // Maximality: no emitted run is mergeable with its successor.
        for w in got.windows(2) {
            prop_assert!(w[0].0 + w[0].1.len() as u64 != w[1].0);
        }
    }

    /// ExtKey serialization round-trips and preserves order.
    #[test]
    fn extkey_roundtrip_and_order(
        a in (any::<u64>(), any::<u32>(), any::<u64>()),
        b in (any::<u64>(), any::<u32>(), any::<u64>()),
    ) {
        let ka = ExtKey { key: a.0, node: a.1, seq: a.2 };
        let kb = ExtKey { key: b.0, node: b.1, seq: b.2 };
        prop_assert_eq!(ExtKey::from_bytes(&ka.to_bytes()).unwrap(), ka);
        // Order agrees with the tuple order.
        prop_assert_eq!(ka < kb, (a.0, a.1, a.2) < (b.0, b.1, b.2));
    }

    /// partition_of respects splitter boundaries for any sorted splitters.
    #[test]
    fn partition_respects_splitters(
        mut splitter_keys in vec(any::<u64>(), 1..8),
        probe in (any::<u64>(), any::<u32>(), any::<u64>()),
    ) {
        splitter_keys.sort_unstable();
        let splitters: Vec<ExtKey> = splitter_keys
            .iter()
            .map(|&key| ExtKey { key, node: 0, seq: 0 })
            .collect();
        let e = ExtKey { key: probe.0, node: probe.1, seq: probe.2 };
        let p = partition_of(&splitters, e);
        prop_assert!(p <= splitters.len());
        if p > 0 {
            prop_assert!(splitters[p - 1] < e);
        }
        if p < splitters.len() {
            prop_assert!(e <= splitters[p]);
        }
    }

    /// sort_bytes_with sorts and preserves the record multiset.
    #[test]
    fn sort_bytes_sorts_any_records(keys in vec(any::<u64>(), 0..100)) {
        let f = RecordFormat::REC16;
        let mut bytes = vec![0u8; keys.len() * 16];
        for (i, &k) in keys.iter().enumerate() {
            f.set_key(&mut bytes[i * 16..(i + 1) * 16], k);
            bytes[i * 16 + 12] = i as u8; // payload identity
        }
        let before = f.multiset_fingerprint(&bytes);
        f.sort_bytes_with(&mut bytes, &mut SortScratch::new());
        prop_assert!(f.is_sorted(&bytes));
        prop_assert_eq!(f.multiset_fingerprint(&bytes), before);
    }

    /// The radix kernel is byte-identical to the stable comparison kernel —
    /// payload order of equal keys included — on both record formats, over
    /// what its levels can get wrong: sizes either side of the insertion
    /// threshold (24), of the first two-digit level (64) and of a power of
    /// two, where a level gains a bit, and far past all three; keys a level
    /// cannot separate (a few high-bit values over many low-bit ones: four
    /// levels deep at the largest size), keys that differ in one bit at
    /// either end of the key, two values, one value, sorted and reversed
    /// input, and 0 mixed with `u64::MAX`.
    #[test]
    fn radix_kernel_is_byte_identical_to_comparison(
        shape in 0usize..11,
        size_pick in 0usize..20,
        seed in any::<u64>(),
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const SIZES: [usize; 15] =
            [0, 1, 2, 3, 24, 25, 26, 63, 64, 2_047, 2_048, 2_049, 9_000, 30_000, 70_000];
        let mut rng = StdRng::seed_from_u64(seed);
        let n = SIZES.get(size_pick).copied().unwrap_or_else(|| rng.random_range(0..400));
        let (a, b): (u64, u64) = (rng.random(), rng.random());
        let keys: Vec<u64> = (0..n as u64)
            .map(|i| match shape {
                0 => rng.random_range(0..32),
                1 => rng.random_range(0..32u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                2 => rng.random(),
                3 => {
                    let bit = |rng: &mut StdRng, at: u32| rng.random_range(0..2u64) << at;
                    bit(&mut rng, 63) | bit(&mut rng, 40) | bit(&mut rng, 20)
                        | rng.random_range(0..1u64 << 12)
                }
                4 => a ^ rng.random_range(0..2u64),
                5 => a ^ (rng.random_range(0..2u64) << 63),
                6 => if rng.random() { a } else { b },
                7 => a,
                8 => i * 3,
                9 => u64::MAX - i / 2,
                _ => if rng.random() { 0 } else { u64::MAX },
            })
            .collect();
        let mut scratch = SortScratch::new();
        for f in [RecordFormat::REC16, RecordFormat::REC64] {
            let pristine = records_with_payloads(f, &keys);
            let mut via_radix = pristine.clone();
            let mut via_cmp = pristine;
            sort_records_using(f, &mut via_radix, &mut scratch, Kernel::Radix);
            sort_records_using(f, &mut via_cmp, &mut scratch, Kernel::Comparison);
            prop_assert!(via_radix == via_cmp, "shape {shape}, {n} records, {f:?}");
        }
    }

    /// The tree against a reference that concatenates the lanes and sorts by
    /// `(key, lane, position)`: the batched `merge_runs` and a scalar
    /// one-record-a-step loop both reproduce it byte for byte; at every step
    /// the winner and the runner-up are the two smallest live heads, and
    /// `merge_run` offers no record that loses to the runner-up.  Lane
    /// counts cover one lane, odd shapes and more lanes than records; keys
    /// cover heavy duplication, 0 and `u64::MAX` — a live `u64::MAX` head
    /// must still beat the lanes exhausted around it.
    #[test]
    fn tree_matches_stable_sort_reference(
        k_pick in 0usize..6,
        lanes in vec(
            vec(prop_oneof![Just(0u64), Just(u64::MAX), 0u64..4, any::<u64>()], 0..6),
            193,
        ),
        all_equal in 0u8..4,
    ) {
        let k = [1usize, 2, 3, 7, 64, 193][k_pick];
        for f in [RecordFormat::REC16, RecordFormat::REC64] {
            let rb = f.record_bytes;
            let runs: Vec<Vec<u8>> = lanes[..k]
                .iter()
                .enumerate()
                .map(|(lane, keys)| {
                    let mut keys = keys.clone();
                    if all_equal == 0 {
                        keys.fill(7);
                    }
                    keys.sort_unstable();
                    let mut bytes = records_with_payloads(f, &keys);
                    // Stamp the lane so cross-lane ties are distinguishable.
                    for rec in bytes.chunks_exact_mut(rb) {
                        rec[10] = lane as u8;
                    }
                    bytes
                })
                .collect();
            let run_refs: Vec<&[u8]> = runs.iter().map(|r| r.as_slice()).collect();

            let mut tagged: Vec<(u64, usize, usize)> = Vec::new();
            for (lane, run) in runs.iter().enumerate() {
                tagged.extend(f.records(run).enumerate().map(|(pos, r)| (f.key(r), lane, pos)));
            }
            tagged.sort_unstable();
            let reference: Vec<u8> = tagged
                .iter()
                .flat_map(|&(_, lane, pos)| f.record(&runs[lane], pos).iter().copied())
                .collect();

            prop_assert_eq!(&merge_runs(f, &run_refs), &reference);

            let mut offsets = vec![0usize; k];
            let head = |run: &[u8], off: usize| (off < run.len()).then(|| f.key(&run[off..]));
            let mut tree = LoserTree::new(runs.iter().map(|r| head(r, 0)));
            let mut scalar = Vec::new();
            loop {
                let mut live: Vec<(u64, usize)> = (0..k)
                    .filter_map(|lane| head(&runs[lane], offsets[lane]).map(|key| (key, lane)))
                    .collect();
                live.sort_unstable();
                let by_lane = |&(key, lane): &(u64, usize)| (lane, key);
                prop_assert_eq!(tree.winner(), live.first().map(by_lane));
                let Some((lane, _)) = tree.winner() else { break };
                prop_assert_eq!(tree.runner_up(), live.get(1).map(by_lane));

                let rest = &runs[lane][offsets[lane]..];
                let batch = tree.merge_run(f, rest);
                prop_assert!((1..=rest.len() / rb).contains(&batch));
                if let Some(&runner_up) = live.get(1) {
                    for rec in f.records(&rest[..batch * rb]) {
                        prop_assert!((f.key(rec), lane) < runner_up);
                    }
                }

                scalar.extend_from_slice(&rest[..rb]);
                offsets[lane] += rb;
                tree.replace(lane, head(&runs[lane], offsets[lane]));
            }
            prop_assert_eq!(&scalar, &reference);
        }
    }

    /// The scatter writes the chunk stream a loop of `push_chunk` over
    /// per-destination `Vec`s would: same bytes, destinations in order,
    /// empty destinations skipped, records in input order within a chunk —
    /// for full blocks, short last blocks and empty ones, on scratch that has
    /// already served a different block.
    #[test]
    fn scatter_matches_push_chunk(
        parts in 1usize..9,
        wide in any::<bool>(),
        dests in vec(any::<u8>(), 0..80),
        warmup in vec(any::<u8>(), 0..40),
    ) {
        let f = if wide { RecordFormat::REC64 } else { RecordFormat::REC16 };
        let rb = f.record_bytes;
        let mut scatter = chunks::Scatter::new(parts);
        let mut out = Vec::new();
        let mut run = |dests: &[u8]| {
            let keys: Vec<u64> = (0..dests.len() as u64).map(|i| i * 7919).collect();
            let block = records_with_payloads(f, &keys);
            out.clear();
            out.resize(scatter.max_len(block.len()), 0xAA);
            let len = scatter.scatter(&block, rb, &mut out, |i, rec| {
                assert_eq!(f.key(rec), keys[i]);
                dests[i] as usize % parts
            });
            (block, out[..len].to_vec())
        };
        run(&warmup);
        let (block, packed) = run(&dests);

        let mut groups = vec![Vec::new(); parts];
        for (rec, &d) in f.records(&block).zip(&dests) {
            groups[d as usize % parts].extend_from_slice(rec);
        }
        let mut expect = Vec::new();
        for (d, group) in groups.iter().enumerate() {
            if !group.is_empty() {
                chunks::push_chunk(&mut expect, d as u64, 0, group);
            }
        }
        prop_assert_eq!(packed, expect);
    }
    /// The exchange helper's column routing gathers, per destination node,
    /// the byte stream a `run` `Vec` and a `push_chunk` per destination
    /// column would build, each chunk behind its offset in the owner's file
    /// — for pass 1 (transpose) and pass 2 (untranspose), on parts that have
    /// served an earlier round, for 16-, 64- and 24-byte records.
    #[test]
    fn route_column_matches_push_chunk_per_destination(
        nodes in 1usize..5,
        cols_per_node in 1usize..4,
        chunk_records in 1usize..5,
        width in 0usize..3,
        seed in any::<u64>(),
    ) {
        // The two fixed-size gathers and the generic loop.
        let f = RecordFormat::new([16, 64, 24][width]).unwrap();
        let rb = f.record_bytes;
        let s = nodes * cols_per_node;
        let m = Matrix { r: s * chunk_records, s, nodes };
        let mut exchange = Exchange::new(nodes);
        for (round, pass_no) in [(0usize, 1u8), (1, 2), (2, 1)] {
            let (q, t) = (round % nodes, round % cols_per_node);
            let data = column_of(f, m, seed ^ round as u64);

            let mut expect = vec![Vec::new(); nodes];
            for d in 0..s {
                let local = m.local_index(d) * m.r + (t * nodes + q) * chunk_records;
                let run = records_for(f, m, pass_no, &data, d);
                chunks::push_chunk(&mut expect[m.owner(d)], (local * rb) as u64, 0, &run);
            }

            fg_sort::csort::route_column(pass_no, m, q, t, rb, &data, &mut exchange);
            for (node, want) in expect.iter().enumerate() {
                prop_assert_eq!(&*exchange.part(node), want, "pass {} part {}", pass_no, node);
                // What `trade` does to a part it keeps for the next round.
                exchange.part(node).clear();
            }
        }
    }

    /// The senders' offsets tile the receivers' files: in one round of
    /// passes 1–2, landing every sender's `route_column` part at its
    /// receiver covers the round's slice of each local column region — `P ·
    /// r/s` records from record `t · P · r/s` — once, and nothing else, and
    /// puts every byte where the receiver-side placement (a stage between
    /// the exchange and the write, before the senders stamped offsets) put
    /// it: the `(column, source)` chunks that arrived, stacked per region in
    /// arrival order.
    #[test]
    fn route_column_parts_land_where_the_receiver_used_to_place_them(
        nodes in 1usize..5,
        cols_per_node in 1usize..4,
        chunk_records in 1usize..5,
        round in 0usize..4,
        width in 0usize..3,
        seed in any::<u64>(),
    ) {
        let f = RecordFormat::new([16, 64, 24][width]).unwrap();
        let rb = f.record_bytes;
        let s = nodes * cols_per_node;
        let m = Matrix { r: s * chunk_records, s, nodes };
        let t = round % cols_per_node;
        let file_bytes = cols_per_node * m.r * rb;
        let per_round = nodes * chunk_records * rb; // a region's slice a round
        for pass_no in [1u8, 2] {
            let columns: Vec<Vec<u8>> =
                (0..nodes).map(|q| column_of(f, m, seed ^ (q * 31 + pass_no as usize) as u64)).collect();
            let mut exchanges: Vec<Exchange> = (0..nodes).map(|_| Exchange::new(nodes)).collect();
            for (q, exchange) in exchanges.iter_mut().enumerate() {
                fg_sort::csort::route_column(pass_no, m, q, t, rb, &columns[q], exchange);
            }
            for p in 0..nodes {
                let parts: Vec<Vec<u8>> = exchanges.iter_mut().map(|e| e.part(p).clone()).collect();
                let landed = land(&parts).unwrap();
                let (mut image, mut writes) = (vec![0u8; file_bytes], vec![0u8; file_bytes]);
                for chunk in chunks::iter_chunks(&landed) {
                    let chunk = chunk.unwrap();
                    let at = chunk.a as usize;
                    image[at..at + chunk.data.len()].copy_from_slice(chunk.data);
                    writes[at..at + chunk.data.len()].iter_mut().for_each(|w| *w += 1);
                }
                for (i, &w) in writes.iter().enumerate() {
                    let in_slice = (i % (m.r * rb)) / per_round == t;
                    prop_assert_eq!(w, u8::from(in_slice), "byte {} of node {}'s file", i, p);
                }

                // The receiver-side placement, over the old `(d, c)` stream.
                let mut reference = vec![0u8; file_bytes];
                let mut appended = vec![0usize; cols_per_node];
                for column in &columns {
                    for d in (p..s).step_by(nodes) {
                        let run = records_for(f, m, pass_no, column, d);
                        let li = m.local_index(d);
                        let at = li * m.r * rb + t * per_round + appended[li];
                        reference[at..at + run.len()].copy_from_slice(&run);
                        appended[li] += run.len();
                    }
                }
                prop_assert_eq!(&image, &reference, "pass {} node {}", pass_no, p);
            }
        }
    }

    /// Likewise for striping: `gather_stripes` ≡ `split_range` plus a
    /// `push_chunk` per piece behind the piece's local offset, at any
    /// alignment of range and block.
    #[test]
    fn gather_stripes_matches_push_chunk_per_piece(
        nodes in 1usize..6,
        block in 1usize..40,
        ranges in vec((0u64..500, 0usize..300), 1..4),
    ) {
        let striping = Striping::new(nodes, block);
        let mut exchange = Exchange::new(nodes);
        for (goff, len) in ranges {
            let data: Vec<u8> = (0..len).map(|i| (i as u64 + goff) as u8).collect();
            let mut expect = vec![Vec::new(); nodes];
            for (dest, local, range) in striping.split_range(goff, len) {
                chunks::push_chunk(&mut expect[dest], local, 0, &data[range]);
            }
            exchange.gather_stripes(&striping, goff, &data);
            for (node, want) in expect.iter().enumerate() {
                prop_assert_eq!(&*exchange.part(node), want, "part {}", node);
                exchange.part(node).clear();
            }
        }
    }

    /// Landing is the coalescing: for gap-separated groups of file-adjacent
    /// chunks, some empty, dealt to the parts in any order, the landed
    /// buffer holds one chunk a non-empty group, and the write stage issues
    /// each as one write, where it lies — nothing is left to gather.
    #[test]
    fn landing_is_coalescing_without_the_gather(
        spec in vec((1u64..16, vec(0usize..12, 1..5)), 0..5),
        parts in 1usize..5,
        deal_seed in any::<u64>(),
    ) {
        let mut frames: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut groups: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut cursor = 0u64;
        for (gap, frame_lens) in &spec {
            cursor += gap;
            let mut group = (cursor, Vec::new());
            for &len in frame_lens {
                let bytes: Vec<u8> = (0..len).map(|i| (cursor + i as u64) as u8).collect();
                group.1.extend_from_slice(&bytes);
                frames.push((cursor, bytes));
                cursor += len as u64;
            }
            if !group.1.is_empty() {
                groups.push(group);
            }
        }
        let mut rng = deal_seed | 1;
        let mut dealt = vec![Vec::new(); parts];
        for i in (0..frames.len()).rev() {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let (off, data) = frames.swap_remove((rng % (i as u64 + 1)) as usize);
            chunks::push_chunk(&mut dealt[(rng >> 32) as usize % parts], off, 0, &data);
        }

        let landed = land(&dealt).unwrap();
        prop_assert_eq!(&writes(&landed), &groups);
        prop_assert_eq!(chunks::parse_chunks(&landed).unwrap().len(), groups.len());
    }
}

/// The positioned writes the write stage issues for a buffer of
/// `(file offset, data)` chunks.
fn writes(payload: &[u8]) -> Vec<(u64, Vec<u8>)> {
    let mut out = Vec::new();
    chunks::for_each_write::<fg_sort::SortError>(payload, |off, data| {
        out.push((off, data.to_vec()));
        Ok(())
    })
    .unwrap();
    out
}

/// A column of `m.r` records of format `f` with distinct payloads.
fn column_of(f: RecordFormat, m: Matrix, seed: u64) -> Vec<u8> {
    let keys: Vec<u64> = (0..m.r as u64)
        .map(|i| i.wrapping_mul(seed | 1) ^ seed)
        .collect();
    records_with_payloads(f, &keys)
}

/// The records of a sorted column that pass `pass_no`'s even step sends to
/// column `d`, in column order: transpose for pass 1 (record `i` to column
/// `i mod s`), untranspose for pass 2 (record `i` to column `i div (r/s)`).
fn records_for(f: RecordFormat, m: Matrix, pass_no: u8, column: &[u8], d: usize) -> Vec<u8> {
    let to = |i: usize| {
        if pass_no == 1 {
            i % m.s
        } else {
            i / (m.r / m.s)
        }
    };
    let mine = f.records(column).enumerate().filter(|&(i, _)| to(i) == d);
    mine.flat_map(|(_, rec)| rec.iter().copied()).collect()
}

/// `chunks::land_placed` into a buffer exactly large enough for the parts.
fn land(parts: &[Vec<u8>]) -> Result<Vec<u8>, fg_sort::SortError> {
    let mut out = vec![0u8; parts.iter().map(Vec::len).sum()];
    let len = chunks::land_placed(parts, &mut Vec::new(), &mut out)?;
    out.truncate(len);
    Ok(out)
}

/// A receiver checks what it no longer derives: a chunk that overlaps the
/// one before it in the file — at the same offset, or starting inside it,
/// from the same sender or another — is refused as corrupt, and so is a
/// landing larger than its buffer.
#[test]
fn land_placed_refuses_overlapping_chunks() {
    let placed = |chunks_per_part: &[&[(u64, usize)]]| -> Vec<Vec<u8>> {
        let part = |placed: &&[(u64, usize)]| {
            let mut part = Vec::new();
            for &(off, len) in placed.iter() {
                chunks::push_chunk(&mut part, off, 0, &vec![7; len]);
            }
            part
        };
        chunks_per_part.iter().map(part).collect()
    };
    fn corrupt<T>(r: Result<T, fg_sort::SortError>) -> bool {
        matches!(r, Err(fg_sort::SortError::Corrupt(_)))
    }
    assert!(corrupt(land(&placed(&[&[(0, 4), (0, 4)]]))));
    assert!(corrupt(land(&placed(&[&[(0, 4)], &[(3, 4)]]))));
    assert!(corrupt(land(&placed(&[&[(10, 2)], &[(8, 8)]]))));
    assert!(corrupt(land(&placed(&[&[(0, 4), (4, 4)], &[(6, 1)]]))));
    // Adjacent and gapped chunks land; an empty one overlaps nothing.
    assert!(land(&placed(&[&[(0, 4), (9, 1)], &[(4, 4), (5, 0)]])).is_ok());
    // One header is merged away, but the buffer is smaller still.
    let parts = placed(&[&[(0, 4)], &[(4, 4)]]);
    let mut out = vec![0u8; chunks::chunk_size(8) - 1];
    assert!(corrupt(chunks::land_placed(
        &parts,
        &mut Vec::new(),
        &mut out
    )));
}

/// An entry's lane field numbers `MAX_LANES` lanes; one more must be refused
/// by name, not wrapped into lane 0.  (The heads are an iterator, so asking
/// allocates nothing.)
#[test]
#[should_panic(expected = "at most")]
fn loser_tree_rejects_more_lanes_than_an_entry_can_number() {
    LoserTree::new((0..LoserTree::MAX_LANES + 1).map(|_| None));
}

/// One node's side of [`scatter_send_matches_scatter_round_by_round`]: stream
/// the node's input through `read → send` while a second thread takes every
/// message as it arrives, until each node's `DONE`.  Returns the data
/// messages as `(source, bytes behind the kind byte)`, in arrival order.
fn scatter_and_collect(
    node: &mut fg_sort::driver::Node,
    tag: u64,
    splitters: &[ExtKey],
) -> Result<Vec<(usize, Vec<u8>)>, fg_sort::SortError> {
    use fg_core::{PipelineCfg, Rounds};
    use fg_sort::stages;
    let cfg = node.cfg.clone();
    let comm = node.comm.clone();
    std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let (mut data, mut dones) = (Vec::new(), 0);
            while dones < comm.nodes() {
                let msg = comm.recv(None, tag)?;
                match msg.payload[0] {
                    stages::MSG_DONE => dones += 1,
                    _ => data.push((msg.src, msg.payload[1..].to_vec())),
                }
            }
            Ok(data)
        });
        let mut prog = node.program("scatter");
        let read = prog.add_stage("read", stages::read_input_stage(&node.disk, &cfg));
        let send = prog.add_stage(
            "send",
            stages::scatter_send_stage(
                &node.comm,
                tag,
                cfg.record.record_bytes,
                stages::payload_bytes(&cfg),
                stages::partitioner(&cfg, node.rank, splitters.to_vec()),
            ),
        );
        let blocks = cfg.bytes_per_node().div_ceil(cfg.block_bytes as u64);
        prog.add_pipeline(
            PipelineCfg::new("send", 2, cfg.block_bytes).rounds(Rounds::Count(blocks)),
            &[read, send],
        )?;
        node.run(prog)?;
        receiver.join().expect("receiver thread")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fused send stage against its oracle.  Over a whole stream, what
    /// each destination receives from a source is the concatenation, block by
    /// block, of the chunk `Scatter::scatter` packs for that destination —
    /// the source's records for it, in input order — in messages of which
    /// all but the last are full and none outgrows the payload's capacity.
    #[test]
    fn scatter_send_matches_scatter_round_by_round(
        nodes in 1usize..=8,
        wide in any::<bool>(),
        block_records in 1usize..=64,
        records_per_node in 1usize..300,
        dist in 0usize..3,
        seed in any::<u64>(),
    ) {
        use fg_sort::config::SortConfig;
        use fg_sort::keygen::KeyDist;
        use fg_sort::{driver, input, stages};
        const TAG: u64 = 0x5CA7;
        let mut cfg = SortConfig::test_default(nodes, records_per_node);
        cfg.record = if wide { RecordFormat::REC64 } else { RecordFormat::REC16 };
        // Uniform keys, one key, about five distinct keys.
        cfg.dist = [KeyDist::Uniform, KeyDist::AllEqual, KeyDist::Poisson][dist];
        cfg.seed = seed;
        cfg.block_bytes = block_records * cfg.record.record_bytes;
        cfg.run_bytes = cfg.block_bytes.max(64 * cfg.record.record_bytes);
        cfg.watchdog = Some(std::time::Duration::from_secs(30));
        let (rb, cap) = (cfg.record.record_bytes, stages::payload_bytes(&cfg));

        let disks = input::provision(&cfg);
        let run = driver::launch(&cfg, &disks, |node| {
            let splitters = fg_sort::dsort::sampling::select_splitters(node)?;
            let inbox = scatter_and_collect(node, TAG, &splitters)?;
            Ok((splitters, inbox))
        })
        .expect("scatter run");

        let splitters = &run.ranks[0].out.0;
        let mut scatter = chunks::Scatter::new(nodes);
        let mut packed = vec![0u8; scatter.max_len(cfg.block_bytes)];
        for src in 0..nodes {
            let mut expect = vec![Vec::new(); nodes];
            let mut dest_of = stages::partitioner(&cfg, src, splitters.clone());
            let local = input::generate_node_input(&cfg, src);
            for (round, block) in local.chunks(cfg.block_bytes).enumerate() {
                let len = scatter.scatter(block, rb, &mut packed, |i, rec| {
                    dest_of(round as u64, i, rec)
                });
                for chunk in chunks::iter_chunks(&packed[..len]) {
                    let chunk = chunk.expect("well-formed chunk");
                    expect[chunk.a as usize].extend_from_slice(chunk.data);
                }
            }
            for (dest, expect) in expect.iter().enumerate() {
                let inbox = &run.ranks[dest].out.1;
                let from_src = inbox.iter().filter(|m| m.0 == src);
                let msgs: Vec<&[u8]> = from_src.map(|m| &m.1[..]).collect();
                prop_assert_eq!(&msgs.concat(), expect, "{} -> {}", src, dest);
                for (i, msg) in msgs.iter().enumerate() {
                    prop_assert!(!msg.is_empty() && msg.len() < cap);
                    let full = 1 + msg.len() + rb > cap;
                    prop_assert!(
                        full || i + 1 == msgs.len(),
                        "{} -> {}: message {} of {} is part full", src, dest, i, msgs.len()
                    );
                }
            }
        }
    }
}
