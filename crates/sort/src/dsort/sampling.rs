//! Splitter selection by oversampling (§V, "Selecting splitters").
//!
//! Each node samples `oversample · P` records from its local input at
//! random positions, extends their keys with `(origin node, origin index)`
//! to make them unique, and sends them to node 0.  Node 0 sorts the pooled
//! samples and picks the `P−1` extended keys at evenly spaced ranks; these
//! are broadcast to every node.  With extended keys, even an all-equal-keys
//! input partitions evenly — the paper reports all partition sizes within
//! 10% of the average, which experiment T2 reproduces.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::driver::Node;
use crate::input::INPUT_FILE;
use crate::record::ExtKey;
use crate::SortError;

/// Sample local records and agree on `P−1` splitters cluster-wide.
pub fn select_splitters(node: &Node) -> Result<Vec<ExtKey>, SortError> {
    let (cfg, rank, comm, disk) = (&node.cfg, node.rank, &node.comm, &node.disk);
    let nodes = cfg.nodes;
    let rb = cfg.record.record_bytes;
    let samples_here = (cfg.oversample * nodes).min(cfg.records_per_node);

    // Deterministic sample positions, distinct per node.
    const SAMPLE_SALT: u64 = 0x5A3B_1E00_0000_0001;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ SAMPLE_SALT ^ (rank as u64) << 32);
    let mut mine = Vec::with_capacity(samples_here);
    let mut rec = vec![0u8; rb];
    for _ in 0..samples_here {
        let idx = rng.random_range(0..cfg.records_per_node) as u64;
        disk.read_at(INPUT_FILE, idx * rb as u64, &mut rec)?;
        mine.push(ExtKey {
            key: cfg.record.key(&rec),
            node: rank as u32,
            seq: idx,
        });
    }

    // Pool at node 0, pick splitters, broadcast.
    let mut payload = Vec::with_capacity(mine.len() * ExtKey::BYTES);
    for e in &mine {
        payload.extend_from_slice(&e.to_bytes());
    }
    let gathered = comm.gather(0, payload)?;
    let splitter_bytes = if let Some(parts) = gathered {
        let mut pool: Vec<ExtKey> = Vec::new();
        for part in parts {
            if part.len() % ExtKey::BYTES != 0 {
                return Err(SortError::Corrupt("ragged sample payload".into()));
            }
            for raw in part.chunks_exact(ExtKey::BYTES) {
                pool.push(ExtKey::from_bytes(raw)?);
            }
        }
        // Selection, not a full sort: the splitter ranks are known up
        // front, so partition the pool once per rank with
        // `select_nth_unstable` — expected linear total work — instead of
        // sorting all `oversample · P²` samples.  Each selection leaves
        // `pool[..at]` ≤ `pool[at]` ≤ `pool[at+1..]`, so later (larger)
        // ranks only need to search the suffix.
        let mut out = Vec::with_capacity((nodes - 1) * ExtKey::BYTES);
        let mut done = 0usize; // everything before `done` is already placed
        let mut prev: Option<(usize, ExtKey)> = None;
        for i in 1..nodes {
            let at = (i * pool.len() / nodes).min(pool.len() - 1);
            let key = match prev {
                Some((prev_at, prev_key)) if prev_at == at => prev_key,
                _ => {
                    let (_, nth, _) = pool[done..].select_nth_unstable(at - done);
                    let key = *nth;
                    done = at + 1;
                    key
                }
            };
            out.extend_from_slice(&key.to_bytes());
            prev = Some((at, key));
        }
        out
    } else {
        Vec::new()
    };
    let bytes = comm.broadcast(0, &splitter_bytes)?;
    if bytes.len() != (nodes - 1) * ExtKey::BYTES {
        return Err(SortError::Corrupt(format!(
            "expected {} splitters, got {} bytes",
            nodes - 1,
            bytes.len()
        )));
    }
    let splitters: Vec<ExtKey> = bytes
        .chunks_exact(ExtKey::BYTES)
        .map(ExtKey::from_bytes)
        .collect::<Result<_, _>>()?;
    debug_assert!(splitters.windows(2).all(|w| w[0] <= w[1]));
    Ok(splitters)
}
