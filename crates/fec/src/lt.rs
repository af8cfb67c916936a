//! LT encode and belief-propagation peeling decode.
//!
//! Symbol selection is **seed-deterministic**: the neighbour set of encoded
//! symbol `id` is a pure function of `(stream seed, block id, symbol id, k)`,
//! derived through the same FNV-1a + SplitMix64 discipline as
//! `thrifty_fleet::rng::flow_substream`. The decoder therefore regenerates
//! neighbour sets from the wire header alone — no degree or index list is
//! ever transmitted.
//!
//! The first `k` symbol ids form a **systematic prefix**: id `i < k` is a
//! verbatim copy of source symbol `i`. Repair ids `≥ k` are XORs of a
//! robust-soliton-sampled neighbour set. At zero loss the receiver thus
//! reconstructs the block byte-for-byte without running the peeler; under
//! loss the repair symbols feed the ripple.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::degree::RobustSoliton;

/// FNV-1a over a byte string (workspace-standard constants).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// SplitMix64 finaliser, decorrelating nearby seeds/tags.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG stream that generates encoded symbol `symbol_id` of block
/// `block` under `seed`. Allocation-free: FNV-1a over the domain tag
/// continued over the block and symbol ids' little-endian bytes.
fn symbol_rng(seed: u64, block: u32, symbol_id: u32) -> StdRng {
    let mut h = fnv1a(b"fec.symbol");
    for b in block.to_le_bytes().into_iter().chain(symbol_id.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    StdRng::seed_from_u64(mix(seed.wrapping_add(h)))
}

/// Errors from block geometry validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FecError {
    /// The source block was empty.
    EmptyBlock,
    /// `symbol_len` was zero.
    ZeroSymbolLen,
    /// The block needs more than `u16::MAX` source symbols.
    TooManySymbols {
        /// Source symbols the block would require.
        needed: usize,
    },
}

impl std::fmt::Display for FecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FecError::EmptyBlock => write!(f, "fountain block must carry at least one byte"),
            FecError::ZeroSymbolLen => write!(f, "fountain symbol length must be nonzero"),
            FecError::TooManySymbols { needed } => {
                write!(f, "fountain block needs {needed} source symbols (max 65535)")
            }
        }
    }
}

impl std::error::Error for FecError {}

/// The neighbour (source-symbol index) set of encoded symbol `symbol_id`.
///
/// Systematic prefix: ids `< k` have the single neighbour `id`. Repair ids
/// draw a robust-soliton degree, then pick that many **distinct** indices
/// by rejection over the shared seeded stream; indices are returned in
/// draw order (the XOR is order-independent, the determinism is not).
fn neighbors(seed: u64, block: u32, symbol_id: u32, dist: &RobustSoliton) -> Vec<usize> {
    let k = dist.k();
    if (symbol_id as usize) < k {
        return vec![symbol_id as usize];
    }
    let mut rng = symbol_rng(seed, block, symbol_id);
    let degree = dist.degree_for_unit(rng.gen_range(0.0..1.0));
    let mut picked: Vec<usize> = Vec::with_capacity(degree);
    while picked.len() < degree {
        let idx = rng.gen_range(0..k);
        if !picked.contains(&idx) {
            picked.push(idx);
        }
    }
    picked
}

/// LT encoder over one source block.
///
/// The block is zero-padded to `k × symbol_len`; `block_len` remembers the
/// true byte length so decode can strip the pad.
#[derive(Debug, Clone)]
pub struct BlockEncoder {
    padded: Vec<u8>,
    block_len: usize,
    symbol_len: usize,
    k: usize,
    seed: u64,
    block: u32,
    dist: RobustSoliton,
}

impl BlockEncoder {
    /// Encoder for `data` split into `symbol_len`-byte source symbols.
    pub fn new(data: &[u8], symbol_len: usize, seed: u64, block: u32) -> Result<Self, FecError> {
        if data.is_empty() {
            return Err(FecError::EmptyBlock);
        }
        if symbol_len == 0 {
            return Err(FecError::ZeroSymbolLen);
        }
        let k = data.len().div_ceil(symbol_len);
        if k > u16::MAX as usize {
            return Err(FecError::TooManySymbols { needed: k });
        }
        let mut padded = data.to_vec();
        padded.resize(k * symbol_len, 0);
        Ok(BlockEncoder {
            padded,
            block_len: data.len(),
            symbol_len,
            k,
            seed,
            block,
            dist: RobustSoliton::with_defaults(k),
        })
    }

    /// Number of source symbols.
    pub fn k(&self) -> usize {
        self.k
    }

    /// True (unpadded) block length in bytes.
    pub fn block_len(&self) -> usize {
        self.block_len
    }

    /// Source symbol length in bytes.
    pub fn symbol_len(&self) -> usize {
        self.symbol_len
    }

    /// Source symbol `i` (zero-padded tail included).
    pub fn source_symbol(&self, i: usize) -> &[u8] {
        &self.padded[i * self.symbol_len..(i + 1) * self.symbol_len]
    }

    /// Encoded symbol `symbol_id`: XOR of its neighbour source symbols.
    pub fn encode(&self, symbol_id: u32) -> Vec<u8> {
        let mut out = vec![0u8; self.symbol_len];
        for idx in neighbors(self.seed, self.block, symbol_id, &self.dist) {
            for (o, s) in out.iter_mut().zip(self.source_symbol(idx)) {
                *o ^= s;
            }
        }
        out
    }
}

/// One buffered (not yet peeled) encoded symbol inside the decoder.
#[derive(Debug, Clone)]
struct PendingSymbol {
    /// Residual payload: original XOR all already-recovered neighbours.
    data: Vec<u8>,
    /// Neighbour indices not yet recovered. Unordered; emptied by peeling.
    neighbors: Vec<usize>,
}

/// Belief-propagation peeling decoder with an explicit ripple queue.
///
/// The **ripple** is a FIFO of source indices recovered but not yet
/// propagated. Processing order is therefore a pure function of the
/// `push` sequence: pop the oldest ripple entry, XOR it out of every
/// pending symbol that references it (in symbol arrival order), and any
/// pending symbol that drops to degree one releases its last neighbour
/// onto the back of the queue. Decode completes when all `k` source
/// symbols are recovered; it fails (for the symbols seen so far) when the
/// ripple drains with coverage incomplete.
#[derive(Debug, Clone)]
pub struct PeelingDecoder {
    k: usize,
    symbol_len: usize,
    block_len: usize,
    seed: u64,
    block: u32,
    dist: RobustSoliton,
    recovered: Vec<Option<Vec<u8>>>,
    recovered_count: usize,
    pending: Vec<PendingSymbol>,
    /// `by_source[i]` = indices into `pending` that still reference source
    /// symbol `i` (arrival order).
    by_source: Vec<Vec<usize>>,
    ripple: VecDeque<usize>,
    symbols_seen: u64,
}

impl PeelingDecoder {
    /// Decoder for a block of `k` source symbols of `symbol_len` bytes,
    /// `block_len` true bytes, matching an encoder keyed `(seed, block)`.
    pub fn new(
        k: usize,
        symbol_len: usize,
        block_len: usize,
        seed: u64,
        block: u32,
    ) -> Result<Self, FecError> {
        if k == 0 || block_len == 0 {
            return Err(FecError::EmptyBlock);
        }
        if symbol_len == 0 {
            return Err(FecError::ZeroSymbolLen);
        }
        if k > u16::MAX as usize {
            return Err(FecError::TooManySymbols { needed: k });
        }
        Ok(PeelingDecoder {
            k,
            symbol_len,
            block_len,
            seed,
            block,
            dist: RobustSoliton::with_defaults(k),
            recovered: vec![None; k],
            recovered_count: 0,
            pending: Vec::new(),
            by_source: vec![Vec::new(); k],
            ripple: VecDeque::new(),
            symbols_seen: 0,
        })
    }

    /// Number of source symbols recovered so far.
    pub fn recovered_count(&self) -> usize {
        self.recovered_count
    }

    /// Whether every source symbol has been recovered.
    pub fn is_complete(&self) -> bool {
        self.recovered_count == self.k
    }

    /// Encoded symbols accepted so far (including redundant ones).
    pub fn symbols_seen(&self) -> u64 {
        self.symbols_seen
    }

    /// Recovered source symbol `i`, if peeling has reached it.
    pub fn source_symbol(&self, i: usize) -> Option<&[u8]> {
        self.recovered.get(i).and_then(|s| s.as_deref())
    }

    /// Indices of source symbols still missing, ascending.
    pub fn missing(&self) -> Vec<usize> {
        (0..self.k).filter(|&i| self.recovered[i].is_none()).collect()
    }

    /// Accept one received encoded symbol and run peeling to quiescence.
    /// Returns the number of source symbols newly recovered by this push.
    ///
    /// Symbols whose payload length disagrees with the block geometry are
    /// rejected (return 0) rather than poisoning the XOR algebra.
    pub fn push(&mut self, symbol_id: u32, data: &[u8]) -> usize {
        if data.len() != self.symbol_len {
            return 0;
        }
        self.symbols_seen += 1;
        let before = self.recovered_count;
        let mut residual = data.to_vec();
        let mut unknown: Vec<usize> = Vec::new();
        for idx in neighbors(self.seed, self.block, symbol_id, &self.dist) {
            match &self.recovered[idx] {
                Some(known) => {
                    for (r, s) in residual.iter_mut().zip(known) {
                        *r ^= s;
                    }
                }
                None => unknown.push(idx),
            }
        }
        match unknown.as_slice() {
            [] => {} // fully redundant
            &[only] => self.recover(only, residual),
            _ => {
                let slot = self.pending.len();
                for &idx in &unknown {
                    self.by_source[idx].push(slot);
                }
                self.pending.push(PendingSymbol { data: residual, neighbors: unknown });
            }
        }
        self.drain_ripple();
        self.recovered_count - before
    }

    /// Mark source symbol `idx` recovered and enqueue it on the ripple.
    fn recover(&mut self, idx: usize, data: Vec<u8>) {
        if self.recovered[idx].is_none() {
            self.recovered[idx] = Some(data);
            self.recovered_count += 1;
            self.ripple.push_back(idx);
        }
    }

    /// Propagate recovered symbols through the pending set, FIFO.
    fn drain_ripple(&mut self) {
        while let Some(idx) = self.ripple.pop_front() {
            let touched = std::mem::take(&mut self.by_source[idx]);
            for slot in touched {
                let released = {
                    let sym = &mut self.pending[slot];
                    let Some(pos) = sym.neighbors.iter().position(|&n| n == idx) else {
                        continue; // already peeled out of this symbol
                    };
                    sym.neighbors.swap_remove(pos);
                    let known = self.recovered[idx]
                        .as_ref()
                        // lint:allow(panic-unwrap): ripple entries are Some by construction (recover() fills the slot before enqueueing); the invariant is input-independent
                        .expect("ripple entries are recovered by construction");
                    for (r, s) in sym.data.iter_mut().zip(known) {
                        *r ^= s;
                    }
                    if let &[last] = sym.neighbors.as_slice() {
                        Some((last, std::mem::take(&mut sym.data)))
                    } else {
                        None
                    }
                };
                if let Some((last, data)) = released {
                    self.pending[slot].neighbors.clear();
                    self.recover(last, data);
                }
            }
        }
    }

    /// The reconstructed block, truncated to its true length; `None` until
    /// decode is complete.
    pub fn into_data(self) -> Option<Vec<u8>> {
        if !self.is_complete() {
            return None;
        }
        let mut out = Vec::with_capacity(self.k * self.symbol_len);
        for sym in self.recovered.into_iter() {
            // lint:allow(panic-unwrap): guarded by the is_complete() early return above — every slot is Some once recovered_count == k
            out.extend_from_slice(&sym.expect("complete decode recovered every symbol"));
        }
        out.truncate(self.block_len);
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(0u8..=255)).collect()
    }

    #[test]
    fn systematic_prefix_is_verbatim_source() {
        let data = block(4000, 1);
        let enc = BlockEncoder::new(&data, 128, 99, 0).unwrap();
        for i in 0..enc.k() as u32 {
            assert_eq!(enc.encode(i), enc.source_symbol(i as usize));
        }
    }

    #[test]
    fn encode_is_seed_deterministic() {
        let data = block(5000, 2);
        let a = BlockEncoder::new(&data, 200, 7, 3).unwrap();
        let b = BlockEncoder::new(&data, 200, 7, 3).unwrap();
        let c = BlockEncoder::new(&data, 200, 8, 3).unwrap();
        let repair = a.k() as u32 + 5;
        assert_eq!(a.encode(repair), b.encode(repair));
        assert_ne!(a.encode(repair), c.encode(repair), "seed must steer repair symbols");
    }

    #[test]
    fn zero_loss_systematic_decode_roundtrips() {
        let data = block(7013, 3);
        let enc = BlockEncoder::new(&data, 256, 42, 1).unwrap();
        let mut dec =
            PeelingDecoder::new(enc.k(), enc.symbol_len(), enc.block_len(), 42, 1).unwrap();
        for id in 0..enc.k() as u32 {
            dec.push(id, &enc.encode(id));
        }
        assert!(dec.is_complete());
        assert_eq!(dec.into_data().unwrap(), data);
    }

    #[test]
    fn repair_symbols_recover_erased_prefix_symbols() {
        let data = block(12_800, 4);
        let enc = BlockEncoder::new(&data, 128, 5, 2).unwrap();
        let k = enc.k() as u32;
        let mut dec =
            PeelingDecoder::new(enc.k(), enc.symbol_len(), enc.block_len(), 5, 2).unwrap();
        // Drop every third systematic symbol; stream repair ids until done.
        for id in (0..k).filter(|id| id % 3 != 0) {
            dec.push(id, &enc.encode(id));
        }
        assert!(!dec.is_complete());
        let mut id = k;
        while !dec.is_complete() && id < k + 3 * k {
            dec.push(id, &enc.encode(id));
            id += 1;
        }
        assert!(dec.is_complete(), "peeling stalled: missing {:?}", dec.missing());
        assert_eq!(dec.into_data().unwrap(), data);
    }

    #[test]
    fn repair_only_decode_succeeds_with_modest_overhead() {
        let data = block(6400, 6);
        let enc = BlockEncoder::new(&data, 128, 11, 0).unwrap();
        let k = enc.k() as u32;
        let mut dec =
            PeelingDecoder::new(enc.k(), enc.symbol_len(), enc.block_len(), 11, 0).unwrap();
        // No systematic symbols at all: decode from repair ids only.
        let mut id = k;
        while !dec.is_complete() && id < k + 4 * k {
            dec.push(id, &enc.encode(id));
            id += 1;
        }
        assert!(dec.is_complete(), "repair-only decode stalled at {}", dec.recovered_count());
        assert_eq!(dec.into_data().unwrap(), data);
    }

    #[test]
    fn wrong_length_symbols_are_rejected() {
        let data = block(1000, 7);
        let enc = BlockEncoder::new(&data, 100, 1, 0).unwrap();
        let mut dec =
            PeelingDecoder::new(enc.k(), enc.symbol_len(), enc.block_len(), 1, 0).unwrap();
        assert_eq!(dec.push(0, &[0u8; 99]), 0);
        assert_eq!(dec.symbols_seen(), 0);
        assert_eq!(dec.recovered_count(), 0);
    }

    #[test]
    fn duplicate_symbols_are_harmless() {
        let data = block(3000, 8);
        let enc = BlockEncoder::new(&data, 300, 2, 0).unwrap();
        let mut dec =
            PeelingDecoder::new(enc.k(), enc.symbol_len(), enc.block_len(), 2, 0).unwrap();
        for _ in 0..3 {
            for id in 0..enc.k() as u32 {
                dec.push(id, &enc.encode(id));
            }
        }
        assert!(dec.is_complete());
        assert_eq!(dec.into_data().unwrap(), data);
    }

    #[test]
    fn geometry_errors_are_typed() {
        assert_eq!(BlockEncoder::new(&[], 10, 0, 0).unwrap_err(), FecError::EmptyBlock);
        assert_eq!(BlockEncoder::new(&[1], 0, 0, 0).unwrap_err(), FecError::ZeroSymbolLen);
        assert!(matches!(
            BlockEncoder::new(&vec![0u8; 70_000], 1, 0, 0).unwrap_err(),
            FecError::TooManySymbols { needed: 70_000 }
        ));
        assert_eq!(
            PeelingDecoder::new(0, 10, 10, 0, 0).unwrap_err(),
            FecError::EmptyBlock
        );
        assert_eq!(
            PeelingDecoder::new(1, 0, 10, 0, 0).unwrap_err(),
            FecError::ZeroSymbolLen
        );
    }

    #[test]
    fn readme_example_decodes_through_its_lossy_channel() {
        // Pins the README's "Programmatic use" snippet: same data, seed
        // and loss pattern, so the documented assert stays true.
        let data = vec![7u8; 4000];
        let enc = BlockEncoder::new(&data, 500, 42, 0).unwrap();
        let mut dec = PeelingDecoder::new(enc.k(), 500, data.len(), 42, 0).unwrap();
        for id in 0..(enc.k() as u32 + 4) {
            if id != 2 {
                dec.push(id, &enc.encode(id));
            }
        }
        assert!(dec.is_complete());
        assert_eq!(dec.into_data().unwrap(), data);
    }

    #[test]
    fn decoder_neighbor_regeneration_matches_encoder() {
        let dist = RobustSoliton::with_defaults(50);
        for id in 0..200u32 {
            assert_eq!(neighbors(9, 4, id, &dist), neighbors(9, 4, id, &dist));
        }
        // Systematic ids map to themselves.
        assert_eq!(neighbors(9, 4, 7, &dist), vec![7]);
        // Repair neighbours are distinct indices within range.
        let n = neighbors(9, 4, 60, &dist);
        let mut sorted = n.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), n.len());
        assert!(n.iter().all(|&i| i < 50));
    }
}
