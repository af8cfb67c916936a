//! Table-driven Triple DES — the fast backend behind
//! [`crate::CipherBackend::Fast`].
//!
//! The reference in [`crate::des`] walks the published permutation tables
//! bit by bit: ≈1400 loop iterations per DES pass. This core precomputes
//! that work and runs EDE in DES's *permuted domain*, on the (L, R) halves
//! between IP and IP⁻¹ (FP):
//!
//! * **SP tables** — S-box and P permutation fuse into eight 64-entry u32
//!   tables indexed directly by the 6-bit chunk.
//! * **Pre-split round keys** — E's 6-bit windows are shifts of `R`
//!   rotated right by one and duplicated into a u64. [`TripleDesFast::new`]
//!   expands the key schedules once into 48 round keys in E-D-E order (k1
//!   forward, k2 reversed, k3 forward), each split into masks for the even
//!   and odd windows: a round is 2 XORs, 8 shift/masks and 8 SP loads.
//!   Decryption walks the same keys backwards.
//! * **The inner permutations cancel** — the FP ending one pass meets the
//!   IP opening the next, so a block is one IP, 48 rounds (halves swapped
//!   at pass boundaries) and one FP, each eight byte-table lookups.
//! * **OFB stays permuted** — each OFB output block is the next input, so
//!   [`TripleDesFast::ofb_xor_segment`] applies IP once per segment and FP
//!   once per keystream block, only to the bytes XORed into the payload.
//!
//! Bit-exactness is pinned by the tests below and in `tests/`: the DES
//! vectors via equal keys, the SP 800-67 three-key vector, and
//! differential blocks and OFB segments against the reference.

use crate::des::{DesKeySchedule, IP, P, SBOXES};
use crate::BlockCipher;

/// `const` u64 permutation used to build the IP/IP⁻¹ byte tables: output
/// bit `i+1` (1-based, MSB-first) is input bit `table[i]`.
const fn ct_permute64(input: u64, table: &[u8; 64]) -> u64 {
    let mut out = 0u64;
    let mut i = 0;
    while i < 64 {
        out <<= 1;
        out |= (input >> (64 - table[i] as u32)) & 1;
        i += 1;
    }
    out
}

/// IP⁻¹ as a table, derived from [`IP`]: IP maps input bit `IP[i]` to
/// output bit `i+1`, so the inverse maps input bit `i+1` to output `IP[i]`.
const FP: [u8; 64] = {
    let mut fp = [0u8; 64];
    let mut i = 0;
    while i < 64 {
        fp[IP[i] as usize - 1] = i as u8 + 1;
        i += 1;
    }
    fp
};

/// Per-input-byte contribution tables: `TAB[b][v]` is the permuted output
/// when input byte `b` (0 = most significant) holds value `v` and all other
/// bytes are zero. Permutations are linear over bit-OR, so the full result
/// is the OR of eight lookups.
const fn byte_permutation_table(table: &[u8; 64]) -> [[u64; 256]; 8] {
    let mut t = [[0u64; 256]; 8];
    let mut b = 0;
    while b < 8 {
        let mut v = 0;
        while v < 256 {
            t[b][v] = ct_permute64((v as u64) << (56 - 8 * b), table);
            v += 1;
        }
        b += 1;
    }
    t
}

const IP_TAB: [[u64; 256]; 8] = byte_permutation_table(&IP);
const FP_TAB: [[u64; 256]; 8] = byte_permutation_table(&FP);

#[inline]
fn permute_by_bytes(x: u64, tab: &[[u64; 256]; 8]) -> u64 {
    tab[0][(x >> 56) as usize]
        | tab[1][((x >> 48) & 0xff) as usize]
        | tab[2][((x >> 40) & 0xff) as usize]
        | tab[3][((x >> 32) & 0xff) as usize]
        | tab[4][((x >> 24) & 0xff) as usize]
        | tab[5][((x >> 16) & 0xff) as usize]
        | tab[6][((x >> 8) & 0xff) as usize]
        | tab[7][(x & 0xff) as usize]
}

/// A block's (L, R) halves in the permuted domain, between IP and FP.
type Halves = (u32, u32);

/// IP: a big-endian block into permuted-domain halves.
#[inline]
fn ip(block: u64) -> Halves {
    let p = permute_by_bytes(block, &IP_TAB);
    ((p >> 32) as u32, p as u32)
}

/// FP (IP⁻¹): permuted-domain halves back into a big-endian block.
#[inline]
fn fp((l, r): Halves) -> u64 {
    permute_by_bytes(((l as u64) << 32) | r as u64, &FP_TAB)
}

/// Fused S-box + P-permutation tables: `SP[i][chunk]` is the P-permuted
/// contribution of S-box `i` fed with the raw 6-bit `chunk` (row/column
/// decoding folded in).
const SP: [[u32; 64]; 8] = {
    let mut sp = [[0u32; 64]; 8];
    let mut i = 0;
    while i < 8 {
        let mut chunk = 0;
        while chunk < 64 {
            let row = ((chunk & 0x20) >> 4) | (chunk & 1);
            let col = (chunk >> 1) & 0x0f;
            let s = SBOXES[i][row * 16 + col] as u64;
            // Place the 4-bit output at its pre-P position, then apply P.
            let pre = s << (28 - 4 * i);
            let mut out = 0u64;
            let mut j = 0;
            while j < 32 {
                out <<= 1;
                out |= (pre >> (32 - P[j] as u32)) & 1;
                j += 1;
            }
            sp[i][chunk] = out as u32;
            chunk += 1;
        }
        i += 1;
    }
    sp
};

/// Split a 48-bit round key into `[even, odd]` masks for [`feistel`]:
/// S-box `i`'s 6-bit chunk goes to bit `58 - 4i` of the mask of `i`'s
/// parity, where E places its window, so one XOR keys four S-boxes.
fn split_round_key(subkey: u64) -> [u64; 2] {
    let mut masks = [0u64; 2];
    for i in 0..8 {
        masks[i % 2] |= ((subkey >> (42 - 6 * i)) & 0x3f) << (58 - 4 * i);
    }
    masks
}

/// The DES round function f(R, K) with a pre-split key: E-expansion by
/// rotation, then eight SP lookups.
#[inline(always)]
fn feistel(r: u32, [even, odd]: [u64; 2]) -> u32 {
    // E's chunk g is input bits 4g..4g+5 (1-based, bit 0 = bit 32): six
    // consecutive bits of R rotated right by one, with wraparound. A
    // duplicated u64 makes every window a plain shift.
    let rot = r.rotate_right(1) as u64;
    let d = (rot << 32) | rot;
    let (e, o) = (d ^ even, d ^ odd);
    SP[0][(e >> 58) as usize & 0x3f]
        ^ SP[1][(o >> 54) as usize & 0x3f]
        ^ SP[2][(e >> 50) as usize & 0x3f]
        ^ SP[3][(o >> 46) as usize & 0x3f]
        ^ SP[4][(e >> 42) as usize & 0x3f]
        ^ SP[5][(o >> 38) as usize & 0x3f]
        ^ SP[6][(e >> 34) as usize & 0x3f]
        ^ SP[7][(o >> 30) as usize & 0x3f]
}

/// One DES pass; returns the halves swapped: FP's input, or the next pass's.
#[inline(always)]
fn des_pass<'k>((mut l, mut r): Halves, keys: impl Iterator<Item = &'k [u64; 2]>) -> Halves {
    for &k in keys {
        (l, r) = (r, l ^ feistel(r, k));
    }
    (r, l)
}

/// Table-driven Triple DES, EDE3: `C = E_{k3}(D_{k2}(E_{k1}(P)))`.
#[derive(Clone)]
pub struct TripleDesFast {
    /// The 48 round keys of the cascade in E-D-E order, one row per pass.
    keys: [[[u64; 2]; 16]; 3],
}

impl TripleDesFast {
    /// Build a 3DES context from a 24-byte key (three 8-byte DES keys).
    pub fn new(key: &[u8; 24]) -> Self {
        let mut keys = [[[0u64; 2]; 16]; 3];
        for (pass, row) in keys.iter_mut().enumerate() {
            let schedule = DesKeySchedule::new(u64::from_be_bytes(
                key[8 * pass..8 * pass + 8].try_into().unwrap(),
            ));
            for (i, k) in row.iter_mut().enumerate() {
                // The middle pass decrypts: its schedule runs reversed.
                let round = if pass == 1 { 15 - i } else { i };
                *k = split_round_key(schedule.round_keys[round]);
            }
        }
        TripleDesFast { keys }
    }

    /// EDE encryption in the permuted domain.
    #[inline(always)]
    fn ede(&self, lr: Halves) -> Halves {
        self.keys
            .iter()
            .fold(lr, |lr, pass| des_pass(lr, pass.iter()))
    }

    /// XOR the OFB keystream of segment `seq` over `data` in place —
    /// byte-identical to [`crate::Ofb`] over this cipher with the IV
    /// `E(seq)`, including SP 800-38A's truncated final block. The chain
    /// never leaves the permuted domain: one IP for the segment number,
    /// one FP per keystream block.
    pub(crate) fn ofb_xor_segment(&self, seq: u64, data: &mut [u8]) {
        let mut state = self.ede(ip(seq));
        for block in data.chunks_mut(8) {
            state = self.ede(state);
            for (d, k) in block.iter_mut().zip(fp(state).to_be_bytes()) {
                *d ^= k;
            }
        }
    }
}

/// OFB chains [`TripleDesFast::ofb_xor_train`] advances side by side.
/// One chain is latency-bound — every round waits on the last — so
/// interleaving independent chains fills the core's idle issue slots.
pub(crate) const TRAIN_LANES: usize = 4;

impl TripleDesFast {
    /// EDE encryption of every lane's state, round by round across lanes.
    #[inline(always)]
    fn ede_lanes(&self, lanes: &mut [Halves; TRAIN_LANES]) {
        for pass in &self.keys {
            for &k in pass {
                for (l, r) in lanes.iter_mut() {
                    (*l, *r) = (*r, *l ^ feistel(*r, k));
                }
            }
            for (l, r) in lanes.iter_mut() {
                (*l, *r) = (*r, *l);
            }
        }
    }

    /// XOR the OFB keystreams of a packet train in place: segment `k` as
    /// by [`ofb_xor_segment`](Self::ofb_xor_segment) with `seqs[k]`.
    /// [`TRAIN_LANES`] chains run in lock-step; a lane that finishes its
    /// segment takes the train's next one, so ragged lengths leave lanes
    /// idle only at the tail.
    pub(crate) fn ofb_xor_train(&self, seqs: &[u64], segments: &mut [&mut [u8]]) {
        let mut queue = seqs
            .iter()
            .zip(segments.iter_mut())
            .filter(|(_, data)| !data.is_empty());
        let mut states = [(0, 0); TRAIN_LANES];
        // Each lane's segment blocks still to XOR (the last may be short).
        let mut lanes: [Option<std::slice::ChunksMut<u8>>; TRAIN_LANES] = Default::default();
        loop {
            for (state, lane) in states.iter_mut().zip(&mut lanes) {
                if lane.is_none() {
                    if let Some((&seq, data)) = queue.next() {
                        // The segment's IV, as one chain would start it.
                        *state = self.ede(ip(seq));
                        *lane = Some(data.chunks_mut(8));
                    }
                }
            }
            if lanes.iter().all(Option::is_none) {
                return;
            }
            self.ede_lanes(&mut states);
            for (state, lane) in states.iter().zip(&mut lanes) {
                let Some(blocks) = lane else {
                    continue;
                };
                if let Some(block) = blocks.next() {
                    for (d, k) in block.iter_mut().zip(fp(*state).to_be_bytes()) {
                        *d ^= k;
                    }
                }
                if blocks.len() == 0 {
                    *lane = None;
                }
            }
        }
    }
}

impl BlockCipher for TripleDesFast {
    fn block_size(&self) -> usize {
        8
    }
    fn encrypt_block(&self, block: &mut [u8]) {
        assert_eq!(block.len(), 8, "3DES block must be 8 bytes");
        let b = u64::from_be_bytes(block.try_into().unwrap());
        block.copy_from_slice(&fp(self.ede(ip(b))).to_be_bytes());
    }
    fn decrypt_block(&self, block: &mut [u8]) {
        assert_eq!(block.len(), 8, "3DES block must be 8 bytes");
        let b = u64::from_be_bytes(block.try_into().unwrap());
        // EDE decryption: the same 48 keys, backwards.
        let passes = self.keys.iter().rev();
        let lr = passes.fold(ip(b), |lr, pass| des_pass(lr, pass.iter().rev()));
        block.copy_from_slice(&fp(lr).to_be_bytes());
    }
}

impl std::fmt::Debug for TripleDesFast {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TripleDesFast(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::{Des, TripleDes};

    /// A 3DES key with k1 = k2 = k3 = `k8`: EDE then degenerates to single
    /// DES, so the single-DES known answers pin the fast core.
    fn tripled(k8: [u8; 8]) -> [u8; 24] {
        let mut k24 = [0u8; 24];
        for k in k24.chunks_exact_mut(8) {
            k.copy_from_slice(&k8);
        }
        k24
    }

    #[test]
    fn classic_des_vector() {
        // Same canonical vector the reference pins.
        let des = TripleDesFast::new(&tripled(0x1334_5779_9BBC_DFF1u64.to_be_bytes()));
        let mut block = 0x0123_4567_89AB_CDEFu64.to_be_bytes();
        des.encrypt_block(&mut block);
        assert_eq!(u64::from_be_bytes(block), 0x85E8_1354_0F0A_B405);
        des.decrypt_block(&mut block);
        assert_eq!(u64::from_be_bytes(block), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn nist_des_all_zero_vector() {
        let des = TripleDesFast::new(&tripled(0x0101_0101_0101_0101u64.to_be_bytes()));
        let mut block = [0u8; 8];
        des.encrypt_block(&mut block);
        assert_eq!(u64::from_be_bytes(block), 0x8CA6_4DE9_C1B1_23A7);
    }

    #[test]
    fn sp800_67_three_key_vector() {
        // NIST SP 800-67 worked example: three distinct keys, three blocks.
        let mut key = [0u8; 24];
        for (k, word) in key.chunks_exact_mut(8).zip([
            0x0123_4567_89AB_CDEFu64,
            0x2345_6789_ABCD_EF01,
            0x4567_89AB_CDEF_0123,
        ]) {
            k.copy_from_slice(&word.to_be_bytes());
        }
        let plaintext = *b"The qufck brown fox jump";
        let ciphertext = [
            0xA826_FD8C_E53B_855Fu64,
            0xCCE2_1C81_1225_6FE6,
            0x68D5_C05D_D9B6_B900,
        ];
        let fast = TripleDesFast::new(&key);
        let reference = TripleDes::new(&key);
        for cipher in [&fast as &dyn BlockCipher, &reference as &dyn BlockCipher] {
            for (pt, &ct) in plaintext.chunks_exact(8).zip(&ciphertext) {
                let mut block: [u8; 8] = pt.try_into().unwrap();
                cipher.encrypt_block(&mut block);
                assert_eq!(u64::from_be_bytes(block), ct);
                cipher.decrypt_block(&mut block);
                assert_eq!(block, pt);
            }
        }
    }

    #[test]
    fn ip_byte_tables_match_bit_permutation() {
        for x in [
            0u64,
            1,
            u64::MAX,
            0x0123_4567_89AB_CDEF,
            0xF0F0_F0F0_0F0F_0F0F,
            0x8000_0000_0000_0001,
        ] {
            let via_tables = permute_by_bytes(x, &IP_TAB);
            let via_bits = ct_permute64(x, &IP);
            assert_eq!(via_tables, via_bits, "x={x:#018x}");
            // And FP really inverts IP.
            assert_eq!(permute_by_bytes(via_tables, &FP_TAB), x);
        }
    }

    #[test]
    fn matches_reference_on_structured_blocks() {
        let mut k8 = [0u8; 8];
        let mut k24 = [0u8; 24];
        for seed in 0..32u8 {
            for (i, b) in k8.iter_mut().enumerate() {
                *b = seed.wrapping_mul(41).wrapping_add(i as u8 * 17);
            }
            for (i, b) in k24.iter_mut().enumerate() {
                *b = seed.wrapping_mul(23).wrapping_add(i as u8 * 5);
            }
            let fast = TripleDesFast::new(&tripled(k8));
            let reference = Des::new(&k8);
            let fast3 = TripleDesFast::new(&k24);
            let reference3 = TripleDes::new(&k24);
            let mut block = [0u8; 8];
            for (i, b) in block.iter_mut().enumerate() {
                *b = seed.wrapping_mul(97).wrapping_add(i as u8 * 19);
            }
            for (f, r) in [
                (&fast as &dyn BlockCipher, &reference as &dyn BlockCipher),
                (&fast3 as &dyn BlockCipher, &reference3 as &dyn BlockCipher),
            ] {
                let mut a = block;
                let mut b = block;
                f.encrypt_block(&mut a);
                r.encrypt_block(&mut b);
                assert_eq!(a, b, "encrypt diverged at seed {seed}");
                f.decrypt_block(&mut a);
                r.decrypt_block(&mut b);
                assert_eq!(a, b, "decrypt diverged at seed {seed}");
                assert_eq!(a, block, "roundtrip failed at seed {seed}");
            }
        }
    }

    #[test]
    fn triple_des_with_equal_keys_degenerates_to_des() {
        let k8 = 0x1334_5779_9BBC_DFF1u64.to_be_bytes();
        let tdes = TripleDesFast::new(&tripled(k8));
        let des = Des::new(&k8);
        let mut b1 = 0x0123_4567_89AB_CDEFu64.to_be_bytes();
        let mut b2 = b1;
        tdes.encrypt_block(&mut b1);
        des.encrypt_block(&mut b2);
        assert_eq!(b1, b2);
    }
}
