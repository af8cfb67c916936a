//! Bitsliced Triple DES — constant-time by construction, 64 blocks per
//! call (Biham, "A fast new DES implementation in software", FSE 1997).
//!
//! The [`CipherBackend::Bitsliced`](crate::CipherBackend) core for 3DES,
//! and the core [`CipherBackend::Fast`](crate::CipherBackend) 3DES hands
//! each full [`LANES`]-segment group of a train to. Like
//! [`aes_bitsliced`](crate::aes_bitsliced), it evaluates the cipher as a
//! boolean circuit over `u64` planes: **no table lookup, no branch and no
//! memory address depends on key or block bits**, and each logic
//! instruction advances 64 independent blocks.
//!
//! ## Representation
//!
//! A DES block is 64 bit-planes; plane `i` holds bit `i + 1` (the
//! standard's MSB-first numbering) of every lane's block. The cipher runs
//! in DES's permuted domain, on the (L, R) halves between IP and IP⁻¹, as
//! [`des_fast`](crate::des_fast) does. In this layout every bit
//! permutation is free:
//!
//! * **IP and IP⁻¹** are folded into which plane a transposed word bit
//!   lands in (`load`, `store`).
//! * **E** picks the six R planes each S-box reads; **P** picks the L
//!   plane each S-box output is XORed into. Both are constant indices.
//! * **PC-1 and PC-2** run once, in the scalar key schedule; each of the
//!   48 round keys' 48 bits is then broadcast into an all-ones or
//!   all-zeros mask, so the key XOR is one plane XOR per S-box input.
//!
//! ## The S-box circuits
//!
//! Each S-box is a straight-line AND/OR/XOR/AND-NOT/NOT circuit of 56–63
//! gates (60 on average; Kwan's hand-tuned set averages ≈56, Biham's
//! original ≈100). Input `x0` is the 6-bit chunk's first (most
//! significant) bit and output 0 the S-box value's most significant bit.
//! The circuits were generated by a Kwan-style search: an output is taken
//! from the gates already built if one matches it on the inputs that still
//! matter, or from one new gate over two of them, and is otherwise split
//! on an input bit into two half-size problems whose other halves are
//! don't-cares. The four outputs share one gate pool; the smallest pool
//! over every output order, with a three-level look-ahead on the split
//! bit, is kept. `tests::sbox_circuits_match_tables` replays each
//! circuit against the `des::SBOXES` tables over all 64 inputs on every
//! test run.
//!
//! ## Batched OFB
//!
//! [`TripleDesBitsliced::ofb_xor_train`] runs up to 64 segments' OFB
//! chains in lock-step. Each keystream block is the next block's input,
//! so the feedback never leaves the bitsliced permuted domain: the chain
//! is loaded once (the segment numbers, through IP), and only the
//! keystream copy that leaves the core is transposed back through IP⁻¹.

use crate::aes_bitsliced::transpose64;
use crate::des::{DesKeySchedule, IP, P};

/// Independent OFB chains (blocks) the core advances per call.
pub const LANES: usize = 64;

/// 32 bit-planes: one half of the permuted-domain block for every lane.
type Half = [u64; 32];

/// One round key: bit `i + 1` of the 48-bit subkey as an all-ones or
/// all-zeros mask.
type RoundKey = [u64; 48];

/// E: the R plane (0-based) behind each of the 48 S-box inputs.
const E_PLANE: [usize; 48] = [
    31, 0, 1, 2, 3, 4, 3, 4, 5, 6, 7, 8, 7, 8, 9, 10, 11, 12, 11, 12, 13, 14, 15, 16, 15, 16, 17,
    18, 19, 20, 19, 20, 21, 22, 23, 24, 23, 24, 25, 26, 27, 28, 27, 28, 29, 30, 31, 0,
];

/// P⁻¹: the L plane each of the 32 S-box outputs (S-box `s`, output bit
/// `j`, MSB first, at `4s + j`) is XORed into.
const P_PLANE: [usize; 32] = {
    let mut planes = [0usize; 32];
    let mut i = 0;
    while i < 32 {
        planes[P[i] as usize - 1] = i;
        i += 1;
    }
    planes
};

/// Bitsliced Triple DES, EDE3: `C = E_{k3}(D_{k2}(E_{k1}(P)))`, over
/// [`LANES`] blocks at a time.
#[derive(Clone)]
pub struct TripleDesBitsliced {
    /// The 48 broadcast round keys of the cascade in E-D-E order (k1
    /// forward, k2 reversed, k3 forward), one row per pass.
    keys: Box<[[RoundKey; 16]; 3]>,
}

impl TripleDesBitsliced {
    /// Build a 3DES context from a 24-byte key (three 8-byte DES keys).
    pub fn new(key: &[u8; 24]) -> Self {
        let mut keys = Box::new([[[0u64; 48]; 16]; 3]);
        for (pass, row) in keys.iter_mut().enumerate() {
            let mut k8 = [0u8; 8];
            k8.copy_from_slice(&key[8 * pass..8 * pass + 8]);
            let schedule = DesKeySchedule::new(u64::from_be_bytes(k8));
            for (i, masks) in row.iter_mut().enumerate() {
                // The middle pass decrypts: its schedule runs reversed.
                let subkey = schedule.round_keys[if pass == 1 { 15 - i } else { i }];
                for (b, mask) in masks.iter_mut().enumerate() {
                    // 0 - bit: all ones for a set bit, zero otherwise.
                    *mask = 0u64.wrapping_sub((subkey >> (47 - b)) & 1);
                }
            }
        }
        TripleDesBitsliced { keys }
    }

    /// XOR each segment with its OFB keystream in place: segment `k` as
    /// [`SegmentCipher::encrypt_segment`](crate::SegmentCipher::encrypt_segment)
    /// keys it for `seqs[k]`, whose IV is the encryption of the
    /// big-endian segment number. Up to [`LANES`] chains run in lock-step,
    /// each batch for as many blocks as its longest segment; lengths are
    /// arbitrary, empty segments and short final blocks included.
    ///
    /// # Panics
    /// If `seqs.len() != segments.len()`.
    pub fn ofb_xor_train(&self, seqs: &[u64], segments: &mut [&mut [u8]]) {
        assert_eq!(
            seqs.len(),
            segments.len(),
            "one sequence number per segment required"
        );
        for (seqs, segments) in seqs.chunks(LANES).zip(segments.chunks_mut(LANES)) {
            self.ofb_xor_batch(seqs, segments);
        }
    }

    /// One batch of at most [`LANES`] segments.
    fn ofb_xor_batch(&self, seqs: &[u64], segments: &mut [&mut [u8]]) {
        let mut words = [0u64; LANES];
        words[..seqs.len()].copy_from_slice(seqs);
        let (mut l, mut r) = load(&words);
        // The IV, then one keystream block per step.
        self.ede(&mut l, &mut r);
        let blocks = segments.iter().map(|s| s.len().div_ceil(8)).max();
        for b in 0..blocks.unwrap_or(0) {
            self.ede(&mut l, &mut r);
            store(&l, &r, &mut words);
            for (segment, word) in segments.iter_mut().zip(words) {
                if let Some(block) = segment.chunks_mut(8).nth(b) {
                    for (d, k) in block.iter_mut().zip(word.to_be_bytes()) {
                        *d ^= k;
                    }
                }
            }
        }
    }

    /// EDE encryption of every lane, in the permuted domain.
    #[inline(always)]
    fn ede(&self, l: &mut Half, r: &mut Half) {
        // Each pass leaves its halves swapped, which is the next pass's
        // input order: L, R alternate between the two arrays.
        des_pass(l, r, &self.keys[0]);
        des_pass(r, l, &self.keys[1]);
        des_pass(l, r, &self.keys[2]);
        std::mem::swap(l, r);
    }
}

impl std::fmt::Debug for TripleDesBitsliced {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("TripleDesBitsliced(..)")
    }
}

/// Sixteen rounds in place, two at a time: after them `l` holds L₁₆ and
/// `r` holds R₁₆, so the pass's output (R₁₆, L₁₆) is `(r, l)`.
#[inline(always)]
fn des_pass(l: &mut Half, r: &mut Half, keys: &[RoundKey; 16]) {
    for pair in keys.chunks_exact(2) {
        round(l, r, &pair[0]);
        round(r, l, &pair[1]);
    }
}

/// The six key-XORed E outputs S-box `s` reads.
#[inline(always)]
fn sbox_inputs(r: &Half, k: &RoundKey, s: usize) -> [u64; 6] {
    core::array::from_fn(|j| r[E_PLANE[6 * s + j]] ^ k[6 * s + j])
}

/// XOR S-box `s`'s outputs into the L planes P routes them to.
#[inline(always)]
fn sbox_outputs(l: &mut Half, s: usize, out: [u64; 4]) {
    for (j, o) in out.into_iter().enumerate() {
        l[P_PLANE[4 * s + j]] ^= o;
    }
}

/// One Feistel round: `l ^= P(S(E(r) ^ k))`.
#[inline(always)]
fn round(l: &mut Half, r: &Half, k: &RoundKey) {
    sbox_outputs(l, 0, s1(sbox_inputs(r, k, 0)));
    sbox_outputs(l, 1, s2(sbox_inputs(r, k, 1)));
    sbox_outputs(l, 2, s3(sbox_inputs(r, k, 2)));
    sbox_outputs(l, 3, s4(sbox_inputs(r, k, 3)));
    sbox_outputs(l, 4, s5(sbox_inputs(r, k, 4)));
    sbox_outputs(l, 5, s6(sbox_inputs(r, k, 5)));
    sbox_outputs(l, 6, s7(sbox_inputs(r, k, 6)));
    sbox_outputs(l, 7, s8(sbox_inputs(r, k, 7)));
}

/// 64 big-endian blocks (as `u64`, one per lane) into permuted-domain
/// planes: the transpose (bit `k` of `m[i]` trades places with bit `i` of
/// `m[k]`) puts bit `63 - d` of every block (DES bit `d + 1`) in row
/// `63 - d`, and IP is the choice of row for each plane.
fn load(words: &[u64; LANES]) -> (Half, Half) {
    let mut m = *words;
    transpose64(&mut m);
    let plane = |i: usize| m[64 - IP[i] as usize];
    (
        core::array::from_fn(plane),
        core::array::from_fn(|i| plane(32 + i)),
    )
}

/// Permuted-domain planes back into 64 big-endian blocks: IP⁻¹ as the
/// row each plane fills, then the transpose.
fn store(l: &Half, r: &Half, words: &mut [u64; LANES]) {
    for (i, &plane) in l.iter().chain(r).enumerate() {
        words[64 - IP[i] as usize] = plane;
    }
    transpose64(words);
}

/// S-box 1: 63 gates.
#[inline(always)]
fn s1([x0, x1, x2, x3, x4, x5]: [u64; 6]) -> [u64; 4] {
    let t6 = x1 ^ x2;
    let t7 = x0 ^ x3;
    let t8 = t7 & !x5;
    let t9 = t6 ^ t8;
    let t10 = x5 | t7;
    let t11 = x3 | t8;
    let t12 = t11 & x2;
    let t13 = t10 ^ t12;
    let t14 = t13 & x0;
    let t15 = x3 ^ t14;
    let t16 = t15 & !x4;
    let t17 = t9 ^ t16;
    let t18 = x2 & x0;
    let t19 = t13 ^ t18;
    let t20 = !t17;
    let t21 = t20 & !x4;
    let t22 = t19 ^ t21;
    let t23 = t7 | t17;
    let t24 = t23 & x5;
    let t25 = t22 ^ t24;
    let t26 = t25 & !x1;
    let t27 = t17 ^ t26;
    let t28 = t14 ^ t20;
    let t29 = t23 & x3;
    let t30 = t28 ^ t29;
    let t31 = t6 & !x5;
    let t32 = x0 ^ t31;
    let t33 = t32 & !x4;
    let t34 = t30 ^ t33;
    let t35 = x4 ^ t13;
    let t36 = t27 & !x4;
    let t37 = t36 & !x0;
    let t38 = t35 ^ t37;
    let t39 = x2 & !t37;
    let t40 = t39 & x3;
    let t41 = t38 ^ t40;
    let t42 = t41 & !x1;
    let t43 = t34 ^ t42;
    let t44 = t8 ^ t22;
    let t45 = t7 | t34;
    let t46 = t37 & !x3;
    let t47 = t45 ^ t46;
    let t48 = t47 & !x2;
    let t49 = t44 ^ t48;
    let t50 = x0 | t10;
    let t51 = x3 ^ x5;
    let t52 = t51 & !x4;
    let t53 = t43 ^ t52;
    let t54 = t53 & x2;
    let t55 = t50 ^ t54;
    let t56 = t55 & !x1;
    let t57 = t49 ^ t56;
    let t58 = t48 & x5;
    let t59 = t28 ^ t58;
    let t60 = t27 ^ t49;
    let t61 = t60 & !x3;
    let t62 = t59 ^ t61;
    let t63 = t23 & !t48;
    let t64 = x0 ^ t60;
    let t65 = t64 & x5;
    let t66 = t63 ^ t65;
    let t67 = t66 & !x4;
    let t68 = t62 ^ t67;
    [t68, t57, t27, t43]
}
/// S-box 2: 59 gates.
#[inline(always)]
fn s2([x0, x1, x2, x3, x4, x5]: [u64; 6]) -> [u64; 4] {
    let t6 = x0 ^ x4;
    let t7 = x1 & !x5;
    let t8 = t6 ^ t7;
    let t9 = x1 ^ x5;
    let t10 = t7 & x0;
    let t11 = x5 ^ t10;
    let t12 = t11 & x4;
    let t13 = t9 ^ t12;
    let t14 = t13 & !x2;
    let t15 = t8 ^ t14;
    let t16 = !t7;
    let t17 = x5 & x2;
    let t18 = t11 ^ t17;
    let t19 = t18 & x4;
    let t20 = t16 ^ t19;
    let t21 = t20 & !x3;
    let t22 = t15 ^ t21;
    let t23 = x4 ^ t9;
    let t24 = t16 & !x2;
    let t25 = t23 ^ t24;
    let t26 = x2 ^ t25;
    let t27 = t26 & x1;
    let t28 = t20 ^ t27;
    let t29 = t28 & x0;
    let t30 = t25 ^ t29;
    let t31 = x5 | t6;
    let t32 = t31 & x4;
    let t33 = t32 | x1;
    let t34 = t33 & x3;
    let t35 = t30 ^ t34;
    let t36 = x1 ^ t35;
    let t37 = t36 & x0;
    let t38 = t26 ^ t37;
    let t39 = t8 | t37;
    let t40 = t39 ^ t38;
    let t41 = t40 & x2;
    let t42 = t39 ^ t41;
    let t43 = x1 | t30;
    let t44 = t43 & x5;
    let t45 = t15 ^ t44;
    let t46 = t31 & x2;
    let t47 = t25 ^ t46;
    let t48 = t47 & !x0;
    let t49 = t45 ^ t48;
    let t50 = t49 & !x3;
    let t51 = t42 ^ t50;
    let t52 = t7 ^ t28;
    let t53 = t17 ^ t39;
    let t54 = t36 & !x0;
    let t55 = t53 ^ t54;
    let t56 = t55 & !x4;
    let t57 = t52 ^ t56;
    let t58 = t22 | t34;
    let t59 = t35 ^ t48;
    let t60 = t59 & x5;
    let t61 = t60 & x2;
    let t62 = t58 ^ t61;
    let t63 = t62 & !x1;
    let t64 = t57 ^ t63;
    [t35, t22, t51, t64]
}
/// S-box 3: 57 gates.
#[inline(always)]
fn s3([x0, x1, x2, x3, x4, x5]: [u64; 6]) -> [u64; 4] {
    let t6 = x1 ^ x5;
    let t7 = x2 ^ t6;
    let t8 = t7 & x1;
    let t9 = x3 ^ t8;
    let t10 = t9 & x3;
    let t11 = t6 ^ t10;
    let t12 = t9 & !x5;
    let t13 = x2 ^ t12;
    let t14 = t13 & !x4;
    let t15 = t11 ^ t14;
    let t16 = t9 & x1;
    let t17 = x0 ^ t16;
    let t18 = x3 ^ t12;
    let t19 = t18 & x4;
    let t20 = t17 ^ t19;
    let t21 = t20 | x2;
    let t22 = t21 & x0;
    let t23 = t15 ^ t22;
    let t24 = x5 & !t8;
    let t25 = t24 | x3;
    let t26 = t25 & x0;
    let t27 = t7 ^ t26;
    let t28 = x0 ^ t8;
    let t29 = x2 ^ t9;
    let t30 = t29 & !x0;
    let t31 = t28 ^ t30;
    let t32 = t31 & !x4;
    let t33 = t27 ^ t32;
    let t34 = x4 ^ t9;
    let t35 = t6 | t33;
    let t36 = t35 | x3;
    let t37 = t36 & !x0;
    let t38 = t34 ^ t37;
    let t39 = t14 & t30;
    let t40 = !t30;
    let t41 = x0 ^ t32;
    let t42 = t41 & x2;
    let t43 = t40 ^ t42;
    let t44 = t43 & !x5;
    let t45 = t39 ^ t44;
    let t46 = t45 & !x1;
    let t47 = t38 ^ t46;
    let t48 = x1 ^ t23;
    let t49 = t37 & !x1;
    let t50 = t48 ^ t49;
    let t51 = t34 ^ t44;
    let t52 = t51 & !x2;
    let t53 = t50 ^ t52;
    let t54 = t15 | t33;
    let t55 = t54 & !x0;
    let t56 = t33 ^ t47;
    let t57 = x3 & !x2;
    let t58 = t56 ^ t57;
    let t59 = t58 & !x5;
    let t60 = t55 ^ t59;
    let t61 = t60 & x3;
    let t62 = t53 ^ t61;
    [t47, t23, t62, t33]
}
/// S-box 4: 56 gates.
#[inline(always)]
fn s4([x0, x1, x2, x3, x4, x5]: [u64; 6]) -> [u64; 4] {
    let t6 = x0 ^ x4;
    let t7 = x4 & !x2;
    let t8 = t7 & !x0;
    let t9 = t6 ^ t8;
    let t10 = !x2;
    let t11 = t10 & !x1;
    let t12 = t9 ^ t11;
    let t13 = x1 | t8;
    let t14 = x2 & !x4;
    let t15 = t13 ^ t14;
    let t16 = t15 & x5;
    let t17 = t12 ^ t16;
    let t18 = x4 | x5;
    let t19 = x5 & !t14;
    let t20 = t19 & x0;
    let t21 = t18 ^ t20;
    let t22 = t9 | t14;
    let t23 = x2 ^ x4;
    let t24 = t23 & x5;
    let t25 = t22 ^ t24;
    let t26 = t25 & x1;
    let t27 = t21 ^ t26;
    let t28 = t27 & x3;
    let t29 = t17 ^ t28;
    let t30 = t21 ^ t29;
    let t31 = t27 & !x2;
    let t32 = t30 ^ t31;
    let t33 = t25 & !x3;
    let t34 = t33 & !x4;
    let t35 = t32 ^ t34;
    let t36 = t27 ^ t33;
    let t37 = x4 & x2;
    let t38 = t36 ^ t37;
    let t39 = t38 & !x0;
    let t40 = t35 ^ t39;
    let t41 = !t15;
    let t42 = t41 & !x5;
    let t43 = t12 ^ t42;
    let t44 = t12 & !x1;
    let t45 = t38 ^ t44;
    let t46 = t15 & !x0;
    let t47 = t45 ^ t46;
    let t48 = t47 & x3;
    let t49 = t43 ^ t48;
    let t50 = t47 ^ t49;
    let t51 = x3 & !x5;
    let t52 = t25 | t30;
    let t53 = t52 & x0;
    let t54 = t51 ^ t53;
    let t55 = t54 & !x4;
    let t56 = t50 ^ t55;
    let t57 = x5 ^ t47;
    let t58 = t57 & x4;
    let t59 = t54 ^ t58;
    let t60 = t59 & !x2;
    let t61 = t56 ^ t60;
    [t49, t29, t40, t61]
}
/// S-box 5: 62 gates.
#[inline(always)]
fn s5([x0, x1, x2, x3, x4, x5]: [u64; 6]) -> [u64; 4] {
    let t6 = x0 ^ x4;
    let t7 = x2 | t6;
    let t8 = t7 & !x5;
    let t9 = t6 ^ t8;
    let t10 = x5 & !x4;
    let t11 = x4 | t8;
    let t12 = t11 & !x2;
    let t13 = t10 ^ t12;
    let t14 = t13 & x1;
    let t15 = t9 ^ t14;
    let t16 = x2 ^ t11;
    let t17 = t16 | x0;
    let t18 = x1 ^ t10;
    let t19 = x2 ^ t6;
    let t20 = t19 & x0;
    let t21 = t18 ^ t20;
    let t22 = t21 & x1;
    let t23 = t17 ^ t22;
    let t24 = t23 & x3;
    let t25 = t15 ^ t24;
    let t26 = x3 ^ t19;
    let t27 = x3 & !t7;
    let t28 = t27 & x0;
    let t29 = t26 ^ t28;
    let t30 = t7 ^ t21;
    let t31 = t30 | x3;
    let t32 = t31 & x5;
    let t33 = t29 ^ t32;
    let t34 = x2 | x5;
    let t35 = t34 & !x0;
    let t36 = x2 ^ t35;
    let t37 = t36 | x3;
    let t38 = t37 & x1;
    let t39 = t33 ^ t38;
    let t40 = t15 & x2;
    let t41 = t30 ^ t40;
    let t42 = x4 | t25;
    let t43 = t30 & x5;
    let t44 = t42 ^ t43;
    let t45 = t44 & x3;
    let t46 = t41 ^ t45;
    let t47 = t21 & t24;
    let t48 = t42 & x5;
    let t49 = t47 ^ t48;
    let t50 = t43 & !x2;
    let t51 = t49 ^ t50;
    let t52 = t51 & x0;
    let t53 = t46 ^ t52;
    let t54 = t7 ^ t46;
    let t55 = t54 & !x0;
    let t56 = t26 ^ t55;
    let t57 = t30 ^ t45;
    let t58 = t57 & x1;
    let t59 = t56 ^ t58;
    let t60 = x2 & !t45;
    let t61 = t60 | x0;
    let t62 = !t61;
    let t63 = t62 | x3;
    let t64 = t63 & !x1;
    let t65 = t61 ^ t64;
    let t66 = t65 & !x5;
    let t67 = t59 ^ t66;
    [t53, t39, t67, t25]
}
/// S-box 6: 61 gates.
#[inline(always)]
fn s6([x0, x1, x2, x3, x4, x5]: [u64; 6]) -> [u64; 4] {
    let t6 = x0 ^ x3;
    let t7 = x1 & !x2;
    let t8 = t6 ^ t7;
    let t9 = !t6;
    let t10 = t9 | x2;
    let t11 = t10 & !x4;
    let t12 = t8 ^ t11;
    let t13 = x2 ^ t12;
    let t14 = t6 & x1;
    let t15 = t13 ^ t14;
    let t16 = t15 | x4;
    let t17 = t11 & !x3;
    let t18 = t8 & !t13;
    let t19 = t18 & x1;
    let t20 = t17 ^ t19;
    let t21 = t20 & !x0;
    let t22 = t16 ^ t21;
    let t23 = t22 & x5;
    let t24 = t12 ^ t23;
    let t25 = x0 | x2;
    let t26 = t25 & x1;
    let t27 = t9 ^ t26;
    let t28 = t24 & x0;
    let t29 = t15 ^ t28;
    let t30 = t29 & x4;
    let t31 = t27 ^ t30;
    let t32 = x4 ^ t29;
    let t33 = t31 & x1;
    let t34 = t32 ^ t33;
    let t35 = x4 | t21;
    let t36 = t35 & x2;
    let t37 = t34 ^ t36;
    let t38 = t37 & !x5;
    let t39 = t31 ^ t38;
    let t40 = t25 ^ t27;
    let t41 = x0 ^ t10;
    let t42 = t24 & x3;
    let t43 = t41 ^ t42;
    let t44 = t43 & !x4;
    let t45 = t40 ^ t44;
    let t46 = t37 | t40;
    let t47 = x3 & x4;
    let t48 = t10 ^ t47;
    let t49 = t48 & !x0;
    let t50 = t46 ^ t49;
    let t51 = t50 & !x5;
    let t52 = t45 ^ t51;
    let t53 = x1 ^ t22;
    let t54 = t53 & !x3;
    let t55 = t48 ^ t54;
    let t56 = t31 & x3;
    let t57 = t44 ^ t56;
    let t58 = t57 & x0;
    let t59 = t55 ^ t58;
    let t60 = x4 | t37;
    let t61 = t24 & x4;
    let t62 = x0 ^ t61;
    let t63 = t62 & x3;
    let t64 = t60 ^ t63;
    let t65 = t64 & x5;
    let t66 = t59 ^ t65;
    [t24, t66, t39, t52]
}
/// S-box 7: 59 gates.
#[inline(always)]
fn s7([x0, x1, x2, x3, x4, x5]: [u64; 6]) -> [u64; 4] {
    let t6 = x1 ^ x3;
    let t7 = x2 & !x5;
    let t8 = t6 ^ t7;
    let t9 = x3 | x5;
    let t10 = x2 ^ x3;
    let t11 = t10 & !x1;
    let t12 = t9 ^ t11;
    let t13 = t12 & x4;
    let t14 = t8 ^ t13;
    let t15 = x4 | t12;
    let t16 = x1 & !x2;
    let t17 = t15 ^ t16;
    let t18 = t13 | t16;
    let t19 = t18 & x3;
    let t20 = t11 ^ t19;
    let t21 = t20 & !x5;
    let t22 = t17 ^ t21;
    let t23 = t22 & !x0;
    let t24 = t14 ^ t23;
    let t25 = t22 ^ t24;
    let t26 = !t12;
    let t27 = t26 & !x0;
    let t28 = t27 & !x4;
    let t29 = t25 ^ t28;
    let t30 = t23 & !t20;
    let t31 = t24 & !x0;
    let t32 = t10 ^ t31;
    let t33 = t32 & x3;
    let t34 = x0 ^ t33;
    let t35 = t34 & x1;
    let t36 = t30 ^ t35;
    let t37 = t36 & x5;
    let t38 = t29 ^ t37;
    let t39 = t21 & !x4;
    let t40 = t12 ^ t39;
    let t41 = t14 & !t21;
    let t42 = t41 & x3;
    let t43 = t16 ^ t42;
    let t44 = t43 & x1;
    let t45 = t40 ^ t44;
    let t46 = t15 ^ t37;
    let t47 = t12 | t24;
    let t48 = t47 & x5;
    let t49 = t48 & !x1;
    let t50 = t46 ^ t49;
    let t51 = t50 & !x0;
    let t52 = t45 ^ t51;
    let t53 = x0 ^ t18;
    let t54 = x1 ^ t17;
    let t55 = t54 & !x3;
    let t56 = t53 ^ t55;
    let t57 = t6 & !t10;
    let t58 = t57 & x4;
    let t59 = t42 ^ t58;
    let t60 = t38 & !t46;
    let t61 = t60 & x0;
    let t62 = t59 ^ t61;
    let t63 = t62 & x5;
    let t64 = t56 ^ t63;
    [t24, t38, t52, t64]
}
/// S-box 8: 60 gates.
#[inline(always)]
fn s8([x0, x1, x2, x3, x4, x5]: [u64; 6]) -> [u64; 4] {
    let t6 = x4 & !x2;
    let t7 = x5 ^ t6;
    let t8 = x2 & x1;
    let t9 = t7 ^ t8;
    let t10 = !x1;
    let t11 = t10 | x4;
    let t12 = t11 & !x3;
    let t13 = t9 ^ t12;
    let t14 = x4 ^ t10;
    let t15 = x3 ^ t7;
    let t16 = t15 & x5;
    let t17 = t14 ^ t16;
    let t18 = x5 | t12;
    let t19 = t18 | x1;
    let t20 = t19 & x2;
    let t21 = t17 ^ t20;
    let t22 = t13 ^ t21;
    let t23 = t22 & x0;
    let t24 = t13 ^ t23;
    let t25 = x5 ^ t20;
    let t26 = x3 ^ t18;
    let t27 = t26 & x1;
    let t28 = t25 ^ t27;
    let t29 = x1 | t26;
    let t30 = t29 & !x4;
    let t31 = t28 ^ t30;
    let t32 = t15 | t30;
    let t33 = x5 & !x3;
    let t34 = t32 ^ t33;
    let t35 = t11 & !t25;
    let t36 = t35 & x2;
    let t37 = t34 ^ t36;
    let t38 = t37 & x0;
    let t39 = t31 ^ t38;
    let t40 = t21 ^ t37;
    let t41 = t31 & !t34;
    let t42 = t41 & x5;
    let t43 = t40 ^ t42;
    let t44 = x0 ^ t7;
    let t45 = t21 & x1;
    let t46 = t44 ^ t45;
    let t47 = t13 ^ t26;
    let t48 = t47 & !x4;
    let t49 = t46 ^ t48;
    let t50 = t49 & x0;
    let t51 = t43 ^ t50;
    let t52 = t37 ^ t46;
    let t53 = t15 ^ t39;
    let t54 = t53 & !x5;
    let t55 = t22 ^ t54;
    let t56 = t55 & !x1;
    let t57 = t52 ^ t56;
    let t58 = t18 & t46;
    let t59 = t58 & x1;
    let t60 = t17 ^ t59;
    let t61 = t25 ^ t57;
    let t62 = t61 & !x0;
    let t63 = t60 ^ t62;
    let t64 = t63 & !x3;
    let t65 = t57 ^ t64;
    [t39, t24, t51, t65]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::{Des, TripleDes, SBOXES};
    use crate::{BlockCipher, Ofb};

    impl TripleDesBitsliced {
        /// EDE encryption of 64 big-endian blocks, one per lane.
        fn encrypt_blocks(&self, words: &mut [u64; LANES]) {
            let (mut l, mut r) = load(words);
            self.ede(&mut l, &mut r);
            store(&l, &r, words);
        }

        /// One block through lane 0.
        fn encrypt_one(&self, block: u64) -> u64 {
            let mut words = [0u64; LANES];
            words[0] = block;
            self.encrypt_blocks(&mut words);
            words[0]
        }
    }

    /// A 3DES key with k1 = k2 = k3 = `k8`: EDE degenerates to single DES.
    fn tripled(k8: u64) -> [u8; 24] {
        let mut k24 = [0u8; 24];
        for k in k24.chunks_exact_mut(8) {
            k.copy_from_slice(&k8.to_be_bytes());
        }
        k24
    }

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    #[test]
    fn sbox_circuits_match_tables() {
        // Lane c carries the 6-bit input c, so one evaluation per circuit
        // covers the whole table.
        let x: [u64; 6] =
            core::array::from_fn(|k| (0..64).fold(0, |plane, c| plane | ((c >> (5 - k)) & 1) << c));
        let circuits: [fn([u64; 6]) -> [u64; 4]; 8] = [s1, s2, s3, s4, s5, s6, s7, s8];
        for (s, circuit) in circuits.iter().enumerate() {
            let out = circuit(x);
            for c in 0..64usize {
                let row = ((c & 0x20) >> 4) | (c & 1);
                let col = (c >> 1) & 0x0f;
                let expected = SBOXES[s][row * 16 + col];
                let got = (0..4).fold(0u8, |v, j| v << 1 | (out[j] >> c & 1) as u8);
                assert_eq!(got, expected, "S{} wrong at input {c:#04x}", s + 1);
            }
        }
    }

    #[test]
    fn load_store_invert_and_follow_ip() {
        let mut next = xorshift(7);
        let words: [u64; LANES] = core::array::from_fn(|_| next());
        let (l, r) = load(&words);
        let mut back = [0u64; LANES];
        store(&l, &r, &mut back);
        assert_eq!(back, words);
        // Plane i holds IP output bit i + 1 of every lane.
        for (lane, &w) in words.iter().enumerate() {
            for (i, &src) in IP.iter().enumerate() {
                let plane = if i < 32 { l[i] } else { r[i - 32] };
                assert_eq!(plane >> lane & 1, w >> (64 - src as u32) & 1);
            }
        }
    }

    #[test]
    fn fips46_3_des_vectors_via_equal_keys() {
        // The classic worked example and the NBS/NIST all-zero vector.
        let classic = TripleDesBitsliced::new(&tripled(0x1334_5779_9BBC_DFF1));
        assert_eq!(
            classic.encrypt_one(0x0123_4567_89AB_CDEF),
            0x85E8_1354_0F0A_B405
        );
        let zero = TripleDesBitsliced::new(&tripled(0x0101_0101_0101_0101));
        assert_eq!(zero.encrypt_one(0), 0x8CA6_4DE9_C1B1_23A7);
    }

    #[test]
    fn sp800_67_vectors() {
        // Equal keys: 3DES is single DES, checked against the reference.
        let k8 = 0x0123_4567_89AB_CDEFu64;
        let equal = TripleDesBitsliced::new(&tripled(k8));
        let des = Des::new(&k8.to_be_bytes());
        let pt = *b"The qufc";
        let mut expected = pt;
        des.encrypt_block(&mut expected);
        assert_eq!(
            equal.encrypt_one(u64::from_be_bytes(pt)),
            u64::from_be_bytes(expected)
        );
        // The worked example: three distinct keys, three blocks.
        let mut key = [0u8; 24];
        for (k, word) in key.chunks_exact_mut(8).zip([
            0x0123_4567_89AB_CDEFu64,
            0x2345_6789_ABCD_EF01,
            0x4567_89AB_CDEF_0123,
        ]) {
            k.copy_from_slice(&word.to_be_bytes());
        }
        let cipher = TripleDesBitsliced::new(&key);
        let mut words = [0u64; LANES];
        for (w, pt) in words
            .iter_mut()
            .zip(b"The qufck brown fox jump".chunks_exact(8))
        {
            *w = u64::from_be_bytes(pt.try_into().unwrap());
        }
        cipher.encrypt_blocks(&mut words);
        assert_eq!(
            words[..3],
            [
                0xA826_FD8C_E53B_855F,
                0xCCE2_1C81_1225_6FE6,
                0x68D5_C05D_D9B6_B900
            ]
        );
    }

    #[test]
    fn full_batches_match_reference() {
        let mut next = xorshift(99);
        for _ in 0..2 {
            let key: [u8; 24] = core::array::from_fn(|_| next() as u8);
            let reference = TripleDes::new(&key);
            let mut words: [u64; LANES] = core::array::from_fn(|_| next());
            let expected = words.map(|w| {
                let mut block = w.to_be_bytes();
                reference.encrypt_block(&mut block);
                u64::from_be_bytes(block)
            });
            TripleDesBitsliced::new(&key).encrypt_blocks(&mut words);
            assert_eq!(words, expected);
        }
    }

    #[test]
    fn ofb_train_matches_reference_ofb() {
        // More segments than lanes, ragged and empty ones included.
        let mut next = xorshift(5);
        let key: [u8; 24] = core::array::from_fn(|_| next() as u8);
        let cipher = TripleDesBitsliced::new(&key);
        let reference = TripleDes::new(&key);
        let lens: Vec<usize> = (0..70).map(|i| [0, 1, 7, 8, 9, 100][i % 6]).collect();
        let seqs: Vec<u64> = (0..lens.len()).map(|_| next()).collect();
        let originals: Vec<Vec<u8>> = lens
            .iter()
            .map(|&len| (0..len).map(|_| next() as u8).collect())
            .collect();
        let mut train = originals.clone();
        let mut views: Vec<&mut [u8]> = train.iter_mut().map(Vec::as_mut_slice).collect();
        cipher.ofb_xor_train(&seqs, &mut views);
        for ((original, got), &seq) in originals.iter().zip(&train).zip(&seqs) {
            let mut iv = seq.to_be_bytes();
            reference.encrypt_block(&mut iv);
            let mut expected = original.clone();
            Ofb::new(&reference, &iv).apply(&mut expected);
            assert_eq!(got, &expected, "seq {seq:#x}, len {}", original.len());
        }
    }
}
