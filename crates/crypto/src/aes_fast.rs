//! Table-driven AES — the fast backend behind [`crate::CipherBackend::Fast`]
//! for single segments and the remainder of a train past its full
//! 64-segment groups, which go to [`crate::aes_bitsliced`].
//!
//! The byte-oriented reference in [`crate::aes`] recomputes SubBytes,
//! ShiftRows and MixColumns field arithmetic for every byte of every round.
//! This implementation uses the classic T-table formulation instead: the
//! composition SubBytes∘MixColumns collapses into four 256-entry u32 lookup
//! tables (`TE0..TE3`, rotations of one another), so a full round is 16
//! table loads, 16 XORs and 4 round-key XORs. Decryption uses the
//! *equivalent inverse cipher* of FIPS-197 §5.3.5: the decryption round keys
//! are pushed through InvMixColumns once at key-schedule time, which lets
//! the inverse rounds use the same table shape (`TD0..TD3`).
//!
//! All tables are generated from the reference S-box by `const` evaluation —
//! nothing is hand-transcribed, so the only trusted inputs are the same
//! [`SBOX`]/[`INV_SBOX`] the reference implementation is validated against.
//! Bit-exact equivalence with the reference is pinned by the differential
//! tests at the bottom of this file and in `tests/` (FIPS-197 vectors plus
//! random blocks).
//!
//! **Why each round ends in `black_box`.** The workspace builds with
//! `target-cpu=native` so that the bitsliced backend vectorises. On an
//! AVX-512 x86-64 host LLVM's SLP vectoriser then also reads the four
//! columns of a round as four isomorphic lanes and turns their 16 table
//! loads into four `vpgatherdd`, which ran well below the scalar speed:
//! per 1452-byte OFB segment on a 2-vCPU x86-64 VM, fast AES-256 read
//! ≈ 95–112 MB/s built native against ≈ 115–170 MB/s built for baseline
//! x86-64. Passing one of the four new state words through [`black_box`]
//! makes the columns differ, at the cost of one store and reload per
//! round, so the round stays scalar in every build. `objdump -d` then
//! finds no `vpgather` in `AesFast::{encrypt,decrypt}_block` (eight each
//! before), and the native build reads fast AES-256 at ≈ 120–190 MB/s and
//! AES-128 at ≈ 160–250 MB/s (≈ 130–150 before), level with the baseline
//! build. `black_box` only hides a value from the optimiser, so the
//! ciphertext is unchanged; the `cipher_backends` ratio gate (fast AES-256
//! ≥ 3.3× reference) fires if the gathers come back.

use std::hint::black_box;

use crate::aes::{INV_SBOX, RCON, SBOX};
use crate::BlockCipher;

/// GF(2⁸) xtime, `const` so tables can be built at compile time.
const fn ct_xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// GF(2⁸) multiplication, `const` variant of the reference `gmul`.
const fn ct_gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = ct_xtime(a);
        b >>= 1;
        i += 1;
    }
    p
}

/// `TE0[x] = MixColumns column for S(x) in row 0` = `[2s, s, s, 3s]` packed
/// big-endian; `TE1..TE3` are byte rotations of `TE0`.
const TE0: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        t[x] = ((ct_xtime(s) as u32) << 24)
            | ((s as u32) << 16)
            | ((s as u32) << 8)
            | ((ct_xtime(s) ^ s) as u32);
        x += 1;
    }
    t
};
const TE1: [u32; 256] = rotate_table(&TE0, 8);
const TE2: [u32; 256] = rotate_table(&TE0, 16);
const TE3: [u32; 256] = rotate_table(&TE0, 24);

/// `TD0[x] = InvMixColumns column for IS(x)` = `[14s, 9s, 13s, 11s]` packed
/// big-endian; `TD1..TD3` are byte rotations of `TD0`.
const TD0: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut x = 0;
    while x < 256 {
        let s = INV_SBOX[x];
        t[x] = ((ct_gmul(s, 0x0e) as u32) << 24)
            | ((ct_gmul(s, 0x09) as u32) << 16)
            | ((ct_gmul(s, 0x0d) as u32) << 8)
            | (ct_gmul(s, 0x0b) as u32);
        x += 1;
    }
    t
};
const TD1: [u32; 256] = rotate_table(&TD0, 8);
const TD2: [u32; 256] = rotate_table(&TD0, 16);
const TD3: [u32; 256] = rotate_table(&TD0, 24);

const fn rotate_table(src: &[u32; 256], bits: u32) -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut x = 0;
    while x < 256 {
        t[x] = src[x].rotate_right(bits);
        x += 1;
    }
    t
}

/// InvMixColumns on one round-key word (used to build the equivalent
/// inverse cipher's decryption schedule).
#[inline]
fn inv_mix_word(w: u32) -> u32 {
    let [a0, a1, a2, a3] = w.to_be_bytes();
    u32::from_be_bytes([
        ct_gmul(a0, 0x0e) ^ ct_gmul(a1, 0x0b) ^ ct_gmul(a2, 0x0d) ^ ct_gmul(a3, 0x09),
        ct_gmul(a0, 0x09) ^ ct_gmul(a1, 0x0e) ^ ct_gmul(a2, 0x0b) ^ ct_gmul(a3, 0x0d),
        ct_gmul(a0, 0x0d) ^ ct_gmul(a1, 0x09) ^ ct_gmul(a2, 0x0e) ^ ct_gmul(a3, 0x0b),
        ct_gmul(a0, 0x0b) ^ ct_gmul(a1, 0x0d) ^ ct_gmul(a2, 0x09) ^ ct_gmul(a3, 0x0e),
    ])
}

/// Maximum schedule length: 4·(14+1) words for AES-256.
const MAX_WORDS: usize = 60;

/// Table-driven AES context for 128- or 256-bit keys.
///
/// The round keys are expanded **once** at construction (word-oriented,
/// FIPS-197 §5.2) and stored both in encryption order (`ek`) and, pushed
/// through InvMixColumns, in the equivalent-inverse-cipher order (`dk`).
#[derive(Clone)]
pub struct AesFast {
    nr: usize,
    ek: [u32; MAX_WORDS],
    dk: [u32; MAX_WORDS],
}

impl AesFast {
    /// Expand `key` (16 or 32 bytes) into both round-key schedules.
    ///
    /// # Panics
    /// If `key.len()` is neither 16 nor 32.
    pub fn new(key: &[u8]) -> Self {
        let nk = match key.len() {
            16 => 4,
            32 => 8,
            n => panic!("AES key must be 16 or 32 bytes, got {n}"),
        };
        let nr = nk + 6;
        let words = 4 * (nr + 1);
        let mut ek = [0u32; MAX_WORDS];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            ek[i] = u32::from_be_bytes(chunk.try_into().unwrap());
        }
        for i in nk..words {
            let mut temp = ek[i - 1];
            if i % nk == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ ((RCON[i / nk] as u32) << 24);
            } else if nk > 6 && i % nk == 4 {
                temp = sub_word(temp);
            }
            ek[i] = ek[i - nk] ^ temp;
        }
        // Equivalent inverse cipher: reverse the per-round order and apply
        // InvMixColumns to every round key except the first and last.
        let mut dk = [0u32; MAX_WORDS];
        for round in 0..=nr {
            for j in 0..4 {
                let w = ek[4 * (nr - round) + j];
                dk[4 * round + j] = if round == 0 || round == nr {
                    w
                } else {
                    inv_mix_word(w)
                };
            }
        }
        AesFast { nr, ek, dk }
    }

    /// Number of rounds (10 or 14).
    pub fn rounds(&self) -> usize {
        self.nr
    }

    #[inline]
    fn encrypt16(&self, block: &mut [u8]) {
        let ek = &self.ek;
        let mut s0 = u32::from_be_bytes(block[0..4].try_into().unwrap()) ^ ek[0];
        let mut s1 = u32::from_be_bytes(block[4..8].try_into().unwrap()) ^ ek[1];
        let mut s2 = u32::from_be_bytes(block[8..12].try_into().unwrap()) ^ ek[2];
        let mut s3 = u32::from_be_bytes(block[12..16].try_into().unwrap()) ^ ek[3];
        for rk in ek[4..4 * self.nr].chunks_exact(4) {
            // ShiftRows is folded into the column indices: column j pulls
            // row r from column j+r (mod 4).
            let t0 = TE0[(s0 >> 24) as usize]
                ^ TE1[((s1 >> 16) & 0xff) as usize]
                ^ TE2[((s2 >> 8) & 0xff) as usize]
                ^ TE3[(s3 & 0xff) as usize]
                ^ rk[0];
            let t1 = TE0[(s1 >> 24) as usize]
                ^ TE1[((s2 >> 16) & 0xff) as usize]
                ^ TE2[((s3 >> 8) & 0xff) as usize]
                ^ TE3[(s0 & 0xff) as usize]
                ^ rk[1];
            let t2 = TE0[(s2 >> 24) as usize]
                ^ TE1[((s3 >> 16) & 0xff) as usize]
                ^ TE2[((s0 >> 8) & 0xff) as usize]
                ^ TE3[(s1 & 0xff) as usize]
                ^ rk[2];
            let t3 = TE0[(s3 >> 24) as usize]
                ^ TE1[((s0 >> 16) & 0xff) as usize]
                ^ TE2[((s1 >> 8) & 0xff) as usize]
                ^ TE3[(s2 & 0xff) as usize]
                ^ rk[3];
            // Vectoriser barrier (see the module doc): with one column
            // opaque, the four are no longer isomorphic and LLVM keeps 16
            // scalar table loads instead of packing them into gathers.
            (s0, s1, s2, s3) = (black_box(t0), t1, t2, t3);
        }
        // Final round: SubBytes + ShiftRows only, straight from the S-box.
        let rk = &ek[4 * self.nr..4 * self.nr + 4];
        let f = |a: u32, b: u32, c: u32, d: u32, k: u32| {
            ((u32::from(SBOX[(a >> 24) as usize]) << 24)
                | (u32::from(SBOX[((b >> 16) & 0xff) as usize]) << 16)
                | (u32::from(SBOX[((c >> 8) & 0xff) as usize]) << 8)
                | u32::from(SBOX[(d & 0xff) as usize]))
                ^ k
        };
        let t0 = f(s0, s1, s2, s3, rk[0]);
        let t1 = f(s1, s2, s3, s0, rk[1]);
        let t2 = f(s2, s3, s0, s1, rk[2]);
        let t3 = f(s3, s0, s1, s2, rk[3]);
        block[0..4].copy_from_slice(&t0.to_be_bytes());
        block[4..8].copy_from_slice(&t1.to_be_bytes());
        block[8..12].copy_from_slice(&t2.to_be_bytes());
        block[12..16].copy_from_slice(&t3.to_be_bytes());
    }

    #[inline]
    fn decrypt16(&self, block: &mut [u8]) {
        let dk = &self.dk;
        let mut s0 = u32::from_be_bytes(block[0..4].try_into().unwrap()) ^ dk[0];
        let mut s1 = u32::from_be_bytes(block[4..8].try_into().unwrap()) ^ dk[1];
        let mut s2 = u32::from_be_bytes(block[8..12].try_into().unwrap()) ^ dk[2];
        let mut s3 = u32::from_be_bytes(block[12..16].try_into().unwrap()) ^ dk[3];
        for rk in dk[4..4 * self.nr].chunks_exact(4) {
            // InvShiftRows shifts right: column j pulls row r from column
            // j−r (mod 4).
            let t0 = TD0[(s0 >> 24) as usize]
                ^ TD1[((s3 >> 16) & 0xff) as usize]
                ^ TD2[((s2 >> 8) & 0xff) as usize]
                ^ TD3[(s1 & 0xff) as usize]
                ^ rk[0];
            let t1 = TD0[(s1 >> 24) as usize]
                ^ TD1[((s0 >> 16) & 0xff) as usize]
                ^ TD2[((s3 >> 8) & 0xff) as usize]
                ^ TD3[(s2 & 0xff) as usize]
                ^ rk[1];
            let t2 = TD0[(s2 >> 24) as usize]
                ^ TD1[((s1 >> 16) & 0xff) as usize]
                ^ TD2[((s0 >> 8) & 0xff) as usize]
                ^ TD3[(s3 & 0xff) as usize]
                ^ rk[2];
            let t3 = TD0[(s3 >> 24) as usize]
                ^ TD1[((s2 >> 16) & 0xff) as usize]
                ^ TD2[((s1 >> 8) & 0xff) as usize]
                ^ TD3[(s0 & 0xff) as usize]
                ^ rk[3];
            // Same vectoriser barrier as `encrypt16`.
            (s0, s1, s2, s3) = (black_box(t0), t1, t2, t3);
        }
        let rk = &dk[4 * self.nr..4 * self.nr + 4];
        let f = |a: u32, b: u32, c: u32, d: u32, k: u32| {
            ((u32::from(INV_SBOX[(a >> 24) as usize]) << 24)
                | (u32::from(INV_SBOX[((b >> 16) & 0xff) as usize]) << 16)
                | (u32::from(INV_SBOX[((c >> 8) & 0xff) as usize]) << 8)
                | u32::from(INV_SBOX[(d & 0xff) as usize]))
                ^ k
        };
        let t0 = f(s0, s3, s2, s1, rk[0]);
        let t1 = f(s1, s0, s3, s2, rk[1]);
        let t2 = f(s2, s1, s0, s3, rk[2]);
        let t3 = f(s3, s2, s1, s0, rk[3]);
        block[0..4].copy_from_slice(&t0.to_be_bytes());
        block[4..8].copy_from_slice(&t1.to_be_bytes());
        block[8..12].copy_from_slice(&t2.to_be_bytes());
        block[12..16].copy_from_slice(&t3.to_be_bytes());
    }
}

#[inline]
fn sub_word(w: u32) -> u32 {
    let [a, b, c, d] = w.to_be_bytes();
    u32::from_be_bytes([
        SBOX[a as usize],
        SBOX[b as usize],
        SBOX[c as usize],
        SBOX[d as usize],
    ])
}

impl BlockCipher for AesFast {
    fn block_size(&self) -> usize {
        16
    }
    fn encrypt_block(&self, block: &mut [u8]) {
        assert_eq!(block.len(), 16, "AES block must be 16 bytes");
        self.encrypt16(block);
    }
    fn decrypt_block(&self, block: &mut [u8]) {
        assert_eq!(block.len(), 16, "AES block must be 16 bytes");
        self.decrypt16(block);
    }
}

impl std::fmt::Debug for AesFast {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AesFast(nr={}, ..)", self.nr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::{Aes128, Aes256};

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn te_tables_are_rotations() {
        for x in 0..256usize {
            assert_eq!(TE1[x], TE0[x].rotate_right(8));
            assert_eq!(TE2[x], TE0[x].rotate_right(16));
            assert_eq!(TE3[x], TE0[x].rotate_right(24));
            assert_eq!(TD1[x], TD0[x].rotate_right(8));
        }
    }

    #[test]
    fn fips197_aes128_vector() {
        // FIPS-197 Appendix C.1 — the same vector the reference pins.
        let key = hex("000102030405060708090a0b0c0d0e0f");
        let cipher = AesFast::new(&key);
        assert_eq!(cipher.rounds(), 10);
        let mut block = hex("00112233445566778899aabbccddeeff");
        cipher.encrypt_block(&mut block);
        assert_eq!(block, hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
        cipher.decrypt_block(&mut block);
        assert_eq!(block, hex("00112233445566778899aabbccddeeff"));
    }

    #[test]
    fn fips197_aes256_vector() {
        // FIPS-197 Appendix C.3.
        let key = hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
        let cipher = AesFast::new(&key);
        assert_eq!(cipher.rounds(), 14);
        let mut block = hex("00112233445566778899aabbccddeeff");
        cipher.encrypt_block(&mut block);
        assert_eq!(block, hex("8ea2b7ca516745bfeafc49904b496089"));
        cipher.decrypt_block(&mut block);
        assert_eq!(block, hex("00112233445566778899aabbccddeeff"));
    }

    #[test]
    fn matches_reference_on_structured_blocks() {
        // Every (key pattern, block pattern) pair must agree with the
        // byte-oriented reference in both directions.
        let mut k128 = [0u8; 16];
        let mut k256 = [0u8; 32];
        for seed in 0..32u8 {
            for (i, b) in k128.iter_mut().enumerate() {
                *b = seed.wrapping_mul(37).wrapping_add(i as u8 * 11);
            }
            for (i, b) in k256.iter_mut().enumerate() {
                *b = seed.wrapping_mul(29).wrapping_add(i as u8 * 7);
            }
            let fast128 = AesFast::new(&k128);
            let ref128 = Aes128::new(&k128);
            let fast256 = AesFast::new(&k256);
            let ref256 = Aes256::new(&k256);
            let mut block = [0u8; 16];
            for (i, b) in block.iter_mut().enumerate() {
                *b = seed.wrapping_mul(101).wrapping_add(i as u8 * 13);
            }
            for (fast, reference) in [
                (&fast128, &ref128 as &dyn BlockCipher),
                (&fast256, &ref256 as &dyn BlockCipher),
            ] {
                let mut a = block;
                let mut b = block;
                fast.encrypt_block(&mut a);
                reference.encrypt_block(&mut b);
                assert_eq!(a, b, "encrypt diverged at seed {seed}");
                fast.decrypt_block(&mut a);
                reference.decrypt_block(&mut b);
                assert_eq!(a, b, "decrypt diverged at seed {seed}");
                assert_eq!(a, block, "roundtrip failed at seed {seed}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "AES key must be 16 or 32 bytes")]
    fn bad_key_length_panics() {
        let _ = AesFast::new(&[0u8; 24]);
    }
}
