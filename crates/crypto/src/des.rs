//! DES and Triple-DES (EDE3) block ciphers, ANSI X3.92 / X9.52.
//!
//! Bit-level reference implementation driven by the published permutation
//! tables. Bits are numbered 1..=64 MSB-first as in the standard. 3DES
//! encrypts as `E_{k1}(D_{k2}(E_{k3}⁻¹…))` — precisely
//! `C = E_{k3}(D_{k2}(E_{k1}(P)))` with three independent 8-byte keys.

use crate::BlockCipher;

/// Initial permutation (IP).
pub(crate) const IP: [u8; 64] = [
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4, 62, 54, 46, 38, 30, 22, 14, 6,
    64, 56, 48, 40, 32, 24, 16, 8, 57, 49, 41, 33, 25, 17, 9, 1, 59, 51, 43, 35, 27, 19, 11, 3, 61,
    53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
];

/// Expansion table (E): 32 → 48 bits.
const E: [u8; 48] = [
    32, 1, 2, 3, 4, 5, 4, 5, 6, 7, 8, 9, 8, 9, 10, 11, 12, 13, 12, 13, 14, 15, 16, 17, 16, 17, 18,
    19, 20, 21, 20, 21, 22, 23, 24, 25, 24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1,
];

/// Round permutation (P): 32 → 32 bits.
pub(crate) const P: [u8; 32] = [
    16, 7, 20, 21, 29, 12, 28, 17, 1, 15, 23, 26, 5, 18, 31, 10, 2, 8, 24, 14, 32, 27, 3, 9, 19,
    13, 30, 6, 22, 11, 4, 25,
];

/// Permuted choice 1 (PC-1): 64 → 56 bits, drops parity bits.
const PC1: [u8; 56] = [
    57, 49, 41, 33, 25, 17, 9, 1, 58, 50, 42, 34, 26, 18, 10, 2, 59, 51, 43, 35, 27, 19, 11, 3, 60,
    52, 44, 36, 63, 55, 47, 39, 31, 23, 15, 7, 62, 54, 46, 38, 30, 22, 14, 6, 61, 53, 45, 37, 29,
    21, 13, 5, 28, 20, 12, 4,
];

/// Permuted choice 2 (PC-2): 56 → 48 bits.
const PC2: [u8; 48] = [
    14, 17, 11, 24, 1, 5, 3, 28, 15, 6, 21, 10, 23, 19, 12, 4, 26, 8, 16, 7, 27, 20, 13, 2, 41, 52,
    31, 37, 47, 55, 30, 40, 51, 45, 33, 48, 44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
];

/// Per-round left-rotation amounts for the key schedule.
const SHIFTS: [u8; 16] = [1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1];

/// The eight DES S-boxes, each 4 rows × 16 columns.
pub(crate) const SBOXES: [[u8; 64]; 8] = [
    [
        14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7, 0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12,
        11, 9, 5, 3, 8, 4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0, 15, 12, 8, 2, 4, 9,
        1, 7, 5, 11, 3, 14, 10, 0, 6, 13,
    ],
    [
        15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10, 3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1,
        10, 6, 9, 11, 5, 0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15, 13, 8, 10, 1, 3, 15,
        4, 2, 11, 6, 7, 12, 0, 5, 14, 9,
    ],
    [
        10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8, 13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5,
        14, 12, 11, 15, 1, 13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7, 1, 10, 13, 0, 6,
        9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12,
    ],
    [
        7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15, 13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2,
        12, 1, 10, 14, 9, 10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4, 3, 15, 0, 6, 10, 1,
        13, 8, 9, 4, 5, 11, 12, 7, 2, 14,
    ],
    [
        2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9, 14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15,
        10, 3, 9, 8, 6, 4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14, 11, 8, 12, 7, 1, 14,
        2, 13, 6, 15, 0, 9, 10, 4, 5, 3,
    ],
    [
        12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11, 10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13,
        14, 0, 11, 3, 8, 9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6, 4, 3, 2, 12, 9, 5,
        15, 10, 11, 14, 1, 7, 6, 0, 8, 13,
    ],
    [
        4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1, 13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5,
        12, 2, 15, 8, 6, 1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2, 6, 11, 13, 8, 1, 4,
        10, 7, 9, 5, 0, 15, 14, 2, 3, 12,
    ],
    [
        13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7, 1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6,
        11, 0, 14, 9, 2, 7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8, 2, 1, 14, 7, 4, 10,
        8, 13, 15, 12, 9, 0, 3, 5, 6, 11,
    ],
];

/// Apply a standard DES permutation table: output bit `i` (1-based,
/// MSB-first) is input bit `table[i-1]`.
#[inline]
fn permute(input: u64, in_bits: u32, table: &[u8]) -> u64 {
    let mut out = 0u64;
    for &src in table {
        out <<= 1;
        out |= (input >> (in_bits - src as u32)) & 1;
    }
    out
}

/// The 16 48-bit round keys of a single-DES instance.
#[derive(Clone)]
pub(crate) struct DesKeySchedule {
    pub(crate) round_keys: [u64; 16],
}

impl DesKeySchedule {
    pub(crate) fn new(key: u64) -> Self {
        let permuted = permute(key, 64, &PC1); // 56 bits
        let mut c = (permuted >> 28) as u32 & 0x0fff_ffff;
        let mut d = permuted as u32 & 0x0fff_ffff;
        let mut round_keys = [0u64; 16];
        for (round, &shift) in SHIFTS.iter().enumerate() {
            c = ((c << shift) | (c >> (28 - shift as u32))) & 0x0fff_ffff;
            d = ((d << shift) | (d >> (28 - shift as u32))) & 0x0fff_ffff;
            let cd = ((c as u64) << 28) | d as u64;
            round_keys[round] = permute(cd, 56, &PC2);
        }
        DesKeySchedule { round_keys }
    }
}

/// The DES round function f(R, K).
#[inline]
fn feistel(r: u32, subkey: u64) -> u32 {
    let expanded = permute(r as u64, 32, &E); // 48 bits
    let x = expanded ^ subkey;
    let mut out = 0u32;
    for (i, sbox) in SBOXES.iter().enumerate() {
        let chunk = ((x >> (42 - 6 * i)) & 0x3f) as u8;
        let row = ((chunk & 0x20) >> 4) | (chunk & 1);
        let col = (chunk >> 1) & 0x0f;
        out = (out << 4) | sbox[(row * 16 + col) as usize] as u32;
    }
    permute(out as u64, 32, &P) as u32
}

fn des_crypt(schedule: &DesKeySchedule, block: u64, decrypt: bool) -> u64 {
    let permuted = permute(block, 64, &IP);
    let mut l = (permuted >> 32) as u32;
    let mut r = permuted as u32;
    for round in 0..16 {
        let k = if decrypt {
            schedule.round_keys[15 - round]
        } else {
            schedule.round_keys[round]
        };
        let next_r = l ^ feistel(r, k);
        l = r;
        r = next_r;
    }
    // Final swap then IP⁻¹. We invert IP by applying the inverse mapping.
    let preoutput = ((r as u64) << 32) | l as u64;
    inverse_ip(preoutput)
}

/// Apply IP⁻¹, derived from [`IP`] rather than hand-copied, removing one
/// source of transcription error.
#[inline]
fn inverse_ip(input: u64) -> u64 {
    let mut out = 0u64;
    for (i, &src) in IP.iter().enumerate() {
        // IP maps input bit `src` to output bit `i+1`; invert that.
        let bit = (input >> (63 - i)) & 1;
        out |= bit << (64 - src as u32);
    }
    out
}

/// Single DES with a 64-bit key (56 effective bits).
///
/// Exposed for completeness and testing; the paper's policies use
/// [`TripleDes`].
#[derive(Clone)]
pub struct Des {
    schedule: DesKeySchedule,
}

impl Des {
    /// Build a DES context from an 8-byte key (parity bits ignored).
    pub fn new(key: &[u8; 8]) -> Self {
        Des {
            schedule: DesKeySchedule::new(u64::from_be_bytes(*key)),
        }
    }
}

impl BlockCipher for Des {
    fn block_size(&self) -> usize {
        8
    }
    fn encrypt_block(&self, block: &mut [u8]) {
        assert_eq!(block.len(), 8, "DES block must be 8 bytes");
        let b = u64::from_be_bytes(block.try_into().unwrap());
        block.copy_from_slice(&des_crypt(&self.schedule, b, false).to_be_bytes());
    }
    fn decrypt_block(&self, block: &mut [u8]) {
        assert_eq!(block.len(), 8, "DES block must be 8 bytes");
        let b = u64::from_be_bytes(block.try_into().unwrap());
        block.copy_from_slice(&des_crypt(&self.schedule, b, true).to_be_bytes());
    }
}

/// Triple DES, EDE3: `C = E_{k3}(D_{k2}(E_{k1}(P)))` with a 24-byte key.
#[derive(Clone)]
pub struct TripleDes {
    k1: DesKeySchedule,
    k2: DesKeySchedule,
    k3: DesKeySchedule,
}

impl TripleDes {
    /// Build a 3DES context from a 24-byte key (three 8-byte DES keys).
    pub fn new(key: &[u8; 24]) -> Self {
        let k = |i: usize| {
            DesKeySchedule::new(u64::from_be_bytes(
                key[8 * i..8 * i + 8].try_into().unwrap(),
            ))
        };
        TripleDes {
            k1: k(0),
            k2: k(1),
            k3: k(2),
        }
    }
}

impl BlockCipher for TripleDes {
    fn block_size(&self) -> usize {
        8
    }
    fn encrypt_block(&self, block: &mut [u8]) {
        assert_eq!(block.len(), 8, "3DES block must be 8 bytes");
        let mut b = u64::from_be_bytes(block.try_into().unwrap());
        b = des_crypt(&self.k1, b, false);
        b = des_crypt(&self.k2, b, true);
        b = des_crypt(&self.k3, b, false);
        block.copy_from_slice(&b.to_be_bytes());
    }
    fn decrypt_block(&self, block: &mut [u8]) {
        assert_eq!(block.len(), 8, "3DES block must be 8 bytes");
        let mut b = u64::from_be_bytes(block.try_into().unwrap());
        b = des_crypt(&self.k3, b, true);
        b = des_crypt(&self.k2, b, false);
        b = des_crypt(&self.k1, b, true);
        block.copy_from_slice(&b.to_be_bytes());
    }
}

impl std::fmt::Debug for Des {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Des(..)")
    }
}

impl std::fmt::Debug for TripleDes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TripleDes(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_des_vector() {
        // The canonical worked example (e.g. Stallings): key 133457799BBCDFF1,
        // plaintext 0123456789ABCDEF encrypts to 85E813540F0AB405.
        let key = 0x1334_5779_9BBC_DFF1u64.to_be_bytes();
        let des = Des::new(&key);
        let mut block = 0x0123_4567_89AB_CDEFu64.to_be_bytes();
        des.encrypt_block(&mut block);
        assert_eq!(u64::from_be_bytes(block), 0x85E8_1354_0F0A_B405);
        des.decrypt_block(&mut block);
        assert_eq!(u64::from_be_bytes(block), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn nist_des_all_zero_vector() {
        // NBS/NIST validation: E(key=0101..01, pt=0) = 8CA64DE9C1B123A7.
        let key = 0x0101_0101_0101_0101u64.to_be_bytes();
        let des = Des::new(&key);
        let mut block = [0u8; 8];
        des.encrypt_block(&mut block);
        assert_eq!(u64::from_be_bytes(block), 0x8CA6_4DE9_C1B1_23A7);
    }

    #[test]
    fn triple_des_with_equal_keys_degenerates_to_des() {
        // EDE with k1 = k2 = k3 must equal single DES.
        let k8 = 0x1334_5779_9BBC_DFF1u64.to_be_bytes();
        let mut k24 = [0u8; 24];
        k24[..8].copy_from_slice(&k8);
        k24[8..16].copy_from_slice(&k8);
        k24[16..].copy_from_slice(&k8);
        let tdes = TripleDes::new(&k24);
        let des = Des::new(&k8);
        let mut b1 = 0x0123_4567_89AB_CDEFu64.to_be_bytes();
        let mut b2 = b1;
        tdes.encrypt_block(&mut b1);
        des.encrypt_block(&mut b2);
        assert_eq!(b1, b2);
    }

    #[test]
    fn triple_des_roundtrip_distinct_keys() {
        let mut key = [0u8; 24];
        for (i, b) in key.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(31).wrapping_add(5);
        }
        let tdes = TripleDes::new(&key);
        let original = [0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x23, 0x45, 0x67];
        let mut block = original;
        tdes.encrypt_block(&mut block);
        assert_ne!(block, original);
        tdes.decrypt_block(&mut block);
        assert_eq!(block, original);
    }

    #[test]
    fn inverse_ip_inverts_ip() {
        for x in [
            0u64,
            1,
            u64::MAX,
            0x0123_4567_89AB_CDEF,
            0xF0F0_F0F0_0F0F_0F0F,
        ] {
            let y = permute(x, 64, &IP);
            assert_eq!(inverse_ip(y), x);
        }
    }

    #[test]
    fn des_complementation_property() {
        // DES satisfies E_{~k}(~p) = ~E_k(p).
        let key = 0x0123_4567_89AB_CDEFu64;
        let pt = 0x4E6F_7720_6973_2074u64;
        let des = Des::new(&key.to_be_bytes());
        let des_c = Des::new(&(!key).to_be_bytes());
        let mut a = pt.to_be_bytes();
        des.encrypt_block(&mut a);
        let mut b = (!pt).to_be_bytes();
        des_c.encrypt_block(&mut b);
        assert_eq!(u64::from_be_bytes(b), !u64::from_be_bytes(a));
    }

    #[test]
    fn weak_key_produces_identical_subkeys() {
        // The classic DES weak key 0101..01 makes every round key equal
        // (C and D registers are all-zero), so E(E(x)) = x.
        let key = 0x0101_0101_0101_0101u64.to_be_bytes();
        let des = Des::new(&key);
        let s = DesKeySchedule::new(u64::from_be_bytes(key));
        for k in &s.round_keys[1..] {
            assert_eq!(*k, s.round_keys[0]);
        }
        let mut block = *b"weakweak";
        let original = block;
        des.encrypt_block(&mut block);
        des.encrypt_block(&mut block);
        assert_eq!(block, original, "weak key must be an involution");
    }

    #[test]
    fn key_schedule_produces_16_distinct_subkeys_for_nondegenerate_key() {
        let s = DesKeySchedule::new(0x1334_5779_9BBC_DFF1);
        for i in 0..16 {
            for j in (i + 1)..16 {
                assert_ne!(
                    s.round_keys[i], s.round_keys[j],
                    "subkeys {i} and {j} collide"
                );
            }
        }
    }
}
