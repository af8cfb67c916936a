//! AES (Rijndael) block cipher, FIPS-197, for 128- and 256-bit keys.
//!
//! Straightforward byte-oriented implementation: S-box substitution,
//! `ShiftRows`, `MixColumns` over GF(2⁸), and the standard key expansion.
//! The state is kept in FIPS column-major order: `state[r + 4c]` is row `r`,
//! column `c`. No table-based T-box optimisation is used; the goal is an
//! auditable reference implementation whose per-round structure mirrors the
//! cost model in [`crate::cost`].

use crate::BlockCipher;

/// The AES forward S-box (FIPS-197 Figure 7).
pub const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// The inverse S-box, derived from [`SBOX`] at compile time.
pub const INV_SBOX: [u8; 256] = {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
};

/// Round constants for the key schedule (enough for AES-256's 14 rounds).
pub(crate) const RCON: [u8; 15] = [
    0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36, 0x6c, 0xd8, 0xab, 0x4d,
];

/// Multiply by x in GF(2⁸) modulo the AES polynomial x⁸+x⁴+x³+x+1.
#[inline]
fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// General GF(2⁸) multiplication (used by `InvMixColumns`).
#[inline]
fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

/// Expanded-key AES context, generic over the number of rounds.
///
/// `NR` is 10 for AES-128 and 14 for AES-256; the schedule holds `NR + 1`
/// 16-byte round keys.
#[derive(Clone)]
struct AesCore<const NR: usize> {
    round_keys: Vec<[u8; 16]>,
}

impl<const NR: usize> AesCore<NR> {
    fn expand(key: &[u8]) -> Self {
        let nk = key.len() / 4; // words in the key: 4 or 8
        let total_words = 4 * (NR + 1);
        let mut w = vec![[0u8; 4]; total_words];
        for (i, word) in w.iter_mut().take(nk).enumerate() {
            word.copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        for i in nk..total_words {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp.rotate_left(1);
                for b in temp.iter_mut() {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / nk];
            } else if nk > 6 && i % nk == 4 {
                for b in temp.iter_mut() {
                    *b = SBOX[*b as usize];
                }
            }
            for j in 0..4 {
                w[i][j] = w[i - nk][j] ^ temp[j];
            }
        }
        let round_keys = w
            .chunks_exact(4)
            .map(|c| {
                let mut rk = [0u8; 16];
                for (j, word) in c.iter().enumerate() {
                    rk[4 * j..4 * j + 4].copy_from_slice(word);
                }
                rk
            })
            .collect();
        AesCore { round_keys }
    }

    #[inline]
    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk.iter()) {
            *s ^= k;
        }
    }

    #[inline]
    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    #[inline]
    fn inv_sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = INV_SBOX[*b as usize];
        }
    }

    /// Row `r` of the state is bytes `r, r+4, r+8, r+12`; rotate it left by `r`.
    #[inline]
    fn shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[r + 4 * c] = s[r + 4 * ((c + r) % 4)];
            }
        }
    }

    #[inline]
    fn inv_shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[r + 4 * ((c + r) % 4)] = s[r + 4 * c];
            }
        }
    }

    #[inline]
    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = &mut state[4 * c..4 * c + 4];
            let (a0, a1, a2, a3) = (col[0], col[1], col[2], col[3]);
            let t = a0 ^ a1 ^ a2 ^ a3;
            col[0] = a0 ^ t ^ xtime(a0 ^ a1);
            col[1] = a1 ^ t ^ xtime(a1 ^ a2);
            col[2] = a2 ^ t ^ xtime(a2 ^ a3);
            col[3] = a3 ^ t ^ xtime(a3 ^ a0);
        }
    }

    #[inline]
    fn inv_mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = &mut state[4 * c..4 * c + 4];
            let (a0, a1, a2, a3) = (col[0], col[1], col[2], col[3]);
            col[0] = gmul(a0, 0x0e) ^ gmul(a1, 0x0b) ^ gmul(a2, 0x0d) ^ gmul(a3, 0x09);
            col[1] = gmul(a0, 0x09) ^ gmul(a1, 0x0e) ^ gmul(a2, 0x0b) ^ gmul(a3, 0x0d);
            col[2] = gmul(a0, 0x0d) ^ gmul(a1, 0x09) ^ gmul(a2, 0x0e) ^ gmul(a3, 0x0b);
            col[3] = gmul(a0, 0x0b) ^ gmul(a1, 0x0d) ^ gmul(a2, 0x09) ^ gmul(a3, 0x0e);
        }
    }

    fn encrypt(&self, block: &mut [u8]) {
        assert_eq!(block.len(), 16, "AES block must be 16 bytes");
        let mut state = [0u8; 16];
        state.copy_from_slice(block);
        Self::add_round_key(&mut state, &self.round_keys[0]);
        for round in 1..NR {
            Self::sub_bytes(&mut state);
            Self::shift_rows(&mut state);
            Self::mix_columns(&mut state);
            Self::add_round_key(&mut state, &self.round_keys[round]);
        }
        Self::sub_bytes(&mut state);
        Self::shift_rows(&mut state);
        Self::add_round_key(&mut state, &self.round_keys[NR]);
        block.copy_from_slice(&state);
    }

    fn decrypt(&self, block: &mut [u8]) {
        assert_eq!(block.len(), 16, "AES block must be 16 bytes");
        let mut state = [0u8; 16];
        state.copy_from_slice(block);
        Self::add_round_key(&mut state, &self.round_keys[NR]);
        for round in (1..NR).rev() {
            Self::inv_shift_rows(&mut state);
            Self::inv_sub_bytes(&mut state);
            Self::add_round_key(&mut state, &self.round_keys[round]);
            Self::inv_mix_columns(&mut state);
        }
        Self::inv_shift_rows(&mut state);
        Self::inv_sub_bytes(&mut state);
        Self::add_round_key(&mut state, &self.round_keys[0]);
        block.copy_from_slice(&state);
    }
}

/// AES with a 128-bit key (10 rounds).
#[derive(Clone)]
pub struct Aes128 {
    core: AesCore<10>,
}

impl Aes128 {
    /// Expand `key` into the round-key schedule.
    pub fn new(key: &[u8; 16]) -> Self {
        Aes128 {
            core: AesCore::expand(key),
        }
    }
}

impl BlockCipher for Aes128 {
    fn block_size(&self) -> usize {
        16
    }
    fn encrypt_block(&self, block: &mut [u8]) {
        self.core.encrypt(block);
    }
    fn decrypt_block(&self, block: &mut [u8]) {
        self.core.decrypt(block);
    }
}

/// AES with a 256-bit key (14 rounds).
#[derive(Clone)]
pub struct Aes256 {
    core: AesCore<14>,
}

impl Aes256 {
    /// Expand `key` into the round-key schedule.
    pub fn new(key: &[u8; 32]) -> Self {
        Aes256 {
            core: AesCore::expand(key),
        }
    }
}

impl BlockCipher for Aes256 {
    fn block_size(&self) -> usize {
        16
    }
    fn encrypt_block(&self, block: &mut [u8]) {
        self.core.encrypt(block);
    }
    fn decrypt_block(&self, block: &mut [u8]) {
        self.core.decrypt(block);
    }
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Aes128(..)")
    }
}

impl std::fmt::Debug for Aes256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Aes256(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn sbox_is_a_permutation() {
        let mut seen = [false; 256];
        for &b in SBOX.iter() {
            assert!(!seen[b as usize]);
            seen[b as usize] = true;
        }
        for (i, &b) in SBOX.iter().enumerate() {
            assert_eq!(INV_SBOX[b as usize] as usize, i);
        }
    }

    #[test]
    fn fips197_aes128_vector() {
        // FIPS-197 Appendix C.1
        let key: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let cipher = Aes128::new(&key);
        let mut block = hex("00112233445566778899aabbccddeeff");
        cipher.encrypt_block(&mut block);
        assert_eq!(block, hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
        cipher.decrypt_block(&mut block);
        assert_eq!(block, hex("00112233445566778899aabbccddeeff"));
    }

    #[test]
    fn fips197_aes256_vector() {
        // FIPS-197 Appendix C.3
        let key: [u8; 32] = hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
            .try_into()
            .unwrap();
        let cipher = Aes256::new(&key);
        let mut block = hex("00112233445566778899aabbccddeeff");
        cipher.encrypt_block(&mut block);
        assert_eq!(block, hex("8ea2b7ca516745bfeafc49904b496089"));
        cipher.decrypt_block(&mut block);
        assert_eq!(block, hex("00112233445566778899aabbccddeeff"));
    }

    #[test]
    fn aes128_key_schedule_first_and_last_round_keys() {
        // FIPS-197 Appendix A.1: key 2b7e151628aed2a6abf7158809cf4f3c
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let c = Aes128::new(&key);
        assert_eq!(
            c.core.round_keys[0].to_vec(),
            hex("2b7e151628aed2a6abf7158809cf4f3c")
        );
        assert_eq!(
            c.core.round_keys[10].to_vec(),
            hex("d014f9a8c9ee2589e13f0cc8b6630ca6")
        );
    }

    #[test]
    fn mix_columns_roundtrip() {
        let mut state = [0u8; 16];
        for (i, b) in state.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(17).wrapping_add(3);
        }
        let original = state;
        AesCore::<10>::mix_columns(&mut state);
        assert_ne!(state, original);
        AesCore::<10>::inv_mix_columns(&mut state);
        assert_eq!(state, original);
    }

    #[test]
    fn shift_rows_roundtrip() {
        let mut state = [0u8; 16];
        for (i, b) in state.iter_mut().enumerate() {
            *b = i as u8;
        }
        let original = state;
        AesCore::<10>::shift_rows(&mut state);
        assert_ne!(state, original);
        AesCore::<10>::inv_shift_rows(&mut state);
        assert_eq!(state, original);
    }

    #[test]
    fn gmul_matches_known_products() {
        // 0x57 * 0x83 = 0xc1 (FIPS-197 Section 4.2 example)
        assert_eq!(gmul(0x57, 0x83), 0xc1);
        assert_eq!(gmul(0x57, 0x13), 0xfe);
        // multiplication by 1 is identity, by 0 annihilates
        for b in 0..=255u8 {
            assert_eq!(gmul(b, 1), b);
            assert_eq!(gmul(b, 0), 0);
        }
    }

    #[test]
    fn encrypt_differs_per_key() {
        let k1 = [0u8; 16];
        let mut k2 = [0u8; 16];
        k2[15] = 1;
        let mut b1 = [0u8; 16];
        let mut b2 = [0u8; 16];
        Aes128::new(&k1).encrypt_block(&mut b1);
        Aes128::new(&k2).encrypt_block(&mut b2);
        assert_ne!(b1, b2);
    }
}
