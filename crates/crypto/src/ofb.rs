//! Output Feedback (OFB) stream mode, NIST SP 800-38A §6.4.
//!
//! OFB turns a block cipher into a synchronous stream cipher:
//! `O₀ = IV`, `Oᵢ = E_K(Oᵢ₋₁)`, `Cᵢ = Pᵢ ⊕ Oᵢ`. Encryption and decryption
//! are the same operation, and — as the paper notes in Section 5 — a bit
//! error in one ciphertext block does not propagate to later blocks of the
//! keystream, which is why the Android app applies OFB per video segment.

use crate::BlockCipher;

/// An OFB keystream generator over any [`BlockCipher`].
///
/// The struct borrows the cipher, holds the current feedback block, and
/// hands out keystream lazily; [`apply`](Ofb::apply) XORs it over a buffer
/// of any length (the final partial block of keystream is discarded, per
/// SP 800-38A).
pub struct Ofb<'c, C: BlockCipher + ?Sized> {
    cipher: &'c C,
    feedback: Vec<u8>,
    /// Next unread keystream byte within `feedback`; `block_size` means the
    /// current block is exhausted.
    cursor: usize,
}

impl<'c, C: BlockCipher + ?Sized> Ofb<'c, C> {
    /// Start a keystream from `iv`, which must be exactly one block long.
    ///
    /// # Panics
    /// If `iv.len() != cipher.block_size()`.
    pub fn new(cipher: &'c C, iv: &[u8]) -> Self {
        assert_eq!(
            iv.len(),
            cipher.block_size(),
            "OFB IV must be exactly one block"
        );
        Ofb {
            cipher,
            feedback: iv.to_vec(),
            // Force a block-encryption before the first byte is used: O₁ is
            // the first keystream block, the raw IV is never output.
            cursor: iv.len(),
        }
    }

    /// Produce the next keystream byte.
    #[inline]
    fn next_byte(&mut self) -> u8 {
        if self.cursor == self.feedback.len() {
            self.cipher.encrypt_block(&mut self.feedback);
            self.cursor = 0;
        }
        let b = self.feedback[self.cursor];
        self.cursor += 1;
        b
    }

    /// XOR the keystream over `data` in place (encrypts or decrypts).
    ///
    /// Works block-at-a-time: any partially consumed keystream block is
    /// drained byte-wise first, then whole blocks are generated with one
    /// `encrypt_block` each and XORed in word-sized chunks, and a final
    /// partial block falls back to `next_byte`. The
    /// cursor state is identical to what the byte loop would leave, so
    /// `apply` and `next_byte` calls can be interleaved freely.
    pub fn apply(&mut self, data: &mut [u8]) {
        let block = self.feedback.len();
        let mut i = 0;
        // Drain whatever is left of the current keystream block.
        while self.cursor < block && i < data.len() {
            data[i] ^= self.feedback[self.cursor];
            self.cursor += 1;
            i += 1;
        }
        // Whole blocks: one cipher call + word-wide XOR per block. The
        // feedback buffer is left fully consumed (`cursor == block`),
        // exactly as the byte path would.
        while data.len() - i >= block {
            self.cipher.encrypt_block(&mut self.feedback);
            xor_in_place(&mut data[i..i + block], &self.feedback);
            i += block;
        }
        // Final partial block (if any) via the byte path, which also
        // generates the next keystream block and positions the cursor.
        while i < data.len() {
            data[i] ^= self.next_byte();
            i += 1;
        }
    }
}

/// XOR `ks` into `dst` using u64 lanes (both slices have equal length, a
/// whole cipher block — 8 or 16 bytes — so the remainder loop is empty for
/// the ciphers in this crate but kept for generality).
#[inline]
fn xor_in_place(dst: &mut [u8], ks: &[u8]) {
    debug_assert_eq!(dst.len(), ks.len());
    let mut d = dst.chunks_exact_mut(8);
    let mut k = ks.chunks_exact(8);
    for (dc, kc) in (&mut d).zip(&mut k) {
        let x = u64::from_ne_bytes(dc[..8].try_into().unwrap())
            ^ u64::from_ne_bytes(kc.try_into().unwrap());
        dc.copy_from_slice(&x.to_ne_bytes());
    }
    for (db, kb) in d.into_remainder().iter_mut().zip(k.remainder()) {
        *db ^= kb;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::Aes128;
    use crate::des::TripleDes;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn sp800_38a_ofb_aes128_vector() {
        // NIST SP 800-38A F.4.1 (OFB-AES128):
        // Key 2b7e151628aed2a6abf7158809cf4f3c, IV 000102030405060708090a0b0c0d0e0f
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let iv = hex("000102030405060708090a0b0c0d0e0f");
        let cipher = Aes128::new(&key);
        let mut data = hex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51"
        ));
        Ofb::new(&cipher, &iv).apply(&mut data);
        let expected = hex(concat!(
            "3b3fd92eb72dad20333449f8e83cfb4a",
            "7789508d16918f03f53c52dac54ed825"
        ));
        assert_eq!(data, expected);
    }

    #[test]
    fn ofb_is_an_involution() {
        let key: [u8; 16] = [9; 16];
        let cipher = Aes128::new(&key);
        let iv = [3u8; 16];
        let original: Vec<u8> = (0..777u32).map(|i| (i * 7 % 256) as u8).collect();
        let mut data = original.clone();
        Ofb::new(&cipher, &iv).apply(&mut data);
        Ofb::new(&cipher, &iv).apply(&mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn partial_block_lengths_work() {
        let key: [u8; 24] = [1; 24];
        let cipher = TripleDes::new(&key);
        let iv = [0u8; 8];
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 100] {
            let original = vec![0x5Au8; len];
            let mut data = original.clone();
            Ofb::new(&cipher, &iv).apply(&mut data);
            Ofb::new(&cipher, &iv).apply(&mut data);
            assert_eq!(data, original, "len={len}");
        }
    }

    #[test]
    fn streaming_equals_one_shot() {
        // Applying the keystream in several calls must equal one big call.
        let key: [u8; 16] = [0xAB; 16];
        let cipher = Aes128::new(&key);
        let iv = [0x11u8; 16];
        let mut a = vec![0u8; 100];
        Ofb::new(&cipher, &iv).apply(&mut a);
        let mut b = vec![0u8; 100];
        let mut ofb = Ofb::new(&cipher, &iv);
        for chunk in b.chunks_mut(7) {
            ofb.apply(chunk);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn bulk_and_byte_paths_interleave_identically() {
        // Regression for the block-wise `apply` fast path: mixing `apply`
        // (which may take the bulk route) with `next_byte` at arbitrary
        // offsets must produce the same keystream as a pure byte loop.
        let key: [u8; 16] = [0x3C; 16];
        let cipher = Aes128::new(&key);
        let iv = [0x77u8; 16];
        // Oracle: the keystream drawn one byte at a time.
        let mut oracle = Ofb::new(&cipher, &iv);
        let expected: Vec<u8> = (0..200).map(|_| oracle.next_byte()).collect();
        // Candidate: apply over a misaligned chunk, then single bytes, then
        // another apply spanning several blocks, for several split points.
        for split in [0usize, 1, 5, 15, 16, 17, 31, 33] {
            let mut ofb = Ofb::new(&cipher, &iv);
            let mut out = vec![0u8; 200];
            ofb.apply(&mut out[..split]);
            let n_single = 3.min(200 - split);
            for b in out[split..split + n_single].iter_mut() {
                *b ^= ofb.next_byte();
            }
            ofb.apply(&mut out[split + n_single..]);
            assert_eq!(out, expected, "split={split}");
        }
    }

    #[test]
    fn bulk_path_matches_on_des_blocks_too() {
        // 8-byte blocks exercise the single-u64 XOR lane.
        let key: [u8; 24] = [0x42; 24];
        let cipher = TripleDes::new(&key);
        let iv = [0x0Fu8; 8];
        let mut oracle = Ofb::new(&cipher, &iv);
        let expected: Vec<u8> = (0..64).map(|_| oracle.next_byte()).collect();
        let mut bulk = vec![0u8; 64];
        Ofb::new(&cipher, &iv).apply(&mut bulk);
        assert_eq!(bulk, expected);
    }

    #[test]
    #[should_panic(expected = "OFB IV must be exactly one block")]
    fn wrong_iv_length_panics() {
        let key: [u8; 16] = [0; 16];
        let cipher = Aes128::new(&key);
        let _ = Ofb::new(&cipher, &[0u8; 8]);
    }
}
