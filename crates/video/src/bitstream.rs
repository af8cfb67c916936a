//! H.264 bit-level syntax: bit reader/writer and Exp-Golomb codes
//! (ITU-T H.264 §7.2 / §9.1), plus minimal SPS/PPS payloads.
//!
//! The paper's app ships MP4/H.264 through GPAC; our pipeline carries NAL
//! units whose parameter sets are written and parsed with the real syntax
//! so that the bitstream path is exercised at the bit level, not just at
//! byte granularity — including `ue(v)`/`se(v)` coding and the
//! `rbsp_trailing_bits` stop-bit convention.

/// Most-significant-bit-first bit writer.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits already used in the final byte (0..8).
    bit_pos: u8,
}

impl BitWriter {
    /// Fresh, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a single bit.
    fn put_bit(&mut self, bit: bool) {
        if self.bit_pos == 0 {
            self.bytes.push(0);
        }
        if bit {
            // The byte always exists: either pushed just above or carried
            // over from a previous call with `bit_pos > 0`.
            if let Some(last) = self.bytes.last_mut() {
                *last |= 1 << (7 - self.bit_pos);
            }
        }
        self.bit_pos = (self.bit_pos + 1) % 8;
    }

    /// Append the low `n` bits of `value`, MSB first (H.264 `u(n)`).
    fn put_bits(&mut self, value: u32, n: u8) {
        assert!(n <= 32, "at most 32 bits at a time");
        for i in (0..n).rev() {
            self.put_bit((value >> i) & 1 == 1);
        }
    }

    /// Unsigned Exp-Golomb `ue(v)`.
    pub fn put_ue(&mut self, value: u32) {
        // code_num = value; write (leading zeros) then (value+1) in binary.
        let code = value as u64 + 1;
        let bits: u32 = 64 - code.leading_zeros(); // length of code
        for _ in 0..bits - 1 {
            self.put_bit(false);
        }
        for i in (0..bits).rev() {
            self.put_bit((code >> i) & 1 == 1);
        }
    }

    /// Signed Exp-Golomb `se(v)`: 0, 1, −1, 2, −2, …
    pub fn put_se(&mut self, value: i32) {
        let mapped = if value <= 0 {
            (-2 * value) as u32
        } else {
            (2 * value - 1) as u32
        };
        self.put_ue(mapped);
    }

    /// `rbsp_trailing_bits`: a stop bit then zero padding to a byte edge.
    pub fn put_trailing_bits(&mut self) {
        self.put_bit(true);
        while self.bit_pos != 0 {
            self.put_bit(false);
        }
    }

    /// Finish and return the bytes (unterminated bits are zero-padded).
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Errors from bit-level parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitstreamError {
    /// Ran out of bits mid-field.
    OutOfBits,
    /// An Exp-Golomb code exceeded 32 significant bits.
    CodeTooLong,
}

impl std::fmt::Display for BitstreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BitstreamError::OutOfBits => write!(f, "bitstream exhausted mid-field"),
            BitstreamError::CodeTooLong => write!(f, "Exp-Golomb code longer than 32 bits"),
        }
    }
}

impl std::error::Error for BitstreamError {}

/// Most-significant-bit-first bit reader.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos_bits: usize,
}

impl<'a> BitReader<'a> {
    /// Read from a byte slice.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos_bits: 0 }
    }

    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        self.bytes.len() * 8 - self.pos_bits
    }

    /// Read one bit.
    pub fn bit(&mut self) -> Result<bool, BitstreamError> {
        if self.remaining() == 0 {
            return Err(BitstreamError::OutOfBits);
        }
        let byte = self.bytes[self.pos_bits / 8];
        let bit = (byte >> (7 - (self.pos_bits % 8))) & 1 == 1;
        self.pos_bits += 1;
        Ok(bit)
    }

    /// Read `n` bits as an unsigned value (`u(n)`).
    pub fn bits(&mut self, n: u8) -> Result<u32, BitstreamError> {
        assert!(n <= 32);
        let mut v = 0u32;
        for _ in 0..n {
            v = (v << 1) | self.bit()? as u32;
        }
        Ok(v)
    }

    /// Unsigned Exp-Golomb `ue(v)`.
    pub fn ue(&mut self) -> Result<u32, BitstreamError> {
        let mut zeros = 0u8;
        while !self.bit()? {
            zeros += 1;
            if zeros > 31 {
                return Err(BitstreamError::CodeTooLong);
            }
        }
        let suffix = self.bits(zeros)?;
        Ok((1u32 << zeros) - 1 + suffix)
    }

    /// Signed Exp-Golomb `se(v)`.
    pub fn se(&mut self) -> Result<i32, BitstreamError> {
        let code = self.ue()?;
        let magnitude = code.div_ceil(2) as i32;
        Ok(if code % 2 == 1 { magnitude } else { -magnitude })
    }
}

/// The subset of a sequence parameter set our profile uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SequenceParameterSet {
    /// profile_idc (66 = Baseline).
    pub profile_idc: u8,
    /// level_idc (e.g. 30 = level 3.0).
    pub level_idc: u8,
    /// seq_parameter_set_id.
    pub sps_id: u32,
    /// Picture width in 16-pixel macroblocks, minus 1.
    pub pic_width_in_mbs_minus1: u32,
    /// Picture height in 16-pixel macroblock rows, minus 1.
    pub pic_height_in_map_units_minus1: u32,
    /// log2_max_frame_num_minus4.
    pub log2_max_frame_num_minus4: u32,
}

impl SequenceParameterSet {
    /// An SPS describing a CIF (352×288) stream.
    pub fn cif() -> Self {
        SequenceParameterSet {
            profile_idc: 66,
            level_idc: 30,
            sps_id: 0,
            pic_width_in_mbs_minus1: 352 / 16 - 1,
            pic_height_in_map_units_minus1: 288 / 16 - 1,
            log2_max_frame_num_minus4: 4,
        }
    }

    /// Picture width in pixels.
    pub fn width(&self) -> usize {
        (self.pic_width_in_mbs_minus1 as usize + 1) * 16
    }

    /// Picture height in pixels.
    pub fn height(&self) -> usize {
        (self.pic_height_in_map_units_minus1 as usize + 1) * 16
    }

    /// Serialise the RBSP payload (goes inside a type-7 NAL unit).
    pub fn to_rbsp(&self) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.put_bits(self.profile_idc as u32, 8);
        w.put_bits(0, 8); // constraint flags + reserved
        w.put_bits(self.level_idc as u32, 8);
        w.put_ue(self.sps_id);
        w.put_ue(self.log2_max_frame_num_minus4);
        w.put_ue(0); // pic_order_cnt_type
        w.put_ue(self.log2_max_frame_num_minus4); // log2_max_pic_order_cnt_lsb_minus4
        w.put_ue(1); // max_num_ref_frames: IPP…P needs one reference
        w.put_bit(false); // gaps_in_frame_num_value_allowed_flag
        w.put_ue(self.pic_width_in_mbs_minus1);
        w.put_ue(self.pic_height_in_map_units_minus1);
        w.put_bit(true); // frame_mbs_only_flag
        w.put_bit(false); // direct_8x8_inference_flag
        w.put_bit(false); // frame_cropping_flag
        w.put_bit(false); // vui_parameters_present_flag
        w.put_trailing_bits();
        w.into_bytes()
    }

    /// Parse an RBSP payload written by [`to_rbsp`](Self::to_rbsp).
    pub fn from_rbsp(rbsp: &[u8]) -> Result<Self, BitstreamError> {
        let mut r = BitReader::new(rbsp);
        // lint:allow(num-as-truncate): bits(8) yields at most 0xFF by construction
        let profile_idc = r.bits(8)? as u8;
        let _flags = r.bits(8)?;
        // lint:allow(num-as-truncate): bits(8) yields at most 0xFF by construction
        let level_idc = r.bits(8)? as u8;
        let sps_id = r.ue()?;
        let log2_max_frame_num_minus4 = r.ue()?;
        let _poc_type = r.ue()?;
        let _log2_max_poc = r.ue()?;
        let _max_refs = r.ue()?;
        let _gaps = r.bit()?;
        let pic_width_in_mbs_minus1 = r.ue()?;
        let pic_height_in_map_units_minus1 = r.ue()?;
        Ok(SequenceParameterSet {
            profile_idc,
            level_idc,
            sps_id,
            pic_width_in_mbs_minus1,
            pic_height_in_map_units_minus1,
            log2_max_frame_num_minus4,
        })
    }
}

/// The subset of a picture parameter set our profile uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PictureParameterSet {
    /// pic_parameter_set_id.
    pub pps_id: u32,
    /// The SPS this PPS refers to.
    pub sps_id: u32,
    /// pic_init_qp_minus26.
    pub pic_init_qp_minus26: i32,
}

impl PictureParameterSet {
    /// Default PPS for SPS 0.
    pub fn default_for(sps_id: u32) -> Self {
        PictureParameterSet {
            pps_id: 0,
            sps_id,
            pic_init_qp_minus26: 0,
        }
    }

    /// Serialise the RBSP payload (goes inside a type-8 NAL unit).
    pub fn to_rbsp(&self) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.put_ue(self.pps_id);
        w.put_ue(self.sps_id);
        w.put_bit(false); // entropy_coding_mode_flag: CAVLC
        w.put_bit(false); // bottom_field_pic_order_in_frame_present_flag
        w.put_ue(0); // num_slice_groups_minus1
        w.put_ue(0); // num_ref_idx_l0_default_active_minus1
        w.put_ue(0); // num_ref_idx_l1_default_active_minus1
        w.put_bit(false); // weighted_pred_flag
        w.put_bits(0, 2); // weighted_bipred_idc
        w.put_se(self.pic_init_qp_minus26);
        w.put_se(0); // pic_init_qs_minus26
        w.put_se(0); // chroma_qp_index_offset
        w.put_bit(false); // deblocking_filter_control_present_flag
        w.put_bit(false); // constrained_intra_pred_flag
        w.put_bit(false); // redundant_pic_cnt_present_flag
        w.put_trailing_bits();
        w.into_bytes()
    }

    /// Parse an RBSP payload written by [`to_rbsp`](Self::to_rbsp).
    pub fn from_rbsp(rbsp: &[u8]) -> Result<Self, BitstreamError> {
        let mut r = BitReader::new(rbsp);
        let pps_id = r.ue()?;
        let sps_id = r.ue()?;
        let _entropy = r.bit()?;
        let _bottom = r.bit()?;
        let _groups = r.ue()?;
        let _l0 = r.ue()?;
        let _l1 = r.ue()?;
        let _wp = r.bit()?;
        let _wb = r.bits(2)?;
        let pic_init_qp_minus26 = r.se()?;
        Ok(PictureParameterSet {
            pps_id,
            sps_id,
            pic_init_qp_minus26,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BitWriter {
        /// Bits written so far.
        pub fn bit_len(&self) -> usize {
            if self.bit_pos == 0 {
                self.bytes.len() * 8
            } else {
                (self.bytes.len() - 1) * 8 + self.bit_pos as usize
            }
        }
    }

    #[test]
    fn bit_roundtrip() {
        let mut w = BitWriter::new();
        w.put_bit(true);
        w.put_bits(0b1011, 4);
        w.put_bits(0xABCD, 16);
        w.put_bit(false);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert!(r.bit().unwrap());
        assert_eq!(r.bits(4).unwrap(), 0b1011);
        assert_eq!(r.bits(16).unwrap(), 0xABCD);
        assert!(!r.bit().unwrap());
    }

    #[test]
    fn ue_known_codewords() {
        // Classic table: 0→1, 1→010, 2→011, 3→00100 …
        let mut w = BitWriter::new();
        w.put_ue(0);
        assert_eq!(w.bit_len(), 1);
        let mut w = BitWriter::new();
        w.put_ue(1);
        assert_eq!(w.bit_len(), 3);
        let mut w = BitWriter::new();
        w.put_ue(3);
        assert_eq!(w.bit_len(), 5);
        let mut w = BitWriter::new();
        w.put_ue(3);
        w.put_trailing_bits();
        // Grouped as written: 5-bit Exp-Golomb code, then the stop bit and
        // alignment zeros.
        #[allow(clippy::unusual_byte_groupings)]
        let expected = vec![0b00100_100];
        assert_eq!(w.into_bytes(), expected);
    }

    #[test]
    fn ue_se_roundtrip_range() {
        let mut w = BitWriter::new();
        for v in 0..200u32 {
            w.put_ue(v);
        }
        for v in -100i32..100 {
            w.put_se(v);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for v in 0..200u32 {
            assert_eq!(r.ue().unwrap(), v);
        }
        for v in -100i32..100 {
            assert_eq!(r.se().unwrap(), v);
        }
    }

    #[test]
    fn ue_large_values() {
        for v in [255u32, 1 << 10, (1 << 16) - 1, u32::MAX / 4] {
            let mut w = BitWriter::new();
            w.put_ue(v);
            let bytes = w.into_bytes();
            assert_eq!(BitReader::new(&bytes).ue().unwrap(), v);
        }
    }

    #[test]
    fn out_of_bits_detected() {
        let mut r = BitReader::new(&[0b0000_0000]); // 8 leading zeros: ue needs more
        assert_eq!(r.ue(), Err(BitstreamError::OutOfBits));
        let mut r = BitReader::new(&[]);
        assert_eq!(r.bit(), Err(BitstreamError::OutOfBits));
    }

    #[test]
    fn sps_cif_roundtrip() {
        let sps = SequenceParameterSet::cif();
        assert_eq!(sps.width(), 352);
        assert_eq!(sps.height(), 288);
        let rbsp = sps.to_rbsp();
        let parsed = SequenceParameterSet::from_rbsp(&rbsp).unwrap();
        assert_eq!(parsed, sps);
    }

    #[test]
    fn pps_roundtrip_with_negative_qp() {
        let pps = PictureParameterSet {
            pps_id: 0,
            sps_id: 0,
            pic_init_qp_minus26: -8,
        };
        let rbsp = pps.to_rbsp();
        assert_eq!(PictureParameterSet::from_rbsp(&rbsp).unwrap(), pps);
    }

    #[test]
    fn sps_survives_nal_and_annex_b() {
        // SPS → NAL type 7 → Annex-B → parse → RBSP → SPS.
        use crate::nal::{parse_annex_b, write_annex_b, NalUnit, NalUnitType};
        let sps = SequenceParameterSet::cif();
        let unit = NalUnit::new(3, NalUnitType::Sps, sps.to_rbsp());
        let stream = write_annex_b(std::slice::from_ref(&unit));
        let parsed_units = parse_annex_b(&stream).unwrap();
        assert_eq!(parsed_units[0].unit_type, NalUnitType::Sps);
        let parsed = SequenceParameterSet::from_rbsp(&parsed_units[0].payload).unwrap();
        assert_eq!(parsed, sps);
    }

    #[test]
    fn trailing_bits_are_byte_aligning() {
        let mut w = BitWriter::new();
        w.put_bits(0b101, 3);
        w.put_trailing_bits();
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 1);
        assert_eq!(bytes[0], 0b1011_0000);
    }
}
