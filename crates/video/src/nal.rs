//! H.264 Annex-B NAL unit bitstream reader and writer.
//!
//! The paper's Android app reads an MP4/H.264 file through GPAC and ships
//! each video segment in an RTP packet. We exercise the same path with our
//! own bitstream layer: coded frames are wrapped as NAL units (IDR slices
//! for I-frames, non-IDR slices for P-frames, plus SPS/PPS parameter sets),
//! serialised with Annex-B start codes and **emulation-prevention bytes**
//! (ITU-T H.264 §7.4.1.1), and parsed back on the receive side. The parser
//! is tolerant of 3- and 4-byte start codes and reports malformed headers
//! instead of panicking.

/// NAL unit types we emit (subset of ITU-T H.264 Table 7-1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NalUnitType {
    /// Coded slice of a non-IDR picture (P-frame), type 1.
    NonIdrSlice,
    /// Coded slice of an IDR picture (I-frame), type 5.
    IdrSlice,
    /// Sequence parameter set, type 7.
    Sps,
    /// Picture parameter set, type 8.
    Pps,
    /// Any other (valid but unhandled) type, with its 5-bit code.
    Other(u8),
}

impl NalUnitType {
    /// The 5-bit type code.
    pub fn code(self) -> u8 {
        match self {
            NalUnitType::NonIdrSlice => 1,
            NalUnitType::IdrSlice => 5,
            NalUnitType::Sps => 7,
            NalUnitType::Pps => 8,
            NalUnitType::Other(c) => c & 0x1f,
        }
    }

    /// Decode a 5-bit type code.
    fn from_code(code: u8) -> Self {
        match code & 0x1f {
            1 => NalUnitType::NonIdrSlice,
            5 => NalUnitType::IdrSlice,
            7 => NalUnitType::Sps,
            8 => NalUnitType::Pps,
            c => NalUnitType::Other(c),
        }
    }
}

/// A parsed NAL unit: header fields plus the raw (unescaped) payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NalUnit {
    /// 2-bit nal_ref_idc: importance for reference (3 for IDR/SPS/PPS).
    pub ref_idc: u8,
    /// Unit type.
    pub unit_type: NalUnitType,
    /// Raw byte sequence payload (RBSP, after unescaping).
    pub payload: Vec<u8>,
}

impl NalUnit {
    /// Construct a unit; `ref_idc` is masked to 2 bits.
    pub fn new(ref_idc: u8, unit_type: NalUnitType, payload: Vec<u8>) -> Self {
        NalUnit {
            ref_idc: ref_idc & 0x3,
            unit_type,
            payload,
        }
    }

    /// A deterministic synthetic slice of `bytes` payload bytes for frame
    /// `index` — used when the "coded" frame content is only a byte count.
    pub fn synthetic_slice(index: usize, is_idr: bool, bytes: usize) -> Self {
        let unit_type = if is_idr {
            NalUnitType::IdrSlice
        } else {
            NalUnitType::NonIdrSlice
        };
        // Filler pattern that deliberately contains 00 00 0x runs so the
        // emulation-prevention path is exercised on every frame.
        let payload: Vec<u8> = (0..bytes)
            .map(|i| match i % 7 {
                0 | 1 => 0x00,
                // lint:allow(num-as-truncate): value < 4 by the `% 4` bound
                2 => (index % 4) as u8, // 00 00 00..03 sequences need escaping
                // lint:allow(num-as-truncate): value < 251 by the `% 251` bound
                _ => ((i * 31 + index * 7) % 251) as u8,
            })
            .collect();
        NalUnit::new(if is_idr { 3 } else { 2 }, unit_type, payload)
    }

    /// The header byte: forbidden_zero_bit | ref_idc | type.
    fn header_byte(&self) -> u8 {
        (self.ref_idc << 5) | self.unit_type.code()
    }
}

/// Errors from [`parse_annex_b`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NalError {
    /// The forbidden_zero_bit of a NAL header was set.
    ForbiddenBitSet {
        /// Byte offset of the offending header in the input.
        offset: usize,
    },
    /// A start code was followed by no header byte.
    TruncatedUnit {
        /// Byte offset of the start code.
        offset: usize,
    },
    /// No start code found anywhere in a non-empty input.
    NoStartCode,
}

impl std::fmt::Display for NalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NalError::ForbiddenBitSet { offset } => {
                write!(f, "forbidden_zero_bit set in NAL header at offset {offset}")
            }
            NalError::TruncatedUnit { offset } => {
                write!(f, "truncated NAL unit after start code at offset {offset}")
            }
            NalError::NoStartCode => write!(f, "no Annex-B start code in input"),
        }
    }
}

impl std::error::Error for NalError {}

/// The emulation-prevention byte.
const EPB: u8 = 0x03;

/// The EBSP escaping rule, walked over a raw payload byte by byte: an
/// [`EPB`] goes before any byte ≤ `0x03` that follows `00 00`, the zero
/// count restarting behind each inserted byte, so no start code can appear
/// inside a unit.
#[derive(Default)]
struct Escaper {
    zeros: u8,
}

impl Escaper {
    /// Whether an emulation-prevention byte goes before the next payload
    /// byte `b`; steps past `b`.
    #[inline(always)]
    fn epb_before(&mut self, b: u8) -> bool {
        let epb = self.zeros >= 2 && b <= EPB;
        if epb {
            self.zeros = 0;
        }
        self.zeros = if b == 0 { self.zeros + 1 } else { 0 };
        epb
    }
}

/// Escape a raw payload into EBSP, one copy per run between
/// emulation-prevention bytes.
fn escape_into(payload: &[u8], out: &mut Vec<u8>) {
    let mut escaper = Escaper::default();
    let mut run = 0;
    for (i, &b) in payload.iter().enumerate() {
        if escaper.epb_before(b) {
            out.extend_from_slice(&payload[run..i]);
            out.push(EPB);
            run = i;
        }
    }
    out.extend_from_slice(&payload[run..]);
}

/// Remove emulation-prevention bytes from an EBSP payload, one copy per
/// run between them.
fn unescape(ebsp: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ebsp.len());
    let mut zeros = 0usize;
    let mut start = 0;
    for (i, &b) in ebsp.iter().enumerate() {
        if zeros >= 2 && b == EPB && ebsp.get(i + 1).is_some_and(|&next| next <= EPB) {
            // Emulation-prevention byte: copy the run before it, skip it.
            out.extend_from_slice(&ebsp[start..i]);
            start = i + 1;
            zeros = 0;
            continue;
        }
        zeros = if b == 0 { zeros + 1 } else { 0 };
    }
    out.extend_from_slice(&ebsp[start..]);
    out
}

/// Whether `fragments`, read in order as one stream, are byte for byte
/// `write_annex_b([unit])` — a stream that [`parse_annex_b`] reads back as
/// exactly one unit carrying `unit.payload`.
///
/// The comparison runs in place: the expected bytes are escaped on the
/// fly, nothing is concatenated or allocated, and no byte is emitted.
/// `false` means only that the stream is not the writer's; it may still
/// parse to the same payload (a 3-byte start code, a different header
/// byte), which only a parse can tell. So `false` is also returned for
/// the writer outputs that do not parse back: a header byte with the
/// forbidden bit set (a `ref_idc` above 3), and a zero header byte before
/// a payload opening `00 01`, which spells a second start code.
pub fn annex_b_matches<'a>(unit: &NalUnit, fragments: impl IntoIterator<Item = &'a [u8]>) -> bool {
    let header = unit.header_byte();
    if header & 0x80 != 0 || (header == 0 && unit.payload.starts_with(&[0, 1])) {
        return false;
    }
    let mut stream = fragments.into_iter().flatten().copied();
    let mut escaper = Escaper::default();
    [0, 0, 0, 1, header]
        .into_iter()
        .all(|b| stream.next() == Some(b))
        && unit.payload.iter().all(|&b| {
            (!escaper.epb_before(b) || stream.next() == Some(EPB)) && stream.next() == Some(b)
        })
        && stream.next().is_none()
}

/// Serialise NAL units as an Annex-B byte stream (4-byte start codes).
pub fn write_annex_b(units: &[NalUnit]) -> Vec<u8> {
    let mut out = Vec::with_capacity(units.iter().map(|u| u.payload.len() + 8).sum());
    for unit in units {
        out.extend_from_slice(&[0, 0, 0, 1]);
        out.push(unit.header_byte());
        escape_into(&unit.payload, &mut out);
    }
    out
}

/// Parse an Annex-B byte stream into NAL units.
///
/// Accepts both 3-byte (`00 00 01`) and 4-byte (`00 00 00 01`) start codes.
/// Trailing zero bytes before the next start code are treated as payload
/// (they are unambiguous after unescaping in our profile).
pub fn parse_annex_b(stream: &[u8]) -> Result<Vec<NalUnit>, NalError> {
    if stream.is_empty() {
        return Ok(Vec::new());
    }
    // Find all start-code positions: (offset_of_first_zero, header_offset).
    let mut starts: Vec<(usize, usize)> = Vec::new();
    let mut i = 0;
    while i + 2 < stream.len() {
        if stream[i] == 0 && stream[i + 1] == 0 {
            if stream[i + 2] == 1 {
                starts.push((i, i + 3));
                i += 3;
                continue;
            }
            if i + 3 < stream.len() && stream[i + 2] == 0 && stream[i + 3] == 1 {
                starts.push((i, i + 4));
                i += 4;
                continue;
            }
        }
        i += 1;
    }
    if starts.is_empty() {
        return Err(NalError::NoStartCode);
    }
    let mut units = Vec::with_capacity(starts.len());
    for (k, &(code_off, hdr_off)) in starts.iter().enumerate() {
        let end = starts.get(k + 1).map_or(stream.len(), |&(next, _)| next);
        if hdr_off >= end {
            return Err(NalError::TruncatedUnit { offset: code_off });
        }
        let header = stream[hdr_off];
        if header & 0x80 != 0 {
            return Err(NalError::ForbiddenBitSet { offset: hdr_off });
        }
        units.push(NalUnit {
            ref_idc: (header >> 5) & 0x3,
            unit_type: NalUnitType::from_code(header),
            payload: unescape(&stream[hdr_off + 1..end]),
        });
    }
    Ok(units)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple_units() {
        let units = vec![
            NalUnit::new(3, NalUnitType::Sps, vec![0x67, 0x42]),
            NalUnit::new(3, NalUnitType::Pps, vec![0x68]),
            NalUnit::new(3, NalUnitType::IdrSlice, vec![1, 2, 3, 4, 5]),
            NalUnit::new(2, NalUnitType::NonIdrSlice, vec![9; 100]),
        ];
        let stream = write_annex_b(&units);
        let parsed = parse_annex_b(&stream).expect("clean round-trip stream must parse");
        assert_eq!(parsed, units);
    }

    #[test]
    fn emulation_prevention_roundtrip() {
        // Payloads full of 00 00 0x patterns that require escaping.
        let tricky = vec![
            vec![0, 0, 0],
            vec![0, 0, 1],
            vec![0, 0, 2],
            vec![0, 0, 3],
            vec![0, 0, 0, 0, 0, 0],
            vec![0, 0, 1, 0, 0, 2, 0, 0, 3],
            vec![0xff, 0, 0, 0, 0xff],
        ];
        for payload in tricky {
            let unit = NalUnit::new(1, NalUnitType::NonIdrSlice, payload.clone());
            let stream = write_annex_b(std::slice::from_ref(&unit));
            // The escaped stream must not contain a start code inside the payload.
            let body = &stream[5..];
            assert!(
                !body.windows(3).any(|w| w == [0, 0, 1]),
                "payload {payload:?} leaked a start code: {body:?}"
            );
            let parsed = parse_annex_b(&stream).expect("escaped tricky payload must parse");
            assert_eq!(parsed[0].payload, payload);
        }
    }

    #[test]
    fn synthetic_slices_roundtrip_and_classify() {
        let units: Vec<NalUnit> = (0..10)
            .map(|i| NalUnit::synthetic_slice(i, i % 5 == 0, 50 + i * 13))
            .collect();
        let stream = write_annex_b(&units);
        let parsed = parse_annex_b(&stream).expect("synthetic slices must round-trip");
        assert_eq!(parsed.len(), 10);
        for (i, u) in parsed.iter().enumerate() {
            assert_eq!(u.payload.len(), 50 + i * 13);
            assert_eq!(
                u.unit_type,
                if i % 5 == 0 {
                    NalUnitType::IdrSlice
                } else {
                    NalUnitType::NonIdrSlice
                }
            );
        }
    }

    #[test]
    fn three_byte_start_codes_accepted() {
        let mut stream = vec![0, 0, 1, (3 << 5) | 5, 0xAA, 0xBB];
        stream.extend_from_slice(&[0, 0, 1, (2 << 5) | 1, 0xCC]);
        let parsed = parse_annex_b(&stream).expect("3-byte start codes must be accepted");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].unit_type, NalUnitType::IdrSlice);
        assert_eq!(parsed[0].payload, vec![0xAA, 0xBB]);
        assert_eq!(parsed[1].unit_type, NalUnitType::NonIdrSlice);
    }

    #[test]
    fn forbidden_bit_is_reported() {
        let stream = vec![0, 0, 0, 1, 0x80 | 5, 1, 2];
        assert_eq!(
            parse_annex_b(&stream),
            Err(NalError::ForbiddenBitSet { offset: 4 })
        );
    }

    #[test]
    fn garbage_without_start_code_is_an_error() {
        assert_eq!(parse_annex_b(&[1, 2, 3, 4, 5]), Err(NalError::NoStartCode));
        // Empty input parses to an empty list (a valid empty stream).
        assert_eq!(
            parse_annex_b(&[]).expect("empty stream parses to an empty unit list"),
            Vec::new()
        );
    }

    #[test]
    fn truncated_unit_is_reported() {
        let stream = vec![0xAB, 0, 0, 0, 1];
        assert_eq!(
            parse_annex_b(&stream),
            Err(NalError::TruncatedUnit { offset: 1 })
        );
    }

    #[test]
    fn leading_garbage_before_first_start_code_is_skipped() {
        let mut stream = vec![0xDE, 0xAD, 0xBE];
        stream.extend_from_slice(&[0, 0, 0, 1, (3 << 5) | 7, 0x42]);
        let units = parse_annex_b(&stream).expect("leading garbage must be skipped");
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].unit_type, NalUnitType::Sps);
        assert_eq!(units[0].payload, vec![0x42]);
    }

    #[test]
    fn empty_payload_unit_roundtrips() {
        let unit = NalUnit::new(0, NalUnitType::Other(12), Vec::new());
        let stream = write_annex_b(std::slice::from_ref(&unit));
        let parsed = parse_annex_b(&stream).expect("empty-payload unit must round-trip");
        assert_eq!(parsed, vec![unit]);
    }

    /// The byte-at-a-time escaper and unescaper the run-copying ones
    /// replaced, kept as their specification.
    fn escape_bytewise(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut zeros = 0usize;
        for &b in payload {
            if zeros >= 2 && b <= 0x03 {
                out.push(0x03);
                zeros = 0;
            }
            out.push(b);
            zeros = if b == 0 { zeros + 1 } else { 0 };
        }
        out
    }

    fn unescape_bytewise(ebsp: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut zeros = 0usize;
        let mut i = 0;
        while i < ebsp.len() {
            let b = ebsp[i];
            i += 1;
            if zeros >= 2 && b == 0x03 && i < ebsp.len() && ebsp[i] <= 0x03 {
                zeros = 0;
                continue;
            }
            out.push(b);
            zeros = if b == 0 { zeros + 1 } else { 0 };
        }
        out
    }

    #[test]
    fn escaping_matches_the_bytewise_specification() {
        // Every sequence of up to 8 bytes over an alphabet that hits each
        // branch of both rules (zeros, start-code bytes, the EPB itself and
        // a byte above it), then sequences past one eight-byte word over
        // zeros, the EPB and a byte above it, which carry every zero count
        // across the word boundary.
        let short =
            (0..=8u32).flat_map(|len| (0..4usize.pow(len)).map(move |code| (len, code, 4usize)));
        let long = (9..=12u32).flat_map(|len| (0..3usize.pow(len)).map(move |code| (len, code, 3)));
        for (len, code, radix) in short.chain(long) {
            let alphabet: &[u8] = if radix == 4 {
                &[0, 1, 3, 4]
            } else {
                &[0, 3, 4]
            };
            let bytes: Vec<u8> = (0..len)
                .map(|k| alphabet[code / radix.pow(k) % radix])
                .collect();
            let mut escaped = Vec::new();
            escape_into(&bytes, &mut escaped);
            assert_eq!(escaped, escape_bytewise(&bytes), "escape {bytes:?}");
            assert_eq!(
                unescape(&bytes),
                unescape_bytewise(&bytes),
                "unescape {bytes:?}"
            );
            assert_eq!(unescape(&escaped), bytes, "round trip {bytes:?}");
        }
    }

    #[test]
    fn annex_b_matches_only_the_writers_stream() {
        let unit = NalUnit::synthetic_slice(3, true, 4000);
        let stream = write_annex_b(std::slice::from_ref(&unit));
        // Any fragmentation of the written stream matches, empty
        // fragments included.
        assert!(annex_b_matches(&unit, [stream.as_slice()]));
        let (a, b) = stream.split_at(1452);
        assert!(annex_b_matches(&unit, [a, &[][..], b]));
        // A missing byte, an extra byte and a flipped byte do not.
        assert!(!annex_b_matches(&unit, [a, &b[1..]]));
        assert!(!annex_b_matches(&unit, [a, b, &[0][..]]));
        let mut flipped = stream.clone();
        flipped[2000] ^= 1;
        assert!(!annex_b_matches(&unit, [flipped.as_slice()]));
        // A 3-byte start code carries the same payload but is not the
        // writer's stream: the check declines and leaves it to a parse.
        assert!(!annex_b_matches(&unit, [&stream[1..]]));
        assert_eq!(parse_annex_b(&stream[1..]).unwrap(), vec![unit]);
    }

    #[test]
    fn annex_b_matches_declines_a_stream_that_does_not_parse_back() {
        // A zero header byte before a payload opening `00 01` spells a
        // second start code, so the writer's own stream parses as damage.
        let unit = NalUnit::new(0, NalUnitType::Other(0), vec![0, 1, 0xAA]);
        let stream = write_annex_b(std::slice::from_ref(&unit));
        assert!(parse_annex_b(&stream).is_err());
        assert!(!annex_b_matches(&unit, [stream.as_slice()]));
    }

    #[test]
    fn unit_type_codes_roundtrip() {
        for code in 0..32u8 {
            assert_eq!(NalUnitType::from_code(code).code(), code);
        }
    }
}
