//! RTP and UDP wire formats (typed views over byte buffers).
//!
//! The paper's sender encapsulates each (possibly encrypted) video segment
//! in an RTP packet over UDP, and sets the **RTP marker bit** to tell the
//! legitimate receiver that the payload is encrypted (Section 5). These are
//! real RFC 3550 / RFC 768 encodings, in the style of smoltcp: a zero-copy
//! `Packet<T>` wrapper with checked construction and field accessors.

/// RTP fixed header length, bytes (no CSRC, no extension).
pub const RTP_HEADER_LEN: usize = 12;

/// UDP (8) + IPv4 (20) header overhead added below RTP, bytes.
pub const UDP_IP_OVERHEAD: usize = 28;

/// Errors from parsing wire formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Buffer shorter than the fixed header.
    Truncated {
        /// Bytes required.
        need: usize,
        /// Bytes available.
        got: usize,
    },
    /// RTP version field is not 2.
    BadVersion(u8),
    /// A UDP length field smaller than the 8-byte header itself.
    BadLength(u16),
    /// A fragmentation header with an impossible fragment geometry
    /// (`total == 0`, or `frag >= total`).
    BadFragment {
        /// Fragment number carried on the wire.
        frag: u16,
        /// Advertised fragment count.
        total: u16,
    },
    /// A fountain header with impossible block geometry (`k == 0`,
    /// `symbol_len == 0`, or a `block_len` inconsistent with
    /// `k × symbol_len`).
    BadFountain {
        /// Advertised source-symbol count.
        k: u16,
        /// Advertised symbol length, bytes.
        symbol_len: u16,
        /// Advertised true block length, bytes.
        block_len: u32,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { need, got } => {
                write!(f, "truncated packet: need {need} bytes, got {got}")
            }
            WireError::BadVersion(v) => write!(f, "unsupported RTP version {v}"),
            WireError::BadLength(l) => {
                write!(f, "UDP length field {l} is below the 8-byte header")
            }
            WireError::BadFragment { frag, total } => {
                write!(f, "impossible fragment geometry: fragment {frag} of {total}")
            }
            WireError::BadFountain {
                k,
                symbol_len,
                block_len,
            } => {
                write!(
                    f,
                    "impossible fountain geometry: k={k} symbol_len={symbol_len} block_len={block_len}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Decoded RTP header fields (the subset the application uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtpHeader {
    /// Marker bit — set ⇔ the payload is encrypted (paper Section 5).
    pub marker: bool,
    /// Payload type (96 = dynamic, used for our H.264 profile).
    pub payload_type: u8,
    /// Sequence number.
    pub sequence: u16,
    /// Media timestamp (90 kHz clock for video).
    pub timestamp: u32,
    /// Synchronisation source identifier.
    pub ssrc: u32,
}

impl RtpHeader {
    /// Serialise header + payload into a fresh buffer.
    pub fn emit(&self, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(RTP_HEADER_LEN + payload.len());
        buf.push(2 << 6); // V=2, P=0, X=0, CC=0
        buf.push((u8::from(self.marker) << 7) | (self.payload_type & 0x7f));
        buf.extend_from_slice(&self.sequence.to_be_bytes());
        buf.extend_from_slice(&self.timestamp.to_be_bytes());
        buf.extend_from_slice(&self.ssrc.to_be_bytes());
        buf.extend_from_slice(payload);
        buf
    }

    /// Serialise the 12-byte header into the front of `dst` in place —
    /// the zero-copy path: the packet buffer reserves [`RTP_HEADER_LEN`]
    /// bytes up front, the payload is built (and encrypted) behind them,
    /// and the header is stamped over the reserved prefix with no
    /// intermediate allocation. Byte-identical to the prefix of
    /// [`emit`](Self::emit).
    pub fn write_into(&self, dst: &mut [u8]) -> Result<(), WireError> {
        let Some((hdr, _)) = dst.split_first_chunk_mut::<RTP_HEADER_LEN>() else {
            return Err(WireError::Truncated {
                need: RTP_HEADER_LEN,
                got: dst.len(),
            });
        };
        let [s0, s1] = self.sequence.to_be_bytes();
        let [t0, t1, t2, t3] = self.timestamp.to_be_bytes();
        let [c0, c1, c2, c3] = self.ssrc.to_be_bytes();
        *hdr = [
            2 << 6, // V=2, P=0, X=0, CC=0
            (u8::from(self.marker) << 7) | (self.payload_type & 0x7f),
            s0,
            s1,
            t0,
            t1,
            t2,
            t3,
            c0,
            c1,
            c2,
            c3,
        ];
        Ok(())
    }
}

/// A typed view over an RTP packet buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtpPacket<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> RtpPacket<T> {
    /// Wrap a buffer, validating length and version.
    pub fn parse(buffer: T) -> Result<Self, WireError> {
        let b = buffer.as_ref();
        if b.len() < RTP_HEADER_LEN {
            return Err(WireError::Truncated {
                need: RTP_HEADER_LEN,
                got: b.len(),
            });
        }
        let version = b.first().map_or(0, |&v| v >> 6);
        if version != 2 {
            return Err(WireError::BadVersion(version));
        }
        Ok(RtpPacket { buffer })
    }

    /// Decoded header fields.
    pub fn header(&self) -> RtpHeader {
        let b = self.buffer.as_ref();
        // `parse` validated `len >= RTP_HEADER_LEN` at construction, so the
        // fixed prefix always destructures; the zeroed fallback is dead code
        // kept so this accessor can never panic on a corrupted invariant.
        match b.split_first_chunk::<RTP_HEADER_LEN>() {
            Some((&[_, m, s0, s1, t0, t1, t2, t3, c0, c1, c2, c3], _)) => RtpHeader {
                marker: m & 0x80 != 0,
                payload_type: m & 0x7f,
                sequence: u16::from_be_bytes([s0, s1]),
                timestamp: u32::from_be_bytes([t0, t1, t2, t3]),
                ssrc: u32::from_be_bytes([c0, c1, c2, c3]),
            },
            None => RtpHeader {
                marker: false,
                payload_type: 0,
                sequence: 0,
                timestamp: 0,
                ssrc: 0,
            },
        }
    }

    /// The payload after the fixed header.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[RTP_HEADER_LEN..]
    }

    /// Consume the view and return the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }
}

/// Decoded UDP header (RFC 768).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Total datagram length (header + payload), bytes.
    pub length: u16,
}

impl UdpHeader {
    /// Serialise header + payload (checksum transmitted as 0 — legal for
    /// IPv4 UDP and irrelevant to the model).
    pub fn emit(&self, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8 + payload.len());
        buf.extend_from_slice(&self.src_port.to_be_bytes());
        buf.extend_from_slice(&self.dst_port.to_be_bytes());
        // RFC 768 carries a 16-bit length; our MTU-segmented payloads sit
        // far below the ceiling, and an oversized one saturates instead of
        // silently wrapping around.
        let length = u16::try_from(8 + payload.len()).unwrap_or(u16::MAX);
        buf.extend_from_slice(&length.to_be_bytes());
        buf.extend_from_slice(&[0, 0]);
        buf.extend_from_slice(payload);
        buf
    }

    /// Parse a datagram into header and payload.
    pub fn parse(buffer: &[u8]) -> Result<(UdpHeader, &[u8]), WireError> {
        let Some((&[s0, s1, d0, d1, l0, l1, _, _], _)) = buffer.split_first_chunk::<8>() else {
            return Err(WireError::Truncated {
                need: 8,
                got: buffer.len(),
            });
        };
        let length = u16::from_be_bytes([l0, l1]);
        // A length below the header's own 8 bytes would make the payload
        // slice `[8..length]` inverted — reject it instead of panicking on
        // a hostile datagram.
        if length < 8 {
            return Err(WireError::BadLength(length));
        }
        if (length as usize) > buffer.len() {
            return Err(WireError::Truncated {
                need: length as usize,
                got: buffer.len(),
            });
        }
        Ok((
            UdpHeader {
                src_port: u16::from_be_bytes([s0, s1]),
                dst_port: u16::from_be_bytes([d0, d1]),
                length,
            },
            &buffer[8..length as usize],
        ))
    }
}

/// Length of the pipeline fragmentation header, bytes.
pub const FRAG_HEADER_LEN: usize = 8;

/// The pipeline's fragmentation header — the role H.264 FU-A indicators
/// play in RFC 6184: which frame a fragment belongs to, its position and
/// the total fragment count, so reassembly never depends on arrival order.
///
/// Carried at the front of every RTP payload and TCP segment payload the
/// real-bytes transports emit.
/// Parsing is fully defensive: hostile or corrupted bytes yield a
/// descriptive [`WireError`], never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragmentHeader {
    /// Absolute frame index (reserved values mark SPS/PPS lead-ins).
    pub frame: u32,
    /// Fragment number within the frame, `0..total`.
    pub frag: u16,
    /// Total fragments of the frame, `>= 1`.
    pub total: u16,
}

impl FragmentHeader {
    /// Build a header; callers are expected to keep `frag < total`.
    pub fn new(frame: u32, frag: u16, total: u16) -> Self {
        FragmentHeader { frame, frag, total }
    }

    /// Serialise to the 8-byte wire form.
    pub fn emit(&self) -> [u8; FRAG_HEADER_LEN] {
        let [f0, f1, f2, f3] = self.frame.to_be_bytes();
        let [g0, g1] = self.frag.to_be_bytes();
        let [t0, t1] = self.total.to_be_bytes();
        [f0, f1, f2, f3, g0, g1, t0, t1]
    }

    /// Parse a header off the front of `buffer`, returning it and the
    /// fragment body. Rejects short buffers and impossible geometry
    /// (`total == 0` or `frag >= total`) so a corrupted fragment becomes
    /// an erasure upstream instead of poisoning reassembly state.
    pub fn parse(buffer: &[u8]) -> Result<(FragmentHeader, &[u8]), WireError> {
        let Some((&[f0, f1, f2, f3, g0, g1, t0, t1], rest)) =
            buffer.split_first_chunk::<FRAG_HEADER_LEN>()
        else {
            return Err(WireError::Truncated {
                need: FRAG_HEADER_LEN,
                got: buffer.len(),
            });
        };
        let header = FragmentHeader {
            frame: u32::from_be_bytes([f0, f1, f2, f3]),
            frag: u16::from_be_bytes([g0, g1]),
            total: u16::from_be_bytes([t0, t1]),
        };
        if header.total == 0 || header.frag >= header.total {
            return Err(WireError::BadFragment {
                frag: header.frag,
                total: header.total,
            });
        }
        Ok((header, rest))
    }
}

/// Length of the fountain symbol header, bytes.
pub const FOUNTAIN_HEADER_LEN: usize = 16;

/// The fountain transport's per-symbol header: the `(block, symbol_id)`
/// coordinates an LT decoder needs to regenerate the symbol's neighbour
/// set from the shared session seed, plus the block geometry
/// (`k`, `symbol_len`, `block_len`) so a receiver can size its decoder
/// from the first symbol it happens to catch — rateless transports cannot
/// assume any particular symbol arrives first.
///
/// Parsing is fully defensive (panic-free lint tier): hostile or corrupted
/// bytes yield a descriptive [`WireError`] and become counted erasures
/// upstream, never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FountainHeader {
    /// Source block (GOP) number within the session.
    pub block: u32,
    /// Encoded symbol id; ids `< k` are the systematic prefix.
    pub symbol_id: u32,
    /// Source symbols in the block, `>= 1`.
    pub k: u16,
    /// Symbol payload length, bytes, `>= 1`.
    pub symbol_len: u16,
    /// True (unpadded) block length in bytes; must satisfy
    /// `(k-1)·symbol_len < block_len <= k·symbol_len`.
    pub block_len: u32,
}

impl FountainHeader {
    /// Build a header; callers are expected to keep the geometry
    /// consistent (`parse` enforces it on the receive path).
    pub fn new(block: u32, symbol_id: u32, k: u16, symbol_len: u16, block_len: u32) -> Self {
        FountainHeader {
            block,
            symbol_id,
            k,
            symbol_len,
            block_len,
        }
    }

    /// Whether `(k, symbol_len, block_len)` describe a realisable block.
    fn geometry_ok(&self) -> bool {
        if self.k == 0 || self.symbol_len == 0 || self.block_len == 0 {
            return false;
        }
        let cap = self.k as u64 * self.symbol_len as u64;
        let floor = (self.k as u64 - 1) * self.symbol_len as u64;
        let len = self.block_len as u64;
        len > floor && len <= cap
    }

    /// Serialise to the 16-byte wire form.
    pub fn emit(&self) -> [u8; FOUNTAIN_HEADER_LEN] {
        let [b0, b1, b2, b3] = self.block.to_be_bytes();
        let [s0, s1, s2, s3] = self.symbol_id.to_be_bytes();
        let [k0, k1] = self.k.to_be_bytes();
        let [l0, l1] = self.symbol_len.to_be_bytes();
        let [n0, n1, n2, n3] = self.block_len.to_be_bytes();
        [
            b0, b1, b2, b3, s0, s1, s2, s3, k0, k1, l0, l1, n0, n1, n2, n3,
        ]
    }

    /// Parse a header off the front of `buffer`, returning it and the
    /// symbol payload. Rejects short buffers and impossible geometry
    /// (`k == 0`, `symbol_len == 0`, or a `block_len` outside
    /// `((k-1)·symbol_len, k·symbol_len]`) so a corrupted symbol becomes
    /// an erasure upstream instead of poisoning decoder state.
    pub fn parse(buffer: &[u8]) -> Result<(FountainHeader, &[u8]), WireError> {
        let Some((&[b0, b1, b2, b3, s0, s1, s2, s3, k0, k1, l0, l1, n0, n1, n2, n3], rest)) =
            buffer.split_first_chunk::<FOUNTAIN_HEADER_LEN>()
        else {
            return Err(WireError::Truncated {
                need: FOUNTAIN_HEADER_LEN,
                got: buffer.len(),
            });
        };
        let header = FountainHeader {
            block: u32::from_be_bytes([b0, b1, b2, b3]),
            symbol_id: u32::from_be_bytes([s0, s1, s2, s3]),
            k: u16::from_be_bytes([k0, k1]),
            symbol_len: u16::from_be_bytes([l0, l1]),
            block_len: u32::from_be_bytes([n0, n1, n2, n3]),
        };
        if !header.geometry_ok() {
            return Err(WireError::BadFountain {
                k: header.k,
                symbol_len: header.symbol_len,
                block_len: header.block_len,
            });
        }
        Ok((header, rest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> RtpHeader {
        RtpHeader {
            marker: true,
            payload_type: 96,
            sequence: 4242,
            timestamp: 900_000,
            ssrc: 0xDEAD_BEEF,
        }
    }

    #[test]
    fn rtp_roundtrip() {
        let payload = b"encrypted video segment";
        let wire = header().emit(payload);
        assert_eq!(wire.len(), RTP_HEADER_LEN + payload.len());
        let pkt = RtpPacket::parse(wire.as_slice()).expect("emitted RTP packet must parse");
        assert_eq!(pkt.header(), header());
        assert_eq!(pkt.payload(), payload);
    }

    #[test]
    fn write_into_matches_emit_prefix() {
        let h = header();
        let payload = [0x5A; 30];
        let emitted = h.emit(&payload);
        // In-place build: reserve header room, payload behind it, stamp.
        let mut buf = vec![0u8; RTP_HEADER_LEN];
        buf.extend_from_slice(&payload);
        h.write_into(&mut buf).expect("12-byte prefix fits");
        assert_eq!(buf, emitted, "write_into must be byte-identical to emit");
        // Short destinations surface as typed errors, never a panic.
        let mut short = [0u8; RTP_HEADER_LEN - 1];
        assert_eq!(
            h.write_into(&mut short),
            Err(WireError::Truncated { need: 12, got: 11 })
        );
    }

    #[test]
    fn marker_bit_signals_encryption() {
        let mut h = header();
        for marker in [false, true] {
            h.marker = marker;
            let wire = h.emit(b"plain");
            let pkt = RtpPacket::parse(wire.as_slice()).expect("emitted packet must parse");
            assert_eq!(pkt.header().marker, marker);
            // The marker must not disturb the payload type.
            assert_eq!(pkt.header().payload_type, 96);
        }
    }

    #[test]
    fn short_rtp_rejected() {
        assert_eq!(
            RtpPacket::parse(&[0u8; 4][..]),
            Err(WireError::Truncated { need: 12, got: 4 })
        );
    }

    #[test]
    fn wrong_version_rejected() {
        let mut wire = header().emit(b"x");
        wire[0] = 1 << 6;
        assert_eq!(
            RtpPacket::parse(wire.as_slice()),
            Err(WireError::BadVersion(1))
        );
    }

    #[test]
    fn udp_roundtrip() {
        let h = UdpHeader {
            src_port: 5004,
            dst_port: 5006,
            length: 0, // filled by emit
        };
        let wire = h.emit(b"datagram");
        let (parsed, payload) = UdpHeader::parse(&wire).expect("emitted UDP datagram must parse");
        assert_eq!(parsed.src_port, 5004);
        assert_eq!(parsed.dst_port, 5006);
        assert_eq!(parsed.length as usize, 8 + 8);
        assert_eq!(payload, b"datagram");
    }

    #[test]
    fn udp_truncation_detected() {
        let wire = UdpHeader {
            src_port: 1,
            dst_port: 2,
            length: 0,
        }
        .emit(b"abcdef");
        assert!(UdpHeader::parse(&wire[..wire.len() - 2]).is_err());
        assert!(UdpHeader::parse(&wire[..4]).is_err());
    }

    #[test]
    fn overhead_constant_matches_headers() {
        assert_eq!(UDP_IP_OVERHEAD, 8 + 20);
    }

    #[test]
    fn udp_length_below_header_is_rejected_not_a_panic() {
        // A hostile datagram advertising length < 8 used to invert the
        // payload slice bounds; it must surface as a typed error.
        let mut wire = UdpHeader {
            src_port: 1,
            dst_port: 2,
            length: 0,
        }
        .emit(b"payload");
        wire[4] = 0;
        wire[5] = 3; // length field = 3 < 8
        assert_eq!(UdpHeader::parse(&wire), Err(WireError::BadLength(3)));
    }

    #[test]
    fn fragment_header_roundtrip() {
        let h = FragmentHeader::new(123_456, 3, 9);
        let mut wire = h.emit().to_vec();
        wire.extend_from_slice(b"fragment body");
        let (parsed, body) =
            FragmentHeader::parse(&wire).expect("emitted fragment header must parse");
        assert_eq!(parsed, h);
        assert_eq!(body, b"fragment body");
    }

    #[test]
    fn fragment_header_rejects_short_buffers() {
        for n in 0..FRAG_HEADER_LEN {
            assert_eq!(
                FragmentHeader::parse(&vec![0u8; n]),
                Err(WireError::Truncated {
                    need: FRAG_HEADER_LEN,
                    got: n
                })
            );
        }
    }

    #[test]
    fn fragment_header_rejects_impossible_geometry() {
        // total == 0 (all-zero bytes) — the classic corrupted-header shape.
        assert_eq!(
            FragmentHeader::parse(&[0u8; 8]),
            Err(WireError::BadFragment { frag: 0, total: 0 })
        );
        // frag >= total.
        let wire = FragmentHeader::new(7, 5, 5).emit();
        assert_eq!(
            FragmentHeader::parse(&wire),
            Err(WireError::BadFragment { frag: 5, total: 5 })
        );
        let msg = FragmentHeader::parse(&wire).unwrap_err().to_string();
        assert!(msg.contains("fragment 5 of 5"), "{msg}");
    }

    #[test]
    fn fountain_header_roundtrip() {
        let h = FountainHeader::new(3, 77, 12, 1200, 12 * 1200 - 5);
        let mut wire = h.emit().to_vec();
        wire.extend_from_slice(b"coded symbol payload");
        let (parsed, body) =
            FountainHeader::parse(&wire).expect("emitted fountain header must parse");
        assert_eq!(parsed, h);
        assert_eq!(body, b"coded symbol payload");
    }

    #[test]
    fn fountain_header_rejects_short_buffers() {
        for n in 0..FOUNTAIN_HEADER_LEN {
            assert_eq!(
                FountainHeader::parse(&vec![0u8; n]),
                Err(WireError::Truncated {
                    need: FOUNTAIN_HEADER_LEN,
                    got: n
                })
            );
        }
    }

    #[test]
    fn fountain_header_rejects_impossible_geometry() {
        // All-zero bytes: k == 0.
        assert_eq!(
            FountainHeader::parse(&[0u8; FOUNTAIN_HEADER_LEN]),
            Err(WireError::BadFountain {
                k: 0,
                symbol_len: 0,
                block_len: 0
            })
        );
        // symbol_len == 0 with plausible other fields.
        let wire = FountainHeader::new(0, 0, 4, 0, 100).emit();
        assert!(matches!(
            FountainHeader::parse(&wire),
            Err(WireError::BadFountain { symbol_len: 0, .. })
        ));
        // block_len too large for k symbols.
        let wire = FountainHeader::new(0, 0, 4, 100, 401).emit();
        assert!(matches!(
            FountainHeader::parse(&wire),
            Err(WireError::BadFountain { block_len: 401, .. })
        ));
        // block_len so small the last source symbol would be all pad.
        let wire = FountainHeader::new(0, 0, 4, 100, 300).emit();
        assert!(matches!(
            FountainHeader::parse(&wire),
            Err(WireError::BadFountain { block_len: 300, .. })
        ));
        // Boundary values are accepted: exactly full, and one into the
        // final symbol.
        assert!(FountainHeader::parse(&FountainHeader::new(0, 0, 4, 100, 400).emit()).is_ok());
        assert!(FountainHeader::parse(&FountainHeader::new(0, 0, 4, 100, 301).emit()).is_ok());
        let msg = FountainHeader::parse(&FountainHeader::new(0, 0, 4, 100, 401).emit())
            .unwrap_err()
            .to_string();
        assert!(msg.contains("k=4"), "{msg}");
    }
}
