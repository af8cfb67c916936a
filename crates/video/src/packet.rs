//! MTU packetization of coded frames.
//!
//! "Depending on the Maximum Transmission Unit (MTU) of the network, each
//! frame is segmented into a number of packets" (paper Section 2). I-frames
//! fragment into trains of MTU-sized packets — the bursty phase of the
//! 2-MMPP arrival model — while a P-frame typically fits in a single,
//! smaller packet. This module performs that segmentation and derives the
//! packet-level statistics (`p_I`, packets per frame) the analytical model
//! consumes.

use crate::encoder::EncodedStream;
use crate::FrameType;

/// Metadata describing one video packet (one RTP payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VideoPacket {
    /// Global sequence number in transmission order (0-based).
    pub seq: usize,
    /// Absolute frame number this packet carries data for.
    pub frame_index: usize,
    /// Type of the carried frame.
    pub ftype: FrameType,
    /// Fragment number within the frame (0-based).
    pub fragment: usize,
    /// Total fragments of this frame.
    pub fragments_total: usize,
    /// Payload bytes in this packet.
    pub bytes: usize,
}

/// Splits frames into MTU-sized packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packetizer {
    /// Maximum payload bytes per packet (MTU minus RTP/UDP/IP overhead;
    /// 1460 is typical for 1500-byte Ethernet-class MTUs).
    pub mtu_payload: usize,
}

impl Default for Packetizer {
    fn default() -> Self {
        Packetizer { mtu_payload: 1460 }
    }
}

impl Packetizer {
    /// Construct with an explicit payload capacity.
    pub fn new(mtu_payload: usize) -> Self {
        assert!(mtu_payload > 0, "MTU payload must be positive");
        Packetizer { mtu_payload }
    }

    /// Number of packets an `n`-byte frame needs.
    fn fragments_for(&self, bytes: usize) -> usize {
        bytes.div_ceil(self.mtu_payload).max(1)
    }

    /// Packetize a whole coded stream, in decoding order.
    pub fn packetize(&self, stream: &EncodedStream) -> Vec<VideoPacket> {
        let mut out = Vec::new();
        let mut seq = 0usize;
        for frame in &stream.frames {
            let fragments_total = self.fragments_for(frame.bytes);
            let mut remaining = frame.bytes;
            for fragment in 0..fragments_total {
                let bytes = remaining.min(self.mtu_payload);
                remaining -= bytes;
                out.push(VideoPacket {
                    seq,
                    frame_index: frame.index,
                    ftype: frame.ftype,
                    fragment,
                    fragments_total,
                    bytes,
                });
                seq += 1;
            }
        }
        out
    }
}

/// Packet-level statistics of a packetized stream — the parameters the
/// analytical framework reads off the wire (Section 6.1 "minimal
/// measurements").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketStats {
    /// Total packets.
    pub total: usize,
    /// Packets that belong to I-frames.
    pub i_packets: usize,
    /// Fraction of packets belonging to I-frames (`p_I` in eq. 4).
    pub p_i: f64,
    /// Mean packets per I-frame (`n` in eq. 20 for I-frames).
    pub mean_fragments_i: f64,
    /// Mean packets per P-frame.
    pub mean_fragments_p: f64,
    /// Mean payload of an I-frame packet, bytes.
    pub mean_bytes_i: f64,
    /// Mean payload of a P-frame packet, bytes.
    pub mean_bytes_p: f64,
}

impl PacketStats {
    /// Compute statistics over a packet list.
    ///
    /// Returns `None` for an empty list or when either frame class is absent
    /// (the mixture model needs both).
    pub fn measure(packets: &[VideoPacket]) -> Option<PacketStats> {
        if packets.is_empty() {
            return None;
        }
        let (mut i_pkts, mut p_pkts, mut i_bytes, mut p_bytes) = (0usize, 0usize, 0usize, 0usize);
        let mut i_frames = std::collections::BTreeSet::new();
        let mut p_frames = std::collections::BTreeSet::new();
        for p in packets {
            match p.ftype {
                FrameType::I => {
                    i_pkts += 1;
                    i_bytes += p.bytes;
                    i_frames.insert(p.frame_index);
                }
                FrameType::P => {
                    p_pkts += 1;
                    p_bytes += p.bytes;
                    p_frames.insert(p.frame_index);
                }
            }
        }
        if i_pkts == 0 || p_pkts == 0 {
            return None;
        }
        Some(PacketStats {
            total: packets.len(),
            i_packets: i_pkts,
            p_i: i_pkts as f64 / packets.len() as f64,
            mean_fragments_i: i_pkts as f64 / i_frames.len() as f64,
            mean_fragments_p: p_pkts as f64 / p_frames.len() as f64,
            mean_bytes_i: i_bytes as f64 / i_pkts as f64,
            mean_bytes_p: p_bytes as f64 / p_pkts as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::StatisticalEncoder;
    use crate::MotionLevel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl VideoPacket {
        /// True if this is the first packet of its frame (carries the slice
        /// header; the decoder model requires it, Section 4.3.1).
        pub fn is_first_of_frame(&self) -> bool {
            self.fragment == 0
        }

        /// True if this is the last packet of its frame.
        pub fn is_last_of_frame(&self) -> bool {
            self.fragment + 1 == self.fragments_total
        }
    }

    fn sample_stream() -> EncodedStream {
        let mut rng = StdRng::seed_from_u64(10);
        StatisticalEncoder::new(MotionLevel::Low, 30).encode(300, &mut rng)
    }

    #[test]
    fn fragment_count_math() {
        let p = Packetizer::new(1460);
        assert_eq!(p.fragments_for(0), 1); // empty frame still ships a header
        assert_eq!(p.fragments_for(1), 1);
        assert_eq!(p.fragments_for(1460), 1);
        assert_eq!(p.fragments_for(1461), 2);
        assert_eq!(p.fragments_for(15_000), 11);
    }

    #[test]
    fn packetization_preserves_bytes_and_order() {
        let stream = sample_stream();
        let packets = Packetizer::default().packetize(&stream);
        let total: usize = packets.iter().map(|p| p.bytes).sum();
        assert_eq!(total, stream.total_bytes());
        // Sequence numbers are dense and increasing.
        for (k, p) in packets.iter().enumerate() {
            assert_eq!(p.seq, k);
        }
        // Fragments of a frame are contiguous and numbered.
        for w in packets.windows(2) {
            if w[0].frame_index == w[1].frame_index {
                assert_eq!(w[1].fragment, w[0].fragment + 1);
            } else {
                assert!(w[0].is_last_of_frame());
                assert!(w[1].is_first_of_frame());
            }
        }
    }

    #[test]
    fn i_frames_fragment_p_frames_do_not() {
        let stream = sample_stream();
        let packets = Packetizer::default().packetize(&stream);
        let stats = PacketStats::measure(&packets).unwrap();
        // 15 KB I-frames at 1460 B MTU ⇒ ~11 fragments.
        assert!(stats.mean_fragments_i > 8.0, "{stats:?}");
        // Slow-motion P-frames (~150 B) fit in one packet.
        assert!((stats.mean_fragments_p - 1.0).abs() < 1e-9, "{stats:?}");
        assert!(stats.mean_bytes_i > stats.mean_bytes_p);
    }

    #[test]
    fn no_packet_exceeds_mtu() {
        let stream = sample_stream();
        let p = Packetizer::new(500);
        for packet in p.packetize(&stream) {
            assert!(packet.bytes <= 500);
        }
    }

    #[test]
    fn stats_need_both_frame_classes() {
        assert!(PacketStats::measure(&[]).is_none());
        let only_i = vec![VideoPacket {
            seq: 0,
            frame_index: 0,
            ftype: FrameType::I,
            fragment: 0,
            fragments_total: 1,
            bytes: 100,
        }];
        assert!(PacketStats::measure(&only_i).is_none());
    }

    #[test]
    #[should_panic(expected = "MTU payload must be positive")]
    fn zero_mtu_rejected() {
        Packetizer::new(0);
    }

    #[test]
    fn p_i_matches_hand_count() {
        let stream = sample_stream();
        let packets = Packetizer::default().packetize(&stream);
        let stats = PacketStats::measure(&packets).unwrap();
        let i_count = packets.iter().filter(|p| p.ftype == FrameType::I).count();
        assert!((stats.p_i - i_count as f64 / packets.len() as f64).abs() < 1e-12);
        // For slow motion, I packets are a minority of frames but carry most bytes.
        let i_bytes: usize = packets
            .iter()
            .filter(|p| p.ftype == FrameType::I)
            .map(|p| p.bytes)
            .sum();
        assert!(i_bytes as f64 / stream.total_bytes() as f64 > 0.5);
    }
}
