//! Passive packet capture — the eavesdropper's `tcpdump` substitute.
//!
//! The paper's threat model (Section 3): an eavesdropper on the same open
//! WiFi network overhears every transmission with `tcpdump` on a rooted
//! phone, can read unencrypted payloads, but must treat encrypted packets
//! (identified by the marker bit) as erasures. A [`PacketCapture`] is a tap
//! installed on the channel that records exactly that view.

/// One packet as seen by the eavesdropper's sniffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapturedPacket {
    /// Wire sequence number.
    pub seq: usize,
    /// Absolute video frame number the packet carries (inferred by the
    /// eavesdropper from RTP timestamps/sizes; we record ground truth).
    pub frame_index: usize,
    /// Payload length, bytes.
    pub bytes: usize,
    /// True if the marker bit flagged the payload as encrypted.
    pub encrypted: bool,
    /// Capture timestamp, seconds since stream start.
    pub time_s: f64,
}

/// An append-only capture log with summary queries.
#[derive(Debug, Clone, Default)]
pub struct PacketCapture {
    packets: Vec<CapturedPacket>,
}

impl PacketCapture {
    /// Create an empty capture.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one overheard packet.
    pub fn record(&mut self, packet: CapturedPacket) {
        self.packets.push(packet);
    }

    /// All captured packets, in capture order.
    pub fn packets(&self) -> &[CapturedPacket] {
        &self.packets
    }

    /// Number of captured packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Packets the eavesdropper can actually use (not encrypted).
    pub fn usable(&self) -> impl Iterator<Item = &CapturedPacket> {
        self.packets.iter().filter(|p| !p.encrypted)
    }

    /// Fraction of captured packets that were encrypted — the eavesdropper's
    /// empirical estimate of the sender's `q^(P)`.
    pub fn encrypted_fraction(&self) -> f64 {
        if self.packets.is_empty() {
            return 0.0;
        }
        self.packets.iter().filter(|p| p.encrypted).count() as f64 / self.packets.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(seq: usize, frame: usize, encrypted: bool) -> CapturedPacket {
        CapturedPacket {
            seq,
            frame_index: frame,
            bytes: 1000,
            encrypted,
            time_s: seq as f64 * 1e-3,
        }
    }

    #[test]
    fn empty_capture() {
        let c = PacketCapture::new();
        assert!(c.is_empty());
        assert_eq!(c.encrypted_fraction(), 0.0);
    }

    #[test]
    fn usable_filters_encrypted() {
        let mut c = PacketCapture::new();
        c.record(pkt(0, 0, true));
        c.record(pkt(1, 0, false));
        c.record(pkt(2, 1, false));
        assert_eq!(c.len(), 3);
        assert_eq!(c.usable().count(), 2);
        assert!((c.encrypted_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn capture_preserves_order_and_fields() {
        let mut c = PacketCapture::new();
        for i in 0..10 {
            c.record(pkt(i, i / 3, i % 2 == 0));
        }
        let seqs: Vec<usize> = c.packets().iter().map(|p| p.seq).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
        assert!((c.packets()[4].time_s - 4e-3).abs() < 1e-12);
    }
}
