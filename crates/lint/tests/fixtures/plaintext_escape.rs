//! Fixture: payload bytes that escape to the wire in the clear.

pub fn leak(tx: &Sender, nal: &[u8], cipher: &SegmentCipher) {
    let buf = write_annex_b(nal);
    let mut pkt = Vec::new();
    pkt.extend_from_slice(&buf);
    if tx.send(pkt).is_err() {
        return;
    }
    let mut good = write_annex_b(nal);
    cipher.encrypt_segment(7, &mut good);
    let _ = tx.send(good);
    let mut cond = write_annex_b(nal);
    if policy_clears(nal) {
        cipher.encrypt_segment(9, &mut cond);
    }
    let _ = tx.send(cond);
}

pub fn leak_segment(nal: &[u8]) -> Vec<u8> {
    let payload = write_annex_b(nal);
    let segment = TcpSegment { seq: 1, payload };
    let header = TcpSegment { seq: 2, payload: Vec::new() };
    let _ = header.emit();
    segment.emit()
}
