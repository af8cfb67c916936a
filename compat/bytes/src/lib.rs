//! Offline drop-in for the subset of the `bytes` crate this workspace
//! uses: [`BytesMut`] as a growable buffer plus the [`BufMut`] big-endian
//! put methods. Backed by a plain `Vec<u8>`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

/// Sink for serialising integers and slices, mirroring `bytes::BufMut`.
pub trait BufMut {
    /// Append one byte.
    fn put_u8(&mut self, v: u8);
    /// Append a big-endian `u16`.
    fn put_u16(&mut self, v: u16);
    /// Append a big-endian `u32`.
    fn put_u32(&mut self, v: u32);
    /// Append a big-endian `u64`.
    fn put_u64(&mut self, v: u64);
    /// Append a byte slice.
    fn put_slice(&mut self, src: &[u8]);
}

/// A growable byte buffer, mirroring the `bytes::BytesMut` API surface the
/// wire-format code uses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// New empty buffer.
    pub fn new() -> Self {
        BytesMut { buf: Vec::new() }
    }

    /// New empty buffer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Copy out as a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.buf.clone()
    }
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl From<BytesMut> for Vec<u8> {
    fn from(b: BytesMut) -> Vec<u8> {
        b.buf
    }
}

#[cfg(test)]
mod tests {
    use super::{BufMut, BytesMut};

    #[test]
    fn puts_are_big_endian_and_ordered() {
        let mut b = BytesMut::with_capacity(16);
        b.put_u8(0xAB);
        b.put_u16(0x0102);
        b.put_u32(0x03040506);
        b.put_slice(&[9, 9]);
        assert_eq!(b.to_vec(), vec![0xAB, 1, 2, 3, 4, 5, 6, 9, 9]);
        assert_eq!(b.len(), 9);
        assert!(!b.is_empty());
    }
}
