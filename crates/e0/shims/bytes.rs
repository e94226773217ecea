//! Minimal offline stand-in for the `bytes` API the vault uses:
//! cheaply clonable `Bytes` (shared buffer + window), growable
//! `BytesMut`, and the big-endian `Buf`/`BufMut` accessors.

use std::ops::{Deref, Range};
use std::sync::Arc;

#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub fn new() -> Bytes {
        Bytes::default()
    }

    pub fn from_static(b: &'static [u8]) -> Bytes {
        Bytes::from(b.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A window over the same buffer; panics when out of range, like
    /// the real crate.
    pub fn slice(&self, range: Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice out of range"
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

/// Cursor-style big-endian reads; every getter panics when fewer bytes
/// remain than it needs, like the real crate.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }

    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_be_bytes(b)
    }

    fn get_f64(&mut self) -> f64 {
        f64::from_bits(self.get_u64())
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(dst.len() <= self.len(), "buffer underflow");
        dst.copy_from_slice(&self.data[self.start..self.start + dst.len()]);
        self.start += dst.len();
    }
}

#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    pub fn new() -> BytesMut {
        BytesMut(Vec::new())
    }

    pub fn with_capacity(n: usize) -> BytesMut {
        BytesMut(Vec::with_capacity(n))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.0)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }
}
