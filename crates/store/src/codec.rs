//! Compact binary primitives shared by the WAL, snapshots, and the
//! domain encodings (triple deltas, column pages, catalog records):
//! LEB128 varints, zigzag signed integers, length-prefixed bytes and
//! strings, raw-bit `f64`s (NaN-preserving), and a table-driven
//! IEEE CRC-32.

use crate::{Result, StoreError};

/// Append an unsigned LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Zigzag-encode a signed integer so small magnitudes stay small.
pub fn zigzag(v: i64) -> u64 {
    ((v >> 63) ^ (v << 1)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(raw: u64) -> i64 {
    ((raw >> 1) as i64) ^ -((raw & 1) as i64)
}

/// Append a zigzag-varint signed integer.
pub fn put_zigzag(out: &mut Vec<u8>, v: i64) {
    put_varint(out, zigzag(v));
}

/// Append a length-prefixed byte slice.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Append an `f64` as its raw little-endian bit pattern (exact for
/// every value including NaNs and signed zeros).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

const fn make_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xedb8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = make_crc_table();

/// IEEE CRC-32 of `bytes` (the checksum guarding every WAL frame and
/// snapshot payload).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// Bounds-checked cursor over an encoded buffer. Every read returns
/// `Err(StoreError::Codec)` instead of panicking on truncation, which
/// is what lets recovery treat arbitrary prefixes of the WAL as
/// "scan until the bytes stop making sense".
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    pub fn position(&self) -> usize {
        self.pos
    }

    fn short(&self, what: &str) -> StoreError {
        StoreError::Codec(format!("truncated {what} at offset {}", self.pos))
    }

    pub fn u8(&mut self) -> Result<u8> {
        let b = *self.buf.get(self.pos).ok_or_else(|| self.short("u8"))?;
        self.pos += 1;
        Ok(b)
    }

    pub fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(StoreError::Codec(format!(
                    "varint overflow at offset {}",
                    self.pos
                )));
            }
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    pub fn zigzag(&mut self) -> Result<i64> {
        Ok(unzigzag(self.varint()?))
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.short("bytes"));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.varint()?;
        if len > self.remaining() as u64 {
            return Err(self.short("length-prefixed bytes"));
        }
        self.take(len as usize)
    }

    pub fn string(&mut self) -> Result<String> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| StoreError::Codec("invalid utf-8 in string field".into()))
    }

    /// The next `N` bytes as a fixed-size array (for `from_be_bytes`
    /// / `from_le_bytes`).
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Everything not yet consumed.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(u64::from_le_bytes(self.array()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip_edges() {
        let cases = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &cases {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn zigzag_round_trip_edges() {
        let cases = [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN];
        for &v in &cases {
            assert_eq!(unzigzag(zigzag(v)), v, "zigzag round trip for {v}");
            let mut buf = Vec::new();
            put_zigzag(&mut buf, v);
            assert_eq!(Reader::new(&buf).zigzag().unwrap(), v);
        }
        // small magnitudes stay small on the wire
        let mut buf = Vec::new();
        put_zigzag(&mut buf, -2);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn varint_overflow_is_an_error_not_a_panic() {
        // eleven continuation bytes can never be a valid u64
        let buf = [0xffu8; 11];
        assert!(Reader::new(&buf).varint().is_err());
    }

    #[test]
    fn strings_and_bytes_round_trip() {
        let mut buf = Vec::new();
        put_str(&mut buf, "hot-spot");
        put_bytes(&mut buf, &[0, 255, 7]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.string().unwrap(), "hot-spot");
        assert_eq!(r.bytes().unwrap(), &[0, 255, 7]);
    }

    #[test]
    fn truncated_bytes_error() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, &[1, 2, 3, 4]);
        buf.truncate(3);
        assert!(Reader::new(&buf).bytes().is_err());
    }

    #[test]
    fn bogus_length_does_not_allocate_or_panic() {
        // declared length far beyond the buffer
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        assert!(Reader::new(&buf).bytes().is_err());
    }

    #[test]
    fn f64_preserves_nan_bits_and_negative_zero() {
        let weird_nan = f64::from_bits(0x7ff8_dead_beef_0001);
        for v in [0.0f64, -0.0, f64::INFINITY, weird_nan, 1.25e-300] {
            let mut buf = Vec::new();
            put_f64(&mut buf, v);
            let back = Reader::new(&buf).f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // standard IEEE test vector
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
