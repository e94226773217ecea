//! Compact binary primitives shared by the WAL, snapshots, and the
//! domain encodings (triple deltas, column pages, catalog records):
//! LEB128 varints, zigzag signed integers, length-prefixed bytes and
//! strings, raw-bit `f64`s (NaN-preserving), and the one 64-bit
//! [`checksum`] every stored byte is verified with.

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
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v >> 63) ^ (v << 1)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(raw: u64) -> i64 {
    ((raw >> 1) as i64) ^ -((raw & 1) as i64)
}

/// Append a zigzag-varint signed integer.
pub fn put_zigzag(out: &mut Vec<u8>, v: i64) {
    put_varint(out, zigzag(v));
}

/// Append a length-prefixed byte slice.
pub(crate) fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
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

/// Odd 64-bit multipliers: multiplying by one is a bijection mod 2⁶⁴.
const PRIME: [u64; 3] = [0x9e37_79b1_85eb_ca87, 0xc2b2_ae3d_27d4_eb4f, 0x1656_67b1_9e37_79f9];

/// One multiply-rotate round: a bijection of `acc` for a fixed `word`,
/// and one-to-one in `word` for a fixed `acc`.
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(PRIME[1])).rotate_left(31).wrapping_mul(PRIME[0])
}

/// The 64-bit checksum guarding every WAL frame, snapshot payload and
/// vault file. Four independent lanes take the little-endian words of
/// each 32-byte stripe; their sum of rotations absorbs the length, then
/// the words under 32 one at a time (the last, partial one
/// zero-padded), and a bijective final mix ends it.
///
/// Every step is a bijection of the state it carries and one-to-one in
/// the word it takes, so damage confined to one aligned 8-byte word —
/// a flipped bit, a torn word, one bad tail byte — always changes the
/// value. Any other damage goes undetected with probability 2⁻⁶⁴.
pub fn checksum(bytes: &[u8]) -> u64 {
    let (stripes, tail) = bytes.as_chunks::<32>();
    let mut lanes = [PRIME[0].wrapping_add(PRIME[1]), PRIME[1], 0, PRIME[0].wrapping_neg()];
    for stripe in stripes {
        for (lane, word) in lanes.iter_mut().zip(stripe.as_chunks::<8>().0) {
            *lane = round(*lane, u64::from_le_bytes(*word));
        }
    }
    let spread = lanes.iter().zip([1, 7, 12, 18]).map(|(lane, r)| lane.rotate_left(r));
    let mut h = spread.fold(bytes.len() as u64, u64::wrapping_add);
    for word in tail.chunks(8) {
        let mut padded = [0u8; 8];
        padded[..word.len()].copy_from_slice(word);
        h = round(h, u64::from_le_bytes(padded));
    }
    h = (h ^ h >> 33).wrapping_mul(PRIME[1]);
    h = (h ^ h >> 29).wrapping_mul(PRIME[2]);
    h ^ h >> 32
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

    /// What to reserve for `count` items read from this buffer when
    /// each encodes to at least `min_bytes`: a count on the page is
    /// untrusted, but the items must fit in the bytes that remain, so
    /// those bound the allocation however large the count claims to be.
    pub fn capacity_for(&self, count: u64, min_bytes: usize) -> usize {
        let fits = self.remaining() / min_bytes.max(1);
        usize::try_from(count).map_or(fits, |n| n.min(fits))
    }

    pub(crate) fn position(&self) -> usize {
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
                return Err(StoreError::Codec(format!("varint overflow at offset {}", self.pos)));
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

    pub(crate) fn bytes(&mut self) -> Result<&'a [u8]> {
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

    /// The checksum is the wire format of every stored byte: its
    /// values are pinned, and every damage its doc comment promises to
    /// catch is caught, exhaustively over short buffers.
    #[test]
    fn checksum_is_pinned_and_catches_every_word_damage() {
        let sample = |len: usize| -> Vec<u8> { (0..len).map(|i| (i * 37 + 11) as u8).collect() };
        let lens = [0, 1, 7, 8, 31, 32, 33, 100];
        let pinned: Vec<(usize, u64)> = lens.map(|len| (len, checksum(&sample(len)))).to_vec();
        assert_eq!(
            pinned,
            [
                (0, 0x9090_306c_6e91_ed59),
                (1, 0x22b6_8b98_8558_6915),
                (7, 0xe6e3_182e_9ec8_af32),
                (8, 0x4a09_d6d8_d2e3_291c),
                (31, 0xb885_3b79_6ba5_c845),
                (32, 0xa926_fd50_fcb2_07c6),
                (33, 0x310d_4b08_e8cb_cb7e),
                (100, 0xdb91_0d92_15c1_c9d0),
            ]
        );
        for len in 0..=96 {
            let bytes = sample(len);
            let sum = checksum(&bytes);
            for bit in 0..len * 8 {
                let mut bad = bytes.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum(&bad), sum, "bit {bit} of {len} bytes");
            }
            for start in (0..len).step_by(8) {
                let word = start..(start + 8).min(len);
                for fill in [0x00, 0xff, 0x5a] {
                    let mut bad = bytes.clone();
                    bad[word.clone()].fill(fill);
                    if bad != bytes {
                        assert_ne!(checksum(&bad), sum, "word {word:?} of {len} := {fill:#x}");
                    }
                }
                let mut bad = bytes.clone();
                bad[word.clone()].iter_mut().for_each(|b| *b = !*b);
                assert_ne!(checksum(&bad), sum, "word {word:?} of {len} bytes inverted");
            }
        }
    }
}
