//! Write-ahead log format and the never-failing scanner.
//!
//! Frame layout (little-endian):
//!
//! ```text
//! [payload_len: u32][checksum(payload): u64][payload: payload_len bytes]
//! ```
//!
//! Payload = `kind: u8` + kind-specific fields:
//!
//! | kind | record  | fields                                   |
//! |------|---------|------------------------------------------|
//! | 1    | Begin   | `seq` varint                             |
//! | 2    | Put     | `keyspace` str, `key` bytes, `value` bytes |
//! | 3    | Delete  | `keyspace` str, `key` bytes              |
//! | 4    | Commit  | `seq` varint                             |
//! | 5    | Patch   | `keyspace` str, `key` bytes, 3 varints, `middle` bytes |
//!
//! The varints are `base_len`, `keep_prefix` and `keep_suffix`, and
//! a patch sets the key to `base[..keep_prefix] ++ middle ++
//! base[base_len - keep_suffix..]`, `base` being the key's value when
//! it replays, and is written only over a value this log holds: the
//! first put of a key after a WAL reset is whole, and after `open` so
//! is the first put of a key whose value recovery did not replay from
//! this log. So no patch rests on a snapshot's value, and a fallback
//! to an older snapshot replays the log's values exactly. Replay
//! refuses a patch whose base is missing or not `base_len` bytes long
//! (`StoreError::Corrupt`).
//!
//! `scan` is total: it never returns an error. It walks frames
//! until the bytes stop verifying (short header, bad checksum, garbage
//! payload, or a length beyond the buffer) and reports the prefix
//! length that did verify — recovery then *truncates* the log there
//! instead of failing, which is the whole crash-tolerance story. Its
//! frames borrow the log buffer: no record is copied until replay
//! applies it.

use crate::codec::{checksum, put_bytes, put_str, put_varint, shared_prefix, shared_suffix, Reader};
use crate::{Result, StoreError};

/// File name of the write-ahead log inside a medium.
pub const WAL_FILE: &str = "wal.tlw";

/// Upper bound on a single record payload (1 GiB). A corrupt length
/// prefix beyond this is treated as a torn tail, not an allocation
/// request.
pub(crate) const MAX_RECORD: u32 = 1 << 30;

const FRAME_HEADER: usize = 12;

/// Bytes of the base value a put must keep to be logged as a patch.
const PATCH_MIN: usize = 64;

/// One WAL frame over borrowed bytes: what a commit encodes, and what
/// `scan` yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Frame<'a> {
    /// Open transaction `seq`. Any pending un-committed ops are
    /// discarded on replay.
    Begin { seq: u64 },
    /// Set `key` to `value` within the open txn.
    Put { keyspace: &'a str, key: &'a [u8], value: &'a [u8] },
    /// Set `key` to `patch` applied over its current value.
    Patch { keyspace: &'a str, key: &'a [u8], patch: Patch<'a> },
    /// Remove `key` within the open txn.
    Delete { keyspace: &'a str, key: &'a [u8] },
    /// Commit transaction `seq`: replay applies the pending ops iff
    /// the seq matches the open Begin.
    Commit { seq: u64 },
}

/// A value as an edit of a `base_len`-byte base: keep its first
/// `keep_prefix` and last `keep_suffix` bytes, with `middle` between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Patch<'a> {
    pub base_len: usize,
    pub keep_prefix: usize,
    pub keep_suffix: usize,
    pub middle: &'a [u8],
}

impl<'a> Patch<'a> {
    /// `value` as a patch over `base`, when it keeps at least
    /// [`PATCH_MIN`] bytes of it.
    pub(crate) fn diff(base: &[u8], value: &'a [u8]) -> Option<Patch<'a>> {
        let keep_prefix = shared_prefix(base, value);
        let keep_suffix = shared_suffix(&base[keep_prefix..], &value[keep_prefix..]);
        (keep_prefix + keep_suffix >= PATCH_MIN).then(|| Patch {
            base_len: base.len(),
            keep_prefix,
            keep_suffix,
            middle: &value[keep_prefix..value.len() - keep_suffix],
        })
    }

    /// Rewrite `value`, the patch's base, in place; `Corrupt` if it is
    /// not `base_len` bytes long.
    pub(crate) fn apply(&self, value: &mut Vec<u8>) -> Result<()> {
        if value.len() != self.base_len {
            return Err(StoreError::Corrupt(format!(
                "wal patch over a {}-byte base found {} bytes",
                self.base_len,
                value.len()
            )));
        }
        let replaced = self.keep_prefix..self.base_len - self.keep_suffix;
        if replaced.len() == self.middle.len() {
            value[replaced].copy_from_slice(self.middle);
        } else {
            value.splice(replaced, self.middle.iter().copied());
        }
        Ok(())
    }
}

const KIND_BEGIN: u8 = 1;
const KIND_PUT: u8 = 2;
const KIND_DELETE: u8 = 3;
const KIND_COMMIT: u8 = 4;
const KIND_PATCH: u8 = 5;

/// Append one frame to `out`: the payload (`kind`, then whatever
/// `body` writes) goes straight into `out` and the header is patched in
/// afterwards, so no payload byte passes through a second buffer.
fn put_frame(out: &mut Vec<u8>, kind: u8, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    out.push(kind);
    body(out);
    let payload = &out[start + FRAME_HEADER..];
    let (len, sum) = ((payload.len() as u32).to_le_bytes(), checksum(payload).to_le_bytes());
    out[start..start + 4].copy_from_slice(&len);
    out[start + 4..start + FRAME_HEADER].copy_from_slice(&sum);
}

/// Encode one frame, appending to `out`.
pub(crate) fn encode(out: &mut Vec<u8>, frame: &Frame) {
    match *frame {
        Frame::Begin { seq } => put_frame(out, KIND_BEGIN, |p| put_varint(p, seq)),
        Frame::Put { keyspace, key, value } => put_frame(out, KIND_PUT, |p| {
            put_str(p, keyspace);
            put_bytes(p, key);
            put_bytes(p, value);
        }),
        Frame::Patch { keyspace, key, patch } => put_frame(out, KIND_PATCH, |p| {
            put_str(p, keyspace);
            put_bytes(p, key);
            for n in [patch.base_len, patch.keep_prefix, patch.keep_suffix] {
                put_varint(p, n as u64);
            }
            put_bytes(p, patch.middle);
        }),
        Frame::Delete { keyspace, key } => put_frame(out, KIND_DELETE, |p| {
            put_str(p, keyspace);
            put_bytes(p, key);
        }),
        Frame::Commit { seq } => put_frame(out, KIND_COMMIT, |p| put_varint(p, seq)),
    }
}

fn decode_payload(payload: &[u8]) -> Result<Frame<'_>> {
    let mut r = Reader::new(payload);
    let kind = r.u8()?;
    let frame = match kind {
        KIND_BEGIN => Frame::Begin { seq: r.varint()? },
        KIND_PUT => Frame::Put { keyspace: r.str()?, key: r.bytes()?, value: r.bytes()? },
        KIND_PATCH => {
            let (keyspace, key) = (r.str()?, r.bytes()?);
            let mut len = || {
                let n = r.varint()?;
                usize::try_from(n).map_err(|_| StoreError::Codec(format!("wal patch length {n}")))
            };
            let (base_len, keep_prefix, keep_suffix) = (len()?, len()?, len()?);
            if keep_prefix.checked_add(keep_suffix).is_none_or(|kept| kept > base_len) {
                return Err(StoreError::Codec("wal patch keeps more than its base".into()));
            }
            let patch = Patch { base_len, keep_prefix, keep_suffix, middle: r.bytes()? };
            Frame::Patch { keyspace, key, patch }
        }
        KIND_DELETE => Frame::Delete { keyspace: r.str()?, key: r.bytes()? },
        KIND_COMMIT => Frame::Commit { seq: r.varint()? },
        other => {
            return Err(StoreError::Codec(format!("unknown wal record kind {other}")));
        }
    };
    if !r.is_empty() {
        return Err(StoreError::Codec(format!(
            "{} trailing bytes after wal record",
            r.remaining()
        )));
    }
    Ok(frame)
}

/// Result of scanning a WAL byte buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WalScan<'a> {
    /// Every frame that verified, in log order, borrowing the buffer.
    pub frames: Vec<Frame<'a>>,
    /// Byte length of the verified prefix. Appending after this
    /// offset (having truncated the rest) keeps the log well-formed.
    pub valid_len: usize,
    /// True if bytes after `valid_len` failed verification (torn or
    /// corrupt tail).
    pub truncated: bool,
}

/// Scan a WAL buffer. Total: stops at the first frame that fails
/// verification and reports how far it got — never errors, never
/// panics, never allocates from an attacker-controlled length.
pub(crate) fn scan(bytes: &[u8]) -> WalScan<'_> {
    let mut frames = Vec::new();
    let mut r = Reader::new(bytes);
    loop {
        let valid_len = r.position();
        match next_frame(&mut r) {
            Some(frame) => frames.push(frame),
            None => return WalScan { frames, valid_len, truncated: valid_len < bytes.len() },
        }
    }
}

/// The frame under the cursor, or `None` where the bytes stop
/// verifying: a short header, a length beyond [`MAX_RECORD`] or the
/// buffer, a bad checksum, or a payload that checks but does not
/// decode — all of them a torn tail.
fn next_frame<'a>(r: &mut Reader<'a>) -> Option<Frame<'a>> {
    let len = u32::from_le_bytes(r.array().ok()?);
    let sum = u64::from_le_bytes(r.array().ok()?);
    if len > MAX_RECORD {
        return None;
    }
    let payload = r.take(len as usize).ok()?;
    if checksum(payload) != sum {
        return None;
    }
    decode_payload(payload).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame<'static>> {
        vec![
            Frame::Begin { seq: 1 },
            Frame::Put { keyspace: "rdf/spo", key: b"triples", value: &[1, 2, 3] },
            Frame::Delete { keyspace: "vault/quarantine", key: b"scene-9" },
            Frame::Patch {
                keyspace: "rdf/dict",
                key: b"terms",
                patch: Patch { base_len: 200, keep_prefix: 120, keep_suffix: 70, middle: &[9; 4] },
            },
            Frame::Commit { seq: 1 },
        ]
    }

    fn encode_all(frames: &[Frame]) -> Vec<u8> {
        let mut out = Vec::new();
        for f in frames {
            encode(&mut out, f);
        }
        out
    }

    #[test]
    fn round_trip() {
        let frames = sample_frames();
        let bytes = encode_all(&frames);
        let scan = scan(&bytes);
        assert_eq!(scan.frames, frames);
        assert_eq!(scan.valid_len, bytes.len());
        assert!(!scan.truncated);
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut expected = (payload.len() as u32).to_le_bytes().to_vec();
        expected.extend_from_slice(&checksum(payload).to_le_bytes());
        expected.extend_from_slice(payload);
        expected
    }

    /// The frame layout is pinned byte for byte: a stored WAL must
    /// keep replaying whatever the encoder looks like.
    #[test]
    fn frame_bytes_are_len_checksum_payload() {
        let mut payload = vec![KIND_PUT, 7];
        payload.extend_from_slice(b"rdf/spo");
        payload.push(7);
        payload.extend_from_slice(b"triples");
        payload.extend_from_slice(&[3, 1, 2, 3]);
        assert_eq!(encode_all(&sample_frames()[1..2]), framed(&payload));
    }

    /// A patch frame: keyspace, key, the three lengths as varints
    /// (200 takes two bytes), then the middle.
    #[test]
    fn patch_frame_bytes_are_pinned() {
        let mut payload = vec![KIND_PATCH, 8];
        payload.extend_from_slice(b"rdf/dict");
        payload.push(5);
        payload.extend_from_slice(b"terms");
        payload.extend_from_slice(&[0xc8, 0x01, 120, 70]);
        payload.extend_from_slice(&[4, 9, 9, 9, 9]);
        assert_eq!(encode_all(&sample_frames()[3..4]), framed(&payload));
    }

    #[test]
    fn a_patch_rewrites_its_base_and_refuses_another() {
        let base: Vec<u8> = (0..=255).collect();
        for value in [
            [&base[..], b"appended"].concat(),
            [&base[..100], b"edited", &base[110..]].concat(),
            [&base[..100], &[0xaa; 10], &base[110..]].concat(),
            base[..200].to_vec(),
            base.clone(),
        ] {
            let patch = Patch::diff(&base, &value).unwrap();
            let mut replayed = base.clone();
            patch.apply(&mut replayed).unwrap();
            assert_eq!(replayed, value);
            let mut short = base[1..].to_vec();
            assert!(matches!(patch.apply(&mut short), Err(StoreError::Corrupt(_))));
        }
        assert_eq!(Patch::diff(&base[..63], &base[..63]), None, "under PATCH_MIN kept bytes");
        assert_eq!(Patch::diff(&base, &[7; 256]), None);
    }

    #[test]
    fn a_patch_keeping_more_than_its_base_is_torn() {
        let over = Patch { base_len: 10, keep_prefix: 6, keep_suffix: 5, middle: &[] };
        let bytes = encode_all(&[Frame::Patch { keyspace: "k", key: b"k", patch: over }]);
        let s = scan(&bytes);
        assert!(s.frames.is_empty() && s.truncated);
    }

    #[test]
    fn empty_log_scans_clean() {
        let s = scan(&[]);
        assert!(s.frames.is_empty());
        assert_eq!(s.valid_len, 0);
        assert!(!s.truncated);
    }

    #[test]
    fn every_truncation_offset_scans_without_panic() {
        let frames = sample_frames();
        let bytes = encode_all(&frames);
        // frame boundaries (prefix sums) where the scan should be clean
        let mut boundaries = vec![0usize];
        {
            let mut acc = Vec::new();
            for f in &frames {
                encode(&mut acc, f);
                boundaries.push(acc.len());
            }
        }
        for cut in 0..=bytes.len() {
            let s = scan(&bytes[..cut]);
            assert_eq!(s.truncated, !boundaries.contains(&cut), "offset {cut}");
            assert!(boundaries.contains(&s.valid_len), "valid_len lands on a boundary");
            assert!(s.valid_len <= cut);
        }
    }

    #[test]
    fn corrupt_payload_byte_truncates_at_that_frame() {
        let frames = sample_frames();
        let mut bytes = encode_all(&frames);
        // flip a byte inside the second frame's payload
        let first_len = encode_all(&frames[..1]).len();
        bytes[first_len + FRAME_HEADER + 2] ^= 0xff;
        let s = scan(&bytes);
        assert_eq!(s.frames, frames[..1].to_vec());
        assert_eq!(s.valid_len, first_len);
        assert!(s.truncated);
    }

    #[test]
    fn absurd_length_prefix_is_torn_not_an_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(MAX_RECORD + 1).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 8]);
        bytes.extend_from_slice(&[0u8; 64]);
        let s = scan(&bytes);
        assert!(s.frames.is_empty());
        assert_eq!(s.valid_len, 0);
        assert!(s.truncated);
    }

    /// Re-stamp every whole frame's checksum, so an edit reaches the payload
    /// decoder instead of stopping at the checksum.
    fn reseal(bytes: &mut [u8]) {
        let mut pos = 0;
        while let Some(header) = bytes.get(pos..pos + FRAME_HEADER) {
            let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
            let end = pos + FRAME_HEADER + len;
            let Some(payload) = bytes.get(pos + FRAME_HEADER..end) else { break };
            let sum = checksum(payload).to_le_bytes();
            bytes[pos + 4..pos + FRAME_HEADER].copy_from_slice(&sum);
            pos = end;
        }
    }

    /// The sample holds every kind, a patch frame among them.
    #[test]
    fn scan_survives_the_byte_loop() {
        let bytes = encode_all(&sample_frames());
        teleios_check::fuzz_bytes(&[&bytes], teleios_check::Edits::Binary, reseal, |b| {
            let s = scan(b);
            assert!(s.valid_len <= b.len() && s.truncated == (s.valid_len < b.len()));
            Ok::<_, ()>(s.frames.len())
        });
    }

    #[test]
    fn unknown_kind_is_torn() {
        let bytes = framed(&[99u8, 0, 0]);
        let s = scan(&bytes);
        assert!(s.frames.is_empty());
        assert!(s.truncated);
    }
}
