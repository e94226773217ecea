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
//!
//! [`scan`] is total: it never returns an error. It walks frames
//! until the bytes stop verifying (short header, bad checksum, garbage
//! payload, or a length beyond the buffer) and reports the prefix
//! length that did verify — recovery then *truncates* the log there
//! instead of failing, which is the whole crash-tolerance story.

use crate::backend::TxOp;
use crate::codec::{checksum, put_bytes, put_str, put_varint, Reader};
use crate::{Result, StoreError};

/// File name of the write-ahead log inside a medium.
pub const WAL_FILE: &str = "wal.tlw";

/// Upper bound on a single record payload (1 GiB). A corrupt length
/// prefix beyond this is treated as a torn tail, not an allocation
/// request.
pub const MAX_RECORD: u32 = 1 << 30;

const FRAME_HEADER: usize = 12;

/// One logical WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Open transaction `seq`. Any pending un-committed ops are
    /// discarded on replay.
    Begin { seq: u64 },
    /// One put or delete within the open txn.
    Op(TxOp),
    /// Commit transaction `seq`: replay applies the pending ops iff
    /// the seq matches the open Begin.
    Commit { seq: u64 },
}

const KIND_BEGIN: u8 = 1;
const KIND_PUT: u8 = 2;
const KIND_DELETE: u8 = 3;
const KIND_COMMIT: u8 = 4;

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

/// Encode one record as a framed WAL entry, appending to `out`.
pub fn encode_record(out: &mut Vec<u8>, record: &WalRecord) {
    match record {
        WalRecord::Begin { seq } => put_frame(out, KIND_BEGIN, |p| put_varint(p, *seq)),
        WalRecord::Op(op) => encode_op(out, op),
        WalRecord::Commit { seq } => put_frame(out, KIND_COMMIT, |p| put_varint(p, *seq)),
    }
}

/// Encode one buffered op as a framed WAL entry, appending to `out` —
/// what a commit frames its transaction's ops with, by reference.
pub fn encode_op(out: &mut Vec<u8>, op: &TxOp) {
    match op {
        TxOp::Put { keyspace, key, value } => put_frame(out, KIND_PUT, |p| {
            put_str(p, keyspace);
            put_bytes(p, key);
            put_bytes(p, value);
        }),
        TxOp::Delete { keyspace, key } => put_frame(out, KIND_DELETE, |p| {
            put_str(p, keyspace);
            put_bytes(p, key);
        }),
    }
}

fn decode_payload(payload: &[u8]) -> Result<WalRecord> {
    let mut r = Reader::new(payload);
    let kind = r.u8()?;
    let record = match kind {
        KIND_BEGIN => WalRecord::Begin { seq: r.varint()? },
        KIND_PUT => WalRecord::Op(TxOp::Put {
            keyspace: r.string()?,
            key: r.bytes()?.to_vec(),
            value: r.bytes()?.to_vec(),
        }),
        KIND_DELETE => {
            WalRecord::Op(TxOp::Delete { keyspace: r.string()?, key: r.bytes()?.to_vec() })
        }
        KIND_COMMIT => WalRecord::Commit { seq: r.varint()? },
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
    Ok(record)
}

/// Result of scanning a WAL byte buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// Every record that verified, in log order.
    pub records: Vec<WalRecord>,
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
pub fn scan(bytes: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut r = Reader::new(bytes);
    loop {
        let valid_len = r.position();
        match next_frame(&mut r) {
            Some(record) => records.push(record),
            None => return WalScan { records, valid_len, truncated: valid_len < bytes.len() },
        }
    }
}

/// The record of the frame under the cursor, or `None` where the
/// bytes stop verifying: a short header, a length beyond
/// [`MAX_RECORD`] or the buffer, a bad checksum, or a payload that
/// checks but does not decode — all of them a torn tail.
fn next_frame(r: &mut Reader) -> Option<WalRecord> {
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

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Begin { seq: 1 },
            WalRecord::Op(TxOp::Put {
                keyspace: "rdf/spo".into(),
                key: b"triples".to_vec(),
                value: vec![1, 2, 3],
            }),
            WalRecord::Op(TxOp::Delete {
                keyspace: "vault/quarantine".into(),
                key: b"scene-9".to_vec(),
            }),
            WalRecord::Commit { seq: 1 },
        ]
    }

    fn encode_all(records: &[WalRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in records {
            encode_record(&mut out, r);
        }
        out
    }

    #[test]
    fn round_trip() {
        let records = sample_records();
        let bytes = encode_all(&records);
        let scan = scan(&bytes);
        assert_eq!(scan.records, records);
        assert_eq!(scan.valid_len, bytes.len());
        assert!(!scan.truncated);
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
        let mut expected = (payload.len() as u32).to_le_bytes().to_vec();
        expected.extend_from_slice(&checksum(&payload).to_le_bytes());
        expected.extend_from_slice(&payload);
        assert_eq!(encode_all(&sample_records()[1..2]), expected);
    }

    #[test]
    fn empty_log_scans_clean() {
        let s = scan(&[]);
        assert!(s.records.is_empty());
        assert_eq!(s.valid_len, 0);
        assert!(!s.truncated);
    }

    #[test]
    fn every_truncation_offset_scans_without_panic() {
        let records = sample_records();
        let bytes = encode_all(&records);
        // frame boundaries (prefix sums) where the scan should be clean
        let mut boundaries = vec![0usize];
        {
            let mut acc = Vec::new();
            for r in &records {
                encode_record(&mut acc, r);
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
        let records = sample_records();
        let mut bytes = encode_all(&records);
        // flip a byte inside the second frame's payload
        let first_len = {
            let mut one = Vec::new();
            encode_record(&mut one, &records[0]);
            one.len()
        };
        bytes[first_len + FRAME_HEADER + 2] ^= 0xff;
        let s = scan(&bytes);
        assert_eq!(s.records, records[..1].to_vec());
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
        assert!(s.records.is_empty());
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

    #[test]
    fn scan_survives_the_byte_loop() {
        let bytes = encode_all(&sample_records());
        teleios_check::fuzz_bytes(&[&bytes], teleios_check::Edits::Binary, reseal, |b| {
            let s = scan(b);
            assert!(s.valid_len <= b.len() && s.truncated == (s.valid_len < b.len()));
            Ok::<_, ()>(s)
        });
    }

    #[test]
    fn unknown_kind_is_torn() {
        let payload = [99u8, 0, 0];
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&checksum(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let s = scan(&bytes);
        assert!(s.records.is_empty());
        assert!(s.truncated);
    }
}
