//! Snapshot encoding: a checksummed, shared-prefix-compressed dump
//! of the full committed state at a sequence number.
//!
//! Layout: magic `b"TLSNAP2\n"`, then `len: u32 LE`,
//! `checksum(payload): u64 LE`, then the payload:
//!
//! ```text
//! seq varint
//! n_keyspaces varint
//! per keyspace:
//!   name str
//!   n_entries varint
//!   per entry (keys ascending):
//!     shared varint       # bytes shared with the previous key
//!     suffix bytes        # rest of the key
//!     value bytes
//! ```
//!
//! Keys inside a keyspace are stored sorted, so consecutive keys
//! share long prefixes (dictionary ids, column-page indexes) and the
//! shared-prefix compression does real work on the domain encodings.

use crate::backend::KeyspaceState;
use crate::codec::{checksum, put_bytes, put_str, put_varint, Reader};
use crate::{Result, StoreError};

/// Magic prefix identifying a snapshot file.
pub(crate) const MAGIC: &[u8; 8] = b"TLSNAP2\n";

/// Magic, payload length and payload checksum.
const HEADER: usize = MAGIC.len() + 12;

/// File name for the snapshot at sequence `seq` (hex-padded so
/// lexicographic order is sequence order).
pub fn snapshot_name(seq: u64) -> String {
    format!("snap-{seq:016x}.tls")
}

/// Parse a snapshot file name back to its sequence number.
pub(crate) fn parse_snapshot_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("snap-")?.strip_suffix(".tls")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

fn shared_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// Encode the full state at `seq` as a snapshot file body.
pub(crate) fn encode(seq: u64, state: &KeyspaceState) -> Vec<u8> {
    let mut payload = Vec::new();
    put_varint(&mut payload, seq);
    put_varint(&mut payload, state.len() as u64);
    for (name, entries) in state {
        put_str(&mut payload, name);
        put_varint(&mut payload, entries.len() as u64);
        let mut prev: &[u8] = &[];
        for (key, value) in entries {
            let shared = shared_prefix_len(prev, key);
            put_varint(&mut payload, shared as u64);
            put_bytes(&mut payload, &key[shared..]);
            put_bytes(&mut payload, value);
            prev = key;
        }
    }
    let mut out = Vec::with_capacity(HEADER + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Decode a snapshot file body back to `(seq, state)`. Any damage —
/// bad magic, bad length, bad checksum, structural nonsense — is
/// `Err(Corrupt)`, which recovery treats as "fall back to the
/// previous snapshot".
pub(crate) fn decode(bytes: &[u8]) -> Result<(u64, KeyspaceState)> {
    if bytes.len() < HEADER {
        return Err(StoreError::Corrupt("snapshot shorter than header".into()));
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(StoreError::Corrupt("bad snapshot magic".into()));
    }
    let mut header = Reader::new(&bytes[MAGIC.len()..]);
    let len = u32::from_le_bytes(header.array()?) as usize;
    let expect_sum = u64::from_le_bytes(header.array()?);
    let body = header.rest();
    if body.len() != len {
        return Err(StoreError::Corrupt(format!(
            "snapshot payload length {} != declared {len}",
            body.len()
        )));
    }
    if checksum(body) != expect_sum {
        return Err(StoreError::Corrupt("snapshot checksum mismatch".into()));
    }
    let mut r = Reader::new(body);
    let parse = |r: &mut Reader| -> Result<(u64, KeyspaceState)> {
        let seq = r.varint()?;
        let n_keyspaces = r.varint()?;
        let mut state = KeyspaceState::new();
        for _ in 0..n_keyspaces {
            let name = r.string()?;
            let n_entries = r.varint()?;
            let mut entries = std::collections::BTreeMap::new();
            let mut prev: Vec<u8> = Vec::new();
            for _ in 0..n_entries {
                let shared = r.varint()? as usize;
                if shared > prev.len() {
                    return Err(StoreError::Codec("shared prefix beyond previous key".into()));
                }
                let suffix = r.bytes()?.to_vec();
                let value = r.bytes()?.to_vec();
                let mut key = prev[..shared].to_vec();
                key.extend_from_slice(&suffix);
                prev = key.clone();
                entries.insert(key, value);
            }
            if !entries.is_empty() {
                state.insert(name, entries);
            }
        }
        if !r.is_empty() {
            return Err(StoreError::Codec("trailing bytes after snapshot state".into()));
        }
        Ok((seq, state))
    };
    parse(&mut r).map_err(|e| match e {
        StoreError::Codec(msg) => StoreError::Corrupt(format!("snapshot structure: {msg}")),
        other => other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sample_state() -> KeyspaceState {
        let mut state = KeyspaceState::new();
        let mut rdf = BTreeMap::new();
        rdf.insert(b"triples".to_vec(), vec![9u8; 40]);
        state.insert("rdf/spo".into(), rdf);
        let mut cols = BTreeMap::new();
        for i in 0u32..8 {
            let mut key = b"hotspots\x00".to_vec();
            key.extend_from_slice(&i.to_be_bytes());
            cols.insert(key, vec![i as u8; 16]);
        }
        state.insert("monet/col".into(), cols);
        state
    }

    #[test]
    fn round_trip() {
        let state = sample_state();
        let bytes = encode(42, &state);
        let (seq, back) = decode(&bytes).unwrap();
        assert_eq!(seq, 42);
        assert_eq!(back, state);
    }

    #[test]
    fn empty_state_round_trips() {
        let bytes = encode(0, &KeyspaceState::new());
        let (seq, back) = decode(&bytes).unwrap();
        assert_eq!(seq, 0);
        assert!(back.is_empty());
    }

    #[test]
    fn shared_prefix_compression_beats_naive() {
        let state = sample_state();
        let naive: usize =
            state.values().flat_map(|ks| ks.iter().map(|(k, v)| k.len() + v.len())).sum();
        let encoded = encode(1, &state).len();
        // 8 keys sharing a 9-byte prefix must compress below naive + framing slack
        assert!(encoded < naive + 64, "encoded {encoded} vs naive {naive}");
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = encode(7, &sample_state());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(decode(&bad).is_err(), "flip at byte {i} must not decode");
        }
    }

    #[test]
    fn decode_survives_the_byte_loop() {
        let bytes = encode(7, &sample_state());
        // Re-stamp the payload checksum, so an edit reaches the
        // structure parser instead of stopping at the checksum.
        let reseal = |b: &mut [u8]| {
            if b.len() >= HEADER {
                let sum = checksum(&b[HEADER..]).to_le_bytes();
                b[HEADER - 8..HEADER].copy_from_slice(&sum);
            }
        };
        teleios_check::fuzz_bytes(&[&bytes], teleios_check::Edits::Binary, reseal, decode);
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode(7, &sample_state());
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "truncation at {cut}");
        }
    }

    #[test]
    fn names_round_trip_and_sort_by_seq() {
        for seq in [0u64, 1, 64, u64::MAX] {
            assert_eq!(parse_snapshot_name(&snapshot_name(seq)), Some(seq));
        }
        assert!(snapshot_name(9) < snapshot_name(10));
        assert!(snapshot_name(255) < snapshot_name(256));
        assert_eq!(parse_snapshot_name("wal.tlw"), None);
        assert_eq!(parse_snapshot_name("snap-xyz.tls"), None);
    }
}
