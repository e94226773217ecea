//! Persistence of the vault's metadata catalog and quarantine list
//! onto a `teleios-store` [`StorageBackend`], in a compact binary
//! encoding.
//!
//! Keyspace `vault/catalog`: one entry per registered file, key =
//! file name bytes, value = a compact [`FileRecord`] encoding (name,
//! format, varint size, a presence flag + four raw-bit `f64`s for
//! the bbox, a presence flag + string for the acquisition instant,
//! varint-prefixed shape items). Keyspace `vault/quarantine`: one
//! empty-valued entry per fenced-off file.
//!
//! [`persist_vault_state`] writes the whole state on every call: it
//! deletes the keys of records no longer present and then puts every
//! catalog record and every quarantined name again, so one commit's
//! WAL record grows with the archive, not with the scene just
//! registered. The per-record keys are what would let a commit put
//! only the records that changed; nothing tracks that yet.

use std::collections::BTreeSet;

use teleios_store::codec::{put_f64, put_str, put_varint, Reader};
use teleios_store::{StorageBackend, StoreError};

use crate::catalog::{FileRecord, VaultCatalog};

/// Keyspace holding one entry per catalog record.
pub(crate) const CATALOG_KEYSPACE: &str = "vault/catalog";
/// Keyspace holding one empty entry per quarantined file.
pub(crate) const QUARANTINE_KEYSPACE: &str = "vault/quarantine";

fn encode_record(record: &FileRecord) -> Vec<u8> {
    let mut out = Vec::new();
    put_str(&mut out, &record.name);
    put_str(&mut out, &record.format);
    put_varint(&mut out, record.size_bytes as u64);
    match record.bbox {
        Some((a, b, c, d)) => {
            out.push(1);
            put_f64(&mut out, a);
            put_f64(&mut out, b);
            put_f64(&mut out, c);
            put_f64(&mut out, d);
        }
        None => out.push(0),
    }
    match &record.acquisition {
        Some(acq) => {
            out.push(1);
            put_str(&mut out, acq);
        }
        None => out.push(0),
    }
    put_varint(&mut out, record.shape.len() as u64);
    for dim in &record.shape {
        put_varint(&mut out, *dim as u64);
    }
    out
}

fn decode_record(bytes: &[u8]) -> Result<FileRecord, StoreError> {
    let mut r = Reader::new(bytes);
    let name = r.string()?;
    let format = r.string()?;
    let size_bytes = r.varint()? as usize;
    let bbox = match r.u8()? {
        0 => None,
        1 => Some((r.f64()?, r.f64()?, r.f64()?, r.f64()?)),
        other => {
            return Err(StoreError::Codec(format!("bad bbox flag {other}")));
        }
    };
    let acquisition = match r.u8()? {
        0 => None,
        1 => Some(r.string()?),
        other => {
            return Err(StoreError::Codec(format!("bad acquisition flag {other}")));
        }
    };
    let n_dims = r.varint()?;
    // A dimension is at least a one-byte varint.
    let mut shape = Vec::with_capacity(r.capacity_for(n_dims, 1));
    for _ in 0..n_dims {
        let dim = r.varint()?;
        shape.push(u32::try_from(dim).map_err(|_| {
            StoreError::Codec(format!("shape dimension {dim} out of range"))
        })?);
    }
    if !r.is_empty() {
        return Err(StoreError::Codec("trailing bytes after file record".into()));
    }
    Ok(FileRecord { name, format, size_bytes, bbox, acquisition, shape })
}

/// Stage the catalog and quarantine as puts/deletes inside the
/// backend's open transaction, removing entries for files no longer
/// registered or no longer quarantined.
pub fn persist_vault_state(
    catalog: &VaultCatalog,
    quarantine: &BTreeSet<String>,
    backend: &mut dyn StorageBackend,
) -> Result<(), StoreError> {
    for key in backend.keys(CATALOG_KEYSPACE)? {
        let still_here =
            std::str::from_utf8(&key).is_ok_and(|name| catalog.get(name).is_some());
        if !still_here {
            backend.delete(CATALOG_KEYSPACE, &key)?;
        }
    }
    for record in catalog.iter() {
        backend.put(CATALOG_KEYSPACE, record.name.as_bytes(), &encode_record(record))?;
    }
    for key in backend.keys(QUARANTINE_KEYSPACE)? {
        let still_fenced =
            std::str::from_utf8(&key).is_ok_and(|name| quarantine.contains(name));
        if !still_fenced {
            backend.delete(QUARANTINE_KEYSPACE, &key)?;
        }
    }
    for name in quarantine {
        backend.put(QUARANTINE_KEYSPACE, name.as_bytes(), &[])?;
    }
    Ok(())
}

/// Load the state persisted by [`persist_vault_state`]; `Ok(None)`
/// if nothing was ever persisted.
pub fn load_vault_state(
    backend: &dyn StorageBackend,
) -> Result<Option<(VaultCatalog, BTreeSet<String>)>, StoreError> {
    let records = backend.scan(CATALOG_KEYSPACE)?;
    let fenced = backend.keys(QUARANTINE_KEYSPACE)?;
    if records.is_empty() && fenced.is_empty() {
        return Ok(None);
    }
    let mut catalog = VaultCatalog::new();
    for (_, value) in records {
        catalog.register(decode_record(&value)?);
    }
    let mut quarantine = BTreeSet::new();
    for key in fenced {
        let name = String::from_utf8(key)
            .map_err(|_| StoreError::Codec("non-utf8 quarantine entry".into()))?;
        quarantine.insert(name);
    }
    Ok(Some((catalog, quarantine)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use teleios_check::Edits;
    use teleios_store::{transact, DurableBackend, DurableConfig, MemMedium};

    type MemBackend = DurableBackend<MemMedium>;

    fn mem_backend() -> MemBackend {
        DurableBackend::open(MemMedium::new(), DurableConfig::default()).unwrap()
    }

    fn save(catalog: &VaultCatalog, quarantine: &BTreeSet<String>, backend: &mut MemBackend) {
        transact(backend, |b| persist_vault_state(catalog, quarantine, b)).unwrap();
    }

    fn sample_record(name: &str) -> FileRecord {
        FileRecord {
            name: name.to_string(),
            format: "sev1".into(),
            size_bytes: 123_456,
            bbox: Some((20.0, 34.5, 28.25, 41.75)),
            acquisition: Some("2007-08-25T12:15:00Z".into()),
            shape: vec![4, 1024, 1024],
        }
    }

    fn sample_state() -> (VaultCatalog, BTreeSet<String>) {
        let mut catalog = VaultCatalog::new();
        catalog.register(sample_record("msg2-0825.sev1"));
        catalog.register(FileRecord {
            name: "landmass.shp1".into(),
            format: "shp1".into(),
            size_bytes: 42,
            bbox: None,
            acquisition: None,
            shape: vec![],
        });
        let mut quarantine = BTreeSet::new();
        quarantine.insert("corrupt-scene.sev1".to_string());
        (catalog, quarantine)
    }

    fn assert_catalogs_equal(a: &VaultCatalog, b: &VaultCatalog) {
        assert_eq!(a.len(), b.len());
        let ra: Vec<_> = a.iter().collect();
        let rb: Vec<_> = b.iter().collect();
        assert_eq!(ra, rb);
    }

    #[test]
    fn round_trip_through_memory_backend() {
        let (catalog, quarantine) = sample_state();
        let mut backend = mem_backend();
        save(&catalog, &quarantine, &mut backend);
        let (lc, lq) = load_vault_state(&backend).unwrap().unwrap();
        assert_catalogs_equal(&catalog, &lc);
        assert_eq!(quarantine, lq);
    }

    #[test]
    fn round_trip_survives_crash_recovery() {
        let (catalog, quarantine) = sample_state();
        let mut backend = mem_backend();
        save(&catalog, &quarantine, &mut backend);
        let mut medium = backend.into_medium();
        medium.crash();
        let recovered = DurableBackend::open(medium, DurableConfig::default()).unwrap();
        let (lc, lq) = load_vault_state(&recovered).unwrap().unwrap();
        assert_catalogs_equal(&catalog, &lc);
        assert_eq!(quarantine, lq);
    }

    #[test]
    fn missing_state_loads_as_none() {
        assert!(load_vault_state(&mem_backend()).unwrap().is_none());
    }

    #[test]
    fn removed_and_unfenced_entries_are_deleted_on_next_persist() {
        let (catalog, mut quarantine) = sample_state();
        let mut backend = mem_backend();
        save(&catalog, &quarantine, &mut backend);
        let mut survivors = VaultCatalog::new();
        survivors.register(catalog.get("landmass.shp1").unwrap().clone());
        quarantine.clear();
        save(&survivors, &quarantine, &mut backend);
        let (lc, lq) = load_vault_state(&backend).unwrap().unwrap();
        assert_eq!(lc.len(), 1);
        assert!(lc.get("landmass.shp1").is_some());
        assert!(lq.is_empty());
    }

    #[test]
    fn corrupt_record_is_a_codec_error() {
        let (catalog, quarantine) = sample_state();
        let mut backend = mem_backend();
        save(&catalog, &quarantine, &mut backend);
        transact(&mut backend, |b| b.put(CATALOG_KEYSPACE, b"msg2-0825.sev1", &[9, 9])).unwrap();
        assert!(matches!(load_vault_state(&backend), Err(StoreError::Codec(_))));
    }

    /// A backend holding one catalog record page.
    fn backend_with_record(page: &[u8]) -> MemBackend {
        let mut backend = mem_backend();
        transact(&mut backend, |b| b.put(CATALOG_KEYSPACE, b"record", page)).unwrap();
        backend
    }

    #[test]
    fn dimension_count_beyond_the_page_is_a_codec_error_not_an_allocation() {
        // A record with no bbox, no acquisition and 2^40 dimensions.
        let mut page = Vec::new();
        put_str(&mut page, "huge.sev1");
        put_str(&mut page, "sev1");
        put_varint(&mut page, 0);
        page.extend_from_slice(&[0, 0]);
        put_varint(&mut page, 1 << 40);
        assert!(matches!(load_vault_state(&backend_with_record(&page)), Err(StoreError::Codec(_))));
    }

    /// Each record page, put through the byte loop and loaded back: `Ok`
    /// or `Err`, never a panic, an abort or a hang.
    #[test]
    fn every_record_page_survives_the_byte_loop() {
        let (catalog, _) = sample_state();
        let pages: Vec<Vec<u8>> = catalog.iter().map(encode_record).collect();
        let seeds: Vec<&[u8]> = pages.iter().map(Vec::as_slice).collect();
        teleios_check::fuzz_bytes(&seeds, Edits::Binary, |_| {}, |bytes| {
            load_vault_state(&backend_with_record(bytes))
        });
    }

    #[test]
    fn bbox_f64_bits_are_exact() {
        let mut record = sample_record("edge.sev1");
        record.bbox = Some((-0.0, f64::MIN_POSITIVE, f64::INFINITY, 1.0e-308));
        let back = decode_record(&encode_record(&record)).unwrap();
        let (a, b, c, d) = back.bbox.unwrap();
        let (ea, eb, ec, ed) = record.bbox.unwrap();
        assert_eq!(
            [a.to_bits(), b.to_bits(), c.to_bits(), d.to_bits()],
            [ea.to_bits(), eb.to_bits(), ec.to_bits(), ed.to_bits()]
        );
    }
}
