//! The vault's metadata catalog.
//!
//! One record per registered external file, produced by the cheap
//! header-only parse at registration time. The catalog answers the
//! discovery queries ("which files cover this window / this period?")
//! without touching payloads; `crate::persist` carries it across a
//! restart.

use crate::format::{
    decode_gtf1_header, decode_sev1_header, decode_shp1_count, FormatKind,
};
use crate::Result;
use std::collections::BTreeMap;
use teleios_geo::{Coord, Envelope};

/// Metadata extracted from an external file's header.
#[derive(Debug, Clone, PartialEq)]
pub struct FileRecord {
    /// File name in the repository.
    pub name: String,
    /// Format tag (`sev1`, `gtf1`, `shp1`).
    pub format: String,
    /// Total size in bytes.
    pub size_bytes: usize,
    /// Geographic bounding box, when the format carries one.
    pub bbox: Option<(f64, f64, f64, f64)>,
    /// Acquisition instant, when the format carries one.
    pub acquisition: Option<String>,
    /// Raster shape (bands, rows, cols) or record count for shp1.
    pub shape: Vec<u32>,
}

impl FileRecord {
    /// Bounding box as an [`Envelope`], when present.
    pub fn envelope(&self) -> Option<Envelope> {
        self.bbox.map(|(x0, y0, x1, y1)| {
            Envelope::new(Coord::new(x0, y0), Coord::new(x1, y1))
        })
    }
}

/// Extract a metadata record from a file's bytes (header-only parse).
pub fn extract_metadata(name: &str, bytes: &[u8]) -> Result<FileRecord> {
    match FormatKind::from_name(name)? {
        FormatKind::Sev1 => {
            let h = decode_sev1_header(bytes)?;
            Ok(FileRecord {
                name: name.to_string(),
                format: "sev1".into(),
                size_bytes: bytes.len(),
                bbox: Some(h.bbox),
                acquisition: Some(h.acquisition),
                shape: vec![h.bands, h.rows, h.cols],
            })
        }
        FormatKind::Gtf1 => {
            let h = decode_gtf1_header(bytes)?;
            Ok(FileRecord {
                name: name.to_string(),
                format: "gtf1".into(),
                size_bytes: bytes.len(),
                bbox: Some(h.bbox()),
                acquisition: None,
                shape: vec![1, h.rows, h.cols],
            })
        }
        FormatKind::Shp1 => {
            let n = decode_shp1_count(bytes)?;
            Ok(FileRecord {
                name: name.to_string(),
                format: "shp1".into(),
                size_bytes: bytes.len(),
                bbox: None,
                acquisition: None,
                shape: vec![n],
            })
        }
    }
}

/// The metadata catalog: name → record.
#[derive(Debug, Clone, Default)]
pub struct VaultCatalog {
    records: BTreeMap<String, FileRecord>,
}

impl VaultCatalog {
    /// Empty catalog.
    pub fn new() -> VaultCatalog {
        VaultCatalog::default()
    }

    /// Register a record (replacing any previous one for the name).
    pub fn register(&mut self, record: FileRecord) {
        self.records.insert(record.name.clone(), record);
    }

    /// Lookup by name.
    pub fn get(&self, name: &str) -> Option<&FileRecord> {
        self.records.get(name)
    }

    /// Remove a record.
    pub fn remove(&mut self, name: &str) -> Option<FileRecord> {
        self.records.remove(name)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are registered.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterate all records (sorted by name).
    pub fn iter(&self) -> impl Iterator<Item = &FileRecord> {
        self.records.values()
    }

    /// Records whose acquisition instant falls in `[start, end)`.
    pub fn acquired_between(&self, start: &str, end: &str) -> Vec<&FileRecord> {
        self.records
            .values()
            .filter(|r| {
                r.acquisition
                    .as_deref()
                    .is_some_and(|a| a >= start && a < end)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{encode_sev1, encode_shp1, Sev1Header, Shp1Record};

    fn record(name: &str, bbox: (f64, f64, f64, f64), t: &str) -> FileRecord {
        let h = Sev1Header {
            rows: 2,
            cols: 2,
            bands: 1,
            acquisition: t.into(),
            bbox,
        };
        let bytes = encode_sev1(&h, &[0.0; 4]).unwrap();
        extract_metadata(name, &bytes).unwrap()
    }

    #[test]
    fn extract_sev1_metadata() {
        let r = record("x.sev1", (20.0, 35.0, 25.0, 40.0), "2007-08-25T12:00:00Z");
        assert_eq!(r.format, "sev1");
        assert_eq!(r.shape, vec![1, 2, 2]);
        assert_eq!(r.acquisition.as_deref(), Some("2007-08-25T12:00:00Z"));
        let env = r.envelope().unwrap();
        assert_eq!(env.min, Coord::new(20.0, 35.0));
    }

    #[test]
    fn extract_shp1_metadata() {
        let bytes = encode_shp1(&[Shp1Record { wkt: "POINT (1 2)".into(), label: "h".into() }]);
        let r = extract_metadata("f.shp1", &bytes).unwrap();
        assert_eq!(r.format, "shp1");
        assert_eq!(r.shape, vec![1]);
        assert!(r.bbox.is_none());
    }

    #[test]
    fn extract_rejects_mismatched_extension() {
        let bytes = encode_shp1(&[]);
        assert!(extract_metadata("f.sev1", &bytes).is_err());
    }

    #[test]
    fn acquired_between() {
        let mut cat = VaultCatalog::new();
        cat.register(record("a.sev1", (0.0, 0.0, 1.0, 1.0), "2007-08-25T12:00:00Z"));
        cat.register(record("b.sev1", (0.0, 0.0, 1.0, 1.0), "2007-08-25T13:00:00Z"));
        let hits = cat.acquired_between("2007-08-25T12:00:00Z", "2007-08-25T12:30:00Z");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].name, "a.sev1");
    }

    #[test]
    fn register_replaces() {
        let mut cat = VaultCatalog::new();
        cat.register(record("a.sev1", (0.0, 0.0, 1.0, 1.0), "t1"));
        cat.register(record("a.sev1", (5.0, 5.0, 6.0, 6.0), "t2"));
        assert_eq!(cat.len(), 1);
        assert_eq!(cat.get("a.sev1").unwrap().acquisition.as_deref(), Some("t2"));
        assert!(cat.remove("a.sev1").is_some());
        assert!(cat.is_empty());
    }
}
