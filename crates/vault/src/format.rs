//! Synthetic external file formats.
//!
//! The paper's archive holds proprietary formats (HDF, native SEVIRI,
//! GeoTIFF, ESRI shapefiles). We implement three binary stand-ins that
//! exercise the same code paths: a magic header that is cheap to parse
//! (metadata extraction) and a payload that is expensive relative to the
//! header (full materialization).
//!
//! Every format carries the store's 64-bit payload checksum
//! ([`teleios_store::codec::checksum`], big-endian) right after the
//! magic, so bit rot in the archive is detected at materialization time
//! ([`VaultError::Corrupt`]) instead of silently feeding garbage pixels
//! into the processing chains. Header-only parses skip verification —
//! registration stays cheap; corruption surfaces on first payload access,
//! matching the vault's just-in-time philosophy.

use crate::{Result, VaultError};
use teleios_store::codec::{checksum, Reader};

fn verify_payload(kind: &str, expected: u64, payload: &[u8]) -> Result<()> {
    let actual = checksum(payload);
    if actual != expected {
        return Err(VaultError::Corrupt(format!(
            "{kind} payload checksum mismatch: header says {expected:#018x}, payload hashes to {actual:#018x}"
        )));
    }
    Ok(())
}

/// Identifies an external format by its magic / extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FormatKind {
    /// SEVIRI-like raw multiband raster (`.sev1`).
    Sev1,
    /// GeoTIFF-like georeferenced single-band product (`.gtf1`).
    Gtf1,
    /// Shapefile-like WKT geometry set (`.shp1`).
    Shp1,
}

impl FormatKind {
    /// Detect a format from a file name extension.
    pub fn from_name(name: &str) -> Result<FormatKind> {
        let ext = name.rsplit('.').next().unwrap_or("");
        match ext.to_ascii_lowercase().as_str() {
            "sev1" => Ok(FormatKind::Sev1),
            "gtf1" => Ok(FormatKind::Gtf1),
            "shp1" => Ok(FormatKind::Shp1),
            other => Err(VaultError::UnknownFormat(format!("{name} (.{other})"))),
        }
    }

    /// The four-byte magic.
    pub fn magic(&self) -> &'static [u8; 4] {
        match self {
            FormatKind::Sev1 => b"SEV1",
            FormatKind::Gtf1 => b"GTF1",
            FormatKind::Shp1 => b"SHP1",
        }
    }
}

/// Header of a `.sev1` raster file.
#[derive(Debug, Clone, PartialEq)]
pub struct Sev1Header {
    /// Raster rows.
    pub rows: u32,
    /// Raster columns.
    pub cols: u32,
    /// Spectral bands.
    pub bands: u32,
    /// Acquisition instant (ISO-8601).
    pub acquisition: String,
    /// Geographic bounding box (min_lon, min_lat, max_lon, max_lat).
    pub bbox: (f64, f64, f64, f64),
}

/// Encode a `.sev1` file: header plus row-major band-major f64 payload.
pub fn encode_sev1(header: &Sev1Header, payload: &[f64]) -> Result<Vec<u8>> {
    check_cells(payload, &[header.rows, header.cols, header.bands])?;
    let mut out = start_file(FormatKind::Sev1, 72 + payload.len() * 8);
    put_u32(&mut out, header.rows);
    put_u32(&mut out, header.cols);
    put_u32(&mut out, header.bands);
    put_string(&mut out, &header.acquisition);
    let (x0, y0, x1, y1) = header.bbox;
    put_cells(&mut out, &[x0, y0, x1, y1]);
    Ok(finish_file(out, payload))
}

/// Parse only the header of a `.sev1` file (cheap metadata extraction;
/// the payload checksum is NOT verified here).
pub fn decode_sev1_header(bytes: &[u8]) -> Result<Sev1Header> {
    sev1_header(&mut open_file(bytes, FormatKind::Sev1)?.1)
}

fn sev1_header(r: &mut Fields) -> Result<Sev1Header> {
    let (rows, cols, bands) = (r.u32()?, r.u32()?, r.u32()?);
    let acquisition = r.string()?;
    let bbox = (r.f64()?, r.f64()?, r.f64()?, r.f64()?);
    Ok(Sev1Header { rows, cols, bands, acquisition, bbox })
}

/// Parse the full `.sev1` file: header plus checksum-verified payload.
pub fn decode_sev1(bytes: &[u8]) -> Result<(Sev1Header, Vec<f64>)> {
    let (sum, mut r) = open_file(bytes, FormatKind::Sev1)?;
    let header = sev1_header(&mut r)?;
    let payload = r.cells("sev1", sum, &[header.rows, header.cols, header.bands])?;
    Ok((header, payload))
}

/// Header of a `.gtf1` georeferenced product.
#[derive(Debug, Clone, PartialEq)]
pub struct Gtf1Header {
    /// Raster rows.
    pub rows: u32,
    /// Raster columns.
    pub cols: u32,
    /// Affine geotransform (origin_x, origin_y, pixel_w, pixel_h).
    pub transform: (f64, f64, f64, f64),
    /// EPSG code of the CRS.
    pub epsg: u32,
}

impl Gtf1Header {
    /// Geographic bounding box implied by the transform.
    pub fn bbox(&self) -> (f64, f64, f64, f64) {
        let (ox, oy, pw, ph) = self.transform;
        let x2 = ox + pw * self.cols as f64;
        let y2 = oy - ph * self.rows as f64;
        (ox.min(x2), oy.min(y2), ox.max(x2), oy.max(y2))
    }
}

/// Encode a `.gtf1` file.
pub fn encode_gtf1(header: &Gtf1Header, payload: &[f64]) -> Result<Vec<u8>> {
    check_cells(payload, &[header.rows, header.cols])?;
    let mut out = start_file(FormatKind::Gtf1, 56 + payload.len() * 8);
    put_u32(&mut out, header.rows);
    put_u32(&mut out, header.cols);
    put_u32(&mut out, header.epsg);
    let (ox, oy, pw, ph) = header.transform;
    put_cells(&mut out, &[ox, oy, pw, ph]);
    Ok(finish_file(out, payload))
}

/// Parse only the header of a `.gtf1` file (checksum not verified).
pub fn decode_gtf1_header(bytes: &[u8]) -> Result<Gtf1Header> {
    gtf1_header(&mut open_file(bytes, FormatKind::Gtf1)?.1)
}

fn gtf1_header(r: &mut Fields) -> Result<Gtf1Header> {
    let (rows, cols, epsg) = (r.u32()?, r.u32()?, r.u32()?);
    let transform = (r.f64()?, r.f64()?, r.f64()?, r.f64()?);
    Ok(Gtf1Header { rows, cols, transform, epsg })
}

/// Parse the full `.gtf1` file: header plus checksum-verified payload.
pub fn decode_gtf1(bytes: &[u8]) -> Result<(Gtf1Header, Vec<f64>)> {
    let (sum, mut r) = open_file(bytes, FormatKind::Gtf1)?;
    let header = gtf1_header(&mut r)?;
    let payload = r.cells("gtf1", sum, &[header.rows, header.cols])?;
    Ok((header, payload))
}

/// A `.shp1` record: WKT geometry plus a label attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct Shp1Record {
    /// Geometry in WKT.
    pub wkt: String,
    /// Feature label / attribute.
    pub label: String,
}

/// Encode a `.shp1` file.
pub fn encode_shp1(records: &[Shp1Record]) -> Vec<u8> {
    let mut out = start_file(FormatKind::Shp1, 16);
    put_u32(&mut out, records.len() as u32);
    let body = out.len();
    for r in records {
        put_string(&mut out, &r.wkt);
        put_string(&mut out, &r.label);
    }
    seal(out, body)
}

/// Parse a `.shp1` file. The "header" is the record count; record data
/// doubles as payload and is checksum-verified before parsing.
pub fn decode_shp1(bytes: &[u8]) -> Result<Vec<Shp1Record>> {
    let (sum, mut r) = open_file(bytes, FormatKind::Shp1)?;
    let n = r.u32()? as usize;
    verify_payload("shp1", sum, r.rest())?;
    // The count is outside the checksum: a record is at least two
    // length words, so a flipped count cannot size the allocation.
    let mut out = Vec::with_capacity(n.min(r.rest().len() / 8));
    for _ in 0..n {
        let wkt = r.string()?;
        let label = r.string()?;
        out.push(Shp1Record { wkt, label });
    }
    Ok(out)
}

/// Record count of a `.shp1` file without decoding (or verifying) records.
pub fn decode_shp1_count(bytes: &[u8]) -> Result<u32> {
    open_file(bytes, FormatKind::Shp1)?.1.u32()
}

/// Cell count implied by header dimensions, `None` on overflow.
fn cell_count(dims: &[u32]) -> Option<usize> {
    dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d as usize))
}

fn check_cells(payload: &[f64], dims: &[u32]) -> Result<()> {
    if cell_count(dims) == Some(payload.len()) {
        return Ok(());
    }
    Err(VaultError::Malformed(format!(
        "payload has {} cells, header implies {dims:?}",
        payload.len()
    )))
}

/// Magic plus a checksum slot that [`seal`] fills in.
fn start_file(kind: FormatKind, capacity: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(capacity);
    out.extend_from_slice(kind.magic());
    out.extend_from_slice(&[0; 8]);
    out
}

/// Append the payload cells and seal the file.
fn finish_file(mut out: Vec<u8>, payload: &[f64]) -> Vec<u8> {
    let body = out.len();
    put_cells(&mut out, payload);
    seal(out, body)
}

/// Write the checksum of `out[body..]` into the slot after the magic.
fn seal(mut out: Vec<u8>, body: usize) -> Vec<u8> {
    let sum = checksum(&out[body..]);
    out[4..12].copy_from_slice(&sum.to_be_bytes());
    out
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_cells(out: &mut Vec<u8>, cells: &[f64]) {
    for v in cells {
        out.extend_from_slice(&v.to_be_bytes());
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Check the magic and read the stored checksum; the cursor is left on
/// the first header field.
fn open_file(bytes: &[u8], kind: FormatKind) -> Result<(u64, Fields<'_>)> {
    let mut r = Fields(Reader::new(bytes));
    let magic: [u8; 4] = r.array("magic")?;
    if &magic != kind.magic() {
        return Err(VaultError::Malformed(format!(
            "bad magic {:?}, expected {:?}",
            magic,
            kind.magic()
        )));
    }
    let sum = u64::from_be_bytes(r.array("checksum")?);
    Ok((sum, r))
}

/// Big-endian field reads over the store's bounds-checked cursor:
/// running out of bytes is `Malformed`, never a panic.
struct Fields<'a>(Reader<'a>);

impl<'a> Fields<'a> {
    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        self.0.array().map_err(|_| VaultError::Malformed(format!("truncated {what}")))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_be_bytes(self.array("u32 field")?))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_be_bytes(self.array("f64 field")?))
    }

    fn string(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let raw =
            self.0.take(len).map_err(|_| VaultError::Malformed("truncated string body".into()))?;
        String::from_utf8(raw.to_vec()).map_err(|e| VaultError::Malformed(format!("bad utf8: {e}")))
    }

    /// Everything after the cursor.
    fn rest(&self) -> &'a [u8] {
        self.0.rest()
    }

    /// The checksum-verified payload of a raster whose header declared
    /// `dims`. The dimensions are untrusted: sizes are computed checked.
    fn cells(&self, kind: &str, sum: u64, dims: &[u32]) -> Result<Vec<f64>> {
        let rest = self.rest();
        let len = cell_count(dims).and_then(|n| n.checked_mul(8));
        let raw = len.and_then(|len| rest.get(..len)).ok_or_else(|| {
            VaultError::Malformed(format!(
                "{kind} payload truncated: header implies {dims:?} cells, have {} bytes",
                rest.len()
            ))
        })?;
        verify_payload(kind, sum, raw)?;
        Ok(raw.as_chunks().0.iter().map(|c| f64::from_be_bytes(*c)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sev1_header() -> Sev1Header {
        Sev1Header {
            rows: 2,
            cols: 3,
            bands: 2,
            acquisition: "2007-08-25T12:00:00Z".into(),
            bbox: (20.0, 35.0, 25.0, 40.0),
        }
    }

    #[test]
    fn format_detection() {
        assert_eq!(FormatKind::from_name("a.sev1").unwrap(), FormatKind::Sev1);
        assert_eq!(FormatKind::from_name("b.GTF1").unwrap(), FormatKind::Gtf1);
        assert_eq!(FormatKind::from_name("c.shp1").unwrap(), FormatKind::Shp1);
        assert!(FormatKind::from_name("d.tif").is_err());
    }

    #[test]
    fn sev1_roundtrip() {
        let h = sev1_header();
        let payload: Vec<f64> = (0..12).map(|v| v as f64).collect();
        let bytes = encode_sev1(&h, &payload).unwrap();
        let (h2, p2) = decode_sev1(&bytes).unwrap();
        assert_eq!(h, h2);
        assert_eq!(payload, p2);
    }

    #[test]
    fn sev1_header_only_is_cheap() {
        let h = sev1_header();
        let bytes = encode_sev1(&h, &[0.0; 12]).unwrap();
        let h2 = decode_sev1_header(&bytes).unwrap();
        assert_eq!(h, h2);
    }

    #[test]
    fn sev1_payload_size_checked() {
        assert!(encode_sev1(&sev1_header(), &[1.0, 2.0]).is_err());
    }

    #[test]
    fn sev1_truncated_payload_rejected() {
        let h = sev1_header();
        let bytes = encode_sev1(&h, &[0.0; 12]).unwrap();
        let cut = &bytes[..bytes.len() - 8];
        assert!(decode_sev1(cut).is_err());
        // The header still parses.
        assert!(decode_sev1_header(cut).is_ok());
    }

    #[test]
    fn wrong_magic_rejected() {
        let h = sev1_header();
        let bytes = encode_sev1(&h, &[0.0; 12]).unwrap();
        assert!(decode_gtf1_header(&bytes).is_err());
        assert!(decode_shp1(&bytes).is_err());
    }

    #[test]
    fn gtf1_roundtrip_and_bbox() {
        let h = Gtf1Header { rows: 10, cols: 20, transform: (21.0, 40.0, 0.1, 0.1), epsg: 4326 };
        let payload = vec![1.5; 200];
        let bytes = encode_gtf1(&h, &payload).unwrap();
        let (h2, p2) = decode_gtf1(&bytes).unwrap();
        assert_eq!(h, h2);
        assert_eq!(p2.len(), 200);
        let bbox = h.bbox();
        assert_eq!(bbox, (21.0, 39.0, 23.0, 40.0));
    }

    #[test]
    fn shp1_roundtrip() {
        let records = vec![
            Shp1Record { wkt: "POINT (1 2)".into(), label: "hotspot".into() },
            Shp1Record { wkt: "POLYGON ((0 0, 1 0, 1 1, 0 0))".into(), label: "burnt".into() },
        ];
        let bytes = encode_shp1(&records);
        assert_eq!(decode_shp1(&bytes).unwrap(), records);
        assert_eq!(decode_shp1_count(&bytes).unwrap(), 2);
    }

    #[test]
    fn shp1_empty() {
        let bytes = encode_shp1(&[]);
        assert!(decode_shp1(&bytes).unwrap().is_empty());
    }

    #[test]
    fn garbage_rejected_everywhere() {
        let garbage = b"xx";
        assert!(decode_sev1_header(garbage).is_err());
        assert!(decode_gtf1_header(garbage).is_err());
        assert!(decode_shp1(garbage).is_err());
    }

    #[test]
    fn sev1_bit_flip_detected_as_corrupt() {
        let h = sev1_header();
        let payload: Vec<f64> = (0..12).map(|v| v as f64).collect();
        let bytes = encode_sev1(&h, &payload).unwrap();
        let mut corrupt = bytes;
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        // The header still parses (checksums are not verified there)...
        assert!(decode_sev1_header(&corrupt).is_ok());
        // ...but full materialization reports corruption, not garbage data.
        assert!(matches!(decode_sev1(&corrupt), Err(VaultError::Corrupt(_))));
    }

    #[test]
    fn gtf1_bit_flip_detected_as_corrupt() {
        let h = Gtf1Header { rows: 4, cols: 4, transform: (21.0, 40.0, 0.1, 0.1), epsg: 4326 };
        let mut raw = encode_gtf1(&h, &[2.5; 16]).unwrap();
        raw[60] ^= 0x80; // a payload byte (header is 56 bytes)
        assert!(matches!(decode_gtf1(&raw), Err(VaultError::Corrupt(_))));
    }

    #[test]
    fn shp1_bit_flip_detected_as_corrupt() {
        let mut corrupt =
            encode_shp1(&[Shp1Record { wkt: "POINT (1 2)".into(), label: "hotspot".into() }]);
        corrupt[20] ^= 0x04; // inside the first record's WKT
        assert!(decode_shp1_count(&corrupt).is_ok());
        assert!(matches!(decode_shp1(&corrupt), Err(VaultError::Corrupt(_))));
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn gtf1_header() -> Gtf1Header {
        Gtf1Header { rows: 2, cols: 1, transform: (21.0, 40.0, 0.5, 0.25), epsg: 4326 }
    }

    fn shp1_records() -> Vec<Shp1Record> {
        vec![Shp1Record { wkt: "POINT (1 2)".into(), label: "h\u{e9}".into() }]
    }

    /// The wire format of each kind, byte for byte: big-endian fields,
    /// the store's checksum of the payload after the magic.
    #[test]
    fn wire_bytes_are_pinned() {
        let header = Sev1Header {
            rows: 1,
            cols: 2,
            bands: 1,
            acquisition: "T0".into(),
            bbox: (20.0, 35.0, 25.5, -40.0),
        };
        assert_eq!(
            hex(&encode_sev1(&header, &[1.5, -2.0]).unwrap()),
            "53455631a7212857e41abe2f0000000100000002000000010000000254304034000000000000\
             40418000000000004039800000000000c0440000000000003ff8000000000000c000000000000000"
        );
        assert_eq!(
            hex(&encode_gtf1(&gtf1_header(), &[0.0, 300.25]).unwrap()),
            "47544631100fc6ce3a7445cf0000000200000001000010e640350000000000004044000000000000\
             3fe00000000000003fd000000000000000000000000000004072c40000000000"
        );
        assert_eq!(
            hex(&encode_shp1(&shp1_records())),
            "53485031dc32c270be15177e000000010000000b504f494e542028312032290000000368c3a9"
        );
    }

    #[test]
    fn every_file_kind_survives_the_byte_loop() {
        let files = [
            encode_sev1(&sev1_header(), &[0.5; 12]).unwrap(),
            encode_gtf1(&gtf1_header(), &[0.0, 300.25]).unwrap(),
            encode_shp1(&shp1_records()),
        ];
        let seeds: Vec<&[u8]> = files.iter().map(Vec::as_slice).collect();
        // Every input decoded as every kind; a panic fails the test.
        teleios_check::fuzz_bytes(
            &seeds,
            teleios_check::Edits::Binary,
            |_| {},
            |bytes| {
                let _ = (decode_sev1(bytes), decode_sev1_header(bytes));
                let _ = (decode_gtf1(bytes), decode_gtf1_header(bytes));
                let _ = (decode_shp1(bytes), decode_shp1_count(bytes));
                Ok::<(), ()>(())
            },
        );
        for file in &files {
            // A proper prefix is never a whole file.
            assert!(decode_sev1(&file[..file.len() - 1]).is_err());
            assert!(decode_gtf1(&file[..file.len() - 1]).is_err());
            assert!(decode_shp1(&file[..file.len() - 1]).is_err());
        }
    }

    #[test]
    fn crafted_huge_dimensions_and_counts_are_malformed() {
        // rows = cols = bands = 0xFFFFFFFF: the cell count overflows usize.
        let mut sev1 = encode_sev1(&sev1_header(), &[0.5; 12]).unwrap();
        sev1[12..24].fill(0xff);
        assert!(matches!(decode_sev1(&sev1), Err(VaultError::Malformed(_))));
        // The header-only parse reports what the file claims.
        assert_eq!(decode_sev1_header(&sev1).unwrap().rows, u32::MAX);

        // rows * cols fits usize, the byte length does not.
        let mut gtf1 = encode_gtf1(&gtf1_header(), &[0.0, 300.25]).unwrap();
        gtf1[12..20].fill(0xff);
        assert!(matches!(decode_gtf1(&gtf1), Err(VaultError::Malformed(_))));

        // The record count sits outside the checksum: 4 G records
        // claimed, one present. No 4 G-slot allocation, no panic.
        let mut shp1 = encode_shp1(&shp1_records());
        shp1[12..16].fill(0xff);
        assert!(matches!(decode_shp1(&shp1), Err(VaultError::Malformed(_))));
        assert_eq!(decode_shp1_count(&shp1).unwrap(), u32::MAX);

        // Encoders check the same product.
        let huge = Sev1Header { rows: u32::MAX, cols: u32::MAX, bands: u32::MAX, ..sev1_header() };
        assert!(encode_sev1(&huge, &[]).is_err());
    }
}
