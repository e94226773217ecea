//! Persistence of catalog tables onto a `teleios-store`
//! [`StorageBackend`] as column pages — the BAT layout on disk.
//!
//! Keyspace `monet/schema`: one entry per table, key = lowercase
//! table name, value = case-preserved display name, varint column
//! count, then per column its name and a type tag.
//!
//! Keyspace `monet/col`: one page per column, key = lowercase table
//! name ++ `0x00` ++ big-endian `u32` column index (so a table's
//! pages scan contiguously in column order), value = type tag,
//! varint row count, an RLE validity section (varint run count; `0`
//! means "no nulls"; runs alternate starting with VALID), then the
//! values of the non-null rows only: `Int` as zigzag deltas,
//! `Double` as raw little-endian bits (NaN-exact), `Str`
//! length-prefixed, `Bool` bit-packed.
//!
//! Restore rebuilds each table via `Catalog::create_table` + row
//! inserts, which reproduces the column's internal validity
//! representation exactly (a column only carries a validity vector
//! if it actually holds nulls — same as a freshly pushed column).

use std::collections::BTreeMap;

use teleios_store::codec::{put_f64, put_str, put_varint, put_zigzag, Reader};
use teleios_store::{StorageBackend, StoreError};

use crate::catalog::Catalog;
use crate::table::{ColumnDef, Table};
use crate::value::{DataType, Value};

/// Keyspace holding per-table schema records.
pub(crate) const SCHEMA_KEYSPACE: &str = "monet/schema";
/// Keyspace holding column pages.
pub(crate) const COL_KEYSPACE: &str = "monet/col";

fn type_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Int => 0,
        DataType::Double => 1,
        DataType::Str => 2,
        DataType::Bool => 3,
    }
}

fn tag_type(tag: u8) -> Result<DataType, StoreError> {
    match tag {
        0 => Ok(DataType::Int),
        1 => Ok(DataType::Double),
        2 => Ok(DataType::Str),
        3 => Ok(DataType::Bool),
        other => Err(StoreError::Codec(format!("unknown column type tag {other}"))),
    }
}

fn table_key(name: &str) -> Vec<u8> {
    name.to_ascii_lowercase().into_bytes()
}

fn col_key(name: &str, idx: u32) -> Vec<u8> {
    let mut key = table_key(name);
    key.push(0);
    key.extend_from_slice(&idx.to_be_bytes());
    key
}

fn encode_schema(table: &Table) -> Vec<u8> {
    let mut out = Vec::new();
    put_str(&mut out, table.name());
    put_varint(&mut out, table.num_columns() as u64);
    for def in table.schema() {
        put_str(&mut out, &def.name);
        out.push(type_tag(def.ty));
    }
    out
}

fn decode_schema(bytes: &[u8]) -> Result<(String, Vec<ColumnDef>), StoreError> {
    let mut r = Reader::new(bytes);
    let name = r.string()?;
    let n_cols = r.varint()?;
    // A column is at least a one-byte name length and a type tag.
    let mut defs = Vec::with_capacity(r.capacity_for(n_cols, 2));
    for _ in 0..n_cols {
        let col_name = r.string()?;
        let ty = tag_type(r.u8()?)?;
        defs.push(ColumnDef { name: col_name, ty });
    }
    if !r.is_empty() {
        return Err(StoreError::Codec("trailing bytes after table schema".into()));
    }
    Ok((name, defs))
}

fn encode_column(table: &Table, idx: usize) -> Vec<u8> {
    let col = table.column(idx);
    let rows = col.len();
    let mut out = Vec::new();
    out.push(type_tag(col.data_type()));
    put_varint(&mut out, rows as u64);

    // validity as alternating RLE runs, starting VALID; 0 runs = no nulls
    if col.null_count() == 0 {
        put_varint(&mut out, 0);
    } else {
        let mut runs: Vec<u64> = Vec::new();
        let mut current_valid = true;
        let mut run_len = 0u64;
        for i in 0..rows {
            let valid = !col.is_null(i);
            if valid == current_valid {
                run_len += 1;
            } else {
                runs.push(run_len);
                current_valid = valid;
                run_len = 1;
            }
        }
        runs.push(run_len);
        put_varint(&mut out, runs.len() as u64);
        for run in runs {
            put_varint(&mut out, run);
        }
    }

    // non-null values only
    match col.data_type() {
        DataType::Int => {
            let mut prev = 0i64;
            for i in 0..rows {
                if let Value::Int(v) = col.get(i) {
                    put_zigzag(&mut out, v.wrapping_sub(prev));
                    prev = v;
                }
            }
        }
        DataType::Double => {
            for i in 0..rows {
                if let Value::Double(v) = col.get(i) {
                    put_f64(&mut out, v);
                }
            }
        }
        DataType::Str => {
            for i in 0..rows {
                if let Value::Str(v) = col.get(i) {
                    put_str(&mut out, &v);
                }
            }
        }
        DataType::Bool => {
            let mut bits = 0u8;
            let mut n_bits = 0u8;
            for i in 0..rows {
                if let Value::Bool(v) = col.get(i) {
                    if v {
                        bits |= 1 << n_bits;
                    }
                    n_bits += 1;
                    if n_bits == 8 {
                        out.push(bits);
                        bits = 0;
                        n_bits = 0;
                    }
                }
            }
            if n_bits > 0 {
                out.push(bits);
            }
        }
    }
    out
}

struct ColumnPage {
    ty: DataType,
    values: Vec<Value>, // row-aligned, Value::Null where invalid
}

/// The most rows one column page may hold: 2^24 (16.7 M), far above
/// any table the observatory persists. Non-null values are bounded by
/// the page's own bytes, but an all-null run encodes any number of
/// rows in a few bytes, so the row count needs an explicit cap before
/// the decoder allocates per row. [`persist_catalog`] refuses a table
/// it could not load back.
const MAX_PAGE_ROWS: usize = 1 << 24;

fn decode_column(bytes: &[u8]) -> Result<ColumnPage, StoreError> {
    let mut r = Reader::new(bytes);
    let ty = tag_type(r.u8()?)?;
    let rows = r.varint()?;
    if rows > MAX_PAGE_ROWS as u64 {
        return Err(StoreError::Codec(format!(
            "column page claims {rows} rows, more than the {MAX_PAGE_ROWS} a page holds"
        )));
    }
    let rows = rows as usize;

    let n_runs = r.varint()? as usize;
    let mut validity = vec![true; rows];
    if n_runs > 0 {
        let mut pos = 0usize;
        let mut current_valid = true;
        for _ in 0..n_runs {
            let run = r.varint()? as usize;
            // `pos <= rows` holds, so this cannot overflow as `pos + run` can.
            if run > rows - pos {
                return Err(StoreError::Codec("validity runs exceed row count".into()));
            }
            for slot in &mut validity[pos..pos + run] {
                *slot = current_valid;
            }
            pos += run;
            current_valid = !current_valid;
        }
        if pos != rows {
            return Err(StoreError::Codec("validity runs do not cover all rows".into()));
        }
    }
    let n_present = validity.iter().filter(|v| **v).count();

    // A present value is at least one bit (a packed Bool).
    let mut present: Vec<Value> =
        Vec::with_capacity(n_present.min(r.remaining().saturating_mul(8)));
    match ty {
        DataType::Int => {
            let mut prev = 0i64;
            for _ in 0..n_present {
                prev = prev.wrapping_add(r.zigzag()?);
                present.push(Value::Int(prev));
            }
        }
        DataType::Double => {
            for _ in 0..n_present {
                present.push(Value::Double(r.f64()?));
            }
        }
        DataType::Str => {
            for _ in 0..n_present {
                present.push(Value::Str(r.string()?));
            }
        }
        DataType::Bool => {
            let n_bytes = n_present.div_ceil(8);
            let packed = r.take(n_bytes)?;
            for i in 0..n_present {
                present.push(Value::Bool(packed[i / 8] & (1 << (i % 8)) != 0));
            }
        }
    }
    if !r.is_empty() {
        return Err(StoreError::Codec("trailing bytes after column page".into()));
    }

    let mut present_iter = present.into_iter();
    let mut values = Vec::with_capacity(rows);
    for valid in validity {
        if valid {
            values.push(
                present_iter
                    .next()
                    .ok_or_else(|| StoreError::Codec("column page ran out of values".into()))?,
            );
        } else {
            values.push(Value::Null);
        }
    }
    Ok(ColumnPage { ty, values })
}

/// Stage every catalog table (schema + column pages) as puts inside
/// the backend's open transaction, deleting the pages of tables that
/// no longer exist and of columns past a narrowed table's width.
pub fn persist_catalog(
    catalog: &Catalog,
    backend: &mut dyn StorageBackend,
) -> Result<(), StoreError> {
    let mut tables = Vec::new();
    for name in catalog.table_names() {
        let table = catalog
            .table(&name)
            .map_err(|e| StoreError::Codec(format!("catalog read: {e}")))?;
        if table.num_rows() > MAX_PAGE_ROWS {
            return Err(StoreError::Codec(format!(
                "table {name} has {} rows, more than the {MAX_PAGE_ROWS} a column page holds",
                table.num_rows()
            )));
        }
        tables.push((name, table));
    }
    let widths: BTreeMap<Vec<u8>, usize> =
        tables.iter().map(|(name, table)| (table_key(name), table.num_columns())).collect();
    for (key, _) in backend.scan(SCHEMA_KEYSPACE)? {
        if !widths.contains_key(&key) {
            backend.delete(SCHEMA_KEYSPACE, &key)?;
        }
    }
    // One pass over the committed column pages: a page is stale when
    // its table is gone or its index is at or past the table's width.
    for (key, _) in backend.scan(COL_KEYSPACE)? {
        let mut parts = key.splitn(2, |b| *b == 0);
        let width = parts.next().and_then(|t| widths.get(t));
        let idx = parts.next().and_then(|i| <[u8; 4]>::try_from(i).ok()).map(u32::from_be_bytes);
        let stale = match width {
            None => true,
            Some(&width) => idx.is_some_and(|idx| idx as usize >= width),
        };
        if stale {
            backend.delete(COL_KEYSPACE, &key)?;
        }
    }
    for (name, table) in &tables {
        backend.put(SCHEMA_KEYSPACE, &table_key(name), &encode_schema(table))?;
        for idx in 0..table.num_columns() {
            backend.put(COL_KEYSPACE, &col_key(name, idx as u32), &encode_column(table, idx))?;
        }
    }
    Ok(())
}

/// Load all tables persisted by [`persist_catalog`] into a fresh
/// catalog; `Ok(None)` if nothing was ever persisted.
pub fn load_catalog(backend: &dyn StorageBackend) -> Result<Option<Catalog>, StoreError> {
    let schemas = backend.scan(SCHEMA_KEYSPACE)?;
    if schemas.is_empty() {
        return Ok(None);
    }
    let catalog = Catalog::new();
    for (key, schema_bytes) in schemas {
        let (name, defs) = decode_schema(&schema_bytes)?;
        catalog
            .create_table(&name, defs.clone())
            .map_err(|e| StoreError::Codec(format!("recreate table: {e}")))?;

        let mut columns: Vec<ColumnPage> = Vec::with_capacity(defs.len());
        for (idx, def) in defs.iter().enumerate() {
            let mut col_k = key.clone();
            col_k.push(0);
            col_k.extend_from_slice(&(idx as u32).to_be_bytes());
            let page = backend.get(COL_KEYSPACE, &col_k)?.ok_or_else(|| {
                StoreError::Codec(format!("missing column page {idx} for table {name}"))
            })?;
            let page = decode_column(&page)?;
            if page.ty != def.ty {
                return Err(StoreError::Codec(format!(
                    "column {idx} of {name} has type {:?}, schema says {:?}",
                    page.ty, def.ty
                )));
            }
            columns.push(page);
        }
        let rows = columns.first().map(|c| c.values.len()).unwrap_or(0);
        if columns.iter().any(|c| c.values.len() != rows) {
            return Err(StoreError::Codec(format!("ragged column pages for table {name}")));
        }
        let mut row_values = Vec::with_capacity(rows);
        for i in 0..rows {
            row_values.push(columns.iter().map(|c| c.values[i].clone()).collect::<Vec<_>>());
        }
        if !row_values.is_empty() {
            catalog
                .insert(&name, row_values)
                .map_err(|e| StoreError::Codec(format!("refill table: {e}")))?;
        }
    }
    Ok(Some(catalog))
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

    fn save(catalog: &Catalog, backend: &mut MemBackend) {
        transact(backend, |b| persist_catalog(catalog, b)).unwrap();
    }

    /// A backend holding exactly `pages`, as `(keyspace, key, bytes)`.
    fn backend_with(pages: &[(&str, &[u8], &[u8])]) -> MemBackend {
        let mut backend = mem_backend();
        transact(&mut backend, |b| {
            pages.iter().try_for_each(|(keyspace, key, bytes)| b.put(keyspace, key, bytes))
        })
        .unwrap();
        backend
    }

    /// Every page `persist_catalog` writes, put through the byte loop
    /// in place (the other pages intact) and loaded back: `Ok` or
    /// `Err`, never a panic, an abort or a hang.
    #[test]
    fn every_page_survives_the_byte_loop() {
        let mut saved = mem_backend();
        save(&sample_catalog(), &mut saved);
        let pages: Vec<(&str, Vec<u8>, Vec<u8>)> = [SCHEMA_KEYSPACE, COL_KEYSPACE]
            .into_iter()
            .flat_map(|ks| saved.scan(ks).unwrap().into_iter().map(move |(k, v)| (ks, k, v)))
            .collect();
        for (i, (_, _, page)) in pages.iter().enumerate() {
            teleios_check::fuzz_bytes(&[page], Edits::Binary, |_| {}, |bytes| {
                let staged: Vec<(&str, &[u8], &[u8])> = pages
                    .iter()
                    .enumerate()
                    .map(|(j, (ks, key, v))| (*ks, key.as_slice(), if i == j { bytes } else { v.as_slice() }))
                    .collect();
                load_catalog(&backend_with(&staged))
            });
        }
    }

    #[test]
    fn column_count_beyond_the_page_is_a_codec_error_not_an_allocation() {
        // A schema page: name `t`, then a count of 2^40 columns.
        let mut schema = Vec::new();
        put_str(&mut schema, "t");
        put_varint(&mut schema, 1 << 40);
        let backend = backend_with(&[(SCHEMA_KEYSPACE, b"t", &schema)]);
        assert!(matches!(load_catalog(&backend), Err(StoreError::Codec(_))));
    }

    #[test]
    fn row_count_beyond_the_page_cap_is_a_codec_error_not_an_allocation() {
        // One Int column whose page claims 2^40 rows and no null runs.
        let table = Table::new("t", vec![ColumnDef { name: "x".into(), ty: DataType::Int }]);
        let mut page = vec![type_tag(DataType::Int)];
        put_varint(&mut page, 1 << 40);
        put_varint(&mut page, 0);
        let backend = backend_with(&[
            (SCHEMA_KEYSPACE, b"t", &encode_schema(&table)),
            (COL_KEYSPACE, &col_key("t", 0), &page),
        ]);
        assert!(matches!(load_catalog(&backend), Err(StoreError::Codec(_))));
    }

    fn sample_catalog() -> Catalog {
        let catalog = Catalog::new();
        catalog
            .create_table(
                "Hotspots",
                vec![
                    ColumnDef { name: "id".into(), ty: DataType::Int },
                    ColumnDef { name: "confidence".into(), ty: DataType::Double },
                    ColumnDef { name: "sensor".into(), ty: DataType::Str },
                    ColumnDef { name: "confirmed".into(), ty: DataType::Bool },
                ],
            )
            .unwrap();
        let weird_nan = f64::from_bits(0x7ff8_0000_0000_1234);
        catalog
            .insert(
                "Hotspots",
                vec![
                    vec![
                        Value::Int(100),
                        Value::Double(0.93),
                        Value::Str("MSG2".into()),
                        Value::Bool(true),
                    ],
                    vec![Value::Int(101), Value::Null, Value::Str(String::new()), Value::Null],
                    vec![
                        Value::Int(-5),
                        Value::Double(weird_nan),
                        Value::Null,
                        Value::Bool(false),
                    ],
                    vec![
                        Value::Int(i64::MAX),
                        Value::Double(-0.0),
                        Value::Str("utf8 λ€".into()),
                        Value::Bool(true),
                    ],
                ],
            )
            .unwrap();
        catalog
            .create_table("empty_t", vec![ColumnDef { name: "x".into(), ty: DataType::Int }])
            .unwrap();
        catalog
    }

    fn assert_values_equal(a: &Value, b: &Value, ctx: &str) {
        match (a, b) {
            // Double PartialEq fails on NaN; compare raw bits instead
            (Value::Double(x), Value::Double(y)) => {
                assert_eq!(x.to_bits(), y.to_bits(), "{ctx}");
            }
            _ => assert_eq!(a, b, "{ctx}"),
        }
    }

    fn assert_catalogs_equal(a: &Catalog, b: &Catalog) {
        assert_eq!(a.table_names(), b.table_names());
        for name in a.table_names() {
            let ta = a.table(&name).unwrap();
            let tb = b.table(&name).unwrap();
            assert_eq!(ta.name(), tb.name(), "display name of {name}");
            assert_eq!(ta.schema(), tb.schema(), "schema of {name}");
            assert_eq!(ta.num_rows(), tb.num_rows(), "rows of {name}");
            for i in 0..ta.num_rows() {
                for (va, vb) in ta.row(i).iter().zip(tb.row(i).iter()) {
                    assert_values_equal(va, vb, &format!("{name} row {i}"));
                }
            }
            // the internal representation must match too: a column
            // without nulls must not grow a validity vector
            for idx in 0..ta.num_columns() {
                assert_eq!(
                    ta.column(idx).null_count(),
                    tb.column(idx).null_count(),
                    "null count of {name}.{idx}"
                );
            }
        }
    }

    #[test]
    fn round_trip_through_memory_backend() {
        let catalog = sample_catalog();
        let mut backend = mem_backend();
        save(&catalog, &mut backend);
        let loaded = load_catalog(&backend).unwrap().unwrap();
        assert_catalogs_equal(&catalog, &loaded);
    }

    #[test]
    fn round_trip_survives_crash_recovery() {
        let catalog = sample_catalog();
        let mut backend = mem_backend();
        save(&catalog, &mut backend);
        let mut medium = backend.into_medium();
        medium.crash();
        let recovered = DurableBackend::open(medium, DurableConfig::default()).unwrap();
        let loaded = load_catalog(&recovered).unwrap().unwrap();
        assert_catalogs_equal(&catalog, &loaded);
    }

    #[test]
    fn missing_state_loads_as_none() {
        assert!(load_catalog(&mem_backend()).unwrap().is_none());
    }

    #[test]
    fn dropped_table_disappears_on_next_persist() {
        let catalog = sample_catalog();
        let mut backend = mem_backend();
        save(&catalog, &mut backend);
        catalog.drop_table("Hotspots").unwrap();
        save(&catalog, &mut backend);
        let loaded = load_catalog(&backend).unwrap().unwrap();
        assert_eq!(loaded.table_names(), vec!["empty_t".to_string()]);
        // no orphaned column pages either
        for (key, _) in backend.scan(COL_KEYSPACE).unwrap() {
            assert!(key.starts_with(b"empty_t"), "orphan page {key:?}");
        }
    }

    #[test]
    fn a_narrowed_table_leaves_no_page_past_its_width() {
        let catalog = Catalog::new();
        let col = |name: &str| ColumnDef { name: name.into(), ty: DataType::Int };
        catalog.create_table("t", vec![col("a"), col("b"), col("c")]).unwrap();
        let mut backend = mem_backend();
        save(&catalog, &mut backend);
        catalog.drop_table("t").unwrap();
        catalog.create_table("t", vec![col("a")]).unwrap();
        save(&catalog, &mut backend);
        let pages: Vec<Vec<u8>> =
            backend.scan(COL_KEYSPACE).unwrap().into_iter().map(|(key, _)| key).collect();
        assert_eq!(pages, [col_key("t", 0)]);
        let loaded = load_catalog(&backend).unwrap().unwrap();
        assert_eq!(loaded.table("t").unwrap().num_columns(), 1);
    }

    #[test]
    fn corrupt_column_page_is_a_codec_error() {
        let catalog = sample_catalog();
        let mut backend = mem_backend();
        save(&catalog, &mut backend);
        let key = col_key("Hotspots", 0);
        let mut bytes = backend.get(COL_KEYSPACE, &key).unwrap().unwrap();
        bytes.truncate(bytes.len() - 1);
        transact(&mut backend, |b| b.put(COL_KEYSPACE, &key, &bytes)).unwrap();
        assert!(matches!(load_catalog(&backend), Err(StoreError::Codec(_))));
    }

    #[test]
    fn all_null_and_all_bool_columns_round_trip() {
        let catalog = Catalog::new();
        catalog
            .create_table(
                "edge",
                vec![
                    ColumnDef { name: "n".into(), ty: DataType::Double },
                    ColumnDef { name: "b".into(), ty: DataType::Bool },
                ],
            )
            .unwrap();
        let rows: Vec<Vec<Value>> =
            (0..17).map(|i| vec![Value::Null, Value::Bool(i % 3 == 0)]).collect();
        catalog.insert("edge", rows).unwrap();
        let mut backend = mem_backend();
        save(&catalog, &mut backend);
        let loaded = load_catalog(&backend).unwrap().unwrap();
        assert_catalogs_equal(&catalog, &loaded);
    }
}
