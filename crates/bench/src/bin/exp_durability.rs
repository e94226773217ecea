//! E16 — durable storage engine: ingest → crash → recover loops.
//!
//! Three sections against `teleios-store`'s `DurableBackend` over the
//! fault-injectable in-memory medium:
//!
//! 1. **Recovery scaling** — N single-scene commits, then a power
//!    cycle; recovery time and replayed-record counts with pure WAL
//!    replay (`snapshot_every: None`) vs the default periodic
//!    snapshots. Every run asserts the recovered keyspace state is
//!    bit-identical to the pre-crash committed state.
//! 2. **Durability fault kinds** — each `WriteFault` (torn write,
//!    short fsync, crash point) armed on the medium for the commit of
//!    transaction N+1; recovery must land exactly on transaction N's
//!    state.
//! 3. **Domain round-trip** — an RDF triple store, the vault catalog
//!    and quarantine, and a MonetDB-style table catalog persisted
//!    through the same backend, crashed, recovered, and compared for
//!    exact equality via their canonical re-encodings.
//!
//! `--smoke` (or `TELEIOS_SMOKE=1`) runs a seconds-scale variant used
//! by `scripts/check.sh`.

use std::collections::BTreeSet;
use std::time::Instant;

use teleios_bench::report::{self, Align, Table};
use teleios_monet::table::ColumnDef;
use teleios_monet::{Catalog, DataType, Value};
use teleios_rdf::store::TripleStore;
use teleios_rdf::term::Term;
use teleios_store::{
    full_state, transact, DurableBackend, DurableConfig, MemMedium, StorageBackend, WriteFault,
};
use teleios_vault::catalog::{FileRecord, VaultCatalog};

/// One synthetic ingest transaction: a catalog record plus a triple
/// page, keyed by scene index — the shape a vault registration
/// produces.
fn ingest_txn(backend: &mut dyn StorageBackend, i: u64) {
    backend.begin().expect("begin");
    let key = format!("scene-{i:06}");
    let meta = format!("MSG2/2007-08-25T{:02}:{:02}:00Z sev1 32x32", i / 60 % 24, i % 60);
    backend.put("vault/catalog", key.as_bytes(), meta.as_bytes()).expect("put");
    backend
        .put("rdf/spo", &i.to_be_bytes(), format!("hotspot-{i}").as_bytes())
        .expect("put");
    backend.commit().expect("commit");
}

/// Run `txns` ingest commits, power-cycle the medium, reopen, and
/// report `(recovery, wal_bytes, exact)` — `exact` is the
/// bit-identical state comparison.
fn crash_recover(
    txns: u64,
    config: DurableConfig,
) -> (teleios_store::RecoveryReport, usize, std::time::Duration, bool) {
    let mut backend = DurableBackend::open(MemMedium::new(), config).expect("open");
    for i in 0..txns {
        ingest_txn(&mut backend, i);
    }
    let committed = full_state(&backend).expect("state");
    let mut medium = backend.into_medium();
    let wal_bytes = medium.durable_len(teleios_store::wal::WAL_FILE);
    medium.crash();
    let t0 = Instant::now();
    let recovered = DurableBackend::open(medium, config).expect("recover");
    let elapsed = t0.elapsed();
    let exact = full_state(&recovered).expect("state") == committed;
    (recovered.recovery().clone(), wal_bytes, elapsed, exact)
}

fn section_scaling(scales: &[u64]) {
    report::note("\nRecovery scaling: N commits, power cycle, reopen.");
    let table = Table::new(&[
        ("commits", 7, Align::Right),
        ("mode", 10, Align::Left),
        ("wal", 9, Align::Right),
        ("snap_seq", 8, Align::Right),
        ("replayed", 8, Align::Right),
        ("records", 8, Align::Right),
        ("recovery", 9, Align::Right),
        ("exact", 5, Align::Right),
    ]);
    table.header();
    for &txns in scales {
        for (mode, config) in [
            ("replay-only", DurableConfig { snapshot_every: None, ..DurableConfig::default() }),
            ("snapshots", DurableConfig::default()),
        ] {
            let (recovery, wal_bytes, elapsed, exact) = crash_recover(txns, config);
            table.row(&[
                txns.to_string(),
                mode.to_string(),
                format!("{} B", wal_bytes),
                recovery.snapshot_seq.to_string(),
                recovery.transactions_replayed.to_string(),
                recovery.records_scanned.to_string(),
                teleios_bench::fmt_duration(elapsed),
                if exact { "yes" } else { "NO" }.to_string(),
            ]);
            assert!(exact, "recovery must reproduce the committed state exactly");
        }
    }
}

fn section_fault_kinds(committed: u64) {
    report::note(
        "\nDurability faults armed on the next commit: recovery lands on the last durable state.",
    );
    let table = Table::new(&[
        ("fault", 12, Align::Left),
        ("commit", 8, Align::Left),
        ("truncated", 9, Align::Right),
        ("replayed", 8, Align::Right),
        ("exact", 5, Align::Right),
    ]);
    table.header();
    for fault in [WriteFault::Torn { keep: 12 }, WriteFault::ShortFsync, WriteFault::Crash] {
        let config = DurableConfig { snapshot_every: None, ..DurableConfig::default() };
        let mut backend = DurableBackend::open(MemMedium::new(), config).expect("open");
        for i in 0..committed {
            ingest_txn(&mut backend, i);
        }
        let expected = full_state(&backend).expect("state");
        backend.medium_mut().arm(fault);
        backend.begin().expect("begin");
        backend.put("vault/catalog", b"in-flight", b"never-acknowledged").expect("put");
        let commit = backend.commit();
        let mut medium = backend.into_medium();
        medium.crash();
        let recovered = DurableBackend::open(medium, config).expect("recover");
        // The torn-write keep window (12 B) is shorter than any commit
        // frame here, so every kind must recover state N exactly and
        // never resurrect the unacknowledged transaction.
        let exact = full_state(&recovered).expect("state") == expected
            && recovered.get("vault/catalog", b"in-flight").expect("get").is_none();
        table.row(&[
            fault.label().to_string(),
            if commit.is_err() { "rejected" } else { "ok" }.to_string(),
            recovered
                .recovery()
                .wal_truncated
                .map(|b| format!("{b} B"))
                .unwrap_or_else(|| "-".to_string()),
            recovered.recovery().transactions_replayed.to_string(),
            if exact { "yes" } else { "NO" }.to_string(),
        ]);
        assert!(commit.is_err(), "a faulted barrier must not acknowledge the commit");
        assert!(exact, "recovery must land on the last durable state");
    }
}

fn sample_domains(n: u64) -> (TripleStore, VaultCatalog, BTreeSet<String>, Catalog) {
    let mut triples = TripleStore::new();
    for i in 0..n {
        triples.insert_terms(
            &Term::iri(format!("http://teleios.example/scene/{i}")),
            &Term::iri("http://teleios.example/hasHotspots"),
            &Term::typed_literal(
                format!("{}", i % 7),
                "http://www.w3.org/2001/XMLSchema#integer",
            ),
        );
    }
    let mut catalog = VaultCatalog::new();
    let mut quarantine = BTreeSet::new();
    for i in 0..n {
        catalog.register(FileRecord {
            name: format!("msg2-{i:06}.sev1"),
            format: "sev1".into(),
            size_bytes: 4096 + i as usize,
            bbox: Some((21.0, 36.0, 24.0, 39.0)),
            acquisition: Some(format!("2007-08-25T{:02}:{:02}:00Z", i / 60 % 24, i % 60)),
            shape: vec![4, 32, 32],
        });
        if i % 17 == 0 {
            quarantine.insert(format!("msg2-{i:06}.sev1"));
        }
    }
    let db = Catalog::new();
    db.create_table(
        "hotspots",
        vec![
            ColumnDef { name: "id".into(), ty: DataType::Int },
            ColumnDef { name: "temp".into(), ty: DataType::Double },
            ColumnDef { name: "sensor".into(), ty: DataType::Str },
        ],
    )
    .expect("create table");
    let rows: Vec<Vec<Value>> = (0..n as i64)
        .map(|i| {
            vec![
                Value::Int(i),
                if i % 11 == 0 { Value::Null } else { Value::Double(300.0 + i as f64 / 8.0) },
                Value::Str(format!("MSG2-{}", i % 4)),
            ]
        })
        .collect();
    db.insert("hotspots", rows).expect("insert");
    (triples, catalog, quarantine, db)
}

/// Persist the three domain states, one transaction each.
fn save_domains(
    backend: &mut dyn StorageBackend,
    triples: &TripleStore,
    catalog: &VaultCatalog,
    quarantine: &BTreeSet<String>,
    db: &Catalog,
) {
    transact(backend, |b| teleios_rdf::persist::persist_triple_store(triples, b))
        .expect("rdf save");
    transact(backend, |b| teleios_vault::persist::persist_vault_state(catalog, quarantine, b))
        .expect("vault save");
    transact(backend, |b| teleios_monet::persist::persist_catalog(db, b)).expect("monet save");
}

/// Canonical fingerprint of the three domain states: persist them into
/// a fresh in-memory store and take its full keyspace map.
fn fingerprint(
    triples: &TripleStore,
    catalog: &VaultCatalog,
    quarantine: &BTreeSet<String>,
    db: &Catalog,
) -> teleios_store::KeyspaceState {
    let mut mem = DurableBackend::open(MemMedium::new(), DurableConfig::default()).expect("open");
    save_domains(&mut mem, triples, catalog, quarantine, db);
    full_state(&mem).expect("state")
}

fn section_domains(n: u64) {
    report::note("\nDomain round-trip: rdf + vault + monet persisted, crashed, recovered.");
    let (triples, catalog, quarantine, db) = sample_domains(n);
    let mut backend =
        DurableBackend::open(MemMedium::new(), DurableConfig::default()).expect("open");
    save_domains(&mut backend, &triples, &catalog, &quarantine, &db);
    let mut medium = backend.into_medium();
    medium.crash();
    let t0 = Instant::now();
    let recovered = DurableBackend::open(medium, DurableConfig::default()).expect("recover");
    let elapsed = t0.elapsed();

    let loaded_triples =
        teleios_rdf::persist::load_triple_store(&recovered).expect("rdf load").expect("present");
    let (loaded_catalog, loaded_quarantine) =
        teleios_vault::persist::load_vault_state(&recovered).expect("vault load").expect("present");
    let loaded_db =
        teleios_monet::persist::load_catalog(&recovered).expect("monet load").expect("present");
    let exact = fingerprint(&triples, &catalog, &quarantine, &db)
        == fingerprint(&loaded_triples, &loaded_catalog, &loaded_quarantine, &loaded_db);

    let table = Table::new(&[
        ("triples", 7, Align::Right),
        ("files", 6, Align::Right),
        ("fenced", 6, Align::Right),
        ("rows", 6, Align::Right),
        ("entries", 7, Align::Right),
        ("recovery", 9, Align::Right),
        ("exact", 5, Align::Right),
    ]);
    table.header();
    table.row(&[
        loaded_triples.len().to_string(),
        loaded_catalog.len().to_string(),
        loaded_quarantine.len().to_string(),
        loaded_db.table("hotspots").expect("table").num_rows().to_string(),
        recovered.recovery().recovered_entries.to_string(),
        teleios_bench::fmt_duration(elapsed),
        if exact { "yes" } else { "NO" }.to_string(),
    ]);
    assert!(exact, "domain states must survive the crash bit-identically");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("TELEIOS_SMOKE").is_ok_and(|v| v == "1");
    report::title(&format!(
        "E16: durable storage engine — ingest, crash, recover{}",
        if smoke { " (smoke)" } else { "" }
    ));
    let scales: &[u64] = if smoke { &[50, 200] } else { &[200, 1_000, 5_000] };
    section_scaling(scales);
    section_fault_kinds(if smoke { 5 } else { 25 });
    section_domains(if smoke { 200 } else { 2_000 });
    report::note("\n(every row asserts exact = yes: recovery reproduced the committed state bit-for-bit)");
}
