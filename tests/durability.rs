//! End-to-end durability acceptance test (ISSUE: robustness).
//!
//! A seeded `FaultPlan` selects the scenes, and the selected scenes
//! take the storage engine's write-layer faults round-robin in id
//! order: for every planned scene, the fault is armed on the commit
//! that registers it, the medium power-cycles, and recovery must land
//! exactly on the last acknowledged state — no lost committed scenes,
//! no resurrected unacknowledged ones. Beside it, E16's counts
//! (EXPERIMENTS.md): snapshots bound replay, every write fault is
//! rejected at commit time, and the rdf, vault and monet states
//! round-trip through one backend.

use std::collections::BTreeMap;

use teleios::resilience::FaultPlan;
use teleios::store::{
    full_state, transact, DurableBackend, DurableConfig, MemMedium, StorageBackend, WriteFault,
};

const SCENES: usize = 40;
const SEED: u64 = 77;
const RATE: f64 = 0.25;
const FAULTS: [WriteFault; 3] =
    [WriteFault::Torn { keep: 12 }, WriteFault::ShortFsync, WriteFault::Crash];

fn scene_ids(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("msg2-{i:04}.sev1")).collect()
}

/// The seeded scene selection, each selected scene paired with the next
/// write fault in [`FAULTS`], in id order.
fn planned_faults(ids: &[String]) -> BTreeMap<String, WriteFault> {
    let plan = FaultPlan::seeded(SEED, ids, RATE);
    plan.iter().zip(FAULTS.iter().cycle()).map(|((id, _), f)| (id.to_string(), *f)).collect()
}

fn register(backend: &mut dyn StorageBackend, id: &str) -> Result<u64, teleios::store::StoreError> {
    transact(backend, |b| {
        b.put("vault/catalog", id.as_bytes(), b"sev1 32x32")?;
        b.put("vault/quarantine", id.as_bytes(), &[])
    })
}

/// One ingest commit as the vault makes it: a catalog record and a
/// triple page, keyed by scene index.
fn ingest(backend: &mut dyn StorageBackend, i: u64) -> Result<u64, teleios::store::StoreError> {
    transact(backend, |b| {
        let meta = format!("MSG2/2007-08-25T{:02}:{:02}:00Z sev1 32x32", i / 60 % 24, i % 60);
        b.put("vault/catalog", format!("scene-{i:06}").as_bytes(), meta.as_bytes())?;
        b.put("rdf/spo", &i.to_be_bytes(), format!("hotspot-{i}").as_bytes())
    })
}

/// A fresh backend holding `commits` ingests.
fn ingested(commits: u64, config: DurableConfig) -> DurableBackend<MemMedium> {
    let mut backend = DurableBackend::open(MemMedium::new(), config).expect("open");
    for i in 0..commits {
        ingest(&mut backend, i).expect("commit");
    }
    backend
}

/// Power-cycle the backend's medium and reopen it.
fn power_cycle(
    backend: DurableBackend<MemMedium>,
    config: DurableConfig,
) -> DurableBackend<MemMedium> {
    let mut medium = backend.into_medium();
    medium.crash();
    DurableBackend::open(medium, config).expect("recovery never fails")
}

#[test]
fn seeded_durability_plan_recovers_exactly_at_every_planned_crash() {
    let ids = scene_ids(SCENES);
    let plan = planned_faults(&ids);
    assert!(!plan.is_empty(), "a 25% plan over 40 scenes must select something");

    let mut backend =
        DurableBackend::open(MemMedium::new(), DurableConfig::default()).expect("open");
    let mut crashes = 0usize;
    for id in &ids {
        match plan.get(id).copied() {
            None => {
                register(&mut backend, id).expect("clean commit");
            }
            Some(fault) => {
                // Arm the planned write-layer fault, observe the
                // rejected commit, power-cycle, and verify exact
                // recovery of the pre-crash committed state.
                let committed = full_state(&backend).expect("state");
                backend.medium_mut().arm(fault);
                assert!(
                    register(&mut backend, id).is_err(),
                    "a faulted barrier must reject the commit for {id}"
                );
                backend = power_cycle(backend, DurableConfig::default());
                assert_eq!(
                    full_state(&backend).expect("state"),
                    committed,
                    "{} ({}) must recover the exact committed state",
                    id,
                    fault.label()
                );
                assert!(
                    backend.get("vault/catalog", id.as_bytes()).expect("get").is_none(),
                    "{id} was never acknowledged and must not be resurrected"
                );
                crashes += 1;
                // The scene re-registers cleanly after recovery.
                register(&mut backend, id).expect("post-recovery commit");
            }
        }
    }
    assert_eq!(crashes, plan.len(), "every planned fault fired");

    // After the full run every scene is durably present.
    let final_state = full_state(&backend).expect("state");
    let catalog = final_state.get("vault/catalog").expect("catalog keyspace");
    assert_eq!(catalog.len(), SCENES);

    // One last power cycle: the end state itself is crash-durable.
    let reopened = power_cycle(backend, DurableConfig::default());
    assert_eq!(full_state(&reopened).expect("state"), final_state);
}

#[test]
fn seeded_durability_plan_is_reproducible() {
    let ids = scene_ids(SCENES);
    let a = planned_faults(&ids);
    assert_eq!(a, planned_faults(&ids), "same seed, ids, rate — same plan");
    // The default plan's scene selection, every write fault in turn.
    let default_plan = FaultPlan::seeded(SEED, &ids, RATE);
    let default_ids: Vec<&str> = default_plan.iter().map(|(id, _)| id).collect();
    let durable_ids: Vec<&str> = a.keys().map(String::as_str).collect();
    assert_eq!(default_ids, durable_ids);
    let kinds: Vec<WriteFault> = a.values().take(FAULTS.len()).copied().collect();
    assert_eq!(kinds, FAULTS);
}

/// E16: snapshots bound replay. After 200 commits pure WAL replay walks
/// every record, and the default cadence replays the eight commits
/// since its last snapshot; both recover the committed state exactly.
#[test]
fn snapshots_bound_replay_at_200_commits() {
    let replay_only = DurableConfig { snapshot_every: None, ..DurableConfig::default() };
    // (config, WAL bytes, snapshot seq, transactions replayed, records scanned)
    for (config, wal, seq, replayed, records) in
        [(replay_only, 29_436, 0, 200, 800), (DurableConfig::default(), 1_192, 192, 8, 32)]
    {
        let backend = ingested(200, config);
        let committed = full_state(&backend).expect("state");
        let wal_bytes = backend.medium().durable_len(teleios::store::wal::WAL_FILE);
        let recovered = power_cycle(backend, config);
        let r = recovered.recovery();
        assert_eq!(
            (wal_bytes, r.snapshot_seq, r.transactions_replayed, r.records_scanned),
            (wal, seq, replayed, records)
        );
        assert_eq!(full_state(&recovered).expect("state"), committed);
    }
}

/// E16: each write fault armed on the commit after 25 durable ones is
/// rejected at commit time, and recovery replays exactly the 25. The
/// torn write keeps 12 B, shorter than any frame, which recovery
/// truncates.
#[test]
fn every_write_fault_is_rejected_and_recovery_lands_on_the_last_commit() {
    let config = DurableConfig { snapshot_every: None, ..DurableConfig::default() };
    for (fault, truncated) in FAULTS.into_iter().zip([Some(12), None, None]) {
        let mut backend = ingested(25, config);
        let committed = full_state(&backend).expect("state");
        backend.medium_mut().arm(fault);
        assert!(ingest(&mut backend, 25).is_err(), "{} acknowledged its commit", fault.label());
        let recovered = power_cycle(backend, config);
        assert_eq!(full_state(&recovered).expect("state"), committed, "{}", fault.label());
        let r = recovered.recovery();
        let replay = (r.transactions_replayed, r.wal_truncated);
        assert_eq!(replay, (25, truncated), "{}", fault.label());
    }
}

/// E16: the rdf, vault and monet states, persisted through one backend
/// and power-cycled, load back equal to what was saved.
#[test]
fn domain_states_round_trip_through_one_backend() {
    use std::collections::BTreeSet;
    use teleios::monet::persist::{load_catalog, persist_catalog};
    use teleios::monet::table::ColumnDef;
    use teleios::monet::{Catalog, DataType, Value};
    use teleios::rdf::persist::{load_triple_store, persist_triple_store};
    use teleios::rdf::{store::TripleStore, term::Term};
    use teleios::vault::catalog::{FileRecord, VaultCatalog};
    use teleios::vault::persist::{load_vault_state, persist_vault_state};
    const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";

    let mut triples = TripleStore::new();
    let mut catalog = VaultCatalog::new();
    let mut quarantine = BTreeSet::new();
    for i in 0..200u64 {
        let count = Term::typed_literal(format!("{}", i % 7), XSD_INTEGER);
        let scene = Term::iri(format!("http://teleios.example/scene/{i}"));
        triples.insert_terms(&scene, &Term::iri("http://teleios.example/hasHotspots"), &count);
        let name = format!("msg2-{i:06}.sev1");
        catalog.register(FileRecord {
            name: name.clone(),
            format: "sev1".into(),
            size_bytes: 4096 + i as usize,
            bbox: Some((21.0, 36.0, 24.0, 39.0)),
            acquisition: Some(format!("2007-08-25T{:02}:{:02}:00Z", i / 60 % 24, i % 60)),
            shape: vec![4, 32, 32],
        });
        if i % 17 == 0 {
            quarantine.insert(name);
        }
    }
    let db = Catalog::new();
    let columns = [("id", DataType::Int), ("temp", DataType::Double), ("sensor", DataType::Str)];
    let columns = columns.map(|(name, ty)| ColumnDef { name: name.into(), ty });
    db.create_table("hotspots", columns.into()).unwrap();
    let rows = (0..200i64).map(|i| {
        let temp = if i % 11 == 0 { Value::Null } else { Value::Double(300.0 + i as f64 / 8.0) };
        vec![Value::Int(i), temp, Value::Str(format!("MSG2-{}", i % 4))]
    });
    db.insert("hotspots", rows.collect()).unwrap();

    // One transaction per domain, then the three states' full keyspace
    // map: two saves of equal states give equal maps.
    let save = |triples: &TripleStore,
                catalog: &VaultCatalog,
                quarantine: &BTreeSet<String>,
                db: &Catalog| {
        let mut backend =
            DurableBackend::open(MemMedium::new(), DurableConfig::default()).expect("open");
        transact(&mut backend, |b| persist_triple_store(triples, b)).expect("rdf save");
        transact(&mut backend, |b| persist_vault_state(catalog, quarantine, b))
            .expect("vault save");
        transact(&mut backend, |b| persist_catalog(db, b)).expect("monet save");
        backend
    };
    let saved = save(&triples, &catalog, &quarantine, &db);
    let recovered = power_cycle(saved, DurableConfig::default());
    assert_eq!(recovered.recovery().recovered_entries, 218);

    let triples2 = load_triple_store(&recovered).unwrap().expect("rdf state");
    let (catalog2, quarantine2) = load_vault_state(&recovered).unwrap().expect("vault state");
    let db2 = load_catalog(&recovered).unwrap().expect("monet state");
    assert_eq!((triples2.len(), catalog2.len(), quarantine2.len()), (200, 200, 12));
    assert_eq!(db2.table("hotspots").unwrap().num_rows(), 200);
    assert_eq!(
        full_state(&save(&triples2, &catalog2, &quarantine2, &db2)).unwrap(),
        full_state(&save(&triples, &catalog, &quarantine, &db)).unwrap()
    );
}
