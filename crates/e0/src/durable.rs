//! The store side of the harness: a byte-counting medium, the three
//! persist ports staged as one transaction, and the recovery check.
//!
//! `MemMedium` is deliberate. The numbers gated on it measure the
//! program's CPU cost (framing, CRC, encoding, replay) and exact
//! byte counts; they are the sandbox's, not a device's.

use crate::digest::Fold;
use crate::engine::Res;
use crate::trace::Tracer;
use crate::workload::{ensure, timed, RunOutput};
use std::collections::BTreeSet;
use teleios_monet::Catalog;
use teleios_rdf::{Term, TripleStore};
use teleios_store::{
    full_state, DurableBackend, DurableConfig, KeyspaceState, Medium, MemMedium, StorageBackend,
    StoreError,
};
use teleios_vault::catalog::VaultCatalog;

/// A `MemMedium` that counts what the engine writes to it.
#[derive(Debug, Default)]
pub struct CountingMedium {
    /// The simulated disk.
    pub disk: MemMedium,
    /// Bytes appended or published (WAL frames and snapshots).
    pub bytes_written: u64,
}

impl Medium for CountingMedium {
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.bytes_written += bytes.len() as u64;
        self.disk.append(name, bytes)
    }

    fn sync(&mut self, name: &str) -> Result<(), StoreError> {
        self.disk.sync(name)
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
        self.disk.read(name)
    }

    fn publish(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.bytes_written += bytes.len() as u64;
        self.disk.publish(name, bytes)
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        self.disk.remove(name)
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        self.disk.list()
    }
}

/// The durable backend the workloads commit to.
pub type Backend = DurableBackend<CountingMedium>;

/// Open (or recover) a backend with the default configuration.
pub fn open(medium: CountingMedium) -> Res<Backend> {
    DurableBackend::open(medium, DurableConfig::default()).map_err(|e| e.to_string())
}

/// One durable transaction staging the vault, rdf and monet persist
/// ports, then committing. Returns `(stage ms, commit ms)` measured
/// with the harness clock; spans go to `tracer`.
pub fn commit_all(
    backend: &mut Backend,
    vault: &VaultCatalog,
    quarantine: &BTreeSet<String>,
    triples: &TripleStore,
    tables: &Catalog,
    tracer: &Tracer,
) -> Res<(f64, f64)> {
    stage_and_commit(backend, vault, quarantine, triples, tables, tracer).map_err(|e| e.to_string())
}

/// The three persist ports, staged inside the open transaction.
fn stage(
    backend: &mut Backend,
    vault: &VaultCatalog,
    quarantine: &BTreeSet<String>,
    triples: &TripleStore,
    tables: &Catalog,
    tracer: &Tracer,
) -> Result<(), StoreError> {
    tracer.span("vault.persist", || {
        teleios_vault::persist::persist_vault_state(vault, quarantine, backend)
    })?;
    tracer.span("rdf.encode", || {
        teleios_rdf::persist::persist_triple_store(triples, backend)
    })?;
    tracer.span("monet.persist", || {
        teleios_monet::persist::persist_catalog(tables, backend)
    })
}

fn stage_and_commit(
    backend: &mut Backend,
    vault: &VaultCatalog,
    quarantine: &BTreeSet<String>,
    triples: &TripleStore,
    tables: &Catalog,
    tracer: &Tracer,
) -> Result<(f64, f64), StoreError> {
    backend.begin()?;
    let (staged, stage_ms) = timed(|| {
        tracer.span("store.stage", || {
            stage(backend, vault, quarantine, triples, tables, tracer)
        })
    });
    // A failed put must not leave the transaction open (txn-leak).
    if let Err(e) = staged {
        backend.rollback();
        return Err(e);
    }
    let (committed, commit_ms) = timed(|| tracer.span("store.commit", || backend.commit()));
    committed?;
    Ok((stage_ms, commit_ms))
}

/// Bytes of committed state: key plus value lengths over every keyspace.
pub fn state_bytes(state: &KeyspaceState) -> u64 {
    state
        .values()
        .flat_map(|ks| ks.iter())
        .map(|(k, v)| (k.len() + v.len()) as u64)
        .sum()
}

/// The committed state of a backend.
pub fn state_of(backend: &Backend) -> Res<KeyspaceState> {
    full_state(backend).map_err(|e| e.to_string())
}

/// Record the store's exact write counts, and the write amplification:
/// bytes appended to the medium (WAL frames and snapshots) per byte of
/// final committed state.
pub fn count_writes(backend: &Backend, out: &mut RunOutput) {
    let stats = backend.stats();
    let written = backend.medium().bytes_written;
    let state = state_of(backend).unwrap_or_default();
    out.count("store.commits", stats.commits as f64);
    out.count("store.puts", stats.puts as f64);
    out.count("store.wal_bytes", stats.wal_bytes as f64);
    out.count("store.snapshots_written", stats.snapshots_written as f64);
    out.count("store.medium_bytes_written", written as f64);
    out.count(
        "store.write_amp",
        written as f64 / state_bytes(&state).max(1) as f64,
    );
}

/// What recovery loaded back.
pub struct Recovered {
    /// The reopened backend.
    pub backend: Backend,
    /// The triple store it held.
    pub triples: TripleStore,
    /// The vault catalog it held.
    pub vault: VaultCatalog,
    /// The tables it held.
    pub tables: Catalog,
    /// `open` time, ms.
    pub open_ms: f64,
    /// `load_triple_store` time, ms.
    pub rdf_load_ms: f64,
    /// `load_vault_state` + `load_catalog` time, ms.
    pub other_load_ms: f64,
}

/// Crash the medium (un-fsynced bytes are discarded), reopen it
/// (recovery) and load the three domains back.
pub fn crash_and_recover(backend: Backend, tracer: &Tracer) -> Res<Recovered> {
    let mut medium = backend.into_medium();
    medium.disk.crash();
    let (reopened, open_ms) = timed(|| tracer.span("store.recovery_open", || open(medium)));
    let backend = reopened?;
    let (triples, rdf_load_ms) = timed(|| {
        tracer.span("rdf.load", || {
            teleios_rdf::persist::load_triple_store(&backend)
        })
    });
    let (others, other_load_ms) = timed(|| {
        tracer.span("store.load_domains", || {
            let vault = tracer.span("vault.load", || {
                teleios_vault::persist::load_vault_state(&backend)
            })?;
            let tables = tracer.span("monet.load", || {
                teleios_monet::persist::load_catalog(&backend)
            })?;
            Ok::<_, StoreError>((vault, tables))
        })
    });
    let triples = triples
        .map_err(|e| e.to_string())?
        .ok_or("recovered store holds no triples")?;
    let (vault, tables) = others.map_err(|e| e.to_string())?;
    let (vault, _quarantine) = vault.ok_or("recovered store holds no vault catalog")?;
    let tables = tables.ok_or("recovered store holds no tables")?;
    Ok(Recovered {
        backend,
        triples,
        vault,
        tables,
        open_ms,
        rdf_load_ms,
        other_load_ms,
    })
}

/// Hash of one triple of terms.
pub fn triple_hash(s: &Term, p: &Term, o: &Term) -> u64 {
    let mut fold = Fold::default();
    fold.text(&s.to_string())
        .text(&p.to_string())
        .text(&o.to_string());
    fold.0
}

/// Order-insensitive digest of a triple store's content: the wrapping
/// sum of its triples' hashes.
pub fn triple_digest(store: &TripleStore) -> u64 {
    store.iter().fold(0u64, |sum, t| {
        sum.wrapping_add(triple_hash(
            store.term(t.s),
            store.term(t.p),
            store.term(t.o),
        ))
    })
}

/// Every acknowledged commit survived: the recovered key-value state
/// equals the pre-crash state, and the three loaded domains equal the
/// live twin.
pub fn check_recovery(
    recovered: &Recovered,
    pre_crash: &KeyspaceState,
    twin_triples: &TripleStore,
    twin_triple_digest: u64,
    twin_vault_records: usize,
    twin_table_rows: usize,
    table: &str,
) -> Res<()> {
    let state = state_of(&recovered.backend)?;
    ensure(state == *pre_crash, || {
        format!(
            "recovered state holds {} bytes, pre-crash state {}",
            state_bytes(&state),
            state_bytes(pre_crash)
        )
    })?;
    ensure(recovered.triples.len() == twin_triples.len(), || {
        format!(
            "recovered {} triples, live twin has {}",
            recovered.triples.len(),
            twin_triples.len()
        )
    })?;
    ensure(
        triple_digest(&recovered.triples) == twin_triple_digest,
        || "recovered triples differ from the live twin".to_string(),
    )?;
    ensure(recovered.vault.len() == twin_vault_records, || {
        format!(
            "recovered {} vault records, live twin has {twin_vault_records}",
            recovered.vault.len()
        )
    })?;
    let rows = recovered
        .tables
        .table(table)
        .map(|t| t.num_rows())
        .map_err(|e| e.to_string())?;
    ensure(rows == twin_table_rows, || {
        format!("recovered {rows} {table} rows, live twin has {twin_table_rows}")
    })
}
