//! `crash_recover` — the store layer's read side.
//!
//! Why it exists: WAL scan and replay, snapshot load, codec decode and
//! dictionary replay dominate; the chain and the query engine do
//! nothing.
//!
//! The state is a live twin (triple store, vault catalog, `products`
//! table) over a small base archive, persisted through the same three
//! ports `observatory_mixed` uses. A timed op is a seeded burst of
//! 1–8 per-product commits (pre-generated deltas: the product's
//! triples, one vault catalog record, one table row), then
//! `into_medium()` + `MemMedium::crash()` (which discards un-fsynced
//! bytes), `DurableBackend::open` (recovery), the three domain loads,
//! and an equality check against the twin.

use crate::archive::{self, ProductDelta, PRODUCTS_TABLE};
use crate::durable::{self, Backend, CountingMedium};
use crate::engine::Res;
use crate::rng::SplitMix64;
use crate::trace::Tracer;
use crate::workload::{Plan, RunOutput, Workload};
use std::collections::BTreeSet;
use std::time::Instant;
use teleios_core::portal;
use teleios_linked::emit;
use teleios_linked::world::{World, WorldSpec};
use teleios_monet::Catalog;
use teleios_rdf::TripleStore;
use teleios_store::StorageBackend;
use teleios_strabon::Strabon;
use teleios_vault::catalog::VaultCatalog;

/// Largest burst of commits between two crashes.
pub const MAX_BURST: usize = 8;

/// `DurableBackend::open` restarts the auto-snapshot countdown, so a
/// store that crashes more often than every 64 commits never
/// checkpoints on its own: its WAL, and with it every recovery, grows
/// without bound. Like an operator would, the workload checkpoints
/// explicitly once a recovery had to replay this many transactions.
pub const CHECKPOINT_AFTER: u64 = 16;

/// Products in the base archive (1/50 at smoke scale).
pub fn base_products(smoke: bool) -> usize {
    if smoke {
        2
    } else {
        50
    }
}

/// Commits in each op's burst, 1–[`MAX_BURST`], from the seed.
pub fn bursts(seed: u64, ops: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed, 0xc0a5);
    (0..ops).map(|_| 1 + rng.below(MAX_BURST)).collect()
}

/// The in-memory twin the recovered state is compared against.
struct Twin {
    triples: TripleStore,
    triple_digest: u64,
    vault: VaultCatalog,
    tables: Catalog,
    rows: usize,
}

impl Twin {
    fn apply(&mut self, delta: &ProductDelta) -> Res<()> {
        for (s, p, o) in &delta.triples {
            // The digest is an order-insensitive sum, so it grows with the delta.
            if self.triples.insert_terms(s, p, o) {
                self.triple_digest = self
                    .triple_digest
                    .wrapping_add(durable::triple_hash(s, p, o));
            }
        }
        self.vault.register(delta.record.clone());
        self.tables
            .insert(PRODUCTS_TABLE, vec![delta.row.clone()])
            .map_err(|e| e.to_string())?;
        self.rows += 1;
        Ok(())
    }
}

/// The workload state.
pub struct CrashRecover {
    twin: Twin,
    backend: Option<Backend>,
    bursts: Vec<usize>,
    deltas: Vec<ProductDelta>,
}

/// The flagship answer over a bare triple store, for the end-of-run
/// comparison of the recovered store with the twin.
fn flagship_over(store: TripleStore) -> Res<crate::digest::Answer> {
    let mut strabon = Strabon::new();
    *strabon.store_mut() = store;
    let query = portal::flagship_query(archive::SATELLITE, "2007-08-01", 0.3);
    strabon
        .query(&query)
        .map(|s| crate::digest::of_solutions(&s))
        .map_err(|e| e.to_string())
}

impl<'t> Workload<'t> for CrashRecover {
    fn setup(plan: Plan, tracer: &'t Tracer) -> Res<Self> {
        let world = World::generate(WorldSpec {
            seed: plan.seed,
            ..WorldSpec::default()
        });
        let mut triples = TripleStore::new();
        emit::emit_all(&world, &mut triples);
        let tables = Catalog::new();
        let base = base_products(plan.smoke);
        archive::build(base, &world.spec.bbox, plan.seed, &mut triples, &tables)?;
        let mut twin = Twin {
            triple_digest: 0,
            triples,
            vault: VaultCatalog::new(),
            tables,
            rows: base,
        };

        let bursts = bursts(plan.seed, plan.ops);
        let mut rng = SplitMix64::new(plan.seed, 0xde17);
        let deltas: Vec<ProductDelta> = (0..bursts.iter().sum::<usize>())
            .map(|i| archive::product(base + i, &world.spec.bbox, &mut rng))
            .collect();

        // The base state (with one catalogued file, so every domain has
        // something to load) is committed before the window opens.
        twin.vault
            .register(archive::product(0, &world.spec.bbox, &mut rng).record);
        let mut backend = durable::open(CountingMedium::default())?;
        durable::commit_all(
            &mut backend,
            &twin.vault,
            &BTreeSet::new(),
            &twin.triples,
            &twin.tables,
            tracer,
        )?;
        twin.triple_digest = durable::triple_digest(&twin.triples);
        Ok(CrashRecover {
            twin,
            backend: Some(backend),
            bursts,
            deltas,
        })
    }

    fn run(&mut self, plan: Plan, tracer: &'t Tracer) -> RunOutput {
        let mut out = RunOutput::default();
        let quarantine = BTreeSet::new();
        let mut next_delta = 0usize;
        let (mut scanned, mut replayed, mut commits, mut puts, mut snapshots) =
            (0usize, 0u64, 0u64, 0u64, 0u64);
        let started = Instant::now();
        for (i, burst) in self.bursts.iter().take(plan.ops).enumerate() {
            out.op(i, tracer, |out| {
                let mut backend = self
                    .backend
                    .take()
                    .ok_or("no backend: an earlier recovery failed")?;
                for delta in &self.deltas[next_delta..next_delta + burst] {
                    self.twin.apply(delta)?;
                    let (stage_ms, commit_ms) = durable::commit_all(
                        &mut backend,
                        &self.twin.vault,
                        &quarantine,
                        &self.twin.triples,
                        &self.twin.tables,
                        tracer,
                    )?;
                    out.sample("store.stage", stage_ms);
                    out.sample("store.commit", commit_ms);
                }
                next_delta += burst;
                // The engine's counters restart at every open: add up this life's.
                let life = backend.stats();
                commits += life.commits;
                puts += life.puts;

                let pre_crash = durable::state_of(&backend)?;
                let recovered = durable::crash_and_recover(backend, tracer)?;
                out.sample(
                    "store.recovery",
                    recovered.open_ms + recovered.rdf_load_ms + recovered.other_load_ms,
                );
                out.sample("store.recovery_open", recovered.open_ms);
                out.sample("rdf.load", recovered.rdf_load_ms);
                out.sample(
                    "store.load_domains",
                    recovered.other_load_ms + recovered.rdf_load_ms,
                );
                let report = recovered.backend.recovery().clone();
                scanned += report.records_scanned;
                replayed += report.transactions_replayed;
                let checked = tracer.span("e0.check", || {
                    durable::check_recovery(
                        &recovered,
                        &pre_crash,
                        &self.twin.triples,
                        self.twin.triple_digest,
                        self.twin.vault.len(),
                        self.twin.rows,
                        PRODUCTS_TABLE,
                    )
                });
                out.digest
                    .num(*burst as u64)
                    .num(recovered.triples.len() as u64)
                    .num(report.records_scanned as u64)
                    .num(report.transactions_replayed);
                let mut backend = recovered.backend;
                if report.transactions_replayed >= CHECKPOINT_AFTER {
                    tracer
                        .span("store.snapshot", || backend.snapshot())
                        .map_err(|e| e.to_string())?;
                    snapshots += 1;
                }
                self.backend = Some(backend);
                checked
            });
        }
        out.close_window(started);

        if let Some(backend) = self.backend.take() {
            durable::count_writes(&backend, &mut out);
            out.count("store.commits", commits as f64);
            out.count("store.puts", puts as f64);
            out.count("store.snapshots_written", snapshots as f64);
            out.count("rdf.triples", self.twin.triples.len() as f64);
            out.count(
                "rdf.dict_terms",
                self.twin.triples.dictionary().len() as f64,
            );
            // Once, after the window: the recovered store answers the
            // flagship query exactly as the twin does.
            out.attempted += 1;
            let same = teleios_rdf::persist::load_triple_store(&backend)
                .map_err(|e| e.to_string())
                .and_then(|loaded| loaded.ok_or_else(|| "no triples persisted".to_string()))
                .and_then(flagship_over)
                .and_then(|recovered| {
                    let twin = flagship_over(std::mem::take(&mut self.twin.triples))?;
                    out.digest.num(twin.rows as u64).num(twin.hash);
                    crate::workload::ensure(recovered == twin, || {
                        "recovered flagship answer differs from the twin's".into()
                    })
                });
            if let Err(why) = same {
                out.failed += 1;
                out.first_failure.get_or_insert(why);
            }
        }
        out.count("store.records_scanned", scanned as f64);
        out.count("store.txns_replayed", replayed as f64);
        out
    }
}
