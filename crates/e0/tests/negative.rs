//! A benchmark that cannot fail cannot gate: feed each workload's
//! checker a corrupted answer produced from a real run and assert the
//! op is counted failed.

use std::collections::BTreeSet;
use teleios_core::observatory::AcquisitionSpec;
use teleios_core::Observatory;
use teleios_e0::archive::{self, PRODUCTS_TABLE};
use teleios_e0::archive_query::{self, Class, FlagshipOracle, Pools, Request};
use teleios_e0::digest;
use teleios_e0::durable::{self, CountingMedium};
use teleios_e0::trace::Tracer;
use teleios_e0::workload::RunOutput;
use teleios_e0::{chain_ingest, observatory_mixed};
use teleios_monet::Catalog;
use teleios_noa::ProcessingChain;
use teleios_rdf::TripleStore;
use teleios_store::wal::WAL_FILE;
use teleios_store::Medium;
use teleios_vault::catalog::VaultCatalog;

/// Run `check` as one op and return how many ops failed.
fn failed_ops(check: impl FnOnce() -> Result<(), String>) -> u64 {
    let mut out = RunOutput::default();
    out.op(0, &Tracer::off(), |_| check());
    assert_eq!(out.attempted, 1);
    assert_eq!(out.failed > 0, out.first_failure.is_some());
    out.failed
}

#[test]
fn chain_ingest_fails_when_a_stored_hotspot_pixel_flips() {
    let mut obs = Observatory::with_defaults(3);
    let id = obs.acquire_scene(&AcquisitionSpec::small_test(3)).unwrap();
    let report = obs.run_chain(&id, &ProcessingChain::operational()).unwrap();
    let pixels = report.output.hotspot_pixels();
    assert!(pixels > 0);
    let truth = vec![false; report.output.mask.len()];
    let stored_sum = |obs: &Observatory| {
        obs.sciql(&format!("SELECT SUM(v) FROM {id}_hotspots"))
            .unwrap()
            .scalar()
            .unwrap()
    };
    assert_eq!(
        failed_ops(|| chain_ingest::check(
            stored_sum(&obs),
            pixels,
            report.output.mask.data(),
            &truth
        )),
        0
    );

    // Flip one hotspot pixel in the array the database holds.
    let name = format!("{id}_hotspots");
    let mut stored = obs.db.array(&name).unwrap();
    let hot = stored.data().iter().position(|v| *v > 0.0).unwrap();
    stored.data_mut()[hot] = 0.0;
    obs.db.put_array(&name, stored);
    assert_eq!(
        failed_ops(|| chain_ingest::check(
            stored_sum(&obs),
            pixels,
            report.output.mask.data(),
            &truth
        )),
        1
    );
}

#[test]
fn archive_query_fails_when_the_engine_drops_a_row() {
    let mut obs = Observatory::with_defaults(5);
    let bbox = obs.region();
    archive::build(120, &bbox, 5, obs.strabon.store_mut(), &obs.db).unwrap();
    let pools = Pools::draw(5, &bbox);
    let oracle = FlagshipOracle::read(obs.strabon.store());
    // A flagship instance with a non-empty answer.
    let (request, reference) = (0..pools.len(Class::Flagship))
        .map(|instance| {
            let (day, dist) = Pools::flagship(instance);
            (
                Request {
                    class: Class::Flagship,
                    instance,
                },
                oracle.answer(&day, dist),
            )
        })
        .find(|(_, answer)| answer.rows > 0)
        .expect("some day has a hotspot near a site");
    let text = pools.text(request).unwrap();
    let full = obs.search(&text).unwrap();
    assert_eq!(
        failed_ops(|| archive_query::check(request, digest::of_solutions(&full), Some(&reference))),
        0
    );

    let mut dropped = full.clone();
    dropped.rows.pop();
    assert_eq!(
        failed_ops(|| archive_query::check(
            request,
            digest::of_solutions(&dropped),
            Some(&reference)
        )),
        1
    );
}

#[test]
fn observatory_mixed_fails_when_refinement_loses_a_hotspot() {
    let mut obs = Observatory::with_defaults(4);
    let mut spec = AcquisitionSpec::small_test(4);
    spec.glint_rate = 0.03;
    let id = obs.acquire_scene(&spec).unwrap();
    obs.run_chain(&id, &ProcessingChain::operational()).unwrap();
    let mut stats = obs
        .refine_products_supervised(&[id], std::time::Duration::from_secs(60))
        .stats;
    assert!(stats.before > 0);
    assert_eq!(failed_ops(|| observatory_mixed::check_refine(&stats)), 0);
    stats.kept -= 1;
    assert_eq!(failed_ops(|| observatory_mixed::check_refine(&stats)), 1);
}

/// A twin with a small archive, committed `commits` times.
fn committed_store(commits: usize) -> (durable::Backend, TripleStore, VaultCatalog, Catalog) {
    let bbox = Observatory::with_defaults(1).region();
    let mut triples = TripleStore::new();
    let tables = Catalog::new();
    archive::build(10, &bbox, 1, &mut triples, &tables).unwrap();
    let mut vault = VaultCatalog::new();
    let mut backend = durable::open(CountingMedium::default()).unwrap();
    let mut rng = teleios_e0::rng::SplitMix64::new(1, 1);
    for i in 0..commits {
        let delta = archive::product(10 + i, &bbox, &mut rng);
        for (s, p, o) in &delta.triples {
            triples.insert_terms(s, p, o);
        }
        vault.register(delta.record);
        tables.insert(PRODUCTS_TABLE, vec![delta.row]).unwrap();
        durable::commit_all(
            &mut backend,
            &vault,
            &BTreeSet::new(),
            &triples,
            &tables,
            &Tracer::off(),
        )
        .unwrap();
    }
    (backend, triples, vault, tables)
}

#[test]
fn crash_recover_fails_when_the_medium_loses_an_acknowledged_commit() {
    let tracer = Tracer::off();
    let check =
        |recovered: &durable::Recovered, pre, triples: &TripleStore, vault: &VaultCatalog| {
            durable::check_recovery(
                recovered,
                pre,
                triples,
                durable::triple_digest(triples),
                vault.len(),
                10 + 3,
                PRODUCTS_TABLE,
            )
        };

    // Intact medium: recovery is exact.
    let (backend, triples, vault, _tables) = committed_store(3);
    let pre = durable::state_of(&backend).unwrap();
    let recovered = durable::crash_and_recover(backend, &tracer).unwrap();
    assert_eq!(failed_ops(|| check(&recovered, &pre, &triples, &vault)), 0);

    // The same, but the disk lost the tail of the log after the last
    // commit was acknowledged: recovery truncates to the previous
    // commit, and the checker must notice.
    let (backend, triples, vault, _tables) = committed_store(3);
    let pre = durable::state_of(&backend).unwrap();
    let mut medium = backend.into_medium();
    let wal = medium.read(WAL_FILE).unwrap().unwrap();
    medium.disk.set_file(WAL_FILE, &wal[..wal.len() - 7]);
    let recovered = durable::crash_and_recover(durable::open(medium).unwrap(), &tracer).unwrap();
    assert_eq!(recovered.backend.recovery().transactions_replayed, 2);
    assert_eq!(failed_ops(|| check(&recovered, &pre, &triples, &vault)), 1);
}
