//! Parallel ≡ sequential equivalence for the strabon evaluator.
//!
//! `StrabonConfig::threads = 1` runs the exact sequential code path;
//! any other thread count partitions BGP probe loops and FILTER
//! passes into ordered morsels whose outputs concatenate in morsel
//! order — so every configuration must return *bit-identical*
//! `Solutions`, row order included.
//! Fixtures are sized past `PAR_BINDING_THRESHOLD` so the parallel
//! paths genuinely engage.

use teleios_rdf::term::Term;
use teleios_strabon::eval::PAR_BINDING_THRESHOLD;
use teleios_strabon::{Solutions, Strabon, StrabonConfig};

const NOA: &str = "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#";
const STRDF: &str = "http://strdf.di.uoa.gr/ontology#";
const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// Deterministic pseudo-random stream (splitmix64), so the fixture
/// needs no RNG dependency and never flakes.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() % 1_000_000) as f64 / 1_000_000.0
    }
}

/// An archive of `n` products, each with one hotspot carrying a
/// confidence and a point geometry scattered over a 4°×4° window.
/// `n` is chosen by callers to exceed [`PAR_BINDING_THRESHOLD`].
fn archive(n: usize, config: StrabonConfig) -> Strabon {
    let mut db = Strabon::with_config(config);
    let mut mix = Mix(0x7e1e_105);
    let type_p = Term::iri(RDF_TYPE);
    let geom_p = Term::iri(format!("{STRDF}hasGeometry"));
    let conf_p = Term::iri(format!("{NOA}hasConfidence"));
    let derived_p = Term::iri(format!("{NOA}isDerivedFrom"));
    let sat_p = Term::iri(format!("{NOA}isAcquiredBy"));
    let hotspot_c = Term::iri(format!("{NOA}Hotspot"));
    let image_c = Term::iri(format!("{NOA}RawImage"));
    let sat = Term::iri("http://teleios.di.uoa.gr/satellites/MSG2");
    for i in 0..n {
        let img = Term::iri(format!("http://x/img{i:05}"));
        let h = Term::iri(format!("http://x/h{i:05}"));
        db.insert(&img, &type_p, &image_c);
        // Two satellites, so the image join pattern is selective.
        if i % 3 != 0 {
            db.insert(&img, &sat_p, &sat);
        }
        db.insert(&h, &type_p, &hotspot_c);
        db.insert(&h, &derived_p, &img);
        db.insert(&h, &conf_p, &Term::double(mix.unit()));
        let x = 21.0 + mix.unit() * 4.0;
        let y = 36.0 + mix.unit() * 4.0;
        db.insert(
            &h,
            &geom_p,
            &Term::typed_literal(format!("POINT ({x:.6} {y:.6})"), format!("{STRDF}WKT")),
        );
    }
    db
}

/// The two configurations under test: exact sequential and parallel.
fn configs() -> [(&'static str, StrabonConfig); 2] {
    let base = StrabonConfig::default();
    [
        ("sequential", StrabonConfig { threads: 1, ..base }),
        ("parallel x4", StrabonConfig { threads: 4, ..base }),
    ]
}

fn run_all(n: usize, query: &str) -> Vec<(&'static str, Solutions)> {
    configs()
        .into_iter()
        .map(|(label, config)| {
            let mut db = archive(n, config);
            (label, db.query(query).expect(label))
        })
        .collect()
}

fn assert_all_equal(results: &[(&'static str, Solutions)]) {
    let (base_label, base) = &results[0];
    assert!(!base.is_empty(), "{base_label}: fixture query returned nothing");
    for (label, sols) in &results[1..] {
        assert_eq!(
            base, sols,
            "{label} diverged from {base_label} (row order is part of the contract)"
        );
    }
}

#[test]
fn bgp_join_identical_across_thread_counts() {
    let n = 2 * PAR_BINDING_THRESHOLD;
    let query = format!(
        "PREFIX noa: <{NOA}>\n\
         SELECT ?h ?img ?c WHERE {{\n\
           ?h a noa:Hotspot ; noa:isDerivedFrom ?img ; noa:hasConfidence ?c .\n\
           ?img noa:isAcquiredBy <http://teleios.di.uoa.gr/satellites/MSG2> .\n\
         }}"
    );
    let results = run_all(n, &query);
    // Two thirds of the images carry the satellite pattern.
    assert!(results[0].1.len() > n / 2);
    assert_all_equal(&results);
}

#[test]
fn spatial_filter_identical_across_thread_counts() {
    let n = 2 * PAR_BINDING_THRESHOLD;
    let query = format!(
        "PREFIX noa: <{NOA}>\nPREFIX strdf: <{STRDF}>\n\
         SELECT ?h WHERE {{\n\
           ?h a noa:Hotspot ; strdf:hasGeometry ?g .\n\
           FILTER(strdf:intersects(?g, \
            \"POLYGON ((22 37, 24 37, 24 39, 22 39, 22 37))\"^^strdf:WKT))\n\
         }}"
    );
    let results = run_all(n, &query);
    // The window covers a quarter of the scatter region.
    assert!(results[0].1.len() > n / 10);
    assert_all_equal(&results);
}

#[test]
fn value_filter_identical_across_thread_counts() {
    let n = 2 * PAR_BINDING_THRESHOLD;
    let query = format!(
        "PREFIX noa: <{NOA}>\n\
         SELECT ?h ?c WHERE {{\n\
           ?h a noa:Hotspot ; noa:hasConfidence ?c .\n\
           FILTER(?c > 0.5)\n\
         }}"
    );
    let results = run_all(n, &query);
    assert!(results[0].1.len() > n / 4);
    assert_all_equal(&results);
}

#[test]
fn spatial_filter_matches_with_index_disabled() {
    // The parallel FILTER pass must agree with the sequential exact
    // evaluation both with and without the R-tree pre-filter.
    let n = 2 * PAR_BINDING_THRESHOLD;
    let query = format!(
        "PREFIX noa: <{NOA}>\nPREFIX strdf: <{STRDF}>\n\
         SELECT ?h WHERE {{\n\
           ?h a noa:Hotspot ; strdf:hasGeometry ?g .\n\
           FILTER(strdf:intersects(?g, \
            \"POLYGON ((21.5 36.5, 23.5 36.5, 23.5 38.5, 21.5 38.5, 21.5 36.5))\"^^strdf:WKT))\n\
         }}"
    );
    let mut no_index_seq = archive(
        n,
        StrabonConfig { use_spatial_index: false, threads: 1, ..StrabonConfig::default() },
    );
    let expect = no_index_seq.query(&query).expect("no-index sequential");
    assert!(!expect.is_empty());
    for (label, config) in configs() {
        let mut with_index = archive(n, config);
        assert_eq!(with_index.query(&query).expect(label), expect, "{label} vs no-index");
        let mut without_index = archive(n, StrabonConfig { use_spatial_index: false, ..config });
        assert_eq!(
            without_index.query(&query).expect(label),
            expect,
            "{label} without index vs no-index sequential"
        );
    }
}
