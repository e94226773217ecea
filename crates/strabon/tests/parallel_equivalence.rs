//! Thread-count equivalence for the strabon evaluator.
//!
//! BGP probe loops and FILTER passes are one body cut along the
//! pool's ordered morsels (a single inline one at
//! `StrabonConfig::threads = 1` or under `PAR_BINDING_THRESHOLD`),
//! whose outputs concatenate in morsel order — so every configuration
//! must return *bit-identical* `Solutions`, row order included.
//! Fixtures are sized on both sides of `PAR_BINDING_THRESHOLD`.

use teleios_check::SplitMix64;
use teleios_rdf::term::Term;
use teleios_strabon::eval::PAR_BINDING_THRESHOLD;
use teleios_strabon::{Solutions, Strabon, StrabonConfig};

const NOA: &str = "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#";
const STRDF: &str = "http://strdf.di.uoa.gr/ontology#";
const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// An archive of `n` products, each with one hotspot carrying a
/// confidence and a point geometry scattered over a 4°×4° window.
fn archive(n: usize, config: StrabonConfig) -> Strabon {
    let mut db = Strabon::with_config(config);
    let mut rng = SplitMix64::new(0x7e1e_105);
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
        db.insert(&h, &conf_p, &Term::double(rng.unit()));
        let x = rng.range(21.0, 25.0);
        let y = rng.range(36.0, 40.0);
        db.insert(
            &h,
            &geom_p,
            &Term::typed_literal(format!("POINT ({x:.6} {y:.6})"), format!("{STRDF}WKT")),
        );
    }
    db
}

/// Archive sizes (= binding counts after the first pattern) on both
/// sides of the threshold.
const SIZES: [usize; 4] = [
    PAR_BINDING_THRESHOLD - 1,
    PAR_BINDING_THRESHOLD,
    PAR_BINDING_THRESHOLD + 1,
    2 * PAR_BINDING_THRESHOLD,
];

/// The configurations under test; the first is the inline baseline.
fn configs() -> [(&'static str, StrabonConfig); 4] {
    let base = StrabonConfig::default();
    [
        ("threads 1", StrabonConfig { threads: 1, ..base }),
        ("threads 2", StrabonConfig { threads: 2, ..base }),
        ("threads 4", StrabonConfig { threads: 4, ..base }),
        ("threads 8", StrabonConfig { threads: 8, ..base }),
    ]
}

/// Run `query` under every configuration on an archive of `n`
/// products, assert the `Solutions` are equal, and return them.
fn identical_solutions(n: usize, query: &str) -> Solutions {
    let mut results = configs().into_iter().map(|(label, config)| {
        let mut db = archive(n, config);
        (label, db.query(query).expect(label))
    });
    let (base_label, base) = results.next().expect("configs");
    assert!(!base.is_empty(), "{base_label}: fixture query returned nothing");
    for (label, sols) in results {
        assert_eq!(
            base, sols,
            "{label} diverged from {base_label} at n={n} (row order is part of the contract)"
        );
    }
    base
}

#[test]
fn bgp_join_identical_across_thread_counts() {
    let query = format!(
        "PREFIX noa: <{NOA}>\n\
         SELECT ?h ?img ?c WHERE {{\n\
           ?h a noa:Hotspot ; noa:isDerivedFrom ?img ; noa:hasConfidence ?c .\n\
           ?img noa:isAcquiredBy <http://teleios.di.uoa.gr/satellites/MSG2> .\n\
         }}"
    );
    for n in SIZES {
        // Two thirds of the images carry the satellite pattern.
        assert!(identical_solutions(n, &query).len() > n / 2);
    }
}

#[test]
fn spatial_filter_identical_across_thread_counts() {
    let query = format!(
        "PREFIX noa: <{NOA}>\nPREFIX strdf: <{STRDF}>\n\
         SELECT ?h WHERE {{\n\
           ?h a noa:Hotspot ; strdf:hasGeometry ?g .\n\
           FILTER(strdf:intersects(?g, \
            \"POLYGON ((22 37, 24 37, 24 39, 22 39, 22 37))\"^^strdf:WKT))\n\
         }}"
    );
    for n in SIZES {
        // The window covers a quarter of the scatter region.
        assert!(identical_solutions(n, &query).len() > n / 10);
    }
}

#[test]
fn value_filter_identical_across_thread_counts() {
    let query = format!(
        "PREFIX noa: <{NOA}>\n\
         SELECT ?h ?c WHERE {{\n\
           ?h a noa:Hotspot ; noa:hasConfidence ?c .\n\
           FILTER(?c > 0.5)\n\
         }}"
    );
    for n in SIZES {
        assert!(identical_solutions(n, &query).len() > n / 4);
    }
}

#[test]
fn spatial_filter_matches_with_index_disabled() {
    // The FILTER pass must agree with the one-thread exact evaluation
    // both with and without the R-tree pre-filter.
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
