//! Property-based tests for the stSPARQL engine.

use teleios_check::{forall, Gen};
use teleios_geo::{Coord, Envelope};
use teleios_rdf::strdf::geometry_literal_wgs84;
use teleios_rdf::term::Term;
use teleios_strabon::{Strabon, StrabonConfig};

/// Build a store of points at the given coordinates.
fn point_store(points: &[(f64, f64)], config: StrabonConfig) -> Strabon {
    let mut db = Strabon::with_config(config);
    for (i, &(x, y)) in points.iter().enumerate() {
        let s = Term::iri(format!("http://x/f{i}"));
        db.insert(
            &s,
            &Term::iri(teleios_rdf::vocab::rdf::TYPE),
            &Term::iri("http://x/Feature"),
        );
        db.insert(
            &s,
            &Term::iri(teleios_rdf::vocab::strdf::HAS_GEOMETRY),
            &geometry_literal_wgs84(&teleios_geo::Geometry::Point(
                teleios_geo::geometry::Point::new(x, y),
            )),
        );
    }
    db
}

fn window_query(env: &Envelope) -> String {
    let lit = geometry_literal_wgs84(&teleios_geo::Geometry::Polygon(
        teleios_geo::geometry::Polygon::from_envelope(env),
    ));
    format!(
        "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n\
         SELECT ?f WHERE {{ ?f a <http://x/Feature> ; strdf:hasGeometry ?g .\n\
         FILTER(strdf:intersects(?g, {lit})) }}"
    )
}

/// The spatial index is an optimization, never a semantics change:
/// indexed and scan evaluation agree on every random workload.
#[test]
fn indexed_and_scan_results_agree() {
    forall(
        |g| {
            let points = g.vec(0..60, |g| (g.float(-50.0..50.0), g.float(-50.0..50.0)));
            (points, g.float(-50.0..40.0), g.float(-50.0..40.0), g.float(0.5..20.0))
        },
        |(points, wx, wy, w)| {
            let env = Envelope::new(Coord::new(wx, wy), Coord::new(wx + w, wy + w));
            let q = window_query(&env);
            let mut indexed = point_store(&points, StrabonConfig::default());
            let mut scan = point_store(
                &points,
                StrabonConfig {
                    rdfs_inference: false,
                    optimize_bgp: false,
                    use_spatial_index: false,
                    ..StrabonConfig::default()
                },
            );
            let a = indexed.query(&q).unwrap();
            let b = scan.query(&q).unwrap();
            let mut ra: Vec<String> = a.rows.iter().map(|r| format!("{:?}", r)).collect();
            let mut rb: Vec<String> = b.rows.iter().map(|r| format!("{:?}", r)).collect();
            ra.sort();
            rb.sort();
            assert_eq!(ra, rb);
            // And both match a direct geometric count.
            let expect = points
                .iter()
                .filter(|&&(x, y)| env.contains_coord(Coord::new(x, y)))
                .count();
            assert_eq!(a.len(), expect);
        },
    );
}

/// DELETE DATA after INSERT DATA returns the store to its old size.
#[test]
fn insert_delete_roundtrip() {
    forall(
        |g| g.size(1..30),
        |n| {
            let mut db = Strabon::new();
            let before = db.len();
            let mut stmt = String::from("INSERT DATA {\n");
            for i in 0..n {
                stmt.push_str(&format!("<http://x/s{i}> <http://x/p> {i} .\n"));
            }
            stmt.push('}');
            let added = db.update(&stmt).unwrap();
            assert_eq!(added, n);
            let removed = db.update(&stmt.replace("INSERT", "DELETE")).unwrap();
            assert_eq!(removed, n);
            assert_eq!(db.len(), before);
        },
    );
}

/// ORDER BY ?v returns numerically sorted literals.
#[test]
fn order_by_sorts_numbers() {
    forall(
        |g| g.vec(1..40, |g| g.int(-1000..1000)),
        |vals| {
            let mut db = Strabon::new();
            for (i, v) in vals.iter().enumerate() {
                db.insert(
                    &Term::iri(format!("http://x/s{i}")),
                    &Term::iri("http://x/value"),
                    &Term::int(*v),
                );
            }
            let sols = db
                .query("SELECT ?v WHERE { ?s <http://x/value> ?v } ORDER BY ?v")
                .unwrap();
            let got: Vec<i64> = sols
                .rows
                .iter()
                .map(|r| r[0].as_ref().unwrap().as_i64().unwrap())
                .collect();
            // Subjects differ, so duplicate values survive; only exact
            // (s, p, o) duplicates would collapse.
            let mut expect = vals;
            expect.sort_unstable();
            assert_eq!(got, expect);
        },
    );
}

/// LIMIT/OFFSET paginate without loss or duplication.
#[test]
fn pagination_partitions_results() {
    forall(
        |g| (g.size(1..40), g.size(1..10)),
        |(n, page)| {
            let mut db = Strabon::new();
            for i in 0..n {
                db.insert(
                    &Term::iri(format!("http://x/s{i:03}")),
                    &Term::iri("http://x/p"),
                    &Term::int(i as i64),
                );
            }
            let mut collected = Vec::new();
            let mut offset = 0;
            loop {
                let sols = db
                    .query(&format!(
                        "SELECT ?s WHERE {{ ?s <http://x/p> ?v }} ORDER BY ?s LIMIT {page} OFFSET {offset}"
                    ))
                    .unwrap();
                if sols.is_empty() {
                    break;
                }
                for r in &sols.rows {
                    collected.push(format!("{:?}", r[0]));
                }
                offset += page;
            }
            assert_eq!(collected.len(), n);
            let mut dedup = collected.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), n);
        },
    );
}

/// FILTER conjunction equals sequential FILTERs.
#[test]
fn filter_conjunction_equivalence() {
    forall(
        |g| (g.vec(1..40, |g| g.int(0..100)), g.int(0..50), g.int(50..100)),
        |(vals, lo, hi)| {
            let mut db = Strabon::new();
            for (i, v) in vals.iter().enumerate() {
                db.insert(
                    &Term::iri(format!("http://x/s{i}")),
                    &Term::iri("http://x/value"),
                    &Term::int(*v),
                );
            }
            let a = db
                .query(&format!(
                    "SELECT ?s WHERE {{ ?s <http://x/value> ?v . FILTER(?v >= {lo} && ?v <= {hi}) }}"
                ))
                .unwrap();
            let b = db
                .query(&format!(
                    "SELECT ?s WHERE {{ ?s <http://x/value> ?v . FILTER(?v >= {lo}) FILTER(?v <= {hi}) }}"
                ))
                .unwrap();
            assert_eq!(a.len(), b.len());
            let expect = vals.iter().filter(|&&v| v >= lo && v <= hi).count();
            assert_eq!(a.len(), expect);
        },
    );
}

/// One ground term as text, written the way both Turtle and an
/// `INSERT DATA` body may spell it.
fn term_text(g: &mut Gen) -> String {
    const LOCAL: &str = "abcxyzΠελοπόννησος0123_-";
    const PRINTABLE: &str = "ab \"\\\n\tΠ~#.;,{}<>";
    match g.below(9) {
        0 => format!("<http://example.org/{}>", g.string("abcdef0123/#", 1..8)),
        1 => format!("ex:{}{}", g.string("abcΠε", 1..2), g.string(LOCAL, 0..8)),
        2 => {
            let body: String = g.string(PRINTABLE, 0..10);
            let escaped = body.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n").replace('\t', "\\t");
            match g.below(3) {
                0 => format!("\"{escaped}\""),
                1 => format!("\"{escaped}\"@{}", g.string("abcdefgh", 2..3)),
                _ => format!("\"{escaped}\"^^ex:{}", g.string(LOCAL, 1..6)),
            }
        }
        3 => format!("{}{}", ["", "-", "+"][g.below(3)], g.string("0123456789", 1..5)),
        4 => format!("{}{}.{}", ["", "-", "+"][g.below(3)], g.string("0123456789", 0..3), g.string("0123456789", 1..3)),
        5 => format!("{}e{}{}", g.string("0123456789", 1..3), ["", "-", "+"][g.below(3)], g.string("0123456789", 1..3)),
        6 => ["true", "false", "TRUE", "False"][g.below(4)].to_string(),
        7 => format!("_:{}", g.string(LOCAL, 1..6)),
        _ => format!("ex:p{}", g.below(3)),
    }
}

fn image(db: &Strabon) -> Vec<String> {
    let store = db.store();
    let mut out: Vec<String> =
        store.iter().map(|t| format!("{} {} {}", store.term(t.s), store.term(t.p), store.term(t.o))).collect();
    out.sort();
    out
}

/// A triple written as Turtle and the same triple written as
/// `INSERT DATA` produce the same store: one reader, one meaning.
#[test]
fn turtle_and_insert_data_agree_on_generated_triples() {
    forall(
        |g| {
            g.vec(1..6, |g| {
                let subject = if g.bool() { format!("ex:s{}", g.below(3)) } else { format!("_:n{}", g.below(3)) };
                let verb = if g.below(4) == 0 { "a".to_string() } else { format!("ex:p{}", g.below(3)) };
                format!("{subject} {verb} {} .", term_text(g))
            })
            .join("\n")
        },
        |body| {
            let mut loaded = Strabon::new();
            loaded.load_turtle(&format!("@prefix ex: <http://example.org/> .\n{body}")).unwrap();
            let mut inserted = Strabon::new();
            inserted.update(&format!("PREFIX ex: <http://example.org/>\nINSERT DATA {{ {body} }}")).unwrap();
            assert_eq!(image(&loaded), image(&inserted));
        },
    );
}
