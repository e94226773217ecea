//! End-to-end tests of the Strabon engine: loading, querying, updating.

use teleios_rdf::term::Term;
use teleios_rdf::TripleStore;
use teleios_strabon::{Strabon, StrabonConfig, StrabonError};

const PREFIXES: &str = "\
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n\
PREFIX noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>\n\
PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n\
PREFIX ex: <http://example.org/>\n";

fn fixture() -> Strabon {
    let mut db = Strabon::new();
    db.load_turtle(
        r#"
@prefix noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#> .
@prefix strdf: <http://strdf.di.uoa.gr/ontology#> .
@prefix ex: <http://example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .

ex:img1 a noa:RawImage ;
    noa:isAcquiredBy ex:Meteosat9 ;
    noa:hasAcquisitionTime "2007-08-25T12:00:00Z"^^xsd:dateTime ;
    strdf:hasGeometry "POLYGON ((21 36, 24 36, 24 39, 21 39, 21 36))"^^strdf:WKT .

ex:img2 a noa:RawImage ;
    noa:isAcquiredBy ex:Meteosat8 ;
    noa:hasAcquisitionTime "2007-08-26T12:00:00Z"^^xsd:dateTime ;
    strdf:hasGeometry "POLYGON ((10 40, 13 40, 13 43, 10 43, 10 40))"^^strdf:WKT .

ex:h1 a noa:Hotspot ;
    noa:isDerivedFrom ex:img1 ;
    noa:hasConfidence 0.9 ;
    strdf:hasGeometry "POINT (22.3 37.5)"^^strdf:WKT .

ex:h2 a noa:Hotspot ;
    noa:isDerivedFrom ex:img1 ;
    noa:hasConfidence 0.4 ;
    strdf:hasGeometry "POINT (23.9 38.9)"^^strdf:WKT .

ex:h3 a noa:Hotspot ;
    noa:isDerivedFrom ex:img2 ;
    noa:hasConfidence 0.7 ;
    strdf:hasGeometry "POINT (11.5 41.5)"^^strdf:WKT .

ex:olympia a ex:ArchaeologicalSite ;
    strdf:hasGeometry "POINT (22.3 37.6)"^^strdf:WKT .
"#,
    )
    .unwrap();
    db
}

#[test]
fn load_counts_triples() {
    let db = fixture();
    assert_eq!(db.len(), 22);
}

#[test]
fn select_by_class() {
    let mut db = fixture();
    let sols = db
        .query(&format!("{PREFIXES} SELECT ?h WHERE {{ ?h a noa:Hotspot }} ORDER BY ?h"))
        .unwrap();
    assert_eq!(sols.len(), 3);
    assert_eq!(sols.get(0, "h"), Some(&Term::iri("http://example.org/h1")));
}

#[test]
fn join_across_patterns() {
    let mut db = fixture();
    let sols = db
        .query(&format!(
            "{PREFIXES} SELECT ?h ?img WHERE {{ \
               ?h a noa:Hotspot ; noa:isDerivedFrom ?img . \
               ?img noa:isAcquiredBy ex:Meteosat9 . }}"
        ))
        .unwrap();
    assert_eq!(sols.len(), 2); // h1, h2 from img1
}

#[test]
fn numeric_filter() {
    let mut db = fixture();
    let sols = db
        .query(&format!(
            "{PREFIXES} SELECT ?h WHERE {{ \
               ?h a noa:Hotspot ; noa:hasConfidence ?c . FILTER(?c >= 0.7) }}"
        ))
        .unwrap();
    assert_eq!(sols.len(), 2);
}

#[test]
fn spatial_intersects_filter() {
    let mut db = fixture();
    // Peloponnese-ish box covers h1 only.
    let sols = db
        .query(&format!(
            "{PREFIXES} SELECT ?h WHERE {{ \
               ?h a noa:Hotspot ; strdf:hasGeometry ?g . \
               FILTER(strdf:intersects(?g, \"POLYGON ((21.5 36.5, 23 36.5, 23 38, 21.5 38, 21.5 36.5))\"^^strdf:WKT)) }}"
        ))
        .unwrap();
    assert_eq!(sols.len(), 1);
    assert_eq!(sols.get(0, "h"), Some(&Term::iri("http://example.org/h1")));
}

#[test]
fn spatial_distance_filter_flagship_query() {
    // The paper's flagship request: hotspots within distance of an
    // archaeological site, joined with the acquiring image.
    let mut db = fixture();
    let sols = db
        .query(&format!(
            "{PREFIXES} SELECT ?img ?h WHERE {{ \
               ?img a noa:RawImage ; noa:isAcquiredBy ex:Meteosat9 . \
               ?h a noa:Hotspot ; noa:isDerivedFrom ?img ; strdf:hasGeometry ?hg . \
               ?site a ex:ArchaeologicalSite ; strdf:hasGeometry ?sg . \
               FILTER(strdf:distance(?hg, \"POINT (22.3 37.6)\"^^strdf:WKT) < 0.2) }}"
        ))
        .unwrap();
    assert_eq!(sols.len(), 1);
    assert_eq!(sols.get(0, "h"), Some(&Term::iri("http://example.org/h1")));
}

#[test]
fn results_identical_with_and_without_optimizations() {
    let query = format!(
        "{PREFIXES} SELECT ?h ?c WHERE {{ \
           ?h a noa:Hotspot ; noa:hasConfidence ?c ; strdf:hasGeometry ?g . \
           FILTER(strdf:intersects(?g, \"POLYGON ((20 35, 25 35, 25 40, 20 40, 20 35))\"^^strdf:WKT)) \
         }} ORDER BY ?h"
    );
    let mut fast = fixture();
    let mut slow = fixture();
    slow.set_config(StrabonConfig {
        rdfs_inference: false,
        optimize_bgp: false,
        use_spatial_index: false,
        ..StrabonConfig::default()
    });
    let a = fast.query(&query).unwrap();
    let b = slow.query(&query).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.len(), 2);
}

#[test]
fn optional_binds_when_present() {
    let mut db = fixture();
    db.load_turtle(
        "@prefix ex: <http://example.org/> .\n\
         @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
         ex:h1 rdfs:label \"big fire\" .",
    )
    .unwrap();
    let sols = db
        .query(&format!(
            "{PREFIXES} PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> \
             SELECT ?h ?l WHERE {{ ?h a noa:Hotspot . OPTIONAL {{ ?h rdfs:label ?l }} }} ORDER BY ?h"
        ))
        .unwrap();
    assert_eq!(sols.len(), 3);
    assert_eq!(sols.get(0, "l"), Some(&Term::literal("big fire")));
    assert_eq!(sols.get(1, "l"), None);
}

#[test]
fn union_combines_branches() {
    let mut db = fixture();
    let sols = db
        .query(&format!(
            "{PREFIXES} SELECT ?x WHERE {{ \
               {{ ?x a noa:RawImage }} UNION {{ ?x a ex:ArchaeologicalSite }} }}"
        ))
        .unwrap();
    assert_eq!(sols.len(), 3);
}

#[test]
fn minus_removes() {
    let mut db = fixture();
    let sols = db
        .query(&format!(
            "{PREFIXES} SELECT ?h WHERE {{ \
               ?h a noa:Hotspot . MINUS {{ ?h noa:isDerivedFrom ex:img2 }} }}"
        ))
        .unwrap();
    assert_eq!(sols.len(), 2);
}

#[test]
fn bind_and_projection_expression() {
    let mut db = fixture();
    let sols = db
        .query(&format!(
            "{PREFIXES} SELECT ?h (strdf:area(?g) AS ?a) WHERE {{ \
               ?h a noa:RawImage ; strdf:hasGeometry ?g . \
               BIND(1 AS ?one) FILTER(?one = 1) }} ORDER BY ?h"
        ))
        .unwrap();
    assert_eq!(sols.len(), 2);
    assert_eq!(sols.get(0, "a"), Some(&Term::double(9.0)));
}

#[test]
fn distinct_limit_offset() {
    let mut db = fixture();
    let sols = db
        .query(&format!(
            "{PREFIXES} SELECT DISTINCT ?img WHERE {{ ?h noa:isDerivedFrom ?img }} ORDER BY ?img"
        ))
        .unwrap();
    assert_eq!(sols.len(), 2);
    let limited = db
        .query(&format!(
            "{PREFIXES} SELECT ?h WHERE {{ ?h a noa:Hotspot }} ORDER BY ?h LIMIT 1 OFFSET 1"
        ))
        .unwrap();
    assert_eq!(limited.len(), 1);
    assert_eq!(limited.get(0, "h"), Some(&Term::iri("http://example.org/h2")));
}

#[test]
fn ask_queries() {
    let mut db = fixture();
    let yes = db.query(&format!("{PREFIXES} ASK {{ ?h a noa:Hotspot }}")).unwrap();
    assert_eq!(yes.rows[0][0], Some(Term::boolean(true)));
    let no = db.query(&format!("{PREFIXES} ASK {{ ?h a ex:Volcano }}")).unwrap();
    assert_eq!(no.rows[0][0], Some(Term::boolean(false)));
}

#[test]
fn insert_data_update() {
    let mut db = fixture();
    let n = db
        .update(&format!(
            "{PREFIXES} INSERT DATA {{ ex:h9 a noa:Hotspot ; noa:hasConfidence 0.5 }}"
        ))
        .unwrap();
    assert_eq!(n, 2);
    let sols = db.query(&format!("{PREFIXES} SELECT ?h WHERE {{ ?h a noa:Hotspot }}")).unwrap();
    assert_eq!(sols.len(), 4);
}

#[test]
fn delete_data_update() {
    let mut db = fixture();
    let n = db.update(&format!("{PREFIXES} DELETE DATA {{ ex:h1 a noa:Hotspot }}")).unwrap();
    assert_eq!(n, 1);
    let sols = db.query(&format!("{PREFIXES} SELECT ?h WHERE {{ ?h a noa:Hotspot }}")).unwrap();
    assert_eq!(sols.len(), 2);
}

#[test]
fn refinement_style_modify() {
    // Scenario 2: reclassify hotspots that fall outside a land polygon.
    let mut db = fixture();
    let n = db
        .update(&format!(
            "{PREFIXES} \
             DELETE {{ ?h a noa:Hotspot }} \
             INSERT {{ ?h a ex:RefutedHotspot }} \
             WHERE {{ \
               ?h a noa:Hotspot ; strdf:hasGeometry ?g . \
               FILTER(!strdf:within(?g, \"POLYGON ((20 35, 25 35, 25 40, 20 40, 20 35))\"^^strdf:WKT)) }}"
        ))
        .unwrap();
    // h3 is outside the box: one delete plus one insert.
    assert_eq!(n, 2);
    let hot = db.query(&format!("{PREFIXES} SELECT ?h WHERE {{ ?h a noa:Hotspot }}")).unwrap();
    assert_eq!(hot.len(), 2);
    let ref_ =
        db.query(&format!("{PREFIXES} SELECT ?h WHERE {{ ?h a ex:RefutedHotspot }}")).unwrap();
    assert_eq!(ref_.len(), 1);
    assert_eq!(ref_.get(0, "h"), Some(&Term::iri("http://example.org/h3")));
}

#[test]
fn delete_where_update() {
    let mut db = fixture();
    let n = db.update(&format!("{PREFIXES} DELETE WHERE {{ ?h noa:hasConfidence ?c }}")).unwrap();
    assert_eq!(n, 3);
    let sols =
        db.query(&format!("{PREFIXES} SELECT ?h WHERE {{ ?h noa:hasConfidence ?c }}")).unwrap();
    assert!(sols.is_empty());
}

#[test]
fn update_invalidates_spatial_index() {
    let mut db = fixture();
    // Prime the sidecar with a spatial query.
    let q = format!(
        "{PREFIXES} SELECT ?h WHERE {{ ?h strdf:hasGeometry ?g . \
         FILTER(strdf:intersects(?g, \"POLYGON ((22 37, 23 37, 23 38, 22 38, 22 37))\"^^strdf:WKT)) }}"
    );
    // The window intersects h1, olympia, and img1's footprint.
    assert_eq!(db.query(&q).unwrap().len(), 3);
    // Add a new feature inside the window; it must be found.
    db.update(&format!(
        "{PREFIXES} INSERT DATA {{ ex:hNew strdf:hasGeometry \"POINT (22.5 37.5)\"^^strdf:WKT }}"
    ))
    .unwrap();
    assert_eq!(db.query(&q).unwrap().len(), 4);
}

#[test]
fn template_var_not_in_where_is_error() {
    let mut db = fixture();
    let r = db.update(&format!(
        "{PREFIXES} DELETE {{ ?zzz a noa:Hotspot }} WHERE {{ ?h a noa:Hotspot }}"
    ));
    assert!(r.is_err());
}

#[test]
fn a_variable_in_a_data_block_is_an_error() {
    let mut db = fixture();
    for op in ["INSERT", "DELETE"] {
        let r = db
            .update(&format!("{PREFIXES} {op} DATA {{ ex:h1 a noa:Hotspot . ?h a noa:Hotspot }}"));
        assert!(matches!(&r, Err(StrabonError::Eval(m)) if m.contains("?h")), "{op} DATA: {r:?}");
    }
    assert_eq!(db.len(), fixture().len(), "a rejected block changes nothing");
}

#[test]
fn str_and_regex_builtins() {
    let mut db = fixture();
    let sols = db
        .query(&format!(
            "{PREFIXES} SELECT ?s WHERE {{ ?s noa:isAcquiredBy ?sat . \
               FILTER(REGEX(STR(?sat), \"Meteosat9\")) }}"
        ))
        .unwrap();
    assert_eq!(sols.len(), 1);
}

#[test]
fn solutions_text_rendering() {
    let mut db = fixture();
    let sols = db
        .query(&format!("{PREFIXES} SELECT ?h WHERE {{ ?h a noa:Hotspot }} ORDER BY ?h LIMIT 1"))
        .unwrap();
    let text = sols.to_text();
    assert!(text.contains("?h"));
    assert!(text.contains("http://example.org/h1"));
}

#[test]
fn empty_result_shapes() {
    let mut db = fixture();
    let sols = db.query(&format!("{PREFIXES} SELECT ?x WHERE {{ ?x a ex:Nothing }}")).unwrap();
    assert!(sols.is_empty());
    assert_eq!(sols.vars, vec!["x"]);
}

#[test]
fn repeated_variable_in_pattern() {
    let mut db = Strabon::new();
    db.load_turtle(
        "@prefix ex: <http://example.org/> .\n\
         ex:a ex:knows ex:a .\n\
         ex:a ex:knows ex:b .",
    )
    .unwrap();
    let sols =
        db.query("PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x ex:knows ?x }").unwrap();
    assert_eq!(sols.len(), 1);
    assert_eq!(sols.get(0, "x"), Some(&Term::iri("http://example.org/a")));
}

#[test]
fn aggregates_count_per_image() {
    let mut db = fixture();
    let sols = db
        .query(&format!(
            "{PREFIXES} SELECT ?img (COUNT(?h) AS ?n) WHERE {{ \
               ?h a noa:Hotspot ; noa:isDerivedFrom ?img }} GROUP BY ?img ORDER BY ?img"
        ))
        .unwrap();
    assert_eq!(sols.vars, vec!["img", "n"]);
    assert_eq!(sols.len(), 2);
    assert_eq!(sols.get(0, "n"), Some(&Term::int(2))); // img1: h1, h2
    assert_eq!(sols.get(1, "n"), Some(&Term::int(1))); // img2: h3
}

#[test]
fn aggregates_global_without_group() {
    let mut db = fixture();
    let sols = db
        .query(&format!(
            "{PREFIXES} SELECT (COUNT(*) AS ?n) (AVG(?c) AS ?avg) (MAX(?c) AS ?hi) \
             WHERE {{ ?h a noa:Hotspot ; noa:hasConfidence ?c }}"
        ))
        .unwrap();
    assert_eq!(sols.len(), 1);
    assert_eq!(sols.get(0, "n"), Some(&Term::int(3)));
    let avg = sols.get(0, "avg").unwrap().as_f64().unwrap();
    assert!((avg - (0.9 + 0.4 + 0.7) / 3.0).abs() < 1e-12);
    assert_eq!(sols.get(0, "hi").unwrap().as_f64(), Some(0.9));
}

#[test]
fn aggregates_sum_min() {
    let mut db = fixture();
    let sols = db
        .query(&format!(
            "{PREFIXES} SELECT (SUM(?c) AS ?s) (MIN(?c) AS ?lo) WHERE {{ \
               ?h noa:hasConfidence ?c }}"
        ))
        .unwrap();
    let s = sols.get(0, "s").unwrap().as_f64().unwrap();
    assert!((s - 2.0).abs() < 1e-12);
    assert_eq!(sols.get(0, "lo").unwrap().as_f64(), Some(0.4));
}

#[test]
fn aggregate_over_empty_group_is_one_row() {
    let mut db = fixture();
    let sols = db
        .query(&format!("{PREFIXES} SELECT (COUNT(*) AS ?n) WHERE {{ ?x a ex:Nothing }}"))
        .unwrap();
    assert_eq!(sols.len(), 1);
    assert_eq!(sols.get(0, "n"), Some(&Term::int(0)));
}

/// An aggregate call anywhere in a projected expression folds into a
/// slot of its own, which the expression reads like a variable.
#[test]
fn aggregate_calls_nest_inside_projected_expressions() {
    let mut db = Strabon::new();
    db.load_turtle("@prefix ex: <http://example.org/> . ex:a ex:v 3 . ex:b ex:v -5 .").unwrap();
    let sols = db
        .query(&format!(
            "{PREFIXES} SELECT (ABS(SUM(?c)) AS ?abs) (-COUNT(?c) AS ?neg) (STR(COUNT(?c)) AS ?str) \
             (IF(COUNT(?c) > 1, \"many\", \"few\") AS ?if) WHERE {{ ?x ex:v ?c }}"
        ))
        .unwrap();
    assert_eq!(sols.get(0, "abs"), Some(&Term::int(2)));
    assert_eq!(sols.get(0, "neg"), Some(&Term::int(-2)));
    assert_eq!(sols.get(0, "str"), Some(&Term::literal("2")));
    assert_eq!(sols.get(0, "if"), Some(&Term::literal("many")));
    // A global aggregate over zero solutions still has its one row.
    let empty = db
        .query(&format!("{PREFIXES} SELECT (COUNT(*) + 1 AS ?n) WHERE {{ ?x ex:nothing ?c }}"))
        .unwrap();
    assert_eq!(empty.rows, [[Some(Term::int(1))]]);
}

#[test]
fn spatial_aggregate_total_area() {
    let mut db = fixture();
    let sols = db
        .query(&format!(
            "{PREFIXES} SELECT (SUM(strdf:area(?g)) AS ?total) WHERE {{ \
               ?img a noa:RawImage ; strdf:hasGeometry ?g }}"
        ))
        .unwrap();
    // Two 3x3-degree footprints.
    assert_eq!(sols.get(0, "total").unwrap().as_f64(), Some(18.0));
}

/// An aggregating projection reads a variable only through GROUP BY, a
/// fold or an earlier alias: bare, or inside an expression.
#[test]
fn non_grouped_var_in_aggregate_projection_errors() {
    let mut db = fixture();
    let answer = |db: &mut Strabon, projection: &str, group_by: &str| {
        db.query(&format!(
            "{PREFIXES} SELECT {projection} WHERE {{ ?h noa:isDerivedFrom ?img ; \
             noa:hasConfidence ?c }} {group_by}"
        ))
        .map(|sols| sols.len())
    };
    for (projection, group_by, v) in [
        ("?h (COUNT(?c) AS ?n)", "", "h"),
        ("(?c AS ?first) (COUNT(?c) AS ?n)", "GROUP BY ?img", "c"),
        ("(COUNT(?c) + ?c AS ?n)", "", "c"),
        ("(STR(?h) AS ?s) (COUNT(?c) AS ?n)", "GROUP BY ?img", "h"),
    ] {
        let error = format!("non-aggregated ?{v} must appear in GROUP BY");
        assert_eq!(answer(&mut db, projection, group_by), Err(StrabonError::Eval(error)));
    }
    let grouped = "(STR(?img) AS ?i) (COUNT(?c) AS ?n) (?n + 1 AS ?m)";
    assert_eq!(answer(&mut db, grouped, "GROUP BY ?img"), Ok(2));
}

#[test]
fn rdfs_inference_expands_type_patterns() {
    let mut db = Strabon::new();
    db.load_turtle(
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
         @prefix ex: <http://example.org/> .\n\
         ex:ForestFire rdfs:subClassOf ex:Fire .\n\
         ex:AgriculturalFire rdfs:subClassOf ex:Fire .\n\
         ex:Fire rdfs:subClassOf ex:Event .\n\
         ex:f1 a ex:ForestFire .\n\
         ex:f2 a ex:AgriculturalFire .\n\
         ex:f3 a ex:Fire .\n\
         ex:x1 a ex:Flood .",
    )
    .unwrap();

    // Without inference: only the directly-typed instance.
    let q = "PREFIX ex: <http://example.org/> SELECT ?f WHERE { ?f a ex:Fire }";
    assert_eq!(db.query(q).unwrap().len(), 1);

    // With inference: the subclass instances too, transitively up to Event.
    let mut cfg = db.config();
    cfg.rdfs_inference = true;
    db.set_config(cfg);
    assert_eq!(db.query(q).unwrap().len(), 3);
    let all_events =
        db.query("PREFIX ex: <http://example.org/> SELECT ?f WHERE { ?f a ex:Event }").unwrap();
    assert_eq!(all_events.len(), 3);
    // Unrelated classes are untouched.
    let floods =
        db.query("PREFIX ex: <http://example.org/> SELECT ?f WHERE { ?f a ex:Flood }").unwrap();
    assert_eq!(floods.len(), 1);
}

#[test]
fn rdfs_inference_composes_with_joins() {
    let mut db = fixture();
    // Make Hotspot a subclass of a broader Observation class and add a
    // directly-typed Observation.
    db.load_turtle(
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
         @prefix noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#> .\n\
         @prefix ex: <http://example.org/> .\n\
         noa:Hotspot rdfs:subClassOf ex:Observation .\n\
         ex:obs1 a ex:Observation .",
    )
    .unwrap();
    let mut cfg = db.config();
    cfg.rdfs_inference = true;
    db.set_config(cfg);
    let sols = db.query(&format!("{PREFIXES} SELECT ?o WHERE {{ ?o a ex:Observation }}")).unwrap();
    // 3 hotspots + 1 direct observation.
    assert_eq!(sols.len(), 4);
}

#[test]
fn temporal_period_functions() {
    let mut db = Strabon::new();
    db.load_turtle(
        "@prefix strdf: <http://strdf.di.uoa.gr/ontology#> .\n\
         @prefix ex: <http://example.org/> .\n\
         ex:fire1 strdf:hasValidTime \"[2007-08-25T10:00:00Z, 2007-08-25T16:00:00Z)\"^^strdf:period .\n\
         ex:fire2 strdf:hasValidTime \"[2007-08-26T09:00:00Z, 2007-08-26T12:00:00Z)\"^^strdf:period .",
    )
    .unwrap();

    // Events overlapping the afternoon of the 25th.
    let sols = db
        .query(
            "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n\
             PREFIX ex: <http://example.org/>\n\
             SELECT ?f WHERE { ?f strdf:hasValidTime ?t .\n\
               FILTER(strdf:periodOverlaps(?t, \"[2007-08-25T14:00:00Z, 2007-08-25T20:00:00Z)\"^^strdf:period)) }",
        )
        .unwrap();
    assert_eq!(sols.len(), 1);
    assert_eq!(sols.get(0, "f"), Some(&Term::iri("http://example.org/fire1")));

    // Events active at a specific instant.
    let sols = db
        .query(
            "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n\
             SELECT ?f WHERE { ?f strdf:hasValidTime ?t .\n\
               FILTER(strdf:during(\"2007-08-26T10:30:00Z\", ?t)) }",
        )
        .unwrap();
    assert_eq!(sols.len(), 1);
    assert_eq!(sols.get(0, "f"), Some(&Term::iri("http://example.org/fire2")));

    // Projecting period bounds.
    let sols = db
        .query(
            "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n\
             SELECT ?f (strdf:periodStart(?t) AS ?s) WHERE { ?f strdf:hasValidTime ?t } ORDER BY ?s",
        )
        .unwrap();
    assert_eq!(sols.len(), 2);
    assert_eq!(sols.get(0, "s"), Some(&Term::date_time("2007-08-25T10:00:00Z")));
}

#[test]
fn explain_shows_plan() {
    let mut db = fixture();
    let plan = db
        .query_plan_for_test(&format!(
            "{PREFIXES} SELECT ?h ?img WHERE {{ \
               ?h a noa:Hotspot ; strdf:hasGeometry ?g ; noa:isDerivedFrom ?img . \
               FILTER(strdf:intersects(?g, \"POLYGON ((21 36, 24 36, 24 39, 21 39, 21 36))\"^^strdf:WKT)) }}"
        ));
    // The spatial FILTER is a join step probing the R-tree with the
    // constant, not a filter.
    assert!(plan.contains(". spatial join intersects(?g, a POLYGON), binding ?g (est "), "{plan}");
    assert!(plan.contains("match"));
    assert!(plan.contains("(est "));
    assert!(!plan.contains("filter"), "{plan}");
    // With the optimizer off, patterns keep syntactic order.
    let mut cfg = db.config();
    cfg.optimize_bgp = false;
    cfg.use_spatial_index = false;
    db.set_config(cfg);
    let plan2 = db.query_plan_for_test(&format!(
        "{PREFIXES} SELECT ?h WHERE {{ ?h noa:hasConfidence ?c . ?h a noa:Hotspot }}"
    ));
    assert!(plan2.starts_with("config: optimize_bgp=false, use_spatial_index=false"), "{plan2}");
    let conf_pos = plan2.find("hasConfidence").unwrap();
    let type_pos = plan2.find("Hotspot").unwrap();
    assert!(conf_pos < type_pos, "syntactic order must be preserved:\n{plan2}");
}

/// EXPLAIN must print the order the evaluator runs: a FILTER does not
/// cut the BGP, it runs right after the step that binds its variable,
/// and the joins after it are costed with that variable bound.
#[test]
fn explain_orders_later_runs_with_earlier_bindings() {
    let mut db = Strabon::new();
    let iri = |s: String| Term::iri(format!("http://example.org/{s}"));
    let (rare, p, q) = (iri("Rare".into()), iri("p".into()), iri("q".into()));
    let type_p = Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
    for i in 0..40 {
        db.insert(&iri(format!("s{i}")), &p, &iri(format!("o{i}")));
        if i < 10 {
            db.insert(&iri(format!("o{i}")), &q, &iri(format!("z{i}")));
        }
        if i < 2 {
            db.insert(&iri(format!("s{i}")), &type_p, &rare);
        }
    }
    let query = "PREFIX ex: <http://example.org/> SELECT ?s ?z WHERE { \
                   ?s a ex:Rare . FILTER(?s != ex:s1) ?o ex:q ?z . ?s ex:p ?o }";
    // With ?s unbound the 10 ex:q triples would go before the 40 ex:p
    // ones; with ?s bound by the rare class, ex:p (one ?o per ?s) goes
    // first, and ex:q joins on the ?o it binds instead of crossing.
    let plan = db.query_plan_for_test(query);
    let p_pos = plan.find("/p>").expect("ex:p in plan");
    let q_pos = plan.find("/q>").expect("ex:q in plan");
    assert!(p_pos < q_pos, "?s is bound when ex:p and ex:q are ordered:\n{plan}");
    assert!(
        plan.contains("  2. filter (est 1)\n  3. match ?s <http://example.org/p> ?o (est 1)"),
        "{plan}"
    );
    assert_eq!(db.query(query).unwrap().len(), 1);
}

/// `optimize_bgp` × `use_spatial_index`.
fn configs() -> Vec<StrabonConfig> {
    [(true, true), (true, false), (false, true), (false, false)]
        .map(|(optimize_bgp, use_spatial_index)| StrabonConfig {
            optimize_bgp,
            use_spatial_index,
            ..StrabonConfig::default()
        })
        .to_vec()
}

/// A FILTER's scope is its whole group: written before the patterns
/// that bind its variables, it keeps exactly what it keeps written
/// last, under every configuration.
#[test]
fn a_filter_written_first_keeps_what_it_keeps_written_last() {
    let region = "\"POLYGON ((21 36, 24 36, 24 39, 21 39, 21 36))\"^^strdf:WKT";
    for (filter, patterns) in [
        ("FILTER(?c > 0.5)".to_string(), "?h noa:hasConfidence ?c ."),
        (
            format!("FILTER(strdf:intersects(?g, {region}))"),
            "?h strdf:hasGeometry ?g ; noa:isDerivedFrom ?img .",
        ),
    ] {
        let first = format!("{PREFIXES} SELECT ?h WHERE {{ {filter} {patterns} }} ORDER BY ?h");
        let last = format!("{PREFIXES} SELECT ?h WHERE {{ {patterns} {filter} }} ORDER BY ?h");
        for config in configs() {
            let mut db = fixture();
            db.set_config(config);
            let written_last = db.query(&last).unwrap();
            assert_eq!(db.query(&first).unwrap(), written_last, "{filter} under {config:?}");
            assert_eq!(written_last.len(), 2, "{filter} under {config:?}");
        }
    }
}

/// `images` raw images over two days, `hotspots` hotspots derived from
/// them round-robin, each a small square somewhere in 21–24 × 36–39,
/// and four archaeological sites.
fn ratio_archive(images: usize, hotspots: usize, config: StrabonConfig) -> Strabon {
    let mut db = Strabon::with_config(config);
    let noa = |local: &str| {
        Term::iri(format!("http://teleios.di.uoa.gr/ontologies/noaOntology.owl#{local}"))
    };
    let wkt = |text: String| Term::typed_literal(text, "http://strdf.di.uoa.gr/ontology#WKT");
    let type_p = Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
    let geom_p = Term::iri("http://strdf.di.uoa.gr/ontology#hasGeometry");
    let img = |i: usize| Term::iri(format!("http://example.org/img{i}"));
    for i in 0..images {
        db.insert(&img(i), &type_p, &noa("RawImage"));
        db.insert(
            &img(i),
            &noa("isAcquiredBy"),
            &Term::iri("http://teleios.di.uoa.gr/satellites/MSG2"),
        );
        db.insert(
            &img(i),
            &noa("hasAcquisitionTime"),
            &Term::date_time(format!("2007-08-0{}T12:00:00Z", 1 + i % 2)),
        );
        db.insert(&img(i), &geom_p, &wkt("POLYGON ((21 36, 24 36, 24 39, 21 39, 21 36))".into()));
    }
    for j in 0..hotspots {
        let h = Term::iri(format!("http://example.org/hotspot{j}"));
        let (x, y) = (21.0 + (j * 7 % 30) as f64 * 0.1, 36.0 + (j * 11 % 30) as f64 * 0.1);
        let (x1, y1) = (x + 0.05, y + 0.05);
        db.insert(&h, &type_p, &noa("Hotspot"));
        db.insert(&h, &noa("isDerivedFrom"), &img(j % images));
        db.insert(
            &h,
            &geom_p,
            &wkt(format!("POLYGON (({x} {y}, {x1} {y}, {x1} {y1}, {x} {y1}, {x} {y}))")),
        );
    }
    for (k, (x, y)) in
        [(22.0, 37.0), (23.0, 38.0), (21.5, 38.5), (23.5, 36.5)].into_iter().enumerate()
    {
        let site = Term::iri(format!("http://example.org/site{k}"));
        db.insert(&site, &type_p, &Term::iri("http://dbpedia.org/ontology/ArchaeologicalSite"));
        db.insert(&site, &geom_p, &wkt(format!("POINT ({x} {y})")));
    }
    db
}

/// Across hotspot:image ratios from 1:4 to 16:1 the optimized flagship
/// answers what the syntactic plan does, no step of its plan is
/// estimated above images + hotspots — no sites × images (or images ×
/// hotspots) cross product runs before the day FILTER — and its
/// distance predicate is the spatial-join step: the day FILTER is its
/// one filter step.
#[test]
fn flagship_plan_stays_linear_across_hotspot_image_ratios() {
    let flagship = format!(
        "{PREFIXES} SELECT DISTINCT ?img ?h ?site WHERE {{ \
           ?img a noa:RawImage ; noa:isAcquiredBy <http://teleios.di.uoa.gr/satellites/MSG2> ; \
                noa:hasAcquisitionTime ?t . \
           ?h a noa:Hotspot ; noa:isDerivedFrom ?img ; strdf:hasGeometry ?hg . \
           ?site a <http://dbpedia.org/ontology/ArchaeologicalSite> ; strdf:hasGeometry ?sg . \
           FILTER(STR(?t) >= \"2007-08-01T00:00:00Z\" && STR(?t) < \"2007-08-01T23:59:59Z\") \
           FILTER(strdf:distance(?hg, ?sg) < 0.5) }}"
    );
    let syntactic = StrabonConfig { optimize_bgp: false, ..StrabonConfig::default() };
    for (h, i) in [(1, 4), (1, 1), (4, 1), (16, 1)] {
        let images = 85 * i / (h + i);
        let hotspots = 85 - images;
        let mut optimized = ratio_archive(images, hotspots, StrabonConfig::default());
        let answer = |db: &mut Strabon| {
            let mut rows = db.query(&flagship).unwrap().rows;
            rows.sort();
            rows
        };
        let rows = answer(&mut optimized);
        assert!(!rows.is_empty(), "{h}:{i}");
        assert_eq!(rows, answer(&mut ratio_archive(images, hotspots, syntactic)), "{h}:{i}");
        let plan = optimized.explain(&flagship).unwrap();
        assert!(plan.contains(". spatial check distance(?hg, ?sg) < 0.5 (est "), "{h}:{i}\n{plan}");
        assert_eq!(plan.matches(". filter (est ").count(), 1, "{h}:{i}\n{plan}");
        for line in plan.lines().filter(|l| l.contains("(est ")) {
            let est: f64 = line
                .rsplit_once("(est ")
                .and_then(|(_, n)| n.trim_end_matches(')').parse().ok())
                .unwrap();
            assert!(est <= (images + hotspots) as f64, "{h}:{i}: {line}\n{plan}");
        }
    }
}

/// A geometry without coordinates has no envelope, hence no R-tree
/// entry, yet `strdf:equals` holds between two of them: the spatial
/// join finds it as the pairwise FILTER does.
#[test]
fn equals_finds_an_empty_geometry_with_the_index_on() {
    let wkt = |text: &str| Term::typed_literal(text, "http://strdf.di.uoa.gr/ontology#WKT");
    let geom_p = Term::iri("http://strdf.di.uoa.gr/ontology#hasGeometry");
    let query = format!(
        "{PREFIXES} SELECT ?f WHERE {{ ?f strdf:hasGeometry ?g . \
         FILTER(strdf:equals(?g, \"MULTIPOINT EMPTY\"^^strdf:WKT)) }}"
    );
    for use_spatial_index in [true, false] {
        let mut db =
            Strabon::with_config(StrabonConfig { use_spatial_index, ..StrabonConfig::default() });
        db.insert(&Term::iri("http://example.org/empty"), &geom_p, &wkt("MULTIPOINT EMPTY"));
        // Enough points that the join, not a scan and check, is cheapest.
        for i in 0..20 {
            db.insert(
                &Term::iri(format!("http://example.org/p{i}")),
                &geom_p,
                &wkt(&format!("POINT ({i} {})", i % 4)),
            );
        }
        let sols = db.query(&query).unwrap();
        assert_eq!(sols.len(), 1, "index {use_spatial_index}\n{}", db.explain(&query).unwrap());
        assert_eq!(sols.get(0, "f"), Some(&Term::iri("http://example.org/empty")));
        let joins = db
            .explain(&query)
            .unwrap()
            .contains("spatial join equals(?g, a MULTIPOINT), binding ?g");
        assert_eq!(joins, use_spatial_index);
    }
}

trait ExplainExt {
    fn query_plan_for_test(&mut self, q: &str) -> String;
}

impl ExplainExt for Strabon {
    fn query_plan_for_test(&mut self, q: &str) -> String {
        self.explain(q).unwrap()
    }
}

#[test]
fn filter_exists_and_not_exists() {
    let mut db = fixture();
    // Hotspots whose image also has other hotspots (EXISTS with a
    // correlated pattern).
    let with_siblings = db
        .query(&format!(
            "{PREFIXES} SELECT ?h WHERE {{ \
               ?h a noa:Hotspot ; noa:isDerivedFrom ?img . \
               FILTER EXISTS {{ ?other a noa:Hotspot ; noa:isDerivedFrom ?img . \
                                FILTER(?other != ?h) }} }}"
        ))
        .unwrap();
    // h1 and h2 share img1; h3 is alone on img2.
    assert_eq!(with_siblings.len(), 2);

    // Images with no hotspots at all (NOT EXISTS).
    db.load_turtle(
        "@prefix noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#> .\n\
         @prefix ex: <http://example.org/> .\n\
         ex:img3 a noa:RawImage .",
    )
    .unwrap();
    let quiet = db
        .query(&format!(
            "{PREFIXES} SELECT ?img WHERE {{ \
               ?img a noa:RawImage . \
               FILTER NOT EXISTS {{ ?h noa:isDerivedFrom ?img }} }}"
        ))
        .unwrap();
    assert_eq!(quiet.len(), 1);
    assert_eq!(quiet.get(0, "img"), Some(&Term::iri("http://example.org/img3")));
}

#[test]
fn construct_derives_triples() {
    let mut db = fixture();
    // Derive a flat "dangerousFire" summary graph from high-confidence
    // hotspots and their geometry.
    let derived = db
        .construct(&format!(
            "{PREFIXES} CONSTRUCT {{ \
               ?h a ex:DangerousFire . \
               ?h ex:locatedAt ?g . \
             }} WHERE {{ \
               ?h a noa:Hotspot ; noa:hasConfidence ?c ; strdf:hasGeometry ?g . \
               FILTER(?c >= 0.7) }}"
        ))
        .unwrap();
    // Two hotspots qualify (h1: 0.9, h3: 0.7) x two template triples.
    assert_eq!(derived.len(), 4);
    // Materialize and query the derivation.
    for (s, p, o) in &derived {
        db.insert(s, p, o);
    }
    let sols =
        db.query(&format!("{PREFIXES} SELECT ?h WHERE {{ ?h a ex:DangerousFire }}")).unwrap();
    assert_eq!(sols.len(), 2);
}

#[test]
fn construct_deduplicates() {
    let mut db = fixture();
    // Every hotspot maps to the same ground triple: one output.
    let derived = db
        .construct(&format!(
            "{PREFIXES} CONSTRUCT {{ ex:event a ex:FireEvent }} WHERE {{ ?h a noa:Hotspot }}"
        ))
        .unwrap();
    assert_eq!(derived.len(), 1);
}

#[test]
fn construct_rejects_unbound_template_var() {
    let mut db = fixture();
    let r = db
        .construct(&format!("{PREFIXES} CONSTRUCT {{ ?zzz a ex:X }} WHERE {{ ?h a noa:Hotspot }}"));
    assert!(r.is_err());
    // And SELECT via construct() is an error.
    assert!(db.construct(&format!("{PREFIXES} SELECT ?h WHERE {{ ?h a noa:Hotspot }}")).is_err());
}

// --- solution modifiers run in SPARQL's order ----------------------------

/// The ?h column of a SELECT, as local names.
fn column(db: &mut Strabon, var: &str, query: &str) -> Vec<String> {
    let sols = db.query(&format!("{PREFIXES} {query}")).unwrap();
    (0..sols.len())
        .map(|i| {
            let t = sols.get(i, var).unwrap();
            t.as_iri().map_or_else(
                || t.lexical().unwrap().to_string(),
                |iri| iri.rsplit('/').next().unwrap().to_string(),
            )
        })
        .collect()
}

/// Three images with 1, 3 and 2 hotspots, in that (first-seen) order.
fn counted_fixture() -> Strabon {
    let mut db = Strabon::new();
    let ex = |s: String| Term::iri(format!("http://example.org/{s}"));
    let derived = Term::iri("http://teleios.di.uoa.gr/ontologies/noaOntology.owl#isDerivedFrom");
    for (img, hotspots) in [(1, 1), (2, 3), (3, 2)] {
        for k in 0..hotspots {
            db.insert(&ex(format!("h{img}{k}")), &derived, &ex(format!("img{img}")));
        }
    }
    db
}

#[test]
fn order_by_sees_aggregate_aliases() {
    let mut db = counted_fixture();
    let q = |tail: &str| {
        format!("SELECT ?img (COUNT(?h) AS ?n) WHERE {{ ?h noa:isDerivedFrom ?img }} GROUP BY ?img {tail}")
    };
    assert_eq!(column(&mut db, "n", &q("")), ["1", "3", "2"], "first-seen group order");
    assert_eq!(column(&mut db, "n", &q("ORDER BY ?n")), ["1", "2", "3"]);
    assert_eq!(column(&mut db, "n", &q("ORDER BY DESC(?n)")), ["3", "2", "1"]);
    assert_eq!(column(&mut db, "img", &q("ORDER BY DESC(?n)")), ["img2", "img3", "img1"]);
    // A GROUP BY key keeps ordering groups.
    assert_eq!(column(&mut db, "img", &q("ORDER BY DESC(?img)")), ["img3", "img2", "img1"]);
    assert_eq!(column(&mut db, "n", &q("ORDER BY ?img")), ["1", "3", "2"]);
    // DISTINCT, OFFSET and LIMIT apply to the ordered rows.
    assert_eq!(column(&mut db, "n", &q("ORDER BY DESC(?n) LIMIT 2")), ["3", "2"]);
    assert_eq!(column(&mut db, "n", &q("ORDER BY ?n OFFSET 1 LIMIT 1")), ["2"]);
    let distinct = "SELECT DISTINCT (COUNT(?h) AS ?n) WHERE { ?h noa:isDerivedFrom ?img } GROUP BY ?img ORDER BY DESC(?n) OFFSET 1";
    assert_eq!(column(&mut db, "n", distinct), ["2", "1"]);
    // A WHERE variable that is not a key no longer reshuffles the groups.
    assert_eq!(column(&mut db, "n", &q("ORDER BY DESC(?h)")), ["1", "3", "2"]);
}

#[test]
fn order_by_sees_projected_expression_aliases() {
    let mut db = fixture();
    let q =
        |tail: &str| format!("SELECT ?h (?c * 2 AS ?d) WHERE {{ ?h noa:hasConfidence ?c }} {tail}");
    assert_eq!(column(&mut db, "h", &q("ORDER BY DESC(?d)")), ["h1", "h3", "h2"]);
    assert_eq!(column(&mut db, "h", &q("ORDER BY ?d")), ["h2", "h3", "h1"]);
    assert_eq!(column(&mut db, "d", &q("ORDER BY ?d")), ["0.8", "1.4", "1.8"]);
    assert_eq!(column(&mut db, "h", &q("ORDER BY DESC(?d) OFFSET 1 LIMIT 1")), ["h3"]);
    let distinct = "SELECT DISTINCT (?c * 0 AS ?zero) WHERE { ?h noa:hasConfidence ?c } ORDER BY ?zero LIMIT 5";
    assert_eq!(column(&mut db, "zero", distinct).len(), 1);
}

#[test]
fn order_by_a_where_variable_that_is_not_projected() {
    let mut db = fixture();
    let q = |tail: &str| format!("SELECT ?h WHERE {{ ?h noa:hasConfidence ?c }} {tail}");
    assert_eq!(column(&mut db, "h", &q("ORDER BY ?c")), ["h2", "h3", "h1"]);
    assert_eq!(column(&mut db, "h", &q("ORDER BY DESC(?c)")), ["h1", "h3", "h2"]);
    assert_eq!(column(&mut db, "h", &q("ORDER BY DESC(?c) OFFSET 1 LIMIT 5")), ["h3", "h2"]);
    let distinct = "SELECT DISTINCT ?img WHERE { ?h noa:hasConfidence ?c ; noa:isDerivedFrom ?img } ORDER BY ?c LIMIT 1";
    assert_eq!(column(&mut db, "img", distinct), ["img1"]);
}

#[test]
fn order_by_a_builtin_call_or_a_bracketed_expression() {
    let mut db = fixture();
    let q = |key: &str| {
        format!("SELECT ?img WHERE {{ ?img noa:hasAcquisitionTime ?t }} ORDER BY {key}")
    };
    assert_eq!(column(&mut db, "img", &q("STR(?t)")), ["img1", "img2"]);
    assert_eq!(column(&mut db, "img", &q("DESC(STR(?t))")), ["img2", "img1"]);
    let q = |key: &str| format!("SELECT ?h WHERE {{ ?h noa:hasConfidence ?c }} ORDER BY {key}");
    assert_eq!(column(&mut db, "h", &q("(?c * -1) ?h")), ["h1", "h3", "h2"]);
    assert_eq!(column(&mut db, "h", &q("STRLEN(STR(?h)) DESC(?c)")), ["h1", "h3", "h2"]);
}

// --- solutions move a block at a time ------------------------------------

/// `n` subjects `ex:s{i}`, each with `ex:p i`, inserted in `i` order (so
/// the `?s ex:p ?v` scan meets them in that order) and `ex:mod "m{i % 7}"`;
/// a label "a" when `i % 3 == 0` and a second one, "b", when `i % 6 ==
/// 0`; `ex:odd true` for odd `i`, `ex:five true` when `i % 5 == 0`.
fn blocks_fixture(n: usize) -> Strabon {
    let mut db = Strabon::new();
    let ex = |s: &str| Term::iri(format!("http://example.org/{s}"));
    for i in 0..n {
        let s = ex(&format!("s{i}"));
        db.insert(&s, &ex("p"), &Term::int(i as i64));
        db.insert(&s, &ex("mod"), &Term::literal(format!("m{}", i % 7)));
        for (test, label) in [(i % 3 == 0, "a"), (i % 6 == 0, "b")] {
            if test {
                db.insert(&s, &ex("label"), &Term::literal(label));
            }
        }
        for (test, p) in [(i % 2 == 1, "odd"), (i % 5 == 0, "five")] {
            if test {
                db.insert(&s, &ex(p), &Term::boolean(true));
            }
        }
    }
    db
}

/// Around one block (1 024 rows) and past three, the first scan's rows
/// answer every solution modifier and nested body as a step-by-step
/// walk would: counts, DISTINCT, and the row sequence under ORDER BY
/// or a LIMIT that cuts the walk's order, OFFSETs crossing a block.
#[test]
fn answers_hold_across_block_boundaries() {
    for n in [1023, 1024, 1025, 3079] {
        let mut db = blocks_fixture(n);
        let len = |db: &mut Strabon, q: &str| db.query(&format!("{PREFIXES} {q}")).unwrap().len();
        let values = |db: &mut Strabon, q: &str| -> Vec<i64> {
            column(db, "v", q).iter().map(|v| v.parse().unwrap()).collect()
        };
        let count = |f: fn(usize) -> bool| (0..n).filter(|&i| f(i)).count();
        let plan = db
            .explain(&format!(
                "{PREFIXES} SELECT ?s WHERE {{ ?s ex:p ?v MINUS {{ ?s ex:odd true }} }}"
            ))
            .unwrap();
        assert!(plan.contains("1. match ?s <http://example.org/p> ?v"), "{plan}");

        assert_eq!(len(&mut db, "SELECT ?s WHERE { ?s ex:p ?v }"), n);
        let optional = "SELECT ?s ?l WHERE { ?s ex:p ?v OPTIONAL { ?s ex:label ?l } }";
        assert_eq!(len(&mut db, optional), n + count(|i| i % 6 == 0), "n = {n}");
        let labels = "SELECT DISTINCT ?l WHERE { ?s ex:p ?v OPTIONAL { ?s ex:label ?l } }";
        assert_eq!(len(&mut db, labels), 3, "unbound, a, b");
        let minus = "SELECT ?s WHERE { ?s ex:p ?v MINUS { ?s ex:odd true } }";
        assert_eq!(len(&mut db, minus), count(|i| i % 2 == 0));
        let exists = "SELECT ?s WHERE { ?s ex:p ?v FILTER EXISTS { ?s ex:five true } }";
        assert_eq!(len(&mut db, exists), count(|i| i % 5 == 0));
        let not_exists = "SELECT ?s WHERE { ?s ex:p ?v FILTER NOT EXISTS { ?s ex:five true } }";
        assert_eq!(len(&mut db, not_exists), count(|i| i % 5 != 0));
        let distinct = "SELECT DISTINCT ?m WHERE { ?s ex:p ?v ; ex:mod ?m }";
        assert_eq!(len(&mut db, distinct), 7);
        assert_eq!(column(&mut db, "m", &format!("{distinct} LIMIT 3")), ["m0", "m1", "m2"]);

        // The walk's order: `?v` ascending, sliced across a block.
        let window: Vec<i64> = (0..n as i64).skip(1020).take(10).collect();
        assert_eq!(values(&mut db, "SELECT ?v WHERE { ?s ex:p ?v } OFFSET 1020 LIMIT 10"), window);
        let descending: Vec<i64> = (0..n as i64).rev().skip(1020).take(10).collect();
        let ordered = "SELECT ?v WHERE { ?s ex:p ?v } ORDER BY DESC(?v) OFFSET 1020 LIMIT 10";
        assert_eq!(values(&mut db, ordered), descending);
        // Two labels on every sixth subject: ORDER BY ties keep the walk's order.
        let tied = "SELECT ?v ?l WHERE { ?s ex:p ?v OPTIONAL { ?s ex:label ?l } } ORDER BY DESC(?l) LIMIT 4";
        let sols = db.query(&format!("{PREFIXES} {tied}")).unwrap();
        let first: Vec<_> =
            (0..4).map(|i| sols.get(i, "v").unwrap().lexical().unwrap().to_string()).collect();
        assert_eq!(first, ["0", "6", "12", "18"], "n = {n}");

        // A UNION runs each branch over all of its input in turn: the
        // odd subjects, then every fifth, each in the walk's order.
        let union = "SELECT ?v WHERE { ?s ex:p ?v { ?s ex:odd true } UNION { ?s ex:five true } }";
        let mut expected: Vec<i64> = (0..n as i64).filter(|i| i % 2 == 1).collect();
        expected.extend((0..n as i64).filter(|i| i % 5 == 0));
        assert_eq!(values(&mut db, union), expected);
        let sliced =
            expected.iter().copied().skip(count(|i| i % 2 == 1) - 2).take(4).collect::<Vec<_>>();
        let offset = count(|i| i % 2 == 1) - 2;
        assert_eq!(values(&mut db, &format!("{union} OFFSET {offset} LIMIT 4")), sliced);
        let twice = "SELECT ?v WHERE { ?s ex:p ?v { ?s ex:odd true } UNION { ?s ex:five true } { ?s ex:mod \"m0\" } UNION { ?s ex:mod \"m1\" } }";
        let mut expected_twice: Vec<i64> =
            expected.iter().copied().filter(|i| i % 7 == 0).collect();
        expected_twice.extend(expected.iter().copied().filter(|i| i % 7 == 1));
        assert_eq!(values(&mut db, twice), expected_twice);
    }
}

// --- EXPLAIN prints the plan the evaluator walks ---------------------------

/// The data of `explain_orders_later_runs_with_earlier_bindings`: 40
/// `ex:p` triples, 10 `ex:q` ones, 2 subjects of class `ex:Rare`.
fn rare_fixture() -> Strabon {
    let mut db = Strabon::new();
    let iri = |s: String| Term::iri(format!("http://example.org/{s}"));
    let type_p = Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
    for i in 0..40 {
        db.insert(&iri(format!("s{i}")), &iri("p".into()), &iri(format!("o{i}")));
        if i < 10 {
            db.insert(&iri(format!("o{i}")), &iri("q".into()), &iri(format!("z{i}")));
        }
        if i < 2 {
            db.insert(&iri(format!("s{i}")), &type_p, &iri("Rare".into()));
        }
    }
    db
}

/// A BIND target is bound for the runs after it, in EXPLAIN as in
/// evaluation: `?t ex:p ?o` (one ?o per bound ?t) goes before
/// `?o ex:q ?z` (10, a cross product while ?o is open).
#[test]
fn explain_counts_bind_targets_as_bound() {
    let mut db = rare_fixture();
    let query = "PREFIX ex: <http://example.org/> SELECT ?s ?z WHERE { \
                   ?s a ex:Rare . BIND(?s AS ?t) ?o ex:q ?z . ?t ex:p ?o }";
    let plan = db.explain(query).unwrap();
    let p_pos = plan.find("/p>").expect("ex:p in plan");
    let q_pos = plan.find("/q>").expect("ex:q in plan");
    assert!(p_pos < q_pos, "?t is bound when the second run is ordered:\n{plan}");
    assert!(plan.contains("  3. match ?t <http://example.org/p> ?o (est 2)"), "{plan}");
    assert!(plan.contains("  4. match ?o <http://example.org/q> ?z (est 2)"), "{plan}");
    assert_eq!(db.query(query).unwrap().len(), 2);
}

/// Nested bodies are part of the plan: their scans print indented,
/// ordered and estimated under the variables the enclosing run bound.
#[test]
fn explain_shows_nested_bodies_under_outer_bindings() {
    let mut db = rare_fixture();
    let body = "{ ?o ex:q ?z . ?s ex:p ?o }";
    for (nested, label) in [
        (format!("OPTIONAL {body}"), "optional group"),
        (format!("{body} UNION {{ ?s ex:p ?z }}"), "union"),
        (format!("MINUS {body}"), "minus group"),
        (format!("FILTER EXISTS {body}"), "filter exists"),
        (format!("FILTER NOT EXISTS {body}"), "filter not exists"),
    ] {
        let plan = db
            .explain(&format!(
                "PREFIX ex: <http://example.org/> SELECT ?s WHERE {{ ?s a ex:Rare . {nested} }}"
            ))
            .unwrap();
        let lines: Vec<&str> = plan.lines().collect();
        let at = lines
            .iter()
            .position(|l| l.starts_with(&format!("  2. {label} (est ")))
            .unwrap_or_else(|| panic!("{plan}"));
        assert_eq!(lines[at + 1], "       1. match ?s <http://example.org/p> ?o (est 2)", "{plan}");
        assert_eq!(lines[at + 2], "       2. match ?o <http://example.org/q> ?z (est 2)", "{plan}");
        if label == "union" {
            assert_eq!(
                lines[at + 3],
                "       1. match ?s <http://example.org/p> ?z (est 2)",
                "{plan}"
            );
        }
    }
    // A nested group's own spatial join prints with it.
    let mut db = fixture();
    let plan = db.query_plan_for_test(&format!(
        "{PREFIXES} SELECT ?img WHERE {{ ?img a noa:RawImage . OPTIONAL {{ ?h noa:isDerivedFrom ?img ; strdf:hasGeometry ?g . \
         FILTER(strdf:intersects(?g, \"POLYGON ((22 37, 23 37, 23 38, 22 38, 22 37))\"^^strdf:WKT)) }} }}"
    ));
    assert_eq!(plan.matches(". spatial ").count(), 1, "{plan}");
    assert!(
        plan.contains("\n       1. spatial join intersects(?g, a POLYGON), binding ?g (est 1)\n"),
        "{plan}"
    );
}

// --- the sidecar catches up in place ---------------------------------------

/// Every subject/geometry pair a window query serves, sorted.
fn served(db: &mut Strabon, window: &str) -> Vec<String> {
    let sols = db
        .query(&format!(
            "{PREFIXES} SELECT ?s ?g WHERE {{ ?s strdf:hasGeometry ?g . FILTER(strdf:intersects(?g, \"{window}\"^^strdf:WKT)) }}"
        ))
        .unwrap();
    let mut rows: Vec<String> = sols.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

/// An engine loaded from scratch with `db`'s current triples.
fn reloaded(db: &Strabon) -> Strabon {
    let mut fresh = Strabon::new();
    let store = db.store();
    for t in store.iter() {
        fresh.insert(store.term(t.s), store.term(t.p), store.term(t.o));
    }
    fresh
}

#[test]
fn sidecar_follows_interleaved_writes_like_a_fresh_engine() {
    const WINDOWS: [&str; 3] = [
        "POLYGON ((22 37, 23 37, 23 38, 22 38, 22 37))",
        "POLYGON ((10 40, 24 40, 24 44, 10 44, 10 40))",
        "POLYGON ((0 0, 60 0, 60 60, 0 60, 0 0))",
    ];
    let mut db = fixture();
    let check = |db: &mut Strabon, step: &str| {
        for w in WINDOWS {
            assert_eq!(served(db, w), served(&mut reloaded(db), w), "after {step}, window {w}");
        }
    };
    check(&mut db, "load");
    let geom = Term::iri("http://strdf.di.uoa.gr/ontology#hasGeometry");
    let point = |x: f64, y: f64| {
        Term::typed_literal(format!("POINT ({x} {y})"), "http://strdf.di.uoa.gr/ontology#WKT")
    };
    db.insert(&Term::iri("http://example.org/h4"), &geom, &point(22.5, 37.5));
    check(&mut db, "insert");
    // A write that interns no geometry leaves the tree alone.
    db.insert(
        &Term::iri("http://example.org/h4"),
        &Term::iri("http://example.org/note"),
        &Term::literal("x"),
    );
    check(&mut db, "non-spatial insert");
    // Writes around the engine, as the observatory's describers make them.
    let store = db.store_mut();
    store.insert_terms(&Term::iri("http://example.org/h6"), &geom, &point(23.5, 37.5));
    store.insert_terms(
        &Term::iri("http://example.org/h6"),
        &Term::iri("http://example.org/note"),
        &Term::literal("y"),
    );
    check(&mut db, "store_mut insert");
    // Refinement's clip: DELETE the geometry, INSERT a computed one.
    let clip = format!(
        "{PREFIXES} DELETE {{ ?h strdf:hasGeometry ?g }} INSERT {{ ?h strdf:hasGeometry ?b }} \
         WHERE {{ ?h a noa:Hotspot ; strdf:hasGeometry ?g . BIND(strdf:buffer(?g, 0.5) AS ?b) }}"
    );
    assert_eq!(db.update(&clip).unwrap(), 6);
    check(&mut db, "delete/insert of geometries");
    db.update(&format!("{PREFIXES} DELETE WHERE {{ ex:olympia strdf:hasGeometry ?g }}")).unwrap();
    db.load_turtle("<http://example.org/h5> <http://strdf.di.uoa.gr/ontology#hasGeometry> \"POINT (11 41)\"^^<http://strdf.di.uoa.gr/ontology#WKT> .").unwrap();
    check(&mut db, "delete where + turtle");
    assert_eq!(db.update(&clip).unwrap(), 6);
    check(&mut db, "second clip");
}

#[test]
fn replacing_the_store_forgets_its_geometries() {
    let mut db = fixture();
    let everywhere = "POLYGON ((0 0, 60 0, 60 60, 0 60, 0 0))";
    assert_eq!(served(&mut db, everywhere).len(), 6);
    // What recovery does: a whole new store behind the same engine. Its
    // dictionary reuses the old one's ids for plain literals, so a
    // geometry remembered by id would be served for a term that has none.
    let mut other = Strabon::new();
    let geom = Term::iri("http://strdf.di.uoa.gr/ontology#hasGeometry");
    for i in 0..40 {
        other.insert(
            &Term::iri(format!("http://example.org/n{i}")),
            &geom,
            &Term::literal(format!("no geometry {i}")),
        );
    }
    other.insert(
        &Term::iri("http://example.org/elsewhere"),
        &geom,
        &Term::typed_literal("POINT (50 50)", "http://strdf.di.uoa.gr/ontology#WKT"),
    );
    *db.store_mut() = other.store().clone();
    let rows = served(&mut db, everywhere);
    assert_eq!(rows.len(), 1, "{rows:?}");
    assert!(rows[0].contains("elsewhere") && rows[0].contains("POINT (50 50)"), "{rows:?}");
    assert!(served(&mut db, "POLYGON ((21 36, 24 36, 24 39, 21 39, 21 36))").is_empty());
    // A replacement whose dictionary has the old one's length and last
    // term, while its earlier ids name plain literals bound to ?g: only
    // the dictionary's identity tells it from the store it replaces.
    let mut db = fixture();
    assert_eq!(served(&mut db, everywhere).len(), 6);
    let replacement = lookalike(db.store());
    *db.store_mut() = replacement;
    let rows = served(&mut db, everywhere);
    assert!(rows.is_empty(), "{rows:?}");
}

/// A `Rows` reads the sidecar by id, and every statement catches the
/// sidecar up first: one taken after `*store_mut() = recovered`, where
/// the old dictionary gave the new geometry's id to another geometry,
/// reads the new dictionary's terms and geometries.
#[test]
fn rows_follow_a_replaced_store() {
    let geom = Term::iri("http://strdf.di.uoa.gr/ontology#hasGeometry");
    let point = |x: f64| {
        Term::typed_literal(format!("POINT ({x} {x})"), "http://strdf.di.uoa.gr/ontology#WKT")
    };
    let query = "SELECT ?f ?g WHERE { ?f <http://strdf.di.uoa.gr/ontology#hasGeometry> ?g }";
    let mut db = Strabon::new();
    db.insert(&Term::iri("http://example.org/a"), &geom, &point(1.0));
    let rows = db.select(query).unwrap();
    assert_eq!(rows.geometry(0, "g").unwrap().envelope().min.x, 1.0);
    let mut recovered = TripleStore::new();
    recovered.insert_terms(&Term::iri("http://example.org/b"), &geom, &point(2.0));
    assert_eq!(recovered.id_of(&point(2.0)), db.store().id_of(&point(1.0)));
    *db.store_mut() = recovered;
    let rows = db.select(query).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows.term(0, "f"), Some(&Term::iri("http://example.org/b")));
    assert_eq!(rows.term(0, "g"), Some(&point(2.0)));
    assert_eq!(rows.geometry(0, "g").unwrap().envelope().min.x, 2.0);
    // An IRI is no geometry.
    assert!(rows.geometry(0, "f").is_none());
}

/// A store whose dictionary has `like`'s length and last term, and
/// whose other ids name IRIs and plain literals, each literal the
/// object of a `strdf:hasGeometry` triple.
fn lookalike(like: &TripleStore) -> TripleStore {
    let n = like.dictionary().len();
    let geom = Term::iri("http://strdf.di.uoa.gr/ontology#hasGeometry");
    let mut out = TripleStore::new();
    let mut i = 0;
    while out.dictionary().len() + 3 < n {
        out.insert_terms(
            &Term::iri(format!("http://example.org/n{i}")),
            &geom,
            &Term::literal(format!("no geometry {i}")),
        );
        i += 1;
    }
    while out.dictionary().len() + 1 < n {
        out.intern(&Term::literal(format!("pad {i}")));
        i += 1;
    }
    out.intern(like.term(n as u32 - 1));
    assert_eq!(out.dictionary().len(), n);
    out
}

// --- one RDF reader: Turtle and stSPARQL agree on every term ---------

fn triples_of(db: &Strabon) -> Vec<String> {
    let store = db.store();
    let mut out: Vec<String> = store
        .iter()
        .map(|t| format!("{} {} {}", store.term(t.s), store.term(t.p), store.term(t.o)))
        .collect();
    out.sort();
    out
}

#[test]
fn insert_data_stores_the_terms_turtle_does() {
    let body =
        "ex:s ex:p _:b1 , -3 , +5 , 1e3 , 2.50 , 007 , .5 , TRUE ; ex:Πελοπόννησος \"x\"@el .";
    let mut loaded = Strabon::new();
    loaded.load_turtle(&format!("@prefix ex: <http://example.org/> .\n{body}")).unwrap();
    let mut inserted = Strabon::new();
    inserted.update(&format!("{PREFIXES}INSERT DATA {{ {body} }}")).unwrap();
    assert_eq!(loaded.len(), 9);
    assert_eq!(triples_of(&loaded), triples_of(&inserted));
}

#[test]
fn numerals_loaded_from_turtle_match_the_same_spelling_in_a_pattern() {
    let mut db = Strabon::new();
    db.load_turtle("@prefix ex: <http://example.org/> .\nex:a ex:p 1e3 . ex:b ex:p 2.50 . ex:c ex:p 007 . ex:d ex:p -3 .")
        .unwrap();
    for (numeral, subject) in [("1e3", "a"), ("2.50", "b"), ("007", "c"), ("-3", "d")] {
        let sols = db.query(&format!("{PREFIXES}SELECT ?s WHERE {{ ?s ex:p {numeral} }}")).unwrap();
        assert_eq!(sols.len(), 1, "{numeral}");
        assert_eq!(sols.get(0, "s"), Some(&Term::iri(format!("http://example.org/{subject}"))));
    }
    // FILTER still compares by value.
    let sols =
        db.query(&format!("{PREFIXES}SELECT ?s WHERE {{ ?s ex:p ?v FILTER(?v = 1000) }}")).unwrap();
    assert_eq!(sols.len(), 1);
}

#[test]
fn unicode_local_names_and_blank_nodes_can_be_named_in_a_query() {
    let mut db = Strabon::new();
    db.load_turtle("@prefix ex: <http://example.org/> .\nex:Πελοπόννησος ex:p _:b1 .").unwrap();
    let sols =
        db.query(&format!("{PREFIXES}SELECT ?o WHERE {{ ex:Πελοπόννησος ex:p ?o }}")).unwrap();
    assert_eq!(sols.get(0, "o"), Some(&Term::blank("b1")));
    // In a pattern, `_:b1` is that node, not a variable.
    let sols = db.query(&format!("{PREFIXES}SELECT ?s WHERE {{ ?s ex:p _:b1 }}")).unwrap();
    assert_eq!(sols.len(), 1);
    assert!(db.query(&format!("{PREFIXES}SELECT ?s WHERE {{ ?s ex:p _:b2 }}")).unwrap().is_empty());
}

#[test]
fn errors_carry_line_and_column() {
    let mut db = Strabon::new();
    let e = db.query("SELECT ?s\nWHERE {\n  ?s ?p }").unwrap_err();
    assert_eq!(
        e.to_string(),
        "parse error at line 3, column 9: expected an RDF term, found RBrace"
    );
    // Turtle errors keep their position and kind through `load_turtle`.
    let e = db.load_turtle("<http://x/s>\n  <http://x/p>\n  <http://x/o> ;;").unwrap_err();
    assert!(matches!(e, teleios_strabon::StrabonError::Parse { line: 3, column: 17, .. }), "{e:?}");
    let e = db.load_turtle("ex:s ex:p ex:o .").unwrap_err();
    assert_eq!(e, teleios_strabon::StrabonError::UnknownPrefix("ex".into()));
}

/// `text` parsed on a fresh default-stack thread.
fn parses_on_a_default_thread(text: String, update: bool) -> bool {
    std::thread::spawn(move || {
        if update {
            teleios_strabon::parser::parse_update(&text).is_ok()
        } else {
            teleios_strabon::parser::parse_query(&text).is_ok()
        }
    })
    .join()
    .expect("the parser returns instead of overflowing its stack")
}

#[test]
fn deeply_nested_queries_are_rejected_not_overflowed() {
    const DEEP: usize = 100_000;
    for bomb in [
        format!("SELECT * WHERE {{ FILTER({}?x) }}", "(".repeat(DEEP)),
        format!("SELECT * WHERE {{ FILTER({}?x) }}", "!".repeat(DEEP)),
        format!("SELECT * WHERE {}", "{".repeat(DEEP)),
    ] {
        assert!(!parses_on_a_default_thread(bomb, false));
    }
    // 64 levels still parse.
    let ok = format!("SELECT * WHERE {{ FILTER({}?x{}) }}", "(".repeat(60), ")".repeat(60));
    assert!(parses_on_a_default_thread(ok, false));
}

#[test]
fn deeply_nested_updates_are_rejected_not_overflowed() {
    const DEEP: usize = 100_000;
    for bomb in [
        format!("DELETE {{ ?s ?p ?o }} WHERE {{ BIND({}1 AS ?x) }}", "(".repeat(DEEP)),
        format!("INSERT {{ ?s ?p ?o }} WHERE {}", "{".repeat(DEEP)),
    ] {
        assert!(!parses_on_a_default_thread(bomb, true));
    }
}

// --- expression semantics over variables bound from the store --------------

const XSD: &str = "http://www.w3.org/2001/XMLSchema#";

/// One subject whose objects are every kind of term the expression
/// table reads: plain literals that parse as numbers (`"10"`, `"9"`,
/// `"NaN"`, `"inf"`), an IRI, a blank node, typed, plain and
/// language-tagged `"a"`, `xsd:boolean` `"1"`/`"0"`/`"yes"`, `""`,
/// integers (one past `i64::MAX`) and a decimal.
fn expression_fixture() -> Strabon {
    let mut db = Strabon::new();
    db.load_turtle(
        r#"
@prefix ex: <http://example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:a ex:ten "10" ; ex:nine "9" ; ex:nan "NaN" ; ex:inf "inf" ;
    ex:iri ex:thing ; ex:blank _:b1 ;
    ex:typed "a"^^ex:dt ; ex:plain "a" ; ex:lang "a"@en ;
    ex:t1 "1"^^xsd:boolean ; ex:f0 "0"^^xsd:boolean ; ex:yes "yes"^^xsd:boolean ;
    ex:empty "" ; ex:big "9223372036854775808"^^xsd:integer ;
    ex:two 2 ; ex:three 3 ; ex:zero 0 ; ex:half 0.5 .
"#,
    )
    .unwrap();
    db
}

/// The WHERE clause binding every variable of [`expression_fixture`],
/// plus `?nope`, left unbound by an OPTIONAL that matches nothing.
const BOUND_ROW: &str = "ex:a ex:ten ?ten ; ex:nine ?nine ; ex:nan ?nan ; ex:inf ?inf ; \
     ex:iri ?iri ; ex:blank ?blank ; ex:typed ?typed ; ex:plain ?plain ; ex:lang ?lang ; \
     ex:t1 ?t1 ; ex:f0 ?f0 ; ex:yes ?yes ; ex:empty ?empty ; ex:big ?big ; \
     ex:two ?two ; ex:three ?three ; ex:zero ?zero ; ex:half ?half . \
     OPTIONAL { ex:a ex:missing ?nope }";

fn xsd(lexical: &str, datatype: &str) -> Option<Term> {
    Some(Term::typed_literal(lexical, format!("{XSD}{datatype}")))
}

fn plain(lexical: &str) -> Option<Term> {
    Some(Term::literal(lexical))
}

fn boolean(b: bool) -> Option<Term> {
    Some(Term::boolean(b))
}

/// Each expression over [`BOUND_ROW`]: its value (`None` for the
/// SPARQL error value) as a projected `(e AS ?v)` and as a `BIND`, and
/// whether `FILTER(e)` keeps the row.
#[test]
fn expressions_over_bound_variables_agree_in_every_position() {
    let table: &[(&str, Option<Term>, bool)] = &[
        // Plain literals that parse as numbers compare as numbers.
        ("?ten > ?nine", boolean(true), true),
        ("STR(?ten) > STR(?nine)", boolean(true), true),
        ("?ten = \"10.0\"", boolean(true), true),
        ("?nan = ?nan", boolean(false), false),
        ("?nan != ?nan", boolean(true), true),
        ("?nan < ?ten", None, false),
        ("?inf > ?ten", boolean(true), true),
        ("?plain < \"b\"", boolean(true), true),
        ("?plain < ?ten", boolean(false), false),
        // IRIs are equal or not, but not ordered.
        ("?iri < ?iri", None, false),
        ("?iri = ?iri", boolean(true), true),
        ("?iri = \"http://example.org/thing\"", boolean(false), false),
        ("?iri != ?plain", boolean(true), true),
        // STR of each kind of term.
        ("STR(?iri)", plain("http://example.org/thing"), true),
        ("STR(?blank)", plain("_:b1"), true),
        ("STR(?typed)", plain("a"), true),
        ("STR(?lang)", plain("a"), true),
        ("STR(?two)", plain("2"), true),
        ("STR(?two + ?three)", plain("5"), true),
        ("STR(?two < ?three)", plain("true"), true),
        // STR(?x) = "a" against plain, typed and tagged constants.
        ("STR(?plain) = \"a\"", boolean(true), true),
        ("STR(?typed) = \"a\"", boolean(true), true),
        ("STR(?lang) = \"a\"", boolean(true), true),
        ("STR(?plain) = \"a\"@en", boolean(false), false),
        ("STR(?plain) = \"a\"^^<http://example.org/dt>", boolean(false), false),
        ("?typed = \"a\"^^<http://example.org/dt>", boolean(true), true),
        ("?lang = \"a\"", boolean(false), false),
        ("?lang = \"a\"@en", boolean(true), true),
        ("STR(?lang) < \"b\"@en", boolean(true), true),
        // Effective boolean values.
        ("?t1", xsd("1", "boolean"), true),
        ("?f0", xsd("0", "boolean"), false),
        ("!?t1", boolean(false), false),
        ("!?f0", boolean(true), true),
        ("!?yes", None, false),
        ("!?empty", boolean(true), true),
        ("!?plain", boolean(false), false),
        ("!?lang", boolean(false), false),
        ("!?typed", None, false),
        ("!?nan", boolean(true), true),
        ("!?zero", boolean(true), true),
        ("!?iri", None, false),
        ("?ten", plain("10"), true),
        ("?empty", plain(""), false),
        // Arithmetic keeps integers integral and reports errors.
        ("?two + ?three", xsd("5", "integer"), true),
        ("?two - ?three", xsd("-1", "integer"), true),
        ("?two * ?three", xsd("6", "integer"), true),
        ("?three / ?two", xsd("1.5", "double"), true),
        ("?two / ?zero", None, false),
        ("?two * ?half", xsd("1", "double"), true),
        ("?ten + 1", xsd("11", "double"), true),
        ("?big + 0", xsd("9223372036854775807", "integer"), true),
        ("?big * 2", xsd("9223372036854775807", "integer"), true),
        ("-?two", xsd("-2", "integer"), true),
        ("-?big", xsd("-9223372036854775808", "integer"), true),
        ("-?half", xsd("-0.5", "double"), true),
        ("-?zero", xsd("0", "integer"), false),
        ("?zero - ?zero", xsd("0", "integer"), false),
        ("?nan + 1", xsd("NaN", "double"), false),
        ("?plain + 1", None, false),
        ("?two + ?nope", None, false),
        ("ABS(-?two)", xsd("2", "integer"), true),
        ("(?two + ?three) * ?two = 10", boolean(true), true),
        // AND/OR with an error on either side, BOUND on an unbound slot.
        ("?nan < ?ten || true", boolean(true), true),
        ("true || ?nan < ?ten", boolean(true), true),
        ("?nan < ?ten || false", None, false),
        ("?nan < ?ten && false", boolean(false), false),
        ("false && ?nan < ?ten", boolean(false), false),
        ("?nan < ?ten && true", None, false),
        ("true && ?iri < ?iri", None, false),
        ("?nope = 1 || ?t1", boolean(true), true),
        ("BOUND(?nope)", boolean(false), false),
        ("!BOUND(?nope)", boolean(true), true),
        ("BOUND(?two)", boolean(true), true),
        ("?nope", None, false),
        // Builtins over bound terms.
        ("DATATYPE(?two)", Some(Term::iri(format!("{XSD}integer"))), false),
        ("DATATYPE(?plain)", Some(Term::iri(format!("{XSD}string"))), false),
        ("DATATYPE(?lang)", None, false),
        ("LANG(?lang)", plain("en"), true),
        ("ISNUMERIC(?ten)", boolean(true), true),
        ("ISIRI(?iri) && ISBLANK(?blank) && ISLITERAL(?lang)", boolean(true), true),
        ("STRLEN(?ten)", xsd("2", "integer"), true),
        ("UCASE(?lang)", plain("A"), true),
        ("CONCAT(?plain, ?ten, ?two)", plain("a102"), true),
        ("CONTAINS(STR(?iri), \"thing\")", boolean(true), true),
        ("REGEX(?plain, \"A\", \"i\")", boolean(true), true),
        ("STRSTARTS(?iri, \"http\")", None, false),
        ("IF(?t1, ?two, ?three)", xsd("2", "integer"), true),
        ("IF(?yes, ?two, ?three)", None, false),
        // COALESCE returns its first argument that is no error, and IF
        // evaluates only the branch it takes (SPARQL 1.1 §17.4.1).
        ("COALESCE(?two, ?nope)", xsd("2", "integer"), true),
        ("COALESCE(?nope, 1)", xsd("1", "integer"), true),
        ("COALESCE(?nope, ?two / ?zero, ?plain)", plain("a"), true),
        ("COALESCE(?nope, ?two / ?zero)", None, false),
        ("IF(true, 1, ?nope)", xsd("1", "integer"), true),
        ("IF(?f0, ?nope, ?three)", xsd("3", "integer"), true),
        ("IF(?nope, 1, 2)", None, false),
    ];
    let mut db = expression_fixture();
    let mut failures = Vec::new();
    for (expr, want, keeps) in table {
        let ask = |db: &mut Strabon, body: &str, head: &str| {
            db.query(&format!("PREFIX ex: <http://example.org/> SELECT {head} WHERE {{ {body} }}"))
                .unwrap_or_else(|e| panic!("{expr}: {e}"))
        };
        let projected = ask(&mut db, BOUND_ROW, &format!("({expr} AS ?v)"));
        let bound = ask(&mut db, &format!("{BOUND_ROW} BIND({expr} AS ?v)"), "?v");
        let filtered = ask(&mut db, &format!("{BOUND_ROW} FILTER({expr})"), "?ten");
        let got = (projected.get(0, "v").cloned(), bound.get(0, "v").cloned(), filtered.len());
        if got != (want.clone(), want.clone(), usize::from(*keeps)) {
            failures.push(format!("{expr}: got {got:?}, want {want:?} keeping {keeps}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// MIN and MAX keep the first of equal values; ORDER BY puts unbound
/// and erroring keys first, IRIs before literals, numbers by value.
#[test]
fn aggregates_and_order_keys_over_bound_variables() {
    let mut db = Strabon::new();
    db.load_turtle(
        r#"
@prefix ex: <http://example.org/> .
ex:r1 ex:k "10" . ex:r2 ex:k 1.0 . ex:r3 ex:k 1 . ex:r4 ex:k "01" .
ex:r5 ex:k ex:thing . ex:r6 ex:k 12 . ex:r7 ex:other 0 .
"#,
    )
    .unwrap();
    let prefix = "PREFIX ex: <http://example.org/>";
    let mut rows = |q: &str| -> Vec<Vec<String>> {
        let sols = db.query(&format!("{prefix} {q}")).unwrap();
        sols.rows
            .iter()
            .map(|r| r.iter().map(|t| t.as_ref().map_or("-".into(), |t| t.to_string())).collect())
            .collect()
    };
    let walked = rows("SELECT ?k WHERE { ?r ex:k ?k }");
    // The first of the values equal to 1, in the order the walk meets them.
    let first_one = walked
        .iter()
        .map(|r| r[0].clone())
        .find(|k| k.split('"').nth(1).and_then(|l| l.parse::<f64>().ok()) == Some(1.0))
        .expect("a value equal to 1");
    let aggregated =
        rows("SELECT (MIN(?k) AS ?lo) (MAX(?k) AS ?hi) (COUNT(?k) AS ?n) WHERE { ?r ex:k ?k . FILTER(!ISIRI(?k)) }");
    assert_eq!(aggregated[0][0], first_one, "MIN keeps the first of equal values: {walked:?}");
    assert_eq!(aggregated[0][1], "\"12\"^^<http://www.w3.org/2001/XMLSchema#integer>");
    assert_eq!(aggregated[0][2], "\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>");
    let max_of_equal = rows("SELECT (MAX(?k) AS ?hi) WHERE { ?r ex:k ?k . FILTER(?k = 1) }");
    assert_eq!(max_of_equal[0][0], first_one, "MAX keeps the first of equal values");
    let mut order = |key: &str| -> Vec<String> {
        let sols = db
            .query(&format!(
                "{prefix} SELECT ?r WHERE {{ ?r ?p ?any OPTIONAL {{ ?r ex:k ?k }} }} ORDER BY {key} ?r"
            ))
            .unwrap();
        (0..sols.len())
            .map(|i| sols.get(i, "r").unwrap().to_string().replace("http://example.org/", ""))
            .collect()
    };
    assert_eq!(order("?k"), ["<r7>", "<r5>", "<r2>", "<r3>", "<r4>", "<r1>", "<r6>"]);
    assert_eq!(order("DESC(?k)"), ["<r6>", "<r1>", "<r2>", "<r3>", "<r4>", "<r5>", "<r7>"]);
    // `?k * 1` errs on the IRI and is unbound on r7: both sort first.
    assert_eq!(order("ASC(?k * 1)"), ["<r5>", "<r7>", "<r2>", "<r3>", "<r4>", "<r1>", "<r6>"]);
}


// --- answers as id rows ----------------------------------------------------

/// A term the statement computed — a BIND result, a projected
/// `strdf:buffer` — has an id in the statement's overlay: `Rows` reads
/// its term there and parses its geometry, while a stored geometry is
/// the sidecar's.
#[test]
fn rows_read_computed_terms_from_the_overlay() {
    let mut db = fixture();
    let text = format!(
        "{PREFIXES} SELECT ?g ?label (strdf:buffer(?g, 1) AS ?b) WHERE {{ \
           ex:h1 strdf:hasGeometry ?g . BIND(CONCAT(\"at \", STR(?g)) AS ?label) }}"
    );
    let sols = db.query(&text).unwrap();
    assert!(db.store().id_of(sols.get(0, "b").unwrap()).is_none(), "a stored buffer");
    let rows = db.select(&text).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows.term(0, "label"), Some(&Term::literal("at POINT (22.3 37.5)")));
    assert!(rows.geometry(0, "label").is_none());
    let buffered = rows.term(0, "b").unwrap();
    assert_eq!(Some(buffered), sols.get(0, "b"));
    let parsed = teleios_rdf::strdf::parse_geometry(buffered).unwrap().0;
    assert_eq!(*rows.geometry(0, "b").unwrap(), parsed);
    let envelope = parsed.envelope();
    assert!((envelope.min.x - 21.3).abs() < 1e-9 && (envelope.max.y - 38.5).abs() < 1e-9);
    assert_eq!(rows.geometry(0, "g").unwrap().envelope().min.x, 22.3);
    assert_eq!(rows.to_solutions(), sols);
}

/// An unbound slot, an unknown variable and a row past the end all
/// read `None`.
#[test]
fn rows_read_none_where_nothing_is_bound() {
    let mut db = fixture();
    let rows = db
        .select(&format!(
            "{PREFIXES} SELECT ?img ?h WHERE {{ ?img a noa:RawImage . \
               OPTIONAL {{ ?h noa:isDerivedFrom ?img ; noa:hasConfidence 0.7 }} }} ORDER BY ?img"
        ))
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows.term(0, "img"), Some(&Term::iri("http://example.org/img1")));
    assert_eq!(rows.term(0, "h"), None);
    assert!(rows.geometry(0, "h").is_none());
    assert_eq!(rows.term(1, "h"), Some(&Term::iri("http://example.org/h3")));
    assert_eq!(rows.term(0, "nope"), None);
    assert_eq!(rows.term(2, "img"), None);
    assert_eq!(rows.to_solutions().rows[0][1], None);
}

/// ASK answers one row holding its boolean, which the store need not
/// hold.
#[test]
fn rows_answer_ask() {
    let mut db = fixture();
    for (pattern, found) in [("ex:h1 a noa:Hotspot", true), ("ex:h1 a noa:RawImage", false)] {
        let text = format!("{PREFIXES} ASK {{ {pattern} }}");
        let rows = db.select(&text).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows.term(0, "ask"), Some(&Term::boolean(found)));
        assert_eq!(rows.to_solutions(), db.query(&text).unwrap());
    }
}

/// An update's template triples are ids: a term it computes, or a
/// constant the store lacks, is interned when the update applies, in
/// the order inserting each triple's terms would intern them — so a
/// twin store fed the same triples through `Strabon::insert` holds the
/// same dictionary, id for id.
#[test]
fn updates_intern_terms_in_insertion_order() {
    let mut db = fixture();
    let mut twin = fixture();
    let update = format!(
        "{PREFIXES} INSERT {{ ?h ex:area ?b . ?h ex:tag ex:fresh . ?h ex:tag ?label }} WHERE {{ \
           ?h a noa:Hotspot ; strdf:hasGeometry ?g . \
           BIND(strdf:buffer(?g, 1) AS ?b) BIND(CONCAT(\"tag \", STR(?h)) AS ?label) }}"
    );
    let sols = twin
        .query(&format!(
            "{PREFIXES} SELECT ?h ?b ?label WHERE {{ ?h a noa:Hotspot ; strdf:hasGeometry ?g . \
               BIND(strdf:buffer(?g, 1) AS ?b) BIND(CONCAT(\"tag \", STR(?h)) AS ?label) }}"
        ))
        .unwrap();
    let ex = |local: &str| Term::iri(format!("http://example.org/{local}"));
    for i in 0..sols.len() {
        let h = sols.get(i, "h").unwrap();
        twin.insert(h, &ex("area"), sols.get(i, "b").unwrap());
        twin.insert(h, &ex("tag"), &ex("fresh"));
        twin.insert(h, &ex("tag"), sols.get(i, "label").unwrap());
    }
    assert_eq!(db.update(&update).unwrap(), 9);
    let (ours, theirs) = (db.store().dictionary(), twin.store().dictionary());
    assert_eq!(ours.len(), theirs.len());
    for id in 0..ours.len() as teleios_rdf::dictionary::TermId {
        assert_eq!(ours.term(id), theirs.term(id), "id {id}");
    }
    assert_eq!(db.store().iter().collect::<Vec<_>>(), twin.store().iter().collect::<Vec<_>>());
    // A delete of a term the store lacks matches nothing.
    let gone = format!("{PREFIXES} DELETE {{ ?h ex:tag ex:never }} WHERE {{ ?h a noa:Hotspot }}");
    assert_eq!(db.update(&gone).unwrap(), 0);
    assert!(db.store().id_of(&ex("never")).is_none());
}
