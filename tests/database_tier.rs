//! Integration tests of the database tier in isolation: SQL, SciQL,
//! the Data Vault and Strabon working over the same data.

use teleios::monet::array::NdArray;
use teleios::monet::{Catalog, Value};
use teleios::sciql;
use teleios::strabon::Strabon;
use teleios::vault::format::{encode_sev1, Sev1Header};
use teleios::vault::repository::Repository;
use teleios::vault::{DataVault, IngestionPolicy};

/// SQL and SciQL share one catalog: relational metadata joins against
/// array content (the "symbiosis of relational tables and arrays" of
/// paper §1).
#[test]
fn sql_metadata_joins_sciql_arrays() {
    let cat = Catalog::new();
    cat.execute("CREATE TABLE scenes (name STRING, satellite STRING, cloud DOUBLE)").unwrap();
    for (i, cloud) in [0.1f64, 0.6, 0.2].iter().enumerate() {
        let name = format!("img{i}");
        cat.execute(&format!(
            "INSERT INTO scenes VALUES ('{name}', 'MSG2', {cloud})"
        ))
        .unwrap();
        // The image content lives beside the metadata as an array.
        let a = NdArray::matrix(8, 8, vec![300.0 + i as f64 * 10.0; 64]).unwrap();
        cat.put_array(&name, a);
    }

    // Metadata query picks the low-cloud scenes...
    let rs = cat
        .execute("SELECT name FROM scenes WHERE cloud < 0.5 ORDER BY name")
        .unwrap();
    assert_eq!(rs.num_rows(), 2);
    // ...and SciQL inspects exactly those arrays.
    for row in &rs.rows {
        let name = row[0].as_str().unwrap();
        let mean = sciql::execute(&cat, &format!("SELECT AVG(v) FROM {name}"))
            .unwrap()
            .scalar()
            .unwrap();
        assert!(mean >= 300.0);
    }
}

/// The vault materializes into the same catalog SciQL queries.
#[test]
fn vault_to_sciql_pipeline() {
    let mut repo = Repository::new();
    let header = Sev1Header {
        rows: 8,
        cols: 8,
        bands: 1,
        acquisition: "2007-08-25T12:00:00Z".into(),
        bbox: (21.0, 36.0, 24.0, 39.0),
    };
    let mut payload = vec![300.0f64; 64];
    payload[27] = 340.0; // one hot pixel
    repo.put("scene.sev1", encode_sev1(&header, &payload).unwrap());

    let cat = Catalog::new();
    let mut vault = DataVault::new(repo, cat.clone(), IngestionPolicy::Lazy, 4);
    vault.register_all().unwrap();

    // Nothing materialized until SciQL needs it.
    assert!(!cat.has_array("vault::scene.sev1"));
    vault.array_for("scene.sev1").unwrap();
    assert!(cat.has_array("vault::scene.sev1"));

    // The vault's array name contains ':' so SciQL cannot name it
    // directly; re-register under a query-friendly alias.
    let a = cat.array("vault::scene.sev1").unwrap();
    let flat = NdArray::matrix(8, 8, a.data().to_vec()).unwrap();
    cat.put_array("scene", flat);
    let hot = sciql::execute(&cat, "SELECT COUNT(*) FROM scene WHERE v > 318")
        .unwrap()
        .scalar()
        .unwrap();
    assert_eq!(hot, 1.0);
}

/// SQL UPDATE and SciQL UPDATE agree on the "classify" semantics.
#[test]
fn sql_update_and_sciql_update() {
    let cat = Catalog::new();
    cat.execute("CREATE TABLE detections (id INT, temp DOUBLE, hot BOOL)").unwrap();
    cat.execute(
        "INSERT INTO detections VALUES (1, 310.0, false), (2, 325.0, false), (3, 341.5, false)",
    )
    .unwrap();
    cat.execute("UPDATE detections SET hot = true WHERE temp > 318").unwrap();
    let rs = cat.execute("SELECT COUNT(*) AS n FROM detections WHERE hot = true").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(2));

    // Same rule over an array through SciQL WHERE.
    let a = NdArray::matrix(1, 3, vec![310.0, 325.0, 341.5]).unwrap();
    cat.put_array("temps", a);
    sciql::execute(&cat, "UPDATE temps SET v = 1 WHERE v > 318").unwrap();
    sciql::execute(&cat, "UPDATE temps SET v = 0 WHERE v > 1").unwrap();
    assert_eq!(cat.array("temps").unwrap().sum(), 2.0);
}

/// Strabon aggregates reconcile with SQL aggregates over mirrored data.
#[test]
fn strabon_and_sql_aggregate_agreement() {
    let cat = Catalog::new();
    cat.execute("CREATE TABLE conf (hotspot STRING, c DOUBLE)").unwrap();
    let mut db = Strabon::new();
    let confidences = [0.9, 0.4, 0.7, 0.55];
    for (i, c) in confidences.iter().enumerate() {
        cat.execute(&format!("INSERT INTO conf VALUES ('h{i}', {c})")).unwrap();
        db.insert(
            &teleios::rdf::term::Term::iri(format!("http://x/h{i}")),
            &teleios::rdf::term::Term::iri("http://x/confidence"),
            &teleios::rdf::term::Term::double(*c),
        );
    }
    let sql_avg = cat
        .execute("SELECT AVG(c) AS a FROM conf")
        .unwrap()
        .rows[0][0]
        .as_f64()
        .unwrap();
    let sparql = db
        .query("SELECT (AVG(?c) AS ?a) WHERE { ?h <http://x/confidence> ?c }")
        .unwrap();
    let sparql_avg = sparql.get(0, "a").unwrap().as_f64().unwrap();
    assert!((sql_avg - sparql_avg).abs() < 1e-12);
}

/// Turtle written by the RDF layer loads back into Strabon unchanged.
#[test]
fn turtle_roundtrip_through_strabon() {
    let mut db = Strabon::new();
    db.load_turtle(
        "@prefix ex: <http://example.org/> .\n\
         @prefix strdf: <http://strdf.di.uoa.gr/ontology#> .\n\
         ex:a a ex:Feature ; strdf:hasGeometry \"POINT (1 2)\"^^strdf:WKT ; ex:score 0.5 .\n\
         ex:b a ex:Feature ; strdf:hasGeometry \"POINT (3 4)\"^^strdf:WKT ; ex:score 0.9 .",
    )
    .unwrap();
    let exported = teleios::rdf::turtle::write_store(db.store());
    let mut db2 = Strabon::new();
    db2.load_turtle(&exported).unwrap();
    assert_eq!(db.len(), db2.len());
    let q = "PREFIX ex: <http://example.org/> SELECT ?f WHERE { ?f a ex:Feature } ORDER BY ?f";
    assert_eq!(db.query(q).unwrap(), db2.query(q).unwrap());
}

/// `1 + 2 * x < 7` keeps the same `x` as an SQL WHERE, an stSPARQL
/// FILTER and a SciQL WHERE, for integer and double `x`: seeded values
/// around the boundary plus NaN, ±infinity, -0.0 and the integers whose
/// `2 * x` leaves i64. An integer `x` is an INT column in SQL and an
/// `xsd:integer` in stSPARQL; SciQL cells are doubles.
#[test]
fn arithmetic_filter_means_the_same_in_sql_sparql_and_sciql() {
    use teleios::geo::SplitMix64;
    use teleios::rdf::term::Term;
    let mut rng = SplitMix64::new(7);
    let mut ints = vec![i64::MAX, i64::MIN, i64::MAX / 2 + 1, i64::MIN / 2 - 1, 1 << 53, 3, 2, 0, -1];
    ints.extend((0..24).map(|_| rng.range(-12.0, 12.0).round() as i64));
    let mut doubles = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 3.0, 2.999_999, 3.000_001, 1e300, -1e300];
    doubles.extend((0..24).map(|_| (rng.range(-12.0, 12.0) * 8.0).round() / 8.0));
    let xs: Vec<(Value, Term)> = ints
        .iter()
        .map(|&x| (Value::Int(x), Term::int(x)))
        .chain(doubles.iter().map(|&x| (Value::Double(x), Term::double(x))))
        .collect();

    let mut answers: [Vec<bool>; 3] = Default::default();
    let cat = Catalog::new();
    let mut db = Strabon::new();
    for (table, ty) in [("xi", "INT"), ("xd", "DOUBLE")] {
        cat.execute(&format!("CREATE TABLE {table} (j INT, x {ty})")).unwrap();
    }
    for (j, (value, term)) in xs.iter().enumerate() {
        let table = if matches!(value, Value::Int(_)) { "xi" } else { "xd" };
        cat.insert(table, vec![vec![Value::Int(j as i64), value.clone()]]).unwrap();
        db.insert(&Term::iri(format!("http://x/{j}")), &Term::iri("http://x/x"), term);
    }
    let mut sql_kept = Vec::new();
    for table in ["xi", "xd"] {
        let rows = cat.execute(&format!("SELECT j FROM {table} WHERE 1 + 2 * x < 7")).unwrap().rows;
        sql_kept.extend(rows.iter().map(|r| r[0].as_i64().unwrap() as usize));
    }
    let sparql = db.query("SELECT ?s WHERE { ?s <http://x/x> ?x FILTER(1 + 2 * ?x < 7) }").unwrap();
    let sparql_kept: Vec<usize> = (0..sparql.len())
        .map(|r| sparql.get(r, "s").and_then(Term::as_iri).unwrap()["http://x/".len()..].parse().unwrap())
        .collect();
    let cells: Vec<f64> = xs.iter().map(|(v, _)| v.as_f64().unwrap()).collect();
    cat.put_array("a", NdArray::matrix(1, cells.len(), cells).unwrap());
    for j in 0..xs.len() {
        let q = format!("SELECT COUNT(v) FROM a[0..1, {j}..{}] WHERE 1 + 2 * v < 7", j + 1);
        answers[2].push(sciql::execute(&cat, &q).unwrap().scalar().unwrap() == 1.0);
        answers[0].push(sql_kept.contains(&j));
        answers[1].push(sparql_kept.contains(&j));
    }
    let differ: Vec<String> = (0..xs.len())
        .filter(|&j| answers[0][j] != answers[1][j] || answers[1][j] != answers[2][j])
        .map(|j| format!("{:?}: sql {} sparql {} sciql {}", xs[j].0, answers[0][j], answers[1][j], answers[2][j]))
        .collect();
    assert!(differ.is_empty(), "the three languages disagree on:\n{}", differ.join("\n"));
    // The filter is not vacuous: it keeps some values and drops others.
    assert!(answers[0].contains(&true) && answers[0].contains(&false));
}
