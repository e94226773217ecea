//! Differential safety net for the stSPARQL engine (ROADMAP item 4a,
//! strabon's share).
//!
//! Two halves over one small synthetic archive:
//!
//! * a seeded generator of stSPARQL — 1–5 triple patterns; numeric,
//!   `STR`-range and spatial FILTERs against constant and variable
//!   geometries; OPTIONAL, UNION, MINUS, FILTER [NOT] EXISTS, BIND
//!   before and after a run; ORDER BY (aliases included), DISTINCT,
//!   LIMIT/OFFSET; GROUP BY with the six aggregates; spatial
//!   selections over every feature's geometry;
//!   `DELETE/INSERT … WHERE` including the two refinement shapes —
//!   asserting that `optimize_bgp` × `use_spatial_index` never change
//!   an answer or a store;
//! * a pinned corpus whose answers — row sets, or row sequences under
//!   ORDER BY or LIMIT — were recorded from the build *before* the
//!   evaluator became plan → walk, with the EXPLAIN text of flat BGP +
//!   FILTER queries: run `print_golden` (ignored) on a trusted build
//!   and paste its output over [`GOLDEN`].
//!
//! What may differ between configurations is row *order*. So a
//! generated statement is compared as a sequence under a total ORDER
//! BY, as a multiset otherwise — and by its row count alone when a
//! LIMIT/OFFSET cuts an order nobody fixed.

use std::cell::{Cell, RefCell};
use teleios_check::{forall, Gen, SplitMix64};
use teleios_rdf::term::Term;
use teleios_strabon::{Strabon, StrabonConfig};

const NOA: &str = "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#";
const STRDF: &str = "http://strdf.di.uoa.gr/ontology#";
const RDFS_LABEL: &str = "http://www.w3.org/2000/01/rdf-schema#label";
const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
const SITE_CLASS: &str = "http://dbpedia.org/ontology/ArchaeologicalSite";
const PRODUCTS: &str = "http://teleios.di.uoa.gr/products/";
const SATELLITES: &str = "http://teleios.di.uoa.gr/satellites/";
const REFUTED: &str = "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#RefutedHotspot";

const PREFIXES: &str = "\
PREFIX noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>\n\
PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n\
PREFIX dbo: <http://dbpedia.org/ontology/>\n\
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n\
PREFIX sat: <http://teleios.di.uoa.gr/satellites/>\n";

const IMAGES: usize = 12;
const HOTSPOTS: usize = 96;
const SITES: usize = 8;

/// The landmass of the refinement statements: hotspots scatter over
/// 20–26 × 35–40, so some fall outside it and some straddle its edge.
const LANDMASS: &str = "\"POLYGON ((21 36, 25 36, 25 39, 21 39, 21 36))\"^^strdf:WKT";

fn wkt(text: String) -> Term {
    Term::typed_literal(text, format!("{STRDF}WKT"))
}

/// 12 raw images over three days and three satellites (every third one
/// annotated), 96 hotspots derived from them — small squares, a few
/// points, one unparsable geometry, confidences on a 1/64 grid so sums
/// are exact in any order, a few hotspots without one — and 8
/// archaeological sites, every other one labelled.
fn archive(config: StrabonConfig) -> Strabon {
    let mut db = Strabon::with_config(config);
    let mut rng = SplitMix64::new(0x07e1_e105);
    let iri = |local: &str| Term::iri(format!("{NOA}{local}"));
    let (type_p, geom_p) = (Term::iri(RDF_TYPE), Term::iri(format!("{STRDF}hasGeometry")));
    for i in 0..IMAGES {
        let img = Term::iri(format!("{PRODUCTS}p{i:02}"));
        db.insert(&img, &type_p, &iri("RawImage"));
        if i % 3 == 0 {
            db.insert(&img, &type_p, &iri("AnnotatedImage"));
        }
        db.insert(&img, &iri("isAcquiredBy"), &Term::iri(format!("{SATELLITES}MSG{}", 1 + i % 3)));
        let time = format!("2007-08-{:02}T{:02}:00:00Z", 1 + i / 4, 6 * (i % 4));
        db.insert(&img, &iri("hasAcquisitionTime"), &Term::date_time(time));
        let (x, y) = (20.0 + 1.5 * (i % 4) as f64, 35.0 + 1.5 * (i / 4) as f64);
        let (x1, y1) = (x + 2.0, y + 2.0);
        db.insert(
            &img,
            &geom_p,
            &wkt(format!("POLYGON (({x} {y}, {x1} {y}, {x1} {y1}, {x} {y1}, {x} {y}))")),
        );
    }
    for j in 0..HOTSPOTS {
        let product = j % IMAGES;
        let h = Term::iri(format!("{PRODUCTS}p{product:02}/hotspot/{}", j / IMAGES));
        db.insert(&h, &type_p, &iri("Hotspot"));
        db.insert(&h, &iri("isDerivedFrom"), &Term::iri(format!("{PRODUCTS}p{product:02}")));
        db.insert(
            &h,
            &iri("producedByChain"),
            &Term::iri(format!("http://teleios.di.uoa.gr/chains/c{}", j % 2)),
        );
        if j % 24 != 7 {
            db.insert(&h, &iri("hasConfidence"), &Term::double(rng.below(64) as f64 / 64.0));
        }
        let (x, y) = (rng.range(20.0, 26.0), rng.range(35.0, 40.0));
        let (x1, y1) = (x + 0.125, y + 0.125);
        let geometry = match j % 16 {
            5 => format!("POINT ({x} {y})"),
            11 if j > 16 => "POLYGON ((oops".to_string(),
            _ => format!("POLYGON (({x} {y}, {x1} {y}, {x1} {y1}, {x} {y1}, {x} {y}))"),
        };
        db.insert(&h, &geom_p, &wkt(geometry));
    }
    for k in 0..SITES {
        let site = Term::iri(format!("http://dbpedia.org/resource/Site{k}"));
        db.insert(&site, &type_p, &Term::iri(SITE_CLASS));
        let (x, y) = (rng.range(20.5, 25.5), rng.range(35.5, 39.5));
        db.insert(&site, &geom_p, &wkt(format!("POINT ({x} {y})")));
        if k % 2 == 0 {
            db.insert(&site, &Term::iri(RDFS_LABEL), &Term::literal(format!("Site {k}")));
        }
    }
    db
}

/// `optimize_bgp` × `use_spatial_index`; index 0 is the default
/// configuration.
fn configs() -> Vec<StrabonConfig> {
    [(true, true), (true, false), (false, true), (false, false)]
        .map(|(optimize_bgp, use_spatial_index)| StrabonConfig {
            optimize_bgp,
            use_spatial_index,
            ..StrabonConfig::default()
        })
        .to_vec()
}

/// How far two configurations' answers to one statement must agree.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Agree {
    /// A total ORDER BY fixes the sequence for everyone.
    Sequence,
    /// Same rows, any order across optimizer toggles.
    Multiset,
    /// LIMIT/OFFSET over an unfixed order: the header (or error) and
    /// the row count.
    Count,
}

/// Rows of an answer (or its error), one string each.
fn rows_of(db: &mut Strabon, text: &str) -> Vec<String> {
    match db.query(text) {
        Ok(sols) => std::iter::once(format!("{:?}", sols.vars))
            .chain(sols.rows.iter().map(|r| format!("{r:?}")))
            .collect(),
        Err(e) => vec![format!("error: {e}")],
    }
}

/// Run `text` on every engine and hold the answers to `agree`.
fn assert_query_agrees(engines: &mut [Strabon], text: &str, agree: Agree) {
    let answers: Vec<Vec<String>> = engines.iter_mut().map(|db| rows_of(db, text)).collect();
    let normal = |rows: &Vec<String>| {
        let mut rows = rows.clone();
        match agree {
            Agree::Sequence => {}
            Agree::Multiset => rows.sort(),
            Agree::Count => rows[1..].fill(String::new()),
        }
        rows
    };
    let base = normal(&answers[0]);
    for (i, other) in answers.iter().enumerate().skip(1) {
        assert_eq!(
            base,
            normal(other),
            "config {:?} differs from the default ({agree:?}):\n{text}",
            configs()[i]
        );
    }
}

/// The store's triples as sorted term strings — ids depend on insertion
/// order, which depends on solution order, so terms are what compares.
fn store_image(db: &Strabon) -> Vec<String> {
    let store = db.store();
    let mut out: Vec<String> = store
        .iter()
        .map(|t| format!("{} {} {}", store.term(t.s), store.term(t.p), store.term(t.o)))
        .collect();
    out.sort();
    out
}

/// A query that exercises the sidecar after an update: geometries the
/// update interned must be served, with the index on.
fn spatial_probe() -> String {
    format!(
        "{PREFIXES}SELECT ?s ?g WHERE {{ ?s strdf:hasGeometry ?g . \
         FILTER(strdf:intersects(?g, \"POLYGON ((20.5 35.5, 24 35.5, 24 38.5, 20.5 38.5, 20.5 35.5))\"^^strdf:WKT)) }}"
    )
}

/// Apply `updates` to a fresh archive per configuration: the counts and
/// the resulting stores agree, and each engine — whose sidecar caught
/// up in place, after a warming query — answers the spatial probe like
/// an engine freshly loaded with its final store.
fn assert_updates_agree(updates: &[String]) -> (Vec<String>, Vec<String>) {
    let probe = spatial_probe();
    let mut outcomes = Vec::new();
    for config in configs() {
        let mut db = archive(config);
        let mut counts = rows_of(&mut db, &probe)[..1].to_vec();
        for u in updates {
            counts.push(match db.update(u) {
                Ok(n) => n.to_string(),
                Err(e) => format!("error: {e}"),
            });
        }
        let image = store_image(&db);
        let mut fresh = Strabon::with_config(config);
        for t in db.store().iter() {
            let store = db.store();
            fresh.insert(store.term(t.s), store.term(t.p), store.term(t.o));
        }
        let (mut served, mut expected) = (rows_of(&mut db, &probe), rows_of(&mut fresh, &probe));
        served.sort();
        expected.sort();
        assert_eq!(
            served, expected,
            "sidecar serves stale or missing geometries under {config:?} after:\n{updates:#?}"
        );
        outcomes.push((counts, image));
    }
    for (i, other) in outcomes.iter().enumerate().skip(1) {
        assert_eq!(
            outcomes[0].0,
            other.0,
            "update counts differ under {:?}:\n{updates:#?}",
            configs()[i]
        );
        assert!(
            outcomes[0].1 == other.1,
            "stores differ under {:?} after:\n{updates:#?}",
            configs()[i]
        );
    }
    outcomes.swap_remove(0)
}

// --- the generator -----------------------------------------------------

/// Triple patterns over the archive's vocabulary and the variables
/// they mention.
const ATOMS: &[(&str, &[&str])] = &[
    ("?h a noa:Hotspot", &["h"]),
    ("?h noa:isDerivedFrom ?img", &["h", "img"]),
    ("?h noa:hasConfidence ?c", &["h", "c"]),
    ("?h strdf:hasGeometry ?hg", &["h", "hg"]),
    ("?h noa:producedByChain ?chain", &["h", "chain"]),
    ("?h noa:isDerivedFrom <http://teleios.di.uoa.gr/products/p03>", &["h"]),
    ("?h ?p <http://teleios.di.uoa.gr/products/p07>", &["h", "p"]),
    ("?img a noa:RawImage", &["img"]),
    ("?img a noa:AnnotatedImage", &["img"]),
    ("?img noa:isAcquiredBy ?sat", &["img", "sat"]),
    ("?img noa:isAcquiredBy sat:MSG2", &["img"]),
    ("?img noa:hasAcquisitionTime ?t", &["img", "t"]),
    ("?img strdf:hasGeometry ?ig", &["img", "ig"]),
    ("?site a dbo:ArchaeologicalSite", &["site"]),
    ("?site strdf:hasGeometry ?sg", &["site", "sg"]),
    ("?site rdfs:label ?label", &["site", "label"]),
];

fn pick<'a, T: ?Sized>(g: &mut Gen, options: &[&'a T]) -> &'a T {
    options[g.below(options.len())]
}

fn window(g: &mut Gen) -> String {
    let (x, y) = (20.0 + 0.25 * g.below(20) as f64, 35.0 + 0.25 * g.below(16) as f64);
    let (x1, y1) = (x + 0.5 + 0.5 * g.below(6) as f64, y + 0.5 + 0.5 * g.below(6) as f64);
    format!("\"POLYGON (({x} {y}, {x1} {y}, {x1} {y1}, {x} {y1}, {x} {y}))\"^^strdf:WKT")
}

/// A FILTER over one of `vars`, if any of them can carry one.
fn gen_filter(g: &mut Gen, vars: &[&str]) -> Option<String> {
    let has = |v: &str| vars.contains(&v);
    let geometries: Vec<&str> = ["hg", "ig", "sg"].into_iter().filter(|v| has(v)).collect();
    let mut options: Vec<String> = Vec::new();
    if has("c") {
        options.push(format!(
            "?c {} {}",
            pick(g, &[">", "<=", "<", ">="]),
            g.below(64) as f64 / 64.0
        ));
        options.push("?c * 2 > 1 || !BOUND(?c)".into());
    }
    if has("t") {
        let day = 1 + g.below(3);
        options.push(format!(
            "STR(?t) >= \"2007-08-{day:02}T00:00:00Z\" && STR(?t) < \"2007-08-{day:02}T23:59:59Z\""
        ));
    }
    if has("label") {
        options.push("BOUND(?label)".into());
    }
    if has("h") {
        options.push("?h != <http://teleios.di.uoa.gr/products/p00/hotspot/0>".into());
    }
    for v in &geometries {
        let predicate = pick(g, &["intersects", "within", "contains", "disjoint"]);
        options.push(format!("strdf:{predicate}(?{v}, {})", window(g)));
        options.push(format!("strdf:intersects({}, ?{v})", window(g)));
        let point = format!(
            "\"POINT ({} {})\"^^strdf:WKT",
            20.0 + 0.5 * g.below(12) as f64,
            35.0 + 0.5 * g.below(10) as f64
        );
        let d = 0.25 * (1 + g.below(8)) as f64;
        options.push(if g.bool() {
            format!("strdf:distance(?{v}, {point}) < {d}")
        } else {
            format!("{d} >= strdf:distance({point}, ?{v})")
        });
        options.push(format!("!strdf:within(?{v}, {LANDMASS})"));
    }
    if let [a, b, ..] = geometries[..] {
        options.push(format!("strdf:intersects(?{a}, ?{b})"));
        options.push(format!("strdf:within(?{a}, ?{b})"));
        options.push(format!("strdf:distance(?{a}, ?{b}) < {}", 0.25 * (1 + g.below(8)) as f64));
    }
    if options.is_empty() {
        return None;
    }
    Some(format!("FILTER({})", options.swap_remove(g.below(options.len()))))
}

/// Draw `n` distinct atoms, mostly ones that join the variables in
/// scope; a stray one, drawn from all of them, keeps cross products in
/// the mix. The stray draw is the last choice, not the zero one: a
/// shrink replays exhausted choices as zero, so its candidates join.
fn gen_atoms<'a>(g: &mut Gen, n: usize, vars: &mut Vec<&'a str>) -> Vec<&'a str> {
    let mut chosen: Vec<&str> = Vec::new();
    for _ in 0..n {
        let joins = |atom: &(&str, &[&str])| atom.1.iter().any(|v| vars.contains(v));
        let connected: Vec<&(&str, &[&str])> = ATOMS
            .iter()
            .filter(|a| !chosen.contains(&a.0) && (vars.is_empty() || joins(a)))
            .collect();
        let any: Vec<&(&str, &[&str])> = ATOMS.iter().filter(|a| !chosen.contains(&a.0)).collect();
        let pool = if connected.is_empty() || g.below(8) == 7 { &any } else { &connected };
        let (text, mentions) = *pool[g.below(pool.len())];
        chosen.push(text);
        for v in mentions {
            if !vars.contains(v) {
                vars.push(v);
            }
        }
    }
    chosen
}

/// A group body (without braces): a BGP cut at random places by
/// FILTERs, a BIND (and a pattern joining on its target) and — at
/// depth 0 — nested groups. `vars` gains the variables a projection may
/// name: those the top level binds for certain.
fn gen_group<'a>(g: &mut Gen, depth: usize, vars: &mut Vec<&'a str>) -> String {
    let n = if depth == 0 { g.size(1..6) } else { g.size(1..3) };
    let mut elements: Vec<String> =
        gen_atoms(g, n, vars).into_iter().map(|a| format!("{a} .")).collect();
    let mut scope = vars.clone();
    let at = |g: &mut Gen, len: usize| g.below(len + 1);
    for _ in 0..g.below(3) {
        if let Some(f) = gen_filter(g, &scope) {
            let pos = at(g, elements.len());
            elements.insert(pos, f);
        }
    }
    if g.below(3) == 0 {
        let mut bind = match () {
            _ if scope.contains(&"c") && g.bool() => "BIND(?c * 2 AS ?twice)".to_string(),
            _ if scope.contains(&"hg") && g.bool() => "BIND(strdf:envelope(?hg) AS ?box)".to_string(),
            _ if scope.contains(&"img") => "BIND(?img AS ?src) ?other noa:isDerivedFrom ?src .".to_string(),
            _ => "BIND(<http://teleios.di.uoa.gr/products/p05> AS ?src) ?other noa:isDerivedFrom ?src .".to_string(),
        };
        if bind.contains("?box") && g.bool() {
            bind.push_str(&format!(" FILTER(strdf:intersects(?box, {}))", window(g)));
        }
        // Before the first run, between runs, or after the last.
        let pos = at(g, elements.len());
        elements.insert(pos, bind);
    }
    if depth == 0 {
        for _ in 0..g.below(3) {
            let body = |g: &mut Gen, scope: &mut Vec<&'a str>| {
                let inner = gen_group(g, depth + 1, scope);
                format!("{{ {inner} }}")
            };
            let nested = match g.below(5) {
                0 => format!("OPTIONAL {}", body(g, &mut scope)),
                1 => {
                    format!("{} UNION {}", body(g, &mut scope.clone()), body(g, &mut scope.clone()))
                }
                2 => format!("MINUS {}", body(g, &mut scope.clone())),
                3 => format!("FILTER EXISTS {}", body(g, &mut scope.clone())),
                _ => format!("FILTER NOT EXISTS {}", body(g, &mut scope.clone())),
            };
            let pos = at(g, elements.len());
            elements.insert(pos, nested);
        }
    }
    elements.join(" ")
}

#[derive(Debug)]
struct Case {
    text: String,
    agree: Agree,
}

/// A spatial selection over every feature's geometry, the FILTER
/// before or after the pattern. Each survivor of a spatial join is an
/// answer row here; in a [`gen_select`] statement, hotspot, image or
/// site patterns drop the survivors of the other kinds.
fn gen_spatial_selection(g: &mut Gen) -> Case {
    let filter = gen_filter(g, &["hg"]).expect("a geometry variable takes a FILTER");
    let pattern = "?f strdf:hasGeometry ?hg .";
    let body = if g.bool() { format!("{filter} {pattern}") } else { format!("{pattern} {filter}") };
    Case { text: format!("{PREFIXES}SELECT ?f ?hg WHERE {{ {body} }}"), agree: Agree::Multiset }
}

/// A generated SELECT; one in eight is a [`gen_spatial_selection`].
fn gen_select(g: &mut Gen) -> Case {
    if g.below(8) == 7 {
        return gen_spatial_selection(g);
    }
    let mut vars: Vec<&str> = Vec::new();
    let body = gen_group(g, 0, &mut vars);
    let distinct = if g.below(4) == 0 { "DISTINCT " } else { "" };
    // Projected names, and whether ORDER BY over all of them is total.
    let (projection, group_by, names): (String, String, Vec<String>) = match g.below(6) {
        0 => ("*".into(), String::new(), Vec::new()),
        1 | 2 if vars.contains(&"c") => {
            // Aggregates: grouped by the image when it is there.
            let key = if vars.contains(&"img") && g.bool() { Some("img") } else { None };
            let mut names: Vec<String> = key.iter().map(|k| k.to_string()).collect();
            let mut items: Vec<String> = key.iter().map(|k| format!("?{k}")).collect();
            for _ in 0..g.size(1..4) {
                let (call, alias) = *pick(
                    g,
                    &[
                        &("COUNT(?h)", "n"),
                        &("COUNT(*)", "all"),
                        &("SUM(?c)", "sum"),
                        &("AVG(?c)", "avg"),
                        &("MIN(?c)", "lo"),
                        &("MAX(?c)", "hi"),
                        &("MAX(?c) - MIN(?c)", "spread"),
                        &("ABS(SUM(?c))", "abssum"),
                    ],
                );
                if !names.iter().any(|n| n == alias) {
                    names.push(alias.to_string());
                    items.push(format!("({call} AS ?{alias})"));
                }
            }
            if let Some(k) = key {
                names.push("any".into());
                items.push(format!("(SAMPLE(?{k}) AS ?any)"));
            }
            (items.join(" "), key.map_or(String::new(), |k| format!(" GROUP BY ?{k}")), names)
        }
        _ => {
            let mut names: Vec<String> = Vec::new();
            for _ in 0..g.size(1..4) {
                let v = vars[g.below(vars.len())].to_string();
                if !names.contains(&v) {
                    names.push(v);
                }
            }
            let mut items: Vec<String> = names.iter().map(|v| format!("?{v}")).collect();
            if vars.contains(&"c") && g.bool() {
                names.push("half".into());
                items.push("(?c / 2 AS ?half)".into());
            }
            (items.join(" "), String::new(), names)
        }
    };
    let direction =
        |g: &mut Gen, v: &str| if g.bool() { format!("DESC(?{v})") } else { format!("?{v}") };
    let (order_by, total) = match g.below(3) {
        0 if !names.is_empty() => {
            let keys: Vec<String> = names.iter().map(|v| direction(g, v)).collect();
            (format!(" ORDER BY {}", keys.join(" ")), true)
        }
        1 if !vars.is_empty() => {
            // One key, projected or not; an alias now and then.
            let v = if !names.is_empty() && g.bool() {
                names[g.below(names.len())].clone()
            } else {
                vars[g.below(vars.len())].to_string()
            };
            (format!(" ORDER BY {}", direction(g, &v)), false)
        }
        _ => (String::new(), false),
    };
    let mut slice = String::new();
    if g.below(3) == 0 {
        slice = format!(" LIMIT {}", g.below(12));
        if g.bool() {
            slice.push_str(&format!(" OFFSET {}", g.below(6)));
        }
    }
    let agree = match (total, slice.is_empty()) {
        (true, _) => Agree::Sequence,
        (false, true) => Agree::Multiset,
        (false, false) => Agree::Count,
    };
    Case {
        text: format!(
            "{PREFIXES}SELECT {distinct}{projection} WHERE {{ {body} }}{group_by}{order_by}{slice}"
        ),
        agree,
    }
}

/// The two statements of scenario 2, as `noa::refine` writes them.
fn refinement_updates(landmass: &str, product: Option<usize>) -> [String; 2] {
    let scope =
        product.map_or(String::new(), |p| format!(" ; noa:isDerivedFrom <{PRODUCTS}p{p:02}>"));
    [
        format!(
            "{PREFIXES}DELETE {{ ?h a noa:Hotspot }}\nINSERT {{ ?h a <{REFUTED}> }}\nWHERE {{\n\
             ?h a noa:Hotspot{scope} ; strdf:hasGeometry ?g .\nFILTER(strdf:disjoint(?g, {landmass}))\n}}"
        ),
        format!(
            "{PREFIXES}DELETE {{ ?h strdf:hasGeometry ?g }}\nINSERT {{ ?h strdf:hasGeometry ?clipped }}\nWHERE {{\n\
             ?h a noa:Hotspot{scope} ; strdf:hasGeometry ?g .\nFILTER(!strdf:within(?g, {landmass}))\n\
             BIND(strdf:intersection(?g, {landmass}) AS ?clipped)\n}}"
        ),
    ]
}

fn gen_updates(g: &mut Gen) -> Vec<String> {
    let mut out = Vec::new();
    for _ in 0..g.size(1..4) {
        match g.below(5) {
            0 => {
                let product = if g.bool() { Some(g.below(IMAGES)) } else { None };
                out.extend(refinement_updates(&window(g), product));
            }
            1 => {
                let mut vars = vec!["h", "c"];
                let extra = gen_group(g, 0, &mut vars);
                out.push(format!(
                    "{PREFIXES}DELETE {{ ?h noa:hasConfidence ?c }} INSERT {{ ?h noa:hasConfidence ?less }} \
                     WHERE {{ ?h noa:hasConfidence ?c . {extra} BIND(?c / 2 AS ?less) }}"
                ));
            }
            2 => out.push(format!(
                "{PREFIXES}INSERT {{ ?h noa:isNear ?site }} WHERE {{ ?h strdf:hasGeometry ?hg . ?site a dbo:ArchaeologicalSite ; \
                 strdf:hasGeometry ?sg . FILTER(strdf:distance(?hg, ?sg) < {}) }}",
                0.25 * (1 + g.below(6)) as f64
            )),
            3 => out.push(format!(
                "{PREFIXES}DELETE WHERE {{ ?h noa:producedByChain <http://teleios.di.uoa.gr/chains/c{}> ; noa:isDerivedFrom ?img }}",
                g.below(2)
            )),
            _ => {
                // A generated WHERE under templates over what it binds.
                let mut vars = vec!["h", "chain"];
                let body = gen_group(g, 0, &mut vars);
                let v = vars[g.below(vars.len())];
                out.push(format!(
                    "{PREFIXES}DELETE {{ ?h noa:producedByChain ?chain }} INSERT {{ ?h noa:touchedBy ?{v} }} \
                     WHERE {{ ?h noa:producedByChain ?chain . {body} }}"
                ));
            }
        }
    }
    out
}

/// The most bindings a step of a generated statement may be estimated
/// to leave for the statement to run: stray atoms chain into cross
/// products. Solutions move a block of id rows at a time, so the two
/// seeds' statements estimated at 4·10⁶ and 1.6·10⁷ now run in about a
/// second each in a debug build; past 10⁸ a statement would still take
/// minutes.
const PEAK_ESTIMATE: f64 = 1e8;

/// The largest `(est N)` in the plans of `text`, under every
/// configuration.
fn peak_estimate(engines: &mut [Strabon], text: &str) -> f64 {
    let mut peak = 0.0_f64;
    for db in engines {
        for line in db.explain(text).unwrap_or_default().lines() {
            let est =
                line.rsplit_once("(est ").and_then(|(_, n)| n.strip_suffix(')')?.parse().ok());
            peak = peak.max(est.unwrap_or(0.0));
        }
    }
    peak
}

/// 256 generated SELECTs, each under all four configurations, except
/// those estimated past [`PEAK_ESTIMATE`] bindings: at most one in
/// sixteen is skipped.
#[test]
fn generated_queries_agree_across_configurations() {
    let engines = RefCell::new(configs().into_iter().map(archive).collect::<Vec<_>>());
    let skipped = Cell::new(0);
    forall(gen_select, |case| {
        let mut engines = engines.borrow_mut();
        if peak_estimate(&mut engines, &case.text) > PEAK_ESTIMATE {
            skipped.set(skipped.get() + 1);
            return;
        }
        assert_query_agrees(&mut engines, &case.text, case.agree)
    });
    let skipped = skipped.get();
    assert!(skipped <= teleios_check::CASES / 16, "{skipped} generated statements skipped");
}

/// Generated update sequences leave equal stores behind (a quarter of
/// the seeds: every case builds four archives).
#[test]
fn generated_updates_agree_across_configurations() {
    for seed in 0..teleios_check::CASES / 4 {
        teleios_check::check_seed(seed, gen_updates, |updates| {
            assert_updates_agree(&updates);
        });
    }
}

// --- a cross product, a block at a time ----------------------------------

/// Every hotspot three times over, times every site: 7 077 888
/// bindings of four variables.
const CROSS: &str =
    "?a a noa:Hotspot . ?b a noa:Hotspot . ?c a noa:Hotspot . ?site a dbo:ArchaeologicalSite";

/// This process's peak resident set (`VmHWM`), in KiB.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:")).expect("VmHWM");
    line.trim().trim_end_matches("kB").trim().parse().expect("VmHWM in kB")
}

/// ASK and an unordered LIMIT over [`CROSS`] stop at the first block,
/// DISTINCT keeps one row per distinct projection as they come, and
/// COUNT(*) folds each block into one accumulator as it streams, so
/// all four stay within a few blocks' memory. Run in release from a
/// shell of its own whose address space `ulimit -v` caps at about
/// 1 GB: a walk that kept every binding as terms would need several GB
/// and abort.
/// `cargo test --release -p teleios-strabon --test differential --
/// --ignored --exact a_cross_product_is_walked_a_block_at_a_time`
/// (`scripts/check.sh` runs it).
#[test]
#[ignore = "release build, under ulimit -v: scripts/check.sh"]
fn a_cross_product_is_walked_a_block_at_a_time() {
    const NAME: &str = "a_cross_product_is_walked_a_block_at_a_time";
    if std::env::var_os("STRABON_UNDER_ULIMIT").is_none() {
        let status = std::process::Command::new("sh")
            .args(["-c", "ulimit -v 1000000 && exec \"$0\" --ignored --exact \"$1\" --test-threads 1 --nocapture"])
            .arg(std::env::current_exe().expect("the test binary"))
            .arg(NAME)
            .env("STRABON_UNDER_ULIMIT", "1")
            .status()
            .expect("sh");
        assert!(status.success(), "{NAME} under ulimit -v 1000000: {status}");
        return;
    }
    let mut db = archive(StrabonConfig::default());
    let mut query = |q: &str| db.query(&format!("{PREFIXES}{q}")).expect("query");
    let ask = query(&format!("ASK {{ {CROSS} }}"));
    assert_eq!(ask.rows, [[Some(Term::boolean(true))]]);
    assert_eq!(query(&format!("SELECT * WHERE {{ {CROSS} }} LIMIT 10")).len(), 10);
    assert_eq!(query(&format!("SELECT DISTINCT ?site WHERE {{ {CROSS} }}")).len(), SITES);
    let streamed = peak_rss_kib();
    assert!(streamed < 64 * 1024, "ASK, LIMIT and DISTINCT peaked at {streamed} KiB");
    let count = query(&format!("SELECT (COUNT(*) AS ?n) WHERE {{ {CROSS} }}"));
    let bindings = HOTSPOTS * HOTSPOTS * HOTSPOTS * SITES;
    assert_eq!(count.get(0, "n"), Some(&Term::int(bindings as i64)));
    let counted = peak_rss_kib();
    eprintln!(
        "peak RSS: {streamed} KiB after ASK, LIMIT and DISTINCT; {counted} KiB after COUNT(*)"
    );
    assert!(counted < 64 * 1024, "COUNT(*) over {bindings} bindings peaked at {counted} KiB");
}

// --- the pinned corpus -------------------------------------------------

fn flagship(day: &str, dist: f64) -> String {
    format!(
        "{PREFIXES}SELECT DISTINCT ?img ?h ?site WHERE {{\n\
         ?img a noa:RawImage ; noa:isAcquiredBy sat:MSG2 ; noa:hasAcquisitionTime ?t .\n\
         ?h a noa:Hotspot ; noa:isDerivedFrom ?img ; strdf:hasGeometry ?hg .\n\
         ?site a dbo:ArchaeologicalSite ; strdf:hasGeometry ?sg .\n\
         FILTER(STR(?t) >= \"{day}T00:00:00Z\" && STR(?t) < \"{day}T23:59:59Z\")\n\
         FILTER(strdf:distance(?hg, ?sg) < {dist})\n}}"
    )
}

const REGION: &str = "\"POLYGON ((22 36.5, 24.5 36.5, 24.5 38.5, 22 38.5, 22 36.5))\"^^strdf:WKT";

/// Named statements: the benchmark's `archive_query` classes, the fire
/// map's layer query, the portal's flagship, both refinement updates
/// scoped and unscoped, every nested-group kind and the solution
/// modifiers. A query entry is one statement; an update entry is the
/// sequence applied to a fresh archive.
fn corpus() -> Vec<(&'static str, Vec<String>)> {
    let q = |body: &str| vec![format!("{PREFIXES}{body}")];
    let hotspot_geo = "?h a noa:Hotspot ; strdf:hasGeometry ?g .";
    vec![
        // archive_query's classes.
        ("flagship_day1", vec![flagship("2007-08-01", 0.5)]),
        ("flagship_day2_wide", vec![flagship("2007-08-02", 1.5)]),
        ("flagship_day3_narrow", vec![flagship("2007-08-03", 0.25)]),
        ("region", q(&format!("SELECT ?h ?img WHERE {{ {hotspot_geo} FILTER(strdf:intersects(?g, {REGION})) ?h noa:isDerivedFrom ?img . ?img noa:isAcquiredBy sat:MSG2 . }}"))),
        ("region_empty", q(&format!("SELECT ?h ?img WHERE {{ {hotspot_geo} FILTER(strdf:intersects(?g, \"POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))\"^^strdf:WKT)) ?h noa:isDerivedFrom ?img . }}"))),
        ("bgp5", q("SELECT ?h ?img ?t WHERE { ?img noa:hasAcquisitionTime ?t . ?img noa:isAcquiredBy sat:MSG1 . ?h noa:isDerivedFrom ?img . ?h noa:hasConfidence ?c . ?img a noa:AnnotatedImage . FILTER(?c > 0.5) }")),
        ("bgp5_low", q("SELECT ?h ?img ?t WHERE { ?img noa:hasAcquisitionTime ?t . ?img noa:isAcquiredBy sat:MSG1 . ?h noa:isDerivedFrom ?img . ?h noa:hasConfidence ?c . ?img a noa:AnnotatedImage . FILTER(?c > 0.1) }")),
        ("discovery", q("SELECT ?p ?t WHERE { ?p a noa:RawImage ; noa:hasAcquisitionTime ?t . FILTER(STR(?t) >= \"2007-08-02T00:00:00Z\" && STR(?t) < \"2007-08-02T23:59:59Z\") } ORDER BY ?t")),
        ("discovery_all", q("SELECT ?p ?t WHERE { ?p a noa:RawImage ; noa:hasAcquisitionTime ?t } ORDER BY ?t")),
        ("firemap_hotspots", q(&format!("SELECT ?f ?g ?label WHERE {{ ?f a noa:Hotspot ; strdf:hasGeometry ?g . FILTER(strdf:intersects(?g, {REGION})) }}"))),
        ("firemap_sites", q(&format!("SELECT ?f ?g ?label WHERE {{ ?f a dbo:ArchaeologicalSite ; strdf:hasGeometry ?g . OPTIONAL {{ ?f rdfs:label ?label }} FILTER(strdf:intersects(?g, {REGION})) }}"))),
        // Flat BGP + FILTER shapes (EXPLAIN pinned too).
        ("count_hotspots", q("SELECT ?h WHERE { ?h a noa:Hotspot }")),
        ("product_hotspots", q(&format!("SELECT ?h WHERE {{ ?h a noa:Hotspot ; noa:isDerivedFrom <{PRODUCTS}p03> }}"))),
        ("surviving_geometries", q(&format!("SELECT ?g WHERE {{ ?h a noa:Hotspot ; noa:isDerivedFrom <{PRODUCTS}p04> ; strdf:hasGeometry ?g }}"))),
        ("within_landmass", q(&format!("SELECT ?h WHERE {{ {hotspot_geo} FILTER(strdf:within(?g, {LANDMASS})) }}"))),
        ("disjoint_landmass", q(&format!("SELECT ?h WHERE {{ {hotspot_geo} FILTER(strdf:disjoint(?g, {LANDMASS})) }}"))),
        ("crossing_landmass", q(&format!("SELECT ?h WHERE {{ {hotspot_geo} FILTER(!strdf:within(?g, {LANDMASS})) FILTER(strdf:intersects(?g, {LANDMASS})) }}"))),
        ("distance_const", q("SELECT ?h ?c WHERE { ?h noa:hasConfidence ?c ; strdf:hasGeometry ?g . FILTER(strdf:distance(?g, \"POINT (23 37)\"^^strdf:WKT) < 0.75) }")),
        ("distance_const_flipped", q("SELECT ?h WHERE { ?h strdf:hasGeometry ?g . FILTER(1.25 > strdf:distance(\"POINT (23 37)\"^^strdf:WKT, ?g)) ?h a noa:Hotspot }")),
        ("two_filters_one_slot", q(&format!("SELECT ?h WHERE {{ {hotspot_geo} FILTER(strdf:intersects(?g, {REGION})) FILTER(strdf:intersects(?g, {LANDMASS})) }}"))),
        ("filter_before_run", q(&format!("SELECT ?h ?img WHERE {{ FILTER(strdf:intersects(?g, {REGION})) ?h strdf:hasGeometry ?g ; noa:isDerivedFrom ?img }}"))),
        ("filter_between_runs", q("SELECT ?h ?t WHERE { ?h noa:hasConfidence ?c . FILTER(?c >= 0.75) ?img noa:hasAcquisitionTime ?t . ?h noa:isDerivedFrom ?img }")),
        ("images_covering", q("SELECT ?img WHERE { ?img a noa:RawImage ; strdf:hasGeometry ?ig . FILTER(strdf:contains(?ig, \"POINT (22.25 36.75)\"^^strdf:WKT)) }")),
        ("variable_geometries", q("SELECT ?h ?img WHERE { ?h noa:isDerivedFrom ?img ; strdf:hasGeometry ?hg . ?img strdf:hasGeometry ?ig . FILTER(strdf:within(?hg, ?ig)) }")),
        ("variable_predicate", q(&format!("SELECT ?p ?o WHERE {{ <{PRODUCTS}p02/hotspot/1> ?p ?o }}"))),
        ("repeated_variable", q("SELECT ?x WHERE { ?x noa:isDerivedFrom ?x }")),
        ("unknown_constant", q("SELECT ?h WHERE { ?h a noa:Hotspot ; noa:isDerivedFrom <http://nowhere/p> }")),
        ("cross_product", q("SELECT ?site ?img WHERE { ?site a dbo:ArchaeologicalSite . ?img a noa:AnnotatedImage }")),
        ("ask_yes", q(&format!("ASK {{ {hotspot_geo} FILTER(strdf:within(?g, {LANDMASS})) }}"))),
        ("ask_no", q("ASK { ?h a noa:Hotspot ; noa:hasConfidence ?c . FILTER(?c > 2) }")),
        // Nested groups.
        ("optional_label", q("SELECT ?site ?label WHERE { ?site a dbo:ArchaeologicalSite . OPTIONAL { ?site rdfs:label ?label } }")),
        ("optional_join", q("SELECT ?img ?h ?c WHERE { ?img a noa:AnnotatedImage . OPTIONAL { ?h noa:isDerivedFrom ?img ; noa:hasConfidence ?c . FILTER(?c > 0.9) } }")),
        ("optional_spatial", q(&format!("SELECT ?img ?h WHERE {{ ?img noa:isAcquiredBy sat:MSG3 . OPTIONAL {{ ?h noa:isDerivedFrom ?img ; strdf:hasGeometry ?g . FILTER(strdf:intersects(?g, {REGION})) }} }}"))),
        ("optional_then_filter", q("SELECT ?site WHERE { ?site a dbo:ArchaeologicalSite . OPTIONAL { ?site rdfs:label ?label } FILTER(!BOUND(?label)) }")),
        ("union_classes", q("SELECT ?x WHERE { { ?x a noa:AnnotatedImage } UNION { ?x a dbo:ArchaeologicalSite } }")),
        ("union_then_run", q("SELECT ?x ?g WHERE { { ?x a noa:AnnotatedImage } UNION { ?x a dbo:ArchaeologicalSite } ?x strdf:hasGeometry ?g }")),
        ("union_three_way", q("SELECT ?img WHERE { { ?img noa:isAcquiredBy sat:MSG1 } UNION { ?img noa:isAcquiredBy sat:MSG2 } UNION { ?img a noa:AnnotatedImage } }")),
        ("minus_annotated", q("SELECT ?img WHERE { ?img a noa:RawImage . MINUS { ?img a noa:AnnotatedImage } }")),
        ("minus_disjoint_vars", q("SELECT ?img WHERE { ?img a noa:AnnotatedImage . MINUS { ?site a dbo:ArchaeologicalSite } }")),
        ("minus_spatial", q(&format!("SELECT ?h WHERE {{ ?h noa:isDerivedFrom <{PRODUCTS}p01> . MINUS {{ ?h strdf:hasGeometry ?g . FILTER(strdf:within(?g, {LANDMASS})) }} }}"))),
        ("exists_confident", q("SELECT ?img WHERE { ?img a noa:RawImage . FILTER EXISTS { ?h noa:isDerivedFrom ?img ; noa:hasConfidence ?c . FILTER(?c > 0.95) } }")),
        ("not_exists_label", q("SELECT ?site WHERE { ?site a dbo:ArchaeologicalSite . FILTER NOT EXISTS { ?site rdfs:label ?l } }")),
        ("exists_two_patterns", q("SELECT ?h WHERE { ?h noa:hasConfidence ?c . FILTER(?c < 0.1) FILTER EXISTS { ?img a noa:AnnotatedImage . ?h noa:isDerivedFrom ?img } }")),
        ("bind_then_run", q("SELECT ?h ?src WHERE { ?img a noa:AnnotatedImage ; noa:isAcquiredBy sat:MSG1 . BIND(?img AS ?src) ?h noa:hasConfidence ?c . ?h noa:isDerivedFrom ?src }")),
        ("bind_first", q(&format!("SELECT ?h WHERE {{ BIND(<{PRODUCTS}p06> AS ?src) ?h a noa:Hotspot . ?h noa:isDerivedFrom ?src }}"))),
        ("bind_arithmetic", q("SELECT ?h ?twice WHERE { ?h noa:hasConfidence ?c . BIND(?c * 2 AS ?twice) FILTER(?twice > 1.5) }")),
        ("bind_envelope", q(&format!("SELECT ?h ?box WHERE {{ ?h noa:isDerivedFrom <{PRODUCTS}p02> ; strdf:hasGeometry ?g . BIND(strdf:envelope(?g) AS ?box) FILTER(strdf:intersects(?box, {LANDMASS})) }}"))),
        ("nested_optional_in_union", q("SELECT ?x ?label WHERE { { ?x a dbo:ArchaeologicalSite . OPTIONAL { ?x rdfs:label ?label } } UNION { ?x a noa:AnnotatedImage } }")),
        // Solution modifiers.
        ("distinct_satellites", q("SELECT DISTINCT ?sat WHERE { ?img noa:isAcquiredBy ?sat }")),
        ("select_star", q("SELECT * WHERE { ?img a noa:AnnotatedImage ; noa:hasAcquisitionTime ?t } ORDER BY DESC(?t)")),
        ("order_two_keys_page", q("SELECT ?h ?c WHERE { ?h noa:hasConfidence ?c } ORDER BY DESC(?c) ?h LIMIT 7 OFFSET 3")),
        ("order_unprojected", q("SELECT ?h WHERE { ?h noa:hasConfidence ?c ; noa:isDerivedFrom ?img } ORDER BY ?img ?c ?h LIMIT 10")),
        ("limit_unordered", q("SELECT ?h ?c WHERE { ?h noa:hasConfidence ?c . FILTER(?c > 0.5) } LIMIT 5")),
        ("projected_expression", q(&format!("SELECT ?h (?c * 2 AS ?twice) (strdf:area(?g) AS ?a) WHERE {{ ?h noa:hasConfidence ?c ; strdf:hasGeometry ?g ; noa:isDerivedFrom <{PRODUCTS}p00> }}"))),
        ("count_per_image", q("SELECT ?img (COUNT(?h) AS ?n) WHERE { ?h a noa:Hotspot ; noa:isDerivedFrom ?img } GROUP BY ?img ORDER BY ?img")),
        ("stats_per_image", q("SELECT ?img (SUM(?c) AS ?sum) (AVG(?c) AS ?avg) (MIN(?c) AS ?lo) (MAX(?c) AS ?hi) (SAMPLE(?img) AS ?any) WHERE { ?h noa:isDerivedFrom ?img ; noa:hasConfidence ?c } GROUP BY ?img ORDER BY ?img")),
        ("global_aggregate", q("SELECT (COUNT(*) AS ?n) (MAX(?c) - MIN(?c) AS ?spread) WHERE { ?h noa:hasConfidence ?c }")),
        ("aggregate_empty", q("SELECT (COUNT(?h) AS ?n) (SUM(?c) AS ?s) WHERE { ?h noa:hasConfidence ?c . FILTER(?c > 2) }")),
        ("group_unordered", q("SELECT ?sat (COUNT(?img) AS ?n) WHERE { ?img noa:isAcquiredBy ?sat } GROUP BY ?sat")),
        ("group_star", q("SELECT * WHERE { ?img noa:isAcquiredBy ?sat } GROUP BY ?sat")),
        ("spatial_aggregate", q(&format!("SELECT (SUM(strdf:area(?g)) AS ?total) WHERE {{ {hotspot_geo} FILTER(strdf:within(?g, {LANDMASS})) }}"))),
        // Updates: the store afterwards is what is pinned.
        ("refine_unscoped", refinement_updates(LANDMASS, None).to_vec()),
        ("refine_scoped", refinement_updates(LANDMASS, Some(3)).to_vec()),
        ("refine_twice", [refinement_updates(LANDMASS, Some(5)), refinement_updates(LANDMASS, None)].concat()),
        ("delete_where", vec![format!("{PREFIXES}DELETE WHERE {{ ?h noa:producedByChain <http://teleios.di.uoa.gr/chains/c1> ; noa:hasConfidence ?c }}")]),
        ("insert_near", vec![format!("{PREFIXES}INSERT {{ ?h noa:isNear ?site }} WHERE {{ ?h strdf:hasGeometry ?hg . ?site a dbo:ArchaeologicalSite ; strdf:hasGeometry ?sg . FILTER(strdf:distance(?hg, ?sg) < 0.5) }}")]),
        ("halve_confidence", vec![format!("{PREFIXES}DELETE {{ ?h noa:hasConfidence ?c }} INSERT {{ ?h noa:hasConfidence ?less }} WHERE {{ ?h noa:hasConfidence ?c ; noa:isDerivedFrom <{PRODUCTS}p09> . BIND(?c / 2 AS ?less) }}")]),
        ("insert_delete_data", vec![
            format!("{PREFIXES}INSERT DATA {{ <http://x/new> a noa:Hotspot ; strdf:hasGeometry \"POINT (22 37)\"^^strdf:WKT }}"),
            format!("{PREFIXES}DELETE DATA {{ <{PRODUCTS}p00/hotspot/0> a noa:Hotspot }}"),
        ]),
    ]
}

fn is_update(statements: &[String]) -> bool {
    !statements[0].contains("SELECT") && !statements[0].contains("ASK")
}

/// A flat query: one group of triple patterns and expression FILTERs.
fn is_flat(text: &str) -> bool {
    !["OPTIONAL", "UNION", "MINUS", "EXISTS", "BIND"].iter().any(|k| text.contains(k))
}

fn fnv(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in lines.iter().flat_map(|l| l.bytes().chain(std::iter::once(b'\n'))) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What gets pinned for a corpus entry, at the default configuration:
/// the answer's (or the final store's) line count and digest, and the
/// digest of a flat query's EXPLAIN text (0 otherwise). Without ORDER
/// BY, row order is a plan artifact, so the rows are digested sorted;
/// an ORDER BY or a LIMIT keeps the sequence.
fn observe(statements: &[String]) -> (usize, u64, u64) {
    if is_update(statements) {
        let (counts, image) = assert_updates_agree(statements);
        let lines: Vec<String> = counts.into_iter().chain(image).collect();
        return (lines.len(), fnv(&lines), 0);
    }
    let text = &statements[0];
    let mut db = archive(configs()[0]);
    let mut rows = rows_of(&mut db, text);
    if !text.contains("ORDER BY") && !text.contains("LIMIT") {
        rows[1..].sort();
    }
    let plan = if is_flat(text) { fnv(&[db.explain(text).expect("explain")]) } else { 0 };
    (rows.len(), fnv(&rows), plan)
}

/// Name, lines (header + rows, or counts + triples), their digest,
/// EXPLAIN digest. The answers were recorded on the build before the
/// evaluator became plan → walk, then re-digested there with the rows
/// sorted (the planner may reorder them); `filter_before_run` is the
/// answer of the same query with its FILTER written last. The EXPLAIN
/// digests are the cost-based planner's.
const GOLDEN: &[(&str, usize, u64, u64)] = &[
    ("flagship_day1", 4, 0x8c690cd83dfdc48a, 0xa308f57b53740add),
    ("flagship_day2_wide", 27, 0xf57c4d2a28393e52, 0x0683b49d8eaa6d7a),
    ("flagship_day3_narrow", 2, 0xb6a39e98e6989b83, 0xfea6adc60bda1ddd),
    ("region", 6, 0x53716d8124d4852e, 0xfaf6a5314e84ae86),
    ("region_empty", 1, 0x119025ffe26bd1c4, 0x9bfce9376bafc157),
    ("bgp5", 14, 0xe7d585e4578a0635, 0x7bd0ecc58ce226a2),
    ("bgp5_low", 32, 0xa8bbd63719afa32b, 0x7bd0ecc58ce226a2),
    ("discovery", 5, 0x5435d8fd61fdb89b, 0x702c68a3cf66823a),
    ("discovery_all", 13, 0xe681ac935602952d, 0xc2ec60031e2476a8),
    ("firemap_hotspots", 20, 0x88f77df37d3d1479, 0x4ad2eaba1865b941),
    ("firemap_sites", 4, 0xfd22bf1d7653b88e, 0x0000000000000000),
    ("count_hotspots", 97, 0xbea66bc005c08d99, 0xf79b53c69e1142ff),
    ("product_hotspots", 9, 0x27700ef8f80530a9, 0x97335d7878b94a25),
    ("surviving_geometries", 9, 0x60c0c1065d223f72, 0x9e9efc6b839ed9d0),
    ("within_landmass", 36, 0x757cc32c192bbd04, 0xc3b7919a278a27aa),
    ("disjoint_landmass", 51, 0x6e10b35a68a7678b, 0x11834877261372c9),
    ("crossing_landmass", 7, 0x464546e6b6213c61, 0xb241772570eda7c6),
    ("distance_const", 8, 0x42811298f17dddcd, 0xffec01dd8ddfa93e),
    ("distance_const_flipped", 18, 0x30532652fe17ce3c, 0x50b98b8bd4deafb0),
    ("two_filters_one_slot", 20, 0x0182c1a744bff464, 0x602ea6346e3e588e),
    ("filter_before_run", 20, 0x03fe7f8a05b0f338, 0xca9947ef5aaa59d0),
    ("filter_between_runs", 24, 0x32a3a4ec05be82a9, 0xf2605bd5dfd1597a),
    ("images_covering", 3, 0x0b683920a80dfec2, 0x80b29e4838e1650c),
    ("variable_geometries", 10, 0xdf129b7ba676777c, 0xb47e67b1b4eaf738),
    ("variable_predicate", 6, 0xb24fbac167a9370d, 0x652f0fec429e9cc7),
    ("repeated_variable", 1, 0xfefc10f67656f541, 0x0732491b3f3556fc),
    ("unknown_constant", 1, 0x2bcfd0724ec8d091, 0x4bc793021c616f2c),
    ("cross_product", 33, 0xa79069ca637ca813, 0x33d7768aa5523a39),
    ("ask_yes", 2, 0x2e21204bcc0511ac, 0xc3b7919a278a27aa),
    ("ask_no", 2, 0x32e24d922f36d375, 0x1765b632a319cfa2),
    ("optional_label", 9, 0xdede8aaab469dcd4, 0x0000000000000000),
    ("optional_join", 5, 0x1d5167b8dec3e9ca, 0x0000000000000000),
    ("optional_spatial", 11, 0xe2a020334ce26afd, 0x0000000000000000),
    ("optional_then_filter", 5, 0x0210e54e7bb8e990, 0x0000000000000000),
    ("union_classes", 13, 0x442f793bca37e54d, 0x0000000000000000),
    ("union_then_run", 13, 0x4df6f4aa72f431d6, 0x0000000000000000),
    ("union_three_way", 13, 0x005de4e651c77a45, 0x0000000000000000),
    ("minus_annotated", 9, 0xa600fef6d61f5d16, 0x0000000000000000),
    ("minus_disjoint_vars", 5, 0x2697c7917987ec74, 0x0000000000000000),
    ("minus_spatial", 5, 0x1e02bf9067782fb3, 0x0000000000000000),
    ("exists_confident", 5, 0x47908095be167bd0, 0x0000000000000000),
    ("not_exists_label", 5, 0x0210e54e7bb8e990, 0x0000000000000000),
    ("exists_two_patterns", 2, 0x16d6c308b97c68af, 0x0000000000000000),
    ("bind_then_run", 33, 0x60db4b2b1e005973, 0x0000000000000000),
    ("bind_first", 9, 0xfb4c98e4f6622a21, 0x0000000000000000),
    ("bind_arithmetic", 24, 0x57ba7b6b4d59229e, 0x0000000000000000),
    ("bind_envelope", 6, 0x2b269203bd974d12, 0x0000000000000000),
    ("nested_optional_in_union", 13, 0x57366bd6d440e10b, 0x0000000000000000),
    ("distinct_satellites", 4, 0x6678ebe05b4fac1a, 0x44010234bc2e0ba1),
    ("select_star", 5, 0x9fefef4cbc9f0439, 0xc7079570e460085d),
    ("order_two_keys_page", 8, 0xad1988a96f3d5590, 0x3b2ec5fcacf4b910),
    ("order_unprojected", 11, 0x794ff199e217135a, 0xdedc23386e213ca2),
    ("limit_unordered", 6, 0x51f9f4e2e33e9d0d, 0xfd9657208c6706ee),
    ("projected_expression", 9, 0xdeea9253d8b3ac91, 0x211f71c49d13258f),
    ("count_per_image", 13, 0xc64a0e3fa92c3172, 0x2af91134dc18de00),
    ("stats_per_image", 13, 0xaf9fb255630c4aec, 0xdedc23386e213ca2),
    ("global_aggregate", 2, 0xbcb532d9d38cc314, 0x3b2ec5fcacf4b910),
    ("aggregate_empty", 2, 0x6ff6a5f87f60cf3e, 0xfd9657208c6706ee),
    ("group_unordered", 4, 0xbc9321cf47ab59c8, 0x44010234bc2e0ba1),
    ("group_star", 4, 0x6678ebe05b4fac1a, 0x44010234bc2e0ba1),
    ("spatial_aggregate", 2, 0xf6f1b09392af91ed, 0xc3b7919a278a27aa),
    ("refine_unscoped", 551, 0x0dca046847aea0fe, 0x0000000000000000),
    ("refine_scoped", 551, 0xda680d12cf11d189, 0x0000000000000000),
    ("refine_twice", 553, 0x81fb7e8de4d223a4, 0x0000000000000000),
    ("delete_where", 462, 0xd8cd92126758cc94, 0x0000000000000000),
    ("insert_near", 612, 0x9a1b3c2f95073a32, 0x0000000000000000),
    ("halve_confidence", 550, 0x7d8156b8399c8eea, 0x0000000000000000),
    ("insert_delete_data", 552, 0x4bd18697365da61f, 0x0000000000000000),
];

/// Regenerate [`GOLDEN`] on a build you trust:
/// `cargo test -p teleios-strabon --test differential print_golden -- --ignored --nocapture`.
#[test]
#[ignore]
fn print_golden() {
    for (name, statements) in corpus() {
        let (lines, digest, plan) = observe(&statements);
        println!("    (\"{name}\", {lines}, {digest:#018x}, {plan:#018x}),");
    }
}

#[test]
fn pinned_corpus_matches_the_recorded_answers() {
    let corpus = corpus();
    assert_eq!(corpus.len(), GOLDEN.len(), "corpus and GOLDEN went out of step");
    let mut engines: Vec<Strabon> = configs().into_iter().map(archive).collect();
    for ((name, statements), golden) in corpus.iter().zip(GOLDEN) {
        assert_eq!(*name, golden.0, "corpus and GOLDEN went out of step");
        let (lines, digest, plan) = observe(statements);
        if (lines, digest) != (golden.1, golden.2) {
            let shown = if is_update(statements) {
                Vec::new()
            } else {
                rows_of(&mut engines[0], &statements[0])
            };
            panic!("{name}: {lines} lines, digest {digest:#018x}; recorded {} lines, {:#018x}\n{shown:#?}", golden.1, golden.2);
        }
        if plan != golden.3 {
            panic!(
                "{name}: EXPLAIN changed:\n{}",
                engines[0].explain(&statements[0]).expect("explain")
            );
        }
        if !is_update(statements) {
            let text = &statements[0];
            let sliced = text.contains("LIMIT") && !text.contains("ORDER BY");
            assert_query_agrees(
                &mut engines,
                text,
                if sliced { Agree::Count } else { Agree::Multiset },
            );
        }
    }
}

/// The pinned statements as decoder seeds: each body once, the shared
/// prologue once.
fn seed_statements() -> Vec<String> {
    let mut seeds: Vec<String> =
        corpus().into_iter().flat_map(|(_, s)| s).map(|s| s.replacen(PREFIXES, "", 1)).collect();
    seeds.push(PREFIXES.to_string());
    seeds.sort();
    seeds.dedup();
    seeds
}

#[test]
fn decoders_answer_every_mangled_statement_with_ok_or_err() {
    let seeds = seed_statements();
    let seeds: Vec<&str> = seeds.iter().map(String::as_str).collect();
    teleios_check::fuzz_text(&seeds, |text| {
        let _ = teleios_strabon::parser::parse_update(text);
        teleios_strabon::parser::parse_query(text)
    });
}
