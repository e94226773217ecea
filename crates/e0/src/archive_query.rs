//! `archive_query` — the portal, the read-only semantic side.
//!
//! Why it exists: stSPARQL parsing, BGP joins, FILTERs, the rdf indexes
//! and dictionary, and the geo R-tree and predicates do all the work;
//! the vault, SciQL, the chain and the store layer do none — the bypass
//! workload for every array-side or storage-side optimisation.
//!
//! Set-up builds one observatory over a denser world with an archive of
//! products and a `products` table. A timed op is one request from a
//! seeded fixed mix of six classes. There are no writes, so the spatial
//! sidecar is built once, in warm-up.
//!
//! Correctness: every request's `(row count, order-insensitive row
//! hash)` must equal a reference computed in set-up. The stSPARQL
//! classes are re-run on the same store with the optimizer, the
//! spatial index and parallelism switched off; the flagship query,
//! whose unoptimized plan is a cross product too slow to run per
//! instance, is answered by a nested loop over facts read straight
//! from the triple indexes; the SQL aggregate is computed from the
//! generated rows.

use crate::archive::{self, DAYS};
use crate::digest::{self, Answer, Fold};
use crate::engine::{Engine, Res};
use crate::rng::SplitMix64;
use crate::trace::Tracer;
use crate::workload::{ensure, timed, Plan, RunOutput, Workload};
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::time::Instant;
use teleios_core::portal;
use teleios_geo::algorithm::distance::distance;
use teleios_geo::geometry::Polygon;
use teleios_geo::{Coord, Envelope, Geometry};
use teleios_linked::world::WorldSpec;
use teleios_monet::Value;
use teleios_rdf::strdf::{geometry_literal_wgs84, parse_geometry};
use teleios_rdf::vocab::{noa, rdf, strdf};
use teleios_rdf::{Term, TripleStore};
use teleios_strabon::StrabonConfig;

/// The six request classes, with their share of the mix in percent.
pub const MIX: [(Class, usize); 6] = [
    (Class::Flagship, 30),
    (Class::Region, 25),
    (Class::Bgp5, 15),
    (Class::Discovery, 10),
    (Class::FireMap, 10),
    (Class::Sql, 10),
];

/// Flagship distances in degrees.
pub const DISTANCES: [f64; 3] = [0.1, 0.2, 0.3];
/// Confidence thresholds of the five-pattern BGP.
pub const CONFIDENCES: [f64; 4] = [0.3, 0.5, 0.7, 0.9];
/// Random windows drawn per spatial class.
pub const WINDOWS: usize = 16;

/// A request class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// `portal::flagship_query`: one day, one distance.
    Flagship,
    /// Hotspots in a 0.5° region joined to their image (E3).
    Region,
    /// Five-pattern BGP with a rare class and a confidence FILTER (E4).
    Bgp5,
    /// Discovery listing of one day with a time FILTER and `ORDER BY`.
    Discovery,
    /// `Observatory::fire_map` over a 1° window.
    FireMap,
    /// SQL `GROUP BY` aggregate over the `products` table.
    Sql,
}

impl Class {
    /// Name of the per-class latency series.
    pub fn series(self) -> &'static str {
        match self {
            Class::Flagship => "core.q_flagship",
            Class::Region => "core.q_region",
            Class::Bgp5 => "core.q_bgp5",
            Class::Discovery => "core.q_discovery",
            Class::FireMap => "core.q_firemap",
            Class::Sql => "core.q_sql",
        }
    }
}

/// One concrete request: a class and the index of its parameters in
/// that class's pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Request {
    /// The class.
    pub class: Class,
    /// Which instance of the class.
    pub instance: usize,
}

/// Data sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Archived products.
    pub products: usize,
    /// Archaeological sites in the world.
    pub sites: usize,
    /// Populated places in the world.
    pub places: usize,
}

/// Frozen sizes (1/50 of the products at smoke scale).
pub fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            products: 60,
            sites: 4,
            places: 20,
        }
    } else {
        Sizes {
            products: 2000,
            sites: 12,
            places: 100,
        }
    }
}

/// The parameter pools the schedule draws instances from.
#[derive(Debug, Clone)]
pub struct Pools {
    /// 0.5° regions (every 4th hugs the centre, where products cluster).
    pub regions: Vec<Envelope>,
    /// 1° fire-map windows.
    pub windows: Vec<Envelope>,
}

impl Pools {
    /// Draw the pools for `seed` inside `bbox`.
    pub fn draw(seed: u64, bbox: &Envelope) -> Pools {
        let mut rng = SplitMix64::new(seed, 0xa9b1);
        let center = bbox.center();
        let mut window = |half: f64, i: usize| {
            let (cx, cy) = if i % 4 == 0 {
                (
                    center.x + rng.range(-0.2, 0.2),
                    center.y + rng.range(-0.2, 0.2),
                )
            } else {
                (
                    rng.range(bbox.min.x + half, bbox.max.x - half),
                    rng.range(bbox.min.y + half, bbox.max.y - half),
                )
            };
            Envelope::new(
                Coord::new(cx - half, cy - half),
                Coord::new(cx + half, cy + half),
            )
        };
        let regions = (0..WINDOWS).map(|i| window(0.25, i)).collect();
        let windows = (0..WINDOWS).map(|i| window(0.5, i)).collect();
        Pools { regions, windows }
    }

    /// Instances in a class's pool.
    pub fn len(&self, class: Class) -> usize {
        match class {
            Class::Flagship => DAYS * DISTANCES.len(),
            Class::Region => self.regions.len(),
            Class::Bgp5 => CONFIDENCES.len(),
            Class::Discovery => DAYS,
            Class::FireMap => self.windows.len(),
            Class::Sql => 24,
        }
    }

    /// `(day, distance)` of a flagship instance.
    pub fn flagship(instance: usize) -> (String, f64) {
        (
            format!("2007-08-{:02}", 1 + instance % DAYS),
            DISTANCES[(instance / DAYS) % DISTANCES.len()],
        )
    }

    /// The query text of an stSPARQL or SQL request (`None` for the
    /// fire map, which is an API call).
    pub fn text(&self, request: Request) -> Option<String> {
        let Request { class, instance } = request;
        Some(match class {
            Class::Flagship => {
                let (day, dist) = Pools::flagship(instance);
                portal::flagship_query(archive::SATELLITE, &day, dist)
            }
            Class::Region => {
                let lit = geometry_literal_wgs84(&Geometry::Polygon(Polygon::from_envelope(&self.regions[instance])));
                format!(
                    "PREFIX noa: <{noa}>\nPREFIX strdf: <{strdf}>\n\
                     SELECT ?h ?img WHERE {{\n\
                       ?h a noa:Hotspot ; strdf:hasGeometry ?g .\n\
                       FILTER(strdf:intersects(?g, {lit}))\n\
                       ?h noa:isDerivedFrom ?img .\n\
                       ?img noa:isAcquiredBy <http://teleios.di.uoa.gr/satellites/{sat}> .\n\
                     }}",
                    noa = noa::NS,
                    strdf = strdf::NS,
                    sat = archive::SATELLITE,
                )
            }
            Class::Bgp5 => format!(
                "PREFIX noa: <{noa}>\n\
                 SELECT ?h ?img ?t WHERE {{\n\
                   ?img noa:hasAcquisitionTime ?t .\n\
                   ?img noa:isAcquiredBy <http://teleios.di.uoa.gr/satellites/{sat}> .\n\
                   ?h noa:isDerivedFrom ?img .\n\
                   ?h noa:hasConfidence ?c .\n\
                   ?img a noa:AnnotatedImage .\n\
                   FILTER(?c > {conf})\n\
                 }}",
                noa = noa::NS,
                sat = archive::SATELLITE,
                conf = CONFIDENCES[instance],
            ),
            Class::Discovery => {
                let day = format!("2007-08-{:02}", 1 + instance);
                format!(
                    "PREFIX noa: <{noa}>\n\
                     SELECT ?p ?t WHERE {{\n\
                       ?p a noa:RawImage ; noa:hasAcquisitionTime ?t .\n\
                       FILTER(STR(?t) >= \"{day}T00:00:00Z\" && STR(?t) < \"{day}T23:59:59Z\")\n\
                     }} ORDER BY ?t",
                    noa = noa::NS,
                )
            }
            Class::FireMap => return None,
            Class::Sql => format!(
                "SELECT day, COUNT(*) AS n, MAX(confidence) AS top FROM {} WHERE hour >= {instance} GROUP BY day",
                archive::PRODUCTS_TABLE
            ),
        })
    }
}

/// The seeded request schedule. Every run of `ops` requests holds each
/// class in exactly its share of the mix and walks each class's pool
/// round-robin from a seeded start, so the work in a window does not
/// depend on the luck of the draw; the seed decides the order.
pub fn schedule(seed: u64, ops: usize, pools: &Pools) -> Vec<Request> {
    let mut rng = SplitMix64::new(seed, 0x5c4e);
    let mut deck = Vec::with_capacity(ops);
    let mut dealt = 0;
    for (i, (class, share)) in MIX.iter().enumerate() {
        // The last class takes what rounding left over.
        let count = if i + 1 == MIX.len() {
            ops - dealt
        } else {
            ops * share / 100
        };
        dealt += count;
        let start = rng.below(pools.len(*class));
        deck.extend((0..count).map(|k| Request {
            class: *class,
            instance: (start + k) % pools.len(*class),
        }));
    }
    for i in (1..deck.len()).rev() {
        deck.swap(i, rng.below(i + 1));
    }
    deck
}

/// Digest of the query parameters a seed produces: the schedule plus
/// the text (or window) of every request in it.
pub fn parameter_digest(seed: u64, ops: usize, bbox: &Envelope) -> u64 {
    let pools = Pools::draw(seed, bbox);
    let mut fold = Fold::default();
    for request in schedule(seed, ops, &pools) {
        fold.num(request.instance as u64);
        match pools.text(request) {
            Some(text) => fold.text(&text),
            None => {
                let w = pools.windows[request.instance];
                fold.num(w.min.x.to_bits())
                    .num(w.min.y.to_bits())
                    .num(w.max.x.to_bits())
            }
        };
    }
    fold.0
}

/// Run one request and digest its answer.
pub fn answer<'t, E: Engine<'t>>(engine: &mut E, pools: &Pools, request: Request) -> Res<Answer> {
    match (request.class, pools.text(request)) {
        (Class::FireMap, _) | (_, None) => engine
            .fire_map(&pools.windows[request.instance])
            .map(|m| digest::of_fire_map(&m)),
        (Class::Sql, Some(sql)) => engine.sql(&sql).map(|rs| digest::of_result_set(&rs)),
        (_, Some(query)) => engine.search(&query).map(|s| digest::of_solutions(&s)),
    }
}

/// The flagship answer by nested loop over facts read from the triple
/// indexes: `(image, hotspot, site)` with the image acquired by the
/// satellite on `day` and the hotspot within `dist` of the site.
pub struct FlagshipOracle {
    hotspots: Vec<(Term, Term, String, Geometry)>,
    sites: Vec<(Term, Geometry)>,
}

impl FlagshipOracle {
    /// Read hotspots (with image and acquisition time) and sites.
    pub fn read(store: &TripleStore) -> FlagshipOracle {
        let type_p = Term::iri(rdf::TYPE);
        let geom_p = Term::iri(strdf::HAS_GEOMETRY);
        let geometries = |subject: &Term| {
            store
                .objects(subject, &geom_p)
                .into_iter()
                .filter_map(|lit| parse_geometry(&lit).ok().map(|(g, _)| g))
        };
        let satellite = Term::iri(format!(
            "http://teleios.di.uoa.gr/satellites/{}",
            archive::SATELLITE
        ));
        let mut hotspots = Vec::new();
        for h in store.subjects(&type_p, &Term::iri(noa::HOTSPOT)) {
            for img in store.objects(&h, &Term::iri(noa::IS_DERIVED_FROM)) {
                let raw = !store
                    .match_terms(Some(&img), Some(&type_p), Some(&Term::iri(noa::RAW_IMAGE)))
                    .is_empty();
                let ours = !store
                    .match_terms(
                        Some(&img),
                        Some(&Term::iri(noa::ACQUIRED_BY)),
                        Some(&satellite),
                    )
                    .is_empty();
                if !(raw && ours) {
                    continue;
                }
                for time in store.objects(&img, &Term::iri(noa::HAS_ACQUISITION_TIME)) {
                    let Some(time) = time.lexical().map(str::to_string) else {
                        continue;
                    };
                    for g in geometries(&h) {
                        hotspots.push((img.clone(), h.clone(), time.clone(), g));
                    }
                }
            }
        }
        let mut sites = Vec::new();
        for site in store.subjects(
            &type_p,
            &Term::iri("http://dbpedia.org/ontology/ArchaeologicalSite"),
        ) {
            for g in geometries(&site) {
                sites.push((site.clone(), g));
            }
        }
        FlagshipOracle { hotspots, sites }
    }

    /// The `SELECT DISTINCT ?img ?h ?site` answer for one instance.
    pub fn answer(&self, day: &str, dist: f64) -> Answer {
        let (from, to) = (format!("{day}T00:00:00Z"), format!("{day}T23:59:59Z"));
        let mut rows: Vec<[String; 3]> = Vec::new();
        for (img, h, time, hg) in &self.hotspots {
            if time.as_str() < from.as_str() || time.as_str() >= to.as_str() {
                continue;
            }
            for (site, sg) in &self.sites {
                if distance(hg, sg) < dist {
                    rows.push([img.to_string(), h.to_string(), site.to_string()]);
                }
            }
        }
        rows.sort();
        rows.dedup();
        let mut answer = Answer::default();
        for row in &rows {
            answer.push_row(row.iter().map(String::as_str));
        }
        answer
    }
}

/// The SQL aggregate computed from the generated rows: per day, the
/// count and the top confidence of products with `hour >= from_hour`.
pub fn sql_reference(rows: &[Vec<Value>], from_hour: i64) -> Answer {
    let mut by_day: BTreeMap<i64, (i64, f64)> = BTreeMap::new();
    for row in rows {
        if let [_, Value::Int(day), Value::Int(hour), Value::Double(confidence), ..] =
            row.as_slice()
        {
            if *hour >= from_hour {
                let slot = by_day.entry(*day).or_insert((0, f64::MIN));
                slot.0 += 1;
                slot.1 = slot.1.max(*confidence);
            }
        }
    }
    let mut answer = Answer::default();
    for (day, (n, top)) in by_day {
        let cells = [
            Value::Int(day).to_string(),
            Value::Int(n).to_string(),
            Value::Double(top).to_string(),
        ];
        answer.push_row(cells.iter().map(String::as_str));
    }
    answer
}

/// Compare a request's answer with its reference.
pub fn check(request: Request, got: Answer, expected: Option<&Answer>) -> Res<()> {
    let expected = expected.ok_or_else(|| format!("{request:?} has no reference answer"))?;
    ensure(got == *expected, || {
        format!(
            "{request:?}: {} rows (hash {:016x}), reference has {} rows (hash {:016x})",
            got.rows, got.hash, expected.rows, expected.hash
        )
    })
}

/// The workload state.
pub struct ArchiveQuery<'t, E: Engine<'t>> {
    engine: E,
    pools: Pools,
    reference: BTreeMap<Request, Answer>,
    _tracer: PhantomData<&'t Tracer>,
}

impl<'t, E: Engine<'t>> Workload<'t> for ArchiveQuery<'t, E> {
    fn setup(plan: Plan, tracer: &'t Tracer) -> Res<Self> {
        let sizes = sizes(plan.smoke);
        let world = WorldSpec {
            seed: plan.seed,
            num_sites: sizes.sites,
            num_places: sizes.places,
            coast_points: 96,
            ..WorldSpec::default()
        };
        let mut engine = E::create(world, tracer);
        let stores = engine.stores();
        let bbox = stores.world.spec.bbox;
        let rows = archive::build(
            sizes.products,
            &bbox,
            plan.seed,
            stores.strabon.store_mut(),
            stores.db,
        )?;
        let pools = Pools::draw(plan.seed, &bbox);

        let mut reference = BTreeMap::new();
        let oracle = FlagshipOracle::read(stores.strabon.store());
        for instance in 0..pools.len(Class::Flagship) {
            let (day, dist) = Pools::flagship(instance);
            reference.insert(
                Request {
                    class: Class::Flagship,
                    instance,
                },
                oracle.answer(&day, dist),
            );
        }
        for instance in 0..pools.len(Class::Sql) {
            reference.insert(
                Request {
                    class: Class::Sql,
                    instance,
                },
                sql_reference(&rows, instance as i64),
            );
        }
        // The other classes: same store, optimizer, spatial index and
        // parallelism off.
        let tuned = stores.strabon.config();
        stores.strabon.set_config(StrabonConfig {
            optimize_bgp: false,
            use_spatial_index: false,
            threads: 1,
            ..tuned
        });
        for class in [Class::Region, Class::Bgp5, Class::Discovery, Class::FireMap] {
            for instance in 0..pools.len(class) {
                let request = Request { class, instance };
                reference.insert(request, answer(&mut engine, &pools, request)?);
            }
        }
        engine.stores().strabon.set_config(tuned);

        // Warm-up: the first spatial request builds the sidecar.
        for class in [Class::Flagship, Class::Region, Class::FireMap] {
            answer(&mut engine, &pools, Request { class, instance: 0 })?;
        }
        Ok(ArchiveQuery {
            engine,
            pools,
            reference,
            _tracer: PhantomData,
        })
    }

    fn run(&mut self, plan: Plan, tracer: &'t Tracer) -> RunOutput {
        let mut out = RunOutput::default();
        let materialized = self.engine.stores().vault.stats().materializations;
        let mut result_rows = 0usize;
        let started = Instant::now();
        for (i, request) in schedule(plan.seed, plan.ops, &self.pools)
            .into_iter()
            .enumerate()
        {
            out.op(i, tracer, |out| {
                let (got, ms) = timed(|| answer(&mut self.engine, &self.pools, request));
                out.sample(request.class.series(), ms);
                let got = got?;
                result_rows += got.rows;
                out.digest.num(got.rows as u64).num(got.hash);
                check(request, got, self.reference.get(&request))
            });
        }
        out.close_window(started);

        let stores = self.engine.stores();
        out.count("strabon.result_rows", result_rows as f64);
        out.count(
            "vault.materializations",
            (stores.vault.stats().materializations - materialized) as f64,
        );
        out.count("rdf.triples", stores.strabon.len() as f64);
        out.count(
            "rdf.dict_terms",
            stores.strabon.store().dictionary().len() as f64,
        );
        out
    }

    fn triples(&mut self) -> Option<&TripleStore> {
        Some(self.engine.stores().strabon.store())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bbox() -> Envelope {
        Envelope::new(Coord::new(21.0, 36.0), Coord::new(24.0, 39.0))
    }

    #[test]
    fn same_seed_same_schedule_and_parameters_different_seed_differs() {
        let pools = Pools::draw(1, &bbox());
        assert_eq!(schedule(1, 300, &pools), schedule(1, 300, &pools));
        assert_ne!(schedule(1, 300, &pools), schedule(2, 300, &pools));
        assert_eq!(
            parameter_digest(1, 300, &bbox()),
            parameter_digest(1, 300, &bbox())
        );
        assert_ne!(
            parameter_digest(1, 300, &bbox()),
            parameter_digest(2, 300, &bbox())
        );
    }

    #[test]
    fn mix_shares_add_up_and_are_respected() {
        assert_eq!(MIX.iter().map(|(_, share)| share).sum::<usize>(), 100);
        let pools = Pools::draw(3, &bbox());
        for seed in [3, 4] {
            let plan = schedule(seed, 500, &pools);
            assert_eq!(plan.len(), 500);
            for (class, share) in MIX {
                let of_class: Vec<usize> = plan
                    .iter()
                    .filter(|r| r.class == class)
                    .map(|r| r.instance)
                    .collect();
                assert_eq!(
                    of_class.len(),
                    5 * share,
                    "{class:?} must hold exactly its share"
                );
                // Round-robin: no instance is asked twice more than another.
                let asked = |i: usize| of_class.iter().filter(|x| **x == i).count();
                let counts: Vec<usize> = (0..pools.len(class)).map(asked).collect();
                assert!(counts.iter().max().unwrap() - counts.iter().min().unwrap() <= 1);
            }
        }
        assert_eq!(schedule(3, 7, &pools).len(), 7);
    }

    #[test]
    fn checker_fails_a_dropped_row_and_a_changed_cell() {
        let request = Request {
            class: Class::Region,
            instance: 0,
        };
        let mut expected = Answer::default();
        expected.push_row(["<h1>", "<img1>"].into_iter());
        expected.push_row(["<h2>", "<img2>"].into_iter());
        assert!(check(request, expected, Some(&expected)).is_ok());
        let mut dropped = Answer::default();
        dropped.push_row(["<h1>", "<img1>"].into_iter());
        assert!(check(request, dropped, Some(&expected)).is_err());
        let mut changed = dropped;
        changed.push_row(["<h2>", "<img3>"].into_iter());
        assert!(check(request, changed, Some(&expected)).is_err());
        assert!(check(request, expected, None).is_err());
    }

    #[test]
    fn sql_reference_groups_by_day() {
        let row = |day, hour, c| {
            vec![
                Value::Int(0),
                Value::Int(day),
                Value::Int(hour),
                Value::Double(c),
                Value::Str("MSG2".into()),
            ]
        };
        let rows = vec![
            row(1, 3, 0.5),
            row(1, 9, 0.7),
            row(1, 12, 0.6),
            row(2, 1, 0.9),
        ];
        assert_eq!(sql_reference(&rows, 0).rows, 2);
        let late = sql_reference(&rows, 6);
        assert_eq!(late.rows, 1);
        let mut expected = Answer::default();
        expected.push_row(["1", "2", "0.7"].into_iter());
        assert_eq!(late, expected);
    }
}
