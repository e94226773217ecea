#![forbid(unsafe_code)]
//! Shared fixtures for the TELEIOS experiment suite.
//!
//! The five timing harnesses (`src/bin/exp_*.rs`: E1, E3, E4, E6, E11)
//! and the paper-claim tests under the repository's `tests/` build
//! their workloads through the generators here, so a printed timing
//! and an asserted verdict measure the same archive.

pub mod report;

use teleios_geo::{Coord, Envelope, SplitMix64};
use teleios_ingest::seviri::{self, FireEvent, Scene, SceneSpec, SurfaceKind};
use teleios_rdf::strdf::geometry_literal_wgs84;
use teleios_rdf::term::Term;
use teleios_rdf::vocab::{noa, rdf, strdf};
use teleios_strabon::{Strabon, StrabonConfig};

/// The benchmark world window (Peloponnese-like).
pub fn bench_bbox() -> Envelope {
    Envelope::new(Coord::new(21.0, 36.0), Coord::new(24.0, 39.0))
}

/// A simple half-land / half-sea surface for scene generation, avoiding
/// the full world model so scene cost is dominated by the raster size.
pub fn bench_surface(c: Coord) -> SurfaceKind {
    if c.x < 22.8 {
        SurfaceKind::Forest
    } else {
        SurfaceKind::Sea
    }
}

/// A deterministic fire scene at the given raster size.
#[expect(clippy::expect_used, reason = "bench fixture; a malformed spec is a programmer error")]
pub fn fire_scene(size: usize, seed: u64) -> Scene {
    let mut spec = SceneSpec::new(seed, size, size, bench_bbox());
    spec.cloud_cover = 0.02;
    spec.glint_rate = 0.01;
    spec.fires.push(FireEvent {
        center: Coord::new(21.8, 37.5),
        radius: 0.09,
        intensity: 0.9,
    });
    spec.fires.push(FireEvent {
        center: Coord::new(22.2, 38.1),
        radius: 0.06,
        intensity: 0.7,
    });
    seviri::generate(&spec, &bench_surface).expect("scene generation")
}

/// Build a Strabon archive of `n_products` raw images, each with one
/// hotspot, plus `n_sites` archaeological sites — the E3/E4 workload.
///
/// Products are spread uniformly over the window; every 10th hotspot sits
/// inside the "query region" (the window's central 10%), so the flagship
/// query has stable selectivity across scales.
pub fn build_archive(n_products: usize, n_sites: usize, config: StrabonConfig) -> Strabon {
    build_archive_ratio(n_products, n_products, n_sites, config)
}

/// [`build_archive`] with `n_hotspots` hotspots instead of one per
/// image: hotspot `j` is derived from image `j % n_images` and lies
/// around its footprint, so the hotspot:image ratio is free (E3's
/// ratio sweep). At one hotspot per image it is `build_archive`'s
/// archive, triple for triple.
pub fn build_archive_ratio(n_images: usize, n_hotspots: usize, n_sites: usize, config: StrabonConfig) -> Strabon {
    let mut db = Strabon::with_config(config);
    let mut rng = SplitMix64::new(7);
    let bbox = bench_bbox();
    let type_p = Term::iri(rdf::TYPE);
    let geom_p = Term::iri(strdf::HAS_GEOMETRY);
    let time_p = Term::iri(noa::HAS_ACQUISITION_TIME);
    let sat_p = Term::iri(noa::ACQUIRED_BY);
    let derived_p = Term::iri(noa::IS_DERIVED_FROM);
    let conf_p = Term::iri(noa::HAS_CONFIDENCE);
    let sat = Term::iri("http://teleios.di.uoa.gr/satellites/MSG2");
    let center = bbox.center();

    for i in 0..n_images {
        let img = Term::iri(format!("http://teleios.di.uoa.gr/products/scene_{i:06}"));
        db.insert(&img, &type_p, &Term::iri(noa::RAW_IMAGE));
        db.insert(&img, &sat_p, &sat);
        db.insert(
            &img,
            &time_p,
            &Term::date_time(format!(
                "2007-08-{:02}T{:02}:00:00Z",
                1 + (i / 24) % 28,
                i % 24
            )),
        );
        // Footprint: a small box around a pseudo-random position; every
        // 10th product sits at the window centre.
        let (cx, cy) = if i % 10 == 0 {
            (
                center.x + rng.range(-0.15, 0.15),
                center.y + rng.range(-0.15, 0.15),
            )
        } else {
            (
                rng.range(bbox.min.x, bbox.max.x),
                rng.range(bbox.min.y, bbox.max.y),
            )
        };
        let fp = Envelope::new(Coord::new(cx - 0.2, cy - 0.2), Coord::new(cx + 0.2, cy + 0.2));
        db.insert(
            &img,
            &geom_p,
            &geometry_literal_wgs84(&teleios_geo::Geometry::Polygon(
                teleios_geo::geometry::Polygon::from_envelope(&fp),
            )),
        );
        // Each hotspot a detailed dissolved polygon (a 32-vertex
        // blob), as the shapefile module produces — the vertex count is
        // what makes exact spatial predicates cost something relative
        // to an envelope pre-filter.
        for k in 0..(n_hotspots + n_images - 1 - i) / n_images {
            let h = Term::iri(format!("http://teleios.di.uoa.gr/products/scene_{i:06}/hotspot/{k}"));
            db.insert(&h, &type_p, &Term::iri(noa::HOTSPOT));
            db.insert(&h, &derived_p, &img);
            db.insert(&h, &conf_p, &Term::double(rng.range(0.3, 1.0)));
            let blob = blob_polygon(Coord::new(cx, cy), 0.05, 32, &mut rng);
            db.insert(
                &h,
                &geom_p,
                &geometry_literal_wgs84(&teleios_geo::Geometry::Polygon(blob)),
            );
        }
        // Every 100th product carries a rare annotation class — the
        // selective pattern the E4 optimizer experiment pivots on.
        if i % 100 == 0 {
            db.insert(
                &img,
                &type_p,
                &Term::iri(format!("{}AnnotatedImage", noa::NS)),
            );
        }
    }
    for s in 0..n_sites {
        let site = Term::iri(format!("http://dbpedia.org/resource/BenchSite_{s}"));
        db.insert(
            &site,
            &type_p,
            &Term::iri("http://dbpedia.org/ontology/ArchaeologicalSite"),
        );
        let c = Coord::new(
            center.x + rng.range(-0.3, 0.3),
            center.y + rng.range(-0.3, 0.3),
        );
        db.insert(
            &site,
            &geom_p,
            &geometry_literal_wgs84(&teleios_geo::Geometry::Point(
                teleios_geo::geometry::Point(c),
            )),
        );
    }
    db
}

/// A star-shaped blob polygon with `n` vertices (stands in for a
/// dissolved hotspot shapefile geometry).
pub fn blob_polygon(
    center: Coord,
    radius: f64,
    n: usize,
    rng: &mut SplitMix64,
) -> teleios_geo::geometry::Polygon {
    let mut pts: Vec<Coord> = (0..n)
        .map(|i| {
            let theta = (i as f64) * std::f64::consts::TAU / (n as f64);
            let r = radius * rng.range(0.6, 1.0);
            Coord::new(center.x + r * theta.cos(), center.y + r * theta.sin())
        })
        .collect();
    let first = pts[0];
    pts.push(first);
    let mut poly =
        teleios_geo::geometry::Polygon::new(teleios_geo::geometry::LineString(pts), vec![]);
    poly.normalize();
    poly
}

/// The E3 spatial query: hotspot geometries intersecting the central
/// query region, then joined with their acquiring image. The FILTER is
/// written right after the geometry pattern (filter-early form), so the
/// spatial pre-filter can shrink the join input.
pub fn spatial_region_query() -> String {
    let bbox = bench_bbox();
    let c = bbox.center();
    let region = Envelope::new(
        Coord::new(c.x - 0.25, c.y - 0.25),
        Coord::new(c.x + 0.25, c.y + 0.25),
    );
    let lit = geometry_literal_wgs84(&teleios_geo::Geometry::Polygon(
        teleios_geo::geometry::Polygon::from_envelope(&region),
    ));
    format!(
        "PREFIX noa: <{noa}>\nPREFIX strdf: <{strdf}>\n\
         SELECT ?h ?img WHERE {{\n\
           ?h a noa:Hotspot ; strdf:hasGeometry ?g .\n\
           FILTER(strdf:intersects(?g, {lit}))\n\
           ?h noa:isDerivedFrom ?img .\n\
           ?img noa:isAcquiredBy <http://teleios.di.uoa.gr/satellites/MSG2> .\n\
         }}",
        noa = noa::NS,
        strdf = strdf::NS,
    )
}

/// The E4 non-spatial BGP: five patterns where the *syntactic* order
/// starts from the most unselective pattern (every product has an
/// acquisition time) while a rare class (`noa:AnnotatedImage`, 1% of
/// products) makes one pattern highly selective — the join-order
/// optimizer must find it.
pub fn bgp_query() -> String {
    format!(
        "PREFIX noa: <{noa}>\n\
         SELECT ?h ?img ?t WHERE {{\n\
           ?img noa:hasAcquisitionTime ?t .\n\
           ?img noa:isAcquiredBy <http://teleios.di.uoa.gr/satellites/MSG2> .\n\
           ?h noa:isDerivedFrom ?img .\n\
           ?h noa:hasConfidence ?c .\n\
           ?img a noa:AnnotatedImage .\n\
           FILTER(?c > 0.5)\n\
         }}",
        noa = noa::NS,
    )
}

/// Format a duration in adaptive units for experiment tables.
pub fn fmt_duration(d: std::time::Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us < 1000.0 {
        format!("{us:.0} µs")
    } else if us < 1_000_000.0 {
        format!("{:.2} ms", us / 1000.0)
    } else {
        format!("{:.3} s", us / 1e6)
    }
}

/// Time a closure averaged over `n` runs.
pub fn time_avg(n: usize, mut f: impl FnMut()) -> std::time::Duration {
    let t0 = std::time::Instant::now();
    for _ in 0..n {
        f();
    }
    t0.elapsed() / n as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn archive_builder_scales() {
        let db = build_archive(50, 5, StrabonConfig::default());
        // 8 triples per product, 2 per site, plus the rare class on
        // every 100th product (here: product 0 only).
        assert_eq!(db.len(), 50 * 8 + 5 * 2 + 1);
    }

    #[test]
    fn spatial_query_selectivity_stable() {
        for n in [100usize, 400] {
            let mut db = build_archive(n, 5, StrabonConfig::default());
            let hits = db.query(&spatial_region_query()).unwrap().len();
            // Every 10th product sits near the centre; the region catches
            // most of them (positions are randomly jittered ±0.15 within
            // a ±0.25 window).
            assert!(
                hits >= n / 20 && hits <= n / 5,
                "unexpected selectivity: {hits}/{n}"
            );
        }
    }

    #[test]
    fn bgp_query_runs_both_configs() {
        let q = bgp_query();
        let mut fast = build_archive(100, 0, StrabonConfig::default());
        let mut slow = build_archive(
            100,
            0,
            StrabonConfig { rdfs_inference: false, optimize_bgp: false, use_spatial_index: false, ..StrabonConfig::default() },
        );
        assert_eq!(fast.query(&q).unwrap().len(), slow.query(&q).unwrap().len());
    }

    #[test]
    fn scene_fixture_has_fires() {
        let s = fire_scene(64, 1);
        assert!(s.truth.sum() > 0.0);
    }

    #[test]
    fn formatting() {
        assert!(fmt_duration(std::time::Duration::from_micros(50)).contains("µs"));
        assert!(fmt_duration(std::time::Duration::from_millis(5)).contains("ms"));
        assert!(fmt_duration(std::time::Duration::from_secs(2)).contains("s"));
    }
}
