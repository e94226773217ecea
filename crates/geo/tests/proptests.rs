//! Property-based tests for the geometry substrate.

use teleios_geo::algorithm::area::{area, centroid};
use teleios_geo::algorithm::clip::{overlay, OverlayOp};
use teleios_geo::algorithm::convex_hull::convex_hull_coords;
use teleios_geo::algorithm::distance::{distance, within_distance};
use teleios_geo::algorithm::predicates::{contains, intersects, locate_point_in_ring, PointLocation};
use teleios_geo::coord::{Coord, Envelope};
use teleios_geo::geometry::{Geometry, LineString, Point, Polygon};
use teleios_geo::index::RTree;
use teleios_check::{forall, Gen};
use teleios_geo::wkt;

fn coord(g: &mut Gen) -> Coord {
    Coord::new(g.float(-100.0..100.0), g.float(-100.0..100.0))
}

/// A star-shaped (hence non-self-intersecting) ring around `center`.
fn star_ring(center: Coord, radii: &[f64]) -> LineString {
    let n = radii.len();
    let mut pts: Vec<Coord> = radii
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            let theta = (i as f64) * std::f64::consts::TAU / (n as f64);
            Coord::new(center.x + r * theta.cos(), center.y + r * theta.sin())
        })
        .collect();
    let first = pts[0];
    pts.push(first);
    LineString(pts)
}

/// A random simple polygon.
fn simple_polygon(g: &mut Gen) -> Polygon {
    let center = coord(g);
    let radii = g.vec(3..12, |g| g.float(0.5..20.0));
    let mut p = Polygon::new(star_ring(center, &radii), vec![]);
    p.normalize();
    p
}

#[test]
fn wkt_roundtrip_point() {
    forall(coord, |c| {
        let g = Geometry::Point(Point(c));
        let parsed = wkt::parse(&wkt::write(&g)).unwrap();
        let Geometry::Point(p) = parsed else { panic!("wrong type") };
        assert!((p.x() - c.x).abs() < 1e-9);
        assert!((p.y() - c.y).abs() < 1e-9);
    });
}

#[test]
fn wkt_roundtrip_polygon() {
    forall(simple_polygon, |poly| {
        let g = Geometry::Polygon(poly.clone());
        let parsed = wkt::parse(&wkt::write(&g)).unwrap();
        assert!((area(&parsed) - poly.area()).abs() < 1e-6);
        assert_eq!(parsed.num_coords(), g.num_coords());
    });
}

#[test]
fn polygon_area_nonnegative() {
    forall(simple_polygon, |poly| assert!(poly.area() >= 0.0));
}

#[test]
fn centroid_inside_envelope() {
    forall(simple_polygon, |poly| {
        let c = centroid(&Geometry::Polygon(poly.clone())).unwrap();
        let env = poly.envelope().buffer(1e-9);
        assert!(env.contains_coord(c));
    });
}

#[test]
fn star_polygon_contains_its_center() {
    forall(
        |g| (coord(g), g.vec(3..12, |g| g.float(1.0..20.0))),
        |(center, radii)| {
            let ring = star_ring(center, &radii);
            assert_eq!(locate_point_in_ring(center, &ring), PointLocation::Inside);
        },
    );
}

#[test]
fn distance_symmetric() {
    forall(
        |g| (coord(g), coord(g)),
        |(a, b)| {
            let ga = Geometry::Point(Point(a));
            let gb = Geometry::Point(Point(b));
            assert_eq!(distance(&ga, &gb), distance(&gb, &ga));
        },
    );
}

#[test]
fn distance_triangle_inequality() {
    forall(
        |g| (coord(g), coord(g), coord(g)),
        |(a, b, c)| {
            let (ga, gb, gc) = (
                Geometry::Point(Point(a)),
                Geometry::Point(Point(b)),
                Geometry::Point(Point(c)),
            );
            assert!(distance(&ga, &gc) <= distance(&ga, &gb) + distance(&gb, &gc) + 1e-9);
        },
    );
}

#[test]
fn within_distance_consistent_with_distance() {
    forall(
        |g| (simple_polygon(g), coord(g), g.float(0.1..50.0)),
        |(poly, c, d)| {
            let g = Geometry::Polygon(poly);
            let p = Geometry::Point(Point(c));
            let dist = distance(&g, &p);
            if dist <= d - 1e-9 {
                assert!(within_distance(&g, &p, d));
            }
            if dist > d + 1e-9 {
                assert!(!within_distance(&g, &p, d));
            }
        },
    );
}

#[test]
fn convex_hull_contains_all_points() {
    forall(
        |g| g.vec(3..40, coord),
        |pts| {
            if let Some(hull @ Geometry::Polygon(_)) = convex_hull_coords(&pts) {
                for &p in &pts {
                    assert!(
                        intersects(&hull, &Geometry::Point(Point(p))),
                        "hull must cover {p:?}"
                    );
                }
            }
        },
    );
}

fn intersection_bounded_by_inputs((a, b): (Polygon, Polygon)) {
    let inter = overlay(&a, &b, OverlayOp::Intersection).area();
    assert!(inter <= a.area() + 1e-4, "inter {} > |a| {}", inter, a.area());
    assert!(inter <= b.area() + 1e-4, "inter {} > |b| {}", inter, b.area());
}

#[test]
fn overlay_intersection_bounded_by_inputs() {
    forall(|g| (simple_polygon(g), simple_polygon(g)), intersection_bounded_by_inputs);
}

fn partition_conserves_subject_area((a, b): (Polygon, Polygon)) {
    let inter = overlay(&a, &b, OverlayOp::Intersection).area();
    let diff = overlay(&a, &b, OverlayOp::Difference).area();
    // |A| = |A ∩ B| + |A \ B| up to perturbation noise.
    assert!(
        (inter + diff - a.area()).abs() < 1e-3 * (1.0 + a.area()),
        "inter {} + diff {} != area {}",
        inter,
        diff,
        a.area()
    );
}

#[test]
fn overlay_partition_conserves_subject_area() {
    forall(|g| (simple_polygon(g), simple_polygon(g)), partition_conserves_subject_area);
}

fn union_inclusion_exclusion((a, b): (Polygon, Polygon)) {
    // |A ∪ B| = |A| + |B| − |A ∩ B| (up to perturbation noise).
    let union = overlay(&a, &b, OverlayOp::Union).area();
    let inter = overlay(&a, &b, OverlayOp::Intersection).area();
    let expect = a.area() + b.area() - inter;
    assert!(
        (union - expect).abs() < 1e-3 * (1.0 + expect),
        "union {} != {} (|A|={} |B|={} inter={})",
        union,
        expect,
        a.area(),
        b.area(),
        inter
    );
}

#[test]
fn overlay_union_inclusion_exclusion() {
    forall(|g| (simple_polygon(g), simple_polygon(g)), union_inclusion_exclusion);
}

/// The pair an earlier overlay once broke on: two slivers sharing a
/// near-collinear edge, where the perturbation fallback decides the
/// result. Kept as a fixed case of all three overlay properties.
#[test]
fn overlay_properties_hold_on_the_near_collinear_sliver_pair() {
    let polygon = |pts: &[(f64, f64)]| {
        Polygon::new(LineString(pts.iter().map(|&(x, y)| Coord::new(x, y)).collect()), vec![])
    };
    let a = polygon(&[
        (19.034443746112704, -47.555106369795496),
        (8.461001241367963, -42.645689183162325),
        (3.5515840547347937, -31.771301136922965),
        (3.198030664141519, -47.20155297920222),
        (3.0515840547347928, -47.555106369795496),
        (3.198030664141519, -47.90865976038877),
        (3.5515840547347928, -48.055106369795496),
        (3.9051374453280663, -47.90865976038877),
        (19.034443746112704, -47.555106369795496),
    ]);
    let b = polygon(&[
        (19.685527848766927, -45.410597109541676),
        (19.568550070326417, -45.08920330469841),
        (19.272351937600394, -44.91819323303557),
        (18.935527848766927, -44.97758440764946),
        (1.742337964493231, -39.06179520101273),
        (18.715681538373975, -45.58160718120451),
        (13.740684349616467, -54.84134268933137),
        (19.27235193760039, -45.90300098604778),
        (19.568550070326417, -45.731990914384944),
        (19.685527848766927, -45.410597109541676),
    ]);
    intersection_bounded_by_inputs((a.clone(), b.clone()));
    partition_conserves_subject_area((a.clone(), b.clone()));
    union_inclusion_exclusion((a, b));
}

#[test]
fn contains_implies_intersects() {
    forall(
        |g| (simple_polygon(g), coord(g)),
        |(a, c)| {
            let ga = Geometry::Polygon(a);
            let gp = Geometry::Point(Point(c));
            if contains(&ga, &gp) {
                assert!(intersects(&ga, &gp));
            }
        },
    );
}

/// A random geometry: each primitive kind and two multi kinds.
fn geometry(g: &mut Gen) -> Geometry {
    match g.below(5) {
        0 => Geometry::Point(Point(coord(g))),
        1 => Geometry::LineString(LineString(g.vec(2..6, coord))),
        2 => Geometry::Polygon(simple_polygon(g)),
        3 => Geometry::MultiPoint(g.vec(1..4, |g| Point(coord(g)))),
        _ => Geometry::MultiPolygon(vec![simple_polygon(g), simple_polygon(g)]),
    }
}

/// `intersects` against a rectangle answers without segment tests when
/// the other envelope lies inside it. The same region with a sixth
/// vertex halfway along its first edge is no rectangle to the
/// short-cut, so the full predicate answers it: the two must agree, for
/// windows around the geometry's envelope (touching it on the sides
/// whose margin is drawn zero) and for windows anywhere.
#[test]
fn rectangle_short_cut_agrees_with_the_full_predicate() {
    forall(
        |g| {
            let geom = geometry(g);
            let e = geom.envelope();
            let window = if g.bool() {
                let mut margin = || if g.bool() { 0.0 } else { g.float(0.0..10.0) };
                let min = Coord::new(e.min.x - margin(), e.min.y - margin());
                Envelope::new(min, Coord::new(e.max.x + margin(), e.max.y + margin()))
            } else {
                Envelope::new(coord(g), coord(g))
            };
            (geom, window)
        },
        |(geom, window)| {
            let rectangle = Polygon::from_envelope(&window);
            let mut coords = rectangle.exterior.coords().to_vec();
            coords.insert(1, coords[0].lerp(&coords[1], 0.5));
            let (rectangle, six) = (Geometry::Polygon(rectangle), Geometry::Polygon(Polygon::new(LineString(coords), vec![])));
            assert_eq!(intersects(&geom, &rectangle), intersects(&geom, &six), "{geom:?} in {window:?}");
            assert_eq!(intersects(&rectangle, &geom), intersects(&six, &geom), "{geom:?} in {window:?}");
            if window.contains_envelope(&geom.envelope()) {
                assert!(intersects(&geom, &rectangle), "{geom:?} in {window:?}");
            }
        },
    );
}

/// A coordinate on a coarse grid, so that edges often touch or run
/// along each other.
fn grid(g: &mut Gen) -> Coord {
    Coord::new(g.int(-4..5) as f64, g.int(-4..5) as f64)
}

/// A grid rectangle, one to three cells a side.
fn grid_rect(g: &mut Gen) -> Polygon {
    let min = grid(g);
    let max = Coord::new(min.x + g.int(1..4) as f64, min.y + g.int(1..4) as f64);
    Polygon::from_envelope(&Envelope::new(min, max))
}

/// A point, a line, a rectangle, a triangle, a rectangle with a
/// one-cell hole, or a multi of them, all on the grid.
fn grid_geometry(g: &mut Gen) -> Geometry {
    match g.below(7) {
        0 => Geometry::Point(Point(grid(g))),
        1 => Geometry::LineString(LineString(g.vec(2..5, grid))),
        2 => Geometry::Polygon(grid_rect(g)),
        3 => {
            let (a, b, c) = (grid(g), grid(g), grid(g));
            Geometry::Polygon(Polygon::new(LineString(vec![a, b, c, a]), vec![]))
        }
        4 => {
            let min = grid(g);
            let outer = Envelope::new(min, Coord::new(min.x + 3.0, min.y + 3.0));
            let hole = Envelope::new(
                Coord::new(min.x + 1.0, min.y + 1.0),
                Coord::new(min.x + 2.0, min.y + 2.0),
            );
            Geometry::Polygon(Polygon::new(
                Polygon::from_envelope(&outer).exterior,
                vec![Polygon::from_envelope(&hole).exterior],
            ))
        }
        5 => Geometry::MultiPolygon(vec![grid_rect(g), grid_rect(g)]),
        _ => Geometry::MultiPoint(g.vec(1..4, |g| Point(grid(g)))),
    }
}

/// The same point set with every polygon's exterior given a sixth
/// vertex halfway along its first edge: no rectangle to the fast path.
fn without_rectangles(geom: &Geometry) -> Geometry {
    let six = |p: &Polygon| {
        let mut coords = p.exterior.coords().to_vec();
        coords.insert(1, coords[0].lerp(&coords[1], 0.5));
        Polygon::new(LineString(coords), p.interiors.clone())
    };
    match geom {
        Geometry::Polygon(p) => Geometry::Polygon(six(p)),
        Geometry::MultiPolygon(ps) => Geometry::MultiPolygon(ps.iter().map(six).collect()),
        other => other.clone(),
    }
}

/// `intersects` with a rectangle on one side answers from envelopes and
/// vertices (two rectangles whose envelopes meet; a vertex in the
/// rectangle's envelope): on grid shapes, where edges touch and run
/// along each other and holes border the rectangle, it agrees with the
/// segment tests the same point sets without rectangles take.
#[test]
fn rectangle_fast_path_agrees_with_the_segment_path() {
    forall(
        |g| (grid_geometry(g), Geometry::Polygon(grid_rect(g))),
        |(geom, rectangle)| {
            let (geom6, rectangle6) = (without_rectangles(&geom), without_rectangles(&rectangle));
            assert_eq!(
                intersects(&geom, &rectangle),
                intersects(&geom6, &rectangle6),
                "{geom:?} × {rectangle:?}"
            );
            assert_eq!(
                intersects(&rectangle, &geom),
                intersects(&rectangle6, &geom6),
                "{rectangle:?} × {geom:?}"
            );
        },
    );
}

#[test]
fn rtree_query_matches_linear_scan() {
    forall(
        |g| {
            let items = g.vec(1..200, |g| (coord(g), g.float(0.1..5.0), g.float(0.1..5.0)));
            (items, coord(g), g.float(1.0..50.0))
        },
        |(items, qc, qw)| {
            let envs: Vec<(Envelope, usize)> = items
                .iter()
                .enumerate()
                .map(|(i, (c, w, h))| (Envelope::new(*c, Coord::new(c.x + w, c.y + h)), i))
                .collect();
            let tree = RTree::bulk_load(envs.clone());
            let q = Envelope::new(qc, Coord::new(qc.x + qw, qc.y + qw));
            let mut from_tree: Vec<usize> = tree.query(&q).into_iter().copied().collect();
            from_tree.sort_unstable();
            let mut from_scan: Vec<usize> = envs
                .iter()
                .filter(|(e, _)| e.intersects(&q))
                .map(|(_, i)| *i)
                .collect();
            from_scan.sort_unstable();
            assert_eq!(from_tree, from_scan);
        },
    );
}

#[test]
fn envelope_union_is_commutative_and_covers() {
    forall(
        |g| (coord(g), coord(g), coord(g), coord(g)),
        |(a, b, c, d)| {
            let e1 = Envelope::new(a, b);
            let e2 = Envelope::new(c, d);
            assert_eq!(e1.union(&e2), e2.union(&e1));
            let u = e1.union(&e2);
            assert!(u.contains_envelope(&e1));
            assert!(u.contains_envelope(&e2));
        },
    );
}

/// WKT fixtures: every geometry type, EMPTY, Z values, a CRS prefix.
const WKT_SEEDS: [&str; 7] = [
    "POINT (1e3 -2.5E-2)",
    "LINESTRING Z (0 0 5, 1 1 6)",
    "POLYGON ((35 10, 45 45, 15 40, 10 20, 35 10), (20 30, 35 35, 30 20, 20 30))",
    "MULTIPOINT ((10 40), (40 30)) ",
    "MULTILINESTRING ((10 10, 20 20), (40 40, 30 30, 40 20))",
    "MULTIPOLYGON (((30 20, 45 40, 10 40, 30 20)), ((15 5, 40 10, 10 20, 5 10, 15 5)))",
    "<http://www.opengis.net/def/crs/EPSG/0/3857> GEOMETRYCOLLECTION (POINT (4 6), GEOMETRYCOLLECTION EMPTY, LINESTRING (4 6, 7 10))",
];

#[test]
fn wkt_answers_every_mangled_geometry_with_ok_or_err() {
    for seed in WKT_SEEDS {
        wkt::parse_with_crs(seed).unwrap();
    }
    teleios_check::fuzz_text(&WKT_SEEDS, wkt::parse_with_crs);
}

#[test]
fn deeply_nested_collections_are_rejected_not_overflowed() {
    let bomb = "GEOMETRYCOLLECTION (".repeat(100_000);
    let parsed = std::thread::spawn(move || wkt::parse(&bomb).is_ok())
        .join()
        .expect("the parser returns instead of overflowing its stack");
    assert!(!parsed);
    let ok = format!("{}POINT (1 2){}", "GEOMETRYCOLLECTION (".repeat(60), ")".repeat(60));
    assert!(wkt::parse(&ok).is_ok());
}
