//! The synthetic world model: coastline, land cover, places, sites, roads.

use teleios_geo::{Coord, Envelope, SplitMix64};
use teleios_geo::geometry::{LineString, Polygon};

/// Land-cover classes (CORINE level-1-like).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoverClass {
    /// Forest and semi-natural areas.
    Forest,
    /// Agricultural areas.
    Agriculture,
    /// Artificial (urban) surfaces.
    Urban,
    /// Water bodies (sea).
    Water,
}

impl CoverClass {
    /// CORINE-like concept local name.
    pub(crate) fn concept(&self) -> &'static str {
        match self {
            CoverClass::Forest => "Forest",
            CoverClass::Agriculture => "Agriculture",
            CoverClass::Urban => "Urban",
            CoverClass::Water => "Water",
        }
    }
}

/// A populated place (GeoNames-like).
#[derive(Debug, Clone, PartialEq)]
pub struct Place {
    /// Name, e.g. `City-7`.
    pub name: String,
    /// Location.
    pub location: Coord,
    /// Population count.
    pub population: u32,
}

/// An archaeological site (DBpedia-like).
#[derive(Debug, Clone, PartialEq)]
pub struct Site {
    /// Name, e.g. `Temple-3`.
    pub name: String,
    /// Location.
    pub location: Coord,
}

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct WorldSpec {
    /// RNG seed: everything is reproducible from it.
    pub seed: u64,
    /// Geographic window (WGS 84 degrees).
    pub bbox: Envelope,
    /// Coastline vertex count (complexity knob for E7).
    pub coast_points: usize,
    /// Populated places to generate.
    pub num_places: usize,
    /// Archaeological sites to generate.
    pub num_sites: usize,
    /// Road polylines to generate.
    pub num_roads: usize,
    /// Land-cover grid resolution (cells per side).
    pub landcover_grid: usize,
}

impl Default for WorldSpec {
    fn default() -> Self {
        // A Peloponnese-like window.
        WorldSpec {
            seed: 42,
            bbox: Envelope::new(Coord::new(21.0, 36.0), Coord::new(24.0, 39.0)),
            coast_points: 48,
            num_places: 25,
            num_sites: 8,
            num_roads: 12,
            landcover_grid: 12,
        }
    }
}

/// The generated world.
#[derive(Debug, Clone)]
pub struct World {
    /// The parameters it was generated from.
    pub spec: WorldSpec,
    /// The landmass polygon (star-shaped around the window centre).
    pub land: Polygon,
    /// Star-shape radii table used for O(1) land tests.
    radii: Vec<f64>,
    /// Land-cover polygons with their classes (land cells only).
    pub landcover: Vec<(Polygon, CoverClass)>,
    /// Populated places (all on land).
    pub places: Vec<Place>,
    /// Archaeological sites (all on land).
    pub sites: Vec<Site>,
    /// Road polylines (endpoints at places).
    pub roads: Vec<LineString>,
}

impl World {
    /// Generate a world from a spec.
    pub fn generate(spec: WorldSpec) -> World {
        let mut rng = SplitMix64::new(spec.seed);
        let center = spec.bbox.center();
        let half_w = spec.bbox.width() / 2.0;
        let half_h = spec.bbox.height() / 2.0;

        // Star-shaped landmass: radius fraction per angle, smoothed so
        // neighbouring radii differ gently (a plausible coastline).
        let n = spec.coast_points.max(8);
        let mut radii: Vec<f64> = (0..n).map(|_| rng.range(0.45, 0.9)).collect();
        for _ in 0..2 {
            let prev = radii.clone();
            for i in 0..n {
                let a = prev[(i + n - 1) % n];
                let b = prev[i];
                let c = prev[(i + 1) % n];
                radii[i] = (a + 2.0 * b + c) / 4.0;
            }
        }
        let mut ring: Vec<Coord> = (0..n)
            .map(|i| {
                let theta = (i as f64) * std::f64::consts::TAU / (n as f64);
                Coord::new(
                    center.x + radii[i] * half_w * theta.cos(),
                    center.y + radii[i] * half_h * theta.sin(),
                )
            })
            .collect();
        let first = ring[0];
        ring.push(first);
        let mut land = Polygon::new(LineString(ring), vec![]);
        land.normalize();

        let mut world = World {
            spec: spec.clone(),
            land,
            radii,
            landcover: Vec::new(),
            places: Vec::new(),
            sites: Vec::new(),
            roads: Vec::new(),
        };

        // Land cover: grid cells whose centre is on land.
        let g = spec.landcover_grid.max(1);
        let cw = spec.bbox.width() / g as f64;
        let ch = spec.bbox.height() / g as f64;
        for gy in 0..g {
            for gx in 0..g {
                let min = Coord::new(
                    spec.bbox.min.x + gx as f64 * cw,
                    spec.bbox.min.y + gy as f64 * ch,
                );
                let cell = Envelope::new(min, Coord::new(min.x + cw, min.y + ch));
                if world.is_land(cell.center()) {
                    let roll = rng.unit();
                    let class = if roll < 0.5 {
                        CoverClass::Forest
                    } else if roll < 0.85 {
                        CoverClass::Agriculture
                    } else {
                        CoverClass::Urban
                    };
                    world.landcover.push((Polygon::from_envelope(&cell), class));
                }
            }
        }

        // Places and sites: rejection-sample points on land.
        let sample_land = |rng: &mut SplitMix64, world: &World| -> Coord {
            for _ in 0..1000 {
                let c = Coord::new(
                    rng.range(spec.bbox.min.x, spec.bbox.max.x),
                    rng.range(spec.bbox.min.y, spec.bbox.max.y),
                );
                if world.is_land(c) {
                    return c;
                }
            }
            center
        };
        for i in 0..spec.num_places {
            let location = sample_land(&mut rng, &world);
            world.places.push(Place {
                name: format!("City-{i}"),
                location,
                population: 500 + rng.below(499_500) as u32,
            });
        }
        for i in 0..spec.num_sites {
            let location = sample_land(&mut rng, &world);
            world.sites.push(Site { name: format!("Temple-{i}"), location });
        }

        // Roads: jittered polylines between random place pairs.
        if world.places.len() >= 2 {
            for _ in 0..spec.num_roads {
                let a = world.places[rng.below(world.places.len())].location;
                let b = world.places[rng.below(world.places.len())].location;
                let mid = a.lerp(&b, 0.5);
                let jitter = Coord::new(
                    mid.x + rng.range(-0.1, 0.1),
                    mid.y + rng.range(-0.1, 0.1),
                );
                world.roads.push(LineString(vec![a, jitter, b]));
            }
        }
        world
    }

    /// O(1) land test via the star-shape radius table.
    pub fn is_land(&self, c: Coord) -> bool {
        let center = self.spec.bbox.center();
        let half_w = self.spec.bbox.width() / 2.0;
        let half_h = self.spec.bbox.height() / 2.0;
        if half_w <= 0.0 || half_h <= 0.0 {
            return false;
        }
        // Normalize to the unit aspect so angles match generation.
        let dx = (c.x - center.x) / half_w;
        let dy = (c.y - center.y) / half_h;
        let r = dx.hypot(dy);
        let theta = dy.atan2(dx).rem_euclid(std::f64::consts::TAU);
        let n = self.radii.len() as f64;
        let pos = theta / std::f64::consts::TAU * n;
        let i = pos.floor() as usize % self.radii.len();
        let j = (i + 1) % self.radii.len();
        let t = pos.fract();
        let boundary = self.radii[i] * (1.0 - t) + self.radii[j] * t;
        r <= boundary
    }

    /// Land-cover class at a coordinate (Water when off land).
    pub fn cover_at(&self, c: Coord) -> CoverClass {
        if !self.is_land(c) {
            return CoverClass::Water;
        }
        let spec = &self.spec;
        let g = spec.landcover_grid.max(1);
        let gx = (((c.x - spec.bbox.min.x) / spec.bbox.width()) * g as f64).floor() as i64;
        let gy = (((c.y - spec.bbox.min.y) / spec.bbox.height()) * g as f64).floor() as i64;
        if gx < 0 || gy < 0 || gx >= g as i64 || gy >= g as i64 {
            return CoverClass::Water;
        }
        // Find the cell polygon covering the point (cells are only stored
        // for land cells; coastline cells may be missing — treat those as
        // Forest, the majority class).
        let cw = spec.bbox.width() / g as f64;
        let target_min_x = spec.bbox.min.x + gx as f64 * cw;
        self.landcover
            .iter()
            .find(|(p, _)| {
                let e = p.envelope();
                (e.min.x - target_min_x).abs() < cw * 0.01 && e.contains_coord(c)
            })
            .map(|(_, k)| *k)
            .unwrap_or(CoverClass::Forest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teleios_geo::algorithm::predicates::polygon_covers_coord;

    #[test]
    fn generation_is_deterministic() {
        let a = World::generate(WorldSpec::default());
        let b = World::generate(WorldSpec::default());
        assert_eq!(a.land, b.land);
        assert_eq!(a.places, b.places);
        assert_eq!(a.sites, b.sites);
        assert_eq!(a.landcover.len(), b.landcover.len());
    }

    /// Seed 1 names this world in every build (FNV-1a over every
    /// generated number). E0's frozen digests rest on it.
    #[test]
    fn seed_1_world_is_pinned() {
        let w = World::generate(WorldSpec { seed: 1, ..WorldSpec::default() });
        let mut values: Vec<f64> = Vec::new();
        let mut coords = |cs: &[Coord]| cs.iter().for_each(|c| values.extend([c.x, c.y]));
        coords(w.land.exterior.coords());
        for (cell, class) in &w.landcover {
            coords(&[cell.exterior.coords()[0], Coord::new(*class as u8 as f64, 0.0)]);
        }
        for p in &w.places {
            coords(&[p.location, Coord::new(p.population as f64, 0.0)]);
        }
        for s in &w.sites {
            coords(&[s.location]);
        }
        for r in &w.roads {
            coords(r.coords());
        }
        assert_eq!(values.len(), 498);
        let digest = values.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(digest, 0x04c4_05bf_9b7f_dea0);
    }

    #[test]
    fn different_seeds_differ() {
        let a = World::generate(WorldSpec::default());
        let b = World::generate(WorldSpec { seed: 7, ..WorldSpec::default() });
        assert_ne!(a.land, b.land);
    }

    #[test]
    fn counts_match_spec() {
        let w = World::generate(WorldSpec::default());
        assert_eq!(w.places.len(), 25);
        assert_eq!(w.sites.len(), 8);
        assert_eq!(w.roads.len(), 12);
        assert!(!w.landcover.is_empty());
    }

    #[test]
    fn land_test_agrees_with_polygon() {
        let w = World::generate(WorldSpec::default());
        // The analytic star test and the polygon test agree away from the
        // boundary (sample interior and exterior representatives).
        let center = w.spec.bbox.center();
        assert!(w.is_land(center));
        assert!(polygon_covers_coord(&w.land, center));
        let corner = w.spec.bbox.min;
        assert!(!w.is_land(corner));
        assert!(!polygon_covers_coord(&w.land, corner));
    }

    #[test]
    fn places_and_sites_are_on_land() {
        let w = World::generate(WorldSpec::default());
        for p in &w.places {
            assert!(w.is_land(p.location), "{} off land", p.name);
        }
        for s in &w.sites {
            assert!(w.is_land(s.location), "{} off land", s.name);
        }
    }

    #[test]
    fn cover_is_water_off_land() {
        let w = World::generate(WorldSpec::default());
        assert_eq!(w.cover_at(w.spec.bbox.min), CoverClass::Water);
        let c = w.spec.bbox.center();
        assert_ne!(w.cover_at(c), CoverClass::Water);
    }

    #[test]
    fn landcover_cells_are_on_land() {
        let w = World::generate(WorldSpec::default());
        for (p, k) in &w.landcover {
            assert_ne!(*k, CoverClass::Water);
            assert!(w.is_land(p.envelope().center()));
        }
    }

    #[test]
    fn land_polygon_is_valid() {
        let w = World::generate(WorldSpec::default());
        assert!(teleios_geo::Geometry::Polygon(w.land.clone()).validate().is_ok());
        assert!(w.land.exterior.is_ccw());
    }

    #[test]
    fn coast_complexity_respected() {
        let w = World::generate(WorldSpec { coast_points: 100, ..WorldSpec::default() });
        assert_eq!(w.land.exterior.len(), 101); // closed ring
    }
}
