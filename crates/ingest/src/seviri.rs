//! Synthetic MSG/SEVIRI scene generation.
//!
//! The paper's feed — Meteosat Second Generation SEVIRI imagery received
//! by NOA — is proprietary; this generator produces scenes with the
//! properties the fire-monitoring demo depends on:
//!
//! * three spectral bands: `VIS006` reflectance, `IR_039` (3.9 µm, the
//!   fire-sensitive channel) and `IR_108` (10.8 µm) brightness
//!   temperatures in kelvin,
//! * land/sea/land-cover-dependent ambient temperatures,
//! * planted fire events with Gaussian thermal footprints,
//! * sensor noise, cold cloud blobs, and — crucially for demo
//!   scenario 2 — sporadic warm **sun-glint artifacts over the sea**,
//!   which threshold classifiers misdetect as hotspots because of the
//!   sensor's low spatial resolution; the stSPARQL refinement step then
//!   removes them using coastline linked data.
//!
//! Everything is reproducible from the spec's seed.

use crate::raster::{GeoRaster, GeoTransform};
use teleios_geo::{Coord, Envelope, SplitMix64};
use teleios_monet::array::{Dim, NdArray};
use teleios_monet::Result;

/// Index of the visible band in generated scenes.
pub const BAND_VIS006: usize = 0;
/// Index of the 3.9 µm fire-detection band.
pub const BAND_IR039: usize = 1;
/// Index of the 10.8 µm thermal band.
pub const BAND_IR108: usize = 2;

/// What the ground looks like at a coordinate (supplied by the caller;
/// `teleios-noa` adapts the synthetic world model of `teleios-linked`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurfaceKind {
    /// Open sea.
    Sea,
    /// Forest / semi-natural.
    Forest,
    /// Agricultural land.
    Agriculture,
    /// Urban fabric.
    Urban,
}

impl SurfaceKind {
    /// Ambient 3.9 µm brightness temperature (K) for the surface.
    pub fn ambient_k(&self) -> f64 {
        match self {
            SurfaceKind::Sea => 293.0,
            SurfaceKind::Forest => 301.0,
            SurfaceKind::Agriculture => 305.0,
            SurfaceKind::Urban => 308.0,
        }
    }

    /// Typical VIS006 reflectance.
    pub fn reflectance(&self) -> f64 {
        match self {
            SurfaceKind::Sea => 0.05,
            SurfaceKind::Forest => 0.15,
            SurfaceKind::Agriculture => 0.25,
            SurfaceKind::Urban => 0.35,
        }
    }
}

/// A planted fire event (ground truth).
#[derive(Debug, Clone, PartialEq)]
pub struct FireEvent {
    /// Fire-front centre (lon/lat degrees).
    pub center: Coord,
    /// Thermal footprint radius in degrees.
    pub radius: f64,
    /// Intensity in `(0, 1]`: peak ΔT = intensity × 90 K on IR_039.
    pub intensity: f64,
}

/// Scene-generation parameters.
#[derive(Debug, Clone)]
pub struct SceneSpec {
    /// RNG seed.
    pub seed: u64,
    /// Raster rows.
    pub rows: usize,
    /// Raster columns.
    pub cols: usize,
    /// Geographic window.
    pub bbox: Envelope,
    /// Acquisition instant (ISO-8601).
    pub acquisition: String,
    /// Satellite identifier, e.g. `MSG2`.
    pub satellite: String,
    /// Planted fires.
    pub fires: Vec<FireEvent>,
    /// Fraction of pixels under cold cloud blobs (0–1).
    pub cloud_cover: f64,
    /// Per-sea-pixel probability of a warm glint artifact.
    pub glint_rate: f64,
}

impl SceneSpec {
    /// A reasonable default over the given window.
    pub fn new(seed: u64, rows: usize, cols: usize, bbox: Envelope) -> SceneSpec {
        SceneSpec {
            seed,
            rows,
            cols,
            bbox,
            acquisition: "2007-08-25T12:00:00Z".into(),
            satellite: "MSG2".into(),
            fires: Vec::new(),
            cloud_cover: 0.05,
            glint_rate: 0.01,
        }
    }
}

/// A generated scene: the raster plus the ground-truth fire mask
/// (1.0 where a pixel genuinely burns), used to score classifiers (E2).
#[derive(Debug, Clone)]
pub struct Scene {
    /// The synthetic SEVIRI raster (3 bands).
    pub raster: GeoRaster,
    /// Ground-truth fire mask, dims (y, x).
    pub truth: NdArray,
}

/// Generate a scene over the given surface model.
pub fn generate(spec: &SceneSpec, surface: &dyn Fn(Coord) -> SurfaceKind) -> Result<Scene> {
    let mut rng = SplitMix64::new(spec.seed);
    let geo = GeoTransform::fit(&spec.bbox, spec.rows, spec.cols);
    let (rows, cols) = (spec.rows, spec.cols);

    let mut vis = vec![0.0f64; rows * cols];
    let mut ir039 = vec![0.0f64; rows * cols];
    let mut ir108 = vec![0.0f64; rows * cols];
    let mut truth = vec![0.0f64; rows * cols];

    // Cloud blobs: pick centres until the requested cover is reached.
    let mut cloud = vec![false; rows * cols];
    let target_cloudy = ((rows * cols) as f64 * spec.cloud_cover) as usize;
    let mut cloudy = 0usize;
    while cloudy < target_cloudy {
        let cr = rng.below(rows) as i64;
        let cc = rng.below(cols) as i64;
        let radius = 2 + rng.below((rows.max(cols) / 6).max(3) - 2) as i64;
        for r in (cr - radius).max(0)..(cr + radius).min(rows as i64) {
            for c in (cc - radius).max(0)..(cc + radius).min(cols as i64) {
                let dr = r - cr;
                let dc = c - cc;
                if dr * dr + dc * dc <= radius * radius {
                    let idx = (r * cols as i64 + c) as usize;
                    if !cloud[idx] {
                        cloud[idx] = true;
                        cloudy += 1;
                    }
                }
            }
        }
    }

    for r in 0..rows {
        for c in 0..cols {
            let idx = r * cols + c;
            let center = geo.pixel_center(r, c);
            let kind = surface(center);

            // Ambient signal plus sensor noise (~±1 K uniform).
            let noise = |rng: &mut SplitMix64| rng.range(-1.0, 1.0);
            let mut t39 = kind.ambient_k() + noise(&mut rng);
            let mut t108 = kind.ambient_k() - 3.0 + noise(&mut rng);
            let mut refl = kind.reflectance() + rng.range(-0.02, 0.02);

            // Fire contributions (Gaussian falloff; IR_039 dominates).
            for fire in &spec.fires {
                let d = center.distance(&fire.center);
                if d < fire.radius * 3.0 {
                    let fall = (-0.5 * (d / fire.radius).powi(2)).exp();
                    let boost = fire.intensity * 90.0 * fall;
                    // Fires only heat land pixels.
                    if kind != SurfaceKind::Sea {
                        t39 += boost;
                        t108 += boost * 0.25;
                        if boost > 20.0 {
                            truth[idx] = 1.0;
                        }
                    }
                }
            }

            // Sun-glint artifacts: warm anomalies over the sea.
            if kind == SurfaceKind::Sea && rng.chance(spec.glint_rate) {
                t39 += rng.range(22.0, 45.0);
            }

            // Clouds occlude: cold tops, bright in VIS.
            if cloud[idx] {
                t39 = 265.0 + noise(&mut rng) * 3.0;
                t108 = 260.0 + noise(&mut rng) * 3.0;
                refl = 0.7 + rng.range(-0.05, 0.05);
                truth[idx] = 0.0; // a cloud-occluded fire is undetectable
            }

            vis[idx] = refl.clamp(0.0, 1.0);
            ir039[idx] = t39;
            ir108[idx] = t108;
        }
    }

    let mut data = Vec::with_capacity(rows * cols * 3);
    data.extend_from_slice(&vis);
    data.extend_from_slice(&ir039);
    data.extend_from_slice(&ir108);
    let array = NdArray::from_vec(
        vec![Dim::new("band", 3), Dim::new("y", rows), Dim::new("x", cols)],
        data,
    )?;
    let raster = GeoRaster::new(array, geo, spec.acquisition.clone(), spec.satellite.clone())?;
    let truth = NdArray::from_vec(vec![Dim::new("y", rows), Dim::new("x", cols)], truth)?;
    Ok(Scene { raster, truth })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bbox() -> Envelope {
        Envelope::new(Coord::new(21.0, 36.0), Coord::new(24.0, 39.0))
    }

    /// Left half land (forest), right half sea.
    fn surface(c: Coord) -> SurfaceKind {
        if c.x < 22.5 {
            SurfaceKind::Forest
        } else {
            SurfaceKind::Sea
        }
    }

    fn base_spec() -> SceneSpec {
        let mut s = SceneSpec::new(7, 64, 64, bbox());
        s.cloud_cover = 0.0;
        s.glint_rate = 0.0;
        s
    }

    #[test]
    fn deterministic() {
        let spec = base_spec();
        let a = generate(&spec, &surface).unwrap();
        let b = generate(&spec, &surface).unwrap();
        assert_eq!(a.raster.data, b.raster.data);
        assert_eq!(a.truth, b.truth);
    }

    /// Seed 1 names this scene in every build: clouds draw `below`,
    /// glints `chance`, noise `range`. E0's frozen digests rest on it.
    #[test]
    fn seed_1_scene_is_pinned() {
        let mut spec = SceneSpec::new(1, 16, 16, bbox());
        spec.glint_rate = 0.2;
        spec.fires.push(FireEvent { center: Coord::new(21.7, 37.5), radius: 0.2, intensity: 0.9 });
        let scene = generate(&spec, &surface).unwrap();
        let bytes: Vec<u8> = (scene.raster.data.data().iter())
            .chain(scene.truth.data())
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        assert_eq!(teleios_store::codec::checksum(&bytes), 0x0a3d_c15e_de81_f558);
    }

    #[test]
    fn shapes_and_metadata() {
        let s = generate(&base_spec(), &surface).unwrap();
        assert_eq!(s.raster.bands(), 3);
        assert_eq!(s.raster.rows(), 64);
        assert_eq!(s.raster.cols(), 64);
        assert_eq!(s.raster.satellite, "MSG2");
        assert_eq!(s.truth.shape(), vec![64, 64]);
    }

    #[test]
    fn ambient_temperatures_differ_by_surface() {
        let s = generate(&base_spec(), &surface).unwrap();
        // Land pixel (left) vs sea pixel (right) on IR_039.
        let land = s.raster.get(BAND_IR039, 32, 5).unwrap();
        let sea = s.raster.get(BAND_IR039, 32, 60).unwrap();
        assert!(land > sea, "land {land} K should exceed sea {sea} K");
        assert!((land - 301.0).abs() < 3.0);
        assert!((sea - 293.0).abs() < 3.0);
    }

    #[test]
    fn fires_heat_pixels_and_set_truth() {
        let mut spec = base_spec();
        spec.fires.push(FireEvent {
            center: Coord::new(21.7, 37.5),
            radius: 0.08,
            intensity: 0.9,
        });
        let s = generate(&spec, &surface).unwrap();
        let (r, c) = s.raster.geo.locate(Coord::new(21.7, 37.5), 64, 64).unwrap();
        let t = s.raster.get(BAND_IR039, r, c).unwrap();
        assert!(t > 350.0, "fire core was only {t} K");
        assert_eq!(s.truth.get(&[r, c]).unwrap(), 1.0);
        assert!(s.truth.sum() > 0.0);
    }

    #[test]
    fn fires_do_not_heat_sea() {
        let mut spec = base_spec();
        spec.fires.push(FireEvent {
            center: Coord::new(23.5, 37.5), // over sea
            radius: 0.08,
            intensity: 0.9,
        });
        let s = generate(&spec, &surface).unwrap();
        assert_eq!(s.truth.sum(), 0.0);
        let (r, c) = s.raster.geo.locate(Coord::new(23.5, 37.5), 64, 64).unwrap();
        assert!(s.raster.get(BAND_IR039, r, c).unwrap() < 300.0);
    }

    #[test]
    fn glint_produces_warm_sea_pixels() {
        let mut spec = base_spec();
        spec.glint_rate = 0.05;
        let s = generate(&spec, &surface).unwrap();
        // Count sea pixels above a fire-detection-style threshold.
        let mut glints = 0;
        for r in 0..64 {
            for c in 40..64 {
                if s.raster.get(BAND_IR039, r, c).unwrap() > 312.0 {
                    glints += 1;
                }
            }
        }
        assert!(glints > 0, "expected some glint artifacts");
        // None of them are true fires.
        assert_eq!(s.truth.sum(), 0.0);
    }

    #[test]
    fn clouds_cool_and_brighten() {
        let mut spec = base_spec();
        spec.cloud_cover = 0.5;
        let s = generate(&spec, &surface).unwrap();
        let b = s.raster.band(BAND_IR039).unwrap();
        let cold = b.data().iter().filter(|&&v| v < 280.0).count();
        assert!(
            cold as f64 > 0.3 * (64.0 * 64.0),
            "expected extensive cloud cooling, got {cold} pixels"
        );
    }

    #[test]
    fn clouds_occlude_fires_in_truth() {
        let mut spec = base_spec();
        spec.cloud_cover = 0.95;
        spec.fires.push(FireEvent {
            center: Coord::new(21.7, 37.5),
            radius: 0.1,
            intensity: 1.0,
        });
        let cloudy = generate(&spec, &surface).unwrap();
        spec.cloud_cover = 0.0;
        let clear = generate(&spec, &surface).unwrap();
        assert!(cloudy.truth.sum() < clear.truth.sum());
    }

    #[test]
    fn surface_constants_sane() {
        assert!(SurfaceKind::Sea.ambient_k() < SurfaceKind::Forest.ambient_k());
        assert!(SurfaceKind::Urban.reflectance() > SurfaceKind::Sea.reflectance());
    }
}
