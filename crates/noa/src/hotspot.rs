//! Hotspot classification submodules (processing-chain module (d)).
//!
//! Scenario 1 of the demo lets the user "test the efficiency of
//! different processing chains (i.e., chains using a different
//! classification submodule)". Three submodules are provided, all
//! operating on the IR_039 fire channel; experiment E2 scores them
//! against ground truth.

use teleios_ingest::raster::GeoRaster;
use teleios_ingest::seviri::BAND_IR039;
use teleios_monet::array::NdArray;
use teleios_monet::Result;
use teleios_sciql::ops;

/// A pixel-classification strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HotspotClassifier {
    /// `IR_039 > t` (kelvin). The operational MSG/SEVIRI default uses
    /// t ≈ 318 K.
    Threshold {
        /// Brightness-temperature threshold in kelvin.
        kelvin: f64,
    },
    /// Scene-adaptive threshold `mean + k·σ` of the fire channel,
    /// robust to seasonal ambient changes.
    Adaptive {
        /// Multiplier on the scene standard deviation.
        sigma: f64,
    },
    /// Fixed threshold followed by a spatial-context filter: a positive
    /// pixel survives only with `min_neighbors` positive 8-neighbours,
    /// suppressing isolated artifacts (glint, noise).
    Contextual {
        /// Brightness-temperature threshold in kelvin.
        kelvin: f64,
        /// Minimum positive neighbours to keep a detection.
        min_neighbors: usize,
    },
}

impl HotspotClassifier {
    /// The operational default (fixed 318 K threshold).
    pub fn default_operational() -> HotspotClassifier {
        HotspotClassifier::Threshold { kelvin: 318.0 }
    }

    /// Short identifier used in product metadata
    /// (`noa:isProducedByProcessingChain`).
    pub fn id(&self) -> String {
        match self {
            HotspotClassifier::Threshold { kelvin } => format!("threshold-{kelvin:.0}"),
            HotspotClassifier::Adaptive { sigma } => format!("adaptive-{sigma:.1}sigma"),
            HotspotClassifier::Contextual { kelvin, min_neighbors } => {
                format!("contextual-{kelvin:.0}-n{min_neighbors}")
            }
        }
    }

    /// Classify a scene: returns the binary hotspot mask (y, x).
    pub fn classify(&self, raster: &GeoRaster) -> Result<NdArray> {
        let ir = raster.band(BAND_IR039)?;
        match self {
            HotspotClassifier::Threshold { kelvin } => Ok(ops::classify_threshold(&ir, *kelvin)),
            HotspotClassifier::Adaptive { sigma } => {
                let mean = ir.mean().unwrap_or(0.0);
                let sd = ir.std_dev().unwrap_or(0.0);
                Ok(ops::classify_threshold(&ir, mean + sigma * sd))
            }
            HotspotClassifier::Contextual { kelvin, min_neighbors } => {
                let mask = ops::classify_threshold(&ir, *kelvin);
                ops::contextual_filter(&mask, *min_neighbors)
            }
        }
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use teleios_geo::{Coord, Envelope};
    use teleios_ingest::seviri::{generate, FireEvent, SceneSpec, SurfaceKind};

    fn bbox() -> Envelope {
        Envelope::new(Coord::new(21.0, 36.0), Coord::new(24.0, 39.0))
    }

    fn surface(c: Coord) -> SurfaceKind {
        if c.x < 22.5 {
            SurfaceKind::Forest
        } else {
            SurfaceKind::Sea
        }
    }

    fn fire_scene(glint: f64) -> teleios_ingest::seviri::Scene {
        let mut spec = SceneSpec::new(11, 64, 64, bbox());
        spec.cloud_cover = 0.0;
        spec.glint_rate = glint;
        spec.fires.push(FireEvent {
            center: Coord::new(21.8, 37.5),
            radius: 0.1,
            intensity: 0.9,
        });
        generate(&spec, &surface).unwrap()
    }

    #[test]
    fn threshold_detects_fire_core() {
        let scene = fire_scene(0.0);
        let mask = HotspotClassifier::default_operational().classify(&scene.raster).unwrap();
        assert!(mask.sum() > 0.0);
        // Every truth pixel is detected (threshold is generous).
        let missed = scene
            .truth
            .data()
            .iter()
            .zip(mask.data())
            .filter(|(t, m)| **t > 0.0 && **m == 0.0)
            .count();
        assert_eq!(missed, 0);
    }

    #[test]
    fn adaptive_tracks_scene_statistics() {
        let scene = fire_scene(0.0);
        let mask = HotspotClassifier::Adaptive { sigma: 4.0 }.classify(&scene.raster).unwrap();
        assert!(mask.sum() > 0.0);
        // Adaptive should not flag huge swaths of ambient pixels.
        assert!(mask.sum() < 200.0, "mask sum {}", mask.sum());
    }

    #[test]
    fn contextual_suppresses_isolated_glint() {
        let scene = fire_scene(0.01);
        let plain = HotspotClassifier::Threshold { kelvin: 318.0 }.classify(&scene.raster).unwrap();
        let ctx = HotspotClassifier::Contextual { kelvin: 318.0, min_neighbors: 2 }
            .classify(&scene.raster)
            .unwrap();
        assert!(ctx.sum() <= plain.sum());
        // The fire core (a dense blob) survives the context filter.
        assert!(ctx.sum() > 0.0);
    }

    #[test]
    fn classifier_ids() {
        assert_eq!(HotspotClassifier::Threshold { kelvin: 318.0 }.id(), "threshold-318");
        assert_eq!(HotspotClassifier::Adaptive { sigma: 3.5 }.id(), "adaptive-3.5sigma");
        assert_eq!(
            HotspotClassifier::Contextual { kelvin: 320.0, min_neighbors: 3 }.id(),
            "contextual-320-n3"
        );
    }
}
