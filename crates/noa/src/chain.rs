//! The NOA processing chain: (a) ingestion, (b) cropping,
//! (c) georeferencing, (d) classification, (e) shapefile generation.
//!
//! Each stage is timed individually; experiment E1 reports the
//! breakdown. The chain is configured with a classification submodule
//! (scenario 1 compares several) and optional crop window / target grid.

use crate::hotspot::HotspotClassifier;
use crate::shapefile::{mask_to_features, HotspotFeature};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};
use teleios_exec::CancelToken;
use teleios_geo::Envelope;
use teleios_ingest::georef;
use teleios_ingest::raster::{GeoRaster, GeoTransform};
use teleios_monet::array::NdArray;
use teleios_monet::{Catalog, DbError, Result};

/// Per-stage wall-clock timings.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// (a) ingestion into database arrays.
    pub ingest: Duration,
    /// (b) cropping.
    pub crop: Duration,
    /// (c) georeferencing.
    pub georef: Duration,
    /// (d) classification.
    pub classify: Duration,
    /// (e) shapefile generation.
    pub shapefile: Duration,
}

impl StageTimings {
    /// Total chain time.
    pub fn total(&self) -> Duration {
        self.ingest + self.crop + self.georef + self.classify + self.shapefile
    }
}

/// One of the five chain modules, as seen by [`StageHook`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainStage {
    /// (a) ingestion into database arrays.
    Ingest,
    /// (b) cropping.
    Crop,
    /// (c) georeferencing.
    Georef,
    /// (d) classification.
    Classify,
    /// (e) shapefile generation.
    Shapefile,
}

impl fmt::Display for ChainStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ChainStage::Ingest => "ingest",
            ChainStage::Crop => "crop",
            ChainStage::Georef => "georef",
            ChainStage::Classify => "classify",
            ChainStage::Shapefile => "shapefile",
        };
        f.write_str(name)
    }
}

/// Hook invoked at the start of every chain stage with the product id,
/// the stage, and the chain configuration about to execute. Returning
/// `Err` fails that stage for that scene; panicking simulates a worker
/// crash. `teleios-resilience` threads its deterministic fault plans
/// through this to test supervised execution offline; tracing and
/// metrics collectors fit here too.
pub type StageHook = Arc<dyn Fn(&str, ChainStage, &ProcessingChain) -> Result<()> + Send + Sync>;

/// The configured chain.
#[derive(Clone)]
pub struct ProcessingChain {
    /// Classification submodule (module (d)).
    pub classifier: HotspotClassifier,
    /// Optional area-of-interest crop (module (b)).
    pub crop_window: Option<Envelope>,
    /// Optional georeferencing target grid (module (c)):
    /// (transform, rows, cols).
    pub target_grid: Option<(GeoTransform, usize, usize)>,
    /// Optional per-stage hook (fault injection, tracing). `None` in
    /// production chains.
    pub stage_hook: Option<StageHook>,
    /// Optional cooperative cancellation token, checked at every stage
    /// boundary (before the stage hook fires). A cancelled token fails
    /// the *next* stage with the token's reason — the running stage is
    /// never interrupted, so partial catalog state stays consistent.
    /// `teleios-resilience` installs one carrying each attempt's
    /// deadline; `None` in unsupervised chains.
    pub cancel: Option<CancelToken>,
}

impl fmt::Debug for ProcessingChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcessingChain")
            .field("classifier", &self.classifier)
            .field("crop_window", &self.crop_window)
            .field("target_grid", &self.target_grid)
            .field("stage_hook", &self.stage_hook.as_ref().map(|_| "<hook>"))
            .field("cancel", &self.cancel.as_ref().map(CancelToken::is_cancelled))
            .finish()
    }
}

impl ProcessingChain {
    /// Operational chain: fixed 318 K threshold, no crop, native grid.
    pub fn operational() -> ProcessingChain {
        ProcessingChain {
            classifier: HotspotClassifier::default_operational(),
            crop_window: None,
            target_grid: None,
            stage_hook: None,
            cancel: None,
        }
    }

    /// The same chain with a per-stage hook installed.
    pub fn with_stage_hook(mut self, hook: StageHook) -> ProcessingChain {
        self.stage_hook = Some(hook);
        self
    }

    /// The same chain with a cooperative cancellation token installed.
    pub fn with_cancel_token(mut self, token: CancelToken) -> ProcessingChain {
        self.cancel = Some(token);
        self
    }

    /// Chain identifier (used in product metadata).
    pub fn id(&self) -> String {
        self.classifier.id()
    }

    /// Check the cancellation token (if any), then fire the stage
    /// hook (if any). A cancelled token fails the stage before any of
    /// its work — or its injected faults — can run.
    fn fire_hook(&self, product_id: &str, stage: ChainStage) -> Result<()> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                let reason = token
                    .reason()
                    .unwrap_or_else(|| "cancellation requested".to_string());
                return Err(DbError::Execution(format!(
                    "{product_id} cancelled before {stage}: {reason}"
                )));
            }
        }
        match &self.stage_hook {
            Some(hook) => hook(product_id, stage, self),
            None => Ok(()),
        }
    }

    /// Run the chain on a scene raster.
    ///
    /// `catalog` receives the ingested band arrays under
    /// `{product_id}_band{i}` (module (a) makes the image content
    /// transparently queryable instead of a BLOB, per paper §3).
    pub fn run(
        &self,
        catalog: &Catalog,
        product_id: &str,
        raster: &GeoRaster,
    ) -> Result<ChainOutput> {
        let mut timings = StageTimings::default();

        // (a) ingestion: bands become database arrays.
        self.fire_hook(product_id, ChainStage::Ingest)?;
        let t0 = Instant::now();
        for b in 0..raster.bands() {
            catalog.put_array(&format!("{product_id}_band{b}"), raster.band(b)?);
        }
        timings.ingest = t0.elapsed();

        // (b) cropping.
        self.fire_hook(product_id, ChainStage::Crop)?;
        let t0 = Instant::now();
        let cropped = match &self.crop_window {
            Some(w) => georef::crop(raster, w)?,
            None => raster.clone(),
        };
        timings.crop = t0.elapsed();

        // (c) georeferencing.
        self.fire_hook(product_id, ChainStage::Georef)?;
        let t0 = Instant::now();
        let referenced = match &self.target_grid {
            Some((transform, rows, cols)) => {
                georef::georeference(&cropped, transform, *rows, *cols, 0.0)?
            }
            None => cropped,
        };
        timings.georef = t0.elapsed();

        // (d) classification.
        self.fire_hook(product_id, ChainStage::Classify)?;
        let t0 = Instant::now();
        let mask = self.classifier.classify(&referenced)?;
        timings.classify = t0.elapsed();
        catalog.put_array(&format!("{product_id}_hotspots"), mask.clone());

        // (e) shapefile generation.
        self.fire_hook(product_id, ChainStage::Shapefile)?;
        let t0 = Instant::now();
        let features = mask_to_features(&mask, &referenced.geo)?;
        timings.shapefile = t0.elapsed();

        Ok(ChainOutput { raster: referenced, mask, features, timings })
    }
}

/// The chain's products.
#[derive(Debug, Clone)]
pub struct ChainOutput {
    /// The processed (cropped/georeferenced) raster.
    pub raster: GeoRaster,
    /// The binary hotspot mask.
    pub mask: NdArray,
    /// The dissolved hotspot features (the shapefile content).
    pub features: Vec<HotspotFeature>,
    /// Per-stage timings.
    pub timings: StageTimings,
}

impl ChainOutput {
    /// Number of detected hotspot pixels.
    pub fn hotspot_pixels(&self) -> usize {
        self.mask.data().iter().filter(|&&v| v > 0.0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teleios_geo::Coord;
    use teleios_ingest::seviri::{generate, FireEvent, SceneSpec, SurfaceKind};

    fn bbox() -> Envelope {
        Envelope::new(Coord::new(21.0, 36.0), Coord::new(24.0, 39.0))
    }

    fn surface(c: Coord) -> SurfaceKind {
        if c.x < 23.0 {
            SurfaceKind::Forest
        } else {
            SurfaceKind::Sea
        }
    }

    fn scene() -> teleios_ingest::seviri::Scene {
        let mut spec = SceneSpec::new(3, 64, 64, bbox());
        spec.cloud_cover = 0.0;
        spec.glint_rate = 0.0;
        spec.fires.push(FireEvent {
            center: Coord::new(21.8, 37.5),
            radius: 0.1,
            intensity: 0.9,
        });
        generate(&spec, &surface).unwrap()
    }

    #[test]
    fn operational_chain_detects_fire() {
        let cat = Catalog::new();
        let out = ProcessingChain::operational()
            .run(&cat, "scene1", &scene().raster)
            .unwrap();
        assert!(out.hotspot_pixels() > 0);
        assert!(!out.features.is_empty());
        // The ingested band arrays are queryable.
        assert!(cat.has_array("scene1_band0"));
        assert!(cat.has_array("scene1_band1"));
        assert!(cat.has_array("scene1_hotspots"));
    }

    #[test]
    fn chain_with_crop_limits_extent() {
        let cat = Catalog::new();
        let mut chain = ProcessingChain::operational();
        chain.crop_window = Some(Envelope::new(Coord::new(21.5, 37.0), Coord::new(22.5, 38.0)));
        let out = chain.run(&cat, "s", &scene().raster).unwrap();
        assert!(out.raster.rows() < 64);
        assert!(out.hotspot_pixels() > 0);
        // Features fall inside the crop window (with pixel tolerance).
        let window = chain.crop_window.unwrap().buffer(0.1);
        for f in &out.features {
            assert!(window.contains_envelope(&f.polygon.envelope()));
        }
    }

    #[test]
    fn chain_with_georeference_resamples() {
        let cat = Catalog::new();
        let mut chain = ProcessingChain::operational();
        let target = GeoTransform::fit(&bbox(), 32, 32);
        chain.target_grid = Some((target, 32, 32));
        let out = chain.run(&cat, "s", &scene().raster).unwrap();
        assert_eq!(out.raster.rows(), 32);
        assert_eq!(out.raster.cols(), 32);
        assert!(out.hotspot_pixels() > 0);
    }

    #[test]
    fn timings_are_recorded() {
        let cat = Catalog::new();
        let out = ProcessingChain::operational().run(&cat, "s", &scene().raster).unwrap();
        assert!(out.timings.total() > Duration::ZERO);
        assert!(out.timings.classify > Duration::ZERO);
    }

    #[test]
    fn different_classifiers_yield_different_products() {
        let cat = Catalog::new();
        let raster = scene().raster;
        let plain = ProcessingChain {
            classifier: HotspotClassifier::Threshold { kelvin: 318.0 },
            ..ProcessingChain::operational()
        }
        .run(&cat, "a", &raster)
        .unwrap();
        let strict = ProcessingChain {
            classifier: HotspotClassifier::Threshold { kelvin: 340.0 },
            ..ProcessingChain::operational()
        }
        .run(&cat, "b", &raster)
        .unwrap();
        assert!(strict.hotspot_pixels() <= plain.hotspot_pixels());
    }

    #[test]
    fn chain_ids() {
        assert_eq!(ProcessingChain::operational().id(), "threshold-318");
    }

    #[test]
    fn pre_cancelled_token_fails_the_first_stage() {
        let cat = Catalog::new();
        let token = CancelToken::new();
        token.cancel("deadline overshot");
        let chain = ProcessingChain::operational().with_cancel_token(token);
        let err = chain.run(&cat, "c0", &scene().raster).unwrap_err().to_string();
        assert!(err.contains("c0 cancelled before ingest"), "{err}");
        assert!(err.contains("deadline overshot"), "{err}");
        // Nothing was ingested.
        assert!(!cat.has_array("c0_band0"));
    }

    #[test]
    fn mid_chain_cancellation_stops_before_the_next_stage() {
        let cat = Catalog::new();
        let token = CancelToken::new();
        let fire = token.clone();
        // Fire the token from the classify hook: the classify stage
        // itself still runs (cooperative, never interrupted), and the
        // chain fails at the next stage boundary.
        let chain = ProcessingChain::operational()
            .with_cancel_token(token)
            .with_stage_hook(Arc::new(
                move |_id: &str, stage: ChainStage, _chain: &ProcessingChain| {
                    if stage == ChainStage::Classify {
                        fire.cancel("deadline: classify overdue");
                    }
                    Ok(())
                },
            ));
        let err = chain.run(&cat, "c1", &scene().raster).unwrap_err().to_string();
        assert!(err.contains("c1 cancelled before shapefile"), "{err}");
        assert!(err.contains("deadline: classify overdue"), "{err}");
        // Stages before the cancellation point completed normally.
        assert!(cat.has_array("c1_band0"));
    }
}
