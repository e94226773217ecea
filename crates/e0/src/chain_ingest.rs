//! `chain_ingest` — scenario 1, the array side.
//!
//! Why it exists: vault materialization, monet array storage, ingest
//! crop/georeference, the SciQL classification ops and the noa
//! shapefile module do nearly all the work; strabon/rdf see only
//! inserts and the store layer is idle. It is the bypass workload for
//! every query-side or storage-side optimisation.
//!
//! Set-up acquires [`SCENES`] scenes (more than the vault's 64-array
//! cache) with two planted fires each. The timed ops walk them in
//! passes: all scenes once with a fixed-threshold chain (cold,
//! just-in-time materialization), then the newest 32 again (vault
//! hits) and the oldest 32 again (evicted, so re-materialized) with
//! the contextual classifier — the paper's "chains using a different
//! classification submodule". Every chain crops to the central 75 % of
//! the window and georeferences onto a target grid, so all five stages
//! do work.

use crate::engine::{Engine, Res};
use crate::rng::SplitMix64;
use crate::trace::Tracer;
use crate::workload::{ensure, Plan, RunOutput, Workload};
use std::marker::PhantomData;
use std::time::Instant;
use teleios_core::observatory::AcquisitionSpec;
use teleios_geo::{Coord, Envelope};
use teleios_ingest::raster::GeoTransform;
use teleios_ingest::seviri::FireEvent;
use teleios_linked::world::{World, WorldSpec};
use teleios_monet::array::NdArray;
use teleios_noa::{HotspotClassifier, ProcessingChain};
use teleios_rdf::TripleStore;

/// Scenes per observatory: more than the vault keeps resident (64).
pub const SCENES: usize = 96;
/// Scenes revisited from each end of the archive after a full pass.
pub const REVISIT: usize = 32;
/// Ops in one pass: every scene, then the newest and the oldest again.
pub const PASS: usize = SCENES + 2 * REVISIT;
/// Planted fires must be at least this well recovered on the target
/// grid. Over forty seeds the weakest variant (the contextual filter
/// at the highest threshold) never recalled less than 0.74 of a fire
/// of twenty cells or more.
pub const RECALL_FLOOR: f64 = 0.5;
/// A fire the crop window clips to fewer cells than this says nothing
/// about the classifier (a ten-cell sliver was recalled at 0.1):
/// recall is not checked on it. The smaller planted fire covers about
/// 45 cells of the target grid, the larger about 100.
pub const MIN_TRUTH_CELLS: usize = 32;

/// Raster side in pixels.
pub fn scene_side(smoke: bool) -> usize {
    if smoke {
        32
    } else {
        192
    }
}

/// Which scene an op processes and how.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainOp {
    /// Index of the scene.
    pub scene: usize,
    /// Classification submodule of the chain.
    pub classifier: HotspotClassifier,
}

/// The op schedule: pass `p` thresholds at `318 + p` K so each pass
/// derives distinct products.
pub fn schedule(ops: usize) -> Vec<ChainOp> {
    (0..ops)
        .map(|i| {
            let (pass, at) = (i / PASS, i % PASS);
            let kelvin = 318.0 + pass as f64;
            if at < SCENES {
                ChainOp {
                    scene: at,
                    classifier: HotspotClassifier::Threshold { kelvin },
                }
            } else {
                let scene = if at < SCENES + REVISIT {
                    SCENES - 1 - (at - SCENES)
                } else {
                    at - SCENES - REVISIT
                };
                ChainOp {
                    scene,
                    classifier: HotspotClassifier::Contextual {
                        kelvin,
                        min_neighbors: 2,
                    },
                }
            }
        })
        .collect()
}

/// A point on land within `spread` degrees of the window centre.
pub fn land_point(world: &World, spread: f64, rng: &mut SplitMix64) -> Coord {
    let center = world.spec.bbox.center();
    for _ in 0..64 {
        let c = Coord::new(
            center.x + rng.range(-spread, spread),
            center.y + rng.range(-spread, spread),
        );
        if world.is_land(c) {
            return c;
        }
    }
    center
}

/// The acquisition of scene `i`: two fires on land, 2 % cloud, 1 % glint.
pub fn acquisition(i: usize, side: usize, world: &World, rng: &mut SplitMix64) -> AcquisitionSpec {
    AcquisitionSpec {
        seed: rng.next_u64(),
        rows: side,
        cols: side,
        acquisition: format!("2007-08-{:02}T{:02}:00:00Z", 1 + (i / 24) % 28, i % 24),
        satellite: "MSG2".into(),
        fires: vec![
            FireEvent {
                center: land_point(world, 0.7, rng),
                radius: 0.09,
                intensity: 0.9,
            },
            FireEvent {
                center: land_point(world, 0.7, rng),
                radius: 0.06,
                intensity: 0.7,
            },
        ],
        cloud_cover: 0.02,
        glint_rate: 0.01,
    }
}

/// The ground truth resampled onto the chain's target grid, the way
/// the georeferencing stage resamples the scene (nearest neighbour).
pub fn truth_on_grid(
    truth: &NdArray,
    source: &GeoTransform,
    target: &GeoTransform,
    rows: usize,
    cols: usize,
) -> Vec<bool> {
    let shape = truth.shape();
    let (src_rows, src_cols) = (
        shape.first().copied().unwrap_or(0),
        shape.get(1).copied().unwrap_or(0),
    );
    let mut out = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let burning = source
                .locate(target.pixel_center(r, c), src_rows, src_cols)
                .is_some_and(|(sr, sc)| truth.get(&[sr, sc]).unwrap_or(0.0) > 0.0);
            out.push(burning);
        }
    }
    out
}

/// Share of truly burning grid cells the mask detected (1.0 when
/// fewer than [`MIN_TRUTH_CELLS`] burn).
pub fn recall(mask: &[f64], truth: &[bool]) -> f64 {
    if mask.len() != truth.len() {
        return 0.0;
    }
    let burning = truth.iter().filter(|t| **t).count();
    if burning < MIN_TRUTH_CELLS {
        return 1.0;
    }
    let found = mask
        .iter()
        .zip(truth)
        .filter(|(m, t)| **t && **m > 0.0)
        .count();
    found as f64 / burning as f64
}

/// The per-op checks: SciQL sees exactly the hotspot pixels the chain
/// reported, and the planted fires are recovered.
pub fn check(sciql_sum: f64, hotspot_pixels: usize, mask: &[f64], truth: &[bool]) -> Res<()> {
    ensure(sciql_sum == hotspot_pixels as f64, || {
        format!("SciQL SUM(v) = {sciql_sum}, chain reported {hotspot_pixels} hotspot pixels")
    })?;
    let got = recall(mask, truth);
    ensure(got >= RECALL_FLOOR, || {
        format!("recall {got:.3} below the floor {RECALL_FLOOR}")
    })
}

/// The workload state.
pub struct ChainIngest<'t, E: Engine<'t>> {
    engine: E,
    ids: Vec<String>,
    truths: Vec<Vec<bool>>,
    crop: Envelope,
    grid: (GeoTransform, usize, usize),
    side: usize,
    _tracer: PhantomData<&'t Tracer>,
}

impl<'t, E: Engine<'t>> Workload<'t> for ChainIngest<'t, E> {
    fn setup(plan: Plan, tracer: &'t Tracer) -> Res<Self> {
        let side = scene_side(plan.smoke);
        let mut engine = E::create(
            WorldSpec {
                seed: plan.seed,
                ..WorldSpec::default()
            },
            tracer,
        );
        let bbox = engine.stores().world.spec.bbox;
        let center = bbox.center();
        let (half_w, half_h) = (bbox.width() * 0.375, bbox.height() * 0.375);
        let crop = Envelope::new(
            Coord::new(center.x - half_w, center.y - half_h),
            Coord::new(center.x + half_w, center.y + half_h),
        );
        let grid_side = side * 3 / 4;
        let grid = (
            GeoTransform::fit(&crop, grid_side, grid_side),
            grid_side,
            grid_side,
        );
        let source = GeoTransform::fit(&bbox, side, side);

        let mut rng = SplitMix64::new(plan.seed, 0xc4a1);
        let mut ids = Vec::with_capacity(SCENES);
        let mut truths = Vec::with_capacity(SCENES);
        for i in 0..SCENES {
            let spec = acquisition(i, side, engine.stores().world, &mut rng);
            let id = engine.acquire_scene(&spec)?;
            truths.push(truth_on_grid(
                &engine.truth_for(&id)?,
                &source,
                &grid.0,
                grid.1,
                grid.2,
            ));
            ids.push(id);
        }
        Ok(ChainIngest {
            engine,
            ids,
            truths,
            crop,
            grid,
            side,
            _tracer: PhantomData,
        })
    }

    fn run(&mut self, plan: Plan, tracer: &'t Tracer) -> RunOutput {
        let mut out = RunOutput::default();
        let before = self.engine.stores().vault.stats();
        let mut features = 0usize;
        let started = Instant::now();
        for (i, op) in schedule(plan.ops).into_iter().enumerate() {
            out.op(i, tracer, |out| {
                let mut chain = ProcessingChain::operational();
                chain.classifier = op.classifier;
                chain.crop_window = Some(self.crop);
                chain.target_grid = Some(self.grid);
                let id = &self.ids[op.scene];
                let report = self.engine.run_chain(id, &chain)?;
                let pixels = report.output.hotspot_pixels();
                let sum = self
                    .engine
                    .sciql_scalar(&format!("SELECT SUM(v) FROM {id}_hotspots"))?;
                features += report.output.features.len();
                // Not `features_published`: the shapefile module numbers
                // features in hash order, so on a revisit how many of a
                // product's hotspot triples already exist varies by run.
                out.digest
                    .num(op.scene as u64)
                    .num(pixels as u64)
                    .num(report.output.features.len() as u64);
                check(
                    sum,
                    pixels,
                    report.output.mask.data(),
                    &self.truths[op.scene],
                )
            });
        }
        out.close_window(started);

        let stores = self.engine.stores();
        let after = stores.vault.stats();
        let requests =
            (after.cache_hits + after.cache_misses) - (before.cache_hits + before.cache_misses);
        out.count(
            "vault.materializations",
            (after.materializations - before.materializations) as f64,
        );
        out.count(
            "vault.cache_hits",
            (after.cache_hits - before.cache_hits) as f64,
        );
        out.count(
            "vault.cache_misses",
            (after.cache_misses - before.cache_misses) as f64,
        );
        out.count(
            "vault.evictions",
            (after.evictions - before.evictions) as f64,
        );
        out.count(
            "vault.hit_ratio",
            if requests == 0 {
                0.0
            } else {
                (after.cache_hits - before.cache_hits) as f64 / requests as f64
            },
        );
        out.count(
            "monet.cells_ingested",
            (out.attempted as usize * 3 * self.side * self.side) as f64,
        );
        // No triple count here: revisits re-publish hotspots under ids the
        // shapefile module hands out in hash order, so it varies by run.
        out.count("noa.features", features as f64);
        out
    }

    fn triples(&mut self) -> Option<&TripleStore> {
        Some(self.engine.stores().strabon.store())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_visits_cold_then_newest_then_oldest() {
        let s = schedule(2 * PASS);
        assert_eq!(s.len(), 2 * PASS);
        assert!(s[..SCENES].iter().enumerate().all(|(i, op)| op.scene == i));
        assert_eq!(
            s[0].classifier,
            HotspotClassifier::Threshold { kelvin: 318.0 }
        );
        assert_eq!(s[SCENES].scene, SCENES - 1);
        assert_eq!(s[SCENES + REVISIT - 1].scene, SCENES - REVISIT);
        assert_eq!(s[SCENES + REVISIT].scene, 0);
        assert_eq!(s[PASS - 1].scene, REVISIT - 1);
        assert_eq!(
            s[SCENES].classifier,
            HotspotClassifier::Contextual {
                kelvin: 318.0,
                min_neighbors: 2
            }
        );
        assert_eq!(
            s[PASS].classifier,
            HotspotClassifier::Threshold { kelvin: 319.0 }
        );
        assert_eq!(schedule(7), s[..7]);
    }

    #[test]
    fn checker_fails_a_flipped_pixel_and_a_missed_fire() {
        let mut truth = [false; 80];
        truth[..40].fill(true);
        let mut mask = [0.0; 80];
        mask[..40].fill(1.0);
        assert!(check(40.0, 40, &mask, &truth).is_ok());
        // One hotspot pixel flipped in the stored array: SciQL and the chain disagree.
        assert!(check(39.0, 40, &mask, &truth).is_err());
        // The fire is missed, entirely or mostly.
        assert!(check(0.0, 0, &[0.0; 80], &truth).is_err());
        mask[16..].fill(0.0);
        assert!(check(16.0, 16, &mask, &truth).is_err());
        // A mask of the wrong shape is never a pass.
        assert!(check(1.0, 1, &[1.0], &truth).is_err());
        // A fire clipped to a few cells is not judged.
        truth[10..].fill(false);
        assert!(check(0.0, 0, &[0.0; 80], &truth).is_ok());
    }
}
