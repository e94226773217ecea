//! `observatory_mixed` — one scene's whole trip, writes beside reads.
//!
//! Why it exists: it uses strabon/rdf/geo the opposite way from
//! `archive_query`. Every read follows a write, so sidecar
//! invalidation and rebuild, dictionary growth, the update path and
//! the full-rewrite persist dominate; a gain bought for reads at the
//! cost of writes (or the reverse) shows as one workload up and the
//! other down.
//!
//! Set-up loads a base archive, trains the patch classifier and
//! acquires [`BACKLOG`] scenes per op. A timed op is: `run_chain` →
//! `annotate_product` → a `products` row → supervised refinement of
//! that product → the flagship query for the scene's day (the time to
//! answer on fresh data) → a fire map around its fire → one durable
//! transaction staging the vault, rdf and monet persist ports and
//! committing on `DurableBackend<MemMedium>`.

use crate::archive::{self, DAYS, PRODUCTS_TABLE};
use crate::chain_ingest::land_point;
use crate::digest::{self, Answer};
use crate::durable::{self, Backend, CountingMedium};
use crate::engine::{train_patch_classifier, Engine, Res};
use crate::rng::SplitMix64;
use crate::trace::Tracer;
use crate::workload::{ensure, timed, Plan, RunOutput, Workload};
use std::collections::{BTreeSet, HashSet};
use std::marker::PhantomData;
use std::time::Instant;
use teleios_core::observatory::AcquisitionSpec;
use teleios_core::portal;
use teleios_geo::{Coord, Envelope};
use teleios_ingest::seviri::FireEvent;
use teleios_linked::world::WorldSpec;
use teleios_mining::Classifier;
use teleios_monet::Value;
use teleios_noa::refine::RefineStats;
use teleios_noa::ProcessingChain;
use teleios_rdf::TripleStore;

/// Patch side for annotation, pixels.
pub const PATCH: usize = 16;
/// Scenes the classifier is trained on.
pub const TRAINING_SCENES: usize = 4;
/// Distance of the per-op flagship query, degrees.
pub const FLAGSHIP_DISTANCE: f64 = 0.2;
/// Scenes acquired per scene processed: the archive always holds a
/// backlog of raw images. The greedy join order of the flagship query
/// flips once hotspots outnumber raw images, and the query goes from
/// tens of milliseconds to seconds; each processed scene keeps one or
/// two hotspots, so without a backlog the flip lands inside the window
/// and a twentieth of the ops would set the p95. The backlog keeps the
/// whole window on one side of it.
pub const BACKLOG: usize = 2;

/// Data sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Products in the base archive.
    pub base_products: usize,
    /// Raster side of the scenes, pixels.
    pub scene_side: usize,
}

/// Frozen sizes (1/50 of the base archive at smoke scale).
pub fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            base_products: 8,
            scene_side: 32,
        }
    } else {
        Sizes {
            base_products: 400,
            scene_side: 64,
        }
    }
}

/// One pre-acquired scene.
struct Scene {
    id: String,
    day: usize,
    hour: usize,
    fire: Coord,
}

/// The refinement bookkeeping must add up.
pub fn check_refine(stats: &RefineStats) -> Res<()> {
    ensure(stats.kept + stats.refuted == stats.before, || {
        format!(
            "refinement lost hotspots: kept {} + refuted {} != before {}",
            stats.kept, stats.refuted, stats.before
        )
    })
}

/// Rows the flagship query returned for a day must still be there the
/// next time the same day is asked: later scenes only add hotspots.
pub fn check_superset(previous: &HashSet<u64>, now: &HashSet<u64>) -> Res<()> {
    let missing = previous.difference(now).count();
    ensure(missing == 0, || {
        format!(
            "flagship answer lost {missing} of {} earlier rows",
            previous.len()
        )
    })
}

/// The workload state.
pub struct ObservatoryMixed<'t, E: Engine<'t>> {
    engine: E,
    classifier: Classifier,
    scenes: Vec<Scene>,
    backend: Backend,
    base_products: usize,
    flagship_rows: Vec<HashSet<u64>>,
    _tracer: PhantomData<&'t Tracer>,
}

impl<'t, E: Engine<'t>> Workload<'t> for ObservatoryMixed<'t, E> {
    fn setup(plan: Plan, tracer: &'t Tracer) -> Res<Self> {
        let sizes = sizes(plan.smoke);
        let mut engine = E::create(
            WorldSpec {
                seed: plan.seed,
                ..WorldSpec::default()
            },
            tracer,
        );
        let stores = engine.stores();
        let bbox = stores.world.spec.bbox;
        archive::build(
            sizes.base_products,
            &bbox,
            plan.seed,
            stores.strabon.store_mut(),
            stores.db,
        )?;

        let mut rng = SplitMix64::new(plan.seed, 0x0b5e);
        let mut acquire = |engine: &mut E, day: usize, hour: usize| -> Res<(String, Coord)> {
            let fire = land_point(engine.stores().world, 0.8, &mut rng);
            let spec = AcquisitionSpec {
                seed: rng.next_u64(),
                rows: sizes.scene_side,
                cols: sizes.scene_side,
                acquisition: format!("2007-08-{day:02}T{hour:02}:00:00Z"),
                satellite: archive::SATELLITE.into(),
                fires: vec![FireEvent {
                    center: fire,
                    radius: 0.08,
                    intensity: 0.9,
                }],
                cloud_cover: 0.02,
                glint_rate: 0.01,
            };
            Ok((engine.acquire_scene(&spec)?, fire))
        };
        let mut training = Vec::with_capacity(TRAINING_SCENES);
        for i in 0..TRAINING_SCENES {
            training.push(acquire(&mut engine, 1 + i, 12)?.0);
        }
        let classifier = train_patch_classifier(&mut engine, &training, PATCH, 3)?;
        let mut scenes = Vec::with_capacity(BACKLOG * plan.ops);
        for i in 0..BACKLOG * plan.ops {
            let (day, hour) = (1 + i % DAYS, (i / DAYS) % 24);
            let (id, fire) = acquire(&mut engine, day, hour)?;
            scenes.push(Scene {
                id,
                day,
                hour,
                fire,
            });
        }
        Ok(ObservatoryMixed {
            engine,
            classifier,
            scenes,
            backend: durable::open(CountingMedium::default())?,
            base_products: sizes.base_products,
            flagship_rows: vec![HashSet::new(); DAYS + 1],
            _tracer: PhantomData,
        })
    }

    fn run(&mut self, plan: Plan, tracer: &'t Tracer) -> RunOutput {
        let mut out = RunOutput::default();
        let (mut refuted, mut clipped, mut annotations, mut triples_added) =
            (0usize, 0usize, 0usize, 0usize);
        let started = Instant::now();
        for (i, scene) in self.scenes.iter().take(plan.ops).enumerate() {
            out.op(i, tracer, |out| {
                let engine = &mut self.engine;
                let triples_before = engine.stores().strabon.len();
                let report = engine.run_chain(&scene.id, &ProcessingChain::operational())?;
                let annotated = engine.annotate_product(&scene.id, PATCH, &self.classifier)?;
                triples_added += engine.stores().strabon.len() - triples_before;
                annotations += annotated;
                let pixels = report.output.hotspot_pixels() as f64;
                let row = vec![
                    Value::Int((self.base_products + i) as i64),
                    Value::Int(scene.day as i64),
                    Value::Int(scene.hour as i64),
                    Value::Double(pixels / (pixels + 2.0)),
                    Value::Str(archive::SATELLITE.into()),
                ];
                engine
                    .stores()
                    .db
                    .insert(PRODUCTS_TABLE, vec![row])
                    .map_err(|e| e.to_string())?;

                let stats = engine.refine_product(&scene.id)?;
                check_refine(&stats)?;
                refuted += stats.refuted;
                clipped += stats.clipped;

                let query = portal::flagship_query(
                    archive::SATELLITE,
                    &format!("2007-08-{:02}", scene.day),
                    FLAGSHIP_DISTANCE,
                );
                let (fresh, fresh_ms) = timed(|| engine.search(&query));
                let fresh = fresh?;
                out.sample("core.fresh_query", fresh_ms);
                if tracer.enabled() {
                    // The same query again, warm: the difference is what
                    // the writes above cost the reader (sidecar rebuild).
                    let (warm, warm_ms) = timed(|| engine.search(&query));
                    warm?;
                    out.sample("strabon.sidecar_rebuild", (fresh_ms - warm_ms).max(0.0));
                }
                let rows: HashSet<u64> = digest::solution_row_hashes(&fresh).into_iter().collect();
                check_superset(&self.flagship_rows[scene.day], &rows)?;
                let flagship = Answer {
                    rows: rows.len(),
                    hash: rows.iter().fold(0u64, |a, h| a.wrapping_add(*h)),
                };
                self.flagship_rows[scene.day] = rows;

                let f = scene.fire;
                let window = Envelope::new(
                    Coord::new(f.x - 0.5, f.y - 0.5),
                    Coord::new(f.x + 0.5, f.y + 0.5),
                );
                let map = digest::of_fire_map(&engine.fire_map(&window)?);

                let stores = engine.stores();
                let quarantine: BTreeSet<String> = stores.vault.quarantined().into_iter().collect();
                let (stage_ms, commit_ms) = durable::commit_all(
                    &mut self.backend,
                    stores.vault.catalog(),
                    &quarantine,
                    stores.strabon.store(),
                    stores.db,
                    tracer,
                )?;
                out.sample("store.stage", stage_ms);
                out.sample("store.commit", commit_ms);

                out.digest
                    .num(report.features_published as u64)
                    .num(annotated as u64)
                    .num(stats.before as u64)
                    .num(stats.refuted as u64)
                    .num(stats.clipped as u64)
                    .num(flagship.rows as u64)
                    .num(flagship.hash)
                    .num(map.rows as u64)
                    .num(map.hash);
                Ok(())
            });
        }
        out.close_window(started);

        durable::count_writes(&self.backend, &mut out);
        out.count("noa.refuted", refuted as f64);
        out.count("noa.clipped", clipped as f64);
        out.count("mining.annotations", annotations as f64);
        out.count("rdf.triples_added", triples_added as f64);
        let stores = self.engine.stores();
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

    #[test]
    fn checker_fails_lost_hotspots_and_lost_rows() {
        assert!(check_refine(&RefineStats {
            before: 5,
            kept: 3,
            refuted: 2,
            clipped: 1
        })
        .is_ok());
        assert!(check_refine(&RefineStats {
            before: 5,
            kept: 3,
            refuted: 1,
            clipped: 0
        })
        .is_err());
        let earlier: HashSet<u64> = [1, 2, 3].into_iter().collect();
        let grown: HashSet<u64> = [1, 2, 3, 4].into_iter().collect();
        let shrunk: HashSet<u64> = [1, 3, 4].into_iter().collect();
        assert!(check_superset(&earlier, &grown).is_ok());
        assert!(check_superset(&earlier, &shrunk).is_err());
        assert!(check_superset(&HashSet::new(), &shrunk).is_ok());
    }
}
