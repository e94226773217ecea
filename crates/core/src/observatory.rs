//! The Observatory: every tier behind one API.

use crate::ObservatoryError;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use teleios_geo::{Coord, Envelope};
use teleios_ingest::metadata;
use teleios_ingest::raster::{GeoRaster, GeoTransform};
use teleios_ingest::seviri::{self, FireEvent, SceneSpec, SurfaceKind};
use teleios_linked::emit;
use teleios_linked::world::{CoverClass, World, WorldSpec};
use teleios_mining::ontology::Ontology;
use teleios_monet::array::NdArray;
use teleios_monet::catalog::ResultSet;
use teleios_monet::Catalog;
use teleios_noa::chain::ChainOutput;
use teleios_noa::firemap::{build_fire_map, FireMap};
use teleios_noa::refine::{publish_hotspots, refine_product_against_landmass, RefineStats};
use teleios_noa::ProcessingChain;
use teleios_resilience::{panic_message, BatchReport, SceneOutcome, SceneReport, Supervisor};
use teleios_sciql::SciqlResult;
use teleios_strabon::{Solutions, Strabon};
use teleios_vault::format::{encode_gtf1, encode_sev1, Gtf1Header, Sev1Header};
use teleios_vault::repository::Repository;
use teleios_vault::{DataVault, IngestionPolicy};

type Result<T> = std::result::Result<T, ObservatoryError>;

/// Parameters of one simulated acquisition.
#[derive(Debug, Clone)]
pub struct AcquisitionSpec {
    /// Seed for the scene's noise/clouds/glint.
    pub seed: u64,
    /// Raster rows.
    pub rows: usize,
    /// Raster columns.
    pub cols: usize,
    /// Acquisition instant (ISO-8601).
    pub acquisition: String,
    /// Satellite identifier.
    pub satellite: String,
    /// Planted fires.
    pub fires: Vec<FireEvent>,
    /// Cloud fraction.
    pub cloud_cover: f64,
    /// Sea-glint artifact rate.
    pub glint_rate: f64,
}

impl AcquisitionSpec {
    /// A small deterministic test acquisition with one fire on land.
    pub fn small_test(seed: u64) -> AcquisitionSpec {
        AcquisitionSpec {
            seed,
            rows: 64,
            cols: 64,
            acquisition: format!("2007-08-25T{:02}:00:00Z", (seed % 24)),
            satellite: "MSG2".into(),
            fires: vec![FireEvent {
                center: Coord::new(22.4, 37.6),
                radius: 0.08,
                intensity: 0.9,
            }],
            cloud_cover: 0.03,
            glint_rate: 0.005,
        }
    }
}

/// Metadata the observatory keeps per acquired product.
#[derive(Debug, Clone)]
struct ProductRecord {
    file: String,
    geo: GeoTransform,
    acquisition: String,
    satellite: String,
    truth: NdArray,
}

/// Report of one processing-chain run.
#[derive(Debug, Clone)]
pub struct ChainReport {
    /// Identifier of the derived product.
    pub derived_id: String,
    /// The chain output (raster, mask, features, timings).
    pub output: ChainOutput,
    /// Hotspot features published to Strabon.
    pub features_published: usize,
}

/// How one product fared inside a supervised service pass
/// ([`Observatory::refine_products_supervised`],
/// [`Observatory::derive_burnt_area`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProductOutcome {
    /// The product's pass completed.
    Ok,
    /// The product's pass failed (bad data, query error, panic); other
    /// products were not affected.
    Failed {
        /// What went wrong.
        reason: String,
    },
    /// The deadline was exhausted before this product's pass started.
    Skipped {
        /// Why the product was never attempted.
        reason: String,
    },
}

/// Per-product entry of a supervised service report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProductReport {
    /// The product id.
    pub product_id: String,
    /// What happened.
    pub outcome: ProductOutcome,
}

/// Partial-result report of a supervised per-product pass: one entry
/// per distinct input product, in input order, plus what the pass
/// aggregated over the products that completed. A poisoned or overdue
/// product costs exactly its own entry, never the pass.
#[derive(Debug, Clone)]
pub struct PassReport<S> {
    /// One entry per distinct input product, in input order.
    pub products: Vec<ProductReport>,
    /// The aggregate over the `Ok` products: [`RefineStats`] for a
    /// refinement pass, the number of burnt-area scar features
    /// published for a burnt-area pass.
    pub stats: S,
    /// Wall-clock time for the whole pass.
    pub wall_clock: Duration,
}

/// Report of [`Observatory::refine_products_supervised`].
pub type RefineReport = PassReport<RefineStats>;

/// Report of [`Observatory::derive_burnt_area`]; `stats`
/// counts the scar features published from the surviving masks.
pub type BurntAreaReport = PassReport<usize>;

impl<S> PassReport<S> {
    fn count(&self, pred: impl Fn(&ProductOutcome) -> bool) -> usize {
        self.products.iter().filter(|p| pred(&p.outcome)).count()
    }

    /// Products whose pass completed.
    pub(crate) fn ok_count(&self) -> usize {
        self.count(|o| *o == ProductOutcome::Ok)
    }

    /// True when every product completed.
    pub fn is_complete(&self) -> bool {
        self.ok_count() == self.products.len()
    }
}

/// The Virtual Earth Observatory.
pub struct Observatory {
    /// The array/SQL database (MonetDB role).
    pub db: Catalog,
    /// The semantic geospatial database (Strabon role).
    pub strabon: Strabon,
    /// The Data Vault over the scene archive.
    pub vault: DataVault,
    /// The synthetic world (ground truth + linked-data source).
    pub world: World,
    /// The domain ontology.
    pub ontology: Ontology,
    products: HashMap<String, ProductRecord>,
    next_scene: usize,
}

impl Observatory {
    /// Build an observatory over a generated world: linked datasets and
    /// the ontology are loaded into Strabon, the vault starts empty with
    /// a lazy policy.
    pub fn new(world_spec: WorldSpec) -> Observatory {
        let world = World::generate(world_spec);
        let mut strabon = Strabon::new();
        emit::emit_all(&world, strabon.store_mut());
        let ontology = Ontology::teleios();
        ontology.emit(strabon.store_mut());
        let db = Catalog::new();
        let vault = DataVault::new(Repository::new(), db.clone(), IngestionPolicy::Lazy, 64);
        Observatory { db, strabon, vault, world, ontology, products: HashMap::new(), next_scene: 0 }
    }

    /// Default world seeded with `seed`.
    pub fn with_defaults(seed: u64) -> Observatory {
        Observatory::new(WorldSpec { seed, ..WorldSpec::default() })
    }

    /// The world's geographic window.
    pub fn region(&self) -> Envelope {
        self.world.spec.bbox
    }

    /// Product identifiers acquired so far, sorted.
    pub fn product_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.products.keys().cloned().collect();
        ids.sort();
        ids
    }

    fn surface_fn(&self) -> impl Fn(Coord) -> SurfaceKind + '_ {
        |c: Coord| match self.world.cover_at(c) {
            CoverClass::Water => SurfaceKind::Sea,
            CoverClass::Forest => SurfaceKind::Forest,
            CoverClass::Agriculture => SurfaceKind::Agriculture,
            CoverClass::Urban => SurfaceKind::Urban,
        }
    }

    /// Simulate one acquisition: generate the scene, archive it as a
    /// `.sev1` file, register it in the vault (metadata only — lazy
    /// policy), and describe it in Strabon. Returns the product id.
    pub fn acquire_scene(&mut self, spec: &AcquisitionSpec) -> Result<String> {
        let id = format!("scene_{:04}", self.next_scene);
        self.next_scene += 1;

        let scene_spec = SceneSpec {
            seed: spec.seed,
            rows: spec.rows,
            cols: spec.cols,
            bbox: self.region(),
            acquisition: spec.acquisition.clone(),
            satellite: spec.satellite.clone(),
            fires: spec.fires.clone(),
            cloud_cover: spec.cloud_cover,
            glint_rate: spec.glint_rate,
        };
        let surface = self.surface_fn();
        let scene = seviri::generate(&scene_spec, &surface)?;
        drop(surface);

        // Archive as an external file (the scientific file repository).
        let file = format!("{id}.sev1");
        let bbox = self.region();
        let header = Sev1Header {
            rows: spec.rows as u32,
            cols: spec.cols as u32,
            bands: 3,
            acquisition: spec.acquisition.clone(),
            bbox: (bbox.min.x, bbox.min.y, bbox.max.x, bbox.max.y),
        };
        let bytes = encode_sev1(&header, scene.raster.data.data())?;
        self.vault.repository_mut().put(&file, bytes);
        self.vault.register(&file)?;

        // Describe in the semantic catalog.
        metadata::describe_raw_image(&id, &scene.raster, self.strabon.store_mut());

        self.products.insert(
            id.clone(),
            ProductRecord {
                file,
                geo: scene.raster.geo,
                acquisition: spec.acquisition.clone(),
                satellite: spec.satellite.clone(),
                truth: scene.truth,
            },
        );
        Ok(id)
    }

    /// Fetch the full raster of a product through the Data Vault
    /// (materializing just in time).
    pub fn raster_for(&mut self, product_id: &str) -> Result<GeoRaster> {
        let rec = self
            .products
            .get(product_id)
            .ok_or_else(|| ObservatoryError::UnknownProduct(product_id.to_string()))?
            .clone();
        let array = self.vault.array_for(&rec.file)?;
        Ok(GeoRaster::new(array, rec.geo, rec.acquisition, rec.satellite)?)
    }

    /// Ground-truth fire mask of a product (simulation-only accessor for
    /// the accuracy experiments).
    pub fn truth_for(&self, product_id: &str) -> Result<NdArray> {
        self.products
            .get(product_id)
            .map(|r| r.truth.clone())
            .ok_or_else(|| ObservatoryError::UnknownProduct(product_id.to_string()))
    }

    /// Describe, publish and archive one chain output: derived-product
    /// metadata in Strabon, hotspot features as stRDF, and the hotspot
    /// mask back into the vault as a `.gtf1` product. `chain_id` names
    /// the chain variant that actually produced the output (a degraded
    /// variant under supervision). Returns the derived product id and
    /// the number of features published.
    fn publish_chain_output(
        &mut self,
        product_id: &str,
        chain_id: &str,
        output: &ChainOutput,
    ) -> Result<(String, usize)> {
        let derived_id = format!("{product_id}-{chain_id}");

        // Derived-product metadata.
        let footprint = teleios_geo::Geometry::Polygon(
            teleios_geo::geometry::Polygon::from_envelope(&output.raster.envelope()),
        );
        metadata::describe_derived(
            &derived_id,
            product_id,
            chain_id,
            &footprint,
            self.strabon.store_mut(),
        );

        // Publish the shapefile.
        let features_published =
            publish_hotspots(&output.features, product_id, chain_id, &mut self.strabon);

        // Archive the derived hotspot mask back into the vault as a
        // georeferenced `.gtf1` product, so later sessions can discover
        // and reload it without re-running the chain.
        let geo = &output.raster.geo;
        let header = Gtf1Header {
            rows: output.raster.rows() as u32,
            cols: output.raster.cols() as u32,
            transform: (geo.origin_x, geo.origin_y, geo.pixel_w, geo.pixel_h),
            epsg: 4326,
        };
        let bytes = encode_gtf1(&header, output.mask.data())?;
        let file = format!("{derived_id}.gtf1");
        self.vault.repository_mut().put(&file, bytes);
        self.vault.register(&file)?;

        Ok((derived_id, features_published))
    }

    /// Run a processing chain on a product: the five modules execute,
    /// the derived product is described in Strabon, and the hotspot
    /// shapefile is published as stRDF. Failures (other than an unknown
    /// product id) come back as [`ObservatoryError::Chain`] naming the
    /// product.
    pub fn run_chain(&mut self, product_id: &str, chain: &ProcessingChain) -> Result<ChainReport> {
        self.run_chain_inner(product_id, chain).map_err(|e| match e {
            e @ ObservatoryError::UnknownProduct(_) => e,
            other => ObservatoryError::Chain {
                product_id: product_id.to_string(),
                source: Box::new(other),
            },
        })
    }

    fn run_chain_inner(
        &mut self,
        product_id: &str,
        chain: &ProcessingChain,
    ) -> Result<ChainReport> {
        let raster = self.raster_for(product_id)?;
        let output = chain.run(&self.db, product_id, &raster)?;
        let (derived_id, features_published) =
            self.publish_chain_output(product_id, &chain.id(), &output)?;
        Ok(ChainReport { derived_id, output, features_published })
    }

    /// Run a processing chain over many products under supervision:
    /// per-scene isolation, retries, degraded-mode fallbacks and
    /// per-attempt deadlines per the [`Supervisor`]. Scenes whose vault
    /// load fails (unknown product, quarantined or corrupt file) become
    /// `Failed` reports — they never abort the batch or stop healthy
    /// scenes. Successful outputs are described, published and
    /// archived exactly like [`Self::run_chain`] products, labeled with
    /// the chain variant that produced them. Reports come back in input
    /// order, one per distinct id: a repeated id runs and reports once.
    pub fn run_chain_batch(
        &mut self,
        product_ids: &[String],
        chain: &ProcessingChain,
        supervisor: &Supervisor,
    ) -> Result<BatchReport> {
        // A repeated id runs once and reports once, at its first
        // position.
        let mut seen = HashSet::new();
        let ids: Vec<&String> =
            product_ids.iter().filter(|id| seen.insert(id.as_str())).collect();

        // Load scenes through the Data Vault; a failed load is a
        // per-scene failure, not a batch error.
        let mut loaded: Vec<(String, GeoRaster)> = Vec::new();
        let mut load_errors: Vec<Option<String>> = Vec::with_capacity(ids.len());
        for &id in &ids {
            match self.raster_for(id) {
                Ok(raster) => {
                    loaded.push((id.clone(), raster));
                    load_errors.push(None);
                }
                Err(e) => {
                    let e = ObservatoryError::Chain { product_id: id.clone(), source: Box::new(e) };
                    load_errors.push(Some(e.to_string()));
                }
            }
        }

        let supervised = supervisor.run_batch(&self.db, chain, &loaded);
        // One report per loaded scene, in `loaded` order.
        let mut reports = supervised.scenes.into_iter();
        let mut scenes = Vec::with_capacity(ids.len());
        for (id, load_error) in ids.into_iter().zip(load_errors) {
            if let Some(reason) = load_error {
                scenes.push(SceneReport {
                    product_id: id.clone(),
                    outcome: SceneOutcome::Failed { reason },
                    output: None,
                    chain_id: chain.id(),
                    attempts: 0,
                    timed_out_stages: Vec::new(),
                });
                continue;
            }
            let Some(mut report) = reports.next() else {
                break;
            };
            if let Some(output) = report.output.take() {
                match self.publish_chain_output(id, &report.chain_id, &output) {
                    Ok(_) => report.output = Some(output),
                    Err(e) => {
                        report.outcome = SceneOutcome::Failed {
                            reason: format!("publishing {id} failed: {e}"),
                        };
                    }
                }
            }
            scenes.push(report);
        }
        Ok(BatchReport { scenes, wall_clock: supervised.wall_clock })
    }

    /// The one supervised per-product loop: each product's `pass` runs
    /// in isolation (panics caught) under a cooperative `deadline`
    /// checked between products — an in-progress pass is never
    /// interrupted, but once the budget is spent the remaining products
    /// are `Skipped`. A repeated id runs and reports once, at its first
    /// position. `name` labels the pass in skip and panic reasons.
    fn per_product(
        &mut self,
        product_ids: &[String],
        deadline: Duration,
        name: &str,
        mut pass: impl FnMut(&mut Observatory, &str) -> Result<()>,
    ) -> Vec<ProductReport> {
        let started = Instant::now();
        let mut seen = HashSet::new();
        product_ids
            .iter()
            .filter(|id| seen.insert(id.as_str()))
            .map(|id| {
                let outcome = if started.elapsed() >= deadline {
                    ProductOutcome::Skipped {
                        reason: format!("{name} deadline {deadline:?} exhausted"),
                    }
                } else {
                    match catch_unwind(AssertUnwindSafe(|| pass(self, id))) {
                        Ok(Ok(())) => ProductOutcome::Ok,
                        Ok(Err(e)) => ProductOutcome::Failed { reason: e.to_string() },
                        Err(payload) => ProductOutcome::Failed {
                            reason: format!("{name} panicked: {}", panic_message(payload.as_ref())),
                        },
                    }
                };
                ProductReport { product_id: id.clone(), outcome }
            })
            .collect()
    }

    /// Supervised scenario-2 refinement: each product is refined in its
    /// own isolated pass (product-scoped stSPARQL updates, panics
    /// caught) under a cooperative `deadline` checked between
    /// products. The report always covers every input product; a
    /// poisoned product costs exactly its own entry.
    pub fn refine_products_supervised(
        &mut self,
        product_ids: &[String],
        deadline: Duration,
    ) -> RefineReport {
        let started = Instant::now();
        let landmass = emit::landmass_literal(&self.world);
        let mut stats = RefineStats { before: 0, kept: 0, refuted: 0, clipped: 0 };
        let products = self.per_product(product_ids, deadline, "refinement", |obs, id| {
            let s = refine_product_against_landmass(&mut obs.strabon, &landmass, id)?;
            stats.before += s.before;
            stats.kept += s.kept;
            stats.refuted += s.refuted;
            stats.clipped += s.clipped;
            Ok(())
        });
        RefineReport { products, stats, wall_clock: started.elapsed() }
    }

    /// stSPARQL search over products, annotations and linked data.
    pub fn search(&mut self, stsparql: &str) -> Result<Solutions> {
        Ok(self.strabon.query(stsparql)?)
    }

    /// SQL over the relational side.
    pub fn sql(&self, sql: &str) -> Result<ResultSet> {
        Ok(self.db.execute(sql)?)
    }

    /// SciQL over the array side.
    pub fn sciql(&self, sciql: &str) -> Result<SciqlResult> {
        Ok(teleios_sciql::execute(&self.db, sciql)?)
    }

    /// Rapid mapping: generate the fire map for a region.
    pub fn fire_map(&mut self, region: &Envelope) -> Result<FireMap> {
        Ok(build_fire_map(&mut self.strabon, region)?)
    }

    /// One product's refined mask — its surviving hotspot geometries
    /// rasterized onto the product's grid — with that grid and the
    /// acquisition time.
    fn refined_mask(&mut self, product_id: &str) -> Result<(NdArray, GeoTransform, String)> {
        let raster = self.raster_for(product_id)?;
        let survivors =
            teleios_noa::refine::surviving_hotspot_geometries(&mut self.strabon, product_id)?;
        let polys: Vec<&teleios_geo::geometry::Polygon> = survivors.iter().collect();
        let mask = teleios_noa::refine::features_to_mask(
            &polys,
            &raster.geo,
            raster.rows(),
            raster.cols(),
        );
        Ok((mask, raster.geo, raster.acquisition))
    }

    /// Derive and publish a burnt-area product from the refined hotspot
    /// masks of the given (same-grid) products. Each product's mask is
    /// built in isolation (panics caught, per-product failures recorded)
    /// under a cooperative `deadline` checked between products; the
    /// scar features are then derived from whatever masks survived and
    /// published under `event_id`, valid from the first to the last of
    /// their acquisitions. Zero surviving masks is a valid partial
    /// result — a report with no features — not an error. `Err` is
    /// reserved for the final cross-product aggregation failing (e.g.
    /// products on different grids).
    pub fn derive_burnt_area(
        &mut self,
        product_ids: &[String],
        event_id: &str,
        deadline: Duration,
    ) -> Result<BurntAreaReport> {
        let started = Instant::now();
        let mut masks = Vec::new();
        let mut geo: Option<GeoTransform> = None;
        let mut times: Vec<String> = Vec::new();
        let products = self.per_product(product_ids, deadline, "burnt-area", |obs, id| {
            let (mask, g, t) = obs.refined_mask(id)?;
            masks.push(mask);
            geo.get_or_insert(g);
            times.push(t);
            Ok(())
        });
        // No mask survived: report the losses instead of erroring.
        let Some(geo) = geo else {
            return Ok(BurntAreaReport { products, stats: 0, wall_clock: started.elapsed() });
        };
        times.sort();
        let period = teleios_rdf::strdf::Period::new(
            times.first().cloned().unwrap_or_default(),
            times.last().cloned().unwrap_or_default(),
        );
        let features = teleios_noa::burnt::burnt_area_features(&masks, &geo)?;
        teleios_noa::burnt::publish_burnt_area(&features, event_id, &period, &mut self.strabon);
        Ok(BurntAreaReport { products, stats: features.len(), wall_clock: started.elapsed() })
    }

    /// The semantic-annotation service (Fig. 2): cut the product into
    /// patches, classify each with `classifier`, and publish the
    /// annotations as stRDF. Returns the number of annotations.
    pub fn annotate_product(
        &mut self,
        product_id: &str,
        patch_size: usize,
        classifier: &teleios_mining::Classifier,
    ) -> Result<usize> {
        let raster = self.raster_for(product_id)?;
        let patches = teleios_ingest::features::extract_patches(&raster, patch_size)?;
        Ok(teleios_mining::annotate::annotate_product(
            product_id,
            &patches,
            classifier,
            self.strabon.store_mut(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teleios_noa::accuracy;

    fn observatory() -> Observatory {
        Observatory::with_defaults(42)
    }

    /// Test-only views of a pass report.
    impl<S> PassReport<S> {
        fn failed_count(&self) -> usize {
            self.count(|o| matches!(o, ProductOutcome::Failed { .. }))
        }

        fn report_for(&self, product_id: &str) -> Option<&ProductReport> {
            self.products.iter().find(|p| p.product_id == product_id)
        }
    }

    /// Train a fire/land patch classifier from the ground truth of the
    /// given products (the simulation stand-in for the analyst-labeled
    /// training sets of the KDD pipeline).
    fn train_patch_classifier(
        obs: &mut Observatory,
        product_ids: &[String],
        patch_size: usize,
        k: usize,
    ) -> Result<teleios_mining::Classifier> {
        use teleios_mining::classify::LabeledExample;
        use teleios_mining::ontology::concept;
        let mut examples = Vec::new();
        for id in product_ids {
            let raster = obs.raster_for(id)?;
            let truth = obs.truth_for(id)?;
            for p in teleios_ingest::features::extract_patches(&raster, patch_size)? {
                let r0 = p.py * patch_size;
                let c0 = p.px * patch_size;
                let burning = (r0..r0 + patch_size).any(|r| {
                    (c0..c0 + patch_size)
                        .any(|c| truth.get(&[r, c]).unwrap_or(0.0) > 0.0)
                });
                examples.push(LabeledExample {
                    features: p.features,
                    label: if burning {
                        concept("ForestFire")
                    } else {
                        concept("LandCover")
                    },
                });
            }
        }
        Ok(teleios_mining::Classifier::train_knn(k, examples))
    }

    #[test]
    fn world_and_linked_data_loaded() {
        let obs = observatory();
        assert!(obs.strabon.len() > 100);
        assert!(!obs.ontology.is_empty());
    }

    #[test]
    fn acquire_registers_and_describes() {
        let mut obs = observatory();
        let id = obs.acquire_scene(&AcquisitionSpec::small_test(1)).unwrap();
        assert_eq!(id, "scene_0000");
        assert_eq!(obs.vault.catalog().len(), 1);
        // Lazy vault: no payload materialized yet.
        assert_eq!(obs.vault.stats().materializations, 0);
        // The product is findable by stSPARQL.
        let sols = obs
            .search(
                "PREFIX noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#> \
                 SELECT ?p WHERE { ?p a noa:RawImage }",
            )
            .unwrap();
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn raster_materializes_on_demand() {
        let mut obs = observatory();
        let id = obs.acquire_scene(&AcquisitionSpec::small_test(2)).unwrap();
        let raster = obs.raster_for(&id).unwrap();
        assert_eq!(raster.bands(), 3);
        assert_eq!(obs.vault.stats().materializations, 1);
        // Second access hits the cache.
        obs.raster_for(&id).unwrap();
        assert_eq!(obs.vault.stats().materializations, 1);
    }

    #[test]
    fn chain_run_publishes_hotspots() {
        let mut obs = observatory();
        let id = obs.acquire_scene(&AcquisitionSpec::small_test(3)).unwrap();
        let report = obs.run_chain(&id, &ProcessingChain::operational()).unwrap();
        assert!(report.output.hotspot_pixels() > 0);
        assert!(report.features_published > 0);
        let sols = obs
            .search(
                "PREFIX noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#> \
                 SELECT ?h WHERE { ?h a noa:Hotspot }",
            )
            .unwrap();
        assert!(!sols.is_empty());
        // The derived product links back to the raw one.
        let derived = obs
            .search(&format!(
                "PREFIX noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#> \
                 SELECT ?d WHERE {{ ?d noa:isDerivedFrom <http://teleios.di.uoa.gr/products/{id}> . \
                 ?d a noa:DerivedProduct }}"
            ))
            .unwrap();
        assert_eq!(derived.len(), 1);
    }

    #[test]
    fn handed_out_arrays_are_isolated_from_the_observatory() {
        let mut obs = observatory();
        let id = obs.acquire_scene(&AcquisitionSpec::small_test(4)).unwrap();
        let (truth, raster) = (obs.truth_for(&id).unwrap(), obs.raster_for(&id).unwrap());
        let mut scribbled = obs.truth_for(&id).unwrap();
        scribbled.data_mut().iter_mut().for_each(|c| *c = 7.0);
        let mut scribbled = obs.raster_for(&id).unwrap().data;
        scribbled.data_mut().iter_mut().for_each(|c| *c = 7.0);
        assert_eq!(obs.truth_for(&id).unwrap(), truth);
        assert_eq!(obs.raster_for(&id).unwrap(), raster);
    }

    #[test]
    fn refinement_improves_precision() {
        let mut obs = observatory();
        let mut spec = AcquisitionSpec::small_test(4);
        spec.glint_rate = 0.03; // plenty of sea false positives
        spec.cloud_cover = 0.0;
        let id = obs.acquire_scene(&spec).unwrap();
        let report = obs.run_chain(&id, &ProcessingChain::operational()).unwrap();

        // Accuracy before refinement.
        let truth = obs.truth_for(&id).unwrap();
        let before = accuracy::score(&report.output.mask, &truth).unwrap();

        let report = obs.refine_products_supervised(&obs.product_ids(), Duration::MAX);
        assert!(report.is_complete());
        assert!(report.stats.refuted > 0, "expected sea hotspots to be refuted");

        // Accuracy after: rasterize surviving features.
        let survivors =
            teleios_noa::refine::surviving_hotspot_geometries(&mut obs.strabon, &id).unwrap();
        let polys: Vec<&teleios_geo::geometry::Polygon> = survivors.iter().collect();
        let raster = obs.raster_for(&id).unwrap();
        let refined_mask = teleios_noa::refine::features_to_mask(
            &polys,
            &raster.geo,
            raster.rows(),
            raster.cols(),
        );
        let after = accuracy::score(&refined_mask, &truth).unwrap();
        assert!(
            after.precision() >= before.precision(),
            "precision got worse: {} -> {}",
            before.precision(),
            after.precision()
        );
        assert!(after.false_positives < before.false_positives);
    }

    #[test]
    fn sql_and_sciql_entry_points() {
        let mut obs = observatory();
        let id = obs.acquire_scene(&AcquisitionSpec::small_test(5)).unwrap();
        obs.run_chain(&id, &ProcessingChain::operational()).unwrap();
        // The ingested band array is visible to SciQL.
        let max = obs
            .sciql(&format!("SELECT MAX(v) FROM {id}_band1"))
            .unwrap()
            .scalar()
            .unwrap();
        assert!(max > 300.0);
        // SQL works on the relational side.
        obs.sql("CREATE TABLE notes (id INT, note STRING)").unwrap();
        obs.sql("INSERT INTO notes VALUES (1, 'ok')").unwrap();
        let rs = obs.sql("SELECT COUNT(*) AS n FROM notes").unwrap();
        assert_eq!(rs.rows[0][0], teleios_monet::Value::Int(1));
    }

    #[test]
    fn fire_map_includes_hotspots_after_chain() {
        let mut obs = observatory();
        let id = obs.acquire_scene(&AcquisitionSpec::small_test(6)).unwrap();
        obs.run_chain(&id, &ProcessingChain::operational()).unwrap();
        let region = obs.region();
        let map = obs.fire_map(&region).unwrap();
        assert!(!map.layer("hotspots").unwrap().features.is_empty());
        assert!(!map.layer("places").unwrap().features.is_empty());
    }

    #[test]
    fn supervised_refinement_isolates_a_poisoned_product() {
        let mut obs = observatory();
        let mut ids = Vec::new();
        for i in 0..2 {
            let mut spec = AcquisitionSpec::small_test(30 + i);
            spec.glint_rate = 0.03;
            spec.cloud_cover = 0.0;
            let id = obs.acquire_scene(&spec).unwrap();
            obs.run_chain(&id, &ProcessingChain::operational()).unwrap();
            ids.push(id);
        }
        // A product id with a space poisons its scoped stSPARQL update
        // (the IRI no longer lexes); healthy products must not notice.
        let with_poison =
            vec![ids[0].clone(), "bad id".to_string(), ids[1].clone()];
        let report =
            obs.refine_products_supervised(&with_poison, Duration::from_secs(3600));
        assert_eq!(report.products.len(), 3);
        assert_eq!(report.ok_count(), 2);
        assert_eq!(report.failed_count(), 1);
        assert!(!report.is_complete());
        assert!(matches!(
            &report.report_for("bad id").unwrap().outcome,
            ProductOutcome::Failed { .. }
        ));
        // The healthy products were actually refined.
        assert!(report.stats.before > 0);
        assert!(report.stats.refuted > 0, "expected sea hotspots refuted");
    }

    #[test]
    fn supervised_refinement_deadline_skips_the_tail() {
        let mut obs = observatory();
        let id = obs.acquire_scene(&AcquisitionSpec::small_test(7)).unwrap();
        obs.run_chain(&id, &ProcessingChain::operational()).unwrap();
        let report =
            obs.refine_products_supervised(std::slice::from_ref(&id), Duration::ZERO);
        assert_eq!(report.ok_count(), 0);
        assert_eq!(report.products.len(), 1);
        assert!(matches!(
            &report.report_for(&id).unwrap().outcome,
            ProductOutcome::Skipped { reason } if reason.contains("deadline")
        ));
        assert_eq!(report.stats.before, 0);
    }

    #[test]
    fn supervised_refinement_runs_and_reports_a_repeated_id_once() {
        // One product asked for `n` times, on a fresh observatory.
        let refine = |n: usize| {
            let mut obs = observatory();
            let mut spec = AcquisitionSpec::small_test(4);
            spec.glint_rate = 0.03;
            spec.cloud_cover = 0.0;
            let a = obs.acquire_scene(&spec).unwrap();
            obs.run_chain(&a, &ProcessingChain::operational()).unwrap();
            obs.refine_products_supervised(&vec![a; n], Duration::MAX)
        };
        let (once, twice) = (refine(1), refine(2));
        assert_eq!(twice.products, once.products);
        assert_eq!(twice.stats, once.stats);
        assert!(once.stats.refuted > 0 && once.stats.kept > 0, "{:?}", once.stats);
    }

    #[test]
    fn supervised_burnt_area_reports_partial_results() {
        let mut obs = observatory();
        let center = obs.region().center();
        let mut ids = Vec::new();
        for i in 0..3 {
            let mut spec = AcquisitionSpec::small_test(40 + i);
            spec.cloud_cover = 0.0;
            spec.fires = vec![teleios_ingest::seviri::FireEvent {
                center: Coord::new(center.x + i as f64 * 0.05, center.y),
                radius: 0.08,
                intensity: 0.9,
            }];
            let id = obs.acquire_scene(&spec).unwrap();
            obs.run_chain(&id, &ProcessingChain::operational()).unwrap();
            ids.push(id);
        }
        assert!(obs.refine_products_supervised(&ids, Duration::MAX).is_complete());
        let burnt = |obs: &mut Observatory| {
            let query = format!("SELECT ?b WHERE {{ ?b a <{}> }}", teleios_noa::burnt::BURNT_AREA);
            obs.search(&query).unwrap().len()
        };
        // Every product healthy: the scars of all three masks.
        let healthy = obs.derive_burnt_area(&ids, "event-1", Duration::MAX).unwrap();
        assert!(healthy.is_complete());
        assert!(healthy.stats > 0);
        assert_eq!(burnt(&mut obs), healthy.stats);
        // A ghost product fails its own mask pass; the scars still come
        // from the three healthy masks.
        let mut with_ghost = ids.clone();
        with_ghost.insert(1, "ghost".to_string());
        let report = obs.derive_burnt_area(&with_ghost, "event-s1", Duration::MAX).unwrap();
        assert_eq!(report.products.len(), 4);
        assert_eq!(report.ok_count(), 3);
        assert_eq!(report.failed_count(), 1);
        assert_eq!(report.stats, healthy.stats);
        assert!(matches!(
            &report.report_for("ghost").unwrap().outcome,
            ProductOutcome::Failed { .. }
        ));
        assert_eq!(burnt(&mut obs), healthy.stats + report.stats);
    }

    #[test]
    fn supervised_burnt_area_with_no_surviving_mask_is_a_report_not_an_error() {
        let mut obs = observatory();
        let report =
            obs.derive_burnt_area(&["ghost".to_string()], "event-s2", Duration::MAX).unwrap();
        assert_eq!(report.stats, 0);
        assert_eq!(report.failed_count(), 1);
        assert_eq!(report.ok_count(), 0);
    }

    #[test]
    fn annotation_service() {
        let mut obs = observatory();
        let mut spec = AcquisitionSpec::small_test(30);
        spec.cloud_cover = 0.0;
        let id = obs.acquire_scene(&spec).unwrap();
        let classifier = train_patch_classifier(&mut obs, std::slice::from_ref(&id), 8, 3).unwrap();
        let n = obs.annotate_product(&id, 8, &classifier).unwrap();
        assert_eq!(n, 64); // 64x64 scene, 8x8 patches
        // Concept search through the mining API finds the product.
        let hits = teleios_mining::annotate::find_products_by_concept(
            &teleios_mining::ontology::concept("Fire"),
            &obs.ontology,
            obs.strabon.store(),
        );
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn writes_around_strabon_answer_like_a_freshly_loaded_engine() {
        let mut obs = observatory();
        let site = obs.world.sites[0].location;
        let mut ids = Vec::new();
        for seed in [9, 10] {
            let mut spec = AcquisitionSpec::small_test(seed);
            spec.cloud_cover = 0.0;
            spec.glint_rate = 0.03;
            spec.fires = vec![FireEvent { center: Coord::new(site.x + 0.02, site.y), radius: 0.09, intensity: 0.95 }];
            ids.push(obs.acquire_scene(&spec).unwrap());
        }
        let flagship = crate::portal::flagship_query("MSG2", "2007-08-25", 0.3);
        // A query between the writes leaves the sidecar part-way through
        // the dictionary, so every later store_mut() write must be
        // caught up, not just read once.
        obs.search(&flagship).unwrap();
        obs.run_chain(&ids[0], &ProcessingChain::operational()).unwrap();
        let classifier =
            train_patch_classifier(&mut obs, std::slice::from_ref(&ids[0]), 8, 3).unwrap();
        obs.annotate_product(&ids[0], 8, &classifier).unwrap();
        assert_eq!(obs.refine_products_supervised(&ids, Duration::from_secs(3600)).ok_count(), 2);
        let answer = obs.search(&flagship).unwrap();
        assert!(!answer.is_empty(), "flagship query found nothing");
        let mut fresh = Strabon::new();
        *fresh.store_mut() = obs.strabon.store().clone();
        assert_eq!(fresh.query(&flagship).unwrap(), answer);
        assert_eq!(fresh.explain(&flagship).unwrap(), obs.strabon.explain(&flagship).unwrap());
    }

    #[test]
    fn derived_products_are_archived_and_reloadable() {
        let mut obs = observatory();
        let id = obs.acquire_scene(&AcquisitionSpec::small_test(8)).unwrap();
        let report = obs.run_chain(&id, &ProcessingChain::operational()).unwrap();
        // The derived mask lives in the vault catalog as a gtf1 product.
        assert_eq!(obs.vault.catalog().len(), 2); // raw + derived
        let reloaded = obs.vault.array_for(&format!("{}.gtf1", report.derived_id)).unwrap();
        assert_eq!(reloaded.shape()[0] * reloaded.shape()[1], 64 * 64);
        assert_eq!(
            reloaded.data().iter().filter(|&&v| v > 0.0).count(),
            report.output.hotspot_pixels()
        );
    }

    #[test]
    fn unknown_product_errors() {
        let mut obs = observatory();
        assert!(matches!(
            obs.raster_for("nope"),
            Err(ObservatoryError::UnknownProduct(_))
        ));
        assert!(obs.truth_for("nope").is_err());
    }

    #[test]
    fn multiple_acquisitions_get_distinct_ids() {
        let mut obs = observatory();
        let a = obs.acquire_scene(&AcquisitionSpec::small_test(1)).unwrap();
        let b = obs.acquire_scene(&AcquisitionSpec::small_test(2)).unwrap();
        assert_ne!(a, b);
        assert_eq!(obs.product_ids(), vec![a, b]);
    }

    #[test]
    fn run_chain_wraps_failures_with_the_product_id() {
        let mut obs = observatory();
        // Unknown products keep their dedicated error...
        assert!(matches!(
            obs.run_chain("nope", &ProcessingChain::operational()),
            Err(ObservatoryError::UnknownProduct(_))
        ));
        // ...while a real chain failure names the product.
        let id = obs.acquire_scene(&AcquisitionSpec::small_test(60)).unwrap();
        let mut plan = teleios_resilience::FaultPlan::new();
        plan.inject(id.clone(), teleios_resilience::Fault::CorruptPayload);
        plan.apply_to_repository(obs.vault.repository_mut());
        let err = obs.run_chain(&id, &ProcessingChain::operational()).unwrap_err();
        assert!(matches!(&err, ObservatoryError::Chain { product_id, .. } if *product_id == id));
        assert!(err.to_string().contains("corrupt"));
    }

    #[test]
    fn run_chain_batch_supervises_and_publishes() {
        let mut obs = observatory();
        let mut ids = Vec::new();
        for i in 0..3 {
            ids.push(obs.acquire_scene(&AcquisitionSpec::small_test(40 + i)).unwrap());
        }
        // Ask for an unknown product too: it must fail alone.
        let mut requested = ids.clone();
        requested.push("ghost".to_string());
        let supervisor = Supervisor::new(1);
        let report = obs
            .run_chain_batch(&requested, &ProcessingChain::operational(), &supervisor)
            .unwrap();
        assert_eq!(report.scenes.len(), 4);
        assert_eq!(report.succeeded_count(), 3);
        assert_eq!(report.failed_count(), 1);
        let ghost = report.report_for("ghost").unwrap();
        assert!(
            matches!(&ghost.outcome, SceneOutcome::Failed { reason } if reason.contains("ghost"))
        );
        // Healthy scenes were published and archived like run_chain's.
        for id in &ids {
            let scene = report.report_for(id).unwrap();
            assert_eq!(scene.outcome, SceneOutcome::Ok);
            assert!(scene.output.is_some());
            assert!(obs
                .vault
                .catalog()
                .get(&format!("{id}-threshold-318.gtf1"))
                .is_some());
        }
        let hotspots = obs
            .search(
                "PREFIX noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#> \
                 SELECT ?h WHERE { ?h a noa:Hotspot }",
            )
            .unwrap();
        assert!(!hotspots.is_empty());
    }

    #[test]
    fn run_chain_batch_runs_and_reports_a_repeated_id_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        use teleios_noa::chain::ChainStage;
        let mut obs = observatory();
        let a = obs.acquire_scene(&AcquisitionSpec::small_test(70)).unwrap();
        let ingests = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&ingests);
        let chain = ProcessingChain::operational().with_stage_hook(Arc::new(
            move |_: &str, stage: ChainStage, _: &ProcessingChain| {
                if stage == ChainStage::Ingest {
                    counter.fetch_add(1, Ordering::SeqCst);
                }
                Ok(())
            },
        ));
        let requested = [a.clone(), a.clone(), "ghost".to_string(), "ghost".to_string()];
        let report = obs.run_chain_batch(&requested, &chain, &Supervisor::new(0)).unwrap();
        let got: Vec<(&str, bool)> =
            report.scenes.iter().map(|s| (s.product_id.as_str(), s.outcome.succeeded())).collect();
        assert_eq!(got, vec![(a.as_str(), true), ("ghost", false)]);
        assert!(
            matches!(&report.scenes[1].outcome, SceneOutcome::Failed { reason } if reason.contains("ghost"))
        );
        assert_eq!(ingests.load(Ordering::SeqCst), 1, "the repeated id ran more than once");
    }

    #[test]
    fn run_chain_batch_quarantines_corrupt_scenes_without_losing_healthy_ones() {
        use teleios_resilience::{Fault, FaultPlan};
        let mut obs = observatory();
        let mut spec = AcquisitionSpec::small_test(50);
        spec.cloud_cover = 0.0;
        let a = obs.acquire_scene(&spec).unwrap();
        let b = obs.acquire_scene(&AcquisitionSpec::small_test(51)).unwrap();
        let mut plan = FaultPlan::new();
        plan.inject(b.clone(), Fault::CorruptPayload);
        assert_eq!(plan.apply_to_repository(obs.vault.repository_mut()), 1);

        let supervisor = Supervisor::new(1);
        let report = obs
            .run_chain_batch(
                &[a.clone(), b.clone()],
                &ProcessingChain::operational(),
                &supervisor,
            )
            .unwrap();
        assert_eq!(report.report_for(&a).unwrap().outcome, SceneOutcome::Ok);
        let bad = report.report_for(&b).unwrap();
        assert!(
            matches!(&bad.outcome, SceneOutcome::Failed { reason } if reason.contains("corrupt"))
        );
        // The corrupt file sits in quarantine with its stats counted.
        assert!(obs.vault.is_quarantined(&format!("{b}.sev1")));
        assert_eq!(obs.vault.stats().decode_failures, 1);
    }
}
