//! The two drivers a workload can run on.
//!
//! [`Engine`] is the slice of the observatory's surface the workloads
//! use. The untraced run drives the real [`Observatory`]. The traced
//! run drives [`Mirror`]: the same methods assembled from the layers'
//! public functions, with a span around every call into a layer. The
//! mirror has to prove itself — the runner compares its digests and
//! counts against the `Observatory` run's and fails the run when they
//! differ — because nothing else keeps it in step with
//! `crates/core/src/observatory.rs`.

use crate::trace::Tracer;
use std::collections::HashMap;
use std::time::Duration;
use teleios_core::observatory::{AcquisitionSpec, ChainReport};
use teleios_core::{Observatory, ProductOutcome};
use teleios_geo::geometry::Polygon;
use teleios_geo::{Coord, Envelope, Geometry};
use teleios_ingest::raster::{GeoRaster, GeoTransform};
use teleios_ingest::seviri::{self, SceneSpec, SurfaceKind};
use teleios_ingest::{features, metadata};
use teleios_linked::emit;
use teleios_linked::world::{CoverClass, World, WorldSpec};
use teleios_mining::ontology::Ontology;
use teleios_mining::Classifier;
use teleios_monet::array::NdArray;
use teleios_monet::catalog::ResultSet;
use teleios_monet::Catalog;
use teleios_noa::firemap::{build_fire_map, FireMap};
use teleios_noa::refine::{
    publish_hotspots, refinement_updates_scoped, RefineStats, REFUTED_HOTSPOT,
};
use teleios_noa::ProcessingChain;
use teleios_rdf::vocab::noa;
use teleios_strabon::{Solutions, Strabon};
use teleios_vault::format::{encode_gtf1, encode_sev1, Gtf1Header, Sev1Header};
use teleios_vault::repository::Repository;
use teleios_vault::{DataVault, IngestionPolicy};

/// Harness-level result: any layer's error, rendered.
pub type Res<T> = Result<T, String>;

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Direct access to the stores, for persist ports, stats and probes.
pub struct Stores<'a> {
    /// The array/SQL database.
    pub db: &'a Catalog,
    /// The semantic store.
    pub strabon: &'a mut Strabon,
    /// The Data Vault.
    pub vault: &'a mut DataVault,
    /// The synthetic world.
    pub world: &'a World,
}

/// What a workload needs from an observatory.
pub trait Engine<'t>: Sized {
    /// Build one over a generated world; `tracer` receives the spans
    /// (ignored by the real observatory).
    fn create(world: WorldSpec, tracer: &'t Tracer) -> Self;
    /// Generate, archive, register and describe one scene (set-up).
    fn acquire_scene(&mut self, spec: &AcquisitionSpec) -> Res<String>;
    /// The product's raster, through the vault.
    fn raster_for(&mut self, product_id: &str) -> Res<GeoRaster>;
    /// Ground-truth fire mask of a product.
    fn truth_for(&self, product_id: &str) -> Res<NdArray>;
    /// Run a processing chain and publish its output.
    fn run_chain(&mut self, product_id: &str, chain: &ProcessingChain) -> Res<ChainReport>;
    /// Annotate the product's patches.
    fn annotate_product(
        &mut self,
        product_id: &str,
        patch: usize,
        classifier: &Classifier,
    ) -> Res<usize>;
    /// Scenario-2 refinement of one product.
    fn refine_product(&mut self, product_id: &str) -> Res<RefineStats>;
    /// stSPARQL query.
    fn search(&mut self, stsparql: &str) -> Res<Solutions>;
    /// Rapid-mapping fire map.
    fn fire_map(&mut self, region: &Envelope) -> Res<FireMap>;
    /// SQL statement.
    fn sql(&mut self, sql: &str) -> Res<ResultSet>;
    /// SciQL statement with a scalar answer.
    fn sciql_scalar(&mut self, sciql: &str) -> Res<f64>;
    /// The stores behind the facade.
    fn stores(&mut self) -> Stores<'_>;
}

impl<'t> Engine<'t> for Observatory {
    fn create(world: WorldSpec, _tracer: &'t Tracer) -> Self {
        Observatory::new(world)
    }

    fn acquire_scene(&mut self, spec: &AcquisitionSpec) -> Res<String> {
        Observatory::acquire_scene(self, spec).map_err(text)
    }

    fn raster_for(&mut self, product_id: &str) -> Res<GeoRaster> {
        Observatory::raster_for(self, product_id).map_err(text)
    }

    fn truth_for(&self, product_id: &str) -> Res<NdArray> {
        Observatory::truth_for(self, product_id).map_err(text)
    }

    fn run_chain(&mut self, product_id: &str, chain: &ProcessingChain) -> Res<ChainReport> {
        Observatory::run_chain(self, product_id, chain).map_err(text)
    }

    fn annotate_product(
        &mut self,
        product_id: &str,
        patch: usize,
        classifier: &Classifier,
    ) -> Res<usize> {
        Observatory::annotate_product(self, product_id, patch, classifier).map_err(text)
    }

    fn refine_product(&mut self, product_id: &str) -> Res<RefineStats> {
        let report =
            self.refine_products_supervised(&[product_id.to_string()], Duration::from_secs(3600));
        match report.products.first().map(|p| &p.outcome) {
            Some(ProductOutcome::Ok) => Ok(report.stats),
            Some(ProductOutcome::Failed { reason } | ProductOutcome::Skipped { reason }) => {
                Err(reason.clone())
            }
            None => Err("refinement returned no report".into()),
        }
    }

    fn search(&mut self, stsparql: &str) -> Res<Solutions> {
        Observatory::search(self, stsparql).map_err(text)
    }

    fn fire_map(&mut self, region: &Envelope) -> Res<FireMap> {
        Observatory::fire_map(self, region).map_err(text)
    }

    fn sql(&mut self, sql: &str) -> Res<ResultSet> {
        Observatory::sql(self, sql).map_err(text)
    }

    fn sciql_scalar(&mut self, sciql: &str) -> Res<f64> {
        Observatory::sciql(self, sciql)
            .and_then(|r| Ok(r.scalar()?))
            .map_err(text)
    }

    fn stores(&mut self) -> Stores<'_> {
        Stores {
            db: &self.db,
            strabon: &mut self.strabon,
            vault: &mut self.vault,
            world: &self.world,
        }
    }
}

/// What the mirror remembers per acquired product.
struct ProductRecord {
    file: String,
    geo: GeoTransform,
    acquisition: String,
    satellite: String,
    truth: NdArray,
}

/// The traced twin of [`Observatory`].
pub struct Mirror<'t> {
    db: Catalog,
    strabon: Strabon,
    vault: DataVault,
    world: World,
    products: HashMap<String, ProductRecord>,
    next_scene: usize,
    tracer: &'t Tracer,
}

impl Mirror<'_> {
    fn record(&self, product_id: &str) -> Res<&ProductRecord> {
        self.products
            .get(product_id)
            .ok_or_else(|| format!("unknown product {product_id}"))
    }

    fn update(&mut self, stsparql: &str) -> Res<usize> {
        let parsed = self
            .tracer
            .span("strabon.parse", || {
                teleios_strabon::parser::parse_update(stsparql)
            })
            .map_err(text)?;
        let strabon = &mut self.strabon;
        self.tracer
            .span("strabon.update", || {
                teleios_strabon::update::execute_update(strabon, &parsed)
            })
            .map_err(text)
    }

    /// `refine::refine_product_against_landmass`, statement by statement.
    fn refine_against(
        &mut self,
        landmass: &teleios_rdf::term::Term,
        product_id: &str,
    ) -> Res<RefineStats> {
        let count_query = |class: &str| {
            format!(
                "PREFIX noa: <{}>\n\
                 SELECT ?h WHERE {{ ?h a <{class}> ; \
                 noa:isDerivedFrom <http://teleios.di.uoa.gr/products/{product_id}> }}",
                noa::NS,
            )
        };
        let before = self.search(&count_query(noa::HOTSPOT))?.len();
        let [refute, clip] = refinement_updates_scoped(landmass, Some(product_id));
        self.update(&refute)?;
        // Each clipped hotspot contributes one delete plus one insert.
        let clipped = self.update(&clip)? / 2;
        let kept = self.search(&count_query(noa::HOTSPOT))?.len();
        let refuted = self.search(&count_query(REFUTED_HOTSPOT))?.len();
        Ok(RefineStats {
            before,
            kept,
            refuted,
            clipped,
        })
    }
}

impl<'t> Engine<'t> for Mirror<'t> {
    fn create(world_spec: WorldSpec, tracer: &'t Tracer) -> Self {
        let world = World::generate(world_spec);
        let mut strabon = Strabon::new();
        emit::emit_all(&world, strabon.store_mut());
        Ontology::teleios().emit(strabon.store_mut());
        let db = Catalog::new();
        let vault = DataVault::new(Repository::new(), db.clone(), IngestionPolicy::Lazy, 64);
        Mirror {
            db,
            strabon,
            vault,
            world,
            products: HashMap::new(),
            next_scene: 0,
            tracer,
        }
    }

    fn acquire_scene(&mut self, spec: &AcquisitionSpec) -> Res<String> {
        let id = format!("scene_{:04}", self.next_scene);
        self.next_scene += 1;
        let bbox = self.world.spec.bbox;
        let scene_spec = SceneSpec {
            seed: spec.seed,
            rows: spec.rows,
            cols: spec.cols,
            bbox,
            acquisition: spec.acquisition.clone(),
            satellite: spec.satellite.clone(),
            fires: spec.fires.clone(),
            cloud_cover: spec.cloud_cover,
            glint_rate: spec.glint_rate,
        };
        let world = &self.world;
        let surface = |c: Coord| match world.cover_at(c) {
            CoverClass::Water => SurfaceKind::Sea,
            CoverClass::Forest => SurfaceKind::Forest,
            CoverClass::Agriculture => SurfaceKind::Agriculture,
            CoverClass::Urban => SurfaceKind::Urban,
        };
        let scene = seviri::generate(&scene_spec, &surface).map_err(text)?;

        let file = format!("{id}.sev1");
        let header = Sev1Header {
            rows: spec.rows as u32,
            cols: spec.cols as u32,
            bands: 3,
            acquisition: spec.acquisition.clone(),
            bbox: (bbox.min.x, bbox.min.y, bbox.max.x, bbox.max.y),
        };
        let bytes = encode_sev1(&header, scene.raster.data.data()).map_err(text)?;
        self.vault.repository_mut().put(&file, bytes);
        let vault = &mut self.vault;
        self.tracer
            .span("vault.register", || vault.register(&file))
            .map_err(text)?;
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

    fn raster_for(&mut self, product_id: &str) -> Res<GeoRaster> {
        let rec = self.record(product_id)?;
        let (file, geo, acquisition, satellite) = (
            rec.file.clone(),
            rec.geo,
            rec.acquisition.clone(),
            rec.satellite.clone(),
        );
        // The vault serves a hit exactly when the array is resident.
        let name = if self.db.has_array(&DataVault::array_name(&file)) {
            "vault.hit"
        } else {
            "vault.materialize"
        };
        let vault = &mut self.vault;
        let array = self
            .tracer
            .span(name, || vault.array_for(&file))
            .map_err(text)?;
        GeoRaster::new(array, geo, acquisition, satellite).map_err(text)
    }

    fn truth_for(&self, product_id: &str) -> Res<NdArray> {
        self.record(product_id).map(|r| r.truth.clone())
    }

    fn run_chain(&mut self, product_id: &str, chain: &ProcessingChain) -> Res<ChainReport> {
        let tracer = self.tracer;
        tracer.span("core.run_chain", || {
            let raster = self.raster_for(product_id)?;
            let (output, index) =
                tracer.span_indexed("noa.chain_run", || chain.run(&self.db, product_id, &raster));
            let output = output.map_err(text)?;
            let t = output.timings;
            tracer.split_into_children(
                index,
                &[
                    ("monet.put_array", t.ingest),
                    ("ingest.crop", t.crop),
                    ("ingest.georef", t.georef),
                    ("sciql.classify", t.classify),
                    ("noa.shapefile", t.shapefile),
                ],
            );

            let chain_id = chain.id();
            let derived_id = format!("{product_id}-{chain_id}");
            let footprint = Geometry::Polygon(Polygon::from_envelope(&output.raster.envelope()));
            let store = self.strabon.store_mut();
            tracer.span("ingest.describe_derived", || {
                metadata::describe_derived(&derived_id, product_id, &chain_id, &footprint, store)
            });
            let strabon = &mut self.strabon;
            let features_published = tracer.span("noa.publish_hotspots", || {
                publish_hotspots(&output.features, product_id, &chain_id, strabon)
            });

            let geo = &output.raster.geo;
            let header = Gtf1Header {
                rows: output.raster.rows() as u32,
                cols: output.raster.cols() as u32,
                transform: (geo.origin_x, geo.origin_y, geo.pixel_w, geo.pixel_h),
                epsg: 4326,
            };
            let bytes = tracer
                .span("vault.encode_gtf1", || {
                    encode_gtf1(&header, output.mask.data())
                })
                .map_err(text)?;
            let file = format!("{derived_id}.gtf1");
            self.vault.repository_mut().put(&file, bytes);
            let vault = &mut self.vault;
            tracer
                .span("vault.register", || vault.register(&file))
                .map_err(text)?;
            Ok(ChainReport {
                derived_id,
                output,
                features_published,
            })
        })
    }

    fn annotate_product(
        &mut self,
        product_id: &str,
        patch: usize,
        classifier: &Classifier,
    ) -> Res<usize> {
        let tracer = self.tracer;
        tracer.span("core.annotate_product", || {
            let raster = self.raster_for(product_id)?;
            let patches = tracer
                .span("ingest.extract_patches", || {
                    features::extract_patches(&raster, patch)
                })
                .map_err(text)?;
            let store = self.strabon.store_mut();
            Ok(tracer.span("mining.annotate", || {
                teleios_mining::annotate::annotate_product(product_id, &patches, classifier, store)
            }))
        })
    }

    fn refine_product(&mut self, product_id: &str) -> Res<RefineStats> {
        let tracer = self.tracer;
        tracer.span("noa.refine", || {
            let landmass = tracer.span("linked.landmass_literal", || {
                emit::landmass_literal(&self.world)
            });
            self.refine_against(&landmass, product_id)
        })
    }

    fn search(&mut self, stsparql: &str) -> Res<Solutions> {
        let query = self
            .tracer
            .span("strabon.parse", || {
                teleios_strabon::parser::parse_query(stsparql)
            })
            .map_err(text)?;
        let strabon = &mut self.strabon;
        self.tracer
            .span("strabon.eval", || {
                teleios_strabon::eval::evaluate_query(strabon, &query)
            })
            .map_err(text)
    }

    fn fire_map(&mut self, region: &Envelope) -> Res<FireMap> {
        let strabon = &mut self.strabon;
        self.tracer
            .span("noa.firemap", || build_fire_map(strabon, region))
            .map_err(text)
    }

    fn sql(&mut self, sql: &str) -> Res<ResultSet> {
        let db = &self.db;
        self.tracer
            .span("monet.sql", || db.execute(sql))
            .map_err(text)
    }

    fn sciql_scalar(&mut self, sciql: &str) -> Res<f64> {
        let db = &self.db;
        self.tracer
            .span("sciql.stmt", || {
                teleios_sciql::execute(db, sciql).and_then(teleios_sciql::SciqlResult::scalar)
            })
            .map_err(text)
    }

    fn stores(&mut self) -> Stores<'_> {
        Stores {
            db: &self.db,
            strabon: &mut self.strabon,
            vault: &mut self.vault,
            world: &self.world,
        }
    }
}

/// `Observatory::train_patch_classifier` over any engine: a kNN
/// fire/land patch classifier labelled from the products' ground truth.
pub fn train_patch_classifier<'t, E: Engine<'t>>(
    engine: &mut E,
    product_ids: &[String],
    patch: usize,
    k: usize,
) -> Res<Classifier> {
    use teleios_mining::classify::LabeledExample;
    use teleios_mining::ontology::concept;
    let mut examples = Vec::new();
    for id in product_ids {
        let raster = engine.raster_for(id)?;
        let truth = engine.truth_for(id)?;
        for p in features::extract_patches(&raster, patch).map_err(text)? {
            let (r0, c0) = (p.py * patch, p.px * patch);
            let burning = (r0..r0 + patch)
                .any(|r| (c0..c0 + patch).any(|c| truth.get(&[r, c]).unwrap_or(0.0) > 0.0));
            let label = concept(if burning { "ForestFire" } else { "LandCover" });
            examples.push(LabeledExample {
                features: p.features,
                label,
            });
        }
    }
    if examples.is_empty() {
        return Err("no training patches".into());
    }
    Ok(Classifier::train_knn(k, examples))
}
