//! Cross-crate integration tests: the full Virtual Earth Observatory
//! pipeline, from synthetic acquisition to refined semantic products.

use std::time::Duration;
use teleios::core::observatory::AcquisitionSpec;
use teleios::core::{portal, Observatory};
use teleios::geo::Coord;
use teleios::ingest::seviri::{self, FireEvent, SceneSpec};
use teleios::noa::hotspot::HotspotClassifier;
use teleios::noa::{accuracy, ProcessingChain};
use teleios_bench::{bench_bbox, bench_surface};

fn fire_spec(seed: u64, center: Coord) -> AcquisitionSpec {
    AcquisitionSpec {
        seed,
        rows: 80,
        cols: 80,
        acquisition: format!("2007-08-25T{:02}:00:00Z", seed % 24),
        satellite: "MSG2".into(),
        fires: vec![FireEvent { center, radius: 0.09, intensity: 0.9 }],
        cloud_cover: 0.02,
        glint_rate: 0.02,
    }
}

/// A land coordinate comfortably inside the default world.
fn inland(obs: &Observatory) -> Coord {
    // The world centre is always land (star-shaped landmass).
    obs.region().center()
}

#[test]
fn full_pipeline_acquire_process_refine_map() {
    let mut obs = Observatory::with_defaults(42);
    let fire_at = inland(&obs);
    let id = obs.acquire_scene(&fire_spec(1, fire_at)).unwrap();

    // Vault is lazy: nothing materialized yet.
    assert_eq!(obs.vault.stats().materializations, 0);

    // Run the chain; hotspots must be found and published.
    let report = obs.run_chain(&id, &ProcessingChain::operational()).unwrap();
    assert!(report.output.hotspot_pixels() > 0);
    assert!(report.features_published > 0);
    assert_eq!(obs.vault.stats().materializations, 1);

    // Refinement never hurts pixel precision.
    let truth = obs.truth_for(&id).unwrap();
    let before = accuracy::score(&report.output.mask, &truth).unwrap();
    let refined = obs.refine_products_supervised(&obs.product_ids(), Duration::MAX);
    assert!(refined.is_complete(), "{:?}", refined.products);
    assert_eq!(refined.stats.before, report.output.features.len());
    let survivors =
        teleios::noa::refine::surviving_hotspot_geometries(&mut obs.strabon, &id).unwrap();
    let polys: Vec<&teleios::geo::geometry::Polygon> = survivors.iter().collect();
    let raster = obs.raster_for(&id).unwrap();
    let refined =
        teleios::noa::refine::features_to_mask(&polys, &raster.geo, raster.rows(), raster.cols());
    let after = accuracy::score(&refined, &truth).unwrap();
    assert!(after.precision() >= before.precision() - 1e-9);
    // The real fire survives refinement.
    assert!(after.recall() > 0.5, "recall collapsed to {}", after.recall());

    // The fire map shows the hotspots plus linked-data layers.
    let region = obs.region();
    let map = obs.fire_map(&region).unwrap();
    assert!(!map.layer("hotspots").unwrap().features.is_empty());
    assert!(!map.layer("places").unwrap().features.is_empty());
    assert_eq!(map.layer("coastline").unwrap().features.len(), 1);
}

#[test]
fn flagship_query_end_to_end() {
    let mut obs = Observatory::with_defaults(42);
    let site = obs.world.sites[0].location;
    let id = obs.acquire_scene(&fire_spec(2, site)).unwrap();
    obs.run_chain(&id, &ProcessingChain::operational()).unwrap();
    let sols = obs
        .search(&portal::flagship_query("MSG2", "2007-08-25", 0.3))
        .unwrap();
    assert!(!sols.is_empty());
    // Wrong satellite: empty.
    let none = obs
        .search(&portal::flagship_query("Sentinel2", "2007-08-25", 0.3))
        .unwrap();
    assert!(none.is_empty());
    // Wrong day: empty.
    let none = obs
        .search(&portal::flagship_query("MSG2", "2007-09-01", 0.3))
        .unwrap();
    assert!(none.is_empty());
}

#[test]
fn sciql_and_sql_sides_agree_on_hotspot_counts() {
    let mut obs = Observatory::with_defaults(42);
    let id = obs.acquire_scene(&fire_spec(3, inland(&obs))).unwrap();
    let report = obs.run_chain(&id, &ProcessingChain::operational()).unwrap();

    // SciQL counts hotspot pixels in the ingested mask array.
    let via_sciql = obs
        .sciql(&format!("SELECT SUM(v) FROM {id}_hotspots"))
        .unwrap()
        .scalar()
        .unwrap();
    assert_eq!(via_sciql as usize, report.output.hotspot_pixels());

    // The stSPARQL side counts the published features.
    let via_sparql = obs
        .search(&format!(
            "PREFIX noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>\n\
             SELECT ?h WHERE {{ ?h a noa:Hotspot ; noa:isDerivedFrom \
             <http://teleios.di.uoa.gr/products/{id}> }}"
        ))
        .unwrap();
    assert_eq!(via_sparql.len(), report.output.features.len());
}

#[test]
fn multi_scene_archive_discovery_by_time() {
    let mut obs = Observatory::with_defaults(42);
    let center = inland(&obs);
    for seed in 0..4 {
        obs.acquire_scene(&fire_spec(seed, center)).unwrap();
    }
    // Vault knows all four, database holds none (lazy).
    assert_eq!(obs.vault.catalog().len(), 4);
    assert_eq!(obs.vault.stats().materializations, 0);
    // Temporal discovery through the vault catalog.
    let early = obs
        .vault
        .catalog()
        .acquired_between("2007-08-25T00:00:00Z", "2007-08-25T02:30:00Z");
    assert_eq!(early.len(), 3); // seeds 0, 1, 2 at hours 00..02
    // And through stSPARQL.
    let sols = obs
        .search(
            "PREFIX noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>\n\
             SELECT ?p ?t WHERE { ?p a noa:RawImage ; noa:hasAcquisitionTime ?t . \
             FILTER(STR(?t) < \"2007-08-25T02:30:00Z\") }",
        )
        .unwrap();
    assert_eq!(sols.len(), 3);
}

#[test]
fn classifier_tradeoffs_hold() {
    // E2's headline claim in test form: contextual filtering improves
    // precision over plain thresholding without destroying recall.
    let mut obs = Observatory::with_defaults(42);
    let mut spec = fire_spec(5, inland(&obs));
    spec.glint_rate = 0.03;
    spec.cloud_cover = 0.0;
    let id = obs.acquire_scene(&spec).unwrap();
    let truth = obs.truth_for(&id).unwrap();

    let run = |obs: &mut Observatory, cls: HotspotClassifier| {
        let chain = ProcessingChain { classifier: cls, ..ProcessingChain::operational() };
        let report = obs.run_chain(&id, &chain).unwrap();
        accuracy::score(&report.output.mask, &truth).unwrap()
    };
    let plain = run(&mut obs, HotspotClassifier::Threshold { kelvin: 318.0 });
    let ctx = run(&mut obs, HotspotClassifier::Contextual { kelvin: 318.0, min_neighbors: 2 });
    assert!(ctx.precision() > plain.precision());
    assert!(ctx.recall() > 0.8 * plain.recall());

    // The E2 sweep: four classifiers, each scored by its mean
    // (precision, recall, F1) over five 128² scenes per glint rate.
    let classifiers = [
        HotspotClassifier::Threshold { kelvin: 318.0 },
        HotspotClassifier::Threshold { kelvin: 325.0 },
        HotspotClassifier::Adaptive { sigma: 4.0 },
        HotspotClassifier::Contextual { kelvin: 318.0, min_neighbors: 2 },
    ];
    let mean_scores = |glint: f64| -> Vec<[f64; 3]> {
        let scenes: Vec<_> = (0..5)
            .map(|seed| {
                let mut spec = SceneSpec::new(seed, 128, 128, bench_bbox());
                spec.cloud_cover = 0.02;
                spec.glint_rate = glint;
                let center = Coord::new(21.8, 37.5);
                spec.fires.push(FireEvent { center, radius: 0.09, intensity: 0.9 });
                seviri::generate(&spec, &bench_surface).unwrap()
            })
            .collect();
        let mean = |cls: &HotspotClassifier| {
            let sum = scenes.iter().fold([0.0; 3], |[p, r, f1], scene| {
                let mask = cls.classify(&scene.raster).unwrap();
                let acc = accuracy::score(&mask, &scene.truth).unwrap();
                [p + acc.precision(), r + acc.recall(), f1 + acc.f1()]
            });
            sum.map(|total| total / 5.0)
        };
        classifiers.iter().map(mean).collect()
    };
    let (clear, glinted) = (mean_scores(0.0), mean_scores(0.03));
    // threshold-318 keeps perfect recall while glint erodes its precision...
    assert_eq!((clear[0][1], glinted[0][1]), (1.0, 1.0));
    assert!(glinted[0][0] < clear[0][0], "{:?} -> {:?}", clear[0], glinted[0]);
    // ...and the contextual filter has the best F1 once glint is common.
    let best = (0..4).max_by(|&a, &b| glinted[a][2].total_cmp(&glinted[b][2]));
    assert_eq!(best, Some(3), "F1 at glint 0.03: {glinted:?}");
}

#[test]
fn semantic_annotation_closes_the_gap() {
    use teleios::mining::annotate;
    use teleios::mining::classify::{Classifier, LabeledExample};
    use teleios::mining::ontology::{concept, Ontology};
    use teleios::rdf::term::Term;

    let mut obs = Observatory::with_defaults(42);
    let id = obs.acquire_scene(&fire_spec(6, inland(&obs))).unwrap();
    let raster = obs.raster_for(&id).unwrap();
    let patches = teleios::ingest::features::extract_patches(&raster, 8).unwrap();
    assert!(!patches.is_empty());

    // Train a tiny classifier from patches labeled by the truth mask.
    let truth = obs.truth_for(&id).unwrap();
    let examples: Vec<LabeledExample> = patches
        .iter()
        .map(|p| {
            // A patch "burns" when any truth pixel inside it burns.
            let r0 = p.py * 8;
            let c0 = p.px * 8;
            let burning = (r0..r0 + 8)
                .any(|r| (c0..c0 + 8).any(|c| truth.get(&[r, c]).unwrap_or(0.0) > 0.0));
            LabeledExample {
                features: p.features.clone(),
                label: if burning { concept("ForestFire") } else { concept("LandCover") },
            }
        })
        .collect();
    let classifier = Classifier::train_knn(3, examples.clone());
    assert!(classifier.accuracy(&examples) > 0.9);

    // Annotate and search by the *superclass* Fire: subsumption search
    // finds the ForestFire annotations.
    let n = annotate::annotate_product(&id, &patches, &classifier, obs.strabon.store_mut());
    assert_eq!(n, patches.len());
    let ontology = Ontology::teleios();
    let fire_products =
        annotate::find_products_by_concept(&concept("Fire"), &ontology, obs.strabon.store());
    assert_eq!(fire_products.len(), 1);

    // The E8 archive: forty 64² scenes, the even ones burning, a
    // classifier trained on the first ten, every scene annotated next
    // to the keyword metadata an EO archive offers.
    let scenes: Vec<_> = (0..40)
        .map(|i| {
            let mut spec = SceneSpec::new(i, 64, 64, bench_bbox());
            spec.cloud_cover = 0.02;
            spec.glint_rate = 0.005;
            if i % 2 == 0 {
                let center = Coord::new(21.8, 37.5);
                spec.fires.push(FireEvent { center, radius: 0.1, intensity: 0.9 });
            }
            seviri::generate(&spec, &bench_surface).unwrap()
        })
        .collect();
    let patches: Vec<_> = scenes
        .iter()
        .map(|s| teleios::ingest::features::extract_patches(&s.raster, 8).unwrap())
        .collect();
    let examples = scenes.iter().zip(&patches).take(10).flat_map(|(scene, patches)| {
        patches.iter().map(|p| {
            let burns = |r, c| scene.truth.get(&[r, c]).unwrap_or(0.0) > 0.0;
            let (rows, cols) = (p.py * 8..p.py * 8 + 8, p.px * 8..p.px * 8 + 8);
            let burning = rows.clone().any(|r| cols.clone().any(|c| burns(r, c)));
            let label = concept(if burning { "ForestFire" } else { "LandCover" });
            LabeledExample { features: p.features.clone(), label }
        })
    });
    let classifier = Classifier::train_knn(3, examples.collect());
    let mut store = teleios::rdf::store::TripleStore::new();
    let level = Term::iri("http://teleios.di.uoa.gr/ontologies/noaOntology.owl#hasProductLevel");
    let product = |i: usize| Term::iri(format!("http://teleios.di.uoa.gr/products/scene_{i:03}"));
    for (i, patches) in patches.iter().enumerate() {
        annotate::annotate_product(&format!("scene_{i:03}"), patches, &classifier, &mut store);
        store.insert_terms(&product(i), &level, &Term::literal("LEVEL1"));
    }
    // Keyword search finds nothing: "fire" is in no metadata field.
    assert!(store.match_terms(None, Some(&level), Some(&Term::literal("fire"))).is_empty());
    // Concept search, exact and by subsumption, finds exactly the
    // burning scenes: precision = recall = 1.
    let burning: Vec<Term> = (0..40).step_by(2).map(product).collect();
    for name in ["ForestFire", "Fire"] {
        let found = annotate::find_products_by_concept(&concept(name), &ontology, &store);
        assert_eq!(found, burning, "{name}");
    }
}

#[test]
fn observatory_is_deterministic() {
    let run = || {
        let mut obs = Observatory::with_defaults(42);
        let id = obs.acquire_scene(&fire_spec(7, inland(&obs))).unwrap();
        let report = obs.run_chain(&id, &ProcessingChain::operational()).unwrap();
        (report.output.hotspot_pixels(), report.output.features.len(), obs.strabon.len())
    };
    assert_eq!(run(), run());
}

/// Two polygonizations of one mask give the same `.shp1` file, byte
/// for byte: feature order, ring order and each ring's first vertex
/// are functions of the mask, not of a hash seed.
#[test]
fn hotspot_shapefile_bytes_repeat_across_builds() {
    use teleios::geo::{wkt, SplitMix64};
    use teleios::ingest::raster::GeoTransform;
    use teleios::monet::array::NdArray;
    use teleios::noa::shapefile::mask_to_features;
    use teleios::vault::format::{encode_shp1, Shp1Record};

    // Half-full noise: dozens of components with holes and pinch corners.
    let mut rng = SplitMix64::new(5);
    let cells = (0..32 * 32).map(|_| if rng.chance(0.5) { 1.0 } else { 0.0 }).collect();
    let mask = NdArray::matrix(32, 32, cells).unwrap();
    let geo = GeoTransform { origin_x: 21.0, origin_y: 39.0, pixel_w: 0.05, pixel_h: 0.05 };
    let shp1 = || {
        let records: Vec<Shp1Record> = mask_to_features(&mask, &geo)
            .unwrap()
            .iter()
            .map(|f| Shp1Record { wkt: wkt::write(&f.geometry()), label: format!("hotspot-{}", f.id) })
            .collect();
        assert!(records.len() > 20 && records.iter().any(|r| r.wkt.contains("), (")));
        encode_shp1(&records)
    };
    let first = shp1();
    for _ in 0..4 {
        assert_eq!(shp1(), first);
    }
}
