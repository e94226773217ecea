//! The paper's count-shaped claims that no other acceptance test
//! builds a fixture for, asserted on the product API at the seeds and
//! scales EXPERIMENTS.md records: E4 (join-order optimization), E5
//! (the lazy Data Vault), E7 (refinement, demo scenario 2) and E10
//! (rapid mapping).

use std::time::Duration;
use teleios::core::observatory::AcquisitionSpec;
use teleios::core::Observatory;
use teleios::geo::{Coord, Envelope};
use teleios::ingest::seviri::FireEvent;
use teleios::linked::world::WorldSpec;
use teleios::monet::Catalog;
use teleios::noa::{accuracy, refine, ProcessingChain};
use teleios::strabon::StrabonConfig;
use teleios::vault::format::{encode_sev1, Sev1Header};
use teleios::vault::repository::Repository;
use teleios::vault::{DataVault, IngestionPolicy};
use teleios_bench::{bgp_query, build_archive};

/// One 96² MSG2 scene with a single fire at `fire_at`.
fn scene(seed: u64, fire_at: Coord, glint_rate: f64) -> AcquisitionSpec {
    AcquisitionSpec {
        seed,
        rows: 96,
        cols: 96,
        acquisition: "2007-08-25T12:00:00Z".into(),
        satellite: "MSG2".into(),
        fires: vec![FireEvent { center: fire_at, radius: 0.09, intensity: 0.9 }],
        cloud_cover: 0.0,
        glint_rate,
    }
}

/// E4: over a 1 000-product archive, the optimizer's plan starts from
/// the 1 %-selective `noa:AnnotatedImage` pattern, the syntactic plan
/// from the first pattern written, and both find the same seven rows.
#[test]
fn join_order_optimizer_starts_from_the_selective_pattern() {
    let syntactic = StrabonConfig {
        rdfs_inference: false,
        optimize_bgp: false,
        use_spatial_index: true,
        ..StrabonConfig::default()
    };
    let query = bgp_query();
    let runs: Vec<(String, _)> = [StrabonConfig::default(), syntactic]
        .into_iter()
        .map(|config| {
            let mut db = build_archive(1_000, 0, config);
            let plan = db.explain(&query).unwrap();
            let first = plan.lines().find(|l| l.trim_start().starts_with("1. ")).unwrap_or(&plan);
            let mut rows = db.query(&query).unwrap().rows;
            rows.sort();
            (first.to_string(), rows)
        })
        .collect();
    assert!(runs[0].0.contains("AnnotatedImage"), "optimized plan starts at {}", runs[0].0);
    assert!(!runs[1].0.contains("AnnotatedImage"), "syntactic plan starts at {}", runs[1].0);
    assert_eq!(runs[0].1, runs[1].1);
    assert_eq!(runs[0].1.len(), 7);
}

/// E5: over a 500-file archive, a lazy vault converts exactly the files
/// a query touches and an eager one converts every file, at every
/// fraction accessed — "up to 95 % of the data has never been accessed"
/// is 95 % of the conversions saved.
#[test]
fn lazy_vault_converts_only_the_files_accessed() {
    const FILES: usize = 500;
    let mut repo = Repository::new();
    for i in 0..FILES {
        let header = Sev1Header {
            rows: 48,
            cols: 48,
            bands: 3,
            acquisition: format!("2007-08-25T{:02}:00:00Z", i % 24),
            bbox: (i as f64, 0.0, i as f64 + 1.0, 1.0),
        };
        repo.put(
            format!("scene-{i:04}.sev1"),
            encode_sev1(&header, &[300.0; 48 * 48 * 3]).unwrap(),
        );
    }
    for pct in [1, 5, 25, 50, 100] {
        let accessed: Vec<String> =
            (0..FILES).step_by(100 / pct).map(|i| format!("scene-{i:04}.sev1")).collect();
        for (policy, conversions) in
            [(IngestionPolicy::Lazy, accessed.len()), (IngestionPolicy::Eager, FILES)]
        {
            let mut vault = DataVault::new(repo.clone(), Catalog::new(), policy, 0);
            vault.register_all().unwrap();
            for name in &accessed {
                vault.array_for(name).unwrap();
            }
            assert_eq!(
                vault.stats().materializations,
                conversions,
                "{policy:?} at {pct} % accessed"
            );
        }
    }
}

/// E7 (demo scenario 2): on every coastline and glint rate, the
/// refinement updates refute sea detections without touching the fire,
/// so recall is unchanged and precision rises. It at least doubles
/// once glint is common (0.03 and up); at glint 0.01 it rises only
/// 1.47-1.64x, so "doubles" is not reproduced there (EXPERIMENTS.md, E7).
#[test]
fn refinement_refutes_sea_detections_and_keeps_the_fire() {
    for coast_points in [24, 48, 96] {
        for glint in [0.01, 0.03, 0.06] {
            let mut obs =
                Observatory::new(WorldSpec { seed: 42, coast_points, ..WorldSpec::default() });
            let center = obs.region().center();
            let id =
                obs.acquire_scene(&scene(9, Coord::new(center.x + 0.1, center.y), glint)).unwrap();
            let report = obs.run_chain(&id, &ProcessingChain::operational()).unwrap();
            let truth = obs.truth_for(&id).unwrap();
            let before = accuracy::score(&report.output.mask, &truth).unwrap();

            let refined = obs.refine_products_supervised(&obs.product_ids(), Duration::MAX);
            assert!(refined.is_complete(), "{:?}", refined.products);
            let survivors = refine::surviving_hotspot_geometries(&mut obs.strabon, &id).unwrap();
            let polys: Vec<_> = survivors.iter().collect();
            let raster = obs.raster_for(&id).unwrap();
            let mask = refine::features_to_mask(&polys, &raster.geo, raster.rows(), raster.cols());
            let after = accuracy::score(&mask, &truth).unwrap();

            let (p0, p1) = (before.precision(), after.precision());
            let case = format!("coast {coast_points}, glint {glint}: precision {p0:.3} -> {p1:.3}");
            assert!(refined.stats.refuted > 0, "{case}");
            assert_eq!(after.recall(), before.recall(), "{case}");
            if glint >= 0.03 {
                assert!(p1 >= 2.0 * p0, "{case}");
            } else {
                assert!(p1 > p0, "{case}");
            }
        }
    }
}

/// E10: the rapid-mapping fire map has its six layers, and its feature
/// count never falls as the region or the linked-data volume grows.
#[test]
fn fire_map_grows_with_the_region_and_the_places() {
    let mut counts: Vec<Vec<usize>> = Vec::new();
    for num_places in [25, 100, 400] {
        let mut obs = Observatory::new(WorldSpec {
            seed: 42,
            num_places,
            num_roads: num_places / 2,
            ..WorldSpec::default()
        });
        let center = obs.region().center();
        let id = obs.acquire_scene(&scene(3, center, 0.01)).unwrap();
        obs.run_chain(&id, &ProcessingChain::operational()).unwrap();
        assert!(obs.refine_products_supervised(&obs.product_ids(), Duration::MAX).is_complete());
        let row = [0.25, 0.75, 1.5].map(|half| {
            let region = Envelope::new(
                Coord::new(center.x - half, center.y - half),
                Coord::new(center.x + half, center.y + half),
            );
            let map = obs.fire_map(&region).unwrap();
            assert_eq!(map.layers.len(), 6);
            map.num_features()
        });
        assert!(row.is_sorted(), "{num_places} places: features by region {row:?}");
        if let Some(fewer) = counts.last() {
            assert!(
                row.iter().zip(fewer).all(|(more, fewer)| more >= fewer),
                "{counts:?} then {row:?}"
            );
        }
        counts.push(row.to_vec());
    }
}
