//! Deadline-aware supervision acceptance tests (ISSUE: robustness).
//!
//! A batch containing scenes that hang for 10 seconds at a stage must
//! finish within the deadline envelope — each overdue attempt's token
//! fires at its next poll (a stage boundary, or inside the hang), so
//! wall-clock scales with the budget, never with the hang. No healthy scene may ever be lost
//! to deadline supervision, under any seed. A scene that times out on
//! every variant ends `Timeout` with its full timeout chain recorded.
//! Quarantine state produced under supervision survives a catalog
//! export/import round-trip.

use std::time::Duration;
use teleios_core::observatory::AcquisitionSpec;
use teleios_core::Observatory;
use teleios_geo::Coord;
use teleios_ingest::raster::GeoTransform;
use teleios_ingest::seviri::FireEvent;
use teleios_monet::Catalog;
use teleios_noa::chain::ChainStage;
use teleios_noa::{HotspotClassifier, ProcessingChain};
use teleios_resilience::{Fault, FaultPlan, SceneOutcome, Supervisor};
use teleios_vault::{DataVault, IngestionPolicy};

/// Long enough that an uncancelled hang would blow every assertion
/// below by an order of magnitude.
const HANG: Duration = Duration::from_secs(10);

fn acquire_scenes(obs: &mut Observatory, n: usize, seed0: u64) -> Vec<String> {
    let center = obs.region().center();
    (0..n)
        .map(|i| {
            let spec = AcquisitionSpec {
                seed: seed0 + i as u64,
                rows: 32,
                cols: 32,
                acquisition: format!("2007-08-25T{:02}:{:02}:00Z", i / 4, (i % 4) * 15),
                satellite: "MSG2".into(),
                fires: vec![FireEvent {
                    center: Coord::new(center.x - 0.3, center.y + 0.2),
                    radius: 0.08,
                    intensity: 0.9,
                }],
                cloud_cover: 0.0,
                glint_rate: 0.0,
            };
            obs.acquire_scene(&spec).unwrap()
        })
        .collect()
}

fn ladder_chain(obs: &Observatory, plan: &FaultPlan) -> ProcessingChain {
    ProcessingChain {
        classifier: HotspotClassifier::Contextual { kelvin: 318.0, min_neighbors: 2 },
        target_grid: Some((GeoTransform::fit(&obs.region(), 32, 32), 32, 32)),
        ..ProcessingChain::operational()
    }
    .with_stage_hook(plan.chain_hook())
}

#[test]
fn hung_batch_finishes_within_the_deadline_envelope() {
    let mut obs = Observatory::with_defaults(81);
    let ids = acquire_scenes(&mut obs, 8, 9100);

    let palette = [Fault::Hang { stage: ChainStage::Classify, duration: HANG }];
    let mut plan = FaultPlan::seeded_with(2024, &ids, 0.3, &palette);
    // Guarantee at least one hung scene whatever the seed selects.
    plan.inject(ids[0].clone(), palette[0]);
    assert!(!plan.is_empty());

    let chain = ladder_chain(&obs, &plan);
    let hard = Duration::from_millis(150);
    let supervisor = Supervisor::new(1).with_deadline(hard);
    let report = obs.run_chain_batch(&ids, &chain, &supervisor).unwrap();

    // Envelope: each hung scene burns at most (retries + 1) primary
    // attempts plus one attempt per degraded rung, each cancelled at
    // the hard deadline; the breaker cuts this further. Even fully
    // serialized, 8 scenes stay far below one uncancelled 10s hang.
    assert!(
        report.wall_clock < Duration::from_secs(8),
        "batch took {:?}; cancellation is not bounding the hang",
        report.wall_clock
    );
    assert_eq!(report.scenes.len(), ids.len());
    for scene in &report.scenes {
        match plan.fault_for(&scene.product_id) {
            // Hang on every variant: the scene is lost to timeouts and
            // says so.
            Some(Fault::Hang { .. }) => {
                assert!(
                    matches!(scene.outcome, SceneOutcome::Timeout { .. }),
                    "{}: expected Timeout, got {:?}",
                    scene.product_id,
                    scene.outcome
                );
                assert!(!scene.timed_out_stages.is_empty());
            }
            // Healthy scenes deliver a product, possibly degraded if
            // the breaker routed them off a hanging variant.
            _ => assert!(
                scene.outcome.succeeded(),
                "healthy scene {} lost: {:?}",
                scene.product_id,
                scene.outcome
            ),
        }
    }
}

#[test]
fn no_seed_loses_a_healthy_scene() {
    for seed in [1_u64, 7, 42] {
        let mut obs = Observatory::with_defaults(82);
        let ids = acquire_scenes(&mut obs, 6, 9300);
        let palette = [Fault::Hang { stage: ChainStage::Georef, duration: HANG }];
        let plan = FaultPlan::seeded_with(seed, &ids, 0.4, &palette);
        let chain = ladder_chain(&obs, &plan);
        let supervisor = Supervisor::new(1).with_deadline(Duration::from_millis(150));
        let report = obs.run_chain_batch(&ids, &chain, &supervisor).unwrap();
        for scene in &report.scenes {
            if plan.fault_for(&scene.product_id).is_none() {
                assert!(
                    scene.outcome.succeeded(),
                    "seed {seed}: healthy scene {} lost: {:?}",
                    scene.product_id,
                    scene.outcome
                );
            }
        }
    }
}

#[test]
fn scene_timing_out_on_every_variant_records_its_timeout_chain() {
    let catalog = Catalog::new();
    let mut obs = Observatory::with_defaults(83);
    let ids = acquire_scenes(&mut obs, 1, 9500);
    let raster = obs.raster_for(&ids[0]).unwrap();

    let mut plan = FaultPlan::new();
    plan.inject(ids[0].clone(), Fault::Hang { stage: ChainStage::Classify, duration: HANG });
    let chain = ladder_chain(&obs, &plan);
    let primary_id = chain.id();

    let supervisor = Supervisor::new(1).with_deadline(Duration::from_millis(120));
    let report = supervisor.run_batch(&catalog, &chain, &[(ids[0].clone(), raster)]).scenes.remove(0);

    let SceneOutcome::Timeout { stage, reason } = &report.outcome else {
        panic!("expected Timeout, got {:?}", report.outcome);
    };
    assert_eq!(stage, "classify");
    assert!(reason.contains("deadline"), "unhelpful reason: {reason}");
    // The timeout chain covers every rung tried, in order, each
    // pinned at the hanging stage.
    assert!(report.timed_out_stages.len() >= 2);
    assert!(report.timed_out_stages[0].starts_with(&primary_id));
    for entry in &report.timed_out_stages {
        assert!(
            entry.ends_with("/classify"),
            "timeout chain entry off-stage: {entry}"
        );
    }
    assert!(report.output.is_none());
}

#[test]
fn quarantine_survives_a_catalog_round_trip_under_supervision() {
    let mut obs = Observatory::with_defaults(84);
    let ids = acquire_scenes(&mut obs, 2, 9700);

    // Corrupt one scene's archive file; supervision fails that scene
    // and the vault quarantines the file.
    let mut plan = FaultPlan::new();
    plan.inject(ids[0].clone(), Fault::CorruptPayload);
    plan.apply_to_repository(obs.vault.repository_mut());

    let chain = ladder_chain(&obs, &FaultPlan::new());
    let supervisor = Supervisor::new(1);
    let report = obs.run_chain_batch(&ids, &chain, &supervisor).unwrap();
    let bad = report.report_for(&ids[0]).unwrap();
    assert!(matches!(bad.outcome, SceneOutcome::Failed { .. }));
    assert!(report.report_for(&ids[1]).unwrap().outcome.succeeded());
    let bad_file = format!("{}.sev1", ids[0]);
    assert!(obs.vault.is_quarantined(&bad_file));

    // Round-trip the catalog into a fresh vault over the same
    // repository bytes: the quarantine entry must survive, and the
    // quarantined file must stay refused until retried.
    let mut backend = teleios_store::DurableBackend::open(
        teleios_store::MemMedium::new(),
        teleios_store::DurableConfig::default(),
    )
    .unwrap();
    obs.vault.persist_to(&mut backend).unwrap();
    let mut vault2 = DataVault::new(
        obs.vault.repository().clone(),
        Catalog::new(),
        IngestionPolicy::Lazy,
        64,
    );
    assert!(vault2.restore_from(&backend).unwrap());
    assert!(!vault2.catalog().is_empty());
    assert!(vault2.is_quarantined(&bad_file));
    assert!(vault2.array_for(&bad_file).is_err());
    // The healthy scene's file is untouched by the round trip.
    assert!(!vault2.is_quarantined(&format!("{}.sev1", ids[1])));
}
