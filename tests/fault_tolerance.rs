//! End-to-end fault-tolerance acceptance test (ISSUE: robustness).
//!
//! A 50-scene supervised batch under a seeded 20% fault plan must
//! complete, report exactly the injected failure per scene, recover
//! every transient fault within the retry budget, and lose zero
//! healthy scenes; E12's sweep over 0-30 % fault rates fails exactly
//! the scenes given an unrecoverable fault.

use teleios_core::observatory::AcquisitionSpec;
use teleios_core::Observatory;
use teleios_geo::Coord;
use teleios_ingest::raster::GeoTransform;
use teleios_ingest::seviri::FireEvent;
use teleios_noa::{HotspotClassifier, ProcessingChain};
use teleios_resilience::{Fault, FaultPlan, SceneOutcome, Supervisor};

const SCENES: usize = 50;
const SEED: u64 = 1234;
const RATE: f64 = 0.2;

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

/// The contextual classifier on a georeferenced grid, so every
/// degraded rung has somewhere to fall to, with `plan`'s stage hook.
fn supervised_chain(obs: &Observatory, plan: &FaultPlan) -> ProcessingChain {
    ProcessingChain {
        classifier: HotspotClassifier::Contextual { kelvin: 318.0, min_neighbors: 2 },
        target_grid: Some((GeoTransform::fit(&obs.region(), 32, 32), 32, 32)),
        ..ProcessingChain::operational()
    }
    .with_stage_hook(plan.chain_hook())
}

/// Worker panics and corrupted archives: the faults no retry or
/// degraded variant can clear.
fn unrecoverable(fault: &Fault) -> bool {
    matches!(fault, Fault::WorkerPanic | Fault::CorruptPayload | Fault::TruncateHeader)
}

#[test]
fn seeded_fault_plan_batch_meets_the_acceptance_criteria() {
    let mut obs = Observatory::with_defaults(77);
    let ids = acquire_scenes(&mut obs, SCENES, 9000);

    let plan = FaultPlan::seeded(SEED, &ids, RATE);
    // The plan is non-trivial and plausible for a 20% rate...
    assert!(
        (3..=20).contains(&plan.len()),
        "implausible fault count {} for rate {RATE}",
        plan.len()
    );
    // ...and reproducible.
    let replay = FaultPlan::seeded(SEED, &ids, RATE);
    assert_eq!(
        plan.iter().collect::<Vec<_>>(),
        replay.iter().collect::<Vec<_>>()
    );

    // Data faults corrupt the archived scene files; behavioral faults
    // ride the chain's stage hook.
    let applied = plan.apply_to_repository(obs.vault.repository_mut());
    assert_eq!(applied, plan.data_fault_ids().len());
    let chain = supervised_chain(&obs, &plan);

    let supervisor = Supervisor::new(2);
    let report = obs.run_chain_batch(&ids, &chain, &supervisor).unwrap();

    // The batch completed: one report per scene, in input order.
    assert_eq!(report.scenes.len(), SCENES);
    let reported: Vec<&str> = report.scenes.iter().map(|s| s.product_id.as_str()).collect();
    let expected: Vec<&str> = ids.iter().map(String::as_str).collect();
    assert_eq!(reported, expected);

    // Every scene's outcome matches exactly the fault injected on it.
    for scene in &report.scenes {
        let fault = plan.fault_for(&scene.product_id);
        match fault {
            // Zero healthy scenes lost.
            None => assert_eq!(
                scene.outcome,
                SceneOutcome::Ok,
                "healthy scene {} was lost: {:?}",
                scene.product_id,
                scene.outcome
            ),
            // Every transient fault recovered within the retry budget.
            Some(Fault::Transient { failures }) => {
                assert_eq!(scene.outcome, SceneOutcome::Retried(failures));
                assert_eq!(scene.attempts, failures + 1);
                assert!(scene.output.is_some());
            }
            // The contextual classifier fault clears on the threshold
            // fallback.
            Some(Fault::ClassifierError) => {
                assert_eq!(
                    scene.outcome,
                    SceneOutcome::Degraded {
                        from: "contextual-318-n2".into(),
                        to: "threshold-318".into()
                    }
                );
                assert_eq!(scene.chain_id, "threshold-318");
            }
            // The georeferencing fault clears on the native grid.
            Some(Fault::GeorefError) => {
                assert_eq!(
                    scene.outcome,
                    SceneOutcome::Degraded {
                        from: "contextual-318-n2".into(),
                        to: "threshold-318+native-grid".into()
                    }
                );
            }
            // Worker panics are contained: the scene fails, the batch
            // (and the process) survive.
            Some(Fault::WorkerPanic) => {
                assert!(matches!(
                    &scene.outcome,
                    SceneOutcome::Failed { reason } if reason.contains("panicked")
                ));
                assert!(scene.output.is_none());
            }
            // Data corruption is detected at the vault and reported as
            // a per-scene failure naming the product.
            Some(Fault::CorruptPayload) => {
                assert!(matches!(
                    &scene.outcome,
                    SceneOutcome::Failed { reason }
                        if reason.contains("corrupt") && reason.contains(&scene.product_id)
                ));
            }
            Some(Fault::TruncateHeader) => {
                assert!(matches!(
                    &scene.outcome,
                    SceneOutcome::Failed { reason } if reason.contains(&scene.product_id)
                ));
            }
            // Hangs have their own palette (E14); `FaultPlan::seeded`
            // never emits them.
            Some(other @ Fault::Hang { .. }) => {
                panic!("the seeded default palette emitted {other:?}")
            }
        }
    }

    // Every corrupted file sits in quarantine, and only those.
    let expected_quarantine: Vec<String> = plan
        .data_fault_ids()
        .iter()
        .map(|id| format!("{id}.sev1"))
        .collect();
    assert_eq!(obs.vault.quarantined(), expected_quarantine);
    assert_eq!(obs.vault.stats().decode_failures, expected_quarantine.len());

    // Successful scenes — including degraded ones — were published and
    // archived as derived products under the variant that produced them.
    for scene in &report.scenes {
        if scene.outcome.succeeded() {
            let file = format!("{}-{}.gtf1", scene.product_id, scene.chain_id);
            assert!(
                obs.vault.catalog().get(&file).is_some(),
                "missing derived product {file}"
            );
        }
    }

    // The headline numbers match the plan exactly: only worker panics
    // and data corruption are unrecoverable.
    let expected_failed = plan.iter().filter(|(_, f)| unrecoverable(f)).count();
    assert_eq!(report.failed_count(), expected_failed);
    assert_eq!(report.succeeded_count(), SCENES - expected_failed);
}

#[test]
fn quarantined_scene_recovers_after_repair_and_retry() {
    let mut obs = Observatory::with_defaults(78);
    let ids = acquire_scenes(&mut obs, 2, 9000);
    let victim = ids[1].clone();
    let file = format!("{victim}.sev1");
    let pristine = obs.vault.repository().get(&file).unwrap().to_vec();

    let mut plan = FaultPlan::new();
    plan.inject(victim.clone(), Fault::CorruptPayload);
    plan.apply_to_repository(obs.vault.repository_mut());

    let supervisor = Supervisor::new(1);
    let chain = ProcessingChain::operational();
    let first = obs.run_chain_batch(&ids, &chain, &supervisor).unwrap();
    assert_eq!(first.failed_count(), 1);
    assert!(obs.vault.is_quarantined(&file));

    // The archive operator restores the bytes; a retry clears the
    // quarantine and the next batch is clean.
    obs.vault.repository_mut().put(&file, pristine);
    obs.vault.retry_quarantined(&file).unwrap();
    assert!(!obs.vault.is_quarantined(&file));
    let second = obs.run_chain_batch(&ids, &chain, &supervisor).unwrap();
    assert_eq!(second.failed_count(), 0);
    assert_eq!(second.succeeded_count(), 2);
    assert!(obs.vault.stats().retries >= 1);
}

/// E12's sweep: at every fault rate the supervised batch loses no
/// healthy scene and fails exactly the scenes given an unrecoverable
/// fault, while transient faults are retried and classifier and
/// georeferencing faults degrade. The per-rate counts are the
/// EXPERIMENTS.md table.
#[test]
fn every_fault_rate_fails_exactly_the_unrecoverable_scenes() {
    // (rate, faulted, ok, retried, degraded, failed)
    let rows = [
        (0.0, 0, 50, 0, 0, 0),
        (0.1, 5, 45, 1, 2, 2),
        (0.2, 12, 38, 2, 4, 6),
        (0.3, 15, 35, 3, 6, 6),
    ];
    for (rate, faulted, ok, retried, degraded, failed) in rows {
        // A fresh observatory per rate: fault plans corrupt the archive.
        let mut obs = Observatory::with_defaults(99);
        let ids = acquire_scenes(&mut obs, SCENES, 5000);
        let plan = FaultPlan::seeded(4242, &ids, rate);
        plan.apply_to_repository(obs.vault.repository_mut());
        let chain = supervised_chain(&obs, &plan);
        let report = obs.run_chain_batch(&ids, &chain, &Supervisor::new(2)).unwrap();

        let lost: Vec<&str> = report
            .scenes
            .iter()
            .filter(|s| !s.outcome.succeeded())
            .map(|s| s.product_id.as_str())
            .collect();
        let injected: Vec<&str> =
            plan.iter().filter(|(_, f)| unrecoverable(f)).map(|(id, _)| id).collect();
        assert_eq!(lost, injected, "rate {rate}: lost scenes differ from the unrecoverable faults");
        let counts = (
            plan.len(),
            report.ok_count(),
            report.retried_count(),
            report.degraded_count(),
            report.failed_count(),
        );
        assert_eq!(counts, (faulted, ok, retried, degraded, failed), "rate {rate}");
    }
}
