//! Batch supervision on the fixed-size worker pool.
//!
//! `Supervisor::run_batch` drains the batch through a fixed-size
//! `teleios_exec::WorkerPool`. These tests pin the guarantees: a
//! 200-scene batch on a 4-worker pool never has more than 4 scenes in
//! flight, keeps input order, and loses no healthy scene — with or
//! without poisoned scenes in the mix.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use teleios_exec::LockWitness;

use teleios_geo::{Coord, Envelope};
use teleios_ingest::raster::GeoRaster;
use teleios_ingest::seviri::{generate, FireEvent, SceneSpec, SurfaceKind};
use teleios_monet::Catalog;
use teleios_noa::chain::ChainStage;
use teleios_noa::ProcessingChain;
use teleios_resilience::{Fault, FaultPlan, SceneOutcome, Supervisor};

fn bbox() -> Envelope {
    Envelope::new(Coord::new(21.0, 36.0), Coord::new(24.0, 39.0))
}

fn scenes(n: usize) -> Vec<(String, GeoRaster)> {
    (0..n)
        .map(|i| {
            let mut spec = SceneSpec::new(900 + i as u64, 16, 16, bbox());
            spec.cloud_cover = 0.0;
            spec.glint_rate = 0.0;
            spec.fires.push(FireEvent {
                center: Coord::new(21.6, 37.4),
                radius: 0.2,
                intensity: 0.9,
            });
            (format!("batch{i:03}"), generate(&spec, &|_| SurfaceKind::Forest).unwrap().raster)
        })
        .collect()
}

#[test]
fn large_batch_on_small_pool_keeps_input_order() {
    let batch = scenes(200);
    // A scene is in flight from its ingest stage to its shapefile
    // stage; the hook records the most ever in flight at once.
    let (in_flight, peak) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let (now, most) = (Arc::clone(&in_flight), Arc::clone(&peak));
    let chain = ProcessingChain::operational().with_stage_hook(Arc::new(
        move |_: &str, stage: ChainStage, _: &ProcessingChain| {
            match stage {
                ChainStage::Ingest => {
                    most.fetch_max(now.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                    // Hold the scene open long enough for the workers to overlap.
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                ChainStage::Shapefile => {
                    now.fetch_sub(1, Ordering::SeqCst);
                }
                _ => {}
            }
            Ok(())
        },
    ));
    let supervisor = Supervisor::new(1).with_workers(4);
    let report = supervisor.run_batch(&Catalog::new(), &chain, &batch);

    assert_eq!(report.scenes.len(), 200);
    assert_eq!(report.ok_count(), 200);
    assert_eq!(report.failed_count(), 0);
    // Input order is preserved across the pool.
    for (i, scene) in report.scenes.iter().enumerate() {
        assert_eq!(scene.product_id, format!("batch{i:03}"));
    }
    // Bounded concurrency: never more scenes in flight than workers.
    let peak = peak.load(Ordering::SeqCst);
    assert!((1..=4).contains(&peak), "{peak} scenes in flight on a 4-worker pool");
    assert_eq!(in_flight.load(Ordering::SeqCst), 0);
}

#[test]
fn poisoned_scenes_on_pool_lose_no_healthy_scene() {
    let batch = scenes(40);
    let mut plan = FaultPlan::new();
    plan.inject("batch007", Fault::WorkerPanic).inject("batch023", Fault::WorkerPanic);
    let chain = ProcessingChain::operational().with_stage_hook(plan.chain_hook());
    let supervisor = Supervisor::new(1).with_workers(4);
    let report = supervisor.run_batch(&Catalog::new(), &chain, &batch);

    assert_eq!(report.scenes.len(), 40);
    assert_eq!(report.failed_count(), 2);
    assert_eq!(report.ok_count(), 38);
    for scene in &report.scenes {
        let poisoned = scene.product_id == "batch007" || scene.product_id == "batch023";
        match (&scene.outcome, poisoned) {
            (SceneOutcome::Failed { .. }, true) | (SceneOutcome::Ok, false) => {}
            (outcome, _) => {
                panic!("scene {} had unexpected outcome {outcome:?}", scene.product_id)
            }
        }
    }
}

#[test]
fn default_worker_count_follows_executor_default() {
    let batch = scenes(3);
    // workers = 0 delegates to the executor default
    // (`TELEIOS_THREADS` / available parallelism), which is ≥ 1 and
    // clamped to the batch size by the pool.
    let supervisor = Supervisor::new(1);
    let report = supervisor.run_batch(&Catalog::new(), &ProcessingChain::operational(), &batch);
    assert_eq!(report.ok_count(), 3);
}

/// The locks a supervised batch takes — the pool's task slots, the
/// circuit breaker, the fault plan's attempt counters and the cancel
/// tokens' reason slots — are flat: none is taken while another is
/// held, so the global lock-order graph (recorded in debug builds)
/// gains no edge and can close no cycle.
#[test]
fn a_supervised_batch_nests_no_witnessed_locks() {
    let mut plan = FaultPlan::new();
    let hang = Fault::Hang { stage: ChainStage::Classify, duration: Duration::from_secs(10) };
    plan.inject("batch000", hang).inject("batch001", Fault::Transient { failures: 1 });
    let chain = ProcessingChain::operational().with_stage_hook(plan.chain_hook());
    let supervisor = Supervisor::new(1).with_workers(2).with_deadline(Duration::from_millis(100));
    let report = supervisor.run_batch(&Catalog::new(), &chain, &scenes(4));
    assert!(matches!(report.scenes[0].outcome, SceneOutcome::Timeout { .. }));
    assert_eq!(report.scenes[1].outcome, SceneOutcome::Retried(1));
    assert_eq!(LockWitness::global().edges(), Vec::<(String, String)>::new(), "nested witnessed locks");
}
