//! E12 — fault-tolerant batch execution under injected faults.
//!
//! A 50-scene `run_chain_batch` under seeded fault plans at increasing
//! fault rates, against an all-or-nothing baseline read off the same
//! report. The supervised batch should deliver every recoverable scene
//! (transient faults retried, classifier/georef faults degraded) and
//! lose only the genuinely unrecoverable ones (worker panics, corrupted
//! archives), while the baseline loses the entire batch as soon as one
//! fault lands. Prints the table recorded in EXPERIMENTS.md.

use teleios_bench::report::{self, Align, Table};
use teleios_core::observatory::AcquisitionSpec;
use teleios_core::Observatory;
use teleios_geo::Coord;
use teleios_ingest::raster::GeoTransform;
use teleios_ingest::seviri::FireEvent;
use teleios_noa::{accuracy, HotspotClassifier, ProcessingChain};
use teleios_resilience::{FaultPlan, Supervisor};

const SCENES: usize = 50;
const SEED: u64 = 4242;

fn acquire_scenes(obs: &mut Observatory, n: usize) -> Vec<String> {
    let center = obs.region().center();
    (0..n)
        .map(|i| {
            let spec = AcquisitionSpec {
                seed: 5000 + i as u64,
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
            obs.acquire_scene(&spec).expect("acquisition")
        })
        .collect()
}

fn supervised_chain(obs: &Observatory, plan: &FaultPlan) -> ProcessingChain {
    ProcessingChain {
        classifier: HotspotClassifier::Contextual { kelvin: 318.0, min_neighbors: 2 },
        target_grid: Some((GeoTransform::fit(&obs.region(), 32, 32), 32, 32)),
        ..ProcessingChain::operational()
    }
    .with_stage_hook(plan.chain_hook())
}

fn main() {
    report::title("E12: supervised 50-scene batch vs all-or-nothing, under seeded fault plans");
    let table = Table::new(&[
        ("rate", 5, Align::Right),
        ("faulted", 7, Align::Right),
        ("ok", 4, Align::Right),
        ("retried", 7, Align::Right),
        ("degraded", 8, Align::Right),
        ("failed", 6, Align::Right),
        ("healthy_lost", 12, Align::Right),
        ("recall", 7, Align::Right),
        ("batch", 9, Align::Right),
        ("baseline", 14, Align::Right),
    ]);
    table.header();
    for rate in [0.0, 0.1, 0.2, 0.3] {
        // A fresh observatory per rate: fault plans corrupt the archive.
        let mut obs = Observatory::with_defaults(99);
        let ids = acquire_scenes(&mut obs, SCENES);
        let plan = FaultPlan::seeded(SEED, &ids, rate);
        plan.apply_to_repository(obs.vault.repository_mut());

        let chain = supervised_chain(&obs, &plan);
        let supervisor = Supervisor::new(2);
        let report = obs.run_chain_batch(&ids, &chain, &supervisor).expect("batch");

        let healthy_lost = report
            .scenes
            .iter()
            .filter(|s| plan.fault_for(&s.product_id).is_none() && !s.outcome.succeeded())
            .count();

        // Mean recall of the delivered products against ground truth —
        // degraded products count, so this shows what graceful
        // degradation costs in accuracy.
        let mut recalls = Vec::new();
        for scene in &report.scenes {
            if let Some(output) = &scene.output {
                let truth = obs.truth_for(&scene.product_id).expect("truth");
                if let Ok(acc) = accuracy::score(&output.mask, &truth) {
                    recalls.push(acc.recall());
                }
            }
        }
        let mean_recall = if recalls.is_empty() {
            0.0
        } else {
            recalls.iter().sum::<f64>() / recalls.len() as f64
        };

        // Baseline: an all-or-nothing executor runs every loadable
        // scene once on the primary chain, so the batch survives only
        // if each loaded scene's first attempt succeeded — the scenes
        // the supervised report marks `Ok`. One fault anywhere loses
        // the whole batch. A scene whose vault load failed never
        // reached an attempt.
        let loaded = report.scenes.iter().filter(|s| s.attempts > 0).count();
        let baseline = if report.ok_count() < loaded {
            "batch lost".to_string()
        } else if loaded == SCENES {
            format!("{loaded} products")
        } else {
            format!("{loaded} products*")
        };

        table.row(&[
            format!("{:.0}%", rate * 100.0),
            plan.len().to_string(),
            report.ok_count().to_string(),
            report.retried_count().to_string(),
            report.degraded_count().to_string(),
            report.failed_count().to_string(),
            healthy_lost.to_string(),
            format!("{mean_recall:.3}"),
            teleios_bench::fmt_duration(report.wall_clock),
            baseline,
        ]);
    }
    report::note("\n(*: corrupted scenes already lost at vault load, before the baseline ran)");
}
