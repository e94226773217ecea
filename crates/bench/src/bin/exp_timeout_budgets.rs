//! E14 — deadline budgets against hung stages.
//!
//! A batch of scenes where a seeded fraction hangs at the classify
//! stage, swept over per-attempt deadline budgets. Without a budget a
//! single wedged stage holds its worker for the full hang; with one,
//! the attempt's token fires inside the hang, the retry
//! and degraded ladder take over, and the per-variant circuit breaker
//! stops the batch from burning budget on a variant that keeps timing
//! out. The table shows the trade: a loose budget recovers hung scenes
//! by out-waiting them, a tight budget bounds batch wall-clock and
//! loses only the hung scenes — never a healthy one.
//!
//! `--smoke` (or `TELEIOS_SMOKE=1`) runs a seconds-scale variant used
//! by `scripts/check.sh` as a hang-regression gate.

use std::time::Duration;
use teleios_bench::report::{self, Align, Table};
use teleios_core::observatory::AcquisitionSpec;
use teleios_core::Observatory;
use teleios_geo::Coord;
use teleios_ingest::raster::GeoTransform;
use teleios_ingest::seviri::FireEvent;
use teleios_noa::chain::ChainStage;
use teleios_noa::{HotspotClassifier, ProcessingChain};
use teleios_resilience::{Fault, FaultPlan, Supervisor};

const SEED: u64 = 1414;

fn acquire_scenes(obs: &mut Observatory, n: usize) -> Vec<String> {
    let center = obs.region().center();
    (0..n)
        .map(|i| {
            let spec = AcquisitionSpec {
                seed: 7000 + i as u64,
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

fn chain_under_test(obs: &Observatory, plan: &FaultPlan) -> ProcessingChain {
    ProcessingChain {
        classifier: HotspotClassifier::Contextual { kelvin: 318.0, min_neighbors: 2 },
        target_grid: Some((GeoTransform::fit(&obs.region(), 32, 32), 32, 32)),
        ..ProcessingChain::operational()
    }
    .with_stage_hook(plan.chain_hook())
}

fn budget_label(budget: Option<Duration>) -> String {
    budget.map_or_else(|| "unlimited".to_string(), teleios_bench::fmt_duration)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("TELEIOS_SMOKE").is_ok_and(|v| v == "1");

    let (scenes, hang, budgets, rates): (usize, Duration, Vec<Option<Duration>>, Vec<f64>) = if smoke {
        (
            6,
            Duration::from_millis(200),
            vec![Some(Duration::from_millis(600)), Some(Duration::from_millis(80))],
            vec![0.0, 0.3],
        )
    } else {
        (
            18,
            Duration::from_millis(400),
            vec![None, Some(Duration::from_millis(1200)), Some(Duration::from_millis(100))],
            vec![0.0, 0.2, 0.4],
        )
    };

    report::title(&format!(
        "E14: {scenes}-scene batch, classify-stage hangs of {}, per-attempt deadline sweep{}",
        teleios_bench::fmt_duration(hang),
        if smoke { " (smoke)" } else { "" },
    ));
    let table = Table::new(&[
        ("budget", 9, Align::Right),
        ("rate", 5, Align::Right),
        ("faulted", 7, Align::Right),
        ("ok", 4, Align::Right),
        ("retried", 7, Align::Right),
        ("degraded", 8, Align::Right),
        ("timeout", 7, Align::Right),
        ("failed", 6, Align::Right),
        ("healthy_lost", 12, Align::Right),
        ("batch", 9, Align::Right),
    ]);
    table.header();

    for &budget in &budgets {
        for &rate in &rates {
            // Fresh observatory per cell: products republish into the
            // vault and plans mutate the archive.
            let mut obs = Observatory::with_defaults(99);
            let ids = acquire_scenes(&mut obs, scenes);
            let palette = [Fault::Hang { stage: ChainStage::Classify, duration: hang }];
            let plan = FaultPlan::seeded_with(SEED, &ids, rate, &palette);
            plan.apply_to_repository(obs.vault.repository_mut());

            let chain = chain_under_test(&obs, &plan);
            let supervisor = Supervisor { deadline: budget, ..Supervisor::new(1) };
            let report = obs.run_chain_batch(&ids, &chain, &supervisor).expect("batch");

            let healthy_lost = report
                .scenes
                .iter()
                .filter(|s| plan.fault_for(&s.product_id).is_none() && !s.outcome.succeeded())
                .count();

            table.row(&[
                budget_label(budget),
                format!("{:.0}%", rate * 100.0),
                plan.len().to_string(),
                report.ok_count().to_string(),
                report.retried_count().to_string(),
                report.degraded_count().to_string(),
                report.timeout_count().to_string(),
                report.failed_count().to_string(),
                healthy_lost.to_string(),
                teleios_bench::fmt_duration(report.wall_clock),
            ]);

            assert_eq!(
                healthy_lost, 0,
                "deadline supervision lost a healthy scene (budget {}, rate {rate})",
                budget_label(budget)
            );
        }
    }
    report::note(
        "\n(a loose budget out-waits hung stages; a tight one bounds batch wall-clock and\n\
         converts each hung scene into a recorded Timeout instead of a wedged worker)",
    );
}
