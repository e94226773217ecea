//! E7 — thematic-accuracy improvement from the stSPARQL refinement step
//! (demo scenario 2), across glint rates and coastline complexities.

use std::time::Duration;
use teleios_bench::report::{self, Align, Table};
use teleios_bench::{fmt_duration, time_once};
use teleios_core::observatory::AcquisitionSpec;
use teleios_core::Observatory;
use teleios_geo::Coord;
use teleios_ingest::seviri::FireEvent;
use teleios_linked::world::WorldSpec;
use teleios_noa::{accuracy, refine, ProcessingChain};

fn run_case(table: &Table, coast_points: usize, glint: f64) {
    let mut obs = Observatory::new(WorldSpec {
        seed: 42,
        coast_points,
        ..WorldSpec::default()
    });
    let center = obs.region().center();
    let spec = AcquisitionSpec {
        seed: 9,
        rows: 96,
        cols: 96,
        acquisition: "2007-08-25T12:00:00Z".into(),
        satellite: "MSG2".into(),
        fires: vec![FireEvent {
            center: Coord::new(center.x + 0.1, center.y),
            radius: 0.09,
            intensity: 0.9,
        }],
        cloud_cover: 0.0,
        glint_rate: glint,
    };
    let id = obs.acquire_scene(&spec).expect("acquire");
    let report = obs.run_chain(&id, &ProcessingChain::operational()).expect("chain");
    let truth = obs.truth_for(&id).expect("truth");
    let before = accuracy::score(&report.output.mask, &truth).expect("score");

    let (refined, t_refine) =
        time_once(|| obs.refine_products_supervised(&obs.product_ids(), Duration::MAX));
    assert!(refined.is_complete(), "refinement incomplete: {:?}", refined.products);
    let stats = refined.stats;

    let survivors = refine::surviving_hotspot_geometries(&mut obs.strabon, &id).expect("survivors");
    let polys: Vec<&teleios_geo::geometry::Polygon> = survivors.iter().collect();
    let raster = obs.raster_for(&id).expect("raster");
    let refined =
        refine::features_to_mask(&polys, &raster.geo, raster.rows(), raster.cols());
    let after = accuracy::score(&refined, &truth).expect("score");

    table.row(&[
        coast_points.to_string(),
        glint.to_string(),
        stats.before.to_string(),
        stats.refuted.to_string(),
        stats.clipped.to_string(),
        format!("{:.3}", before.precision()),
        format!("{:.3}", after.precision()),
        format!("{:.3}", before.f1()),
        format!("{:.3}", after.f1()),
        fmt_duration(t_refine),
    ]);
}

fn main() {
    report::title("E7: stSPARQL refinement — accuracy before/after (96² scenes)");
    let table = Table::new(&[
        ("coast", 7, Align::Right),
        ("glint", 6, Align::Right),
        ("features", 9, Align::Right),
        ("refuted", 8, Align::Right),
        ("clipped", 8, Align::Right),
        ("prec_before", 11, Align::Right),
        ("prec_after", 10, Align::Right),
        ("f1_bef", 8, Align::Right),
        ("f1_aft", 7, Align::Right),
        ("update_time", 12, Align::Right),
    ]);
    table.header();
    for coast_points in [24usize, 48, 96] {
        for glint in [0.01f64, 0.03, 0.06] {
            run_case(&table, coast_points, glint);
        }
    }
}
