//! Demo scenario 2 — improving generated products.
//!
//! The low spatial resolution of the MSG/SEVIRI sensor makes the hotspot
//! shapefiles include detections over the sea (glint artifacts, mixed
//! coastal pixels). This example shows the refinement post-processing
//! step: the shapefiles are transformed into RDF, compared with
//! coastline linked data through an stSPARQL `DELETE/INSERT ... WHERE`
//! statement, and the inconsistent geometries are reclassified. The
//! user sees the exact update statement and the accuracy effect.
//!
//! Run with: `cargo run --example refinement`

use std::time::Duration;
use teleios::core::observatory::AcquisitionSpec;
use teleios::core::Observatory;
use teleios::linked::emit::landmass_literal;
use teleios::noa::refine;
use teleios::noa::{accuracy, ProcessingChain};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut obs = Observatory::with_defaults(42);

    // Acquire a scene with a real fire AND a high glint rate, so the
    // threshold classifier produces sea false positives.
    let mut spec = AcquisitionSpec::small_test(4);
    spec.rows = 96;
    spec.cols = 96;
    spec.glint_rate = 0.03;
    spec.cloud_cover = 0.0;
    let id = obs.acquire_scene(&spec)?;
    let report = obs.run_chain(&id, &ProcessingChain::operational())?;
    let truth = obs.truth_for(&id)?;

    let before = accuracy::score(&report.output.mask, &truth)?;
    println!(
        "before refinement: {} features, precision {:.3}, recall {:.3} ({} false positives)\n",
        report.output.features.len(),
        before.precision(),
        before.recall(),
        before.false_positives,
    );

    // The stSPARQL updates the demo presents to the user.
    let landmass = landmass_literal(&obs.world);
    let [refute_stmt, clip_stmt] = refine::refinement_updates_scoped(&landmass, Some(&id));
    println!("refinement update 1 (refute sea detections):\n{refute_stmt}\n");
    println!("refinement update 2 (clip coastal geometries):\n{clip_stmt}\n");

    // Execute it.
    let refined = obs.refine_products_supervised(std::slice::from_ref(&id), Duration::MAX);
    if !refined.is_complete() {
        return Err(format!("refinement incomplete: {:?}", refined.products).into());
    }
    let stats = refined.stats;
    println!(
        "refinement: {} hotspot(s) examined, {} kept ({} geometry-clipped), {} reclassified as RefutedHotspot\n",
        stats.before, stats.kept, stats.clipped, stats.refuted
    );

    // Observe the effect: accuracy of the surviving product.
    let survivors = refine::surviving_hotspot_geometries(&mut obs.strabon, &id)?;
    let polys: Vec<&teleios::geo::geometry::Polygon> = survivors.iter().collect();
    let raster = obs.raster_for(&id)?;
    let refined_mask =
        refine::features_to_mask(&polys, &raster.geo, raster.rows(), raster.cols());
    let after = accuracy::score(&refined_mask, &truth)?;
    println!(
        "after refinement:  {} features, precision {:.3}, recall {:.3} ({} false positives)",
        survivors.len(),
        after.precision(),
        after.recall(),
        after.false_positives,
    );
    println!(
        "\nthematic accuracy: precision {:.3} -> {:.3}, F1 {:.3} -> {:.3}",
        before.precision(),
        after.precision(),
        before.f1(),
        after.f1()
    );

    // The refuted detections remain inspectable.
    let refuted = obs.search(&format!(
        "SELECT ?h WHERE {{ ?h a <{}> }}",
        refine::REFUTED_HOTSPOT
    ))?;
    println!("\nrefuted detections kept for audit: {}", refuted.len());
    Ok(())
}
