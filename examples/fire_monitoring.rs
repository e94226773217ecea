//! Demo scenario 1 — the NOA processing chain.
//!
//! Acquires a day of scenes, runs the chain with *different
//! classification submodules*, compares their products against ground
//! truth, and uses the search facilities to retrieve raw data and
//! derived products from previous executions — exactly the walkthrough
//! of paper §4.
//!
//! Run with: `cargo run --example fire_monitoring`

use std::time::Duration;
use teleios::core::observatory::AcquisitionSpec;
use teleios::core::{portal, Observatory};
use teleios::geo::Coord;
use teleios::ingest::seviri::FireEvent;
use teleios::noa::hotspot::HotspotClassifier;
use teleios::noa::{accuracy, ProcessingChain};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut obs = Observatory::with_defaults(2007);

    // A fire front advancing through the day: three acquisitions.
    let fire_track = [
        Coord::new(22.2, 37.4),
        Coord::new(22.3, 37.5),
        Coord::new(22.4, 37.6),
    ];
    let mut products = Vec::new();
    for (i, center) in fire_track.iter().enumerate() {
        let spec = AcquisitionSpec {
            seed: 100 + i as u64,
            rows: 96,
            cols: 96,
            acquisition: format!("2007-08-25T{:02}:00:00Z", 10 + 2 * i),
            satellite: "MSG2".into(),
            fires: vec![FireEvent { center: *center, radius: 0.09, intensity: 0.9 }],
            cloud_cover: 0.04,
            glint_rate: 0.01,
        };
        products.push(obs.acquire_scene(&spec)?);
    }
    println!("acquired {} scenes of the fire front\n", products.len());

    // Compare classification submodules on the latest scene.
    let chains = [
        ProcessingChain {
            classifier: HotspotClassifier::Threshold { kelvin: 318.0 },
            ..ProcessingChain::operational()
        },
        ProcessingChain {
            classifier: HotspotClassifier::Adaptive { sigma: 4.0 },
            ..ProcessingChain::operational()
        },
        ProcessingChain {
            classifier: HotspotClassifier::Contextual { kelvin: 318.0, min_neighbors: 2 },
            ..ProcessingChain::operational()
        },
    ];
    let latest = products.last().expect("scenes acquired").clone();
    let truth = obs.truth_for(&latest)?;
    println!("classifier comparison on {latest} (vs ground truth):");
    println!("{:<22} {:>9} {:>9} {:>9} {:>10}", "chain", "precision", "recall", "F1", "features");
    for chain in &chains {
        let report = obs.run_chain(&latest, chain)?;
        let acc = accuracy::score(&report.output.mask, &truth)?;
        println!(
            "{:<22} {:>9.3} {:>9.3} {:>9.3} {:>10}",
            chain.id(),
            acc.precision(),
            acc.recall(),
            acc.f1(),
            report.output.features.len()
        );
    }
    println!();

    // Run the operational chain over the full day.
    for id in &products[..products.len() - 1] {
        obs.run_chain(id, &ProcessingChain::operational())?;
    }

    // Discovery: retrieve raw data and derived products from previous
    // executions (the search facilities of the demo GUI).
    println!("product browser:\n{}", portal::list_products(&mut obs)?);
    let derived = obs.search(
        "PREFIX noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>\n\
         SELECT ?d ?chain WHERE { ?d a noa:DerivedProduct ; noa:isProducedByProcessingChain ?chain } ORDER BY ?d",
    )?;
    println!("derived products:\n{}", derived.to_text());

    // The flagship query: fires near archaeological sites.
    println!("{}", portal::run_flagship(&mut obs, "MSG2", "2007-08-25", 0.3)?);

    // End of the event: refine products and derive the burnt-area scar
    // with its stRDF valid-time period.
    let refined = obs.refine_products_supervised(&obs.product_ids(), Duration::MAX);
    let burnt_area = obs.derive_burnt_area(&products, "firefront-0825", Duration::MAX)?;
    if !refined.is_complete() || !burnt_area.is_complete() {
        return Err("a product failed refinement or burnt-area mapping".into());
    }
    let scars = burnt_area.stats;
    let burnt = obs.search(
        "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
         SELECT ?b ?t WHERE {            ?b a <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#BurntArea> ;               strdf:hasValidTime ?t } ORDER BY ?b",
    )?;
    let survivors = teleios::noa::refine::surviving_hotspot_geometries(&mut obs.strabon, &latest)?;
    let ha: f64 = survivors
        .iter()
        .map(|p| teleios::geo::crs::geodesic_area_m2(&teleios::geo::Geometry::Polygon(p.clone())))
        .sum::<f64>()
        / 10_000.0;
    println!("surviving hotspot area on {latest}: {ha:.0} ha");
    println!("burnt-area products ({scars} scar feature(s)):
{}", burnt.to_text());
    Ok(())
}
