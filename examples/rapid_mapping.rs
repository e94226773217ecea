//! Rapid mapping: automatic fire-map generation enriched with linked
//! open data — "of paramount importance to NOA, since the creation of
//! such maps in the past has been a time-consuming manual process"
//! (paper §4).
//!
//! Run with: `cargo run --example rapid_mapping`

use std::time::Duration;
use teleios::core::observatory::AcquisitionSpec;
use teleios::core::Observatory;
use teleios::geo::{Coord, Envelope};
use teleios::ingest::seviri::FireEvent;
use teleios::noa::ProcessingChain;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut obs = Observatory::with_defaults(7);

    // An emergency: a strong fire near the biggest city.
    let city = obs
        .world
        .places
        .iter()
        .max_by_key(|p| p.population)
        .expect("world has places")
        .clone();
    println!("fire reported near {} (pop. {})\n", city.name, city.population);

    let spec = AcquisitionSpec {
        seed: 99,
        rows: 96,
        cols: 96,
        acquisition: "2007-08-25T14:00:00Z".into(),
        satellite: "MSG2".into(),
        // The fire burns at the city's edge (guaranteed on land).
        fires: vec![FireEvent { center: city.location, radius: 0.1, intensity: 1.0 }],
        cloud_cover: 0.02,
        glint_rate: 0.01,
    };
    let id = obs.acquire_scene(&spec)?;
    obs.run_chain(&id, &ProcessingChain::operational())?;
    let refined = obs.refine_products_supervised(&obs.product_ids(), Duration::MAX);
    if !refined.is_complete() {
        return Err(format!("refinement incomplete: {:?}", refined.products).into());
    }

    // Generate the fire map for a window around the city.
    let region = Envelope::new(
        Coord::new(city.location.x - 0.5, city.location.y - 0.5),
        Coord::new(city.location.x + 0.5, city.location.y + 0.5),
    );
    let map = obs.fire_map(&region)?;
    println!("{}", map.to_text());

    // The layers come straight from linked data: enumerate what the map
    // joined together.
    for layer in &map.layers {
        if layer.name == "places" {
            let names: Vec<&str> =
                layer.features.iter().map(|(_, l)| l.as_str()).collect();
            println!("populated places on the map: {}", names.join(", "));
        }
    }
    let hotspots = map.layer("hotspots").expect("hotspot layer");
    println!("hotspot features mapped: {}", hotspots.features.len());

    // Emergency-response query: which places lie within 0.3 degrees of a
    // surviving hotspot?
    let sols = obs.search(
        "PREFIX noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>\n\
         PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n\
         PREFIX gn: <http://sws.geonames.org/ontology#>\n\
         SELECT DISTINCT ?name WHERE {\n\
           ?h a noa:Hotspot ; strdf:hasGeometry ?hg .\n\
           ?place a gn:PopulatedPlace ; gn:name ?name ; strdf:hasGeometry ?pg .\n\
           FILTER(strdf:distance(?hg, ?pg) < 0.3)\n\
         } ORDER BY ?name",
    )?;
    println!("\nplaces within 0.3 deg of an active hotspot:\n{}", sols.to_text());
    Ok(())
}
