//! `teleios-portal` — a command-line stand-in for the EOWEB-like GUI of
//! the demo (paper Fig. 3).
//!
//! Runs a scripted observatory session and then executes one of the
//! canned portal actions:
//!
//! ```text
//! portal overview                 # archive state
//! portal products                 # product browser
//! portal flagship [dist_deg]      # the paper's flagship query
//! portal firemap [out.geojson]    # rapid mapping (GeoJSON to stdout/file)
//! portal query '<stSPARQL>'       # free-form stSPARQL
//! portal sciql '<SciQL>'          # free-form SciQL
//! ```

use std::time::Duration;
use teleios::core::observatory::AcquisitionSpec;
use teleios::core::{portal, Observatory};
use teleios::ingest::seviri::FireEvent;
use teleios::noa::ProcessingChain;
use teleios::sciql::SciqlResult;

fn build_session() -> Result<Observatory, Box<dyn std::error::Error>> {
    let mut obs = Observatory::with_defaults(42);
    // Two acquisitions: one with a fire near the first archaeological
    // site, one quiet.
    let site = obs.world.sites[0].location;
    let mut burning = AcquisitionSpec::small_test(9);
    burning.fires = vec![FireEvent { center: site, radius: 0.09, intensity: 0.95 }];
    burning.cloud_cover = 0.0;
    let id = obs.acquire_scene(&burning)?;
    obs.run_chain(&id, &ProcessingChain::operational())?;
    let quiet = AcquisitionSpec { fires: Vec::new(), ..AcquisitionSpec::small_test(10) };
    obs.acquire_scene(&quiet)?;
    let refined = obs.refine_products_supervised(&obs.product_ids(), Duration::MAX);
    if !refined.is_complete() {
        return Err(format!("refinement incomplete: {:?}", refined.products).into());
    }
    Ok(obs)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let action = args.first().map(String::as_str).unwrap_or("overview");

    let mut obs = build_session()?;
    match action {
        "overview" => println!("{}", portal::overview(&obs)),
        "products" => println!("{}", portal::list_products(&mut obs)?),
        "flagship" => {
            let dist: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0.3);
            println!("{}", portal::run_flagship(&mut obs, "MSG2", "2007-08-25", dist)?);
        }
        "firemap" => {
            let region = obs.region();
            let map = obs.fire_map(&region)?;
            let geojson = map.to_geojson();
            match args.get(1) {
                Some(path) => {
                    std::fs::write(path, &geojson)?;
                    eprintln!("wrote {} features to {path}", map.num_features());
                }
                None => println!("{geojson}"),
            }
        }
        "query" => {
            let q = args.get(1).ok_or("usage: portal query '<stSPARQL>'")?;
            println!("{}", obs.search(q)?.to_text());
        }
        "sciql" => {
            let q = args.get(1).ok_or("usage: portal sciql '<SciQL>'")?;
            match obs.sciql(q)? {
                SciqlResult::Done => println!("ok"),
                SciqlResult::Scalar(s) => println!("{s}"),
                SciqlResult::Array(a) => println!("array {:?} ({} cells)", a.shape(), a.len()),
            }
        }
        other => {
            eprintln!("unknown action '{other}'");
            eprintln!("actions: overview | products | flagship [dist] | firemap [out] | query <q> | sciql <q>");
            std::process::exit(2);
        }
    }
    Ok(())
}
