//! E10 — fire-map generation latency vs region size and linked-data
//! volume (the rapid-mapping service of demo scenario 2).

use std::time::Duration;
use teleios_bench::report::{self, Align, Table};
use teleios_bench::{fmt_duration, time_avg};
use teleios_core::observatory::AcquisitionSpec;
use teleios_core::Observatory;
use teleios_geo::{Coord, Envelope};
use teleios_ingest::seviri::FireEvent;
use teleios_linked::world::WorldSpec;
use teleios_noa::ProcessingChain;

fn main() {
    report::title("E10: rapid-mapping fire-map generation latency");
    let table = Table::new(&[
        ("places", 8, Align::Right),
        ("region", 12, Align::Right),
        ("features", 10, Align::Right),
        ("latency", 12, Align::Right),
        ("layers", 10, Align::Right),
    ]);
    table.header();
    for n_places in [25usize, 100, 400] {
        let mut obs = Observatory::new(WorldSpec {
            seed: 42,
            num_places: n_places,
            num_roads: n_places / 2,
            ..WorldSpec::default()
        });
        let center = obs.region().center();
        let spec = AcquisitionSpec {
            seed: 3,
            rows: 96,
            cols: 96,
            acquisition: "2007-08-25T12:00:00Z".into(),
            satellite: "MSG2".into(),
            fires: vec![FireEvent { center, radius: 0.09, intensity: 0.9 }],
            cloud_cover: 0.0,
            glint_rate: 0.01,
        };
        let id = obs.acquire_scene(&spec).expect("acquire");
        obs.run_chain(&id, &ProcessingChain::operational()).expect("chain");
        let refined = obs.refine_products_supervised(&obs.product_ids(), Duration::MAX);
        assert!(refined.is_complete(), "refinement incomplete: {:?}", refined.products);

        for half in [0.25f64, 0.75, 1.5] {
            let region = Envelope::new(
                Coord::new(center.x - half, center.y - half),
                Coord::new(center.x + half, center.y + half),
            );
            let map = obs.fire_map(&region).expect("map");
            let t = time_avg(3, || {
                obs.fire_map(&region).expect("map");
            });
            table.row(&[
                n_places.to_string(),
                format!("{:.2}°", half * 2.0),
                map.num_features().to_string(),
                fmt_duration(t),
                map.layers.len().to_string(),
            ]);
        }
    }
}
