//! E3 — flagship spatial-query latency: vs archive size, with and
//! without the R-tree spatial sidecar; and vs the hotspot:image ratio
//! (1:4 to 16:1), where a plan cliff would show.
//!
//! `--smoke` runs both tables at small sizes (the gate's run). Every
//! answer is checked before anything is timed: indexed vs scan per
//! size; per ratio, the flagship under the default and index-off
//! configurations against the same query, hand-ordered, under
//! `optimize_bgp = false`.

use std::time::Instant;
use teleios_bench::report::{self, Align, Table};
use teleios_bench::{
    build_archive, build_archive_ratio, fmt_duration, spatial_region_query, time_avg,
};
use teleios_core::portal::flagship_query;
use teleios_strabon::{Solutions, Strabon, StrabonConfig};

/// The flagship's day and distance.
const DAY: &str = "2007-08-01";
const DISTANCE: f64 = 0.3;
const SITES: usize = 12;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    size_table(if smoke { &[1_000] } else { &[1_000, 5_000, 20_000, 50_000] });
    ratio_table(if smoke { 400 } else { 4_000 }, if smoke { 3 } else { 21 });
}

fn size_table(sizes: &[usize]) {
    report::title("E3: spatial query latency vs archive size (indexed vs scan)");
    let table = Table::new(&[
        ("products", 9, Align::Right),
        ("rows", 7, Align::Right),
        ("indexed", 12, Align::Right),
        ("scan", 12, Align::Right),
        ("speedup", 9, Align::Right),
    ]);
    table.header();
    let query = spatial_region_query();
    for &n in sizes {
        let mut indexed = build_archive(n, 8, StrabonConfig::default());
        let mut scan = build_archive(
            n,
            8,
            StrabonConfig {
                rdfs_inference: false,
                optimize_bgp: true,
                use_spatial_index: false,
                ..StrabonConfig::default()
            },
        );
        let rows = indexed.query(&query).expect("warm").len();
        assert_eq!(rows, scan.query(&query).expect("warm").len(), "results must agree");
        let reps = if n <= 5_000 { 5 } else { 2 };
        let t_idx = time_avg(reps, || {
            indexed.query(&query).expect("query");
        });
        let t_scan = time_avg(reps, || {
            scan.query(&query).expect("query");
        });
        table.row(&[
            n.to_string(),
            rows.to_string(),
            fmt_duration(t_idx),
            fmt_duration(t_scan),
            format!("{:.1}x", t_scan.as_secs_f64() / t_idx.as_secs_f64()),
        ]);
    }
}

/// The flagship's patterns in a good join order, for the syntactic
/// reference: no cross product before the sites, FILTERs at the end.
fn hand_ordered() -> String {
    let text = flagship_query("MSG2", DAY, DISTANCE);
    let (head, _) = text.split_once("SELECT").expect("flagship text");
    format!(
        "{head}SELECT DISTINCT ?img ?h ?site WHERE {{\n\
           ?img noa:hasAcquisitionTime ?t ; a noa:RawImage ;\n\
                noa:isAcquiredBy <http://teleios.di.uoa.gr/satellites/MSG2> .\n\
           ?h noa:isDerivedFrom ?img ; a noa:Hotspot ; strdf:hasGeometry ?hg .\n\
           ?site a <http://dbpedia.org/ontology/ArchaeologicalSite> ; strdf:hasGeometry ?sg .\n\
           FILTER(STR(?t) >= \"{DAY}T00:00:00Z\" && STR(?t) < \"{DAY}T23:59:59Z\")\n\
           FILTER(strdf:distance(?hg, ?sg) < {DISTANCE})\n\
         }}"
    )
}

fn sorted(sols: Solutions) -> Vec<Vec<Option<teleios_rdf::term::Term>>> {
    let mut rows = sols.rows;
    rows.sort();
    rows
}

/// The largest estimate the flagship's EXPLAIN prints.
fn peak_estimate(db: &mut Strabon, query: &str) -> u64 {
    let plan = db.explain(query).expect("explain");
    plan.lines()
        .filter_map(|l| {
            l.rsplit_once("(est ").and_then(|(_, n)| n.trim_end_matches(')').parse::<f64>().ok())
        })
        .fold(0.0, f64::max) as u64
}

fn ratio_table(entities: usize, reps: usize) {
    report::title("E3: flagship latency vs hotspot:image ratio (images + hotspots fixed)");
    let table = Table::new(&[
        ("ratio", 6, Align::Right),
        ("images", 7, Align::Right),
        ("hotspots", 9, Align::Right),
        ("rows", 6, Align::Right),
        ("peak est", 9, Align::Right),
        ("p50", 12, Align::Right),
    ]);
    table.header();
    let query = flagship_query("MSG2", DAY, DISTANCE);
    let syntactic = StrabonConfig { optimize_bgp: false, ..StrabonConfig::default() };
    let configs = [
        StrabonConfig { threads: 1, ..StrabonConfig::default() },
        StrabonConfig { threads: 1, use_spatial_index: false, ..StrabonConfig::default() },
    ];
    let mut p50s = Vec::new();
    for (h, i) in [(1, 4), (1, 1), (4, 1), (16, 1)] {
        let images = entities * i / (h + i);
        let hotspots = entities - images;
        let expected = sorted(
            build_archive_ratio(images, hotspots, SITES, syntactic)
                .query(&hand_ordered())
                .expect("reference"),
        );
        for config in configs {
            let mut db = build_archive_ratio(images, hotspots, SITES, config);
            assert_eq!(
                sorted(db.query(&query).expect("flagship")),
                expected,
                "{h}:{i} under {config:?}"
            );
        }
        let mut db = build_archive_ratio(images, hotspots, SITES, configs[0]);
        let peak = peak_estimate(&mut db, &query);
        let mut times: Vec<_> = (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                db.query(&query).expect("flagship");
                t0.elapsed()
            })
            .collect();
        times.sort();
        let p50 = times[reps / 2];
        p50s.push(p50);
        table.row(&[
            format!("{h}:{i}"),
            images.to_string(),
            hotspots.to_string(),
            expected.len().to_string(),
            peak.to_string(),
            fmt_duration(p50),
        ]);
    }
    let (lo, hi) = (p50s.iter().min().expect("ratios"), p50s.iter().max().expect("ratios"));
    println!("p50 spread across ratios: {:.1}x (target ≤ 3x)", hi.as_secs_f64() / lo.as_secs_f64());
}
