//! The metric tables — every name, unit and direction the benchmark
//! prints, in print order — and how each value is computed from a run.
//! `BENCHMARK.json` lists exactly these names; a unit test keeps the
//! two in step.

use crate::stats::{median, series_percentile};
use crate::trace::{self, Span};
use crate::workload::RunOutput;
use std::collections::BTreeMap;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Where the value comes from.
    pub source: Source,
}

/// Where a metric's value comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    /// Computed by the runner (set-up time, throughput, RSS, probes…).
    Runner,
    /// Percentile (the `f64`) over the untraced run's per-op wall-clock.
    OpPercentile(f64),
    /// Median over ops of the summed duration of the named span, ms.
    OpSpan(&'static str),
    /// Median over the individual spans of that name, ms.
    EachSpan(&'static str),
    /// Percentile of a series the workload timed itself, untraced run.
    Series(&'static str, f64),
    /// Median of a series only the traced run records.
    TracedSeries(&'static str),
    /// An exact count or ratio from the traced run.
    Count(&'static str),
    /// Share of total self time spent in the named layer, percent.
    LayerShare(&'static str),
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: Source,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        source,
    }
}

/// End-to-end metrics: what a user of the observatory sees. Printed
/// with tracing off.
pub const END_TO_END: [MetricDef; 5] = [
    def("setup_s", "s", "lower", Source::Runner),
    def("ops_per_s", "ops/s", "higher", Source::Runner),
    def("op_p50_ms", "ms", "lower", Source::OpPercentile(50.0)),
    def("op_p95_ms", "ms", "lower", Source::OpPercentile(95.0)),
    def("peak_rss_mib", "MiB", "lower", Source::Runner),
];

/// Per-layer metrics, printed by the traced run. A metric a workload
/// does not exercise prints 0 there.
pub const PER_LAYER: [MetricDef; 80] = [
    def(
        "vault.materialize_ms",
        "ms",
        "lower",
        Source::OpSpan("vault.materialize"),
    ),
    def("vault.hit_ms", "ms", "lower", Source::OpSpan("vault.hit")),
    def(
        "vault.register_ms",
        "ms",
        "lower",
        Source::EachSpan("vault.register"),
    ),
    def(
        "vault.materializations",
        "count",
        "lower",
        Source::Count("vault.materializations"),
    ),
    def(
        "vault.cache_hits",
        "count",
        "higher",
        Source::Count("vault.cache_hits"),
    ),
    def(
        "vault.cache_misses",
        "count",
        "lower",
        Source::Count("vault.cache_misses"),
    ),
    def(
        "vault.evictions",
        "count",
        "lower",
        Source::Count("vault.evictions"),
    ),
    def(
        "vault.hit_ratio",
        "ratio",
        "higher",
        Source::Count("vault.hit_ratio"),
    ),
    def(
        "monet.put_array_ms",
        "ms",
        "lower",
        Source::OpSpan("monet.put_array"),
    ),
    def(
        "monet.cells_ingested",
        "count",
        "lower",
        Source::Count("monet.cells_ingested"),
    ),
    def("monet.sql_ms", "ms", "lower", Source::OpSpan("monet.sql")),
    def(
        "ingest.crop_ms",
        "ms",
        "lower",
        Source::OpSpan("ingest.crop"),
    ),
    def(
        "ingest.georef_ms",
        "ms",
        "lower",
        Source::OpSpan("ingest.georef"),
    ),
    def(
        "ingest.describe_ms",
        "ms",
        "lower",
        Source::OpSpan("ingest.describe_derived"),
    ),
    def(
        "ingest.patches_ms",
        "ms",
        "lower",
        Source::OpSpan("ingest.extract_patches"),
    ),
    def(
        "sciql.classify_ms",
        "ms",
        "lower",
        Source::OpSpan("sciql.classify"),
    ),
    def("sciql.stmt_ms", "ms", "lower", Source::OpSpan("sciql.stmt")),
    def(
        "noa.shapefile_ms",
        "ms",
        "lower",
        Source::OpSpan("noa.shapefile"),
    ),
    def(
        "noa.features",
        "count",
        "lower",
        Source::Count("noa.features"),
    ),
    def(
        "noa.publish_ms",
        "ms",
        "lower",
        Source::OpSpan("noa.publish_hotspots"),
    ),
    def("noa.refine_ms", "ms", "lower", Source::OpSpan("noa.refine")),
    def(
        "noa.refuted",
        "count",
        "lower",
        Source::Count("noa.refuted"),
    ),
    def(
        "noa.clipped",
        "count",
        "lower",
        Source::Count("noa.clipped"),
    ),
    def(
        "noa.firemap_ms",
        "ms",
        "lower",
        Source::OpSpan("noa.firemap"),
    ),
    def(
        "mining.annotate_ms",
        "ms",
        "lower",
        Source::OpSpan("mining.annotate"),
    ),
    def(
        "mining.annotations",
        "count",
        "lower",
        Source::Count("mining.annotations"),
    ),
    def("rdf.insert_ns_per_triple", "ns", "lower", Source::Runner),
    def(
        "rdf.triples",
        "count",
        "lower",
        Source::Count("rdf.triples"),
    ),
    def(
        "rdf.dict_terms",
        "count",
        "lower",
        Source::Count("rdf.dict_terms"),
    ),
    def("rdf.encode_ms", "ms", "lower", Source::OpSpan("rdf.encode")),
    def("rdf.load_ms", "ms", "lower", Source::OpSpan("rdf.load")),
    def(
        "strabon.parse_ms",
        "ms",
        "lower",
        Source::OpSpan("strabon.parse"),
    ),
    def(
        "strabon.eval_ms",
        "ms",
        "lower",
        Source::OpSpan("strabon.eval"),
    ),
    def(
        "strabon.update_ms",
        "ms",
        "lower",
        Source::OpSpan("strabon.update"),
    ),
    def(
        "strabon.sidecar_rebuild_ms",
        "ms",
        "lower",
        Source::TracedSeries("strabon.sidecar_rebuild"),
    ),
    def(
        "strabon.result_rows",
        "count",
        "lower",
        Source::Count("strabon.result_rows"),
    ),
    def("geo.wkt_parse_ms", "ms", "lower", Source::Runner),
    def("geo.rtree_build_ms", "ms", "lower", Source::Runner),
    def("geo.rtree_query_us", "us", "lower", Source::Runner),
    def(
        "store.stage_ms",
        "ms",
        "lower",
        Source::OpSpan("store.stage"),
    ),
    def(
        "store.commit_ms",
        "ms",
        "lower",
        Source::OpSpan("store.commit"),
    ),
    def(
        "store.commits",
        "count",
        "lower",
        Source::Count("store.commits"),
    ),
    def("store.puts", "count", "lower", Source::Count("store.puts")),
    def(
        "store.wal_bytes",
        "count",
        "lower",
        Source::Count("store.wal_bytes"),
    ),
    def(
        "store.snapshots_written",
        "count",
        "lower",
        Source::Count("store.snapshots_written"),
    ),
    def(
        "store.medium_bytes_written",
        "count",
        "lower",
        Source::Count("store.medium_bytes_written"),
    ),
    def(
        "store.write_amp",
        "ratio",
        "lower",
        Source::Count("store.write_amp"),
    ),
    def(
        "store.recovery_open_ms",
        "ms",
        "lower",
        Source::OpSpan("store.recovery_open"),
    ),
    def(
        "store.records_scanned",
        "count",
        "lower",
        Source::Count("store.records_scanned"),
    ),
    def(
        "store.txns_replayed",
        "count",
        "lower",
        Source::Count("store.txns_replayed"),
    ),
    def(
        "store.load_domains_ms",
        "ms",
        "lower",
        Source::OpSpan("store.load_domains"),
    ),
    def(
        "store.recovery_p50_ms",
        "ms",
        "lower",
        Source::Series("store.recovery", 50.0),
    ),
    def(
        "store.recovery_p95_ms",
        "ms",
        "lower",
        Source::Series("store.recovery", 95.0),
    ),
    def("core.publish_self_ms", "ms", "lower", Source::Runner),
    def(
        "core.fresh_query_p50_ms",
        "ms",
        "lower",
        Source::Series("core.fresh_query", 50.0),
    ),
    def(
        "core.fresh_query_p95_ms",
        "ms",
        "lower",
        Source::Series("core.fresh_query", 95.0),
    ),
    def(
        "core.q_flagship_p50_ms",
        "ms",
        "lower",
        Source::Series("core.q_flagship", 50.0),
    ),
    def(
        "core.q_region_p50_ms",
        "ms",
        "lower",
        Source::Series("core.q_region", 50.0),
    ),
    def(
        "core.q_bgp5_p50_ms",
        "ms",
        "lower",
        Source::Series("core.q_bgp5", 50.0),
    ),
    def(
        "core.q_discovery_p50_ms",
        "ms",
        "lower",
        Source::Series("core.q_discovery", 50.0),
    ),
    def(
        "core.q_firemap_p50_ms",
        "ms",
        "lower",
        Source::Series("core.q_firemap", 50.0),
    ),
    def(
        "core.q_sql_p50_ms",
        "ms",
        "lower",
        Source::Series("core.q_sql", 50.0),
    ),
    def("exec.threads", "count", "higher", Source::Runner),
    def("e0.trace_overhead", "ratio", "higher", Source::Runner),
    def(
        "e0.traced_op_p50_ms",
        "ms",
        "lower",
        Source::OpSpan("e0.op"),
    ),
    def("e0.spans", "count", "lower", Source::Runner),
    def(
        "e0.untraced_op_p50_ms",
        "ms",
        "lower",
        Source::OpPercentile(50.0),
    ),
    def(
        "e0.untraced_op_p95_ms",
        "ms",
        "lower",
        Source::OpPercentile(95.0),
    ),
    def("self.vault_pct", "%", "lower", Source::LayerShare("vault")),
    def("self.monet_pct", "%", "lower", Source::LayerShare("monet")),
    def(
        "self.ingest_pct",
        "%",
        "lower",
        Source::LayerShare("ingest"),
    ),
    def("self.sciql_pct", "%", "lower", Source::LayerShare("sciql")),
    def("self.noa_pct", "%", "lower", Source::LayerShare("noa")),
    def(
        "self.mining_pct",
        "%",
        "lower",
        Source::LayerShare("mining"),
    ),
    def(
        "self.linked_pct",
        "%",
        "lower",
        Source::LayerShare("linked"),
    ),
    def("self.rdf_pct", "%", "lower", Source::LayerShare("rdf")),
    def(
        "self.strabon_pct",
        "%",
        "lower",
        Source::LayerShare("strabon"),
    ),
    def("self.store_pct", "%", "lower", Source::LayerShare("store")),
    def("self.core_pct", "%", "lower", Source::LayerShare("core")),
    def("self.e0_pct", "%", "lower", Source::LayerShare("e0")),
];

/// What the runner measured outside the workloads, by metric name.
pub type RunnerValues = BTreeMap<&'static str, f64>;

/// The value of every metric in `defs`, in order.
///
/// `untraced` is the run on the real `Observatory`; `traced` and
/// `spans` come from the mirror run (absent in an untraced report).
pub fn evaluate(
    defs: &[MetricDef],
    runner: &RunnerValues,
    untraced: &RunOutput,
    traced: Option<(&RunOutput, &[Span])>,
) -> Vec<(MetricDef, f64)> {
    let no_spans: &[Span] = &[];
    let (traced_out, spans) = traced.map_or((None, no_spans), |(out, spans)| (Some(out), spans));
    let by_layer = trace::self_time_by_layer(spans);
    let total_self: u64 = by_layer.values().sum();
    defs.iter()
        .map(|def| {
            let value = match def.source {
                Source::Runner => runner.get(def.name).copied().unwrap_or(0.0),
                Source::OpPercentile(p) => series_percentile(&untraced.op_ms, p),
                Source::OpSpan(name) => median(&trace::per_op_ms(spans, name)),
                Source::EachSpan(name) => median(
                    &spans
                        .iter()
                        .filter(|s| s.name == name)
                        .map(|s| s.duration_ns() as f64 / 1e6)
                        .collect::<Vec<_>>(),
                ),
                Source::Series(name, p) => untraced
                    .series
                    .get(name)
                    .map_or(0.0, |s| series_percentile(s, p)),
                Source::TracedSeries(name) => traced_out
                    .and_then(|o| o.series.get(name))
                    .map_or(0.0, |s| median(s)),
                Source::Count(name) => traced_out
                    .and_then(|o| o.counts.get(name))
                    .copied()
                    .unwrap_or(0.0),
                Source::LayerShare(layer) => {
                    if total_self == 0 {
                        0.0
                    } else {
                        by_layer.get(layer).copied().unwrap_or(0) as f64 * 100.0 / total_self as f64
                    }
                }
            };
            (*def, value)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn declared(section: &str) -> Vec<(String, String, String)> {
        let bench = json::parse(include_str!("../../../BENCHMARK.json")).unwrap();
        bench
            .get(section)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn tabled(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        assert_eq!(declared("end_to_end"), tabled(&END_TO_END));
        assert_eq!(declared("per_layer"), tabled(&PER_LAYER));
    }

    #[test]
    fn benchmark_json_names_the_four_workloads_and_bounds_every_end_to_end_metric() {
        let bench = json::parse(include_str!("../../../BENCHMARK.json")).unwrap();
        let names: Vec<&str> = bench
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name")?.as_str())
            .collect();
        assert_eq!(names, crate::workload::NAMES);
        for m in bench.get("end_to_end").and_then(Value::as_array).unwrap() {
            let bound = m.get("bound").and_then(Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        assert_eq!(
            bench.get("run_seconds").and_then(Value::as_f64),
            Some(f64::from(crate::frozen::RUN_SECONDS))
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(
                d.name.len() <= 64
                    && d.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
            assert!(matches!(d.better, "lower" | "higher"));
        }
    }

    #[test]
    fn evaluate_reads_each_source() {
        let mut untraced = RunOutput {
            op_ms: (1..=200).map(f64::from).collect(),
            ..RunOutput::default()
        };
        untraced
            .series
            .insert("core.fresh_query", vec![4.0, 2.0, 3.0]);
        let mut traced = RunOutput::default();
        traced.counts.insert("noa.features", 7.0);
        traced
            .series
            .insert("strabon.sidecar_rebuild", vec![1.0, 3.0, 2.0]);
        let span = |name, start, end, parent, op_id| Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id,
        };
        let spans = vec![
            span("e0.op", 0, 4_000_000, None, 0),
            span("vault.hit", 0, 1_000_000, Some(0), 0),
            span("e0.op", 5_000_000, 8_000_000, None, 1),
            span("vault.hit", 5_000_000, 8_000_000, Some(2), 1),
        ];
        let mut runner = RunnerValues::default();
        runner.insert("exec.threads", 2.0);
        let got: BTreeMap<&str, f64> =
            evaluate(&PER_LAYER, &runner, &untraced, Some((&traced, &spans)))
                .into_iter()
                .map(|(d, v)| (d.name, v))
                .collect();
        assert_eq!(got["vault.hit_ms"], 1.0);
        assert_eq!(got["noa.features"], 7.0);
        assert_eq!(got["core.fresh_query_p50_ms"], 3.0);
        assert_eq!(got["strabon.sidecar_rebuild_ms"], 2.0);
        assert_eq!(got["exec.threads"], 2.0);
        assert_eq!(got["e0.untraced_op_p95_ms"], 190.0);
        assert_eq!(got["self.vault_pct"], 4.0 * 100.0 / 7.0);
        assert_eq!(got["self.e0_pct"], 3.0 * 100.0 / 7.0);
        assert_eq!(got["self.store_pct"], 0.0);
        assert_eq!(got.len(), PER_LAYER.len());
    }
}
