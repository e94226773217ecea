//! Drives one workload and turns what it measured into a report.
//!
//! Load model (all workloads): closed loop, one client thread, a fixed
//! number of ops — not a fixed duration, so counts repeat exactly at a
//! fixed seed. `--seconds` scales the frozen op counts linearly. The
//! worker pool is pinned to `min(nproc, 4)` threads before the first
//! pool is built; the harness itself spawns nothing.
//!
//! `--trace 0` sets up several times (the median is `setup_s`), runs
//! the window on the real `Observatory` and reports the end-to-end
//! metrics. `--trace 1` runs the window twice — on the `Observatory`,
//! then on the traced mirror — checks that both produced the same
//! digests and counts, and reports the per-layer metrics.

use crate::archive_query::ArchiveQuery;
use crate::chain_ingest::ChainIngest;
use crate::crash_recover::CrashRecover;
use crate::digest::Fold;
use crate::engine::{Mirror, Res};
use crate::frozen;
use crate::json::Value;
use crate::metrics::{self, MetricDef, RunnerValues, END_TO_END, PER_LAYER};
use crate::observatory_mixed::ObservatoryMixed;
use crate::rng::SplitMix64;
use crate::stats::{median, Summary};
use crate::trace::{self, Span, Tracer};
use crate::workload::{timed, Plan, RunOutput, Workload, NAMES};
use std::collections::BTreeMap;
use teleios_core::Observatory;
use teleios_exec::WorkerPool;
use teleios_geo::index::RTree;
use teleios_geo::{Coord, Envelope};
use teleios_rdf::strdf::{is_geometry_literal, parse_geometry};
use teleios_rdf::TripleStore;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// What the command line asked for.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Workloads to run, in suite order.
    pub workloads: Vec<&'static str>,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed window the op counts are scaled to.
    pub seconds: f64,
    /// Also run the traced mirror and report the per-layer metrics.
    pub trace: bool,
    /// 1/50-scale pass (tests).
    pub smoke: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            workloads: NAMES.to_vec(),
            seed: frozen::SEED,
            seconds: f64::from(frozen::RUN_SECONDS),
            trace: false,
            smoke: false,
        }
    }
}

/// Usage text.
pub const USAGE: &str = "usage: e0 [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]\n\
    workloads: chain_ingest archive_query observatory_mixed crash_recover (default: all four, in that order)";

/// Parse the command line (without the program name).
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = NAMES
                    .iter()
                    .find(|n| **n == name.as_str())
                    .ok_or_else(|| format!("unknown workload {name}"))?;
                opts.workloads = vec![*known];
            }
            "--seed" => {
                opts.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
                if !(opts.seconds > 0.0 && opts.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

/// Timed ops of a run: the frozen count scaled by `seconds`, never
/// fewer than the p95 needs; 1/50 of the frozen count at smoke scale.
pub fn planned_ops(workload: &str, seconds: f64, smoke: bool) -> usize {
    let frozen = frozen::ops(workload);
    if smoke {
        return (frozen / 50).max(4);
    }
    let scaled = (frozen as f64 * seconds / f64::from(frozen::RUN_SECONDS)).round() as usize;
    scaled.max(frozen::MIN_OPS)
}

/// Pin the worker pools to `min(nproc, 4)` threads; returns
/// `(threads, nproc)`. Call before anything builds a pool.
pub fn pin_threads() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let threads = nproc.min(4);
    std::env::set_var("TELEIOS_THREADS", threads.to_string());
    (threads, nproc)
}

/// Digest of a small generated world and scene: names the generator
/// stream the product crates were linked with.
pub fn generator_probe() -> u64 {
    use teleios_ingest::seviri::{self, SceneSpec, SurfaceKind};
    use teleios_linked::world::{World, WorldSpec};
    let world = World::generate(WorldSpec {
        seed: 1,
        ..WorldSpec::default()
    });
    let mut fold = Fold::default();
    for site in &world.sites {
        fold.num(site.location.x.to_bits())
            .num(site.location.y.to_bits());
    }
    if let Ok(scene) = seviri::generate(&SceneSpec::new(1, 8, 8, world.spec.bbox), &|_| {
        SurfaceKind::Forest
    }) {
        for v in scene.raster.data.data() {
            fold.num(v.to_bits());
        }
    }
    fold.0
}

/// The outcome of one workload run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Whether this is the traced (per-layer) report.
    pub traced: bool,
    /// Every check passed.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// The declared metrics, in order, with their values.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Context and information lines (sample counts, p99, failures).
    pub notes: Vec<String>,
    /// The trace file's content (traced runs only).
    pub trace_file: Option<Value>,
}

impl Report {
    /// The machine-readable result: one JSON object with exactly the
    /// keys `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|(def, value)| {
            (
                def.name,
                Value::obj([
                    ("value", Value::Num(*value)),
                    ("unit", Value::str(def.unit)),
                ]),
            )
        });
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
        .render()
    }

    /// The human-readable block: every metric by name with its unit.
    pub fn text(&self) -> String {
        let mut out = format!(
            "== {} ({})\n",
            self.workload,
            if self.traced {
                "traced: per-layer metrics"
            } else {
                "untraced: end-to-end metrics"
            }
        );
        for note in &self.notes {
            out.push_str(&format!("   {note}\n"));
        }
        for (def, value) in &self.metrics {
            out.push_str(&format!(
                "   {:<30} {:>16.4} {}\n",
                def.name, value, def.unit
            ));
        }
        out
    }
}

/// Short git revision of the checkout, if it is one.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head,
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.chars().take(12).collect()
    }
}

/// What the geo layer costs on the store's geometries: parsing every
/// geometry literal (what a sidecar rebuild re-does), bulk-loading an
/// R-tree over their envelopes, and querying it.
fn geo_probe(store: &TripleStore, seed: u64, runner: &mut RunnerValues) {
    let literals: Vec<_> = store
        .iter()
        .map(|t| store.term(t.o))
        .filter(|o| is_geometry_literal(o))
        .collect();
    let (envelopes, parse_ms) = timed(|| {
        literals
            .iter()
            .filter_map(|lit| parse_geometry(lit).ok())
            .map(|(g, _)| g.envelope())
            .collect::<Vec<Envelope>>()
    });
    let items: Vec<(Envelope, usize)> = envelopes
        .into_iter()
        .enumerate()
        .map(|(i, e)| (e, i))
        .collect();
    let bounds = items
        .iter()
        .fold(Envelope::EMPTY, |acc, (e, _)| acc.union(e));
    let (tree, build_ms) = timed(|| RTree::bulk_load_with(&WorkerPool::default(), items));
    let mut rng = SplitMix64::new(seed, 0x9e0);
    let windows: Vec<Envelope> = (0..256)
        .map(|_| {
            let (x, y) = (
                rng.range(bounds.min.x, bounds.max.x),
                rng.range(bounds.min.y, bounds.max.y),
            );
            Envelope::new(
                Coord::new(x - 0.25, y - 0.25),
                Coord::new(x + 0.25, y + 0.25),
            )
        })
        .collect();
    let (hits, query_ms) = timed(|| windows.iter().map(|w| tree.query(w).len()).sum::<usize>());
    std::hint::black_box(hits);
    runner.insert("geo.wkt_parse_ms", parse_ms);
    runner.insert("geo.rtree_build_ms", build_ms);
    runner.insert("geo.rtree_query_us", query_ms * 1e3 / windows.len() as f64);
}

/// Set up `setups` times (keeping the last state), then run the window.
fn untraced_pass<'t, W: Workload<'t>>(
    plan: Plan,
    tracer: &'t Tracer,
    setups: usize,
) -> Res<(RunOutput, Vec<f64>)> {
    let mut setup_s = Vec::with_capacity(setups);
    let mut state: Option<W> = None;
    for _ in 0..setups.max(1) {
        // Drop the previous state first, so only one is ever resident.
        drop(state.take());
        let (fresh, ms) = timed(|| W::setup(plan, tracer));
        state = Some(fresh?);
        setup_s.push(ms / 1e3);
    }
    let mut state = state.ok_or("no set-up ran")?;
    Ok((state.run(plan, tracer), setup_s))
}

/// Set up and run on the traced mirror, then probe the geo layer on
/// the store the run left behind.
fn traced_pass<'t, W: Workload<'t>>(
    plan: Plan,
    tracer: &'t Tracer,
    runner: &mut RunnerValues,
) -> Res<RunOutput> {
    let mut state = W::setup(plan, tracer)?;
    let out = state.run(plan, tracer);
    if let Some(store) = state.triples() {
        geo_probe(store, plan.seed, runner);
    }
    Ok(out)
}

/// `core.publish_self_ms`: each `core.run_chain` span minus its vault
/// fetch and its chain run — describe, `.gtf1` encode, register, publish.
fn publish_self_ms(spans: &[Span]) -> f64 {
    let mut own: BTreeMap<u32, f64> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        if span.name == "core.run_chain" {
            own.insert(
                u32::try_from(i).unwrap_or(u32::MAX),
                span.duration_ns() as f64,
            );
        }
    }
    for span in spans {
        if matches!(
            span.name,
            "vault.materialize" | "vault.hit" | "noa.chain_run"
        ) {
            if let Some(slot) = span.parent.and_then(|p| own.get_mut(&p)) {
                *slot -= span.duration_ns() as f64;
            }
        }
    }
    median(&own.values().map(|ns| ns / 1e6).collect::<Vec<_>>())
}

/// Counts that do not repeat exactly from one observatory to the
/// next, even at a fixed seed: `Ontology::emit` walks a `HashMap`, so
/// dictionary ids — and with them the varint lengths of the persisted
/// triple page — differ by a few bytes, and refinement leaves a
/// varying handful of unreferenced terms in the dictionary (a few
/// parts in a thousand). They are reported, not compared.
pub const LAYOUT_DEPENDENT_COUNTS: [&str; 4] = [
    "rdf.dict_terms",
    "store.wal_bytes",
    "store.medium_bytes_written",
    "store.write_amp",
];

/// The mirror must reproduce the observatory run: same digest, same
/// ops, same counts (byte counts aside, see above).
fn mirror_mismatch(untraced: &RunOutput, traced: &RunOutput) -> Option<String> {
    if untraced.digest != traced.digest {
        return Some(format!(
            "mirror digest {:016x} != observatory digest {:016x}",
            traced.digest.0, untraced.digest.0
        ));
    }
    if (untraced.attempted, untraced.failed) != (traced.attempted, traced.failed) {
        return Some("mirror and observatory disagree on attempted/failed ops".into());
    }
    untraced
        .counts
        .iter()
        .filter(|(name, _)| !LAYOUT_DEPENDENT_COUNTS.contains(name))
        .find(|(name, value)| traced.counts.get(*name) != Some(*value))
        .map(|(name, value)| {
            format!(
                "count {name}: observatory {value}, mirror {:?}",
                traced.counts.get(name)
            )
        })
}

/// Run one workload and report.
pub fn run(workload: &'static str, opts: &Options, threads: (usize, usize)) -> Res<Report> {
    let plan = Plan {
        seed: opts.seed,
        ops: planned_ops(workload, opts.seconds, opts.smoke),
        smoke: opts.smoke,
    };
    let setups = if opts.trace { 1 } else { SETUP_REPEATS };
    let mut runner = RunnerValues::default();

    // The two passes of a workload: its state on the real `Observatory`
    // and, when tracing, on the mirror. The state borrows the tracer,
    // so each pass ends before its tracer is taken apart.
    macro_rules! passes {
        ($untraced:ty, $traced:ty) => {{
            let off = Tracer::off();
            let base = untraced_pass::<$untraced>(plan, &off, setups)?;
            let traced = if opts.trace {
                let on = Tracer::on();
                let out = traced_pass::<$traced>(plan, &on, &mut runner)?;
                Some((out, on.finish()))
            } else {
                None
            };
            (base, traced)
        }};
    }
    let ((untraced, setup_s), traced) = match workload {
        "chain_ingest" => passes!(ChainIngest<'_, Observatory>, ChainIngest<'_, Mirror<'_>>),
        "archive_query" => passes!(ArchiveQuery<'_, Observatory>, ArchiveQuery<'_, Mirror<'_>>),
        "observatory_mixed" => passes!(
            ObservatoryMixed<'_, Observatory>,
            ObservatoryMixed<'_, Mirror<'_>>
        ),
        "crash_recover" => passes!(CrashRecover, CrashRecover),
        other => return Err(format!("unknown workload {other}")),
    };

    let mut notes = vec![format!(
        "seed {}  ops {}  threads {} (nproc {})  profile {}  rev {}{}",
        opts.seed,
        plan.ops,
        threads.0,
        threads.1,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        git_rev(),
        if opts.smoke { "  smoke scale" } else { "" },
    )];
    let mut failed = untraced.failed;
    let mut attempted = untraced.attempted;
    let mut problems: Vec<String> = untraced.first_failure.iter().cloned().collect();

    // The frozen digest pins the default seed's outputs at full scale.
    let full_scale = !opts.smoke && plan.ops == frozen::ops(workload) && opts.seed == frozen::SEED;
    if let (true, Some(expected)) = (full_scale, frozen::digest(workload)) {
        let probe = generator_probe();
        if probe != frozen::GENERATOR_PROBE {
            notes.push(format!("frozen digest skipped: generator probe {probe:016x} is not the one it was frozen with"));
        } else if untraced.digest.0 != expected {
            problems.push(format!(
                "result digest {:016x} != frozen {expected:016x}",
                untraced.digest.0
            ));
            failed = attempted;
        }
    }
    if !opts.smoke && untraced.op_ms.len() < frozen::MIN_OPS {
        problems.push(format!(
            "{} samples cannot support a p95",
            untraced.op_ms.len()
        ));
    }

    let summary = Summary::of(&untraced.op_ms);
    let throughput = |out: &RunOutput| {
        if out.window_s > 0.0 {
            out.op_ms.len() as f64 / out.window_s
        } else {
            0.0
        }
    };
    runner.insert("setup_s", median(&setup_s));
    runner.insert("ops_per_s", throughput(&untraced));
    runner.insert("peak_rss_mib", untraced.peak_rss_kib as f64 / 1024.0);
    runner.insert("exec.threads", threads.0 as f64);
    notes.push(format!(
        "{} timed ops in {:.3} s; op percentiles over n={} samples{}; digest {:016x}",
        untraced.op_ms.len(),
        untraced.window_s,
        summary.n,
        summary.p99.map_or(String::new(), |p| format!(
            "; op_p99_ms {p:.4} (information only)"
        )),
        untraced.digest.0,
    ));
    for (name, series) in &untraced.series {
        notes.push(format!(
            "{name}: n={} p50 {:.4} ms",
            series.len(),
            median(series)
        ));
    }

    let (metrics, trace_file) = match &traced {
        None => {
            notes.push(format!("set-up times (s): {setup_s:?}"));
            (
                metrics::evaluate(&END_TO_END, &runner, &untraced, None),
                None,
            )
        }
        Some((traced_out, spans)) => {
            attempted += traced_out.attempted;
            failed += traced_out.failed;
            problems.extend(
                traced_out
                    .first_failure
                    .iter()
                    .map(|f| format!("traced run: {f}")),
            );
            if let Some(why) = mirror_mismatch(&untraced, traced_out) {
                problems.push(why);
                failed = attempted;
            }
            let span_ns = |name: &str| {
                spans
                    .iter()
                    .filter(|s| s.name == name)
                    .map(Span::duration_ns)
                    .sum::<u64>() as f64
            };
            let added = traced_out
                .counts
                .get("rdf.triples_added")
                .copied()
                .unwrap_or(0.0);
            if added > 0.0 {
                runner.insert(
                    "rdf.insert_ns_per_triple",
                    (span_ns("noa.publish_hotspots") + span_ns("mining.annotate")) / added,
                );
            }
            runner.insert("core.publish_self_ms", publish_self_ms(spans));
            runner.insert("e0.spans", spans.len() as f64);
            let base = throughput(&untraced);
            runner.insert(
                "e0.trace_overhead",
                if base > 0.0 {
                    throughput(traced_out) / base
                } else {
                    0.0
                },
            );
            (
                metrics::evaluate(&PER_LAYER, &runner, &untraced, Some((traced_out, spans))),
                Some(trace::to_json(workload, spans, &traced_out.counts)),
            )
        }
    };
    notes.extend(problems.iter().map(|p| format!("FAILED: {p}")));
    Ok(Report {
        workload,
        traced: opts.trace,
        correct: failed == 0 && problems.is_empty(),
        attempted: attempted.max(1),
        failed,
        metrics,
        notes,
        trace_file,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_the_contract_command_line() {
        let opts = parse_args(&args(&[
            "--workload",
            "archive_query",
            "--seed",
            "7",
            "--seconds",
            "6",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(opts.workloads, vec!["archive_query"]);
        assert_eq!(
            (opts.seed, opts.seconds, opts.trace, opts.smoke),
            (7, 6.0, true, false)
        );
        let all = parse_args(&[]).unwrap();
        assert_eq!(all.workloads, NAMES);
        assert!(parse_args(&args(&["--smoke"])).unwrap().smoke);
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--frobnicate"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn op_counts_scale_with_seconds_and_never_starve_the_p95() {
        let full = planned_ops("chain_ingest", f64::from(frozen::RUN_SECONDS), false);
        assert_eq!(full, frozen::ops("chain_ingest"));
        assert_eq!(
            planned_ops("chain_ingest", 2.0 * f64::from(frozen::RUN_SECONDS), false),
            2 * full
        );
        for name in NAMES {
            assert!(frozen::ops(name) >= frozen::MIN_OPS);
            assert_eq!(planned_ops(name, 0.01, false), frozen::MIN_OPS);
            assert!(
                planned_ops(name, 1.0, true) >= 4
                    && planned_ops(name, 1.0, true) <= frozen::ops(name) / 50 + 4
            );
        }
    }

    #[test]
    fn result_line_round_trips_with_exactly_the_contract_keys() {
        let report = Report {
            workload: "chain_ingest",
            traced: false,
            correct: true,
            attempted: 640,
            failed: 0,
            metrics: END_TO_END
                .iter()
                .enumerate()
                .map(|(i, d)| (*d, 1.5 + i as f64 / 3.0))
                .collect(),
            notes: vec![],
            trace_file: None,
        };
        let line = report.result_line();
        assert!(!line.contains('\n'));
        let parsed = json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("attempted").and_then(Value::as_f64), Some(640.0));
        let metrics = parsed.get("metrics").and_then(Value::as_object).unwrap();
        assert_eq!(
            metrics.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>()
        );
        for ((_, m), (def, value)) in metrics.iter().zip(&report.metrics) {
            assert_eq!(m.get("value").and_then(Value::as_f64), Some(*value));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(def.unit));
        }
        assert!(report.text().contains("op_p95_ms"));
    }

    #[test]
    fn mirror_must_match_digest_and_counts() {
        let mut a = RunOutput {
            attempted: 3,
            ..RunOutput::default()
        };
        a.digest.num(1);
        a.count("vault.evictions", 2.0);
        let same = a.clone();
        assert_eq!(mirror_mismatch(&a, &same), None);
        let mut other_digest = a.clone();
        other_digest.digest.num(9);
        assert!(mirror_mismatch(&a, &other_digest).is_some());
        let mut other_count = a.clone();
        other_count.count("vault.evictions", 3.0);
        assert!(mirror_mismatch(&a, &other_count).is_some());
    }

    #[test]
    fn publish_self_subtracts_only_its_own_children() {
        let span = |name, start, end, parent| Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
        };
        let spans = vec![
            span("core.run_chain", 0, 10_000_000, None),
            span("vault.hit", 0, 1_000_000, Some(0)),
            span("noa.chain_run", 1_000_000, 7_000_000, Some(0)),
            span("core.annotate_product", 10_000_000, 12_000_000, None),
            span("vault.hit", 10_000_000, 11_000_000, Some(3)),
        ];
        assert_eq!(publish_self_ms(&spans), 3.0);
    }
}
