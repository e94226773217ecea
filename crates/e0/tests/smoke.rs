//! The whole benchmark at 1/50 scale, inside `cargo test`: all four
//! workloads, untraced and traced, twice. Keeps the benchmark from
//! rotting between the runs anyone looks at.

use std::collections::BTreeMap;
use teleios_e0::metrics::{Source, END_TO_END, PER_LAYER};
use teleios_e0::runner::{self, Options, Report, LAYOUT_DEPENDENT_COUNTS};
use teleios_e0::workload::NAMES;

fn smoke(workload: &'static str, trace: bool) -> Report {
    let opts = Options {
        trace,
        smoke: true,
        ..Options::default()
    };
    runner::run(workload, &opts, runner::pin_threads())
        .unwrap_or_else(|why| panic!("{workload}: {why}"))
}

fn values(report: &Report) -> BTreeMap<&'static str, f64> {
    report
        .metrics
        .iter()
        .map(|(def, value)| (def.name, *value))
        .collect()
}

#[test]
fn every_workload_passes_untraced_with_every_end_to_end_metric() {
    for workload in NAMES {
        let report = smoke(workload, false);
        assert!(report.correct, "{workload}: {:?}", report.notes);
        assert_eq!(report.failed, 0);
        assert!(report.attempted >= 4);
        let names: Vec<&str> = report.metrics.iter().map(|(d, _)| d.name).collect();
        assert_eq!(names, END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>());
        for (def, value) in &report.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{workload}: {} = {value} {}",
                def.name,
                def.unit
            );
        }
        let line = teleios_e0::json::parse(&report.result_line()).unwrap();
        assert_eq!(line.get("failed").and_then(|v| v.as_f64()), Some(0.0));
    }
}

#[test]
fn traced_runs_prove_the_mirror_and_repeat_their_exact_counts() {
    for workload in NAMES {
        let (first, second) = (smoke(workload, true), smoke(workload, true));
        for report in [&first, &second] {
            // `correct` covers: no failed op, and the mirror's digest,
            // op counts and exact counts equal the `Observatory` run's.
            assert!(report.correct, "{workload}: {:?}", report.notes);
            let names: Vec<&str> = report.metrics.iter().map(|(d, _)| d.name).collect();
            assert_eq!(names, PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>());
            assert!(report
                .metrics
                .iter()
                .all(|(_, v)| v.is_finite() && *v >= 0.0));
            assert!(report.trace_file.is_some());
        }
        let (a, b) = (values(&first), values(&second));
        for def in PER_LAYER
            .iter()
            .filter(|d| matches!(d.source, Source::Count(_)))
        {
            if !LAYOUT_DEPENDENT_COUNTS.contains(&def.name) {
                assert_eq!(
                    a[def.name], b[def.name],
                    "{workload}: {} must repeat exactly",
                    def.name
                );
            }
        }
        assert_eq!(
            a["e0.spans"], b["e0.spans"],
            "{workload}: the same spans must be recorded"
        );
    }
}

#[test]
fn each_workload_keeps_to_its_layers() {
    let chain = values(&smoke("chain_ingest", true));
    assert!(chain["vault.materializations"] > 0.0 && chain["noa.features"] > 0.0);
    assert_eq!(chain["store.commits"], 0.0);
    assert_eq!(chain["strabon.eval_ms"], 0.0);

    let archive = values(&smoke("archive_query", true));
    assert_eq!(archive["vault.materializations"], 0.0);
    assert_eq!(archive["store.commits"], 0.0);
    assert!(archive["strabon.result_rows"] > 0.0 && archive["strabon.eval_ms"] > 0.0);
    assert_eq!(archive["strabon.sidecar_rebuild_ms"], 0.0);

    let mixed = values(&smoke("observatory_mixed", true));
    assert!(mixed["store.commits"] > 0.0 && mixed["store.write_amp"] > 1.0);
    assert!(mixed["strabon.update_ms"] > 0.0 && mixed["mining.annotations"] > 0.0);
    assert!(mixed["core.fresh_query_p50_ms"] > 0.0);

    let crash = values(&smoke("crash_recover", true));
    assert!(crash["store.txns_replayed"] > 0.0 && crash["store.recovery_p50_ms"] > 0.0);
    assert_eq!(crash["strabon.eval_ms"], 0.0);
    assert_eq!(crash["vault.materializations"], 0.0);
}

#[test]
fn a_different_seed_changes_the_digest_and_still_passes() {
    for workload in NAMES {
        let one = smoke(workload, false);
        let two = runner::run(
            workload,
            &Options {
                seed: 2,
                smoke: true,
                ..Options::default()
            },
            runner::pin_threads(),
        )
        .unwrap();
        assert!(two.correct, "{workload} seed 2: {:?}", two.notes);
        let digest = |r: &Report| {
            r.notes
                .iter()
                .find_map(|n| n.split("digest ").nth(1).map(str::to_string))
        };
        assert_ne!(digest(&one), digest(&two), "{workload}");
        assert!(digest(&one).is_some());
    }
}
