//! What every workload shares: the load model (closed loop, one client,
//! a fixed number of ops), the per-op bookkeeping, and the result a run
//! hands back to the runner.

use crate::digest::Fold;
use crate::engine::Res;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;
use teleios_rdf::TripleStore;

/// Names of the four workloads, in the order the suite runs them.
pub const NAMES: [&str; 4] = [
    "chain_ingest",
    "archive_query",
    "observatory_mixed",
    "crash_recover",
];

/// What a run is asked to do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Seed of every generated input.
    pub seed: u64,
    /// Timed ops to run.
    pub ops: usize,
    /// 1/50-scale data sizes (tests).
    pub smoke: bool,
}

/// One workload: set-up builds the inputs (untimed, reported as
/// `setup_s`), `run` executes `plan.ops` timed ops.
pub trait Workload<'t>: Sized {
    /// Build the state the timed window starts from.
    fn setup(plan: Plan, tracer: &'t Tracer) -> Res<Self>;
    /// Execute the timed window.
    fn run(&mut self, plan: Plan, tracer: &'t Tracer) -> RunOutput;
    /// The triple store after the run, for the geo probes (`None` when
    /// the workload keeps none).
    fn triples(&mut self) -> Option<&TripleStore> {
        None
    }
}

/// Everything a timed window produced.
#[derive(Debug, Clone, Default)]
pub struct RunOutput {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored, panicked or returned a wrong answer.
    pub failed: u64,
    /// The first failure's description, for the report.
    pub first_failure: Option<String>,
    /// Wall-clock of each op, ms.
    pub op_ms: Vec<f64>,
    /// Named sub-timings the workload took with its own clock, ms.
    pub series: BTreeMap<&'static str, Vec<f64>>,
    /// Exact counts and ratios (repeat bit-for-bit at a fixed seed).
    pub counts: BTreeMap<&'static str, f64>,
    /// Digest of the outputs, in op order.
    pub digest: Fold,
    /// Wall-clock of the whole window, seconds.
    pub window_s: f64,
    /// Resident-set high-water mark when the window closed, KiB.
    pub peak_rss_kib: u64,
}

impl RunOutput {
    /// Append `ms` to series `name`.
    pub fn sample(&mut self, name: &'static str, ms: f64) {
        self.series.entry(name).or_default().push(ms);
    }

    /// Set count `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.insert(name, value);
    }

    /// Run one op: a root span around it, its wall-clock recorded, an
    /// `Err` counted as a failed op. A panic inside `op` is left to
    /// unwind: it aborts the benchmark with a non-zero exit, which is
    /// the loudest way to fail every op of the run.
    pub fn op(
        &mut self,
        index: usize,
        tracer: &Tracer,
        op: impl FnOnce(&mut RunOutput) -> Res<()>,
    ) {
        tracer.set_op(u32::try_from(index).unwrap_or(u32::MAX));
        let started = Instant::now();
        let result = tracer.span("e0.op", || op(self));
        self.op_ms.push(ms_since(started));
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.first_failure
                .get_or_insert(format!("op {index}: {why}"));
        }
    }

    /// End the timed window that began at `started`: record its
    /// wall-clock and the resident-set high-water mark.
    pub fn close_window(&mut self, started: Instant) {
        self.window_s = started.elapsed().as_secs_f64();
        self.peak_rss_kib = peak_resident_kib();
    }
}

/// Milliseconds since `started`.
pub fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// Run `f`, returning its value and how long it took in ms.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, ms_since(started))
}

/// `VmHWM` of this process in KiB: the kernel's high-water mark of the
/// resident set, set-up included (0 where `/proc` is unavailable).
/// Sampling `VmRSS` at op boundaries misses the peaks inside ops and
/// read a tenth apart on identical runs; the high-water mark does not.
/// It never falls, so when one process runs several workloads each
/// figure also covers the workloads before it.
pub fn peak_resident_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.split_whitespace()
                        .next()
                        .and_then(|kib| kib.parse().ok())
                })
        })
        .unwrap_or(0)
}

/// A check that must hold for an op to count as correct.
pub fn ensure(ok: bool, why: impl FnOnce() -> String) -> Res<()> {
    if ok {
        Ok(())
    } else {
        Err(why())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_are_counted_and_failures_kept() {
        let tracer = Tracer::on();
        let mut out = RunOutput::default();
        out.op(0, &tracer, |_| Ok(()));
        out.op(1, &tracer, |o| {
            o.sample("x", 1.0);
            Err("wrong answer".into())
        });
        out.op(2, &tracer, |_| Err("later".into()));
        assert_eq!((out.attempted, out.failed), (3, 2));
        assert_eq!(out.op_ms.len(), 3);
        assert_eq!(out.first_failure.as_deref(), Some("op 1: wrong answer"));
        let spans = tracer.finish();
        assert_eq!(
            spans
                .iter()
                .filter(|s| s.name == "e0.op")
                .map(|s| s.op_id)
                .collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn resident_set_is_readable_on_linux() {
        assert!(peak_resident_kib() > 0);
    }
}
