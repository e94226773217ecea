//! Supervised chain execution: retries, degraded modes, deadlines.
//!
//! [`Supervisor::run_batch`] is the one executor for chain batches:
//! scenes run on a bounded worker pool (no thread-per-scene spawning),
//! each with its own retry budget and its own ladder of degraded chain
//! variants, and the batch always returns a full [`BatchReport`] — one
//! [`SceneReport`] per input scene, in input order, no matter what the
//! workers did. A caller that wants all-or-nothing reads it from the
//! report: the batch is whole when every scene is [`SceneOutcome::Ok`].
//!
//! The degraded ladder is cumulative and honest: first the classifier
//! is downgraded to the plain operational threshold (the contextual and
//! adaptive submodules have more ways to fail), then the target grid is
//! dropped for the native scene grid. The report's `chain_id` names the
//! variant that actually produced each product, so a degraded product
//! is never mistaken for a nominal one downstream.
//!
//! A per-attempt deadline rides on the attempt's own [`CancelToken`]
//! ([`CancelToken::with_deadline`]): the chain polls it at every stage
//! boundary and an injected hang polls it while it sleeps, so an
//! overdue attempt fails at its next poll — no thread watches the
//! clock and nothing is killed. The attempt's stage hook is wrapped to
//! record the stage it entered last, which names the stage a
//! [`SceneOutcome::Timeout`] landed on. A circuit breaker shared by
//! the batch skips a variant that has timed out `BREAKER_THRESHOLD`
//! times, except on a scene's last rung, so it can degrade a healthy
//! scene but never lose one.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use teleios_exec::{default_threads, panic_message, CancelToken, OrderedMutex, WorkerPool};
use teleios_ingest::raster::GeoRaster;
use teleios_monet::Catalog;
use teleios_noa::chain::ChainStage;
use teleios_noa::{ChainOutput, HotspotClassifier, ProcessingChain};

/// How one scene fared under supervision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SceneOutcome {
    /// Succeeded on the first attempt with the primary chain.
    Ok,
    /// Succeeded with the primary chain after this many retries.
    Retried(u32),
    /// Succeeded only on a degraded chain variant.
    Degraded {
        /// The primary chain's id.
        from: String,
        /// The variant that produced the product.
        to: String,
    },
    /// Every attempt — retries and degraded variants — failed.
    Failed {
        /// The last error observed.
        reason: String,
    },
    /// No attempt produced a product and at least one attempt was cut
    /// short by its deadline: the scene is lost to timeouts, not to
    /// data or logic faults.
    Timeout {
        /// The stage the last overdue attempt had entered when its
        /// deadline fired (`"unstarted"` if it never reached a stage).
        stage: String,
        /// The reason the attempt's token recorded.
        reason: String,
    },
}

impl SceneOutcome {
    /// True for every outcome that yielded a product.
    pub fn succeeded(&self) -> bool {
        !matches!(
            self,
            SceneOutcome::Failed { .. } | SceneOutcome::Timeout { .. }
        )
    }
}

/// Per-scene supervision result.
#[derive(Debug, Clone)]
pub struct SceneReport {
    /// The scene / product id.
    pub product_id: String,
    /// What happened.
    pub outcome: SceneOutcome,
    /// The chain output, when any attempt succeeded.
    pub output: Option<ChainOutput>,
    /// Id of the chain variant that produced `output` (the primary
    /// chain's id for `Failed` scenes).
    pub chain_id: String,
    /// Total attempts spent, across retries and degraded variants.
    pub attempts: u32,
    /// One `"variant/stage"` entry per attempt its deadline cut short,
    /// in attempt order — the timeout chain for this scene.
    /// Empty when no attempt timed out.
    pub timed_out_stages: Vec<String>,
}

/// The supervised batch result: one report per input scene, in input
/// order.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-scene reports.
    pub scenes: Vec<SceneReport>,
    /// Wall-clock time for the whole batch.
    pub wall_clock: Duration,
}

impl BatchReport {
    /// Scenes that succeeded first try.
    pub fn ok_count(&self) -> usize {
        self.scenes.iter().filter(|s| matches!(s.outcome, SceneOutcome::Ok)).count()
    }

    /// Scenes that needed at least one retry.
    pub fn retried_count(&self) -> usize {
        self.scenes.iter().filter(|s| matches!(s.outcome, SceneOutcome::Retried(_))).count()
    }

    /// Scenes that fell back to a degraded chain variant.
    pub fn degraded_count(&self) -> usize {
        self.scenes.iter().filter(|s| matches!(s.outcome, SceneOutcome::Degraded { .. })).count()
    }

    /// Scenes that failed on data or logic faults (not timeouts).
    pub fn failed_count(&self) -> usize {
        self.scenes.iter().filter(|s| matches!(s.outcome, SceneOutcome::Failed { .. })).count()
    }

    /// Scenes lost to deadline timeouts.
    pub fn timeout_count(&self) -> usize {
        self.scenes.iter().filter(|s| matches!(s.outcome, SceneOutcome::Timeout { .. })).count()
    }

    /// Scenes that produced a product (ok + retried + degraded).
    pub fn succeeded_count(&self) -> usize {
        self.scenes.iter().filter(|s| s.outcome.succeeded()).count()
    }

    /// The report for one scene id.
    pub fn report_for(&self, product_id: &str) -> Option<&SceneReport> {
        self.scenes.iter().find(|s| s.product_id == product_id)
    }
}

/// The cumulative ladder of degraded chain variants, most capable
/// first. Labels name the variant for [`SceneReport::chain_id`] and
/// [`SceneOutcome::Degraded`].
fn degraded_variants(primary: &ProcessingChain) -> Vec<(String, ProcessingChain)> {
    let mut variants = Vec::new();
    let mut current = primary.clone();
    let downgraded = match current.classifier {
        HotspotClassifier::Threshold { .. } => None,
        HotspotClassifier::Contextual { kelvin, .. } => {
            Some(HotspotClassifier::Threshold { kelvin })
        }
        HotspotClassifier::Adaptive { .. } => Some(HotspotClassifier::default_operational()),
    };
    if let Some(classifier) = downgraded {
        current.classifier = classifier;
        variants.push((current.id(), current.clone()));
    }
    if current.target_grid.is_some() {
        current.target_grid = None;
        variants.push((format!("{}+native-grid", current.id()), current.clone()));
    }
    variants
}

/// Timeouts on one chain variant before its circuit opens and later
/// scenes of the batch skip it. "Times out twice → stop burning
/// deadline budget on it."
pub(crate) const BREAKER_THRESHOLD: u32 = 2;

/// Per-variant timeout counts, shared by every scene of one batch.
#[derive(Debug)]
struct CircuitBreaker {
    timeouts: OrderedMutex<HashMap<String, u32>>,
}

impl Default for CircuitBreaker {
    fn default() -> CircuitBreaker {
        CircuitBreaker { timeouts: OrderedMutex::new("supervisor.breaker", HashMap::new()) }
    }
}

impl CircuitBreaker {
    fn record_timeout(&self, variant_id: &str) {
        *self.timeouts.lock().entry(variant_id.to_string()).or_insert(0) += 1;
    }

    fn is_open(&self, variant_id: &str) -> bool {
        self.timeouts.lock().get(variant_id).is_some_and(|&n| n >= BREAKER_THRESHOLD)
    }
}

/// The chain's stages in run order. An attempt records the stage it
/// entered last as its position here plus one (zero: none yet).
const STAGES: [ChainStage; 5] = [
    ChainStage::Ingest,
    ChainStage::Crop,
    ChainStage::Georef,
    ChainStage::Classify,
    ChainStage::Shapefile,
];

/// Supervised executor for chain batches.
#[derive(Debug, Clone, Copy)]
pub struct Supervisor {
    /// Extra attempts on the primary chain after the first (0 = no
    /// retries). Each degraded variant gets one attempt.
    pub max_retries: u32,
    /// Worker count for [`Self::run_batch`]'s bounded pool; `0` means
    /// the executor default (`TELEIOS_THREADS` env override, else
    /// available parallelism).
    pub workers: usize,
    /// Deadline for each attempt (one pass through the chain); every
    /// retry and every degraded rung gets a fresh one. `None` waits
    /// indefinitely.
    pub deadline: Option<Duration>,
}

impl Supervisor {
    /// Supervisor with `max_retries` retries of the primary chain, the
    /// executor's default worker count and no deadline.
    pub fn new(max_retries: u32) -> Supervisor {
        Supervisor { max_retries, workers: 0, deadline: None }
    }

    /// The same supervisor with an explicit batch worker count.
    pub fn with_workers(mut self, workers: usize) -> Supervisor {
        self.workers = workers;
        self
    }

    /// The same supervisor with a per-attempt deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Supervisor {
        self.deadline = Some(deadline);
        self
    }

    /// One isolated attempt: panics become errors. The chain runs
    /// under a fresh token carrying the attempt's deadline (if any),
    /// with its stage hook wrapped to record the stage entered last.
    /// Returns the attempt result plus, when the token fired, the
    /// `(stage, reason)` the deadline landed on.
    fn attempt(
        &self,
        catalog: &Catalog,
        chain: &ProcessingChain,
        variant_id: &str,
        product_id: &str,
        raster: &GeoRaster,
    ) -> (std::result::Result<ChainOutput, String>, Option<(String, String)>) {
        // A budget too large to add to the clock is no deadline at all.
        let expiry =
            self.deadline.and_then(|budget| Some((Instant::now().checked_add(budget)?, budget)));
        let token = match expiry {
            Some((at, budget)) => CancelToken::with_deadline(
                at,
                format!("{product_id}: attempt overshot its {budget:?} deadline (chain {variant_id})"),
            ),
            None => CancelToken::new(),
        };
        let entered = Arc::new(AtomicUsize::new(0));
        let tracker = Arc::clone(&entered);
        let original_hook = chain.stage_hook.clone();
        let mut instrumented = chain.clone().with_cancel_token(token.clone());
        instrumented.stage_hook = Some(Arc::new(
            move |id: &str, stage: ChainStage, ch: &ProcessingChain| {
                let position = STAGES.iter().position(|&s| s == stage).map_or(0, |i| i + 1);
                tracker.store(position, Ordering::SeqCst);
                match &original_hook {
                    Some(hook) => hook(id, stage, ch),
                    None => Ok(()),
                }
            },
        ));
        let run = AssertUnwindSafe(|| instrumented.run(catalog, product_id, raster));
        let result = match catch_unwind(run) {
            Ok(Ok(output)) => Ok(output),
            Ok(Err(e)) => Err(e.to_string()),
            Err(payload) => Err(format!(
                "chain worker panicked on {product_id}: {}",
                panic_message(payload.as_ref())
            )),
        };
        // Reading the reason never fires the deadline, so an attempt
        // that failed for another reason just before it expired is not
        // mistaken for a timeout.
        let timeout = result.as_ref().err().and_then(|_| token.reason()).map(|reason| {
            let last = entered.load(Ordering::SeqCst).checked_sub(1).and_then(|i| STAGES.get(i));
            (last.map_or_else(|| "unstarted".to_string(), |stage| stage.to_string()), reason)
        });
        (result, timeout)
    }

    /// Supervise one scene: retry the primary chain within the budget,
    /// then walk the degraded ladder — skipping any variant whose
    /// timeout circuit is open, as long as a further rung exists (the
    /// last rung is always attempted, so the breaker can never strand
    /// a healthy scene). Never panics, never aborts.
    fn run_scene(
        &self,
        catalog: &Catalog,
        chain: &ProcessingChain,
        product_id: &str,
        raster: &GeoRaster,
        breaker: &CircuitBreaker,
    ) -> SceneReport {
        let primary_id = chain.id();
        let mut rungs = vec![(primary_id.clone(), chain.clone())];
        rungs.extend(degraded_variants(chain));
        let last_rung = rungs.len() - 1;
        let mut report = SceneReport {
            product_id: product_id.to_string(),
            outcome: SceneOutcome::Ok,
            output: None,
            chain_id: primary_id.clone(),
            attempts: 0,
            timed_out_stages: Vec::new(),
        };
        let mut last_error = String::new();
        let mut last_timeout: Option<(String, String)> = None;

        for (rung, (variant_id, variant)) in rungs.into_iter().enumerate() {
            if rung < last_rung && breaker.is_open(&variant_id) {
                last_error = format!(
                    "variant {variant_id} skipped: circuit open after repeated timeouts"
                );
                continue;
            }
            let tries = if rung == 0 { self.max_retries + 1 } else { 1 };
            for try_n in 0..tries {
                report.attempts += 1;
                let (result, timeout) =
                    self.attempt(catalog, &variant, &variant_id, product_id, raster);
                match result {
                    Ok(output) => {
                        report.outcome = if rung > 0 {
                            SceneOutcome::Degraded { from: primary_id, to: variant_id.clone() }
                        } else if try_n == 0 {
                            SceneOutcome::Ok
                        } else {
                            SceneOutcome::Retried(try_n)
                        };
                        report.output = Some(output);
                        report.chain_id = variant_id;
                        return report;
                    }
                    Err(message) => last_error = message,
                }
                if let Some((stage, reason)) = timeout {
                    report.timed_out_stages.push(format!("{variant_id}/{stage}"));
                    breaker.record_timeout(&variant_id);
                    last_timeout = Some((stage, reason));
                    // A variant that just tripped its circuit gets no
                    // further retries either (unless it is the scene's
                    // last resort).
                    if rung < last_rung && breaker.is_open(&variant_id) {
                        break;
                    }
                }
            }
        }
        report.outcome = match last_timeout {
            Some((stage, reason)) => SceneOutcome::Timeout { stage, reason },
            None => SceneOutcome::Failed { reason: last_error },
        };
        report
    }

    /// Supervise a batch on the worker pool: `workers` threads (the
    /// executor default when zero) claim scenes in input order, so at
    /// most `workers` scenes are in flight at once. A single circuit
    /// breaker is shared by all scenes, so a chain variant that keeps
    /// timing out is skipped batch-wide. Reports come back in input
    /// order; a lost scene never takes the batch or the process down.
    pub fn run_batch(
        &self,
        catalog: &Catalog,
        chain: &ProcessingChain,
        scenes: &[(String, GeoRaster)],
    ) -> BatchReport {
        let t0 = Instant::now();
        let workers = if self.workers == 0 { default_threads() } else { self.workers };
        let breaker = CircuitBreaker::default();
        let tasks: Vec<_> = scenes
            .iter()
            .map(|(id, raster)| {
                let breaker = &breaker;
                move || self.run_scene(catalog, chain, id, raster, breaker)
            })
            .collect();
        let scenes = WorkerPool::with_threads(workers)
            .try_run(tasks)
            .into_iter()
            .zip(scenes)
            .map(|(result, (id, _))| {
                // Unreachable in practice (run_scene catches every
                // attempt), but still: a worker panic degrades to a
                // per-scene failure, never an abort.
                result.unwrap_or_else(|payload| SceneReport {
                    product_id: id.clone(),
                    outcome: SceneOutcome::Failed {
                        reason: format!(
                            "supervisor worker for {id} could not be joined: {}",
                            panic_message(payload.as_ref())
                        ),
                    },
                    output: None,
                    chain_id: chain.id(),
                    attempts: 0,
                    timed_out_stages: Vec::new(),
                })
            })
            .collect();
        BatchReport { scenes, wall_clock: t0.elapsed() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultPlan};
    use teleios_geo::{Coord, Envelope};
    use teleios_ingest::raster::GeoTransform;
    use teleios_ingest::seviri::{generate, FireEvent, SceneSpec, SurfaceKind};

    fn bbox() -> Envelope {
        Envelope::new(Coord::new(21.0, 36.0), Coord::new(24.0, 39.0))
    }

    fn surface(c: Coord) -> SurfaceKind {
        if c.x < 23.0 {
            SurfaceKind::Forest
        } else {
            SurfaceKind::Sea
        }
    }

    fn scenes(n: usize) -> Vec<(String, GeoRaster)> {
        (0..n)
            .map(|i| {
                let mut spec = SceneSpec::new(700 + i as u64, 32, 32, bbox());
                spec.cloud_cover = 0.0;
                spec.glint_rate = 0.0;
                spec.fires.push(FireEvent {
                    center: Coord::new(21.6, 37.4),
                    radius: 0.08,
                    intensity: 0.9,
                });
                (format!("sup{i}"), generate(&spec, &surface).unwrap().raster)
            })
            .collect()
    }

    fn contextual_gridded() -> ProcessingChain {
        let mut chain = ProcessingChain::operational();
        chain.classifier = HotspotClassifier::Contextual { kelvin: 318.0, min_neighbors: 2 };
        chain.target_grid = Some((GeoTransform::fit(&bbox(), 32, 32), 32, 32));
        chain
    }

    #[test]
    fn healthy_batch_is_all_ok() {
        let supervisor = Supervisor::new(1);
        let batch = scenes(4);
        let report = supervisor.run_batch(&Catalog::new(), &contextual_gridded(), &batch);
        assert_eq!(report.scenes.len(), 4);
        assert_eq!(report.ok_count(), 4);
        assert_eq!(report.failed_count(), 0);
        for scene in &report.scenes {
            assert_eq!(scene.attempts, 1);
            assert_eq!(scene.chain_id, "contextual-318-n2");
            assert!(scene.output.is_some());
        }
        // Input order is preserved.
        let ids: Vec<&str> = report.scenes.iter().map(|s| s.product_id.as_str()).collect();
        assert_eq!(ids, vec!["sup0", "sup1", "sup2", "sup3"]);
    }

    #[test]
    fn transient_fault_is_retried_within_budget() {
        let mut plan = FaultPlan::new();
        plan.inject("sup1", Fault::Transient { failures: 2 });
        let chain = ProcessingChain::operational().with_stage_hook(plan.chain_hook());
        let supervisor = Supervisor::new(2);
        let report = supervisor.run_batch(&Catalog::new(), &chain, &scenes(3));
        assert_eq!(report.report_for("sup1").unwrap().outcome, SceneOutcome::Retried(2));
        assert_eq!(report.report_for("sup1").unwrap().attempts, 3);
        assert_eq!(report.ok_count(), 2);
        assert_eq!(report.failed_count(), 0);
    }

    #[test]
    fn transient_fault_beyond_budget_fails_without_degraded_help() {
        let mut plan = FaultPlan::new();
        plan.inject("sup0", Fault::Transient { failures: 5 });
        // The threshold chain has no degraded ladder, so the scene fails;
        // its stage-hook error never reaches the healthy scene beside it.
        let chain = ProcessingChain::operational().with_stage_hook(plan.chain_hook());
        let supervisor = Supervisor::new(1);
        let report = supervisor.run_batch(&Catalog::new(), &chain, &scenes(2));
        let scene = report.report_for("sup0").unwrap();
        assert!(matches!(&scene.outcome, SceneOutcome::Failed { reason } if reason.contains("transient")));
        assert!(scene.output.is_none());
        assert_eq!(report.report_for("sup1").unwrap().outcome, SceneOutcome::Ok);
    }

    #[test]
    fn classifier_fault_degrades_to_threshold() {
        let mut plan = FaultPlan::new();
        plan.inject("sup1", Fault::ClassifierError);
        let chain = contextual_gridded().with_stage_hook(plan.chain_hook());
        let supervisor = Supervisor::new(1);
        let report = supervisor.run_batch(&Catalog::new(), &chain, &scenes(2));
        let scene = report.report_for("sup1").unwrap();
        assert_eq!(
            scene.outcome,
            SceneOutcome::Degraded {
                from: "contextual-318-n2".to_string(),
                to: "threshold-318".to_string()
            }
        );
        assert_eq!(scene.chain_id, "threshold-318");
        assert!(scene.output.is_some());
        // 2 primary attempts + 1 degraded.
        assert_eq!(scene.attempts, 3);
        assert_eq!(report.report_for("sup0").unwrap().outcome, SceneOutcome::Ok);
    }

    #[test]
    fn georef_fault_degrades_to_native_grid() {
        let mut plan = FaultPlan::new();
        plan.inject("sup0", Fault::GeorefError);
        let chain = contextual_gridded().with_stage_hook(plan.chain_hook());
        let supervisor = Supervisor::new(0);
        let report = supervisor.run_batch(&Catalog::new(), &chain, &scenes(1));
        let scene = report.report_for("sup0").unwrap();
        assert_eq!(
            scene.outcome,
            SceneOutcome::Degraded {
                from: "contextual-318-n2".to_string(),
                to: "threshold-318+native-grid".to_string()
            }
        );
        // The product is on the scene's native 32x32 grid.
        let output = scene.output.as_ref().unwrap();
        assert_eq!(output.raster.rows(), 32);
        // 1 primary + threshold variant (also faulted at georef) + native grid.
        assert_eq!(scene.attempts, 3);
    }

    #[test]
    fn worker_panic_fails_one_scene_only() {
        let mut plan = FaultPlan::new();
        plan.inject("sup1", Fault::WorkerPanic);
        let chain = contextual_gridded().with_stage_hook(plan.chain_hook());
        let supervisor = Supervisor::new(1);
        let report = supervisor.run_batch(&Catalog::new(), &chain, &scenes(3));
        let scene = report.report_for("sup1").unwrap();
        let SceneOutcome::Failed { reason } = &scene.outcome else {
            panic!("expected a failed scene, got {:?}", scene.outcome);
        };
        // The reason names the scene and carries the panic payload.
        assert!(reason.contains("panicked on sup1"), "{reason}");
        assert!(reason.contains("injected worker panic"), "{reason}");
        // 2 primary attempts + 2 degraded variants, all panicking.
        assert_eq!(scene.attempts, 4);
        assert_eq!(report.succeeded_count(), 2);
        assert_eq!(report.failed_count(), 1);
    }

    #[test]
    fn batch_matches_sequential_runs_at_any_worker_count() {
        let chain = ProcessingChain::operational();
        let batch = scenes(4);
        let sequential: Vec<ChainOutput> = batch
            .iter()
            .map(|(id, raster)| chain.run(&Catalog::new(), id, raster).unwrap())
            .collect();
        for workers in [1, 4] {
            let catalog = Catalog::new();
            let supervisor = Supervisor::new(0).with_workers(workers);
            let report = supervisor.run_batch(&catalog, &chain, &batch);
            assert_eq!(report.ok_count(), 4);
            for (scene, seq) in report.scenes.iter().zip(&sequential) {
                let out = scene.output.as_ref().unwrap();
                assert_eq!(out.mask, seq.mask, "{} at {workers} workers", scene.product_id);
                assert_eq!(out.features.len(), seq.features.len());
                assert!(catalog.has_array(&format!("{}_hotspots", scene.product_id)));
            }
        }
    }

    fn hang(stage: teleios_noa::chain::ChainStage) -> Fault {
        Fault::Hang { stage, duration: Duration::from_secs(10) }
    }

    #[test]
    fn hung_scene_times_out_and_records_the_stage() {
        let mut plan = FaultPlan::new();
        plan.inject("sup0", hang(ChainStage::Classify));
        // Threshold chain: no degraded ladder, so the scene is lost to
        // the timeout alone.
        let chain = ProcessingChain::operational().with_stage_hook(plan.chain_hook());
        let supervisor = Supervisor::new(0).with_deadline(Duration::from_millis(150));
        let t0 = Instant::now();
        let report = supervisor.run_batch(&Catalog::new(), &chain, &scenes(2));
        // Far below the 10 s hang: cancellation cut it short.
        assert!(t0.elapsed() < Duration::from_secs(5));
        let lost = report.report_for("sup0").unwrap();
        assert!(
            matches!(&lost.outcome, SceneOutcome::Timeout { stage, .. } if stage == "classify"),
            "unexpected outcome {:?}",
            lost.outcome
        );
        assert_eq!(lost.timed_out_stages, vec!["threshold-318/classify".to_string()]);
        assert!(lost.output.is_none());
        assert!(!lost.outcome.succeeded());
        // The healthy scene is untouched.
        assert_eq!(report.report_for("sup1").unwrap().outcome, SceneOutcome::Ok);
        assert_eq!(report.timeout_count(), 1);
        assert_eq!(report.failed_count(), 0);
        assert_eq!(report.succeeded_count(), 1);
    }

    #[test]
    fn timeout_trips_the_breaker_and_later_scenes_skip_the_variant() {
        let mut plan = FaultPlan::new();
        plan.inject("sup0", hang(ChainStage::Classify));
        let chain = contextual_gridded().with_stage_hook(plan.chain_hook());
        // One worker: sup0 runs (and trips the primary's circuit)
        // before sup1 starts, deterministically.
        let supervisor = Supervisor::new(1)
            .with_workers(1)
            .with_deadline(Duration::from_millis(150));
        let report = supervisor.run_batch(&Catalog::new(), &chain, &scenes(2));

        // sup0 timed out on every rung: twice on the primary (tripping
        // its breaker at BREAKER_THRESHOLD = 2), once on each
        // degraded variant (the last rung is still attempted).
        let lost = report.report_for("sup0").unwrap();
        assert!(matches!(&lost.outcome, SceneOutcome::Timeout { .. }));
        assert_eq!(
            lost.timed_out_stages,
            vec![
                "contextual-318-n2/classify".to_string(),
                "contextual-318-n2/classify".to_string(),
                "threshold-318/classify".to_string(),
                "threshold-318+native-grid/classify".to_string(),
            ]
        );
        assert_eq!(lost.attempts, 4);

        // sup1 is healthy but the primary's circuit is open, so it
        // goes straight to the degraded ladder — delivered, not lost.
        let healthy = report.report_for("sup1").unwrap();
        assert_eq!(
            healthy.outcome,
            SceneOutcome::Degraded {
                from: "contextual-318-n2".to_string(),
                to: "threshold-318".to_string(),
            }
        );
        assert!(healthy.output.is_some());
    }

    #[test]
    fn breaker_never_strands_a_scene_on_its_last_rung() {
        let mut plan = FaultPlan::new();
        plan.inject("sup0", hang(ChainStage::Classify));
        // Threshold chain: one rung only. Even with its circuit open
        // after sup0's timeouts, sup1 must still be attempted on it.
        let chain = ProcessingChain::operational().with_stage_hook(plan.chain_hook());
        let supervisor = Supervisor::new(1)
            .with_workers(1)
            .with_deadline(Duration::from_millis(150));
        let report = supervisor.run_batch(&Catalog::new(), &chain, &scenes(2));
        assert!(matches!(
            report.report_for("sup0").unwrap().outcome,
            SceneOutcome::Timeout { .. }
        ));
        assert_eq!(report.report_for("sup1").unwrap().outcome, SceneOutcome::Ok);
    }

    #[test]
    fn unlimited_budget_changes_nothing_for_faulted_batches() {
        let mut plan = FaultPlan::new();
        plan.inject("sup1", Fault::Transient { failures: 2 });
        let chain = ProcessingChain::operational().with_stage_hook(plan.chain_hook());
        let supervisor = Supervisor::new(2);
        let report = supervisor.run_batch(&Catalog::new(), &chain, &scenes(3));
        assert_eq!(report.report_for("sup1").unwrap().outcome, SceneOutcome::Retried(2));
        assert_eq!(report.timeout_count(), 0);
        assert!(report.scenes.iter().all(|s| s.timed_out_stages.is_empty()));
    }

    #[test]
    fn degraded_ladder_shape() {
        let ladder = degraded_variants(&contextual_gridded());
        assert_eq!(ladder.len(), 2);
        assert_eq!(ladder[0].0, "threshold-318");
        assert_eq!(ladder[1].0, "threshold-318+native-grid");
        assert!(ladder[1].1.target_grid.is_none());
        // A plain operational chain has nothing to degrade to.
        assert!(degraded_variants(&ProcessingChain::operational()).is_empty());
    }
}
