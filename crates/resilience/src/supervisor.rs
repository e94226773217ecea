//! Supervised chain execution: retry, backoff, degraded modes.
//!
//! [`Supervisor::run_batch`] is the fault-tolerant counterpart of
//! [`ProcessingChain::run_many_isolated`]: scenes run on a bounded
//! worker pool (no thread-per-scene spawning), each with its own retry
//! budget and its own ladder of degraded chain variants, and the batch
//! always returns a full [`BatchReport`] — one [`SceneReport`] per
//! input scene, in input order, no matter what the workers did.
//!
//! The degraded ladder is cumulative and honest: first the classifier
//! is downgraded to the plain operational threshold (the contextual and
//! adaptive submodules have more ways to fail), then the target grid is
//! dropped for the native scene grid. The report's `chain_id` names the
//! variant that actually produced each product, so a degraded product
//! is never mistaken for a nominal one downstream.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};
use teleios_exec::{default_threads, CancelToken, PoolStats, WorkerPool};
use teleios_ingest::raster::GeoRaster;
use teleios_monet::Catalog;
use teleios_noa::chain::{panic_message, ChainStage};
use teleios_noa::{ChainOutput, HotspotClassifier, ProcessingChain};

use crate::deadline::{
    AttemptRegistry, BatchDeadline, CircuitBreaker, InFlightAttempt, StageBudget, Watchdog,
};

/// Bounded retry with exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Extra attempts after the first (0 = no retries).
    pub max_retries: u32,
    /// Pause before the first retry.
    pub base_backoff: Duration,
    /// Multiplier applied to the pause per additional retry (as
    /// integer percent: 200 = double each time).
    pub multiplier_percent: u32,
    /// Upper bound on any single pause (ignored when zero).
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(10),
            multiplier_percent: 200,
            max_backoff: Duration::from_millis(200),
        }
    }
}

impl RetryPolicy {
    /// A policy that retries immediately — what tests and experiments
    /// use so injected faults don't cost wall-clock sleeps.
    pub fn no_backoff(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            base_backoff: Duration::ZERO,
            multiplier_percent: 100,
            max_backoff: Duration::ZERO,
        }
    }

    /// The pause before retry number `retry` (1-based). Zero for
    /// `retry == 0` or when no base backoff is configured. Saturating:
    /// a huge multiplier or retry count pegs the pause at
    /// `Duration::MAX` (then the cap) instead of panicking on
    /// overflow.
    pub fn backoff_for(&self, retry: u32) -> Duration {
        if retry == 0 || self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let mut pause = self.base_backoff;
        for _ in 1..retry {
            match pause.checked_mul(self.multiplier_percent) {
                Some(grown) => pause = grown / 100,
                None => {
                    // Already beyond any plausible cap; stop growing.
                    pause = Duration::MAX;
                    break;
                }
            }
        }
        if !self.max_backoff.is_zero() {
            pause = pause.min(self.max_backoff);
        }
        pause
    }
}

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
    /// No attempt produced a product and at least one attempt was
    /// cancelled by the deadline watchdog: the scene is lost to
    /// timeouts, not to data or logic faults.
    Timeout {
        /// The stage that was running when the last overdue attempt
        /// was cancelled (`"unstarted"` if it never reached a stage).
        stage: String,
        /// The cancellation reason from the watchdog.
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
    /// One `"variant/stage"` entry per attempt the deadline watchdog
    /// cancelled, in attempt order — the timeout chain for this scene.
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
    /// Worker-pool statistics for the run (worker count, scenes
    /// started).
    pub pool: PoolStats,
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

    /// Scenes with no product at all (failed + timed out).
    pub fn lost_count(&self) -> usize {
        self.scenes.iter().filter(|s| !s.outcome.succeeded()).count()
    }

    /// Scenes that produced a product (ok + retried + degraded).
    pub fn succeeded_count(&self) -> usize {
        self.scenes.iter().filter(|s| s.outcome.succeeded()).count()
    }

    /// The report for one scene id.
    pub fn report_for(&self, product_id: &str) -> Option<&SceneReport> {
        self.scenes.iter().find(|s| s.product_id == product_id)
    }

    /// One-line summary for logs and experiment tables.
    pub fn summary(&self) -> String {
        format!(
            "{} scenes: {} ok, {} retried, {} degraded, {} failed, {} timeout in {:.1?}",
            self.scenes.len(),
            self.ok_count(),
            self.retried_count(),
            self.degraded_count(),
            self.failed_count(),
            self.timeout_count(),
            self.wall_clock
        )
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

/// Supervised executor for chain batches.
#[derive(Debug, Clone, Copy)]
pub struct Supervisor {
    /// Retry/backoff policy applied per scene to the primary chain.
    pub retry: RetryPolicy,
    /// Whether to try degraded chain variants after the retry budget
    /// is exhausted.
    pub degraded_mode: bool,
    /// Worker count for [`Self::run_batch`]'s bounded pool; `0` means
    /// the executor default (`TELEIOS_THREADS` env override, else
    /// available parallelism).
    pub workers: usize,
    /// Per-attempt deadline budgets (soft per-stage + hard per-scene).
    /// Unlimited by default; a limited budget arms the watchdog.
    pub budget: StageBudget,
    /// Hard deadline for a whole [`Self::run_batch`] call:
    /// once overshot, no further scene is dispatched and in-flight
    /// attempts are cancelled. `Duration::MAX` (the default) disables
    /// it.
    pub batch_deadline: Duration,
    /// Attempt-level timeouts on one chain variant before its circuit
    /// opens and the supervisor skips it (straight to the next
    /// degraded rung) for the rest of the batch. Zero disables the
    /// breaker.
    pub breaker_threshold: u32,
}

impl Default for Supervisor {
    fn default() -> Supervisor {
        Supervisor::new(RetryPolicy::default())
    }
}

/// Timeouts per variant before the circuit opens, unless overridden
/// with [`Supervisor::with_breaker_threshold`]. "Times out twice →
/// stop burning deadline budget on it."
pub const DEFAULT_BREAKER_THRESHOLD: u32 = 2;

/// What every scene of one supervised run shares: the watchdog's
/// attempt registry, the per-variant circuit breaker, and the run's
/// cancel token. Clones share all three.
#[derive(Debug, Clone)]
struct RunState {
    registry: AttemptRegistry,
    breaker: CircuitBreaker,
    cancel: CancelToken,
}

impl RunState {
    fn new(breaker_threshold: u32, cancel: CancelToken) -> RunState {
        RunState {
            registry: AttemptRegistry::default(),
            breaker: CircuitBreaker::new(breaker_threshold),
            cancel,
        }
    }
}

impl Supervisor {
    /// Supervisor with the given retry policy, degraded mode on, no
    /// deadlines, and the default circuit-breaker threshold (the
    /// breaker only matters once a budget is set).
    pub fn new(retry: RetryPolicy) -> Supervisor {
        Supervisor {
            retry,
            degraded_mode: true,
            workers: 0,
            budget: StageBudget::unlimited(),
            batch_deadline: Duration::MAX,
            breaker_threshold: DEFAULT_BREAKER_THRESHOLD,
        }
    }

    /// The same supervisor with degraded-mode fallbacks disabled:
    /// scenes either succeed with the primary chain or fail.
    pub fn without_degraded_mode(mut self) -> Supervisor {
        self.degraded_mode = false;
        self
    }

    /// The same supervisor with an explicit batch worker count.
    pub fn with_workers(mut self, workers: usize) -> Supervisor {
        self.workers = workers;
        self
    }

    /// The same supervisor with per-attempt deadline budgets. Arms the
    /// watchdog in [`Self::run_scene`] and [`Self::run_batch`].
    pub fn with_budget(mut self, budget: StageBudget) -> Supervisor {
        self.budget = budget;
        self
    }

    /// The same supervisor with a whole-batch hard deadline.
    pub fn with_batch_deadline(mut self, deadline: Duration) -> Supervisor {
        self.batch_deadline = deadline;
        self
    }

    /// The same supervisor with an explicit circuit-breaker threshold
    /// (zero disables the breaker).
    pub fn with_breaker_threshold(mut self, threshold: u32) -> Supervisor {
        self.breaker_threshold = threshold;
        self
    }

    /// One isolated attempt: panics become errors.
    fn attempt(
        catalog: &Catalog,
        chain: &ProcessingChain,
        product_id: &str,
        raster: &GeoRaster,
    ) -> std::result::Result<ChainOutput, String> {
        match catch_unwind(AssertUnwindSafe(|| chain.run(catalog, product_id, raster))) {
            Ok(Ok(output)) => Ok(output),
            Ok(Err(e)) => Err(e.to_string()),
            Err(payload) => Err(format!(
                "chain worker panicked on {product_id}: {}",
                panic_message(payload.as_ref())
            )),
        }
    }

    /// One deadline-instrumented attempt: the chain runs with a fresh
    /// [`CancelToken`] and a stage-tracking hook wrapped around the
    /// caller's hook, registered with the watchdog's registry for the
    /// duration. Returns the attempt result plus, when the token was
    /// fired, the `(stage, reason)` the cancellation landed on.
    fn deadline_attempt(
        catalog: &Catalog,
        chain: &ProcessingChain,
        variant_id: &str,
        product_id: &str,
        raster: &GeoRaster,
        registry: &AttemptRegistry,
    ) -> (std::result::Result<ChainOutput, String>, Option<(String, String)>) {
        let token = CancelToken::new();
        let attempt =
            Arc::new(InFlightAttempt::new(product_id, variant_id, token.clone()));
        let tracker = Arc::clone(&attempt);
        let original_hook = chain.stage_hook.clone();
        let mut instrumented = chain.clone().with_cancel_token(token.clone());
        instrumented.stage_hook = Some(Arc::new(
            move |id: &str, stage: ChainStage, ch: &ProcessingChain| {
                tracker.enter_stage(stage);
                match &original_hook {
                    Some(hook) => hook(id, stage, ch),
                    None => Ok(()),
                }
            },
        ));
        registry.register(Arc::clone(&attempt));
        let result = Self::attempt(catalog, &instrumented, product_id, raster);
        registry.deregister(&attempt);
        let timeout = if result.is_err() && token.is_cancelled() {
            let reason = token
                .reason()
                .unwrap_or_else(|| "deadline cancellation".to_string());
            Some((attempt.stage_label(), reason))
        } else {
            None
        };
        (result, timeout)
    }

    /// Supervise one scene: retry the primary chain within the budget,
    /// then walk the degraded ladder — skipping any variant whose
    /// timeout circuit is open, as long as a further rung exists (the
    /// last rung is always attempted, so the breaker can never strand
    /// a healthy scene). Never panics, never aborts.
    /// The run's `cancel` token interrupts retry backoff: a
    /// batch-deadline (or caller) cancellation cuts the pause short and
    /// the scene stops retrying, so a worker never sits in a plain
    /// sleep that outlives the batch.
    fn run_scene_supervised(
        &self,
        catalog: &Catalog,
        chain: &ProcessingChain,
        product_id: &str,
        raster: &GeoRaster,
        run: &RunState,
    ) -> SceneReport {
        let RunState { registry, breaker, cancel } = run;
        let primary_id = chain.id();
        let mut rungs: Vec<(String, ProcessingChain)> =
            vec![(primary_id.clone(), chain.clone())];
        if self.degraded_mode {
            rungs.extend(degraded_variants(chain));
        }
        let rung_count = rungs.len();

        let mut attempts = 0u32;
        let mut last_error = String::new();
        let mut timed_out_stages: Vec<String> = Vec::new();
        let mut last_timeout: Option<(String, String)> = None;

        for (rung_idx, (variant_id, variant)) in rungs.into_iter().enumerate() {
            let is_primary = rung_idx == 0;
            let has_next_rung = rung_idx + 1 < rung_count;
            if has_next_rung && breaker.is_open(&variant_id) {
                last_error = format!(
                    "variant {variant_id} skipped: circuit open after repeated timeouts"
                );
                continue;
            }
            let tries = if is_primary { self.retry.max_retries + 1 } else { 1 };
            for try_n in 0..tries {
                attempts += 1;
                let (result, timeout) = Self::deadline_attempt(
                    catalog, &variant, &variant_id, product_id, raster, registry,
                );
                match result {
                    Ok(output) => {
                        let outcome = if !is_primary {
                            SceneOutcome::Degraded {
                                from: primary_id.clone(),
                                to: variant_id.clone(),
                            }
                        } else if try_n == 0 {
                            SceneOutcome::Ok
                        } else {
                            SceneOutcome::Retried(try_n)
                        };
                        return SceneReport {
                            product_id: product_id.to_string(),
                            outcome,
                            output: Some(output),
                            chain_id: variant_id,
                            attempts,
                            timed_out_stages,
                        };
                    }
                    Err(message) => {
                        last_error = message;
                        if let Some((stage, reason)) = timeout {
                            timed_out_stages.push(format!("{variant_id}/{stage}"));
                            breaker.record_timeout(&variant_id);
                            last_timeout = Some((stage, reason));
                            // A variant that just tripped its circuit
                            // gets no further retries either (unless
                            // it is the scene's last resort).
                            if has_next_rung && breaker.is_open(&variant_id) {
                                break;
                            }
                        }
                        if try_n + 1 < tries {
                            let pause = self.retry.backoff_for(try_n + 1);
                            if !pause.is_zero() && cancel.sleep_cancellable(pause) {
                                // Cut short: give the scene up now
                                // instead of burning more attempts the
                                // batch no longer wants.
                                return SceneReport {
                                    product_id: product_id.to_string(),
                                    outcome: SceneOutcome::Failed {
                                        reason: format!(
                                            "cancelled during retry backoff: {}",
                                            cancel
                                                .reason()
                                                .unwrap_or_else(|| "batch cancelled".to_string())
                                        ),
                                    },
                                    output: None,
                                    chain_id: primary_id.clone(),
                                    attempts,
                                    timed_out_stages,
                                };
                            }
                        }
                    }
                }
            }
        }
        let outcome = match last_timeout {
            Some((stage, reason)) => SceneOutcome::Timeout { stage, reason },
            None => SceneOutcome::Failed { reason: last_error },
        };
        SceneReport {
            product_id: product_id.to_string(),
            outcome,
            output: None,
            chain_id: primary_id,
            attempts,
            timed_out_stages,
        }
    }

    /// Supervise one scene, standalone: a private watchdog enforces
    /// the deadline budget (when one is set) for just this call.
    pub fn run_scene(
        &self,
        catalog: &Catalog,
        chain: &ProcessingChain,
        product_id: &str,
        raster: &GeoRaster,
    ) -> SceneReport {
        let run = RunState::new(self.breaker_threshold, CancelToken::new());
        let watchdog = if self.budget.is_unlimited() {
            None
        } else {
            Some(Watchdog::spawn(run.registry.clone(), self.budget, None))
        };
        let report = self.run_scene_supervised(catalog, chain, product_id, raster, &run);
        if let Some(watchdog) = watchdog {
            watchdog.stop();
        }
        report
    }

    /// Supervise a batch on the worker pool: `workers` threads (the
    /// executor default when zero) claim scenes in input order, so at
    /// most `workers` scenes are in flight at once. A single watchdog
    /// thread polices every in-flight attempt's deadline budget plus
    /// the whole-batch deadline; a single circuit breaker is shared by
    /// all scenes, so a chain variant that keeps timing out is skipped
    /// batch-wide. Reports come back in input order; a lost scene
    /// never takes the batch or the process down.
    pub fn run_batch(
        &self,
        catalog: &Catalog,
        chain: &ProcessingChain,
        scenes: &[(String, GeoRaster)],
    ) -> BatchReport {
        let t0 = Instant::now();
        let workers = if self.workers == 0 { default_threads() } else { self.workers };
        let pool = WorkerPool::with_threads(workers);
        let batch_token = CancelToken::new();
        let run = RunState::new(self.breaker_threshold, batch_token.clone());
        let has_batch_deadline = self.batch_deadline != Duration::MAX;
        let watchdog = if self.budget.is_unlimited() && !has_batch_deadline {
            None
        } else {
            let batch = has_batch_deadline.then(|| BatchDeadline {
                started: t0,
                deadline: self.batch_deadline,
                token: batch_token.clone(),
            });
            Some(Watchdog::spawn(run.registry.clone(), self.budget, batch))
        };
        let tasks: Vec<_> = scenes
            .iter()
            .map(|(id, raster)| {
                let supervisor = *self;
                let chain = chain.clone();
                let catalog = catalog.clone();
                let run = run.clone();
                move || supervisor.run_scene_supervised(&catalog, &chain, id, raster, &run)
            })
            .collect();
        let (outcomes, pool_stats) = pool.try_run_cancellable(tasks, &batch_token);
        if let Some(watchdog) = watchdog {
            watchdog.stop();
        }
        let scenes = outcomes
            .into_iter()
            .zip(scenes)
            .map(|(slot, (id, _))| match slot {
                Some(Ok(report)) => report,
                // Unreachable in practice (run_scene_supervised catches
                // everything), but still: a worker panic degrades to a
                // per-scene failure, never an abort.
                Some(Err(payload)) => SceneReport {
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
                },
                // The batch deadline fired before this scene was
                // dispatched; the pool drained without running it.
                None => SceneReport {
                    product_id: id.clone(),
                    outcome: SceneOutcome::Timeout {
                        stage: "unstarted".to_string(),
                        reason: batch_token.reason().unwrap_or_else(|| {
                            format!(
                                "batch deadline {:?} overshot before {id} was dispatched",
                                self.batch_deadline
                            )
                        }),
                    },
                    output: None,
                    chain_id: chain.id(),
                    attempts: 0,
                    timed_out_stages: Vec::new(),
                },
            })
            .collect::<Vec<SceneReport>>();
        BatchReport { scenes, wall_clock: t0.elapsed(), pool: pool_stats }
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
        let supervisor = Supervisor::new(RetryPolicy::no_backoff(1));
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
        let supervisor = Supervisor::new(RetryPolicy::no_backoff(2));
        let report = supervisor.run_batch(&Catalog::new(), &chain, &scenes(3));
        assert_eq!(report.report_for("sup1").unwrap().outcome, SceneOutcome::Retried(2));
        assert_eq!(report.report_for("sup1").unwrap().attempts, 3);
        assert_eq!(report.ok_count(), 2);
        assert_eq!(report.failed_count(), 0);
    }

    #[test]
    fn cancellation_interrupts_retry_backoff() {
        // A pre-cancelled token must cut the (enormous) backoff short
        // immediately: the scene reports Failed instead of pinning a
        // worker in a plain sleep the batch deadline can't reach.
        let mut plan = FaultPlan::new();
        plan.inject("sup0", Fault::Transient { failures: 5 });
        let chain = ProcessingChain::operational().with_stage_hook(plan.chain_hook());
        let supervisor = Supervisor::new(RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_secs(3600),
            multiplier_percent: 100,
            max_backoff: Duration::ZERO,
        });
        let cancel = CancelToken::new();
        cancel.cancel("batch deadline exceeded");
        let raster = scenes(1).remove(0).1;
        let run = RunState::new(3, cancel);
        // On a thread of its own, so a backoff that ignores the token
        // fails the test in seconds instead of sleeping for an hour.
        let (done, finished) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            done.send(supervisor.run_scene_supervised(&Catalog::new(), &chain, "sup0", &raster, &run)).is_ok()
        });
        let report = finished.recv_timeout(Duration::from_secs(30)).expect("backoff was not interrupted");
        assert!(worker.join().unwrap());
        assert_eq!(report.attempts, 1);
        assert!(
            matches!(&report.outcome, SceneOutcome::Failed { reason }
                if reason.contains("cancelled during retry backoff")
                    && reason.contains("batch deadline exceeded")),
            "{:?}",
            report.outcome
        );
    }

    #[test]
    fn transient_fault_beyond_budget_fails_without_degraded_help() {
        let mut plan = FaultPlan::new();
        plan.inject("sup0", Fault::Transient { failures: 5 });
        // The threshold chain has no degraded ladder, so the scene fails.
        let chain = ProcessingChain::operational().with_stage_hook(plan.chain_hook());
        let supervisor = Supervisor::new(RetryPolicy::no_backoff(1));
        let report = supervisor.run_batch(&Catalog::new(), &chain, &scenes(1));
        let scene = report.report_for("sup0").unwrap();
        assert!(matches!(&scene.outcome, SceneOutcome::Failed { reason } if reason.contains("transient")));
        assert!(scene.output.is_none());
    }

    #[test]
    fn classifier_fault_degrades_to_threshold() {
        let mut plan = FaultPlan::new();
        plan.inject("sup1", Fault::ClassifierError);
        let chain = contextual_gridded().with_stage_hook(plan.chain_hook());
        let supervisor = Supervisor::new(RetryPolicy::no_backoff(1));
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
        let supervisor = Supervisor::new(RetryPolicy::no_backoff(0));
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
        let supervisor = Supervisor::new(RetryPolicy::no_backoff(1));
        let report = supervisor.run_batch(&Catalog::new(), &chain, &scenes(3));
        let scene = report.report_for("sup1").unwrap();
        assert!(matches!(&scene.outcome, SceneOutcome::Failed { reason } if reason.contains("panicked")));
        // 2 primary attempts + 2 degraded variants, all panicking.
        assert_eq!(scene.attempts, 4);
        assert_eq!(report.succeeded_count(), 2);
        assert_eq!(report.failed_count(), 1);
    }

    #[test]
    fn degraded_mode_can_be_disabled() {
        let mut plan = FaultPlan::new();
        plan.inject("sup0", Fault::ClassifierError);
        let chain = contextual_gridded().with_stage_hook(plan.chain_hook());
        let supervisor = Supervisor::new(RetryPolicy::no_backoff(1)).without_degraded_mode();
        let report = supervisor.run_batch(&Catalog::new(), &chain, &scenes(1));
        assert!(matches!(
            report.report_for("sup0").unwrap().outcome,
            SceneOutcome::Failed { .. }
        ));
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = RetryPolicy {
            max_retries: 5,
            base_backoff: Duration::from_millis(10),
            multiplier_percent: 200,
            max_backoff: Duration::from_millis(35),
        };
        assert_eq!(policy.backoff_for(0), Duration::ZERO);
        assert_eq!(policy.backoff_for(1), Duration::from_millis(10));
        assert_eq!(policy.backoff_for(2), Duration::from_millis(20));
        assert_eq!(policy.backoff_for(3), Duration::from_millis(35)); // capped from 40
        assert_eq!(RetryPolicy::no_backoff(3).backoff_for(2), Duration::ZERO);
    }

    #[test]
    fn backoff_saturates_on_huge_multiplier() {
        // A multiplier large enough to overflow Duration on the first
        // growth step must saturate to Duration::MAX, not wrap or panic.
        let uncapped = RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_secs(u64::MAX / 2),
            multiplier_percent: u32::MAX,
            max_backoff: Duration::ZERO, // zero = no cap
        };
        assert_eq!(uncapped.backoff_for(2), Duration::MAX);
        // With a cap configured, saturation still lands on the cap.
        let capped = RetryPolicy { max_backoff: Duration::from_secs(30), ..uncapped };
        assert_eq!(capped.backoff_for(2), Duration::from_secs(30));
    }

    #[test]
    fn backoff_deep_retry_counts_terminate_at_max() {
        // Very deep retry counts must terminate promptly (the growth
        // loop breaks once saturated) and stay pinned at the ceiling.
        let policy = RetryPolicy {
            max_retries: u32::MAX,
            base_backoff: Duration::from_millis(1),
            multiplier_percent: 1_000,
            max_backoff: Duration::ZERO,
        };
        assert_eq!(policy.backoff_for(500), Duration::MAX);
        assert_eq!(policy.backoff_for(u32::MAX), Duration::MAX);
        let capped = RetryPolicy { max_backoff: Duration::from_millis(250), ..policy };
        assert_eq!(capped.backoff_for(u32::MAX), Duration::from_millis(250));
    }

    #[test]
    fn backoff_zero_base_is_zero_for_all_retries() {
        let policy = RetryPolicy {
            max_retries: 10,
            base_backoff: Duration::ZERO,
            multiplier_percent: u32::MAX,
            max_backoff: Duration::from_secs(1),
        };
        for retry in [0, 1, 2, 100, u32::MAX] {
            assert_eq!(policy.backoff_for(retry), Duration::ZERO);
        }
    }

    #[test]
    fn summary_mentions_every_bucket() {
        let supervisor = Supervisor::new(RetryPolicy::no_backoff(0));
        let report = supervisor.run_batch(&Catalog::new(), &ProcessingChain::operational(), &scenes(2));
        let line = report.summary();
        assert!(line.contains("2 scenes"));
        assert!(line.contains("2 ok"));
        assert!(line.contains("0 failed"));
    }

    #[test]
    fn backoff_saturates_instead_of_panicking() {
        // Regression: `pause * multiplier_percent` used to overflow and
        // panic for large multipliers / deep retry counts.
        let policy = RetryPolicy {
            max_retries: u32::MAX,
            base_backoff: Duration::from_secs(u64::MAX / 2),
            multiplier_percent: u32::MAX,
            max_backoff: Duration::ZERO,
        };
        assert_eq!(policy.backoff_for(40), Duration::MAX);
        // With a cap, the saturated pause is clamped to it.
        let capped = RetryPolicy { max_backoff: Duration::from_millis(50), ..policy };
        assert_eq!(capped.backoff_for(40), Duration::from_millis(50));
        // Sane policies are unaffected.
        assert_eq!(
            RetryPolicy::default().backoff_for(2),
            Duration::from_millis(20)
        );
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
        let supervisor = Supervisor::new(RetryPolicy::no_backoff(0))
            .with_budget(StageBudget::hard(Duration::from_millis(150)));
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
        assert_eq!(report.lost_count(), 1);
        assert!(report.summary().contains("1 timeout"));
    }

    #[test]
    fn soft_stage_budget_cancels_a_wedged_stage() {
        let mut plan = FaultPlan::new();
        plan.inject("sup0", hang(ChainStage::Georef));
        let chain = ProcessingChain::operational().with_stage_hook(plan.chain_hook());
        let supervisor = Supervisor::new(RetryPolicy::no_backoff(0)).with_budget(
            StageBudget::new(Duration::from_millis(120), Duration::from_secs(3600)),
        );
        let report = supervisor.run_scene(
            &Catalog::new(),
            &chain,
            "sup0",
            &scenes(1)[0].1,
        );
        match &report.outcome {
            SceneOutcome::Timeout { stage, reason } => {
                assert_eq!(stage, "georef");
                assert!(reason.contains("soft deadline"), "{reason}");
            }
            other => panic!("expected a soft-stage timeout, got {other:?}"),
        }
    }

    #[test]
    fn timeout_trips_the_breaker_and_later_scenes_skip_the_variant() {
        let mut plan = FaultPlan::new();
        plan.inject("sup0", hang(ChainStage::Classify));
        let chain = contextual_gridded().with_stage_hook(plan.chain_hook());
        // One worker: sup0 runs (and trips the primary's circuit)
        // before sup1 starts, deterministically.
        let supervisor = Supervisor::new(RetryPolicy::no_backoff(1))
            .with_workers(1)
            .with_budget(StageBudget::hard(Duration::from_millis(150)));
        let report = supervisor.run_batch(&Catalog::new(), &chain, &scenes(2));

        // sup0 timed out on every rung: twice on the primary (tripping
        // its breaker at the default threshold of 2), once on each
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
        let supervisor = Supervisor::new(RetryPolicy::no_backoff(1))
            .with_workers(1)
            .with_budget(StageBudget::hard(Duration::from_millis(150)));
        let report = supervisor.run_batch(&Catalog::new(), &chain, &scenes(2));
        assert!(matches!(
            report.report_for("sup0").unwrap().outcome,
            SceneOutcome::Timeout { .. }
        ));
        assert_eq!(report.report_for("sup1").unwrap().outcome, SceneOutcome::Ok);
    }

    #[test]
    fn batch_deadline_stops_dispatch_and_drains_in_flight_scenes() {
        let mut plan = FaultPlan::new();
        plan.inject("sup0", hang(ChainStage::Classify));
        let chain = ProcessingChain::operational().with_stage_hook(plan.chain_hook());
        // Generous per-scene budget, tight batch deadline: the batch
        // arm of the watchdog must both cancel the in-flight hang and
        // keep the queued scenes from dispatching.
        let supervisor = Supervisor::new(RetryPolicy::no_backoff(0))
            .with_workers(1)
            .with_budget(StageBudget::hard(Duration::from_secs(3600)))
            .with_batch_deadline(Duration::from_millis(40));
        let t0 = Instant::now();
        let report = supervisor.run_batch(&Catalog::new(), &chain, &scenes(4));
        assert!(t0.elapsed() < Duration::from_secs(5));
        assert_eq!(report.scenes.len(), 4);
        let first = report.report_for("sup0").unwrap();
        assert!(
            matches!(&first.outcome, SceneOutcome::Timeout { reason, .. } if reason.contains("batch deadline")),
            "unexpected outcome {:?}",
            first.outcome
        );
        for id in ["sup1", "sup2", "sup3"] {
            let scene = report.report_for(id).unwrap();
            assert!(
                matches!(&scene.outcome, SceneOutcome::Timeout { stage, .. } if stage == "unstarted"),
                "{id}: unexpected outcome {:?}",
                scene.outcome
            );
            assert_eq!(scene.attempts, 0);
        }
    }

    #[test]
    fn unlimited_budget_changes_nothing_for_faulted_batches() {
        let mut plan = FaultPlan::new();
        plan.inject("sup1", Fault::Transient { failures: 2 });
        let chain = ProcessingChain::operational().with_stage_hook(plan.chain_hook());
        let supervisor = Supervisor::new(RetryPolicy::no_backoff(2))
            .with_budget(StageBudget::unlimited());
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
