//! Deadline budgets, the in-flight attempt registry, the batch
//! watchdog, and the per-variant timeout circuit breaker.
//!
//! Cancellation is strictly cooperative. The watchdog never kills a
//! thread: it flips the attempt's [`CancelToken`], and the chain
//! notices at its next stage boundary (injected hang faults poll the
//! same token, so even a wedged stage drains promptly). The overshot
//! stage is recorded on the attempt so the supervisor can name it in
//! the [`crate::SceneReport`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use teleios_exec::{CancelToken, OrderedMutex};
use teleios_noa::chain::ChainStage;

/// Per-attempt deadline budgets for supervised chain execution.
///
/// Both deadlines apply to a single attempt (one pass through the
/// chain): `soft_stage` bounds any one [`ChainStage`], `hard_scene`
/// bounds the whole pass. A fresh budget window opens on every retry
/// and every degraded-ladder rung, so a scene's total supervision time
/// is bounded by `hard_scene × total attempts` plus scheduling slack.
/// `Duration::MAX` disables a bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageBudget {
    /// Soft deadline for a single chain stage within an attempt.
    pub soft_stage: Duration,
    /// Hard deadline for a whole attempt (all five stages).
    pub hard_scene: Duration,
}

impl Default for StageBudget {
    fn default() -> StageBudget {
        StageBudget::unlimited()
    }
}

impl StageBudget {
    /// No deadlines: the watchdog has nothing to enforce.
    pub fn unlimited() -> StageBudget {
        StageBudget {
            soft_stage: Duration::MAX,
            hard_scene: Duration::MAX,
        }
    }

    /// Explicit per-stage and per-attempt deadlines.
    pub fn new(soft_stage: Duration, hard_scene: Duration) -> StageBudget {
        StageBudget {
            soft_stage,
            hard_scene,
        }
    }

    /// Only a whole-attempt deadline (stages individually unbounded).
    pub fn hard(hard_scene: Duration) -> StageBudget {
        StageBudget {
            soft_stage: Duration::MAX,
            hard_scene,
        }
    }

    /// True when neither bound is set.
    pub fn is_unlimited(&self) -> bool {
        self.soft_stage == Duration::MAX && self.hard_scene == Duration::MAX
    }
}

/// One in-flight chain attempt, visible to the watchdog.
#[derive(Debug)]
pub(crate) struct InFlightAttempt {
    /// Scene / product id (for cancellation reasons).
    pub id: String,
    /// Chain-variant label this attempt is running.
    pub chain_id: String,
    /// The token the watchdog fires to cancel this attempt.
    pub token: CancelToken,
    /// When the attempt started.
    pub started: Instant,
    /// The stage currently executing and when it was entered.
    stage: OrderedMutex<Option<(ChainStage, Instant)>>,
}

impl InFlightAttempt {
    pub fn new(id: &str, chain_id: &str, token: CancelToken) -> InFlightAttempt {
        InFlightAttempt {
            id: id.to_string(),
            chain_id: chain_id.to_string(),
            token,
            started: Instant::now(),
            stage: OrderedMutex::new("deadline.attempt.stage", None),
        }
    }

    /// Record that `stage` just started (called from the instrumented
    /// stage hook).
    pub fn enter_stage(&self, stage: ChainStage) {
        let mut slot = self.stage.lock();
        *slot = Some((stage, Instant::now()));
    }

    /// The stage currently executing, if any.
    pub fn current_stage(&self) -> Option<(ChainStage, Instant)> {
        *self.stage.lock()
    }

    /// Label of the stage running now — the stage a cancellation lands
    /// on — or `"unstarted"` before the first stage boundary.
    pub fn stage_label(&self) -> String {
        match self.current_stage() {
            Some((stage, _)) => stage.to_string(),
            None => "unstarted".to_string(),
        }
    }
}

/// Registry of in-flight attempts shared between scene workers and the
/// watchdog. Clones share the same registry. Its lock is witnessed
/// ([`OrderedMutex`]), so a debug-build run that ever held the
/// registry while taking an attempt's stage lock (or vice versa, in
/// conflicting orders) would surface in the lock-order graph.
#[derive(Debug, Clone)]
pub(crate) struct AttemptRegistry {
    inner: Arc<OrderedMutex<Vec<Arc<InFlightAttempt>>>>,
}

impl Default for AttemptRegistry {
    fn default() -> AttemptRegistry {
        AttemptRegistry {
            inner: Arc::new(OrderedMutex::new("deadline.registry", Vec::new())),
        }
    }
}

impl AttemptRegistry {
    pub fn register(&self, attempt: Arc<InFlightAttempt>) {
        let mut list = self.inner.lock();
        list.push(attempt);
    }

    pub fn deregister(&self, attempt: &Arc<InFlightAttempt>) {
        let mut list = self.inner.lock();
        list.retain(|a| !Arc::ptr_eq(a, attempt));
    }

    fn snapshot(&self) -> Vec<Arc<InFlightAttempt>> {
        self.inner.lock().clone()
    }
}

/// Whole-batch deadline state the watchdog also polices: once
/// `deadline` has elapsed since `started`, the batch token fires (the
/// worker pool stops dispatching scenes) and every in-flight attempt
/// is cancelled so the batch drains.
#[derive(Debug, Clone)]
pub(crate) struct BatchDeadline {
    pub started: Instant,
    pub deadline: Duration,
    pub token: CancelToken,
}

/// The watchdog thread: polls the registry, cancels overdue attempts.
/// Stopping is explicit ([`Watchdog::stop`]) and joins the thread, so
/// no watchdog outlives its batch.
#[derive(Debug)]
pub(crate) struct Watchdog {
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

/// How often the watchdog samples the registry. Deadline enforcement
/// is therefore accurate to about this granularity — fine for budgets
/// in the tens of milliseconds and up.
pub(crate) const WATCHDOG_POLL: Duration = Duration::from_millis(2);

impl Watchdog {
    pub fn spawn(
        registry: AttemptRegistry,
        budget: StageBudget,
        batch: Option<BatchDeadline>,
    ) -> Watchdog {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = teleios_exec::spawn_named("teleios-deadline-watchdog", move || {
            while !stop_flag.load(Ordering::SeqCst) {
                if let Some(b) = &batch {
                    if !b.token.is_cancelled() && b.started.elapsed() > b.deadline {
                        b.token
                            .cancel(format!("batch deadline {:?} overshot", b.deadline));
                    }
                    if b.token.is_cancelled() {
                        // Drain in-flight attempts too, so the
                        // batch ends promptly rather than waiting
                        // out each scene's own budget.
                        for attempt in registry.snapshot() {
                            attempt.token.cancel(format!(
                                "{}: batch deadline {:?} overshot",
                                attempt.id, b.deadline
                            ));
                        }
                    }
                }
                for attempt in registry.snapshot() {
                    if attempt.token.is_cancelled() {
                        continue;
                    }
                    if attempt.started.elapsed() > budget.hard_scene {
                        attempt.token.cancel(format!(
                            "{}: attempt overshot hard deadline {:?} at stage {} (chain {})",
                            attempt.id,
                            budget.hard_scene,
                            attempt.stage_label(),
                            attempt.chain_id
                        ));
                        continue;
                    }
                    if let Some((stage, entered)) = attempt.current_stage() {
                        if entered.elapsed() > budget.soft_stage {
                            attempt.token.cancel(format!(
                                "{}: stage {stage} overshot soft deadline {:?} (chain {})",
                                attempt.id, budget.soft_stage, attempt.chain_id
                            ));
                        }
                    }
                }
                thread::sleep(WATCHDOG_POLL);
            }
        })
        .ok();
        // A failed spawn (resource exhaustion) degrades to no deadline
        // enforcement rather than failing the batch.
        Watchdog { stop, handle }
    }

    /// Signal the thread to exit and join it.
    #[expect(
        clippy::let_underscore_must_use,
        reason = "a watchdog that panicked only stopped cancelling; the scenes it policed have finished and report their own outcomes, and a lost watchdog must not fail the batch"
    )]
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Per-chain-variant circuit breaker: after `threshold` attempt-level
/// timeouts on a variant, the circuit opens and the supervisor skips
/// that variant — jumping straight to the next degraded rung — for
/// the remainder of the batch. A threshold of zero disables the
/// breaker. Clones share state (one breaker per batch).
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    timeouts: Arc<OrderedMutex<HashMap<String, u32>>>,
    threshold: u32,
}

impl Default for CircuitBreaker {
    fn default() -> CircuitBreaker {
        CircuitBreaker::new(0)
    }
}

impl CircuitBreaker {
    /// A breaker that opens a variant's circuit after `threshold`
    /// timeouts (zero disables it).
    pub fn new(threshold: u32) -> CircuitBreaker {
        CircuitBreaker {
            timeouts: Arc::new(OrderedMutex::new("deadline.breaker", HashMap::new())),
            threshold,
        }
    }

    /// Record an attempt-level timeout on `chain_id`; returns the
    /// variant's running timeout count.
    pub fn record_timeout(&self, chain_id: &str) -> u32 {
        let mut map = self.timeouts.lock();
        let n = map.entry(chain_id.to_string()).or_insert(0);
        *n += 1;
        *n
    }

    /// True once `chain_id` has accumulated `threshold` timeouts.
    pub fn is_open(&self, chain_id: &str) -> bool {
        if self.threshold == 0 {
            return false;
        }
        let map = self.timeouts.lock();
        map.get(chain_id).copied().unwrap_or(0) >= self.threshold
    }

    /// Variants whose circuits are open, in sorted order.
    pub fn open_variants(&self) -> Vec<String> {
        if self.threshold == 0 {
            return Vec::new();
        }
        let map = self.timeouts.lock();
        let mut open: Vec<String> = map
            .iter()
            .filter(|(_, &n)| n >= self.threshold)
            .map(|(id, _)| id.clone())
            .collect();
        open.sort();
        open
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_is_the_default() {
        assert!(StageBudget::default().is_unlimited());
        assert!(StageBudget::unlimited().is_unlimited());
        assert!(!StageBudget::hard(Duration::from_millis(100)).is_unlimited());
        assert!(!StageBudget::new(Duration::from_millis(10), Duration::MAX).is_unlimited());
    }

    #[test]
    fn watchdog_cancels_an_overdue_attempt() {
        let registry = AttemptRegistry::default();
        let token = CancelToken::new();
        let attempt = Arc::new(InFlightAttempt::new("s0", "threshold-318", token.clone()));
        attempt.enter_stage(ChainStage::Classify);
        registry.register(Arc::clone(&attempt));
        let watchdog = Watchdog::spawn(
            registry.clone(),
            StageBudget::hard(Duration::from_millis(20)),
            None,
        );
        assert!(
            token.sleep_cancellable(Duration::from_secs(10)),
            "watchdog never fired"
        );
        let reason = token.reason().unwrap_or_default();
        assert!(reason.contains("hard deadline"), "{reason}");
        assert!(reason.contains("classify"), "{reason}");
        assert!(reason.contains("s0"), "{reason}");
        registry.deregister(&attempt);
        watchdog.stop();
    }

    #[test]
    fn watchdog_enforces_the_soft_stage_deadline() {
        let registry = AttemptRegistry::default();
        let token = CancelToken::new();
        let attempt = Arc::new(InFlightAttempt::new("s1", "c", token.clone()));
        attempt.enter_stage(ChainStage::Georef);
        registry.register(Arc::clone(&attempt));
        let watchdog = Watchdog::spawn(
            registry.clone(),
            StageBudget::new(Duration::from_millis(20), Duration::MAX),
            None,
        );
        assert!(token.sleep_cancellable(Duration::from_secs(10)));
        let reason = token.reason().unwrap_or_default();
        assert!(reason.contains("soft deadline"), "{reason}");
        assert!(reason.contains("georef"), "{reason}");
        watchdog.stop();
    }

    #[test]
    fn watchdog_leaves_healthy_attempts_alone() {
        let registry = AttemptRegistry::default();
        let token = CancelToken::new();
        let attempt = Arc::new(InFlightAttempt::new("s2", "c", token.clone()));
        registry.register(Arc::clone(&attempt));
        let watchdog = Watchdog::spawn(
            registry.clone(),
            StageBudget::hard(Duration::from_secs(3600)),
            None,
        );
        thread::sleep(Duration::from_millis(25));
        assert!(!token.is_cancelled());
        registry.deregister(&attempt);
        watchdog.stop();
    }

    #[test]
    fn a_deregistered_attempt_is_never_cancelled() {
        let registry = AttemptRegistry::default();
        let token = CancelToken::new();
        let attempt = Arc::new(InFlightAttempt::new("s4", "c", token.clone()));
        registry.register(Arc::clone(&attempt));
        registry.deregister(&attempt);
        assert!(registry.snapshot().is_empty(), "the registry must drain");
        // Overdue from the first poll on, but no longer in flight.
        let watchdog = Watchdog::spawn(registry.clone(), StageBudget::hard(Duration::ZERO), None);
        thread::sleep(Duration::from_millis(25));
        watchdog.stop();
        assert!(!token.is_cancelled(), "{:?}", token.reason());
    }

    #[test]
    fn batch_deadline_cancels_everything_in_flight() {
        let registry = AttemptRegistry::default();
        let scene_token = CancelToken::new();
        let attempt = Arc::new(InFlightAttempt::new("s3", "c", scene_token.clone()));
        registry.register(Arc::clone(&attempt));
        let batch_token = CancelToken::new();
        let watchdog = Watchdog::spawn(
            registry.clone(),
            StageBudget::unlimited(),
            Some(BatchDeadline {
                started: Instant::now(),
                deadline: Duration::from_millis(20),
                token: batch_token.clone(),
            }),
        );
        assert!(batch_token.sleep_cancellable(Duration::from_secs(10)));
        assert!(scene_token.sleep_cancellable(Duration::from_secs(10)));
        let reason = scene_token.reason().unwrap_or_default();
        assert!(reason.contains("batch deadline"), "{reason}");
        watchdog.stop();
    }

    #[test]
    fn breaker_opens_at_threshold_and_zero_disables() {
        let breaker = CircuitBreaker::new(2);
        assert!(!breaker.is_open("v"));
        assert_eq!(breaker.record_timeout("v"), 1);
        assert!(!breaker.is_open("v"));
        assert_eq!(breaker.record_timeout("v"), 2);
        assert!(breaker.is_open("v"));
        assert!(!breaker.is_open("other"));
        assert_eq!(breaker.open_variants(), vec!["v".to_string()]);
        // Clones share state.
        assert!(breaker.clone().is_open("v"));

        let disabled = CircuitBreaker::new(0);
        disabled.record_timeout("v");
        disabled.record_timeout("v");
        assert!(!disabled.is_open("v"));
        assert!(disabled.open_variants().is_empty());
    }
}
