#![forbid(unsafe_code)]
//! # teleios-resilience — fault-tolerant chain execution
//!
//! A real Virtual Earth Observatory ingests hundreds of scenes per day
//! from an archive where bit rot, truncated writes, and flaky workers
//! are routine; the paper's demo (§4) quietly assumes every MSG/SEVIRI
//! acquisition decodes and classifies cleanly. This crate drops that
//! assumption:
//!
//! * [`supervisor::Supervisor`] wraps [`teleios_noa::ProcessingChain`]
//!   execution with **per-scene isolation** (a panicking worker fails
//!   one scene, never the batch), **bounded retry with exponential
//!   backoff** for transient faults, and **degraded-mode fallbacks**
//!   (contextual classifier → plain threshold; georeferenced target
//!   grid → native grid) so a partially broken chain still produces a
//!   usable, honestly-labeled product. The result is a
//!   [`supervisor::BatchReport`] with a per-scene outcome — `Ok`,
//!   `Retried(n)`, `Degraded{from,to}` or `Failed{reason}` — instead of
//!   an all-or-nothing `Result`.
//! * [`fault::FaultPlan`] is a **seeded, deterministic fault-injection
//!   harness**: it corrupts vault payloads, truncates file headers, and
//!   injects classifier errors, georeferencing errors, worker panics,
//!   transient-then-succeed faults and cancel-aware stage hangs through
//!   the chain's [`teleios_noa::StageHook`], so the supervisor's
//!   guarantees are testable offline, scene by scene, with reproducible
//!   runs.
//! * [`deadline::StageBudget`] adds **deadline-aware supervision**: a
//!   soft per-stage deadline plus a hard per-attempt deadline, enforced
//!   by a watchdog thread through cooperative [`CancelToken`]
//!   cancellation (nothing is ever killed — the chain drains at its
//!   next stage boundary). Overdue scenes end `Timeout` with the
//!   overshot stage recorded; a [`deadline::CircuitBreaker`] skips a
//!   chain variant batch-wide after repeated timeouts, jumping straight
//!   to the next degraded rung.
//!
//! The vault side of the story (payload checksums, quarantine lists,
//! [`teleios_vault::DataVault::retry_quarantined`]) lives in
//! `teleios-vault`; experiment E12 (`exp_fault_tolerance`) measures the
//! retry/degraded stack end to end and E14 (`exp_timeout_budgets`)
//! sweeps deadline budgets against hang rates.

pub mod deadline;
pub mod fault;
pub mod supervisor;

pub use deadline::{CircuitBreaker, StageBudget};
pub use fault::{Fault, FaultPlan, DURABILITY_KINDS, SEEDED_KINDS};
pub use supervisor::{BatchReport, RetryPolicy, SceneOutcome, SceneReport, Supervisor};
pub use teleios_exec::{CancelToken, PoolStats};
