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
//!   one scene, never the batch), **bounded retry** for transient
//!   faults, and **degraded-mode fallbacks** (contextual classifier →
//!   plain threshold; georeferenced target grid → native grid) so a
//!   partially broken chain still produces a usable, honestly-labeled
//!   product. The result is a [`supervisor::BatchReport`] with a
//!   per-scene outcome — `Ok`, `Retried(n)`, `Degraded{from,to}`,
//!   `Failed{reason}` or `Timeout{stage,reason}` — instead of an
//!   all-or-nothing `Result`. It has three settings: the retry count,
//!   the worker count and an optional per-attempt deadline.
//! * **Deadline-aware supervision** needs no thread of its own: each
//!   attempt runs under a [`teleios_exec::CancelToken`] that carries
//!   its deadline ([`teleios_exec::CancelToken::with_deadline`]) and
//!   fires itself the first time the chain polls it after that
//!   instant — at a stage boundary, or inside an injected hang.
//!   Nothing is ever killed. Overdue scenes
//!   end `Timeout` with the stage recorded, and a per-batch circuit
//!   breaker skips a chain variant after
//!   `supervisor::BREAKER_THRESHOLD` timeouts, jumping straight to
//!   the next degraded rung.
//! * [`fault::FaultPlan`] is a **seeded, deterministic fault-injection
//!   harness**: it corrupts vault payloads, truncates file headers, and
//!   injects classifier errors, georeferencing errors, worker panics,
//!   transient-then-succeed faults and cancel-aware stage hangs through
//!   the chain's [`teleios_noa::StageHook`], so the supervisor's
//!   guarantees are testable offline, scene by scene, with reproducible
//!   runs.
//!
//! The vault side of the story (payload checksums, quarantine lists,
//! [`teleios_vault::DataVault::retry_quarantined`]) lives in
//! `teleios-vault`; experiment E12's tests (`tests/fault_tolerance.rs`)
//! check the retry/degraded stack end to end under seeded fault rates,
//! and E14's (`tests/deadline_supervision.rs`) check deadlines against
//! seeded hangs.

pub mod fault;
pub mod supervisor;

pub use fault::{Fault, FaultPlan, SEEDED_KINDS};
pub use supervisor::{BatchReport, SceneOutcome, SceneReport, Supervisor};
