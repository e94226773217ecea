#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! # teleios-e0 — the observatory benchmark
//!
//! One committed, machine-readable measurement of the paper's path —
//! Data Vault → SciQL/MonetDB chain → shapefile → stRDF → stSPARQL
//! refinement → the flagship query → durable commit — end to end and
//! layer by layer. Four workloads ([`workload::NAMES`]) stress
//! different layers; each optimisation has one workload that exercises
//! it and one that bypasses it.
//!
//! * [`runner`] drives a workload: set-up (timed as `setup_s`), the
//!   timed window on the real `Observatory` with tracing off, and with
//!   `--trace 1` a second window on the traced [`engine::Mirror`].
//! * [`metrics`] declares every metric and computes it from a run.
//! * [`trace`] records spans from the harness's own call sites; no
//!   span or counter lives inside a product crate.
//!
//! `README.md` next to this crate has the glossary, the predictions
//! and the calibration record.

pub mod archive;
pub mod archive_query;
pub mod chain_ingest;
pub mod crash_recover;
pub mod digest;
pub mod durable;
pub mod engine;
pub mod frozen;
pub mod json;
pub mod metrics;
pub mod observatory_mixed;
pub mod rng;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workload;
