//! Deterministic fault injection.
//!
//! A [`FaultPlan`] maps scene ids to [`Fault`] kinds. Data faults
//! ([`Fault::CorruptPayload`], [`Fault::TruncateHeader`]) are applied
//! directly to the repository bytes with
//! [`FaultPlan::apply_to_repository`] — the vault's payload checksums
//! and header validation detect them at decode time. Behavioral faults
//! are threaded through the chain's [`StageHook`] via
//! [`FaultPlan::chain_hook`]:
//!
//! * [`Fault::ClassifierError`] fails the classify stage — but only
//!   when the chain's classifier is *not* the plain threshold, so the
//!   supervisor's threshold fallback succeeds (a `Degraded` outcome);
//! * [`Fault::GeorefError`] fails the georeference stage while a
//!   target grid is configured, exercising the native-grid fallback;
//! * [`Fault::WorkerPanic`] panics inside the worker on every attempt
//!   (an unrecoverable `Failed` scene that must not take the batch
//!   down with it);
//! * [`Fault::Transient`] fails the first `failures` attempts, then
//!   succeeds — the retry case;
//! * [`Fault::Hang`] wedges a stage for a fixed duration, polling the
//!   chain's cancellation token so the attempt's deadline can cut it
//!   short — the timeout-budget case, deterministic without
//!   wall-clock flakiness.
//!
//! Storage write-layer faults are not chain faults: tests arm a
//! `teleios_store::WriteFault` on the store's simulated disk directly.
//!
//! Plans built with [`FaultPlan::seeded`] are reproducible: the same
//! seed, id list, and rate always select the same scenes and kinds
//! ([`FaultPlan::seeded_with`] swaps the kind palette while keeping
//! the same scene selection).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;
use teleios_exec::OrderedMutex;
use teleios_geo::SplitMix64;
use teleios_monet::DbError;
use teleios_noa::chain::{ChainStage, ProcessingChain, StageHook};
use teleios_noa::HotspotClassifier;
use teleios_vault::repository::Repository;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Flip a bit in the scene file's payload region. Detected by the
    /// vault's payload checksum; the file is quarantined.
    CorruptPayload,
    /// Truncate the scene file mid-header (a torn archive write).
    /// Header parsing fails; the file is quarantined.
    TruncateHeader,
    /// The classification stage errors — unless the chain has already
    /// fallen back to the plain threshold classifier.
    ClassifierError,
    /// The georeferencing stage errors while a target grid is
    /// configured; the native-grid fallback clears it.
    GeorefError,
    /// The worker thread panics at the classify stage, every attempt.
    WorkerPanic,
    /// The ingestion stage fails the first `failures` attempts for the
    /// scene, then succeeds.
    Transient {
        /// Number of leading attempts that fail.
        failures: u32,
    },
    /// The named stage wedges for `duration` before proceeding — on
    /// every attempt. The sleep polls the chain's [`CancelToken`]
    /// (when one is installed), so the token's deadline cuts the hang
    /// short deterministically: `duration` can be minutes without the
    /// test ever waiting minutes. With no token the hang sleeps in
    /// full, modelling an unsupervised wedge.
    ///
    /// [`CancelToken`]: teleios_exec::CancelToken
    Hang {
        /// The stage that hangs.
        stage: ChainStage,
        /// How long it hangs (uncancelled).
        duration: Duration,
    },
}

impl Fault {
    /// Whether this fault corrupts repository bytes (as opposed to
    /// injecting behavior through the chain hook).
    fn is_data_fault(&self) -> bool {
        matches!(self, Fault::CorruptPayload | Fault::TruncateHeader)
    }
}

/// The kinds cycled through by [`FaultPlan::seeded`], in order.
pub const SEEDED_KINDS: [Fault; 6] = [
    Fault::Transient { failures: 1 },
    Fault::ClassifierError,
    Fault::GeorefError,
    Fault::WorkerPanic,
    Fault::CorruptPayload,
    Fault::TruncateHeader,
];

/// A deterministic scene-id → fault assignment.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: BTreeMap<String, Fault>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Build a plan by sampling each id with probability `rate` under a
    /// seeded RNG. Selected ids are assigned kinds round-robin from
    /// [`SEEDED_KINDS`], guaranteeing a mixed fault population at any
    /// non-trivial rate. Deterministic in (seed, ids, rate).
    pub fn seeded(seed: u64, ids: &[String], rate: f64) -> FaultPlan {
        FaultPlan::seeded_with(seed, ids, rate, &SEEDED_KINDS)
    }

    /// [`Self::seeded`] generalized over the kind palette: selected
    /// ids cycle round-robin through `kinds` instead of
    /// [`SEEDED_KINDS`]. The id *selection* depends only on (seed,
    /// ids, rate), so two palettes over the same seed fault the same
    /// scenes — tests use this to compare fault kinds on identical
    /// populations (E14's tests plant hang faults this way). An empty
    /// palette yields an empty plan.
    pub fn seeded_with(seed: u64, ids: &[String], rate: f64, kinds: &[Fault]) -> FaultPlan {
        let mut rng = SplitMix64::new(seed);
        let rate = rate.clamp(0.0, 1.0);
        let mut plan = FaultPlan::new();
        let mut next = 0usize;
        for id in ids {
            if rng.chance(rate) && !kinds.is_empty() {
                plan.faults.insert(id.clone(), kinds[next % kinds.len()]);
                next += 1;
            }
        }
        plan
    }

    /// Assign a fault to one scene id.
    pub fn inject(&mut self, id: impl Into<String>, fault: Fault) -> &mut FaultPlan {
        self.faults.insert(id.into(), fault);
        self
    }

    /// The fault planned for a scene, if any.
    pub fn fault_for(&self, id: &str) -> Option<Fault> {
        self.faults.get(id).copied()
    }

    /// Iterate over (id, fault) pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Fault)> {
        self.faults.iter().map(|(id, f)| (id.as_str(), *f))
    }

    /// Number of faulted scenes.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when no faults are planned.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Ids whose faults corrupt repository bytes.
    pub fn data_fault_ids(&self) -> Vec<String> {
        self.faults
            .iter()
            .filter(|(_, f)| f.is_data_fault())
            .map(|(id, _)| id.clone())
            .collect()
    }

    /// Apply the plan's data faults to a repository in place. An id
    /// that already names a file (contains an extension) is mutated
    /// directly; otherwise every vault product derived from the id is
    /// a target — the raw acquisition `{id}.sev1` plus the derived
    /// `{id}.gtf1` raster and `{id}.shp1` feature products, whichever
    /// exist. Returns the number of files actually mutated (ids with
    /// no matching file are skipped).
    pub fn apply_to_repository(&self, repository: &mut Repository) -> usize {
        let mut applied = 0;
        for (id, fault) in &self.faults {
            if !fault.is_data_fault() {
                continue;
            }
            let names: Vec<String> = if id.contains('.') && repository.get(id).is_some() {
                vec![id.clone()]
            } else {
                ["sev1", "gtf1", "shp1"]
                    .iter()
                    .map(|ext| format!("{id}.{ext}"))
                    .filter(|name| repository.get(name).is_some())
                    .collect()
            };
            for name in names {
                let Some(mut raw) = repository.remove(&name) else {
                    continue;
                };
                // `is_data_fault` admits exactly these two kinds.
                if *fault == Fault::CorruptPayload {
                    if let Some(last) = raw.last_mut() {
                        *last ^= 0x01;
                    }
                } else {
                    // Keep the magic plus half the checksum: enough
                    // to identify the format, not enough to parse.
                    raw.truncate(9);
                }
                repository.put(name, raw);
                applied += 1;
            }
        }
        applied
    }

    /// A [`StageHook`] that injects the plan's behavioral faults. The
    /// hook carries its own attempt counters (shared across clones of
    /// the chain it is installed on), so [`Fault::Transient`] faults
    /// count attempts across supervisor retries.
    pub fn chain_hook(&self) -> StageHook {
        let faults = self.faults.clone();
        let attempts: Arc<OrderedMutex<HashMap<String, u32>>> =
            Arc::new(OrderedMutex::new("fault.attempts", HashMap::new()));
        Arc::new(move |id: &str, stage: ChainStage, chain: &ProcessingChain| {
            let Some(fault) = faults.get(id) else {
                return Ok(());
            };
            match fault {
                Fault::ClassifierError => {
                    if stage == ChainStage::Classify
                        && !matches!(chain.classifier, HotspotClassifier::Threshold { .. })
                    {
                        return Err(DbError::Execution(format!(
                            "injected classifier fault on {id}"
                        )));
                    }
                }
                Fault::GeorefError => {
                    if stage == ChainStage::Georef && chain.target_grid.is_some() {
                        return Err(DbError::Execution(format!("injected georef fault on {id}")));
                    }
                }
                #[expect(clippy::panic, reason = "this IS the injected fault")]
                Fault::WorkerPanic => {
                    if stage == ChainStage::Classify {
                        panic!("injected worker panic on {id}");
                    }
                }
                Fault::Transient { failures } => {
                    if stage == ChainStage::Ingest {
                        let mut seen = attempts.lock();
                        let n = seen.entry(id.to_string()).or_insert(0);
                        *n += 1;
                        if *n <= *failures {
                            return Err(DbError::Execution(format!(
                                "injected transient fault on {id} (attempt {n})"
                            )));
                        }
                    }
                }
                Fault::Hang { stage: hang_stage, duration } => {
                    if stage == *hang_stage {
                        let cancelled = match &chain.cancel {
                            // Cancel-aware sleep: a fired deadline cuts
                            // the hang short at ~1 ms granularity.
                            Some(token) => token.sleep_cancellable(*duration),
                            // Unsupervised chain: the wedge runs in full.
                            None => {
                                std::thread::sleep(*duration);
                                false
                            }
                        };
                        if cancelled {
                            return Err(DbError::Execution(format!(
                                "injected hang on {id} at {stage} cancelled by deadline"
                            )));
                        }
                    }
                }
                // data faults mutate repository bytes, not the chain
                Fault::CorruptPayload | Fault::TruncateHeader => {}
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teleios_vault::format::{encode_sev1, Sev1Header};
    use teleios_vault::vault::{DataVault, IngestionPolicy};
    use teleios_vault::VaultError;

    fn ids(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("scene-{i:03}")).collect()
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let ids = ids(100);
        let a = FaultPlan::seeded(42, &ids, 0.2);
        let b = FaultPlan::seeded(42, &ids, 0.2);
        assert!(!a.is_empty());
        assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
        // A different seed picks a different set.
        let c = FaultPlan::seeded(43, &ids, 0.2);
        assert_ne!(a.iter().collect::<Vec<_>>(), c.iter().collect::<Vec<_>>());
    }

    #[test]
    fn seeded_rate_bounds() {
        let ids = ids(50);
        assert!(FaultPlan::seeded(7, &ids, 0.0).is_empty());
        assert_eq!(FaultPlan::seeded(7, &ids, 1.0).len(), 50);
        // ~20% of 50 scenes, with generous slack for the RNG.
        let n = FaultPlan::seeded(7, &ids, 0.2).len();
        assert!((2..=25).contains(&n), "implausible fault count {n}");
    }

    #[test]
    fn seeded_kinds_are_mixed() {
        let plan = FaultPlan::seeded(11, &ids(60), 0.3);
        let kinds: std::collections::HashSet<_> =
            plan.iter().map(|(_, f)| std::mem::discriminant(&f)).collect();
        assert!(kinds.len() >= 3, "expected a kind mix, got {} kinds", kinds.len());
    }

    #[test]
    fn inject_and_lookup() {
        let mut plan = FaultPlan::new();
        plan.inject("a", Fault::WorkerPanic).inject("b", Fault::Transient { failures: 2 });
        assert_eq!(plan.fault_for("a"), Some(Fault::WorkerPanic));
        assert_eq!(plan.fault_for("b"), Some(Fault::Transient { failures: 2 }));
        assert_eq!(plan.fault_for("c"), None);
        assert_eq!(plan.len(), 2);
    }

    fn scene_file(fill: f64) -> Vec<u8> {
        let h = Sev1Header {
            rows: 4,
            cols: 4,
            bands: 1,
            acquisition: "2007-08-25T12:00:00Z".into(),
            bbox: (20.0, 35.0, 21.0, 36.0),
        };
        encode_sev1(&h, &[fill; 16]).unwrap()
    }

    #[test]
    fn data_faults_are_caught_by_the_vault() {
        let mut repo = Repository::new();
        repo.put("s0.sev1", scene_file(1.0));
        repo.put("s1.sev1", scene_file(2.0));
        repo.put("s2.sev1", scene_file(3.0));
        let mut plan = FaultPlan::new();
        plan.inject("s0", Fault::CorruptPayload).inject("s1", Fault::TruncateHeader);
        assert_eq!(plan.apply_to_repository(&mut repo), 2);

        let mut v = DataVault::new(repo, teleios_monet::Catalog::new(), IngestionPolicy::Lazy, 0);
        // s1's header is gone, so only s0 and s2 register.
        assert_eq!(v.register_all().unwrap(), 2);
        assert!(v.is_quarantined("s1.sev1"));
        // s0's payload corruption surfaces on first access.
        assert!(matches!(v.array_for("s0.sev1"), Err(VaultError::Corrupt(_))));
        assert!(v.is_quarantined("s0.sev1"));
        // The healthy scene is untouched.
        assert!(v.array_for("s2.sev1").is_ok());
    }

    #[test]
    fn apply_skips_missing_files() {
        let mut repo = Repository::new();
        let mut plan = FaultPlan::new();
        plan.inject("ghost", Fault::CorruptPayload);
        assert_eq!(plan.apply_to_repository(&mut repo), 0);
    }

    fn gtf1_file(fill: f64) -> Vec<u8> {
        let h = teleios_vault::format::Gtf1Header {
            rows: 4,
            cols: 4,
            transform: (20.0, 0.25, 35.0, 0.25),
            epsg: 4326,
        };
        teleios_vault::format::encode_gtf1(&h, &[fill; 16]).unwrap()
    }

    fn shp1_file() -> Vec<u8> {
        teleios_vault::format::encode_shp1(&[teleios_vault::format::Shp1Record {
            wkt: "POINT (21.6 37.4)".into(),
            label: "hotspot".into(),
        }])
    }

    #[test]
    fn data_faults_reach_derived_products() {
        let mut repo = Repository::new();
        repo.put("s0.sev1", scene_file(1.0));
        repo.put("s0.gtf1", gtf1_file(300.0));
        repo.put("s0.shp1", shp1_file());
        let clean_gtf1 = repo.get("s0.gtf1").unwrap().to_vec();
        let clean_shp1 = repo.get("s0.shp1").unwrap().to_vec();

        let mut plan = FaultPlan::new();
        plan.inject("s0", Fault::CorruptPayload);
        // All three products of the scene are mutated.
        assert_eq!(plan.apply_to_repository(&mut repo), 3);
        assert_ne!(repo.get("s0.gtf1").unwrap(), clean_gtf1);
        assert_ne!(repo.get("s0.shp1").unwrap(), clean_shp1);
        // The corruption is exactly what the format checksums catch.
        assert!(teleios_vault::format::decode_gtf1(repo.get("s0.gtf1").unwrap()).is_err());
        assert!(teleios_vault::format::decode_shp1(repo.get("s0.shp1").unwrap()).is_err());
    }

    #[test]
    fn dotted_id_targets_one_file() {
        let mut repo = Repository::new();
        repo.put("s0.sev1", scene_file(1.0));
        repo.put("s0.gtf1", gtf1_file(300.0));
        let clean_sev1 = repo.get("s0.sev1").unwrap().to_vec();

        let mut plan = FaultPlan::new();
        plan.inject("s0.gtf1", Fault::TruncateHeader);
        assert_eq!(plan.apply_to_repository(&mut repo), 1);
        // The sibling raw acquisition is untouched.
        assert_eq!(repo.get("s0.sev1").unwrap(), clean_sev1);
        assert_eq!(repo.get("s0.gtf1").unwrap().len(), 9);
    }

    #[test]
    fn hook_classifier_fault_spares_threshold_chains() {
        let mut plan = FaultPlan::new();
        plan.inject("s", Fault::ClassifierError);
        let hook = plan.chain_hook();
        let contextual = ProcessingChain {
            classifier: HotspotClassifier::Contextual { kelvin: 318.0, min_neighbors: 2 },
            ..ProcessingChain::operational()
        };
        let threshold = ProcessingChain::operational();
        assert!(hook("s", ChainStage::Classify, &contextual).is_err());
        assert!(hook("s", ChainStage::Classify, &threshold).is_ok());
        assert!(hook("s", ChainStage::Ingest, &contextual).is_ok());
        assert!(hook("other", ChainStage::Classify, &contextual).is_ok());
    }

    #[test]
    fn hook_transient_fault_clears_after_budget() {
        let mut plan = FaultPlan::new();
        plan.inject("s", Fault::Transient { failures: 2 });
        let hook = plan.chain_hook();
        let chain = ProcessingChain::operational();
        assert!(hook("s", ChainStage::Ingest, &chain).is_err());
        assert!(hook("s", ChainStage::Ingest, &chain).is_err());
        assert!(hook("s", ChainStage::Ingest, &chain).is_ok());
        // Other stages never count as attempts.
        assert!(hook("s", ChainStage::Crop, &chain).is_ok());
    }

    #[test]
    fn seeded_with_keeps_the_scene_selection() {
        let ids = ids(60);
        let default_plan = FaultPlan::seeded(19, &ids, 0.25);
        let hang = Fault::Hang {
            stage: ChainStage::Classify,
            duration: std::time::Duration::from_millis(50),
        };
        let hang_plan = FaultPlan::seeded_with(19, &ids, 0.25, &[hang]);
        // Same scenes selected, different kinds assigned.
        let default_ids: Vec<&str> = default_plan.iter().map(|(id, _)| id).collect();
        let hang_ids: Vec<&str> = hang_plan.iter().map(|(id, _)| id).collect();
        assert_eq!(default_ids, hang_ids);
        assert!(hang_plan.iter().all(|(_, f)| f == hang));
        // An empty palette selects nothing.
        assert!(FaultPlan::seeded_with(19, &ids, 0.25, &[]).is_empty());
    }

    #[test]
    fn hook_hang_without_token_sleeps_in_full() {
        let mut plan = FaultPlan::new();
        let pause = std::time::Duration::from_millis(20);
        plan.inject("s", Fault::Hang { stage: ChainStage::Crop, duration: pause });
        let hook = plan.chain_hook();
        let chain = ProcessingChain::operational();
        let t0 = std::time::Instant::now();
        assert!(hook("s", ChainStage::Crop, &chain).is_ok());
        assert!(t0.elapsed() >= pause, "hang should wait out its duration");
        // Other stages and other scenes are unaffected.
        let t0 = std::time::Instant::now();
        assert!(hook("s", ChainStage::Ingest, &chain).is_ok());
        assert!(hook("other", ChainStage::Crop, &chain).is_ok());
        assert!(t0.elapsed() < pause);
    }

    /// One scene's hang must not stall another scene's hook: the hook
    /// holds no lock while it sleeps. The hang ends only when the test
    /// fires its token, after the other call returned or timed out, so
    /// a stall fails the test instead of wedging it.
    #[test]
    fn a_hanging_scene_never_stalls_another_scenes_hook() {
        use std::time::Duration;
        let mut plan = FaultPlan::new();
        plan.inject("hung", Fault::Hang { stage: ChainStage::Crop, duration: Duration::from_secs(120) });
        plan.inject("flaky", Fault::Transient { failures: 1 });
        let hook = &plan.chain_hook();
        let token = teleios_exec::CancelToken::new();
        let hung_chain = ProcessingChain::operational().with_cancel_token(token.clone());
        std::thread::scope(|s| {
            let hung = s.spawn(|| hook("hung", ChainStage::Crop, &hung_chain));
            std::thread::sleep(Duration::from_millis(50));
            let (tx, rx) = std::sync::mpsc::channel();
            s.spawn(move || tx.send(hook("flaky", ChainStage::Ingest, &ProcessingChain::operational())));
            let flaky = rx.recv_timeout(Duration::from_secs(5));
            token.cancel("test over");
            assert!(matches!(flaky, Ok(Err(_))), "the transient fault's hook stalled behind the hang");
            assert!(hung.join().unwrap().is_err(), "the hang ends in a cancellation");
        });
    }

    #[test]
    fn hook_hang_with_cancelled_token_errors_promptly() {
        let mut plan = FaultPlan::new();
        // Minutes of hang — the cancelled token must cut it short.
        plan.inject(
            "s",
            Fault::Hang { stage: ChainStage::Classify, duration: std::time::Duration::from_secs(120) },
        );
        let hook = plan.chain_hook();
        let token = teleios_exec::CancelToken::new();
        token.cancel("deadline");
        let chain = ProcessingChain::operational().with_cancel_token(token);
        let t0 = std::time::Instant::now();
        let err = hook("s", ChainStage::Classify, &chain).unwrap_err().to_string();
        assert!(t0.elapsed() < std::time::Duration::from_secs(5));
        assert!(err.contains("hang"), "{err}");
        assert!(err.contains("cancelled"), "{err}");
    }

    #[test]
    fn hook_georef_fault_clears_on_native_grid() {
        let mut plan = FaultPlan::new();
        plan.inject("s", Fault::GeorefError);
        let hook = plan.chain_hook();
        let mut gridded = ProcessingChain::operational();
        gridded.target_grid = Some((
            teleios_ingest::raster::GeoTransform::fit(
                &teleios_geo::Envelope::new(
                    teleios_geo::Coord::new(20.0, 35.0),
                    teleios_geo::Coord::new(21.0, 36.0),
                ),
                8,
                8,
            ),
            8,
            8,
        ));
        assert!(hook("s", ChainStage::Georef, &gridded).is_err());
        let native = ProcessingChain::operational();
        assert!(hook("s", ChainStage::Georef, &native).is_ok());
    }
}
