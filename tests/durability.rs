//! End-to-end durability acceptance test (ISSUE: robustness).
//!
//! A seeded `FaultPlan` selects the scenes, and the selected scenes
//! take the storage engine's write-layer faults round-robin in id
//! order: for every planned scene, the fault is armed on the commit
//! that registers it, the medium power-cycles, and recovery must land
//! exactly on the last acknowledged state — no lost committed scenes,
//! no resurrected unacknowledged ones.

use std::collections::BTreeMap;

use teleios::resilience::FaultPlan;
use teleios::store::{
    full_state, transact, DurableBackend, DurableConfig, MemMedium, StorageBackend, WriteFault,
};

const SCENES: usize = 40;
const SEED: u64 = 77;
const RATE: f64 = 0.25;
const FAULTS: [WriteFault; 3] =
    [WriteFault::Torn { keep: 12 }, WriteFault::ShortFsync, WriteFault::Crash];

fn scene_ids(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("msg2-{i:04}.sev1")).collect()
}

/// The seeded scene selection, each selected scene paired with the next
/// write fault in [`FAULTS`], in id order.
fn planned_faults(ids: &[String]) -> BTreeMap<String, WriteFault> {
    let plan = FaultPlan::seeded(SEED, ids, RATE);
    plan.iter().zip(FAULTS.iter().cycle()).map(|((id, _), f)| (id.to_string(), *f)).collect()
}

fn register(backend: &mut dyn StorageBackend, id: &str) -> Result<u64, teleios::store::StoreError> {
    transact(backend, |b| {
        b.put("vault/catalog", id.as_bytes(), b"sev1 32x32")?;
        b.put("vault/quarantine", id.as_bytes(), &[])
    })
}

#[test]
fn seeded_durability_plan_recovers_exactly_at_every_planned_crash() {
    let ids = scene_ids(SCENES);
    let plan = planned_faults(&ids);
    assert!(!plan.is_empty(), "a 25% plan over 40 scenes must select something");

    let mut backend =
        DurableBackend::open(MemMedium::new(), DurableConfig::default()).expect("open");
    let mut crashes = 0usize;
    for id in &ids {
        match plan.get(id).copied() {
            None => {
                register(&mut backend, id).expect("clean commit");
            }
            Some(fault) => {
                // Arm the planned write-layer fault, observe the
                // rejected commit, power-cycle, and verify exact
                // recovery of the pre-crash committed state.
                let committed = full_state(&backend).expect("state");
                backend.medium_mut().arm(fault);
                assert!(
                    register(&mut backend, id).is_err(),
                    "a faulted barrier must reject the commit for {id}"
                );
                let mut medium = backend.into_medium();
                medium.crash();
                backend = DurableBackend::open(medium, DurableConfig::default())
                    .expect("recovery never fails");
                assert_eq!(
                    full_state(&backend).expect("state"),
                    committed,
                    "{} ({}) must recover the exact committed state",
                    id,
                    fault.label()
                );
                assert!(
                    backend.get("vault/catalog", id.as_bytes()).expect("get").is_none(),
                    "{id} was never acknowledged and must not be resurrected"
                );
                crashes += 1;
                // The scene re-registers cleanly after recovery.
                register(&mut backend, id).expect("post-recovery commit");
            }
        }
    }
    assert_eq!(crashes, plan.len(), "every planned fault fired");

    // After the full run every scene is durably present.
    let final_state = full_state(&backend).expect("state");
    let catalog = final_state.get("vault/catalog").expect("catalog keyspace");
    assert_eq!(catalog.len(), SCENES);

    // One last power cycle: the end state itself is crash-durable.
    let mut medium = backend.into_medium();
    medium.crash();
    let reopened =
        DurableBackend::open(medium, DurableConfig::default()).expect("reopen");
    assert_eq!(full_state(&reopened).expect("state"), final_state);
}

#[test]
fn seeded_durability_plan_is_reproducible() {
    let ids = scene_ids(SCENES);
    let a = planned_faults(&ids);
    assert_eq!(a, planned_faults(&ids), "same seed, ids, rate — same plan");
    // The default plan's scene selection, every write fault in turn.
    let default_plan = FaultPlan::seeded(SEED, &ids, RATE);
    let default_ids: Vec<&str> = default_plan.iter().map(|(id, _)| id).collect();
    let durable_ids: Vec<&str> = a.keys().map(String::as_str).collect();
    assert_eq!(default_ids, durable_ids);
    let kinds: Vec<WriteFault> = a.values().take(FAULTS.len()).copied().collect();
    assert_eq!(kinds, FAULTS);
}

#[test]
fn torn_write_shorter_than_the_frame_never_acknowledges() {
    // Independent of the plan: a torn write that keeps only part of
    // the commit frame must behave like a crash for every keep value
    // the palette could produce.
    let mut backend =
        DurableBackend::open(MemMedium::new(), DurableConfig::default()).expect("open");
    register(&mut backend, "base").expect("commit");
    let committed = full_state(&backend).expect("state");
    backend.medium_mut().arm(WriteFault::Torn { keep: 12 });
    assert!(register(&mut backend, "torn").is_err());
    let mut medium = backend.into_medium();
    medium.crash();
    let recovered = DurableBackend::open(medium, DurableConfig::default()).expect("recover");
    assert_eq!(full_state(&recovered).expect("state"), committed);
}
