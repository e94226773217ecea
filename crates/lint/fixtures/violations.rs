//! Seeded violations for the teleios-lint self-test. Each rule must
//! fire exactly where `FIXTURE_EXPECTED` says — line *and* column —
//! and nowhere else: the decoys below prove the masking, test-region
//! and alias logic.

pub enum FixtureError {
    Broken,
}

pub fn l5_relaxed(flag: &std::sync::atomic::AtomicBool) -> bool {
    flag.load(std::sync::atomic::Ordering::Relaxed)
}

// ---- decoys: nothing below may produce a finding ----

pub enum CoveredError {
    Known,
}

impl std::fmt::Display for CoveredError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "known failure")
    }
}

impl std::error::Error for CoveredError {}

pub fn decoy_masked_text() {
    let _in_string = "Ordering::Relaxed; pool.try_run(|| rx.recv())";
    let _quote_char = '"';
    let _raw = r#"pub enum RawError { A }"#;
    // Ordering::Relaxed and rx.recv() in a line comment
    /* pub enum BlockError { A } /* nested: Ordering::Relaxed */ */
}

pub fn decoy_lifetime<'a>(x: &'a str) -> &'a str {
    x
}

#[cfg(test)]
mod tests {
    pub enum TestOnlyError {
        Fine,
    }

    #[test]
    fn decoy_test_code() {
        let pool = super::FixturePool;
        pool.try_run(|| {
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
    }
}

// ---- an aliased `std::thread`: L11 below must see through it ----

use std::thread as fixture_thread;

// ---- L6: two functions acquire the same locks in opposite order ----

pub struct FixtureLocks {
    alpha: std::sync::Mutex<u8>,
    beta: std::sync::Mutex<u8>,
}

impl FixtureLocks {
    pub fn l6_alpha_then_beta(&self) {
        let ga = self.alpha.lock();
        let gb = self.beta.lock();
        drop(gb);
        drop(ga);
    }

    pub fn l6_beta_then_alpha(&self) {
        let gb = self.beta.lock();
        let ga = self.alpha.lock();
        drop(ga);
        drop(gb);
    }
}

// ---- L7: a pool-dispatched closure blocks without a doorway ----

pub fn l7_blocking_dispatch(pool: &FixturePool) {
    pool.try_run(|| {
        std::thread::sleep(std::time::Duration::from_millis(1));
    });
}

pub fn fixture_fallible() -> Result<u8, FixtureError> {
    Err(FixtureError::Broken)
}

// ---- more decoys: still nothing below may fire ----

pub fn decoy_consistent_locks(locks: &FixtureLocks) {
    let ga = locks.alpha.lock();
    let gb = locks.beta.lock();
    drop(gb);
    drop(ga);
}

pub fn decoy_cancellable_dispatch(pool: &FixturePool, token: &FixtureToken) {
    pool.try_run(|| {
        token.sleep_cancellable(std::time::Duration::from_millis(1));
    });
}

// ---- L7 through `pool.run`, a second L5; plus dispatch decoys ----

pub fn l7_blocking_pool_run(pool: &FixturePool) {
    pool.run(|| {
        std::thread::sleep(std::time::Duration::from_millis(1));
    });
}

pub fn l5_claim_counter_relaxed(top: &std::sync::atomic::AtomicUsize) -> usize {
    top.load(std::sync::atomic::Ordering::Relaxed)
}

// ---- decoys: dispatch-shaped calls that must stay silent ----

pub fn decoy_cancellable_multiline(pool: &FixturePool, token: &FixtureToken) {
    pool.try_run_cancellable(
        || {
            token.sleep_cancellable(std::time::Duration::from_millis(1));
        },
        token,
    );
}

pub fn decoy_non_pool_run(chain: &FixtureChain) {
    chain.run(|| {
        std::thread::sleep(std::time::Duration::from_millis(1));
    });
}

// ---- L10: a transaction opened but not closed on every path ----

pub struct FixtureBackend;

impl FixtureBackend {
    pub fn begin(&self) {}
    pub fn commit(&self) {}
    pub fn rollback(&self) {}
}

pub fn l10_txn_leak_plain(store: &FixtureBackend) {
    store.begin();
    let _work = 1;
}

pub fn l10_txn_leak_question(store: &FixtureBackend) -> Result<(), FixtureError> {
    store.begin();
    fixture_fallible()?;
    store.commit();
    Ok(())
}

// ---- L10 decoys: every path commits or rolls back ----

pub fn decoy_txn_commit(store: &FixtureBackend) {
    store.begin();
    store.commit();
}

pub fn decoy_txn_branch_rollback(store: &FixtureBackend, ok: bool) {
    store.begin();
    if ok {
        store.commit();
    } else {
        store.rollback();
    }
}

pub fn decoy_txn_begin_question(store: &FixtureBackend) -> Result<(), FixtureError> {
    store.begin()?;
    store.commit();
    Ok(())
}

pub fn decoy_txn_question_handled(store: &FixtureBackend) -> Result<(), FixtureError> {
    store.begin();
    if fixture_fallible().is_err() {
        store.rollback();
        return Ok(());
    }
    store.commit();
    Ok(())
}

// ---- L11: an exclusive guard held across a blocking call ----

pub struct FixtureShared {
    state: std::sync::Mutex<u8>,
    table: std::sync::RwLock<u8>,
}

pub fn l11_guard_across_dispatch(shared: &FixtureShared, pool: &FixturePool) {
    let held = shared.state.lock();
    pool.try_run(|| {});
    drop(held);
}

pub fn l11_guard_across_aliased_sleep(shared: &FixtureShared) {
    let held = shared.state.lock();
    fixture_thread::sleep(std::time::Duration::from_millis(1));
    drop(held);
}

// ---- L11 decoys: dropped, scoped, or shared guards stay silent ----

pub fn decoy_guard_dropped_before_block(shared: &FixtureShared, pool: &FixturePool) {
    let held = shared.state.lock();
    drop(held);
    pool.try_run(|| {});
}

pub fn decoy_guard_scoped(shared: &FixtureShared, pool: &FixturePool) {
    {
        let _held = shared.state.lock();
    }
    pool.try_run(|| {});
}

pub fn decoy_read_guard_across(shared: &FixtureShared, pool: &FixturePool) {
    let snap = shared.table.read();
    pool.try_run(|| {});
    drop(snap);
}

// ---- L12: a pool-dispatched path spins without polling ----

pub fn l12_dispatch_then_spin(pool: &FixturePool, token: &FixtureToken) {
    pool.try_run_cancellable(|| {}, token);
    let mut n = 0;
    while n < 1000 {
        n += 1;
    }
}

fn spin_wait(flag: &std::sync::atomic::AtomicBool) {
    while !flag.load(std::sync::atomic::Ordering::SeqCst) {
        std::hint::spin_loop();
    }
}

pub fn l12_dispatch_into_callee(pool: &FixturePool, flag: &std::sync::atomic::AtomicBool) {
    pool.try_run_cancellable(|_c| {});
    spin_wait(flag);
}

// ---- L12 decoys: polling loops, `for` loops, undispatched spins ----

pub fn decoy_loop_polls(pool: &FixturePool, token: &FixtureToken) {
    pool.try_run_cancellable(|_c| {});
    while !token.is_cancelled() {
        std::hint::spin_loop();
    }
}

pub fn decoy_for_loop(pool: &FixturePool) {
    pool.try_run_cancellable(|_c| {});
    for _ in 0..3 {
        std::hint::spin_loop();
    }
}

pub fn decoy_undispatched_spin(flag: &std::sync::atomic::AtomicBool) {
    while !flag.load(std::sync::atomic::Ordering::SeqCst) {
        std::hint::spin_loop();
    }
}
