//! Seeded violations for the teleios-lint self-test. Each rule L1–L9
//! must fire exactly where `FIXTURE_EXPECTED` says — line *and*
//! column — and nowhere else: the decoys below prove the masking,
//! whole-token matching, test-region, alias, and allow-marker logic.

pub enum FixtureError {
    Broken,
}

pub fn l1_thread_spawn() {
    std::thread::spawn(|| {});
}

pub fn l2_unwrap(v: Option<u8>) -> u8 {
    v.unwrap()
}

pub fn l2_panic() {
    panic!("boom");
}

pub fn l3_println() {
    println!("tables go through teleios-bench::report");
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
    let _in_string = "thread::spawn(); x.unwrap(); println!(); Ordering::Relaxed";
    let _quote_char = '"';
    let _raw = r#"panic!("raw string")"#;
    // thread::spawn and x.unwrap() in a line comment
    /* println!("block comment") /* nested: panic!() */ */
}

pub fn decoy_whole_tokens(v: Option<u8>) -> u8 {
    v.unwrap_or_else(|| 0)
}

pub fn decoy_allow_marker() {
    // teleios-lint: allow(no-panic) — fixture proves suppression works
    panic!("suppressed by the marker above");
}

pub fn decoy_lifetime<'a>(x: &'a str) -> &'a str {
    x
}

#[cfg(test)]
mod tests {
    #[test]
    fn decoy_test_code() {
        let v: Option<u8> = Some(1);
        assert_eq!(v.unwrap(), 1);
        println!("fine inside #[cfg(test)]");
    }
}

// ---- L1 through a renamed import: the old line-pattern core ----
// ---- could not see that `fixture_thread` is `std::thread`    ----

use std::thread as fixture_thread;

pub fn l1_aliased_spawn() {
    fixture_thread::spawn(|| {});
}

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

// ---- L8: Result<_, FixtureError> silently discarded ----

pub fn fixture_fallible() -> Result<u8, FixtureError> {
    Err(FixtureError::Broken)
}

pub fn l8_swallowed() {
    let _ = fixture_fallible();
}

pub fn l8_ok_discard(store: &FixtureStore) {
    store.refresh().ok();
}

impl FixtureStore {
    fn refresh(&self) -> Result<(), FixtureError> {
        Err(FixtureError::Broken)
    }
}

// ---- unused-allow: a stale waiver that suppresses nothing ----

pub fn unused_allow_marker() {
    // teleios-lint: allow(no-println) — stale: nothing below prints
    let _count = 3;
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

pub fn decoy_bound_ok() -> Option<u8> {
    fixture_fallible().ok()
}

pub fn decoy_question_mark() -> Result<u8, FixtureError> {
    let _ = fixture_fallible()?;
    Ok(0)
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

// ---- L9: direct filesystem mutation outside crates/store ----

pub fn l9_fs_write(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, b"bytes")
}

pub fn l9_file_create(path: &std::path::Path) -> std::io::Result<std::fs::File> {
    std::fs::File::create(path)
}

pub fn l9_open_options(path: &std::path::Path) -> std::io::Result<std::fs::File> {
    std::fs::OpenOptions::new().append(true).open(path)
}

// ---- L8 on durability barriers: discarded flush/fsync results ----

pub fn l8_swallowed_sync(file: &std::fs::File) {
    let _ = file.sync_all();
}

pub fn l8_flush_discard(sink: &mut FixtureSink) {
    sink.flush().ok();
}

// ---- decoys: reads stay free; the storage doorway's own writes ----
// ---- are policy-exempt; a justified export carries its marker  ----

pub fn decoy_fs_read(path: &std::path::Path) -> std::io::Result<Vec<u8>> {
    std::fs::read(path)
}

pub fn decoy_marked_export(path: &std::path::Path) -> std::io::Result<()> {
    // teleios-lint: allow(no-direct-fs) — legacy portal JSON export
    std::fs::write(path, b"{}")
}

pub fn decoy_handled_sync(file: &std::fs::File) -> std::io::Result<()> {
    file.sync_all()
}

pub fn decoy_bound_flush(sink: &mut FixtureSink) -> Option<()> {
    sink.flush().ok()
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
