//! The workspace's single sanctioned doorway to OS threads.
//!
//! The root `clippy.toml` disallows `std::thread::{spawn, Builder}`
//! in library code, so long-lived service threads (the resilience deadline
//! watchdog, future background compactors) are created here: named,
//! accounted for, and greppable in one place. Data parallelism should
//! not use this — that is what [`crate::WorkerPool`] is for.

use std::io;
use std::thread;

/// Spawn a named OS thread.
///
/// The name shows up in panic messages, debuggers, and `/proc`, which
/// is the point: every thread in a TELEIOS process should be
/// attributable. Returns the builder's `io::Result` — callers decide
/// whether a failed spawn is fatal (the watchdog treats it as
/// "run without a watchdog" rather than aborting the batch).
#[expect(clippy::disallowed_types, reason = "the workspace's one doorway to OS threads")]
pub fn spawn_named<T, F>(name: &str, f: F) -> io::Result<thread::JoinHandle<T>>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    thread::Builder::new().name(name.to_string()).spawn(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawned_thread_carries_name_and_result() {
        let handle = spawn_named("teleios-test-worker", || {
            assert_eq!(
                thread::current().name(),
                Some("teleios-test-worker"),
                "thread must run under the requested name"
            );
            21 * 2
        })
        .unwrap();
        assert_eq!(handle.join().unwrap(), 42);
    }
}
