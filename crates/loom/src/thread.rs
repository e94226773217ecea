//! Modeled `thread::spawn` / `JoinHandle` / `yield_now`. Inside a
//! [`crate::model`] run, spawned closures become scheduler-controlled
//! model threads; outside, they are plain `std` threads.

use crate::sched;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

type ResultSlot<T> = Arc<Mutex<Option<std::thread::Result<T>>>>;

pub struct JoinHandle<T> {
    slot: ResultSlot<T>,
    /// Set in fallback (out-of-model) mode only.
    os: Option<std::thread::JoinHandle<()>>,
    /// Set in modeled mode only: the model thread id to join on.
    tid: Option<usize>,
}

pub(crate) fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[expect(
    clippy::disallowed_types,
    reason = "the model checker runs each modeled thread on a real OS thread it controls"
)]
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let slot: ResultSlot<T> = Arc::new(Mutex::new(None));
    let slot_child = Arc::clone(&slot);
    match sched::current() {
        Some((exec, _me)) => {
            let tid = exec.register_thread();
            let exec_child = Arc::clone(&exec);
            let spawned = std::thread::Builder::new()
                .name(format!("teleios-loom-{tid}"))
                .spawn(move || {
                    sched::set_ctx(&exec_child, tid);
                    exec_child.wait_until_active(tid);
                    let out = catch_unwind(AssertUnwindSafe(f));
                    let msg = out.as_ref().err().map(|p| payload_to_string(p.as_ref()));
                    *slot_child.lock().unwrap_or_else(|p| p.into_inner()) = Some(out);
                    exec_child.finish(tid, msg);
                });
            match spawned {
                Ok(h) => exec.add_os_handle(h),
                Err(e) => crate::fail(&format!("could not spawn model thread {tid}: {e}")),
            }
            JoinHandle {
                slot,
                os: None,
                tid: Some(tid),
            }
        }
        None => {
            let spawned = std::thread::Builder::new()
                .name("teleios-loom-fallback".to_string())
                .spawn(move || {
                    let out = catch_unwind(AssertUnwindSafe(f));
                    *slot_child.lock().unwrap_or_else(|p| p.into_inner()) = Some(out);
                });
            match spawned {
                Ok(h) => JoinHandle {
                    slot,
                    os: Some(h),
                    tid: None,
                },
                Err(e) => crate::fail(&format!("could not spawn fallback thread: {e}")),
            }
        }
    }
}

impl<T> JoinHandle<T> {
    pub fn join(mut self) -> std::thread::Result<T> {
        match (self.tid, self.os.take()) {
            (Some(tid), _) => match sched::current() {
                Some((exec, me)) => exec.join_thread(me, tid),
                // A modeled handle joined from an unmodeled thread can
                // only happen if the handle escaped the model closure;
                // spin on the slot (the model drains it even on abort).
                None => {
                    while self.slot.lock().unwrap_or_else(|p| p.into_inner()).is_none() {
                        std::thread::yield_now();
                    }
                }
            },
            // `f` ran under catch_unwind, so an OS-level panic came from
            // the fallback thread's own bookkeeping: hand it to the joiner.
            (None, Some(os)) => os.join()?,
            (None, None) => {}
        }
        self.slot
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take()
            .unwrap_or_else(|| {
                Err(Box::new(
                    "teleios-loom: joined thread produced no result (aborted execution)".to_string(),
                ))
            })
    }
}

pub fn yield_now() {
    match sched::current() {
        Some((exec, me)) => exec.yield_point(me),
        None => std::thread::yield_now(),
    }
}
