//! Write-layer fault injection: a [`WriteFault`] is armed on a
//! [`MemMedium`](crate::MemMedium) and fires on the next matching
//! device operation, so tests can kill the engine at an exact WAL
//! offset and then assert recovery is bit-exact.

/// A single injected device-level failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// The next `sync` tears: only the first `keep` volatile bytes
    /// reach durable storage before the device crashes. Models a
    /// power cut mid-way through the kernel flushing the page cache.
    Torn { keep: usize },
    /// The next `sync` reports success-path I/O failure *without*
    /// persisting anything new and *without* crashing the device —
    /// the fsyncgate scenario. The engine must treat the commit as
    /// unacknowledged and poison itself.
    ShortFsync,
    /// The next `append` crashes the device before any byte of it is
    /// even buffered.
    Crash,
}

impl WriteFault {
    /// Stable label used in bench tables and reports.
    pub fn label(&self) -> &'static str {
        match self {
            WriteFault::Torn { .. } => "torn-write",
            WriteFault::ShortFsync => "short-fsync",
            WriteFault::Crash => "crash-point",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let labels = [
            WriteFault::Torn { keep: 3 }.label(),
            WriteFault::ShortFsync.label(),
            WriteFault::Crash.label(),
        ];
        for (i, a) in labels.iter().enumerate() {
            for b in &labels[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
