//! In-memory spans recorded from the harness, around the calls into
//! each layer. A span's name is `layer.what`; its layer is the part
//! before the dot. Self time = duration minus the part its children
//! cover. A disabled tracer runs the closure and records nothing, so
//! the untraced run pays one branch per call site.

use crate::json::Value;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.what`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// The op (request) this span belongs to.
    pub op_id: u32,
}

impl Span {
    /// Wall-clock length.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder for one workload run (single-threaded).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    current: Cell<Option<u32>>,
    op_id: Cell<u32>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            current: Cell::new(None),
            op_id: Cell::new(0),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans recorded from now on belong to op `id`.
    pub fn set_op(&self, id: u32) {
        self.op_id.set(id);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`, child of the enclosing span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_indexed(name, f).0
    }

    /// Like [`Self::span`], also returning the span's index (`None`
    /// when disabled) for [`Self::split_into_children`].
    pub fn span_indexed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Option<u32>) {
        if !self.enabled {
            return (f(), None);
        }
        let parent = self.current.get();
        let index = {
            let mut spans = self.spans.borrow_mut();
            let index = u32::try_from(spans.len()).unwrap_or(u32::MAX);
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                op_id: self.op_id.get(),
            });
            index
        };
        self.current.set(Some(index));
        let out = f();
        self.current.set(parent);
        let end = self.now_ns();
        if let Some(span) = self.spans.borrow_mut().get_mut(index as usize) {
            span.end_ns = end;
        }
        (out, Some(index))
    }

    /// Record children of span `parent` from durations the callee
    /// measured itself (the chain's `StageTimings`): they are laid
    /// back to back from the parent's start, which keeps each one's
    /// length — and so the parent's self time — exact.
    pub fn split_into_children(&self, parent: Option<u32>, parts: &[(&'static str, Duration)]) {
        let Some(parent) = parent else { return };
        let mut spans = self.spans.borrow_mut();
        let Some((mut at, op_id)) = spans.get(parent as usize).map(|p| (p.start_ns, p.op_id))
        else {
            return;
        };
        for (name, duration) in parts {
            let end = at + u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
            spans.push(Span {
                name,
                start_ns: at,
                end_ns: end,
                parent: Some(parent),
                op_id,
            });
            at = end;
        }
    }

    /// The recorded spans.
    pub fn finish(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Self time of every span, in nanoseconds: its duration minus the
/// union of the intervals its direct children cover within it.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(slot) = span.parent.and_then(|p| children.get_mut(p as usize)) {
            slot.push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in kids.iter() {
                let start = (*start).clamp(reach, span.end_ns);
                let end = (*end).clamp(start, span.end_ns);
                covered += end - start;
                reach = end;
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self time per layer, in nanoseconds.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(span.layer()).or_insert(0) += own;
    }
    out
}

/// For each op, the summed duration (ms) of its spans named `name`;
/// ops without such a span are left out.
pub fn per_op_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let mut by_op: BTreeMap<u32, u64> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.name == name) {
        *by_op.entry(span.op_id).or_insert(0) += span.duration_ns();
    }
    by_op.values().map(|ns| *ns as f64 / 1e6).collect()
}

/// The trace file: every span with its self time, plus the run's counts.
pub fn to_json(workload: &str, spans: &[Span], counts: &BTreeMap<&'static str, f64>) -> Value {
    let own = self_times_ns(spans);
    let rows = spans
        .iter()
        .zip(own)
        .map(|(s, own)| {
            Value::obj([
                ("name", Value::str(s.name)),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p))),
                ),
                ("op_id", Value::Num(f64::from(s.op_id))),
                ("self_ns", Value::Num(own as f64)),
            ])
        })
        .collect();
    Value::obj([
        ("workload", Value::str(workload)),
        ("spans", Value::Arr(rows)),
        (
            "counts",
            Value::obj(counts.iter().map(|(k, v)| (*k, Value::Num(*v)))),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_with_nested_and_sibling_children() {
        // root 0..100; siblings a 10..30 and b 40..70; c nested in b 50..60.
        let spans = vec![
            span("e0.op", 0, 100, None),
            span("vault.a", 10, 30, Some(0)),
            span("noa.b", 40, 70, Some(0)),
            span("rdf.c", 50, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 20, 10]);
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["e0"], 50);
        assert_eq!(by_layer["vault"], 20);
        assert_eq!(by_layer["noa"], 20);
        assert_eq!(by_layer["rdf"], 10);
        assert_eq!(by_layer.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_or_overhanging_children_are_not_double_counted() {
        let spans = vec![
            span("e0.op", 0, 100, None),
            span("x.a", 10, 60, Some(0)),
            span("x.b", 50, 120, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 10);
    }

    #[test]
    fn recorder_nests_and_respects_off() {
        let t = Tracer::on();
        t.set_op(7);
        let (v, idx) = t.span_indexed("noa.chain_run", || t.span("vault.array_for", || 41) + 1);
        assert_eq!(v, 42);
        t.split_into_children(
            idx,
            &[
                ("ingest.crop", Duration::from_nanos(5)),
                ("ingest.georef", Duration::from_nanos(7)),
            ],
        );
        let spans = t.finish();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].duration_ns(), 5);
        assert_eq!(spans[3].start_ns, spans[2].end_ns);
        assert!(spans.iter().all(|s| s.op_id == 7));
        assert!(spans[0].end_ns >= spans[1].end_ns);

        let off = Tracer::off();
        let (v, idx) = off.span_indexed("x.y", || 1);
        assert_eq!((v, idx), (1, None));
        assert!(off.finish().is_empty());
    }

    #[test]
    fn per_op_sums_by_name() {
        let mut spans = vec![
            span("a.x", 0, 1_000_000, None),
            span("a.x", 0, 2_000_000, None),
        ];
        spans[1].op_id = 1;
        spans.push(Span {
            op_id: 1,
            ..span("a.x", 0, 500_000, None)
        });
        assert_eq!(per_op_ms(&spans, "a.x"), vec![1.0, 2.5]);
        assert!(per_op_ms(&spans, "b.y").is_empty());
    }
}
