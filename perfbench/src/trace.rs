//! In-memory spans recorded by the benchmark around its calls into the
//! program's layers. Each thread records into its own [`Trace`]; the
//! traces are merged and summarised when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the trace's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The operation (request or job launch) the span belongs to.
    pub op: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. A disabled trace records nothing and its calls cost
/// one branch, so the untraced run executes the same code.
#[derive(Debug, Clone)]
pub struct Trace {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant, enabled: bool) -> Trace {
        Trace { origin, enabled, spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index for [`Trace::end`] and for
    /// children's `parent`. Returns `None` when disabled.
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, op, parent, start_ns, end_ns: start_ns });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Trace::begin`].
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, op, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Records a span whose interval was measured by the caller.
    pub fn record(&mut self, span: Span) {
        if self.enabled {
            self.spans.push(span);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another trace's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| s.dur_ns().saturating_sub(covered_ns(s.start_ns, s.end_ns, kids)))
            .collect()
    }

    /// Self times in milliseconds grouped by span name.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times_ns()) {
            out.entry(s.name).or_default().push(t as f64 / 1e6);
        }
        out
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::residual;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, op: 7, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let mut t = Trace::new(Instant::now(), true);
        t.record(span("round_trip", None, 0, 100));
        t.record(span("queue", Some(0), 10, 30));
        // Overlaps the first child: the overlap counts once.
        t.record(span("exec", Some(0), 20, 60));
        t.record(span("select", Some(2), 40, 50));
        assert_eq!(t.self_times_ns(), vec![50, 20, 30, 10]);
    }

    #[test]
    fn residual_equals_round_trip_minus_layer_self_times() {
        let mut t = Trace::new(Instant::now(), true);
        t.record(span("round_trip", None, 0, 1_000));
        t.record(span("decode", Some(0), 0, 50));
        t.record(span("queue", Some(0), 50, 400));
        t.record(span("exec", Some(0), 400, 900));
        t.record(span("gather", Some(3), 500, 700));
        let selfs = t.self_times_ns();
        let layers: Vec<f64> = selfs[1..].iter().map(|&n| n as f64).collect();
        let rt = t.spans()[0].dur_ns() as f64;
        assert_eq!(residual(rt, &layers), selfs[0] as f64);
        assert_eq!(selfs[0], 100);
    }

    #[test]
    fn absorb_rebases_parents_and_disabled_records_nothing() {
        let mut a = Trace::new(Instant::now(), true);
        a.record(span("x", None, 0, 10));
        let mut b = Trace::new(Instant::now(), true);
        b.record(span("y", None, 0, 10));
        b.record(span("z", Some(0), 2, 4));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));

        let mut off = Trace::new(Instant::now(), false);
        assert_eq!(off.span("w", 0, None, || 3), 3);
        off.record(span("v", None, 0, 1));
        assert!(off.spans().is_empty());
    }
}
