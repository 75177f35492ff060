//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer:
//! name, start, end, parent span and request id. Spans stay in memory
//! (one recorder per thread) and are written out when the run ends. With
//! no recorder installed — the untraced run — [`span`] only calls through.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `sim.read`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// Request the call served: op index, kernel × design, or job index.
    pub req: u64,
}

impl Span {
    /// Wall time of the call.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    paused: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Installs a recorder on this thread; times are taken from `epoch`.
pub fn start(epoch: Instant) {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch,
            paused: false,
            spans: Vec::new(),
            open: Vec::new(),
        });
    });
}

/// Removes this thread's recorder and returns its spans.
pub fn stop() -> Vec<Span> {
    REC.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Stops (`true`) or resumes (`false`) recording on this thread, for the
/// untraced reference phase of a traced run.
pub fn pause(paused: bool) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.paused = paused;
        }
    });
}

/// Nanoseconds since the recorder's epoch (0 without a recorder).
pub fn now_ns() -> u64 {
    REC.with(|r| {
        r.borrow()
            .as_ref()
            .map_or(0, |rec| rec.epoch.elapsed().as_nanos() as u64)
    })
}

/// Runs `f` inside a span named `name` for request `req`.
pub fn span<T>(name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
    let idx = REC.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut().filter(|rec| !rec.paused)?;
        let idx = rec.spans.len();
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: rec.open.last().copied(),
            req,
        });
        rec.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        REC.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[idx].end_ns = rec.epoch.elapsed().as_nanos() as u64;
                rec.open.pop();
            }
        });
    }
    out
}

/// Appends another thread's spans, keeping parent links valid.
pub fn merge(into: &mut Vec<Span>, other: Vec<Span>) {
    let base = into.len();
    into.extend(other.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Per-name totals: calls, wall time, and self time (wall minus the time
/// covered by child spans).
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Summed wall time.
    pub total_ns: u64,
    /// Summed self time.
    pub self_ns: u64,
}

impl Totals {
    /// Mean wall time per call, in `unit_ns` units (0 with no calls).
    pub fn mean(&self, unit_ns: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / unit_ns
        }
    }
}

/// Totals per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.ns();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.ns();
        t.self_ns += s.ns().saturating_sub(child);
    }
    out
}

/// Wall time covered by top-level spans that start inside `[from, to)`.
pub fn top_level_ns(spans: &[Span], from_ns: u64, to_ns: u64) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none() && s.start_ns >= from_ns && s.start_ns < to_ns)
        .map(Span::ns)
        .sum()
}

/// Renders spans as JSON lines: `{"i","name","start_ns","end_ns","parent","req"}`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 80);
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"i\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
            s.name, s.start_ns, s.end_ns, s.req
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        start(Instant::now());
        span("outer", 1, || {
            span("inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        span("ignored", 2, || pause(true));
        span("not-recorded", 3, || ());
        pause(false);
        let spans = stop();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["outer", "inner", "ignored"]);
        assert_eq!(spans[1].parent, Some(0));
        let t = totals(&spans);
        assert!(t["outer"].self_ns < t["inner"].total_ns);
        assert_eq!(t["inner"].self_ns, t["inner"].total_ns);
    }

    #[test]
    fn merge_rebases_parents() {
        let mk = |parent| Span {
            name: "x",
            start_ns: 0,
            end_ns: 1,
            parent,
            req: 0,
        };
        let mut a = vec![mk(None)];
        merge(&mut a, vec![mk(None), mk(Some(0))]);
        assert_eq!(a[2].parent, Some(1));
    }
}
