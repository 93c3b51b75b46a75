//! An in-memory span recorder and the per-layer analysis over its spans.
//!
//! The benchmark opens a span around each call into a layer. A span has a
//! name, start and end (nanoseconds since the tracer was created), the
//! span that was open on the same thread when it started (its parent), and
//! a request id shared by every span of one request. Spans stay in memory
//! until the run ends and are then written out as JSON lines.
//!
//! A disabled tracer records nothing and reads no clock, so the untraced
//! runs that give the end-to-end metrics pay only a branch per call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: u64,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(span id, request id)` of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Records spans from any number of threads.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer was created (the span time base).
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that inherits the request id of the innermost open
    /// span on this thread (0 outside any request).
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { open: None };
        }
        let request = OPEN.with(|open| open.borrow().last().map_or(0, |&(_, r)| r));
        self.open(name, request)
    }

    /// Opens a span that starts request `request`.
    pub fn request(&self, name: &'static str, request: u64) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { open: None };
        }
        self.open(name, request)
    }

    fn open(&self, name: &'static str, request: u64) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().map(|&(p, _)| p);
            open.push((id, request));
            parent
        });
        SpanGuard {
            open: Some(Open {
                tracer: self,
                id,
                parent,
                name,
                request,
                start_ns: self.now_ns(),
            }),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name);
        f()
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span store poisoned").iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"request\":{},\"thread\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.request, s.thread, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

struct Open<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    request: u64,
    start_ns: u64,
}

/// Closes its span when dropped.
pub struct SpanGuard<'t> {
    open: Option<Open<'t>>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(o) = self.open.take() else { return };
        let end_ns = o.tracer.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&(id, _)| id == o.id) {
                open.truncate(pos);
            }
        });
        let span = Span {
            id: o.id,
            parent: o.parent,
            name: o.name,
            request: o.request,
            thread: THREAD.with(|t| *t),
            start_ns: o.start_ns,
            end_ns,
        };
        if let Ok(mut spans) = o.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Length of the union of `intervals`, each clipped to `window`.
pub fn covered_ns(intervals: impl IntoIterator<Item = (u64, u64)>, window: (u64, u64)) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .into_iter()
        .map(|(a, b)| (a.max(window.0), b.min(window.1)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + current.map_or(0, |(a, b)| b - a)
}

/// Self time of every span, in input order: its duration minus the part
/// of its interval its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).cloned().unwrap_or_default();
            s.dur_ns() - covered_ns(kids, (s.start_ns, s.end_ns))
        })
        .collect()
}

/// Self times grouped by span name.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        out.entry(s.name).or_default().push(t);
    }
    out
}

/// Share of `window` (in percent) that no span covers.
pub fn uncovered_pct(spans: &[Span], window: (u64, u64)) -> f64 {
    let wall = window.1.saturating_sub(window.0);
    if wall == 0 {
        return 0.0;
    }
    let covered = covered_ns(spans.iter().map(|s| (s.start_ns, s.end_ns)), window);
    100.0 * (wall - covered) as f64 / wall as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            request: 0,
            thread: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = vec![
            span(1, None, 0, 100),
            // Overlapping children count once; a child that outlives its
            // parent only covers the parent's part.
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),
            span(4, Some(1), 90, 120),
            // A grandchild is subtracted from its parent, not from span 1.
            span(5, Some(2), 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6]);
    }

    #[test]
    fn uncovered_share_is_the_window_minus_the_span_union() {
        let spans = vec![
            span(1, None, 0, 10),
            span(2, None, 5, 20),
            span(3, None, 30, 40),
        ];
        assert_eq!(
            covered_ns(spans.iter().map(|s| (s.start_ns, s.end_ns)), (0, 50)),
            30
        );
        assert!((uncovered_pct(&spans, (0, 50)) - 40.0).abs() < 1e-12);
        assert_eq!(uncovered_pct(&spans, (7, 7)), 0.0);
    }

    #[test]
    fn nested_guards_link_parents_and_share_the_request_id() {
        let tracer = Tracer::new(true);
        {
            let _outer = tracer.request("outer", 42);
            tracer.time("inner", || {
                let _leaf = tracer.span("leaf");
            });
        }
        let _after = tracer.span("after");
        drop(_after);
        let spans = tracer.spans();
        let by = |n: &str| spans.iter().find(|s| s.name == n).expect("span recorded");
        let (outer, inner, leaf, after) = (by("outer"), by("inner"), by("leaf"), by("after"));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(leaf.parent, Some(inner.id));
        assert_eq!((inner.request, leaf.request), (42, 42));
        assert_eq!((after.parent, after.request), (None, 0));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        tracer.time("x", || {
            let _y = tracer.request("y", 7);
        });
        assert!(tracer.spans().is_empty());
    }
}
