//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name, a start, an end and the span that caused it. Spans
//! stay in memory while the benchmark runs and are written out once, when
//! it ends. A disabled tracer records nothing, so the same code path runs
//! traced and untraced and the difference is the tracing overhead.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span; children name it as their parent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(pub usize);

/// One finished span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// Caller-chosen tag, e.g. the canonical job index of a row span.
    pub item: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn ms(&self) -> f64 {
        self.duration_ns() as f64 / 1e6
    }
}

/// Span recorder shared by every thread of a run.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`. `f` receives the
    /// new span's id to hand to its children (`None` when disabled).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        item: u64,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        // Reserve the slot first so children can name it while it runs.
        let id = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                parent,
                item,
                start_ns: 0,
                end_ns: 0,
            });
            SpanId(spans.len() - 1)
        };
        let start = self.now_ns();
        let out = f(Some(id));
        let end = self.now_ns();
        let mut spans = self.lock();
        spans[id.0].start_ns = start;
        spans[id.0].end_ns = end;
        out
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Every span recorded so far, indexed by `SpanId`.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children running in parallel cover an instant
/// once, and a child's time outside its parent's interval is ignored.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(SpanId(parent)) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| span.duration_ns() - covered_ns(span.start_ns, span.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals`, clipped to `[start, end)`.
fn covered_ns(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reached = start;
    for (s, e) in intervals {
        let (s, e) = (s.max(reached), e.min(end));
        if e > s {
            covered += e - s;
            reached = e;
        }
    }
    covered
}

/// Tab-separated dump: one line per span with its id, parent, name, item,
/// start, end and self time (nanoseconds).
pub fn render(spans: &[Span]) -> String {
    let mut out = String::from("id\tparent\tname\titem\tstart_ns\tend_ns\tself_ns\n");
    for (id, (span, own)) in spans.iter().zip(self_times_ns(spans)).enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "-".to_string(), |SpanId(p)| p.to_string());
        let _ = writeln!(
            out,
            "{id}\t{parent}\t{}\t{}\t{}\t{}\t{own}",
            span.name, span.item, span.start_ns, span.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent: parent.map(SpanId),
            item: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("campaign", None, 0, 100),
            span("generate", Some(0), 10, 30),
            span("simulate", Some(0), 30, 90),
            span("row", Some(2), 30, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 30, 30]);
    }

    #[test]
    fn parallel_children_cover_an_instant_once() {
        // Two rows on two threads overlap in [20, 50).
        let spans = [
            span("simulate", None, 0, 100),
            span("row", Some(0), 10, 50),
            span("row", Some(0), 20, 80),
            span("row", Some(0), 60, 70),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 70);
    }

    #[test]
    fn child_time_outside_the_parent_is_ignored() {
        let spans = [span("phase", None, 10, 20), span("row", Some(0), 0, 15)];
        assert_eq!(self_times_ns(&spans)[0], 5);
    }

    #[test]
    fn recorder_links_children_and_stays_empty_when_disabled() {
        let tracer = Tracer::new(true);
        let total = tracer.span("outer", None, 0, |outer| {
            tracer.span("inner", outer, 7, |_| 2) + tracer.span("inner", outer, 8, |_| 3)
        });
        assert_eq!(total, 5);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(SpanId(0)));
        assert_eq!(spans[2].item, 8);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);

        let off = Tracer::new(false);
        assert_eq!(off.span("outer", None, 0, |id| id), None);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn render_lists_self_time() {
        let spans = [span("a", None, 0, 10), span("b", Some(0), 2, 5)];
        let text = render(&spans);
        assert_eq!(text.lines().nth(1), Some("0\t-\ta\t0\t0\t10\t7"));
        assert_eq!(text.lines().nth(2), Some("1\t0\tb\t0\t2\t5\t3"));
    }
}
