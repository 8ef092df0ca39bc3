//! In-memory spans recorded around the benchmark's calls into each
//! layer, and the self-time arithmetic that turns them into per-layer
//! numbers.
//!
//! A span has a name, a start, an end and the span that caused it (its
//! parent). A layer's self time is its spans' durations minus the part
//! of each interval that the span's children cover.

use std::time::Instant;

/// Index of a span within its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread. Spans opened with
/// [`begin`](Self::begin) take the innermost open span as their parent.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Builds a tracer from explicit spans (for arithmetic checks).
    #[cfg(test)]
    pub fn from_spans(spans: Vec<Span>) -> Self {
        Self {
            origin: Instant::now(),
            spans,
            open: Vec::new(),
        }
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Summed duration of the spans named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Mean duration of the spans named `name`, in milliseconds (0 when
    /// there are none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => 0.0,
            n => self.total_ns(name) as f64 / n as f64 / 1e6,
        }
    }

    /// Self time of every span, by id: its duration minus the union of
    /// its children's intervals, clipped to its own. One pass over the
    /// spans, so traces of many spans stay cheap.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let clipped = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if clipped.0 < clipped.1 {
                    children[p].push(clipped);
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(me, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, me.start_ns);
                for (a, b) in kids {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                me.duration_ns() - covered
            })
            .collect()
    }

    /// Summed self time of the spans named `name`, in nanoseconds.
    pub fn self_total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .zip(self.self_times_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns)
            .sum()
    }

    /// One line per span name, in order of first appearance: count,
    /// total and self time.
    pub fn summary(&self, scope: &str) -> Vec<String> {
        // (name, count, total, self), in order of first appearance.
        let mut rows: Vec<(&str, usize, u64, u64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(self.self_times_ns()) {
            let i = match rows.iter().position(|r| r.0 == s.name) {
                Some(i) => i,
                None => {
                    rows.push((s.name, 0, 0, 0));
                    rows.len() - 1
                }
            };
            rows[i].1 += 1;
            rows[i].2 += s.duration_ns();
            rows[i].3 += own;
        }
        rows.into_iter()
            .map(|(name, count, total, own)| {
                format!(
                    "span {scope} {name} count={count} total_ms={:.3} self_ms={:.3}",
                    total as f64 / 1e6,
                    own as f64 / 1e6
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::from_spans(vec![
            span("lot", None, 0, 100),
            // Overlapping children (two workers) count once.
            span("point", Some(0), 10, 30),
            span("point", Some(0), 20, 50),
            span("point", Some(0), 70, 80),
            // A grandchild does not reduce the lot's self time twice.
            span("draw", Some(1), 12, 14),
        ]);
        let own = t.self_times_ns();
        assert_eq!(own[0], 100 - 40 - 10);
        assert_eq!(own[1], 20 - 2);
        assert_eq!(t.self_total_ns("point"), 18 + 30 + 10);
        assert_eq!(t.total_ns("point"), 60);
        assert_eq!(t.count("point"), 3);
        assert_eq!(
            t.summary("lot")[1],
            "span lot point count=3 total_ms=0.000 self_ms=0.000"
        );
        assert_eq!(t.summary("lot").len(), 3);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let t = Tracer::from_spans(vec![
            span("parent", None, 10, 20),
            span("child", Some(0), 5, 15),
            span("child", Some(0), 18, 40),
        ]);
        assert_eq!(t.self_times_ns()[0], 10 - 5 - 2);
    }

    #[test]
    fn nested_spans_take_the_innermost_parent() {
        let mut t = Tracer::new();
        let outer = t.begin("outer");
        t.span("inner", |t| t.span("leaf", |_| ()));
        t.end(outer);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(outer));
        assert_eq!(s[2].parent, Some(1));
        assert!(t.self_times_ns()[outer] <= s[0].duration_ns());
        assert_eq!(t.mean_ms("missing"), 0.0);
    }
}
