//! In-memory spans recorded around calls into each layer's public API.
//!
//! A span has a name, a start and an end (seconds since the tracer was
//! created) and the span that was open when it began. Spans stay in
//! memory and are written out as JSON lines when the benchmark ends.

use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in recording order.
    pub id: usize,
    /// The span open when this one began (`None` for a root).
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `experiment.slice`.
    pub name: &'static str,
    /// Start, seconds since the tracer's origin.
    pub start_s: f64,
    /// End, seconds since the tracer's origin (equal to `start_s` while
    /// the span is still open).
    pub end_s: f64,
}

impl Span {
    /// Wall duration, seconds.
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Records nested spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span, and returns its result.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_s: now,
            end_s: now,
        });
        self.open.push(id);
        let out = f(self);
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Total duration of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Share of `root`'s wall time covered by its direct children.
    /// Children never overlap (spans nest on one thread), so their
    /// durations add up without double counting.
    pub fn child_coverage(&self, root: usize) -> f64 {
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(Span::secs)
            .sum();
        covered / self.spans[root].secs().max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_cover() {
        let mut t = Tracer::new();
        t.span("root", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("b", |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s[1].secs() >= 0.005);
        let cov = t.child_coverage(0);
        assert!(cov > 0.5 && cov <= 1.0, "coverage {cov}");
        assert_eq!(t.durations("a").len(), 1);
    }
}
