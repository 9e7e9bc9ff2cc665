//! In-memory span recorder for the traced run.
//!
//! A span wraps one call into a layer's public function: it records the span name,
//! its start and end on a monotonic clock, and the span that was open when it began
//! (its parent). Spans of one closed-loop operation share the index of their root
//! span as their identifier. Self time is a span's duration minus the time its
//! children cover; children of one span run on the calling thread one after another,
//! so they never overlap and their durations simply add up.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Index of the outermost span of the operation this span belongs to.
    pub root: usize,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over every recorded span of that name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanTotals {
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }

    pub fn mean_self_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e6
        }
    }
}

/// Records spans when enabled; when disabled, [`Tracer::span`] only runs the body.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`. The body receives the tracer so it can
    /// open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let root = parent.map_or(idx, |p| self.spans[p].root);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            root,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in span order.
    pub fn self_times_ns(&self) -> Vec<i128> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.duration_ns() as i128 - c as i128)
            .collect()
    }

    /// Checks that every span is closed, lies inside its parent, and has a
    /// non-negative self time. Returns a description of the first violation.
    pub fn check_nesting(&self) -> Result<(), String> {
        if !self.stack.is_empty() {
            return Err(format!("{} spans left open", self.stack.len()));
        }
        for (i, span) in self.spans.iter().enumerate() {
            if span.end_ns < span.start_ns {
                return Err(format!("span {i} ({}) ends before it starts", span.name));
            }
            if let Some(p) = span.parent {
                let parent = &self.spans[p];
                if p >= i || span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
                    return Err(format!(
                        "span {i} ({}) is not inside its parent {p} ({})",
                        span.name, parent.name
                    ));
                }
            }
        }
        if let Some((i, t)) = self
            .self_times_ns()
            .into_iter()
            .enumerate()
            .find(|(_, t)| *t < 0)
        {
            return Err(format!(
                "span {i} ({}) has negative self time {t} ns",
                self.spans[i].name
            ));
        }
        Ok(())
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += self_ns.max(0) as u64;
        }
        out
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_self_time_excludes_them() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", |_| ());
        });
        t.check_nesting().unwrap();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].root, 0);
        let totals = t.totals();
        assert_eq!(totals["inner"].count, 2);
        let outer = totals["outer"];
        assert!(outer.self_ns <= outer.total_ns - totals["inner"].total_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", |t| t.span("y", |_| 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
