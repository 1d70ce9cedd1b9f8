//! Harness-side spans around the calls into each layer.
//!
//! Spans are kept in memory and written out once, when the traced run
//! ends.  With tracing off [`Tracer::span`] only runs its closure, so
//! the end-to-end runs pay nothing for it.

use serde::Value;
use std::time::Instant;

/// One timed interval: what ran, when, and which span caused it.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, nested under the span that
    /// is currently open.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// The spans as one JSON document, each with its self time.
    pub fn to_json(&self) -> Value {
        let self_secs = self_times(&self.spans);
        let spans = self
            .spans
            .iter()
            .zip(self_secs)
            .map(|(s, own)| {
                Value::Object(vec![
                    ("name".into(), Value::Str(s.name.clone())),
                    ("start_s".into(), Value::Float(s.start)),
                    ("end_s".into(), Value::Float(s.end)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("self_s".into(), Value::Float(own)),
                ])
            })
            .collect();
        Value::Object(vec![("spans".into(), Value::Array(spans))])
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children (children of one parent never overlap, because the
/// harness opens spans on one thread).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end - s.start;
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("run", 0.0, 10.0, None),
            span("probe", 1.0, 7.0, Some(0)),
            span("call_a", 2.0, 4.0, Some(1)),
            span("call_b", 4.5, 5.5, Some(1)),
            span("report", 8.0, 9.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![3.0, 3.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn spans_nest_under_the_open_span() {
        let mut t = Tracer::new(true);
        let got = t.span("outer", |t| {
            t.span("inner", |_| 1);
            t.span("inner", |_| 2)
        });
        assert_eq!(got, 2);
        let parents: Vec<_> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0)]);
        assert!(t.spans[0].end >= t.spans[2].end);
        assert!(t.open.is_empty());
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 5), 5);
        assert!(t.spans.is_empty());
    }
}
