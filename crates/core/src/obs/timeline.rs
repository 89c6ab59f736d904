//! Lightweight span tracing with nested scopes.
//!
//! A [`Timeline`] records named spans on a caller-supplied clock — wall
//! micro-seconds in the sweep runner, simulated cycles if an engine wants
//! phase timing. Keeping the clock external keeps the tracer
//! deterministic and testable: nothing in here reads real time.
//!
//! Spans nest: `start_span`/`end_span` maintain a scope stack and record
//! each span's depth, so an exported trace reconstructs the call tree.
//! Pre-measured spans (e.g. collected by parallel sweep workers) are added
//! with [`Timeline::record_span`].

use std::collections::BTreeMap;

use super::json::Value;

/// One completed span on a timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span label, e.g. `"run:mcf / morph_sc128"`.
    pub name: String,
    /// Start time in caller clock units.
    pub start: u64,
    /// Duration in caller clock units.
    pub duration: u64,
    /// Nesting depth at the time the span was opened (0 = top level).
    pub depth: u32,
    /// Number of attempts taken (sweep retry accounting); 1 = first try.
    pub attempts: u32,
}

/// An ordered collection of spans with a scope stack for nesting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    spans: Vec<Span>,
    open: Vec<(String, u64)>,
}

impl Timeline {
    /// An empty timeline.
    #[must_use]
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Opens a nested scope named `name` at time `now`.
    pub fn start_span(&mut self, name: &str, now: u64) {
        self.open.push((name.to_string(), now));
    }

    /// Closes the innermost open scope at time `now` and records it.
    /// Returns the completed span, or `None` when no scope is open
    /// (unbalanced calls are ignored, never a panic).
    pub fn end_span(&mut self, now: u64) -> Option<&Span> {
        let (name, start) = self.open.pop()?;
        self.spans.push(Span {
            name,
            start,
            duration: now.saturating_sub(start),
            depth: self.open.len() as u32,
            attempts: 1,
        });
        self.spans.last()
    }

    /// Records a pre-measured span at the current nesting depth.
    pub fn record_span(&mut self, name: &str, start: u64, duration: u64, attempts: u32) {
        self.spans.push(Span {
            name: name.to_string(),
            start,
            duration,
            depth: self.open.len() as u32,
            attempts,
        });
    }

    /// All completed spans, in completion order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of completed spans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no spans have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Merges another timeline's completed spans into this one, then
    /// sorts by `(start, name)` so the merged order is independent of
    /// which worker finished first.
    pub fn merge(&mut self, other: &Timeline) {
        self.spans.extend(other.spans.iter().cloned());
        self.sort();
    }

    /// Sorts spans by `(start, name)` for a stable export order.
    pub fn sort(&mut self) {
        self.spans
            .sort_by(|a, b| (a.start, &a.name).cmp(&(b.start, &b.name)));
    }

    /// Exports as a JSON array of span objects.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    let mut map = BTreeMap::new();
                    map.insert("name".to_string(), Value::Str(s.name.clone()));
                    map.insert("start".to_string(), Value::UInt(s.start));
                    map.insert("duration".to_string(), Value::UInt(s.duration));
                    map.insert("depth".to_string(), Value::UInt(u64::from(s.depth)));
                    map.insert("attempts".to_string(), Value::UInt(u64::from(s.attempts)));
                    Value::Object(map)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_scopes_record_depth() {
        let mut t = Timeline::new();
        t.start_span("outer", 0);
        t.start_span("inner", 10);
        t.end_span(30);
        t.end_span(100);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        // Inner closes first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[0].duration, 20);
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].depth, 0);
        assert_eq!(spans[1].duration, 100);
    }

    #[test]
    fn unbalanced_end_is_ignored_not_a_panic() {
        let mut t = Timeline::new();
        assert!(t.end_span(5).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn backwards_clock_saturates_to_zero_duration() {
        let mut t = Timeline::new();
        t.start_span("s", 100);
        let span = t.end_span(50).cloned();
        assert_eq!(span.map(|s| s.duration), Some(0));
    }

    #[test]
    fn merge_orders_spans_by_start_time() {
        let mut a = Timeline::new();
        a.record_span("late", 100, 5, 1);
        let mut b = Timeline::new();
        b.record_span("early", 10, 5, 2);
        a.merge(&b);
        let names: Vec<_> = a.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["early", "late"]);
        assert_eq!(a.spans()[0].attempts, 2);
    }

    #[test]
    fn json_export_lists_every_span_field() {
        let mut t = Timeline::new();
        t.record_span("run", 3, 7, 1);
        let json = t.to_json();
        let span = &json.as_array().unwrap()[0];
        assert_eq!(span.get("name").and_then(Value::as_str), Some("run"));
        assert_eq!(span.get("start").and_then(Value::as_u64), Some(3));
        assert_eq!(span.get("duration").and_then(Value::as_u64), Some(7));
        assert_eq!(span.get("depth").and_then(Value::as_u64), Some(0));
        assert_eq!(span.get("attempts").and_then(Value::as_u64), Some(1));
    }
}
