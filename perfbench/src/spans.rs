//! Spans the traced passes record around calls into the layers.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! member (user) it worked for. Spans are kept in memory and written as
//! JSON lines when the run ends. A layer's self time is its spans'
//! duration minus the part covered by their child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. `parent` indexes the same log.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, such as `core.plan_day`.
    pub name: &'static str,
    /// Start, ns since the log's epoch.
    pub start_ns: u64,
    /// End, ns since the log's epoch.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The member (fleet index, device user or request number).
    pub member: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus children), ns.
    pub self_ns: u64,
}

/// A thread-safe, append-only span log with one shared epoch.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl SpanLog {
    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Appends a group of spans whose `parent` indexes are local to the
    /// group (0 = the group's first span), under one lock.
    pub fn push_group(&self, group: Vec<Span>) {
        let mut spans = self.spans.lock().expect("span log lock poisoned");
        let base = spans.len();
        spans.extend(group.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Appends one span with no parent.
    pub fn push(&self, name: &'static str, start_ns: u64, end_ns: u64, member: u64) {
        self.push_group(vec![Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            member,
        }]);
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log lock poisoned").len()
    }

    /// Totals per span name over the spans from index `from` on.
    pub fn totals_since(&self, from: usize) -> BTreeMap<&'static str, LayerTotals> {
        self.totals_in(from..usize::MAX)
    }

    /// Totals per span name over the spans with indexes in `range`.
    pub fn totals_in(&self, range: std::ops::Range<usize>) -> BTreeMap<&'static str, LayerTotals> {
        let spans = self.spans.lock().expect("span log lock poisoned");
        let range = range.start.min(spans.len())..range.end.min(spans.len());
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans[range.clone()] {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate().take(range.end).skip(range.start) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
        }
        out
    }

    /// Writes every span as one JSON line: name, start, end (ns since
    /// the epoch), parent index (or null) and member.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span log lock poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"member\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.member
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            member: 3,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_groups_rebase_parents() {
        let log = SpanLog::default();
        log.push("other", 0, 5, 9);
        log.push_group(vec![
            span("root", 0, 100, None),
            span("child", 10, 40, Some(0)),
            span("child", 50, 60, Some(0)),
            span("leaf", 12, 20, Some(1)),
        ]);
        let t = log.totals_since(1);
        assert_eq!(t["root"].self_ns, 60);
        assert_eq!(t["root"].total_ns, 100);
        assert_eq!(t["child"].count, 2);
        assert_eq!(t["child"].self_ns, 32);
        assert_eq!(t["leaf"].self_ns, 8);
        assert!(!t.contains_key("other"));
        assert_eq!(log.totals_in(0..1)["other"].count, 1);
        assert_eq!(log.totals_in(0..1).len(), 1);
        let dir = crate::out_dir().join(format!("test-spans-{}", std::process::id()));
        let path = dir.join("s.jsonl");
        assert_eq!(log.write_jsonl(&path).unwrap(), 5);
        let text = std::fs::read_to_string(&path).unwrap();
        let last: serde_json::Value = serde_json::from_str(text.lines().last().unwrap()).unwrap();
        assert_eq!(last.get("parent").and_then(|v| v.as_u64()), Some(2));
        std::fs::remove_dir_all(dir).unwrap();
    }
}
