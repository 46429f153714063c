//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans are kept in memory and written out when the run ends. The engine is
//! not instrumented: every span is opened and closed from the benchmark's
//! own files, around a public function of the layer the span is named after.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// Engine counters read at a span's two boundaries; a span stores the delta.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub logical_reads: u64,
    pub physical_io: u64,
    pub ticks: u64,
}

impl Counts {
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            logical_reads: self.logical_reads - earlier.logical_reads,
            physical_io: self.physical_io - earlier.physical_io,
            ticks: self.ticks - earlier.ticks,
        }
    }
}

/// One timed interval. `parent` is the span that caused it (`None` for a
/// request's root); spans of one request share `request`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Option<Counts>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span store of one run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<u32>, request: u32) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
            counts: None,
        });
        id
    }

    pub fn end(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Close a span and attach the counter delta measured over it.
    pub fn end_with(&mut self, id: u32, counts: Counts) {
        self.end(id);
        self.spans[id as usize].counts = Some(counts);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(self.spans.iter().map(span_json).collect())
    }
}

fn span_json(s: &Span) -> Json {
    let mut pairs = vec![
        ("id", Json::Num(s.id as f64)),
        ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
        ("request", Json::Num(s.request as f64)),
        ("name", Json::Str(s.name.to_string())),
        ("start_ns", Json::Num(s.start_ns as f64)),
        ("end_ns", Json::Num(s.end_ns as f64)),
    ];
    if let Some(c) = s.counts {
        pairs.push(("logical_reads", Json::Num(c.logical_reads as f64)));
        pairs.push(("physical_io", Json::Num(c.physical_io as f64)));
        pairs.push(("ticks", Json::Num(c.ticks as f64)));
    }
    Json::obj(pairs)
}

/// Per span name: how many spans, their total duration, and their total
/// self time — duration minus the part of the interval child spans cover.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Nanoseconds of `span` covered by the union of its children's intervals
/// (clipped to the span, so overlapping or overhanging children are not
/// counted twice).
fn covered_by_children(span: &Span, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0u64;
    let mut frontier = span.start_ns;
    for &(start, end) in children.iter() {
        let start = start.max(frontier);
        let end = end.min(span.end_ns);
        if end > start {
            covered += end - start;
            frontier = end;
        }
    }
    covered
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let covered = children.get_mut(&s.id).map_or(0, |c| covered_by_children(s, c));
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns() - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, request: 0, name, start_ns: start, end_ns: end, counts: None }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        // root 0..100
        //   a 10..40        (self 30 - 10 = 20: one grandchild 20..30)
        //     leaf 20..30
        //   a 50..70        (no children: self 20)
        //   b 60..90        (overlaps the second `a`; root counts 50..90 once)
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 40),
            span(2, Some(1), "leaf", 20, 30),
            span(3, Some(0), "a", 50, 70),
            span(4, Some(0), "b", 60, 90),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["root"], NameTotals { count: 1, total_ns: 100, self_ns: 100 - 30 - 40 });
        assert_eq!(t["a"], NameTotals { count: 2, total_ns: 50, self_ns: 40 });
        assert_eq!(t["leaf"], NameTotals { count: 1, total_ns: 10, self_ns: 10 });
        assert_eq!(t["b"], NameTotals { count: 1, total_ns: 30, self_ns: 30 });
        // Self times of a tree add up to its root's duration when no
        // sibling overlaps; here the 10 ns overlap is the only excess.
        let self_sum: u64 = t.values().map(|n| n.self_ns).sum();
        assert_eq!(self_sum, 100 + 10);
    }

    #[test]
    fn a_child_that_overhangs_its_parent_is_clipped() {
        let spans = vec![span(0, None, "root", 10, 20), span(1, Some(0), "late", 15, 40)];
        assert_eq!(totals_by_name(&spans)["root"].self_ns, 5);
    }

    #[test]
    fn tracer_records_nested_spans_in_order() {
        let mut t = Tracer::default();
        let root = t.begin("root", None, 7);
        let child = t.begin("child", Some(root), 7);
        t.end_with(child, Counts { logical_reads: 3, physical_io: 1, ticks: 3 });
        t.end(root);
        let s = t.spans();
        assert_eq!((s[0].id, s[1].parent, s[1].request), (0, Some(0), 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let json = t.to_json().render();
        assert!(json.contains("\"name\":\"child\"") && json.contains("\"logical_reads\":3"));
    }
}
