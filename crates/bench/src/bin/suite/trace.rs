//! Driver-side spans: one per call the suite makes into a layer.
//!
//! The library carries no span hooks yet (ROADMAP item 2), so the
//! boundaries are the suite's own call sites. A [`Recorder`] belongs to
//! one thread; spans nest by a stack, so a span's parent is whatever was
//! open on that thread when it started. Totals per span name are kept
//! apart from the stored spans, so the per-layer numbers do not depend on
//! how many spans fit in memory.

use std::fmt::Write as _;

/// Stored spans per recorder; later spans still count in the totals.
const SPAN_CAPACITY: usize = 1 << 14;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, or [`NO_PARENT`].
    pub parent: u32,
    /// Operation (or doorbell) the span belongs to.
    pub op_id: u64,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of durations minus the time covered by child spans.
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    /// Index this span will have in `spans`, or [`NO_PARENT`] once the
    /// store is full.
    index: u32,
    child_ns: u64,
}

pub struct Recorder {
    enabled: bool,
    thread: &'static str,
    spans: Vec<Span>,
    open: Vec<Open>,
    totals: Vec<(&'static str, NameTotal)>,
}

impl Recorder {
    /// A recorder for the traced pass; `thread` labels its spans in the
    /// trace file. The span store is sized once, here.
    pub fn new(thread: &'static str, enabled: bool) -> Self {
        Self {
            enabled,
            thread,
            spans: Vec::with_capacity(if enabled { SPAN_CAPACITY } else { 0 }),
            open: Vec::with_capacity(8),
            totals: Vec::new(),
        }
    }

    #[inline]
    pub fn open(&mut self, name: &'static str, op_id: u64) {
        if self.enabled {
            self.open_at(name, op_id, crate::harness::now_ns());
        }
    }

    #[inline]
    pub fn close(&mut self) {
        if self.enabled {
            self.close_at(crate::harness::now_ns());
        }
    }

    pub fn open_at(&mut self, name: &'static str, op_id: u64, now_ns: u64) {
        let index = if self.spans.len() < SPAN_CAPACITY {
            let parent = self.open.last().map_or(NO_PARENT, |p| p.index);
            self.spans.push(Span {
                name,
                start_ns: now_ns,
                end_ns: now_ns,
                parent,
                op_id,
            });
            (self.spans.len() - 1) as u32
        } else {
            NO_PARENT
        };
        self.open.push(Open {
            name,
            start_ns: now_ns,
            index,
            child_ns: 0,
        });
    }

    pub fn close_at(&mut self, now_ns: u64) {
        let Some(done) = self.open.pop() else {
            return;
        };
        let dur = now_ns.saturating_sub(done.start_ns);
        if let Some(span) = self.spans.get_mut(done.index as usize) {
            span.end_ns = now_ns;
        }
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        let slot = match self.totals.iter().position(|(n, _)| *n == done.name) {
            Some(i) => i,
            None => {
                self.totals.push((done.name, NameTotal::default()));
                self.totals.len() - 1
            }
        };
        let t = &mut self.totals[slot].1;
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(done.child_ns);
    }

    pub fn total(&self, name: &str) -> NameTotal {
        self.totals
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(NameTotal::default, |(_, t)| *t)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends this recorder's spans as JSON lines. `parent` is the line
    /// index of the enclosing span within this thread's block, -1 at the
    /// top.
    pub fn write_jsonl(&self, out: &mut String) {
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                out,
                "{{\"thread\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
                self.thread, s.name, s.start_ns, s.end_ns, parent, s.op_id
            );
        }
    }
}

/// Total time per span name summed over recorders.
pub fn total_across(recorders: &[Recorder], name: &str) -> NameTotal {
    recorders.iter().fold(NameTotal::default(), |mut acc, r| {
        let t = r.total(name);
        acc.count += t.count;
        acc.total_ns += t.total_ns;
        acc.self_ns += t.self_ns;
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::new("t", true);
        r.open_at("op", 7, 100);
        r.open_at("post", 7, 110);
        r.close_at(140); // post: 30
        r.open_at("wait", 7, 150);
        r.open_at("reap", 7, 160);
        r.close_at(170); // reap: 10, inside wait
        r.close_at(250); // wait: 100, self 90
        r.close_at(300); // op: 200, children post 30 + wait 100
        assert_eq!(
            r.total("op"),
            NameTotal {
                count: 1,
                total_ns: 200,
                self_ns: 70
            }
        );
        assert_eq!(
            r.total("wait"),
            NameTotal {
                count: 1,
                total_ns: 100,
                self_ns: 90
            }
        );
        assert_eq!(r.total("post").self_ns, 30);
        assert_eq!(r.total("absent"), NameTotal::default());
        let spans = r.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!((spans[1].name, spans[1].parent), ("post", 0));
        assert_eq!(
            (spans[3].name, spans[3].parent, spans[3].end_ns),
            ("reap", 2, 170)
        );
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new("t", false);
        r.open("op", 1);
        r.close();
        assert!(r.spans().is_empty());
        assert_eq!(r.total("op").count, 0);
    }

    #[test]
    fn totals_sum_over_threads_and_jsonl_has_one_line_per_span() {
        let mut a = Recorder::new("a", true);
        let mut b = Recorder::new("b", true);
        for (r, d) in [(&mut a, 10), (&mut b, 32)] {
            r.open_at("post", 0, 0);
            r.close_at(d);
        }
        let both = [a, b];
        assert_eq!(total_across(&both, "post").total_ns, 42);
        let mut out = String::new();
        both[1].write_jsonl(&mut out);
        assert_eq!(out.lines().count(), 1);
        assert!(out.contains("\"thread\":\"b\"") && out.contains("\"parent\":-1"));
    }
}
