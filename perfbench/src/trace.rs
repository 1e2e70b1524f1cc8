//! The benchmark's own spans, recorded around each call it makes into a
//! crate's public API (nothing inside the program is instrumented).
//!
//! A span has a name, a start, an end and a parent; the spans of one
//! operation share the operation id (the id of its root span). Spans are
//! kept in memory and written out when the run ends; a layer's self time
//! is its span's duration minus the time its child spans cover. With the
//! tracer off, opening a span costs one branch and records nothing.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::util::{write_str, JsonObj};

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    /// 0 for an operation's root span.
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

pub struct Span<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: u64,
    op: u64,
    name: &'static str,
    start: Option<Instant>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Open the root span of a new operation.
    pub fn op(&self, name: &'static str) -> Span<'_> {
        let id = self.mint();
        Span {
            tracer: self,
            id,
            parent: 0,
            op: id,
            name,
            start: self.on.then(Instant::now),
        }
    }

    fn mint(&self) -> u64 {
        if self.on {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .clone()
    }

    /// Durations (ns) of every recorded span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos() as f64)
            .collect()
    }

    /// Per span name: count, total and self time in milliseconds.
    pub fn self_times(&self) -> JsonObj {
        let spans = self.spans();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.nanos();
        }
        let mut per_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for s in &spans {
            let e = per_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.nanos();
            e.2 += s
                .nanos()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        }
        let mut out = JsonObj::default();
        for (name, (count, total, own)) in per_name {
            let mut o = JsonObj::default();
            o.int("count", count)
                .num("total_ms", total as f64 / 1e6)
                .num("self_ms", own as f64 / 1e6);
            out.obj(name, &o);
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.spans() {
            out.push_str(&format!(
                "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": ",
                s.id, s.parent, s.op
            ));
            write_str(&mut out, s.name);
            out.push_str(&format!(
                ", \"start_ns\": {}, \"end_ns\": {}}}\n",
                s.start_ns, s.end_ns
            ));
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}

impl<'t> Span<'t> {
    /// Open a child span of this one.
    pub fn child(&self, name: &'static str) -> Span<'t> {
        Span {
            tracer: self.tracer,
            id: self.tracer.mint(),
            parent: self.id,
            op: self.op,
            name,
            start: self.tracer.on.then(Instant::now),
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let end = Instant::now();
        let t = self.tracer;
        let rec = SpanRec {
            id: self.id,
            parent: self.parent,
            op: self.op,
            name: self.name,
            start_ns: start.duration_since(t.epoch).as_nanos() as u64,
            end_ns: end.duration_since(t.epoch).as_nanos() as u64,
        };
        if let Ok(mut spans) = t.spans.lock() {
            spans.push(rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let t = Tracer::new(true);
        {
            let op = t.op("op");
            let _c = op.child("child");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let (child, op) = (&spans[0], &spans[1]);
        assert_eq!((child.parent, child.op), (op.id, op.id));
        assert!(op.nanos() >= child.nanos());
        let times = t.self_times().finish();
        assert!(times.contains("\"child\"") && times.contains("\"op\""));

        let off = Tracer::new(false);
        drop(off.op("op").child("child"));
        assert!(off.spans().is_empty());
    }
}
