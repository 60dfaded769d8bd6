//! In-memory spans for the traced replay.
//!
//! Every call the replay makes into a layer is wrapped in a span: name,
//! start, end, the span that caused it, the replay run it belongs to, and
//! the work it did (bytes, updates or projections, by the layer's unit).
//! Spans stay in memory while the replay runs and are written out once at
//! exit, each with its self time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the tracer, from 1.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Replay run the span belongs to.
    pub run: u32,
    /// Rank (or 0 for single-process workloads).
    pub rank: u32,
    /// Layer call, e.g. `ct-bp` or `ct-comm.allgather.wait`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Work done inside the span, in the layer's unit (0 when none).
    pub work: u64,
}

/// Where a new span hangs: its run, rank and parent.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Replay run.
    pub run: u32,
    /// Rank.
    pub rank: u32,
    /// Parent span, if any.
    pub parent: Option<u64>,
}

impl Ctx {
    /// A root context for one run and rank.
    pub fn root(run: u32, rank: u32) -> Self {
        Self {
            run,
            rank,
            parent: None,
        }
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name`; `f` gets the context for child
    /// spans and returns its result plus the work it did.
    pub fn span<R>(&self, ctx: Ctx, name: &'static str, f: impl FnOnce(Ctx) -> (R, u64)) -> R {
        self.span_named_after(ctx, |c| {
            let (out, work) = f(c);
            (out, work, name)
        })
    }

    /// Like [`Tracer::span`], for a span whose name depends on what the
    /// call did: `f` also returns the name.
    pub fn span_named_after<R>(
        &self,
        ctx: Ctx,
        f: impl FnOnce(Ctx) -> (R, u64, &'static str),
    ) -> R {
        // Relaxed: the id only has to be unique, it publishes nothing.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let child = Ctx {
            parent: Some(id),
            ..ctx
        };
        let start_ns = self.now_ns();
        let (out, work, name) = f(child);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(Span {
                id,
                parent: ctx.parent,
                run: ctx.run,
                rank: ctx.rank,
                name,
                start_ns,
                end_ns,
                work,
            });
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Per-name totals over one run's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Summed span durations, seconds.
    pub busy_s: f64,
    /// Summed work.
    pub work: u64,
}

/// Totals per span name for `run`.
pub fn totals(spans: &[Span], run: u32) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.run == run) {
        let t = out.entry(s.name).or_default();
        t.busy_s += (s.end_ns - s.start_ns) as f64 / 1e9;
        t.work += s.work;
    }
    out
}

/// Self time of every span, in nanoseconds, by span id: its duration
/// minus the part of it that its children cover (overlapping children
/// are counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, (s.end_ns - s.start_ns) - covered)
        })
        .collect()
}

/// The spans as a JSON array, each with its self time, plus a header
/// object describing the run.
pub fn to_json(header: &[(&str, String)], spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("{");
    for (k, v) in header {
        let _ = write!(out, "\"{k}\":\"{}\",", escape(v));
    }
    out.push_str("\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"run\":{},\"rank\":{},\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"work\":{}}}{}",
            s.id,
            s.run,
            s.rank,
            s.name,
            s.start_ns,
            s.end_ns,
            selfs[&s.id],
            s.work,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push_str("]}\n");
    out
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            run: 0,
            rank: 0,
            name: "x",
            start_ns,
            end_ns,
            work: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(1, None, 0, 100),
            // Two overlapping children cover 10..50, one more 60..70.
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),
            span(4, Some(1), 60, 70),
            // A grandchild counts against its parent only.
            span(5, Some(2), 15, 25),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 40 - 10);
        assert_eq!(st[&2], 30 - 10);
        assert_eq!(st[&3], 20);
        assert_eq!(st[&5], 10);
    }

    #[test]
    fn recorded_spans_nest_and_total() {
        let t = Tracer::new();
        let ctx = Ctx::root(3, 1);
        t.span(ctx, "outer", |c| {
            t.span(c, "inner", |_| ((), 7));
            t.span(c, "inner", |_| ((), 5));
            ((), 0)
        });
        let spans = t.spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert!(spans
            .iter()
            .filter(|s| s.name == "inner")
            .all(|s| s.parent == Some(outer.id) && s.run == 3 && s.rank == 1));
        let tot = totals(&spans, 3);
        assert_eq!(tot["inner"].work, 12);
        assert!(totals(&spans, 0).is_empty());
        let json = to_json(&[("workload", "w".into())], &spans);
        assert!(json.contains("\"self_ns\"") && json.starts_with("{\"workload\":\"w\""));
    }
}
