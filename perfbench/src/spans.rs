//! In-memory spans around the benchmark's calls into the simulator.
//!
//! A span has a name, start and end (ns since the recorder started), a
//! parent and a cell id. Sink `record` calls are too many for one span
//! each; their totals arrive per cell through [`Spans::aggregate`].
//! The spans are summarized to stderr when the traced run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub cell: Option<usize>,
    /// Calls folded into this span (1 for an ordinary span).
    pub calls: u64,
}

pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        cell: Option<usize>,
    ) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            cell,
            calls: 1,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.now();
        let s = &mut self.spans[id];
        s.end_ns = end;
        (end - s.start_ns) as f64 * 1e-9
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        cell: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, cell);
        let out = f();
        self.close(id);
        out
    }

    /// Fold `calls` calls totalling `ns` under `parent` as one span.
    pub fn aggregate(&mut self, name: &'static str, parent: usize, calls: u64, ns: u64) {
        let p = &self.spans[parent];
        self.spans.push(Span {
            name,
            start_ns: p.start_ns,
            end_ns: p.start_ns + ns,
            parent: Some(parent),
            cell: p.cell,
            calls,
        });
    }

    /// Per name: calls, total seconds and self seconds (total minus the
    /// time of child spans).
    pub fn summary(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = by_name.entry(s.name).or_default();
            let total = s.end_ns - s.start_ns;
            e.0 += s.calls;
            e.1 += total;
            e.2 += total.saturating_sub(child_ns[i]);
        }
        let mut out = format!(
            "{:<24} {:>12} {:>12} {:>12}\n",
            "span", "calls", "total_s", "self_s"
        );
        for (name, (calls, total, own)) in by_name {
            let _ = writeln!(
                out,
                "{name:<24} {calls:>12} {:>12.6} {:>12.6}",
                total as f64 * 1e-9,
                own as f64 * 1e-9
            );
        }
        out
    }
}
