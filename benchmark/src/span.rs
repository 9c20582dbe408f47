//! Spans recorded around the calls into each layer, from the benchmark's
//! own side of every `pub` boundary. Spans stay in memory until the pass
//! ends and are then written as one JSON object per line.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same trace.
    pub parent: Option<usize>,
    /// Spans of one operation share this identifier.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single-threaded span recorder; each generator thread owns one and the
/// traces are concatenated when the threads have joined.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// All tracers of one pass share `epoch`, so their timestamps compare.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; [`Tracer::end`] closes it.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Times `f` as a child span of `parent`.
    pub fn child<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        self.child_timed(name, parent, f).0
    }

    /// [`Tracer::child`], also returning the span's duration in nanoseconds.
    pub fn child_timed<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let op = self.spans[parent].op;
        let id = self.begin(name, Some(parent), op);
        let out = f();
        self.end(id);
        (out, self.spans[id].duration_ns())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends `other`'s spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// A span's self time: its duration minus the part of its own interval that
/// its direct children cover. Overlapping children (parallel fan-out) are
/// counted once, and a child is clipped to its parent's interval.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Span durations in nanoseconds grouped by name, ascending.
pub fn durations_ns_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        by_name.entry(s.name).or_default().push(s.duration_ns());
    }
    for v in by_name.values_mut() {
        v.sort_unstable();
    }
    by_name
}

/// Writes `{id, name, start_ns, end_ns, parent, op, self_ns}` lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let self_ns = self_times_ns(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, (s, own)) in spans.iter().zip(&self_ns).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"self_ns\":{own}}}",
            s.name, s.start_ns, s.end_ns, s.op
        )?;
    }
    out.flush()
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
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root 0..100 ⊃ a 10..60 ⊃ b 20..30; grandchildren never reduce root.
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 20, 30, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // Children 10..40 and 30..70 overlap in 30..40; 90..130 sticks out
        // of the parent by 30; 200..300 lies outside entirely.
        let spans = [
            span("root", 0, 100, None),
            span("x", 10, 40, Some(0)),
            span("y", 30, 70, Some(0)),
            span("z", 90, 130, Some(0)),
            span("late", 200, 300, Some(0)),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 100 - (60 + 10));
        assert_eq!(&own[1..], &[30, 40, 40, 100]);
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let root = a.begin("root", None, 1);
        a.end(root);
        let mut b = Tracer::new(epoch);
        let r2 = b.begin("root", None, 2);
        b.child("leaf", r2, || ());
        b.end(r2);
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].op, 2);
        assert!(spans[1].end_ns >= spans[2].end_ns);
    }
}
