//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `{name, start, end, parent, job_hash}`: the name is
//! `<layer>.<call>` (`fabric.run`, `serve.poll`, ...), times are
//! nanoseconds since the tracer's epoch, `parent` indexes the span that
//! caused it, and spans of one job share its `job_hash`. Spans stay in
//! memory and are written once, when the workload ends. Nothing here is
//! called by the program itself: every span wraps a call the benchmark
//! makes into a layer's public functions.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since the epoch at entry.
    pub start_ns: u64,
    /// Nanoseconds since the epoch at exit.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job this span belongs to (0 for spans above job level).
    pub job_hash: u64,
}

impl Span {
    /// Wall time covered by the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on one thread; several tracers sharing an epoch merge
/// into one trace with [`Tracer::absorb`]. A tracer built with
/// [`Tracer::timing_only`] measures the same intervals but keeps no
/// spans: the timed runs use it so one client loop serves both modes.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    keep: bool,
    spans: Vec<Span>,
    /// Open intervals: (span index when kept, start).
    open: Vec<(usize, u64)>,
}

impl Tracer {
    /// A tracer whose time zero is `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            keep: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that times intervals and records nothing.
    pub fn timing_only(epoch: Instant) -> Tracer {
        Tracer {
            keep: false,
            ..Tracer::new(epoch)
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, job_hash: u64) {
        let start_ns = self.now_ns();
        if self.keep {
            let parent = self.open.last().map(|&(id, _)| id);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                job_hash,
            });
        }
        self.open.push((self.spans.len().wrapping_sub(1), start_ns));
    }

    /// Closes the innermost open span and returns its duration.
    pub fn exit(&mut self) -> u64 {
        let (id, start_ns) = self.open.pop().expect("exit without enter");
        let end_ns = self.now_ns();
        if self.keep {
            self.spans[id].end_ns = end_ns;
        }
        end_ns - start_ns
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in nanoseconds. Spans opened by `f` become children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        job_hash: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, u64) {
        self.enter(name, job_hash);
        let result = f(self);
        (result, self.exit())
    }

    /// Appends another tracer's finished spans (same epoch), keeping
    /// their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbing a tracer with open spans");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans, in entry order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus what its child spans
/// cover. Index-aligned with `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Total self time per span name, in first-seen order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let own = self_times_ns(spans);
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for (s, ns) in spans.iter().zip(own) {
        match totals.iter_mut().find(|(name, _)| *name == s.name) {
            Some((_, total)) => *total += ns,
            None => totals.push((s.name, ns)),
        }
    }
    totals
}

/// The layer a span name belongs to (`fabric.run` → `fabric`).
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Writes the trace as one JSON document (see the README for the
/// format). Written by hand: a traced serve run holds tens of thousands
/// of spans and needs no document tree.
pub fn write_trace(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"time_unit\":\"ns\",\"spans\":["
    )?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"job_hash\":\"{:016x}\"}}{comma}",
            s.name, s.start_ns, s.end_ns, s.job_hash
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            job_hash: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // pass [0,100] ─ job [10,90] ─ fabric.run [20,70], energy.evaluate [70,80]
        let spans = [
            span("bench.pass", 0, 100, None),
            span("bench.job", 10, 90, Some(0)),
            span("fabric.run", 20, 70, Some(1)),
            span("energy.evaluate", 70, 80, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), [20, 20, 50, 10]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(
            by_name,
            [
                ("bench.pass", 20),
                ("bench.job", 20),
                ("fabric.run", 50),
                ("energy.evaluate", 10)
            ]
        );
        let total: u64 = by_name.iter().map(|(_, ns)| ns).sum();
        assert_eq!(total, 100, "self times partition the root span");
        assert_eq!(layer_of("fabric.run"), "fabric");
    }

    #[test]
    fn tracer_nests_and_absorbs() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        let ((), outer_ns) = t.span("bench.pass", 0, |t| {
            t.span("fabric.run", 7, |_| ());
            t.span("gpu.run", 8, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[1].job_hash, 7);
        assert_eq!(spans[0].duration_ns(), outer_ns);
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[2].end_ns <= spans[0].end_ns);

        let mut other = Tracer::new(epoch);
        other.span("serve.submit", 1, |t| {
            t.span("serve.poll", 1, |_| ());
        });
        t.absorb(other);
        assert_eq!(t.spans()[3].parent, None);
        assert_eq!(t.spans()[4].parent, Some(3), "parent links are rebased");
    }

    #[test]
    fn timing_only_tracer_times_but_keeps_nothing() {
        let mut t = Tracer::timing_only(Instant::now());
        let ((), ns) = t.span("serve.submit", 1, |t| {
            t.span("serve.poll", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert!(ns >= 2_000_000);
        assert!(t.spans().is_empty());
    }
}
