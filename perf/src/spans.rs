//! Spans recorded from the benchmark's own code around each call into a
//! layer, kept in memory and written at exit as Chrome trace-event JSON.
//!
//! Hot calls (`Scheduler::advance`, admission ops, fuzz runs) are not
//! spans; they go to per-name [`crate::metrics::Hist`]s.

use std::fmt::Write as _;
use std::time::Instant;

use crate::metrics::json_str;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
    pub parent: Option<SpanId>,
    /// Shared by every span of one run or op.
    pub run: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The in-memory span log. A disabled tracer records nothing; the
/// untraced runs use one, so both sides execute the same code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` when disabled.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, run: u64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            run,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end = self.now();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        run: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, run);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a Chrome trace-event document ("X" complete events,
    /// microsecond timestamps; parent, run and self time in `args`).
    pub fn chrome_json(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\": {}, \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": 1, \
                 \"args\": {{\"span\": {i}, \"parent\": {parent}, \"run\": {}, \"self_ns\": {self_ns}}}}}",
                json_str(s.name),
                s.start / 1_000,
                s.duration() / 1_000,
                s.run
            );
        }
        out.push_str("\n], \"displayTimeUnit\": \"ns\"}\n");
        out
    }

    /// Per span name: `(name, count, total ns, self ns)`, in first-seen
    /// order.
    pub fn summary(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let selfs = self_times(&self.spans);
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.duration();
                    r.3 += self_ns;
                }
                None => rows.push((s.name, 1, s.duration(), self_ns)),
            }
        }
        rows
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (start, end) = (s.start.max(parent.start), s.end.min(parent.end));
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "s",
            start,
            end,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)), // overlaps its sibling: 10..50 covered once
            span(60, 70, Some(0)),
            span(25, 28, Some(2)),
            span(90, 130, Some(0)), // runs past its parent: only 90..100 counts
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 40 - 10 - 10, 20, 27, 10, 3, 40]
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", None, 0, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn trace_file_parses() {
        let mut t = Tracer::new(true);
        let run = t.open("run", None, 1);
        t.span("layer.call", run, 1, || std::hint::black_box(3));
        t.close(run);
        let events = rossl_obs::parse_chrome_trace(&t.chrome_json()).expect("valid Chrome trace");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].name, "layer.call");
        assert_eq!(events[0].ph, "X");
        let rows = t.summary();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].3 <= rows[0].2);
    }
}
