//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into the product crates' public
//! functions, from the benchmark's own code: name, start, end, parent
//! span and request id. They stay in memory while the traced phase runs
//! and are written out as JSON lines when it ends. A layer's self time is
//! its span's duration minus the part of that interval its child spans
//! cover; children may overlap when they ran on parallel workers.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::report::Outcome;
use crate::Args;

/// One recorded span, times in nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans plus counts recorded at the same boundaries.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn ns_since_origin(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let index = self.spans.len();
        let start_ns = self.ns_since_origin(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.ns_since_origin(Instant::now());
        out
    }

    /// Records a span whose interval was measured elsewhere (on a parallel
    /// worker), under `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            name,
            start_ns: self.ns_since_origin(start),
            end_ns: self.ns_since_origin(end),
            parent,
            request,
        });
    }

    /// Index of the most recently opened or recorded span named `name`.
    pub fn last_index(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_insert(0.0) += value;
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Durations of every span named `name`, microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Summed duration of every span named `name`, milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum::<f64>() / 1e3
    }

    /// Summed self time of every span named `name`, milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        let self_ns: u64 = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                s.duration_ns()
                    .saturating_sub(covered_ns(&mut children[i], s))
            })
            .sum();
        self_ns as f64 / 1e6
    }

    /// Milliseconds of `[start, end)` covered by spans named in `layers`
    /// (overlaps counted once).
    pub fn covered_ms(&self, layers: &[&str], start: Instant, end: Instant) -> f64 {
        let window = Span {
            name: "window",
            start_ns: self.ns_since_origin(start),
            end_ns: self.ns_since_origin(end),
            parent: None,
            request: 0,
        };
        let mut intervals: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| layers.contains(&s.name))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        covered_ns(&mut intervals, &window) as f64 / 1e6
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                span.name, span.start_ns, span.end_ns, parent, span.request
            )?;
        }
        out.flush()
    }
}

/// Nanoseconds of `window` covered by the union of `intervals`.
fn covered_ns(intervals: &mut [(u64, u64)], window: &Span) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = window.start_ns;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(window.end_ns);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Reports the part of the traced phase no layer span covers as
/// `trace.other_ms` and writes the spans out.
pub fn finish_trace(
    args: &Args,
    outcome: &mut Outcome,
    rec: &Recorder,
    layers: &[&str],
    start: Instant,
    end: Instant,
) -> Result<(), String> {
    let wall_ms = (end - start).as_secs_f64() * 1e3;
    let covered_ms = rec.covered_ms(layers, start, end);
    outcome.set("trace.other_ms", wall_ms - covered_ms);
    outcome.set(
        "trace.overhead_ms",
        rec.span_count() as f64 * span_cost_ms(),
    );
    eprintln!(
        "{}: traced phase {:.1} ms, layer calls cover {:.2} %, {} spans",
        args.workload,
        wall_ms,
        100.0 * covered_ms / wall_ms.max(f64::MIN_POSITIVE),
        rec.span_count()
    );
    let path = args
        .workdir
        .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    rec.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// What recording one span costs, milliseconds: a loop of empty calls
/// traced minus the same loop untraced. The traced phase's own
/// traced-minus-untraced difference is this times its span count; timing
/// the whole phase twice would bury it under run-to-run noise.
fn span_cost_ms() -> f64 {
    const CALLS: u64 = 200_000;
    let mut rec = Recorder::new();
    let started = Instant::now();
    for i in 0..CALLS {
        rec.span("calibration", i, |_| std::hint::black_box(i));
    }
    let traced = started.elapsed();
    let started = Instant::now();
    for i in 0..CALLS {
        std::hint::black_box(i);
    }
    let untraced = started.elapsed();
    traced.saturating_sub(untraced).as_secs_f64() * 1e3 / CALLS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "window",
            start_ns,
            end_ns,
            parent: None,
            request: 0,
        }
    }

    #[test]
    fn overlapping_intervals_are_covered_once() {
        let mut intervals = [(30, 60), (0, 10), (5, 20), (50, 120)];
        assert_eq!(covered_ns(&mut intervals, &window(0, 100)), 10 + 10 + 70);
    }

    #[test]
    fn self_time_subtracts_nested_spans() {
        let mut rec = Recorder::new();
        rec.span("outer", 1, |rec| {
            rec.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let outer = rec.total_ms("outer");
        assert!(rec.self_ms("outer") < outer - 19.0);
        assert!((rec.self_ms("inner") - rec.total_ms("inner")).abs() < 1e-9);
    }
}
