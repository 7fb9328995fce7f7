//! In-memory spans around the benchmark's own calls into the system.
//!
//! A span is `(id, parent, name, start, end, request)`.  The traced pass
//! records one `alloc` span per allocation with `submit`, `wait` and
//! `release` children, under one `chunk` span per chunk; spans of one
//! request share its request id.  Spans stay in memory until the pass is
//! over and are then written to `ypbench/out/trace-<workload>.json`.
//! End-to-end metrics always come from the *untraced* pass; the traced
//! chunks are interleaved with untraced ones and the ratio of their
//! per-allocation wall time is `trace.overhead_ratio`.
//!
//! Spans inside the daemon are a later change (ROADMAP "stage clocks");
//! the per-layer breakdown here comes from the deployment ladder and the
//! layer pass, which need no hooks in the program.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use actyp_bench::json::{self, Json};

/// One recorded span.  Times are microseconds since the sink's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within a sink.
    pub id: u64,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<u64>,
    /// `chunk`, `alloc`, `submit`, `wait` or `release`.
    pub name: &'static str,
    /// Start, µs since the epoch.
    pub start_us: f64,
    /// End, µs since the epoch (`NaN` while the span is open).
    pub end_us: f64,
    /// The request this span belongs to (`None` for `chunk`).
    pub request: Option<u64>,
}

/// Issues span ids and converts instants to epoch-relative time.  Spans
/// themselves are pushed into per-thread vectors, so recording takes no
/// lock.
#[derive(Debug)]
pub struct SpanSink {
    epoch: Instant,
    next: AtomicU64,
}

impl Default for SpanSink {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanSink {
    /// A sink whose epoch is now.
    pub fn new() -> Self {
        SpanSink {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
        }
    }

    fn micros(&self, at: Instant) -> f64 {
        at.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    fn next_id(&self) -> u64 {
        // Relaxed: the id publishes nothing but itself.
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens a span starting now; close it with [`SpanSink::close`].
    pub fn open(
        &self,
        spans: &mut Vec<Span>,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
    ) -> u64 {
        let id = self.next_id();
        spans.push(Span {
            id,
            parent,
            name,
            start_us: self.micros(Instant::now()),
            end_us: f64::NAN,
            request,
        });
        id
    }

    /// Ends the open span `id` now.  Open spans are among the most
    /// recently pushed, so the search runs from the back.
    pub fn close(&self, spans: &mut [Span], id: u64) {
        let now = self.micros(Instant::now());
        if let Some(span) = spans.iter_mut().rev().find(|s| s.id == id) {
            span.end_us = now;
        }
    }

    /// Records a finished child span from instants the caller already
    /// took for its own timing, so tracing adds no clock reads to a call.
    pub fn record(
        &self,
        spans: &mut Vec<Span>,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        spans.push(Span {
            id: self.next_id(),
            parent: Some(parent),
            name,
            start_us: self.micros(start),
            end_us: self.micros(end),
            request: Some(request),
        });
    }
}

/// The directory span files go to: `ypbench/out/`, beside this crate's
/// manifest wherever the checkout is.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Renders a span file: one span per line.
pub fn render(workload: &str, seed: u64, spans: &[Span]) -> String {
    let opt = |id: Option<u64>| id.map_or(Json::Null, |v| Json::Num(v as f64));
    let lines: Vec<String> = spans
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("id", Json::Num(s.id as f64)),
                ("parent", opt(s.parent)),
                ("name", Json::Str(s.name.to_string())),
                ("start", Json::Num(s.start_us)),
                ("end", Json::Num(s.end_us)),
                ("request", opt(s.request)),
            ])
            .to_compact()
        })
        .collect();
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"time_unit\":\"us\",\"spans\":[\n{}\n]}}\n",
        Json::Str(workload.to_string()).to_compact(),
        lines.join(",\n")
    )
}

/// Writes `spans` to `out/trace-<workload>.json` and returns the path.
/// The rendered file is validated first: a trace whose spans do not nest
/// is a bug in the recorder, not something to hand to a reader.
pub fn write(workload: &str, seed: u64, spans: &[Span]) -> Result<PathBuf, String> {
    let text = render(workload, seed, spans);
    validate(&text)?;
    let dir = out_dir();
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Checks a rendered span file: it parses, ids are unique, every parent
/// exists, every span is closed, and every child lies inside its parent.
/// Returns the number of spans.
pub fn validate(text: &str) -> Result<usize, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let spans = doc
        .get("spans")
        .and_then(Json::as_arr)
        .ok_or("no `spans` array")?;
    let mut by_id = std::collections::HashMap::new();
    for span in spans {
        let num = |key: &str| {
            span.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("span without numeric `{key}`"))
        };
        let (id, start, end) = (num("id")? as u64, num("start")?, num("end")?);
        if end.is_nan() || end < start {
            return Err(format!("span {id} is open or ends before it starts"));
        }
        if by_id.insert(id, (start, end)).is_some() {
            return Err(format!("span id {id} used twice"));
        }
    }
    for span in spans {
        let Some(parent) = span.get("parent").and_then(Json::as_f64) else {
            continue;
        };
        let id = span.get("id").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let (start, end) = by_id[&id];
        let (p_start, p_end) = *by_id
            .get(&(parent as u64))
            .ok_or_else(|| format!("span {id} names a missing parent"))?;
        if start < p_start || end > p_end {
            return Err(format!("span {id} is not inside its parent"));
        }
    }
    Ok(spans.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_spans_render_to_a_file_that_validates() {
        let sink = SpanSink::new();
        let mut spans = Vec::new();
        let chunk = sink.open(&mut spans, "chunk", None, None);
        let alloc = sink.open(&mut spans, "alloc", Some(chunk), Some(7));
        let a = Instant::now();
        let b = Instant::now();
        sink.record(&mut spans, "submit", alloc, 7, a, b);
        sink.record(&mut spans, "wait", alloc, 7, b, Instant::now());
        sink.close(&mut spans, alloc);
        sink.close(&mut spans, chunk);
        let text = render("unit-test", 0x42, &spans);
        assert_eq!(validate(&text), Ok(4));
        let doc = json::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("workload").and_then(Json::as_str),
            Some("unit-test")
        );
    }

    #[test]
    fn a_child_outside_its_parent_or_an_open_span_is_rejected() {
        let span = |id, parent, start_us, end_us| Span {
            id,
            parent,
            name: "alloc",
            start_us,
            end_us,
            request: None,
        };
        let escaped = [span(1, None, 10.0, 20.0), span(2, Some(1), 15.0, 25.0)];
        assert!(validate(&render("w", 1, &escaped))
            .unwrap_err()
            .contains("not inside"));
        let orphan = [span(2, Some(9), 1.0, 2.0)];
        assert!(validate(&render("w", 1, &orphan))
            .unwrap_err()
            .contains("missing parent"));
        let open = [span(1, None, 1.0, f64::NAN)];
        assert!(validate(&render("w", 1, &open)).is_err());
    }
}
