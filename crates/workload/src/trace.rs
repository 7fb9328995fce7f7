//! Per-request traces and CSV rendering.
//!
//! The benchmark harness records one [`TraceRecord`] per simulated or live
//! request and renders figure series as CSV so the paper's plots can be
//! regenerated with any plotting tool.

use std::fmt::Write as _;

/// One observed request.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Submission time, seconds from experiment start.
    pub submitted_at: f64,
    /// Response time in seconds.
    pub response_seconds: f64,
    /// Number of machines the scheduling process examined.
    pub examined: usize,
    /// Whether the request obtained a machine.
    pub succeeded: bool,
    /// Label of the experiment configuration (e.g. "pools=8").
    pub label: String,
}

/// A collection of trace records.
#[derive(Debug, Clone, Default)]
// lint-allow(reach): tests/workload_generators.rs round-trips it through CSV
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn push(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Mean response time over all records (zero when empty).
    pub fn mean_response(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.response_seconds).sum::<f64>() / self.records.len() as f64
    }

    /// Fraction of successful requests (1.0 when empty).
    pub fn success_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        self.records.iter().filter(|r| r.succeeded).count() as f64 / self.records.len() as f64
    }

    /// Renders the trace as CSV with a header row.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("label,submitted_at,response_seconds,examined,succeeded\n");
        for r in &self.records {
            let _ = writeln!(
                out,
                "{},{:.6},{:.6},{},{}",
                r.label, r.submitted_at, r.response_seconds, r.examined, r.succeeded
            );
        }
        out
    }
}

/// Renders a figure series — `(x, one y per named column)` rows — as CSV.
/// This is the format every `fig*` binary prints.
pub fn series_csv(x_name: &str, columns: &[&str], rows: &[(f64, Vec<f64>)]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{x_name}");
    for c in columns {
        let _ = write!(out, ",{c}");
    }
    let _ = writeln!(out);
    for (x, ys) in rows {
        let _ = write!(out, "{x}");
        for y in ys {
            let _ = write!(out, ",{y:.6}");
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(label: &str, response: f64, ok: bool) -> TraceRecord {
        TraceRecord {
            submitted_at: 0.5,
            response_seconds: response,
            examined: 100,
            succeeded: ok,
            label: label.to_string(),
        }
    }

    #[test]
    fn trace_statistics() {
        let mut trace = Trace::new();
        assert!(trace.is_empty());
        assert_eq!(trace.mean_response(), 0.0);
        assert_eq!(trace.success_rate(), 1.0);
        trace.push(record("a", 0.2, true));
        trace.push(record("a", 0.4, false));
        assert_eq!(trace.len(), 2);
        assert!((trace.mean_response() - 0.3).abs() < 1e-12);
        assert!((trace.success_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn csv_has_header_and_one_line_per_record() {
        let mut trace = Trace::new();
        trace.push(record("pools=8", 0.25, true));
        let csv = trace.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("label,"));
        assert!(lines[1].starts_with("pools=8,"));
        assert!(lines[1].ends_with("true"));
    }

    #[test]
    fn series_csv_renders_columns() {
        let csv = series_csv(
            "pools",
            &["clients=8", "clients=16"],
            &[(2.0, vec![1.2, 1.4]), (4.0, vec![0.7, 0.9])],
        );
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "pools,clients=8,clients=16");
        assert!(lines[1].starts_with("2,1.2"));
        assert_eq!(lines.len(), 3);
    }
}
