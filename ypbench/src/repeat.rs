//! `ypbench repeat`: does the benchmark agree with itself?
//!
//! Runs sets of end-to-end runs of the *same* code back to back — each
//! run a fresh process with another seed, workload order alternating from
//! set to set — and holds every end-to-end metric to the bound fixed in
//! `BENCHMARK.json`, the way the driver will:
//!
//! * within each set, the quartile spread (Q3 − Q1 as a share of the
//!   median) must stay within the bound (`setup_s` excepted);
//! * from the first set to the last, the median may not get worse by more
//!   than the bound.
//!
//! A metric that cannot pass this with no code change cannot gate a later
//! change: it gets more chunks, or it is demoted to a `client.*` layer
//! metric with the reason recorded.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use crate::stats::{median, quartiles, spread};
use crate::workload::WORKLOADS;
use actyp_bench::json::{self, Json};

/// One end-to-end metric's contract, from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Share of the median the metric may worsen by.
    pub bound: f64,
}

/// Runs per set and workload: as many as the driver makes.
const RUNS_PER_SET: usize = 10;
/// Seed of the first run; every later run adds one.
const FIRST_SEED: u64 = 1;

/// Reads the end-to-end bounds out of `BENCHMARK.json`.
pub fn load_bounds(path: &Path) -> Result<(Vec<Bound>, u64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let bounds = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no `end_to_end` array")?
        .iter()
        .map(|entry| {
            Some(Bound {
                name: entry.get("name")?.as_str()?.to_string(),
                lower_is_better: entry.get("better")?.as_str()? == "lower",
                bound: entry.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("malformed `end_to_end` entry")?;
    let seconds = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or("BENCHMARK.json has no `run_seconds`")? as u64;
    Ok((bounds, seconds))
}

/// Runs one child benchmark process and returns its end-to-end metrics.
fn child_run(workload: &str, seed: u64, seconds: u64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // `output` waits for the child to end before it returns.
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let doc = json::parse(last).map_err(|e| {
        format!(
            "{workload} seed {seed}: no result line ({e}); stderr: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        )
    })?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{workload} seed {seed}: run was not correct: {last}"
        ));
    }
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err(format!(
            "{workload} seed {seed}: result line has no metrics"
        ));
    };
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative: it got better).
pub fn worsening(first: f64, second: f64, lower_is_better: bool) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    let change = (second - first) / first.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

/// Judges one metric on one workload.  `sets[i]` holds set `i`'s values.
/// Returns the printed row and whether it passed.
pub fn judge(bound: &Bound, sets: &[Vec<f64>]) -> (String, bool) {
    let mut passed = true;
    let mut row = format!("  {:<20}", bound.name);
    for values in sets {
        let (q1, q3) = quartiles(values);
        let s = spread(values);
        // The driver excuses setup_s from the spread rule only.
        let spread_ok = bound.name == "setup_s" || s <= bound.bound;
        passed &= spread_ok;
        row.push_str(&format!(
            " | med {:>10.4} q1 {:>10.4} q3 {:>10.4} spread {:>6.2}%{}",
            median(values),
            q1,
            q3,
            s * 100.0,
            if spread_ok { " " } else { "!" }
        ));
    }
    let first = median(&sets[0]);
    let last = median(&sets[sets.len() - 1]);
    let gap = worsening(first, last, bound.lower_is_better);
    let gap_ok = gap <= bound.bound;
    passed &= gap_ok;
    row.push_str(&format!(
        " | gap {:>+6.2}% of bound {:>5.1}% {}",
        gap * 100.0,
        bound.bound * 100.0,
        if passed { "ok" } else { "FAIL" }
    ));
    (row, passed)
}

/// Runs `sets` sets of [`RUNS_PER_SET`] runs of `seconds` each, on every
/// workload or only on `workload`; `Ok(true)` when every metric on every
/// workload passed.
pub fn repeat(
    sets: usize,
    workload: Option<&str>,
    seconds: u64,
    bounds: &[Bound],
) -> Result<bool, String> {
    let mut workloads: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| workload.is_none_or(|w| w == *name))
        .collect();
    if workloads.is_empty() {
        return Err(format!("unknown workload {workload:?}"));
    }
    // values[workload][metric][set] -> runs
    let mut values: BTreeMap<&str, BTreeMap<String, Vec<Vec<f64>>>> = BTreeMap::new();
    let mut seed = FIRST_SEED;
    for set in 0..sets {
        for workload in &workloads {
            for run in 0..RUNS_PER_SET {
                let metrics = child_run(workload, seed, seconds)?;
                println!(
                    "set {set} {workload} run {run} seed {seed}: {}",
                    metrics
                        .iter()
                        .map(|(k, v)| format!("{k}={v:.4}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                );
                seed += 1;
                let per_metric = values.entry(workload).or_default();
                for (name, value) in metrics {
                    let sets = per_metric.entry(name).or_default();
                    sets.resize(set + 1, Vec::new());
                    sets[set].push(value);
                }
            }
        }
        // Alternate the order so no workload always runs in the same
        // place relative to the others.
        workloads.reverse();
    }

    let mut all_passed = true;
    for (workload, per_metric) in &values {
        println!("{workload}");
        for bound in bounds {
            let sets = per_metric
                .get(&bound.name)
                .ok_or_else(|| format!("{workload}: runs did not report {}", bound.name))?;
            let (row, passed) = judge(bound, sets);
            println!("{row}");
            all_passed &= passed;
        }
    }
    Ok(all_passed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(name: &str, lower: bool, b: f64) -> Bound {
        Bound {
            name: name.to_string(),
            lower_is_better: lower,
            bound: b,
        }
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(10.0, 11.0, true) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, false) + 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, false) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn a_steady_metric_passes_and_a_drifting_or_noisy_one_fails() {
        let steady: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 0.1).collect();
        let drifted: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        let noisy: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 10.0).collect();
        let b = bound("ctxsw_per_alloc", true, 0.1);
        assert!(judge(&b, &[steady.clone(), steady.clone()]).1);
        assert!(
            !judge(&b, &[steady.clone(), drifted.clone()]).1,
            "gap over bound"
        );
        assert!(
            judge(&b, &[drifted, steady.clone()]).1,
            "getting better is fine"
        );
        assert!(
            !judge(&b, &[noisy.clone(), noisy.clone()]).1,
            "spread over bound"
        );
        // setup_s is excused from the spread rule, not from the gap rule.
        assert!(judge(&bound("setup_s", true, 0.25), &[noisy.clone(), noisy]).1);
    }

    #[test]
    fn the_committed_benchmark_json_holds_the_bounds_the_issue_fixed() {
        let (bounds, seconds) =
            load_bounds(&crate::benchmark_json()).expect("BENCHMARK.json parses");
        assert!((1..=60).contains(&seconds));
        let table: Vec<(&str, bool, f64)> = bounds
            .iter()
            .map(|b| (b.name.as_str(), b.lower_is_better, b.bound))
            .collect();
        // Counts 3 %, memory 5 %; `setup_s` has the contract's widest
        // bound, 25 %, and is excused from the spread rule.
        assert_eq!(
            table,
            [
                ("ctxsw_per_alloc", true, 0.03),
                ("syscalls_per_alloc", true, 0.03),
                ("setup_s", true, 0.25),
                ("rss_peak_mb", true, 0.05),
            ]
        );
    }
}
