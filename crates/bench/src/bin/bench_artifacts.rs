//! `bench_artifacts` — emit and gate the tracked `BENCH_*.json` artifacts.
//!
//! ```text
//! # regenerate every committed artifact at quick scale
//! ACTYP_QUICK=1 cargo run --release -p actyp-bench --bin bench_artifacts -- emit
//!
//! # gate a change: rerun each committed topic at its committed scale and
//! # compare (exits nonzero on any regression): a simulated topic within
//! # tolerance bands, a measured one for structure only
//! cargo run --release -p actyp-bench --bin bench_artifacts -- check
//! ```
//!
//! `emit` runs at [`Scale::from_env`] (so `ACTYP_QUICK=1` selects the CI
//! scale); `check` reruns each topic at the scale recorded *in* the
//! committed artifact, so it needs no environment at all, and refuses a
//! committed artifact stamped `+dirty`: one emitted from an uncommitted
//! tree, whose numbers no commit reproduces.  See
//! EXPERIMENTS.md for what each topic measures.

use std::path::PathBuf;

use actyp_bench::harness::{
    check_summary, compare, load_artifact, run_topic, scale_for_label, unreproducible,
    write_artifact, ArtifactKind, DEFAULT_TOLERANCE, TOPICS,
};
use actyp_bench::Scale;

fn usage() -> ! {
    eprintln!(
        "usage: bench_artifacts emit  [--dir DIR] [--topic T]...\n\
         \x20      bench_artifacts check [--dir DIR] [--topic T]... [--tolerance F]\n\
         \n\
         topics: {}\n\
         default --dir: benchmarks",
        TOPICS.join(", ")
    );
    std::process::exit(2);
}

struct Args {
    dir: PathBuf,
    topics: Vec<String>,
    tolerance: f64,
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        dir: PathBuf::from("benchmarks"),
        topics: Vec::new(),
        tolerance: DEFAULT_TOLERANCE,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--dir" => {
                i += 1;
                args.dir = PathBuf::from(argv.get(i).unwrap_or_else(|| usage()));
            }
            "--topic" => {
                i += 1;
                args.topics
                    .push(argv.get(i).unwrap_or_else(|| usage()).clone());
            }
            "--tolerance" => {
                i += 1;
                args.tolerance = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
        i += 1;
    }
    if args.topics.is_empty() {
        args.topics = TOPICS.iter().map(|t| t.to_string()).collect();
    }
    args
}

fn emit(args: &Args) -> Result<(), String> {
    let scale = Scale::from_env();
    for topic in &args.topics {
        let artifact = run_topic(topic, &scale)?;
        let path = write_artifact(&args.dir, &artifact)?;
        eprintln!(
            "emitted {} ({} points, scale {})",
            path.display(),
            artifact.points.len(),
            artifact.scale
        );
    }
    Ok(())
}

fn check(args: &Args) -> Result<(), String> {
    let mut failures = Vec::new();
    let (mut banded, mut structural) = (0usize, 0usize);
    for topic in &args.topics {
        let committed = match load_artifact(&args.dir, topic) {
            Ok(a) => a,
            Err(e) => {
                failures.push(format!("{topic}: no committed artifact: {e}"));
                continue;
            }
        };
        if let Some(refused) = unreproducible(&committed) {
            failures.push(refused);
            continue;
        }
        let scale = scale_for_label(&committed.scale)?;
        let fresh = run_topic(topic, &scale)?;
        let verdict = compare(&committed, &fresh, args.tolerance);
        match verdict.kind {
            ArtifactKind::Simulated => banded += verdict.compared_points,
            ArtifactKind::Measured => structural += verdict.compared_points,
        }
        if verdict.passed() {
            eprintln!("{}", verdict.ok_line(topic, args.tolerance));
        } else {
            failures.extend(verdict.failures);
        }
    }
    if failures.is_empty() {
        eprintln!(
            "{}",
            check_summary(args.topics.len(), banded, structural, args.tolerance)
        );
        Ok(())
    } else {
        for failure in &failures {
            eprintln!("bench-check: FAIL: {failure}");
        }
        Err(format!("{} band(s) violated", failures.len()))
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else { usage() };
    let args = parse_args(&argv[1..]);
    let result = match command.as_str() {
        "emit" => emit(&args),
        "check" => check(&args),
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("bench_artifacts: {e}");
        std::process::exit(1);
    }
}
