//! `ypbench` — a repeatable allocation benchmark for the ActYP daemon.
//!
//! ```text
//! ypbench --workload W [--seed N] [--seconds S] [--trace 0|1]
//! ypbench selfcheck
//! ypbench repeat [--sets 2] [--workload W]
//! ```
//!
//! A run self-hosts the real daemon(s) in this process on loopback, drives
//! them from two closed-loop client threads with a seed-generated request
//! list, checks every outcome, prints every metric by name and unit, and
//! ends with one JSON line: `correct`, `attempted`, `failed`, `metrics`.
//! `--trace 0` measures and prints the end-to-end metrics; `--trace 1` the
//! per-layer ones (traced chunks, layer pass, deployment ladder); without
//! `--trace` both.  See `README.md` for what each metric means and why
//! time is reported in yardstick units.

mod affinity;
mod deploy;
mod driver;
mod ladder;
mod layers;
mod pass;
mod procfs;
mod repeat;
mod run;
mod stats;
mod trace;
mod workload;
mod yardstick;

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use actyp_bench::json::Json;
use run::{Metric, Mode, Outcome};

/// Serialises the tests that time things or count syscalls: `cargo test`
/// runs tests on parallel threads, and these disturb one another.
#[cfg(test)]
pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 0x42;
/// Spread of an idle host's yardsticks above which measuring is refused.
const SELFCHECK_LIMIT: f64 = 0.25;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ypbench --workload W [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      ypbench selfcheck\n\
         \x20      ypbench repeat [--sets 2] [--workload W]"
    );
    ExitCode::from(2)
}

/// `--key value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Option<Flags> {
        if !args.len().is_multiple_of(2) {
            return None;
        }
        args.chunks(2)
            .map(|pair| {
                pair[0]
                    .strip_prefix("--")
                    .map(|key| (key.to_string(), pair[1].clone()))
            })
            .collect::<Option<Vec<_>>>()
            .map(Flags)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// A whole number, decimal or `0x` hexadecimal.
    fn number(&self, key: &str, default: u64) -> Option<u64> {
        match self.get(key) {
            None => Some(default),
            Some(raw) => match raw.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => raw.parse().ok(),
            },
        }
    }

    fn only(&self, known: &[&str]) -> bool {
        self.0.iter().all(|(k, _)| known.contains(&k.as_str()))
    }
}

pub(crate) fn benchmark_json() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn print_table(title: &str, metrics: &[Metric]) {
    if metrics.is_empty() {
        return;
    }
    println!("{title}");
    for metric in metrics {
        println!(
            "  {:<40} {:>16.6} {}",
            metric.name, metric.value, metric.unit
        );
    }
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, values printed with all their digits.
fn result_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let entry = Json::obj(vec![
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.to_string())),
            ]);
            (m.name, entry)
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_compact()
}

fn run_command(flags: &Flags) -> ExitCode {
    if !flags.only(&["workload", "seed", "seconds", "trace"]) {
        return usage();
    }
    let Some(spec) = flags.get("workload").and_then(workload::find) else {
        eprintln!(
            "ypbench: --workload must be one of: {}",
            workload::WORKLOADS.each_ref().map(|w| w.name).join(", ")
        );
        return ExitCode::from(2);
    };
    let (Some(seed), Some(seconds)) = (
        flags.number("seed", DEFAULT_SEED),
        flags.number("seconds", 15),
    ) else {
        return usage();
    };
    // Without `--trace`: both, one after the other, for a person.
    let modes: &[Mode] = match flags.get("trace") {
        None => &[Mode::EndToEnd, Mode::Layers],
        Some("0") => &[Mode::EndToEnd],
        Some("1") => &[Mode::Layers],
        Some(_) => return usage(),
    };
    if !(1..=60).contains(&seconds) {
        eprintln!("ypbench: --seconds must be 1..=60");
        return ExitCode::from(2);
    }

    println!("workload {}: {}", spec.name, spec.why);
    println!(
        "seed {seed:#x}, {seconds} s, {} hardware threads, loopback only",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let placement = affinity::Placement::detect();
    println!("{}", placement.describe());
    let mut outcome = Outcome::default();
    for mode in modes {
        match run::run(spec, seed, seconds, *mode, &placement) {
            Ok(mut part) => {
                for note in &part.notes {
                    println!("{note}");
                }
                outcome.attempted += part.attempted;
                outcome.failed += part.failed;
                outcome.violations.append(&mut part.violations);
                outcome.end_to_end.append(&mut part.end_to_end);
                outcome.per_layer.append(&mut part.per_layer);
            }
            Err(e) => {
                // The system under test could not be run at all: no result.
                eprintln!("ypbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    print_table("end-to-end", &outcome.end_to_end);
    print_table("per-layer", &outcome.per_layer);
    for violation in outcome.violations.iter().take(50) {
        println!("violation: {violation}");
    }
    if outcome.violations.len() > 50 {
        println!("... and {} more violations", outcome.violations.len() - 50);
    }
    let mut metrics = outcome.end_to_end.clone();
    metrics.extend(outcome.per_layer.iter().cloned());
    println!("{}", result_line(&outcome, &metrics));
    ExitCode::SUCCESS
}

fn selfcheck_command() -> ExitCode {
    match yardstick::selfcheck(Duration::from_secs(5)) {
        Err(e) => {
            eprintln!("ypbench: {e}");
            ExitCode::FAILURE
        }
        Ok(check) => {
            println!(
                "{} samples over 5 s\n  yardstick.echo_us  {:>10.3} us  spread {:>6.2}%\n  yardstick.spin_ms  {:>10.3} ms  spread {:>6.2}%\n  yardstick.spread   {:>10.4}",
                check.samples,
                check.echo_s * 1e6,
                check.echo_spread * 100.0,
                check.spin_s * 1e3,
                check.spin_spread * 100.0,
                check.spread()
            );
            if check.spread() > SELFCHECK_LIMIT {
                println!(
                    "host too disturbed to measure: spread above {SELFCHECK_LIMIT}; do not record runs now"
                );
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
    }
}

fn repeat_command(flags: &Flags) -> ExitCode {
    if !flags.only(&["sets", "workload"]) {
        return usage();
    }
    let Some(sets) = flags.number("sets", 2).filter(|sets| *sets >= 2) else {
        eprintln!("ypbench: repeat needs at least 2 sets");
        return ExitCode::from(2);
    };
    let outcome = repeat::load_bounds(&benchmark_json()).and_then(|(bounds, run_seconds)| {
        repeat::repeat(sets as usize, flags.get("workload"), run_seconds, &bounds)
    });
    match outcome {
        Ok(true) => {
            println!("repeat: every metric within its bound");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            println!("repeat: at least one metric outside its bound");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("ypbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(cmd @ ("selfcheck" | "repeat")) => (cmd, &args[1..]),
        _ => ("run", &args[..]),
    };
    let Some(flags) = Flags::parse(rest) else {
        return usage();
    };
    match command {
        "selfcheck" if rest.is_empty() => selfcheck_command(),
        "repeat" => repeat_command(&flags),
        "run" => run_command(&flags),
        _ => usage(),
    }
}
