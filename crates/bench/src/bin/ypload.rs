//! `ypload` — load generator for a `ypd` daemon.
//!
//! Drives N concurrent client connections, each keeping D tickets in
//! flight (pipelined submission over one connection, the paper's batched
//! allocate/release loop), against a daemon self-hosted on loopback — or
//! against an external one with `--connect`.  Prints a summary line, or a
//! single `BENCH_*`-style JSON point with `--json`.
//!
//! ```text
//! ypload --clients 16 --depth 8 --requests 200 --backend live
//! ypd --listen 127.0.0.1:7431 --machines 1024 &
//! ypload --connect 127.0.0.1:7431 --clients 16 --depth 8
//! ```
//!
//! See EXPERIMENTS.md for the saturation sweeps built on this.

use actyp_bench::harness::{run_load, run_load_against, LoadSpec};
use actyp_bench::json::Json;
use actyp_pipeline::StageAddress;

fn usage() -> ! {
    eprintln!(
        "usage: ypload [--connect HOST:PORT] [--clients N] [--depth D] [--requests N]\n\
         \x20             [--duration SECS] [--machines N] [--pools N] [--window N]\n\
         \x20             [--idle N] [--seed S] [--json] [--halt]\n\
         \x20             [--backend live|central-queue|matchmaker]\n\
         \n\
         With --duration each client submits for SECS seconds instead of\n\
         counting --requests.  Self-hosts a ypd on loopback unless --connect\n\
         is given (then the --machines/--window/--backend flags are\n\
         ignored: they describe the daemon, which already exists).\n\
         --halt asks the --connect daemon to drain after a clean run, so a\n\
         scripted daemon can be `wait`ed on."
    );
    std::process::exit(2);
}

fn main() {
    let mut spec = LoadSpec::default();
    let mut connect: Option<StageAddress> = None;
    let mut json = false;
    let mut halt = false;

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> &str {
        *i += 1;
        argv.get(*i).map(String::as_str).unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--connect" => {
                connect = Some(value(&mut i).parse().unwrap_or_else(|e| {
                    eprintln!("ypload: bad --connect address: {e}");
                    std::process::exit(2);
                }))
            }
            "--clients" => spec.clients = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--depth" => spec.depth = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--requests" => {
                spec.requests_per_client = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--duration" => {
                let secs: f64 = value(&mut i).parse().unwrap_or_else(|_| usage());
                if !secs.is_finite() || secs <= 0.0 {
                    usage();
                }
                spec.duration = Some(std::time::Duration::from_secs_f64(secs));
            }
            "--machines" => spec.machines = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--pools" => spec.pools = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--window" => spec.window = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--idle" => spec.idle_sessions = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => spec.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--backend" => {
                spec.backend = value(&mut i).parse().unwrap_or_else(|e: String| {
                    eprintln!("ypload: {e}");
                    usage()
                })
            }
            "--json" => json = true,
            "--halt" => halt = true,
            _ => usage(),
        }
        i += 1;
    }

    let result = match &connect {
        Some(addr) => run_load_against(addr, &spec),
        None => run_load(&spec),
    };
    let mut result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ypload: {e}");
            std::process::exit(1);
        }
    };

    let throughput = result.throughput();
    let (mean, p50, p95, p99, p999) = (
        result.latencies.mean(),
        result.latencies.quantile(0.50),
        result.latencies.quantile(0.95),
        result.latencies.quantile(0.99),
        result.latencies.quantile(0.999),
    );
    if json {
        let point = Json::obj(vec![
            ("clients", Json::Num(spec.clients as f64)),
            ("depth", Json::Num(spec.depth as f64)),
            ("idle_sessions", Json::Num(spec.idle_sessions as f64)),
            ("completed", Json::Num(result.completed as f64)),
            ("failed", Json::Num(result.failed as f64)),
            ("elapsed_secs", Json::Num(result.elapsed.as_secs_f64())),
            ("throughput", Json::Num(throughput)),
            ("mean", Json::Num(mean)),
            ("p50", Json::Num(p50)),
            ("p95", Json::Num(p95)),
            ("p99", Json::Num(p99)),
            ("p99_9", Json::Num(p999)),
        ]);
        print!("{}", point.to_pretty());
    } else {
        println!(
            "ypload: {} clients x depth {} -> {} completed, {} failed in {:.3}s \
             ({:.1} req/s; latency mean {:.2}ms p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms \
             p99.9 {:.2}ms)",
            spec.clients,
            spec.depth,
            result.completed,
            result.failed,
            result.elapsed.as_secs_f64(),
            throughput,
            mean * 1e3,
            p50 * 1e3,
            p95 * 1e3,
            p99 * 1e3,
            p999 * 1e3,
        );
    }
    if result.failed > 0 {
        std::process::exit(1);
    }
    if halt {
        let Some(addr) = &connect else {
            // A self-hosted daemon already drained when run_load returned.
            return;
        };
        match actyp_pipeline::PipelineBuilder::remote(addr) {
            Ok(manager) => {
                if let Err(e) = manager.halt_daemon() {
                    eprintln!("ypload: --halt failed: {e}");
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("ypload: --halt could not reconnect: {e}");
                std::process::exit(1);
            }
        }
    }
}
