//! `ypd` — the Active Yellow Pages daemon.
//!
//! Hosts any `ResourceManager` backend (the pipeline, behind its admission
//! window, or a centralized baseline) behind the versioned `actyp-proto`
//! wire protocol, over a synthetic white-pages fleet.  Clients connect with
//! `actyp_pipeline::api::PipelineBuilder::remote` (or any implementation of
//! the protocol) and drive the exact same API the in-process backends
//! serve.
//!
//! ```text
//! ypd --listen 127.0.0.1:7411 --backend live --machines 500 --seed 42
//! ```
//!
//! # Thread model
//!
//! Session I/O is event driven: a fixed pool of I/O threads
//! (`--io-threads`) drives every connection's nonblocking socket through
//! an epoll/poll reactor (the platform picks the poller), and every backend
//! call is a completion that parks no thread.  A pipeline stage has no
//! thread of its own either: it runs on the thread that finds it idle, so
//! the I/O threads step the pool-manager stages themselves, and one that
//! finds a stage held leaves its message for the holder.  The daemon's
//! thread count is therefore the I/O pool, however many clients, peer
//! daemons and pool-manager stages it has.
//!
//! # Wide-area federation
//!
//! Give the daemon a domain name and peer addresses and it joins the
//! paper's WAN topology: a query its own backend cannot satisfy is
//! delegated to peers over the wire, carrying a TTL and the visited-domain
//! list, and the originating client's ticket settles with the remote
//! allocation (or `TtlExpired` when the federation is exhausted):
//!
//! ```text
//! ypd --listen 127.0.0.1:7421 --domain purdue --arch sun --peer 127.0.0.1:7422 &
//! ypd --listen 127.0.0.1:7422 --domain upc    --arch hp  --peer 127.0.0.1:7421 &
//! ```
//!
//! The listen address may also come from the `ACTYP_YPD_LISTEN` environment
//! variable, the domain from `ACTYP_YPD_DOMAIN`, and the peer list from
//! `ACTYP_YPD_PEERS` (comma separated); explicit flags win.  The daemon
//! runs until a client sends the protocol's `Halt` frame (see the
//! `remote_quickstart` example's `--halt` flag), then drains gracefully:
//! the listener stops accepting, open sessions finish and are settled, and
//! the hosted backend is torn down.  Exit status is 0 after a clean drain,
//! non-zero on any failure.

use std::process::ExitCode;

use actyp_grid::{FleetSpec, SyntheticFleet};
use actyp_pipeline::{
    BackendKind, FederationConfig, PipelineBuilder, ResourceManager, StageAddress,
};

const USAGE: &str = "\
usage: ypd [--listen HOST:PORT] [--backend KIND] [--machines N] [--seed N]
           [--arch NAME] [--pool-managers N] [--window N]
           [--io-threads N]
           [--domain NAME] [--peer HOST:PORT]... [--ttl N]
           [--gossip-interval MS] [--probe-interval MS]
           [--stats-interval N]

  --listen HOST:PORT   address to bind (default: $ACTYP_YPD_LISTEN or 127.0.0.1:7411)
  --backend KIND       live | central-queue | matchmaker (default: live); a
                       stage of the live pipeline runs on the I/O thread
                       that finds it idle
  --machines N         synthetic fleet size (default: 500)
  --seed N             synthetic fleet / pipeline RNG seed (default: 42)
  --arch NAME          homogeneous fleet of this architecture (default: mixed fleet)
  --pool-managers N    pool-manager stages (default: 1)
  --window N           live-backend in-flight window (default: 32)
  --io-threads N       reactor I/O threads driving all session sockets
                       (default: $ACTYP_YPD_IO_THREADS or 2)
  --domain NAME        administrative-domain name for wide-area federation
                       (default: $ACTYP_YPD_DOMAIN; required with --peer)
  --peer HOST:PORT     peer daemon to delegate unsatisfiable queries to
                       (repeatable; default: $ACTYP_YPD_PEERS, comma separated)
  --ttl N              delegation time-to-live granted to queries (default: 8)
  --gossip-interval MS anti-entropy gossip period in milliseconds; each round
                       pushes advertisement-log deltas to every peer over the
                       standing links (0 disables the periodic tick, leaving
                       only piggybacked deltas; default: 1000)
  --probe-interval MS  peer-link health-probe period in milliseconds; each
                       round pings every established peer link on a short
                       deadline and prunes peers that fail, so dead peers
                       are noticed between delegations (0 disables;
                       default: 5000)
  --stats-interval N   print a machine-readable stats line every N seconds
                       (the line load generators and the bench harness scrape;
                       0 disables, the default)
  -h, --help           print this usage and exit";

#[derive(Debug, PartialEq)]
struct Config {
    listen: StageAddress,
    backend: BackendKind,
    machines: usize,
    seed: u64,
    arch: Option<String>,
    pool_managers: usize,
    window: usize,
    io_threads: usize,
    domain: Option<String>,
    peers: Vec<StageAddress>,
    ttl: u32,
    gossip_interval_ms: u64,
    probe_interval_ms: u64,
    stats_interval: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            listen: StageAddress::new("127.0.0.1", 7411),
            backend: BackendKind::Live,
            machines: 500,
            seed: 42,
            arch: None,
            pool_managers: 1,
            window: 32,
            io_threads: 2,
            domain: None,
            peers: Vec::new(),
            ttl: 8,
            gossip_interval_ms: 1_000,
            probe_interval_ms: 5_000,
            stats_interval: 0,
        }
    }
}

/// Environment-variable inputs (so argument parsing stays testable).
#[derive(Debug, Default)]
struct EnvConfig<'a> {
    listen: Option<&'a str>,
    domain: Option<&'a str>,
    peers: Option<&'a str>,
    io_threads: Option<&'a str>,
}

/// The daemon's configuration from its flags and environment, or `None`
/// when `--help` (or `-h`) asks for the usage instead.
fn parse_args(
    args: impl IntoIterator<Item = String>,
    env: EnvConfig<'_>,
) -> Result<Option<Config>, String> {
    let mut config = Config::default();
    if let Some(listen) = env.listen {
        config.listen = listen
            .parse()
            .map_err(|e| format!("ACTYP_YPD_LISTEN: {e}"))?;
    }
    if let Some(domain) = env.domain {
        config.domain = Some(domain.to_string());
    }
    if let Some(peers) = env.peers {
        for raw in peers.split(',').filter(|s| !s.trim().is_empty()) {
            config
                .peers
                .push(raw.parse().map_err(|e| format!("ACTYP_YPD_PEERS: {e}"))?);
        }
    }
    if let Some(io_threads) = env.io_threads {
        config.io_threads = io_threads
            .parse()
            .map_err(|_| format!("ACTYP_YPD_IO_THREADS: invalid count `{io_threads}`"))?;
    }
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--help" | "-h" => return Ok(None),
            "--listen" => {
                let raw = value("--listen")?;
                config.listen = raw.parse().map_err(|e| format!("--listen: {e}"))?;
            }
            "--backend" => config.backend = value("--backend")?.parse()?,
            "--machines" => {
                let raw = value("--machines")?;
                config.machines = raw
                    .parse()
                    .map_err(|_| format!("--machines: invalid count `{raw}`"))?;
            }
            "--seed" => {
                let raw = value("--seed")?;
                config.seed = raw
                    .parse()
                    .map_err(|_| format!("--seed: invalid seed `{raw}`"))?;
            }
            "--arch" => config.arch = Some(value("--arch")?),
            "--pool-managers" => {
                let raw = value("--pool-managers")?;
                config.pool_managers = raw
                    .parse()
                    .map_err(|_| format!("--pool-managers: invalid count `{raw}`"))?;
            }
            "--window" => {
                let raw = value("--window")?;
                config.window = raw
                    .parse()
                    .map_err(|_| format!("--window: invalid size `{raw}`"))?;
            }
            "--io-threads" => {
                let raw = value("--io-threads")?;
                config.io_threads = raw
                    .parse()
                    .map_err(|_| format!("--io-threads: invalid count `{raw}`"))?;
            }
            "--domain" => config.domain = Some(value("--domain")?),
            "--peer" => {
                let raw = value("--peer")?;
                config
                    .peers
                    .push(raw.parse().map_err(|e| format!("--peer: {e}"))?);
            }
            "--ttl" => {
                let raw = value("--ttl")?;
                config.ttl = raw
                    .parse()
                    .map_err(|_| format!("--ttl: invalid hop count `{raw}`"))?;
            }
            "--gossip-interval" => {
                let raw = value("--gossip-interval")?;
                config.gossip_interval_ms = raw
                    .parse()
                    .map_err(|_| format!("--gossip-interval: invalid milliseconds `{raw}`"))?;
            }
            "--probe-interval" => {
                let raw = value("--probe-interval")?;
                config.probe_interval_ms = raw
                    .parse()
                    .map_err(|_| format!("--probe-interval: invalid milliseconds `{raw}`"))?;
            }
            "--stats-interval" => {
                let raw = value("--stats-interval")?;
                config.stats_interval = raw
                    .parse()
                    .map_err(|_| format!("--stats-interval: invalid seconds `{raw}`"))?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !config.peers.is_empty() && config.domain.is_none() {
        return Err(
            "--peer requires --domain (or ACTYP_YPD_DOMAIN): federation \
                    needs this daemon's administrative-domain name"
                .to_string(),
        );
    }
    Ok(Some(config))
}

fn main() -> ExitCode {
    let env_listen = std::env::var("ACTYP_YPD_LISTEN").ok();
    let env_domain = std::env::var("ACTYP_YPD_DOMAIN").ok();
    let env_peers = std::env::var("ACTYP_YPD_PEERS").ok();
    let env_io_threads = std::env::var("ACTYP_YPD_IO_THREADS").ok();
    let env = EnvConfig {
        listen: env_listen.as_deref(),
        domain: env_domain.as_deref(),
        peers: env_peers.as_deref(),
        io_threads: env_io_threads.as_deref(),
    };
    let config = match parse_args(std::env::args().skip(1), env) {
        Ok(Some(config)) => config,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("ypd: {message}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let spec = match &config.arch {
        Some(arch) => FleetSpec::homogeneous(config.machines, arch, 512),
        None => FleetSpec::with_machines(config.machines),
    };
    let db = SyntheticFleet::new(spec, config.seed)
        .generate()
        .into_shared();
    let builder = PipelineBuilder::new()
        .database(db)
        .seed(config.seed)
        .ttl(config.ttl)
        .pool_managers(config.pool_managers)
        .window(config.window)
        .reactor_io_threads(config.io_threads);

    let server = match &config.domain {
        None => builder.serve(&config.listen, config.backend),
        Some(domain) => builder
            .serve_federated(
                &config.listen,
                config.backend,
                FederationConfig {
                    domain: domain.clone(),
                    ttl: config.ttl,
                    peers: config.peers.clone(),
                    gossip_interval: std::time::Duration::from_millis(config.gossip_interval_ms),
                    probe_interval: std::time::Duration::from_millis(config.probe_interval_ms),
                    ..FederationConfig::default()
                },
            )
            .map(|(handle, backend)| {
                for (peer, why) in backend.unresolved_peers() {
                    eprintln!("ypd: peer {peer} does not resolve yet ({why}); looked up again on each failed dial");
                }
                handle
            }),
    };
    let server = match server {
        Ok(server) => server,
        Err(e) => {
            eprintln!("ypd: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };

    match &config.domain {
        None => println!(
            "ypd: listening on {} ({} backend, {} machines, seed {})",
            server.local_addr(),
            config.backend,
            config.machines,
            config.seed
        ),
        Some(domain) => println!(
            "ypd: listening on {} ({} backend, {} machines, seed {}; \
             domain {domain}, {} peer(s), ttl {})",
            server.local_addr(),
            config.backend,
            config.machines,
            config.seed,
            config.peers.len(),
            config.ttl
        ),
    }

    if config.stats_interval > 0 {
        spawn_stats_reporter(server.local_addr(), config.stats_interval);
    }

    match server.join() {
        Ok(()) => {
            println!("ypd: drained cleanly");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ypd: drain failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Periodically prints the daemon's lifetime counters as one
/// machine-readable line, by polling its own wire endpoint the way any
/// client would (so the numbers are exactly what a remote observer sees,
/// and no side channel into the backend is needed).  The reporter ends
/// with the daemon: once the drain closes its connection the thread exits.
fn spawn_stats_reporter(addr: StageAddress, interval_secs: u64) {
    std::thread::spawn(move || {
        let backend = match PipelineBuilder::remote(&addr) {
            Ok(backend) => backend,
            Err(e) => {
                eprintln!("ypd: stats reporter could not connect: {e}");
                return;
            }
        };
        let interval = std::time::Duration::from_secs(interval_secs);
        loop {
            std::thread::sleep(interval);
            let stats = backend.stats();
            println!(
                "ypd: stats requests={} fragments={} allocations={} failures={} \
                 delegations={} forwards={} delegations_out={} delegations_in={} \
                 releases={} records_examined={} in_flight={} \
                 gossip_deltas_in={} gossip_deltas_out={} route_hits={} \
                 route_misses={} peer_redials={} shard_contention={} \
                 frames_batched={} writes_coalesced={}",
                stats.requests,
                stats.fragments,
                stats.allocations,
                stats.failures,
                stats.delegations,
                stats.forwards,
                stats.delegations_out,
                stats.delegations_in,
                stats.releases,
                stats.records_examined,
                stats.in_flight,
                stats.gossip_deltas_in,
                stats.gossip_deltas_out,
                stats.route_hits,
                stats.route_misses,
                stats.peer_redials,
                stats.shard_contention,
                stats.frames_batched,
                stats.writes_coalesced
            );
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn no_env() -> EnvConfig<'static> {
        EnvConfig::default()
    }

    #[test]
    fn defaults_apply_without_flags() {
        let config = parse_args(args(&[]), no_env()).unwrap().unwrap();
        assert_eq!(config, Config::default());
    }

    #[test]
    fn flags_override_every_default() {
        let config = parse_args(
            args(&[
                "--listen",
                "0.0.0.0:9000",
                "--backend",
                "matchmaker",
                "--machines",
                "64",
                "--seed",
                "7",
                "--arch",
                "hp",
                "--pool-managers",
                "3",
                "--window",
                "16",
                "--io-threads",
                "4",
                "--domain",
                "purdue",
                "--peer",
                "127.0.0.1:7422",
                "--peer",
                "127.0.0.1:7423",
                "--ttl",
                "5",
                "--gossip-interval",
                "250",
                "--probe-interval",
                "750",
            ]),
            no_env(),
        )
        .unwrap()
        .unwrap();
        assert_eq!(config.listen, StageAddress::new("0.0.0.0", 9000));
        assert_eq!(config.backend, BackendKind::Matchmaker);
        assert_eq!(config.machines, 64);
        assert_eq!(config.seed, 7);
        assert_eq!(config.arch.as_deref(), Some("hp"));
        assert_eq!(config.pool_managers, 3);
        assert_eq!(config.window, 16);
        assert_eq!(config.io_threads, 4);
        assert_eq!(config.domain.as_deref(), Some("purdue"));
        assert_eq!(
            config.peers,
            vec![
                StageAddress::new("127.0.0.1", 7422),
                StageAddress::new("127.0.0.1", 7423),
            ]
        );
        assert_eq!(config.ttl, 5);
        assert_eq!(config.gossip_interval_ms, 250);
        assert_eq!(config.probe_interval_ms, 750);
    }

    #[test]
    fn gossip_interval_rejects_garbage() {
        let err = parse_args(args(&["--gossip-interval", "soon"]), no_env()).unwrap_err();
        assert!(err.contains("--gossip-interval"), "{err}");
        let err = parse_args(args(&["--gossip-interval"]), no_env()).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
    }

    #[test]
    fn probe_interval_parses_and_rejects_garbage() {
        let config = parse_args(args(&["--probe-interval", "0"]), no_env())
            .unwrap()
            .unwrap();
        assert_eq!(config.probe_interval_ms, 0, "zero disables probing");
        let err = parse_args(args(&["--probe-interval", "often"]), no_env()).unwrap_err();
        assert!(err.contains("--probe-interval"), "{err}");
        let err = parse_args(args(&["--probe-interval"]), no_env()).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
    }

    #[test]
    fn env_listen_is_used_and_cli_wins_over_it() {
        let env = EnvConfig {
            listen: Some("10.0.0.1:7500"),
            ..EnvConfig::default()
        };
        let from_env = parse_args(args(&[]), env).unwrap().unwrap();
        assert_eq!(from_env.listen, StageAddress::new("10.0.0.1", 7500));
        let env = EnvConfig {
            listen: Some("10.0.0.1:7500"),
            ..EnvConfig::default()
        };
        let overridden = parse_args(args(&["--listen", "127.0.0.1:0"]), env)
            .unwrap()
            .unwrap();
        assert_eq!(overridden.listen, StageAddress::new("127.0.0.1", 0));
    }

    #[test]
    fn env_federation_is_used_and_cli_wins_over_it() {
        let env = EnvConfig {
            domain: Some("upc"),
            peers: Some("10.0.0.1:7421, 10.0.0.2:7421"),
            ..EnvConfig::default()
        };
        let from_env = parse_args(args(&[]), env).unwrap().unwrap();
        assert_eq!(from_env.domain.as_deref(), Some("upc"));
        assert_eq!(
            from_env.peers,
            vec![
                StageAddress::new("10.0.0.1", 7421),
                StageAddress::new("10.0.0.2", 7421),
            ]
        );
        // CLI --domain replaces the env domain; --peer appends to the list.
        let env = EnvConfig {
            domain: Some("upc"),
            peers: Some("10.0.0.1:7421"),
            ..EnvConfig::default()
        };
        let overridden = parse_args(args(&["--domain", "purdue", "--peer", "127.0.0.1:1"]), env)
            .unwrap()
            .unwrap();
        assert_eq!(overridden.domain.as_deref(), Some("purdue"));
        assert_eq!(overridden.peers.len(), 2);
    }

    #[test]
    fn env_thread_model_is_used_and_cli_wins_over_it() {
        let env = EnvConfig {
            io_threads: Some("6"),
            ..EnvConfig::default()
        };
        let from_env = parse_args(args(&[]), env).unwrap().unwrap();
        assert_eq!(from_env.io_threads, 6);
        let env = EnvConfig {
            io_threads: Some("6"),
            ..EnvConfig::default()
        };
        let overridden = parse_args(args(&["--io-threads", "3"]), env)
            .unwrap()
            .unwrap();
        assert_eq!(overridden.io_threads, 3);
        // Bad env values are reported against the variable.
        let env = EnvConfig {
            io_threads: Some("many"),
            ..EnvConfig::default()
        };
        assert!(parse_args(args(&[]), env)
            .unwrap_err()
            .contains("ACTYP_YPD_IO_THREADS"));
    }

    #[test]
    fn stats_interval_parses_and_rejects_garbage() {
        let config = parse_args(args(&["--stats-interval", "30"]), no_env())
            .unwrap()
            .unwrap();
        assert_eq!(config.stats_interval, 30);
        assert_eq!(Config::default().stats_interval, 0, "disabled by default");
        assert!(parse_args(args(&["--stats-interval", "soon"]), no_env())
            .unwrap_err()
            .contains("invalid seconds"));
    }

    #[test]
    fn peers_without_a_domain_are_rejected() {
        let err = parse_args(args(&["--peer", "127.0.0.1:7421"]), no_env()).unwrap_err();
        assert!(err.contains("--domain"), "{err}");
        // A domain alone (federated name, no peers yet) is fine.
        assert!(parse_args(args(&["--domain", "purdue"]), no_env()).is_ok());
    }

    #[test]
    fn bad_addresses_and_backends_are_reported() {
        assert!(parse_args(args(&["--listen", "noport"]), no_env())
            .unwrap_err()
            .contains("host:port"));
        assert!(parse_args(args(&["--backend", "quantum"]), no_env())
            .unwrap_err()
            .contains("unknown backend"));
        // The embedded backend folded into `live`: a stale script naming
        // it is refused with the names there are.
        assert_eq!(
            parse_args(args(&["--backend", "embedded"]), no_env()),
            Err(
                "unknown backend `embedded` (expected one of: live, central-queue, matchmaker)"
                    .to_string()
            )
        );
        assert!(parse_args(args(&["--machines", "many"]), no_env())
            .unwrap_err()
            .contains("invalid count"));
        assert!(parse_args(args(&["--peer", "noport"]), no_env())
            .unwrap_err()
            .contains("--peer"));
        assert!(parse_args(args(&["--ttl", "forever"]), no_env())
            .unwrap_err()
            .contains("invalid hop count"));
        // The A/B switches of the settled session-engine experiment, the
        // size of a worker lane that is itself gone, and the replicas of a
        // query manager that runs on the launching thread are gone: a stale
        // script naming them fails loudly.
        for removed in [
            "--sessions",
            "--poller",
            "--workers",
            "--query-managers",
            "--shards",
        ] {
            assert!(parse_args(args(&[removed, "reactor"]), no_env())
                .unwrap_err()
                .contains(&format!("unknown flag `{removed}`")));
        }
        assert!(parse_args(args(&["--io-threads", "lots"]), no_env())
            .unwrap_err()
            .contains("invalid count"));
        assert!(parse_args(args(&["--listen"]), no_env())
            .unwrap_err()
            .contains("requires a value"));
        assert!(parse_args(args(&["--frobnicate"]), no_env())
            .unwrap_err()
            .contains("unknown flag"));
        let env = EnvConfig {
            listen: Some("bogus"),
            ..EnvConfig::default()
        };
        assert!(parse_args(args(&[]), env)
            .unwrap_err()
            .contains("ACTYP_YPD_LISTEN"));
        let env = EnvConfig {
            peers: Some("bogus"),
            ..EnvConfig::default()
        };
        assert!(parse_args(args(&[]), env)
            .unwrap_err()
            .contains("ACTYP_YPD_PEERS"));
    }

    #[test]
    fn help_asks_for_the_usage_instead_of_a_configuration() {
        for help in ["--help", "-h"] {
            assert_eq!(parse_args(args(&[help]), no_env()), Ok(None), "{help}");
            // After other flags too, and whatever follows it.
            let late = parse_args(args(&["--machines", "64", help, "--frobnicate"]), no_env());
            assert_eq!(late, Ok(None), "{help}");
        }
    }

    #[test]
    fn every_backend_name_parses() {
        for kind in BackendKind::ALL {
            let config = parse_args(args(&["--backend", &kind.to_string()]), no_env());
            assert_eq!(config.unwrap().unwrap().backend, kind);
        }
    }
}
