//! Anti-entropy gossip between peered `ypd` daemons — a pool registered
//! mid-session on one daemon becomes delegable from the other with ZERO
//! peer redials, over the standing links alone.
//!
//! Two administrative domains: the entry daemon `purdue` (sun machines)
//! peers at `upc` (hp machines); `upc` peers at nobody.  The entry's
//! periodic gossip tick establishes the link.  A client of *upc* then
//! creates an hp pool there (the first hp query a pool manager sees);
//! the entry learns of it through an advertisement-log delta on the
//! standing link — observable as `gossip_deltas_in` in its stats line —
//! and a client of *purdue* gets an hp allocation delegated in one hop.
//! A repeat query rides the learned route cache (`route_hits`).  The
//! whole run keeps `peer_redials` at zero: that counter only moves when
//! pool visibility had to be repaired by redialing a link, which is
//! exactly what the gossip plane exists to make unnecessary.
//!
//! Run self-contained (hosts both daemons in-process on loopback):
//!
//! ```text
//! cargo run -p actyp-suite --example gossip_smoke
//! ```
//!
//! Or against external daemons (as CI's `gossip-smoke` job does):
//!
//! ```text
//! ypd --listen 127.0.0.1:7431 --domain purdue --arch sun \
//!     --peer 127.0.0.1:7432 --gossip-interval 200 &
//! ypd --listen 127.0.0.1:7432 --domain upc --arch hp &
//! cargo run -p actyp-suite --example gossip_smoke -- \
//!     127.0.0.1:7431 127.0.0.1:7432 --halt
//! ```
//!
//! The first address is the gossiping entry daemon, the second the pool
//! host.  With `--halt` the example drains both daemons on the way out,
//! so backgrounded `ypd` processes exit cleanly — that is what CI
//! asserts.

use std::time::{Duration, Instant};

use actyp_grid::{FleetSpec, SyntheticFleet};
use actyp_pipeline::{
    BackendKind, FederationConfig, PipelineBuilder, RemoteBackend, ResourceManager, ServerHandle,
    StageAddress,
};

fn homogeneous_db(arch: &str, machines: usize, seed: u64) -> actyp_grid::SharedDatabase {
    SyntheticFleet::new(FleetSpec::homogeneous(machines, arch, 512), seed)
        .generate()
        .into_shared()
}

fn spawn_domain(domain: &str, arch: &str, seed: u64, peers: Vec<StageAddress>) -> ServerHandle {
    let (handle, _backend) = PipelineBuilder::new()
        .database(homogeneous_db(arch, 50, seed))
        .ttl(8)
        .serve_federated(
            &StageAddress::new("127.0.0.1", 0),
            BackendKind::Live,
            FederationConfig {
                domain: domain.to_string(),
                ttl: 8,
                peers,
                gossip_interval: Duration::from_millis(200),
                ..FederationConfig::default()
            },
        )
        .expect("federated daemon starts");
    println!(
        "self-hosted ypd for domain `{domain}` ({arch}) on {}",
        handle.local_addr()
    );
    handle
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let halt_flag = argv.iter().any(|a| a == "--halt");
    let addrs: Vec<StageAddress> = argv
        .iter()
        .filter(|a| *a != "--halt")
        .map(|a| a.parse().expect("address parses as host:port"))
        .collect();

    // External mode: first address is the gossiping entry, second the
    // pool host.  Self-contained mode hosts both right here.
    let (entry_addr, host_addr, hosted) = match addrs.as_slice() {
        [entry, host, ..] => {
            println!("driving external daemons: entry {entry}, pool host {host}");
            (entry.clone(), host.clone(), Vec::new())
        }
        [_] => panic!("need zero addresses (self-contained) or two (entry, pool host)"),
        [] => {
            let upc = spawn_domain("upc", "hp", 7, Vec::new());
            let purdue = spawn_domain("purdue", "sun", 6, vec![upc.local_addr()]);
            let (entry, host) = (purdue.local_addr(), upc.local_addr());
            (entry, host, vec![purdue, upc])
        }
    };

    let entry = RemoteBackend::connect(&entry_addr).expect("connect to entry daemon");
    let host = RemoteBackend::connect(&host_addr).expect("connect to pool host");

    // Mid-session: a client of the pool host creates the hp pool there.
    // Before this moment no daemon anywhere has one.
    let held = host
        .submit_text_wait("punch.rsrc.arch = hp\n")
        .expect("the hp-only host satisfies its own query");
    println!(
        "registered an hp pool on the host mid-session ({})",
        held[0].machine_name
    );

    // The advertisement crosses to the entry on the next anti-entropy
    // round — watch its gossip counter, not a redial, deliver the news.
    let deadline = Instant::now() + Duration::from_secs(15);
    let stats = loop {
        let stats = entry.stats();
        if stats.gossip_deltas_in >= 1 {
            break stats;
        }
        assert!(
            Instant::now() < deadline,
            "the pool advertisement never gossiped to the entry: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    println!(
        "entry learned the pool by gossip: gossip_deltas_in={} peer_redials={}",
        stats.gossip_deltas_in, stats.peer_redials
    );
    assert_eq!(
        stats.peer_redials, 0,
        "the advertisement must arrive over the standing link, not a redial"
    );

    // The entry now delegates an hp query straight to the host.
    let first = entry
        .submit_text_wait("punch.rsrc.arch = hp\n")
        .expect("the gossiped pool satisfies the delegated query");
    assert!(
        first[0].machine_name.contains("hp"),
        "the allocation comes from the hp-only peer domain"
    );
    println!(
        "delegated allocation: {} (pool `{}`)",
        first[0].machine_name, first[0].pool
    );

    // A repeat query rides the learned one-hop route.
    let second = entry
        .submit_text_wait("punch.rsrc.arch = hp\n")
        .expect("the repeat query settles too");
    let stats = entry.stats();
    println!(
        "entry daemon stats: {} requests, {} delegated out, route_hits={} \
         route_misses={} gossip_deltas_in={} gossip_deltas_out={} peer_redials={}",
        stats.requests,
        stats.delegations_out,
        stats.route_hits,
        stats.route_misses,
        stats.gossip_deltas_in,
        stats.gossip_deltas_out,
        stats.peer_redials
    );
    assert!(stats.delegations_out >= 2, "both queries crossed the wire");
    assert!(
        stats.route_hits >= 1,
        "the repeat query hit the route cache"
    );
    assert_eq!(stats.peer_redials, 0, "zero redials end to end");

    for allocation in first.iter().chain(second.iter()) {
        entry
            .release(allocation)
            .expect("release routes to the peer");
    }
    host.release(&held[0]).expect("release the host's own pool");
    println!("released every allocation in its home domain");

    if halt_flag || !hosted.is_empty() {
        entry.halt_daemon().expect("entry daemon accepts the halt");
        host.halt_daemon().expect("pool host accepts the halt");
        println!("asked both daemons to drain");
    }
    entry.shutdown().expect("clean entry session shutdown");
    host.shutdown().expect("clean host session shutdown");
    for server in hosted {
        server.join().expect("self-hosted daemon drains cleanly");
    }
    println!("gossip_smoke example finished");
}
