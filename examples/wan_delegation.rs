//! Wide-area delegation between peered `ypd` daemons — the paper's WAN
//! topology, over real sockets.
//!
//! Two administrative domains: `purdue` has only sun machines, `upc` only
//! hp machines.  A client connected to *purdue* asks for an hp machine;
//! the purdue daemon cannot satisfy the query locally, so it delegates it
//! over the wire (TTL and visited-domain list travelling with the query)
//! and the client's ticket settles with an allocation made in *upc*.
//!
//! Run self-contained (hosts both daemons in-process on loopback):
//!
//! ```text
//! cargo run -p actyp-suite --example wan_delegation
//! ```
//!
//! Or against external daemons (as CI's `federation-smoke` job does):
//!
//! ```text
//! ypd --listen 127.0.0.1:7421 --domain purdue --arch sun --peer 127.0.0.1:7422 &
//! ypd --listen 127.0.0.1:7422 --domain upc    --arch hp  --peer 127.0.0.1:7421 &
//! cargo run -p actyp-suite --example wan_delegation -- 127.0.0.1:7421 127.0.0.1:7422 --halt
//! ```
//!
//! With `--halt` the example drains every listed daemon on the way out, so
//! backgrounded `ypd` processes exit cleanly — that is what CI asserts.

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

    // External mode drives the first listed daemon; self-contained mode
    // hosts a two-domain federation right here.  `others` are the daemons
    // beyond the entry that a drain must also reach.
    let (entry, others, hosted) = match addrs.first() {
        Some(addr) => {
            println!("connecting to external federated ypd at {addr}");
            (addr.clone(), addrs[1..].to_vec(), Vec::new())
        }
        None => {
            // upc first (so its address exists), then purdue peered at it.
            let upc = spawn_domain("upc", "hp", 7, Vec::new());
            let purdue = spawn_domain("purdue", "sun", 6, vec![upc.local_addr()]);
            let entry = purdue.local_addr();
            let others = vec![upc.local_addr()];
            (entry, others, vec![purdue, upc])
        }
    };

    let manager = RemoteBackend::connect(&entry).expect("connect and negotiate");
    println!(
        "connected; negotiated protocol version {}",
        manager.protocol_version()
    );

    // The entry domain has no hp machines: this query *must* cross the
    // federation to succeed.
    let allocations = manager
        .submit_text_wait("punch.rsrc.arch = hp\n")
        .expect("a peer domain satisfies the query");
    println!(
        "delegated allocation: {} (pool `{}`)",
        allocations[0].machine_name, allocations[0].pool
    );
    assert!(
        allocations[0].machine_name.contains("hp"),
        "the machine comes from the hp-only peer domain"
    );

    let stats = manager.stats();
    println!(
        "entry daemon stats: {} requests, {} delegated out, {} delegated in",
        stats.requests, stats.delegations_out, stats.delegations_in
    );
    assert!(stats.delegations_out >= 1, "the query crossed the wire");

    // A query *no* domain satisfies fails with a proper error — the
    // federation never hangs a ticket.
    let err = manager
        .submit_text_wait("punch.rsrc.arch = cray\n")
        .expect_err("no domain has cray machines");
    println!("unsatisfiable query failed cleanly: {err}");

    // Release travels back to the domain that made the allocation.
    for allocation in &allocations {
        manager
            .release(allocation)
            .expect("release routes to the peer");
    }
    println!("released the delegated allocation in its home domain");

    if halt_flag || !hosted.is_empty() {
        // Drain the entry daemon through this session, and every other
        // daemon through a dedicated session.
        manager
            .halt_daemon()
            .expect("entry daemon accepts the halt");
        for addr in &others {
            let peer = RemoteBackend::connect(addr).expect("connect to peer daemon");
            peer.halt_daemon().expect("peer daemon accepts the halt");
            peer.shutdown().expect("clean peer session shutdown");
        }
        println!("asked every daemon to drain");
    }
    manager.shutdown().expect("clean session shutdown");
    for server in hosted {
        server.join().expect("self-hosted daemon drains cleanly");
    }
    println!("wan_delegation example finished");
}
