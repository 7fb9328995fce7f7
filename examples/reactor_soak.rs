//! Soak-smoke for the reactor session engine: one `ypd` under the
//! event-driven reactor serving ~100 pipelined clients at once, while a
//! peered daemon handles concurrent cross-domain delegations — then a
//! clean drain to exit 0.
//!
//! Run self-contained (hosts both daemons in-process on loopback):
//!
//! ```text
//! cargo run --release -p actyp-suite --example reactor_soak
//! ```
//!
//! Or against external daemons (as CI's `reactor-soak-smoke` job does):
//!
//! ```text
//! ypd --listen 127.0.0.1:7431 --domain purdue --arch sun --machines 1500 \
//!     --io-threads 2 --peer 127.0.0.1:7432 &
//! ypd --listen 127.0.0.1:7432 --domain upc --arch hp --machines 400 \
//!     --peer 127.0.0.1:7431 &
//! cargo run --release -p actyp-suite --example reactor_soak -- \
//!     127.0.0.1:7431 127.0.0.1:7432 --halt
//! ```
//!
//! Every client thread pipelines six locally satisfiable queries (six
//! tickets in flight on one connection) and every fourth client
//! additionally submits a query only the peer domain can satisfy, so
//! delegations multiplex on the one peer link while the client load runs.
//! The example asserts every ticket settles, every allocation releases,
//! and — with `--halt` or in self-contained mode — that both daemons
//! drain cleanly.

use std::sync::Arc;

use actyp_grid::{FleetSpec, SyntheticFleet};
use actyp_pipeline::{
    BackendKind, FederationConfig, PipelineBuilder, RemoteBackend, ResourceManager, ServerHandle,
    StageAddress,
};

const CLIENTS: usize = 100;
const BATCH: usize = 6;

fn homogeneous_db(arch: &str, machines: usize, seed: u64) -> actyp_grid::SharedDatabase {
    SyntheticFleet::new(FleetSpec::homogeneous(machines, arch, 512), seed)
        .generate()
        .into_shared()
}

fn spawn_domain(
    domain: &str,
    arch: &str,
    machines: usize,
    seed: u64,
    peers: Vec<StageAddress>,
) -> ServerHandle {
    let (handle, _backend) = PipelineBuilder::new()
        .database(homogeneous_db(arch, machines, seed))
        .ttl(8)
        .window(64)
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
        .expect("federated reactor daemon starts");
    println!(
        "self-hosted reactor ypd for domain `{domain}` ({arch}, {machines} machines) on {}",
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

    let (entry, others, hosted) = match addrs.first() {
        Some(addr) => {
            println!("soaking external reactor ypd at {addr}");
            (addr.clone(), addrs[1..].to_vec(), Vec::new())
        }
        None => {
            let upc = spawn_domain("upc", "hp", 400, 11, Vec::new());
            let purdue = spawn_domain("purdue", "sun", 1500, 10, vec![upc.local_addr()]);
            let entry = purdue.local_addr();
            let others = vec![upc.local_addr()];
            (entry, others, vec![purdue, upc])
        }
    };

    // The soak: CLIENTS concurrent connections, each pipelining BATCH
    // tickets; every fourth also forces a delegation to the peer domain.
    println!("soaking with {CLIENTS} clients × {BATCH} pipelined tickets each …");
    let entry = Arc::new(entry);
    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let entry = entry.clone();
            std::thread::spawn(move || -> (usize, u64) {
                let manager =
                    RemoteBackend::connect(&entry).expect("client connects to the entry daemon");
                let local = actyp_query::parse_query("punch.rsrc.arch = sun\n").unwrap();
                let mut settled = 0usize;
                // Pipelined local load: BATCH tickets in flight at once on
                // this one connection.
                let tickets: Vec<_> = (0..BATCH)
                    .map(|_| manager.submit(local.clone()).expect("submission sent"))
                    .collect();
                for ticket in tickets {
                    let allocations = manager.wait(ticket).expect("local ticket settles");
                    manager.release(&allocations[0]).expect("release");
                    settled += 1;
                }
                // Concurrent delegation load on the shared peer link.
                if i % 4 == 0 {
                    let allocations = manager
                        .submit_text_wait("punch.rsrc.arch = hp\n")
                        .expect("the peer domain satisfies the delegated query");
                    assert!(allocations[0].machine_name.contains("hp"));
                    manager.release(&allocations[0]).expect("remote release");
                    settled += 1;
                }
                let delegations = manager.stats().delegations_out;
                manager.shutdown().expect("clean client shutdown");
                (settled, delegations)
            })
        })
        .collect();

    let mut total = 0usize;
    let mut delegations_seen = 0u64;
    for worker in workers {
        let (settled, delegations) = worker.join().expect("client thread survives");
        total += settled;
        delegations_seen = delegations_seen.max(delegations);
    }
    let expected = CLIENTS * BATCH + CLIENTS / 4;
    assert_eq!(total, expected, "every ticket settled");
    assert!(
        delegations_seen >= (CLIENTS / 4) as u64,
        "the delegations ran concurrently over the peer link ({delegations_seen} recorded)"
    );
    println!(
        "soak done: {total} tickets settled ({} delegated across the federation)",
        delegations_seen
    );

    let manager = RemoteBackend::connect(&entry).expect("control connection");
    if halt_flag || !hosted.is_empty() {
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
    println!("reactor_soak example finished");
}
