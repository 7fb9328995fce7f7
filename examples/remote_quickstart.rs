//! Remote quickstart: the same `ResourceManager` client code as
//! `quickstart`, but across a real TCP hop to a `ypd` daemon speaking the
//! versioned `actyp-proto` wire protocol.
//!
//! Run self-contained (the example hosts an in-process daemon on an
//! ephemeral loopback port, connects to it, then drains it):
//!
//! ```text
//! cargo run -p actyp-suite --example remote_quickstart
//! ```
//!
//! Or against an external daemon (as the CI smoke job does):
//!
//! ```text
//! cargo run --release --bin ypd -- --listen 127.0.0.1:7411 &
//! cargo run --release -p actyp-suite --example remote_quickstart -- 127.0.0.1:7411 --halt
//! ```
//!
//! With `--halt` the example asks the daemon to drain on its way out, so a
//! backgrounded `ypd` exits cleanly — that is what CI asserts.

use std::time::Duration;

use actyp_grid::{FleetSpec, SyntheticFleet};
use actyp_pipeline::{BackendKind, PipelineBuilder, ResourceManager, StageAddress};

fn main() {
    // Address from argv or environment; otherwise self-host a daemon.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let halt_flag = argv.iter().any(|a| a == "--halt");
    let addr_text = argv
        .iter()
        .find(|a| *a != "--halt")
        .cloned()
        .or_else(|| std::env::var("ACTYP_YPD_ADDR").ok());
    // A self-hosted daemon is always drained on the way out; an external
    // one only when the caller passed --halt.
    let halt = halt_flag || addr_text.is_none();

    let (addr, hosted) = match addr_text {
        Some(text) => {
            let addr: StageAddress = text.parse().expect("address parses as host:port");
            println!("connecting to external ypd at {addr}");
            (addr, None)
        }
        None => {
            let db = SyntheticFleet::new(FleetSpec::with_machines(500), 42)
                .generate()
                .into_shared();
            let server = PipelineBuilder::new()
                .database(db)
                .serve(&StageAddress::new("127.0.0.1", 0), BackendKind::Live)
                .expect("loopback daemon starts");
            let addr = server.local_addr();
            println!("self-hosted ypd listening on {addr}");
            (addr, Some(server))
        }
    };

    // One connection, the full protocol: version negotiation first.
    let manager = PipelineBuilder::remote(&addr).expect("connect and negotiate");
    println!(
        "connected; negotiated protocol version {}",
        manager.protocol_version()
    );

    // The paper's pipelining across the wire: six pipelined submissions in
    // flight on this single socket before any of them is redeemed.
    let query = "\
punch.rsrc.arch = sun
punch.rsrc.memory = >=10
punch.user.login = kapadia
punch.user.accessgroup = ece
";
    let parsed = actyp_query::parse_query(query).expect("query parses");
    let tickets: Vec<_> = (0..6)
        .map(|_| manager.submit(parsed.clone()).expect("submission sent"))
        .collect();
    println!(
        "6 tickets submitted on one connection; server reports {} in flight",
        manager.stats().in_flight
    );

    // Redeem them: one bounded wait (the deadline is kept on this side of
    // the socket), the rest blocking.
    let mut allocations = Vec::new();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let outcome = if i == 0 {
            manager
                .wait_deadline(ticket, Duration::from_secs(30))
                .expect("resolves well within 30 s")
        } else {
            manager.wait(ticket)
        };
        let mut batch = outcome.expect("allocation succeeds");
        println!(
            "ticket {i}: {} (pool `{}`, examined {})",
            batch[0].machine_name, batch[0].pool, batch[0].examined
        );
        allocations.append(&mut batch);
    }

    // Release everything and read back the daemon's counters.
    for allocation in &allocations {
        manager.release(allocation).expect("release succeeds");
    }
    let stats = manager.stats();
    println!(
        "daemon stats: {} requests, {} allocations, {} releases, {} in flight",
        stats.requests, stats.allocations, stats.releases, stats.in_flight
    );
    assert_eq!(stats.in_flight, 0, "every ticket was redeemed");

    if halt {
        manager.halt_daemon().expect("daemon accepts the halt");
        println!("asked the daemon to drain");
    }
    manager.shutdown().expect("clean session shutdown");
    if let Some(server) = hosted {
        server.join().expect("self-hosted daemon drains cleanly");
        println!("self-hosted daemon drained");
    }
    println!("done");
}
