//! Wide-area federation over real sockets.
//!
//! Peers real `ypd` daemons (the in-process
//! [`PipelineBuilder::serve_federated`] form) on loopback and checks the
//! paper's WAN behaviour end to end: a query the entry domain cannot
//! satisfy settles with an allocation delegated from a peer, a query
//! satisfiable nowhere fails with the proper error instead of hanging,
//! and a peer killed mid-run strands nothing in the survivors.  The
//! routing invariants of the chain itself (TTL strictly decreasing, no
//! revisits, termination within the TTL) are property-tested beside the
//! chain, in `federation.rs`.

use std::sync::Arc;

use actyp_grid::{FleetSpec, SharedDatabase, SyntheticFleet};
use actyp_pipeline::{
    AllocationError, BackendKind, FederatedBackend, FederationConfig, PipelineBuilder,
    RemoteBackend, ResourceManager, ServerHandle, StageAddress,
};

// ---------------------------------------------------------------------------
// Integration: peered daemons on loopback
// ---------------------------------------------------------------------------

fn homogeneous_db(arch: &str, machines: usize, seed: u64) -> SharedDatabase {
    SyntheticFleet::new(FleetSpec::homogeneous(machines, arch, 512), seed)
        .generate()
        .into_shared()
}

/// Starts one federated daemon for `domain` over a homogeneous fleet.
fn spawn_domain(
    domain: &str,
    db: SharedDatabase,
    peers: Vec<StageAddress>,
    ttl: u32,
) -> (ServerHandle, Arc<FederatedBackend>) {
    PipelineBuilder::new()
        .database(db)
        .ttl(ttl)
        .serve_federated(
            &StageAddress::new("127.0.0.1", 0),
            BackendKind::Embedded,
            FederationConfig {
                domain: domain.to_string(),
                ttl,
                peers,
                gossip_interval: std::time::Duration::ZERO,
                ..FederationConfig::default()
            },
        )
        .expect("federated daemon starts")
}

fn active_jobs(db: &SharedDatabase) -> u32 {
    db.read().iter().map(|m| m.dynamic.active_jobs).sum()
}

/// Three peered daemons in a chain (A → B → C): a query only the far
/// domain can satisfy is delegated across two hops, released back across
/// the same hops, and every daemon's counters record its role.
#[test]
fn query_unsatisfiable_at_entry_is_delegated_across_the_federation() {
    let db_a = homogeneous_db("sun", 30, 1);
    let db_b = homogeneous_db("sun", 30, 2);
    let db_c = homogeneous_db("hp", 30, 3);
    let (srv_c, _fed_c) = spawn_domain("upc", db_c.clone(), vec![], 8);
    let (srv_b, fed_b) = spawn_domain("cern", db_b.clone(), vec![srv_c.local_addr()], 8);
    let (srv_a, fed_a) = spawn_domain("purdue", db_a.clone(), vec![srv_b.local_addr()], 8);

    let client = RemoteBackend::connect(&srv_a.local_addr()).unwrap();
    let allocations = client.submit_text_wait("punch.rsrc.arch = hp\n").unwrap();
    assert_eq!(allocations.len(), 1);
    assert!(
        allocations[0].machine_name.contains("hp"),
        "the allocation comes from the hp-only far domain"
    );
    assert_eq!(active_jobs(&db_c), 1, "the claim lives in domain upc");
    assert_eq!(active_jobs(&db_a) + active_jobs(&db_b), 0);

    // The entry daemon's stats show the delegation; the intermediates and
    // the server of the query show theirs.
    let stats = client.stats();
    assert!(stats.delegations_out >= 1, "{stats:?}");
    assert!(fed_b.stats().delegations_in >= 1, "B continued the chain");
    assert!(fed_b.stats().delegations_out >= 1, "B forwarded to C");

    // The chain obeyed the routing invariants, observable end to end.
    let chain = fed_a.last_chain().expect("a chain ran");
    assert_eq!(
        chain.visited,
        vec!["purdue".to_string(), "cern".to_string(), "upc".to_string()],
        "every hop visited exactly once, in order"
    );
    assert_eq!(chain.ttl, 8 - 3, "three hops spent three TTL units");

    // Release routes back hop by hop to the domain that made the
    // allocation.
    client.release(&allocations[0]).unwrap();
    assert_eq!(active_jobs(&db_c), 0, "released in domain upc");

    client.halt_daemon().unwrap();
    client.shutdown().unwrap();
    srv_a.join().unwrap();
    srv_b.halt();
    srv_b.join().unwrap();
    srv_c.halt();
    srv_c.join().unwrap();
}

/// A query satisfiable nowhere fails with `TtlExpired` when the TTL runs
/// out mid-federation, and with the delegable local error when the
/// federation is exhausted first — never a hang.
#[test]
fn query_satisfiable_nowhere_fails_with_ttl_exhaustion_not_a_hang() {
    let db_a = homogeneous_db("sun", 20, 4);
    let db_b = homogeneous_db("sun", 20, 5);
    let db_c = homogeneous_db("sun", 20, 6);
    // TTL 2 over a 3-domain chain: the TTL dies before the domains do.
    let (srv_c, _) = spawn_domain("upc", db_c, vec![], 2);
    let (srv_b, _) = spawn_domain("cern", db_b, vec![srv_c.local_addr()], 2);
    let (srv_a, _) = spawn_domain("purdue", db_a, vec![srv_b.local_addr()], 2);

    let client = RemoteBackend::connect(&srv_a.local_addr()).unwrap();
    let err = client
        .submit_text_wait("punch.rsrc.arch = cray\n")
        .unwrap_err();
    assert_eq!(err, AllocationError::TtlExpired);

    client.halt_daemon().unwrap();
    client.shutdown().unwrap();
    srv_a.join().unwrap();
    srv_b.halt();
    srv_b.join().unwrap();
    srv_c.halt();
    srv_c.join().unwrap();
}

/// With TTL to spare, exhausting every domain returns the underlying
/// allocation error (the paper fails the request once every manager has
/// seen it).
#[test]
fn exhausting_every_domain_returns_the_allocation_error() {
    let db_a = homogeneous_db("sun", 20, 7);
    let db_b = homogeneous_db("sun", 20, 8);
    let (srv_b, _) = spawn_domain("cern", db_b, vec![], 8);
    let (srv_a, _) = spawn_domain("purdue", db_a, vec![srv_b.local_addr()], 8);

    let client = RemoteBackend::connect(&srv_a.local_addr()).unwrap();
    let err = client
        .submit_text_wait("punch.rsrc.arch = cray\n")
        .unwrap_err();
    assert_eq!(err, AllocationError::NoSuchResources);

    client.halt_daemon().unwrap();
    client.shutdown().unwrap();
    srv_a.join().unwrap();
    srv_b.halt();
    srv_b.join().unwrap();
}

/// Killing a peer mid-run strands no tickets in the survivors: queries
/// that needed the dead domain settle with errors (not hangs), the dead
/// peer's directory records are pruned, and the survivor keeps serving
/// its own resources.
#[test]
fn killing_a_peer_mid_run_strands_no_tickets() {
    let db_a = homogeneous_db("sun", 30, 9);
    let db_b = homogeneous_db("hp", 30, 10);
    let (srv_b, _fed_b) = spawn_domain("upc", db_b.clone(), vec![], 8);
    let (srv_a, fed_a) = spawn_domain("purdue", db_a.clone(), vec![srv_b.local_addr()], 8);

    let client = RemoteBackend::connect(&srv_a.local_addr()).unwrap();

    // Warm run: the link to B is up, an hp query delegates and succeeds.
    let warm = client.submit_text_wait("punch.rsrc.arch = hp\n").unwrap();
    client.release(&warm[0]).unwrap();
    assert!(
        fed_a
            .view()
            .directory()
            .pool_managers()
            .contains(&"upc".to_string()),
        "the peer is in the entry daemon's peer directory"
    );

    // Kill B, with tickets already in flight on A that need it.
    let tickets: Vec<_> = (0..3)
        .map(|_| client.submit_text("punch.rsrc.arch = hp\n").unwrap())
        .collect();
    srv_b.halt();
    srv_b.join().unwrap();

    // Every in-flight ticket settles — delegation may have won the race
    // with the halt (an allocation) or lost it (an error); either way
    // nothing hangs and nothing is stranded.
    for ticket in tickets {
        if let Ok(allocations) = client.wait(ticket) {
            for allocation in &allocations {
                client.release(&allocation.clone()).unwrap();
            }
        }
    }
    // A fresh query needing the dead peer settles with the local error.
    let err = client
        .submit_text_wait("punch.rsrc.arch = hp\n")
        .unwrap_err();
    assert_eq!(err, AllocationError::NoSuchResources);
    // The dead peer's records were pruned from the peer directory.
    assert!(
        !fed_a
            .view()
            .directory()
            .pool_managers()
            .contains(&"upc".to_string()),
        "the dead peer was unregistered"
    );

    // The survivor still serves its own domain, and no claim is stranded
    // anywhere.
    let own = client.submit_text_wait("punch.rsrc.arch = sun\n").unwrap();
    client.release(&own[0]).unwrap();
    client.halt_daemon().unwrap();
    client.shutdown().unwrap();
    srv_a.join().unwrap();
    assert_eq!(active_jobs(&db_a), 0);
    assert_eq!(active_jobs(&db_b), 0);
}

/// A client that vanishes holding a *delegated* allocation strands
/// nothing: the entry daemon's session lease hands it back, and the
/// release is routed over the federation to the domain that made it.
#[test]
fn abandoned_delegated_allocations_return_across_the_federation() {
    let db_a = homogeneous_db("sun", 30, 11);
    let db_b = homogeneous_db("hp", 30, 12);
    let (srv_b, _) = spawn_domain("upc", db_b.clone(), vec![], 8);
    let (srv_a, _) = spawn_domain("purdue", db_a.clone(), vec![srv_b.local_addr()], 8);

    {
        let client = RemoteBackend::connect(&srv_a.local_addr()).unwrap();
        let allocations = client.submit_text_wait("punch.rsrc.arch = hp\n").unwrap();
        assert_eq!(allocations.len(), 1);
        assert_eq!(active_jobs(&db_b), 1);
        // Dropped without release: the client vanishes.
    }
    srv_a.halt();
    srv_a.join().unwrap();
    assert_eq!(
        active_jobs(&db_b),
        0,
        "the abandoned remote allocation was released in its home domain"
    );
    srv_b.halt();
    srv_b.join().unwrap();
}

/// Peers exchange pool advertisements when a link comes up: after a
/// delegation, the entry daemon's peer directory holds the peer's domain
/// as a pool manager.
#[test]
fn peers_learn_each_others_pools_through_sync() {
    let db_a = homogeneous_db("sun", 30, 13);
    let db_b = homogeneous_db("hp", 30, 14);
    let (srv_b, fed_b) = spawn_domain("upc", db_b, vec![], 8);
    let (srv_a, fed_a) = spawn_domain("purdue", db_a, vec![srv_b.local_addr()], 8);

    let client = RemoteBackend::connect(&srv_a.local_addr()).unwrap();
    // Seed a pool in B's own directory first (so its advertisement is
    // non-empty by the time A connects), then delegate.
    let client_b = RemoteBackend::connect(&srv_b.local_addr()).unwrap();
    let warm = client_b.submit_text_wait("punch.rsrc.arch = hp\n").unwrap();
    client_b.release(&warm[0]).unwrap();
    assert!(!fed_b.local_pools().is_empty(), "B hosts a pool now");

    let allocations = client.submit_text_wait("punch.rsrc.arch = hp\n").unwrap();
    client.release(&allocations[0]).unwrap();

    let dir = fed_a.view().directory();
    assert!(dir.pool_managers().contains(&"upc".to_string()));
    assert!(
        dir.instances("arch,==/hp")
            .iter()
            .any(|r| r.manager == "upc"),
        "B's advertised hp pool is recorded against its domain"
    );
    // And the inbound side recorded A's advertisement too.
    assert!(fed_b
        .view()
        .directory()
        .pool_managers()
        .contains(&"purdue".to_string()));

    client.halt_daemon().unwrap();
    client.shutdown().unwrap();
    client_b.halt_daemon().unwrap();
    client_b.shutdown().unwrap();
    srv_a.join().unwrap();
    srv_b.join().unwrap();
}

/// The peer-link multiplexing regression test: two delegation chains to
/// the *same* peer must proceed in parallel on the one pooled connection,
/// correlated by request id.
///
/// The fake peer enforces it structurally: it reads BOTH `Delegate`
/// frames before answering either, then replies in reverse order with
/// distinct outcomes keyed off the query text.  The old one-request-at-a-
/// time link (which held the connection mutex across the whole WAN round
/// trip) can never send the second frame before the first reply, so under
/// it this test times out instead of passing; out-of-order replies also
/// prove the responses really route by correlation id, not arrival order.
#[test]
fn parallel_delegations_multiplex_on_one_peer_link() {
    use actyp_proto::{read_client_frame, write_frame, ClientFrame, ServerFrame, PROTOCOL_VERSION};
    use std::net::TcpListener;
    use std::time::Duration;

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let fake_addr = listener.local_addr().unwrap();
    let fake_peer = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        match read_client_frame(&mut conn).unwrap() {
            Some(ClientFrame::Hello { .. }) => write_frame(
                &mut conn,
                &ServerFrame::HelloAck {
                    version: PROTOCOL_VERSION,
                },
            )
            .unwrap(),
            other => panic!("expected Hello, got {other:?}"),
        }
        match read_client_frame(&mut conn).unwrap() {
            Some(ClientFrame::SyncPools { corr, .. }) => write_frame(
                &mut conn,
                &ServerFrame::PoolsSynced {
                    corr,
                    domain: "upc".to_string(),
                    pools: Vec::new(),
                    deltas: Vec::new(),
                },
            )
            .unwrap(),
            other => panic!("expected SyncPools, got {other:?}"),
        }
        // The regression proper: the second Delegate must arrive while
        // the first is still unanswered.
        let mut delegates = Vec::new();
        for nth in 0..2 {
            match read_client_frame(&mut conn).unwrap() {
                Some(ClientFrame::Delegate {
                    corr,
                    query,
                    ttl,
                    visited,
                }) => delegates.push((corr, query, ttl, visited)),
                other => panic!(
                    "expected pipelined Delegate #{nth} before any reply \
                     (a serialized link never sends it), got {other:?}"
                ),
            }
        }
        for (corr, query, ttl, mut visited) in delegates.into_iter().rev() {
            let error = if query.contains("hp") {
                AllocationError::NoneAvailable
            } else {
                AllocationError::ShadowAccountsExhausted
            };
            visited.push("upc".to_string());
            write_frame(
                &mut conn,
                &ServerFrame::Delegated {
                    corr,
                    outcome: Err(error),
                    ttl: ttl.saturating_sub(1),
                    visited,
                    deltas: Vec::new(),
                },
            )
            .unwrap();
        }
        // Hold the connection until the entry daemon shuts down.
        let _ = read_client_frame(&mut conn);
    });

    let (srv, entry) = PipelineBuilder::new()
        .database(homogeneous_db("sun", 20, 40))
        .serve_federated(
            &StageAddress::new("127.0.0.1", 0),
            BackendKind::Embedded,
            FederationConfig {
                domain: "purdue".to_string(),
                ttl: 8,
                peers: vec![StageAddress::new("127.0.0.1", fake_addr.port())],
                gossip_interval: std::time::Duration::ZERO,
                ..FederationConfig::default()
            },
        )
        .unwrap();

    let hp_chain = {
        let entry = entry.clone();
        std::thread::spawn(move || entry.submit_text_wait("punch.rsrc.arch = hp\n"))
    };
    let sgi_chain = {
        let entry = entry.clone();
        std::thread::spawn(move || entry.submit_text_wait("punch.rsrc.arch = sgi\n"))
    };
    // Each chain got ITS peer outcome, not the other's.
    assert_eq!(
        hp_chain.join().unwrap().unwrap_err(),
        AllocationError::NoneAvailable
    );
    assert_eq!(
        sgi_chain.join().unwrap().unwrap_err(),
        AllocationError::ShadowAccountsExhausted
    );
    assert_eq!(entry.stats().delegations_out, 2);

    srv.halt();
    srv.join().unwrap();
    fake_peer.join().unwrap();
}

/// Satellite regression (ROADMAP "teardown delegation churn"): settling
/// the abandoned tickets of a vanished client must NOT trigger outbound
/// delegations — there is nobody left to use what a peer would allocate.
#[test]
fn abandoned_tickets_settle_locally_without_delegating() {
    let db_a = homogeneous_db("sun", 20, 50);
    let db_b = homogeneous_db("hp", 20, 51);
    let (srv_b, _fed_b) = spawn_domain("upc", db_b.clone(), vec![], 8);
    // The entry daemon admits one query at a time.
    let (srv_a, fed_a) = PipelineBuilder::new()
        .database(db_a.clone())
        .ttl(8)
        .window(1)
        .serve_federated(
            &StageAddress::new("127.0.0.1", 0),
            BackendKind::Live,
            FederationConfig {
                domain: "purdue".to_string(),
                ttl: 8,
                peers: vec![srv_b.local_addr()],
                gossip_interval: std::time::Duration::ZERO,
                ..FederationConfig::default()
            },
        )
        .expect("federated daemon starts");

    // Warm the link: a delegation is available and cheap, so only the
    // teardown hint can explain its absence below.
    let client = RemoteBackend::connect(&srv_a.local_addr()).unwrap();
    let warm = client.submit_text_wait("punch.rsrc.arch = hp\n").unwrap();
    client.release(&warm[0]).unwrap();
    let delegations_before = fed_a.stats().delegations_out;
    assert!(delegations_before >= 1, "the link is warm");

    // A client submits a query only the peer could satisfy, then
    // vanishes without redeeming the ticket.  The submission queues behind
    // an in-process ticket holding the window's one permit, whose outcome
    // cannot come while the fleet is locked — unlocked only once the
    // client's session is closing: the submission launches after its
    // client is known to be gone.
    let sun = actyp_query::parse_query("punch.rsrc.arch = sun\n").unwrap();
    let fleet = db_a.write();
    let held = fed_a.submit(sun).unwrap();
    {
        let abandoner = RemoteBackend::connect(&srv_a.local_addr()).unwrap();
        let _ticket = abandoner.submit_text("punch.rsrc.arch = hp\n").unwrap();
        // Dropped with its ticket in flight.
    }
    // The hang-up reaches the daemon, then the permit comes back.
    std::thread::sleep(std::time::Duration::from_millis(200));
    drop(fleet);
    let granted = fed_a.wait(held).unwrap();
    fed_a.release(&granted[0]).unwrap();
    client.halt_daemon().unwrap();
    client.shutdown().unwrap();
    srv_a.join().unwrap();

    assert_eq!(
        fed_a.stats().delegations_out,
        delegations_before,
        "the abandoned ticket settled locally; no delegation churn"
    );
    assert_eq!(active_jobs(&db_a), 0);
    assert_eq!(active_jobs(&db_b), 0, "no peer allocation was ever made");
    srv_b.halt();
    srv_b.join().unwrap();
}

/// A federated daemon reports the queries its wrapped backend holds in
/// flight, not just its own in-process tickets, which a daemon's sessions
/// never open: six `Submit`s from one client, held in the live pipeline
/// while its fleet is locked, read `in_flight == 6`, and 0 once each is
/// allocated and released.
#[test]
fn a_federated_daemon_counts_the_queries_its_backend_holds() {
    const SUBMITS: usize = 6;
    let db = homogeneous_db("sun", 40, 52);
    let (srv, _fed) = PipelineBuilder::new()
        .database(db.clone())
        .serve_federated(
            &StageAddress::new("127.0.0.1", 0),
            BackendKind::Live,
            FederationConfig {
                domain: "purdue".to_string(),
                gossip_interval: std::time::Duration::ZERO,
                ..FederationConfig::default()
            },
        )
        .expect("federated daemon starts");
    let client = RemoteBackend::connect(&srv.local_addr()).unwrap();
    let fleet = db.write();
    let tickets: Vec<_> = (0..SUBMITS)
        .map(|_| client.submit_text("punch.rsrc.arch = sun\n").unwrap())
        .collect();
    assert_eq!(client.stats().in_flight, SUBMITS, "held in the pipeline");
    drop(fleet);
    for ticket in tickets {
        let granted = client.wait(ticket).unwrap();
        client.release(&granted[0]).unwrap();
    }
    let stats = client.stats();
    assert_eq!(stats.allocations, SUBMITS as u64);
    assert_eq!(stats.releases, SUBMITS as u64);
    assert_eq!(stats.in_flight, 0);
    srv.halt();
    client.shutdown().unwrap();
    srv.join().unwrap();
    assert_eq!(active_jobs(&db), 0);
}

/// Satellite regression (first slice of ROADMAP "gossip cadence"): a dead
/// peer link redialed after the connection drops re-syncs pool
/// advertisements, so a peer that came back with *different* pools is not
/// routed to from a stale directory.
#[test]
fn redialed_peer_link_resyncs_pool_advertisements() {
    use actyp_proto::{read_client_frame, write_frame, ClientFrame, ServerFrame, PROTOCOL_VERSION};
    use std::net::TcpListener;
    use std::time::Duration;

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let fake_addr = listener.local_addr().unwrap();
    let fake_peer = std::thread::spawn(move || {
        let handshake = |conn: &mut std::net::TcpStream, pools: Vec<String>| {
            conn.set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            match read_client_frame(conn).unwrap() {
                Some(ClientFrame::Hello { .. }) => write_frame(
                    conn,
                    &ServerFrame::HelloAck {
                        version: PROTOCOL_VERSION,
                    },
                )
                .unwrap(),
                other => panic!("expected Hello, got {other:?}"),
            }
            match read_client_frame(conn).unwrap() {
                Some(ClientFrame::SyncPools { corr, .. }) => write_frame(
                    conn,
                    &ServerFrame::PoolsSynced {
                        corr,
                        domain: "upc".to_string(),
                        pools,
                        deltas: Vec::new(),
                    },
                )
                .unwrap(),
                other => panic!("expected SyncPools, got {other:?}"),
            }
        };
        // First life: advertise an hp pool, then die straight away — the
        // stale record must not survive the redial.
        {
            let (mut conn, _) = listener.accept().unwrap();
            handshake(&mut conn, vec!["arch,==/hp".to_string()]);
            // Dropped: the link is now dead.
        }
        // Second life: same domain, DIFFERENT pools; serve delegations
        // until the entry disconnects.
        let (mut conn, _) = listener.accept().unwrap();
        handshake(&mut conn, vec!["arch,==/sgi".to_string()]);
        while let Ok(Some(frame)) = read_client_frame(&mut conn) {
            if let ClientFrame::Delegate {
                corr, ttl, visited, ..
            } = frame
            {
                let mut visited = visited;
                visited.push("upc".to_string());
                write_frame(
                    &mut conn,
                    &ServerFrame::Delegated {
                        corr,
                        outcome: Err(AllocationError::NoneAvailable),
                        ttl: ttl.saturating_sub(1),
                        visited,
                        deltas: Vec::new(),
                    },
                )
                .unwrap();
            }
        }
    });

    let (srv, entry) = PipelineBuilder::new()
        .database(homogeneous_db("sun", 20, 52))
        .serve_federated(
            &StageAddress::new("127.0.0.1", 0),
            BackendKind::Embedded,
            FederationConfig {
                domain: "purdue".to_string(),
                ttl: 8,
                peers: vec![StageAddress::new("127.0.0.1", fake_addr.port())],
                gossip_interval: std::time::Duration::ZERO,
                ..FederationConfig::default()
            },
        )
        .unwrap();

    // Drive delegable queries until the redial happened and the directory
    // reflects the peer's SECOND advertisement.  (The first query may
    // burn on the dying first connection; the link redials on the next.)
    let mut resynced = false;
    for _ in 0..20 {
        let _ = entry.submit_text_wait("punch.rsrc.arch = hp\n");
        let dir = entry.view().directory();
        let has_new = dir
            .instances("arch,==/sgi")
            .iter()
            .any(|r| r.manager == "upc");
        let has_old = dir
            .instances("arch,==/hp")
            .iter()
            .any(|r| r.manager == "upc");
        if has_new && !has_old {
            resynced = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert!(
        resynced,
        "after the redial the peer directory must hold the restarted peer's new pools \
         and none of its stale ones"
    );

    srv.halt();
    srv.join().unwrap();
    fake_peer.join().unwrap();
}

/// Concurrency smoke over real daemons: many simultaneous delegations to
/// one peer all settle with that peer's allocations, and the entry's
/// counters account for every one of them.
#[test]
fn concurrent_delegations_to_the_same_peer_all_settle() {
    let db_a = homogeneous_db("sun", 20, 60);
    let db_b = homogeneous_db("hp", 40, 61);
    let (srv_b, fed_b) = spawn_domain("upc", db_b.clone(), vec![], 8);
    let (srv, entry) = PipelineBuilder::new()
        .database(db_a)
        .serve_federated(
            &StageAddress::new("127.0.0.1", 0),
            BackendKind::Embedded,
            FederationConfig {
                domain: "purdue".to_string(),
                ttl: 8,
                peers: vec![srv_b.local_addr()],
                gossip_interval: std::time::Duration::ZERO,
                ..FederationConfig::default()
            },
        )
        .unwrap();

    let chains: Vec<_> = (0..8)
        .map(|_| {
            let entry = entry.clone();
            std::thread::spawn(move || entry.submit_text_wait("punch.rsrc.arch = hp\n"))
        })
        .collect();
    let mut allocations = Vec::new();
    for chain in chains {
        let outcome = chain.join().unwrap().unwrap();
        assert!(outcome[0].machine_name.contains("hp"));
        allocations.extend(outcome);
    }
    assert_eq!(active_jobs(&db_b), 8, "all eight claims live in the peer");
    assert_eq!(entry.stats().delegations_out, 8);
    assert!(fed_b.stats().delegations_in >= 8);
    for allocation in &allocations {
        entry.release(allocation).unwrap();
    }
    assert_eq!(active_jobs(&db_b), 0);

    srv.halt();
    srv.join().unwrap();
    srv_b.halt();
    srv_b.join().unwrap();
}

/// A non-federated daemon answers the federation vocabulary with a
/// protocol error instead of misbehaving.
#[test]
fn non_federated_daemons_refuse_delegation_frames() {
    use actyp_proto::{
        read_server_frame, write_frame, ClientFrame, RequestId, ServerFrame, PROTOCOL_VERSION,
    };
    use std::net::TcpStream;

    let server = PipelineBuilder::new()
        .database(homogeneous_db("sun", 20, 15))
        .serve(&StageAddress::new("127.0.0.1", 0), BackendKind::Embedded)
        .unwrap();
    let addr = server.local_addr();
    let mut raw = TcpStream::connect((addr.host.as_str(), addr.port)).unwrap();
    write_frame(
        &mut raw,
        &ClientFrame::Hello {
            min_version: PROTOCOL_VERSION,
            max_version: PROTOCOL_VERSION,
        },
    )
    .unwrap();
    assert!(matches!(
        read_server_frame(&mut raw).unwrap(),
        Some(ServerFrame::HelloAck { .. })
    ));
    write_frame(
        &mut raw,
        &ClientFrame::Delegate {
            corr: RequestId(0),
            query: "punch.rsrc.arch = sun\n".to_string(),
            ttl: 4,
            visited: vec![],
        },
    )
    .unwrap();
    match read_server_frame(&mut raw).unwrap() {
        Some(ServerFrame::Error { error, .. }) => {
            assert!(matches!(error, AllocationError::Protocol(_)), "{error}");
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    drop(raw);
    server.halt();
    server.join().unwrap();
}
