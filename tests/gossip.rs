//! The anti-entropy gossip plane, end to end and by property.
//!
//! The integration half peers real `ypd` daemons on loopback with the
//! periodic gossip tick *enabled* and proves the tentpole claim of the
//! gossip plane: a pool registered mid-session on one daemon becomes
//! delegable from a remote domain over the standing peer links — zero
//! redials — and steers the very next query to the satisfying domain in
//! one hop.  A fake-peer script covers the rename path: a peer that
//! comes back under a new domain name atomically retires everything the
//! old name advertised.
//!
//! The property half drives whole in-memory topologies of
//! [`GossipPlane`]s through the same push–pull exchange the wire
//! implements and checks convergence: every live pool visible at every
//! domain within a diameter's worth of rounds, no dead pool ever
//! resurrected.  That a learned route can only *reorder* a chain's
//! candidates is property-tested beside the candidate order itself, in
//! `federation.rs`.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use actyp_grid::{FleetSpec, SharedDatabase, SyntheticFleet};
use actyp_pipeline::{
    AllocationError, BackendKind, FederatedBackend, FederationConfig, GossipPlane, PipelineBuilder,
    RemoteBackend, ResourceManager, ServerHandle, StageAddress,
};

// ---------------------------------------------------------------------------
// Integration: gossiping daemons on loopback
// ---------------------------------------------------------------------------

fn homogeneous_db(arch: &str, machines: usize, seed: u64) -> SharedDatabase {
    SyntheticFleet::new(FleetSpec::homogeneous(machines, arch, 512), seed)
        .generate()
        .into_shared()
}

/// One federated daemon with the periodic anti-entropy tick running.
fn spawn_gossiping(
    domain: &str,
    db: SharedDatabase,
    peers: Vec<StageAddress>,
    gossip_interval: Duration,
) -> (ServerHandle, Arc<FederatedBackend>) {
    PipelineBuilder::new()
        .database(db)
        .ttl(8)
        .serve_federated(
            &StageAddress::new("127.0.0.1", 0),
            BackendKind::Live,
            FederationConfig {
                domain: domain.to_string(),
                ttl: 8,
                peers,
                gossip_interval,
                ..FederationConfig::default()
            },
        )
        .expect("federated daemon starts")
}

/// Polls `cond` until it holds or a generous deadline passes (the gossip
/// interval in these tests is 100ms; ten seconds is pure CI slack).
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The tentpole, over real sockets: daemon A peers with B and C and its
/// anti-entropy tick establishes both links while C has *no* pools.  A
/// pool then registered mid-session on C (by a client of C) becomes
/// visible at A over the standing links — zero redials — relays
/// transitively to B (which has no link of its own to C), and steers
/// A's next query straight to C in one hop instead of a blind walk
/// through B.  A repeat query hits the learned route cache.
#[test]
fn pool_registered_mid_session_is_delegable_without_redial() {
    let interval = Duration::from_millis(100);
    let db_a = homogeneous_db("sun", 20, 71);
    let db_b = homogeneous_db("sun", 20, 72);
    let db_c = homogeneous_db("hp", 20, 73);
    let (srv_c, fed_c) = spawn_gossiping("upc", db_c, vec![], interval);
    let (srv_b, fed_b) = spawn_gossiping("cern", db_b, vec![], interval);
    let (srv_a, fed_a) = spawn_gossiping(
        "purdue",
        db_a,
        vec![srv_b.local_addr(), srv_c.local_addr()],
        interval,
    );

    // The tick dials both peer links.  Wait until the handshakes landed
    // (each peer records the inbound domain) — at which point C still
    // has nothing to advertise, so A knows no upc pools.
    wait_for("A's peer links to establish", || {
        let knows = |fed: &FederatedBackend| {
            fed.view()
                .directory()
                .pool_managers()
                .iter()
                .any(|d| d == "purdue")
        };
        knows(&fed_c) && knows(&fed_b)
    });
    assert!(
        fed_a.view().gossip().live_pools("upc").is_empty(),
        "no pool exists on C yet"
    );
    assert_eq!(fed_a.peer_redials(), 0);

    // Mid-session, long after the links came up: a client of C creates
    // an hp pool there.
    let client_c = RemoteBackend::connect(&srv_c.local_addr()).unwrap();
    let held = client_c.submit_text_wait("punch.rsrc.arch = hp\n").unwrap();
    assert!(!fed_c.local_pools().is_empty(), "the pool exists on C");

    // Within a gossip round the pool is visible at A — and no link was
    // redialed to learn it.
    wait_for("the new pool to gossip to A", || {
        !fed_a.view().gossip().live_pools("upc").is_empty()
    });
    assert_eq!(
        fed_a.peer_redials(),
        0,
        "the advertisement arrived over the standing links"
    );
    assert!(
        fed_a.view().gossip().deltas_in() > 0,
        "deltas actually flowed"
    );

    // Transitive relay: B has no link to C, yet A's pushes carry the upc
    // origin log to it.
    wait_for("the pool to relay transitively to B", || {
        !fed_b.view().gossip().live_pools("upc").is_empty()
    });

    // The learned advertisement steers the next query to upc in ONE hop
    // — a blind walk would try cern first and burn a hop for nothing.
    let client_a = RemoteBackend::connect(&srv_a.local_addr()).unwrap();
    let first = client_a.submit_text_wait("punch.rsrc.arch = hp\n").unwrap();
    assert!(first[0].machine_name.contains("hp"));
    let chain = fed_a.last_chain().expect("a chain ran");
    assert_eq!(
        chain.visited,
        vec!["purdue".to_string(), "upc".to_string()],
        "gossip routed the query straight to the satisfying domain"
    );

    // A repeat query goes through the learned route cache.
    let second = client_a.submit_text_wait("punch.rsrc.arch = hp\n").unwrap();
    assert!(second[0].machine_name.contains("hp"));
    assert!(
        fed_a.view().route_cache().hits() >= 1,
        "the repeat query hit the learned one-hop route"
    );
    assert_eq!(fed_a.peer_redials(), 0, "still zero redials end to end");

    for allocation in first.iter().chain(second.iter()) {
        client_a.release(allocation).unwrap();
    }
    client_c.release(&held[0]).unwrap();
    client_a.shutdown().unwrap();
    client_c.shutdown().unwrap();
    for srv in [srv_a, srv_b, srv_c] {
        srv.halt();
        srv.join().unwrap();
    }
}

/// The rename satellite: a peer that comes back under a NEW domain name
/// atomically retires the old domain — its directory records are gone,
/// and the route cache no longer steers anything at the dead name.
#[test]
fn peer_renaming_its_domain_retires_the_old_domains_pools() {
    use actyp_proto::{read_client_frame, write_frame, ClientFrame, ServerFrame, PROTOCOL_VERSION};
    use std::net::TcpListener;

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let fake_addr = listener.local_addr().unwrap();
    let fake_peer = std::thread::spawn(move || {
        let handshake = |conn: &mut std::net::TcpStream, domain: &str, pools: Vec<String>| {
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
                        domain: domain.to_string(),
                        pools,
                        deltas: Vec::new(),
                    },
                )
                .unwrap(),
                other => panic!("expected SyncPools, got {other:?}"),
            }
        };
        // First life: domain "upc" advertises an hp pool, then dies.
        {
            let (mut conn, _) = listener.accept().unwrap();
            handshake(&mut conn, "upc", vec!["arch,==/hp".to_string()]);
        }
        // Second life, SAME address, DIFFERENT domain name: "barcelona"
        // advertising a different pool; refuse delegations until the
        // entry disconnects.
        let (mut conn, _) = listener.accept().unwrap();
        handshake(&mut conn, "barcelona", vec!["arch,==/sgi".to_string()]);
        while let Ok(Some(frame)) = read_client_frame(&mut conn) {
            if let ClientFrame::Delegate {
                corr, ttl, visited, ..
            } = frame
            {
                let mut visited = visited;
                visited.push("barcelona".to_string());
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
        .database(homogeneous_db("sun", 20, 81))
        .serve_federated(
            &StageAddress::new("127.0.0.1", 0),
            BackendKind::Live,
            FederationConfig {
                domain: "purdue".to_string(),
                ttl: 8,
                peers: vec![StageAddress::new("127.0.0.1", fake_addr.port())],
                gossip_interval: Duration::ZERO,
                ..FederationConfig::default()
            },
        )
        .unwrap();
    // A route learned while the peer was still "upc" (as a prior
    // delegation would have left behind).
    entry.view().route_cache().learn("arch,==/hp", "upc");

    // Drive delegable queries until the redial hit the renamed second
    // life and the retirement took: the old domain's directory records
    // are gone, the new domain's are in, and the learned route through
    // the dead name no longer exists.
    let mut retired = false;
    for _ in 0..20 {
        let _ = entry.submit_text_wait("punch.rsrc.arch = hp\n");
        let dir = entry.view().directory();
        let has_new = dir.pool_managers().iter().any(|d| d == "barcelona");
        let has_old = dir.pool_managers().iter().any(|d| d == "upc")
            || dir
                .instances("arch,==/hp")
                .iter()
                .any(|r| r.manager == "upc");
        if has_new && !has_old {
            retired = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        retired,
        "re-advertising under a new name must retire the old domain's records wholesale"
    );
    assert_eq!(
        entry.view().route_cache().next_hop("arch,==/hp"),
        None,
        "the route learned through the retired name is gone"
    );
    assert!(
        entry.peer_redials() >= 1,
        "the second life was reached by a redial (and counted as one)"
    );

    srv.halt();
    srv.join().unwrap();
    fake_peer.join().unwrap();
}

/// The timer-wheel health probe, over real sockets: daemon A peers at B
/// with the *gossip tick disabled*, so after the link is established by
/// one delegation nothing but the probe ever touches it.  B is then
/// halted.  No client delegates through A again — yet A prunes B's
/// directory records within a few probe rounds, so the next delegation
/// would never offer the dead peer as a candidate.
#[test]
fn health_probe_prunes_a_dead_peer_between_delegations() {
    let (srv_b, _fed_b) = PipelineBuilder::new()
        .database(homogeneous_db("hp", 20, 91))
        .ttl(8)
        .serve_federated(
            &StageAddress::new("127.0.0.1", 0),
            BackendKind::Live,
            FederationConfig {
                domain: "upc".to_string(),
                ttl: 8,
                peers: vec![],
                gossip_interval: Duration::ZERO,
                ..FederationConfig::default()
            },
        )
        .expect("pool host starts");
    let (srv_a, fed_a) = PipelineBuilder::new()
        .database(homogeneous_db("sun", 20, 92))
        .ttl(8)
        .serve_federated(
            &StageAddress::new("127.0.0.1", 0),
            BackendKind::Live,
            FederationConfig {
                domain: "purdue".to_string(),
                ttl: 8,
                peers: vec![srv_b.local_addr()],
                gossip_interval: Duration::ZERO,
                probe_interval: Duration::from_millis(150),
                ..FederationConfig::default()
            },
        )
        .expect("entry daemon starts");

    // One delegation establishes the link and the peer's directory
    // records; releasing the allocation leaves the link healthy and idle.
    let client = RemoteBackend::connect(&srv_a.local_addr()).expect("connect to entry");
    let held = client
        .submit_text_wait("punch.rsrc.arch = hp\n")
        .expect("the hp query delegates to the peer");
    client
        .release(&held[0])
        .expect("release routes to the peer");
    {
        let dir = fed_a.view().directory();
        assert!(
            dir.pool_managers().iter().any(|d| d == "upc"),
            "the delegation recorded the peer's advertisement"
        );
    }
    let delegations_before = client.stats().delegations_out;

    // Kill the peer.  Nothing queries A from here on: only the probe
    // timer can notice the death.
    srv_b.halt();
    srv_b.join().expect("pool host drains");
    wait_for("the probe to prune the dead peer", || {
        !fed_a
            .view()
            .directory()
            .pool_managers()
            .iter()
            .any(|d| d == "upc")
    });
    assert_eq!(
        client.stats().delegations_out,
        delegations_before,
        "no delegation was spent discovering the death"
    );

    client.halt_daemon().expect("entry accepts the halt");
    client.shutdown().expect("clean session shutdown");
    srv_a.join().expect("entry drains");
}

// ---------------------------------------------------------------------------
// Property: gossip convergence over in-memory topologies
// ---------------------------------------------------------------------------

/// One push–pull exchange, exactly the wire's shape: `a` pushes its
/// deltas and version vector, `b` applies and replies with what `a`
/// lacks, `a` applies the reply and marks `b` as holding everything it
/// sent.
fn exchange(a: &GossipPlane, b: &GossipPlane) {
    let vector = a.version_vector();
    let deltas = a.deltas_for_peer(b.domain());
    b.note_peer_versions(a.domain(), &vector);
    b.apply(&deltas);
    let reply = b.deltas_since(&vector);
    a.apply(&reply);
    a.note_acked(b.domain(), vector);
}

// ---------------------------------------------------------------------------
// Regression: restart epochs must be strictly monotone
// ---------------------------------------------------------------------------

fn own_epoch(plane: &GossipPlane) -> u64 {
    plane
        .version_vector()
        .into_iter()
        .find(|v| v.origin == plane.domain())
        .expect("own origin always in the vector")
        .epoch
}

/// Epochs come from wall-clock seconds, so two lives created within the
/// same second used to share one — letting a lagging relay of the old
/// life's log (same epoch, higher sequence) resurrect retired pools at
/// every peer.  Every plane built in this process must now open a
/// strictly higher epoch than the one before, clock or no clock.
#[test]
fn restart_epochs_are_strictly_monotone_within_a_process() {
    let mut previous = own_epoch(&GossipPlane::new("ypd.restarts.example"));
    for _ in 0..3 {
        let epoch = own_epoch(&GossipPlane::new("ypd.restarts.example"));
        assert!(
            epoch > previous,
            "restart epoch {epoch} must exceed the previous life's {previous}"
        );
        previous = epoch;
    }
}

/// The defense in depth for epochs that *do* collide (a real restart
/// reusing a wall-clock second, or a clock step backwards): an echo of
/// the own origin at our current epoch proves a previous life shares
/// it, and the plane re-epochs itself strictly above the echo so its
/// next exchange resets every peer in this life's favour.
#[test]
fn own_origin_echo_at_current_epoch_forces_a_re_epoch() {
    // The old life advertised a pool the restart retired.
    let old_life = GossipPlane::with_epoch("ypd.d.example", 7);
    old_life.refresh_local(&["kept-pool".to_string(), "retired-pool".to_string()]);
    let stale_relay = old_life.deltas_since(&[]);

    // The restart reused the epoch: fresh log, same number.
    let new_life = GossipPlane::with_epoch("ypd.d.example", 7);
    new_life.refresh_local(&["kept-pool".to_string()]);

    // A peer learns the new life's state, then a lagging relay replays
    // the old life's log — same epoch, higher sequence, so the retired
    // pool comes back from the dead at the peer.
    let peer = GossipPlane::with_epoch("ypd.peer.example", 1);
    peer.apply(&new_life.deltas_since(&[]));
    peer.apply(&stale_relay);
    assert!(
        peer.live_pools("ypd.d.example")
            .contains(&"retired-pool".to_string()),
        "the stale relay must corrupt the peer for the regression to be meaningful"
    );

    // The echo also reaches the origin, which re-epochs above it...
    new_life.apply(&stale_relay);
    let bumped = own_epoch(&new_life);
    assert!(bumped > 7, "echo at epoch 7 must force an epoch above it");
    assert_eq!(
        new_life.live_pools("ypd.d.example"),
        vec!["kept-pool".to_string()],
        "re-epoching must preserve the current live set"
    );

    // ...and its next exchange resets the corrupted peer outright.
    peer.apply(&new_life.deltas_since(&peer.version_vector()));
    assert_eq!(
        peer.live_pools("ypd.d.example"),
        vec!["kept-pool".to_string()],
        "the new epoch must retire the resurrected pool at the peer"
    );
}

/// A connected topology: a ring over `n` domains plus extra chords from
/// seed bits, each domain's pool set and mid-run death set from more
/// seed bits.
#[derive(Debug)]
struct GossipTopology {
    /// Undirected edges as index pairs (i < j).
    edges: Vec<(usize, usize)>,
    /// Per domain: initial pool names, and the subset that dies mid-run.
    pools: Vec<(Vec<String>, Vec<String>)>,
}

fn gossip_topology_strategy() -> impl Strategy<Value = GossipTopology> {
    (2usize..6, 0u64..u64::MAX).prop_map(|(n, seed)| {
        let mut edges: Vec<(usize, usize)> = (0..n)
            .map(|i| (i.min((i + 1) % n), i.max((i + 1) % n)))
            .collect();
        edges.sort();
        edges.dedup();
        for i in 0..n {
            for j in (i + 2)..n {
                if (seed >> ((i * n + j) % 40)) & 1 == 1 && !edges.contains(&(i, j)) {
                    edges.push((i, j));
                }
            }
        }
        let pools = (0..n)
            .map(|i| {
                let count = ((seed >> (i * 3)) & 3) as usize;
                let all: Vec<String> = (0..count).map(|k| format!("d{i}/pool{k}")).collect();
                let dead: Vec<String> = all
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| (seed >> (40 + (i * 3 + k) % 20)) & 1 == 1)
                    .map(|(_, p)| p.clone())
                    .collect();
                (all, dead)
            })
            .collect();
        GossipTopology { edges, pools }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Over any connected topology, anti-entropy converges within a
    /// diameter's worth of rounds: every live pool is visible at every
    /// domain, and after a wave of pool deaths a second convergence
    /// leaves no dead pool resurrected anywhere.
    #[test]
    fn gossip_converges_and_never_resurrects_dead_pools(
        topology in gossip_topology_strategy()
    ) {
        let n = topology.pools.len();
        let planes: Vec<GossipPlane> = (0..n)
            .map(|i| GossipPlane::with_epoch(&format!("d{i}"), 1 + i as u64))
            .collect();
        for (plane, (all, _)) in planes.iter().zip(&topology.pools) {
            plane.refresh_local(all);
        }
        let rounds = n + 1; // ≥ diameter of any connected n-domain graph
        for _ in 0..rounds {
            for &(i, j) in &topology.edges {
                exchange(&planes[i], &planes[j]);
                exchange(&planes[j], &planes[i]);
            }
        }
        // Phase one: everything initially advertised is visible
        // everywhere.
        for (holder, plane) in planes.iter().enumerate() {
            for (origin, (all, _)) in topology.pools.iter().enumerate() {
                if holder == origin {
                    continue;
                }
                let seen: BTreeSet<String> =
                    plane.live_pools(&format!("d{origin}")).into_iter().collect();
                let expected: BTreeSet<String> = all.iter().cloned().collect();
                prop_assert_eq!(&seen, &expected,
                    "domain d{} view of d{} after convergence", holder, origin);
            }
        }
        // Phase two: a wave of deaths, then converge again — the dead
        // must stay dead at every domain (no resurrection by relay).
        for (plane, (all, dead)) in planes.iter().zip(&topology.pools) {
            let survivors: Vec<String> =
                all.iter().filter(|p| !dead.contains(p)).cloned().collect();
            plane.refresh_local(&survivors);
        }
        for _ in 0..rounds {
            for &(i, j) in &topology.edges {
                exchange(&planes[i], &planes[j]);
                exchange(&planes[j], &planes[i]);
            }
        }
        for (holder, plane) in planes.iter().enumerate() {
            for (origin, (all, dead)) in topology.pools.iter().enumerate() {
                if holder == origin {
                    continue;
                }
                let seen: BTreeSet<String> =
                    plane.live_pools(&format!("d{origin}")).into_iter().collect();
                let expected: BTreeSet<String> = all
                    .iter()
                    .filter(|p| !dead.contains(p))
                    .cloned()
                    .collect();
                prop_assert_eq!(&seen, &expected,
                    "domain d{} view of d{} after the death wave", holder, origin);
            }
        }
    }
}
