//! Scale tests for the reactor session engine: a daemon's OS thread count
//! must be *independent of its session count*, every ticket must settle
//! under heavy pipelined load (including clients that vanish mid-flight),
//! and the portable `poll(2)` poller must serve the identical protocol.
//!
//! Thread counts are read from `/proc/self/status` (`Threads:`); on
//! platforms without procfs the count assertions are skipped while the
//! functional assertions still run.

use std::net::TcpStream;

use actyp_grid::{FleetSpec, SharedDatabase, SyntheticFleet};
use actyp_pipeline::{
    BackendKind, FederationConfig, PipelineBuilder, PollerKind, RemoteBackend, ResourceManager,
    StageAddress,
};
use actyp_proto::{
    read_server_frame, write_frame, ClientFrame, RequestId, ServerFrame, PROTOCOL_VERSION,
};

fn homogeneous_db(arch: &str, machines: usize, seed: u64) -> SharedDatabase {
    SyntheticFleet::new(FleetSpec::homogeneous(machines, arch, 512), seed)
        .generate()
        .into_shared()
}

fn loopback() -> StageAddress {
    StageAddress::new("127.0.0.1", 0)
}

fn active_jobs(db: &SharedDatabase) -> u32 {
    db.read().iter().map(|m| m.dynamic.active_jobs).sum()
}

/// This process's OS thread count, from procfs; `None` off Linux.
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|line| line.starts_with("Threads:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Connects a raw protocol client and completes the hello handshake — a
/// bare socket, so holding hundreds of these adds nothing client-side and
/// every thread the test observes is the daemon's own.
fn raw_hello(addr: &StageAddress) -> TcpStream {
    let mut sock = TcpStream::connect((addr.host.as_str(), addr.port)).unwrap();
    write_frame(
        &mut sock,
        &ClientFrame::Hello {
            min_version: PROTOCOL_VERSION,
            max_version: PROTOCOL_VERSION,
        },
    )
    .unwrap();
    match read_server_frame(&mut sock).unwrap() {
        Some(ServerFrame::HelloAck { .. }) => sock,
        other => panic!("expected HelloAck, got {other:?}"),
    }
}

fn send(sock: &mut TcpStream, frame: &ClientFrame) {
    write_frame(sock, frame).unwrap();
}

fn recv(sock: &mut TcpStream) -> ServerFrame {
    read_server_frame(sock)
        .unwrap()
        .expect("server closed the connection mid-exchange")
}

const SUN_QUERY: &str = "punch.rsrc.arch = sun\n";

/// The acceptance bar from the issue: a daemon holding 200+ idle client
/// sessions *plus two live peer links* runs on a bounded thread count —
/// I/O pool + backend stages + constant overhead, independent of sessions —
/// and still serves requests.
#[test]
fn two_hundred_idle_sessions_hold_no_extra_threads() {
    let spawn_peer = |domain: &str, seed: u64| {
        PipelineBuilder::new()
            .database(homogeneous_db("hp", 20, seed))
            .serve_federated(
                &loopback(),
                BackendKind::Live,
                FederationConfig {
                    domain: domain.to_string(),
                    ttl: 8,
                    peers: Vec::new(),
                    gossip_interval: std::time::Duration::ZERO,
                    ..FederationConfig::default()
                },
            )
            .unwrap()
    };
    let (peer_a, _) = spawn_peer("upc", 1);
    let (peer_b, _) = spawn_peer("cern", 2);
    let (server, _fed) = PipelineBuilder::new()
        .database(homogeneous_db("sun", 400, 3))
        .serve_federated(
            &loopback(),
            BackendKind::Live,
            FederationConfig {
                domain: "purdue".to_string(),
                ttl: 8,
                peers: vec![peer_a.local_addr(), peer_b.local_addr()],
                gossip_interval: std::time::Duration::ZERO,
                ..FederationConfig::default()
            },
        )
        .unwrap();
    let addr = server.local_addr();

    // Establish BOTH peer links: a query satisfiable nowhere walks the
    // whole federation, dialing (and pool-syncing with) every peer.
    let warm = RemoteBackend::connect(&addr).unwrap();
    assert!(warm.submit_text_wait("punch.rsrc.arch = cray\n").is_err());

    let before = thread_count();

    // 210 sessions connect, handshake, and go idle.
    let mut idle: Vec<TcpStream> = (0..210).map(|_| raw_hello(&addr)).collect();

    // Bounded: the I/O pool and the backend stages already exist; new sessions
    // must not bring threads of their own.
    if let (Some(before), Some(during)) = (before, thread_count()) {
        assert!(
            during <= before + 2,
            "thread count must not scale with sessions: {before} before, {during} with 210 idle \
             sessions"
        );
    }

    // The daemon still serves — through an idle session, among the crowd.
    let sock = idle.last_mut().unwrap();
    send(
        sock,
        &ClientFrame::Submit {
            corr: RequestId(0),
            query: SUN_QUERY.to_string(),
        },
    );
    match recv(sock) {
        ServerFrame::Outcome { outcome, .. } => {
            let allocations = outcome.unwrap();
            send(
                sock,
                &ClientFrame::Release {
                    corr: RequestId(2),
                    allocation: allocations[0].clone(),
                },
            );
        }
        other => panic!("expected Outcome, got {other:?}"),
    }
    match recv(sock) {
        ServerFrame::Released { .. } => {}
        other => panic!("expected Released, got {other:?}"),
    }

    drop(idle);
    warm.halt_daemon().unwrap();
    warm.shutdown().unwrap();
    server.join().unwrap();
    for peer in [peer_a, peer_b] {
        peer.halt();
        peer.join().unwrap();
    }
}

/// 200 clients pipeline two submissions each before reading any outcome,
/// 40 more vanish with submissions in flight, half the granted allocations
/// are abandoned unreleased — and after the drain, *every* machine claim
/// is back, with the daemon's thread count never having scaled with load.
#[test]
fn every_ticket_settles_under_two_hundred_pipelined_clients() {
    let db = homogeneous_db("sun", 1500, 4);
    let server = PipelineBuilder::new()
        .database(db.clone())
        .serve(&loopback(), BackendKind::Live)
        .unwrap();
    let addr = server.local_addr();
    let before = thread_count();

    // Phase 1: every client pipelines two submissions, nobody reads yet.
    let mut clients: Vec<TcpStream> = (0..200).map(|_| raw_hello(&addr)).collect();
    for sock in clients.iter_mut() {
        for corr in 0..2u64 {
            send(
                sock,
                &ClientFrame::Submit {
                    corr: RequestId(corr),
                    query: SUN_QUERY.to_string(),
                },
            );
        }
    }

    // 400 submissions in flight across 200 sessions: still no per-session
    // threads.
    if let (Some(before), Some(during)) = (before, thread_count()) {
        assert!(
            during <= before + 4,
            "thread count must not scale with in-flight load: {before} -> {during}"
        );
    }

    // Phase 2: read both outcomes per client; release the first
    // allocation properly, abandon the second on the session lease.
    for sock in clients.iter_mut() {
        let mut allocations = Vec::new();
        for _ in 0..2 {
            match recv(sock) {
                ServerFrame::Outcome { outcome, .. } => allocations.push(outcome.unwrap()),
                other => panic!("expected Outcome, got {other:?}"),
            }
        }
        send(
            sock,
            &ClientFrame::Release {
                corr: RequestId(20),
                allocation: allocations[0][0].clone(),
            },
        );
        match recv(sock) {
            ServerFrame::Released { .. } => {}
            other => panic!("expected Released, got {other:?}"),
        }
    }

    // Phase 3: 40 clients submit and vanish without reading a byte back.
    for _ in 0..40 {
        let mut sock = raw_hello(&addr);
        send(
            &mut sock,
            &ClientFrame::Submit {
                corr: RequestId(0),
                query: SUN_QUERY.to_string(),
            },
        );
        // Dropped unread: the session teardown must return the lease.
    }

    drop(clients);
    server.halt();
    server.join().unwrap();
    assert_eq!(
        active_jobs(&db),
        0,
        "every claim from 440 submissions (including the abandoned ones) was handed back"
    );
}

/// The client side holds no thread per connection either: a caller reads
/// its own reply, so 32 open `RemoteBackend`s — used, then idle — leave the
/// process's thread count where it was (the other tests of this binary
/// may add a thread or two meanwhile; one reader per connection would add
/// 32).
#[test]
fn remote_connections_bring_no_threads() {
    let server = PipelineBuilder::new()
        .database(homogeneous_db("sun", 200, 8))
        .serve(&loopback(), BackendKind::Live)
        .unwrap();
    let addr = server.local_addr();
    let warm = RemoteBackend::connect(&addr).unwrap();
    assert!(warm.stats().in_flight == 0);

    let before = thread_count();
    let clients: Vec<RemoteBackend> = (0..32)
        .map(|_| RemoteBackend::connect(&addr).unwrap())
        .collect();
    for client in &clients {
        let allocations = client.submit_text_wait(SUN_QUERY).unwrap();
        client.release(&allocations[0]).unwrap();
    }
    if let (Some(before), Some(during)) = (before, thread_count()) {
        assert!(
            during <= before + 2,
            "connections must not bring threads: {before} before, {during} with 32 open"
        );
    }

    for client in &clients {
        client.shutdown().unwrap();
    }
    warm.halt_daemon().unwrap();
    warm.shutdown().unwrap();
    server.join().unwrap();
}

/// A frame larger than one read burst must still cross the reactor: the
/// per-event read cap bounds fairness between sessions, never a frame's
/// size (the protocol allows bodies up to 16 MiB).  A session stuck
/// forever mid-frame — and a hot-looping I/O thread — is the regression.
#[test]
fn frames_larger_than_one_read_burst_complete() {
    let db = homogeneous_db("sun", 100, 6);
    let server = PipelineBuilder::new()
        .database(db)
        .serve(&loopback(), BackendKind::Live)
        .unwrap();
    let mut sock = raw_hello(&server.local_addr());
    // ~600 KiB of query text: parse-rejected by the backend, but the
    // frame itself must be received whole and answered.
    let huge = "x".repeat(600 * 1024);
    send(
        &mut sock,
        &ClientFrame::Submit {
            corr: RequestId(0),
            query: huge,
        },
    );
    sock.set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .unwrap();
    match recv(&mut sock) {
        ServerFrame::Error { corr, .. } => assert_eq!(corr, RequestId(0)),
        other => panic!("expected a parse error for the oversized query, got {other:?}"),
    }
    // The session (and the daemon) still serve normally afterwards.
    send(
        &mut sock,
        &ClientFrame::Submit {
            corr: RequestId(1),
            query: SUN_QUERY.to_string(),
        },
    );
    assert!(matches!(
        recv(&mut sock),
        ServerFrame::Outcome { outcome: Ok(_), .. }
    ));
    drop(sock);
    server.halt();
    server.join().unwrap();
}

/// A connected client that stops reading its replies cannot wedge the
/// drain: once the teardown seals the write queue, the flush grace
/// deadline cuts the stalled session and `join` returns.
#[test]
fn a_client_that_never_reads_cannot_wedge_the_drain() {
    let db = homogeneous_db("sun", 100, 7);
    let server = PipelineBuilder::new()
        .database(db)
        .serve(&loopback(), BackendKind::Live)
        .unwrap();
    // Pump enough Stats requests that the replies overflow both socket
    // buffers; never read a byte back.
    let mut sock = raw_hello(&server.local_addr());
    for corr in 0..12_000u64 {
        send(
            &mut sock,
            &ClientFrame::Stats {
                corr: RequestId(corr),
            },
        );
    }
    std::thread::sleep(std::time::Duration::from_millis(200));
    server.halt();
    let start = std::time::Instant::now();
    server.join().unwrap();
    assert!(
        start.elapsed() < std::time::Duration::from_secs(30),
        "the drain must cut the non-reading client instead of waiting on it forever"
    );
    drop(sock);
}

/// The platform's poller and the portable `poll(2)` poller (the only one
/// on non-Linux unix, forced here as the reference) serve the identical
/// protocol end to end — the same session engine behind either, peer
/// links and their non-blocking dial included.
#[test]
fn every_poller_serves_the_same_protocol() {
    for poller in [PollerKind::Auto, PollerKind::Poll] {
        let db = homogeneous_db("sun", 100, 5);
        let server = PipelineBuilder::new()
            .database(db.clone())
            .poller(poller)
            .serve(&loopback(), BackendKind::Live)
            .unwrap();
        let remote = RemoteBackend::connect(&server.local_addr()).unwrap();
        let allocations = remote.submit_text_wait(SUN_QUERY).unwrap();
        assert_eq!(allocations.len(), 1, "{poller}");
        remote.release(&allocations[0]).unwrap();
        // An outcome nobody collects goes back under every poller.
        let _abandoned = remote.submit_text(SUN_QUERY).unwrap();
        remote.halt_daemon().unwrap();
        remote.shutdown().unwrap();
        server.join().unwrap();
        assert_eq!(active_jobs(&db), 0, "{poller}");

        parked_submissions_keep_their_turn(poller);
        a_federated_pair_delegates(poller);
    }
}

/// Two federated daemons on the same poller: the entry daemon's first I/O
/// thread dials the cold peer link with a non-blocking connect whose
/// writability that poller reports, and a delegation and its release cross
/// the link.
fn a_federated_pair_delegates(poller: PollerKind) {
    let spawn = |domain: &str, arch: &str, seed: u64, peers: Vec<StageAddress>| {
        PipelineBuilder::new()
            .database(homogeneous_db(arch, 20, seed))
            .poller(poller)
            .serve_federated(
                &loopback(),
                BackendKind::Live,
                FederationConfig {
                    domain: domain.to_string(),
                    peers,
                    gossip_interval: std::time::Duration::ZERO,
                    ..FederationConfig::default()
                },
            )
            .unwrap()
    };
    let (far, far_fed) = spawn("upc", "hp", 10, Vec::new());
    let (entry, _) = spawn("purdue", "sun", 11, vec![far.local_addr()]);
    let remote = RemoteBackend::connect(&entry.local_addr()).unwrap();
    let allocations = remote.submit_text_wait("punch.rsrc.arch = hp\n").unwrap();
    assert!(allocations[0].machine_name.contains("hp"), "{poller}");
    remote.release(&allocations[0]).unwrap();
    let far_stats = far_fed.stats();
    assert_eq!(
        (far_stats.allocations, far_stats.releases),
        (1, 1),
        "{poller}"
    );
    remote.halt_daemon().unwrap();
    remote.shutdown().unwrap();
    entry.join().unwrap();
    far.halt();
    far.join().unwrap();
}

/// One session against a live backend whose admission window holds a
/// single ticket.  Three `Submit`s written in one segment: the first takes
/// the permit, the other two queue on the window in wire order, and each
/// permit that comes back must go to the submission whose turn it is — the
/// second launches when the first's outcome is in, the third after it.
/// The pipeline numbers its requests as they come in, so their allocations
/// say so.
fn parked_submissions_keep_their_turn(poller: PollerKind) {
    use std::collections::BTreeMap;
    use std::io::Write;

    let db = homogeneous_db("sun", 100, 9);
    let server = PipelineBuilder::new()
        .database(db.clone())
        .poller(poller)
        .window(1)
        .serve(&loopback(), BackendKind::Live)
        .unwrap();
    let mut sock = raw_hello(&server.local_addr());
    // A deadlock fails the test instead of hanging it.
    sock.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let mut segment = Vec::new();
    for corr in 1..=3 {
        let submit = ClientFrame::Submit {
            corr: RequestId(corr),
            query: SUN_QUERY.to_string(),
        };
        write_frame(&mut segment, &submit).unwrap();
    }
    sock.write_all(&segment).unwrap();

    // Three outcomes, from different threads, in any order.
    let mut granted = BTreeMap::new();
    for _ in 0..3 {
        match recv(&mut sock) {
            ServerFrame::Outcome { corr, outcome } => {
                let allocation = outcome.unwrap().remove(0);
                assert!(granted.insert(corr.0, allocation).is_none(), "{poller}");
            }
            other => panic!("{poller}: unexpected {other:?}"),
        }
    }
    assert_eq!(granted.keys().copied().collect::<Vec<_>>(), [1, 2, 3]);
    assert!(
        granted[&1].request < granted[&2].request && granted[&2].request < granted[&3].request,
        "{poller}: launched out of turn"
    );
    for (i, allocation) in granted.into_values().enumerate() {
        send(
            &mut sock,
            &ClientFrame::Release {
                corr: RequestId(20 + i as u64),
                allocation,
            },
        );
        assert!(matches!(recv(&mut sock), ServerFrame::Released { .. }));
    }
    drop(sock);
    server.halt();
    server.join().unwrap();
    assert_eq!(active_jobs(&db), 0, "{poller}");
}
