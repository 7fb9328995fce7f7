//! `backend_submit`: the same submit → wait → release workload swept across
//! all four backends — the pipeline (live), the centralized multi-queue
//! scheduler, the centralized matchmaker, and the remote
//! backend talking to a loopback `ypd` daemon — through the unified
//! `ResourceManager` API.  Because the client code is identical, the
//! numbers isolate the architectural cost of each deployment (for the
//! remote backend: the wire hop, framing and correlation); pipelined
//! variants show what ticket-based pipelining buys over blocking round
//! trips, in-process and across the socket.  The federated pair measures
//! the wide-area topology: a query delegated between two peered daemons
//! versus one the entry domain satisfies itself.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use actyp_grid::{FleetSpec, SyntheticFleet};
use actyp_pipeline::{BackendKind, PipelineBuilder, ResourceManager, StageAddress};
use actyp_query::Query;

fn fleet(machines: usize, seed: u64) -> actyp_grid::SharedDatabase {
    SyntheticFleet::new(FleetSpec::with_machines(machines), seed)
        .generate()
        .into_shared()
}

/// One blocking round trip per iteration, identical client code on every
/// backend.
fn bench_backend_round_trip(c: &mut Criterion) {
    let query = Query::paper_example();
    for kind in BackendKind::ALL {
        let manager = PipelineBuilder::new()
            .database(fleet(800, 7))
            .build(kind)
            .unwrap();
        // Warm up so the pipeline's pool exists (steady state is what the
        // comparison is about; pool creation is a one-time cost).
        let warm = manager.submit_wait(&query).unwrap();
        for a in &warm {
            manager.release(a).unwrap();
        }
        c.bench_function(&format!("backend_submit/{kind}"), |b| {
            b.iter(|| {
                let allocations = manager.submit_wait(black_box(&query)).unwrap();
                for a in &allocations {
                    manager.release(a).unwrap();
                }
            })
        });
        manager.shutdown().unwrap();
    }
}

/// Eight pipelined tickets in flight at once versus one-at-a-time blocking
/// submission, on the live backend: the pipelining win the paper measures.
fn bench_live_pipelining(c: &mut Criterion) {
    const BATCH: usize = 8;
    let query = Query::paper_example();
    let pipeline = PipelineBuilder::new()
        .database(fleet(800, 8))
        .pool_managers(2)
        .window(BATCH)
        .build_live()
        .unwrap();
    let warm = pipeline.submit_wait(&query).unwrap();
    for a in &warm {
        pipeline.release(a).unwrap();
    }

    c.bench_function("backend_submit/live_blocking_x8", |b| {
        b.iter(|| {
            for _ in 0..BATCH {
                let allocations = pipeline.submit_wait(black_box(&query)).unwrap();
                for a in &allocations {
                    pipeline.release(a).unwrap();
                }
            }
        })
    });

    c.bench_function("backend_submit/live_pipelined_x8", |b| {
        b.iter(|| {
            let tickets: Vec<_> = (0..BATCH)
                .map(|_| pipeline.submit(black_box(query.clone())).unwrap())
                .collect();
            for ticket in tickets {
                let allocations = pipeline.wait(ticket).unwrap();
                for a in &allocations {
                    pipeline.release(a).unwrap();
                }
            }
        })
    });
    pipeline.shutdown().unwrap();
}

/// The fifth configuration: the identical round-trip workload against a
/// loopback `ypd` daemon hosting the live pipeline, so the wire-hop
/// overhead (framing, correlation, TCP) is tracked right next to the
/// in-process numbers — plus the pipelined-vs-blocking comparison across
/// the socket.
fn bench_remote_round_trip(c: &mut Criterion) {
    const BATCH: usize = 8;
    let query = Query::paper_example();
    let server = PipelineBuilder::new()
        .database(fleet(800, 9))
        .window(BATCH)
        .serve(&StageAddress::new("127.0.0.1", 0), BackendKind::Live)
        .expect("loopback ypd starts");
    let remote = PipelineBuilder::remote(&server.local_addr()).expect("connect to loopback ypd");
    let warm = remote.submit_wait(&query).unwrap();
    for a in &warm {
        remote.release(a).unwrap();
    }

    c.bench_function("backend_submit/remote", |b| {
        b.iter(|| {
            let allocations = remote.submit_wait(black_box(&query)).unwrap();
            for a in &allocations {
                remote.release(a).unwrap();
            }
        })
    });

    c.bench_function("backend_submit/remote_pipelined_x8", |b| {
        b.iter(|| {
            let tickets: Vec<_> = (0..BATCH)
                .map(|_| remote.submit(black_box(query.clone())).unwrap())
                .collect();
            for ticket in tickets {
                let allocations = remote.wait(ticket).unwrap();
                for a in &allocations {
                    remote.release(a).unwrap();
                }
            }
        })
    });

    remote.halt_daemon().unwrap();
    remote.shutdown().unwrap();
    server.join().unwrap();
}

/// The reactor's headline win, measured: submit latency on one active
/// connection while N *idle* sessions sit connected to the same daemon.
/// Under the event-driven engine the idle sessions cost a poller
/// registration each — no threads — so latency should hold flat as the
/// sweep climbs.
fn bench_remote_idle_connections(c: &mut Criterion) {
    use actyp_proto::{write_frame, ClientFrame, PROTOCOL_VERSION};
    use std::net::TcpStream;

    let query = Query::paper_example();
    for idle_count in [0usize, 64, 256] {
        let server = PipelineBuilder::new()
            .database(fleet(800, 12))
            .serve(&StageAddress::new("127.0.0.1", 0), BackendKind::Live)
            .expect("loopback ypd starts");
        let addr = server.local_addr();
        // Idle sessions: hello-handshaken raw sockets (no client threads),
        // held open for the duration of the measurement.
        let idle: Vec<TcpStream> = (0..idle_count)
            .map(|_| {
                let mut sock = TcpStream::connect((addr.host.as_str(), addr.port)).unwrap();
                write_frame(
                    &mut sock,
                    &ClientFrame::Hello {
                        min_version: PROTOCOL_VERSION,
                        max_version: PROTOCOL_VERSION,
                    },
                )
                .unwrap();
                sock
            })
            .collect();
        let remote = PipelineBuilder::remote(&addr).expect("connect to loopback ypd");
        let warm = remote.submit_wait(&query).unwrap();
        for a in &warm {
            remote.release(a).unwrap();
        }
        c.bench_function(&format!("backend_submit/remote_idle_x{idle_count}"), |b| {
            b.iter(|| {
                let allocations = remote.submit_wait(black_box(&query)).unwrap();
                for a in &allocations {
                    remote.release(a).unwrap();
                }
            })
        });
        drop(idle);
        remote.halt_daemon().unwrap();
        remote.shutdown().unwrap();
        server.join().unwrap();
    }
}

/// How deep pipelining pays across the socket: one connection, D pipelined
/// submissions in flight at once, swept over D.  The per-ticket cost should
/// fall as D grows — the paper's pipelining claim, measured against the
/// reactor server.
fn bench_remote_pipelining_depth(c: &mut Criterion) {
    let query = Query::paper_example();
    let server = PipelineBuilder::new()
        .database(fleet(800, 13))
        .window(64)
        .serve(&StageAddress::new("127.0.0.1", 0), BackendKind::Live)
        .expect("loopback ypd starts");
    let remote = PipelineBuilder::remote(&server.local_addr()).expect("connect to loopback ypd");
    let warm = remote.submit_wait(&query).unwrap();
    for a in &warm {
        remote.release(a).unwrap();
    }
    for depth in [1usize, 2, 4, 8, 16, 32] {
        c.bench_function(
            &format!("backend_submit/remote_pipelined_depth_{depth}"),
            |b| {
                b.iter(|| {
                    let tickets: Vec<_> = (0..depth)
                        .map(|_| remote.submit(black_box(query.clone())).unwrap())
                        .collect();
                    for ticket in tickets {
                        let allocations = remote.wait(ticket).unwrap();
                        for a in &allocations {
                            remote.release(a).unwrap();
                        }
                    }
                })
            },
        );
    }
    remote.halt_daemon().unwrap();
    remote.shutdown().unwrap();
    server.join().unwrap();
}

/// Wide-area delegation cost: two federated loopback daemons, a query the
/// entry domain cannot satisfy, so every iteration crosses client → entry
/// daemon → peer daemon and back — the paper's WAN hop, measured right
/// next to the single-daemon remote numbers.  A locally satisfiable query
/// on the same topology isolates the federation layer's bookkeeping
/// overhead from the extra hop.
fn bench_federated_delegation(c: &mut Criterion) {
    use actyp_pipeline::FederationConfig;

    fn homogeneous(arch: &str, seed: u64) -> actyp_grid::SharedDatabase {
        SyntheticFleet::new(FleetSpec::homogeneous(200, arch, 512), seed)
            .generate()
            .into_shared()
    }
    let federated = |domain: &str, arch: &str, seed: u64, peers: Vec<StageAddress>| {
        PipelineBuilder::new()
            .database(homogeneous(arch, seed))
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
            .expect("federated loopback ypd starts")
    };
    let (peer, _) = federated("upc", "hp", 11, Vec::new());
    let (entry, _) = federated("purdue", "sun", 10, vec![peer.local_addr()]);
    let remote = PipelineBuilder::remote(&entry.local_addr()).expect("connect to entry daemon");

    let local = actyp_query::parse_query("punch.rsrc.arch = sun\n").unwrap();
    let delegated = actyp_query::parse_query("punch.rsrc.arch = hp\n").unwrap();
    for query in [&local, &delegated] {
        let warm = remote.submit_wait(query).unwrap();
        for a in &warm {
            remote.release(a).unwrap();
        }
    }

    c.bench_function("backend_submit/federated_local", |b| {
        b.iter(|| {
            let allocations = remote.submit_wait(black_box(&local)).unwrap();
            for a in &allocations {
                remote.release(a).unwrap();
            }
        })
    });

    c.bench_function("backend_submit/federated_delegated", |b| {
        b.iter(|| {
            let allocations = remote.submit_wait(black_box(&delegated)).unwrap();
            for a in &allocations {
                remote.release(a).unwrap();
            }
        })
    });

    remote.halt_daemon().unwrap();
    remote.shutdown().unwrap();
    entry.join().unwrap();
    peer.halt();
    peer.join().unwrap();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = backend_submit;
    config = config();
    targets = bench_backend_round_trip, bench_live_pipelining, bench_remote_round_trip,
        bench_remote_idle_connections, bench_remote_pipelining_depth,
        bench_federated_delegation
}
criterion_main!(backend_submit);
