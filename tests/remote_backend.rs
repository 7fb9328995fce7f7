//! Integration tests for the wire deployment: one client-code body runs
//! unchanged against all **four** backends — the pipeline (live), the two
//! centralized baselines, and the remote backend speaking the `actyp-proto`
//! protocol to a loopback `ypd` — and the remote backend demonstrably
//! pipelines tickets across the network hop.

use std::sync::Arc;

use actyp_grid::{FleetSpec, SyntheticFleet};
use actyp_pipeline::{
    serve, AllocationError, BackendKind, PipelineBuilder, ResourceManager, ServerHandle,
    StageAddress,
};
use actyp_query::Query;

fn fleet(machines: usize, seed: u64) -> actyp_grid::SharedDatabase {
    SyntheticFleet::new(FleetSpec::with_machines(machines), seed)
        .generate()
        .into_shared()
}

fn builder(machines: usize, seed: u64) -> PipelineBuilder {
    PipelineBuilder::new().database(fleet(machines, seed))
}

fn loopback() -> StageAddress {
    StageAddress::new("127.0.0.1", 0)
}

/// Starts a loopback `ypd` hosting the live pipeline and connects a remote
/// manager to it.
fn remote_pair(machines: usize, seed: u64) -> (ServerHandle, Box<dyn ResourceManager>) {
    let server = builder(machines, seed)
        .serve(&loopback(), BackendKind::Live)
        .expect("loopback ypd starts");
    let remote = PipelineBuilder::remote(&server.local_addr()).expect("connect");
    (server, Box::new(remote))
}

/// THE single test body: a full client lifecycle — single submit, pipelined
/// submits with tickets held concurrently, poll-until-ready, release,
/// stats and error handling — written once against the trait and reused
/// verbatim for every architecture.
fn exercise_manager(manager: &dyn ResourceManager, label: &str) {
    let query = Query::paper_example();

    // Single submit → wait → release.
    let ticket = manager.submit(query.clone()).expect(label);
    let allocations = manager.wait(ticket).expect(label);
    assert_eq!(allocations.len(), 1, "{label}");
    assert!(allocations[0].machine_name.contains("sun"), "{label}");
    manager.release(&allocations[0]).expect(label);

    // Pipelined submits: four tickets, all issued before any redemption.
    let tickets: Vec<_> = (0..4)
        .map(|_| manager.submit(query.clone()).expect(label))
        .collect();
    for ticket in tickets {
        let allocations = manager.wait(ticket).expect(label);
        manager.release(&allocations[0]).expect(label);
    }

    // Poll until resolved (eager backends resolve instantly, pipelined ones
    // eventually).
    let ticket = manager.submit(query).expect(label);
    let outcome = loop {
        if let Some(outcome) = manager.try_poll(ticket) {
            break outcome;
        }
        std::thread::yield_now();
    };
    let allocations = outcome.expect(label);
    manager.release(&allocations[0]).expect(label);

    // Tickets redeem exactly once.
    assert_eq!(
        manager.wait(ticket).unwrap_err(),
        AllocationError::UnknownTicket,
        "{label}"
    );

    // Impossible queries fail with a typed error, not a hang.
    let err = manager
        .submit_text_wait("punch.rsrc.arch = cray\n")
        .unwrap_err();
    assert!(
        matches!(
            err,
            AllocationError::NoSuchResources | AllocationError::NoneAvailable
        ),
        "{label}: {err:?}"
    );

    // The unified counters agree with what the body just did.
    let stats = manager.stats();
    assert_eq!(stats.requests, 7, "{label}");
    assert_eq!(stats.allocations, 6, "{label}");
    assert_eq!(stats.releases, 6, "{label}");
    assert_eq!(stats.failures, 1, "{label}");
    assert_eq!(stats.in_flight, 0, "{label}");
    assert!(stats.records_examined > 0, "{label}");
}

#[test]
fn one_test_body_passes_on_all_four_backends() {
    // The three in-process architectures...
    for kind in BackendKind::ALL {
        let manager = builder(400, 11).build(kind).expect("build");
        exercise_manager(manager.as_ref(), &kind.to_string());
        manager.shutdown().expect("shutdown");
    }
    // ...and the fourth: the same body across a real TCP hop.
    let (server, remote) = remote_pair(400, 11);
    exercise_manager(remote.as_ref(), "remote");
    server.halt();
    remote.shutdown().expect("session shutdown");
    server.join().expect("daemon drains");
}

#[test]
fn remote_backend_pipelines_tickets_across_the_wire() {
    // N tickets submitted on ONE connection before the first wait; the
    // server-side stats must show them simultaneously in flight across the
    // live pipeline's stages — the paper's pipelining spanning a real
    // network hop.
    const N: usize = 6;
    let db = fleet(600, 12);
    let live = Arc::new(
        PipelineBuilder::new()
            .database(db.clone())
            .build_live()
            .unwrap(),
    );
    let server = serve(Box::new(live.clone()), &loopback()).expect("loopback ypd starts");
    let remote = PipelineBuilder::remote(&server.local_addr()).expect("connect");
    let query = Query::paper_example();

    // While a helper thread holds the pool-manager stage, posts to it only
    // queue and the stage can finish none of them, so the daemon holds
    // every ticket at once.
    let (hold, held) = std::sync::mpsc::channel::<()>();
    let (taken, locked) = std::sync::mpsc::channel();
    let holder = {
        let live = live.clone();
        std::thread::spawn(move || {
            live.pipeline().with_pool_manager("pm-0", |_| {
                taken.send(()).unwrap();
                let _ = held.recv();
            })
        })
    };
    locked.recv().unwrap();
    let tickets: Vec<_> = (0..N)
        .map(|_| remote.submit(query.clone()).unwrap())
        .collect();
    let in_flight = remote.stats().in_flight;
    assert_eq!(
        in_flight, N,
        "expected overlapped occupancy server-side, saw {in_flight}"
    );
    drop(hold);
    holder.join().unwrap();

    for ticket in tickets {
        let allocations = remote.wait(ticket).unwrap();
        remote.release(&allocations[0]).unwrap();
    }
    let stats = remote.stats();
    assert_eq!(stats.allocations, N as u64);
    assert_eq!(stats.releases, N as u64);
    assert_eq!(stats.in_flight, 0);

    server.halt();
    remote.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn concurrent_client_threads_share_one_remote_connection() {
    let (server, remote) = remote_pair(600, 13);
    let remote: Arc<dyn ResourceManager> = Arc::from(remote);
    let mut joins = Vec::new();
    for _ in 0..4 {
        let remote = remote.clone();
        joins.push(std::thread::spawn(move || {
            for _ in 0..5 {
                let allocations = remote.submit_wait(&Query::paper_example()).unwrap();
                remote.release(&allocations[0]).unwrap();
            }
        }));
    }
    for join in joins {
        join.join().unwrap();
    }
    let stats = remote.stats();
    assert_eq!(stats.allocations, 20);
    assert_eq!(stats.releases, 20);

    server.halt();
    remote.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn two_remote_clients_hit_the_same_daemon() {
    let server = builder(500, 14)
        .serve(&loopback(), BackendKind::Live)
        .unwrap();
    let addr = server.local_addr();
    let first = PipelineBuilder::remote(&addr).unwrap();
    let second = PipelineBuilder::remote(&addr).unwrap();

    let t1 = first.submit(Query::paper_example()).unwrap();
    let t2 = second.submit(Query::paper_example()).unwrap();
    // The client-side brand check rejects a foreign ticket without a round
    // trip: a ticket is its connection's correlation id, and the daemon
    // issues none.
    assert_eq!(second.wait(t1).unwrap_err(), AllocationError::UnknownTicket);
    let a1 = first.wait(t1).unwrap();
    let a2 = second.wait(t2).unwrap();
    first.release(&a1[0]).unwrap();
    second.release(&a2[0]).unwrap();
    // Both sessions observe the same backend counters.
    assert_eq!(first.stats().allocations, 2);
    assert_eq!(second.stats().releases, 2);

    first.halt_daemon().unwrap();
    first.shutdown().unwrap();
    second.shutdown().unwrap();
    server.join().unwrap();
}
