//! Integration test: the full PUNCH flow (desktop → application management →
//! ActYP pipeline → allocation → release) and the live deployment.
//! Every backend is driven through the unified [`ResourceManager`] surface,
//! exactly as the examples do.

use std::sync::Arc;

use actyp_grid::{FleetSpec, SyntheticFleet};
use actyp_pipeline::{
    BackendKind, PipelineBuilder, PipelineConfig, PoolManagerSelection, ResourceManager,
    StageAddress,
};
use actyp_punch::{NetworkDesktop, RunError};
use actyp_query::Query;

fn fleet(machines: usize, seed: u64) -> actyp_grid::SharedDatabase {
    SyntheticFleet::new(FleetSpec::with_machines(machines), seed)
        .generate()
        .into_shared()
}

#[test]
fn desktop_runs_complete_through_the_whole_stack() {
    let mut desktop = NetworkDesktop::new(fleet(400, 1), PipelineConfig::default());
    let mut handles = Vec::new();
    for command in [
        "tsuprem4 gridpoints=2500 steps=400 domain=purdue",
        "spice nodes=800 timesteps=5000",
        "minimos devicesize=2 accuracy=0.8",
    ] {
        handles.push(desktop.start_run("kapadia", command).expect("run starts"));
    }
    assert_eq!(desktop.active_runs(), 3);
    // Each run holds an application mount and a data mount.
    assert_eq!(desktop.mounts().active(), 6);

    for handle in handles {
        let outcome = desktop.complete_run(handle, 100.0).expect("run completes");
        assert!(!outcome.machine_name.is_empty());
    }
    assert_eq!(desktop.active_runs(), 0);
    assert_eq!(desktop.mounts().active(), 0);
    // Every allocation was released back to the pipeline.
    assert_eq!(
        desktop.manager().stats().allocations,
        desktop.manager().stats().releases
    );
}

#[test]
fn authorization_is_enforced_before_any_resources_are_touched() {
    let mut desktop = NetworkDesktop::new(fleet(100, 2), PipelineConfig::default());
    let err = desktop
        .start_run("guest", "minimos devicesize=1")
        .unwrap_err();
    assert!(matches!(err, RunError::Authorization(_)));
    assert_eq!(desktop.manager().stats().requests, 0);
    assert_eq!(desktop.mounts().active(), 0);
}

#[test]
fn live_pipeline_handles_a_burst_of_concurrent_clients() {
    let pipeline = Arc::new(
        PipelineBuilder::new()
            .database(fleet(600, 3))
            .pool_managers(2)
            .pool_manager_selection(PoolManagerSelection::RoundRobin)
            .build_live()
            .unwrap(),
    );
    let text = Query::paper_example().to_string();

    let mut joins = Vec::new();
    for _ in 0..8 {
        let pipeline = pipeline.clone();
        let text = text.clone();
        joins.push(std::thread::spawn(move || {
            let mut count = 0;
            for _ in 0..10 {
                let allocations = pipeline
                    .submit_text_wait(&text)
                    .expect("allocation succeeds");
                assert_eq!(allocations.len(), 1);
                assert!(allocations[0].machine_name.contains("sun"));
                pipeline.release(&allocations[0]).expect("release succeeds");
                count += 1;
            }
            count
        }));
    }
    let total: usize = joins.into_iter().map(|j| j.join().unwrap()).sum();
    assert_eq!(total, 80);
    assert_eq!(pipeline.stats().allocations, 80);

    // Temporal locality: the 80 identical queries created exactly one pool.
    assert_eq!(pipeline.pipeline().directory().instance_count(), 1);
    pipeline.shutdown().unwrap();
}

#[test]
fn single_client_keeps_several_tickets_in_flight() {
    // The pipelining the paper measures, from one client thread: tickets
    // are submitted before any earlier ticket is waited on, so the queries
    // overlap across the pool-manager and pool stages.
    let pipeline = PipelineBuilder::new()
        .database(fleet(400, 5))
        .window(8)
        .build_live()
        .unwrap();
    let query = Query::paper_example();

    let first = pipeline.submit(query.clone()).unwrap();
    let second = pipeline.submit(query.clone()).unwrap();
    let third = pipeline.submit(query).unwrap();
    // Three tickets submitted, none redeemed: all three are in flight.
    assert!(pipeline.stats().in_flight >= 2);

    for ticket in [first, second, third] {
        let allocations = pipeline.wait(ticket).unwrap();
        assert_eq!(allocations.len(), 1);
        pipeline.release(&allocations[0]).unwrap();
    }
    let stats = pipeline.stats();
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.allocations, 3);
    assert_eq!(stats.releases, 3);
    pipeline.shutdown().unwrap();
}

/// The pipeline in process, with its window and without one, and the
/// `ypd` daemon embedded in this process (served on loopback, reached over
/// a real socket) aggregate by the same criteria — the same pool name —
/// pick an hp machine with >=256 MB and balance their books.
#[test]
fn live_and_embedded_deployments_agree_on_semantics() {
    let text = "punch.rsrc.arch = hp\npunch.rsrc.memory = >=256\n";
    let builder = || PipelineBuilder::new().database(fleet(300, 4));
    let server = builder()
        .serve(&StageAddress::new("127.0.0.1", 0), BackendKind::Live)
        .unwrap();
    let deployments: [Box<dyn ResourceManager>; 3] = [
        builder().build(BackendKind::Live).unwrap(),
        Box::new(builder().build_embedded().unwrap()),
        Box::new(PipelineBuilder::remote(&server.local_addr()).unwrap()),
    ];
    let mut pools = Vec::new();
    for manager in deployments {
        let allocations = manager.submit_text_wait(text).expect("allocation succeeds");
        assert!(allocations[0].machine_name.contains("hp"));
        pools.push(allocations[0].pool.clone());
        manager.release(&allocations[0]).unwrap();
        let stats = manager.stats();
        assert_eq!((stats.allocations, stats.releases), (1, 1));
        assert_eq!(stats.in_flight, 0);
        manager.shutdown().unwrap();
    }
    assert!(pools.iter().all(|pool| *pool == pools[0]), "{pools:?}");
    server.halt();
    server.join().unwrap();
}
