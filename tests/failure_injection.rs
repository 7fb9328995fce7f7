//! Integration test: failure injection — machines going down mid-operation,
//! pool destruction with outstanding allocations, TTL exhaustion, shadow
//! account exhaustion, and monitor-driven recovery.  Backends are driven
//! through the unified [`ResourceManager`] trait; the concrete
//! [`LiveBackend`] handle is kept where a scenario must reach inside
//! the pipeline (pool destruction).

use actyp_grid::{FleetSpec, MachineState, MonitorConfig, ResourceMonitor, SyntheticFleet};
use actyp_pipeline::api::LiveBackend;
use actyp_pipeline::{AllocationError, PipelineBuilder, ResourceManager};
use actyp_simnet::SimTime;

fn homogeneous(machines: usize, seed: u64) -> actyp_grid::SharedDatabase {
    SyntheticFleet::new(FleetSpec::homogeneous(machines, "sun", 256), seed)
        .generate()
        .into_shared()
}

fn pipeline(db: actyp_grid::SharedDatabase) -> LiveBackend {
    PipelineBuilder::new().database(db).build_live().unwrap()
}

fn sun_text() -> String {
    // A query matching the homogeneous test fleets: the paper's example adds
    // a license constraint that only a subset of machines satisfies, which
    // would conflate "tool not installed" with the failures injected here.
    "punch.rsrc.arch = sun\npunch.user.login = tester\npunch.user.accessgroup = ece\n".to_string()
}

#[test]
fn down_machines_are_never_allocated() {
    let db = homogeneous(30, 1);
    // Take two-thirds of the fleet down before any pool exists.
    {
        let mut guard = db.write();
        let ids: Vec<_> = guard.iter().map(|m| m.id).collect();
        for id in ids.iter().take(20) {
            guard.set_state(*id, MachineState::Down);
        }
    }
    let manager = pipeline(db.clone());
    let mut allocations = Vec::new();
    for _ in 0..10 {
        let a = manager
            .submit_text_wait(&sun_text())
            .expect("up machines remain");
        allocations.extend(a);
    }
    let guard = db.read();
    for a in &allocations {
        assert_eq!(guard.get(a.machine).unwrap().state, MachineState::Up);
    }
}

#[test]
fn failures_after_pool_creation_shrink_the_usable_set_gracefully() {
    let db = homogeneous(10, 2);
    let manager = pipeline(db.clone());
    // Create the pool with every machine healthy.
    let first = manager.submit_text_wait(&sun_text()).unwrap();
    manager.release(&first[0]).unwrap();

    // Now everything fails.
    {
        let mut guard = db.write();
        let ids: Vec<_> = guard.iter().map(|m| m.id).collect();
        for id in ids {
            guard.set_state(id, MachineState::Down);
        }
    }
    let err = manager.submit_text_wait(&sun_text()).unwrap_err();
    assert_eq!(err, AllocationError::NoneAvailable);

    // Recovery restores service without rebuilding the pool.
    {
        let mut guard = db.write();
        let ids: Vec<_> = guard.iter().map(|m| m.id).collect();
        for id in ids {
            guard.set_state(id, MachineState::Up);
        }
    }
    assert!(manager.submit_text_wait(&sun_text()).is_ok());
    assert_eq!(
        manager.pipeline().directory().instance_count(),
        1,
        "the original pool keeps serving"
    );
}

#[test]
fn monitor_driven_failures_and_recoveries_are_respected() {
    let db = homogeneous(40, 3);
    let manager = pipeline(db.clone());
    let mut monitor = ResourceMonitor::new(
        MonitorConfig {
            failure_probability: 0.4,
            recovery_probability: 0.0,
            ..MonitorConfig::default()
        },
        7,
    );
    for step in 0..6 {
        let mut guard = db.write();
        monitor.sweep(&mut guard, SimTime::from_nanos(step));
    }
    let down = db
        .read()
        .iter()
        .filter(|m| m.state == MachineState::Down)
        .count();
    let up = db.read().len() - down;
    assert!(down > 0, "the monitor must have taken machines down");

    // Allocations keep landing on the surviving machines only.
    if up > 0 {
        for _ in 0..up.min(5) {
            let a = manager
                .submit_text_wait(&sun_text())
                .expect("survivors can serve");
            assert_eq!(db.read().get(a[0].machine).unwrap().state, MachineState::Up);
        }
    }
}

#[test]
fn shadow_account_exhaustion_is_reported() {
    let db = homogeneous(1, 4);
    {
        let mut guard = db.write();
        let id = guard.iter().next().unwrap().id;
        let machine = guard.get_mut(id).unwrap();
        machine.shadow_accounts = actyp_grid::ShadowAccountPool::with_accounts(6000, 1);
        machine.max_allowed_load = 100.0; // only shadow accounts limit us
        machine.num_cpus = 64;
    }
    let manager = pipeline(db);
    let first = manager
        .submit_text_wait(&sun_text())
        .expect("one account available");
    let err = manager.submit_text_wait(&sun_text()).unwrap_err();
    assert_eq!(err, AllocationError::ShadowAccountsExhausted);
    manager.release(&first[0]).unwrap();
    assert!(
        manager.submit_text_wait(&sun_text()).is_ok(),
        "release frees the account"
    );
}

#[test]
fn destroying_a_pool_with_outstanding_allocations_still_allows_release() {
    let db = homogeneous(20, 5);
    let manager = pipeline(db);
    let allocation = manager.submit_text_wait(&sun_text()).unwrap().remove(0);
    let destroyed = manager
        .pipeline()
        .with_pool_manager("pm-0", |pm| {
            pm.destroy_pool(&allocation.pool, allocation.pool_instance)
        })
        .unwrap();
    assert!(destroyed);
    // The directory entry is gone, but the fallback release path (scanning
    // the hosting managers) must not leak the machine… in this case the pool
    // itself is gone, so release reports the allocation as unknown rather
    // than corrupting state.
    let result = manager.release(&allocation);
    assert!(matches!(result, Err(AllocationError::UnknownAllocation)));
    // New queries recreate the pool on demand.
    assert!(manager.submit_text_wait(&sun_text()).is_ok());
}

#[test]
fn ttl_exhaustion_is_reported_when_no_domain_can_serve() {
    // Two domains, neither of which has hp machines.
    let manager = PipelineBuilder::new()
        .federated(vec![
            ("purdue".to_string(), homogeneous(10, 6)),
            ("upc".to_string(), homogeneous(10, 7)),
        ])
        .ttl(1)
        .build_live()
        .unwrap();
    let err = manager
        .submit_text_wait("punch.rsrc.arch = hp\n")
        .unwrap_err();
    // With TTL 1 the query dies after the first manager; with a larger TTL
    // it would exhaust the visited list and report NoSuchResources.
    assert!(
        matches!(
            err,
            AllocationError::NoSuchResources | AllocationError::TtlExpired
        ),
        "got {err:?}"
    );
    let err2 = PipelineBuilder::new()
        .federated(vec![
            ("purdue".to_string(), homogeneous(10, 8)),
            ("upc".to_string(), homogeneous(10, 9)),
        ])
        .build_live()
        .unwrap()
        .submit_text_wait("punch.rsrc.arch = hp\n")
        .unwrap_err();
    assert_eq!(err2, AllocationError::NoSuchResources);
}
