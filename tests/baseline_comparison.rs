//! Integration test: the ActYP pipeline and the centralized baselines make
//! equivalent *placement* decisions on the same fleet and query language,
//! while differing in the amount of work per decision — the architectural
//! contrast Section 8 of the paper draws qualitatively.  All three
//! architectures are driven through the unified [`ResourceManager`] trait.

use actyp_grid::{FleetSpec, SyntheticFleet};
use actyp_pipeline::{BackendKind, PipelineBuilder};
use actyp_query::{Constraint, Query, QueryKey};

fn fleet(machines: usize, seed: u64) -> actyp_grid::SharedDatabase {
    SyntheticFleet::new(FleetSpec::with_machines(machines), seed)
        .generate()
        .into_shared()
}

fn sun_query() -> Query {
    Query::new()
        .with(QueryKey::rsrc("arch"), Constraint::eq("sun"))
        .with(QueryKey::rsrc("memory"), Constraint::ge(128u64))
        .with(QueryKey::user("accessgroup"), Constraint::eq("ece"))
}

#[test]
fn all_three_architectures_satisfy_the_same_constraints() {
    let db = fleet(300, 1);
    let query = sun_query();

    for kind in BackendKind::ALL {
        let manager = PipelineBuilder::new()
            .database(db.clone())
            .build(kind)
            .unwrap();
        let machine = manager.submit_wait(&query).unwrap().remove(0).machine;
        let guard = db.read();
        let record = guard.get(machine).unwrap();
        assert!(record.attribute("arch").unwrap().contains("sun"), "{kind}");
        assert!(
            record.attribute("memory").unwrap().as_num().unwrap() >= 128.0,
            "{kind}"
        );
    }
}

#[test]
fn pipeline_amortises_matching_work_through_pools() {
    let queries = 50;
    let mut examined = std::collections::HashMap::new();

    for kind in BackendKind::ALL {
        // A fresh fleet per backend so load states are identical.
        let manager = PipelineBuilder::new()
            .database(fleet(1_000, 2))
            .build(kind)
            .unwrap();
        for _ in 0..queries {
            let allocations = manager.submit_wait(&sun_query()).unwrap();
            for a in &allocations {
                manager.release(a).unwrap();
            }
        }
        examined.insert(kind, manager.stats().records_examined);
        manager.shutdown().unwrap();
    }

    // Pools only scan the machines that satisfy the aggregation criteria;
    // the centralized designs scan the full table for every decision.
    let pipeline = examined[&BackendKind::Live];
    let central = examined[&BackendKind::CentralQueue];
    let matchmaker = examined[&BackendKind::Matchmaker];
    assert!(
        pipeline < central,
        "pipeline examined {pipeline}, central scanned {central}"
    );
    assert!(pipeline < matchmaker);
    assert_eq!(central, matchmaker);
}

#[test]
fn baselines_and_pipeline_agree_when_nothing_matches() {
    let db = fleet(100, 3);
    let impossible = Query::new().with(QueryKey::rsrc("arch"), Constraint::eq("cray"));

    for kind in BackendKind::ALL {
        let manager = PipelineBuilder::new()
            .database(db.clone())
            .build(kind)
            .unwrap();
        assert!(manager.submit_wait(&impossible).is_err(), "{kind}");
        let stats = manager.stats();
        assert_eq!(stats.failures, 1, "{kind}");
        assert_eq!(stats.allocations, 0, "{kind}");
    }
}
