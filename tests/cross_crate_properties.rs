//! Property-based tests over cross-crate invariants: query round-tripping,
//! pool-name stability, decomposition/reintegration, scheduling validity,
//! allocation/release conservation, and the delegation routing-state
//! invariants (TTL monotonicity, visited-list, termination).

use proptest::prelude::*;

use actyp_grid::{FleetSpec, SyntheticFleet};
use actyp_pipeline::{PipelineBuilder, ResourceManager, RoutingState};
use actyp_query::{parse_query, Constraint, PoolName, Query, QueryKey};

/// Strategy for a valid `rsrc` constraint set.
fn arch_strategy() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec!["sun", "hp", "linux"])
}

fn memory_strategy() -> impl Strategy<Value = u64> {
    prop::sample::select(vec![16u64, 64, 128, 256, 512, 1024])
}

fn manager_names_strategy() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(
        prop::sample::select(vec![0usize, 1, 2, 3, 4, 5, 6, 7]),
        1..8,
    )
    .prop_map(|indices| {
        let mut names: Vec<String> = indices.iter().map(|i| format!("pm-{i}")).collect();
        names.sort();
        names.dedup();
        names
    })
}

fn query_strategy() -> impl Strategy<Value = Query> {
    (
        arch_strategy(),
        memory_strategy(),
        prop::option::of(prop::sample::select(vec!["purdue", "upc", "ufl"])),
        prop::bool::ANY,
    )
        .prop_map(|(arch, memory, domain, add_user)| {
            let mut q = Query::new()
                .with(QueryKey::rsrc("arch"), Constraint::eq(arch))
                .with(QueryKey::rsrc("memory"), Constraint::ge(memory));
            if let Some(domain) = domain {
                q = q.with(QueryKey::rsrc("domain"), Constraint::eq(domain));
            }
            if add_user {
                q = q
                    .with(QueryKey::user("login"), Constraint::eq("prop"))
                    .with(QueryKey::user("accessgroup"), Constraint::eq("ece"));
            }
            q
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rendering a query and re-parsing it yields the same query.
    #[test]
    fn query_display_parse_round_trip(query in query_strategy()) {
        let text = query.to_string();
        let reparsed = parse_query(&text).unwrap();
        prop_assert_eq!(query, reparsed);
    }

    /// Pool names do not depend on the order in which clauses were written.
    #[test]
    fn pool_names_are_order_insensitive(query in query_strategy()) {
        let basic = query.decompose(4).remove(0);
        let mut reversed = basic.clone();
        reversed.clauses.reverse();
        prop_assert_eq!(
            PoolName::from_query(&basic).full(),
            PoolName::from_query(&reversed).full()
        );
    }

    /// Decomposition produces exactly the advertised number of basic queries
    /// and each one is non-composite.
    #[test]
    fn decomposition_size_matches(
        archs in prop::collection::vec(arch_strategy(), 1..4),
        memory in memory_strategy()
    ) {
        let query = Query::new()
            .with_alternatives(
                QueryKey::rsrc("arch"),
                archs.iter().map(|a| Constraint::eq(*a)).collect(),
            )
            .with(QueryKey::rsrc("memory"), Constraint::ge(memory));
        let basics = query.decompose(64);
        prop_assert_eq!(basics.len(), archs.len());
        prop_assert_eq!(basics.len(), query.decomposition_size());
    }

    /// Whatever machine the pipeline selects satisfies every constraint of
    /// the query, and releasing restores the database to its prior state.
    #[test]
    fn allocations_satisfy_constraints_and_release_conserves_state(
        query in query_strategy(),
        seed in 0u64..50
    ) {
        let db = SyntheticFleet::new(FleetSpec::with_machines(150), seed)
            .generate()
            .into_shared();
        let jobs_before: u32 = db.read().iter().map(|m| m.dynamic.active_jobs).sum();
        let manager = PipelineBuilder::new()
            .database(db.clone())
            .build_live()
            .unwrap();
        match manager.submit_wait(&query) {
            Ok(allocations) => {
                {
                    let guard = db.read();
                    for a in &allocations {
                        let machine = guard.get(a.machine).unwrap();
                        let basic = query.decompose(8).remove(0);
                        // The arch constraint may have matched a different
                        // alternative, so only check the numeric bound here.
                        if let Some(min_memory) = basic
                            .value(actyp_query::Section::Rsrc, "memory")
                            .and_then(|v| v.as_num())
                        {
                            let memory = machine
                                .attribute("memory")
                                .and_then(|v| v.as_num())
                                .unwrap_or(0.0);
                            prop_assert!(memory >= min_memory);
                        }
                        prop_assert!(machine.accepting_work());
                    }
                }
                for a in &allocations {
                    prop_assert!(manager.release(a).is_ok());
                }
                let jobs_after: u32 = db.read().iter().map(|m| m.dynamic.active_jobs).sum();
                prop_assert_eq!(jobs_before, jobs_after);
            }
            Err(_) => {
                // Failure must not leave partial state behind.
                let jobs_after: u32 = db.read().iter().map(|m| m.dynamic.active_jobs).sum();
                prop_assert_eq!(jobs_before, jobs_after);
            }
        }
    }

    /// The signature/identifier split is stable: queries with the same keys
    /// and operators but different values share a signature and differ only
    /// in the identifier.
    #[test]
    fn signature_identifier_split(a in arch_strategy(), b in arch_strategy(), memory in memory_strategy()) {
        let make = |arch: &str| {
            PoolName::from_query(
                &Query::new()
                    .with(QueryKey::rsrc("arch"), Constraint::eq(arch))
                    .with(QueryKey::rsrc("memory"), Constraint::ge(memory))
                    .decompose(1)
                    .remove(0),
            )
        };
        let pa = make(a);
        let pb = make(b);
        prop_assert_eq!(&pa.signature, &pb.signature);
        if a == b {
            prop_assert_eq!(&pa.identifier, &pb.identifier);
        } else {
            prop_assert_ne!(&pa.identifier, &pb.identifier);
        }
    }

    /// The TTL carried with a query strictly decreases on every visit, so a
    /// delegated query can never live longer than its initial TTL.
    #[test]
    fn routing_ttl_strictly_decreases(
        ttl in 1u32..32,
        managers in manager_names_strategy()
    ) {
        let mut routing = RoutingState::new(ttl);
        let mut previous = routing.ttl;
        for manager in &managers {
            if !routing.visit(manager) {
                prop_assert_eq!(routing.ttl, 0, "visit only fails when the TTL is spent");
                break;
            }
            prop_assert!(routing.ttl < previous, "TTL must strictly decrease");
            previous = routing.ttl;
        }
    }

    /// The visited list never records the same pool manager twice, however
    /// often the query returns to it.
    #[test]
    fn routing_visited_list_never_revisits(
        ttl in 1u32..32,
        managers in prop::collection::vec(prop::sample::select(vec!["pm-a", "pm-b", "pm-c"]), 1..16)
    ) {
        let mut routing = RoutingState::new(ttl);
        for manager in &managers {
            if !routing.visit(manager) {
                break;
            }
            prop_assert!(routing.has_visited(manager));
        }
        let mut unique = routing.visited.clone();
        unique.sort();
        unique.dedup();
        prop_assert_eq!(unique.len(), routing.visited.len(), "no duplicates");
    }

    /// Delegation as the pool managers perform it — always pick a manager
    /// that has not yet seen the query, while the routing state stays alive
    /// — terminates within `ttl` hops and visits every manager at most
    /// once.
    #[test]
    fn routing_delegation_terminates_within_ttl(
        ttl in 1u32..16,
        managers in manager_names_strategy()
    ) {
        let mut routing = RoutingState::new(ttl);
        let mut hops = 0u32;
        let mut current = managers[0].clone();
        loop {
            if !routing.visit(&current) {
                break; // TTL expired
            }
            hops += 1;
            prop_assert!(hops <= ttl, "a query cannot outlive its TTL");
            // The delegation rule of the pool-manager stage: next unvisited.
            let next = managers.iter().find(|name| !routing.has_visited(name));
            match next {
                Some(name) if routing.alive() => current = name.clone(),
                _ => break, // every manager seen, or TTL exhausted
            }
        }
        prop_assert!(hops <= ttl);
        prop_assert!(
            routing.visited.len() as u32 <= ttl.min(managers.len() as u32),
            "at most one visit per manager, bounded by the TTL"
        );
    }
}
