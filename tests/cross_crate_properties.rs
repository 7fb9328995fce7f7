//! Property-based tests over cross-crate invariants: query round-tripping,
//! pool-name stability, decomposition/reintegration, scheduling validity,
//! allocation/release conservation, the delegation routing-state
//! invariants (TTL monotonicity, visited-list, termination), the borrowing
//! matcher against the owned evaluation it replaced, and the white pages'
//! dense id table.

use proptest::prelude::*;

use actyp_grid::{
    AttrValue, FleetSpec, Machine, MachineId, MachineState, ResourceDatabase, SyntheticFleet,
};
use actyp_pipeline::{PipelineBuilder, ResourceManager, RoutingState};
use actyp_query::{
    matches_machine, parse_query, BasicClause, BasicQuery, CmpOp, Constraint, MatchOutcome,
    PoolName, Query, QueryKey,
};

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

/// Attribute values that stress the matcher's number and text views:
/// padded and special numeric strings, mixed case, lists and flags.
fn attr_values() -> Vec<AttrValue> {
    vec![
        AttrValue::str("sun"),
        AttrValue::str("SUN"),
        AttrValue::str("Hp"),
        AttrValue::str(" 128 "),
        AttrValue::str("inf"),
        AttrValue::str("nan"),
        AttrValue::str("-0"),
        AttrValue::str("1e3"),
        AttrValue::str(""),
        AttrValue::str("Spice"),
        AttrValue::str("up"),
        AttrValue::num(128.0),
        AttrValue::num(512.5),
        AttrValue::num(-1.0),
        AttrValue::num(f64::INFINITY),
        AttrValue::num(f64::NAN),
        AttrValue::list(["sge", "PBS"]),
        AttrValue::list(["Condor"]),
        AttrValue::list(Vec::<String>::new()),
        AttrValue::Bool(true),
        AttrValue::Bool(false),
    ]
}

/// Clause keys: parameters, builtins (`speed` is also set as a parameter,
/// which shadows it), the tool-group keys and one key no machine defines.
const MATCH_KEYS: [&str; 13] = [
    "arch",
    "memory",
    "speed",
    "cms",
    "name",
    "state",
    "load",
    "cpus",
    "maxload",
    "license",
    "tool",
    "toolgroup",
    "gpu",
];

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Ge,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Lt,
];

fn machine_strategy() -> impl Strategy<Value = Machine> {
    let values = attr_values().len();
    (
        prop::sample::select(vec!["sun01", "Alpha", "128", " 7 ", "nan"]),
        prop::sample::select(vec![
            MachineState::Up,
            MachineState::Down,
            MachineState::Blocked,
        ]),
        prop::sample::select(vec![0.0, 0.5, 128.0, 3.75]),
        prop::collection::vec(
            (
                prop::sample::select(vec!["arch", "memory", "speed", "cms", "name", "license"]),
                0..values,
            ),
            0..6,
        ),
        prop::collection::vec(
            prop::sample::select(vec!["spice", "SPICE", "tsuprem4", "Matlab"]),
            0..3,
        ),
    )
        .prop_map(|(name, state, load, params, tools)| {
            let values = attr_values();
            let mut machine = Machine::new(MachineId(0), name)
                .with_capacity(load * 2.0, 4, 8.0)
                .with_tool_groups(tools);
            machine.state = state;
            machine.dynamic.current_load = load;
            for (key, value) in params {
                machine = machine.with_param(key, values[value].clone());
            }
            machine
        })
}

fn clauses_strategy() -> impl Strategy<Value = BasicQuery> {
    prop::collection::vec(
        (0..MATCH_KEYS.len(), 0..OPS.len(), 0..attr_values().len()),
        0..5,
    )
    .prop_map(|clauses| {
        let values = attr_values();
        BasicQuery {
            clauses: clauses
                .into_iter()
                .map(|(key, op, value)| BasicClause {
                    key: QueryKey::rsrc(MATCH_KEYS[key]),
                    constraint: Constraint {
                        op: OPS[op],
                        value: values[value].clone(),
                    },
                })
                .collect(),
        }
    })
}

/// The matcher as it evaluated before it borrowed: an owned attribute per
/// clause and canonical text for every string compare.  Returns the key of
/// the first failing clause.
fn owned_reference_failure(query: &BasicQuery, machine: &Machine) -> Option<String> {
    fn compare(op: CmpOp, machine_value: &AttrValue, query_value: &AttrValue) -> bool {
        if let (Some(m), Some(q)) = (machine_value.as_num(), query_value.as_num()) {
            let ordering = m.partial_cmp(&q).unwrap_or(std::cmp::Ordering::Equal);
            return op.evaluate_ordering(ordering);
        }
        let query_text = query_value.canonical();
        match op {
            CmpOp::Eq => machine_value.contains(&query_text),
            CmpOp::Ne => !machine_value.contains(&query_text),
            _ => op.evaluate_ordering(machine_value.canonical().cmp(&query_text)),
        }
    }
    let holds = |clause: &BasicClause| {
        let key = clause.key.name.as_str();
        if key == "license" || key == "tool" || key == "toolgroup" {
            let supported = machine.supports_tool_group(&clause.constraint.value.canonical());
            return match clause.constraint.op {
                CmpOp::Ne => !supported,
                _ => supported,
            };
        }
        match machine.attribute(key) {
            Some(value) => compare(clause.constraint.op, &value, &clause.constraint.value),
            None => clause.constraint.op == CmpOp::Ne,
        }
    };
    query
        .rsrc_clauses()
        .find(|clause| !holds(clause))
        .map(|clause| clause.key.name.clone())
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The borrowing matcher agrees with the owned evaluation it replaced,
    /// on every operator, down to the key of the first failing clause.
    #[test]
    fn borrowing_matcher_agrees_with_the_owned_evaluation(
        machine in machine_strategy(),
        query in clauses_strategy()
    ) {
        let got = match matches_machine(&query, &machine) {
            MatchOutcome::Matched => None,
            MatchOutcome::Failed(key) => Some(key.to_string()),
        };
        prop_assert_eq!(got, owned_reference_failure(&query, &machine), "{:?} {:?}", machine, query);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A database extended by `generate_into` (and by a `register` whose
    /// record carries a stale id) stays a dense table: `get` returns the
    /// record whose id it was asked for, and `iter` runs in id order.
    #[test]
    fn generate_into_keeps_the_record_table_dense(
        first in 0usize..40,
        second in 0usize..40,
        seed in 0u64..1000
    ) {
        let mut db = ResourceDatabase::new();
        SyntheticFleet::new(FleetSpec::with_machines(first), seed).generate_into(&mut db);
        db.register(Machine::new(MachineId(9_999), "stale"));
        SyntheticFleet::new(FleetSpec::with_machines(second), seed + 1).generate_into(&mut db);
        prop_assert_eq!(db.len(), first + second + 1);
        for (index, machine) in db.iter().enumerate() {
            prop_assert_eq!(machine.id, MachineId(index as u64));
            prop_assert_eq!(db.get(machine.id).map(|m| m.id), Some(machine.id));
        }
        prop_assert!(db.get(MachineId(db.len() as u64)).is_none());
    }
}
