//! The embedded resource-management pipeline.
//!
//! [`Engine`] wires the stages together in a single address space: one or
//! more query managers, one or more pool managers (one per administrative
//! domain in federated deployments), a shared local directory service, and
//! the resource pools created on demand.  It implements the full control
//! flow of Sections 5.2.1–5.2.3 — translation, decomposition, pool-manager
//! selection, pool mapping and creation, forwarding to instances hosted by
//! other managers, delegation with TTL and visited-list, allocation, and
//! re-integration — as ordinary synchronous calls.
//!
//! All mutable stage state lives behind one internal lock, so every client
//! method takes `&self` — exactly the same receiver as
//! [`crate::live::LivePipeline`].  That symmetry is what lets the unified
//! [`crate::api::ResourceManager`] surface treat the embedded and threaded
//! deployments interchangeably.  Submission goes through that trait (via
//! [`crate::api::PipelineBuilder`]) exclusively — the legacy inherent
//! `submit*` shims are gone; the engine keeps only translation helpers and
//! inspection surface as public API.
//!
//! The embedded engine is what the examples, the baselines comparison and
//! the simulated experiments drive; [`crate::live`] puts the same stages on
//! threads connected by channels to demonstrate the pipelined deployment.

use std::sync::Arc;

use parking_lot::Mutex;

use actyp_grid::SharedDatabase;
use actyp_query::{BasicQuery, Query, QuerySchema};

use crate::allocation::{Allocation, AllocationError};
use crate::directory::{LocalDirectoryService, SharedDirectory};
use crate::message::{RequestId, RequestIdGenerator, RoutingState};
use crate::pool_manager::{HandleOutcome, InstanceSelection, PoolManager, PoolManagerConfig};
use crate::query_manager::{PoolManagerSelection, QueryManager, ReintegrationPolicy};
use crate::scheduler::SchedulingObjective;

/// Configuration of an embedded pipeline.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Number of query-manager replicas (the live pipeline runs them on
    /// the launching thread).
    pub query_managers: usize,
    /// Number of pool-manager stages (single-domain deployments; federated
    /// deployments pass one database per manager to [`Engine::federated`]).
    pub pool_managers: usize,
    /// Scheduling objective used by created pools.
    pub objective: SchedulingObjective,
    /// Pool-instance selection policy inside pool managers.
    pub instance_selection: InstanceSelection,
    /// Pool-manager selection policy inside query managers.
    pub pool_manager_selection: PoolManagerSelection,
    /// Re-integration policy for composite queries.
    pub reintegration: ReintegrationPolicy,
    /// Maximum number of basic queries a composite query may expand into.
    pub decompose_limit: usize,
    /// Delegation time-to-live.
    pub ttl: u32,
    /// Hour of virtual day used for time-of-day usage policies.
    pub hour_of_day: u8,
    /// RNG seed for all stage-local randomness.
    pub seed: u64,
    /// Lock shards in the shared directory (and the other hot tables the
    /// daemon keys off it).  `1` degenerates to the old single-lock
    /// behaviour; the saturation benches sweep this.
    pub shards: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            query_managers: 1,
            pool_managers: 1,
            objective: SchedulingObjective::LeastLoaded,
            instance_selection: InstanceSelection::Random,
            pool_manager_selection: PoolManagerSelection::RoundRobin,
            reintegration: ReintegrationPolicy::All,
            decompose_limit: 16,
            ttl: 8,
            hour_of_day: 12,
            seed: 0xAC7C_9A9E,
            shards: crate::shard::DEFAULT_SHARDS,
        }
    }
}

/// Statistics the engine accumulates over its lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Client requests submitted.
    pub requests: u64,
    /// Basic queries produced by decomposition.
    pub fragments: u64,
    /// Successful allocations handed to clients.
    pub allocations: u64,
    /// Failed fragments.
    pub failures: u64,
    /// Delegations between pool managers.
    pub delegations: u64,
    /// Forwards to pool instances hosted by a different manager.
    pub forwards: u64,
    /// Allocations released by clients.
    pub releases: u64,
}

/// The mutable interior of the embedded pipeline: every stage object plus
/// the bookkeeping the control flow updates while routing a query.
struct EngineCore {
    query_managers: Vec<QueryManager>,
    pool_managers: Vec<PoolManager>,
    qm_cursor: usize,
    stats: EngineStats,
}

/// The embedded pipeline.
pub struct Engine {
    config: PipelineConfig,
    directory: SharedDirectory,
    core: Mutex<EngineCore>,
}

impl Engine {
    /// Builds a single-domain pipeline over one resource database.
    pub fn new(config: PipelineConfig, db: SharedDatabase) -> Self {
        let domains: Vec<(String, SharedDatabase)> = (0..config.pool_managers.max(1))
            .map(|i| (format!("pm-{i}"), db.clone()))
            .collect();
        Self::federated(config, domains)
    }

    /// Builds a federated pipeline: one pool manager per administrative
    /// domain, each with its own resource database, all sharing one
    /// directory service.
    pub fn federated(config: PipelineConfig, domains: Vec<(String, SharedDatabase)>) -> Self {
        assert!(!domains.is_empty(), "at least one domain is required");
        let directory: SharedDirectory =
            LocalDirectoryService::new().into_shared_with(config.shards);
        let ids = Arc::new(RequestIdGenerator::new());

        let query_managers = (0..config.query_managers.max(1))
            .map(|i| {
                QueryManager::new(
                    format!("qm-{i}"),
                    QuerySchema::punch_default().permissive(),
                    config.pool_manager_selection.clone(),
                    config.decompose_limit,
                    ids.clone(),
                    config.seed ^ (0x51 + i as u64),
                )
            })
            .collect();

        let pool_managers = domains
            .into_iter()
            .enumerate()
            .map(|(i, (name, db))| {
                PoolManager::new(
                    name,
                    db,
                    directory.clone(),
                    PoolManagerConfig {
                        selection: config.instance_selection,
                        objective: config.objective,
                        host: format!("actyp-node-{i}"),
                        base_port: 7300,
                    },
                    config.seed ^ (0x90 + i as u64),
                )
            })
            .collect();

        Engine {
            config,
            directory,
            core: Mutex::new(EngineCore {
                query_managers,
                pool_managers,
                qm_cursor: 0,
                stats: EngineStats::default(),
            }),
        }
    }

    /// The shared directory service (inspection / tests).
    pub fn directory(&self) -> &SharedDirectory {
        &self.directory
    }

    /// A snapshot of the lifetime statistics.
    pub fn stats(&self) -> EngineStats {
        self.core.lock().stats.clone()
    }

    /// Names of the pool managers in the pipeline.
    pub fn pool_manager_names(&self) -> Vec<String> {
        self.core.lock().pool_manager_names()
    }

    /// Runs a closure with mutable access to a pool manager by name (used by
    /// experiments that pre-install or destroy pools).
    ///
    /// The engine's internal lock is held while the closure runs: the
    /// closure must not call back into this engine (`allocate`, `release`,
    /// `stats`, …), or it will deadlock.
    pub fn with_pool_manager<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut PoolManager) -> R,
    ) -> Option<R> {
        let mut core = self.core.lock();
        let index = core.pm_index(name)?;
        Some(f(&mut core.pool_managers[index]))
    }

    /// Total number of pool instances across all managers.
    pub fn pool_instances(&self) -> usize {
        self.directory.instance_count()
    }

    /// Translates a query written in the native key/value text format
    /// (validation included), without submitting it.
    pub fn translate_text(&self, text: &str) -> Result<Query, AllocationError> {
        let mut core = self.core.lock();
        let qm = core.qm_cursor % core.query_managers.len();
        core.query_managers[qm].translate_text(text)
    }

    /// Translates a ClassAds requirements expression into a native query
    /// (interoperability path), without submitting it.
    pub fn translate_classad(
        &self,
        expression: &str,
        login: Option<&str>,
        group: Option<&str>,
    ) -> Result<Query, AllocationError> {
        let mut core = self.core.lock();
        let qm = core.qm_cursor % core.query_managers.len();
        core.query_managers[qm].translate_classad(expression, login, group)
    }

    /// Runs one query through the embedded pipeline.  Returns the
    /// allocations the re-integration policy keeps (surplus matches are
    /// released internally).
    ///
    /// Crate-internal: clients reach this through
    /// [`crate::api::ResourceManager`] on the embedded backend — the former
    /// public `submit*` shims are gone.
    pub(crate) fn allocate(&self, query: &Query) -> Result<Vec<Allocation>, AllocationError> {
        self.core
            .lock()
            .submit(&self.config, &self.directory, query)
    }

    /// Releases an allocation: the owning pool manager is found through the
    /// directory and the machine's state is restored.
    pub fn release(&self, allocation: &Allocation) -> Result<(), AllocationError> {
        let manager = owning_manager(&self.directory, allocation);
        self.core.lock().release(manager, allocation)
    }
}

/// Looks up, through the directory, the pool manager hosting the instance an
/// allocation came from (`None` when the instance is no longer registered —
/// the release paths then fall back to scanning the managers).
pub(crate) fn owning_manager(
    directory: &SharedDirectory,
    allocation: &Allocation,
) -> Option<String> {
    directory
        .instances(&allocation.pool)
        .into_iter()
        .find(|r| r.instance == allocation.pool_instance)
        .map(|r| r.manager)
}

impl EngineCore {
    fn pool_manager_names(&self) -> Vec<String> {
        self.pool_managers
            .iter()
            .map(|pm| pm.name().to_string())
            .collect()
    }

    fn pm_index(&self, name: &str) -> Option<usize> {
        self.pool_managers.iter().position(|pm| pm.name() == name)
    }

    fn submit(
        &mut self,
        config: &PipelineConfig,
        directory: &SharedDirectory,
        query: &Query,
    ) -> Result<Vec<Allocation>, AllocationError> {
        self.stats.requests += 1;
        let qm_index = self.qm_cursor % self.query_managers.len();
        self.qm_cursor += 1;

        let prepared = self.query_managers[qm_index].prepare(query)?;
        let pm_names = self.pool_manager_names();
        let hour = config.hour_of_day;

        let mut results = Vec::with_capacity(prepared.fragments.len());
        for (tag, basic) in &prepared.fragments {
            self.stats.fragments += 1;
            let start = self.query_managers[qm_index]
                .select_pool_manager(basic, &pm_names)
                .ok_or_else(|| AllocationError::Internal("no pool managers".to_string()))?;
            let result = self.route_fragment(config, tag.request, basic, &start, hour);
            match &result {
                Ok(_) => self.stats.allocations += 1,
                Err(_) => self.stats.failures += 1,
            }
            results.push(result);
        }

        let (keep, surplus) =
            self.query_managers[qm_index].reintegrate(results, config.reintegration)?;
        for extra in surplus {
            // Surplus matches from composite queries are handed back to the
            // hosting manager, found through the directory like any release.
            let manager = owning_manager(directory, &extra);
            let _ = self.release(manager, &extra);
            self.stats.allocations = self.stats.allocations.saturating_sub(1);
        }
        Ok(keep)
    }

    /// Routes one basic query through pool managers, following forwards and
    /// delegations until it is allocated or fails.
    fn route_fragment(
        &mut self,
        config: &PipelineConfig,
        request: RequestId,
        basic: &BasicQuery,
        start: &str,
        hour: u8,
    ) -> Result<Allocation, AllocationError> {
        let mut routing = RoutingState::new(config.ttl);
        let mut current = start.to_string();
        loop {
            if !routing.visit(&current) {
                return Err(AllocationError::TtlExpired);
            }
            let index = self.pm_index(&current).ok_or_else(|| {
                AllocationError::Internal(format!("unknown pool manager {current}"))
            })?;
            match self.pool_managers[index].handle(request, basic, hour) {
                HandleOutcome::Allocated(a) => return Ok(a),
                HandleOutcome::Failed(err) => return Err(err),
                HandleOutcome::Forward {
                    manager,
                    pool,
                    instance,
                } => {
                    self.stats.forwards += 1;
                    let target = self.pm_index(&manager).ok_or_else(|| {
                        AllocationError::Internal(format!("unknown pool manager {manager}"))
                    })?;
                    return self.pool_managers[target]
                        .allocate_from(&pool, instance, request, basic, hour);
                }
                HandleOutcome::CannotCreate => {
                    // Delegate to a pool manager that has not yet seen the
                    // query; fail when every manager has been visited or the
                    // TTL runs out.
                    self.stats.delegations += 1;
                    let next = self
                        .pool_manager_names()
                        .into_iter()
                        .find(|name| !routing.has_visited(name));
                    match next {
                        Some(name) if routing.alive() => current = name,
                        _ => return Err(AllocationError::NoSuchResources),
                    }
                }
            }
        }
    }

    fn release(
        &mut self,
        manager: Option<String>,
        allocation: &Allocation,
    ) -> Result<(), AllocationError> {
        // Fall back to scanning managers when the instance is no longer
        // registered (pool destroyed while allocations were outstanding).
        let index = manager
            .and_then(|m| self.pm_index(&m))
            .or_else(|| {
                self.pool_managers
                    .iter()
                    .position(|pm| pm.hosts(&allocation.pool, allocation.pool_instance))
            })
            .ok_or(AllocationError::UnknownAllocation)?;
        self.pool_managers[index].release(allocation)?;
        self.stats.releases += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actyp_grid::{FleetSpec, ResourceDatabase, SyntheticFleet};
    use actyp_query::{Constraint, QueryKey};

    fn fleet_db(n: usize, seed: u64) -> SharedDatabase {
        SyntheticFleet::new(FleetSpec::with_machines(n), seed)
            .generate()
            .into_shared()
    }

    fn paper_text() -> String {
        Query::paper_example().to_string()
    }

    /// What the removed `Engine::submit_text` shim did: translate (with
    /// schema validation) on a query manager, then run the pipeline.
    fn submit_text(engine: &Engine, text: &str) -> Result<Vec<Allocation>, AllocationError> {
        let query = engine.translate_text(text)?;
        engine.allocate(&query)
    }

    #[test]
    fn end_to_end_allocation_from_text_query() {
        let engine = Engine::new(PipelineConfig::default(), fleet_db(300, 1));
        let allocations = submit_text(&engine, &paper_text()).unwrap();
        assert_eq!(allocations.len(), 1);
        let a = &allocations[0];
        assert!(a.machine_name.contains("sun"));
        assert!(a.machine_name.contains("purdue"));
        assert!(a.execution_port > 0);
        assert_eq!(engine.stats().allocations, 1);
        assert_eq!(engine.pool_instances(), 1);
        engine.release(a).unwrap();
        assert_eq!(engine.stats().releases, 1);
    }

    #[test]
    fn repeated_queries_reuse_the_dynamically_created_pool() {
        let engine = Engine::new(PipelineConfig::default(), fleet_db(300, 2));
        for _ in 0..10 {
            submit_text(&engine, &paper_text()).unwrap();
        }
        assert_eq!(engine.pool_instances(), 1, "temporal locality: one pool");
        assert_eq!(engine.stats().allocations, 10);
    }

    #[test]
    fn composite_query_returns_first_match_and_releases_surplus() {
        let config = PipelineConfig {
            reintegration: ReintegrationPolicy::FirstMatch,
            ..PipelineConfig::default()
        };
        let db = fleet_db(400, 3);
        let engine = Engine::new(config, db.clone());
        let text = "punch.rsrc.arch = sun | hp\npunch.user.accessgroup = ece\n";
        let allocations = submit_text(&engine, text).unwrap();
        assert_eq!(allocations.len(), 1);
        // Both fragment pools exist, but only one allocation is outstanding.
        assert_eq!(engine.pool_instances(), 2);
        let active: u32 = db.read().iter().map(|m| m.dynamic.active_jobs).sum();
        assert_eq!(active, 1);
    }

    #[test]
    fn composite_query_with_all_policy_returns_every_match() {
        let engine = Engine::new(PipelineConfig::default(), fleet_db(400, 4));
        let text = "punch.rsrc.arch = sun | hp\n";
        let allocations = submit_text(&engine, text).unwrap();
        assert_eq!(allocations.len(), 2);
        let archs: std::collections::HashSet<String> = allocations
            .iter()
            .map(|a| a.machine_name.split('-').next().unwrap().to_string())
            .collect();
        assert_eq!(archs.len(), 2);
    }

    #[test]
    fn impossible_queries_fail_cleanly() {
        let engine = Engine::new(PipelineConfig::default(), fleet_db(100, 5));
        let err = submit_text(&engine, "punch.rsrc.arch = cray\n").unwrap_err();
        assert_eq!(err, AllocationError::NoSuchResources);
        assert_eq!(engine.stats().failures, 1);
    }

    #[test]
    fn parse_and_schema_errors_do_not_reach_pool_managers() {
        let engine = Engine::new(PipelineConfig::default(), fleet_db(50, 6));
        assert!(matches!(
            submit_text(&engine, "nonsense").unwrap_err(),
            AllocationError::Parse(_)
        ));
        assert_eq!(engine.pool_instances(), 0);
    }

    #[test]
    fn classad_queries_are_interoperable() {
        let engine = Engine::new(PipelineConfig::default(), fleet_db(300, 7));
        let query = engine
            .translate_classad(
                "Arch == \"SUN\" && Memory >= 128",
                Some("royo"),
                Some("ece"),
            )
            .unwrap();
        let allocations = engine.allocate(&query).unwrap();
        assert_eq!(allocations.len(), 1);
        assert!(allocations[0].machine_name.contains("sun"));
    }

    #[test]
    fn federated_domains_delegate_until_resources_are_found() {
        // Domain A has only sun machines; domain B has only hp machines.
        let sun_db = SyntheticFleet::new(FleetSpec::homogeneous(50, "sun", 256), 8)
            .generate()
            .into_shared();
        let hp_db = SyntheticFleet::new(FleetSpec::homogeneous(50, "hp", 512), 9)
            .generate()
            .into_shared();
        let config = PipelineConfig {
            // Force the first hop to a fixed manager so the hp query starts
            // at the sun-only domain and must be delegated.
            pool_manager_selection: PoolManagerSelection::RoundRobin,
            ..PipelineConfig::default()
        };
        let engine = Engine::federated(
            config,
            vec![("purdue".to_string(), sun_db), ("upc".to_string(), hp_db)],
        );
        let allocations = submit_text(&engine, "punch.rsrc.arch = hp\n").unwrap();
        assert_eq!(allocations.len(), 1);
        assert!(allocations[0].machine_name.contains("hp"));
        assert!(engine.stats().delegations >= 1);
    }

    #[test]
    fn ttl_zero_expires_immediately() {
        let config = PipelineConfig {
            ttl: 0,
            ..PipelineConfig::default()
        };
        let engine = Engine::new(config, fleet_db(100, 10));
        let err = submit_text(&engine, &paper_text()).unwrap_err();
        assert_eq!(err, AllocationError::TtlExpired);
    }

    #[test]
    fn forwards_reach_pools_hosted_by_other_managers() {
        // Two pool managers over the same database: the second manager to
        // see the query forwards it to the instance created by the first.
        let config = PipelineConfig {
            pool_managers: 2,
            pool_manager_selection: PoolManagerSelection::RoundRobin,
            ..PipelineConfig::default()
        };
        let engine = Engine::new(config, fleet_db(300, 11));
        submit_text(&engine, &paper_text()).unwrap();
        submit_text(&engine, &paper_text()).unwrap();
        assert_eq!(engine.pool_instances(), 1);
        assert!(engine.stats().forwards >= 1);
        assert_eq!(engine.stats().allocations, 2);
    }

    #[test]
    fn release_of_unknown_allocation_is_rejected() {
        let engine = Engine::new(PipelineConfig::default(), fleet_db(100, 12));
        let mut allocations = submit_text(&engine, &paper_text()).unwrap();
        let mut fake = allocations.remove(0);
        engine.release(&fake).unwrap();
        // Releasing again (or a forged key) fails.
        fake.access_key = crate::allocation::SessionKey("forged".to_string());
        assert!(engine.release(&fake).is_err());
    }

    #[test]
    fn empty_database_yields_no_such_resources() {
        let db = ResourceDatabase::new().into_shared();
        let engine = Engine::new(PipelineConfig::default(), db);
        let err = submit_text(&engine, &paper_text()).unwrap_err();
        assert_eq!(err, AllocationError::NoSuchResources);
    }

    #[test]
    fn many_concurrent_allocations_spread_over_machines() {
        let engine = Engine::new(PipelineConfig::default(), fleet_db(200, 13));
        let mut machines = std::collections::HashSet::new();
        let mut allocations = Vec::new();
        for _ in 0..50 {
            let mut a = submit_text(&engine, &paper_text()).unwrap();
            machines.insert(a[0].machine);
            allocations.append(&mut a);
        }
        assert!(
            machines.len() > 10,
            "load must spread ({} machines)",
            machines.len()
        );
        for a in &allocations {
            engine.release(a).unwrap();
        }
        assert_eq!(engine.stats().releases, 50);
    }

    #[test]
    fn by_key_value_routing_selects_consistent_managers() {
        let config = PipelineConfig {
            pool_managers: 3,
            pool_manager_selection: PoolManagerSelection::ByKeyValue("arch".to_string()),
            ..PipelineConfig::default()
        };
        let engine = Engine::new(config, fleet_db(300, 14));
        for _ in 0..6 {
            engine
                .allocate(&Query::new().with(QueryKey::rsrc("arch"), Constraint::eq("sun")))
                .unwrap();
        }
        // All six queries go to the same manager, so exactly one pool
        // instance exists and no forwards were needed.
        assert_eq!(engine.pool_instances(), 1);
        assert_eq!(engine.stats().forwards, 0);
    }

    #[test]
    fn shared_references_submit_concurrently() {
        // The whole client surface works on `&self`, so an engine can be
        // shared across threads without an external lock.
        let engine = std::sync::Arc::new(Engine::new(PipelineConfig::default(), fleet_db(300, 15)));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let engine = engine.clone();
            joins.push(std::thread::spawn(move || {
                let allocations = submit_text(&engine, &paper_text()).unwrap();
                engine.release(&allocations[0]).unwrap();
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(engine.stats().allocations, 4);
        assert_eq!(engine.stats().releases, 4);
    }
}
