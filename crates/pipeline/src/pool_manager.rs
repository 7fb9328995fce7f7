//! Pool managers.
//!
//! "Pool managers map queries to pool names and select an appropriate
//! instance of a resource pool when multiple ones exist.  They also create
//! resource pools when necessary, and forward queries to other pool managers
//! if the requested resources are not available locally" (Section 5.2.2).
//!
//! A pool manager owns the resource-pool instances it has created, registers
//! them with the shared [`crate::directory::LocalDirectoryService`], and
//! reports one of three outcomes for a query: an allocation, a forward to a
//! pool instance hosted by a *different* pool manager, or "cannot create"
//! which makes the caller delegate the query to a peer pool manager (with
//! the TTL and visited-list bookkeeping carried in the query's routing
//! state).

use std::collections::HashMap;

use actyp_grid::SharedDatabase;
use actyp_query::{BasicQuery, PoolName};
use actyp_simnet::Rng;

use crate::allocation::{Allocation, AllocationError};
use crate::directory::{PoolInstanceRecord, SharedDirectory};
use crate::message::{RequestId, StageAddress};
use crate::resource_pool::ResourcePool;
use crate::scheduler::{ReplicaBias, SchedulingObjective};

/// How a pool manager chooses among multiple instances of the same pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InstanceSelection {
    /// Pick a registered instance uniformly at random (the paper's default).
    #[default]
    Random,
    /// Rotate through the registered instances.
    RoundRobin,
    /// Always use the lowest-numbered instance.
    First,
}

/// Configuration of one pool manager.
#[derive(Debug, Clone)]
pub struct PoolManagerConfig {
    /// Instance-selection policy.
    pub selection: InstanceSelection,
    /// Scheduling objective given to pools this manager creates.
    pub objective: SchedulingObjective,
    /// Host used when registering created pools in the directory.
    pub host: String,
    /// Base port for created pools (each pool gets `base_port + n`).
    pub base_port: u16,
}

impl Default for PoolManagerConfig {
    fn default() -> Self {
        PoolManagerConfig {
            selection: InstanceSelection::Random,
            objective: SchedulingObjective::LeastLoaded,
            host: "actyp-host".to_string(),
            base_port: 7300,
        }
    }
}

/// The outcome of handing a query to a pool manager.
#[derive(Debug)]
pub enum HandleOutcome {
    /// The query was satisfied by a pool hosted by this manager.
    Allocated(Allocation),
    /// The selected pool instance is hosted by another manager; the caller
    /// must forward the query there.
    Forward {
        /// Name of the hosting pool manager.
        manager: String,
        /// Full pool name.
        pool: String,
        /// Instance number to use.
        instance: u32,
    },
    /// No pool exists and none can be created from this manager's database;
    /// the query should be delegated to a peer pool manager.
    CannotCreate,
    /// A pool was found/created but the allocation failed (all machines
    /// busy, policy denied, …).  Carries the underlying error.
    Failed(AllocationError),
}

/// A pool manager stage.
#[derive(Debug)]
pub struct PoolManager {
    name: String,
    db: SharedDatabase,
    directory: SharedDirectory,
    config: PoolManagerConfig,
    pools: HashMap<(String, u32), ResourcePool>,
    round_robin: HashMap<String, usize>,
    rng: Rng,
    created: u64,
}

impl PoolManager {
    /// Creates a pool manager for one administrative domain.
    pub fn new(
        name: impl Into<String>,
        db: SharedDatabase,
        directory: SharedDirectory,
        config: PoolManagerConfig,
        seed: u64,
    ) -> Self {
        let name = name.into();
        directory.register_pool_manager(name.clone());
        PoolManager {
            name,
            db,
            directory,
            config,
            pools: HashMap::new(),
            round_robin: HashMap::new(),
            rng: Rng::new(seed),
            created: 0,
        }
    }

    /// This manager's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of pool instances hosted by this manager.
    pub fn hosted_pools(&self) -> usize {
        self.pools.len()
    }

    /// Number of pools this manager has created over its lifetime.
    pub fn pools_created(&self) -> u64 {
        self.created
    }

    /// Whether this manager hosts the given pool instance.
    pub fn hosts(&self, pool: &str, instance: u32) -> bool {
        self.pools.contains_key(&(pool.to_string(), instance))
    }

    /// Iterates over the pool instances hosted by this manager.
    pub fn pool_instances(&self) -> impl Iterator<Item = (&str, u32, usize)> {
        self.pools
            .iter()
            .map(|((name, instance), pool)| (name.as_str(), *instance, pool.size()))
    }

    /// Installs an externally built pool (used by experiments that
    /// pre-partition machines into pools, and by splitting/replication).
    pub fn adopt_pool(&mut self, pool: ResourcePool) {
        self.directory.register_pool(self.record_for(&pool));
        self.pools
            .insert((pool.name().full(), pool.instance()), pool);
    }

    /// The directory record announcing `pool` as hosted here.
    fn record_for(&self, pool: &ResourcePool) -> PoolInstanceRecord {
        PoolInstanceRecord {
            pool: pool.name().full(),
            instance: pool.instance(),
            manager: self.name.clone(),
            address: StageAddress::new(
                self.config.host.clone(),
                self.config.base_port + self.pools.len() as u16,
            ),
        }
    }

    /// Maps a query to its pool name (exposed for diagnostics and tests).
    pub fn map_query(&self, query: &BasicQuery) -> PoolName {
        PoolName::from_query(query)
    }

    fn create_pool(&mut self, name: &PoolName) -> Result<u32, AllocationError> {
        let instance = self
            .directory
            .next_instance_number(&name.full())
            .ok_or_else(|| {
                AllocationError::Internal(format!(
                    "instance numbers for pool `{}` are exhausted",
                    name.full()
                ))
            })?;
        let pool = ResourcePool::create(
            name.clone(),
            instance,
            ReplicaBias::none(),
            self.db.clone(),
            self.config.objective,
            self.rng.next_u64(),
        )?;
        // A manager on another thread that read the same instance number
        // may have registered its pool first: that pool then serves the
        // name, and this one is dropped.  Its machines are not released —
        // over a shared database the winner marked the same machines with
        // the same name and instance.
        if self.directory.register_new_pool(self.record_for(&pool)) {
            self.created += 1;
            self.pools
                .insert((pool.name().full(), pool.instance()), pool);
        }
        Ok(instance)
    }

    fn select_instance(
        &mut self,
        pool: &str,
        records: &[PoolInstanceRecord],
    ) -> PoolInstanceRecord {
        debug_assert!(!records.is_empty());
        match self.config.selection {
            InstanceSelection::First => records
                .iter()
                .min_by_key(|r| r.instance)
                .expect("non-empty")
                .clone(),
            InstanceSelection::Random => records[self.rng.index(records.len())].clone(),
            InstanceSelection::RoundRobin => {
                let cursor = self.round_robin.entry(pool.to_string()).or_insert(0);
                let record = records[*cursor % records.len()].clone();
                *cursor += 1;
                record
            }
        }
    }

    /// Handles a query: map to a pool name, find or create an instance, and
    /// either allocate locally, ask the caller to forward, or ask it to
    /// delegate.
    pub fn handle(
        &mut self,
        request: RequestId,
        query: &BasicQuery,
        hour_of_day: u8,
    ) -> HandleOutcome {
        let name = self.map_query(query);
        let full = name.full();
        let mut records = self.directory.instances(&full);
        if records.is_empty() {
            match self.create_pool(&name) {
                Ok(_) => records = self.directory.instances(&full),
                Err(AllocationError::NoSuchResources) => return HandleOutcome::CannotCreate,
                Err(other) => return HandleOutcome::Failed(other),
            }
        }
        let record = self.select_instance(&full, &records);
        if record.manager != self.name {
            return HandleOutcome::Forward {
                manager: record.manager,
                pool: full,
                instance: record.instance,
            };
        }
        match self.allocate_from(&full, record.instance, request, query, hour_of_day) {
            Ok(allocation) => HandleOutcome::Allocated(allocation),
            Err(err) => HandleOutcome::Failed(err),
        }
    }

    /// Allocates from a specific pool instance hosted by this manager.
    pub fn allocate_from(
        &mut self,
        pool: &str,
        instance: u32,
        request: RequestId,
        query: &BasicQuery,
        hour_of_day: u8,
    ) -> Result<Allocation, AllocationError> {
        let key = (pool.to_string(), instance);
        match self.pools.get_mut(&key) {
            Some(p) => p.allocate(request, query, hour_of_day),
            None => Err(AllocationError::Internal(format!(
                "pool {pool}#{instance} is not hosted by {}",
                self.name
            ))),
        }
    }

    /// Releases an allocation previously granted by one of this manager's
    /// pools.
    pub fn release(&mut self, allocation: &Allocation) -> Result<(), AllocationError> {
        let key = (allocation.pool.clone(), allocation.pool_instance);
        match self.pools.get_mut(&key) {
            Some(p) => p.release(allocation),
            None => Err(AllocationError::UnknownAllocation),
        }
    }

    /// Destroys a hosted pool instance: unregisters it from the directory
    /// and releases its taken marks.
    pub fn destroy_pool(&mut self, pool: &str, instance: u32) -> bool {
        match self.pools.remove(&(pool.to_string(), instance)) {
            Some(p) => {
                self.directory.unregister_pool(pool, instance);
                p.dissolve();
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::LocalDirectoryService;
    use actyp_grid::{FleetSpec, SyntheticFleet};
    use actyp_query::{Constraint, Query, QueryKey};

    fn setup(machines: usize) -> (SharedDatabase, SharedDirectory) {
        let db = SyntheticFleet::new(FleetSpec::with_machines(machines), 21)
            .generate()
            .into_shared();
        (db, LocalDirectoryService::new().into_shared())
    }

    fn sun_query() -> BasicQuery {
        Query::new()
            .with(QueryKey::rsrc("arch"), Constraint::eq("sun"))
            .with(QueryKey::user("accessgroup"), Constraint::eq("ece"))
            .decompose(1)
            .remove(0)
    }

    #[test]
    fn first_query_creates_a_pool_on_demand() {
        let (db, dir) = setup(200);
        let mut pm = PoolManager::new("pm-0", db, dir.clone(), PoolManagerConfig::default(), 1);
        assert_eq!(pm.hosted_pools(), 0);
        let outcome = pm.handle(RequestId(1), &sun_query(), 12);
        match outcome {
            HandleOutcome::Allocated(a) => {
                assert!(a.machine_name.contains("sun"));
            }
            other => panic!("expected allocation, got {other:?}"),
        }
        assert_eq!(pm.hosted_pools(), 1);
        assert_eq!(pm.pools_created(), 1);
        assert_eq!(dir.instance_count(), 1);
    }

    #[test]
    fn subsequent_queries_reuse_the_pool() {
        let (db, dir) = setup(200);
        let mut pm = PoolManager::new("pm-0", db, dir, PoolManagerConfig::default(), 1);
        for i in 0..5 {
            match pm.handle(RequestId(i), &sun_query(), 12) {
                HandleOutcome::Allocated(_) => {}
                other => panic!("expected allocation, got {other:?}"),
            }
        }
        assert_eq!(pm.pools_created(), 1, "the pool must be created once");
    }

    #[test]
    fn different_aggregation_criteria_create_different_pools() {
        let (db, dir) = setup(400);
        let mut pm = PoolManager::new("pm-0", db, dir, PoolManagerConfig::default(), 1);
        let hp = Query::new()
            .with(QueryKey::rsrc("arch"), Constraint::eq("hp"))
            .decompose(1)
            .remove(0);
        let big = Query::new()
            .with(QueryKey::rsrc("memory"), Constraint::ge(512u64))
            .decompose(1)
            .remove(0);
        assert!(matches!(
            pm.handle(RequestId(1), &sun_query(), 12),
            HandleOutcome::Allocated(_)
        ));
        assert!(matches!(
            pm.handle(RequestId(2), &hp, 12),
            HandleOutcome::Allocated(_)
        ));
        assert!(matches!(
            pm.handle(RequestId(3), &big, 12),
            HandleOutcome::Allocated(_)
        ));
        assert_eq!(pm.hosted_pools(), 3);
    }

    #[test]
    fn unsatisfiable_criteria_yield_cannot_create() {
        let (db, dir) = setup(50);
        let mut pm = PoolManager::new("pm-0", db, dir, PoolManagerConfig::default(), 1);
        let cray = Query::new()
            .with(QueryKey::rsrc("arch"), Constraint::eq("cray"))
            .decompose(1)
            .remove(0);
        assert!(matches!(
            pm.handle(RequestId(1), &cray, 12),
            HandleOutcome::CannotCreate
        ));
        assert_eq!(pm.hosted_pools(), 0);
    }

    #[test]
    fn queries_for_pools_hosted_elsewhere_are_forwarded() {
        let (db, dir) = setup(100);
        let mut pm_a = PoolManager::new(
            "pm-a",
            db.clone(),
            dir.clone(),
            PoolManagerConfig::default(),
            1,
        );
        let mut pm_b = PoolManager::new("pm-b", db, dir.clone(), PoolManagerConfig::default(), 2);
        // pm-a creates the sun pool.
        assert!(matches!(
            pm_a.handle(RequestId(1), &sun_query(), 12),
            HandleOutcome::Allocated(_)
        ));
        // pm-b sees the instance in the shared directory and forwards.
        match pm_b.handle(RequestId(2), &sun_query(), 12) {
            HandleOutcome::Forward {
                manager,
                pool,
                instance,
            } => {
                assert_eq!(manager, "pm-a");
                assert!(pm_a.hosts(&pool, instance));
                // Completing the forward yields an allocation.
                let a = pm_a
                    .allocate_from(&pool, instance, RequestId(2), &sun_query(), 12)
                    .unwrap();
                assert_eq!(a.pool, pool);
            }
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn release_goes_back_through_the_hosting_pool() {
        let (db, dir) = setup(100);
        let mut pm = PoolManager::new("pm-0", db.clone(), dir, PoolManagerConfig::default(), 1);
        let allocation = match pm.handle(RequestId(1), &sun_query(), 12) {
            HandleOutcome::Allocated(a) => a,
            other => panic!("expected allocation, got {other:?}"),
        };
        assert!(pm.release(&allocation).is_ok());
        assert_eq!(
            pm.release(&allocation),
            Err(AllocationError::UnknownAllocation)
        );
        let machine = db.read().get(allocation.machine).cloned().unwrap();
        assert_eq!(machine.dynamic.active_jobs, 0);
    }

    #[test]
    fn allocate_from_unknown_pool_is_an_internal_error() {
        let (db, dir) = setup(10);
        let mut pm = PoolManager::new("pm-0", db, dir, PoolManagerConfig::default(), 1);
        let err = pm
            .allocate_from("nope/none", 0, RequestId(1), &sun_query(), 12)
            .unwrap_err();
        assert!(matches!(err, AllocationError::Internal(_)));
    }

    #[test]
    fn round_robin_instance_selection_rotates() {
        let (db, dir) = setup(200);
        let config = PoolManagerConfig {
            selection: InstanceSelection::RoundRobin,
            ..PoolManagerConfig::default()
        };
        let mut pm = PoolManager::new("pm-0", db.clone(), dir.clone(), config, 1);
        // Create a pool and then adopt a replicated second instance.
        let first = match pm.handle(RequestId(1), &sun_query(), 12) {
            HandleOutcome::Allocated(a) => a,
            other => panic!("expected allocation, got {other:?}"),
        };
        let name = PoolName::from_query(&sun_query());
        let extra = ResourcePool::from_cache(
            name,
            1,
            ReplicaBias {
                instance: 1,
                replicas: 2,
            },
            db.read().walk(|m| {
                m.attribute("arch")
                    .map(|a| a.contains("sun"))
                    .unwrap_or(false)
            }),
            db.clone(),
            SchedulingObjective::LeastLoaded,
            9,
            false,
        )
        .unwrap();
        pm.adopt_pool(extra);
        assert_eq!(dir.instances(&first.pool).len(), 2);

        let mut instances_used = std::collections::HashSet::new();
        for i in 10..14 {
            match pm.handle(RequestId(i), &sun_query(), 12) {
                HandleOutcome::Allocated(a) => {
                    instances_used.insert(a.pool_instance);
                }
                other => panic!("expected allocation, got {other:?}"),
            }
        }
        assert_eq!(
            instances_used.len(),
            2,
            "round robin must use both instances"
        );
    }

    #[test]
    fn destroy_pool_unregisters_and_releases_claims() {
        let (db, dir) = setup(100);
        let mut pm = PoolManager::new(
            "pm-0",
            db.clone(),
            dir.clone(),
            PoolManagerConfig::default(),
            1,
        );
        let allocation = match pm.handle(RequestId(1), &sun_query(), 12) {
            HandleOutcome::Allocated(a) => a,
            other => panic!("expected allocation, got {other:?}"),
        };
        assert!(db.read().taken_count() > 0);
        assert!(pm.destroy_pool(&allocation.pool, allocation.pool_instance));
        assert_eq!(pm.hosted_pools(), 0);
        assert_eq!(dir.instance_count(), 0);
        assert_eq!(db.read().taken_count(), 0);
        assert!(!pm.destroy_pool(&allocation.pool, allocation.pool_instance));
    }
}
