//! Resource pools: dynamically created aggregation objects.
//!
//! "Resource pools are dynamically-created objects that consist of 1)
//! machines aggregated according to specified criteria (e.g., software, user
//! group, machine architecture, etc.), and 2) processes (or threads) that
//! order the machines on the basis of specified scheduling objectives"
//! (Section 5.2.3).
//!
//! A pool is created by a pool manager when a query maps to a pool name that
//! has no live instance.  At initialisation the pool walks the white-pages
//! database for machines matching the criteria encoded in its name, caches
//! them locally, and marks them *taken* in the main database.  Queries are
//! answered by the pool's scheduling process ([`crate::scheduler`]); pools
//! can be **split** into disjoint parts searched concurrently (Figure 7) or
//! **replicated** with an instance-specific bias (Figure 8).

use std::collections::HashMap;
use std::sync::Arc;

use actyp_grid::{MachineId, SharedDatabase, TakenBy};
use actyp_query::ast::{BasicClause, QueryKey};
use actyp_query::{matches_machine, BasicQuery, Constraint, PoolName};
use actyp_simnet::Rng;

use crate::allocation::{Allocation, AllocationError, SessionKey};
use crate::message::RequestId;
use crate::scheduler::{ReplicaBias, ScheduleRequest, Scheduler, SchedulingObjective};

/// Internal record of an outstanding allocation, needed to undo its effects
/// at release time.
#[derive(Debug, Clone)]
struct ActiveAllocation {
    machine: MachineId,
    shadow_uid: Option<u32>,
}

/// A resource pool instance.
#[derive(Debug)]
pub struct ResourcePool {
    name: PoolName,
    /// `name.full()`, rendered once: the pool's taken marks share it.
    full_name: Arc<str>,
    instance: u32,
    cache: Vec<MachineId>,
    db: SharedDatabase,
    scheduler: Scheduler,
    active: HashMap<String, ActiveAllocation>,
    nonce: Rng,
    claims_machines: bool,
}

impl ResourcePool {
    /// Creates and initialises a pool: walks the white pages for machines
    /// satisfying the constraints encoded in `name`, caches them and marks
    /// them taken.  Fails with [`AllocationError::NoSuchResources`] when no
    /// machine matches (the pool manager then delegates the query).
    pub fn create(
        name: PoolName,
        instance: u32,
        bias: ReplicaBias,
        db: SharedDatabase,
        objective: SchedulingObjective,
        seed: u64,
    ) -> Result<Self, AllocationError> {
        let probe = Self::probe_query(&name);
        let cache = {
            let guard = db.read();
            guard.walk(|m| matches_machine(&probe, m).is_match())
        };
        if cache.is_empty() {
            return Err(AllocationError::NoSuchResources);
        }
        let pool = ResourcePool {
            scheduler: Scheduler::new(objective, bias, seed),
            full_name: name.full().into(),
            name,
            instance,
            cache,
            db,
            active: HashMap::new(),
            nonce: Rng::new(seed ^ 0xACC0_5EED),
            claims_machines: true,
        };
        pool.claim_cache();
        Ok(pool)
    }

    /// Builds a pool directly from an explicit machine cache: the
    /// simulator's split and replicated topologies, and tests.
    #[allow(clippy::too_many_arguments)]
    pub fn from_cache(
        name: PoolName,
        instance: u32,
        bias: ReplicaBias,
        cache: Vec<MachineId>,
        db: SharedDatabase,
        objective: SchedulingObjective,
        seed: u64,
        claims_machines: bool,
    ) -> Result<Self, AllocationError> {
        if cache.is_empty() {
            return Err(AllocationError::NoSuchResources);
        }
        let pool = ResourcePool {
            scheduler: Scheduler::new(objective, bias, seed),
            full_name: name.full().into(),
            name,
            instance,
            cache,
            db,
            active: HashMap::new(),
            nonce: Rng::new(seed ^ 0xACC0_5EED),
            claims_machines,
        };
        if pool.claims_machines {
            pool.claim_cache();
        }
        Ok(pool)
    }

    /// Reconstructs the aggregation predicate from the pool name: a basic
    /// query containing exactly the `rsrc` constraints encoded in the name.
    fn probe_query(name: &PoolName) -> BasicQuery {
        BasicQuery {
            clauses: name
                .constraints
                .iter()
                .map(|(key, op, value)| BasicClause {
                    key: QueryKey::rsrc(key.clone()),
                    constraint: Constraint {
                        op: *op,
                        value: value.clone(),
                    },
                })
                .collect(),
        }
    }

    fn claim_cache(&self) {
        let mut guard = self.db.write();
        for &id in &self.cache {
            guard.mark_taken(
                id,
                TakenBy {
                    pool_name: self.full_name.clone(),
                    instance: self.instance,
                },
            );
        }
    }

    /// The pool's name.
    pub fn name(&self) -> &PoolName {
        &self.name
    }

    /// The pool's instance number.
    pub fn instance(&self) -> u32 {
        self.instance
    }

    /// Number of machines aggregated in the pool.
    pub fn size(&self) -> usize {
        self.cache.len()
    }

    /// The machine ids in the pool cache (in cache order).
    pub fn cached_machines(&self) -> &[MachineId] {
        &self.cache
    }

    /// Serves an allocation query.  On success the machine's PUNCH job count
    /// and load are bumped in the database, a shadow account (or the shared
    /// account) is selected, and a session key is generated.
    pub fn allocate(
        &mut self,
        request: RequestId,
        query: &BasicQuery,
        hour_of_day: u8,
    ) -> Result<Allocation, AllocationError> {
        let outcome = {
            let guard = self.db.read();
            self.scheduler
                .select(&self.cache, &guard, &ScheduleRequest { query, hour_of_day })?
        };

        let mut guard = self.db.write();
        let machine = guard
            .get_mut(outcome.machine)
            .ok_or(AllocationError::Internal("machine vanished".to_string()))?;

        // Select the account to run in: the shared account when the machine
        // has one (short "safe" jobs), otherwise a shadow account.
        let shadow_uid = if machine.shared_account.is_some() {
            None
        } else {
            match machine.shadow_accounts.allocate() {
                Some(account) => Some(account.uid),
                None => return Err(AllocationError::ShadowAccountsExhausted),
            }
        };

        machine.dynamic.active_jobs += 1;
        machine.dynamic.current_load += 1.0 / machine.num_cpus.max(1) as f64;

        let access_key = SessionKey::derive(request, self.instance, self.nonce.next_u64());
        let allocation = Allocation {
            request,
            machine: machine.id,
            machine_name: machine.name.clone(),
            execution_port: machine.execution_unit_port,
            mount_port: machine.pvfs_mount_port,
            shadow_uid,
            access_key: access_key.clone(),
            pool: self.full_name.to_string(),
            pool_instance: self.instance,
            examined: outcome.examined,
        };
        self.active.insert(
            access_key.0,
            ActiveAllocation {
                machine: allocation.machine,
                shadow_uid,
            },
        );
        Ok(allocation)
    }

    /// Releases a previously granted allocation: the shadow account returns
    /// to its pool and the machine's job count and load are decremented.
    pub fn release(&mut self, allocation: &Allocation) -> Result<(), AllocationError> {
        let record = self
            .active
            .remove(&allocation.access_key.0)
            .ok_or(AllocationError::UnknownAllocation)?;
        let mut guard = self.db.write();
        if let Some(machine) = guard.get_mut(record.machine) {
            machine.dynamic.active_jobs = machine.dynamic.active_jobs.saturating_sub(1);
            machine.dynamic.current_load =
                (machine.dynamic.current_load - 1.0 / machine.num_cpus.max(1) as f64).max(0.0);
            if let Some(uid) = record.shadow_uid {
                machine.shadow_accounts.release(uid);
            }
        }
        Ok(())
    }

    /// Dissolves the pool: releases the taken marks so other pools may
    /// aggregate the machines again.  Outstanding allocations are left
    /// untouched (the desktop still holds them).
    pub fn dissolve(self) {
        if !self.claims_machines {
            return;
        }
        let mut guard = self.db.write();
        for id in &self.cache {
            if guard
                .taken_by(*id)
                .map(|t| t.pool_name == self.full_name)
                .unwrap_or(false)
            {
                guard.release_taken(*id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actyp_grid::{FleetSpec, ResourceDatabase, SyntheticFleet};
    use actyp_query::{Constraint, Query, QueryKey};

    fn shared_db(machines: usize) -> SharedDatabase {
        SyntheticFleet::new(FleetSpec::homogeneous(machines, "sun", 256), 11)
            .generate()
            .into_shared()
    }

    fn sun_name() -> PoolName {
        let q = Query::new()
            .with(QueryKey::rsrc("arch"), Constraint::eq("sun"))
            .decompose(1)
            .remove(0);
        PoolName::from_query(&q)
    }

    fn sun_basic() -> BasicQuery {
        Query::new()
            .with(QueryKey::rsrc("arch"), Constraint::eq("sun"))
            .with(QueryKey::user("accessgroup"), Constraint::eq("ece"))
            .with(QueryKey::user("login"), Constraint::eq("kapadia"))
            .decompose(1)
            .remove(0)
    }

    fn make_pool(db: &SharedDatabase) -> ResourcePool {
        ResourcePool::create(
            sun_name(),
            0,
            ReplicaBias::none(),
            db.clone(),
            SchedulingObjective::LeastLoaded,
            7,
        )
        .unwrap()
    }

    #[test]
    fn create_walks_white_pages_and_marks_taken() {
        let db = shared_db(50);
        let pool = make_pool(&db);
        assert_eq!(pool.size(), 50);
        assert_eq!(db.read().taken_count(), 50);
        assert!(db
            .read()
            .taken_by(pool.cached_machines()[0])
            .map(|t| *t.pool_name == pool.name().full())
            .unwrap_or(false));
    }

    #[test]
    fn create_fails_when_nothing_matches() {
        let db = shared_db(10);
        let hp_name = PoolName::from_query(
            &Query::new()
                .with(QueryKey::rsrc("arch"), Constraint::eq("hp"))
                .decompose(1)
                .remove(0),
        );
        let err = ResourcePool::create(
            hp_name,
            0,
            ReplicaBias::none(),
            db,
            SchedulingObjective::LeastLoaded,
            1,
        )
        .unwrap_err();
        assert_eq!(err, AllocationError::NoSuchResources);
    }

    #[test]
    fn allocate_returns_contactable_machine_and_bumps_load() {
        let db = shared_db(20);
        let mut pool = make_pool(&db);
        let query = sun_basic();
        let allocation = pool.allocate(RequestId(1), &query, 12).unwrap();
        assert!(allocation.machine_name.contains("sun"));
        assert_eq!(allocation.pool, pool.name().full());
        assert!(allocation.shadow_uid.is_some());
        assert_eq!(allocation.examined, 20);
        let m = db.read().get(allocation.machine).cloned().unwrap();
        assert_eq!(m.dynamic.active_jobs, 1);
        assert!(m.dynamic.current_load > 0.0);
        assert_eq!(pool.active.len(), 1);
    }

    #[test]
    fn release_undoes_allocation_effects() {
        let db = shared_db(5);
        let mut pool = make_pool(&db);
        let query = sun_basic();
        let before_load = {
            let guard = db.read();
            guard.iter().map(|m| m.dynamic.current_load).sum::<f64>()
        };
        let allocation = pool.allocate(RequestId(1), &query, 12).unwrap();
        pool.release(&allocation).unwrap();
        let after = db.read().get(allocation.machine).cloned().unwrap();
        assert_eq!(after.dynamic.active_jobs, 0);
        assert_eq!(
            after.shadow_accounts.available(),
            after.shadow_accounts.capacity()
        );
        let after_load = {
            let guard = db.read();
            guard.iter().map(|m| m.dynamic.current_load).sum::<f64>()
        };
        assert!((before_load - after_load).abs() < 1e-9);
        assert_eq!(pool.active.len(), 0);
    }

    #[test]
    fn double_release_is_rejected() {
        let db = shared_db(5);
        let mut pool = make_pool(&db);
        let allocation = pool.allocate(RequestId(1), &sun_basic(), 12).unwrap();
        assert!(pool.release(&allocation).is_ok());
        assert_eq!(
            pool.release(&allocation),
            Err(AllocationError::UnknownAllocation)
        );
    }

    #[test]
    fn allocations_spread_across_machines_under_load() {
        let db = shared_db(10);
        let mut pool = make_pool(&db);
        let query = sun_basic();
        let mut machines = std::collections::HashSet::new();
        for i in 0..10 {
            let a = pool.allocate(RequestId(i), &query, 12).unwrap();
            machines.insert(a.machine);
        }
        // Least-loaded scheduling must not pile everything on one machine.
        assert!(
            machines.len() >= 5,
            "got {} distinct machines",
            machines.len()
        );
    }

    #[test]
    fn allocation_fails_when_everything_is_saturated() {
        let db = shared_db(2);
        // Lower the load ceiling so saturation happens quickly.
        {
            let mut guard = db.write();
            let ids: Vec<_> = guard.iter().map(|m| m.id).collect();
            for id in ids {
                guard.get_mut(id).unwrap().max_allowed_load = 0.5;
                guard.get_mut(id).unwrap().num_cpus = 1;
            }
        }
        let mut pool = make_pool(&db);
        let query = sun_basic();
        let mut failures = 0;
        for i in 0..5 {
            if pool.allocate(RequestId(i), &query, 12).is_err() {
                failures += 1;
            }
        }
        assert!(
            failures > 0,
            "saturated machines must eventually refuse work"
        );
    }

    #[test]
    fn session_keys_are_unique_across_allocations() {
        let db = shared_db(10);
        let mut pool = make_pool(&db);
        let query = sun_basic();
        let mut keys = std::collections::HashSet::new();
        for i in 0..8 {
            let a = pool.allocate(RequestId(i), &query, 12).unwrap();
            assert!(keys.insert(a.access_key.0.clone()));
        }
    }

    #[test]
    fn dissolve_releases_taken_marks() {
        let db = shared_db(10);
        let pool = make_pool(&db);
        assert_eq!(db.read().taken_count(), 10);
        pool.dissolve();
        assert_eq!(db.read().taken_count(), 0);
    }

    #[test]
    fn pools_do_not_steal_machines_taken_by_other_pools() {
        let db = ResourceDatabase::new().into_shared();
        {
            let mut fleet = SyntheticFleet::new(FleetSpec::homogeneous(10, "sun", 256), 3);
            let mut guard = db.write();
            fleet.generate_into(&mut guard);
        }
        let first = make_pool(&db);
        assert_eq!(first.size(), 10);
        // A second pool with the same aggregation criteria still sees the
        // machines in its walk (same pool name ⇒ idempotent claim), but a
        // pool claiming for a *different* name must not flip the marks.
        let other_name = PoolName::from_query(
            &Query::new()
                .with(QueryKey::rsrc("memory"), Constraint::ge(10u64))
                .decompose(1)
                .remove(0),
        );
        let second = ResourcePool::create(
            other_name.clone(),
            0,
            ReplicaBias::none(),
            db.clone(),
            SchedulingObjective::LeastLoaded,
            5,
        )
        .unwrap();
        assert_eq!(second.size(), 10);
        // The original claims survive.
        let guard = db.read();
        let kept = guard
            .iter()
            .filter(|m| {
                guard
                    .taken_by(m.id)
                    .map(|t| *t.pool_name == first.name().full())
                    .unwrap_or(false)
            })
            .count();
        assert_eq!(kept, 10);
    }
}
