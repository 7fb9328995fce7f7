//! The local directory service.
//!
//! "Pool managers keep track of resource pools via a local directory
//! service.  Once a query has been mapped to a pool name, the pool manager
//! uses the directory service to retrieve pointers (i.e., machine names and
//! TCP/UDP ports) to all instances of resource pools with the particular
//! name" (Section 5.2.2).  Within an administrative domain, replicated
//! stages share information through this directory.
//!
//! One [`LocalDirectoryService`] serves a domain, shared behind an `Arc`:
//! its table (the pools and the pool-manager roster) sits behind one
//! `RwLock`.  A pool manager calls it from inside its stage's step, so the
//! stage lock already orders those calls; eight hashed shards measured no
//! better than this one lock (EXPERIMENTS.md "PR 46").  The generation
//! counter the gossip plane polls is a lock-free atomic, so the per-frame
//! "did the directory change?" check costs a load instead of a read lock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::message::StageAddress;

/// Directory record for one resource-pool instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolInstanceRecord {
    /// Full pool name (`signature/identifier`).
    pub pool: String,
    /// Instance number (pools can be replicated).
    pub instance: u32,
    /// Name of the pool manager hosting the instance.
    pub manager: String,
    /// Network address of the instance.
    pub address: StageAddress,
}

/// What the directory's lock guards.
#[derive(Debug, Default)]
struct Table {
    pools: BTreeMap<String, Vec<PoolInstanceRecord>>,
    pool_managers: Vec<String>,
}

impl Table {
    fn instance_count(&self) -> usize {
        self.pools.values().map(Vec::len).sum()
    }
}

/// One administrative domain's directory.
///
/// Lock rank (`docs/CONCURRENCY.md`): `table` sits below a stage's
/// `manager` and is otherwise a leaf.
#[derive(Debug, Default)]
pub struct LocalDirectoryService {
    table: RwLock<Table>,
    /// Bumped on every pool-set mutation; read lock-free by the gossip
    /// refresh on every outbound frame.
    generation: AtomicU64,
    /// Acquisitions that found the lock held and had to block.
    contention: AtomicU64,
}

/// The directory's name from when it was split into hashed shards; it is
/// the one [`LocalDirectoryService`] now.
pub type ShardedDirectory = LocalDirectoryService;

/// Shared handle to a directory.
pub type SharedDirectory = Arc<LocalDirectoryService>;

impl LocalDirectoryService {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps the directory in the shared handle used by pipeline stages.
    pub fn into_shared(self) -> SharedDirectory {
        Arc::new(self)
    }

    /// Read-locks the table, counting a blocked acquisition when the fast
    /// path loses to a writer.
    fn read(&self) -> RwLockReadGuard<'_, Table> {
        self.table.try_read().unwrap_or_else(|| {
            self.contention.fetch_add(1, Ordering::Relaxed);
            self.table.read()
        })
    }

    /// Write-locks the table; same contention accounting.
    fn write(&self) -> RwLockWriteGuard<'_, Table> {
        self.table.try_write().unwrap_or_else(|| {
            self.contention.fetch_add(1, Ordering::Relaxed);
            self.table.write()
        })
    }

    fn bump(&self) {
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    /// Registers a pool manager so peers can delegate queries to it.
    /// Idempotent; does not bump the generation (the advertised pool set
    /// is unchanged).
    pub fn register_pool_manager(&self, name: impl Into<String>) {
        let name = name.into();
        let mut table = self.write();
        if !table.pool_managers.contains(&name) {
            table.pool_managers.push(name);
        }
    }

    /// Removes a pool manager *and every pool-instance record it hosted*
    /// (the manager failed, or a federation peer's connection died).
    /// Without this, a dead manager's name and its instance records stayed
    /// routable forever — queries kept being forwarded at a ghost.
    /// Returns `true` when the manager was registered.
    pub fn unregister_pool_manager(&self, name: &str) -> bool {
        let mut table = self.write();
        let (managers, instances) = (table.pool_managers.len(), table.instance_count());
        table.pool_managers.retain(|m| m != name);
        table.pools.retain(|_, entries| {
            entries.retain(|r| r.manager != name);
            !entries.is_empty()
        });
        let removed = table.pool_managers.len() != managers;
        if removed || table.instance_count() != instances {
            self.bump();
        }
        removed
    }

    /// The pool managers known in this domain.
    pub fn pool_managers(&self) -> Vec<String> {
        self.read().pool_managers.clone()
    }

    /// Registers a pool instance.  Registration is idempotent on
    /// `(pool, instance)`; re-registering replaces the record (a restarted
    /// instance may have a new address).
    pub fn register_pool(&self, record: PoolInstanceRecord) {
        let mut table = self.write();
        let entry = table.pools.entry(record.pool.clone()).or_default();
        match entry.iter_mut().find(|r| r.instance == record.instance) {
            Some(existing) => *existing = record,
            None => entry.push(record),
        }
        self.bump();
    }

    /// Registers a pool instance nobody has registered yet; `false`, and
    /// nothing changes, when `(pool, instance)` is taken — two managers
    /// read the same next instance number and created the pool at once.
    pub fn register_new_pool(&self, record: PoolInstanceRecord) -> bool {
        let mut table = self.write();
        let entry = table.pools.entry(record.pool.clone()).or_default();
        if entry.iter().any(|r| r.instance == record.instance) {
            return false;
        }
        entry.push(record);
        self.bump();
        true
    }

    /// Removes a pool instance (pool destroyed or its host failed).
    pub fn unregister_pool(&self, pool: &str, instance: u32) -> bool {
        let mut table = self.write();
        let Some(entries) = table.pools.get_mut(pool) else {
            return false;
        };
        let before = entries.len();
        entries.retain(|r| r.instance != instance);
        let removed = entries.len() != before;
        if entries.is_empty() {
            table.pools.remove(pool);
        }
        if removed {
            self.bump();
        }
        removed
    }

    /// All registered instances of a pool name.
    pub fn instances(&self, pool: &str) -> Vec<PoolInstanceRecord> {
        self.read().pools.get(pool).cloned().unwrap_or_default()
    }

    /// Number of distinct pool names registered.
    #[cfg(test)]
    pub fn pool_count(&self) -> usize {
        self.read().pools.len()
    }

    /// Total number of pool instances registered.
    pub fn instance_count(&self) -> usize {
        self.read().instance_count()
    }

    /// The next unused instance number for a pool name, or `None` when the
    /// numbering space is exhausted.  The old `m + 1` here panicked in
    /// debug builds (and wrapped to a *colliding* instance 0 in release)
    /// once an instance reached `u32::MAX`.
    pub fn next_instance_number(&self, pool: &str) -> Option<u32> {
        let table = self.read();
        match (table.pools.get(pool)).and_then(|entries| entries.iter().map(|r| r.instance).max()) {
            None => Some(0),
            Some(max) => max.checked_add(1),
        }
    }

    /// Every registered pool name, sorted (gossip advertisements rely on
    /// the order staying deterministic).
    pub fn pool_names(&self) -> Vec<String> {
        self.read().pools.keys().cloned().collect()
    }

    /// A counter bumped on every mutation that changes the registered
    /// pool set.  The gossip plane polls it to decide cheaply whether the
    /// local advertisement log needs refreshing before a frame ships —
    /// unchanged generation means no directory diff is needed.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Acquisitions that had to block on a held lock since startup.
    /// Surfaced as `shard_contention` in [`actyp_proto::StatsSnapshot`].
    pub fn contention(&self) -> u64 {
        self.contention.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(pool: &str, instance: u32, manager: &str) -> PoolInstanceRecord {
        PoolInstanceRecord {
            pool: pool.to_string(),
            instance,
            manager: manager.to_string(),
            address: StageAddress::new(format!("{manager}.purdue.edu"), 7300 + instance as u16),
        }
    }

    #[test]
    fn register_and_lookup_instances() {
        let dir = LocalDirectoryService::new();
        dir.register_pool(record("arch,==/sun", 0, "pm-a"));
        dir.register_pool(record("arch,==/sun", 1, "pm-b"));
        dir.register_pool(record("arch,==/hp", 0, "pm-a"));

        assert_eq!(dir.pool_count(), 2);
        assert_eq!(dir.instance_count(), 3);
        assert_eq!(dir.instances("arch,==/sun").len(), 2);
        assert_eq!(dir.instances("arch,==/hp").len(), 1);
        assert!(dir.instances("arch,==/linux").is_empty());
        // Sorted by name: gossip advertisements ship them in this order.
        assert_eq!(dir.pool_names(), vec!["arch,==/hp", "arch,==/sun"]);
    }

    #[test]
    fn re_registration_replaces_the_record() {
        let dir = LocalDirectoryService::new();
        dir.register_pool(record("arch,==/sun", 0, "pm-a"));
        let mut updated = record("arch,==/sun", 0, "pm-a");
        updated.address = StageAddress::new("new-host.purdue.edu", 9999);
        dir.register_pool(updated.clone());
        let instances = dir.instances("arch,==/sun");
        assert_eq!(instances.len(), 1);
        assert_eq!(instances[0].address, updated.address);
    }

    /// Two managers that created instance 0 at once: the first to register
    /// keeps it, the second learns it lost and changes nothing.
    #[test]
    fn a_new_instance_registers_once() {
        let dir = LocalDirectoryService::new().into_shared();
        assert!(dir.register_new_pool(record("arch,==/sun", 0, "pm-a")));
        let generation = dir.generation();
        assert!(!dir.register_new_pool(record("arch,==/sun", 0, "pm-b")));
        assert_eq!(dir.generation(), generation);
        let instances = dir.instances("arch,==/sun");
        assert_eq!(instances.len(), 1);
        assert_eq!(instances[0].manager, "pm-a");
        assert!(dir.register_new_pool(record("arch,==/sun", 1, "pm-b")));
    }

    #[test]
    fn unregister_removes_instance_and_empty_pools() {
        let dir = LocalDirectoryService::new();
        dir.register_pool(record("p", 0, "pm-a"));
        dir.register_pool(record("p", 1, "pm-a"));
        assert!(dir.unregister_pool("p", 0));
        assert_eq!(dir.instances("p").len(), 1);
        assert!(dir.unregister_pool("p", 1));
        assert_eq!(dir.pool_count(), 0);
        assert!(!dir.unregister_pool("p", 7));
        assert!(!dir.unregister_pool("missing", 0));
    }

    #[test]
    fn next_instance_number_is_one_past_the_maximum() {
        let dir = LocalDirectoryService::new();
        assert_eq!(dir.next_instance_number("p"), Some(0));
        dir.register_pool(record("p", 0, "pm-a"));
        dir.register_pool(record("p", 3, "pm-b"));
        assert_eq!(dir.next_instance_number("p"), Some(4));
    }

    #[test]
    fn instance_number_exhaustion_is_surfaced_not_wrapped() {
        // Regression: `u32::MAX + 1` used to panic in debug builds and
        // wrap to a colliding instance 0 in release builds.
        let dir = LocalDirectoryService::new();
        dir.register_pool(PoolInstanceRecord {
            pool: "p".to_string(),
            instance: u32::MAX,
            manager: "pm-a".to_string(),
            address: StageAddress::new("pm-a.purdue.edu", 7300),
        });
        assert_eq!(dir.next_instance_number("p"), None);
        // Other pool names are unaffected.
        assert_eq!(dir.next_instance_number("q"), Some(0));
    }

    #[test]
    fn unregister_pool_manager_drops_its_instance_records() {
        let dir = LocalDirectoryService::new();
        dir.register_pool_manager("pm-a");
        dir.register_pool_manager("pm-b");
        dir.register_pool(record("p", 0, "pm-a"));
        dir.register_pool(record("p", 1, "pm-b"));
        dir.register_pool(record("q", 0, "pm-a"));

        assert!(dir.unregister_pool_manager("pm-a"));
        assert_eq!(dir.pool_managers(), vec!["pm-b".to_string()]);
        // pm-a's records are gone; pm-b's survive; the now-empty pool name
        // `q` is removed entirely.
        assert_eq!(dir.instances("p").len(), 1);
        assert_eq!(dir.instances("p")[0].manager, "pm-b");
        assert!(dir.instances("q").is_empty());
        assert_eq!(dir.pool_count(), 1);
        // Unregistering an unknown manager reports false and is harmless.
        assert!(!dir.unregister_pool_manager("pm-zz"));
        assert_eq!(dir.instance_count(), 1);
    }

    #[test]
    fn pool_manager_registration_is_idempotent() {
        let dir = LocalDirectoryService::new();
        dir.register_pool_manager("pm-a");
        dir.register_pool_manager("pm-b");
        dir.register_pool_manager("pm-a");
        assert_eq!(
            dir.pool_managers(),
            vec!["pm-a".to_string(), "pm-b".to_string()]
        );
    }

    #[test]
    fn generation_bumps_only_on_pool_set_changes() {
        let dir = LocalDirectoryService::new();
        let g0 = dir.generation();
        dir.register_pool(record("p", 0, "pm-a"));
        let g1 = dir.generation();
        assert!(g1 > g0);

        // A lookup does not bump it.
        let _ = dir.instances("p");
        assert_eq!(dir.generation(), g1);

        // A no-op unregister does not bump it.
        assert!(!dir.unregister_pool("p", 9));
        assert_eq!(dir.generation(), g1);

        assert!(dir.unregister_pool("p", 0));
        assert!(dir.generation() > g1);

        // Registering a manager does not bump it; dropping one that hosted
        // records does.
        dir.register_pool_manager("pm-a");
        dir.register_pool(record("q", 0, "pm-a"));
        let g2 = dir.generation();
        dir.register_pool_manager("pm-b");
        assert_eq!(dir.generation(), g2);
        dir.unregister_pool_manager("pm-a");
        assert!(dir.generation() > g2);
    }

    #[test]
    fn shared_handle_supports_concurrent_access() {
        let dir = LocalDirectoryService::new().into_shared();
        dir.register_pool(record("p", 0, "pm-a"));
        let d2 = dir.clone();
        let handle = std::thread::spawn(move || d2.instance_count());
        assert_eq!(handle.join().unwrap(), 1);
    }

    /// A writer forced onto the held lock: the counter that feeds
    /// `shard_contention` must actually move.  The collision is staged,
    /// not raced — on a one-core box a handful of free-running writers
    /// can serialize perfectly and never lose a `try_write`.
    #[test]
    fn a_blocked_acquisition_registers_contention() {
        let dir = LocalDirectoryService::new().into_shared();
        let held = dir.table.write();
        let writer = {
            let dir = dir.clone();
            std::thread::spawn(move || {
                dir.register_pool(record("pool/contended", 0, "pm-a"));
            })
        };
        // The writer's try_write fast path must lose to `held`; it then
        // records the blocked acquisition before parking on the lock.
        while dir.contention() == 0 {
            std::thread::yield_now();
        }
        drop(held);
        writer.join().unwrap();
        assert_eq!(dir.contention(), 1);
        assert_eq!(dir.instance_count(), 1, "the blocked write still landed");
    }
}
