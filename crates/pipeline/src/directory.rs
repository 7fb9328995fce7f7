//! The local directory service.
//!
//! "Pool managers keep track of resource pools via a local directory
//! service.  Once a query has been mapped to a pool name, the pool manager
//! uses the directory service to retrieve pointers (i.e., machine names and
//! TCP/UDP ports) to all instances of resource pools with the particular
//! name" (Section 5.2.2).  Within an administrative domain, replicated
//! stages share information through this directory.
//!
//! The shared handle is a [`ShardedDirectory`]: pool names hash (FNV-1a)
//! onto independently locked shards of the plain [`LocalDirectoryService`],
//! so pool managers touching different pools never serialise on one
//! process-global `RwLock` — the old `Arc<RwLock<LocalDirectoryService>>`
//! was the first lock every session funneled through and capped the
//! daemon's core scaling.  The generation counter the gossip plane polls
//! is a lock-free atomic, so the per-frame "did the directory change?"
//! check costs a load instead of a read lock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::message::StageAddress;

/// Default shard count of the directory (and of a connection's pending
/// table, `corr.rs`).  Eight shards cover the core counts the saturation
/// sweeps target while keeping the cross-shard sweeps (stats snapshots,
/// teardown drains) cheap.
pub(crate) const DEFAULT_SHARDS: usize = 8;

/// FNV-1a over `key` — the deterministic hash assigning pool names to
/// directory shards.  Deterministic so a pool name maps to the same shard
/// in every process of a federation and in every test run.
fn fnv1a(key: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in key {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

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

/// One administrative domain's directory, unsharded: the reference
/// implementation the sharded handle splits by pool name (and the
/// per-shard payload itself).
#[derive(Debug, Default)]
pub struct LocalDirectoryService {
    pools: BTreeMap<String, Vec<PoolInstanceRecord>>,
    pool_managers: Vec<String>,
    generation: u64,
}

/// Shared handle to a directory.
pub type SharedDirectory = Arc<ShardedDirectory>;

impl LocalDirectoryService {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps the directory in the sharded shared handle used by pipeline
    /// stages, with the default shard count.
    pub fn into_shared(self) -> SharedDirectory {
        self.into_shared_with(DEFAULT_SHARDS)
    }

    /// Wraps the directory in the shared handle with an explicit shard
    /// count (clamped to ≥ 1).
    pub fn into_shared_with(self, shards: usize) -> SharedDirectory {
        Arc::new(ShardedDirectory::from_unsharded(self, shards))
    }

    /// Registers a pool manager so peers can delegate queries to it.
    pub fn register_pool_manager(&mut self, name: impl Into<String>) {
        let name = name.into();
        if !self.pool_managers.contains(&name) {
            self.pool_managers.push(name);
        }
    }

    /// Removes a pool manager *and every pool-instance record it hosted*
    /// (the manager failed, or a federation peer's connection died).
    /// Without this, a dead manager's name and its instance records stayed
    /// routable forever — queries kept being forwarded at a ghost.
    /// Returns `true` when the manager was registered.
    pub fn unregister_pool_manager(&mut self, name: &str) -> bool {
        let before = self.pool_managers.len();
        self.pool_managers.retain(|m| m != name);
        let removed = self.pool_managers.len() != before;
        let instances_before = self.instance_count();
        self.pools.retain(|_, entries| {
            entries.retain(|r| r.manager != name);
            !entries.is_empty()
        });
        if removed || self.instance_count() != instances_before {
            self.generation += 1;
        }
        removed
    }

    /// The pool managers known in this domain.
    pub fn pool_managers(&self) -> &[String] {
        &self.pool_managers
    }

    /// Registers a pool instance.  Registration is idempotent on
    /// `(pool, instance)`; re-registering replaces the record (a restarted
    /// instance may have a new address).
    pub fn register_pool(&mut self, record: PoolInstanceRecord) {
        let entry = self.pools.entry(record.pool.clone()).or_default();
        if let Some(existing) = entry.iter_mut().find(|r| r.instance == record.instance) {
            *existing = record;
        } else {
            entry.push(record);
        }
        self.generation += 1;
    }

    /// Registers a pool instance nobody has registered yet; `false`, and
    /// nothing changes, when `(pool, instance)` is taken — two managers
    /// read the same next instance number and created the pool at once.
    pub fn register_new_pool(&mut self, record: PoolInstanceRecord) -> bool {
        let entry = self.pools.entry(record.pool.clone()).or_default();
        if entry.iter().any(|r| r.instance == record.instance) {
            return false;
        }
        entry.push(record);
        self.generation += 1;
        true
    }

    /// Removes a pool instance (pool destroyed or its host failed).
    pub fn unregister_pool(&mut self, pool: &str, instance: u32) -> bool {
        match self.pools.get_mut(pool) {
            Some(entries) => {
                let before = entries.len();
                entries.retain(|r| r.instance != instance);
                let removed = entries.len() != before;
                if entries.is_empty() {
                    self.pools.remove(pool);
                }
                if removed {
                    self.generation += 1;
                }
                removed
            }
            None => false,
        }
    }

    /// All registered instances of a pool name.
    pub fn instances(&self, pool: &str) -> Vec<PoolInstanceRecord> {
        self.pools.get(pool).cloned().unwrap_or_default()
    }

    /// Number of distinct pool names registered.
    #[cfg(test)]
    pub fn pool_count(&self) -> usize {
        self.pools.len()
    }

    /// Total number of pool instances registered.
    pub fn instance_count(&self) -> usize {
        self.pools.values().map(Vec::len).sum()
    }

    /// The next unused instance number for a pool name, or `None` when the
    /// numbering space is exhausted.  The old `m + 1` here panicked in
    /// debug builds (and wrapped to a *colliding* instance 0 in release)
    /// once an instance reached `u32::MAX`.
    pub fn next_instance_number(&self, pool: &str) -> Option<u32> {
        match self
            .pools
            .get(pool)
            .and_then(|entries| entries.iter().map(|r| r.instance).max())
        {
            None => Some(0),
            Some(max) => max.checked_add(1),
        }
    }

    /// Iterates over every registered pool name.
    pub fn pool_names(&self) -> impl Iterator<Item = &String> {
        self.pools.keys()
    }

    /// A counter bumped on every mutation that changes the registered
    /// pool set.  The gossip plane polls it to decide cheaply whether the
    /// local advertisement log needs refreshing before a frame ships —
    /// unchanged generation means no directory diff is needed.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// The directory shared by the pool managers of one administrative
/// domain, sharded by pool name.
///
/// Each shard is a [`LocalDirectoryService`] behind its own `RwLock`;
/// a pool name maps to exactly one shard (FNV-1a), so all per-pool
/// operations touch one lock and disjoint pools proceed in parallel.
/// The pool-manager roster is domain-global and lives beside the shards
/// under its own lock.  Cross-shard reads (`instance_count`,
/// `pool_names`) lock shards strictly one at a time — never two guards
/// at once — so they cannot deadlock against writers; they return a
/// point-in-time figure, the same contract the old handle gave callers
/// that dropped the read guard before acting.
///
/// Lock ranks (`docs/CONCURRENCY.md`): `managers` is held across the
/// shard sweep in [`unregister_pool_manager`](Self::unregister_pool_manager)
/// (the `managers → shard` edge); `shard` is otherwise a leaf.
#[derive(Debug)]
pub struct ShardedDirectory {
    shards: Box<[RwLock<LocalDirectoryService>]>,
    managers: RwLock<Vec<String>>,
    /// Bumped on every pool-set mutation; read lock-free by the gossip
    /// refresh on every outbound frame.
    generation: AtomicU64,
    /// Shard acquisitions that found the lock held and had to block —
    /// the saturation sweeps' direct measure of directory contention.
    contention: AtomicU64,
}

impl Default for ShardedDirectory {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedDirectory {
    /// An empty directory with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// An empty directory with `shards` lock domains (clamped to ≥ 1;
    /// one shard degenerates to the old single-lock behaviour, which the
    /// saturation benches use as their baseline series).
    pub fn with_shards(shards: usize) -> Self {
        Self::from_unsharded(LocalDirectoryService::new(), shards)
    }

    fn from_unsharded(inner: LocalDirectoryService, shards: usize) -> Self {
        let count = shards.max(1);
        let mut split: Vec<LocalDirectoryService> =
            (0..count).map(|_| LocalDirectoryService::new()).collect();
        for (pool, records) in inner.pools {
            let idx = (fnv1a(pool.as_bytes()) % count as u64) as usize;
            split[idx].pools.insert(pool, records);
        }
        ShardedDirectory {
            shards: split.into_iter().map(RwLock::new).collect(),
            managers: RwLock::new(inner.pool_managers),
            generation: AtomicU64::new(inner.generation),
            contention: AtomicU64::new(0),
        }
    }

    /// Wraps the directory in the shared handle used by pipeline stages.
    pub fn into_shared(self) -> SharedDirectory {
        Arc::new(self)
    }

    fn shard_of(&self, pool: &str) -> usize {
        (fnv1a(pool.as_bytes()) % self.shards.len() as u64) as usize
    }

    /// Read-locks the shard owning `pool`, counting a blocked acquisition
    /// when the fast path loses to a writer.
    fn read_shard(&self, pool: &str) -> RwLockReadGuard<'_, LocalDirectoryService> {
        let shard = &self.shards[self.shard_of(pool)];
        match shard.try_read() {
            Some(guard) => guard,
            None => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                shard.read()
            }
        }
    }

    /// Write-locks the shard owning `pool`; same contention accounting.
    fn write_shard(&self, pool: &str) -> RwLockWriteGuard<'_, LocalDirectoryService> {
        let shard = &self.shards[self.shard_of(pool)];
        match shard.try_write() {
            Some(guard) => guard,
            None => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                shard.write()
            }
        }
    }

    /// Registers a pool manager so peers can delegate queries to it.
    /// Idempotent; does not bump the generation (the advertised pool set
    /// is unchanged).
    pub fn register_pool_manager(&self, name: impl Into<String>) {
        let name = name.into();
        let mut managers = self.managers.write();
        if !managers.contains(&name) {
            managers.push(name);
        }
    }

    /// Removes a pool manager and every pool-instance record it hosted,
    /// sweeping all shards.  The roster lock is held across the sweep so
    /// a concurrent re-registration of the same manager cannot interleave
    /// halfway through the record purge.  Returns `true` when the manager
    /// was registered.
    pub fn unregister_pool_manager(&self, name: &str) -> bool {
        let mut managers = self.managers.write();
        let before = managers.len();
        managers.retain(|m| m != name);
        let removed = managers.len() != before;
        let mut records_changed = false;
        for shard in self.shards.iter() {
            let mut guard = shard.write();
            let generation_before = guard.generation();
            guard.unregister_pool_manager(name);
            records_changed |= guard.generation() != generation_before;
        }
        if removed || records_changed {
            self.generation.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// The pool managers known in this domain.
    pub fn pool_managers(&self) -> Vec<String> {
        self.managers.read().clone()
    }

    /// Registers a pool instance (idempotent on `(pool, instance)`;
    /// re-registering replaces the record).
    pub fn register_pool(&self, record: PoolInstanceRecord) {
        let mut guard = self.write_shard(&record.pool);
        guard.register_pool(record);
        drop(guard);
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    /// Registers a pool instance nobody has registered yet (`false` when
    /// `(pool, instance)` is taken); one shard lock covers the check and
    /// the insert.
    pub fn register_new_pool(&self, record: PoolInstanceRecord) -> bool {
        let registered = self.write_shard(&record.pool).register_new_pool(record);
        if registered {
            self.generation.fetch_add(1, Ordering::Relaxed);
        }
        registered
    }

    /// Removes a pool instance (pool destroyed or its host failed).
    pub fn unregister_pool(&self, pool: &str, instance: u32) -> bool {
        let removed = self.write_shard(pool).unregister_pool(pool, instance);
        if removed {
            self.generation.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// All registered instances of a pool name.
    pub fn instances(&self, pool: &str) -> Vec<PoolInstanceRecord> {
        self.read_shard(pool).instances(pool)
    }

    /// Number of distinct pool names registered (shards partition the
    /// name space, so the per-shard counts sum without double counting).
    #[cfg(test)]
    pub fn pool_count(&self) -> usize {
        let mut total = 0;
        for shard in self.shards.iter() {
            total += shard.read().pool_count();
        }
        total
    }

    /// Total number of pool instances registered.
    pub fn instance_count(&self) -> usize {
        let mut total = 0;
        for shard in self.shards.iter() {
            total += shard.read().instance_count();
        }
        total
    }

    /// The next unused instance number for a pool name, or `None` when
    /// the numbering space is exhausted.
    pub fn next_instance_number(&self, pool: &str) -> Option<u32> {
        self.read_shard(pool).next_instance_number(pool)
    }

    /// Every registered pool name, in the same sorted order the
    /// unsharded directory's `BTreeMap` iteration gave (gossip
    /// advertisements must stay deterministic across shard counts).
    pub fn pool_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for shard in self.shards.iter() {
            names.extend(shard.read().pool_names().cloned());
        }
        names.sort_unstable();
        names
    }

    /// The generation counter the gossip plane polls — a lock-free load,
    /// so the per-frame freshness check costs nothing under write load.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Shard acquisitions that had to block on a held lock since startup.
    /// Surfaced as `shard_contention` in [`actyp_proto::StatsSnapshot`].
    pub fn contention(&self) -> u64 {
        self.contention.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_is_stable_and_spreads() {
        // Pinned values: the shard assignment is part of cross-process
        // determinism, so the hash must never silently change.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        // Distinct pool names spread over 8 shards rather than piling up.
        let shards: std::collections::HashSet<u64> = (0..64)
            .map(|i| fnv1a(format!("arch,==/sun/{i}").as_bytes()) % 8)
            .collect();
        assert!(
            shards.len() >= 4,
            "hash collapsed to {} shards",
            shards.len()
        );
    }
    use proptest::prelude::*;

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
        let mut dir = LocalDirectoryService::new();
        dir.register_pool(record("arch,==/sun", 0, "pm-a"));
        dir.register_pool(record("arch,==/sun", 1, "pm-b"));
        dir.register_pool(record("arch,==/hp", 0, "pm-a"));

        assert_eq!(dir.pool_count(), 2);
        assert_eq!(dir.instance_count(), 3);
        assert_eq!(dir.instances("arch,==/sun").len(), 2);
        assert_eq!(dir.instances("arch,==/hp").len(), 1);
        assert!(dir.instances("arch,==/linux").is_empty());
    }

    #[test]
    fn re_registration_replaces_the_record() {
        let mut dir = LocalDirectoryService::new();
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
        let dir = LocalDirectoryService::new().into_shared_with(4);
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
        let mut dir = LocalDirectoryService::new();
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
        let mut dir = LocalDirectoryService::new();
        assert_eq!(dir.next_instance_number("p"), Some(0));
        dir.register_pool(record("p", 0, "pm-a"));
        dir.register_pool(record("p", 3, "pm-b"));
        assert_eq!(dir.next_instance_number("p"), Some(4));
    }

    #[test]
    fn instance_number_exhaustion_is_surfaced_not_wrapped() {
        // Regression: `u32::MAX + 1` used to panic in debug builds and
        // wrap to a colliding instance 0 in release builds.
        let mut dir = LocalDirectoryService::new();
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
        let mut dir = LocalDirectoryService::new();
        dir.register_pool_manager("pm-a");
        dir.register_pool_manager("pm-b");
        dir.register_pool(record("p", 0, "pm-a"));
        dir.register_pool(record("p", 1, "pm-b"));
        dir.register_pool(record("q", 0, "pm-a"));

        assert!(dir.unregister_pool_manager("pm-a"));
        assert_eq!(dir.pool_managers(), &["pm-b".to_string()]);
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
        let mut dir = LocalDirectoryService::new();
        dir.register_pool_manager("pm-a");
        dir.register_pool_manager("pm-b");
        dir.register_pool_manager("pm-a");
        assert_eq!(
            dir.pool_managers(),
            &["pm-a".to_string(), "pm-b".to_string()]
        );
    }

    #[test]
    fn generation_bumps_only_on_pool_set_changes() {
        let mut dir = LocalDirectoryService::new();
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

        // Dropping a manager that hosted records bumps it too.
        dir.register_pool_manager("pm-a");
        dir.register_pool(record("q", 0, "pm-a"));
        let g2 = dir.generation();
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

    #[test]
    fn into_shared_distributes_existing_state() {
        let mut dir = LocalDirectoryService::new();
        dir.register_pool_manager("pm-a");
        for i in 0..16 {
            dir.register_pool(record(&format!("pool/{i}"), 0, "pm-a"));
        }
        let generation = dir.generation();
        let shared = dir.into_shared_with(4);
        assert_eq!(shared.shards.len(), 4);
        assert_eq!(shared.pool_count(), 16);
        assert_eq!(shared.instance_count(), 16);
        assert_eq!(shared.generation(), generation);
        assert_eq!(shared.pool_managers(), vec!["pm-a".to_string()]);
        for i in 0..16 {
            assert_eq!(shared.instances(&format!("pool/{i}")).len(), 1, "{i}");
        }
        // Sorted exactly as the unsharded BTreeMap iterated.
        let names = shared.pool_names();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        assert_eq!(names.len(), 16);
    }

    #[test]
    fn shard_count_is_clamped_to_at_least_one() {
        let dir = ShardedDirectory::with_shards(0);
        assert_eq!(dir.shards.len(), 1);
        dir.register_pool(record("p", 0, "pm-a"));
        assert_eq!(dir.instances("p").len(), 1);
    }

    /// Replays every directory operation against a sharded handle and the
    /// unsharded reference, asserting identical answers *and* identical
    /// "did the generation move?" observations — the signal the gossip
    /// plane keys its refreshes off.
    fn check_equivalence(shards: usize, ops: &[(u8, usize, u32, usize)]) {
        let pools = ["arch,==/sun", "arch,==/hp", "mem,>=/128", "disk,>=/4"];
        let managers = ["pm-a", "pm-b", "pm-c"];
        let sharded = ShardedDirectory::with_shards(shards);
        let mut reference = LocalDirectoryService::new();
        for &(op, pool_idx, instance, manager_idx) in ops {
            let pool = pools[pool_idx % pools.len()];
            let manager = managers[manager_idx % managers.len()];
            let gen_sharded = sharded.generation();
            let gen_reference = reference.generation();
            match op % 8 {
                0 => {
                    sharded.register_pool(record(pool, instance, manager));
                    reference.register_pool(record(pool, instance, manager));
                }
                1 => {
                    let a = sharded.unregister_pool(pool, instance);
                    let b = reference.unregister_pool(pool, instance);
                    prop_assert_eq!(a, b);
                }
                2 => {
                    sharded.register_pool_manager(manager);
                    reference.register_pool_manager(manager);
                }
                3 => {
                    let a = sharded.unregister_pool_manager(manager);
                    let b = reference.unregister_pool_manager(manager);
                    prop_assert_eq!(a, b);
                }
                4 => {
                    prop_assert_eq!(sharded.instances(pool), reference.instances(pool));
                }
                5 => {
                    prop_assert_eq!(
                        sharded.next_instance_number(pool),
                        reference.next_instance_number(pool)
                    );
                }
                6 => {
                    prop_assert_eq!(sharded.pool_count(), reference.pool_count());
                    prop_assert_eq!(sharded.instance_count(), reference.instance_count());
                }
                _ => {
                    let names: Vec<String> = reference.pool_names().cloned().collect();
                    prop_assert_eq!(sharded.pool_names(), names);
                    prop_assert_eq!(sharded.pool_managers(), reference.pool_managers().to_vec());
                }
            }
            prop_assert_eq!(
                sharded.generation() != gen_sharded,
                reference.generation() != gen_reference,
                "generation-moved signal diverged on op {}",
                op % 8
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any operation sequence answers identically sharded or not, at
        /// several shard counts (including the degenerate single shard).
        #[test]
        fn sharded_directory_matches_unsharded(
            shards in 1usize..9,
            ops in prop::collection::vec((0u8..8, 0usize..4, 0u32..3, 0usize..3), 1..32),
        ) {
            check_equivalence(shards, &ops);
        }
    }

    /// The contention counter is the regression guard: threads hammering
    /// pools that hash to *different* shards must never block on each
    /// other's locks, which the old single `RwLock` forced them to.
    #[test]
    fn disjoint_pools_do_not_contend_across_shards() {
        let dir = Arc::new(ShardedDirectory::with_shards(4));
        // Probe for pool names owned by pairwise-distinct shards.
        let mut pools: Vec<String> = Vec::new();
        let mut shards_used = std::collections::HashSet::new();
        let mut i = 0;
        while pools.len() < 4 {
            let name = format!("pool/{i}");
            if shards_used.insert(dir.shard_of(&name)) {
                pools.push(name);
            }
            i += 1;
        }
        let handles: Vec<_> = pools
            .into_iter()
            .enumerate()
            .map(|(worker, pool)| {
                let dir = dir.clone();
                std::thread::spawn(move || {
                    for round in 0..2000u32 {
                        dir.register_pool(record(&pool, round % 7, &format!("pm-{worker}")));
                        assert!(!dir.instances(&pool).is_empty());
                        let _ = dir.next_instance_number(&pool);
                        dir.unregister_pool(&pool, round % 7);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(
            dir.contention(),
            0,
            "threads on disjoint pools blocked on each other's shard locks"
        );
    }

    /// A writer forced onto a held shard: the counter must actually
    /// move, proving the regression test above measures what it claims.
    /// The collision is staged, not raced — on a one-core box a handful
    /// of free-running writers can serialize perfectly and never lose a
    /// `try_write`.
    #[test]
    fn single_shard_workload_registers_contention() {
        let dir = Arc::new(ShardedDirectory::with_shards(1));
        let held = dir.shards[0].write();
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
        assert!(
            dir.contention() > 0,
            "a writer blocked on a held shard must register contention"
        );
        assert_eq!(dir.instance_count(), 1, "the blocked write still landed");
    }
}
