//! Shard plumbing for the daemon's hot tables.
//!
//! A single `ypd` used to funnel every session through a handful of
//! process-global locks — the directory `RwLock`, whole-map `Mutex`es on
//! the in-flight request tables — so adding cores added contention instead
//! of throughput.  This module holds the two pieces every sharded
//! structure shares: the deterministic pool-name hash that assigns a key
//! to a shard, and a sharded `u64 → V` map for the live backend's ticket
//! table, whose keys are already uniformly distributed sequence numbers
//! (`corr.rs` shards its correlation-id table the same way, over its own
//! primitives).
//!
//! Locking discipline: every shard lock is taken through a local binding
//! named `shard`, the rank registered in `docs/CONCURRENCY.md`'s
//! lock-hierarchy fence.  A shard guard is a leaf in practice — held for
//! a few statements, never across another acquisition — and the
//! cross-shard `len` locks shards strictly one at a time, so disjoint-key
//! callers never serialise on each other.

use std::collections::HashMap;

use parking_lot::Mutex;

/// Default shard count for the daemon's hot tables.  Eight shards cover
/// the core counts the saturation sweeps target while keeping the
/// cross-shard sweep (stats snapshots, teardown drains) cheap.
pub const DEFAULT_SHARDS: usize = 8;

/// FNV-1a over `key` — the deterministic hash assigning pool names to
/// directory shards.  Deterministic so a pool name maps to the same shard
/// in every process of a federation and in every test run.
pub(crate) fn fnv1a(key: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in key {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A `u64 → V` hash map split over independently locked shards.
///
/// Used for the live backend's in-flight ticket table, whose keys are
/// sequence numbers: `key % shards` deals consecutive ids round-robin, so
/// concurrent requests land on different locks instead of one global
/// rendezvous point.
#[derive(Debug)]
pub(crate) struct ShardedMap<V> {
    shards: Box<[Mutex<HashMap<u64, V>>]>,
}

impl<V> ShardedMap<V> {
    /// A map with `shards` independent lock domains (clamped to ≥ 1).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedMap {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    /// The shard holding `key`.
    pub fn shard_for(&self, key: u64) -> &Mutex<HashMap<u64, V>> {
        &self.shards[(key % self.shards.len() as u64) as usize]
    }

    pub fn insert(&self, key: u64, value: V) -> Option<V> {
        let shard = self.shard_for(key);
        shard.lock().insert(key, value)
    }

    pub fn remove(&self, key: u64) -> Option<V> {
        let shard = self.shard_for(key);
        shard.lock().remove(&key)
    }

    /// Total entries, summed one shard lock at a time (a point-in-time
    /// figure, exact only when writers are quiet).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        let mut total = 0;
        for shard in self.shards.iter() {
            total += shard.lock().len();
        }
        total
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

    #[test]
    fn sharded_map_round_trip() {
        let map: ShardedMap<String> = ShardedMap::new(4);
        assert_eq!(map.len(), 0);
        for i in 0..32u64 {
            assert!(map.insert(i, format!("v{i}")).is_none());
        }
        assert_eq!(map.len(), 32);
        assert_eq!(map.remove(7).as_deref(), Some("v7"));
        assert!(map.remove(7).is_none());
        assert_eq!(map.insert(3, "replaced".into()).as_deref(), Some("v3"));
        assert_eq!(map.len(), 31);
    }

    #[test]
    fn sequential_keys_deal_round_robin_over_shards() {
        let map: ShardedMap<u64> = ShardedMap::new(4);
        // Consecutive ticket ids must not share a shard lock.
        assert!(!std::ptr::eq(map.shard_for(0), map.shard_for(1)));
        assert!(std::ptr::eq(map.shard_for(1), map.shard_for(5)));
    }
}
