//! Query managers.
//!
//! "Queries enter the resource management pipeline via a query manager
//! stage.  Query managers translate queries into a standard internal format,
//! decompose composite queries into basic components, select appropriate
//! pool managers, and forward queries to the selected pool managers"
//! (Section 5.2.1).  The results of decomposed queries are re-integrated
//! within another query-manager stage at the end of the pipeline.

use std::sync::Arc;

use actyp_query::{BasicQuery, Query, QuerySchema};
use actyp_simnet::Rng;

use crate::allocation::{Allocation, AllocationError};
use crate::message::{FragmentTag, RequestId, RequestIdGenerator};

/// Maximum number of basic queries a composite query may expand into, in
/// the pipeline's query manager and in the centralized baselines alike.
pub(crate) const DECOMPOSE_LIMIT: usize = 16;

/// How a query manager picks the pool manager for a basic query.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum PoolManagerSelection {
    /// Rotate across pool managers.
    #[default]
    RoundRobin,
    /// Pick a pool manager uniformly at random.
    Random,
    /// Route by the value of a `rsrc` key (e.g. all `sun` queries to one set
    /// of pool managers, all `hp` queries to another — the paper's example).
    ByKeyValue(String),
}

/// How the results of a decomposed composite query are re-integrated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReintegrationPolicy {
    /// Wait for every fragment and return all successful allocations
    /// (the client picks; unused ones should be released).
    #[default]
    All,
    /// Return the first successful allocation and release the rest — the
    /// latency-oriented QoS option described in Section 6.
    FirstMatch,
}

/// A request after query-manager processing: translated, validated,
/// decomposed and tagged.
#[derive(Debug, Clone)]
pub struct PreparedRequest {
    /// The request identifier assigned by the query manager.
    pub id: RequestId,
    /// The decomposed fragments, each with its reassembly tag.
    pub fragments: Vec<(FragmentTag, BasicQuery)>,
}

/// A query manager stage.
#[derive(Debug)]
pub struct QueryManager {
    name: String,
    schema: QuerySchema,
    selection: PoolManagerSelection,
    decompose_limit: usize,
    ids: Arc<RequestIdGenerator>,
    round_robin: usize,
    rng: Rng,
}

impl QueryManager {
    /// Creates a query manager.
    pub fn new(
        name: impl Into<String>,
        schema: QuerySchema,
        selection: PoolManagerSelection,
        decompose_limit: usize,
        ids: Arc<RequestIdGenerator>,
        seed: u64,
    ) -> Self {
        QueryManager {
            name: name.into(),
            schema,
            selection,
            decompose_limit: decompose_limit.max(1),
            ids,
            round_robin: 0,
            rng: Rng::new(seed),
        }
    }

    /// This stage's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Validates a query against the administrator-defined schema and
    /// decomposes it into tagged basic queries.
    pub fn prepare(&mut self, query: &Query) -> Result<PreparedRequest, AllocationError> {
        let violations = self.schema.validate(query);
        if !violations.is_empty() {
            let text = violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("; ");
            return Err(AllocationError::Schema(text));
        }
        let id = self.ids.next();
        let basics = query.decompose(self.decompose_limit);
        let total = basics.len() as u32;
        let fragments = basics
            .into_iter()
            .enumerate()
            .map(|(index, basic)| {
                (
                    FragmentTag {
                        request: id,
                        index: index as u32,
                        total,
                    },
                    basic,
                )
            })
            .collect();
        Ok(PreparedRequest { id, fragments })
    }

    /// Selects the pool manager a basic query should be forwarded to.
    pub fn select_pool_manager(
        &mut self,
        query: &BasicQuery,
        pool_managers: &[String],
    ) -> Option<String> {
        if pool_managers.is_empty() {
            return None;
        }
        let index = match &self.selection {
            PoolManagerSelection::RoundRobin => {
                let i = self.round_robin % pool_managers.len();
                self.round_robin += 1;
                i
            }
            PoolManagerSelection::Random => self.rng.index(pool_managers.len()),
            PoolManagerSelection::ByKeyValue(key) => {
                let value = query
                    .value(actyp_query::Section::Rsrc, key)
                    .map(|v| v.canonical())
                    .unwrap_or_default();
                // Stable FNV-1a hash of the routing value.
                let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
                for byte in value.as_bytes() {
                    hash ^= *byte as u64;
                    hash = hash.wrapping_mul(0x1000_0000_01b3);
                }
                (hash % pool_managers.len() as u64) as usize
            }
        };
        Some(pool_managers[index].clone())
    }

    /// Re-integrates the per-fragment results of a decomposed query.
    ///
    /// Returns the allocations to keep and the allocations that must be
    /// released (surplus matches under [`ReintegrationPolicy::FirstMatch`]).
    /// If no fragment succeeded, the first error is returned.
    pub fn reintegrate(
        &self,
        results: Vec<Result<Allocation, AllocationError>>,
        policy: ReintegrationPolicy,
    ) -> Result<(Vec<Allocation>, Vec<Allocation>), AllocationError> {
        let mut successes = Vec::new();
        let mut first_error: Option<AllocationError> = None;
        for result in results {
            match result {
                Ok(a) => successes.push(a),
                Err(e) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
            }
        }
        if successes.is_empty() {
            return Err(first_error.unwrap_or(AllocationError::NoSuchResources));
        }
        match policy {
            ReintegrationPolicy::All => Ok((successes, Vec::new())),
            ReintegrationPolicy::FirstMatch => {
                let keep = vec![successes.remove(0)];
                Ok((keep, successes))
            }
        }
    }
}

/// A learned delegation-routing cache.
///
/// The query-manager stage decides *where* a query goes; in the federated
/// deployment the options are the local backend or a TTL-bounded
/// delegation walk across peer domains.  The cache remembers, per pool
/// name (the pool name embeds the query signature, so equal-signature
/// repeat queries share an entry), which *directly linked* peer domain
/// satisfied the query last time — repeat WAN queries then go straight to
/// the satisfying domain in one hop instead of re-walking the chain.
///
/// The cache is advisory only: a hit *reorders* the delegation candidate
/// list, it never bypasses the TTL or the visited-domain check, so every
/// invariant of the uncached walk holds by construction.  Entries are
/// invalidated by the same gossip deltas that announce pool death
/// ([`crate::gossip::GossipEvent::PoolDown`]) and by peer-link failure.
#[derive(Debug)]
pub struct RouteCache {
    enabled: bool,
    routes: parking_lot::Mutex<std::collections::HashMap<String, String>>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

impl RouteCache {
    /// A cache; when `enabled` is false every lookup misses silently and
    /// nothing is learned (the baseline for the routing benchmark).
    pub fn new(enabled: bool) -> Self {
        RouteCache {
            enabled,
            routes: parking_lot::Mutex::new(std::collections::HashMap::new()),
            hits: std::sync::atomic::AtomicU64::new(0),
            misses: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Whether learning/lookup are active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records that `pool` was satisfied by way of direct peer
    /// `next_hop`.
    pub fn learn(&self, pool: &str, next_hop: &str) {
        if !self.enabled {
            return;
        }
        self.routes
            .lock()
            .insert(pool.to_string(), next_hop.to_string());
    }

    /// The learned next hop for `pool`, counting a hit or miss.
    pub fn next_hop(&self, pool: &str) -> Option<String> {
        if !self.enabled {
            return None;
        }
        let learned = self.routes.lock().get(pool).cloned();
        match learned {
            Some(hop) => {
                self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Some(hop)
            }
            None => {
                self.misses
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                None
            }
        }
    }

    /// Drops the route for `pool` (the gossip plane announced its
    /// death).
    pub fn invalidate_pool(&self, pool: &str) {
        self.routes.lock().remove(pool);
    }

    /// Drops every route through `next_hop` (its peer link failed or its
    /// domain was retired).
    pub fn invalidate_next_hop(&self, next_hop: &str) {
        self.routes.lock().retain(|_, hop| hop != next_hop);
    }

    /// Lifetime lookup hits.
    pub fn hits(&self) -> u64 {
        self.hits.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Lifetime lookup misses.
    pub fn misses(&self) -> u64 {
        self.misses.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::SessionKey;
    use actyp_grid::MachineId;
    use actyp_query::{Constraint, QueryKey, QuerySchema};

    fn qm(selection: PoolManagerSelection) -> QueryManager {
        QueryManager::new(
            "qm-0",
            QuerySchema::punch_default(),
            selection,
            16,
            Arc::new(RequestIdGenerator::new()),
            7,
        )
    }

    fn fake_allocation(id: u64) -> Allocation {
        Allocation {
            request: RequestId(id),
            machine: MachineId(id),
            machine_name: format!("m{id}"),
            execution_port: 7070,
            mount_port: 7071,
            shadow_uid: None,
            access_key: SessionKey::derive(RequestId(id), 0, id),
            pool: "arch,==/sun".to_string(),
            pool_instance: 0,
            examined: 1,
        }
    }

    #[test]
    fn translate_and_prepare_the_paper_query() {
        let mut qm = qm(PoolManagerSelection::RoundRobin);
        let query = actyp_query::parse_query(&Query::paper_example().to_string()).unwrap();
        let prepared = qm.prepare(&query).unwrap();
        assert_eq!(prepared.fragments.len(), 1);
        assert_eq!(prepared.fragments[0].0.total, 1);
    }

    #[test]
    fn schema_violations_are_surfaced() {
        let mut qm = qm(PoolManagerSelection::RoundRobin);
        let query = Query::new().with(QueryKey::rsrc("flux_capacitor"), Constraint::eq("yes"));
        let err = qm.prepare(&query).unwrap_err();
        assert!(matches!(err, AllocationError::Schema(_)));
    }

    #[test]
    fn composite_queries_fragment_with_tags() {
        let mut qm = qm(PoolManagerSelection::RoundRobin);
        let query = Query::new().with_alternatives(
            QueryKey::rsrc("arch"),
            vec![Constraint::eq("sun"), Constraint::eq("hp")],
        );
        let prepared = qm.prepare(&query).unwrap();
        assert_eq!(prepared.fragments.len(), 2);
        assert!(prepared
            .fragments
            .iter()
            .enumerate()
            .all(|(i, (tag, _))| tag.index == i as u32 && tag.total == 2));
    }

    #[test]
    fn request_ids_are_distinct_across_prepares() {
        let mut qm = qm(PoolManagerSelection::RoundRobin);
        let a = qm.prepare(&Query::paper_example()).unwrap();
        let b = qm.prepare(&Query::paper_example()).unwrap();
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn classad_translation_feeds_the_same_pipeline() {
        let mut qm = qm(PoolManagerSelection::RoundRobin);
        let query = actyp_query::classad::translate_requirements(
            "Arch == \"SUN\" && Memory >= 64",
            Some("royo"),
            Some("upc"),
        )
        .unwrap();
        let prepared = qm.prepare(&query).unwrap();
        assert_eq!(prepared.fragments.len(), 1);
        assert_eq!(prepared.fragments[0].1.user_login(), Some("royo"));
    }

    #[test]
    fn round_robin_pool_manager_selection() {
        let mut qm = qm(PoolManagerSelection::RoundRobin);
        let pms = vec!["pm-a".to_string(), "pm-b".to_string()];
        let basic = Query::paper_example().decompose(1).remove(0);
        let picks: Vec<String> = (0..4)
            .map(|_| qm.select_pool_manager(&basic, &pms).unwrap())
            .collect();
        assert_eq!(picks, vec!["pm-a", "pm-b", "pm-a", "pm-b"]);
        assert!(qm.select_pool_manager(&basic, &[]).is_none());
    }

    #[test]
    fn by_key_selection_routes_same_value_to_same_manager() {
        let mut qm = qm(PoolManagerSelection::ByKeyValue("arch".to_string()));
        let pms = vec!["pm-a".to_string(), "pm-b".to_string(), "pm-c".to_string()];
        let sun = Query::new()
            .with(QueryKey::rsrc("arch"), Constraint::eq("sun"))
            .decompose(1)
            .remove(0);
        let hp = Query::new()
            .with(QueryKey::rsrc("arch"), Constraint::eq("hp"))
            .decompose(1)
            .remove(0);
        let sun_pm: Vec<String> = (0..3)
            .map(|_| qm.select_pool_manager(&sun, &pms).unwrap())
            .collect();
        assert!(sun_pm.windows(2).all(|w| w[0] == w[1]), "stable routing");
        // Different key values are allowed to land elsewhere (not required,
        // but the routing must still be valid).
        let hp_pm = qm.select_pool_manager(&hp, &pms).unwrap();
        assert!(pms.contains(&hp_pm));
    }

    #[test]
    fn reintegration_all_keeps_every_success() {
        let qm = qm(PoolManagerSelection::RoundRobin);
        let results = vec![
            Ok(fake_allocation(1)),
            Err(AllocationError::NoneAvailable),
            Ok(fake_allocation(2)),
        ];
        let (keep, release) = qm.reintegrate(results, ReintegrationPolicy::All).unwrap();
        assert_eq!(keep.len(), 2);
        assert!(release.is_empty());
    }

    #[test]
    fn reintegration_first_match_releases_surplus() {
        let qm = qm(PoolManagerSelection::RoundRobin);
        let results = vec![Ok(fake_allocation(1)), Ok(fake_allocation(2))];
        let (keep, release) = qm
            .reintegrate(results, ReintegrationPolicy::FirstMatch)
            .unwrap();
        assert_eq!(keep.len(), 1);
        assert_eq!(release.len(), 1);
        assert_ne!(keep[0].machine, release[0].machine);
    }

    #[test]
    fn reintegration_with_no_success_returns_first_error() {
        let qm = qm(PoolManagerSelection::RoundRobin);
        let results = vec![
            Err(AllocationError::TtlExpired),
            Err(AllocationError::NoneAvailable),
        ];
        let err = qm
            .reintegrate(results, ReintegrationPolicy::All)
            .unwrap_err();
        assert_eq!(err, AllocationError::TtlExpired);
    }

    #[test]
    fn route_cache_learns_hits_and_invalidates() {
        let cache = RouteCache::new(true);
        assert_eq!(cache.next_hop("arch,==/sun"), None);
        assert_eq!(cache.misses(), 1);

        cache.learn("arch,==/sun", "cern");
        assert_eq!(cache.next_hop("arch,==/sun"), Some("cern".to_string()));
        assert_eq!(cache.hits(), 1);

        cache.invalidate_pool("arch,==/sun");
        assert_eq!(cache.next_hop("arch,==/sun"), None);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn route_cache_invalidation_by_next_hop_sweeps_every_route_through_it() {
        let cache = RouteCache::new(true);
        cache.learn("arch,==/sun", "cern");
        cache.learn("arch,==/hp", "cern");
        cache.learn("arch,==/sgi", "upc");
        cache.invalidate_next_hop("cern");
        assert_eq!(cache.next_hop("arch,==/sun"), None);
        assert_eq!(cache.next_hop("arch,==/hp"), None);
        assert_eq!(cache.next_hop("arch,==/sgi"), Some("upc".to_string()));
    }

    #[test]
    fn disabled_route_cache_neither_learns_nor_counts() {
        let cache = RouteCache::new(false);
        cache.learn("arch,==/sun", "cern");
        assert_eq!(cache.next_hop("arch,==/sun"), None);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 0);
    }
}
