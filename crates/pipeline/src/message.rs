//! Pipeline message plumbing: request identifiers, stage addresses, fragment
//! tags and the routing state that travels with every query.
//!
//! A key property the paper emphasises is that "all state information is
//! carried with the query itself", which is what lets every stage be
//! replicated and distributed freely.  [`RoutingState`] is that carried
//! state: the time-to-live counter and the list of pool managers already
//! visited (both analogous to the TTL field and fragment bookkeeping of IP).
//!
//! [`RequestId`] and [`StageAddress`] now live in [`actyp_proto`] (and are
//! re-exported here): they travel on the wire — a request id doubles as the
//! protocol's correlation id, and a stage address is what the `ypd` CLI and
//! [`crate::api::PipelineBuilder::remote`] parse from `host:port` strings.

pub use actyp_proto::types::{AddressParseError, RequestId, RequestIdGenerator, StageAddress};

/// Identifies one fragment of a decomposed composite query so that results
/// can be re-integrated at the end of the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FragmentTag {
    /// The request this fragment belongs to.
    pub request: RequestId,
    /// Index of this fragment within the decomposition.
    pub index: u32,
    /// Total number of fragments produced by the decomposition.
    pub total: u32,
}

impl FragmentTag {
    /// Tag for an undecomposed (basic) query.
    #[cfg(test)]
    pub fn whole(request: RequestId) -> Self {
        FragmentTag {
            request,
            index: 0,
            total: 1,
        }
    }
}

/// State carried along with a query as it moves through the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingState {
    /// Remaining pool-manager delegations before the request is failed.
    pub ttl: u32,
    /// Names of pool managers that have already seen the query; prevents a
    /// query from being delegated to the same manager twice.
    pub visited: Vec<String>,
}

impl RoutingState {
    /// Fresh routing state with the given time-to-live.
    pub fn new(ttl: u32) -> Self {
        RoutingState {
            ttl,
            visited: Vec::new(),
        }
    }

    /// Records a visit to a pool manager and decrements the TTL.  Returns
    /// `false` if the TTL was already exhausted (the request has failed).
    pub fn visit(&mut self, pool_manager: &str) -> bool {
        if self.ttl == 0 {
            return false;
        }
        self.ttl -= 1;
        if !self.visited.iter().any(|v| v == pool_manager) {
            self.visited.push(pool_manager.to_string());
        }
        true
    }

    /// Whether the named pool manager has already handled this query.
    pub fn has_visited(&self, pool_manager: &str) -> bool {
        self.visited.iter().any(|v| v == pool_manager)
    }

    /// Whether the request may still be delegated.
    pub fn alive(&self) -> bool {
        self.ttl > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_ids_are_unique_and_monotone() {
        let gen = RequestIdGenerator::new();
        let a = gen.next();
        let b = gen.next();
        let c = gen.next();
        assert!(a < b && b < c);
        assert_eq!(a.to_string(), "req-0");
    }

    #[test]
    fn id_generator_is_thread_safe() {
        let gen = std::sync::Arc::new(RequestIdGenerator::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let g = gen.clone();
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| g.next().0).collect::<Vec<u64>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000);
    }

    #[test]
    fn stage_address_display() {
        let a = StageAddress::new("actyp.ecn.purdue.edu", 7200);
        assert_eq!(a.to_string(), "actyp.ecn.purdue.edu:7200");
    }

    #[test]
    fn stage_address_parses_from_args_and_env_strings() {
        let a: StageAddress = "actyp.ecn.purdue.edu:7200".parse().unwrap();
        assert_eq!(a, StageAddress::new("actyp.ecn.purdue.edu", 7200));
        assert!("noport".parse::<StageAddress>().is_err());
    }

    #[test]
    fn whole_fragment_tag() {
        let t = FragmentTag::whole(RequestId(7));
        assert_eq!(t.index, 0);
        assert_eq!(t.total, 1);
    }

    #[test]
    fn routing_state_ttl_and_visited_list() {
        let mut r = RoutingState::new(2);
        assert!(r.alive());
        assert!(r.visit("pm-a"));
        assert!(r.has_visited("pm-a"));
        assert!(!r.has_visited("pm-b"));
        assert!(r.visit("pm-b"));
        assert!(!r.alive());
        assert!(!r.visit("pm-c"), "TTL exhausted");
        assert_eq!(r.visited, vec!["pm-a".to_string(), "pm-b".to_string()]);
    }

    #[test]
    fn revisiting_does_not_duplicate_names() {
        let mut r = RoutingState::new(10);
        r.visit("pm-a");
        r.visit("pm-a");
        assert_eq!(r.visited.len(), 1);
        assert_eq!(r.ttl, 8);
    }
}
