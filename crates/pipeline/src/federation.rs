//! Wide-area federation: delegation of queries *between* `ypd` daemons.
//!
//! The paper's servers cooperate across administrative domains: "when a
//! pool manager cannot satisfy a query, it delegates the query to a peer
//! in another domain", carrying a time-to-live and the list of domains
//! already visited with the query itself (Sections 5.2.2, 6).  Inside one
//! process that control flow already exists ([`RoutingState`] carried
//! from stage to stage by [`crate::live`]); this module takes the same
//! delegation over the wire, so a fleet of peered daemons forms the
//! paper's WAN topology:
//!
//! ```text
//!   clients ──► ypd (domain A) ──Delegate──► ypd (domain B)
//!                     │                            │
//!                     └───────Delegate─────────────┴──► ypd (domain C)
//! ```
//!
//! [`FederatedBackend`] wraps any [`ResourceManager`] backend.  When the
//! local backend cannot satisfy a query (no matching pool can be created,
//! or capacity is exhausted — see [`is_delegable`]), the query is
//! forwarded to peer daemons over pooled connections speaking the
//! protocol's [`ClientFrame::Delegate`] frame: the TTL is decremented at
//! every hop, no domain is ever revisited, and the originating query
//! settles with the remote allocation or the proper
//! [`AllocationError::TtlExpired`].  Peers learn each other's domain
//! names and pool names through a [`ClientFrame::SyncPools`] /
//! `PoolsSynced` exchange performed once per connection, and keep them
//! fresh by gossip.
//!
//! What a domain knows of its neighbourhood — gossip plane, peer
//! directory, learned routes — and the rules that keep it and order a
//! chain's candidates live in [`PeerView`], which holds no socket,
//! connection or clock: the daemon owns one, and the chaos simulator
//! gives one to each simulated domain, so both run the same rules.
//!
//! The chain logic itself is a step machine that does no I/O, [`Chain`]:
//! it names the next domain to delegate to, folds the answer, and says
//! when the chain is over.  A served daemon drives it one way only, with
//! completions — the paper's "all state information is carried with the
//! query itself", so nothing waits while a query is in another domain.
//! Every peer link is dialed by the serving reactor's first I/O thread (a
//! non-blocking connect, `Hello` and `SyncPools` as steps of a session of
//! kind *peer*), and its connection is born attached to that session.  A
//! federated allocation, a remote `Release`, an inbound `Delegate`, a
//! gossip round and a probe are completions
//! ([`ResourceManager::allocate_with`], [`ResourceManager::release_with`],
//! [`FederatedBackend::delegate_with`]): each frame to a peer is written by
//! whichever thread holds the previous answer — once its link is up,
//! dialing it first if need be — and its reply's completion runs on the
//! link's I/O thread.  The blocking trait methods wait on those same
//! completions.

use std::collections::HashMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use actyp_proto::{AdvertDelta, AdvertVersion, ClientFrame, ServerFrame};

use crate::allocation::{AllocateDone, Allocation, AllocationError, ReleaseDone};
use crate::api::{QueryOutcome, ResourceManager, StatsSnapshot, TicketBook};
use crate::corr::{Conn, ConnError, COMPLETION_TIMEOUT};
use crate::directory::{LocalDirectoryService, PoolInstanceRecord, SharedDirectory};
use crate::gossip::{GossipEvent, GossipPlane};
use crate::message::{RoutingState, StageAddress};
use crate::query_manager::RouteCache;

/// Reply deadline of one peer health probe.  The probe frame
/// ([`ClientFrame::Stats`]) is answered inline by the peer's I/O thread —
/// never queued behind backend work — so a reply slower than this means
/// the peer or the path to it is dead, not merely loaded.
const PEER_PROBE_TIMEOUT: Duration = Duration::from_secs(2);

/// How long after the *first* failed connect a link waits before dialing
/// the peer again, so a dead peer costs one connect timeout per backoff
/// window instead of one per query.  Consecutive failures double the
/// window (up to [`PEER_REDIAL_BACKOFF_MAX`]): the periodic gossip tick
/// also dials down links, and without the growth a long-dead peer would
/// cost one full connect timeout per tick interval forever.
const PEER_REDIAL_BACKOFF: Duration = Duration::from_secs(5);

/// Ceiling of the per-peer redial backoff.  A revived peer is still
/// noticed within a minute even if it was down for hours — and typically
/// much sooner, because the revived peer's own outbound links gossip its
/// pools back to us.
const PEER_REDIAL_BACKOFF_MAX: Duration = Duration::from_secs(60);

/// Per-peer redial discipline: how long ago the last connect failed and
/// how long the link must now wait before dialing again.  The wait starts
/// at [`PEER_REDIAL_BACKOFF`] and doubles per consecutive failure up to
/// [`PEER_REDIAL_BACKOFF_MAX`]; any successful connect resets it.
#[derive(Debug, Clone, Copy)]
struct RedialBackoff {
    failed_at: Option<std::time::Instant>,
    wait: Duration,
}

impl RedialBackoff {
    fn new() -> Self {
        RedialBackoff {
            failed_at: None,
            wait: PEER_REDIAL_BACKOFF,
        }
    }

    /// Whether a dial attempt is permitted at `now`.
    fn permits(&self, now: std::time::Instant) -> bool {
        match self.failed_at {
            Some(failed_at) => now.saturating_duration_since(failed_at) >= self.wait,
            None => true,
        }
    }

    /// Records a failed connect: the next attempt waits twice as long as
    /// this one did (capped).  The first failure keeps the base wait.
    fn note_failure(&mut self, now: std::time::Instant) {
        if self.failed_at.is_some() {
            self.wait = (self.wait * 2).min(PEER_REDIAL_BACKOFF_MAX);
        }
        self.failed_at = Some(now);
    }
}

/// Looks a peer's name up: a blocking `getaddrinfo`, so never run on the
/// reactor.
fn resolve_peer(addr: &StageAddress) -> Result<Vec<SocketAddr>, String> {
    let found: Vec<_> = (addr.host.as_str(), addr.port)
        .to_socket_addrs()
        .map_err(|e| format!("resolve {addr}: {e}"))?
        .collect();
    if found.is_empty() {
        return Err(format!("resolve {addr}: no address"));
    }
    Ok(found)
}

/// Whether a failure may be cured by another administrative domain: the
/// pool cannot be aggregated here (no matching machine exists in this
/// domain's white pages) or every matching resource is exhausted.  Parse,
/// schema, policy and protocol failures travel with the query — another
/// domain would fail them identically — so they are final.
pub fn is_delegable(error: &AllocationError) -> bool {
    matches!(
        error,
        AllocationError::NoSuchResources
            | AllocationError::NoneAvailable
            | AllocationError::ShadowAccountsExhausted
            | AllocationError::TtlExpired
    )
}

/// Why a delegation attempt yielded no outcome at all (as opposed to an
/// [`AllocationError`], which *is* an outcome).
#[derive(Debug)]
pub struct PeerUnavailable {
    /// `true` when the transport itself failed — the peer should be
    /// disconnected and pruned.  `false` when the peer answered but
    /// refused the delegation (e.g. it is not federated, or overloaded):
    /// the connection is healthy and must be kept, because it may hold
    /// session leases for allocations clients still use.
    pub transport: bool,
    /// Human-readable reason.
    pub reason: String,
}

/// Folds the routing state a peer returned into the local one,
/// defensively: a (buggy or malicious) peer can only ever *shrink* the
/// TTL — by at least the one hop it consumed — and *grow* the visited
/// list, so no reply can re-arm the chain into a routing loop.
fn merge_states(
    mut state: RoutingState,
    downstream: RoutingState,
    delegatee: &str,
) -> RoutingState {
    state.ttl = downstream.ttl.min(state.ttl.saturating_sub(1));
    for domain in downstream.visited {
        if !state.has_visited(&domain) {
            state.visited.push(domain);
        }
    }
    if !state.has_visited(delegatee) {
        state.visited.push(delegatee.to_string());
    }
    state
}

/// One node's step of a delegation chain, as a machine that does no I/O:
/// it says which domain to send the next `Delegate` to, folds the answer,
/// and says when the chain is over — never revisiting a domain, never
/// exceeding the TTL, and always terminating.  A served
/// [`FederatedBackend`] drives it with completions, each `Delegate`
/// written by the thread that holds the previous answer; the chaos
/// simulator drives it with virtual-time events.  The TTL, visited-list
/// and merge rules live here only.
#[derive(Debug)]
pub struct Chain {
    domain: String,
    state: RoutingState,
    /// The failure that stands if no peer does better.
    last_error: AllocationError,
    /// Peer domains, in preference order, computed once per chain: the
    /// peer topology does not change mid-chain, and re-asking could
    /// re-dial every dead peer on every step.
    available: Vec<String>,
    /// Domains that failed during *this* chain (transport failures and
    /// refusals): excluded so every step makes progress through a finite
    /// candidate set.
    failed: Vec<String>,
}

/// What a [`Chain`] asks for next.
#[derive(Debug)]
pub enum Step {
    /// Send a `Delegate` carrying [`Chain::state`] to this domain and feed
    /// the answer to [`Chain::on_reply`].
    Delegate(Chain, String),
    /// The chain is over: its outcome, and the routing state after every
    /// hop it made, which goes back to whoever delegated to this domain.
    Done(QueryOutcome, RoutingState),
}

impl Chain {
    /// Starts `domain`'s step of a chain from its own outcome: visits the
    /// domain (spending one TTL hop), and while the failure is
    /// [delegable](is_delegable) and TTL remains asks for a delegation to
    /// the first of the domains `peer_domains` names (called at most once)
    /// worth trying.
    pub fn start(
        domain: &str,
        mut state: RoutingState,
        local: QueryOutcome,
        peer_domains: impl FnOnce(&RoutingState) -> Vec<String>,
    ) -> Step {
        if !state.visit(domain) {
            return Step::Done(Err(AllocationError::TtlExpired), state);
        }
        let last_error = match local {
            Ok(allocations) => return Step::Done(Ok(allocations), state),
            Err(error) if !is_delegable(&error) => return Step::Done(Err(error), state),
            Err(error) => error,
        };
        if !state.alive() {
            // Exhausted by the local visit: don't pay for a candidate sweep
            // (which may dial peers) only to discard it.
            return Step::Done(Err(AllocationError::TtlExpired), state);
        }
        let available = peer_domains(&state);
        Chain {
            domain: domain.to_string(),
            state,
            last_error,
            available,
            failed: Vec::new(),
        }
        .next()
    }

    /// The routing state the next `Delegate` carries.
    pub fn state(&self) -> &RoutingState {
        &self.state
    }

    /// Folds `to`'s answer to the `Delegate` the last step asked for.  A
    /// peer that was unavailable is skipped for the rest of the chain;
    /// tearing it down on a transport failure is the caller's business.
    pub fn on_reply(
        mut self,
        to: &str,
        reply: Result<(QueryOutcome, RoutingState), PeerUnavailable>,
    ) -> Step {
        match reply {
            Err(_) => self.failed.push(to.to_string()),
            Ok((outcome, downstream)) => {
                self.state = merge_states(self.state, downstream, to);
                match outcome {
                    Ok(allocations) => return Step::Done(Ok(allocations), self.state),
                    Err(error) if !is_delegable(&error) => {
                        return Step::Done(Err(error), self.state)
                    }
                    Err(error) => self.last_error = error,
                }
            }
        }
        self.next()
    }

    fn next(self) -> Step {
        if !self.state.alive() {
            return Step::Done(Err(AllocationError::TtlExpired), self.state);
        }
        let next = self.available.iter().find(|d| {
            **d != self.domain && !self.state.has_visited(d) && !self.failed.contains(*d)
        });
        match next {
            Some(next) => {
                let next = next.clone();
                Step::Delegate(self, next)
            }
            // Every reachable domain has been tried: the local failure
            // stands (the paper fails the request when all managers have
            // seen it).
            None => Step::Done(Err(self.last_error), self.state),
        }
    }
}

// ---------------------------------------------------------------------------
// The routing view
// ---------------------------------------------------------------------------

/// One domain's view of its WAN neighbourhood, and the rules that keep it:
/// the anti-entropy gossip plane, the directory of peer domains and the
/// pools they advertise, and the learned one-hop routes.  It holds no
/// socket, connection or clock: the daemon feeds it what its peer links
/// carry, the chaos simulator what its virtual-time frames carry.
pub struct PeerView {
    gossip: GossipPlane,
    /// Every peer domain is registered as a pool manager, its advertised
    /// pools as instance records.
    directory: SharedDirectory,
    routes: RouteCache,
    /// The instance number of each peer domain's records, allocated from
    /// `u32::MAX` downwards, so two domains advertising the same pool
    /// never overwrite each other's records.
    instances: Mutex<HashMap<String, u32>>,
}

impl PeerView {
    /// A view around `gossip`, the plane of the domain it belongs to, with
    /// the learned route cache on or off.
    pub fn new(gossip: GossipPlane, route_cache: bool) -> Self {
        PeerView {
            gossip,
            directory: LocalDirectoryService::new().into_shared(),
            routes: RouteCache::new(route_cache),
            instances: Mutex::new(HashMap::new()),
        }
    }

    /// The anti-entropy gossip plane.
    pub fn gossip(&self) -> &GossipPlane {
        &self.gossip
    }

    /// The directory of peer domains and their advertised pools.
    pub fn directory(&self) -> &SharedDirectory {
        &self.directory
    }

    /// The learned one-hop delegation routes (pool → direct peer domain).
    pub fn route_cache(&self) -> &RouteCache {
        &self.routes
    }

    /// Records a peer's whole advertisement: its stale records go.
    pub fn record_advertisement(&self, domain: &str, pools: &[String]) {
        self.directory.unregister_pool_manager(domain);
        self.register(domain, pools);
    }

    fn register(&self, domain: &str, pools: &[String]) {
        let instance = self.instance(domain);
        self.directory.register_pool_manager(domain);
        for pool in pools {
            self.directory.register_pool(PoolInstanceRecord {
                pool: pool.clone(),
                instance,
                manager: domain.to_string(),
                address: StageAddress::new(domain.to_string(), 0),
            });
        }
    }

    fn instance(&self, domain: &str) -> u32 {
        let mut instances = self.instances.lock();
        let next = u32::MAX - instances.len() as u32;
        *instances.entry(domain.to_string()).or_insert(next)
    }

    /// Applies inbound advertisement deltas (piggybacked, pushed or acked)
    /// and folds the events into the directory and the routes: the delta
    /// that announces a pool's death retires its record and any route to
    /// it, and an origin's restart retires everything it advertised.
    pub fn apply_gossip_deltas(&self, deltas: &[AdvertDelta]) {
        for event in self.gossip.apply(deltas) {
            match event {
                GossipEvent::PoolUp { origin, pool } => self.register(&origin, &[pool]),
                GossipEvent::PoolDown { origin, pool } => {
                    self.routes.invalidate_pool(&pool);
                    self.directory
                        .unregister_pool(&pool, self.instance(&origin));
                }
                GossipEvent::OriginReset { origin } => {
                    self.routes.invalidate_next_hop(&origin);
                    self.directory.unregister_pool_manager(&origin);
                }
            }
        }
    }

    /// Answers an `AdvertDelta` push from `peer` — after the own log was
    /// refreshed: applies its deltas, records its version vector, and
    /// returns everything this domain holds beyond `have`, for the ack.
    pub fn handle_advert_delta(
        &self,
        peer: &str,
        deltas: &[AdvertDelta],
        have: &[AdvertVersion],
    ) -> Vec<AdvertDelta> {
        self.apply_gossip_deltas(deltas);
        self.gossip.note_peer_versions(peer, have);
        let reply = self.gossip.deltas_since(have);
        // Optimistic: the peer applies the reply on receipt.  If the ack
        // is lost with its link, the peer's next push carries a fresh
        // `have` that corrects this.
        self.gossip.note_acked(peer, self.gossip.version_vector());
        reply
    }

    /// Folds `peer`'s `AdvertAck` to a push that carried `vector`: the peer
    /// applied everything up to it before answering.
    pub fn handle_advert_ack(
        &self,
        peer: &str,
        vector: Vec<AdvertVersion>,
        deltas: &[AdvertDelta],
    ) {
        self.gossip.note_acked(peer, vector);
        self.apply_gossip_deltas(deltas);
    }

    /// The order a chain tries `peers` in, for a query that maps to the
    /// `wanted` pools: those advertising a wanted pool first, then the
    /// rest, each in the caller's order.  A learned next hop for a wanted
    /// pool then moves to the front — a pure reordering, so every
    /// TTL/visited invariant of the uncached walk holds as-is, and a stale
    /// hit costs at most one wasted first try.
    pub fn candidates(&self, wanted: &[String], peers: &[String]) -> Vec<String> {
        let advertisers: Vec<String> = (wanted.iter())
            .flat_map(|pool| self.directory.instances(pool))
            .map(|record| record.manager)
            .collect();
        let (mut order, rest): (Vec<String>, Vec<String>) =
            (peers.iter().cloned()).partition(|domain| advertisers.contains(domain));
        order.extend(rest);
        let learned = wanted.iter().find_map(|pool| self.routes.next_hop(pool));
        if let Some(at) = learned.and_then(|hop| order.iter().position(|d| *d == hop)) {
            let hop = order.remove(at);
            order.insert(0, hop);
        }
        order
    }

    /// Learns the route of a delegation `via` granted: the next query for
    /// the same pools goes straight to that hop.
    pub fn learn_routes(&self, via: &str, allocations: &[Allocation]) {
        for allocation in allocations {
            self.routes.learn(&allocation.pool, via);
        }
    }

    /// Prunes a peer that proved unreachable: its records stop being
    /// routable, routes through it go, and what it acked is moot — after a
    /// redial the handshake resyncs from scratch.
    pub fn prune(&self, domain: &str) {
        self.directory.unregister_pool_manager(domain);
        self.routes.invalidate_next_hop(domain);
        self.gossip.retire_peer(domain);
    }

    /// Retires everything held under a peer's *old* domain name after it
    /// re-advertised as somebody else: its records, gossip origin log,
    /// acked state, and every learned route through or to it.
    pub fn retire_domain(&self, old: &str) {
        for pool in self.gossip.live_pools(old) {
            self.routes.invalidate_pool(&pool);
        }
        self.prune(old);
        self.gossip.forget_origin(old);
    }
}

// ---------------------------------------------------------------------------
// Peer links
// ---------------------------------------------------------------------------

/// One live connection to a peer daemon, after the hello and pool-sync
/// handshakes: the shared [`Conn`] — born attached to a reactor session of
/// kind *peer*, so any number of delegations and releases multiplex on it,
/// and every allocation the peer granted this daemon stays leased to it —
/// plus the domain name the peer answered the pool sync with.
#[derive(Clone)]
struct PeerConn {
    conn: Arc<Conn>,
    domain: Arc<str>,
}

/// Who waits for a link to come up: runs with the connection, or with why
/// there is none.
type LinkWaiter = Box<dyn FnOnce(Result<PeerConn, ConnError>) + Send>;

/// Where a peer link is.
enum LinkState {
    /// No connection; dialed on demand once the backoff permits.
    Down(RedialBackoff),
    /// The reactor is dialing it; these run when the dial ends.
    Dialing(RedialBackoff, Vec<LinkWaiter>),
    /// Handshaken — and perhaps dead since ([`Conn::is_dead`]).
    Up(PeerConn),
}

/// A connection to one peer daemon: dialed on demand, shared by every
/// delegation, redialed after failures.
struct PeerLink {
    addr: StageAddress,
    /// Stable index of this link in the backend's list.
    index: u32,
    /// The peer's socket addresses as last looked up, or why the lookup
    /// failed.  Looked up when a daemon starts serving the backend
    /// ([`FederatedBackend::attach`]), and again on a `ypd-resolve` thread
    /// after a dial fails unresolved or in full backoff: a lookup is a
    /// blocking `getaddrinfo`, which no completion may run.
    resolved: Mutex<Result<Vec<SocketAddr>, String>>,
    /// A lookup is on its way: the next one is skipped.
    resolving: AtomicBool,
    /// The link's state: a leaf lock, never held across I/O.  A caller
    /// that finds it `Dialing` queues behind the dial, so no second one
    /// starts.
    link: Mutex<LinkState>,
    /// Last domain name this link handshook as (kept after the connection
    /// dies): its identity for candidates and routing.
    last_domain: Mutex<Option<String>>,
    /// A gossip round, and a probe, in flight on this link: the next one
    /// is skipped, not stacked.
    gossiping: AtomicBool,
    probing: AtomicBool,
}

impl PeerLink {
    fn new(addr: StageAddress, index: u32) -> Self {
        PeerLink {
            addr,
            index,
            resolved: Mutex::new(Ok(Vec::new())),
            resolving: AtomicBool::new(false),
            link: Mutex::new(LinkState::Down(RedialBackoff::new())),
            last_domain: Mutex::new(None),
            gossiping: AtomicBool::new(false),
            probing: AtomicBool::new(false),
        }
    }

    /// The connection, if the link is up and alive.
    fn live(&self) -> Option<PeerConn> {
        match &*self.link.lock() {
            LinkState::Up(peer) if !peer.conn.is_dead() => Some(peer.clone()),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// The federated backend
// ---------------------------------------------------------------------------

/// Configuration of one federated daemon.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// This daemon's administrative-domain name (must be unique across the
    /// federation; it is what the visited lists carry).
    pub domain: String,
    /// Delegation time-to-live granted to queries originating here.
    pub ttl: u32,
    /// Addresses of the peer daemons queries may be delegated to.
    pub peers: Vec<StageAddress>,
    /// Period of the anti-entropy gossip tick that pushes advertisement
    /// deltas over idle peer links.  [`Duration::ZERO`] disables the
    /// tick — deltas then travel only by piggybacking on request traffic.
    pub gossip_interval: Duration,
    /// Whether the learned one-hop routing cache is consulted (disabling
    /// it is the baseline of the routing benchmark).
    pub route_cache: bool,
    /// Period of the peer-link health probe (driven off the reactor's
    /// timer wheel): each round sends a cheap inline-answered frame over
    /// every *established* link, so a dead peer is noticed and pruned
    /// from the directory before the next delegation fails against it.
    /// Probes never dial down links — healing is the gossip tick's job.
    /// [`Duration::ZERO`] disables probing.
    pub probe_interval: Duration,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            domain: String::new(),
            ttl: 8,
            peers: Vec::new(),
            gossip_interval: Duration::from_secs(1),
            route_cache: true,
            probe_interval: Duration::from_secs(5),
        }
    }
}

/// Where a chain driven by completions delivers its end: the outcome, and
/// the routing state after every hop (what a `Delegated` reply carries).
pub type DelegateDone = Box<dyn FnOnce(QueryOutcome, RoutingState) + Send>;

/// Where a dial delivers its connection, once the peer's `HelloAck` is in
/// — or why none came.
pub(crate) type DialDone = Box<dyn FnOnce(Result<Arc<Conn>, ConnError>) + Send>;

/// What a daemon serving a [`FederatedBackend`] lends it
/// ([`FederatedBackend::attach`]): the reactor thread that dials, carries
/// and reads every peer link.
pub(crate) trait PeerHost: Send + Sync {
    /// Dials the first of `addrs` that accepts as a reactor session of
    /// kind *peer* — a non-blocking connect and the `Hello`/`HelloAck`
    /// exchange, bounded together by the connect timeout — and runs
    /// `done`, on that session's I/O thread, with a connection born
    /// attached to it.
    fn dial_peer(&self, addrs: Vec<SocketAddr>, done: DialDone);
}

/// A served backend's handle on its daemon, and on itself.
struct Attachment {
    host: Arc<dyn PeerHost>,
    /// The `Arc` the daemon serves this backend from, for completions that
    /// outlive the call making them (weak: it lives inside the backend).
    backend: Weak<FederatedBackend>,
}

/// Any [`ResourceManager`] backend extended with wide-area delegation.
///
/// Wraps the domain's local backend; queries are always allocated locally
/// first, and a query whose local outcome is a [delegable](is_delegable)
/// failure is settled by forwarding it to peer daemons with a TTL
/// and visited-domain list — the paper's inter-domain cooperation, over
/// the wire.  Allocations obtained from a peer are tracked so
/// [`ResourceManager::release`] routes them back to the domain that made
/// them (hop by hop, for multi-hop chains).
///
/// Hosted behind [`crate::server::serve_federated`] — the only way it
/// reaches a peer — the wrapper also answers *incoming*
/// [`ClientFrame::Delegate`] requests from peers
/// ([`FederatedBackend::delegate_with`]), continuing chains that started
/// elsewhere, and no thread parks while a query is in another domain.
pub struct FederatedBackend {
    inner: Arc<dyn ResourceManager>,
    config: FederationConfig,
    tickets: TicketBook,
    links: Vec<PeerLink>,
    /// What this domain knows of its neighbourhood.
    view: PeerView,
    /// The intra-domain directory of the wrapped backend, when it has one
    /// (pipeline backends); the source of this daemon's own pool
    /// advertisements.
    local_directory: Option<SharedDirectory>,
    /// Allocations obtained from peers, keyed by access key, mapped to
    /// the peer domain they must be released through.
    remote_leases: Mutex<HashMap<String, String>>,
    /// The local-directory generation the gossip log last absorbed, so
    /// `refresh_gossip` is a counter compare in the common (unchanged)
    /// case.  Starts at a sentinel no real generation takes, forcing the
    /// first refresh.
    gossip_generation: AtomicU64,
    /// Reconnects of previously established peer links — the count the
    /// gossip smoke test asserts stays zero while deltas keep healthy
    /// links fresh.
    peer_redials: AtomicU64,
    delegations_out: AtomicU64,
    delegations_in: AtomicU64,
    /// Routing state after the most recent delegation chain (tests and
    /// diagnostics).
    last_chain: Mutex<Option<RoutingState>>,
    closed: AtomicBool,
    /// The serving daemon's reactor, while one serves this backend.
    host: Mutex<Option<Attachment>>,
}

impl FederatedBackend {
    /// Wraps `inner` for the given federation topology.  `local_directory`
    /// (the wrapped backend's intra-domain directory, when it has one)
    /// feeds this daemon's pool advertisements to peers.
    pub fn new(
        inner: Box<dyn ResourceManager>,
        config: FederationConfig,
        local_directory: Option<SharedDirectory>,
    ) -> Self {
        let links = config
            .peers
            .iter()
            .enumerate()
            .map(|(i, addr)| PeerLink::new(addr.clone(), i as u32))
            .collect();
        let view = PeerView::new(GossipPlane::new(&config.domain), config.route_cache);
        FederatedBackend {
            inner: Arc::from(inner),
            config,
            tickets: TicketBook::new(),
            links,
            view,
            local_directory,
            remote_leases: Mutex::new(HashMap::new()),
            gossip_generation: AtomicU64::new(u64::MAX),
            peer_redials: AtomicU64::new(0),
            delegations_out: AtomicU64::new(0),
            delegations_in: AtomicU64::new(0),
            last_chain: Mutex::new(None),
            closed: AtomicBool::new(false),
            host: Mutex::new(None),
        }
    }

    /// Lends the backend a serving daemon's reactor (the server does, at
    /// start), which dials and carries every peer link from now on.  The
    /// peers' names are looked up here, on the thread starting the daemon.
    pub(crate) fn attach(self: &Arc<Self>, host: Arc<dyn PeerHost>) {
        for link in &self.links {
            *link.resolved.lock() = resolve_peer(&link.addr);
        }
        *self.host.lock() = Some(Attachment {
            host,
            backend: Arc::downgrade(self),
        });
    }

    /// Takes the reactor back (the server is stopping): no peer is reached
    /// from now on.
    pub(crate) fn detach(&self) {
        self.host.lock().take();
    }

    /// The backend as the daemon serves it, and the daemon's reactor —
    /// `None` when no daemon serves it.
    fn served(&self) -> Option<(Arc<FederatedBackend>, Arc<dyn PeerHost>)> {
        let host = self.host.lock();
        let attachment = host.as_ref()?;
        Some((attachment.backend.upgrade()?, attachment.host.clone()))
    }

    /// [`FederatedBackend::served`], unless the backend is shut down.
    fn serving(&self) -> Option<(Arc<FederatedBackend>, Arc<dyn PeerHost>)> {
        self.served()
            .filter(|_| !self.closed.load(Ordering::SeqCst))
    }

    /// Hands `then` a live connection to the peer behind `link`: at once
    /// when the link is up; when the dial ends if it is down — dialed by
    /// the reactor, never here — or already being dialed; and with why not
    /// when it is in redial backoff.  Never blocks.
    fn with_link(self: &Arc<Self>, host: &Arc<dyn PeerHost>, link: &PeerLink, then: LinkWaiter) {
        let mut state = link.link.lock();
        let backoff = match &mut *state {
            LinkState::Up(peer) if !peer.conn.is_dead() => {
                let peer = peer.clone();
                drop(state);
                return then(Ok(peer));
            }
            LinkState::Dialing(_, waiters) => return waiters.push(then),
            // A recently failed connect is not repeated, so a dead peer
            // costs one connect timeout per (growing) backoff window.
            LinkState::Down(backoff) if !backoff.permits(Instant::now()) => {
                drop(state);
                return then(Err(ConnError::Dead(format!(
                    "peer {} is in redial backoff after a failed connect",
                    link.addr
                ))));
            }
            LinkState::Down(backoff) => *backoff,
            // Up, but dead since: no failed connect to back off from.
            LinkState::Up(_) => RedialBackoff::new(),
        };
        *state = LinkState::Dialing(backoff, vec![then]);
        drop(state);
        let index = link.index as usize;
        let resolved = link.resolved.lock().clone();
        let addrs = match resolved {
            Ok(addrs) => addrs,
            Err(unresolved) => return self.link_down(index, ConnError::Dead(unresolved)),
        };
        let backend = self.clone();
        let (pools, have) = self.sync_payload();
        host.dial_peer(
            addrs,
            Box::new(move |dialed| backend.sync_pools(index, dialed, pools, have)),
        );
    }

    /// Looks the peer behind link `index` up again on a short-lived
    /// `ypd-resolve` thread, unless a lookup is already on its way; the
    /// next dial uses what it finds.  A failed lookup keeps the addresses
    /// an earlier one found.
    fn refresh_address(&self, index: usize) {
        let Some((backend, _)) = self.served() else {
            return;
        };
        if self.links[index].resolving.swap(true, Ordering::SeqCst) {
            return;
        }
        let thread = std::thread::Builder::new().name("ypd-resolve".to_string());
        let spawned = thread.spawn(move || {
            let link = &backend.links[index];
            let found = resolve_peer(&link.addr);
            let mut resolved = link.resolved.lock();
            if found.is_ok() || resolved.is_err() {
                *resolved = found;
            }
            drop(resolved);
            link.resolving.store(false, Ordering::SeqCst);
        });
        if spawned.is_err() {
            self.links[index].resolving.store(false, Ordering::SeqCst);
        }
    }

    /// The peers whose names did not resolve at their last lookup, and
    /// why.  No dial reaches one until a lookup succeeds; each failed dial
    /// looks it up again.
    pub fn unresolved_peers(&self) -> Vec<(StageAddress, String)> {
        let unresolved = |link: &PeerLink| link.resolved.lock().clone().err();
        self.links
            .iter()
            .filter_map(|link| Some((link.addr.clone(), unresolved(link)?)))
            .collect()
    }

    /// A dial's last step, on the thread that ended it: the pool sync asks
    /// the fresh connection for the peer's advertisement, and its answer
    /// brings the link up.  The `have` vector tells the peer what this
    /// daemon holds, so `PoolsSynced` piggybacks exactly the missing deltas.
    fn sync_pools(
        self: Arc<Self>,
        index: usize,
        dialed: Result<Arc<Conn>, ConnError>,
        pools: Vec<String>,
        have: Vec<AdvertVersion>,
    ) {
        let conn = match dialed {
            Ok(conn) => conn,
            Err(e) => return self.link_down(index, e),
        };
        let (domain, synced) = (self.config.domain.clone(), conn.clone());
        conn.request_with(
            COMPLETION_TIMEOUT,
            move |corr| ClientFrame::SyncPools {
                corr,
                domain,
                pools,
                have,
            },
            move |reply| {
                let refused = match reply {
                    Ok(ServerFrame::PoolsSynced {
                        domain,
                        pools,
                        deltas,
                        ..
                    }) => {
                        let peer = PeerConn {
                            conn: synced,
                            domain: domain.into(),
                        };
                        return self.link_up(index, peer, &pools, &deltas);
                    }
                    Ok(ServerFrame::Error { error, .. }) => format!("pool sync refused: {error}"),
                    Ok(other) => format!("expected PoolsSynced, got {other:?}"),
                    Err(e) => e.to_string(),
                };
                synced.shutdown();
                self.link_down(index, ConnError::Dead(refused));
            },
        );
    }

    /// A dial's pool sync answered: the peer's advertisement replaces its
    /// stale records — under its old domain name too, if it came back as
    /// somebody else — and whoever waited for the link gets it.
    fn link_up(&self, index: usize, peer: PeerConn, pools: &[String], deltas: &[AdvertDelta]) {
        let link = &self.links[index];
        let previous = link.last_domain.lock().replace(peer.domain.to_string());
        if let Some(previous) = previous {
            // A redial: the healthy-link regime the gossip plane exists
            // to preserve never pays this.
            self.peer_redials.fetch_add(1, Ordering::Relaxed);
            if *previous != *peer.domain {
                self.view.retire_domain(&previous);
            }
        }
        self.view.record_advertisement(&peer.domain, pools);
        self.view.apply_gossip_deltas(deltas);
        let waiting = std::mem::replace(&mut *link.link.lock(), LinkState::Up(peer.clone()));
        if let LinkState::Dialing(_, waiters) = waiting {
            for waiter in waiters {
                waiter(Ok(peer.clone()));
            }
        }
    }

    /// A dial failed: the link backs off, and whoever waited for it learns
    /// why.  A peer whose name did not resolve, or that stayed unreachable
    /// for the whole backoff ladder, is looked up again — it may have come
    /// back under a new address.
    fn link_down(&self, index: usize, failed: ConnError) {
        let link = &self.links[index];
        let (waiters, exhausted) = {
            let mut state = link.link.lock();
            let down = LinkState::Down(RedialBackoff::new());
            let (mut backoff, waiters) = match std::mem::replace(&mut *state, down) {
                LinkState::Dialing(backoff, waiters) => (backoff, waiters),
                _ => (RedialBackoff::new(), Vec::new()),
            };
            backoff.note_failure(Instant::now());
            *state = LinkState::Down(backoff);
            (waiters, backoff.wait == PEER_REDIAL_BACKOFF_MAX)
        };
        if exhausted || link.resolved.lock().is_err() {
            self.refresh_address(index);
        }
        let reason = failed.to_string();
        for waiter in waiters {
            waiter(Err(ConnError::Dead(reason.clone())));
        }
    }

    /// This daemon's domain name.
    pub fn domain(&self) -> &str {
        &self.config.domain
    }

    /// What this domain knows of its neighbourhood.
    pub fn view(&self) -> &PeerView {
        &self.view
    }

    /// Routing state after the most recent delegation chain this daemon
    /// originated or continued (`None` before the first delegation).
    pub fn last_chain(&self) -> Option<RoutingState> {
        self.last_chain.lock().clone()
    }

    /// Pool names this daemon advertises to peers.
    pub fn local_pools(&self) -> Vec<String> {
        match &self.local_directory {
            Some(dir) => dir.pool_names(),
            None => Vec::new(),
        }
    }

    /// Reconnects of previously established peer links.
    pub fn peer_redials(&self) -> u64 {
        self.peer_redials.load(Ordering::Relaxed)
    }

    /// The configured anti-entropy period ([`Duration::ZERO`] = no tick).
    pub fn gossip_interval(&self) -> Duration {
        self.config.gossip_interval
    }

    /// Brings the own-origin advertisement log up to date with the local
    /// directory.  A generation compare makes the unchanged case (every
    /// call between directory mutations) two atomic loads.
    pub fn refresh_gossip(&self) {
        let generation = match &self.local_directory {
            Some(dir) => dir.generation(),
            None => 0,
        };
        if self.gossip_generation.swap(generation, Ordering::Relaxed) != generation {
            self.view.gossip().refresh_local(&self.local_pools());
        }
    }

    /// The payload every outbound handshake carries: this daemon's pool
    /// advertisements and its gossip version vector.
    fn sync_payload(&self) -> (Vec<String>, Vec<AdvertVersion>) {
        self.refresh_gossip();
        (self.local_pools(), self.view.gossip().version_vector())
    }

    /// Deltas to piggyback on a reply to `peer` (its acked vector decides
    /// what is new to it).  Piggybacking never advances the acked state —
    /// the carrier reply may be lost — so a delta can ship twice;
    /// application is idempotent.
    pub fn piggyback_deltas(&self, peer: &str) -> Vec<AdvertDelta> {
        self.refresh_gossip();
        self.view.gossip().deltas_for_peer(peer)
    }

    /// One round of the anti-entropy tick, as completions: an exchange
    /// with every peer link whose previous round is over.  A link that is
    /// down is dialed first (subject to its redial backoff), so the tick
    /// also heals the topology.
    pub fn gossip_tick(&self) {
        let Some((backend, host)) = self.serving() else {
            return;
        };
        for (index, link) in self.links.iter().enumerate() {
            if link.gossiping.swap(true, Ordering::SeqCst) {
                continue;
            }
            let exchange = backend.clone();
            backend.with_link(
                &host,
                link,
                Box::new(move |linked| match linked {
                    Ok(peer) => exchange.gossip_with(index, peer),
                    // A peer the tick cannot reach is pruned, as one a
                    // delegation cannot reach is.
                    Err(_) => {
                        let link = &exchange.links[index];
                        if let Some(domain) = link.last_domain.lock().clone() {
                            exchange.view.prune(&domain);
                        }
                        link.gossiping.store(false, Ordering::SeqCst);
                    }
                }),
            );
        }
    }

    /// One anti-entropy exchange over a live link: push our deltas and
    /// version vector; the ack's completion applies what it carries back.
    fn gossip_with(self: Arc<Self>, index: usize, peer: PeerConn) {
        self.refresh_gossip();
        let vector = self.view.gossip().version_vector();
        let deltas = self.view.gossip().deltas_for_peer(&peer.domain);
        let (domain, have) = (self.config.domain.clone(), vector.clone());
        let conn = peer.conn.clone();
        conn.request_with(
            COMPLETION_TIMEOUT,
            move |corr| ClientFrame::AdvertDelta {
                corr,
                domain,
                deltas,
                have,
            },
            move |reply| {
                match reply {
                    Ok(ServerFrame::AdvertAck { deltas, .. }) => {
                        self.view.handle_advert_ack(&peer.domain, vector, &deltas)
                    }
                    // A stream that answers out of protocol is dropped.
                    Ok(_) => peer.conn.shutdown(),
                    // The link died, and whoever killed it retired it.
                    Err(_) => {}
                }
                self.links[index].gossiping.store(false, Ordering::SeqCst);
            },
        );
    }

    /// The configured peer health-probe period ([`Duration::ZERO`] = no
    /// probing).
    pub fn probe_interval(&self) -> Duration {
        self.config.probe_interval
    }

    /// One health-probe round, as completions: every live peer link whose
    /// previous probe is over gets a cheap inline-answered request on a
    /// short deadline; a link that fails it is torn down and its peer
    /// pruned from the directory, so the next delegation never wastes a
    /// hop on a dead candidate.  Links without a connection are left alone
    /// — probes detect death, the gossip tick (with its redial backoff)
    /// heals.
    pub fn probe_peers(&self) {
        let Some((backend, _)) = self.serving() else {
            return;
        };
        for (index, link) in self.links.iter().enumerate() {
            // A link that died since is probed too: the probe fails at
            // once and prunes its peer.
            let peer = match &*link.link.lock() {
                LinkState::Up(peer) => peer.clone(),
                _ => continue,
            };
            if link.probing.swap(true, Ordering::SeqCst) {
                continue;
            }
            let (backend, conn) = (backend.clone(), peer.conn.clone());
            conn.request_with(
                PEER_PROBE_TIMEOUT,
                |corr| ClientFrame::Stats { corr },
                move |reply| {
                    if !matches!(reply, Ok(ServerFrame::StatsReply { .. })) {
                        peer.conn.shutdown();
                        backend.view.prune(&peer.domain);
                    }
                    backend.links[index].probing.store(false, Ordering::SeqCst);
                },
            );
        }
    }

    /// The refusal of a `Delegate` whose query already visited this domain:
    /// a conforming peer never revisits, so refuse instead of looping.
    fn revisited(&self) -> AllocationError {
        AllocationError::Protocol(format!(
            "domain `{}` already visited by this query",
            self.config.domain
        ))
    }

    /// Serves an incoming `Delegate` request from a peer daemon as
    /// completions: spends a hop visiting this domain, tries the local
    /// backend, forwards further when possible.  The local query is
    /// launched from here or from the thread that frees its window permit,
    /// the local outcome continues the chain on the stage that produces it,
    /// and each onward `Delegate` is written by the thread that holds the
    /// previous answer; `done` gets the outcome and the routing state after
    /// the whole chain, for the `Delegated` reply.  A query that already
    /// visited this domain is refused right here.  With no daemon serving
    /// the backend no peer can be reached, and the local outcome stands.
    pub fn delegate_with(&self, query: &str, ttl: u32, visited: &[String], done: DelegateDone) {
        self.delegations_in.fetch_add(1, Ordering::Relaxed);
        // The incoming TTL is honoured as-is: it was bounded by the
        // *originator's* policy, and clamping it to this daemon's own
        // (possibly lower) TTL would collapse the originator's remaining
        // budget when the clamped value flows back through the reply.
        // The work a hostile peer can demand stays bounded regardless:
        // every chain visits each domain at most once.
        let state = RoutingState {
            ttl,
            visited: visited.to_vec(),
        };
        if state.has_visited(&self.config.domain) {
            return done(Err(self.revisited()), state);
        }
        let parsed = match state.alive().then(|| actyp_query::parse_query(query)) {
            Some(Ok(parsed)) => Ok(parsed),
            // A query no domain parses, or no hop left to visit this
            // domain (no local work either): the chain ends at once.
            Some(Err(e)) => Err(AllocationError::Parse(e.to_string())),
            None => Err(AllocationError::TtlExpired),
        };
        let (served, query) = (self.served(), query.to_string());
        let chain: AllocateDone = Box::new(move |local| match served {
            Some((backend, host)) => backend.federate(&host, query, state, local, done),
            None => done(local, state),
        });
        let parsed = match parsed {
            Ok(parsed) => parsed,
            Err(error) => return chain(Err(error)),
        };
        self.inner.allocate_with(parsed, chain);
    }

    /// Continues a chain from this domain's own outcome, as completions
    /// ([`FederatedBackend::drive`]).  A chain that will ask for candidates
    /// first names every link that never handshook — by dialing it, as
    /// completions too — and starts once the last of those dials has
    /// ended, whichever way.
    fn federate(
        self: &Arc<Self>,
        host: &Arc<dyn PeerHost>,
        query: String,
        state: RoutingState,
        local: QueryOutcome,
        done: DelegateDone,
    ) {
        // `Chain::start` asks for candidates only for a delegable failure
        // with a hop left once this domain's is spent.
        let asks = state.ttl > 1 && matches!(&local, Err(error) if is_delegable(error));
        let unnamed: Vec<&PeerLink> = (self.links.iter())
            .filter(|link| asks && link.last_domain.lock().is_none())
            .collect();
        if unnamed.is_empty() {
            return self.start_chain(host, query, state, local, done);
        }
        let left = Arc::new(AtomicUsize::new(unnamed.len()));
        let parked = Arc::new(Mutex::new(Some((query, state, local, done))));
        for link in unnamed {
            let (backend, resume_host, left, parked) =
                (self.clone(), host.clone(), left.clone(), parked.clone());
            self.with_link(
                host,
                link,
                Box::new(move |_| {
                    if left.fetch_sub(1, Ordering::SeqCst) == 1 {
                        let parked = parked.lock().take();
                        let (query, state, local, done) = parked.expect("resumed once");
                        backend.start_chain(&resume_host, query, state, local, done);
                    }
                }),
            );
        }
    }

    /// Starts this domain's step of a chain over the named links and
    /// drives it.
    fn start_chain(
        self: &Arc<Self>,
        host: &Arc<dyn PeerHost>,
        query: String,
        state: RoutingState,
        local: QueryOutcome,
        done: DelegateDone,
    ) {
        let step = Chain::start(&self.config.domain, state, local, |_| {
            // From the links' cached identities alone, so it never dials
            // (and a link that never handshook is left out).
            let peers: Vec<String> = (self.links.iter())
                .filter_map(|link| link.last_domain.lock().clone())
                .collect();
            self.view.candidates(&self.wanted_pools(&query), &peers)
        });
        self.drive(host, query, step, done);
    }

    /// Drives a chain from `step` as far as completions take it: each
    /// `Delegate` is written by the thread holding the previous answer
    /// once its link is up — dialed first if need be — and its reply's
    /// completion, on the link's I/O thread, drives the next step.
    fn drive(
        self: &Arc<Self>,
        host: &Arc<dyn PeerHost>,
        query: String,
        step: Step,
        done: DelegateDone,
    ) {
        let (chain, to) = match step {
            Step::Done(outcome, state) => return self.end_chain(outcome, state, done),
            Step::Delegate(chain, to) => (chain, to),
        };
        let Some(link) = self.link_for(&to) else {
            let gone = ConnError::Dead(format!("no link to domain `{to}`"));
            let reply = self.fold_delegated(&to, Err(gone));
            return self.hop(host, query, chain, &to, reply, done);
        };
        let (backend, link_host) = (self.clone(), host.clone());
        let linked = move |linked: Result<PeerConn, ConnError>| {
            let peer = match linked {
                Ok(peer) => peer,
                Err(e) => {
                    let reply = backend.fold_delegated(&to, Err(e));
                    return backend.hop(&link_host, query, chain, &to, reply, done);
                }
            };
            let (sent, ttl, visited) = (
                query.clone(),
                chain.state().ttl,
                chain.state().visited.clone(),
            );
            let conn = peer.conn.clone();
            conn.request_with(
                COMPLETION_TIMEOUT,
                move |corr| ClientFrame::Delegate {
                    corr,
                    query: sent,
                    ttl,
                    visited,
                },
                move |reply| {
                    let reply = backend.fold_delegated(&to, reply);
                    if matches!(&reply, Err(unavailable) if unavailable.transport) {
                        peer.conn.shutdown();
                    }
                    backend.hop(&link_host, query, chain, &to, reply, done);
                },
            );
        };
        self.with_link(host, link, Box::new(linked));
    }

    /// Folds `to`'s answer into the chain — pruning a peer that proved
    /// unreachable; a mere refusal came over a healthy link that may hold
    /// leases — and drives the next step.
    fn hop(
        self: &Arc<Self>,
        host: &Arc<dyn PeerHost>,
        query: String,
        chain: Chain,
        to: &str,
        reply: Result<(QueryOutcome, RoutingState), PeerUnavailable>,
        done: DelegateDone,
    ) {
        if matches!(&reply, Err(unavailable) if unavailable.transport) {
            self.view.prune(to);
        }
        self.drive(host, query, chain.on_reply(to, reply), done);
    }

    /// Ends a chain: records its routing state and hands the outcome over.
    fn end_chain(&self, outcome: QueryOutcome, state: RoutingState, done: DelegateDone) {
        *self.last_chain.lock() = Some(state.clone());
        done(outcome, state);
    }

    fn link_for(&self, domain: &str) -> Option<&PeerLink> {
        self.links
            .iter()
            .find(|link| link.last_domain.lock().as_deref() == Some(domain))
    }

    /// The pool names the query would map to (preference signal for
    /// candidate ordering; empty if the text does not parse).
    fn wanted_pools(&self, query: &str) -> Vec<String> {
        let Ok(parsed) = actyp_query::parse_query(query) else {
            return Vec::new();
        };
        let basics = parsed.decompose(16);
        let names = basics.iter().map(actyp_query::PoolName::from_query);
        names.map(|name| name.full()).collect()
    }

    /// [`ResourceManager::allocate_with`] for a caller that may leave
    /// meanwhile — a `ypd` session, which also hands over the query's wire
    /// `text`: a delegable local failure is delegated only if `wanted()`
    /// still holds once it is in.  A client gone by then gets its local
    /// outcome, and nothing is delegated (and released hop by hop) for
    /// nobody; a chain already under way runs to its end.  Whichever thread
    /// has the local outcome — this one when the wrapped backend resolves
    /// the query on the spot, the stage that produces it otherwise — runs
    /// `done` with a final outcome or, on a served backend with peers,
    /// continues a delegable failure as a chain of completions
    /// ([`FederatedBackend::delegate_with`] has the same shape).
    pub(crate) fn allocate_while(
        &self,
        query: actyp_query::Query,
        text: String,
        wanted: impl Fn() -> bool + Send + 'static,
        done: AllocateDone,
    ) {
        let served = (!self.links.is_empty()).then(|| self.served()).flatten();
        let local: AllocateDone = Box::new(move |outcome| match (outcome, served) {
            (Err(error), Some((backend, host))) if is_delegable(&error) && wanted() => {
                let state = RoutingState::new(backend.config.ttl);
                let finish: DelegateDone = Box::new(move |outcome, _| done(outcome));
                backend.federate(&host, text, state, Err(error), finish);
            }
            (final_outcome, _) => done(final_outcome),
        });
        self.inner.allocate_with(query, local);
    }

    /// Folds a peer's answer to a `Delegate` sent to `domain` into this
    /// daemon's state — the lease map, the learned route, piggybacked
    /// gossip — and reads it as the chain step's reply.  Tearing the link
    /// down on a transport failure is the caller's business.
    fn fold_delegated(
        &self,
        domain: &str,
        reply: Result<ServerFrame, ConnError>,
    ) -> Result<(QueryOutcome, RoutingState), PeerUnavailable> {
        // A frame refused before it left (over a wire limit) skips this
        // peer for the chain like any refusal; the link is untouched.
        let reply = reply.map_err(|e| PeerUnavailable {
            transport: !matches!(e, ConnError::Refused(_)),
            reason: e.to_string(),
        })?;
        match reply {
            ServerFrame::Delegated {
                outcome,
                ttl,
                visited,
                deltas,
                ..
            } => {
                // Counted only for delegations a peer actually served, so
                // the stat measures real WAN traffic, not dial attempts.
                self.delegations_out.fetch_add(1, Ordering::Relaxed);
                // Advertisement news piggybacked on the reply.
                self.view.apply_gossip_deltas(&deltas);
                if let Ok(allocations) = &outcome {
                    // Remember which domain every remote allocation must be
                    // released through.
                    let mut leases = self.remote_leases.lock();
                    for allocation in allocations {
                        leases.insert(allocation.access_key.0.clone(), domain.to_string());
                    }
                    self.view.learn_routes(domain, allocations);
                }
                Ok((outcome, RoutingState { ttl, visited }))
            }
            ServerFrame::Error { error, .. } => {
                // The peer answered but refused (not federated, or
                // overloaded): skip it for this chain WITHOUT dropping
                // the connection — tearing a healthy link down would end
                // its session on the peer and release any allocation
                // leases our clients still hold through it.
                Err(PeerUnavailable {
                    transport: false,
                    reason: format!("peer refused delegation: {error}"),
                })
            }
            // A reply that violates the protocol means the stream can no
            // longer be trusted: drop the connection.
            other => Err(PeerUnavailable {
                transport: true,
                reason: format!("expected Delegated, got {other:?}"),
            }),
        }
    }

    /// Settles a remote release by the answer of `domain`'s peer over
    /// `conn` (none when the link could not be brought up).  The lease
    /// mapping is only consumed once the release is truly settled:
    /// dropping it up front would orphan the allocation's routing if the
    /// peer answers with a transient error, leaving the client no way to
    /// retry.  A peer that died is retired.
    fn settle_release(
        &self,
        key: &str,
        domain: &str,
        conn: Option<&Conn>,
        reply: Result<ServerFrame, ConnError>,
    ) -> Result<(), AllocationError> {
        let settled = |result| {
            self.remote_leases.lock().remove(key);
            result
        };
        match reply {
            Ok(ServerFrame::Released { .. }) => settled(Ok(())),
            // A double release is settled (drop the mapping); any other
            // failure keeps it so a retry still routes to the owning
            // domain.
            Ok(ServerFrame::Error { error, .. }) if error == AllocationError::UnknownAllocation => {
                settled(Err(error))
            }
            Ok(ServerFrame::Error { error, .. }) => Err(error),
            Ok(other) => Err(AllocationError::Protocol(format!(
                "expected Released, got {other:?}"
            ))),
            // Refused before a byte left: nothing changed on either side,
            // so the mapping stays and a retry still routes here.
            Err(ConnError::Refused(message)) => Err(AllocationError::Protocol(message)),
            // The peer died holding the lease: its session teardown hands
            // the allocation back on that side, so the release is done as
            // far as this daemon can tell.
            Err(_) => {
                if let Some(conn) = conn {
                    conn.shutdown();
                }
                self.view.prune(domain);
                settled(Ok(()))
            }
        }
    }
}

impl ResourceManager for FederatedBackend {
    /// Always local first: the wrapped backend's `allocate_with`, its
    /// delegable failure delegated with the query rendered as wire text.
    fn allocate_with(&self, query: actyp_query::Query, done: AllocateDone) {
        let text = query.to_string();
        self.allocate_while(query, text, || true, done)
    }

    /// A lease this daemon holds itself is released by the wrapped
    /// backend's own `release_with`, and so is any lease when no daemon
    /// serves the backend.  A delegated one is a `Release` written from
    /// this thread once the link to the owning domain is up (dialed first
    /// if need be), and the reply's completion — on the link's I/O thread —
    /// settles the lease mapping and runs `done`.
    fn release_with(&self, allocation: &Allocation, done: ReleaseDone) {
        let peer = self
            .remote_leases
            .lock()
            .get(&allocation.access_key.0)
            .cloned();
        let (Some(domain), Some((backend, host))) = (peer, self.served()) else {
            return self.inner.release_with(allocation, done);
        };
        let Some(link) = self.link_for(&domain) else {
            // The link is gone entirely; the peer's session teardown has
            // already reclaimed the allocation on its side.
            self.remote_leases.lock().remove(&allocation.access_key.0);
            return done(Ok(()));
        };
        let (key, allocation) = (allocation.access_key.0.clone(), allocation.clone());
        let settle = backend.clone();
        let linked = move |linked: Result<PeerConn, ConnError>| {
            let peer = match linked {
                Ok(peer) => peer,
                Err(e) => return done(settle.settle_release(&key, &domain, None, Err(e))),
            };
            let conn = peer.conn.clone();
            conn.request_with(
                COMPLETION_TIMEOUT,
                move |corr| ClientFrame::Release { corr, allocation },
                move |reply| done(settle.settle_release(&key, &domain, Some(&peer.conn), reply)),
            );
        };
        backend.with_link(&host, link, Box::new(linked));
    }

    fn stats(&self) -> StatsSnapshot {
        let mut stats = self.inner.stats();
        stats.delegations_out = self.delegations_out.load(Ordering::Relaxed);
        stats.delegations_in = self.delegations_in.load(Ordering::Relaxed);
        // Queries in flight are the wrapped backend's (a delegated one is
        // counted by the domain serving it), plus outcomes filed here.
        stats.in_flight += self.tickets.unredeemed();
        stats.gossip_deltas_in = self.view.gossip().deltas_in();
        stats.gossip_deltas_out = self.view.gossip().deltas_out();
        stats.route_hits = self.view.route_cache().hits();
        stats.route_misses = self.view.route_cache().misses();
        stats.peer_redials = self.peer_redials.load(Ordering::Relaxed);
        // The inner backend already reported its own directory's
        // contention; fold in the federated layer's peer directory.
        stats.shard_contention = stats
            .shard_contention
            .saturating_add(self.view.directory().contention());
        stats
    }

    fn shutdown(&self) -> Result<(), AllocationError> {
        if !self.closed.swap(true, Ordering::SeqCst) {
            for peer in self.links.iter().filter_map(PeerLink::live) {
                peer.conn.shutdown();
            }
        }
        self.inner.shutdown()
    }

    fn tickets(&self) -> Option<&TicketBook> {
        Some(&self.tickets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::cell::RefCell;
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;

    /// The query every domain of a [`MemoryNet`] is asked, and the pool it
    /// maps to.
    const Q: &str = "q";

    /// A whole federation in memory: every domain resolves [`Q`] by a flag,
    /// orders its peers through its own [`PeerView`] — which knows which
    /// peers advertise [`Q`], and may hold a learned route — and walks the
    /// same [`Chain`] a served daemon drives, one hop at a time.
    struct MemoryNet {
        /// domain → (direct peers, locally satisfiable?)
        domains: BTreeMap<String, (Vec<String>, bool)>,
        dead: BTreeSet<String>,
        views: BTreeMap<String, PeerView>,
        /// `(domain, ttl-as-sent)` per delegation hop, for invariant checks.
        hops: RefCell<Vec<(String, u32)>>,
    }

    impl MemoryNet {
        /// Every domain's view learns which of its peers advertise [`Q`]
        /// and, given `cached`, a route for [`Q`] through that domain —
        /// live, dead, unsatisfiable or nobody's peer.
        fn new(
            domains: BTreeMap<String, (Vec<String>, bool)>,
            dead: BTreeSet<String>,
            cached: Option<&str>,
        ) -> Self {
            let mut views = BTreeMap::new();
            for (name, (peers, _)) in &domains {
                let view = PeerView::new(GossipPlane::with_epoch(name, 1), true);
                for peer in peers.iter().filter(|p| domains[*p].1) {
                    view.record_advertisement(peer, &[Q.to_string()]);
                }
                if let Some(hop) = cached {
                    view.route_cache().learn(Q, hop);
                }
                views.insert(name.clone(), view);
            }
            MemoryNet {
                domains,
                dead,
                views,
                hops: RefCell::new(Vec::new()),
            }
        }

        /// `at`'s step of a chain, to its end.
        fn walk(&self, at: &str, state: RoutingState) -> (QueryOutcome, RoutingState) {
            if !state.alive() {
                // No hop left to visit this domain: no local work either.
                return (Err(AllocationError::TtlExpired), state);
            }
            let (peers, satisfiable) = &self.domains[at];
            let local = match satisfiable {
                true => Ok(Vec::new()),
                false => Err(AllocationError::NoSuchResources),
            };
            let view = &self.views[at];
            let wanted = [Q.to_string()];
            let mut step = Chain::start(at, state, local, |_| view.candidates(&wanted, peers));
            loop {
                let (chain, to) = match step {
                    Step::Done(outcome, state) => return (outcome, state),
                    Step::Delegate(chain, to) => (chain, to),
                };
                let reply = if self.dead.contains(&to) {
                    view.prune(&to);
                    Err(PeerUnavailable {
                        transport: true,
                        reason: format!("domain `{to}` is dead"),
                    })
                } else {
                    self.hops.borrow_mut().push((to.clone(), chain.state().ttl));
                    Ok(self.walk(&to, chain.state().clone()))
                };
                step = chain.on_reply(&to, reply);
            }
        }

        fn run_from(&self, origin: &str, ttl: u32) -> (QueryOutcome, RoutingState) {
            self.walk(origin, RoutingState::new(ttl))
        }

        /// The routing invariants of one chain from `origin`: the TTL
        /// strictly decreases across hops, no domain is revisited, dead
        /// domains leave no trace, the walk stays within the TTL, and the
        /// outcome is the right one.
        fn check_chain(&self, origin: &str, ttl: u32) {
            let (outcome, state) = self.run_from(origin, ttl);
            let mut previous = ttl;
            for (_, sent_ttl) in self.hops.borrow().iter() {
                prop_assert!(
                    *sent_ttl < previous || previous == 0,
                    "hop sent ttl {sent_ttl} after {previous}"
                );
                previous = *sent_ttl;
            }
            let mut seen = BTreeSet::new();
            for domain in &state.visited {
                prop_assert!(seen.insert(domain.clone()), "revisited {domain}");
                prop_assert!(!self.dead.contains(domain), "dead {domain} visited");
            }
            prop_assert!(state.visited.len() as u64 <= ttl as u64);
            prop_assert!(self.hops.borrow().len() as u64 <= ttl as u64);
            prop_assert!(state.ttl <= ttl);
            let satisfiable = |d: &String| self.domains[d].1;
            match &outcome {
                // Success requires a satisfiable domain among the visited.
                Ok(_) => prop_assert!(state.visited.iter().any(satisfiable)),
                // TTL exhaustion is only reported when the TTL is in fact
                // exhausted (zero from the start or consumed by hops).
                Err(AllocationError::TtlExpired) => prop_assert!(state.ttl == 0 || ttl == 0),
                // Every visited domain really failed.
                Err(AllocationError::NoSuchResources) => {
                    prop_assert!(!state.visited.iter().any(satisfiable))
                }
                Err(other) => prop_assert!(false, "unexpected error {other:?}"),
            }
        }
    }

    /// A random topology — `n` domains, adjacency, satisfiability and
    /// deadness from seed bits — and, when `cached`, an arbitrary learned
    /// route: through a live, dead or unsatisfiable domain, or through
    /// `nowhere`, nobody's peer.
    fn net_strategy(cached: bool) -> impl Strategy<Value = (MemoryNet, u32)> {
        (2usize..6, 0u64..u64::MAX, 0u32..12, 0usize..8).prop_map(move |(n, seed, ttl, hop)| {
            let names: Vec<String> = (0..n).map(|i| format!("d{i}")).collect();
            let mut domains = BTreeMap::new();
            let mut dead = BTreeSet::new();
            for (i, name) in names.iter().enumerate() {
                let peers: Vec<String> = (names.iter().enumerate())
                    .filter(|(j, _)| *j != i && (seed >> ((i * n + j) % 48)) & 1 == 1)
                    .map(|(_, p)| p.clone())
                    .collect();
                let satisfiable = (seed >> (48 + i % 16)) & 1 == 1;
                domains.insert(name.clone(), (peers, satisfiable));
                if i > 0 && (seed >> (32 + i)) & 3 == 3 {
                    dead.insert(name.clone());
                }
            }
            let learned = match hop {
                _ if !cached => None,
                hop if hop < n => Some(names[hop].as_str()),
                hop if hop == n => Some("nowhere"),
                _ => None,
            };
            (MemoryNet::new(domains, dead, learned), ttl)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over any topology (dead peers included) the chain terminates
        /// and upholds the paper's routing invariants.
        #[test]
        fn chains_terminate_and_uphold_routing_invariants(input in net_strategy(false)) {
            let (net, ttl) = input;
            net.check_chain("d0", ttl);
        }

        /// Dead peers never appear in the visited list: an unreachable
        /// domain consumes no TTL and leaves no trace in the routing state.
        #[test]
        fn dead_peers_consume_no_ttl(input in net_strategy(false)) {
            let (net, ttl) = input;
            let (_, state) = net.run_from("d0", ttl);
            for domain in &state.visited {
                prop_assert!(!net.dead.contains(domain), "dead domain {domain} visited");
            }
        }

        /// Whatever a domain's route cache holds — a live route, a stale
        /// route to a dead domain, a domain that is no peer at all — the
        /// chain's invariants are untouched, and a wrong entry degrades to
        /// the ordinary walk (correct outcomes, never a wrong answer).
        #[test]
        fn a_cached_route_never_bypasses_ttl_or_visited_invariants(input in net_strategy(true)) {
            let (net, ttl) = input;
            net.check_chain("d0", ttl);
        }

        /// The candidate order is a permutation of the peers given; a
        /// learned hop comes first only if it is one of them; the peers
        /// that advertise a wanted pool come before the rest.
        #[test]
        fn candidates_reorder_only_the_peers_given(
            peers in prop::collection::vec(0u8..8, 0..6),
            advertising in prop::collection::vec(0u8..8, 0..6),
            learned in prop::option::of(0u8..10),
        ) {
            let name = |d: &u8| format!("d{d}");
            let mut seen = BTreeSet::new();
            let peers: Vec<String> =
                peers.iter().filter(|d| seen.insert(**d)).map(name).collect();
            let view = PeerView::new(GossipPlane::with_epoch("me", 1), true);
            for domain in advertising.iter().map(name) {
                view.record_advertisement(&domain, &[Q.to_string()]);
            }
            if let Some(hop) = &learned {
                view.route_cache().learn(Q, &name(hop));
            }
            let order = view.candidates(&[Q.to_string()], &peers);
            let (mut given, mut got) = (peers.clone(), order.clone());
            given.sort();
            got.sort();
            prop_assert_eq!(given, got, "a permutation of the peers given");
            let hop = learned.as_ref().map(name).filter(|hop| peers.contains(hop));
            let rest = match &hop {
                Some(hop) => {
                    prop_assert_eq!(&order[0], hop, "the learned hop leads");
                    &order[1..]
                }
                None => &order[..],
            };
            // Advertisers first, then the rest, each in the caller's order.
            let advertises = |d: &&String| advertising.iter().map(name).any(|a| a == **d);
            let kept = peers.iter().filter(|d| Some(*d) != hop.as_ref());
            let (ads, others): (Vec<&String>, Vec<&String>) = kept.partition(advertises);
            let expected: Vec<&String> = ads.into_iter().chain(others).collect();
            prop_assert_eq!(rest.iter().collect::<Vec<_>>(), expected, "{:?}", order);
        }
    }

    /// Deterministic pin of the fallback: a stale cached route pointing at
    /// a dead domain costs nothing — the walk falls back to the remaining
    /// peers and still finds the satisfying one, with the dead hop absent
    /// from the visited list.
    #[test]
    fn stale_cached_route_falls_back_to_the_chain_walk() {
        let domains = BTreeMap::from([
            (
                "d0".to_string(),
                (vec!["dead".to_string(), "good".to_string()], false),
            ),
            ("dead".to_string(), (vec![], true)),
            ("good".to_string(), (vec![], true)),
        ]);
        let net = MemoryNet::new(domains, BTreeSet::from(["dead".to_string()]), Some("dead"));
        let (outcome, state) = net.run_from("d0", 4);
        assert!(outcome.is_ok(), "the walk recovered: {outcome:?}");
        assert_eq!(
            state.visited,
            vec!["d0".to_string(), "good".to_string()],
            "the dead cached hop was tried, failed at transport, and left no trace"
        );
        let cache = net.views["d0"].route_cache();
        assert!(cache.hits() >= 1, "the stale entry was consulted");
        assert_eq!(cache.next_hop(Q), None, "and pruned with its dead hop");
    }

    /// Pruning a peer drops everything the view held about it: its
    /// directory records, the routes through it, and what it acked.
    #[test]
    fn prune_drops_a_peers_records_routes_and_acked_vector() {
        let peer = PeerView::new(GossipPlane::with_epoch("b", 1), true);
        peer.gossip().refresh_local(&["arch,==/hp".to_string()]);
        let view = PeerView::new(GossipPlane::with_epoch("a", 1), true);
        view.gossip().refresh_local(&["arch,==/sun".to_string()]);
        view.apply_gossip_deltas(&peer.gossip().deltas_since(&[]));
        view.gossip()
            .note_acked("b", view.gossip().version_vector());
        view.route_cache().learn("arch,==/hp", "b");
        view.route_cache().learn("arch,==/sgi", "c");
        assert!(view.directory().pool_managers().contains(&"b".to_string()));
        assert!(view.gossip().deltas_for_peer("b").is_empty(), "b acked all");

        view.prune("b");
        assert!(!view.directory().pool_managers().contains(&"b".to_string()));
        assert!(view.directory().instances("arch,==/hp").is_empty());
        assert_eq!(view.route_cache().next_hop("arch,==/hp"), None);
        assert_eq!(
            view.route_cache().next_hop("arch,==/sgi"),
            Some("c".to_string())
        );
        assert!(
            !view.gossip().deltas_for_peer("b").is_empty(),
            "b's acked vector is gone: the next round ships it everything again"
        );
    }

    #[test]
    fn chain_with_no_peers_returns_the_local_failure() {
        let net = MemoryNet::new(
            BTreeMap::from([("a".to_string(), (vec![], false))]),
            BTreeSet::new(),
            None,
        );
        let (outcome, state) = net.run_from("a", 4);
        assert_eq!(outcome.unwrap_err(), AllocationError::NoSuchResources);
        assert_eq!(state.ttl, 3);
        assert_eq!(state.visited, vec!["a".to_string()]);
    }

    #[test]
    fn chain_with_zero_ttl_expires_without_local_work() {
        let step = Chain::start("a", RoutingState::new(0), Ok(Vec::new()), |_| {
            panic!("no candidates are asked for")
        });
        let Step::Done(outcome, state) = step else {
            panic!("a chain with no hop left delegates nowhere: {step:?}");
        };
        assert_eq!(outcome.unwrap_err(), AllocationError::TtlExpired);
        assert!(state.visited.is_empty(), "the domain was not visited");
    }

    #[test]
    fn non_delegable_failures_stop_the_chain() {
        let step = Chain::start(
            "a",
            RoutingState::new(8),
            Err(AllocationError::Parse("bad".into())),
            |_| panic!("a final failure asks for no candidates"),
        );
        assert!(
            matches!(step, Step::Done(Err(AllocationError::Parse(_)), _)),
            "{step:?}"
        );
    }

    /// The step machine a served daemon drives with completions: one
    /// delegation at a time, a refusal skipped for the rest of the chain,
    /// and each answer's routing state folded in.
    #[test]
    fn a_chain_asks_for_one_delegation_at_a_time() {
        let step = Chain::start(
            "a",
            RoutingState::new(4),
            Err(AllocationError::NoSuchResources),
            |_| vec!["b".to_string(), "a".to_string(), "c".to_string()],
        );
        let Step::Delegate(chain, to) = step else {
            panic!("a delegable failure with TTL to spare delegates: {step:?}");
        };
        assert_eq!(to, "b");
        assert_eq!(chain.state().ttl, 3, "this domain's hop is spent");
        let refused = Err(PeerUnavailable {
            transport: false,
            reason: "refused".to_string(),
        });
        let Step::Delegate(chain, to) = chain.on_reply("b", refused) else {
            panic!("the next candidate is tried after a refusal");
        };
        assert_eq!(to, "c", "itself is never a candidate");
        let downstream = RoutingState {
            ttl: 2,
            visited: vec!["a".to_string(), "c".to_string()],
        };
        match chain.on_reply("c", Ok((Err(AllocationError::NoneAvailable), downstream))) {
            Step::Done(outcome, state) => {
                assert_eq!(outcome.unwrap_err(), AllocationError::NoneAvailable);
                assert_eq!(state.ttl, 2);
                assert_eq!(state.visited, vec!["a".to_string(), "c".to_string()]);
            }
            other => panic!("every candidate was tried: {other:?}"),
        }
    }

    #[test]
    fn merge_clamps_a_peer_that_tries_to_raise_the_ttl() {
        let state = RoutingState {
            ttl: 5,
            visited: vec!["a".to_string()],
        };
        let hostile = RoutingState {
            ttl: 99,
            visited: Vec::new(),
        };
        let merged = merge_states(state, hostile, "b");
        assert_eq!(merged.ttl, 4, "TTL can only shrink across a hop");
        assert!(merged.has_visited("a") && merged.has_visited("b"));
    }

    #[test]
    fn delegable_errors_are_exactly_the_curable_ones() {
        assert!(is_delegable(&AllocationError::NoSuchResources));
        assert!(is_delegable(&AllocationError::NoneAvailable));
        assert!(is_delegable(&AllocationError::ShadowAccountsExhausted));
        assert!(is_delegable(&AllocationError::TtlExpired));
        assert!(!is_delegable(&AllocationError::PolicyDenied));
        assert!(!is_delegable(&AllocationError::Parse("x".into())));
        assert!(!is_delegable(&AllocationError::UnknownTicket));
        assert!(!is_delegable(&AllocationError::Network("x".into())));
    }

    #[test]
    fn redial_backoff_doubles_per_consecutive_failure_and_caps() {
        let now = std::time::Instant::now();
        let mut backoff = RedialBackoff::new();
        assert!(backoff.permits(now), "a never-failed link dials freely");
        backoff.note_failure(now);
        assert_eq!(
            backoff.wait, PEER_REDIAL_BACKOFF,
            "first failure keeps the base wait"
        );
        assert!(!backoff.permits(now), "freshly failed: no immediate redial");
        assert!(
            backoff.permits(now + PEER_REDIAL_BACKOFF),
            "base window elapsed"
        );
        backoff.note_failure(now);
        assert_eq!(backoff.wait, PEER_REDIAL_BACKOFF * 2);
        assert!(
            !backoff.permits(now + PEER_REDIAL_BACKOFF),
            "window doubled"
        );
        assert!(backoff.permits(now + PEER_REDIAL_BACKOFF * 2));
        for _ in 0..16 {
            backoff.note_failure(now);
        }
        assert_eq!(backoff.wait, PEER_REDIAL_BACKOFF_MAX, "growth is capped");
    }

    /// A reactor whose every dial fails at once.
    struct Unreachable;
    impl PeerHost for Unreachable {
        fn dial_peer(&self, _addrs: Vec<SocketAddr>, done: DialDone) {
            done(Err(ConnError::Dead("connection refused".to_string())));
        }
    }

    /// A peer session that swallows every frame.
    struct Discard;
    impl crate::corr::FrameSink for Discard {
        fn push_frame(&self, _frame: &ClientFrame) -> std::io::Result<()> {
            Ok(())
        }
        fn close(&self) {}
    }

    fn served_with_one_peer(peer: StageAddress) -> (Arc<FederatedBackend>, Arc<dyn PeerHost>) {
        let fleet = actyp_grid::SyntheticFleet::new(actyp_grid::FleetSpec::with_machines(8), 1)
            .generate()
            .into_shared();
        let inner = crate::api::PipelineBuilder::new()
            .database(fleet)
            .build(crate::api::BackendKind::Live)
            .unwrap();
        let config = FederationConfig {
            domain: "a".to_string(),
            peers: vec![peer],
            ..Default::default()
        };
        let backend = Arc::new(FederatedBackend::new(inner, config, None));
        let host: Arc<dyn PeerHost> = Arc::new(Unreachable);
        backend.attach(host.clone());
        (backend, host)
    }

    /// The link state machine keeps the backoff across failed dials and
    /// starts it over once a dial succeeds: a link whose connection dies
    /// after it was up is redialed at once, and a failure then waits the
    /// base window — not the window its earlier failures had grown to.
    #[test]
    fn a_link_that_came_up_backs_off_from_the_base_wait_again() {
        let (backend, host) = served_with_one_peer(StageAddress::new("127.0.0.1", 1));
        let link = &backend.links[0];
        let dial = || {
            backend.with_link(
                &host,
                link,
                Box::new(|linked| assert!(linked.is_err(), "every dial fails")),
            )
        };
        let backoff = || match &*link.link.lock() {
            LinkState::Down(backoff) => *backoff,
            _ => panic!("a failed dial leaves the link down"),
        };
        for _ in 0..3 {
            dial();
            // The window passes.
            if let LinkState::Down(backoff) = &mut *link.link.lock() {
                backoff.failed_at = Some(Instant::now() - PEER_REDIAL_BACKOFF_MAX);
            }
        }
        assert_eq!(backoff().wait, PEER_REDIAL_BACKOFF * 4, "three failures");
        let conn = Conn::attached(Arc::new(Discard));
        let peer = PeerConn {
            conn: conn.clone(),
            domain: "b".into(),
        };
        backend.link_up(0, peer, &[], &[]);
        conn.shutdown();
        dial();
        assert_eq!(
            backoff().wait,
            PEER_REDIAL_BACKOFF,
            "a connect that succeeded resets the backoff"
        );
        assert!(!backoff().permits(Instant::now()), "and the failure counts");
    }

    /// A peer whose name does not resolve is reported, fails its dial with
    /// the lookup's error, and is looked up again on every failed dial.
    #[test]
    fn an_unresolvable_peer_is_reported_and_looked_up_again() {
        let (backend, host) = served_with_one_peer(StageAddress::new("peer.invalid", 7461));
        let unresolved = backend.unresolved_peers();
        assert_eq!(unresolved.len(), 1, "{unresolved:?}");
        assert!(unresolved[0].1.contains("peer.invalid"), "{unresolved:?}");
        let link = &backend.links[0];
        *link.resolved.lock() = Err("not yet".to_string());
        let failed = Arc::new(Mutex::new(None));
        let seen = failed.clone();
        backend.with_link(
            &host,
            link,
            Box::new(move |linked| *seen.lock() = linked.err().map(|e| e.to_string())),
        );
        let failed = failed.lock().clone().expect("the dial ended at once");
        assert!(failed.contains("not yet"), "{failed}");
        // The failed dial looked the name up again, on a `ypd-resolve`
        // thread of its own.
        let started = Instant::now();
        while *link.resolved.lock() == Err("not yet".to_string()) {
            assert!(started.elapsed() < Duration::from_secs(30), "no lookup");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_ne!(*link.resolved.lock(), Err("not yet".to_string()));
    }
}
