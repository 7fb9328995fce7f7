//! Wide-area federation: delegation of queries *between* `ypd` daemons.
//!
//! The paper's servers cooperate across administrative domains: "when a
//! pool manager cannot satisfy a query, it delegates the query to a peer
//! in another domain", carrying a time-to-live and the list of domains
//! already visited with the query itself (Sections 5.2.2, 6).  Inside one
//! process that control flow already exists ([`RoutingState`] threading
//! through [`crate::engine::Engine`]); this module takes the same
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
//! every hop, no domain is ever revisited, and the originating ticket
//! settles with the remote allocation or the proper
//! [`AllocationError::TtlExpired`].  Peers learn each other's domain
//! names and pool names through a [`ClientFrame::SyncPools`] /
//! `PoolsSynced` exchange performed once per connection; the
//! advertisements land in a [`LocalDirectoryService`] of peer records,
//! and a peer whose connection dies is pruned from it with
//! [`LocalDirectoryService::unregister_pool_manager`].
//!
//! The chain logic itself is a step machine that does no I/O, [`Chain`]:
//! it names the next domain to delegate to, folds the answer, and says
//! when the chain is over.  [`run_chain`] drives it by blocking on each
//! delegation over a [`PeerDelegator`] — the production implementation
//! speaks TCP, while the property tests drive whole in-memory topologies
//! through the same function to check the paper's routing invariants (TTL
//! strictly decreases across hops, no domain is revisited, every chain
//! terminates within TTL hops).
//!
//! A served daemon drives the same [`Chain`] without parking anybody — the
//! paper's "all state information is carried with the query itself", so
//! nothing waits while a query is in another domain.  Once a peer link's
//! handshake is done its socket becomes a reactor session of kind *peer*
//! (an *attached* connection, `corr.rs`).  A federated `Wait`, a remote
//! `Release` and an inbound `Delegate` are completions
//! ([`ResourceManager::wait_with`], [`ResourceManager::release_with`],
//! [`FederatedBackend::delegate_with`]): each `Delegate` or `Release` is
//! written by whichever thread holds the previous answer, and its reply's
//! completion runs on the link's I/O thread — folding the answer, sending
//! the next hop or writing the client's reply.  Only a step whose link no
//! session carries yet (never dialed, dead, in redial backoff), and the
//! gossip and probe rounds, still block, on the daemon's redeem lane.

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::Mutex;

use actyp_proto::{AdvertDelta, AdvertVersion, ClientFrame, RequestId, ServerFrame};

use crate::allocation::{Allocation, AllocationError, ReleaseDone, WaitDone};
use crate::api::{QueryOutcome, ResourceManager, StatsSnapshot, SubmitDone, Ticket};
use crate::corr::{Conn, ConnError, FrameSink, REPLY_TIMEOUT};
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

    /// Records a successful connect: the link is healthy, the next
    /// failure starts from the base wait again.
    fn note_success(&mut self) {
        *self = RedialBackoff::new();
    }
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

/// The peer-facing half of a delegation chain, implemented over TCP by
/// [`FederatedBackend`] and over in-memory topologies by the property
/// tests.
pub trait PeerDelegator {
    /// Domains this node could forward to, in preference order (peers
    /// advertising a pool matching the query first).  Implementations may
    /// do work (e.g. connect to a peer for the first time to learn its
    /// domain name); [`run_chain`] calls this once per chain and filters
    /// out visited and failed domains itself.
    fn candidates(&self, query: &str, state: &RoutingState) -> Vec<String>;

    /// Sends one `Delegate` to `domain` and returns the outcome together
    /// with the routing state after the peer's whole chain finished.
    fn delegate(
        &self,
        domain: &str,
        query: &str,
        state: &RoutingState,
    ) -> Result<(QueryOutcome, RoutingState), PeerUnavailable>;

    /// Notification that `domain` proved unreachable at the transport
    /// level, so the implementation can prune directory records and drop
    /// the connection.  Not called for mere refusals.
    fn peer_failed(&self, domain: &str) {
        let _ = domain;
    }
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
/// exceeding the TTL, and always terminating.  [`run_chain`] drives it by
/// blocking on each delegation; a served [`FederatedBackend`] drives it
/// with completions, each `Delegate` written by the thread that holds the
/// previous answer.  The TTL, visited-list and merge rules live here only.
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

/// Runs one node's step of a delegation chain to its end, blocking on
/// each delegation: visit this domain (spending one TTL hop), try the
/// local backend, and while the failure is [delegable](is_delegable)
/// forward to unvisited peers (see [`Chain`]).
///
/// Returns the outcome together with the routing state after the whole
/// (possibly multi-hop) chain, which the caller ships back to *its*
/// delegator so the invariants hold end to end.
pub fn run_chain(
    domain: &str,
    query: &str,
    state: RoutingState,
    local: impl FnOnce(&str) -> QueryOutcome,
    peers: &dyn PeerDelegator,
) -> (QueryOutcome, RoutingState) {
    if !state.alive() {
        // No hop left to visit this domain: no local work either.
        return (Err(AllocationError::TtlExpired), state);
    }
    let step = Chain::start(domain, state, local(query), |state| {
        peers.candidates(query, state)
    });
    finish_chain(query, step, peers)
}

/// Drives `step` to the end of its chain, blocking on each delegation.
fn finish_chain(
    query: &str,
    mut step: Step,
    peers: &dyn PeerDelegator,
) -> (QueryOutcome, RoutingState) {
    loop {
        match step {
            Step::Done(outcome, state) => return (outcome, state),
            Step::Delegate(chain, to) => {
                let reply = peers.delegate(&to, query, chain.state());
                // Only a transport failure tears the peer down; a refusal
                // came over a healthy connection that may hold leases.
                if matches!(
                    &reply,
                    Err(PeerUnavailable {
                        transport: true,
                        ..
                    })
                ) {
                    peers.peer_failed(&to);
                }
                step = chain.on_reply(&to, reply);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Peer links (the TCP implementation)
// ---------------------------------------------------------------------------

/// One live connection to a peer daemon, after the hello and pool-sync
/// handshakes: the shared [`Conn`] (any number of delegation chains and
/// releases multiplex on it concurrently, and every allocation the peer
/// granted this daemon stays leased to it) plus the domain name the peer
/// answered the pool sync with.
#[derive(Clone)]
struct PeerConn {
    conn: Arc<Conn>,
    domain: Arc<str>,
}

/// A pooled connection to one peer daemon: lazily established, reused
/// (concurrently) across delegations, re-established after failures.
struct PeerLink {
    addr: StageAddress,
    /// Stable index of this link, used as the instance number for the
    /// peer's advertised pool records (unique per manager in the peer
    /// directory).
    index: u32,
    /// The pooled connection; held across a (re)dial so concurrent callers
    /// never dial twice — which is why no completion ever takes it.
    conn: Mutex<Option<PeerConn>>,
    /// The connection last dialed, if a reactor session carries it
    /// ([`Conn::attach`]): what completions send on and retire once they
    /// found it alive.  Written under `conn` at each dial, read without
    /// it, never held across I/O.
    attached: Mutex<Option<PeerConn>>,
    /// Last domain name this link handshook as (kept after the connection
    /// dies).  Read instead of locking `conn` wherever only the identity
    /// is needed — in particular by `candidates()`, which must never wait
    /// on a link that is mid-redial.
    last_domain: Mutex<Option<String>>,
    /// Per-peer redial backoff: when the last connect attempt failed and
    /// how long to wait before the next one (exponential under
    /// consecutive failures, reset by any success).
    redial: Mutex<RedialBackoff>,
}

/// A freshly learned peer advertisement (domain name and pool names),
/// with the identity the link had before — a peer that restarted under a
/// different domain name must have its old records pruned.
struct PeerAdvertisement {
    domain: String,
    pools: Vec<String>,
    previous_domain: Option<String>,
    /// Advertisement-log deltas piggybacked on the `PoolsSynced` reply.
    deltas: Vec<AdvertDelta>,
}

impl PeerLink {
    fn new(addr: StageAddress, index: u32) -> Self {
        PeerLink {
            addr,
            index,
            conn: Mutex::new(None),
            attached: Mutex::new(None),
            last_domain: Mutex::new(None),
            redial: Mutex::new(RedialBackoff::new()),
        }
    }

    /// Dials the peer and performs the pool-sync handshake, which rides
    /// the connection like every later request.  The `have` vector tells
    /// the peer what this daemon already holds, so its `PoolsSynced` reply
    /// piggybacks exactly the missing deltas.
    fn connect(
        &self,
        my_domain: &str,
        my_pools: Vec<String>,
        my_have: Vec<AdvertVersion>,
    ) -> Result<(PeerConn, Vec<String>, Vec<AdvertDelta>), ConnError> {
        let (conn, _version) =
            Conn::dial(&self.addr).map_err(|e| ConnError::Dead(e.to_string()))?;
        let reply = conn.request(Some(REPLY_TIMEOUT), |corr| ClientFrame::SyncPools {
            corr,
            domain: my_domain.to_string(),
            pools: my_pools,
            have: my_have,
        });
        let refused = match reply {
            Ok(ServerFrame::PoolsSynced {
                domain,
                pools,
                deltas,
                ..
            }) => {
                let domain = domain.into();
                return Ok((PeerConn { conn, domain }, pools, deltas));
            }
            Ok(ServerFrame::Error { error, .. }) => format!("pool sync refused: {error}"),
            Ok(other) => format!("expected PoolsSynced, got {other:?}"),
            Err(e) => e.to_string(),
        };
        conn.shutdown();
        Err(ConnError::Dead(refused))
    }

    /// Returns a live connection, dialing (with redial backoff) when none
    /// exists or the previous one died; `attach` may hand a fresh one to a
    /// reactor session.  The slot lock is held only for the establishment
    /// itself — requests on the returned connection run outside it,
    /// concurrently.
    fn ensure_conn(
        &self,
        my_domain: &str,
        my_sync: impl FnOnce() -> (Vec<String>, Vec<AdvertVersion>),
        attach: impl FnOnce(&Arc<Conn>) -> bool,
    ) -> Result<(PeerConn, Option<PeerAdvertisement>), ConnError> {
        let mut slot = self.conn.lock();
        if let Some(peer) = &*slot {
            if !peer.conn.is_dead() {
                return Ok((peer.clone(), None));
            }
            // It died since last use — a read saw EOF, a send failed, or
            // `is_dead` just read the far side's hang-up: retire it
            // before redialing.
            let stale = slot.take().expect("connection just seen");
            stale.conn.shutdown();
        }
        // Redial backoff: a recently failed connect is not repeated, so
        // neither queries nor the periodic gossip tick pay a full connect
        // timeout per attempt against a dead peer — and the window grows
        // per consecutive failure, so a long-dead peer costs ever less.
        if !self.redial.lock().permits(std::time::Instant::now()) {
            return Err(ConnError::Dead(format!(
                "peer {} is in redial backoff after a failed connect",
                self.addr
            )));
        }
        let (pools, have) = my_sync();
        let (peer, pools, deltas) = match self.connect(my_domain, pools, have) {
            Ok(established) => established,
            Err(e) => {
                self.redial.lock().note_failure(std::time::Instant::now());
                return Err(e);
            }
        };
        self.redial.lock().note_success();
        // A redial re-learns the peer's advertisement — a peer that
        // restarted with different pools (or a different domain name)
        // must replace its stale directory records, not be routed to
        // from them.
        let previous_domain = self.last_domain.lock().replace(peer.domain.to_string());
        let fresh = Some(PeerAdvertisement {
            domain: peer.domain.to_string(),
            pools,
            previous_domain,
            deltas,
        });
        let attached = attach(&peer.conn).then(|| peer.clone());
        *self.attached.lock() = attached;
        *slot = Some(peer.clone());
        Ok((peer, fresh))
    }

    /// The pooled connection if a reactor session carries it and it is
    /// alive — without waiting on a dial.
    fn attached_conn(&self) -> Option<PeerConn> {
        let attached = self.attached.lock().clone();
        attached.filter(|peer| !peer.conn.is_dead())
    }

    /// One request/response exchange over `peer`, bounded by `deadline`.
    /// A transport failure or a missed deadline drops the connection —
    /// unless a concurrent request already replaced it with a newer one,
    /// which is left alone.  A [`ConnError::Refused`] frame never left
    /// this daemon: the link, and every lease it holds, stays.
    fn exchange(
        &self,
        peer: &PeerConn,
        deadline: Duration,
        build: impl FnOnce(RequestId) -> ClientFrame,
    ) -> Result<ServerFrame, ConnError> {
        match peer.conn.request(Some(deadline), build) {
            Ok(reply) => Ok(reply),
            Err(ConnError::Refused(message)) => Err(ConnError::Refused(message)),
            Err(ConnError::Timeout) => {
                self.retire(&peer.conn);
                Err(ConnError::Dead(format!(
                    "no reply from peer `{}` within {deadline:?}",
                    peer.domain
                )))
            }
            Err(dead) => {
                self.retire(&peer.conn);
                Err(dead)
            }
        }
    }

    /// [`PeerLink::exchange`] over the pooled connection, establishing one
    /// first if necessary.  Returns the freshly learned advertisement when
    /// a new connection was made, so the caller can refresh its peer
    /// directory.
    fn request(
        &self,
        my_domain: &str,
        my_sync: impl FnOnce() -> (Vec<String>, Vec<AdvertVersion>),
        attach: impl FnOnce(&Arc<Conn>) -> bool,
        build: impl FnOnce(RequestId) -> ClientFrame,
    ) -> Result<(ServerFrame, Option<PeerAdvertisement>), ConnError> {
        let (peer, fresh) = self.ensure_conn(my_domain, my_sync, attach)?;
        Ok((self.exchange(&peer, REPLY_TIMEOUT, build)?, fresh))
    }

    /// Drops `failed` if it is still the pooled connection; a newer
    /// connection another thread already dialed is kept.
    fn retire(&self, failed: &Arc<Conn>) {
        {
            let mut slot = self.conn.lock();
            if matches!(&*slot, Some(current) if Arc::ptr_eq(&current.conn, failed)) {
                *slot = None;
            }
        }
        failed.shutdown();
    }

    /// Drops the connection (peer declared dead or backend shutting down).
    fn disconnect(&self) {
        let taken = self.conn.lock().take();
        if let Some(peer) = taken {
            peer.conn.shutdown();
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

/// A ticket issued by the federated wrapper: the inner backend's ticket
/// plus the rendered query text, kept so a local failure can be delegated.
struct PendingTicket {
    inner: Ticket,
    query: String,
}

/// Where a chain driven by completions delivers its end: the outcome, and
/// the routing state after every hop (what a `Delegated` reply carries).
pub type DelegateDone = Box<dyn FnOnce(QueryOutcome, RoutingState) + Send>;

/// A completion lent to a call that takes a completion of its own: whoever
/// runs the call's completion takes it from here, at most once.
type Lent<D> = Arc<Mutex<Option<D>>>;

/// Lends `done` to `call`, whose completion `wrap` builds around it; when
/// `call` hands its completion back uncalled, `done` comes back uncalled,
/// next to whatever `call` handed back.
fn lend<D, C, E>(
    done: D,
    wrap: impl FnOnce(Lent<D>) -> C,
    call: impl FnOnce(C) -> Result<(), E>,
) -> Result<(), (E, D)> {
    let lent = Arc::new(Mutex::new(Some(done)));
    call(wrap(lent.clone()))
        .map_err(|back| (back, lent.lock().take().expect("handed back uncalled")))
}

/// What a daemon serving a [`FederatedBackend`] lends it
/// ([`FederatedBackend::attach`]), so the federation's steps finish as
/// completions on the reactor instead of parking a lane thread.
pub(crate) trait PeerHost: Send + Sync {
    /// Takes a freshly handshaken peer connection's socket over as a
    /// reactor session of kind *peer*, which routes every later reply with
    /// [`Conn::route`]; `unread` is what was read past the last reply.
    /// Returns the sink every frame goes through from then on, or hands
    /// the socket back when the daemon no longer takes sessions.
    fn adopt(
        &self,
        stream: TcpStream,
        unread: Vec<u8>,
        conn: Arc<Conn>,
    ) -> Result<Arc<dyn FrameSink>, (TcpStream, Vec<u8>)>;

    /// Runs a step that may park — a delegation over a link no session
    /// carries — on the daemon's redeem lane.
    fn offload(&self, job: Box<dyn FnOnce() + Send>);
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
/// Wraps the domain's local backend; queries are always submitted locally
/// first, and a ticket whose local outcome is a [delegable](is_delegable)
/// failure is settled by forwarding the query to peer daemons with a TTL
/// and visited-domain list — the paper's inter-domain cooperation, over
/// the wire.  Allocations obtained from a peer are tracked so
/// [`ResourceManager::release`] routes them back to the domain that made
/// them (hop by hop, for multi-hop chains).
///
/// Hosted behind [`crate::server::serve_federated`], the wrapper also
/// answers *incoming* [`ClientFrame::Delegate`] requests from peers via
/// [`FederatedBackend::delegate_with`] (or, when that would park,
/// [`FederatedBackend::handle_delegate`]), continuing chains that started
/// elsewhere.  A served backend's warm links ride reactor sessions, and
/// its waits, remote releases and inbound delegations finish as
/// completions ([`ResourceManager::wait_with`],
/// [`ResourceManager::release_with`]): no thread parks while a query is in
/// another domain.
pub struct FederatedBackend {
    inner: Box<dyn ResourceManager>,
    config: FederationConfig,
    brand: u64,
    next: AtomicU64,
    tickets: Mutex<HashMap<u64, PendingTicket>>,
    links: Vec<PeerLink>,
    /// Directory of the WAN neighbourhood: every peer domain is registered
    /// as a pool manager, its advertised pools as instance records.  A
    /// peer whose connection dies is pruned with
    /// [`LocalDirectoryService::unregister_pool_manager`].
    peer_directory: SharedDirectory,
    /// The intra-domain directory of the wrapped backend, when it has one
    /// (pipeline backends); the source of this daemon's own pool
    /// advertisements.
    local_directory: Option<SharedDirectory>,
    /// Allocations obtained from peers, keyed by access key, mapped to
    /// the peer domain they must be released through.
    remote_leases: Mutex<HashMap<String, String>>,
    /// Stable instance numbers for *inbound* advertisements (domains that
    /// connected to us), allocated from `u32::MAX` downwards so they can
    /// never collide with outbound link indices — or each other, which
    /// would let one inbound peer's records overwrite another's.
    inbound_instances: Mutex<HashMap<String, u32>>,
    /// The anti-entropy gossip plane: this domain's advertisement log,
    /// every origin learned from peers, and what each peer has acked.
    gossip: GossipPlane,
    /// The local-directory generation the gossip log last absorbed, so
    /// `refresh_gossip` is a counter compare in the common (unchanged)
    /// case.  Starts at a sentinel no real generation takes, forcing the
    /// first refresh.
    gossip_generation: AtomicU64,
    /// The learned one-hop delegation routes (pool → direct peer domain).
    route_cache: RouteCache,
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
        let gossip = GossipPlane::new(&config.domain);
        let route_cache = RouteCache::new(config.route_cache);
        FederatedBackend {
            inner,
            config,
            brand: crate::api::next_backend_brand(),
            next: AtomicU64::new(0),
            tickets: Mutex::new(HashMap::new()),
            links,
            peer_directory: LocalDirectoryService::new().into_shared(),
            local_directory,
            remote_leases: Mutex::new(HashMap::new()),
            inbound_instances: Mutex::new(HashMap::new()),
            gossip,
            gossip_generation: AtomicU64::new(u64::MAX),
            route_cache,
            peer_redials: AtomicU64::new(0),
            delegations_out: AtomicU64::new(0),
            delegations_in: AtomicU64::new(0),
            last_chain: Mutex::new(None),
            closed: AtomicBool::new(false),
            host: Mutex::new(None),
        }
    }

    /// Lends the backend a serving daemon's reactor (the server does, at
    /// start): links dialed from now on ride reactor sessions once their
    /// handshake is done, and federated waits, remote releases and inbound
    /// delegations over them finish as completions.
    pub(crate) fn attach(self: &Arc<Self>, host: Arc<dyn PeerHost>) {
        *self.host.lock() = Some(Attachment {
            host,
            backend: Arc::downgrade(self),
        });
    }

    /// Takes the reactor back (the server is stopping): every later step
    /// blocks on the caller's thread again.
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

    /// Hands a freshly handshaken connection to the serving daemon's
    /// reactor, if there is one.
    fn attach_conn(&self, conn: &Arc<Conn>) -> bool {
        let host = self.host.lock().as_ref().map(|a| a.host.clone());
        match host {
            Some(host) => conn.attach(|stream, unread| host.adopt(stream, unread, conn.clone())),
            None => false,
        }
    }

    /// [`PeerLink::ensure_conn`] for this daemon.
    fn connect(&self, link: &PeerLink) -> Result<(PeerConn, Option<PeerAdvertisement>), ConnError> {
        link.ensure_conn(
            &self.config.domain,
            || self.sync_payload(),
            |conn| self.attach_conn(conn),
        )
    }

    /// This daemon's domain name.
    pub fn domain(&self) -> &str {
        &self.config.domain
    }

    /// The directory of peer domains and their advertised pools.
    pub fn peer_directory(&self) -> &SharedDirectory {
        &self.peer_directory
    }

    /// The wrapped backend (inspection).
    pub fn inner(&self) -> &dyn ResourceManager {
        self.inner.as_ref()
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

    /// The anti-entropy gossip plane (inspection, and the server's gossip
    /// tick / frame handlers).
    pub fn gossip(&self) -> &GossipPlane {
        &self.gossip
    }

    /// The learned one-hop delegation-route cache.
    pub fn route_cache(&self) -> &RouteCache {
        &self.route_cache
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
            self.gossip.refresh_local(&self.local_pools());
        }
    }

    /// The payload every outbound handshake carries: this daemon's pool
    /// advertisements and its gossip version vector.
    fn sync_payload(&self) -> (Vec<String>, Vec<AdvertVersion>) {
        self.refresh_gossip();
        (self.local_pools(), self.gossip.version_vector())
    }

    /// Applies inbound advertisement deltas (piggybacked or pushed) and
    /// folds the resulting events into the peer directory and the route
    /// cache — the same delta that announces a pool's death retires its
    /// directory record and kills any cached route to it.
    pub fn apply_gossip_deltas(&self, deltas: &[AdvertDelta]) {
        for event in self.gossip.apply(deltas) {
            match event {
                GossipEvent::PoolUp { origin, pool } => {
                    self.register_gossiped_pool(&origin, &pool);
                }
                GossipEvent::PoolDown { origin, pool } => {
                    self.route_cache.invalidate_pool(&pool);
                    let instances: Vec<u32> = self
                        .peer_directory
                        .instances(&pool)
                        .iter()
                        .filter(|r| r.manager == origin)
                        .map(|r| r.instance)
                        .collect();
                    for instance in instances {
                        self.peer_directory.unregister_pool(&pool, instance);
                    }
                }
                GossipEvent::OriginReset { origin } => {
                    self.route_cache.invalidate_next_hop(&origin);
                    self.peer_directory.unregister_pool_manager(&origin);
                }
            }
        }
    }

    /// Registers one gossiped pool under its origin domain.  An origin we
    /// hold a direct link to reuses that link's address and instance
    /// number (the records delegation actually routes by); any other
    /// origin gets an inbound-style record — observability and candidate
    /// preference once a route to it exists.
    fn register_gossiped_pool(&self, origin: &str, pool: &str) {
        let (address, instance) = match self.link_for(origin) {
            Some(link) => (link.addr.clone(), link.index),
            None => {
                let instance = {
                    let mut instances = self.inbound_instances.lock();
                    let next = u32::MAX - instances.len() as u32;
                    *instances.entry(origin.to_string()).or_insert(next)
                };
                (StageAddress::new(origin.to_string(), 0), instance)
            }
        };
        self.peer_directory.register_pool_manager(origin);
        self.peer_directory.register_pool(PoolInstanceRecord {
            pool: pool.to_string(),
            instance,
            manager: origin.to_string(),
            address,
        });
    }

    /// Serves an inbound `AdvertDelta` push from `peer`: applies its
    /// deltas, records its version vector, and returns the reply deltas
    /// (everything this daemon holds beyond `have`) for the `AdvertAck`.
    pub fn handle_advert_delta(
        &self,
        peer: &str,
        deltas: &[AdvertDelta],
        have: &[AdvertVersion],
    ) -> Vec<AdvertDelta> {
        self.apply_gossip_deltas(deltas);
        self.gossip.note_peer_versions(peer, have);
        self.refresh_gossip();
        let reply = self.gossip.deltas_since(have);
        // Optimistic: the peer applies the reply on receipt.  If the ack
        // is lost with its link, the peer's next push carries a fresh
        // `have` that corrects this.
        self.gossip.note_acked(peer, self.gossip.version_vector());
        reply
    }

    /// Deltas to piggyback on a reply to `peer` (its acked vector decides
    /// what is new to it).  Piggybacking never advances the acked state —
    /// the carrier reply may be lost — so a delta can ship twice;
    /// application is idempotent.
    pub fn piggyback_deltas(&self, peer: &str) -> Vec<AdvertDelta> {
        self.refresh_gossip();
        self.gossip.deltas_for_peer(peer)
    }

    /// One anti-entropy exchange with the peer behind `link`: push our
    /// deltas and version vector, apply what the ack carries back.
    /// Dials the link if it is down (subject to the redial backoff), so
    /// the periodic tick also heals the topology.
    fn gossip_exchange(&self, link: &PeerLink) -> Result<(), ConnError> {
        let (peer, fresh) = self.connect(link)?;
        self.note_fresh_advertisement(link, fresh);
        if peer.domain.is_empty() {
            return Err(ConnError::Dead("peer did not name its domain".to_string()));
        }
        self.refresh_gossip();
        let vector = self.gossip.version_vector();
        let deltas = self.gossip.deltas_for_peer(&peer.domain);
        let have = vector.clone();
        let my_domain = self.config.domain.clone();
        let reply = link.exchange(&peer, REPLY_TIMEOUT, move |corr| ClientFrame::AdvertDelta {
            corr,
            domain: my_domain,
            deltas,
            have,
        })?;
        match reply {
            ServerFrame::AdvertAck { deltas, .. } => {
                // The peer applied everything up to `vector` before
                // answering.
                self.gossip.note_acked(&peer.domain, vector);
                self.apply_gossip_deltas(&deltas);
                Ok(())
            }
            other => {
                link.retire(&peer.conn);
                Err(ConnError::Dead(format!(
                    "expected AdvertAck, got {other:?}"
                )))
            }
        }
    }

    /// One round of the anti-entropy tick: an exchange with every peer
    /// link.  Failures are per-link and non-fatal (a dead peer is in
    /// redial backoff; the next round retries).
    pub fn gossip_tick(&self) {
        if self.closed.load(Ordering::SeqCst) {
            return;
        }
        for link in &self.links {
            let _ = self.gossip_exchange(link);
        }
    }

    /// The configured peer health-probe period ([`Duration::ZERO`] = no
    /// probing).
    pub fn probe_interval(&self) -> Duration {
        self.config.probe_interval
    }

    /// One health-probe round: every peer link with an *established*
    /// connection gets a cheap inline-answered request on a short
    /// deadline; a link that fails it is torn down and its peer pruned
    /// from the directory ([`PeerDelegator::peer_failed`]), so the next
    /// delegation never wastes a hop on a dead candidate.  Links without
    /// a connection are left alone — probes detect death, the gossip
    /// tick (with its redial backoff) heals.  Returns the number of
    /// peers the round declared dead.
    pub fn probe_peers(&self) -> usize {
        if self.closed.load(Ordering::SeqCst) {
            return 0;
        }
        let mut pruned = 0;
        for link in &self.links {
            let Some(peer) = link.conn.lock().clone() else {
                continue;
            };
            let probe = link.exchange(&peer, PEER_PROBE_TIMEOUT, |corr| ClientFrame::Stats {
                corr,
            });
            if matches!(probe, Ok(ServerFrame::StatsReply { .. })) {
                continue;
            }
            link.retire(&peer.conn);
            if !peer.domain.is_empty() {
                self.peer_failed(&peer.domain);
            }
            pruned += 1;
        }
        pruned
    }

    /// Retires everything held under a peer's *old* domain name after it
    /// re-advertised as somebody else: directory records, gossip origin
    /// log, acked state, and every learned route through or to it.
    pub fn retire_domain(&self, old: &str) {
        for pool in self.gossip.live_pools(old) {
            self.route_cache.invalidate_pool(&pool);
        }
        self.route_cache.invalidate_next_hop(old);
        self.peer_directory.unregister_pool_manager(old);
        self.gossip.forget_origin(old);
        self.gossip.retire_peer(old);
    }

    /// Records the advertisement of a peer that connected *to us* (its
    /// listen address is unknown, so the record is observability only,
    /// never a delegation candidate).  Each inbound domain gets a stable
    /// instance number of its own, so two inbound peers advertising the
    /// same pool name never overwrite each other's records.
    pub fn record_inbound_advertisement(&self, domain: &str, pools: &[String]) {
        let instance = {
            let mut instances = self.inbound_instances.lock();
            let next = u32::MAX - instances.len() as u32;
            *instances.entry(domain.to_string()).or_insert(next)
        };
        self.record_peer_advertisement(
            domain,
            pools,
            StageAddress::new(domain.to_string(), 0),
            instance,
        );
    }

    /// Records a peer's advertisement in the peer directory (stale records
    /// for the same domain are replaced).
    pub fn record_peer_advertisement(
        &self,
        domain: &str,
        pools: &[String],
        address: StageAddress,
        instance: u32,
    ) {
        self.peer_directory.unregister_pool_manager(domain);
        self.peer_directory.register_pool_manager(domain);
        for pool in pools {
            self.peer_directory.register_pool(PoolInstanceRecord {
                pool: pool.clone(),
                instance,
                manager: domain.to_string(),
                address: address.clone(),
            });
        }
    }

    /// Serves an incoming `Delegate` request from a peer daemon: spends a
    /// hop visiting this domain, tries the local backend, forwards further
    /// when possible.  Returns the outcome plus the routing state after
    /// the whole chain, for the `Delegated` reply.
    pub fn handle_delegate(
        &self,
        query: &str,
        ttl: u32,
        visited: Vec<String>,
    ) -> (QueryOutcome, RoutingState) {
        self.delegations_in.fetch_add(1, Ordering::Relaxed);
        // The incoming TTL is honoured as-is: it was bounded by the
        // *originator's* policy, and clamping it to this daemon's own
        // (possibly lower) TTL would collapse the originator's remaining
        // budget when the clamped value flows back through the reply.
        // The work a hostile peer can demand stays bounded regardless:
        // every chain visits each domain at most once.
        let state = RoutingState { ttl, visited };
        if state.has_visited(&self.config.domain) {
            // A conforming peer never revisits: refuse instead of looping.
            return (
                Err(AllocationError::Protocol(format!(
                    "domain `{}` already visited by this query",
                    self.config.domain
                ))),
                state,
            );
        }
        let (outcome, state) = run_chain(
            &self.config.domain,
            query,
            state,
            |q| self.inner.submit_text_wait(q),
            self,
        );
        *self.last_chain.lock() = Some(state.clone());
        (outcome, state)
    }

    /// [`FederatedBackend::handle_delegate`] for a caller that must not
    /// park — a `ypd` I/O thread.  The local submission is launched from
    /// here or from the thread that frees its window permit, the local
    /// outcome continues the chain on the stage that produces it, and each
    /// onward `Delegate` is written by the thread that holds the previous
    /// answer; `done` gets the outcome and the final routing state.  Hands
    /// `done` back uncalled — nothing changed — when the local backend
    /// hands its submission back, no daemon serves this backend, or the
    /// query already visited this domain.
    pub fn delegate_with(
        &self,
        query: &str,
        ttl: u32,
        visited: &[String],
        done: DelegateDone,
    ) -> Result<(), DelegateDone> {
        let Some((backend, host)) = self.served() else {
            return Err(done);
        };
        let state = RoutingState {
            ttl,
            visited: visited.to_vec(),
        };
        if state.has_visited(&self.config.domain) {
            return Err(done);
        }
        let query = query.to_string();
        let parsed = match state.alive().then(|| actyp_query::parse_query(&query)) {
            Some(Ok(parsed)) => parsed,
            Some(Err(e)) => {
                self.delegations_in.fetch_add(1, Ordering::Relaxed);
                let error = AllocationError::Parse(e.to_string());
                backend.federate(&host, query, state, Err(error), done);
                return Ok(());
            }
            None => {
                // No hop left to visit this domain: no local work either.
                self.delegations_in.fetch_add(1, Ordering::Relaxed);
                let expired = Step::Done(Err(AllocationError::TtlExpired), state);
                backend.drive(&host, query, expired, done);
                return Ok(());
            }
        };
        // The local submission may wait its turn in the window: the chain
        // goes on from whichever thread launches it.
        lend(
            done,
            |lent| -> SubmitDone {
                Box::new(move |submitted| {
                    let Some(done) = lent.lock().take() else {
                        return;
                    };
                    let ticket = match submitted {
                        Ok(ticket) => ticket,
                        Err(error) => {
                            return backend.federate(&host, query, state, Err(error), done)
                        }
                    };
                    let local: WaitDone = Box::new({
                        let (host, backend) = (host.clone(), backend.clone());
                        move |outcome| backend.federate(&host, query, state, outcome, done)
                    });
                    if let Err(local) = backend.inner.wait_with(ticket, local) {
                        // The local backend cannot wait without parking:
                        // the lane does.
                        let waiter = backend.clone();
                        host.offload(Box::new(move || local(waiter.inner.wait(ticket))));
                    }
                })
            },
            |submitted| self.inner.submit_with(parsed, submitted),
        )
        .map_err(|(_, done)| done)?;
        self.delegations_in.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Continues a chain from this domain's own outcome, as completions
    /// ([`FederatedBackend::drive`]).  Naming the candidates must not dial,
    /// so a chain that needs a link nobody has handshaken yet runs on the
    /// redeem lane, where [`PeerDelegator::candidates`] may dial it.
    fn federate(
        self: &Arc<Self>,
        host: &Arc<dyn PeerHost>,
        query: String,
        state: RoutingState,
        local: QueryOutcome,
        done: DelegateDone,
    ) {
        let delegable = matches!(&local, Err(error) if is_delegable(error));
        if delegable && !self.links_named() {
            let backend = self.clone();
            return host.offload(Box::new(move || {
                let (outcome, state) =
                    run_chain(&backend.config.domain, &query, state, |_| local, &*backend);
                backend.end_chain(outcome, state, done);
            }));
        }
        let step = Chain::start(&self.config.domain, state, local, |_| {
            self.known_candidates(&query)
        });
        self.drive(host, query, step, done);
    }

    /// Drives a chain from `step` as far as completions take it.  A
    /// `Delegate` over a link a reactor session carries is written from
    /// this thread, and its reply's completion — on that session's I/O
    /// thread — folds the answer and drives the next step.  A step whose
    /// link no session carries (never dialed, dead, in redial backoff)
    /// finishes the chain on the redeem lane, blocking.
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
        let Some(peer) = self.link_for(&to).and_then(PeerLink::attached_conn) else {
            let backend = self.clone();
            return host.offload(Box::new(move || {
                let (outcome, state) = finish_chain(&query, Step::Delegate(chain, to), &*backend);
                backend.end_chain(outcome, state, done);
            }));
        };
        let (sent, ttl, visited) = (
            query.clone(),
            chain.state().ttl,
            chain.state().visited.clone(),
        );
        let (backend, host) = (self.clone(), host.clone());
        let conn = peer.conn.clone();
        conn.request_with(
            move |corr| ClientFrame::Delegate {
                corr,
                query: sent,
                ttl,
                visited,
            },
            move |reply| {
                let reply = backend.fold_delegated(&to, reply);
                if matches!(
                    &reply,
                    Err(PeerUnavailable {
                        transport: true,
                        ..
                    })
                ) {
                    backend.retire_peer(&to, &peer.conn);
                }
                let step = chain.on_reply(&to, reply);
                backend.drive(&host, query, step, done);
            },
        );
    }

    /// Ends a chain: records its routing state and hands the outcome over.
    fn end_chain(&self, outcome: QueryOutcome, state: RoutingState, done: DelegateDone) {
        *self.last_chain.lock() = Some(state.clone());
        done(outcome, state);
    }

    /// Settles a locally failed outcome by delegating the query to peers.
    fn federate_after_local_failure(
        &self,
        query: &str,
        local_error: AllocationError,
    ) -> QueryOutcome {
        let state = RoutingState::new(self.config.ttl);
        let (outcome, state) = run_chain(
            &self.config.domain,
            query,
            state,
            |_| Err(local_error),
            self,
        );
        *self.last_chain.lock() = Some(state);
        outcome
    }

    /// Resolves an inner outcome: delegable failures go to the federation
    /// (when this daemon has peers at all).
    fn settle(&self, query: &str, outcome: QueryOutcome) -> QueryOutcome {
        match outcome {
            Err(error) if is_delegable(&error) && !self.links.is_empty() => {
                self.federate_after_local_failure(query, error)
            }
            other => other,
        }
    }

    fn link_for(&self, domain: &str) -> Option<&PeerLink> {
        self.links
            .iter()
            .find(|link| link.last_domain.lock().as_deref() == Some(domain))
    }

    /// The pool names the query would map to (preference signal for
    /// candidate ordering; empty if the text does not parse).
    fn wanted_pools(&self, query: &str) -> Vec<String> {
        match actyp_query::parse_query(query) {
            Ok(parsed) => parsed
                .decompose(16)
                .iter()
                .map(|basic| actyp_query::PoolName::from_query(basic).full())
                .collect(),
            Err(_) => Vec::new(),
        }
    }

    /// Spends `ticket`, returning the wrapped backend's ticket behind it —
    /// for a closing session, which settles what its vanished client
    /// abandoned locally: nobody is left to use an allocation a peer would
    /// make, so delegating (and releasing hop by hop) would be pure churn.
    pub(crate) fn take_local(&self, ticket: Ticket) -> Option<Ticket> {
        self.take_ticket(ticket).ok().map(|pending| pending.inner)
    }

    /// Records an inner ticket with its query text (kept so a local
    /// failure can be delegated) under a fresh ticket of this backend.
    fn issue(&self, inner: Ticket, query: String) -> Ticket {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.tickets
            .lock()
            .insert(id, PendingTicket { inner, query });
        Ticket::from_parts(self.brand, id)
    }

    fn take_ticket(&self, ticket: Ticket) -> Result<PendingTicket, AllocationError> {
        if ticket.brand() != self.brand {
            return Err(AllocationError::UnknownTicket);
        }
        self.tickets
            .lock()
            .remove(&ticket.id())
            .ok_or(AllocationError::UnknownTicket)
    }
}

impl FederatedBackend {
    /// Folds a freshly learned advertisement (new connection on `link`)
    /// into the peer directory.  A redial replaces the peer's stale
    /// records wholesale — including under its *old* domain name, if the
    /// peer came back identifying as somebody else.
    fn note_fresh_advertisement(&self, link: &PeerLink, fresh: Option<PeerAdvertisement>) {
        let Some(adv) = fresh else { return };
        // A link that had a domain before this connect was *re*dialed —
        // the healthy-link regime the gossip plane exists to preserve
        // never pays this.
        if adv.previous_domain.is_some() {
            self.peer_redials.fetch_add(1, Ordering::Relaxed);
        }
        match &adv.previous_domain {
            Some(previous) if previous != &adv.domain => {
                // The peer came back identifying as a different domain:
                // retire the old name wholesale (directory records,
                // gossip origin, learned routes).
                self.retire_domain(previous);
            }
            _ => {}
        }
        self.record_peer_advertisement(&adv.domain, &adv.pools, link.addr.clone(), link.index);
        self.apply_gossip_deltas(&adv.deltas);
    }

    /// Whether every link has handshaken at least once, so its domain name
    /// is known and [`FederatedBackend::known_candidates`] misses nobody.
    fn links_named(&self) -> bool {
        self.links
            .iter()
            .all(|link| link.last_domain.lock().is_some())
    }

    /// Peer domains, peers advertising a pool the query maps to first —
    /// from the links' cached identities alone, so it never dials (and a
    /// link that never handshook is left out).
    ///
    /// A link is offered WITHOUT touching its connection mutex: the link
    /// may be busy carrying another chain's `Delegate` right now, and
    /// blocking on it here would distributed-deadlock two mutually peered
    /// daemons that delegate to each other at the same time.  Whether an
    /// offered link is *currently* reachable is discovered by the
    /// delegation itself.
    fn known_candidates(&self, query: &str) -> Vec<String> {
        let wanted = self.wanted_pools(query);
        let mut preferred = Vec::new();
        let mut rest = Vec::new();
        for link in &self.links {
            let Some(domain) = link.last_domain.lock().clone() else {
                continue;
            };
            let advertises_wanted = wanted.iter().any(|pool| {
                self.peer_directory
                    .instances(pool)
                    .iter()
                    .any(|r| r.manager == domain)
            });
            if advertises_wanted {
                preferred.push(domain);
            } else {
                rest.push(domain);
            }
        }
        preferred.extend(rest);
        // The learned route cache is a pure *reordering* on top of the
        // candidate list: a remembered next hop for a pool the query maps
        // to is moved to the front.  Membership never changes, so every
        // TTL/visited invariant of the uncached walk holds as-is, and a
        // stale hit costs at most one wasted first probe.
        if !wanted.is_empty() && self.route_cache.enabled() {
            let learned = wanted
                .iter()
                .find_map(|pool| self.route_cache.next_hop(pool));
            if let Some(hop) = learned {
                if let Some(pos) = preferred.iter().position(|d| *d == hop) {
                    let hop = preferred.remove(pos);
                    preferred.insert(0, hop);
                }
            }
        }
        preferred
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
                self.apply_gossip_deltas(&deltas);
                if let Ok(allocations) = &outcome {
                    // Remember which domain every remote allocation must be
                    // released through; the next repeat query for the same
                    // pool goes straight to this hop.
                    let mut leases = self.remote_leases.lock();
                    for allocation in allocations {
                        leases.insert(allocation.access_key.0.clone(), domain.to_string());
                        self.route_cache.learn(&allocation.pool, domain);
                    }
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

    /// Settles a remote release by the peer's answer.  The lease mapping
    /// is only consumed once the release is truly settled: dropping it up
    /// front would orphan the allocation's routing if the peer answers
    /// with a transient error, leaving the client no way to retry.  The
    /// second half says whether the peer died, so the caller retires it.
    fn settle_release(
        &self,
        key: &str,
        reply: Result<ServerFrame, ConnError>,
    ) -> (Result<(), AllocationError>, bool) {
        let settled = |result| {
            self.remote_leases.lock().remove(key);
            result
        };
        match reply {
            Ok(ServerFrame::Released { .. }) => (settled(Ok(())), false),
            // A double release is settled (drop the mapping); any other
            // failure keeps it so a retry still routes to the owning
            // domain.
            Ok(ServerFrame::Error { error, .. }) if error == AllocationError::UnknownAllocation => {
                (settled(Err(error)), false)
            }
            Ok(ServerFrame::Error { error, .. }) => (Err(error), false),
            Ok(other) => (
                Err(AllocationError::Protocol(format!(
                    "expected Released, got {other:?}"
                ))),
                false,
            ),
            // Refused before a byte left: nothing changed on either side,
            // so the mapping stays and a retry still routes here.
            Err(ConnError::Refused(message)) => (Err(AllocationError::Protocol(message)), false),
            // The peer died holding the lease: its session teardown hands
            // the allocation back on that side, so the release is done as
            // far as this daemon can tell.
            Err(_) => (settled(Ok(())), true),
        }
    }

    /// Prunes a dead peer's pools from the peer directory, so its stale
    /// records stop being routable.
    fn prune_peer(&self, domain: &str) {
        self.peer_directory.unregister_pool_manager(domain);
        // Routes through the dead hop are unusable, and what it acked is
        // moot — after the redial the handshake resyncs from scratch.
        self.route_cache.invalidate_next_hop(domain);
        self.gossip.retire_peer(domain);
    }

    /// [`PeerDelegator::peer_failed`] for a completion, which must not take
    /// the link's slot lock (it is held across dials): `conn` is poisoned
    /// and shut instead, and the next `ensure_conn` sees it dead.
    fn retire_peer(&self, domain: &str, conn: &Conn) {
        conn.shutdown();
        self.prune_peer(domain);
    }
}

impl PeerDelegator for FederatedBackend {
    /// Peer domains, peers advertising a pool the query maps to first,
    /// after dialing every link that never handshook — that is how its
    /// domain name becomes known at all.
    fn candidates(&self, query: &str, _state: &RoutingState) -> Vec<String> {
        for link in &self.links {
            let unnamed = link.last_domain.lock().is_none();
            if unnamed {
                if let Ok((_, fresh)) = self.connect(link) {
                    self.note_fresh_advertisement(link, fresh);
                }
            }
        }
        self.known_candidates(query)
    }

    fn delegate(
        &self,
        domain: &str,
        query: &str,
        state: &RoutingState,
    ) -> Result<(QueryOutcome, RoutingState), PeerUnavailable> {
        let link = self.link_for(domain).ok_or_else(|| PeerUnavailable {
            transport: true,
            reason: format!("no link to domain `{domain}`"),
        })?;
        let ttl = state.ttl;
        let visited = state.visited.clone();
        let sent = link.request(
            &self.config.domain,
            || self.sync_payload(),
            |conn| self.attach_conn(conn),
            |corr| ClientFrame::Delegate {
                corr,
                query: query.to_string(),
                ttl,
                visited,
            },
        );
        let reply = sent.map(|(reply, fresh)| {
            // A reconnect mid-delegation re-learns the peer's
            // advertisement.
            self.note_fresh_advertisement(link, fresh);
            reply
        });
        self.fold_delegated(domain, reply)
    }

    /// Drops the link and prunes the dead peer's pools from the peer
    /// directory.
    fn peer_failed(&self, domain: &str) {
        if let Some(link) = self.link_for(domain) {
            link.disconnect();
        }
        self.prune_peer(domain);
    }
}

impl ResourceManager for FederatedBackend {
    fn submit(&self, query: actyp_query::Query) -> Result<Ticket, AllocationError> {
        let rendered = query.to_string();
        let inner = self.inner.submit(query)?;
        Ok(self.issue(inner, rendered))
    }

    /// Submission is always local first: a served backend forwards to the
    /// wrapped backend's `submit_with`.
    fn submit_with(
        &self,
        query: actyp_query::Query,
        done: SubmitDone,
    ) -> Result<(), (actyp_query::Query, SubmitDone)> {
        let Some((backend, _)) = self.served() else {
            return Err((query, done));
        };
        let rendered = query.to_string();
        lend(
            done,
            |lent| -> SubmitDone {
                Box::new(move |submitted| {
                    if let Some(done) = lent.lock().take() {
                        done(submitted.map(|inner| backend.issue(inner, rendered)));
                    }
                })
            },
            |submitted| self.inner.submit_with(query, submitted),
        )
        .map_err(|((query, _), done)| (query, done))
    }

    /// Batches forward to the inner backend's own batch submission, so an
    /// over-window batch gets the same deadline-bounded backpressure on a
    /// federated daemon as on a plain one (the default per-query path
    /// would block in the window with no bound).  Every issued ticket
    /// still records its query text for later delegation.
    fn submit_batch(
        &self,
        queries: Vec<actyp_query::Query>,
    ) -> Result<Vec<Ticket>, AllocationError> {
        let rendered: Vec<String> = queries.iter().map(|q| q.to_string()).collect();
        let inner = self.inner.submit_batch(queries)?;
        Ok(inner
            .into_iter()
            .zip(rendered)
            .map(|(inner, query)| self.issue(inner, query))
            .collect())
    }

    fn wait(&self, ticket: Ticket) -> QueryOutcome {
        let pending = self.take_ticket(ticket)?;
        let outcome = self.inner.wait(pending.inner);
        self.settle(&pending.query, outcome)
    }

    /// Bounded on the *local* wait only: once the local outcome is known,
    /// a delegable failure still triggers the (network-bound) federation
    /// chain, which may run past the deadline — the alternative would be
    /// to fail a query a peer could have satisfied.
    fn wait_deadline(&self, ticket: Ticket, timeout: Duration) -> Option<QueryOutcome> {
        let pending = match self.take_ticket(ticket) {
            Ok(pending) => pending,
            Err(error) => return Some(Err(error)),
        };
        match self.inner.wait_deadline(pending.inner, timeout) {
            Some(outcome) => Some(self.settle(&pending.query, outcome)),
            None => {
                // Local deadline elapsed: the ticket stays redeemable.
                self.tickets.lock().insert(ticket.id(), pending);
                None
            }
        }
    }

    /// Non-blocking on the local backend; a delegable local failure is
    /// settled through the federation inline (see
    /// [`wait_deadline`](Self::wait_deadline) on why).
    fn try_poll(&self, ticket: Ticket) -> Option<QueryOutcome> {
        if ticket.brand() != self.brand {
            return Some(Err(AllocationError::UnknownTicket));
        }
        let mut tickets = self.tickets.lock();
        // A spent or forged ticket id is an *answer*, not a pending query.
        let Some(pending) = tickets.get(&ticket.id()) else {
            return Some(Err(AllocationError::UnknownTicket));
        };
        let outcome = self.inner.try_poll(pending.inner)?;
        let pending = tickets.remove(&ticket.id()).expect("entry just read");
        drop(tickets);
        Some(self.settle(&pending.query, outcome))
    }

    /// On a served backend with peers, the local outcome goes through the
    /// wrapped backend's own `wait_with`, and whichever thread delivers it
    /// — this one on a hit, the stage that produces it otherwise — runs
    /// `done` with a final outcome, or continues a delegable failure as a
    /// chain of completions ([`FederatedBackend::delegate_with`] has the
    /// same shape).  Without peers the local outcome is final.  Without a
    /// serving daemon, or when the wrapped backend cannot wait from here,
    /// `done` is handed back and the ticket left as it was.
    fn wait_with(&self, ticket: Ticket, done: WaitDone) -> Result<(), WaitDone> {
        let served = match self.links.is_empty() {
            true => None,
            false => match self.served() {
                Some(served) => Some(served),
                None => return Err(done),
            },
        };
        let pending = match self.take_ticket(ticket) {
            Ok(pending) => pending,
            Err(error) => {
                done(Err(error));
                return Ok(());
            }
        };
        let inner = pending.inner;
        let Some((backend, host)) = served else {
            return self.inner.wait_with(inner, done).inspect_err(|_| {
                self.tickets.lock().insert(ticket.id(), pending);
            });
        };
        lend(
            (done, pending.query),
            |lent| -> WaitDone {
                Box::new(move |outcome| {
                    let Some((done, query)) = lent.lock().take() else {
                        return;
                    };
                    match outcome {
                        Err(error) if is_delegable(&error) => {
                            let state = RoutingState::new(backend.config.ttl);
                            let finish: DelegateDone = Box::new(move |outcome, _| done(outcome));
                            backend.federate(&host, query, state, Err(error), finish);
                        }
                        final_outcome => done(final_outcome),
                    }
                })
            },
            |local| self.inner.wait_with(inner, local),
        )
        .map_err(|(_, (done, query))| {
            self.tickets
                .lock()
                .insert(ticket.id(), PendingTicket { inner, query });
            done
        })
    }

    fn release(&self, allocation: &Allocation) -> Result<(), AllocationError> {
        let peer = self
            .remote_leases
            .lock()
            .get(&allocation.access_key.0)
            .cloned();
        let Some(domain) = peer else {
            return self.inner.release(allocation);
        };
        let Some(link) = self.link_for(&domain) else {
            // The link is gone entirely; the peer's session teardown has
            // already reclaimed the allocation on its side.
            self.remote_leases.lock().remove(&allocation.access_key.0);
            return Ok(());
        };
        let sent = link.request(
            &self.config.domain,
            || self.sync_payload(),
            |conn| self.attach_conn(conn),
            |corr| ClientFrame::Release {
                corr,
                allocation: allocation.clone(),
            },
        );
        let (released, peer_died) =
            self.settle_release(&allocation.access_key.0, sent.map(|(reply, _)| reply));
        if peer_died {
            self.peer_failed(&domain);
        }
        released
    }

    /// A lease this daemon holds itself is released by the wrapped
    /// backend's own `release_with`.  A delegated one, on a served backend
    /// whose link to the owning domain a reactor session carries, is a
    /// `Release` written from this thread whose reply's completion — on the
    /// link's I/O thread — settles the lease mapping and runs `done`.
    /// Anything else (no serving daemon, a link no session carries) hands
    /// `done` back to be released where parking is allowed.
    fn release_with(&self, allocation: &Allocation, done: ReleaseDone) -> Result<(), ReleaseDone> {
        let peer = self
            .remote_leases
            .lock()
            .get(&allocation.access_key.0)
            .cloned();
        let Some(domain) = peer else {
            return self.inner.release_with(allocation, done);
        };
        let Some((backend, _)) = self.served() else {
            return Err(done);
        };
        let Some(peer) = self.link_for(&domain).and_then(PeerLink::attached_conn) else {
            return Err(done);
        };
        let key = allocation.access_key.0.clone();
        let allocation = allocation.clone();
        let conn = peer.conn.clone();
        conn.request_with(
            move |corr| ClientFrame::Release { corr, allocation },
            move |reply| {
                let (released, peer_died) = backend.settle_release(&key, reply);
                if peer_died {
                    backend.retire_peer(&domain, &peer.conn);
                }
                done(released);
            },
        );
        Ok(())
    }

    fn stats(&self) -> StatsSnapshot {
        let mut stats = self.inner.stats();
        stats.delegations_out = self.delegations_out.load(Ordering::Relaxed);
        stats.delegations_in = self.delegations_in.load(Ordering::Relaxed);
        stats.in_flight = self.tickets.lock().len();
        stats.gossip_deltas_in = self.gossip.deltas_in();
        stats.gossip_deltas_out = self.gossip.deltas_out();
        stats.route_hits = self.route_cache.hits();
        stats.route_misses = self.route_cache.misses();
        stats.peer_redials = self.peer_redials.load(Ordering::Relaxed);
        // The inner backend already reported its own shard contention;
        // fold in the federated layer's peer-directory shards.
        stats.shard_contention = stats
            .shard_contention
            .saturating_add(self.peer_directory.contention());
        stats
    }

    fn shutdown(&self) -> Result<(), AllocationError> {
        if !self.closed.swap(true, Ordering::SeqCst) {
            for link in &self.links {
                link.disconnect();
            }
        }
        self.inner.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NoPeers;
    impl PeerDelegator for NoPeers {
        fn candidates(&self, _query: &str, _state: &RoutingState) -> Vec<String> {
            Vec::new()
        }
        fn delegate(
            &self,
            _domain: &str,
            _query: &str,
            _state: &RoutingState,
        ) -> Result<(QueryOutcome, RoutingState), PeerUnavailable> {
            unreachable!("no peers to delegate to")
        }
    }

    #[test]
    fn chain_with_no_peers_returns_the_local_failure() {
        let (outcome, state) = run_chain(
            "a",
            "q",
            RoutingState::new(4),
            |_| Err(AllocationError::NoSuchResources),
            &NoPeers,
        );
        assert_eq!(outcome.unwrap_err(), AllocationError::NoSuchResources);
        assert_eq!(state.ttl, 3);
        assert_eq!(state.visited, vec!["a".to_string()]);
    }

    #[test]
    fn chain_with_zero_ttl_expires_without_local_work() {
        let (outcome, _) = run_chain(
            "a",
            "q",
            RoutingState::new(0),
            |_| panic!("local backend must not run"),
            &NoPeers,
        );
        assert_eq!(outcome.unwrap_err(), AllocationError::TtlExpired);
    }

    #[test]
    fn non_delegable_failures_stop_the_chain() {
        let (outcome, _) = run_chain(
            "a",
            "q",
            RoutingState::new(8),
            |_| Err(AllocationError::Parse("bad".into())),
            &NoPeers,
        );
        assert!(matches!(outcome, Err(AllocationError::Parse(_))));
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
        backoff.note_success();
        assert!(backoff.permits(now), "success resets the discipline");
        backoff.note_failure(now);
        assert_eq!(
            backoff.wait, PEER_REDIAL_BACKOFF,
            "and the wait restarts at base"
        );
    }
}
