//! The unified client surface: one [`ResourceManager`] trait over every
//! deployment of the pipeline, with ticket-based pipelined submission.
//!
//! The paper's central claim is that the *same* pipeline stages can be
//! deployed embedded, distributed/replicated, or simulated.  This module is
//! the seam that makes the claim visible to clients: a single trait served
//! by five backends —
//!
//! | backend | constructor | what it is |
//! |---|---|---|
//! | [`EmbeddedBackend`] | [`PipelineBuilder::build_embedded`] | the synchronous [`Engine`] in one address space |
//! | [`LiveBackend`] | [`PipelineBuilder::build_live`] | [`LivePipeline`], every stage on its own thread, with a bounded in-flight window |
//! | [`CentralQueueBackend`] | [`PipelineBuilder::build_central_queue`] | the PBS/SGE-style centralized multi-queue scheduler baseline |
//! | [`MatchmakerBackend`] | [`PipelineBuilder::build_matchmaker`] | the Condor-style centralized matchmaker baseline |
//! | [`RemoteBackend`] | [`PipelineBuilder::remote`] | a client of the `ypd` daemon: the same surface across a TCP hop, speaking the [`actyp_proto`] wire protocol (serve any backend with [`PipelineBuilder::serve`]) |
//!
//! Submission is *ticket based*: [`ResourceManager::submit`] returns a
//! [`Ticket`] immediately and [`ResourceManager::wait`] /
//! [`ResourceManager::try_poll`] redeem it later.  On the live backend this
//! makes the paper's pipelining real for a single client — N submitted
//! tickets overlap across the query-manager, pool-manager and pool stages —
//! while the embedded and baseline backends resolve tickets eagerly, so the
//! same client code runs against every architecture.  A
//! [`StatsSnapshot`] unifies the per-stage counters all backends report.
//!
//! # Example
//!
//! ```
//! use actyp_grid::{FleetSpec, SyntheticFleet};
//! use actyp_pipeline::api::{BackendKind, PipelineBuilder, ResourceManager};
//!
//! let db = SyntheticFleet::new(FleetSpec::with_machines(200), 42)
//!     .generate()
//!     .into_shared();
//! let manager = PipelineBuilder::new()
//!     .database(db)
//!     .build(BackendKind::Embedded)
//!     .unwrap();
//!
//! // Submit two queries, then redeem the tickets.
//! let first = manager.submit_text("punch.rsrc.arch = sun\n").unwrap();
//! let second = manager.submit_text("punch.rsrc.arch = hp\n").unwrap();
//! let sun = manager.wait(first).unwrap();
//! let hp = manager.wait(second).unwrap();
//! assert!(sun[0].machine_name.contains("sun"));
//! assert!(hp[0].machine_name.contains("hp"));
//!
//! for allocation in sun.iter().chain(hp.iter()) {
//!     manager.release(allocation).unwrap();
//! }
//! assert_eq!(manager.stats().releases, 2);
//! manager.shutdown().unwrap();
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Condvar;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use actyp_baselines::{CentralScheduler, Matchmaker};
use actyp_grid::{MachineId, ResourceDatabase, SharedDatabase};
use actyp_query::{BasicQuery, PoolName, Query};

use crate::allocation::{Allocation, AllocationError, ReleaseDone, SessionKey, WaitDone};
use crate::engine::{Engine, EngineStats, PipelineConfig};
use crate::live::{LivePipeline, OutcomeSlot};
use crate::message::{RequestId, StageAddress};
use crate::pool_manager::InstanceSelection;
use crate::query_manager::{PoolManagerSelection, ReintegrationPolicy};
use crate::scheduler::SchedulingObjective;

pub use crate::client::RemoteBackend;
pub use crate::reactor::PollerKind;
pub use crate::server::{ServerConfig, ServerHandle};
pub use actyp_proto::types::StatsSnapshot;

/// The outcome a ticket resolves to.
pub type QueryOutcome = Result<Vec<Allocation>, AllocationError>;

/// Federated domains: one pool manager per `(name, database)` pair.
pub type DomainList = Vec<(String, SharedDatabase)>;

/// Process-wide counter branding every backend instance, so a ticket
/// redeemed on a different manager than the one that issued it is detected
/// instead of silently resolving to another query's outcome.
static BACKEND_BRANDS: AtomicU64 = AtomicU64::new(0);

pub(crate) fn next_backend_brand() -> u64 {
    BACKEND_BRANDS.fetch_add(1, Ordering::Relaxed)
}

/// Handle to one submitted query; redeem it with
/// [`ResourceManager::wait`] or [`ResourceManager::try_poll`].
///
/// Tickets are branded with the issuing backend instance: redeeming one on
/// a different manager fails with [`AllocationError::UnknownTicket`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket {
    brand: u64,
    id: u64,
}

impl Ticket {
    /// The ticket's backend-local identifier (diagnostics).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The issuing backend's brand (ticket-forgery checks).
    pub(crate) fn brand(&self) -> u64 {
        self.brand
    }

    /// Rebuilds a ticket from its parts (used by the remote backend, whose
    /// ticket ids are issued by the server).
    pub(crate) fn from_parts(brand: u64, id: u64) -> Self {
        Ticket { brand, id }
    }
}

/// Which deployment a [`PipelineBuilder`] should construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The embedded, synchronous pipeline ([`Engine`]).
    Embedded,
    /// The threaded pipeline ([`LivePipeline`]), one thread per stage.
    Live,
    /// The centralized multi-queue scheduler baseline.
    CentralQueue,
    /// The centralized matchmaker baseline.
    Matchmaker,
}

impl BackendKind {
    /// Every backend, in the order the comparison figures use.
    pub const ALL: [BackendKind; 4] = [
        BackendKind::Embedded,
        BackendKind::Live,
        BackendKind::CentralQueue,
        BackendKind::Matchmaker,
    ];
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            BackendKind::Embedded => "embedded",
            BackendKind::Live => "live",
            BackendKind::CentralQueue => "central-queue",
            BackendKind::Matchmaker => "matchmaker",
        };
        f.write_str(name)
    }
}

/// Folds an [`EngineStats`] (shared by the embedded and live pipelines)
/// into the unified [`StatsSnapshot`] the trait reports.  The snapshot type
/// itself lives in [`actyp_proto`] — it crosses the wire verbatim.
fn snapshot_from_engine(
    stats: EngineStats,
    records_examined: u64,
    in_flight: usize,
) -> StatsSnapshot {
    StatsSnapshot {
        requests: stats.requests,
        fragments: stats.fragments,
        allocations: stats.allocations,
        failures: stats.failures,
        delegations: stats.delegations,
        forwards: stats.forwards,
        // WAN federation counters belong to the federated daemon wrapper
        // (`crate::federation::FederatedBackend`), not to an in-process
        // engine.
        delegations_out: 0,
        delegations_in: 0,
        releases: stats.releases,
        records_examined,
        in_flight,
        gossip_deltas_in: 0,
        gossip_deltas_out: 0,
        route_hits: 0,
        route_misses: 0,
        peer_redials: 0,
        // The sharded backends overlay their own contention count on the
        // snapshot after this fold; the transport batching counters are
        // owned by the daemon's reactor and overlaid server-side.
        shard_contention: 0,
        frames_batched: 0,
        writes_coalesced: 0,
    }
}

/// The one client surface over every deployment of the resource manager.
///
/// All methods take `&self`; backends use interior mutability (embedded,
/// baselines) or channels (live), so a manager can be shared across client
/// threads behind an `Arc` without an external lock.
pub trait ResourceManager: Send + Sync {
    /// Submits a query, returning a ticket for the eventual outcome.
    ///
    /// On the live backend the query is launched into the pipeline and this
    /// returns immediately (blocking only when the in-flight window is
    /// full); the embedded and baseline backends resolve the query eagerly
    /// and the ticket redeems instantly.
    fn submit(&self, query: Query) -> Result<Ticket, AllocationError>;

    /// [`submit`](Self::submit) for a caller that must not park — a `ypd`
    /// I/O thread answering the frame on the spot.  `Ok` carries what
    /// `submit` would have returned; `Err` hands the query back untouched
    /// because submitting it now could park, and the caller takes it to a
    /// thread that may.  The default always hands it back: that is right
    /// for the eager backends, whose `submit` *is* the whole computation,
    /// and for the remote one, whose `submit` is a network round trip.
    fn try_submit(&self, query: Query) -> Result<Result<Ticket, AllocationError>, Query> {
        Err(query)
    }

    /// Blocks until the ticket's query finishes and returns its outcome.
    /// Each ticket can be redeemed exactly once.
    fn wait(&self, ticket: Ticket) -> QueryOutcome;

    /// [`wait`](Self::wait) for a caller that must not park — a `ypd` I/O
    /// thread.  `Ok` means the ticket is redeemed and `done` receives its
    /// outcome on whichever thread finds the two together: right here when
    /// the outcome is already in, the stage that produces it otherwise.
    /// `Err` hands `done` back uncalled (the ticket untouched) because
    /// waiting from here could park, and the caller takes
    /// [`wait`](Self::wait) to a thread that may.  The default always
    /// hands it back, which is right for the remote and federated backends,
    /// whose wait can be a network round trip; the live backend leaves
    /// `done` in the ticket for the query-manager stage that reintegrates
    /// the outcome, and the eager backends, whose tickets are resolved at
    /// submission, finish on the spot.
    fn wait_with(&self, _ticket: Ticket, done: WaitDone) -> Result<(), WaitDone> {
        Err(done)
    }

    /// Non-blocking redemption: `None` while the query is still in flight,
    /// `Some(outcome)` once it finished (the ticket is then spent).
    fn try_poll(&self, ticket: Ticket) -> Option<QueryOutcome>;

    /// Bounded redemption: blocks up to `timeout` for the outcome.  Returns
    /// `None` if the deadline elapses first — the ticket then remains
    /// redeemable.  The default implementation polls; the remote backend
    /// ships the deadline to the server instead, so the wait (and its
    /// timeout) happen one network hop away.
    fn wait_deadline(&self, ticket: Ticket, timeout: Duration) -> Option<QueryOutcome> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(outcome) = self.try_poll(ticket) {
                return Some(outcome);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            std::thread::sleep((deadline - now).min(Duration::from_micros(200)));
        }
    }

    /// Releases an allocation back to the resource manager.
    fn release(&self, allocation: &Allocation) -> Result<(), AllocationError>;

    /// [`release`](Self::release) for a caller that must not park — a
    /// `ypd` I/O thread.  `Ok` means the release is under way (or done) and
    /// `done` receives its result on whichever thread finishes it; `Err`
    /// hands `done` back uncalled because releasing this allocation from
    /// here could park, and the caller takes [`release`](Self::release) to
    /// a thread that may.  The default always hands it back, which is
    /// right for the remote and federated backends, whose release can be a
    /// network round trip; the live backend posts `done` from the
    /// pool-manager thread that drops the lease, and the eager backends,
    /// whose release is a short in-memory step, finish on the spot.
    fn release_with(&self, _allocation: &Allocation, done: ReleaseDone) -> Result<(), ReleaseDone> {
        Err(done)
    }

    /// A snapshot of the backend's lifetime counters.
    fn stats(&self) -> StatsSnapshot;

    /// Tears the backend down.  The live backend joins every stage thread
    /// and surfaces worker panics here; the others are no-ops.  Idempotent.
    fn shutdown(&self) -> Result<(), AllocationError>;

    /// Submits a query written in the native key/value text format.
    fn submit_text(&self, text: &str) -> Result<Ticket, AllocationError> {
        let query =
            actyp_query::parse_query(text).map_err(|e| AllocationError::Parse(e.to_string()))?;
        self.submit(query)
    }

    /// Submits a batch of queries, returning one ticket per query.  On the
    /// live backend the whole batch is in flight at once; a batch that
    /// cannot fit in the in-flight window alongside the outstanding tickets
    /// is rejected rather than deadlocking the caller.
    ///
    /// The batch is all-or-nothing: if a submission fails mid-batch, the
    /// tickets already issued for it are settled internally and their
    /// allocations released, so no in-flight slot or machine claim leaks,
    /// and the error is returned.
    fn submit_batch(&self, queries: Vec<Query>) -> Result<Vec<Ticket>, AllocationError> {
        submit_batch_cancelling(self, queries)
    }

    /// Convenience: submit one query and block for its outcome.
    fn submit_wait(&self, query: &Query) -> QueryOutcome {
        let ticket = self.submit(query.clone())?;
        self.wait(ticket)
    }

    /// Convenience: submit one text query and block for its outcome.
    fn submit_text_wait(&self, text: &str) -> QueryOutcome {
        let ticket = self.submit_text(text)?;
        self.wait(ticket)
    }
}

/// A shared manager is a manager: every method (including the provided
/// ones, so backend overrides like the remote batch submission are
/// preserved) forwards to the pointee.  This is what lets one backend
/// instance be hosted behind a server *and* kept by the caller — e.g. a
/// federated daemon, which is simultaneously the served manager and the
/// target of incoming peer delegations.
impl<T: ResourceManager + ?Sized> ResourceManager for std::sync::Arc<T> {
    fn submit(&self, query: Query) -> Result<Ticket, AllocationError> {
        (**self).submit(query)
    }
    fn try_submit(&self, query: Query) -> Result<Result<Ticket, AllocationError>, Query> {
        (**self).try_submit(query)
    }
    fn wait(&self, ticket: Ticket) -> QueryOutcome {
        (**self).wait(ticket)
    }
    fn wait_with(&self, ticket: Ticket, done: WaitDone) -> Result<(), WaitDone> {
        (**self).wait_with(ticket, done)
    }
    fn try_poll(&self, ticket: Ticket) -> Option<QueryOutcome> {
        (**self).try_poll(ticket)
    }
    fn wait_deadline(&self, ticket: Ticket, timeout: Duration) -> Option<QueryOutcome> {
        (**self).wait_deadline(ticket, timeout)
    }
    fn release(&self, allocation: &Allocation) -> Result<(), AllocationError> {
        (**self).release(allocation)
    }
    fn release_with(&self, allocation: &Allocation, done: ReleaseDone) -> Result<(), ReleaseDone> {
        (**self).release_with(allocation, done)
    }
    fn stats(&self) -> StatsSnapshot {
        (**self).stats()
    }
    fn shutdown(&self) -> Result<(), AllocationError> {
        (**self).shutdown()
    }
    fn submit_text(&self, text: &str) -> Result<Ticket, AllocationError> {
        (**self).submit_text(text)
    }
    fn submit_batch(&self, queries: Vec<Query>) -> Result<Vec<Ticket>, AllocationError> {
        (**self).submit_batch(queries)
    }
    fn submit_wait(&self, query: &Query) -> QueryOutcome {
        (**self).submit_wait(query)
    }
    fn submit_text_wait(&self, text: &str) -> QueryOutcome {
        (**self).submit_text_wait(text)
    }
}

/// Shared all-or-nothing batch submission: on a mid-batch failure every
/// already-issued ticket is settled and its allocations are handed back, so
/// the caller never loses tickets it cannot redeem (and, on the live
/// backend, no window permit stays captive).
fn submit_batch_cancelling<M: ResourceManager + ?Sized>(
    manager: &M,
    queries: Vec<Query>,
) -> Result<Vec<Ticket>, AllocationError> {
    let mut tickets = Vec::with_capacity(queries.len());
    for query in queries {
        match manager.submit(query) {
            Ok(ticket) => tickets.push(ticket),
            Err(e) => {
                for ticket in tickets {
                    if let Ok(allocations) = manager.wait(ticket) {
                        for a in &allocations {
                            let _ = manager.release(a);
                        }
                    }
                }
                return Err(e);
            }
        }
    }
    Ok(tickets)
}

/// Store of eagerly resolved tickets (embedded and baseline backends).
struct ReadyTickets {
    brand: u64,
    next: AtomicU64,
    ready: Mutex<HashMap<u64, QueryOutcome>>,
}

impl ReadyTickets {
    fn new() -> Self {
        ReadyTickets {
            brand: next_backend_brand(),
            next: AtomicU64::new(0),
            ready: Mutex::new(HashMap::new()),
        }
    }

    fn issue(&self, outcome: QueryOutcome) -> Ticket {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.ready.lock().insert(id, outcome);
        Ticket {
            brand: self.brand,
            id,
        }
    }

    fn take(&self, ticket: Ticket) -> QueryOutcome {
        if ticket.brand != self.brand {
            return Err(AllocationError::UnknownTicket);
        }
        self.ready
            .lock()
            .remove(&ticket.id)
            .unwrap_or(Err(AllocationError::UnknownTicket))
    }

    fn len(&self) -> usize {
        self.ready.lock().len()
    }
}

/// A counting semaphore bounding the live backend's in-flight window: one
/// atomic permit count, taken and returned without a lock, plus a condvar
/// that only acquirers who found the window full ever touch.
///
/// Every permit is the same permit, so a released one is visible to every
/// acquirer at once — there is no idle lane for capacity to hide in and
/// nothing to rescan on a timer: a parked acquirer sleeps until a release
/// notifies it (or its deadline passes).
struct Window {
    capacity: usize,
    permits: AtomicUsize,
    /// Acquirers parked (or about to park) on `freed`; a release takes the
    /// lock and notifies only when this is non-zero.
    waiters: AtomicUsize,
    parking: std::sync::Mutex<()>,
    freed: Condvar,
    /// Acquires that found the window full and had to park.
    contention: AtomicU64,
}

impl Window {
    fn new(permits: usize) -> Self {
        let capacity = permits.max(1);
        Window {
            capacity,
            permits: AtomicUsize::new(capacity),
            waiters: AtomicUsize::new(0),
            parking: std::sync::Mutex::new(()),
            freed: Condvar::new(),
            contention: AtomicU64::new(0),
        }
    }

    /// Takes a permit if one is free; never parks.
    fn try_acquire(&self) -> bool {
        self.permits
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |free| {
                free.checked_sub(1)
            })
            .is_ok()
    }

    /// Acquires a permit, blocking until one frees.
    fn acquire(&self) {
        let acquired = self.acquire_until(None);
        debug_assert!(acquired, "an unbounded acquire cannot time out");
    }

    /// Acquires a permit, giving up at `deadline` (`None`: never).  Returns
    /// whether a permit was taken — the deadline-bounded backpressure batch
    /// submission applies instead of blocking indefinitely.
    fn acquire_until(&self, deadline: Option<Instant>) -> bool {
        if self.try_acquire() {
            return true;
        }
        self.contention.fetch_add(1, Ordering::Relaxed);
        // Announce the wait *before* the re-check, under the lock a release
        // notifies under: a release either sees the waiter (and notifies
        // once this thread is inside `wait`) or happened before the
        // re-check, which then finds its permit.
        let mut guard = self.parking.lock().expect("window lock");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let acquired = loop {
            if self.try_acquire() {
                break true;
            }
            guard = match deadline {
                None => self.freed.wait(guard).expect("window lock"),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        break false;
                    }
                    self.freed
                        .wait_timeout(guard, deadline - now)
                        .expect("window lock")
                        .0
                }
            };
        };
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        acquired
    }

    fn release(&self) {
        self.permits.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            // Taking the lock orders this notify after the waiter's
            // re-check-then-wait, so the wake-up cannot fall in between.
            let _guard = self.parking.lock().expect("window lock");
            self.freed.notify_one();
        }
    }

    /// Acquires that found the window full and had to park.
    fn contention(&self) -> u64 {
        self.contention.load(Ordering::Relaxed)
    }
}

/// The embedded [`Engine`] behind the unified surface.
///
/// Queries are resolved synchronously at submission; tickets redeem
/// instantly.  The engine itself uses interior mutability, so the backend is
/// freely shareable across threads.
pub struct EmbeddedBackend {
    engine: Engine,
    tickets: ReadyTickets,
    examined: AtomicU64,
}

impl EmbeddedBackend {
    fn new(engine: Engine) -> Self {
        EmbeddedBackend {
            engine,
            tickets: ReadyTickets::new(),
            examined: AtomicU64::new(0),
        }
    }

    /// The underlying engine, for inspection the trait does not cover
    /// (directory contents, pool-manager manipulation in experiments).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

impl ResourceManager for EmbeddedBackend {
    fn submit(&self, query: Query) -> Result<Ticket, AllocationError> {
        let outcome = self.engine.submit(&query);
        if let Ok(allocations) = &outcome {
            let examined: u64 = allocations.iter().map(|a| a.examined as u64).sum();
            self.examined.fetch_add(examined, Ordering::Relaxed);
        }
        Ok(self.tickets.issue(outcome))
    }

    fn wait(&self, ticket: Ticket) -> QueryOutcome {
        self.tickets.take(ticket)
    }

    fn wait_with(&self, ticket: Ticket, done: WaitDone) -> Result<(), WaitDone> {
        done(self.tickets.take(ticket));
        Ok(())
    }

    fn try_poll(&self, ticket: Ticket) -> Option<QueryOutcome> {
        // Eager backend: every issued ticket is already resolved.
        Some(self.tickets.take(ticket))
    }

    fn release(&self, allocation: &Allocation) -> Result<(), AllocationError> {
        self.engine.release(allocation)
    }

    fn release_with(&self, allocation: &Allocation, done: ReleaseDone) -> Result<(), ReleaseDone> {
        done(self.release(allocation));
        Ok(())
    }

    fn stats(&self) -> StatsSnapshot {
        let mut snapshot = snapshot_from_engine(
            self.engine.stats(),
            self.examined.load(Ordering::Relaxed),
            self.tickets.len(),
        );
        snapshot.shard_contention = self.engine.directory().contention();
        snapshot
    }

    fn shutdown(&self) -> Result<(), AllocationError> {
        Ok(())
    }
}

/// The threaded [`LivePipeline`] behind the unified surface.
///
/// Submission launches the query into the pipeline and returns immediately;
/// up to `window` tickets are in flight at once and further submissions
/// block until one is redeemed — the backpressure that keeps a fast client
/// from flooding the stage channels.
pub struct LiveBackend {
    pipeline: LivePipeline,
    brand: u64,
    next: AtomicU64,
    /// Outstanding tickets, sharded by ticket id; each holds one window
    /// permit until it settles.
    pending: crate::shard::ShardedMap<std::sync::Arc<OutcomeSlot>>,
    ledger: std::sync::Arc<Ledger>,
    batch_deadline: Duration,
}

/// What settling a ticket touches — the window permit it held and the
/// examined-records count — shared with the completions a stage thread
/// runs for [`ResourceManager::wait_with`].
struct Ledger {
    window: Window,
    examined: AtomicU64,
}

impl Ledger {
    fn settle(&self, outcome: &QueryOutcome) {
        if let Ok(allocations) = outcome {
            let examined: u64 = allocations.iter().map(|a| a.examined as u64).sum();
            self.examined.fetch_add(examined, Ordering::Relaxed);
        }
        self.window.release();
    }
}

impl LiveBackend {
    fn new(pipeline: LivePipeline, window: usize, batch_deadline: Duration, shards: usize) -> Self {
        LiveBackend {
            pipeline,
            brand: next_backend_brand(),
            next: AtomicU64::new(0),
            pending: crate::shard::ShardedMap::new(shards),
            ledger: std::sync::Arc::new(Ledger {
                window: Window::new(window),
                examined: AtomicU64::new(0),
            }),
            batch_deadline,
        }
    }

    /// Launches `query` into the pipeline under a window permit the caller
    /// already holds; the permit is handed back if the launch fails.
    fn launch(&self, query: Query) -> Result<Ticket, AllocationError> {
        match self.pipeline.launch(query) {
            Ok(slot) => {
                let id = self.next.fetch_add(1, Ordering::Relaxed);
                self.pending.insert(id, slot);
                Ok(Ticket {
                    brand: self.brand,
                    id,
                })
            }
            Err(e) => {
                self.ledger.window.release();
                Err(e)
            }
        }
    }

    /// One deadline-bounded batch submission step: waits for a window
    /// permit until `deadline`, then launches the query.
    fn submit_until(&self, query: Query, deadline: Instant) -> Result<Ticket, AllocationError> {
        if !self.ledger.window.acquire_until(Some(deadline)) {
            return Err(AllocationError::Internal(format!(
                "batch backpressure deadline of {:?} elapsed with the in-flight \
                 window of {} still full; redeem outstanding tickets, raise \
                 PipelineBuilder::window, or raise PipelineBuilder::batch_deadline",
                self.batch_deadline, self.ledger.window.capacity
            )));
        }
        self.launch(query)
    }

    /// The underlying live pipeline, for inspection the trait does not
    /// cover (directory contents).
    pub fn pipeline(&self) -> &LivePipeline {
        &self.pipeline
    }

    /// Claims `ticket` for redemption: a concurrent redeemer of the same
    /// ticket sees `UnknownTicket` from here on.
    fn claim(&self, ticket: Ticket) -> Result<std::sync::Arc<OutcomeSlot>, AllocationError> {
        if ticket.brand != self.brand {
            return Err(AllocationError::UnknownTicket);
        }
        self.pending
            .remove(ticket.id)
            .ok_or(AllocationError::UnknownTicket)
    }
}

impl ResourceManager for LiveBackend {
    fn submit(&self, query: Query) -> Result<Ticket, AllocationError> {
        self.ledger.window.acquire();
        self.launch(query)
    }

    /// Launching is one channel send, so with a permit in hand nothing
    /// here can park; a full window hands the query back.
    fn try_submit(&self, query: Query) -> Result<Result<Ticket, AllocationError>, Query> {
        if self.ledger.window.try_acquire() {
            Ok(self.launch(query))
        } else {
            Err(query)
        }
    }

    /// Deadline-bounded backpressure: a batch larger than the free window
    /// waits up to [`PipelineBuilder::batch_deadline`] for permits freed by
    /// concurrent redeemers instead of being rejected outright (and instead
    /// of blocking a single-threaded client forever mid-batch, holding
    /// tickets it can never redeem).  On deadline expiry the tickets
    /// already issued for the batch are settled internally and their
    /// allocations released — no window permit or machine claim leaks —
    /// and the error reports the window state.  Federated daemons forward
    /// their batches here unchanged, so both daemon modes share these
    /// semantics.
    fn submit_batch(&self, queries: Vec<Query>) -> Result<Vec<Ticket>, AllocationError> {
        let deadline = Instant::now() + self.batch_deadline;
        let mut tickets = Vec::with_capacity(queries.len());
        for query in queries {
            match self.submit_until(query, deadline) {
                Ok(ticket) => tickets.push(ticket),
                Err(e) => {
                    for ticket in tickets {
                        if let Ok(allocations) = self.wait(ticket) {
                            for a in &allocations {
                                let _ = self.release(a);
                            }
                        }
                    }
                    return Err(e);
                }
            }
        }
        Ok(tickets)
    }

    fn wait(&self, ticket: Ticket) -> QueryOutcome {
        let slot = self.claim(ticket)?;
        let outcome = slot
            .take_until(None)
            .expect("an unbounded wait returns the outcome");
        self.ledger.settle(&outcome);
        outcome
    }

    /// The completion waits in the ticket's slot and the query-manager
    /// stage that reintegrates the outcome runs it — or this thread does,
    /// when the outcome is already in.  Either way the ticket settles
    /// before `done` sees the outcome.
    fn wait_with(&self, ticket: Ticket, done: WaitDone) -> Result<(), WaitDone> {
        let slot = match self.claim(ticket) {
            Ok(slot) => slot,
            Err(e) => {
                done(Err(e));
                return Ok(());
            }
        };
        let ledger = self.ledger.clone();
        slot.on_ready(Box::new(move |outcome| {
            ledger.settle(&outcome);
            done(outcome);
        }));
        Ok(())
    }

    /// Sleeps on the ticket's slot with a timeout instead of the default
    /// poll loop, so a deadline-bounded wait parks the thread at zero CPU —
    /// this is the path a `ypd` daemon hits for every remote
    /// wait-with-deadline.  Redemption is one-at-a-time: while one thread
    /// waits on a ticket, a concurrent redeemer of the *same* ticket sees
    /// `UnknownTicket`, exactly as it would after [`wait`](Self::wait)
    /// claimed it.
    fn wait_deadline(&self, ticket: Ticket, timeout: Duration) -> Option<QueryOutcome> {
        let slot = match self.claim(ticket) {
            Ok(slot) => slot,
            Err(e) => return Some(Err(e)),
        };
        match slot.take_until(Some(Instant::now() + timeout)) {
            Some(outcome) => {
                self.ledger.settle(&outcome);
                Some(outcome)
            }
            None => {
                // Deadline elapsed: the ticket stays redeemable.
                self.pending.insert(ticket.id, slot);
                None
            }
        }
    }

    fn try_poll(&self, ticket: Ticket) -> Option<QueryOutcome> {
        if ticket.brand != self.brand {
            return Some(Err(AllocationError::UnknownTicket));
        }
        // One shard guard covers the get + take + remove, so a concurrent
        // redeemer of the same ticket sees `UnknownTicket` rather than a
        // torn entry; other tickets' shards stay free.
        let mut pending = crate::shard::lock_shard(&self.pending, ticket.id);
        let Some(slot) = pending.get(&ticket.id) else {
            return Some(Err(AllocationError::UnknownTicket));
        };
        let outcome = slot.try_take()?;
        pending.remove(&ticket.id);
        drop(pending);
        self.ledger.settle(&outcome);
        Some(outcome)
    }

    fn release(&self, allocation: &Allocation) -> Result<(), AllocationError> {
        self.pipeline.release(allocation)
    }

    /// The pool-manager stage that drops the lease runs `done` itself.
    fn release_with(&self, allocation: &Allocation, done: ReleaseDone) -> Result<(), ReleaseDone> {
        self.pipeline.release_with(allocation, done)
    }

    fn stats(&self) -> StatsSnapshot {
        let mut snapshot = snapshot_from_engine(
            self.pipeline.stats(),
            self.ledger.examined.load(Ordering::Relaxed),
            self.pending.len(),
        );
        snapshot.shard_contention = self
            .ledger
            .window
            .contention()
            .saturating_add(self.pipeline.directory().contention());
        snapshot
    }

    fn shutdown(&self) -> Result<(), AllocationError> {
        // Queued submissions are processed before the shutdown marker, so
        // outstanding tickets remain redeemable afterwards.
        self.pipeline.shutdown()
    }
}

/// How a centralized baseline dispatches one basic query.  Implemented by
/// both baseline architectures so [`BaselineBackend`] can wrap either.
pub trait BaselineDispatcher: Send {
    /// Dispatches a basic query, returning the chosen machine and the
    /// number of machine records examined, or `None` when nothing fits.
    fn dispatch(&mut self, basic: &BasicQuery) -> Option<(MachineId, usize)>;
    /// Returns a previously dispatched machine to the free set.
    fn finish(&mut self, machine: MachineId);
    /// Total machine records examined over the baseline's lifetime.
    fn records_examined(&self) -> u64;
}

impl BaselineDispatcher for CentralScheduler {
    fn dispatch(&mut self, basic: &BasicQuery) -> Option<(MachineId, usize)> {
        // `try_submit` rather than `submit`: the unified API reports the
        // failure to its caller, so the job must not also pile up inside
        // the scheduler's queues where nothing would ever drain it.
        self.try_submit(basic)
    }

    fn finish(&mut self, machine: MachineId) {
        CentralScheduler::finish(self, machine);
    }

    fn records_examined(&self) -> u64 {
        self.scanned_total()
    }
}

impl BaselineDispatcher for Matchmaker {
    fn dispatch(&mut self, basic: &BasicQuery) -> Option<(MachineId, usize)> {
        let outcome = self.negotiate(basic);
        outcome.machine.map(|m| (m, outcome.evaluated))
    }

    fn finish(&mut self, machine: MachineId) {
        self.release(machine);
    }

    fn records_examined(&self) -> u64 {
        self.evaluated_total()
    }
}

/// A centralized baseline behind the unified surface.
///
/// Queries are decomposed exactly as the pipeline's query managers would,
/// each basic query is dispatched centrally, and the outcomes are
/// re-integrated under the configured [`ReintegrationPolicy`], so the
/// baselines stay decision-comparable with the pipeline while concentrating
/// all work in one component.
pub struct BaselineBackend<D: BaselineDispatcher> {
    dispatcher: Mutex<D>,
    db: SharedDatabase,
    decompose_limit: usize,
    reintegration: ReintegrationPolicy,
    tickets: ReadyTickets,
    outstanding: Mutex<HashMap<String, MachineId>>,
    requests: AtomicU64,
    fragments: AtomicU64,
    allocations: AtomicU64,
    failures: AtomicU64,
    releases: AtomicU64,
    nonce: AtomicU64,
}

/// The PBS/SGE-style centralized multi-queue scheduler baseline.
pub type CentralQueueBackend = BaselineBackend<CentralScheduler>;

/// The Condor-style centralized matchmaker baseline.
pub type MatchmakerBackend = BaselineBackend<Matchmaker>;

impl<D: BaselineDispatcher> BaselineBackend<D> {
    fn new(
        dispatcher: D,
        db: SharedDatabase,
        decompose_limit: usize,
        reintegration: ReintegrationPolicy,
    ) -> Self {
        BaselineBackend {
            dispatcher: Mutex::new(dispatcher),
            db,
            decompose_limit,
            reintegration,
            tickets: ReadyTickets::new(),
            outstanding: Mutex::new(HashMap::new()),
            requests: AtomicU64::new(0),
            fragments: AtomicU64::new(0),
            allocations: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            releases: AtomicU64::new(0),
            nonce: AtomicU64::new(0),
        }
    }

    fn make_allocation(
        &self,
        machine: MachineId,
        examined: usize,
        basic: &BasicQuery,
    ) -> Allocation {
        let (machine_name, execution_port, mount_port) = {
            let guard = self.db.read();
            let record = guard.get(machine);
            (
                record.map(|m| m.name.clone()).unwrap_or_default(),
                record.map(|m| m.execution_unit_port).unwrap_or_default(),
                record.map(|m| m.pvfs_mount_port).unwrap_or_default(),
            )
        };
        let nonce = self.nonce.fetch_add(1, Ordering::Relaxed);
        let request = RequestId(nonce);
        let access_key = SessionKey::derive(request, 0, nonce);
        self.outstanding
            .lock()
            .insert(access_key.0.clone(), machine);
        Allocation {
            request,
            machine,
            machine_name,
            execution_port,
            mount_port,
            shadow_uid: None,
            access_key,
            // The pool the pipeline *would* have aggregated for this query;
            // keeps placement decisions comparable across architectures.
            pool: PoolName::from_query(basic).full(),
            pool_instance: 0,
            examined,
        }
    }

    fn execute(&self, query: &Query) -> QueryOutcome {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let basics = query.decompose(self.decompose_limit);
        let mut successes = Vec::new();
        let mut first_error = None;
        for basic in &basics {
            self.fragments.fetch_add(1, Ordering::Relaxed);
            let dispatched = self.dispatcher.lock().dispatch(basic);
            match dispatched {
                Some((machine, examined)) => {
                    self.allocations.fetch_add(1, Ordering::Relaxed);
                    successes.push(self.make_allocation(machine, examined, basic));
                }
                None => {
                    self.failures.fetch_add(1, Ordering::Relaxed);
                    first_error.get_or_insert(AllocationError::NoneAvailable);
                }
            }
        }
        if successes.is_empty() {
            return Err(first_error.unwrap_or(AllocationError::NoSuchResources));
        }
        match self.reintegration {
            ReintegrationPolicy::All => Ok(successes),
            ReintegrationPolicy::FirstMatch => {
                // Mirror the pipeline: keep the first match, hand the
                // surplus straight back (counted as releases, like the
                // engine's surplus path).
                let keep = successes.remove(0);
                for extra in successes {
                    let _ = self.release_outstanding(&extra);
                    self.allocations.fetch_sub(1, Ordering::Relaxed);
                }
                Ok(vec![keep])
            }
        }
    }

    fn release_outstanding(&self, allocation: &Allocation) -> Result<(), AllocationError> {
        let machine = self
            .outstanding
            .lock()
            .remove(&allocation.access_key.0)
            .ok_or(AllocationError::UnknownAllocation)?;
        self.dispatcher.lock().finish(machine);
        self.releases.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl<D: BaselineDispatcher> ResourceManager for BaselineBackend<D> {
    fn submit(&self, query: Query) -> Result<Ticket, AllocationError> {
        let outcome = self.execute(&query);
        Ok(self.tickets.issue(outcome))
    }

    fn wait(&self, ticket: Ticket) -> QueryOutcome {
        self.tickets.take(ticket)
    }

    fn wait_with(&self, ticket: Ticket, done: WaitDone) -> Result<(), WaitDone> {
        done(self.tickets.take(ticket));
        Ok(())
    }

    fn try_poll(&self, ticket: Ticket) -> Option<QueryOutcome> {
        Some(self.tickets.take(ticket))
    }

    fn release(&self, allocation: &Allocation) -> Result<(), AllocationError> {
        self.release_outstanding(allocation)
    }

    fn release_with(&self, allocation: &Allocation, done: ReleaseDone) -> Result<(), ReleaseDone> {
        done(self.release(allocation));
        Ok(())
    }

    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            fragments: self.fragments.load(Ordering::Relaxed),
            allocations: self.allocations.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            delegations: 0,
            forwards: 0,
            delegations_out: 0,
            delegations_in: 0,
            releases: self.releases.load(Ordering::Relaxed),
            records_examined: self.dispatcher.lock().records_examined(),
            in_flight: self.tickets.len(),
            gossip_deltas_in: 0,
            gossip_deltas_out: 0,
            route_hits: 0,
            route_misses: 0,
            peer_redials: 0,
            // Centralized baselines have one big lock by design — the
            // sharding counters are the pipeline's to report.
            shard_contention: 0,
            frames_batched: 0,
            writes_coalesced: 0,
        }
    }

    fn shutdown(&self) -> Result<(), AllocationError> {
        Ok(())
    }
}

/// Fluent construction of any backend from one configuration.
///
/// Give the builder a resource database (or federated domains) and any
/// pipeline settings, then `build` the backend the deployment needs —
/// every test, example and bench in the workspace goes through here.
#[derive(Clone)]
pub struct PipelineBuilder {
    config: PipelineConfig,
    window: usize,
    batch_deadline: Duration,
    database: Option<SharedDatabase>,
    domains: Vec<(String, SharedDatabase)>,
    server: ServerConfig,
}

impl Default for PipelineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PipelineBuilder {
    /// A builder with the default [`PipelineConfig`], an in-flight window
    /// of 32 and the default [`ServerConfig`].
    pub fn new() -> Self {
        PipelineBuilder {
            config: PipelineConfig::default(),
            window: 32,
            batch_deadline: Duration::from_secs(30),
            database: None,
            domains: Vec::new(),
            server: ServerConfig::default(),
        }
    }

    /// The resource database of a single-domain deployment.
    pub fn database(mut self, db: SharedDatabase) -> Self {
        self.database = Some(db);
        self
    }

    /// Federated deployment: one pool manager per administrative domain,
    /// each with its own resource database.
    pub fn federated(mut self, domains: Vec<(String, SharedDatabase)>) -> Self {
        self.domains = domains;
        self
    }

    /// Replaces the whole pipeline configuration at once.
    pub fn config(mut self, config: PipelineConfig) -> Self {
        self.config = config;
        self
    }

    /// Number of query-manager stages.
    pub fn query_managers(mut self, n: usize) -> Self {
        self.config.query_managers = n;
        self
    }

    /// Number of pool-manager stages (single-domain deployments).
    pub fn pool_managers(mut self, n: usize) -> Self {
        self.config.pool_managers = n;
        self
    }

    /// Scheduling objective used by created pools.
    pub fn objective(mut self, objective: SchedulingObjective) -> Self {
        self.config.objective = objective;
        self
    }

    /// Pool-instance selection policy inside pool managers.
    pub fn instance_selection(mut self, selection: InstanceSelection) -> Self {
        self.config.instance_selection = selection;
        self
    }

    /// Pool-manager selection policy inside query managers.
    pub fn pool_manager_selection(mut self, selection: PoolManagerSelection) -> Self {
        self.config.pool_manager_selection = selection;
        self
    }

    /// Re-integration policy for composite queries.
    pub fn reintegration(mut self, policy: ReintegrationPolicy) -> Self {
        self.config.reintegration = policy;
        self
    }

    /// Maximum number of basic queries a composite query may expand into.
    pub fn decompose_limit(mut self, limit: usize) -> Self {
        self.config.decompose_limit = limit;
        self
    }

    /// Delegation time-to-live.
    pub fn ttl(mut self, ttl: u32) -> Self {
        self.config.ttl = ttl;
        self
    }

    /// Hour of virtual day used for time-of-day usage policies.
    pub fn hour_of_day(mut self, hour: u8) -> Self {
        self.config.hour_of_day = hour;
        self
    }

    /// RNG seed for all stage-local randomness.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Maximum tickets in flight on the live backend before `submit`
    /// blocks (backpressure).  Clamped to at least 1.
    pub fn window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Shard count for the daemon's hot state: directory shards and
    /// pending-ticket shards (clamped to at least 1; `1` degenerates to
    /// the old single-lock behaviour).
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// How long a live-backend batch submission may wait for in-flight
    /// window permits before giving up (deadline-bounded backpressure;
    /// default 30 s).  Both the plain and the federated daemon apply this
    /// bound to over-window `SubmitBatch` requests.
    pub fn batch_deadline(mut self, deadline: Duration) -> Self {
        self.batch_deadline = deadline;
        self
    }

    /// Reactor I/O threads for a served daemon (clamped to at least 1).
    pub fn reactor_io_threads(mut self, n: usize) -> Self {
        self.server.io_threads = n;
        self
    }

    /// Worker threads per blocking lane (submit / redeem / teardown) for
    /// a served daemon (clamped to at least 1 each).
    pub fn reactor_workers(mut self, n: usize) -> Self {
        self.server.workers = n;
        self
    }

    /// Readiness poller the reactor's I/O threads use ([`PollerKind::Auto`]
    /// picks epoll on Linux, `poll(2)` elsewhere).
    pub fn poller(mut self, kind: PollerKind) -> Self {
        self.server.poller = kind;
        self
    }

    /// Replaces the whole server-side configuration at once.
    pub fn server_config(mut self, config: ServerConfig) -> Self {
        self.server = config;
        self
    }

    fn take_domains(self) -> Result<(PipelineConfig, usize, DomainList), AllocationError> {
        if !self.domains.is_empty() {
            return Ok((self.config, self.window, self.domains));
        }
        match self.database {
            Some(db) => {
                let domains = (0..self.config.pool_managers.max(1))
                    .map(|i| (format!("pm-{i}"), db.clone()))
                    .collect();
                Ok((self.config, self.window, domains))
            }
            None => Err(AllocationError::Internal(
                "PipelineBuilder needs a database or federated domains".to_string(),
            )),
        }
    }

    /// The database a centralized baseline sees.  Federated domains are
    /// merged into one table by copying every record — a centralized
    /// scheduler has, by definition, global knowledge (and no longer shares
    /// load state with the per-domain databases).
    fn take_merged_database(self) -> Result<(PipelineConfig, SharedDatabase), AllocationError> {
        if let Some(db) = self.database {
            return Ok((self.config, db));
        }
        match self.domains.len() {
            0 => Err(AllocationError::Internal(
                "PipelineBuilder needs a database or federated domains".to_string(),
            )),
            1 => {
                let (_, db) = self.domains.into_iter().next().expect("one domain");
                Ok((self.config, db))
            }
            _ => {
                let mut merged = ResourceDatabase::new();
                for (_, db) in &self.domains {
                    for machine in db.read().iter() {
                        merged.register(machine.clone());
                    }
                }
                Ok((self.config, merged.into_shared()))
            }
        }
    }

    /// Builds the embedded backend.
    pub fn build_embedded(self) -> Result<EmbeddedBackend, AllocationError> {
        let (config, _, domains) = self.take_domains()?;
        Ok(EmbeddedBackend::new(Engine::federated(config, domains)))
    }

    /// Builds the live (threaded) backend.
    pub fn build_live(self) -> Result<LiveBackend, AllocationError> {
        let batch_deadline = self.batch_deadline;
        let (config, window, domains) = self.take_domains()?;
        let shards = config.shards;
        Ok(LiveBackend::new(
            LivePipeline::start_federated(config, domains),
            window,
            batch_deadline,
            shards,
        ))
    }

    /// Builds the centralized multi-queue scheduler baseline.
    pub fn build_central_queue(self) -> Result<CentralQueueBackend, AllocationError> {
        let (config, db) = self.take_merged_database()?;
        Ok(BaselineBackend::new(
            CentralScheduler::new(db.clone()),
            db,
            config.decompose_limit,
            config.reintegration,
        ))
    }

    /// Builds the centralized matchmaker baseline.
    pub fn build_matchmaker(self) -> Result<MatchmakerBackend, AllocationError> {
        let (config, db) = self.take_merged_database()?;
        Ok(BaselineBackend::new(
            Matchmaker::new(db.clone()),
            db,
            config.decompose_limit,
            config.reintegration,
        ))
    }

    /// Builds any backend behind the unified trait — the entry point the
    /// cross-architecture tests and benches use.
    pub fn build(self, kind: BackendKind) -> Result<Box<dyn ResourceManager>, AllocationError> {
        Ok(match kind {
            BackendKind::Embedded => Box::new(self.build_embedded()?),
            BackendKind::Live => Box::new(self.build_live()?),
            BackendKind::CentralQueue => Box::new(self.build_central_queue()?),
            BackendKind::Matchmaker => Box::new(self.build_matchmaker()?),
        })
    }

    /// Builds the configured backend and hosts it behind the wire protocol
    /// at `addr` (the `ypd` daemon embedded in this process).  `addr` with
    /// port 0 binds an ephemeral port; read it back with
    /// [`ServerHandle::local_addr`].
    pub fn serve(
        self,
        addr: &StageAddress,
        kind: BackendKind,
    ) -> Result<ServerHandle, AllocationError> {
        let server = self.server;
        crate::server::serve_with(self.build(kind)?, addr, server)
    }

    /// Builds the configured backend wrapped in the wide-area federation
    /// layer: queries the local backend cannot satisfy are delegated to
    /// the peer daemons in `federation` with a TTL and visited-domain
    /// list.  The pipeline backends advertise their intra-domain pool
    /// names to peers; the centralized baselines have no directory and
    /// advertise nothing.
    pub fn build_federated(
        self,
        kind: BackendKind,
        federation: crate::federation::FederationConfig,
    ) -> Result<std::sync::Arc<crate::federation::FederatedBackend>, AllocationError> {
        let (inner, directory): (Box<dyn ResourceManager>, Option<crate::SharedDirectory>) =
            match kind {
                BackendKind::Embedded => {
                    let backend = self.build_embedded()?;
                    let directory = backend.engine().directory().clone();
                    (Box::new(backend), Some(directory))
                }
                BackendKind::Live => {
                    let backend = self.build_live()?;
                    let directory = backend.pipeline().directory().clone();
                    (Box::new(backend), Some(directory))
                }
                BackendKind::CentralQueue | BackendKind::Matchmaker => (self.build(kind)?, None),
            };
        Ok(std::sync::Arc::new(
            crate::federation::FederatedBackend::new(inner, federation, directory),
        ))
    }

    /// [`PipelineBuilder::serve`] for a federated daemon: hosts the
    /// backend behind the wire protocol *and* answers the inter-daemon
    /// `Delegate` / `SyncPools` frames peers send.  Returns the shared
    /// backend alongside the server handle for inspection.
    pub fn serve_federated(
        self,
        addr: &StageAddress,
        kind: BackendKind,
        federation: crate::federation::FederationConfig,
    ) -> Result<
        (
            ServerHandle,
            std::sync::Arc<crate::federation::FederatedBackend>,
        ),
        AllocationError,
    > {
        let server = self.server;
        let backend = self.build_federated(kind, federation)?;
        let handle = crate::server::serve_federated_with(backend.clone(), addr, server)?;
        Ok((handle, backend))
    }

    /// Connects to a `ypd` daemon at `addr` — a fifth deployment behind the
    /// same trait, with the pipeline stages on the far side of a network
    /// hop.  Addresses parse from strings (`"host:port".parse()`), so this
    /// composes directly with CLI arguments and environment variables.
    pub fn remote(addr: &StageAddress) -> Result<RemoteBackend, AllocationError> {
        RemoteBackend::connect(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actyp_grid::{FleetSpec, SyntheticFleet};

    fn fleet_db(n: usize, seed: u64) -> SharedDatabase {
        SyntheticFleet::new(FleetSpec::with_machines(n), seed)
            .generate()
            .into_shared()
    }

    fn builder(n: usize, seed: u64) -> PipelineBuilder {
        PipelineBuilder::new().database(fleet_db(n, seed))
    }

    fn paper_text() -> String {
        Query::paper_example().to_string()
    }

    #[test]
    fn every_backend_serves_the_same_query_through_the_trait() {
        for kind in BackendKind::ALL {
            let manager = builder(300, 1).build(kind).unwrap();
            let ticket = manager.submit_text(&paper_text()).unwrap();
            let allocations = manager.wait(ticket).unwrap();
            assert_eq!(allocations.len(), 1, "{kind}");
            assert!(allocations[0].machine_name.contains("sun"), "{kind}");
            manager.release(&allocations[0]).unwrap();
            let stats = manager.stats();
            assert_eq!(stats.requests, 1, "{kind}");
            assert_eq!(stats.allocations, 1, "{kind}");
            assert_eq!(stats.releases, 1, "{kind}");
            assert!(stats.records_examined > 0, "{kind}");
            assert_eq!(stats.in_flight, 0, "{kind}");
            manager.shutdown().unwrap();
        }
    }

    #[test]
    fn tickets_redeem_exactly_once() {
        for kind in BackendKind::ALL {
            let manager = builder(200, 2).build(kind).unwrap();
            let ticket = manager.submit_text(&paper_text()).unwrap();
            assert!(manager.wait(ticket).is_ok(), "{kind}");
            assert_eq!(
                manager.wait(ticket).unwrap_err(),
                AllocationError::UnknownTicket,
                "{kind}"
            );
            assert_eq!(
                manager.try_poll(ticket),
                Some(Err(AllocationError::UnknownTicket)),
                "{kind}"
            );
            manager.shutdown().unwrap();
        }
    }

    #[test]
    fn try_poll_resolves_eventually() {
        for kind in BackendKind::ALL {
            let manager = builder(200, 3).build(kind).unwrap();
            let ticket = manager.submit_text(&paper_text()).unwrap();
            let outcome = loop {
                if let Some(outcome) = manager.try_poll(ticket) {
                    break outcome;
                }
                std::thread::yield_now();
            };
            let allocations = outcome.unwrap();
            manager.release(&allocations[0]).unwrap();
            manager.shutdown().unwrap();
        }
    }

    #[test]
    fn submit_batch_issues_one_ticket_per_query() {
        let manager = builder(400, 4).build(BackendKind::Live).unwrap();
        let queries = vec![Query::paper_example(); 5];
        let tickets = manager.submit_batch(queries).unwrap();
        assert_eq!(tickets.len(), 5);
        assert!(manager.stats().in_flight >= 1);
        for ticket in tickets {
            let allocations = manager.wait(ticket).unwrap();
            manager.release(&allocations[0]).unwrap();
        }
        assert_eq!(manager.stats().allocations, 5);
        manager.shutdown().unwrap();
    }

    #[test]
    fn live_window_applies_backpressure() {
        let manager = std::sync::Arc::new(builder(300, 5).window(2).build_live().unwrap());
        let first = manager.submit_text(&paper_text()).unwrap();
        let second = manager.submit_text(&paper_text()).unwrap();
        // The window is full: a third submission blocks until a ticket is
        // redeemed.
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let blocked = {
            let manager = manager.clone();
            std::thread::spawn(move || {
                started_tx.send(()).unwrap();
                manager.submit_text(&Query::paper_example().to_string())
            })
        };
        started_rx.recv().unwrap();
        let allocations = manager.wait(first).unwrap();
        manager.release(&allocations[0]).unwrap();
        let third = blocked.join().unwrap().unwrap();
        for ticket in [second, third] {
            let allocations = manager.wait(ticket).unwrap();
            manager.release(&allocations[0]).unwrap();
        }
        manager.shutdown().unwrap();
    }

    #[test]
    fn a_released_permit_wakes_a_parked_acquirer_without_a_timeout() {
        let window = std::sync::Arc::new(Window::new(1));
        assert!(window.try_acquire());
        assert!(!window.try_acquire(), "a full window never parks a try");
        // An unbounded acquire has no timeout to fall back on: it returns
        // only because the release notified it.
        let (acquired_tx, acquired_rx) = std::sync::mpsc::channel();
        let parked = {
            let window = window.clone();
            std::thread::spawn(move || {
                window.acquire();
                acquired_tx.send(()).unwrap();
            })
        };
        // Release only once the acquirer has announced itself, so the
        // release is the one that has to do the waking.
        while window.waiters.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        window.release();
        acquired_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the release woke the parked acquirer");
        parked.join().unwrap();
        assert_eq!(window.contention(), 1);
        // A deadline still bounds a wait nobody ends.
        assert!(!window.acquire_until(Some(Instant::now() + Duration::from_millis(20))));
        window.release();
        assert!(window.try_acquire());
    }

    #[test]
    fn wait_deadline_resolves_or_preserves_the_ticket() {
        for kind in BackendKind::ALL {
            let manager = builder(300, 26).build(kind).unwrap();
            let ticket = manager.submit_text(&paper_text()).unwrap();
            // A zero deadline may or may not catch the outcome on the live
            // backend; eager backends resolve instantly.  On a timeout the
            // ticket must remain redeemable.
            let outcome = match manager.wait_deadline(ticket, Duration::ZERO) {
                Some(outcome) => outcome,
                None => manager
                    .wait_deadline(ticket, Duration::from_secs(30))
                    .expect("resolves within the deadline"),
            };
            let allocations = outcome.unwrap();
            manager.release(&allocations[0]).unwrap();
            // The ticket is spent now.
            assert_eq!(
                manager.wait_deadline(ticket, Duration::from_millis(1)),
                Some(Err(AllocationError::UnknownTicket)),
                "{kind}"
            );
            manager.shutdown().unwrap();
        }
    }

    #[test]
    fn tickets_are_branded_per_backend_instance() {
        // Redeeming a ticket on a different manager than the one that
        // issued it is an error, never another query's outcome.
        let first = builder(200, 20).build(BackendKind::Embedded).unwrap();
        let second = builder(200, 21).build(BackendKind::Embedded).unwrap();
        let ticket = first.submit_text(&paper_text()).unwrap();
        second.submit_text(&paper_text()).unwrap();
        assert_eq!(
            second.wait(ticket).unwrap_err(),
            AllocationError::UnknownTicket
        );
        assert!(first.wait(ticket).is_ok(), "the issuer still honours it");
    }

    #[test]
    fn oversized_live_batches_fail_after_the_deadline_not_deadlock() {
        let manager = builder(300, 22)
            .window(2)
            .batch_deadline(Duration::from_millis(100))
            .build_live()
            .unwrap();
        // No concurrent redeemer: the over-window batch waits out the
        // deadline, settles what it issued, and reports the window state.
        let started = Instant::now();
        let err = manager
            .submit_batch(vec![Query::paper_example(); 3])
            .unwrap_err();
        assert!(matches!(err, AllocationError::Internal(_)));
        assert!(
            started.elapsed() >= Duration::from_millis(100),
            "the batch must backpressure until the deadline, not reject outright"
        );
        // Nothing leaked: a batch that fits still goes through afterwards.
        let tickets = manager
            .submit_batch(vec![Query::paper_example(); 2])
            .unwrap();
        for ticket in tickets {
            let allocations = manager.wait(ticket).unwrap();
            manager.release(&allocations[0]).unwrap();
        }
        manager.shutdown().unwrap();
    }

    #[test]
    fn oversized_live_batch_completes_when_a_redeemer_frees_the_window() {
        let manager = std::sync::Arc::new(
            builder(300, 26)
                .window(2)
                .batch_deadline(Duration::from_secs(10))
                .build_live()
                .unwrap(),
        );
        // Fill the window, then submit an over-window batch while another
        // thread redeems the blockers: the batch must ride the freed
        // permits instead of failing.
        let blockers = manager
            .submit_batch(vec![Query::paper_example(); 2])
            .unwrap();
        let redeemer = {
            let manager = manager.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                for ticket in blockers {
                    let allocations = manager.wait(ticket).unwrap();
                    manager.release(&allocations[0]).unwrap();
                }
            })
        };
        let tickets = manager
            .submit_batch(vec![Query::paper_example(); 2])
            .unwrap();
        redeemer.join().unwrap();
        for ticket in tickets {
            let allocations = manager.wait(ticket).unwrap();
            manager.release(&allocations[0]).unwrap();
        }
        manager.shutdown().unwrap();
    }

    #[test]
    fn central_queue_failures_do_not_accumulate_inside_the_scheduler() {
        let manager = builder(100, 23).build(BackendKind::CentralQueue).unwrap();
        for _ in 0..5 {
            assert!(manager
                .submit_text_wait("punch.rsrc.arch = cray\n")
                .is_err());
        }
        let stats = manager.stats();
        assert_eq!(stats.failures, 5);
        // A matching query still succeeds afterwards — nothing is wedged.
        let allocations = manager.submit_text_wait(&paper_text()).unwrap();
        manager.release(&allocations[0]).unwrap();
    }

    #[test]
    fn live_tickets_survive_shutdown() {
        let manager = builder(200, 24).build_live().unwrap();
        let ticket = manager.submit_text(&paper_text()).unwrap();
        manager.shutdown().unwrap();
        let allocations = manager.wait(ticket).unwrap();
        assert_eq!(allocations.len(), 1);
    }

    #[test]
    fn baselines_report_errors_for_impossible_queries() {
        for kind in [BackendKind::CentralQueue, BackendKind::Matchmaker] {
            let manager = builder(100, 6).build(kind).unwrap();
            let outcome = manager.submit_text_wait("punch.rsrc.arch = cray\n");
            assert!(outcome.is_err(), "{kind}");
            assert_eq!(manager.stats().failures, 1, "{kind}");
            manager.shutdown().unwrap();
        }
    }

    #[test]
    fn baselines_honour_the_reintegration_policy() {
        let db = fleet_db(400, 25);
        let manager = PipelineBuilder::new()
            .database(db.clone())
            .reintegration(ReintegrationPolicy::FirstMatch)
            .build(BackendKind::Matchmaker)
            .unwrap();
        let allocations = manager
            .submit_text_wait("punch.rsrc.arch = sun | hp\n")
            .unwrap();
        assert_eq!(allocations.len(), 1, "FirstMatch keeps one allocation");
        // The surplus fragment's machine was handed straight back.
        let active: u32 = db.read().iter().map(|m| m.dynamic.active_jobs).sum();
        assert_eq!(active, 1);
        let stats = manager.stats();
        assert_eq!(stats.allocations, 1);
        assert_eq!(stats.releases, 1);
    }

    #[test]
    fn baseline_double_release_is_rejected() {
        let manager = builder(100, 7).build(BackendKind::Matchmaker).unwrap();
        let allocations = manager.submit_text_wait(&paper_text()).unwrap();
        manager.release(&allocations[0]).unwrap();
        assert_eq!(
            manager.release(&allocations[0]).unwrap_err(),
            AllocationError::UnknownAllocation
        );
    }

    #[test]
    fn federated_domains_build_every_backend() {
        let domains = || {
            vec![
                (
                    "purdue".to_string(),
                    SyntheticFleet::new(FleetSpec::homogeneous(40, "sun", 256), 8)
                        .generate()
                        .into_shared(),
                ),
                (
                    "upc".to_string(),
                    SyntheticFleet::new(FleetSpec::homogeneous(40, "hp", 512), 9)
                        .generate()
                        .into_shared(),
                ),
            ]
        };
        for kind in BackendKind::ALL {
            let manager = PipelineBuilder::new()
                .federated(domains())
                .build(kind)
                .unwrap();
            let hp = manager.submit_text_wait("punch.rsrc.arch = hp\n").unwrap();
            assert!(hp[0].machine_name.contains("hp"), "{kind}");
            manager.release(&hp[0]).unwrap();
            manager.shutdown().unwrap();
        }
    }

    #[test]
    fn builder_without_database_is_an_error() {
        assert!(PipelineBuilder::new().build(BackendKind::Embedded).is_err());
        assert!(PipelineBuilder::new()
            .build(BackendKind::Matchmaker)
            .is_err());
    }

    #[test]
    fn trait_objects_share_across_threads() {
        let manager: std::sync::Arc<dyn ResourceManager> = std::sync::Arc::from(
            builder(300, 10)
                .query_managers(2)
                .build(BackendKind::Live)
                .unwrap(),
        );
        let mut joins = Vec::new();
        for _ in 0..4 {
            let manager = manager.clone();
            joins.push(std::thread::spawn(move || {
                let allocations = manager.submit_wait(&Query::paper_example()).unwrap();
                manager.release(&allocations[0]).unwrap();
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(manager.stats().allocations, 4);
        manager.shutdown().unwrap();
    }
}
