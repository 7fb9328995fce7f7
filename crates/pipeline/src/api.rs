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
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use actyp_baselines::{CentralScheduler, Matchmaker};
use actyp_grid::{MachineId, ResourceDatabase, SharedDatabase};
use actyp_query::{BasicQuery, PoolName, Query};

use crate::allocation::{Allocation, AllocationError, ReleaseDone, SessionKey, WaitDone};
use crate::engine::{Engine, EngineStats, PipelineConfig};
use crate::live::{Launcher, LivePipeline, OutcomeSlot};
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

/// Where [`ResourceManager::submit_with`] delivers its ticket: called at
/// most once, by whichever thread launches the query.
pub type SubmitDone = Box<dyn FnOnce(Result<Ticket, AllocationError>) + Send>;

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
    /// I/O thread.  `Ok` means the query is taken and `done` receives what
    /// `submit` would have returned, on whichever thread launches it: this
    /// one, or the one whose release frees its permit in the live backend's
    /// window.  `Err` hands the query and `done` back uncalled: the caller
    /// takes [`submit`](Self::submit) to a thread that may park.  The
    /// default always hands them back, right for the eager backends
    /// (`submit` *is* the computation) and the remote one (a round trip).
    fn submit_with(&self, query: Query, done: SubmitDone) -> Result<(), (Query, SubmitDone)> {
        Err((query, done))
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
    fn submit_with(&self, query: Query, done: SubmitDone) -> Result<(), (Query, SubmitDone)> {
        (**self).submit_with(query, done)
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
/// the caller never loses tickets it cannot redeem.
fn submit_batch_cancelling<M: ResourceManager + ?Sized>(
    manager: &M,
    queries: Vec<Query>,
) -> Result<Vec<Ticket>, AllocationError> {
    let mut tickets = Vec::with_capacity(queries.len());
    for query in queries {
        match manager.submit(query) {
            Ok(ticket) => tickets.push(ticket),
            Err(e) => {
                abandon(manager, tickets);
                return Err(e);
            }
        }
    }
    Ok(tickets)
}

/// Settles tickets nobody will redeem, handing their allocations back.
fn abandon<M: ResourceManager + ?Sized>(manager: &M, tickets: Vec<Ticket>) {
    for ticket in tickets {
        for allocation in manager.wait(ticket).iter().flatten() {
            let _ = manager.release(allocation);
        }
    }
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

/// The live backend's in-flight window: one atomic permit word, plus a FIFO
/// of admissions waiting for permits under one lock.
///
/// While nothing waits, taking a permit is one `fetch_update` and returning
/// one an atomic add.  A submission that finds the window full joins the
/// FIFO with the launch it wants run, so no thread waits for it, and every
/// returned permit then goes to the head, so nothing overtakes it.  A head
/// needing *n* permits collects them one by one and is launched, outside
/// the lock by the thread whose return completed it, once it holds all *n*.
///
/// Generic over its primitives, like [`crate::reactor::Doorbell`], so the
/// model checker (`window_model_tests` below) runs this very code.
pub(crate) struct Window<W = AtomicUsize, L = Mutex<Fifo>> {
    capacity: usize,
    /// Free permits, plus [`QUEUED`] while the FIFO holds an admission.
    word: W,
    fifo: L,
    /// Admissions that found the window full and had to queue.
    contention: AtomicU64,
}

/// The mark on a [`Window`]'s permit word while admissions wait: a plain
/// `try_acquire` fails, and a returned permit is handed on under the lock.
const QUEUED: usize = 1 << (usize::BITS - 1);

/// What an admission runs once it holds its permits.
type Launch = Box<dyn FnOnce() + Send>;

/// The permit word of a [`Window`]: one sequentially consistent `usize`.
pub(crate) trait PermitWord: Send + Sync {
    fn new(value: usize) -> Self;
    /// `fetch_update`: the previous value, `Err` when `f` declined.
    fn update(&self, f: impl FnMut(usize) -> Option<usize>) -> Result<usize, usize>;
}

impl PermitWord for AtomicUsize {
    fn new(value: usize) -> Self {
        AtomicUsize::new(value)
    }
    fn update(&self, f: impl FnMut(usize) -> Option<usize>) -> Result<usize, usize> {
        self.fetch_update(Ordering::SeqCst, Ordering::SeqCst, f)
    }
}

/// The lock around a [`Window`]'s [`Fifo`].
pub(crate) trait FifoLock: Send + Sync {
    type Guard<'a>: std::ops::DerefMut<Target = Fifo>
    where
        Self: 'a;
    fn new(fifo: Fifo) -> Self;
    fn lock(&self) -> Self::Guard<'_>;
}

impl FifoLock for Mutex<Fifo> {
    type Guard<'a> = parking_lot::MutexGuard<'a, Fifo>;
    fn new(fifo: Fifo) -> Self {
        Mutex::new(fifo)
    }
    fn lock(&self) -> Self::Guard<'_> {
        Mutex::lock(self)
    }
}

/// The admissions of a [`Window`] that wait for permits, and those granted
/// theirs that wait to be launched.
#[derive(Default)]
pub(crate) struct Fifo {
    waiting: std::collections::VecDeque<Admission>,
    granted: std::collections::VecDeque<Launch>,
    /// A thread is running `granted` right now; it runs new grants too.
    launching: bool,
    next_id: u64,
}

struct Admission {
    id: u64,
    need: usize,
    held: usize,
    launch: Launch,
}

impl<W: PermitWord, L: FifoLock> Window<W, L> {
    fn new(permits: usize) -> Self {
        let capacity = permits.max(1);
        Window {
            capacity,
            word: W::new(capacity),
            fifo: L::new(Fifo::default()),
            contention: AtomicU64::new(0),
        }
    }

    /// Takes a permit if one is free and no admission waits; never parks.
    /// Under `buggy-window` (model checking only) it ignores the waiting
    /// admissions: a permit returned while they wait can be taken before
    /// the head of the FIFO gets it.
    fn try_acquire(&self) -> bool {
        let honour_queue = !cfg!(feature = "buggy-window");
        self.word
            .update(|word| match word & QUEUED {
                0 => word.checked_sub(1),
                _ if honour_queue => None,
                _ => (word & !QUEUED).checked_sub(1).map(|free| free | QUEUED),
            })
            .is_ok()
    }

    /// Returns `permits`: one atomic add while nothing waits, else handed
    /// on to the FIFO under its lock.
    fn free(&self, permits: usize) {
        let before = self
            .word
            .update(|word| Some(word + permits))
            .unwrap_or_else(|word| word);
        if before & QUEUED != 0 {
            let mut fifo = self.fifo.lock();
            self.hand_on(&mut fifo, 0);
            self.launch_granted(fifo);
        }
    }

    /// Queues an admission needing `need` permits, whose `launch` runs once
    /// it holds them all — on this thread when they are free now, else on
    /// the thread whose return completes it.  The id withdraws it
    /// ([`Window::cancel`]).
    fn admit(&self, need: usize, launch: Launch) -> u64 {
        let mut fifo = self.fifo.lock();
        let id = fifo.next_id;
        fifo.next_id += 1;
        fifo.waiting.push_back(Admission {
            id,
            need,
            held: 0,
            launch,
        });
        self.hand_on(&mut fifo, 0);
        if fifo.waiting.back().is_some_and(|last| last.id == id) {
            self.contention.fetch_add(1, Ordering::Relaxed);
        }
        self.launch_granted(fifo);
        id
    }

    /// Withdraws a waiting admission, passing the permits it collected on
    /// to the next in line; `false` when it was granted already.
    fn cancel(&self, id: u64) -> bool {
        let mut fifo = self.fifo.lock();
        let Some(at) = fifo.waiting.iter().position(|admission| admission.id == id) else {
            return false;
        };
        let cancelled = fifo.waiting.remove(at).expect("position just found");
        self.hand_on(&mut fifo, cancelled.held);
        self.launch_granted(fifo);
        true
    }

    /// Under the FIFO lock: takes every counted permit (marking the word
    /// [`QUEUED`] so none is taken past the lock) and, with `extra` already
    /// in hand, gives them to the waiting admissions head first, granting
    /// each head that then holds all it needs.  Once none waits, what is
    /// left goes back to the word and the mark is cleared.
    fn hand_on(&self, fifo: &mut Fifo, extra: usize) {
        let counted = self
            .word
            .update(|_| Some(QUEUED))
            .unwrap_or_else(|word| word);
        let mut free = (counted & !QUEUED) + extra;
        while let Some(head) = fifo.waiting.front_mut() {
            let give = (head.need - head.held).min(free);
            head.held += give;
            free -= give;
            if head.held < head.need {
                return;
            }
            let head = fifo.waiting.pop_front().expect("head just seen");
            fifo.granted.push_back(head.launch);
        }
        let _ = self.word.update(|word| Some((word & !QUEUED) + free));
    }

    /// Runs the granted launches in grant order, one thread at a time:
    /// this one, unless another is at it already — that one runs these
    /// too.  The lock is not held across a launch, which may return its
    /// permit (a failed launch) or queue another admission.
    fn launch_granted<'a>(&'a self, mut fifo: L::Guard<'a>) {
        if fifo.launching {
            return;
        }
        fifo.launching = true;
        while let Some(launch) = fifo.granted.pop_front() {
            drop(fifo);
            launch();
            fifo = self.fifo.lock();
        }
        fifo.launching = false;
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
/// queue, in arrival order, until redeeming a ticket frees a permit — the
/// backpressure that keeps a fast client from flooding the stage channels.
pub struct LiveBackend {
    pipeline: LivePipeline,
    ledger: std::sync::Arc<Ledger>,
    batch_deadline: Duration,
}

/// What launching and settling a ticket touch, shared with the completions
/// a stage thread runs and the admissions a releasing thread launches.
struct Ledger {
    launcher: Launcher,
    brand: u64,
    next: AtomicU64,
    /// Outstanding tickets, sharded by ticket id; each holds one window
    /// permit until it settles.
    pending: crate::shard::ShardedMap<std::sync::Arc<OutcomeSlot>>,
    /// Tickets launched and not settled yet — the `in_flight` gauge.  A
    /// ticket redeemed with a completion leaves `pending` at once but is
    /// counted here until its outcome is in.
    unsettled: AtomicUsize,
    window: Window,
    examined: AtomicU64,
}

impl Ledger {
    /// Launches `query` into the pipeline under a window permit the caller
    /// holds; the permit is returned if the launch fails.  One channel
    /// send: nothing here parks.
    fn launch(&self, query: Query) -> Result<Ticket, AllocationError> {
        match self.launcher.launch(query) {
            Ok(slot) => {
                let id = self.next.fetch_add(1, Ordering::Relaxed);
                self.unsettled.fetch_add(1, Ordering::Relaxed);
                self.pending.insert(id, slot);
                Ok(Ticket {
                    brand: self.brand,
                    id,
                })
            }
            Err(e) => {
                self.window.free(1);
                Err(e)
            }
        }
    }

    /// The admission that launches `queries` once the window has granted
    /// it a permit each, handing `done` every launch's result.
    fn admission(
        ledger: &std::sync::Arc<Ledger>,
        queries: Vec<Query>,
        done: impl FnOnce(Vec<Result<Ticket, AllocationError>>) + Send + 'static,
    ) -> Launch {
        let ledger = std::sync::Arc::downgrade(ledger);
        Box::new(move || {
            let ledger = ledger.upgrade().expect("the ledger outlives its window");
            done(queries.into_iter().map(|q| ledger.launch(q)).collect());
        })
    }

    fn settle(&self, outcome: &QueryOutcome) {
        if let Ok(allocations) = outcome {
            let examined: u64 = allocations.iter().map(|a| a.examined as u64).sum();
            self.examined.fetch_add(examined, Ordering::Relaxed);
        }
        self.unsettled.fetch_sub(1, Ordering::Relaxed);
        self.window.free(1);
    }
}

impl LiveBackend {
    fn new(pipeline: LivePipeline, window: usize, batch_deadline: Duration, shards: usize) -> Self {
        LiveBackend {
            ledger: std::sync::Arc::new(Ledger {
                launcher: pipeline.launcher(),
                brand: next_backend_brand(),
                next: AtomicU64::new(0),
                pending: crate::shard::ShardedMap::new(shards),
                unsettled: AtomicUsize::new(0),
                window: Window::new(window),
                examined: AtomicU64::new(0),
            }),
            pipeline,
            batch_deadline,
        }
    }

    /// The underlying live pipeline, for inspection the trait does not
    /// cover (directory contents).
    pub fn pipeline(&self) -> &LivePipeline {
        &self.pipeline
    }

    /// Claims `ticket` for redemption: a concurrent redeemer of the same
    /// ticket sees `UnknownTicket` from here on.
    fn claim(&self, ticket: Ticket) -> Result<std::sync::Arc<OutcomeSlot>, AllocationError> {
        if ticket.brand != self.ledger.brand {
            return Err(AllocationError::UnknownTicket);
        }
        self.ledger
            .pending
            .remove(ticket.id)
            .ok_or(AllocationError::UnknownTicket)
    }
}

impl ResourceManager for LiveBackend {
    /// Parks on a latch only while the submission waits its turn in the
    /// window's queue.
    fn submit(&self, query: Query) -> Result<Ticket, AllocationError> {
        let (tx, rx) = crossbeam::channel::unbounded();
        let _taken = self.submit_with(query, Box::new(move |submitted| drop(tx.send(submitted))));
        rx.recv()
            .unwrap_or_else(|_| Err(AllocationError::Internal("window dropped".to_string())))
    }

    /// Launching is one channel send, so nothing here parks: with a permit
    /// free the query is launched now, else it queues in the window and the
    /// thread whose release frees its permit launches it.
    fn submit_with(&self, query: Query, done: SubmitDone) -> Result<(), (Query, SubmitDone)> {
        if self.ledger.window.try_acquire() {
            done(self.ledger.launch(query));
        } else {
            let launch = Ledger::admission(&self.ledger, vec![query], move |mut launched| {
                done(launched.pop().expect("one query, one launch"))
            });
            self.ledger.window.admit(1, launch);
        }
        Ok(())
    }

    /// Deadline-bounded backpressure: the batch is one admission needing a
    /// permit per query, so it is all-or-nothing by construction, and waits
    /// up to [`PipelineBuilder::batch_deadline`] for permits freed by
    /// concurrent redeemers.  Past the deadline the admission is withdrawn,
    /// its collected permits pass to the next in line, and the error
    /// reports the window state.  A batch larger than the whole window,
    /// which at the head would hold up every admission behind it, is never
    /// queued but refused at the same deadline.  Federated daemons forward
    /// batches here.
    fn submit_batch(&self, queries: Vec<Query>) -> Result<Vec<Ticket>, AllocationError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let need = queries.len();
        let (tx, rx) = crossbeam::channel::unbounded();
        let launch = Ledger::admission(&self.ledger, queries, {
            let tx = tx.clone();
            move |launched| drop(tx.send(launched))
        });
        // `tx` stays open, so an oversized batch, never queued, still waits
        // out the deadline below.
        let window = &self.ledger.window;
        let id = (need <= window.capacity).then(|| window.admit(need, launch));
        let launched = match rx.recv_timeout(self.batch_deadline) {
            Ok(launched) => launched,
            Err(_) if id.is_none_or(|id| window.cancel(id)) => {
                return Err(AllocationError::Internal(format!(
                    "batch backpressure deadline of {:?} elapsed with the in-flight \
                     window of {} still full; redeem outstanding tickets, raise \
                     PipelineBuilder::window, or raise PipelineBuilder::batch_deadline",
                    self.batch_deadline, window.capacity
                )));
            }
            // Granted as the deadline passed: the launch is under way.
            Err(_) => rx.recv().expect("a granted admission launches"),
        };
        // A launch fails only once the pipeline is down, and from then on
        // every launch does: the tickets issued before it are settled.
        let (tickets, failed): (Vec<_>, Vec<_>) = launched.into_iter().partition(Result::is_ok);
        let tickets = tickets.into_iter().flatten().collect();
        if let Some(error) = failed.into_iter().find_map(Result::err) {
            abandon(self, tickets);
            return Err(error);
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
                self.ledger.pending.insert(ticket.id, slot);
                None
            }
        }
    }

    fn try_poll(&self, ticket: Ticket) -> Option<QueryOutcome> {
        if ticket.brand != self.ledger.brand {
            return Some(Err(AllocationError::UnknownTicket));
        }
        // One shard guard covers the get + take + remove, so a concurrent
        // redeemer of the same ticket sees `UnknownTicket` rather than a
        // torn entry; other tickets' shards stay free.
        let mut pending = crate::shard::lock_shard(&self.ledger.pending, ticket.id);
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
            self.ledger.unsettled.load(Ordering::Relaxed),
        );
        snapshot.shard_contention = self
            .ledger
            .window
            .contention
            .load(Ordering::Relaxed)
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
            releases: self.releases.load(Ordering::Relaxed),
            records_examined: self.dispatcher.lock().records_examined(),
            in_flight: self.tickets.len(),
            // Centralized baselines have no stages to delegate between and
            // one big lock by design: every other counter stays zero.
            ..StatsSnapshot::default()
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

    /// Maximum tickets in flight on the live backend before submissions
    /// queue (backpressure).  Clamped to at least 1.
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

    /// Readiness poller the reactor's I/O threads use ([`PollerKind::Auto`]
    /// picks epoll on Linux, `poll(2)` elsewhere).
    pub fn poller(mut self, kind: PollerKind) -> Self {
        self.server.poller = kind;
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
    fn a_returned_permit_launches_the_next_admission_in_line() {
        let window: Window = Window::new(1);
        assert!(window.try_acquire());
        assert!(!window.try_acquire(), "a full window never parks a try");
        let launched = std::sync::Arc::new(AtomicUsize::new(0));
        let note = |n: usize| -> Launch {
            let launched = launched.clone();
            Box::new(move || {
                launched.fetch_add(n, Ordering::SeqCst);
            })
        };
        window.admit(1, note(1));
        let batch = window.admit(2, note(10));
        assert_eq!(launched.load(Ordering::SeqCst), 0, "both queue");
        assert_eq!(window.contention.load(Ordering::Relaxed), 2);
        // The returning thread launches the head, with the permit it
        // returned; nothing takes a permit past the queued batch.
        window.free(1);
        assert_eq!(launched.load(Ordering::SeqCst), 1);
        assert!(!window.try_acquire());
        // The batch collects the next permit but needs two: withdrawn, it
        // hands that permit back to the window.
        window.free(1);
        assert_eq!(launched.load(Ordering::SeqCst), 1);
        assert!(window.cancel(batch));
        assert!(!window.cancel(batch), "withdrawn once");
        assert!(window.try_acquire());
        assert!(!window.try_acquire());
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
    fn a_batch_larger_than_the_window_holds_up_no_other_submission() {
        let deadline = Duration::from_secs(3);
        let manager = std::sync::Arc::new(
            builder(300, 27)
                .window(2)
                .batch_deadline(deadline)
                .build_live()
                .unwrap(),
        );
        let batch = {
            let manager = manager.clone();
            std::thread::spawn(move || manager.submit_batch(vec![Query::paper_example(); 3]))
        };
        std::thread::sleep(Duration::from_millis(100));
        // Queued at the head, the batch would take this permit and keep it
        // until its deadline.
        let started = Instant::now();
        let ticket = manager.submit(Query::paper_example()).unwrap();
        assert!(started.elapsed() < deadline / 2, "{:?}", started.elapsed());
        let allocations = manager.wait(ticket).unwrap();
        manager.release(&allocations[0]).unwrap();
        assert!(matches!(
            batch.join().unwrap(),
            Err(AllocationError::Internal(_))
        ));
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

/// Bounded-interleaving proofs of [`Window`] (`--features model`), run by
/// the CI `model-check` job: the daemon's own `try_acquire`, `free`,
/// `admit` and `cancel` over a mutex-wrapped permit word and an
/// `actyp-model` lock around the FIFO.  Launches run on whichever model
/// thread completes them and return their permit from there, as a settled
/// ticket does.
#[cfg(all(test, feature = "model"))]
mod window_model_tests {
    use super::{Fifo, FifoLock, Launch, PermitWord, Window};
    use actyp_model::sync::{Mutex, MutexGuard};
    use actyp_model::{thread, Explorer};
    use std::sync::Arc;

    struct ModelWord(Mutex<usize>);

    impl PermitWord for ModelWord {
        fn new(value: usize) -> Self {
            ModelWord(Mutex::new(value))
        }
        fn update(&self, mut f: impl FnMut(usize) -> Option<usize>) -> Result<usize, usize> {
            let mut word = self.0.lock().unwrap();
            let before = *word;
            match f(before) {
                Some(after) => {
                    *word = after;
                    Ok(before)
                }
                None => Err(before),
            }
        }
    }

    struct ModelLock(Mutex<Fifo>);

    impl FifoLock for ModelLock {
        type Guard<'a> = MutexGuard<'a, Fifo>;
        fn new(fifo: Fifo) -> Self {
            ModelLock(Mutex::new(fifo))
        }
        fn lock(&self) -> Self::Guard<'_> {
            self.0.lock().unwrap()
        }
    }

    type ModelWindow = Window<ModelWord, ModelLock>;
    type Log = Arc<Mutex<Vec<char>>>;

    fn explorer() -> Explorer {
        Explorer {
            max_schedules: 200_000,
            preemption_bound: 2,
            op_budget: 50_000,
        }
    }

    /// A launch that notes `name` and, its work done, returns its permit.
    fn entry(window: &Arc<ModelWindow>, log: &Log, name: char) -> Launch {
        let (window, log) = (window.clone(), log.clone());
        Box::new(move || {
            log.lock().unwrap().push(name);
            window.free(1);
        })
    }

    /// Takes every free permit, returning how many there were.
    fn drain(window: &ModelWindow) -> usize {
        let mut taken = 0;
        while window.try_acquire() {
            taken += 1;
        }
        taken
    }

    /// A window of one whose permit is held, with admission `A` queued.
    /// Concurrently the holder returns the permit, `B` queues, and a
    /// non-parking caller tries the shortcut (keeping a permit it gets
    /// just long enough to note it).  `A` arrived before the shortcut was
    /// tried, so nothing may run before it; `A` and `B` launch in arrival
    /// order; and once all is done the one permit is back.
    fn arrival_order_scenario() {
        let window = Arc::new(ModelWindow::new(1));
        let log: Log = Arc::default();
        assert!(window.try_acquire());
        let a = window.admit(1, entry(&window, &log, 'A'));
        let holder = {
            let window = window.clone();
            thread::spawn(move || window.free(1))
        };
        let late = {
            let (window, log) = (window.clone(), log.clone());
            thread::spawn(move || window.admit(1, entry(&window, &log, 'B')))
        };
        let shortcut = {
            let (window, log) = (window.clone(), log.clone());
            thread::spawn(move || {
                if window.try_acquire() {
                    log.lock().unwrap().push('T');
                    window.free(1);
                }
            })
        };
        holder.join().unwrap();
        let b = late.join().unwrap();
        shortcut.join().unwrap();
        let log = log.lock().unwrap().clone();
        assert_eq!(log.first(), Some(&'A'), "overtaken: {log:?}");
        let launched: Vec<char> = log.iter().copied().filter(|&c| c != 'T').collect();
        assert_eq!(launched, vec!['A', 'B'], "ids {a} < {b}");
        assert_eq!(drain(&window), 1, "a permit lost or duplicated");
    }

    /// A window of two with both permits held and a batch `X` needing both
    /// queued ahead of `C`.  One permit returns while `X` is withdrawn:
    /// whichever comes first, the permit ends with `C` — handed on by the
    /// cancel when `X` had collected it — and `X` never runs.
    fn cancelled_head_scenario() {
        let window = Arc::new(ModelWindow::new(2));
        let log: Log = Arc::default();
        assert_eq!(drain(&window), 2);
        let x = window.admit(2, entry(&window, &log, 'X'));
        window.admit(1, entry(&window, &log, 'C'));
        let holder = {
            let window = window.clone();
            thread::spawn(move || window.free(1))
        };
        let canceller = {
            let window = window.clone();
            thread::spawn(move || window.cancel(x))
        };
        holder.join().unwrap();
        assert!(canceller.join().unwrap(), "X can never hold two permits");
        assert_eq!(*log.lock().unwrap(), vec!['C']);
        // `C` returned its permit; the other is still held.
        assert_eq!(drain(&window), 1, "a permit lost or duplicated");
    }

    /// Arrival order holds and no permit is lost or duplicated under
    /// return, enqueue and shortcut races.
    #[cfg(not(feature = "buggy-window"))]
    #[test]
    fn window_admits_in_arrival_order_proven() {
        let report = explorer().prove(arrival_order_scenario);
        assert!(report.proven());
        assert!(report.schedules > 100, "interleavings actually explored");
    }

    /// A withdrawn head passes the permits it collected to the next in
    /// line.
    #[cfg(not(feature = "buggy-window"))]
    #[test]
    fn window_cancel_passes_permits_on_proven() {
        let report = explorer().prove(cancelled_head_scenario);
        assert!(report.proven());
        assert!(report.schedules > 10, "interleavings actually explored");
    }

    /// REGRESSION (`--features model,buggy-window`): a `try_acquire` that
    /// ignores the queued mark takes a permit the holder just returned,
    /// before the return is handed on to the head of the FIFO.  The
    /// exploration must find the shortcut overtaking `A`.
    #[cfg(feature = "buggy-window")]
    #[test]
    fn window_overtaking_recaught() {
        let report = explorer().explore(arrival_order_scenario);
        let failure = report
            .failure
            .expect("ignoring the queue must let the shortcut overtake within the exploration");
        assert!(
            failure.message.contains("overtaken"),
            "expected an overtaking, got: {}",
            failure.message
        );
    }
}
