//! The unified client surface: one [`ResourceManager`] trait over every
//! deployment of the pipeline, with ticket-based pipelined submission.
//!
//! The paper's central claim is that the *same* pipeline stages can be
//! deployed embedded, distributed/replicated, or simulated.  This module is
//! the seam that makes the claim visible to clients: a single trait served
//! by four backends —
//!
//! | backend | constructor | what it is |
//! |---|---|---|
//! | [`LiveBackend`] | [`PipelineBuilder::build_live`] | [`LivePipeline`] behind a bounded in-flight window: each stage runs on the thread that finds it idle — the calling thread, unless another thread is at it |
//! | [`CentralQueueBackend`] | [`PipelineBuilder::build_central_queue`] | the PBS/SGE-style centralized multi-queue scheduler baseline |
//! | [`MatchmakerBackend`] | [`PipelineBuilder::build_matchmaker`] | the Condor-style centralized matchmaker baseline |
//! | [`RemoteBackend`] | [`PipelineBuilder::remote`] | a client of the `ypd` daemon: the same surface across a TCP hop, speaking the [`actyp_proto`] wire protocol (serve any backend with [`PipelineBuilder::serve`]) |
//!
//! A query is one call, [`ResourceManager::allocate_with`]: its completion
//! gets the outcome on whichever thread has it — the caller's own on the
//! baseline backends, which resolve the query on the spot, and on the
//! pipeline's the thread that steps its last fragment: the caller's own
//! when no other thread is at the stages it reaches.
//! That is the whole served path.  In-process callers get a blocking,
//! *ticket based* surface written once over it: [`ResourceManager::submit`]
//! files the completion's outcome in the backend's [`TicketBook`] and
//! returns a [`Ticket`] at once, and [`ResourceManager::wait`] /
//! [`ResourceManager::try_poll`] redeem it later.  On the live backend this
//! makes the paper's pipelining real for a single client — N submitted
//! tickets overlap across the pool-manager and pool stages — and the same
//! client code runs against every architecture.  A [`StatsSnapshot`]
//! unifies the per-stage counters all backends report.
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
//!     .build(BackendKind::Live)
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
use std::sync::{Arc, PoisonError};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use actyp_baselines::{CentralScheduler, Matchmaker};
use actyp_grid::{MachineId, ResourceDatabase, SharedDatabase};
use actyp_query::{BasicQuery, PoolName, Query};

use crate::allocation::{AllocateDone, Allocation, AllocationError, ReleaseDone, SessionKey};
use crate::live::{Launcher, LivePipeline, PipelineConfig};
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
    /// ticket ids are its requests' correlation ids).
    pub(crate) fn from_parts(brand: u64, id: u64) -> Self {
        Ticket { brand, id }
    }
}

/// The in-process tickets of one backend instance: each ticket's outcome,
/// filed by its query's completion, until a redeemer takes it.  The
/// blocking surface ([`ResourceManager::submit`], [`ResourceManager::wait`]
/// and the bounded redemptions) is written once over it and
/// [`ResourceManager::allocate_with`]; a daemon never opens one.  Each
/// outcome goes to exactly one redeemer, a redemption that times out
/// leaves its ticket redeemable, and a spent or foreign ticket is
/// [`AllocationError::UnknownTicket`].
pub struct TicketBook {
    brand: u64,
    next: AtomicU64,
    book: Arc<Book>,
}

impl TicketBook {
    /// An empty book, branded for one backend instance.
    pub(crate) fn new() -> Self {
        TicketBook {
            brand: next_backend_brand(),
            next: AtomicU64::new(0),
            book: Arc::default(),
        }
    }

    /// Opens a ticket, and the completion that files its outcome.
    pub(crate) fn issue(&self) -> (Ticket, AllocateDone) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.book.open(id);
        let book = self.book.clone();
        let ticket = Ticket {
            brand: self.brand,
            id,
        };
        (ticket, Box::new(move |outcome| book.fill(id, outcome)))
    }

    /// Redeems `ticket`, waiting up to `timeout` for its outcome (for good
    /// when `None`); `None` when the deadline passed first.
    pub(crate) fn redeem(&self, ticket: Ticket, timeout: Option<Duration>) -> Option<QueryOutcome> {
        if ticket.brand != self.brand {
            return Some(Err(AllocationError::UnknownTicket));
        }
        self.book.redeem(ticket.id, timeout)
    }

    /// Outcomes filed and not redeemed yet.
    pub(crate) fn unredeemed(&self) -> usize {
        self.book.unredeemed()
    }
}

/// A [`Book`]'s contents: each open ticket's outcome once it is filed, and
/// how many redeemers wait for one.
#[derive(Default)]
pub(crate) struct Entries {
    filed: HashMap<u64, Option<QueryOutcome>>,
    waiting: usize,
}

/// The lock around a [`Book`]'s [`Entries`], with the signal its redeemers
/// wait on.
pub(crate) trait PageLock: Default + Send + Sync {
    type Guard<'a>: std::ops::DerefMut<Target = Entries>
    where
        Self: 'a;
    fn lock(&self) -> Self::Guard<'_>;
    /// Releases the guard until a fill signals or `timeout` passes (never
    /// when `None`); `true` when it timed out.
    fn wait<'a>(
        &'a self,
        entries: Self::Guard<'a>,
        timeout: Option<Duration>,
    ) -> (Self::Guard<'a>, bool);
    /// Wakes every waiting redeemer.
    fn signal(&self);
}

/// A std mutex and condvar (the lock shim has no condvar).
#[derive(Default)]
pub(crate) struct Pages {
    entries: std::sync::Mutex<Entries>,
    filed: std::sync::Condvar,
}

impl PageLock for Pages {
    type Guard<'a> = std::sync::MutexGuard<'a, Entries>;
    fn lock(&self) -> Self::Guard<'_> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }
    fn wait<'a>(
        &'a self,
        entries: Self::Guard<'a>,
        timeout: Option<Duration>,
    ) -> (Self::Guard<'a>, bool) {
        match timeout {
            None => (
                self.filed
                    .wait(entries)
                    .unwrap_or_else(PoisonError::into_inner),
                false,
            ),
            Some(timeout) => {
                let (entries, waited) = (self.filed.wait_timeout(entries, timeout))
                    .unwrap_or_else(PoisonError::into_inner);
                (entries, waited.timed_out())
            }
        }
    }
    fn signal(&self) {
        self.filed.notify_all();
    }
}

/// The pages of a [`TicketBook`], generic over their lock like the
/// [`Window`], so the model checker (`book_model_tests` below) runs this
/// very code.
#[derive(Default)]
pub(crate) struct Book<P = Pages> {
    pages: P,
}

impl<P: PageLock> Book<P> {
    fn open(&self, id: u64) {
        self.pages.lock().filed.insert(id, None);
    }

    /// Files `id`'s outcome, and wakes its redeemer if one waits.
    fn fill(&self, id: u64, outcome: QueryOutcome) {
        let mut entries = self.pages.lock();
        if let Some(filed) = entries.filed.get_mut(&id) {
            *filed = Some(outcome);
        }
        if entries.waiting > 0 {
            self.pages.signal();
        }
    }

    /// Takes `id`'s outcome, waiting up to `timeout` for it to be filed;
    /// on `None` the ticket stays open for the next redemption.  Under
    /// `buggy-giveup` (model checking only) a redemption that gives up
    /// drops the ticket instead, and its outcome with it.
    fn redeem(&self, id: u64, timeout: Option<Duration>) -> Option<QueryOutcome> {
        let deadline = timeout.map(|timeout| Instant::now() + timeout);
        let mut entries = self.pages.lock();
        let mut timed_out = false;
        loop {
            match entries.filed.get(&id) {
                None => return Some(Err(AllocationError::UnknownTicket)),
                Some(Some(_)) => return entries.filed.remove(&id).flatten(),
                Some(None) => {}
            }
            let left = deadline.map(|deadline| deadline.saturating_duration_since(Instant::now()));
            if timed_out || left == Some(Duration::ZERO) {
                if cfg!(feature = "buggy-giveup") {
                    entries.filed.remove(&id);
                }
                return None;
            }
            entries.waiting += 1;
            let (back, late) = self.pages.wait(entries, left);
            entries = back;
            entries.waiting -= 1;
            timed_out = late;
        }
    }

    fn unredeemed(&self) -> usize {
        let entries = self.pages.lock();
        entries
            .filed
            .values()
            .filter(|filed| filed.is_some())
            .count()
    }
}

/// Which deployment a [`PipelineBuilder`] should construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The pipeline ([`LivePipeline`]) with a bounded in-flight window
    /// ([`LiveBackend`]).
    Live,
    /// The centralized multi-queue scheduler baseline.
    CentralQueue,
    /// The centralized matchmaker baseline.
    Matchmaker,
}

impl BackendKind {
    /// Every backend, in the order the comparison figures use.
    pub const ALL: [BackendKind; 3] = [
        BackendKind::Live,
        BackendKind::CentralQueue,
        BackendKind::Matchmaker,
    ];
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            BackendKind::Live => "live",
            BackendKind::CentralQueue => "central-queue",
            BackendKind::Matchmaker => "matchmaker",
        };
        f.write_str(name)
    }
}

/// The backend a name from [`BackendKind`]'s `Display` selects (`ypd
/// --backend`, `ypload --backend`); any other name is refused with the
/// list of the names there are.
impl std::str::FromStr for BackendKind {
    type Err = String;
    fn from_str(raw: &str) -> Result<Self, String> {
        let known = BackendKind::ALL
            .into_iter()
            .find(|kind| kind.to_string() == raw);
        let names = BackendKind::ALL.map(|kind| kind.to_string()).join(", ");
        known.ok_or_else(|| format!("unknown backend `{raw}` (expected one of: {names})"))
    }
}

/// The one client surface over every deployment of the resource manager.
///
/// All methods take `&self`; backends use interior mutability, so a
/// manager can be shared across client threads behind an `Arc` without an
/// external lock.
///
/// A daemon calls only the completion methods, `allocate_with` and
/// `release_with` (and `stats`), from its I/O threads, so a hosted backend
/// must not park in them.  [`RemoteBackend`] is the exception: it is a
/// client, it runs their round trips on the calling thread, and no daemon
/// hosts one.
pub trait ResourceManager: Send + Sync {
    /// Allocates for `query`: `done` gets the outcome, exactly once, on
    /// whichever thread has it — this one when the backend resolves the
    /// query on the spot (baselines), the thread that steps its last
    /// fragment on the pipeline: this one when no other thread is at its
    /// stages.  A query the live backend's full window has no permit for
    /// queues there, and the thread whose outcome frees a permit launches
    /// it.
    fn allocate_with(&self, query: Query, done: AllocateDone);

    /// Releases an allocation: `done` receives the result on whichever
    /// thread finishes it.  The pipeline runs it on the thread that steps
    /// the pool-manager stage dropping the lease, the federation on the
    /// I/O thread of the link a delegated lease goes back over, and the
    /// baselines, whose release is a short in-memory step, on the spot.
    fn release_with(&self, allocation: &Allocation, done: ReleaseDone);

    /// A snapshot of the backend's lifetime counters.
    fn stats(&self) -> StatsSnapshot;

    /// Tears the backend down.  The pipeline waits for the queries in
    /// flight; the others are no-ops.  Idempotent.
    fn shutdown(&self) -> Result<(), AllocationError>;

    /// The book the blocking methods below file this backend's tickets in.
    /// `None`, the default, is a backend that keeps none and overrides
    /// them, as [`RemoteBackend`] does with its connection's replies.
    fn tickets(&self) -> Option<&TicketBook> {
        None
    }

    /// Submits a query, returning a ticket for the eventual outcome: the
    /// query is allocated with a completion that files its outcome in the
    /// [`tickets`](Self::tickets) book.  The live backend launches it and
    /// returns at once, blocking only while its in-flight window is full;
    /// the baseline backends resolve it before returning.
    fn submit(&self, query: Query) -> Result<Ticket, AllocationError> {
        let book = self.tickets().ok_or_else(|| {
            AllocationError::Internal("this backend keeps no ticket book".to_string())
        })?;
        let (ticket, done) = book.issue();
        self.allocate_with(query, done);
        Ok(ticket)
    }

    /// Blocks until the ticket's query finishes and returns its outcome.
    /// Each ticket can be redeemed exactly once.
    fn wait(&self, ticket: Ticket) -> QueryOutcome {
        redeem(self.tickets(), ticket, None).expect("an unbounded redemption returns the outcome")
    }

    /// Non-blocking redemption: `None` while the query is still in flight,
    /// `Some(outcome)` once it finished (the ticket is then spent).
    fn try_poll(&self, ticket: Ticket) -> Option<QueryOutcome> {
        redeem(self.tickets(), ticket, Some(Duration::ZERO))
    }

    /// Bounded redemption: blocks up to `timeout` for the outcome.  Returns
    /// `None` if the deadline elapses first — the ticket then remains
    /// redeemable.
    fn wait_deadline(&self, ticket: Ticket, timeout: Duration) -> Option<QueryOutcome> {
        redeem(self.tickets(), ticket, Some(timeout))
    }

    /// Releases an allocation back to the resource manager.  The provided
    /// method waits for [`release_with`](Self::release_with) on a latch.
    fn release(&self, allocation: &Allocation) -> Result<(), AllocationError> {
        let (tx, rx) = crossbeam::channel::unbounded();
        self.release_with(
            allocation,
            Box::new(move |released| drop(tx.send(released))),
        );
        rx.recv().unwrap_or_else(|_| {
            Err(AllocationError::Internal(
                "the release was dropped".to_string(),
            ))
        })
    }

    /// Submits a query written in the native key/value text format.
    fn submit_text(&self, text: &str) -> Result<Ticket, AllocationError> {
        let query =
            actyp_query::parse_query(text).map_err(|e| AllocationError::Parse(e.to_string()))?;
        self.submit(query)
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

/// Redeems `ticket` in `book`; a backend without one issued no ticket.
fn redeem(
    book: Option<&TicketBook>,
    ticket: Ticket,
    timeout: Option<Duration>,
) -> Option<QueryOutcome> {
    match book {
        Some(book) => book.redeem(ticket, timeout),
        None => Some(Err(AllocationError::UnknownTicket)),
    }
}

/// A shared manager is a manager: every method a backend may override
/// (the provided ones included, so overrides like the remote deadline
/// wait are preserved) forwards to the pointee.  This is what lets one backend
/// instance be hosted behind a server *and* kept by the caller — e.g. a
/// federated daemon, which is simultaneously the served manager and the
/// target of incoming peer delegations.
impl<T: ResourceManager + ?Sized> ResourceManager for Arc<T> {
    fn allocate_with(&self, query: Query, done: AllocateDone) {
        (**self).allocate_with(query, done)
    }
    fn release_with(&self, allocation: &Allocation, done: ReleaseDone) {
        (**self).release_with(allocation, done)
    }
    fn stats(&self) -> StatsSnapshot {
        (**self).stats()
    }
    fn shutdown(&self) -> Result<(), AllocationError> {
        (**self).shutdown()
    }
    fn tickets(&self) -> Option<&TicketBook> {
        (**self).tickets()
    }
    fn submit(&self, query: Query) -> Result<Ticket, AllocationError> {
        (**self).submit(query)
    }
    fn wait(&self, ticket: Ticket) -> QueryOutcome {
        (**self).wait(ticket)
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
    fn submit_text(&self, text: &str) -> Result<Ticket, AllocationError> {
        (**self).submit_text(text)
    }
}

/// The live backend's in-flight window: one atomic permit word, plus a FIFO
/// of admissions waiting for a permit under one lock.
///
/// While nothing waits, taking a permit is one `fetch_update` and returning
/// one an atomic add.  A submission that finds the window full joins the
/// FIFO with the launch it wants run, so no thread waits for it, and every
/// returned permit then goes to the head, so nothing overtakes it.  A
/// granted admission is launched outside the lock, by the thread whose
/// return granted it.
///
/// Generic over its primitives, like [`crate::reactor::Doorbell`], so the
/// model checker (`window_model_tests` below) runs this very code.
pub(crate) struct Window<W = AtomicUsize, L = Mutex<Fifo>> {
    /// Free permits, plus [`QUEUED`] while the FIFO holds an admission.
    word: W,
    fifo: L,
    /// Admissions that found the window full and had to queue.
    contention: AtomicU64,
    /// The window's size.
    permits: usize,
}

/// The mark on a [`Window`]'s permit word while admissions wait: a plain
/// `try_acquire` fails, and a returned permit is handed on under the lock.
const QUEUED: usize = 1 << (usize::BITS - 1);

/// What an admission runs once it holds its permit.
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

/// The admissions of a [`Window`] that wait for a permit, and those granted
/// theirs that wait to be launched.
#[derive(Default)]
pub(crate) struct Fifo {
    waiting: std::collections::VecDeque<Launch>,
    granted: std::collections::VecDeque<Launch>,
    /// A thread is running `granted` right now; it runs new grants too.
    launching: bool,
}

impl<W: PermitWord, L: FifoLock> Window<W, L> {
    /// A window of `permits`, clamped below [`QUEUED`] so that no count
    /// of free permits reads as the mark.
    fn new(permits: usize) -> Self {
        let permits = permits.clamp(1, QUEUED - 1);
        Window {
            word: W::new(permits),
            fifo: L::new(Fifo::default()),
            contention: AtomicU64::new(0),
            permits,
        }
    }

    /// Permits taken and not returned: queries launched whose outcome has
    /// not been handed to their completion yet.
    fn in_use(&self) -> usize {
        let word = self.word.update(|_| None).unwrap_or_else(|word| word);
        self.permits.saturating_sub(word & !QUEUED)
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

    /// Returns a permit: one atomic add while nothing waits, else handed on
    /// to the FIFO under its lock.
    fn free(&self) {
        let before = self
            .word
            .update(|word| Some(word + 1))
            .unwrap_or_else(|word| word);
        if before & QUEUED != 0 {
            let mut fifo = self.fifo.lock();
            self.hand_on(&mut fifo);
            self.launch_granted(fifo);
        }
    }

    /// Queues an admission whose `launch` runs once it holds a permit — on
    /// this thread when one is free now, else on the thread whose return
    /// grants it.
    fn admit(&self, launch: Launch) {
        let mut fifo = self.fifo.lock();
        fifo.waiting.push_back(launch);
        self.hand_on(&mut fifo);
        if !fifo.waiting.is_empty() {
            self.contention.fetch_add(1, Ordering::Relaxed);
        }
        self.launch_granted(fifo);
    }

    /// Under the FIFO lock: takes every counted permit (marking the word
    /// [`QUEUED`] so none is taken past the lock) and gives one to each
    /// waiting admission, head first.  Once none waits, what is left goes
    /// back to the word and the mark is cleared.
    fn hand_on(&self, fifo: &mut Fifo) {
        let counted = self
            .word
            .update(|_| Some(QUEUED))
            .unwrap_or_else(|word| word);
        let mut free = counted & !QUEUED;
        while free > 0 {
            let Some(head) = fifo.waiting.pop_front() else {
                break;
            };
            fifo.granted.push_back(head);
            free -= 1;
        }
        if fifo.waiting.is_empty() {
            let _ = self.word.update(|word| Some((word & !QUEUED) + free));
        }
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

/// The [`LivePipeline`] behind the unified surface, with a window.  A
/// query from a lone caller runs every stage on the calling thread, so its
/// completion runs before `allocate_with` returns.
///
/// A query is launched into the pipeline at once while fewer than `window`
/// are in flight; further ones queue, in arrival order, until an outcome
/// frees a permit — the backpressure that keeps a fast client from
/// flooding the stages' inboxes.  The permit returns when the outcome is
/// handed to the query's completion, so an outcome waiting in the ticket
/// book holds none.  [`PipelineBuilder::build_embedded`] builds it without
/// a window: every query is launched at once.
pub struct LiveBackend {
    pipeline: LivePipeline,
    ledger: Arc<Ledger>,
    tickets: TicketBook,
}

/// What launching a query touches, shared with the admissions a returning
/// thread launches and the completions that return permits.
struct Ledger {
    launcher: Launcher,
    /// `None` on [`PipelineBuilder::build_embedded`]'s backend.
    window: Option<Window>,
}

impl Ledger {
    /// Launches `query` now if a permit is free, else queues it in the
    /// window for the thread whose outcome frees one; `admitted` runs just
    /// before the launch.  Nothing here parks.
    fn allocate(
        self: &Arc<Self>,
        query: Query,
        done: AllocateDone,
        admitted: impl FnOnce() + Send + 'static,
    ) {
        let Some(window) = &self.window else {
            admitted();
            return self.launcher.launch(query, done);
        };
        if window.try_acquire() {
            admitted();
            return self.launch(query, done);
        }
        let ledger = Arc::downgrade(self);
        window.admit(Box::new(move || {
            admitted();
            let ledger = ledger.upgrade().expect("the ledger outlives its window");
            ledger.launch(query, done)
        }));
    }

    /// Launches `query` under a permit the caller holds: the query manager
    /// runs on this thread and each fragment is one inbox post.  The
    /// permit returns when the outcome is handed to `done`, on the thread
    /// that has it.
    fn launch(self: &Arc<Self>, query: Query, done: AllocateDone) {
        let ledger = self.clone();
        self.launcher.launch(
            query,
            Box::new(move |outcome| {
                if let Some(window) = &ledger.window {
                    window.free();
                }
                done(outcome)
            }),
        );
    }
}

impl LiveBackend {
    fn new(pipeline: LivePipeline, window: Option<usize>) -> Self {
        LiveBackend {
            ledger: Arc::new(Ledger {
                launcher: pipeline.launcher(),
                window: window.map(Window::new),
            }),
            pipeline,
            tickets: TicketBook::new(),
        }
    }

    /// The underlying pipeline, for inspection the trait does not cover
    /// (directory contents, pool-manager manipulation in experiments).
    pub fn pipeline(&self) -> &LivePipeline {
        &self.pipeline
    }
}

impl ResourceManager for LiveBackend {
    /// Launching never parks (the query manager runs on this thread and
    /// posts each fragment to its stage): with a permit free the query is
    /// launched now, else it queues in the window and the thread whose
    /// outcome frees its permit launches it.
    fn allocate_with(&self, query: Query, done: AllocateDone) {
        self.ledger.allocate(query, done, || {})
    }

    /// The thread that steps the stage dropping the lease runs `done`.
    fn release_with(&self, allocation: &Allocation, done: ReleaseDone) {
        self.pipeline.release_with(allocation, done)
    }

    fn stats(&self) -> StatsSnapshot {
        let mut snapshot = self.pipeline.stats();
        let window = self.ledger.window.as_ref();
        snapshot.in_flight = window.map_or(0, Window::in_use) + self.tickets.unredeemed();
        snapshot.shard_contention = window
            .map_or(0, |window| window.contention.load(Ordering::Relaxed))
            .saturating_add(self.pipeline.directory().contention());
        snapshot
    }

    fn shutdown(&self) -> Result<(), AllocationError> {
        // Returns once every launched query is answered, so outstanding
        // tickets remain redeemable afterwards.
        self.pipeline.shutdown()
    }

    fn tickets(&self) -> Option<&TicketBook> {
        Some(&self.tickets)
    }

    /// The provided submission, but parking on a latch while the query
    /// waits its turn in the window's queue.
    fn submit(&self, query: Query) -> Result<Ticket, AllocationError> {
        let (ticket, done) = self.tickets.issue();
        if self.ledger.window.is_none() {
            self.ledger.launcher.launch(query, done);
            return Ok(ticket);
        }
        let (admitted, turn) = crossbeam::channel::unbounded();
        self.ledger
            .allocate(query, done, move || drop(admitted.send(())));
        let _ = turn.recv();
        Ok(ticket)
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
        Matchmaker::finish(self, machine);
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
    tickets: TicketBook,
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
            tickets: TicketBook::new(),
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
                // pipeline's surplus path).
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
    fn allocate_with(&self, query: Query, done: AllocateDone) {
        done(self.execute(&query));
    }

    fn release_with(&self, allocation: &Allocation, done: ReleaseDone) {
        done(self.release_outstanding(allocation));
    }

    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            fragments: self.fragments.load(Ordering::Relaxed),
            allocations: self.allocations.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            releases: self.releases.load(Ordering::Relaxed),
            records_examined: self.dispatcher.lock().records_examined(),
            in_flight: self.tickets.unredeemed(),
            // Centralized baselines have no stages to delegate between and
            // one big lock by design: every other counter stays zero.
            ..StatsSnapshot::default()
        }
    }

    fn shutdown(&self) -> Result<(), AllocationError> {
        Ok(())
    }

    fn tickets(&self) -> Option<&TicketBook> {
        Some(&self.tickets)
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

    /// Maximum queries in flight on the live backend before further ones
    /// queue (backpressure).  Clamped to at least 1 and below `2^63`.
    pub fn window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Shard count of the directory (clamped to at least 1; `1`
    /// degenerates to the old single-lock behaviour).  The directory is the
    /// only table it shards; `benchmarks/BENCH_saturation_cores.json` is
    /// the measurement that justifies it.
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
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

    /// Builds the pipeline backend, with its window.
    pub fn build_live(self) -> Result<LiveBackend, AllocationError> {
        let (config, window, domains) = self.take_domains()?;
        Ok(LiveBackend::new(
            LivePipeline::new(config, domains),
            Some(window),
        ))
    }

    /// The pipeline backend without a window: every query is launched at
    /// once and `submit` returns without a latch.  The `ypbench` deployment
    /// ladder builds its engine rung with it, so that its live rung (built
    /// with [`build_live`](Self::build_live)) minus this one is the
    /// window's cost; it goes with that rung.
    pub fn build_embedded(self) -> Result<LiveBackend, AllocationError> {
        let (config, _, domains) = self.take_domains()?;
        Ok(LiveBackend::new(LivePipeline::new(config, domains), None))
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
    /// list.  The pipeline backend advertises its intra-domain pool names
    /// to peers; the centralized baselines have no directory and advertise
    /// nothing.
    fn build_federated(
        self,
        kind: BackendKind,
        federation: crate::federation::FederationConfig,
    ) -> Result<Arc<crate::federation::FederatedBackend>, AllocationError> {
        let (inner, directory): (Box<dyn ResourceManager>, Option<crate::SharedDirectory>) =
            match kind {
                BackendKind::Live => {
                    let backend = self.build_live()?;
                    let directory = backend.pipeline().directory().clone();
                    (Box::new(backend), Some(directory))
                }
                BackendKind::CentralQueue | BackendKind::Matchmaker => (self.build(kind)?, None),
            };
        Ok(Arc::new(crate::federation::FederatedBackend::new(
            inner, federation, directory,
        )))
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
    ) -> Result<(ServerHandle, Arc<crate::federation::FederatedBackend>), AllocationError> {
        let server = self.server;
        let backend = self.build_federated(kind, federation)?;
        let handle = crate::server::serve_federated_with(backend.clone(), addr, server)?;
        Ok((handle, backend))
    }

    /// Connects to a `ypd` daemon at `addr` — a fourth deployment behind the
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
    fn pipelined_submissions_issue_one_ticket_per_query() {
        let manager = builder(400, 4).build(BackendKind::Live).unwrap();
        let tickets: Vec<Ticket> = (0..5)
            .map(|_| manager.submit(Query::paper_example()).unwrap())
            .collect();
        assert_eq!(tickets.len(), 5);
        assert!(manager.stats().in_flight >= 1);
        for ticket in tickets {
            let allocations = manager.wait(ticket).unwrap();
            manager.release(&allocations[0]).unwrap();
        }
        assert_eq!(manager.stats().allocations, 5);
        manager.shutdown().unwrap();
    }

    /// A full window holds a submission back until an outcome returns a
    /// permit — no redemption needed.  The one pool-manager stage is held
    /// on a release's completion, so no outcome comes before it is let go.
    #[test]
    fn live_window_applies_backpressure() {
        let manager = Arc::new(builder(300, 5).window(2).build_live().unwrap());
        let hold = crate::live::tests::hold_stage(manager.pipeline());
        let first = manager.submit_text(&paper_text()).unwrap();
        let second = manager.submit_text(&paper_text()).unwrap();
        let (returned, submitted) = std::sync::mpsc::channel();
        let blocked = {
            let manager = manager.clone();
            std::thread::spawn(move || {
                let third = manager.submit_text(&paper_text());
                returned.send(()).unwrap();
                third
            })
        };
        assert!(
            submitted.recv_timeout(Duration::from_millis(100)).is_err(),
            "a third submission into a full window returned"
        );
        // The first outcomes land and return their permits: the third
        // submission returns before any ticket is redeemed.
        hold.send(()).unwrap();
        let third = blocked.join().unwrap().unwrap();
        for ticket in [first, second, third] {
            let allocations = manager.wait(ticket).unwrap();
            manager.release(&allocations[0]).unwrap();
        }
        manager.shutdown().unwrap();
    }

    /// 600 queries go into a window of four while the stage is held: four
    /// are launched and queue in the stage's inbox, the rest in the window.
    /// The holder, on a 256 KiB stack, lets go and steps them all: each
    /// outcome launches the next admission, whose post only queues on the
    /// draining thread, so the stack does not grow with the queue.
    #[test]
    fn a_held_stage_drains_a_full_window_on_a_small_stack() {
        const QUERIES: usize = 600;
        let manager = builder(2_000, 27).window(4).build_live().unwrap();
        let hold = crate::live::tests::hold_stage(manager.pipeline());
        let (tx, answered) = std::sync::mpsc::channel();
        for _ in 0..QUERIES {
            let tx = tx.clone();
            let done: AllocateDone = Box::new(move |outcome| {
                let name = std::thread::current().name().map(str::to_string);
                tx.send((name, outcome)).unwrap();
            });
            manager.allocate_with(Query::paper_example(), done);
        }
        assert!(answered.try_recv().is_err(), "stepped past the holder");
        assert_eq!(manager.stats().in_flight, 4);
        hold.send(()).unwrap();
        let granted: Vec<_> = (0..QUERIES)
            .map(|_| answered.recv_timeout(Duration::from_secs(20)).unwrap())
            .collect();
        for (ran_on, outcome) in granted {
            assert_eq!(ran_on.as_deref(), Some(crate::live::tests::HOLDER));
            manager.release(&outcome.unwrap()[0]).unwrap();
        }
        let stats = manager.stats();
        assert_eq!((stats.allocations, stats.releases), (600, 600));
        assert_eq!(stats.in_flight, 0);
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
        window.admit(note(1));
        window.admit(note(10));
        assert_eq!(launched.load(Ordering::SeqCst), 0, "both queue");
        assert_eq!(window.contention.load(Ordering::Relaxed), 2);
        // The returning thread launches the head, with the permit it
        // returned; nothing takes a permit past the second in line.
        window.free();
        assert_eq!(launched.load(Ordering::SeqCst), 1);
        assert!(!window.try_acquire());
        window.free();
        assert_eq!(launched.load(Ordering::SeqCst), 11);
        // With nothing waiting, a returned permit goes back to the word.
        window.free();
        assert!(window.try_acquire());
        assert!(!window.try_acquire());
    }

    /// A window of `2^63` or more is clamped below the FIFO's mark: each
    /// query launches and answers, and every permit comes back.  The wait
    /// is bounded, so a window that never launches fails instead of hanging.
    #[test]
    fn a_window_at_or_above_the_queued_mark_admits_and_returns_its_permits() {
        for window in [QUEUED, usize::MAX] {
            let manager = builder(200, 28).window(window).build_live().unwrap();
            for _ in 0..3 {
                let (tx, answered) = std::sync::mpsc::channel();
                let done: AllocateDone = Box::new(move |outcome| drop(tx.send(outcome)));
                manager.allocate_with(Query::paper_example(), done);
                let outcome = answered.recv_timeout(Duration::from_secs(10));
                let allocations = outcome.expect("the query was launched").unwrap();
                manager.release(&allocations[0]).unwrap();
            }
            assert_eq!(manager.stats().in_flight, 0, "window {window}");
            manager.shutdown().unwrap();
        }
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
        let first = builder(200, 20).build(BackendKind::Live).unwrap();
        let second = builder(200, 21).build(BackendKind::Live).unwrap();
        let ticket = first.submit_text(&paper_text()).unwrap();
        second.submit_text(&paper_text()).unwrap();
        assert_eq!(
            second.wait(ticket).unwrap_err(),
            AllocationError::UnknownTicket
        );
        assert!(first.wait(ticket).is_ok(), "the issuer still honours it");
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
        assert!(PipelineBuilder::new().build(BackendKind::Live).is_err());
        assert!(PipelineBuilder::new()
            .build(BackendKind::Matchmaker)
            .is_err());
    }

    #[test]
    fn trait_objects_share_across_threads() {
        let manager: std::sync::Arc<dyn ResourceManager> =
            std::sync::Arc::from(builder(300, 10).build(BackendKind::Live).unwrap());
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
/// the CI `model-check` job: the daemon's own `try_acquire`, `free` and
/// `admit` over a mutex-wrapped permit word and an
/// `actyp-model` lock around the FIFO.  Launches run on whichever model
/// thread completes them and return their permit from there, as an
/// outcome does.
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
            window.free();
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
        window.admit(entry(&window, &log, 'A'));
        let holder = {
            let window = window.clone();
            thread::spawn(move || window.free())
        };
        let late = {
            let (window, log) = (window.clone(), log.clone());
            thread::spawn(move || window.admit(entry(&window, &log, 'B')))
        };
        let shortcut = {
            let (window, log) = (window.clone(), log.clone());
            thread::spawn(move || {
                if window.try_acquire() {
                    log.lock().unwrap().push('T');
                    window.free();
                }
            })
        };
        holder.join().unwrap();
        late.join().unwrap();
        shortcut.join().unwrap();
        let log = log.lock().unwrap().clone();
        assert_eq!(log.first(), Some(&'A'), "overtaken: {log:?}");
        let launched: Vec<char> = log.iter().copied().filter(|&c| c != 'T').collect();
        assert_eq!(launched, vec!['A', 'B'], "out of arrival order");
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

/// Bounded-interleaving proofs of the [`TicketBook`]'s pages (`--features
/// model`), run by the CI `model-check` job: the book's own `fill` and
/// `redeem` over an `actyp-model` mutex and condvar.  A pool-manager stage
/// files a ticket's outcome while redeemers take it — in the second
/// scenario with a deadline that may pass as the fill lands, as a
/// `wait_deadline` or `try_poll` may.
#[cfg(all(test, feature = "model"))]
mod book_model_tests {
    use super::{Book, Entries, PageLock, QueryOutcome};
    use crate::allocation::AllocationError;
    use actyp_model::sync::{Condvar, Mutex, MutexGuard};
    use actyp_model::{thread, Explorer};
    use std::sync::Arc;
    use std::time::Duration;

    struct ModelPages {
        entries: Mutex<Entries>,
        filed: Condvar,
    }

    impl Default for ModelPages {
        fn default() -> Self {
            ModelPages {
                entries: Mutex::new(Entries::default()),
                filed: Condvar::new(),
            }
        }
    }

    impl PageLock for ModelPages {
        type Guard<'a> = MutexGuard<'a, Entries>;
        fn lock(&self) -> Self::Guard<'_> {
            self.entries.lock().unwrap()
        }
        fn wait<'a>(
            &'a self,
            entries: Self::Guard<'a>,
            timeout: Option<Duration>,
        ) -> (Self::Guard<'a>, bool) {
            match timeout {
                None => (self.filed.wait(entries).unwrap(), false),
                Some(timeout) => {
                    let (entries, waited) = self.filed.wait_timeout(entries, timeout).unwrap();
                    (entries, waited.timed_out())
                }
            }
        }
        fn signal(&self) {
            self.filed.notify_all();
        }
    }

    type ModelBook = Book<ModelPages>;

    fn explorer() -> Explorer {
        Explorer {
            max_schedules: 200_000,
            preemption_bound: 2,
            op_budget: 50_000,
        }
    }

    fn outcome() -> QueryOutcome {
        Err(AllocationError::NoSuchResources)
    }

    /// A book with ticket 0 open, and the stage filing its outcome on a
    /// thread of its own.  A `slow` stage first waits out a timer nobody
    /// cuts short: the model fires it only once every other thread is
    /// blocked, and picks between it and a redeemer's deadline, so the
    /// deadline can pass before the fill as well as after it.
    fn filing(slow: bool) -> (Arc<ModelBook>, thread::JoinHandle<()>) {
        let book = Arc::new(ModelBook::default());
        book.open(0);
        let stage = book.clone();
        let fill = thread::spawn(move || {
            if slow {
                let (gate, timer) = (Mutex::new(()), Condvar::new());
                let held = gate.lock().unwrap();
                drop(timer.wait_timeout(held, Duration::from_secs(1)).unwrap());
            }
            stage.fill(0, outcome())
        });
        (book, fill)
    }

    /// Two redeemers take ticket 0 while its outcome is filed: exactly one
    /// gets it, and the other is told the ticket is spent.
    fn two_redeemers_race_the_fill() {
        let (book, stage) = filing(false);
        let other = {
            let book = book.clone();
            thread::spawn(move || book.redeem(0, None))
        };
        let mut got = vec![book.redeem(0, None), other.join().unwrap()];
        stage.join().unwrap();
        got.sort_by_key(|redeemed| redeemed != &Some(outcome()));
        assert_eq!(
            got,
            vec![Some(outcome()), Some(Err(AllocationError::UnknownTicket))],
            "not delivered to exactly one redeemer"
        );
    }

    /// A redeemer waits for ticket 0 with a deadline that may pass as the
    /// outcome is filed.  One that gave up leaves the ticket open, and the
    /// next redemption gets the outcome: either way it is delivered once,
    /// and the ticket is spent after.
    fn a_give_up_races_the_fill() {
        let (book, stage) = filing(true);
        let first = book.redeem(0, Some(Duration::from_secs(1)));
        let gave_up = first.is_none();
        let delivered = first.or_else(|| book.redeem(0, None));
        stage.join().unwrap();
        assert_eq!(
            delivered,
            Some(outcome()),
            "the outcome was lost (gave up: {gave_up})"
        );
        assert_eq!(
            book.redeem(0, Some(Duration::ZERO)),
            Some(Err(AllocationError::UnknownTicket)),
            "a redeemed ticket is spent"
        );
    }

    #[cfg(not(feature = "buggy-giveup"))]
    #[test]
    fn book_delivers_exactly_once_proven() {
        let report = explorer().prove(two_redeemers_race_the_fill);
        assert!(report.proven());
        assert!(report.schedules > 2, "interleavings actually explored");
    }

    #[cfg(not(feature = "buggy-giveup"))]
    #[test]
    fn book_give_up_keeps_the_ticket_proven() {
        let report = explorer().prove(a_give_up_races_the_fill);
        assert!(report.proven());
        assert!(report.schedules > 2, "interleavings actually explored");
    }

    /// REGRESSION (`--features model,buggy-giveup`): a redemption that
    /// gives up drops its ticket, so the outcome filed meanwhile is lost.
    /// The exploration must find the next redemption told the ticket is
    /// unknown.
    #[cfg(feature = "buggy-giveup")]
    #[test]
    fn book_lost_outcome_recaught() {
        let report = explorer().explore(a_give_up_races_the_fill);
        let failure = report
            .failure
            .expect("a give-up that drops the ticket must be caught within the exploration");
        assert!(
            failure.message.contains("outcome was lost"),
            "expected a lost outcome, got: {}",
            failure.message
        );
    }
}
