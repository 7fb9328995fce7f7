//! The pipeline's stages, wired once and placed one of two ways.
//!
//! "All stages in the resource management pipeline can be independently
//! distributed and replicated across machines.  Queries propagate from one
//! stage to the next via TCP or UDP" (Section 6).  Where a stage runs is a
//! deployment choice, so one [`LivePipeline`] serves both in-process
//! deployments and only its `Placement` differs:
//!
//! * **threaded** (the live backend): every pool-manager stage runs on its
//!   own `yp-pm-N` thread and stages exchange messages over channels, so
//!   queries are genuinely pipelined;
//! * **inline** (the embedded backend): the thread that posts a message to
//!   a stage runs its step, so a query runs start to finish on its caller's
//!   thread.
//!
//! Either way each stage's pool manager sits behind a lock held for one
//! step, and a step only *says* what comes next — deliver this fragment,
//! post this message to that stage, or answer this release (`Next`); the
//! placement does it once the pool manager is unlocked.
//! The query manager owns no pool state and has no thread: whoever
//! launches a query runs it on one of the `query_managers` replicas and
//! posts each fragment to its pool-manager stage.  Each fragment carries a
//! handle on its query's join, and the stage that delivers the last result
//! re-integrates the query — the paper's "another query-manager stage at
//! the end of the pipeline" — and fills its `OutcomeSlot`, in which a
//! redeemer leaves a completion for that stage to run — and may take it
//! back while the outcome has not come.
//!
//! The channel hop stands in for the TCP/UDP hop of the paper's deployment;
//! the simulated deployment ([`crate::sim`]) is where wire latency is
//! modelled explicitly.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError};
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, SendError, Sender};
use parking_lot::Mutex;

use actyp_grid::SharedDatabase;
use actyp_query::{BasicQuery, Query, QuerySchema};

use crate::allocation::{Allocation, AllocationError, ReleaseDone, WaitDone};
use crate::directory::{LocalDirectoryService, SharedDirectory};
use crate::message::{RequestId, RequestIdGenerator, RoutingState};
use crate::pool_manager::{HandleOutcome, InstanceSelection, PoolManager, PoolManagerConfig};
use crate::query_manager::{PoolManagerSelection, QueryManager, ReintegrationPolicy};
use crate::scheduler::SchedulingObjective;

/// Configuration of a pipeline.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Number of query-manager replicas (run on the launching thread).
    pub query_managers: usize,
    /// Number of pool-manager stages (single-domain deployments; federated
    /// deployments name one database per stage instead).
    pub pool_managers: usize,
    /// Scheduling objective used by created pools.
    pub objective: SchedulingObjective,
    /// Pool-instance selection policy inside pool managers.
    pub instance_selection: InstanceSelection,
    /// Pool-manager selection policy inside query managers.
    pub pool_manager_selection: PoolManagerSelection,
    /// Re-integration policy for composite queries.
    pub reintegration: ReintegrationPolicy,
    /// Maximum number of basic queries a composite query may expand into.
    pub decompose_limit: usize,
    /// Delegation time-to-live.
    pub ttl: u32,
    /// Hour of virtual day used for time-of-day usage policies.
    pub hour_of_day: u8,
    /// RNG seed for all stage-local randomness.
    pub seed: u64,
    /// Lock shards in the shared directory (and the other hot tables the
    /// daemon keys off it).  `1` degenerates to the old single-lock
    /// behaviour; the saturation benches sweep this.
    pub shards: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            query_managers: 1,
            pool_managers: 1,
            objective: SchedulingObjective::LeastLoaded,
            instance_selection: InstanceSelection::Random,
            pool_manager_selection: PoolManagerSelection::RoundRobin,
            reintegration: ReintegrationPolicy::All,
            decompose_limit: 16,
            ttl: 8,
            hour_of_day: 12,
            seed: 0xAC7C_9A9E,
            shards: crate::shard::DEFAULT_SHARDS,
        }
    }
}

/// Statistics a pipeline accumulates over its lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Client requests submitted.
    pub requests: u64,
    /// Basic queries produced by decomposition.
    pub fragments: u64,
    /// Successful allocations handed to clients.
    pub allocations: u64,
    /// Failed fragments.
    pub failures: u64,
    /// Delegations between pool managers.
    pub delegations: u64,
    /// Forwards to pool instances hosted by a different manager.
    pub forwards: u64,
    /// Allocations released by clients.
    pub releases: u64,
    /// Machine records examined for the allocations queries kept.
    pub records_examined: u64,
}

/// The counters behind [`PipelineStats`], shared by every launching and
/// stage thread.
#[derive(Debug, Default)]
struct LiveCounters {
    requests: AtomicU64,
    fragments: AtomicU64,
    allocations: AtomicU64,
    failures: AtomicU64,
    delegations: AtomicU64,
    forwards: AtomicU64,
    releases: AtomicU64,
    examined: AtomicU64,
}

impl LiveCounters {
    fn snapshot(&self) -> PipelineStats {
        PipelineStats {
            requests: self.requests.load(Ordering::Relaxed),
            fragments: self.fragments.load(Ordering::Relaxed),
            allocations: self.allocations.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            delegations: self.delegations.load(Ordering::Relaxed),
            forwards: self.forwards.load(Ordering::Relaxed),
            releases: self.releases.load(Ordering::Relaxed),
            records_examined: self.examined.load(Ordering::Relaxed),
        }
    }
}

/// What a launched query resolves to.
type Outcome = Result<Vec<Allocation>, AllocationError>;

/// What one fragment resolves to.
type FragmentResult = Result<Allocation, AllocationError>;

/// A launched query's one reply mechanism.  The pool-manager stage that
/// answers the query's last fragment fills it; a redeemer leaves a
/// completion in it, and may take that completion back while no outcome
/// has come for it.  The outcome and the completion meet under the one
/// lock, and whichever arrives second runs the completion — the redeemer's
/// own thread when the outcome was already there, the stage when it was
/// not.
///
/// Generic over its lock, like the admission window, so the model checker
/// (`slot_model_tests` below) runs this very code.
pub(crate) struct OutcomeSlot<L = Mutex<SlotState>> {
    cell: L,
}

pub(crate) enum SlotState {
    Pending,
    Ready(Outcome),
    Waiter(WaitDone),
    /// The outcome went to its redeemer.
    Spent,
}

/// The lock around an [`OutcomeSlot`]'s state.
pub(crate) trait SlotLock: Send + Sync {
    type Guard<'a>: std::ops::DerefMut<Target = SlotState>
    where
        Self: 'a;
    fn new(state: SlotState) -> Self;
    fn lock(&self) -> Self::Guard<'_>;
}

impl SlotLock for Mutex<SlotState> {
    type Guard<'a> = parking_lot::MutexGuard<'a, SlotState>;
    fn new(state: SlotState) -> Self {
        Mutex::new(state)
    }
    fn lock(&self) -> Self::Guard<'_> {
        Mutex::lock(self)
    }
}

impl<L: SlotLock> OutcomeSlot<L> {
    fn new() -> Arc<Self> {
        Arc::new(OutcomeSlot {
            cell: L::new(SlotState::Pending),
        })
    }

    /// Stage side: the outcome is in.  A waiting completion runs here, on
    /// the stage's thread, after the lock is released.
    fn fill(&self, outcome: Outcome) {
        let mut cell = self.cell.lock();
        match std::mem::replace(&mut *cell, SlotState::Spent) {
            SlotState::Waiter(done) => {
                drop(cell);
                done(outcome);
            }
            _ => *cell = SlotState::Ready(outcome),
        }
    }

    /// Leaves `done` to be run with the outcome: right here when it is
    /// already in, by the filling stage otherwise.
    pub(crate) fn on_ready(&self, done: WaitDone) {
        let mut cell = self.cell.lock();
        match std::mem::replace(&mut *cell, SlotState::Spent) {
            SlotState::Ready(outcome) => {
                drop(cell);
                done(outcome);
            }
            _ => *cell = SlotState::Waiter(done),
        }
    }

    /// Takes back the completion [`on_ready`](Self::on_ready) left, while no
    /// outcome has come for it: the slot is then as it was before.  `None`
    /// means the completion ran or is running.  Under `buggy-cancel` (model
    /// checking only) a withdrawal that finds a fill took the completion
    /// reports it withdrawn all the same.
    pub(crate) fn withdraw(&self) -> Option<WaitDone> {
        let mut cell = self.cell.lock();
        match std::mem::replace(&mut *cell, SlotState::Pending) {
            SlotState::Waiter(done) => Some(done),
            #[cfg(feature = "buggy-cancel")]
            SlotState::Spent => Some(Box::new(|_| {})),
            other => {
                *cell = other;
                None
            }
        }
    }
}

/// The answer of a query or fragment dropped unprocessed (a stage that
/// panicked, a pipeline torn down): no redeemer waits forever.
fn dropped() -> AllocationError {
    AllocationError::Internal("pipeline dropped the reply".to_string())
}

/// The pipeline's end of an [`OutcomeSlot`], filled exactly once: with the
/// outcome, or with [`dropped`].  Its query is in flight until then, and
/// shutdown stops the stages only once no promise is left.
struct Promise {
    slot: Option<Arc<OutcomeSlot>>,
    shared: Arc<Shared>,
}

impl Promise {
    fn new(shared: &Arc<Shared>, slot: Arc<OutcomeSlot>) -> Self {
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        Promise {
            slot: Some(slot),
            shared: shared.clone(),
        }
    }

    fn fill(mut self, outcome: Outcome) {
        if let Some(slot) = self.slot.take() {
            slot.fill(outcome);
        }
    }
}

impl Drop for Promise {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            slot.fill(Err(dropped()));
        }
        let shared = &self.shared;
        if shared.in_flight.fetch_sub(1, Ordering::SeqCst) == 1
            && shared.closing.load(Ordering::SeqCst)
        {
            let _idle = shared.idle.lock().unwrap_or_else(PoisonError::into_inner);
            shared.drained.notify_all();
        }
    }
}

/// A launched query's fragments meeting again: each one's result by index,
/// how many are still out, and the promise of the whole query.
struct Join {
    /// The replica that prepared the query; it re-integrates it too.
    replica: usize,
    /// A leaf lock: released before the query is re-integrated.
    parts: Mutex<Parts>,
}

struct Parts {
    /// One per fragment, each overwritten by that fragment's delivery.
    results: Vec<FragmentResult>,
    remaining: usize,
    promise: Option<Promise>,
}

impl Join {
    /// Records fragment `index`'s result; the last one to arrive finishes
    /// the query, on the thread that delivered it.
    fn deliver(&self, index: usize, result: FragmentResult) {
        let mut parts = self.parts.lock();
        parts.results[index] = result;
        parts.remaining -= 1;
        if parts.remaining > 0 {
            return;
        }
        let results = std::mem::take(&mut parts.results);
        let promise = parts
            .promise
            .take()
            .expect("the last fragment answers once");
        drop(parts);
        self.finish(results, promise);
    }

    /// Re-integrates the query and answers it once its surplus matches
    /// have been handed back.  Each fragment's result is counted here, and
    /// so are the records examined for the allocations the query keeps.
    fn finish(&self, results: Vec<FragmentResult>, promise: Promise) {
        let shared = promise.shared.clone();
        let failed = results.iter().filter(|result| result.is_err()).count() as u64;
        let counters = &shared.counters;
        counters.failures.fetch_add(failed, Ordering::Relaxed);
        counters
            .allocations
            .fetch_add(results.len() as u64 - failed, Ordering::Relaxed);
        let reintegrated = shared.replicas[self.replica]
            .lock()
            .reintegrate(results, shared.config.reintegration);
        match reintegrated {
            Ok((keep, surplus)) => {
                let examined: u64 = keep.iter().map(|a| a.examined as u64).sum();
                counters.examined.fetch_add(examined, Ordering::Relaxed);
                let then = Box::new(move || promise.fill(Ok(keep)));
                release_surplus(shared, surplus.into_iter(), then)
            }
            Err(e) => promise.fill(Err(e)),
        }
    }
}

/// One basic query of a launched query, carried from stage to stage with a
/// handle on its query's [`Join`] and answered exactly once: with a stage's
/// result, or — dropped unprocessed — with [`dropped`].
struct Fragment {
    request: RequestId,
    basic: BasicQuery,
    /// The join and this fragment's place in it, until it answers.
    join: Option<(Arc<Join>, usize)>,
}

impl Fragment {
    fn deliver(&mut self, result: FragmentResult) {
        if let Some((join, index)) = self.join.take() {
            join.deliver(index, result);
        }
    }
}

impl Drop for Fragment {
    fn drop(&mut self) {
        self.deliver(Err(dropped()));
    }
}

/// Hands `surplus` back in order, each release a completion of the stage
/// that performs it, and runs `then` once the last one has answered.  An
/// allocation is uncounted only when its release succeeds.  Nothing parks,
/// so a stage may release its own surplus.
fn release_surplus(
    shared: Arc<Shared>,
    mut surplus: std::vec::IntoIter<Allocation>,
    then: Box<dyn FnOnce() + Send>,
) {
    let Some(extra) = surplus.next() else {
        return then();
    };
    let next = shared.clone();
    shared.release_with(
        &extra,
        Box::new(move |released| {
            if released.is_ok() {
                next.counters.allocations.fetch_sub(1, Ordering::Relaxed);
            }
            release_surplus(next, surplus, then);
        }),
    );
}

/// Asks the first of `stages` to release `allocation`; on a refusal that
/// stage asks the next one, and `done` gets the first success or the last
/// refusal.
fn try_release(
    shared: Arc<Shared>,
    mut stages: std::vec::IntoIter<String>,
    allocation: Allocation,
    refused: Result<(), AllocationError>,
    done: ReleaseDone,
) {
    let Some(name) = stages.next() else {
        return done(refused);
    };
    let next = shared.clone();
    let attempt = PmMsg::Release {
        allocation: allocation.clone(),
        done: Box::new(move |released| match released {
            Ok(()) => {
                next.counters.releases.fetch_add(1, Ordering::Relaxed);
                done(Ok(()));
            }
            refused => try_release(next, stages, allocation, refused, done),
        }),
    };
    if let Some(PmMsg::Release { done, .. }) = shared.post(&name, attempt) {
        done(Err(AllocationError::Internal("stage is down".to_string())));
    }
}

/// Looks up, through the directory, the pool manager hosting the instance an
/// allocation came from (`None` when the instance is no longer registered —
/// a release then asks every stage in turn).
fn owning_manager(directory: &SharedDirectory, allocation: &Allocation) -> Option<String> {
    directory
        .instances(&allocation.pool)
        .into_iter()
        .find(|r| r.instance == allocation.pool_instance)
        .map(|r| r.manager)
}

enum PmMsg {
    Query {
        fragment: Fragment,
        routing: RoutingState,
    },
    AllocateFrom {
        pool: String,
        instance: u32,
        fragment: Fragment,
    },
    /// The stage drops the lease and then answers `done`.
    Release {
        allocation: Allocation,
        done: ReleaseDone,
    },
    /// Test hook: makes the receiving stage panic so teardown reporting can
    /// be exercised.
    #[cfg(test)]
    Panic,
}

/// What a stage step leaves to its placement, done once the step's pool
/// manager is unlocked: on the stage's thread, or on the posting thread.
enum Next {
    /// Answer the fragment with its result.
    Deliver(Fragment, FragmentResult),
    /// Post the message to the named stage.  A message no stage takes is
    /// dropped, and its fragment answers.
    Post(String, PmMsg),
    /// Answer the release.
    Answer(ReleaseDone, Result<(), AllocationError>),
}

impl Next {
    fn follow(self, shared: &Arc<Shared>) {
        match self {
            Next::Deliver(mut fragment, result) => fragment.deliver(result),
            Next::Post(stage, msg) => drop(shared.post(&stage, msg)),
            Next::Answer(done, released) => done(released),
        }
    }
}

/// One step of a pool-manager stage: `pm` handles `msg` and says what
/// comes next, acting on none of it, so no placement holds a pool manager
/// across a delivery, a post or another stage's step.  A fragment is
/// served from a pool hosted here, or passed on: to the stage hosting its
/// pool, or — when no pool can be made here — to a peer that has not seen
/// it yet, carrying the routing state along.
fn step(pm: &mut PoolManager, msg: PmMsg, shared: &Shared) -> Next {
    let (counters, hour) = (&shared.counters, shared.config.hour_of_day);
    let (fragment, mut routing) = match msg {
        PmMsg::Query { fragment, routing } => (fragment, routing),
        PmMsg::AllocateFrom {
            pool,
            instance,
            fragment,
        } => {
            let (request, basic) = (fragment.request, &fragment.basic);
            let result = pm.allocate_from(&pool, instance, request, basic, hour);
            return Next::Deliver(fragment, result);
        }
        PmMsg::Release { allocation, done } => return Next::Answer(done, pm.release(&allocation)),
        #[cfg(test)]
        PmMsg::Panic => panic!("injected pool-manager panic"),
    };
    if !routing.visit(pm.name()) {
        return Next::Deliver(fragment, Err(AllocationError::TtlExpired));
    }
    match pm.handle(fragment.request, &fragment.basic, hour) {
        HandleOutcome::Allocated(a) => Next::Deliver(fragment, Ok(a)),
        HandleOutcome::Failed(err) => Next::Deliver(fragment, Err(err)),
        HandleOutcome::Forward {
            manager,
            pool,
            instance,
        } => {
            counters.forwards.fetch_add(1, Ordering::Relaxed);
            let forward = PmMsg::AllocateFrom {
                pool,
                instance,
                fragment,
            };
            Next::Post(manager, forward)
        }
        HandleOutcome::CannotCreate => {
            counters.delegations.fetch_add(1, Ordering::Relaxed);
            match shared
                .pm_names
                .iter()
                .find(|name| !routing.has_visited(name))
            {
                Some(peer) if routing.alive() => {
                    Next::Post(peer.clone(), PmMsg::Query { fragment, routing })
                }
                _ => Next::Deliver(fragment, Err(AllocationError::NoSuchResources)),
            }
        }
    }
}

/// Where a pipeline's pool-manager stages run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Placement {
    /// Each on a `yp-pm-N` thread of its own, fed over a channel.
    Threaded,
    /// Each stepped by whichever thread posts to it.
    Inline,
}

/// One pool-manager stage.
struct Stage {
    /// Held for one step: over the directory's `managers` and `shard`
    /// locks only, never across a delivery, a post or another stage's
    /// lock (`docs/CONCURRENCY.md`).
    manager: Mutex<PoolManager>,
    /// The queue of the stage's `yp-pm-N` thread (`None` stops it); a stage
    /// without one is inline.
    queue: Option<Sender<Option<PmMsg>>>,
}

impl Stage {
    /// Steps `msg` with the pool manager locked, and follows up on the
    /// step's result once it is unlocked — here, on whichever thread runs
    /// the stage.
    fn serve(&self, msg: PmMsg, shared: &Arc<Shared>) {
        let next = step(&mut self.manager.lock(), msg, shared);
        next.follow(shared);
    }
}

/// What launching a query and finishing it touch, shared by every
/// launching thread and every pool-manager stage.
struct Shared {
    /// The query-manager replicas, taken round robin.  Each is a leaf lock,
    /// never held across a post.
    replicas: Vec<Mutex<QueryManager>>,
    cursor: AtomicUsize,
    stages: HashMap<String, Stage>,
    pm_names: Vec<String>,
    directory: SharedDirectory,
    config: PipelineConfig,
    counters: LiveCounters,
    /// Launched queries not answered yet.
    in_flight: AtomicUsize,
    /// Set once shutdown waits for `in_flight` to drain.
    closing: AtomicBool,
    idle: std::sync::Mutex<()>,
    drained: std::sync::Condvar,
}

impl Shared {
    /// Hands `msg` to stage `name`: onto its thread's queue, or — inline —
    /// steps it right here and follows up once the pool manager is
    /// unlocked.  A message no stage takes comes back.
    fn post(self: &Arc<Self>, name: &str, msg: PmMsg) -> Option<PmMsg> {
        let Some(stage) = self.stages.get(name) else {
            return Some(msg);
        };
        match &stage.queue {
            Some(queue) => queue.send(Some(msg)).err().and_then(|SendError(msg)| msg),
            None => {
                stage.serve(msg, self);
                None
            }
        }
    }

    /// Releases `allocation` on the stage hosting its pool, or — when the
    /// directory no longer knows it — on each stage in turn until one
    /// accepts; `done` runs on the stage that answers last.
    fn release_with(self: &Arc<Self>, allocation: &Allocation, done: ReleaseDone) {
        let owner = owning_manager(&self.directory, allocation);
        let stages = match owner.filter(|owner| self.stages.contains_key(owner)) {
            Some(owner) => vec![owner],
            None => self.pm_names.clone(),
        };
        let (shared, allocation) = (self.clone(), allocation.clone());
        let refused = Err(AllocationError::UnknownAllocation);
        try_release(shared, stages.into_iter(), allocation, refused, done);
    }

    /// Waits until nothing launched is in flight.
    fn drain(&self) {
        self.closing.store(true, Ordering::SeqCst);
        let idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
        let busy = |_: &mut ()| self.in_flight.load(Ordering::SeqCst) > 0;
        let _idle = self.drained.wait_while(idle, busy);
    }
}

/// A threaded stage's `yp-pm-N` thread: steps each message its queue
/// brings, the pool manager locked for the step only, until `None`.
fn stage_thread(shared: Arc<Shared>, name: String, queue: Receiver<Option<PmMsg>>) {
    let stage = &shared.stages[&name];
    while let Ok(Some(msg)) = queue.recv() {
        stage.serve(msg, &shared);
    }
}

/// Launches queries into the pipeline from any thread.
#[derive(Clone)]
pub(crate) struct Launcher(Arc<Shared>);

impl Launcher {
    /// [`LivePipeline::release_with`], for whoever holds only the launcher.
    pub(crate) fn release_with(&self, allocation: &Allocation, done: ReleaseDone) {
        self.0.release_with(allocation, done);
    }

    /// Launches a query without waiting: the query manager runs here, on
    /// one of its replicas, and posts each fragment to its pool-manager
    /// stage; the slot receives the outcome once the last fragment is in
    /// (before this returns, on the inline placement).  A query the query
    /// manager refuses fills its slot with the error at once; `Err` means
    /// the pipeline is down.
    pub(crate) fn launch(&self, query: Query) -> Result<Arc<OutcomeSlot>, AllocationError> {
        let shared = &self.0;
        shared.counters.requests.fetch_add(1, Ordering::Relaxed);
        let slot = OutcomeSlot::new();
        let promise = Promise::new(shared, slot.clone());
        let replica = shared.cursor.fetch_add(1, Ordering::Relaxed) % shared.replicas.len();
        let mut qm = shared.replicas[replica].lock();
        let prepared = qm.prepare(&query).map(|prepared| prepared.fragments);
        let targets: Vec<Option<String>> = (prepared.iter().flatten())
            .map(|(_, basic)| qm.select_pool_manager(basic, &shared.pm_names))
            .collect();
        drop(qm);
        let fragments = match prepared {
            Ok(fragments) => fragments,
            Err(refused) => {
                promise.fill(Err(refused));
                return Ok(slot);
            }
        };

        let join = Arc::new(Join {
            replica,
            parts: Mutex::new(Parts {
                results: vec![Err(AllocationError::NoSuchResources); fragments.len()],
                remaining: fragments.len(),
                promise: Some(promise),
            }),
        });
        for (index, ((tag, basic), target)) in fragments.into_iter().zip(targets).enumerate() {
            shared.counters.fragments.fetch_add(1, Ordering::Relaxed);
            let mut fragment = Fragment {
                request: tag.request,
                basic,
                join: Some((join.clone(), index)),
            };
            let Some(stage) = target else {
                fragment.deliver(Err(AllocationError::Internal("no pool managers".into())));
                continue;
            };
            let routing = RoutingState::new(shared.config.ttl);
            if shared
                .post(&stage, PmMsg::Query { fragment, routing })
                .is_some()
            {
                return Err(AllocationError::Internal(
                    "pool manager stage is down".into(),
                ));
            }
        }
        Ok(slot)
    }
}

/// A running deployment of the pipeline, its pool-manager stages placed
/// inline or on threads of their own.
pub struct LivePipeline {
    launcher: Launcher,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl LivePipeline {
    /// Starts a deployment with one pool-manager stage per domain.
    pub(crate) fn new(
        config: PipelineConfig,
        domains: Vec<(String, SharedDatabase)>,
        placement: Placement,
    ) -> Self {
        assert!(!domains.is_empty(), "at least one domain is required");
        let ids = Arc::new(RequestIdGenerator::new());
        let replicas = (0..config.query_managers.max(1))
            .map(|i| {
                Mutex::new(QueryManager::new(
                    format!("qm-{i}"),
                    QuerySchema::punch_default().permissive(),
                    config.pool_manager_selection.clone(),
                    config.decompose_limit,
                    ids.clone(),
                    config.seed ^ (0x51 + i as u64),
                ))
            })
            .collect();
        let pm_names: Vec<String> = domains.iter().map(|(name, _)| name.clone()).collect();
        let directory = LocalDirectoryService::new().into_shared_with(config.shards);
        let mut queues = Vec::new();
        let stages = domains.into_iter().enumerate().map(|(i, (name, db))| {
            let manager = PoolManager::new(
                name.clone(),
                db,
                directory.clone(),
                PoolManagerConfig {
                    selection: config.instance_selection,
                    objective: config.objective,
                    host: format!("actyp-node-{i}"),
                    base_port: 7300,
                },
                config.seed ^ (0x90 + i as u64),
            );
            let queue = (placement == Placement::Threaded).then(|| {
                let (tx, rx) = unbounded();
                queues.push((name.clone(), rx));
                tx
            });
            let manager = Mutex::new(manager);
            (name, Stage { manager, queue })
        });
        let shared = Arc::new(Shared {
            replicas,
            cursor: AtomicUsize::new(0),
            stages: stages.collect(),
            pm_names,
            directory,
            config,
            counters: LiveCounters::default(),
            in_flight: AtomicUsize::new(0),
            closing: AtomicBool::new(false),
            idle: std::sync::Mutex::new(()),
            drained: std::sync::Condvar::new(),
        });
        let workers = queues.into_iter().enumerate().map(|(i, (name, queue))| {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("yp-pm-{i}"))
                .spawn(move || stage_thread(shared, name, queue))
                .expect("spawn pool-manager stage")
        });
        LivePipeline {
            workers: Mutex::new(workers.collect()),
            launcher: Launcher(shared),
        }
    }

    /// The shared directory service (inspection).
    pub fn directory(&self) -> &SharedDirectory {
        &self.launcher.0.directory
    }

    /// A snapshot of the per-stage counters.
    pub fn stats(&self) -> PipelineStats {
        self.launcher.0.counters.snapshot()
    }

    /// Runs `f` on the named stage's pool manager, locked for the call
    /// (experiments that destroy pools); `f` must not call back into this
    /// pipeline.  `None` names no stage.
    pub fn with_pool_manager<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut PoolManager) -> R,
    ) -> Option<R> {
        let stage = self.launcher.0.stages.get(name)?;
        let mut manager = stage.manager.lock();
        Some(f(&mut manager))
    }

    /// A handle that launches queries into this pipeline from anywhere.
    pub(crate) fn launcher(&self) -> Launcher {
        self.launcher.clone()
    }

    /// Runs `query` to its outcome.  On the inline placement the launch
    /// runs every stage, so the outcome is in when it returns.
    pub(crate) fn resolve(&self, query: Query) -> Outcome {
        let slot = self.launcher.launch(query)?;
        let state = std::mem::replace(&mut *slot.cell.lock(), SlotState::Spent);
        match state {
            SlotState::Ready(outcome) => outcome,
            _ => Err(dropped()),
        }
    }

    /// Releases an allocation without waiting for it: the stage that drops
    /// the lease calls `done` (the stages are asked in turn, each asking the
    /// next, when the directory does not know the owner).  If the stages
    /// shut down first, it is dropped uncalled.
    pub fn release_with(&self, allocation: &Allocation, done: ReleaseDone) {
        self.launcher.release_with(allocation, done);
    }

    /// Shuts the deployment down, joining every stage thread; the error
    /// lists every stage that panicked during the run.  The stages stop only
    /// once no launched query is in flight — they forward to each other —
    /// so outstanding tickets still redeem their real outcome afterwards.
    pub fn shutdown(&self) -> Result<(), AllocationError> {
        let shared = &self.launcher.0;
        shared.drain();
        for queue in shared
            .stages
            .values()
            .filter_map(|stage| stage.queue.as_ref())
        {
            let _ = queue.send(None);
        }
        let handles: Vec<JoinHandle<()>> = self.workers.lock().drain(..).collect();
        let panics: Vec<String> = handles
            .into_iter()
            .filter_map(|handle| handle.join().err())
            .map(|payload| panic_message(payload.as_ref()))
            .collect();
        if panics.is_empty() {
            Ok(())
        } else {
            Err(AllocationError::Internal(format!(
                "stage worker panicked: {}",
                panics.join("; ")
            )))
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

impl Drop for LivePipeline {
    fn drop(&mut self) {
        // A leaked pipeline must not orphan its stage threads.  Errors are
        // deliberately swallowed here — call `shutdown` to observe them.
        let _ = self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actyp_grid::{FleetSpec, ResourceDatabase, SyntheticFleet};
    use actyp_query::{Constraint, QueryKey};
    use std::time::Duration;
    use Placement::{Inline, Threaded};

    /// The placements a table test runs on, each in turn.
    const PLACEMENTS: [Placement; 2] = [Threaded, Inline];

    fn fleet_db(n: usize, seed: u64) -> SharedDatabase {
        SyntheticFleet::new(FleetSpec::with_machines(n), seed)
            .generate()
            .into_shared()
    }

    fn paper_text() -> String {
        Query::paper_example().to_string()
    }

    /// A single-domain pipeline: `config.pool_managers` stages over `db`.
    fn start(placement: Placement, config: PipelineConfig, db: SharedDatabase) -> LivePipeline {
        let domains = (0..config.pool_managers.max(1))
            .map(|i| (format!("pm-{i}"), db.clone()))
            .collect();
        LivePipeline::new(config, domains, placement)
    }

    /// Launches `query` and blocks for its outcome.
    fn allocate(pipeline: &LivePipeline, query: Query) -> Outcome {
        let slot = pipeline.launcher.launch(query)?;
        redeem(&slot)
    }

    /// Parses `text`, launches it and blocks for the reply.
    fn submit_text(pipeline: &LivePipeline, text: &str) -> Outcome {
        let query =
            actyp_query::parse_query(text).map_err(|e| AllocationError::Parse(e.to_string()))?;
        allocate(pipeline, query)
    }

    fn redeem(slot: &OutcomeSlot) -> Outcome {
        let (tx, rx) = std::sync::mpsc::channel();
        slot.on_ready(Box::new(move |outcome| drop(tx.send(outcome))));
        rx.recv().expect("a slot is filled exactly once")
    }

    /// [`LivePipeline::release_with`], blocking for the answer.
    fn release_now(
        pipeline: &LivePipeline,
        allocation: &Allocation,
    ) -> Result<(), AllocationError> {
        let (tx, rx) = std::sync::mpsc::channel();
        pipeline.release_with(
            allocation,
            Box::new(move |released| drop(tx.send(released))),
        );
        rx.recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| Err(AllocationError::Internal("no answer".to_string())))
    }

    fn pool_instances(pipeline: &LivePipeline) -> usize {
        pipeline.directory().instance_count()
    }

    /// The queue of a threaded stage's thread.
    fn queue<'a>(pipeline: &'a LivePipeline, name: &str) -> &'a Sender<Option<PmMsg>> {
        pipeline.launcher.0.stages[name]
            .queue
            .as_ref()
            .expect("threaded")
    }

    fn active_jobs(db: &SharedDatabase) -> u32 {
        db.read().iter().map(|m| m.dynamic.active_jobs).sum()
    }

    #[test]
    fn live_pipeline_allocates_and_releases() {
        for placement in PLACEMENTS {
            let pipeline = start(placement, PipelineConfig::default(), fleet_db(200, 1));
            let allocations = submit_text(&pipeline, &paper_text()).unwrap();
            assert_eq!(allocations.len(), 1);
            assert!(allocations[0].machine_name.contains("sun"));
            release_now(&pipeline, &allocations[0]).unwrap();
            assert!(release_now(&pipeline, &allocations[0]).is_err());
            let stats = pipeline.stats();
            assert_eq!(stats.requests, 1, "{placement:?}");
            assert_eq!(stats.allocations, 1, "{placement:?}");
            assert_eq!(stats.releases, 1, "{placement:?}");
            assert_eq!(
                stats.records_examined, allocations[0].examined as u64,
                "{placement:?}"
            );
            pipeline.shutdown().unwrap();
        }
    }

    #[test]
    fn replicated_stages_serve_concurrent_clients() {
        for placement in PLACEMENTS {
            let config = PipelineConfig {
                query_managers: 3,
                pool_managers: 2,
                pool_manager_selection: PoolManagerSelection::RoundRobin,
                ..PipelineConfig::default()
            };
            let pipeline = Arc::new(start(placement, config, fleet_db(400, 2)));
            let mut joins = Vec::new();
            for _ in 0..6 {
                let p = pipeline.clone();
                joins.push(std::thread::spawn(move || {
                    let mut allocations = Vec::new();
                    for _ in 0..5 {
                        allocations.extend(submit_text(&p, &paper_text()).unwrap());
                    }
                    for a in &allocations {
                        release_now(&p, a).unwrap();
                    }
                    allocations.len()
                }));
            }
            let total: usize = joins.into_iter().map(|j| j.join().unwrap()).sum();
            assert_eq!(total, 30);
            assert_eq!(pipeline.stats().allocations, 30, "{placement:?}");
        }
    }

    #[test]
    fn composite_queries_reintegrate_across_threads() {
        for placement in PLACEMENTS {
            let config = PipelineConfig {
                reintegration: ReintegrationPolicy::FirstMatch,
                ..PipelineConfig::default()
            };
            let db = fleet_db(400, 3);
            let pipeline = start(placement, config, db.clone());
            let allocations = submit_text(
                &pipeline,
                "punch.rsrc.arch = sun | hp\npunch.user.accessgroup = ece\n",
            )
            .unwrap();
            assert_eq!(allocations.len(), 1);
            // The surplus fragment allocation was handed back by the pipeline.
            assert_eq!(active_jobs(&db), 1, "{placement:?}");
            release_now(&pipeline, &allocations[0]).unwrap();
            pipeline.shutdown().unwrap();
        }
    }

    #[test]
    fn federated_live_pipeline_delegates_between_domains() {
        let sun_db = SyntheticFleet::new(FleetSpec::homogeneous(40, "sun", 256), 5)
            .generate()
            .into_shared();
        let hp_db = SyntheticFleet::new(FleetSpec::homogeneous(40, "hp", 512), 6)
            .generate()
            .into_shared();
        let pipeline = LivePipeline::new(
            PipelineConfig::default(),
            vec![("purdue".to_string(), sun_db), ("upc".to_string(), hp_db)],
            Threaded,
        );
        // Both queries succeed regardless of which domain they reach first.
        let sun = submit_text(&pipeline, "punch.rsrc.arch = sun\n").unwrap();
        let hp = submit_text(&pipeline, "punch.rsrc.arch = hp\n").unwrap();
        assert!(sun[0].machine_name.contains("sun"));
        assert!(hp[0].machine_name.contains("hp"));
        pipeline.shutdown().unwrap();
    }

    #[test]
    fn parse_errors_are_returned_to_the_caller() {
        let pipeline = start(Threaded, PipelineConfig::default(), fleet_db(50, 7));
        assert!(matches!(
            submit_text(&pipeline, "garbage").unwrap_err(),
            AllocationError::Parse(_)
        ));
        pipeline.shutdown().unwrap();
    }

    #[test]
    fn shutdown_via_drop_does_not_hang() {
        let pipeline = start(Threaded, PipelineConfig::default(), fleet_db(50, 8));
        let _ = submit_text(&pipeline, &paper_text()).unwrap();
        drop(pipeline);
    }

    #[test]
    fn async_submissions_overlap_in_the_pipeline() {
        let config = PipelineConfig {
            query_managers: 2,
            ..PipelineConfig::default()
        };
        let pipeline = start(Threaded, config, fleet_db(300, 9));
        let query = Query::paper_example();
        // Three queries in flight before any reply is awaited.
        let pending: Vec<_> = (0..3)
            .map(|_| pipeline.launcher.launch(query.clone()).unwrap())
            .collect();
        for slot in pending {
            let allocations = redeem(&slot).unwrap();
            release_now(&pipeline, &allocations[0]).unwrap();
        }
        assert_eq!(pipeline.stats().allocations, 3);
        pipeline.shutdown().unwrap();
    }

    #[test]
    fn queued_submissions_complete_across_shutdown() {
        // Shutdown stops the stages only once nothing launched is in
        // flight, so a submission still queued when shutdown begins is
        // processed end to end and its slot receives the real outcome.
        for placement in PLACEMENTS {
            let pipeline = start(placement, PipelineConfig::default(), fleet_db(200, 11));
            let slot = pipeline.launcher.launch(Query::paper_example()).unwrap();
            pipeline.shutdown().unwrap();
            let allocations = redeem(&slot).unwrap();
            assert_eq!(allocations.len(), 1, "{placement:?}");
        }
    }

    /// The outcome and a completion meet in the slot, and whichever arrives
    /// second runs the completion: the filling stage when the completion
    /// was there first, the registering thread when the outcome was.
    #[test]
    fn a_completion_runs_on_whichever_thread_arrives_second() {
        let ran_on = |slot: &OutcomeSlot| {
            let (tx, rx) = std::sync::mpsc::channel();
            slot.on_ready(Box::new(move |outcome| {
                tx.send((std::thread::current().id(), outcome)).unwrap();
            }));
            rx
        };

        let slot: Arc<OutcomeSlot> = OutcomeSlot::new();
        let landed = ran_on(&slot);
        assert!(landed.try_recv().is_err(), "nothing to run yet");
        let stage = std::thread::spawn({
            let slot = slot.clone();
            move || {
                slot.fill(Ok(Vec::new()));
                std::thread::current().id()
            }
        })
        .join()
        .unwrap();
        assert_eq!(landed.recv().unwrap(), (stage, Ok(Vec::new())));

        let slot: Arc<OutcomeSlot> = OutcomeSlot::new();
        slot.fill(Err(AllocationError::NoSuchResources));
        let landed = ran_on(&slot);
        assert_eq!(
            landed.try_recv().unwrap(),
            (
                std::thread::current().id(),
                Err(AllocationError::NoSuchResources)
            )
        );
    }

    /// A completion taken back before the outcome came never runs, and the
    /// outcome waits in the slot for the next redeemer; once a completion
    /// ran, there is nothing to take back.
    #[test]
    fn a_withdrawn_completion_never_runs_and_the_outcome_waits() {
        let slot: Arc<OutcomeSlot> = OutcomeSlot::new();
        let ran = Arc::new(AtomicBool::new(false));
        let flag = ran.clone();
        slot.on_ready(Box::new(move |_| flag.store(true, Ordering::SeqCst)));
        assert!(slot.withdraw().is_some());
        assert!(slot.withdraw().is_none(), "taken back once");
        slot.fill(Err(AllocationError::NoSuchResources));
        assert!(!ran.load(Ordering::SeqCst));
        assert_eq!(redeem(&slot), Err(AllocationError::NoSuchResources));
        assert!(slot.withdraw().is_none(), "the completion ran");
    }

    /// A query the stage drops unprocessed still answers its redeemer.
    #[test]
    fn a_dropped_query_answers_with_an_error() {
        let pipeline = start(Threaded, PipelineConfig::default(), fleet_db(50, 12));
        let slot: Arc<OutcomeSlot> = OutcomeSlot::new();
        drop(Promise::new(&pipeline.launcher.0, slot.clone()));
        assert!(matches!(redeem(&slot), Err(AllocationError::Internal(_))));
        pipeline.shutdown().unwrap();
    }

    #[test]
    fn worker_panics_surface_at_shutdown() {
        let pipeline = start(Threaded, PipelineConfig::default(), fleet_db(50, 10));
        queue(&pipeline, "pm-0").send(Some(PmMsg::Panic)).unwrap();
        let err = pipeline.shutdown().unwrap_err();
        match err {
            AllocationError::Internal(message) => {
                assert!(message.contains("panicked"), "got: {message}");
                assert!(message.contains("injected pool-manager panic"));
            }
            other => panic!("expected Internal, got {other:?}"),
        }
        // A second shutdown (and the eventual drop) is a clean no-op.
        pipeline.shutdown().unwrap();
    }

    /// Both fragments of a `FirstMatch` query go to one of two stages (the
    /// routing key is absent, so it hashes alike), so the stage that
    /// delivers the last fragment owns the surplus it has to hand back.  A
    /// release that parked for its own stage's answer would never return.
    #[test]
    fn a_stage_releases_the_surplus_it_owns_without_parking() {
        for placement in PLACEMENTS {
            let config = PipelineConfig {
                pool_managers: 2,
                pool_manager_selection: PoolManagerSelection::ByKeyValue("absent".to_string()),
                reintegration: ReintegrationPolicy::FirstMatch,
                ..PipelineConfig::default()
            };
            let db = fleet_db(400, 13);
            let pipeline = start(placement, config, db.clone());
            let allocations = submit_text(
                &pipeline,
                "punch.rsrc.arch = sun | hp\npunch.user.accessgroup = ece\n",
            )
            .unwrap();
            assert_eq!(allocations.len(), 1);
            assert_eq!(active_jobs(&db), 1, "the surplus went back");
            let stats = pipeline.stats();
            assert_eq!(
                (stats.fragments, stats.allocations, stats.releases),
                (2, 1, 1),
                "{placement:?}"
            );
            release_now(&pipeline, &allocations[0]).unwrap();
            assert_eq!(active_jobs(&db), 0);
            pipeline.shutdown().unwrap();
        }
    }

    /// An allocation whose owner the directory no longer knows is offered
    /// to each stage in turn, every refusal a completion that asks the
    /// next: the owner, `pm-1`, accepts after `pm-0` refused.
    #[test]
    fn an_ownerless_release_walks_the_stages_as_completions() {
        for placement in PLACEMENTS {
            let config = PipelineConfig {
                pool_managers: 3,
                ..PipelineConfig::default()
            };
            let db = fleet_db(200, 14);
            let pipeline = start(placement, config, db.clone());
            let sun = submit_text(&pipeline, "punch.rsrc.arch = sun\n").unwrap();
            let hp = submit_text(&pipeline, "punch.rsrc.arch = hp\n").unwrap();
            pipeline
                .directory()
                .unregister_pool(&hp[0].pool, hp[0].pool_instance);
            assert_eq!(release_now(&pipeline, &hp[0]), Ok(()));
            assert_eq!(
                release_now(&pipeline, &hp[0]),
                Err(AllocationError::UnknownAllocation)
            );
            assert_eq!(active_jobs(&db), 1, "{placement:?}");
            release_now(&pipeline, &sun[0]).unwrap();
            pipeline.shutdown().unwrap();
        }
    }

    /// A join for `fragments` fragments of a query answering into `slot`.
    fn join_into(shared: &Arc<Shared>, slot: &Arc<OutcomeSlot>, fragments: usize) -> Arc<Join> {
        Arc::new(Join {
            replica: 0,
            parts: Mutex::new(Parts {
                results: vec![Err(AllocationError::NoSuchResources); fragments],
                remaining: fragments,
                promise: Some(Promise::new(shared, slot.clone())),
            }),
        })
    }

    fn fragment_of(join: &Arc<Join>, index: usize) -> Fragment {
        Fragment {
            request: RequestId(index as u64),
            basic: Query::paper_example().decompose(1).remove(0),
            join: Some((join.clone(), index)),
        }
    }

    /// Two pool-manager stages deliver a two-fragment query's results at
    /// the same time, over and over: the join re-integrates each query
    /// exactly once (it counts each fragment's result as it does) and
    /// answers each once.
    #[test]
    fn concurrent_last_fragments_reintegrate_a_query_once() {
        for placement in PLACEMENTS {
            let config = PipelineConfig {
                pool_managers: 2,
                ..PipelineConfig::default()
            };
            let db = fleet_db(400, 15);
            let pipeline = start(placement, config, db.clone());
            let answered = Arc::new(AtomicUsize::new(0));
            let query = actyp_query::parse_query("punch.rsrc.arch = sun | hp\n").unwrap();
            for _ in 0..1_000 {
                let slot = pipeline.launcher.launch(query.clone()).unwrap();
                let (tx, rx) = std::sync::mpsc::channel();
                let answered = answered.clone();
                slot.on_ready(Box::new(move |outcome| {
                    answered.fetch_add(1, Ordering::SeqCst);
                    tx.send(outcome).unwrap();
                }));
                let allocations = rx.recv().unwrap().unwrap();
                assert_eq!(allocations.len(), 2);
                for a in &allocations {
                    release_now(&pipeline, a).unwrap();
                }
            }
            let stats = pipeline.stats();
            assert_eq!(answered.load(Ordering::SeqCst), 1_000);
            assert_eq!(stats.requests, 1_000);
            assert_eq!(stats.fragments, 2_000);
            assert_eq!(
                stats.allocations + stats.failures,
                2_000,
                "one re-integration each ({placement:?})"
            );
            assert_eq!(active_jobs(&db), 0);
            pipeline.shutdown().unwrap();
        }
    }

    /// The same race forced: two threads standing in for two stages are
    /// released by a barrier to deliver a query's two fragments at once.
    #[test]
    fn simultaneous_deliveries_finish_a_query_once() {
        let pipeline = start(Threaded, PipelineConfig::default(), fleet_db(50, 18));
        let shared = pipeline.launcher.0.clone();
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let stages: Vec<_> = (0..2)
            .map(|_| {
                let (tx, rx) = unbounded::<Fragment>();
                let barrier = barrier.clone();
                let stage = std::thread::spawn(move || {
                    while let Ok(mut fragment) = rx.recv() {
                        barrier.wait();
                        fragment.deliver(Err(AllocationError::NoneAvailable));
                    }
                });
                (tx, stage)
            })
            .collect();
        for _ in 0..1_000 {
            let slot: Arc<OutcomeSlot> = OutcomeSlot::new();
            let join = join_into(&shared, &slot, 2);
            for (index, (stage, _)) in stages.iter().enumerate() {
                stage.send(fragment_of(&join, index)).unwrap();
            }
            drop(join);
            assert_eq!(redeem(&slot), Err(AllocationError::NoneAvailable));
        }
        for (stage, thread) in stages {
            drop(stage);
            thread.join().unwrap();
        }
        assert_eq!(pipeline.stats().failures, 2_000, "one re-integration each");
        pipeline.shutdown().unwrap();
    }

    /// A fragment a stopping stage never processes answers `Internal`, and
    /// nobody waits for it: queued on a stage that stopped (dropped with
    /// the stage's receiver), or refused at launch.
    #[test]
    fn a_fragment_dropped_by_a_stopping_stage_answers_internal() {
        let pipeline = start(Threaded, PipelineConfig::default(), fleet_db(50, 16));
        let shared = &pipeline.launcher.0;
        let slot: Arc<OutcomeSlot> = OutcomeSlot::new();
        let fragment = fragment_of(&join_into(shared, &slot, 1), 0);
        let (stage, stopped) = unbounded();
        let routing = RoutingState::new(8);
        stage
            .send(Some(PmMsg::Query { fragment, routing }))
            .unwrap();
        drop(stopped);
        let (tx, answered) = std::sync::mpsc::channel();
        slot.on_ready(Box::new(move |outcome| drop(tx.send(outcome))));
        assert!(matches!(
            answered.try_recv(),
            Ok(Err(AllocationError::Internal(_)))
        ));

        queue(&pipeline, "pm-0").send(None).unwrap();
        let outcome = allocate(&pipeline, Query::paper_example());
        assert!(
            matches!(outcome, Err(AllocationError::Internal(_))),
            "{outcome:?}"
        );
        pipeline.shutdown().unwrap();
    }

    /// The drain guarantee with fragments crossing stages: after a warm-up
    /// leaves the pool on `pm-0`, round robin sends every other query to
    /// `pm-1`, which forwards it.  Shutdown waits for all of them.
    #[test]
    fn queued_submissions_crossing_stages_complete_across_shutdown() {
        for placement in PLACEMENTS {
            let config = PipelineConfig {
                pool_managers: 2,
                ..PipelineConfig::default()
            };
            let pipeline = start(placement, config, fleet_db(400, 17));
            let warm = submit_text(&pipeline, &paper_text()).unwrap();
            release_now(&pipeline, &warm[0]).unwrap();
            let mut slots: Vec<_> = (0..8)
                .map(|_| pipeline.launcher.launch(Query::paper_example()).unwrap())
                .collect();
            let composite = actyp_query::parse_query("punch.rsrc.arch = sun | hp\n").unwrap();
            slots.push(pipeline.launcher.launch(composite).unwrap());
            pipeline.shutdown().unwrap();
            for slot in slots {
                assert!(!redeem(&slot).unwrap().is_empty());
            }
            assert!(pipeline.stats().forwards > 0, "fragments crossed stages");
        }
    }

    /// A surplus is uncounted from `allocations` only once its release
    /// succeeds: a surplus no longer leased stays counted.
    #[test]
    fn a_surplus_is_uncounted_only_when_its_release_succeeds() {
        for placement in PLACEMENTS {
            let config = PipelineConfig {
                reintegration: ReintegrationPolicy::FirstMatch,
                ..PipelineConfig::default()
            };
            let pipeline = start(placement, config, fleet_db(300, 21));
            let kept = submit_text(&pipeline, "punch.rsrc.arch = sun\n").unwrap();
            let stale = submit_text(&pipeline, "punch.rsrc.arch = hp\n").unwrap();
            release_now(&pipeline, &stale[0]).unwrap();
            let slot: Arc<OutcomeSlot> = OutcomeSlot::new();
            let join = join_into(&pipeline.launcher.0, &slot, 2);
            fragment_of(&join, 0).deliver(Ok(kept[0].clone()));
            fragment_of(&join, 1).deliver(Ok(stale[0].clone()));
            assert_eq!(redeem(&slot), Ok(kept), "{placement:?}");
            let stats = pipeline.stats();
            assert_eq!(
                (stats.allocations, stats.releases),
                (4, 1),
                "the refused surplus stays counted ({placement:?})"
            );
        }
    }

    /// A fragment with no pool manager to go to answers `Internal` on its
    /// own (`Launcher::launch`) and does not fail its query:
    /// re-integration keeps what the other fragments found.
    #[test]
    fn a_fragment_with_no_pool_manager_fails_alone() {
        let pipeline = start(Inline, PipelineConfig::default(), fleet_db(300, 22));
        let found = submit_text(&pipeline, &paper_text()).unwrap();
        let slot: Arc<OutcomeSlot> = OutcomeSlot::new();
        let join = join_into(&pipeline.launcher.0, &slot, 2);
        let unplaced = AllocationError::Internal("no pool managers".into());
        fragment_of(&join, 0).deliver(Err(unplaced));
        fragment_of(&join, 1).deliver(Ok(found[0].clone()));
        assert_eq!(redeem(&slot), Ok(found));
        assert_eq!(pipeline.stats().failures, 1);
    }

    /// No inline step holds its pool manager across what follows it.  The
    /// warm-ups leave the hp pool on `pm-0` and the sun pool on `pm-1`, so
    /// round robin sends the composite's sun fragment to `pm-0` and its hp
    /// fragment to `pm-1`, and each is forwarded to the other stage.  The
    /// hp fragment is delivered last, by `pm-0`, which owns the surplus it
    /// then releases.  A step that delivered or posted under its lock
    /// would take a stage's lock again on the same thread and hang, so the
    /// run is bounded at 10 s.
    #[test]
    fn an_inline_step_never_holds_its_pool_manager_across_a_delivery_or_a_post() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let config = PipelineConfig {
                pool_managers: 2,
                reintegration: ReintegrationPolicy::FirstMatch,
                ..PipelineConfig::default()
            };
            let db = fleet_db(400, 23);
            let pipeline = start(Inline, config, db.clone());
            for arch in ["hp", "sun"] {
                let warm = submit_text(&pipeline, &format!("punch.rsrc.arch = {arch}\n")).unwrap();
                release_now(&pipeline, &warm[0]).unwrap();
            }
            let kept = submit_text(&pipeline, "punch.rsrc.arch = sun | hp\n").unwrap();
            tx.send((kept, pipeline.stats(), active_jobs(&db))).unwrap();
        });
        let (kept, stats, active) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("an inline step held its pool manager across what followed it");
        assert!(kept[0].machine_name.contains("sun"));
        assert_eq!((stats.forwards, stats.releases, active), (2, 3, 1));
    }

    #[test]
    fn end_to_end_allocation_from_text_query() {
        let pipeline = start(Inline, PipelineConfig::default(), fleet_db(300, 1));
        let allocations = submit_text(&pipeline, &paper_text()).unwrap();
        assert_eq!(allocations.len(), 1);
        let a = &allocations[0];
        assert!(a.machine_name.contains("sun"));
        assert!(a.machine_name.contains("purdue"));
        assert!(a.execution_port > 0);
        assert_eq!(pipeline.stats().allocations, 1);
        assert_eq!(pool_instances(&pipeline), 1);
        release_now(&pipeline, a).unwrap();
        assert_eq!(pipeline.stats().releases, 1);
    }

    #[test]
    fn repeated_queries_reuse_the_dynamically_created_pool() {
        let pipeline = start(Inline, PipelineConfig::default(), fleet_db(300, 2));
        for _ in 0..10 {
            submit_text(&pipeline, &paper_text()).unwrap();
        }
        assert_eq!(pool_instances(&pipeline), 1, "temporal locality: one pool");
        assert_eq!(pipeline.stats().allocations, 10);
    }

    #[test]
    fn composite_query_returns_first_match_and_releases_surplus() {
        let config = PipelineConfig {
            reintegration: ReintegrationPolicy::FirstMatch,
            ..PipelineConfig::default()
        };
        let db = fleet_db(400, 3);
        let pipeline = start(Inline, config, db.clone());
        let text = "punch.rsrc.arch = sun | hp\npunch.user.accessgroup = ece\n";
        let allocations = submit_text(&pipeline, text).unwrap();
        assert_eq!(allocations.len(), 1);
        // Both fragment pools exist, but only one allocation is outstanding.
        assert_eq!(pool_instances(&pipeline), 2);
        assert_eq!(active_jobs(&db), 1);
    }

    #[test]
    fn composite_query_with_all_policy_returns_every_match() {
        let pipeline = start(Inline, PipelineConfig::default(), fleet_db(400, 4));
        let allocations = submit_text(&pipeline, "punch.rsrc.arch = sun | hp\n").unwrap();
        assert_eq!(allocations.len(), 2);
        let archs: std::collections::HashSet<String> = allocations
            .iter()
            .map(|a| a.machine_name.split('-').next().unwrap().to_string())
            .collect();
        assert_eq!(archs.len(), 2);
    }

    #[test]
    fn impossible_queries_fail_cleanly() {
        let pipeline = start(Inline, PipelineConfig::default(), fleet_db(100, 5));
        let err = submit_text(&pipeline, "punch.rsrc.arch = cray\n").unwrap_err();
        assert_eq!(err, AllocationError::NoSuchResources);
        assert_eq!(pipeline.stats().failures, 1);
    }

    #[test]
    fn parse_and_schema_errors_do_not_reach_pool_managers() {
        let pipeline = start(Inline, PipelineConfig::default(), fleet_db(50, 6));
        assert!(matches!(
            submit_text(&pipeline, "nonsense").unwrap_err(),
            AllocationError::Parse(_)
        ));
        assert_eq!(pool_instances(&pipeline), 0);
    }

    #[test]
    fn classad_queries_are_interoperable() {
        let pipeline = start(Inline, PipelineConfig::default(), fleet_db(300, 7));
        let query = pipeline.launcher.0.replicas[0]
            .lock()
            .translate_classad(
                "Arch == \"SUN\" && Memory >= 128",
                Some("royo"),
                Some("ece"),
            )
            .unwrap();
        let allocations = allocate(&pipeline, query).unwrap();
        assert_eq!(allocations.len(), 1);
        assert!(allocations[0].machine_name.contains("sun"));
    }

    #[test]
    fn federated_domains_delegate_until_resources_are_found() {
        // Domain A has only sun machines; domain B has only hp machines.
        let sun_db = SyntheticFleet::new(FleetSpec::homogeneous(50, "sun", 256), 8)
            .generate()
            .into_shared();
        let hp_db = SyntheticFleet::new(FleetSpec::homogeneous(50, "hp", 512), 9)
            .generate()
            .into_shared();
        // Round robin sends the first hop to the sun-only domain, so the hp
        // query must be delegated.
        let pipeline = LivePipeline::new(
            PipelineConfig::default(),
            vec![("purdue".to_string(), sun_db), ("upc".to_string(), hp_db)],
            Inline,
        );
        let allocations = submit_text(&pipeline, "punch.rsrc.arch = hp\n").unwrap();
        assert_eq!(allocations.len(), 1);
        assert!(allocations[0].machine_name.contains("hp"));
        assert!(pipeline.stats().delegations >= 1);
    }

    #[test]
    fn ttl_zero_expires_immediately() {
        let config = PipelineConfig {
            ttl: 0,
            ..PipelineConfig::default()
        };
        let pipeline = start(Inline, config, fleet_db(100, 10));
        let err = submit_text(&pipeline, &paper_text()).unwrap_err();
        assert_eq!(err, AllocationError::TtlExpired);
    }

    #[test]
    fn forwards_reach_pools_hosted_by_other_managers() {
        // Two pool managers over the same database: the second manager to
        // see the query forwards it to the instance created by the first.
        let config = PipelineConfig {
            pool_managers: 2,
            pool_manager_selection: PoolManagerSelection::RoundRobin,
            ..PipelineConfig::default()
        };
        let pipeline = start(Inline, config, fleet_db(300, 11));
        submit_text(&pipeline, &paper_text()).unwrap();
        submit_text(&pipeline, &paper_text()).unwrap();
        assert_eq!(pool_instances(&pipeline), 1);
        assert!(pipeline.stats().forwards >= 1);
        assert_eq!(pipeline.stats().allocations, 2);
    }

    #[test]
    fn release_of_unknown_allocation_is_rejected() {
        let pipeline = start(Inline, PipelineConfig::default(), fleet_db(100, 12));
        let mut allocations = submit_text(&pipeline, &paper_text()).unwrap();
        let mut fake = allocations.remove(0);
        release_now(&pipeline, &fake).unwrap();
        // Releasing again (or a forged key) fails.
        assert!(release_now(&pipeline, &fake).is_err());
        fake.access_key = crate::allocation::SessionKey("forged".to_string());
        assert!(release_now(&pipeline, &fake).is_err());
    }

    #[test]
    fn empty_database_yields_no_such_resources() {
        let db = ResourceDatabase::new().into_shared();
        let pipeline = start(Inline, PipelineConfig::default(), db);
        let err = submit_text(&pipeline, &paper_text()).unwrap_err();
        assert_eq!(err, AllocationError::NoSuchResources);
    }

    #[test]
    fn many_concurrent_allocations_spread_over_machines() {
        let pipeline = start(Inline, PipelineConfig::default(), fleet_db(200, 13));
        let mut machines = std::collections::HashSet::new();
        let mut allocations = Vec::new();
        for _ in 0..50 {
            let mut a = submit_text(&pipeline, &paper_text()).unwrap();
            machines.insert(a[0].machine);
            allocations.append(&mut a);
        }
        assert!(
            machines.len() > 10,
            "load must spread ({} machines)",
            machines.len()
        );
        for a in &allocations {
            release_now(&pipeline, a).unwrap();
        }
        assert_eq!(pipeline.stats().releases, 50);
    }

    #[test]
    fn by_key_value_routing_selects_consistent_managers() {
        let config = PipelineConfig {
            pool_managers: 3,
            pool_manager_selection: PoolManagerSelection::ByKeyValue("arch".to_string()),
            ..PipelineConfig::default()
        };
        let pipeline = start(Inline, config, fleet_db(300, 14));
        for _ in 0..6 {
            let sun = Query::new().with(QueryKey::rsrc("arch"), Constraint::eq("sun"));
            allocate(&pipeline, sun).unwrap();
        }
        // All six queries go to the same manager, so exactly one pool
        // instance exists and no forwards were needed.
        assert_eq!(pool_instances(&pipeline), 1);
        assert_eq!(pipeline.stats().forwards, 0);
    }

    #[test]
    fn shared_references_submit_concurrently() {
        // The whole client surface works on `&self`, so an inline pipeline
        // can be shared across threads without an external lock.
        let pipeline = Arc::new(start(Inline, PipelineConfig::default(), fleet_db(300, 15)));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let pipeline = pipeline.clone();
            joins.push(std::thread::spawn(move || {
                let allocations = submit_text(&pipeline, &paper_text()).unwrap();
                release_now(&pipeline, &allocations[0]).unwrap();
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(pipeline.stats().allocations, 4);
        assert_eq!(pipeline.stats().releases, 4);
    }
}

/// Bounded-interleaving proofs of [`OutcomeSlot`] (`--features model`), run
/// by the CI `model-check` job: the daemon's own `fill`, `on_ready` and
/// `withdraw` over an `actyp-model` mutex.  A pool-manager stage fills the
/// slot while a redeemer leaves its completion in it — and, in the second
/// scenario, gives up on it at once, as a zero-deadline `try_poll` does,
/// redeeming the ticket again when the give-up took the completion back.
#[cfg(all(test, feature = "model"))]
mod slot_model_tests {
    use super::{Outcome, OutcomeSlot, SlotLock, SlotState};
    use crate::allocation::{AllocationError, WaitDone};
    use actyp_model::sync::{Mutex, MutexGuard};
    use actyp_model::{thread, Explorer};
    use std::sync::Arc;

    struct ModelLock(Mutex<SlotState>);

    impl SlotLock for ModelLock {
        type Guard<'a> = MutexGuard<'a, SlotState>;
        fn new(state: SlotState) -> Self {
            ModelLock(Mutex::new(state))
        }
        fn lock(&self) -> Self::Guard<'_> {
            self.0.lock().unwrap()
        }
    }

    type ModelSlot = OutcomeSlot<ModelLock>;
    /// Every delivery: whose completion ran, with what.
    type Deliveries = Arc<Mutex<Vec<(char, Outcome)>>>;

    fn explorer() -> Explorer {
        Explorer {
            max_schedules: 200_000,
            preemption_bound: 2,
            op_budget: 50_000,
        }
    }

    fn completion(log: &Deliveries, name: char) -> WaitDone {
        let log = log.clone();
        Box::new(move |outcome| log.lock().unwrap().push((name, outcome)))
    }

    /// The stage fills the slot on a thread of its own.
    fn stage(slot: &Arc<ModelSlot>) -> thread::JoinHandle<()> {
        let slot = slot.clone();
        thread::spawn(move || slot.fill(Err(AllocationError::NoSuchResources)))
    }

    /// The stage fills while the redeemer leaves its completion: it runs
    /// exactly once, with the outcome.
    fn fill_races_on_ready() {
        let slot = ModelSlot::new();
        let log: Deliveries = Arc::default();
        let filler = stage(&slot);
        slot.on_ready(completion(&log, 'A'));
        filler.join().unwrap();
        let delivered = log.lock().unwrap().clone();
        assert_eq!(
            delivered,
            vec![('A', Err(AllocationError::NoSuchResources))],
            "not delivered exactly once"
        );
    }

    /// The stage fills while the redeemer leaves its completion and gives
    /// up on it at once.  A give-up that took the completion back means it
    /// never runs, and the ticket's next redemption (`B`) gets the outcome;
    /// one that did not means it ran.  Either way the outcome is delivered
    /// exactly once.
    fn fill_races_give_up() {
        let slot = ModelSlot::new();
        let log: Deliveries = Arc::default();
        let filler = stage(&slot);
        slot.on_ready(completion(&log, 'A'));
        let withdrawn = slot.withdraw().is_some();
        if withdrawn {
            slot.on_ready(completion(&log, 'B'));
        }
        filler.join().unwrap();
        let delivered: Vec<char> = log.lock().unwrap().iter().map(|(name, _)| *name).collect();
        let expected = if withdrawn { 'B' } else { 'A' };
        assert_eq!(
            delivered,
            vec![expected],
            "a cancelled completion ran, or the outcome was lost (withdrawn: {withdrawn})"
        );
    }

    #[cfg(not(feature = "buggy-cancel"))]
    #[test]
    fn slot_delivers_exactly_once_proven() {
        let report = explorer().prove(fill_races_on_ready);
        assert!(report.proven());
        assert!(report.schedules > 1, "interleavings actually explored");
    }

    #[cfg(not(feature = "buggy-cancel"))]
    #[test]
    fn slot_withdrawn_completion_never_runs_proven() {
        let report = explorer().prove(fill_races_give_up);
        assert!(report.proven());
        assert!(report.schedules > 2, "interleavings actually explored");
    }

    /// REGRESSION (`--features model,buggy-cancel`): a `withdraw` that
    /// reports a completion withdrawn after a fill took it.  The exploration
    /// must find the give-up told `Some` about a completion that ran.
    #[cfg(feature = "buggy-cancel")]
    #[test]
    fn slot_late_withdraw_recaught() {
        let report = explorer().explore(fill_races_give_up);
        let failure = report
            .failure
            .expect("a withdrawal after the fill must be caught within the exploration");
        assert!(
            failure.message.contains("cancelled completion ran"),
            "expected a withdrawn completion that ran, got: {}",
            failure.message
        );
    }
}
