//! The pipeline's stages, wired once and run by whichever thread finds
//! them idle.
//!
//! "All stages in the resource management pipeline can be independently
//! distributed and replicated across machines.  Queries propagate from one
//! stage to the next via TCP or UDP" (Section 6).  In-process, a stage has
//! no thread.  A pool-manager stage is its pool manager behind a lock plus
//! an inbox, stepped by the thread that gets the lock (`Stage`), so a
//! served daemon's stages run on its I/O threads and a lone in-process
//! caller's on the calling thread.  A step only *says* what comes next —
//! deliver this fragment, post this message to that stage, or answer this
//! release (`Next`) — and the stepping thread does it once the pool
//! manager is unlocked.  The query manager owns no pool state: whoever
//! launches a query runs the query manager on its own thread and posts
//! each fragment to its stage.  Each fragment carries a
//! handle on its query's join, and the thread that delivers the last
//! result re-integrates the query — the paper's "another query-manager
//! stage at the end of the pipeline" — and runs the query's completion:
//! the query carries its reply with it.  The inbox stands in for the
//! TCP/UDP hop; the simulated deployment ([`crate::sim`]) models wire
//! latency explicitly.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError};

use parking_lot::Mutex;

use actyp_grid::SharedDatabase;
use actyp_query::{BasicQuery, Query, QuerySchema};

use crate::allocation::{AllocateDone, Allocation, AllocationError, ReleaseDone};
use crate::api::StatsSnapshot;
use crate::directory::{LocalDirectoryService, SharedDirectory};
use crate::message::{RequestId, RequestIdGenerator, RoutingState};
use crate::pool_manager::{HandleOutcome, InstanceSelection, PoolManager, PoolManagerConfig};
use crate::query_manager::{PoolManagerSelection, QueryManager, ReintegrationPolicy};
use crate::scheduler::SchedulingObjective;

/// Configuration of a pipeline.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
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
    /// Lock shards in the shared directory.  `1` degenerates to the old
    /// single-lock behaviour; the saturation benches sweep this
    /// (`benchmarks/BENCH_saturation_cores.json`).
    pub shards: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            pool_managers: 1,
            objective: SchedulingObjective::LeastLoaded,
            instance_selection: InstanceSelection::Random,
            pool_manager_selection: PoolManagerSelection::RoundRobin,
            reintegration: ReintegrationPolicy::All,
            decompose_limit: 16,
            ttl: 8,
            hour_of_day: 12,
            seed: 0xAC7C_9A9E,
            shards: crate::directory::DEFAULT_SHARDS,
        }
    }
}

/// A pipeline's lifetime counters, shared by every thread that launches a
/// query or steps a stage.
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
    /// The counters as the unified [`StatsSnapshot`], every field named.
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            fragments: self.fragments.load(Ordering::Relaxed),
            allocations: self.allocations.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            delegations: self.delegations.load(Ordering::Relaxed),
            forwards: self.forwards.load(Ordering::Relaxed),
            // WAN federation counters belong to the federated daemon wrapper
            // (`crate::federation::FederatedBackend`), not to a pipeline.
            delegations_out: 0,
            delegations_in: 0,
            releases: self.releases.load(Ordering::Relaxed),
            records_examined: self.examined.load(Ordering::Relaxed),
            gossip_deltas_in: 0,
            gossip_deltas_out: 0,
            route_hits: 0,
            route_misses: 0,
            peer_redials: 0,
            // The backend overlays its window's `in_flight` and contention
            // count; the daemon's reactor overlays its batching counters.
            in_flight: 0,
            shard_contention: 0,
            frames_batched: 0,
            writes_coalesced: 0,
        }
    }
}

/// What a launched query resolves to.
type Outcome = Result<Vec<Allocation>, AllocationError>;

/// What one fragment resolves to.
type FragmentResult = Result<Allocation, AllocationError>;

/// The answer of a query or fragment dropped unprocessed (posted to no
/// stage): no completion is left unrun.
fn dropped() -> AllocationError {
    AllocationError::Internal("pipeline dropped the reply".to_string())
}

/// A launched query's completion, run exactly once: with the outcome, or
/// — dropped unanswered — with [`dropped`].  Its query is in flight until
/// then, and shutdown returns only once no promise is left.
struct Promise {
    done: Option<AllocateDone>,
    shared: Arc<Shared>,
}

impl Promise {
    fn new(shared: &Arc<Shared>, done: AllocateDone) -> Self {
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        Promise {
            done: Some(done),
            shared: shared.clone(),
        }
    }

    /// Runs the completion with `outcome`, here, on the thread that has it.
    fn fill(mut self, outcome: Outcome) {
        if let Some(done) = self.done.take() {
            done(outcome);
        }
    }
}

impl Drop for Promise {
    fn drop(&mut self) {
        if let Some(done) = self.done.take() {
            done(Err(dropped()));
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
        let reintegrated = shared
            .query_manager
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
    /// Test hook: a step that panics.
    #[cfg(test)]
    Panic,
}

/// What a stage step leaves to the thread that drains the stage, done once
/// the step's pool manager is unlocked.
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
/// comes next, acting on none of it, so no thread holds a pool manager
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

/// One pool-manager stage: its pool manager behind a lock, plus an inbox,
/// and no thread.  [`Shared::post`] pushes a message onto the inbox and
/// tries the lock; a poster that loses just returns, as the holder steps
/// its message.  Generic over its locks, like [`crate::api::Window`], so
/// the model checker (`drain_model_tests` below) runs this very code.
struct Stage<L = Mutex<PoolManager>, I = Mutex<VecDeque<PmMsg>>> {
    /// Held for one step: over the directory's `managers` and `shard`
    /// locks only, never across a delivery, a post or another stage's
    /// lock (`docs/CONCURRENCY.md`).
    manager: L,
    /// A leaf lock around the messages posted and not stepped yet.
    inbox: I,
}

/// A lock a [`Stage`] is made of.
trait StageLock: Send + Sync {
    type Target;
    type Guard<'a>: std::ops::DerefMut<Target = Self::Target>
    where
        Self: 'a;
    fn try_lock(&self) -> Option<Self::Guard<'_>>;
    fn lock(&self) -> Self::Guard<'_>;
}

impl<T: Send> StageLock for Mutex<T> {
    type Target = T;
    type Guard<'a>
        = parking_lot::MutexGuard<'a, T>
    where
        T: 'a;
    fn try_lock(&self) -> Option<Self::Guard<'_>> {
        Mutex::try_lock(self)
    }
    fn lock(&self) -> Self::Guard<'_> {
        Mutex::lock(self)
    }
}

impl<L: StageLock, M, I: StageLock<Target = VecDeque<M>>> Stage<L, I> {
    /// Steps the inbox's next message with the state locked and returns
    /// what the step says comes next; `None` when another thread holds the
    /// stage (it steps what is left) or the inbox is empty — looked at again
    /// after unlocking, for a poster that lost the lock to this thread as
    /// it let go.  `buggy-drain` (model checking only) skips that look.
    fn turn<N>(&self, step: impl FnOnce(&mut L::Target, M) -> N) -> Option<N> {
        loop {
            let mut state = self.manager.try_lock()?;
            let msg = self.inbox.lock().pop_front();
            if let Some(msg) = msg {
                return Some(step(&mut state, msg));
            }
            drop(state);
            if cfg!(feature = "buggy-drain") || self.inbox.lock().is_empty() {
                return None;
            }
        }
    }
}

/// The stages a thread owes a turn, each its pipeline and index.
type Owed = VecDeque<(Arc<Shared>, usize)>;

thread_local! {
    /// What this thread owes while it drains stages, in the order it got to
    /// them; `None` while it drains none.
    static OWED: RefCell<Option<Owed>> = const { RefCell::new(None) };
    /// The steps this thread takes per drain round ([`pace`]).
    static PACE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Bounds each drain round of this thread to `steps` steps: a daemon's I/O
/// thread keeps owing the stages their turns between rounds, and only
/// queues its posts, until its loop's [`drain_owed`] returns false.
pub(crate) fn pace(steps: usize) {
    PACE.set(steps.max(1));
}

/// Notes that this thread owes stage `index` a turn; true when it was
/// draining no stage and starts to.
fn owe(shared: Arc<Shared>, index: usize) -> bool {
    OWED.with_borrow_mut(|owed| {
        let idle = owed.is_none();
        owed.get_or_insert_default().push_back((shared, index));
        idle
    })
}

/// One drain round: the stages this thread owes take turns, at most its
/// [`pace`] of steps in all; true when it still owes some.  A panicking
/// step strands nothing: the round goes on, past the pace, for the posts
/// other threads left to it, and the first panic then resumes here.
pub(crate) fn drain_owed() -> bool {
    let (mut left, mut panicked) = (PACE.get(), None);
    while left > 0 || panicked.is_some() {
        let Some((shared, index)) = OWED.with_borrow_mut(|owed| owed.as_mut()?.pop_front()) else {
            OWED.set(None);
            return panicked.is_some_and(|panic| resume_unwind(panic));
        };
        let stepped = catch_unwind(AssertUnwindSafe(|| {
            let then = shared.stages[index].turn(|pm, msg| step(pm, msg, &shared));
            then.map(|then| then.follow(&shared)).is_some()
        }));
        if !matches!(stepped, Ok(false)) {
            left = left.saturating_sub(1);
            owe(shared, index);
        }
        panicked = panicked.or(stepped.err());
    }
    true
}

/// What launching a query and finishing it touch, shared by every
/// launching thread and every pool-manager stage.
struct Shared {
    /// The query manager: a leaf lock, never held across a post.
    query_manager: Mutex<QueryManager>,
    /// The pool-manager stages, in `pm_names` order.
    stages: Vec<Stage>,
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
    fn stage(&self, name: &str) -> Option<usize> {
        self.pm_names.iter().position(|pm| pm == name)
    }

    /// Puts `msg` in stage `name`'s inbox and serves the stage here.  A
    /// message no stage takes comes back.
    fn post(self: &Arc<Self>, name: &str, msg: PmMsg) -> Option<PmMsg> {
        let Some(index) = self.stage(name) else {
            return Some(msg);
        };
        self.stages[index].inbox.lock().push_back(msg);
        self.serve(index);
        None
    }

    /// Steps stage `index`'s messages here, each followed up once the pool
    /// manager is unlocked, until another thread holds the stage or its
    /// inbox is empty (one round, on a paced thread), letting the stages the
    /// follow-ups post to take turns.  A thread draining already only owes
    /// the stage a turn, so its stack does not grow with its posts.
    fn serve(self: &Arc<Self>, index: usize) {
        if owe(self.clone(), index) {
            drain_owed();
        }
    }

    /// Releases `allocation` on the stage the directory says hosts its
    /// pool instance, or — when it no longer knows it — on each stage in
    /// turn until one accepts; `done` runs on the stage that answers last.
    fn release_with(self: &Arc<Self>, allocation: &Allocation, done: ReleaseDone) {
        let owner = (self.directory.instances(&allocation.pool).into_iter())
            .find(|record| record.instance == allocation.pool_instance)
            .map(|record| record.manager);
        let stages = match owner.filter(|owner| self.stage(owner).is_some()) {
            Some(owner) => vec![owner],
            None => self.pm_names.clone(),
        };
        let (shared, allocation) = (self.clone(), allocation.clone());
        let refused = Err(AllocationError::UnknownAllocation);
        try_release(shared, stages.into_iter(), allocation, refused, done);
    }
}

/// Launches queries into the pipeline from any thread.
#[derive(Clone)]
pub(crate) struct Launcher(Arc<Shared>);

impl Launcher {
    /// Launches a query without waiting: the query manager runs here and
    /// posts each fragment to its pool-manager stage; `done` runs with the
    /// outcome on the thread that steps the last fragment.  A query the
    /// query manager refuses runs `done` with the error at once, and a
    /// fragment no stage takes answers as dropped.
    pub(crate) fn launch(&self, query: Query, done: AllocateDone) {
        let shared = &self.0;
        shared.counters.requests.fetch_add(1, Ordering::Relaxed);
        let promise = Promise::new(shared, done);
        let mut qm = shared.query_manager.lock();
        let prepared = qm.prepare(&query).map(|prepared| prepared.fragments);
        let targets: Vec<Option<String>> = (prepared.iter().flatten())
            .map(|(_, basic)| qm.select_pool_manager(basic, &shared.pm_names))
            .collect();
        drop(qm);
        let fragments = match prepared {
            Ok(fragments) => fragments,
            Err(refused) => return promise.fill(Err(refused)),
        };

        let join = Arc::new(Join {
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
            drop(shared.post(&stage, PmMsg::Query { fragment, routing }));
        }
    }
}

/// A running deployment of the pipeline.  Its stages have no threads:
/// each runs on whichever thread finds it idle.
pub struct LivePipeline {
    launcher: Launcher,
}

impl LivePipeline {
    /// Starts a deployment with one pool-manager stage per domain.
    pub(crate) fn new(config: PipelineConfig, domains: Vec<(String, SharedDatabase)>) -> Self {
        assert!(!domains.is_empty(), "at least one domain is required");
        let query_manager = Mutex::new(QueryManager::new(
            "qm-0".to_string(),
            QuerySchema::punch_default().permissive(),
            config.pool_manager_selection.clone(),
            config.decompose_limit,
            Arc::new(RequestIdGenerator::new()),
            config.seed ^ 0x51,
        ));
        let pm_names: Vec<String> = domains.iter().map(|(name, _)| name.clone()).collect();
        let directory = LocalDirectoryService::new().into_shared_with(config.shards);
        let stages = domains.into_iter().enumerate().map(|(i, (name, db))| {
            let pm = PoolManagerConfig {
                selection: config.instance_selection,
                objective: config.objective,
                host: format!("actyp-node-{i}"),
                base_port: 7300,
            };
            let seed = config.seed ^ (0x90 + i as u64);
            let manager = PoolManager::new(name, db, directory.clone(), pm, seed);
            let (manager, inbox) = (Mutex::new(manager), Mutex::default());
            Stage { manager, inbox }
        });
        let shared = Arc::new(Shared {
            query_manager,
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
        LivePipeline {
            launcher: Launcher(shared),
        }
    }

    /// The shared directory service (inspection).
    pub fn directory(&self) -> &SharedDirectory {
        &self.launcher.0.directory
    }

    /// A snapshot of the per-stage counters; `in_flight` and the
    /// contention counts are the backend's to overlay.
    pub fn stats(&self) -> StatsSnapshot {
        self.launcher.0.counters.snapshot()
    }

    /// Runs `f` on the named stage's pool manager, locked for the call
    /// (experiments that destroy pools); `f` must not call back into this
    /// pipeline.  Posts to the stage meanwhile queue, and this thread steps
    /// them once `f` returns or unwinds.  `None` names no stage.
    pub fn with_pool_manager<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut PoolManager) -> R,
    ) -> Option<R> {
        let shared = &self.launcher.0;
        let index = shared.stage(name)?;
        let held = catch_unwind(AssertUnwindSafe(|| {
            f(&mut shared.stages[index].manager.lock())
        }));
        shared.serve(index);
        Some(held.unwrap_or_else(|panic| resume_unwind(panic)))
    }

    /// A handle that launches queries into this pipeline from anywhere.
    pub(crate) fn launcher(&self) -> Launcher {
        self.launcher.clone()
    }

    /// Releases an allocation without waiting for it: the stage that drops
    /// the lease calls `done` (the stages are asked in turn, each asking the
    /// next, when the directory does not know the owner).
    pub fn release_with(&self, allocation: &Allocation, done: ReleaseDone) {
        self.launcher.0.release_with(allocation, done);
    }

    /// Waits until no launched query is in flight, so every launched
    /// query's completion has had its real outcome.  No stage has a thread
    /// to stop, or a panic to report: a step unwinds where it ran.
    pub fn shutdown(&self) -> Result<(), AllocationError> {
        let shared = &self.launcher.0;
        shared.closing.store(true, Ordering::SeqCst);
        let idle = shared.idle.lock().unwrap_or_else(PoisonError::into_inner);
        let busy = |_: &mut ()| shared.in_flight.load(Ordering::SeqCst) > 0;
        drop(shared.drained.wait_while(idle, busy));
        Ok(())
    }
}
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use actyp_grid::{FleetSpec, ResourceDatabase, SyntheticFleet};
    use actyp_query::{Constraint, QueryKey};
    use crossbeam::channel::{unbounded, Receiver};
    use std::time::Duration;

    /// The name of the thread [`hold_stage`] holds a stage on.
    pub(crate) const HOLDER: &str = "stage-holder";

    /// Holds `pipeline`'s first pool-manager stage — its lock taken through
    /// `with_pool_manager` on a [`HOLDER`] thread with a 256 KiB stack —
    /// until the returned sender is used or dropped.  Posts to the stage
    /// queue meanwhile, and the holder steps them once it lets go.
    pub(crate) fn hold_stage(pipeline: &LivePipeline) -> std::sync::mpsc::Sender<()> {
        let holder = LivePipeline {
            launcher: pipeline.launcher(),
        };
        let (hold, held) = std::sync::mpsc::channel::<()>();
        let (locked, taken) = std::sync::mpsc::channel();
        std::thread::Builder::new()
            .name(HOLDER.to_string())
            .stack_size(256 * 1024)
            .spawn(move || {
                let first = holder.launcher.0.pm_names[0].clone();
                holder.with_pool_manager(&first, |_| {
                    locked.send(()).unwrap();
                    let _ = held.recv();
                })
            })
            .unwrap();
        taken.recv().unwrap();
        hold
    }

    /// Leaves a message in `pipeline`'s first stage's inbox that panics
    /// the thread that next steps the stage.
    pub(crate) fn plant_panic(pipeline: &LivePipeline) {
        pipeline.launcher.0.stages[0]
            .inbox
            .lock()
            .push_back(PmMsg::Panic);
    }

    fn fleet_db(n: usize, seed: u64) -> SharedDatabase {
        SyntheticFleet::new(FleetSpec::with_machines(n), seed)
            .generate()
            .into_shared()
    }

    fn paper_text() -> String {
        Query::paper_example().to_string()
    }

    /// A single-domain pipeline: `config.pool_managers` stages over `db`.
    fn start(config: PipelineConfig, db: SharedDatabase) -> LivePipeline {
        let domains = (0..config.pool_managers.max(1))
            .map(|i| (format!("pm-{i}"), db.clone()))
            .collect();
        LivePipeline::new(config, domains)
    }

    /// Launches `query`; its outcome arrives on the returned receiver.
    fn launch(pipeline: &LivePipeline, query: Query) -> Receiver<Outcome> {
        let (tx, rx) = unbounded();
        pipeline
            .launcher
            .launch(query, Box::new(move |outcome| drop(tx.send(outcome))));
        rx
    }

    /// Launches `query` and blocks for its outcome.
    fn allocate(pipeline: &LivePipeline, query: Query) -> Outcome {
        redeem(&launch(pipeline, query))
    }

    /// Parses `text`, launches it and blocks for the reply.
    fn submit_text(pipeline: &LivePipeline, text: &str) -> Outcome {
        let query =
            actyp_query::parse_query(text).map_err(|e| AllocationError::Parse(e.to_string()))?;
        allocate(pipeline, query)
    }

    fn redeem(answered: &Receiver<Outcome>) -> Outcome {
        answered.recv().expect("a query is answered exactly once")
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

    fn active_jobs(db: &SharedDatabase) -> u32 {
        db.read().iter().map(|m| m.dynamic.active_jobs).sum()
    }

    #[test]
    fn live_pipeline_allocates_and_releases() {
        let pipeline = start(PipelineConfig::default(), fleet_db(200, 1));
        let allocations = submit_text(&pipeline, &paper_text()).unwrap();
        assert_eq!(allocations.len(), 1);
        assert!(allocations[0].machine_name.contains("sun"));
        release_now(&pipeline, &allocations[0]).unwrap();
        assert!(release_now(&pipeline, &allocations[0]).is_err());
        let stats = pipeline.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.allocations, 1);
        assert_eq!(stats.releases, 1);
        assert_eq!(stats.records_examined, allocations[0].examined as u64);
        pipeline.shutdown().unwrap();
    }

    #[test]
    fn replicated_stages_serve_concurrent_clients() {
        let config = PipelineConfig {
            pool_managers: 2,
            pool_manager_selection: PoolManagerSelection::RoundRobin,
            ..PipelineConfig::default()
        };
        let pipeline = Arc::new(start(config, fleet_db(400, 2)));
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
        assert_eq!(pipeline.stats().allocations, 30);
    }

    #[test]
    fn composite_queries_reintegrate_across_threads() {
        let config = PipelineConfig {
            reintegration: ReintegrationPolicy::FirstMatch,
            ..PipelineConfig::default()
        };
        let db = fleet_db(400, 3);
        let pipeline = start(config, db.clone());
        let allocations = submit_text(
            &pipeline,
            "punch.rsrc.arch = sun | hp\npunch.user.accessgroup = ece\n",
        )
        .unwrap();
        assert_eq!(allocations.len(), 1);
        // The surplus fragment allocation was handed back by the pipeline.
        assert_eq!(active_jobs(&db), 1);
        release_now(&pipeline, &allocations[0]).unwrap();
        pipeline.shutdown().unwrap();
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
        let pipeline = start(PipelineConfig::default(), fleet_db(50, 7));
        assert!(matches!(
            submit_text(&pipeline, "garbage").unwrap_err(),
            AllocationError::Parse(_)
        ));
        pipeline.shutdown().unwrap();
    }

    #[test]
    fn shutdown_via_drop_does_not_hang() {
        let pipeline = start(PipelineConfig::default(), fleet_db(50, 8));
        let _ = submit_text(&pipeline, &paper_text()).unwrap();
        drop(pipeline);
    }

    #[test]
    fn async_submissions_overlap_in_the_pipeline() {
        let pipeline = start(PipelineConfig::default(), fleet_db(300, 9));
        let query = Query::paper_example();
        // Three queries in flight before any reply is awaited.
        let pending: Vec<_> = (0..3).map(|_| launch(&pipeline, query.clone())).collect();
        for answered in pending {
            let allocations = redeem(&answered).unwrap();
            release_now(&pipeline, &allocations[0]).unwrap();
        }
        assert_eq!(pipeline.stats().allocations, 3);
        pipeline.shutdown().unwrap();
    }

    /// Shuts `pipeline` down on a thread of its own while its stage is
    /// held, checks that shutdown waits, and lets the stage go.
    fn shut_down_while_held(pipeline: Arc<LivePipeline>, hold: std::sync::mpsc::Sender<()>) {
        let (returned, shut) = std::sync::mpsc::channel();
        let closer = std::thread::spawn(move || {
            let result = pipeline.shutdown();
            returned.send(()).unwrap();
            result
        });
        assert!(
            shut.recv_timeout(Duration::from_millis(100)).is_err(),
            "shutdown returned with a query in flight"
        );
        hold.send(()).unwrap();
        closer.join().unwrap().unwrap();
    }

    #[test]
    fn queued_submissions_complete_across_shutdown() {
        // Shutdown returns only once nothing launched is in flight, so a
        // submission still queued when shutdown begins is processed end to
        // end and its completion gets the real outcome.
        let pipeline = Arc::new(start(PipelineConfig::default(), fleet_db(200, 11)));
        let hold = hold_stage(&pipeline);
        let answered = launch(&pipeline, Query::paper_example());
        shut_down_while_held(pipeline, hold);
        let allocations = redeem(&answered).unwrap();
        assert_eq!(allocations.len(), 1);
    }

    /// A query's completion runs on the thread that has its outcome: the
    /// launching thread itself when the stage is idle, and the thread that
    /// held the stage, once it lets go, when it is held.
    #[test]
    fn a_completion_runs_on_the_thread_that_has_the_outcome() {
        let pipeline = start(PipelineConfig::default(), fleet_db(200, 19));
        for held in [false, true] {
            let hold = held.then(|| hold_stage(&pipeline));
            let (tx, rx) = unbounded();
            pipeline.launcher.launch(
                Query::paper_example(),
                Box::new(move |outcome| {
                    let name = std::thread::current().name().map(str::to_string);
                    drop(tx.send((std::thread::current().id(), name, outcome)));
                }),
            );
            if let Some(hold) = hold {
                assert!(rx.try_recv().is_err(), "stepped past the holder");
                hold.send(()).unwrap();
            }
            let (ran_on, name, outcome) = rx.recv().unwrap();
            match held {
                true => assert_eq!(name.as_deref(), Some(HOLDER)),
                false => assert_eq!(ran_on, std::thread::current().id()),
            }
            release_now(&pipeline, &outcome.unwrap()[0]).unwrap();
        }
        pipeline.shutdown().unwrap();
    }

    /// Launches a chain of `left` queries, each from the completion of the
    /// one before, sending every outcome to `granted`.
    fn launch_chain(
        pipeline: Arc<LivePipeline>,
        left: usize,
        granted: std::sync::mpsc::Sender<Outcome>,
    ) {
        let next = pipeline.clone();
        pipeline.launcher.launch(
            Query::paper_example(),
            Box::new(move |outcome| {
                granted.send(outcome).unwrap();
                if left > 1 {
                    launch_chain(next, left - 1, granted);
                }
            }),
        );
    }

    /// 600 queries, each launched by the completion of the one before, on
    /// a thread with a 256 KiB stack.  Each launch posts on a thread that
    /// is draining the stage, so it only queues and the drain's loop steps
    /// it: the stack stays flat however long the chain.
    #[test]
    fn a_chain_of_launches_from_completions_keeps_the_stack_flat() {
        const CHAIN: usize = 600;
        let pipeline = Arc::new(start(PipelineConfig::default(), fleet_db(2_000, 24)));
        let (granted, outcomes) = std::sync::mpsc::channel();
        let launcher = pipeline.clone();
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || launch_chain(launcher, CHAIN, granted))
            .unwrap()
            .join()
            .expect("the chain ran on a small stack");
        let outcomes: Vec<Outcome> = outcomes.try_iter().collect();
        assert_eq!(
            outcomes.len(),
            CHAIN,
            "every link ran before the launch returned"
        );
        for outcome in outcomes {
            release_now(&pipeline, &outcome.unwrap()[0]).unwrap();
        }
        assert_eq!(pipeline.stats().releases, CHAIN as u64);
        pipeline.shutdown().unwrap();
    }

    /// A query the stage drops unprocessed still runs its completion.
    #[test]
    fn a_dropped_query_answers_with_an_error() {
        let pipeline = start(PipelineConfig::default(), fleet_db(50, 12));
        let (tx, answered) = unbounded();
        let done: AllocateDone = Box::new(move |outcome| drop(tx.send(outcome)));
        drop(Promise::new(&pipeline.launcher.0, done));
        assert!(matches!(
            redeem(&answered),
            Err(AllocationError::Internal(_))
        ));
        pipeline.shutdown().unwrap();
    }

    /// A step that panics unwinds on the thread that posted to the idle
    /// stage, and leaves the stage, and that thread's next drain, working.
    #[test]
    fn a_panicking_step_unwinds_on_the_posting_thread() {
        let pipeline = start(PipelineConfig::default(), fleet_db(50, 10));
        let shared = pipeline.launcher.0.clone();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drop(shared.post("pm-0", PmMsg::Panic))
        }));
        let payload = unwound.expect_err("the step ran here");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"injected pool-manager panic")
        );
        let allocations = allocate(&pipeline, Query::paper_example()).unwrap();
        release_now(&pipeline, &allocations[0]).unwrap();
        pipeline.shutdown().unwrap();
    }

    /// A step that panics while other threads' posts wait in the inbox
    /// strands none of them: the thread that stepped it goes on draining,
    /// so the query queued behind the panic is answered and shutdown
    /// returns, and then the panic unwinds on that thread.
    #[test]
    fn a_panicking_step_strands_no_query_queued_behind_it() {
        let pipeline = Arc::new(start(PipelineConfig::default(), fleet_db(200, 29)));
        let shared = pipeline.clone();
        let (locked, taken) = std::sync::mpsc::channel();
        let (hold, held) = std::sync::mpsc::channel::<()>();
        let holder = std::thread::spawn(move || {
            shared.with_pool_manager("pm-0", |_| {
                locked.send(()).unwrap();
                let _ = held.recv();
            })
        });
        taken.recv().unwrap();
        plant_panic(&pipeline);
        let answered = launch(&pipeline, Query::paper_example());
        assert!(answered.try_recv().is_err(), "stepped past the holder");
        hold.send(()).unwrap();
        let payload = holder.join().expect_err("the holder stepped the panic");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"injected pool-manager panic")
        );
        let allocations = (answered.recv_timeout(Duration::from_secs(20)))
            .expect("answered, not stranded")
            .expect("stepped after the panic");
        release_now(&pipeline, &allocations[0]).unwrap();
        pipeline.shutdown().unwrap();
        assert_eq!(pipeline.stats().allocations, pipeline.stats().releases);
    }

    /// A paced thread steps at most its pace of messages per drain round
    /// and keeps owing the stage the rest, which its next rounds step.
    #[test]
    fn a_paced_drain_round_takes_at_most_its_pace_of_steps() {
        const QUERIES: usize = 5;
        let pipeline = Arc::new(start(PipelineConfig::default(), fleet_db(200, 37)));
        let (tx, answered) = std::sync::mpsc::channel();
        let (locked, taken) = std::sync::mpsc::channel();
        let (hold, held) = std::sync::mpsc::channel::<()>();
        let paced = pipeline.clone();
        let holder = std::thread::spawn(move || {
            pace(2);
            paced.with_pool_manager("pm-0", |_| {
                locked.send(()).unwrap();
                let _ = held.recv();
            });
            let mut rounds: Vec<Vec<Outcome>> = vec![answered.try_iter().collect()];
            while drain_owed() {
                rounds.push(answered.try_iter().collect());
            }
            rounds.push(answered.try_iter().collect());
            rounds
        });
        taken.recv().unwrap();
        for _ in 0..QUERIES {
            let tx = tx.clone();
            pipeline.launcher.launch(
                Query::paper_example(),
                Box::new(move |outcome| tx.send(outcome).unwrap()),
            );
        }
        hold.send(()).unwrap();
        let rounds = holder.join().unwrap();
        let sizes: Vec<usize> = rounds.iter().map(Vec::len).collect();
        assert_eq!(sizes, [2, 2, 1]);
        for outcome in rounds.into_iter().flatten() {
            release_now(&pipeline, &outcome.unwrap()[0]).unwrap();
        }
        assert_eq!(pipeline.stats().releases, QUERIES as u64);
        pipeline.shutdown().unwrap();
    }

    /// A `with_pool_manager` call whose closure panics still steps what
    /// was posted to the stage while it held it.
    #[test]
    fn a_panicking_hold_strands_no_query_posted_meanwhile() {
        let pipeline = Arc::new(start(PipelineConfig::default(), fleet_db(200, 31)));
        let shared = pipeline.clone();
        let (locked, taken) = std::sync::mpsc::channel();
        let (hold, held) = std::sync::mpsc::channel::<()>();
        let holder = std::thread::spawn(move || {
            shared.with_pool_manager("pm-0", |_| {
                locked.send(()).unwrap();
                let _ = held.recv();
                panic!("injected hold panic");
            })
        });
        taken.recv().unwrap();
        let answered = launch(&pipeline, Query::paper_example());
        hold.send(()).unwrap();
        assert!(
            holder.join().is_err(),
            "the hold's panic unwinds its thread"
        );
        let allocations = (answered.recv_timeout(Duration::from_secs(20)))
            .expect("answered, not stranded")
            .expect("stepped after the hold");
        release_now(&pipeline, &allocations[0]).unwrap();
        pipeline.shutdown().unwrap();
    }

    /// Both fragments of a `FirstMatch` query go to one of two stages (the
    /// routing key is absent, so it hashes alike), so the stage that
    /// delivers the last fragment owns the surplus it has to hand back.  A
    /// release that parked for its own stage's answer would never return.
    #[test]
    fn a_stage_releases_the_surplus_it_owns_without_parking() {
        let config = PipelineConfig {
            pool_managers: 2,
            pool_manager_selection: PoolManagerSelection::ByKeyValue("absent".to_string()),
            reintegration: ReintegrationPolicy::FirstMatch,
            ..PipelineConfig::default()
        };
        let db = fleet_db(400, 13);
        let pipeline = start(config, db.clone());
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
            (2, 1, 1)
        );
        release_now(&pipeline, &allocations[0]).unwrap();
        assert_eq!(active_jobs(&db), 0);
        pipeline.shutdown().unwrap();
    }

    /// An allocation whose owner the directory no longer knows is offered
    /// to each stage in turn, every refusal a completion that asks the
    /// next: the owner, `pm-1`, accepts after `pm-0` refused.
    #[test]
    fn an_ownerless_release_walks_the_stages_as_completions() {
        let config = PipelineConfig {
            pool_managers: 3,
            ..PipelineConfig::default()
        };
        let db = fleet_db(200, 14);
        let pipeline = start(config, db.clone());
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
        assert_eq!(active_jobs(&db), 1);
        release_now(&pipeline, &sun[0]).unwrap();
        pipeline.shutdown().unwrap();
    }

    /// A join for `fragments` fragments of a query, and where its outcome
    /// arrives.
    fn join_into(shared: &Arc<Shared>, fragments: usize) -> (Arc<Join>, Receiver<Outcome>) {
        let (tx, answered) = unbounded();
        let done: AllocateDone = Box::new(move |outcome| drop(tx.send(outcome)));
        let join = Arc::new(Join {
            parts: Mutex::new(Parts {
                results: vec![Err(AllocationError::NoSuchResources); fragments],
                remaining: fragments,
                promise: Some(Promise::new(shared, done)),
            }),
        });
        (join, answered)
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
        let config = PipelineConfig {
            pool_managers: 2,
            ..PipelineConfig::default()
        };
        let db = fleet_db(400, 15);
        let pipeline = start(config, db.clone());
        let answered = Arc::new(AtomicUsize::new(0));
        let query = actyp_query::parse_query("punch.rsrc.arch = sun | hp\n").unwrap();
        for _ in 0..1_000 {
            let (tx, rx) = std::sync::mpsc::channel();
            let answered = answered.clone();
            pipeline.launcher.launch(
                query.clone(),
                Box::new(move |outcome| {
                    answered.fetch_add(1, Ordering::SeqCst);
                    tx.send(outcome).unwrap();
                }),
            );
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
            "one re-integration each"
        );
        assert_eq!(active_jobs(&db), 0);
        pipeline.shutdown().unwrap();
    }

    /// The same race forced: two threads standing in for two stages are
    /// released by a barrier to deliver a query's two fragments at once.
    #[test]
    fn simultaneous_deliveries_finish_a_query_once() {
        let pipeline = start(PipelineConfig::default(), fleet_db(50, 18));
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
            let (join, answered) = join_into(&shared, 2);
            for (index, (stage, _)) in stages.iter().enumerate() {
                stage.send(fragment_of(&join, index)).unwrap();
            }
            drop(join);
            assert_eq!(redeem(&answered), Err(AllocationError::NoneAvailable));
        }
        for (stage, thread) in stages {
            drop(stage);
            thread.join().unwrap();
        }
        assert_eq!(pipeline.stats().failures, 2_000, "one re-integration each");
        pipeline.shutdown().unwrap();
    }

    /// A fragment no stage steps answers `Internal`, and nobody waits for
    /// it: dropped with the message that carried it, or posted to a stage
    /// that does not exist.
    #[test]
    fn a_fragment_no_stage_steps_answers_internal() {
        let pipeline = start(PipelineConfig::default(), fleet_db(50, 16));
        let shared = &pipeline.launcher.0;
        for stage in [None, Some("pm-9")] {
            let (join, answered) = join_into(shared, 1);
            let fragment = fragment_of(&join, 0);
            drop(join);
            let msg = PmMsg::Query {
                fragment,
                routing: RoutingState::new(8),
            };
            match stage {
                Some(name) => assert!(shared.post(name, msg).is_some(), "no stage took it"),
                None => drop(msg),
            }
            assert!(matches!(
                answered.try_recv(),
                Ok(Err(AllocationError::Internal(_)))
            ));
        }
        pipeline.shutdown().unwrap();
    }

    /// The drain guarantee with fragments crossing stages: after a warm-up
    /// leaves the pool on `pm-0`, round robin sends every other query to
    /// `pm-1`, which forwards it to `pm-0`, held meanwhile.  Shutdown
    /// waits for all of them.
    #[test]
    fn queued_submissions_crossing_stages_complete_across_shutdown() {
        let config = PipelineConfig {
            pool_managers: 2,
            ..PipelineConfig::default()
        };
        let pipeline = Arc::new(start(config, fleet_db(400, 17)));
        let warm = submit_text(&pipeline, &paper_text()).unwrap();
        release_now(&pipeline, &warm[0]).unwrap();
        let hold = hold_stage(&pipeline);
        let mut answers: Vec<_> = (0..8)
            .map(|_| launch(&pipeline, Query::paper_example()))
            .collect();
        let composite = actyp_query::parse_query("punch.rsrc.arch = sun | hp\n").unwrap();
        answers.push(launch(&pipeline, composite));
        shut_down_while_held(pipeline.clone(), hold);
        for answered in answers {
            assert!(!redeem(&answered).unwrap().is_empty());
        }
        assert!(pipeline.stats().forwards > 0, "fragments crossed stages");
    }

    /// A surplus is uncounted from `allocations` only once its release
    /// succeeds: a surplus no longer leased stays counted.
    #[test]
    fn a_surplus_is_uncounted_only_when_its_release_succeeds() {
        let config = PipelineConfig {
            reintegration: ReintegrationPolicy::FirstMatch,
            ..PipelineConfig::default()
        };
        let pipeline = start(config, fleet_db(300, 21));
        let kept = submit_text(&pipeline, "punch.rsrc.arch = sun\n").unwrap();
        let stale = submit_text(&pipeline, "punch.rsrc.arch = hp\n").unwrap();
        release_now(&pipeline, &stale[0]).unwrap();
        let (join, answered) = join_into(&pipeline.launcher.0, 2);
        fragment_of(&join, 0).deliver(Ok(kept[0].clone()));
        fragment_of(&join, 1).deliver(Ok(stale[0].clone()));
        assert_eq!(redeem(&answered), Ok(kept));
        let stats = pipeline.stats();
        assert_eq!(
            (stats.allocations, stats.releases),
            (4, 1),
            "the refused surplus stays counted"
        );
    }

    /// A fragment with no pool manager to go to answers `Internal` on its
    /// own (`Launcher::launch`) and does not fail its query:
    /// re-integration keeps what the other fragments found.
    #[test]
    fn a_fragment_with_no_pool_manager_fails_alone() {
        let pipeline = start(PipelineConfig::default(), fleet_db(300, 22));
        let found = submit_text(&pipeline, &paper_text()).unwrap();
        let (join, answered) = join_into(&pipeline.launcher.0, 2);
        let unplaced = AllocationError::Internal("no pool managers".into());
        fragment_of(&join, 0).deliver(Err(unplaced));
        fragment_of(&join, 1).deliver(Ok(found[0].clone()));
        assert_eq!(redeem(&answered), Ok(found));
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
            let pipeline = start(config, db.clone());
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
        let pipeline = start(PipelineConfig::default(), fleet_db(300, 1));
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
        let pipeline = start(PipelineConfig::default(), fleet_db(300, 2));
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
        let pipeline = start(config, db.clone());
        let text = "punch.rsrc.arch = sun | hp\npunch.user.accessgroup = ece\n";
        let allocations = submit_text(&pipeline, text).unwrap();
        assert_eq!(allocations.len(), 1);
        // Both fragment pools exist, but only one allocation is outstanding.
        assert_eq!(pool_instances(&pipeline), 2);
        assert_eq!(active_jobs(&db), 1);
    }

    #[test]
    fn composite_query_with_all_policy_returns_every_match() {
        let pipeline = start(PipelineConfig::default(), fleet_db(400, 4));
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
        let pipeline = start(PipelineConfig::default(), fleet_db(100, 5));
        let err = submit_text(&pipeline, "punch.rsrc.arch = cray\n").unwrap_err();
        assert_eq!(err, AllocationError::NoSuchResources);
        assert_eq!(pipeline.stats().failures, 1);
    }

    #[test]
    fn parse_and_schema_errors_do_not_reach_pool_managers() {
        let pipeline = start(PipelineConfig::default(), fleet_db(50, 6));
        assert!(matches!(
            submit_text(&pipeline, "nonsense").unwrap_err(),
            AllocationError::Parse(_)
        ));
        assert_eq!(pool_instances(&pipeline), 0);
    }

    #[test]
    fn classad_queries_are_interoperable() {
        let pipeline = start(PipelineConfig::default(), fleet_db(300, 7));
        let query = (pipeline.launcher.0.query_manager.lock())
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
        let pipeline = start(config, fleet_db(100, 10));
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
        let pipeline = start(config, fleet_db(300, 11));
        submit_text(&pipeline, &paper_text()).unwrap();
        submit_text(&pipeline, &paper_text()).unwrap();
        assert_eq!(pool_instances(&pipeline), 1);
        assert!(pipeline.stats().forwards >= 1);
        assert_eq!(pipeline.stats().allocations, 2);
    }

    #[test]
    fn release_of_unknown_allocation_is_rejected() {
        let pipeline = start(PipelineConfig::default(), fleet_db(100, 12));
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
        let pipeline = start(PipelineConfig::default(), db);
        let err = submit_text(&pipeline, &paper_text()).unwrap_err();
        assert_eq!(err, AllocationError::NoSuchResources);
    }

    #[test]
    fn many_concurrent_allocations_spread_over_machines() {
        let pipeline = start(PipelineConfig::default(), fleet_db(200, 13));
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
        let pipeline = start(config, fleet_db(300, 14));
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
        let pipeline = Arc::new(start(PipelineConfig::default(), fleet_db(300, 15)));
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

/// Bounded-interleaving proofs of a [`Stage`]'s drain (`--features
/// model`), run by the CI `model-check` job: the stage's own `turn` over
/// `actyp-model` locks, driven as `Shared::serve` drives it.  A poster
/// pushes its message and drains; a holder takes the stage as
/// `LivePipeline::with_pool_manager` does, lets go and drains.  Each step
/// notes its message, and checks that no other step of the stage is under
/// way.
#[cfg(all(test, feature = "model"))]
mod drain_model_tests {
    use super::{Stage, StageLock};
    use actyp_model::sync::{Condvar, Mutex, MutexGuard};
    use actyp_model::{thread, Explorer};
    use std::collections::VecDeque;
    use std::ops::{Deref, DerefMut};
    use std::sync::Arc;

    /// A lock with the non-blocking `try_lock` the model's mutex lacks: a
    /// held flag under a model mutex, waiters parked on a model condvar,
    /// and the state in a model mutex only the flag's holder takes.
    struct ModelLock<T> {
        held: Mutex<bool>,
        freed: Condvar,
        state: Mutex<T>,
    }

    struct ModelGuard<'a, T> {
        lock: &'a ModelLock<T>,
        state: Option<MutexGuard<'a, T>>,
    }

    impl<T> ModelLock<T> {
        fn new(state: T) -> Self {
            ModelLock {
                held: Mutex::new(false),
                freed: Condvar::new(),
                state: Mutex::new(state),
            }
        }

        fn guard(&self) -> ModelGuard<'_, T> {
            let state = Some(self.state.lock().unwrap());
            ModelGuard { lock: self, state }
        }
    }

    impl<T> Deref for ModelGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.state.as_ref().expect("held")
        }
    }

    impl<T> DerefMut for ModelGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.state.as_mut().expect("held")
        }
    }

    impl<T> Drop for ModelGuard<'_, T> {
        fn drop(&mut self) {
            self.state.take();
            *self.lock.held.lock().unwrap() = false;
            self.lock.freed.notify_all();
        }
    }

    impl<T: Send> StageLock for ModelLock<T> {
        type Target = T;
        type Guard<'a>
            = ModelGuard<'a, T>
        where
            T: 'a;
        fn try_lock(&self) -> Option<ModelGuard<'_, T>> {
            let mut held = self.held.lock().unwrap();
            if *held {
                return None;
            }
            *held = true;
            drop(held);
            Some(self.guard())
        }
        fn lock(&self) -> ModelGuard<'_, T> {
            let mut held = self.held.lock().unwrap();
            while *held {
                held = self.freed.wait(held).unwrap();
            }
            *held = true;
            drop(held);
            self.guard()
        }
    }

    /// A stage whose state is the messages it stepped, in step order.
    type ModelStage = Stage<ModelLock<Vec<u32>>, ModelLock<VecDeque<u32>>>;

    /// The stage, and how many of its steps are under way.
    struct Fixture {
        stage: ModelStage,
        stepping: Mutex<usize>,
    }

    impl Fixture {
        fn new() -> Arc<Self> {
            Arc::new(Fixture {
                stage: Stage {
                    manager: ModelLock::new(Vec::new()),
                    inbox: ModelLock::new(VecDeque::new()),
                },
                stepping: Mutex::new(0),
            })
        }

        /// Steps what the inbox brings until `turn` says there is nothing
        /// for this thread to step, as `Shared::serve` does.
        fn drain(&self) {
            let step = |stepped: &mut Vec<u32>, msg: u32| {
                let mut stepping = self.stepping.lock().unwrap();
                assert_eq!(*stepping, 0, "two steps of one stage overlap");
                *stepping += 1;
                drop(stepping);
                stepped.push(msg);
                *self.stepping.lock().unwrap() -= 1;
            };
            while self.stage.turn(step).is_some() {}
        }

        /// `Shared::post`: queue `msg`, then drain.
        fn post(&self, msg: u32) {
            self.stage.inbox.lock().push_back(msg);
            self.drain();
        }

        /// Once every thread is done: each posted message was stepped
        /// exactly once.
        fn check(&self, posted: &[u32]) {
            let mut stepped = self.stage.manager.lock().clone();
            stepped.sort_unstable();
            assert_eq!(
                stepped, posted,
                "a posted message was lost or stepped twice"
            );
        }
    }

    fn explorer() -> Explorer {
        Explorer {
            max_schedules: 200_000,
            preemption_bound: 2,
            op_budget: 50_000,
        }
    }

    fn poster(fixture: &Arc<Fixture>, msg: u32) -> thread::JoinHandle<()> {
        let fixture = fixture.clone();
        thread::spawn(move || fixture.post(msg))
    }

    /// Two threads post to an idle stage at once.  Whichever gets the lock
    /// steps; the other may lose it to a holder that is unlocking after
    /// finding the inbox empty, which must look again.
    fn two_posters() {
        let fixture = Fixture::new();
        let (first, second) = (poster(&fixture, 1), poster(&fixture, 2));
        first.join().unwrap();
        second.join().unwrap();
        fixture.check(&[1, 2]);
    }

    /// A holder takes the stage as `with_pool_manager` does while a thread
    /// posts: the post queues, and the holder steps it after letting go.
    fn a_holder_and_a_poster() {
        let fixture = Fixture::new();
        let holder = {
            let fixture = fixture.clone();
            thread::spawn(move || {
                drop(fixture.stage.manager.lock());
                fixture.drain();
            })
        };
        let post = poster(&fixture, 1);
        holder.join().unwrap();
        post.join().unwrap();
        fixture.check(&[1]);
    }

    #[cfg(not(feature = "buggy-drain"))]
    #[test]
    fn drain_steps_each_post_once_and_never_overlaps_proven() {
        let report = explorer().prove(two_posters);
        assert!(report.proven());
        assert!(report.schedules > 10, "interleavings actually explored");
    }

    #[cfg(not(feature = "buggy-drain"))]
    #[test]
    fn drain_after_a_hold_steps_what_queued_proven() {
        let report = explorer().prove(a_holder_and_a_poster);
        assert!(report.proven());
        assert!(report.schedules > 10, "interleavings actually explored");
    }

    /// REGRESSION (`--features model,buggy-drain`): a thread that finds
    /// the inbox empty and unlocks without looking again strands the
    /// message of a poster that lost the lock to it meanwhile.  The
    /// exploration must find that message never stepped.
    #[cfg(feature = "buggy-drain")]
    #[test]
    fn drain_lost_post_recaught() {
        let report = explorer().explore(two_posters);
        let failure = report
            .failure
            .expect("skipping the second look must strand a post within the exploration");
        assert!(
            failure.message.contains("lost or stepped twice"),
            "expected a lost post, got: {}",
            failure.message
        );
    }
}
