//! Live (threaded) deployment of the pipeline.
//!
//! "All stages in the resource management pipeline can be independently
//! distributed and replicated across machines.  Queries propagate from one
//! stage to the next via TCP or UDP" (Section 6).  This module realises that
//! deployment inside one process: every pool-manager stage runs on its own
//! thread and stages exchange messages over channels, so queries are
//! genuinely pipelined.  The query manager owns no pool state and has no
//! thread: whoever launches a query runs it on one of the `query_managers`
//! replicas and sends each fragment straight to its pool-manager stage.
//! Each fragment carries a handle on its query's join, and the stage that
//! delivers the last result re-integrates the query — the paper's "another
//! query-manager stage at the end of the pipeline" — and fills its
//! `OutcomeSlot`, in which a redeemer leaves a completion for that stage to
//! run — and may take it back while the outcome has not come.
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
use crate::engine::{EngineStats, PipelineConfig};
use crate::message::{RequestId, RequestIdGenerator, RoutingState};
use crate::pool_manager::{HandleOutcome, PoolManager, PoolManagerConfig};
use crate::query_manager::QueryManager;

/// Per-stage counters shared by every launching and stage thread; the live
/// deployment's equivalent of [`EngineStats`].
#[derive(Debug, Default)]
struct LiveCounters {
    requests: AtomicU64,
    fragments: AtomicU64,
    allocations: AtomicU64,
    failures: AtomicU64,
    delegations: AtomicU64,
    forwards: AtomicU64,
    releases: AtomicU64,
}

impl LiveCounters {
    fn snapshot(&self) -> EngineStats {
        EngineStats {
            requests: self.requests.load(Ordering::Relaxed),
            fragments: self.fragments.load(Ordering::Relaxed),
            allocations: self.allocations.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            delegations: self.delegations.load(Ordering::Relaxed),
            forwards: self.forwards.load(Ordering::Relaxed),
            releases: self.releases.load(Ordering::Relaxed),
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
    /// have been handed back.
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
                release_surplus(shared, surplus, Box::new(move || promise.fill(Ok(keep))))
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

/// Hands `surplus` back one allocation after another, each as a completion
/// of the stage that releases it, and runs `then` once the last one has
/// answered.  Nothing parks, so a stage may release its own surplus.
fn release_surplus(
    shared: Arc<Shared>,
    mut surplus: Vec<Allocation>,
    then: Box<dyn FnOnce() + Send>,
) {
    let Some(extra) = surplus.pop() else {
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
    if let Err(SendError(PmMsg::Release { done, .. })) = shared.pm_txs[&name].send(attempt) {
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
    /// The stage drops the lease and then runs `done` itself.
    Release {
        allocation: Allocation,
        done: ReleaseDone,
    },
    Shutdown,
    /// Test hook: makes the receiving stage panic so teardown reporting can
    /// be exercised.
    #[cfg(test)]
    Panic,
}

/// What launching a query and finishing it touch, shared by every
/// launching thread and every pool-manager stage.
struct Shared {
    /// The query-manager replicas, taken round robin.  Each is a leaf lock,
    /// never held across a send.
    replicas: Vec<Mutex<QueryManager>>,
    cursor: AtomicUsize,
    pm_txs: HashMap<String, Sender<PmMsg>>,
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
    /// Releases `allocation` on the stage hosting its pool, or — when the
    /// directory no longer knows it — on each stage in turn until one
    /// accepts; `done` runs on the stage that answers last.
    fn release_with(self: &Arc<Self>, allocation: &Allocation, done: ReleaseDone) {
        let owner = crate::engine::owning_manager(&self.directory, allocation);
        let stages = match owner.filter(|owner| self.pm_txs.contains_key(owner)) {
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

struct PmWorker {
    manager: PoolManager,
    rx: Receiver<PmMsg>,
    shared: Arc<Shared>,
}

impl PmWorker {
    fn run(mut self) {
        let hour = self.shared.config.hour_of_day;
        while let Ok(msg) = self.rx.recv() {
            match msg {
                PmMsg::Shutdown => break,
                #[cfg(test)]
                PmMsg::Panic => panic!("injected pool-manager panic"),
                PmMsg::Release { allocation, done } => done(self.manager.release(&allocation)),
                PmMsg::AllocateFrom {
                    pool,
                    instance,
                    mut fragment,
                } => {
                    let (request, basic) = (fragment.request, &fragment.basic);
                    let result = self
                        .manager
                        .allocate_from(&pool, instance, request, basic, hour);
                    fragment.deliver(result);
                }
                PmMsg::Query { fragment, routing } => self.serve(fragment, routing, hour),
            }
        }
    }

    /// Serves `fragment` from a pool hosted here, or passes it on: to the
    /// stage hosting its pool, or — when no pool can be made here — to a
    /// peer that has not seen it yet, carrying the routing state along.  A
    /// message no stage takes is dropped, and its fragment answers.
    fn serve(&mut self, mut fragment: Fragment, mut routing: RoutingState, hour: u8) {
        if !routing.visit(self.manager.name()) {
            return fragment.deliver(Err(AllocationError::TtlExpired));
        }
        let counters = &self.shared.counters;
        let (next, msg) = match self.manager.handle(fragment.request, &fragment.basic, hour) {
            HandleOutcome::Allocated(a) => return fragment.deliver(Ok(a)),
            HandleOutcome::Failed(err) => return fragment.deliver(Err(err)),
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
                (manager, forward)
            }
            HandleOutcome::CannotCreate => {
                counters.delegations.fetch_add(1, Ordering::Relaxed);
                let here = self.manager.name();
                let unseen = |name: &&String| !routing.has_visited(name) && name.as_str() != here;
                match self.shared.pm_names.iter().find(unseen) {
                    Some(peer) if routing.alive() => {
                        (peer.clone(), PmMsg::Query { fragment, routing })
                    }
                    _ => return fragment.deliver(Err(AllocationError::NoSuchResources)),
                }
            }
        };
        if let Some(stage) = self.shared.pm_txs.get(&next) {
            let _ = stage.send(msg);
        }
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
    /// one of its replicas, and sends each fragment to its pool-manager
    /// stage; the slot receives the outcome once the last fragment is in.
    /// A query the query manager refuses fills its slot with the error at
    /// once; `Err` means the pipeline is down.
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
            let Some(stage) = target.and_then(|name| shared.pm_txs.get(&name)) else {
                fragment.deliver(Err(AllocationError::Internal("no pool managers".into())));
                continue;
            };
            let routing = RoutingState::new(shared.config.ttl);
            stage
                .send(PmMsg::Query { fragment, routing })
                .map_err(|_| AllocationError::Internal("pool manager stage is down".to_string()))?;
        }
        Ok(slot)
    }
}

/// A running, threaded deployment of the pipeline.
pub struct LivePipeline {
    launcher: Launcher,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl LivePipeline {
    /// Starts a single-domain deployment over one resource database.
    pub fn start(config: PipelineConfig, db: SharedDatabase) -> Self {
        let domains: Vec<(String, SharedDatabase)> = (0..config.pool_managers.max(1))
            .map(|i| (format!("pm-{i}"), db.clone()))
            .collect();
        Self::start_federated(config, domains)
    }

    /// Starts a federated deployment: one pool-manager stage per domain.
    pub fn start_federated(config: PipelineConfig, domains: Vec<(String, SharedDatabase)>) -> Self {
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
        let (pm_txs, pm_rxs): (Vec<_>, Vec<_>) = domains.iter().map(|_| unbounded()).unzip();
        let shared = Arc::new(Shared {
            replicas,
            cursor: AtomicUsize::new(0),
            pm_txs: pm_names.iter().cloned().zip(pm_txs).collect(),
            pm_names,
            directory: LocalDirectoryService::new().into_shared_with(config.shards),
            config,
            counters: LiveCounters::default(),
            in_flight: AtomicUsize::new(0),
            closing: AtomicBool::new(false),
            idle: std::sync::Mutex::new(()),
            drained: std::sync::Condvar::new(),
        });
        let config = &shared.config;
        let workers = domains
            .into_iter()
            .zip(pm_rxs)
            .enumerate()
            .map(|(i, ((name, db), rx))| {
                let manager = PoolManager::new(
                    name,
                    db,
                    shared.directory.clone(),
                    PoolManagerConfig {
                        selection: config.instance_selection,
                        objective: config.objective,
                        host: format!("actyp-node-{i}"),
                        base_port: 7300,
                    },
                    config.seed ^ (0x90 + i as u64),
                );
                let worker = PmWorker {
                    manager,
                    rx,
                    shared: shared.clone(),
                };
                std::thread::Builder::new()
                    .name(format!("yp-pm-{i}"))
                    .spawn(move || worker.run())
                    .expect("spawn pool-manager stage")
            })
            .collect();

        LivePipeline {
            launcher: Launcher(shared),
            workers: Mutex::new(workers),
        }
    }

    /// The shared directory service (inspection).
    pub fn directory(&self) -> &SharedDirectory {
        &self.launcher.0.directory
    }

    /// A snapshot of the per-stage counters, unified with the embedded
    /// engine's [`EngineStats`].
    pub fn stats(&self) -> EngineStats {
        self.launcher.0.counters.snapshot()
    }

    /// A handle that launches queries into this pipeline from anywhere.
    pub(crate) fn launcher(&self) -> Launcher {
        self.launcher.clone()
    }

    /// Releases an allocation, blocking for the answer: the owning stage's,
    /// or — when the directory does not know the owner — each stage's in
    /// turn until one accepts.
    pub fn release(&self, allocation: &Allocation) -> Result<(), AllocationError> {
        let (tx, rx) = unbounded();
        let done = Box::new(move |released| drop(tx.send(released)));
        self.launcher.0.release_with(allocation, done);
        rx.recv()
            .unwrap_or_else(|_| Err(AllocationError::Internal("stage is down".to_string())))
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
        for sender in shared.pm_txs.values() {
            let _ = sender.send(PmMsg::Shutdown);
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
    use crate::query_manager::{PoolManagerSelection, ReintegrationPolicy};
    use actyp_grid::{FleetSpec, SyntheticFleet};

    fn fleet_db(n: usize, seed: u64) -> SharedDatabase {
        SyntheticFleet::new(FleetSpec::with_machines(n), seed)
            .generate()
            .into_shared()
    }

    fn paper_text() -> String {
        Query::paper_example().to_string()
    }

    /// What the removed `LivePipeline::submit_text` shim did: parse, launch
    /// asynchronously, block for the reply.
    fn submit_text(pipeline: &LivePipeline, text: &str) -> Outcome {
        let query =
            actyp_query::parse_query(text).map_err(|e| AllocationError::Parse(e.to_string()))?;
        let slot = pipeline.launcher.launch(query)?;
        redeem(&slot)
    }

    fn redeem(slot: &OutcomeSlot) -> Outcome {
        let (tx, rx) = std::sync::mpsc::channel();
        slot.on_ready(Box::new(move |outcome| drop(tx.send(outcome))));
        rx.recv().expect("a slot is filled exactly once")
    }

    #[test]
    fn live_pipeline_allocates_and_releases() {
        let pipeline = LivePipeline::start(PipelineConfig::default(), fleet_db(200, 1));
        let allocations = submit_text(&pipeline, &paper_text()).unwrap();
        assert_eq!(allocations.len(), 1);
        assert!(allocations[0].machine_name.contains("sun"));
        pipeline.release(&allocations[0]).unwrap();
        assert!(pipeline.release(&allocations[0]).is_err());
        let stats = pipeline.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.allocations, 1);
        assert_eq!(stats.releases, 1);
        pipeline.shutdown().unwrap();
    }

    #[test]
    fn replicated_stages_serve_concurrent_clients() {
        let config = PipelineConfig {
            query_managers: 3,
            pool_managers: 2,
            pool_manager_selection: PoolManagerSelection::RoundRobin,
            ..PipelineConfig::default()
        };
        let pipeline = Arc::new(LivePipeline::start(config, fleet_db(400, 2)));
        let mut joins = Vec::new();
        for _ in 0..6 {
            let p = pipeline.clone();
            joins.push(std::thread::spawn(move || {
                let mut allocations = Vec::new();
                for _ in 0..5 {
                    allocations.extend(submit_text(&p, &paper_text()).unwrap());
                }
                for a in &allocations {
                    p.release(a).unwrap();
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
        let pipeline = LivePipeline::start(config, db.clone());
        let allocations = submit_text(
            &pipeline,
            "punch.rsrc.arch = sun | hp\npunch.user.accessgroup = ece\n",
        )
        .unwrap();
        assert_eq!(allocations.len(), 1);
        // The surplus fragment allocation was handed back by the pipeline.
        let outstanding: u32 = db.read().iter().map(|m| m.dynamic.active_jobs).sum();
        assert_eq!(outstanding, 1);
        pipeline.release(&allocations[0]).unwrap();
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
        let pipeline = LivePipeline::start_federated(
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
        let pipeline = LivePipeline::start(PipelineConfig::default(), fleet_db(50, 7));
        assert!(matches!(
            submit_text(&pipeline, "garbage").unwrap_err(),
            AllocationError::Parse(_)
        ));
        pipeline.shutdown().unwrap();
    }

    #[test]
    fn shutdown_via_drop_does_not_hang() {
        let pipeline = LivePipeline::start(PipelineConfig::default(), fleet_db(50, 8));
        let _ = submit_text(&pipeline, &paper_text()).unwrap();
        drop(pipeline);
    }

    #[test]
    fn async_submissions_overlap_in_the_pipeline() {
        let config = PipelineConfig {
            query_managers: 2,
            ..PipelineConfig::default()
        };
        let pipeline = LivePipeline::start(config, fleet_db(300, 9));
        let query = Query::paper_example();
        // Three queries in flight before any reply is awaited.
        let pending: Vec<_> = (0..3)
            .map(|_| pipeline.launcher.launch(query.clone()).unwrap())
            .collect();
        for slot in pending {
            let allocations = redeem(&slot).unwrap();
            pipeline.release(&allocations[0]).unwrap();
        }
        assert_eq!(pipeline.stats().allocations, 3);
        pipeline.shutdown().unwrap();
    }

    #[test]
    fn queued_submissions_complete_across_shutdown() {
        // Shutdown stops the stages in pipeline order, so a submission that
        // is still queued when shutdown begins is processed end to end and
        // its slot receives the real outcome.
        let pipeline = LivePipeline::start(PipelineConfig::default(), fleet_db(200, 11));
        let slot = pipeline.launcher.launch(Query::paper_example()).unwrap();
        pipeline.shutdown().unwrap();
        let allocations = redeem(&slot).unwrap();
        assert_eq!(allocations.len(), 1);
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
        let pipeline = LivePipeline::start(PipelineConfig::default(), fleet_db(50, 12));
        let slot: Arc<OutcomeSlot> = OutcomeSlot::new();
        drop(Promise::new(&pipeline.launcher.0, slot.clone()));
        assert!(matches!(redeem(&slot), Err(AllocationError::Internal(_))));
        pipeline.shutdown().unwrap();
    }

    #[test]
    fn worker_panics_surface_at_shutdown() {
        let pipeline = LivePipeline::start(PipelineConfig::default(), fleet_db(50, 10));
        pipeline.launcher.0.pm_txs["pm-0"]
            .send(PmMsg::Panic)
            .unwrap();
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

    fn active_jobs(db: &SharedDatabase) -> u32 {
        db.read().iter().map(|m| m.dynamic.active_jobs).sum()
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
        let pipeline = LivePipeline::start(config, db.clone());
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
        pipeline.release(&allocations[0]).unwrap();
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
        let pipeline = LivePipeline::start(config, db.clone());
        let sun = submit_text(&pipeline, "punch.rsrc.arch = sun\n").unwrap();
        let hp = submit_text(&pipeline, "punch.rsrc.arch = hp\n").unwrap();
        pipeline
            .directory()
            .unregister_pool(&hp[0].pool, hp[0].pool_instance);
        let release = |allocation: &Allocation| {
            let (tx, rx) = std::sync::mpsc::channel();
            let done = Box::new(move |released| tx.send(released).unwrap());
            pipeline.release_with(allocation, done);
            rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap()
        };
        assert_eq!(release(&hp[0]), Ok(()));
        assert_eq!(release(&hp[0]), Err(AllocationError::UnknownAllocation));
        assert_eq!(active_jobs(&db), 1);
        pipeline.release(&sun[0]).unwrap();
        pipeline.shutdown().unwrap();
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
        let config = PipelineConfig {
            pool_managers: 2,
            ..PipelineConfig::default()
        };
        let db = fleet_db(400, 15);
        let pipeline = LivePipeline::start(config, db.clone());
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
                pipeline.release(a).unwrap();
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
        let pipeline = LivePipeline::start(PipelineConfig::default(), fleet_db(50, 18));
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
        let pipeline = LivePipeline::start(PipelineConfig::default(), fleet_db(50, 16));
        let shared = &pipeline.launcher.0;
        let slot: Arc<OutcomeSlot> = OutcomeSlot::new();
        let fragment = fragment_of(&join_into(shared, &slot, 1), 0);
        let (stage, queue) = unbounded();
        let routing = RoutingState::new(8);
        stage.send(PmMsg::Query { fragment, routing }).unwrap();
        drop(queue);
        let (tx, answered) = std::sync::mpsc::channel();
        slot.on_ready(Box::new(move |outcome| drop(tx.send(outcome))));
        assert!(matches!(
            answered.try_recv(),
            Ok(Err(AllocationError::Internal(_)))
        ));

        shared.pm_txs["pm-0"].send(PmMsg::Shutdown).unwrap();
        let outcome = pipeline
            .launcher
            .launch(Query::paper_example())
            .and_then(|slot| redeem(&slot));
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
        let config = PipelineConfig {
            pool_managers: 2,
            ..PipelineConfig::default()
        };
        let pipeline = LivePipeline::start(config, fleet_db(400, 17));
        let warm = submit_text(&pipeline, &paper_text()).unwrap();
        pipeline.release(&warm[0]).unwrap();
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

/// Bounded-interleaving proofs of [`OutcomeSlot`] (`--features model`), run
/// by the CI `model-check` job: the daemon's own `fill`, `on_ready` and
/// `withdraw` over an `actyp-model` mutex.  A pool-manager stage fills the
/// slot while a redeemer leaves its completion in it — and, in the second
/// scenario, gives up on it at once, as a `Poll` does, redeeming the ticket
/// again when the give-up took the completion back.
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
