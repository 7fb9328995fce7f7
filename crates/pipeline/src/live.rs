//! Live (threaded) deployment of the pipeline.
//!
//! "All stages in the resource management pipeline can be independently
//! distributed and replicated across machines.  Queries propagate from one
//! stage to the next via TCP or UDP" (Section 6).  This module realises that
//! deployment inside one process: every query-manager and pool-manager stage
//! runs on its own thread and stages exchange messages over channels, so
//! queries are genuinely pipelined — a query manager can be decomposing one
//! request while pool managers serve another and resource pools scan their
//! caches for a third.
//!
//! Clients reach the pipeline through the ticket-based
//! [`crate::api::ResourceManager`] surface (the former blocking `submit*`
//! shims are gone).  Underneath, a launched query's reply has exactly one
//! mechanism, an `OutcomeSlot`: the query-manager stage that reintegrates
//! the outcome fills it, and a redeemer either takes the outcome from it
//! or leaves a completion in it for that stage to run — several queries
//! in flight at once, and nobody relaying an outcome to anybody.
//!
//! The channel hop stands in for the TCP/UDP hop of the paper's deployment;
//! the simulated deployment ([`crate::sim`]) is where wire latency is
//! modelled explicitly.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use actyp_grid::SharedDatabase;
use actyp_query::{BasicQuery, Query, QuerySchema};

use crate::allocation::{Allocation, AllocationError, ReleaseDone, WaitDone};
use crate::directory::{LocalDirectoryService, SharedDirectory};
use crate::engine::{EngineStats, PipelineConfig};
use crate::message::{RequestId, RequestIdGenerator, RoutingState};
use crate::pool_manager::{HandleOutcome, PoolManager, PoolManagerConfig};
use crate::query_manager::QueryManager;

type AllocationReply = Sender<Result<Allocation, AllocationError>>;

/// Per-stage counters shared by every worker thread; the live deployment's
/// equivalent of [`EngineStats`].
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

/// A launched query's one reply mechanism.  The query-manager stage that
/// reintegrates the outcome fills it; a redeemer takes the outcome from it
/// (without waiting, blocking, or blocking until a deadline) or leaves a
/// completion in it.  The outcome and the completion meet under the one
/// lock, and whichever arrives second runs the completion — the
/// redeemer's own thread when the outcome was already there, the
/// query-manager stage when it was not.
pub(crate) struct OutcomeSlot {
    cell: std::sync::Mutex<SlotState>,
    filled: std::sync::Condvar,
}

enum SlotState {
    Pending,
    Ready(Outcome),
    Waiter(WaitDone),
    /// The outcome went to its redeemer.
    Spent,
}

impl OutcomeSlot {
    fn new() -> Arc<Self> {
        Arc::new(OutcomeSlot {
            cell: std::sync::Mutex::new(SlotState::Pending),
            filled: std::sync::Condvar::new(),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SlotState> {
        self.cell
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Stage side: the outcome is in.  A waiting completion runs here, on
    /// the stage's thread, after the lock is released.
    fn fill(&self, outcome: Outcome) {
        let mut cell = self.lock();
        match std::mem::replace(&mut *cell, SlotState::Spent) {
            SlotState::Waiter(done) => {
                drop(cell);
                done(outcome);
            }
            _ => {
                *cell = SlotState::Ready(outcome);
                drop(cell);
                self.filled.notify_all();
            }
        }
    }

    /// Takes the outcome out of `cell` if it is in.
    fn take_ready(cell: &mut SlotState) -> Option<Outcome> {
        match std::mem::replace(cell, SlotState::Spent) {
            SlotState::Ready(outcome) => Some(outcome),
            other => {
                *cell = other;
                None
            }
        }
    }

    /// The outcome, if it is in; never waits.
    pub(crate) fn try_take(&self) -> Option<Outcome> {
        Self::take_ready(&mut self.lock())
    }

    /// Blocks for the outcome — until `deadline` when one is given, after
    /// which `None` leaves the slot as it was.
    pub(crate) fn take_until(&self, deadline: Option<Instant>) -> Option<Outcome> {
        let mut cell = self.lock();
        loop {
            if let Some(outcome) = Self::take_ready(&mut cell) {
                return Some(outcome);
            }
            cell = match deadline {
                None => self
                    .filled
                    .wait(cell)
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    self.filled
                        .wait_timeout(cell, deadline - now)
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .0
                }
            };
        }
    }

    /// Leaves `done` to be run with the outcome: right here when it is
    /// already in, by the filling stage otherwise.
    pub(crate) fn on_ready(&self, done: WaitDone) {
        let mut cell = self.lock();
        match std::mem::replace(&mut *cell, SlotState::Spent) {
            SlotState::Ready(outcome) => {
                drop(cell);
                done(outcome);
            }
            _ => *cell = SlotState::Waiter(done),
        }
    }
}

/// The stage's end of an [`OutcomeSlot`], filled exactly once: with the
/// outcome, or — when the query is dropped unprocessed (a stage that
/// panicked, a pipeline torn down) — with an error, so no redeemer waits
/// forever.
struct Promise(Option<Arc<OutcomeSlot>>);

impl Promise {
    fn fill(mut self, outcome: Outcome) {
        if let Some(slot) = self.0.take() {
            slot.fill(outcome);
        }
    }
}

impl Drop for Promise {
    fn drop(&mut self) {
        if let Some(slot) = self.0.take() {
            slot.fill(Err(AllocationError::Internal(
                "pipeline dropped the reply".to_string(),
            )));
        }
    }
}

enum QmMsg {
    Submit {
        query: Query,
        reply: Promise,
    },
    Shutdown,
    /// Test hook: makes the receiving worker panic so teardown reporting can
    /// be exercised.
    #[cfg(test)]
    Panic,
}

enum PmMsg {
    Query {
        request: RequestId,
        basic: BasicQuery,
        routing: RoutingState,
        hour: u8,
        reply: AllocationReply,
    },
    AllocateFrom {
        pool: String,
        instance: u32,
        request: RequestId,
        basic: BasicQuery,
        hour: u8,
        reply: AllocationReply,
    },
    /// The stage drops the lease and then runs `done` itself — nobody
    /// parks waiting for the answer unless `done` is a channel send.
    Release {
        allocation: Allocation,
        done: ReleaseDone,
    },
    Shutdown,
}

/// Asks `stage` to release `allocation` and blocks for its answer.
fn release_on(stage: &Sender<PmMsg>, allocation: &Allocation) -> Result<(), AllocationError> {
    let (tx, rx) = unbounded();
    let down = || AllocationError::Internal("stage is down".to_string());
    stage
        .send(PmMsg::Release {
            allocation: allocation.clone(),
            done: Box::new(move |released| {
                let _ = tx.send(released);
            }),
        })
        .map_err(|_| down())?;
    rx.recv().unwrap_or_else(|_| Err(down()))
}

struct PmWorker {
    manager: PoolManager,
    rx: Receiver<PmMsg>,
    peers: HashMap<String, Sender<PmMsg>>,
    peer_order: Vec<String>,
    counters: Arc<LiveCounters>,
}

impl PmWorker {
    fn run(mut self) {
        while let Ok(msg) = self.rx.recv() {
            match msg {
                PmMsg::Shutdown => break,
                PmMsg::Release { allocation, done } => {
                    done(self.manager.release(&allocation));
                }
                PmMsg::AllocateFrom {
                    pool,
                    instance,
                    request,
                    basic,
                    hour,
                    reply,
                } => {
                    let result = self
                        .manager
                        .allocate_from(&pool, instance, request, &basic, hour);
                    let _ = reply.send(result);
                }
                PmMsg::Query {
                    request,
                    basic,
                    mut routing,
                    hour,
                    reply,
                } => {
                    if !routing.visit(self.manager.name()) {
                        let _ = reply.send(Err(AllocationError::TtlExpired));
                        continue;
                    }
                    match self.manager.handle(request, &basic, hour) {
                        HandleOutcome::Allocated(a) => {
                            let _ = reply.send(Ok(a));
                        }
                        HandleOutcome::Failed(err) => {
                            let _ = reply.send(Err(err));
                        }
                        HandleOutcome::Forward {
                            manager,
                            pool,
                            instance,
                        } => {
                            self.counters.forwards.fetch_add(1, Ordering::Relaxed);
                            if manager == self.manager.name() {
                                let result = self
                                    .manager
                                    .allocate_from(&pool, instance, request, &basic, hour);
                                let _ = reply.send(result);
                            } else if let Some(peer) = self.peers.get(&manager) {
                                let _ = peer.send(PmMsg::AllocateFrom {
                                    pool,
                                    instance,
                                    request,
                                    basic,
                                    hour,
                                    reply,
                                });
                            } else {
                                let _ = reply.send(Err(AllocationError::Internal(format!(
                                    "unknown pool manager {manager}"
                                ))));
                            }
                        }
                        HandleOutcome::CannotCreate => {
                            // Delegate to a peer that has not yet seen the
                            // query, carrying the routing state along.
                            self.counters.delegations.fetch_add(1, Ordering::Relaxed);
                            let next = self
                                .peer_order
                                .iter()
                                .find(|name| {
                                    !routing.has_visited(name)
                                        && name.as_str() != self.manager.name()
                                })
                                .cloned();
                            match next {
                                Some(name) if routing.alive() => {
                                    let peer = self.peers.get(&name).expect("peer sender exists");
                                    let _ = peer.send(PmMsg::Query {
                                        request,
                                        basic,
                                        routing,
                                        hour,
                                        reply,
                                    });
                                }
                                _ => {
                                    let _ = reply.send(Err(AllocationError::NoSuchResources));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

struct QmWorker {
    manager: QueryManager,
    rx: Receiver<QmMsg>,
    pm_txs: HashMap<String, Sender<PmMsg>>,
    pm_names: Vec<String>,
    config: PipelineConfig,
    counters: Arc<LiveCounters>,
}

impl QmWorker {
    fn run(mut self) {
        while let Ok(msg) = self.rx.recv() {
            match msg {
                QmMsg::Shutdown => break,
                QmMsg::Submit { query, reply } => reply.fill(self.process(&query)),
                #[cfg(test)]
                QmMsg::Panic => panic!("injected query-manager panic"),
            }
        }
    }

    fn process(&mut self, query: &Query) -> Result<Vec<Allocation>, AllocationError> {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let prepared = self.manager.prepare(query)?;
        let hour = self.config.hour_of_day;

        // Launch every fragment into the pipeline, then collect replies.
        let mut pending = Vec::with_capacity(prepared.fragments.len());
        for (tag, basic) in prepared.fragments {
            self.counters.fragments.fetch_add(1, Ordering::Relaxed);
            let target = self
                .manager
                .select_pool_manager(&basic, &self.pm_names)
                .ok_or_else(|| AllocationError::Internal("no pool managers".to_string()))?;
            let (tx, rx) = unbounded();
            let sender = self.pm_txs.get(&target).ok_or_else(|| {
                AllocationError::Internal(format!("unknown pool manager {target}"))
            })?;
            sender
                .send(PmMsg::Query {
                    request: tag.request,
                    basic,
                    routing: RoutingState::new(self.config.ttl),
                    hour,
                    reply: tx,
                })
                .map_err(|_| AllocationError::Internal("pool manager stage is down".to_string()))?;
            pending.push(rx);
        }

        let results: Vec<Result<Allocation, AllocationError>> = pending
            .into_iter()
            .map(|rx| {
                rx.recv().unwrap_or_else(|_| {
                    Err(AllocationError::Internal(
                        "pipeline stage dropped the reply".to_string(),
                    ))
                })
            })
            .collect();
        for result in &results {
            match result {
                Ok(_) => self.counters.allocations.fetch_add(1, Ordering::Relaxed),
                Err(_) => self.counters.failures.fetch_add(1, Ordering::Relaxed),
            };
        }

        let (keep, surplus) = self
            .manager
            .reintegrate(results, self.config.reintegration)?;
        for extra in surplus {
            // Hand surplus matches back to whichever manager hosts the pool.
            if self
                .pm_txs
                .values()
                .any(|stage| release_on(stage, &extra).is_ok())
            {
                self.counters.releases.fetch_add(1, Ordering::Relaxed);
                self.counters.allocations.fetch_sub(1, Ordering::Relaxed);
            }
        }
        Ok(keep)
    }
}

/// Stage threads by kind, so teardown can stop the stages in pipeline
/// order (query managers first, then pool managers).
#[derive(Default)]
struct StageWorkers {
    query_managers: Vec<JoinHandle<()>>,
    pool_managers: Vec<JoinHandle<()>>,
}

/// The query-manager stages' shared submission channel: launching is one
/// send on it, which never parks.
#[derive(Clone)]
pub(crate) struct Launcher(Sender<QmMsg>);

impl Launcher {
    /// Launches a query into the pipeline without waiting: the returned
    /// slot receives the outcome when the pipeline finishes.  Several
    /// launched queries overlap across the query-manager, pool-manager and
    /// pool stages — this is the pipelining the paper measures, available to
    /// a single client thread.
    pub(crate) fn launch(&self, query: Query) -> Result<Arc<OutcomeSlot>, AllocationError> {
        let slot = OutcomeSlot::new();
        let reply = Promise(Some(slot.clone()));
        self.0
            .send(QmMsg::Submit { query, reply })
            .map_err(|_| AllocationError::Internal("query manager stage is down".to_string()))?;
        Ok(slot)
    }
}

/// A running, threaded deployment of the pipeline.
pub struct LivePipeline {
    launcher: Launcher,
    pm_txs: HashMap<String, Sender<PmMsg>>,
    directory: SharedDirectory,
    workers: Mutex<StageWorkers>,
    query_managers: usize,
    counters: Arc<LiveCounters>,
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
        let directory: SharedDirectory =
            LocalDirectoryService::new().into_shared_with(config.shards);
        let ids = Arc::new(RequestIdGenerator::new());
        let counters = Arc::new(LiveCounters::default());

        // Pool-manager stages and their channels.
        let mut pm_txs: HashMap<String, Sender<PmMsg>> = HashMap::new();
        let mut pm_rxs: Vec<(String, SharedDatabase, Receiver<PmMsg>)> = Vec::new();
        let pm_names: Vec<String> = domains.iter().map(|(name, _)| name.clone()).collect();
        for (name, db) in domains {
            let (tx, rx) = unbounded();
            pm_txs.insert(name.clone(), tx);
            pm_rxs.push((name, db, rx));
        }

        let mut workers = StageWorkers::default();
        for (i, (name, db, rx)) in pm_rxs.into_iter().enumerate() {
            let manager = PoolManager::new(
                name,
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
            let worker = PmWorker {
                manager,
                rx,
                peers: pm_txs.clone(),
                peer_order: pm_names.clone(),
                counters: counters.clone(),
            };
            workers.pool_managers.push(
                std::thread::Builder::new()
                    .name(format!("yp-pm-{i}"))
                    .spawn(move || worker.run())
                    .expect("spawn pool-manager stage"),
            );
        }

        // Query-manager stages share one submission channel (any idle stage
        // picks up the next client request).
        let (qm_tx, qm_rx) = unbounded::<QmMsg>();
        let query_managers = config.query_managers.max(1);
        for i in 0..query_managers {
            let manager = QueryManager::new(
                format!("qm-{i}"),
                QuerySchema::punch_default().permissive(),
                config.pool_manager_selection.clone(),
                config.decompose_limit,
                ids.clone(),
                config.seed ^ (0x51 + i as u64),
            );
            let worker = QmWorker {
                manager,
                rx: qm_rx.clone(),
                pm_txs: pm_txs.clone(),
                pm_names: pm_names.clone(),
                config: config.clone(),
                counters: counters.clone(),
            };
            workers.query_managers.push(
                std::thread::Builder::new()
                    .name(format!("yp-qm-{i}"))
                    .spawn(move || worker.run())
                    .expect("spawn query-manager stage"),
            );
        }

        LivePipeline {
            launcher: Launcher(qm_tx),
            pm_txs,
            directory,
            workers: Mutex::new(workers),
            query_managers,
            counters,
        }
    }

    /// The shared directory service (inspection).
    pub fn directory(&self) -> &SharedDirectory {
        &self.directory
    }

    /// A snapshot of the per-stage counters, unified with the embedded
    /// engine's [`EngineStats`].
    pub fn stats(&self) -> EngineStats {
        self.counters.snapshot()
    }

    /// A handle that launches queries into this pipeline from anywhere.
    pub(crate) fn launcher(&self) -> Launcher {
        self.launcher.clone()
    }

    /// The stage hosting `allocation`'s pool, when the directory knows it.
    fn owning_stage(&self, allocation: &Allocation) -> Option<&Sender<PmMsg>> {
        let manager = crate::engine::owning_manager(&self.directory, allocation)?;
        self.pm_txs.get(&manager)
    }

    /// Releases an allocation, blocking for the answer: the owning stage's,
    /// or — when the directory does not know the owner — each stage's in
    /// turn until one accepts.
    pub fn release(&self, allocation: &Allocation) -> Result<(), AllocationError> {
        let stages: Vec<&Sender<PmMsg>> = match self.owning_stage(allocation) {
            Some(stage) => vec![stage],
            None => self.pm_txs.values().collect(),
        };
        let mut last = Err(AllocationError::UnknownAllocation);
        for stage in stages {
            last = release_on(stage, allocation);
            if last.is_ok() {
                self.counters.releases.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
        last
    }

    /// Releases an allocation without waiting for it: the owning
    /// pool-manager stage drops the lease and calls `done` with the result
    /// (if the stages shut down first, `done` is dropped uncalled).  When
    /// the directory does not know the owner the stages have to be asked
    /// one after the other, which parks: `done` is handed back and the
    /// caller uses [`release`](Self::release).
    pub fn release_with(
        &self,
        allocation: &Allocation,
        done: ReleaseDone,
    ) -> Result<(), ReleaseDone> {
        let Some(stage) = self.owning_stage(allocation) else {
            return Err(done);
        };
        let counters = self.counters.clone();
        let attempt = PmMsg::Release {
            allocation: allocation.clone(),
            done: Box::new(move |released| {
                if released.is_ok() {
                    counters.releases.fetch_add(1, Ordering::Relaxed);
                }
                done(released);
            }),
        };
        if let Err(crossbeam::channel::SendError(PmMsg::Release { done, .. })) = stage.send(attempt)
        {
            done(Err(AllocationError::Internal("stage is down".to_string())));
        }
        Ok(())
    }

    /// Shuts the deployment down, joining every stage thread.  A worker that
    /// panicked during the run is reported here instead of being silently
    /// detached; the error lists every panicking stage.
    ///
    /// Teardown follows the pipeline order: the query-manager stages are
    /// stopped and joined first, so every submission already queued is fully
    /// processed (its fragments forwarded to the pool managers and their
    /// replies awaited) before the pool-manager stages are stopped.
    /// Outstanding tickets therefore still redeem their real outcome after
    /// shutdown.
    pub fn shutdown(&self) -> Result<(), AllocationError> {
        let mut panics = Vec::new();

        // Phase 1: stop the query managers.  Each worker consumes its
        // shutdown marker only after the submissions queued ahead of it.
        for _ in 0..self.query_managers {
            let _ = self.launcher.0.send(QmMsg::Shutdown);
        }
        let qm_handles: Vec<JoinHandle<()>> =
            self.workers.lock().query_managers.drain(..).collect();
        Self::join_into(qm_handles, &mut panics);

        // Phase 2: no new fragments can arrive now — stop the pool managers.
        for sender in self.pm_txs.values() {
            let _ = sender.send(PmMsg::Shutdown);
        }
        let pm_handles: Vec<JoinHandle<()>> = self.workers.lock().pool_managers.drain(..).collect();
        Self::join_into(pm_handles, &mut panics);

        if panics.is_empty() {
            Ok(())
        } else {
            Err(AllocationError::Internal(format!(
                "stage worker panicked: {}",
                panics.join("; ")
            )))
        }
    }

    fn join_into(handles: Vec<JoinHandle<()>>, panics: &mut Vec<String>) {
        for handle in handles {
            if let Err(payload) = handle.join() {
                panics.push(panic_message(payload.as_ref()));
            }
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
        slot.take_until(None).expect("no deadline")
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

        let slot = OutcomeSlot::new();
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

        let slot = OutcomeSlot::new();
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

    /// A query the stage drops unprocessed still answers its redeemer.
    #[test]
    fn a_dropped_query_answers_with_an_error() {
        let slot = OutcomeSlot::new();
        drop(Promise(Some(slot.clone())));
        assert!(matches!(
            slot.take_until(None),
            Some(Err(AllocationError::Internal(_)))
        ));
    }

    #[test]
    fn worker_panics_surface_at_shutdown() {
        let pipeline = LivePipeline::start(PipelineConfig::default(), fleet_db(50, 10));
        pipeline.launcher.0.send(QmMsg::Panic).unwrap();
        let err = pipeline.shutdown().unwrap_err();
        match err {
            AllocationError::Internal(message) => {
                assert!(message.contains("panicked"), "got: {message}");
                assert!(message.contains("injected query-manager panic"));
            }
            other => panic!("expected Internal, got {other:?}"),
        }
        // A second shutdown (and the eventual drop) is a clean no-op.
        pipeline.shutdown().unwrap();
    }
}
