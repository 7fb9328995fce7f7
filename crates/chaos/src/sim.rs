//! The deterministic WAN executor.
//!
//! Stands a federated topology up *in one process, on virtual time*: each
//! domain owns the daemon's own routing view ([`PeerView`]: gossip plane,
//! peer directory, learned routes, candidate order) and runs the daemon's
//! own delegation step machine ([`Chain`]).  Only the transport is
//! simulated: every frame — a gossip push and its ack, a `Delegate` and
//! its answer — lands one trip later, sampled from a seeded
//! [`JitteredLatency`] over `simnet`'s event queue, so faults, gossip and
//! other chains interleave with a chain in flight, as on a daemon.  Faults
//! mutate the world between events; the invariant checker watches every
//! chain, every lease and the converged gossip views continuously.
//!
//! At the edges the simulator follows the daemon: a `Delegate` over a
//! down link fails as transport after `DEAD_DIAL_COST`, and its sender
//! prunes the peer; an answer that reaches a dead domain, or crosses a
//! link cut since its `Delegate` left, hands its leases back to their
//! grantor and fails the step that waited on it as transport — on a
//! daemon, the session teardown releases them hop by hop.  Peer links have
//! no dial, backoff or handshake here: a link is up or it is not.
//!
//! Everything observable lands in the [`EventLog`], and every random
//! choice derives from the scenario seed over `simnet`'s deterministic
//! RNG, so two runs of the same scenario produce byte-for-byte identical
//! logs — the determinism tests pin `digest()` equality across runs, and
//! a violation report names a reproducible run, not a flake.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use actyp_grid::MachineId;
use actyp_pipeline::api::QueryOutcome;
use actyp_pipeline::federation::{Chain, Step};
use actyp_pipeline::{
    Allocation, AllocationError, GossipPlane, PeerUnavailable, PeerView, RequestId, RoutingState,
    SessionKey,
};
use actyp_proto::frames::{AdvertDelta, AdvertVersion};
use actyp_simnet::net::JitteredLatency;
use actyp_simnet::{EventQueue, LatencyModel, Rng, SimDuration, SimTime};

use crate::invariants::{Checker, Hop, LeaseLedger, LeaseState};
use crate::log::EventLog;
use crate::plan::{submission_plan, PlannedSubmission};
use crate::scenario::{Fault, Scenario, WorkloadSpec};

/// What a delegation pays for discovering a dead peer: the connect
/// timeout, after which its step fails as transport.
const DEAD_DIAL_COST: SimDuration = SimDuration::from_millis(500);

/// Local processing cost of settling a query (parse, pool lookup,
/// scheduling) — dwarfed by WAN hops, but never zero.  Charged once, when
/// the entry domain's chain ends.
const LOCAL_COST: SimDuration = SimDuration::from_millis(1);

/// Counters a run accumulates.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SimMetrics {
    /// Submissions replayed.
    pub submitted: u64,
    /// Requests settled with an allocation.
    pub settled_ok: u64,
    /// Requests settled with an error.
    pub settled_err: u64,
    /// Requests settled by teardown (entry died or client vanished).
    pub settled_teardown: u64,
    /// Burst jobs refused because their sweep's budget was spent.
    pub budget_refusals: u64,
    /// Deadline-constrained jobs that settled after their deadline.
    pub deadline_misses: u64,
    /// Delegation hops taken across all chains.
    pub hops: u64,
    /// Longest single chain observed.
    pub max_chain_hops: u64,
    /// Anti-entropy exchanges delivered.
    pub gossip_exchanges: u64,
    /// Advertisement deltas shipped (pushes and ack replies).
    pub deltas_shipped: u64,
    /// Leases granted / released / reclaimed by teardown.
    pub leases_granted: u64,
    /// Leases returned by their clients.
    pub leases_released: u64,
    /// Leases reclaimed by session teardown.
    pub leases_reclaimed: u64,
    /// Clients that vanished mid-run.
    pub vanished_clients: u64,
    /// Route-cache hits and misses summed over every domain.
    pub route_hits: u64,
    /// Route-cache misses summed over every domain.
    pub route_misses: u64,
}

/// The outcome of one simulated run.
#[derive(Debug)]
pub struct SimReport {
    /// Scenario name.
    pub scenario: String,
    /// Seed the run used.
    pub seed: u64,
    /// Accumulated counters.
    pub metrics: SimMetrics,
    /// Invariant violations (empty = the run passed).
    pub violations: Vec<String>,
    /// The deterministic event log.
    pub log: EventLog,
}

impl SimReport {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The run's identity: an order-sensitive digest over the event log
    /// *and* the violation list.  Two same-seed runs must agree on it.
    pub fn digest(&self) -> u64 {
        let mut log = EventLog::new();
        let end = SimTime::ZERO;
        for v in &self.violations {
            log.push(end, format!("violation: {v}"));
        }
        self.log.digest() ^ log.digest().rotate_left(17)
    }
}

/// Runs one scenario to completion on virtual time.
pub fn run_sim(scenario: &Scenario) -> Result<SimReport, String> {
    scenario.validate()?;
    Ok(replay(scenario, submission_plan(scenario)))
}

/// Replays `plan` in `scenario`'s world.
fn replay(scenario: &Scenario, plan: Vec<PlannedSubmission>) -> SimReport {
    let world = World::build(scenario, plan);
    let mut queue: EventQueue<Ev> = EventQueue::new();

    for (i, fault) in scenario.faults.iter().enumerate() {
        queue.schedule_at(at_ms(fault.at_ms), Ev::Fault(i));
    }
    for (i, sub) in world.plan.iter().enumerate() {
        queue.schedule_at(at_ms(sub.at_ms), Ev::Submit(i));
    }
    for d in 0..scenario.domains {
        // Staggered first ticks: real daemons never start in phase.
        let offset = (d as u64 * 37 + 13) % scenario.gossip_interval_ms.max(1);
        queue.schedule_at(at_ms(offset), Ev::Tick(d));
    }

    while let Some(event) = queue.pop() {
        world.now.set(event.at);
        world.handle(event.event, event.at, &mut queue);
    }
    world.finish()
}

/// Virtual-time instant for a millisecond offset.
fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// Events the run is made of.
enum Ev {
    /// Apply `scenario.faults[i]`.
    Fault(usize),
    /// Replay `plan[i]`.
    Submit(usize),
    /// `plan[i]`'s outcome reaches its client.
    Settle(usize),
    /// `plan[i]`'s client returns its allocations.
    Release(usize),
    /// Domain `d`'s anti-entropy tick.
    Tick(usize),
    /// A gossip push lands: `from`'s deltas and version vector reach `to`.
    Deltas {
        from: usize,
        to: usize,
        deltas: Vec<AdvertDelta>,
        have: Vec<AdvertVersion>,
    },
    /// The ack lands back: `from`'s reply deltas reach `to`, confirming
    /// everything up to `vector`.
    Ack {
        from: usize,
        to: usize,
        reply: Vec<AdvertDelta>,
        vector: Vec<AdvertVersion>,
    },
    /// `plan[i]`'s `Delegate` lands at the domain its waiting step names.
    Land(usize),
    /// The answer to `plan[i]`'s `Delegate` lands back at its sender.
    Answer(usize, Reply),
}

/// A chain step's answer to a `Delegate`, as [`Chain::on_reply`] reads it.
type Reply = Result<(QueryOutcome, RoutingState), PeerUnavailable>;

/// A chain step waiting for the answer to its `Delegate`.
struct Waiting {
    /// The sender, and the domain it delegated to.
    at: usize,
    to: usize,
    chain: Chain,
    /// When the `Delegate` left: a cut of the link since loses the answer.
    sent: SimTime,
    /// How many hops the request's chain had taken then: a lost answer
    /// takes the hops behind it along.
    mark: usize,
}

/// A fault that breaks the connections it crosses, even if it heals
/// before an answer comes back.
enum Cut {
    Domain(usize),
    Link(usize, usize),
    Partition(usize),
}

/// A hop lost with its link, as a chain step reads it.
fn lost() -> Reply {
    let reason = "the link went down".to_string();
    Err(PeerUnavailable {
        transport: true,
        reason,
    })
}

/// One simulated pool: a capacity and its free share.
struct Pool {
    capacity: u32,
    free: u32,
}

/// One administrative domain.
struct Domain {
    name: String,
    arch: String,
    up: Cell<bool>,
    /// The daemon's routing view (replaced wholesale on restart, exactly as
    /// a restarted daemon starts a fresh epoch).
    view: RefCell<PeerView>,
    pools: RefCell<BTreeMap<String, Pool>>,
    /// Direct peers, ascending.
    peers: Vec<usize>,
    restarts: Cell<u64>,
    grants: Cell<u64>,
    renames: Cell<u64>,
}

impl Domain {
    fn live_pool_names(&self) -> Vec<String> {
        self.pools.borrow().keys().cloned().collect()
    }
}

/// Per-request bookkeeping.
struct ReqState {
    settled: bool,
    vanished: bool,
    /// Ledger indices of the leases this request's chain granted.
    leases: Vec<usize>,
    /// The chain steps waiting for an answer, the entry domain's first.
    waiting: Vec<Waiting>,
    /// Settle description, filled when the entry domain's chain ends.
    outcome: Option<Result<String, String>>,
    /// The hops of the request's chain whose answers came back.
    hops: Vec<Hop>,
}

struct World<'s> {
    scenario: &'s Scenario,
    plan: Vec<PlannedSubmission>,
    domains: Vec<Domain>,
    /// Whether each undirected peer link is up (endpoints live in the
    /// `link_of` index).
    links: Vec<Cell<bool>>,
    link_of: BTreeMap<(usize, usize), usize>,
    partition: Cell<Option<usize>>,
    /// Every cut so far, in time order.
    cuts: RefCell<Vec<(SimTime, Cut)>>,
    latency: JitteredLatency,
    rng: RefCell<Rng>,
    now: Cell<SimTime>,
    log: RefCell<EventLog>,
    checker: RefCell<Checker>,
    ledger: RefCell<LeaseLedger>,
    requests: RefCell<Vec<ReqState>>,
    budgets: RefCell<Vec<u32>>,
    metrics: RefCell<SimMetrics>,
    name_of: BTreeMap<String, usize>,
}

impl<'s> World<'s> {
    fn build(scenario: &'s Scenario, plan: Vec<PlannedSubmission>) -> World<'s> {
        let edges = scenario.edges();
        let mut peers: Vec<Vec<usize>> = vec![Vec::new(); scenario.domains];
        let mut links = Vec::new();
        let mut link_of = BTreeMap::new();
        for &(a, b) in &edges {
            peers[a].push(b);
            peers[b].push(a);
            link_of.insert((a.min(b), a.max(b)), links.len());
            links.push(Cell::new(true));
        }
        let domains: Vec<Domain> = (0..scenario.domains)
            .map(|d| {
                let name = scenario.domain_name(d);
                let mut pools = BTreeMap::new();
                pools.insert(
                    scenario.pool_of(d),
                    Pool {
                        capacity: scenario.pool_capacity,
                        free: scenario.pool_capacity,
                    },
                );
                let view = PeerView::new(GossipPlane::with_epoch(&name, 1), true);
                (view.gossip()).refresh_local(&pools.keys().cloned().collect::<Vec<_>>());
                let mut sorted = peers[d].clone();
                sorted.sort_unstable();
                sorted.dedup();
                Domain {
                    arch: scenario.arch_of(d).to_string(),
                    name,
                    up: Cell::new(true),
                    view: RefCell::new(view),
                    pools: RefCell::new(pools),
                    peers: sorted,
                    restarts: Cell::new(0),
                    grants: Cell::new(0),
                    renames: Cell::new(0),
                }
            })
            .collect();
        let name_of = domains
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name.clone(), i))
            .collect();
        let requests = plan
            .iter()
            .map(|_| ReqState {
                settled: false,
                vanished: false,
                leases: Vec::new(),
                waiting: Vec::new(),
                outcome: None,
                hops: Vec::new(),
            })
            .collect();
        let budgets = scenario
            .workloads
            .iter()
            .map(|w| match w {
                WorkloadSpec::Burst { budget, .. } => *budget,
                _ => u32::MAX,
            })
            .collect();
        World {
            plan,
            domains,
            links,
            link_of,
            partition: Cell::new(None),
            cuts: RefCell::new(Vec::new()),
            latency: JitteredLatency::new(
                SimDuration::from_micros((scenario.link_latency_ms * 1_000.0) as u64),
                SimDuration::from_micros((scenario.link_jitter_ms * 1_000.0) as u64),
                scenario.link_bandwidth_mb_s,
            ),
            rng: RefCell::new(Rng::new(scenario.seed ^ 0x000c_4a05)),
            now: Cell::new(SimTime::ZERO),
            log: RefCell::new(EventLog::new()),
            checker: RefCell::new(Checker::new()),
            ledger: RefCell::new(LeaseLedger::new()),
            requests: RefCell::new(requests),
            budgets: RefCell::new(budgets),
            metrics: RefCell::new(SimMetrics::default()),
            name_of,
            scenario,
        }
    }

    fn log(&self, message: impl AsRef<str>) {
        self.log.borrow_mut().push(self.now.get(), message);
    }

    /// Whether `a` and `b` can currently talk: both up, a direct link
    /// exists, the link is administratively up, and no partition cuts it.
    /// An up domain can talk to itself.
    fn link_up(&self, a: usize, b: usize) -> bool {
        if !self.domains[a].up.get() || !self.domains[b].up.get() {
            return false;
        }
        let Some(&idx) = self.link_of.get(&(a.min(b), a.max(b))) else {
            return a == b;
        };
        if !self.links[idx].get() {
            return false;
        }
        match self.partition.get() {
            Some(split) => (a < split) == (b < split),
            None => true,
        }
    }

    /// Whether the link between `a` and `b` held since `since` — up now,
    /// and not cut meanwhile by a kill, a link fault or a partition — or,
    /// for `a == b`, whether `a` lived through it.
    fn held(&self, a: usize, b: usize, since: SimTime) -> bool {
        let cuts = self.cuts.borrow();
        let mut recent = cuts.iter().rev().take_while(|(at, _)| *at >= since);
        self.link_up(a, b)
            && !recent.any(|(_, cut)| match *cut {
                Cut::Domain(k) => k == a || k == b,
                Cut::Link(x, y) => (x, y) == (a.min(b), a.max(b)),
                Cut::Partition(split) => (a < split) != (b < split),
            })
    }

    fn cut(&self, cut: Cut) {
        self.cuts.borrow_mut().push((self.now.get(), cut));
    }

    /// One sampled one-way trip for a frame of `bytes`.
    fn trip(&self, bytes: usize) -> SimDuration {
        self.latency.sample(&mut self.rng.borrow_mut(), bytes)
    }

    // -- event dispatch ----------------------------------------------------

    fn handle(&self, event: Ev, now: SimTime, queue: &mut EventQueue<Ev>) {
        match event {
            Ev::Fault(i) => self.apply_fault(i, queue),
            Ev::Submit(i) => self.submit(i, queue),
            Ev::Settle(i) => self.settle(i, now, queue),
            Ev::Release(i) => self.release(i),
            Ev::Tick(d) => self.tick(d, now, queue),
            Ev::Deltas {
                from,
                to,
                deltas,
                have,
            } => self.deliver_deltas(from, to, deltas, have, queue),
            Ev::Ack {
                from,
                to,
                reply,
                vector,
            } => self.deliver_ack(from, to, reply, vector),
            Ev::Land(i) => self.land(i, queue),
            Ev::Answer(i, reply) => self.answer(i, reply, queue),
        }
    }

    // -- gossip ------------------------------------------------------------

    fn tick(&self, d: usize, now: SimTime, queue: &mut EventQueue<Ev>) {
        let domain = &self.domains[d];
        if !domain.up.get() {
            return; // a restart re-arms the tick
        }
        let view = domain.view.borrow();
        view.gossip().refresh_local(&domain.live_pool_names());
        for &p in &domain.peers {
            if !self.link_up(d, p) {
                continue;
            }
            let deltas = view.gossip().deltas_for_peer(&self.domains[p].name);
            let have = view.gossip().version_vector();
            let bytes = 64
                + deltas
                    .iter()
                    .map(|dl| 32 + dl.entries.len() * 24)
                    .sum::<usize>();
            self.metrics.borrow_mut().deltas_shipped += deltas.len() as u64;
            queue.schedule_at(
                now + self.trip(bytes),
                Ev::Deltas {
                    from: d,
                    to: p,
                    deltas,
                    have,
                },
            );
        }
        let next = now + SimDuration::from_millis(self.scenario.gossip_interval_ms.max(1));
        if next <= at_ms(self.scenario.duration_ms) {
            queue.schedule_at(next, Ev::Tick(d));
        }
    }

    fn deliver_deltas(
        &self,
        from: usize,
        to: usize,
        deltas: Vec<AdvertDelta>,
        have: Vec<AdvertVersion>,
        queue: &mut EventQueue<Ev>,
    ) {
        if !self.link_up(from, to) {
            if !deltas.is_empty() {
                self.log(format!(
                    "gossip-drop {} -> {}: {} deltas lost with the link",
                    self.domains[from].name,
                    self.domains[to].name,
                    deltas.len()
                ));
            }
            return;
        }
        let receiver = &self.domains[to];
        (receiver.view.borrow().gossip()).refresh_local(&receiver.live_pool_names());
        let reply = self.fold(to, from, |view, sender| {
            view.handle_advert_delta(sender, &deltas, &have)
        });
        self.metrics.borrow_mut().gossip_exchanges += 1;
        let bytes = 64
            + reply
                .iter()
                .map(|dl| 32 + dl.entries.len() * 24)
                .sum::<usize>();
        self.metrics.borrow_mut().deltas_shipped += reply.len() as u64;
        queue.schedule_at(
            self.now.get() + self.trip(bytes),
            Ev::Ack {
                from: to,
                to: from,
                reply,
                vector: have,
            },
        );
    }

    fn deliver_ack(
        &self,
        from: usize,
        to: usize,
        reply: Vec<AdvertDelta>,
        vector: Vec<AdvertVersion>,
    ) {
        if !self.link_up(from, to) {
            return; // the next push's fresh `have` corrects the acked state
        }
        self.fold(to, from, |view, sender| {
            view.handle_advert_ack(sender, vector, &reply)
        });
    }

    /// Runs `fold` of a frame from `from` on `to`'s view, and logs the
    /// view's directory generation when the frame moved it.
    fn fold<R>(&self, to: usize, from: usize, fold: impl FnOnce(&PeerView, &str) -> R) -> R {
        let (view, via) = (self.domains[to].view.borrow(), &self.domains[from].name);
        let before = view.directory().generation();
        let folded = fold(&view, via);
        let generation = view.directory().generation();
        if generation != before {
            let at = &self.domains[to].name;
            self.log(format!("gossip {at} <- {via}: directory at {generation}"));
        }
        folded
    }

    // -- delegation --------------------------------------------------------

    /// A query reaches domain `d` — submitted there, or delegated with
    /// `state` — and `d`'s step of the chain starts from its own outcome.
    fn arrive(&self, req: usize, d: usize, state: RoutingState, queue: &mut EventQueue<Ev>) {
        let pool = format!("arch,==/{}", self.plan[req].arch);
        let local = self.local_try(req, d, &pool);
        let domain = &self.domains[d];
        let step = Chain::start(&domain.name, state, local, |_| {
            let peers: Vec<String> = (domain.peers.iter())
                .map(|&p| self.domains[p].name.clone())
                .collect();
            let order = domain
                .view
                .borrow()
                .candidates(std::slice::from_ref(&pool), &peers);
            let label = format!("candidates at {}", domain.name);
            self.checker
                .borrow_mut()
                .check_reorder(&label, &peers, &order);
            order
        });
        self.follow(req, d, step, queue);
    }

    /// Does what `d`'s chain step asks next: sends a `Delegate`, or ends
    /// the step, answering whoever delegated to `d` or, at the entry
    /// domain, the client.
    fn follow(&self, req: usize, d: usize, step: Step, queue: &mut EventQueue<Ev>) {
        let now = self.now.get();
        let (chain, to) = match step {
            Step::Delegate(chain, to) => (chain, self.name_of[&to]),
            Step::Done(outcome, state) => {
                if self.requests.borrow()[req].waiting.is_empty() {
                    return self.conclude(req, outcome, state, queue);
                }
                let back = now + self.trip(256);
                return queue.schedule_at(back, Ev::Answer(req, Ok((outcome, state))));
            }
        };
        let mut requests = self.requests.borrow_mut();
        let (at, sent, mark) = (d, now, requests[req].hops.len());
        (requests[req].waiting).push(Waiting {
            at,
            to,
            chain,
            sent,
            mark,
        });
        match self.link_up(d, to) {
            true => queue.schedule_at(now + self.trip(256), Ev::Land(req)),
            false => queue.schedule_at(now + DEAD_DIAL_COST, Ev::Answer(req, lost())),
        }
    }

    /// A `Delegate` lands: the receiver's step starts, unless the link was
    /// cut in flight, which fails the sender's step.
    fn land(&self, req: usize, queue: &mut EventQueue<Ev>) {
        let (at, to, sent, state) = {
            let requests = self.requests.borrow();
            let top = requests[req].waiting.last().expect("a delegate in flight");
            (top.at, top.to, top.sent, top.chain.state().clone())
        };
        match self.held(at, to, sent) {
            true => self.arrive(req, to, state, queue),
            false => self.answer(req, lost(), queue),
        }
    }

    /// An answer lands at the step that waits for it — or, lost with its
    /// link, fails it; a step whose domain died meanwhile is gone, and the
    /// step that waits on that domain fails in turn.
    fn answer(&self, req: usize, mut reply: Reply, queue: &mut EventQueue<Ev>) {
        loop {
            let popped = self.requests.borrow_mut()[req].waiting.pop();
            let Some(waiting) = popped else {
                return self.teardown(req, "entry died");
            };
            let (at, to) = (waiting.at, waiting.to);
            let (at_name, to_name) = (&self.domains[at].name, &self.domains[to].name);
            if !self.held(at, to, waiting.sent) {
                if matches!(reply, Ok((Ok(_), _))) {
                    let lost = format!("{to_name} -> {at_name} lost: leases handed back");
                    self.log(format!("answer req-{req:05} {lost}"));
                    self.free_reclaimed_capacity(req);
                }
                reply = lost();
                self.requests.borrow_mut()[req].hops.truncate(waiting.mark);
                if !self.held(at, at, waiting.sent) {
                    continue;
                }
            }
            let view = self.domains[at].view.borrow();
            match &reply {
                Ok((outcome, downstream)) => {
                    if let Ok(allocations) = outcome {
                        view.learn_routes(to_name, allocations);
                    }
                    self.requests.borrow_mut()[req].hops.push(Hop {
                        from: at_name.clone(),
                        to: to_name.clone(),
                        ttl_before: waiting.chain.state().ttl,
                        ttl_after: downstream.ttl,
                    });
                }
                Err(_) => {
                    self.log(format!("peer-failed {to_name} noticed by {at_name}"));
                    view.prune(to_name);
                }
            }
            drop(view);
            let step = waiting.chain.on_reply(to_name, reply);
            return self.follow(req, at, step, queue);
        }
    }

    /// The entry domain's chain ended: checks it, and the outcome reaches
    /// the client after the local processing cost.
    fn conclude(
        &self,
        i: usize,
        outcome: QueryOutcome,
        state: RoutingState,
        queue: &mut EventQueue<Ev>,
    ) {
        let (label, ttl) = (format!("req-{i:05}"), self.scenario.ttl);
        let requests = self.requests.borrow();
        (self.checker.borrow_mut()).check_chain(&label, ttl, &requests[i].hops, &state);
        let n = requests[i].hops.len() as u64;
        drop(requests);
        let mut metrics = self.metrics.borrow_mut();
        metrics.hops += n;
        metrics.max_chain_hops = metrics.max_chain_hops.max(n);
        drop(metrics);
        let summary = match &outcome {
            Ok(allocations) => Ok(format!(
                "granted by {} (pool {})",
                allocations[0].machine_name, allocations[0].pool
            )),
            Err(e) => {
                self.budget(i, 1);
                Err(format!("{e}"))
            }
        };
        self.requests.borrow_mut()[i].outcome = Some(summary);
        queue.schedule_at(self.now.get() + LOCAL_COST, Ev::Settle(i));
    }

    /// One local allocation attempt at domain `d` for request `req`.
    fn local_try(&self, req: usize, d: usize, pool: &str) -> QueryOutcome {
        let domain = &self.domains[d];
        let mut pools = domain.pools.borrow_mut();
        let Some(entry) = pools.get_mut(pool) else {
            return Err(AllocationError::NoSuchResources);
        };
        if entry.free == 0 {
            return Err(AllocationError::NoneAvailable);
        }
        entry.free -= 1;
        let grant = domain.grants.get() + 1;
        domain.grants.set(grant);
        let origin_name = self.domains[self.plan[req].origin].name.clone();
        let key = SessionKey::derive(RequestId(req as u64), d as u32, grant);
        let lease = self.ledger.borrow_mut().grant(
            key.to_string(),
            domain.name.clone(),
            origin_name,
            pool.to_string(),
        );
        self.requests.borrow_mut()[req].leases.push(lease);
        self.metrics.borrow_mut().leases_granted += 1;
        Ok(vec![Allocation {
            request: RequestId(req as u64),
            machine: MachineId(d as u64 * 100_000 + grant),
            machine_name: format!("{}-{}-m{grant:04}", domain.name, domain.arch),
            execution_port: 7070,
            mount_port: 7071,
            shadow_uid: None,
            access_key: key,
            pool: pool.to_string(),
            pool_instance: d as u32,
            examined: 1,
        }])
    }

    // -- workload ----------------------------------------------------------

    fn submit(&self, i: usize, queue: &mut EventQueue<Ev>) {
        let sub = &self.plan[i];
        let origin = &self.domains[sub.origin];
        self.metrics.borrow_mut().submitted += 1;
        let label = format!("req-{i:05}");
        if self.budgets.borrow()[sub.workload] == 0 {
            self.log(format!("submit {label} at {}: budget refused", origin.name));
            self.metrics.borrow_mut().budget_refusals += 1;
            self.requests.borrow_mut()[i].settled = true;
            return;
        }
        if !origin.up.get() {
            self.log(format!(
                "submit {label} at {}: entry domain dead",
                origin.name
            ));
            self.metrics.borrow_mut().settled_err += 1;
            self.requests.borrow_mut()[i].settled = true;
            return;
        }
        self.log(format!(
            "submit {label} at {} arch={}",
            origin.name, sub.arch
        ));
        self.budget(i, -1);
        let state = RoutingState::new(self.scenario.ttl);
        self.arrive(i, sub.origin, state, queue);
    }

    fn settle(&self, i: usize, now: SimTime, queue: &mut EventQueue<Ev>) {
        let sub = &self.plan[i];
        let label = format!("req-{i:05}");
        let (vanished, outcome, hops) = {
            let mut requests = self.requests.borrow_mut();
            requests[i].settled = true;
            (
                requests[i].vanished,
                requests[i].outcome.clone(),
                requests[i].hops.len(),
            )
        };
        if vanished {
            return self.teardown(i, "client vanished");
        }
        if !self.domains[sub.origin].up.get() {
            return self.teardown(i, "entry died");
        }
        let elapsed_ms = (now.as_nanos() - at_ms(sub.at_ms).as_nanos()) / 1_000_000;
        match outcome {
            Some(Ok(desc)) => {
                self.log(format!(
                    "settle {label}: ok, {desc}, hops={hops}, {elapsed_ms}ms"
                ));
                self.metrics.borrow_mut().settled_ok += 1;
                queue.schedule_at(now + SimDuration::from_millis(sub.hold_ms), Ev::Release(i));
            }
            Some(Err(desc)) => {
                self.log(format!(
                    "settle {label}: err `{desc}`, hops={hops}, {elapsed_ms}ms"
                ));
                self.metrics.borrow_mut().settled_err += 1;
            }
            None => {
                // Unreachable by construction: every chain stores an
                // outcome before scheduling its settle.
                self.checker
                    .borrow_mut()
                    .violation(format!("{label} settled without an outcome"));
            }
        }
        if sub.deadline_ms.is_some_and(|d| elapsed_ms > d) {
            self.log(format!("deadline-miss {label}: {elapsed_ms}ms"));
            self.metrics.borrow_mut().deadline_misses += 1;
        }
    }

    /// The client (or its entry daemon) is gone: the request is settled by
    /// session teardown, which reclaims every lease it still held.
    fn teardown(&self, i: usize, why: &str) {
        if self.requests.borrow()[i].outcome.is_none() {
            self.budget(i, 1); // torn down before its chain ended
        }
        self.requests.borrow_mut()[i].settled = true;
        self.log(format!("settle req-{i:05}: torn down ({why})"));
        self.metrics.borrow_mut().settled_teardown += 1;
        self.free_reclaimed_capacity(i);
    }

    /// Moves the budget of `plan[i]`'s sweep: a budgeted job reserves one
    /// allocation when it is submitted (`-1`), so chains in flight cannot
    /// overdraw it, and hands it back (`1`) if it ends without one.
    fn budget(&self, i: usize, by: i64) {
        let sub = &self.plan[i];
        if sub.deadline_ms.is_some() {
            let budget = &mut self.budgets.borrow_mut()[sub.workload];
            *budget = (i64::from(*budget) + by) as u32;
        }
    }

    fn release(&self, i: usize) {
        let label = format!("req-{i:05}");
        let (vanished, leases) = {
            let requests = self.requests.borrow();
            (requests[i].vanished, requests[i].leases.clone())
        };
        if vanished {
            return; // teardown already reclaimed everything
        }
        let mut released = 0;
        for lease in leases {
            let (state, grantor, pool) = {
                let ledger = self.ledger.borrow();
                let l = &ledger.leases()[lease];
                (l.state, l.grantor.clone(), l.pool.clone())
            };
            if state == LeaseState::Held {
                self.give_back_capacity(&grantor, &pool);
                released += 1;
            }
            let mut checker = self.checker.borrow_mut();
            self.ledger.borrow_mut().release(lease, &mut checker);
        }
        if released > 0 {
            self.log(format!("release {label}: {released} leases"));
        }
    }

    /// Returns a lease's slot to its pool, if the grantor still hosts it.
    fn give_back_capacity(&self, grantor: &str, pool: &str) {
        let Some(&d) = self.name_of.get(grantor) else {
            return;
        };
        let mut pools = self.domains[d].pools.borrow_mut();
        if let Some(entry) = pools.get_mut(pool) {
            entry.free = (entry.free + 1).min(entry.capacity);
        }
    }

    /// After a teardown settle, any lease the dead session held at a
    /// *living* grantor frees its slot (the grantor tears the session's
    /// allocations down itself).
    fn free_reclaimed_capacity(&self, i: usize) {
        let leases = self.requests.borrow()[i].leases.clone();
        for lease in leases {
            let (state, key, grantor, pool) = {
                let ledger = self.ledger.borrow();
                let l = &ledger.leases()[lease];
                (l.state, l.key.clone(), l.grantor.clone(), l.pool.clone())
            };
            if state == LeaseState::Held {
                if let Some(&d) = self.name_of.get(&grantor) {
                    if self.domains[d].up.get() {
                        self.give_back_capacity(&grantor, &pool);
                    }
                }
                self.ledger.borrow_mut().reclaim_where(|l| l.key == key);
            }
        }
    }

    // -- faults ------------------------------------------------------------

    fn apply_fault(&self, i: usize, queue: &mut EventQueue<Ev>) {
        let fault = &self.scenario.faults[i].fault;
        match fault {
            Fault::Kill(k) => self.kill(*k),
            Fault::Restart(k) => self.restart(*k, queue),
            Fault::Partition(split) => {
                self.log(format!("fault: partition at split {split}"));
                self.partition.set(Some(*split));
                self.cut(Cut::Partition(*split));
            }
            Fault::Heal => {
                self.log("fault: partition healed");
                self.partition.set(None);
            }
            Fault::LinkDown(a, b) => self.set_link(*a, *b, false),
            Fault::LinkUp(a, b) => self.set_link(*a, *b, true),
            Fault::RetirePools(k, n) => self.retire_pools(*k, *n, false),
            Fault::RenamePools(k, n) => self.retire_pools(*k, *n, true),
            Fault::VanishClients(pct) => self.vanish_clients(*pct),
        }
    }

    fn kill(&self, k: usize) {
        let domain = &self.domains[k];
        self.log(format!("fault: kill {}", domain.name));
        domain.up.set(false);
        self.cut(Cut::Domain(k));
        // Every session at the dead daemon dies: allocations it granted
        // are freed locally...
        for pool in domain.pools.borrow_mut().values_mut() {
            pool.free = pool.capacity;
        }
        // ...leases it granted are gone, and leases its *clients* held at
        // living grantors are torn down by the peer sessions dropping.
        let name = domain.name.clone();
        let to_free: Vec<(String, String)> = self
            .ledger
            .borrow()
            .leases()
            .iter()
            .filter(|l| l.state == LeaseState::Held && l.grantor != name && l.origin == name)
            .map(|l| (l.grantor.clone(), l.pool.clone()))
            .collect();
        for (grantor, pool) in to_free {
            self.give_back_capacity(&grantor, &pool);
        }
        let reclaimed = self
            .ledger
            .borrow_mut()
            .reclaim_where(|l| l.grantor == name || l.origin == name);
        if reclaimed > 0 {
            self.log(format!(
                "teardown: {reclaimed} leases reclaimed with {name}"
            ));
        }
    }

    fn restart(&self, k: usize, queue: &mut EventQueue<Ev>) {
        let domain = &self.domains[k];
        self.log(format!("fault: restart {}", domain.name));
        domain.up.set(true);
        domain.restarts.set(domain.restarts.get() + 1);
        let epoch = 1 + domain.restarts.get();
        let view = PeerView::new(GossipPlane::with_epoch(&domain.name, epoch), true);
        view.gossip().refresh_local(&domain.live_pool_names());
        *domain.view.borrow_mut() = view;
        queue.schedule_at(
            self.now.get() + SimDuration::from_millis(self.scenario.gossip_interval_ms.max(1)),
            Ev::Tick(k),
        );
    }

    fn set_link(&self, a: usize, b: usize, up: bool) {
        let state = if up { "up" } else { "down" };
        self.log(format!(
            "fault: link {} <-> {} {state}",
            self.domains[a].name, self.domains[b].name
        ));
        if let Some(&idx) = self.link_of.get(&(a.min(b), a.max(b))) {
            self.links[idx].set(up);
        }
        if !up {
            self.cut(Cut::Link(a.min(b), a.max(b)));
        }
    }

    fn retire_pools(&self, k: usize, n: usize, rename: bool) {
        let domain = &self.domains[k];
        let victims: Vec<String> = domain.pools.borrow().keys().take(n).cloned().collect();
        for pool in victims {
            let mut pools = domain.pools.borrow_mut();
            let old = pools.remove(&pool).expect("pool existed");
            self.checker.borrow_mut().note_retired(&domain.name, &pool);
            if rename {
                let generation = domain.renames.get() + 1;
                domain.renames.set(generation);
                let successor = format!("{pool}+v{generation}");
                self.log(format!(
                    "fault: {} renames pool {pool} -> {successor}",
                    domain.name
                ));
                pools.insert(
                    successor,
                    Pool {
                        capacity: old.capacity,
                        free: old.capacity,
                    },
                );
            } else {
                self.log(format!("fault: {} retires pool {pool}", domain.name));
            }
        }
        // The next tick's refresh advertises the death (and any successor).
    }

    fn vanish_clients(&self, pct: u8) {
        let p = f64::from(pct) / 100.0;
        self.log(format!("fault: {pct}% of clients vanish"));
        let count = self.requests.borrow().len();
        let mut vanished = 0;
        for i in 0..count {
            let eligible = {
                let requests = self.requests.borrow();
                let r = &requests[i];
                let has_held = r
                    .leases
                    .iter()
                    .any(|&l| self.ledger.borrow().leases()[l].state == LeaseState::Held);
                !r.vanished && (has_held || !r.settled)
            };
            if !eligible || !self.rng.borrow_mut().chance(p) {
                continue;
            }
            self.requests.borrow_mut()[i].vanished = true;
            vanished += 1;
            let already_settled = self.requests.borrow()[i].settled;
            if already_settled {
                // A settled client vanishing strands nothing: its session
                // teardown reclaims every lease it still held.
                self.log(format!("vanish req-{i:05}: teardown reclaims its leases"));
                self.free_reclaimed_capacity(i);
            }
            // An unsettled one is handled when its settle event fires.
        }
        self.metrics.borrow_mut().vanished_clients += vanished;
    }

    // -- final checks ------------------------------------------------------

    /// Domains reachable from `from` over currently-up links.
    fn reachable(&self, from: usize) -> BTreeSet<usize> {
        let mut seen = BTreeSet::new();
        let mut frontier = VecDeque::new();
        if self.domains[from].up.get() {
            seen.insert(from);
            frontier.push_back(from);
        }
        while let Some(d) = frontier.pop_front() {
            for &p in &self.domains[d].peers {
                if !seen.contains(&p) && self.link_up(d, p) {
                    seen.insert(p);
                    frontier.push_back(p);
                }
            }
        }
        seen
    }

    fn finish(self) -> SimReport {
        {
            let mut checker = self.checker.borrow_mut();
            for (i, r) in self.requests.borrow().iter().enumerate() {
                if !r.settled {
                    checker.violation(format!("ticket lost: req-{i:05} never settled"));
                }
            }
            self.ledger.borrow().final_check(&mut checker);
        }

        // Gossip convergence: every up domain's view of every up,
        // reachable origin matches that origin's actual live pools — and
        // nothing retired was resurrected along the way.
        for o in 0..self.domains.len() {
            if !self.domains[o].up.get() {
                continue;
            }
            let reachable = self.reachable(o);
            for &g in &reachable {
                if g == o {
                    continue;
                }
                let observed =
                    (self.domains[o].view.borrow().gossip()).live_pools(&self.domains[g].name);
                let actual = self.domains[g].live_pool_names();
                self.checker.borrow_mut().check_converged_view(
                    &self.domains[o].name,
                    &self.domains[g].name,
                    &observed,
                    &actual,
                );
            }
        }

        let checker = self.checker.into_inner();
        let ledger = self.ledger.into_inner();
        let mut metrics = self.metrics.into_inner();
        metrics.leases_released = ledger.count(LeaseState::Released) as u64;
        metrics.leases_reclaimed = ledger.count(LeaseState::Reclaimed) as u64;
        for d in &self.domains {
            let view = d.view.borrow();
            metrics.route_hits += view.route_cache().hits();
            metrics.route_misses += view.route_cache().misses();
        }
        let mut log = self.log.into_inner();
        log.push(
            self.now.get(),
            format!(
                "end: {} submitted, {} ok, {} err, {} teardown, {} budget-refused, \
                 {} deadline-miss, {} hops, {} exchanges, {} leases ({} released, {} reclaimed)",
                metrics.submitted,
                metrics.settled_ok,
                metrics.settled_err,
                metrics.settled_teardown,
                metrics.budget_refusals,
                metrics.deadline_misses,
                metrics.hops,
                metrics.gossip_exchanges,
                metrics.leases_granted,
                metrics.leases_released,
                metrics.leases_reclaimed,
            ),
        );
        SimReport {
            scenario: self.scenario.name.clone(),
            seed: self.scenario.seed,
            metrics,
            violations: checker.violations().to_vec(),
            log,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

    #[test]
    fn the_trio_scenario_passes_and_reproduces() {
        let s = scenario::trio_flap();
        let a = run_sim(&s).expect("runs");
        assert!(a.passed(), "violations: {:?}", a.violations);
        assert!(a.metrics.settled_ok > 0, "some requests succeed");
        let b = run_sim(&s).expect("runs");
        assert_eq!(a.digest(), b.digest(), "same seed, same run");
        assert_eq!(a.log.render(), b.log.render());
    }

    #[test]
    fn a_different_seed_is_a_different_run() {
        let mut s = scenario::trio_flap();
        let a = run_sim(&s).expect("runs");
        s.seed = 999;
        let b = run_sim(&s).expect("runs");
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn killed_domains_strand_no_leases() {
        let s = scenario::trio_flap();
        let report = run_sim(&s).expect("runs");
        assert!(report.passed(), "violations: {:?}", report.violations);
        // The kill reclaims something in this scenario.
        assert!(report.metrics.leases_granted > 0);
        assert_eq!(
            report.metrics.leases_granted,
            report.metrics.leases_released + report.metrics.leases_reclaimed
        );
    }

    /// One `hp` query entering at `d0` of the line `d0 - d1 - d2`, which
    /// only `d2` satisfies, with 5 ms links: its `Delegate` reaches `d1` at
    /// ~105 ms and `d2` at ~110 ms, whose answer is back at `d1` at
    /// ~115 ms and at `d0` at ~120 ms — with `faults` striking meanwhile.
    fn line_run(faults: Vec<Fault>) -> SimReport {
        let scenario = Scenario {
            name: "line".to_string(),
            seed: 1,
            domains: 3,
            topology: crate::scenario::Topology::Line,
            archs: vec!["sun".to_string(), "sun".to_string(), "hp".to_string()],
            ttl: 4,
            pool_capacity: 2,
            gossip_interval_ms: 1_000,
            probe_interval_ms: 1_000,
            link_latency_ms: 5.0,
            link_jitter_ms: 0.0,
            link_bandwidth_mb_s: 10.0,
            duration_ms: 2_000,
            faults: (faults.into_iter())
                .map(|fault| crate::scenario::FaultSpec { at_ms: 112, fault })
                .collect(),
            // The replayed plan's one component (its own plan is empty).
            workloads: vec![WorkloadSpec::Hotspot {
                at_ms: 0,
                clients: 0,
                window_ms: 1,
                arch: "hp".to_string(),
                hold_ms: 50,
            }],
        };
        let submission = PlannedSubmission {
            at_ms: 100,
            origin: 0,
            arch: "hp".to_string(),
            hold_ms: 50,
            workload: 0,
            deadline_ms: None,
        };
        let report = replay(&scenario, vec![submission]);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.metrics.leases_granted, 1, "d2 granted");
        report
    }

    #[test]
    fn an_answer_walks_back_hop_by_hop() {
        let report = line_run(Vec::new());
        assert_eq!(report.metrics.settled_ok, 1);
        assert_eq!(report.metrics.hops, 2);
        assert_eq!(report.metrics.leases_released, 1);
    }

    /// The link `d1 - d2` goes down while `d2`'s answer crosses it: the
    /// lease goes back to `d2`, and `d1`'s step fails as transport, prunes
    /// `d2` and, with no candidate left, fails the query.
    #[test]
    fn an_answer_over_a_cut_link_hands_its_lease_back() {
        let report = line_run(vec![Fault::LinkDown(1, 2)]);
        assert_eq!(report.metrics.settled_err, 1, "{}", report.log.render());
        assert_eq!(report.metrics.leases_reclaimed, 1);
        let log = report.log.render();
        assert!(log.contains("answer req-00000 d002 -> d001 lost"), "{log}");
        assert!(log.contains("peer-failed d002 noticed by d001"), "{log}");
    }

    /// `d1` dies, and comes back, while its chain waits on `d2`: the
    /// answer finds no step to take it, the lease goes back, and `d0`'s
    /// step fails as transport — the restart revives no chain.
    #[test]
    fn an_answer_to_a_domain_that_died_fails_the_step_before_it() {
        let mut faults = vec![Fault::Kill(1), Fault::Restart(1)];
        let report = line_run(faults.clone());
        assert_eq!(report.metrics.settled_err, 1, "{}", report.log.render());
        assert_eq!(report.metrics.leases_reclaimed, 1);
        assert!(report
            .log
            .render()
            .contains("peer-failed d001 noticed by d000"));
        // The entry domain dying instead settles the request by teardown.
        faults = vec![Fault::Kill(0)];
        let report = line_run(faults);
        assert_eq!(
            report.metrics.settled_teardown,
            1,
            "{}",
            report.log.render()
        );
        assert_eq!(report.metrics.leases_reclaimed, 1);
    }
}
