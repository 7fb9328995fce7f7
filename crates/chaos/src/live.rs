//! The live-fleet executor: the same scenario specs, real daemons.
//!
//! Where [`crate::sim`] wires the federation logic onto a simulated
//! network, this executor stands the scenario's topology up as a fleet of
//! *real* `ypd` daemons — in-process ([`LiveMode::InProcess`], the
//! default, used by tests) or external binaries ([`LiveMode::External`],
//! used by the CI soak) — and replays the identical submission plan
//! against them over real sockets on scaled wall-clock time.
//!
//! Clients are what they are in production: long-lived sessions.  Each
//! entry domain gets one client connection that submits, holds and
//! releases allocations; a *vanishing* client is a connection dropped
//! with leases still held, which the daemon's session teardown must
//! reclaim.  A *killed* daemon takes its sessions (and every lease they
//! held) with it.
//!
//! Wall-clock runs cannot promise byte-identical logs — that is the
//! simulator's job.  What the live run checks is the same invariant
//! vocabulary where it is observable from outside: every ticket settles,
//! releases only fail when a fault explains it, and after a daemon
//! restarts the fleet re-converges (queries for the restarted domain's
//! architecture succeed again through gossip alone).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use actyp_grid::{FleetSpec, SyntheticFleet};
use actyp_pipeline::{
    Allocation, AllocationError, BackendKind, FederationConfig, PipelineBuilder, RemoteBackend,
    ResourceManager, ServerHandle, StageAddress,
};
use actyp_simnet::Rng;

use crate::plan::{submission_plan, PlannedSubmission};
use crate::scenario::{Fault, Scenario};

/// How long one submission may take to settle before the harness calls
/// its ticket lost.
const SETTLE_DEADLINE: Duration = Duration::from_secs(10);

/// How long a daemon gets to accept connections after a (re)start.
const READY_DEADLINE: Duration = Duration::from_secs(10);

/// How the fleet's daemons are hosted.
#[derive(Debug, Clone)]
pub enum LiveMode {
    /// Daemons served from this process (the test path).
    InProcess,
    /// Daemons spawned as external `ypd` processes (the CI soak path).
    External {
        /// Path to the `ypd` binary.
        ypd: PathBuf,
    },
}

/// Knobs for a live run.
#[derive(Debug, Clone)]
pub struct LiveOptions {
    /// Daemon hosting mode.
    pub mode: LiveMode,
    /// Domain `i` listens on `base_port + i` (fixed, so peers and
    /// restarts find each other).
    pub base_port: u16,
    /// Multiplier from scenario milliseconds to wall-clock milliseconds.
    pub time_scale: f64,
}

impl LiveOptions {
    /// In-process fleet at the given base port, unscaled time.
    pub fn in_process(base_port: u16) -> Self {
        LiveOptions {
            mode: LiveMode::InProcess,
            base_port,
            time_scale: 1.0,
        }
    }

    /// External `ypd` fleet at the given base port, unscaled time.
    pub fn external(ypd: PathBuf, base_port: u16) -> Self {
        LiveOptions {
            mode: LiveMode::External { ypd },
            base_port,
            time_scale: 1.0,
        }
    }
}

/// The outcome of one live run.
#[derive(Debug)]
pub struct LiveReport {
    /// Scenario name.
    pub scenario: String,
    /// Submissions replayed.
    pub submitted: u64,
    /// Submissions that settled with an allocation.
    pub succeeded: u64,
    /// Submissions that settled with an error (a legitimate outcome
    /// under faults, not a violation).
    pub failed: u64,
    /// Allocations released by their clients.
    pub released: u64,
    /// Allocations torn down by kills or vanishing clients.
    pub reclaimed: u64,
    /// Clients that vanished.
    pub vanished: u64,
    /// Invariant violations (empty = the run passed).
    pub violations: Vec<String>,
    /// Wall-clock-stamped narrative of the run.
    pub events: Vec<String>,
}

impl LiveReport {
    /// Whether every observable invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// One daemon of the fleet.
enum Daemon {
    InProcess(ServerHandle),
    External(std::process::Child),
}

/// One allocation a client currently holds.
struct Held {
    /// Scenario time the client releases it.
    due_ms: u64,
    /// Entry domain whose client session holds it.
    entry: usize,
    allocation: Allocation,
}

struct LiveRun<'s> {
    scenario: &'s Scenario,
    options: &'s LiveOptions,
    daemons: Vec<Option<Daemon>>,
    clients: Vec<Option<RemoteBackend>>,
    held: Vec<Held>,
    started: Instant,
    kills: u64,
    report: LiveReport,
    /// `(scenario ms, domain)` of every restart, for the re-convergence
    /// check.
    restarts: Vec<(u64, usize)>,
    /// `(scenario ms, arch, succeeded)` per submission, ditto.
    outcomes: Vec<(u64, String, bool)>,
}

/// Runs a scenario against a real daemon fleet.
pub fn run_live(scenario: &Scenario, options: &LiveOptions) -> Result<LiveReport, String> {
    scenario.validate()?;
    if scenario.domains > 16 {
        return Err(format!(
            "live fleets are capped at 16 daemons ({} domains asked; use the simulator for scale)",
            scenario.domains
        ));
    }
    for spec in &scenario.faults {
        match spec.fault {
            Fault::Kill(_) | Fault::Restart(_) | Fault::VanishClients(_) => {}
            _ => {
                return Err(format!(
                    "the live executor drives kill/restart/vanish-clients faults; \
                     `{:?}` is simulator-only",
                    spec.fault
                ))
            }
        }
    }

    let mut run = LiveRun {
        scenario,
        options,
        daemons: (0..scenario.domains).map(|_| None).collect(),
        clients: (0..scenario.domains).map(|_| None).collect(),
        held: Vec::new(),
        started: Instant::now(),
        kills: 0,
        report: LiveReport {
            scenario: scenario.name.clone(),
            submitted: 0,
            succeeded: 0,
            failed: 0,
            released: 0,
            reclaimed: 0,
            vanished: 0,
            violations: Vec::new(),
            events: Vec::new(),
        },
        restarts: Vec::new(),
        outcomes: Vec::new(),
    };
    run.execute()?;
    Ok(run.report)
}

/// A fault sorts before a submission at the same instant, matching the
/// simulator's scheduling order.
enum Step {
    Fault(usize),
    Submit(usize),
}

impl LiveRun<'_> {
    fn execute(&mut self) -> Result<(), String> {
        for d in 0..self.scenario.domains {
            self.spawn(d)?;
        }
        self.event(format!(
            "fleet of {} daemons up on ports {}..={}",
            self.scenario.domains,
            self.options.base_port,
            self.options.base_port + (self.scenario.domains - 1) as u16
        ));

        let plan = submission_plan(self.scenario);
        let mut steps: Vec<(u64, Step)> = Vec::new();
        for (i, fault) in self.scenario.faults.iter().enumerate() {
            steps.push((fault.at_ms, Step::Fault(i)));
        }
        for (i, sub) in plan.iter().enumerate() {
            steps.push((sub.at_ms, Step::Submit(i)));
        }
        steps.sort_by_key(|(at, step)| (*at, matches!(step, Step::Submit(_)) as u8));

        let mut vanish_rng = Rng::new(self.scenario.seed ^ 0x11fe);
        for (at_ms, step) in steps {
            self.release_due(at_ms);
            self.sleep_until(at_ms);
            match step {
                Step::Fault(i) => {
                    let fault = self.scenario.faults[i].fault.clone();
                    self.apply_fault(at_ms, &fault, &mut vanish_rng)?;
                }
                Step::Submit(i) => self.submit(&plan[i]),
            }
        }

        self.release_due(u64::MAX);
        self.check_reconvergence();
        self.drain();
        Ok(())
    }

    // -- plumbing ----------------------------------------------------------

    fn event(&mut self, message: impl AsRef<str>) {
        self.report.events.push(format!(
            "[{:>8}ms] {}",
            self.started.elapsed().as_millis(),
            message.as_ref()
        ));
    }

    fn violation(&mut self, message: impl Into<String>) {
        let message = message.into();
        self.event(format!("VIOLATION: {message}"));
        self.report.violations.push(message);
    }

    fn addr_of(&self, d: usize) -> StageAddress {
        StageAddress::new("127.0.0.1", self.options.base_port + d as u16)
    }

    fn peers_of(&self, d: usize) -> Vec<StageAddress> {
        let mut peers: Vec<usize> = self
            .scenario
            .edges()
            .into_iter()
            .filter_map(|(a, b)| match () {
                _ if a == d => Some(b),
                _ if b == d => Some(a),
                _ => None,
            })
            .collect();
        peers.sort_unstable();
        peers.dedup();
        peers.into_iter().map(|p| self.addr_of(p)).collect()
    }

    fn sleep_until(&self, at_ms: u64) {
        let due = Duration::from_millis((at_ms as f64 * self.options.time_scale) as u64);
        let elapsed = self.started.elapsed();
        if due > elapsed {
            std::thread::sleep(due - elapsed);
        }
    }

    // -- fleet -------------------------------------------------------------

    fn spawn(&mut self, d: usize) -> Result<(), String> {
        let addr = self.addr_of(d);
        let peers = self.peers_of(d);
        let arch = self.scenario.arch_of(d).to_string();
        let machines = (self.scenario.pool_capacity as usize).max(2);
        let daemon = match &self.options.mode {
            LiveMode::InProcess => {
                let db = SyntheticFleet::new(
                    FleetSpec::homogeneous(machines, &arch, 512),
                    self.scenario.seed + d as u64,
                )
                .generate()
                .into_shared();
                let probe = if self.scenario.probe_interval_ms == 0 {
                    FederationConfig::default().probe_interval
                } else {
                    Duration::from_millis(self.scenario.probe_interval_ms)
                };
                let (handle, _backend) = PipelineBuilder::new()
                    .database(db)
                    .ttl(self.scenario.ttl)
                    .serve_federated(
                        &addr,
                        BackendKind::Embedded,
                        FederationConfig {
                            domain: self.scenario.domain_name(d),
                            ttl: self.scenario.ttl,
                            peers,
                            gossip_interval: Duration::from_millis(
                                self.scenario.gossip_interval_ms.max(1),
                            ),
                            route_cache: true,
                            probe_interval: probe,
                        },
                    )
                    .map_err(|e| format!("daemon {d} failed to start on {addr}: {e}"))?;
                Daemon::InProcess(handle)
            }
            LiveMode::External { ypd } => {
                let mut command = std::process::Command::new(ypd);
                command
                    .arg("--listen")
                    .arg(addr.to_string())
                    .arg("--domain")
                    .arg(self.scenario.domain_name(d))
                    .arg("--arch")
                    .arg(&arch)
                    .arg("--machines")
                    .arg(machines.to_string())
                    .arg("--seed")
                    .arg((self.scenario.seed + d as u64).to_string())
                    .arg("--ttl")
                    .arg(self.scenario.ttl.to_string())
                    .arg("--gossip-interval")
                    .arg(self.scenario.gossip_interval_ms.max(1).to_string());
                if self.scenario.probe_interval_ms > 0 {
                    command
                        .arg("--probe-interval")
                        .arg(self.scenario.probe_interval_ms.to_string());
                }
                for peer in &peers {
                    command.arg("--peer").arg(peer.to_string());
                }
                let child = command
                    .spawn()
                    .map_err(|e| format!("spawning ypd for daemon {d}: {e}"))?;
                Daemon::External(child)
            }
        };
        self.daemons[d] = Some(daemon);
        self.wait_ready(d)
    }

    /// Waits for a freshly (re)started daemon to accept connections.
    fn wait_ready(&mut self, d: usize) -> Result<(), String> {
        let addr = self.addr_of(d);
        let deadline = Instant::now() + READY_DEADLINE;
        loop {
            match std::net::TcpStream::connect((addr.host.as_str(), addr.port)) {
                Ok(_) => return Ok(()),
                Err(e) if Instant::now() >= deadline => {
                    return Err(format!("daemon {d} never became ready on {addr}: {e}"))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(25)),
            }
        }
    }

    /// The entry client for domain `d`, connecting (or reconnecting after
    /// a restart) on demand.
    fn client(&mut self, d: usize) -> Result<&RemoteBackend, String> {
        if self.clients[d].is_none() {
            let addr = self.addr_of(d);
            let backend = RemoteBackend::connect(&addr)
                .map_err(|e| format!("connecting a client to daemon {d} on {addr}: {e}"))?;
            self.clients[d] = Some(backend);
        }
        Ok(self.clients[d].as_ref().expect("just connected"))
    }

    // -- workload ----------------------------------------------------------

    fn submit(&mut self, sub: &PlannedSubmission) {
        self.report.submitted += 1;
        let query = format!("punch.rsrc.arch = {}\n", sub.arch);
        let label = format!(
            "req at {}ms via d{:03} for {}",
            sub.at_ms, sub.origin, sub.arch
        );
        let ticket = match self.client(sub.origin).and_then(|c| {
            c.submit_text(&query)
                .map_err(|e| format!("submit failed: {e}"))
        }) {
            Ok(ticket) => ticket,
            Err(reason) => {
                // An unreachable or dead entry daemon refuses the session:
                // the submission settles as a failure on the spot.
                self.event(format!("{label}: {reason}"));
                self.report.failed += 1;
                self.outcomes.push((sub.at_ms, sub.arch.clone(), false));
                // A broken connection must not poison later submissions.
                self.clients[sub.origin] = None;
                return;
            }
        };
        let outcome = self.clients[sub.origin]
            .as_ref()
            .expect("client connected above")
            .wait_deadline(ticket, SETTLE_DEADLINE);
        match outcome {
            None => {
                self.violation(format!("ticket lost: {label} never settled within 10s"));
                self.outcomes.push((sub.at_ms, sub.arch.clone(), false));
            }
            Some(Ok(allocations)) => {
                self.event(format!("{label}: granted {}", allocations[0].machine_name));
                self.report.succeeded += 1;
                self.outcomes.push((sub.at_ms, sub.arch.clone(), true));
                for allocation in allocations {
                    self.held.push(Held {
                        due_ms: sub.at_ms + sub.hold_ms,
                        entry: sub.origin,
                        allocation,
                    });
                }
            }
            Some(Err(e)) => {
                self.event(format!("{label}: refused ({e})"));
                self.report.failed += 1;
                self.outcomes.push((sub.at_ms, sub.arch.clone(), false));
                // A submission's reply is read only now, so this is where
                // a connection found broken is dropped, as above.
                if matches!(e, AllocationError::Network(_)) {
                    self.clients[sub.origin] = None;
                }
            }
        }
    }

    /// Releases every held allocation due by scenario time `at_ms`.
    fn release_due(&mut self, at_ms: u64) {
        let due: Vec<Held> = {
            let mut due = Vec::new();
            let mut keep = Vec::new();
            for held in self.held.drain(..) {
                if held.due_ms <= at_ms {
                    due.push(held);
                } else {
                    keep.push(held);
                }
            }
            self.held = keep;
            due
        };
        for held in due {
            self.release_one(held);
        }
    }

    fn release_one(&mut self, held: Held) {
        let result = match self.client(held.entry) {
            Ok(client) => client.release(&held.allocation).map_err(|e| e.to_string()),
            Err(e) => Err(e),
        };
        match result {
            Ok(()) => self.report.released += 1,
            Err(reason) if self.kills > 0 => {
                // A kill somewhere explains a dead grantor or a dropped
                // session: the daemon-side teardown owns the lease now.
                self.event(format!(
                    "release via d{:03} superseded by teardown ({reason})",
                    held.entry
                ));
                self.report.reclaimed += 1;
            }
            Err(reason) => {
                self.violation(format!(
                    "release of {} via d{:03} failed with no fault in flight: {reason}",
                    held.allocation.access_key, held.entry
                ));
            }
        }
    }

    // -- faults ------------------------------------------------------------

    fn apply_fault(&mut self, at_ms: u64, fault: &Fault, rng: &mut Rng) -> Result<(), String> {
        match fault {
            Fault::Kill(d) => {
                self.event(format!("fault: kill d{:03}", d));
                self.kills += 1;
                // The daemon's sessions die with it, leases and all.
                self.clients[*d] = None;
                let (dead, alive): (Vec<Held>, Vec<Held>) =
                    self.held.drain(..).partition(|h| h.entry == *d);
                self.report.reclaimed += dead.len() as u64;
                self.held = alive;
                match self.daemons[*d].take() {
                    Some(Daemon::InProcess(handle)) => {
                        handle.halt();
                        let _ = handle.join();
                    }
                    Some(Daemon::External(mut child)) => {
                        let _ = child.kill();
                        let _ = child.wait();
                    }
                    None => {}
                }
            }
            Fault::Restart(d) => {
                self.event(format!("fault: restart d{:03}", d));
                self.spawn(*d)?;
                self.restarts.push((at_ms, *d));
            }
            Fault::VanishClients(pct) => {
                self.event(format!("fault: {pct}% of clients vanish"));
                let p = f64::from(*pct) / 100.0;
                for d in 0..self.scenario.domains {
                    if self.clients[d].is_none() || !rng.chance(p) {
                        continue;
                    }
                    // Dropping the connection without releasing is the
                    // whole fault: session teardown must reclaim.
                    self.clients[d] = None;
                    let (dropped, kept): (Vec<Held>, Vec<Held>) =
                        self.held.drain(..).partition(|h| h.entry == d);
                    self.event(format!(
                        "client of d{d:03} vanished holding {} leases",
                        dropped.len()
                    ));
                    self.report.vanished += 1;
                    self.report.reclaimed += dropped.len() as u64;
                    self.held = kept;
                }
            }
            other => {
                return Err(format!(
                    "fault {other:?} reached the live executor unvalidated"
                ))
            }
        }
        Ok(())
    }

    // -- end-of-run checks -------------------------------------------------

    /// After a restart, the fleet must re-learn the restarted domain's
    /// pools through gossip: some later query for an architecture only
    /// that domain hosts has to succeed.  (Only checked for architectures
    /// hosted by exactly one domain — elsewhere a sibling could mask the
    /// outage.)
    fn check_reconvergence(&mut self) {
        let restarts = self.restarts.clone();
        for (restart_ms, d) in restarts {
            let arch = self.scenario.arch_of(d).to_string();
            let sole_host = (0..self.scenario.domains)
                .filter(|&o| self.scenario.arch_of(o) == arch)
                .count()
                == 1;
            if !sole_host {
                continue;
            }
            let settle_ms = restart_ms + 2 * self.scenario.gossip_interval_ms;
            let later: Vec<&(u64, String, bool)> = self
                .outcomes
                .iter()
                .filter(|(at, a, _)| *at >= settle_ms && *a == arch)
                .collect();
            if !later.is_empty() && !later.iter().any(|(_, _, ok)| *ok) {
                self.violation(format!(
                    "fleet never re-converged on {arch} after d{d:03} restarted: \
                     {} later queries, zero successes",
                    later.len()
                ));
            }
        }
    }

    fn drain(&mut self) {
        // Ask every daemon still up to drain, then shut the clients down.
        for d in 0..self.scenario.domains {
            if self.daemons[d].is_some() {
                if let Ok(client) = self.client(d) {
                    let _ = client.halt_daemon();
                }
            }
            if let Some(client) = self.clients[d].take() {
                let _ = client.shutdown();
            }
        }
        for d in 0..self.scenario.domains {
            match self.daemons[d].take() {
                Some(Daemon::InProcess(handle)) => {
                    if let Err(e) = handle.join() {
                        self.violation(format!("daemon d{d:03} did not drain cleanly: {e}"));
                    }
                }
                Some(Daemon::External(mut child)) => {
                    let deadline = Instant::now() + Duration::from_secs(10);
                    loop {
                        match child.try_wait() {
                            Ok(Some(status)) => {
                                if !status.success() {
                                    self.violation(format!(
                                        "daemon d{d:03} exited uncleanly: {status}"
                                    ));
                                }
                                break;
                            }
                            Ok(None) if Instant::now() >= deadline => {
                                let _ = child.kill();
                                let _ = child.wait();
                                self.violation(format!(
                                    "daemon d{d:03} ignored the drain for 10s and was killed"
                                ));
                                break;
                            }
                            Ok(None) => std::thread::sleep(Duration::from_millis(50)),
                            Err(e) => {
                                self.violation(format!("waiting on daemon d{d:03}: {e}"));
                                break;
                            }
                        }
                    }
                }
                None => {}
            }
        }
        let (submitted, succeeded, failed, released, reclaimed) = (
            self.report.submitted,
            self.report.succeeded,
            self.report.failed,
            self.report.released,
            self.report.reclaimed,
        );
        self.event(format!(
            "end: {submitted} submitted, {succeeded} ok, {failed} refused, \
             {released} released, {reclaimed} reclaimed"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

    #[test]
    fn scale_scenarios_are_rejected_with_a_pointer_at_the_simulator() {
        let s = scenario::wan_partition_stampede();
        let err = run_live(&s, &LiveOptions::in_process(39000)).unwrap_err();
        assert!(err.contains("simulator"), "{err}");
    }

    #[test]
    fn simulator_only_faults_are_rejected() {
        let mut s = scenario::trio_flap();
        s.faults.push(crate::scenario::FaultSpec {
            at_ms: 1,
            fault: Fault::Partition(1),
        });
        let err = run_live(&s, &LiveOptions::in_process(39100)).unwrap_err();
        assert!(err.contains("simulator-only"), "{err}");
    }
}
