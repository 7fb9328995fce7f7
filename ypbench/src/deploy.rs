//! Set-up and tear-down of the system under test: the real daemon(s),
//! self-hosted in this process on loopback, plus the client connections.
//!
//! A *set-up* is everything a front end waits for before its first
//! allocation: fleet generation, daemon start, connects, and one
//! first-touch query per pool so every pool exists.  `setup_s` times
//! exactly [`Deployment::start`].  All traffic crosses the host's loopback
//! interface, never a real link.

use std::sync::Arc;
use std::time::{Duration, Instant};

use actyp_grid::SharedDatabase;
use actyp_pipeline::api::ServerConfig;
use actyp_pipeline::{
    serve_with, BackendKind, FederatedBackend, FederationConfig, PipelineBuilder, RemoteBackend,
    ResourceManager, ServerHandle, SharedDirectory, StageAddress, StatsSnapshot,
};

use crate::affinity::Placement;
use crate::workload::{Fleet, MachineTable, Spec, CLIENTS};

/// Machines of the entry daemon in the federated workload.  None matches
/// any request, so every query is delegated.
const HOME_FLEET: Fleet = Fleet::Big { machines: 128 };

/// The in-flight window of the served Live backend: the `ypd` default,
/// raised only where the workload's own concurrency would otherwise sit
/// exactly on it.
fn window(spec: &Spec) -> usize {
    32.max(CLIENTS * spec.depth + 4)
}

fn loopback() -> StageAddress {
    StageAddress::new("127.0.0.1", 0)
}

fn pipeline(spec: &Spec, db: SharedDatabase) -> PipelineBuilder {
    PipelineBuilder::new().database(db).window(window(spec))
}

fn federation(domain: &str, peers: Vec<StageAddress>) -> FederationConfig {
    FederationConfig {
        domain: domain.to_string(),
        peers,
        // Timer-driven gossip and probes would put frames on the peer
        // link at moments unrelated to the load; deltas still piggyback
        // on the delegation traffic itself.
        gossip_interval: Duration::ZERO,
        probe_interval: Duration::ZERO,
        ..FederationConfig::default()
    }
}

/// Where the pools of a deployment live, for counting them and for
/// checking that every grant came back.
enum Pools {
    /// The entry daemon's own directory.
    Directory(SharedDirectory),
    /// A second daemon the entry daemon delegates to.
    Federated(Arc<FederatedBackend>),
}

/// A running system under test.
pub struct Deployment {
    /// One connection per load-generating client, to the entry daemon.
    pub clients: Vec<Arc<RemoteBackend>>,
    /// What every machine of the pool-owning daemon is (for the oracle).
    pub machines: Arc<MachineTable>,
    /// Seconds spent generating the fleet(s), a part of set-up.
    pub generate_s: f64,
    /// Pool instances after first touch; creations are counted from here.
    pub base_pools: usize,
    /// Entry daemon first; drained in this order.
    servers: Vec<ServerHandle>,
    pools: Pools,
}

impl Deployment {
    /// One complete set-up for `spec`.
    pub fn start(spec: &Spec, seed: u64, placement: &Placement) -> Result<Deployment, String> {
        Self::start_as(spec, seed, spec.federated, placement)
    }

    /// [`Deployment::start`] with the federation layer forced on or off:
    /// the ladder runs a federated workload's fleet behind a plain daemon
    /// as the rung beneath the federated one.  The daemon's threads start on
    /// the daemon's CPU and the connections' on the clients', where the
    /// calling thread is left.
    pub fn start_as(
        spec: &Spec,
        seed: u64,
        federated: bool,
        placement: &Placement,
    ) -> Result<Deployment, String> {
        let generating = Instant::now();
        let db = spec.fleet.generate(seed).into_shared();
        let home = federated.then(|| HOME_FLEET.generate(seed ^ 0x484f_4d45).into_shared());
        let generate_s = generating.elapsed().as_secs_f64();
        let machines = Arc::new(MachineTable::from_db(&db));

        placement.daemon()?;
        let (servers, pools) = match home {
            None => {
                // `PipelineBuilder::serve` with the directory handle kept:
                // an `Arc` of a manager is itself a manager.
                let live = Arc::new(
                    pipeline(spec, db)
                        .build_live()
                        .map_err(|e| format!("build live backend: {e}"))?,
                );
                let directory = live.pipeline().directory().clone();
                let server = serve_with(Box::new(live), &loopback(), ServerConfig::default())
                    .map_err(|e| format!("serve: {e}"))?;
                (vec![server], Pools::Directory(directory))
            }
            Some(home) => {
                let (far, far_backend) = pipeline(spec, db)
                    .serve_federated(&loopback(), BackendKind::Live, federation("b", Vec::new()))
                    .map_err(|e| format!("serve domain b: {e}"))?;
                let (entry, _) = pipeline(spec, home)
                    .serve_federated(
                        &loopback(),
                        BackendKind::Live,
                        federation("a", vec![far.local_addr()]),
                    )
                    .map_err(|e| format!("serve domain a: {e}"))?;
                (vec![entry, far], Pools::Federated(far_backend))
            }
        };

        placement.clients()?;
        let entry = servers[0].local_addr();
        let clients = (0..CLIENTS)
            .map(|_| RemoteBackend::connect(&entry).map(Arc::new))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;

        let mut deployment = Deployment {
            clients,
            machines,
            generate_s,
            base_pools: 0,
            servers,
            pools,
        };
        first_touch(deployment.clients[0].as_ref(), spec)?;
        deployment.base_pools = deployment.pool_instances();
        Ok(deployment)
    }

    /// Pool instances the pool-owning daemon currently hosts.
    pub fn pool_instances(&self) -> usize {
        match &self.pools {
            Pools::Directory(directory) => directory.instance_count(),
            Pools::Federated(backend) => backend.local_pools().len(),
        }
    }

    /// The entry daemon's counters, read over the wire like any client.
    pub fn stats(&self) -> StatsSnapshot {
        self.clients[0].stats()
    }

    /// Closes the clients, checks the books balance, and drains the
    /// daemon(s).  Every step runs; all problems are reported together.
    pub fn stop(self) -> Result<(), String> {
        let mut problems = Vec::new();
        // The pools' owner must have had every grant handed back.
        let owner = match &self.pools {
            Pools::Federated(target) => target.stats(),
            Pools::Directory(_) => self.stats(),
        };
        if owner.allocations != owner.releases || owner.in_flight != 0 {
            problems.push(format!(
                "books do not balance: {} allocations, {} releases, {} in flight",
                owner.allocations, owner.releases, owner.in_flight
            ));
        }
        if matches!(self.pools, Pools::Federated(_)) && self.stats().in_flight != 0 {
            problems.push("entry daemon still holds tickets".to_string());
        }
        for client in &self.clients {
            if let Err(e) = client.shutdown() {
                problems.push(format!("client shutdown: {e}"));
            }
        }
        for server in &self.servers {
            server.halt();
        }
        for server in self.servers {
            if let Err(e) = server.join() {
                problems.push(format!("daemon drain: {e}"));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }
}

/// One query per base pool, so every pool exists before the first timed
/// allocation.  Shared by the served deployment and the ladder's
/// in-process rungs.
pub fn first_touch(manager: &dyn ResourceManager, spec: &Spec) -> Result<(), String> {
    for k in 0..spec.fleet.pools() {
        let arch = spec.fleet.arch(k);
        let granted = manager
            .submit_text_wait(&format!("punch.rsrc.arch = {arch}\n"))
            .map_err(|e| format!("first touch of {arch}: {e}"))?;
        for allocation in &granted {
            manager
                .release(allocation)
                .map_err(|e| format!("first-touch release of {arch}: {e}"))?;
        }
    }
    Ok(())
}

/// The in-process rungs of the deployment ladder over a private copy of
/// the workload's fleet: `[engine, live]`.  The live rung's stage threads
/// start on the daemon's CPU; the engine runs in its caller's thread.
pub fn inprocess_rungs(
    spec: &Spec,
    seed: u64,
    placement: &Placement,
) -> Result<[Arc<dyn ResourceManager>; 2], String> {
    let build = |live: bool| -> Result<Arc<dyn ResourceManager>, String> {
        let builder = pipeline(spec, spec.fleet.generate(seed).into_shared());
        let manager: Arc<dyn ResourceManager> = if live {
            placement.daemon()?;
            Arc::new(
                builder
                    .build_live()
                    .map_err(|e| format!("live rung: {e}"))?,
            )
        } else {
            Arc::new(
                builder
                    .build_embedded()
                    .map_err(|e| format!("engine rung: {e}"))?,
            )
        };
        placement.clients()?;
        first_touch(manager.as_ref(), spec)?;
        Ok(manager)
    };
    Ok([build(false)?, build(true)?])
}
