//! Simulated deployment for the controlled experiments.
//!
//! The paper's evaluation (Section 7) measures the response time of the
//! ActYP prototype under synthetic workloads: closed-loop clients that
//! continuously send queries to a service whose components run on a
//! 12-processor Alpha server, in a LAN configuration and in one WAN
//! configuration (clients at Purdue, service at UPC Barcelona).
//!
//! This module reproduces those experiments on the discrete-event kernel.
//! The *logic* — pool naming, machine matching, the linear scan of the
//! scheduling process — is executed by the real pipeline code
//! ([`crate::resource_pool`], [`crate::scheduler`]); only *time* is
//! simulated: each stage is a FCFS server with a configurable service cost,
//! the pool scan cost is proportional to the number of cache entries the
//! real scheduler actually examined, and messages between stages pay a
//! latency drawn from the LAN/WAN network model.

use actyp_grid::{FleetSpec, MachineId, SyntheticFleet};
use actyp_query::{BasicQuery, Constraint, PoolName, Query, QueryKey};
use actyp_simnet::{
    EventQueue, FcfsServer, LinkProfile, NetworkModel, Rng, SampleSet, SimDuration, SimTime,
};

use crate::message::RequestId;
use crate::resource_pool::ResourcePool;
use crate::scheduler::{ReplicaBias, SchedulingObjective};

/// Per-operation service costs of the pipeline stages.
///
/// The defaults are calibrated so that a single 3,200-machine pool saturates
/// at response times around a second with a few tens of closed-loop clients,
/// matching the order of magnitude of the paper's figures.  Absolute values
/// are ours (our "hardware" is a cost model, not an Alpha server); the
/// *shapes* of the curves are what the reproduction preserves.
#[derive(Debug, Clone)]
pub struct SimCosts {
    /// Query-manager work per query (translation, decomposition, routing).
    pub query_manager: SimDuration,
    /// Pool-manager work per query (mapping, directory lookup, selection).
    pub pool_manager: SimDuration,
    /// Fixed part of serving an allocation inside a pool.
    pub pool_base: SimDuration,
    /// Cost per cache entry examined by the scheduling process.
    pub per_machine: SimDuration,
    /// Cost of assembling and sending the reply.
    pub reply: SimDuration,
}

impl Default for SimCosts {
    fn default() -> Self {
        SimCosts {
            query_manager: SimDuration::from_micros(350),
            pool_manager: SimDuration::from_micros(250),
            pool_base: SimDuration::from_micros(400),
            per_machine: SimDuration::from_micros(6),
            reply: SimDuration::from_micros(150),
        }
    }
}

/// How the machines are organised into resource pools for an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolTopology {
    /// Machines uniformly distributed across `pools` pools; each query is
    /// striped to a random pool (Figures 4 and 5).
    Striped {
        /// Number of pools.
        pools: usize,
    },
    /// A single pool holding every machine (the baseline of Figure 6).
    SinglePool,
    /// One logical pool split into `parts` disjoint parts that are searched
    /// concurrently and whose results are aggregated (Figure 7).
    Split {
        /// Number of parts.
        parts: usize,
    },
    /// `replicas` instances sharing the full machine set, with
    /// instance-specific bias; each query goes to one replica (Figure 8).
    Replicated {
        /// Number of replicated instances.
        replicas: usize,
    },
}

/// Configuration of one simulated experiment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Number of machines in the resource database.
    pub machines: usize,
    /// Pool organisation.
    pub topology: PoolTopology,
    /// Number of closed-loop clients.
    pub clients: usize,
    /// Queries each client issues.
    pub requests_per_client: usize,
    /// Network model (LAN or WAN configuration).
    pub network: NetworkModel,
    /// Link class between clients and the service front end.
    pub client_link: LinkProfile,
    /// Stage service costs.
    pub costs: SimCosts,
    /// Number of replicated query-manager servers.
    pub query_managers: usize,
    /// Number of replicated pool-manager servers.
    pub pool_managers: usize,
    /// Scheduling objective of the pools.
    pub objective: SchedulingObjective,
    /// Think time between a client's reply and its next query.
    pub think_time: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The paper's base setup: 3,200 machines, LAN, closed-loop clients.
    pub fn paper_baseline() -> Self {
        ExperimentConfig {
            machines: 3_200,
            topology: PoolTopology::SinglePool,
            clients: 32,
            requests_per_client: 20,
            network: NetworkModel::lan(),
            client_link: LinkProfile::Lan,
            costs: SimCosts::default(),
            query_managers: 1,
            pool_managers: 1,
            objective: SchedulingObjective::LeastLoaded,
            think_time: SimDuration::from_millis(5),
            seed: 0x2001_04AC,
        }
    }
}

/// The measurements produced by one experiment run.
#[derive(Debug)]
pub struct ExperimentResult {
    /// Response-time samples, in seconds.
    pub response: SampleSet,
    /// Number of queries completed.
    pub completed: u64,
    /// Number of queries that found no available machine.
    pub failed: u64,
    /// Virtual time at which the experiment finished.
    pub makespan: SimDuration,
}

impl ExperimentResult {
    /// Mean response time in seconds.
    pub fn mean_response(&self) -> f64 {
        self.response.mean()
    }

    /// The `q` response-time quantile in seconds.
    pub fn response_quantile(&mut self, q: f64) -> f64 {
        self.response.quantile(q)
    }

    /// Completed queries per second of virtual time.
    pub fn throughput(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs > 0.0 {
            self.completed as f64 / secs
        } else {
            0.0
        }
    }
}

/// The query every simulated client issues: a `sun` machine with at least
/// 10 MB of memory, the shape of the paper's example.
fn client_query() -> BasicQuery {
    Query::new()
        .with(QueryKey::rsrc("arch"), Constraint::eq("sun"))
        .with(QueryKey::rsrc("memory"), Constraint::ge(10u64))
        .with(QueryKey::user("login"), Constraint::eq("client"))
        .with(QueryKey::user("accessgroup"), Constraint::eq("ece"))
        .decompose(1)
        .remove(0)
}

struct SimPool {
    pool: ResourcePool,
    server: FcfsServer,
}

/// One simulated deployment, reusable across parameter sweeps.
pub struct SimulatedPipeline {
    config: ExperimentConfig,
    pools: Vec<SimPool>,
    query_managers: Vec<FcfsServer>,
    pool_managers: Vec<FcfsServer>,
    rng: Rng,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Request { client: usize, remaining: usize },
}

impl SimulatedPipeline {
    /// Builds the deployment: generates the machine fleet, partitions it
    /// into pools according to the topology, and sets up the stage servers.
    pub fn new(config: ExperimentConfig) -> Self {
        let db = SyntheticFleet::new(
            FleetSpec::homogeneous(config.machines, "sun", 256),
            config.seed,
        )
        .generate()
        .into_shared();
        let mut rng = Rng::new(config.seed ^ 0x51D);

        let all_machines: Vec<MachineId> = db.read().iter().map(|m| m.id).collect();
        let pool_name = PoolName::from_query(&client_query());

        let make_pool = |machines: Vec<MachineId>,
                         instance: u32,
                         bias: ReplicaBias,
                         seed: u64|
         -> ResourcePool {
            ResourcePool::from_cache(
                pool_name.clone(),
                instance,
                bias,
                machines,
                db.clone(),
                config.objective,
                seed,
                false,
            )
            .expect("experiment pools are never empty")
        };

        let pools: Vec<SimPool> = match config.topology {
            PoolTopology::SinglePool => vec![SimPool {
                pool: make_pool(all_machines, 0, ReplicaBias::none(), config.seed),
                server: FcfsServer::new(),
            }],
            PoolTopology::Striped { pools } | PoolTopology::Split { parts: pools } => {
                let pools = pools.max(1);
                let chunk = all_machines.len().div_ceil(pools);
                all_machines
                    .chunks(chunk.max(1))
                    .enumerate()
                    .map(|(i, machines)| SimPool {
                        pool: make_pool(
                            machines.to_vec(),
                            i as u32,
                            ReplicaBias::none(),
                            config.seed + i as u64,
                        ),
                        server: FcfsServer::new(),
                    })
                    .collect()
            }
            PoolTopology::Replicated { replicas } => {
                let replicas = replicas.max(1) as u32;
                (0..replicas)
                    .map(|i| SimPool {
                        pool: make_pool(
                            all_machines.clone(),
                            i,
                            ReplicaBias {
                                instance: i,
                                replicas,
                            },
                            config.seed + i as u64,
                        ),
                        server: FcfsServer::new(),
                    })
                    .collect()
            }
        };

        let query_managers = vec![FcfsServer::new(); config.query_managers.max(1)];
        let pool_managers = vec![FcfsServer::new(); config.pool_managers.max(1)];
        let _ = rng.next_u64();

        SimulatedPipeline {
            config,
            pools,
            query_managers,
            pool_managers,
            rng,
        }
    }

    fn pool_service_cost(costs: &SimCosts, examined: usize) -> SimDuration {
        costs.pool_base + costs.per_machine * examined as u64
    }

    /// Serves one query on a specific pool at virtual time `at`; returns the
    /// completion time on that pool's scheduling-process server and whether
    /// the allocation succeeded.
    fn serve_on_pool(
        &mut self,
        pool_index: usize,
        request: RequestId,
        at: SimTime,
    ) -> (SimTime, bool) {
        let costs = self.config.costs.clone();
        let entry = &mut self.pools[pool_index];
        let (examined, ok) = match entry.pool.allocate(request, &client_query(), 12) {
            Ok(allocation) => {
                let examined = allocation.examined;
                // The experiments measure scheduling response, not job
                // residence: release immediately so the pool never runs dry.
                let _ = entry.pool.release(&allocation);
                (examined, true)
            }
            Err(_) => (entry.pool.size(), false),
        };
        let done = entry
            .server
            .serve(at, Self::pool_service_cost(&costs, examined));
        (done, ok)
    }

    /// Runs the experiment and returns the measurements.
    pub fn run(&mut self) -> ExperimentResult {
        let mut queue: EventQueue<Event> = EventQueue::new();
        let mut response = SampleSet::new();
        let mut completed = 0u64;
        let mut failed = 0u64;
        let mut request_counter = 0u64;

        // Stagger client start times slightly so simultaneous arrival does
        // not synchronise the closed loops artificially.
        for client in 0..self.config.clients {
            let jitter = SimDuration::from_micros(self.rng.below(500));
            queue.schedule_at(
                SimTime::ZERO + jitter,
                Event::Request {
                    client,
                    remaining: self.config.requests_per_client,
                },
            );
        }

        let client_link = self.config.client_link;
        while let Some(scheduled) = queue.pop() {
            let Event::Request { client, remaining } = scheduled.event;
            if remaining == 0 {
                continue;
            }
            let start = scheduled.at;
            let request = RequestId(request_counter);
            request_counter += 1;

            // Client → query manager.
            let network = self.config.network.clone();
            let costs = self.config.costs.clone();
            let lat_in = network.latency(client_link, &mut self.rng, 512);
            let qm_index = (request_counter as usize) % self.query_managers.len();
            let qm_done = self.query_managers[qm_index].serve(start + lat_in, costs.query_manager);

            // Query manager → pool manager.
            let lat_qm_pm = network.latency(LinkProfile::Local, &mut self.rng, 512);
            let pm_index = (request_counter as usize) % self.pool_managers.len();
            let pm_done =
                self.pool_managers[pm_index].serve(qm_done + lat_qm_pm, costs.pool_manager);

            // Pool manager → pool(s).
            let lat_pm_pool = network.latency(LinkProfile::Local, &mut self.rng, 512);
            let pool_arrival = pm_done + lat_pm_pool;
            let (pool_done, ok) = match self.config.topology {
                PoolTopology::Split { .. } => {
                    // Fan out to every part; the reply re-integrates when the
                    // slowest part finishes.
                    let mut latest = pool_arrival;
                    let mut any_ok = false;
                    for i in 0..self.pools.len() {
                        let (done, ok) = self.serve_on_pool(i, request, pool_arrival);
                        latest = latest.max(done);
                        any_ok |= ok;
                    }
                    (latest, any_ok)
                }
                PoolTopology::Replicated { .. } => {
                    let i = (request_counter as usize) % self.pools.len();
                    self.serve_on_pool(i, request, pool_arrival)
                }
                _ => {
                    // Queries are striped randomly across pools (the paper's
                    // setup for Figures 4 and 5).
                    let i = self.rng.index(self.pools.len());
                    self.serve_on_pool(i, request, pool_arrival)
                }
            };

            // Pool → client reply.
            let lat_out = network.latency(client_link, &mut self.rng, 256);
            let finish = pool_done + costs.reply + lat_out;
            response.record_duration(finish - start);
            if ok {
                completed += 1;
            } else {
                failed += 1;
            }

            if remaining > 1 {
                queue.schedule_at(
                    finish + self.config.think_time,
                    Event::Request {
                        client,
                        remaining: remaining - 1,
                    },
                );
            }
        }

        ExperimentResult {
            response,
            completed,
            failed,
            makespan: queue.now() - SimTime::ZERO,
        }
    }
}

/// Convenience wrapper: build the deployment and run it.
#[cfg(test)]
pub fn run_experiment(config: ExperimentConfig) -> ExperimentResult {
    SimulatedPipeline::new(config).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(topology: PoolTopology, clients: usize) -> ExperimentConfig {
        ExperimentConfig {
            machines: 400,
            topology,
            clients,
            requests_per_client: 8,
            ..ExperimentConfig::paper_baseline()
        }
    }

    #[test]
    fn all_requests_complete() {
        let mut result = run_experiment(small(PoolTopology::SinglePool, 4));
        assert_eq!(result.completed + result.failed, 4 * 8);
        assert_eq!(result.failed, 0);
        assert!(result.mean_response() > 0.0);
        assert!(result.response_quantile(0.95) >= result.response_quantile(0.5));
        assert!(result.throughput() > 0.0);
    }

    #[test]
    fn experiments_are_deterministic_for_a_seed() {
        let a = run_experiment(small(PoolTopology::SinglePool, 4)).mean_response();
        let b = run_experiment(small(PoolTopology::SinglePool, 4)).mean_response();
        assert_eq!(a, b);
    }

    #[test]
    fn more_clients_increase_response_time() {
        let light = run_experiment(small(PoolTopology::SinglePool, 2)).mean_response();
        let heavy = run_experiment(small(PoolTopology::SinglePool, 24)).mean_response();
        assert!(
            heavy > light * 2.0,
            "heavy load {heavy} should dominate light load {light}"
        );
    }

    #[test]
    fn more_pools_reduce_response_time_under_load() {
        let two = run_experiment(small(PoolTopology::Striped { pools: 2 }, 24)).mean_response();
        let eight = run_experiment(small(PoolTopology::Striped { pools: 8 }, 24)).mean_response();
        assert!(
            eight < two,
            "8 pools ({eight}) must beat 2 pools ({two}) under load"
        );
    }

    #[test]
    fn bigger_pools_mean_slower_responses() {
        let small_pool = run_experiment(ExperimentConfig {
            machines: 200,
            ..small(PoolTopology::SinglePool, 12)
        })
        .mean_response();
        let big_pool = run_experiment(ExperimentConfig {
            machines: 1600,
            ..small(PoolTopology::SinglePool, 12)
        })
        .mean_response();
        assert!(
            big_pool > small_pool,
            "3,200-style pool ({big_pool}) should be slower than small pool ({small_pool})"
        );
    }

    #[test]
    fn splitting_a_pool_reduces_response_time() {
        let whole = run_experiment(small(PoolTopology::SinglePool, 16)).mean_response();
        let split = run_experiment(small(PoolTopology::Split { parts: 4 }, 16)).mean_response();
        assert!(
            split < whole,
            "split pool ({split}) must beat the monolithic pool ({whole})"
        );
    }

    #[test]
    fn replication_reduces_response_time_under_load() {
        let one =
            run_experiment(small(PoolTopology::Replicated { replicas: 1 }, 24)).mean_response();
        let four =
            run_experiment(small(PoolTopology::Replicated { replicas: 4 }, 24)).mean_response();
        assert!(
            four < one,
            "4 replicas ({four}) must beat a single instance ({one})"
        );
    }

    #[test]
    fn wan_configuration_adds_a_latency_floor() {
        let lan = run_experiment(small(PoolTopology::Striped { pools: 8 }, 4)).mean_response();
        let wan = run_experiment(ExperimentConfig {
            network: NetworkModel::wan(),
            client_link: LinkProfile::Wan,
            ..small(PoolTopology::Striped { pools: 8 }, 4)
        })
        .mean_response();
        assert!(
            wan > lan + 0.1,
            "wan ({wan}) must carry at least the round-trip latency over lan ({lan})"
        );
    }

    #[test]
    fn topology_construction_matches_request() {
        let sim = SimulatedPipeline::new(small(PoolTopology::Striped { pools: 5 }, 1));
        assert_eq!(sim.pools.len(), 5);
        assert_eq!((0..5).map(|i| sim.pools[i].pool.size()).sum::<usize>(), 400);

        let rep = SimulatedPipeline::new(small(PoolTopology::Replicated { replicas: 3 }, 1));
        assert_eq!(rep.pools.len(), 3);
        assert_eq!(rep.pools[0].pool.size(), 400);
        assert_eq!(rep.pools[2].pool.size(), 400);
    }
}
