//! The five workloads: what each stresses, its fleet, and its
//! seed-generated request stream.
//!
//! A workload is a fleet shape, a load shape (two closed-loop clients at
//! a fixed pipelining depth) and a request stream that is a pure function
//! of `--seed`.  Each exists because it loads a layer the others leave
//! idle; `why` is printed with every run and copied into
//! `BENCHMARK.json`.

use std::collections::HashMap;

use actyp_grid::{FleetSpec, ResourceDatabase, SharedDatabase, SyntheticFleet};
use actyp_proto::Allocation;
use actyp_query::{parse_query, Query};

use crate::stats::{fnv1a, Rng};
use crate::yardstick::Yardstick;

/// Load-generating threads, one `RemoteBackend` connection each: two, so
/// requests from distinct sessions are always in flight together.  Equals
/// `nproc` on the 2-vCPU host the bounds were fixed on.
pub const CLIENTS: usize = 2;

/// Memory, in MiB, of every generated machine: novel `memory = >=M`
/// signatures stay satisfiable for any `M` up to this.
const FLEET_MEMORY_MB: u64 = 512;

/// The machines a workload's daemon manages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fleet {
    /// `pools` architectures (`arch0`…) of exactly `per_pool` machines
    /// each: many small pools, so pool work is negligible.
    Striped {
        /// Distinct `arch` values, one resource pool each.
        pools: usize,
        /// Machines per architecture.
        per_pool: usize,
    },
    /// One architecture, one big pool: the scheduling process's linear
    /// scan dominates.
    Big {
        /// Machines in the single pool.
        machines: usize,
    },
}

impl Fleet {
    /// Distinct base pools (one first-touch query each during set-up).
    pub fn pools(self) -> usize {
        match self {
            Fleet::Striped { pools, .. } => pools,
            Fleet::Big { .. } => 1,
        }
    }

    /// The `arch` value of base pool `k`.
    pub fn arch(self, k: usize) -> String {
        match self {
            Fleet::Striped { .. } => format!("arch{k}"),
            Fleet::Big { .. } => "sun".to_string(),
        }
    }

    /// Generates the fleet's white pages from `seed`.
    pub fn generate(self, seed: u64) -> ResourceDatabase {
        let mut db = ResourceDatabase::new();
        match self {
            Fleet::Striped { pools, per_pool } => {
                for k in 0..pools {
                    let spec = FleetSpec::homogeneous(per_pool, &self.arch(k), FLEET_MEMORY_MB);
                    SyntheticFleet::new(spec, seed ^ (k as u64 + 1)).generate_into(&mut db);
                }
            }
            Fleet::Big { machines } => {
                let spec = FleetSpec::homogeneous(machines, "sun", FLEET_MEMORY_MB);
                SyntheticFleet::new(spec, seed).generate_into(&mut db);
            }
        }
        db
    }
}

/// One workload.
#[derive(Debug)]
pub struct Spec {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// One line: which layer this loads and which it leaves idle.
    pub why: &'static str,
    /// The yardstick its times are divided by.
    pub yardstick: Yardstick,
    /// Tickets each client keeps in flight.
    pub depth: usize,
    /// Allocations per chunk, over both clients.
    pub chunk_allocs: usize,
    /// Complete set-ups an end-to-end run times; `setup_s` is their
    /// median.  A fixed count (more where a set-up is short), so the heap
    /// has the same history in every run and `rss_peak_mb` repeats.
    pub setups: usize,
    /// Allocations run and discarded before the timed part.
    pub warmup_allocs: usize,
    /// Fewest chunks an end-to-end run's timed pass may end with.
    pub min_chunks: usize,
    /// 0: the timed pass runs until its time is up.  Otherwise it runs
    /// exactly this many chunks per second asked for, however long they
    /// take: for a workload whose daemon accumulates state with every
    /// request, so that memory and table sizes at the end of a run do not
    /// depend on how fast the host happened to be.
    pub chunks_per_second: usize,
    /// The fleet behind the daemon that owns the pools.
    pub fleet: Fleet,
    /// Whether the client talks to an entry daemon that must delegate
    /// every query to a second, federated daemon.
    pub federated: bool,
    /// Every n-th request of each client carries a never-seen signature
    /// (0: never).
    pub novel_every: usize,
}

const LAN_FLEET: Fleet = Fleet::Striped {
    pools: 64,
    per_pool: 128,
};

/// All workloads, in the order `repeat` runs them.
pub static WORKLOADS: [Spec; 5] = [
    Spec {
        name: "lan-depth1",
        why: "64 small pools, depth 1: the fixed per-request wire path (proto, reactor, session, lanes, stage hops) is nearly all of the latency",
        yardstick: Yardstick::Echo,
        depth: 1,
        chunk_allocs: 1000,
        setups: 5,
        warmup_allocs: 2000,
        min_chunks: 32,
        chunks_per_second: 0,
        fleet: LAN_FLEET,
        federated: false,
        novel_every: 0,
    },
    Spec {
        name: "lan-pipelined",
        why: "same fleet at depth 16: batching, write coalescing and the admission window can only pay here, so a trade against lan-depth1 shows",
        yardstick: Yardstick::Echo,
        depth: 16,
        chunk_allocs: 1000,
        setups: 5,
        warmup_allocs: 2000,
        min_chunks: 32,
        chunks_per_second: 0,
        fleet: LAN_FLEET,
        federated: false,
        novel_every: 0,
    },
    Spec {
        name: "bigpool-scan",
        why: "one 4096-machine pool under LeastLoaded: the scheduling process's linear scan dominates, so wire-path changes are predicted to move nothing",
        yardstick: Yardstick::Spin,
        depth: 2,
        chunk_allocs: 200,
        setups: 25,
        warmup_allocs: 400,
        min_chunks: 20,
        chunks_per_second: 0,
        fleet: Fleet::Big { machines: 4096 },
        federated: false,
        novel_every: 0,
    },
    Spec {
        name: "pool-churn",
        why: "every 8th request has a never-seen signature: white-pages walk, claim and directory registration run beside reads, so dearer writes show",
        yardstick: Yardstick::Spin,
        depth: 2,
        chunk_allocs: 200,
        setups: 5,
        warmup_allocs: 400,
        min_chunks: 20,
        chunks_per_second: 7,
        fleet: LAN_FLEET,
        federated: false,
        novel_every: 8,
    },
    Spec {
        name: "wan-delegate",
        why: "entry daemon owns no matching machine, so every allocation crosses FederatedBackend and a peer link: its delta over lan-depth1 is the federation layer",
        yardstick: Yardstick::Echo,
        depth: 1,
        chunk_allocs: 1000,
        setups: 5,
        warmup_allocs: 2000,
        min_chunks: 32,
        chunks_per_second: 0,
        fleet: LAN_FLEET,
        federated: true,
        novel_every: 0,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One generated request and what the oracle expects of its outcome.
#[derive(Debug, Clone)]
pub struct Request {
    /// `client << 48 | sequence`: names the request in violation reports
    /// and spans.
    pub id: u64,
    /// The parsed query handed to `submit`.
    pub query: Query,
    /// The `arch` every granted machine must have.
    pub arch: String,
    /// The least memory (MiB) every granted machine must have; 0 when the
    /// query does not constrain it.
    pub min_memory: f64,
}

/// A client's request stream: deterministic in `(workload, seed, client)`
/// and position, so any prefix of a run repeats exactly.
#[derive(Debug, Clone)]
pub struct RequestStream {
    spec: &'static Spec,
    client: usize,
    rng: Rng,
    sequence: u64,
    novel: u64,
    novel_offset: u64,
}

const LOGINS: usize = 16;
const GROUPS: [&str; 3] = ["ece", "me", "public"];

impl RequestStream {
    /// The stream of `client` (0-based, below [`CLIENTS`]).
    pub fn new(spec: &'static Spec, seed: u64, client: usize) -> Self {
        RequestStream {
            spec,
            client,
            rng: Rng::new(seed ^ ((client as u64 + 1) << 32)),
            sequence: 0,
            novel: 0,
            // Shared by both clients so their novel slots never collide.
            novel_offset: Rng::new(seed).next_u64(),
        }
    }

    /// Never-seen signatures generated so far by this client.
    pub fn novel_generated(&self) -> u64 {
        self.novel
    }

    /// The native text of the next request, plus the oracle's
    /// expectations.
    fn next_text(&mut self) -> (String, String, f64) {
        let pools = self.spec.fleet.pools();
        let login = self.rng.below(LOGINS);
        let group = GROUPS[self.rng.below(GROUPS.len())];
        let pick = self.rng.below(pools);
        let is_novel = self.spec.novel_every > 0
            && self.sequence % self.spec.novel_every as u64 == self.spec.novel_every as u64 - 1;
        let (arch, memory_clause, min_memory) = if is_novel {
            // Global ordinal of this novel request, mapped through an odd
            // multiplier (a bijection on the slot space) so each
            // (arch, M) pair is issued once per daemon lifetime, in a
            // seed-dependent order.
            let slots = (pools as u64) * FLEET_MEMORY_MB;
            let ordinal = self.novel * CLIENTS as u64 + self.client as u64;
            assert!(ordinal < slots, "novel signature space exhausted");
            self.novel += 1;
            let slot = (ordinal.wrapping_mul(0x9e37) + self.novel_offset) % slots;
            let memory = 1 + slot / pools as u64;
            (
                self.spec.fleet.arch((slot % pools as u64) as usize),
                format!("punch.rsrc.memory = >={memory}\n"),
                memory as f64,
            )
        } else {
            (self.spec.fleet.arch(pick), String::new(), 0.0)
        };
        let text = format!(
            "punch.rsrc.arch = {arch}\n{memory_clause}punch.user.login = user{login}\npunch.user.accessgroup = {group}\n"
        );
        (text, arch, min_memory)
    }

    /// Generates the next `n` requests.
    pub fn take(&mut self, n: usize) -> Vec<Request> {
        (0..n)
            .map(|_| {
                let (text, arch, min_memory) = self.next_text();
                let id = ((self.client as u64) << 48) | self.sequence;
                self.sequence += 1;
                Request {
                    id,
                    query: parse_query(&text).expect("generated queries are well formed"),
                    arch,
                    min_memory,
                }
            })
            .collect()
    }
}

/// FNV-1a digest of the first `n` requests of every client, as rendered
/// query text: the determinism tests pin `(workload, seed)` to this.
pub fn request_digest(spec: &'static Spec, seed: u64, n: usize) -> u64 {
    let mut bytes = Vec::new();
    for client in 0..CLIENTS {
        for request in RequestStream::new(spec, seed, client).take(n) {
            bytes.extend_from_slice(&request.id.to_be_bytes());
            bytes.extend_from_slice(request.query.to_string().as_bytes());
        }
    }
    fnv1a(&bytes)
}

/// The oracle's own copy of what each machine is: taken from the white
/// pages once at set-up, so checking an allocation never touches the
/// database lock the measured path contends on.
#[derive(Debug, Default)]
pub struct MachineTable {
    machines: HashMap<u64, (String, f64)>,
}

impl MachineTable {
    /// Snapshots `arch` and `memory` of every machine in `db`.
    pub fn from_db(db: &SharedDatabase) -> Self {
        let machines = db
            .read()
            .iter()
            .map(|m| {
                let arch = m
                    .attribute("arch")
                    .and_then(|a| a.as_str().map(str::to_string))
                    .unwrap_or_default();
                let memory = m
                    .attribute("memory")
                    .and_then(|v| v.as_num())
                    .unwrap_or(0.0);
                (m.id.0, (arch, memory))
            })
            .collect();
        MachineTable { machines }
    }

    /// Whether the granted machine satisfies what the request asked for.
    pub fn satisfies(&self, allocation: &Allocation, arch: &str, min_memory: f64) -> bool {
        self.machines
            .get(&allocation.machine.0)
            .is_some_and(|(have_arch, have_memory)| {
                have_arch == arch
                    && *have_memory >= min_memory
                    && allocation.machine_name.starts_with(arch)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_request_list_for_every_workload() {
        for spec in &WORKLOADS {
            let a = request_digest(spec, 0x42, 500);
            let b = request_digest(spec, 0x42, 500);
            let c = request_digest(spec, 0x43, 500);
            assert_eq!(a, b, "{}: same seed must repeat", spec.name);
            assert_ne!(a, c, "{}: another seed must differ", spec.name);
        }
    }

    #[test]
    fn a_prefix_of_a_longer_run_is_the_shorter_run() {
        // Time-bounded passes stop after a host-dependent number of
        // chunks; what they did run must not depend on where they stop.
        let spec = find("pool-churn").expect("workload");
        let mut whole = RequestStream::new(spec, 9, 1);
        let mut pieces = RequestStream::new(spec, 9, 1);
        let long: Vec<String> = whole
            .take(300)
            .iter()
            .map(|r| r.query.to_string())
            .collect();
        let mut short = Vec::new();
        for _ in 0..3 {
            short.extend(pieces.take(100).iter().map(|r| r.query.to_string()));
        }
        assert_eq!(long, short);
    }

    #[test]
    fn novel_signatures_are_one_in_eight_and_never_repeat_across_clients() {
        let spec = find("pool-churn").expect("workload");
        let mut seen = HashSet::new();
        for client in 0..CLIENTS {
            let mut stream = RequestStream::new(spec, 0x42, client);
            let requests = stream.take(4000);
            assert_eq!(stream.novel_generated(), 500);
            for r in requests.iter().filter(|r| r.min_memory > 0.0) {
                assert!(r.min_memory <= FLEET_MEMORY_MB as f64);
                assert!(
                    seen.insert((r.arch.clone(), r.min_memory as u64)),
                    "signature ({}, {}) issued twice",
                    r.arch,
                    r.min_memory
                );
            }
        }
        assert_eq!(seen.len(), 1000);
    }

    #[test]
    fn striped_fleet_has_exactly_the_declared_pools() {
        let fleet = Fleet::Striped {
            pools: 4,
            per_pool: 8,
        };
        let db = fleet.generate(7).into_shared();
        let table = MachineTable::from_db(&db);
        assert_eq!(table.machines.len(), 32);
        for k in 0..4 {
            let arch = fleet.arch(k);
            let n = table.machines.values().filter(|(a, _)| *a == arch).count();
            assert_eq!(n, 8, "{arch}");
        }
        assert!(table.machines.values().all(|(_, m)| *m == 512.0));
    }

    #[test]
    fn workload_names_are_unique_and_findable() {
        let names: HashSet<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names.len(), WORKLOADS.len());
        assert!(find("lan-depth1").is_some() && find("nope").is_none());
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
    }
}
