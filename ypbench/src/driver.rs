//! The closed-loop load generator and its correctness oracle.
//!
//! Two persistent client threads, one connection each.  A PUNCH front end
//! waits for its machine before it asks again, so the loop is *closed*: a
//! client keeps `depth` tickets in flight and submits the next request
//! only when the oldest has settled.  One **allocation** is `submit` +
//! `wait` + `release` of every granted machine; its latency is timed from
//! just before `submit` to the outcome.
//!
//! Work arrives in *jobs* (a client's half of a chunk).  The threads
//! outlive jobs because `/proc/self/task/*` loses a thread's counters the
//! moment it exits, and the counts are taken between jobs.
//!
//! The oracle is not sampled: every outcome is checked (machine matches
//! the query, every release acknowledged), and access-key uniqueness is
//! checked over the whole run by [`KeyLedger`].

use std::collections::{HashSet, VecDeque};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use actyp_pipeline::{ResourceManager, Ticket};

use crate::stats::fnv1a;
use crate::trace::{Span, SpanSink};
use crate::workload::{MachineTable, Request};

/// A client's share of one chunk.
pub struct Job {
    /// The requests to run, in order.
    pub requests: Vec<Request>,
    /// Tickets to keep in flight.
    pub depth: usize,
    /// When set, record a span per call under this parent span id.
    pub trace_parent: Option<u64>,
}

/// What one client measured over one job.
#[derive(Debug, Default)]
pub struct Part {
    /// First submit and last release of the job.
    pub started: Option<Instant>,
    /// See `started`.
    pub finished: Option<Instant>,
    /// Submit→outcome latency of every allocation, seconds.
    pub latencies: Vec<f64>,
    /// Seconds inside `submit` calls.
    pub submit_s: f64,
    /// Seconds inside `wait` calls.
    pub wait_s: f64,
    /// Seconds inside `release` calls.
    pub release_s: f64,
    /// Σ `Allocation::examined` over granted machines.
    pub examined: u64,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests granted, verified and released.
    pub ok: u64,
    /// FNV digests of the access keys granted (for [`KeyLedger`]).
    pub keys: Vec<u64>,
    /// One line per violated expectation, naming the request id.
    pub violations: Vec<String>,
    /// Spans, when the job was traced.
    pub spans: Vec<Span>,
}

struct InFlight {
    id: u64,
    arch: String,
    min_memory: f64,
    submitted: Instant,
    ticket: Ticket,
    span: Option<u64>,
}

/// Runs one job against `manager`.  Shared by the client threads and by
/// single-threaded callers (warm-up of in-process rungs, tests).
pub fn run_job(
    manager: &dyn ResourceManager,
    machines: &MachineTable,
    job: Job,
    sink: &SpanSink,
) -> Part {
    let mut part = Part {
        latencies: Vec::with_capacity(job.requests.len()),
        keys: Vec::with_capacity(job.requests.len()),
        ..Part::default()
    };
    let depth = job.depth.max(1);
    let mut window: VecDeque<InFlight> = VecDeque::with_capacity(depth);
    part.started = Some(Instant::now());
    for request in job.requests {
        if window.len() == depth {
            let oldest = window.pop_front().expect("window is at capacity");
            settle(manager, machines, oldest, &mut part, sink);
        }
        part.attempted += 1;
        let span = job
            .trace_parent
            .map(|parent| sink.open(&mut part.spans, "alloc", Some(parent), Some(request.id)));
        let submitted = Instant::now();
        let result = manager.submit(request.query);
        let returned = Instant::now();
        part.submit_s += (returned - submitted).as_secs_f64();
        if let Some(parent) = span {
            sink.record(
                &mut part.spans,
                "submit",
                parent,
                request.id,
                submitted,
                returned,
            );
        }
        match result {
            Ok(ticket) => window.push_back(InFlight {
                id: request.id,
                arch: request.arch,
                min_memory: request.min_memory,
                submitted,
                ticket,
                span,
            }),
            Err(e) => {
                part.violations
                    .push(format!("request {:#x}: submit failed: {e}", request.id));
                if let Some(id) = span {
                    sink.close(&mut part.spans, id);
                }
            }
        }
    }
    while let Some(oldest) = window.pop_front() {
        settle(manager, machines, oldest, &mut part, sink);
    }
    part.finished = Some(Instant::now());
    part
}

fn settle(
    manager: &dyn ResourceManager,
    machines: &MachineTable,
    entry: InFlight,
    part: &mut Part,
    sink: &SpanSink,
) {
    let waiting = Instant::now();
    let outcome = manager.wait(entry.ticket);
    let settled = Instant::now();
    part.wait_s += (settled - waiting).as_secs_f64();
    part.latencies
        .push((settled - entry.submitted).as_secs_f64());
    if let Some(parent) = entry.span {
        sink.record(&mut part.spans, "wait", parent, entry.id, waiting, settled);
    }
    let mut good = true;
    match outcome {
        Err(e) => {
            good = false;
            part.violations
                .push(format!("request {:#x}: not granted: {e}", entry.id));
        }
        Ok(granted) => {
            if granted.is_empty() {
                good = false;
                part.violations
                    .push(format!("request {:#x}: granted no machine", entry.id));
            }
            for allocation in &granted {
                if !machines.satisfies(allocation, &entry.arch, entry.min_memory) {
                    good = false;
                    part.violations.push(format!(
                        "request {:#x}: machine {} does not satisfy arch={} memory>={}",
                        entry.id, allocation.machine_name, entry.arch, entry.min_memory
                    ));
                }
                part.examined += allocation.examined as u64;
                part.keys.push(fnv1a(allocation.access_key.0.as_bytes()));
                let releasing = Instant::now();
                let released = manager.release(allocation);
                let done = Instant::now();
                part.release_s += (done - releasing).as_secs_f64();
                if let Some(parent) = entry.span {
                    sink.record(
                        &mut part.spans,
                        "release",
                        parent,
                        entry.id,
                        releasing,
                        done,
                    );
                }
                if let Err(e) = released {
                    good = false;
                    part.violations
                        .push(format!("request {:#x}: release refused: {e}", entry.id));
                }
            }
        }
    }
    if let Some(id) = entry.span {
        sink.close(&mut part.spans, id);
    }
    if good {
        part.ok += 1;
    }
}

/// Run-wide check that no access key is ever issued twice.
#[derive(Debug)]
pub struct KeyLedger {
    seen: HashSet<u64>,
}

impl Default for KeyLedger {
    /// Sized once for any 10–15 s run: a table that doubled when a fast
    /// run crossed 28 672 keys and not when a slow one stopped short of it
    /// put a 1 MiB step into `rss_peak_mb`.
    fn default() -> Self {
        KeyLedger {
            seen: HashSet::with_capacity(1 << 17),
        }
    }
}

impl KeyLedger {
    /// Records a job's keys; returns how many had been seen before.
    pub fn absorb(&mut self, keys: &[u64]) -> u64 {
        keys.iter().filter(|k| !self.seen.insert(**k)).count() as u64
    }
}

struct Worker {
    jobs: Sender<Job>,
    parts: Receiver<Part>,
    thread: JoinHandle<()>,
}

/// The persistent client threads of one deployment (or ladder rung).
pub struct ClientPool {
    workers: Vec<Worker>,
}

impl ClientPool {
    /// One thread per manager handle.  Rungs that share one in-process
    /// backend pass clones of the same `Arc`; the served rungs pass one
    /// connection per client.
    pub fn start(
        managers: Vec<Arc<dyn ResourceManager>>,
        machines: Arc<MachineTable>,
        sink: Arc<SpanSink>,
    ) -> std::io::Result<ClientPool> {
        let workers = managers
            .into_iter()
            .enumerate()
            .map(|(index, manager)| {
                let (jobs, inbox) = channel::<Job>();
                let (outbox, parts) = channel::<Part>();
                let machines = machines.clone();
                let sink = sink.clone();
                let thread = std::thread::Builder::new()
                    .name(format!("ypbench-client-{index}"))
                    .spawn(move || {
                        // Ends when the pool drops its sender.
                        while let Ok(job) = inbox.recv() {
                            let part = run_job(manager.as_ref(), &machines, job, &sink);
                            if outbox.send(part).is_err() {
                                break;
                            }
                        }
                    })?;
                Ok(Worker {
                    jobs,
                    parts,
                    thread,
                })
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(ClientPool { workers })
    }

    /// Number of client threads.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Hands each client its job and blocks until all have finished.
    /// `jobs.len()` must equal [`ClientPool::len`].
    pub fn run(&self, jobs: Vec<Job>) -> Result<Vec<Part>, String> {
        assert_eq!(jobs.len(), self.workers.len(), "one job per client");
        for (worker, job) in self.workers.iter().zip(jobs) {
            worker
                .jobs
                .send(job)
                .map_err(|_| "client thread is gone".to_string())?;
        }
        self.workers
            .iter()
            .map(|w| {
                w.parts
                    .recv()
                    .map_err(|_| "client thread panicked".to_string())
            })
            .collect()
    }

    /// Stops and joins the client threads.
    pub fn stop(self) -> Result<(), String> {
        let mut panicked = 0;
        for worker in self.workers {
            drop(worker.jobs);
            if worker.thread.join().is_err() {
                panicked += 1;
            }
        }
        if panicked == 0 {
            Ok(())
        } else {
            Err(format!("{panicked} client thread(s) panicked"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{find, RequestStream};
    use actyp_pipeline::PipelineBuilder;

    #[test]
    fn every_outcome_is_checked_and_keys_are_unique() {
        let spec = find("lan-depth1").expect("workload");
        let fleet = crate::workload::Fleet::Striped {
            pools: 64,
            per_pool: 4,
        };
        let db = fleet.generate(3).into_shared();
        let machines = MachineTable::from_db(&db);
        let engine = PipelineBuilder::new()
            .database(db)
            .build_embedded()
            .expect("engine");
        let requests = RequestStream::new(spec, 3, 0).take(200);
        let sink = SpanSink::new();
        let part = run_job(
            &engine,
            &machines,
            Job {
                requests,
                depth: 4,
                trace_parent: None,
            },
            &sink,
        );
        assert_eq!(
            (part.attempted, part.ok),
            (200, 200),
            "{:?}",
            part.violations
        );
        assert_eq!(part.latencies.len(), 200);
        assert!(part.spans.is_empty());
        let mut ledger = KeyLedger::default();
        assert_eq!(ledger.absorb(&part.keys), 0);
        assert_eq!(
            ledger.absorb(&part.keys[..5]),
            5,
            "a reissued key is caught"
        );
        let stats = engine.stats();
        assert_eq!(stats.allocations, stats.releases);
    }

    #[test]
    fn a_machine_of_the_wrong_arch_lowers_ok_and_is_listed_by_request_id() {
        let spec = find("lan-depth1").expect("workload");
        // The daemon only has `sun` machines but the oracle's table says
        // what the requests expect, so a grant of the wrong machine (here:
        // any grant at all would be wrong, and none can be made) shows.
        let db = crate::workload::Fleet::Big { machines: 8 }
            .generate(1)
            .into_shared();
        let machines = MachineTable::from_db(&db);
        let engine = PipelineBuilder::new()
            .database(db)
            .build_embedded()
            .expect("engine");
        let requests = RequestStream::new(spec, 1, 1).take(3);
        let first = requests[0].id;
        let part = run_job(
            &engine,
            &machines,
            Job {
                requests,
                depth: 1,
                trace_parent: None,
            },
            &SpanSink::new(),
        );
        assert_eq!((part.attempted, part.ok), (3, 0));
        assert_eq!(part.violations.len(), 3);
        assert!(part.violations[0].contains(&format!("{first:#x}")));
    }
}
