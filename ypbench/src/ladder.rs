//! The deployment ladder: the same requests through four nested
//! deployments of the same stages, so each layer's cost is a difference
//! of two end-to-end figures rather than a clock inside the program.
//!
//! ```text
//! engine      EmbeddedBackend   all three stages, caller's thread
//!   ⊂ live    LiveBackend       + stage-thread hops, admission window
//!   ⊂ remote  RemoteBackend     + proto, reactor, session, lanes
//!   ⊂ federation                + one delegation hop (wan-delegate only)
//! ```
//!
//! Every rung is its own deployment over its own copy of the workload's
//! fleet, driven with the workload's own load shape (two clients at its
//! depth) on one shared request list, and expressed in the workload's
//! yardstick.  A rung's *self* figure is its median p50 minus the rung
//! beneath it, so the self figures sum to the top rung's p50 — and the
//! top rung is configured exactly like the deployment the end-to-end
//! pass measures.  `ladder.sum_over_p50` compares the two.
//!
//! The host drifts between faster and slower phases within seconds, so
//! the ladder does not run after the timed pass but *between its chunks*:
//! one round (a batch on every rung) follows each chunk, and both
//! medians are taken over the same stretch of time.

use std::sync::Arc;

use actyp_pipeline::ResourceManager;

use crate::affinity::Placement;
use crate::deploy::{inprocess_rungs, Deployment};
use crate::driver::{ClientPool, Job};
use crate::stats::median;
use crate::trace::SpanSink;
use crate::workload::{MachineTable, RequestStream, Spec, CLIENTS};
use crate::yardstick::{Sample, Yardsticks};

/// Seed offset of the ladder's request list, so it does not replay the
/// timed pass's.
const LADDER_SEED: u64 = 0x1add_e500;

/// Median p50 latency of each rung, in the workload's yardstick.
#[derive(Debug, Default)]
pub struct Rungs {
    /// `EmbeddedBackend`.
    pub engine_x: f64,
    /// `LiveBackend`.
    pub live_x: f64,
    /// `RemoteBackend` over a served Live daemon.
    pub remote_x: f64,
    /// Through a delegating entry daemon (`None` off `wan-delegate`).
    pub federation_x: Option<f64>,
    /// Requests attempted over all rungs.
    pub attempted: u64,
    /// Requests granted, verified and released.
    pub ok: u64,
    /// Violated expectations.
    pub violations: Vec<String>,
}

impl Rungs {
    /// p50 of the top rung = Σ self figures.
    pub fn top_x(&self) -> f64 {
        self.federation_x.unwrap_or(self.remote_x)
    }
}

struct Rung {
    clients: ClientPool,
    streams: Vec<RequestStream>,
    p50_x: Vec<f64>,
}

/// The running ladder.
pub struct Ladder {
    spec: &'static Spec,
    rungs: Vec<Rung>,
    engine: Arc<dyn ResourceManager>,
    live: Arc<dyn ResourceManager>,
    served: Vec<Deployment>,
    result: Rungs,
    /// The first round warms the rungs up and is discarded.
    warm: bool,
}

impl Ladder {
    /// Builds every rung.  `machines` describes the workload's fleet (all
    /// rungs generate the same one from `seed`).
    pub fn start(
        spec: &'static Spec,
        seed: u64,
        machines: &Arc<MachineTable>,
        placement: &Placement,
    ) -> Result<Ladder, String> {
        let sink = Arc::new(SpanSink::new());
        let pool = |managers: Vec<Arc<dyn ResourceManager>>| {
            ClientPool::start(managers, machines.clone(), sink.clone())
                .map_err(|e| format!("ladder clients: {e}"))
        };
        let [engine, live] = inprocess_rungs(spec, seed, placement)?;
        let mut pools = vec![
            pool(vec![engine.clone(); CLIENTS])?,
            pool(vec![live.clone(); CLIENTS])?,
        ];
        let mut served = vec![Deployment::start_as(spec, seed, false, placement)?];
        if spec.federated {
            served.push(Deployment::start_as(spec, seed, true, placement)?);
        }
        for deployment in &served {
            pools.push(pool(
                deployment
                    .clients
                    .iter()
                    .map(|c| c.clone() as Arc<dyn ResourceManager>)
                    .collect(),
            )?);
        }
        let streams: Vec<RequestStream> = (0..CLIENTS)
            .map(|client| RequestStream::new(spec, seed ^ LADDER_SEED, client))
            .collect();
        Ok(Ladder {
            spec,
            rungs: pools
                .into_iter()
                .map(|clients| Rung {
                    clients,
                    streams: streams.clone(),
                    p50_x: Vec::new(),
                })
                .collect(),
            engine,
            live,
            served,
            result: Rungs::default(),
            warm: true,
        })
    }

    /// One round: a batch on every rung, the yardsticks sampled around
    /// each batch exactly as around a chunk of the timed pass (neighbours
    /// share a sample).  Takes the sample preceding the round and returns
    /// the one following it.
    pub fn round(
        &mut self,
        yardsticks: &mut Yardsticks,
        mut before: Sample,
    ) -> Result<Sample, String> {
        let spec = self.spec;
        let batch = (spec.chunk_allocs / 2).max(2 * CLIENTS * spec.depth);
        for rung in &mut self.rungs {
            let jobs = rung
                .streams
                .iter_mut()
                .map(|s| Job {
                    requests: s.take(batch / CLIENTS),
                    depth: spec.depth,
                    trace_parent: None,
                })
                .collect();
            let mut latencies = Vec::with_capacity(batch);
            for mut part in rung.clients.run(jobs)? {
                self.result.attempted += part.attempted;
                self.result.ok += part.ok;
                self.result.violations.append(&mut part.violations);
                latencies.append(&mut part.latencies);
            }
            let after = yardsticks.sample()?;
            if !self.warm {
                let yard = spec.yardstick.between(&before, &after);
                rung.p50_x.push(median(&latencies) / yard);
            }
            before = after;
        }
        self.warm = false;
        Ok(before)
    }

    /// Tears every rung down, checks their books, and returns the medians.
    pub fn finish(self) -> Result<Rungs, String> {
        let mut result = self.result;
        let medians: Vec<f64> = self.rungs.iter().map(|r| median(&r.p50_x)).collect();
        result.engine_x = medians[0];
        result.live_x = medians[1];
        result.remote_x = medians[2];
        result.federation_x = medians.get(3).copied();

        let mut problems = Vec::new();
        for rung in self.rungs {
            problems.extend(rung.clients.stop().err());
        }
        for (name, manager) in [("engine", &self.engine), ("live", &self.live)] {
            let stats = manager.stats();
            if stats.allocations != stats.releases {
                problems.push(format!("{name} rung: books do not balance"));
            }
            problems.extend(
                manager
                    .shutdown()
                    .err()
                    .map(|e| format!("{name} rung: {e}")),
            );
        }
        for deployment in self.served {
            problems.extend(deployment.stop().err());
        }
        if problems.is_empty() {
            Ok(result)
        } else {
            Err(problems.join("; "))
        }
    }
}
