//! The layer pass: each module's public functions timed from outside, on
//! the workload's own requests.
//!
//! Single threaded, so a figure is the module's service time with nothing
//! contending.  Each batch samples the `spin` yardstick before and after
//! and times every operation once over the batch's requests; a metric is
//! the median over batches of `seconds per unit ÷ spin seconds`.  These
//! are the numbers a change to one module should move first; whether the
//! change then shows end to end is the ladder's and the timed pass's
//! question, not this one's.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use actyp_pipeline::directory::{LocalDirectoryService, PoolInstanceRecord, ShardedDirectory};
use actyp_pipeline::scheduler::ScheduleRequest;
use actyp_pipeline::{
    HandleOutcome, PoolManager, PoolManagerConfig, PoolManagerSelection, QueryManager,
    ReintegrationPolicy, ReplicaBias, RequestId, RequestIdGenerator, ResourcePool, Scheduler,
    SchedulingObjective, StageAddress,
};
use actyp_proto::{Allocation, ClientFrame, ServerFrame, WireDecode, WireEncode};
use actyp_query::{matches_machine, parse_query, BasicQuery, PoolName, QuerySchema};

use crate::stats::median;
use crate::workload::{RequestStream, Spec};
use crate::yardstick::spin_sample;

/// Fewest batches the pass may end with.
const MIN_BATCHES: usize = 20;
/// Requests per batch.
const BATCH: usize = 64;
/// Hour of virtual day the pipeline's default configuration uses.
const HOUR: u8 = 12;

/// Per-batch samples of every layer metric, by the metric's name in
/// `BENCHMARK.json`.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    batches: usize,
}

impl Layers {
    /// Records `seconds` spent on `units` units while one spin took
    /// `spin` seconds.
    fn push(&mut self, name: &'static str, seconds: f64, units: usize, spin: f64) {
        if units > 0 {
            self.samples
                .entry(name)
                .or_default()
                .push(seconds / units as f64 / spin);
        }
    }

    /// The metric: median over batches (0 if it was never measured).
    pub fn median(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| median(v))
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let value = f();
    (started.elapsed().as_secs_f64(), value)
}

fn frame_len(frame: &impl WireEncode) -> Result<usize, String> {
    frame
        .to_wire_bytes()
        .map(|b| b.len() + 4)
        .map_err(|e| format!("encode: {e}"))
}

/// Runs the layer pass for about `budget` on requests continuing
/// `stream`.
pub fn run(
    spec: &'static Spec,
    seed: u64,
    stream: &RequestStream,
    budget: Duration,
) -> Result<Layers, String> {
    let db = spec.fleet.generate(seed).into_shared();
    let machines = db.read().len();
    let directory = LocalDirectoryService::new().into_shared();
    let mut pool_manager = PoolManager::new(
        "pm-layer",
        db.clone(),
        directory.clone(),
        PoolManagerConfig::default(),
        seed,
    );
    let mut query_manager = QueryManager::new(
        "qm-layer",
        QuerySchema::punch_default().permissive(),
        PoolManagerSelection::RoundRobin,
        16,
        Arc::new(RequestIdGenerator::new()),
        seed,
    );
    let base_query = |arch: &str| -> BasicQuery {
        parse_query(&format!("punch.rsrc.arch = {arch}\n"))
            .expect("well formed")
            .decompose(1)
            .remove(0)
    };
    // First touch, as in set-up: every base pool exists before timing.
    for k in 0..spec.fleet.pools() {
        let basic = base_query(&spec.fleet.arch(k));
        match pool_manager.handle(RequestId(k as u64), &basic, HOUR) {
            HandleOutcome::Allocated(a) => pool_manager
                .release(&a)
                .map_err(|e| format!("layer first touch: {e}"))?,
            other => return Err(format!("layer first touch: {other:?}")),
        }
    }
    let probe = base_query(&spec.fleet.arch(0));
    let mut pool = ResourcePool::create(
        PoolName::from_query(&probe),
        1,
        ReplicaBias::none(),
        db.clone(),
        SchedulingObjective::LeastLoaded,
        seed,
    )
    .map_err(|e| format!("layer pool: {e}"))?;
    let mut scheduler = Scheduler::new(SchedulingObjective::LeastLoaded, ReplicaBias::none(), seed);

    let mut stream = stream.clone();
    let mut next_request = 1u64 << 32;
    let mut novel = 0u64;
    let mut layers = Layers::default();
    let started = Instant::now();

    while started.elapsed() < budget || layers.batches < MIN_BATCHES {
        let requests = stream.take(BATCH);
        let spin_before = spin_sample();

        let (render_t, texts) = timed(|| {
            requests
                .iter()
                .map(|r| r.query.to_string())
                .collect::<Vec<_>>()
        });
        let (parse_t, _) = timed(|| {
            for text in &texts {
                black_box(parse_query(black_box(text)).expect("round trip"));
            }
        });
        let (prepare_t, prepared) = timed(|| {
            requests
                .iter()
                .map(|r| query_manager.prepare(&r.query))
                .collect::<Result<Vec<_>, _>>()
        });
        let prepared = prepared.map_err(|e| format!("prepare: {e}"))?;
        // Known signatures only: creation has its own metric below.
        let basics: Vec<&BasicQuery> = prepared
            .iter()
            .zip(&requests)
            .filter(|(_, r)| r.min_memory == 0.0)
            .map(|(p, _)| &p.fragments[0].1)
            .collect();

        let mut granted: Vec<Allocation> = Vec::with_capacity(basics.len());
        let (hit_t, outcome) = timed(|| -> Result<(), String> {
            for basic in &basics {
                next_request += 1;
                match pool_manager.handle(RequestId(next_request), basic, HOUR) {
                    HandleOutcome::Allocated(a) => granted.push(a),
                    other => return Err(format!("handle: {other:?}")),
                }
            }
            Ok(())
        });
        outcome?;

        let results: Vec<_> = granted.iter().map(|a| vec![Ok(a.clone())]).collect();
        let (reintegrate_t, _) = timed(|| {
            for result in results {
                black_box(query_manager.reintegrate(result, ReintegrationPolicy::All)).ok();
            }
        });

        let submits: Vec<ClientFrame> = texts
            .iter()
            .enumerate()
            .map(|(i, text)| ClientFrame::Submit {
                corr: RequestId(i as u64),
                query: text.clone(),
            })
            .collect();
        let outcomes: Vec<ServerFrame> = granted
            .iter()
            .enumerate()
            .map(|(i, a)| ServerFrame::Outcome {
                corr: RequestId(i as u64),
                outcome: Ok(vec![a.clone()]),
            })
            .collect();
        let (enc_submit_t, submit_bytes) = encode_all(&submits);
        let submit_bytes = submit_bytes?;
        let (dec_submit_t, decoded) = timed(|| {
            submit_bytes
                .iter()
                .all(|b| black_box(ClientFrame::from_wire_bytes(b)).is_ok())
        });
        let (enc_outcome_t, outcome_bytes) = encode_all(&outcomes);
        let outcome_bytes = outcome_bytes?;
        let (dec_outcome_t, decoded_too) = timed(|| {
            outcome_bytes
                .iter()
                .all(|b| black_box(ServerFrame::from_wire_bytes(b)).is_ok())
        });
        if !(decoded && decoded_too) {
            return Err("a frame the encoder produced did not decode".to_string());
        }
        if let (Some(a), Some(text)) = (granted.first(), texts.first()) {
            let corr = RequestId(0);
            let bytes = frame_len(&ClientFrame::Submit {
                corr,
                query: text.clone(),
            })? + frame_len(&ServerFrame::Submitted { corr, ticket: 1 })?
                + frame_len(&ClientFrame::Wait {
                    corr,
                    ticket: 1,
                    deadline_ms: None,
                })?
                + frame_len(&ServerFrame::Outcome {
                    corr,
                    outcome: Ok(vec![a.clone()]),
                })?
                + frame_len(&ClientFrame::Release {
                    corr,
                    allocation: a.clone(),
                })?
                + frame_len(&ServerFrame::Released { corr })?;
            // A count, not a time: one "unit" at yardstick 1.
            layers.push("proto.wire_bytes_per_alloc", bytes as f64, 1, 1.0);
        }
        let names: Vec<String> = granted.iter().map(|a| a.pool.clone()).collect();
        for a in &granted {
            pool_manager
                .release(a)
                .map_err(|e| format!("layer release: {e}"))?;
        }

        let (lookup_t, _) = timed(|| {
            for name in &names {
                black_box(directory.instances(black_box(name)));
            }
        });
        let scratch = ShardedDirectory::new();
        let records: Vec<PoolInstanceRecord> = (0..BATCH)
            .map(|i| PoolInstanceRecord {
                pool: format!(
                    "arch:memory,==:>=/arch{}:{}",
                    i % 64,
                    layers.batches * BATCH + i
                ),
                instance: 0,
                manager: "pm-layer".to_string(),
                address: StageAddress::new("actyp-host", 7300),
            })
            .collect();
        let (register_t, _) = timed(|| {
            for record in records {
                scratch.register_pool(record);
            }
        });

        // Only the creating `handle` is timed; handing the machine back
        // and dissolving the pool keep the manager's table from growing.
        let (mut create_t, mut created) = (0.0, 0);
        for _ in 0..2 {
            novel += 1;
            let basic = parse_query(&format!(
                "punch.rsrc.arch = {}\npunch.rsrc.memory = >={}\n",
                spec.fleet.arch(novel as usize % spec.fleet.pools()),
                novel as f64 / 1024.0
            ))
            .expect("well formed")
            .decompose(1)
            .remove(0);
            next_request += 1;
            let (t, outcome) = timed(|| pool_manager.handle(RequestId(next_request), &basic, HOUR));
            match outcome {
                HandleOutcome::Allocated(a) => {
                    create_t += t;
                    created += 1;
                    pool_manager
                        .release(&a)
                        .map_err(|e| format!("layer release: {e}"))?;
                    pool_manager.destroy_pool(&a.pool, a.pool_instance);
                }
                other => return Err(format!("create: {other:?}")),
            }
        }

        let (alloc_release_t, outcome) = timed(|| -> Result<(), String> {
            for _ in 0..16 {
                next_request += 1;
                let a = pool
                    .allocate(RequestId(next_request), &probe, HOUR)
                    .map_err(|e| format!("pool allocate: {e}"))?;
                pool.release(&a).map_err(|e| format!("pool release: {e}"))?;
            }
            Ok(())
        });
        outcome?;

        let guard = db.read();
        let request = ScheduleRequest {
            query: &probe,
            hour_of_day: HOUR,
        };
        let (select_t, outcome) = timed(|| {
            (0..16).try_for_each(|_| {
                scheduler
                    .select(pool.cached_machines(), &guard, &request)
                    .map(|o| {
                        black_box(o);
                    })
            })
        });
        outcome.map_err(|e| format!("select: {e}"))?;
        let (match_t, _) = timed(|| {
            for machine in guard.iter() {
                black_box(matches_machine(&probe, machine));
            }
        });
        let (walk_t, walked) =
            timed(|| guard.walk(|m| matches_machine(&probe, m).is_match()).len());
        drop(guard);
        black_box(walked);

        let spin = (spin_before + spin_sample()) / 2.0;
        let mut push = |name, seconds, units| layers.push(name, seconds, units, spin);
        push("query.render_x", render_t, texts.len());
        push("query.parse_x", parse_t, texts.len());
        push("query_manager.prepare_x", prepare_t, requests.len());
        push("pool_manager.handle_hit_x", hit_t, basics.len());
        push("query_manager.reintegrate_x", reintegrate_t, granted.len());
        push("proto.encode_submit_x", enc_submit_t, submits.len());
        push("proto.decode_submit_x", dec_submit_t, submits.len());
        push("proto.encode_outcome_x", enc_outcome_t, outcomes.len());
        push("proto.decode_outcome_x", dec_outcome_t, outcomes.len());
        push("directory.lookup_x", lookup_t, names.len());
        push("directory.register_x", register_t, BATCH);
        push("pool_manager.handle_create_x", create_t, created);
        push("resource_pool.allocate_release_x", alloc_release_t, 16);
        push("scheduler.select_x", select_t, 16);
        push("query.match_x_per_machine", match_t, machines);
        push("grid.walk_x_per_machine", walk_t, machines);
        layers.batches += 1;
    }
    Ok(layers)
}

fn encode_all<F: WireEncode>(frames: &[F]) -> (f64, Result<Vec<Vec<u8>>, String>) {
    timed(|| {
        frames
            .iter()
            .map(|f| f.to_wire_bytes().map_err(|e| format!("encode: {e}")))
            .collect()
    })
}
