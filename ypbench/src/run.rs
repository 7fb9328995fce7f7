//! One benchmark run: set-ups, warm-up, the timed pass, and — when asked —
//! the traced chunks, the layer pass and the deployment ladder; then the
//! metric table.
//!
//! End-to-end metrics always come from untraced chunks.  With `--trace 0`
//! nothing else runs, so they are measured exactly as a later change will
//! be gated on them.

use std::sync::Arc;
use std::time::{Duration, Instant};

use actyp_pipeline::{ResourceManager, StatsSnapshot};

use crate::affinity::Placement;
use crate::deploy::Deployment;
use crate::driver::{ClientPool, KeyLedger};
use crate::ladder::{Ladder, Rungs};
use crate::layers::{self, Layers};
use crate::pass::{Pass, PassContext, Summary};
use crate::stats::median;
use crate::trace::{self, SpanSink};
use crate::workload::{request_digest, RequestStream, Spec, CLIENTS};
use crate::yardstick::Yardsticks;

/// Chunks recorded with spans in a traced run.
const TRACED_CHUNKS: usize = 4;

/// Which passes a run makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `--trace 0`: set-ups and the untraced timed pass only.
    EndToEnd,
    /// `--trace 1`: one set-up, a timed pass with traced chunks and the
    /// ladder's rounds between its chunks, then the layer pass.
    Layers,
}

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, exactly as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, exactly as in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics ([`Mode::EndToEnd`] only).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics ([`Mode::Layers`] only).
    pub per_layer: Vec<Metric>,
    /// Allocations attempted, warm-up and ladder included.
    pub attempted: u64,
    /// Allocations that were not granted, verified and released.
    pub failed: u64,
    /// Violated expectations, one line each.
    pub violations: Vec<String>,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every output was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

/// Differences of the daemon's counters over the timed pass.
struct StatsDelta {
    frames_batched: f64,
    writes_coalesced: f64,
    delegations_out: f64,
    shard_contention: f64,
    route_hits: f64,
    route_misses: f64,
    peer_redials: f64,
}

impl StatsDelta {
    fn between(a: &StatsSnapshot, b: &StatsSnapshot) -> Self {
        let d = |x: u64, y: u64| y.saturating_sub(x) as f64;
        StatsDelta {
            frames_batched: d(a.frames_batched, b.frames_batched),
            writes_coalesced: d(a.writes_coalesced, b.writes_coalesced),
            delegations_out: d(a.delegations_out, b.delegations_out),
            shard_contention: d(a.shard_contention, b.shard_contention),
            route_hits: d(a.route_hits, b.route_hits),
            route_misses: d(a.route_misses, b.route_misses),
            peer_redials: d(a.peer_redials, b.peer_redials),
        }
    }
}

/// `setups` complete set-ups, each timed in raw seconds; all but the last
/// are torn down again.
fn timed_setups(
    spec: &Spec,
    seed: u64,
    setups: usize,
    placement: &Placement,
) -> Result<(Deployment, Vec<f64>), String> {
    let mut setup_s = Vec::new();
    loop {
        let started = Instant::now();
        let deployment = Deployment::start(spec, seed, placement)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if setup_s.len() == setups {
            return Ok((deployment, setup_s));
        }
        deployment.stop()?;
    }
}

/// Runs `spec` once.  `seconds` is how long the run *measures*: the timed
/// pass in [`Mode::EndToEnd`]; the timed pass with the ladder's rounds
/// between its chunks, and the layer pass, in [`Mode::Layers`].
pub fn run(
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    mode: Mode,
    placement: &Placement,
) -> Result<Outcome, String> {
    let seconds = Duration::from_secs(seconds);
    let mut outcome = Outcome::default();
    let mut yardsticks = Yardsticks::start(placement).map_err(|e| format!("yardsticks: {e}"))?;
    let sink = Arc::new(SpanSink::new());
    let setups = match mode {
        Mode::EndToEnd => spec.setups,
        Mode::Layers => 1,
    };
    let (deployment, setup_s) = timed_setups(spec, seed, setups, placement)?;

    let managers = deployment
        .clients
        .iter()
        .map(|c| c.clone() as Arc<dyn ResourceManager>)
        .collect();
    let clients = ClientPool::start(managers, deployment.machines.clone(), sink.clone())
        .map_err(|e| format!("client threads: {e}"))?;
    let mut streams: Vec<RequestStream> = (0..CLIENTS)
        .map(|client| RequestStream::new(spec, seed, client))
        .collect();
    let mut ledger = KeyLedger::default();
    let mut ctx = PassContext {
        spec,
        streams: &mut streams,
        yardsticks: &mut yardsticks,
        sink: &sink,
        ledger: &mut ledger,
    };

    let mut ladder = match mode {
        Mode::EndToEnd => None,
        Mode::Layers => Some(Ladder::start(spec, seed, &deployment.machines, placement)?),
    };
    // A traced chunk is compared with the untraced chunks beside it, so
    // a traced pass needs twice as many chunks as it traces.  Its budget
    // covers the ladder's rounds too, which a chunk count planned from it
    // does not: a count-bounded workload plans from half as much.
    let layers_share = if spec.chunks_per_second > 0 { 0.4 } else { 0.8 };
    let (budget, min_chunks, traced_chunks) = match mode {
        Mode::EndToEnd => (seconds, spec.min_chunks, 0),
        Mode::Layers => (
            seconds.mul_f64(layers_share),
            2 * TRACED_CHUNKS,
            TRACED_CHUNKS,
        ),
    };
    let warm = Pass::warm_up(&mut ctx, &clients, spec.warmup_allocs)?;
    let before = deployment.stats();
    let timed = Pass::run_timed(
        &mut ctx,
        &clients,
        budget,
        min_chunks,
        traced_chunks,
        &mut |yardsticks, sample| match &mut ladder {
            Some(ladder) => ladder.round(yardsticks, sample),
            None => Ok(sample),
        },
    )?;
    let delta = StatsDelta::between(&before, &deployment.stats());
    let rss_peak_mb = timed.rss_peak_mb;
    let summary = timed.summary(spec.yardstick);
    let mut passes = [warm, timed];

    // Oracle: every never-seen signature became exactly one pool.
    let novel: u64 = streams.iter().map(RequestStream::novel_generated).sum();
    let pools_created = deployment
        .pool_instances()
        .saturating_sub(deployment.base_pools) as u64;
    if pools_created != novel {
        outcome.violations.push(format!(
            "{pools_created} pools created for {novel} never-seen signatures"
        ));
    }

    let mut extra: Option<(Layers, Rungs)> = None;
    if let Some(ladder) = ladder {
        let rungs = ladder.finish()?;
        let layers = layers::run(spec, seed, &streams[0], seconds.mul_f64(0.15))?;
        let spans = &passes[1].spans;
        let path = trace::write(spec.name, seed, spans)?;
        outcome.notes.push(format!(
            "{} spans of {TRACED_CHUNKS} traced chunks -> {}",
            spans.len(),
            path.display()
        ));
        extra = Some((layers, rungs));
    }

    let generate_s = deployment.generate_s;
    outcome.violations.extend(clients.stop().err());
    outcome.violations.extend(deployment.stop().err());
    drop(yardsticks);

    for pass in &mut passes {
        outcome.attempted += pass.attempted;
        outcome.failed += pass.attempted - pass.ok;
        outcome.violations.append(&mut pass.violations);
    }
    outcome.notes.push(format!(
        "request list digest {:#018x} (first 1000 requests of each client)",
        request_digest(spec, seed, 1000)
    ));
    outcome.notes.push(format!(
        "{} set-ups; {} untraced chunks of {} allocations, {} clients x depth {}, yardstick {}",
        setup_s.len(),
        summary.chunks,
        spec.chunk_allocs,
        CLIENTS,
        spec.depth,
        spec.yardstick.name()
    ));

    match extra {
        None => {
            outcome.end_to_end = vec![
                m("ctxsw_per_alloc", summary.ctxsw_per_alloc, "count"),
                m("syscalls_per_alloc", summary.syscalls_per_alloc, "count"),
                m("setup_s", median(&setup_s), "s"),
                m("rss_peak_mb", rss_peak_mb, "MiB"),
            ];
        }
        Some((layers, mut rungs)) => {
            outcome.attempted += rungs.attempted;
            outcome.failed += rungs.attempted - rungs.ok;
            outcome.violations.append(&mut rungs.violations);
            let measured = Measured {
                summary: &summary,
                delta: &delta,
                layers: &layers,
                rungs: &rungs,
                pools_created,
                generate_s,
                ok_ratio: (outcome.attempted - outcome.failed) as f64 / outcome.attempted as f64,
            };
            outcome.per_layer = per_layer(&measured);
        }
    }
    Ok(outcome)
}

/// Everything the per-layer table is built from.
struct Measured<'a> {
    summary: &'a Summary,
    delta: &'a StatsDelta,
    layers: &'a Layers,
    rungs: &'a Rungs,
    pools_created: u64,
    generate_s: f64,
    ok_ratio: f64,
}

fn per_layer(measured: &Measured<'_>) -> Vec<Metric> {
    let Measured {
        summary: s,
        delta: d,
        layers: l,
        rungs: ladder,
        pools_created,
        generate_s,
        ok_ratio,
    } = *measured;
    let lx = |name: &'static str| m(name, l.median(name), "x");
    let allocs = s.pass_allocs.max(1) as f64;
    let routed = d.route_hits + d.route_misses;
    let federation_self = ladder.federation_x.map_or(0.0, |f| f - ladder.remote_x);
    vec![
        lx("query.parse_x"),
        lx("query.render_x"),
        lx("query.match_x_per_machine"),
        lx("proto.encode_submit_x"),
        lx("proto.decode_submit_x"),
        lx("proto.encode_outcome_x"),
        lx("proto.decode_outcome_x"),
        m(
            "proto.wire_bytes_per_alloc",
            l.median("proto.wire_bytes_per_alloc"),
            "B",
        ),
        lx("grid.walk_x_per_machine"),
        m("grid.generate_s", generate_s, "s"),
        lx("query_manager.prepare_x"),
        lx("query_manager.reintegrate_x"),
        lx("directory.lookup_x"),
        lx("directory.register_x"),
        m(
            "directory.shard_contention_per_alloc",
            d.shard_contention / allocs,
            "count",
        ),
        lx("pool_manager.handle_hit_x"),
        lx("pool_manager.handle_create_x"),
        m("pool_manager.pools_created", pools_created as f64, "count"),
        lx("resource_pool.allocate_release_x"),
        lx("scheduler.select_x"),
        m(
            "scheduler.examined_per_alloc",
            s.examined_per_alloc,
            "count",
        ),
        m("engine.alloc_x", ladder.engine_x, "x"),
        m("live.self_x", ladder.live_x - ladder.engine_x, "x"),
        m("remote.self_x", ladder.remote_x - ladder.live_x, "x"),
        m("federation.self_x", federation_self, "x"),
        m("ladder.sum_over_p50", ladder.top_x() / s.p50_x, "ratio"),
        m(
            "reactor.frames_batched_per_alloc",
            d.frames_batched / allocs,
            "count",
        ),
        m(
            "remote.writes_coalesced_per_alloc",
            d.writes_coalesced / allocs,
            "count",
        ),
        m(
            "federation.delegations_per_alloc",
            d.delegations_out / allocs,
            "count",
        ),
        m(
            "federation.route_hit_ratio",
            if routed > 0.0 {
                d.route_hits / routed
            } else {
                0.0
            },
            "ratio",
        ),
        m("federation.peer_redials", d.peer_redials, "count"),
        m("client.p50_x", s.p50_x, "x"),
        m("client.wall_x", s.wall_x, "x"),
        m("client.alloc_per_s", s.alloc_per_s, "1/s"),
        m("client.p50_ms", s.p50_ms, "ms"),
        m("client.p99_ms", s.p99_ms, "ms"),
        m("client.p99_x", s.p99_x, "x"),
        m("client.max_ms", s.max_ms, "ms"),
        m("client.submit_x", s.submit_x, "x"),
        m("client.wait_x", s.wait_x, "x"),
        m("client.release_x", s.release_x, "x"),
        m("client.cpu_us_per_alloc", s.cpu_us_per_alloc, "us"),
        m("client.runq_wait_ratio", s.runq_wait_ratio, "ratio"),
        m("client.ok_ratio", ok_ratio, "ratio"),
        m("yardstick.echo_us", s.echo_us, "us"),
        m("yardstick.spin_ms", s.spin_ms, "ms"),
        m("yardstick.spread", s.yardstick_spread, "ratio"),
        m("trace.overhead_ratio", s.trace_overhead_ratio, "ratio"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::find;
    use actyp_bench::json::{self, Json};

    fn value(metrics: &[Metric], name: &str) -> f64 {
        metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} not reported"))
            .value
    }

    fn declared(doc: &Json, section: &str) -> Vec<(String, String)> {
        doc.get(section)
            .and_then(Json::as_arr)
            .expect("section")
            .iter()
            .map(|e| {
                let field = |k| e.get(k).and_then(Json::as_str).expect("field").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn reported(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    /// One full run of `lan-depth1`: the tables match `BENCHMARK.json`
    /// name for name and unit for unit, the ladder accounts for the
    /// end-to-end p50, the span file nests, and the workload loads the
    /// layer it was built for and no other.
    #[test]
    fn lan_depth1_reports_what_benchmark_json_declares_and_the_ladder_adds_up() {
        let _serial = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let spec = find("lan-depth1").expect("workload");
        let placement = Placement::detect();
        let gated = run(spec, 0x42, 1, Mode::EndToEnd, &placement);
        let outcome = run(spec, 0x42, 5, Mode::Layers, &placement);
        let (gated, outcome) = (gated.expect("run"), outcome.expect("run"));
        assert!(gated.correct(), "{:?}", gated.violations);
        assert!(outcome.correct(), "{:?}", outcome.violations);

        let doc =
            json::parse(&std::fs::read_to_string(crate::benchmark_json()).expect("BENCHMARK.json"))
                .expect("valid JSON");
        assert_eq!(reported(&gated.end_to_end), declared(&doc, "end_to_end"));
        assert!(gated.per_layer.is_empty() && outcome.end_to_end.is_empty());
        assert_eq!(reported(&outcome.per_layer), declared(&doc, "per_layer"));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);

        assert!(gated.end_to_end.iter().all(|m| m.value > 0.0));
        let ratio = value(&outcome.per_layer, "ladder.sum_over_p50");
        assert!(
            (0.85..=1.15).contains(&ratio),
            "ladder.sum_over_p50 = {ratio}"
        );
        assert_eq!(
            value(&outcome.per_layer, "federation.delegations_per_alloc"),
            0.0
        );
        assert_eq!(
            value(&outcome.per_layer, "scheduler.examined_per_alloc"),
            128.0
        );
        assert_eq!(value(&outcome.per_layer, "client.ok_ratio"), 1.0);
        // Every module the layer pass times reported a time.
        for metric in outcome.per_layer.iter().filter(|m| m.unit == "x") {
            assert!(
                metric.value > 0.0 || metric.name == "federation.self_x",
                "{} = {}",
                metric.name,
                metric.value
            );
        }

        let trace = std::fs::read_to_string(trace::out_dir().join("trace-lan-depth1.json"))
            .expect("span file written");
        let spans = trace::validate(&trace).expect("span file nests");
        // Four traced chunks of 1000 allocations: a chunk span each, and
        // alloc + submit + wait + release per allocation.
        assert_eq!(spans, TRACED_CHUNKS * (1 + 4 * 1000));
    }

    /// `bigpool-scan` really loads the scheduling process: the ladder adds
    /// up there too, and each allocation examines the whole 4096-machine
    /// pool (32x `lan-depth1`'s 128).
    #[test]
    fn bigpool_scan_loads_the_scheduler_and_its_ladder_adds_up() {
        let _serial = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let outcome = run(
            find("bigpool-scan").expect("workload"),
            0x42,
            5,
            Mode::Layers,
            &Placement::detect(),
        );
        let outcome = outcome.expect("run");
        assert!(outcome.correct(), "{:?}", outcome.violations);
        assert!(outcome.end_to_end.is_empty());
        let ratio = value(&outcome.per_layer, "ladder.sum_over_p50");
        assert!(
            (0.85..=1.15).contains(&ratio),
            "ladder.sum_over_p50 = {ratio}"
        );
        assert_eq!(
            value(&outcome.per_layer, "scheduler.examined_per_alloc"),
            4096.0
        );
    }

    /// `pool-churn`: every never-seen signature becomes exactly one pool;
    /// `wan-delegate`: every allocation is delegated, and only there.
    #[test]
    fn churn_creates_one_pool_per_novel_signature_and_wan_delegates_everything() {
        let _serial = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let placement = Placement::detect();
        let churn = run(
            find("pool-churn").expect("workload"),
            7,
            1,
            Mode::EndToEnd,
            &placement,
        );
        let wan = run(
            find("wan-delegate").expect("workload"),
            7,
            1,
            Mode::Layers,
            &placement,
        );
        let (churn, wan) = (churn.expect("run"), wan.expect("run"));
        // The pools-created oracle is a violation when it fails.
        assert!(churn.correct(), "{:?}", churn.violations);
        assert!(wan.correct(), "{:?}", wan.violations);
        let delegated = value(&wan.per_layer, "federation.delegations_per_alloc");
        assert!(
            (1.0..1.01).contains(&delegated),
            "{delegated} delegations per allocation"
        );
        assert!(value(&wan.per_layer, "federation.self_x") > 0.0);
    }
}
