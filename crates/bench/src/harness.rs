//! # Benchmark artifacts — `BENCH_<topic>.json`
//!
//! The tracked-artifact layer over the figure sweeps in the crate root and
//! over a live-daemon load generator: every *topic* (one per paper figure,
//! plus the daemon-saturation sweeps) runs to a [`BenchArtifact`] —
//! per-point throughput and latency percentiles — that serializes to
//! `BENCH_<topic>.json` via the hand-rolled [`crate::json`] writer and is
//! committed under `benchmarks/` at quick scale.
//!
//! Two kinds of topic with different regression semantics:
//!
//! * [`ArtifactKind::Simulated`] — deterministic virtual-time simulations
//!   (`fig4`..`fig9`).  The same seed reproduces the same numbers on any
//!   machine, so [`compare`] enforces tolerance bands: fresh latency may
//!   not exceed the committed value by more than the tolerance, fresh
//!   throughput may not fall below it by more than the tolerance.
//! * [`ArtifactKind::Measured`] — wall-clock runs of a real `ypd` over
//!   loopback (the `saturation_*` topics).  Absolute numbers depend on the
//!   host, so [`compare`] checks structure instead: the same point set,
//!   ordered percentiles, nonzero throughput.
//!
//! Regenerate everything at quick scale with
//! `ACTYP_QUICK=1 cargo run --release -p actyp-bench --bin bench_artifacts -- emit`
//! and gate a change with `… -- check` (exits nonzero on regression).
//! EXPERIMENTS.md walks through each topic.

use std::collections::VecDeque;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use actyp_grid::{FleetSpec, SyntheticFleet};
use actyp_pipeline::{
    BackendKind, FederatedBackend, FederationConfig, PipelineBuilder, RemoteBackend,
    ResourceManager, ServerHandle, StageAddress,
};
use actyp_simnet::{Rng, SampleSet};
use actyp_workload::CpuTimeDistribution;

use crate::json::{self, Json};
use crate::{FigureRuns, FigureSeries, Scale};

/// Artifact schema version; bump when the JSON layout changes shape.
pub const SCHEMA_VERSION: u64 = 1;

/// Every topic the harness knows, in emission order: the six paper
/// figures, then the daemon-saturation sweeps.
pub const TOPICS: &[&str] = &[
    "fig4_pools_lan",
    "fig5_pools_wan",
    "fig6_pool_size",
    "fig7_splitting",
    "fig8_replication",
    "fig9_cputime_dist",
    "saturation_pipelining",
    "saturation_idle",
    "saturation_backends",
    "routing",
];

/// How a topic's numbers were obtained, which decides how [`compare`]
/// judges a fresh run against the committed artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// Deterministic virtual-time simulation: same seed, same numbers —
    /// compared within tolerance bands.
    Simulated,
    /// Wall-clock measurement of a real daemon: host-dependent — compared
    /// structurally.
    Measured,
}

impl ArtifactKind {
    fn as_str(self) -> &'static str {
        match self {
            ArtifactKind::Simulated => "simulated",
            ArtifactKind::Measured => "measured",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "simulated" => Ok(ArtifactKind::Simulated),
            "measured" => Ok(ArtifactKind::Measured),
            other => Err(format!("unknown artifact kind `{other}`")),
        }
    }
}

/// One measured point of a sweep: a `(series, x)` cell with its throughput
/// and latency percentiles.  For the simulated figures `throughput` is
/// completed queries per virtual second and the latency fields are response
/// times; for `fig9_cputime_dist` the latency fields are quantiles of the
/// CPU-time distribution itself; for the saturation topics everything is
/// wall-clock as observed by the load-generator clients.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchPoint {
    /// Curve this point belongs to (a column of the figure).
    pub series: String,
    /// Position on the x axis.
    pub x: f64,
    /// Completed requests per second.
    pub throughput: f64,
    /// Mean latency, seconds.
    pub mean: f64,
    /// Median latency, seconds.
    pub p50: f64,
    /// 95th-percentile latency, seconds.
    pub p95: f64,
    /// 99th-percentile latency, seconds.
    pub p99: f64,
}

/// A full benchmark artifact: the unit serialized as `BENCH_<topic>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArtifact {
    /// Topic name (one of [`TOPICS`]).
    pub topic: String,
    /// Regression-comparison semantics.
    pub kind: ArtifactKind,
    /// Sweep scale the numbers were taken at (`quick` or `paper`).
    pub scale: String,
    /// Git revision the run was taken from (informational only; never
    /// compared).
    pub git_rev: String,
    /// Name of the x axis shared by all points.
    pub x_name: String,
    /// The measurements.
    pub points: Vec<BenchPoint>,
}

impl BenchArtifact {
    /// The canonical file name, `BENCH_<topic>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.topic)
    }

    /// The artifact as a JSON value.
    pub fn to_json(&self) -> Json {
        let points = self
            .points
            .iter()
            .map(|p| {
                Json::obj(vec![
                    ("series", Json::Str(p.series.clone())),
                    ("x", Json::Num(p.x)),
                    ("throughput", Json::Num(p.throughput)),
                    ("mean", Json::Num(p.mean)),
                    ("p50", Json::Num(p.p50)),
                    ("p95", Json::Num(p.p95)),
                    ("p99", Json::Num(p.p99)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema_version", Json::Num(SCHEMA_VERSION as f64)),
            ("topic", Json::Str(self.topic.clone())),
            ("kind", Json::Str(self.kind.as_str().to_string())),
            ("scale", Json::Str(self.scale.clone())),
            ("git_rev", Json::Str(self.git_rev.clone())),
            ("x_name", Json::Str(self.x_name.clone())),
            ("points", Json::Arr(points)),
        ])
    }

    /// The artifact rendered as the pretty JSON committed to the repo.
    pub fn to_pretty(&self) -> String {
        self.to_json().to_pretty()
    }

    /// Parses an artifact back from JSON text, validating the schema.
    pub fn parse(text: &str) -> Result<BenchArtifact, String> {
        let value = json::parse(text).map_err(|e| e.to_string())?;
        Self::from_json(&value)
    }

    /// Reconstructs an artifact from a JSON value, validating the schema.
    pub fn from_json(value: &Json) -> Result<BenchArtifact, String> {
        fn str_field(value: &Json, key: &str) -> Result<String, String> {
            value
                .get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string field `{key}`"))
        }
        fn num_field(value: &Json, key: &str) -> Result<f64, String> {
            value
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing or non-numeric field `{key}`"))
        }

        let version = num_field(value, "schema_version")?;
        if version != SCHEMA_VERSION as f64 {
            return Err(format!(
                "unsupported schema_version {version} (this build reads {SCHEMA_VERSION})"
            ));
        }
        let points = value
            .get("points")
            .and_then(Json::as_arr)
            .ok_or("missing or non-array field `points`")?
            .iter()
            .map(|p| {
                Ok(BenchPoint {
                    series: str_field(p, "series")?,
                    x: num_field(p, "x")?,
                    throughput: num_field(p, "throughput")?,
                    mean: num_field(p, "mean")?,
                    p50: num_field(p, "p50")?,
                    p95: num_field(p, "p95")?,
                    p99: num_field(p, "p99")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(BenchArtifact {
            topic: str_field(value, "topic")?,
            kind: ArtifactKind::parse(&str_field(value, "kind")?)?,
            scale: str_field(value, "scale")?,
            git_rev: str_field(value, "git_rev")?,
            x_name: str_field(value, "x_name")?,
            points,
        })
    }
}

/// The label recorded in an artifact's `scale` field: sweeps at or below
/// the quick machine count are `quick`, everything else `paper`.
pub fn scale_label(scale: &Scale) -> &'static str {
    if scale.machines <= Scale::quick().machines {
        "quick"
    } else {
        "paper"
    }
}

/// The [`Scale`] an artifact's `scale` field names, so `check` can rerun a
/// committed artifact at the scale it was taken at.
pub fn scale_for_label(label: &str) -> Result<Scale, String> {
    match label {
        "quick" => Ok(Scale::quick()),
        "paper" => Ok(Scale::default()),
        other => Err(format!("unknown scale label `{other}`")),
    }
}

/// The git revision stamped into emitted artifacts: `ACTYP_GIT_REV` if
/// set, else `git rev-parse --short HEAD` — with `+dirty` appended when
/// tracked files outside `benchmarks/` differ from that commit, so numbers
/// taken from an uncommitted change do not pass for the parent's — else
/// `unknown`.
pub fn git_rev() -> String {
    if let Ok(rev) = std::env::var("ACTYP_GIT_REV") {
        if !rev.is_empty() {
            return rev;
        }
    }
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_string())
    };
    let Some(rev) = git(&["rev-parse", "--short", "HEAD"]).filter(|s| !s.is_empty()) else {
        return "unknown".to_string();
    };
    // The emitter's own output lands in `benchmarks/`; it must not mark
    // the second artifact of a run dirty.
    let changed = git(&[
        "status",
        "--porcelain",
        "--untracked-files=no",
        "--",
        ":/",
        ":(exclude,top)benchmarks",
    ]);
    match changed {
        Some(changed) if !changed.is_empty() => format!("{rev}+dirty"),
        _ => rev,
    }
}

/// Converts a figure sweep's full measurements into an artifact: one
/// [`BenchPoint`] per `(x, column)` cell, with exact quantiles over the
/// cell's response-time samples.
pub fn artifact_from_runs(topic: &str, scale: &Scale, runs: FigureRuns) -> BenchArtifact {
    let mut points = Vec::new();
    let columns = runs.columns;
    for (x, results) in runs.cells {
        for (column, mut result) in columns.iter().zip(results) {
            points.push(BenchPoint {
                series: column.clone(),
                x,
                throughput: result.throughput(),
                mean: result.mean_response(),
                p50: result.response_quantile(0.50),
                p95: result.response_quantile(0.95),
                p99: result.response_quantile(0.99),
            });
        }
    }
    BenchArtifact {
        topic: topic.to_string(),
        kind: ArtifactKind::Simulated,
        scale: scale_label(scale).to_string(),
        git_rev: git_rev(),
        x_name: runs.x_name,
        points,
    }
}

/// The `fig9_cputime_dist` artifact: the figure is a histogram, not a
/// latency sweep, so the latency fields carry quantiles of the CPU-time
/// distribution itself and `throughput` is sampled runs per second of
/// total consumed CPU time — both exactly reproducible from the seed.
fn fig9_artifact(scale: &Scale) -> BenchArtifact {
    let mut rng = Rng::new(scale.seed ^ 0xF19);
    let samples = CpuTimeDistribution::punch().sample_many(&mut rng, scale.figure9_runs);
    let mut set = actyp_simnet::SampleSet::new();
    let mut total = 0.0;
    for s in &samples {
        set.record(s.cpu_seconds);
        total += s.cpu_seconds;
    }
    let throughput = if total > 0.0 {
        samples.len() as f64 / total
    } else {
        0.0
    };
    BenchArtifact {
        topic: "fig9_cputime_dist".to_string(),
        kind: ArtifactKind::Simulated,
        scale: scale_label(scale).to_string(),
        git_rev: git_rev(),
        x_name: "runs".to_string(),
        points: vec![BenchPoint {
            series: "punch".to_string(),
            x: samples.len() as f64,
            throughput,
            mean: set.mean(),
            p50: set.quantile(0.50),
            p95: set.quantile(0.95),
            p99: set.quantile(0.99),
        }],
    }
}

// ---------------------------------------------------------------------------
// The load generator: a real `ypd` over loopback, pushed by closed-loop
// pipelined clients.  `ypload` is a CLI veneer over this; the saturation
// topics sweep it.
// ---------------------------------------------------------------------------

/// One load-generator run: `clients` concurrent connections, each keeping
/// `depth` tickets in flight, against a daemon self-hosted on loopback (or
/// an external one via [`run_load_against`]).
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Concurrent client connections.
    pub clients: usize,
    /// Tickets each client keeps in flight (pipelining depth).
    pub depth: usize,
    /// Requests each client submits in total.
    pub requests_per_client: usize,
    /// Machines in the self-hosted daemon's database.
    pub machines: usize,
    /// The daemon's in-flight window (live backend).
    pub window: usize,
    /// Extra connections that connect and then sit silent for the whole
    /// run — the load the reactor is built to absorb for free.
    pub idle_sessions: usize,
    /// Backend hosted behind the daemon.
    pub backend: BackendKind,
    /// Fleet seed.
    pub seed: u64,
    /// When set, the run is time-bounded: each client submits until the
    /// deadline instead of counting `requests_per_client` (which then
    /// only sizes buffers).
    pub duration: Option<Duration>,
    /// Distinct resource pools the load stripes across: the fleet is
    /// split over this many architectures and client `i` queries
    /// architecture `i % pools`, so the daemon runs one scheduling
    /// process per pool (the paper's decomposed-pool shape) instead of
    /// funnelling every request through a single pool's scheduler.
    /// `0`/`1` keep the homogeneous single-pool fleet.
    pub pools: usize,
}

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec {
            clients: 4,
            depth: 4,
            requests_per_client: 50,
            machines: 256,
            window: 0, // 0: sized automatically to clients × depth + slack
            idle_sessions: 0,
            backend: BackendKind::Live,
            seed: 0x42,
            duration: None,
            pools: 1,
        }
    }
}

impl LoadSpec {
    fn effective_window(&self) -> usize {
        if self.window > 0 {
            self.window
        } else {
            self.clients * self.depth + self.clients.max(4)
        }
    }

    /// The query architecture client `index` stripes onto.
    fn arch_for_client(&self, index: usize) -> String {
        if self.pools > 1 {
            format!("arch{}", index % self.pools)
        } else {
            "sun".to_string()
        }
    }
}

/// What one load run measured, from the clients' side of the wire.
#[derive(Debug)]
pub struct LoadResult {
    /// Requests that settled with an allocation (released afterwards).
    pub completed: u64,
    /// Requests that settled with an error.
    pub failed: u64,
    /// Wall-clock duration of the measurement.
    pub elapsed: Duration,
    /// Client-observed submit→outcome latencies, seconds.
    pub latencies: actyp_simnet::SampleSet,
}

impl LoadResult {
    /// Completed requests per wall-clock second.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.completed as f64 / secs
        } else {
            0.0
        }
    }

    fn point(mut self, series: &str, x: f64) -> BenchPoint {
        BenchPoint {
            series: series.to_string(),
            x,
            throughput: self.throughput(),
            mean: self.latencies.mean(),
            p50: self.latencies.quantile(0.50),
            p95: self.latencies.quantile(0.95),
            p99: self.latencies.quantile(0.99),
        }
    }
}

/// Self-hosts a daemon for `spec` on an ephemeral loopback port, runs the
/// load against it, and drains the daemon afterwards.
pub fn run_load(spec: &LoadSpec) -> Result<LoadResult, String> {
    let fleet_spec = if spec.pools > 1 {
        let mut fleet_spec = FleetSpec::homogeneous(spec.machines, "sun", 512);
        fleet_spec.architectures = (0..spec.pools)
            .map(|i| actyp_grid::Weighted::new(format!("arch{i}"), 1.0))
            .collect();
        fleet_spec
    } else {
        FleetSpec::homogeneous(spec.machines, "sun", 512)
    };
    let db = SyntheticFleet::new(fleet_spec, spec.seed)
        .generate()
        .into_shared();
    let handle: ServerHandle = PipelineBuilder::new()
        .database(db)
        .window(spec.effective_window())
        .serve(&StageAddress::new("127.0.0.1", 0), spec.backend)
        .map_err(|e| format!("serve: {e}"))?;
    let result = run_load_against(&handle.local_addr(), spec);
    handle.halt();
    handle.join().map_err(|e| format!("daemon drain: {e}"))?;
    result
}

/// Runs the load against an already-listening daemon at `addr`.
pub fn run_load_against(addr: &StageAddress, spec: &LoadSpec) -> Result<LoadResult, String> {
    // Idle sessions first: connections that handshake and then sit silent
    // until the measurement is over.
    let idle: Vec<RemoteBackend> = (0..spec.idle_sessions)
        .map(|_| RemoteBackend::connect(addr).map_err(|e| format!("idle connect: {e}")))
        .collect::<Result<_, _>>()?;

    let addr = Arc::new(addr.clone());
    let started = Instant::now();
    let workers: Vec<_> = (0..spec.clients)
        .map(|index| {
            let addr = addr.clone();
            let depth = spec.depth.max(1);
            let requests = spec.requests_per_client;
            let deadline = spec.duration.map(|d| started + d);
            let arch = spec.arch_for_client(index);
            std::thread::spawn(move || -> Result<(u64, u64, Vec<f64>), String> {
                let manager =
                    RemoteBackend::connect(&addr).map_err(|e| format!("client connect: {e}"))?;
                let query = actyp_query::parse_query(&format!("punch.rsrc.arch = {arch}\n"))
                    .map_err(|e| format!("query: {e}"))?;
                let mut completed = 0u64;
                let mut failed = 0u64;
                let mut latencies = Vec::with_capacity(requests);
                let mut in_flight: VecDeque<(Instant, actyp_pipeline::Ticket)> =
                    VecDeque::with_capacity(depth);
                let settle = |entry: (Instant, actyp_pipeline::Ticket),
                              latencies: &mut Vec<f64>,
                              completed: &mut u64,
                              failed: &mut u64|
                 -> Result<(), String> {
                    let (sent, ticket) = entry;
                    match manager.wait(ticket) {
                        Ok(allocations) => {
                            latencies.push(sent.elapsed().as_secs_f64());
                            *completed += 1;
                            for a in &allocations {
                                manager.release(a).map_err(|e| format!("release: {e}"))?;
                            }
                        }
                        Err(_) => *failed += 1,
                    }
                    Ok(())
                };
                // Count-bounded by default; `--duration` switches to a
                // time-bounded run (the deadline is checked per submit,
                // and in-flight tickets still drain fully afterwards).
                let mut submitted = 0usize;
                loop {
                    let done = match deadline {
                        Some(deadline) => Instant::now() >= deadline,
                        None => submitted >= requests,
                    };
                    if done {
                        break;
                    }
                    if in_flight.len() == depth {
                        let entry = in_flight.pop_front().expect("nonempty at capacity");
                        settle(entry, &mut latencies, &mut completed, &mut failed)?;
                    }
                    let ticket = manager
                        .submit(query.clone())
                        .map_err(|e| format!("submit: {e}"))?;
                    in_flight.push_back((Instant::now(), ticket));
                    submitted += 1;
                }
                while let Some(entry) = in_flight.pop_front() {
                    settle(entry, &mut latencies, &mut completed, &mut failed)?;
                }
                manager.shutdown().map_err(|e| format!("shutdown: {e}"))?;
                Ok((completed, failed, latencies))
            })
        })
        .collect();

    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut latencies = actyp_simnet::SampleSet::new();
    for worker in workers {
        let (c, f, lat) = worker.join().map_err(|_| "client thread panicked")??;
        completed += c;
        failed += f;
        for l in lat {
            latencies.record(l);
        }
    }
    let elapsed = started.elapsed();
    for session in idle {
        let _ = session.shutdown();
    }
    Ok(LoadResult {
        completed,
        failed,
        elapsed,
        latencies,
    })
}

/// Saturation-sweep parameters, two sizes like [`Scale`]: the quick rows
/// keep CI fast; the paper rows push one daemon toward saturation.
struct SaturationParams {
    clients: usize,
    requests_per_client: usize,
    machines: usize,
    depths: Vec<usize>,
    idle_counts: Vec<usize>,
    client_counts: Vec<usize>,
}

fn saturation_params(scale: &Scale) -> SaturationParams {
    if scale_label(scale) == "quick" {
        SaturationParams {
            clients: 4,
            requests_per_client: 40,
            machines: 256,
            depths: vec![1, 4, 16],
            idle_counts: vec![0, 16, 64],
            client_counts: vec![2, 8],
        }
    } else {
        SaturationParams {
            clients: 16,
            requests_per_client: 200,
            machines: 1_024,
            depths: vec![1, 2, 4, 8, 16, 32],
            idle_counts: vec![0, 128, 512],
            client_counts: vec![4, 16, 64],
        }
    }
}

fn measured_artifact(
    topic: &str,
    scale: &Scale,
    x_name: &str,
    points: Vec<BenchPoint>,
) -> BenchArtifact {
    BenchArtifact {
        topic: topic.to_string(),
        kind: ArtifactKind::Measured,
        scale: scale_label(scale).to_string(),
        git_rev: git_rev(),
        x_name: x_name.to_string(),
        points,
    }
}

/// Pipelining-depth sweep: one reactor daemon, fixed clients, depth 1..N.
/// The paper's pipelined-submission claim as a throughput curve.
fn saturation_pipelining(scale: &Scale) -> Result<BenchArtifact, String> {
    let p = saturation_params(scale);
    let mut points = Vec::new();
    for &depth in &p.depths {
        let spec = LoadSpec {
            clients: p.clients,
            depth,
            requests_per_client: p.requests_per_client,
            machines: p.machines,
            ..LoadSpec::default()
        };
        points.push(run_load(&spec)?.point("reactor", depth as f64));
    }
    Ok(measured_artifact(
        "saturation_pipelining",
        scale,
        "depth",
        points,
    ))
}

/// Idle-session sweep: the same active load with a growing population of
/// silent connections.  The reactor's claim is a flat curve: an idle
/// session costs a poller registration, not a thread.
fn saturation_idle(scale: &Scale) -> Result<BenchArtifact, String> {
    let p = saturation_params(scale);
    let mut points = Vec::new();
    for &idle_sessions in &p.idle_counts {
        let spec = LoadSpec {
            clients: p.clients,
            requests_per_client: p.requests_per_client,
            machines: p.machines,
            idle_sessions,
            ..LoadSpec::default()
        };
        points.push(run_load(&spec)?.point("reactor", idle_sessions as f64));
    }
    Ok(measured_artifact(
        "saturation_idle",
        scale,
        "idle_sessions",
        points,
    ))
}

/// Backend matrix: every [`BackendKind`] behind the same daemon, swept
/// over client count.
fn saturation_backends(scale: &Scale) -> Result<BenchArtifact, String> {
    let p = saturation_params(scale);
    let kinds = [
        (BackendKind::Live, "live"),
        (BackendKind::CentralQueue, "central-queue"),
        (BackendKind::Matchmaker, "matchmaker"),
    ];
    let mut points = Vec::new();
    for &clients in &p.client_counts {
        for (backend, series) in kinds {
            let spec = LoadSpec {
                clients,
                requests_per_client: p.requests_per_client,
                machines: p.machines,
                backend,
                ..LoadSpec::default()
            };
            points.push(run_load(&spec)?.point(series, clients as f64));
        }
    }
    Ok(measured_artifact(
        "saturation_backends",
        scale,
        "clients",
        points,
    ))
}

/// WAN routing sweep: hops-to-first-allocation and delegation latency
/// for a query only one of the entry daemon's three peers can satisfy,
/// under three regimes of the learned routing plane.
///
/// * `cache-off` — the route cache is disabled and everything the entry
///   learned about the satisfying domain is forgotten between queries
///   (via `PeerView::retire_domain`): every query is the
///   paper's baseline TTL-bounded chain walk through both decoys.
/// * `cache-on-cold` — the cache is enabled but the learned state is
///   likewise dropped between queries: the walk pays the same hops,
///   measuring that the learning itself costs nothing.
/// * `cache-on-warm` — state is kept: every repeat query rides the
///   learned route straight to the satisfying domain in one hop.
///
/// The peers are real daemons on loopback; the periodic gossip tick is
/// off so the regimes differ only in the learned state under test.
fn routing(scale: &Scale) -> Result<BenchArtifact, String> {
    let iterations = if scale_label(scale) == "quick" {
        30
    } else {
        200
    };
    const QUERY: &str = "punch.rsrc.arch = hp\n";
    const TARGET: &str = "upc";

    let spawn_peer = |domain: &str, arch: &str, seed: u64| {
        PipelineBuilder::new()
            .database(
                SyntheticFleet::new(FleetSpec::homogeneous(64, arch, 512), seed)
                    .generate()
                    .into_shared(),
            )
            .ttl(8)
            .serve_federated(
                &StageAddress::new("127.0.0.1", 0),
                BackendKind::Live,
                FederationConfig {
                    domain: domain.to_string(),
                    ttl: 8,
                    peers: Vec::new(),
                    gossip_interval: Duration::ZERO,
                    ..FederationConfig::default()
                },
            )
            .map(|(handle, _)| handle)
            .map_err(|e| format!("peer {domain}: {e}"))
    };
    // Two sun-only decoys ahead of the hp target in link order, so the
    // unlearned walk burns two hops before the satisfying domain.
    let decoy_a = spawn_peer("decoy-a", "sun", 0xB1)?;
    let decoy_b = spawn_peer("decoy-b", "sun", 0xB2)?;
    let target = spawn_peer(TARGET, "hp", 0xB3)?;

    let entry = |route_cache: bool| {
        PipelineBuilder::new()
            .database(
                SyntheticFleet::new(FleetSpec::homogeneous(64, "sun", 512), 0xB0)
                    .generate()
                    .into_shared(),
            )
            .ttl(8)
            .serve_federated(
                &StageAddress::new("127.0.0.1", 0),
                BackendKind::Live,
                FederationConfig {
                    domain: "purdue".to_string(),
                    ttl: 8,
                    peers: vec![
                        decoy_a.local_addr(),
                        decoy_b.local_addr(),
                        target.local_addr(),
                    ],
                    gossip_interval: Duration::ZERO,
                    route_cache,
                    ..FederationConfig::default()
                },
            )
            .map_err(|e| format!("entry daemon: {e}"))
    };

    let measure = |fed: &FederatedBackend, series: &str, forget: bool| {
        // Prime outside the measurement: dials the links, creates the hp
        // pool on the target, and (when keeping state) learns the route.
        let primed = fed
            .submit_text_wait(QUERY)
            .map_err(|e| format!("{series} prime: {e}"))?;
        fed.release(&primed[0])
            .map_err(|e| format!("{series} prime release: {e}"))?;
        if forget {
            fed.view().retire_domain(TARGET);
        }
        let mut latencies = SampleSet::new();
        let mut hops_total = 0u64;
        let started = Instant::now();
        for _ in 0..iterations {
            let submitted = Instant::now();
            let allocations = fed
                .submit_text_wait(QUERY)
                .map_err(|e| format!("{series}: {e}"))?;
            latencies.record(submitted.elapsed().as_secs_f64());
            let chain = fed
                .last_chain()
                .ok_or_else(|| format!("{series}: no chain recorded"))?;
            hops_total += chain.visited.len().saturating_sub(1) as u64;
            fed.release(&allocations[0])
                .map_err(|e| format!("{series} release: {e}"))?;
            if forget {
                fed.view().retire_domain(TARGET);
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        Ok::<BenchPoint, String>(BenchPoint {
            series: series.to_string(),
            x: hops_total as f64 / iterations as f64,
            throughput: if elapsed > 0.0 {
                iterations as f64 / elapsed
            } else {
                0.0
            },
            mean: latencies.mean(),
            p50: latencies.quantile(0.50),
            p95: latencies.quantile(0.95),
            p99: latencies.quantile(0.99),
        })
    };

    let mut points = Vec::new();
    for (series, route_cache, forget) in [
        ("cache-off", false, true),
        ("cache-on-cold", true, true),
        ("cache-on-warm", true, false),
    ] {
        let (server, fed) = entry(route_cache)?;
        points.push(measure(&fed, series, forget)?);
        server.halt();
        server.join().map_err(|e| format!("{series} drain: {e}"))?;
    }

    for peer in [decoy_a, decoy_b, target] {
        peer.halt();
        peer.join().map_err(|e| format!("peer drain: {e}"))?;
    }
    Ok(measured_artifact(
        "routing",
        scale,
        "hops_to_first_allocation",
        points,
    ))
}

/// Runs one topic to its artifact.  Unknown topics are an `Err`, so CLI
/// typos fail loudly instead of silently emitting nothing.
pub fn run_topic(topic: &str, scale: &Scale) -> Result<BenchArtifact, String> {
    match topic {
        "fig4_pools_lan" => Ok(artifact_from_runs(topic, scale, crate::fig4_runs(scale))),
        "fig5_pools_wan" => Ok(artifact_from_runs(topic, scale, crate::fig5_runs(scale))),
        "fig6_pool_size" => Ok(artifact_from_runs(topic, scale, crate::fig6_runs(scale))),
        "fig7_splitting" => Ok(artifact_from_runs(topic, scale, crate::fig7_runs(scale))),
        "fig8_replication" => Ok(artifact_from_runs(topic, scale, crate::fig8_runs(scale))),
        "fig9_cputime_dist" => Ok(fig9_artifact(scale)),
        "saturation_pipelining" => saturation_pipelining(scale),
        "saturation_idle" => saturation_idle(scale),
        "saturation_backends" => saturation_backends(scale),
        "routing" => routing(scale),
        other => Err(format!(
            "unknown topic `{other}` (expected one of: {})",
            TOPICS.join(", ")
        )),
    }
}

/// The CSV series a figure binary prints for `topic` (the paper's plot).
pub fn run_series(topic: &str, scale: &Scale) -> Result<FigureSeries, String> {
    match topic {
        "fig4_pools_lan" => Ok(crate::fig4_pools_lan(scale)),
        "fig5_pools_wan" => Ok(crate::fig5_pools_wan(scale)),
        "fig6_pool_size" => Ok(crate::fig6_pool_size(scale)),
        "fig7_splitting" => Ok(crate::fig7_splitting(scale)),
        "fig8_replication" => Ok(crate::fig8_replication(scale)),
        "fig9_cputime_dist" => Ok(crate::fig9_cputime_dist(scale)),
        other => Err(format!("topic `{other}` has no CSV series")),
    }
}

/// The `main` of every figure binary: prints the paper's CSV series by
/// default, or the `BENCH_*.json` artifact with `--json`.
pub fn figure_main(topic: &str) {
    let json = std::env::args().skip(1).any(|a| a == "--json");
    let scale = Scale::from_env();
    if json {
        match run_topic(topic, &scale) {
            Ok(artifact) => print!("{}", artifact.to_pretty()),
            Err(e) => {
                eprintln!("{topic}: {e}");
                std::process::exit(1);
            }
        }
    } else {
        match run_series(topic, &scale) {
            Ok(series) => print!("{}", series.to_csv()),
            Err(e) => {
                eprintln!("{topic}: {e}");
                std::process::exit(1);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// bench-check: tolerance-band comparison against the committed artifacts.
// ---------------------------------------------------------------------------

/// The default tolerance band: a fresh point may be up to this fraction
/// worse than the committed one before the comparison fails.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// The verdict of [`compare`]: empty `failures` means the fresh run is
/// within tolerance of the committed artifact.
#[derive(Debug)]
pub struct Comparison {
    /// Human-readable descriptions of every violated band.
    pub failures: Vec<String>,
    /// Points actually compared.
    pub compared_points: usize,
    /// The committed artifact's kind: whether its points were held to the
    /// tolerance band or checked for structure only.
    pub kind: ArtifactKind,
}

impl Comparison {
    /// `true` when no band was violated.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The line `bench_artifacts check` prints for a topic that passed: a
    /// measured topic's points were checked for structure, not banded.
    pub fn ok_line(&self, topic: &str, tolerance: f64) -> String {
        let points = self.compared_points;
        match self.kind {
            ArtifactKind::Simulated => {
                format!(
                    "{topic}: ok ({points} points within {:.0}%)",
                    tolerance * 100.0
                )
            }
            ArtifactKind::Measured => format!("{topic}: ok ({points} points, structure only)"),
        }
    }
}

/// The closing line of a `bench_artifacts check` that passed: how many
/// points were held to the tolerance band and how many were checked for
/// structure only.
pub fn check_summary(topics: usize, banded: usize, structural: usize, tolerance: f64) -> String {
    format!(
        "bench-check: {topics} topics: {banded} points within {:.0}%, {structural} points \
         checked for structure only",
        tolerance * 100.0
    )
}

/// Why a committed artifact cannot gate anything, if it cannot: one stamped
/// `+dirty` ([`git_rev`]) was emitted from an uncommitted tree, so no
/// commit reproduces its numbers.
pub fn unreproducible(committed: &BenchArtifact) -> Option<String> {
    committed.git_rev.ends_with("+dirty").then(|| {
        format!(
            "{}: committed artifact is stamped `{}`; re-emit it from a clean tree",
            committed.topic, committed.git_rev
        )
    })
}

/// Compares a fresh run against the committed artifact.
///
/// Both artifacts must agree on topic, scale and x axis.  Every committed
/// point must exist in the fresh run (missing points fail).  For
/// [`ArtifactKind::Simulated`] topics each latency field may not exceed
/// `committed × (1 + tolerance)` and throughput may not fall below
/// `committed × (1 − tolerance)`; for [`ArtifactKind::Measured`] topics the
/// check is structural (finite ordered percentiles, nonzero throughput).
pub fn compare(committed: &BenchArtifact, fresh: &BenchArtifact, tolerance: f64) -> Comparison {
    let mut failures = Vec::new();
    if committed.topic != fresh.topic {
        failures.push(format!(
            "topic mismatch: committed `{}` vs fresh `{}`",
            committed.topic, fresh.topic
        ));
        return Comparison {
            failures,
            compared_points: 0,
            kind: committed.kind,
        };
    }
    let topic = &committed.topic;
    if committed.scale != fresh.scale {
        failures.push(format!(
            "{topic}: scale mismatch: committed `{}` vs fresh `{}`",
            committed.scale, fresh.scale
        ));
    }
    if committed.x_name != fresh.x_name {
        failures.push(format!(
            "{topic}: x axis mismatch: committed `{}` vs fresh `{}`",
            committed.x_name, fresh.x_name
        ));
    }
    let mut compared = 0usize;
    for want in &committed.points {
        let found = fresh
            .points
            .iter()
            .find(|p| p.series == want.series && (p.x - want.x).abs() < 1e-9);
        let Some(got) = found else {
            failures.push(format!(
                "{topic}: point `{}` @ {}={} missing from the fresh run",
                want.series, committed.x_name, want.x
            ));
            continue;
        };
        compared += 1;
        let at = format!(
            "{topic} `{}` @ {}={}",
            want.series, committed.x_name, want.x
        );
        match committed.kind {
            ArtifactKind::Simulated => {
                for (name, fresh_v, committed_v) in [
                    ("mean", got.mean, want.mean),
                    ("p50", got.p50, want.p50),
                    ("p95", got.p95, want.p95),
                    ("p99", got.p99, want.p99),
                ] {
                    if fresh_v > committed_v * (1.0 + tolerance) + 1e-12 {
                        failures.push(format!(
                            "{at}: {name} regressed: {fresh_v:.6} exceeds committed \
                             {committed_v:.6} by more than {:.0}%",
                            tolerance * 100.0
                        ));
                    }
                }
                if got.throughput < want.throughput * (1.0 - tolerance) - 1e-12 {
                    failures.push(format!(
                        "{at}: throughput regressed: {:.6} is more than {:.0}% below \
                         committed {:.6}",
                        got.throughput,
                        tolerance * 100.0,
                        want.throughput
                    ));
                }
            }
            ArtifactKind::Measured => {
                let fields = [got.mean, got.p50, got.p95, got.p99, got.throughput];
                if fields.iter().any(|v| !v.is_finite()) {
                    failures.push(format!("{at}: non-finite measurement"));
                }
                if !(got.p50 <= got.p95 && got.p95 <= got.p99) {
                    failures.push(format!(
                        "{at}: percentiles out of order: p50={:.6} p95={:.6} p99={:.6}",
                        got.p50, got.p95, got.p99
                    ));
                }
                if got.throughput <= 0.0 {
                    failures.push(format!("{at}: zero throughput"));
                }
            }
        }
    }
    Comparison {
        failures,
        compared_points: compared,
        kind: committed.kind,
    }
}

/// Writes `artifact` as `BENCH_<topic>.json` under `dir`, creating the
/// directory if needed.  Returns the path written.
pub fn write_artifact(dir: &Path, artifact: &BenchArtifact) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(artifact.file_name());
    let mut file =
        std::fs::File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
    file.write_all(artifact.to_pretty().as_bytes())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// Loads a committed `BENCH_<topic>.json` from `dir`.
pub fn load_artifact(dir: &Path, topic: &str) -> Result<BenchArtifact, String> {
    let path = dir.join(format!("BENCH_{topic}.json"));
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    BenchArtifact::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(kind: ArtifactKind) -> BenchArtifact {
        BenchArtifact {
            topic: "fig4_pools_lan".to_string(),
            kind,
            scale: "quick".to_string(),
            git_rev: "abc1234".to_string(),
            x_name: "pools".to_string(),
            points: vec![
                BenchPoint {
                    series: "clients=4".to_string(),
                    x: 2.0,
                    throughput: 10.0,
                    mean: 1.0,
                    p50: 0.9,
                    p95: 2.0,
                    p99: 3.0,
                },
                BenchPoint {
                    series: "clients=4".to_string(),
                    x: 8.0,
                    throughput: 12.0,
                    mean: 0.8,
                    p50: 0.7,
                    p95: 1.5,
                    p99: 2.5,
                },
            ],
        }
    }

    #[test]
    fn artifact_round_trips_through_json_text() {
        let a = artifact(ArtifactKind::Simulated);
        let parsed = BenchArtifact::parse(&a.to_pretty()).expect("parses");
        assert_eq!(parsed, a);
        let m = artifact(ArtifactKind::Measured);
        assert_eq!(BenchArtifact::parse(&m.to_pretty()).expect("parses"), m);
    }

    #[test]
    fn schema_version_is_checked_on_parse() {
        let text = artifact(ArtifactKind::Simulated)
            .to_pretty()
            .replace("\"schema_version\": 1", "\"schema_version\": 99");
        let err = BenchArtifact::parse(&text).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn identical_runs_compare_clean() {
        let a = artifact(ArtifactKind::Simulated);
        let verdict = compare(&a, &a, DEFAULT_TOLERANCE);
        assert!(verdict.passed(), "{:?}", verdict.failures);
        assert_eq!(verdict.compared_points, 2);
    }

    #[test]
    fn simulated_regression_beyond_tolerance_fails() {
        let committed = artifact(ArtifactKind::Simulated);
        let mut fresh = committed.clone();
        fresh.points[0].p95 = committed.points[0].p95 * 1.5;
        let verdict = compare(&committed, &fresh, 0.25);
        assert!(!verdict.passed());
        assert!(
            verdict.failures[0].contains("p95"),
            "{:?}",
            verdict.failures
        );

        // Throughput collapse fails too.
        let mut slow = committed.clone();
        slow.points[1].throughput = committed.points[1].throughput * 0.5;
        assert!(!compare(&committed, &slow, 0.25).passed());

        // Within the band passes.
        let mut close = committed.clone();
        close.points[0].p95 = committed.points[0].p95 * 1.1;
        close.points[1].throughput = committed.points[1].throughput * 0.9;
        assert!(compare(&committed, &close, 0.25).passed());
    }

    #[test]
    fn missing_points_and_axis_mismatches_fail() {
        let committed = artifact(ArtifactKind::Simulated);
        let mut fresh = committed.clone();
        fresh.points.remove(1);
        let verdict = compare(&committed, &fresh, 0.25);
        assert!(!verdict.passed());
        assert!(
            verdict.failures[0].contains("missing"),
            "{:?}",
            verdict.failures
        );

        let mut other_axis = committed.clone();
        other_axis.x_name = "clients".to_string();
        assert!(!compare(&committed, &other_axis, 0.25).passed());

        let mut other_topic = committed.clone();
        other_topic.topic = "fig5_pools_wan".to_string();
        assert!(!compare(&committed, &other_topic, 0.25).passed());
    }

    /// A measured topic's points are checked for structure only, so its
    /// `ok` line and the closing summary must not claim a tolerance band
    /// for them.
    #[test]
    fn check_lines_claim_the_band_only_for_simulated_points() {
        let simulated = artifact(ArtifactKind::Simulated);
        let banded = compare(&simulated, &simulated, 0.25);
        assert_eq!(
            banded.ok_line("fig4_pools_lan", 0.25),
            format!(
                "fig4_pools_lan: ok ({} points within 25%)",
                banded.compared_points
            )
        );
        let measured = artifact(ArtifactKind::Measured);
        let structural = compare(&measured, &measured, 0.25);
        let line = structural.ok_line("saturation_idle", 0.25);
        assert_eq!(
            line,
            format!(
                "saturation_idle: ok ({} points, structure only)",
                structural.compared_points
            )
        );
        assert_eq!(
            check_summary(11, 30, 18, 0.25),
            "bench-check: 11 topics: 30 points within 25%, 18 points checked for structure only"
        );
    }

    #[test]
    fn measured_comparison_is_structural() {
        let committed = artifact(ArtifactKind::Measured);
        // A much slower fresh run still passes: wall-clock numbers are
        // host-dependent.
        let mut slower = committed.clone();
        for p in &mut slower.points {
            p.mean *= 10.0;
            p.p50 *= 10.0;
            p.p95 *= 10.0;
            p.p99 *= 10.0;
            p.throughput /= 10.0;
        }
        assert!(compare(&committed, &slower, 0.25).passed());

        // But broken structure fails.
        let mut disordered = committed.clone();
        disordered.points[0].p95 = disordered.points[0].p99 * 2.0;
        assert!(!compare(&committed, &disordered, 0.25).passed());
        let mut idle = committed.clone();
        idle.points[0].throughput = 0.0;
        assert!(!compare(&committed, &idle, 0.25).passed());
    }

    #[test]
    fn unknown_topics_are_rejected() {
        assert!(run_topic("fig42", &Scale::quick()).is_err());
        assert!(scale_for_label("galactic").is_err());
        assert!(ArtifactKind::parse("guessed").is_err());
    }

    #[test]
    fn scale_labels_round_trip() {
        assert_eq!(scale_label(&Scale::quick()), "quick");
        assert_eq!(scale_label(&Scale::default()), "paper");
        assert_eq!(scale_for_label("quick").unwrap().machines, 640);
        assert_eq!(scale_for_label("paper").unwrap().machines, 3_200);
    }

    #[test]
    fn tiny_load_run_measures_the_daemon() {
        let spec = LoadSpec {
            clients: 2,
            depth: 2,
            requests_per_client: 6,
            machines: 64,
            idle_sessions: 1,
            ..LoadSpec::default()
        };
        let result = run_load(&spec).expect("load run succeeds");
        assert_eq!(result.completed, 12);
        assert_eq!(result.failed, 0);
        assert_eq!(result.latencies.len(), 12);
        assert!(result.throughput() > 0.0);
    }
}
