//! # actyp-bench — figure regeneration and micro-benchmarks
//!
//! One function per figure of the paper's evaluation section (plus the
//! ablations called out in DESIGN.md).  Each function runs a parameter sweep
//! on the simulated deployment and returns a [`FigureSeries`]; the `fig*`
//! binaries in `src/bin/` print those series as CSV, and EXPERIMENTS.md
//! records a reference run.
//!
//! The sweeps use the paper's parameters by default (3,200 machines,
//! closed-loop clients).  [`Scale::quick`] shrinks everything so the same
//! code can run in CI and in unit tests.

use actyp_grid::{FleetSpec, SyntheticFleet};
use actyp_pipeline::sim::{ExperimentConfig, ExperimentResult, PoolTopology, SimulatedPipeline};
use actyp_pipeline::{BackendKind, PipelineBuilder, ResourceManager, SchedulingObjective};
use actyp_query::{Constraint, Query, QueryKey};
use actyp_simnet::{LinkProfile, NetworkModel, Rng};
use actyp_workload::CpuTimeDistribution;

pub mod harness;
pub mod json;

/// A figure series: an x axis and one or more named y columns.
#[derive(Debug, Clone)]
pub struct FigureSeries {
    /// Name of the x axis (e.g. `pools`, `clients`, `cpu_seconds`).
    pub x_name: String,
    /// Names of the y columns (one per curve in the paper's figure).
    pub columns: Vec<String>,
    /// Rows: `(x, y per column)`.
    pub rows: Vec<(f64, Vec<f64>)>,
}

impl FigureSeries {
    /// Renders the series as CSV (the format the binaries print).
    pub fn to_csv(&self) -> String {
        let cols: Vec<&str> = self.columns.iter().map(String::as_str).collect();
        actyp_workload::trace::series_csv(&self.x_name, &cols, &self.rows)
    }

    /// The y value at a given x for a given column, if present.
    pub fn value(&self, x: f64, column: &str) -> Option<f64> {
        let col = self.columns.iter().position(|c| c == column)?;
        self.rows
            .iter()
            .find(|(rx, _)| (*rx - x).abs() < 1e-9)
            .map(|(_, ys)| ys[col])
    }
}

/// Sweep sizes.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Machines in the resource database.
    pub machines: usize,
    /// Requests per closed-loop client.
    pub requests_per_client: usize,
    /// Client counts swept on the x axis of Figures 6–8 (and used as curves
    /// in Figures 4–5).
    pub client_counts: Vec<usize>,
    /// Pool counts swept in Figures 4–5.
    pub pool_counts: Vec<usize>,
    /// Runs sampled for the Figure 9 histogram.
    pub figure9_runs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            machines: 3_200,
            requests_per_client: 15,
            client_counts: vec![8, 16, 32, 64],
            pool_counts: vec![2, 4, 6, 8, 10, 12, 14, 16],
            figure9_runs: 236_222,
            seed: 0x2001,
        }
    }
}

impl Scale {
    /// A reduced sweep for CI and unit tests.
    pub fn quick() -> Self {
        Scale {
            machines: 640,
            requests_per_client: 5,
            client_counts: vec![4, 16],
            pool_counts: vec![2, 8],
            figure9_runs: 20_000,
            seed: 0x2001,
        }
    }

    /// Scale selected from the `ACTYP_QUICK` environment variable (any
    /// non-empty value other than `0` selects the quick sweep).
    pub fn from_env() -> Self {
        match std::env::var("ACTYP_QUICK") {
            Ok(v) if !v.is_empty() && v != "0" => Scale::quick(),
            _ => Scale::default(),
        }
    }
}

fn experiment(
    scale: &Scale,
    topology: PoolTopology,
    clients: usize,
    network: NetworkModel,
    client_link: LinkProfile,
) -> ExperimentConfig {
    ExperimentConfig {
        machines: scale.machines,
        topology,
        clients,
        requests_per_client: scale.requests_per_client,
        network,
        client_link,
        seed: scale.seed,
        ..ExperimentConfig::paper_baseline()
    }
}

/// Full measurements of a figure sweep: one [`ExperimentResult`] per
/// `(x, column)` cell.  The CSV series of the figure binaries (means, via
/// [`FigureRuns::series`]) and the tracked `BENCH_*.json` artifacts
/// (throughput plus latency percentiles, via [`harness`]) both derive from
/// the same runs, so the two outputs can never disagree.
#[derive(Debug)]
pub struct FigureRuns {
    /// Name of the x axis.
    pub x_name: String,
    /// Names of the columns (one per curve).
    pub columns: Vec<String>,
    /// Rows: `(x, one result per column)`.
    pub cells: Vec<(f64, Vec<ExperimentResult>)>,
}

impl FigureRuns {
    /// The mean-response series the paper's figures plot.
    pub fn series(&self) -> FigureSeries {
        FigureSeries {
            x_name: self.x_name.clone(),
            columns: self.columns.clone(),
            rows: self
                .cells
                .iter()
                .map(|(x, results)| (*x, results.iter().map(|r| r.mean_response()).collect()))
                .collect(),
        }
    }
}

fn pools_runs(scale: &Scale, network: NetworkModel, link: LinkProfile) -> FigureRuns {
    let columns: Vec<String> = scale
        .client_counts
        .iter()
        .map(|c| format!("clients={c}"))
        .collect();
    let cells = scale
        .pool_counts
        .iter()
        .map(|&pools| {
            let results = scale
                .client_counts
                .iter()
                .map(|&clients| {
                    SimulatedPipeline::new(experiment(
                        scale,
                        PoolTopology::Striped { pools },
                        clients,
                        network.clone(),
                        link,
                    ))
                    .run()
                })
                .collect();
            (pools as f64, results)
        })
        .collect();
    FigureRuns {
        x_name: "pools".to_string(),
        columns,
        cells,
    }
}

/// Figure 4 (full measurements): effect of the number of pools, LAN.
pub fn fig4_runs(scale: &Scale) -> FigureRuns {
    pools_runs(scale, NetworkModel::lan(), LinkProfile::Lan)
}

/// Figure 5 (full measurements): the same sweep, WAN configuration.
pub fn fig5_runs(scale: &Scale) -> FigureRuns {
    pools_runs(scale, NetworkModel::wan(), LinkProfile::Wan)
}

/// Figure 4: effect of the number of pools on response time, LAN
/// configuration.  3,200 machines uniformly distributed across pools,
/// queries striped randomly across pools, closed-loop clients.
pub fn fig4_pools_lan(scale: &Scale) -> FigureSeries {
    fig4_runs(scale).series()
}

/// Figure 5: the same sweep in the WAN configuration (clients reach the
/// service over a trans-Atlantic link).
pub fn fig5_pools_wan(scale: &Scale) -> FigureSeries {
    fig5_runs(scale).series()
}

/// Figure 6 (full measurements): clients versus pool size.
pub fn fig6_runs(scale: &Scale) -> FigureRuns {
    let sizes = [scale.machines / 4, scale.machines / 2, scale.machines];
    let columns: Vec<String> = sizes.iter().map(|s| format!("machines={s}")).collect();
    let cells = scale
        .client_counts
        .iter()
        .map(|&clients| {
            let results = sizes
                .iter()
                .map(|&machines| {
                    let mut cfg = experiment(
                        scale,
                        PoolTopology::SinglePool,
                        clients,
                        NetworkModel::lan(),
                        LinkProfile::Lan,
                    );
                    cfg.machines = machines.max(1);
                    SimulatedPipeline::new(cfg).run()
                })
                .collect();
            (clients as f64, results)
        })
        .collect();
    FigureRuns {
        x_name: "clients".to_string(),
        columns,
        cells,
    }
}

/// Figure 6: response time as a function of the number of clients for
/// growing pool sizes (single pool, linear-search scheduler).
pub fn fig6_pool_size(scale: &Scale) -> FigureSeries {
    fig6_runs(scale).series()
}

/// Figure 7 (full measurements): splitting one pool into parts.
pub fn fig7_runs(scale: &Scale) -> FigureRuns {
    let variants: [(usize, &str); 3] = [(1, "1x whole"), (2, "2x halves"), (4, "4x quarters")];
    let columns: Vec<String> = variants
        .iter()
        .map(|(_, label)| label.to_string())
        .collect();
    let cells = scale
        .client_counts
        .iter()
        .map(|&clients| {
            let results = variants
                .iter()
                .map(|&(parts, _)| {
                    let topology = if parts == 1 {
                        PoolTopology::SinglePool
                    } else {
                        PoolTopology::Split { parts }
                    };
                    SimulatedPipeline::new(experiment(
                        scale,
                        topology,
                        clients,
                        NetworkModel::lan(),
                        LinkProfile::Lan,
                    ))
                    .run()
                })
                .collect();
            (clients as f64, results)
        })
        .collect();
    FigureRuns {
        x_name: "clients".to_string(),
        columns,
        cells,
    }
}

/// Figure 7: effect of splitting a 3,200-machine pool into two pools of
/// 1,600 and four pools of 800, searched concurrently.
pub fn fig7_splitting(scale: &Scale) -> FigureSeries {
    fig7_runs(scale).series()
}

/// Figure 8 (full measurements): replicated scheduling processes.
pub fn fig8_runs(scale: &Scale) -> FigureRuns {
    let replica_counts = [1usize, 2, 4];
    let columns: Vec<String> = replica_counts
        .iter()
        .map(|r| format!("processes={r}"))
        .collect();
    let cells = scale
        .client_counts
        .iter()
        .map(|&clients| {
            let results = replica_counts
                .iter()
                .map(|&replicas| {
                    SimulatedPipeline::new(experiment(
                        scale,
                        PoolTopology::Replicated { replicas },
                        clients,
                        NetworkModel::lan(),
                        LinkProfile::Lan,
                    ))
                    .run()
                })
                .collect();
            (clients as f64, results)
        })
        .collect();
    FigureRuns {
        x_name: "clients".to_string(),
        columns,
        cells,
    }
}

/// Figure 8: effect of replicating the pool (1, 2 and 4 concurrent
/// scheduling processes over the same machine set, instance-specific bias).
pub fn fig8_replication(scale: &Scale) -> FigureSeries {
    fig8_runs(scale).series()
}

/// Figure 9: distribution of CPU times of PUNCH runs — one-second bins over
/// the first 1,000 seconds, as the paper plots (axes truncated; the counts
/// beyond the range appear in the final `overflow` row with x = -1).
pub fn fig9_cputime_dist(scale: &Scale) -> FigureSeries {
    let mut rng = Rng::new(scale.seed ^ 0xF19);
    let histogram = CpuTimeDistribution::punch().histogram(&mut rng, scale.figure9_runs, 1_000);
    let mut rows: Vec<(f64, Vec<f64>)> = histogram
        .iter()
        .map(|(x, count)| (x, vec![count as f64]))
        .collect();
    rows.push((-1.0, vec![histogram.overflow() as f64]));
    FigureSeries {
        x_name: "cpu_seconds".to_string(),
        columns: vec!["runs".to_string()],
        rows,
    }
}

/// Ablation A2: scheduling objective of the pool's scheduling process under
/// a fixed load.
pub fn ablation_scheduler(scale: &Scale) -> FigureSeries {
    let objectives = [
        (SchedulingObjective::LeastLoaded, "least-loaded"),
        (SchedulingObjective::MostFreeMemory, "most-memory"),
        (SchedulingObjective::RoundRobin, "round-robin"),
        (SchedulingObjective::Random, "random"),
        (SchedulingObjective::FirstFit, "first-fit"),
    ];
    let columns: Vec<String> = objectives.iter().map(|(_, l)| l.to_string()).collect();
    let clients = *scale.client_counts.last().unwrap_or(&16);
    let ys: Vec<f64> = objectives
        .iter()
        .map(|&(objective, _)| {
            let mut cfg = experiment(
                scale,
                PoolTopology::SinglePool,
                clients,
                NetworkModel::lan(),
                LinkProfile::Lan,
            );
            cfg.objective = objective;
            SimulatedPipeline::new(cfg).run().mean_response()
        })
        .collect();
    FigureSeries {
        x_name: "clients".to_string(),
        columns,
        rows: vec![(clients as f64, ys)],
    }
}

/// Ablation A3 / baseline comparison: total machine-record evaluations per
/// 1,000 scheduling decisions for the pipeline (pool caches) versus the
/// centralized baselines (full-table scans), on the same heterogeneous
/// fleet.  Lower is better; this is the quantity that limits a centralized
/// scheduler's throughput.
pub fn baseline_comparison(scale: &Scale) -> FigureSeries {
    let queries = 1_000.min(scale.machines);
    let db = SyntheticFleet::new(FleetSpec::with_machines(scale.machines), scale.seed)
        .generate()
        .into_shared();
    let query = Query::new()
        .with(QueryKey::rsrc("arch"), Constraint::eq("sun"))
        .with(QueryKey::rsrc("memory"), Constraint::ge(128u64));

    // All three architectures run the same workload over the same fleet
    // through the unified `ResourceManager` surface; the pipeline's queries
    // hit the dynamically created sun pool, the centralized designs scan
    // the full table per decision.
    let kinds = [
        (BackendKind::Live, "actyp-pipeline"),
        (BackendKind::CentralQueue, "central-queue"),
        (BackendKind::Matchmaker, "matchmaker"),
    ];
    let mut examined = Vec::with_capacity(kinds.len());
    for (kind, _) in kinds {
        let manager = PipelineBuilder::new()
            .database(db.clone())
            .build(kind)
            .expect("database configured");
        for _ in 0..queries {
            if let Ok(allocations) = manager.submit_wait(&query) {
                for a in &allocations {
                    let _ = manager.release(a);
                }
            }
        }
        examined.push(manager.stats().records_examined as f64);
    }

    FigureSeries {
        x_name: "queries".to_string(),
        columns: kinds.iter().map(|(_, label)| label.to_string()).collect(),
        rows: vec![(queries as f64, examined)],
    }
}

/// Ablation A1: pool-manager selection policy (by key value vs. random vs.
/// round-robin) measured as the number of pool instances created and the
/// forwards incurred for a fixed query mix over several pool managers.
pub fn ablation_pm_selection(scale: &Scale) -> FigureSeries {
    use actyp_pipeline::PoolManagerSelection;
    let policies = [
        (
            PoolManagerSelection::ByKeyValue("arch".to_string()),
            "by-arch",
        ),
        (PoolManagerSelection::Random, "random"),
        (PoolManagerSelection::RoundRobin, "round-robin"),
    ];
    let columns: Vec<String> = policies.iter().map(|(_, l)| l.to_string()).collect();
    let queries = 200;
    let ys: Vec<f64> = policies
        .iter()
        .map(|(policy, _)| {
            let db = SyntheticFleet::new(
                FleetSpec::with_machines(scale.machines.min(800)),
                scale.seed,
            )
            .generate()
            .into_shared();
            let manager = PipelineBuilder::new()
                .database(db)
                .pool_managers(4)
                .pool_manager_selection(policy.clone())
                .build_live()
                .expect("database configured");
            for i in 0..queries {
                let arch = if i % 2 == 0 { "sun" } else { "hp" };
                let q = Query::new().with(QueryKey::rsrc("arch"), Constraint::eq(arch));
                if let Ok(allocations) = manager.submit_wait(&q) {
                    for a in &allocations {
                        let _ = manager.release(a);
                    }
                }
            }
            manager.stats().forwards as f64
        })
        .collect();
    FigureSeries {
        x_name: "queries".to_string(),
        columns,
        rows: vec![(queries as f64, ys)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            machines: 200,
            requests_per_client: 3,
            client_counts: vec![2, 8],
            pool_counts: vec![2, 8],
            figure9_runs: 5_000,
            seed: 7,
        }
    }

    #[test]
    fn fig4_more_pools_do_not_hurt_under_load() {
        let series = fig4_pools_lan(&tiny());
        assert_eq!(series.rows.len(), 2);
        let two = series.value(2.0, "clients=8").unwrap();
        let eight = series.value(8.0, "clients=8").unwrap();
        assert!(
            eight <= two,
            "8 pools ({eight}) must not be slower than 2 ({two})"
        );
        assert!(!series.to_csv().is_empty());
    }

    #[test]
    fn fig5_wan_is_slower_than_lan() {
        let scale = tiny();
        let lan = fig4_pools_lan(&scale);
        let wan = fig5_pools_wan(&scale);
        let l = lan.value(2.0, "clients=2").unwrap();
        let w = wan.value(2.0, "clients=2").unwrap();
        assert!(w > l, "wan {w} must exceed lan {l}");
    }

    #[test]
    fn fig6_response_grows_with_clients_and_pool_size() {
        let series = fig6_pool_size(&tiny());
        let cols = series.columns.clone();
        let few = series.value(2.0, &cols[2]).unwrap();
        let many = series.value(8.0, &cols[2]).unwrap();
        assert!(many > few);
        let small_pool = series.value(8.0, &cols[0]).unwrap();
        let large_pool = series.value(8.0, &cols[2]).unwrap();
        assert!(large_pool > small_pool);
    }

    #[test]
    fn fig7_and_fig8_show_improvement_under_load() {
        let scale = tiny();
        let split = fig7_splitting(&scale);
        assert!(split.value(8.0, "4x quarters").unwrap() < split.value(8.0, "1x whole").unwrap());
        let repl = fig8_replication(&scale);
        assert!(repl.value(8.0, "processes=4").unwrap() < repl.value(8.0, "processes=1").unwrap());
    }

    #[test]
    fn fig9_histogram_shape() {
        let series = fig9_cputime_dist(&tiny());
        assert_eq!(series.rows.len(), 1_001);
        // The mode is within the first ten seconds.
        let mode_x = series
            .rows
            .iter()
            .filter(|(x, _)| *x >= 0.0)
            .max_by(|a, b| a.1[0].total_cmp(&b.1[0]))
            .unwrap()
            .0;
        assert!(mode_x < 10.0);
    }

    #[test]
    fn baseline_comparison_shows_pipeline_examining_fewer_records() {
        let series = baseline_comparison(&tiny());
        let row = &series.rows[0].1;
        let (pipeline, central, matchmaker) = (row[0], row[1], row[2]);
        assert!(
            pipeline < central,
            "pipeline {pipeline} vs central {central}"
        );
        assert!(pipeline < matchmaker);
    }

    #[test]
    fn ablation_series_have_expected_shape() {
        let scale = tiny();
        let sched = ablation_scheduler(&scale);
        assert_eq!(sched.columns.len(), 5);
        assert!(sched.rows[0].1.iter().all(|y| *y > 0.0));
        let pm = ablation_pm_selection(&scale);
        assert_eq!(pm.columns.len(), 3);
        // Routing by the key value never forwards; the others may.
        assert_eq!(pm.rows[0].1[0], 0.0);
    }

    #[test]
    fn scale_from_env_defaults_to_full() {
        // Not setting the variable in tests: the default is the paper scale.
        let scale = Scale::default();
        assert_eq!(scale.machines, 3_200);
        assert_eq!(Scale::quick().machines, 640);
    }
}
