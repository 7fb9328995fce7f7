//! The network desktop: end-to-end run orchestration.
//!
//! [`NetworkDesktop`] glues the whole system together along the event
//! sequence of Figure 1: authorise the user, run the application-management
//! steps of Figure 2 (parse, estimate, rank, derive, compose), hand the
//! query to the ActYP pipeline, and on success mount the application and
//! data disks, start the execution unit and return a [`RunHandle`].
//! Completing (or aborting) the run unmounts the disks and relinquishes the
//! shadow account and resources by releasing the allocation.

use std::collections::HashMap;

use actyp_appmgmt::{compose_query, HardwareRequirements, KnowledgeBase, PerformanceModel};
use actyp_grid::SharedDatabase;
use actyp_pipeline::api::LiveBackend;
use actyp_pipeline::{
    Allocation, AllocationError, PipelineBuilder, PipelineConfig, ResourceManager,
};
use actyp_simnet::{SimDuration, SimTime};

use crate::execution::ExecutionUnit;
#[cfg(test)]
use crate::execution::SessionState;
use crate::users::{AuthorizationError, UserRegistry};
use crate::vfs::MountManager;

/// Why a run could not be started or completed.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// Authorisation failed.
    Authorization(AuthorizationError),
    /// The command could not be parsed / the tool is unknown.
    Invocation(String),
    /// The ActYP pipeline could not allocate resources.
    Allocation(AllocationError),
    /// The referenced run handle is unknown (already completed?).
    UnknownRun,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Authorization(e) => write!(f, "authorization failed: {e}"),
            RunError::Invocation(e) => write!(f, "invalid invocation: {e}"),
            RunError::Allocation(e) => write!(f, "resource allocation failed: {e}"),
            RunError::UnknownRun => write!(f, "unknown run handle"),
        }
    }
}

impl std::error::Error for RunError {}

/// Handle to a run started through the desktop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunHandle(u64);

/// The outcome of a completed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The tool that ran.
    pub tool: String,
    /// Machine the run executed on.
    pub machine_name: String,
    /// CPU time consumed (reference-machine seconds).
    pub cpu_seconds: f64,
    /// Predicted CPU time, for accounting and model calibration.
    pub predicted_cpu_seconds: f64,
}

struct ActiveRun {
    tool: String,
    allocation: Allocation,
    execution_index: usize,
    predicted_cpu: f64,
    predicted_memory: f64,
}

/// The PUNCH network desktop.
pub struct NetworkDesktop {
    users: UserRegistry,
    knowledge: KnowledgeBase,
    model: PerformanceModel,
    manager: LiveBackend,
    vfs: MountManager,
    execution_units: HashMap<actyp_grid::MachineId, ExecutionUnit>,
    runs: HashMap<RunHandle, ActiveRun>,
    next_run: u64,
    clock: SimTime,
}

impl NetworkDesktop {
    /// Builds a desktop over a resource database, with the demo user
    /// population and the default tool knowledge base.
    pub fn new(db: SharedDatabase, pipeline: PipelineConfig) -> Self {
        Self::with_users(db, pipeline, UserRegistry::demo())
    }

    /// Builds a desktop with an explicit user registry.
    pub fn with_users(db: SharedDatabase, pipeline: PipelineConfig, users: UserRegistry) -> Self {
        NetworkDesktop {
            users,
            knowledge: KnowledgeBase::punch_defaults(),
            model: PerformanceModel::new(),
            manager: PipelineBuilder::new()
                .database(db)
                .config(pipeline)
                .build_live()
                .expect("a database was provided"),
            vfs: MountManager::new(),
            execution_units: HashMap::new(),
            runs: HashMap::new(),
            next_run: 0,
            clock: SimTime::ZERO,
        }
    }

    /// Access to the underlying resource manager (inspection).  The
    /// desktop drives it through the unified [`ResourceManager`] trait —
    /// the same surface a remote deployment would offer.
    pub fn manager(&self) -> &LiveBackend {
        &self.manager
    }

    /// Access to the mount manager (inspection).
    pub fn mounts(&self) -> &MountManager {
        &self.vfs
    }

    /// Number of runs currently executing.
    pub fn active_runs(&self) -> usize {
        self.runs.len()
    }

    /// Starts a run: the full Figure 1 sequence up to and including event 6.
    pub fn start_run(&mut self, login: &str, command: &str) -> Result<RunHandle, RunError> {
        // Event 1–2: authorisation and application management.
        let invocation = actyp_appmgmt::parse_invocation(command, &self.knowledge)
            .map_err(|e| RunError::Invocation(e.to_string()))?;
        let user = self
            .users
            .authorize(login, &invocation.tool)
            .map_err(RunError::Authorization)?
            .clone();
        let tool = self
            .knowledge
            .tool(&invocation.tool)
            .expect("parse_invocation guarantees the tool exists")
            .clone();
        let algorithm = tool
            .select_algorithm(invocation.min_accuracy)
            .ok_or_else(|| RunError::Invocation(format!("tool {} has no algorithms", tool.name)))?
            .clone();
        let estimate = self.model.estimate(&tool, &invocation, &algorithm);
        let requirements = HardwareRequirements::derive(&tool, &invocation, &estimate);
        let query = compose_query(&requirements, &estimate, &user.login, &user.access_group);

        // Event 3–6: ActYP allocation.
        let mut allocations = self
            .manager
            .submit_wait(&query)
            .map_err(RunError::Allocation)?;
        let allocation = allocations.remove(0);
        // A composite query may return more than one match under the All
        // policy; the desktop needs a single machine, so surplus goes back.
        for extra in allocations {
            let _ = self.manager.release(&extra);
        }

        // Mount application and data disks.
        let key = allocation.access_key.0.clone();
        let _ = self.vfs.mount(
            allocation.machine,
            &key,
            &format!("application:{}", tool.name),
        );
        let _ = self.vfs.mount(
            allocation.machine,
            &key,
            &format!("data:{}/{}", user.storage_provider, user.login),
        );

        // Start the execution unit session.
        let unit = self
            .execution_units
            .entry(allocation.machine)
            .or_insert_with(|| ExecutionUnit::new(allocation.machine, allocation.execution_port));
        let execution_index = unit.accept(&tool.name, &key, true);
        unit.start(execution_index, self.clock);

        let handle = RunHandle(self.next_run);
        self.next_run += 1;
        self.runs.insert(
            handle,
            ActiveRun {
                tool: tool.name.clone(),
                allocation,
                execution_index,
                predicted_cpu: estimate.cpu_seconds,
                predicted_memory: estimate.memory_mb,
            },
        );
        Ok(handle)
    }

    /// Completes a run: the execution unit records the consumed CPU time,
    /// the disks are unmounted, the model is calibrated with the
    /// observation, and the allocation (machine + shadow account) is
    /// relinquished.
    pub fn complete_run(
        &mut self,
        handle: RunHandle,
        actual_cpu_seconds: f64,
    ) -> Result<RunOutcome, RunError> {
        let run = self.runs.remove(&handle).ok_or(RunError::UnknownRun)?;
        if let Some(unit) = self.execution_units.get_mut(&run.allocation.machine) {
            unit.complete(
                run.execution_index,
                SimDuration::from_secs_f64(actual_cpu_seconds),
            );
        }
        self.vfs.unmount_session(&run.allocation.access_key.0);
        self.model.observe(
            &actyp_appmgmt::ResourceEstimate {
                cpu_seconds: run.predicted_cpu,
                memory_mb: run.predicted_memory,
                algorithm: String::new(),
            },
            actual_cpu_seconds,
            run.predicted_memory,
        );
        self.manager
            .release(&run.allocation)
            .map_err(RunError::Allocation)?;
        Ok(RunOutcome {
            tool: run.tool,
            machine_name: run.allocation.machine_name.clone(),
            cpu_seconds: actual_cpu_seconds,
            predicted_cpu_seconds: run.predicted_cpu,
        })
    }

    /// Aborts a run: the session is marked aborted and everything is
    /// released, but no observation is folded into the model.
    #[cfg(test)]
    pub fn abort_run(&mut self, handle: RunHandle) -> Result<(), RunError> {
        let run = self.runs.remove(&handle).ok_or(RunError::UnknownRun)?;
        if let Some(unit) = self.execution_units.get_mut(&run.allocation.machine) {
            unit.abort(run.execution_index);
        }
        self.vfs.unmount_session(&run.allocation.access_key.0);
        self.manager
            .release(&run.allocation)
            .map_err(RunError::Allocation)?;
        Ok(())
    }

    /// State of the execution-unit session behind a run handle, if the run
    /// is still active.
    #[cfg(test)]
    pub fn run_state(&self, handle: RunHandle) -> Option<SessionState> {
        let run = self.runs.get(&handle)?;
        self.execution_units
            .get(&run.allocation.machine)?
            .session(run.execution_index)
            .map(|s| s.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actyp_grid::{FleetSpec, SyntheticFleet};

    fn desktop(machines: usize, seed: u64) -> NetworkDesktop {
        let db = SyntheticFleet::new(FleetSpec::with_machines(machines), seed)
            .generate()
            .into_shared();
        NetworkDesktop::new(db, PipelineConfig::default())
    }

    #[test]
    fn full_run_lifecycle() {
        let mut desk = desktop(300, 1);
        let handle = desk
            .start_run(
                "kapadia",
                "tsuprem4 gridpoints=2000 steps=500 domain=purdue",
            )
            .unwrap();
        assert_eq!(desk.active_runs(), 1);
        assert_eq!(desk.run_state(handle), Some(SessionState::Running));
        // Application + data disks are mounted for the session.
        assert_eq!(desk.mounts().active(), 2);

        let outcome = desk.complete_run(handle, 950.0).unwrap();
        assert_eq!(outcome.tool, "tsuprem4");
        assert!(outcome.machine_name.contains("sun"));
        assert_eq!(desk.active_runs(), 0);
        assert_eq!(desk.mounts().active(), 0);
        assert_eq!(desk.manager().stats().releases, 1);
    }

    #[test]
    fn unauthorized_users_cannot_start_runs() {
        let mut desk = desktop(100, 2);
        let err = desk.start_run("guest", "minimos devicesize=2").unwrap_err();
        assert!(matches!(err, RunError::Authorization(_)));
        let err = desk.start_run("mallory", "spice nodes=10").unwrap_err();
        assert!(matches!(err, RunError::Authorization(_)));
        assert_eq!(desk.active_runs(), 0);
    }

    #[test]
    fn unknown_tools_are_invocation_errors() {
        let mut desk = desktop(100, 3);
        let err = desk.start_run("kapadia", "autocad size=2").unwrap_err();
        assert!(matches!(err, RunError::Invocation(_)));
    }

    #[test]
    fn impossible_hardware_requirements_surface_allocation_errors() {
        // Fleet has no machine with 1e7 MB of memory.
        let mut desk = desktop(50, 4);
        let err = desk
            .start_run(
                "kapadia",
                "carrier-transport carriers=5000000000 gridnodes=100000000",
            )
            .unwrap_err();
        assert!(matches!(err, RunError::Allocation(_)));
    }

    #[test]
    fn aborting_releases_everything() {
        let mut desk = desktop(200, 5);
        let handle = desk.start_run("royo", "spice nodes=500 arch=sun").unwrap();
        desk.abort_run(handle).unwrap();
        assert_eq!(desk.active_runs(), 0);
        assert_eq!(desk.mounts().active(), 0);
        assert_eq!(desk.abort_run(handle), Err(RunError::UnknownRun));
    }

    #[test]
    fn repeated_runs_calibrate_the_performance_model() {
        let mut desk = desktop(300, 6);
        let mut predictions = Vec::new();
        for _ in 0..6 {
            let handle = desk
                .start_run("kapadia", "spice nodes=500 timesteps=5000 arch=sun")
                .unwrap();
            let outcome = desk.complete_run(handle, 400.0).unwrap();
            predictions.push(outcome.predicted_cpu_seconds);
        }
        // The model predictions move toward the consistently larger
        // observations run after run.
        assert!(
            predictions.last().unwrap() > predictions.first().unwrap(),
            "predictions {predictions:?} should increase toward the observed 400 s"
        );
    }

    #[test]
    fn concurrent_runs_occupy_distinct_shadow_accounts() {
        let mut desk = desktop(200, 7);
        let a = desk
            .start_run("kapadia", "spice nodes=100 arch=sun")
            .unwrap();
        let b = desk.start_run("royo", "spice nodes=100 arch=sun").unwrap();
        assert_eq!(desk.active_runs(), 2);
        desk.complete_run(a, 5.0).unwrap();
        desk.complete_run(b, 5.0).unwrap();
    }
}
