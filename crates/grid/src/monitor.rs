//! Synthetic resource monitoring.
//!
//! The paper delegates monitoring to an external system (an open-source
//! version of SGI's Performance Co-Pilot was being evaluated) whose only job
//! is to keep fields 2–7 of the database fresh.  For the reproduction we
//! synthesise that signal: each monitoring sweep perturbs every machine's
//! load and memory with a bounded random walk plus the load contributed by
//! the jobs PUNCH itself has placed there.  This gives schedulers realistic,
//! time-varying data without modelling the external workload in detail.

use actyp_simnet::{Rng, SimDuration, SimTime};

use crate::database::ResourceDatabase;
use crate::machine::MachineState;

/// Configuration of the synthetic monitor.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Interval between monitoring sweeps.
    pub interval: SimDuration,
    /// Maximum absolute change in load per sweep from external activity.
    pub load_walk_step: f64,
    /// Fraction of total memory each sweep may shift (0–1).
    pub memory_walk_step: f64,
    /// Load ceiling used to clamp the random walk.
    pub max_external_load: f64,
    /// Probability per sweep that a machine fails (goes `Down`).
    pub failure_probability: f64,
    /// Probability per sweep that a `Down` machine recovers.
    pub recovery_probability: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            interval: SimDuration::from_secs(30),
            load_walk_step: 0.25,
            memory_walk_step: 0.05,
            max_external_load: 4.0,
            failure_probability: 0.0,
            recovery_probability: 0.0,
        }
    }
}

/// The synthetic resource-monitoring service.
#[derive(Debug)]
// lint-allow(reach): tests/failure_injection.rs drives the pipeline under its sweeps
pub struct ResourceMonitor {
    config: MonitorConfig,
    rng: Rng,
    sweeps: u64,
}

impl ResourceMonitor {
    /// Creates a monitor with the given configuration and RNG seed.
    pub fn new(config: MonitorConfig, seed: u64) -> Self {
        ResourceMonitor {
            config,
            rng: Rng::new(seed),
            sweeps: 0,
        }
    }

    /// Performs one monitoring sweep at virtual time `now`, updating the
    /// dynamic fields of every machine in the database.
    pub fn sweep(&mut self, db: &mut ResourceDatabase, now: SimTime) {
        self.sweeps += 1;
        let ids: Vec<_> = db.iter().map(|m| m.id).collect();
        for id in ids {
            // Possibly flip availability first.
            if self.config.failure_probability > 0.0 || self.config.recovery_probability > 0.0 {
                let state = db.get(id).map(|m| m.state);
                match state {
                    Some(MachineState::Up) if self.rng.chance(self.config.failure_probability) => {
                        db.set_state(id, MachineState::Down);
                    }
                    Some(MachineState::Down)
                        if self.rng.chance(self.config.recovery_probability) =>
                    {
                        db.set_state(id, MachineState::Up);
                    }
                    _ => {}
                }
            }

            let step = self.config.load_walk_step;
            let mem_step = self.config.memory_walk_step;
            let max_load = self.config.max_external_load;
            let delta_load = self.rng.range_f64(-step, step);
            let delta_mem_frac = self.rng.range_f64(-mem_step, mem_step);
            db.update_dynamic(id, now, |m| {
                let punch_load = m.dynamic.active_jobs as f64 / m.num_cpus.max(1) as f64;
                let external =
                    (m.dynamic.current_load - punch_load + delta_load).clamp(0.0, max_load);
                m.dynamic.current_load = external + punch_load;

                let total_mem = m
                    .attribute("memory")
                    .and_then(|v| v.as_num())
                    .unwrap_or(512.0);
                let mem = (m.dynamic.available_memory_mb + delta_mem_frac * total_mem)
                    .clamp(0.0, total_mem);
                m.dynamic.available_memory_mb = mem;
                m.dynamic.available_swap_mb =
                    (m.dynamic.available_swap_mb).clamp(0.0, 2.0 * total_mem);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachineId};

    fn db_with(n: usize) -> ResourceDatabase {
        let mut db = ResourceDatabase::new();
        for i in 0..n {
            let mut m = Machine::new(MachineId(0), format!("host{i}"))
                .with_param("arch", "sun")
                .with_param("memory", 512u64);
            m.dynamic.available_memory_mb = 256.0;
            db.register(m);
        }
        db
    }

    #[test]
    fn sweep_updates_every_machine_timestamp() {
        let mut db = db_with(20);
        let mut monitor = ResourceMonitor::new(MonitorConfig::default(), 1);
        let now = SimTime::from_nanos(42);
        monitor.sweep(&mut db, now);
        assert!(db.iter().all(|m| m.dynamic.last_update == now));
        assert_eq!(monitor.sweeps, 1);
    }

    #[test]
    fn load_stays_within_bounds() {
        let mut db = db_with(10);
        let mut monitor = ResourceMonitor::new(
            MonitorConfig {
                load_walk_step: 1.0,
                max_external_load: 2.0,
                ..MonitorConfig::default()
            },
            7,
        );
        for step in 0..200 {
            monitor.sweep(&mut db, SimTime::from_nanos(step));
        }
        for m in db.iter() {
            assert!(m.dynamic.current_load >= 0.0);
            assert!(m.dynamic.current_load <= 2.0 + 1e-9);
            let total = 512.0;
            assert!(m.dynamic.available_memory_mb >= 0.0);
            assert!(m.dynamic.available_memory_mb <= total);
        }
    }

    #[test]
    fn punch_jobs_contribute_to_load() {
        let mut db = db_with(1);
        let id = db.iter().next().unwrap().id;
        db.update_dynamic(id, SimTime::ZERO, |m| m.dynamic.active_jobs = 4);
        let mut monitor = ResourceMonitor::new(
            MonitorConfig {
                load_walk_step: 0.0,
                ..MonitorConfig::default()
            },
            3,
        );
        monitor.sweep(&mut db, SimTime::from_nanos(1));
        // One CPU, four PUNCH jobs: load must be at least 4.
        assert!(db.get(id).unwrap().dynamic.current_load >= 4.0);
    }

    #[test]
    fn failures_and_recoveries_toggle_state() {
        let mut db = db_with(50);
        let mut monitor = ResourceMonitor::new(
            MonitorConfig {
                failure_probability: 0.5,
                recovery_probability: 0.0,
                ..MonitorConfig::default()
            },
            11,
        );
        for step in 0..10 {
            monitor.sweep(&mut db, SimTime::from_nanos(step));
        }
        let down =
            |db: &ResourceDatabase| db.iter().filter(|m| m.state == MachineState::Down).count();
        assert!(
            down(&db) > 0,
            "with p=0.5 over 10 sweeps some machines must fail"
        );

        let mut recovering = ResourceMonitor::new(
            MonitorConfig {
                failure_probability: 0.0,
                recovery_probability: 1.0,
                ..MonitorConfig::default()
            },
            12,
        );
        recovering.sweep(&mut db, SimTime::from_nanos(100));
        assert_eq!(down(&db), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut db1 = db_with(10);
        let mut db2 = db_with(10);
        let mut m1 = ResourceMonitor::new(MonitorConfig::default(), 99);
        let mut m2 = ResourceMonitor::new(MonitorConfig::default(), 99);
        for step in 0..20 {
            m1.sweep(&mut db1, SimTime::from_nanos(step));
            m2.sweep(&mut db2, SimTime::from_nanos(step));
        }
        for (a, b) in db1.iter().zip(db2.iter()) {
            assert_eq!(a.dynamic.current_load, b.dynamic.current_load);
            assert_eq!(a.dynamic.available_memory_mb, b.dynamic.available_memory_mb);
        }
    }
}
