//! A centralized cluster scheduler (PBS / SGE style).
//!
//! A single scheduler dispatches every job, and every dispatch scans the
//! full machine table — there is no aggregation — which is the structural
//! difference from the ActYP pipeline that the comparison benches expose.
//! A job that fits no machine is refused, not queued, so rejected jobs
//! cannot pile up inside the scheduler.

use actyp_grid::{MachineId, SharedDatabase};
use actyp_query::{admits_user, matches_machine, BasicQuery};

/// A centralized scheduler over one machine table.
pub struct CentralScheduler {
    db: SharedDatabase,
    dispatched: u64,
    scanned_total: u64,
}

impl CentralScheduler {
    /// Creates a scheduler over the shared machine database.
    pub fn new(db: SharedDatabase) -> Self {
        CentralScheduler {
            db,
            dispatched: 0,
            scanned_total: 0,
        }
    }

    /// Total machine-table entries scanned over the scheduler's lifetime —
    /// the quantity that makes the centralized design a bottleneck.
    pub fn scanned_total(&self) -> u64 {
        self.scanned_total
    }

    fn try_dispatch(&mut self, query: &BasicQuery) -> Option<(MachineId, usize)> {
        let guard = self.db.read();
        let mut examined = 0;
        let mut best: Option<(MachineId, f64)> = None;
        for machine in guard.iter() {
            examined += 1;
            if !machine.accepting_work()
                || !matches_machine(query, machine).is_match()
                || !admits_user(query, machine, 12)
            {
                continue;
            }
            let load = machine.dynamic.current_load;
            if best.map(|(_, l)| load < l).unwrap_or(true) {
                best = Some((machine.id, load));
            }
        }
        drop(guard);
        self.scanned_total += examined as u64;
        best.map(|(id, _)| (id, examined))
    }

    /// Dispatches a job if a machine fits right now, returning the machine
    /// and how many table entries the scan examined.  On dispatch the
    /// chosen machine's job count is bumped, exactly as the pipeline does,
    /// so the two architectures are load-comparable.
    pub fn try_submit(&mut self, query: &BasicQuery) -> Option<(MachineId, usize)> {
        let (machine, examined) = self.try_dispatch(query)?;
        let mut guard = self.db.write();
        if let Some(m) = guard.get_mut(machine) {
            m.dynamic.active_jobs += 1;
            m.dynamic.current_load += 1.0 / m.num_cpus.max(1) as f64;
        }
        drop(guard);
        self.dispatched += 1;
        Some((machine, examined))
    }

    /// Marks a previously dispatched job as finished on `machine`.
    pub fn finish(&mut self, machine: MachineId) {
        let mut guard = self.db.write();
        if let Some(m) = guard.get_mut(machine) {
            m.dynamic.active_jobs = m.dynamic.active_jobs.saturating_sub(1);
            m.dynamic.current_load =
                (m.dynamic.current_load - 1.0 / m.num_cpus.max(1) as f64).max(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actyp_grid::{FleetSpec, SyntheticFleet};
    use actyp_query::{Constraint, Query, QueryKey};

    fn db(n: usize) -> SharedDatabase {
        SyntheticFleet::new(FleetSpec::homogeneous(n, "sun", 256), 17)
            .generate()
            .into_shared()
    }

    fn job(cpu: f64) -> BasicQuery {
        Query::new()
            .with(QueryKey::rsrc("arch"), Constraint::eq("sun"))
            .with(QueryKey::appl("expectedcpuuse"), Constraint::eq(cpu))
            .decompose(1)
            .remove(0)
    }

    #[test]
    fn submit_dispatches_and_scans_the_whole_table() {
        let mut scheduler = CentralScheduler::new(db(50));
        let (_, examined) = scheduler.try_submit(&job(10.0)).unwrap();
        assert_eq!(examined, 50);
        assert_eq!(scheduler.dispatched, 1);
        assert_eq!(scheduler.scanned_total(), 50);
    }

    #[test]
    fn try_submit_dispatches_without_queuing_failures() {
        let database = db(5);
        let mut scheduler = CentralScheduler::new(database.clone());
        assert!(scheduler.try_submit(&job(10.0)).is_some());
        assert_eq!(scheduler.dispatched, 1);

        // Saturate every machine: the job is rejected, not parked.
        {
            let mut guard = database.write();
            let ids: Vec<_> = guard.iter().map(|m| m.id).collect();
            for id in ids {
                let m = guard.get_mut(id).unwrap();
                m.dynamic.current_load = m.max_allowed_load + 1.0;
            }
        }
        assert!(scheduler.try_submit(&job(10.0)).is_none());
        assert_eq!(scheduler.dispatched, 1, "a refused job is not dispatched");
        assert_eq!(scheduler.scanned_total(), 10);
    }

    #[test]
    fn finish_restores_machine_load() {
        let database = db(5);
        let mut scheduler = CentralScheduler::new(database.clone());
        let (machine, _) = scheduler.try_submit(&job(10.0)).unwrap();
        assert_eq!(database.read().get(machine).unwrap().dynamic.active_jobs, 1);
        scheduler.finish(machine);
        assert_eq!(database.read().get(machine).unwrap().dynamic.active_jobs, 0);
    }

    #[test]
    fn scan_cost_grows_linearly_with_fleet_size() {
        let mut small = CentralScheduler::new(db(100));
        let mut large = CentralScheduler::new(db(1000));
        small.try_submit(&job(10.0));
        large.try_submit(&job(10.0));
        assert_eq!(small.scanned_total() * 10, large.scanned_total());
    }
}
