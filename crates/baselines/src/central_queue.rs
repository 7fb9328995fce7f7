//! A centralized, multi-queue cluster scheduler (PBS / SGE style).
//!
//! Jobs are submitted to a queue chosen by their expected run time (the
//! "one queue for short jobs; another for large ones" arrangement the paper
//! describes), and a single scheduler thread dispatches from the queues in
//! priority order.  Every dispatch scans the full machine table — there is
//! no aggregation — which is the structural difference from the ActYP
//! pipeline that the comparison benches expose.

use std::collections::VecDeque;

use actyp_grid::{MachineId, SharedDatabase};
use actyp_query::{admits_user, matches_machine, BasicQuery};

/// The class (queue) a job is routed to, by expected CPU time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueClass {
    /// Interactive / very short jobs (< 60 s).
    Short,
    /// Medium jobs (< 1 h).
    Medium,
    /// Long batch jobs.
    Long,
}

impl QueueClass {
    /// Classifies a job by its expected CPU seconds (unknown ⇒ `Medium`).
    pub fn classify(expected_cpu_seconds: Option<f64>) -> QueueClass {
        match expected_cpu_seconds {
            Some(s) if s < 60.0 => QueueClass::Short,
            Some(s) if s < 3_600.0 => QueueClass::Medium,
            Some(_) => QueueClass::Long,
            None => QueueClass::Medium,
        }
    }
}

/// The result of a submit-and-dispatch cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The job was dispatched to a machine; carries the machine and how many
    /// database entries the scheduler examined.
    Dispatched {
        /// Chosen machine.
        machine: MachineId,
        /// Machine-table entries scanned.
        examined: usize,
    },
    /// No machine currently satisfies the job; it stays queued.
    Queued(QueueClass),
}

/// A centralized multi-queue scheduler.
pub struct CentralScheduler {
    db: SharedDatabase,
    short: VecDeque<BasicQuery>,
    medium: VecDeque<BasicQuery>,
    long: VecDeque<BasicQuery>,
    dispatched: u64,
    scanned_total: u64,
}

impl CentralScheduler {
    /// Creates a scheduler over the shared machine database.
    pub fn new(db: SharedDatabase) -> Self {
        CentralScheduler {
            db,
            short: VecDeque::new(),
            medium: VecDeque::new(),
            long: VecDeque::new(),
            dispatched: 0,
            scanned_total: 0,
        }
    }

    /// Total machine-table entries scanned over the scheduler's lifetime —
    /// the quantity that makes the centralized design a bottleneck.
    pub fn scanned_total(&self) -> u64 {
        self.scanned_total
    }

    fn queue_mut(&mut self, class: QueueClass) -> &mut VecDeque<BasicQuery> {
        match class {
            QueueClass::Short => &mut self.short,
            QueueClass::Medium => &mut self.medium,
            QueueClass::Long => &mut self.long,
        }
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

    /// Submits a job and immediately attempts to dispatch it (the paper's
    /// baseline schedulers dispatch on submission when a slot is free).  On
    /// dispatch the chosen machine's job count is bumped, exactly as the
    /// pipeline does, so the two architectures are load-comparable.
    pub fn submit(&mut self, query: BasicQuery) -> SubmitOutcome {
        match self.try_submit(&query) {
            Some((machine, examined)) => SubmitOutcome::Dispatched { machine, examined },
            None => {
                let class = QueueClass::classify(query.expected_cpu_use());
                self.queue_mut(class).push_back(query);
                SubmitOutcome::Queued(class)
            }
        }
    }

    /// Dispatches a job if a machine fits right now; unlike
    /// [`CentralScheduler::submit`], a job that does not fit is *not*
    /// queued — callers that report failures to their client (the unified
    /// `ResourceManager` surface) use this so rejected jobs cannot pile up
    /// inside the scheduler.
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
    fn classification_by_expected_runtime() {
        assert_eq!(QueueClass::classify(Some(5.0)), QueueClass::Short);
        assert_eq!(QueueClass::classify(Some(600.0)), QueueClass::Medium);
        assert_eq!(QueueClass::classify(Some(86_400.0)), QueueClass::Long);
        assert_eq!(QueueClass::classify(None), QueueClass::Medium);
    }

    #[test]
    fn submit_dispatches_and_scans_the_whole_table() {
        let mut scheduler = CentralScheduler::new(db(50));
        match scheduler.submit(job(10.0)) {
            SubmitOutcome::Dispatched { examined, .. } => assert_eq!(examined, 50),
            other => panic!("expected dispatch, got {other:?}"),
        }
        assert_eq!(scheduler.dispatched, 1);
        assert_eq!(scheduler.scanned_total(), 50);
    }

    #[test]
    fn unsatisfiable_jobs_queue_by_class() {
        let database = db(10);
        // Saturate every machine.
        {
            let mut guard = database.write();
            let ids: Vec<_> = guard.iter().map(|m| m.id).collect();
            for id in ids {
                let m = guard.get_mut(id).unwrap();
                m.dynamic.current_load = m.max_allowed_load + 1.0;
            }
        }
        let mut scheduler = CentralScheduler::new(database.clone());
        assert_eq!(
            scheduler.submit(job(5.0)),
            SubmitOutcome::Queued(QueueClass::Short)
        );
        assert_eq!(
            scheduler.submit(job(100_000.0)),
            SubmitOutcome::Queued(QueueClass::Long)
        );
        assert_eq!(
            scheduler.short.len() + scheduler.medium.len() + scheduler.long.len(),
            2
        );
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
        assert_eq!(
            scheduler.short.len() + scheduler.medium.len() + scheduler.long.len(),
            0,
            "try_submit never queues"
        );
    }

    #[test]
    fn finish_restores_machine_load() {
        let database = db(5);
        let mut scheduler = CentralScheduler::new(database.clone());
        let machine = match scheduler.submit(job(10.0)) {
            SubmitOutcome::Dispatched { machine, .. } => machine,
            other => panic!("expected dispatch, got {other:?}"),
        };
        assert_eq!(database.read().get(machine).unwrap().dynamic.active_jobs, 1);
        scheduler.finish(machine);
        assert_eq!(database.read().get(machine).unwrap().dynamic.active_jobs, 0);
    }

    #[test]
    fn scan_cost_grows_linearly_with_fleet_size() {
        let mut small = CentralScheduler::new(db(100));
        let mut large = CentralScheduler::new(db(1000));
        small.submit(job(10.0));
        large.submit(job(10.0));
        assert_eq!(small.scanned_total() * 10, large.scanned_total());
    }
}
