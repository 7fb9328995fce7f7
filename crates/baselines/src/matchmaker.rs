//! A centralized Condor-style matchmaker.
//!
//! Condor's matchmaking evaluates every job advertisement against every
//! machine advertisement in a central negotiator and picks the
//! highest-ranked compatible pair.  Here machine "ads" are the records of
//! the shared resource database and job "ads" are basic queries (optionally
//! translated from ClassAd requirement expressions by
//! `actyp_query::classad`), so the baseline exercises exactly the same
//! matching semantics as the pipeline while concentrating all the work in
//! one component.

use actyp_grid::{MachineId, SharedDatabase};
use actyp_query::{admits_user, matches_machine, BasicQuery};

/// The record of one matchmaking decision.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchOutcomeRecord {
    /// The matched machine, if any.
    pub machine: Option<MachineId>,
    /// Machine advertisements evaluated.
    pub evaluated: usize,
    /// Rank of the chosen machine (higher is better), if matched.
    pub rank: Option<f64>,
}

/// The centralized matchmaker.
pub struct Matchmaker {
    db: SharedDatabase,
    cycles: u64,
    matched: u64,
    evaluated_total: u64,
}

impl Matchmaker {
    /// Creates a matchmaker over the shared database.
    pub fn new(db: SharedDatabase) -> Self {
        Matchmaker {
            db,
            cycles: 0,
            matched: 0,
            evaluated_total: 0,
        }
    }

    /// Total machine advertisements evaluated.
    pub fn evaluated_total(&self) -> u64 {
        self.evaluated_total
    }

    /// Rank function: Condor ranks by a job-supplied expression; the default
    /// here prefers fast, idle machines — equivalent to the pipeline's
    /// least-loaded objective modulated by machine speed.
    fn rank(speed: f64, load: f64) -> f64 {
        speed / (1.0 + load)
    }

    /// Matches one job against every machine advertisement and claims the
    /// best-ranked compatible machine.
    pub fn negotiate(&mut self, job: &BasicQuery) -> MatchOutcomeRecord {
        self.cycles += 1;
        let mut evaluated = 0;
        let mut best: Option<(MachineId, f64)> = None;
        {
            let guard = self.db.read();
            for machine in guard.iter() {
                evaluated += 1;
                if !machine.accepting_work()
                    || !matches_machine(job, machine).is_match()
                    || !admits_user(job, machine, 12)
                {
                    continue;
                }
                let rank = Self::rank(machine.effective_speed, machine.dynamic.current_load);
                if best.map(|(_, r)| rank > r).unwrap_or(true) {
                    best = Some((machine.id, rank));
                }
            }
        }
        self.evaluated_total += evaluated as u64;

        match best {
            Some((machine, rank)) => {
                let mut guard = self.db.write();
                if let Some(m) = guard.get_mut(machine) {
                    m.dynamic.active_jobs += 1;
                    m.dynamic.current_load += 1.0 / m.num_cpus.max(1) as f64;
                }
                self.matched += 1;
                MatchOutcomeRecord {
                    machine: Some(machine),
                    evaluated,
                    rank: Some(rank),
                }
            }
            None => MatchOutcomeRecord {
                machine: None,
                evaluated,
                rank: None,
            },
        }
    }

    /// Marks a job matched by [`Matchmaker::negotiate`] as finished on
    /// `machine`, releasing its claim.
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
    use actyp_query::{classad::translate_requirements, Constraint, Query, QueryKey};

    fn db(n: usize) -> SharedDatabase {
        SyntheticFleet::new(FleetSpec::with_machines(n), 23)
            .generate()
            .into_shared()
    }

    fn sun_job() -> BasicQuery {
        Query::new()
            .with(QueryKey::rsrc("arch"), Constraint::eq("sun"))
            .decompose(1)
            .remove(0)
    }

    #[test]
    fn negotiation_matches_and_claims_a_machine() {
        let database = db(100);
        let mut mm = Matchmaker::new(database.clone());
        let outcome = mm.negotiate(&sun_job());
        let machine = outcome.machine.expect("a sun machine exists");
        assert_eq!(outcome.evaluated, 100);
        assert!(outcome.rank.unwrap() > 0.0);
        assert_eq!(database.read().get(machine).unwrap().dynamic.active_jobs, 1);
        assert_eq!(mm.matched, 1);
        mm.finish(machine);
        assert_eq!(database.read().get(machine).unwrap().dynamic.active_jobs, 0);
    }

    #[test]
    fn impossible_jobs_do_not_match() {
        let mut mm = Matchmaker::new(db(50));
        let job = Query::new()
            .with(QueryKey::rsrc("arch"), Constraint::eq("cray"))
            .decompose(1)
            .remove(0);
        let outcome = mm.negotiate(&job);
        assert!(outcome.machine.is_none());
        assert_eq!(outcome.evaluated, 50);
        assert_eq!(mm.matched, 0);
    }

    #[test]
    fn rank_prefers_fast_idle_machines() {
        assert!(Matchmaker::rank(500.0, 0.0) > Matchmaker::rank(100.0, 0.0));
        assert!(Matchmaker::rank(300.0, 0.0) > Matchmaker::rank(300.0, 4.0));
    }

    #[test]
    fn classad_expressions_drive_the_matchmaker() {
        let mut mm = Matchmaker::new(db(200));
        let job =
            translate_requirements("Arch == \"SUN\" && Memory >= 128", Some("c"), Some("ece"))
                .unwrap()
                .decompose(1)
                .remove(0);
        let outcome = mm.negotiate(&job);
        assert!(outcome.machine.is_some());
    }

    #[test]
    fn batch_negotiation_spreads_load() {
        let database = db(100);
        let mut mm = Matchmaker::new(database.clone());
        let jobs: Vec<BasicQuery> = (0..20).map(|_| sun_job()).collect();
        let outcomes: Vec<MatchOutcomeRecord> = jobs.iter().map(|job| mm.negotiate(job)).collect();
        assert_eq!(outcomes.len(), 20);
        let machines: std::collections::HashSet<_> =
            outcomes.iter().filter_map(|o| o.machine).collect();
        assert!(
            machines.len() > 5,
            "rank must spread jobs, got {}",
            machines.len()
        );
        assert_eq!(mm.cycles, 20);
        assert_eq!(mm.evaluated_total(), 2_000);
    }
}
