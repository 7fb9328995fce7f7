//! Scheduling processes.
//!
//! Each pool object has one or more scheduling processes whose job is to
//! order the machines in the object's cache by a configured objective and to
//! answer allocation queries (Section 5.2.3).  The paper notes the prototype
//! used linear search — the linear growth of response time with pool size in
//! Figure 6 is a direct consequence — so the selection here is also a linear
//! scan, and every outcome reports how many cache entries were examined so
//! the simulated experiments can charge the same cost.

use actyp_grid::{Machine, MachineId, ResourceDatabase};
use actyp_query::{admits_user, matches_machine, BasicQuery};
use actyp_simnet::Rng;

use crate::allocation::AllocationError;

/// The objective a scheduling process optimises when choosing among the
/// machines that satisfy a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulingObjective {
    /// Prefer the machine with the lowest current load (the PUNCH default).
    #[default]
    LeastLoaded,
    /// Prefer the machine with the most free memory.
    MostFreeMemory,
    /// Prefer the machine with the highest effective speed rating.
    FastestCpu,
    /// Take candidates in rotation (cheap, ignores machine state).
    RoundRobin,
    /// Pick a random candidate (cheap, statistically balances load).
    Random,
    /// Return the first acceptable candidate found (early exit — trades
    /// selection quality for a shorter scan).
    FirstFit,
}

/// Replica bias: "instance *i* of a given pool prefers every *i*-th machine
/// in the pool" — the mechanism the paper uses to keep scheduling integrity
/// when pools are replicated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaBias {
    /// This instance's number.
    pub instance: u32,
    /// Total number of replicas of the pool.
    pub replicas: u32,
}

impl ReplicaBias {
    /// Bias for an unreplicated pool.
    pub fn none() -> Self {
        ReplicaBias {
            instance: 0,
            replicas: 1,
        }
    }

    /// Whether the machine at cache position `index` is preferred by this
    /// instance.
    pub fn prefers(&self, index: usize) -> bool {
        self.replicas <= 1 || (index as u32) % self.replicas == self.instance % self.replicas
    }
}

/// The result of a selection: which machine, and how much work it took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleOutcome {
    /// The chosen machine.
    pub machine: MachineId,
    /// Position of the chosen machine in the pool cache.
    pub cache_index: usize,
    /// Number of cache entries examined during the scan.
    pub examined: usize,
}

/// Context needed to evaluate candidates.
pub struct ScheduleRequest<'a> {
    /// The basic query being served.
    pub query: &'a BasicQuery,
    /// Hour of virtual day, for time-of-day usage policies.
    pub hour_of_day: u8,
}

/// A scheduling process: selection state (round-robin cursor, RNG) plus the
/// configured objective.
#[derive(Debug)]
pub struct Scheduler {
    objective: SchedulingObjective,
    bias: ReplicaBias,
    round_robin_cursor: usize,
    rng: Rng,
}

impl Scheduler {
    /// Creates a scheduling process.
    pub fn new(objective: SchedulingObjective, bias: ReplicaBias, seed: u64) -> Self {
        Scheduler {
            objective,
            bias,
            round_robin_cursor: 0,
            rng: Rng::new(seed),
        }
    }

    /// The configured objective.
    pub fn objective(&self) -> SchedulingObjective {
        self.objective
    }

    /// The configured replica bias.
    pub fn bias(&self) -> ReplicaBias {
        self.bias
    }

    fn score(&self, m: &Machine) -> f64 {
        match self.objective {
            // Higher score is better, so negate load.
            SchedulingObjective::LeastLoaded => -m.dynamic.current_load,
            SchedulingObjective::MostFreeMemory => m.dynamic.available_memory_mb,
            SchedulingObjective::FastestCpu => m.effective_speed,
            // Objectives below never reach the scoring path.
            SchedulingObjective::RoundRobin
            | SchedulingObjective::Random
            | SchedulingObjective::FirstFit => 0.0,
        }
    }

    /// The record of `id` if it can take the request (and be scored).
    fn acceptable<'d>(
        db: &'d ResourceDatabase,
        id: MachineId,
        request: &ScheduleRequest<'_>,
    ) -> Option<&'d Machine> {
        db.get(id).filter(|m| {
            m.accepting_work()
                && matches_machine(request.query, m).is_match()
                && admits_user(request.query, m, request.hour_of_day)
        })
    }

    /// Selects a machine from `cache` for the request.  The scan is linear;
    /// `FirstFit` stops at the first acceptable candidate (honouring the
    /// replica bias), every other objective examines the whole cache.
    pub fn select(
        &mut self,
        cache: &[MachineId],
        db: &ResourceDatabase,
        request: &ScheduleRequest<'_>,
    ) -> Result<ScheduleOutcome, AllocationError> {
        if cache.is_empty() {
            return Err(AllocationError::NoneAvailable);
        }
        match self.objective {
            SchedulingObjective::FirstFit => self.select_first_fit(cache, db, request),
            SchedulingObjective::RoundRobin => self.select_round_robin(cache, db, request),
            SchedulingObjective::Random => self.select_random(cache, db, request),
            _ => self.select_by_score(cache, db, request),
        }
    }

    fn select_by_score(
        &mut self,
        cache: &[MachineId],
        db: &ResourceDatabase,
        request: &ScheduleRequest<'_>,
    ) -> Result<ScheduleOutcome, AllocationError> {
        let mut best: Option<(usize, MachineId, f64, bool)> = None;
        for (index, &id) in cache.iter().enumerate() {
            let Some(m) = Self::acceptable(db, id, request) else {
                continue;
            };
            let score = self.score(m);
            let preferred = self.bias.prefers(index);
            let better = match &best {
                None => true,
                // Preferred machines beat non-preferred ones; ties break on
                // score.
                Some((_, _, best_score, best_pref)) => {
                    (preferred && !best_pref) || (preferred == *best_pref && score > *best_score)
                }
            };
            if better {
                best = Some((index, id, score, preferred));
            }
        }
        match best {
            Some((cache_index, machine, _, _)) => Ok(ScheduleOutcome {
                machine,
                cache_index,
                examined: cache.len(),
            }),
            None => Err(AllocationError::NoneAvailable),
        }
    }

    fn select_first_fit(
        &mut self,
        cache: &[MachineId],
        db: &ResourceDatabase,
        request: &ScheduleRequest<'_>,
    ) -> Result<ScheduleOutcome, AllocationError> {
        // First pass over preferred slots, then a fallback pass over the
        // rest, counting every examined entry.
        let mut examined = 0;
        let mut fallback: Option<(usize, MachineId)> = None;
        for (index, &id) in cache.iter().enumerate() {
            examined += 1;
            if Self::acceptable(db, id, request).is_none() {
                continue;
            }
            if self.bias.prefers(index) {
                return Ok(ScheduleOutcome {
                    machine: id,
                    cache_index: index,
                    examined,
                });
            }
            if fallback.is_none() {
                fallback = Some((index, id));
            }
        }
        match fallback {
            Some((cache_index, machine)) => Ok(ScheduleOutcome {
                machine,
                cache_index,
                examined,
            }),
            None => Err(AllocationError::NoneAvailable),
        }
    }

    fn select_round_robin(
        &mut self,
        cache: &[MachineId],
        db: &ResourceDatabase,
        request: &ScheduleRequest<'_>,
    ) -> Result<ScheduleOutcome, AllocationError> {
        let n = cache.len();
        let start = self.round_robin_cursor % n;
        for offset in 0..n {
            let index = (start + offset) % n;
            if Self::acceptable(db, cache[index], request).is_some() {
                self.round_robin_cursor = index + 1;
                return Ok(ScheduleOutcome {
                    machine: cache[index],
                    cache_index: index,
                    examined: offset + 1,
                });
            }
        }
        Err(AllocationError::NoneAvailable)
    }

    fn select_random(
        &mut self,
        cache: &[MachineId],
        db: &ResourceDatabase,
        request: &ScheduleRequest<'_>,
    ) -> Result<ScheduleOutcome, AllocationError> {
        // Try a handful of random probes, then fall back to a full scan so
        // the selection is complete even under heavy contention.
        let n = cache.len();
        let mut examined = 0;
        for _ in 0..8.min(n) {
            let index = self.rng.index(n);
            examined += 1;
            if Self::acceptable(db, cache[index], request).is_some() {
                return Ok(ScheduleOutcome {
                    machine: cache[index],
                    cache_index: index,
                    examined,
                });
            }
        }
        for (index, &id) in cache.iter().enumerate() {
            examined += 1;
            if Self::acceptable(db, id, request).is_some() {
                return Ok(ScheduleOutcome {
                    machine: id,
                    cache_index: index,
                    examined,
                });
            }
        }
        Err(AllocationError::NoneAvailable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actyp_grid::{FleetSpec, Machine, MachineId, SyntheticFleet};
    use actyp_query::{Constraint, Query, QueryKey};

    fn db_and_cache(n: usize) -> (ResourceDatabase, Vec<MachineId>) {
        let mut fleet = SyntheticFleet::new(FleetSpec::homogeneous(n, "sun", 256), 42);
        let db = fleet.generate();
        let cache: Vec<MachineId> = db.iter().map(|m| m.id).collect();
        (db, cache)
    }

    fn sun_query() -> BasicQuery {
        Query::new()
            .with(QueryKey::rsrc("arch"), Constraint::eq("sun"))
            .decompose(1)
            .remove(0)
    }

    fn request(query: &BasicQuery) -> ScheduleRequest<'_> {
        ScheduleRequest {
            query,
            hour_of_day: 12,
        }
    }

    #[test]
    fn least_loaded_picks_the_idle_machine() {
        let (mut db, cache) = db_and_cache(10);
        for (i, &id) in cache.iter().enumerate() {
            db.update_dynamic(id, actyp_simnet::SimTime::ZERO, |m| {
                m.dynamic.current_load = 1.0 + i as f64 * 0.1;
            });
        }
        // Make one machine clearly idle.
        db.update_dynamic(cache[7], actyp_simnet::SimTime::ZERO, |m| {
            m.dynamic.current_load = 0.0;
        });
        let q = sun_query();
        let mut sched = Scheduler::new(SchedulingObjective::LeastLoaded, ReplicaBias::none(), 1);
        let outcome = sched.select(&cache, &db, &request(&q)).unwrap();
        assert_eq!(outcome.machine, cache[7]);
        assert_eq!(outcome.examined, 10, "full linear scan");
    }

    #[test]
    fn most_free_memory_objective() {
        let (mut db, cache) = db_and_cache(5);
        for (i, &id) in cache.iter().enumerate() {
            db.update_dynamic(id, actyp_simnet::SimTime::ZERO, |m| {
                m.dynamic.available_memory_mb = 10.0 * (i as f64 + 1.0);
            });
        }
        let q = sun_query();
        let mut sched = Scheduler::new(SchedulingObjective::MostFreeMemory, ReplicaBias::none(), 1);
        let outcome = sched.select(&cache, &db, &request(&q)).unwrap();
        assert_eq!(outcome.machine, cache[4]);
    }

    #[test]
    fn fastest_cpu_objective() {
        let (mut db, cache) = db_and_cache(5);
        let target = cache[2];
        db.get_mut(target).unwrap().effective_speed = 10_000.0;
        let q = sun_query();
        let mut sched = Scheduler::new(SchedulingObjective::FastestCpu, ReplicaBias::none(), 1);
        assert_eq!(
            sched.select(&cache, &db, &request(&q)).unwrap().machine,
            target
        );
    }

    #[test]
    fn first_fit_exits_early() {
        let (db, cache) = db_and_cache(100);
        let q = sun_query();
        let mut sched = Scheduler::new(SchedulingObjective::FirstFit, ReplicaBias::none(), 1);
        let outcome = sched.select(&cache, &db, &request(&q)).unwrap();
        assert_eq!(outcome.examined, 1);
        assert_eq!(outcome.cache_index, 0);
    }

    #[test]
    fn round_robin_rotates_through_candidates() {
        let (db, cache) = db_and_cache(4);
        let q = sun_query();
        let mut sched = Scheduler::new(SchedulingObjective::RoundRobin, ReplicaBias::none(), 1);
        let picks: Vec<usize> = (0..4)
            .map(|_| sched.select(&cache, &db, &request(&q)).unwrap().cache_index)
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn unacceptable_machines_are_skipped() {
        let (mut db, cache) = db_and_cache(6);
        // Mark the first three machines down.
        for &id in &cache[..3] {
            db.set_state(id, actyp_grid::MachineState::Down);
        }
        let q = sun_query();
        let mut sched = Scheduler::new(SchedulingObjective::FirstFit, ReplicaBias::none(), 1);
        let outcome = sched.select(&cache, &db, &request(&q)).unwrap();
        assert_eq!(outcome.cache_index, 3);
        assert_eq!(outcome.examined, 4);
    }

    #[test]
    fn query_constraints_filter_candidates() {
        let (mut db, mut cache) = db_and_cache(3);
        // Add one HP machine to the cache.
        let hp = db.register(Machine::new(MachineId(0), "hp-1").with_param("arch", "hp"));
        cache.push(hp);
        let q = Query::new()
            .with(QueryKey::rsrc("arch"), Constraint::eq("hp"))
            .decompose(1)
            .remove(0);
        let mut sched = Scheduler::new(SchedulingObjective::LeastLoaded, ReplicaBias::none(), 1);
        assert_eq!(sched.select(&cache, &db, &request(&q)).unwrap().machine, hp);
    }

    #[test]
    fn empty_or_exhausted_cache_is_an_error() {
        let (mut db, cache) = db_and_cache(3);
        let q = sun_query();
        let mut sched = Scheduler::new(SchedulingObjective::LeastLoaded, ReplicaBias::none(), 1);
        assert_eq!(
            sched.select(&[], &db, &request(&q)),
            Err(AllocationError::NoneAvailable)
        );
        for &id in &cache {
            db.set_state(id, actyp_grid::MachineState::Blocked);
        }
        assert_eq!(
            sched.select(&cache, &db, &request(&q)),
            Err(AllocationError::NoneAvailable)
        );
    }

    #[test]
    fn replica_bias_prefers_own_stripe() {
        let (db, cache) = db_and_cache(16);
        let q = sun_query();
        let bias = ReplicaBias {
            instance: 1,
            replicas: 4,
        };
        let mut sched = Scheduler::new(SchedulingObjective::LeastLoaded, bias, 1);
        let outcome = sched.select(&cache, &db, &request(&q)).unwrap();
        assert_eq!(outcome.cache_index % 4, 1);

        let mut ff = Scheduler::new(SchedulingObjective::FirstFit, bias, 1);
        let outcome = ff.select(&cache, &db, &request(&q)).unwrap();
        assert_eq!(outcome.cache_index, 1);
    }

    #[test]
    fn replica_bias_none_prefers_everything() {
        let bias = ReplicaBias::none();
        assert!(bias.prefers(0));
        assert!(bias.prefers(17));
        let striped = ReplicaBias {
            instance: 2,
            replicas: 3,
        };
        assert!(striped.prefers(2));
        assert!(striped.prefers(5));
        assert!(!striped.prefers(3));
    }

    #[test]
    fn random_selection_is_deterministic_per_seed_and_valid() {
        let (db, cache) = db_and_cache(50);
        let q = sun_query();
        let mut a = Scheduler::new(SchedulingObjective::Random, ReplicaBias::none(), 9);
        let mut b = Scheduler::new(SchedulingObjective::Random, ReplicaBias::none(), 9);
        for _ in 0..10 {
            let x = a.select(&cache, &db, &request(&q)).unwrap();
            let y = b.select(&cache, &db, &request(&q)).unwrap();
            assert_eq!(x.machine, y.machine);
            assert!(cache.contains(&x.machine));
        }
    }
}
