//! The "white pages" resource database.
//!
//! The paper's directory-services subsystem is a database holding one record
//! per machine (Figure 3).  Resource pools *walk* this database at creation
//! time looking for machines that match the criteria encoded in their name,
//! cache the matches locally, and mark them as *taken* in the main database
//! so that other pools do not aggregate the same machines.  The database is
//! shared by every pool manager and pool object within an administrative
//! domain, so the shared handle type wraps it in a reader/writer lock.

use std::collections::BTreeMap;
use std::sync::Arc;

use actyp_simnet::SimTime;
use parking_lot::RwLock;

use crate::machine::{Machine, MachineId, MachineState};

/// Who has claimed a machine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TakenBy {
    /// Name of the resource pool that aggregated the machine, shared by
    /// every mark the pool makes.
    pub pool_name: Arc<str>,
    /// Instance number of that pool (pools can be replicated; replicas share
    /// the machine set, so the first instance records the claim).
    pub instance: u32,
}

/// The white-pages database: one record per machine plus the taken marks.
#[derive(Debug, Default)]
pub struct ResourceDatabase {
    machines: BTreeMap<MachineId, Machine>,
    /// The taken marks, indexed by the dense ids `register` hands out.
    taken: Vec<Option<TakenBy>>,
    /// Marks set in `taken`.
    taken_count: usize,
    next_id: u64,
}

/// Shared handle used by pool managers, pool objects and the monitor.
pub type SharedDatabase = Arc<RwLock<ResourceDatabase>>;

impl ResourceDatabase {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps a database in the shared handle used across pipeline stages.
    pub fn into_shared(self) -> SharedDatabase {
        Arc::new(RwLock::new(self))
    }

    /// Registers a machine, assigning it a fresh id.  Returns the id.
    pub fn register(&mut self, mut machine: Machine) -> MachineId {
        let id = MachineId(self.next_id);
        self.next_id += 1;
        machine.id = id;
        self.machines.insert(id, machine);
        self.taken.push(None);
        id
    }

    /// Number of machines in the database.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// Looks up a machine by id.
    pub fn get(&self, id: MachineId) -> Option<&Machine> {
        self.machines.get(&id)
    }

    /// Mutable access to a machine by id.
    pub fn get_mut(&mut self, id: MachineId) -> Option<&mut Machine> {
        self.machines.get_mut(&id)
    }

    /// Looks up a machine by host name.
    pub fn find_by_name(&self, name: &str) -> Option<&Machine> {
        self.machines.values().find(|m| m.name == name)
    }

    /// Iterates over all machines.
    pub fn iter(&self) -> impl Iterator<Item = &Machine> {
        self.machines.values()
    }

    /// Walks the database returning the ids of machines that satisfy the
    /// predicate and are not already taken by another pool.  This is the
    /// operation a pool object performs at initialisation time.
    pub fn walk_untaken<F>(&self, mut predicate: F) -> Vec<MachineId>
    where
        F: FnMut(&Machine) -> bool,
    {
        self.machines
            .values()
            .filter(|m| self.taken_by(m.id).is_none())
            .filter(|m| predicate(m))
            .map(|m| m.id)
            .collect()
    }

    /// Walks the database returning ids of all machines that satisfy the
    /// predicate, regardless of taken marks (used for reporting and by the
    /// centralized baselines, which have no notion of pools).
    pub fn walk<F>(&self, mut predicate: F) -> Vec<MachineId>
    where
        F: FnMut(&Machine) -> bool,
    {
        self.machines
            .values()
            .filter(|m| predicate(m))
            .map(|m| m.id)
            .collect()
    }

    /// Marks a machine as taken by a pool.  Fails (returning `false`) if the
    /// machine does not exist or is already taken by a *different* pool;
    /// re-claiming by the same pool name is idempotent.
    pub fn mark_taken(&mut self, id: MachineId, by: TakenBy) -> bool {
        let Some(mark) = self.taken.get_mut(id.0 as usize) else {
            return false;
        };
        match mark {
            Some(existing) if existing.pool_name != by.pool_name => false,
            _ => {
                self.taken_count += usize::from(mark.is_none());
                *mark = Some(by);
                true
            }
        }
    }

    /// Clears the taken mark on a machine (pool destroyed or split).
    pub fn release_taken(&mut self, id: MachineId) {
        if let Some(mark) = self.taken.get_mut(id.0 as usize) {
            self.taken_count -= usize::from(mark.take().is_some());
        }
    }

    /// Returns who has taken a machine, if anyone.
    pub fn taken_by(&self, id: MachineId) -> Option<&TakenBy> {
        self.taken.get(id.0 as usize)?.as_ref()
    }

    /// Number of machines currently claimed by pools.
    pub fn taken_count(&self) -> usize {
        self.taken_count
    }

    /// Updates the monitored fields of a machine.  Returns `false` if the
    /// machine is unknown.
    pub fn update_dynamic<F>(&mut self, id: MachineId, now: SimTime, update: F) -> bool
    where
        F: FnOnce(&mut Machine),
    {
        match self.machines.get_mut(&id) {
            Some(m) => {
                update(m);
                m.dynamic.last_update = now;
                true
            }
            None => false,
        }
    }

    /// Sets the availability state of a machine (field 1).
    pub fn set_state(&mut self, id: MachineId, state: MachineState) -> bool {
        match self.machines.get_mut(&id) {
            Some(m) => {
                m.state = state;
                true
            }
            None => false,
        }
    }

    /// Count of machines in each availability state: `(up, down, blocked)`.
    pub fn state_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for m in self.machines.values() {
            match m.state {
                MachineState::Up => counts.0 += 1,
                MachineState::Down => counts.1 += 1,
                MachineState::Blocked => counts.2 += 1,
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    fn sample_db() -> ResourceDatabase {
        let mut db = ResourceDatabase::new();
        for i in 0..10 {
            let arch = if i % 2 == 0 { "sun" } else { "hp" };
            db.register(
                Machine::new(MachineId(0), format!("host{i:02}"))
                    .with_param("arch", arch)
                    .with_param("memory", 128u64 * (1 + i)),
            );
        }
        db
    }

    fn taken(pool: &str) -> TakenBy {
        TakenBy {
            pool_name: pool.into(),
            instance: 0,
        }
    }

    #[test]
    fn register_assigns_unique_ids() {
        let db = sample_db();
        assert_eq!(db.len(), 10);
        let ids: std::collections::HashSet<_> = db.iter().map(|m| m.id).collect();
        assert_eq!(ids.len(), 10);
    }

    #[test]
    fn find_by_name_and_get() {
        let db = sample_db();
        let m = db.find_by_name("host03").unwrap();
        assert_eq!(db.get(m.id).unwrap().name, "host03");
        assert!(db.find_by_name("missing").is_none());
        assert!(db.get(MachineId(999)).is_none());
    }

    #[test]
    fn walk_filters_by_predicate() {
        let db = sample_db();
        let suns = db.walk(|m| {
            m.attribute("arch")
                .map(|a| a.contains("sun"))
                .unwrap_or(false)
        });
        assert_eq!(suns.len(), 5);
    }

    #[test]
    fn walk_untaken_excludes_taken_machines() {
        let mut db = sample_db();
        let all = db.walk_untaken(|_| true);
        assert_eq!(all.len(), 10);
        assert!(db.mark_taken(all[0], taken("pool-a")));
        assert!(db.mark_taken(all[1], taken("pool-a")));
        let rest = db.walk_untaken(|_| true);
        assert_eq!(rest.len(), 8);
        assert!(!rest.contains(&all[0]));
        assert_eq!(db.taken_count(), 2);
    }

    #[test]
    fn taken_marks_are_exclusive_between_pools_but_idempotent_within() {
        let mut db = sample_db();
        let id = db.iter().next().unwrap().id;
        assert!(db.mark_taken(id, taken("pool-a")));
        assert!(db.mark_taken(id, taken("pool-a"))); // idempotent
        assert!(!db.mark_taken(id, taken("pool-b"))); // exclusive
        assert_eq!(&*db.taken_by(id).unwrap().pool_name, "pool-a");
        db.release_taken(id);
        assert!(db.mark_taken(id, taken("pool-b")));
    }

    #[test]
    fn claiming_a_machine_twice_for_one_pool_counts_it_once() {
        let mut db = sample_db();
        let id = db.walk_untaken(|_| true)[0];
        assert!(db.mark_taken(id, taken("pool-a")));
        assert!(db.mark_taken(id, taken("pool-a")));
        assert_eq!(db.taken_count(), 1);
        db.release_taken(id);
        db.release_taken(id);
        assert_eq!(db.taken_count(), 0);
    }

    #[test]
    fn mark_taken_on_unknown_machine_fails() {
        let mut db = sample_db();
        assert!(!db.mark_taken(MachineId(4242), taken("pool-a")));
    }

    #[test]
    fn update_dynamic_touches_last_update() {
        let mut db = sample_db();
        let id = db.iter().next().unwrap().id;
        let now = SimTime::from_nanos(5_000);
        assert!(db.update_dynamic(id, now, |m| m.dynamic.current_load = 2.5));
        let m = db.get(id).unwrap();
        assert_eq!(m.dynamic.current_load, 2.5);
        assert_eq!(m.dynamic.last_update, now);
        assert!(!db.update_dynamic(MachineId(999), now, |_| {}));
    }

    #[test]
    fn state_changes_and_counts() {
        let mut db = sample_db();
        let ids: Vec<MachineId> = db.iter().map(|m| m.id).collect();
        db.set_state(ids[0], MachineState::Down);
        db.set_state(ids[1], MachineState::Blocked);
        assert_eq!(db.state_counts(), (8, 1, 1));
        assert!(!db.set_state(MachineId(777), MachineState::Down));
    }

    #[test]
    fn shared_handle_allows_concurrent_readers() {
        let db = sample_db().into_shared();
        let a = db.clone();
        let b = db.clone();
        let ra = a.read();
        let rb = b.read();
        assert_eq!(ra.len(), rb.len());
    }
}
