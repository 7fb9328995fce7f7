//! The "white pages" resource database.
//!
//! The paper's directory-services subsystem is a database holding one record
//! per machine (Figure 3).  Resource pools *walk* this database at creation
//! time looking for machines that match the criteria encoded in their name,
//! cache the matches locally, and mark them as *taken* in the main database.
//! A mark records which pool aggregated a machine first; a walk does not
//! consult the marks, so a later pool whose criteria also match keeps the
//! machine in its cache even though its own mark is refused.  The database
//! is shared by every pool manager and pool object within an administrative
//! domain, so the shared handle type wraps it in a reader/writer lock.

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
    /// The records, indexed by the dense ids `register` hands out.
    machines: Vec<Machine>,
    /// The taken marks, indexed the same way.
    taken: Vec<Option<TakenBy>>,
    /// Marks set in `taken`.
    taken_count: usize,
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

    /// Registers a machine, assigning it the next dense id.  Returns the id.
    pub fn register(&mut self, mut machine: Machine) -> MachineId {
        let id = MachineId(self.machines.len() as u64);
        machine.id = id;
        self.machines.push(machine);
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
        self.machines.get(usize::try_from(id.0).ok()?)
    }

    /// Mutable access to a machine by id.  The record's `id` is the key of
    /// the table: callers change the other fields only.
    pub fn get_mut(&mut self, id: MachineId) -> Option<&mut Machine> {
        self.machines.get_mut(usize::try_from(id.0).ok()?)
    }

    /// Iterates over all machines in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Machine> {
        self.machines.iter()
    }

    /// Walks the database in id order, returning the ids of all machines
    /// that satisfy the predicate.  Taken marks are not consulted: pool
    /// creation walks this way and then claims what it found, and the
    /// centralized baselines, which have no notion of pools, walk the same
    /// table.
    pub fn walk<F>(&self, mut predicate: F) -> Vec<MachineId>
    where
        F: FnMut(&Machine) -> bool,
    {
        self.machines
            .iter()
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
        match self.get_mut(id) {
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
        self.get_mut(id).map(|m| m.state = state).is_some()
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
    fn get_reads_the_record_registered_under_an_id() {
        let mut db = sample_db();
        let id = db.register(Machine::new(MachineId(77), "late"));
        assert_eq!(id, MachineId(10));
        assert_eq!(db.get(id).unwrap().name, "late");
        assert_eq!(db.get(MachineId(3)).unwrap().name, "host03");
        db.get_mut(MachineId(3)).unwrap().num_cpus = 8;
        assert_eq!(db.get(MachineId(3)).unwrap().num_cpus, 8);
        assert!(db.get(MachineId(11)).is_none());
        assert!(db.get_mut(MachineId(u64::MAX)).is_none());
        let ids: Vec<u64> = db.iter().map(|m| m.id.0).collect();
        assert_eq!(ids, (0..11).collect::<Vec<_>>());
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
        let id = db.iter().next().unwrap().id;
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
        let count = |state| db.iter().filter(|m| m.state == state).count();
        assert_eq!(count(MachineState::Up), 8);
        assert_eq!(count(MachineState::Down), 1);
        assert_eq!(count(MachineState::Blocked), 1);
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
