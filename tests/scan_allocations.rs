//! The white-pages walk and the scheduling process's scan make no heap
//! allocation per machine.
//!
//! A counting global allocator (a per-thread counter, so tests running in
//! parallel do not disturb each other) compares the same operation over a
//! 4,096-machine pool and a 64-machine one.  A per-machine allocation — an
//! owned attribute, a lowercased string, a cloned key — shows as thousands
//! more allocations on the large pool.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use actyp_grid::{FleetSpec, SharedDatabase, SyntheticFleet};
use actyp_pipeline::scheduler::ScheduleRequest;
use actyp_pipeline::{ReplicaBias, ResourcePool, Scheduler, SchedulingObjective};
use actyp_query::{BasicQuery, Constraint, PoolName, Query, QueryKey};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every allocation and reallocation made on the calling thread.
struct Counting;

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees for `GlobalAlloc` are the ones `System` needs;
// the counter is a `const`-initialised thread-local `Cell`, which neither
// allocates nor registers a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded as received (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded as received (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded as received (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations the calling thread makes while `f` runs, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const SMALL: usize = 64;
const LARGE: usize = 4_096;

fn fleet(machines: usize) -> SharedDatabase {
    SyntheticFleet::new(FleetSpec::homogeneous(machines, "sun", 256), 7)
        .generate()
        .into_shared()
}

/// A string clause and a numeric one, as the gated workloads ask.
fn query() -> BasicQuery {
    Query::new()
        .with(QueryKey::rsrc("arch"), Constraint::eq("SUN"))
        .with(QueryKey::rsrc("memory"), Constraint::ge(128u64))
        .with(QueryKey::user("login"), Constraint::eq("kapadia"))
        .with(QueryKey::user("accessgroup"), Constraint::eq("ece"))
        .decompose(1)
        .remove(0)
}

fn create(db: &SharedDatabase) -> ResourcePool {
    let name = PoolName::from_query(&query());
    ResourcePool::create(
        name,
        0,
        ReplicaBias::none(),
        db.clone(),
        SchedulingObjective::LeastLoaded,
        3,
    )
    .unwrap()
}

#[test]
fn pool_creation_walks_without_allocating_per_machine() {
    // Warm up whatever the first walk on this thread initialises.
    create(&fleet(SMALL));
    let (small_db, large_db) = (fleet(SMALL), fleet(LARGE));
    let (small, pool) = allocations(|| create(&small_db));
    assert_eq!(pool.size(), SMALL);
    let (large, pool) = allocations(|| create(&large_db));
    assert_eq!(pool.size(), LARGE);
    // The cache `Vec` the walk returns doubles log2(LARGE / SMALL) more
    // times on the large pool; nothing else may grow with the pool.
    let growth = (LARGE / SMALL).ilog2() as u64;
    assert!(
        large <= small + growth,
        "creating a {LARGE}-machine pool made {large} allocations, \
         a {SMALL}-machine pool {small} (allowed: {growth} more for the cache)"
    );
}

#[test]
fn the_scheduling_scan_does_not_allocate_per_machine() {
    let query = query();
    let request = ScheduleRequest {
        query: &query,
        hour_of_day: 12,
    };
    let select = |db: &SharedDatabase| {
        let pool = create(db);
        let guard = db.read();
        let mut scheduler =
            Scheduler::new(SchedulingObjective::LeastLoaded, ReplicaBias::none(), 5);
        scheduler
            .select(pool.cached_machines(), &guard, &request)
            .unwrap();
        allocations(|| {
            scheduler
                .select(pool.cached_machines(), &guard, &request)
                .unwrap()
        })
    };
    let (small, outcome) = select(&fleet(SMALL));
    assert_eq!(outcome.examined, SMALL);
    let (large, outcome) = select(&fleet(LARGE));
    assert_eq!(outcome.examined, LARGE);
    assert!(
        large <= small,
        "a scan of {LARGE} machines made {large} allocations, of {SMALL} machines {small}"
    );
}
