//! Quickstart: stand up an active yellow pages pipeline over a synthetic
//! fleet through the unified `ResourceManager` API, submit the paper's
//! example query, and release the allocation.
//!
//! ```text
//! cargo run -p actyp-suite --example quickstart
//! ```

use actyp_grid::{FleetSpec, SyntheticFleet};
use actyp_pipeline::{BackendKind, PipelineBuilder};

fn main() {
    // 1. A resource database of 500 machines (the "white pages").
    let db = SyntheticFleet::new(FleetSpec::with_machines(500), 42)
        .generate()
        .into_shared();
    println!("white pages: {} machines registered", db.read().len());

    // 2. The resource-management pipeline behind the one client surface.
    //    Swap `Live` for `CentralQueue` or `Matchmaker` to run
    //    the same client code against a different architecture.
    let manager = PipelineBuilder::new()
        .database(db)
        .build(BackendKind::Live)
        .expect("a database was configured");

    // 3. The paper's example query, in the native key/value language.
    let query = "\
punch.rsrc.arch = sun
punch.rsrc.memory = >=10
punch.rsrc.domain = purdue
punch.appl.expectedcpuuse = 1000
punch.user.login = kapadia
punch.user.accessgroup = ece
";
    println!("submitting query:\n{query}");

    let ticket = manager.submit_text(query).expect("query parses");
    let allocations = manager.wait(ticket).expect("allocation succeeds");
    let allocation = &allocations[0];
    println!(
        "allocated {} (execution unit port {}, mount manager port {})",
        allocation.machine_name, allocation.execution_port, allocation.mount_port
    );
    println!(
        "session key {}; served by pool `{}` after examining {} machines",
        allocation.access_key, allocation.pool, allocation.examined
    );

    // 4. Submitting the same kind of query again reuses the dynamically
    //    created pool — the "active yellow pages" effect.
    let again = manager
        .submit_text_wait(query)
        .expect("second allocation succeeds");
    println!(
        "second query served by the same pool: {}",
        again[0].pool == allocation.pool
    );

    // 5. Release everything (event 6 of Figure 1: the desktop relinquishes
    //    the shadow account and resources).
    for a in again.iter().chain(allocations.iter()) {
        manager.release(a).expect("release succeeds");
    }
    println!("released; stats: {:?}", manager.stats());
    manager.shutdown().expect("clean teardown");
}
