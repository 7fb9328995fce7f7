//! # actyp-suite — repository-level examples and integration tests
//!
//! This crate exists to host the runnable examples in the repository-root
//! `examples/` directory and the cross-crate integration tests in `tests/`
//! (see the `[[example]]` and `[[test]]` sections of its `Cargo.toml`).  The
//! library itself only provides a couple of helpers shared by those targets.

use actyp_grid::{FleetSpec, SharedDatabase, SyntheticFleet};

/// Builds a shared resource database with the default heterogeneous fleet.
pub fn demo_fleet(machines: usize, seed: u64) -> SharedDatabase {
    SyntheticFleet::new(FleetSpec::with_machines(machines), seed)
        .generate()
        .into_shared()
}

/// Builds a shared resource database in which every machine matches a single
/// aggregation criterion (the hot-spot scenarios).
pub fn homogeneous_fleet(machines: usize, arch: &str, memory_mb: u64, seed: u64) -> SharedDatabase {
    SyntheticFleet::new(FleetSpec::homogeneous(machines, arch, memory_mb), seed)
        .generate()
        .into_shared()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The minimal end-to-end canary CI relies on: a fleet, one query, a
    /// non-empty allocation, and a clean release — through the unified
    /// `ResourceManager` surface.
    #[test]
    fn workspace_smoke_query_through_engine() {
        use actyp_pipeline::{BackendKind, PipelineBuilder};
        use actyp_query::Query;

        let db = demo_fleet(200, 42);
        let manager = PipelineBuilder::new()
            .database(db)
            .build(BackendKind::Live)
            .unwrap();
        let allocations = manager.submit_wait(&Query::paper_example()).unwrap();
        assert!(!allocations.is_empty(), "query must allocate a machine");
        assert!(allocations[0].machine_name.contains("sun"));
        for allocation in &allocations {
            manager.release(allocation).unwrap();
        }
        manager.shutdown().unwrap();
    }

    #[test]
    fn helpers_build_the_requested_fleets() {
        assert_eq!(demo_fleet(25, 1).read().len(), 25);
        let db = homogeneous_fleet(10, "sun", 128, 2);
        assert!(db.read().iter().all(|m| {
            m.attribute("arch").unwrap().contains("sun")
                && m.attribute("memory").unwrap().as_num() == Some(128.0)
        }));
    }
}
