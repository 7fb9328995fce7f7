//! The chaos harness acceptance tests.
//!
//! The tentpole guarantees, pinned end to end:
//!
//! 1. A 100+-domain WAN scenario — partition + heal + hotspot stampede —
//!    runs on the simulator with every federation invariant held, and two
//!    same-seed runs produce byte-for-byte identical event logs.
//! 2. A scenario is *data*: the spec a run executes survives a
//!    render/parse round trip and still produces the identical run.
//! 3. The same spec drives both executors: `trio-flap` passes its
//!    invariants on the simulator *and* against a fleet of real daemons.
//! 4. Every catalog scenario's run is pinned by its digest ([`DIGESTS`]).

use actyp_chaos::{by_name, catalog, run_live, run_sim, LiveOptions, Scenario};

/// The digest of every catalog scenario's simulated run.  The simulator
/// runs the daemon's own routing rules, so a change to the simulator, to
/// the routing rules or to a scenario moves a digest here: update the
/// table, and record the old and new digests with the reason in
/// EXPERIMENTS.md.
const DIGESTS: &[(&str, u64)] = &[
    ("trio-flap", 0xd373_dce3_7406_eeb4),
    ("wan-partition-stampede", 0x8660_0bf4_ef89_8483),
    ("retire-rename-wave", 0x3821_0279_55d9_2e50),
    ("mass-vanish", 0x3679_b2b4_9730_7f37),
    ("deadline-burst", 0xb792_6028_b830_43c4),
];

/// The pinned digest of the named scenario.
fn pinned(name: &str) -> u64 {
    let pin = DIGESTS.iter().find(|(pinned, _)| *pinned == name);
    pin.unwrap_or_else(|| panic!("{name} has no pinned digest"))
        .1
}

#[test]
fn the_wan_partition_stampede_reproduces_byte_for_byte() {
    let scenario = by_name("wan-partition-stampede").expect("catalog scenario");
    assert!(
        scenario.domains >= 100,
        "the acceptance scenario is WAN-scale"
    );

    let first = run_sim(&scenario).expect("scenario runs");
    assert!(
        first.passed(),
        "invariant violations on the acceptance scenario: {:#?}",
        first.violations
    );
    // The scenario actually exercised the machinery it claims to.
    assert!(first.metrics.submitted >= 100, "{:?}", first.metrics);
    assert!(first.metrics.hops > 0, "delegation chains ran");
    assert!(
        first.metrics.gossip_exchanges > 1000,
        "anti-entropy ran continuously"
    );
    assert!(first.metrics.vanished_clients > 0, "the vanish fault fired");
    assert_eq!(
        first.metrics.leases_granted,
        first.metrics.leases_released + first.metrics.leases_reclaimed,
        "every lease ends released or reclaimed"
    );

    let second = run_sim(&scenario).expect("scenario runs again");
    assert_eq!(
        first.log.render(),
        second.log.render(),
        "same seed must produce the identical event log"
    );
    assert_eq!(first.digest(), second.digest());
    assert_eq!(first.violations, second.violations);
    assert_eq!(
        first.digest(),
        pinned(&scenario.name),
        "the pinned run moved: {:016x}",
        first.digest()
    );
}

#[test]
fn every_catalog_scenario_passes_its_invariants_in_simulation() {
    for scenario in catalog() {
        // The WAN giant has its own dedicated test above; keep this sweep
        // quick.
        if scenario.domains > 40 {
            continue;
        }
        let report = run_sim(&scenario).expect("scenario runs");
        assert!(
            report.passed(),
            "{}: invariant violations: {:#?}",
            scenario.name,
            report.violations
        );
        assert!(
            report.metrics.submitted > 0,
            "{} replayed no workload",
            scenario.name
        );
        assert_eq!(
            report.digest(),
            pinned(&scenario.name),
            "{}: the pinned run moved: {:016x}",
            scenario.name,
            report.digest()
        );
    }
}

#[test]
fn the_digest_table_pins_exactly_the_catalog() {
    let names: Vec<String> = catalog().into_iter().map(|s| s.name).collect();
    let pinned: Vec<String> = DIGESTS.iter().map(|(name, _)| name.to_string()).collect();
    assert_eq!(names, pinned);
}

#[test]
fn a_scenario_is_data_not_code() {
    // Render the acceptance spec to text, parse it back, and get the
    // byte-identical run out of the round-tripped spec.
    let scenario = by_name("wan-partition-stampede").expect("catalog scenario");
    let reparsed = Scenario::parse(&scenario.render()).expect("rendered spec parses");
    assert_eq!(scenario, reparsed);

    let small = by_name("trio-flap").expect("catalog scenario");
    let small_reparsed = Scenario::parse(&small.render()).expect("rendered spec parses");
    assert_eq!(
        run_sim(&small).expect("runs").digest(),
        run_sim(&small_reparsed).expect("runs").digest(),
        "the round-tripped spec is the same run"
    );
}

#[test]
fn seeds_select_distinct_deterministic_runs() {
    let mut scenario = by_name("trio-flap").expect("catalog scenario");
    let base = run_sim(&scenario).expect("runs");
    scenario.seed ^= 0x5eed;
    let other = run_sim(&scenario).expect("runs");
    assert_ne!(base.digest(), other.digest(), "the seed picks the run");
    let other_again = run_sim(&scenario).expect("runs");
    assert_eq!(other.digest(), other_again.digest());
}

#[test]
fn the_trio_flap_spec_drives_both_executors() {
    // The exact spec text the simulator ran...
    let scenario = by_name("trio-flap").expect("catalog scenario");
    let spec_text = scenario.render();
    let scenario = Scenario::parse(&spec_text).expect("spec parses");

    let sim = run_sim(&scenario).expect("simulated run");
    assert!(sim.passed(), "sim violations: {:#?}", sim.violations);
    assert!(sim.metrics.settled_ok > 0);

    // ...drives a fleet of real daemons, kill + heal included, under the
    // same invariant vocabulary.
    let live = run_live(&scenario, &LiveOptions::in_process(7721)).expect("live fleet runs");
    assert!(
        live.passed(),
        "live violations: {:#?}\nevents:\n{}",
        live.violations,
        live.events.join("\n")
    );
    assert_eq!(
        live.submitted, sim.metrics.submitted,
        "both executors replay the same plan"
    );
    assert!(live.succeeded > 0, "the live fleet granted allocations");
}
