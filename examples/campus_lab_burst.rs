//! Campus lab burst: the hot-spot scenario the paper uses to motivate pool
//! replication — "a large class is working on a lab or homework assignment"
//! and every student requests resources with the same specification.
//!
//! The example drives the full PUNCH stack (network desktop → application
//! management → ActYP pipeline) with a burst of identical SPICE runs and
//! reports how the single dynamically created pool absorbs it.
//!
//! ```text
//! cargo run -p actyp-suite --example campus_lab_burst
//! ```

use actyp_grid::{FleetSpec, SyntheticFleet};
use actyp_punch::users::User;
use actyp_punch::{NetworkDesktop, UserRegistry};
use actyp_simnet::Rng;
use actyp_workload::{ClassAssignment, HotspotBurst};

fn main() {
    // A homogeneous teaching cluster: every machine is a sun box with 256 MB.
    let db = SyntheticFleet::new(FleetSpec::homogeneous(400, "sun", 256), 7)
        .generate()
        .into_shared();

    // A class of 60 students, all authorised for spice.
    let mut users = UserRegistry::demo();
    for i in 0..60 {
        users.register(
            User::new(
                &format!("student{i:03}"),
                "ece-students",
                "storage.purdue.edu",
            )
            .with_tools(["spice"]),
        );
    }
    let mut desktop = NetworkDesktop::with_users(db, users);

    // Generate the burst: identical invocations spread over a lab session.
    let assignment = ClassAssignment::spice_lab(60);
    let burst = HotspotBurst::generate(&assignment, &mut Rng::new(11));
    println!(
        "class assignment: {} students submitting `{}` over {} seconds",
        assignment.students,
        assignment.tool_command,
        assignment.window.as_secs_f64()
    );

    // Submit every student's run through the desktop.
    let mut handles = Vec::new();
    let mut failures = 0usize;
    for (when, login, _query) in &burst.submissions {
        match desktop.start_run(login, &assignment.tool_command) {
            Ok(handle) => handles.push((*when, handle)),
            Err(err) => {
                failures += 1;
                eprintln!("{login}: {err}");
            }
        }
    }
    println!(
        "{} runs started, {} rejected; active runs: {}",
        handles.len(),
        failures,
        desktop.active_runs()
    );
    println!(
        "pool instances created for the whole burst: {} (identical specs map to one pool name)",
        desktop.manager().pipeline().directory().instance_count()
    );
    println!(
        "distinct mounts active (application + data per run): {}",
        desktop.mounts().active()
    );

    // Finish the lab: every run completes with a short CPU time, as the
    // Figure 9 distribution predicts for interactive class work.
    let mut cpu_rng = Rng::new(13);
    for (_, handle) in handles {
        let cpu = actyp_workload::CpuTimeDistribution::punch()
            .sample(&mut cpu_rng)
            .cpu_seconds
            .min(120.0);
        desktop.complete_run(handle, cpu).expect("run completes");
    }
    println!(
        "all runs completed; outstanding allocations: {}, active mounts: {}",
        desktop.active_runs(),
        desktop.mounts().active()
    );
}
