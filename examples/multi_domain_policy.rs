//! Decentralised access control: machine user-group lists and usage
//! policies are enforced inside the pipeline, so different administrative
//! domains keep control over their own resources even when they are part of
//! one grid (the paper's first design requirement).
//!
//! ```text
//! cargo run -p actyp-suite --example multi_domain_policy
//! ```

use actyp_grid::{FleetSpec, SyntheticFleet, UsagePolicy};
use actyp_pipeline::{AllocationError, BackendKind, PipelineBuilder};

fn main() {
    // One domain whose machines are open to the `ece` group only, and whose
    // administrators additionally impose the paper's example policy: public
    // users may only use a machine while its load is below a threshold.
    let db = SyntheticFleet::new(FleetSpec::homogeneous(200, "sun", 512), 3)
        .generate()
        .into_shared();
    {
        let mut guard = db.write();
        let ids: Vec<_> = guard.iter().map(|m| m.id).collect();
        for (i, id) in ids.into_iter().enumerate() {
            let machine = guard.get_mut(id).unwrap();
            machine.user_groups = vec!["ece".to_string(), "public".to_string()];
            machine.usage_policy = UsagePolicy::public_only_when_idle(0.5);
            // Half of the machines are already busy with local work.
            if i % 2 == 0 {
                machine.dynamic.current_load = 1.5;
            }
        }
    }

    let manager = PipelineBuilder::new()
        .database(db)
        .build(BackendKind::Live)
        .expect("a database was configured");

    // An ece user is admitted everywhere.
    let ece = manager
        .submit_text_wait(
            "punch.rsrc.arch = sun\npunch.user.login = kapadia\npunch.user.accessgroup = ece\n",
        )
        .expect("ece user is admitted");
    println!(
        "ece user scheduled on {} (load-based policy does not apply to ece)",
        ece[0].machine_name
    );
    manager.release(&ece[0]).unwrap();

    // A public user is only admitted to idle machines.
    let public = manager
        .submit_text_wait(
            "punch.rsrc.arch = sun\npunch.user.login = guest\npunch.user.accessgroup = public\n",
        )
        .expect("an idle machine exists for the public user");
    println!(
        "public user scheduled on {} (an idle machine)",
        public[0].machine_name
    );
    manager.release(&public[0]).unwrap();

    // A user from a group the domain does not admit is rejected by every
    // machine, so the allocation fails even though machines are free.
    let outsider = manager.submit_text_wait(
        "punch.rsrc.arch = sun\npunch.user.login = mallory\npunch.user.accessgroup = physics\n",
    );
    match outsider {
        Err(AllocationError::NoneAvailable) | Err(AllocationError::PolicyDenied) => {
            println!("outsider group correctly rejected by the domain's access control");
        }
        other => println!("unexpected outcome for the outsider: {other:?}"),
    }

    println!("stats: {:?}", manager.stats());
}
