//! The `reactor-blocking` walk over the *real* session engine: splitting
//! the server into sibling files must not cut the call graph, because a
//! cut edge leaves the lint green only because it is blind.

use std::path::{Path, PathBuf};

use actyp_lint::rules::reactor_reachable;

#[test]
fn the_reactor_walk_covers_the_session_engine() {
    let server = Path::new(env!("CARGO_MANIFEST_DIR")).join("../pipeline/src/server");
    let reachable =
        reactor_reachable(&server, &["io_thread_main".to_string()]).expect("server tree lexes");
    // A `.recv()` planted in any of these would be reported — including
    // `OutQueue::push`, which is only reached through method calls with
    // arguments (`state.send(..)` → `queue.push(..)`), and
    // `LaneBatch::flush`, which lives in the sibling `lanes.rs`.
    for (file, function) in [
        ("session.rs", "handle_readable"),
        ("session.rs", "dispatch_frame"),
        ("session.rs", "flush_session"),
        ("session.rs", "send"),
        ("session.rs", "push"),
        ("lanes.rs", "flush"),
    ] {
        assert!(
            reachable.contains(&(PathBuf::from(file), function.to_string())),
            "{file}::{function} fell out of the reactor-blocking call graph: {reachable:#?}"
        );
    }
}
