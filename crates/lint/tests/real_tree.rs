//! The `reactor-blocking` walk over the *real* session engine: splitting
//! the server into sibling files must not cut the call graph, because a
//! cut edge leaves the lint green only because it is blind.

use std::path::{Path, PathBuf};

use actyp_lint::rules::reactor_reachable;
use actyp_lint::{lint_workspace, LintConfig};

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

/// The hole that hid a parking I/O thread: a backend call made through
/// `dyn ResourceManager` has no body for the walk to follow.  At the shape
/// `dispatch_frame` had then (`fixtures/parent_dispatch`), the inline
/// `shared.manager.release(..)` is now reported — and nothing else there
/// is: not the lane closure, not `try_poll`, not `stats`.
#[test]
fn a_parking_backend_call_on_the_io_thread_is_seen_through_the_trait() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/parent_dispatch");
    let report = lint_workspace(&LintConfig {
        root,
        hierarchy: Vec::new(),
        reactor_entry_points: vec!["io_thread_main".to_string()],
        frames: None,
        stats: None,
        skip_dirs: Vec::new(),
    })
    .expect("fixture lints");
    assert_eq!(report.findings.len(), 1, "{:#?}", report.findings);
    let finding = &report.findings[0];
    assert_eq!(finding.rule, "reactor-blocking");
    assert_eq!(
        (finding.file.as_path(), finding.line),
        (Path::new("session.rs"), 28)
    );
    assert!(
        finding.message.contains("manager.release()")
            && finding.message.contains("io_thread_main -> dispatch_frame"),
        "{}",
        finding.message
    );
}

/// ... and today's tree is clean under the sharper rule without having
/// bought its way out: no finding, no stale annotation, and no more
/// `lint-allow`s in use than the one audited frame-write site
/// (`corr::Conn::request`; the reply queue encodes into memory with
/// `encode_frame` and needs none).
#[test]
fn the_workspace_is_clean_without_new_allows() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let config = LintConfig::for_workspace(&root).expect("docs/CONCURRENCY.md reads");
    let report = lint_workspace(&config).expect("workspace lints");
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
    assert!(
        report.unused_allows.is_empty(),
        "{:#?}",
        report.unused_allows
    );
    assert_eq!(report.suppressed, 1, "a new lint-allow needs a new reason");
}
