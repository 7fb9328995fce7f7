//! The `reactor-blocking` walk over the *real* session engine: splitting
//! the server into sibling files must not cut the call graph, because a
//! cut edge leaves the lint green only because it is blind.

use std::path::{Path, PathBuf};

use actyp_lint::rules::{reactor_entry_points, reactor_reachable};
use actyp_lint::{lint_workspace, LintConfig};

#[test]
fn the_reactor_walk_covers_the_session_engine() {
    let server = Path::new(env!("CARGO_MANIFEST_DIR")).join("../pipeline/src/server");
    let reachable =
        reactor_reachable(&server, &["io_thread_main".to_string()]).expect("server tree lexes");
    // A `.recv()` planted in any of these would be reported — including
    // `OutQueue::push`, which is only reached through method calls with
    // arguments (`state.send(..)` → `queue.push(..)`), and
    // `ServerShared::begin_drain`, which lives in the sibling `mod.rs`.
    for (file, function) in [
        ("session.rs", "handle_readable"),
        ("session.rs", "dispatch_frame"),
        ("session.rs", "flush_session"),
        ("session.rs", "send"),
        ("session.rs", "push"),
        ("mod.rs", "begin_drain"),
    ] {
        assert!(
            reachable.contains(&(PathBuf::from(file), function.to_string())),
            "{file}::{function} fell out of the reactor-blocking call graph: {reachable:#?}"
        );
    }
}

/// The federation's completion paths run on reactor I/O threads and on
/// whichever thread steps a stage, but are reached from the session only through the trait object or a
/// method call the walk cannot resolve — so they are entry points of their
/// own, and the walk from them must reach the chain's completion steps, the reply
/// folds, the relay's completion routing, and the peer session's read path.
#[test]
fn the_walk_covers_the_federations_completion_paths() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("../pipeline/src");
    let reachable = reactor_reachable(&src, &reactor_entry_points("")).expect("tree lexes");
    for (file, function) in [
        ("federation.rs", "allocate_with"),
        ("federation.rs", "allocate_while"),
        ("federation.rs", "release_with"),
        ("federation.rs", "delegate_with"),
        ("federation.rs", "federate"),
        ("federation.rs", "drive"),
        ("federation.rs", "fold_delegated"),
        ("federation.rs", "settle_release"),
        ("federation.rs", "hop"),
        ("federation.rs", "with_link"),
        ("federation.rs", "sync_pools"),
        ("federation.rs", "link_up"),
        ("federation.rs", "link_down"),
        ("corr.rs", "request_with"),
        ("corr.rs", "route"),
        ("server/session.rs", "route_replies"),
    ] {
        assert!(
            reachable.contains(&(PathBuf::from(file), function.to_string())),
            "{file}::{function} fell out of the reactor-blocking call graph: {reachable:#?}"
        );
    }
}

/// The peer links' own steps run on the first I/O thread: the gossip and
/// probe rounds its timer fires, and the dial — connect, `Hello` and
/// `HelloAck` as steps of the peer session.  The walk from `io_thread_main`
/// must reach each, so a parking call planted on one is reported (and the
/// workspace test below shows them clean).
#[test]
fn the_walk_covers_the_timer_rounds_and_the_dial() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("../pipeline/src");
    let reachable = reactor_reachable(&src, &["io_thread_main".to_string()]).expect("tree lexes");
    for (file, function) in [
        ("federation.rs", "gossip_tick"),
        ("federation.rs", "gossip_with"),
        ("federation.rs", "probe_peers"),
        ("federation.rs", "with_link"),
        ("server/session.rs", "connect_next"),
        ("server/session.rs", "connect_ended"),
        ("server/session.rs", "hello_acked"),
        ("reactor.rs", "connect_nonblocking"),
    ] {
        assert!(
            reachable.contains(&(PathBuf::from(file), function.to_string())),
            "{file}::{function} fell out of the reactor-blocking call graph: {reachable:#?}"
        );
    }
}

/// The live backend's admission window runs on whichever thread returns a
/// permit — a pool-manager stage handing a query's outcome to its
/// completion, or an I/O thread whose eager query resolved — and launches
/// queued admissions from there.  The walk from the backends' completion
/// entry points must reach the window's admit → launch and return →
/// hand-on → launch paths, so a parking call planted anywhere on them is
/// reported (and the workspace test below shows them clean today).
#[test]
fn the_walk_covers_the_admission_windows_launch_path() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("../pipeline/src");
    let reachable = reactor_reachable(&src, &reactor_entry_points("")).expect("tree lexes");
    for (file, function) in [
        ("api.rs", "allocate_with"),
        ("api.rs", "allocate"),
        ("api.rs", "free"),
        ("api.rs", "admit"),
        ("api.rs", "hand_on"),
        ("api.rs", "launch_granted"),
        ("api.rs", "launch"),
    ] {
        assert!(
            reachable.contains(&(PathBuf::from(file), function.to_string())),
            "{file}::{function} fell out of the reactor-blocking call graph: {reachable:#?}"
        );
    }
}

/// Every call a daemon makes on its hosted backend is a completion: the
/// baselines resolve a `Submit` on the spot (`BaselineBackend::execute` —
/// walked now that `execute` is not a dispatch call).  The walk from the
/// backends' entry points must reach each, so a parking call planted on one
/// is reported (and the workspace test below shows them clean).
#[test]
fn the_walk_covers_the_eager_submissions() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("../pipeline/src");
    let reachable = reactor_reachable(&src, &reactor_entry_points("")).expect("tree lexes");
    for (file, function) in [
        ("api.rs", "allocate_with"),
        ("api.rs", "execute"),
        ("api.rs", "release_outstanding"),
    ] {
        assert!(
            reachable.contains(&(PathBuf::from(file), function.to_string())),
            "{file}::{function} fell out of the reactor-blocking call graph: {reachable:#?}"
        );
    }
}

/// The live pipeline's query manager runs on the thread that launches the
/// query, and the pool-manager stage that answers a query's last fragment
/// finishes it — re-integration, the surplus hand-back and the query's
/// completion.  The walk from the window's launch (`Ledger::launch` calls
/// `self.launcher.launch(..)`, a method of the same name in `live.rs`)
/// must reach the launch, the join's deliver step, the promise that runs
/// the completion and the surplus-release chain, so a parking call planted
/// on any of them is reported (`fixtures/live_launch`).
#[test]
fn the_walk_covers_the_live_launch_and_the_joins_finish() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("../pipeline/src");
    let reachable = reactor_reachable(&src, &reactor_entry_points("")).expect("tree lexes");
    for (file, function) in [
        ("api.rs", "launch"),
        ("live.rs", "launch"),
        ("live.rs", "deliver"),
        ("live.rs", "finish"),
        ("live.rs", "fill"),
        ("live.rs", "release_surplus"),
        ("live.rs", "release_with"),
        ("live.rs", "try_release"),
    ] {
        assert!(
            reachable.contains(&(PathBuf::from(file), function.to_string())),
            "{file}::{function} fell out of the reactor-blocking call graph: {reachable:#?}"
        );
    }
}

/// A pipeline stage runs on the thread that finds it idle: a daemon's I/O
/// thread that launches a `Submit` runs the query manager, every
/// pool-manager step it gets the stage's lock for and the query's finish
/// itself.  The walk from the backends' `allocate_with` — the live one's
/// `Ledger` launches the query, at once when the backend was built without
/// a window (`build_embedded`) — must reach the launch, the post and the
/// drain that serve a stage here, the step, what follows it, and the
/// join's finish with its surplus releases — so a parking call planted in
/// the stage step is reported like one in the launch.
#[test]
fn the_walk_covers_the_inline_placement_from_the_embedded_resolve() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("../pipeline/src");
    let entries = ["api.rs::allocate_with".to_string()];
    let reachable = reactor_reachable(&src, &entries).expect("tree lexes");
    for (file, function) in [
        ("live.rs", "launch"),
        ("live.rs", "post"),
        ("live.rs", "serve"),
        ("live.rs", "turn"),
        ("live.rs", "step"),
        ("live.rs", "follow"),
        ("live.rs", "deliver"),
        ("live.rs", "finish"),
        ("live.rs", "release_surplus"),
        ("live.rs", "try_release"),
    ] {
        assert!(
            reachable.contains(&(PathBuf::from(file), function.to_string())),
            "{file}::{function} fell out of the reactor-blocking call graph: {reachable:#?}"
        );
    }
}

/// ... and a `.recv()` planted on that path is reported, through the
/// same-named delegation from the window's launch into the live launcher.
/// The walk starts at the fixture's window launch, which the real tree
/// reaches from `allocate_with` (pinned above).
#[test]
fn a_parking_call_on_the_live_launch_path_is_reported() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/live_launch");
    let report = lint_workspace(&LintConfig {
        root,
        hierarchy: Vec::new(),
        reactor_entry_points: vec!["api.rs::launch".to_string()],
        sleep_poll_roots: Vec::new(),
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
        (Path::new("live.rs"), 25)
    );
    assert!(
        finding.message.contains(".recv()")
            && finding
                .message
                .contains("launch -> launch -> deliver -> finish -> release_surplus"),
        "{}",
        finding.message
    );
}

/// ... and a completion path that parked on a peer would be reported: a
/// blocking dial planted in the dial step (`Conn::dial`), a name lookup
/// (`to_socket_addrs`) and an inbound delegation served by blocking
/// (`handle_delegate`), each reached from a different entry point — but
/// not the same dial spawned on a thread of its own.  The fixture's dial
/// step is an entry of its own here: the real tree reaches it from
/// `allocate_with` (pinned above).
#[test]
fn a_parking_peer_call_on_a_completion_path_is_reported() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/peer_completion");
    let mut entries = reactor_entry_points("");
    entries.push("federation.rs::with_link".to_string());
    let report = lint_workspace(&LintConfig {
        root,
        hierarchy: Vec::new(),
        reactor_entry_points: entries,
        sleep_poll_roots: Vec::new(),
        frames: None,
        stats: None,
        skip_dirs: Vec::new(),
    })
    .expect("fixture lints");
    let found: Vec<(usize, &str)> = report
        .findings
        .iter()
        .map(|finding| (finding.line, finding.message.as_str()))
        .collect();
    assert_eq!(found.len(), 3, "{found:#?}");
    for (line, call, via) in [
        (13, "Conn::dial()", "with_link"),
        (17, "to_socket_addrs()", "release_with"),
        (24, "self.handle_delegate()", "delegate_with"),
    ] {
        assert!(
            found.iter().any(|(at, message)| *at == line
                && message.contains(call)
                && message.contains(via)),
            "no finding for {call} on line {line}: {found:#?}"
        );
    }
}

/// The hole that hid a parking I/O thread: a backend call made through
/// `dyn ResourceManager` has no body for the walk to follow.  At the shape
/// `dispatch_frame` had then (`fixtures/parent_dispatch`), the inline
/// `shared.manager.release(..)` is now reported, and so is the inline
/// `shared.manager.try_poll(..)` — a federated `try_poll` waits for the
/// chain its poll started — and nothing else there is: not the spawned
/// closure, not `stats`.
#[test]
fn a_parking_backend_call_on_the_io_thread_is_seen_through_the_trait() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/parent_dispatch");
    let report = lint_workspace(&LintConfig {
        root,
        hierarchy: Vec::new(),
        reactor_entry_points: vec!["io_thread_main".to_string()],
        sleep_poll_roots: Vec::new(),
        frames: None,
        stats: None,
        skip_dirs: Vec::new(),
    })
    .expect("fixture lints");
    assert_eq!(report.findings.len(), 2, "{:#?}", report.findings);
    for (line, call) in [(21, "manager.try_poll()"), (29, "manager.release()")] {
        assert!(
            report
                .findings
                .iter()
                .any(|finding| finding.rule == "reactor-blocking"
                    && (finding.file.as_path(), finding.line) == (Path::new("session.rs"), line)
                    && finding.message.contains(call)
                    && finding.message.contains("io_thread_main -> dispatch_frame")),
            "no finding for {call} on line {line}: {:#?}",
            report.findings
        );
    }
}

/// ... and today's tree is clean under the sharper rules without having
/// bought its way out: no finding, no stale annotation, and no more
/// `lint-allow`s in use than the two audited sites — the frame write in
/// `corr::Conn::request` (the reply queue encodes into memory with
/// `encode_frame` and needs none), and the I/O loop's back-off after its
/// poller fails, which has no readiness to wait on (`sleep-poll`).
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
    assert_eq!(report.suppressed, 2, "a new lint-allow needs a new reason");
}
