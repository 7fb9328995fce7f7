//! Every rule proven live against a seeded fixture tree: one violation
//! per rule at a known file:line, one allowlisted site that must be
//! suppressed, one stale allow that must be reported.  A rule that
//! silently stops firing fails here, not in production review.

use std::path::{Path, PathBuf};

use actyp_lint::rules::{parse_hierarchy, FramesSpec, SiteKind, SiteSpec, StatsSpec};
use actyp_lint::{lint_workspace, Finding, LintConfig, LintReport};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/tree")
}

fn fixture_config() -> LintConfig {
    let root = fixture_root();
    let doc = std::fs::read_to_string(root.join("docs/CONCURRENCY.md"))
        .expect("fixture hierarchy doc exists");
    LintConfig {
        hierarchy: parse_hierarchy(&doc),
        reactor_entry_points: vec!["io_thread_main".to_string()],
        sleep_poll_roots: vec![PathBuf::from("src")],
        frames: Some(FramesSpec {
            file: PathBuf::from("src/frames.rs"),
            enums: vec!["ClientFrame".to_string()],
            protocol_doc: PathBuf::from("docs/PROTOCOL.md"),
        }),
        stats: Some(StatsSpec {
            struct_file: PathBuf::from("src/stats.rs"),
            struct_name: "StatsSnapshot".to_string(),
            sites: vec![
                SiteSpec {
                    file: PathBuf::from("src/stats.rs"),
                    kind: SiteKind::ImplFor("WireEncode".to_string()),
                    label: "wire encode".to_string(),
                },
                SiteSpec {
                    file: PathBuf::from("src/stats.rs"),
                    kind: SiteKind::FnBody("merge_snapshot".to_string()),
                    label: "merge".to_string(),
                },
            ],
        }),
        skip_dirs: Vec::new(),
        root,
    }
}

fn run() -> LintReport {
    lint_workspace(&fixture_config()).expect("fixture tree lints")
}

fn find<'r>(report: &'r LintReport, rule: &str) -> Vec<&'r Finding> {
    report.findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn fixture_hierarchy_parses() {
    let config = fixture_config();
    assert_eq!(
        config.hierarchy,
        vec!["alpha".to_string(), "beta".to_string()]
    );
}

#[test]
fn lock_order_fires_once_at_the_seeded_span() {
    let report = run();
    let hits = find(&report, "lock-order");
    assert_eq!(hits.len(), 1, "exactly the seeded violation: {hits:?}");
    assert_eq!(hits[0].file, PathBuf::from("src/locks.rs"));
    assert_eq!(hits[0].line, 13);
    assert!(hits[0].message.contains("alpha"), "{}", hits[0].message);
    assert!(hits[0].message.contains("beta"), "{}", hits[0].message);
}

#[test]
fn lock_across_blocking_fires_once_at_the_seeded_span() {
    let report = run();
    let hits = find(&report, "lock-across-blocking");
    assert_eq!(hits.len(), 1, "exactly the seeded violation: {hits:?}");
    assert_eq!(hits[0].file, PathBuf::from("src/locks.rs"));
    assert_eq!(hits[0].line, 20);
}

#[test]
fn reactor_blocking_fires_once_through_the_call_graph() {
    let report = run();
    let hits = find(&report, "reactor-blocking");
    assert_eq!(hits.len(), 1, "exactly the seeded violation: {hits:?}");
    assert_eq!(hits[0].file, PathBuf::from("src/reactor.rs"));
    assert_eq!(hits[0].line, 14);
    assert!(
        hits[0].message.contains("io_thread_main -> drain_lane"),
        "the path must name the chain: {}",
        hits[0].message
    );
}

#[test]
fn frame_tags_fires_once_on_the_mismatched_decode_arm() {
    let report = run();
    let hits = find(&report, "frame-tags");
    assert_eq!(hits.len(), 1, "exactly the seeded violation: {hits:?}");
    assert_eq!(hits[0].file, PathBuf::from("src/frames.rs"));
    assert_eq!(hits[0].line, 22);
    assert!(
        hits[0].message.contains("encodes tag 1 but decodes tag 2"),
        "{}",
        hits[0].message
    );
}

#[test]
fn stats_fields_fires_once_on_the_missing_field() {
    let report = run();
    let hits = find(&report, "stats-fields");
    assert_eq!(hits.len(), 1, "exactly the seeded violation: {hits:?}");
    assert_eq!(hits[0].file, PathBuf::from("src/stats.rs"));
    assert_eq!(hits[0].line, 6);
    assert!(hits[0].message.contains("completed"), "{}", hits[0].message);
}

#[test]
fn sleep_poll_fires_once_outside_tests_and_impl_headers() {
    let report = run();
    let hits = find(&report, "sleep-poll");
    assert_eq!(hits.len(), 1, "exactly the seeded violation: {hits:?}");
    assert_eq!(hits[0].file, PathBuf::from("src/poll.rs"));
    assert_eq!(hits[0].line, 9);
}

#[test]
fn allowlist_suppresses_exactly_one_finding_and_stale_allows_surface() {
    let report = run();
    assert_eq!(report.suppressed, 1, "the annotated send and nothing else");
    assert_eq!(
        report.unused_allows,
        vec![(PathBuf::from("src/locks.rs"), 32, "lock-order".to_string())],
        "the stale allow must be reported for cleanup"
    );
}

#[test]
fn the_fixture_tree_has_no_extra_findings() {
    let report = run();
    assert_eq!(
        report.findings.len(),
        6,
        "one finding per rule, nothing else: {:#?}",
        report.findings
    );
}
