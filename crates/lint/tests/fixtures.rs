//! Every rule proven live against a seeded fixture tree: one violation
//! per rule at a known file:line, one allowlisted site that must be
//! suppressed, one stale allow that must be reported; `reach`, which
//! needs a crate layout, has a tree of its own (`fixtures/reach`).  A rule
//! that silently stops firing fails here, not in production review.

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

/// The `reach` fixture: a library crate under `crates/`, its bin, an
/// example and an integration test, with no other rule configured.
fn reach_report() -> LintReport {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/reach");
    lint_workspace(&LintConfig {
        root,
        hierarchy: Vec::new(),
        reactor_entry_points: Vec::new(),
        sleep_poll_roots: Vec::new(),
        frames: None,
        stats: None,
        skip_dirs: Vec::new(),
    })
    .expect("reach fixture lints")
}

fn reach_names(report: &LintReport) -> Vec<(usize, String)> {
    let lib = PathBuf::from("crates/demo/src/lib.rs");
    find(report, "reach")
        .iter()
        .map(|f| {
            assert_eq!(f.file, lib, "{f}");
            (f.line, f.message.clone())
        })
        .collect()
}

#[test]
fn reach_fires_on_a_pub_fn_only_tests_call() {
    let report = reach_report();
    let hits = reach_names(&report);
    assert!(
        hits.iter()
            .any(|(line, message)| *line == 4 && message.contains("pub fn `orphan`")),
        "{hits:#?}"
    );
}

#[test]
fn reach_is_silent_on_what_a_bin_or_an_example_calls() {
    let report = reach_report();
    let hits = reach_names(&report);
    for name in ["used_by_bin", "used_by_example", "Thing"] {
        assert!(
            !hits
                .iter()
                .any(|(_, message)| message.contains(&format!("`{name}`"))),
            "{name}: {hits:#?}"
        );
    }
}

#[test]
fn reach_is_silent_on_a_trait_brought_in_by_use() {
    let report = reach_report();
    let hits = reach_names(&report);
    assert!(
        !hits.iter().any(|(_, message)| message.contains("`Greet`")),
        "{hits:#?}"
    );
}

#[test]
fn reach_fires_on_an_item_only_an_unreached_item_names() {
    let report = reach_report();
    let hits = reach_names(&report);
    assert!(
        hits.iter()
            .any(|(line, message)| *line == 9 && message.contains("pub struct `Detail`")),
        "{hits:#?}"
    );
}

#[test]
fn a_reach_allow_keeps_its_item_what_it_encloses_and_what_they_name() {
    let report = reach_report();
    assert_eq!(report.suppressed, 1, "the allow on `Kept`");
    assert!(
        report.unused_allows.is_empty(),
        "{:?}",
        report.unused_allows
    );
    assert_eq!(
        reach_names(&report).len(),
        2,
        "`orphan` and `Detail`, nothing else: {:#?}",
        report.findings
    );
}
