//! The benchmark-artifact layer end to end: a quick-scale figure harness
//! run emits a well-formed `BENCH_*.json`, the JSON survives the full
//! write→parse round trip, and the tolerance-band comparison that gates CI
//! passes on a faithful rerun and fails on an injected regression.

use actyp_bench::harness::{
    artifact_from_runs, compare, load_artifact, run_topic, unreproducible, write_artifact,
    ArtifactKind, BenchArtifact, DEFAULT_TOLERANCE, TOPICS,
};
use actyp_bench::{json, Scale};

fn tiny() -> Scale {
    Scale {
        machines: 200,
        requests_per_client: 3,
        client_counts: vec![2, 8],
        pool_counts: vec![2, 8],
        figure9_runs: 5_000,
        seed: 7,
    }
}

#[test]
fn fig4_harness_emits_a_well_formed_artifact() {
    let artifact = run_topic("fig4_pools_lan", &tiny()).expect("fig4 runs");
    assert_eq!(artifact.topic, "fig4_pools_lan");
    assert_eq!(artifact.kind, ArtifactKind::Simulated);
    assert_eq!(artifact.scale, "quick");
    assert_eq!(artifact.x_name, "pools");
    assert_eq!(artifact.file_name(), "BENCH_fig4_pools_lan.json");
    // 2 pool counts × 2 client columns.
    assert_eq!(artifact.points.len(), 4);
    for point in &artifact.points {
        assert!(point.throughput > 0.0, "{point:?}");
        assert!(point.mean > 0.0, "{point:?}");
        assert!(
            point.p50 <= point.p95 && point.p95 <= point.p99,
            "{point:?}"
        );
    }

    // The emitted text is valid JSON with the documented schema fields.
    let text = artifact.to_pretty();
    let value = json::parse(&text).expect("emitted artifact parses as JSON");
    assert_eq!(
        value.get("schema_version").and_then(json::Json::as_f64),
        Some(1.0)
    );
    assert_eq!(
        value.get("topic").and_then(json::Json::as_str),
        Some("fig4_pools_lan")
    );
    assert!(value.get("git_rev").and_then(json::Json::as_str).is_some());
    assert_eq!(
        value
            .get("points")
            .and_then(json::Json::as_arr)
            .map(<[json::Json]>::len),
        Some(4)
    );
}

#[test]
fn artifacts_round_trip_through_disk() {
    let artifact = run_topic("fig9_cputime_dist", &tiny()).expect("fig9 runs");
    let dir = std::env::temp_dir().join(format!("actyp_bench_rt_{}", std::process::id()));
    let path = write_artifact(&dir, &artifact).expect("writes");
    assert!(path.ends_with("BENCH_fig9_cputime_dist.json"));
    let loaded = load_artifact(&dir, "fig9_cputime_dist").expect("loads");
    assert_eq!(loaded, artifact);
    std::fs::remove_dir_all(&dir).ok();

    // A missing topic is a loud error, not an empty artifact.
    let missing = load_artifact(std::path::Path::new("benchmarks"), "fig42");
    assert!(missing.is_err());
}

#[test]
fn rerunning_the_same_simulated_topic_passes_the_gate() {
    let scale = tiny();
    let committed = run_topic("fig7_splitting", &scale).expect("first run");
    let fresh = run_topic("fig7_splitting", &scale).expect("second run");
    let verdict = compare(&committed, &fresh, DEFAULT_TOLERANCE);
    assert!(verdict.passed(), "{:?}", verdict.failures);
    assert_eq!(verdict.compared_points, committed.points.len());

    // The deterministic simulation reproduces the numbers exactly, so even
    // a zero-width band passes.
    let exact = compare(&committed, &fresh, 0.0);
    assert!(exact.passed(), "{:?}", exact.failures);
}

/// An artifact emitted from a tree with uncommitted changes is stamped
/// `+dirty`: no commit reproduces its numbers, so the gate refuses it.
#[test]
fn an_artifact_stamped_dirty_is_unreproducible() {
    let mut artifact = run_topic("fig7_splitting", &tiny()).expect("runs");
    artifact.git_rev = "ef30f30".to_string();
    assert_eq!(unreproducible(&artifact), None);
    artifact.git_rev = "ef30f30+dirty".to_string();
    let refused = unreproducible(&artifact).expect("refused");
    assert!(refused.contains("fig7_splitting") && refused.contains("ef30f30+dirty"));
}

#[test]
fn an_injected_regression_fails_the_gate() {
    let committed = run_topic("fig6_pool_size", &tiny()).expect("runs");
    let mut regressed = committed.clone();
    regressed.points[0].p99 *= 2.0;
    regressed.points[1].throughput *= 0.1;
    let verdict = compare(&committed, &regressed, DEFAULT_TOLERANCE);
    assert_eq!(verdict.failures.len(), 2, "{:?}", verdict.failures);
    assert!(verdict.failures.iter().any(|f| f.contains("p99")));
    assert!(verdict.failures.iter().any(|f| f.contains("throughput")));
}

#[test]
fn figure_runs_and_artifacts_agree_on_the_means() {
    // The CSV series the paper's figures plot and the JSON artifact must
    // come from the same measurements: compare cell by cell.
    let scale = tiny();
    let runs = actyp_bench::fig8_runs(&scale);
    let series = runs.series();
    let artifact = artifact_from_runs("fig8_replication", &scale, actyp_bench::fig8_runs(&scale));
    for point in &artifact.points {
        let from_series = series
            .value(point.x, &point.series)
            .expect("series has the cell");
        assert!(
            (from_series - point.mean).abs() < 1e-12,
            "series {} vs artifact {} at {}={}",
            from_series,
            point.mean,
            series.x_name,
            point.x
        );
    }
}

#[test]
fn committed_artifacts_parse_and_cover_every_topic() {
    // The repo commits one artifact per topic at quick scale; this is the
    // schema gate that keeps them honest without rerunning the sweeps.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks");
    for topic in TOPICS {
        let artifact = load_artifact(&dir, topic)
            .unwrap_or_else(|e| panic!("committed artifact for {topic}: {e}"));
        assert_eq!(artifact.topic, *topic);
        assert_eq!(unreproducible(&artifact), None);
        assert_eq!(
            artifact.scale, "quick",
            "{topic} must be committed at quick scale"
        );
        assert!(!artifact.points.is_empty(), "{topic} has no points");
        // Figure topics replay the simulator; everything else times a
        // real daemon over loopback (saturation sweeps, routing).
        let expected_kind = if topic.starts_with("fig") {
            ArtifactKind::Simulated
        } else {
            ArtifactKind::Measured
        };
        assert_eq!(artifact.kind, expected_kind, "{topic}");
    }
}

#[test]
fn corrupted_artifacts_are_rejected_with_context() {
    assert!(BenchArtifact::parse("not json").is_err());
    assert!(BenchArtifact::parse("{}").is_err());
    let err =
        BenchArtifact::parse(r#"{"schema_version": 1, "points": [], "topic": 42}"#).unwrap_err();
    assert!(err.contains("topic"), "{err}");
}
