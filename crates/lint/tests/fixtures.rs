//! Integration tests: each rule against its fixture mini-workspace, the CLI
//! exit codes, and a smoke test over the real workspace.

use std::path::{Path, PathBuf};
use std::process::Command;

use le_lint::{check_workspace, Rule};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The real workspace root (two levels above this crate).
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the root")
        .to_path_buf()
}

fn rules_fired(dir: &Path) -> Vec<Rule> {
    let report = check_workspace(dir).expect("fixture should scan");
    let mut rules: Vec<Rule> = report.violations.iter().map(|v| v.rule).collect();
    rules.dedup();
    rules
}

#[test]
fn clean_fixture_has_no_violations() {
    let report = check_workspace(&fixture("clean")).expect("scan");
    assert!(
        report.is_clean(),
        "clean fixture flagged:\n{}",
        report.to_text()
    );
    assert_eq!(report.manifests_scanned, 2);
    assert_eq!(report.files_scanned, 1);
}

#[test]
fn hermeticity_fixture_flags_foreign_dep() {
    let rules = rules_fired(&fixture("hermeticity"));
    assert_eq!(rules, [Rule::Hermeticity]);
    let report = check_workspace(&fixture("hermeticity")).expect("scan");
    assert!(report.violations[0].message.contains("rand"));
}

#[test]
fn no_panic_fixture_flags_lib_but_not_bin() {
    let report = check_workspace(&fixture("no_panic")).expect("scan");
    let rules: Vec<Rule> = report.violations.iter().map(|v| v.rule).collect();
    assert_eq!(rules, [Rule::NoPanic]);
    // The same unwrap in src/main.rs must not be flagged.
    assert!(report
        .violations
        .iter()
        .all(|v| v.file.ends_with("lib.rs")));
}

#[test]
fn float_hygiene_fixture_flags_exact_comparison() {
    assert_eq!(rules_fired(&fixture("float_hygiene")), [Rule::FloatHygiene]);
}

#[test]
fn determinism_fixture_flags_wall_clock_in_sim_crate() {
    // The sim-crate clock read now trips both the sim-scoped L4 rule and
    // the workspace-wide L6 wallclock rule.
    assert_eq!(
        rules_fired(&fixture("determinism")),
        [Rule::Determinism, Rule::WallClock]
    );
}

#[test]
fn determinism_serve_fixture_flags_ambient_entropy_in_serving_crate() {
    // The serving frontend is part of the audited sim-kernel set: an
    // entropy-seeded RNG on its batch-formation path (which would break
    // the bit-identical serve digest) must trip L4 — and only L4, since
    // no clock is read.
    assert_eq!(rules_fired(&fixture("determinism_serve")), [Rule::Determinism]);
}

#[test]
fn determinism_drift_fixture_flags_ambient_entropy_in_drift_crate() {
    // Drift schedules feed the staleness/rolling-retrain campaigns and
    // must replay byte-identically: an entropy-seeded jitter source in
    // le-drift would break the drift-campaign digest, so it must trip
    // L4 — and only L4, since no clock is read.
    assert_eq!(rules_fired(&fixture("determinism_drift")), [Rule::Determinism]);
}

#[test]
fn wallclock_fixture_flags_clock_read_despite_allow_comment() {
    let report = check_workspace(&fixture("wallclock")).expect("scan");
    let rules: Vec<Rule> = report.violations.iter().map(|v| v.rule).collect();
    assert_eq!(rules, [Rule::WallClock], "{}", report.to_text());
    assert!(report.violations[0].message.contains("le-obs"));
}

#[test]
fn trace_hygiene_fixture_flags_raw_backends_despite_allow_comment() {
    let report = check_workspace(&fixture("trace_hygiene")).expect("scan");
    let rules: Vec<Rule> = report.violations.iter().map(|v| v.rule).collect();
    // Three raw backend calls in the non-test body; the guard-macro calls
    // and the `#[cfg(test)]` reset must stay silent.
    assert_eq!(
        rules,
        [Rule::TraceHygiene, Rule::TraceHygiene, Rule::TraceHygiene],
        "{}",
        report.to_text()
    );
    assert!(report.violations[0].message.contains("le-obs"));
}

#[test]
fn lint_headers_fixture_flags_missing_headers() {
    let report = check_workspace(&fixture("lint_headers")).expect("scan");
    let rules: Vec<Rule> = report.violations.iter().map(|v| v.rule).collect();
    assert_eq!(rules, [Rule::LintHeaders, Rule::LintHeaders]);
}

#[test]
fn le_error_unwrap_fixture_flags_lib_and_bin() {
    let report = check_workspace(&fixture("le_error_unwrap")).expect("scan");
    let rules: Vec<Rule> = report.violations.iter().map(|v| v.rule).collect();
    // One hit in lib.rs, two in the binary (`query` and `query_each`) —
    // unlike L2, drivers are not exempt. The allowed line and the
    // `#[cfg(test)]` unwrap stay silent.
    assert_eq!(
        rules,
        [Rule::LeErrorUnwrap; 3],
        "{}",
        report.to_text()
    );
    assert!(report.violations.iter().any(|v| v.file.ends_with("lib.rs")));
    assert!(report
        .violations
        .iter()
        .any(|v| v.file.ends_with("driver.rs")));
}

#[test]
fn dead_dep_fixture_flags_unnamed_edges_only() {
    let report = check_workspace(&fixture("dead_dep")).expect("scan");
    let rules: Vec<Rule> = report.violations.iter().map(|v| v.rule).collect();
    // `le-pool` (named only in a comment and a string) and the unused
    // dev-dependency `le-nn`; not `le-linalg` (used in src), `le-obs`
    // (used by a test) or the `[workspace.dependencies]` table.
    assert_eq!(rules, [Rule::DeadDep, Rule::DeadDep], "{}", report.to_text());
    assert!(report.violations[0].message.contains("`le-pool`"));
    assert!(report.violations[1].message.contains("`le-nn`"));
    assert!(report
        .violations
        .iter()
        .all(|v| v.file.ends_with("crates/unit/Cargo.toml")));
}

#[test]
fn dead_pub_fixture_flags_items_without_an_outside_use() {
    let report = check_workspace(&fixture("dead_pub")).expect("scan");
    let rules: Vec<Rule> = report.violations.iter().map(|v| v.rule).collect();
    // Dead: a function in a `src/fixtures/` module (only `tests/fixtures`
    // is skipped as data), a function only its own `#[cfg(test)]` module
    // calls (the call from a nested lint fixture does not count) and a
    // constant named only in docs and strings. Alive: uses from the binary,
    // from another file's test, from the benchmark sources and from the
    // defining file's non-test code; silent: the escaped item and
    // `pub(crate)`.
    assert_eq!(rules, [Rule::DeadPub; 3], "{}", report.to_text());
    assert!(report.violations[0].message.contains("`in_src_fixtures`"));
    assert!(report.violations[0].file.ends_with("src/fixtures/mod.rs"));
    assert!(report.violations[1].message.contains("`only_own_tests`"));
    assert!(report.violations[2].message.contains("`NAMED_ONLY_IN_DOCS`"));
    assert_eq!(report.allows.get("dead-pub"), Some(&1));
}

#[test]
fn real_workspace_is_clean() {
    let report = check_workspace(&workspace_root()).expect("workspace scans");
    assert!(
        report.is_clean(),
        "workspace has lint violations:\n{}",
        report.to_text()
    );
    // All 17 crates plus the root package.
    assert_eq!(report.manifests_scanned, 18);
    assert!(report.files_scanned > 50);
}

#[test]
fn cli_exit_codes() {
    let bin = env!("CARGO_BIN_EXE_le-lint");
    let clean = Command::new(bin)
        .args(["check", "--root"])
        .arg(fixture("clean"))
        .output()
        .expect("spawn le-lint");
    assert_eq!(clean.status.code(), Some(0), "clean fixture should exit 0");

    for name in [
        "hermeticity",
        "no_panic",
        "float_hygiene",
        "determinism",
        "determinism_serve",
        "determinism_drift",
        "lint_headers",
        "wallclock",
        "trace_hygiene",
        "le_error_unwrap",
        "dead_dep",
        "dead_pub",
    ] {
        let out = Command::new(bin)
            .args(["check", "--root"])
            .arg(fixture(name))
            .output()
            .expect("spawn le-lint");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{name} fixture should exit 1, stdout:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }

    let bad = Command::new(bin)
        .arg("frobnicate")
        .output()
        .expect("spawn le-lint");
    assert_eq!(bad.status.code(), Some(2), "bad usage should exit 2");
}

#[test]
fn cli_json_output_is_parseable_shape() {
    let bin = env!("CARGO_BIN_EXE_le-lint");
    let out = Command::new(bin)
        .args(["check", "--format", "json", "--root"])
        .arg(fixture("no_panic"))
        .output()
        .expect("spawn le-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"rule\": \"no-panic\""));
    assert!(stdout.contains("\"clean\": false"));
    assert!(stdout.trim_start().starts_with('{'));
    assert!(stdout.trim_end().ends_with('}'));
}
