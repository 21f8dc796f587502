//! Golden-fixture suite for the source lints.
//!
//! Every live lint but the meta-lints SL013/SL014 (which the unit tests
//! pin) has a pair of fixtures under `tests/fixtures/`: `slNNN_bad.rs` is a
//! minimal program that must fire the lint at exactly the marked
//! code/path/line, and `slNNN_good.rs` is its corrected twin that must stay
//! silent. `regress_opaque.rs` locks in the token-stream upgrade: lint
//! patterns inside comments and string literals never fire.
//!
//! Fixture format: the first line is `//@ path: <workspace-relative
//! path>` (the virtual location the fixture is linted under — some lints
//! are path-scoped), and `//~ SLnnn [SLnnn …]` markers name every finding
//! expected on their own line. A fixture's findings must equal its
//! markers exactly — no extras, no misses, no line drift.

use mpicheck::{lint_sources, SrcLintId, ALL_LINTS};
use std::fs;
use std::path::Path;

/// Sorted `(code, line)` pairs — one per expected or reported finding.
type Findings = Vec<(String, usize)>;

/// Loads a fixture, lints it under its virtual path, and returns
/// `(expected, got)` as sorted `(code, line)` pairs.
fn run_fixture(name: &str) -> (Findings, Findings) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let rel = text
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("//@ path:"))
        .map(str::trim)
        .unwrap_or_else(|| panic!("{name}: missing `//@ path:` header"))
        .to_owned();
    let mut expected = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if let Some(pos) = line.find("//~") {
            for code in line[pos + 3..].split_whitespace() {
                if code.starts_with("SL") {
                    expected.push((code.to_owned(), i + 1));
                }
            }
        }
    }
    let mut got: Vec<(String, usize)> = lint_sources(&[(rel, text)])
        .iter()
        .map(|f| (f.id.code().to_owned(), f.line))
        .collect();
    expected.sort();
    got.sort();
    (expected, got)
}

fn assert_fixture(name: &str) {
    let (expected, got) = run_fixture(name);
    assert_eq!(got, expected, "{name}: findings do not match `//~` markers");
}

fn assert_pair(stem: &str) {
    assert_fixture(&format!("{stem}_bad.rs"));
    assert_fixture(&format!("{stem}_good.rs"));
}

#[test]
fn sl001_bare_unwrap() {
    assert_pair("sl001");
}

#[test]
fn sl002_hardcoded_sleep() {
    assert_pair("sl002");
}

#[test]
fn sl003_post_without_completion() {
    assert_pair("sl003");
}

#[test]
fn sl004_planner_outside_cache() {
    assert_pair("sl004");
}

#[test]
fn sl005_expect_in_recovery() {
    assert_pair("sl005");
}

#[test]
fn sl010_wall_clock_in_sim() {
    assert_pair("sl010");
}

#[test]
fn sl011_truncating_geometry_cast() {
    assert_pair("sl011");
}

#[test]
fn sl012_float_eq_on_spectrum() {
    assert_pair("sl012");
}

#[test]
fn sl015_collective_outside_transport() {
    assert_pair("sl015");
}

#[test]
fn lint_patterns_in_strings_and_comments_stay_silent() {
    assert_fixture("regress_opaque.rs");
}

#[test]
fn every_bad_fixture_marker_names_its_own_lint() {
    // Every live lint has a fixture pair, and its bad half carries a marker
    // for its own code — a fixture cannot drift to test the wrong lint, and
    // a new lint cannot land without one.
    let meta = [SrcLintId::UnjustifiedAllow, SrcLintId::DeadAllow];
    for id in ALL_LINTS.iter().filter(|id| !meta.contains(id)) {
        let code = id.code();
        let stem = code.to_lowercase();
        let (expected, _) = run_fixture(&format!("{stem}_bad.rs"));
        assert!(
            expected.iter().any(|(c, _)| c == code),
            "{stem}_bad.rs has no {code} marker"
        );
        run_fixture(&format!("{stem}_good.rs"));
    }
}
