//! Fixture-driven coverage of every rule: each known-bad snippet under
//! `tests/fixtures/` yields exactly one diagnostic from its target rule,
//! the clean and waived fixtures yield none, the chain fixtures prove
//! root-to-site reporting across a file boundary, and the JSON rendering
//! of a full fixture-directory scan matches a committed golden file
//! byte for byte.

use buffalo_lint::{check_file, check_sources, run_check, to_json, Config};
use std::fs;
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn lint_fixture(name: &str) -> Vec<buffalo_lint::Diagnostic> {
    let src = fs::read_to_string(fixture_dir().join(name)).expect(name);
    check_file(name, &src, &Config::all_files())
}

#[test]
fn each_rule_has_a_bad_fixture_with_exactly_one_diagnostic() {
    for (file, rule) in [
        ("bad_nondet.rs", "nondet-iteration"),
        ("bad_no_panic.rs", "panic-reachability"),
        ("bad_wallclock.rs", "wallclock-taint"),
        ("bad_rng.rs", "rng-stream-discipline"),
        ("bad_unsafe.rs", "undocumented-unsafe"),
        ("bad_simd.rs", "undocumented-simd"),
        ("bad_alloc.rs", "unaccounted-alloc"),
    ] {
        let diags = lint_fixture(file);
        assert_eq!(
            diags.len(),
            1,
            "{file} should yield exactly one diagnostic, got: {diags:?}"
        );
        assert_eq!(diags[0].rule, rule, "{file}");
        assert!(diags[0].line > 0 && diags[0].col > 0, "{file} span missing");
    }
}

#[test]
fn clean_fixture_yields_nothing() {
    assert_eq!(lint_fixture("clean.rs"), vec![]);
}

#[test]
fn waived_fixture_is_suppressed_and_waiver_counts_as_used() {
    assert_eq!(lint_fixture("waived.rs"), vec![]);
}

#[test]
fn reasonless_waiver_is_invalid_and_suppresses_nothing() {
    let diags = lint_fixture("bad_waiver.rs");
    let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
    assert!(rules.contains(&"invalid-waiver"), "{diags:?}");
    assert!(rules.contains(&"wallclock-taint"), "{diags:?}");
}

#[test]
fn waiver_matching_no_diagnostic_is_reported() {
    let diags = lint_fixture("unused_waiver.rs");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "unused-waiver");
}

/// End-to-end proof of interprocedural chain reporting: with only
/// `chain_root.rs` declared as a root, the planted `.unwrap()` two
/// calls away in `chain_helper.rs` is reported with the full
/// three-frame chain — and the rendering is byte-stable across runs.
#[test]
fn cross_file_chain_is_reported_with_full_frames() {
    let cfg = Config {
        decision_paths: Vec::new(),
        panic_roots: vec!["chain_root.rs".to_string()],
        strict_roots: Vec::new(),
        strict_scope_paths: Vec::new(),
        wallclock_sink_paths: Vec::new(),
        alloc_exempt_paths: Vec::new(),
    };
    let sources: Vec<(String, String)> = ["chain_root.rs", "chain_helper.rs"]
        .iter()
        .map(|n| {
            (
                n.to_string(),
                fs::read_to_string(fixture_dir().join(n)).expect(n),
            )
        })
        .collect();
    let (diags, stats) = check_sources(&sources, &cfg);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(d.rule, "panic-reachability");
    assert_eq!(d.file, "chain_helper.rs");
    let frames: Vec<(&str, &str)> = d
        .chain
        .iter()
        .map(|f| (f.func.as_str(), f.file.as_str()))
        .collect();
    assert_eq!(
        frames,
        [
            ("ladder_entry", "chain_root.rs"),
            ("relay_step", "chain_helper.rs"),
            ("finishing_move", "chain_helper.rs"),
        ]
    );
    assert!(
        d.message
            .contains("ladder_entry → relay_step → finishing_move"),
        "{}",
        d.message
    );
    assert_eq!(stats.functions, 4);

    // Byte-stability: a second independent pass renders identically.
    let (again, _) = check_sources(&sources, &cfg);
    assert_eq!(to_json(&diags), to_json(&again));
}

/// Golden-file check of the machine-readable output: scanning the whole
/// fixture directory (sorted walk, sorted diagnostics, chain arrays)
/// must render to byte-identical JSON run over run.
#[test]
fn json_output_matches_golden_file() {
    let report = run_check(&fixture_dir(), &Config::all_files()).expect("scan fixtures");
    let actual = to_json(&report.diags);
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_lint.json");
    let golden = fs::read_to_string(&golden_path).expect("golden_lint.json");
    if actual != golden {
        // Leave the actual rendering somewhere inspectable before failing.
        let dump = std::env::temp_dir().join("lint_golden_actual.json");
        fs::write(&dump, &actual).ok();
        panic!(
            "JSON output diverges from tests/golden_lint.json; actual written to {}",
            dump.display()
        );
    }
    // And the scan itself is deterministic: a second walk renders the
    // same bytes.
    let again = run_check(&fixture_dir(), &Config::all_files()).expect("rescan fixtures");
    assert_eq!(actual, to_json(&again.diags));
}

/// `structure.rs` pins what the one item walk must get right: test-gated
/// items are silent, a device-state struct declared below its impl and a
/// device-state name in an impl's trait position both count, intrinsics
/// in a closure or a nested fn inside a `#[target_feature]` fn are
/// covered, and a module-level hash-container import is flagged.
#[test]
fn structural_fixture_flags_exactly_the_live_sites() {
    let got: Vec<(&str, u32)> = lint_fixture("structure.rs")
        .iter()
        .map(|d| (d.rule, d.line))
        .collect();
    assert_eq!(
        got,
        [
            ("nondet-iteration", 7),
            ("panic-reachability", 10),
            ("panic-reachability", 30),
            ("unaccounted-alloc", 35),
            ("unaccounted-alloc", 52),
            ("undocumented-simd", 69),
            ("undocumented-simd", 69),
        ]
    );
}
