//! Per-rule fixture tests: every rule L001–L007 has a violation fixture
//! that must fire and a clean fixture that must stay silent, plus coverage
//! for the suppression mechanism itself.

use mint_lint::config::Config;
use mint_lint::engine::{self, Report};
use mint_lint::Severity;
use std::path::Path;

/// A config that puts the synthetic fixture path in scope for every rule.
fn fixture_config() -> Config {
    Config::from_toml(
        r#"
        [workspace]
        scan = ["src"]

        [rules.L001]
        crate_roots = ["src/fixture.rs"]

        [rules.L002]
        paths = ["src/fixture.rs"]

        [rules.L003]
        paths = ["src/fixture.rs"]

        [rules.L004]
        hot_functions = []

        [rules.L005]
        paths = ["src/fixture.rs"]

        [rules.L006]
        paths = ["src/fixture.rs"]

        [rules.L007]
        paths = ["src/fixture.rs"]
        "#,
    )
    .expect("fixture config parses")
}

fn lint_fixture(name: &str) -> Report {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/rules")
        .join(name);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    lint_str(&source)
}

fn lint_str(source: &str) -> Report {
    let config = fixture_config();
    let mut report = Report::default();
    engine::lint_source(Path::new("src/fixture.rs"), source, &config, &mut report);
    report
}

fn codes(report: &Report) -> Vec<&str> {
    report.diagnostics.iter().map(|d| d.code).collect()
}

/// L001 fires on the violation fixture and nothing fires on the clean one.
/// Same shape for every other rule below.
#[test]
fn l001_forbid_unsafe() {
    assert!(codes(&lint_fixture("L001_violation.rs")).contains(&"L001"));
    assert!(!codes(&lint_fixture("L001_clean.rs")).contains(&"L001"));
}

#[test]
fn l002_unbounded_channel() {
    let report = lint_fixture("L002_violation.rs");
    assert!(codes(&report).contains(&"L002"));
    let clean = lint_fixture("L002_clean.rs");
    assert!(
        !codes(&clean).contains(&"L002"),
        "sync_channel and test-scoped channels must pass: {:?}",
        clean.diagnostics
    );
}

#[test]
fn l003_unwrap_expect() {
    let report = lint_fixture("L003_violation.rs");
    let found = codes(&report);
    assert_eq!(
        found.iter().filter(|c| **c == "L003").count(),
        2,
        "one unwrap + one expect: {:?}",
        report.diagnostics
    );
    let clean = lint_fixture("L003_clean.rs");
    assert!(
        !codes(&clean).contains(&"L003"),
        "test-scoped unwraps must pass: {:?}",
        clean.diagnostics
    );
}

#[test]
fn l004_hot_path_allocations() {
    let report = lint_fixture("L004_violation.rs");
    let hits = codes(&report).iter().filter(|c| **c == "L004").count();
    assert_eq!(
        hits, 5,
        "Vec::new, to_string, format!, String::from, clone: {:?}",
        report.diagnostics
    );
    let clean = lint_fixture("L004_clean.rs");
    assert!(
        !codes(&clean).contains(&"L004"),
        "buffer-reuse hot fn and cold allocators must pass: {:?}",
        clean.diagnostics
    );
}

/// The owning calls the rule used to be blind to: `to_owned` and
/// `to_ascii_lowercase`.
#[test]
fn l004_owned_copies_in_a_hot_function() {
    let report = lint_fixture("L004_owned_violation.rs");
    let hits: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == "L004")
        .map(|d| d.line)
        .collect();
    assert_eq!(
        hits,
        [9, 10, 10],
        "key.to_owned() twice, then to_ascii_lowercase(): {:?}",
        report.diagnostics
    );
    let clean = lint_fixture("L004_owned_clean.rs");
    assert!(
        !codes(&clean).contains(&"L004"),
        "borrowed probes, a cold owner and look-alike locals must pass: {:?}",
        clean.diagnostics
    );
}

/// The interned-ingest regression class: a hot function allocating an owned
/// `String` per token inside a loop must fire, and its buffer-reuse rewrite
/// (with a cold allocator alongside) must stay silent.
#[test]
fn l004_per_iteration_allocation_in_hot_loop() {
    let report = lint_fixture("L004_loop_violation.rs");
    let hits = codes(&report).iter().filter(|c| **c == "L004").count();
    assert_eq!(
        hits, 1,
        "the to_string in the token loop: {:?}",
        report.diagnostics
    );
    let clean = lint_fixture("L004_loop_clean.rs");
    assert!(
        !codes(&clean).contains(&"L004"),
        "borrowed tokens + recycled buffer must pass: {:?}",
        clean.diagnostics
    );
}

#[test]
fn l005_ambient_time_and_rng() {
    let report = lint_fixture("L005_violation.rs");
    let hits = codes(&report).iter().filter(|c| **c == "L005").count();
    assert_eq!(
        hits, 3,
        "SystemTime::now, Instant::now, thread_rng: {:?}",
        report.diagnostics
    );
    assert!(!codes(&lint_fixture("L005_clean.rs")).contains(&"L005"));
}

#[test]
fn l006_locks_on_publication_path() {
    let report = lint_fixture("L006_violation.rs");
    assert!(codes(&report).contains(&"L006"));
    assert!(!codes(&lint_fixture("L006_clean.rs")).contains(&"L006"));
}

#[test]
fn l007_truncating_float_formats() {
    assert!(codes(&lint_fixture("L007_violation.rs")).contains(&"L007"));
    assert!(!codes(&lint_fixture("L007_clean.rs")).contains(&"L007"));
}

#[test]
fn config_listed_hot_function_is_checked() {
    let config = Config::from_toml(
        r#"
        [workspace]
        scan = ["src"]

        [rules.L004]
        hot_functions = ["Parser::parse"]
        "#,
    )
    .expect("config parses");
    let mut report = Report::default();
    engine::lint_source(
        Path::new("src/fixture.rs"),
        "struct Parser;\nimpl Parser {\n    fn parse(&self) -> String { String::from(\"x\") }\n}",
        &config,
        &mut report,
    );
    assert!(codes(&report).contains(&"L004"), "{:?}", report.diagnostics);
}

#[test]
fn justified_allow_suppresses_and_counts() {
    let report = lint_str(
        "fn f(x: Option<u32>) -> u32 {\n    \
             // mint-lint: allow(L003) — fixture-proven unreachable\n    \
             x.unwrap()\n\
         }\n\
         #![forbid(unsafe_code)]",
    );
    assert!(
        !codes(&report).contains(&"L003"),
        "{:?}",
        report.diagnostics
    );
    assert_eq!(report.suppressed, 1);
}

#[test]
fn bare_allow_is_an_error_and_does_not_suppress() {
    let report = lint_str(
        "#![forbid(unsafe_code)]\n\
         fn f(x: Option<u32>) -> u32 {\n    \
             // mint-lint: allow(L003)\n    \
             x.unwrap()\n\
         }",
    );
    let found = codes(&report);
    assert!(found.contains(&"L000"), "{:?}", report.diagnostics);
    assert!(found.contains(&"L003"), "{:?}", report.diagnostics);
}

#[test]
fn unused_allow_warns() {
    let report = lint_str(
        "#![forbid(unsafe_code)]\n\
         // mint-lint: allow(L003) — nothing here actually panics\n\
         fn f() -> u32 {\n    1\n}",
    );
    let unused: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == "L000" && d.severity == Severity::Warning)
        .collect();
    assert_eq!(unused.len(), 1, "{:?}", report.diagnostics);
    assert!(!report.has_errors());
}

#[test]
fn allow_for_a_different_code_does_not_suppress() {
    let report = lint_str(
        "#![forbid(unsafe_code)]\n\
         fn f(x: Option<u32>) -> u32 {\n    \
             // mint-lint: allow(L002) — wrong code on purpose\n    \
             x.unwrap()\n\
         }",
    );
    assert!(codes(&report).contains(&"L003"), "{:?}", report.diagnostics);
}
