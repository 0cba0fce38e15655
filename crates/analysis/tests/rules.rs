//! Fixture-driven rule tests: every fixture under `tests/fixtures/`
//! carries `EXPECT: SA00N [xM]` markers (finding on this line, M
//! times) or `EXPECT@-1: SA00N` (finding one line above — used where
//! the finding anchors on a line that cannot hold a marker, like a
//! reason-less waiver). The driver analyzes each fixture under a
//! virtual workspace path that triggers the right rule scopes and
//! requires the finding multiset to equal the marker multiset — so a
//! fixture asserts both "the rule fires here with this ID and line"
//! and "nothing else fires anywhere in the file".

use std::collections::BTreeMap;
use std::path::Path;

use sinclave_analysis::{analyze, workspace, Config, LockManifest, SourceFile};

/// Manifest the lock-order fixtures are written against.
const FIXTURE_MANIFEST: &str = "10 journal\n20 volume\n30 shards, policies\n40 queue\n";

/// A serving-path label: SA001/SA002/SA003/SA005 scopes apply.
const SERVING_PATH: &str = "crates/cas/src/fixture.rs";
/// The unsafe island label: SA004's SAFETY-comment mode applies.
const ISLAND_PATH: &str = "crates/crypto/src/sha256.rs";
/// The second unsafe island: the AVX-512 IFMA bignum kernel.
const IFMA_ISLAND_PATH: &str = "crates/crypto/src/bignum/ifma.rs";
/// A replay-scope label: SA006 applies.
const REPLAY_PATH: &str = "crates/fs/src/journal.rs";

fn fixture_bytes(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("reading fixture {name}: {e}"))
}

/// Parses the `(rule id, line) -> count` multiset the fixture expects.
fn expected_findings(bytes: &[u8]) -> BTreeMap<(String, u32), usize> {
    let mut expected = BTreeMap::new();
    for (i, line) in String::from_utf8_lossy(bytes).lines().enumerate() {
        let line_no = (i + 1) as u32;
        let (anchor, rest) = if let Some(pos) = line.find("EXPECT@-1:") {
            (line_no - 1, &line[pos + "EXPECT@-1:".len()..])
        } else if let Some(pos) = line.find("EXPECT:") {
            (line_no, &line[pos + "EXPECT:".len()..])
        } else {
            // Prose mentioning EXPECT without the marker colon is not
            // a marker.
            continue;
        };
        let mut words = rest.split_whitespace();
        let id = words
            .next()
            .expect("EXPECT marker without a rule id")
            .trim_end_matches(|c: char| !c.is_ascii_alphanumeric())
            .to_owned();
        assert!(id.starts_with("SA"), "bad rule id `{id}` on line {line_no}");
        let count = words
            .next()
            .and_then(|w| w.strip_prefix('x'))
            .and_then(|n| n.parse::<usize>().ok())
            .unwrap_or(1);
        *expected.entry((id, anchor)).or_insert(0) += count;
    }
    expected
}

/// Analyzes one fixture under `path` and compares the finding multiset
/// to the fixture's EXPECT markers.
fn check_fixture(name: &str, path: &str) {
    let bytes = fixture_bytes(name);
    let expected = expected_findings(&bytes);
    let config =
        Config { manifest: LockManifest::parse(FIXTURE_MANIFEST).expect("fixture manifest") };
    let analysis = analyze(&[SourceFile::parse(path, bytes)], &config);
    let mut actual: BTreeMap<(String, u32), usize> = BTreeMap::new();
    for finding in &analysis.findings {
        *actual.entry((finding.rule.id().to_owned(), finding.line)).or_insert(0) += 1;
    }
    assert_eq!(
        actual,
        expected,
        "{name}: finding multiset mismatch\nfindings:\n{}",
        analysis.findings.iter().map(|f| format!("  {f}")).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn panic_positive() {
    check_fixture("panic_positive.rs", SERVING_PATH);
}

#[test]
fn panic_negative() {
    check_fixture("panic_negative.rs", SERVING_PATH);
}

#[test]
fn panic_rule_is_scoped_to_serving_crates() {
    // The same violations under a non-serving path produce nothing.
    let bytes = fixture_bytes("panic_positive.rs");
    let analysis =
        analyze(&[SourceFile::parse("crates/sgx/src/fixture.rs", bytes)], &Config::default());
    assert!(analysis.findings.is_empty(), "out-of-scope findings: {:?}", analysis.findings);
}

#[test]
fn lock_order_positive() {
    check_fixture("lock_order_positive.rs", SERVING_PATH);
}

#[test]
fn lock_order_negative() {
    check_fixture("lock_order_negative.rs", SERVING_PATH);
}

#[test]
fn durability_positive() {
    check_fixture("durability_positive.rs", SERVING_PATH);
}

#[test]
fn durability_negative() {
    check_fixture("durability_negative.rs", SERVING_PATH);
}

#[test]
fn unsafe_positive() {
    check_fixture("unsafe_positive.rs", ISLAND_PATH);
}

#[test]
fn unsafe_negative() {
    check_fixture("unsafe_negative.rs", ISLAND_PATH);
}

#[test]
fn unsafe_outside_island_fires_even_when_documented() {
    let bytes = fixture_bytes("unsafe_negative.rs");
    let analysis = analyze(&[SourceFile::parse(SERVING_PATH, bytes)], &Config::default());
    let unsafe_findings: Vec<_> =
        analysis.findings.iter().filter(|f| f.rule.id() == "SA004").collect();
    assert_eq!(unsafe_findings.len(), 1, "findings: {:?}", analysis.findings);
    assert!(unsafe_findings[0].message.contains("outside the whitelisted"));
}

#[test]
fn unsafe_in_ifma_island_still_needs_a_safety_comment() {
    check_fixture("unsafe_positive.rs", IFMA_ISLAND_PATH);
    check_fixture("unsafe_negative.rs", IFMA_ISLAND_PATH);
}

#[test]
fn unsafe_elsewhere_in_crypto_fires_even_when_documented() {
    // The whitelist names two files, not the crate or its bignum
    // module: the portable kernels beside the IFMA one stay safe code.
    for path in ["crates/crypto/src/bignum/modular.rs", "crates/crypto/src/rsa.rs"] {
        let bytes = fixture_bytes("unsafe_negative.rs");
        let analysis = analyze(&[SourceFile::parse(path, bytes)], &Config::default());
        let unsafe_findings: Vec<_> =
            analysis.findings.iter().filter(|f| f.rule.id() == "SA004").collect();
        assert_eq!(unsafe_findings.len(), 1, "{path}: {:?}", analysis.findings);
        assert!(unsafe_findings[0].message.contains("outside the whitelisted"));
    }
}

#[test]
fn workspace_has_no_findings() {
    // What `sinclave-analysis --workspace` checks, run over this
    // checkout with its lock manifest.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let manifest = std::fs::read_to_string(root.join("crates/analysis/lock-order.manifest"))
        .expect("lock manifest");
    let config = Config { manifest: LockManifest::parse(&manifest).expect("manifest parses") };
    let files: Vec<_> = workspace::collect_rs_files(&root)
        .expect("walk workspace")
        .into_iter()
        .map(|rel| {
            let bytes = std::fs::read(root.join(&rel)).expect("read source");
            SourceFile::parse(&rel.to_string_lossy().replace('\\', "/"), bytes)
        })
        .collect();
    assert!(files.iter().any(|f| f.path == IFMA_ISLAND_PATH), "the IFMA island is analyzed");
    let analysis = analyze(&files, &config);
    assert!(
        analysis.findings.is_empty(),
        "findings:\n{}",
        analysis.findings.iter().map(|f| format!("  {f}")).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn secret_positive() {
    check_fixture("secret_positive.rs", SERVING_PATH);
}

#[test]
fn secret_negative() {
    check_fixture("secret_negative.rs", SERVING_PATH);
}

#[test]
fn determinism_positive() {
    check_fixture("determinism_positive.rs", REPLAY_PATH);
}

#[test]
fn determinism_negative() {
    check_fixture("determinism_negative.rs", REPLAY_PATH);
}

#[test]
fn determinism_rule_is_scoped_to_replay_paths() {
    let bytes = fixture_bytes("determinism_positive.rs");
    let analysis = analyze(&[SourceFile::parse(SERVING_PATH, bytes)], &Config::default());
    assert!(
        analysis.findings.iter().all(|f| f.rule.id() != "SA006"),
        "SA006 fired outside replay scope: {:?}",
        analysis.findings
    );
}

#[test]
fn waiver_hygiene() {
    check_fixture("waiver_hygiene.rs", SERVING_PATH);
}

#[test]
fn waived_findings_are_reported_separately() {
    let bytes = fixture_bytes("panic_negative.rs");
    let analysis = analyze(&[SourceFile::parse(SERVING_PATH, bytes)], &Config::default());
    assert!(analysis.findings.is_empty());
    assert_eq!(analysis.waived.len(), 1, "waived: {:?}", analysis.waived);
    assert_eq!(analysis.waived[0].rule.id(), "SA001");
}
