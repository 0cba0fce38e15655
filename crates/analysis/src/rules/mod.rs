//! The rule engine: rule identities, findings, scopes, and the
//! waiver-aware analysis entry point.
//!
//! Each rule walks the [`SourceFile`] token model and emits
//! [`Finding`]s. The engine then applies waiver comments
//! (`// lint: allow(<key>) — <reason>`, on the finding's line or the
//! line directly above) and turns waiver problems — missing reason,
//! unknown rule key, waiver matching no finding, unparseable `lint:`
//! comment — into findings of their own, so the waiver channel cannot
//! silently rot.

mod determinism;
mod durability;
mod locks;
mod panic_freedom;
mod secrets;
mod unsafety;

use crate::manifest::LockManifest;
use crate::source::SourceFile;

/// The rule catalog. IDs are stable; `key` is the waiver spelling.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// SA000: waiver hygiene (not waivable).
    WaiverHygiene,
    /// SA001: no `unwrap`/`expect`/`panic!`/`todo!` on serving paths.
    Panic,
    /// SA002: nested lock acquisition must follow the manifest order.
    LockOrder,
    /// SA003: in annotated fns, no send/publish before the journal
    /// append.
    JournalBeforeAck,
    /// SA004: `unsafe` only in the whitelisted island, with `SAFETY:`.
    UnsafeHygiene,
    /// SA005: key-bearing types never derive `Debug`/`Display`; keyish
    /// identifiers never reach format macros.
    SecretHygiene,
    /// SA006: no wall-clock reads in replay/decode paths.
    Determinism,
}

impl Rule {
    /// Stable diagnostic ID.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::WaiverHygiene => "SA000",
            Rule::Panic => "SA001",
            Rule::LockOrder => "SA002",
            Rule::JournalBeforeAck => "SA003",
            Rule::UnsafeHygiene => "SA004",
            Rule::SecretHygiene => "SA005",
            Rule::Determinism => "SA006",
        }
    }

    /// The key used in waiver comments.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            Rule::WaiverHygiene => "waiver",
            Rule::Panic => "panic",
            Rule::LockOrder => "lock-order",
            Rule::JournalBeforeAck => "journal-before-ack",
            Rule::UnsafeHygiene => "unsafe",
            Rule::SecretHygiene => "secret",
            Rule::Determinism => "determinism",
        }
    }

    /// Every waivable rule (everything but waiver hygiene itself).
    #[must_use]
    pub fn waivable() -> &'static [Rule] {
        &[
            Rule::Panic,
            Rule::LockOrder,
            Rule::JournalBeforeAck,
            Rule::UnsafeHygiene,
            Rule::SecretHygiene,
            Rule::Determinism,
        ]
    }
}

/// One diagnostic.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}/{}] {}",
            self.path,
            self.line,
            self.rule.id(),
            self.rule.key(),
            self.message
        )
    }
}

/// Analyzer configuration: the lock manifest (rule SA002's input).
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// The declared lock acquisition order.
    pub manifest: LockManifest,
}

/// The result of analyzing a set of files.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Unwaived findings, sorted by path then line.
    pub findings: Vec<Finding>,
    /// Findings suppressed by a waiver (with a recorded reason).
    pub waived: Vec<Finding>,
}

/// Serving-path crates rule SA001 (panic-freedom) covers.
const PANIC_SCOPE: &[&str] =
    &["crates/cas/src/", "crates/net/src/", "crates/fs/src/", "crates/core/src/"];

/// The modules allowed to contain `unsafe`: the two CPU-intrinsics
/// islands (SHA-NI hashing and the AVX-512 IFMA bignum kernel).
pub(crate) const UNSAFE_WHITELIST: &[&str] =
    &["crates/crypto/src/sha256.rs", "crates/crypto/src/bignum/ifma.rs"];

/// Replay/decode paths rule SA006 (determinism) covers: bit-identical
/// recovery must not read wall clocks.
const DETERMINISM_SCOPE: &[&str] = &[
    "crates/core/src/replication.rs",
    "crates/core/src/journal_record.rs",
    "crates/core/src/snapshot.rs",
    "crates/fs/src/journal.rs",
];

fn in_scope(path: &str, scope: &[&str]) -> bool {
    scope.iter().any(|prefix| path.starts_with(prefix))
}

/// Runs every rule over one file. Raw findings — waivers not applied.
#[must_use]
pub fn analyze_file(file: &SourceFile, config: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    if in_scope(&file.path, PANIC_SCOPE) {
        panic_freedom::check(file, &mut out);
    }
    locks::check(file, &config.manifest, &mut out);
    durability::check(file, &mut out);
    unsafety::check(file, in_scope(&file.path, UNSAFE_WHITELIST), &mut out);
    secrets::check(file, &mut out);
    if in_scope(&file.path, DETERMINISM_SCOPE) {
        determinism::check(file, &mut out);
    }
    out
}

/// Analyzes a set of files: runs every rule, applies waivers, and
/// appends waiver-hygiene findings.
#[must_use]
pub fn analyze(files: &[SourceFile], config: &Config) -> Analysis {
    let mut analysis = Analysis::default();
    for file in files {
        let raw = analyze_file(file, config);
        let mut waiver_used = vec![false; file.waivers.len()];
        for finding in raw {
            let waiver = file.waivers.iter().enumerate().find(|(_, w)| {
                w.rule == finding.rule.key()
                    && (w.line == finding.line || w.line + 1 == finding.line)
            });
            match waiver {
                Some((i, _)) => {
                    waiver_used[i] = true;
                    analysis.waived.push(finding);
                }
                None => analysis.findings.push(finding),
            }
        }
        for (i, waiver) in file.waivers.iter().enumerate() {
            let known = Rule::waivable().iter().any(|r| r.key() == waiver.rule);
            let problem = if !known {
                Some(format!(
                    "waiver names unknown rule `{}` (known: {})",
                    waiver.rule,
                    Rule::waivable().iter().map(|r| r.key()).collect::<Vec<_>>().join(", ")
                ))
            } else if waiver.reason.is_empty() {
                Some(format!("waiver for `{}` carries no reason", waiver.rule))
            } else if !waiver_used[i] {
                Some(format!(
                    "waiver for `{}` matches no finding on this or the next line — remove it",
                    waiver.rule
                ))
            } else {
                None
            };
            if let Some(message) = problem {
                analysis.findings.push(Finding {
                    rule: Rule::WaiverHygiene,
                    path: file.path.clone(),
                    line: waiver.line,
                    message,
                });
            }
        }
        for malformed in &file.malformed_waivers {
            analysis.findings.push(Finding {
                rule: Rule::WaiverHygiene,
                path: file.path.clone(),
                line: malformed.line,
                message: format!(
                    "unparseable `lint:` comment ({}) — syntax: `// lint: allow(<rule>) — <reason>`",
                    malformed.problem
                ),
            });
        }
    }
    analysis.findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    analysis.waived.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    analysis
}

/// True when the code token at `ci` is an ident `name` called as a
/// function or method (`name(` follows).
fn is_call(file: &SourceFile, ci: usize, name: &str) -> bool {
    file.ct(ci).kind == crate::lexer::TokenKind::Ident
        && file.ct_text(ci) == name
        && file.punct_at(ci + 1, '(')
}
