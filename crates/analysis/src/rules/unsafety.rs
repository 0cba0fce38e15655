//! SA004 — unsafe hygiene.
//!
//! `unsafe` is confined to two whitelisted islands of CPU intrinsics
//! behind runtime feature detection: SHA-NI hashing in
//! `crates/crypto/src/sha256.rs` and the AVX-512 IFMA Montgomery kernel
//! in `crates/crypto/src/bignum/ifma.rs`. Anywhere else it is a finding
//! regardless of justification — move the code into an island or find
//! a safe formulation. Inside an island, every `unsafe` keyword must
//! have a `// SAFETY:` comment within the three lines above it
//! explaining why the invariants hold.

use crate::lexer::TokenKind;
use crate::source::SourceFile;

use super::{Finding, Rule, UNSAFE_WHITELIST};

/// How far above an `unsafe` keyword a `SAFETY:` comment may sit.
const SAFETY_COMMENT_REACH: u32 = 3;

pub(super) fn check(file: &SourceFile, whitelisted: bool, out: &mut Vec<Finding>) {
    for ci in 0..file.code.len() {
        let tok = file.ct(ci);
        if tok.kind != TokenKind::Ident || file.ct_text(ci) != "unsafe" {
            continue;
        }
        if !whitelisted {
            out.push(Finding {
                rule: Rule::UnsafeHygiene,
                path: file.path.clone(),
                line: tok.line,
                message: format!(
                    "`unsafe` outside the whitelisted intrinsics islands ({}) — find a safe \
                     formulation or move the code into an island",
                    UNSAFE_WHITELIST.join(", ")
                ),
            });
            continue;
        }
        let low = tok.line.saturating_sub(SAFETY_COMMENT_REACH);
        let documented = file.tokens.iter().any(|t| {
            t.is_comment()
                && t.line >= low
                && (t.line < tok.line || (t.line == tok.line && t.start < tok.start))
                && t.text(&file.bytes).contains("SAFETY:")
        });
        if !documented {
            out.push(Finding {
                rule: Rule::UnsafeHygiene,
                path: file.path.clone(),
                line: tok.line,
                message: "`unsafe` without a `// SAFETY:` comment in the preceding three lines — \
                          state why the invariants hold"
                    .to_owned(),
            });
        }
    }
}
