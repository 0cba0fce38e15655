//! Workspace file discovery: walks the repository for `.rs` files,
//! skipping build output, vendored stubs, VCS metadata, and the
//! analyzer's own rule fixtures (which are violations on purpose).
//! Also counts the serving crates' non-test lines and clock sites,
//! the numbers the `--workspace` summary reports.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::SourceFile;

/// The serving crates whose non-test lines and clock sites the
/// `--workspace` summary reports, in report order.
pub const TRACKED_CRATES: &[&str] = &["cas", "net", "fs", "core"];

/// The calls [`clock_sites`] counts: reads of a clock and sleeps.
const CLOCK_CALLS: &[&str] = &["Instant::now", "SystemTime::now", "thread::sleep"];

/// Non-test lines of one crate: for every file under
/// `crates/<name>/src/`, the lines above its first `#[cfg(test)]`
/// line (all of its lines when it has none).
#[must_use]
pub fn non_test_lines(files: &[SourceFile], name: &str) -> usize {
    sum_non_test(files, name, |_| 1)
}

/// Clock sites of one crate: occurrences of `Instant::now`,
/// `SystemTime::now` and `thread::sleep` on the lines
/// [`non_test_lines`] counts, comment lines skipped.
#[must_use]
pub fn clock_sites(files: &[SourceFile], name: &str) -> usize {
    sum_non_test(files, name, |line| {
        if line.trim_start().starts_with("//") {
            return 0;
        }
        CLOCK_CALLS.iter().map(|call| line.matches(call).count()).sum()
    })
}

/// Sums `per_line` over the non-test lines of crate `name`.
fn sum_non_test(files: &[SourceFile], name: &str, per_line: impl Fn(&str) -> usize) -> usize {
    let prefix = format!("crates/{name}/src/");
    files
        .iter()
        .filter(|file| file.path.starts_with(&prefix))
        .map(|file| {
            let text = String::from_utf8_lossy(&file.bytes);
            text.lines()
                .take_while(|line| !line.trim_start().starts_with("#[cfg(test)]"))
                .map(&per_line)
                .sum::<usize>()
        })
        .sum()
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures", ".claude"];

/// Collects workspace-relative paths of every `.rs` file under `root`,
/// sorted for deterministic output.
///
/// # Errors
///
/// Propagates directory-read failures with the offending path.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();
    Ok(files)
}

fn walk(root: &Path, dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    let entries = fs::read_dir(dir)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry?;
        let path = entry.path();
        let file_type = entry.file_type()?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if file_type.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, files)?;
        } else if file_type.is_file() && name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            files.push(rel.to_path_buf());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{clock_sites, non_test_lines};
    use crate::SourceFile;

    #[test]
    fn counts_lines_above_the_first_test_module_per_crate() {
        let file = |path: &str, text: &str| SourceFile::parse(path, text.as_bytes().to_vec());
        let files = [
            file("crates/cas/src/a.rs", "fn a() {}\n\n#[cfg(test)]\nmod tests {}\n"),
            file("crates/cas/src/b.rs", "// #[cfg(test)] in a comment\nfn b() {}\n"),
            file("crates/cas/tests/c.rs", "fn c() {}\n"),
            file("crates/net/src/d.rs", "#[cfg(test)]\nmod tests {}\n"),
        ];
        assert_eq!(non_test_lines(&files, "cas"), 4);
        assert_eq!(non_test_lines(&files, "net"), 0);
        assert_eq!(non_test_lines(&files, "fs"), 0);
    }

    #[test]
    fn counts_clock_calls_on_non_test_code_lines_only() {
        let file = |path: &str, text: &str| SourceFile::parse(path, text.as_bytes().to_vec());
        let files = [
            file(
                "crates/cas/src/a.rs",
                "let t = Instant::now(); std::thread::sleep(d);\n\
                 // Instant::now() in a comment\n\
                 /// SystemTime::now() in a doc comment\n\
                 let w = SystemTime::now();\n\
                 #[cfg(test)]\n\
                 mod tests { fn t() { Instant::now(); } }\n",
            ),
            file("crates/cas/tests/b.rs", "Instant::now();\n"),
            file("crates/net/src/c.rs", "fn c() {}\n"),
        ];
        assert_eq!(clock_sites(&files, "cas"), 3);
        assert_eq!(clock_sites(&files, "net"), 0);
    }
}
