//! CLI entry point.
//!
//! ```text
//! sinclave-analysis --workspace [--root <dir>] [--manifest <file>]
//! sinclave-analysis [--manifest <file>] <file.rs> [<file.rs>…]
//! ```
//!
//! Prints one `path:line: [SA00N/key] message` diagnostic per finding
//! and exits 1 when any unwaived finding remains, 2 on usage or I/O
//! errors. Waived findings are listed (with their count) so reviewers
//! see what the waiver budget is spent on. In `--workspace` mode the
//! summary line also reports the non-test lines and the clock sites of
//! the serving crates (see [`workspace::non_test_lines`] and
//! [`workspace::clock_sites`]).

#![forbid(unsafe_code)]

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use sinclave_analysis::{analyze, workspace, Config, LockManifest, SourceFile};

/// Manifest location relative to the workspace root.
const DEFAULT_MANIFEST: &str = "crates/analysis/lock-order.manifest";

struct Args {
    workspace: bool,
    root: PathBuf,
    manifest: Option<PathBuf>,
    files: Vec<PathBuf>,
    verbose: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        root: PathBuf::from("."),
        manifest: None,
        files: Vec::new(),
        verbose: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => args.workspace = true,
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            "--manifest" => {
                args.manifest = Some(PathBuf::from(it.next().ok_or("--manifest needs a file")?));
            }
            "--verbose" | "-v" => args.verbose = true,
            "--help" | "-h" => {
                return Err("usage: sinclave-analysis --workspace [--root <dir>] \
                            [--manifest <file>] | sinclave-analysis [--manifest <file>] \
                            <file.rs>…"
                    .to_owned());
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            other => args.files.push(PathBuf::from(other)),
        }
    }
    if !args.workspace && args.files.is_empty() {
        return Err("nothing to analyze: pass --workspace or explicit files".to_owned());
    }
    Ok(args)
}

fn load_manifest(args: &Args) -> Result<LockManifest, String> {
    let path = match &args.manifest {
        Some(p) => p.clone(),
        None => {
            let p = args.root.join(DEFAULT_MANIFEST);
            if !p.exists() {
                // File mode without a workspace manifest: lock-order
                // checking is simply inert.
                return Ok(LockManifest::default());
            }
            p
        }
    };
    let text = fs::read_to_string(&path)
        .map_err(|e| format!("cannot read manifest {}: {e}", path.display()))?;
    LockManifest::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_files(args: &Args) -> Result<Vec<SourceFile>, String> {
    let rel_paths: Vec<PathBuf> = if args.workspace {
        workspace::collect_rs_files(&args.root).map_err(|e| format!("walking workspace: {e}"))?
    } else {
        args.files.clone()
    };
    let mut files = Vec::with_capacity(rel_paths.len());
    for rel in rel_paths {
        let full = if args.workspace { args.root.join(&rel) } else { rel.clone() };
        let bytes = fs::read(&full).map_err(|e| format!("cannot read {}: {e}", full.display()))?;
        let label = rel.to_string_lossy().replace('\\', "/");
        files.push(SourceFile::parse(&label, bytes));
    }
    Ok(files)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let manifest = load_manifest(&args)?;
    let files = load_files(&args)?;
    let file_count = files.len();
    let config = Config { manifest };
    let analysis = analyze(&files, &config);
    for finding in &analysis.findings {
        println!("{finding}");
    }
    if args.verbose {
        for finding in &analysis.waived {
            println!("waived: {finding}");
        }
    }
    let mut summary = format!(
        "sinclave-analysis: {} finding(s), {} waived, {} file(s) checked",
        analysis.findings.len(),
        analysis.waived.len(),
        file_count
    );
    if args.workspace {
        let per_crate = |count: fn(&[SourceFile], &str) -> usize| {
            let counts: Vec<String> = workspace::TRACKED_CRATES
                .iter()
                .map(|name| format!("{name} {}", count(&files, name)))
                .collect();
            counts.join(", ")
        };
        summary.push_str(&format!("; non-test lines: {}", per_crate(workspace::non_test_lines)));
        summary.push_str(&format!("; clock sites: {}", per_crate(workspace::clock_sites)));
    }
    println!("{summary}");
    Ok(analysis.findings.is_empty())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("sinclave-analysis: {message}");
            ExitCode::from(2)
        }
    }
}
