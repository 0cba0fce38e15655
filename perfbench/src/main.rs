//! Command line of the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --rate <workload>=<ops/s> ...
//! perfbench --smoke
//! ```
//!
//! Human-readable notes go to stderr. Standard output ends with a
//! provenance line and then the result line: one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

use perfbench::bench::{self, nproc};
use perfbench::stats::{json_number, json_string, result_line};
use perfbench::Workload;
use sinclave_crypto::sha256::Backend;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// The benchmark's validity bound on `harness.gen_lag_p99_ms`.
const MAX_GEN_LAG_MS: f64 = 20.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rate: f64,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut rates: Vec<(String, f64)> = Vec::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => trace = value()? != "0",
            "--rate" => {
                let spec = value()?;
                let (name, rate) = spec.split_once('=').ok_or(format!("--rate {spec}"))?;
                let rate = rate.parse::<f64>().map_err(|e| format!("--rate {spec}: {e}"))?;
                rates.push((name.to_owned(), rate));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let rate = rates
        .iter()
        .find(|(name, _)| name == workload.name())
        .map(|(_, rate)| *rate)
        .filter(|rate| *rate > 0.0)
        .ok_or(format!("no positive --rate {}=<ops/s>", workload.name()))?;
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|s| *s > 0.0).ok_or("--seconds must be positive")?,
        trace,
        rate,
    })
}

/// `git describe` of the checkout, when it is one.
fn git_describe() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_owned())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--smoke") {
        return match perfbench::smoke() {
            Ok(()) => {
                eprintln!("perfbench: smoke passed on every workload");
                ExitCode::SUCCESS
            }
            Err(why) => {
                eprintln!("perfbench: smoke failed: {why}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    let cfg = bench::Config {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        rate: args.rate,
        setups: SETUPS,
    };
    let report = bench::run(&cfg, process_start);
    for note in &report.notes {
        eprintln!("perfbench: {note}");
    }
    for m in &report.metrics {
        eprintln!("perfbench: {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let valid = report.gen_lag_p99_ms <= MAX_GEN_LAG_MS;
    println!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"offered_rate\": {}, \"backend\": {}, \"nproc\": {}, \"git_describe\": {}, \"gen_lag_p99_ms\": {}, \"valid\": {valid}}}}}",
        json_string(args.workload.name()),
        args.seed,
        json_number(args.seconds),
        args.trace,
        json_number(args.rate),
        json_string(&format!("{:?}", Backend::detect())),
        nproc(),
        json_string(&git_describe()),
        json_number(report.gen_lag_p99_ms),
    );
    if !valid {
        eprintln!(
            "perfbench: INVALID RUN: generator lag p99 {:.3} ms exceeds {MAX_GEN_LAG_MS} ms; not a measurement",
            report.gen_lag_p99_ms
        );
        return ExitCode::from(3);
    }
    println!("{}", result_line(report.correct, report.attempted, report.failed, &report.metrics));
    ExitCode::SUCCESS
}
