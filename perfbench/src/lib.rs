//! The repository benchmark: SinClave singleton starts, pipelined
//! control sessions and a forwarding fleet, driven through the stack's
//! public API, with a traced run that prices each layer. See NOTES.md.

pub mod bench;
pub mod ladder;
pub mod load;
pub mod ops;
pub mod stats;
pub mod world;

/// The traffic the benchmark can offer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Full SinClave starts of one packaged binary against the primary.
    SingletonStart,
    /// Control requests pipelined on two long-lived secure sessions.
    SessionPipeline,
    /// `SingletonStart` traffic sent to a follower that forwards writes.
    FleetStart,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::SingletonStart, Workload::SessionPipeline, Workload::FleetStart];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SingletonStart => "singleton-start",
            Workload::SessionPipeline => "session-pipeline",
            Workload::FleetStart => "fleet-start",
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Offered rates for the smoke run: low enough for any machine.
fn smoke_rate(workload: Workload) -> f64 {
    match workload {
        Workload::SingletonStart | Workload::FleetStart => 8.0,
        Workload::SessionPipeline => 1000.0,
    }
}

/// Runs every workload briefly, traced, and checks its outputs.
///
/// # Errors
///
/// Names the first workload whose run failed an op or a check.
pub fn smoke() -> Result<(), String> {
    for workload in Workload::ALL {
        let cfg = bench::Config {
            workload,
            seed: 1,
            seconds: 1.5,
            trace: true,
            rate: smoke_rate(workload),
            setups: 1,
        };
        let report = bench::run(&cfg, std::time::Instant::now());
        for note in &report.notes {
            eprintln!("{}: {note}", workload.name());
        }
        if !report.correct || report.failed != 0 || report.attempted == 0 {
            return Err(format!(
                "{}: correct={} attempted={} failed={}",
                workload.name(),
                report.correct,
                report.attempted,
                report.failed
            ));
        }
    }
    Ok(())
}
