//! One benchmark run: set-up (several times), the timed open- and
//! closed-loop phases, the post-drain output checks and, when traced,
//! the per-layer probes and ladder.

use crate::ladder;
use crate::load::{self, op_seed, ClosedLoop, OpenLoop};
use crate::ops;
use crate::stats::{
    counter_delta, median, metric, peak_rss_mb, reconcile, Metric, Samples, ServerDelta,
    ServerPoint, StageDelta,
};
use crate::world::{wait_until, World, FOLLOWER_ADDR, PIPELINE_SESSIONS};
use crate::Workload;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sinclave_net::SecureChannel;
use std::time::{Duration, Instant};

/// Open/closed cycles per run.
const CYCLES: usize = 4;
/// Share of each cycle the open loop gets; the closed loop takes the
/// rest.
const OPEN_SHARE: f64 = 0.75;
/// Where the traced run's probes reach the serving node: a reactor of
/// their own, so they never queue behind workload traffic.
const PROBE_ADDR: &str = "cas-probe:443";
const PROBE_HANDSHAKES: usize = 40;
const PROBE_PINGS: usize = 400;
const PROBE_STARTS: usize = 16;

/// What one run is asked to do.
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Offered open-loop rate in ops per second.
    pub rate: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

/// What one run measured.
pub struct Report {
    /// Every output check held.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics (untraced) or the per-layer ones (traced).
    pub metrics: Vec<Metric>,
    /// How late the generator sent, p99 in ms (the validity check).
    pub gen_lag_p99_ms: f64,
    /// Human-readable lines: reconciliation, ladder, checks.
    pub notes: Vec<String>,
}

/// `nproc`, the cap on generator threads.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Stage histograms and counters of every node at one instant.
struct Points {
    primary: ServerPoint,
    follower: Option<ServerPoint>,
}

impl Points {
    fn read(world: &World) -> Points {
        Points {
            primary: ServerPoint::read(&world.primary),
            follower: world.fleet.as_ref().map(|f| ServerPoint::read(&f.follower)),
        }
    }
}

/// Growth between two [`Points`]: stages summed over the nodes that ran
/// them, request time from the node clients talk to.
struct Growth {
    stages: ServerDelta,
    request: StageDelta,
    primary: ServerDelta,
}

impl Growth {
    fn between(a: &Points, b: &Points) -> Growth {
        let primary = ServerDelta::between(&a.primary, &b.primary);
        match (&a.follower, &b.follower) {
            (Some(fa), Some(fb)) => {
                let follower = ServerDelta::between(fa, fb);
                Growth { stages: primary.plus(follower), request: follower.request, primary }
            }
            _ => Growth { stages: primary, request: primary.request, primary },
        }
    }

    /// Counter growth summed over the nodes.
    fn counter(a: &Points, b: &Points, name: &str) -> u64 {
        let follower = match (&a.follower, &b.follower) {
            (Some(fa), Some(fb)) => counter_delta(&fa.stats, &fb.stats, name),
            _ => 0,
        };
        counter_delta(&a.primary.stats, &b.primary.stats, name) + follower
    }
}

/// Runs one workload as configured.
#[must_use]
pub fn run(cfg: &Config, process_start: Instant) -> Report {
    let clients = nproc();
    let mut setups = Vec::with_capacity(cfg.setups);
    let mut world: Option<World> = None;
    for rep in 0..cfg.setups.max(1) {
        if let Some(previous) = world.take() {
            previous.shutdown();
        }
        let started = if rep == 0 { process_start } else { Instant::now() };
        world = Some(World::build(cfg.workload, op_seed(cfg.seed, 100, rep as u64)));
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut world = world.expect("at least one set-up");

    // Open and closed phases alternate, so both sample the whole run
    // rather than one stretch of a host whose speed drifts.
    let cycle = cfg.seconds / CYCLES as f64;
    let open_for = Duration::from_secs_f64(cycle * OPEN_SHARE);
    let closed_for = Duration::from_secs_f64(cycle * (1.0 - OPEN_SHARE));
    let mut rng = StdRng::seed_from_u64(op_seed(cfg.seed, 200, 0));
    let mut sessions = std::mem::take(&mut world.sessions);
    // Every cycle's schedule, with room for per-session rounding.
    let planned = (cfg.rate * open_for.as_secs_f64() * 1.05) as usize * CYCLES + 64;
    let mut open = OpenLoop::with_capacity(planned);
    let mut closed = ClosedLoop::default();
    let mut open_elapsed = Duration::ZERO;
    let before = Points::read(&world);
    for c in 0..CYCLES as u64 {
        let seed = op_seed(cfg.seed, 201, c);
        let mut phase = match cfg.workload {
            Workload::SingletonStart | Workload::FleetStart => {
                let offsets = load::schedule(cfg.rate, open_for, &mut rng);
                load::open_starts(&world, &offsets, clients, seed, cfg.trace)
            }
            Workload::SessionPipeline => {
                let per_session = cfg.rate / PIPELINE_SESSIONS as f64;
                let offsets: Vec<Vec<Duration>> = (0..PIPELINE_SESSIONS)
                    .map(|_| load::schedule(per_session, open_for, &mut rng))
                    .collect();
                let kinds: Vec<Vec<bool>> = offsets
                    .iter()
                    .map(|o| o.iter().map(|_| rng.next_u64() % 2 == 0).collect())
                    .collect();
                load::open_sessions(&mut sessions, &offsets, &kinds, cfg.trace)
            }
        };
        phase.shift(open_for * c as u32);
        open_elapsed += phase.elapsed;
        open.merge(phase);
        closed.merge(match cfg.workload {
            Workload::SingletonStart | Workload::FleetStart => {
                load::closed_starts(&world, closed_for, clients, seed)
            }
            Workload::SessionPipeline => load::closed_sessions(&mut sessions, closed_for, seed),
        });
    }
    open.elapsed = open_elapsed;
    world.sessions = sessions;
    let after = Points::read(&world);

    let mut notes = vec![
        format!(
            "set-up times (s): {}",
            setups.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>().join(" ")
        ),
        format!(
            "open-loop p50 by quarter (ms): {}",
            open.quarter_p50_ms().iter().map(|v| format!("{v:.3}")).collect::<Vec<_>>().join(" ")
        ),
    ];
    let metrics = if cfg.trace {
        per_layer(&mut world, cfg, &open, &closed, &before, &after, &mut notes)
    } else {
        end_to_end(&setups, &open, &closed)
    };
    let violations = post_drain_checks(&world);
    let wrong = open.tally.wrong + closed.tally.wrong;
    notes.push(format!(
        "checks: {wrong} ops with wrong output; post-drain {}",
        if violations.is_empty() { "invariants hold".to_owned() } else { violations.join("; ") }
    ));
    world.shutdown();
    Report {
        correct: wrong == 0 && violations.is_empty(),
        attempted: open.tally.attempted + closed.tally.attempted,
        failed: open.tally.failed + open.tally.wrong + closed.tally.failed + closed.tally.wrong,
        metrics,
        gen_lag_p99_ms: open.lag.p99_ms(),
        notes,
    }
}

fn end_to_end(setups: &[f64], open: &OpenLoop, closed: &ClosedLoop) -> Vec<Metric> {
    // Read before the percentile copies below add to the high-water mark.
    let rss = peak_rss_mb();
    vec![
        metric("setup_s", median(setups), "s"),
        metric("latency_p50_ms", open.latency().p50_ms(), "ms"),
        metric(
            "throughput_ops_s",
            open.timeline.len() as f64 / open.elapsed.as_secs_f64().max(1e-9),
            "1/s",
        ),
        metric("peak_ops_s", closed.rate(), "1/s"),
        metric("peak_rss_mb", rss, "MB"),
    ]
}

/// After every op has completed: every grant was redeemed by exactly
/// one successful start, nothing is outstanding, and a follower has
/// replayed the primary's whole journal.
fn post_drain_checks(world: &World) -> Vec<String> {
    let mut violations = Vec::new();
    if let Some(fleet) = &world.fleet {
        let primary_seq = world.primary.journal_sequence();
        if wait_until(Duration::from_secs(5), || fleet.follower.journal_sequence() == primary_seq)
            .is_err()
        {
            violations.push(format!(
                "follower journal_sequence {} != primary {primary_seq}",
                fleet.follower.journal_sequence()
            ));
        }
    }
    let stats = world.primary.stats.snapshot();
    let starts = world.starts_ok.load(std::sync::atomic::Ordering::Relaxed);
    if stats.grants_issued != starts || stats.tokens_redeemed != starts {
        violations.push(format!(
            "grants_issued {} / tokens_redeemed {} / successful starts {starts} differ",
            stats.grants_issued, stats.tokens_redeemed
        ));
    }
    let outstanding = world.primary.issuer().outstanding_tokens();
    if outstanding != 0 {
        violations.push(format!("{outstanding} tokens outstanding after drain"));
    }
    violations
}

/// Per-op-type reconciliation rows from the probes.
struct Probes {
    connect: Samples,
    rtt: Samples,
    control: Growth,
    grant: Growth,
    attest: Growth,
}

/// Sequential probes on an otherwise idle serving node: handshakes,
/// lockstep pings on one session, then grants alone and their attests
/// alone, each bracketed by reads of the server's own views.
fn probe(world: &World, seed: u64) -> Probes {
    world.serve_extra(PROBE_ADDR, op_seed(seed, 300, 0));
    let mut rng = StdRng::seed_from_u64(op_seed(seed, 301, 0));
    let mut connect = Samples::default();
    for _ in 0..PROBE_HANDSHAKES {
        let conn = world.network.connect(PROBE_ADDR).expect("probe connect");
        let t = Instant::now();
        let chan = SecureChannel::client_connect(conn, &mut rng).expect("probe handshake");
        connect.push(t.elapsed());
        drop(chan);
    }

    let conn = world.network.connect(PROBE_ADDR).expect("probe connect");
    let mut chan = SecureChannel::client_connect(conn, &mut rng).expect("probe session");
    let mut rtt = Samples::default();
    let a = Points::read(world);
    for _ in 0..PROBE_PINGS {
        let t = Instant::now();
        ops::ping(&mut chan).expect("probe ping");
        rtt.push(t.elapsed());
    }
    let b = Points::read(world);
    drop(chan);
    let control = Growth::between(&a, &b);

    let a = Points::read(world);
    let grants: Vec<_> = (0..PROBE_STARTS)
        .map(|i| ops::request_grant(world, PROBE_ADDR, op_seed(seed, 302, i as u64)))
        .collect::<Result<_, _>>()
        .expect("probe grant");
    let b = Points::read(world);
    let grant = Growth::between(&a, &b);
    let enclaves: Vec<_> =
        grants.iter().map(|g| ops::build(world, g).expect("probe build")).collect();
    let a = Points::read(world);
    for (i, (grant, enclave)) in grants.iter().zip(enclaves).enumerate() {
        ops::resume(world, PROBE_ADDR, grant, enclave, op_seed(seed, 303, i as u64))
            .expect("probe attest");
    }
    let b = Points::read(world);
    Probes { connect, rtt, control, grant, attest: Growth::between(&a, &b) }
}

/// The replica layer's figures over an interval with a follower.
struct Replica {
    forwarded_per_op: f64,
    /// (follower request time − primary stage time) ÷ forwarded writes.
    hop_ms: f64,
    catchup_ms: f64,
    reconnects: f64,
}

fn replica_figures(world: &World, a: &Points, b: &Points, ops: usize) -> Replica {
    let growth = Growth::between(a, b);
    let forwarded = Growth::counter(a, b, "forwarded_writes") as f64;
    let primary_work = growth.primary.stage_sum_ns() - growth.primary.seal.sum_ns;
    Replica {
        forwarded_per_op: forwarded / ops.max(1) as f64,
        hop_ms: (growth.request.sum_ns - primary_work) / forwarded.max(1.0) / 1e6,
        catchup_ms: world.fleet.as_ref().map_or(0.0, |f| f.catchup.as_secs_f64() * 1e3),
        reconnects: Growth::counter(a, b, "replication_reconnects") as f64,
    }
}

#[allow(clippy::too_many_lines)]
fn per_layer(
    world: &mut World,
    cfg: &Config,
    open: &OpenLoop,
    closed: &ClosedLoop,
    before: &Points,
    after: &Points,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let growth = Growth::between(before, after);
    let ops = (open.timeline.len() as u64 + closed.completed).max(1) as usize;
    let count = |name: &str| Growth::counter(before, after, name) as f64;
    let span_p50 = |f: fn(&ops::StartSpans) -> Duration| {
        let mut s = Samples::default();
        open.spans.iter().for_each(|spans| s.push(f(spans)));
        s.p50_ms()
    };
    let (coverage, residual_us) = reconcile(&growth.stages, growth.request.sum_ns, ops);

    let probes = probe(world, cfg.seed);
    let rows = [
        ("grant", &probes.grant, PROBE_STARTS),
        ("attest", &probes.attest, PROBE_STARTS),
        ("control", &probes.control, PROBE_PINGS),
    ];
    let mut reconciled = Vec::new();
    notes.push(format!(
        "reconciliation (timed phase, {ops} ops): stage coverage {coverage:.3}, residual {:.3} ms/op",
        residual_us / 1e3
    ));
    for (kind, g, n) in rows {
        let (cov, res) = reconcile(&g.stages, g.request.sum_ns, n);
        notes.push(format!(
            "reconciliation {kind:>7}: {} requests, request {:.1} us, verify {:.1} sign {:.1} seal {:.1} journal_flush {:.1} us; coverage {cov:.3}, residual {res:.1} us/op",
            g.request.count,
            g.request.mean_us(),
            g.stages.verify.mean_us(),
            g.stages.sign.mean_us(),
            g.stages.seal.mean_us(),
            g.stages.journal_flush.mean_us(),
        ));
        reconciled.push((cov, res));
    }
    let transport_residual = probes.rtt.mean_ns() / 1e3 - probes.control.request.mean_us();

    let primary_flushes = growth.primary.journal_flush.count;
    let appended = counter_delta(&before.primary.stats, &after.primary.stats, "journal_appended");
    let replica = if world.fleet.is_some() {
        replica_figures(world, before, after, ops)
    } else {
        // No follower in this workload: price the replica layer with a
        // follower attached after the timed phase.
        world.attach_follower(op_seed(cfg.seed, 304, 0));
        let a = Points::read(world);
        for i in 0..PROBE_STARTS {
            ops::start_once(world, FOLLOWER_ADDR, op_seed(cfg.seed, 305, i as u64))
                .expect("probe start through the follower");
        }
        replica_figures(world, &a, &Points::read(world), PROBE_STARTS)
    };
    let issuer = world.primary.issuer();
    let traced = open.traced.p50_ms();
    let untraced = open.untraced.p50_ms();

    let mut metrics = vec![
        metric("runtime.request_grant_ms", span_p50(|s| s.request_grant), "ms"),
        metric("runtime.build_enclave_ms", span_p50(|s| s.build_enclave), "ms"),
        metric("runtime.resume_singleton_ms", span_p50(|s| s.resume_singleton), "ms"),
        metric("net.client_connect_ms", probes.connect.p50_ms(), "ms"),
        metric("net.roundtrip_us", probes.rtt.quantile_ns(0.5) / 1e3, "us"),
        metric("net.transport_residual_us", transport_residual, "us"),
        metric("cas.request_us", growth.request.mean_us(), "us"),
        metric("cas.verify_us", growth.stages.verify.mean_us(), "us"),
        metric("cas.sign_us", growth.stages.sign.mean_us(), "us"),
        metric("cas.seal_us", growth.stages.seal.mean_us(), "us"),
        metric("cas.journal_flush_us", growth.stages.journal_flush.mean_us(), "us"),
        metric("cas.stage_coverage", coverage, "frac"),
        metric("cas.residual_ms", residual_us / 1e3, "ms"),
        metric("cas.grant_stage_coverage", reconciled[0].0, "frac"),
        metric("cas.grant_residual_us", reconciled[0].1, "us"),
        metric("cas.attest_stage_coverage", reconciled[1].0, "frac"),
        metric("cas.attest_residual_us", reconciled[1].1, "us"),
        metric("cas.control_stage_coverage", reconciled[2].0, "frac"),
        metric("cas.control_residual_us", reconciled[2].1, "us"),
        metric("cas.denials", count("denials"), "count"),
        metric(
            "cas.refused",
            count("requests_rate_limited")
                + count("requests_quota_denied")
                + count("requests_shed"),
            "count",
        ),
        metric("cas.panics_isolated", count("panics_isolated"), "count"),
        metric("cas.timed_out", count("connections_timed_out"), "count"),
        metric("fs.journal_append_failed", count("journal_append_failed"), "count"),
        metric(
            "commit.records_per_flush",
            if primary_flushes == 0 { 0.0 } else { appended as f64 / primary_flushes as f64 },
            "count",
        ),
        metric("core.outstanding_tokens", issuer.outstanding_tokens() as f64, "count"),
        metric("core.verified_cache_len", issuer.verified_cache_len() as f64, "count"),
        metric("core.prepared_cache_len", issuer.prepared_cache_len() as f64, "count"),
        metric("replica.forwarded_per_op", replica.forwarded_per_op, "count"),
        metric("replica.hop_ms", replica.hop_ms, "ms"),
        metric("replica.catchup_ms", replica.catchup_ms, "ms"),
        metric("replica.reconnects", replica.reconnects, "count"),
        metric("harness.latency_p99_ms", open.blocked_p99_ms(), "ms"),
        metric("harness.gen_lag_p99_ms", open.lag.p99_ms(), "ms"),
        metric(
            "harness.trace_overhead_frac",
            if untraced > 0.0 { traced / untraced - 1.0 } else { 0.0 },
            "frac",
        ),
        metric(
            "harness.error_frac",
            (open.tally.failed + open.tally.wrong + closed.tally.failed + closed.tally.wrong)
                as f64
                / (open.tally.attempted + closed.tally.attempted).max(1) as f64,
            "frac",
        ),
    ];
    if !open.pipelined_rtt.is_empty() {
        notes.push(format!(
            "pipelined send->reply (traced requests): p50 {:.1} us, p99 {:.1} us",
            open.pipelined_rtt.quantile_ns(0.5) / 1e3,
            open.pipelined_rtt.quantile_ns(0.99) / 1e3
        ));
    }
    for rung in ladder::run(world, cfg.seed) {
        notes.push(format!(
            "ladder {:<30} measured {:>12.3} {:<4} | quoted: {}",
            rung.name, rung.value, rung.unit, rung.quoted
        ));
        metrics.push(metric(rung.name, rung.value, rung.unit));
    }
    metrics
}
