//! Fleet-wide request tracing: causal propagation, the span flight
//! recorder, and per-hop latency attribution.
//!
//! The tentpole acceptance test drives a grant through a follower and
//! asserts ONE causal trace whose span tree shows follower admission →
//! forward → the primary's verify/sign/journal-flush → the sealed
//! reply, retrievable through the `trace` status view. Around it:
//! dark-by-default (zero recorder traffic), stage spans (the reactor's
//! queue leg included) nesting inside the end-to-end span,
//! tail-sampling pins for shed requests, and the operability
//! satellites (status views served from a follower and from a fenced
//! / promoted node without touching the journal, uptime + build info).

mod common;

use common::{World, CAS_ADDR, REPL_ADDR, STATUS_ADDR};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sinclave_repro::cas::{
    follow, serve_replication, serve_status, status_body, CasServer, CompletedTrace, ForwardLink,
    MiddlewareConfig, PinReason, RateLimitConfig, SpanOutcome,
};
use sinclave_repro::core::protocol::Message;
use sinclave_repro::net::{Backoff, Network, SecureChannel};
use std::time::{Duration, Instant};

/// Where followers serve their own clients in these tests.
const FOLLOWER_ADDR: &str = "cas-follower:443";
/// The follower's own status endpoint.
const FOLLOWER_STATUS_ADDR: &str = "cas-follower-status:9443";

fn world(seed: u64) -> World {
    World::new(
        seed,
        common::victim_interpreter(),
        common::user_config_with_secrets(),
        sinclave_repro::cas::policy::PolicyMode::Either,
    )
}

/// A quick reconnect cadence so fleet tests converge fast.
fn fast_backoff() -> Backoff {
    Backoff::new(Duration::from_millis(2), Duration::from_millis(20))
}

/// Polls `cond` until it holds or the suite-wide deadline expires.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Lights a server's tracer with keep-everything sampling.
fn light(server: &CasServer) {
    server.tracer().set_enabled(true);
    server.tracer().set_sample_every(1);
}

/// Drives one grant over a fresh secure channel against `addr`.
fn grant_attempt(w: &World, addr: &str, conn_seed: u64) -> Message {
    let conn = w.network.connect(addr).expect("connect");
    let mut rng = StdRng::seed_from_u64(conn_seed ^ 0x7ace);
    let mut chan = SecureChannel::client_connect(conn, &mut rng).expect("handshake");
    chan.send(
        &Message::GrantRequest {
            common_sigstruct: w.packaged.signed.common_sigstruct.to_bytes(),
            base_hash: w.packaged.signed.base_hash.encode().to_vec(),
        }
        .to_bytes(),
    )
    .expect("send");
    let reply = chan.recv().expect("recv");
    Message::from_bytes(&reply).expect("decode")
}

/// Every kept trace (pinned first, then sampled), newest first.
fn all_recent(server: &CasServer) -> Vec<CompletedTrace> {
    let recorder = server.tracer().recorder();
    let mut traces = recorder.recent_pinned(64);
    traces.extend(recorder.recent_sampled(64));
    traces
}

/// The most recent kept trace containing a `stage` span.
fn trace_with_stage(server: &CasServer, stage: &str) -> CompletedTrace {
    all_recent(server)
        .into_iter()
        .find(|t| t.spans().iter().any(|s| s.stage == stage))
        .unwrap_or_else(|| panic!("no recorded trace carries a `{stage}` span"))
}

/// One plaintext status probe against `addr`.
fn probe(network: &Network, addr: &str, view: &str) -> String {
    let conn = network.connect(addr).expect("status endpoint reachable");
    conn.send(view.as_bytes().to_vec()).expect("send view name");
    String::from_utf8(conn.recv().expect("status body")).expect("utf-8 status body")
}

#[test]
fn tracing_is_dark_by_default() {
    // An unconfigured server must trace nothing: no recorder traffic,
    // no sampling decisions, and the `trace` view reports dark.
    let w = world(0x7a00);
    let serving = w.serve_cas(1, 0x7a01);
    let reply = grant_attempt(&w, CAS_ADDR, 1);
    serving.join().expect("serve");
    assert!(matches!(reply, Message::GrantResponse { .. }), "grant refused: {reply:?}");

    let stats = w.cas.tracer().recorder().stats();
    assert_eq!((stats.pinned, stats.sampled, stats.discarded, stats.dropped), (0, 0, 0, 0));
    let status = w.serve_status(1);
    let view = w.probe_view("trace");
    assert!(view.contains("tracing: dark"), "trace view:\n{view}");
    status.join().expect("status");
}

#[test]
fn traced_grant_on_worker_path_records_stage_spans() {
    let w = world(0x7a10);
    light(&w.cas);
    let serving = w.serve_cas(1, 0x7a11);
    let reply = grant_attempt(&w, CAS_ADDR, 2);
    serving.join().expect("serve");
    assert!(matches!(reply, Message::GrantResponse { .. }), "grant refused: {reply:?}");

    let trace = trace_with_stage(&w.cas, "verify");
    for stage in ["request", "admission", "verify", "sign", "journal_flush", "seal"] {
        assert!(
            trace.spans().iter().any(|s| s.stage == stage && s.outcome == SpanOutcome::Ok),
            "missing ok `{stage}` span: {:?}",
            trace.spans()
        );
    }
    // Every stage span nests inside the synthesized end-to-end span.
    for span in trace.spans() {
        assert!(span.start_ns >= trace.begin_ns, "span {} starts before the trace", span.stage);
        assert!(span.end_ns <= trace.end_ns, "span {} ends after the trace", span.stage);
        assert_eq!(span.hop, 0, "single-node trace grew a remote hop");
    }
}

#[test]
fn traced_grant_on_reactor_path_records_queue_span() {
    let w = world(0x7a20);
    light(&w.cas);
    let serving = w.cas.serve_reactor_with(&w.network, CAS_ADDR, 1, 0x7a21, 2, 2);
    let reply = grant_attempt(&w, CAS_ADDR, 3);
    serving.join().expect("serve");
    assert!(matches!(reply, Message::GrantResponse { .. }), "grant refused: {reply:?}");

    let trace = trace_with_stage(&w.cas, "verify");
    for stage in ["request", "admission", "queue", "verify", "sign", "seal"] {
        assert!(
            trace.spans().iter().any(|s| s.stage == stage),
            "missing `{stage}` span on the reactor path: {:?}",
            trace.spans()
        );
    }
    // Every stage span nests inside the synthesized end-to-end span.
    for span in trace.spans() {
        assert!(span.start_ns >= trace.begin_ns, "span {} starts before the trace", span.stage);
        assert!(span.end_ns <= trace.end_ns, "span {} ends after the trace", span.stage);
        assert_eq!(span.hop, 0, "single-node trace grew a remote hop");
    }
}

#[test]
fn follower_forwarded_write_produces_one_causal_trace() {
    // The tentpole acceptance test: a client's grant lands at a
    // follower, forwards to the primary, commits there, and the
    // follower's ONE trace shows the whole causal chain with per-hop
    // attribution — follower admission and forward at hop 0, the
    // primary's verify/sign/journal-flush absorbed at hop 1 and
    // nested inside the forward span, the sealed reply back at hop 0.
    let w = world(0x7a30);
    light(&w.cas);
    let _repl = serve_replication(&w.cas, &w.network, REPL_ADDR, 8, 0x7a31);
    let follower = w.new_replica();
    light(&follower);
    let pin = w.channel_key.public_key().fingerprint();
    follower.set_forward_link(Some(ForwardLink::new(w.network.clone(), REPL_ADDR, pin, 0x7a32)));
    let pump =
        follow(follower.clone(), w.network.clone(), REPL_ADDR.into(), 0x7a33, fast_backoff());
    wait_for("baseline", || follower.journal_sequence() == w.cas.journal_sequence());

    let serving = follower.serve_reactor(&w.network, FOLLOWER_ADDR, 1, 0x7a34);
    let reply = grant_attempt(&w, FOLLOWER_ADDR, 4);
    serving.join().expect("serve");
    assert!(matches!(reply, Message::GrantResponse { .. }), "forwarded grant refused: {reply:?}");

    let trace = trace_with_stage(&follower, "forward");
    // Local legs at hop 0.
    for stage in ["request", "admission", "forward", "seal"] {
        assert!(
            trace.spans().iter().any(|s| s.stage == stage && s.hop == 0),
            "missing hop-0 `{stage}` span: {:?}",
            trace.spans()
        );
    }
    // The primary's legs, absorbed at hop 1.
    for stage in ["request", "verify", "sign", "journal_flush"] {
        assert!(
            trace.spans().iter().any(|s| s.stage == stage && s.hop == 1),
            "missing hop-1 `{stage}` span: {:?}",
            trace.spans()
        );
    }
    // Plausible nesting: every remote span sits inside the forward
    // span's interval after rebasing.
    let forward =
        trace.spans().iter().find(|s| s.stage == "forward").copied().expect("forward span");
    for span in trace.spans().iter().filter(|s| s.hop == 1) {
        assert!(
            span.start_ns >= forward.start_ns && span.end_ns <= forward.end_ns,
            "hop-1 span {} [{}, {}] escapes the forward span [{}, {}]",
            span.stage,
            span.start_ns,
            span.end_ns,
            forward.start_ns,
            forward.end_ns
        );
    }
    // One causal id end to end: the primary kept the same trace.
    assert!(
        all_recent(&w.cas).iter().any(|t| t.trace_id == trace.trace_id),
        "primary recorded no trace with the follower's id {}",
        trace.id_hex()
    );

    // And the span tree is retrievable through the `trace` view.
    let status = serve_status(&follower, &w.network, FOLLOWER_STATUS_ADDR, 1);
    let view = probe(&w.network, FOLLOWER_STATUS_ADDR, "trace");
    assert!(view.contains(&trace.id_hex()), "trace id missing from view:\n{view}");
    assert!(view.contains("forward hop=0"), "no forward leg in view:\n{view}");
    assert!(view.contains("verify hop=1"), "no remote verify leg in view:\n{view}");
    // The follower's stream gauges ride along.
    assert!(view.contains("replication: applied_seq="), "no lag gauge in view:\n{view}");
    status.join().expect("status");
    pump.stop();
}

#[test]
fn shed_requests_are_pinned_even_with_sampling_off() {
    // Tail sampling: with the healthy sampler off entirely, a
    // rate-limited request still lands in the pinned ring, tagged
    // shed, with the refusing stage span marked refused.
    let w = world(0x7a40);
    w.cas.set_middleware(MiddlewareConfig {
        rate_limit: Some(RateLimitConfig { burst: 1, per_second: 1 }),
        ..MiddlewareConfig::default()
    });
    w.cas.tracer().set_enabled(true);
    w.cas.tracer().set_sample_every(0);

    // The burst budget admits the first grant; the identical retry
    // right behind it is shed at admission.
    let serving = w.serve_cas(2, 0x7a41);
    let first = grant_attempt(&w, CAS_ADDR, 8);
    let second = grant_attempt(&w, CAS_ADDR, 9);
    serving.join().expect("serve");
    assert!(matches!(first, Message::GrantResponse { .. }), "first grant refused: {first:?}");
    assert!(matches!(second, Message::Denied { .. }), "second grant not shed: {second:?}");

    let stats = w.cas.tracer().recorder().stats();
    assert_eq!(stats.pinned, 1, "refusal not pinned: {stats:?}");
    assert_eq!(stats.sampled, 0, "sampler kept a healthy trace at rate 0");
    assert!(stats.discarded >= 1, "healthy grant not discarded: {stats:?}");
    let pinned = &w.cas.tracer().recorder().recent_pinned(4)[0];
    assert_eq!(pinned.reason, PinReason::Shed);
    assert!(
        pinned.spans().iter().any(|s| s.stage == "rate_limit" && s.outcome == SpanOutcome::Refused),
        "no refused rate_limit span: {:?}",
        pinned.spans()
    );
}

#[test]
fn health_and_metrics_report_uptime_and_build() {
    // Satellite: operators must see what is running and for how long.
    let w = world(0x7a60);
    let status = w.serve_status(2);
    let health = w.probe_view("health");
    assert!(health.contains("build: 0.1.0"), "no build line in health view:\n{health}");
    assert!(health.contains("uptime_seconds: "), "no uptime in health view:\n{health}");
    let metrics = w.probe_view("metrics");
    assert!(metrics.contains("cas_uptime_seconds "), "no uptime gauge:\n{metrics}");
    assert!(metrics.contains("cas_build_info{build=\"0.1.0"), "no build gauge:\n{metrics}");
    status.join().expect("status");
}

#[test]
fn status_views_serve_from_follower_and_fenced_then_promoted_nodes() {
    // Satellite: the operability plane must answer on every fleet
    // role — a live follower, a fenced (deposed) primary, and the
    // promoted follower — over BOTH transports, and rendering the
    // trace/histograms views must never touch the journal.
    let w = world(0x7a70);
    light(&w.cas);
    let _repl = serve_replication(&w.cas, &w.network, REPL_ADDR, 8, 0x7a71);
    let follower = w.new_replica();
    light(&follower);
    let pump =
        follow(follower.clone(), w.network.clone(), REPL_ADDR.into(), 0x7a72, fast_backoff());

    // Commit one real write so the fleet has state to gauge.
    let serving = w.serve_cas(1, 0x7a73);
    let reply = grant_attempt(&w, CAS_ADDR, 7);
    serving.join().expect("serve");
    assert!(matches!(reply, Message::GrantResponse { .. }), "grant refused: {reply:?}");
    wait_for("grant streams to follower", || follower.journal_sequence() == 1);

    // Views from the live follower, over the plaintext listener.
    let views = ["health", "metrics", "histograms", "trace"];
    let follower_status = serve_status(&follower, &w.network, FOLLOWER_STATUS_ADDR, views.len());
    let before = follower.journal_sequence();
    for view in views {
        let body = probe(&w.network, FOLLOWER_STATUS_ADDR, view);
        assert!(!body.is_empty(), "follower served empty `{view}` view");
    }
    assert_eq!(follower.journal_sequence(), before, "a status view touched the journal");
    follower_status.join().expect("follower status");

    // Failover mid-flight: the follower is promoted, the old primary
    // observes the higher fence and fails closed.
    pump.stop();
    let fence = follower.promote().expect("promote");
    assert!(w.cas.observe_fence(fence), "old primary ignored the fence");
    assert!(w.cas.is_fenced());

    // The fenced node still answers every view (fail-closed verdict
    // included) without journal writes…
    let fenced_status = w.serve_status(views.len() + 1);
    let fenced_seq_before = w.cas.journal_sequence();
    for view in views {
        let body = probe(&w.network, STATUS_ADDR, view);
        assert!(!body.is_empty(), "fenced node served empty `{view}` view");
    }
    assert!(w.probe_view("health").contains("status: fail-closed"));
    assert_eq!(w.cas.journal_sequence(), fenced_seq_before, "a fenced view touched the journal");
    fenced_status.join().expect("fenced status");

    // …and the promoted follower answers the Status opcode on the
    // secure channel, views intact, journal untouched by rendering.
    let promoted_seq_before = follower.journal_sequence();
    let serving = follower.serve_reactor(&w.network, FOLLOWER_ADDR, 1, 0x7a74);
    let conn = w.network.connect(FOLLOWER_ADDR).expect("connect");
    let mut rng = StdRng::seed_from_u64(0x7a75);
    let mut chan = SecureChannel::client_connect(conn, &mut rng).expect("handshake");
    for view in views {
        chan.send(&Message::StatusRequest { view: view.into() }.to_bytes()).expect("send");
        let Message::StatusResponse { body } =
            Message::from_bytes(&chan.recv().expect("recv")).expect("decode")
        else {
            panic!("no status response for `{view}`");
        };
        assert!(!body.is_empty(), "promoted node served empty `{view}` view");
    }
    drop(chan);
    serving.join().expect("serve");
    assert_eq!(
        follower.journal_sequence(),
        promoted_seq_before,
        "a status opcode touched the promoted journal"
    );
}

#[test]
fn primary_trace_view_gauges_each_follower() {
    // A primary's `trace` view carries one replication-lag gauge line
    // per subscribed follower, straight from the hub's frontier.
    let w = world(0x7a80);
    let _repl = serve_replication(&w.cas, &w.network, REPL_ADDR, 8, 0x7a81);
    let follower = w.new_replica();
    let pump =
        follow(follower.clone(), w.network.clone(), REPL_ADDR.into(), 0x7a82, fast_backoff());
    wait_for("subscriber registers", || {
        status_body(&w.cas, "trace").expect("trace view").contains("follower 0: sent_seq=")
    });
    wait_for("follower catches up", || follower.journal_sequence() == w.cas.journal_sequence());
    let view = status_body(&w.cas, "trace").expect("trace view");
    assert!(view.contains("follower 0: sent_seq=0 lag=0"), "caught-up follower lags:\n{view}");
    pump.stop();
}
