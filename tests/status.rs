//! The operability plane, end to end: the plaintext status endpoint
//! and the `StatusRequest` opcode serve the same three views (health
//! verdict, counter dump, per-stage latency histograms); an injected
//! volume fault flips the verdict to Degraded and recovery flips it
//! back; a fenced server reports fail-closed and a startup probe
//! refuses to route to it; and [`CasServer::shutdown`] drains every
//! serving path — workers, reactor loops, the status listener,
//! replication sessions, follower pumps — then persists, so a clean
//! stop restarts from the snapshot with **zero** journal replay.
//!
//! [`CasServer::shutdown`]: sinclave_repro::cas::CasServer::shutdown

mod common;

use common::{World, CAS_ADDR, REPL_ADDR};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sinclave_repro::cas::policy::PolicyMode;
use sinclave_repro::cas::{follow, serve_replication, Health};
use sinclave_repro::core::protocol::Message;
use sinclave_repro::core::AttestationToken;
use sinclave_repro::net::{Backoff, SecureChannel};
use sinclave_repro::sgx::measurement::Measurement;
use sinclave_repro::sgx::sigstruct::SigStruct;
use std::time::{Duration, Instant};

fn world(seed: u64) -> World {
    World::new(
        seed,
        common::victim_interpreter(),
        common::user_config_with_secrets(),
        PolicyMode::Either,
    )
}

/// Polls `cond` until it holds or the suite-wide deadline expires.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Drives one grant over an already-serving CAS and returns the token
/// plus the predicted singleton measurement.
fn grant_via_wire(w: &World, conn_seed: u64) -> (AttestationToken, Measurement) {
    let conn = w.network.connect(CAS_ADDR).expect("connect");
    let mut rng = StdRng::seed_from_u64(conn_seed ^ 0x5eed);
    let mut chan = SecureChannel::client_connect(conn, &mut rng).expect("handshake");
    chan.send(
        &Message::GrantRequest {
            common_sigstruct: w.packaged.signed.common_sigstruct.to_bytes(),
            base_hash: w.packaged.signed.base_hash.encode().to_vec(),
        }
        .to_bytes(),
    )
    .expect("send grant");
    let reply = chan.recv().expect("recv grant");
    let Message::GrantResponse { token, sigstruct, .. } =
        Message::from_bytes(&reply).expect("decode")
    else {
        panic!("expected a grant");
    };
    let sigstruct = SigStruct::from_bytes(&sigstruct).expect("sigstruct");
    (token, sigstruct.body().enclave_hash)
}

/// Spawns a one-connection server, drives one grant, joins the server.
fn grant_over_network(w: &World, conn_seed: u64) -> (AttestationToken, Measurement) {
    let handle = w.serve_cas(1, conn_seed);
    let granted = grant_via_wire(w, conn_seed);
    handle.join().expect("serve");
    granted
}

/// Parses one stage's summary line out of the `histograms` view:
/// `(count, p50_ns, p95_ns, p99_ns, max_ns)`.
fn stage_summary(body: &str, stage: &str) -> (u64, u64, u64, u64, u64) {
    let prefix = format!("{stage} count=");
    let line = body
        .lines()
        .find(|line| line.starts_with(&prefix))
        .unwrap_or_else(|| panic!("no summary line for stage {stage} in:\n{body}"));
    let mut fields = line.split_whitespace().skip(1).map(|pair| {
        pair.split_once('=')
            .unwrap_or_else(|| panic!("malformed field {pair:?}"))
            .1
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("non-numeric field {pair:?}"))
    });
    let mut next = || fields.next().expect("five summary fields");
    (next(), next(), next(), next(), next())
}

#[test]
fn healthy_under_load_reports_all_three_views() {
    // The acceptance scenario: drive grants and a redemption, then
    // read all three views off the plaintext endpoint. The verdict is
    // Healthy, every counter that moved shows its true value, and all
    // five per-stage histograms are non-empty with ordered quantiles.
    let w = world(0x0b51);
    let status = w.serve_status(8);
    for conn_seed in 0..3 {
        grant_over_network(&w, 0x600 + conn_seed);
    }
    let (token, expected) = grant_over_network(&w, 0x610);
    w.cas.redeem_token(&token, &expected).expect("redeem");

    assert_eq!(w.probe_health(), Health::Healthy);

    let metrics = w.probe_view("metrics");
    assert!(
        metrics.contains("# TYPE cas_grants_issued counter\ncas_grants_issued 4\n"),
        "{metrics}"
    );
    assert!(metrics.contains("\ncas_tokens_redeemed 1\n"), "{metrics}");
    // Journal-before-ack means every grant and the redemption left an
    // appended record behind — the counter dump must agree.
    assert!(metrics.contains("\ncas_journal_appended 5\n"), "{metrics}");

    let histograms = w.probe_view("histograms");
    for stage in ["verify", "sign", "seal", "journal_flush", "request"] {
        let (count, p50, p95, p99, max) = stage_summary(&histograms, stage);
        assert!(count > 0, "stage {stage} recorded nothing:\n{histograms}");
        assert!(p50 <= p95 && p95 <= p99 && p99 <= max, "stage {stage} quantiles out of order");
        assert!(max > 0, "stage {stage} max is zero");
    }
    // Four grants each timed verify + sign once (cache hits included).
    assert_eq!(stage_summary(&histograms, "verify").0, 4);
    assert_eq!(stage_summary(&histograms, "sign").0, 4);

    // An unknown view answers an error frame, not a hang or a panic.
    assert_eq!(w.probe_view("bogus"), "error: unknown view\n");

    w.cas.shutdown().expect("shutdown");
    status.join().expect("status listener drains");
}

#[test]
fn persist_failure_flips_degraded_and_recovery_flips_back() {
    // A reactor-path server whose cadence checkpoint hits an injected
    // volume write failure must flip the health verdict to Degraded
    // (the checkpoint has no caller to report to), and a recovered
    // volume must flip it back to Healthy once a checkpoint succeeds
    // again.
    let w = world(0x0b52);
    w.cas.set_snapshot_cadence(1);
    let status = w.serve_status(4096);
    let reactor = w.serve_cas(3, 0x7ac7);

    // Fail file writes *before* dirtying state: journal appends still
    // work (grants keep committing), only whole-file snapshot writes
    // fail — impaired durability, not fail-closed.
    w.cas.store().set_file_write_failure(true);
    grant_via_wire(&w, 0x620);
    wait_for("degraded verdict after failed checkpoint", || w.probe_health() == Health::Degraded);
    // The failure is visible in the health view's signal lines too.
    assert!(w.probe_view("health").contains("status: degraded\n"));

    // Heal the volume: the next grant crosses the cadence again, its
    // checkpoint persists, and the consecutive-failure gauge resets.
    w.cas.store().set_file_write_failure(false);
    grant_via_wire(&w, 0x621);
    wait_for("healthy verdict after recovery", || w.probe_health() == Health::Healthy);

    w.cas.shutdown().expect("shutdown");
    reactor.join().expect("reactor drains");
    status.join().expect("status listener drains");
}

#[test]
fn clean_shutdown_drains_persists_and_restarts_without_replay() {
    // Satellite 3's observable: shutdown() drains in-flight serving,
    // then persists, so a restart from the resulting image restores
    // the snapshot and replays *zero* journal records — previously a
    // dropped server lost its dirty window to replay (or, before the
    // journal, entirely).
    let mut w = world(0x0b53);
    let (token, expected) = grant_over_network(&w, 0x700);
    let (spent, spent_expected) = grant_over_network(&w, 0x701);
    w.cas.redeem_token(&spent, &spent_expected).expect("redeem");
    assert_eq!(w.cas.stats.snapshot().journal_appended, 3);

    w.cas.shutdown().expect("shutdown");
    let image = w.cas.store().volume().to_disk_image();
    w.rebuild_cas_from_image(&image);

    let stats = w.cas.stats.snapshot();
    assert_eq!(stats.journal_replayed, 0, "clean stop must not need journal replay");
    assert_eq!(stats.snapshot_restored, 1);
    assert_eq!(stats.snapshot_rejected, 0);
    assert_eq!(w.cas.issuer().outstanding_tokens(), 1);
    // Exactly-once held across the stop: spent stays spent, the
    // outstanding token redeems exactly once.
    assert!(w.cas.redeem_token(&spent, &spent_expected).is_err());
    w.cas.redeem_token(&token, &expected).expect("redeem survivor");
    assert!(w.cas.redeem_token(&token, &expected).is_err());
}

#[test]
fn status_opcode_answers_on_the_secure_channel() {
    // The same views ride the regular protocol for clients that
    // already hold a channel — one renderer, two transports.
    let w = world(0x0b54);
    let handle = w.serve_cas(1, 0x900);
    let conn = w.network.connect(CAS_ADDR).expect("connect");
    let mut rng = StdRng::seed_from_u64(0x55);
    let mut chan = SecureChannel::client_connect(conn, &mut rng).expect("handshake");

    chan.send(&Message::StatusRequest { view: "health".into() }.to_bytes()).expect("send");
    let Message::StatusResponse { body } =
        Message::from_bytes(&chan.recv().expect("recv")).expect("decode")
    else {
        panic!("expected a status response");
    };
    assert!(body.starts_with("status: healthy\n"), "{body}");

    chan.send(&Message::StatusRequest { view: "bogus".into() }.to_bytes()).expect("send");
    assert!(matches!(
        Message::from_bytes(&chan.recv().expect("recv")).expect("decode"),
        Message::Denied { .. }
    ));
    drop(chan);
    handle.join().expect("serve");
}

#[test]
fn fenced_server_fails_closed_and_startup_probe_refuses() {
    // The /healthz contract: a deployment controller checks the
    // verdict before routing traffic and must refuse a fail-closed
    // server — the fence refuses writes, so routing to it only
    // manufactures errors.
    let w = world(0x0b55);
    let status = w.serve_status(8);
    assert_eq!(w.startup_probe().expect("healthy server admits traffic"), Health::Healthy);

    assert!(w.cas.observe_fence(w.cas.fence() + 1), "higher fence deposes");
    assert_eq!(w.probe_health(), Health::FailClosed);
    let refusal = w.startup_probe().expect_err("must refuse a fail-closed server");
    assert!(refusal.contains("fenced: true\n"), "{refusal}");

    // Shutdown on a fenced ex-primary drains but does NOT persist —
    // it holds no authority to seal state.
    let persisted_before = w.cas.stats.snapshot().snapshot_persisted;
    w.cas.shutdown().expect("fenced shutdown");
    assert_eq!(w.cas.stats.snapshot().snapshot_persisted, persisted_before);
    status.join().expect("status listener drains");
}

#[test]
fn shutdown_drains_replication_sessions_and_follower_pumps() {
    // The fleet half of the drain contract: a primary's shutdown
    // retires its replication listener, and a follower's shutdown
    // raises its pump's stop flag so the subscription ends cleanly
    // (no reconnect storm against a drained primary).
    let w = world(0x0b56);
    // A commit before the follower subscribes, so adopting the
    // baseline is what brings the two journal sequences level.
    grant_over_network(&w, 0x71f);
    let follower = w.new_replica();
    let repl = serve_replication(&w.cas, &w.network, REPL_ADDR, 4, 0x11);
    let pump = follow(
        follower.clone(),
        w.network.clone(),
        REPL_ADDR.into(),
        0x12,
        Backoff::new(Duration::from_millis(2), Duration::from_millis(20)),
    );
    wait_for("baseline adoption", || follower.journal_sequence() == w.cas.journal_sequence());
    grant_over_network(&w, 0x720);
    wait_for("live replay", || follower.journal_sequence() == w.cas.journal_sequence());

    // Follower-side shutdown wakes the parked pump through its
    // registered wake handle: it exits and the handle joins promptly.
    follower.shutdown().expect("follower shutdown");
    wait_for("pump unsubscribed", || !follower.is_following());
    pump.stop();

    // Primary-side shutdown drains the replication accept loop (and
    // the subscriber session the pump left behind), then persists.
    w.cas.shutdown().expect("primary shutdown");
    repl.join().expect("replication listener drains");
    assert!(w.cas.stats.snapshot().snapshot_persisted >= 1);
}
