//! Admission-control and reactor integration tests: high fan-in
//! serving, slow-loris resilience on many loops and on one, the wire
//! encoding of rate-limit/quota refusals, circuit-breaker shedding,
//! panic isolation, and the time-based snapshot tick.

mod common;

use common::{World, CAS_ADDR, CONFIG_ID};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sinclave_repro::attack::starvation::{quota_abuse, SlowLoris};
use sinclave_repro::cas::middleware::{BreakerConfig, MiddlewareConfig, RateLimitConfig};
use sinclave_repro::cas::policy::PolicyMode;
use sinclave_repro::core::protocol::Message;
use sinclave_repro::core::{AttestationToken, InstancePage};
use sinclave_repro::net::SecureChannel;
use sinclave_repro::runtime::scone::StartOptions;
use sinclave_repro::runtime::ProgramImage;
use sinclave_repro::sgx::PAGE_SIZE;
use std::time::{Duration, Instant};

fn world(seed: u64) -> World {
    let image = ProgramImage::with_entry("svc", "print ok", 2).sinclave_aware();
    World::new(seed, image, common::user_config_with_secrets(), PolicyMode::Singleton)
}

fn ping(world: &World, seed: u64, rounds: usize) {
    let conn = world.network.connect(CAS_ADDR).expect("connect");
    // Under high fan-in on few cores the server's debug-mode crypto
    // serializes; only the *server's* deadlines are under test, so
    // clients wait patiently.
    conn.set_recv_timeout(Some(Duration::from_secs(300)));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chan = SecureChannel::client_connect(conn, &mut rng).expect("handshake");
    for _ in 0..rounds {
        chan.send(&Message::Ping.to_bytes()).expect("send");
        let reply = Message::from_bytes(&chan.recv().expect("recv")).expect("decode");
        assert_eq!(reply, Message::Pong);
    }
}

#[test]
fn reactor_drives_a_thousand_concurrent_sessions() {
    let world = world(60);
    let clients = 1000;
    let cas = world.serve_cas(clients, 6000);
    std::thread::scope(|scope| {
        for i in 0..clients {
            let world = &world;
            scope.spawn(move || ping(world, 7000 + i as u64, 2));
        }
    });
    cas.join().expect("reactor");
    let stats = world.cas.stats.snapshot();
    assert_eq!(stats.denials, 0);
    assert_eq!(stats.connections_timed_out, 0);
    assert_eq!(stats.records_rejected, 0);
}

#[test]
fn slow_loris_on_reactor_is_reaped_and_healthy_clients_unaffected() {
    let world = world(61);
    world.cas.set_middleware(MiddlewareConfig {
        handshake_timeout: Some(Duration::from_millis(50)),
        idle_timeout: Some(Duration::from_millis(100)),
        ..MiddlewareConfig::default()
    });
    let (stalled, holders, healthy) = (16, 8, 8);
    let cas = world.serve_cas(stalled + holders + healthy, 6100);
    let loris = SlowLoris::launch(&world.network, CAS_ADDR, stalled, holders, 6200).expect("loris");
    assert_eq!(loris.stalled_count(), stalled);
    assert_eq!(loris.holder_count(), holders);

    // Healthy clients keep getting served while the loris holds
    // three-quarters of the server's connections hostage.
    let started = Instant::now();
    std::thread::scope(|scope| {
        for i in 0..healthy {
            let world = &world;
            scope.spawn(move || ping(world, 6300 + i as u64, 3));
        }
    });
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "healthy clients stalled behind the loris: {:?}",
        started.elapsed()
    );
    cas.join().expect("reactor");
    loris.release();

    // Every silent connection was reaped on deadline — and reaping is
    // a *timeout*, never confused with tampering.
    let stats = world.cas.stats.snapshot();
    assert_eq!(stats.connections_timed_out, (stalled + holders) as u64);
    assert_eq!(stats.records_rejected, 0);
    assert_eq!(stats.denials, 0);
}

#[test]
fn slow_loris_on_a_single_loop_times_out_instead_of_pinning_it() {
    let world = world(62);
    world.cas.set_middleware(MiddlewareConfig {
        handshake_timeout: Some(Duration::from_millis(50)),
        idle_timeout: Some(Duration::from_millis(100)),
        ..MiddlewareConfig::default()
    });
    // One event loop, one compute worker, two connections: the loris
    // dials first and stalls mid-handshake. Without the timeout its
    // connection slot would be held until shutdown; with it the slot
    // is reaped and the healthy client is served on the same loop.
    let cas = world.cas.serve_reactor_with(&world.network, CAS_ADDR, 2, 6400, 1, 1);
    let loris = SlowLoris::launch(&world.network, CAS_ADDR, 1, 0, 6500).expect("loris");
    ping(&world, 6600, 2);
    cas.join().expect("reactor");
    loris.release();
    let stats = world.cas.stats.snapshot();
    assert_eq!(stats.connections_timed_out, 1);
    assert_eq!(stats.records_rejected, 0);
}

#[test]
fn rate_limit_refusals_encode_over_the_wire() {
    let world = world(63);
    world.cas.set_middleware(MiddlewareConfig {
        rate_limit: Some(RateLimitConfig { burst: 2, per_second: 1 }),
        ..MiddlewareConfig::default()
    });
    let cas = world.serve_cas(1, 6700);
    let report = quota_abuse(&world.network, CAS_ADDR, CONFIG_ID, 6, 6800).expect("abuser");
    cas.join().expect("reactor");
    // The burst gets through to real dispatch; everything after is
    // refused by the token bucket with the documented reason string.
    assert_eq!(report.served, 2);
    assert_eq!(report.rate_limited, 4);
    assert_eq!(report.quota_denied, 0);
    assert_eq!(world.cas.stats.snapshot().requests_rate_limited, 4);
}

#[test]
fn quota_exhausts_an_identity() {
    let world = world(64);
    world.cas.set_middleware(MiddlewareConfig { quota: Some(3), ..MiddlewareConfig::default() });
    let cas = world.serve_cas(1, 6900);
    let report = quota_abuse(&world.network, CAS_ADDR, CONFIG_ID, 5, 7000).expect("abuser");
    cas.join().expect("reactor");
    assert_eq!(report.served, 3);
    assert_eq!(report.quota_denied, 2);
    assert_eq!(report.rate_limited, 0);
    assert_eq!(world.cas.stats.snapshot().requests_quota_denied, 2);
}

#[test]
fn open_breaker_sheds_journaling_requests_but_not_pings() {
    let world = world(65);
    world.cas.set_middleware(MiddlewareConfig {
        breaker: Some(BreakerConfig { failure_threshold: 1, cooldown: Duration::from_secs(3600) }),
        ..MiddlewareConfig::default()
    });
    // One failed volume append trips the breaker open.
    world.cas.middleware().record_commit(false);

    let cas = world.serve_cas(1, 7100);
    let conn = world.network.connect(CAS_ADDR).expect("connect");
    let mut rng = StdRng::seed_from_u64(7200);
    let mut chan = SecureChannel::client_connect(conn, &mut rng).expect("handshake");
    // A grant must append to the journal — shed while the breaker is
    // open, with the retryable reason.
    chan.send(
        &Message::GrantRequest {
            common_sigstruct: world.packaged.signed.common_sigstruct.to_bytes(),
            base_hash: world.packaged.signed.base_hash.encode().to_vec(),
        }
        .to_bytes(),
    )
    .expect("send");
    let reply = Message::from_bytes(&chan.recv().expect("recv")).expect("decode");
    assert!(
        matches!(&reply, Message::Denied { reason } if reason.starts_with("service overloaded")),
        "got {reply:?}"
    );
    // Pings touch no storage and keep flowing.
    chan.send(&Message::Ping.to_bytes()).expect("send");
    assert_eq!(Message::from_bytes(&chan.recv().expect("recv")).expect("decode"), Message::Pong);
    drop(chan);
    cas.join().expect("reactor");
    let stats = world.cas.stats.snapshot();
    assert_eq!(stats.requests_shed, 1);
    assert_eq!(stats.grants_issued, 0);
}

#[test]
fn grant_with_an_oversized_sigstruct_key_is_denied_as_malformed() {
    let world = world(68);
    let cas = world.serve_cas(1, 7800);
    // The genuine common SigStruct with its signer key swapped for one
    // whose modulus is 64 KB: the CAS decodes a grant's SigStruct on
    // the event loop, before admission, and building that key's
    // Montgomery context would hold the loop for ≈0.4 s.
    let genuine = world.packaged.signed.common_sigstruct.to_bytes();
    let field =
        |at: usize| 4 + u32::from_be_bytes(genuine[at..at + 4].try_into().unwrap()) as usize;
    let key_at = field(0);
    let signature_at = key_at + field(key_at);
    let mut modulus = vec![0u8; 64 * 1024];
    modulus[0] = 0x80;
    modulus[64 * 1024 - 1] = 1;
    let mut sigstruct = genuine[..key_at].to_vec();
    sigstruct.extend_from_slice(&(8 + modulus.len() as u32 + 3).to_be_bytes());
    sigstruct.extend_from_slice(&(modulus.len() as u32).to_be_bytes());
    sigstruct.extend_from_slice(&modulus);
    sigstruct.extend_from_slice(&3u32.to_be_bytes());
    sigstruct.extend_from_slice(&[1, 0, 1]);
    sigstruct.extend_from_slice(&genuine[signature_at..]);

    let outstanding = world.cas.issuer().outstanding_tokens();
    let conn = world.network.connect(CAS_ADDR).expect("connect");
    let mut rng = StdRng::seed_from_u64(7900);
    let mut chan = SecureChannel::client_connect(conn, &mut rng).expect("handshake");
    chan.send(
        &Message::GrantRequest {
            common_sigstruct: sigstruct,
            base_hash: world.packaged.signed.base_hash.encode().to_vec(),
        }
        .to_bytes(),
    )
    .expect("send");
    let reply = Message::from_bytes(&chan.recv().expect("recv")).expect("decode");
    assert_eq!(reply, Message::Denied { reason: "sigstruct malformed".into() });
    drop(chan);
    cas.join().expect("reactor");
    assert_eq!(world.cas.issuer().outstanding_tokens(), outstanding);
    assert_eq!(world.cas.stats.snapshot().grants_issued, 0);
}

#[test]
fn panic_isolation_contains_a_poisoned_dispatch() {
    let world = world(66);
    world
        .cas
        .set_middleware(MiddlewareConfig { isolate_panics: true, ..MiddlewareConfig::default() });
    let cas = world.serve_cas(2, 7300);

    // First connection trips the poisoned dispatch: the connection
    // dies, the serving thread survives.
    world.cas.set_dispatch_panic_for_tests();
    let conn = world.network.connect(CAS_ADDR).expect("connect");
    let mut rng = StdRng::seed_from_u64(7400);
    let mut chan = SecureChannel::client_connect(conn, &mut rng).expect("handshake");
    chan.send(&Message::Ping.to_bytes()).expect("send");
    assert!(chan.recv().is_err(), "poisoned dispatch must close the connection, not reply");
    drop(chan);

    // Second connection is served normally by the same threads.
    ping(&world, 7500, 2);
    cas.join().expect("serve");
    assert_eq!(world.cas.stats.snapshot().panics_isolated, 1);
}

#[test]
fn time_based_snapshot_tick_persists_while_idle() {
    let world = world(67);
    world.cas.set_snapshot_interval(Some(Duration::from_millis(50)));
    assert_eq!(world.cas.snapshot_interval(), Some(Duration::from_millis(50)));
    let cas = world.serve_cas(1, 7600);

    let conn = world.network.connect(CAS_ADDR).expect("connect");
    let mut rng = StdRng::seed_from_u64(7700);
    let mut chan = SecureChannel::client_connect(conn, &mut rng).expect("handshake");
    // Dirty the issuer state, then go idle: the event-count cadence
    // will never fire again, but the reactor's timer must.
    chan.send(
        &Message::GrantRequest {
            common_sigstruct: world.packaged.signed.common_sigstruct.to_bytes(),
            base_hash: world.packaged.signed.base_hash.encode().to_vec(),
        }
        .to_bytes(),
    )
    .expect("send");
    let reply = Message::from_bytes(&chan.recv().expect("recv")).expect("decode");
    assert!(matches!(reply, Message::GrantResponse { .. }), "got {reply:?}");
    std::thread::sleep(Duration::from_millis(250));
    drop(chan);
    cas.join().expect("reactor");

    assert!(
        world.cas.stats.snapshot().snapshot_persisted >= 1,
        "idle period never hit the snapshot tick"
    );
    // The persisted snapshot is the real, restorable article.
    let bytes = world.cas.store().restore_state().expect("read").expect("snapshot present");
    sinclave_repro::core::snapshot::IssuerSnapshot::from_bytes(&bytes).expect("parses");
}

#[test]
fn hardened_chain_grants_every_start_of_one_binary_its_own_token() {
    // Freshness: every start of a singleton gets its own token. The
    // grant requests of one binary are byte-identical (the common
    // SigStruct and base hash), so nothing on the serving path may
    // answer a later start from an earlier start's reply — that reply
    // carries a token the earlier start already redeemed.
    let world = world(69);
    world.cas.set_middleware(MiddlewareConfig::hardened());
    let runs = 3;
    let cas = world.serve_cas(2 * runs, 8800); // grant + attest per start
    let offset = world.packaged.signed.layout.instance_page_offset();
    let starts: Vec<Result<AttestationToken, String>> = (0..runs)
        .map(|i| {
            let opts = StartOptions::new(CAS_ADDR, CONFIG_ID).with_seed(8900 + i as u64);
            let app =
                world.host.start_sinclave(&world.packaged, &opts).map_err(|e| e.to_string())?;
            let page = app.enclave.read(offset, PAGE_SIZE).expect("instance page");
            let page = InstancePage::parse(&page.try_into().expect("page size"))
                .expect("parse")
                .expect("singleton page");
            Ok(page.token)
        })
        .collect();
    cas.join().expect("serve");

    let Ok(tokens) = starts.iter().cloned().collect::<Result<Vec<_>, _>>() else {
        panic!("every start must succeed: {starts:?}");
    };
    let distinct: std::collections::HashSet<_> = tokens.iter().collect();
    assert_eq!(distinct.len(), runs, "starts shared a token");
    let stats = world.cas.stats.snapshot();
    assert_eq!(stats.grants_issued, runs as u64);
    assert_eq!(stats.tokens_redeemed, runs as u64);
}
