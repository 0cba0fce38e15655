//! Fig. 7c — "SinClave operation durations": the singleton page
//! retrieval round trip (paper: ≈26.3 ms total) split into its
//! components: connection open/close (3.74 ms), SigStruct verification
//! (0.4 ms), expected-measurement calculation (32 µs), on-demand
//! SigStruct signing (4.93 ms), plus CAS miscellaneous work — and,
//! beyond the paper, two sweeps: `fig7c/throughput` (aggregate grant
//! throughput as concurrent attesters pile onto one CAS, the reactor
//! at its default loop and compute-worker counts versus the paper's
//! strictly sequential instance — one loop, one worker) and
//! `fig7c/fan-in` (one CAS holding thousands of mostly-idle concurrent
//! sessions on the reactor's four threads, swept up to 10 000
//! connections).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sinclave::protocol::Message;
use sinclave_bench::BenchWorld;
use sinclave_cas::policy::PolicyMode;
use sinclave_cas::CasServer;
use sinclave_net::SecureChannel;
use sinclave_runtime::scone::PackagedApp;
use sinclave_runtime::ProgramImage;
use sinclave_sgx::verify_cache::VerifyCache;
use std::sync::atomic::{AtomicU64, Ordering};

fn bench_retrieval(c: &mut Criterion) {
    let world = BenchWorld::new(0x7c);
    let image = ProgramImage::interpreter("python-3.8", 8).sinclave_aware();
    let packaged = world.package(&image);
    world.add_policy("app", &packaged, PolicyMode::Singleton, Default::default());

    let mut group = c.benchmark_group("fig7c/retrieval");
    group.sample_size(20);

    // Component: connection establishment + teardown with a no-op
    // request ("O/C" in the paper).
    group.bench_function("connect-open-close", |b| {
        let cas = world.cas.clone();
        let _server = cas.serve_reactor(&world.network, "cas:7c-ping", 1_000_000, 1);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let conn = world.network.connect("cas:7c-ping").expect("connect");
            let mut rng = StdRng::seed_from_u64(i);
            let mut chan = SecureChannel::client_connect(conn, &mut rng).expect("handshake");
            chan.send(&Message::Ping.to_bytes()).expect("send");
            let reply = Message::from_bytes(&chan.recv().expect("recv")).expect("decode");
            assert_eq!(reply, Message::Pong);
        });
    });

    // Component: verify received SigStruct (paper: ≈0.4 ms of RSA
    // work per connection).
    group.bench_function("verify-common-sigstruct", |b| {
        b.iter(|| packaged.signed.common_sigstruct.verify().expect("valid"));
    });

    // Component, warm series: the same verification once the
    // (signer, evidence) pair is cached — a sharded lookup with a
    // constant-time compare, what every repeat binary pays.
    group.bench_function("verify-common-sigstruct-warm", |b| {
        let cache = VerifyCache::new();
        packaged.signed.common_sigstruct.verify_cached(&cache).expect("admit");
        b.iter(|| packaged.signed.common_sigstruct.verify_cached(&cache).expect("valid"));
    });

    // Component: expected singleton measurement from base hash.
    let page = sinclave::instance_page::InstancePage::new(
        sinclave::AttestationToken([9; 32]),
        world.cas.identity(),
    );
    group.bench_function("expected-measurement", |b| {
        b.iter(|| packaged.signed.base_hash.singleton_measurement(&page).expect("measure"));
    });

    // Component: the issuer's full grant (verify + token + measurement
    // + on-demand signing) without the network.
    group.bench_function("issue-grant-offline", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| {
            world
                .cas
                .issuer()
                .issue(&mut rng, &packaged.signed.common_sigstruct, &packaged.signed.base_hash)
                .expect("grant")
        });
    });

    // Total: the complete network round trip (what Fig. 7c sums to).
    group.bench_function("total-round-trip", |b| {
        let cas = world.cas.clone();
        let _server = cas.serve_reactor(&world.network, "cas:7c-grant", 1_000_000, 3);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let conn = world.network.connect("cas:7c-grant").expect("connect");
            let mut rng = StdRng::seed_from_u64(1000 + i);
            let mut chan = SecureChannel::client_connect(conn, &mut rng).expect("handshake");
            chan.send(
                &Message::GrantRequest {
                    common_sigstruct: packaged.signed.common_sigstruct.to_bytes(),
                    base_hash: packaged.signed.base_hash.encode().to_vec(),
                }
                .to_bytes(),
            )
            .expect("send");
            let reply = Message::from_bytes(&chan.recv().expect("recv")).expect("decode");
            assert!(matches!(reply, Message::GrantResponse { .. }));
        });
    });

    group.finish();
}

/// Grants completed per throughput measurement: enough round trips
/// that worker startup amortizes, small enough that `--test` smoke
/// runs stay quick, and divisible by every swept client count so the
/// served-connection budget always matches the offered load exactly.
const THROUGHPUT_GRANTS: usize = 32;

/// Runs `THROUGHPUT_GRANTS` full grant round trips against a CAS
/// reactor with `loops` event loops and `compute` compute workers,
/// with the load spread over `clients` concurrent client threads.
fn grant_burst(
    world: &BenchWorld,
    packaged: &PackagedApp,
    addr: &str,
    clients: usize,
    (loops, compute): (usize, usize),
    seed: u64,
) {
    assert_eq!(THROUGHPUT_GRANTS % clients, 0, "client count must divide the grant budget");
    let server =
        world.cas.serve_reactor_with(&world.network, addr, THROUGHPUT_GRANTS, seed, loops, compute);
    let per_client = THROUGHPUT_GRANTS / clients;
    std::thread::scope(|scope| {
        for client in 0..clients {
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (0x5eed << 8) ^ client as u64);
                for _ in 0..per_client {
                    let conn = world.network.connect(addr).expect("connect");
                    let mut chan =
                        SecureChannel::client_connect(conn, &mut rng).expect("handshake");
                    chan.send(
                        &Message::GrantRequest {
                            common_sigstruct: packaged.signed.common_sigstruct.to_bytes(),
                            base_hash: packaged.signed.base_hash.encode().to_vec(),
                        }
                        .to_bytes(),
                    )
                    .expect("send");
                    let reply = Message::from_bytes(&chan.recv().expect("recv")).expect("decode");
                    assert!(matches!(reply, Message::GrantResponse { .. }), "got {reply:?}");
                }
            });
        }
    });
    server.join().expect("server");
}

fn bench_throughput(c: &mut Criterion) {
    let world = BenchWorld::new(0x7d);
    let image = ProgramImage::interpreter("python-3.8", 8).sinclave_aware();
    let packaged = world.package(&image);

    let mut group = c.benchmark_group("fig7c/throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(THROUGHPUT_GRANTS as u64));
    let round = AtomicU64::new(0);

    // The paper's single CAS instance: strictly sequential serving
    // (one event loop, one compute worker), even with 8 attesters
    // requesting at once.
    group.bench_function("sequential-8-clients", |b| {
        b.iter(|| {
            let seed = round.fetch_add(1, Ordering::Relaxed);
            grant_burst(&world, &packaged, "cas:7c-tp-seq", 8, (1, 1), seed);
        });
    });

    // The reactor at its defaults under rising fan-in; throughput
    // should scale with client count until the compute pool saturates
    // the cores.
    let defaults = (CasServer::default_event_loops(), CasServer::default_workers());
    for clients in [1usize, 2, 4, 8, 16] {
        group.bench_function(format!("reactor-{clients}-clients"), |b| {
            b.iter(|| {
                let seed = 0x1_0000 + round.fetch_add(1, Ordering::Relaxed);
                let addr = format!("cas:7c-tp-{clients}");
                grant_burst(&world, &packaged, &addr, clients, defaults, seed);
            });
        });
    }
    group.finish();
}

fn bench_fan_in(c: &mut Criterion) {
    use sinclave_bench::fan_in_burst;
    use sinclave_cas::MiddlewareConfig;
    use std::time::Duration;

    let world = BenchWorld::new(0x7e);
    // Mostly-idle sessions are the scenario, not a fault — deadlines
    // stay generous so nothing is reaped mid-measurement.
    world.cas.set_middleware(MiddlewareConfig {
        handshake_timeout: Some(Duration::from_secs(600)),
        idle_timeout: Some(Duration::from_secs(600)),
        ..MiddlewareConfig::default()
    });

    let mut group = c.benchmark_group("fig7c/fan-in");
    group.measurement_time(Duration::from_millis(150));
    let round = AtomicU64::new(0);
    // (name, connections): two event loops and two compute workers
    // serve every connection.
    for (name, connections) in [("reactor-1k-4-threads", 1_000), ("reactor-10k-4-threads", 10_000)]
    {
        group.bench_function(name, |b| {
            b.iter(|| {
                let seed = 0xfa_0000 + round.fetch_add(1, Ordering::Relaxed);
                fan_in_burst(&world, "cas:7c-fan", connections, 1, 2, 2, seed);
            });
        });
    }
    group.finish();
}

criterion_group!(fig7c, bench_retrieval, bench_throughput, bench_fan_in);
criterion_main!(fig7c);
