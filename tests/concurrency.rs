//! Concurrent-correctness tests for the sharded CAS serving path:
//! exactly-once token redemption under races, parallel grant + attest
//! flows over the reactor, and cache/stat consistency when many
//! clients hit one CAS at once.

mod common;

use common::{World, CAS_ADDR, CONFIG_ID};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sinclave_repro::cas::policy::PolicyMode;
use sinclave_repro::core::layout::EnclaveLayout;
use sinclave_repro::core::signer::{sign_enclave, SignerConfig};
use sinclave_repro::core::verifier::SingletonIssuer;
use sinclave_repro::crypto::rsa::RsaPrivateKey;
use sinclave_repro::crypto::sha256::Digest;
use sinclave_repro::runtime::scone::StartOptions;
use sinclave_repro::runtime::ProgramImage;

fn issuer_with_enclave(
    seed: u64,
) -> (SingletonIssuer, sinclave_repro::core::signer::SignedEnclave) {
    let mut rng = StdRng::seed_from_u64(seed);
    let signer_key = RsaPrivateKey::generate(&mut rng, 1024).expect("keygen");
    let layout = EnclaveLayout::for_program(b"racing application", 2).expect("layout");
    let signed = sign_enclave(&layout, &signer_key, &SignerConfig::default()).expect("sign");
    (SingletonIssuer::new(signer_key, Digest([0x77; 32])), signed)
}

#[test]
fn racing_redeems_see_exactly_one_success() {
    let (issuer, signed) = issuer_with_enclave(1);
    let mut rng = StdRng::seed_from_u64(2);
    // Repeat the race a few times: a lost exactly-once guarantee is
    // probabilistic, one round could get lucky.
    for round in 0..8 {
        let grant =
            issuer.issue(&mut rng, &signed.common_sigstruct, &signed.base_hash).expect("grant");
        let threads = 8;
        let successes: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let grant = &grant;
                    let issuer = &issuer;
                    scope.spawn(move || {
                        usize::from(issuer.redeem(&grant.token, &grant.expected_mrenclave).is_ok())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("redeemer")).sum()
        });
        assert_eq!(successes, 1, "round {round}: token redeemed other than exactly once");
        assert_eq!(issuer.outstanding_tokens(), 0, "round {round}");
    }
}

#[test]
fn concurrent_grants_share_one_prepared_midstate() {
    let (issuer, signed) = issuer_with_enclave(3);
    let threads = 6;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let issuer = &issuer;
            let signed = &signed;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + t);
                for _ in 0..3 {
                    issuer
                        .issue(&mut rng, &signed.common_sigstruct, &signed.base_hash)
                        .expect("grant");
                }
            });
        }
    });
    // All 18 grants for the same binary share one warm midstate, and
    // every token is distinct and outstanding.
    assert_eq!(issuer.prepared_cache_len(), 1);
    assert_eq!(issuer.outstanding_tokens(), threads as usize * 3);
}

#[test]
fn parallel_batch_issue_against_racing_redeems_stays_consistent() {
    let (issuer, signed) = issuer_with_enclave(4);
    let mut rng = StdRng::seed_from_u64(5);
    let batch = issuer
        .issue_batch(&mut rng, &signed.common_sigstruct, &signed.base_hash, 6)
        .expect("batch");
    // Race two redeemers per grant across the whole batch.
    let successes: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = batch
            .iter()
            .flat_map(|grant| {
                let issuer = &issuer;
                (0..2).map(move |_| {
                    scope.spawn(move || {
                        usize::from(issuer.redeem(&grant.token, &grant.expected_mrenclave).is_ok())
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("redeemer")).sum()
    });
    assert_eq!(successes, batch.len(), "each grant redeems exactly once");
    assert_eq!(issuer.outstanding_tokens(), 0);
}

#[test]
fn parallel_attest_flows_over_the_reactor_keep_stats_consistent() {
    let image = ProgramImage::with_entry("svc", "print ok", 2).sinclave_aware();
    let world = World::new(40, image, common::user_config_with_secrets(), PolicyMode::Singleton);
    let runs = 4;
    // Each start_sinclave opens two connections (grant + attest); the
    // reactor serves them concurrently.
    let cas = world.serve_cas(2 * runs, 4000);
    let measurements = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..runs)
            .map(|i| {
                let world = &world;
                scope.spawn(move || {
                    let app = world
                        .host
                        .start_sinclave(
                            &world.packaged,
                            &StartOptions::new(CAS_ADDR, CONFIG_ID).with_seed(500 + i as u64),
                        )
                        .expect("singleton start");
                    assert_eq!(app.outcome.stdout, vec!["ok"]);
                    app.enclave.mrenclave()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("starter")).collect::<Vec<_>>()
    });
    cas.join().expect("cas");

    // Every singleton is unique, every counter consistent.
    let mut sorted = measurements.clone();
    sorted.sort_by_key(|m| *m.as_bytes());
    sorted.dedup();
    assert_eq!(sorted.len(), runs, "all singleton measurements distinct");
    assert_eq!(world.cas.stats.snapshot().grants_issued, runs as u64);
    assert_eq!(world.cas.stats.snapshot().configs_delivered, runs as u64);
    assert_eq!(world.cas.stats.snapshot().denials, 0);
    assert_eq!(world.cas.issuer().outstanding_tokens(), 0, "every issued token was redeemed");
}

#[test]
fn pipelined_requests_on_one_connection_reply_in_order() {
    use sinclave_repro::core::protocol::Message;
    use sinclave_repro::net::SecureChannel;
    use sinclave_repro::sgx::sigstruct::SigStruct;

    let image = ProgramImage::with_entry("svc", "print ok", 2).sinclave_aware();
    let world = World::new(50, image, common::user_config_with_secrets(), PolicyMode::Singleton);
    let cas = world.serve_cas(1, 5000);

    // Push a burst of requests before draining a single reply: the
    // reactor buffers the burst and dispatches one request at a time,
    // so the replies must come back strictly in request order — and
    // the grant replies must carry distinct, each-verifiable on-demand
    // SigStructs.
    let conn = world.network.connect(CAS_ADDR).expect("connect");
    let mut rng = StdRng::seed_from_u64(51);
    let mut chan = SecureChannel::client_connect(conn, &mut rng).expect("handshake");
    let burst = 6;
    for i in 0..burst {
        let request = if i % 2 == 0 {
            Message::GrantRequest {
                common_sigstruct: world.packaged.signed.common_sigstruct.to_bytes(),
                base_hash: world.packaged.signed.base_hash.encode().to_vec(),
            }
        } else {
            Message::Ping
        };
        chan.send(&request.to_bytes()).expect("send");
    }
    let mut mrenclaves = Vec::new();
    for i in 0..burst {
        let reply = Message::from_bytes(&chan.recv().expect("recv")).expect("decode");
        if i % 2 == 0 {
            let Message::GrantResponse { sigstruct, .. } = reply else {
                panic!("slot {i}: expected grant, got {reply:?}");
            };
            let parsed = SigStruct::from_bytes(&sigstruct).expect("sigstruct");
            parsed.verify().expect("on-demand sigstruct verifies");
            mrenclaves.push(*parsed.body().enclave_hash.as_bytes());
        } else {
            assert_eq!(reply, Message::Pong, "slot {i}: replies out of order");
        }
    }
    drop(chan);
    cas.join().expect("cas");

    mrenclaves.sort_unstable();
    mrenclaves.dedup();
    assert_eq!(mrenclaves.len(), burst / 2, "each grant individualized");
    assert_eq!(world.cas.stats.snapshot().grants_issued, (burst / 2) as u64);
    // One RSA verification of the common SigStruct served the burst.
    assert_eq!(world.cas.issuer().verified_cache_len(), 1);
    assert_eq!(world.cas.stats.snapshot().records_rejected, 0);
}

#[test]
fn concurrent_policy_reads_and_writes_stay_coherent() {
    use sinclave_repro::cas::store::CasStore;
    use sinclave_repro::crypto::aead::AeadKey;
    use sinclave_repro::sgx::measurement::Measurement;

    let store = CasStore::create(AeadKey::new([0x17; 32]));
    let policy = |id: String| sinclave_repro::cas::SessionPolicy {
        config_id: id,
        expected_common: Measurement(Digest([1; 32])),
        expected_mrsigner: Digest([2; 32]),
        min_isv_svn: 0,
        allow_debug: false,
        mode: PolicyMode::Either,
        config: sinclave_repro::core::AppConfig::default(),
    };
    store.put_policy(&policy("hot".into())).expect("seed policy");

    // Writers register fresh policies across shards while readers
    // hammer the hot entry; nothing tears and nothing is lost.
    std::thread::scope(|scope| {
        for w in 0..3u8 {
            let store = &store;
            let policy = &policy;
            scope.spawn(move || {
                for i in 0..10u8 {
                    store.put_policy(&policy(format!("svc-{w}-{i}"))).expect("register");
                }
            });
        }
        for _ in 0..3 {
            let store = &store;
            scope.spawn(move || {
                for _ in 0..200 {
                    let p = store.get_policy("hot").expect("hot policy present");
                    assert_eq!(p.config_id, "hot");
                }
            });
        }
    });
    // All 30 writes landed in the cache and in the durable volume.
    for w in 0..3u8 {
        for i in 0..10u8 {
            let id = format!("svc-{w}-{i}");
            assert_eq!(store.get_policy(&id).expect("cached").config_id, id);
        }
    }
    assert_eq!(store.list_policies().expect("volume list").len(), 31);
}
