//! Ladder rungs: each layer priced on its own, once per traced run,
//! with the figure the project's CHANGES.md (or the paper) quotes
//! printed beside the measured one instead of trusted.

use crate::stats::median;
use crate::world::{World, FLUSH_MICROS};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sinclave::journal_record::JournalRecord;
use sinclave::verifier::SingletonIssuer;
use sinclave::{AttestationToken, InstancePage};
use sinclave_cas::store::CasStore;
use sinclave_cas::{CasServer, JournalMode};
use sinclave_crypto::aead::{self, AeadKey, Nonce};
use sinclave_crypto::sha256;
use sinclave_fs::Volume;
use sinclave_sgx::measurement::Measurement;
use sinclave_sgx::verify_cache::VerifyCache;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One rung: the measured value and what the project claims for it.
pub struct Rung {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub quoted: &'static str,
}

/// Median over `samples` of the per-call time of `batch` calls, in µs.
fn median_us(samples: usize, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    f(0); // warm
    let times: Vec<f64> = (0..samples)
        .map(|s| {
            let start = Instant::now();
            for b in 0..batch {
                f(s * batch + b);
            }
            start.elapsed().as_secs_f64() * 1e6 / batch as f64
        })
        .collect();
    median(&times)
}

/// Redemptions per timing round of the group-commit rung.
const REDEEMS_PER_ROUND: usize = 8_000;
/// Concurrent redeemers of the group-commit rung: the count the quoted
/// figure was measured with, so the two compare.
const REDEEMERS: usize = 32;

/// Runs every rung against the world's keys and package.
pub fn run(world: &World, seed: u64) -> Vec<Rung> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x001a_dde5);
    let mut mib = vec![0u8; 1 << 20];
    rng.fill_bytes(&mut mib);
    let message = sha256::digest(&mib[..64]);
    let signer = &world.signer_key;
    let signature = signer.sign_digest(&message).expect("sign");
    let aead_key = AeadKey::new([0x5a; 32]);
    let sigstruct = &world.packaged.signed.common_sigstruct;
    let page = InstancePage::new(AttestationToken([7; 32]), world.primary.identity());
    let cache = VerifyCache::new();
    sigstruct.verify_cached(&cache).expect("admit");
    let issuer = SingletonIssuer::new(signer.clone(), world.primary.identity());
    let signed = &world.packaged.signed;

    let mut rungs = vec![
        Rung {
            name: "crypto.sha256_1mib_us",
            value: median_us(15, 1, |_| {
                black_box(sha256::digest(black_box(&mib)));
            }),
            unit: "us",
            quoted: "~5x faster with SHA-NI than portable (CHANGES.md)",
        },
        Rung {
            name: "crypto.rsa3072_sign_us",
            value: median_us(9, 1, |_| {
                black_box(signer.sign_digest(black_box(&message)).expect("sign"));
            }),
            unit: "us",
            quoted: "on-demand SigStruct signing 4.93 ms (paper Fig. 7c)",
        },
        Rung {
            name: "crypto.rsa3072_verify_us",
            value: median_us(21, 4, |_| {
                signer.public_key().verify_digest(&message, &signature).expect("verify");
            }),
            unit: "us",
            quoted: "SigStruct verification ~0.4 ms (paper Fig. 7c)",
        },
        Rung {
            name: "crypto.aead_4kib_us",
            value: median_us(21, 64, |i| {
                black_box(aead::seal(&aead_key, Nonce::from_parts(0, i as u64), b"", &mib[..4096]));
            }),
            unit: "us",
            quoted: "none",
        },
        Rung {
            name: "sgx.singleton_measurement_us",
            value: median_us(21, 4, |_| {
                black_box(signed.base_hash.singleton_measurement(&page).expect("measure"));
            }),
            unit: "us",
            quoted: "expected-measurement calculation 32 us (paper Fig. 7c)",
        },
        Rung {
            name: "sgx.verify_cold_us",
            value: median_us(21, 2, |_| sigstruct.verify().expect("verify")),
            unit: "us",
            quoted: "cold verify 136 us (CHANGES.md, verify-cache ablation)",
        },
        Rung {
            name: "sgx.verify_warm_us",
            value: median_us(21, 1000, |_| sigstruct.verify_cached(&cache).expect("verify")),
            unit: "us",
            quoted: "warm verify 0.86 us (CHANGES.md, verify-cache ablation)",
        },
        Rung {
            name: "core.issue_us",
            value: median_us(9, 1, |_| {
                black_box(
                    issuer
                        .issue(&mut rng, &signed.common_sigstruct, &signed.base_hash)
                        .expect("issue"),
                );
            }),
            unit: "us",
            quoted: "repeat grant 3.60 ms in a warm process (CHANGES.md, warm-restart ablation)",
        },
        Rung {
            name: "cas.restore_us",
            value: restore_us(world, seed),
            unit: "us",
            quoted: "restore-from-volume-image 5.2 us (CHANGES.md, warm-restart ablation)",
        },
    ];
    let redeem_us = redeem_us(world);
    rungs.push(Rung {
        name: "cas.redeem_token_us",
        value: redeem_us,
        unit: "us",
        quoted: "~9.7 us per redemption (the ~103k redeem/s below)",
    });
    rungs.push(Rung {
        name: "cas.redeem_ops_s",
        value: 1e6 / redeem_us,
        unit: "1/s",
        quoted: "~103k redeem/s group commit, 32 redeemers, 10 us flush (CHANGES.md)",
    });
    rungs
}

fn fresh_server(world: &World) -> Arc<CasServer> {
    CasServer::new(
        world.channel_key.clone(),
        world.signer_key.clone(),
        world.attestation_root.clone(),
        CasStore::create(AeadKey::new([0x3c; 32])),
    )
}

/// Warm restart: reopen a snapshotted volume image and rebuild the
/// server (snapshot rehydration included).
fn restore_us(world: &World, seed: u64) -> f64 {
    let warm = fresh_server(world);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4e57);
    let signed = &world.packaged.signed;
    warm.issuer().issue(&mut rng, &signed.common_sigstruct, &signed.base_hash).expect("warm-up");
    warm.persist_state().expect("persist");
    let image = warm.store().volume().to_disk_image();
    let mut restored = Vec::new();
    let us = median_us(21, 1, |_| {
        let volume = Volume::from_disk_image(&image).expect("image");
        let store = CasStore::open(volume, AeadKey::new([0x3c; 32])).expect("open");
        restored.push(CasServer::new(
            world.channel_key.clone(),
            world.signer_key.clone(),
            world.attestation_root.clone(),
            store,
        ));
    });
    assert!(
        restored.iter().all(|s| s.issuer().verified_cache_len() == 1),
        "a restored server must come back warm"
    );
    us
}

/// Group commit under the modeled flush: [`REDEEMERS`] threads drain a
/// pool of registered tokens; the median round's wall time per
/// redemption.
fn redeem_us(world: &World) -> f64 {
    let cas = fresh_server(world);
    cas.store().set_flush_latency_micros(FLUSH_MICROS);
    cas.set_journal_mode(JournalMode::GroupCommit);
    let expected = Measurement(sha256::digest(b"singleton"));
    let common = Measurement(sha256::digest(b"common"));
    let mut minted = 0u64;
    let rounds: Vec<f64> = (0..3)
        .map(|_| {
            let tokens: Vec<AttestationToken> = (0..REDEEMS_PER_ROUND)
                .map(|_| {
                    minted += 1;
                    let mut bytes = [0u8; 32];
                    bytes[..8].copy_from_slice(&minted.to_le_bytes());
                    cas.issuer().apply_record(&JournalRecord::TokenGranted {
                        token: bytes,
                        expected: *expected.as_bytes(),
                        common: *common.as_bytes(),
                    });
                    AttestationToken(bytes)
                })
                .collect();
            let next = AtomicUsize::new(0);
            let start = Instant::now();
            std::thread::scope(|scope| {
                for _ in 0..REDEEMERS {
                    scope.spawn(|| {
                        while let Some(token) = tokens.get(next.fetch_add(1, Ordering::Relaxed)) {
                            cas.redeem_token(token, &expected).expect("redeem");
                        }
                    });
                }
            });
            start.elapsed().as_secs_f64() * 1e6 / REDEEMS_PER_ROUND as f64
        })
        .collect();
    cas.persist_state().expect("checkpoint");
    median(&rounds)
}
