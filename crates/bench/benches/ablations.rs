//! Ablations of SinClave's design choices (beyond the paper's figures):
//!
//! 1. **Base-hash prediction vs. naive re-measurement.** The verifier
//!    could predict a singleton's `MRENCLAVE` by re-measuring the whole
//!    enclave per grant instead of finalizing an interrupted hash. The
//!    interruptible design makes prediction O(1) in binary size — this
//!    ablation quantifies the win as binaries grow.
//! 2. **Prepared vs. cold prediction.** The verifier's per-grant hash
//!    work used to be two full instance-page measurements (common
//!    check + singleton prediction). The [`PreparedBaseHash`] midstate
//!    cache absorbs the instance-page `EADD` and the common
//!    measurement once per enclave, leaving 16 `EEXTEND` runs plus
//!    finalization per grant — this quantifies the per-grant win.
//! 3. **On-demand SigStruct key size.** SGX mandates RSA-3072; the
//!    per-singleton signing cost is the dominant grant component
//!    (Fig. 7c), so this shows what smaller/bigger signer keys would
//!    change.
//! 4. **RSA-CRT and key set-up.** Signing uses the CRT; this measures
//!    the speedup over plain private-exponent exponentiation, then the
//!    same split for the handshake's KEM decapsulation at the 1024-bit
//!    channel-key size (after asserting it recovers the encapsulated
//!    secret), then the per-key Montgomery set-up at 3072 bits: one
//!    division for `R^2 mod n` against the earlier 64·k doublings
//!    (after asserting both contexts exponentiate identically).
//! 5. **Exponentiation backends.** Squarings dominate windowed
//!    exponentiation (four per 4-bit window); `ablation/mont-sqr`
//!    measures RSA-3072 CRT signing, and one 1536-bit exponentiation,
//!    on the detected backend — AVX-512 IFMA where the CPU has it
//!    (the backend is printed), otherwise the portable `mont_sqr` fast
//!    path — against the portable general-multiplier-only code, after
//!    asserting both give identical results and the signature
//!    verifies. On IFMA hosts it also measures two 1536-bit
//!    exponentiations interleaved on the two-stream kernel
//!    (`pow-pair-1536`, how a CRT private-key operation runs there)
//!    against the same two one after the other
//!    (`pow-1536-x2-sequential`), after asserting the pair equals the
//!    mul-only reference.
//! 6. **Vectored grant issue.** `ablation/batch-issue` compares N
//!    sequential `issue` calls against one `issue_batch(N)`, which
//!    validates once and fans the on-demand signatures out over a
//!    thread pool.
//! 7. **Verified-SigStruct cache.** Every grant request re-verifies
//!    the same common SigStruct for repeat binaries (~0.4 ms of RSA
//!    work in Fig. 7c); `ablation/verify-cache` measures the warm
//!    lookup against the cold verification, and the full issuer grant
//!    with both caches warm against a cold-start issuer — after
//!    asserting the cached path issues bit-identical grants.
//! 8. **Verify-cache persistence.** The verify cache is worth nothing
//!    to a freshly deployed process unless its state survives the
//!    restart; `ablation/warm-restart` measures a CAS rebuilt from
//!    its encrypted volume (snapshot restore included) against a
//!    continuously running warm instance and against the cold
//!    re-verification baseline — after asserting the restored CAS is
//!    warm *before* its first grant and issues bit-identically.
//! 9. **Group-committed redemption journal.** Crash-absolute
//!    exactly-once redemption requires a sealed append per acked
//!    redemption; `ablation/journal` measures concurrent redemption
//!    throughput with group commit (batched durability) against the
//!    no-journal in-memory baseline, the honest fsync-per-redemption
//!    ablation, and the pre-journal snapshot-per-event alternative —
//!    under a modeled block-device flush latency, so the durability
//!    designs are costed like hardware — after asserting that a
//!    journaled redemption survives a crash-rebuild and that the
//!    disabled journal honestly reopens the window.
//! 10. **Reactor fan-in.** `ablation/reactor` measures a mostly-idle
//!     1 000-connection fan-in served by the readiness-driven reactor
//!     on four threads — after a slow-loris gate: a fleet of silent
//!     connections is reaped on its deadlines without touching healthy
//!     clients (and without being miscounted as tampering). The
//!     reactor's byte-level determinism is pinned by the
//!     golden-transcript test (`tests/serving_golden.rs`).
//! 11. **Replicated read scaling.** `ablation/replication` measures a
//!     read-mostly session burst against one node and against a
//!     primary plus two live followers (journal streams attached) —
//!     after a failover-fidelity gate: a follower that adopted the
//!     primary's baseline promotes under a durable fence, the deposed
//!     primary refuses further redemptions, and exactly-once holds
//!     across the handover.
//! 12. **Request tracing.** `ablation/trace` gates that the tracing
//!     layer is invisible to clients — tracing dark (the default)
//!     serves a scripted session bit-identically to tracing lit for an
//!     untraced caller, and dark records nothing at all — then
//!     measures the 256-connection fan-in with the flight recorder
//!     dark versus lit at keep-everything sampling (the worst-case
//!     recorder traffic).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sinclave::instance_page::InstancePage;
use sinclave::layout::EnclaveLayout;
use sinclave::signer::{sign_enclave, SignerConfig};
use sinclave::verifier::SingletonIssuer;
use sinclave::{AttestationToken, BaseEnclaveHash};
use sinclave_bench::hash_buffer;
use sinclave_crypto::bignum::{self, Montgomery, Uint};
use sinclave_crypto::rsa::RsaPrivateKey;
use sinclave_crypto::sha256;
use sinclave_sgx::secinfo::SecInfo;
use sinclave_sgx::verify_cache::VerifyCache;

fn bench_prediction_vs_remeasure(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/prediction-vs-remeasure");
    group.sample_size(20);
    let page = InstancePage::new(AttestationToken([7; 32]), sha256::digest(b"verifier"));
    for size_kib in [64usize, 512, 4096] {
        let program = hash_buffer(size_kib << 10);
        let layout = EnclaveLayout::for_program(&program, 16).expect("layout");
        let m = layout.measure_base().expect("measure");
        let base = BaseEnclaveHash::new(
            m.export_state(),
            layout.enclave_size,
            layout.instance_page_offset(),
        );

        group.bench_with_input(
            BenchmarkId::new("interruptible-finalize", size_kib),
            &base,
            |b, base| {
                b.iter(|| base.singleton_measurement(&page).expect("finalize"));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("naive-remeasure", size_kib),
            &layout,
            |b, layout| {
                b.iter(|| {
                    let mut m = layout.measure_base().expect("measure");
                    m.add_page(
                        layout.instance_page_offset(),
                        &page.to_page_bytes(),
                        SecInfo::read_only(),
                        true,
                    )
                    .expect("page");
                    m.finalize()
                });
            },
        );
    }
    group.finish();
}

fn bench_prepared_vs_cold(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/prepared-vs-cold");
    let page = InstancePage::new(AttestationToken([9; 32]), sha256::digest(b"verifier"));
    let layout = EnclaveLayout::for_program(&hash_buffer(64 << 10), 16).expect("layout");
    let m = layout.measure_base().expect("measure");
    let base =
        BaseEnclaveHash::new(m.export_state(), layout.enclave_size, layout.instance_page_offset());

    // The pre-cache issue() hash work: re-derive the common
    // measurement for the SigStruct check, then predict the singleton.
    group.bench_function("cold-issue-prediction", |b| {
        b.iter(|| {
            let common = base.common_measurement().expect("common");
            let singleton = base.singleton_measurement(&page).expect("singleton");
            (common, singleton)
        });
    });
    // First grant for an enclave: prepare the midstate, derive the
    // common measurement once, predict.
    group.bench_function("prepared-first-grant", |b| {
        b.iter(|| {
            let prepared = base.prepare().expect("prepare");
            (prepared.common_measurement(), prepared.singleton_measurement(&page))
        });
    });
    // Every further grant: 16 EEXTEND runs + finalize, nothing else.
    let prepared = base.prepare().expect("prepare");
    group.bench_function("prepared-warm-grant", |b| {
        b.iter(|| prepared.singleton_measurement(&page));
    });
    group.finish();
}

fn bench_signer_key_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/signer-key-size");
    group.sample_size(20);
    for bits in [1024usize, 2048, 3072] {
        let mut rng = StdRng::seed_from_u64(bits as u64);
        let key = RsaPrivateKey::generate(&mut rng, bits).expect("keygen");
        group.bench_with_input(BenchmarkId::new("sign", bits), &key, |b, key| {
            b.iter(|| key.sign(b"on-demand sigstruct body").expect("sign"));
        });
    }
    group.finish();
}

fn bench_crt(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0xc47);
    let key = RsaPrivateKey::generate(&mut rng, 2048).expect("keygen");
    let digest = sha256::digest(b"message");
    let mut group = c.benchmark_group("ablation/rsa-crt");
    group.sample_size(20);
    group.bench_function("with-crt", |b| {
        b.iter(|| key.sign_digest(&digest).expect("sign"));
    });
    group.bench_function("without-crt", |b| {
        // Cost model of plain m^d mod n, as a non-CRT implementation
        // would do: one full-width exponentiation with a d-sized
        // exponent (the exact value of d is irrelevant to the cost and
        // intentionally not exposed by the key API).
        let sig = key.sign_digest(&digest).expect("sign");
        let s = Uint::from_be_bytes(&sig);
        let m = s.mod_pow(key.public_key().exponent(), key.public_key().modulus());
        b.iter(|| {
            std::hint::black_box(m.mod_pow(private_exponent(&key), key.public_key().modulus()))
        });
    });

    // Handshake decapsulation at the channel-key size: CRT through the
    // signing helper against the earlier full-width c^d mod n (a fresh
    // context plus a d-width exponent, as `mod_pow` does it).
    let channel_key = RsaPrivateKey::generate(&mut rng, 1024).expect("keygen");
    let (ciphertext, shared) =
        channel_key.public_key().kem_encapsulate(&mut rng).expect("encapsulate");
    assert_eq!(channel_key.kem_decapsulate(&ciphertext).expect("decapsulate"), shared);
    group.bench_function("kem-decapsulate-crt", |b| {
        b.iter(|| channel_key.kem_decapsulate(&ciphertext).expect("decapsulate"));
    });
    group.bench_function("kem-decapsulate-full-width", |b| {
        let c = Uint::from_be_bytes(&ciphertext);
        let n = channel_key.public_key().modulus();
        b.iter(|| std::hint::black_box(c.mod_pow(private_exponent(&channel_key), n)));
    });

    // Per-key Montgomery set-up at the signer-key width: every key
    // parse and every `mod_pow` builds one. The cost depends only on
    // the width, so any odd 3072-bit value stands in for a modulus.
    let mut modulus = Uint::from_be_bytes(&hash_buffer(384));
    modulus.set_bit(3071);
    modulus.set_bit(0);
    let fast = Montgomery::new(&modulus).expect("odd modulus");
    let doubling = Montgomery::new_by_doubling(&modulus).expect("odd modulus");
    let (base, exponent) = (Uint::from_be_bytes(&hash_buffer(200)), Uint::from_u64(65_537));
    assert_eq!(fast.pow(&base, &exponent), doubling.pow(&base, &exponent));
    group.bench_function("montgomery-setup", |b| {
        b.iter(|| Montgomery::new(&modulus).expect("odd modulus"));
    });
    group.bench_function("montgomery-setup-doubling", |b| {
        b.iter(|| Montgomery::new_by_doubling(&modulus).expect("odd modulus"));
    });
    group.finish();
}

/// The private exponent is intentionally inaccessible through the key
/// API; for the *cost* ablation any exponent of d's width is
/// equivalent, and the modulus has the same bit length as d (within a
/// few bits).
fn private_exponent(key: &RsaPrivateKey) -> &Uint {
    // The modulus has the same bit length as d (within a few bits), so
    // exponentiation by n-like values costs the same as by d.
    key.public_key().modulus()
}

fn bench_mont_sqr(c: &mut Criterion) {
    // `Montgomery::pow` runs on AVX-512 IFMA where the CPU has it; the
    // mul-only reference is always the portable kernel.
    let backend = if bignum::ifma_available() { "avx512-ifma" } else { "portable" };
    println!("ablation/mont-sqr: bignum backend {backend}; mul-only reference portable");
    // The paper's mandated signer key size; CRT halves are 1536 bits.
    let mut rng = StdRng::seed_from_u64(0x3072);
    let key = RsaPrivateKey::generate(&mut rng, 3072).expect("keygen");
    let digest = sha256::digest(b"on-demand sigstruct body");
    // Correctness gate before timing anything, and the release-mode
    // check of RSA-3072 signing: the CRT halves on the detected
    // backend (both on the two-stream IFMA kernel, or concurrently on
    // the portable one) match the portable general-multiplier
    // reference byte for byte, and the signature verifies.
    let signature = key.sign_digest(&digest).expect("sign");
    assert_eq!(signature, key.sign_digest_mul_only(&digest).expect("sign"));
    key.public_key().verify_digest(&digest, &signature).expect("signature verifies");
    // The same gate for exponentiations at CRT-half width: one alone,
    // and two moduli with different exponents on the two-stream kernel.
    let half_width = |seed: usize| {
        let mut modulus = Uint::from_be_bytes(&hash_buffer(192 + seed)[seed..]);
        modulus.set_bit(1535);
        modulus.set_bit(0);
        Montgomery::new(&modulus).expect("odd modulus")
    };
    let (mont, other) = (half_width(0), half_width(1));
    let (base, exponent, other_exponent) = (
        Uint::from_be_bytes(&hash_buffer(200)),
        Uint::from_be_bytes(&hash_buffer(191)),
        Uint::from_be_bytes(&hash_buffer(190)),
    );
    let reference = mont.pow_mul_only(&base, &exponent);
    assert_eq!(mont.pow(&base, &exponent), reference);
    let pair = mont.pow_pair(&other, [&base, &base], [&exponent, &other_exponent]);
    if bignum::ifma_available() {
        let other_reference = other.pow_mul_only(&base, &other_exponent);
        assert_eq!(pair, Some((reference, other_reference)), "two-stream kernel");
    } else {
        assert_eq!(pair, None, "no two-stream kernel without IFMA");
    }
    let mut group = c.benchmark_group("ablation/mont-sqr");
    group.sample_size(20);
    group.bench_function("sign-3072-mont-sqr", |b| {
        b.iter(|| key.sign_digest(&digest).expect("sign"));
    });
    group.bench_function("sign-3072-mul-only", |b| {
        b.iter(|| key.sign_digest_mul_only(&digest).expect("sign"));
    });
    group.bench_function("pow-1536", |b| {
        b.iter(|| mont.pow(&base, &exponent));
    });
    group.bench_function("pow-1536-mul-only", |b| {
        b.iter(|| mont.pow_mul_only(&base, &exponent));
    });
    // Two CRT-half exponentiations on one thread: interleaved on the
    // two-stream kernel (IFMA hosts only), against one after the other.
    if bignum::ifma_available() {
        group.bench_function("pow-pair-1536", |b| {
            b.iter(|| mont.pow_pair(&other, [&base, &base], [&exponent, &other_exponent]));
        });
    }
    group.bench_function("pow-1536-x2-sequential", |b| {
        b.iter(|| (mont.pow(&base, &exponent), other.pow(&base, &other_exponent)));
    });
    group.finish();
}

fn bench_batch_issue(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0xba7c);
    let signer_key = RsaPrivateKey::generate(&mut rng, 3072).expect("keygen");
    let layout = EnclaveLayout::for_program(&hash_buffer(64 << 10), 16).expect("layout");
    let signed = sign_enclave(&layout, &signer_key, &SignerConfig::default()).expect("sign");
    let issuer = SingletonIssuer::new(signer_key, sha256::digest(b"verifier"));

    const BATCH: usize = 8;
    let mut group = c.benchmark_group("ablation/batch-issue");
    group.sample_size(10);
    group.throughput(Throughput::Elements(BATCH as u64));
    group.bench_function("sequential-8", |b| {
        b.iter(|| {
            for _ in 0..BATCH {
                issuer.issue(&mut rng, &signed.common_sigstruct, &signed.base_hash).expect("grant");
            }
        });
    });
    group.bench_function("batched-8", |b| {
        b.iter(|| {
            issuer
                .issue_batch(&mut rng, &signed.common_sigstruct, &signed.base_hash, BATCH)
                .expect("grants")
        });
    });
    group.finish();
}

fn bench_verify_cache(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0x51_6c);
    let signer_key = RsaPrivateKey::generate(&mut rng, 3072).expect("keygen");
    let layout = EnclaveLayout::for_program(&hash_buffer(64 << 10), 16).expect("layout");
    let signed = sign_enclave(&layout, &signer_key, &SignerConfig::default()).expect("sign");

    // Correctness gate before timing anything: a warm issuer must
    // produce byte-identical grants to a cold one for the same rng
    // stream — the caches are pure memoization.
    let warm_issuer = SingletonIssuer::new(signer_key.clone(), sha256::digest(b"verifier"));
    let mut warmup = StdRng::seed_from_u64(1);
    warm_issuer
        .issue(&mut warmup, &signed.common_sigstruct, &signed.base_hash)
        .expect("warmup grant");
    let cold_issuer = SingletonIssuer::new(signer_key.clone(), sha256::digest(b"verifier"));
    let mut warm_rng = StdRng::seed_from_u64(2);
    let mut cold_rng = StdRng::seed_from_u64(2);
    for _ in 0..3 {
        let warm =
            warm_issuer.issue(&mut warm_rng, &signed.common_sigstruct, &signed.base_hash).unwrap();
        let cold =
            cold_issuer.issue(&mut cold_rng, &signed.common_sigstruct, &signed.base_hash).unwrap();
        assert_eq!(warm.token, cold.token, "tokens diverged");
        assert_eq!(
            warm.sigstruct.to_bytes(),
            cold.sigstruct.to_bytes(),
            "cached path must issue bit-identical grants"
        );
    }
    assert_eq!(warm_issuer.verified_cache_len(), 1, "one RSA verify served every grant");

    let mut group = c.benchmark_group("ablation/verify-cache");
    group.sample_size(20);
    // Cold: the pre-cache per-connection cost — a full RSA-3072
    // verification of the common SigStruct.
    group.bench_function("verify-cold", |b| {
        b.iter(|| signed.common_sigstruct.verify().expect("valid"));
    });
    // Warm: a sharded lookup with a constant-time digest compare.
    let cache = VerifyCache::new();
    signed.common_sigstruct.verify_cached(&cache).expect("admit");
    group.bench_function("verify-warm", |b| {
        b.iter(|| signed.common_sigstruct.verify_cached(&cache).expect("valid"));
    });
    // The issuer's grant path with every per-enclave cache warm
    // (verification + prepared midstate): what a repeat binary pays.
    let mut grant_rng = StdRng::seed_from_u64(3);
    group.bench_function("issue-grant-warm-caches", |b| {
        b.iter(|| {
            warm_issuer
                .issue(&mut grant_rng, &signed.common_sigstruct, &signed.base_hash)
                .expect("grant")
        });
    });
    group.finish();
}

fn bench_warm_restart(c: &mut Criterion) {
    use sinclave_cas::store::CasStore;
    use sinclave_cas::CasServer;
    use sinclave_crypto::aead::AeadKey;
    use sinclave_fs::Volume;
    use std::sync::atomic::Ordering;

    let mut rng = StdRng::seed_from_u64(0x7e57a7);
    let channel_key = RsaPrivateKey::generate(&mut rng, 1024).expect("channel key");
    let signer_key = RsaPrivateKey::generate(&mut rng, 3072).expect("signer key");
    let root = RsaPrivateKey::generate(&mut rng, 1024).expect("root key");
    let store_key = AeadKey::new([0x7e; 32]);
    let layout = EnclaveLayout::for_program(&hash_buffer(64 << 10), 16).expect("layout");
    let signed = sign_enclave(&layout, &signer_key, &SignerConfig::default()).expect("sign");

    // The continuously running instance: warmed by one grant, then
    // snapshotted — its volume image is what a redeploy finds on disk.
    let warm = CasServer::new(
        channel_key.clone(),
        signer_key.clone(),
        root.public_key().clone(),
        CasStore::create(store_key.clone()),
    );
    let mut warmup = StdRng::seed_from_u64(1);
    warm.issuer().issue(&mut warmup, &signed.common_sigstruct, &signed.base_hash).expect("warmup");
    warm.persist_state().expect("persist");
    let image = warm.store().volume().to_disk_image();

    let restart = |image: &[u8]| {
        let volume = Volume::from_disk_image(image).expect("image");
        let store = CasStore::open(volume, store_key.clone()).expect("open");
        CasServer::new(channel_key.clone(), signer_key.clone(), root.public_key().clone(), store)
    };

    // Correctness gates before timing anything. (1) The acceptance
    // criterion: a restarted CAS is warm *before* its first grant —
    // that grant runs no RSA verification. (2) The restored caches are
    // pure memoization: warm-process and warm-restart instances issue
    // bit-identical grants for the same rng stream.
    let restarted = restart(&image);
    assert_eq!(restarted.stats.snapshot_restored.load(Ordering::Relaxed), 1);
    assert_eq!(restarted.issuer().verified_cache_len(), 1, "must be warm before any grant");
    let mut warm_rng = StdRng::seed_from_u64(2);
    let mut restart_rng = StdRng::seed_from_u64(2);
    for _ in 0..3 {
        let a = warm
            .issuer()
            .issue(&mut warm_rng, &signed.common_sigstruct, &signed.base_hash)
            .expect("warm grant");
        let b = restarted
            .issuer()
            .issue(&mut restart_rng, &signed.common_sigstruct, &signed.base_hash)
            .expect("restarted grant");
        assert_eq!(a.token, b.token, "tokens diverged");
        assert_eq!(a.sigstruct.to_bytes(), b.sigstruct.to_bytes(), "grants diverged");
    }

    let mut group = c.benchmark_group("ablation/warm-restart");
    group.sample_size(10);
    // Baseline: what every post-restart repeat grant paid before
    // persistence — the full RSA-3072 verification (~0.4 ms class).
    group.bench_function("verify-cold-baseline", |b| {
        b.iter(|| signed.common_sigstruct.verify().expect("valid"));
    });
    // The restore cost itself: reopen the volume and rebuild the
    // server, snapshot rehydration included — paid once per restart,
    // amortized over every grant it keeps warm.
    group.bench_function("restore-from-volume-image", |b| {
        b.iter(|| restart(&image));
    });
    // Steady state of a never-restarted warm process…
    let mut warm_grant_rng = StdRng::seed_from_u64(3);
    group.bench_function("repeat-grant-warm-process", |b| {
        b.iter(|| {
            warm.issuer()
                .issue(&mut warm_grant_rng, &signed.common_sigstruct, &signed.base_hash)
                .expect("grant")
        });
    });
    // …versus a freshly restarted one: the acceptance criterion wants
    // these within ~2x (the restarted issuer re-derives only the
    // prepared midstate on its first grant; the RSA verify stays
    // skipped).
    let mut restart_grant_rng = StdRng::seed_from_u64(3);
    group.bench_function("repeat-grant-warm-restart", |b| {
        b.iter(|| {
            restarted
                .issuer()
                .issue(&mut restart_grant_rng, &signed.common_sigstruct, &signed.base_hash)
                .expect("grant")
        });
    });
    group.finish();
}

fn bench_journal(c: &mut Criterion) {
    use sinclave::journal_record::JournalRecord;
    use sinclave_cas::store::CasStore;
    use sinclave_cas::{CasServer, JournalMode};
    use sinclave_crypto::aead::AeadKey;
    use sinclave_fs::Volume;
    use sinclave_sgx::measurement::Measurement;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{mpsc, Arc};

    let mut rng = StdRng::seed_from_u64(0x10ab);
    let channel_key = RsaPrivateKey::generate(&mut rng, 1024).expect("channel key");
    let signer_key = RsaPrivateKey::generate(&mut rng, 1024).expect("signer key");
    let root = RsaPrivateKey::generate(&mut rng, 1024).expect("root key");
    let store_key = AeadKey::new([0x1a; 32]);
    let build = |store: CasStore| {
        CasServer::new(channel_key.clone(), signer_key.clone(), root.public_key().clone(), store)
    };
    let expected = Measurement(sha256::digest(b"singleton"));
    let common = Measurement(sha256::digest(b"common"));
    let register = |cas: &CasServer, token: AttestationToken| {
        cas.issuer().apply_record(&JournalRecord::TokenGranted {
            token: token.0,
            expected: *expected.as_bytes(),
            common: *common.as_bytes(),
        });
    };

    // Correctness gates before timing anything. (1) With the journal
    // on, an acked redemption survives a crash-rebuild even though no
    // snapshot covered it. (2) With the journal disabled, the same
    // crash honestly reopens the reuse window — the no-journal
    // baseline below is a real trade, not a free lunch.
    for (mode, survives) in [
        (JournalMode::GroupCommit, true),
        (JournalMode::PerRecord, true),
        (JournalMode::Disabled, false),
    ] {
        let cas = build(CasStore::create(store_key.clone()));
        cas.set_journal_mode(mode);
        let token = AttestationToken([0x77; 32]);
        register(&cas, token);
        cas.persist_state().expect("persist"); // snapshot sees the token as Issued
        cas.redeem_token(&token, &expected).expect("redeem");
        let image = cas.store().volume().to_disk_image();
        let volume = Volume::from_disk_image(&image).expect("image");
        let rebuilt = build(CasStore::open(volume, store_key.clone()).expect("open"));
        assert_eq!(
            rebuilt.redeem_token(&token, &expected).is_err(),
            survives,
            "{mode:?}: crash semantics diverged from the documented guarantee"
        );
    }

    let cas = build(CasStore::create(store_key.clone()));
    // Cost durability like hardware would: every committed device
    // write (log append, staged chunk, manifest flip) pays a modeled
    // flush. In a pure in-memory volume all three durability designs
    // round to free and the ablation would be meaningless; 10 µs is a
    // fast-NVMe-class flush.
    const FLUSH_MICROS: u64 = 10;
    cas.store().set_flush_latency_micros(FLUSH_MICROS);
    let minted = AtomicU64::new(0);
    let mint = |n: usize| -> Vec<AttestationToken> {
        (0..n)
            .map(|_| {
                let i = minted.fetch_add(1, Ordering::Relaxed);
                let mut bytes = [0u8; 32];
                bytes[..8].copy_from_slice(&i.to_le_bytes());
                let token = AttestationToken(bytes);
                register(&cas, token);
                token
            })
            .collect()
    };

    // A persistent pool of redeemers models the reactor's compute
    // workers serving concurrent attest connections: per iteration, `BATCH` registered
    // tokens are redeemed durably across the pool. Group commit lets
    // concurrent redemptions share sealed appends (and their flushes);
    // per-record mode pays one flush each; snapshot-per-event pays a
    // full durable-state write each (the pre-journal way to close the
    // crash window); disabled is the in-memory ceiling.
    const WORKERS: usize = 32;
    const BATCH: usize = 128;
    std::thread::scope(|scope| {
        let mut job_txs = Vec::new();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        for _ in 0..WORKERS {
            // A job is a chunk of tokens and whether each redemption
            // is followed by its own snapshot.
            let (job_tx, job_rx) = mpsc::channel::<(Vec<AttestationToken>, bool)>();
            job_txs.push(job_tx);
            let cas: Arc<CasServer> = cas.clone();
            let done = done_tx.clone();
            scope.spawn(move || {
                for (job, snapshot_per_event) in job_rx {
                    for token in job {
                        cas.redeem_token(&token, &expected).expect("redeem");
                        if snapshot_per_event {
                            cas.persist_state().expect("snapshot");
                        }
                    }
                    done.send(()).expect("done");
                }
            });
        }

        let mut group = c.benchmark_group("ablation/journal");
        group.throughput(Throughput::Elements(BATCH as u64));
        group.measurement_time(std::time::Duration::from_millis(150));
        for (name, mode, snapshot_per_event) in [
            ("redeem-no-journal-baseline", JournalMode::Disabled, false),
            ("redeem-group-commit", JournalMode::GroupCommit, false),
            ("redeem-fsync-per-record", JournalMode::PerRecord, false),
            ("redeem-snapshot-per-event", JournalMode::Disabled, true),
        ] {
            cas.set_journal_mode(mode);
            group.bench_function(name, |b| {
                b.iter(|| {
                    let tokens = mint(BATCH);
                    for (chunk, job_tx) in tokens.chunks(BATCH / WORKERS).zip(&job_txs) {
                        job_tx.send((chunk.to_vec(), snapshot_per_event)).expect("job");
                    }
                    for _ in 0..WORKERS {
                        done_rx.recv().expect("done");
                    }
                });
            });
            // Checkpoint between modes so each series starts from a
            // truncated journal rather than inheriting the previous
            // mode's epochs.
            cas.persist_state().expect("checkpoint");
        }
        group.finish();
        drop(job_txs);
    });
}

fn bench_reactor(c: &mut Criterion) {
    use sinclave::protocol::Message;
    use sinclave_attack::starvation::SlowLoris;
    use sinclave_bench::{fan_in_burst, BenchWorld};
    use sinclave_cas::MiddlewareConfig;
    use sinclave_net::SecureChannel;
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    // Gate — slow-loris resilience. A fleet of silent connections is
    // reaped on its inactivity deadlines while healthy clients keep
    // being served; reaping is timeouts, never tamper counts.
    {
        let world = BenchWorld::new(0xac8);
        world.cas.set_middleware(MiddlewareConfig {
            handshake_timeout: Some(Duration::from_millis(150)),
            idle_timeout: Some(Duration::from_millis(300)),
            ..MiddlewareConfig::default()
        });
        let (stalled, holders, healthy) = (8usize, 4usize, 4usize);
        let server = world.cas.serve_reactor(
            &world.network,
            "cas:abl-loris",
            stalled + holders + healthy,
            0xd1,
        );
        let loris = SlowLoris::launch(&world.network, "cas:abl-loris", stalled, holders, 0xd2)
            .expect("loris");
        for i in 0..healthy {
            let conn = world.network.connect("cas:abl-loris").expect("connect");
            conn.set_recv_timeout(Some(Duration::from_secs(600)));
            let mut rng = StdRng::seed_from_u64(0xd3 + i as u64);
            let mut chan = SecureChannel::client_connect(conn, &mut rng).expect("handshake");
            chan.send(&Message::Ping.to_bytes()).expect("send");
            let reply = Message::from_bytes(&chan.recv().expect("recv")).expect("decode");
            assert_eq!(reply, Message::Pong, "healthy client starved behind the loris");
        }
        server.join().expect("serve");
        loris.release();
        let stats = &world.cas.stats;
        assert_eq!(stats.connections_timed_out.load(Ordering::Relaxed), (stalled + holders) as u64);
        assert_eq!(stats.records_rejected.load(Ordering::Relaxed), 0);
    }

    // The measurement: 1 000 mostly-idle connections served by two
    // event loops and two compute workers.
    const CONNECTIONS: usize = 1_000;
    const PINGS: usize = 2;

    let world = BenchWorld::new(0xac9);
    // Idle sessions are the scenario, not a fault: generous deadlines.
    world.cas.set_middleware(MiddlewareConfig {
        handshake_timeout: Some(Duration::from_secs(600)),
        idle_timeout: Some(Duration::from_secs(600)),
        ..MiddlewareConfig::default()
    });
    let mut group = c.benchmark_group("ablation/reactor");
    group.throughput(Throughput::Elements((CONNECTIONS * PINGS) as u64));
    group.measurement_time(std::time::Duration::from_millis(150));
    let round = std::sync::atomic::AtomicU64::new(0);
    group.bench_function("fan-in-1k-reactor-4-threads", |b| {
        b.iter(|| {
            let seed = 0xe000 + round.fetch_add(1, Ordering::Relaxed);
            fan_in_burst(&world, "cas:abl-fan", CONNECTIONS, PINGS, 2, 2, seed);
        });
    });
    group.finish();
}

fn bench_replication(c: &mut Criterion) {
    use sinclave::protocol::Message;
    use sinclave_bench::BenchWorld;
    use sinclave_cas::{follow, serve_replication};
    use sinclave_net::{Backoff, SecureChannel};
    use sinclave_runtime::ProgramImage;
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    // Gate — failover fidelity. A follower adopts the primary's
    // baseline, is promoted with a durable fence bump, and the deposed
    // primary refuses the redemption the new primary now owns:
    // exactly-once held across the handover, which is the property the
    // read-scaling numbers below are only allowed to exist under.
    {
        let world = BenchWorld::new(0xf10);
        let packaged = world.package(&ProgramImage::interpreter("python-3.8", 8));
        let mut rng = StdRng::seed_from_u64(0xf11);
        let spent = world
            .cas
            .issuer()
            .issue(&mut rng, &packaged.signed.common_sigstruct, &packaged.signed.base_hash)
            .expect("issue");
        let open = world
            .cas
            .issuer()
            .issue(&mut rng, &packaged.signed.common_sigstruct, &packaged.signed.base_hash)
            .expect("issue");
        world.cas.redeem_token(&spent.token, &spent.expected_mrenclave).expect("redeem");
        world.cas.persist_state().expect("persist");

        let _repl = serve_replication(&world.cas, &world.network, "cas:abl-repl", 4, 0xf12);
        let follower = world.new_replica();
        let pump = follow(
            follower.clone(),
            world.network.clone(),
            "cas:abl-repl".into(),
            0xf13,
            Backoff::new(Duration::from_millis(2), Duration::from_millis(20)),
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while follower.journal_sequence() != world.cas.journal_sequence() {
            assert!(std::time::Instant::now() < deadline, "follower never caught up");
            std::thread::sleep(Duration::from_millis(2));
        }
        pump.stop();
        let fence = follower.promote().expect("promote");
        assert!(world.cas.observe_fence(fence), "old primary not deposed");
        assert!(
            world.cas.redeem_token(&open.token, &open.expected_mrenclave).is_err(),
            "deposed primary still redeems"
        );
        assert!(
            follower.redeem_token(&spent.token, &spent.expected_mrenclave).is_err(),
            "acked redemption replayed on the new primary"
        );
        follower.redeem_token(&open.token, &open.expected_mrenclave).expect("failover redemption");
    }

    // The measurement: a read-mostly session burst against one node,
    // then spread across a primary plus two live followers (streams
    // attached, idling on heartbeats). Followers answer reads from
    // local replayed state, so read throughput should scale with the
    // fleet while every write still funnels through one journal.
    const SESSIONS: usize = 48;
    const PINGS: usize = 8;
    const CLIENT_THREADS: usize = 4;

    fn read_burst(world: &BenchWorld, addrs: &[&str], seed: u64) {
        std::thread::scope(|scope| {
            for thread in 0..CLIENT_THREADS {
                let network = world.network.clone();
                scope.spawn(move || {
                    for session in (thread..SESSIONS).step_by(CLIENT_THREADS) {
                        let addr = addrs[session % addrs.len()];
                        let conn = network.connect(addr).expect("connect");
                        let mut rng = StdRng::seed_from_u64(seed ^ (session as u64) << 8);
                        let mut chan =
                            SecureChannel::client_connect(conn, &mut rng).expect("handshake");
                        for _ in 0..PINGS {
                            chan.send(&Message::Ping.to_bytes()).expect("send");
                            chan.recv().expect("recv");
                        }
                    }
                });
            }
        });
    }

    let world = BenchWorld::new(0xf14);
    let _repl = serve_replication(&world.cas, &world.network, "cas:abl-repl-live", 4, 0xf15);
    let followers: Vec<_> = (0..2).map(|_| world.new_replica()).collect();
    let _pumps: Vec<_> = followers
        .iter()
        .enumerate()
        .map(|(i, follower)| {
            follow(
                follower.clone(),
                world.network.clone(),
                "cas:abl-repl-live".into(),
                0xf16 + i as u64,
                Backoff::new(Duration::from_millis(2), Duration::from_millis(20)),
            )
        })
        .collect();

    let mut group = c.benchmark_group("ablation/replication");
    group.throughput(Throughput::Elements((SESSIONS * PINGS) as u64));
    group.measurement_time(std::time::Duration::from_millis(150));
    let round = std::sync::atomic::AtomicU64::new(0);
    group.bench_function("reads-single-node", |b| {
        b.iter(|| {
            let seed = 0xf100 + round.fetch_add(1, Ordering::Relaxed);
            let serve = world.cas.serve_reactor(&world.network, "cas:abl-r1", SESSIONS, seed);
            read_burst(&world, &["cas:abl-r1"], seed);
            serve.join().expect("serve");
        });
    });
    group.bench_function("reads-primary-plus-2-followers", |b| {
        b.iter(|| {
            let seed = 0xf200 + round.fetch_add(1, Ordering::Relaxed);
            // 48 sessions round-robin over 3 addresses: 16 each.
            let serves = [
                world.cas.serve_reactor(&world.network, "cas:abl-r3a", SESSIONS / 3, seed),
                followers[0].serve_reactor(&world.network, "cas:abl-r3b", SESSIONS / 3, seed + 1),
                followers[1].serve_reactor(&world.network, "cas:abl-r3c", SESSIONS / 3, seed + 2),
            ];
            read_burst(&world, &["cas:abl-r3a", "cas:abl-r3b", "cas:abl-r3c"], seed);
            for serve in serves {
                serve.join().expect("serve");
            }
        });
    });
    group.finish();
}

fn bench_status(c: &mut Criterion) {
    use sinclave::protocol::Message;
    use sinclave_bench::{fan_in_burst, BenchWorld};
    use sinclave_cas::{serve_status, MiddlewareConfig};
    use sinclave_net::SecureChannel;
    use sinclave_runtime::ProgramImage;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    // Gate 1 — the views are live and correct under real traffic. One
    // grant's worth of load must show up in all three views, over both
    // transports (plaintext probe and protocol opcode), and the
    // drain-then-persist shutdown must leave exactly one snapshot.
    {
        let world = BenchWorld::new(0xaca);
        let packaged = world.package(&ProgramImage::interpreter("python-3.8", 8));
        let status = serve_status(&world.cas, &world.network, "cas:abl-status", 8);
        let server = world.cas.serve_reactor(&world.network, "cas:abl-stat-srv", 1, 0xd5);
        let conn = world.network.connect("cas:abl-stat-srv").expect("connect");
        let mut rng = StdRng::seed_from_u64(0xd6);
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
        assert!(matches!(reply, Message::GrantResponse { .. }), "got {reply:?}");
        // Same views over the regular protocol.
        chan.send(&Message::StatusRequest { view: "health".into() }.to_bytes()).expect("send");
        let reply = Message::from_bytes(&chan.recv().expect("recv")).expect("decode");
        let Message::StatusResponse { body } = reply else { panic!("expected status, {reply:?}") };
        assert!(body.starts_with("status: healthy\n"), "{body}");
        drop(chan);
        server.join().expect("serve");

        let probe = |view: &str| -> String {
            let conn = world.network.connect("cas:abl-status").expect("probe connect");
            conn.send(view.as_bytes().to_vec()).expect("probe send");
            String::from_utf8(conn.recv().expect("probe recv")).expect("utf-8 body")
        };
        assert!(probe("health").starts_with("status: healthy\n"));
        assert!(probe("metrics").contains("\ncas_grants_issued 1\n"));
        let histograms = probe("histograms");
        for stage in ["verify", "sign", "seal", "journal_flush", "request"] {
            assert!(
                !histograms.contains(&format!("{stage} count=0 ")),
                "stage {stage} recorded nothing:\n{histograms}"
            );
        }
        world.cas.shutdown().expect("shutdown");
        status.join().expect("status listener drains");
        assert_eq!(world.cas.stats.snapshot().snapshot_persisted, 1);
    }

    // The measurement — operability must be nearly free. The same
    // mostly-idle fan-in burst with the status plane dark versus lit
    // (listener up, one probe connection cycling all three views the
    // whole time). The instrumentation itself — per-stage histogram
    // records — is always on, so "dark" already pays it; "lit" adds
    // the rendering load. The acceptance bar is <1% throughput cost;
    // criterion's report is the evidence (a hard assert on wall-clock
    // deltas would be flaky on shared CI hardware).
    const CONNECTIONS: usize = 256;
    const PINGS: usize = 4;
    let world = BenchWorld::new(0xacb);
    world.cas.set_middleware(MiddlewareConfig {
        handshake_timeout: Some(Duration::from_secs(600)),
        idle_timeout: Some(Duration::from_secs(600)),
        ..MiddlewareConfig::default()
    });
    let mut group = c.benchmark_group("ablation/status");
    group.throughput(Throughput::Elements((CONNECTIONS * PINGS) as u64));
    group.measurement_time(std::time::Duration::from_millis(150));
    let round = AtomicU64::new(0);
    group.bench_function("fan-in-status-dark", |b| {
        b.iter(|| {
            let seed = 0xe400 + round.fetch_add(1, Ordering::Relaxed);
            fan_in_burst(&world, "cas:abl-sd", CONNECTIONS, PINGS, 2, 2, seed);
        });
    });
    group.bench_function("fan-in-status-lit", |b| {
        b.iter(|| {
            let seed = 0xe500 + round.fetch_add(1, Ordering::Relaxed);
            let status = serve_status(&world.cas, &world.network, "cas:abl-sl", 1);
            let stop = Arc::new(AtomicBool::new(false));
            let prober = {
                let stop = Arc::clone(&stop);
                let network = world.network.clone();
                std::thread::spawn(move || {
                    let conn = network.connect("cas:abl-sl").expect("probe connect");
                    while !stop.load(Ordering::Relaxed) {
                        for view in ["health", "metrics", "histograms"] {
                            conn.send(view.as_bytes().to_vec()).expect("probe send");
                            conn.recv().expect("probe recv");
                        }
                    }
                })
            };
            fan_in_burst(&world, "cas:abl-sl-fan", CONNECTIONS, PINGS, 2, 2, seed);
            stop.store(true, Ordering::Relaxed);
            prober.join().expect("prober");
            status.join().expect("status listener retires");
        });
    });
    group.finish();
}

fn bench_trace(c: &mut Criterion) {
    use sinclave::protocol::Message;
    use sinclave_bench::{fan_in_burst, BenchWorld};
    use sinclave_cas::trace::RecorderStats;
    use sinclave_cas::MiddlewareConfig;
    use sinclave_net::SecureChannel;
    use sinclave_runtime::ProgramImage;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    // Gate — bit-identity. Tracing dark (the default) and tracing lit
    // must both serve a plain, untraced client byte-for-byte like the
    // pre-trace server did: dark mints nothing at all, and a lit
    // server only echoes trace context to callers that sent one. Two
    // worlds from the same seed hold identical keys, so the decrypted
    // reply records must match exactly.
    let script = |lit: bool| -> Vec<Vec<u8>> {
        let world = BenchWorld::new(0xacc);
        let packaged = world.package(&ProgramImage::interpreter("python-3.8", 8));
        let addr = if lit { "cas:abl-tr-lit" } else { "cas:abl-tr-dark" };
        if lit {
            world.cas.tracer().set_enabled(true);
            world.cas.tracer().set_sample_every(1);
        }
        let server = world.cas.serve_reactor_with(&world.network, addr, 2, 0xd8, 1, 1);
        let mut replies = Vec::new();
        for session in 0..2u64 {
            let conn = world.network.connect(addr).expect("connect");
            let mut rng = StdRng::seed_from_u64(0x7ace0 + session);
            let mut chan = SecureChannel::client_connect(conn, &mut rng).expect("handshake");
            for request in [
                Message::GrantRequest {
                    common_sigstruct: packaged.signed.common_sigstruct.to_bytes(),
                    base_hash: packaged.signed.base_hash.encode().to_vec(),
                },
                Message::ChallengeRequest,
                Message::Ping,
            ] {
                chan.send(&request.to_bytes()).expect("send");
                replies.push(chan.recv().expect("recv"));
            }
        }
        server.join().expect("serve");
        let stats = world.cas.tracer().recorder().stats();
        if lit {
            assert!(stats.sampled > 0, "lit server with keep-everything sampling kept nothing");
        } else {
            assert_eq!(stats, RecorderStats::default(), "dark server recorded trace traffic");
        }
        replies
    };
    assert_eq!(
        script(false),
        script(true),
        "tracing must not change client-visible bytes for untraced callers"
    );

    // The measurement: the 256-connection mostly-idle fan-in with
    // tracing dark versus lit at keep-everything sampling. The
    // acceptance bar matches the status plane's: the lit column must
    // stay within a few percent; criterion's report is the evidence (a
    // hard assert on wall-clock deltas would be flaky on shared CI
    // hardware).
    const CONNECTIONS: usize = 256;
    const PINGS: usize = 4;
    let world = BenchWorld::new(0xacd);
    // Idle sessions are the scenario, not a fault: generous deadlines.
    world.cas.set_middleware(MiddlewareConfig {
        handshake_timeout: Some(Duration::from_secs(600)),
        idle_timeout: Some(Duration::from_secs(600)),
        ..MiddlewareConfig::default()
    });
    let mut group = c.benchmark_group("ablation/trace");
    group.throughput(Throughput::Elements((CONNECTIONS * PINGS) as u64));
    group.measurement_time(std::time::Duration::from_millis(150));
    let round = AtomicU64::new(0);
    group.bench_function("fan-in-trace-dark", |b| {
        world.cas.tracer().set_enabled(false);
        b.iter(|| {
            let seed = 0xe600 + round.fetch_add(1, Ordering::Relaxed);
            fan_in_burst(&world, "cas:abl-td", CONNECTIONS, PINGS, 2, 2, seed);
        });
    });
    group.bench_function("fan-in-trace-lit", |b| {
        world.cas.tracer().set_enabled(true);
        world.cas.tracer().set_sample_every(1);
        b.iter(|| {
            let seed = 0xe700 + round.fetch_add(1, Ordering::Relaxed);
            fan_in_burst(&world, "cas:abl-tl", CONNECTIONS, PINGS, 2, 2, seed);
        });
    });
    world.cas.tracer().set_enabled(false);
    group.finish();
}

criterion_group!(
    ablations,
    bench_prediction_vs_remeasure,
    bench_prepared_vs_cold,
    bench_signer_key_size,
    bench_crt,
    bench_mont_sqr,
    bench_batch_issue,
    bench_verify_cache,
    bench_warm_restart,
    bench_journal,
    bench_reactor,
    bench_replication,
    bench_status,
    bench_trace
);
criterion_main!(ablations);
