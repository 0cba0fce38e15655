//! Quickstart: sign a program, deploy it as a SinClave singleton, and
//! watch the verifier hand it its secrets — then see a second start of
//! the *same* enclave get refused.
//!
//! Run with: `cargo run --example quickstart`

use rand::rngs::StdRng;
use rand::SeedableRng;
use sinclave_repro::cas::policy::{PolicyMode, SessionPolicy};
use sinclave_repro::cas::store::CasStore;
use sinclave_repro::cas::CasServer;
use sinclave_repro::core::signer::SignerConfig;
use sinclave_repro::core::AppConfig;
use sinclave_repro::crypto::aead::AeadKey;
use sinclave_repro::crypto::rsa::RsaPrivateKey;
use sinclave_repro::net::Network;
use sinclave_repro::runtime::scone::{package_app, SconeHost, StartOptions};
use sinclave_repro::runtime::ProgramImage;
use sinclave_repro::sgx::attestation::AttestationService;
use sinclave_repro::sgx::platform::Platform;
use sinclave_repro::sgx::quote::QuotingEnclave;
use std::sync::Arc;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    // ---- Infrastructure: a simulated SGX machine --------------------
    let service = AttestationService::new(&mut rng, 1024).expect("attestation service");
    let platform = Arc::new(Platform::new(&mut rng));
    service.register_platform(platform.manufacturing_record());
    let qe = Arc::new(
        QuotingEnclave::provision(platform.clone(), &service, &mut rng, 1024).expect("qe"),
    );
    let network = Network::new();
    let host = SconeHost::new(platform, qe, network.clone());
    println!("[host] simulated SGX platform ready");

    // ---- Signer: package a SinClave-aware application ---------------
    let image = ProgramImage::with_entry(
        "hello-singleton",
        "secret greeting -> g\nprint $g\ncompute mix 1 -> checksum",
        4,
    )
    .sinclave_aware();
    let signer_key = RsaPrivateKey::generate(&mut rng, 1024).expect("signer key");
    let packaged = package_app(&image, &signer_key, &SignerConfig::default()).expect("package");
    println!(
        "[signer] packaged `{}`: common MRENCLAVE {}…, base hash exported",
        image.name,
        &packaged.signed.common_measurement().to_hex()[..16]
    );

    // ---- Verifier: CAS with one singleton-only policy ---------------
    let channel_key = RsaPrivateKey::generate(&mut rng, 1024).expect("channel key");
    let cas = CasServer::new(
        channel_key,
        signer_key,
        service.root_public_key().clone(),
        CasStore::create(AeadKey::new([1; 32])),
    );
    cas.add_policy(SessionPolicy {
        config_id: "hello".into(),
        expected_common: packaged.signed.common_measurement(),
        expected_mrsigner: packaged.signed.common_sigstruct.mrsigner(),
        min_isv_svn: 0,
        allow_debug: false,
        mode: PolicyMode::Singleton,
        config: AppConfig {
            entry: "embedded".into(),
            secrets: vec![("greeting".into(), b"hello, fresh singleton!".to_vec())],
            ..AppConfig::default()
        },
    })
    .expect("policy");
    let cas_thread = cas.serve_reactor(&network, "cas:443", 4, 99);
    println!("[cas] serving at cas:443 (identity {}…)", &cas.identity().to_hex()[..16]);

    // ---- Start a singleton -------------------------------------------
    let app = host
        .start_sinclave(&packaged, &StartOptions::new("cas:443", "hello").with_seed(1))
        .expect("singleton start");
    println!(
        "[enclave] singleton MRENCLAVE {}… (differs from common)",
        &app.enclave.mrenclave().to_hex()[..16]
    );
    for line in &app.outcome.stdout {
        println!("[app] {line}");
    }

    // ---- A second singleton is a *different* enclave ----------------
    let app2 = host
        .start_sinclave(&packaged, &StartOptions::new("cas:443", "hello").with_seed(2))
        .expect("second singleton start");
    println!(
        "[enclave] second singleton MRENCLAVE {}… — unique per start",
        &app2.enclave.mrenclave().to_hex()[..16]
    );
    assert_ne!(app.enclave.mrenclave(), app2.enclave.mrenclave());

    drop(cas_thread);
    println!("[done] two attested starts, two unique measurements, zero reuse");
}
