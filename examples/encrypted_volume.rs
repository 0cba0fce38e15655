//! The SCONE "Python with encrypted volume" demo (the paper's first
//! Fig. 9 workload): an interpreter enclave attests, receives the
//! volume key from the verifier, and processes files the host can
//! neither read nor tamper with.
//!
//! Run with: `cargo run --example encrypted_volume`

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sinclave_repro::cas::policy::{PolicyMode, SessionPolicy};
use sinclave_repro::cas::store::CasStore;
use sinclave_repro::cas::CasServer;
use sinclave_repro::core::signer::SignerConfig;
use sinclave_repro::core::AppConfig;
use sinclave_repro::crypto::aead::AeadKey;
use sinclave_repro::crypto::rsa::RsaPrivateKey;
use sinclave_repro::fs::Volume;
use sinclave_repro::net::Network;
use sinclave_repro::runtime::scone::{package_app, SconeHost, StartOptions};
use sinclave_repro::runtime::ProgramImage;
use sinclave_repro::sgx::attestation::AttestationService;
use sinclave_repro::sgx::platform::Platform;
use sinclave_repro::sgx::quote::QuotingEnclave;
use std::sync::Arc;

fn main() {
    let mut rng = StdRng::seed_from_u64(99);

    // The user prepares an encrypted volume with their application and
    // data. The host only ever sees ciphertext.
    let volume_key_bytes = [0x55; 32];
    let volume_key = AeadKey::new(volume_key_bytes);
    let mut volume = Volume::format(&volume_key, "customer-data");
    volume
        .write_file(
            &volume_key,
            "main.py",
            b"read customers.csv -> data\n\
              compute mix 2 -> digest\n\
              concat $data $digest -> report\n\
              write report.bin $report\n\
              print processed",
        )
        .unwrap();
    volume.write_file(&volume_key, "customers.csv", b"alice,42\nbob,17\ncarol,99").unwrap();
    println!(
        "[user] encrypted volume prepared: {} ciphertext bytes on disk",
        volume.size_on_disk()
    );
    // Demonstrate host opacity.
    assert!(volume.read_file(&AeadKey::new([0; 32]), "customers.csv").is_err());
    println!("[host] cannot read volume content without the key ✓");
    let shared_volume = Arc::new(Mutex::new(volume));

    // Infrastructure.
    let service = AttestationService::new(&mut rng, 1024).unwrap();
    let platform = Arc::new(Platform::new(&mut rng));
    service.register_platform(platform.manufacturing_record());
    let qe =
        Arc::new(QuotingEnclave::provision(platform.clone(), &service, &mut rng, 1024).unwrap());
    let network = Network::new();
    let host = SconeHost::new(platform, qe, network.clone());

    // Package the interpreter; register the policy whose config holds
    // the volume key — released only to an attested singleton.
    let image = ProgramImage::interpreter("python-3.8", 8).sinclave_aware();
    let signer_key = RsaPrivateKey::generate(&mut rng, 1024).unwrap();
    let packaged = package_app(&image, &signer_key, &SignerConfig::default()).unwrap();
    let channel_key = RsaPrivateKey::generate(&mut rng, 1024).unwrap();
    let cas = CasServer::new(
        channel_key,
        signer_key.clone(),
        service.root_public_key().clone(),
        CasStore::create(AeadKey::new([3; 32])),
    );
    cas.add_policy(SessionPolicy {
        config_id: "volume-demo".into(),
        expected_common: packaged.signed.common_measurement(),
        expected_mrsigner: signer_key.public_key().fingerprint(),
        min_isv_svn: 0,
        allow_debug: false,
        mode: PolicyMode::Singleton,
        config: AppConfig {
            entry: "main.py".into(),
            volume_key: Some(volume_key_bytes),
            ..AppConfig::default()
        },
    })
    .unwrap();
    let cas_thread = cas.serve_reactor(&network, "cas:443", 2, 5);

    // Run.
    let app = host
        .start_sinclave(
            &packaged,
            &StartOptions::new("cas:443", "volume-demo")
                .with_volume(shared_volume.clone())
                .with_seed(4),
        )
        .expect("attested start");
    cas_thread.join().unwrap();

    for line in &app.outcome.stdout {
        println!("[app] {line}");
    }
    let report = shared_volume.lock().read_file(&volume_key, "report.bin").expect("report written");
    println!("[user] report.bin written inside the encrypted volume ({} bytes)", report.len());

    // Host tampering after the fact is detected.
    {
        let mut vol = shared_volume.lock();
        let ids = vol.raw_chunk_ids();
        vol.corrupt_chunk(ids[0]);
    }
    let tampered = shared_volume.lock().read_file(&volume_key, "main.py");
    println!("[user] tampered chunk detected on read: {:?}", tampered.unwrap_err());
}
