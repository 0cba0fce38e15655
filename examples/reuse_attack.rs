//! The paper's §3.3.1 remote-attestation reuse attack, end to end —
//! first succeeding against a baseline deployment, then being stopped
//! by SinClave.
//!
//! Run with: `cargo run --example reuse_attack`

use sinclave_repro::attack::scone_attack::{run_reuse_attack, AttackEnvironment};
use sinclave_repro::cas::policy::{PolicyMode, SessionPolicy};
use sinclave_repro::cas::store::CasStore;
use sinclave_repro::cas::CasServer;
use sinclave_repro::core::signer::SignerConfig;
use sinclave_repro::core::AppConfig;
use sinclave_repro::crypto::aead::AeadKey;
use sinclave_repro::crypto::rsa::RsaPrivateKey;
use sinclave_repro::net::Network;
use sinclave_repro::runtime::scone::{package_app, PackagedApp, SconeHost};
use sinclave_repro::runtime::ProgramImage;
use sinclave_repro::sgx::attestation::AttestationService;
use sinclave_repro::sgx::platform::Platform;
use sinclave_repro::sgx::quote::QuotingEnclave;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

struct Deployment {
    host: SconeHost,
    cas: Arc<CasServer>,
    network: Network,
    packaged: PackagedApp,
}

fn deploy(seed: u64, image: ProgramImage, mode: PolicyMode) -> Deployment {
    let mut rng = StdRng::seed_from_u64(seed);
    let service = AttestationService::new(&mut rng, 1024).unwrap();
    let platform = Arc::new(Platform::new(&mut rng));
    service.register_platform(platform.manufacturing_record());
    let qe =
        Arc::new(QuotingEnclave::provision(platform.clone(), &service, &mut rng, 1024).unwrap());
    let network = Network::new();
    let host = SconeHost::new(platform, qe, network.clone());

    let signer_key = RsaPrivateKey::generate(&mut rng, 1024).unwrap();
    let packaged = package_app(&image, &signer_key, &SignerConfig::default()).unwrap();
    let channel_key = RsaPrivateKey::generate(&mut rng, 1024).unwrap();
    let cas = CasServer::new(
        channel_key,
        signer_key.clone(),
        service.root_public_key().clone(),
        CasStore::create(AeadKey::new([2; 32])),
    );
    cas.add_policy(SessionPolicy {
        config_id: "python-app".into(),
        expected_common: packaged.signed.common_measurement(),
        expected_mrsigner: signer_key.public_key().fingerprint(),
        min_isv_svn: 0,
        allow_debug: false,
        mode,
        config: AppConfig {
            entry: "main.py".into(),
            volume_key: Some([0x77; 32]),
            secrets: vec![("db-password".into(), b"correct horse battery staple".to_vec())],
            ..AppConfig::default()
        },
    })
    .unwrap();
    Deployment { host, cas, network, packaged }
}

fn main() {
    println!("=== Phase 1: the reuse attack against a BASELINE deployment ===");
    let victim_image = ProgramImage::interpreter("python-3.8", 8);
    let d = deploy(1, victim_image, PolicyMode::Baseline);
    let cas_thread = d.cas.serve_reactor(&d.network, "cas:443", 1, 10);
    let env = AttackEnvironment {
        host: SconeHost::new(d.host.platform.clone(), d.host.qe.clone(), d.network.clone()),
        cas_addr: "cas:443".into(),
        config_id: "python-app".into(),
        victim: d.packaged.clone(),
    };
    println!("[adversary] starting the victim's genuine Python enclave as a report server…");
    println!("[adversary] running the TEE impersonator against the real CAS…");
    match run_reuse_attack(&env, false, 42) {
        Ok(loot) => {
            println!("[adversary] ATTACK SUCCEEDED — stolen configuration:");
            println!(
                "[adversary]   db-password = {:?}",
                String::from_utf8_lossy(loot.config.secret("db-password").unwrap())
            );
            println!("[adversary]   volume key  = {:02x?}…", &loot.config.volume_key.unwrap()[..4]);
        }
        Err(e) => println!("[adversary] attack failed unexpectedly: {e}"),
    }
    cas_thread.join().unwrap();

    println!();
    println!("=== Phase 2: the same attack against a SINCLAVE deployment ===");
    let hardened_image = ProgramImage::interpreter("python-3.8", 8).sinclave_aware();
    let d = deploy(2, hardened_image, PolicyMode::Singleton);
    let cas_thread = d.cas.serve_reactor(&d.network, "cas:443", 1, 20);
    let env = AttackEnvironment {
        host: SconeHost::new(d.host.platform.clone(), d.host.qe.clone(), d.network.clone()),
        cas_addr: "cas:443".into(),
        config_id: "python-app".into(),
        victim: d.packaged.clone(),
    };
    match run_reuse_attack(&env, false, 43) {
        Ok(_) => println!("[adversary] attack succeeded — THIS MUST NOT HAPPEN"),
        Err(e) => {
            println!("[adversary] attack DEFEATED: {e}");
            println!("[defense] the SinClave-aware runtime refused the adversary's");
            println!("[defense] configuration, so no report server could be built;");
            println!("[defense] and the CAS policy additionally requires one-time");
            println!("[defense] singleton tokens that only fresh enclaves can redeem.");
        }
    }
    // Unblock the CAS accept loop and exit.
    let _ = d.network.connect("cas:443");
    cas_thread.join().unwrap();
}
