//! The heavier Fig. 9 workloads — OpenVINO-style inference and
//! PyTorch-style training — run under both the baseline and the
//! SinClave flow, printing the relative startup overhead (a miniature
//! of the paper's macro-benchmark).
//!
//! Run with: `cargo run --release --example ml_pipeline`

use rand::rngs::StdRng;
use rand::SeedableRng;
use sinclave_repro::cas::policy::{PolicyMode, SessionPolicy};
use sinclave_repro::cas::store::CasStore;
use sinclave_repro::cas::CasServer;
use sinclave_repro::core::signer::SignerConfig;
use sinclave_repro::crypto::aead::AeadKey;
use sinclave_repro::crypto::rsa::RsaPrivateKey;
use sinclave_repro::net::Network;
use sinclave_repro::runtime::scone::{package_app, SconeHost, StartOptions};
use sinclave_repro::runtime::workload::{self, Workload};
use sinclave_repro::sgx::attestation::AttestationService;
use sinclave_repro::sgx::platform::Platform;
use sinclave_repro::sgx::quote::QuotingEnclave;
use std::sync::Arc;
use std::time::Instant;

fn run_workload(w: &Workload, singleton: bool, seed: u64) -> std::time::Duration {
    let mut rng = StdRng::seed_from_u64(seed);
    let service = AttestationService::new(&mut rng, 1024).unwrap();
    let platform = Arc::new(Platform::with_epc_pages(&mut rng, 1 << 20));
    service.register_platform(platform.manufacturing_record());
    let qe =
        Arc::new(QuotingEnclave::provision(platform.clone(), &service, &mut rng, 1024).unwrap());
    let network = Network::new();
    let host = SconeHost::new(platform, qe, network.clone());

    let image = if singleton { w.image.clone().sinclave_aware() } else { w.image.clone() };
    let signer_key = RsaPrivateKey::generate(&mut rng, 1024).unwrap();
    let packaged = package_app(&image, &signer_key, &SignerConfig::default()).unwrap();
    let channel_key = RsaPrivateKey::generate(&mut rng, 1024).unwrap();
    let cas = CasServer::new(
        channel_key,
        signer_key.clone(),
        service.root_public_key().clone(),
        CasStore::create(AeadKey::new([4; 32])),
    );
    cas.add_policy(SessionPolicy {
        config_id: "ml".into(),
        expected_common: packaged.signed.common_measurement(),
        expected_mrsigner: signer_key.public_key().fingerprint(),
        min_isv_svn: 0,
        allow_debug: false,
        mode: PolicyMode::Either,
        config: w.config.clone(),
    })
    .unwrap();
    let cas_thread = cas.serve_reactor(&network, "cas:443", 2, seed);

    let opts = StartOptions::new("cas:443", "ml").with_volume(w.volume.clone()).with_seed(seed);
    let start = Instant::now();
    let app = if singleton {
        host.start_sinclave(&packaged, &opts).expect("sinclave run")
    } else {
        host.start_baseline(&packaged, &opts).expect("baseline run")
    };
    let elapsed = start.elapsed();
    assert!(app.outcome.stdout.last().unwrap().ends_with("-done"));
    // Unblock the CAS for the baseline case (only one connection used).
    let _ = network.connect("cas:443");
    cas_thread.join().unwrap();
    elapsed
}

fn main() {
    println!("workload     baseline      sinclave      overhead");
    println!("--------     --------      --------      --------");
    for (make, seed) in [
        (workload::openvino_inference as fn(u64) -> Workload, 1u64),
        (workload::pytorch_training, 2),
    ] {
        // Fresh volumes per run: workloads write into them.
        let scale = 4;
        let baseline = run_workload(&make(scale), false, seed);
        let sinclave = run_workload(&make(scale), true, seed + 10);
        let overhead =
            (sinclave.as_secs_f64() - baseline.as_secs_f64()) / baseline.as_secs_f64() * 100.0;
        let name = make(scale).name;
        println!("{name:<12} {baseline:>10.1?}   {sinclave:>10.1?}   {overhead:>+7.2}%");
    }
    println!();
    println!("(The SinClave delta is the singleton grant + on-demand SigStruct");
    println!(" round trip, amortized over the workload — the paper's Fig. 9.)");
}
