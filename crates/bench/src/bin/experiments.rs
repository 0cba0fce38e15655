//! The experiments harness: regenerates every figure of the paper's
//! evaluation (§5) and prints measured values next to the paper's
//! reported ones.
//!
//! Run with: `cargo run --release -p sinclave-bench --bin experiments`
//!
//! Absolute numbers differ from the paper (their Xeon E-2288G +
//! optimized assembly vs. this from-scratch pure-Rust stack); what
//! must hold — and is printed for inspection — is the *shape*: who is
//! faster, by roughly what factor, and which costs are constant.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sinclave::instance_page::InstancePage;
use sinclave::protocol::Message;
use sinclave::signer::{sign_enclave, sign_enclave_baseline, SignerConfig};
use sinclave_bench::{hash_buffer, human_size, BenchWorld};
use sinclave_cas::policy::PolicyMode;
use sinclave_crypto::sha256::{self, Sha256};
use sinclave_net::SecureChannel;
use sinclave_runtime::scone::{run_native, StartOptions};
use sinclave_runtime::workload::{self, Workload};
use sinclave_runtime::ProgramImage;
use sinclave_sgx::sigstruct::{SigStruct, SigStructBody};
use std::time::{Duration, Instant};

/// Times `f` over `iters` iterations, returning the mean.
fn time<T>(iters: u32, mut f: impl FnMut() -> T) -> Duration {
    // One warmup.
    let _ = f();
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed() / iters
}

fn mbps(bytes: usize, d: Duration) -> f64 {
    bytes as f64 / d.as_secs_f64() / 1e6
}

fn fig6() {
    println!("== Figure 6: SHA-256 throughput (paper: Ring ≈405 MB/s, SinClave ≈180 MB/s,");
    println!("==           SinClave-BaseHash ≈ SinClave, better at small buffers)");
    println!(
        "{:>8}  {:>18} {:>18} {:>22}",
        "buffer", "ring-subst MB/s", "sinclave MB/s", "sinclave-basehash MB/s"
    );
    for size in [2 << 10, 16 << 10, 128 << 10, 1 << 20, 8 << 20] {
        let buf = hash_buffer(size);
        let iters = ((64 << 20) / size.max(1)) as u32;
        let ring = time(iters.clamp(8, 4096), || sha256::fast::digest(&buf));
        let sin = time(iters.clamp(8, 4096), || {
            let mut h = Sha256::new();
            h.update(&buf);
            h.finalize()
        });
        let base = time(iters.clamp(8, 4096), || {
            let mut h = Sha256::new();
            h.update(&buf);
            h.export_state().expect("aligned").encode()
        });
        println!(
            "{:>8}  {:>18.0} {:>18.0} {:>22.0}",
            human_size(size),
            mbps(size, ring),
            mbps(size, sin),
            mbps(size, base)
        );
    }

    // Constant-time finalization (paper: constant 32 µs).
    let layout =
        sinclave::layout::EnclaveLayout::for_program(&hash_buffer(256 << 10), 64).expect("layout");
    let m = layout.measure_base().expect("measure");
    let bh = sinclave::BaseEnclaveHash::new(
        m.export_state(),
        layout.enclave_size,
        layout.instance_page_offset(),
    );
    let page = InstancePage::new(sinclave::AttestationToken([7; 32]), sha256::digest(b"verifier"));
    let fin = time(2048, || bh.singleton_measurement(&page).expect("finalize"));
    println!("base-hash finalization to MRENCLAVE: {fin:?}  (paper: constant 32 µs)");
    println!();
}

fn fig7a(world: &BenchWorld) {
    println!("== Figure 7a: compilation duration (paper: native 0.033 s, baseline 1.52 s,");
    println!("==            SinClave 6.26 s — SinClave ≈ 4x baseline from less-optimized");
    println!("==            iterative hashing; this stack shares one hash core, so the");
    println!("==            expected shape is: native ≪ baseline ≈ SinClave)");
    let image = ProgramImage::with_entry("minimal-c", "print 0", 4).padded_to(512 << 10);
    let layout = image.layout().expect("layout");
    let config = SignerConfig::default();
    let native = time(32, || image.code_bytes());
    let baseline =
        time(16, || sign_enclave_baseline(&layout, &world.signer_key, &config).expect("sign"));
    let sinclave = time(16, || sign_enclave(&layout, &world.signer_key, &config).expect("sign"));
    println!("native:   {native:>12.2?}   (paper 0.033 s)");
    println!("baseline: {baseline:>12.2?}   (paper 1.52 s)");
    println!("sinclave: {sinclave:>12.2?}   (paper 6.26 s)");
    println!();
}

fn fig7b(world: &BenchWorld) {
    println!("== Figure 7b: SigStruct signing and verification (paper: sign 4.9 ms,");
    println!("==            verify-correct 0.4 ms, verify-erroneous = verify-correct)");
    let body = SigStructBody {
        enclave_hash: sinclave_sgx::Measurement(sha256::Digest([0x5a; 32])),
        attributes: sinclave_sgx::attributes::Attributes::production(),
        attributes_mask: sinclave_sgx::attributes::Attributes { flags: u64::MAX, xfrm: u64::MAX },
        isv_prod_id: 1,
        isv_svn: 1,
        date: 20230405,
        vendor: 0,
    };
    let signed = SigStruct::sign(body.clone(), &world.signer_key).expect("sign");
    let corrupt = {
        let mut bytes = signed.to_bytes();
        let n = bytes.len();
        bytes[n - 1] ^= 1;
        SigStruct::from_bytes(&bytes).expect("parse")
    };
    let sign = time(32, || SigStruct::sign(body.clone(), &world.signer_key).expect("sign"));
    let verify_c = time(256, || signed.verify().expect("ok"));
    let verify_e = time(256, || assert!(corrupt.verify().is_err()));
    println!("sign:             {sign:>12.2?}   (paper 4.9 ms)");
    println!("verify correct:   {verify_c:>12.2?}   (paper 0.4 ms)");
    println!("verify erroneous: {verify_e:>12.2?}   (paper ≈ verify correct)");
    println!();
}

fn fig7c(world: &BenchWorld) {
    println!("== Figure 7c: singleton page retrieval (paper: total ≈26.3 ms; O/C 3.74 ms,");
    println!("==            verify 0.4 ms, expected-measurement 32 µs, signing 4.93 ms,");
    println!("==            rest = CAS miscellaneous)");
    let image = ProgramImage::interpreter("python-3.8", 8).sinclave_aware();
    let packaged = world.package(&image);
    world.add_policy("fig7c", &packaged, PolicyMode::Singleton, Default::default());

    let cas = world.cas.clone();
    let _ping_server = cas.serve_reactor(&world.network, "cas:x7c", 1_000_000, 77);
    let mut session = 0u64;
    let open_close = time(64, || {
        session += 1;
        let conn = world.network.connect("cas:x7c").expect("connect");
        let mut rng = StdRng::seed_from_u64(session);
        let mut chan = SecureChannel::client_connect(conn, &mut rng).expect("handshake");
        chan.send(&Message::Ping.to_bytes()).expect("send");
        assert!(matches!(
            Message::from_bytes(&chan.recv().expect("recv")).expect("decode"),
            Message::Pong
        ));
    });
    let verify = time(256, || packaged.signed.common_sigstruct.verify().expect("ok"));
    let page = InstancePage::new(sinclave::AttestationToken([9; 32]), world.cas.identity());
    let expected =
        time(2048, || packaged.signed.base_hash.singleton_measurement(&page).expect("measure"));
    let mut rng = StdRng::seed_from_u64(1);
    let issue = time(32, || {
        world
            .cas
            .issuer()
            .issue(&mut rng, &packaged.signed.common_sigstruct, &packaged.signed.base_hash)
            .expect("grant")
    });
    let mut session = 10_000u64;
    let total = time(32, || {
        session += 1;
        let conn = world.network.connect("cas:x7c").expect("connect");
        let mut rng = StdRng::seed_from_u64(session);
        let mut chan = SecureChannel::client_connect(conn, &mut rng).expect("handshake");
        chan.send(
            &Message::GrantRequest {
                common_sigstruct: packaged.signed.common_sigstruct.to_bytes(),
                base_hash: packaged.signed.base_hash.encode().to_vec(),
            }
            .to_bytes(),
        )
        .expect("send");
        assert!(matches!(
            Message::from_bytes(&chan.recv().expect("recv")).expect("decode"),
            Message::GrantResponse { .. }
        ));
    });
    println!("connect open/close:    {open_close:>12.2?}   (paper 3.74 ms)");
    println!("verify sigstruct:      {verify:>12.2?}   (paper 0.4 ms)");
    println!("expected measurement:  {expected:>12.2?}   (paper 32 µs)");
    println!("issue grant (offline): {issue:>12.2?}   (paper signing 4.93 ms + misc)");
    println!("total round trip:      {total:>12.2?}   (paper 26.3 ms)");
    println!();
}

fn fig8() {
    println!("== Figure 8: program execution vs heap size (paper: attested overhead");
    println!("==           baseline 36.3–65.9 ms vs SinClave 132–144.2 ms, rising");
    println!("==           slightly with heap; sim < hw < hw+attest)");
    println!(
        "{:>8} {:>12} {:>14} {:>14} {:>16} {:>16}",
        "heap", "sim", "hw/base", "hw/sincl", "attest/base", "attest/sincl"
    );
    for heap_mib in [32u64, 128, 512, 2048] {
        let iters = if heap_mib >= 512 { 3 } else { 8 };
        let image = ProgramImage::with_entry("minimal-c", "print 0", heap_mib * 256);
        let network = sinclave_net::Network::new();
        let sim = time(iters, || run_native(&image, &network).expect("run"));

        let mut cells = Vec::new();
        for sinclave_mode in [false, true] {
            let world = BenchWorld::new(0x800 + heap_mib + sinclave_mode as u64);
            let img = if sinclave_mode { image.clone().sinclave_aware() } else { image.clone() };
            let packaged = world.package(&img);
            let hw = time(iters, || world.host.start_unattested(&packaged).expect("run"));

            world.add_policy(
                "fig8",
                &packaged,
                PolicyMode::Either,
                sinclave::AppConfig { entry: "embedded".into(), ..Default::default() },
            );
            let cas = world.cas.clone();
            let _server = cas.serve_reactor(&world.network, "cas:x8", 1_000_000, heap_mib);
            let mut i = 0u64;
            let attested = time(iters, || {
                i += 1;
                let opts = StartOptions::new("cas:x8", "fig8").with_seed(i);
                if sinclave_mode {
                    world.host.start_sinclave(&packaged, &opts).expect("run")
                } else {
                    world.host.start_baseline(&packaged, &opts).expect("run")
                }
            });
            cells.push((hw, attested));
        }
        println!(
            "{:>8} {:>12.2?} {:>14.2?} {:>14.2?} {:>16.2?} {:>16.2?}",
            format!("{heap_mib} MB"),
            sim,
            cells[0].0,
            cells[1].0,
            cells[0].1,
            cells[1].1
        );
    }
    println!();
}

fn fig9() {
    println!("== Figure 9: macro workloads, attested end to end (paper overheads:");
    println!("==           Python 1.03 %, OpenVINO 2.49 %, PyTorch 13.2 %)");
    println!("{:>10} {:>14} {:>14} {:>10}", "workload", "baseline", "sinclave", "overhead");
    // Scales chosen so the baseline runs last from ≈0.5 s to ≈2 s, as
    // in the paper's short-to-long workload progression; the absolute
    // overhead is the fixed singleton-retrieval cost.
    type WorkloadFactory = fn() -> Workload;
    let factories: &[(&str, WorkloadFactory)] = &[
        ("Python", || workload::python_volume(60_000)),
        ("OpenVINO", || workload::openvino_inference(180)),
        ("PyTorch", || workload::pytorch_training(420)),
    ];
    for (name, make) in factories {
        let mut results = Vec::new();
        for sinclave_mode in [false, true] {
            let world = BenchWorld::new(0x900 + sinclave_mode as u64);
            let sample = make();
            let image = if sinclave_mode {
                sample.image.clone().sinclave_aware()
            } else {
                sample.image.clone()
            };
            let packaged = world.package(&image);
            world.add_policy("fig9", &packaged, PolicyMode::Either, sample.config.clone());
            let cas = world.cas.clone();
            let _server = cas.serve_reactor(&world.network, "cas:x9", 1_000_000, 99);
            let mut i = 0u64;
            let elapsed = time(3, || {
                i += 1;
                let w = make();
                let opts =
                    StartOptions::new("cas:x9", "fig9").with_volume(w.volume.clone()).with_seed(i);
                let app = if sinclave_mode {
                    world.host.start_sinclave(&packaged, &opts).expect("run")
                } else {
                    world.host.start_baseline(&packaged, &opts).expect("run")
                };
                assert!(app.outcome.stdout.last().expect("out").ends_with("-done"));
            });
            results.push(elapsed);
        }
        let overhead = (results[1].as_secs_f64() - results[0].as_secs_f64())
            / results[0].as_secs_f64()
            * 100.0;
        println!("{:>10} {:>14.2?} {:>14.2?} {:>+9.2}%", name, results[0], results[1], overhead);
    }
    println!();
}

fn main() {
    println!("SinClave reproduction — experiments harness");
    println!("(mean wall-clock timings; see EXPERIMENTS.md for commentary)");
    println!();
    fig6();
    let world = BenchWorld::new(0x5eed);
    fig7a(&world);
    fig7b(&world);
    fig7c(&world);
    fig8();
    fig9();
    println!("done.");
}
