//! Fig. 8 — "Measurement of program execution": a minimal program run
//! in simulation mode (no enclave), hardware mode (enclave, no
//! attestation) and hardware+attestation mode, for heap sizes from
//! 32 MB to 2 GB, baseline vs SinClave.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sinclave_bench::BenchWorld;
use sinclave_cas::policy::PolicyMode;
use sinclave_runtime::scone::{run_native, StartOptions};
use sinclave_runtime::ProgramImage;

/// Heap sizes in MiB, the paper's x-axis.
const HEAPS_MIB: &[u64] = &[32, 128, 512, 2048];

fn image(heap_mib: u64, sinclave: bool) -> ProgramImage {
    let img = ProgramImage::with_entry("minimal-c", "print 0", heap_mib * 256);
    if sinclave {
        img.sinclave_aware()
    } else {
        img
    }
}

fn bench_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8/execution");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));

    for &heap in HEAPS_MIB {
        // Simulation mode: no enclave, both systems identical.
        let img = image(heap, false);
        group.bench_with_input(BenchmarkId::new("sim", heap), &img, |b, img| {
            let network = sinclave_net::Network::new();
            b.iter(|| run_native(img, &network).expect("run"));
        });

        for (system, sinclave_mode) in [("baseline", false), ("sinclave", true)] {
            // Hardware mode: build + EINIT + run, no attestation.
            let world = BenchWorld::new(0x80 + heap + sinclave_mode as u64);
            let packaged = world.package(&image(heap, sinclave_mode));
            group.bench_with_input(
                BenchmarkId::new(format!("hw/{system}"), heap),
                &packaged,
                |b, packaged| {
                    b.iter(|| world.host.start_unattested(packaged).expect("run"));
                },
            );

            // Hardware + attestation.
            world.add_policy(
                "app",
                &packaged,
                PolicyMode::Either,
                sinclave::AppConfig { entry: "embedded".into(), ..Default::default() },
            );
            let cas = world.cas.clone();
            let _server = cas.serve_reactor(&world.network, "cas:fig8", 1_000_000, heap);
            group.bench_with_input(
                BenchmarkId::new(format!("hw+attest/{system}"), heap),
                &packaged,
                |b, packaged| {
                    let mut i = 0u64;
                    b.iter(|| {
                        i += 1;
                        let opts = StartOptions::new("cas:fig8", "app").with_seed(i);
                        if sinclave_mode {
                            world.host.start_sinclave(packaged, &opts).expect("run")
                        } else {
                            world.host.start_baseline(packaged, &opts).expect("run")
                        }
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(fig8, bench_execution);
criterion_main!(fig8);
