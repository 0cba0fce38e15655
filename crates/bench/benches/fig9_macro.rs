//! Fig. 9 — "The performance overhead of SinClave with real-world
//! workloads": Python + encrypted volume, OpenVINO-style inference and
//! PyTorch-style training, attested end to end under the baseline and
//! SinClave flows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sinclave_bench::BenchWorld;
use sinclave_cas::policy::PolicyMode;
use sinclave_runtime::scone::StartOptions;
use sinclave_runtime::workload::{self, Workload};

fn run_once(
    world: &BenchWorld,
    packaged: &sinclave_runtime::scone::PackagedApp,
    w: &Workload,
    sinclave_mode: bool,
    seed: u64,
) {
    let opts = StartOptions::new("cas:fig9", "wl").with_volume(w.volume.clone()).with_seed(seed);
    let app = if sinclave_mode {
        world.host.start_sinclave(packaged, &opts).expect("run")
    } else {
        world.host.start_baseline(packaged, &opts).expect("run")
    };
    assert!(app.outcome.stdout.last().expect("output").ends_with("-done"));
}

fn bench_macro(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9/macro");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));

    // Criterion tracks absolute durations; the *overhead percentages*
    // of Fig. 9 are computed by the `experiments` harness at realistic
    // (seconds-long) scales. Scales here are kept moderate so the
    // whole suite stays fast.
    type WorkloadFactory = fn() -> Workload;
    let factories: &[(&str, WorkloadFactory)] = &[
        ("Python", || workload::python_volume(2_000)),
        ("OpenVINO", || workload::openvino_inference(12)),
        ("PyTorch", || workload::pytorch_training(12)),
    ];

    for (name, make) in factories {
        for (system, sinclave_mode) in [("baseline", false), ("sinclave", true)] {
            let world = BenchWorld::new(0x90 ^ sinclave_mode as u64);
            let cas = world.cas.clone();
            let _server = cas.serve_reactor(&world.network, "cas:fig9", 1_000_000, 9);
            let sample = make();
            let image = if sinclave_mode {
                sample.image.clone().sinclave_aware()
            } else {
                sample.image.clone()
            };
            let packaged = world.package(&image);
            world.add_policy("wl", &packaged, PolicyMode::Either, sample.config.clone());
            group.bench_function(BenchmarkId::new(system, *name), |b| {
                let mut i = 0u64;
                b.iter(|| {
                    i += 1;
                    // Fresh volume per iteration: workloads write.
                    run_once(&world, &packaged, &make(), sinclave_mode, i);
                });
            });
        }
    }
    group.finish();
}

criterion_group!(fig9, bench_macro);
criterion_main!(fig9);
