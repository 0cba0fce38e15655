//! The benchmark's own test: every workload, briefly and traced, with
//! every output check and post-drain invariant.

#[test]
fn every_workload_passes_its_output_checks() {
    perfbench::smoke().expect("smoke run");
}
