//! Which threads a CRT private-key operation runs on. Where the CPU
//! has AVX-512 IFMA, both halves run on the calling thread on the
//! two-stream kernel, so signing and decapsulation never start the
//! crate's `crt-helper` threads. The portable kernel, and the mul-only
//! reference path, still offer the second half to a helper.
//!
//! The test reads thread names from `/proc/self/task`, so it is Linux
//! only, and it is alone in this file: the test binary is its own
//! process, and no other test in it can start a helper first.

#[cfg(target_os = "linux")]
#[test]
fn only_the_portable_path_starts_crt_helpers() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sinclave_crypto::bignum::ifma_available;
    use sinclave_crypto::rsa::RsaPrivateKey;
    use sinclave_crypto::sha256;

    let helpers = || {
        std::fs::read_dir("/proc/self/task")
            .expect("list threads")
            .filter(|task| {
                let comm = task.as_ref().map(|task| task.path().join("comm"));
                comm.is_ok_and(|comm| {
                    std::fs::read_to_string(comm).is_ok_and(|name| name.trim() == "crt-helper")
                })
            })
            .count()
    };
    // The join starts one helper per core beyond the first.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let portable_helpers = usize::from(cores > 1);

    let mut rng = StdRng::seed_from_u64(19);
    let key = RsaPrivateKey::generate(&mut rng, 1024).expect("keygen");
    for i in 0..16u8 {
        let signature = key.sign(&[i]).expect("sign");
        key.public_key().verify(&[i], &signature).expect("verifies");
    }
    let (ciphertext, shared) = key.public_key().kem_encapsulate(&mut rng).expect("encapsulate");
    assert_eq!(key.kem_decapsulate(&ciphertext).expect("decapsulate"), shared);
    if ifma_available() {
        assert_eq!(helpers(), 0, "an IFMA private-key operation woke a CRT helper");
    } else {
        println!("IFMA absent, portable only");
        assert_eq!(helpers().min(1), portable_helpers);
    }

    key.sign_digest_mul_only(&sha256::digest(b"reference")).expect("sign");
    assert_eq!(helpers().min(1), portable_helpers, "the mul-only path offers its q half");
}
