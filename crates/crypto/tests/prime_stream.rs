//! The prime search's draw stream is part of every seeded key: a
//! deployment that regenerates its keys from a seed must get the same
//! keys after any change to how primes are searched. These digests
//! pin, per size and range of seeds, each generated prime together
//! with the generator's next word after the search, so a change that
//! draws one byte more or less, or in another order, fails here.
//!
//! The digests were computed with the sequential search (trial
//! division by the primes up to 349, then Miller–Rabin one round at a
//! time) that the paired search replaced.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sinclave_crypto::prime::generate_prime;
use sinclave_crypto::sha256::Sha256;

/// `(bits, seeds, SHA-256 over every seed's prime bytes ‖ next u64)`.
/// Sizes cover the small-prime accept path (8 bits), values that fit
/// one limb (13–64 bits), sizes that are not byte multiples, and the
/// RSA-1024 and RSA-3072 halves.
const PINNED: &[(usize, std::ops::Range<u64>, &str)] = &[
    (8, 0..300, "bcc26e57920a4212400bfcb8e3996851abc3ebb026bd9b5cd923d644d20b5a84"),
    (13, 0..300, "dc0e8221a3a452b1211ece667f9caa8804aab42baf5dc77a11f307f5e06fc241"),
    (37, 0..200, "4c501e5a0d297217803d51ba3c402d60555fa1e7027c81d0a93c6d9f04e6cb76"),
    (64, 0..200, "7098e2070c5b08f198259923244ec025c2e1f407cfcdec3da34ef5e4009b3442"),
    (72, 0..100, "7083bd9646a29d95bb683bd5ad8c4e3b34dba6d169aadd2380f601a47cb03da2"),
    (100, 0..100, "24abf084153fd655b9c64bc63d1306cf48682645ee2cc4d394310c674fa28f6a"),
    (257, 0..20, "9e6aca560fd72779c22bc5b3a6fc3549d4ad9fe7d3f31b09fb509834d89225c2"),
    (520, 0..3, "0221931685325e2ecfb94f95f8165bce06d2ba42308b72ab8ddb929eafc747dc"),
];

/// Sizes whose primes take long enough unoptimised that only the
/// release-mode run covers them.
const PINNED_RELEASE: &[(usize, std::ops::Range<u64>, &str)] = &[
    (257, 20..60, "882f3c1b59b9e5f92d8a0e223d0a2e14534f4333b6b0dbbb4e848b0cca809dff"),
    (512, 0..60, "bfcf711518198c6efc36899a28517fbe6b8ae7cd3a668f5e758c6e64d0329ac9"),
    (520, 3..40, "a123f51cf40d18ae3e33f34e2a4f1949a3c82f1773e2177cbf02941087913203"),
    (1024, 0..40, "39795420888f15733eded762dd7e356f307e018e884b98b9e7e3e65e4338beb3"),
    (1536, 0..24, "fc1f944759158061e7ce5e2bcaf3d9ae3f3cb84cfd6f5680ee7e471ed276f788"),
];

fn digest(bits: usize, seeds: std::ops::Range<u64>) -> String {
    let mut hash = Sha256::new();
    for seed in seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let prime = generate_prime(&mut rng, bits).expect("prime found");
        hash.update(&prime.to_be_bytes());
        hash.update(&rng.next_u64().to_le_bytes());
    }
    hash.finalize().to_hex()
}

fn check(table: &[(usize, std::ops::Range<u64>, &str)]) {
    let mut wrong = Vec::new();
    for (bits, seeds, pinned) in table {
        let seen = digest(*bits, seeds.clone());
        if seen != *pinned {
            wrong.push(format!("{bits} bits, seeds {seeds:?}: {seen}"));
        }
    }
    assert!(wrong.is_empty(), "prime stream changed:\n{}", wrong.join("\n"));
}

#[test]
fn seeded_primes_and_the_rng_after_them_are_pinned() {
    check(PINNED);
}

#[test]
fn seeded_rsa_size_primes_are_pinned() {
    if cfg!(debug_assertions) {
        return;
    }
    check(PINNED_RELEASE);
}
