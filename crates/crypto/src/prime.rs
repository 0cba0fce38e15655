//! Probabilistic primality testing and prime generation for RSA keys.

use crate::bignum::Uint;
use crate::error::CryptoError;
use crate::rng;
use rand::RngCore;

/// Small primes used for cheap trial division before Miller–Rabin.
const SMALL_PRIMES: &[u64] = &[
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307,
    311, 313, 317, 331, 337, 347, 349,
];

/// Number of Miller–Rabin rounds: error probability ≤ 4^-32 per candidate.
const MILLER_RABIN_ROUNDS: usize = 32;

/// Tests whether `n` is (probably) prime.
///
/// Deterministically correct for all `n` divisible by a tracked small
/// prime; otherwise Miller–Rabin with 32 random bases (error
/// probability at most `4^-32`).
pub fn is_prime<R: RngCore + ?Sized>(rng: &mut R, n: &Uint) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    for &p in SMALL_PRIMES {
        let p_big = Uint::from_u64(p);
        if n == &p_big {
            return true;
        }
        if n.rem_ref(&p_big).is_zero() {
            return false;
        }
    }
    miller_rabin(rng, n, MILLER_RABIN_ROUNDS)
}

/// Miller–Rabin with `rounds` random bases. `n` must be odd and > 3.
fn miller_rabin<R: RngCore + ?Sized>(rng: &mut R, n: &Uint, rounds: usize) -> bool {
    debug_assert!(n.is_odd());
    let one = Uint::one();
    let n_minus_1 = n.checked_sub(&one).expect("n > 1");
    let s = n_minus_1.trailing_zeros();
    let d = n_minus_1.shr(s);

    let three = Uint::from_u64(3);
    let bound = n.checked_sub(&three).expect("n > 3");
    let mont = crate::bignum::Montgomery::new(n).expect("odd modulus > 3");

    'witness: for _ in 0..rounds {
        // Base in [2, n-2].
        let a = rng::uint_below(rng, &bound).add_ref(&Uint::from_u64(2));
        let mut x = mont.pow(&a, &d);
        if x.is_one() || x == n_minus_1 {
            continue;
        }
        for _ in 0..s.saturating_sub(1) {
            x = mont.mul(&x, &x);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random prime with exactly `bits` significant bits.
///
/// The two top bits are forced to one (standard RSA practice so the
/// product of two such primes has exactly `2 * bits` bits), and the
/// candidate is made odd before testing.
///
/// # Errors
///
/// Returns [`CryptoError::PrimeGenerationFailed`] if no prime is found
/// within a generous attempt budget (practically unreachable).
///
/// # Panics
///
/// Panics if `bits < 8`.
pub fn generate_prime<R: RngCore + ?Sized>(rng: &mut R, bits: usize) -> Result<Uint, CryptoError> {
    assert!(bits >= 8, "prime size too small for RSA use");
    // Prime density ~ 1/(bits * ln 2); budget is vastly above expectation.
    let budget = bits * 64;
    for _ in 0..budget {
        let mut candidate = rng::uint_with_bits(rng, bits);
        candidate.set_bit(bits - 2);
        candidate.set_bit(0);
        if is_prime(rng, &candidate) {
            return Ok(candidate);
        }
    }
    Err(CryptoError::PrimeGenerationFailed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn classifies_small_numbers() {
        let mut rng = StdRng::seed_from_u64(7);
        let primes = [2u64, 3, 5, 7, 11, 97, 127, 251, 257, 65_537, 1_000_000_007];
        for p in primes {
            assert!(is_prime(&mut rng, &Uint::from_u64(p)), "{p} is prime");
        }
        let composites = [0u64, 1, 4, 6, 9, 91, 100, 65_535, 1_000_000_008];
        for c in composites {
            assert!(!is_prime(&mut rng, &Uint::from_u64(c)), "{c} is composite");
        }
    }

    #[test]
    fn rejects_carmichael_numbers() {
        let mut rng = StdRng::seed_from_u64(8);
        // Classic Fermat pseudoprimes that Miller–Rabin must reject.
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825_265] {
            assert!(!is_prime(&mut rng, &Uint::from_u64(c)), "{c} is Carmichael");
        }
    }

    #[test]
    fn recognizes_known_large_primes() {
        let mut rng = StdRng::seed_from_u64(9);
        // 2^89 - 1 and 2^127 - 1 are Mersenne primes.
        for exp in [89usize, 127] {
            let p = Uint::one().shl(exp).checked_sub(&Uint::one()).unwrap();
            assert!(is_prime(&mut rng, &p), "2^{exp} - 1 is prime");
        }
        // 2^67 - 1 is famously composite (193707721 × 761838257287).
        let c = Uint::one().shl(67).checked_sub(&Uint::one()).unwrap();
        assert!(!is_prime(&mut rng, &c));
    }

    #[test]
    fn generated_primes_have_requested_size() {
        let mut rng = StdRng::seed_from_u64(10);
        for bits in [64usize, 128, 256] {
            let p = generate_prime(&mut rng, bits).expect("prime found");
            assert_eq!(p.bit_len(), bits);
            assert!(p.is_odd());
            assert!(p.bit(bits - 2), "second-highest bit forced");
            assert!(is_prime(&mut rng, &p));
        }
    }

    #[test]
    fn generated_primes_differ() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = generate_prime(&mut rng, 128).unwrap();
        let b = generate_prime(&mut rng, 128).unwrap();
        assert_ne!(a, b);
    }
}
