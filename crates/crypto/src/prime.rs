//! Probabilistic primality testing and prime generation for RSA keys.
//!
//! # The draw stream
//!
//! Every seeded key depends on exactly which bytes the prime search
//! reads from the caller's generator, in which calls, and where it
//! leaves the generator. [`generate_prime`] reads it as a sequential
//! search does:
//!
//! 1. one draw of `⌈bits/8⌉` bytes per candidate ([`rng::uint_with_bits`]);
//! 2. no further draw for a candidate that an odd prime up to 349
//!    divides: it is rejected (or, being that prime, accepted);
//! 3. otherwise Miller–Rabin (MR) bases, each `uint_below(n − 3) + 2`
//!    (one draw, more on rejection), round 1 first, stopping at the
//!    first round the candidate fails, and accepting it after 32.
//!
//! `tests/prime_stream.rs` pins the primes and the generator's next
//! word after each search for several sizes and seeds.
//!
//! # The sieve
//!
//! Trial division covers the odd primes below `SIEVE_BOUND` (2^14).
//! The primes are grouped into products below 2^63; one pass over the
//! candidate's limbs per product gives a residue (a Montgomery
//! reduction, so no division), and each prime of the group tests that
//! residue with one multiplication. At 1,536 bits this rejects about
//! 89% of candidates before any exponentiation, against 81% for the
//! primes up to 349 alone, for ≈2.8 µs of sieving per candidate on a
//! 2-vCPU Sapphire Rapids host. Each doubling of the bound from 2^12
//! removed about 0.8% of the candidates, each worth half a paired
//! exponentiation (≈370 µs), and added 1.2–2 µs per candidate, until
//! the step from 2^14 to 2^15 (+2.1 µs) barely paid for itself at
//! 1,536 bits and cost more than it saved at 512.
//!
//! Only the primes up to 349 may reject a candidate without a draw
//! (rule 2). When the smallest factor `p` of a candidate lies above
//! 349, the sequential search would have drawn round 1's base and run
//! round 1, so the search draws that base too. It then runs round 1
//! modulo `p`: a base that passes modulo `n` passes modulo its factor
//! `p`, so failing there rejects the candidate exactly as round 1
//! would have. A base that passes modulo `p` sends the candidate to
//! the full round 1.
//!
//! # Paired exponentiations
//!
//! An MR round is one exponentiation. The two-stream kernel
//! ([`Montgomery::pow_pair`]) runs two in ≈1.3 times the time of one,
//! so the search pairs them without changing the draws:
//!
//! * **Round 1.** A `Lookahead` keeps a queue of draws taken from the
//!   generator but not yet consumed by the search. Before round 1 of a
//!   candidate, the search runs itself on draws read ahead through the
//!   queue, as if the candidate failed, to find the next candidate that
//!   needs round 1 and its base. Both round-1 exponentiations run as
//!   one pair, and the second verdict is kept for when the search gets
//!   there. Since MR's verdict depends only on the candidate and the
//!   base, a kept verdict is used only for the same pair of values.
//! * **Rounds 2–32.** A candidate that passed round 1 runs its
//!   remaining rounds two at a time on its own context. The second
//!   base is read ahead; if the first round of the pair fails, its
//!   draws stay at the front of the queue, pushed back for the next
//!   candidate.
//!
//! Reading ahead stops at `LOOKAHEAD_CAP` = 31 queued draws; round 1
//! then runs alone. That is the bound that returns the generator
//! where the sequential search leaves it. An accepted prime's rounds
//! 2–32 take at least 31 draws, served from the queue first, so a
//! queue of at most 31 draws is empty when the prime is returned.
//! Reading further could take draws from the generator that the
//! sequential search never makes. Finding the next round-1 candidate
//! takes about ten draws at 1,536 bits, so the cap rarely binds.

use crate::bignum::{Montgomery, Uint};
use crate::error::CryptoError;
use crate::rng::{self, ByteSource};
use rand::RngCore;
use std::collections::VecDeque;
use std::convert::Infallible;
use std::sync::OnceLock;

/// Number of Miller–Rabin rounds: error probability ≤ 4^-32 per candidate.
const MILLER_RABIN_ROUNDS: usize = 32;

/// The largest prime that rejects a candidate without a draw: the
/// bound of the trial division that the draw stream was fixed with.
const DRAWLESS_BOUND: u64 = 349;

/// Trial division covers the odd primes below this bound.
const SIEVE_BOUND: u64 = 1 << 14;

/// The most draws the search reads ahead of itself; see the module
/// docs for why it is one less than the number of rounds.
const LOOKAHEAD_CAP: usize = MILLER_RABIN_ROUNDS - 1;

/// Tests whether `n` is (probably) prime.
///
/// Deterministically correct for all `n` divisible by a small prime;
/// otherwise Miller–Rabin with 32 random bases (error probability at
/// most `4^-32`), drawn from `rng` as a sequential search draws them
/// (see the module docs).
pub fn is_prime<R: RngCore + ?Sized>(rng: &mut R, n: &Uint) -> bool {
    match sieve(n) {
        Sieved::Composite => false,
        Sieved::Prime => true,
        Sieved::Factor(p) => {
            let Ok(base) = draw_base(rng, n);
            !certain_witness(n, &base, p) && Witness::new(n).passes_all(rng, &base)
        }
        Sieved::Survivor => {
            let Ok(base) = draw_base(rng, n);
            Witness::new(n).passes_all(rng, &base)
        }
    }
}

/// Generates a random prime with exactly `bits` significant bits.
///
/// The two top bits are forced to one (standard RSA practice so the
/// product of two such primes has exactly `2 * bits` bits), and the
/// candidate is made odd before testing. The draws from `rng`, and so
/// the prime, are those of a sequential search (see the module docs).
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
    search(&mut Lookahead::new(rng), bits)
}

/// [`generate_prime`] over a lookahead queue, which a test can inspect
/// afterwards.
fn search<R: RngCore + ?Sized>(
    source: &mut Lookahead<'_, R>,
    bits: usize,
) -> Result<Uint, CryptoError> {
    // Prime density ~ 1/(bits * ln 2); budget is vastly above expectation.
    let mut budget = bits * 64;
    // A round 1 already run as the second of a pair: the candidate,
    // its base and the verdict.
    let mut known: Option<(Witness, Uint, bool)> = None;
    loop {
        let Ok(found) = next_round_one(source, bits, &mut budget);
        let (n, base) = match found {
            Some(Found::Prime(p)) => return Ok(p),
            Some(Found::Candidate { n, base }) => (n, base),
            None => return Err(CryptoError::PrimeGenerationFailed),
        };
        let (witness, passed) = match known.take() {
            Some((witness, known_base, passed)) if witness.n == n && known_base == base => {
                (witness, passed)
            }
            _ => {
                let witness = Witness::new(&n);
                let mut ahead_budget = budget;
                let next = next_round_one(&mut source.ahead(), bits, &mut ahead_budget);
                let passed = match next {
                    Ok(Some(Found::Candidate { n: next, base: next_base })) => {
                        let next = Witness::new(&next);
                        let (passed, next_passed) =
                            round_pair([&witness, &next], [&base, &next_base]);
                        known = Some((next, next_base, next_passed));
                        passed
                    }
                    _ => witness.round(&base),
                };
                (witness, passed)
            }
        };
        if passed && witness.confirm(source) {
            debug_assert!(source.queue.is_empty(), "an accepted prime leaves no draw queued");
            return Ok(n);
        }
    }
}

/// What the search meets next on its draw stream.
enum Found {
    /// A candidate that is one of the primes up to 349 (8-bit primes
    /// only): accepted without a draw.
    Prime(Uint),
    /// A candidate that needs Miller–Rabin, with round 1's base.
    Candidate { n: Uint, base: Uint },
}

/// Draws candidates until one needs Miller–Rabin round 1 or is a
/// small prime, spending `budget` one candidate at a time. `Ok(None)`
/// once the budget is spent; `Err` when `source` runs dry.
fn next_round_one<S: ByteSource + ?Sized>(
    source: &mut S,
    bits: usize,
    budget: &mut usize,
) -> Result<Option<Found>, S::Dry> {
    while *budget > 0 {
        *budget -= 1;
        let mut n = rng::with_bits_from(source, bits)?;
        n.set_bit(bits - 2);
        n.set_bit(0);
        match sieve(&n) {
            Sieved::Composite => {}
            Sieved::Prime => return Ok(Some(Found::Prime(n))),
            Sieved::Factor(p) => {
                let base = draw_base(source, &n)?;
                if !certain_witness(&n, &base, p) {
                    return Ok(Some(Found::Candidate { n, base }));
                }
            }
            Sieved::Survivor => {
                let base = draw_base(source, &n)?;
                return Ok(Some(Found::Candidate { n, base }));
            }
        }
    }
    Ok(None)
}

/// A Miller–Rabin base for `n`, uniform in `[2, n − 2]`.
fn draw_base<S: ByteSource + ?Sized>(source: &mut S, n: &Uint) -> Result<Uint, S::Dry> {
    let bound = n.checked_sub(&Uint::from_u64(3)).expect("n > 3");
    Ok(rng::below_from(source, &bound)?.add_ref(&Uint::from_u64(2)))
}

/// One odd candidate `n > 3` for Miller–Rabin, `n − 1 = d·2^s`.
struct Witness {
    n: Uint,
    n_minus_1: Uint,
    d: Uint,
    s: usize,
    mont: Montgomery,
}

impl Witness {
    fn new(n: &Uint) -> Self {
        debug_assert!(n.is_odd());
        let n_minus_1 = n.checked_sub(&Uint::one()).expect("n > 1");
        let s = n_minus_1.trailing_zeros();
        let d = n_minus_1.shr(s);
        let mont = Montgomery::new(n).expect("odd modulus > 3");
        Witness { n: n.clone(), n_minus_1, d, s, mont }
    }

    /// Whether `x = base^d mod n` lets `n` pass the round.
    fn passes(&self, mut x: Uint) -> bool {
        if x.is_one() || x == self.n_minus_1 {
            return true;
        }
        for _ in 1..self.s {
            x = self.mont.mul(&x, &x);
            if x == self.n_minus_1 {
                return true;
            }
        }
        false
    }

    /// One round with `base`.
    fn round(&self, base: &Uint) -> bool {
        self.passes(self.mont.pow(base, &self.d))
    }

    /// All 32 rounds, one at a time, round 1 with `base` and the rest
    /// with bases drawn from `rng`.
    fn passes_all<R: RngCore + ?Sized>(&self, rng: &mut R, base: &Uint) -> bool {
        self.round(base)
            && (1..MILLER_RABIN_ROUNDS).all(|_| {
                let Ok(base) = draw_base(rng, &self.n);
                self.round(&base)
            })
    }

    /// Rounds 2–32 for a candidate that passed round 1, two at a time
    /// on the two-stream kernel. The second base of a pair is read
    /// ahead and consumed only if the first round passes.
    fn confirm<R: RngCore + ?Sized>(&self, source: &mut Lookahead<'_, R>) -> bool {
        let mut left = MILLER_RABIN_ROUNDS - 1;
        while left > 0 {
            let Ok(base) = draw_base(source, &self.n);
            let mut ahead = source.ahead();
            let second = if left > 1 { draw_base(&mut ahead, &self.n).ok() } else { None };
            let read = ahead.read;
            let Some(second) = second else {
                if !self.round(&base) {
                    return false;
                }
                left -= 1;
                continue;
            };
            let (first, second) = round_pair([self, self], [&base, &second]);
            if !first {
                return false;
            }
            source.consume(read);
            if !second {
                return false;
            }
            left -= 2;
        }
        true
    }
}

/// One round for each of two candidates (or one candidate twice), on
/// the two-stream kernel where both contexts have one, otherwise one
/// after the other.
fn round_pair(witnesses: [&Witness; 2], bases: [&Uint; 2]) -> (bool, bool) {
    let [a, b] = witnesses;
    match a.mont.pow_pair(&b.mont, bases, [&a.d, &b.d]) {
        Some((x, y)) => (a.passes(x), b.passes(y)),
        None => (a.round(bases[0]), b.round(bases[1])),
    }
}

/// Whether `base` certainly fails Miller–Rabin round 1 for `n`, judged
/// modulo `n`'s prime factor `p`: the round's conditions `x ≡ 1` or
/// `x^(2^i) ≡ −1 (mod n)` imply the same modulo `p`, so a base that
/// meets neither modulo `p` is a witness that `n` is composite.
fn certain_witness(n: &Uint, base: &Uint, p: u64) -> bool {
    let a = rem_u64(base, p);
    if a == 0 {
        // Every power of `a` is 0 modulo `p`, so neither 1 nor −1.
        return true;
    }
    let n_minus_1 = n.checked_sub(&Uint::one()).expect("n > 1");
    let s = n_minus_1.trailing_zeros();
    // Fermat: `a^d ≡ a^(d mod (p − 1))` as `p` is prime and `p ∤ a`.
    let e = rem_u64(&n_minus_1.shr(s), p - 1);
    let mul = |x: u64, y: u64| ((u128::from(x) * u128::from(y)) % u128::from(p)) as u64;
    let mut x = 1;
    for i in (0..64 - e.leading_zeros()).rev() {
        x = mul(x, x);
        if e >> i & 1 == 1 {
            x = mul(x, a);
        }
    }
    if x == 1 || x == p - 1 {
        return false;
    }
    for _ in 1..s {
        x = mul(x, x);
        if x == p - 1 {
            return false;
        }
    }
    true
}

/// `x mod m` for a nonzero `m`.
fn rem_u64(x: &Uint, m: u64) -> u64 {
    x.limbs
        .iter()
        .rev()
        .fold(0, |r, &limb| (((u128::from(r) << 64) | u128::from(limb)) % u128::from(m)) as u64)
}

/// What trial division says about a number.
#[derive(Debug, PartialEq, Eq)]
enum Sieved {
    /// Zero, one, or divisible by a smaller prime up to 349.
    Composite,
    /// Two or an odd prime up to 349.
    Prime,
    /// Its smallest prime factor, above 349 and below the sieve bound
    /// (and not the number itself).
    Factor(u64),
    /// No prime below the sieve bound divides it, or it is a prime
    /// between 349 and the bound.
    Survivor,
}

/// Trial division of `n` by 2 and the sieve's primes, smallest first.
fn sieve(n: &Uint) -> Sieved {
    let Some(&low) = n.limbs.first() else { return Sieved::Composite };
    let small = n.to_u64();
    if small == Some(1) {
        return Sieved::Composite;
    }
    if low & 1 == 0 {
        return if small == Some(2) { Sieved::Prime } else { Sieved::Composite };
    }
    for group in &sieve_table().groups {
        let residue = group.residue(&n.limbs);
        if let Some(d) = group.divisors.iter().find(|d| d.divides(residue)) {
            return match (small == Some(d.prime), d.prime <= DRAWLESS_BOUND) {
                (true, true) => Sieved::Prime,
                (true, false) => Sieved::Survivor,
                (false, true) => Sieved::Composite,
                (false, false) => Sieved::Factor(d.prime),
            };
        }
    }
    Sieved::Survivor
}

/// The sieve's primes, in ascending order, grouped into products.
struct SieveTable {
    groups: Vec<Group>,
}

/// Consecutive odd primes whose product is below 2^63.
struct Group {
    product: u64,
    /// `−product^{−1} mod 2^64`.
    neg_inv: u64,
    divisors: Vec<Divisor>,
}

impl Group {
    /// `n · 2^(−64·limbs) mod product`, up to `product + 1`: one
    /// Montgomery reduction step per limb, least significant first. A
    /// prime of the group divides the result iff it divides `n`, since
    /// 2 is invertible modulo an odd prime.
    fn residue(&self, limbs: &[u64]) -> u64 {
        let m = u128::from(self.product);
        limbs.iter().fold(0, |acc, &limb| {
            // `acc ≤ m + 1`, so `t + q·m < 2^128`, and the result
            // stays at most `m + 1`.
            let t = u128::from(acc) + u128::from(limb);
            let q = (t as u64).wrapping_mul(self.neg_inv);
            ((t + u128::from(q) * m) >> 64) as u64
        })
    }
}

/// An odd prime with its divisibility test.
struct Divisor {
    prime: u64,
    /// `prime^{−1} mod 2^64`.
    inv: u64,
    /// `⌊(2^64 − 1)/prime⌋`.
    limit: u64,
}

impl Divisor {
    fn new(prime: u64) -> Self {
        Divisor { prime, inv: inverse_mod_2_64(prime), limit: u64::MAX / prime }
    }

    /// Whether `prime` divides `x`: the multiples of an odd prime are
    /// exactly the values that its inverse maps to at most `limit`.
    fn divides(&self, x: u64) -> bool {
        x.wrapping_mul(self.inv) <= self.limit
    }
}

/// `x^{−1} mod 2^64` for odd `x`, by Newton's iteration: each step
/// doubles the number of correct low bits, from 3 (x·x ≡ 1 mod 8).
fn inverse_mod_2_64(x: u64) -> u64 {
    let mut inv = x;
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    }
    inv
}

fn sieve_table() -> &'static SieveTable {
    static TABLE: OnceLock<SieveTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let bound = SIEVE_BOUND as usize;
        let mut composite = vec![false; bound];
        let mut groups: Vec<Group> = Vec::new();
        let mut product = 1u64;
        for p in 3..bound {
            if composite[p] || p % 2 == 0 {
                continue;
            }
            for multiple in (p * p..bound).step_by(p) {
                composite[multiple] = true;
            }
            let p = p as u64;
            match groups.last_mut() {
                Some(group) if product < (1 << 63) / p => {
                    product *= p;
                    group.product = product;
                    group.divisors.push(Divisor::new(p));
                }
                _ => {
                    product = p;
                    groups.push(Group { product, neg_inv: 0, divisors: vec![Divisor::new(p)] });
                }
            }
        }
        for group in &mut groups {
            group.neg_inv = inverse_mod_2_64(group.product).wrapping_neg();
        }
        SieveTable { groups }
    })
}

/// The caller's generator behind a queue of draws already taken from
/// it but not yet consumed by the search.
struct Lookahead<'r, R: ?Sized> {
    rng: &'r mut R,
    queue: VecDeque<Vec<u8>>,
}

impl<'r, R: RngCore + ?Sized> Lookahead<'r, R> {
    fn new(rng: &'r mut R) -> Self {
        Lookahead { rng, queue: VecDeque::new() }
    }

    /// A reader of the draws after the search's position, without
    /// consuming them: it reads the queue, then draws from the
    /// generator into the queue, and runs dry at `LOOKAHEAD_CAP`
    /// queued draws.
    fn ahead(&mut self) -> Ahead<'_, 'r, R> {
        Ahead { source: self, read: 0 }
    }

    /// Consumes the first `draws` queued draws.
    fn consume(&mut self, draws: usize) {
        self.queue.drain(..draws);
    }
}

/// The search's own reads: the queue first, then the generator.
impl<R: RngCore + ?Sized> ByteSource for Lookahead<'_, R> {
    type Dry = Infallible;

    fn fill(&mut self, dest: &mut [u8]) -> Result<(), Infallible> {
        match self.queue.pop_front() {
            // One search asks for one length throughout: a candidate
            // and a base below `n − 3` both have `bits` bits.
            Some(draw) => dest.copy_from_slice(&draw),
            None => self.rng.fill_bytes(dest),
        }
        Ok(())
    }
}

/// A read-ahead position in a [`Lookahead`]'s stream.
struct Ahead<'a, 'r, R: ?Sized> {
    source: &'a mut Lookahead<'r, R>,
    /// Draws read so far, all of them now queued.
    read: usize,
}

/// The read-ahead position ran into `LOOKAHEAD_CAP`.
struct Capped;

impl<R: RngCore + ?Sized> ByteSource for Ahead<'_, '_, R> {
    type Dry = Capped;

    fn fill(&mut self, dest: &mut [u8]) -> Result<(), Capped> {
        let queue = &mut self.source.queue;
        if self.read == queue.len() {
            if queue.len() >= LOOKAHEAD_CAP {
                return Err(Capped);
            }
            let mut draw = vec![0; dest.len()];
            self.source.rng.fill_bytes(&mut draw);
            queue.push_back(draw);
        }
        dest.copy_from_slice(&self.source.queue[self.read]);
        self.read += 1;
        Ok(())
    }
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

    /// The sequential search that fixed the draw stream: trial division
    /// by the primes up to 349, then one Miller–Rabin round at a time.
    mod sequential {
        use crate::bignum::{Montgomery, Uint};
        use crate::rng;
        use rand::RngCore;

        const SMALL_PRIMES: &[u64] = &[
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83,
            89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179,
            181, 191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271,
            277, 281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349,
        ];

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
            let n_minus_1 = n.checked_sub(&Uint::one()).unwrap();
            let s = n_minus_1.trailing_zeros();
            let d = n_minus_1.shr(s);
            let bound = n.checked_sub(&Uint::from_u64(3)).unwrap();
            let mont = Montgomery::new(n).unwrap();
            'witness: for _ in 0..32 {
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

        pub fn generate_prime<R: RngCore + ?Sized>(rng: &mut R, bits: usize) -> Option<Uint> {
            for _ in 0..bits * 64 {
                let mut candidate = rng::uint_with_bits(rng, bits);
                candidate.set_bit(bits - 2);
                candidate.set_bit(0);
                if is_prime(rng, &candidate) {
                    return Some(candidate);
                }
            }
            None
        }
    }

    #[test]
    fn search_matches_the_sequential_search_and_leaves_the_rng_where_it_did() {
        // Small sizes reach every path often: small primes accepted
        // without a draw (8 bits), sieve primes as candidates, strong
        // liars that pass round 1 and fail later, and the push-back of
        // a confirming pair's second base.
        for (bits, seeds) in [(8, 300), (9, 200), (11, 200), (14, 200), (17, 200), (24, 100)] {
            for seed in 0..seeds {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut reference = rng.clone();
                let mut source = Lookahead::new(&mut rng);
                let prime = search(&mut source, bits).unwrap();
                assert!(source.queue.is_empty(), "{bits} bits, seed {seed}: draws left queued");
                assert_eq!(Some(&prime), sequential::generate_prime(&mut reference, bits).as_ref());
                assert_eq!(rng.next_u64(), reference.next_u64(), "{bits} bits, seed {seed}");
            }
        }
        for (bits, seeds) in [(33, 40), (65, 20), (96, 8)] {
            for seed in 0..seeds {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut reference = rng.clone();
                let prime = generate_prime(&mut rng, bits).unwrap();
                assert_eq!(Some(prime), sequential::generate_prime(&mut reference, bits));
                assert_eq!(rng.next_u64(), reference.next_u64(), "{bits} bits, seed {seed}");
            }
        }
    }

    #[test]
    fn is_prime_draws_as_the_sequential_test_does() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut reference = rng.clone();
        // Small numbers (sieve primes above 349 among them), the
        // sieve's largest prime and the next, and products of primes
        // above 349, which only the extended sieve divides.
        let others = [16381u64, 16411, 353 * 359, 353 * 353 * 353, 8191 * 8209, 16381 * 16411];
        for n in (0..2500).chain(others) {
            let n = Uint::from_u64(n);
            assert_eq!(is_prime(&mut rng, &n), sequential::is_prime(&mut reference, &n), "{n:?}");
            assert_eq!(rng.next_u64(), reference.next_u64(), "{n:?}");
        }
    }

    #[test]
    fn sieve_finds_the_smallest_factor_below_its_bound() {
        let mut rng = StdRng::seed_from_u64(13);
        let naive =
            |n: &Uint| (2..SIEVE_BOUND).find(|&p| rem_u64(n, p) == 0 && (2..p).all(|q| p % q != 0));
        let mut values: Vec<Uint> = (0..3000).map(Uint::from_u64).collect();
        for bits in [64, 65, 130, 1536] {
            for _ in 0..40 {
                let v = rng::uint_with_bits(&mut rng, bits);
                values.push(v.clone());
                // A planted factor above 349, with a cofactor that may
                // carry a smaller one.
                values.push(v.mul_ref(&Uint::from_u64(16381)));
            }
        }
        for n in &values {
            let expected = match (naive(n), n.to_u64()) {
                _ if n.is_zero() || n.is_one() => Sieved::Composite,
                (Some(p), Some(v)) if p == v && p <= DRAWLESS_BOUND => Sieved::Prime,
                (Some(p), Some(v)) if p == v => Sieved::Survivor,
                (Some(p), _) if p <= DRAWLESS_BOUND => Sieved::Composite,
                (Some(p), _) => Sieved::Factor(p),
                (None, _) => Sieved::Survivor,
            };
            assert_eq!(sieve(n), expected, "{n:?}");
        }
    }

    #[test]
    fn a_certain_witness_fails_round_one() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut certain = 0;
        // Composites whose smallest factor lies above 349: round 1
        // must fail for every base the check calls a witness.
        for (p, q) in [(353u64, 359u64), (353, 353), (1409, 2113), (16381, 32771)] {
            let n = Uint::from_u64(p * q);
            let witness = Witness::new(&n);
            for _ in 0..300 {
                let Ok(base) = draw_base(&mut rng, &n);
                if certain_witness(&n, &base, p) {
                    certain += 1;
                    assert!(!witness.round(&base), "{p}·{q}, base {base:?}");
                }
            }
        }
        assert!(certain > 600, "the check decides most bases: {certain}");
    }

    #[test]
    fn a_read_ahead_draw_is_redrawn_byte_for_byte() {
        let mut rng = StdRng::seed_from_u64(15);
        let mut reference = rng.clone();
        let mut source = Lookahead::new(&mut rng);
        let mut ahead = [0u8; 5];
        assert!(source.ahead().fill(&mut ahead).is_ok());
        // Not consumed: the search's own next draw is the same bytes.
        let mut drawn = [0u8; 5];
        let Ok(()) = source.fill(&mut drawn);
        let mut expected = [0u8; 5];
        reference.fill_bytes(&mut expected);
        assert_eq!((ahead, drawn), (expected, expected));
        assert!(source.queue.is_empty());
        assert_eq!(rng.next_u64(), reference.next_u64());
    }

    fn sequential_base(rng: &mut StdRng, n: &Uint) -> Uint {
        let Ok(base) = draw_base(rng, n);
        base
    }

    #[test]
    fn a_failed_confirming_pair_pushes_its_second_base_back() {
        // The product of two 128-bit primes fails round 2 for almost
        // every base, the first round of the first pair: the pair's
        // second base must come back as the next draw.
        let mut rng = StdRng::seed_from_u64(16);
        let p = generate_prime(&mut rng, 128).unwrap();
        let q = generate_prime(&mut rng, 128).unwrap();
        let n = &p * &q;
        let witness = Witness::new(&n);
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut reference = rng.clone();
            let mut source = Lookahead::new(&mut rng);
            assert!(!witness.confirm(&mut source));
            assert!(!source.queue.is_empty(), "seed {seed}: the second base was read ahead");
            // The sequential rounds stop at the first failing base.
            while witness.round(&sequential_base(&mut reference, &n)) {}
            let Ok(next) = draw_base(&mut source, &n);
            assert_eq!(next, sequential_base(&mut reference, &n));
            assert!(source.queue.is_empty());
            assert_eq!(rng.next_u64(), reference.next_u64(), "seed {seed}");
        }
    }

    #[test]
    fn a_capped_lookahead_replays_its_queue() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut reference = rng.clone();
        let mut source = Lookahead::new(&mut rng);
        let mut ahead = source.ahead();
        let mut queued = Vec::new();
        for _ in 0..LOOKAHEAD_CAP {
            let mut draw = [0u8; 3];
            assert!(ahead.fill(&mut draw).is_ok(), "capped early");
            queued.push(draw);
        }
        assert!(ahead.fill(&mut [0u8; 3]).is_err(), "no draw past the cap");
        // A second reader sees the same queued draws and the same cap.
        let mut again = source.ahead();
        for draw in &queued {
            let mut read = [0u8; 3];
            assert!(again.fill(&mut read).is_ok());
            assert_eq!(&read, draw);
        }
        assert!(again.fill(&mut [0u8; 3]).is_err());
        // The search replays the queue, then reads the generator.
        for draw in queued {
            let mut replayed = [0u8; 3];
            let Ok(()) = source.fill(&mut replayed);
            let mut expected = [0u8; 3];
            reference.fill_bytes(&mut expected);
            assert_eq!((replayed, draw), (expected, expected));
        }
        assert!(source.queue.is_empty());
        assert_eq!(rng.next_u64(), reference.next_u64());
    }

    #[test]
    fn searches_whose_lookahead_is_capped_keep_the_sequential_primes() {
        // Seeds whose first round-1 lookahead hits the cap at 512 bits,
        // where about one candidate in eight needs round 1.
        let mut capped = 0;
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut probe = rng.clone();
            let mut source = Lookahead::new(&mut probe);
            let mut budget = 512 * 64;
            let Ok(Some(Found::Candidate { .. })) = next_round_one(&mut source, 512, &mut budget)
            else {
                continue;
            };
            if next_round_one(&mut source.ahead(), 512, &mut budget).is_ok() {
                continue;
            }
            capped += 1;
            let mut reference = rng.clone();
            let prime = generate_prime(&mut rng, 512).unwrap();
            assert_eq!(Some(prime), sequential::generate_prime(&mut reference, 512));
            assert_eq!(rng.next_u64(), reference.next_u64(), "seed {seed}");
            if capped == 3 {
                return;
            }
        }
        panic!("only {capped} capped lookaheads in 200 seeds");
    }
}
