//! Modular arithmetic: Montgomery multiplication, exponentiation and
//! modular inverse — the hot path of RSA signing (Fig. 7b).

use super::{ifma, Uint};
use crate::error::CryptoError;
use std::fmt;
use std::sync::OnceLock;

/// Precomputed Montgomery context for a fixed odd modulus.
///
/// Construct once per key with [`Montgomery::new`] and reuse for many
/// exponentiations (the CAS signs one SigStruct per singleton enclave,
/// always under the same signer key). Construction costs one
/// multi-precision division plus one Montgomery product — ≈15 µs at
/// 3072 bits on a 2-vCPU x86-64 host, against ≈1 ms for the doubling
/// loop it replaced (`ablation/rsa-crt/montgomery-setup*`) — so
/// building a context per parsed key is cheap.
///
/// [`Montgomery::pow`] has two backends, picked by the CPU:
///
/// * **AVX-512 IFMA** (`bignum/ifma.rs`) — radix-2^52 almost-Montgomery
///   products, eight digits per instruction, for moduli of up to 3,326
///   bits on CPUs with `avx512f` and `avx512ifma`
///   ([`crate::bignum::ifma_available`]). Its constants (`R mod n` and
///   `R² mod n` for `R = 2^(52·D)`, where `D = ⌈(bits + 2)/52⌉` is the
///   number of digit steps in one product; two more divisions) are
///   built on the context's first `pow`, so a parsed key that never
///   exponentiates does not pay for them. A 1536-bit RSA-3072 CRT half
///   takes ≈0.53–0.55 ms on a 2-vCPU Sapphire Rapids host, against
///   ≈2.2–2.5 ms on the portable mul-only kernel
///   (`ablation/mont-sqr/pow-1536*`). [`Montgomery::pow_pair`] runs two
///   exponentiations under two contexts of one step count (or one
///   context twice) on its two-stream kernel, in ≈0.7 of the time of
///   two `pow`s: both halves of a CRT private-key operation on one
///   thread, and Miller–Rabin rounds in key generation.
/// * **Portable** — CIOS multiplication and SOS squaring over 64-bit
///   limbs, everywhere else. [`Montgomery::pow_mul_only`],
///   [`Montgomery::mul`] and [`Montgomery::sqr`] always run it; it is
///   the reference the IFMA path is tested against.
///
/// The context is immutable apart from that one-time initialisation,
/// so one context serves exponentiations on several threads at once.
/// A portable exponentiation allocates its working memory up front:
/// the 16-entry window table, an accumulator and a spare of modulus
/// width, and one set of product scratch limbs. Every Montgomery
/// product then writes into those buffers, so a 1536-bit RSA-3072 CRT
/// half runs its ≈1,900 products without touching the allocator.
///
/// `Debug` prints the modulus width, and the IFMA context's widths once
/// it exists: the contexts of an RSA private key are built over its
/// secret primes.
#[derive(Clone)]
pub struct Montgomery {
    /// The modulus, stored once: its limbs drive the product loops
    /// and the value itself reduces inputs in [`Montgomery::to_mont`].
    n: Uint,
    /// `-n^{-1} mod 2^64`.
    n0_inv: u64,
    /// `R^2 mod n` where `R = 2^(64 * limbs)`.
    r2: Vec<u64>,
    /// `R mod n` — the Montgomery form of 1, precomputed once per key
    /// so exponentiation never re-derives it per call.
    r1: Vec<u64>,
    /// The IFMA backend's constants, built by the first
    /// [`Montgomery::pow`]; `None` inside when the CPU lacks IFMA or
    /// the modulus is wider than its kernel.
    ifma: OnceLock<Option<ifma::Context>>,
}

impl fmt::Debug for Montgomery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Montgomery")
            .field("bits", &self.n.bit_len())
            .field("ifma", &self.ifma.get().and_then(Option::as_ref))
            .finish()
    }
}

/// Working limbs of the product kernels for a `k`-limb modulus. One
/// exponentiation, or one call of a one-shot helper, owns one set and
/// passes it to every product it computes.
struct Scratch {
    /// `k + 2` limbs: the CIOS accumulator, and the high half that SOS
    /// squaring assembles before its final subtraction.
    t: Vec<u64>,
    /// `2k` limbs: the SOS cross products.
    cross: Vec<u64>,
    /// `2k + 1` limbs: the SOS reduction rows.
    rows: Vec<u64>,
}

impl Scratch {
    fn new(k: usize) -> Self {
        Scratch { t: vec![0; k + 2], cross: vec![0; 2 * k], rows: vec![0; 2 * k + 1] }
    }
}

impl Montgomery {
    /// Creates a context for an odd modulus greater than one.
    ///
    /// `R^2 mod n` takes a single division of `2^(128 * limbs)` by the
    /// modulus; `R mod n` is then one Montgomery reduction of it
    /// (`REDC(R^2) = R mod n`).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKey`] if the modulus is even or
    /// not greater than one (Montgomery reduction requires
    /// `gcd(n, 2^64) = 1`).
    pub fn new(modulus: &Uint) -> Result<Self, CryptoError> {
        let mut mont = Self::without_powers(modulus)?;
        let k = mont.k();
        mont.r2 = pad(&Uint::one().shl(128 * k).rem_ref(modulus), k);
        mont.r1 = mont.redc(&mont.r2, &mut Scratch::new(k));
        Ok(mont)
    }

    /// [`Montgomery::new`] with `R^2 mod n` derived the pre-division
    /// way: `R mod n` by division, then `64 * limbs` shift-and-subtract
    /// doublings. Kept only as the `ablation/rsa-crt`
    /// `montgomery-setup-doubling` baseline and as the reference for
    /// the bit-identity property test; nothing else calls it. Its
    /// [`Montgomery::pow`] always takes the portable kernel, so it
    /// exponentiates with the constants derived here.
    ///
    /// # Errors
    ///
    /// Same as [`Montgomery::new`].
    #[doc(hidden)]
    pub fn new_by_doubling(modulus: &Uint) -> Result<Self, CryptoError> {
        let mut mont = Self::without_powers(modulus)?;
        let k = mont.k();
        let r = Uint::one().shl(64 * k).rem_ref(modulus);
        let mut r2 = r.clone();
        for _ in 0..64 * k {
            r2 = r2.shl(1);
            if let Some(reduced) = r2.checked_sub(modulus) {
                r2 = reduced;
            }
        }
        mont.r2 = pad(&r2, k);
        mont.r1 = pad(&r, k);
        mont.ifma = OnceLock::from(None);
        Ok(mont)
    }

    /// Validates the modulus and fills in everything except the
    /// powers of `R`, which the constructors derive.
    fn without_powers(modulus: &Uint) -> Result<Self, CryptoError> {
        if modulus.is_even() || modulus.is_one() || modulus.is_zero() {
            return Err(CryptoError::InvalidKey {
                context: "montgomery modulus must be odd and > 1",
            });
        }
        let n0_inv = inv_mod_u64(modulus.limbs[0]).wrapping_neg();
        Ok(Montgomery {
            n: modulus.clone(),
            n0_inv,
            r2: Vec::new(),
            r1: Vec::new(),
            ifma: OnceLock::new(),
        })
    }

    /// Number of limbs of the modulus.
    fn k(&self) -> usize {
        self.n.limbs.len()
    }

    /// Montgomery product `out = a * b * R^{-1} mod n` (CIOS method).
    /// `out` must not alias an input; it may hold anything on entry.
    ///
    /// Kept out-of-line (like [`mont_sqr`]) so the exponentiation loop
    /// alternates between two compact hot loops instead of one huge
    /// inlined body — measurably faster on small I-cache cores.
    ///
    /// [`mont_sqr`]: Montgomery::mont_sqr
    #[inline(never)]
    fn mont_mul(&self, a: &[u64], b: &[u64], out: &mut [u64], scratch: &mut Scratch) {
        let k = self.k();
        let n = self.n.limbs.as_slice();
        debug_assert_eq!(a.len(), k);
        debug_assert_eq!(b.len(), k);
        let t = &mut scratch.t[..k + 2];
        t.fill(0);
        for &ai in a {
            // t += ai * b
            let mut carry = 0u128;
            for j in 0..k {
                let s = t[j] as u128 + ai as u128 * b[j] as u128 + carry;
                t[j] = s as u64;
                carry = s >> 64;
            }
            let s = t[k] as u128 + carry;
            t[k] = s as u64;
            t[k + 1] = (s >> 64) as u64;

            // m = t[0] * n0_inv mod 2^64; t += m * n; t >>= 64
            let m = t[0].wrapping_mul(self.n0_inv);
            let s = t[0] as u128 + m as u128 * n[0] as u128;
            let mut carry = s >> 64;
            for j in 1..k {
                let s = t[j] as u128 + m as u128 * n[j] as u128 + carry;
                t[j - 1] = s as u64;
                carry = s >> 64;
            }
            let s = t[k] as u128 + carry;
            t[k - 1] = s as u64;
            t[k] = t[k + 1].wrapping_add((s >> 64) as u64);
            t[k + 1] = 0;
        }
        reduce_into(&t[..k + 1], n, out);
    }

    /// Montgomery squaring `out = a * a * R^{-1} mod n` (SOS method).
    /// `out` must not alias `a`; it may hold anything on entry.
    ///
    /// Squarings dominate windowed exponentiation (four per 4-bit
    /// window versus at most one table multiply), so they get a
    /// dedicated path: the cross products `a[i] * a[j]` with `i < j`
    /// are computed once and doubled by a single shift instead of
    /// being materialized twice as general multiplication does —
    /// nearly halving the single-precision multiplies per squaring.
    #[inline(never)]
    fn mont_sqr(&self, a: &[u64], out: &mut [u64], scratch: &mut Scratch) {
        let k = self.k();
        let n = self.n.limbs.as_slice();
        debug_assert_eq!(a.len(), k);
        // Cross-product rows: c[i + j] accumulates a[i] * a[j] for
        // i < j, each partial product touched exactly once. Inner
        // loops run over zipped subslices so the compiler drops the
        // per-limb bounds checks — at CRT half-width the checks
        // otherwise eat the multiply savings.
        let c = &mut scratch.cross[..2 * k];
        c.fill(0);
        for i in 0..k {
            let ai = a[i];
            let start = 2 * i + 1;
            let mut carry = 0u128;
            for (cij, &aj) in c[start..i + k].iter_mut().zip(&a[i + 1..]) {
                let s = *cij as u128 + ai as u128 * aj as u128 + carry;
                *cij = s as u64;
                carry = s >> 64;
            }
            let mut idx = i + k;
            while carry != 0 {
                let s = c[idx] as u128 + carry;
                c[idx] = s as u64;
                carry = s >> 64;
                idx += 1;
            }
        }

        // Montgomery reduction fused with the doubling and the
        // diagonal squares: the true product limb at position `i` is
        //     2 * c[i] (one shifted read — no doubling pass)
        //   + the low/high half of a[i/2]^2
        //   + the reduction rows accumulated in `r`
        //   + the running combination carry,
        // assembled on the fly exactly when the reduction needs it.
        // This saves a full read-modify-write sweep (and its serial
        // carry chain) over the double-width product.
        let r = &mut scratch.rows[..2 * k + 1];
        r.fill(0);
        let mut comb = 0u128;
        let mut sq = 0u128;
        for i in 0..k {
            let doubled = (c[i] << 1) | if i == 0 { 0 } else { c[i - 1] >> 63 };
            let diag = if i % 2 == 0 {
                sq = a[i / 2] as u128 * a[i / 2] as u128;
                sq as u64
            } else {
                (sq >> 64) as u64
            };
            let v = r[i] as u128 + doubled as u128 + diag as u128 + comb;
            comb = v >> 64;
            let m = (v as u64).wrapping_mul(self.n0_inv);
            // Row add m * n; the low limb cancels by construction.
            let s = v as u64 as u128 + m as u128 * n[0] as u128;
            debug_assert_eq!(s as u64, 0);
            let mut carry = s >> 64;
            for (rj, &nj) in r[i + 1..i + k].iter_mut().zip(&n[1..]) {
                let s = *rj as u128 + m as u128 * nj as u128 + carry;
                *rj = s as u64;
                carry = s >> 64;
            }
            let mut idx = i + k;
            while carry != 0 {
                let s = r[idx] as u128 + carry;
                r[idx] = s as u64;
                carry = s >> 64;
                idx += 1;
            }
        }
        // High half: combine reduction rows, doubled cross products,
        // diagonals and the carry into the result limbs.
        let high = &mut scratch.t[..k + 1];
        for (limb, p) in high.iter_mut().zip(k..=2 * k) {
            let doubled =
                if p < 2 * k { (c[p] << 1) | (c[p - 1] >> 63) } else { c[2 * k - 1] >> 63 };
            let diag = if p % 2 == 0 {
                if p / 2 < k {
                    sq = a[p / 2] as u128 * a[p / 2] as u128;
                    sq as u64
                } else {
                    0
                }
            } else {
                (sq >> 64) as u64
            };
            let v = r[p] as u128 + doubled as u128 + diag as u128 + comb;
            *limb = v as u64;
            comb = v >> 64;
        }
        debug_assert_eq!(comb, 0);
        reduce_into(high, n, out);
    }

    /// [`mont_mul`] into a newly allocated result, for the one-shot
    /// helpers.
    ///
    /// [`mont_mul`]: Montgomery::mont_mul
    fn product(&self, a: &[u64], b: &[u64], scratch: &mut Scratch) -> Vec<u64> {
        let mut out = vec![0; self.k()];
        self.mont_mul(a, b, &mut out, scratch);
        out
    }

    /// Converts into Montgomery form.
    fn to_mont(&self, a: &Uint, scratch: &mut Scratch) -> Vec<u64> {
        self.product(&pad(&a.rem_ref(&self.n), self.k()), &self.r2, scratch)
    }

    /// Montgomery reduction `a * R^{-1} mod n` (a product with 1).
    fn redc(&self, a: &[u64], scratch: &mut Scratch) -> Vec<u64> {
        let mut one = vec![0; self.k()];
        one[0] = 1;
        self.product(a, &one, scratch)
    }

    /// Converts out of Montgomery form.
    #[allow(clippy::wrong_self_convention)] // "from Montgomery form", not a constructor
    fn from_mont(&self, a: &[u64], scratch: &mut Scratch) -> Uint {
        Uint::from_limbs(self.redc(a, scratch))
    }

    /// Modular multiplication `a * b mod n`.
    #[must_use]
    pub fn mul(&self, a: &Uint, b: &Uint) -> Uint {
        let mut scratch = Scratch::new(self.k());
        let am = self.to_mont(a, &mut scratch);
        let bm = self.to_mont(b, &mut scratch);
        let product = self.product(&am, &bm, &mut scratch);
        self.from_mont(&product, &mut scratch)
    }

    /// Modular exponentiation `base^exp mod n` using a 4-bit window:
    /// on the IFMA kernel when the CPU has it and the modulus fits (see
    /// the type docs), otherwise with the window squarings on the
    /// portable dedicated `mont_sqr` path. Both give the same result.
    #[must_use]
    pub fn pow(&self, base: &Uint, exp: &Uint) -> Uint {
        match self.ifma_context() {
            Some(context) => context.pow(base, exp),
            None => self.pow_impl(base, exp, true),
        }
    }

    /// `bases[0]^exps[0] mod n` under this context and
    /// `bases[1]^exps[1]` modulo `other`'s modulus, both on the calling
    /// thread on the two-stream IFMA kernel, which interleaves the two
    /// exponentiations' products. The results equal two
    /// [`Montgomery::pow`] calls. `None` unless both contexts have IFMA
    /// kernels of the same step count, as moduli of one bit length do;
    /// the caller then runs the two `pow`s. `other` may be this very
    /// context: key generation runs two Miller–Rabin rounds of one
    /// candidate that way.
    #[must_use]
    pub fn pow_pair(
        &self,
        other: &Montgomery,
        bases: [&Uint; 2],
        exps: [&Uint; 2],
    ) -> Option<(Uint, Uint)> {
        self.ifma_context()?.pow_pair(other.ifma_context()?, bases, exps)
    }

    /// The IFMA backend, built on first use.
    fn ifma_context(&self) -> Option<&ifma::Context> {
        self.ifma.get_or_init(|| ifma::Context::new(&self.n, self.n0_inv)).as_ref()
    }

    /// [`Montgomery::pow`] on the portable kernel with squarings
    /// performed by the general multiplier instead of `mont_sqr` —
    /// never on IFMA. The pre-fast-path code,
    /// kept as the `ablation/mont-sqr` benchmark baseline and as the
    /// reference implementation for bit-identity property tests.
    #[must_use]
    pub fn pow_mul_only(&self, base: &Uint, exp: &Uint) -> Uint {
        self.pow_impl(base, exp, false)
    }

    fn pow_impl(&self, base: &Uint, exp: &Uint, use_sqr: bool) -> Uint {
        if exp.is_zero() {
            // The modulus exceeds one, so `1 mod n` is 1 itself.
            return Uint::one();
        }
        let k = self.k();
        let mut scratch = Scratch::new(k);
        let base_m = self.to_mont(base, &mut scratch);

        // Precompute base^0..base^15 in Montgomery form, entry i at
        // limbs i*k..(i+1)*k; base^0 is the per-key precomputed R mod n.
        let mut table = vec![0; 16 * k];
        table[..k].copy_from_slice(&self.r1);
        for i in 1..16 {
            let (done, rest) = table.split_at_mut(i * k);
            self.mont_mul(&done[(i - 1) * k..], &base_m, &mut rest[..k], &mut scratch);
        }

        // Each product writes into `spare`, which then swaps with `acc`.
        let mut acc = self.r1.clone(); // 1 in Montgomery form
        let mut spare = vec![0; k];
        let bits = exp.bit_len();
        let windows = bits.div_ceil(4);
        let mut started = false;
        for w in (0..windows).rev() {
            if started {
                for _ in 0..4 {
                    if use_sqr {
                        self.mont_sqr(&acc, &mut spare, &mut scratch);
                    } else {
                        self.mont_mul(&acc, &acc, &mut spare, &mut scratch);
                    }
                    std::mem::swap(&mut acc, &mut spare);
                }
            }
            let mut idx = 0usize;
            for b in 0..4 {
                let bit_pos = w * 4 + (3 - b);
                idx <<= 1;
                if bit_pos < bits && exp.bit(bit_pos) {
                    idx |= 1;
                }
            }
            // A zero window multiplies by 1 (skipped); before the first
            // set bit there is nothing to square either.
            if idx != 0 {
                self.mont_mul(&acc, &table[idx * k..(idx + 1) * k], &mut spare, &mut scratch);
                std::mem::swap(&mut acc, &mut spare);
                started = true;
            }
        }
        self.from_mont(&acc, &mut scratch)
    }

    /// Modular squaring `a^2 mod n` on the dedicated squaring path.
    #[must_use]
    pub fn sqr(&self, a: &Uint) -> Uint {
        let mut scratch = Scratch::new(self.k());
        let am = self.to_mont(a, &mut scratch);
        let mut square = vec![0; self.k()];
        self.mont_sqr(&am, &mut square, &mut scratch);
        self.from_mont(&square, &mut scratch)
    }
}

/// `a >= b` for equal-length limb slices interpreted little-endian,
/// where `a` may be one limb longer.
fn ge(a: &[u64], b: &[u64]) -> bool {
    if a.len() > b.len() && a[b.len()..].iter().any(|&l| l != 0) {
        return true;
    }
    for i in (0..b.len()).rev() {
        match a[i].cmp(&b[i]) {
            std::cmp::Ordering::Greater => return true,
            std::cmp::Ordering::Less => return false,
            std::cmp::Ordering::Equal => {}
        }
    }
    true
}

/// The final conditional subtraction of both product kernels: writes
/// `t mod n` into the `k` limbs of `out`, for a `k + 1`-limb `t < 2n`.
/// When `t >= n` the difference fits `k` limbs, so the borrow out of
/// the low `k` limbs cancels `t`'s top limb exactly.
fn reduce_into(t: &[u64], n: &[u64], out: &mut [u64]) {
    let k = n.len();
    debug_assert_eq!(t.len(), k + 1);
    debug_assert_eq!(out.len(), k);
    if !ge(t, n) {
        out.copy_from_slice(&t[..k]);
        return;
    }
    let mut borrow = 0u64;
    for ((o, &ti), &ni) in out.iter_mut().zip(t).zip(n) {
        let (d1, b1) = ti.overflowing_sub(ni);
        let (d2, b2) = d1.overflowing_sub(borrow);
        *o = d2;
        borrow = u64::from(b1) + u64::from(b2);
    }
    debug_assert_eq!(borrow, t[k]);
}

fn pad(u: &Uint, k: usize) -> Vec<u64> {
    let mut v = u.limbs.clone();
    assert!(v.len() <= k, "value wider than modulus");
    v.resize(k, 0);
    v
}

/// Inverse of an odd `x` modulo 2^64 (Newton iteration).
fn inv_mod_u64(x: u64) -> u64 {
    debug_assert!(x & 1 == 1);
    let mut inv = x; // correct to 3 bits
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    }
    debug_assert_eq!(x.wrapping_mul(inv), 1);
    inv
}

impl Uint {
    /// Modular exponentiation `self^exp mod modulus`.
    ///
    /// Uses Montgomery multiplication for odd moduli and falls back to
    /// plain square-and-multiply with division for even moduli.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    #[must_use]
    pub fn mod_pow(&self, exp: &Uint, modulus: &Uint) -> Uint {
        assert!(!modulus.is_zero(), "zero modulus");
        if modulus.is_one() {
            return Uint::zero();
        }
        if modulus.is_odd() {
            let mont = Montgomery::new(modulus).expect("odd modulus > 1");
            return mont.pow(self, exp);
        }
        // Even modulus: plain binary exponentiation (rare path, used
        // only by tests; RSA moduli are odd).
        let mut result = Uint::one();
        let mut base = self.rem_ref(modulus);
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                result = (&result * &base).rem_ref(modulus);
            }
            base = (&base * &base).rem_ref(modulus);
        }
        result
    }

    /// Modular inverse `self^{-1} mod modulus`, or `None` when it does
    /// not exist (`gcd(self, modulus) != 1`).
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero or one.
    #[must_use]
    pub fn mod_inv(&self, modulus: &Uint) -> Option<Uint> {
        assert!(!modulus.is_zero() && !modulus.is_one(), "invalid modulus");
        // Extended Euclid with sign tracking on the Bezout coefficient.
        let mut r0 = modulus.clone();
        let mut r1 = self.rem_ref(modulus);
        if r1.is_zero() {
            return None;
        }
        // t0 + s0*x = r0 (mod m) invariant, signs tracked separately.
        let mut t0 = (Uint::zero(), false); // (magnitude, negative?)
        let mut t1 = (Uint::one(), false);

        while !r1.is_zero() {
            let (q, r) = r0.div_rem(&r1);
            // t = t0 - q * t1 (signed)
            let qt1 = &q * &t1.0;
            let t = signed_sub(&t0, &(qt1, t1.1));
            r0 = std::mem::replace(&mut r1, r);
            t0 = std::mem::replace(&mut t1, t);
        }

        if !r0.is_one() {
            return None;
        }
        let (mag, neg) = t0;
        let mag = mag.rem_ref(modulus);
        Some(if neg && !mag.is_zero() {
            modulus.checked_sub(&mag).expect("mag < modulus")
        } else {
            mag
        })
    }
}

/// Signed subtraction `a - b` over (magnitude, negative?) pairs.
fn signed_sub(a: &(Uint, bool), b: &(Uint, bool)) -> (Uint, bool) {
    match (a.1, b.1) {
        // a - b with both positive.
        (false, false) => match a.0.checked_sub(&b.0) {
            Some(d) => (d, false),
            None => (b.0.checked_sub(&a.0).expect("b > a"), true),
        },
        // (-a) - (-b) = b - a.
        (true, true) => match b.0.checked_sub(&a.0) {
            Some(d) => (d, false),
            None => (a.0.checked_sub(&b.0).expect("a > b"), true),
        },
        // a - (-b) = a + b.
        (false, true) => (a.0.add_ref(&b.0), false),
        // (-a) - b = -(a + b).
        (true, false) => (a.0.add_ref(&b.0), true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn inv_mod_u64_examples() {
        for x in [1u64, 3, 5, 0xdead_beef_1234_5679, u64::MAX] {
            assert_eq!(x.wrapping_mul(inv_mod_u64(x)), 1, "x = {x}");
        }
    }

    #[test]
    fn montgomery_rejects_even_modulus() {
        assert!(Montgomery::new(&Uint::from_u64(10)).is_err());
        assert!(Montgomery::new(&Uint::from_u64(1)).is_err());
        assert!(Montgomery::new(&Uint::zero()).is_err());
    }

    #[test]
    fn mont_mul_matches_naive() {
        let n = Uint::from_hex("f123456789abcdef0123456789abcdef1").unwrap();
        let mont = Montgomery::new(&n).unwrap();
        let a = Uint::from_hex("abcdef0123456789").unwrap();
        let b = Uint::from_hex("123456789abcdef01234").unwrap();
        assert_eq!(mont.mul(&a, &b), (&a * &b).rem_ref(&n));
    }

    #[test]
    fn mod_pow_small_values() {
        let m = Uint::from_u64(1_000_000_007);
        assert_eq!(Uint::from_u64(2).mod_pow(&Uint::from_u64(10), &m), Uint::from_u64(1024));
        // Fermat: a^(p-1) = 1 mod p.
        assert_eq!(Uint::from_u64(31337).mod_pow(&Uint::from_u64(1_000_000_006), &m), Uint::one());
    }

    #[test]
    fn mod_pow_zero_exponent_and_base() {
        let m = Uint::from_u64(97);
        assert_eq!(Uint::from_u64(5).mod_pow(&Uint::zero(), &m), Uint::one());
        assert_eq!(Uint::zero().mod_pow(&Uint::from_u64(5), &m), Uint::zero());
        assert_eq!(Uint::from_u64(5).mod_pow(&Uint::from_u64(3), &Uint::one()), Uint::zero());
    }

    #[test]
    fn mod_pow_even_modulus_fallback() {
        let m = Uint::from_u64(100);
        assert_eq!(Uint::from_u64(7).mod_pow(&Uint::from_u64(3), &m), Uint::from_u64(43));
    }

    #[test]
    fn mod_pow_large_modulus() {
        // 2^255 - 19 is prime; check Fermat's little theorem for it.
        let p = Uint::one().shl(255).checked_sub(&Uint::from_u64(19)).unwrap();
        let a = Uint::from_hex("123456789abcdef123456789abcdef123456789abcdef").unwrap();
        let p_minus_1 = p.checked_sub(&Uint::one()).unwrap();
        assert_eq!(a.mod_pow(&p_minus_1, &p), Uint::one());
    }

    #[test]
    fn mod_inv_examples() {
        let m = Uint::from_u64(97);
        let inv = Uint::from_u64(31).mod_inv(&m).unwrap();
        assert_eq!((&inv * &Uint::from_u64(31)).rem_ref(&m), Uint::one());
        // 0 and non-coprime values have no inverse.
        assert!(Uint::zero().mod_inv(&m).is_none());
        assert!(Uint::from_u64(6).mod_inv(&Uint::from_u64(9)).is_none());
    }

    #[test]
    fn mod_inv_large() {
        let p = Uint::one().shl(255).checked_sub(&Uint::from_u64(19)).unwrap();
        let a = Uint::from_hex("deadbeefcafebabe0123456789abcdef").unwrap();
        let inv = a.mod_inv(&p).unwrap();
        assert_eq!((&inv * &a).rem_ref(&p), Uint::one());
    }

    /// Deterministic pseudo-random value of `limbs` limbs (RSA-width
    /// coverage the small proptest strategies do not reach).
    fn wide(limbs: usize, mut x: u64) -> Uint {
        let mut v = Vec::with_capacity(limbs);
        for _ in 0..limbs {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            v.push(x);
        }
        Uint::from_limbs(v)
    }

    #[test]
    fn sqr_and_pow_agree_at_rsa_width() {
        // 1536-bit and 3072-bit odd moduli: the width of one RSA-3072
        // CRT half, and of the full RSA-3072 modulus.
        for limbs in [24, 48] {
            let mut m = wide(limbs, 1);
            m.set_bit(0);
            let mont = Montgomery::new(&m).unwrap();
            let a = wide(limbs, 2).rem_ref(&m);
            assert_eq!(mont.sqr(&a), (&a * &a).rem_ref(&m), "{limbs} limbs");
            let e = wide(limbs, 3);
            assert_eq!(mont.pow(&a, &e), mont.pow_mul_only(&a, &e), "{limbs} limbs");
        }
    }

    #[test]
    fn reused_context_matches_fresh_mod_pow() {
        // One context runs exponentiation after exponentiation; none
        // may see working limbs a previous one left behind. The
        // exponents go from full width to zero and back, and the bases
        // include the modulus, values above it and a wider value.
        let mut m = wide(24, 4);
        m.set_bit(0);
        let mont = Montgomery::new(&m).unwrap();
        let full = wide(24, 5);
        let exponents =
            [full.clone(), Uint::zero(), Uint::one(), Uint::from_u64(65_537), full, Uint::one()];
        let bases = [m.clone(), m.add_ref(&Uint::one()), wide(30, 6), wide(24, 7).rem_ref(&m)];
        for e in &exponents {
            for a in &bases {
                assert_eq!(mont.pow(a, e), a.mod_pow(e, &m), "a = {a:?}, e = {e:?}");
            }
        }
    }

    /// An odd modulus of exactly `bits` bits, pseudo-random below its
    /// top bit.
    fn odd_modulus(bits: usize, seed: u64) -> Uint {
        let mut m = wide(bits.div_ceil(64), seed).rem_ref(&Uint::one().shl(bits - 1));
        m.set_bit(bits - 1);
        m.set_bit(0);
        m
    }

    /// The IFMA context for `m`, built directly, or `None` — after
    /// printing so — on a CPU without IFMA.
    fn ifma_context(m: &Uint) -> Option<ifma::Context> {
        if !ifma::available() {
            println!("IFMA absent, portable only");
            return None;
        }
        let n0_inv = Montgomery::new(m).unwrap().n0_inv;
        Some(ifma::Context::new(m, n0_inv).expect("modulus fits the IFMA kernel"))
    }

    /// Widest modulus the IFMA kernel accepts, in bits: `R = 2^3328`
    /// must exceed `4n`.
    const IFMA_MAX_BITS: usize = 52 * 64 - 2;

    /// The bases and exponents of the cross-backend tests for `m`.
    fn edge_cases(m: &Uint, seed: u64) -> (Vec<Uint>, Vec<Uint>) {
        let bits = m.bit_len();
        let all_ones = Uint::one().shl(bits).checked_sub(&Uint::one()).unwrap();
        let r = Uint::one().shl(52 * 8 * bits.div_ceil(416));
        let bases = vec![
            Uint::zero(),
            Uint::one(),
            m.checked_sub(&Uint::one()).unwrap(),
            m.clone(),
            m.add_ref(&Uint::one()),
            all_ones.clone(),
            r.add_ref(&wide(3, seed)),
            wide(bits.div_ceil(64), seed + 1).rem_ref(m),
        ];
        let exponents = vec![
            Uint::zero(),
            Uint::one(),
            Uint::from_u64(2),
            Uint::from_u64(65_537),
            odd_modulus(bits, seed + 2),
            all_ones,
        ];
        (bases, exponents)
    }

    #[test]
    fn ifma_pow_bit_identical_to_portable_at_crt_widths() {
        // The CRT halves of 1024-, 2048- and 3072-bit keys.
        for (bits, seed) in [(512, 50), (1024, 51), (1536, 52)] {
            let m = odd_modulus(bits, seed);
            let Some(context) = ifma_context(&m) else { return };
            let mont = Montgomery::new(&m).unwrap();
            let (bases, exponents) = edge_cases(&m, seed);
            for e in &exponents {
                for a in &bases {
                    let portable = mont.pow_impl(a, e, true);
                    assert_eq!(context.pow(a, e), portable, "{bits} bits, a = {a:?}, e = {e:?}");
                }
            }
            let (a, e) = (&bases[7], &exponents[4]);
            assert_eq!(context.pow(a, e), mont.pow_mul_only(a, e), "{bits} bits");
        }
    }

    #[test]
    fn ifma_pow_bit_identical_to_portable_at_every_vector_count() {
        // For each vector count, the widest modulus it takes (one bit
        // more needs the next count) and the narrowest.
        for vectors in 1..=8usize {
            for bits in [416 * vectors - 2, (416 * vectors).saturating_sub(417).max(64)] {
                let m = odd_modulus(bits, 60 + bits as u64);
                let Some(context) = ifma_context(&m) else { return };
                assert!(format!("{context:?}").contains(&format!("vectors: {vectors}")));
                let mont = Montgomery::new(&m).unwrap();
                let (bases, exponents) = edge_cases(&m, bits as u64);
                for e in &exponents[..4] {
                    for a in &bases {
                        assert_eq!(context.pow(a, e), mont.pow_impl(a, e, true), "{bits} bits");
                    }
                }
                let (a, e) = (&bases[7], &exponents[4]);
                assert_eq!(context.pow(a, e), mont.pow_impl(a, e, true), "{bits} bits");
            }
        }
        let too_wide = odd_modulus(IFMA_MAX_BITS + 1, 70);
        assert!(ifma::Context::new(&too_wide, 1).is_none());
    }

    #[test]
    fn ifma_pow_bit_identical_to_portable_at_every_step_count() {
        // For each step count `D`, the widest modulus it takes
        // (`bits + 2 = 52·D`; one bit more needs `D + 1`) and the
        // narrowest (`bits + 2 = 52·(D − 1) + 1`; for `D = 1`, the
        // smallest modulus, 3), on the single- and two-stream kernels.
        // Exponents: the short edge cases, then a 256-bit one that
        // reaches every table entry. Full-width exponents are covered
        // at every vector count above; at all 128 moduli they would
        // cost about a minute unoptimized.
        let long = wide(4, 93);
        for steps in 1..=64usize {
            for bits in [52 * steps - 2, (52 * steps).saturating_sub(53).max(2)] {
                let (m0, m1) = (odd_modulus(bits, 90), odd_modulus(bits, 91));
                let (Some(c0), Some(c1)) = (ifma_context(&m0), ifma_context(&m1)) else { return };
                for context in [&c0, &c1] {
                    let debug = format!("{context:?}");
                    assert!(
                        debug.ends_with(&format!(" steps: {steps} }}")),
                        "{bits} bits: {debug}"
                    );
                }
                let (p0, p1) = (Montgomery::new(&m0).unwrap(), Montgomery::new(&m1).unwrap());
                let (bases0, exponents) = edge_cases(&m0, bits as u64);
                let (bases1, _) = edge_cases(&m1, bits as u64 + 1);
                for e in &exponents[..4] {
                    for a in &bases0 {
                        assert_eq!(c0.pow(a, e), p0.pow_impl(a, e, true), "{bits} bits, a = {a:?}");
                    }
                }
                // Every base on each side, each exponent pair in turn.
                let pairs = exponent_pairs();
                for (j, (a0, a1)) in bases0.iter().zip(bases1.iter().rev()).enumerate() {
                    let (e0, e1) = &pairs[j % pairs.len()];
                    let pair = c0.pow_pair(&c1, [a0, a1], [e0, e1]).expect("same step count");
                    let portable = (p0.pow_impl(a0, e0, true), p1.pow_impl(a1, e1, true));
                    assert_eq!(pair, portable, "{bits} bits, base {j}");
                }
                let (a0, a1) = (&bases0[7], &bases1[5]);
                let reference = (p0.pow_mul_only(a0, &long), p1.pow_mul_only(a1, &exponents[3]));
                assert_eq!(c0.pow(a0, &long), reference.0, "{bits} bits");
                let pair = c0.pow_pair(&c1, [a0, a1], [&long, &exponents[3]]);
                assert_eq!(pair, Some(reference), "{bits} bits");
            }
        }
    }

    #[test]
    fn ifma_steps_at_rsa_widths() {
        // `D = ⌈(bits + 2)/52⌉`: the RSA-1024 and RSA-3072 CRT halves,
        // and both keys' full-width public operations.
        for (bits, steps, vectors) in [(512, 10, 2), (1024, 20, 3), (1536, 30, 4), (3072, 60, 8)] {
            let Some(context) = ifma_context(&odd_modulus(bits, 92)) else { return };
            let expected =
                format!("IfmaContext {{ bits: {bits}, vectors: {vectors}, steps: {steps} }}");
            assert_eq!(format!("{context:?}"), expected);
        }
    }

    /// Exponent pairs for the two-stream kernel: unequal bit lengths
    /// either way round, a zero exponent on either side, and runs of
    /// zero windows (`0x1_0000_0001`).
    fn exponent_pairs() -> Vec<(Uint, Uint)> {
        let sparse = Uint::from_u64(0x1_0000_0001);
        vec![
            (sparse.clone(), Uint::from_u64(65_537)),
            (Uint::from_u64(2), sparse.clone()),
            (Uint::zero(), Uint::from_u64(65_537)),
            (sparse, Uint::zero()),
            (Uint::zero(), Uint::one()),
        ]
    }

    #[test]
    fn ifma_pow_pair_bit_identical_at_every_vector_count() {
        // Two moduli of one width per vector count, every edge-case
        // base on each side, against the single-stream kernel; then
        // full-width exponents of unequal length, also against the
        // portable mul-only reference.
        for vectors in 1..=8usize {
            let bits = 416 * vectors - 2 - vectors % 2 * 200;
            let (m0, m1) = (odd_modulus(bits, 80), odd_modulus(bits, 81));
            let (Some(c0), Some(c1)) = (ifma_context(&m0), ifma_context(&m1)) else { return };
            let (bases0, _) = edge_cases(&m0, bits as u64);
            let (bases1, _) = edge_cases(&m1, bits as u64 + 1);
            for (i, (e0, e1)) in exponent_pairs().iter().enumerate() {
                for (j, a0) in bases0.iter().enumerate() {
                    let a1 = &bases1[(i + j) % bases1.len()];
                    let pair = c0.pow_pair(&c1, [a0, a1], [e0, e1]).expect("same width");
                    let single = (c0.pow(a0, e0), c1.pow(a1, e1));
                    assert_eq!(pair, single, "{bits} bits, pair {i}, base {j}");
                }
            }
            let full = odd_modulus(bits, 82);
            let shorter = Uint::one().shl(bits / 2).add_ref(&Uint::from_u64(0x1_0000_0001));
            let (a0, a1) = (&bases0[7], &bases1[6]);
            let (p0, p1) = (Montgomery::new(&m0).unwrap(), Montgomery::new(&m1).unwrap());
            for [e0, e1] in [[&full, &shorter], [&shorter, &full]] {
                let pair = c0.pow_pair(&c1, [a0, a1], [e0, e1]).expect("same width");
                assert_eq!(pair, (c0.pow(a0, e0), c1.pow(a1, e1)), "{bits} bits");
                let portable = (p0.pow_mul_only(a0, e0), p1.pow_mul_only(a1, e1));
                assert_eq!(pair, portable, "{bits} bits");
            }
        }
    }

    #[test]
    fn pow_pair_needs_two_ifma_kernels_of_one_width() {
        let (a, e) = (wide(2, 83), Uint::from_u64(65_537));
        let [m512, m1024, too_wide] = [512, 1024, IFMA_MAX_BITS + 1]
            .map(|bits| Montgomery::new(&odd_modulus(bits, 84)).unwrap());
        let other512 = Montgomery::new(&odd_modulus(512, 85)).unwrap();
        let pair = m512.pow_pair(&other512, [&a, &a], [&e, &e]);
        if ifma::available() {
            assert_eq!(pair, Some((m512.pow(&a, &e), other512.pow(&a, &e))));
        } else {
            println!("IFMA absent, portable only");
            assert_eq!(pair, None);
        }
        assert_eq!(m512.pow_pair(&m1024, [&a, &a], [&e, &e]), None);
        assert_eq!(too_wide.pow_pair(&too_wide, [&a, &a], [&e, &e]), None);
        // The doubling-built reference never runs on IFMA.
        let reference = Montgomery::new_by_doubling(&odd_modulus(512, 85)).unwrap();
        assert_eq!(m512.pow_pair(&reference, [&a, &a], [&e, &e]), None);
        // One vector count (`V = 2`), two step counts (`D = 10, 11`).
        let [m518, m519] = [518, 519].map(|bits| Montgomery::new(&odd_modulus(bits, 86)).unwrap());
        assert_eq!(m518.pow_pair(&m519, [&a, &a], [&e, &e]), None);
        if ifma::available() {
            for (mont, steps) in [(&m518, 10), (&m519, 11)] {
                let debug = format!("{:?}", mont.ifma_context().expect("fits the kernel"));
                assert!(debug.ends_with(&format!("vectors: 2, steps: {steps} }}")), "{debug}");
            }
        }
    }

    #[test]
    fn pow_dispatches_to_ifma_where_the_modulus_fits() {
        for (bits, fits) in [(1536, true), (IFMA_MAX_BITS, true), (IFMA_MAX_BITS + 1, false)] {
            let m = odd_modulus(bits, 71);
            let mont = Montgomery::new(&m).unwrap();
            assert!(mont.ifma.get().is_none(), "built before the first pow");
            let (a, e) = (wide(2, 72), Uint::from_u64(65_537));
            assert_eq!(mont.pow(&a, &e), mont.pow_impl(&a, &e, true));
            let built = mont.ifma.get().expect("initialised by pow").is_some();
            if !ifma::available() {
                println!("IFMA absent, portable only");
                assert!(!built);
            } else {
                assert_eq!(built, fits, "{bits} bits");
            }
        }
    }

    #[test]
    fn reused_ifma_context_matches_fresh_portable_contexts() {
        // One context runs exponentiation after exponentiation, from
        // full width to zero and back; none may see state a previous
        // one left behind. The reference builds a new portable context
        // every time.
        let m = odd_modulus(1536, 73);
        let Some(context) = ifma_context(&m) else { return };
        let full = wide(24, 74);
        let exponents =
            [full.clone(), Uint::zero(), Uint::one(), Uint::from_u64(65_537), full, Uint::one()];
        let bases = [m.clone(), m.add_ref(&Uint::one()), wide(30, 75), wide(24, 76).rem_ref(&m)];
        for e in &exponents {
            for a in &bases {
                let fresh = Montgomery::new(&m).unwrap().pow_impl(a, e, true);
                assert_eq!(context.pow(a, e), fresh, "a = {a:?}, e = {e:?}");
            }
        }
    }

    #[test]
    fn radix52_round_trips() {
        for limbs in [1, 2, 13, 24, 52] {
            let x = wide(limbs, limbs as u64);
            let digits = (64 * limbs).div_ceil(52);
            assert_eq!(ifma::from_radix52(&ifma::to_radix52(&x, digits)), x);
            assert!(ifma::to_radix52(&x, digits).iter().all(|&d| d < 1 << 52));
        }
    }

    fn arb_uint(max_limbs: usize) -> impl Strategy<Value = Uint> {
        proptest::collection::vec(any::<u64>(), 0..max_limbs).prop_map(Uint::from_limbs)
    }

    /// Odd moduli of 1–48 limbs (up to RSA-3072 width). Half of them
    /// get a sparse top limb — a single set bit, or a few low bits —
    /// the shapes where `2^(128 k) mod n` and the doubling loop's
    /// conditional subtractions differ most in how often they reduce.
    fn arb_odd_modulus() -> impl Strategy<Value = Uint> {
        (1usize..49, proptest::collection::vec(any::<u64>(), 48..49), 0u32..64, any::<bool>())
            .prop_map(|(k, mut limbs, shift, sparse)| {
                limbs.truncate(k);
                let top = limbs[k - 1];
                limbs[k - 1] = if sparse { 1u64 << shift } else { (top >> shift) | 1 };
                limbs[0] |= 1;
                Uint::from_limbs(limbs)
            })
    }

    #[test]
    fn one_division_setup_matches_doubling_at_edges() {
        // One limb, the smallest moduli, and a full 3072-bit modulus
        // with a lone top bit.
        let mut sparse_top = wide(48, 9);
        sparse_top.limbs[47] = 1;
        sparse_top.set_bit(0);
        for m in [
            Uint::from_u64(3),
            Uint::from_u64(u64::MAX),
            Uint::one().shl(64).add_ref(&Uint::one()),
            sparse_top,
        ] {
            let fast = Montgomery::new(&m).unwrap();
            let reference = Montgomery::new_by_doubling(&m).unwrap();
            assert_eq!(fast.r2, reference.r2, "R^2 mod n for {m:?}");
            assert_eq!(fast.r1, reference.r1, "R mod n for {m:?}");
            // The reference exponentiates on the portable kernel with
            // its own constants, whichever backend `fast` takes.
            let (a, e) = (wide(2, 10), Uint::from_u64(65_537));
            assert_eq!(fast.pow(&a, &e), reference.pow(&a, &e), "{m:?}");
            assert!(reference.ifma.get().is_some_and(Option::is_none));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_one_division_setup_matches_doubling_reference(m in arb_odd_modulus()) {
            prop_assume!(!m.is_one());
            let fast = Montgomery::new(&m).unwrap();
            let reference = Montgomery::new_by_doubling(&m).unwrap();
            prop_assert_eq!(&fast.n, &reference.n);
            prop_assert_eq!(fast.n0_inv, reference.n0_inv);
            prop_assert_eq!(&fast.r2, &reference.r2);
            prop_assert_eq!(&fast.r1, &reference.r1);
        }

        #[test]
        fn prop_mont_mul_matches_division(
            a in arb_uint(5),
            b in arb_uint(5),
            mut m in arb_uint(5),
        ) {
            m.set_bit(0); // force odd
            prop_assume!(!m.is_one());
            let mont = Montgomery::new(&m).unwrap();
            prop_assert_eq!(mont.mul(&a, &b), (&a * &b).rem_ref(&m));
        }

        #[test]
        fn prop_pow_addition_law(
            a in arb_uint(3),
            e1 in 0u64..512,
            e2 in 0u64..512,
            mut m in arb_uint(3),
        ) {
            m.set_bit(0);
            prop_assume!(!m.is_one());
            let mont = Montgomery::new(&m).unwrap();
            let lhs = mont.pow(&a, &Uint::from_u64(e1 + e2));
            let rhs = (&mont.pow(&a, &Uint::from_u64(e1)) * &mont.pow(&a, &Uint::from_u64(e2))).rem_ref(&m);
            prop_assert_eq!(lhs, rhs);
        }

        #[test]
        fn prop_sqr_matches_mul_and_division(a in arb_uint(5), mut m in arb_uint(5)) {
            m.set_bit(0); // force odd
            prop_assume!(!m.is_one());
            let mont = Montgomery::new(&m).unwrap();
            let sq = mont.sqr(&a);
            prop_assert_eq!(&sq, &mont.mul(&a, &a));
            prop_assert_eq!(sq, (&a * &a).rem_ref(&m));
        }

        #[test]
        fn prop_pow_bit_identical_to_mul_only_path(
            a in arb_uint(4),
            e in arb_uint(2),
            mut m in arb_uint(4),
        ) {
            m.set_bit(0);
            prop_assume!(!m.is_one());
            let mont = Montgomery::new(&m).unwrap();
            prop_assert_eq!(mont.pow(&a, &e), mont.pow_mul_only(&a, &e));
        }

        #[test]
        fn prop_ifma_pow_matches_portable_at_random_widths(
            bits in 64usize..IFMA_MAX_BITS + 1,
            seed in any::<u64>(),
            e in arb_uint(2),
        ) {
            let m = odd_modulus(bits, seed);
            let Some(context) = ifma_context(&m) else { return Ok(()) };
            let a = wide(bits.div_ceil(64) + 1, seed ^ 1);
            let mont = Montgomery::new(&m).unwrap();
            prop_assert_eq!(context.pow(&a, &e), mont.pow_impl(&a, &e, true));
        }

        #[test]
        fn prop_ifma_pow_pair_matches_single_stream_at_random_equal_widths(
            bits in 64usize..IFMA_MAX_BITS + 1,
            seed in any::<u64>(),
            e0 in arb_uint(3),
            e1 in arb_uint(3),
        ) {
            let (m0, m1) = (odd_modulus(bits, seed), odd_modulus(bits, seed ^ 2));
            let (Some(c0), Some(c1)) = (ifma_context(&m0), ifma_context(&m1)) else {
                return Ok(());
            };
            let (a0, a1) = (wide(bits.div_ceil(64) + 1, seed ^ 3), wide(bits.div_ceil(64), seed ^ 4));
            let pair = c0.pow_pair(&c1, [&a0, &a1], [&e0, &e1]);
            prop_assert_eq!(pair, Some((c0.pow(&a0, &e0), c1.pow(&a1, &e1))));
        }

        #[test]
        fn prop_inverse_multiplies_to_one(a in arb_uint(4), mut m in arb_uint(4)) {
            m.set_bit(0);
            m.set_bit(80); // ensure m > 1 and reasonably big
            if let Some(inv) = a.mod_inv(&m) {
                prop_assert_eq!((&inv * &a).rem_ref(&m), Uint::one());
                prop_assert!(inv < m);
            } else {
                prop_assert!(!a.gcd(&m).is_one() || a.rem_ref(&m).is_zero());
            }
        }
    }
}
