//! Radix-2^52 almost-Montgomery exponentiation on AVX-512 IFMA.
//!
//! The portable kernels in [`super::modular`] multiply 64-bit limbs
//! through `u128`, one partial product at a time. Intel's IFMA
//! extension (`vpmadd52luq` / `vpmadd52huq`) multiplies eight 52-bit
//! digits by one broadcast digit per instruction and adds the low or
//! high 52 bits of each 104-bit product into 64-bit lanes, so the lanes
//! absorb carries for dozens of steps before they must be propagated.
//! This module runs [`super::Montgomery::pow`] on that instruction
//! pair when the CPU has it, after Gueron & Krasnov, "Accelerating Big
//! Integer Arithmetic Using Intel IFMA Extensions" (ARITH 2016), the
//! scheme OpenSSL's `rsaz-*-avx512` code also uses.
//!
//! # Representation
//!
//! A value is `8·V` radix-2^52 digits held in `V` 512-bit vectors, one
//! digit per 64-bit lane, least significant first. The vector count
//! `V` is the smallest for which `R = 2^(52·8V)` exceeds four times
//! the modulus; the kernel is one function generic over `V`,
//! instantiated for `V = 1..=8`, which covers moduli of up to 3,326
//! bits: every RSA-3072 CRT half (1536 bits, `V = 4`) and full-width
//! public operation (`V = 8`), and the 1024-bit channel keys' halves
//! (`V = 2`). Wider moduli stay on the portable kernels.
//!
//! # Almost-Montgomery multiplication
//!
//! One product `a·b·R⁻¹ mod n` scans `b` a digit at a time. Each step
//! broadcasts `b[i]`, adds `lo52(a·b[i])` to the accumulator, derives
//! `y = acc[0]·k0 mod 2^52` (`k0 = −n⁻¹ mod 2^52`) so that adding
//! `lo52(n·y)` clears the low 52 bits of lane 0, shifts the accumulator
//! down one lane carrying lane 0's top bits along, and adds
//! `hi52(a·b[i])` and `hi52(n·y)`, which belong one digit up. Lanes are
//! normalised once per product. Because `R > 4n`, inputs below `2n`
//! give an output below `2n`, so no product needs the conditional
//! subtraction of the portable kernels: [`Context::pow`] reduces exactly
//! once, at the end.
//!
//! `y` is computed in the vector unit (`lo52(acc[0]·k0)` plus a per-step
//! `lo52(b[i]·lo52(a[0]·k0))` that does not depend on the accumulator),
//! so a step's critical path is one multiply-add for `y`, one
//! broadcast, the `lo52(n·y)` multiply-add, the lane shift and one add.
//!
//! # Secrets
//!
//! The contexts of an RSA private key hold its primes in radix 52;
//! [`Context`]'s `Debug` prints widths only. The exponentiation has the
//! same window-table access pattern as the portable one, and no
//! per-product conditional subtraction.
//!
//! The intrinsics run inside `#[target_feature]` functions; the one
//! `unsafe` operation is the call into them, made only by contexts
//! that [`available`] allowed to exist.

use super::Uint;
use std::fmt;

/// Bits per digit.
const DIGIT_BITS: usize = 52;
/// The low 52 bits.
const DIGIT_MASK: u64 = (1 << DIGIT_BITS) - 1;
/// Digits per 512-bit vector.
const LANES: usize = 8;
/// The widest instantiation of the kernel, in vectors.
const MAX_VECTORS: usize = 8;

/// Whether the CPU has AVX-512F and AVX-512 IFMA, detected once.
pub(super) fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512ifma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The vector count for a modulus of `bits` bits: the smallest `V`
/// with `2^(52·8V) >= 2^(bits + 2) > 4n`, or `None` beyond the widest
/// instantiation.
fn vectors_for(bits: usize) -> Option<usize> {
    let vectors = (bits + 2).div_ceil(DIGIT_BITS * LANES);
    (vectors <= MAX_VECTORS).then_some(vectors)
}

/// Per-modulus constants of the IFMA kernel, in radix 2^52.
#[derive(Clone)]
pub(super) struct Context {
    /// Vectors per value (`V`).
    vectors: usize,
    /// The modulus, kept in radix 64 for the final reduction.
    modulus: Uint,
    /// The modulus digits.
    n: Vec<u64>,
    /// `R mod n`: the Montgomery form of 1, window-table entry 0.
    r1: Vec<u64>,
    /// `R² mod n`: converts a base into Montgomery form.
    r2: Vec<u64>,
    /// `−n⁻¹ mod 2^52`.
    k0: u64,
}

impl fmt::Debug for Context {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IfmaContext")
            .field("bits", &self.modulus.bit_len())
            .field("vectors", &self.vectors)
            .finish()
    }
}

impl Context {
    /// Builds the constants for an odd modulus `n > 1` whose
    /// `−n⁻¹ mod 2^64` is `n0_inv`: two divisions, for `R mod n` and
    /// `R² mod n`. `None` when the CPU lacks IFMA or `n` is wider than
    /// the kernel.
    pub(super) fn new(n: &Uint, n0_inv: u64) -> Option<Self> {
        if !available() {
            return None;
        }
        let vectors = vectors_for(n.bit_len())?;
        let digits = vectors * LANES;
        Some(Context {
            vectors,
            modulus: n.clone(),
            n: to_radix52(n, digits),
            r1: to_radix52(&Uint::one().shl(DIGIT_BITS * digits).rem_ref(n), digits),
            r2: to_radix52(&Uint::one().shl(2 * DIGIT_BITS * digits).rem_ref(n), digits),
            k0: n0_inv & DIGIT_MASK,
        })
    }

    /// `base^exp mod n` with a 4-bit fixed window, the same schedule as
    /// the portable [`super::Montgomery::pow`].
    pub(super) fn pow(&self, base: &Uint, exp: &Uint) -> Uint {
        if exp.is_zero() {
            // The modulus exceeds one, so `1 mod n` is 1 itself.
            return Uint::one();
        }
        let base = to_radix52(&base.rem_ref(&self.modulus), self.vectors * LANES);
        let digits = match self.vectors {
            1 => self.run::<1>(&base, exp),
            2 => self.run::<2>(&base, exp),
            3 => self.run::<3>(&base, exp),
            4 => self.run::<4>(&base, exp),
            5 => self.run::<5>(&base, exp),
            6 => self.run::<6>(&base, exp),
            7 => self.run::<7>(&base, exp),
            _ => self.run::<8>(&base, exp),
        };
        // The last product leaves a value of at most n; n itself is 0.
        let r = from_radix52(&digits);
        r.checked_sub(&self.modulus).unwrap_or(r)
    }

    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    fn run<const V: usize>(&self, base: &[u64], exp: &Uint) -> Vec<u64> {
        // SAFETY: a `Context` exists only where `available()` saw the
        // avx512f and avx512ifma features `kernel::pow` is compiled for
        // (`Context::new`); `vectors` sized its slices to `8·V` digits.
        unsafe { kernel::pow::<V>(&self.n, &self.r1, &self.r2, self.k0, base, exp) }
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn run<const V: usize>(&self, _base: &[u64], _exp: &Uint) -> Vec<u64> {
        unreachable!("IFMA contexts exist only on x86-64")
    }
}

/// The low `digits` radix-2^52 digits of `x`.
pub(crate) fn to_radix52(x: &Uint, digits: usize) -> Vec<u64> {
    let limbs = &x.limbs;
    (0..digits)
        .map(|d| {
            let (limb, shift) = (d * DIGIT_BITS / 64, d * DIGIT_BITS % 64);
            let low = limbs.get(limb).map_or(0, |&l| l >> shift);
            let high = match limbs.get(limb + 1) {
                Some(&l) if shift > 64 - DIGIT_BITS => l << (64 - shift),
                _ => 0,
            };
            (low | high) & DIGIT_MASK
        })
        .collect()
}

/// The value of normalised radix-2^52 digits.
pub(super) fn from_radix52(digits: &[u64]) -> Uint {
    let mut limbs = vec![0u64; (digits.len() * DIGIT_BITS).div_ceil(64)];
    for (d, &digit) in digits.iter().enumerate() {
        let (limb, shift) = (d * DIGIT_BITS / 64, d * DIGIT_BITS % 64);
        limbs[limb] |= digit << shift;
        if shift > 64 - DIGIT_BITS {
            limbs[limb + 1] |= digit >> (64 - shift);
        }
    }
    Uint::from_limbs(limbs)
}

#[cfg(target_arch = "x86_64")]
mod kernel {
    //! The `#[target_feature]` functions. Everything here is safe to
    //! call from inside them; entering them needs the CPU features.

    use super::{Uint, DIGIT_MASK, LANES};
    use core::arch::x86_64::{
        __m512i, _mm256_extract_epi64, _mm512_add_epi64, _mm512_alignr_epi64, _mm512_and_si512,
        _mm512_broadcastq_epi64, _mm512_castsi512_si128, _mm512_castsi512_si256,
        _mm512_cmpeq_epu64_mask, _mm512_cmpgt_epu64_mask, _mm512_extracti64x4_epi64,
        _mm512_madd52hi_epu64, _mm512_madd52lo_epu64, _mm512_mask_add_epi64,
        _mm512_maskz_srli_epi64, _mm512_permutexvar_epi64, _mm512_set1_epi64, _mm512_setr_epi64,
        _mm512_setzero_si512, _mm512_srli_epi64,
    };

    /// The modulus and its constants, in registers for one `pow`.
    struct Modulus<const V: usize> {
        n: [__m512i; V],
        /// `k0` in every lane.
        k0: __m512i,
        /// Lane `l` of `lane[l]` selects digit `l` of a vector.
        lane: [__m512i; LANES],
    }

    /// `base^exp mod n` in radix 2^52: the digits of a value `<= n`.
    /// Every slice holds `8·V` digits below 2^52, and `base`, `r1` and
    /// `r2` are below `n`.
    ///
    /// # Safety
    ///
    /// Not an `unsafe fn`, but calling it from code compiled without
    /// these features is `unsafe`: the CPU must have `avx512f` and
    /// `avx512ifma` ([`super::available`]).
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn pow<const V: usize>(
        n: &[u64],
        r1: &[u64],
        r2: &[u64],
        k0: u64,
        base: &[u64],
        exp: &Uint,
    ) -> Vec<u64> {
        let m = Modulus::<V> {
            n: load(n),
            k0: _mm512_set1_epi64(k0 as i64),
            lane: std::array::from_fn(|l| _mm512_set1_epi64(l as i64)),
        };
        let mut one = [_mm512_setzero_si512(); V];
        one[0] = _mm512_setr_epi64(1, 0, 0, 0, 0, 0, 0, 0);

        // base^0..base^15 in Montgomery form; entry 0 is R mod n.
        let mut table = [[_mm512_setzero_si512(); V]; 16];
        table[0] = load(r1);
        let base_m = amm(&load(base), &load(r2), &m);
        for i in 1..16 {
            table[i] = amm(&table[i - 1], &base_m, &m);
        }

        let mut acc = table[0];
        let bits = exp.bit_len();
        let mut started = false;
        for w in (0..bits.div_ceil(4)).rev() {
            if started {
                for _ in 0..4 {
                    acc = amm(&acc, &acc, &m);
                }
            }
            let mut idx = 0usize;
            for b in 0..4 {
                let bit_pos = w * 4 + (3 - b);
                idx = idx << 1 | usize::from(bit_pos < bits && exp.bit(bit_pos));
            }
            // A zero window multiplies by 1 (skipped); before the
            // first set bit there is nothing to square either.
            if idx != 0 {
                acc = amm(&acc, &table[idx], &m);
                started = true;
            }
        }
        store(&amm(&acc, &one, &m))
    }

    /// One almost-Montgomery product `a·b·R⁻¹ mod n`, below `2n` for
    /// inputs below `2n`, with normalised digits.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn amm<const V: usize>(a: &[__m512i; V], b: &[__m512i; V], m: &Modulus<V>) -> [__m512i; V] {
        let zero = _mm512_setzero_si512();
        // lo52(a[0]·k0) in every lane: y's part that depends on b[i]
        // only, so it leaves the critical path.
        let a0k0 = _mm512_madd52lo_epu64(
            zero,
            _mm512_broadcastq_epi64(_mm512_castsi512_si128(a[0])),
            m.k0,
        );
        let mut acc = [zero; V];
        for bv in b {
            for sel in &m.lane {
                let bi = _mm512_permutexvar_epi64(*sel, *bv);
                // y = k0·(acc[0] + a[0]·b[i]) mod 2^52, in lane 0; the
                // multiply-adds read only the low 52 bits of y.
                let partial = _mm512_madd52lo_epu64(zero, bi, a0k0);
                let y = _mm512_madd52lo_epu64(partial, acc[0], m.k0);
                let y = _mm512_broadcastq_epi64(_mm512_castsi512_si128(y));
                let mut high = [zero; V];
                for j in 0..V {
                    acc[j] = _mm512_madd52lo_epu64(acc[j], a[j], bi);
                    high[j] = _mm512_madd52hi_epu64(zero, a[j], bi);
                }
                for j in 0..V {
                    acc[j] = _mm512_madd52lo_epu64(acc[j], m.n[j], y);
                    high[j] = _mm512_madd52hi_epu64(high[j], m.n[j], y);
                }
                // Lane 0 is now 0 mod 2^52: its top bits carry into the
                // digit that the shift moves down to lane 0.
                high[0] = _mm512_add_epi64(high[0], _mm512_maskz_srli_epi64::<52>(1, acc[0]));
                for j in 0..V {
                    let above = if j + 1 < V { acc[j + 1] } else { zero };
                    acc[j] = _mm512_add_epi64(_mm512_alignr_epi64::<1>(above, acc[j]), high[j]);
                }
            }
        }
        normalize(acc)
    }

    /// Propagates carries so every lane holds one 52-bit digit. The
    /// value is below `R`, so nothing carries out of the top lane.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn normalize<const V: usize>(acc: [__m512i; V]) -> [__m512i; V] {
        let mask = _mm512_set1_epi64(DIGIT_MASK as i64);
        // Each lane's bits above 52 move up one lane. Afterwards a lane
        // is below 2^52 + 2^12, so it carries at most 1.
        let mut out = acc;
        let mut below = _mm512_setzero_si512();
        for (lane, &a) in out.iter_mut().zip(&acc) {
            let carry = _mm512_srli_epi64::<52>(a);
            *lane =
                _mm512_add_epi64(_mm512_and_si512(a, mask), _mm512_alignr_epi64::<7>(carry, below));
            below = carry;
        }
        // Single-bit carries as one add over lane masks: a lane above
        // the mask generates a carry, a lane equal to it propagates one.
        let (mut generate, mut propagate) = (0u64, 0u64);
        for (j, &lane) in out.iter().enumerate() {
            generate |= u64::from(_mm512_cmpgt_epu64_mask(lane, mask)) << (LANES * j);
            propagate |= u64::from(_mm512_cmpeq_epu64_mask(lane, mask)) << (LANES * j);
        }
        let carry_in = (generate << 1).wrapping_add(propagate) ^ propagate;
        let one = _mm512_set1_epi64(1);
        for (j, lane) in out.iter_mut().enumerate() {
            let bumped = _mm512_mask_add_epi64(*lane, (carry_in >> (LANES * j)) as u8, *lane, one);
            *lane = _mm512_and_si512(bumped, mask);
        }
        out
    }

    /// `8·V` digits as `V` vectors.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load<const V: usize>(digits: &[u64]) -> [__m512i; V] {
        std::array::from_fn(|j| {
            let d = &digits[LANES * j..LANES * (j + 1)];
            _mm512_setr_epi64(
                d[0] as i64,
                d[1] as i64,
                d[2] as i64,
                d[3] as i64,
                d[4] as i64,
                d[5] as i64,
                d[6] as i64,
                d[7] as i64,
            )
        })
    }

    /// `V` vectors as `8·V` digits.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn store<const V: usize>(vectors: &[__m512i; V]) -> Vec<u64> {
        let mut digits = Vec::with_capacity(LANES * V);
        for &v in vectors {
            for half in [_mm512_castsi512_si256(v), _mm512_extracti64x4_epi64::<1>(v)] {
                digits.extend([
                    _mm256_extract_epi64::<0>(half) as u64,
                    _mm256_extract_epi64::<1>(half) as u64,
                    _mm256_extract_epi64::<2>(half) as u64,
                    _mm256_extract_epi64::<3>(half) as u64,
                ]);
            }
        }
        digits
    }
}
