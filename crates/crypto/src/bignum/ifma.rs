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
//! broadcast, the `lo52(n·y)` multiply-add, the lane shift and one add:
//! ≈15 cycles. The digits of `b` are read from memory, so each
//! broadcast is a load rather than a shuffle competing with the
//! multiply-adds for the shuffle port.
//!
//! # Two streams: both CRT halves on one thread
//!
//! One product is bound by that chain, not by throughput: the CPU can
//! start two independent 512-bit multiply-adds per cycle, and a step of
//! a 1536-bit product issues about twenty. [`Context::pow_pair`] runs
//! two exponentiations of one width, `x^dp mod p` and `x^dq mod q` of a
//! CRT private-key operation, in lockstep on the calling thread. Each
//! of its products is a pair whose digit steps alternate, so while one
//! stream waits for its `y` the other's multiply-adds fill the vector
//! units (the "x2" scheme of OpenSSL's `rsaz-*-avx512`). Both streams
//! follow one 4-bit window schedule, set by the longer exponent. Their
//! bit patterns differ, so every window multiplies, by table entry 0
//! (`R mod n`, the Montgomery form of 1) where a stream's window is
//! zero; a stream whose exponent is shorter squares and multiplies by
//! 1 until its first window.
//!
//! On a 2-vCPU Sapphire Rapids host the pair of 1536-bit halves of an
//! RSA-3072 signature takes ≈0.75–0.85 ms, against ≈1.2–1.25 ms for
//! the two single-stream exponentiations in sequence (1.5–1.6×); for
//! the 512-bit halves of an RSA-1024 key the ratio is ≈1.75×
//! (`ablation/mont-sqr/pow-pair-1536`, `pow-1536-x2-sequential`). A
//! private-key operation then needs no second thread, so it costs the
//! same whether or not the host's other vCPU is free.
//!
//! # Secrets
//!
//! The contexts of an RSA private key hold its primes in radix 52;
//! [`Context`]'s `Debug` prints widths only. The exponentiation has the
//! same window-table access pattern as the portable one, and no
//! per-product conditional subtraction. The two-stream kernel reads
//! the table once per window for each stream, zero windows included.
//!
//! The intrinsics run inside `#[target_feature]` functions. The
//! `unsafe` operations are the calls into them, made only by contexts
//! that [`available`] allowed to exist, and the reinterpretation of a
//! vector as its eight digits.

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
        let digits = by_vectors!(self.vectors, run(self, &base, exp));
        self.reduce(&digits)
    }

    /// `bases[0]^exps[0]` modulo this context's modulus and
    /// `bases[1]^exps[1]` modulo `other`'s, both on the calling thread:
    /// the two-stream kernel interleaves the two exponentiations digit
    /// step by digit step. `None` when the two moduli take different
    /// vector counts.
    pub(super) fn pow_pair(
        &self,
        other: &Context,
        bases: [&Uint; 2],
        exps: [&Uint; 2],
    ) -> Option<(Uint, Uint)> {
        if other.vectors != self.vectors {
            return None;
        }
        let contexts = [self, other];
        let [base0, base1] = [0, 1]
            .map(|s| to_radix52(&bases[s].rem_ref(&contexts[s].modulus), self.vectors * LANES));
        let [digits0, digits1] =
            by_vectors!(self.vectors, run_pair(contexts, [&base0, &base1], exps));
        Some((self.reduce(&digits0), other.reduce(&digits1)))
    }

    /// The value of the kernel's output digits, at most `n`, reduced
    /// below `n`: `n` itself is 0.
    fn reduce(&self, digits: &[u64]) -> Uint {
        let r = from_radix52(digits);
        r.checked_sub(&self.modulus).unwrap_or(r)
    }
}

/// Calls `$kernel::<V>($args)` with the vector count `$vectors` as the
/// constant `V`.
macro_rules! by_vectors {
    ($vectors:expr, $kernel:ident($($arg:expr),*)) => {
        match $vectors {
            1 => $kernel::<1>($($arg),*),
            2 => $kernel::<2>($($arg),*),
            3 => $kernel::<3>($($arg),*),
            4 => $kernel::<4>($($arg),*),
            5 => $kernel::<5>($($arg),*),
            6 => $kernel::<6>($($arg),*),
            7 => $kernel::<7>($($arg),*),
            _ => $kernel::<8>($($arg),*),
        }
    };
}
use by_vectors;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn run<const V: usize>(context: &Context, base: &[u64], exp: &Uint) -> Vec<u64> {
    // SAFETY: a `Context` exists only where `available()` saw the
    // avx512f and avx512ifma features `kernel::pow` is compiled for
    // (`Context::new`); `vectors` sized its slices to `8·V` digits.
    unsafe { kernel::pow::<V>(context, base, exp) }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn run_pair<const V: usize>(
    contexts: [&Context; 2],
    bases: [&[u64]; 2],
    exps: [&Uint; 2],
) -> [Vec<u64>; 2] {
    // SAFETY: as in `run`; `Context::pow_pair` checked that both
    // contexts have `V` vectors, so every slice holds `8·V` digits.
    unsafe { kernel::pow_pair::<V>(contexts, bases, exps) }
}

#[cfg(not(target_arch = "x86_64"))]
fn run<const V: usize>(_context: &Context, _base: &[u64], _exp: &Uint) -> Vec<u64> {
    unreachable!("IFMA contexts exist only on x86-64")
}

#[cfg(not(target_arch = "x86_64"))]
fn run_pair<const V: usize>(
    _contexts: [&Context; 2],
    _bases: [&[u64]; 2],
    _exps: [&Uint; 2],
) -> [Vec<u64>; 2] {
    unreachable!("IFMA contexts exist only on x86-64")
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

    use super::{Context, Uint, DIGIT_MASK, LANES};
    use core::arch::x86_64::{
        __m512i, _mm256_extract_epi64, _mm512_add_epi64, _mm512_alignr_epi64, _mm512_and_si512,
        _mm512_broadcastq_epi64, _mm512_castsi512_si128, _mm512_castsi512_si256,
        _mm512_cmpeq_epu64_mask, _mm512_cmpgt_epu64_mask, _mm512_extracti64x4_epi64,
        _mm512_madd52hi_epu64, _mm512_madd52lo_epu64, _mm512_mask_add_epi64,
        _mm512_maskz_srli_epi64, _mm512_set1_epi64, _mm512_setr_epi64, _mm512_setzero_si512,
        _mm512_srli_epi64,
    };

    /// The modulus and its constants, in registers for one `pow`.
    struct Modulus<const V: usize> {
        n: [__m512i; V],
        /// `k0` in every lane.
        k0: __m512i,
    }

    impl<const V: usize> Modulus<V> {
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn new(context: &Context) -> Self {
            Modulus { n: load(&context.n), k0: _mm512_set1_epi64(context.k0 as i64) }
        }
    }

    /// `base^exp mod n` in radix 2^52: the digits of a value `<= n`.
    /// The context has `V` vectors, and `base` holds `8·V` digits
    /// below 2^52 whose value is below `n`.
    ///
    /// # Safety
    ///
    /// Not an `unsafe fn`, but calling it from code compiled without
    /// these features is `unsafe`: the CPU must have `avx512f` and
    /// `avx512ifma` ([`super::available`]).
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn pow<const V: usize>(context: &Context, base: &[u64], exp: &Uint) -> Vec<u64> {
        let m = Modulus::<V>::new(context);
        // base^0..base^15 in Montgomery form; entry 0 is R mod n.
        let mut table = [[_mm512_setzero_si512(); V]; 16];
        table[0] = load(&context.r1);
        let base_m = amm(&load(base), &load(&context.r2), &m);
        for i in 1..16 {
            table[i] = amm(&table[i - 1], &base_m, &m);
        }

        let mut acc = table[0];
        let mut started = false;
        for w in (0..exp.bit_len().div_ceil(4)).rev() {
            if started {
                for _ in 0..4 {
                    acc = amm(&acc, &acc, &m);
                }
            }
            // A zero window multiplies by 1 (skipped); before the
            // first set bit there is nothing to square either.
            let idx = window(exp, w);
            if idx != 0 {
                acc = amm(&acc, &table[idx], &m);
                started = true;
            }
        }
        store(&amm(&acc, &one(), &m))
    }

    /// [`pow`] for two moduli of `V` vectors at once: the digits of
    /// `bases[s]^exps[s]` modulo `contexts[s]`'s modulus, each `<=` it.
    ///
    /// The two exponentiations share one schedule, so every product is
    /// a pair run by [`amm2`]: four squarings per window of the longer
    /// exponent, after the first, and one multiplication per window,
    /// by entry 0 of the table (`R mod n`, the Montgomery form of 1)
    /// where an exponent's window is zero. Before the first window
    /// both accumulators are 1, so the first window needs no squarings.
    ///
    /// # Safety
    ///
    /// As for [`pow`].
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn pow_pair<const V: usize>(
        contexts: [&Context; 2],
        bases: [&[u64]; 2],
        exps: [&Uint; 2],
    ) -> [Vec<u64>; 2] {
        let m = contexts.map(|context| Modulus::<V>::new(context));
        // Per stream, base^0..base^15 in Montgomery form.
        let mut table = contexts.map(|context| {
            let mut table = [[_mm512_setzero_si512(); V]; 16];
            table[0] = load(&context.r1);
            table
        });
        let r2 = contexts.map(|context| load(&context.r2));
        let base_m = amm2([&load(bases[0]), &load(bases[1])], [&r2[0], &r2[1]], &m);
        for i in 1..16 {
            let [t0, t1] = &table;
            let next = amm2([&t0[i - 1], &t1[i - 1]], [&base_m[0], &base_m[1]], &m);
            table[0][i] = next[0];
            table[1][i] = next[1];
        }

        let mut acc = [table[0][0], table[1][0]];
        let windows = exps[0].bit_len().max(exps[1].bit_len()).div_ceil(4);
        for w in (0..windows).rev() {
            if w + 1 < windows {
                for _ in 0..4 {
                    acc = amm2([&acc[0], &acc[1]], [&acc[0], &acc[1]], &m);
                }
            }
            let factors = [&table[0][window(exps[0], w)], &table[1][window(exps[1], w)]];
            acc = amm2([&acc[0], &acc[1]], factors, &m);
        }
        let one = one();
        amm2([&acc[0], &acc[1]], [&one, &one], &m).map(|digits| store(&digits))
    }

    /// Bits `4w..4w + 4` of `exp`, most significant first: the window
    /// table index for window `w`.
    fn window(exp: &Uint, w: usize) -> usize {
        (0..4).rev().fold(0, |idx, b| idx << 1 | usize::from(exp.bit(4 * w + b)))
    }

    /// The value 1.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn one<const V: usize>() -> [__m512i; V] {
        let mut one = [_mm512_setzero_si512(); V];
        one[0] = _mm512_setr_epi64(1, 0, 0, 0, 0, 0, 0, 0);
        one
    }

    /// One almost-Montgomery product `a·b·R⁻¹ mod n`, below `2n` for
    /// inputs below `2n`, with normalised digits.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn amm<const V: usize>(a: &[__m512i; V], b: &[__m512i; V], m: &Modulus<V>) -> [__m512i; V] {
        let a0k0 = a0k0(a, m);
        let b = b.map(digits);
        let mut acc = [_mm512_setzero_si512(); V];
        for bi in b.as_flattened() {
            step(&mut acc, a, _mm512_set1_epi64(*bi as i64), a0k0, m);
        }
        normalize(acc)
    }

    /// Two independent almost-Montgomery products, `a[s]·b[s]·R⁻¹`
    /// modulo `m[s]`, with their digit steps interleaved. One product's
    /// step waits on its own previous step through `y`; the other
    /// product's step fills the vector units meanwhile.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn amm2<const V: usize>(
        a: [&[__m512i; V]; 2],
        b: [&[__m512i; V]; 2],
        m: &[Modulus<V>; 2],
    ) -> [[__m512i; V]; 2] {
        let a0k0 = [a0k0(a[0], &m[0]), a0k0(a[1], &m[1])];
        let b = [b[0].map(digits), b[1].map(digits)];
        let mut acc = [[_mm512_setzero_si512(); V]; 2];
        for (b0, b1) in b[0].as_flattened().iter().zip(b[1].as_flattened()) {
            step(&mut acc[0], a[0], _mm512_set1_epi64(*b0 as i64), a0k0[0], &m[0]);
            step(&mut acc[1], a[1], _mm512_set1_epi64(*b1 as i64), a0k0[1], &m[1]);
        }
        acc.map(|acc| normalize(acc))
    }

    /// `lo52(a[0]·k0)` in every lane: the part of each step's `y` that
    /// depends on the step's digit of `b` only, so it leaves the
    /// critical path.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn a0k0<const V: usize>(a: &[__m512i; V], m: &Modulus<V>) -> __m512i {
        let a0 = _mm512_broadcastq_epi64(_mm512_castsi512_si128(a[0]));
        _mm512_madd52lo_epu64(_mm512_setzero_si512(), a0, m.k0)
    }

    /// One digit step of an almost-Montgomery product: adds `a·bi`,
    /// where `bi` is one digit of `b` in every lane, and the multiple
    /// `n·y` that clears the accumulator's lowest digit, then shifts the
    /// accumulator down one digit.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn step<const V: usize>(
        acc: &mut [__m512i; V],
        a: &[__m512i; V],
        bi: __m512i,
        a0k0: __m512i,
        m: &Modulus<V>,
    ) {
        let zero = _mm512_setzero_si512();
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
        // Lane 0 is now 0 mod 2^52: its top bits carry into the digit
        // that the shift moves down to lane 0.
        high[0] = _mm512_add_epi64(high[0], _mm512_maskz_srli_epi64::<52>(1, acc[0]));
        for j in 0..V {
            let above = if j + 1 < V { acc[j + 1] } else { zero };
            acc[j] = _mm512_add_epi64(_mm512_alignr_epi64::<1>(above, acc[j]), high[j]);
        }
    }

    /// The eight digits of `v`. In memory, a product's digits of `b`
    /// reach every lane by a broadcast load, which leaves the shuffle
    /// port to the multiply-adds; a lane-select shuffle per digit was
    /// slower.
    #[inline]
    #[allow(unsafe_code)]
    fn digits(v: __m512i) -> [u64; LANES] {
        // SAFETY: `__m512i` and `[u64; 8]` are both 64 bytes of plain
        // data, and every bit pattern is a valid value of each.
        unsafe { core::mem::transmute::<__m512i, [u64; LANES]>(v) }
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
