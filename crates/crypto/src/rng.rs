//! Randomness helpers bridging `rand` and [`crate::bignum::Uint`].

use crate::bignum::Uint;
use rand::RngCore;
use std::convert::Infallible;

/// A source of random bytes, read one draw at a time: each
/// [`ByteSource::fill`] call is one draw of `dest.len()` bytes.
///
/// Every generator is one. The prime search also reads through a
/// queue of draws it made ahead of time, and through a bounded reader
/// that runs dry (see `prime.rs`); [`uint_with_bits`] and
/// [`uint_below`] are written once over this trait, so the search and
/// its lookahead turn draws into integers by one implementation.
pub(crate) trait ByteSource {
    /// Why a draw can fail: [`Infallible`] for a source that never
    /// runs dry.
    type Dry;

    /// Fills `dest` with the next draw.
    fn fill(&mut self, dest: &mut [u8]) -> Result<(), Self::Dry>;
}

impl<R: RngCore + ?Sized> ByteSource for R {
    type Dry = Infallible;

    fn fill(&mut self, dest: &mut [u8]) -> Result<(), Infallible> {
        self.fill_bytes(dest);
        Ok(())
    }
}

/// Returns a uniformly random integer with exactly `bits` significant
/// bits (top bit forced to one).
///
/// # Panics
///
/// Panics if `bits` is zero.
pub fn uint_with_bits<R: RngCore + ?Sized>(rng: &mut R, bits: usize) -> Uint {
    let Ok(v) = with_bits_from(rng, bits);
    v
}

/// [`uint_with_bits`] over any byte source: one draw of `⌈bits/8⌉`
/// bytes.
pub(crate) fn with_bits_from<S: ByteSource + ?Sized>(
    source: &mut S,
    bits: usize,
) -> Result<Uint, S::Dry> {
    assert!(bits > 0, "cannot sample a 0-bit integer");
    let byte_len = bits.div_ceil(8);
    let mut bytes = vec![0u8; byte_len];
    source.fill(&mut bytes)?;
    let mut v = Uint::from_be_bytes(&bytes).shr(byte_len * 8 - bits);
    v.set_bit(bits - 1);
    Ok(v)
}

/// Returns a uniformly random integer in `[0, bound)` by rejection
/// sampling.
///
/// # Panics
///
/// Panics if `bound` is zero.
pub fn uint_below<R: RngCore + ?Sized>(rng: &mut R, bound: &Uint) -> Uint {
    let Ok(v) = below_from(rng, bound);
    v
}

/// [`uint_below`] over any byte source: draws of
/// `⌈bound.bit_len()/8⌉` bytes until one lands below `bound`.
pub(crate) fn below_from<S: ByteSource + ?Sized>(
    source: &mut S,
    bound: &Uint,
) -> Result<Uint, S::Dry> {
    assert!(!bound.is_zero(), "empty sampling range");
    let bits = bound.bit_len();
    let byte_len = bits.div_ceil(8);
    let excess_bits = byte_len * 8 - bits;
    loop {
        let mut bytes = vec![0u8; byte_len];
        source.fill(&mut bytes)?;
        let v = Uint::from_be_bytes(&bytes).shr(excess_bits);
        if &v < bound {
            return Ok(v);
        }
    }
}

/// Fills and returns an array of random bytes.
pub fn bytes<const N: usize, R: RngCore + ?Sized>(rng: &mut R) -> [u8; N] {
    let mut out = [0u8; N];
    rng.fill_bytes(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn with_bits_has_exact_bit_length() {
        let mut rng = StdRng::seed_from_u64(1);
        for bits in [1usize, 2, 7, 8, 9, 63, 64, 65, 512, 1536] {
            for _ in 0..5 {
                let v = uint_with_bits(&mut rng, bits);
                assert_eq!(v.bit_len(), bits, "bits = {bits}");
            }
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = StdRng::seed_from_u64(2);
        let bound = Uint::from_u64(1000);
        for _ in 0..200 {
            assert!(uint_below(&mut rng, &bound) < bound);
        }
        // A bound of one always samples zero.
        assert!(uint_below(&mut rng, &Uint::one()).is_zero());
    }

    #[test]
    fn below_large_bound_varies() {
        let mut rng = StdRng::seed_from_u64(3);
        let bound = Uint::one().shl(256);
        let a = uint_below(&mut rng, &bound);
        let b = uint_below(&mut rng, &bound);
        assert_ne!(a, b, "256-bit collisions are cosmically unlikely");
    }

    #[test]
    fn bytes_fills() {
        let mut rng = StdRng::seed_from_u64(4);
        let a: [u8; 32] = bytes(&mut rng);
        let b: [u8; 32] = bytes(&mut rng);
        assert_ne!(a, b);
    }
}
