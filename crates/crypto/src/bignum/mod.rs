//! Arbitrary-precision unsigned integers.
//!
//! A minimal but complete big-integer library sized for RSA-3072: the
//! SGX SigStruct is signed with RSA-3072 PKCS#1 v1.5 (§2.2.2 of the
//! paper), and SinClave's on-demand SigStruct creation re-signs one per
//! singleton enclave, so signing performance appears directly in
//! Fig. 7b/7c.
//!
//! Representation: little-endian `u64` limbs, always *normalized* (no
//! trailing zero limbs; zero is the empty limb vector). All arithmetic
//! is value-semantics over `&self`; operators are provided for
//! ergonomics where allocation is unavoidable anyway.

mod div;
mod ifma;
mod modular;

#[cfg(test)]
pub(crate) use ifma::to_radix52;
pub use modular::Montgomery;

/// Whether [`Montgomery::pow`] runs on the AVX-512 IFMA kernel on this
/// CPU (`avx512f` and `avx512ifma`, detected once), for moduli of up to
/// 3,326 bits. Elsewhere every exponentiation takes the portable path.
#[must_use]
pub fn ifma_available() -> bool {
    ifma::available()
}

use crate::error::CryptoError;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Mul, Rem, Sub};

/// An arbitrary-precision unsigned integer.
///
/// # Example
///
/// ```
/// use sinclave_crypto::bignum::Uint;
///
/// let a = Uint::from_u64(1 << 40);
/// let b = Uint::from_u64(12345);
/// assert_eq!((&a * &b + &b).rem_ref(&a), b);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Uint {
    /// Little-endian limbs; invariant: `limbs.last() != Some(&0)`.
    pub(crate) limbs: Vec<u64>,
}

impl Uint {
    /// The value 0.
    #[must_use]
    pub fn zero() -> Self {
        Uint { limbs: Vec::new() }
    }

    /// The value 1.
    #[must_use]
    pub fn one() -> Self {
        Uint { limbs: vec![1] }
    }

    /// Creates a `Uint` from a `u64`.
    #[must_use]
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Uint::zero()
        } else {
            Uint { limbs: vec![v] }
        }
    }

    /// Creates a `Uint` from little-endian limbs, normalizing.
    #[must_use]
    pub(crate) fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut u = Uint { limbs };
        u.normalize();
        u
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Parses a big-endian byte string (leading zeros allowed).
    #[must_use]
    pub fn from_be_bytes(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut iter = bytes.rchunks(8);
        for chunk in &mut iter {
            let mut limb = [0u8; 8];
            limb[8 - chunk.len()..].copy_from_slice(chunk);
            limbs.push(u64::from_be_bytes(limb));
        }
        Uint::from_limbs(limbs)
    }

    /// Serializes to minimal big-endian bytes (empty for zero).
    #[must_use]
    pub fn to_be_bytes(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let first_nonzero = out.iter().position(|&b| b != 0).unwrap_or(out.len());
        out.drain(..first_nonzero);
        out
    }

    /// Serializes to exactly `len` big-endian bytes, left-padding with
    /// zeros.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MessageTooLarge`] if the value does not
    /// fit in `len` bytes.
    pub fn to_be_bytes_padded(&self, len: usize) -> Result<Vec<u8>, CryptoError> {
        let raw = self.to_be_bytes();
        if raw.len() > len {
            return Err(CryptoError::MessageTooLarge);
        }
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        Ok(out)
    }

    /// Parses a hexadecimal string (no prefix, case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] on non-hex characters or
    /// an empty string.
    pub fn from_hex(s: &str) -> Result<Self, CryptoError> {
        if s.is_empty() {
            return Err(CryptoError::InvalidLength { context: "hex uint" });
        }
        let mut bytes = Vec::with_capacity(s.len() / 2 + 1);
        let raw = s.as_bytes();
        let mut idx = 0;
        if raw.len() % 2 == 1 {
            bytes.push(hex_nibble(raw[0])?);
            idx = 1;
        }
        while idx < raw.len() {
            bytes.push(hex_nibble(raw[idx])? << 4 | hex_nibble(raw[idx + 1])?);
            idx += 2;
        }
        Ok(Uint::from_be_bytes(&bytes))
    }

    /// Renders as minimal lowercase hex (`"0"` for zero).
    #[must_use]
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let bytes = self.to_be_bytes();
        let mut s: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        if s.starts_with('0') {
            s.remove(0);
        }
        s
    }

    /// Whether the value is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Whether the value is one.
    #[must_use]
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// Whether the value is odd (false for zero).
    #[must_use]
    pub fn is_odd(&self) -> bool {
        self.limbs.first().is_some_and(|l| l & 1 == 1)
    }

    /// Whether the value is even (true for zero).
    #[must_use]
    pub fn is_even(&self) -> bool {
        !self.is_odd()
    }

    /// Number of significant bits (0 for zero).
    #[must_use]
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (little-endian bit order).
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        let off = i % 64;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Sets bit `i` to one.
    pub fn set_bit(&mut self, i: usize) {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1u64 << (i % 64);
    }

    /// Converts to `u64` if the value fits.
    #[must_use]
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// `self + rhs`.
    #[must_use]
    pub fn add_ref(&self, rhs: &Uint) -> Uint {
        let (long, short) = if self.limbs.len() >= rhs.limbs.len() {
            (&self.limbs, &rhs.limbs)
        } else {
            (&rhs.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &a) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        Uint::from_limbs(out)
    }

    /// `self - rhs`, or `None` if it would underflow.
    #[must_use]
    pub fn checked_sub(&self, rhs: &Uint) -> Option<Uint> {
        if self < rhs {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = rhs.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        Some(Uint::from_limbs(out))
    }

    /// `self * rhs` (schoolbook multiplication).
    #[must_use]
    pub fn mul_ref(&self, rhs: &Uint) -> Uint {
        if self.is_zero() || rhs.is_zero() {
            return Uint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + rhs.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in rhs.limbs.iter().enumerate() {
                let t = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + rhs.limbs.len();
            while carry != 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        Uint::from_limbs(out)
    }

    /// `self << bits`.
    #[must_use]
    pub fn shl(&self, bits: usize) -> Uint {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = bits / 64;
        let bit_shift = (bits % 64) as u32;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        Uint::from_limbs(out)
    }

    /// `self >> bits`.
    #[must_use]
    pub fn shr(&self, bits: usize) -> Uint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return Uint::zero();
        }
        let bit_shift = (bits % 64) as u32;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        Uint::from_limbs(out)
    }

    /// Greatest common divisor (binary GCD).
    #[must_use]
    pub fn gcd(&self, rhs: &Uint) -> Uint {
        let mut a = self.clone();
        let mut b = rhs.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let a_twos = a.trailing_zeros();
        let b_twos = b.trailing_zeros();
        let common_twos = a_twos.min(b_twos);
        a = a.shr(a_twos);
        b = b.shr(b_twos);
        loop {
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            b = b.checked_sub(&a).expect("b >= a");
            if b.is_zero() {
                return a.shl(common_twos);
            }
            b = b.shr(b.trailing_zeros());
        }
    }

    /// Number of trailing zero bits (0 for zero to keep callers total).
    #[must_use]
    pub fn trailing_zeros(&self) -> usize {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return i * 64 + l.trailing_zeros() as usize;
            }
        }
        0
    }
}

fn hex_nibble(c: u8) -> Result<u8, CryptoError> {
    match c {
        b'0'..=b'9' => Ok(c - b'0'),
        b'a'..=b'f' => Ok(c - b'a' + 10),
        b'A'..=b'F' => Ok(c - b'A' + 10),
        _ => Err(CryptoError::InvalidLength { context: "hex uint" }),
    }
}

impl PartialOrd for Uint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Uint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {}
            ord => return ord,
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl fmt::Debug for Uint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Uint(0x{})", self.to_hex())
    }
}

impl fmt::Display for Uint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl From<u64> for Uint {
    fn from(v: u64) -> Self {
        Uint::from_u64(v)
    }
}

impl Add for &Uint {
    type Output = Uint;
    fn add(self, rhs: &Uint) -> Uint {
        self.add_ref(rhs)
    }
}

impl Add<&Uint> for Uint {
    type Output = Uint;
    fn add(self, rhs: &Uint) -> Uint {
        self.add_ref(rhs)
    }
}

impl Sub for &Uint {
    type Output = Uint;
    /// # Panics
    /// Panics on underflow; use [`Uint::checked_sub`] to handle it.
    fn sub(self, rhs: &Uint) -> Uint {
        self.checked_sub(rhs).expect("uint subtraction underflow")
    }
}

impl Mul for &Uint {
    type Output = Uint;
    fn mul(self, rhs: &Uint) -> Uint {
        self.mul_ref(rhs)
    }
}

impl Rem for &Uint {
    type Output = Uint;
    fn rem(self, rhs: &Uint) -> Uint {
        self.rem_ref(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_and_one_basics() {
        assert!(Uint::zero().is_zero());
        assert!(Uint::one().is_one());
        assert!(Uint::zero().is_even());
        assert!(Uint::one().is_odd());
        assert_eq!(Uint::zero().bit_len(), 0);
        assert_eq!(Uint::one().bit_len(), 1);
        assert_eq!(Uint::zero().to_hex(), "0");
    }

    #[test]
    fn byte_roundtrip() {
        let v = Uint::from_be_bytes(&[0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(v.to_be_bytes(), vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(v.to_be_bytes_padded(12).unwrap(), vec![0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert!(v.to_be_bytes_padded(4).is_err());
    }

    #[test]
    fn hex_roundtrip() {
        let v = Uint::from_hex("deadbeefcafebabe1234567890").unwrap();
        assert_eq!(v.to_hex(), "deadbeefcafebabe1234567890");
        assert_eq!(Uint::from_hex(&v.to_hex()).unwrap(), v);
        assert!(Uint::from_hex("").is_err());
        assert!(Uint::from_hex("xy").is_err());
        // Odd-length hex works.
        assert_eq!(Uint::from_hex("f").unwrap(), Uint::from_u64(15));
    }

    #[test]
    fn add_sub_small() {
        let a = Uint::from_u64(u64::MAX);
        let b = Uint::from_u64(1);
        let sum = &a + &b;
        assert_eq!(sum.to_hex(), "10000000000000000");
        assert_eq!(&sum - &b, a);
        assert_eq!(a.checked_sub(&sum), None);
    }

    #[test]
    fn mul_small() {
        let a = Uint::from_u64(u64::MAX);
        let sq = &a * &a;
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        assert_eq!(sq.to_hex(), "fffffffffffffffe0000000000000001");
        assert_eq!(&a * &Uint::zero(), Uint::zero());
        assert_eq!(&a * &Uint::one(), a);
    }

    #[test]
    fn shifts() {
        let a = Uint::from_u64(1);
        assert_eq!(a.shl(127).to_hex(), "80000000000000000000000000000000");
        assert_eq!(a.shl(127).shr(127), a);
        assert_eq!(a.shr(1), Uint::zero());
        let b = Uint::from_hex("123456789abcdef0123456789abcdef").unwrap();
        assert_eq!(b.shl(0), b);
        assert_eq!(b.shl(64).shr(64), b);
        assert_eq!(b.shl(3).shr(3), b);
    }

    #[test]
    fn bits() {
        let mut v = Uint::zero();
        v.set_bit(200);
        assert!(v.bit(200));
        assert!(!v.bit(199));
        assert_eq!(v.bit_len(), 201);
        assert_eq!(v, Uint::one().shl(200));
    }

    #[test]
    fn ordering() {
        let a = Uint::from_hex("ffffffffffffffff").unwrap();
        let b = Uint::from_hex("10000000000000000").unwrap();
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn gcd_examples() {
        let a = Uint::from_u64(48);
        let b = Uint::from_u64(36);
        assert_eq!(a.gcd(&b), Uint::from_u64(12));
        assert_eq!(a.gcd(&Uint::zero()), a);
        assert_eq!(Uint::zero().gcd(&b), b);
        let p = Uint::from_hex("fffffffffffffffffffffffffffffffeffffffffffffffff").unwrap();
        assert_eq!(p.gcd(&Uint::one()), Uint::one());
    }

    fn arb_uint() -> impl Strategy<Value = Uint> {
        proptest::collection::vec(any::<u64>(), 0..6).prop_map(Uint::from_limbs)
    }

    proptest! {
        #[test]
        fn prop_add_commutative(a in arb_uint(), b in arb_uint()) {
            prop_assert_eq!(&a + &b, &b + &a);
        }

        #[test]
        fn prop_add_sub_roundtrip(a in arb_uint(), b in arb_uint()) {
            prop_assert_eq!(&(&a + &b) - &b, a);
        }

        #[test]
        fn prop_mul_commutative(a in arb_uint(), b in arb_uint()) {
            prop_assert_eq!(&a * &b, &b * &a);
        }

        #[test]
        fn prop_mul_distributes(a in arb_uint(), b in arb_uint(), c in arb_uint()) {
            prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        }

        #[test]
        fn prop_bytes_roundtrip(a in arb_uint()) {
            prop_assert_eq!(Uint::from_be_bytes(&a.to_be_bytes()), a);
        }

        #[test]
        fn prop_shift_is_mul_by_power_of_two(a in arb_uint(), s in 0usize..130) {
            prop_assert_eq!(a.shl(s), &a * &Uint::one().shl(s));
        }

        #[test]
        fn prop_u64_agreement(x in any::<u64>(), y in any::<u64>()) {
            let a = Uint::from_u64(x);
            let b = Uint::from_u64(y);
            prop_assert_eq!(&a + &b, Uint::from_be_bytes(&(x as u128 + y as u128).to_be_bytes()));
            prop_assert_eq!(&a * &b, Uint::from_be_bytes(&(x as u128 * y as u128).to_be_bytes()));
        }
    }
}
