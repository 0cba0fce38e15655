//! RSA PKCS#1 v1.5 signatures over SHA-256.
//!
//! SGX SigStructs carry an RSA-3072 signature by the enclave signer
//! (§2.2.2); SinClave's verifier creates *on-demand* SigStructs, signing
//! one per singleton enclave (§4.4, Fig. 7b/7c). This module provides
//! key generation, signing (with the CRT optimization) and
//! verification, all over [`crate::bignum`].
//!
//! # RSA work in one singleton start
//!
//! With the paper's key sizes (RSA-3072 signer, RSA-1024 channel,
//! quoting-enclave and attestation-root keys), one SinClave start
//! performs:
//!
//! * **Private-key operations** — all CRT: two half-width
//!   exponentiations recombined by Garner's formula.
//!   - CAS, compute pool worker: one RSA-3072 signature over the
//!     on-demand singleton SigStruct.
//!   - CAS, reactor event loop: two RSA-1024 KEM decapsulations, one
//!     per secure-channel handshake (grant and attestation).
//!   - Starter host, quoting enclave: one RSA-1024 signature over the
//!     quote.
//!
//!   Where the CPU has AVX-512 IFMA, both halves run on the calling
//!   thread on the two-stream IFMA kernel ([`Montgomery::pow_pair`]),
//!   which interleaves them: an RSA-3072 signature costs ≈0.8–0.9 ms
//!   on a 2-vCPU Sapphire Rapids host, whether or not the other vCPU
//!   is busy, and an RSA-1024 decapsulation ≈0.11–0.12 ms
//!   (`ablation/mont-sqr`, `ablation/rsa-crt`). Running the halves on
//!   two threads instead gains nothing on that host whenever its two
//!   vCPUs share one core, which they intermittently do. Elsewhere each half
//!   is one portable [`Montgomery::pow`] (≈3.5–3.8 ms per 1536-bit
//!   half): the calling thread takes the p half while one of the
//!   crate's long-lived helper threads takes the q half, unless the
//!   caller finishes first and takes it back. Miller–Rabin rounds in
//!   key generation run single-stream [`Montgomery::pow`], on IFMA
//!   where the CPU has it.
//! * **Public-key operations** (exponent 65537) also run on the IFMA
//!   kernel where it is available; the first one on a freshly parsed
//!   key also builds the kernel's constants (two divisions). Per
//!   start:
//!   - Starter: two KEM encapsulations under the CAS channel key, and
//!     the `EINIT` verification of the granted SigStruct.
//!   - CAS, compute pool: the common SigStruct's verification (a
//!     verify-cache hit after the first grant of a binary), then the
//!     quote's two verifications — the QE certificate under the
//!     attestation root and the quote under the QE key.
//! * **Key parses** ([`RsaPublicKey::from_bytes`]): the starter parses
//!   the CAS channel key twice and the granted SigStruct's key once;
//!   the CAS parses the grant's common SigStruct once per request and
//!   the QE key once per attestation.
//!
//! Parsing a key builds its [`Montgomery`] context, which costs one
//! multi-precision division plus one Montgomery product (≈15 µs at
//! 3072 bits on a 2-vCPU x86-64 host), so callers need not cache
//! parsed keys. Parse plus one RSA-3072 verification takes ≈70 µs on
//! that host with IFMA, against ≈300 µs on the portable kernel.

use crate::bignum::{Montgomery, Uint};
use crate::ct;
use crate::error::CryptoError;
use crate::prime;
use crate::sha256;
use rand::RngCore;
use std::fmt;
use std::sync::Arc;

/// The public exponent used by all keys in this crate: F4 = 65537.
pub const PUBLIC_EXPONENT: u64 = 65_537;

/// The widest modulus [`RsaPublicKey::new`] accepts, in bits: RSA-4096,
/// one size above the paper's RSA-3072.
pub const MAX_MODULUS_BITS: usize = 4096;

/// DER-encoded `DigestInfo` prefix for SHA-256 (RFC 8017 §9.2 note 1).
const SHA256_DIGEST_INFO: &[u8] = &[
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05,
    0x00, 0x04, 0x20,
];

/// An RSA public key.
#[derive(Clone)]
pub struct RsaPublicKey {
    n: Uint,
    e: Uint,
    /// Cached Montgomery context for `n` (verification hot path).
    mont: Arc<Montgomery>,
}

impl PartialEq for RsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.e == other.e
    }
}

impl Eq for RsaPublicKey {}

impl fmt::Debug for RsaPublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RsaPublicKey")
            .field("bits", &self.n.bit_len())
            .field("fingerprint", &self.fingerprint().to_hex())
            .finish()
    }
}

impl RsaPublicKey {
    /// Constructs a public key from modulus and exponent.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKey`] for an even modulus, a
    /// modulus outside 512–4096 bits, or an exponent smaller than 3 or
    /// wider than 64 bits. The bounds come first: the modulus is
    /// attacker-supplied where a CAS parses a grant's SigStruct, and
    /// building the context of an unbounded one would take as long as
    /// the sender likes (≈0.4 s at 64 KB).
    pub fn new(n: Uint, e: Uint) -> Result<Self, CryptoError> {
        if n.bit_len() < 512 {
            return Err(CryptoError::InvalidKey { context: "modulus below 512 bits" });
        }
        if n.bit_len() > MAX_MODULUS_BITS {
            return Err(CryptoError::InvalidKey { context: "modulus above 4096 bits" });
        }
        if e < Uint::from_u64(3) {
            return Err(CryptoError::InvalidKey { context: "public exponent below 3" });
        }
        if e.bit_len() > 64 {
            return Err(CryptoError::InvalidKey { context: "public exponent above 64 bits" });
        }
        let mont = Montgomery::new(&n)?;
        Ok(RsaPublicKey { n, e, mont: Arc::new(mont) })
    }

    /// The modulus.
    #[must_use]
    pub fn modulus(&self) -> &Uint {
        &self.n
    }

    /// The public exponent.
    #[must_use]
    pub fn exponent(&self) -> &Uint {
        &self.e
    }

    /// Modulus length in whole bytes.
    #[must_use]
    pub fn modulus_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// A stable identity for the key: SHA-256 over the serialized key.
    ///
    /// This plays the role of `MRSIGNER` in SGX, which is defined as the
    /// SHA-256 hash of the signer's public key modulus.
    #[must_use]
    pub fn fingerprint(&self) -> sha256::Digest {
        sha256::digest(&self.to_bytes())
    }

    /// Serializes as `len(n) || n || len(e) || e` (big-endian u32
    /// lengths, minimal big-endian magnitudes).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.n.to_be_bytes();
        let e = self.e.to_be_bytes();
        let mut out = Vec::with_capacity(8 + n.len() + e.len());
        out.extend_from_slice(&(n.len() as u32).to_be_bytes());
        out.extend_from_slice(&n);
        out.extend_from_slice(&(e.len() as u32).to_be_bytes());
        out.extend_from_slice(&e);
        out
    }

    /// Parses a key serialized by [`RsaPublicKey::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] on malformed input and
    /// [`CryptoError::InvalidKey`] if the decoded key is invalid.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let err = CryptoError::InvalidLength { context: "rsa public key" };
        if bytes.len() < 4 {
            return Err(err.clone());
        }
        let n_len = u32::from_be_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
        if bytes.len() < 4 + n_len + 4 {
            return Err(err.clone());
        }
        let n = Uint::from_be_bytes(&bytes[4..4 + n_len]);
        let e_off = 4 + n_len;
        let e_len =
            u32::from_be_bytes(bytes[e_off..e_off + 4].try_into().expect("4 bytes")) as usize;
        if bytes.len() != e_off + 4 + e_len {
            return Err(err);
        }
        let e = Uint::from_be_bytes(&bytes[e_off + 4..]);
        RsaPublicKey::new(n, e)
    }

    /// Verifies a PKCS#1 v1.5 SHA-256 signature over `message`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::SignatureInvalid`] if the signature does
    /// not verify, and [`CryptoError::InvalidLength`] if it has the
    /// wrong size for this key.
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> Result<(), CryptoError> {
        let digest = sha256::digest(message);
        self.verify_digest(&digest, signature)
    }

    /// Verifies a signature over a precomputed SHA-256 digest.
    ///
    /// # Errors
    ///
    /// Same as [`RsaPublicKey::verify`].
    pub fn verify_digest(
        &self,
        digest: &sha256::Digest,
        signature: &[u8],
    ) -> Result<(), CryptoError> {
        if signature.len() != self.modulus_len() {
            return Err(CryptoError::InvalidLength { context: "rsa signature" });
        }
        let s = Uint::from_be_bytes(signature);
        if s >= self.n {
            return Err(CryptoError::SignatureInvalid);
        }
        let em = self.mont.pow(&s, &self.e);
        let expected = emsa_pkcs1_v15(digest, self.modulus_len())?;
        let em_bytes =
            em.to_be_bytes_padded(self.modulus_len()).map_err(|_| CryptoError::SignatureInvalid)?;
        if ct::eq(&em_bytes, &expected) {
            Ok(())
        } else {
            Err(CryptoError::SignatureInvalid)
        }
    }
}

/// An RSA private key with CRT parameters.
#[derive(Clone)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    p: Uint,
    q: Uint,
    dp: Uint,
    dq: Arc<Uint>,
    q_inv: Uint,
    mont_p: Montgomery,
    mont_q: Arc<Montgomery>,
}

impl fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print private material.
        f.debug_struct("RsaPrivateKey")
            .field("bits", &self.public.n.bit_len())
            .field("fingerprint", &self.public.fingerprint().to_hex())
            .finish()
    }
}

impl RsaPrivateKey {
    /// Generates a fresh key with a modulus of `bits` bits.
    ///
    /// The paper uses RSA-3072 (the SGX SigStruct key size); tests use
    /// smaller keys for speed.
    ///
    /// # Errors
    ///
    /// Propagates [`CryptoError::PrimeGenerationFailed`] (practically
    /// unreachable).
    ///
    /// # Panics
    ///
    /// Panics if `bits < 512` or `bits` is odd.
    pub fn generate<R: RngCore + ?Sized>(rng: &mut R, bits: usize) -> Result<Self, CryptoError> {
        assert!(bits >= 512, "modulus below 512 bits");
        assert!(bits.is_multiple_of(2), "modulus size must be even");
        let e = Uint::from_u64(PUBLIC_EXPONENT);
        loop {
            let p = prime::generate_prime(rng, bits / 2)?;
            let mut q = prime::generate_prime(rng, bits / 2)?;
            while q == p {
                q = prime::generate_prime(rng, bits / 2)?;
            }
            let n = &p * &q;
            if n.bit_len() != bits {
                continue;
            }
            let p1 = p.checked_sub(&Uint::one()).expect("p > 1");
            let q1 = q.checked_sub(&Uint::one()).expect("q > 1");
            let phi = &p1 * &q1;
            let Some(d) = e.mod_inv(&phi) else {
                continue; // gcd(e, phi) != 1; resample
            };
            let dp = d.rem_ref(&p1);
            let dq = Arc::new(d.rem_ref(&q1));
            let q_inv = q.mod_inv(&p).expect("p, q distinct primes");
            let public = RsaPublicKey::new(n, e.clone())?;
            let mont_p = Montgomery::new(&p)?;
            let mont_q = Arc::new(Montgomery::new(&q)?);
            return Ok(RsaPrivateKey { public, p, q, dp, dq, q_inv, mont_p, mont_q });
        }
    }

    /// The corresponding public key.
    #[must_use]
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Signs `message` with PKCS#1 v1.5 over SHA-256.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MessageTooLarge`] if the modulus is too
    /// small for the padding (impossible for keys ≥ 512 bits).
    pub fn sign(&self, message: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let digest = sha256::digest(message);
        self.sign_digest(&digest)
    }

    /// Signs a precomputed SHA-256 digest.
    ///
    /// # Errors
    ///
    /// Same as [`RsaPrivateKey::sign`].
    pub fn sign_digest(&self, digest: &sha256::Digest) -> Result<Vec<u8>, CryptoError> {
        self.sign_digest_impl(digest, true)
    }

    /// Signs with the exponentiation squarings on the general
    /// Montgomery multiplier instead of the dedicated squaring path —
    /// the pre-fast-path code, kept as the `ablation/mont-sqr`
    /// benchmark baseline and the reference for bit-identity tests.
    ///
    /// # Errors
    ///
    /// Same as [`RsaPrivateKey::sign`].
    pub fn sign_digest_mul_only(&self, digest: &sha256::Digest) -> Result<Vec<u8>, CryptoError> {
        self.sign_digest_impl(digest, false)
    }

    fn sign_digest_impl(
        &self,
        digest: &sha256::Digest,
        use_sqr: bool,
    ) -> Result<Vec<u8>, CryptoError> {
        let k = self.public.modulus_len();
        let em = emsa_pkcs1_v15(digest, k)?;
        self.private_pow(&Uint::from_be_bytes(&em), use_sqr).to_be_bytes_padded(k)
    }

    /// The private-key operation `x^d mod n`, by the CRT: two
    /// half-width exponentiations under the per-key prime contexts,
    /// recombined with Garner's formula. Signing and KEM
    /// decapsulation both run through here. Any `x` is accepted —
    /// each half reduces it mod its prime, so `x >= n` yields
    /// `(x mod n)^d mod n` exactly like the full-width computation.
    /// `use_sqr = false` selects the general multiplier for squarings
    /// (the `*_mul_only` ablation baseline only).
    ///
    /// Where both prime contexts have IFMA kernels of one width, the
    /// two halves run together on the calling thread
    /// ([`Montgomery::pow_pair`]). Otherwise, and always on the
    /// mul-only path, the q half is offered to a helper thread while
    /// the calling thread runs the p half (see [`crate::join`]). If no
    /// helper has started it by then, the caller runs the q half
    /// itself, with the same result; a panic in the helper resumes on
    /// the caller.
    fn private_pow(&self, x: &Uint, use_sqr: bool) -> Uint {
        // CRT: m1 = x^dp mod p, m2 = x^dq mod q,
        //      h = q_inv (m1 - m2) mod p, s = m2 + h q.
        let pair = if use_sqr {
            self.mont_p.pow_pair(&self.mont_q, [x, x], [&self.dp, &self.dq])
        } else {
            None
        };
        let (m1, m2) = pair.unwrap_or_else(|| {
            let half = move |mont: &Montgomery, exp: &Uint, x: &Uint| {
                if use_sqr {
                    mont.pow(x, exp)
                } else {
                    mont.pow_mul_only(x, exp)
                }
            };
            let (mont_q, dq, base) = (Arc::clone(&self.mont_q), Arc::clone(&self.dq), x.clone());
            crate::join::join(|| half(&self.mont_p, &self.dp, x), move || half(&mont_q, &dq, &base))
        });
        let diff = if m1 >= m2 {
            m1.checked_sub(&m2).expect("m1 >= m2")
        } else {
            // m1 - m2 mod p = m1 + p - (m2 mod p)
            let m2_mod_p = m2.rem_ref(&self.p);
            let t = m1.add_ref(&self.p);
            t.checked_sub(&m2_mod_p).expect("t >= m2 mod p")
        };
        let h = self.mont_p.mul(&diff, &self.q_inv);
        let s = m2.add_ref(&(&h * &self.q));

        // CRT consistency, checked through the public exponent: `n` is
        // squarefree and `ed ≡ 1 (mod λ(n))`, so `y ↦ y^e` is a
        // bijection on Z_n and, as `s < n`, `s^e ≡ x` holds exactly
        // when `s ≡ x^d` — at the cost of a public-exponent
        // exponentiation instead of a full-width private one.
        debug_assert_eq!(
            self.public.mont.pow(&s, &self.public.e),
            x.rem_ref(&self.public.n),
            "crt consistency"
        );
        s
    }
}

impl RsaPublicKey {
    /// RSA-KEM encapsulation: picks a random `r < n`, sends `r^e mod n`
    /// and derives a 32-byte shared secret from `r`.
    ///
    /// Used by the secure channel to establish session keys (the
    /// stand-in for the TLS/wireguard key exchanges of the paper's
    /// systems).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MessageTooLarge`] only on internal
    /// serialization failure (practically unreachable).
    pub fn kem_encapsulate<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<(Vec<u8>, [u8; 32]), CryptoError> {
        let r = crate::rng::uint_below(rng, &self.n);
        let ciphertext = self.mont.pow(&r, &self.e).to_be_bytes_padded(self.modulus_len())?;
        let shared = kem_kdf(&r, self.modulus_len())?;
        Ok((ciphertext, shared))
    }
}

impl RsaPrivateKey {
    /// RSA-KEM decapsulation: recovers `r` with the CRT private-key
    /// operation (the one signing uses) and re-derives the shared
    /// secret.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] for ciphertexts of the
    /// wrong size.
    pub fn kem_decapsulate(&self, ciphertext: &[u8]) -> Result<[u8; 32], CryptoError> {
        if ciphertext.len() != self.public.modulus_len() {
            return Err(CryptoError::InvalidLength { context: "rsa-kem ciphertext" });
        }
        let r = self.private_pow(&Uint::from_be_bytes(ciphertext), true);
        kem_kdf(&r, self.public.modulus_len())
    }
}

/// Shared-secret derivation for RSA-KEM.
fn kem_kdf(r: &Uint, modulus_len: usize) -> Result<[u8; 32], CryptoError> {
    let bytes = r.to_be_bytes_padded(modulus_len)?;
    Ok(crate::hkdf::derive(b"rsa-kem", &bytes, b"shared-secret"))
}

/// EMSA-PKCS1-v1_5 encoding of a SHA-256 digest for a `k`-byte modulus.
fn emsa_pkcs1_v15(digest: &sha256::Digest, k: usize) -> Result<Vec<u8>, CryptoError> {
    let t_len = SHA256_DIGEST_INFO.len() + sha256::DIGEST_LEN;
    if k < t_len + 11 {
        return Err(CryptoError::MessageTooLarge);
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(SHA256_DIGEST_INFO);
    em.extend_from_slice(digest.as_bytes());
    debug_assert_eq!(em.len(), k);
    Ok(em)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_key(seed: u64) -> RsaPrivateKey {
        test_key_bits(seed, 1024)
    }

    fn test_key_bits(seed: u64, bits: usize) -> RsaPrivateKey {
        let mut rng = StdRng::seed_from_u64(seed);
        RsaPrivateKey::generate(&mut rng, bits).expect("keygen")
    }

    /// The full private exponent `d = e⁻¹ mod φ(n)`. The key keeps
    /// only its CRT halves; the full-width references exponentiate by
    /// `d` directly.
    fn private_exponent(key: &RsaPrivateKey) -> Uint {
        let p1 = key.p.checked_sub(&Uint::one()).unwrap();
        let q1 = key.q.checked_sub(&Uint::one()).unwrap();
        key.public.e.mod_inv(&(&p1 * &q1)).unwrap()
    }

    #[test]
    fn sign_verify_roundtrip() {
        let key = test_key(1);
        let sig = key.sign(b"the singleton page").unwrap();
        assert_eq!(sig.len(), key.public_key().modulus_len());
        key.public_key().verify(b"the singleton page", &sig).unwrap();
    }

    #[test]
    fn verify_rejects_tampered_message() {
        let key = test_key(2);
        let sig = key.sign(b"original").unwrap();
        assert_eq!(key.public_key().verify(b"altered", &sig), Err(CryptoError::SignatureInvalid));
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let key = test_key(3);
        let mut sig = key.sign(b"message").unwrap();
        sig[10] ^= 0x40;
        assert_eq!(key.public_key().verify(b"message", &sig), Err(CryptoError::SignatureInvalid));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let key_a = test_key(4);
        let key_b = test_key(5);
        let sig = key_a.sign(b"message").unwrap();
        assert!(key_b.public_key().verify(b"message", &sig).is_err());
    }

    #[test]
    fn verify_rejects_wrong_length() {
        let key = test_key(6);
        let sig = key.sign(b"m").unwrap();
        assert_eq!(
            key.public_key().verify(b"m", &sig[..sig.len() - 1]),
            Err(CryptoError::InvalidLength { context: "rsa signature" })
        );
    }

    #[test]
    fn signature_value_below_modulus_required() {
        let key = test_key(7);
        let n_bytes =
            key.public_key().modulus().to_be_bytes_padded(key.public_key().modulus_len()).unwrap();
        assert_eq!(key.public_key().verify(b"m", &n_bytes), Err(CryptoError::SignatureInvalid));
    }

    #[test]
    fn public_key_serialization_roundtrip() {
        let key = test_key(8);
        let bytes = key.public_key().to_bytes();
        let parsed = RsaPublicKey::from_bytes(&bytes).unwrap();
        assert_eq!(&parsed, key.public_key());
        assert_eq!(parsed.fingerprint(), key.public_key().fingerprint());
    }

    #[test]
    fn public_key_from_bytes_rejects_garbage() {
        assert!(RsaPublicKey::from_bytes(&[]).is_err());
        assert!(RsaPublicKey::from_bytes(&[0, 0, 0, 200, 1, 2]).is_err());
        let key = test_key(9);
        let mut bytes = key.public_key().to_bytes();
        bytes.push(0); // trailing junk
        assert!(RsaPublicKey::from_bytes(&bytes).is_err());
    }

    /// The serialized public key with modulus `n` and exponent 65537.
    fn key_bytes(n: &Uint) -> Vec<u8> {
        let n = n.to_be_bytes();
        let mut bytes = (n.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(&n);
        bytes.extend_from_slice(&3u32.to_be_bytes());
        bytes.extend_from_slice(&[1, 0, 1]);
        bytes
    }

    #[test]
    fn public_key_size_is_bounded_at_decode() {
        let odd_of_bits = |bits: usize| Uint::one().shl(bits - 1).add_ref(&Uint::from_u64(0xabcd));
        let widest = RsaPublicKey::from_bytes(&key_bytes(&odd_of_bits(MAX_MODULUS_BITS))).unwrap();
        assert_eq!(widest.modulus().bit_len(), 4096);
        assert_eq!(
            RsaPublicKey::from_bytes(&key_bytes(&odd_of_bits(MAX_MODULUS_BITS + 1))),
            Err(CryptoError::InvalidKey { context: "modulus above 4096 bits" })
        );
        // A 64 KB modulus is refused before its context is built, which
        // would take ≈0.4 s even optimised.
        let huge = key_bytes(&odd_of_bits(64 * 1024 * 8));
        let started = std::time::Instant::now();
        let parsed = RsaPublicKey::from_bytes(&huge);
        let elapsed = started.elapsed();
        assert_eq!(parsed, Err(CryptoError::InvalidKey { context: "modulus above 4096 bits" }));
        assert!(elapsed < std::time::Duration::from_millis(100), "{elapsed:?}");

        let n = odd_of_bits(1024);
        assert!(RsaPublicKey::new(n.clone(), Uint::from_u64(u64::MAX)).is_ok());
        assert_eq!(
            RsaPublicKey::new(n, Uint::one().shl(64).add_ref(&Uint::one())),
            Err(CryptoError::InvalidKey { context: "public exponent above 64 bits" })
        );
    }

    #[test]
    fn fingerprints_are_distinct_per_key() {
        assert_ne!(
            test_key(10).public_key().fingerprint(),
            test_key(11).public_key().fingerprint()
        );
    }

    #[test]
    fn signing_is_deterministic() {
        let key = test_key(12);
        assert_eq!(key.sign(b"same input").unwrap(), key.sign(b"same input").unwrap());
    }

    #[test]
    fn sign_digest_matches_sign() {
        let key = test_key(13);
        let digest = sha256::digest(b"payload");
        assert_eq!(key.sign(b"payload").unwrap(), key.sign_digest(&digest).unwrap());
    }

    #[test]
    fn mont_sqr_signing_bit_identical_to_mul_only_path() {
        // The dedicated-squaring fast path is a pure optimization: the
        // signatures must match the mul-only baseline byte for byte.
        for seed in 30..33 {
            let key = test_key(seed);
            let digest = sha256::digest(&seed.to_le_bytes());
            assert_eq!(
                key.sign_digest(&digest).unwrap(),
                key.sign_digest_mul_only(&digest).unwrap(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn emsa_layout() {
        let digest = sha256::digest(b"x");
        let em = emsa_pkcs1_v15(&digest, 128).unwrap();
        assert_eq!(em.len(), 128);
        assert_eq!(&em[..2], &[0x00, 0x01]);
        let sep = em.iter().skip(2).position(|&b| b == 0x00).unwrap() + 2;
        assert!(em[2..sep].iter().all(|&b| b == 0xff));
        assert_eq!(&em[em.len() - 32..], digest.as_bytes());
    }

    #[test]
    fn emsa_rejects_tiny_modulus() {
        let digest = sha256::digest(b"x");
        assert_eq!(emsa_pkcs1_v15(&digest, 32), Err(CryptoError::MessageTooLarge));
    }

    #[test]
    fn kem_roundtrip() {
        let key = test_key(20);
        let mut rng = StdRng::seed_from_u64(21);
        let (ct, shared_enc) = key.public_key().kem_encapsulate(&mut rng).unwrap();
        assert_eq!(ct.len(), key.public_key().modulus_len());
        let shared_dec = key.kem_decapsulate(&ct).unwrap();
        assert_eq!(shared_enc, shared_dec);
    }

    #[test]
    fn kem_fresh_secrets_per_encapsulation() {
        let key = test_key(22);
        let mut rng = StdRng::seed_from_u64(23);
        let (ct1, s1) = key.public_key().kem_encapsulate(&mut rng).unwrap();
        let (ct2, s2) = key.public_key().kem_encapsulate(&mut rng).unwrap();
        assert_ne!(ct1, ct2);
        assert_ne!(s1, s2);
    }

    #[test]
    fn kem_rejects_wrong_length() {
        let key = test_key(24);
        assert_eq!(
            key.kem_decapsulate(&[0u8; 10]),
            Err(CryptoError::InvalidLength { context: "rsa-kem ciphertext" })
        );
    }

    #[test]
    fn crt_decapsulation_matches_full_width_reference() {
        // The pre-CRT private-key operation: one full-width
        // exponentiation by d. Both halves, on the two-stream kernel
        // where the CPU has IFMA, must recombine to it at the
        // channel-key width, at the signer-key width, and at a width
        // whose halves are 1024 bits. RSA-3072 takes ≈11 s to generate
        // unoptimised, so it gets fewer random ciphertexts.
        for (seed, bits, random) in [(40, 1024, 8), (42, 2048, 8), (46, 3072, 1)] {
            let key = test_key_bits(seed, bits);
            let d = private_exponent(&key);
            let n = key.public_key().modulus();
            let len = key.public_key().modulus_len();
            let mut cases = vec![
                Uint::zero(),
                Uint::one(),
                key.p.clone(),
                &key.p * &Uint::from_u64(3),
                key.q.clone(),
                // Modulus-length ciphertexts at or above n: the
                // reference reduces them mod n first, and so must the
                // CRT halves.
                n.clone(),
                n.add_ref(&key.p),
                Uint::one().shl(8 * len).checked_sub(&Uint::one()).unwrap(),
            ];
            let mut rng = StdRng::seed_from_u64(seed + 1);
            let above_n = Uint::one().shl(8 * len).checked_sub(n).unwrap();
            for _ in 0..random {
                cases.push(crate::rng::uint_below(&mut rng, n));
                cases.push(n.add_ref(&crate::rng::uint_below(&mut rng, &above_n)));
            }
            for c in &cases {
                let ciphertext = c.to_be_bytes_padded(len).unwrap();
                let reference = kem_kdf(&c.mod_pow(&d, n), len).unwrap();
                assert_eq!(
                    key.kem_decapsulate(&ciphertext).unwrap(),
                    reference,
                    "{bits} bits, c = {c:?}"
                );
            }

            for message in [&b"grant"[..], b"quote"] {
                let digest = sha256::digest(message);
                let em = Uint::from_be_bytes(&emsa_pkcs1_v15(&digest, len).unwrap());
                let reference = em.mod_pow(&d, n).to_be_bytes_padded(len).unwrap();
                assert_eq!(key.sign_digest(&digest).unwrap(), reference, "{bits} bits");
            }
        }
    }

    #[test]
    fn concurrent_signers_share_one_key() {
        // Eight threads, each running its own pair of CRT halves on the
        // same key's contexts, released together by a barrier. The key
        // is fresh, so the signers also race to build the contexts'
        // IFMA constants; the reference is the portable mul-only path.
        const SIGNERS: usize = 8;
        for (seed, bits) in [(43, 1024), (44, 2048)] {
            let key = test_key_bits(seed, bits);
            let digests: Vec<_> = (0..SIGNERS).map(|i| sha256::digest(&i.to_le_bytes())).collect();
            let barrier = std::sync::Barrier::new(SIGNERS);
            let concurrent: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = digests
                    .iter()
                    .map(|digest| {
                        let (key, barrier) = (&key, &barrier);
                        scope.spawn(move || {
                            barrier.wait();
                            key.sign_digest(digest).unwrap()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let reference: Vec<_> =
                digests.iter().map(|d| key.sign_digest_mul_only(d).unwrap()).collect();
            assert_eq!(concurrent, reference, "{bits} bits");
        }
    }

    #[test]
    fn kem_wrong_key_derives_different_secret() {
        let key_a = test_key(25);
        let key_b = test_key(26);
        // Same modulus length so decapsulation runs but yields garbage.
        let mut rng = StdRng::seed_from_u64(27);
        let (ct, shared) = key_a.public_key().kem_encapsulate(&mut rng).unwrap();
        let wrong = key_b.kem_decapsulate(&ct).unwrap();
        assert_ne!(shared, wrong);
    }

    #[test]
    fn debug_output_hides_secrets() {
        let key = test_key(14);
        // One signature builds the CRT contexts' IFMA constants, which
        // hold the primes in radix 2^52.
        key.sign(b"warm the contexts").unwrap();
        let rendered = format!("{key:?} {key:#?}");
        assert!(rendered.contains("fingerprint"));
        assert!(!rendered.contains(&private_exponent(&key).to_hex()));
        assert!(!rendered.contains(&key.p.to_hex()));
        // The CRT contexts are built over the secret primes.
        let context = format!("{:?} {:#?}", key.mont_p, key.mont_q);
        if crate::bignum::ifma_available() {
            assert!(context.contains("IfmaContext"), "{context}");
        } else {
            println!("IFMA absent, portable only");
        }
        let radix52 = |x: &Uint| crate::bignum::to_radix52(x, x.bit_len().div_ceil(52));
        let limbs = key.p.limbs.iter().chain(&key.q.limbs).copied();
        let digits = radix52(&key.p).into_iter().chain(radix52(&key.q));
        for word in limbs.chain(digits) {
            for text in [&rendered, &context] {
                assert!(!text.contains(&word.to_string()), "{text}");
                assert!(!text.contains(&format!("{word:x}")), "{text}");
            }
        }
    }
}
