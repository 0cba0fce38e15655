//! ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).
//!
//! The single authenticated-encryption primitive of the reproduction:
//! protects filesystem chunks ([`sinclave_fs`](../../sinclave_fs)),
//! the CAS's encrypted database, and secure-channel records.

use crate::chacha20::{self, KEY_LEN, NONCE_LEN};
use crate::ct;
use crate::error::CryptoError;
use crate::poly1305::{Poly1305, TAG_LEN};

/// An AEAD key.
///
/// Wraps the raw 32 bytes so keys cannot be confused with nonces or
/// plain buffers, and so `Debug` never prints key material.
#[derive(Clone, PartialEq, Eq)]
pub struct AeadKey([u8; KEY_LEN]);

impl std::fmt::Debug for AeadKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AeadKey(..)")
    }
}

impl AeadKey {
    /// Wraps raw key bytes.
    #[must_use]
    pub fn new(bytes: [u8; KEY_LEN]) -> Self {
        AeadKey(bytes)
    }

    /// Derives a key from input keying material and a context label.
    #[must_use]
    pub fn derive(ikm: &[u8], context: &[u8]) -> Self {
        AeadKey(crate::hkdf::derive(b"sinclave-aead", ikm, context))
    }

    /// Returns the raw bytes (needed to persist volume keys).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; KEY_LEN] {
        &self.0
    }
}

/// A 12-byte AEAD nonce.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Nonce(pub [u8; NONCE_LEN]);

impl Nonce {
    /// Builds a nonce from a 32-bit domain tag and a 64-bit counter —
    /// the scheme used by the filesystem (chunk index) and channels
    /// (record counter). Never reuse a (key, domain, counter) triple.
    #[must_use]
    pub fn from_parts(domain: u32, counter: u64) -> Self {
        let mut n = [0u8; NONCE_LEN];
        n[..4].copy_from_slice(&domain.to_be_bytes());
        n[4..].copy_from_slice(&counter.to_be_bytes());
        Nonce(n)
    }
}

/// Encrypts `plaintext` and authenticates it together with `aad`.
///
/// Returns `ciphertext || tag` (ciphertext length + 16).
#[must_use]
pub fn seal(key: &AeadKey, nonce: Nonce, aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    // Sized for the tag up front: appending it to an exact-length copy
    // would reallocate to twice the plaintext length, and sealed
    // journal chunks keep that allocation for the volume's lifetime.
    let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
    out.extend_from_slice(plaintext);
    chacha20::xor_in_place(&key.0, &nonce.0, 1, &mut out);
    let tag = compute_tag(key, nonce, aad, &out);
    out.extend_from_slice(&tag);
    out
}

/// Decrypts and authenticates a `ciphertext || tag` buffer.
///
/// # Errors
///
/// Returns [`CryptoError::InvalidLength`] if the buffer is shorter than
/// a tag, and [`CryptoError::AeadTagMismatch`] if authentication fails
/// (in which case no plaintext is released).
pub fn open(
    key: &AeadKey,
    nonce: Nonce,
    aad: &[u8],
    ciphertext_and_tag: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    if ciphertext_and_tag.len() < TAG_LEN {
        return Err(CryptoError::InvalidLength { context: "aead ciphertext" });
    }
    let (ciphertext, tag) = ciphertext_and_tag.split_at(ciphertext_and_tag.len() - TAG_LEN);
    let expect = compute_tag(key, nonce, aad, ciphertext);
    if !ct::eq(&expect, tag) {
        return Err(CryptoError::AeadTagMismatch);
    }
    let mut out = ciphertext.to_vec();
    chacha20::xor_in_place(&key.0, &nonce.0, 1, &mut out);
    Ok(out)
}

/// RFC 8439 AEAD tag: Poly1305 over `aad || pad || ct || pad || lens`.
fn compute_tag(key: &AeadKey, nonce: Nonce, aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
    let otk = chacha20::poly1305_key(&key.0, &nonce.0);
    let mut mac = Poly1305::new(&otk);
    mac.update(aad);
    mac.update(&zero_pad(aad.len()));
    mac.update(ciphertext);
    mac.update(&zero_pad(ciphertext.len()));
    let mut lens = [0u8; 16];
    lens[..8].copy_from_slice(&(aad.len() as u64).to_le_bytes());
    lens[8..].copy_from_slice(&(ciphertext.len() as u64).to_le_bytes());
    mac.update(&lens);
    mac.finalize()
}

fn zero_pad(len: usize) -> Vec<u8> {
    vec![0u8; (16 - len % 16) % 16]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> AeadKey {
        let mut k = [0u8; 32];
        for (i, b) in k.iter_mut().enumerate() {
            *b = 0x80 | i as u8;
        }
        AeadKey::new(k)
    }

    #[test]
    fn rfc8439_aead_vector() {
        // RFC 8439 §2.8.2.
        let mut k = [0u8; 32];
        for (i, b) in k.iter_mut().enumerate() {
            *b = 0x80 + i as u8;
        }
        let key = AeadKey::new(k);
        let nonce = Nonce([0x07, 0x00, 0x00, 0x00, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47]);
        let aad = [0x50u8, 0x51, 0x52, 0x53, 0xc0, 0xc1, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7];
        let pt = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let sealed = seal(&key, nonce, &aad, pt);
        let (ct, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        assert_eq!(&ct[..8], &[0xd3, 0x1a, 0x8d, 0x34, 0x64, 0x8e, 0x60, 0xdb]);
        assert_eq!(
            tag,
            &[
                0x1a, 0xe1, 0x0b, 0x59, 0x4f, 0x09, 0xe2, 0x6a, 0x7e, 0x90, 0x2e, 0xcb, 0xd0, 0x60,
                0x06, 0x91
            ]
        );
        assert_eq!(open(&key, nonce, &aad, &sealed).unwrap(), pt);
    }

    #[test]
    fn roundtrip_various_sizes() {
        let key = key();
        for size in [0usize, 1, 15, 16, 17, 63, 64, 65, 1000] {
            let pt: Vec<u8> = (0..size).map(|i| i as u8).collect();
            let nonce = Nonce::from_parts(1, size as u64);
            let sealed = seal(&key, nonce, b"aad", &pt);
            assert_eq!(sealed.len(), size + TAG_LEN);
            assert_eq!(open(&key, nonce, b"aad", &sealed).unwrap(), pt, "size {size}");
        }
    }

    #[test]
    fn rejects_wrong_aad() {
        let key = key();
        let nonce = Nonce::from_parts(0, 0);
        let sealed = seal(&key, nonce, b"right", b"secret");
        assert_eq!(open(&key, nonce, b"wrong", &sealed), Err(CryptoError::AeadTagMismatch));
    }

    #[test]
    fn rejects_wrong_nonce_or_key() {
        let key = key();
        let sealed = seal(&key, Nonce::from_parts(0, 1), b"", b"secret");
        assert!(open(&key, Nonce::from_parts(0, 2), b"", &sealed).is_err());
        let other = AeadKey::derive(b"other", b"ctx");
        assert!(open(&other, Nonce::from_parts(0, 1), b"", &sealed).is_err());
    }

    #[test]
    fn rejects_every_single_byte_flip() {
        let key = key();
        let nonce = Nonce::from_parts(7, 7);
        let sealed = seal(&key, nonce, b"aad", b"integrity matters");
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 1;
            assert!(open(&key, nonce, b"aad", &bad).is_err(), "flip at {i} accepted");
        }
    }

    #[test]
    fn rejects_truncation() {
        let key = key();
        let nonce = Nonce::from_parts(0, 0);
        let sealed = seal(&key, nonce, b"", b"data");
        assert!(open(&key, nonce, b"", &sealed[..sealed.len() - 1]).is_err());
        assert_eq!(
            open(&key, nonce, b"", &sealed[..10]),
            Err(CryptoError::InvalidLength { context: "aead ciphertext" })
        );
    }

    #[test]
    fn derive_is_deterministic_and_context_separated() {
        let a = AeadKey::derive(b"ikm", b"ctx1");
        let b = AeadKey::derive(b"ikm", b"ctx1");
        let c = AeadKey::derive(b"ikm", b"ctx2");
        assert_eq!(a, b);
        assert_ne!(a.as_bytes(), c.as_bytes());
    }

    #[test]
    fn nonce_from_parts_layout() {
        let n = Nonce::from_parts(0x01020304, 0x05060708090a0b0c);
        assert_eq!(n.0, [1, 2, 3, 4, 5, 6, 7, 8, 9, 0x0a, 0x0b, 0x0c]);
    }

    #[test]
    fn debug_hides_key() {
        assert_eq!(format!("{:?}", key()), "AeadKey(..)");
    }
}
