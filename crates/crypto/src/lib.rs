//! From-scratch cryptographic substrate for the SinClave reproduction.
//!
//! The paper's central primitive is an *interruptible* SHA-256
//! implementation whose internal Merkle–Damgård state can be exported
//! mid-computation (the "base enclave hash", §4.4 of the paper) and
//! later resumed and finalized by a different party (the verifier). This
//! crate provides that primitive ([`sha256::Sha256`],
//! [`sha256::Sha256State`]) together with everything else the
//! reproduction needs and that is not available as an allowed
//! dependency:
//!
//! * [`sha256`] — one-shot "fast" SHA-256 (stand-in for the paper's
//!   Ring/OpenSSL baseline in Fig. 6) and the interruptible hasher.
//! * [`hmac`] / [`hkdf`] — message authentication and key derivation,
//!   used for the simulated SGX report MAC and sealing-key derivation.
//! * [`bignum`] — arbitrary-precision unsigned integers with Montgomery
//!   exponentiation, the foundation for RSA.
//! * [`rsa`] — RSA-3072 PKCS#1 v1.5 signatures as used by SGX
//!   SigStructs and by SinClave's on-demand SigStruct creation.
//! * [`chacha20`] / [`poly1305`] / [`aead`] — the authenticated cipher
//!   used by the encrypted filesystem and the secure channels.
//! * [`ct`] — constant-time comparison helpers.
//!
//! # Example
//!
//! ```
//! use sinclave_crypto::sha256::{self, Sha256};
//!
//! // One-shot hashing.
//! let digest = sha256::digest(b"hello world");
//!
//! // Interruptible hashing: export the state at a block boundary,
//! // resume elsewhere, and obtain the same digest.
//! let mut h = Sha256::new();
//! h.update(&[0u8; 64]);
//! let state = h.export_state().expect("block aligned");
//! let mut resumed = Sha256::resume(state);
//! resumed.update(b"tail");
//! let mut reference = Sha256::new();
//! reference.update(&[0u8; 64]);
//! reference.update(b"tail");
//! assert_eq!(resumed.finalize(), reference.finalize());
//! assert_ne!(digest.as_bytes(), &[0u8; 32]);
//! ```

// `deny` rather than `forbid`: two modules are allowed `unsafe`
// islands of CPU intrinsics, each gated behind runtime feature
// detection — the SHA-NI compression core in `sha256::shani` and the
// AVX-512 IFMA Montgomery kernel in `bignum/ifma.rs`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod bignum;
pub mod chacha20;
pub mod ct;
pub mod error;
pub mod hkdf;
pub mod hmac;
mod join;
pub mod poly1305;
pub mod prime;
pub mod rng;
pub mod rsa;
pub mod sha256;
pub mod shard;

pub use error::CryptoError;
