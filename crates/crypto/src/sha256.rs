//! SHA-256 — one-shot and *interruptible* implementations over one
//! shared multi-block compression core.
//!
//! SGX computes `MRENCLAVE` as a SHA-256 over the enclave-construction
//! operations (§2.2.1 of the paper). Because SHA-256 is a
//! Merkle–Damgård construction, after every 64-byte block the entire
//! computation is captured by 256 bits of internal state plus a 64-bit
//! byte counter. SinClave exploits this: the signer *interrupts* the
//! measurement just before finalization and publishes that intermediate
//! state as the **base enclave hash**; the verifier later *resumes* it,
//! appends the measurement operations of the instance page, and
//! finalizes to predict the singleton's unique `MRENCLAVE` (§4.4).
//!
//! # Architecture: one core, two front ends
//!
//! All hashing funnels into [`compress_blocks`], a multi-block
//! compression core that consumes any whole number of 64-byte blocks
//! in one call. Two implementations back it, selected at runtime by
//! [`Backend`]:
//!
//! * **Portable** — a fully unrolled compression loop with the message
//!   schedule kept in a rolling 16-word window the optimizer holds in
//!   registers; works everywhere.
//! * **SHA-NI** — the x86 SHA extensions (`SHA256RNDS2` /
//!   `SHA256MSG1` / `SHA256MSG2`), detected via
//!   `is_x86_feature_detected!` and used automatically when present.
//!
//! Both front ends share the core:
//!
//! * [`fast::digest`] — the one-shot hash, the stand-in for the
//!   paper's Ring/OpenSSL baseline in Fig. 6.
//! * [`Sha256`] — the interruptible hasher with [`Sha256::export_state`]
//!   and [`Sha256::resume`], the paper's "SinClave" /
//!   "SinClave-BaseHash" variants. Its `update` streams contiguous
//!   block runs of the input straight into the core; the 64-byte
//!   buffer is touched only for unaligned heads and tails, so
//!   block-aligned callers (all SGX measurement operations are
//!   64-byte records) never pay for buffering.
//!
//! All backends produce bit-identical digests (verified against FIPS
//! 180-4 test vectors and against each other by property tests).

use crate::error::CryptoError;
use std::fmt;

/// SHA-256 block size in bytes.
pub const BLOCK_LEN: usize = 64;
/// SHA-256 digest size in bytes.
pub const DIGEST_LEN: usize = 32;

/// FIPS 180-4 initial hash value.
pub(crate) const IV: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// FIPS 180-4 round constants.
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// A 32-byte SHA-256 digest.
///
/// Displayed as lowercase hex. Comparison via `==` is *not*
/// constant-time; use [`crate::ct::eq`] when comparing secret MACs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Digest(pub [u8; DIGEST_LEN]);

impl Digest {
    /// Returns the digest bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
    }

    /// Returns the digest as an owned byte array.
    #[must_use]
    pub fn to_bytes(self) -> [u8; DIGEST_LEN] {
        self.0
    }

    /// Renders the digest as lowercase hex.
    ///
    /// Uses a nibble lookup table rather than per-byte formatting —
    /// measurements are hex-rendered on every log and debug line, so
    /// this sits on observability hot paths.
    #[must_use]
    pub fn to_hex(&self) -> String {
        let mut out = [0u8; 2 * DIGEST_LEN];
        for (pair, b) in out.chunks_exact_mut(2).zip(self.0) {
            pair[0] = HEX_DIGITS[usize::from(b >> 4)];
            pair[1] = HEX_DIGITS[usize::from(b & 0x0f)];
        }
        String::from_utf8(out.to_vec()).expect("hex digits are ASCII")
    }

    /// Parses a digest from a 64-character hex string.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] if the string is not
    /// exactly 64 hex characters.
    pub fn from_hex(s: &str) -> Result<Self, CryptoError> {
        let bytes = s.as_bytes();
        if bytes.len() != 64 {
            return Err(CryptoError::InvalidLength { context: "hex digest" });
        }
        let mut out = [0u8; DIGEST_LEN];
        for (i, chunk) in bytes.chunks_exact(2).enumerate() {
            let hi =
                hex_val(chunk[0]).ok_or(CryptoError::InvalidLength { context: "hex digest" })?;
            let lo =
                hex_val(chunk[1]).ok_or(CryptoError::InvalidLength { context: "hex digest" })?;
            out[i] = (hi << 4) | lo;
        }
        Ok(Digest(out))
    }
}

fn hex_val(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl From<[u8; DIGEST_LEN]> for Digest {
    fn from(bytes: [u8; DIGEST_LEN]) -> Self {
        Digest(bytes)
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Exportable intermediate SHA-256 state: the **base enclave hash**.
///
/// Captures the Merkle–Damgård chaining value after a whole number of
/// 64-byte blocks, together with the number of bytes consumed so far.
/// This is exactly the "256 bit of internal hash state and 64 bit of
/// already compressed input" the paper describes (§2.2.1) and is what
/// the SinClave signer publishes instead of a finalized `MRENCLAVE`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Sha256State {
    h: [u32; 8],
    byte_len: u64,
}

/// Serialized size of a [`Sha256State`] in bytes.
pub const STATE_LEN: usize = 40;

impl Sha256State {
    /// Creates a state from raw parts.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::UnalignedHashState`] if `byte_len` is not
    /// a multiple of the 64-byte block size — such a state could never
    /// have been exported from a block-aligned computation.
    pub fn from_parts(h: [u32; 8], byte_len: u64) -> Result<Self, CryptoError> {
        if !byte_len.is_multiple_of(BLOCK_LEN as u64) {
            return Err(CryptoError::UnalignedHashState);
        }
        Ok(Sha256State { h, byte_len })
    }

    /// The chaining value (H1..H8).
    #[must_use]
    pub fn chaining_value(&self) -> [u32; 8] {
        self.h
    }

    /// Number of message bytes already compressed into this state.
    #[must_use]
    pub fn byte_len(&self) -> u64 {
        self.byte_len
    }

    /// Serializes the state to its 40-byte wire encoding
    /// (big-endian H1..H8 followed by the big-endian byte counter).
    #[must_use]
    pub fn encode(&self) -> [u8; STATE_LEN] {
        let mut out = [0u8; STATE_LEN];
        for (i, word) in self.h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out[32..40].copy_from_slice(&self.byte_len.to_be_bytes());
        out
    }

    /// Parses a state from its 40-byte wire encoding.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] for a wrong-size buffer
    /// and [`CryptoError::UnalignedHashState`] for a byte counter that
    /// is not block-aligned.
    pub fn decode(bytes: &[u8]) -> Result<Self, CryptoError> {
        if bytes.len() != STATE_LEN {
            return Err(CryptoError::InvalidLength { context: "sha256 state" });
        }
        let mut h = [0u32; 8];
        for (i, word) in h.iter_mut().enumerate() {
            *word = u32::from_be_bytes(bytes[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        }
        let byte_len = u64::from_be_bytes(bytes[32..40].try_into().expect("8 bytes"));
        Sha256State::from_parts(h, byte_len)
    }
}

/// A compression-core implementation.
///
/// [`Backend::detect`] picks the fastest available one; the explicit
/// variants exist so benches and property tests can pin and compare
/// them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    /// The unrolled pure-Rust core (always available).
    Portable,
    /// The x86 SHA extensions core.
    ShaNi,
}

impl Backend {
    /// The fastest backend available on this CPU.
    #[must_use]
    pub fn detect() -> Backend {
        if Backend::sha_ni_available() {
            Backend::ShaNi
        } else {
            Backend::Portable
        }
    }

    /// Whether the SHA-NI core can run on this CPU.
    #[must_use]
    pub fn sha_ni_available() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            use std::sync::OnceLock;
            static AVAILABLE: OnceLock<bool> = OnceLock::new();
            *AVAILABLE.get_or_init(|| {
                std::arch::is_x86_feature_detected!("sha")
                    && std::arch::is_x86_feature_detected!("ssse3")
                    && std::arch::is_x86_feature_detected!("sse4.1")
            })
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// Compresses a run of whole blocks into `h` with this backend.
    ///
    /// # Panics
    ///
    /// Panics if `blocks.len()` is not a multiple of 64, or when
    /// [`Backend::ShaNi`] is forced on a CPU without the SHA
    /// extensions.
    pub fn compress_blocks(self, h: &mut [u32; 8], blocks: &[u8]) {
        assert!(
            blocks.len().is_multiple_of(BLOCK_LEN),
            "compress_blocks needs whole 64-byte blocks"
        );
        match self {
            Backend::Portable => portable::compress_blocks(h, blocks),
            Backend::ShaNi => {
                #[cfg(target_arch = "x86_64")]
                {
                    assert!(Backend::sha_ni_available(), "SHA-NI not available on this CPU");
                    // SAFETY: feature availability checked above.
                    #[allow(unsafe_code)]
                    unsafe {
                        shani::compress_blocks(h, blocks)
                    }
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    panic!("SHA-NI backend requires x86_64");
                }
            }
        }
    }
}

/// Compresses a run of whole 64-byte blocks into `h` using the fastest
/// available backend — the shared multi-block core behind every hash
/// in this module.
///
/// # Panics
///
/// Panics if `blocks.len()` is not a multiple of 64.
pub fn compress_blocks(h: &mut [u32; 8], blocks: &[u8]) {
    Backend::detect().compress_blocks(h, blocks);
}

mod portable {
    //! The unrolled pure-Rust compression core.
    //!
    //! The message schedule lives in a rolling 16-word window indexed
    //! mod 16, which the optimizer keeps in registers; rounds are
    //! unrolled in groups of eight with rotated register names so no
    //! shuffling is needed between rounds. Blocks are consumed in a
    //! loop inside one call so the working state never round-trips
    //! through memory between blocks of a run.

    use super::{BLOCK_LEN, K};

    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $k:expr, $w:expr) => {{
            let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
            let ch = ($e & $f) ^ (!$e & $g);
            let t1 = $h.wrapping_add(s1).wrapping_add(ch).wrapping_add($k).wrapping_add($w);
            let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
            let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(s0.wrapping_add(maj));
        }};
    }

    #[inline(always)]
    fn schedule(w: &mut [u32; 16], i: usize) -> u32 {
        let w15 = w[(i + 1) & 15];
        let w2 = w[(i + 14) & 15];
        let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
        let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
        w[i & 15] = w[i & 15].wrapping_add(s0).wrapping_add(w[(i + 9) & 15]).wrapping_add(s1);
        w[i & 15]
    }

    /// Compresses `blocks` (a multiple of 64 bytes) into `h`.
    pub(super) fn compress_blocks(h: &mut [u32; 8], blocks: &[u8]) {
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
        for block in blocks.chunks_exact(BLOCK_LEN) {
            let mut w = [0u32; 16];
            for (i, word) in w.iter_mut().enumerate() {
                *word = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
            }

            let (sa, sb, sc, sd, se, sf, sg, sh) = (a, b, c, d, e, f, g, hh);
            // Rounds 0..16 use the raw message words, 16..64 the
            // rolling schedule. Groups of 8 are unrolled with rotated
            // registers.
            let mut i = 0;
            while i < 64 {
                let w0 = if i < 16 { w[i & 15] } else { schedule(&mut w, i) };
                round!(a, b, c, d, e, f, g, hh, K[i], w0);
                let w1 = if i + 1 < 16 { w[(i + 1) & 15] } else { schedule(&mut w, i + 1) };
                round!(hh, a, b, c, d, e, f, g, K[i + 1], w1);
                let w2 = if i + 2 < 16 { w[(i + 2) & 15] } else { schedule(&mut w, i + 2) };
                round!(g, hh, a, b, c, d, e, f, K[i + 2], w2);
                let w3 = if i + 3 < 16 { w[(i + 3) & 15] } else { schedule(&mut w, i + 3) };
                round!(f, g, hh, a, b, c, d, e, K[i + 3], w3);
                let w4 = if i + 4 < 16 { w[(i + 4) & 15] } else { schedule(&mut w, i + 4) };
                round!(e, f, g, hh, a, b, c, d, K[i + 4], w4);
                let w5 = if i + 5 < 16 { w[(i + 5) & 15] } else { schedule(&mut w, i + 5) };
                round!(d, e, f, g, hh, a, b, c, K[i + 5], w5);
                let w6 = if i + 6 < 16 { w[(i + 6) & 15] } else { schedule(&mut w, i + 6) };
                round!(c, d, e, f, g, hh, a, b, K[i + 6], w6);
                let w7 = if i + 7 < 16 { w[(i + 7) & 15] } else { schedule(&mut w, i + 7) };
                round!(b, c, d, e, f, g, hh, a, K[i + 7], w7);
                i += 8;
            }

            a = a.wrapping_add(sa);
            b = b.wrapping_add(sb);
            c = c.wrapping_add(sc);
            d = d.wrapping_add(sd);
            e = e.wrapping_add(se);
            f = f.wrapping_add(sf);
            g = g.wrapping_add(sg);
            hh = hh.wrapping_add(sh);
        }
        *h = [a, b, c, d, e, f, g, hh];
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani {
    //! The x86 SHA-extensions compression core.
    //!
    //! Follows the canonical `SHA256RNDS2`/`SHA256MSG1`/`SHA256MSG2`
    //! schedule (Intel's reference flow): state is repacked into the
    //! ABEF/CDGH lane layout the instructions expect, four message
    //! vectors roll through the 64 rounds, and the run loop keeps the
    //! repacked state in registers across blocks.
    //!
    //! This is one of the crate's two `unsafe` islands, beside the
    //! IFMA bignum kernel (the crate is otherwise
    //! `#![deny(unsafe_code)]`): the intrinsics require it.
    //! Callers must guarantee the `sha`, `ssse3` and `sse4.1` CPU
    //! features, which [`super::Backend`] checks before dispatching.

    use super::{BLOCK_LEN, K};
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    #[inline(always)]
    // SAFETY: callers pass `group < 16`, so the 16-byte read at
    // `K[group * 4]` stays inside K's 64 entries; `_mm_loadu_si128`
    // tolerates the unaligned pointer.
    unsafe fn load_k(group: usize) -> __m128i {
        _mm_loadu_si128(K.as_ptr().add(group * 4).cast())
    }

    /// Compresses `blocks` (a multiple of 64 bytes) into `h`.
    ///
    /// # Safety
    ///
    /// The CPU must support the `sha`, `ssse3` and `sse4.1` features.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    // SAFETY: the caller contract above requires sha/ssse3/sse4.1,
    // which [`super::Backend`] probes before dispatching here; all
    // loads/stores use unaligned intrinsics on in-bounds pointers.
    pub(super) unsafe fn compress_blocks(h: &mut [u32; 8], blocks: &[u8]) {
        // Byte shuffle turning the big-endian message into u32 lanes.
        let mask = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0bu64 as i64, 0x0405_0607_0001_0203);

        // Repack [a,b,c,d] / [e,f,g,h] into ABEF / CDGH lane order.
        let tmp = _mm_loadu_si128(h.as_ptr().cast());
        let state1 = _mm_loadu_si128(h.as_ptr().add(4).cast());
        let tmp = _mm_shuffle_epi32(tmp, 0xb1); // CDAB
        let state1 = _mm_shuffle_epi32(state1, 0x1b); // EFGH
        let mut abef = _mm_alignr_epi8(tmp, state1, 8); // ABEF
        let mut cdgh = _mm_blend_epi16(state1, tmp, 0xf0); // CDGH

        for block in blocks.chunks_exact(BLOCK_LEN) {
            let abef_save = abef;
            let cdgh_save = cdgh;

            // Two SHA256RNDS2 per 4-round group: the low qword of the
            // K+W vector feeds the first pair of rounds, the high the
            // second.
            macro_rules! rounds4 {
                ($wk:expr) => {{
                    let wk = $wk;
                    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                    let wk_hi = _mm_shuffle_epi32(wk, 0x0e);
                    abef = _mm_sha256rnds2_epu32(abef, cdgh, wk_hi);
                }};
            }
            // One message-schedule step: with the current vector `cur`
            // (W[i..i+4]) and its predecessor `prev`, extend `next`
            // toward W[i+16..i+20].
            macro_rules! extend {
                ($cur:ident, $prev:ident, $next:ident) => {{
                    let shifted = _mm_alignr_epi8($cur, $prev, 4);
                    $next = _mm_add_epi32($next, shifted);
                    $next = _mm_sha256msg2_epu32($next, $cur);
                }};
            }

            let p = block.as_ptr();
            // Rounds 0..16: raw message words.
            let mut msg0 = _mm_shuffle_epi8(_mm_loadu_si128(p.cast()), mask);
            rounds4!(_mm_add_epi32(msg0, load_k(0)));
            let mut msg1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(16).cast()), mask);
            rounds4!(_mm_add_epi32(msg1, load_k(1)));
            msg0 = _mm_sha256msg1_epu32(msg0, msg1);
            let mut msg2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(32).cast()), mask);
            rounds4!(_mm_add_epi32(msg2, load_k(2)));
            msg1 = _mm_sha256msg1_epu32(msg1, msg2);
            let mut msg3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(48).cast()), mask);
            rounds4!(_mm_add_epi32(msg3, load_k(3)));
            extend!(msg3, msg2, msg0);
            msg2 = _mm_sha256msg1_epu32(msg2, msg3);

            // Rounds 16..48: full schedule pipeline, message vectors
            // rotating msg0 → msg1 → msg2 → msg3.
            macro_rules! scheduled4 {
                ($group:expr, $cur:ident, $prev:ident, $next:ident) => {{
                    rounds4!(_mm_add_epi32($cur, load_k($group)));
                    extend!($cur, $prev, $next);
                    $prev = _mm_sha256msg1_epu32($prev, $cur);
                }};
            }
            scheduled4!(4, msg0, msg3, msg1);
            scheduled4!(5, msg1, msg0, msg2);
            scheduled4!(6, msg2, msg1, msg3);
            scheduled4!(7, msg3, msg2, msg0);
            scheduled4!(8, msg0, msg3, msg1);
            scheduled4!(9, msg1, msg0, msg2);
            scheduled4!(10, msg2, msg1, msg3);
            scheduled4!(11, msg3, msg2, msg0);
            scheduled4!(12, msg0, msg3, msg1);

            // Rounds 52..60: schedule winds down (no more SHA256MSG1 —
            // the remaining extensions' partials are already in place).
            rounds4!(_mm_add_epi32(msg1, load_k(13)));
            extend!(msg1, msg0, msg2);
            rounds4!(_mm_add_epi32(msg2, load_k(14)));
            extend!(msg2, msg1, msg3);
            // Rounds 60..64.
            rounds4!(_mm_add_epi32(msg3, load_k(15)));

            abef = _mm_add_epi32(abef, abef_save);
            cdgh = _mm_add_epi32(cdgh, cdgh_save);
        }

        // Repack ABEF/CDGH back into [a..d] / [e..h].
        let tmp = _mm_shuffle_epi32(abef, 0x1b); // FEBA
        let cdgh = _mm_shuffle_epi32(cdgh, 0xb1); // DCHG
        let abcd = _mm_blend_epi16(tmp, cdgh, 0xf0); // DCBA
        let efgh = _mm_alignr_epi8(cdgh, tmp, 8); // HGFE
        _mm_storeu_si128(h.as_mut_ptr().cast(), abcd);
        _mm_storeu_si128(h.as_mut_ptr().add(4).cast(), efgh);
    }
}

/// Interruptible, resumable SHA-256 hasher.
///
/// This is the implementation the paper calls "SinClave" in Fig. 6.
/// Contiguous 64-byte block runs of the input are streamed directly
/// into the shared multi-block core ([`compress_blocks`]); the
/// internal buffer only fills for unaligned heads and tails. The
/// state can be exported at any 64-byte boundary and resumed later —
/// possibly by a different party on a different machine.
///
/// # Example
///
/// ```
/// use sinclave_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    h: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
    backend: Backend,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sha256")
            .field("total_len", &self.total_len)
            .field("buffered", &self.buf_len)
            .field("backend", &self.backend)
            .finish()
    }
}

impl Sha256 {
    /// Creates a hasher initialized with the FIPS 180-4 IV, using the
    /// fastest available backend.
    #[must_use]
    pub fn new() -> Self {
        Self::with_backend(Backend::detect())
    }

    /// Creates a hasher pinned to a specific backend (for benches and
    /// differential tests).
    #[must_use]
    pub fn with_backend(backend: Backend) -> Self {
        Sha256 { h: IV, buf: [0u8; BLOCK_LEN], buf_len: 0, total_len: 0, backend }
    }

    /// Resumes a computation from an exported intermediate state.
    ///
    /// The resumed hasher behaves exactly as if it had consumed
    /// `state.byte_len()` bytes already: subsequent [`update`] calls
    /// append to the original message and [`finalize`] produces the
    /// digest of the full concatenated message.
    ///
    /// [`update`]: Sha256::update
    /// [`finalize`]: Sha256::finalize
    #[must_use]
    pub fn resume(state: Sha256State) -> Self {
        Self::resume_with_backend(state, Backend::detect())
    }

    /// Resumes on a pinned backend.
    #[must_use]
    pub fn resume_with_backend(state: Sha256State, backend: Backend) -> Self {
        Sha256 { h: state.h, buf: [0u8; BLOCK_LEN], buf_len: 0, total_len: state.byte_len, backend }
    }

    /// The backend this hasher compresses with.
    #[must_use]
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Total number of message bytes consumed so far.
    #[must_use]
    pub fn total_len(&self) -> u64 {
        self.total_len
    }

    /// Absorbs `data` into the hash.
    ///
    /// The longest aligned run of whole blocks is handed to the
    /// multi-block core in one call; only a partial leading block
    /// (from a previous unaligned update) or trailing remainder goes
    /// through the internal buffer.
    pub fn update(&mut self, data: &[u8]) {
        let mut data = data;
        self.total_len =
            self.total_len.checked_add(data.len() as u64).expect("sha256 message length overflow");

        if self.buf_len > 0 {
            let need = BLOCK_LEN - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == BLOCK_LEN {
                let block = self.buf;
                self.backend.compress_blocks(&mut self.h, &block);
                self.buf_len = 0;
            }
        }

        let run_len = data.len() - data.len() % BLOCK_LEN;
        if run_len > 0 {
            self.backend.compress_blocks(&mut self.h, &data[..run_len]);
        }
        let rest = &data[run_len..];
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Exports the intermediate state — the *base enclave hash*.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::UnalignedHashState`] if the number of
    /// consumed bytes is not a multiple of 64: the Merkle–Damgård state
    /// alone cannot represent a partially filled block. SGX measurement
    /// operations are always multiples of 64 bytes, so the SinClave
    /// signer never hits this case.
    pub fn export_state(&self) -> Result<Sha256State, CryptoError> {
        if self.buf_len != 0 {
            return Err(CryptoError::UnalignedHashState);
        }
        Sha256State::from_parts(self.h, self.total_len)
    }

    /// Finalizes the hash, consuming the hasher.
    #[must_use]
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Standard padding: 0x80, zeros, 64-bit big-endian bit length —
        // assembled into one or two tail blocks and compressed in a
        // single core call.
        let mut tail = [0u8; 2 * BLOCK_LEN];
        tail[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        tail[self.buf_len] = 0x80;
        let tail_len = if self.buf_len < 56 { BLOCK_LEN } else { 2 * BLOCK_LEN };
        tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
        self.backend.compress_blocks(&mut self.h, &tail[..tail_len]);

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// Hashes `data` with the interruptible implementation.
///
/// Convenience wrapper over [`Sha256`].
#[must_use]
pub fn digest(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Hashes the concatenation of several byte slices.
#[must_use]
pub fn digest_parts(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

pub mod fast {
    //! One-shot SHA-256 tuned for throughput — the Fig. 6 baseline.
    //!
    //! The paper compares its interruptible implementation against the
    //! `ring` crate (hand-optimized assembly, ~405 MB/s on their Xeon).
    //! The same role is filled here by the shared multi-block core
    //! ([`super::compress_blocks`]): the whole aligned run of the
    //! input goes to the core in one call (SHA-NI when the CPU has
    //! it), followed by the padded tail. Skipping the interruptible
    //! hasher's buffer/counter bookkeeping entirely is what keeps this
    //! the throughput ceiling that Fig. 6's interruptible variants are
    //! measured against.

    use super::{Backend, Digest, BLOCK_LEN, DIGEST_LEN, IV};

    /// Hashes `data` in one shot with the fastest available backend.
    #[must_use]
    pub fn digest(data: &[u8]) -> Digest {
        digest_with_backend(Backend::detect(), data)
    }

    /// Hashes `data` in one shot on a pinned backend.
    #[must_use]
    pub fn digest_with_backend(backend: Backend, data: &[u8]) -> Digest {
        let mut h = IV;
        let run_len = data.len() - data.len() % BLOCK_LEN;
        if run_len > 0 {
            backend.compress_blocks(&mut h, &data[..run_len]);
        }

        // Final padded block(s).
        let rest = &data[run_len..];
        let bit_len = (data.len() as u64).wrapping_mul(8);
        let mut tail = [0u8; 2 * BLOCK_LEN];
        tail[..rest.len()].copy_from_slice(rest);
        tail[rest.len()] = 0x80;
        let tail_len = if rest.len() < 56 { BLOCK_LEN } else { 2 * BLOCK_LEN };
        tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
        backend.compress_blocks(&mut h, &tail[..tail_len]);

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Backends available on the running CPU.
    fn backends() -> Vec<Backend> {
        let mut all = vec![Backend::Portable];
        if Backend::sha_ni_available() {
            all.push(Backend::ShaNi);
        }
        all
    }

    /// FIPS 180-4 / NIST CAVS reference vectors.
    const VECTORS: &[(&[u8], &str)] = &[
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
    ];

    #[test]
    fn interruptible_matches_vectors_on_every_backend() {
        for backend in backends() {
            for (msg, expect) in VECTORS {
                let mut h = Sha256::with_backend(backend);
                h.update(msg);
                assert_eq!(h.finalize().to_hex(), *expect, "{backend:?}");
            }
        }
    }

    #[test]
    fn fast_matches_vectors_on_every_backend() {
        for backend in backends() {
            for (msg, expect) in VECTORS {
                assert_eq!(
                    fast::digest_with_backend(backend, msg).to_hex(),
                    *expect,
                    "{backend:?}"
                );
            }
        }
    }

    #[test]
    fn million_a_vector() {
        let msg = vec![b'a'; 1_000_000];
        let expect = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        assert_eq!(digest(&msg).to_hex(), expect);
        assert_eq!(fast::digest(&msg).to_hex(), expect);
        for backend in backends() {
            assert_eq!(fast::digest_with_backend(backend, &msg).to_hex(), expect);
        }
    }

    #[test]
    fn incremental_update_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for backend in backends() {
            for split in [0usize, 1, 63, 64, 65, 128, 500, 999, 1000] {
                let mut h = Sha256::with_backend(backend);
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(h.finalize(), digest(&data), "{backend:?} split {split}");
            }
        }
    }

    #[test]
    fn backends_agree_across_sizes_and_splits() {
        // Differential check across every length crossing the buffer
        // and multi-block boundaries, with a prime-stride split.
        let data: Vec<u8> =
            (0..4096u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        if !Backend::sha_ni_available() {
            return;
        }
        for len in (0..300).chain([511, 512, 513, 1024, 4095, 4096]) {
            let expect = fast::digest_with_backend(Backend::Portable, &data[..len]);
            assert_eq!(
                fast::digest_with_backend(Backend::ShaNi, &data[..len]),
                expect,
                "one-shot len {len}"
            );
            let mut h = Sha256::with_backend(Backend::ShaNi);
            for chunk in data[..len].chunks(97) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), expect, "incremental len {len}");
        }
    }

    #[test]
    fn export_resume_roundtrip() {
        let head = vec![0xabu8; 256];
        let tail = b"the instance page goes here";
        let mut h = Sha256::new();
        h.update(&head);
        let state = h.export_state().expect("aligned");
        assert_eq!(state.byte_len(), 256);

        let mut resumed = Sha256::resume(state);
        resumed.update(tail);

        let mut full = Sha256::new();
        full.update(&head);
        full.update(tail);
        assert_eq!(resumed.finalize(), full.finalize());
    }

    #[test]
    fn export_resume_crosses_backends() {
        // A state exported from one backend must resume bit-exactly on
        // the other — the signer and verifier may run different CPUs.
        if !Backend::sha_ni_available() {
            return;
        }
        let head = vec![0x5au8; 640];
        let tail = vec![0xc3u8; 320];
        let reference = {
            let mut h = Sha256::with_backend(Backend::Portable);
            h.update(&head);
            h.update(&tail);
            h.finalize()
        };
        for (first, second) in
            [(Backend::Portable, Backend::ShaNi), (Backend::ShaNi, Backend::Portable)]
        {
            let mut h = Sha256::with_backend(first);
            h.update(&head);
            let state = h.export_state().expect("aligned");
            let mut resumed = Sha256::resume_with_backend(state, second);
            resumed.update(&tail);
            assert_eq!(resumed.finalize(), reference, "{first:?} -> {second:?}");
        }
    }

    #[test]
    fn export_rejects_unaligned() {
        let mut h = Sha256::new();
        h.update(b"odd");
        assert_eq!(h.export_state(), Err(CryptoError::UnalignedHashState));
    }

    #[test]
    fn state_encode_decode_roundtrip() {
        let mut h = Sha256::new();
        h.update(&[7u8; 640]);
        let state = h.export_state().expect("aligned");
        let encoded = state.encode();
        let decoded = Sha256State::decode(&encoded).expect("decodes");
        assert_eq!(decoded, state);
    }

    #[test]
    fn state_decode_rejects_bad_input() {
        assert!(Sha256State::decode(&[0u8; 39]).is_err());
        let mut enc = [0u8; STATE_LEN];
        enc[39] = 1; // byte_len = 1, not block aligned
        assert_eq!(Sha256State::decode(&enc), Err(CryptoError::UnalignedHashState));
    }

    #[test]
    fn digest_hex_roundtrip_and_display() {
        let d = digest(b"roundtrip");
        assert_eq!(Digest::from_hex(&d.to_hex()).expect("parses"), d);
        assert_eq!(format!("{d}"), d.to_hex());
        assert!(format!("{d:?}").starts_with("Digest("));
    }

    #[test]
    fn to_hex_covers_all_nibbles() {
        let d = Digest(core::array::from_fn(|i| {
            [0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xefu8][i % 8].rotate_left((i / 8) as u32)
        }));
        let via_format: String = d.0.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(d.to_hex(), via_format);
    }

    #[test]
    fn from_hex_rejects_garbage() {
        assert!(Digest::from_hex("xyz").is_err());
        assert!(Digest::from_hex(&"g".repeat(64)).is_err());
    }

    #[test]
    fn digest_parts_equals_concatenation() {
        let d1 = digest_parts(&[b"ab", b"cd", b""]);
        let d2 = digest(b"abcd");
        assert_eq!(d1, d2);
    }

    #[test]
    fn resume_from_zero_state_equals_fresh() {
        let state = Sha256State::from_parts(IV, 0).expect("aligned");
        let mut resumed = Sha256::resume(state);
        resumed.update(b"abc");
        assert_eq!(resumed.finalize(), digest(b"abc"));
    }

    #[test]
    fn compress_blocks_rejects_partial_blocks() {
        let mut h = IV;
        let result = std::panic::catch_unwind(move || {
            compress_blocks(&mut h, &[0u8; 65]);
        });
        assert!(result.is_err());
    }
}
