//! From-scratch cryptographic primitives for the Revelio reproduction.
//!
//! The Revelio system (Galanou et al., Middleware 2023) depends on a stack of
//! cryptographic building blocks: SHA-384 launch digests taken by the AMD
//! secure processor, signatures over attestation reports, TLS key exchange
//! and record protection, `dm-crypt`'s AES-XTS disk encryption,
//! `dm-verity`'s SHA-256 Merkle trees and PBKDF2 key slots. Because this
//! reproduction may not pull third-party cryptography crates, every primitive
//! is implemented here, from the spec, with published test vectors.
//!
//! # What is provided
//!
//! * [`sha2`] — SHA-256, SHA-384 and SHA-512 (FIPS 180-4). The round
//!   constants are literal tables, and a unit test recomputes every entry
//!   from the fractional parts of cube/square roots of primes.
//! * [`hmac`] — HMAC (RFC 2104) over any provided hash.
//! * [`kdf`] — HKDF (RFC 5869) and PBKDF2 (RFC 8018).
//! * [`chacha`] / [`poly1305`] / [`aead`] — ChaCha20, Poly1305 and the
//!   combined ChaCha20-Poly1305 AEAD (RFC 8439), used by the TLS record
//!   layer simulation. ChaCha20 XORs whole 32-bit words and Poly1305 runs
//!   on three 44-bit limbs (9 wide multiplies per block).
//! * [`aes`] / [`xts`] — AES-128/256 (FIPS 197) as 32-bit T-table rounds,
//!   and the XTS mode used by `dm-crypt`'s default `aes-xts-plain64`
//!   cipher spec, with its tweak carried as a `u128`.
//! * [`field25519`] / [`ed25519`] / [`x25519`] — Curve25519 arithmetic,
//!   Ed25519 signatures (RFC 8032) standing in for the ECDSA-P384 VCEK, and
//!   X25519 key agreement (RFC 7748) for the TLS handshake. All of it runs
//!   on fixed limbs: the field on five 51-bit limbs with a dedicated
//!   squaring, a carry-free addition, an addition-chain inversion and a
//!   carry-trick canonical encoding; scalars mod L through a five-limb
//!   radix-2^52 Montgomery kernel; points in the cached (Niels) forms that
//!   skip work an addition or doubling does not need; verification and
//!   batch verification as w=5 NAF Straus.
//! * [`ct`] — constant-time comparison helpers.
//! * [`hex`] — hexadecimal encoding/decoding for fingerprints and reports.
//!
//! # Quick start
//!
//! ```
//! use revelio_crypto::sha2::Sha256;
//! use revelio_crypto::ed25519::SigningKey;
//!
//! let digest = Sha256::digest(b"hello revelio");
//! let key = SigningKey::from_seed(&[7u8; 32]);
//! let sig = key.sign(&digest);
//! assert!(key.verifying_key().verify(&digest, &sig).is_ok());
//! ```
//!
//! # Security note
//!
//! This crate exists to make a research reproduction self-contained. The
//! implementations are spec-faithful and tested against published vectors,
//! but they have not been audited or hardened against side channels beyond
//! basic constant-time tag comparison; do not use them to protect real data.
//! In particular AES indexes its S-box and T-tables by secret bytes, so it
//! is open to cache-timing attacks.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![forbid(unsafe_code)]

pub mod aead;
pub mod aes;
/// A small arbitrary-precision unsigned integer: the oracle the field,
/// scalar and SHA-2 constant tests check against.
#[cfg(test)]
mod bigint;
pub mod chacha;
pub mod ct;
pub mod ed25519;
pub mod error;
pub mod field25519;
pub mod hex;
pub mod hmac;
pub mod kdf;
pub mod metrics;
pub mod poly1305;
pub mod sealed_box;
pub mod sha2;
pub mod wire;
pub mod x25519;
pub mod xts;

pub use error::CryptoError;
