//! Cryptographic substrate for the morphtree secure-memory reproduction.
//!
//! Secure memories (§II of the paper) need three primitives:
//!
//! 1. A block cipher to generate one-time pads for counter-mode encryption
//!    ([`aes::Aes128`], used by [`otp`]).
//! 2. A keyed MAC to authenticate data lines and counter lines
//!    ([`mac`], a from-scratch SipHash-2-4).
//! 3. Counter-mode encryption of 64-byte cachelines ([`otp::CtrModeCipher`]).
//!
//! Everything is implemented from scratch (no external crypto crates) because
//! the reproduction must be self-contained. AES-128 is validated against the
//! FIPS-197 vectors and SipHash-2-4 against the reference vectors from the
//! SipHash paper.
//!
//! AES runs on one of two backends ([`aes::AesBackend`]), chosen once by
//! [`aes::detected_backend`]: hardware AES-NI where the CPU supports it
//! ([`aes_ni`], the crate's one audited `unsafe` module), else the
//! portable scalar FIPS-197 reference, which known-answer and property
//! tests pin the hardware path bit-identical to.
//!
//! # Example
//!
//! ```
//! use morphtree_crypto::otp::CtrModeCipher;
//!
//! let cipher = CtrModeCipher::new([7u8; 16]);
//! let plaintext = [0x5a_u8; 64];
//! let line_addr = 0x1234_5678;
//! let counter = 42;
//!
//! let ciphertext = cipher.encrypt_line(line_addr, counter, &plaintext);
//! assert_ne!(ciphertext, plaintext);
//! assert_eq!(cipher.decrypt_line(line_addr, counter, &ciphertext), plaintext);
//! ```

// `deny` rather than `forbid` so the audited hardware-intrinsics module
// below can opt back in; everything else in the crate stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub mod aes_ni;
pub mod mac;
pub mod otp;

pub use aes::{Aes128, AesBackend};
pub use mac::{MacKey, MacTag};
pub use otp::CtrModeCipher;

/// Size of a cacheline in bytes, the protection granularity of secure memory.
pub const CACHELINE_BYTES: usize = 64;

/// A 64-byte cacheline payload.
pub type CachelineBytes = [u8; CACHELINE_BYTES];
