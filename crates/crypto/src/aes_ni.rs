//! Hardware AES-128 encryption via the x86-64 AES-NI instruction set.
//!
//! This is the crate's **one audited `unsafe` module** (the crate is
//! otherwise `#![deny(unsafe_code)]`): a runtime-probed fast path whose
//! semantic specification is the portable code it replaces. The scalar
//! path in [`crate::aes`] remains the reference; the FIPS-197
//! known-answer tests and the cross-backend property tests pin this path
//! bit-identical to it. Unlike the scalar path, which indexes a 256-byte
//! S-box with secret bytes, `AESENC` runs in constant time.
//!
//! # Safety argument
//!
//! Every `unsafe` here is one of exactly two shapes:
//!
//! 1. **ISA availability.** The `#[target_feature(enable = "aes,sse2")]`
//!    functions execute `AESENC`/`AESENCLAST`, which fault on CPUs
//!    without the AES extension. The safe wrappers ([`encrypt_block`],
//!    [`encrypt_blocks4`]) assert [`available`] — a cached `cpuid` probe —
//!    before entering the intrinsic body, so the feature precondition is
//!    checked on every public entry, not assumed from the backend enum.
//! 2. **Loads/stores of caller-owned arrays.** All pointer traffic is
//!    `_mm_loadu_si128`/`_mm_storeu_si128` on `[u8; 16]` values received
//!    by reference, so the 16 bytes are valid by construction and the
//!    unaligned variants carry no alignment precondition.
//!
//! No other invariants are trusted: the round keys arrive pre-expanded
//! from the shared portable FIPS-197 key schedule in [`crate::aes`]
//! (one audited source of truth for the schedule), and nothing here
//! allocates, caches, or writes globals.
//!
//! # Why four blocks at a time
//!
//! `AESENC` has a multi-cycle latency but single-cycle throughput on
//! every AES-NI implementation since Westmere. A single 16-byte block is
//! a serial chain of 10 dependent rounds, so one block at a time leaves
//! the AES unit ~75% idle. Counter-mode pads are embarrassingly parallel
//! — the four sub-block seeds of a 64-byte cacheline are independent —
//! so [`encrypt_blocks4`] interleaves four round chains and keeps the
//! unit's pipeline full.

use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_storeu_si128,
    _mm_xor_si128,
};

/// Rounds in AES-128, mirroring [`crate::aes`].
const ROUNDS: usize = 10;

/// Runtime AES-NI detection (cached by `std` after the first `cpuid`).
#[must_use]
pub fn available() -> bool {
    std::arch::is_x86_feature_detected!("aes")
}

/// Encrypts one block with AES-NI.
///
/// # Panics
///
/// Panics if the CPU does not support AES-NI ([`available`] is false);
/// backend selection never routes here in that case.
#[must_use]
pub fn encrypt_block(round_keys: &[[u8; 16]; ROUNDS + 1], block: &[u8; 16]) -> [u8; 16] {
    assert!(available(), "AES-NI backend selected without CPU support");
    // SAFETY: the assert above proves the `aes` target feature is
    // available on this CPU; `sse2` is part of the x86-64 baseline.
    unsafe { encrypt_block_impl(round_keys, block) }
}

/// Encrypts four independent blocks with interleaved round chains (see
/// the module docs for the pipelining rationale).
///
/// # Panics
///
/// Panics if the CPU does not support AES-NI ([`available`] is false);
/// backend selection never routes here in that case.
#[must_use]
pub fn encrypt_blocks4(
    round_keys: &[[u8; 16]; ROUNDS + 1],
    blocks: &[[u8; 16]; 4],
) -> [[u8; 16]; 4] {
    assert!(available(), "AES-NI backend selected without CPU support");
    // SAFETY: the assert above proves the `aes` target feature is
    // available on this CPU; `sse2` is part of the x86-64 baseline.
    unsafe { encrypt_blocks4_impl(round_keys, blocks) }
}

/// Loads a 16-byte array into a vector register.
///
/// # Safety
///
/// Requires SSE2 (x86-64 baseline). The load is unaligned and reads
/// exactly the 16 bytes of the array, which are valid by construction.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn load(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: `bytes` is a valid 16-byte array; loadu has no alignment
    // requirement.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

/// Stores a vector register to a 16-byte array.
///
/// # Safety
///
/// Requires SSE2 (x86-64 baseline). The store is unaligned and writes
/// exactly the 16 bytes of the array.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn store(out: &mut [u8; 16], value: __m128i) {
    // SAFETY: `out` is a valid 16-byte array; storeu has no alignment
    // requirement.
    unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), value) }
}

/// One-block AES-128: whiten, 9 full rounds, final round.
///
/// # Safety
///
/// The CPU must support the `aes` feature (checked by the public
/// wrappers).
#[target_feature(enable = "aes,sse2")]
unsafe fn encrypt_block_impl(round_keys: &[[u8; 16]; ROUNDS + 1], block: &[u8; 16]) -> [u8; 16] {
    // SAFETY: `aes`/`sse2` hold for the whole body per the function's
    // own target_feature contract.
    unsafe {
        let mut state = _mm_xor_si128(load(block), load(&round_keys[0]));
        for rk in round_keys.iter().take(ROUNDS).skip(1) {
            state = _mm_aesenc_si128(state, load(rk));
        }
        state = _mm_aesenclast_si128(state, load(&round_keys[ROUNDS]));
        let mut out = [0u8; 16];
        store(&mut out, state);
        out
    }
}

/// Four-block pipelined AES-128: the four round chains are interleaved
/// so consecutive `AESENC`s are independent and issue back-to-back.
///
/// # Safety
///
/// The CPU must support the `aes` feature (checked by the public
/// wrappers).
#[target_feature(enable = "aes,sse2")]
unsafe fn encrypt_blocks4_impl(
    round_keys: &[[u8; 16]; ROUNDS + 1],
    blocks: &[[u8; 16]; 4],
) -> [[u8; 16]; 4] {
    // SAFETY: `aes`/`sse2` hold for the whole body per the function's
    // own target_feature contract.
    unsafe {
        let k0 = load(&round_keys[0]);
        let mut s0 = _mm_xor_si128(load(&blocks[0]), k0);
        let mut s1 = _mm_xor_si128(load(&blocks[1]), k0);
        let mut s2 = _mm_xor_si128(load(&blocks[2]), k0);
        let mut s3 = _mm_xor_si128(load(&blocks[3]), k0);
        for rk in round_keys.iter().take(ROUNDS).skip(1) {
            let k = load(rk);
            s0 = _mm_aesenc_si128(s0, k);
            s1 = _mm_aesenc_si128(s1, k);
            s2 = _mm_aesenc_si128(s2, k);
            s3 = _mm_aesenc_si128(s3, k);
        }
        let k = load(&round_keys[ROUNDS]);
        s0 = _mm_aesenclast_si128(s0, k);
        s1 = _mm_aesenclast_si128(s1, k);
        s2 = _mm_aesenclast_si128(s2, k);
        s3 = _mm_aesenclast_si128(s3, k);
        let mut out = [[0u8; 16]; 4];
        store(&mut out[0], s0);
        store(&mut out[1], s1);
        store(&mut out[2], s2);
        store(&mut out[3], s3);
        out
    }
}
