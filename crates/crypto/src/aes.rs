//! AES-128 block cipher (encryption direction only), implemented from scratch
//! per FIPS-197.
//!
//! Counter-mode encryption (the paper's Fig 2) only ever runs the cipher in
//! the forward direction — the pad is XORed for both encryption and
//! decryption — so the inverse cipher is deliberately not implemented.
//!
//! # Backends
//!
//! There are exactly two ways to run the rounds, fixed per [`Aes128`] at
//! key-expansion time:
//!
//! - [`AesBackend::AesNi`] — hardware `AESENC` via [`crate::aes_ni`]
//!   (runtime `cpuid`-probed), with four-block software pipelining. The
//!   only constant-time path.
//! - [`AesBackend::Scalar`] — the table-free FIPS-197 formulation (S-box
//!   byte lookups, `MixColumns` via xtime arithmetic). The independently
//!   auditable reference the hardware path is tested against, the
//!   fallback on x86-64 CPUs without AES-NI, and the only path on other
//!   architectures. Its 256-byte S-box lookups are not constant-time.
//!
//! [`detected_backend`] is the one place the choice is made: AES-NI when
//! the CPU has it, else scalar. [`force_backend`] is a test hook that pins
//! the choice process-wide, so equivalence oracles can run on the scalar
//! path on AES-NI hosts. Both backends are bit-identical by construction
//! and by test; forcing one can never change observable behaviour, only
//! speed.

use core::sync::atomic::{AtomicU8, Ordering};

/// An AES-128 implementation strategy, fixed per [`Aes128`] instance at
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AesBackend {
    /// Table-free FIPS-197 formulation (S-box bytes + xtime MixColumns).
    /// The semantic reference, and the fallback without AES-NI.
    Scalar,
    /// Hardware `AESENC` via [`crate::aes_ni`], with four-block software
    /// pipelining. Selected when the CPU supports it.
    AesNi,
}

impl AesBackend {
    /// The report/JSON name of the backend.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            AesBackend::Scalar => "scalar",
            AesBackend::AesNi => "aesni",
        }
    }

    /// Whether this backend can run on the current CPU.
    #[must_use]
    pub fn available(self) -> bool {
        match self {
            AesBackend::Scalar => true,
            AesBackend::AesNi => aes_ni_available(),
        }
    }

    /// Every backend runnable on the current CPU, reference first.
    #[must_use]
    pub fn all_available() -> Vec<AesBackend> {
        [AesBackend::Scalar, AesBackend::AesNi]
            .into_iter()
            .filter(|b| b.available())
            .collect()
    }
}

impl core::fmt::Display for AesBackend {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(target_arch = "x86_64")]
fn aes_ni_available() -> bool {
    crate::aes_ni::available()
}

#[cfg(not(target_arch = "x86_64"))]
fn aes_ni_available() -> bool {
    false
}

/// Process-wide backend override: 0 = auto, else `AesBackend` + 1.
/// Relaxed ordering suffices — every value the cell can hold selects a
/// bit-identical permutation, so racing readers can never observe
/// different *behaviour*, only different speed.
static FORCED_BACKEND: AtomicU8 = AtomicU8::new(0);

/// Forces every subsequent [`Aes128::new`] onto `backend` (process-wide),
/// or restores automatic selection with `None`. A test hook: it lets the
/// equivalence oracles run whole memories on the scalar path.
///
/// Already-constructed ciphers keep their backend. Forcing an
/// unavailable backend is the caller's error: such ciphers panic on
/// first use.
pub fn force_backend(backend: Option<AesBackend>) {
    let encoded = match backend {
        None => 0,
        Some(AesBackend::Scalar) => 1,
        Some(AesBackend::AesNi) => 2,
    };
    FORCED_BACKEND.store(encoded, Ordering::Relaxed);
}

/// The currently forced backend, if any.
#[must_use]
pub fn forced_backend() -> Option<AesBackend> {
    match FORCED_BACKEND.load(Ordering::Relaxed) {
        1 => Some(AesBackend::Scalar),
        2 => Some(AesBackend::AesNi),
        _ => None,
    }
}

/// What automatic selection resolves to on this CPU (ignoring any
/// [`force_backend`] override): AES-NI when available, else scalar.
#[must_use]
pub fn detected_backend() -> AesBackend {
    if aes_ni_available() {
        AesBackend::AesNi
    } else {
        AesBackend::Scalar
    }
}

/// The backend [`Aes128::new`] will pick right now (override, else
/// detection).
#[must_use]
pub fn selected_backend() -> AesBackend {
    forced_backend().unwrap_or_else(detected_backend)
}

/// Comma-separated list of the probed CPU features relevant to the
/// crypto hot path, for the benchmark host records (e.g. `"aes,avx2"`;
/// `"none"` when nothing relevant is present).
#[must_use]
pub fn cpu_features() -> String {
    let mut features: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        // Only `aes` selects a backend; the rest are recorded so a
        // benchmark's host record says what the CPU could have offered.
        if std::arch::is_x86_feature_detected!("aes") {
            features.push("aes");
        }
        if std::arch::is_x86_feature_detected!("vaes") {
            features.push("vaes");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            features.push("avx512f");
        }
        if std::arch::is_x86_feature_detected!("avx512vl") {
            features.push("avx512vl");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            features.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("pclmulqdq") {
            features.push("pclmulqdq");
        }
    }
    if features.is_empty() {
        "none".to_owned()
    } else {
        features.join(",")
    }
}

/// The AES S-box (FIPS-197 Figure 7).
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for the key schedule.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Number of rounds for AES-128.
const ROUNDS: usize = 10;

/// Multiply a field element by `x` (i.e. `{02}`) in GF(2^8).
#[inline]
const fn xtime(b: u8) -> u8 {
    let shifted = b << 1;
    if b & 0x80 != 0 {
        shifted ^ 0x1b
    } else {
        shifted
    }
}

/// AES-128 with a pre-expanded key schedule.
///
/// # Example
///
/// ```
/// use morphtree_crypto::Aes128;
///
/// // FIPS-197 Appendix B example.
/// let key = [
///     0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
///     0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
/// ];
/// let plaintext = [
///     0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
///     0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34,
/// ];
/// let cipher = Aes128::new(&key);
/// let ct = cipher.encrypt_block(&plaintext);
/// assert_eq!(ct[0], 0x39);
/// assert_eq!(ct[15], 0x32);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; ROUNDS + 1],
    /// Implementation strategy, chosen once at construction (see
    /// [`selected_backend`]).
    backend: AesBackend,
}

impl core::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes128").finish_non_exhaustive()
    }
}

impl Aes128 {
    /// Expands `key` into the 11 round keys on the [`selected_backend`].
    pub fn new(key: &[u8; 16]) -> Self {
        Self::with_backend(key, selected_backend())
    }

    /// Expands `key` with an explicit backend (the per-backend perf curve
    /// and the cross-backend equivalence tests).
    ///
    /// The key schedule is always the shared portable FIPS-197 expansion
    /// below — one audited source of truth; backends differ only in how
    /// they run the rounds.
    pub fn with_backend(key: &[u8; 16], backend: AesBackend) -> Self {
        let mut words = [[0u8; 4]; 4 * (ROUNDS + 1)];
        for (i, word) in words.iter_mut().take(4).enumerate() {
            word.copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        for i in 4..4 * (ROUNDS + 1) {
            let mut temp = words[i - 1];
            if i % 4 == 0 {
                // RotWord + SubWord + Rcon.
                temp.rotate_left(1);
                for byte in &mut temp {
                    *byte = SBOX[*byte as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                words[i][j] = words[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; ROUNDS + 1];
        for (round, round_key) in round_keys.iter_mut().enumerate() {
            for j in 0..4 {
                round_key[4 * j..4 * j + 4].copy_from_slice(&words[4 * round + j]);
            }
        }
        Self { round_keys, backend }
    }

    /// The backend this cipher dispatches to.
    #[must_use]
    pub fn backend(&self) -> AesBackend {
        self.backend
    }

    /// Encrypts one 16-byte block on the selected backend.
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        match self.backend {
            AesBackend::Scalar => self.encrypt_block_scalar(block),
            #[cfg(target_arch = "x86_64")]
            AesBackend::AesNi => crate::aes_ni::encrypt_block(&self.round_keys, block),
            #[cfg(not(target_arch = "x86_64"))]
            AesBackend::AesNi => panic!("AES-NI backend selected without CPU support"),
        }
    }

    /// Encrypts four independent 16-byte blocks, pipelined on hardware.
    ///
    /// This is the counter-mode hot path: the four sub-block pads of a
    /// 64-byte cacheline have no data dependence, so the AES-NI backend
    /// interleaves their round chains to fill the AES unit's pipeline
    /// (see [`crate::aes_ni`]). The scalar backend encrypts sequentially —
    /// the output is bit-identical either way.
    pub fn encrypt_blocks4(&self, blocks: &[[u8; 16]; 4]) -> [[u8; 16]; 4] {
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            AesBackend::AesNi => crate::aes_ni::encrypt_blocks4(&self.round_keys, blocks),
            _ => blocks.map(|block| self.encrypt_block(&block)),
        }
    }

    /// Encrypts one 16-byte block via the table-free scalar path (S-box +
    /// xtime MixColumns), whatever the backend. Bit-identical to
    /// [`Aes128::encrypt_block`]; the equivalence-test reference and perf
    /// baseline.
    pub fn encrypt_block_scalar(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut state = *block;
        add_round_key(&mut state, &self.round_keys[0]);
        for round in 1..ROUNDS {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            add_round_key(&mut state, &self.round_keys[round]);
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        add_round_key(&mut state, &self.round_keys[ROUNDS]);
        state
    }
}

#[inline]
fn add_round_key(state: &mut [u8; 16], round_key: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(round_key) {
        *s ^= k;
    }
}

#[inline]
fn sub_bytes(state: &mut [u8; 16]) {
    for byte in state.iter_mut() {
        *byte = SBOX[*byte as usize];
    }
}

/// The state is column-major: byte `state[4*c + r]` is row `r`, column `c`.
#[inline]
fn shift_rows(state: &mut [u8; 16]) {
    // Row 1: rotate left by 1.
    let t = state[1];
    state[1] = state[5];
    state[5] = state[9];
    state[9] = state[13];
    state[13] = t;
    // Row 2: rotate left by 2.
    state.swap(2, 10);
    state.swap(6, 14);
    // Row 3: rotate left by 3 (= right by 1).
    let t = state[15];
    state[15] = state[11];
    state[11] = state[7];
    state[7] = state[3];
    state[3] = t;
}

#[inline]
fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
        let all = col[0] ^ col[1] ^ col[2] ^ col[3];
        for r in 0..4 {
            state[4 * c + r] = col[r] ^ all ^ xtime(col[r] ^ col[(r + 1) % 4]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS-197 Appendix B: full example vector.
    #[test]
    fn fips197_appendix_b() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let pt = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expect = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        assert_eq!(Aes128::new(&key).encrypt_block(&pt), expect);
    }

    /// FIPS-197 Appendix C.1: AES-128 known-answer test.
    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let pt: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
        let expect = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        assert_eq!(Aes128::new(&key).encrypt_block(&pt), expect);
    }

    /// The FIPS-197 known-answer vectors must hold on *every* backend the
    /// host can run — scalar, and AES-NI when the CPU has it — through
    /// both the single-block and the pipelined four-block entry points.
    #[test]
    fn fips197_vectors_hold_on_every_available_backend() {
        let appendix_b = (
            [
                0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09,
                0xcf, 0x4f, 0x3c,
            ],
            [
                0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0,
                0x37, 0x07, 0x34,
            ],
            [
                0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19,
                0x6a, 0x0b, 0x32,
            ],
        );
        let appendix_c1 = (
            core::array::from_fn(|i| i as u8),
            core::array::from_fn(|i| (i as u8) * 0x11),
            [
                0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70,
                0xb4, 0xc5, 0x5a,
            ],
        );
        for backend in AesBackend::all_available() {
            for (key, pt, expect) in [appendix_b, appendix_c1] {
                let cipher = Aes128::with_backend(&key, backend);
                assert_eq!(cipher.backend(), backend);
                assert_eq!(cipher.encrypt_block(&pt), expect, "{backend} single block");
                assert_eq!(
                    cipher.encrypt_blocks4(&[pt; 4]),
                    [expect; 4],
                    "{backend} pipelined blocks"
                );
            }
        }
    }

    #[test]
    fn forced_backend_overrides_selection() {
        // Process-global override: assert and restore in one test so no
        // other test observes the forced state's *selection* (backends are
        // bit-identical, so even a racing construction behaves the same).
        force_backend(Some(AesBackend::Scalar));
        assert_eq!(forced_backend(), Some(AesBackend::Scalar));
        assert_eq!(selected_backend(), AesBackend::Scalar);
        assert_eq!(Aes128::new(&[0u8; 16]).backend(), AesBackend::Scalar);
        force_backend(None);
        assert_eq!(forced_backend(), None);
        assert_eq!(selected_backend(), detected_backend());
    }

    #[test]
    fn detection_picks_aes_ni_when_present_else_scalar() {
        let expect = if AesBackend::AesNi.available() {
            AesBackend::AesNi
        } else {
            AesBackend::Scalar
        };
        assert_eq!(detected_backend(), expect);
        assert!(AesBackend::Scalar.available());
        assert_eq!(AesBackend::all_available()[0], AesBackend::Scalar);
        assert_eq!(
            AesBackend::all_available().contains(&AesBackend::AesNi),
            AesBackend::AesNi.available()
        );
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(detected_backend(), AesBackend::Scalar);
    }

    #[test]
    fn different_keys_give_different_ciphertexts() {
        let pt = [0u8; 16];
        let a = Aes128::new(&[0u8; 16]).encrypt_block(&pt);
        let b = Aes128::new(&[1u8; 16]).encrypt_block(&pt);
        assert_ne!(a, b);
    }

    #[test]
    fn encryption_is_deterministic() {
        let cipher = Aes128::new(&[9u8; 16]);
        let pt = [0xabu8; 16];
        assert_eq!(cipher.encrypt_block(&pt), cipher.encrypt_block(&pt));
    }

    #[test]
    fn debug_does_not_leak_key() {
        let cipher = Aes128::new(&[0x55u8; 16]);
        let s = format!("{cipher:?}");
        assert!(s.contains("Aes128"));
        assert!(!s.contains("55"));
    }

    /// The scalar reference agrees with the selected backend on the FIPS
    /// vectors (the proptest suite covers random inputs).
    #[test]
    fn scalar_path_matches_fips_vectors() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let pt = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let cipher = Aes128::new(&key);
        assert_eq!(cipher.encrypt_block_scalar(&pt), cipher.encrypt_block(&pt));
    }

    #[test]
    fn single_bit_key_change_diffuses() {
        let pt = [0u8; 16];
        let mut key = [0u8; 16];
        let base = Aes128::new(&key).encrypt_block(&pt);
        key[15] ^= 1;
        let flipped = Aes128::new(&key).encrypt_block(&pt);
        let differing: u32 = base
            .iter()
            .zip(&flipped)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        // Expect avalanche: roughly half of the 128 bits flip.
        assert!(differing > 30, "only {differing} bits differ");
    }
}
