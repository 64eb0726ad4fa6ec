//! FIPS 180-4 SHA-256.
//!
//! Streaming implementation with the usual `update`/`finalize` interface,
//! a one-shot [`Sha256::digest`] helper, and a single-block fast path
//! ([`Sha256::digest_one_block`]) for fixed-size short messages. Used by
//! the enclave measurement (`MRENCLAVE`), HMAC (audit-log export and
//! verification, attestation), HKDF, the authenticated channel, the
//! hash-based connection-preserving filter (paper Appendix A — its
//! 45-byte `5-tuple ‖ secret` message takes the one-block path) and the
//! count-min sketch's keyed hash seeding.
//!
//! # Compression kernels
//!
//! Every hasher runs its 64-byte blocks through one of two [`Kernel`]s:
//!
//! - [`Kernel::ShaNi`]: the x86-64 SHA extensions (`sha256rnds2`,
//!   `sha256msg1`, `sha256msg2`), four rounds per instruction pair;
//! - [`Kernel::Portable`]: the scalar FIPS 180-4 compression, which runs
//!   on every target.
//!
//! The kernel is chosen at run time: [`Kernel::detected`] picks SHA-NI
//! when the CPU reports the `sha`, `sse4.1` and `ssse3` features and the
//! portable kernel otherwise. There is no build flag, environment
//! variable or configuration knob. [`Sha256::update`] hands whole blocks
//! to the kernel straight from the caller's slice, so a 1 MiB sketch
//! payload is one kernel call over 16 Ki blocks with the state held in
//! registers throughout.
//!
//! **Bit-identity contract.** Both kernels compute the same function:
//! every digest, HMAC tag, sealed frame, sketch export and filter verdict
//! is identical whichever kernel ran. The portable kernel stays reachable
//! on SHA-NI hosts through [`Sha256::digest_portable`], so reference
//! oracles — `StatelessFilter::decide_reference` among them — can check
//! the hardware path against an independent implementation.

/// Number of bytes in a SHA-256 digest.
pub const DIGEST_LEN: usize = 32;

/// Internal block size in bytes.
pub const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A SHA-256 compression kernel (module docs: compression kernels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The x86-64 SHA extensions.
    ShaNi,
    /// The scalar FIPS 180-4 compression, available on every target.
    Portable,
}

impl Kernel {
    /// The kernel [`Sha256::new`] dispatches to on this CPU: SHA-NI when
    /// available, portable otherwise.
    #[inline]
    pub fn detected() -> Kernel {
        if Kernel::ShaNi.is_available() {
            Kernel::ShaNi
        } else {
            Kernel::Portable
        }
    }

    /// Whether this kernel can run on the current CPU.
    #[inline]
    pub fn is_available(self) -> bool {
        match self {
            Kernel::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi => shani::available(),
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::ShaNi => false,
        }
    }

    /// Compresses `blocks`, in order, into `state`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel is not [available](Kernel::is_available).
    #[inline]
    pub fn compress_blocks(self, state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
        match self {
            Kernel::Portable => {
                for block in blocks {
                    compress(state, block);
                }
            }
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi => shani::compress_blocks(state, blocks),
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::ShaNi => panic!("SHA-NI kernel is x86-64 only"),
        }
    }
}

/// Streaming SHA-256 hasher.
///
/// # Example
///
/// ```
/// use vif_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), Sha256::digest(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffered: usize,
    total_len: u64,
    kernel: Kernel,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher on the [detected](Kernel::detected) kernel.
    pub fn new() -> Self {
        Self::on(Kernel::detected())
    }

    /// A fresh hasher pinned to `kernel`.
    fn on(kernel: Kernel) -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffered: 0,
            total_len: 0,
            kernel,
        }
    }

    /// The kernel this hasher compresses with.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// One-shot digest of `data` on the portable kernel, whatever the CPU.
    ///
    /// Identical output to [`digest`](Sha256::digest) (module docs:
    /// bit-identity contract); reference oracles use it to stay
    /// independent of the hardware kernel.
    pub fn digest_portable(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::on(Kernel::Portable);
        h.update(data);
        h.finalize()
    }

    /// Largest message that pads into a single SHA-256 block (55 bytes of
    /// data + `0x80` + 8-byte length = 64).
    pub const ONE_BLOCK_MAX: usize = BLOCK_LEN - 9;

    /// One-shot digest of a message that fits one padded block
    /// (`data.len() <= ONE_BLOCK_MAX`).
    ///
    /// Identical output to [`digest`](Sha256::digest), but skips the
    /// streaming machinery entirely: the padded block is assembled on the
    /// stack and compressed once — no hasher state, no buffered copies,
    /// no length bookkeeping. This is the per-packet fast path for the
    /// hash-based filter decision (Appendix A), whose
    /// `5-tuple ‖ secret` message is 45 bytes.
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds [`ONE_BLOCK_MAX`](Sha256::ONE_BLOCK_MAX)
    /// bytes.
    #[inline]
    pub fn digest_one_block(data: &[u8]) -> [u8; DIGEST_LEN] {
        assert!(
            data.len() <= Self::ONE_BLOCK_MAX,
            "digest_one_block: message exceeds one padded block"
        );
        let mut block = [[0u8; BLOCK_LEN]];
        let n = pad(block.as_flattened_mut(), data, data.len() as u64);
        debug_assert_eq!(n, 1);
        let mut state = H0;
        Kernel::detected().compress_blocks(&mut state, &block);
        state_bytes(&state)
    }

    /// Absorbs `data` into the hash state.
    ///
    /// Whole blocks are compressed straight from `data`; only a partial
    /// block at either end passes through the internal buffer.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (BLOCK_LEN - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < BLOCK_LEN {
                return;
            }
            self.kernel
                .compress_blocks(&mut self.state, std::slice::from_ref(&self.buffer));
            self.buffered = 0;
        }
        let (blocks, rest) = data.as_chunks::<BLOCK_LEN>();
        if !blocks.is_empty() {
            self.kernel.compress_blocks(&mut self.state, blocks);
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Finishes the computation and returns the digest, consuming the hasher.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let mut tail = [[0u8; BLOCK_LEN]; 2];
        let n = pad(
            tail.as_flattened_mut(),
            &self.buffer[..self.buffered],
            self.total_len,
        );
        self.kernel.compress_blocks(&mut self.state, &tail[..n]);
        state_bytes(&self.state)
    }
}

/// Writes the FIPS 180-4 padding of a message whose unprocessed tail is
/// `rest` and whose total length is `total_len` bytes into the zeroed
/// `out`: `rest ‖ 0x80 ‖ 0… ‖ bit length (big-endian u64)`. Returns the
/// number of 64-byte blocks used (1 or 2).
fn pad(out: &mut [u8], rest: &[u8], total_len: u64) -> usize {
    let blocks = if rest.len() <= Sha256::ONE_BLOCK_MAX {
        1
    } else {
        2
    };
    let end = blocks * BLOCK_LEN;
    out[..rest.len()].copy_from_slice(rest);
    out[rest.len()] = 0x80;
    out[end - 8..end].copy_from_slice(&total_len.wrapping_mul(8).to_be_bytes());
    blocks
}

/// The big-endian digest bytes of a final state.
fn state_bytes(state: &[u32; 8]) -> [u8; DIGEST_LEN] {
    let mut out = [0u8; DIGEST_LEN];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The portable FIPS 180-4 compression function ([`Kernel::Portable`]).
fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The SHA-NI kernel ([`Kernel::ShaNi`]): the only unsafe code in this
/// crate.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani {
    use super::{BLOCK_LEN, K};
    use std::arch::x86_64::*;

    /// Whether the CPU has every feature [`compress_blocks_sha`] is
    /// compiled for. `std` caches the CPUID probe, so this is a few loads.
    #[inline]
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse4.1")
            && is_x86_feature_detected!("ssse3")
    }

    /// Compresses `blocks` into `state` with the SHA extensions.
    ///
    /// # Panics
    ///
    /// Panics if the CPU lacks them ([`available`]).
    #[inline]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
        assert!(
            available(),
            "SHA-NI kernel on a CPU without the SHA extensions"
        );
        // SAFETY: `compress_blocks_sha` needs only the `sha`, `sse2`,
        // `ssse3` and `sse4.1` target features; the assertion above
        // checked the three that are optional on x86-64, and `sse2` is
        // part of the x86-64 baseline.
        unsafe { compress_blocks_sha(state, blocks) }
    }

    /// Unaligned 16-byte load.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(bytes: &[u8; 16]) -> __m128i {
        // SAFETY: `bytes` is a live reference to 16 initialized bytes,
        // and `_mm_loadu_si128` has no alignment requirement.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }

    /// Four rounds: `w` holds message words `4i..4i+4`.
    #[inline]
    #[target_feature(enable = "sha,sse2")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
        let k = &K[4 * i..4 * i + 4];
        let k = _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32);
        let wk = _mm_add_epi32(w, k);
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(wk));
    }

    /// The next four message-schedule words from the previous sixteen
    /// (`w0` oldest).
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// The SHA-NI compression loop. Calling it from code not compiled
    /// for these features is `unsafe`: check [`available`] first.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress_blocks_sha(state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
        // Reverses the bytes of each 32-bit lane (big-endian message words).
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let s = state.map(|x| x as i32);
        let dcba = _mm_set_epi32(s[3], s[2], s[1], s[0]);
        let hgfe = _mm_set_epi32(s[7], s[6], s[5], s[4]);
        // `sha256rnds2` keeps the working variables as ABEF and CDGH.
        let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);

        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let (words, _) = block.as_chunks::<16>();
            let [mut w0, mut w1, mut w2, mut w3] =
                [0, 1, 2, 3].map(|i| _mm_shuffle_epi8(load(&words[i]), bswap));
            rounds4(&mut abef, &mut cdgh, w0, 0);
            rounds4(&mut abef, &mut cdgh, w1, 1);
            rounds4(&mut abef, &mut cdgh, w2, 2);
            rounds4(&mut abef, &mut cdgh, w3, 3);
            // Each step replaces the oldest four schedule words.
            for i in (4..16).step_by(4) {
                w0 = schedule(w0, w1, w2, w3);
                rounds4(&mut abef, &mut cdgh, w0, i);
                w1 = schedule(w1, w2, w3, w0);
                rounds4(&mut abef, &mut cdgh, w1, i + 1);
                w2 = schedule(w2, w3, w0, w1);
                rounds4(&mut abef, &mut cdgh, w2, i + 2);
                w3 = schedule(w3, w0, w1, w2);
                rounds4(&mut abef, &mut cdgh, w3, i + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32::<0x1B>(abef);
        let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
        let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
        let hgef = _mm_alignr_epi8::<8>(dchg, feba);
        *state = [
            _mm_extract_epi32::<0>(dcba),
            _mm_extract_epi32::<1>(dcba),
            _mm_extract_epi32::<2>(dcba),
            _mm_extract_epi32::<3>(dcba),
            _mm_extract_epi32::<0>(hgef),
            _mm_extract_epi32::<1>(hgef),
            _mm_extract_epi32::<2>(hgef),
            _mm_extract_epi32::<3>(hgef),
        ]
        .map(|x| x as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn hx(data: &[u8]) -> String {
        hex::encode(&Sha256::digest(data))
    }

    #[test]
    fn nist_empty() {
        assert_eq!(
            hx(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            hx(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_448_bits() {
        assert_eq!(
            hx(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_896_bits() {
        assert_eq!(
            hx(b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex::encode(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_equals_oneshot_for_all_split_points() {
        let data: Vec<u8> = (0..255u8).collect();
        let reference = Sha256::digest(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), reference, "split at {split}");
        }
    }

    #[test]
    fn one_block_matches_streaming_for_every_length() {
        let data: Vec<u8> = (0..Sha256::ONE_BLOCK_MAX as u8).map(|i| i ^ 0xA5).collect();
        for n in 0..=Sha256::ONE_BLOCK_MAX {
            assert_eq!(
                Sha256::digest_one_block(&data[..n]),
                Sha256::digest(&data[..n]),
                "length {n}"
            );
        }
    }

    #[test]
    fn one_block_nist_vectors() {
        assert_eq!(
            hex::encode(&Sha256::digest_one_block(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex::encode(&Sha256::digest_one_block(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    #[should_panic(expected = "one padded block")]
    fn one_block_rejects_long_messages() {
        let _ = Sha256::digest_one_block(&[0u8; 56]);
    }
}
