//! Property-based tests for the crypto substrate.

use proptest::collection::vec;
use proptest::prelude::*;
use vif_crypto::bignum::BigUint;
use vif_crypto::channel::SecureChannel;
use vif_crypto::hmac::HmacSha256;
use vif_crypto::sha256::{Kernel, Sha256, BLOCK_LEN, DIGEST_LEN};
use vif_crypto::{hex, kdf};

/// RFC 2104 HMAC-SHA-256 over the portable kernel only.
fn hmac_portable(key: &[u8], msg: &[u8]) -> [u8; DIGEST_LEN] {
    let mut k = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        k[..DIGEST_LEN].copy_from_slice(&Sha256::digest_portable(key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let mut inner = k.map(|b| b ^ 0x36).to_vec();
    inner.extend_from_slice(msg);
    let mut outer = k.map(|b| b ^ 0x5c).to_vec();
    outer.extend_from_slice(&Sha256::digest_portable(&inner));
    Sha256::digest_portable(&outer)
}

/// The dispatched digest equals the portable digest for every length
/// across three blocks, covering each padding layout (one or two final
/// blocks, length field split from the data).
#[test]
fn sha256_dispatched_matches_portable_every_length() {
    let data: Vec<u8> = (0..=192u32).map(|i| (i * 31 + 7) as u8).collect();
    for n in 0..=192 {
        assert_eq!(
            Sha256::digest(&data[..n]),
            Sha256::digest_portable(&data[..n]),
            "length {n}"
        );
    }
}

/// A silent fallback to the portable kernel on a CPU with the SHA
/// extensions would keep every output right and lose the speed; pin the
/// dispatch instead.
#[test]
fn sha_ni_is_dispatched_when_the_cpu_has_it() {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("sse4.1")
        && std::arch::is_x86_feature_detected!("ssse3")
    {
        assert_eq!(Kernel::detected(), Kernel::ShaNi);
        assert_eq!(Sha256::new().kernel(), Kernel::ShaNi);
        return;
    }
    assert!(!Kernel::ShaNi.is_available());
    assert_eq!(Sha256::new().kernel(), Kernel::Portable);
}

proptest! {
    /// The detected kernel and the portable kernel compute the same
    /// compression on arbitrary chaining states and block runs.
    #[test]
    fn sha256_kernels_agree_on_random_states(
        state in any::<[u32; 8]>(),
        blocks in vec(any::<[u8; BLOCK_LEN]>(), 1..4),
    ) {
        let mut hw = state;
        Kernel::detected().compress_blocks(&mut hw, &blocks);
        let mut sw = state;
        Kernel::Portable.compress_blocks(&mut sw, &blocks);
        prop_assert_eq!(hw, sw);
    }

    /// HMAC on the dispatched kernel equals a portable-only HMAC, keys
    /// longer than a block (hashed first) included.
    #[test]
    fn hmac_matches_portable_reference(
        key in vec(any::<u8>(), 0..200),
        msg in vec(any::<u8>(), 0..300),
    ) {
        prop_assert_eq!(HmacSha256::mac(&key, &msg), hmac_portable(&key, &msg));
    }

    /// Streaming SHA-256 equals one-shot for arbitrary chunkings, and both
    /// equal the portable kernel's digest.
    #[test]
    fn sha256_streaming_equivalence(data in vec(any::<u8>(), 0..2048), split in any::<prop::sample::Index>()) {
        let cut = split.index(data.len() + 1);
        let mut h = Sha256::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        let reference = Sha256::digest_portable(&data);
        prop_assert_eq!(Sha256::digest(&data), reference);
        prop_assert_eq!(h.finalize(), reference, "split at {}", cut);
    }

    /// The single-block fast path is bit-identical to the streaming hasher
    /// for every message that fits one padded block, on either kernel.
    #[test]
    fn sha256_one_block_equivalence(data in vec(any::<u8>(), 0..=55)) {
        let one_block = Sha256::digest_one_block(&data);
        prop_assert_eq!(one_block, Sha256::digest(&data));
        prop_assert_eq!(one_block, Sha256::digest_portable(&data));
    }

    /// HMAC verifies its own tags and rejects any single-bit flip.
    #[test]
    fn hmac_detects_bit_flips(
        key in vec(any::<u8>(), 1..80),
        msg in vec(any::<u8>(), 1..256),
        flip in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let tag = HmacSha256::mac(&key, &msg);
        prop_assert!(HmacSha256::verify(&key, &msg, &tag));
        let mut tampered = msg.clone();
        let idx = flip.index(tampered.len());
        tampered[idx] ^= 1 << bit;
        prop_assert!(!HmacSha256::verify(&key, &tampered, &tag));
    }

    /// hex encode/decode round-trips.
    #[test]
    fn hex_roundtrip(data in vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(hex::decode(&hex::encode(&data)).unwrap(), data);
    }

    /// HKDF output length is honored and prefixes agree.
    #[test]
    fn hkdf_prefix_property(ikm in vec(any::<u8>(), 1..64), len in 1usize..128) {
        let long = kdf::hkdf(b"salt", &ikm, b"info", len.max(16));
        let short = kdf::hkdf(b"salt", &ikm, b"info", 16);
        prop_assert_eq!(&long[..short.len()], &short[..]);
    }

    /// Big-integer division reconstructs: q·d + r == n, r < d.
    #[test]
    fn bignum_divrem_reconstruction(n_bytes in vec(any::<u8>(), 1..48), d_bytes in vec(any::<u8>(), 1..24)) {
        let n = BigUint::from_be_bytes(&n_bytes);
        let d = BigUint::from_be_bytes(&d_bytes);
        prop_assume!(!d.is_zero());
        let (q, r) = n.div_rem(&d);
        prop_assert!(r < d);
        prop_assert_eq!(q.mul(&d).add(&r), n);
    }

    /// mod_exp matches u128 arithmetic on small operands.
    #[test]
    fn bignum_modexp_matches_u128(base in 0u64..1_000_000, exp in 0u32..64, m in 2u64..100_000) {
        let expected = {
            let mut acc: u128 = 1;
            for _ in 0..exp {
                acc = acc * (base as u128 % m as u128) % m as u128;
            }
            acc as u64
        };
        let got = BigUint::from_u64(base)
            .mod_exp(&BigUint::from_u64(exp as u64), &BigUint::from_u64(m));
        prop_assert_eq!(got, BigUint::from_u64(expected));
    }

    /// Channel round-trips arbitrary payload sequences, in order.
    #[test]
    fn channel_roundtrip_sequences(msgs in vec(vec(any::<u8>(), 0..200), 1..12)) {
        let (mut a, mut b) = SecureChannel::pair_from_secret(b"secret", b"prop");
        for msg in &msgs {
            let frame = a.seal(msg);
            prop_assert_eq!(&b.open(&frame).unwrap(), msg);
        }
    }

    /// Any bit flip anywhere in a frame is rejected.
    #[test]
    fn channel_rejects_any_tamper(
        msg in vec(any::<u8>(), 0..128),
        flip in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let (mut a, mut b) = SecureChannel::pair_from_secret(b"secret", b"prop2");
        let mut frame = a.seal(&msg);
        let idx = flip.index(frame.len());
        frame[idx] ^= 1 << bit;
        prop_assert!(b.open(&frame).is_err());
    }
}
