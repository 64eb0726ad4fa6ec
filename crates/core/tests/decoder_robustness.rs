//! The audit-path decoders reject malformed input without panicking or
//! allocating beyond what the input implies.
//!
//! A verifier decodes sketch exports relayed by the untrusted filtering
//! network (§III-B), so [`AuthenticatedSketch::verify`] and
//! [`CountMinSketch::decode`] see attacker-chosen bytes: random garbage,
//! flipped tags, truncations, and headers whose `width · depth` overflows
//! or disagrees with the payload length. A thread-local high-water mark
//! on the global allocator checks that no single allocation made while
//! decoding exceeds twice the input length (the counters take the payload
//! length minus the header, the per-row hashes at most twice that).

use proptest::collection::vec;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vif_core::logs::{AuthenticatedSketch, LogDirection, LogError};
use vif_sketch::{CountMinSketch, SketchConfig, SketchDecodeError};

/// Passes every call through to [`System`], recording the largest request
/// made on the current thread.
struct PeakAllocator;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: allocations during thread teardown are not measured.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: PeakAllocator = PeakAllocator;

const KEY: [u8; 32] = [7; 32];

/// Runs `f` and returns its result with the largest single allocation it
/// made on this thread.
fn largest_allocation<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|l| l.set(0));
    let r = f();
    (r, LARGEST.with(Cell::get))
}

/// Decodes `payload` directly and through a freshly sealed export,
/// asserting the allocation bound on both; returns the decode result.
fn decode_both_ways(payload: &[u8]) -> Result<CountMinSketch, SketchDecodeError> {
    let bound = 2 * payload.len();
    let (direct, peak) = largest_allocation(|| CountMinSketch::decode(payload));
    assert!(
        peak <= bound,
        "decode allocated {peak} B for {} B",
        payload.len()
    );
    let export = AuthenticatedSketch::seal(&KEY, LogDirection::Outgoing, 3, payload.to_vec());
    let (verified, peak) = largest_allocation(|| export.verify(&KEY));
    assert!(
        peak <= bound,
        "verify allocated {peak} B for {} B",
        payload.len()
    );
    match (&direct, verified) {
        (Ok(a), Ok(b)) => assert_eq!(a, &b),
        (Err(a), Err(b)) => assert_eq!(LogError::Malformed(*a), b),
        (a, b) => panic!("decode {a:?} disagrees with verify {b:?}"),
    }
    direct
}

/// A small sketch with some counts, encoded.
fn encoded(width: usize, depth: usize, seed: u64, keys: &[u32]) -> Vec<u8> {
    let mut s = CountMinSketch::new(SketchConfig { width, depth, seed });
    for k in keys {
        s.add(&k.to_be_bytes(), 1);
    }
    s.encode()
}

/// Header values that probe the overflow and size-limit edges.
fn edge_dimension() -> impl Strategy<Value = u64> {
    prop::sample::select(vec![
        0,
        1,
        2,
        3,
        64,
        (1 << 28) - 1,
        1 << 28,
        (1 << 28) + 1,
        1 << 32,
        (1 << 32) + 1,
        1 << 61,
        u64::MAX / 8 + 1,
        u64::MAX,
    ])
}

proptest! {
    /// Arbitrary bytes never panic the decoders, and a garbage tag never
    /// verifies.
    #[test]
    fn random_bytes_are_rejected_cleanly(
        payload in vec(any::<u8>(), 0..512),
        tag in any::<[u8; 32]>(),
    ) {
        let _ = decode_both_ways(&payload);
        let forged = AuthenticatedSketch {
            direction: LogDirection::Incoming,
            round: 0,
            payload,
            tag,
        };
        prop_assert_eq!(forged.verify(&KEY), Err(LogError::BadTag));
    }

    /// A random 32-byte header over a random-length body: any header whose
    /// cell count disagrees with the body length is rejected.
    #[test]
    fn random_headers_need_a_matching_length(
        width in any::<u64>(),
        depth in any::<u64>(),
        edges in (edge_dimension(), edge_dimension()),
        use_edges in any::<bool>(),
        body_words in 0usize..64,
    ) {
        let (width, depth) = if use_edges { edges } else { (width, depth) };
        let mut payload = Vec::new();
        payload.extend_from_slice(&width.to_le_bytes());
        payload.extend_from_slice(&depth.to_le_bytes());
        payload.extend_from_slice(&[0u8; 16]);
        payload.resize(32 + body_words * 8, 0xAB);
        let consistent = width > 0
            && depth > 0
            && width.checked_mul(depth) == Some(body_words as u64);
        let decoded = decode_both_ways(&payload);
        prop_assert_eq!(decoded.is_ok(), consistent);
        if let Ok(s) = decoded {
            // A decoded sketch must be usable, not just constructible.
            let _ = s.estimate(b"probe");
        }
    }

    /// Mutations of a genuine export: a flipped tag or payload bit fails
    /// authentication; truncation, extension and a rewritten header fail
    /// decoding even under a valid tag.
    #[test]
    fn mutated_exports_are_rejected(
        width in 1usize..64,
        depth in 1usize..5,
        seed in any::<u64>(),
        keys in vec(any::<u32>(), 0..64),
        flip in any::<prop::sample::Index>(),
        bit in 0u8..8,
        cut in any::<prop::sample::Index>(),
        extra in 1usize..64,
        new_width in edge_dimension(),
    ) {
        let payload = encoded(width, depth, seed, &keys);
        let genuine = AuthenticatedSketch::seal(&KEY, LogDirection::Incoming, 9, payload.clone());
        prop_assert!(genuine.verify(&KEY).is_ok());

        let mut bad_tag = genuine.clone();
        bad_tag.tag[flip.index(32)] ^= 1 << bit;
        prop_assert_eq!(bad_tag.verify(&KEY), Err(LogError::BadTag));

        let mut bad_body = genuine.clone();
        bad_body.payload[flip.index(payload.len())] ^= 1 << bit;
        prop_assert_eq!(bad_body.verify(&KEY), Err(LogError::BadTag));

        let truncated = &payload[..cut.index(payload.len())];
        prop_assert!(decode_both_ways(truncated).is_err());

        let mut extended = payload.clone();
        extended.resize(payload.len() + extra, 0);
        prop_assert!(decode_both_ways(&extended).is_err());

        let mut rewritten = payload.clone();
        rewritten[..8].copy_from_slice(&new_width.to_le_bytes());
        let decoded = decode_both_ways(&rewritten);
        prop_assert_eq!(decoded.is_ok(), new_width == width as u64);
    }
}
