//! # vif-crypto
//!
//! Self-contained cryptographic substrate for the VIF reproduction.
//!
//! The paper's implementation relies on an SSL library inside the enclave
//! (remote attestation, TLS channels to the DDoS victim) and on SHA-256 for
//! hash-based connection-preserving filtering (Appendix A). None of the
//! crates permitted for this reproduction provide these primitives, so this
//! crate implements them from scratch:
//!
//! - [`sha256`]: FIPS 180-4 SHA-256 (streaming + one-shot), on the x86-64
//!   SHA extensions when the CPU has them and a portable kernel otherwise,
//! - [`hmac`]: RFC 2104 HMAC-SHA-256 with constant-time verification,
//! - [`kdf`]: RFC 5869 HKDF (extract/expand),
//! - [`bignum`]: fixed-purpose big unsigned integers (Knuth Algorithm D
//!   division, square-and-multiply modular exponentiation),
//! - [`dh`]: finite-field Diffie-Hellman over the RFC 3526 2048-bit MODP
//!   group (group 14) plus a small test group,
//! - [`channel`]: an encrypt-then-MAC authenticated channel with replay
//!   protection, standing in for the paper's TLS session between a victim
//!   network and a VIF enclave,
//! - [`hex`]: hexadecimal encoding helpers used throughout tests and tools.
//!
//! # Security note
//!
//! These are textbook implementations intended for a research reproduction:
//! correct and tested against official vectors, but not hardened against
//! side channels beyond constant-time tag comparison. The paper itself
//! declares side-channel attacks out of scope (§II-D).
//!
//! The crate denies `unsafe` code everywhere except the SHA-NI kernel
//! module in [`sha256`], whose two unsafe sites (the call into the
//! `target_feature` function after run-time detection, and the unaligned
//! block load) carry their safety arguments.
//!
//! # Example
//!
//! ```
//! use vif_crypto::sha256::Sha256;
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(
//!     vif_crypto::hex::encode(&digest),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bignum;
pub mod channel;
pub mod dh;
pub mod hex;
pub mod hmac;
pub mod kdf;
pub mod sha256;

pub use channel::{ChannelError, SecureChannel};
pub use dh::{DhGroup, DhKeyPair};
pub use hmac::HmacSha256;
pub use sha256::Sha256;
