//! End-to-end wall-clock benchmark of the always-on VIF filtering service.
//!
//! One command runs a named workload against the real path (enclave
//! launch, attestation, rule install through the victim's session,
//! `DataplaneService` rounds, audits, epoch publication), checks every
//! output against an independent oracle, and prints the end-to-end
//! metrics, or with tracing on, the per-layer breakdown.

pub mod bench;
pub mod gen;
pub mod stats;
pub mod trace;
pub mod workload;

pub use bench::{run, BenchError, Metric, Options, Outcome, END_TO_END, PER_LAYER};
pub use workload::Workload;
