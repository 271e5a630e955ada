//! End-to-end and per-layer host-time benchmark of the HULK-V simulator.
//!
//! The binary (`src/main.rs`) drives the workloads through the public
//! API of `hulkv` and `hulkv-kernels`; this library holds the parts it is
//! built from, so they can be tested on their own:
//!
//! * [`stats`] — median, quartiles and the tail percentile;
//! * [`spans`] — in-memory spans and self time per layer;
//! * [`checks`] — attempted and failed operations;
//! * [`workloads`] — the workloads and their seeded inputs;
//! * [`report`] — metric names, units and the result line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checks;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;
