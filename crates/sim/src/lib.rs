//! Simulation substrate for the HULK-V SoC model.
//!
//! This crate provides the domain-neutral building blocks shared by every
//! other crate in the workspace:
//!
//! * [`Cycles`] and [`Freq`] — strongly typed cycle counts and clock
//!   frequencies, with exact rational conversion between clock domains.
//! * [`ClockDomain`] — one of the four frequency domains of the HULK-V SoC
//!   (host core, host interconnect, peripherals, accelerator cluster), each
//!   driven by its own frequency-locked loop in the real chip.
//! * [`Stats`] / [`Counter`] — hierarchical activity counters used to derive
//!   utilization figures for the power model.
//! * [`SplitMix64`] — a tiny deterministic RNG so that workload generation is
//!   reproducible without pulling heavyweight dependencies into the model
//!   crates.
//!
//! # Example
//!
//! ```
//! use hulkv_sim::{ClockDomain, Cycles, Freq};
//!
//! // The PMCA runs at 400 MHz while the host interconnect runs at 450 MHz.
//! let cluster = ClockDomain::new("cluster", Freq::mhz(400));
//! let soc = ClockDomain::new("soc", Freq::mhz(450));
//!
//! // 800 cluster cycles seen from the SoC domain:
//! let c = cluster.convert(Cycles::new(800), &soc);
//! assert_eq!(c, Cycles::new(900));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod cycles;
mod digest;
mod error;
pub mod json;
pub mod metrics;
pub mod profile;
mod rng;
pub mod selfprof;
pub mod snap;
mod stats;
pub mod timeline;
pub mod trace;

pub use clock::{convert_freq, ClockDomain};
pub use cycles::{Cycles, Freq};
pub use digest::{is_zero, Fnv64};
pub use error::SimError;
pub use json::Json;
pub use metrics::{MetricsSnapshot, METRICS_SCHEMA_VERSION};
pub use profile::{PcProfile, PcSample};
pub use rng::SplitMix64;
pub use selfprof::{EngineProfile, EngineProfileData};
pub use snap::{SnapError, SnapResult, Snapshot, SNAPSHOT_FORMAT};
pub use stats::{Counter, Stats, StatsHandle};
pub use timeline::{Timeline, TimelineWindow};
pub use trace::{category, SharedTracer, TraceEvent, TraceRecord, Tracer, Track};
