//! # glare-workload — deterministic multi-tenant load generation
//!
//! The open-loop workload engine that drives the GLARE overlay past
//! saturation. The GLARE paper (SC'05) measured its testbed under
//! well-behaved closed-loop clients; this crate supplies the other
//! regime — open-loop arrivals that do *not* slow down when the system
//! does — which is where the bounded-inbox admission control in
//! `glare_core::admission` earns its keep.
//!
//! * [`spec`] — the seedable [`WorkloadSpec`] scenario DSL: per-tenant
//!   request classes, Poisson arrivals, flash crowds, Zipf activity
//!   popularity.
//! * [`zipf`] — the precomputed-CDF Zipf sampler.
//! * [`engine`] — pure [`ArrivalStream`] generation (byte-identical per
//!   seed) and the [`TenantLoad`] DES actor that replays a stream
//!   against a node, honouring `RetryAfter` hints.
//!
//! Everything is a pure function of the spec and its seed: no wall
//! clock, no global state, no draws from the simulation kernel's RNG.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod spec;
pub mod zipf;

pub use engine::{Arrival, ArrivalStream, TenantLoad, TenantStats, MAX_ARRIVALS_PER_TENANT};
pub use spec::{Flash, RateModulation, TenantSpec, WorkloadSpec};
pub use zipf::ZipfSampler;
