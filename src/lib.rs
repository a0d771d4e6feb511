//! # glare — umbrella facade over the GLARE reproduction workspace
//!
//! Re-exports the five member crates of this SC'05 reproduction:
//!
//! * [`fabric`] — deterministic simulated Grid fabric.
//! * [`wsrf`] — minimal WS-Resource Framework (XML, XPath, resources,
//!   service groups).
//! * [`services`] — Globus-equivalent substrate services (GRAM, GridFTP,
//!   WS-MDS index, security, shell/Expect, deployment channels).
//! * [`core`] — the GLARE framework itself: activity registries, RDM
//!   service, super-peer overlay, caching, leasing, on-demand deployment.
//! * [`workflow`] — AGWL-lite composition, scheduling and enactment.
//! * [`workload`] — deterministic open/closed-loop workload engine
//!   (arrival processes, Zipf popularity, tenant classes) driving the
//!   admission-control path.
//!
//! See `examples/` for runnable walkthroughs and `crates/bench` for the
//! harness that regenerates every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use glare_core as core;
pub use glare_fabric as fabric;
pub use glare_services as services;
pub use glare_workflow as workflow;
pub use glare_workload as workload;
pub use glare_wsrf as wsrf;
