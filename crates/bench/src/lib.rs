//! # glare-bench — the benchmark harness regenerating every table and
//! figure of the GLARE paper's evaluation (§4).
//!
//! Each module owns one experiment and exposes `run(...)` + `render(...)`;
//! the binaries under `src/bin/` print the regenerated rows/series and
//! write the `BENCH_*.json` artifacts. The discrete-event experiments
//! state their overlay as one `scenario::Scenario` value — topology, node
//! policy, registry seeding, telemetry, loss, faults and load — and keep
//! only their clock and their report code. Every acceptance check is a unit
//! test of its module; host-time measurement lives in the perf ledger
//! (`perf/`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod args;
pub mod autonomic;
pub mod chaos;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod grayfail;
pub mod health;
pub mod json;
pub mod load;
pub mod scale;
pub(crate) mod scenario;
pub mod table1;
pub mod trace;
