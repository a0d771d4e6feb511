//! # glare-bench — the benchmark harness regenerating every table and
//! figure of the GLARE paper's evaluation (§4).
//!
//! Each module owns one experiment and exposes `run(...)` + `render(...)`;
//! the binaries under `src/bin/` print the regenerated rows/series and
//! write the `BENCH_*.json` artifacts. Every acceptance check is a unit
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
pub mod table1;
pub mod trace;

use glare_core::model::{ActivityDeployment, ActivityType};
use glare_core::GlareNode;
use glare_fabric::SimTime;

/// The registry seeding the overlay harnesses share, for
/// [`glare_core::OverlayBuilder::seed`]: every node knows the concrete
/// types `T0..T{types}` (of `domain`), and the deployment of `T{t}` lives
/// on site `t % sites`.
pub fn seed_round_robin(
    types: usize,
    sites: usize,
    domain: &'static str,
) -> impl FnMut(usize, &mut GlareNode) + 'static {
    move |i, node| {
        for t in 0..types {
            let ty = ActivityType::concrete_type(&format!("T{t}"), domain, "wien2k");
            node.atr.register(ty, SimTime::ZERO).unwrap();
            if t % sites == i {
                let d = ActivityDeployment::executable(
                    &format!("T{t}"),
                    &format!("site{i}"),
                    &format!("/opt/deployments/t{t}/bin/t{t}"),
                    &format!("/opt/deployments/t{t}"),
                );
                node.adr.register(d, &node.atr, SimTime::ZERO).unwrap();
            }
        }
    }
}
