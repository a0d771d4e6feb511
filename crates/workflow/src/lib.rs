//! # glare-workflow — AGWL-lite composition, scheduling and enactment
//!
//! The consumer side of GLARE: workflows are composed against *activity
//! types*, the scheduler maps types to deployments through the GLARE
//! registries (provisioning on demand), and the enactment engine executes
//! the mapped workflow over the simulated Grid with data staging and
//! migration on failure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod enactment;
pub mod model;
pub mod scheduler;

pub use enactment::{ActivityRun, EnactmentEngine, ExecutionReport};
pub use model::{ActivityId, Dependency, Workflow, WorkflowActivity, WorkflowError};
pub use scheduler::{Assignment, Schedule, Scheduler, SelectionPolicy};
