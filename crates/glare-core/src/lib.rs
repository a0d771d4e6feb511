//! # glare-core — the GLARE framework (paper's primary contribution)
//!
//! Activity registries, the RDM service, the super-peer overlay, caching,
//! leasing and on-demand deployment, per Siddiqui et al., SC'05.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod adr;
pub mod atr;
pub mod autonomic;
pub mod cache;
pub mod deployfile;
pub mod durable;
pub mod error;
pub mod grid;
mod hierarchy;
pub mod invariants;
pub mod lease;
pub mod model;
pub mod node;
pub mod overlay;
pub mod rdm;
pub mod retry;
pub mod superpeer;
pub mod suspicion;

pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionDecision, TenantClass,
};
pub use adr::ActivityDeploymentRegistry;
pub use atr::{ActivityTypeRegistry, TypedResponse};
pub use cache::{CachedEntry, Freshness, RegistryCache};
pub use deployfile::{DeployFile, DeployStep, PlannedAction};
pub use durable::RegistryMutation;
pub use error::GlareError;
pub use grid::{AdminNotification, Grid, GridSite};
pub use rdm::{provision, CostBreakdown, InstallReport, ProvisionOutcome, ProvisionRequest, RequestManager};
pub use node::{GlareNode, NodeConfig, NodeMsg, QueryScope};
pub use overlay::{ClientStats, NotificationSink, OverlayBuilder, QueryClient};
pub use retry::{BreakerBank, BreakerState, CircuitBreaker, RetryPolicy};
pub use suspicion::{HedgeConfig, PeerEstimator, SuspicionConfig, SuspicionTracker};
pub use superpeer::{plan_tree, Group, MajorityTally, Role, TreeParent, TreePlan};
pub use lease::{LeaseKind, LeaseManager, LeaseTicket};
pub use model::{
    ActivityDeployment, ActivityType, DeploymentAccess, DeploymentStatus, InstallConstraints,
    InstallMode, TypeKind,
};
