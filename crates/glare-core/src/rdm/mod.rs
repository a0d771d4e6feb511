//! The GLARE RDM (Registration, Deployment and Monitoring) service.
//!
//! "The GLARE Registration, Deployment and Monitoring (RDM) service is the
//! main frontend service which consists of components including Request
//! Manager, Deployment Manager, Cache Refresher, Index Monitor and
//! Deployment Status Monitor" (§3.2).

pub mod deploy_manager;
pub mod lifecycle;
pub mod monitors;
pub mod request_manager;

pub use deploy_manager::{
    install, provision, CostBreakdown, InstallReport, ProvisionOutcome, ProvisionRequest,
};
pub use lifecycle::{enforce_min_deployments, generate_wrapper_service, undeploy, UndeployReport};
pub use monitors::{
    CacheRefresher, DeploymentStatusMonitor, IndexMonitor, IndexReport, RefreshReport,
    StatusReport,
};
pub use request_manager::{DiscoverySource, RequestManager, ResolveOutcome};
