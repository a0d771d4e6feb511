//! Activity deployments: installed, invocable occurrences of a concrete
//! activity type.
//!
//! "An activity deployment (AD) refers to an executable or Grid/web
//! service and describes how they can be accessed and executed" (§2.2).
//! A deployment's resource representation (paper Fig. 7) carries the
//! executable path/home or service EPR plus the runtime metrics the
//! Deployment Status Monitor scrapes from WS-GRAM ("last execution time,
//! return code, last invocation time etc. can be useful while scheduling
//! and promising QoS", §3.2).

use glare_fabric::{SimDuration, SimTime};
use glare_wsrf::{EndpointReference, XmlNode};

/// What kind of artifact the deployment is and how to reach it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DeploymentAccess {
    /// A legacy executable: invoke via GRAM.
    Executable {
        /// Absolute path of the binary on the site.
        path: String,
        /// Install home directory.
        home: String,
    },
    /// A Grid/web service: invoke via its endpoint.
    Service {
        /// Service endpoint address.
        address: String,
    },
}

impl DeploymentAccess {
    /// Category label used in the Fig. 7 representation.
    pub fn category(&self) -> &'static str {
        match self {
            DeploymentAccess::Executable { .. } => "executable",
            DeploymentAccess::Service { .. } => "service",
        }
    }
}

/// Health of a deployment as maintained by the status monitor.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DeploymentStatus {
    /// Installed and reachable.
    #[default]
    Available,
    /// Site or artifact currently unreachable.
    Unavailable,
    /// Installation lost; candidate for migration.
    Failed,
}

/// Runtime metrics scraped from WS-GRAM for QoS-aware scheduling.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DeploymentMetrics {
    /// Wall time of the last completed run.
    pub last_execution_time: Option<SimDuration>,
    /// Exit code of the last run.
    pub last_return_code: Option<i32>,
    /// When the deployment was last invoked.
    pub last_invocation: Option<SimTime>,
    /// Total completed invocations.
    pub invocations: u64,
}

/// One activity deployment record.
#[derive(Clone, PartialEq, Debug)]
pub struct ActivityDeployment {
    /// Deployment key, unique within the VO (e.g. `"jpovray@site3"`).
    pub key: String,
    /// Name of the concrete activity type this deploys.
    pub type_name: String,
    /// Site the artifact lives on.
    pub site: String,
    /// Access description.
    pub access: DeploymentAccess,
    /// Current health.
    pub status: DeploymentStatus,
    /// Monitor-maintained metrics.
    pub metrics: DeploymentMetrics,
}

impl ActivityDeployment {
    /// New executable deployment.
    pub fn executable(type_name: &str, site: &str, path: &str, home: &str) -> ActivityDeployment {
        let name = path.rsplit('/').next().unwrap_or(path);
        ActivityDeployment {
            key: format!("{name}@{site}"),
            type_name: type_name.to_owned(),
            site: site.to_owned(),
            access: DeploymentAccess::Executable {
                path: path.to_owned(),
                home: home.to_owned(),
            },
            status: DeploymentStatus::Available,
            metrics: DeploymentMetrics::default(),
        }
    }

    /// New service deployment.
    pub(crate) fn service(type_name: &str, site: &str, service: &str, address: &str) -> ActivityDeployment {
        ActivityDeployment {
            key: format!("{service}@{site}"),
            type_name: type_name.to_owned(),
            site: site.to_owned(),
            access: DeploymentAccess::Service {
                address: address.to_owned(),
            },
            status: DeploymentStatus::Available,
            metrics: DeploymentMetrics::default(),
        }
    }

    /// Build the deployment's EPR (Fig. 6) as registered in its type
    /// resource: registry address + key + LUT.
    pub fn epr(&self, registry_address: &str, last_update: SimTime) -> EndpointReference {
        EndpointReference::new(
            registry_address,
            "ActivityDeploymentKey",
            &self.key,
            last_update,
        )
    }

    /// Record a completed invocation.
    pub(crate) fn record_invocation(&mut self, at: SimTime, runtime: SimDuration, return_code: i32) {
        self.metrics.last_invocation = Some(at);
        self.metrics.last_execution_time = Some(runtime);
        self.metrics.last_return_code = Some(return_code);
        self.metrics.invocations += 1;
    }

    /// Whether a scheduler should offer this deployment.
    pub fn is_usable(&self) -> bool {
        self.status == DeploymentStatus::Available
    }

    /// Render the Fig. 7 style representation.
    pub fn to_xml(&self) -> XmlNode {
        let mut node = XmlNode::new("ActivityDeployment")
            .attr("name", &self.key)
            .attr("type", &self.type_name)
            .attr("category", self.access.category())
            .child_text("Site", &self.site)
            .child_text(
                "Status",
                match self.status {
                    DeploymentStatus::Available => "available",
                    DeploymentStatus::Unavailable => "unavailable",
                    DeploymentStatus::Failed => "failed",
                },
            );
        match &self.access {
            DeploymentAccess::Executable { path, home } => {
                node = node.child_text("Path", path).child_text("Home", home);
            }
            DeploymentAccess::Service { address } => {
                node = node.child_text("Address", address);
            }
        }
        if let Some(t) = self.metrics.last_execution_time {
            node = node.child_text("LastExecutionTime", t.as_millis().to_string());
        }
        if let Some(rc) = self.metrics.last_return_code {
            node = node.child_text("LastReturnCode", rc.to_string());
        }
        node = node.child_text("Invocations", self.metrics.invocations.to_string());
        node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executable_construction() {
        let d = ActivityDeployment::executable(
            "JPOVray",
            "site3",
            "/opt/deployments/jpovray/bin/jpovray",
            "/opt/deployments/jpovray",
        );
        assert_eq!(d.key, "jpovray@site3");
        assert_eq!(d.access.category(), "executable");
        assert!(d.is_usable());
    }

    #[test]
    fn service_construction() {
        let d = ActivityDeployment::service(
            "JPOVray",
            "site3",
            "WS-JPOVray",
            "https://site3:8084/wsrf/services/WS-JPOVray",
        );
        assert_eq!(d.key, "WS-JPOVray@site3");
        assert_eq!(d.access.category(), "service");
    }

    #[test]
    fn epr_carries_key_and_lut() {
        let d = ActivityDeployment::executable("T", "s1", "/x/bin/t", "/x");
        let epr = d.epr("https://s1:8084/wsrf/services/ADR", SimTime::from_secs(9));
        assert_eq!(epr.key, "t@s1");
        assert_eq!(epr.key_name, "ActivityDeploymentKey");
        assert_eq!(epr.last_update_time, SimTime::from_secs(9));
    }

    #[test]
    fn invocation_metrics_accumulate() {
        let mut d = ActivityDeployment::executable("T", "s1", "/x/bin/t", "/x");
        d.record_invocation(SimTime::from_secs(10), SimDuration::from_secs(3), 0);
        d.record_invocation(SimTime::from_secs(20), SimDuration::from_secs(4), 1);
        assert_eq!(d.metrics.invocations, 2);
        assert_eq!(d.metrics.last_return_code, Some(1));
        assert_eq!(d.metrics.last_invocation, Some(SimTime::from_secs(20)));
    }

    #[test]
    fn status_gates_usability() {
        let mut d = ActivityDeployment::executable("T", "s1", "/x/bin/t", "/x");
        d.status = DeploymentStatus::Failed;
        assert!(!d.is_usable());
        d.status = DeploymentStatus::Unavailable;
        assert!(!d.is_usable());
    }

    #[test]
    fn xml_has_fig7_fields() {
        let mut d = ActivityDeployment::executable(
            "JPOVray",
            "site3",
            "/opt/deployments/jpovray/bin/jpovray",
            "/opt/deployments/jpovray",
        );
        d.record_invocation(SimTime::from_secs(5), SimDuration::from_millis(800), 0);
        let xml = d.to_xml();
        assert_eq!(xml.attribute("category"), Some("executable"));
        assert_eq!(
            xml.child_text_of("Path"),
            Some("/opt/deployments/jpovray/bin/jpovray")
        );
        assert_eq!(xml.child_text_of("LastExecutionTime"), Some("800"));
        assert_eq!(xml.child_text_of("Invocations"), Some("1"));
        let svc = ActivityDeployment::service("T", "s", "WS-X", "https://s/WS-X").to_xml();
        assert_eq!(svc.child_text_of("Address"), Some("https://s/WS-X"));
    }
}
