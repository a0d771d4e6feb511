//! WS-Addressing Endpoint References.
//!
//! An EPR names a WS-Resource: the service `Address` plus
//! `ReferenceProperties` carrying the resource key. GLARE extends the
//! deployment EPR with a `LastUpdateTime` (LUT) reference property (paper
//! Fig. 6) that the Cache Refresher compares to revive stale cached
//! entries — the address and key never change over a deployment's
//! lifetime, the LUT changes on every status update.

use glare_fabric::SimTime;

use crate::xml::XmlNode;

/// A WS-Addressing endpoint reference with GLARE's LUT extension.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct EndpointReference {
    /// Service address, e.g.
    /// `https://138.232.1.2:8084/wsrf/services/ActivityDeploymentRegistry`.
    pub address: String,
    /// Resource key within the service (e.g. the deployment name).
    pub key: String,
    /// Name of the key element (e.g. `ActivityDeploymentKey`).
    pub key_name: String,
    /// Last update time — bumped by the Deployment Status Monitor; cached
    /// copies older than this are refreshed.
    pub last_update_time: SimTime,
}

impl EndpointReference {
    /// Construct an EPR.
    pub fn new(
        address: impl Into<String>,
        key_name: impl Into<String>,
        key: impl Into<String>,
        last_update_time: SimTime,
    ) -> Self {
        EndpointReference {
            address: address.into(),
            key: key.into(),
            key_name: key_name.into(),
            last_update_time,
        }
    }

    /// Whether `other` references the same resource (ignoring LUT).
    pub(crate) fn same_resource(&self, other: &EndpointReference) -> bool {
        self.address == other.address && self.key == other.key
    }

    /// Whether this EPR is a *newer* view of the same resource.
    pub fn is_newer_than(&self, other: &EndpointReference) -> bool {
        self.same_resource(other) && self.last_update_time > other.last_update_time
    }

    /// Render as the XML shape of the paper's Fig. 6.
    pub fn to_xml(&self) -> XmlNode {
        XmlNode::new("EndpointReference")
            .child_text("Address", &self.address)
            .child(
                XmlNode::new("ReferenceProperties")
                    .child_text(self.key_name.clone(), &self.key)
                    .child_text(
                        "LastUpdateTime",
                        self.last_update_time.as_nanos().to_string(),
                    ),
            )
            .child(XmlNode::new("ReferenceParameters"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epr(lut: u64) -> EndpointReference {
        EndpointReference::new(
            "https://site1/wsrf/services/ActivityDeploymentRegistry",
            "ActivityDeploymentKey",
            "jpovray",
            SimTime::from_nanos(lut),
        )
    }

    #[test]
    fn xml_round_trip() {
        let xml = epr(12345).to_xml();
        assert_eq!(
            xml.child_text_of("Address"),
            Some("https://site1/wsrf/services/ActivityDeploymentRegistry")
        );
        let props = xml.first_child("ReferenceProperties").expect("Fig. 6 properties");
        assert_eq!(props.child_text_of("ActivityDeploymentKey"), Some("jpovray"));
        assert_eq!(props.child_text_of("LastUpdateTime"), Some("12345"));
    }

    #[test]
    fn identity_ignores_lut() {
        let old = epr(1);
        let new = epr(2);
        assert!(old.same_resource(&new));
        assert!(new.is_newer_than(&old));
        assert!(!old.is_newer_than(&new));
    }

    #[test]
    fn different_keys_are_different_resources() {
        let a = epr(1);
        let mut b = epr(5);
        b.key = "wien2k".to_owned();
        assert!(!a.same_resource(&b));
        assert!(!b.is_newer_than(&a), "newer-than requires same resource");
    }

    #[test]
    fn fig6_shape() {
        let xml = epr(0).to_xml().to_xml_pretty();
        assert!(xml.contains("<Address>"));
        assert!(xml.contains("<ActivityDeploymentKey>jpovray</ActivityDeploymentKey>"));
        assert!(xml.contains("<LastUpdateTime>"));
        assert!(xml.contains("<ReferenceParameters/>"));
    }
}
