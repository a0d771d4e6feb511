//! # glare-wsrf — a minimal Web-Services Resource Framework
//!
//! The GLARE prototype was "implemented based on the Globus Toolkit 4,
//! which is a reference implementation of the new Web-Services Resource
//! Framework (WSRF)". This crate supplies the WSRF primitives GLARE's
//! registries are defined in terms of:
//!
//! * [`xml`] — the XML document model used by resource property documents,
//!   EPRs, activity type entries and deploy-files.
//! * [`xpath`] — the XPath subset both the Index Service baseline and the
//!   registries' query interface evaluate.
//! * [`resource`] — stateful WS-Resources with lifecycle management
//!   (creation, modification stamps, destruction).
//! * [`epr`] — endpoint references with GLARE's `LastUpdateTime` extension.
//! * [`service_group`] — the aggregation framework: a group is its
//!   aggregate document.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod epr;
pub mod error;
pub mod resource;
pub mod service_group;
pub mod xml;
pub mod xpath;

pub use epr::EndpointReference;
pub use error::WsrfError;
pub use resource::{ResourceHome, ResourceProperties, WsResource};
pub use service_group::{EntryId, ServiceGroup};
pub use xml::{parse as parse_xml, XmlError, XmlNode};
pub use xpath::{XPath, XPathError, XPathMemo};
