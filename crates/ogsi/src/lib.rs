//! An OGSI-style Grid services framework.
//!
//! The thesis builds on the Globus Toolkit 3.2 implementation of the Open
//! Grid Services Infrastructure: *"Grid services combine the open
//! interoperability standards and automatic discovery features of web
//! services and the concept of transient, stateful service instances"* (§3.2).
//! GT3.2 is long obsolete; this crate is its replacement, implementing the
//! conventions PPerfGrid relies on:
//!
//! * **[`Gsh`]** — Grid Service Handles, globally unique service-instance
//!   URLs (thesis §4.4: "there cannot be two Grid services or Grid service
//!   instances with the same GSH").
//! * **[`ServicePort`]** — the native side of a service implementation; the
//!   container adapts it to SOAP (the *architecture adapter* of §4.5).
//! * **[`Container`]** — the hosting environment (the Tomcat/Axis stand-in):
//!   deploys factories and persistent services, dispatches SOAP calls,
//!   manages transient instance lifetimes (SetTerminationTime / Destroy /
//!   soft-state expiry), and serves WSDL-like descriptions on `GET ?wsdl`.
//! * **[`Factory`]** — creates transient stateful instances
//!   (`createService`), per the Factory PortType of thesis Table 3.
//! * **Registry** — a UDDI-like publish/discover service with
//!   Organization/Service entries (thesis §5.5.1), plus typed client proxies.
//! * **HandleMap** — resolves a GSH to a Grid Service Reference.
//! * **Notifications** — NotificationSource/Sink PortTypes with push
//!   delivery over SOAP.
//! * **[`ServiceStub`]** — dynamic client-side stubs (the generated-stub
//!   stand-in) with typed call helpers.

mod container;
mod error;
mod factory;
mod gsh;
mod handlemap;
mod notification;
mod registry;
mod service;
mod service_data;
mod stub;

pub use container::{Container, ContainerConfig};
pub use error::{OgsiError, Result};
pub use factory::{Factory, FactoryStub};
pub use gsh::Gsh;
pub use handlemap::{HandleMapStub, ServiceReference};
pub use notification::{
    NotificationHub, NotificationSinkStub, NotificationSourceStub, Subscription,
};
pub use registry::{Organization, RegistryService, RegistryStub, ServiceEntry};
pub use service::{GridServiceStub, ServicePort};
pub use service_data::ServiceData;
pub use stub::{
    BatchStreamEntryOutcome, BatchStreamResult, ServiceStub, StreamOutcome, StreamWire,
};

/// Path of the framed PPGB route on every container.
pub(crate) const FRAMED_PATH: &str = "/ogsa/batch-stream";

/// The span operation of a framed call: the method itself for one entry,
/// `multiCallStream` for several.
pub(crate) fn framed_operation(entries: &[pperf_soap::BatchEntry]) -> &str {
    match entries {
        [entry] => &entry.method,
        _ => "multiCallStream",
    }
}

/// The namespace used by framework-level (OGSI) operations.
pub const OGSI_NS: &str = "urn:ogsi:core";

/// Names of the standard OGSA PortType operations handled by the container
/// itself rather than the deployed [`ServicePort`] (thesis Table 3).
pub const STANDARD_OPS: &[&str] = &[
    "findServiceData",
    "queryServiceDataXPath",
    "setTerminationTime",
    "destroy",
    "createService",
    "subscribeToNotificationTopic",
    "deliverNotification",
];
