//! The native service interface and the GridService PortType client stub.

use crate::error::{OgsiError, Result};
use crate::gsh::Gsh;
use crate::service_data::ServiceData;
use crate::stub::ServiceStub;
use pperf_httpd::HttpClient;
use pperf_soap::wsdl::ServiceDescription;
use pperf_soap::{Call, Fault, Value};
use std::sync::Arc;

/// The native side of a Grid service implementation.
///
/// Deployed implementations receive already-demarshalled calls — the
/// container performs the SOAP half of the architecture-adapter conversion
/// (thesis §4.5) and routes standard OGSI operations (Table 3) itself, so
/// `invoke` only ever sees application operations.
pub trait ServicePort: Send + Sync {
    /// The service description (PortTypes and operations) published at
    /// `GET <service-url>?wsdl`.
    fn description(&self) -> ServiceDescription;

    /// Execute one application-level operation. The container refuses a
    /// request whose [`CallContext`](ppg_context::CallContext) arrived
    /// expired and scopes the rest on the handler thread for the call, so
    /// a port that checks the budget, records spans or types its deadline
    /// faults reads [`ppg_context::current`].
    fn invoke(&self, operation: &str, call: &Call) -> std::result::Result<Value, Fault>;

    /// Service Data Elements exposed through `findServiceData`, beyond the
    /// introspection data the container contributes automatically.
    fn service_data(&self) -> ServiceData {
        ServiceData::new()
    }

    /// Called by the container when the port is deployed, handing it the
    /// container's push [`NotificationSource`](ppg_notify::NotificationSource)
    /// (`None` on poll-only containers). Default: ignore — most ports do
    /// not publish. The registry stores it to push membership deltas.
    fn on_deploy(&self, notify: Option<&Arc<ppg_notify::NotificationSource>>) {
        let _ = notify;
    }

    /// Called by the container when the instance is destroyed (explicitly or
    /// by lifetime expiry). Default: nothing to release.
    fn on_destroy(&self) {}

    /// Called when a `deliverNotification` message arrives for this service
    /// (the NotificationSink PortType). Default: drop the notification.
    fn on_notification(&self, _topic: &str, _message: &str) {}

    /// Execute `operation` producing rows incrementally: each `sink` call
    /// hands off one bounded batch, and the sink blocks while the consumer's
    /// in-flight window is full — backpressure reaches the producer here.
    /// Returns the total row count on success. A sink error (consumer gone,
    /// deadline spent) must abort production and be returned as the fault.
    ///
    /// The container serves every entry of a framed call
    /// (`POST /ogsa/batch-stream`) through here. The default is a client
    /// fault naming the operation, which seals that entry alone: a port
    /// overrides it for the operations that have a streaming form and
    /// answers the same fault for the rest.
    fn invoke_stream(
        &self,
        operation: &str,
        call: &Call,
        ctx: &ppg_context::CallContext,
        sink: &mut dyn FnMut(Vec<String>) -> std::result::Result<(), Fault>,
    ) -> std::result::Result<u64, Fault> {
        let _ = (call, ctx, sink);
        Err(Fault::client(format!(
            "operation {operation:?} has no streaming form"
        )))
    }
}

/// Typed client stub for the GridService PortType that all Grid services
/// implement (thesis Table 3).
pub struct GridServiceStub {
    stub: ServiceStub,
}

impl GridServiceStub {
    /// Bind to an instance by handle.
    pub fn bind(client: Arc<HttpClient>, handle: &Gsh) -> GridServiceStub {
        GridServiceStub {
            stub: ServiceStub::new(client, handle.clone()),
        }
    }

    /// Access the untyped stub (for application operations on the same
    /// instance).
    pub fn stub(&self) -> &ServiceStub {
        &self.stub
    }

    /// `findServiceData`: query one named service data element.
    pub fn find_service_data(&self, name: &str) -> Result<Value> {
        self.stub
            .call("findServiceData", &[("name", Value::from(name))])
    }

    /// `setTerminationTime`: request the instance live for another
    /// `seconds` seconds (soft-state lifetime). Returns the granted value.
    pub fn set_termination_time(&self, seconds: i64) -> Result<i64> {
        let v = self
            .stub
            .call("setTerminationTime", &[("seconds", Value::Int(seconds))])?;
        v.as_int().ok_or_else(|| {
            OgsiError::Soap(pperf_soap::SoapError::Envelope(
                "setTerminationTime returned a non-integer".into(),
            ))
        })
    }

    /// `destroy`: terminate the instance.
    pub fn destroy(&self) -> Result<()> {
        self.stub.call("destroy", &[])?;
        Ok(())
    }

    /// `queryServiceDataXPath`: evaluate an XPath expression over the
    /// instance's service data document (thesis §7 / GT3.2 WS Information
    /// Services). Returns matched string values.
    pub fn query_service_data_xpath(&self, path: &str) -> Result<Vec<String>> {
        self.stub
            .call_str_array("queryServiceDataXPath", &[("path", Value::from(path))])
    }
}
