//! The Application semantic object as a Grid service (thesis Table 1 and
//! §5.3.1), its factory, and the typed client stub.

use crate::execution::{render_pairs, split_pairs};
use crate::manager::Manager;
use crate::wrapper::ApplicationWrapper;
use crate::{APPLICATION_NS, FRAMED_CAPABILITY};
use pperf_httpd::HttpClient;
use pperf_ogsi::{Factory, Gsh, ServiceData, ServicePort, ServiceStub};
use pperf_soap::wsdl::{Operation, PortType, ServiceDescription};
use pperf_soap::{Call, Fault, Value, ValueType, PPGB_VERSION};
use std::sync::Arc;

/// The Application PortType description (thesis Table 1, verbatim
/// semantics).
pub fn application_description() -> ServiceDescription {
    ServiceDescription::new("PPerfGridApplication", APPLICATION_NS).with_port_type(PortType::new(
        "Application",
        vec![
            Operation::new(
                "getAppInfo",
                vec![],
                ValueType::StrArray,
                "Returns general information about the application (name, version, \
                     ...); elements are name|value pairs",
            ),
            Operation::new(
                "getNumExecs",
                vec![],
                ValueType::Int,
                "Returns the number of unique executions available",
            ),
            Operation::new(
                "getExecQueryParams",
                vec![],
                ValueType::StrArray,
                "Returns attributes that describe executions; each element is a \
                     name and its unique possible values, '|'-delimited",
            ),
            Operation::new(
                "getAllExecs",
                vec![],
                ValueType::StrArray,
                "Returns GSHs of an Execution service instance for every unique \
                     execution record",
            ),
            Operation::new(
                "getExecs",
                vec![("attribute", ValueType::Str), ("value", ValueType::Str)],
                ValueType::StrArray,
                "Returns GSHs of Execution service instances for executions \
                     matching the attribute/value pair",
            ),
        ],
    ))
}

/// A transient Application Grid service instance.
///
/// On `getExecs`/`getAllExecs` it queries the Mapping Layer for matching
/// execution ids, then forwards the ids to the [`Manager`] which creates (or
/// returns cached) Execution service instances — steps 3a–3i of Fig. 3.
pub struct ApplicationService {
    wrapper: Arc<dyn ApplicationWrapper>,
    manager: Arc<Manager>,
    advertise_framed: bool,
}

impl ApplicationService {
    /// Wrap an application wrapper with its manager.
    pub fn new(wrapper: Arc<dyn ApplicationWrapper>, manager: Arc<Manager>) -> Self {
        ApplicationService {
            wrapper,
            manager,
            advertise_framed: true,
        }
    }

    /// Control whether instances advertise the framed PPGB route
    /// ([`FRAMED_CAPABILITY`]). Off models a site whose containers predate
    /// it: federation clients send it per-call SOAP/XML.
    pub fn with_framed_advertised(mut self, advertise: bool) -> Self {
        self.advertise_framed = advertise;
        self
    }

    fn execs_to_gshs(&self, ids: Vec<String>) -> Result<Value, Fault> {
        let gshs = self
            .manager
            .get_execs(&ids, None)
            .map_err(|e| Fault::server(format!("manager failed: {e}")))?;
        Ok(Value::StrArray(
            gshs.into_iter().map(String::from).collect(),
        ))
    }
}

impl ServicePort for ApplicationService {
    fn description(&self) -> ServiceDescription {
        application_description()
    }

    fn invoke(&self, operation: &str, call: &Call) -> Result<Value, Fault> {
        match operation {
            "getAppInfo" => Ok(render_pairs(self.wrapper.app_info())),
            "getNumExecs" => Ok(Value::Int(self.wrapper.num_execs() as i64)),
            "getExecQueryParams" => {
                let rows = self
                    .wrapper
                    .exec_query_params()
                    .into_iter()
                    .map(|(attr, values)| {
                        let mut row = attr;
                        for v in values {
                            row.push('|');
                            row.push_str(&v);
                        }
                        row
                    })
                    .collect();
                Ok(Value::StrArray(rows))
            }
            "getAllExecs" => self.execs_to_gshs(self.wrapper.all_exec_ids()),
            "getExecs" => {
                let attribute = call
                    .param("attribute")
                    .and_then(Value::as_str)
                    .ok_or_else(|| Fault::client("missing 'attribute'"))?;
                let value = call
                    .param("value")
                    .and_then(Value::as_str)
                    .ok_or_else(|| Fault::client("missing 'value'"))?;
                let ids = self
                    .wrapper
                    .exec_ids_matching(attribute, value)
                    .map_err(|e| Fault::client(e.to_string()))?;
                self.execs_to_gshs(ids)
            }
            other => Err(Fault::client(format!(
                "unknown Application operation {other:?}"
            ))),
        }
    }

    fn service_data(&self) -> ServiceData {
        let mut data =
            ServiceData::new().with("numExecs", Value::Int(self.wrapper.num_execs() as i64));
        // Advertise the site's Manager handle so federation clients can
        // request hedge replicas (`ManagerStub::get_hedges`).
        if let Some(gsh) = self.manager.self_gsh() {
            data = data.with("managerGsh", Value::from(gsh.as_str()));
        }
        // The framed route's capability: clients speaking this PPGB version
        // fold their per-instance getPR fan-out into one framed call per
        // host; absent means per-call SOAP/XML.
        if self.advertise_framed {
            data = data.with(FRAMED_CAPABILITY, Value::Int(i64::from(PPGB_VERSION)));
        }
        data
    }
}

/// Factory creating Application service instances (thesis Fig. 3, step 2).
pub struct ApplicationFactory {
    wrapper: Arc<dyn ApplicationWrapper>,
    manager: Arc<Manager>,
    advertise_framed: bool,
}

impl ApplicationFactory {
    /// A factory over the given wrapper and manager.
    pub fn new(wrapper: Arc<dyn ApplicationWrapper>, manager: Arc<Manager>) -> Self {
        ApplicationFactory {
            wrapper,
            manager,
            advertise_framed: true,
        }
    }

    /// Control whether created instances advertise the framed PPGB route.
    pub fn with_framed_advertised(mut self, advertise: bool) -> Self {
        self.advertise_framed = advertise;
        self
    }
}

impl Factory for ApplicationFactory {
    fn description(&self) -> ServiceDescription {
        application_description()
    }

    fn create(&self, _call: &Call) -> Result<Arc<dyn ServicePort>, Fault> {
        Ok(Arc::new(
            ApplicationService::new(Arc::clone(&self.wrapper), Arc::clone(&self.manager))
                .with_framed_advertised(self.advertise_framed),
        ))
    }
}

/// Typed client stub for the Application PortType.
#[derive(Clone)]
pub struct ApplicationStub {
    stub: ServiceStub,
    client: Arc<HttpClient>,
}

impl ApplicationStub {
    /// Bind to an Application instance by handle.
    pub fn bind(client: Arc<HttpClient>, handle: &Gsh) -> ApplicationStub {
        ApplicationStub {
            stub: ServiceStub::new(Arc::clone(&client), handle.clone())
                .with_namespace(APPLICATION_NS),
            client,
        }
    }

    /// The bound handle.
    pub fn handle(&self) -> &Gsh {
        self.stub.handle()
    }

    /// The untyped stub.
    pub fn stub(&self) -> &ServiceStub {
        &self.stub
    }

    /// The shared HTTP client (to bind returned Execution handles).
    pub fn client(&self) -> Arc<HttpClient> {
        Arc::clone(&self.client)
    }

    /// `getAppInfo` as `(name, value)` pairs.
    pub fn get_app_info(&self) -> pperf_ogsi::Result<Vec<(String, String)>> {
        Ok(split_pairs(self.stub.call_str_array("getAppInfo", &[])?))
    }

    /// `getNumExecs`.
    pub fn get_num_execs(&self) -> pperf_ogsi::Result<i64> {
        self.stub.call_int("getNumExecs", &[])
    }

    /// `getExecQueryParams` as `(attribute, values)` pairs.
    pub fn get_exec_query_params(&self) -> pperf_ogsi::Result<Vec<(String, Vec<String>)>> {
        let rows = self.stub.call_str_array("getExecQueryParams", &[])?;
        Ok(rows
            .into_iter()
            .map(|row| {
                let mut parts = row.split('|').map(str::to_owned);
                let attr = parts.next().unwrap_or_default();
                (attr, parts.collect())
            })
            .collect())
    }

    /// `getAllExecs` as handles.
    pub fn get_all_execs(&self) -> pperf_ogsi::Result<Vec<Gsh>> {
        let rows = self.stub.call_str_array("getAllExecs", &[])?;
        rows.iter().map(|s| Gsh::parse(s.as_str())).collect()
    }

    /// `getExecs(attribute, value)` as handles.
    pub fn get_execs(&self, attribute: &str, value: &str) -> pperf_ogsi::Result<Vec<Gsh>> {
        let rows = self.stub.call_str_array(
            "getExecs",
            &[
                ("attribute", Value::from(attribute)),
                ("value", Value::from(value)),
            ],
        )?;
        rows.iter().map(|s| Gsh::parse(s.as_str())).collect()
    }
}
