//! The PPerfGrid Manager (thesis §5.3.1.4).
//!
//! "The Manager is a non-transient Grid service that caches Execution
//! service instances. Creation of a Grid service instance is a relatively
//! expensive operation and is best avoided whenever possible... The
//! Application service instance forwards the unique ID values returned from
//! its database query to the Manager, which autonomously creates new
//! Execution instances by accessing the Execution Grid service factory as a
//! client... When another request for the same Execution instance is made,
//! the cached GSH of the previously created instance is returned."
//!
//! Replica management: "given replicas of a data source on two different
//! hosts and a request... the Manager instantiates 16 Execution service
//! instances on one host and 16 on the other, interleaving the
//! instantiations (ID 1 on Host A, ID 2 on host B, ...)".

use crate::MANAGER_NS;
use parking_lot::Mutex;
use pperf_httpd::HttpClient;
use pperf_ogsi::{FactoryStub, Gsh, OgsiError, ServiceData, ServicePort, ServiceStub};
use pperf_soap::wsdl::{Operation, PortType, ServiceDescription};
use pperf_soap::{Call, Fault, Value, ValueType};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// How the Manager places new Execution instances across replica hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Strict round-robin interleaving — the thesis's implemented scheme
    /// ("ID 1 on Host A, ID 2 on host B, ID 3 on host A, ...").
    #[default]
    Interleave,
    /// Probe each replica's live-instance count (`hostLiveInstances`
    /// service data on its Execution factory) and place on the least-loaded
    /// host — the runtime-adaptive strategy §6.5 leaves to future work.
    /// Falls back to interleaving for hosts that fail to answer the probe.
    LeastLoaded,
}

/// The Manager: execution-instance cache plus replica placement.
pub struct Manager {
    /// Execution factory handles, one per replica host.
    factories: Vec<Gsh>,
    placement: Placement,
    client: Arc<HttpClient>,
    cache: Mutex<HashMap<String, Gsh>>,
    /// Hedge instances: primary instance GSH → instance of the *same*
    /// execution on a different replica host (for hedged requests).
    hedges: Mutex<HashMap<String, Gsh>>,
    /// Serializes the miss path so concurrent requests for the same id
    /// produce exactly one instance (the instance — and its PR cache — must
    /// be shared for the thesis's caching behaviour to hold).
    creation: Mutex<()>,
    next_replica: AtomicUsize,
    hits: AtomicU64,
    creations: AtomicU64,
    /// The GSH this manager is deployed under, once known (set by
    /// [`crate::Site`] after deployment so the Application can advertise it).
    self_gsh: Mutex<Option<Gsh>>,
}

impl Manager {
    /// A manager distributing instance creation across `factories` (one
    /// entry per replica host; a single entry disables distribution).
    pub fn new(client: Arc<HttpClient>, factories: Vec<Gsh>) -> Arc<Manager> {
        Manager::with_placement(client, factories, Placement::Interleave)
    }

    /// A manager with an explicit placement strategy.
    pub fn with_placement(
        client: Arc<HttpClient>,
        factories: Vec<Gsh>,
        placement: Placement,
    ) -> Arc<Manager> {
        assert!(
            !factories.is_empty(),
            "Manager needs at least one Execution factory"
        );
        Arc::new(Manager {
            factories,
            placement,
            client,
            cache: Mutex::new(HashMap::new()),
            hedges: Mutex::new(HashMap::new()),
            creation: Mutex::new(()),
            next_replica: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            creations: AtomicU64::new(0),
            self_gsh: Mutex::new(None),
        })
    }

    /// Record the handle this manager's service was deployed under.
    pub fn set_self_gsh(&self, gsh: Gsh) {
        *self.self_gsh.lock() = Some(gsh);
    }

    /// The handle this manager's service was deployed under, if known.
    pub fn self_gsh(&self) -> Option<Gsh> {
        self.self_gsh.lock().clone()
    }

    /// The factory handles in use.
    pub fn factories(&self) -> &[Gsh] {
        &self.factories
    }

    /// `(cache_hits, instances_created)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.creations.load(Ordering::Relaxed),
        )
    }

    /// Resolve execution ids to Execution service instance handles, creating
    /// instances for uncached ids (interleaved across replicas) and
    /// returning cached handles otherwise.
    pub fn get_execs(
        &self,
        exec_ids: &[String],
        cache_enabled: Option<bool>,
    ) -> Result<Vec<Gsh>, OgsiError> {
        let mut out = Vec::with_capacity(exec_ids.len());
        for id in exec_ids {
            if let Some(gsh) = self.cache.lock().get(id).cloned() {
                self.hits.fetch_add(1, Ordering::Relaxed);
                out.push(gsh);
                continue;
            }
            // Serialize creation; re-check under the lock so a concurrent
            // request for the same id yields the shared instance instead of
            // a duplicate.
            let _guard = self.creation.lock();
            if let Some(gsh) = self.cache.lock().get(id).cloned() {
                self.hits.fetch_add(1, Ordering::Relaxed);
                out.push(gsh);
                continue;
            }
            let slot = self.choose_slot();
            let factory = FactoryStub::bind(Arc::clone(&self.client), &self.factories[slot]);
            let mut args: Vec<(&str, Value)> = vec![("execId", Value::from(id.as_str()))];
            if let Some(enabled) = cache_enabled {
                args.push(("cacheEnabled", Value::Bool(enabled)));
            }
            let gsh = factory.create_service(&args)?;
            self.creations.fetch_add(1, Ordering::Relaxed);
            self.cache.lock().insert(id.clone(), gsh.clone());
            out.push(gsh);
        }
        Ok(out)
    }

    /// Pick the replica factory for the next creation per the placement
    /// strategy.
    fn choose_slot(&self) -> usize {
        let round_robin =
            || self.next_replica.fetch_add(1, Ordering::Relaxed) % self.factories.len();
        match self.placement {
            Placement::Interleave => round_robin(),
            Placement::LeastLoaded => {
                // Probe each factory's host-load service data element; any
                // probe failure falls back to round-robin for fairness.
                let mut best: Option<(usize, i64)> = None;
                for (i, gsh) in self.factories.iter().enumerate() {
                    let gs = pperf_ogsi::GridServiceStub::bind(Arc::clone(&self.client), gsh);
                    let Ok(v) = gs.find_service_data("hostLiveInstances") else {
                        return round_robin();
                    };
                    let Some(load) = v.as_int() else {
                        return round_robin();
                    };
                    if best.is_none_or(|(_, b)| load < b) {
                        best = Some((i, load));
                    }
                }
                match best {
                    Some((i, _)) => i,
                    None => round_robin(),
                }
            }
        }
    }

    /// A *hedge* instance for `primary`: an Execution instance of the same
    /// execution id on a **different** replica host, created (and cached)
    /// lazily. Returns `Ok(None)` when no distinct-host replica exists or
    /// when `primary` is not one of this manager's cached instances — hedging
    /// is strictly best-effort.
    pub fn hedge_for(&self, primary: &Gsh) -> Result<Option<Gsh>, OgsiError> {
        if self.factories.len() < 2 {
            return Ok(None);
        }
        if let Some(gsh) = self.hedges.lock().get(primary.as_str()).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Some(gsh));
        }
        // Reverse-map the instance handle back to its execution id.
        let exec_id = self
            .cache
            .lock()
            .iter()
            .find(|(_, gsh)| gsh.as_str() == primary.as_str())
            .map(|(id, _)| id.clone());
        let Some(exec_id) = exec_id else {
            return Ok(None);
        };
        let _guard = self.creation.lock();
        if let Some(gsh) = self.hedges.lock().get(primary.as_str()).cloned() {
            return Ok(Some(gsh));
        }
        // Place the hedge on a factory whose host differs from the primary's;
        // a hedge on the same host would share its failure domain.
        let primary_authority = primary.url().authority();
        let Some(factory) = self
            .factories
            .iter()
            .find(|f| f.url().authority() != primary_authority)
        else {
            return Ok(None);
        };
        let stub = FactoryStub::bind(Arc::clone(&self.client), factory);
        let gsh = stub.create_service(&[("execId", Value::from(exec_id.as_str()))])?;
        self.creations.fetch_add(1, Ordering::Relaxed);
        self.hedges
            .lock()
            .insert(primary.as_str().to_owned(), gsh.clone());
        Ok(Some(gsh))
    }

    /// Hedges for a batch of primaries; entries that cannot be hedged (or
    /// whose hedge creation fails) come back `None`.
    pub fn get_hedges(&self, primaries: &[Gsh]) -> Vec<Option<Gsh>> {
        primaries
            .iter()
            .map(|p| self.hedge_for(p).unwrap_or(None))
            .collect()
    }

    /// Forget all cached instances (does not destroy them).
    pub fn clear_cache(&self) {
        self.cache.lock().clear();
        self.hedges.lock().clear();
    }

    /// Number of cached execution → instance mappings.
    pub fn cached_instances(&self) -> usize {
        self.cache.lock().len()
    }
}

/// The Manager exposed as a (persistent, internal) Grid service, so other
/// components can also reach it over SOAP. "Grid services need not be
/// accessed only in the traditional client-server model. They are software
/// components, and can be composed and aggregated as such" (§5.3.1.4).
pub struct ManagerService {
    manager: Arc<Manager>,
}

impl ManagerService {
    /// Wrap a manager.
    pub fn new(manager: Arc<Manager>) -> ManagerService {
        ManagerService { manager }
    }
}

/// The Manager PortType description.
pub fn manager_description() -> ServiceDescription {
    ServiceDescription::new("PPerfGridManager", MANAGER_NS).with_port_type(PortType::new(
        "Manager",
        vec![
            Operation::new(
                "getExecs",
                vec![("execIds", ValueType::StrArray)],
                ValueType::StrArray,
                "Resolve execution ids to Execution instance GSHs, creating and \
                 caching instances as needed",
            ),
            Operation::new(
                "getHedges",
                vec![("execGshs", ValueType::StrArray)],
                ValueType::StrArray,
                "For each Execution instance GSH, return the GSH of an instance \
                 of the same execution on a different replica host (empty string \
                 where no distinct-host replica exists); used for hedged requests",
            ),
        ],
    ))
}

impl ServicePort for ManagerService {
    fn description(&self) -> ServiceDescription {
        manager_description()
    }

    fn invoke(&self, operation: &str, call: &Call) -> Result<Value, Fault> {
        match operation {
            "getExecs" => {
                let ids = call
                    .param("execIds")
                    .and_then(Value::as_str_array)
                    .ok_or_else(|| Fault::client("missing execIds array"))?;
                let gshs = self
                    .manager
                    .get_execs(ids, None)
                    .map_err(|e| Fault::server(e.to_string()))?;
                Ok(Value::StrArray(
                    gshs.into_iter().map(String::from).collect(),
                ))
            }
            "getHedges" => {
                let gshs = call
                    .param("execGshs")
                    .and_then(Value::as_str_array)
                    .ok_or_else(|| Fault::client("missing execGshs array"))?;
                // Aligned with the input: a failed parse or un-hedgeable
                // primary yields an empty slot, never a shifted array.
                let out = gshs
                    .iter()
                    .map(|s| match Gsh::parse(s.as_str()) {
                        Ok(primary) => self
                            .manager
                            .hedge_for(&primary)
                            .ok()
                            .flatten()
                            .map(String::from)
                            .unwrap_or_default(),
                        Err(_) => String::new(),
                    })
                    .collect();
                Ok(Value::StrArray(out))
            }
            other => Err(Fault::client(format!(
                "unknown Manager operation {other:?}"
            ))),
        }
    }

    fn service_data(&self) -> ServiceData {
        let (hits, creations) = self.manager.stats();
        ServiceData::new()
            .with(
                "replicaCount",
                Value::Int(self.manager.factories.len() as i64),
            )
            .with(
                "cachedInstances",
                Value::Int(self.manager.cached_instances() as i64),
            )
            .with(
                "hedgedInstances",
                Value::Int(self.manager.hedges.lock().len() as i64),
            )
            .with("cacheHits", Value::Int(hits as i64))
            .with("instancesCreated", Value::Int(creations as i64))
    }
}

/// Typed client stub for the Manager PortType (used by the federation
/// gateway to obtain hedge replicas over the wire).
#[derive(Clone)]
pub struct ManagerStub {
    stub: ServiceStub,
}

impl ManagerStub {
    /// Bind to a Manager service by handle.
    pub fn bind(client: Arc<HttpClient>, handle: &Gsh) -> ManagerStub {
        ManagerStub {
            stub: ServiceStub::new(client, handle.clone()).with_namespace(MANAGER_NS),
        }
    }

    /// The bound handle.
    pub fn handle(&self) -> &Gsh {
        self.stub.handle()
    }

    /// `getExecs(execIds)` as handles.
    pub fn get_execs(&self, exec_ids: &[String]) -> Result<Vec<Gsh>, OgsiError> {
        let rows = self.stub.call_str_array(
            "getExecs",
            &[("execIds", Value::StrArray(exec_ids.to_vec()))],
        )?;
        rows.iter().map(|s| Gsh::parse(s.as_str())).collect()
    }

    /// `getHedges(execGshs)`: per-primary hedge handles, aligned with the
    /// input (`None` where no distinct-host replica exists).
    pub fn get_hedges(&self, primaries: &[Gsh]) -> Result<Vec<Option<Gsh>>, OgsiError> {
        let arr = Value::StrArray(primaries.iter().map(|g| g.as_str().to_owned()).collect());
        let rows = self
            .stub
            .call_str_array("getHedges", &[("execGshs", arr)])?;
        Ok(rows
            .into_iter()
            .map(|s| {
                if s.is_empty() {
                    None
                } else {
                    Gsh::parse(s).ok()
                }
            })
            .collect())
    }
}
