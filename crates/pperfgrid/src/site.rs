//! Site deployment: stand up a complete PPerfGrid installation.
//!
//! A *site* is one published performance data store: an Application factory,
//! one or more Execution factories (one per replica host/container), the
//! Manager wiring them together, and a registry entry so clients can
//! discover the Application factory (thesis Fig. 3).

use crate::application::ApplicationFactory;
use crate::execution::ExecutionFactory;
use crate::manager::{Manager, ManagerService};
use crate::wrapper::ApplicationWrapper;
use pperf_httpd::HttpClient;
use pperf_ogsi::{Container, Gsh, OgsiError, RegistryStub, ServiceEntry};
use std::sync::Arc;

/// Deployment options for a site.
#[derive(Debug, Clone)]
pub struct SiteConfig {
    /// Site/service name (used in paths, e.g. `hpl-app`, `hpl-exec`).
    pub name: String,
    /// Default cache behaviour of created Execution instances.
    pub cache_enabled: bool,
    /// PR cache capacity per Execution instance.
    pub cache_capacity: usize,
    /// PR cache replacement policy.
    pub cache_policy: crate::prcache::CachePolicy,
    /// Whether Application instances advertise the framed PPGB route
    /// ([`crate::FRAMED_CAPABILITY`]). Off models a legacy site: clients
    /// send it per-call SOAP/XML.
    pub advertise_framed: bool,
}

impl SiteConfig {
    /// Config with caching on.
    pub fn new(name: impl Into<String>) -> SiteConfig {
        SiteConfig {
            name: name.into(),
            cache_enabled: true,
            cache_capacity: 4096,
            cache_policy: crate::prcache::CachePolicy::Fifo,
            advertise_framed: true,
        }
    }

    /// Toggle the framed-route advertisement (off ⇒ clients use per-call
    /// SOAP/XML against this site).
    pub fn with_framed_advertised(mut self, advertise: bool) -> SiteConfig {
        self.advertise_framed = advertise;
        self
    }

    /// Toggle Execution PR caching.
    pub fn with_cache(mut self, enabled: bool) -> SiteConfig {
        self.cache_enabled = enabled;
        self
    }

    /// Set the PR cache geometry of created Execution instances.
    pub fn with_cache_config(
        mut self,
        capacity: usize,
        policy: crate::prcache::CachePolicy,
    ) -> SiteConfig {
        self.cache_capacity = capacity;
        self.cache_policy = policy;
        self
    }
}

/// A deployed PPerfGrid site.
pub struct Site {
    /// Site name.
    pub name: String,
    /// Handle of the Application factory (what gets published).
    pub app_factory: Gsh,
    /// Handles of the Execution factories (one per replica container).
    pub exec_factories: Vec<Gsh>,
    /// Handle of the Manager service.
    pub manager_gsh: Gsh,
    /// The manager itself (for in-process composition and stats).
    pub manager: Arc<Manager>,
}

impl Site {
    /// Deploy a site whose Application and Execution factories live in one
    /// container.
    pub fn deploy(
        container: &Container,
        client: Arc<HttpClient>,
        wrapper: Arc<dyn ApplicationWrapper>,
        config: &SiteConfig,
    ) -> Result<Site, OgsiError> {
        Site::deploy_replicated(
            container,
            &[(container, Arc::clone(&wrapper))],
            client,
            config,
        )
    }

    /// Deploy a site with replicated data: the Application factory and the
    /// Manager live in the *primary* (first) container; each `(container,
    /// wrapper)` pair hosts an Execution factory over its replica of the
    /// data. The Manager interleaves Execution instance creation across the
    /// replica factories (thesis §5.3.1.4, §6.5).
    pub fn deploy_replicated(
        primary: &Container,
        replicas: &[(&Container, Arc<dyn ApplicationWrapper>)],
        client: Arc<HttpClient>,
        config: &SiteConfig,
    ) -> Result<Site, OgsiError> {
        assert!(!replicas.is_empty(), "need at least one replica");
        let name = &config.name;
        let mut exec_factories = Vec::with_capacity(replicas.len());
        for (container, wrapper) in replicas {
            let factory = ExecutionFactory::new(Arc::clone(wrapper))
                .with_cache_default(config.cache_enabled)
                .with_cache_config(config.cache_capacity, config.cache_policy);
            let gsh = container.deploy_factory(&format!("{name}-exec"), Arc::new(factory))?;
            exec_factories.push(gsh);
        }
        let manager = Manager::new(Arc::clone(&client), exec_factories.clone());
        let manager_gsh = primary.deploy_service(
            &format!("{name}-manager"),
            Arc::new(ManagerService::new(Arc::clone(&manager))),
        )?;
        // Let Application instances advertise the manager handle as service
        // data, so federation clients can reach it for hedge replicas.
        manager.set_self_gsh(manager_gsh.clone());
        let app_wrapper = Arc::clone(&replicas[0].1);
        let app_factory = primary.deploy_factory(
            &format!("{name}-app"),
            Arc::new(
                ApplicationFactory::new(app_wrapper, Arc::clone(&manager))
                    .with_framed_advertised(config.advertise_framed),
            ),
        )?;
        Ok(Site {
            name: name.clone(),
            app_factory,
            exec_factories,
            manager_gsh,
            manager,
        })
    }

    /// Publish this site's Application factory in a registry under
    /// `organization` (which must already be registered).
    pub fn publish(
        &self,
        registry: &RegistryStub,
        organization: &str,
        description: &str,
    ) -> Result<(), OgsiError> {
        registry.register_service(&ServiceEntry {
            organization: organization.to_owned(),
            name: self.name.clone(),
            description: description.to_owned(),
            factory_url: self.app_factory.as_str().to_owned(),
        })
    }
}
