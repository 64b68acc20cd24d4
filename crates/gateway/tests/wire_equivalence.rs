//! Wire-equivalence oracle: whatever route a site's answers travel, the
//! gateway returns exactly the rows the in-process wrapper produces.
//!
//! A seeded generator builds small fleets — one to four sites, one or two
//! containers per site, one to five Execution instances, `t=`-marked
//! (interval) or opaque rows, one or two metrics and foci — and assigns
//! every site one route. Each fleet then answers a fixed script of queries
//! through one caching gateway: single and multi-foci, with and without
//! `extra_metrics`, over windows that miss the segment cache, hit it
//! exactly, hit it by range, and partially overlap it. Every answer is
//! compared per site against the wrapper's own `get_pr` over the same
//! tuples: sorted rows and a checksum of them.
//!
//! Routes: the framed PPGB stream (the site advertises it), per-call
//! SOAP/XML (the site does not), and the downgrade from a site that
//! advertises the framed route but whose container answers it with 404.

use pperf_gateway::{FederatedGateway, FederatedQuery, FederatedResult, GatewayConfig};
use pperf_httpd::HttpClient;
use pperf_ogsi::{Container, ContainerConfig, Gsh, RegistryService, RegistryStub};
use pperf_soap::force_xml;
use pperfgrid::wrappers::{MemApplicationWrapper, MemExecution};
use pperfgrid::{ApplicationWrapper, ExecutionWrapper, PrQuery, Site, SiteConfig};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// How a site's `getPR` answers travel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// Advertised and served: one framed PPGB exchange per host.
    Framed,
    /// Not advertised: one SOAP/XML call per target.
    PerCallXml,
    /// Advertised, but the container 404s the framed route: one downgrade,
    /// then per-call XML.
    StaleFramed,
}

const ROUTES: [Route; 3] = [Route::Framed, Route::PerCallXml, Route::StaleFramed];

/// A deterministic xorshift generator (the fleets must be reproducible from
/// the seed printed in a failure).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

const METRICS: [&str; 2] = ["gflops", "mflops"];
const FOCI: [&str; 2] = ["/Execution", "/Process/0"];

/// One generated site: its route, its executions (kept for the in-process
/// oracle), and how many containers host its instances.
struct SiteSpec {
    name: String,
    route: Route,
    containers: usize,
    execs: Vec<(String, MemExecution)>,
}

fn gen_site(rng: &mut Rng, index: usize, route: Route) -> SiteSpec {
    let marked = rng.below(3) != 0;
    let execs = (0..rng.range(1, 5))
        .map(|e| {
            let id = format!("s{index}-e{e}");
            let mut exec = MemExecution {
                info: vec![("runid".into(), e.to_string())],
                foci: FOCI.iter().map(|f| (*f).to_owned()).collect(),
                metrics: METRICS.iter().map(|m| (*m).to_owned()).collect(),
                types: vec!["MEM".into()],
                time: ("0".into(), "100".into()),
                ..Default::default()
            };
            for metric in METRICS {
                for focus in FOCI {
                    let rows = (0..rng.below(7))
                        .map(|r| {
                            if marked {
                                let start = 10 * r + rng.below(5);
                                let end = start + rng.range(1, 12);
                                format!("{metric}|{id}|{focus}|t={start}:{end}|v={r}")
                            } else {
                                format!("{metric}|{id}|{focus}|row={r}")
                            }
                        })
                        .collect();
                    exec.results
                        .insert((metric.to_owned(), focus.to_owned()), rows);
                }
            }
            (id, exec)
        })
        .collect();
    SiteSpec {
        name: format!("site{index}"),
        route,
        containers: rng.range(1, 2) as usize,
        execs,
    }
}

fn container_for(route: Route) -> Arc<Container> {
    let config = match route {
        Route::StaleFramed => ContainerConfig {
            streaming_enabled: false,
            ..ContainerConfig::default()
        },
        Route::Framed | Route::PerCallXml => ContainerConfig::default(),
    };
    Container::start("127.0.0.1:0", config).unwrap()
}

fn site_config(spec: &SiteSpec) -> SiteConfig {
    SiteConfig::new(spec.name.clone())
        .with_cache(false)
        .with_framed_advertised(spec.route != Route::PerCallXml)
}

/// Deploy `spec` (replicated across its containers) and publish it.
fn deploy(
    client: &Arc<HttpClient>,
    registry: &Gsh,
    spec: &SiteSpec,
    keep: &mut Vec<Arc<Container>>,
) {
    let containers: Vec<Arc<Container>> = (0..spec.containers)
        .map(|_| container_for(spec.route))
        .collect();
    let replicas: Vec<(&Container, Arc<dyn ApplicationWrapper>)> = containers
        .iter()
        .map(|c| {
            let app = MemApplicationWrapper::new(vec![("name", "MemApp")]);
            for (id, exec) in &spec.execs {
                app.add_execution(id.clone(), exec.clone());
            }
            (&**c, Arc::new(app) as Arc<dyn ApplicationWrapper>)
        })
        .collect();
    let site = Site::deploy_replicated(
        &containers[0],
        &replicas,
        Arc::clone(client),
        &site_config(spec),
    )
    .unwrap();
    let stub = RegistryStub::bind(Arc::clone(client), registry);
    let org = spec.name.to_uppercase();
    stub.register_organization(&org, "generated").unwrap();
    site.publish(&stub, &org, "generated store").unwrap();
    keep.extend(containers);
}

/// The fixed query script: each step names its window so the cache sees a
/// miss, an exact repeat, a contained (range) window, a partial overlap, and
/// a disjoint miss — for single and multi-foci tuples, with and without an
/// extra metric.
fn script() -> Vec<FederatedQuery> {
    let windows = [
        ("0", "40"),
        ("0", "40"),
        ("10", "25"),
        ("20", "70"),
        ("80", "95"),
    ];
    let mut queries = Vec::new();
    for (i, (start, end)) in windows.into_iter().enumerate() {
        let foci: Vec<String> = if i % 2 == 0 {
            vec![FOCI[0].to_owned()]
        } else {
            FOCI.iter().map(|f| (*f).to_owned()).collect()
        };
        let mut query = FederatedQuery::new(METRICS[0], foci).over(start, end);
        if i >= 3 {
            query = query.also_metric(METRICS[1]);
        }
        queries.push(query);
    }
    queries.push(FederatedQuery::new(METRICS[1], vec![FOCI[1].to_owned()]));
    queries
}

/// FNV-1a over the rows in order, a length word ahead of each row.
fn checksum(rows: &[String]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for row in rows {
        for byte in (row.len() as u64)
            .to_le_bytes()
            .iter()
            .chain(row.as_bytes())
        {
            hash = (hash ^ u64::from(*byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// What the in-process wrappers answer for `query`, per site label, sorted.
fn oracle(specs: &[SiteSpec], query: &FederatedQuery) -> BTreeMap<String, Vec<String>> {
    let mut by_site = BTreeMap::new();
    for spec in specs {
        let mut rows = Vec::new();
        for (_, exec) in &spec.execs {
            for pr in query.pr_queries() {
                rows.extend(exec.get_pr(&pr).unwrap());
            }
        }
        rows.sort();
        by_site.insert(format!("{}/{}", spec.name.to_uppercase(), spec.name), rows);
    }
    by_site
}

fn answered(result: &FederatedResult) -> BTreeMap<String, Vec<String>> {
    let mut by_site: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for site_rows in &result.rows {
        by_site
            .entry(site_rows.site.clone())
            .or_default()
            .extend(site_rows.rows.iter().cloned());
    }
    for rows in by_site.values_mut() {
        rows.sort();
    }
    by_site
}

/// Build fleet `seed` from `routes` (one per site), run the script through
/// one caching gateway, and check every answer against the wrappers.
fn check_fleet(seed: u64, routes: &[Route]) {
    let mut rng = Rng::new(seed);
    let client = Arc::new(HttpClient::new());
    let registry_host = Container::start("127.0.0.1:0", ContainerConfig::default()).unwrap();
    let registry = registry_host
        .deploy_service("registry", Arc::new(RegistryService::new()))
        .unwrap();
    let specs: Vec<SiteSpec> = (routes.iter().enumerate())
        .map(|(i, route)| gen_site(&mut rng, i, *route))
        .collect();
    let mut containers = Vec::new();
    for spec in &specs {
        deploy(&client, &registry, spec, &mut containers);
    }
    let gateway = FederatedGateway::new(
        Arc::clone(&client),
        registry.clone(),
        GatewayConfig::default()
            .with_hedging(None)
            .with_notifications(false)
            .with_call_timeout(Duration::from_secs(10)),
    );
    for (step, query) in script().iter().enumerate() {
        let result = gateway.query(query);
        let context = format!("seed {seed}, routes {routes:?}, step {step}, {query:?}");
        assert!(result.errors.is_empty(), "{context}: {:?}", result.errors);
        assert!(result.rows.iter().all(|r| !r.truncated), "{context}");
        let expected = oracle(&specs, query);
        let got = answered(&result);
        for (site, rows) in &expected {
            let got_rows = got.get(site).map_or(&[][..], Vec::as_slice);
            assert_eq!(got_rows, rows.as_slice(), "{context}: rows of {site}");
            assert_eq!(checksum(got_rows), checksum(rows), "{context}: {site}");
        }
        assert!(
            got.keys().all(|site| expected.contains_key(site)),
            "{context}: {:?}",
            got.keys()
        );
    }
    // Each route really carried its sites' traffic.
    let snapshot = gateway.snapshot();
    let framed = routes.contains(&Route::Framed) && !force_xml();
    assert_eq!(snapshot.batch_streams > 0, framed, "{snapshot:?}");
    let stale = routes.contains(&Route::StaleFramed) && !force_xml();
    assert_eq!(
        snapshot.batch_stream_fallback_calls > 0,
        stale,
        "{snapshot:?}"
    );
    assert_eq!(
        snapshot.xml_calls > 0,
        force_xml() || routes.iter().any(|r| *r != Route::Framed),
        "{snapshot:?}"
    );
}

/// Every route on its own, over several generated fleets.
#[test]
fn every_route_returns_the_wrappers_rows() {
    for route in ROUTES {
        for seed in 1..=3 {
            let sites = 1 + (seed as usize % 2);
            check_fleet(seed * 31 + route as u64, &vec![route; sites]);
        }
    }
}

/// Mixed fleets: one to four sites, routes drawn from the seed.
#[test]
fn mixed_fleets_return_the_wrappers_rows() {
    for seed in 100..106u64 {
        let mut rng = Rng::new(seed);
        let routes: Vec<Route> = (0..rng.range(1, 4))
            .map(|_| ROUTES[rng.below(ROUTES.len() as u64) as usize])
            .collect();
        check_fleet(seed, &routes);
    }
}

/// The oracle side itself: a windowed tuple over marked rows returns just
/// the rows whose span meets the window (the property the cache relies on).
#[test]
fn oracle_windows_filter_marked_rows() {
    let mut rng = Rng::new(7);
    let spec = gen_site(&mut rng, 0, Route::Framed);
    let (_, exec) = &spec.execs[0];
    let pr = PrQuery {
        metric: METRICS[0].into(),
        foci: vec![FOCI[0].into()],
        start: "1000".into(),
        end: "2000".into(),
        rtype: String::new(),
    };
    let rows = exec.get_pr(&pr).unwrap();
    assert!(rows.iter().all(|r| !r.contains("|t=")), "{rows:?}");
}
