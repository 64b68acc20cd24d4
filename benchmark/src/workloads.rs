//! The five workloads: what each deploys, the operations it generates from
//! the seed, and the oracle every answer is checked against.
//!
//! Everything runs in one process over loopback HTTP with zero injected
//! latency: no fixture sets a scripted delay, a simulated statement round
//! trip, or a container service time (`guard.rs` enforces it).

use crate::rng::{Rng, Zipf};
use crate::spans;
use crate::stats::{fnv1a, fnv1a_from, RowSum};
use crate::wrappers::{BenchApp, BenchSpec, Layout, TracedApp};
use pperf_client::ExecutionQueryPanel;
use pperf_datastore::{HplSpec, HplStore, HplXmlStore, RmaSpec, RmaTextStore, SmgSpec, SmgStore};
use pperf_gateway::{FederatedGateway, FederatedQuery, FederatedResult, GatewayConfig};
use pperf_httpd::HttpClient;
use pperf_minidb::Database;
use pperf_ogsi::{Container, ContainerConfig, Gsh, RegistryService, RegistryStub};
use pperfgrid::wrappers::{HplSqlWrapper, HplXmlWrapper, RmaTextWrapper, SmgSqlWrapper};
use pperfgrid::{
    row_time_span, ApplicationWrapper, ExecutionStub, ExecutionWrapper, PrQuery, Site, SiteConfig,
    TYPE_UNDEFINED,
};
use ppg_context::CallContext;
use ppg_notify::{NotificationSource, TOPIC_CACHE_INVALIDATE};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A read may keep returning the previous row version for this long after
/// an update before it counts as stale.
pub const STALE_GRACE_NS: u64 = 100_000_000;

/// Final workload sizes (see `BENCHMARK.json` for why each was chosen).
pub mod sizes {
    /// SMG98 trace behind the `smg-sql` site: 8 × 8 × 125 = 8 000 events.
    /// The design's 32 000 made one SMG query 80 ms of an operation mix
    /// whose other kinds take 1–3 ms, and left the window at 1 200
    /// operations, under the 1 500 floor; at 8 000 it is 20 ms and 2 000.
    pub const SMG_EXECS: usize = 8;
    pub const SMG_PROCS: usize = 8;
    pub const SMG_EVENTS_PER_PROC: usize = 125;
    pub const SMG_FUNCTIONS: usize = 24;
    /// One block of the `hetero_fanout` mix, by store kind (0 HPL-SQL,
    /// 1 HPL-XML, 2 RMA-text, 3 SMG-SQL), dealt in seeded order. HPL-XML
    /// comes twice so that the median operation falls inside one kind's
    /// latency band (the 20th–60th percentile) instead of on the border
    /// between two, where it would flip with the smallest disturbance; p95
    /// falls inside SMG-SQL's band for the same reason.
    pub const HETERO_BLOCK: [usize; 5] = [0, 1, 1, 2, 3];
    /// `bulk_stream`: 8 executions × 8 foci × 128 rows = 8 192 rows/query.
    /// 16 384 ran at 100 queries/s on the one CPU a run is pinned to, so the
    /// design's 32 768 would leave 750 operations in a window, half the
    /// 1 500 floor; 8 192 runs at 200 and is still 110 KB of frames a query.
    pub const BULK_EXECS: usize = 8;
    pub const BULK_FOCI: usize = 8;
    pub const BULK_ROWS_PER_FOCUS: usize = 128;
    /// `percall_xml`: 16 executions × 4 rows.
    pub const TINY_EXECS: usize = 16;
    pub const TINY_ROWS: usize = 4;
    /// `windows_hot`: 16 series × 512 unit intervals.
    pub const HOT_EXECS: usize = 16;
    pub const HOT_SPANS: usize = 512;
    /// `windows_churn`: 64 series × 2 048 unit intervals, queried 2 at a
    /// time, one update every 20 operations. A series is read `19 × group`
    /// times between two of its invalidations, so the group size sets the
    /// hit rate: 8 at a time gave 0.78, 2 at a time gives 0.48 (the design
    /// calls for at most 0.6), 1 at a time 0.36.
    pub const CHURN_EXECS: usize = 64;
    pub const CHURN_SPANS: usize = 2048;
    pub const CHURN_GROUP: usize = 2;
    pub const UPDATE_EVERY: u64 = 20;
    /// Window widths and the grid their starts snap to.
    pub const WINDOW_WIDTHS: [usize; 3] = [8, 32, 128];
    pub const WINDOW_GRID: usize = 8;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HeteroFanout,
    BulkStream,
    PercallXml,
    WindowsHot,
    WindowsChurn,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::HeteroFanout,
        Workload::BulkStream,
        Workload::PercallXml,
        Workload::WindowsHot,
        Workload::WindowsChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HeteroFanout => "hetero_fanout",
            Workload::BulkStream => "bulk_stream",
            Workload::PercallXml => "percall_xml",
            Workload::WindowsHot => "windows_hot",
            Workload::WindowsChurn => "windows_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Final sizes and the reason the workload exists (`BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::HeteroFanout => {
                "Paper's core scenario: HPL-SQL, HPL-XML, RMA-text, SMG-SQL (8 000 events) on 2 \
                 containers, caches off, 1:2:1:1 mix of 8-32-execution queries; the mapping layer \
                 does most of the work"
            }
            Workload::BulkStream => {
                "One zero-cost site, 8 executions x 1 024 rows, caches off; every query pulls all \
                 8 192 rows over the negotiated PPGB route: row-block coding, chunked egress and \
                 gateway merge dominate"
            }
            Workload::PercallXml => {
                "Thesis baseline: 1 sequential client, ExecutionStub::get_pr per call on 16 \
                 executions of 4 rows, no gateway: xml, soap.codec, httpd round trip and container \
                 dispatch are the whole cost"
            }
            Workload::WindowsHot => {
                "Gateway cache holds the whole set (16 series x 512 unit rows); zipf windows of \
                 8/32/128 are all hits with zero upstream calls: gateway.plan and cache \
                 lookup/stitch are the whole cost"
            }
            Workload::WindowsChurn => {
                "64 series x 2 048 rows read 2 at a time, cache budget 1/2 of the set plus a spill \
                 dir, 1 op in 20 updates a series and pushes cache.invalidate: inserts, evictions, \
                 spill I/O beside reads"
            }
        }
    }

    /// Which layers the workload is built to load.
    pub fn stresses(self) -> &'static str {
        match self {
            Workload::HeteroFanout => "pperfgrid.wrapper + minidb + datastore (mapping layer)",
            Workload::BulkStream => "soap.wire row blocks + httpd chunked egress + gateway merge",
            Workload::PercallXml => "xml + soap.codec + httpd round trip + ogsi.container dispatch",
            Workload::WindowsHot => "gateway.plan + gateway.cache lookup/stitch",
            Workload::WindowsChurn => "gateway.cache insert/evict/spill + notify invalidation",
        }
    }
}

// ---------------------------------------------------------------- row shapes

fn bulk_row(exec: usize, focus: usize, row: usize, _version: u64) -> String {
    // Integer-microsecond `t=` spans, monotone per focus: the shape the PPGB
    // row-block coder packs column-wise.
    let start = (row as u64) * 1_000 + (exec as u64 * 7 + focus as u64 * 3) % 97;
    let end = start + 40 + (row as u64 * 13 + focus as u64) % 400;
    format!(
        "event_intervals|t={start}:{end}|/Process/{focus}|fn{:02}|{}",
        (row + exec) % 24,
        64 + (row * 31 + exec * 5) % 4096
    )
}

fn tiny_row(exec: usize, _focus: usize, row: usize, _version: u64) -> String {
    format!(
        "gflops|e{exec:03}|r{row}|{}.{:03}",
        3 + exec % 29,
        (row * 251 + exec * 17) % 1000
    )
}

fn window_row(exec: usize, _focus: usize, t: usize, _version: u64) -> String {
    format!(
        "gflops|t={t}:{}|e{exec:03}|{}.{:02}",
        t + 1,
        exec % 17,
        t % 100
    )
}

fn versioned_window_row(exec: usize, _focus: usize, t: usize, version: u64) -> String {
    format!(
        "gflops|t={t}:{}|v={version}|e{exec:03}|{}.{:02}",
        t + 1,
        exec % 17,
        t % 100
    )
}

/// Hash of a row with its `v=<n>` field (if any) left out, plus that
/// version: what stays the same across updates is compared against the
/// oracle, what changes is compared against the update history.
fn row_hash_and_version(row: &str) -> (u64, Option<u64>) {
    let Some(at) = row.find("|v=") else {
        return (fnv1a(row.as_bytes()), None);
    };
    let rest = &row[at + 3..];
    let end = rest.find('|').unwrap_or(rest.len());
    let version = rest[..end].parse().ok();
    (
        fnv1a_from(fnv1a(&row.as_bytes()[..at]), &rest.as_bytes()[end..]),
        version,
    )
}

/// The `e<nnn>` execution tag of a bench row.
fn row_exec(row: &str) -> Option<usize> {
    row.split('|')
        .find_map(|f| f.strip_prefix('e').filter(|d| d.len() == 3))
        .and_then(|d| d.parse().ok())
}

// ------------------------------------------------------------ mapping stores

/// The four heterogeneous stores of the paper's core scenario, built from
/// the fixed `*Spec` seeds (dataset contents never depend on `--seed`).
pub struct MappingStores {
    pub hpl_sql: Arc<dyn ApplicationWrapper>,
    pub hpl_xml: Arc<dyn ApplicationWrapper>,
    pub rma_text: Arc<dyn ApplicationWrapper>,
    pub smg_sql: Arc<dyn ApplicationWrapper>,
    pub hpl_db: Database,
    pub smg_db: Database,
}

impl MappingStores {
    /// File-backed stores are generated under `scratch` (inside the
    /// checkout; the caller removes it).
    pub fn build(scratch: &Path) -> MappingStores {
        let hpl = HplStore::build(HplSpec::default());
        let hpl_xml = HplXmlStore::generate(scratch.join("hpl-xml"), &HplSpec::default())
            .expect("generate HPL XML store");
        let rma = RmaTextStore::generate(scratch.join("rma-text"), &RmaSpec::default())
            .expect("generate RMA text store");
        let smg = SmgStore::build(SmgSpec {
            num_execs: sizes::SMG_EXECS,
            procs: sizes::SMG_PROCS,
            events_per_proc: sizes::SMG_EVENTS_PER_PROC,
            num_functions: sizes::SMG_FUNCTIONS,
            ..SmgSpec::default()
        });
        MappingStores {
            hpl_db: hpl.database().clone(),
            smg_db: smg.database().clone(),
            hpl_sql: Arc::new(HplSqlWrapper::new(hpl.database().clone())),
            hpl_xml: Arc::new(HplXmlWrapper::new(hpl_xml)),
            rma_text: Arc::new(RmaTextWrapper::new(rma)),
            smg_sql: Arc::new(SmgSqlWrapper::new(smg.database().clone())),
        }
    }

    /// `(rung-0 metric, wrapper, representative execution id, representative
    /// query)` per store kind — the thesis's Table 4 rows.
    pub fn representatives(
        &self,
    ) -> Vec<(&'static str, &Arc<dyn ApplicationWrapper>, String, PrQuery)> {
        let smg_focus = smg_function_foci(&self.smg_sql)
            .into_iter()
            .next()
            .expect("SMG store has function foci");
        vec![
            (
                "pperfgrid.wrapper.get_pr_us.hpl_sql",
                &self.hpl_sql,
                "100".into(),
                pr("gflops", &["/Execution"]),
            ),
            (
                "pperfgrid.wrapper.get_pr_us.hpl_xml",
                &self.hpl_xml,
                "100".into(),
                pr("gflops", &["/Execution"]),
            ),
            (
                "pperfgrid.wrapper.get_pr_us.rma_text",
                &self.rma_text,
                "0".into(),
                pr("bandwidth_mbps", &["/Op/unidir"]),
            ),
            (
                "pperfgrid.wrapper.get_pr_us.smg_sql",
                &self.smg_sql,
                "0".into(),
                pr("func_calls", &[smg_focus.as_str()]),
            ),
        ]
    }
}

pub fn pr(metric: &str, foci: &[&str]) -> PrQuery {
    PrQuery {
        metric: metric.into(),
        foci: foci.iter().map(|f| (*f).to_owned()).collect(),
        start: String::new(),
        end: String::new(),
        rtype: TYPE_UNDEFINED.into(),
    }
}

/// `/Code/<module>/<function>` foci of the SMG store, in wrapper order.
fn smg_function_foci(smg: &Arc<dyn ApplicationWrapper>) -> Vec<String> {
    let first = smg
        .all_exec_ids()
        .into_iter()
        .next()
        .expect("SMG store has executions");
    smg.execution(&first)
        .expect("open SMG execution")
        .foci()
        .into_iter()
        .filter(|f| f.starts_with("/Code/") && f.matches('/').count() == 3)
        .collect()
}

// ------------------------------------------------------------------- fixture

/// The single-target query a workload's Table-4 ladder replays.
pub struct Representative {
    /// Store kind label (`hpl_sql`, …, `bench`).
    pub kind: &'static str,
    /// The execution's wrapper, in-process and untraced (rung 0).
    pub wrapper: Arc<dyn ExecutionWrapper>,
    pub exec_id: String,
    pub pr: PrQuery,
    /// Federated form hitting exactly that execution (rung 3).
    pub single: FederatedQuery,
    /// The workload's full fan-out form, and the same restricted with
    /// `FederatedQuery::sites` to each site it spans.
    pub full: FederatedQuery,
    pub per_site: Vec<FederatedQuery>,
}

pub struct Hetero {
    /// `(query, expected answer)` per shape: HPL-SQL, HPL-XML, RMA-text,
    /// SMG-SQL.
    catalog: [Vec<(FederatedQuery, RowSum)>; 4],
    pub stores: MappingStores,
}

pub struct Bulk {
    foci: Vec<String>,
    expect: RowSum,
}

pub struct Percall {
    pub panel: ExecutionQueryPanel,
    /// Expected answer of each panel execution, in panel order.
    expect: Vec<RowSum>,
    query: PrQuery,
}

pub struct Windows {
    pub app: Arc<BenchApp>,
    spans: usize,
    group_size: usize,
    /// `prefix[g][t]`: checksum of every row with index `< t` across the
    /// executions of group `g` (version field excluded).
    prefix: Vec<Vec<RowSum>>,
    /// Cache budget the gateway runs with.
    pub cache_budget: usize,
    pub spill_dir: Option<PathBuf>,
    /// `windows_churn`: rows are versioned and 1 operation in 20 updates.
    pub churn: bool,
    /// The site container's push source, and the instance path of each
    /// execution's service by execution index — the payload a
    /// `cache.invalidate` event carries.
    notify: Arc<NotificationSource>,
    paths: Vec<String>,
    /// Events the gateway's sinks will have counted once everything
    /// published so far has reached them.
    published: AtomicU64,
}

pub enum Kind {
    Hetero(Hetero),
    Bulk(Bulk),
    Percall(Percall),
    Windows(Windows),
}

/// One deployed workload: registry + sites + gateway + client handles.
pub struct Fixture {
    pub workload: Workload,
    /// The HTTP client every measured call goes through (its payload
    /// counters are the wire-bytes metric).
    pub client: Arc<HttpClient>,
    pub gateway: Option<Arc<FederatedGateway>>,
    pub kind: Kind,
    pub rep: Representative,
    containers: Vec<Arc<Container>>,
    scratch: PathBuf,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        // Gateway first (its push subscriptions hold site connections),
        // then the containers, then anything written to disk.
        self.gateway = None;
        for container in &self.containers {
            container.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh_scratch(out_dir: &Path) -> PathBuf {
    let dir = out_dir.join(format!(
        "scratch-{}-{}",
        std::process::id(),
        SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

fn start_container() -> Arc<Container> {
    let config = ContainerConfig::default();
    assert!(
        config.injected_latency.is_none(),
        "zero-sleep guard: container config injects latency"
    );
    Container::start("127.0.0.1:0", config).expect("start container")
}

struct Grid {
    client: Arc<HttpClient>,
    containers: Vec<Arc<Container>>,
    registry: Gsh,
    stub: RegistryStub,
}

impl Grid {
    fn start(containers: usize) -> Grid {
        let client = Arc::new(HttpClient::new());
        let containers: Vec<Arc<Container>> = (0..containers).map(|_| start_container()).collect();
        let registry = containers[0]
            .deploy_service("registry", Arc::new(RegistryService::new()))
            .expect("deploy registry");
        let stub = RegistryStub::bind(Arc::clone(&client), &registry);
        Grid {
            client,
            containers,
            registry,
            stub,
        }
    }

    /// Deploy and publish one site with its Execution PR cache off, so the
    /// gateway's cache (when on) is the only cache in play.
    fn publish(
        &self,
        container: usize,
        org: &str,
        name: &str,
        wrapper: Arc<dyn ApplicationWrapper>,
        traced: bool,
    ) {
        let wrapper = if traced {
            TracedApp::wrap(wrapper)
        } else {
            wrapper
        };
        let site = Site::deploy(
            &self.containers[container],
            Arc::clone(&self.client),
            wrapper,
            &SiteConfig::new(name).with_cache(false),
        )
        .expect("deploy site");
        // Registering an organization twice is harmless; ignore the refusal.
        let _ = self.stub.register_organization(org, "benchmark");
        site.publish(&self.stub, org, name).expect("publish site");
    }

    fn gateway(&self, config: GatewayConfig) -> Arc<FederatedGateway> {
        FederatedGateway::new(Arc::clone(&self.client), self.registry.clone(), config)
    }
}

/// Execution instance handles a query plans to, in plan order.
pub fn planned_handles(gateway: &FederatedGateway, query: &FederatedQuery) -> Vec<Gsh> {
    let plan = gateway.planner().plan(query);
    assert!(plan.errors.is_empty(), "planning failed: {:?}", plan.errors);
    plan.sites
        .iter()
        .flat_map(|site| site.targets.iter().map(|t| t.primary.clone()))
        .collect()
}

fn bench_rep(
    app: &Arc<BenchApp>,
    site: &str,
    query: PrQuery,
    full: FederatedQuery,
) -> Representative {
    let exec = &app.execs[0];
    let as_federated = |pr: &PrQuery| {
        FederatedQuery::new(pr.metric.clone(), pr.foci.clone())
            .over(pr.start.clone(), pr.end.clone())
    };
    Representative {
        kind: "bench",
        wrapper: Arc::clone(exec) as Arc<dyn ExecutionWrapper>,
        exec_id: exec.id(),
        single: as_federated(&query).matching("runid", "0"),
        per_site: vec![full.clone().sites(site)],
        full,
        pr: query,
    }
}

impl Fixture {
    /// Build stores, start containers, publish, bind and prime — everything
    /// `setup_s` covers. `traced` deploys the span-recording wrapper
    /// decorator in front of every site.
    pub fn deploy(workload: Workload, out_dir: &Path, traced: bool) -> Fixture {
        let scratch = fresh_scratch(out_dir);
        match workload {
            Workload::HeteroFanout => deploy_hetero(scratch, traced),
            Workload::BulkStream => deploy_bulk(scratch, traced),
            Workload::PercallXml => deploy_percall(scratch, traced),
            Workload::WindowsHot => deploy_windows(scratch, traced, false),
            Workload::WindowsChurn => deploy_windows(scratch, traced, true),
        }
    }

    pub fn gateway(&self) -> &Arc<FederatedGateway> {
        self.gateway.as_ref().expect("workload has a gateway")
    }

    /// Generator of this workload's operations.
    pub fn op_gen(&self, seed: u64) -> OpGen {
        let mut layout_rng = Rng::new(seed, 0x7a69_7066);
        let zipf = match &self.kind {
            Kind::Windows(w) => Some(Zipf::new(w.spans / sizes::WINDOW_GRID, &mut layout_rng)),
            _ => None,
        };
        OpGen {
            rng: Rng::new(seed, 1),
            zipf,
            cycle: Vec::new(),
            decks: Default::default(),
            issued: 0,
        }
    }

    pub fn next_op(&self, gen: &mut OpGen) -> Op {
        gen.issued += 1;
        match &self.kind {
            Kind::Hetero(h) => {
                // Stratified mix: every block of four operations holds each
                // store kind once, in seeded order.
                if gen.cycle.is_empty() {
                    gen.cycle = sizes::HETERO_BLOCK.to_vec();
                    gen.rng.shuffle(&mut gen.cycle);
                }
                let shape = gen.cycle.pop().expect("cycle refilled");
                // Within a shape, deal the catalog like a deck: every seed
                // issues the same queries equally often, in its own order.
                let entries = &h.catalog[shape];
                if gen.decks[shape].is_empty() {
                    gen.decks[shape] = (0..entries.len()).collect();
                    gen.rng.shuffle(&mut gen.decks[shape]);
                }
                let (query, expect) = &entries[gen.decks[shape].pop().expect("deck refilled")];
                Op::Federated {
                    query: query.clone(),
                    expect: *expect,
                }
            }
            Kind::Bulk(b) => {
                // Same rows every time, foci in seeded order.
                let mut foci = b.foci.clone();
                gen.rng.shuffle(&mut foci);
                Op::Federated {
                    query: FederatedQuery::new("event_intervals", foci),
                    expect: b.expect,
                }
            }
            Kind::Percall(p) => Op::Percall {
                stub: gen.rng.below(p.expect.len()),
            },
            Kind::Windows(w) => {
                let group = gen.rng.below(w.groups());
                if w.churn && gen.issued.is_multiple_of(sizes::UPDATE_EVERY) {
                    return Op::Update {
                        exec: group * w.group_size + gen.rng.below(w.group_size),
                    };
                }
                if gen.cycle.is_empty() {
                    gen.cycle = (0..sizes::WINDOW_WIDTHS.len()).collect();
                    gen.rng.shuffle(&mut gen.cycle);
                }
                let width = sizes::WINDOW_WIDTHS[gen.cycle.pop().expect("cycle refilled")];
                let slot = gen.zipf.as_ref().expect("window zipf").sample(&mut gen.rng);
                let start = (slot * sizes::WINDOW_GRID).min(w.spans - width);
                let mut query = FederatedQuery::new("gflops", vec!["/Execution".into()])
                    .over(start.to_string(), (start + width).to_string());
                if w.groups() > 1 {
                    query = query.matching("group", group.to_string());
                }
                Op::Federated {
                    expect: w.expected(group, start, start + width),
                    query,
                }
            }
        }
    }

    /// Execute one operation and check its answer. `query_id` is non-zero
    /// only in the traced run, where it also names the spans.
    pub fn run_op(&self, op: &Op, query_id: u64) -> OpOutcome {
        let tracing = query_id != 0 && spans::tracing();
        let op_span = if tracing { spans::next_id() } else { 0 };
        let (started, cpu_started) = (spans::now_ns(), spans::thread_cpu_ns());
        let cpu_spent = || spans::thread_cpu_ns() - cpu_started;
        let (finished, verdict) = match op {
            Op::Federated { query, expect } => {
                let gateway = self.gateway();
                let result = if tracing {
                    let ctx = CallContext::with_request_id(spans::request_id_for(query_id));
                    gateway.query_with_context(query, &ctx)
                } else {
                    gateway.query(query)
                };
                let finished = spans::now_ns();
                if tracing {
                    spans::record(
                        op_span,
                        query_id,
                        "gateway.query",
                        started,
                        finished,
                        cpu_spent(),
                    );
                }
                (finished, self.check_federated(&result, *expect, started))
            }
            Op::Percall { stub } => {
                let Kind::Percall(p) = &self.kind else {
                    unreachable!("per-call op outside percall_xml")
                };
                let exec = &p.panel.executions()[*stub];
                let rows = if tracing {
                    let ctx = CallContext::with_request_id(spans::request_id_for(query_id));
                    let _scope = ppg_context::scope(&ctx);
                    exec.get_pr(&p.query)
                } else {
                    exec.get_pr(&p.query)
                };
                let finished = spans::now_ns();
                if tracing {
                    spans::record(
                        op_span,
                        query_id,
                        "ogsi.stub.get_pr",
                        started,
                        finished,
                        cpu_spent(),
                    );
                }
                let verdict = match rows {
                    Ok(rows) if RowSum::of(&rows) == p.expect[*stub] => Ok(rows.len() as u64),
                    Ok(rows) => Err(format!(
                        "checksum mismatch: got {:?}, want {:?}",
                        RowSum::of(&rows),
                        p.expect[*stub]
                    )),
                    Err(e) => Err(format!("call failed: {e}")),
                };
                (finished, verdict)
            }
            Op::Update { exec } => {
                let Kind::Windows(w) = &self.kind else {
                    unreachable!("update op outside windows_churn")
                };
                w.app.execs[*exec].bump_version();
                let verdict = w.invalidate_and_wait(*exec, self.gateway()).map(|()| 0);
                let finished = spans::now_ns();
                if tracing {
                    spans::record(
                        op_span,
                        query_id,
                        "notify.invalidate",
                        started,
                        finished,
                        cpu_spent(),
                    );
                }
                (finished, verdict)
            }
        };
        if tracing {
            let now = spans::now_ns();
            spans::record_with_id(op_span, 0, query_id, "client.op", started, now, cpu_spent());
        }
        OpOutcome {
            started_ns: started,
            finished_ns: finished,
            verdict,
        }
    }

    /// Compare a federated answer with the in-process wrapper's: no site
    /// errors, nothing truncated, the same rows, and (versioned rows) no
    /// version older than the one installed before the grace period.
    fn check_federated(
        &self,
        result: &FederatedResult,
        expect: RowSum,
        started_ns: u64,
    ) -> Result<u64, String> {
        if let Some(error) = result.errors.first() {
            return Err(format!("site error: {error}"));
        }
        let mut got = RowSum::default();
        let mut min_versions: Vec<Option<u64>> = Vec::new();
        // Versioned rows hash with their `v=` field left out (the oracle
        // table is version-free) and are checked for staleness instead.
        let versioned_app = match &self.kind {
            Kind::Windows(w) if w.churn => Some(&w.app),
            _ => None,
        };
        for site_rows in &result.rows {
            if site_rows.truncated {
                return Err(format!("truncated answer from {}", site_rows.execution));
            }
            for row in site_rows.rows.iter() {
                let Some(app) = versioned_app else {
                    got.add_row(row);
                    continue;
                };
                let (hash, version) = row_hash_and_version(row);
                got.add(hash);
                let Some(version) = version else {
                    return Err(format!("row without a version: {row:?}"));
                };
                let Some(exec) = row_exec(row).filter(|e| *e < app.execs.len()) else {
                    return Err(format!("row without an execution tag: {row:?}"));
                };
                if min_versions.len() <= exec {
                    min_versions.resize(exec + 1, None);
                }
                let floor = *min_versions[exec].get_or_insert_with(|| {
                    app.execs[exec].min_version_at(started_ns, STALE_GRACE_NS)
                });
                if version < floor {
                    return Err(format!(
                        "stale read: {row:?} is older than version {floor}, installed more \
                         than 100 ms before the query started"
                    ));
                }
            }
        }
        if got != expect {
            return Err(format!("checksum mismatch: got {got:?}, want {expect:?}"));
        }
        Ok(got.rows)
    }

    /// Hash of the first `ops` operations the generator yields — the
    /// seed-determinism fingerprint.
    pub fn sequence_hash(&self, seed: u64, ops: usize) -> u64 {
        let mut gen = self.op_gen(seed);
        let mut h = crate::stats::FNV_OFFSET;
        for _ in 0..ops {
            h = fnv1a_from(h, self.next_op(&mut gen).describe().as_bytes());
            h = fnv1a_from(h, b"\n");
        }
        h
    }
}

impl Windows {
    /// Expected answer for window `[start, end]` over group `group`: unit
    /// row `t` spans `[t, t+1]`, so rows `start-1 ..= end` intersect it.
    fn expected(&self, group: usize, start: usize, end: usize) -> RowSum {
        let lo = start.saturating_sub(1);
        let hi = end.min(self.spans - 1) + 1;
        let (a, b) = (self.prefix[group][lo], self.prefix[group][hi]);
        RowSum {
            rows: b.rows - a.rows,
            hash: b.hash.wrapping_sub(a.hash),
        }
    }

    pub fn groups(&self) -> usize {
        self.prefix.len()
    }

    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Publish one `cache.invalidate` event; returns the count of events the
    /// gateway's sinks will have received once it has arrived.
    fn publish(&self, payload: &str) -> Result<u64, String> {
        match self.notify.publish(TOPIC_CACHE_INVALIDATE, payload) {
            0 => Err("cache.invalidate reached no subscriber".to_owned()),
            reached => {
                Ok(self.published.fetch_add(reached as u64, Ordering::SeqCst) + reached as u64)
            }
        }
    }

    /// Publish `cache.invalidate` for one execution's service instance
    /// without waiting for anyone to act on it.
    pub fn publish_invalidate(&self, exec: usize) -> Result<u64, String> {
        self.publish(&self.paths[exec])
    }

    /// Publish `cache.invalidate` for `exec` and return once `gateway` has
    /// acted on it, so that no read is in flight on a series while its
    /// update and invalidation are — the one interleaving whose answer (old
    /// cached rows stitched to new ones) has no single right value to check
    /// against. The push plane has no acknowledgement, so a *fence* follows
    /// the event — a second event naming no instance. A sink handles events
    /// one at a time in publication order, so once its counter has reached
    /// the fence the event before it is done with.
    pub fn invalidate_and_wait(
        &self,
        exec: usize,
        gateway: &FederatedGateway,
    ) -> Result<(), String> {
        self.publish_invalidate(exec)?;
        let target = self.publish("/benchmark/fence")?;
        let started = Instant::now();
        while gateway.snapshot().notify_events < target {
            if started.elapsed() > Duration::from_secs(5) {
                return Err("cache.invalidate not handled within 5 s".to_owned());
            }
            std::thread::yield_now();
        }
        Ok(())
    }
}

/// Operation generator state.
pub struct OpGen {
    rng: Rng,
    zipf: Option<Zipf>,
    /// Store kinds (`hetero_fanout`) or window widths still to come in the
    /// current block.
    cycle: Vec<usize>,
    /// Per store kind, catalog entries still to come (`hetero_fanout`).
    decks: [Vec<usize>; 4],
    issued: u64,
}

// Nearly every operation is `Federated`; boxing its query to even out the
// variants would put an allocation into the timed loop.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Op {
    Federated {
        query: FederatedQuery,
        expect: RowSum,
    },
    Percall {
        stub: usize,
    },
    Update {
        exec: usize,
    },
}

impl Op {
    /// One line naming the operation — printed with every failure and
    /// hashed for the determinism fingerprint.
    pub fn describe(&self) -> String {
        match self {
            Op::Federated { query, .. } => format!(
                "query {} {:?} [{}, {}] selector={:?} sites={:?}",
                query.metric,
                query.foci,
                query.start,
                query.end,
                query.selector,
                query.site_pattern
            ),
            Op::Percall { stub } => format!("getPR on panel execution {stub}"),
            Op::Update { exec } => format!("update execution {exec} + cache.invalidate"),
        }
    }
}

pub struct OpOutcome {
    pub started_ns: u64,
    /// When the measured call returned (verification comes after).
    pub finished_ns: u64,
    /// Rows verified, or what was wrong.
    pub verdict: Result<u64, String>,
}

// ---------------------------------------------------------------- deployment

fn deploy_hetero(scratch: PathBuf, traced: bool) -> Fixture {
    let stores = MappingStores::build(&scratch);
    let grid = Grid::start(2);
    grid.publish(0, "PSU", "hpl-sql", Arc::clone(&stores.hpl_sql), traced);
    grid.publish(0, "PSU", "hpl-xml", Arc::clone(&stores.hpl_xml), traced);
    grid.publish(1, "LLNL", "rma-text", Arc::clone(&stores.rma_text), traced);
    grid.publish(1, "LLNL", "smg-sql", Arc::clone(&stores.smg_sql), traced);
    let gateway = grid.gateway(
        GatewayConfig::default()
            .with_cache(false)
            .with_hedging(None),
    );

    // The oracle: every distinct query's answer straight from the wrapper.
    let expect = |app: &Arc<dyn ApplicationWrapper>, ids: &[String], q: &PrQuery| {
        let mut sum = RowSum::default();
        for id in ids {
            let rows = app
                .execution(id)
                .and_then(|e| e.get_pr(q))
                .expect("oracle query against the in-process wrapper");
            sum.merge(RowSum::of(&rows));
        }
        sum
    };
    let mut catalog: [Vec<(FederatedQuery, RowSum)>; 4] = Default::default();
    for (shape, (site, app)) in [("hpl-sql", &stores.hpl_sql), ("hpl-xml", &stores.hpl_xml)]
        .into_iter()
        .enumerate()
    {
        let numprocs = app
            .exec_query_params()
            .into_iter()
            .find(|(name, _)| name == "numprocs")
            .map(|(_, values)| values)
            .unwrap_or_default();
        for value in numprocs {
            let ids = app
                .exec_ids_matching("numprocs", &value)
                .expect("HPL selector");
            if !(8..=32).contains(&ids.len()) {
                continue;
            }
            for metric in ["gflops", "runtimesec"] {
                let q = pr(metric, &["/Execution"]);
                catalog[shape].push((
                    FederatedQuery::new(metric, q.foci.clone())
                        .matching("numprocs", value.clone())
                        .sites(site),
                    expect(app, &ids, &q),
                ));
            }
        }
    }
    let rma_ids = stores.rma_text.all_exec_ids();
    for (metric, op) in [
        ("bandwidth_mbps", "unidir"),
        ("bandwidth_mbps", "bidir"),
        ("bandwidth_mbps", "put"),
        ("bandwidth_mbps", "get"),
        ("latency_us", "latency"),
    ] {
        let q = pr(metric, &[format!("/Op/{op}").as_str()]);
        catalog[2].push((
            FederatedQuery::new(metric, q.foci.clone()).sites("rma-text"),
            expect(&stores.rma_text, &rma_ids, &q),
        ));
    }
    let smg_ids = stores.smg_sql.all_exec_ids();
    for focus in smg_function_foci(&stores.smg_sql).iter().take(3) {
        for metric in ["func_calls", "func_time"] {
            let q = pr(metric, &[focus.as_str()]);
            catalog[3].push((
                FederatedQuery::new(metric, q.foci.clone()).sites("smg-sql"),
                expect(&stores.smg_sql, &smg_ids, &q),
            ));
        }
    }
    for (shape, entries) in catalog.iter().enumerate() {
        assert!(
            !entries.is_empty(),
            "hetero_fanout shape {shape} has no queries"
        );
    }

    let rep = Representative {
        kind: "hpl_sql",
        wrapper: stores.hpl_sql.execution("100").expect("HPL run 100"),
        exec_id: "100".into(),
        pr: pr("gflops", &["/Execution"]),
        single: FederatedQuery::new("gflops", vec!["/Execution".into()])
            .matching("runid", "100")
            .sites("hpl-sql"),
        // gflops is the one metric two heterogeneous stores share: the full
        // form spans both HPL sites.
        full: FederatedQuery::new("gflops", vec!["/Execution".into()])
            .matching("numprocs", "4")
            .sites("hpl-"),
        per_site: ["hpl-sql", "hpl-xml"]
            .into_iter()
            .map(|site| {
                FederatedQuery::new("gflops", vec!["/Execution".into()])
                    .matching("numprocs", "4")
                    .sites(site)
            })
            .collect(),
    };
    let fixture = Fixture {
        workload: Workload::HeteroFanout,
        client: grid.client,
        gateway: Some(gateway),
        kind: Kind::Hetero(Hetero { catalog, stores }),
        rep,
        containers: grid.containers,
        scratch,
    };
    // Prime: every distinct query once, so applications are bound, Execution
    // instances exist and the wire negotiation has settled.
    let Kind::Hetero(h) = &fixture.kind else {
        unreachable!()
    };
    for (query, expect) in h.catalog.iter().flatten() {
        let result = fixture.gateway().query(query);
        fixture
            .check_federated(&result, *expect, 0)
            .unwrap_or_else(|e| panic!("priming {query:?}: {e}"));
    }
    fixture
}

fn deploy_bulk(scratch: PathBuf, traced: bool) -> Fixture {
    let foci: Vec<String> = (0..sizes::BULK_FOCI)
        .map(|k| format!("/Process/{k}"))
        .collect();
    let app = BenchApp::build(&BenchSpec {
        name: "bulk",
        execs: sizes::BULK_EXECS,
        metric: "event_intervals",
        foci: foci.clone(),
        rows_per_focus: sizes::BULK_ROWS_PER_FOCUS,
        layout: Layout::Spans,
        group_size: 1,
        render: bulk_row,
        versioned: false,
    });
    let grid = Grid::start(1);
    grid.publish(
        0,
        "BULK",
        "bulk",
        Arc::clone(&app) as Arc<dyn ApplicationWrapper>,
        traced,
    );
    let gateway = grid.gateway(
        GatewayConfig::default()
            .with_cache(false)
            .with_hedging(None),
    );
    let all = PrQuery {
        foci: foci.clone(),
        ..pr("event_intervals", &[])
    };
    let mut expect = RowSum::default();
    for exec in &app.execs {
        expect.merge(RowSum::of(&exec.get_pr(&all).expect("oracle scan")));
    }
    let full = FederatedQuery::new("event_intervals", foci.clone());
    let fixture = Fixture {
        workload: Workload::BulkStream,
        client: grid.client,
        gateway: Some(gateway),
        rep: bench_rep(&app, "bulk", all, full.clone()),
        kind: Kind::Bulk(Bulk { foci, expect }),
        containers: grid.containers,
        scratch,
    };
    let primed = fixture.gateway().query(&full);
    fixture
        .check_federated(&primed, expect, 0)
        .unwrap_or_else(|e| panic!("priming bulk_stream: {e}"));
    fixture
}

/// `percall_xml`'s application: 16 executions of 4 opaque rows each.
pub fn tiny_app() -> Arc<BenchApp> {
    BenchApp::build(&BenchSpec {
        name: "tiny",
        execs: sizes::TINY_EXECS,
        metric: "gflops",
        foci: vec!["/Execution".into()],
        rows_per_focus: sizes::TINY_ROWS,
        layout: Layout::Opaque,
        group_size: 1,
        render: tiny_row,
        versioned: false,
    })
}

fn deploy_percall(scratch: PathBuf, traced: bool) -> Fixture {
    let app = tiny_app();
    let grid = Grid::start(1);
    grid.publish(
        0,
        "TINY",
        "tiny",
        Arc::clone(&app) as Arc<dyn ApplicationWrapper>,
        traced,
    );
    let query = pr("gflops", &["/Execution"]);
    let full = FederatedQuery::new("gflops", vec!["/Execution".into()]);
    // No gateway on the measured path: one is used here only to resolve the
    // Execution handles the panel binds to (and, in the traced run, for the
    // ladder's gateway rung).
    let gateway = grid.gateway(
        GatewayConfig::default()
            .with_cache(false)
            .with_hedging(None),
    );
    let handles = planned_handles(&gateway, &full);
    assert_eq!(handles.len(), sizes::TINY_EXECS, "percall_xml handles");
    let panel = ExecutionQueryPanel::open(Arc::clone(&grid.client), &handles);
    // Identify each bound execution by what it answers, then hold it to the
    // in-process wrapper's answer for that execution.
    let expect: Vec<RowSum> = panel
        .executions()
        .iter()
        .map(|stub| {
            let rows = stub.get_pr(&query).expect("priming percall_xml");
            let exec = rows
                .first()
                .and_then(|r| row_exec(r))
                .expect("tagged tiny row");
            let want = RowSum::of(&app.execs[exec].get_pr(&query).expect("oracle query"));
            assert_eq!(
                RowSum::of(&rows),
                want,
                "priming percall_xml execution {exec}"
            );
            want
        })
        .collect();
    Fixture {
        workload: Workload::PercallXml,
        client: grid.client,
        gateway: traced.then_some(gateway),
        rep: bench_rep(&app, "tiny", query.clone(), full),
        kind: Kind::Percall(Percall {
            panel,
            expect,
            query,
        }),
        containers: grid.containers,
        scratch,
    }
}

fn deploy_windows(scratch: PathBuf, traced: bool, churn: bool) -> Fixture {
    let (execs, spans, group_size) = if churn {
        (sizes::CHURN_EXECS, sizes::CHURN_SPANS, sizes::CHURN_GROUP)
    } else {
        (sizes::HOT_EXECS, sizes::HOT_SPANS, sizes::HOT_EXECS)
    };
    let app = BenchApp::build(&BenchSpec {
        name: if churn { "churn" } else { "hot" },
        execs,
        metric: "gflops",
        foci: vec!["/Execution".into()],
        rows_per_focus: spans,
        layout: Layout::UnitIntervals,
        group_size,
        render: if churn {
            versioned_window_row
        } else {
            window_row
        },
        versioned: churn,
    });
    let scan = pr("gflops", &["/Execution"]);
    // Oracle table: per-row hashes from a full in-process scan of every
    // execution, keyed by the row's own `t=` span, as prefix sums per group.
    let mut working_set = 0usize;
    let prefix: Vec<Vec<RowSum>> = app
        .execs
        .chunks(group_size)
        .map(|group| {
            let mut per_t = vec![RowSum::default(); spans];
            for exec in group {
                let rows = exec.get_pr(&scan).expect("oracle scan");
                working_set += 160 + rows.iter().map(|r| r.len() + 48).sum::<usize>();
                for row in &rows {
                    let (start, _) = row_time_span(row).expect("window rows carry t= spans");
                    per_t[start as usize].add(row_hash_and_version(row).0);
                }
            }
            let mut acc = RowSum::default();
            let mut prefix = Vec::with_capacity(spans + 1);
            prefix.push(acc);
            for sum in per_t {
                acc.merge(sum);
                prefix.push(acc);
            }
            prefix
        })
        .collect();

    let grid = Grid::start(1);
    let site = if churn { "churn" } else { "hot" };
    grid.publish(
        0,
        "WIN",
        site,
        Arc::clone(&app) as Arc<dyn ApplicationWrapper>,
        traced,
    );
    let spill_dir = churn.then(|| scratch.join("spill"));
    // Hot: the default budget holds the whole working set many times over.
    // Churn: half the working set. At the design's quarter every query
    // evicts and spills a segment; half the process's CPU was then ext4
    // create/write/unlink inside the kernel, and throughput swung between
    // 1 250 and 2 300 queries/s with the state of the filesystem. At a half
    // the cache still evicts and spills (some 20 times per 1 000 queries).
    let cache_budget = if churn {
        working_set / 2
    } else {
        GatewayConfig::default().cache_max_bytes
    };
    let mut config = GatewayConfig::default()
        .with_hedging(None)
        .with_cache_budget(cache_budget);
    if let Some(dir) = &spill_dir {
        config = config.with_cache_spill(dir);
    }
    let gateway = grid.gateway(config);
    let full = FederatedQuery::new("gflops", vec!["/Execution".into()]);
    let whole = full.clone().over("0", spans.to_string());

    // Which service instance serves which execution: ask each one.
    let mut paths = vec![String::new(); execs];
    for handle in &planned_handles(&gateway, &full) {
        let rows = ExecutionStub::bind(Arc::clone(&grid.client), handle)
            .get_pr(&PrQuery {
                start: "0".into(),
                end: "0".into(),
                ..scan.clone()
            })
            .expect("identify window execution");
        let exec = rows
            .first()
            .and_then(|r| row_exec(r))
            .expect("tagged window row");
        paths[exec] = handle.path();
    }
    assert!(
        paths.iter().all(|p| !p.is_empty()),
        "every execution resolved"
    );
    let notify = Arc::clone(
        grid.containers[0]
            .notification_source()
            .expect("site container speaks the push plane"),
    );

    let events_before = gateway.snapshot().notify_events;
    let rep_window = PrQuery {
        start: "64".into(),
        end: "96".into(),
        ..scan
    };
    let rep_full = full.clone().over("64", "96");
    let mut rep = bench_rep(&app, site, rep_window, rep_full);
    if churn {
        rep.full = rep.full.matching("group", "0");
        rep.per_site = vec![rep.full.clone().sites(site)];
    }
    let fixture = Fixture {
        workload: if churn {
            Workload::WindowsChurn
        } else {
            Workload::WindowsHot
        },
        client: grid.client,
        gateway: Some(gateway),
        rep,
        kind: Kind::Windows(Windows {
            app,
            spans,
            group_size,
            prefix,
            cache_budget,
            spill_dir,
            churn,
            notify,
            paths,
            published: AtomicU64::new(events_before),
        }),
        containers: grid.containers,
        scratch,
    };
    // Prime with a scan of everything, a group at a time (one scan of all
    // 131 072 `windows_churn` rows held six copies of them at once and set
    // the process's peak memory): on `windows_hot` that is the whole working
    // set, cached; on `windows_churn` it overflows the budget and starts the
    // evict/spill cycle the window then sustains.
    let Kind::Windows(w) = &fixture.kind else {
        unreachable!()
    };
    for group in 0..w.groups() {
        let mut scan = whole.clone();
        if w.groups() > 1 {
            scan = scan.matching("group", group.to_string());
        }
        let primed = fixture.gateway().query(&scan);
        fixture
            .check_federated(&primed, w.expected(group, 0, spans), 0)
            .unwrap_or_else(|e| panic!("priming {}: {e}", fixture.workload.name()));
    }
    fixture
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out_dir() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }

    #[test]
    fn versioned_rows_hash_alike_across_versions() {
        let (h0, v0) = row_hash_and_version(&versioned_window_row(5, 0, 9, 0));
        let (h7, v7) = row_hash_and_version(&versioned_window_row(5, 0, 9, 7));
        assert_eq!(h0, h7);
        assert_eq!((v0, v7), (Some(0), Some(7)));
        let (other, _) = row_hash_and_version(&versioned_window_row(5, 0, 10, 0));
        assert_ne!(h0, other);
        assert_eq!(row_hash_and_version("plain|row").1, None);
        assert_eq!(row_exec(&versioned_window_row(42, 0, 1, 3)), Some(42));
        assert_eq!(row_exec(&tiny_row(7, 0, 1, 0)), Some(7));
    }

    #[test]
    fn same_seed_same_operations_other_seed_other_operations() {
        for workload in [Workload::PercallXml, Workload::WindowsHot] {
            let fixture = Fixture::deploy(workload, &out_dir(), false);
            let a = fixture.sequence_hash(11, 200);
            let b = fixture.sequence_hash(11, 200);
            let c = fixture.sequence_hash(12, 200);
            assert_eq!(a, b, "{}: same seed", workload.name());
            assert_ne!(a, c, "{}: different seed", workload.name());
        }
    }

    #[test]
    fn window_oracle_matches_the_wrapper() {
        let fixture = Fixture::deploy(Workload::WindowsHot, &out_dir(), false);
        let Kind::Windows(w) = &fixture.kind else {
            unreachable!()
        };
        for (start, end) in [(0, 8), (5, 37), (504, 512), (0, 512)] {
            let mut want = RowSum::default();
            for exec in &w.app.execs {
                let rows = exec
                    .get_pr(&PrQuery {
                        start: start.to_string(),
                        end: end.to_string(),
                        ..pr("gflops", &["/Execution"])
                    })
                    .unwrap();
                want.merge(RowSum::of(&rows));
            }
            assert_eq!(w.expected(0, start, end), want, "window [{start}, {end}]");
        }
    }

    #[test]
    fn a_wrong_answer_is_caught() {
        let fixture = Fixture::deploy(Workload::WindowsHot, &out_dir(), false);
        let mut gen = fixture.op_gen(1);
        let Op::Federated { query, expect, .. } = fixture.next_op(&mut gen) else {
            panic!("windows_hot generates federated queries")
        };
        let good = Op::Federated {
            query: query.clone(),
            expect,
        };
        assert!(fixture.run_op(&good, 0).verdict.is_ok());
        let bad = Op::Federated {
            query,
            expect: RowSum {
                rows: expect.rows,
                hash: expect.hash ^ 1,
            },
        };
        assert!(fixture.run_op(&bad, 0).verdict.is_err());
    }
}
