//! World builders: one per workload, from the product crates' public
//! API only.
//!
//! A world is everything a workload queries: a corpus and its web
//! engine (or a 4-shard fleet), tenants with catalogs, registered and
//! published applications, services and ad campaigns. Building one is
//! what `setup_s` times.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use symphony_ads::{Ad, AdServer, Keyword, MatchType};
use symphony_cluster::{ClusterWeb, Router};
use symphony_core::{
    AdmissionPolicy, AppBuilder, AppId, ApplicationConfig, DataSourceDef, Impression,
    MonetizationConfig, Platform, PlatformError, QueryResponse, QuotaConfig, SourceCacheConfig,
};
use symphony_designer::{template, Canvas, Element};
use symphony_services::{CallPolicy, LatencyModel, PricingService, SimulatedTransport};
use symphony_web::{Corpus, CorpusConfig, SearchConfig, SearchEngine, Topic, Vertical};

use crate::gen::{self, mix, LapStream, OpStream};

/// The five named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig.-2 page behind both cache levels, two clients.
    Storefront,
    /// Web-vertical pages with every cache off, one node.
    WebCold,
    /// The `web_cold` stream through a 4-shard router.
    ShardedWeb,
    /// Proprietary and hybrid sources over a 100 k-row catalog.
    HybridSweep,
    /// Crawl ingest, removal and maintenance beside web reads.
    LiveIngest,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::Storefront,
        Workload::WebCold,
        Workload::ShardedWeb,
        Workload::HybridSweep,
        Workload::LiveIngest,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Storefront => "storefront",
            Workload::WebCold => "web_cold",
            Workload::ShardedWeb => "sharded_web",
            Workload::HybridSweep => "hybrid_sweep",
            Workload::LiveIngest => "live_ingest",
        }
    }

    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop clients driving the workload.
    pub fn clients(self) -> usize {
        match self {
            Workload::Storefront => 2,
            _ => 1,
        }
    }

    /// Operations in one lap of one client: page views, or crawl
    /// cycles on `live_ingest`. A timed run is reduced lap by lap (see
    /// `stats`). Sized so that a lap takes one to two seconds on the
    /// 2-CPU container this was calibrated on (a 20-second run then
    /// holds ten laps or more) and holds enough of a randomly drawn
    /// stream that its 99th percentile does not wander with the seed.
    /// `live_ingest` had laps of 100 cycles first: ten runs then spread
    /// twice as wide on `p99_us`, which came out near 6 ms or near
    /// 7.5 ms depending on which seals fell into the best lap.
    pub fn lap_ops(self, scale: Scale) -> usize {
        let full = match self {
            Workload::Storefront => 2500,
            Workload::WebCold => 1000,
            Workload::ShardedWeb => 400,
            // Set by the vocabulary, at either scale.
            Workload::HybridSweep => return gen::HYBRID_QUERIES * (1 + HYBRID_CUTOFFS.len()),
            Workload::LiveIngest => 50,
        };
        match scale {
            Scale::Full => full,
            Scale::Smoke => full / 10,
        }
    }

    /// Whether the clients replay one fixed lap, which then costs the
    /// same work every time: one client, no cache, nothing written.
    /// Each operation has a time of its own there, measured once per
    /// lap. `storefront` draws every view afresh (a replayed lap would
    /// fit the L1 whole, and its entries would all expire together),
    /// and no crawl batch of `live_ingest` can come twice; their laps
    /// are just so many consecutive operations.
    pub fn replays_exactly(self) -> bool {
        matches!(
            self,
            Workload::WebCold | Workload::ShardedWeb | Workload::HybridSweep
        )
    }
}

/// How large the worlds are. `Smoke` is for self-tests and CI: the
/// same code paths over worlds a hundredth the size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the ledger's numbers are defined on.
    Full,
    /// Tiny worlds, seconds in total.
    Smoke,
}

/// The sizes of one workload's world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldSpec {
    /// Generic sites generated per topic.
    pub sites_per_topic: usize,
    /// Article pages per site.
    pub pages_per_site: usize,
    /// Product names in the shared pool (woven into the corpus as
    /// reviewed entities when `reviews` is set).
    pub names: usize,
    /// Whether the corpus carries review pages for every name.
    pub reviews: bool,
    /// Tenants, each with one catalog.
    pub tenants: usize,
    /// Rows per catalog.
    pub rows_per_tenant: usize,
    /// Size of the storefront query pool.
    pub query_pool: usize,
}

impl WorldSpec {
    /// The spec of `workload` at `scale`.
    pub fn of(workload: Workload, scale: Scale) -> WorldSpec {
        let full = match workload {
            Workload::Storefront => WorldSpec {
                sites_per_topic: 4,
                pages_per_site: 10,
                names: 1000,
                reviews: true,
                tenants: 8,
                rows_per_tenant: 2500,
                query_pool: STOREFRONT_QUERY_POOL,
            },
            Workload::WebCold | Workload::ShardedWeb | Workload::LiveIngest => WorldSpec {
                sites_per_topic: 65,
                pages_per_site: 50,
                names: 1000,
                reviews: false,
                tenants: 1,
                rows_per_tenant: 2500,
                query_pool: 0,
            },
            Workload::HybridSweep => WorldSpec {
                sites_per_topic: 1,
                pages_per_site: 2,
                names: 1000,
                reviews: false,
                tenants: 1,
                rows_per_tenant: 100_000,
                query_pool: 0,
            },
        };
        match scale {
            Scale::Full => full,
            Scale::Smoke => WorldSpec {
                sites_per_topic: (full.sites_per_topic / 10).max(1),
                pages_per_site: (full.pages_per_site / 5).max(2),
                names: 100,
                rows_per_tenant: (full.rows_per_tenant / 50).max(50),
                query_pool: full.query_pool / 10,
                ..full
            },
        }
    }
}

/// Storefront query-pool size, calibrated so `hosting.l1_hit_ratio`
/// lands in 0.70–0.80 with the L1 at its default capacity and TTL.
pub const STOREFRONT_QUERY_POOL: usize = 400;

/// Seed of the corpus the three web workloads search, whatever seed
/// the run was given; the run's seed draws their queries and crawl
/// pages. How well top-k pruning works depends on the link graph and
/// the score distribution the generator happens to draw: over ten
/// corpora of this size `web_cold`'s views per second and its 99th
/// percentile each differ by 8 % (standard deviation), while ten query
/// laps over one corpus differ by no more than ten runs of one lap do
/// (4 %). `storefront` and `hybrid_sweep` spend their time in the
/// catalogs, which follow the run's seed.
pub const WEB_CORPUS_SEED: u64 = 0x5359_4D50;

/// Shards behind the `sharded_web` router (and the fleet every traced
/// run builds over its corpus for the `cluster.*` probes).
pub const SHARDS: usize = 4;

/// Price cut-offs of the four hybrid apps: with prices uniform in
/// `0..1000` they select 0.1 %, 5 %, 20 % and 50 % of the catalog.
pub const HYBRID_CUTOFFS: [i64; 4] = [1, 50, 200, 500];

/// Domains the storefront's review vertical is restricted to.
pub const REVIEW_DOMAINS: [&str; 3] = ["gamespot.com", "ign.com", "teamxbox.com"];

/// One registered, published application.
#[derive(Debug, Clone)]
pub struct AppRef {
    /// Host-global id (what `Host::query` takes).
    pub id: AppId,
    /// Id on the home node (what that node's stats take).
    pub local: AppId,
    /// The configuration as the home platform holds it.
    pub config: ApplicationConfig,
    /// Index of the platform shard hosting it (0 on a single node).
    pub home: usize,
}

/// What serves the queries: one platform or a router over shards.
pub enum Host {
    /// One node.
    Single(Box<Platform>),
    /// A fleet behind a router.
    Sharded(Box<Router>),
}

impl Host {
    /// Serve one query.
    pub fn query(&self, app: AppId, query: &str) -> Result<Arc<QueryResponse>, PlatformError> {
        match self {
            Host::Single(p) => p.query(app, query),
            Host::Sharded(r) => r.query(app, query),
        }
    }

    /// Record one click.
    pub fn click(
        &self,
        app: AppId,
        query: &str,
        impression: &Impression,
    ) -> Result<Option<u32>, PlatformError> {
        match self {
            Host::Single(p) => p.click(app, query, impression),
            Host::Sharded(r) => r.click(app, query, impression),
        }
    }

    /// The platform node with index `shard` (0 on a single node).
    pub fn platform(&self, shard: usize) -> &Platform {
        match self {
            Host::Single(p) => p,
            Host::Sharded(r) => r.shard(shard),
        }
    }

    /// Every platform node.
    pub fn platforms(&self) -> Vec<&Platform> {
        match self {
            Host::Single(p) => vec![p],
            Host::Sharded(r) => (0..r.num_shards()).map(|i| r.shard(i)).collect(),
        }
    }

    /// The scatter-gather fleet, when sharded.
    pub fn cluster(&self) -> Option<&ClusterWeb> {
        match self {
            Host::Single(_) => None,
            Host::Sharded(r) => Some(r.cluster()),
        }
    }

    /// The single platform, mutably (live ingest).
    pub fn single_mut(&mut self) -> Option<&mut Platform> {
        match self {
            Host::Single(p) => Some(p),
            Host::Sharded(_) => None,
        }
    }
}

/// What a world holds, for reports and self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldCounts {
    /// Pages in the corpus (all verticals).
    pub pages: usize,
    /// Live documents in the web vertical.
    pub web_docs: usize,
    /// Tenants.
    pub tenants: usize,
    /// Rows in each tenant's catalog.
    pub rows_per_tenant: usize,
    /// Published applications.
    pub apps: usize,
}

/// A built world.
pub struct World {
    /// Which workload it serves.
    pub workload: Workload,
    /// The serving host.
    pub host: Host,
    /// Published apps, in the order op streams index them.
    pub apps: Vec<AppRef>,
    /// The shared product-name pool.
    pub names: Arc<Vec<String>>,
    /// The storefront query pool (empty elsewhere).
    pub query_pool: Arc<Vec<String>>,
    /// Sizes.
    pub counts: WorldCounts,
    /// The seed it was built from.
    pub seed: u64,
    /// The scale it was built at.
    pub scale: Scale,
}

/// Quotas for a benchmark host: no request quota (the limiter under
/// test is admission, and it is configured never to shed), room for
/// the largest catalog, L1 at its defaults or off.
fn quotas(l1: bool) -> QuotaConfig {
    QuotaConfig {
        requests_per_minute: u32::MAX,
        max_records_per_tenant: 1_000_000,
        cache_ttl_ms: if l1 {
            QuotaConfig::default().cache_ttl_ms
        } else {
            0
        },
        ..QuotaConfig::default()
    }
}

/// Generate the corpus of a spec (entities woven in when it asks for
/// review pages).
pub fn corpus(seed: u64, spec: &WorldSpec, names: &[String]) -> Corpus {
    let mut config = CorpusConfig {
        seed: mix(seed, 0x434F_5250),
        sites_per_topic: spec.sites_per_topic,
        pages_per_site: spec.pages_per_site,
        ..CorpusConfig::default()
    };
    if spec.reviews {
        config = config.with_entities(Topic::Games, names.iter().cloned());
    }
    Corpus::generate(&config)
}

/// Register the pricing endpoint: fast, jittered, never failing.
pub fn register_services(transport: &mut SimulatedTransport) {
    transport.register(
        "pricing",
        Box::new(PricingService),
        LatencyModel {
            base_ms: 5,
            jitter_ms: 5,
            failure_rate: 0.0,
        },
    );
}

/// Create the ad campaigns: broad-match bids on every catalog
/// category and on a slice of the name vocabulary, with budgets no run
/// can exhaust (an exhausted campaign would change pages mid-run).
pub fn add_campaigns(ads: &mut AdServer, seed: u64, names: &[String]) {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x4144_5321));
    let advertiser = ads.add_advertiser("ledger-ads");
    for (i, category) in gen::CATEGORIES.iter().enumerate() {
        ads.add_campaign(
            advertiser,
            &format!("category-{category}"),
            u32::MAX / 2,
            vec![Keyword::new(
                category,
                MatchType::Broad,
                rng.gen_range(20..80),
            )],
            Ad {
                title: format!("Top {category} deals"),
                display_url: format!("deals.example.com/{category}"),
                target_url: format!("http://deals.example.com/{category}?c={i}"),
                text: format!("Save on {category} titles this week"),
            },
            rng.gen_range(0.3..0.9),
        );
    }
    for name in names.iter().step_by(4) {
        let word = name
            .split(' ')
            .next()
            .expect("names have two words")
            .to_lowercase();
        ads.add_campaign(
            advertiser,
            &format!("name-{word}"),
            u32::MAX / 2,
            vec![Keyword::new(&word, MatchType::Broad, rng.gen_range(20..80))],
            Ad {
                title: format!("{name} — official store"),
                display_url: "store.example.com".into(),
                target_url: format!("http://store.example.com/{word}"),
                text: format!("Order {name} today"),
            },
            rng.gen_range(0.3..0.9),
        );
    }
}

fn pricing_source() -> DataSourceDef {
    DataSourceDef::Service {
        endpoint: "pricing".into(),
        operation: "/price".into(),
        item_param: "item".into(),
        policy: CallPolicy::default(),
    }
}

/// The paper's Fig.-2 page: catalog primary, review and pricing
/// supplementals per result, two ad slots.
fn storefront_app(i: usize, owner: symphony_store::TenantId) -> ApplicationConfig {
    let item = Element::column(vec![
        Element::text("{title}").with_class("result-title"),
        Element::text("{body}"),
        Element::result_list(
            "reviews",
            Element::column(vec![
                Element::link_field("url", "{title}"),
                Element::rich_text("{snippet}"),
            ]),
            3,
        ),
        Element::result_list("pricing", Element::text("${price}"), 1),
    ]);
    let mut canvas = Canvas::new();
    let root = canvas.root_id();
    canvas
        .insert(root, Element::search_box("Search the store…"))
        .expect("root accepts children");
    canvas
        .insert(root, Element::result_list("catalog", item, 10))
        .expect("root accepts children");
    canvas
        .insert(
            root,
            Element::result_list("sponsored", template::ad_layout(), 2),
        )
        .expect("root accepts children");
    AppBuilder::new(&format!("Store{i}"), owner)
        .layout(canvas)
        .source(
            "catalog",
            DataSourceDef::Proprietary {
                table: "catalog".into(),
            },
        )
        .source(
            "reviews",
            DataSourceDef::WebVertical {
                vertical: Vertical::Web,
                config: SearchConfig::default().restrict_to(REVIEW_DOMAINS),
            },
        )
        .source("pricing", pricing_source())
        .source("sponsored", DataSourceDef::Ads { slots: 2 })
        .supplemental("reviews", "{title} review")
        .supplemental("pricing", "{title}")
        .monetization(MonetizationConfig {
            log_interactions: true,
            publisher: format!("publisher-{i}"),
        })
        // Finite, so the admission path (slot + token bucket) runs on
        // every miss, but far above anything two clients can offer.
        .admission(AdmissionPolicy {
            rate_per_sec: 1_000_000,
            burst: 1_000_000,
            max_concurrency: 64,
            weight: 1,
        })
        .build()
        .expect("storefront app is valid")
}

/// A web-vertical app: the classic link + snippet page, plain or
/// customised (site restriction + query augmentation).
fn web_app(name: &str, owner: symphony_store::TenantId, config: SearchConfig) -> ApplicationConfig {
    let mut canvas = Canvas::new();
    let root = canvas.root_id();
    canvas
        .insert(
            root,
            Element::result_list("web", template::web_result_layout(), 10),
        )
        .expect("root accepts children");
    AppBuilder::new(name, owner)
        .layout(canvas)
        .source(
            "web",
            DataSourceDef::WebVertical {
                vertical: Vertical::Web,
                config,
            },
        )
        .monetization(MonetizationConfig {
            log_interactions: false,
            publisher: String::new(),
        })
        .build()
        .expect("web app is valid")
}

/// The customised web app's configuration: the authoritative and the
/// first generic site of three topics, plus one augmentation term.
pub fn custom_search_config(corpus: &Corpus) -> SearchConfig {
    let mut domains: Vec<String> = Vec::new();
    for topic in [Topic::Games, Topic::Wine, Topic::Movies] {
        domains.extend(
            corpus
                .sites
                .iter()
                .filter(|s| s.topic == topic)
                .take(2)
                .map(|s| s.domain.clone()),
        );
    }
    SearchConfig::default()
        .restrict_to(domains)
        .augment(["review"])
}

/// A catalog app: `Proprietary` when `cutoff` is `None`, else `Hybrid`
/// with `price < cutoff`.
fn catalog_app(
    name: &str,
    owner: symphony_store::TenantId,
    cutoff: Option<i64>,
) -> ApplicationConfig {
    let item = Element::column(vec![
        Element::text("{title}").with_class("result-title"),
        Element::text("{body}"),
        Element::text("{category} · ${price}"),
    ]);
    let mut canvas = Canvas::new();
    let root = canvas.root_id();
    canvas
        .insert(root, Element::result_list("catalog", item, 10))
        .expect("root accepts children");
    let def = match cutoff {
        None => DataSourceDef::Proprietary {
            table: "catalog".into(),
        },
        Some(c) => DataSourceDef::Hybrid {
            table: "catalog".into(),
            filter: gen::price_below(c),
        },
    };
    AppBuilder::new(name, owner)
        .layout(canvas)
        .source("catalog", def)
        .monetization(MonetizationConfig {
            log_interactions: false,
            publisher: String::new(),
        })
        .build()
        .expect("catalog app is valid")
}

/// Build the world of `workload` from `seed`.
pub fn build(workload: Workload, scale: Scale, seed: u64) -> World {
    let spec = WorldSpec::of(workload, scale);
    let names = Arc::new(gen::name_pool(seed, spec.names));
    let corpus_seed = match workload {
        Workload::WebCold | Workload::ShardedWeb | Workload::LiveIngest => WEB_CORPUS_SEED,
        Workload::Storefront | Workload::HybridSweep => seed,
    };
    let corpus = corpus(corpus_seed, &spec, &names);
    let pages = corpus.pages.len();
    let custom = custom_search_config(&corpus);
    let threads = symphony_text::default_build_threads();
    let caches = workload == Workload::Storefront;
    let l2 = if caches {
        SourceCacheConfig::default()
    } else {
        SourceCacheConfig::disabled()
    };

    let mut query_pool = Vec::new();
    let (host, apps, web_docs) = if workload == Workload::ShardedWeb {
        let mut router = Router::new(&corpus, SHARDS, threads, mix(seed, 0x524F_5554))
            .with_quotas(quotas(caches))
            .with_source_cache(l2);
        let web_docs = router
            .cluster()
            .shard_engines()
            .iter()
            .map(|e| e.doc_count(Vertical::Web))
            .sum();
        let tenant = "tenant-0";
        let home = router.create_tenant(tenant);
        router
            .upload_table(
                tenant,
                gen::catalog(mix(seed, 100), spec.rows_per_tenant, &names),
            )
            .expect("catalog fits the quota");
        let mut apps = Vec::new();
        // The owner id is rewritten by the router; any placeholder does.
        let placeholder = symphony_store::TenantId(0);
        for config in [
            web_app("WebPlain", placeholder, SearchConfig::default()),
            web_app("WebCustom", placeholder, custom.clone()),
        ] {
            let id = router.register_app(tenant, config).expect("app registers");
            router.publish(id).expect("app publishes");
            // One tenant, so shard-local ids follow registration order.
            let local = AppId(apps.len() as u32);
            let config = router
                .shard(home)
                .app(local)
                .expect("app lives on the tenant's home shard")
                .clone();
            apps.push(AppRef {
                id,
                local,
                config,
                home,
            });
        }
        (Host::Sharded(Box::new(router)), apps, web_docs)
    } else {
        let engine = SearchEngine::with_build_threads(corpus, threads);
        let web_docs = engine.doc_count(Vertical::Web);
        let mut platform = Platform::new(engine)
            .with_quotas(quotas(caches))
            .with_source_cache(l2)
            .with_transport_seed(mix(seed, 0x5452_414E));
        register_services(platform.transport_mut());
        add_campaigns(platform.ads_mut(), seed, &names);
        let mut apps = Vec::new();
        for t in 0..spec.tenants {
            let (tenant, key) = platform.create_tenant(&format!("tenant-{t}"));
            platform
                .upload_table(
                    tenant,
                    &key,
                    gen::catalog(mix(seed, 100 + t as u64), spec.rows_per_tenant, &names),
                )
                .expect("catalog fits the quota");
            let configs = match workload {
                Workload::Storefront => vec![storefront_app(t, tenant)],
                Workload::HybridSweep => {
                    let mut v = vec![catalog_app("CatalogText", tenant, None)];
                    for c in HYBRID_CUTOFFS {
                        v.push(catalog_app(&format!("CatalogUnder{c}"), tenant, Some(c)));
                    }
                    v
                }
                _ => vec![
                    web_app("WebPlain", tenant, SearchConfig::default()),
                    web_app("WebCustom", tenant, custom.clone()),
                ],
            };
            for config in configs {
                let id = platform
                    .register_app(config.clone())
                    .expect("app registers");
                platform.publish(id).expect("app publishes");
                apps.push(AppRef {
                    id,
                    local: id,
                    config,
                    home: 0,
                });
            }
        }
        if workload == Workload::Storefront {
            query_pool = gen::catalog_query_pool(seed, &names, spec.query_pool);
        }
        (Host::Single(Box::new(platform)), apps, web_docs)
    };

    World {
        workload,
        counts: WorldCounts {
            pages,
            web_docs,
            tenants: spec.tenants,
            rows_per_tenant: spec.rows_per_tenant,
            apps: apps.len(),
        },
        host,
        apps,
        names,
        query_pool: Arc::new(query_pool),
        seed,
        scale,
    }
}

impl World {
    /// The op stream of client `client` (streams of different clients
    /// are independent). Where the workload replays a lap, this is the
    /// lap, over and over; the lap of `sharded_web` is the head of
    /// `web_cold`'s. On `live_ingest` only the reads replay.
    pub fn stream(&self, client: usize) -> Box<dyn OpStream> {
        let seed = mix(self.seed, 0x434C_4900 + client as u64);
        let lap = self.workload.lap_ops(self.scale);
        match self.workload {
            Workload::Storefront => Box::new(gen::StorefrontStream::new(
                seed,
                self.apps.len(),
                self.query_pool.clone(),
            )),
            Workload::WebCold | Workload::ShardedWeb => Box::new(LapStream::first(
                gen::WebStream::new(seed, self.apps.len()),
                lap,
            )),
            Workload::HybridSweep => Box::new(LapStream::new(Arc::new(gen::hybrid_lap(
                seed,
                self.apps.len(),
            )))),
            Workload::LiveIngest => Box::new(gen::IngestStream::over(
                seed,
                self.apps.len(),
                lap * gen::CYCLE_READS,
                self.host.platform(0).engine().corpus(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worlds_hold_the_stated_counts() {
        for w in Workload::ALL {
            let spec = WorldSpec::of(w, Scale::Smoke);
            let world = build(w, Scale::Smoke, 9);
            assert_eq!(world.counts.tenants, spec.tenants, "{w:?}");
            assert_eq!(world.counts.rows_per_tenant, spec.rows_per_tenant, "{w:?}");
            let expected_apps = match w {
                Workload::Storefront => spec.tenants,
                Workload::HybridSweep => 1 + HYBRID_CUTOFFS.len(),
                _ => 2,
            };
            assert_eq!(world.apps.len(), expected_apps, "{w:?}");
            // 6 topics, each with its authoritative sites (10 in all)
            // plus the generic ones, `pages_per_site` articles each.
            let articles = (6 * spec.sites_per_topic + 10) * spec.pages_per_site;
            let entity_pages = if spec.reviews { spec.names * 10 } else { 0 };
            assert_eq!(world.counts.pages, articles + entity_pages, "{w:?}");
            assert!(world.counts.web_docs > 0 && world.counts.web_docs <= world.counts.pages);
            for (t, platform) in world.host.platforms().iter().enumerate() {
                let _ = t;
                assert!(platform.engine().doc_count(Vertical::Web) > 0);
            }
            let rows: usize = world
                .apps
                .iter()
                .map(|a| {
                    world
                        .host
                        .platform(a.home)
                        .store()
                        .space_by_id(a.config.owner)
                        .expect("owner space exists")
                        .table("catalog")
                        .expect("catalog uploaded")
                        .table()
                        .len()
                })
                .max()
                .unwrap();
            assert_eq!(rows, spec.rows_per_tenant, "{w:?}");
        }
    }

    #[test]
    fn sharded_and_single_worlds_share_corpus_and_stream() {
        let a = build(Workload::WebCold, Scale::Smoke, 21);
        let b = build(Workload::ShardedWeb, Scale::Smoke, 21);
        assert_eq!(a.counts.pages, b.counts.pages);
        assert_eq!(a.counts.web_docs, b.counts.web_docs);
        let (mut sa, mut sb) = (a.stream(0), b.stream(0));
        for _ in 0..20 {
            let (gen::Op::View(x), gen::Op::View(y)) = (sa.next_op(), sb.next_op()) else {
                panic!("web streams yield views")
            };
            assert_eq!(x, y);
        }
    }
}
