//! Shared world builders for the Symphony report binaries.
//!
//! Every report binary builds its fixtures through these helpers so
//! that Table I, the figures and the experiments all run on the same
//! substrate configurations (documented in DESIGN.md's per-experiment
//! index).

#![warn(missing_docs)]

pub mod traffic;

use symphony_cluster::Router;
use symphony_core::app::AppBuilder;
use symphony_core::hosting::Platform;
use symphony_core::runtime::ExecMode;
use symphony_core::source::DataSourceDef;
use symphony_core::AppId;
use symphony_designer::{Canvas, Element};
use symphony_services::{
    BreakerConfig, CallPolicy, FaultPlan, InventoryService, LatencyModel, PricingService,
};
use symphony_store::ingest::{ingest, DataFormat};
use symphony_store::IndexedTable;
use symphony_web::{Corpus, CorpusConfig, SearchConfig, SearchEngine, Topic, Vertical};

pub use symphony_baselines::{INVENTORY_CSV, REVIEW_SITES};

/// Corpus scale presets used across experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~300 pages (unit-test sized).
    Small,
    /// ~900 pages (default experiments).
    Medium,
}

impl Scale {
    /// `(sites_per_topic, pages_per_site)` for the preset.
    pub fn dims(self) -> (usize, usize) {
        match self {
            Scale::Small => (2, 4),
            Scale::Medium => (5, 10),
        }
    }
}

/// Build the shared corpus with the GamerQueen entities woven in.
pub fn corpus(scale: Scale) -> Corpus {
    let (sites, pages) = scale.dims();
    Corpus::generate(
        &CorpusConfig {
            sites_per_topic: sites,
            pages_per_site: pages,
            ..CorpusConfig::default()
        }
        .with_entities(Topic::Games, symphony_baselines::ENTITIES),
    )
}

/// Options for [`gamer_queen_world`].
#[derive(Debug, Clone, Copy)]
pub struct WorldOptions {
    /// Corpus scale.
    pub scale: Scale,
    /// Fan-out mode.
    pub mode: ExecMode,
    /// Number of supplemental sources attached per result
    /// (1 = reviews; 2 = +pricing; 3 = +stock; 4 = +images).
    pub supplemental_sources: usize,
    /// Primary result-list size.
    pub primary_k: usize,
}

impl Default for WorldOptions {
    fn default() -> Self {
        WorldOptions {
            scale: Scale::Medium,
            mode: ExecMode::Parallel,
            supplemental_sources: 2,
            primary_k: 10,
        }
    }
}

/// Build the full GamerQueen platform: inventory uploaded, services
/// registered, app designed/published. Returns the platform and app.
pub fn gamer_queen_world(options: WorldOptions) -> (Platform, AppId) {
    // Benchmarks push millions of requests through one app; the
    // request quota under test lives in the hosting unit tests, not
    // here.
    let mut platform = Platform::new(SearchEngine::new(corpus(options.scale)))
        .with_mode(options.mode)
        .with_quotas(symphony_core::QuotaConfig {
            requests_per_minute: u32::MAX,
            ..symphony_core::QuotaConfig::default()
        });
    let (tenant, key) = platform.create_tenant("GamerQueen");
    let (table, _) = ingest("inventory", INVENTORY_CSV, DataFormat::Csv).expect("csv parses");
    let mut indexed = IndexedTable::new(table);
    indexed
        .enable_fulltext(&[("title", 2.0), ("genre", 1.0), ("description", 1.0)])
        .expect("columns exist");
    platform.upload_table(tenant, &key, indexed).expect("quota");
    platform
        .transport_mut()
        .register("pricing", Box::new(PricingService), LatencyModel::fast());
    platform
        .transport_mut()
        .register("stock", Box::new(InventoryService), LatencyModel::default());

    let mut item_children = vec![
        Element::link_field("detail_url", "{title}"),
        Element::text("{description}"),
    ];
    let mut sources: Vec<(&str, DataSourceDef, &str)> = Vec::new();
    if options.supplemental_sources >= 1 {
        item_children.push(Element::result_list(
            "reviews",
            Element::column(vec![
                Element::link_field("url", "{title}"),
                Element::rich_text("{snippet}"),
            ]),
            3,
        ));
        sources.push((
            "reviews",
            DataSourceDef::WebVertical {
                vertical: Vertical::Web,
                config: SearchConfig::default().restrict_to(REVIEW_SITES),
            },
            "{title} review",
        ));
    }
    if options.supplemental_sources >= 2 {
        item_children.push(Element::result_list(
            "pricing",
            Element::text("${price}"),
            1,
        ));
        sources.push((
            "pricing",
            DataSourceDef::Service {
                endpoint: "pricing".into(),
                operation: "/price".into(),
                item_param: "item".into(),
                policy: CallPolicy::default(),
            },
            "{title}",
        ));
    }
    if options.supplemental_sources >= 3 {
        item_children.push(Element::result_list(
            "stock",
            Element::text("{quantity} in stock"),
            1,
        ));
        sources.push((
            "stock",
            DataSourceDef::Service {
                endpoint: "stock".into(),
                operation: "CheckStock".into(),
                item_param: "item".into(),
                policy: CallPolicy::default(),
            },
            "{title}",
        ));
    }
    if options.supplemental_sources >= 4 {
        item_children.push(Element::result_list(
            "shots",
            Element::image_field("image_src", "{title}"),
            1,
        ));
        sources.push((
            "shots",
            DataSourceDef::WebVertical {
                vertical: Vertical::Image,
                config: SearchConfig::default(),
            },
            "{title}",
        ));
    }

    let mut canvas = Canvas::new();
    let root = canvas.root_id();
    canvas
        .insert(root, Element::search_box("Search games…"))
        .expect("root");
    canvas
        .insert(
            root,
            Element::result_list(
                "inventory",
                Element::column(item_children),
                options.primary_k,
            ),
        )
        .expect("root");

    let mut builder = AppBuilder::new("GamerQueen", tenant).layout(canvas).source(
        "inventory",
        DataSourceDef::Proprietary {
            table: "inventory".into(),
        },
    );
    for (name, def, template) in sources {
        builder = builder.source(name, def).supplemental(name, template);
    }
    let config = builder.build().expect("valid app");
    let id = platform.register_app(config).expect("registers");
    platform.publish(id).expect("publishes");
    (platform, id)
}

/// Options for [`resilience_world`] (experiment E-resilience).
#[derive(Debug, Clone)]
pub struct ResilienceOptions {
    /// Call policy on the pricing source.
    pub policy: CallPolicy,
    /// Breaker tuning ([`BreakerConfig::disabled`] = naive baseline).
    pub breakers: BreakerConfig,
    /// Per-query deadline / budget / retry limits.
    pub resilience: symphony_core::ResiliencePolicy,
    /// Scheduled faults on the virtual clock.
    pub faults: FaultPlan,
}

/// A small platform tuned for resilience measurements: one proprietary
/// primary, one pricing-service supplemental, both cache levels
/// disabled (L1 TTL 0, L2 off) so every query exercises the live
/// fetch path — the retry/breaker/hedge machinery under test, not the
/// caches, must absorb the incident.
pub fn resilience_world(options: ResilienceOptions) -> (Platform, AppId) {
    let (sites, pages) = Scale::Small.dims();
    let corpus = Corpus::generate(&CorpusConfig {
        sites_per_topic: sites,
        pages_per_site: pages,
        ..CorpusConfig::default()
    });
    let mut platform = Platform::new(SearchEngine::new(corpus))
        .with_transport_seed(0xD1CE)
        .with_breaker_config(options.breakers)
        .with_source_cache(symphony_core::SourceCacheConfig::disabled())
        .with_quotas(symphony_core::QuotaConfig {
            requests_per_minute: u32::MAX,
            cache_ttl_ms: 0,
            ..symphony_core::QuotaConfig::default()
        });
    platform.transport_mut().register(
        "pricing",
        Box::new(PricingService),
        LatencyModel {
            base_ms: 20,
            jitter_ms: 30,
            failure_rate: 0.01,
        },
    );
    platform.transport_mut().set_fault_plan(options.faults);
    let (tenant, key) = platform.create_tenant("GamerQueen");
    let (table, _) = ingest("inventory", INVENTORY_CSV, DataFormat::Csv).expect("csv parses");
    let mut indexed = IndexedTable::new(table);
    indexed
        .enable_fulltext(&[("title", 2.0), ("genre", 1.0), ("description", 1.0)])
        .expect("columns exist");
    platform.upload_table(tenant, &key, indexed).expect("quota");

    let mut canvas = Canvas::new();
    let root = canvas.root_id();
    let item = Element::column(vec![
        Element::text("{title}"),
        Element::result_list("pricing", Element::text("${price}"), 1),
    ]);
    canvas
        .insert(root, Element::result_list("inventory", item, 10))
        .expect("root");
    let config = AppBuilder::new("GamerQueen", tenant)
        .layout(canvas)
        .source(
            "inventory",
            DataSourceDef::Proprietary {
                table: "inventory".into(),
            },
        )
        .source(
            "pricing",
            DataSourceDef::Service {
                endpoint: "pricing".into(),
                operation: "/price".into(),
                item_param: "item".into(),
                policy: options.policy,
            },
        )
        .supplemental("pricing", "{title}")
        .resilience(options.resilience)
        .build()
        .expect("valid app");
    let id = platform.register_app(config).expect("registers");
    platform.publish(id).expect("publishes");
    (platform, id)
}

/// A fleet of structurally-identical apps on one platform, each on its
/// own tenant, all sharing the same review vertical and pricing
/// endpoint (experiment E-cache). Tenancy isolates the L1 response
/// caches and the proprietary tables; the web and service sources are
/// tenant-agnostic, so the shared L2 source cache can serve one app's
/// fetches from another's — exactly the cross-application reuse the
/// platform-wide cache exists for. Pass `l2 = false` for the
/// L1-only ablation baseline.
pub fn shared_fleet_world(apps: usize, l2: bool) -> (Platform, Vec<AppId>) {
    let mut platform = Platform::new(SearchEngine::new(corpus(Scale::Small))).with_quotas(
        symphony_core::QuotaConfig {
            requests_per_minute: u32::MAX,
            ..symphony_core::QuotaConfig::default()
        },
    );
    if !l2 {
        platform = platform.with_source_cache(symphony_core::SourceCacheConfig::disabled());
    }
    platform
        .transport_mut()
        .register("pricing", Box::new(PricingService), LatencyModel::fast());
    let mut ids = Vec::new();
    for i in 0..apps {
        let (tenant, key) = platform.create_tenant(&format!("Publisher{i}"));
        let (table, _) = ingest("inventory", INVENTORY_CSV, DataFormat::Csv).expect("csv parses");
        let mut indexed = IndexedTable::new(table);
        indexed
            .enable_fulltext(&[("title", 2.0), ("genre", 1.0), ("description", 1.0)])
            .expect("columns exist");
        platform.upload_table(tenant, &key, indexed).expect("quota");
        let mut canvas = Canvas::new();
        let root = canvas.root_id();
        let item = Element::column(vec![
            Element::text("{title}"),
            Element::result_list("reviews", Element::link_field("url", "{title}"), 3),
            Element::result_list("pricing", Element::text("${price}"), 1),
        ]);
        canvas
            .insert(root, Element::result_list("inventory", item, 10))
            .expect("root");
        let config = AppBuilder::new(&format!("App{i}"), tenant)
            .layout(canvas)
            .source(
                "inventory",
                DataSourceDef::Proprietary {
                    table: "inventory".into(),
                },
            )
            .source(
                "reviews",
                DataSourceDef::WebVertical {
                    vertical: Vertical::Web,
                    config: SearchConfig::default().restrict_to(REVIEW_SITES),
                },
            )
            .source(
                "pricing",
                DataSourceDef::Service {
                    endpoint: "pricing".into(),
                    operation: "/price".into(),
                    item_param: "item".into(),
                    policy: CallPolicy::default(),
                },
            )
            .supplemental("reviews", "{title} review")
            .supplemental("pricing", "{title}")
            .build()
            .expect("valid app");
        let id = platform.register_app(config).expect("registers");
        platform.publish(id).expect("publishes");
        ids.push(id);
    }
    (platform, ids)
}

/// A fleet of identical apps for the overload experiment, one per
/// tenant, each with its own [`symphony_core::AdmissionPolicy`]
/// (index-matched to `policies`; pass an empty slice for all-unlimited
/// — the AC-off ablation).
///
/// Interaction logging is OFF (millions of modeled sessions must not
/// accumulate an event log), and when `caches` is false both response
/// caches are disabled so every admitted query exercises the execute
/// path — the regime where admission control is load-bearing. With
/// `caches` on, the world measures harness throughput instead.
pub fn overload_fleet_world(
    tenants: usize,
    policies: &[symphony_core::AdmissionPolicy],
    caches: bool,
) -> (Platform, Vec<AppId>) {
    let mut platform = Platform::new(SearchEngine::new(corpus(Scale::Small))).with_quotas(
        symphony_core::QuotaConfig {
            requests_per_minute: u32::MAX,
            cache_ttl_ms: if caches {
                symphony_core::QuotaConfig::default().cache_ttl_ms
            } else {
                0
            },
            ..symphony_core::QuotaConfig::default()
        },
    );
    if !caches {
        platform = platform.with_source_cache(symphony_core::SourceCacheConfig::disabled());
    }
    platform.transport_mut().register(
        "pricing",
        Box::new(PricingService),
        LatencyModel {
            base_ms: 40,
            jitter_ms: 20,
            failure_rate: 0.0,
        },
    );
    let mut ids = Vec::new();
    for i in 0..tenants {
        let (tenant, key) = platform.create_tenant(&format!("Tenant{i}"));
        let (table, _) = ingest("inventory", INVENTORY_CSV, DataFormat::Csv).expect("csv parses");
        let mut indexed = IndexedTable::new(table);
        indexed
            .enable_fulltext(&[("title", 2.0), ("genre", 1.0), ("description", 1.0)])
            .expect("columns exist");
        platform.upload_table(tenant, &key, indexed).expect("quota");
        let mut canvas = Canvas::new();
        let root = canvas.root_id();
        let item = Element::column(vec![
            Element::text("{title}"),
            Element::result_list("pricing", Element::text("${price}"), 1),
        ]);
        canvas
            .insert(root, Element::result_list("inventory", item, 5))
            .expect("root");
        let config = AppBuilder::new(&format!("App{i}"), tenant)
            .layout(canvas)
            .source(
                "inventory",
                DataSourceDef::Proprietary {
                    table: "inventory".into(),
                },
            )
            .source(
                "pricing",
                DataSourceDef::Service {
                    endpoint: "pricing".into(),
                    operation: "/price".into(),
                    item_param: "item".into(),
                    policy: CallPolicy::default(),
                },
            )
            .supplemental("pricing", "{title}")
            .monetization(symphony_core::MonetizationConfig {
                log_interactions: false,
                publisher: String::new(),
            })
            .admission(policies.get(i).copied().unwrap_or_default())
            .build()
            .expect("valid app");
        let id = platform.register_app(config).expect("registers");
        platform.publish(id).expect("publishes");
        ids.push(id);
    }
    (platform, ids)
}

/// A fleet of web-search tenants behind a shard [`Router`], for
/// experiment E-shard. Each tenant hosts one pure web-vertical app on
/// its rendezvous home shard, and every query scatters across the
/// document-partitioned fleet.
///
/// Both response caches are disabled and interaction logging is off,
/// so each replayed query pays the full scatter-gather path — the
/// regime where document partitioning is load-bearing. Pass a
/// [`FaultPlan`] to schedule shard outages on the inter-node
/// transport (the partial-degrade cell).
pub fn shard_fleet_world(
    num_shards: usize,
    tenants: usize,
    plan: Option<FaultPlan>,
) -> (Router, Vec<AppId>) {
    let corpus = corpus(Scale::Small);
    let router = match plan {
        Some(plan) => Router::with_faults(&corpus, num_shards, 1, 0xE5AD, plan),
        None => Router::new(&corpus, num_shards, 1, 0xE5AD),
    };
    let mut router = router
        .with_quotas(symphony_core::QuotaConfig {
            requests_per_minute: u32::MAX,
            cache_ttl_ms: 0,
            ..symphony_core::QuotaConfig::default()
        })
        .with_source_cache(symphony_core::SourceCacheConfig::disabled());
    let mut ids = Vec::new();
    for i in 0..tenants {
        let name = format!("Tenant{i}");
        router.create_tenant(&name);
        let mut canvas = Canvas::new();
        let root = canvas.root_id();
        canvas
            .insert(
                root,
                Element::result_list("web", Element::link_field("url", "{title}"), 10),
            )
            .expect("root");
        // The owner id is overwritten by the router with the tenant's
        // shard-local id at registration.
        let config = AppBuilder::new(&format!("App{i}"), symphony_store::TenantId(0))
            .layout(canvas)
            .source(
                "web",
                DataSourceDef::WebVertical {
                    vertical: Vertical::Web,
                    config: SearchConfig::default(),
                },
            )
            .monetization(symphony_core::MonetizationConfig {
                log_interactions: false,
                publisher: String::new(),
            })
            .build()
            .expect("valid app");
        let id = router.register_app(&name, config).expect("registers");
        router.publish(id).expect("publishes");
        ids.push(id);
    }
    (router, ids)
}

/// `p`-th percentile (0.0–1.0) of an unsorted latency sample.
pub fn percentile(samples: &[u32], p: f64) -> u32 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Zipf-distributed query stream over the scenario's evaluation
/// queries plus topical filler (for the E2 cache experiment).
pub fn zipf_queries(n: usize, skew: f64, seed: u64) -> Vec<String> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let pool: Vec<String> = symphony_baselines::EVAL_QUERIES
        .iter()
        .map(|(q, _)| q.to_string())
        .chain(
            Topic::Games
                .words()
                .iter()
                .take(30)
                .map(|w| format!("{w} game")),
        )
        .collect();
    let zipf = symphony_web::zipf::Zipf::new(pool.len(), skew);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| pool[zipf.sample(&mut rng)].clone())
        .collect()
}

/// Simple aligned table printer for experiment output.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<&str>| {
        let mut s = String::new();
        for (c, w) in cells.iter().zip(&widths) {
            s.push_str(&format!("| {:w$} ", c, w = w));
        }
        s.push('|');
        println!("{s}");
    };
    line(headers.to_vec());
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(sep.iter().map(String::as_str).collect());
    for row in rows {
        line(row.iter().map(String::as_str).collect());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_builder_produces_working_platform() {
        let (platform, id) = gamer_queen_world(WorldOptions {
            scale: Scale::Small,
            ..WorldOptions::default()
        });
        let resp = platform.query(id, "space shooter").unwrap();
        assert!(resp.html.contains("Galactic Raiders"));
    }

    #[test]
    fn supplemental_source_count_controls_layout() {
        for n in 0..=4 {
            let (platform, id) = gamer_queen_world(WorldOptions {
                scale: Scale::Small,
                supplemental_sources: n,
                ..WorldOptions::default()
            });
            let app = platform.app(id).unwrap();
            assert_eq!(app.supplemental_sources().len(), n);
        }
    }

    #[test]
    fn shared_l2_strictly_dominates_l1_only_on_the_fleet() {
        let queries = zipf_queries(120, 1.0, 23);
        let run = |l2: bool| -> (u64, symphony_core::SourceCacheStats) {
            let (platform, ids) = shared_fleet_world(4, l2);
            let mut total_ms = 0u64;
            for (i, q) in queries.iter().enumerate() {
                let resp = platform.query(ids[i % ids.len()], q).expect("ok");
                total_ms += resp.virtual_ms as u64;
            }
            (total_ms, platform.source_cache_stats())
        };
        let (l1_ms, l1_stats) = run(false);
        let (l2_ms, l2_stats) = run(true);
        assert!(
            l2_ms < l1_ms,
            "L2 must strictly reduce total virtual time: {l2_ms} vs {l1_ms}"
        );
        // The disabled cache records nothing; the enabled one must
        // have actually served cross-app fetches.
        assert_eq!(l1_stats.executions, 0);
        assert!(l2_stats.hits > 0, "cross-app hits expected: {l2_stats:?}");
        assert!(l2_stats.executions > 0);
    }

    #[test]
    fn zipf_queries_are_skewed_and_deterministic() {
        let a = zipf_queries(200, 1.2, 9);
        let b = zipf_queries(200, 1.2, 9);
        assert_eq!(a, b);
        let mut counts = std::collections::HashMap::new();
        for q in &a {
            *counts.entry(q.clone()).or_insert(0usize) += 1;
        }
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(max > 20, "head query should dominate, max={max}");
    }
}
