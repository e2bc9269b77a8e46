//! Allocation-count guard for the L1 hit path: what a cached page
//! costs in heap traffic must not depend on how many results it shows.
//! Impressions are counted, not stored — one addition per view — so a
//! hit that logs 50 of them allocates exactly what a hit that logs 5
//! does. Nor may it depend on how many hits came before: an unlimited
//! request quota keeps no per-request history, so 4 096 hits allocate
//! exactly 4 096 times what one does.
//!
//! The counts repeat exactly from run to run, so the comparison is an
//! equality, not a threshold. This file is its own test binary (the
//! counting `#[global_allocator]` is shared with `symphony-text`'s
//! `tests/alloc.rs`), and its tests take turns on one lock so that no
//! two counted regions overlap.
//!
//! A second guard bounds an L1 miss: one Fig.-2 page (a catalog row
//! each with web reviews and a pricing call) that the L2 source cache
//! answers whole, so it runs on the calling thread. Its trace is typed
//! stages, not formatted strings: the page made 104 allocations when
//! every stage carried a formatted label and detail, and makes 87.

use std::sync::Mutex;
use symphony_core::{AppBuilder, AppId, DataSourceDef, FetchStatus, Platform, QuotaConfig};
use symphony_designer::{Canvas, Element};
use symphony_services::{CallPolicy, LatencyModel, PricingService};
use symphony_store::ingest::{ingest, DataFormat};
use symphony_store::{IndexedTable, TenantId};
use symphony_web::{Corpus, CorpusConfig, SearchConfig, SearchEngine, Topic, Vertical};

#[path = "../../textindex/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

/// Held by every test for its whole run: the counter is process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

/// An app (interaction logging on, the default) whose page lists up
/// to `shown` catalog rows.
fn register(platform: &mut Platform, tenant: TenantId, name: &str, shown: usize) -> AppId {
    let mut canvas = Canvas::new();
    let root = canvas.root_id();
    canvas
        .insert(
            root,
            Element::result_list("catalog", Element::text("{title}"), shown),
        )
        .unwrap();
    let config = AppBuilder::new(name, tenant)
        .layout(canvas)
        .source(
            "catalog",
            DataSourceDef::Proprietary {
                table: "catalog".into(),
            },
        )
        .build()
        .unwrap();
    assert!(config.monetization.log_interactions);
    let id = platform.register_app(config).unwrap();
    platform.publish(id).unwrap();
    id
}

#[test]
fn l1_hit_allocations_do_not_scale_with_impressions() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let corpus = Corpus::generate(&CorpusConfig {
        sites_per_topic: 1,
        pages_per_site: 2,
        ..CorpusConfig::default()
    });
    let mut platform = Platform::new(SearchEngine::new(corpus)).with_quotas(QuotaConfig {
        requests_per_minute: u32::MAX,
        ..QuotaConfig::default()
    });
    let (tenant, key) = platform.create_tenant("Wide");
    let mut csv = String::from("title\n");
    for i in 0..60 {
        csv.push_str(&format!("Gadget {i}\n"));
    }
    let (table, _) = ingest("catalog", &csv, DataFormat::Csv).unwrap();
    let mut indexed = IndexedTable::new(table);
    indexed.enable_fulltext(&[("title", 1.0)]).unwrap();
    platform.upload_table(tenant, &key, indexed).unwrap();
    let small = register(&mut platform, tenant, "Small", 5);
    let large = register(&mut platform, tenant, "Large", 50);

    // Same history for both apps — one miss, one hit — so the counted
    // hit finds their per-app state (cache, day counter) at the same
    // size.
    let hit_allocs = |id: AppId, shown: usize| {
        assert!(!platform.query(id, "gadget").unwrap().trace.cache_hit);
        assert!(platform.query(id, "gadget").unwrap().trace.cache_hit);
        let (allocs, page) = allocations(|| platform.query(id, "gadget").unwrap());
        assert!(page.trace.cache_hit);
        assert_eq!(page.impressions.len(), shown);
        allocs
    };
    let (few, many) = (hit_allocs(small, 5), hit_allocs(large, 50));
    assert_eq!(
        few, many,
        "an L1 hit's allocations grew with its impressions: 5 -> {few}, 50 -> {many}"
    );
    assert!(
        many <= 2,
        "an L1 hit made {many} allocations; expected the normalized cache key and little else"
    );
    // Every one of them was counted.
    assert_eq!(platform.traffic_summary(small).unwrap().impressions, 3 * 5);
    assert_eq!(platform.traffic_summary(large).unwrap().impressions, 3 * 50);

    let (one, _) = allocations(|| platform.query(small, "gadget").unwrap());
    let (hits, ()) = allocations(|| {
        for _ in 0..4_096 {
            assert!(platform.query(small, "gadget").unwrap().trace.cache_hit);
        }
    });
    assert_eq!(
        hits,
        4_096 * one,
        "4 096 L1 hits allocated {hits}, not 4 096 x {one}: per-request state grew"
    );
}

#[test]
fn an_l1_miss_the_l2_answers_allocates_at_most_its_pin() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let corpus = Corpus::generate(
        &CorpusConfig {
            sites_per_topic: 2,
            pages_per_site: 4,
            ..CorpusConfig::default()
        }
        .with_entities(Topic::Games, ["Galactic Raiders", "Space Trader"]),
    );
    // A zero L1 TTL sends every query to the runtime.
    let mut platform = Platform::new(SearchEngine::new(corpus)).with_quotas(QuotaConfig {
        requests_per_minute: u32::MAX,
        cache_ttl_ms: 0,
        ..QuotaConfig::default()
    });
    platform
        .transport_mut()
        .register("pricing", Box::new(PricingService), LatencyModel::fast());
    let (tenant, key) = platform.create_tenant("GamerQueen");
    let csv = "title,description\n\
               Galactic Raiders,a fast space shooter\n\
               Space Trader,trade goods across space stations\n";
    let (table, _) = ingest("inventory", csv, DataFormat::Csv).unwrap();
    let mut indexed = IndexedTable::new(table);
    indexed
        .enable_fulltext(&[("title", 2.0), ("description", 1.0)])
        .unwrap();
    platform.upload_table(tenant, &key, indexed).unwrap();
    let mut canvas = Canvas::new();
    let root = canvas.root_id();
    let item = Element::column(vec![
        Element::text("{title}"),
        Element::result_list("reviews", Element::text("{title}"), 3),
        Element::result_list("pricing", Element::text("{price}"), 1),
    ]);
    canvas
        .insert(root, Element::result_list("inventory", item, 10))
        .unwrap();
    let config = AppBuilder::new("GamerQueen", tenant)
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
                config: SearchConfig::default(),
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
        .unwrap();
    let id = platform.register_app(config).unwrap();
    platform.publish(id).unwrap();

    // The first query fills the L2 (its fan-out may start helper
    // threads); the second misses the L1 and is answered by the L2.
    let cold = platform.query(id, "space").unwrap();
    let (allocs, warm) = allocations(|| platform.query(id, "space").unwrap());
    assert!(!warm.trace.cache_hit && !warm.trace.degraded);
    assert_eq!(warm.html, cold.html);
    let fetches = warm.trace.nodes().filter(|n| n.source.is_some());
    assert!(fetches.map(|n| n.l2).eq([FetchStatus::Hit; 5]));
    assert!(
        allocs <= 87,
        "an L1 miss the L2 answered made {allocs} allocations, more than its pin of 87"
    );
}
