//! Integration tests for the paper's §IV future-work extensions:
//! structured constraints, supplemental-site recommendation,
//! click-feedback relevance signals, and application composition.

use symphony_core::app::AppBuilder;
use symphony_core::hosting::Platform;
use symphony_core::source::DataSourceDef;
use symphony_core::{recommend_sites, Outcome, PlatformError, SpanKind};
use symphony_designer::{Canvas, Element};
use symphony_store::ingest::{ingest, DataFormat};
use symphony_store::{CmpOp, Filter, IndexedTable, Value};
use symphony_web::{
    generate_logs, Corpus, CorpusConfig, LogConfig, SearchConfig, SearchEngine, Topic, Vertical,
};

const INVENTORY: &str = "\
title,genre,description,price,stock
Galactic Raiders,shooter,a fast space shooter,49.99,3
Laser Golf,sports,golf with lasers a silly shooter,9.99,0
";

fn corpus() -> Corpus {
    Corpus::generate(
        &CorpusConfig {
            sites_per_topic: 2,
            pages_per_site: 4,
            ..CorpusConfig::default()
        }
        .with_entities(Topic::Games, ["Galactic Raiders", "Laser Golf"]),
    )
}

fn inventory_table() -> IndexedTable {
    let (table, _) = ingest("inventory", INVENTORY, DataFormat::Csv).unwrap();
    let mut indexed = IndexedTable::new(table);
    indexed
        .enable_fulltext(&[("title", 2.0), ("description", 1.0)])
        .unwrap();
    indexed
}

fn simple_layout(source: &str) -> Canvas {
    let mut canvas = Canvas::new();
    let root = canvas.root_id();
    canvas
        .insert(
            root,
            Element::result_list(source, Element::text("{title}"), 10),
        )
        .unwrap();
    canvas
}

#[test]
fn structured_constraint_hides_out_of_stock_items() {
    let mut platform = Platform::new(SearchEngine::new(corpus()));
    let (tenant, key) = platform.create_tenant("Shop");
    let indexed = inventory_table();
    let stock_col = indexed.table().schema().col("stock").unwrap();
    platform.upload_table(tenant, &key, indexed).unwrap();

    // Both games match "shooter"; the constrained app only shows
    // in-stock items.
    let unconstrained = AppBuilder::new("All", tenant)
        .layout(simple_layout("inventory"))
        .source(
            "inventory",
            DataSourceDef::Proprietary {
                table: "inventory".into(),
            },
        )
        .build()
        .unwrap();
    let constrained = AppBuilder::new("InStock", tenant)
        .layout(simple_layout("inventory"))
        .source(
            "inventory",
            DataSourceDef::Proprietary {
                table: "inventory".into(),
            },
        )
        .constraint(
            "inventory",
            Filter::cmp(stock_col, CmpOp::Gt, Value::Int(0)),
        )
        .build()
        .unwrap();
    let a = platform.register_app(unconstrained).unwrap();
    let b = platform.register_app(constrained).unwrap();
    platform.publish(a).unwrap();
    platform.publish(b).unwrap();

    let all = platform.query(a, "shooter").unwrap();
    let in_stock = platform.query(b, "shooter").unwrap();
    assert_eq!(all.impressions.len(), 2);
    assert_eq!(in_stock.impressions.len(), 1);
    assert!(in_stock.html.contains("Galactic Raiders"));
    assert!(!in_stock.html.contains("Laser Golf"));
}

#[test]
fn recommendation_recovers_the_hand_picked_review_sites() {
    let engine = SearchEngine::new(corpus());
    let recs = recommend_sites(&engine, &inventory_table(), "title", 8, 2);
    let domains: Vec<&str> = recs.iter().take(3).map(|r| r.domain.as_str()).collect();
    for site in ["gamespot.com", "ign.com", "teamxbox.com"] {
        assert!(domains.contains(&site), "missing {site} in {domains:?}");
    }
}

#[test]
fn click_feedback_flows_from_logs_into_engine_ranking() {
    let mut engine = SearchEngine::new(corpus());
    let logs = generate_logs(
        &engine,
        &LogConfig {
            sessions: 200,
            topics: vec![Topic::Games],
            ..LogConfig::default()
        },
    );
    assert!(!logs.is_empty());
    engine.apply_click_feedback(&logs, 0.8);
    assert!(engine.click_boosted_urls() > 0);
    // The engine still answers queries sensibly after boosting.
    let rs = engine.search(
        Vertical::Web,
        "Galactic Raiders review",
        &SearchConfig::default(),
        5,
    );
    assert!(!rs.is_empty());
    for w in rs.windows(2) {
        assert!(w[0].score >= w[1].score);
    }
}

#[test]
fn composed_app_serves_child_results_through_parent() {
    let mut platform = Platform::new(SearchEngine::new(corpus()));
    let (tenant, key) = platform.create_tenant("Mall");
    platform
        .upload_table(tenant, &key, inventory_table())
        .unwrap();

    // Child: the plain inventory app.
    let child_cfg = AppBuilder::new("GamerQueen", tenant)
        .layout(simple_layout("inventory"))
        .source(
            "inventory",
            DataSourceDef::Proprietary {
                table: "inventory".into(),
            },
        )
        .build()
        .unwrap();
    let child = platform.register_app(child_cfg).unwrap();
    platform.publish(child).unwrap();

    // Parent: a "mall" app whose only source is the child app.
    let mut canvas = Canvas::new();
    let root = canvas.root_id();
    canvas
        .insert(
            root,
            Element::result_list(
                "gamerqueen",
                Element::column(vec![
                    Element::link_field("url", "{title}"),
                    Element::text("from {app}"),
                ]),
                5,
            ),
        )
        .unwrap();
    let parent_cfg = AppBuilder::new("Mall", tenant)
        .layout(canvas)
        .source("gamerqueen", DataSourceDef::ComposedApp { app: child })
        .build()
        .unwrap();
    let parent = platform.register_app(parent_cfg).unwrap();
    platform.publish(parent).unwrap();

    let resp = platform.query(parent, "shooter").unwrap();
    assert!(resp.html.contains("Galactic Raiders"), "{}", resp.html);
    assert!(resp.html.contains("from GamerQueen"));
    // The child's virtual time is accounted in the parent's stage.
    let stage = resp.trace.slot("gamerqueen").unwrap();
    assert!(matches!(stage.kind, SpanKind::Primary { .. }));
    assert!(matches!(stage.outcome, Outcome::Ok { results: 1.. }));
    assert!(stage.virtual_ms > 0);
    // Both apps logged traffic.
    assert!(platform.traffic_summary(parent).unwrap().impressions > 0);
    assert!(platform.traffic_summary(child).unwrap().impressions > 0);
}

#[test]
fn composition_cycles_terminate_gracefully() {
    let mut platform = Platform::new(SearchEngine::new(corpus()));
    let (tenant, key) = platform.create_tenant("T");
    platform
        .upload_table(tenant, &key, inventory_table())
        .unwrap();

    // App 0 will compose app 1; app 1 composes app 0 (a cycle).
    // Register app 0 first with a placeholder source pointing at the
    // future app 1 (id 1), then app 1 pointing back at app 0.
    let cfg_a = AppBuilder::new("A", tenant)
        .layout(simple_layout("b"))
        .source(
            "b",
            DataSourceDef::ComposedApp {
                app: symphony_core::AppId(1),
            },
        )
        .build()
        .unwrap();
    let a = platform.register_app(cfg_a).unwrap();
    let cfg_b = AppBuilder::new("B", tenant)
        .layout(simple_layout("a"))
        .source("a", DataSourceDef::ComposedApp { app: a })
        .build()
        .unwrap();
    let b = platform.register_app(cfg_b).unwrap();
    platform.publish(a).unwrap();
    platform.publish(b).unwrap();

    // Terminates (depth limit) and serves an empty-but-valid page.
    let resp = platform.query(a, "anything").unwrap();
    assert!(resp.trace.total_ms > 0);
    let _ = b;
}

#[test]
fn depth_limited_composition_does_not_poison_the_child_cache() {
    let mut platform = Platform::new(SearchEngine::new(corpus()));
    let (tenant, key) = platform.create_tenant("T");
    platform
        .upload_table(tenant, &key, inventory_table())
        .unwrap();

    let child_cfg = AppBuilder::new("Child", tenant)
        .layout(simple_layout("inventory"))
        .source(
            "inventory",
            DataSourceDef::Proprietary {
                table: "inventory".into(),
            },
        )
        .build()
        .unwrap();
    let child = platform.register_app(child_cfg).unwrap();
    platform.publish(child).unwrap();
    let mid_cfg = AppBuilder::new("Mid", tenant)
        .layout(simple_layout("c"))
        .source("c", DataSourceDef::ComposedApp { app: child })
        .build()
        .unwrap();
    let mid = platform.register_app(mid_cfg).unwrap();
    platform.publish(mid).unwrap();
    let top_cfg = AppBuilder::new("Top", tenant)
        .layout(simple_layout("m"))
        .source("m", DataSourceDef::ComposedApp { app: mid })
        .build()
        .unwrap();
    let top = platform.register_app(top_cfg).unwrap();
    platform.publish(top).unwrap();

    // Querying Top runs Mid at depth 1, where Mid's own composed
    // source hits the depth limit: Mid computes — and caches — an
    // empty depth-limited rendering for this query string.
    let via_top = platform.query(top, "shooter").unwrap();
    assert!(via_top.impressions.is_empty());

    // Regression: responses computed under parent overrides are cached
    // under an override-scoped key, so a direct query of Mid must not
    // be served the depth-limited rendering.
    let direct = platform.query(mid, "shooter").unwrap();
    assert!(!direct.trace.cache_hit, "served the poisoned entry");
    assert!(!direct.trace.degraded);
    assert!(direct.html.contains("Galactic Raiders"), "{}", direct.html);

    // Both renderings now coexist in the cache, each behind its own
    // key: the composed path stays depth-limited while direct queries
    // keep serving the real results. (The direct path re-executes once
    // more because its override key covers the child outcome, which
    // changes shape when the child starts answering from its own
    // cache; from then on the key is stable and hits.)
    let via_top2 = platform.query(top, "shooter").unwrap();
    assert!(via_top2.impressions.is_empty());
    let direct2 = platform.query(mid, "shooter").unwrap();
    assert!(direct2.html.contains("Galactic Raiders"));
    let direct3 = platform.query(mid, "shooter").unwrap();
    assert!(direct3.trace.cache_hit);
    assert!(direct3.html.contains("Galactic Raiders"));
}

#[test]
fn composed_source_cannot_be_supplemental() {
    let mut platform = Platform::new(SearchEngine::new(corpus()));
    let (tenant, key) = platform.create_tenant("T");
    platform
        .upload_table(tenant, &key, inventory_table())
        .unwrap();
    let mut canvas = Canvas::new();
    let root = canvas.root_id();
    let item = Element::column(vec![
        Element::text("{title}"),
        Element::result_list("child", Element::text("{title}"), 2),
    ]);
    canvas
        .insert(root, Element::result_list("inventory", item, 5))
        .unwrap();
    let err = AppBuilder::new("Bad", tenant)
        .layout(canvas)
        .source(
            "inventory",
            DataSourceDef::Proprietary {
                table: "inventory".into(),
            },
        )
        .source(
            "child",
            DataSourceDef::ComposedApp {
                app: symphony_core::AppId(0),
            },
        )
        .supplemental("child", "{title}")
        .build()
        .unwrap_err();
    assert!(matches!(err, PlatformError::InvalidConfig(_)));
}

#[test]
fn unpublished_child_degrades_softly() {
    let mut platform = Platform::new(SearchEngine::new(corpus()));
    let (tenant, key) = platform.create_tenant("T");
    platform
        .upload_table(tenant, &key, inventory_table())
        .unwrap();
    let child_cfg = AppBuilder::new("Child", tenant)
        .layout(simple_layout("inventory"))
        .source(
            "inventory",
            DataSourceDef::Proprietary {
                table: "inventory".into(),
            },
        )
        .build()
        .unwrap();
    let child = platform.register_app(child_cfg).unwrap(); // never published
    let parent_cfg = AppBuilder::new("Parent", tenant)
        .layout(simple_layout("c"))
        .source("c", DataSourceDef::ComposedApp { app: child })
        .build()
        .unwrap();
    let parent = platform.register_app(parent_cfg).unwrap();
    platform.publish(parent).unwrap();
    let resp = platform.query(parent, "shooter").unwrap();
    let stage = resp.trace.slot("c").unwrap();
    assert_eq!(stage.outcome, Outcome::Failed);
    let error = stage.error.as_deref().unwrap();
    assert!(error.contains("not published"), "{error}");
    assert!(resp.impressions.is_empty());
}
