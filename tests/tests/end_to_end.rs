//! Full-platform integration test: the GamerQueen lifecycle from CSV
//! upload to referral audit, asserting cross-crate invariants along
//! the way.

use symphony_ads::{Ad, Keyword, MatchType};
use symphony_core::app::AppBuilder;
use symphony_core::hosting::Platform;
use symphony_core::source::DataSourceDef;
use symphony_core::{Outcome, SocialCanvasHost, SpanKind};
use symphony_designer::{Canvas, Element};
use symphony_services::{CallPolicy, LatencyModel, PricingService};
use symphony_store::ingest::{ingest, DataFormat};
use symphony_store::IndexedTable;
use symphony_web::{Corpus, CorpusConfig, SearchConfig, SearchEngine, Topic, Vertical};

const INVENTORY: &str = "\
title,genre,description,detail_url,price
Galactic Raiders,shooter,a fast space shooter with lasers,http://gamerqueen.example.com/games/galactic-raiders,49.99
Farm Story,sim,calm farming with crops and animals,http://gamerqueen.example.com/games/farm-story,19.99
";

fn build_world() -> (Platform, symphony_core::AppId) {
    let corpus = Corpus::generate(
        &CorpusConfig {
            sites_per_topic: 2,
            pages_per_site: 4,
            ..CorpusConfig::default()
        }
        .with_entities(Topic::Games, ["Galactic Raiders", "Farm Story"]),
    );
    let mut platform = Platform::new(SearchEngine::new(corpus));
    let (tenant, key) = platform.create_tenant("GamerQueen");
    let (table, _) = ingest("inventory", INVENTORY, DataFormat::Csv).unwrap();
    let mut indexed = IndexedTable::new(table);
    indexed
        .enable_fulltext(&[("title", 2.0), ("genre", 1.0), ("description", 1.0)])
        .unwrap();
    platform.upload_table(tenant, &key, indexed).unwrap();
    platform
        .transport_mut()
        .register("pricing", Box::new(PricingService), LatencyModel::fast());
    let adv = platform.ads_mut().add_advertiser("MegaGames");
    platform.ads_mut().add_campaign(
        adv,
        "games",
        1_000,
        vec![Keyword::new("shooter", MatchType::Broad, 50)],
        Ad {
            title: "Mega Sale".into(),
            display_url: "mega.example.com".into(),
            target_url: "http://mega.example.com".into(),
            text: "deals".into(),
        },
        0.9,
    );

    let mut canvas = Canvas::new();
    let root = canvas.root_id();
    canvas.insert(root, Element::search_box("Search…")).unwrap();
    let item = Element::column(vec![
        Element::link_field("detail_url", "{title}"),
        Element::text("{description}"),
        Element::result_list(
            "reviews",
            Element::column(vec![
                Element::link_field("url", "{title}"),
                Element::rich_text("{snippet}"),
            ]),
            2,
        ),
        Element::result_list("pricing", Element::text("${price}"), 1),
    ]);
    canvas
        .insert(root, Element::result_list("inventory", item, 10))
        .unwrap();
    canvas
        .insert(
            root,
            Element::result_list("sponsored", symphony_designer::template::ad_layout(), 1),
        )
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
                config: SearchConfig::default().restrict_to([
                    "gamespot.com",
                    "ign.com",
                    "teamxbox.com",
                ]),
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
        .source("sponsored", DataSourceDef::Ads { slots: 1 })
        .supplemental("reviews", "{title} review")
        .supplemental("pricing", "{title}")
        .build()
        .unwrap();
    let id = platform.register_app(config).unwrap();
    platform.publish(id).unwrap();
    (platform, id)
}

#[test]
fn query_merges_all_four_source_kinds() {
    let (platform, id) = build_world();
    let resp = platform.query(id, "space shooter").unwrap();
    // Proprietary result.
    assert!(resp.html.contains("Galactic Raiders"));
    // Supplemental review link from a designated site.
    assert!(
        resp.html.contains("gamespot.com")
            || resp.html.contains("ign.com")
            || resp.html.contains("teamxbox.com"),
        "no review-site link in: {}",
        resp.html
    );
    // Pricing service value.
    assert!(resp.html.contains('$'));
    // Sponsored slot.
    assert!(resp.html.contains("Sponsored"));
    // Sources per impression origin.
    let sources: std::collections::HashSet<&str> =
        resp.impressions.iter().map(|i| i.source.as_str()).collect();
    for s in ["inventory", "reviews", "pricing", "sponsored"] {
        assert!(sources.contains(s), "missing impressions from {s}");
    }
}

#[test]
fn supplemental_queries_are_driven_by_primary_fields() {
    let (platform, id) = build_world();
    let resp = platform.query(id, "farming").unwrap();
    let fanout = resp
        .trace
        .nodes()
        .find(|n| matches!(n.kind, SpanKind::Fanout { .. }))
        .unwrap();
    let queries: Vec<&str> = fanout.children.iter().map(|c| c.detail.as_str()).collect();
    let review = fanout
        .children
        .iter()
        .find(|c| c.detail == "Farm Story review");
    assert!(
        matches!(review.map(|c| c.outcome), Some(Outcome::Ok { .. })),
        "{queries:?}"
    );
    // The other game did not match; no fan-out for it.
    assert!(
        !queries.iter().any(|q| q.contains("Galactic Raiders")),
        "{queries:?}"
    );
}

#[test]
fn ad_click_credits_publisher_and_ledger_matches_summary() {
    let (platform, id) = build_world();
    let resp = platform.query(id, "space shooter").unwrap();
    let ad = resp
        .impressions
        .iter()
        .find(|i| i.is_ad)
        .expect("an ad rendered")
        .clone();
    let credited = platform.click(id, "space shooter", &ad).unwrap().unwrap();
    assert!(credited > 0);
    assert_eq!(
        platform.publisher_earnings_cents(id).unwrap(),
        credited as u64
    );
    let summary = platform.traffic_summary(id).unwrap();
    assert_eq!(summary.ad_clicks, 1);
    // Ledger consistency: platform cut + publisher share == campaign
    // spend.
    let ledger = platform.ads().ledger();
    assert_eq!(
        ledger.platform_cut_cents() + credited as u64,
        ledger.campaign_spend_cents(symphony_ads::CampaignId(0))
    );
}

#[test]
fn audit_csv_reparses_through_store_parser() {
    let (platform, id) = build_world();
    let resp = platform.query(id, "space shooter").unwrap();
    for imp in resp.impressions.iter().take(3) {
        platform.click(id, "space shooter", imp).unwrap();
    }
    let csv = platform.referral_audit_csv(id).unwrap();
    let parsed = symphony_store::formats::csv::parse_delimited(&csv, ',').unwrap();
    assert_eq!(
        parsed.names,
        vec!["at_ms", "query", "source", "url", "is_ad"]
    );
    assert_eq!(parsed.rows.len(), 3);
}

#[test]
fn social_publish_roundtrip() {
    let (platform, id) = build_world();
    let mut host = SocialCanvasHost::new();
    let url = host.install(platform.social_manifest(id).unwrap()).unwrap();
    assert!(url.contains("/apps/0/canvas"));
    assert_eq!(host.installed_apps(), vec!["GamerQueen"]);
}

#[test]
fn cache_serves_identical_html_within_ttl() {
    let (platform, id) = build_world();
    let a = platform.query(id, "space shooter").unwrap();
    let b = platform.query(id, "SPACE   shooter").unwrap();
    assert!(b.trace.cache_hit, "normalized query should hit");
    assert_eq!(a.html, b.html);
}

#[test]
fn unpublish_clears_cache_and_blocks_queries() {
    let (mut platform, id) = build_world();
    platform.query(id, "space shooter").unwrap();
    platform.unpublish(id).unwrap();
    assert!(platform.query(id, "space shooter").is_err());
    platform.publish(id).unwrap();
    let resp = platform.query(id, "space shooter").unwrap();
    assert!(!resp.trace.cache_hit, "cache was cleared on unpublish");
}

#[test]
fn tenant_data_is_isolated_between_apps() {
    let (mut platform, _id) = build_world();
    // A second tenant registers an app pointing at a table name that
    // only exists in the *first* tenant's space.
    let (tenant2, _key2) = platform.create_tenant("Imposter");
    let mut canvas = Canvas::new();
    let root = canvas.root_id();
    canvas
        .insert(
            root,
            Element::result_list("inventory", Element::text("{title}"), 5),
        )
        .unwrap();
    let config = AppBuilder::new("Imposter", tenant2)
        .layout(canvas)
        .source(
            "inventory",
            DataSourceDef::Proprietary {
                table: "inventory".into(),
            },
        )
        .build()
        .unwrap();
    let id2 = platform.register_app(config).unwrap();
    platform.publish(id2).unwrap();
    let resp = platform.query(id2, "space shooter").unwrap();
    // The imposter's space has no "inventory" table: zero results, and
    // definitely not GamerQueen's data.
    assert!(!resp.html.contains("Galactic Raiders"));
    assert!(resp.impressions.is_empty());
}
