//! Cluster integration tests: bit-identical scatter-gather, replica
//! failover, partial degradation, tenant placement, and rebalancing.

use std::sync::Arc;

use symphony_cluster::{rendezvous_shard, ClusterWeb, Router};
use symphony_core::{AppBuilder, ApplicationConfig, DataSourceDef, ScatterSearch};
use symphony_designer::{Canvas, Element};
use symphony_services::rpc::{replica_endpoint, shard_endpoint};
use symphony_services::{BreakerState, FaultPlan};
use symphony_store::ingest::{ingest, DataFormat};
use symphony_store::{IndexedTable, TenantId};
use symphony_web::{Corpus, CorpusConfig, SearchConfig, SearchEngine, Topic, Vertical, WebResult};

fn corpus() -> Corpus {
    Corpus::generate(
        &CorpusConfig {
            sites_per_topic: 3,
            pages_per_site: 6,
            ..CorpusConfig::default()
        }
        .with_entities(Topic::Games, ["Galactic Raiders", "Farm Story"]),
    )
}

fn shard_fleet(corpus: &Corpus, n: usize) -> Vec<Arc<SearchEngine>> {
    SearchEngine::build_cluster(corpus, n, 1)
        .into_iter()
        .map(Arc::new)
        .collect()
}

fn result_bits(results: &[WebResult]) -> Vec<(String, u32)> {
    results
        .iter()
        .map(|r| (r.url.clone(), r.score.to_bits()))
        .collect()
}

const QUERIES: [&str; 4] = [
    "Galactic Raiders",
    "game review",
    "+space farm",
    "\"Farm Story\"",
];

#[test]
fn scatter_is_bit_identical_to_single_engine_search() {
    let corpus = corpus();
    let single = SearchEngine::new(corpus.clone());
    let config = SearchConfig::default();
    let mut costs = Vec::new();
    for n in [1usize, 2, 4] {
        let cluster = ClusterWeb::new(shard_fleet(&corpus, n), 0x5CA7);
        let mut worst = 0u32;
        for vertical in Vertical::ALL {
            for q in QUERIES {
                let out = cluster.scatter(vertical, q, &config, 10, 0);
                assert_eq!(out.shards_answered, n as u32);
                assert_eq!(out.error, None);
                assert_eq!(
                    result_bits(&out.results),
                    result_bits(&single.search(vertical, q, &config, 10)),
                    "vertical {vertical:?} query {q:?} shards {n}"
                );
                worst = worst.max(out.virtual_ms);
            }
        }
        costs.push(worst);
    }
    // Splitting documents across nodes shrinks the per-leg RPC, and
    // legs run in parallel: 4 shards must beat 1 on virtual cost.
    assert!(
        costs[2] < costs[0],
        "4-shard cost {} should undercut 1-shard cost {}",
        costs[2],
        costs[0]
    );
}

#[test]
fn primary_outage_fails_over_to_replica_with_full_results() {
    let corpus = corpus();
    let single = SearchEngine::new(corpus.clone());
    let plan = FaultPlan::new().outage(&shard_endpoint(0), 0, 1_000_000);
    let cluster = ClusterWeb::new(shard_fleet(&corpus, 3), 0x5CA7).with_fault_plan(plan);
    let config = SearchConfig::default();
    let out = cluster.scatter(Vertical::Web, "game review", &config, 10, 100);
    // The replica answered for shard 0: nothing degraded, results
    // still exactly the single-index ranking.
    assert_eq!(out.shards_answered, 3);
    assert_eq!(out.error, None);
    assert_eq!(
        result_bits(&out.results),
        result_bits(&single.search(Vertical::Web, "game review", &config, 10))
    );
}

#[test]
fn repeated_outage_trips_the_breaker_and_cheapens_failover() {
    let corpus = corpus();
    let plan = FaultPlan::new().outage(&shard_endpoint(0), 0, 10_000_000);
    let cluster = ClusterWeb::new(shard_fleet(&corpus, 2), 0x5CA7).with_fault_plan(plan);
    let config = SearchConfig::default();
    let first = cluster.scatter(Vertical::Web, "game review", &config, 10, 0);
    let mut now = 1_000u64;
    let mut open_at = None;
    for _ in 0..20 {
        let out = cluster.scatter(Vertical::Web, "game review", &config, 10, now);
        assert_eq!(out.shards_answered, 2, "replica keeps the shard serving");
        if cluster.breaker_state(&shard_endpoint(0), now) == BreakerState::Open {
            open_at = Some(now);
            break;
        }
        now += 1_000;
    }
    let open_at = open_at.expect("breaker opens under a sustained outage");
    // With the primary fast-failed by the open breaker, the next call
    // skips the burned primary attempts entirely: failover costs only
    // the replica leg, far under the first, breaker-less failover.
    let tripped = cluster.scatter(Vertical::Web, "game review", &config, 10, open_at);
    assert_eq!(tripped.shards_answered, 2);
    assert!(
        tripped.virtual_ms < first.virtual_ms,
        "post-trip cost {} should undercut first failover {}",
        tripped.virtual_ms,
        first.virtual_ms
    );
}

#[test]
fn dead_shard_degrades_to_partial_results() {
    let corpus = corpus();
    let plan = FaultPlan::new()
        .outage(&shard_endpoint(0), 0, 1_000_000)
        .outage(&replica_endpoint(0), 0, 1_000_000);
    let fleet = shard_fleet(&corpus, 3);
    let surviving: Vec<String> = fleet[1..]
        .iter()
        .flat_map(|e| e.search(Vertical::Web, "game review", &SearchConfig::default(), 50))
        .map(|r| r.url)
        .collect();
    let cluster = ClusterWeb::new(fleet, 0x5CA7).with_fault_plan(plan);
    let out = cluster.scatter(
        Vertical::Web,
        "game review",
        &SearchConfig::default(),
        10,
        100,
    );
    assert_eq!(out.shards_total, 3);
    assert_eq!(out.shards_answered, 2);
    let err = out.error.expect("partial result carries an error");
    assert!(
        err.contains("shard(s) 0"),
        "error names the dead shard: {err}"
    );
    assert!(!out.results.is_empty(), "survivors still answer");
    for r in &out.results {
        assert!(
            surviving.contains(&r.url),
            "{} can only come from a live shard",
            r.url
        );
    }
}

/// An outage window that opens one virtual millisecond after a scatter
/// issued at [`GAP_NOW`]: the query legs (sent at `GAP_NOW`) get
/// through, the fetch legs (sent when the slowest query chain ends)
/// run into it.
const GAP_NOW: u64 = 100;

/// The shard that indexes `url` in a fleet of `shards`: strided
/// partitioning deals page `i` to shard `i % shards`.
fn shard_of(corpus: &Corpus, url: &str, shards: usize) -> usize {
    corpus.page_index_by_url(url).expect("a corpus url") % shards
}

fn outage_in_the_gap(plan: FaultPlan, endpoint: &str) -> FaultPlan {
    plan.outage(endpoint, GAP_NOW + 1, 1_000_000)
}

#[test]
fn primary_outage_between_phases_fetches_from_the_replica() {
    let corpus = corpus();
    let single = SearchEngine::new(corpus.clone());
    let config = SearchConfig::default();
    let healthy = ClusterWeb::new(shard_fleet(&corpus, 3), 0x5CA7).scatter(
        Vertical::Web,
        "game review",
        &config,
        10,
        GAP_NOW,
    );
    let plan = outage_in_the_gap(FaultPlan::new(), &shard_endpoint(0));
    let cluster = ClusterWeb::new(shard_fleet(&corpus, 3), 0x5CA7).with_fault_plan(plan);
    let out = cluster.scatter(Vertical::Web, "game review", &config, 10, GAP_NOW);
    // Shard 0's primary answered the query and hung on the fetch; its
    // replica served the fields: nothing degraded, nothing missing.
    assert_eq!(out.shards_answered, 3);
    assert_eq!(out.error, None);
    assert_eq!(
        out.results,
        single.search(Vertical::Web, "game review", &config, 10)
    );
    // The burned primary attempts are on the fetch phase's bill.
    assert!(
        out.virtual_ms > healthy.virtual_ms,
        "failover bill {} should exceed the healthy {}",
        out.virtual_ms,
        healthy.virtual_ms
    );
}

#[test]
fn shard_lost_between_phases_loses_its_winners_only() {
    let corpus = corpus();
    let single = SearchEngine::new(corpus.clone());
    let config = SearchConfig::default();
    let plan = outage_in_the_gap(FaultPlan::new(), &shard_endpoint(0));
    let plan = outage_in_the_gap(plan, &replica_endpoint(0));
    let cluster = ClusterWeb::new(shard_fleet(&corpus, 3), 0x5CA7).with_fault_plan(plan);
    let out = cluster.scatter(Vertical::Web, "game review", &config, 10, GAP_NOW);
    assert_eq!(out.shards_total, 3);
    assert_eq!(
        out.shards_answered, 2,
        "a failed fetch leg is an unanswered shard"
    );
    let err = out.error.expect("partial result carries an error");
    assert!(err.contains("shard(s) 0"), "error names the shard: {err}");
    // The page is the single-index page minus the winners shard 0
    // could not hydrate — in the same order, and not backfilled from
    // the survivors.
    let full = single.search(Vertical::Web, "game review", &config, 10);
    let kept: Vec<WebResult> = full
        .iter()
        .filter(|r| shard_of(&corpus, &r.url, 3) != 0)
        .cloned()
        .collect();
    assert!(kept.len() < full.len(), "shard 0 had winners to lose");
    assert_eq!(out.results, kept);
}

#[test]
fn breaker_opened_by_query_legs_fast_fails_the_fetch_leg_for_free() {
    let corpus = corpus();
    let config = SearchConfig::default();
    let plan = FaultPlan::new().outage(&shard_endpoint(0), 0, 10_000_000);
    let cluster = ClusterWeb::new(shard_fleet(&corpus, 2), 0x5CA7).with_fault_plan(plan);
    let mut now = 0u64;
    while cluster.breaker_state(&shard_endpoint(0), now) != BreakerState::Open {
        assert!(now < 20_000, "breaker opens under a sustained outage");
        cluster.scatter(Vertical::Web, "game review", &config, 10, now);
        now += 1_000;
    }
    // Both phases now skip the dead primary without a network
    // attempt: the bill is what a healthy fleet pays.
    let tripped = cluster.scatter(Vertical::Web, "game review", &config, 10, now);
    let healthy = ClusterWeb::new(shard_fleet(&corpus, 2), 0x5CA7).scatter(
        Vertical::Web,
        "game review",
        &config,
        10,
        now,
    );
    assert_eq!(tripped.shards_answered, 2);
    assert_eq!(tripped.results, healthy.results);
    assert_eq!(tripped.virtual_ms, healthy.virtual_ms);
}

#[test]
fn rendezvous_placement_is_deterministic_and_spreads() {
    let shards = 4;
    let mut counts = vec![0usize; shards];
    for i in 0..200 {
        let name = format!("tenant-{i}");
        let s = rendezvous_shard(&name, shards);
        assert_eq!(s, rendezvous_shard(&name, shards), "stable placement");
        counts[s] += 1;
    }
    for (s, &c) in counts.iter().enumerate() {
        assert!(
            c >= 20,
            "shard {s} got {c}/200 tenants — rendezvous should spread"
        );
    }
    // Growing the fleet only relocates tenants, never scrambles the
    // ones whose rendezvous winner is unchanged: the 4-shard winner
    // keeps winning among the first 4 when it also wins at 5.
    for i in 0..50 {
        let name = format!("tenant-{i}");
        let four = rendezvous_shard(&name, 4);
        let five = rendezvous_shard(&name, 5);
        assert!(five == four || five == 4, "HRW minimal disruption");
    }
}

fn web_app(name: &str, owner: TenantId) -> ApplicationConfig {
    let mut canvas = Canvas::new();
    let root = canvas.root_id();
    canvas
        .insert(
            root,
            Element::result_list("web", Element::text("{title}"), 10),
        )
        .unwrap();
    AppBuilder::new(name, owner)
        .layout(canvas)
        .source(
            "web",
            DataSourceDef::WebVertical {
                vertical: Vertical::Web,
                config: SearchConfig::default(),
            },
        )
        .build()
        .unwrap()
}

fn inventory_app(name: &str, owner: TenantId) -> ApplicationConfig {
    let mut canvas = Canvas::new();
    let root = canvas.root_id();
    canvas
        .insert(
            root,
            Element::result_list("inv", Element::text("{title}"), 10),
        )
        .unwrap();
    AppBuilder::new(name, owner)
        .layout(canvas)
        .source(
            "inv",
            DataSourceDef::Proprietary {
                table: "inv".into(),
            },
        )
        .build()
        .unwrap()
}

fn inventory_table() -> IndexedTable {
    let (table, _) = ingest(
        "inv",
        "title\nGalactic Raiders deluxe\nFarm Story pack\n",
        DataFormat::Csv,
    )
    .unwrap();
    let mut indexed = IndexedTable::new(table);
    indexed.enable_fulltext(&[("title", 1.0)]).unwrap();
    indexed
}

/// Two tenant names guaranteed to land on different shards.
fn two_spread_tenants(router: &Router) -> (String, String) {
    let first = "tenant-0".to_string();
    let home = router.home_shard(&first);
    for i in 1..64 {
        let name = format!("tenant-{i}");
        if router.home_shard(&name) != home {
            return (first, name);
        }
    }
    panic!("no spread among 64 tenant names");
}

#[test]
fn router_homes_tenants_and_serves_queries_bit_identically() {
    let corpus = corpus();
    let single = SearchEngine::new(corpus.clone());
    let mut router = Router::new(&corpus, 4, 1, 0xC0FFEE);
    let (a, b) = two_spread_tenants(&router);
    let sa = router.create_tenant(&a);
    let sb = router.create_tenant(&b);
    assert_ne!(sa, sb);
    assert_eq!(router.tenant_shard(&a), Some(sa));

    let dummy = TenantId(0); // overwritten by register_app
    let app_a = router.register_app(&a, web_app("AppA", dummy)).unwrap();
    let app_b = router.register_app(&b, web_app("AppB", dummy)).unwrap();
    router.publish(app_a).unwrap();
    router.publish(app_b).unwrap();

    let resp = router.query(app_a, "Galactic Raiders").unwrap();
    assert!(!resp.trace.shed && !resp.trace.degraded);
    // The rendered impressions follow the single-index ranking: the
    // scatter path is invisible to the application.
    let expected = single.search(
        Vertical::Web,
        "Galactic Raiders",
        &SearchConfig::default(),
        10,
    );
    let urls: Vec<&str> = resp
        .impressions
        .iter()
        .filter_map(|i| i.url.as_deref())
        .collect();
    let expected_urls: Vec<&str> = expected.iter().map(|r| r.url.as_str()).collect();
    assert_eq!(urls, expected_urls);
    assert!(router.query(app_b, "farm").is_ok());

    // Folded observability: both apps' queries show up, weighted into
    // one cluster summary; the repeat query hits an L1 cache somewhere
    // in the fleet and the folded cache stats see it.
    router.query(app_a, "Galactic Raiders").unwrap();
    let summary = router.traffic_summary();
    assert_eq!(summary.app, "cluster");
    assert_eq!(summary.queries, 3);
    assert_eq!(summary.shed_queries, 0);
    let cache = router.cache_stats();
    assert!(cache.hits >= 1, "repeat query hits the app cache");
    assert!(cache.misses >= 2, "first queries miss");
}

#[test]
fn move_tenant_rehomes_tables_apps_and_routes() {
    let corpus = corpus();
    let mut router = Router::new(&corpus, 3, 1, 0xC0FFEE);
    let name = "alice";
    let home = router.create_tenant(name);
    router.upload_table(name, inventory_table()).unwrap();
    let app = router
        .register_app(name, inventory_app("Shop", TenantId(0)))
        .unwrap();
    router.publish(app).unwrap();
    let before = router.query(app, "galactic").unwrap();
    assert!(before.html.contains("Galactic Raiders deluxe"));

    let target = (home + 1) % router.num_shards();
    router.move_tenant(name, target).unwrap();
    assert_eq!(router.tenant_shard(name), Some(target));
    // Same global app id, same table, new shard.
    let after = router.query(app, "galactic").unwrap();
    assert!(after.html.contains("Galactic Raiders deluxe"));
    assert!(!after.trace.degraded, "table moved with the tenant");
    // Moving to the current shard is a no-op.
    router.move_tenant(name, target).unwrap();
    assert_eq!(router.tenant_shard(name), Some(target));
}

mod sharded_equals_single {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The heart of the tentpole guarantee, under random corpora:
        /// for every shard count 1–8, scatter-gather over the
        /// document-partitioned fleet returns exactly — bit for bit —
        /// what one index over the whole corpus returns.
        #[test]
        fn sharded_equals_single(
            seed in 0u64..1_000,
            sites in 1usize..4,
            pages in 2usize..7,
            shards in 1usize..=8,
            k in 1usize..16,
            query_idx in 0usize..6,
            vertical_idx in 0usize..4,
        ) {
            let corpus = Corpus::generate(
                &CorpusConfig {
                    seed,
                    sites_per_topic: sites,
                    pages_per_site: pages,
                    ..CorpusConfig::default()
                }
                .with_entities(Topic::Games, ["Galactic Raiders"]),
            );
            let queries = [
                "Galactic Raiders",
                "game review",
                "+space farm",
                "\"Galactic Raiders\"",
                "lasers -golf",
                "news trailer",
            ];
            let query = queries[query_idx];
            let vertical = Vertical::ALL[vertical_idx];
            let single = SearchEngine::new(corpus.clone());
            let cluster = ClusterWeb::new(shard_fleet(&corpus, shards), seed);
            let config = SearchConfig::default();
            let out = cluster.scatter(vertical, query, &config, k, 0);
            prop_assert_eq!(out.shards_answered as usize, shards);
            prop_assert_eq!(out.error, None);
            prop_assert_eq!(
                result_bits(&out.results),
                result_bits(&single.search(vertical, query, &config, k))
            );
        }
    }
}

mod scatter_equals_search_in_full {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The two-phase scatter returns the whole single-index result
        /// — title, snippet, domain and media fields, not just url and
        /// score — under every designer customisation: the fetch
        /// phase must highlight the *augmented* query's words, and the
        /// fields must land on the winners in page order whichever
        /// shard supplied them.
        #[test]
        fn scatter_equals_search_in_full(
            seed in 0u64..1_000,
            sites in 1usize..4,
            pages in 2usize..7,
            shards in 1usize..=8,
            k in 1usize..16,
            query_idx in 0usize..6,
            vertical_idx in 0usize..4,
            restrict in proptest::collection::vec(any::<prop::sample::Index>(), 0..4),
            augment in proptest::collection::vec(0usize..5, 0..3),
            prefer in proptest::collection::vec(any::<prop::sample::Index>(), 0..3),
        ) {
            let corpus = Corpus::generate(
                &CorpusConfig {
                    seed,
                    sites_per_topic: sites,
                    pages_per_site: pages,
                    ..CorpusConfig::default()
                }
                .with_entities(Topic::Games, ["Galactic Raiders"]),
            );
            let queries = [
                "Galactic Raiders",
                "game review",
                "+space farm",
                "\"Galactic Raiders\"",
                "lasers -golf",
                "news trailer",
            ];
            let words = ["review", "game", "space", "trailer", "raiders"];
            let domain = |i: &prop::sample::Index| {
                corpus.sites[i.index(corpus.sites.len())].domain.clone()
            };
            let config = SearchConfig::default()
                .restrict_to(restrict.iter().map(domain))
                .augment(augment.iter().map(|&w| words[w]))
                .prefer(prefer.iter().map(domain));
            let query = queries[query_idx];
            let vertical = Vertical::ALL[vertical_idx];
            let single = SearchEngine::new(corpus.clone());
            let cluster = ClusterWeb::new(shard_fleet(&corpus, shards), seed);
            let out = cluster.scatter(vertical, query, &config, k, 0);
            let want = single.search(vertical, query, &config, k);
            prop_assert_eq!(out.shards_answered as usize, shards);
            prop_assert_eq!(out.error, None);
            prop_assert_eq!(result_bits(&out.results), result_bits(&want));
            prop_assert_eq!(out.results, want);
        }
    }
}

#[test]
fn full_shard_outage_serves_degraded_queries_through_the_router() {
    let corpus = corpus();
    let plan = FaultPlan::new()
        .outage(&shard_endpoint(1), 0, 10_000_000)
        .outage(&replica_endpoint(1), 0, 10_000_000);
    let mut router = Router::with_faults(&corpus, 3, 1, 0xC0FFEE, plan);
    let name = "tenant-0";
    router.create_tenant(name);
    let app = router
        .register_app(name, web_app("Chaos", TenantId(0)))
        .unwrap();
    router.publish(app).unwrap();
    let resp = router.query(app, "game review").unwrap();
    // The query serves: partial results, marked degraded, with the
    // silent shard named in the trace.
    assert!(resp.trace.degraded, "shard loss degrades, never errors");
    assert!(!resp.trace.shed);
    let rendered = format!("{:?}", resp.trace);
    assert!(
        rendered.contains("shard(s) 1"),
        "trace names the dead shard: {rendered}"
    );
    let summary = router.app_traffic_summary(app).unwrap();
    assert_eq!(summary.degraded_queries, 1);
}

#[test]
fn shard_lost_between_phases_degrades_the_router_response() {
    let corpus = corpus();
    let single = SearchEngine::new(corpus.clone());
    // A fresh router's first web fetch leaves at virtual time 1 (the
    // receive step): the query legs go out before the window opens at
    // 2, the fetch legs run into it.
    let plan = FaultPlan::new()
        .outage(&shard_endpoint(1), 2, 10_000_000)
        .outage(&replica_endpoint(1), 2, 10_000_000);
    let mut router = Router::with_faults(&corpus, 3, 1, 0xC0FFEE, plan);
    let name = "tenant-0";
    router.create_tenant(name);
    let app = router
        .register_app(name, web_app("Chaos", TenantId(0)))
        .unwrap();
    router.publish(app).unwrap();
    let resp = router
        .query(app, "game review")
        .expect("degraded, not an error");
    assert!(resp.trace.degraded && !resp.trace.shed);
    let rendered = format!("{:?}", resp.trace);
    assert!(
        rendered.contains("shard(s) 1"),
        "trace names the shard whose fetch failed: {rendered}"
    );
    // What renders is the single-index page without shard 1's winners
    // — not the survivors' own top ten, which is what a shard lost
    // before the query phase would have produced.
    let full = single.search(Vertical::Web, "game review", &SearchConfig::default(), 10);
    let kept: Vec<&str> = full
        .iter()
        .map(|r| r.url.as_str())
        .filter(|url| shard_of(&corpus, url, 3) != 1)
        .collect();
    assert!(!kept.is_empty() && kept.len() < full.len());
    let shown: Vec<&str> = resp
        .impressions
        .iter()
        .filter_map(|i| i.url.as_deref())
        .collect();
    assert_eq!(shown, kept);
}
