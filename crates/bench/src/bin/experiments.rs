//! Run the virtual-clock and quality experiments from DESIGN.md and
//! print their tables (EXPERIMENTS.md records a reference run).
//!
//! The paper itself reports no measurements; these experiments measure
//! the design properties the paper asserts, on the virtual clock or by
//! counting. Wall-clock numbers live in the ledger (`benchmark/`).
//!
//! ```text
//! cargo run --release -p symphony-bench --bin experiments [name...]
//! ```
//!
//! With no name every experiment runs; an unknown name runs nothing
//! and exits non-zero.

use symphony_baselines::{
    ndcg_at_k, BossModel, EureksterModel, GoogleBaseModel, GoogleCustomModel, RollyoModel,
    Scenario, SymphonyModel, SystemModel, EVAL_QUERIES,
};
use symphony_bench::traffic::{generate, replay, Arrival, BurstWindow, TrafficConfig};
use symphony_bench::{
    corpus, gamer_queen_world, overload_fleet_world, percentile, print_table, resilience_world,
    shard_fleet_world, shared_fleet_world, zipf_queries, ResilienceOptions, Scale, WorldOptions,
};
use symphony_core::hosting::QuotaConfig;
use symphony_core::runtime::ExecMode;
use symphony_core::ScatterSearch;
use symphony_services::rpc::{replica_endpoint, shard_endpoint};
use symphony_services::FaultPlan;
use symphony_store::{
    CmpOp, FieldType, Filter, HybridPlan, HybridQuery, HybridResult, IndexKind, IndexedTable,
    Record, Schema, Table, Value,
};
use symphony_text::{Doc, Index, IndexConfig, Query};
use symphony_web::{
    generate_logs, LogConfig, SearchConfig, SearchEngine, SiteSuggest, Topic, Vertical,
};

/// Every experiment by name, in the order a bare run takes them.
const EXPERIMENTS: [(&str, fn()); 12] = [
    ("e1", e1_fanout),
    ("e2", e2_cache),
    ("e-cache", e_cache_l2),
    ("e5", e5_quality),
    ("e7", e7_site_suggest),
    ("e9", e9_click_feedback),
    ("e10", e10_recommendation),
    ("e-resilience", e_resilience),
    ("e-ingest", e_ingest),
    ("e-overload", e_overload),
    ("e-shard", e_shard),
    ("e-hybrid", e_hybrid),
];

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if names.is_empty() {
        println!("SYMPHONY REPRODUCTION — EXPERIMENTS");
        println!("(shapes are the claims; absolute numbers are simulator-specific)");
        EXPERIMENTS.iter().for_each(|(_, run)| run());
        return;
    }
    // Resolve every name before running any, so a misspelt name fails
    // at once instead of after the experiments ahead of it.
    let runs: Vec<fn()> = names
        .iter()
        .map(|name| match EXPERIMENTS.iter().find(|(n, _)| n == name) {
            Some(&(_, run)) => run,
            None => {
                let valid: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
                eprintln!("unknown experiment {name:?}; valid: {}", valid.join(" "));
                std::process::exit(2);
            }
        })
        .collect();
    runs.iter().for_each(|run| run());
}

/// E1: parallel vs sequential supplemental fan-out.
fn e1_fanout() {
    let mut rows = Vec::new();
    for sources in 1..=4usize {
        let mut virt = [0u32; 2];
        for (i, mode) in [ExecMode::Parallel, ExecMode::Sequential]
            .into_iter()
            .enumerate()
        {
            let (platform, app) = gamer_queen_world(WorldOptions {
                scale: Scale::Small,
                mode,
                supplemental_sources: sources,
                primary_k: 10,
            });
            virt[i] = platform.query(app, "space shooter").expect("ok").virtual_ms;
        }
        rows.push(vec![
            sources.to_string(),
            virt[0].to_string(),
            virt[1].to_string(),
            format!("{:.1}x", virt[1] as f64 / virt[0].max(1) as f64),
        ]);
    }
    print_table(
        "E1 — supplemental fan-out: parallel vs sequential (virtual ms)",
        &["suppl sources", "parallel", "sequential", "speedup"],
        &rows,
    );
}

/// E2: result-cache ablation under Zipf skew.
fn e2_cache() {
    let mut rows = Vec::new();
    for skew in [0.6, 1.0, 1.4] {
        let queries = zipf_queries(300, skew, 11);
        // With cache (default TTL). The L2 source cache is disabled in
        // both rows: E2 isolates the per-app L1 response cache; the
        // shared L2 gets its own experiment (E-cache).
        let (with_cache, app) = gamer_queen_world(WorldOptions {
            scale: Scale::Small,
            ..WorldOptions::default()
        });
        let with_cache = with_cache.with_source_cache(symphony_core::SourceCacheConfig::disabled());
        let mut total_ms = 0u64;
        for q in &queries {
            total_ms += with_cache.query(app, q).expect("ok").virtual_ms as u64;
        }
        let stats = with_cache.cache_stats(app).expect("exists");
        // Without cache: a world built with zero TTL from the start
        // (the quota config is captured at app registration).
        let (no_cache, app2) = gamer_queen_world_no_cache();
        let mut nc_total_ms = 0u64;
        for q in &queries {
            nc_total_ms += no_cache.query(app2, q).expect("ok").virtual_ms as u64;
        }
        rows.push(vec![
            format!("{skew:.1}"),
            format!("{:.0}%", stats.hit_rate() * 100.0),
            format!("{:.1}", total_ms as f64 / queries.len() as f64),
            format!("{:.1}", nc_total_ms as f64 / queries.len() as f64),
        ]);
    }
    print_table(
        "E2 — result cache under Zipf query skew (300 queries)",
        &[
            "zipf s",
            "hit rate",
            "mean ms (cache)",
            "mean ms (no cache)",
        ],
        &rows,
    );
}

/// E-cache: the platform-wide L2 source cache vs the per-app L1
/// alone. Eight structurally-identical apps on separate tenants share
/// the review vertical and the pricing endpoint; a Zipf stream is
/// round-robined across them, so the L1 only helps when the *same*
/// app sees a repeat while the L2 reuses any app's fetches.
fn e_cache_l2() {
    let queries = zipf_queries(400, 1.0, 23);
    let mut rows = Vec::new();
    for (label, l2) in [("L1 only", false), ("L1+L2", true)] {
        let (platform, ids) = shared_fleet_world(8, l2);
        let mut lat = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            lat.push(
                platform
                    .query(ids[i % ids.len()], q)
                    .expect("ok")
                    .virtual_ms,
            );
        }
        let (mut l1_hits, mut l1_lookups) = (0u64, 0u64);
        for &id in &ids {
            let s = platform.cache_stats(id).expect("exists");
            l1_hits += s.hits;
            l1_lookups += s.hits + s.misses;
        }
        let s2 = platform.source_cache_stats();
        let avoided = s2.hits + s2.negative_hits + s2.coalesced;
        let mean = lat.iter().map(|&v| v as u64).sum::<u64>() as f64 / lat.len() as f64;
        let dash = || "-".to_string();
        rows.push(vec![
            label.to_string(),
            format!("{:.0}%", l1_hits as f64 / l1_lookups.max(1) as f64 * 100.0),
            if l2 {
                format!("{:.0}%", s2.hit_rate() * 100.0)
            } else {
                dash()
            },
            if l2 {
                s2.executions.to_string()
            } else {
                dash()
            },
            if l2 { avoided.to_string() } else { dash() },
            if l2 { s2.coalesced.to_string() } else { dash() },
            format!("{mean:.1}"),
            percentile(&lat, 0.5).to_string(),
            percentile(&lat, 0.99).to_string(),
        ]);
    }
    print_table(
        "E-cache — shared L2 source cache, 8-app fleet (400 Zipf queries, s=1.0)",
        &[
            "config",
            "L1 hit",
            "L2 hit",
            "src execs",
            "fetches avoided",
            "coalesced",
            "mean ms",
            "p50",
            "p99",
        ],
        &rows,
    );
}

fn gamer_queen_world_no_cache() -> (symphony_core::Platform, symphony_core::AppId) {
    // A world whose app cache expires instantly (TTL 0) and whose L2
    // source cache is off; the quota must be set before app
    // registration, so this builds manually.
    use symphony_core::hosting::Platform;
    let mut p = Platform::new(SearchEngine::new(corpus(Scale::Small)))
        .with_quotas(QuotaConfig {
            cache_ttl_ms: 0,
            requests_per_minute: 1_000_000,
            ..QuotaConfig::default()
        })
        .with_source_cache(symphony_core::SourceCacheConfig::disabled());
    let (tenant, key) = p.create_tenant("GamerQueen");
    let (table, _) = symphony_store::ingest::ingest(
        "inventory",
        symphony_bench::INVENTORY_CSV,
        symphony_store::DataFormat::Csv,
    )
    .expect("parses");
    let mut indexed = symphony_store::IndexedTable::new(table);
    indexed
        .enable_fulltext(&[("title", 2.0), ("genre", 1.0), ("description", 1.0)])
        .expect("columns");
    p.upload_table(tenant, &key, indexed).expect("quota");
    p.transport_mut().register(
        "pricing",
        Box::new(symphony_services::PricingService),
        symphony_services::LatencyModel::fast(),
    );
    use symphony_core::app::AppBuilder;
    use symphony_core::source::DataSourceDef;
    use symphony_designer::{Canvas, Element};
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
                vertical: symphony_web::Vertical::Web,
                config: symphony_web::SearchConfig::default()
                    .restrict_to(symphony_bench::REVIEW_SITES),
            },
        )
        .source(
            "pricing",
            DataSourceDef::Service {
                endpoint: "pricing".into(),
                operation: "/price".into(),
                item_param: "item".into(),
                policy: symphony_services::CallPolicy::default(),
            },
        )
        .supplemental("reviews", "{title} review")
        .supplemental("pricing", "{title}")
        .build()
        .expect("valid");
    let id = p.register_app(config).expect("registers");
    p.publish(id).expect("publishes");
    (p, id)
}

/// E5: integration quality vs every baseline (NDCG@10).
fn e5_quality() {
    let scenario = Scenario::new(3, 6);
    let mut models: Vec<Box<dyn SystemModel>> = vec![
        Box::new(SymphonyModel::new(&scenario)),
        Box::new(BossModel::new(scenario.engine.clone())),
        Box::new(RollyoModel::new(scenario.engine.clone())),
        Box::new(EureksterModel::new(scenario.engine.clone())),
        Box::new(GoogleCustomModel::new(scenario.engine.clone())),
        Box::new(GoogleBaseModel::new(scenario.engine.clone())),
    ];
    let mut rows = Vec::new();
    for m in &mut models {
        let mut per_query = Vec::new();
        for (query, target) in EVAL_QUERIES {
            let results = m.answer(query, 10);
            per_query.push(ndcg_at_k(&results, target, 10));
        }
        let mean = per_query.iter().sum::<f64>() / per_query.len() as f64;
        rows.push(vec![
            m.name().to_string(),
            format!("{mean:.3}"),
            per_query
                .iter()
                .map(|s| format!("{s:.2}"))
                .collect::<Vec<_>>()
                .join(" "),
        ]);
    }
    print_table(
        "E5 — GamerQueen scenario quality, NDCG@10 vs constructed ideal",
        &["system", "mean", "per-query"],
        &rows,
    );
}

/// E7: Site Suggest precision vs click-log size.
fn e7_site_suggest() {
    let engine = SearchEngine::new(corpus(Scale::Medium));
    let mut rows = Vec::new();
    for sessions in [50usize, 200, 800] {
        let logs = generate_logs(
            &engine,
            &LogConfig {
                sessions,
                topics: vec![Topic::Games, Topic::Wine, Topic::Movies],
                ..LogConfig::default()
            },
        );
        let suggest = SiteSuggest::from_logs(&logs);
        let suggestions = suggest.suggest(&["gamespot.com"], 3);
        // Relevant = the other authoritative game-review sites.
        let relevant = ["ign.com", "teamxbox.com"];
        let hits = suggestions
            .iter()
            .filter(|s| relevant.contains(&s.domain.as_str()))
            .count();
        rows.push(vec![
            sessions.to_string(),
            logs.len().to_string(),
            suggest.known_sites().to_string(),
            suggestions
                .iter()
                .map(|s| s.domain.clone())
                .collect::<Vec<_>>()
                .join(", "),
            format!("{:.2}", hits as f64 / relevant.len() as f64),
        ]);
    }
    print_table(
        "E7 — Site Suggest: recall of related review sites vs log size (seed: gamespot.com)",
        &[
            "sessions",
            "clicks",
            "sites seen",
            "top-3 suggestions",
            "recall@3",
        ],
        &rows,
    );
}

/// E9: click-feedback relevance signals (paper §IV conclusion):
/// community click logs feed boosts back into the general engine;
/// measure how far the most-clicked review pages rise.
fn e9_click_feedback() {
    let mut engine = SearchEngine::new(corpus(Scale::Medium));
    let logs = generate_logs(
        &engine,
        &LogConfig {
            sessions: 400,
            topics: vec![Topic::Games],
            ..LogConfig::default()
        },
    );
    // The most-clicked URLs per query, ground truth from the logs.
    let mut rows = Vec::new();
    let mut improved = 0usize;
    let mut total = 0usize;
    let queries: Vec<String> = {
        let mut qs: Vec<String> = logs.iter().map(|l| l.query.clone()).collect();
        qs.sort();
        qs.dedup();
        qs.truncate(8);
        qs
    };
    let top_clicked = |q: &str| -> Option<String> {
        let mut counts = std::collections::HashMap::new();
        for l in logs.iter().filter(|l| l.query == q) {
            *counts.entry(l.url.clone()).or_insert(0usize) += 1;
        }
        // The most clicks, ties to the smallest URL: a `HashMap`'s
        // iteration order changes from one process to the next.
        counts
            .into_iter()
            .max_by(|(ua, ca), (ub, cb)| ca.cmp(cb).then_with(|| ub.cmp(ua)))
            .map(|(u, _)| u)
    };
    let rank_of = |engine: &SearchEngine, q: &str, url: &str| -> Option<usize> {
        engine
            .search(
                symphony_web::Vertical::Web,
                q,
                &symphony_web::SearchConfig::default(),
                10,
            )
            .iter()
            .position(|r| r.url == url)
    };
    let before: Vec<(String, Option<usize>, String)> = queries
        .iter()
        .filter_map(|q| {
            let url = top_clicked(q)?;
            Some((q.clone(), rank_of(&engine, q, &url), url))
        })
        .collect();
    engine.apply_click_feedback(&logs, 1.0);
    for (q, before_rank, url) in before {
        let after_rank = rank_of(&engine, &q, &url);
        if let (Some(b), Some(a)) = (before_rank, after_rank) {
            total += 1;
            if a <= b {
                improved += 1;
            }
            rows.push(vec![
                q.clone(),
                format!("#{}", b + 1),
                format!("#{}", a + 1),
            ]);
        }
    }
    rows.push(vec![
        "— not demoted —".into(),
        String::new(),
        format!("{improved}/{total}"),
    ]);
    print_table(
        "E9 — click-feedback loop: rank of each query's most-clicked URL",
        &["query", "before", "after"],
        &rows,
    );
}

/// E10: supplemental-site recommendation quality (paper §IV:
/// "recommending suitable supplemental content ... for a designer's
/// primary content").
fn e10_recommendation() {
    use symphony_core::recommend_sites;
    use symphony_store::IndexedTable;
    let engine = SearchEngine::new(corpus(Scale::Medium));
    let (table, _) = symphony_store::ingest::ingest(
        "inventory",
        symphony_bench::INVENTORY_CSV,
        symphony_store::DataFormat::Csv,
    )
    .expect("parses");
    let inventory = IndexedTable::new(table);
    let recs = recommend_sites(&engine, &inventory, "title", 8, 2);
    let mut rows: Vec<Vec<String>> = recs
        .iter()
        .take(6)
        .map(|r| {
            vec![
                r.domain.clone(),
                format!("{:.2}", r.score),
                r.supporting_entities.to_string(),
                if symphony_bench::REVIEW_SITES.contains(&r.domain.as_str()) {
                    "yes (paper §II-B)".into()
                } else {
                    "".into()
                },
            ]
        })
        .collect();
    let hand_picked_in_top3 = recs
        .iter()
        .take(3)
        .filter(|r| symphony_bench::REVIEW_SITES.contains(&r.domain.as_str()))
        .count();
    rows.push(vec![
        "— precision@3 vs Ann's picks —".into(),
        String::new(),
        String::new(),
        format!("{:.2}", hand_picked_in_top3 as f64 / 3.0),
    ]);
    print_table(
        "E10 — supplemental-site recommendation for the GamerQueen inventory",
        &[
            "recommended domain",
            "score",
            "entity support",
            "hand-picked?",
        ],
        &rows,
    );
}

/// E-resilience: virtual query-latency distribution under a planned
/// fault schedule, for three client configurations over the *same*
/// workload. The claim is a shape: circuit breakers turn an outage's
/// `timeout × attempts` tail into fast-fails, and hedging+backoff
/// shaves the burst/jitter tail further — so p99 drops sharply vs the
/// naive retry client while the degraded-query rate stays comparable.
fn e_resilience() {
    use symphony_services::{BreakerConfig, CallPolicy, FaultPlan};

    let faults = || {
        FaultPlan::new()
            .outage("pricing", 10_000, 25_000)
            .latency_spike("pricing", 40_000, 55_000, 150)
            .fault_burst("pricing", 70_000, 85_000, 0.5)
    };
    let base_policy = CallPolicy {
        timeout_ms: 250,
        retries: 2,
        ..CallPolicy::default()
    };
    let tuned_breaker = BreakerConfig {
        failure_threshold: 5,
        open_ms: 5_000,
        half_open_successes: 2,
    };
    let configs: Vec<(&str, CallPolicy, BreakerConfig)> = vec![
        ("naive retry", base_policy, BreakerConfig::disabled()),
        ("breaker", base_policy, tuned_breaker),
        (
            "breaker+backoff+hedge",
            CallPolicy {
                timeout_ms: 250,
                retries: 2,
                backoff_base_ms: 25,
                backoff_cap_ms: 500,
                hedge_after_ms: Some(60),
            },
            tuned_breaker,
        ),
    ];

    let queries = zipf_queries(400, 1.1, 17);
    let mut rows = Vec::new();
    for (label, policy, breakers) in configs {
        let (platform, id) = resilience_world(ResilienceOptions {
            policy,
            breakers,
            resilience: symphony_core::ResiliencePolicy {
                query_deadline_ms: 1_000,
                per_source_budget_ms: 800,
                max_total_retries: u32::MAX,
            },
            faults: faults(),
        });
        let mut latencies = Vec::with_capacity(queries.len());
        let mut degraded = 0u64;
        for q in &queries {
            let resp = platform.query(id, q).expect("ok");
            latencies.push(resp.virtual_ms);
            if resp.trace.degraded {
                degraded += 1;
            }
            platform.advance_clock(180); // think time between requests
        }
        rows.push(vec![
            label.to_string(),
            percentile(&latencies, 0.50).to_string(),
            percentile(&latencies, 0.95).to_string(),
            percentile(&latencies, 0.99).to_string(),
            latencies.iter().max().copied().unwrap_or(0).to_string(),
            format!("{:.1}%", 100.0 * degraded as f64 / queries.len() as f64),
        ]);
    }
    print_table(
        "E-resilience — virtual latency under outage+spike+burst (400 queries, virtual ms)",
        &["client", "p50", "p95", "p99", "max", "degraded"],
        &rows,
    );
}

/// E-ingest: live incremental ingest under the segment-lifecycle
/// policy. A quarter of the corpus is bulk-loaded and compacted; the
/// rest streams in one document per virtual millisecond under a
/// near-real-time policy, mixed with re-crawls (updates) and removals
/// (deletes), with a maintenance tick every virtual ms driving seals
/// and tiered merges. Per-document visibility timestamps measure
/// staleness against the policy's bound. A machine-readable snapshot
/// lands in `BENCH_ingest.json`; ingest and read latency under merge
/// pressure are the ledger's `live_ingest` workload.
fn e_ingest() {
    use symphony_text::{DocId, SegmentPolicy};

    let c = corpus(Scale::Medium);
    let pages: Vec<(String, String)> = c
        .pages
        .iter()
        .map(|p| (p.title.clone(), p.body.clone()))
        .collect();
    let seed_n = pages.len() / 4;

    let policy = SegmentPolicy {
        memtable_max_docs: 32,
        staleness_window_ms: 50,
        merge_fanin: 4,
        near_real_time: true,
    };
    let mut index = Index::new(IndexConfig::default());
    let title = index.register_field("title", 2.0);
    let body = index.register_field("body", 1.0);
    let batch: Vec<Doc> = pages[..seed_n]
        .iter()
        .map(|(t, b)| Doc::new().field(title, t.clone()).field(body, b.clone()))
        .collect();
    index.build_parallel(batch, 4);
    index.optimize();
    index.set_policy(policy);

    // Stream the rest: each virtual ms one arrival — mostly fresh
    // documents, every 5th a re-crawl of an earlier doc, every 7th a
    // removal — then a maintenance tick.
    let mut now_ms = 0u64;
    let mut pending: Vec<u64> = Vec::new(); // add times awaiting a seal
    let mut max_staleness = 0u64;
    let (mut seals, mut merges, mut purged) = (0usize, 0usize, 0usize);
    let (mut added, mut updated, mut deleted) = (0usize, 0usize, 0usize);
    for (i, (t, b)) in pages[seed_n..].iter().enumerate() {
        now_ms += 1;
        if i % 7 == 6 {
            // Removal of a bulk-loaded document.
            if index.delete(DocId((i % seed_n) as u32)) {
                deleted += 1;
            }
        } else if i % 5 == 4 {
            // Re-crawl: tombstone the most recent arrival and re-add
            // it under a fresh doc id.
            let old = DocId((index.total_docs() - 1) as u32);
            if index
                .update(
                    old,
                    Doc::new().field(title, t.clone()).field(body, b.clone()),
                )
                .is_some()
            {
                updated += 1;
                pending.push(now_ms);
            }
        } else {
            index.add(Doc::new().field(title, t.clone()).field(body, b.clone()));
            added += 1;
            pending.push(now_ms);
        }
        let report = index.maintain(now_ms);
        seals += usize::from(report.sealed);
        merges += report.merged_segments;
        purged += report.purged_docs;
        if report.sealed {
            // Everything buffered since the previous seal just became
            // visible; its staleness is the wait for this seal.
            for &at in &pending {
                max_staleness = max_staleness.max(now_ms - at);
            }
            pending.clear();
        }
    }
    let streamed = pages.len() - seed_n;
    let stats = index.stats();

    print_table(
        &format!("E-ingest — live ingest, {streamed} arrivals (NRT, window 50ms)"),
        &[
            "adds",
            "recrawls",
            "deletes",
            "max staleness ms",
            "seals",
            "merges",
            "purged",
            "sealed segments",
        ],
        &[vec![
            added.to_string(),
            updated.to_string(),
            deleted.to_string(),
            max_staleness.to_string(),
            seals.to_string(),
            merges.to_string(),
            purged.to_string(),
            stats.sealed_segments.to_string(),
        ]],
    );

    // Machine-readable snapshot (hand-rolled JSON; no serde in-tree).
    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"e-ingest\",\n",
            "  \"seed_docs\": {},\n",
            "  \"streamed_docs\": {},\n",
            "  \"adds\": {},\n",
            "  \"recrawls\": {},\n",
            "  \"deletes\": {},\n",
            "  \"staleness_window_ms\": {},\n",
            "  \"max_staleness_ms\": {},\n",
            "  \"seals\": {},\n",
            "  \"merges\": {},\n",
            "  \"purged_docs\": {},\n",
            "  \"final_sealed_segments\": {}\n",
            "}}\n"
        ),
        seed_n,
        streamed,
        added,
        updated,
        deleted,
        policy.staleness_window_ms,
        max_staleness,
        seals,
        merges,
        purged,
        stats.sealed_segments,
    );
    std::fs::write("BENCH_ingest.json", &json).expect("write BENCH_ingest.json");
    println!("wrote BENCH_ingest.json");

    // The acceptance claims, enforced wherever the experiment runs
    // (the CI smoke step relies on these panicking on regression).
    assert!(
        max_staleness <= policy.staleness_window_ms + 1,
        "staleness bound violated: {max_staleness}ms > window {}ms",
        policy.staleness_window_ms
    );
    assert!(
        merges > 0 && seals > 0,
        "stream too small to exercise merge pressure"
    );
}

/// One cell of the E-overload SLO grid.
struct OverloadCell {
    factor: f64,
    ac: bool,
    offered_qps: f64,
    goodput_qps: f64,
    shed_rate: f64,
    p50: u32,
    p99: u32,
    p999: u32,
    nonburst_p99: u32,
    tenant0_shed_rate: f64,
    fairness_tv: f64,
}

/// E-overload: per-tenant admission control under open-loop overload.
///
/// A six-tenant fleet (Zipf-popular, caches disabled so every query
/// pays its real service time) is provisioned with token-bucket rates
/// summing to ~85% of pilot-measured capacity, then driven by the
/// open-loop traffic generator at 0.5×–10× capacity with a tenant-0
/// flash crowd in every run. Each offered-load factor runs twice —
/// admission control on and off — over the *same* arrival schedule, so
/// the two columns differ only in policy. A separate million-session
/// cell (caches on, clicks on) exercises the harness at scale.
///
/// `OVERLOAD_SESSIONS` scales the whole experiment down for CI smokes.
fn e_overload() {
    use symphony_core::AdmissionPolicy;

    const TENANTS: usize = 6;
    const SKEW: f64 = 0.8;
    // Mean arrivals per generated session (1 + min of two U{0..3}).
    const QUERIES_PER_SESSION: f64 = 1.875;

    let scale_sessions: usize = std::env::var("OVERLOAD_SESSIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    let grid_sessions = (scale_sessions / 80).clamp(2_000, 12_000);

    // Query pool: every text matches at least one inventory row, so
    // every executed query pays the supplemental pricing fan-out.
    let pool: Vec<String> = [
        "galactic raiders",
        "space shooter",
        "fast lasers",
        "farm story",
        "calm farming",
        "crops and animals",
        "space trader",
        "trade goods",
        "space stations",
        "laser golf",
        "silly shooter",
        "golf with lasers",
        "puzzle palace",
        "puzzle rooms",
        "mind bending",
        "space",
        "shooter",
        "lasers",
        "farming",
        "puzzle",
    ]
    .iter()
    .map(|q| q.to_string())
    .collect();

    // Pilot: measure mean service time on an unlimited, cache-less
    // fleet; capacity is its reciprocal. The pilot replays the
    // generator's own (tenant, query) mix back-to-back — query
    // popularity is Zipf-skewed, so a uniform sweep of the pool would
    // underestimate the mean and overprovision the buckets.
    let (pilot, pilot_ids) = overload_fleet_world(TENANTS, &[], false);
    let pilot_mix = generate(&TrafficConfig {
        tenants: TENANTS,
        sessions: 400,
        tenant_skew: SKEW,
        duration_ms: 600_000,
        diurnal_amplitude: 0.0,
        query_pool: pool.len(),
        click_base: 0.0,
        bursts: Vec::new(),
        seed: 0x1075,
    });
    let pilot_start = pilot.clock_ms();
    for a in &pilot_mix {
        pilot
            .query(pilot_ids[a.tenant as usize], &pool[a.query as usize])
            .expect("pilot query");
    }
    let mean_service_ms = (pilot.clock_ms() - pilot_start) as f64 / pilot_mix.len() as f64;
    let capacity_qps = 1000.0 / mean_service_ms;

    // Provision ~85% of capacity across tenants by Zipf share, using
    // largest-remainder rounding so the integer rates sum exactly to
    // the target. Weight follows rate, so fair scheduling and
    // admission agree on each tenant's entitlement.
    let target_total = (0.85 * capacity_qps).round().max(TENANTS as f64) as u64;
    let shares: Vec<f64> = {
        let raw: Vec<f64> = (1..=TENANTS).map(|r| 1.0 / (r as f64).powf(SKEW)).collect();
        let sum: f64 = raw.iter().sum();
        raw.into_iter().map(|s| s / sum).collect()
    };
    let mut rates: Vec<u64> = shares
        .iter()
        .map(|s| (target_total as f64 * s).floor() as u64)
        .collect();
    let mut remainders: Vec<(f64, usize)> = shares
        .iter()
        .enumerate()
        .map(|(i, s)| (target_total as f64 * s - rates[i] as f64, i))
        .collect();
    remainders.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("no NaN"));
    let mut left = target_total.saturating_sub(rates.iter().sum::<u64>());
    for (_, i) in remainders {
        if left == 0 {
            break;
        }
        rates[i] += 1;
        left -= 1;
    }
    for r in &mut rates {
        *r = (*r).max(1);
    }
    let provisioned_qps: u64 = rates.iter().sum();
    let policies: Vec<AdmissionPolicy> = rates
        .iter()
        .map(|&r| AdmissionPolicy {
            rate_per_sec: r as u32,
            // Flat burst of 2 for every tenant: enough headroom to
            // absorb a back-to-back query pair, small enough that the
            // admitted stream stays token-paced. Rate-sized bursts let
            // big tenants bank several tokens and fire them adjacently,
            // which shows up directly in the platform-wide p99.
            burst: 2,
            max_concurrency: 16,
            weight: r as u32,
        })
        .collect();

    println!("\n## E-overload: admission control under open-loop overload");
    println!(
        "capacity {capacity_qps:.1} qps (mean service {mean_service_ms:.1} ms), \
         provisioned {provisioned_qps} qps across {TENANTS} tenants (rates {rates:?})"
    );

    let run_cell = |factor: f64, ac: bool, flash: bool| -> OverloadCell {
        let (platform, ids) =
            overload_fleet_world(TENANTS, if ac { &policies } else { &[] }, false);
        let mut config = TrafficConfig {
            tenants: TENANTS,
            sessions: grid_sessions,
            tenant_skew: SKEW,
            duration_ms: ((grid_sessions as f64 * QUERIES_PER_SESSION) / (factor * capacity_qps)
                * 1000.0) as u64,
            diurnal_amplitude: 0.35,
            query_pool: pool.len(),
            click_base: 0.0,
            bursts: Vec::new(),
            seed: 0xACE0 + (factor * 10.0) as u64,
        };
        // Second pass pins the offered rate: regenerate with the
        // duration implied by the actual arrival count.
        let probe = generate(&config).len();
        config.duration_ms = (probe as f64 / (factor * capacity_qps) * 1000.0) as u64;
        // Tenant-0 flash crowd across 10% of the run, in every grid
        // cell (the unloaded baseline runs without it).
        if flash {
            config.bursts = vec![BurstWindow {
                tenant: 0,
                start_ms: config.duration_ms * 2 / 5,
                end_ms: config.duration_ms / 2,
                extra_sessions: grid_sessions / 16,
            }];
        }
        let arrivals = generate(&config);
        // Measure steady state: skip the first fifth (cold full buckets
        // admit one free burst) and stop at the end of the offered
        // window (think-time stragglers trail off past it).
        let window = (config.duration_ms / 5, config.duration_ms);
        let report = replay(&platform, &ids, &pool, &arrivals, false, Some(window));
        let offered = report.tenants.iter().map(|t| t.offered).sum::<u64>();
        let offered_qps = offered as f64 * 1000.0 / (window.1 - window.0).max(1) as f64;
        if std::env::var("OVERLOAD_DEBUG").is_ok() {
            let w_s = (window.1 - window.0) as f64 / 1000.0;
            for (i, t) in report.tenants.iter().enumerate() {
                eprintln!(
                    "debug f={factor} ac={ac} tenant {i}: offered {:.2}/s served {:.2}/s shed {:.2}/s",
                    t.offered as f64 / w_s,
                    t.served as f64 / w_s,
                    t.shed as f64 / w_s,
                );
            }
        }
        let latencies = report.all_latencies();
        let nonburst: Vec<u32> = report.tenants[1..]
            .iter()
            .flat_map(|t| t.latencies.iter().copied())
            .collect();
        let offered0 = report.tenants[0].offered.max(1);
        let rate_total: f64 = rates.iter().sum::<u64>() as f64;
        let fairness_tv = 0.5
            * report
                .tenants
                .iter()
                .zip(&rates)
                .map(|(t, r)| {
                    (t.served as f64 / report.served.max(1) as f64 - *r as f64 / rate_total).abs()
                })
                .sum::<f64>();
        OverloadCell {
            factor,
            ac,
            offered_qps,
            goodput_qps: report.goodput_qps(),
            shed_rate: report.shed as f64 / (report.served + report.shed).max(1) as f64,
            p50: percentile(&latencies, 0.50),
            p99: percentile(&latencies, 0.99),
            p999: percentile(&latencies, 0.999),
            nonburst_p99: percentile(&nonburst, 0.99),
            tenant0_shed_rate: report.tenants[0].shed as f64 / offered0 as f64,
            fairness_tv,
        }
    };

    // Unloaded SLO reference: half load, no flash crowd, no admission
    // interference — the latency a correctly-provisioned tenant sees.
    let unloaded = run_cell(0.5, false, false);
    println!(
        "unloaded baseline (0.5x offered, no flash crowd, AC off): \
         p50 {} ms, p99 {} ms, p999 {} ms",
        unloaded.p50, unloaded.p99, unloaded.p999,
    );

    let mut cells = Vec::new();
    for &factor in &[0.5, 1.0, 2.0, 4.0, 10.0] {
        for ac in [true, false] {
            cells.push(run_cell(factor, ac, true));
        }
    }
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                format!("{:.1}x", c.factor),
                if c.ac { "on" } else { "off" }.to_string(),
                format!("{:.1}", c.offered_qps),
                format!("{:.1}", c.goodput_qps),
                format!("{:.1}%", c.shed_rate * 100.0),
                c.p50.to_string(),
                c.p99.to_string(),
                c.p999.to_string(),
                c.nonburst_p99.to_string(),
                format!("{:.1}%", c.tenant0_shed_rate * 100.0),
                format!("{:.3}", c.fairness_tv),
            ]
        })
        .collect();
    print_table(
        &format!(
            "E-overload — SLO grid, {grid_sessions} sessions/cell, tenant-0 burst in every run"
        ),
        &[
            "load", "AC", "offered", "goodput", "shed", "p50", "p99", "p999", "nb-p99", "t0-shed",
            "fair-tv",
        ],
        &rows,
    );

    // Million-session scale cell: caches on, clicks on, generous
    // admission — the harness itself at full width.
    let (scale_platform, scale_ids) = overload_fleet_world(TENANTS, &[], true);
    let scale_config = TrafficConfig {
        tenants: TENANTS,
        sessions: scale_sessions,
        tenant_skew: SKEW,
        duration_ms: ((scale_sessions as f64 * QUERIES_PER_SESSION) / 200.0 * 1000.0) as u64,
        diurnal_amplitude: 0.35,
        query_pool: pool.len(),
        click_base: 0.3,
        bursts: Vec::new(),
        seed: 0x5CA1E,
    };
    let scale_arrivals = generate(&scale_config);
    let wall = std::time::Instant::now();
    let scale_report = replay(
        &scale_platform,
        &scale_ids,
        &pool,
        &scale_arrivals,
        true,
        None,
    );
    let wall_s = wall.elapsed().as_secs_f64().max(1e-9);
    let scale_latencies = scale_report.all_latencies();
    let scale_p99 = percentile(&scale_latencies, 0.99);
    let replay_qps_wall = scale_arrivals.len() as f64 / wall_s;
    println!(
        "\nscale cell: {} sessions -> {} arrivals, {} served, {} clicks, \
         p99 {scale_p99} ms virtual, replayed at {replay_qps_wall:.0} q/s wall ({wall_s:.1} s)",
        scale_sessions,
        scale_arrivals.len(),
        scale_report.served,
        scale_report.clicks,
    );

    let sessions_modeled = grid_sessions * (cells.len() + 1) + scale_sessions;
    let on4 = cells
        .iter()
        .find(|c| c.factor == 4.0 && c.ac)
        .expect("4x AC-on cell");
    let off4 = cells
        .iter()
        .find(|c| c.factor == 4.0 && !c.ac)
        .expect("4x AC-off cell");

    let mut cells_json = String::new();
    for (i, c) in cells.iter().enumerate() {
        cells_json.push_str(&format!(
            "    {{ \"factor\": {}, \"ac\": {}, \"offered_qps\": {:.1}, \
             \"goodput_qps\": {:.1}, \"shed_rate\": {:.3}, \"p50_ms\": {}, \
             \"p99_ms\": {}, \"p999_ms\": {}, \"nonburst_p99_ms\": {}, \
             \"tenant0_shed_rate\": {:.3}, \"fairness_tv\": {:.3} }}{}\n",
            c.factor,
            c.ac,
            c.offered_qps,
            c.goodput_qps,
            c.shed_rate,
            c.p50,
            c.p99,
            c.p999,
            c.nonburst_p99,
            c.tenant0_shed_rate,
            c.fairness_tv,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"e-overload\",\n",
            "  \"capacity_qps\": {:.1},\n",
            "  \"mean_service_ms\": {:.1},\n",
            "  \"provisioned_qps\": {},\n",
            "  \"tenant_rates_qps\": {:?},\n",
            "  \"sessions_modeled\": {},\n",
            "  \"grid_sessions_per_cell\": {},\n",
            "  \"scale_sessions\": {},\n",
            "  \"scale_arrivals\": {},\n",
            "  \"scale_served\": {},\n",
            "  \"scale_clicks\": {},\n",
            "  \"scale_p99_ms\": {},\n",
            "  \"scale_replay_qps_wall\": {:.0},\n",
            "  \"unloaded_p99_ms\": {},\n",
            "  \"cells\": [\n{}  ]\n",
            "}}\n"
        ),
        capacity_qps,
        mean_service_ms,
        provisioned_qps,
        rates,
        sessions_modeled,
        grid_sessions,
        scale_sessions,
        scale_arrivals.len(),
        scale_report.served,
        scale_report.clicks,
        scale_p99,
        replay_qps_wall,
        unloaded.p99,
        cells_json,
    );
    std::fs::write("BENCH_overload.json", &json).expect("write BENCH_overload.json");
    println!("wrote BENCH_overload.json");

    // The acceptance claims, enforced wherever the experiment runs
    // (the CI smoke step relies on these panicking on regression).
    assert!(
        on4.nonburst_p99 <= 2 * unloaded.p99.max(1),
        "4x overload with AC on must hold non-burst p99 within 2x of unloaded: \
         {} ms vs unloaded {} ms",
        on4.nonburst_p99,
        unloaded.p99,
    );
    assert!(
        on4.goodput_qps >= 0.8 * capacity_qps,
        "4x overload with AC on must keep goodput >= 80% of capacity: \
         {:.1} qps vs capacity {:.1} qps",
        on4.goodput_qps,
        capacity_qps,
    );
    assert!(
        off4.p99 as f64 >= 5.0 * on4.p99.max(1) as f64,
        "4x overload with AC off must collapse relative to AC on: \
         p99 {} ms (off) vs {} ms (on)",
        off4.p99,
        on4.p99,
    );
    assert!(
        on4.shed_rate > 0.5 && on4.tenant0_shed_rate > on4.shed_rate,
        "4x overload must shed most traffic, the bursting tenant hardest: \
         overall {:.2}, tenant 0 {:.2}",
        on4.shed_rate,
        on4.tenant0_shed_rate,
    );
    assert!(
        scale_report.shed == 0 && scale_report.clicks > 0,
        "scale cell must serve everything under generous admission and deliver clicks"
    );
}

struct ShardCell {
    shards: usize,
    goodput_qps: f64,
    speedup: f64,
    p50: u32,
    p99: u32,
}

/// E-shard: document-partitioned serving behind the tenant router.
///
/// A 16-tenant web-search fleet runs at 1/2/4/8 shards over the same
/// corpus and the same arrival schedules. Three measurements:
///
/// * **Saturated throughput** — every arrival lands at t=0, so each
///   home shard drains its tenants back-to-back and the aggregate
///   goodput is `served / max(shard clock)`. Sharding wins twice:
///   scatter legs shrink with the document slice, and tenants homed on
///   different shards drain in parallel.
/// * **Fixed-rate latency** — the open-loop generator offers ~70% of
///   the measured single-shard capacity to every fleet size; queue
///   wait collapses as shards are added.
/// * **Partial degrade** — the 4-shard fleet re-runs the saturated
///   schedule with one shard's primary *and* replica dead. Queries
///   degrade to partial results (never errors), and once the breakers
///   open the dead legs cost nothing.
///
/// A rank-identity check asserts the 4-shard scatter-gather returns
/// bit-identical results to a single-index search for the whole query
/// pool. `SHARD_SESSIONS` scales the experiment down for CI smokes.
fn e_shard() {
    const TENANTS: usize = 16;

    let shard_queries: usize = std::env::var("SHARD_SESSIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);

    // Query pool: the scenario's evaluation queries plus topical
    // filler — all hit the synthetic web index.
    let pool: Vec<String> = EVAL_QUERIES
        .iter()
        .map(|(q, _)| q.to_string())
        .chain(
            Topic::Games
                .words()
                .iter()
                .take(12)
                .map(|w| format!("{w} game")),
        )
        .collect();

    // Saturated schedule: every query arrives at t=0, tenants round-
    // robin, query popularity Zipf-skewed. Identical across fleet
    // sizes, so the cells differ only in shard count.
    let saturated: Vec<Arrival> = {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let zipf = symphony_web::zipf::Zipf::new(pool.len(), 1.0);
        let mut rng = StdRng::seed_from_u64(0x5AAD);
        (0..shard_queries)
            .map(|i| Arrival {
                at_ms: 0,
                tenant: (i % TENANTS) as u16,
                query: zipf.sample(&mut rng) as u16,
                clicks: 0,
            })
            .collect()
    };

    println!("\n## E-shard: document-partitioned serving ({shard_queries} queries/cell)");

    // Pass 1: saturated throughput per fleet size.
    let fleet_sizes = [1usize, 2, 4, 8];
    let mut goodputs = Vec::new();
    for &n in &fleet_sizes {
        let (router, ids) = shard_fleet_world(n, TENANTS, None);
        let report = replay(&router, &ids, &pool, &saturated, false, None);
        assert_eq!(report.shed, 0, "no admission limits in the shard fleet");
        assert_eq!(report.served as usize, shard_queries, "every query served");
        goodputs.push(report.goodput_qps());
    }
    let capacity_1 = goodputs[0];

    // Pass 2: fixed-rate latency at ~70% of single-shard capacity.
    let rate_qps = 0.7 * capacity_1;
    let sessions = (shard_queries / 4).max(200);
    let mut config = TrafficConfig {
        tenants: TENANTS,
        sessions,
        tenant_skew: 0.0,
        duration_ms: ((sessions as f64 * 1.875) / rate_qps * 1000.0) as u64,
        diurnal_amplitude: 0.0,
        query_pool: pool.len(),
        click_base: 0.0,
        bursts: Vec::new(),
        seed: 0x5AD2,
    };
    let probe = generate(&config).len();
    config.duration_ms = (probe as f64 / rate_qps * 1000.0) as u64;
    let arrivals = generate(&config);
    let mut cells = Vec::new();
    for (i, &n) in fleet_sizes.iter().enumerate() {
        let (router, ids) = shard_fleet_world(n, TENANTS, None);
        let report = replay(&router, &ids, &pool, &arrivals, false, None);
        let latencies = report.all_latencies();
        cells.push(ShardCell {
            shards: n,
            goodput_qps: goodputs[i],
            speedup: goodputs[i] / capacity_1.max(1e-9),
            p50: percentile(&latencies, 0.50),
            p99: percentile(&latencies, 0.99),
        });
    }
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.shards.to_string(),
                format!("{:.1}", c.goodput_qps),
                format!("{:.2}x", c.speedup),
                c.p50.to_string(),
                c.p99.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("E-shard — saturated goodput and fixed-rate ({rate_qps:.1} qps offered) latency"),
        &["shards", "goodput", "speedup", "p50", "p99"],
        &rows,
    );

    // Pass 3: partial degrade — shard 1 of 4 loses primary AND replica
    // for the whole run; the fleet serves partial results.
    let plan = FaultPlan::new()
        .outage(&shard_endpoint(1), 0, u64::MAX / 2)
        .outage(&replica_endpoint(1), 0, u64::MAX / 2);
    let (router, ids) = shard_fleet_world(4, TENANTS, Some(plan));
    let degrade = replay(&router, &ids, &pool, &saturated, false, None);
    let degraded_rate = degrade.degraded as f64 / degrade.served.max(1) as f64;
    let degrade_goodput = degrade.goodput_qps();
    println!(
        "partial degrade (4 shards, shard 1 primary+replica dead): \
         {:.1}% of queries degraded, goodput {:.1} qps ({:.0}% of healthy)",
        degraded_rate * 100.0,
        degrade_goodput,
        degrade_goodput / cells[2].goodput_qps.max(1e-9) * 100.0,
    );

    // Rank identity: 4-shard scatter-gather is bit-identical to a
    // single-index search over the whole pool.
    let single = SearchEngine::new(corpus(Scale::Small));
    let (rank_router, _) = shard_fleet_world(4, 1, None);
    let bits = |rs: &[symphony_web::WebResult]| -> Vec<(String, u32)> {
        rs.iter()
            .map(|r| (r.url.clone(), r.score.to_bits()))
            .collect()
    };
    let mut rank_checked = 0usize;
    for q in &pool {
        let sconfig = SearchConfig::default();
        let out = rank_router
            .cluster()
            .scatter(Vertical::Web, q, &sconfig, 10, 0);
        assert!(out.error.is_none(), "healthy fleet answers in full");
        assert_eq!(
            bits(&out.results),
            bits(&single.search(Vertical::Web, q, &sconfig, 10)),
            "scatter-gather must be bit-identical to single-index search for {q:?}"
        );
        rank_checked += 1;
    }
    println!(
        "rank identity: {rank_checked}/{} pool queries bit-identical",
        pool.len()
    );

    let mut cells_json = String::new();
    for (i, c) in cells.iter().enumerate() {
        cells_json.push_str(&format!(
            "    {{ \"shards\": {}, \"goodput_qps\": {:.1}, \"speedup\": {:.2}, \
             \"p50_ms\": {}, \"p99_ms\": {} }}{}\n",
            c.shards,
            c.goodput_qps,
            c.speedup,
            c.p50,
            c.p99,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"e-shard\",\n",
            "  \"queries_per_cell\": {},\n",
            "  \"tenants\": {},\n",
            "  \"offered_qps_fixed_rate\": {:.1},\n",
            "  \"degraded_rate\": {:.3},\n",
            "  \"degrade_goodput_qps\": {:.1},\n",
            "  \"rank_identical_queries\": {},\n",
            "  \"cells\": [\n{}  ]\n",
            "}}\n"
        ),
        shard_queries, TENANTS, rate_qps, degraded_rate, degrade_goodput, rank_checked, cells_json,
    );
    std::fs::write("BENCH_shard.json", &json).expect("write BENCH_shard.json");
    println!("wrote BENCH_shard.json");

    // The acceptance claims, enforced wherever the experiment runs
    // (the CI smoke step relies on these panicking on regression).
    assert!(
        cells[2].speedup >= 2.0,
        "4 shards must at least double aggregate goodput: {:.2}x",
        cells[2].speedup,
    );
    assert!(
        cells[1].goodput_qps > cells[0].goodput_qps && cells[3].goodput_qps > cells[1].goodput_qps,
        "goodput must grow with the fleet: {goodputs:?}",
    );
    assert!(
        cells[2].p99 <= cells[0].p99,
        "4 shards must not worsen fixed-rate p99: {} ms vs {} ms",
        cells[2].p99,
        cells[0].p99,
    );
    assert!(
        degraded_rate > 0.95,
        "a dead shard must degrade (not drop) nearly every query: {:.3}",
        degraded_rate,
    );
    assert!(
        degrade_goodput >= 0.5 * cells[2].goodput_qps,
        "the degraded fleet must keep most of its throughput once the \
         breakers open: {degrade_goodput:.1} vs healthy {:.1}",
        cells[2].goodput_qps,
    );
}

/// E-hybrid: selectivity-planned structured + full-text execution.
///
/// A synthetic review table (`HYBRID_ROWS` rows, default 20k) carries
/// an ordered index on `price = i % 1000`, so `price < c` has exact
/// selectivity `c / 1000`. Every cell of a selectivity grid starts the
/// planner cold (a write drops the table's filter memo), records what
/// it picks and how many queries it takes to resolve the filter's set,
/// then runs the query pool under the planner's own choice and under
/// all three strategies — filter-first, search-first over-fetch +
/// post-filter, and exhaustive scan — forced via
/// `hybrid_query_planned`. The lists must be bit-identical per query
/// (plan choice is purely a performance decision). A last cell repeats
/// one filter: the first query resolves its set, the rest reuse it.
/// Everything lands in BENCH_hybrid.json; what each plan costs is the
/// ledger's `hybrid_sweep` workload.
fn e_hybrid() {
    let rows: usize = std::env::var("HYBRID_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let k = 10usize;

    // Three note bodies on an `i % 3` cycle; 1000 % 3 != 0, so every
    // price stratum mixes vocabularies (no filter/text correlation).
    const NOTES: [&str; 3] = [
        "smoky oak finish with vanilla",
        "bright citrus and melon notes",
        "oak barrel aged deep tannins",
    ];
    let schema = Schema::of(&[
        ("product", FieldType::Text),
        ("body", FieldType::Text),
        ("price", FieldType::Int),
    ]);
    let mut table = IndexedTable::new(Table::new("reviews", schema));
    for i in 0..rows {
        table.insert(Record::new(vec![
            Value::Text(format!("wine-{}", i % 97)),
            Value::Text(NOTES[i % 3].into()),
            Value::Int((i % 1000) as i64),
        ]));
    }
    table
        .create_index("price", IndexKind::Ordered)
        .expect("price column exists");
    table
        .enable_fulltext(&[("product", 2.0), ("body", 1.0)])
        .expect("text columns exist");
    table.optimize_fulltext();

    let terms = [
        "oak", "citrus", "vanilla", "tannins", "melon", "smoky", "bright", "barrel", "finish",
        "aged",
    ];
    let queries: Vec<Query> = (0..20)
        .map(|i| {
            let a = terms[i % terms.len()];
            let b = terms[(i * 3 + 1) % terms.len()];
            if i % 2 == 0 {
                Query::parse(a)
            } else {
                Query::parse(&format!("{a} {b}"))
            }
        })
        .collect();

    let plans = [
        HybridPlan::FilterFirst,
        HybridPlan::SearchFirst,
        HybridPlan::Scan,
    ];
    let grid = [0.001f64, 0.01, 0.05, 0.2, 0.5];

    struct Cell {
        selectivity: f64,
        cutoff: i64,
        cold_plan: &'static str,
        resolved_after: Option<usize>,
        chosen: &'static str,
        access: String,
        estimated: Option<usize>,
        est_selectivity: Option<f64>,
        identical_queries: usize,
    }
    let mut cells: Vec<Cell> = Vec::new();

    // Any write drops the filter memo: the planner starts cold.
    let forget = |table: &mut IndexedTable| {
        let id = table.insert(Record::new(vec![
            Value::Text("wine-x".into()),
            Value::Text("plain".into()),
            Value::Int(1_000_000),
        ]));
        table.delete(id);
    };

    for &s in &grid {
        let cutoff = (1000.0 * s) as i64;
        let filter = Filter::cmp(2, CmpOp::Lt, Value::Int(cutoff));
        let explain = |table: &IndexedTable| {
            table.hybrid_explain(&HybridQuery::new(queries[0].clone(), filter.clone(), k))
        };

        // Cold start: what the planner picks before the filter was ever
        // served, and how many queries it takes to resolve its set.
        forget(&mut table);
        let cold_plan = explain(&table).plan.name();
        let resolved_after = queries.iter().position(|q| {
            let hq = HybridQuery::new(q.clone(), filter.clone(), k);
            let r = table.hybrid_query(&hq).expect("fulltext enabled");
            r.explain.set_len.is_some()
        });

        // Identity pass: every query, every strategy, one list.
        let key = |r: &HybridResult| {
            r.hits
                .iter()
                .map(|h| (h.record, h.score.to_bits()))
                .collect::<Vec<_>>()
        };
        let mut identical = 0usize;
        for q in &queries {
            let hq = HybridQuery::new(q.clone(), filter.clone(), k);
            let planned = key(&table.hybrid_query(&hq).expect("fulltext enabled"));
            for p in plans {
                let forced = key(&table
                    .hybrid_query_planned(&hq, Some(p))
                    .expect("fulltext enabled"));
                assert_eq!(
                    forced,
                    planned,
                    "plan {} diverges from the planner's choice at selectivity {s}",
                    p.name(),
                );
            }
            identical += 1;
        }

        // EXPLAIN depends only on the filter; any query stands in.
        let ex = explain(&table);
        cells.push(Cell {
            selectivity: s,
            cutoff,
            cold_plan,
            resolved_after,
            chosen: ex.plan.name(),
            access: format!("{:?}", ex.access),
            estimated: ex.estimated_matches,
            est_selectivity: ex.selectivity,
            identical_queries: identical,
        });
    }

    // Repeated filter: the 5% filter served over and over, untouched.
    let repeated = Filter::cmp(2, CmpOp::Lt, Value::Int(50));
    forget(&mut table);
    let mut reuse_flags = Vec::new();
    for q in &queries {
        let hq = HybridQuery::new(q.clone(), repeated.clone(), k);
        let ex = table.hybrid_query(&hq).expect("fulltext enabled").explain;
        reuse_flags.push((ex.set_reused, ex.set_len));
    }

    let table_rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                format!("{:.1}%", c.selectivity * 100.0),
                c.cold_plan.to_string(),
                c.resolved_after
                    .map_or("-".into(), |n| format!("query {}", n + 1)),
                c.chosen.to_string(),
                c.estimated.map_or("-".into(), |e| e.to_string()),
                format!("{}/{}", c.identical_queries, queries.len()),
            ]
        })
        .collect();
    print_table(
        &format!(
            "E-hybrid — {} rows, {} queries, k={k}, three plans forced per query",
            rows,
            queries.len(),
        ),
        &[
            "sel",
            "cold plan",
            "set resolved",
            "steady plan",
            "est",
            "identical",
        ],
        &table_rows,
    );
    let sets_reused = reuse_flags.iter().filter(|(reused, _)| *reused).count();
    println!(
        "repeated 5% filter: {sets_reused} of {} queries reused the resolved set",
        queries.len()
    );

    let mut cells_json = String::new();
    for (i, c) in cells.iter().enumerate() {
        cells_json.push_str(&format!(
            "    {{ \"selectivity\": {}, \"price_cutoff\": {}, \"cold_plan\": \"{}\", \
             \"set_resolved_after_queries\": {}, \"chosen_plan\": \"{}\", \
             \"access\": \"{}\", \"estimated_matches\": {}, \"est_selectivity\": {}, \
             \"identical_queries\": {} }}{}\n",
            c.selectivity,
            c.cutoff,
            c.cold_plan,
            c.resolved_after
                .map_or("null".into(), |n| (n + 1).to_string()),
            c.chosen,
            c.access,
            c.estimated.map_or("null".into(), |e| e.to_string()),
            c.est_selectivity
                .map_or("null".into(), |v| format!("{v:.4}")),
            c.identical_queries,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"e-hybrid\",\n",
            "  \"rows\": {},\n",
            "  \"queries\": {},\n",
            "  \"k\": {},\n",
            "  \"cells\": [\n{}  ],\n",
            "  \"repeated_filter\": {{ \"selectivity\": 0.05, \"sets_reused\": {} }}\n",
            "}}\n"
        ),
        rows,
        queries.len(),
        k,
        cells_json,
        sets_reused,
    );
    std::fs::write("BENCH_hybrid.json", &json).expect("write BENCH_hybrid.json");
    println!("wrote BENCH_hybrid.json");

    // The acceptance claims, enforced wherever the experiment runs.
    for c in &cells {
        assert_eq!(
            c.identical_queries,
            queries.len(),
            "every query must be bit-identical across plans at selectivity {}",
            c.selectivity,
        );
    }
    // One set per filter: the first query resolves it, the rest reuse it.
    let (first, rest) = reuse_flags.split_first().expect("pool is non-empty");
    assert!(!first.0 && first.1.is_some(), "{first:?}");
    assert!(rest.iter().all(|r| r.0 && r.1 == first.1), "{rest:?}");
}
