//! Chaos suite: planned faults on the virtual clock, exact assertions.
//!
//! Every scenario here is fully deterministic — fault windows are
//! scheduled in virtual time and the resilient call path draws latency
//! from a pure hash of `(seed, endpoint, request, now, attempt)` — so
//! the tests assert degradation behaviour down to the millisecond:
//! deadlines held, breaker lifecycles, degraded slot rendering, and
//! bit-identical reruns per seed.
//!
//! The CI seed grid sets `CHAOS_SEED`; locally the suite runs over a
//! small built-in grid.

use symphony_core::app::{AppBuilder, ResiliencePolicy};
use symphony_core::hosting::Platform;
use symphony_core::source::DataSourceDef;
use symphony_core::{AppId, Outcome, QueryResponse, SpanKind};
use symphony_designer::{Canvas, Element};
use symphony_services::{
    BreakerConfig, BreakerState, CallPolicy, FaultPlan, LatencyModel, PricingService,
};
use symphony_store::ingest::{ingest, DataFormat};
use symphony_store::IndexedTable;
use symphony_web::{Corpus, CorpusConfig, SearchEngine};

const CSV: &str = "title,description\nGalactic Raiders,a fast space shooter\n";

/// Seeds the suite sweeps. CI overrides via `CHAOS_SEED` to fan the
/// grid out across jobs.
fn seed_grid() -> Vec<u64> {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("CHAOS_SEED must be a u64")],
        Err(_) => vec![1, 7, 42],
    }
}

/// One app over a pricing service endpoint with the given call policy,
/// breaker tuning, resilience policy, and fault plan.
fn build_platform(
    seed: u64,
    latency: LatencyModel,
    policy: CallPolicy,
    breakers: BreakerConfig,
    resilience: ResiliencePolicy,
    faults: FaultPlan,
) -> (Platform, AppId) {
    let corpus = Corpus::generate(&CorpusConfig {
        sites_per_topic: 1,
        pages_per_site: 2,
        ..CorpusConfig::default()
    });
    let mut platform = Platform::new(SearchEngine::new(corpus))
        .with_transport_seed(seed)
        .with_breaker_config(breakers);
    platform
        .transport_mut()
        .register("pricing", Box::new(PricingService), latency);
    platform.transport_mut().set_fault_plan(faults);
    let (tenant, key) = platform.create_tenant("T");
    let (table, _) = ingest("inventory", CSV, DataFormat::Csv).unwrap();
    let mut indexed = IndexedTable::new(table);
    indexed
        .enable_fulltext(&[("title", 2.0), ("description", 1.0)])
        .unwrap();
    platform.upload_table(tenant, &key, indexed).unwrap();

    let mut canvas = Canvas::new();
    let root = canvas.root_id();
    let item = Element::column(vec![
        Element::text("{title}"),
        Element::result_list("svc", Element::text("price: {price}"), 1),
    ]);
    canvas
        .insert(root, Element::result_list("inventory", item, 5))
        .unwrap();
    let config = AppBuilder::new("T", tenant)
        .layout(canvas)
        .source(
            "inventory",
            DataSourceDef::Proprietary {
                table: "inventory".into(),
            },
        )
        .source(
            "svc",
            DataSourceDef::Service {
                endpoint: "pricing".into(),
                operation: "/price".into(),
                item_param: "item".into(),
                policy,
            },
        )
        .supplemental("svc", "{title}")
        .resilience(resilience)
        .build()
        .unwrap();
    let id = platform.register_app(config).unwrap();
    platform.publish(id).unwrap();
    (platform, id)
}

/// The acceptance scenario: a planned 2-second outage of the pricing
/// endpoint. The deadline must hold, the primary must render with a
/// degraded supplemental slot, and the breaker must walk
/// Closed → Open → HalfOpen → Closed as the outage passes.
#[test]
fn outage_holds_deadline_and_breaker_walks_full_cycle() {
    let (platform, id) = build_platform(
        0xD1CE,
        LatencyModel {
            base_ms: 10,
            jitter_ms: 0,
            failure_rate: 0.0,
        },
        CallPolicy {
            timeout_ms: 40,
            retries: 1,
            ..CallPolicy::default()
        },
        BreakerConfig {
            failure_threshold: 2,
            open_ms: 1_000,
            half_open_successes: 1,
        },
        ResiliencePolicy {
            query_deadline_ms: 100,
            ..Default::default()
        },
        FaultPlan::new().outage("pricing", 0, 2_000),
    );
    assert_eq!(platform.breaker_state("pricing"), BreakerState::Closed);

    // Query 1 lands inside the outage: both attempts burn the 40-ms
    // timeout and trip the breaker, but the 100-ms deadline holds and
    // the primary result renders.
    let r1 = platform.query(id, "galactic").unwrap();
    assert!(r1.html.contains("Galactic Raiders"), "primary lost");
    assert!(r1.trace.degraded);
    let errors = |r: &QueryResponse| r.trace.nodes().filter(|n| n.outcome.is_error()).count();
    assert_eq!(errors(&r1), 1);
    // receive(1) + inventory(5) + 2 × 40ms timeouts + merge(2).
    assert_eq!(r1.virtual_ms, 88);
    assert!(r1.virtual_ms <= 100, "deadline blown");
    let slot = r1.trace.slot("svc").unwrap();
    assert_eq!(slot.kind, SpanKind::Supplemental { item: 0 });
    assert_eq!(slot.outcome, Outcome::TimedOut);
    assert_eq!(platform.breaker_state("pricing"), BreakerState::Open);

    // Query 2: the open circuit fast-fails the fetch in ~0 virtual ms.
    let r2 = platform.query(id, "raiders").unwrap();
    assert!(r2.html.contains("Galactic Raiders"));
    assert!(r2.trace.degraded);
    // receive(1) + inventory(5) + fast-fail(0) + merge(2).
    assert_eq!(r2.virtual_ms, 8);
    let slot = r2.trace.slot("svc").unwrap();
    assert_eq!(slot.virtual_ms, 0);
    assert_eq!(slot.outcome, Outcome::CircuitOpen);

    // Past the outage and the cool-down, the breaker half-opens...
    platform.advance_clock(2_000);
    assert_eq!(platform.breaker_state("pricing"), BreakerState::HalfOpen);

    // ...and the probe query succeeds and closes it again.
    let r3 = platform.query(id, "space").unwrap();
    assert!(!r3.trace.degraded);
    assert!(r3.html.contains("price:"), "{}", r3.html);
    // receive(1) + inventory(5) + one clean 10-ms call + merge(2).
    assert_eq!(r3.virtual_ms, 18);
    assert_eq!(platform.breaker_state("pricing"), BreakerState::Closed);

    // The degraded-query error rate reflects the incident.
    let summary = platform.traffic_summary(id).unwrap();
    assert_eq!(summary.queries, 3);
    assert_eq!(summary.degraded_queries, 2);
    assert!((summary.error_rate() - 2.0 / 3.0).abs() < 1e-9);
}

/// A hedged request sidesteps a latency spike that covers only the
/// primary attempt's launch instant.
#[test]
fn hedging_sidesteps_a_latency_spike() {
    let scenario = |hedge: Option<u32>| -> std::sync::Arc<QueryResponse> {
        let (platform, id) = build_platform(
            0xD1CE,
            LatencyModel {
                base_ms: 20,
                jitter_ms: 0,
                failure_rate: 0.0,
            },
            CallPolicy {
                timeout_ms: 400,
                retries: 1,
                hedge_after_ms: hedge,
                ..CallPolicy::default()
            },
            BreakerConfig::default(),
            ResiliencePolicy::default(),
            // The fetch launches at virtual t=6; the spike covers it.
            FaultPlan::new().latency_spike("pricing", 0, 7, 400),
        );
        platform.query(id, "galactic").unwrap()
    };
    // Hedged: the duplicate launched 15 ms later dodges the window and
    // answers at 15 + 20 = 35 ms.
    let hedged = scenario(Some(15));
    assert!(!hedged.trace.degraded);
    assert_eq!(hedged.trace.slot("svc").unwrap().virtual_ms, 35);
    // Naive: the spiked primary (420 ms) blows the 400-ms timeout, and
    // only the retry gets the calm 20-ms draw.
    let naive = scenario(None);
    assert!(!naive.trace.degraded);
    assert_eq!(naive.trace.slot("svc").unwrap().virtual_ms, 420);
    assert!(hedged.virtual_ms < naive.virtual_ms);
}

/// A fault burst degrades queries inside its window and heals after.
#[test]
fn fault_burst_window_degrades_then_recovers() {
    for seed in seed_grid() {
        let (platform, id) = build_platform(
            seed,
            LatencyModel {
                base_ms: 10,
                jitter_ms: 0,
                failure_rate: 0.0,
            },
            CallPolicy {
                timeout_ms: 40,
                retries: 0,
                ..CallPolicy::default()
            },
            // Disabled breaker: the window itself must end the pain.
            BreakerConfig::disabled(),
            ResiliencePolicy::default(),
            FaultPlan::new().fault_burst("pricing", 0, 1_000, 1.0),
        );
        let inside = platform.query(id, "galactic").unwrap();
        assert!(inside.trace.degraded, "seed {seed}: burst had no effect");
        assert!(inside.html.contains("Galactic Raiders"));
        platform.advance_clock(1_000);
        let outside = platform.query(id, "raiders").unwrap();
        assert!(!outside.trace.degraded, "seed {seed}: burst did not heal");
        assert!(outside.html.contains("price:"));
    }
}

/// A degraded response must not pin the outage into the response
/// cache for the full TTL: it is cached on a short fuse, so once the
/// fault window passes the next query re-executes and serves the
/// healthy rendering.
#[test]
fn degraded_responses_age_out_fast_and_recover_after_outage() {
    let (platform, id) = build_platform(
        0xD1CE,
        LatencyModel {
            base_ms: 10,
            jitter_ms: 0,
            failure_rate: 0.0,
        },
        CallPolicy {
            timeout_ms: 40,
            retries: 0,
            ..CallPolicy::default()
        },
        // Disabled breaker: recovery must come from cache TTLs alone.
        BreakerConfig::disabled(),
        ResiliencePolicy::default(),
        FaultPlan::new().outage("pricing", 0, 1_000),
    );

    // Inside the outage: degraded, and cached only on the short fuse.
    let r1 = platform.query(id, "galactic").unwrap();
    assert!(r1.trace.degraded);
    assert!(!r1.html.contains("price:"));

    // Immediately after, the degraded response is still served from
    // the cache — short TTL, not zero.
    let r2 = platform.query(id, "galactic").unwrap();
    assert!(r2.trace.cache_hit);
    assert!(r2.trace.degraded);

    // Past the outage and the short TTL, the same query re-executes —
    // a full-TTL degraded entry would still be serving the outage here.
    platform.advance_clock(1_000);
    let r3 = platform.query(id, "galactic").unwrap();
    assert!(!r3.trace.cache_hit, "degraded entry outlived its short TTL");
    assert!(!r3.trace.degraded);
    assert!(r3.html.contains("price:"), "{}", r3.html);

    // And the healthy response is cached at the full TTL again.
    let r4 = platform.query(id, "galactic").unwrap();
    assert!(r4.trace.cache_hit);
    assert!(!r4.trace.degraded);
}

/// The whole outage scenario replays bit-identically: same seed, same
/// HTML, same rendered traces, same virtual timings — even with
/// latency jitter and a parallel fan-out in play.
#[test]
fn scenarios_replay_identically_per_seed() {
    let run = |seed: u64| -> Vec<String> {
        let (platform, id) = build_platform(
            seed,
            LatencyModel {
                base_ms: 10,
                jitter_ms: 25,
                failure_rate: 0.1,
            },
            CallPolicy {
                timeout_ms: 60,
                retries: 2,
                backoff_base_ms: 10,
                backoff_cap_ms: 100,
                hedge_after_ms: Some(30),
            },
            BreakerConfig {
                failure_threshold: 2,
                open_ms: 500,
                half_open_successes: 1,
            },
            ResiliencePolicy {
                query_deadline_ms: 400,
                per_source_budget_ms: 300,
                max_total_retries: 4,
            },
            FaultPlan::new()
                .outage("pricing", 100, 600)
                .latency_spike("pricing", 600, 900, 35)
                .slow_ramp("pricing", 900, 1_500, 80),
        );
        let mut log = Vec::new();
        for q in ["galactic", "raiders", "space", "shooter", "fast"] {
            let resp = platform.query(id, q).unwrap();
            assert!(
                resp.virtual_ms <= 400,
                "seed {seed}: deadline blown on {q:?}"
            );
            log.push(resp.trace.render());
            log.push(resp.html.clone());
            platform.advance_clock(150);
        }
        log
    };
    for seed in seed_grid() {
        assert_eq!(run(seed), run(seed), "seed {seed} replay diverged");
    }
}

/// Overload × resilience: a flood over the admission rate is shed with
/// cheap degraded shells, and shedding is invisible to every other
/// protection layer — breakers never trip, no source executes, nothing
/// lands in the L2 negative cache or the L1 response cache — and the
/// tenant recovers within one refill window of the token bucket.
#[test]
fn shed_queries_leave_breakers_and_caches_untouched() {
    for seed in seed_grid() {
        let (mut platform, id) = build_platform(
            seed,
            LatencyModel {
                base_ms: 10,
                jitter_ms: 0,
                failure_rate: 0.0,
            },
            CallPolicy {
                timeout_ms: 40,
                retries: 0,
                ..CallPolicy::default()
            },
            // A hair-trigger breaker: if sheds were (wrongly) reported
            // as endpoint failures, two of them would open it.
            BreakerConfig {
                failure_threshold: 2,
                open_ms: 1_000,
                half_open_successes: 1,
            },
            ResiliencePolicy::default(),
            FaultPlan::new(),
        );
        // Re-register the app with a 1-query/s admission rate. The
        // queries below use distinct texts, so the L1 cache never
        // hides the admission path.
        let config = platform.app(id).unwrap().clone();
        let tight = symphony_core::AdmissionPolicy {
            rate_per_sec: 1,
            burst: 1,
            max_concurrency: u32::MAX,
            weight: 1,
        };
        let id = platform
            .register_app({
                let mut c = config;
                c.admission = tight;
                c
            })
            .unwrap();
        platform.publish(id).unwrap();

        // One admitted query drains the burst of 1.
        let first = platform.query(id, "galactic").unwrap();
        assert!(!first.trace.shed, "seed {seed}");
        assert!(!first.trace.degraded, "seed {seed}");
        let executions = platform.source_cache_stats().executions;
        assert_eq!(platform.breaker_state("pricing"), BreakerState::Closed);

        // Flood: every one of these is shed (each SHED_MS advance of
        // the clock refills only 1/1000 of a token at 1/s).
        for i in 0..10 {
            let shed = platform.query(id, &format!("flood {i}")).unwrap();
            assert!(shed.trace.shed, "seed {seed}: flood query {i} admitted");
            assert!(shed.trace.nodes().all(|n| !n.outcome.is_error()));
            assert!(shed.impressions.is_empty());
        }
        // Invisible to the breaker and to the source layer: no state
        // change, no executions, no negative-cache entries.
        assert_eq!(
            platform.breaker_state("pricing"),
            BreakerState::Closed,
            "seed {seed}: shedding tripped the breaker"
        );
        assert_eq!(
            platform.source_cache_stats().executions,
            executions,
            "seed {seed}: a shed query reached the source layer"
        );
        assert_eq!(
            platform.source_cache_stats().negative_hits,
            0,
            "seed {seed}: shedding poisoned the negative cache"
        );
        let summary = platform.traffic_summary(id).unwrap();
        assert_eq!(summary.shed_queries, 10, "seed {seed}");
        assert_eq!(summary.degraded_queries, 0, "seed {seed}");

        // Recovery within one refill window: at 1 token/s a full token
        // is banked 1000 virtual ms after the last observation, and the
        // next query executes for real — proving the flood left no
        // breaker, L1, or L2 scar behind.
        platform.advance_clock(1_000);
        let healed = platform.query(id, "raiders").unwrap();
        assert!(!healed.trace.shed, "seed {seed}: refill window blown");
        assert!(
            !healed.trace.cache_hit,
            "seed {seed}: a shed response was cached"
        );
        assert!(!healed.trace.degraded, "seed {seed}: flood left a scar");
        assert!(healed.html.contains("price:"), "seed {seed}");
    }
}

/// Deadlines compose with the retry budget: with a tiny budget the
/// query spends nothing on retries, and burned time never exceeds the
/// deadline regardless of seed.
#[test]
fn deadline_and_retry_budget_hold_across_the_seed_grid() {
    for seed in seed_grid() {
        let (platform, id) = build_platform(
            seed,
            LatencyModel {
                base_ms: 30,
                jitter_ms: 50,
                failure_rate: 0.4,
            },
            CallPolicy {
                timeout_ms: 80,
                retries: 3,
                ..CallPolicy::default()
            },
            BreakerConfig::default(),
            ResiliencePolicy {
                query_deadline_ms: 60,
                per_source_budget_ms: 40,
                max_total_retries: 0,
            },
            FaultPlan::new(),
        );
        for q in ["galactic", "raiders", "space"] {
            let resp = platform.query(id, q).unwrap();
            assert!(
                resp.virtual_ms <= 60,
                "seed {seed}: {q:?} took {} ms",
                resp.virtual_ms
            );
            assert!(resp.html.contains("Galactic Raiders"), "primary lost");
            platform.advance_clock(50);
        }
    }
}
