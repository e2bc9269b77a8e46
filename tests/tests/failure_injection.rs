//! Failure injection across the platform: flaky services, timeouts,
//! missing tables, quota storms. The paper's hosted model demands
//! graceful degradation — a supplemental failure must never take the
//! primary results down.

use symphony_core::app::AppBuilder;
use symphony_core::hosting::Platform;
use symphony_core::source::DataSourceDef;
use symphony_core::{Outcome, SpanKind};
use symphony_designer::{Canvas, Element};
use symphony_services::{
    CallPolicy, LatencyModel, OperationDesc, PricingService, Protocol, Service, ServiceDescription,
    ServiceFault, ServiceRequest, ServiceResponse,
};
use symphony_store::ingest::{ingest, DataFormat};
use symphony_store::IndexedTable;
use symphony_web::{Corpus, CorpusConfig, SearchEngine};

const CSV: &str = "title,description\nGalactic Raiders,a fast space shooter\n";

fn base_platform() -> (Platform, symphony_store::TenantId) {
    let corpus = Corpus::generate(&CorpusConfig {
        sites_per_topic: 1,
        pages_per_site: 2,
        ..CorpusConfig::default()
    });
    let mut platform = Platform::new(SearchEngine::new(corpus));
    let (tenant, key) = platform.create_tenant("T");
    let (table, _) = ingest("inventory", CSV, DataFormat::Csv).unwrap();
    let mut indexed = IndexedTable::new(table);
    indexed
        .enable_fulltext(&[("title", 2.0), ("description", 1.0)])
        .unwrap();
    platform.upload_table(tenant, &key, indexed).unwrap();
    (platform, tenant)
}

fn app_with_service(
    platform: &mut Platform,
    tenant: symphony_store::TenantId,
    endpoint: &str,
    policy: CallPolicy,
) -> symphony_core::AppId {
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
                endpoint: endpoint.into(),
                operation: "/price".into(),
                item_param: "item".into(),
                policy,
            },
        )
        .supplemental("svc", "{title}")
        .build()
        .unwrap();
    let id = platform.register_app(config).unwrap();
    platform.publish(id).unwrap();
    id
}

#[test]
fn flaky_service_degrades_but_primary_survives() {
    let (mut platform, tenant) = base_platform();
    platform.transport_mut().register(
        "pricing",
        Box::new(PricingService),
        LatencyModel {
            base_ms: 10,
            jitter_ms: 0,
            failure_rate: 1.0, // always fails
        },
    );
    let id = app_with_service(
        &mut platform,
        tenant,
        "pricing",
        CallPolicy {
            timeout_ms: 100,
            retries: 1,
            ..CallPolicy::default()
        },
    );
    let resp = platform.query(id, "shooter").unwrap();
    assert!(resp.html.contains("Galactic Raiders"), "primary lost");
    let node = resp.trace.slot("svc").unwrap();
    assert_eq!(node.outcome, Outcome::Failed);
    // The failed attempts burned virtual time that is accounted.
    assert!(node.virtual_ms >= 20);
}

#[test]
fn slow_service_times_out_within_policy_budget() {
    let (mut platform, tenant) = base_platform();
    platform.transport_mut().register(
        "pricing",
        Box::new(PricingService),
        LatencyModel {
            base_ms: 5_000, // way over budget
            jitter_ms: 0,
            failure_rate: 0.0,
        },
    );
    let id = app_with_service(
        &mut platform,
        tenant,
        "pricing",
        CallPolicy {
            timeout_ms: 150,
            retries: 1,
            ..CallPolicy::default()
        },
    );
    let resp = platform.query(id, "shooter").unwrap();
    let node = resp.trace.slot("svc").unwrap();
    assert_eq!(node.outcome, Outcome::TimedOut);
    // Two attempts x 150ms cap — the runtime never waits 5 s.
    assert_eq!(node.virtual_ms, 300);
}

#[test]
fn unregistered_endpoint_is_a_soft_error() {
    let (mut platform, tenant) = base_platform();
    let id = app_with_service(&mut platform, tenant, "ghost", CallPolicy::default());
    let resp = platform.query(id, "shooter").unwrap();
    assert!(resp.html.contains("Galactic Raiders"));
    let node = resp.trace.slot("svc").unwrap();
    assert_eq!(node.outcome, Outcome::Failed);
    let error = node.error.as_deref().unwrap();
    assert!(error.contains("unknown endpoint"), "{error}");
}

#[test]
fn service_fault_is_not_retried_and_surfaces_in_trace() {
    struct Faulty;
    impl Service for Faulty {
        fn describe(&self) -> ServiceDescription {
            ServiceDescription {
                name: "Faulty".into(),
                protocol: Protocol::Rest,
                operations: vec![OperationDesc {
                    name: "/price".into(),
                    params: vec!["item".into()],
                    returns: vec![],
                }],
            }
        }
        fn handle(&self, _: &ServiceRequest) -> Result<ServiceResponse, ServiceFault> {
            Err(ServiceFault {
                code: 500,
                message: "backend exploded".into(),
            })
        }
    }
    let (mut platform, tenant) = base_platform();
    platform
        .transport_mut()
        .register("pricing", Box::new(Faulty), LatencyModel::fast());
    let id = app_with_service(&mut platform, tenant, "pricing", CallPolicy::default());
    let resp = platform.query(id, "shooter").unwrap();
    let node = resp.trace.slot("svc").unwrap();
    assert_eq!(node.outcome, Outcome::Failed);
    let error = node.error.as_deref().unwrap();
    assert!(error.contains("backend exploded"), "{error}");
}

#[test]
fn panicking_service_is_isolated_to_its_slot() {
    struct Exploder;
    impl Service for Exploder {
        fn describe(&self) -> ServiceDescription {
            ServiceDescription {
                name: "Exploder".into(),
                protocol: Protocol::Rest,
                operations: vec![],
            }
        }
        fn handle(&self, _: &ServiceRequest) -> Result<ServiceResponse, ServiceFault> {
            panic!("index out of bounds in third-party code");
        }
    }
    let (mut platform, tenant) = base_platform();
    platform
        .transport_mut()
        .register("pricing", Box::new(Exploder), LatencyModel::fast());
    let id = app_with_service(&mut platform, tenant, "pricing", CallPolicy::default());
    // The panic is caught per fan-out slot: the query still answers.
    let resp = platform.query(id, "shooter").unwrap();
    assert!(resp.html.contains("Galactic Raiders"), "primary lost");
    assert!(resp.trace.degraded);
    let node = resp.trace.slot("svc").unwrap();
    assert_eq!(node.outcome, Outcome::Panicked);
    // The platform stays healthy for the next query.
    assert!(platform.query(id, "fast shooter").is_ok());
    let summary = platform.traffic_summary(id).unwrap();
    assert_eq!(summary.queries, 2);
    assert_eq!(summary.degraded_queries, 2);
    assert!((summary.error_rate() - 1.0).abs() < f64::EPSILON);
}

#[test]
fn missing_table_app_serves_empty_not_500() {
    let (mut platform, tenant) = base_platform();
    let mut canvas = Canvas::new();
    let root = canvas.root_id();
    canvas
        .insert(
            root,
            Element::result_list("inventory", Element::text("{title}"), 5),
        )
        .unwrap();
    let config = AppBuilder::new("T", tenant)
        .layout(canvas)
        .source(
            "inventory",
            DataSourceDef::Proprietary {
                table: "deleted_table".into(),
            },
        )
        .build()
        .unwrap();
    let id = platform.register_app(config).unwrap();
    platform.publish(id).unwrap();
    let resp = platform.query(id, "anything").unwrap();
    assert!(resp.impressions.is_empty());
    let node = resp.trace.slot("inventory").unwrap();
    assert_eq!(node.kind, SpanKind::Primary { max: 5 });
    assert_eq!(node.outcome, Outcome::Failed);
    let error = node.error.as_deref().unwrap();
    assert!(error.contains("unknown table"), "{error}");
}

#[test]
fn quota_storm_rejects_then_recovers_cleanly() {
    let (mut platform, tenant) = base_platform();
    let mut platform = {
        // Rebuild with a tight quota.
        let _ = &mut platform;
        let corpus = Corpus::generate(&CorpusConfig {
            sites_per_topic: 1,
            pages_per_site: 2,
            ..CorpusConfig::default()
        });
        let mut p =
            Platform::new(SearchEngine::new(corpus)).with_quotas(symphony_core::QuotaConfig {
                requests_per_minute: 5,
                ..symphony_core::QuotaConfig::default()
            });
        let (t, k) = p.create_tenant("T");
        let (table, _) = ingest("inventory", CSV, DataFormat::Csv).unwrap();
        let mut indexed = IndexedTable::new(table);
        indexed
            .enable_fulltext(&[("title", 2.0), ("description", 1.0)])
            .unwrap();
        p.upload_table(t, &k, indexed).unwrap();
        let _ = tenant;
        (p, t)
    };
    let id = {
        let (p, t) = (&mut platform.0, platform.1);
        let mut canvas = Canvas::new();
        let root = canvas.root_id();
        canvas
            .insert(
                root,
                Element::result_list("inventory", Element::text("{title}"), 5),
            )
            .unwrap();
        let config = AppBuilder::new("T", t)
            .layout(canvas)
            .source(
                "inventory",
                DataSourceDef::Proprietary {
                    table: "inventory".into(),
                },
            )
            .build()
            .unwrap();
        let id = p.register_app(config).unwrap();
        p.publish(id).unwrap();
        id
    };
    let p = &mut platform.0;
    let mut rejected = 0;
    for i in 0..10 {
        match p.query(id, &format!("q{i}")) {
            Ok(_) => {}
            Err(symphony_core::PlatformError::QuotaExceeded { .. }) => rejected += 1,
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert_eq!(rejected, 5);
    p.advance_clock(61_000);
    assert!(p.query(id, "fresh").is_ok(), "quota window must slide");
}
