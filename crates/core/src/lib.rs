//! # symphony-core
//!
//! The Symphony platform — the primary contribution of *Shafer,
//! Agrawal, Lauw: "Symphony: A Platform for Search-Driven
//! Applications" (ICDE 2010)* — reproduced over the substrate crates:
//!
//! * [`source`] — the unified content-source abstraction (proprietary
//!   tables, web verticals, SOAP/REST services, ads).
//! * [`app`] — validated application configurations (data sources,
//!   layout, supplemental bindings, presentation, monetization).
//! * [`runtime`] — query execution with parallel supplemental fan-out
//!   and virtual-clock latency accounting (Fig. 2).
//! * [`cache`] — the LRU+TTL result cache.
//! * [`hosting`] — the multi-tenant [`hosting::Platform`]: publish
//!   lifecycle, request/storage quotas, caching, analytics.
//! * `embed` — embed snippets and social-canvas deployment.
//! * `monetize` — interaction logging, traffic summaries, referral
//!   audit export, automatic ad-click crediting.
//! * `recommend` — supplemental-content recommendation (paper §IV
//!   future work), content- and crowd-driven.
//! * [`admission`] — per-tenant overload protection: token-bucket
//!   admission, weighted-fair worker scheduling, load shedding.
//! * `trace` — execution traces (the Fig.-2 stage tree).
//!
//! ## Quick example
//!
//! See `examples/quickstart.rs` for the complete flow; the essence:
//!
//! ```
//! use symphony_core::app::AppBuilder;
//! use symphony_core::hosting::Platform;
//! use symphony_core::source::DataSourceDef;
//! use symphony_designer::{Canvas, Element};
//! use symphony_store::ingest::{ingest, DataFormat};
//! use symphony_store::IndexedTable;
//! use symphony_web::{Corpus, CorpusConfig, SearchEngine};
//!
//! let engine = SearchEngine::new(Corpus::generate(&CorpusConfig {
//!     sites_per_topic: 1, pages_per_site: 2, ..CorpusConfig::default()
//! }));
//! let mut platform = Platform::new(engine);
//! let (tenant, key) = platform.create_tenant("WineFan");
//!
//! let (table, _) = ingest("cellar", "title,notes\nMargaux,plum and cedar\n", DataFormat::Csv).unwrap();
//! let mut indexed = IndexedTable::new(table);
//! indexed.enable_fulltext(&[("title", 2.0), ("notes", 1.0)]).unwrap();
//! platform.upload_table(tenant, &key, indexed).unwrap();
//!
//! let mut canvas = Canvas::new();
//! let root = canvas.root_id();
//! canvas.insert(root, Element::result_list("cellar", Element::text("{title}: {notes}"), 5)).unwrap();
//!
//! let app = AppBuilder::new("WineFan", tenant)
//!     .source("cellar", DataSourceDef::Proprietary { table: "cellar".into() })
//!     .layout(canvas)
//!     .build()
//!     .unwrap();
//! let id = platform.register_app(app).unwrap();
//! platform.publish(id).unwrap();
//!
//! let resp = platform.query(id, "margaux").unwrap();
//! assert!(resp.html.contains("plum and cedar"));
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod app;
pub mod cache;
mod embed;
mod error;
pub mod hosting;
mod monetize;
mod recommend;
pub mod runtime;
pub mod source;
mod source_cache;
mod trace;

pub use admission::{FanoutScheduler, Lane};
pub use app::{
    AdmissionPolicy, AppBuilder, AppId, ApplicationConfig, MonetizationConfig, ResiliencePolicy,
};
pub use cache::CacheStats;
pub use embed::SocialCanvasHost;
pub use error::PlatformError;
pub use hosting::{Platform, QueryHost, QuotaConfig};
pub use monetize::{Impression, TrafficSummary};
pub use recommend::recommend_sites;
pub use runtime::{execute_resilient, ExecCtx, ExecMode, QueryResponse, MAX_FANOUT_WORKERS};
pub use source::{
    run_source, DataSourceDef, ResultItem, ScatterOutcome, ScatterSearch, SourceCtx, SourceOutcome,
    Substrates,
};
pub use source_cache::{
    normalize_query, FetchStatus, Fetched, SourceCache, SourceCacheConfig, SourceCacheStats,
};
pub use trace::{Outcome, SpanKind};
