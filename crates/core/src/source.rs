//! Unified content sources.
//!
//! The paper's central abstraction: proprietary tables, web-search
//! verticals, third-party services, and ads are all "data sources"
//! that can be dropped onto an application and "configured just like
//! any other content source". [`DataSourceDef`] is the configuration;
//! [`run_source`] executes one query against one source over the
//! platform substrates, returning uniform field/value records plus the
//! virtual time the source took.

use crate::trace::Outcome;
use symphony_ads::AdServer;
use symphony_services::{
    BreakerRegistry, CallPolicy, ResilienceContext, ServiceClient, ServiceError, ServiceRequest,
    SimulatedTransport,
};
use symphony_store::TenantSpace;
use symphony_web::{SearchConfig, SearchEngine, Vertical, WebResult};

/// Virtual cost of a proprietary-table query (local index hit).
pub(crate) const PROPRIETARY_MS: u32 = 5;
/// Virtual cost of a web-vertical query (remote search API).
pub(crate) const WEB_MS: u32 = 35;
/// Virtual cost of an ad auction.
pub(crate) const ADS_MS: u32 = 12;

/// Configuration of one data source inside an application.
#[derive(Debug, Clone)]
pub enum DataSourceDef {
    /// The designer's own indexed table.
    Proprietary {
        /// Table name in the tenant space.
        table: String,
    },
    /// A vertical of the general web search engine.
    WebVertical {
        /// Which vertical.
        vertical: Vertical,
        /// Customization (site restriction, augmentation, preference).
        config: SearchConfig,
    },
    /// A hybrid structured + full-text source: one of the designer's
    /// indexed tables queried through the selectivity-planned hybrid
    /// engine (`symphony_store::hybrid`), with a structured predicate
    /// baked into the source definition. The predicate reaches the
    /// text executor as an index-resolved skip cursor when it is
    /// selective — and the result is exact, never truncated by an
    /// over-fetch guess. It composes conjunctively with the runtime's
    /// per-query constraint; a [`Proprietary`] source under a
    /// constraint runs the same hybrid query over the constraint alone.
    ///
    /// [`Proprietary`]: DataSourceDef::Proprietary
    Hybrid {
        /// Table name in the tenant space.
        table: String,
        /// Structured predicate over the table's columns.
        filter: symphony_store::Filter,
    },
    /// A SOAP/REST service.
    Service {
        /// Endpoint in the transport registry.
        endpoint: String,
        /// Operation (REST path or SOAP operation).
        operation: String,
        /// Parameter name carrying the query/item text.
        item_param: String,
        /// Timeout/retry policy.
        policy: CallPolicy,
    },
    /// The integrated ad service.
    Ads {
        /// Slots to auction.
        slots: usize,
    },
    /// Another hosted application used as a content source (paper §IV
    /// future work: "creating new applications by composing other
    /// applications"). Resolved by the hosting layer, which runs the
    /// referenced app's full pipeline and feeds its results in as a
    /// pre-computed outcome; only valid as a *primary* source.
    ComposedApp {
        /// The hosted application to query.
        app: crate::app::AppId,
    },
}

/// One result from any source: uniform `(field, value)` records.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultItem {
    /// Ordered field/value pairs.
    pub fields: Vec<(String, String)>,
    /// Relevance score (0 for sources without scoring).
    pub score: f32,
}

impl ResultItem {
    /// Field lookup.
    pub fn field(&self, name: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Outcome of running a source.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceOutcome {
    /// Items returned (possibly empty).
    pub items: Vec<ResultItem>,
    /// Virtual time the source took.
    pub virtual_ms: u32,
    /// Soft error: the runtime degrades gracefully (paper: results
    /// merge whatever content arrived), recording what went wrong.
    pub error: Option<String>,
    /// Transport attempts made (1 for local sources; >1 when a
    /// service call was retried; 0 when nothing was attempted — e.g.
    /// a breaker fast-fail or a deadline cut before the wire). The
    /// runtime deducts `attempts - 1` from the query's retry budget.
    pub attempts: u32,
}

impl SourceOutcome {
    /// `items` found in `virtual_ms` over `attempts` transport attempts.
    pub(crate) fn found(items: Vec<ResultItem>, virtual_ms: u32, attempts: u32) -> Self {
        SourceOutcome {
            items,
            virtual_ms,
            error: None,
            attempts,
        }
    }

    /// A soft error: nothing found, `virtual_ms` spent over `attempts`.
    pub(crate) fn failed(error: String, virtual_ms: u32, attempts: u32) -> Self {
        SourceOutcome {
            items: Vec::new(),
            virtual_ms,
            error: Some(error),
            attempts,
        }
    }
}

/// Per-fetch resilience context the runtime threads into
/// [`run_source_ctx`]: where on the virtual clock the fetch starts,
/// how much of the query deadline it may spend, how many retries the
/// query's retry budget still grants, and the platform's shared
/// circuit-breaker registry.
#[derive(Debug, Clone, Copy, Default)]
pub struct SourceCtx<'a> {
    /// Virtual time at which the fetch starts.
    pub now_ms: u64,
    /// Budget in virtual ms for the whole fetch (`None` = unlimited).
    pub budget_ms: Option<u32>,
    /// Retries granted from the per-query retry budget (`None` =
    /// the source's own policy decides alone).
    pub retries_allowed: Option<u32>,
    /// Shared circuit breakers (service sources only).
    pub breakers: Option<&'a BreakerRegistry>,
}

impl<'a> SourceCtx<'a> {
    /// Context at a virtual time with no limits.
    pub fn at(now_ms: u64) -> Self {
        SourceCtx {
            now_ms,
            ..Default::default()
        }
    }
}

/// Outcome of one scatter-gather web query across shard nodes.
///
/// `results` carry the rank-safe merged top-k (bit-identical to a
/// single-index search when every shard answered); `shards_answered <
/// shards_total` marks a degraded partial answer, with `error` naming
/// the shards that stayed silent.
#[derive(Debug, Clone, Default)]
pub struct ScatterOutcome {
    /// Merged ranked results.
    pub results: Vec<WebResult>,
    /// Virtual cost of the scatter: max over shard call chains plus
    /// the gather step (shards run in parallel on the virtual clock).
    pub virtual_ms: u32,
    /// Shards whose pools made it into the merge.
    pub shards_answered: u32,
    /// Total shards the query scattered to.
    pub shards_total: u32,
    /// `Some` when at least one shard stayed silent (partial result).
    pub error: Option<String>,
}

/// A distributed web-search backend: scatters a vertical query across
/// document-partitioned shard nodes and gathers a rank-safe merge.
/// When attached to [`Substrates`], web-vertical sources prefer it
/// over the local `engine`.
pub trait ScatterSearch: Send + Sync {
    /// Run `query` against every shard of `vertical`, merging to `k`
    /// results. `now_ms` positions the shard RPCs on the virtual
    /// clock (fault windows, breaker cooldowns).
    fn scatter(
        &self,
        vertical: Vertical,
        query: &str,
        config: &SearchConfig,
        k: usize,
        now_ms: u64,
    ) -> ScatterOutcome;
}

/// Shared references to every substrate a source may need.
#[derive(Clone, Copy)]
pub struct Substrates<'a> {
    /// The tenant's private space (proprietary tables).
    pub space: Option<&'a TenantSpace>,
    /// The general web search engine.
    pub engine: Option<&'a SearchEngine>,
    /// The service transport.
    pub transport: Option<&'a SimulatedTransport>,
    /// The ad service.
    pub ads: Option<&'a AdServer>,
    /// Distributed web-search backend; preferred over `engine` for
    /// web verticals when set.
    pub scatter: Option<&'a dyn ScatterSearch>,
}

// The parallel fan-out and the platform's concurrent serving path
// both hand `Substrates` to worker threads: every substrate must stay
// `Sync` (reads) and the handle itself `Send`. Asserting it here
// pins the requirement to the type that crosses thread boundaries.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Substrates<'_>>();
};

impl std::fmt::Debug for Substrates<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Substrates")
            .field("space", &self.space.is_some())
            .field("engine", &self.engine.is_some())
            .field("transport", &self.transport.is_some())
            .field("ads", &self.ads.is_some())
            .field("scatter", &self.scatter.is_some())
            .finish()
    }
}

/// Execute `query` against one source, returning up to `k` items.
///
/// `constraint` is the "richer querying of structured data" extension
/// (paper §IV future work): a structured [`Filter`](symphony_store::Filter)
/// the designer attached to a proprietary source — e.g. *only in-stock
/// items*, *price below 50* — evaluated on the typed records before
/// they leave the store. Non-proprietary sources ignore it.
pub fn run_source(
    def: &DataSourceDef,
    query: &str,
    k: usize,
    subs: Substrates<'_>,
    constraint: Option<&symphony_store::Filter>,
) -> SourceOutcome {
    run_source_ctx(def, query, k, subs, constraint, &SourceCtx::default())
}

/// Like [`run_source`], under a resilience context: the fetch starts
/// at `ctx.now_ms` on the virtual clock, may not spend more than
/// `ctx.budget_ms`, and service calls respect the retry grant and the
/// circuit breakers. A fetch whose budget cannot even cover the
/// source's fixed cost is cut before it starts — a degraded slot, not
/// a stall.
pub fn run_source_ctx(
    def: &DataSourceDef,
    query: &str,
    k: usize,
    subs: Substrates<'_>,
    constraint: Option<&symphony_store::Filter>,
    ctx: &SourceCtx<'_>,
) -> SourceOutcome {
    run_tagged(def, query, k, subs, constraint, ctx).0
}

/// A source outcome tagged with how the fetch failed, when it did.
pub(crate) type Tagged = (SourceOutcome, Option<Outcome>);

/// Tag an outcome whose failure has no name: any error is `Failed`.
pub(crate) fn tag_plain(outcome: SourceOutcome) -> Tagged {
    let failure = outcome.error.is_some().then_some(Outcome::Failed);
    (outcome, failure)
}

/// [`run_source_ctx`], with the failure tagged where it happens.
pub(crate) fn run_tagged(
    def: &DataSourceDef,
    query: &str,
    k: usize,
    subs: Substrates<'_>,
    constraint: Option<&symphony_store::Filter>,
    ctx: &SourceCtx<'_>,
) -> Tagged {
    // Fixed-cost local sources: cut when the budget can't cover them.
    let fixed_cost = match def {
        DataSourceDef::Proprietary { .. } | DataSourceDef::Hybrid { .. } => Some(PROPRIETARY_MS),
        // Scatter cost is dynamic (max over shard call chains), so
        // only the local-engine path has the fixed WEB_MS price; the
        // scatter path is budget-checked after the fact instead.
        DataSourceDef::WebVertical { .. } if subs.scatter.is_none() => Some(WEB_MS),
        DataSourceDef::WebVertical { .. } => None,
        DataSourceDef::Ads { .. } => Some(ADS_MS),
        DataSourceDef::Service { .. } | DataSourceDef::ComposedApp { .. } => None,
    };
    if let (Some(cost), Some(budget)) = (fixed_cost, ctx.budget_ms) {
        if budget < cost {
            return deadline_cut(budget);
        }
    }
    match def {
        DataSourceDef::Proprietary { table } | DataSourceDef::Hybrid { table, .. } => {
            let Some(space) = subs.space else {
                return soft_err("no tenant space attached", 0);
            };
            let indexed = match space.table(table) {
                Ok(t) => t,
                Err(e) => return soft_err(&e.to_string(), 0),
            };
            let parsed = symphony_text::Query::parse(query);
            // The runtime's per-query constraint composes conjunctively
            // with a hybrid source's own predicate, and the planner sees
            // both. A constrained proprietary source is a hybrid query
            // over the constraint alone, so it fills all `k` slots
            // whenever `k` matching records exist, however low they rank.
            let own = match def {
                DataSourceDef::Hybrid { filter, .. } => Some(filter),
                _ => None,
            };
            let filter = match (own, constraint) {
                (Some(f), Some(c)) => Some(f.clone().and(c.clone())),
                (f, c) => f.or(c).cloned(),
            };
            let hits = match filter {
                Some(f) => indexed
                    .hybrid_query(&symphony_store::HybridQuery::new(parsed, f, k))
                    .map(|r| r.hits),
                None => indexed.search(&parsed, k),
            };
            let hits = match hits {
                Ok(h) => h,
                Err(e) => return soft_err(&e.to_string(), PROPRIETARY_MS),
            };
            let rows = indexed.table();
            let fields = rows.schema().fields();
            let items = hits
                .into_iter()
                .filter_map(|h| {
                    let rec = rows.get(h.record)?;
                    Some(ResultItem {
                        fields: fields
                            .iter()
                            .enumerate()
                            .map(|(i, f)| (f.name.clone(), rec.get(i).display_string()))
                            .collect(),
                        score: h.score,
                    })
                })
                .collect();
            (SourceOutcome::found(items, PROPRIETARY_MS, 1), None)
        }
        DataSourceDef::WebVertical { vertical, config } => {
            if let Some(cluster) = subs.scatter {
                let out = cluster.scatter(*vertical, query, config, k, ctx.now_ms);
                if let Some(budget) = ctx.budget_ms {
                    if out.virtual_ms > budget {
                        // The shard fan-out overran the remaining
                        // deadline: a degraded slot, charged at the
                        // budget it burned through.
                        return deadline_cut(budget);
                    }
                }
                return tag_plain(SourceOutcome {
                    items: out.results.into_iter().map(web_item).collect(),
                    virtual_ms: out.virtual_ms,
                    error: out.error,
                    attempts: 1,
                });
            }
            let Some(engine) = subs.engine else {
                return soft_err("no web engine attached", 0);
            };
            let items = engine
                .search(*vertical, query, config, k)
                .into_iter()
                .map(web_item)
                .collect();
            (SourceOutcome::found(items, WEB_MS, 1), None)
        }
        DataSourceDef::Service {
            endpoint,
            operation,
            item_param,
            policy,
        } => {
            let Some(transport) = subs.transport else {
                return soft_err("no transport attached", 0);
            };
            let client = ServiceClient::with_policy(transport, *policy);
            let request = ServiceRequest::get(operation, &[(item_param, query)]);
            let rctx = ResilienceContext {
                now_ms: ctx.now_ms,
                budget_ms: ctx.budget_ms,
                max_retries: ctx.retries_allowed,
                breakers: ctx.breakers,
            };
            match client.call_resilient(endpoint, &request, &rctx) {
                Ok(out) => {
                    let records = out.response.records.into_iter().take(k);
                    let items = records.map(|fields| ResultItem { fields, score: 0.0 });
                    let found =
                        SourceOutcome::found(items.collect(), out.total_latency_ms, out.attempts);
                    (found, None)
                }
                Err((e, burned)) => {
                    // What failed, and how many transport attempts it
                    // consumed (the retry budget is charged for each).
                    let retried = (policy.retries)
                        .min(ctx.retries_allowed.unwrap_or(u32::MAX))
                        .saturating_add(1);
                    let (failure, attempts) = match &e {
                        ServiceError::CircuitOpen { .. } => (Outcome::CircuitOpen, 0),
                        ServiceError::UnknownEndpoint(_) | ServiceError::Fault(_) => {
                            (Outcome::Failed, 1)
                        }
                        ServiceError::TransportFailure { .. } => (Outcome::Failed, retried),
                        ServiceError::Timeout { .. } => (Outcome::TimedOut, retried),
                        ServiceError::DeadlineCut { .. } => (Outcome::DeadlineCut, retried),
                    };
                    (
                        SourceOutcome::failed(e.to_string(), burned, attempts),
                        Some(failure),
                    )
                }
            }
        }
        DataSourceDef::ComposedApp { app } => soft_err(
            &format!(
                "composed app {} must be resolved by the hosting layer",
                app.0
            ),
            0,
        ),
        DataSourceDef::Ads { slots } => {
            let Some(ads) = subs.ads else {
                return soft_err("no ad service attached", 0);
            };
            let items = ads
                .select(query, (*slots).min(k.max(1)))
                .into_iter()
                .map(|p| ResultItem {
                    fields: vec![
                        ("title".to_string(), p.title),
                        ("display_url".to_string(), p.display_url),
                        ("target_url".to_string(), p.target_url),
                        ("text".to_string(), p.text),
                        ("keyword".to_string(), p.keyword),
                        ("campaign".to_string(), p.campaign.0.to_string()),
                        ("price_cents".to_string(), p.price_cents.to_string()),
                        ("position".to_string(), p.position.to_string()),
                    ],
                    score: 0.0,
                })
                .collect();
            (SourceOutcome::found(items, ADS_MS, 1), None)
        }
    }
}

/// Flatten a web result into uniform source fields (the optional
/// vertical extras ride along only when present).
fn web_item(r: WebResult) -> ResultItem {
    let mut fields = vec![
        ("url".to_string(), r.url),
        ("title".to_string(), r.title),
        ("snippet".to_string(), r.snippet),
        ("domain".to_string(), r.domain),
    ];
    if let Some(src) = r.image_src {
        fields.push(("image_src".into(), src));
    }
    if let Some(d) = r.duration_s {
        fields.push(("duration_s".into(), d.to_string()));
    }
    if let Some(d) = r.date {
        fields.push(("date".into(), d.to_string()));
    }
    ResultItem {
        fields,
        score: r.score,
    }
}

fn soft_err(msg: &str, virtual_ms: u32) -> Tagged {
    tag_plain(SourceOutcome::failed(msg.to_string(), virtual_ms, 1))
}

/// A fetch cut before it started because the remaining deadline
/// budget cannot cover it: free (0 virtual ms), no attempt made.
pub(crate) fn deadline_cut(budget_ms: u32) -> Tagged {
    let error = ServiceError::DeadlineCut { budget_ms }.to_string();
    (
        SourceOutcome::failed(error, 0, 0),
        Some(Outcome::DeadlineCut),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use symphony_services::{LatencyModel, PricingService};
    use symphony_store::ingest::{ingest, DataFormat};
    use symphony_store::{IndexedTable, Store};
    use symphony_web::{Corpus, CorpusConfig, Topic};

    fn store_with_inventory() -> (Store, symphony_store::TenantId, symphony_store::AccessKey) {
        let mut store = Store::new();
        let (tenant, key) = store.create_tenant("GamerQueen");
        let (table, _) = ingest(
            "inventory",
            "title,genre,price\nGalactic Raiders,shooter,49.99\nFarm Story,sim,19.99\n",
            DataFormat::Csv,
        )
        .unwrap();
        let mut indexed = IndexedTable::new(table);
        indexed
            .enable_fulltext(&[("title", 2.0), ("genre", 1.0)])
            .unwrap();
        store.space_mut(tenant, &key).unwrap().put_table(indexed);
        (store, tenant, key)
    }

    fn none_subs() -> Substrates<'static> {
        Substrates {
            space: None,
            engine: None,
            transport: None,
            ads: None,
            scatter: None,
        }
    }

    #[test]
    fn proprietary_source_returns_schema_fields() {
        let (store, tenant, key) = store_with_inventory();
        let space = store.space(tenant, &key).unwrap();
        let out = run_source(
            &DataSourceDef::Proprietary {
                table: "inventory".into(),
            },
            "shooter",
            10,
            Substrates {
                space: Some(space),
                ..none_subs()
            },
            None,
        );
        assert!(out.error.is_none());
        assert_eq!(out.items.len(), 1);
        assert_eq!(out.items[0].field("title"), Some("Galactic Raiders"));
        assert_eq!(out.items[0].field("price"), Some("49.99"));
        assert_eq!(out.virtual_ms, PROPRIETARY_MS);
    }

    #[test]
    fn hybrid_source_applies_filter_exactly() {
        use symphony_store::{CmpOp, Filter, Value};
        let (mut store, tenant, key) = {
            let (s, t, k) = store_with_inventory();
            (s, t, k)
        };
        // Index the price column so the hybrid planner can read it.
        store
            .space_mut(tenant, &key)
            .unwrap()
            .table_mut("inventory")
            .unwrap()
            .create_index("price", symphony_store::IndexKind::Ordered)
            .unwrap();
        let space = store.space(tenant, &key).unwrap();
        let def = DataSourceDef::Hybrid {
            table: "inventory".into(),
            filter: Filter::cmp(2, CmpOp::Lt, Value::Float(30.0)),
        };
        // "sim" matches Farm Story (19.99); the shooter at 49.99 is
        // excluded by the source's own predicate.
        let out = run_source(
            &def,
            "sim shooter",
            10,
            Substrates {
                space: Some(space),
                ..none_subs()
            },
            None,
        );
        assert!(out.error.is_none());
        assert_eq!(out.items.len(), 1);
        assert_eq!(out.items[0].field("title"), Some("Farm Story"));
        assert_eq!(out.virtual_ms, PROPRIETARY_MS);
        // A runtime constraint composes conjunctively: price < 30 AND
        // price < 10 matches nothing.
        let none = run_source(
            &def,
            "sim shooter",
            10,
            Substrates {
                space: Some(space),
                ..none_subs()
            },
            Some(&Filter::cmp(2, CmpOp::Lt, Value::Float(10.0))),
        );
        assert!(none.items.is_empty());
        assert!(none.error.is_none());
    }

    #[test]
    fn constrained_proprietary_source_fills_k_like_hybrid() {
        use symphony_store::{CmpOp, Filter, Value};
        // 60 strong matches outrank 20 weak ones, and only the weak
        // ones satisfy the constraint: every record that passes it
        // ranks below position 60.
        let mut csv = String::from("title,price\n");
        for i in 0..60 {
            csv.push_str(&format!("widget widget widget {i},99.5\n"));
        }
        for i in 0..20 {
            csv.push_str(&format!("widget gadget gizmo {i},1.5\n"));
        }
        let mut store = Store::new();
        let (tenant, key) = store.create_tenant("Widgets");
        let (table, _) = ingest("catalog", &csv, DataFormat::Csv).unwrap();
        let mut indexed = IndexedTable::new(table);
        indexed.enable_fulltext(&[("title", 1.0)]).unwrap();
        store.space_mut(tenant, &key).unwrap().put_table(indexed);
        let space = store.space(tenant, &key).unwrap();
        let subs = || Substrates {
            space: Some(space),
            ..none_subs()
        };
        let cheap = Filter::cmp(1, CmpOp::Lt, Value::Float(10.0));
        let proprietary = run_source(
            &DataSourceDef::Proprietary {
                table: "catalog".into(),
            },
            "widget",
            10,
            subs(),
            Some(&cheap),
        );
        let hybrid = run_source(
            &DataSourceDef::Hybrid {
                table: "catalog".into(),
                filter: cheap.clone(),
            },
            "widget",
            10,
            subs(),
            None,
        );
        assert!(proprietary.error.is_none());
        assert_eq!(proprietary.items.len(), 10);
        assert!(proprietary
            .items
            .iter()
            .all(|item| item.field("price") == Some("1.5")));
        assert_eq!(proprietary.items, hybrid.items);
    }

    #[test]
    fn missing_table_is_soft_error() {
        let (store, tenant, key) = store_with_inventory();
        let space = store.space(tenant, &key).unwrap();
        let out = run_source(
            &DataSourceDef::Proprietary {
                table: "nope".into(),
            },
            "x",
            5,
            Substrates {
                space: Some(space),
                ..none_subs()
            },
            None,
        );
        assert!(out.items.is_empty());
        assert!(out.error.unwrap().contains("unknown table"));
    }

    #[test]
    fn web_source_maps_meta_fields() {
        let corpus = Corpus::generate(
            &CorpusConfig {
                sites_per_topic: 2,
                pages_per_site: 4,
                ..CorpusConfig::default()
            }
            .with_entities(Topic::Games, ["Galactic Raiders"]),
        );
        let engine = SearchEngine::new(corpus);
        let out = run_source(
            &DataSourceDef::WebVertical {
                vertical: Vertical::Image,
                config: SearchConfig::default(),
            },
            "Galactic Raiders",
            5,
            Substrates {
                engine: Some(&engine),
                ..none_subs()
            },
            None,
        );
        assert!(!out.items.is_empty());
        assert!(out.items[0].field("image_src").is_some());
        assert_eq!(out.virtual_ms, WEB_MS);
    }

    #[test]
    fn service_source_carries_transport_latency() {
        let mut transport = SimulatedTransport::new(1);
        transport.register("pricing", Box::new(PricingService), LatencyModel::fast());
        let out = run_source(
            &DataSourceDef::Service {
                endpoint: "pricing".into(),
                operation: "/price".into(),
                item_param: "item".into(),
                policy: CallPolicy::default(),
            },
            "Galactic Raiders",
            5,
            Substrates {
                transport: Some(&transport),
                ..none_subs()
            },
            None,
        );
        assert!(out.error.is_none());
        assert_eq!(out.items.len(), 1);
        assert!(out.items[0].field("price").is_some());
        assert!(out.virtual_ms <= 10);
    }

    #[test]
    fn service_failure_is_soft_and_charged() {
        let transport = SimulatedTransport::new(1);
        let out = run_source(
            &DataSourceDef::Service {
                endpoint: "missing".into(),
                operation: "/x".into(),
                item_param: "item".into(),
                policy: CallPolicy::default(),
            },
            "q",
            5,
            Substrates {
                transport: Some(&transport),
                ..none_subs()
            },
            None,
        );
        assert!(out.items.is_empty());
        assert!(out.error.unwrap().contains("unknown endpoint"));
    }

    #[test]
    fn ads_source_exposes_billing_fields() {
        use symphony_ads::{Ad, Keyword, MatchType};
        let mut ads = AdServer::new();
        let adv = ads.add_advertiser("MegaGames");
        ads.add_campaign(
            adv,
            "c",
            1000,
            vec![Keyword::new("game", MatchType::Broad, 50)],
            Ad {
                title: "Sale".into(),
                display_url: "d".into(),
                target_url: "http://mega.example.com".into(),
                text: "x".into(),
            },
            0.8,
        );
        let out = run_source(
            &DataSourceDef::Ads { slots: 2 },
            "space game",
            5,
            Substrates {
                ads: Some(&ads),
                scatter: None,
                ..none_subs()
            },
            None,
        );
        assert_eq!(out.items.len(), 1);
        assert_eq!(out.items[0].field("campaign"), Some("0"));
        assert!(out.items[0].field("price_cents").is_some());
    }

    #[test]
    fn missing_substrates_are_soft_errors() {
        for def in [
            DataSourceDef::Proprietary { table: "t".into() },
            DataSourceDef::WebVertical {
                vertical: Vertical::Web,
                config: SearchConfig::default(),
            },
            DataSourceDef::Service {
                endpoint: "e".into(),
                operation: "/o".into(),
                item_param: "q".into(),
                policy: CallPolicy::default(),
            },
            DataSourceDef::Ads { slots: 1 },
        ] {
            let out = run_source(&def, "q", 3, none_subs(), None);
            assert!(out.error.is_some(), "{def:?}");
        }
    }

    #[test]
    fn composed_app_source_without_hosting_is_soft_error() {
        let def = DataSourceDef::ComposedApp {
            app: crate::app::AppId(3),
        };
        let out = run_source(&def, "q", 5, none_subs(), None);
        assert!(out.items.is_empty());
        assert!(out.error.unwrap().contains("hosting layer"));
    }

    #[test]
    fn budget_below_fixed_cost_cuts_local_sources_for_free() {
        let (store, tenant, key) = store_with_inventory();
        let space = store.space(tenant, &key).unwrap();
        let ctx = SourceCtx {
            budget_ms: Some(PROPRIETARY_MS - 1),
            ..SourceCtx::at(0)
        };
        let out = run_source_ctx(
            &DataSourceDef::Proprietary {
                table: "inventory".into(),
            },
            "shooter",
            5,
            Substrates {
                space: Some(space),
                ..none_subs()
            },
            None,
            &ctx,
        );
        assert!(out.error.unwrap().contains("deadline cut"));
        assert_eq!(out.virtual_ms, 0);
        assert_eq!(out.attempts, 0);
        // A budget that covers the cost runs normally.
        let ok = run_source_ctx(
            &DataSourceDef::Proprietary {
                table: "inventory".into(),
            },
            "shooter",
            5,
            Substrates {
                space: Some(space),
                ..none_subs()
            },
            None,
            &SourceCtx {
                budget_ms: Some(PROPRIETARY_MS),
                ..SourceCtx::at(0)
            },
        );
        assert!(ok.error.is_none());
        assert_eq!(ok.virtual_ms, PROPRIETARY_MS);
    }

    #[test]
    fn open_breaker_degrades_service_source_in_zero_ms() {
        use symphony_services::{BreakerConfig, BreakerRegistry};
        let mut transport = SimulatedTransport::new(1);
        transport.register("pricing", Box::new(PricingService), LatencyModel::fast());
        let breakers = BreakerRegistry::new(BreakerConfig {
            failure_threshold: 1,
            open_ms: 10_000,
            half_open_successes: 1,
        });
        breakers.record("pricing", 0, false); // trip it
        let out = run_source_ctx(
            &DataSourceDef::Service {
                endpoint: "pricing".into(),
                operation: "/price".into(),
                item_param: "item".into(),
                policy: CallPolicy::default(),
            },
            "Galactic Raiders",
            5,
            Substrates {
                transport: Some(&transport),
                ..none_subs()
            },
            None,
            &SourceCtx {
                breakers: Some(&breakers),
                ..SourceCtx::at(100)
            },
        );
        assert!(out.error.unwrap().contains("circuit open"));
        assert_eq!(out.virtual_ms, 0);
        assert_eq!(out.attempts, 0);
    }

    #[test]
    fn service_deadline_budget_caps_burned_time() {
        let mut transport = SimulatedTransport::new(1);
        transport.register(
            "pricing",
            Box::new(PricingService),
            LatencyModel {
                base_ms: 500,
                jitter_ms: 0,
                failure_rate: 0.0,
            },
        );
        let out = run_source_ctx(
            &DataSourceDef::Service {
                endpoint: "pricing".into(),
                operation: "/price".into(),
                item_param: "item".into(),
                policy: CallPolicy {
                    timeout_ms: 400,
                    retries: 3,
                    ..CallPolicy::default()
                },
            },
            "Galactic Raiders",
            5,
            Substrates {
                transport: Some(&transport),
                ..none_subs()
            },
            None,
            &SourceCtx {
                budget_ms: Some(60),
                ..SourceCtx::at(0)
            },
        );
        // One attempt times out at the 60ms budget, the rest are cut.
        assert!(out.error.is_some());
        assert_eq!(out.virtual_ms, 60);
    }
}
