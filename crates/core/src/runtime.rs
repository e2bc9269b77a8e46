//! Query execution (paper §II-C and Fig. 2).
//!
//! The flow the paper describes, end to end:
//!
//! 1. the embedded JavaScript forwards the customer's query;
//! 2. primary content sources are queried with it;
//! 3. supplemental sources are queried with templates over fields of
//!    each primary result — those fetches **fan out in parallel**
//!    (what the L2 source cache cannot answer on the spot is fetched
//!    by the querying thread and scoped helpers, bounded by the
//!    host's cores), one of the platform's core "heavy lifting" claims
//!    (ablated in experiment E1);
//! 4. everything merges into the designed layout and renders to HTML;
//! 5. the HTML goes back to the page.
//!
//! Latency is *virtual*: each source reports virtual milliseconds, and
//! the runtime combines them as `max` under parallel execution or
//! `sum` under the sequential ablation.

use crate::admission::{FanoutScheduler, Lane};
use crate::app::{ApplicationConfig, ResiliencePolicy};
use crate::monetize::Impression;
use crate::source::{run_tagged, tag_plain, SourceCtx, SourceOutcome, Substrates};
use crate::source_cache::{Fetched, SourceCache};
use crate::trace::{ExecutionTrace, Outcome, SpanKind, TraceNode};
use std::borrow::Cow;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use symphony_designer::{render_into, Element, ElementKind};
use symphony_services::BreakerRegistry;

/// Fan-out execution mode (E1 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Supplemental fetches run concurrently; virtual time is the max.
    Parallel,
    /// Fetches run one after another; virtual time is the sum.
    Sequential,
}

impl ExecMode {
    /// Combine stage times: the max in parallel, the sum in sequence.
    fn combine(self, ms: impl Iterator<Item = u32>) -> u32 {
        match self {
            ExecMode::Parallel => ms.max().unwrap_or(0),
            ExecMode::Sequential => ms.sum(),
        }
    }
}

/// Fixed virtual cost of receiving/dispatching the snippet request.
pub(crate) const RECEIVE_MS: u32 = 1;
/// Fixed virtual cost of merging and formatting the response.
pub(crate) const MERGE_MS: u32 = 2;
/// Upper bound on the threads a parallel fan-out may use on any host.
/// Virtual-time semantics (`max` combining) are unchanged; the cap only
/// bounds real resource use per query.
pub const MAX_FANOUT_WORKERS: usize = 16;

/// The threads one parallel fan-out may occupy on *this* host, the
/// calling thread included: [`MAX_FANOUT_WORKERS`] bounded by the
/// cores present. Every source is in-process compute (the I/O a real
/// deployment overlaps is carried by the virtual clock), so a thread
/// beyond the cores buys only its spawn. Read once per process.
pub(crate) fn fanout_cap() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        MAX_FANOUT_WORKERS.min(cores)
    })
}

/// Flat virtual cost of a shed (admission-refused) response: cheaper
/// than a cache hit, and no source, breaker, or cache is touched.
pub(crate) const SHED_MS: u32 = 1;

/// Execution context the hosting layer threads into the runtime: the
/// platform's virtual clock and its shared circuit breakers. The
/// default (`now = 0`, no breakers) reproduces standalone execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecCtx<'a> {
    /// Virtual time at which the query arrives.
    pub now_ms: u64,
    /// Shared per-endpoint circuit breakers.
    pub breakers: Option<&'a BreakerRegistry>,
    /// The platform's shared L2 source-result cache. `None` executes
    /// every fetch directly (standalone execution, ablations).
    pub source_cache: Option<&'a SourceCache>,
    /// The platform's shared fan-out worker pool. `None` gives every
    /// query the host's whole fan-out cap ([`MAX_FANOUT_WORKERS`]
    /// bounded by its cores; standalone execution); with a scheduler,
    /// concurrent queries receive weighted fair shares of the pool
    /// instead.
    pub scheduler: Option<&'a FanoutScheduler>,
    /// Scheduling lane (interactive serving vs background work).
    pub lane: Lane,
}

/// The rendered response.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// Final HTML injected into the host page.
    pub html: String,
    /// Stage-by-stage trace (drives Fig. 2).
    pub trace: ExecutionTrace,
    /// Total virtual latency.
    pub virtual_ms: u32,
    /// Impressions rendered (consumed by the monetization log).
    pub impressions: Vec<Impression>,
}

/// A supplemental fetch task. The source names borrow from the layout,
/// which outlives the query.
struct FanoutTask<'a> {
    primary_source: &'a str,
    item_idx: usize,
    source: &'a str,
    query: String,
    k: usize,
}

/// The remaining fetch budget when `consumed` virtual ms of source
/// work already happened: the per-source soft budget, further capped
/// by what the query deadline leaves after the fixed receive/merge
/// costs. `None` = unlimited.
fn budget_for(policy: &ResiliencePolicy, consumed: u32) -> Option<u32> {
    let from_deadline = (policy.query_deadline_ms != u32::MAX).then(|| {
        policy
            .query_deadline_ms
            .saturating_sub(RECEIVE_MS + MERGE_MS + consumed)
    });
    let from_source =
        (policy.per_source_budget_ms != u32::MAX).then_some(policy.per_source_budget_ms);
    match (from_deadline, from_source) {
        (None, b) => b,
        (a, None) => a,
        (Some(a), Some(b)) => Some(a.min(b)),
    }
}

/// Soft outcome for a fetch whose source panicked: the slot
/// degrades, the query survives.
fn panic_outcome(source: &str, payload: &(dyn std::any::Any + Send)) -> Fetched {
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("unknown panic");
    let outcome = SourceOutcome::failed(format!("source {source:?} panicked: {msg}"), 0, 1);
    Fetched::uncached((outcome, Some(Outcome::Panicked)))
}

/// Execute `query` against an application over the given substrates,
/// with pre-resolved outcomes for some primary sources, under an
/// execution context. The hosting layer passes overrides for
/// [`ComposedApp`](crate::source::DataSourceDef::ComposedApp) sources,
/// whose results come from recursively querying another hosted
/// application. The
/// virtual clock position anchors deterministic latency draws and
/// fault windows, the app's [`ResiliencePolicy`] bounds deadlines /
/// budgets / retries, and the shared circuit breakers are consulted
/// for every service fetch.
pub fn execute_resilient(
    app: &ApplicationConfig,
    query: &str,
    subs: Substrates<'_>,
    mode: ExecMode,
    overrides: &HashMap<String, SourceOutcome>,
    ctx: &ExecCtx<'_>,
) -> QueryResponse {
    let policy = app.resilience;
    // The query-wide retry pool; `None` = unlimited.
    let mut retry_pool: Option<u32> =
        (policy.max_total_retries != u32::MAX).then_some(policy.max_total_retries);

    // Where a fetch starts and what it may spend, once `consumed` ms
    // of source work came before it and `retries` remain to it.
    let sctx_at = |consumed: u32, retries: Option<u32>| SourceCtx {
        now_ms: ctx.now_ms + (RECEIVE_MS + consumed) as u64,
        budget_ms: budget_for(&policy, consumed),
        retries_allowed: retries,
        breakers: ctx.breakers,
    };

    // ---- Stage 1: primary content -------------------------------
    // Each primary source is fetched once, at its first list's size.
    let primary_specs = app.primary_list_refs();
    let mut primary_slots: Vec<(&str, usize)> = Vec::new();
    for &(source, max, _) in &primary_specs {
        if primary_slots.iter().all(|&(s, _)| s != source) {
            primary_slots.push((source, max));
        }
    }
    let fetched = run_in_order(
        &primary_slots,
        0,
        mode == ExecMode::Sequential,
        &mut retry_pool,
        sctx_at,
        |&(source, max), sctx| match overrides.get(source) {
            Some(pre) => Fetched::uncached(tag_plain(pre.clone())),
            None => fetch_slot(app, source, query, max, subs, sctx, ctx.source_cache),
        },
    );
    let mut stages = vec![TraceNode::stage(SpanKind::Receive, RECEIVE_MS, Vec::new())];
    for (&(source, max), f) in primary_slots.iter().zip(&fetched) {
        let kind = SpanKind::Primary { max };
        stages.push(TraceNode::fetch(kind, source, f, String::new()));
    }
    let primary: HashMap<&str, Fetched> = primary_slots
        .iter()
        .map(|&(source, _)| source)
        .zip(fetched)
        .collect();
    let primary_ms = mode.combine(primary.values().map(|f| f.charged_ms));

    // ---- Stage 2: supplemental fan-out ---------------------------
    let mut tasks: Vec<FanoutTask> = Vec::new();
    for &(psource, max, item_el) in &primary_specs {
        let outcome = &primary[psource].outcome;
        let nested = nested_lists(item_el);
        if nested.is_empty() {
            continue;
        }
        for (idx, item) in outcome.items.iter().take(max).enumerate() {
            let lookup = |name: &str| item.field(name).map(Cow::Borrowed);
            for (ssource, smax) in &nested {
                let Some(binding) = app.binding(ssource) else {
                    continue; // validated configs always have one
                };
                let mut q = String::new();
                binding.query_template.render_into(&mut q, &lookup, false);
                if q.trim().is_empty() {
                    continue;
                }
                tasks.push(FanoutTask {
                    primary_source: psource,
                    item_idx: idx,
                    source: ssource,
                    query: q,
                    k: *smax,
                });
            }
        }
    }

    // Threads the parallel fan-out occupied, the caller included (0
    // when the L2 answered every slot); the fan-out stage records it.
    let mut workers = 0usize;
    let fetch_task = |t: &FanoutTask<'_>, sctx: &SourceCtx<'_>| {
        fetch_slot(app, t.source, &t.query, t.k, subs, sctx, ctx.source_cache)
    };
    let outcomes: Vec<Fetched> = match mode {
        ExecMode::Sequential => run_in_order(
            &tasks,
            primary_ms,
            true,
            &mut retry_pool,
            sctx_at,
            fetch_task,
        ),
        ExecMode::Parallel => {
            // All fan-out fetches start together, once the primaries
            // are in: same virtual start time and deadline budget. The
            // retry pool is pre-split across tasks: sharing one mutable
            // pool between racing workers would make grants depend on
            // thread scheduling.
            let n = tasks.len();
            let sctx_of = |i: usize| {
                let share = retry_pool
                    .map(|pool| pool / n as u32 + u32::from((i as u32) < pool % n as u32));
                sctx_at(primary_ms, share)
            };
            // What the L2 can answer it answers here, on the calling
            // thread; only the residual costs a worker.
            let mut slots: Vec<Option<Fetched>> = tasks
                .iter()
                .enumerate()
                .map(|(i, t)| probe(app, t, &sctx_of(i), ctx.source_cache))
                .collect();
            let residual: Vec<usize> = (0..n).filter(|&i| slots[i].is_none()).collect();
            // Nothing left to fetch: no scheduler grant is billed and
            // no thread scope opened.
            if !residual.is_empty() {
                // Bounded chunk pool: at most `fanout_cap()` threads —
                // the calling thread is the first of them — pull tasks
                // off a shared index. One panicking source degrades its
                // own slot only. When the platform's shared scheduler
                // is attached, the worker count is this tenant's
                // weighted fair share of the pool instead of the full
                // cap, so concurrent queries from a burst tenant cannot
                // monopolize fan-out threads. Worker count never
                // affects virtual time (max-combining), only real
                // parallelism.
                let want = residual.len().min(fanout_cap());
                let grant = ctx
                    .scheduler
                    .map(|s| s.acquire(app.owner.0 as u64, app.admission.weight, want, ctx.lane));
                workers = grant.as_ref().map_or(want, |g| g.workers());
                let next = AtomicUsize::new(0);
                let worker = || {
                    let mut local = Vec::new();
                    while let Some(&i) = residual.get(next.fetch_add(1, Ordering::Relaxed)) {
                        local.push((i, fetch_task(&tasks[i], &sctx_of(i))));
                    }
                    local
                };
                std::thread::scope(|scope| {
                    let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
                    let mut done = worker();
                    for h in helpers {
                        done.extend(h.join().expect("fan-out pool worker died"));
                    }
                    for (i, o) in done {
                        slots[i] = Some(o);
                    }
                });
            }
            let outcomes: Vec<Fetched> = slots
                .into_iter()
                .map(|o| o.expect("every fan-out task ran"))
                .collect();
            for o in &outcomes {
                deduct_retries(&mut retry_pool, o);
            }
            outcomes
        }
    };
    let mut suppl: HashMap<(&str, usize, &str), Fetched> = HashMap::new();
    let mut fanout_trace: Vec<TraceNode> = Vec::new();
    for (t, f) in tasks.into_iter().zip(outcomes) {
        let kind = SpanKind::Supplemental { item: t.item_idx };
        fanout_trace.push(TraceNode::fetch(kind, t.source, &f, t.query));
        suppl.insert((t.primary_source, t.item_idx, t.source), f);
    }

    // ---- Virtual-time accounting ---------------------------------
    let suppl_ms = mode.combine(suppl.values().map(|f| f.charged_ms));
    let total_ms = RECEIVE_MS + primary_ms + suppl_ms + MERGE_MS;

    // ---- Stage 3: merge + format (render to HTML) ----------------
    // One pass into one buffer: every item layout writes into `html`
    // with its record's fields borrowed, not copied.
    let mut impressions: Vec<Impression> = Vec::new();
    let mut html = String::new();
    render_into(
        &mut html,
        app.layout.root(),
        &app.stylesheet,
        &|_| None,
        &mut |out, source, max, item_el| {
            let Some(outcome) = primary.get(source).map(|f| &f.outcome) else {
                return;
            };
            for (idx, item) in outcome.items.iter().take(max).enumerate() {
                record_impression(&mut impressions, source, idx, item);
                let lookup = |name: &str| item.field(name).map(Cow::Borrowed);
                render_into(
                    out,
                    item_el,
                    &app.stylesheet,
                    &lookup,
                    &mut |out, ssource, smax, sitem_el| {
                        let Some(soutcome) = suppl.get(&(source, idx, ssource)).map(|f| &f.outcome)
                        else {
                            return;
                        };
                        for (sidx, sitem) in soutcome.items.iter().take(smax).enumerate() {
                            record_impression(&mut impressions, ssource, sidx, sitem);
                            // Depth > 2 nesting renders empty (the paper
                            // describes exactly one supplemental level).
                            render_into(
                                out,
                                sitem_el,
                                &app.stylesheet,
                                &|name| sitem.field(name).map(Cow::Borrowed),
                                &mut |_, _, _, _| {},
                            );
                        }
                    },
                );
            }
        },
    );

    // ---- Trace ----------------------------------------------------
    if !fanout_trace.is_empty() {
        let kind = SpanKind::Fanout { mode, workers };
        stages.push(TraceNode::stage(kind, suppl_ms, fanout_trace));
    }
    let merge = SpanKind::Merge { bytes: html.len() };
    stages.push(TraceNode::stage(merge, MERGE_MS, Vec::new()));

    QueryResponse {
        html,
        trace: ExecutionTrace::new(&app.name, query, total_ms, stages),
        virtual_ms: total_ms,
        impressions,
    }
}

/// Build the cheap degraded response for a query shed by admission
/// control: the layout shell renders with every result slot empty —
/// the same path a fully errored query takes — at a flat [`SHED_MS`]
/// cost, without consulting any source, breaker, or cache. Each
/// primary slot's stage ends [`Outcome::Shed`].
pub(crate) fn shed_response(app: &ApplicationConfig, query: &str, reason: &str) -> QueryResponse {
    let mut html = String::new();
    render_into(
        &mut html,
        app.layout.root(),
        &app.stylesheet,
        &|_| None,
        &mut |_, _, _, _| {},
    );
    let mut stages = vec![TraceNode {
        outcome: Outcome::Shed,
        detail: reason.to_string(),
        ..TraceNode::stage(SpanKind::Admission, SHED_MS, Vec::new())
    }];
    for (source, max, _) in app.primary_list_refs() {
        stages.push(TraceNode {
            source: Some(source.to_string()),
            outcome: Outcome::Shed,
            ..TraceNode::stage(SpanKind::Primary { max }, 0, Vec::new())
        });
    }
    let merge = SpanKind::Merge { bytes: html.len() };
    stages.push(TraceNode::stage(merge, 0, Vec::new()));
    QueryResponse {
        html,
        trace: ExecutionTrace {
            shed: true,
            degraded: true,
            ..ExecutionTrace::new(&app.name, query, SHED_MS, stages)
        },
        virtual_ms: SHED_MS,
        impressions: Vec::new(),
    }
}

/// The L2's answer for a fan-out task, when it has one right now.
fn probe(
    app: &ApplicationConfig,
    task: &FanoutTask<'_>,
    sctx: &SourceCtx<'_>,
    cache: Option<&SourceCache>,
) -> Option<Fetched> {
    cache?.probe(
        &app.source(task.source)?.def,
        Some(app.owner),
        &task.query,
        task.k,
        app.constraint(task.source),
        sctx,
    )
}

/// Fetch one source slot, primary or supplemental, in either mode:
/// through the platform's L2 source cache when one is attached,
/// directly otherwise. A source that panics degrades its own slot to a
/// soft error; the query survives.
fn fetch_slot(
    app: &ApplicationConfig,
    source: &str,
    query: &str,
    k: usize,
    subs: Substrates<'_>,
    sctx: &SourceCtx<'_>,
    cache: Option<&SourceCache>,
) -> Fetched {
    let Some(cfg) = app.source(source) else {
        let error = format!("source {source:?} not configured");
        return Fetched::uncached(tag_plain(SourceOutcome::failed(error, 0, 0)));
    };
    let constraint = app.constraint(source);
    let run = || run_tagged(&cfg.def, query, k, subs, constraint, sctx);
    std::panic::catch_unwind(AssertUnwindSafe(|| match cache {
        Some(c) => c.fetch_tagged(&cfg.def, Some(app.owner), query, k, constraint, sctx, run),
        None => Fetched::uncached(run()),
    }))
    .unwrap_or_else(|p| panic_outcome(source, p.as_ref()))
}

/// The in-order stage runner: fetch `slots` one after another on this
/// thread. Each fetch starts `offset_ms` into the query's source time
/// — plus, when `accumulate`, what the slots before it charged — is
/// budgeted from there, and may retry as often as the retry pool
/// allows after the slots before it drew on it.
fn run_in_order<'c, T>(
    slots: &[T],
    offset_ms: u32,
    accumulate: bool,
    retry_pool: &mut Option<u32>,
    sctx_at: impl Fn(u32, Option<u32>) -> SourceCtx<'c>,
    mut fetch: impl FnMut(&T, &SourceCtx<'c>) -> Fetched,
) -> Vec<Fetched> {
    let mut consumed = offset_ms;
    slots
        .iter()
        .map(|slot| {
            let fetched = fetch(slot, &sctx_at(consumed, *retry_pool));
            deduct_retries(retry_pool, &fetched);
            if accumulate {
                consumed += fetched.charged_ms;
            }
            fetched
        })
        .collect()
}

/// Charge a fetch's retries to the query-wide pool. Cache hits charge
/// nothing: the executing fetch already paid.
fn deduct_retries(retry_pool: &mut Option<u32>, fetched: &Fetched) {
    if let Some(pool) = retry_pool.as_mut() {
        *pool = pool.saturating_sub(fetched.attempts_charged.saturating_sub(1));
    }
}

fn record_impression(
    impressions: &mut Vec<Impression>,
    source: &str,
    position: usize,
    item: &crate::source::ResultItem,
) {
    let is_ad = item.field("campaign").is_some() && item.field("price_cents").is_some();
    let url = ["url", "target_url", "detail_url", "link"]
        .iter()
        .find_map(|f| item.field(f))
        .map(str::to_string);
    let title = item.field("title").unwrap_or_default().to_string();
    impressions.push(Impression {
        source: source.to_string(),
        url,
        title,
        position,
        is_ad,
        ad_campaign: item.field("campaign").and_then(|c| c.parse().ok()),
        ad_price_cents: item.field("price_cents").and_then(|c| c.parse().ok()),
    });
}

/// Nested result lists in an item layout: `(source, max_results)`.
fn nested_lists(item_el: &Element) -> Vec<(&str, usize)> {
    let mut out = Vec::new();
    item_el.visit(&mut |e| {
        if let ElementKind::ResultList {
            source,
            max_results,
            ..
        } = &e.kind
        {
            out.push((source.as_str(), *max_results));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppBuilder;
    use crate::source::DataSourceDef;
    use crate::source_cache::FetchStatus;
    use symphony_designer::{Canvas, Element};
    use symphony_services::{CallPolicy, LatencyModel, PricingService, SimulatedTransport};
    use symphony_store::ingest::{ingest, DataFormat};
    use symphony_store::{IndexedTable, Store, TenantId};
    use symphony_web::{Corpus, CorpusConfig, SearchConfig, SearchEngine, Topic, Vertical};

    /// Stages of `trace` that errored.
    fn errors(trace: &ExecutionTrace) -> usize {
        trace.nodes().filter(|n| n.outcome.is_error()).count()
    }

    /// Fetches of `trace` the L2 served with `status`.
    fn l2_count(trace: &ExecutionTrace, status: FetchStatus) -> usize {
        trace.nodes().filter(|n| n.l2 == status).count()
    }

    /// The supplemental fan-out stage of `trace`.
    fn fanout(trace: &ExecutionTrace) -> Option<&TraceNode> {
        trace
            .nodes()
            .find(|n| matches!(n.kind, SpanKind::Fanout { .. }))
    }

    /// Execute `query` with no overrides and an unlimited context.
    fn execute(
        app: &ApplicationConfig,
        query: &str,
        subs: Substrates<'_>,
        mode: ExecMode,
    ) -> QueryResponse {
        execute_resilient(app, query, subs, mode, &HashMap::new(), &ExecCtx::default())
    }

    struct World {
        store: Store,
        tenant: TenantId,
        key: symphony_store::AccessKey,
        engine: SearchEngine,
        transport: SimulatedTransport,
    }

    fn world() -> World {
        let mut store = Store::new();
        let (tenant, key) = store.create_tenant("GamerQueen");
        let (table, _) = ingest(
            "inventory",
            "title,genre,description,detail_url,price\n\
             Galactic Raiders,shooter,a fast space shooter,http://shop.example.com/gr,49.99\n\
             Farm Story,sim,calm farming,http://shop.example.com/fs,19.99\n",
            DataFormat::Csv,
        )
        .unwrap();
        let mut indexed = IndexedTable::new(table);
        indexed
            .enable_fulltext(&[("title", 2.0), ("genre", 1.0), ("description", 1.0)])
            .unwrap();
        store.space_mut(tenant, &key).unwrap().put_table(indexed);

        let corpus = Corpus::generate(
            &CorpusConfig {
                sites_per_topic: 2,
                pages_per_site: 4,
                ..CorpusConfig::default()
            }
            .with_entities(Topic::Games, ["Galactic Raiders", "Farm Story"]),
        );
        let engine = SearchEngine::new(corpus);
        let mut transport = SimulatedTransport::new(5);
        transport.register("pricing", Box::new(PricingService), LatencyModel::fast());
        World {
            store,
            tenant,
            key,
            engine,
            transport,
        }
    }

    fn gamer_queen(world: &World) -> ApplicationConfig {
        let mut canvas = Canvas::new();
        let root = canvas.root_id();
        canvas
            .insert(root, Element::search_box("Search games…"))
            .unwrap();
        let item = Element::column(vec![
            Element::link_field("detail_url", "{title}"),
            Element::text("{description}"),
            Element::result_list(
                "reviews",
                Element::column(vec![
                    Element::link_field("url", "{title}"),
                    Element::rich_text("{snippet}"),
                ]),
                3,
            ),
            Element::result_list("pricing", Element::text("${price} ({currency})"), 1),
        ]);
        canvas
            .insert(root, Element::result_list("inventory", item, 10))
            .unwrap();

        AppBuilder::new("GamerQueen", world.tenant)
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
            .supplemental("reviews", "{title} review")
            .supplemental("pricing", "{title}")
            .build()
            .unwrap()
    }

    fn subs(world: &World) -> Substrates<'_> {
        Substrates {
            space: Some(world.store.space(world.tenant, &world.key).unwrap()),
            engine: Some(&world.engine),
            transport: Some(&world.transport),
            ads: None,
            scatter: None,
        }
    }

    #[test]
    fn end_to_end_gamer_queen_query() {
        let w = world();
        let app = gamer_queen(&w);
        let resp = execute(&app, "space shooter", subs(&w), ExecMode::Parallel);
        // Primary hit rendered with its fields.
        assert!(resp.html.contains("Galactic Raiders"), "{}", resp.html);
        assert!(resp.html.contains("href=\"http://shop.example.com/gr\""));
        // Supplemental review from a restricted site.
        assert!(resp.html.contains("review"), "{}", resp.html);
        // Pricing service result.
        assert!(resp.html.contains("(USD)"), "{}", resp.html);
        // Trace stages present, in Fig. 2's order.
        let kinds: Vec<SpanKind> = resp.trace.stages.iter().map(|n| n.kind).collect();
        assert!(
            matches!(
                kinds[..],
                [
                    SpanKind::Receive,
                    SpanKind::Primary { max: 10 },
                    SpanKind::Fanout {
                        mode: ExecMode::Parallel,
                        ..
                    },
                    SpanKind::Merge { .. }
                ]
            ),
            "{kinds:?}"
        );
        assert_eq!(
            resp.trace.slot("inventory").unwrap().outcome,
            Outcome::Ok { results: 1 }
        );
    }

    #[test]
    fn parallel_latency_is_max_sequential_is_sum() {
        let w = world();
        let app = gamer_queen(&w);
        let par = execute(&app, "space shooter", subs(&w), ExecMode::Parallel);
        let seq = execute(&app, "space shooter", subs(&w), ExecMode::Sequential);
        assert!(
            seq.virtual_ms > par.virtual_ms,
            "sequential {} must exceed parallel {}",
            seq.virtual_ms,
            par.virtual_ms
        );
        // Parallel bound: receive + max(primary) + max(suppl) + merge.
        assert!(par.virtual_ms <= RECEIVE_MS + 35 + 600 + MERGE_MS);
    }

    #[test]
    fn impressions_are_recorded_per_rendered_result() {
        let w = world();
        let app = gamer_queen(&w);
        let resp = execute(&app, "space shooter", subs(&w), ExecMode::Parallel);
        assert!(!resp.impressions.is_empty());
        let inventory_imps = resp
            .impressions
            .iter()
            .filter(|i| i.source == "inventory")
            .count();
        assert_eq!(inventory_imps, 1); // one matching game
        assert!(resp.impressions.iter().any(|i| i.source == "reviews"));
        assert!(resp.impressions.iter().all(|i| !i.is_ad));
    }

    #[test]
    fn no_results_renders_shell() {
        let w = world();
        let app = gamer_queen(&w);
        let resp = execute(&app, "zzzqqq", subs(&w), ExecMode::Parallel);
        assert!(resp.html.contains("sym-search"));
        assert!(resp.impressions.is_empty());
        assert!(fanout(&resp.trace).is_none());
    }

    #[test]
    fn missing_substrate_degrades_gracefully() {
        let w = world();
        let app = gamer_queen(&w);
        let partial = Substrates {
            space: Some(w.store.space(w.tenant, &w.key).unwrap()),
            engine: None,
            transport: Some(&w.transport),
            ads: None,
            scatter: None,
        };
        let resp = execute(&app, "space shooter", partial, ExecMode::Parallel);
        // The primary result still renders; reviews report an error.
        assert!(resp.html.contains("Galactic Raiders"));
        let reviews = resp.trace.slot("reviews").unwrap();
        assert_eq!(reviews.outcome, Outcome::Failed);
        assert_eq!(reviews.error.as_deref(), Some("no web engine attached"));
    }

    /// Service that tracks peak concurrent in-flight handlers.
    struct ProbeService {
        current: std::sync::Arc<AtomicUsize>,
        peak: std::sync::Arc<AtomicUsize>,
    }

    impl symphony_services::Service for ProbeService {
        fn describe(&self) -> symphony_services::ServiceDescription {
            symphony_services::ServiceDescription {
                name: "probe".into(),
                protocol: symphony_services::Protocol::Rest,
                operations: vec![symphony_services::OperationDesc {
                    name: "/price".into(),
                    params: vec!["item".into()],
                    returns: vec!["item".into(), "price".into()],
                }],
            }
        }

        fn handle(
            &self,
            request: &symphony_services::ServiceRequest,
        ) -> Result<symphony_services::ServiceResponse, symphony_services::ServiceFault> {
            let now = self.current.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
            // Real (not virtual) dwell so workers genuinely overlap.
            std::thread::sleep(std::time::Duration::from_millis(2));
            self.current.fetch_sub(1, Ordering::SeqCst);
            Ok(symphony_services::ServiceResponse::single(&[
                ("item", request.param("item").unwrap_or("?")),
                ("price", "1.00"),
            ]))
        }
    }

    /// A service that reports which thread served it.
    struct WhoService(std::sync::Arc<parking_lot::Mutex<Vec<std::thread::ThreadId>>>);

    impl symphony_services::Service for WhoService {
        fn describe(&self) -> symphony_services::ServiceDescription {
            symphony_services::ServiceDescription {
                name: "who".into(),
                protocol: symphony_services::Protocol::Rest,
                operations: vec![],
            }
        }

        fn handle(
            &self,
            _: &symphony_services::ServiceRequest,
        ) -> Result<symphony_services::ServiceResponse, symphony_services::ServiceFault> {
            self.0.lock().push(std::thread::current().id());
            Ok(symphony_services::ServiceResponse::single(&[(
                "price", "1.00",
            )]))
        }
    }

    /// [`WhoService`] behind a barrier: a call returns only once as
    /// many threads as the barrier counts are inside `handle` together.
    struct Gated(WhoService, std::sync::Barrier);

    impl symphony_services::Service for Gated {
        fn describe(&self) -> symphony_services::ServiceDescription {
            self.0.describe()
        }

        fn handle(
            &self,
            request: &symphony_services::ServiceRequest,
        ) -> Result<symphony_services::ServiceResponse, symphony_services::ServiceFault> {
            self.1.wait();
            self.0.handle(request)
        }
    }

    /// Service that always panics (misbehaving third-party code).
    struct PanicService;

    impl symphony_services::Service for PanicService {
        fn describe(&self) -> symphony_services::ServiceDescription {
            symphony_services::ServiceDescription {
                name: "unstable".into(),
                protocol: symphony_services::Protocol::Rest,
                operations: vec![],
            }
        }

        fn handle(
            &self,
            _request: &symphony_services::ServiceRequest,
        ) -> Result<symphony_services::ServiceResponse, symphony_services::ServiceFault> {
            panic!("unstable service blew up");
        }
    }

    /// A wide app: `rows` catalog items, each with one service
    /// supplemental — `rows` fan-out tasks.
    fn wide_app(
        rows: usize,
        endpoint: &str,
    ) -> (
        Store,
        TenantId,
        symphony_store::AccessKey,
        ApplicationConfig,
    ) {
        let mut store = Store::new();
        let (tenant, key) = store.create_tenant("Wide");
        let mut csv = String::from("title,description\n");
        for i in 0..rows {
            csv.push_str(&format!("Gadget {i},a shiny gadget\n"));
        }
        let (table, _) = ingest("catalog", &csv, DataFormat::Csv).unwrap();
        let mut indexed = IndexedTable::new(table);
        indexed
            .enable_fulltext(&[("title", 2.0), ("description", 1.0)])
            .unwrap();
        store.space_mut(tenant, &key).unwrap().put_table(indexed);

        let mut canvas = Canvas::new();
        let root = canvas.root_id();
        let item = Element::column(vec![
            Element::text("{title}"),
            Element::result_list(endpoint, Element::text("{price}"), 1),
        ]);
        canvas
            .insert(root, Element::result_list("catalog", item, rows))
            .unwrap();
        let app = AppBuilder::new("Wide", tenant)
            .layout(canvas)
            .source(
                "catalog",
                DataSourceDef::Proprietary {
                    table: "catalog".into(),
                },
            )
            .source(
                endpoint,
                DataSourceDef::Service {
                    endpoint: endpoint.into(),
                    operation: "/price".into(),
                    item_param: "item".into(),
                    policy: CallPolicy::default(),
                },
            )
            .supplemental(endpoint, "{title}")
            .build()
            .unwrap();
        (store, tenant, key, app)
    }

    #[test]
    fn fanout_pool_is_bounded_with_many_tasks() {
        let current = std::sync::Arc::new(AtomicUsize::new(0));
        let peak = std::sync::Arc::new(AtomicUsize::new(0));
        let mut transport = SimulatedTransport::new(7);
        transport.register(
            "probe",
            Box::new(ProbeService {
                current: current.clone(),
                peak: peak.clone(),
            }),
            LatencyModel::fast(),
        );
        let (store, tenant, key, app) = wide_app(120, "probe");
        let subs = Substrates {
            space: Some(store.space(tenant, &key).unwrap()),
            engine: None,
            transport: Some(&transport),
            ads: None,
            scatter: None,
        };
        let resp = execute(&app, "gadget", subs, ExecMode::Parallel);
        let fanout = fanout(&resp.trace).unwrap();
        assert!(
            fanout.children.len() >= 100,
            "expected a wide fan-out, got {}",
            fanout.children.len()
        );
        assert!(
            peak.load(Ordering::SeqCst) <= MAX_FANOUT_WORKERS,
            "peak concurrency {} exceeded the {MAX_FANOUT_WORKERS}-worker cap",
            peak.load(Ordering::SeqCst)
        );
        // Virtual time still combines as max, not sum.
        assert!(
            resp.virtual_ms <= RECEIVE_MS + 5 + 10 + MERGE_MS,
            "parallel virtual time must be max-combined, got {}",
            resp.virtual_ms
        );
        assert_eq!(
            fanout.kind,
            SpanKind::Fanout {
                mode: ExecMode::Parallel,
                workers: fanout_cap(),
            }
        );
        assert!(!resp.trace.degraded);
    }

    #[test]
    fn panicking_service_degrades_its_slot_only() {
        let mut transport = SimulatedTransport::new(7);
        transport.register("unstable", Box::new(PanicService), LatencyModel::fast());
        let (store, tenant, key, app) = wide_app(3, "unstable");
        let subs = Substrates {
            space: Some(store.space(tenant, &key).unwrap()),
            engine: None,
            transport: Some(&transport),
            ads: None,
            scatter: None,
        };
        let resp = execute(&app, "gadget", subs, ExecMode::Parallel);
        // The primary list still renders every item.
        assert!(resp.html.contains("Gadget 0"), "{}", resp.html);
        assert!(resp.html.contains("Gadget 2"), "{}", resp.html);
        // Each panicked slot degraded softly.
        assert!(resp.trace.degraded);
        assert_eq!(errors(&resp.trace), 3);
        let slot = resp.trace.slot("unstable").unwrap();
        assert_eq!(slot.kind, SpanKind::Supplemental { item: 0 });
        assert_eq!(slot.outcome, Outcome::Panicked);
        let error = slot.error.as_deref().unwrap();
        assert!(error.contains("unstable service blew up"), "{error}");
    }

    /// An app whose only (primary) source is a service registered at
    /// `endpoint`.
    fn service_primary_app(tenant: TenantId, endpoint: &str) -> ApplicationConfig {
        let mut canvas = Canvas::new();
        let root = canvas.root_id();
        canvas
            .insert(
                root,
                Element::result_list(endpoint, Element::text("{price}"), 3),
            )
            .unwrap();
        AppBuilder::new("Unstable", tenant)
            .layout(canvas)
            .source(
                endpoint,
                DataSourceDef::Service {
                    endpoint: endpoint.into(),
                    operation: "/price".into(),
                    item_param: "item".into(),
                    policy: CallPolicy::default(),
                },
            )
            .build()
            .unwrap()
    }

    /// The primary slot of a panicked fetch: the page degrades, the
    /// query returns.
    fn assert_primary_panicked(resp: &QueryResponse) {
        assert!(resp.trace.degraded, "{}", resp.trace.render());
        assert_eq!(errors(&resp.trace), 1);
        let slot = resp.trace.slot("unstable").unwrap();
        assert_eq!(slot.kind, SpanKind::Primary { max: 3 });
        assert_eq!(slot.outcome, Outcome::Panicked);
        assert!(resp.html.contains("sym-"), "{}", resp.html);
    }

    #[test]
    fn panicking_primary_degrades_its_slot_in_both_modes() {
        let mut transport = SimulatedTransport::new(7);
        transport.register("unstable", Box::new(PanicService), LatencyModel::fast());
        let app = service_primary_app(TenantId(0), "unstable");
        let subs = Substrates {
            space: None,
            engine: None,
            transport: Some(&transport),
            ads: None,
            scatter: None,
        };
        for mode in [ExecMode::Parallel, ExecMode::Sequential] {
            assert_primary_panicked(&execute(&app, "gadget", subs, mode));
        }
    }

    #[test]
    fn panicking_primary_behind_the_l2_leaves_no_stale_flight() {
        let corpus = Corpus::generate(&CorpusConfig {
            sites_per_topic: 1,
            pages_per_site: 2,
            ..CorpusConfig::default()
        });
        let mut platform = crate::hosting::Platform::new(SearchEngine::new(corpus)).with_quotas(
            crate::hosting::QuotaConfig {
                cache_ttl_ms: 0, // every query reaches the runtime and the L2
                ..Default::default()
            },
        );
        platform
            .transport_mut()
            .register("unstable", Box::new(PanicService), LatencyModel::fast());
        let (tenant, _) = platform.create_tenant("Unstable");
        let id = platform
            .register_app(service_primary_app(tenant, "unstable"))
            .unwrap();
        platform.publish(id).unwrap();
        for _ in 0..2 {
            assert_primary_panicked(&platform.query(id, "gadget").unwrap());
        }
        // Each query led its own execution: the panicked leader's
        // flight was cleared, so the second never waited on it.
        let stats = platform.source_cache_stats();
        assert_eq!((stats.executions, stats.coalesced), (2, 0));
    }

    #[test]
    fn deadline_cuts_slow_supplementals_but_renders_primaries() {
        let w = world();
        let mut app = gamer_queen(&w);
        app.resilience = crate::app::ResiliencePolicy {
            query_deadline_ms: 20,
            ..Default::default()
        };
        let resp = execute(&app, "space shooter", subs(&w), ExecMode::Parallel);
        // Deadline held: receive(1) + inventory(5) + suppl(≤12) + merge(2).
        assert!(
            resp.virtual_ms <= 20,
            "deadline blown: {} ms",
            resp.virtual_ms
        );
        // Primary content renders; the 35-ms web fetch is cut for free.
        assert!(resp.html.contains("Galactic Raiders"));
        assert!(resp.trace.degraded);
        let reviews = resp.trace.slot("reviews").unwrap();
        assert_eq!(reviews.outcome, Outcome::DeadlineCut);
        assert_eq!(reviews.virtual_ms, 0);
        // The fast pricing service still fits in the remaining budget.
        let pricing = resp.trace.slot("pricing").unwrap();
        assert_eq!(pricing.outcome, Outcome::Ok { results: 1 });
    }

    #[test]
    fn shed_response_is_cheap_and_marked() {
        let w = world();
        let app = gamer_queen(&w);
        let resp = shed_response(&app, "space shooter", "rate limit");
        assert_eq!(resp.virtual_ms, SHED_MS);
        assert!(resp.trace.shed);
        assert!(resp.trace.degraded);
        assert_eq!(errors(&resp.trace), 0);
        assert!(resp.impressions.is_empty());
        // The layout shell still renders (search box, empty lists).
        assert!(resp.html.contains("sym-search"), "{}", resp.html);
        // Admission refused it, and every primary slot ended shed.
        let refusal = &resp.trace.stages[0];
        assert_eq!(
            (refusal.kind, refusal.outcome, refusal.detail.as_str()),
            (SpanKind::Admission, Outcome::Shed, "rate limit")
        );
        let slot = resp.trace.slot("inventory").unwrap();
        assert_eq!(slot.outcome, Outcome::Shed);
    }

    #[test]
    fn scheduler_grant_bounds_fanout_workers() {
        use crate::admission::{FanoutScheduler, Lane};
        let current = std::sync::Arc::new(AtomicUsize::new(0));
        let peak = std::sync::Arc::new(AtomicUsize::new(0));
        let mut transport = SimulatedTransport::new(7);
        transport.register(
            "probe",
            Box::new(ProbeService {
                current: current.clone(),
                peak: peak.clone(),
            }),
            LatencyModel::fast(),
        );
        let (store, tenant, key, app) = wide_app(60, "probe");
        let subs = Substrates {
            space: Some(store.space(tenant, &key).unwrap()),
            engine: None,
            transport: Some(&transport),
            ads: None,
            scatter: None,
        };
        // Another tenant (weight 3) is mid-fan-out holding its share;
        // this weight-1 tenant's fair share is 16/4 = 4 workers.
        let pool = FanoutScheduler::new(MAX_FANOUT_WORKERS);
        let other = pool.acquire(999, 3, 12, Lane::Interactive);
        let ctx = ExecCtx {
            scheduler: Some(&pool),
            ..ExecCtx::default()
        };
        let resp = execute_resilient(
            &app,
            "gadget",
            subs,
            ExecMode::Parallel,
            &HashMap::new(),
            &ctx,
        );
        drop(other);
        assert!(
            peak.load(Ordering::SeqCst) <= 4,
            "fair share of 4 exceeded: {}",
            peak.load(Ordering::SeqCst)
        );
        // Every slot still served; virtual time still max-combined.
        assert!(!resp.trace.degraded);
        assert_eq!(
            fanout(&resp.trace).unwrap().kind,
            SpanKind::Fanout {
                mode: ExecMode::Parallel,
                workers: fanout_cap().min(4),
            }
        );
        // The grant was released once the fan-out finished.
        assert_eq!(pool.outstanding(), (0, 0));
    }

    #[test]
    fn empty_fanout_bills_no_grant_and_a_lone_task_runs_inline() {
        use crate::admission::FanoutScheduler;
        let served = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut transport = SimulatedTransport::new(7);
        transport.register(
            "who",
            Box::new(WhoService(served.clone())),
            LatencyModel::fast(),
        );
        let (store, tenant, key, app) = wide_app(1, "who");
        let subs = Substrates {
            space: Some(store.space(tenant, &key).unwrap()),
            engine: None,
            transport: Some(&transport),
            ads: None,
            scatter: None,
        };
        let pool = FanoutScheduler::new(MAX_FANOUT_WORKERS);
        let ctx = ExecCtx {
            scheduler: Some(&pool),
            ..ExecCtx::default()
        };
        let run = |query: &str| {
            execute_resilient(&app, query, subs, ExecMode::Parallel, &HashMap::new(), &ctx)
        };
        // No primary hit, so no supplemental task: the scheduler never
        // hears of the query.
        let none = run("zzzqqq");
        assert!(fanout(&none.trace).is_none());
        assert_eq!(pool.granted(tenant.0 as u64), 0);
        // One task: billed one worker as before, served on this thread.
        let one = run("gadget");
        let fanout = fanout(&one.trace).unwrap();
        let parallel = ExecMode::Parallel;
        assert_eq!(fanout.children.len(), 1);
        let one_worker = SpanKind::Fanout {
            mode: parallel,
            workers: 1,
        };
        assert_eq!(fanout.kind, one_worker);
        assert_eq!(pool.granted(tenant.0 as u64), 1);
        assert_eq!(pool.outstanding(), (0, 0));
        assert_eq!(*served.lock(), vec![std::thread::current().id()]);
    }

    #[test]
    fn l2_warm_fanout_takes_no_grant_and_no_thread() {
        use crate::admission::FanoutScheduler;
        let served = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut transport = SimulatedTransport::new(7);
        transport.register(
            "who",
            Box::new(WhoService(served.clone())),
            LatencyModel::fast(),
        );
        let (store, tenant, key, app) = wide_app(6, "who");
        let subs = Substrates {
            space: Some(store.space(tenant, &key).unwrap()),
            engine: None,
            transport: Some(&transport),
            ads: None,
            scatter: None,
        };
        let pool = FanoutScheduler::new(MAX_FANOUT_WORKERS);
        let l2 = SourceCache::new(crate::source_cache::SourceCacheConfig::default());
        let run = |now_ms: u64| {
            let ctx = ExecCtx {
                now_ms,
                source_cache: Some(&l2),
                scheduler: Some(&pool),
                ..ExecCtx::default()
            };
            execute_resilient(
                &app,
                "gadget",
                subs,
                ExecMode::Parallel,
                &HashMap::new(),
                &ctx,
            )
        };
        let cold = run(0);
        let cold_misses = l2_count(&cold.trace, FetchStatus::Miss);
        assert_eq!(cold_misses, 1 + 6, "{}", cold.trace.render());
        assert_eq!(served.lock().len(), 6);
        let granted = pool.granted(tenant.0 as u64);
        assert!(granted >= 1);
        // Later, inside every TTL: the L2 answers all six slots on
        // this thread. The scheduler never hears of the query, the
        // service is not called, and the page is the same.
        let warm = run(1_000);
        let warm_hits = l2_count(&warm.trace, FetchStatus::Hit);
        assert_eq!(warm_hits, 1 + 6, "{}", warm.trace.render());
        assert_eq!(pool.granted(tenant.0 as u64), granted);
        assert_eq!(pool.outstanding(), (0, 0));
        assert_eq!(served.lock().len(), 6);
        let fanout = fanout(&warm.trace).unwrap();
        assert_eq!(fanout.children.len(), 6);
        let no_worker = SpanKind::Fanout {
            mode: ExecMode::Parallel,
            workers: 0,
        };
        assert_eq!(fanout.kind, no_worker);
        assert_eq!(warm.html, cold.html);
    }

    #[test]
    fn only_residual_slots_reach_workers_and_the_caller_is_one() {
        use crate::admission::FanoutScheduler;
        // Two rounds of cold slots per thread the host allows, behind
        // a barrier that many wide: the fan-out completes only if
        // exactly `cap` threads serve the residual together.
        let cap = fanout_cap();
        let (warm, cold) = (5, 2 * cap);
        let served = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut transport = SimulatedTransport::new(7);
        transport.register(
            "who",
            Box::new(Gated(
                WhoService(served.clone()),
                std::sync::Barrier::new(cap),
            )),
            LatencyModel::fast(),
        );
        let (store, tenant, key, app) = wide_app(warm + cold, "who");
        let subs = Substrates {
            space: Some(store.space(tenant, &key).unwrap()),
            engine: None,
            transport: Some(&transport),
            ads: None,
            scatter: None,
        };
        let l2 = SourceCache::new(crate::source_cache::SourceCacheConfig::default());
        let def = &app.source("who").unwrap().def;
        for i in 0..warm {
            let seeded = SourceOutcome {
                items: Vec::new(),
                virtual_ms: 3,
                error: None,
                attempts: 1,
            };
            l2.fetch(
                def,
                Some(app.owner),
                &format!("Gadget {i}"),
                1,
                None,
                &SourceCtx::at(0),
                || seeded,
            );
        }
        let pool = FanoutScheduler::new(MAX_FANOUT_WORKERS);
        let ctx = ExecCtx {
            now_ms: 100,
            source_cache: Some(&l2),
            scheduler: Some(&pool),
            ..ExecCtx::default()
        };
        let resp = execute_resilient(
            &app,
            "gadget",
            subs,
            ExecMode::Parallel,
            &HashMap::new(),
            &ctx,
        );
        assert!(!resp.trace.degraded, "{}", resp.trace.render());
        assert_eq!(l2_count(&resp.trace, FetchStatus::Hit), warm);
        // Only the cold slots reached the service ...
        let served = served.lock();
        assert_eq!(served.len(), cold);
        // ... on exactly the granted threads, this one among them.
        let threads: std::collections::HashSet<_> = served.iter().collect();
        assert_eq!(threads.len(), cap);
        assert!(threads.contains(&std::thread::current().id()));
        assert_eq!(pool.granted(tenant.0 as u64), cap as u64);
        assert_eq!(pool.outstanding(), (0, 0));
        let fanout = fanout(&resp.trace).unwrap();
        assert_eq!(fanout.children.len(), warm + cold);
        let cap_workers = SpanKind::Fanout {
            mode: ExecMode::Parallel,
            workers: cap,
        };
        assert_eq!(fanout.kind, cap_workers);
    }

    #[test]
    fn supplemental_queries_are_per_item() {
        let w = world();
        let app = gamer_queen(&w);
        // "game" in description? Query matching both items:
        let resp = execute(&app, "shooter farming", subs(&w), ExecMode::Parallel);
        let fanouts: Vec<&str> = fanout(&resp.trace)
            .map(|n| n.children.iter().map(|c| c.detail.as_str()).collect())
            .unwrap_or_default();
        assert!(fanouts.contains(&"Galactic Raiders review"), "{fanouts:?}");
        assert!(fanouts.contains(&"Farm Story review"), "{fanouts:?}");
    }
}
