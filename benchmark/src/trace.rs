//! The traced run: nested replay of each operation from outside the
//! program, and one probe per layer.
//!
//! Two kinds of numbers come out of it:
//!
//! * **Attribution** (`share.*`, `hosting.miss_self_us`,
//!   `runtime.self_us`, …): after an operation returns, the harness
//!   calls the layer below with the same input and records a replayed
//!   span, then the layer below that, down to single source fetches
//!   and the render. A layer's share is its self time over the time of
//!   the operations; shares of layers the workload bypasses are 0.
//! * **Probes** (every other `_us` metric): one call into a layer's
//!   public function, on this world's data, with inputs drawn from the
//!   run's seed. They run whether or not the workload's operations go
//!   there, so any traced run shows a regression in any layer.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use symphony_ads::AdServer;
use symphony_cluster::{decode_pool, encode_pool, wire, ClusterWeb, ShardSearchService};
use symphony_core::source::run_source_ctx;
use symphony_core::{
    execute_resilient, run_source, ApplicationConfig, DataSourceDef, ExecCtx, ExecMode,
    FanoutScheduler, FetchStatus, Lane, QueryResponse, ScatterSearch, SourceCache,
    SourceCacheConfig, SourceCtx, SourceOutcome, Substrates, MAX_FANOUT_WORKERS,
};
use symphony_designer::{render_element, Element, ElementKind};
use symphony_services::{
    BreakerConfig, BreakerRegistry, CallPolicy, ResilienceContext, Service, ServiceClient,
    ServiceRequest, ServiceResponse, SimulatedTransport,
};
use symphony_store::{HybridPlan, HybridQuery, IndexedTable};
use symphony_text::{DocSet, Query, Searcher};
use symphony_web::{SearchConfig, SearchEngine, ShardPool, Vertical};

use crate::exec::{apply_writes, pick_impression, MirrorIndex, WriteReport};
use crate::gen::{
    self, hybrid_queries, mix, price_below, IngestStream, Op, OpStream, View, WebStream,
};
use crate::spans::{signed_self_times, Recorder, Span};
use crate::stats::mean;
use crate::worlds::{
    add_campaigns, build, register_services, Scale, Workload, World, HYBRID_CUTOFFS, SHARDS,
};

/// Harness-owned stand-ins for what the platform keeps private, plus
/// the extra structures the probes need.
pub struct Fixture {
    /// A transport with the platform's seed and services.
    pub transport: SimulatedTransport,
    /// An ad server with the platform's campaigns.
    pub ads: AdServer,
    breakers: BreakerRegistry,
    scheduler: FanoutScheduler,
    /// One L2 replica per replay path, configured like the platform's;
    /// each sees the platform's fetch stream once, so each runs at the
    /// platform's hit ratio.
    l2_exec: SourceCache,
    l2_seq: SourceCache,
    l2_stage: SourceCache,
    /// A 4-shard fleet over the world's corpus (`None` when the world
    /// is already sharded: the router's own fleet is used).
    own_cluster: Option<ClusterWeb>,
    /// A single node over the same corpus (sharded worlds only).
    pub reference: Option<World>,
    /// Catalog rows ingested per second, from a timed rebuild.
    catalog_rows_per_s: f64,
}

impl Fixture {
    /// Build the fixture of `world`.
    pub fn build(world: &World, scale: Scale) -> Fixture {
        let seed = world.seed;
        let mut transport = SimulatedTransport::new(mix(seed, 0x5452_414E));
        register_services(&mut transport);
        let mut ads = AdServer::new();
        add_campaigns(&mut ads, seed, &world.names);
        let l2 = if world.workload == Workload::Storefront {
            SourceCacheConfig::default()
        } else {
            SourceCacheConfig::disabled()
        };
        let reference =
            (world.workload == Workload::ShardedWeb).then(|| build(Workload::WebCold, scale, seed));
        let own_cluster = world.host.cluster().is_none().then(|| {
            let engines = SearchEngine::build_cluster(
                world.host.platform(0).engine().corpus(),
                SHARDS,
                symphony_text::default_build_threads(),
            );
            ClusterWeb::new(
                engines.into_iter().map(Arc::new).collect(),
                mix(seed, 0x524F_5554),
            )
        });
        let start = Instant::now();
        let rebuilt = gen::catalog(
            mix(seed, 0x5245),
            world.counts.rows_per_tenant,
            &world.names,
        );
        let catalog_rows_per_s = rebuilt.table().len() as f64 / start.elapsed().as_secs_f64();
        Fixture {
            transport,
            ads,
            breakers: BreakerRegistry::new(BreakerConfig::default()),
            scheduler: FanoutScheduler::new(MAX_FANOUT_WORKERS),
            l2_exec: SourceCache::new(l2),
            l2_seq: SourceCache::new(l2),
            l2_stage: SourceCache::new(l2),
            own_cluster,
            reference,
            catalog_rows_per_s,
        }
    }

    /// The single-node engine over the world's corpus.
    pub fn engine<'a>(&'a self, world: &'a World) -> &'a SearchEngine {
        match &self.reference {
            Some(r) => r.host.platform(0).engine(),
            None => world.host.platform(0).engine(),
        }
    }

    fn cluster<'a>(&'a self, world: &'a World) -> &'a ClusterWeb {
        world
            .host
            .cluster()
            .or(self.own_cluster.as_ref())
            .expect("a fleet is always available")
    }
}

/// Counters a traced client keeps beside its spans.
#[derive(Debug, Clone, Default)]
pub struct TraceCounts {
    /// Views served.
    pub views: u64,
    /// Views answered from L1.
    pub hits: u64,
    /// Views that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Supplemental fetches replayed.
    pub fanout_tasks: u64,
    /// Bytes of HTML served.
    pub html_bytes: u64,
    /// Degraded responses seen.
    pub degraded: u64,
    /// Writes applied by cycles.
    pub writes: WriteTotals,
}

/// What the write path reported, summed.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteTotals {
    /// Pages ingested or removed.
    pub pages: u64,
    /// Seconds spent in ingest, remove and maintain.
    pub write_s: f64,
    /// Seals.
    pub seals: u64,
    /// Segments merged.
    pub merges: u64,
    /// Documents purged.
    pub purged: u64,
    /// Longest maintenance tick in ms.
    pub maintain_max_ms: f64,
}

impl WriteTotals {
    fn add(&mut self, r: &WriteReport) {
        self.pages += r.pages;
        self.seals += u64::from(r.sealed);
        self.merges += r.merged as u64;
        self.purged += r.purged as u64;
    }

    /// Fold another set of totals into this one.
    pub fn absorb(&mut self, o: &WriteTotals) {
        self.pages += o.pages;
        self.write_s += o.write_s;
        self.seals += o.seals;
        self.merges += o.merges;
        self.purged += o.purged;
        self.maintain_max_ms = self.maintain_max_ms.max(o.maintain_max_ms);
    }
}

impl TraceCounts {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }
}

fn source_span_name(def: &DataSourceDef, status: FetchStatus) -> &'static str {
    if matches!(status, FetchStatus::Hit | FetchStatus::Coalesced) {
        return "source_cache.hit";
    }
    match def {
        DataSourceDef::Proprietary { .. } => "source.proprietary",
        DataSourceDef::Hybrid { .. } => "source.hybrid",
        DataSourceDef::WebVertical { .. } => "source.web",
        DataSourceDef::Service { .. } => "source.service",
        DataSourceDef::Ads { .. } => "source.ads",
        DataSourceDef::ComposedApp { .. } => "source.app",
    }
}

fn nested_lists(item: &Element) -> Vec<(String, usize, Element)> {
    let mut out = Vec::new();
    item.visit(&mut |e| {
        if let ElementKind::ResultList {
            source,
            item,
            max_results,
        } = &e.kind
        {
            out.push((source.clone(), *max_results, (**item).clone()));
        }
    });
    out
}

/// What the platform's runtime does for one miss, stage by stage, each
/// stage under its own replayed span: the primary fetches, the
/// supplemental fetches (one after another), then the render. Returns
/// the number of supplemental fetches.
#[allow(clippy::too_many_arguments)]
fn replay_stages(
    app: &ApplicationConfig,
    query: &str,
    subs: Substrates<'_>,
    now_ms: u64,
    fx: &Fixture,
    rec: &mut Recorder,
    parent: usize,
    op_id: u64,
) -> u64 {
    let sctx = SourceCtx {
        breakers: Some(&fx.breakers),
        ..SourceCtx::at(now_ms + 1)
    };
    let fetch = |rec: &mut Recorder, source: &str, q: &str, k: usize| -> Arc<SourceOutcome> {
        let Some(cfg) = app.source(source) else {
            return Arc::new(SourceOutcome {
                items: Vec::new(),
                virtual_ms: 0,
                error: Some(format!("source {source:?} not configured")),
                attempts: 0,
            });
        };
        let constraint = app.constraint(source);
        let (fetched, idx) = rec.leaf("source", Some(parent), op_id, true, || {
            fx.l2_stage
                .fetch(&cfg.def, Some(app.owner), q, k, constraint, &sctx, || {
                    run_source_ctx(&cfg.def, q, k, subs, constraint, &sctx)
                })
        });
        rec.spans[idx].name = source_span_name(&cfg.def, fetched.status);
        fetched.outcome
    };

    let specs = app.primary_lists();
    let mut primary: HashMap<String, Arc<SourceOutcome>> = HashMap::new();
    for (source, max, _) in &specs {
        if !primary.contains_key(source) {
            let outcome = fetch(rec, source, query, *max);
            primary.insert(source.clone(), outcome);
        }
    }
    let mut suppl: HashMap<(String, usize, String), Arc<SourceOutcome>> = HashMap::new();
    for (psource, max, item_el) in &specs {
        let nested = nested_lists(item_el);
        for (idx, item) in primary[psource].items.iter().take(*max).enumerate() {
            let lookup = |name: &str| item.field(name).map(str::to_string);
            for (ssource, smax, _) in &nested {
                let Some(binding) = app.binding(ssource) else {
                    continue;
                };
                let q = binding.query_template.render(&lookup);
                if q.trim().is_empty() {
                    continue;
                }
                let outcome = fetch(rec, ssource, &q, *smax);
                suppl.insert((psource.clone(), idx, ssource.clone()), outcome);
            }
        }
    }

    rec.leaf("designer.render", Some(parent), op_id, true, || {
        let mut top = |source: &str, max: usize, item_el: &Element| -> String {
            let Some(outcome) = primary.get(source) else {
                return String::new();
            };
            let mut html = String::new();
            for (idx, item) in outcome.items.iter().take(max).enumerate() {
                let lookup = |name: &str| item.field(name).map(str::to_string);
                let mut inner = |ssource: &str, smax: usize, sitem_el: &Element| -> String {
                    let Some(so) = suppl.get(&(source.to_string(), idx, ssource.to_string()))
                    else {
                        return String::new();
                    };
                    let mut shtml = String::new();
                    for sitem in so.items.iter().take(smax) {
                        let slookup = |name: &str| sitem.field(name).map(str::to_string);
                        shtml.push_str(&render_element(
                            sitem_el,
                            &app.stylesheet,
                            &slookup,
                            &mut |_, _, _| String::new(),
                        ));
                    }
                    shtml
                };
                html.push_str(&render_element(
                    item_el,
                    &app.stylesheet,
                    &lookup,
                    &mut inner,
                ));
            }
            html
        };
        render_element(app.layout.root(), &app.stylesheet, &|_| None, &mut top)
    });
    suppl.len() as u64
}

/// Serve one view under spans, then replay the layers below it.
fn traced_view(
    world: &World,
    fx: &Fixture,
    rec: &mut Recorder,
    counts: &mut TraceCounts,
    op_id: u64,
    view: &View,
) {
    let app = &world.apps[view.app];
    let platform = world.host.platform(app.home);
    let now_ms = platform.clock_ms();
    counts.views += 1;

    let (result, op) = rec.record("hosting.miss", None, op_id, false, |rec, me| {
        let response = world
            .host
            .query(app.id, &view.query)
            .map_err(|e| format!("query {:?}: {e}", view.query))?;
        for &draw in &view.click_draws {
            if let Some(imp) = pick_impression(&response.impressions, draw) {
                rec.leaf("hosting.click", Some(me), op_id, false, || {
                    world.host.click(app.id, &view.query, imp)
                })
                .0
                .map_err(|e| format!("click after {:?}: {e}", view.query))?;
            }
        }
        Ok::<Arc<QueryResponse>, String>(response)
    });
    let response = match result {
        Ok(r) => r,
        Err(e) => return counts.fail(e),
    };
    counts.html_bytes += response.html.len() as u64;
    if response.trace.shed || response.trace.degraded {
        counts.degraded += u64::from(response.trace.degraded);
        counts.fail(format!("query {:?} was shed or degraded", view.query));
    }
    if response.trace.cache_hit {
        counts.hits += 1;
        rec.spans[op].name = "hosting.hit";
        return;
    }

    // The layers below a miss, outermost first. Each replay gets the
    // inputs the platform gave that layer.
    let subs = Substrates {
        space: platform.store().space_by_id(app.config.owner),
        engine: Some(platform.engine()),
        transport: Some(&fx.transport),
        ads: Some(platform.ads()),
        scatter: world.host.cluster().map(|c| c as &dyn ScatterSearch),
    };
    let no_overrides = HashMap::new();
    let (_, exec) = rec.leaf("runtime.exec", Some(op), op_id, true, || {
        execute_resilient(
            &app.config,
            &view.query,
            subs,
            ExecMode::Parallel,
            &no_overrides,
            &ExecCtx {
                now_ms,
                breakers: Some(&fx.breakers),
                source_cache: Some(&fx.l2_exec),
                scheduler: Some(&fx.scheduler),
                lane: Lane::Interactive,
            },
        )
    });
    // The same execution without the thread scope: what is left of
    // `runtime.exec` above it is the wall-clock price of the fan-out.
    let (_, seq) = rec.leaf("runtime.exec_seq", Some(exec), op_id, true, || {
        execute_resilient(
            &app.config,
            &view.query,
            subs,
            ExecMode::Sequential,
            &no_overrides,
            &ExecCtx {
                now_ms,
                breakers: Some(&fx.breakers),
                source_cache: Some(&fx.l2_seq),
                scheduler: None,
                lane: Lane::Interactive,
            },
        )
    });
    counts.fanout_tasks +=
        replay_stages(&app.config, &view.query, subs, now_ms, fx, rec, seq, op_id);
}

/// One traced client's log.
pub struct ClientTrace {
    /// Spans, parents before children.
    pub spans: Vec<Span>,
    /// Counters.
    pub counts: TraceCounts,
}

/// Run the op streams under spans for `seconds`.
pub fn traced_run(
    world: &mut World,
    fx: &Fixture,
    mirror: &mut MirrorIndex,
    streams: &mut [Box<dyn OpStream>],
    seconds: f64,
    now_ms: &mut u64,
) -> Vec<ClientTrace> {
    let total = Duration::from_secs_f64(seconds);
    let epoch = Instant::now();
    if world.workload == Workload::LiveIngest {
        let mut rec = Recorder::new(epoch);
        let mut counts = TraceCounts::default();
        let mut op_id = 0u64;
        while epoch.elapsed() < total {
            let Op::Cycle(cycle) = streams[0].next_op() else {
                unreachable!("live_ingest streams yield cycles")
            };
            let platform = world.host.single_mut().expect("ingest runs on one node");
            let engine = platform.engine_mut().expect("the platform owns its engine");
            op_id += 1;
            let mut tick_ms = 0.0;
            let (report, _) = rec.record("cycle", None, op_id, false, |rec, me| {
                apply_writes(engine, &cycle, now_ms, |name, f| {
                    let (_, idx) = rec.leaf(name, Some(me), op_id, false, f);
                    if name == "websearch.maintain" {
                        tick_ms = rec.spans[idx].duration_ns() as f64 / 1e6;
                    }
                })
            });
            mirror.apply(&cycle, *now_ms);
            counts.writes.add(&report);
            counts.writes.maintain_max_ms = counts.writes.maintain_max_ms.max(tick_ms);
            for view in &cycle.reads {
                op_id += 1;
                traced_view(world, fx, &mut rec, &mut counts, op_id, view);
            }
        }
        counts.writes.write_s = rec
            .spans
            .iter()
            .filter(|s| s.name.starts_with("websearch."))
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum();
        return vec![ClientTrace {
            spans: rec.spans,
            counts,
        }];
    }
    let world = &*world;
    let barrier = Barrier::new(streams.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(client, stream)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut rec = Recorder::new(epoch);
                    let mut counts = TraceCounts::default();
                    let mut op_id = (client as u64) << 40;
                    barrier.wait();
                    while epoch.elapsed() < total {
                        let Op::View(view) = stream.next_op() else {
                            unreachable!("read-only streams yield views")
                        };
                        op_id += 1;
                        traced_view(world, fx, &mut rec, &mut counts, op_id, &view);
                    }
                    ClientTrace {
                        spans: rec.spans,
                        counts,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced client panicked"))
            .collect()
    })
}

/// Share of the slowest operations left out of every traced figure
/// (and of the untraced yardstick they are held against): on a shared
/// 2-CPU box single calls stall for up to 100 ms, in the operation or
/// in any of its replays, and one such stall would own the means.
pub const TRIM_SHARE: f64 = 0.01;

/// The fastest `1 - TRIM_SHARE` of `values`, ascending (at least one).
fn trimmed(values: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    let keep = ((v.len() as f64 * (1.0 - TRIM_SHARE)).floor() as usize).max(1);
    v.truncate(keep);
    v
}

/// Mean of `values` without the slowest [`TRIM_SHARE`] of them.
pub fn trimmed_mean(values: &[f64]) -> Option<f64> {
    mean(&trimmed(values.iter().copied()))
}

/// One traced view, reduced.
#[derive(Default)]
struct ViewSums {
    /// Duration of the root span, µs.
    root_us: f64,
    /// Floored self time by span name, µs.
    self_us: Vec<(&'static str, f64)>,
    /// Signed self time of the `hosting.miss` root, µs.
    miss_self: Option<f64>,
    /// Signed self time of `runtime.exec_seq`, µs.
    runtime_self: Option<f64>,
    /// `runtime.exec − runtime.exec_seq`, µs.
    fanout: Option<f64>,
    /// Duration of `designer.render`, µs.
    render: Option<f64>,
}

impl ViewSums {
    fn self_total(&self) -> f64 {
        self.self_us.iter().map(|(_, v)| v).sum()
    }
}

/// What the spans of a traced run add up to, over every view but the
/// slowest [`TRIM_SHARE`] (by root duration or by summed self time).
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Share of the operations' time that is self time of the spans of
    /// each name (self times floored at zero).
    pub share: HashMap<&'static str, f64>,
    /// Views kept.
    pub views: u64,
    /// Mean duration of a view's root span, in µs.
    pub view_mean_us: f64,
    /// Floored self time of every span of a view, per view, in µs:
    /// equals `view_mean_us` when no replay outlasted its parent.
    pub view_self_mean_us: f64,
    /// Mean signed self time of `hosting.miss` spans, in µs.
    pub miss_self_us: Option<f64>,
    /// Mean signed self time of `runtime.exec_seq` spans, in µs.
    pub runtime_self_us: Option<f64>,
    /// Mean of `runtime.exec − runtime.exec_seq`, in µs (signed).
    pub fanout_us: Option<f64>,
    /// Mean duration of `designer.render` spans, in µs.
    pub render_us: Option<f64>,
}

/// Reduce the clients' spans to per-layer figures.
pub fn attribute(clients: &[ClientTrace]) -> Attribution {
    let mut views: Vec<ViewSums> = Vec::new();
    // Crawl cycles are few and their cost is the point: none is
    // trimmed.
    let mut cycle_root_us = 0.0;
    let mut cycle_self: HashMap<&'static str, f64> = HashMap::new();
    for c in clients {
        let signed = signed_self_times(&c.spans);
        let mut root = vec![0usize; c.spans.len()];
        let mut view_of: HashMap<usize, usize> = HashMap::new();
        for (i, s) in c.spans.iter().enumerate() {
            root[i] = s.parent.map_or(i, |p| root[p]);
            let signed_us = signed[i] as f64 / 1e3;
            let dur_us = s.duration_ns() as f64 / 1e3;
            if !c.spans[root[i]].name.starts_with("hosting.") {
                if s.parent.is_none() {
                    cycle_root_us += dur_us;
                }
                *cycle_self.entry(s.name).or_default() += signed_us.max(0.0);
                continue;
            }
            let at = *view_of.entry(root[i]).or_insert_with(|| {
                views.push(ViewSums::default());
                views.len() - 1
            });
            let v = &mut views[at];
            v.self_us.push((s.name, signed_us.max(0.0)));
            if s.parent.is_none() {
                v.root_us = dur_us;
            }
            match s.name {
                "hosting.miss" => v.miss_self = Some(signed_us),
                "runtime.exec_seq" => {
                    v.runtime_self = Some(signed_us);
                    let exec = &c.spans[s.parent.expect("exec_seq hangs off exec")];
                    v.fanout = Some((exec.duration_ns() as f64 - s.duration_ns() as f64) / 1e3);
                }
                "designer.render" => v.render = Some(dur_us),
                _ => {}
            }
        }
    }
    if views.is_empty() {
        return Attribution::default();
    }
    let cutoff = |f: &dyn Fn(&ViewSums) -> f64| -> f64 {
        *trimmed(views.iter().map(f))
            .last()
            .expect("trimming keeps at least one view")
    };
    let (by_root, by_self) = (cutoff(&|v| v.root_us), cutoff(&ViewSums::self_total));
    let kept: Vec<&ViewSums> = views
        .iter()
        .filter(|v| v.root_us <= by_root && v.self_total() <= by_self)
        .collect();
    let root_us: f64 = kept.iter().map(|v| v.root_us).sum::<f64>() + cycle_root_us;
    let mut share = cycle_self;
    for v in &kept {
        for (name, us) in &v.self_us {
            *share.entry(name).or_default() += us;
        }
    }
    for v in share.values_mut() {
        *v /= root_us;
    }
    let over = |f: &dyn Fn(&ViewSums) -> Option<f64>| -> Option<f64> {
        mean(&kept.iter().filter_map(|v| f(v)).collect::<Vec<_>>())
    };
    Attribution {
        share,
        views: kept.len() as u64,
        view_mean_us: over(&|v| Some(v.root_us)).unwrap_or(0.0),
        view_self_mean_us: over(&|v| Some(v.self_total())).unwrap_or(0.0),
        miss_self_us: over(&|v| v.miss_self),
        runtime_self_us: over(&|v| v.runtime_self),
        fanout_us: over(&|v| v.fanout),
        render_us: over(&|v| v.render),
    }
}

/// Timed passes per probe; the fastest pass is reported. Noise on a
/// shared box only ever adds time, so the minimum is the estimate
/// least touched by it.
const PROBE_PASSES: usize = 3;

/// µs per call of `f` over `inputs`: the mean of the fastest of
/// [`PROBE_PASSES`] passes (the first pass also pays for lazy set-up
/// and cold caches).
fn probe<I, T>(inputs: &[I], mut f: impl FnMut(&I) -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..PROBE_PASSES {
        let start = Instant::now();
        for i in inputs {
            std::hint::black_box(f(std::hint::black_box(i)));
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best * 1e6 / inputs.len().max(1) as f64
}

/// Like [`probe`] for calls that consume their input.
fn probe_owned<I: Clone, T>(inputs: &[I], mut f: impl FnMut(I) -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..PROBE_PASSES {
        let owned: Vec<I> = inputs.to_vec();
        let start = Instant::now();
        for i in owned {
            std::hint::black_box(f(std::hint::black_box(i)));
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    best * 1e6 / inputs.len().max(1) as f64
}

fn wire_bytes(r: &ServiceResponse) -> usize {
    r.records
        .iter()
        .flatten()
        .map(|(k, v)| k.len() + v.len())
        .sum()
}

/// Inputs per probe.
const PROBE_INPUTS: usize = 48;
/// Crawl batches the ingest probe applies: enough virtual time for the
/// staleness window to force at least one seal.
const PROBE_CYCLES: usize = 110;
/// Queries per selectivity cell whose plans are all forced.
const REGRET_QUERIES: usize = 3;

/// Run every layer probe on `world`. Returns `(metric, value)` pairs
/// and what the crawl script's write path reported.
pub fn run_probes(
    world: &mut World,
    fx: &mut Fixture,
    mirror: &mut MirrorIndex,
    now_ms: &mut u64,
) -> (Vec<(&'static str, f64)>, WriteTotals) {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let seed = mix(world.seed, 0x5052_4F42);
    let mut web_stream = WebStream::new(seed, 1);
    let web: Vec<String> = (0..PROBE_INPUTS).map(|_| web_stream.next_query()).collect();
    let phrases: Vec<Query> = web
        .iter()
        .filter_map(|q| {
            let mut words = q
                .split(|c: char| !c.is_alphanumeric())
                .filter(|w| !w.is_empty());
            Some(Query::parse(&format!(
                "\"{} {}\"",
                words.next()?,
                words.next()?
            )))
        })
        .collect();
    let cat: Vec<String> = hybrid_queries(seed)
        .into_iter()
        .take(PROBE_INPUTS)
        .collect();
    let titles: Vec<&String> = world.names.iter().take(PROBE_INPUTS).collect();
    let plain = SearchConfig::default();
    let k = 10;

    {
        let world = &*world;
        let fx = &*fx;
        let engine = fx.engine(world);
        let cluster = fx.cluster(world);
        let app0 = &world.apps[0];
        let space = world
            .host
            .platform(app0.home)
            .store()
            .space_by_id(app0.config.owner);
        let table: &IndexedTable = space
            .and_then(|s| s.table("catalog").ok())
            .expect("every world has a catalog");

        // ---- websearch + textindex ---------------------------------
        let search_us = probe(&web, |q| engine.search(Vertical::Web, q, &plain, k));
        let pools: Vec<ShardPool> = web
            .iter()
            .map(|q| engine.search_pool(Vertical::Web, q, &plain, k))
            .collect();
        out.push(("websearch.search_us", search_us));
        out.push((
            "websearch.pool_us",
            probe(&web, |q| engine.search_pool(Vertical::Web, q, &plain, k)),
        ));
        out.push((
            "websearch.merge_us",
            probe_owned(&pools, |p| SearchEngine::merge_pools(vec![p], k)),
        ));
        out.push((
            "websearch.pool_entries_per_query",
            pools.iter().map(|p| p.entries.len()).sum::<usize>() as f64 / pools.len() as f64,
        ));
        let parse_us = probe(&web, |q| Query::parse(q));
        let parsed: Vec<Query> = web.iter().map(|q| Query::parse(q)).collect();
        let searcher = Searcher::new(&mirror.index);
        // The engine asks for a pool of max(4k, 32) under a (here
        // always-true) site filter; ask the mirror for the same.
        let depth = (k * 4).max(32);
        let text_us = probe(&parsed, |q| {
            searcher.search_filtered_with_threshold(q, depth, |_| true)
        });
        out.push(("textindex.parse_us", parse_us));
        out.push(("textindex.search_us", text_us));
        out.push(("websearch.shell_us", search_us - text_us - parse_us));
        out.push((
            "textindex.search_phrase_us",
            probe(&phrases, |q| searcher.search(q, k)),
        ));
        let every_20th =
            DocSet::from_sorted((0..mirror.index.total_docs() as u32).step_by(20).collect());
        out.push((
            "textindex.search_docset_us",
            probe(&parsed, |q| searcher.search_docset(q, k, &every_20th)),
        ));

        // ---- cluster -----------------------------------------------
        let (mut answered, mut scattered) = (0u64, 0u64);
        let scatter_us = probe(&web, |q| {
            let o = cluster.scatter(Vertical::Web, q, &plain, k, *now_ms);
            answered += u64::from(o.shards_answered);
            scattered += u64::from(o.shards_total);
            o
        });
        let nodes: Vec<ShardSearchService> = cluster
            .shard_engines()
            .iter()
            .map(|e| ShardSearchService::new(e.clone()))
            .collect();
        let legs: Vec<(usize, &String)> = web
            .iter()
            .flat_map(|q| (0..nodes.len()).map(move |s| (s, q)))
            .collect();
        let leg_us = probe(&legs, |(s, q)| {
            let request = wire::search_request(Vertical::Web, q, &plain, k);
            let response = nodes[*s].handle(&request).expect("shard node answers");
            decode_pool(&response)
        });
        let shard_pools: Vec<ShardPool> = legs
            .iter()
            .map(|(s, q)| cluster.shard_engines()[*s].search_pool(Vertical::Web, q, &plain, k))
            .collect();
        let frames: Vec<ServiceResponse> = shard_pools.iter().map(encode_pool).collect();
        let per_query: Vec<Vec<ShardPool>> =
            shard_pools.chunks(nodes.len()).map(<[_]>::to_vec).collect();
        let gather_us = probe_owned(&per_query, |p| SearchEngine::merge_pools(p, k));
        out.push(("cluster.scatter_us", scatter_us));
        out.push(("cluster.leg_us", leg_us));
        out.push((
            "cluster.router_self_us",
            scatter_us - leg_us * nodes.len() as f64 - gather_us,
        ));
        out.push(("cluster.wire_encode_us", probe(&shard_pools, encode_pool)));
        out.push(("cluster.wire_decode_us", probe(&frames, decode_pool)));
        out.push((
            "cluster.pool_bytes_per_query",
            frames.iter().map(wire_bytes).sum::<usize>() as f64 / web.len() as f64,
        ));
        out.push(("cluster.shard_tax_us", scatter_us - search_us));
        out.push((
            "cluster.shards_answered_ratio",
            answered as f64 / scattered.max(1) as f64,
        ));

        // ---- sources -----------------------------------------------
        let subs = Substrates {
            space,
            engine: Some(engine),
            transport: Some(&fx.transport),
            ads: Some(&fx.ads),
            scatter: None,
        };
        let catalog = || "catalog".to_string();
        let defs: [(&'static str, DataSourceDef, &[String]); 3] = [
            (
                "source.proprietary_us",
                DataSourceDef::Proprietary { table: catalog() },
                &cat,
            ),
            (
                "source.hybrid_us",
                DataSourceDef::Hybrid {
                    table: catalog(),
                    filter: price_below(HYBRID_CUTOFFS[1]),
                },
                &cat,
            ),
            (
                "source.web_us",
                DataSourceDef::WebVertical {
                    vertical: Vertical::Web,
                    config: plain.clone(),
                },
                &web,
            ),
        ];
        for (name, def, inputs) in &defs {
            out.push((name, probe(inputs, |q| run_source(def, q, k, subs, None))));
        }
        let pricing = DataSourceDef::Service {
            endpoint: "pricing".into(),
            operation: "/price".into(),
            item_param: "item".into(),
            policy: CallPolicy::default(),
        };
        out.push((
            "source.service_us",
            probe(&titles, |t| run_source(&pricing, t, 1, subs, None)),
        ));
        let sponsored = DataSourceDef::Ads { slots: 2 };
        out.push((
            "source.ads_us",
            probe(&cat, |q| run_source(&sponsored, q, 2, subs, None)),
        ));

        // ---- datastore ---------------------------------------------
        let cat_parsed: Vec<Query> = cat.iter().map(|q| Query::parse(q)).collect();
        let cells = [
            ("datastore.hybrid_s0001_us", "datastore.plan_regret_s0001"),
            ("datastore.hybrid_s05_us", "datastore.plan_regret_s05"),
            ("datastore.hybrid_s20_us", "datastore.plan_regret_s20"),
            ("datastore.hybrid_s50_us", "datastore.plan_regret_s50"),
        ];
        for ((time_name, regret_name), cutoff) in cells.into_iter().zip(HYBRID_CUTOFFS) {
            let queries: Vec<HybridQuery> = cat_parsed
                .iter()
                .map(|q| HybridQuery::new(q.clone(), price_below(cutoff), k))
                .collect();
            out.push((
                time_name,
                probe(&queries, |hq| table.hybrid_query(hq).expect("view enabled")),
            ));
            // Regret: the planner's own choice against the best of the
            // three forced plans, over the same few queries.
            let sample = &queries[..REGRET_QUERIES.min(queries.len())];
            let forced = |plan: Option<HybridPlan>| -> f64 {
                probe(sample, |hq| {
                    table.hybrid_query_planned(hq, plan).expect("view enabled")
                })
            };
            let chosen = forced(None);
            let best = [
                HybridPlan::FilterFirst,
                HybridPlan::SearchFirst,
                HybridPlan::Scan,
            ]
            .into_iter()
            .map(|p| forced(Some(p)))
            .fold(chosen, f64::min);
            out.push((regret_name, chosen / best));
            if cutoff == HYBRID_CUTOFFS[1] {
                out.push((
                    "datastore.explain_us",
                    probe(&queries, |hq| table.hybrid_explain(hq)),
                ));
            }
        }
        out.push((
            "datastore.search_us",
            probe(&cat_parsed, |q| table.search(q, k).expect("view enabled")),
        ));
        out.push(("datastore.ingest_rows_per_s", fx.catalog_rows_per_s));

        // ---- services, ads, L2, clicks -----------------------------
        let client = ServiceClient::with_policy(&fx.transport, CallPolicy::default());
        let (mut retries, mut failures) = (0u64, 0u64);
        out.push((
            "services.call_us",
            probe(&titles, |t| {
                let request = ServiceRequest::get("/price", &[("item", t.as_str())]);
                match client.call_resilient("pricing", &request, &ResilienceContext::at(*now_ms)) {
                    Ok(o) => retries += u64::from(o.attempts.saturating_sub(1)),
                    Err(_) => failures += 1,
                }
            }),
        ));
        out.push(("services.retries", retries as f64));
        out.push(("services.failures", failures as f64));
        out.push(("adserver.select_us", probe(&cat, |q| fx.ads.select(q, 2))));

        let warm = SourceCache::new(SourceCacheConfig::default());
        let web_def = &defs[2].1;
        let fill = SourceCtx::at(0);
        for q in &web {
            warm.fetch(web_def, None, q, k, None, &fill, || {
                run_source(web_def, q, k, subs, None)
            });
        }
        // Well after every fill completed, well inside the web TTL.
        let later = SourceCtx::at(1_000);
        out.push((
            "source_cache.fetch_hit_us",
            probe(&web, |q| {
                let f = warm.fetch(web_def, None, q, k, None, &later, || unreachable!());
                debug_assert_eq!(f.status, FetchStatus::Hit);
                f
            }),
        ));

        let click_query = match world.workload {
            Workload::Storefront => world.query_pool[0].clone(),
            Workload::HybridSweep => cat[0].clone(),
            _ => web[0].clone(),
        };
        let page = world.host.query(app0.id, &click_query);
        let clicked = page
            .as_ref()
            .ok()
            .and_then(|r| r.impressions.first().cloned())
            .unwrap_or(symphony_core::Impression {
                source: "catalog".into(),
                url: None,
                title: String::new(),
                position: 0,
                is_ad: false,
                ad_campaign: None,
                ad_price_cents: None,
            });
        let clicks = vec![(); PROBE_INPUTS];
        out.push((
            "hosting.click_us",
            probe(&clicks, |_| {
                world.host.click(app0.id, &click_query, &clicked)
            }),
        ));
    }

    // ---- the write path (mutates the engine: last) -----------------
    let mut totals = WriteTotals::default();
    let (mut ingest_s, mut maintain_s, mut pages, mut ticks) = (0.0, 0.0, 0u64, 0u64);
    {
        let mut crawl = IngestStream::over(seed, 1, 1, fx.engine(world).corpus());
        let host = match &mut fx.reference {
            Some(r) => &mut r.host,
            None => &mut world.host,
        };
        let engine = host
            .single_mut()
            .and_then(|p| p.engine_mut())
            .expect("a single node owns its engine");
        for _ in 0..PROBE_CYCLES {
            let Op::Cycle(cycle) = crawl.next_op() else {
                unreachable!("ingest streams yield cycles")
            };
            let report = apply_writes(engine, &cycle, now_ms, |name, f| {
                let t = Instant::now();
                f();
                let took = t.elapsed().as_secs_f64();
                match name {
                    "websearch.ingest" => ingest_s += took,
                    "websearch.maintain" => {
                        maintain_s += took;
                        totals.maintain_max_ms = totals.maintain_max_ms.max(took * 1e3);
                    }
                    _ => {}
                }
                totals.write_s += took;
            });
            mirror.apply(&cycle, *now_ms);
            totals.add(&report);
            pages += cycle.pages.len() as u64;
            ticks += 1;
        }
    }
    out.push(("websearch.ingest_us", ingest_s * 1e6 / pages.max(1) as f64));
    out.push((
        "websearch.maintain_us",
        maintain_s * 1e6 / ticks.max(1) as f64,
    ));
    let stats = mirror.index.stats();
    out.push((
        "textindex.segments_after_ingest",
        stats.sealed_segments as f64,
    ));
    out.push((
        "textindex.bytes_per_doc",
        mirror.index.bytes_estimate() as f64 / stats.live_docs.max(1) as f64,
    ));
    (out, totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;

    #[test]
    fn a_traced_miss_decomposes_into_the_layers_below_it() {
        let mut world = build(Workload::Storefront, Scale::Smoke, 4);
        let fx = Fixture::build(&world, Scale::Smoke);
        let (mut mirror, _) = MirrorIndex::build(fx.engine(&world));
        let mut streams: Vec<_> = (0..2).map(|c| world.stream(c)).collect();
        let clients = traced_run(&mut world, &fx, &mut mirror, &mut streams, 0.3, &mut 0);
        assert_eq!(clients.len(), 2);
        let failed: u64 = clients.iter().map(|c| c.counts.failed).sum();
        assert_eq!(failed, 0, "{:?}", clients[0].counts.failures);
        let a = attribute(&clients);
        for name in [
            "hosting.miss",
            "hosting.hit",
            "runtime.exec_seq",
            "source.proprietary",
            "source.ads",
            "designer.render",
        ] {
            assert!(a.share.get(name).is_some_and(|v| *v > 0.0), "{name}");
        }
        assert!(a.views > 0 && a.view_mean_us > 0.0);
        assert!(a.view_self_mean_us >= a.view_mean_us * 0.99);
        assert!(clients.iter().any(|c| c.counts.fanout_tasks > 0));
        // Parents precede children, and every child names a real one.
        for c in &clients {
            for (i, s) in c.spans.iter().enumerate() {
                assert!(s.parent.is_none_or(|p| p < i));
                assert!(s.end_ns >= s.start_ns);
            }
        }
    }

    #[test]
    fn the_probes_cover_every_probe_metric_on_every_world() {
        for w in [Workload::HybridSweep, Workload::ShardedWeb] {
            let mut world = build(w, Scale::Smoke, 8);
            let mut fx = Fixture::build(&world, Scale::Smoke);
            let (mut mirror, _) = MirrorIndex::build(fx.engine(&world));
            let (got, writes) = run_probes(&mut world, &mut fx, &mut mirror, &mut 0);
            assert!(writes.pages > 0 && writes.write_s > 0.0 && writes.seals > 0);
            let names: Vec<&str> = got.iter().map(|(n, _)| *n).collect();
            for m in PER_LAYER {
                let from_probe = m.unit == "us"
                    && !matches!(
                        m.name,
                        "hosting.miss_self_us"
                            | "runtime.self_us"
                            | "runtime.fanout_us"
                            | "designer.render_us"
                    );
                if from_probe {
                    assert!(names.contains(&m.name), "{w:?} lacks {}", m.name);
                }
            }
            for (n, v) in &got {
                assert!(v.is_finite(), "{w:?} {n} = {v}");
            }
        }
    }
}
