//! One benchmark run of one workload: set-up, verification, then the
//! untraced timed run (`--trace 0`) or the traced run (`--trace 1`).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use crate::exec::{peak_rss_mb, timed_run, verify, ClientPool, MirrorIndex, Timed, Verified};
use crate::gen::CYCLE_READS;
use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::spans::write_jsonl;
use crate::stats::{by_lap, by_position, median, Timing};
use crate::trace::{attribute, run_probes, traced_run, trimmed_mean, Fixture, WriteTotals};
use crate::worlds::{build, Scale, Workload, World};

/// Worlds built (and timed) per untraced run; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// Untraced/traced alternations in a traced run.
const TRACE_ROUNDS: usize = 6;

/// What to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchConfig {
    /// Workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// World sizes.
    pub scale: Scale,
}

/// What a run found.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Whether every operation succeeded and every oracle agreed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(metric, value)` in table order.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// Everything else worth keeping: counts, checksum, environment.
    pub details: Json,
}

impl BenchResult {
    /// The one-line result object the driver reads.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(m, v)| {
                    (
                        m.name,
                        Json::obj([("value", Json::Num(*v)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn timing_of(config: &BenchConfig, timed: &Timed) -> Result<Timing, String> {
    let lap = config.workload.lap_ops(config.scale);
    let timing = if config.workload.replays_exactly() {
        timed.clients.first().and_then(|c| by_position(c))
    } else if config.workload == Workload::LiveIngest {
        // A cycle is one write sample and its reads.
        by_lap(&timed.clients, lap * (1 + CYCLE_READS))
    } else {
        by_lap(&timed.clients, lap)
    };
    timing.ok_or_else(|| "the timed run completed no operation".to_string())
}

fn details(
    config: &BenchConfig,
    world: &World,
    verified: &Verified,
    timed: &Timed,
    timing: &Timing,
) -> Vec<(&'static str, Json)> {
    let c = world.counts;
    vec![
        ("workload", Json::str(config.workload.name())),
        ("seed", Json::Num(config.seed as f64)),
        ("seconds", Json::Num(config.seconds)),
        ("trace", Json::Bool(config.trace)),
        (
            "scale",
            Json::str(match config.scale {
                Scale::Full => "full",
                Scale::Smoke => "smoke",
            }),
        ),
        ("clients", Json::Num(config.workload.clients() as f64)),
        ("nproc", Json::Num(nproc() as f64)),
        (
            "lap_ops",
            Json::Num(config.workload.lap_ops(config.scale) as f64),
        ),
        (
            "reduced",
            Json::str(if config.workload.replays_exactly() {
                "by position"
            } else {
                "by lap"
            }),
        ),
        ("repeats", Json::Num(timing.repeats as f64)),
        ("percentile_over", Json::Num(timing.percentile_over as f64)),
        ("mean_us", Json::Num(timing.mean_us)),
        (
            "output_checksum",
            Json::str(format!("{:016x}", verified.checksum)),
        ),
        ("verify_ops", Json::Num(verified.attempted as f64)),
        ("oracle_checks", Json::Num(verified.oracle_checks as f64)),
        ("timed_ops", Json::Num(timed.attempted as f64)),
        (
            "world",
            Json::obj([
                ("pages", Json::Num(c.pages as f64)),
                ("web_docs", Json::Num(c.web_docs as f64)),
                ("tenants", Json::Num(c.tenants as f64)),
                ("rows_per_tenant", Json::Num(c.rows_per_tenant as f64)),
                ("apps", Json::Num(c.apps as f64)),
            ]),
        ),
        (
            "failures",
            Json::Arr(
                verified
                    .failures
                    .iter()
                    .chain(&timed.failures)
                    .map(Json::str)
                    .collect(),
            ),
        ),
    ]
}

/// Run one workload once.
pub fn bench(config: &BenchConfig) -> Result<BenchResult, String> {
    let clients = config.workload.clients();
    if clients > nproc() {
        return Err(format!(
            "{} needs {clients} clients but only {} CPUs are available",
            config.workload.name(),
            nproc()
        ));
    }
    // Before anything else: see `ClientPool`.
    let pool = ClientPool::start(clients);
    if config.trace {
        traced(config, &pool)
    } else {
        untraced(config, &pool)
    }
}

fn untraced(config: &BenchConfig, pool: &ClientPool) -> Result<BenchResult, String> {
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let start = Instant::now();
    let mut world = Arc::new(build(config.workload, config.scale, config.seed));
    setup.push(start.elapsed().as_secs_f64());
    let mut streams: Vec<_> = (0..config.workload.clients())
        .map(|c| world.stream(c))
        .collect();
    let mut now_ms = 0;
    let verified = verify(owned(&mut world), &mut streams, None, &mut now_ms);
    // The high-water mark is read here, where the process has done a
    // fixed amount of work: one world and the verification pass. Later
    // it would also hold what the allocator kept of the extra worlds
    // below (which varies from run to run by tens of MB) and an
    // interaction log that grows with every page the timed run serves
    // (which would charge a faster program for its extra pages).
    let rss_mb = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    // Set-up again, for the clock only: the first world paid for cold
    // code and a cold allocator, and one sample would carry that.
    while setup.len() < SETUP_REPEATS {
        let start = Instant::now();
        let extra = build(config.workload, config.scale, config.seed);
        setup.push(start.elapsed().as_secs_f64());
        drop(extra);
    }
    let timed = timed_run(pool, &mut world, &mut streams, config.seconds, &mut now_ms);
    let timing = timing_of(config, &timed)?;

    let values: HashMap<&str, f64> = HashMap::from([
        ("ops_per_s", timing.ops_per_s),
        ("p50_us", timing.p50_us),
        ("p99_us", timing.p99_us),
        ("setup_s", median(&setup).expect("set-up ran")),
        ("peak_rss_mb", rss_mb),
    ]);
    let failed = verified.failed + timed.failed;
    let mut extra = details(config, &world, &verified, &timed, &timing);
    extra.push((
        "setup_samples_s",
        Json::Arr(setup.iter().map(|s| Json::Num(*s)).collect()),
    ));
    if let Some(rate) = timing.ingest_docs_per_s {
        extra.push(("ingest_docs_per_s", Json::Num(rate)));
    }
    Ok(BenchResult {
        correct: failed == 0,
        attempted: verified.attempted + timed.attempted,
        failed,
        metrics: END_TO_END.iter().map(|m| (m, values[m.name])).collect(),
        details: Json::obj(extra),
    })
}

/// The world, for the phases that change it. Client threads hold it
/// only while a timed run lasts.
fn owned(world: &mut Arc<World>) -> &mut World {
    Arc::get_mut(world).expect("no client holds the world")
}

fn traced(config: &BenchConfig, pool: &ClientPool) -> Result<BenchResult, String> {
    let mut world = Arc::new(build(config.workload, config.scale, config.seed));
    let mut fx = Fixture::build(&world, config.scale);
    let (mut mirror, mirror_build_s) = MirrorIndex::build(fx.engine(&world));
    let mirror_docs = mirror.index.live_docs();
    let mut streams: Vec<_> = (0..config.workload.clients())
        .map(|c| world.stream(c))
        .collect();
    let mut now_ms = 0;
    let verified = verify(
        owned(&mut world),
        &mut streams,
        fx.reference.as_ref(),
        &mut now_ms,
    );

    // Untraced stretches (the yardstick) alternate with traced ones
    // along the same streams: the box's speed drifts by ±15 % over
    // seconds, and a yardstick taken all at once, before the traced
    // run, would carry that drift into every ratio.
    let mut plain = Timed::default();
    let mut clients = Vec::new();
    for _ in 0..TRACE_ROUNDS {
        plain.absorb(timed_run(
            pool,
            &mut world,
            &mut streams,
            config.seconds * 0.3 / TRACE_ROUNDS as f64,
            &mut now_ms,
        ));
        clients.extend(traced_run(
            owned(&mut world),
            &fx,
            &mut mirror,
            &mut streams,
            config.seconds * 0.5 / TRACE_ROUNDS as f64,
            &mut now_ms,
        ));
    }
    let timing = timing_of(config, &plain)?;
    let a = attribute(&clients);
    if a.views == 0 {
        return Err("the traced run completed no view".into());
    }
    // The untraced mean view, trimmed like the traced figures are.
    let pooled: Vec<f64> = plain.view_latencies_us().collect();
    let yardstick_us = trimmed_mean(&pooled).expect("the untraced phase served views");

    // Counts from the platform's own public stats, before the probes
    // add traffic of their own.
    let (mut l1_hits, mut l1_misses, mut shed) = (0u64, 0u64, 0u64);
    for app in &world.apps {
        let platform = world.host.platform(app.home);
        if let Some(s) = platform.cache_stats(app.local) {
            l1_hits += s.hits;
            l1_misses += s.misses;
        }
        if let Ok(t) = platform.traffic_summary(app.local) {
            shed += t.shed_queries;
        }
    }
    let mut l2 = symphony_core::SourceCacheStats::default();
    for p in world.host.platforms() {
        let s = p.source_cache_stats();
        l2.hits += s.hits;
        l2.negative_hits += s.negative_hits;
        l2.coalesced += s.coalesced;
        l2.misses += s.misses;
        l2.evictions += s.evictions;
    }

    let (probes, mut writes) = run_probes(owned(&mut world), &mut fx, &mut mirror, &mut now_ms);
    let probe_rate = writes.pages as f64 / writes.write_s.max(f64::MIN_POSITIVE);
    for c in &clients {
        writes.absorb(&c.counts.writes);
    }
    writes.absorb(&WriteTotals {
        seals: plain.seals,
        merges: plain.merges,
        purged: plain.purged,
        maintain_max_ms: plain.maintain_max_ms,
        ..WriteTotals::default()
    });

    let sum = |f: fn(&crate::trace::TraceCounts) -> u64| -> u64 {
        clients.iter().map(|c| f(&c.counts)).sum()
    };
    let views = sum(|c| c.views);
    let misses = views - sum(|c| c.hits);
    let share = |names: &[&str]| -> f64 {
        names
            .iter()
            .filter_map(|n| a.share.get(n))
            .fold(0.0, |acc, v| acc + v)
    };
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };

    let mut values: HashMap<&str, f64> = probes.iter().copied().collect();
    values.extend([
        ("hosting.l1_hit_ratio", ratio(l1_hits, l1_hits + l1_misses)),
        ("hosting.miss_self_us", a.miss_self_us.unwrap_or(0.0)),
        ("hosting.shed_count", shed as f64),
        ("share.hosting_hit", share(&["hosting.hit"])),
        ("share.hosting_miss", share(&["hosting.miss"])),
        ("share.hosting_click", share(&["hosting.click"])),
        ("runtime.self_us", a.runtime_self_us.unwrap_or(0.0)),
        ("runtime.fanout_us", a.fanout_us.unwrap_or(0.0)),
        (
            "runtime.fanout_tasks_per_miss",
            ratio(sum(|c| c.fanout_tasks), misses),
        ),
        ("runtime.degraded_count", sum(|c| c.degraded) as f64),
        ("share.runtime_self", share(&["runtime.exec_seq"])),
        ("share.runtime_fanout", share(&["runtime.exec"])),
        (
            "source_cache.hit_ratio",
            ratio(
                l2.hits + l2.negative_hits,
                l2.hits + l2.negative_hits + l2.misses,
            ),
        ),
        ("source_cache.coalesced_count", l2.coalesced as f64),
        ("source_cache.evictions", l2.evictions as f64),
        ("share.source_cache_hit", share(&["source_cache.hit"])),
        ("share.source_proprietary", share(&["source.proprietary"])),
        ("share.source_hybrid", share(&["source.hybrid"])),
        ("share.source_web", share(&["source.web"])),
        ("share.source_service", share(&["source.service"])),
        ("share.source_ads", share(&["source.ads"])),
        ("websearch.maintain_max_ms", writes.maintain_max_ms),
        ("websearch.seals", writes.seals as f64),
        ("websearch.merges", writes.merges as f64),
        ("websearch.purged_docs", writes.purged as f64),
        (
            "share.websearch_write",
            share(&["websearch.ingest", "websearch.remove", "websearch.maintain"]),
        ),
        (
            "textindex.build_docs_per_s",
            mirror_docs as f64 / mirror_build_s,
        ),
        ("designer.render_us", a.render_us.unwrap_or(0.0)),
        (
            "designer.html_bytes_per_page",
            ratio(sum(|c| c.html_bytes), views),
        ),
        ("share.designer_render", share(&["designer.render"])),
        (
            "e2e.ingest_docs_per_s",
            timing.ingest_docs_per_s.unwrap_or(probe_rate),
        ),
        ("trace.overhead_ratio", a.view_mean_us / yardstick_us),
        ("trace.reconcile_ratio", a.view_self_mean_us / yardstick_us),
    ]);

    let spans: Vec<_> = clients.iter().map(|c| c.spans.clone()).collect();
    // Next to the package's sources, wherever the run was started from.
    let trace_file = format!(
        concat!(env!("CARGO_MANIFEST_DIR"), "/out/trace-{}.jsonl"),
        config.workload.name()
    );
    // A trace that cannot be written (read-only checkout) loses the
    // file, not the run: the metrics are already computed.
    let written = write_jsonl(std::path::Path::new(&trace_file), &spans).is_ok();

    let traced_failed = sum(|c| c.failed);
    let failed = verified.failed + plain.failed + traced_failed;
    let mut extra = details(config, &world, &verified, &plain, &timing);
    extra.push(("traced_views", Json::Num(views as f64)));
    extra.push((
        "spans",
        Json::Num(spans.iter().map(Vec::len).sum::<usize>() as f64),
    ));
    if written {
        extra.push(("trace_file", Json::str(trace_file)));
    }
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for m in PER_LAYER {
        let v = values
            .get(m.name)
            .copied()
            .ok_or_else(|| format!("no value for layer metric {}", m.name))?;
        metrics.push((m, v));
    }
    Ok(BenchResult {
        correct: failed == 0,
        attempted: verified.attempted + plain.attempted + views,
        failed,
        metrics,
        details: Json::obj(extra),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_print_every_metric_for_every_workload() {
        let started = Instant::now();
        for workload in Workload::ALL {
            for trace in [false, true] {
                let config = BenchConfig {
                    workload,
                    seed: 17,
                    seconds: 0.4,
                    trace,
                    scale: Scale::Smoke,
                };
                let r = bench(&config).unwrap_or_else(|e| panic!("{workload:?}: {e}"));
                assert!(r.correct, "{workload:?} trace={trace}: {}", r.details);
                assert_eq!(r.failed, 0);
                assert!(r.attempted >= 1);
                let table = if trace { PER_LAYER } else { END_TO_END };
                assert_eq!(r.metrics.len(), table.len());
                for (m, v) in &r.metrics {
                    assert!(v.is_finite(), "{workload:?} {} = {v}", m.name);
                    if !trace {
                        assert!(*v > 0.0, "{workload:?} {} = {v}", m.name);
                    }
                }
                let line = r.result_line().to_string();
                let parsed = Json::parse(&line).expect("result line parses");
                assert_eq!(parsed.members().len(), 4);
                assert!(!line.contains('\n'));
            }
        }
        assert!(
            started.elapsed().as_secs() < 60,
            "smoke scale must stay cheap"
        );
    }

    #[test]
    fn cache_off_workloads_do_no_cache_work_and_storefront_does() {
        let layer = |w: Workload| -> HashMap<&'static str, f64> {
            let r = bench(&BenchConfig {
                workload: w,
                seed: 23,
                seconds: 0.4,
                trace: true,
                scale: Scale::Smoke,
            })
            .unwrap();
            r.metrics.iter().map(|(m, v)| (m.name, *v)).collect()
        };
        let web = layer(Workload::WebCold);
        for name in [
            "hosting.l1_hit_ratio",
            "source_cache.hit_ratio",
            "source_cache.coalesced_count",
            "source_cache.evictions",
            "share.hosting_hit",
            "share.source_cache_hit",
            "hosting.shed_count",
        ] {
            assert_eq!(web[name], 0.0, "{name}");
        }
        // At smoke scale the corpus is tiny and the per-miss thread
        // spawn rivals the search; the web source still leads.
        assert!(web["share.source_web"] > 0.1);
        assert_eq!(web["share.source_proprietary"], 0.0);
        assert!(web["cluster.shard_tax_us"] > 0.0);
        let store = layer(Workload::Storefront);
        assert!(store["hosting.l1_hit_ratio"] > 0.0);
        assert!(store["source_cache.hit_ratio"] > 0.0);
    }
}
