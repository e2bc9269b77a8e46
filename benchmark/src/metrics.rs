//! The ledger's metric and workload tables — the names every later
//! change refers to. `BENCHMARK.json` at the repo root states the same
//! tables for the driver; a self-test keeps the two in step.

use crate::json::Json;
use crate::worlds::Workload;

/// Which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// `"higher"` / `"lower"`, as `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline by which an end-to-end metric may worsen
    /// before it counts as a regression (`None` for layer metrics).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the platform sees. Every workload reports all of
/// them, untraced.
pub const END_TO_END: &[MetricDef] = &[
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("p50_us", "us", Lower, 0.25),
    e2e("p99_us", "us", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.2),
];

/// What single layers do. Every workload reports all of them from its
/// traced run. `share.*` and the counts describe this workload's own
/// operations (0 where the workload bypasses the layer); every `_us`
/// metric is the cost of one call into the layer on this workload's
/// world, measured whether or not the workload's operations go there.
pub const PER_LAYER: &[MetricDef] = &[
    // hosting
    layer("hosting.l1_hit_ratio", "ratio", Higher),
    layer("hosting.miss_self_us", "us", Lower),
    layer("hosting.click_us", "us", Lower),
    layer("hosting.shed_count", "count", Lower),
    layer("share.hosting_hit", "ratio", Lower),
    layer("share.hosting_miss", "ratio", Lower),
    layer("share.hosting_click", "ratio", Lower),
    // runtime
    layer("runtime.self_us", "us", Lower),
    layer("runtime.fanout_us", "us", Lower),
    layer("runtime.fanout_tasks_per_miss", "count", Lower),
    layer("runtime.degraded_count", "count", Lower),
    layer("share.runtime_self", "ratio", Lower),
    layer("share.runtime_fanout", "ratio", Lower),
    // source cache (L2)
    layer("source_cache.hit_ratio", "ratio", Higher),
    layer("source_cache.coalesced_count", "count", Higher),
    layer("source_cache.evictions", "count", Lower),
    layer("source_cache.fetch_hit_us", "us", Lower),
    layer("share.source_cache_hit", "ratio", Lower),
    // sources
    layer("source.proprietary_us", "us", Lower),
    layer("source.hybrid_us", "us", Lower),
    layer("source.web_us", "us", Lower),
    layer("source.service_us", "us", Lower),
    layer("source.ads_us", "us", Lower),
    layer("share.source_proprietary", "ratio", Lower),
    layer("share.source_hybrid", "ratio", Lower),
    layer("share.source_web", "ratio", Lower),
    layer("share.source_service", "ratio", Lower),
    layer("share.source_ads", "ratio", Lower),
    // websearch
    layer("websearch.search_us", "us", Lower),
    layer("websearch.pool_us", "us", Lower),
    layer("websearch.merge_us", "us", Lower),
    layer("websearch.shell_us", "us", Lower),
    layer("websearch.pool_entries_per_query", "count", Lower),
    layer("websearch.ingest_us", "us", Lower),
    layer("websearch.maintain_us", "us", Lower),
    layer("websearch.maintain_max_ms", "ms", Lower),
    layer("websearch.seals", "count", Lower),
    layer("websearch.merges", "count", Lower),
    layer("websearch.purged_docs", "count", Higher),
    layer("share.websearch_write", "ratio", Lower),
    // textindex
    layer("textindex.parse_us", "us", Lower),
    layer("textindex.search_us", "us", Lower),
    layer("textindex.search_phrase_us", "us", Lower),
    layer("textindex.search_docset_us", "us", Lower),
    layer("textindex.segments_after_ingest", "count", Lower),
    layer("textindex.bytes_per_doc", "B", Lower),
    layer("textindex.build_docs_per_s", "1/s", Higher),
    // datastore
    layer("datastore.hybrid_s0001_us", "us", Lower),
    layer("datastore.hybrid_s05_us", "us", Lower),
    layer("datastore.hybrid_s20_us", "us", Lower),
    layer("datastore.hybrid_s50_us", "us", Lower),
    layer("datastore.plan_regret_s0001", "ratio", Lower),
    layer("datastore.plan_regret_s05", "ratio", Lower),
    layer("datastore.plan_regret_s20", "ratio", Lower),
    layer("datastore.plan_regret_s50", "ratio", Lower),
    layer("datastore.explain_us", "us", Lower),
    layer("datastore.search_us", "us", Lower),
    layer("datastore.ingest_rows_per_s", "1/s", Higher),
    // services
    layer("services.call_us", "us", Lower),
    layer("services.retries", "count", Lower),
    layer("services.failures", "count", Lower),
    // cluster
    layer("cluster.scatter_us", "us", Lower),
    layer("cluster.leg_us", "us", Lower),
    layer("cluster.router_self_us", "us", Lower),
    layer("cluster.wire_encode_us", "us", Lower),
    layer("cluster.wire_decode_us", "us", Lower),
    layer("cluster.pool_bytes_per_query", "B", Lower),
    layer("cluster.shard_tax_us", "us", Lower),
    layer("cluster.shards_answered_ratio", "ratio", Higher),
    // designer, adserver
    layer("designer.render_us", "us", Lower),
    layer("designer.html_bytes_per_page", "B", Lower),
    layer("share.designer_render", "ratio", Lower),
    layer("adserver.select_us", "us", Lower),
    // the write path's end-to-end rate (no bound: it only exists where
    // a workload writes, see the README)
    layer("e2e.ingest_docs_per_s", "1/s", Higher),
    // validity of the traced run itself
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.reconcile_ratio", "ratio", Lower),
];

/// Why each workload exists, in one line (≤ 200 characters).
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::Storefront => {
            "Fig.-2 page (catalog + reviews + pricing + ads) for 8 tenants, 2 clients, caches on: \
             loads hosting L1, source cache, fan-out, render; the text executor does little"
        }
        Workload::WebCold => {
            "web-vertical pages over a 20k-page corpus with L1 and L2 off, 1 client: every view \
             runs websearch + textindex in full; hosting, runtime and render are a thin shell"
        }
        Workload::ShardedWeb => {
            "the web_cold query stream through a 4-shard Router: same engine work per query, so \
             the difference to web_cold is scatter, wire codec, merge and RPC"
        }
        Workload::HybridSweep => {
            "Proprietary and Hybrid sources (price < 0.1/5/20/50 %) over a 100k-row catalog, \
             caches off: datastore planner, filter cursor and full-text view; the web engine idles"
        }
        Workload::LiveIngest => {
            "crawl batches (ingest 16, remove 2, maintain) between web reads on one node: \
             memtable, seal, merge, tombstones and reads over a multi-segment index"
        }
    }
}

/// Seconds one run measures for (the driver passes it as `--seconds`).
pub const RUN_SECONDS: u32 = 20;

/// The `BENCHMARK.json` document these tables describe.
pub fn benchmark_json() -> Json {
    let metric = |m: &MetricDef| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.name())),
        ];
        if let Some(b) = m.bound {
            pairs.push(("bound", Json::Num(b)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(Json::str)
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .into_iter()
                    .map(|w| Json::obj([("name", Json::str(w.name())), ("why", Json::str(why(w)))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn tables_meet_the_benchmark_contract() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()) && seen.insert(w.name()));
            assert!(why(w).len() <= 200 && !why(w).contains('\n'), "{w:?}");
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_at_the_repo_root_states_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        assert!(text.len() <= 64 * 1024);
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(on_disk, benchmark_json());
    }
}
