//! Monetization: interaction logging, summaries, referral audits.
//!
//! Paper §II-A, "Monetization": the platform records customer
//! interactions, credits ad-click revenue automatically, and lets the
//! designer download click-traffic summaries "to serve as the basis
//! for charging or auditing referral compensation".

use std::collections::{BTreeMap, HashMap};

/// An impression: one result shown to a customer.
#[derive(Debug, Clone, PartialEq)]
pub struct Impression {
    /// Data source that produced the result.
    pub source: String,
    /// Result link target, when the layout rendered one.
    pub url: Option<String>,
    /// Result title (first text-ish binding).
    pub title: String,
    /// Position within its result list.
    pub position: usize,
    /// Whether this was an ad placement.
    pub is_ad: bool,
    /// Ad campaign id (ads only).
    pub ad_campaign: Option<u32>,
    /// GSP price in cents (ads only).
    pub ad_price_cents: Option<u32>,
}

/// One logged interaction event: a click. (Rendered results are
/// counted, not logged — see [`ClickLog::record_impressions`].)
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct InteractionEvent {
    /// Application name.
    pub app: String,
    /// Virtual timestamp (platform clock, ms).
    pub at_ms: u64,
    /// The customer query that produced the result.
    pub query: String,
    /// Source name.
    pub source: String,
    /// Link target, when known.
    pub url: Option<String>,
    /// Whether the result was an ad.
    pub is_ad: bool,
}

/// The interaction log. Clicks are stored (the referral audit exports
/// them row by row); impressions are only ever counted, so they are
/// kept as one count per application, and a view costs the log one
/// addition however many results it rendered.
#[derive(Debug, Default)]
pub(crate) struct ClickLog {
    events: Vec<InteractionEvent>,
    impressions: HashMap<String, u64>,
}

/// A per-application traffic summary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrafficSummary {
    /// Application name.
    pub app: String,
    /// Total impressions.
    pub impressions: u64,
    /// Total clicks.
    pub clicks: u64,
    /// Clicks per source.
    pub clicks_by_source: BTreeMap<String, u64>,
    /// Most-clicked queries with counts, descending.
    pub top_queries: Vec<(String, u64)>,
    /// Ad clicks (subset of clicks).
    pub ad_clicks: u64,
    /// Queries served (filled by the hosting layer; the click log
    /// alone cannot see queries that rendered zero impressions).
    pub queries: u64,
    /// Queries that served a degraded (partial) response after
    /// executing (source errors, deadline cuts). Disjoint from
    /// [`TrafficSummary::shed_queries`].
    pub degraded_queries: u64,
    /// Queries shed by admission control before any execution
    /// (answered with the cheap degraded shell).
    pub shed_queries: u64,
}

impl TrafficSummary {
    /// Overall click-through rate.
    pub fn ctr(&self) -> f64 {
        if self.impressions == 0 {
            0.0
        } else {
            self.clicks as f64 / self.impressions as f64
        }
    }

    /// Fraction of queries that served a degraded response (0.0, not
    /// NaN, when no queries were served).
    pub fn error_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.degraded_queries as f64 / self.queries as f64
        }
    }

    /// Fraction of queries shed by admission control (0.0, not NaN,
    /// when no queries were served).
    pub fn shed_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.shed_queries as f64 / self.queries as f64
        }
    }

    /// Fold `other` into `self`: counters sum, per-source and
    /// per-query click maps merge, and `top_queries` is re-ranked over
    /// the union. Because the derived rates ([`TrafficSummary::ctr`],
    /// [`TrafficSummary::error_rate`], [`TrafficSummary::shed_rate`])
    /// divide summed counters, a merged summary weights each input by
    /// its query volume — a shard serving 10× the traffic moves the
    /// folded rate 10× as much.
    pub fn merge(&mut self, other: &TrafficSummary) {
        self.impressions += other.impressions;
        self.clicks += other.clicks;
        self.ad_clicks += other.ad_clicks;
        self.queries += other.queries;
        self.degraded_queries += other.degraded_queries;
        self.shed_queries += other.shed_queries;
        for (source, n) in &other.clicks_by_source {
            *self.clicks_by_source.entry(source.clone()).or_insert(0) += n;
        }
        let mut by_query: BTreeMap<&str, u64> = BTreeMap::new();
        for (q, n) in self.top_queries.iter().chain(&other.top_queries) {
            *by_query.entry(q).or_insert(0) += n;
        }
        let mut merged: Vec<(String, u64)> = by_query
            .into_iter()
            .map(|(q, n)| (q.to_string(), n))
            .collect();
        merged.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        merged.truncate(10);
        self.top_queries = merged;
    }
}

impl ClickLog {
    /// Empty log.
    pub(crate) fn new() -> ClickLog {
        ClickLog::default()
    }

    /// Append a click event.
    pub(crate) fn record(&mut self, event: InteractionEvent) {
        self.events.push(event);
    }

    /// Count `n` results rendered for `app`.
    pub(crate) fn record_impressions(&mut self, app: &str, n: u64) {
        if n == 0 {
            return;
        }
        match self.impressions.get_mut(app) {
            Some(count) => *count += n,
            // First view of this app (`entry` alone would clone the
            // name on every view).
            None => {
                self.impressions.insert(app.to_string(), n);
            }
        }
    }

    /// Summarize one application's traffic.
    pub(crate) fn summarize(&self, app: &str) -> TrafficSummary {
        let mut clicks = 0u64;
        let mut ad_clicks = 0u64;
        let mut clicks_by_source: BTreeMap<String, u64> = BTreeMap::new();
        let mut query_clicks: BTreeMap<String, u64> = BTreeMap::new();
        for e in self.events.iter().filter(|e| e.app == app) {
            clicks += 1;
            if e.is_ad {
                ad_clicks += 1;
            }
            *clicks_by_source.entry(e.source.clone()).or_insert(0) += 1;
            *query_clicks.entry(e.query.clone()).or_insert(0) += 1;
        }
        let mut top_queries: Vec<(String, u64)> = query_clicks.into_iter().collect();
        top_queries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        top_queries.truncate(10);
        TrafficSummary {
            app: app.to_string(),
            impressions: self.impressions.get(app).copied().unwrap_or(0),
            clicks,
            clicks_by_source,
            top_queries,
            ad_clicks,
            queries: 0,
            degraded_queries: 0,
            shed_queries: 0,
        }
    }

    /// Export an application's click events as CSV for referral
    /// auditing (the paper's "summary ... can be downloaded").
    pub(crate) fn referral_audit_csv(&self, app: &str) -> String {
        let names: Vec<String> = ["at_ms", "query", "source", "url", "is_ad"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let rows: Vec<Vec<String>> = self
            .events
            .iter()
            .filter(|e| e.app == app)
            .map(|e| {
                vec![
                    e.at_ms.to_string(),
                    e.query.clone(),
                    e.source.clone(),
                    e.url.clone().unwrap_or_default(),
                    e.is_ad.to_string(),
                ]
            })
            .collect();
        symphony_store::formats::csv::to_csv(&names, &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn click(app: &str, source: &str, query: &str, is_ad: bool) -> InteractionEvent {
        InteractionEvent {
            app: app.into(),
            at_ms: 1000,
            query: query.into(),
            source: source.into(),
            url: Some(format!("http://x/{query}")),
            is_ad,
        }
    }

    fn log() -> ClickLog {
        let mut l = ClickLog::new();
        for _ in 0..2 {
            l.record_impressions("GamerQueen", 5);
        }
        l.record(click("GamerQueen", "inventory", "space", false));
        l.record(click("GamerQueen", "reviews", "space", false));
        l.record(click("GamerQueen", "ads", "space", true));
        l.record(click("GamerQueen", "inventory", "farm", false));
        l.record(click("Other", "inventory", "space", false));
        l
    }

    /// The log as it used to be — one stored record per impression and
    /// per click, aggregated by walking them — kept as the reference
    /// the counted log must agree with.
    #[derive(Default)]
    struct WalkedLog {
        /// `(app, what happened)`.
        events: Vec<(String, Walked)>,
    }

    enum Walked {
        Impression,
        /// `(source, query, is_ad)`.
        Click(String, String, bool),
    }

    impl WalkedLog {
        fn summarize(&self, app: &str) -> TrafficSummary {
            let mut s = TrafficSummary {
                app: app.to_string(),
                ..TrafficSummary::default()
            };
            let mut query_clicks: BTreeMap<String, u64> = BTreeMap::new();
            for (_, event) in self.events.iter().filter(|e| e.0 == app) {
                match event {
                    Walked::Impression => s.impressions += 1,
                    Walked::Click(source, query, is_ad) => {
                        s.clicks += 1;
                        s.ad_clicks += u64::from(*is_ad);
                        *s.clicks_by_source.entry(source.clone()).or_insert(0) += 1;
                        *query_clicks.entry(query.clone()).or_insert(0) += 1;
                    }
                }
            }
            s.top_queries = query_clicks.into_iter().collect();
            s.top_queries
                .sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            s.top_queries.truncate(10);
            s
        }
    }

    const APPS: [&str; 3] = ["GamerQueen", "WineCellar", "VideoHut"];

    proptest! {
        /// Random views (0–60 results) and clicks across three apps:
        /// the counted log reads exactly as the walked one.
        #[test]
        fn counted_equals_walked(
            ops in proptest::collection::vec(
                ((0usize..3, 0u64..60), (0usize..4, 0usize..5, any::<bool>())),
                0..120,
            ),
        ) {
            let (mut counted, mut walked) = (ClickLog::new(), WalkedLog::default());
            for ((app, shown), (source, query, is_click)) in ops {
                let app = APPS[app];
                if is_click {
                    let (source, query) = (format!("s{source}"), format!("q{query}"));
                    let is_ad = source == "s0";
                    counted.record(click(app, &source, &query, is_ad));
                    walked.events.push((app.to_string(), Walked::Click(source, query, is_ad)));
                } else {
                    counted.record_impressions(app, shown);
                    for _ in 0..shown {
                        walked.events.push((app.to_string(), Walked::Impression));
                    }
                }
            }
            for app in APPS.iter().chain(&["Nobody"]) {
                prop_assert_eq!(counted.summarize(app), walked.summarize(app));
            }
        }
    }

    #[test]
    fn views_without_clicks_store_nothing() {
        let mut l = ClickLog::new();
        for _ in 0..1000 {
            l.record_impressions("GamerQueen", 50);
        }
        assert!(l.events.is_empty());
        assert_eq!(l.summarize("GamerQueen").impressions, 50_000);
    }

    #[test]
    fn summary_counts_per_app() {
        let s = log().summarize("GamerQueen");
        assert_eq!(s.impressions, 10);
        assert_eq!(s.clicks, 4);
        assert_eq!(s.ad_clicks, 1);
        assert_eq!(s.clicks_by_source["inventory"], 2);
        assert_eq!(s.clicks_by_source["ads"], 1);
        assert!((s.ctr() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn top_queries_ordered() {
        let s = log().summarize("GamerQueen");
        assert_eq!(s.top_queries[0].0, "space");
        assert_eq!(s.top_queries[0].1, 3);
    }

    #[test]
    fn other_apps_isolated() {
        let s = log().summarize("Other");
        assert_eq!(s.clicks, 1);
        assert_eq!(s.impressions, 0);
    }

    #[test]
    fn empty_summary() {
        let s = ClickLog::new().summarize("X");
        assert_eq!(s.ctr(), 0.0);
        assert!(s.top_queries.is_empty());
        // Rates are defined (0.0, not NaN) with zero queries.
        assert_eq!(s.error_rate(), 0.0);
        assert_eq!(s.shed_rate(), 0.0);
    }

    #[test]
    fn shed_and_error_rates_are_disjoint_fractions() {
        let mut s = ClickLog::new().summarize("X");
        s.queries = 10;
        s.degraded_queries = 2;
        s.shed_queries = 3;
        assert!((s.error_rate() - 0.2).abs() < 1e-12);
        assert!((s.shed_rate() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn audit_csv_contains_clicks_only() {
        let csv = log().referral_audit_csv("GamerQueen");
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "at_ms,query,source,url,is_ad");
        assert_eq!(lines.len(), 1 + 4);
        assert!(lines[1].contains("space"));
        assert!(csv.contains("true"), "ad click flagged");
    }

    #[test]
    fn merge_sums_counters_and_reranks_top_queries() {
        let mut a = TrafficSummary {
            app: "GamerQueen".into(),
            impressions: 100,
            clicks: 10,
            clicks_by_source: [("inventory".to_string(), 6), ("web".to_string(), 4)]
                .into_iter()
                .collect(),
            top_queries: vec![("space".into(), 7), ("farm".into(), 3)],
            ad_clicks: 2,
            queries: 50,
            degraded_queries: 5,
            shed_queries: 10,
        };
        let b = TrafficSummary {
            app: "GamerQueen".into(),
            impressions: 300,
            clicks: 30,
            clicks_by_source: [("web".to_string(), 20), ("ads".to_string(), 10)]
                .into_iter()
                .collect(),
            top_queries: vec![("farm".into(), 25), ("space".into(), 5)],
            ad_clicks: 8,
            queries: 150,
            degraded_queries: 0,
            shed_queries: 0,
        };
        a.merge(&b);
        assert_eq!(a.impressions, 400);
        assert_eq!(a.clicks, 40);
        assert_eq!(a.ad_clicks, 10);
        assert_eq!(a.queries, 200);
        assert_eq!(a.degraded_queries, 5);
        assert_eq!(a.shed_queries, 10);
        assert_eq!(a.clicks_by_source["web"], 24);
        assert_eq!(a.clicks_by_source["inventory"], 6);
        assert_eq!(a.clicks_by_source["ads"], 10);
        // "farm" overtakes "space" once both shards are folded in.
        assert_eq!(
            a.top_queries,
            vec![("farm".to_string(), 28), ("space".to_string(), 12)]
        );
    }

    #[test]
    fn merged_rates_are_weighted_by_query_volume() {
        // Shard A: 10 queries, all shed. Shard B: 90 queries, none
        // shed. The folded shed rate must be 10%, not the 50% a naive
        // average of per-shard rates would give.
        let mut a = TrafficSummary {
            queries: 10,
            shed_queries: 10,
            degraded_queries: 0,
            ..Default::default()
        };
        let b = TrafficSummary {
            queries: 90,
            shed_queries: 0,
            degraded_queries: 9,
            ..Default::default()
        };
        assert_eq!(a.shed_rate(), 1.0);
        a.merge(&b);
        assert!((a.shed_rate() - 0.1).abs() < 1e-12);
        assert!((a.error_rate() - 0.09).abs() < 1e-12);
    }
}
