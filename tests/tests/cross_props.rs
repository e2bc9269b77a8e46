//! Cross-crate property tests: invariants that span ingest, indexing,
//! the runtime, and rendering.

use proptest::prelude::*;
use symphony_core::app::AppBuilder;
use symphony_core::hosting::Platform;
use symphony_core::source::DataSourceDef;
use symphony_designer::{Canvas, Element};
use symphony_store::ingest::{ingest, DataFormat};
use symphony_store::IndexedTable;
use symphony_text::analysis::analyze;
use symphony_web::{Corpus, CorpusConfig, SearchEngine};

/// CSV-safe title strings.
fn title() -> impl Strategy<Value = String> {
    "[a-z]{2,8}( [a-z]{2,8}){0,2}"
}

fn build_app(titles: &[String]) -> (Platform, symphony_core::AppId) {
    let corpus = Corpus::generate(&CorpusConfig {
        sites_per_topic: 1,
        pages_per_site: 2,
        ..CorpusConfig::default()
    });
    let mut platform = Platform::new(SearchEngine::new(corpus));
    let (tenant, key) = platform.create_tenant("T");
    let mut csv = String::from("title\n");
    for t in titles {
        csv.push_str(t);
        csv.push('\n');
    }
    let (table, _) = ingest("inv", &csv, DataFormat::Csv).unwrap();
    let mut indexed = IndexedTable::new(table);
    indexed.enable_fulltext(&[("title", 1.0)]).unwrap();
    platform.upload_table(tenant, &key, indexed).unwrap();
    let mut canvas = Canvas::new();
    let root = canvas.root_id();
    canvas
        .insert(
            root,
            Element::result_list("inv", Element::text("{title}"), 50),
        )
        .unwrap();
    let config = AppBuilder::new("T", tenant)
        .layout(canvas)
        .source(
            "inv",
            DataSourceDef::Proprietary {
                table: "inv".into(),
            },
        )
        .build()
        .unwrap();
    let id = platform.register_app(config).unwrap();
    platform.publish(id).unwrap();
    (platform, id)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any title ingested through the full pipeline is findable by
    /// querying one of its words, and the produced HTML is well-formed
    /// enough to contain the escaped title.
    #[test]
    fn ingested_titles_are_queryable_end_to_end(
        titles in proptest::collection::vec(title(), 1..6),
    ) {
        // A stop word ("on", "the") is dropped from queries and
        // documents alike, so it finds nothing by design: probe with the
        // title's first word the analyzer keeps.
        let Some(probe) = titles[0].split(' ').find(|w| !analyze(w).is_empty()) else {
            return;
        };
        let probe = probe.to_string();
        let (platform, id) = build_app(&titles);
        let resp = platform.query(id, &probe).unwrap();
        prop_assert!(
            resp.impressions
                .iter()
                .any(|i| i.title.contains(&probe)
                    || i.title.split(' ').any(|w| w.starts_with(probe.as_str()))
                    || titles.contains(&i.title)),
            "query {probe:?} found nothing among {titles:?}"
        );
        // Every impression's title must appear in the HTML (escaped
        // rendering of the same data).
        for imp in &resp.impressions {
            prop_assert!(resp.html.contains(&imp.title));
        }
    }

    /// Cache key normalization: whitespace/case variants of a query
    /// always produce byte-identical HTML.
    #[test]
    fn cache_normalization_is_consistent(
        t in title(),
        spaces in 1usize..4,
    ) {
        let (platform, id) = build_app(std::slice::from_ref(&t));
        let word = t.split(' ').next().unwrap();
        let a = platform.query(id, word).unwrap();
        let variant = format!("{}{}", " ".repeat(spaces), word.to_uppercase());
        let b = platform.query(id, &variant).unwrap();
        prop_assert_eq!(a.html, b.html);
        prop_assert!(b.trace.cache_hit);
    }

    /// The virtual clock is monotone across arbitrary query sequences.
    #[test]
    fn clock_monotone(queries in proptest::collection::vec(title(), 1..8)) {
        let (platform, id) = build_app(&["alpha beta".to_string()]);
        let mut last = platform.clock_ms();
        for q in queries {
            let _ = platform.query(id, &q);
            prop_assert!(platform.clock_ms() >= last);
            last = platform.clock_ms();
        }
    }
}
