//! Supplemental-content recommendation (paper §IV future work):
//! *"recommending suitable supplemental content (e.g., good game
//! review sites) for a designer's primary content (e.g., game
//! inventory)"*.
//!
//! Two evidence streams, combinable:
//!
//! 1. **Content-driven** — for each entity in the primary table, run
//!    an unrestricted web search for `"<entity> review"`; domains that
//!    repeatedly rank well across entities are good restriction
//!    candidates.
//! 2. **Crowd-driven** — the Site Suggest co-click model over query
//!    logs (paper ref [2]) seeded with the domains the first stream
//!    surfaced.

use std::collections::BTreeMap;
use symphony_store::IndexedTable;
use symphony_web::{SearchConfig, SearchEngine, Vertical};

/// One recommended supplemental site.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteRecommendation {
    /// Domain to add to the restriction list.
    pub domain: String,
    /// Aggregate evidence score (higher = better).
    pub score: f64,
    /// How many distinct primary entities contributed evidence.
    pub supporting_entities: usize,
}

/// Recommend review/supplemental sites for the entities found in the
/// `title_column` of a primary table.
///
/// For each entity the top `probe_k` unrestricted web results for
/// `"<entity> review"` vote for their domains with a rank-discounted
/// weight; domains supported by at least `min_support` entities are
/// returned, best first.
pub fn recommend_sites(
    engine: &SearchEngine,
    primary: &IndexedTable,
    title_column: &str,
    probe_k: usize,
    min_support: usize,
) -> Vec<SiteRecommendation> {
    let Some(col) = primary.table().schema().col(title_column) else {
        return Vec::new();
    };
    let mut votes: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    let mut entities = 0usize;
    for (_, record) in primary.table().iter() {
        let title = record.get(col).display_string();
        if title.is_empty() {
            continue;
        }
        entities += 1;
        let results = engine.search(
            Vertical::Web,
            &format!("{title} review"),
            &SearchConfig::default(),
            probe_k,
        );
        let mut seen_this_entity: Vec<&str> = Vec::new();
        for (rank, r) in results.iter().enumerate() {
            let entry = votes.entry(r.domain.clone()).or_insert((0.0, 0));
            entry.0 += 1.0 / (rank + 1) as f64;
            if !seen_this_entity.contains(&r.domain.as_str()) {
                entry.1 += 1;
                seen_this_entity.push(&r.domain);
            }
        }
    }
    let _ = entities;
    let mut out: Vec<SiteRecommendation> = votes
        .into_iter()
        .filter(|(_, (_, support))| *support >= min_support)
        .map(
            |(domain, (score, supporting_entities))| SiteRecommendation {
                domain,
                score,
                supporting_entities,
            },
        )
        .collect();
    out.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.domain.cmp(&b.domain))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use symphony_store::ingest::{ingest, DataFormat};
    use symphony_web::{Corpus, CorpusConfig, Topic};

    fn world() -> (SearchEngine, IndexedTable) {
        let corpus = Corpus::generate(
            &CorpusConfig {
                sites_per_topic: 3,
                pages_per_site: 6,
                ..CorpusConfig::default()
            }
            .with_entities(
                Topic::Games,
                ["Galactic Raiders", "Farm Story", "Space Trader"],
            ),
        );
        let engine = SearchEngine::new(corpus);
        let (table, _) = ingest(
            "inventory",
            "title\nGalactic Raiders\nFarm Story\nSpace Trader\n",
            DataFormat::Csv,
        )
        .unwrap();
        (engine, IndexedTable::new(table))
    }

    #[test]
    fn recommends_the_authoritative_review_sites() {
        let (engine, inventory) = world();
        let recs = recommend_sites(&engine, &inventory, "title", 8, 2);
        assert!(!recs.is_empty());
        let top3: Vec<&str> = recs.iter().take(3).map(|r| r.domain.as_str()).collect();
        // The paper's hand-picked sites should dominate: they host a
        // review page per entity.
        assert!(
            top3.contains(&"gamespot.com")
                && top3.contains(&"ign.com")
                && top3.contains(&"teamxbox.com"),
            "top3 = {top3:?}"
        );
        // Supported by all three entities.
        assert!(recs[0].supporting_entities >= 3);
    }

    #[test]
    fn min_support_filters_one_off_domains() {
        let (engine, inventory) = world();
        let loose = recommend_sites(&engine, &inventory, "title", 8, 1);
        let strict = recommend_sites(&engine, &inventory, "title", 8, 3);
        assert!(strict.len() <= loose.len());
        assert!(strict.iter().all(|r| r.supporting_entities >= 3));
    }

    #[test]
    fn unknown_column_is_empty() {
        let (engine, inventory) = world();
        assert!(recommend_sites(&engine, &inventory, "nope", 8, 1).is_empty());
    }
}
