//! Work guard for the two-phase scatter's wire: bytes, not clocks.
//!
//! Every figure here is a count over a fixed corpus and query list, so
//! it repeats exactly on any host. The calls themselves — one `/search`
//! per shard, one `/fetch` per supplying shard, `min(k, hits)` pages
//! asked — are counted on the real scatter loop by the unit test in
//! `src/scatter.rs`; this file replays the same protocol frame by frame
//! through the public codec, checks that the replay assembles what
//! [`ClusterWeb::scatter`] returned, and weighs the frames.

use std::sync::Arc;

use symphony_cluster::wire::{fetch_request, search_request};
use symphony_cluster::{decode_fields, decode_pool, ClusterWeb, ShardSearchService};
use symphony_core::ScatterSearch;
use symphony_services::{Service, ServiceResponse};
use symphony_web::{
    Corpus, CorpusConfig, SearchConfig, SearchEngine, ShardPool, Topic, Vertical, WebResult,
};

const SHARDS: usize = 4;
const K: usize = 10;

/// Field bytes of the hydrated-pool frames the parent commit
/// (f3b8c52: seven to ten fields per entry, every entry hydrated)
/// shipped for [`QUERIES`] over [`corpus`] on four shards — summed over
/// the list, response frames only (346 entries, ≈ 333 B each). The
/// lean frames of both phases come to 43 014 B: 30 763 for the same 346
/// entries at four fields each, 12 251 for the 49 pages fetched.
const HYDRATED_POOL_BYTES: usize = 115_372;

const QUERIES: [&str; 8] = [
    "game review",
    "Galactic Raiders",
    "+space farm",
    "\"Farm Story\"",
    "player -boss",
    "news trailer",
    "level multiplayer graphics",
    "zyxwvut",
];

fn corpus() -> Corpus {
    Corpus::generate(
        &CorpusConfig {
            sites_per_topic: 4,
            pages_per_site: 12,
            ..CorpusConfig::default()
        }
        .with_entities(Topic::Games, ["Galactic Raiders", "Farm Story"]),
    )
}

/// Key and value bytes of every field of a frame (the ledger's
/// `cluster.pool_bytes_per_query` counts the same way).
fn field_bytes(frame: &ServiceResponse) -> usize {
    frame
        .records
        .iter()
        .flatten()
        .map(|(k, v)| k.len() + v.len())
        .sum()
}

#[test]
fn both_phases_ship_under_half_the_hydrated_pool_bytes() {
    let corpus = corpus();
    let fleet: Vec<Arc<SearchEngine>> = SearchEngine::build_cluster(&corpus, SHARDS, 1)
        .into_iter()
        .map(Arc::new)
        .collect();
    let nodes: Vec<ShardSearchService> = fleet
        .iter()
        .map(|e| ShardSearchService::new(e.clone()))
        .collect();
    let cluster = ClusterWeb::new(fleet, 7);
    let config = SearchConfig::default();
    let (mut query_bytes, mut fetch_bytes, mut pool_entries, mut pages_asked) = (0, 0, 0, 0);
    for query in QUERIES {
        // Query phase: one lean pool frame per shard.
        let request = search_request(Vertical::Web, query, &config, K);
        let pools: Vec<ShardPool> = nodes
            .iter()
            .map(|node| {
                let frame = node.handle(&request).expect("a healthy node answers");
                query_bytes += field_bytes(&frame);
                decode_pool(&frame).expect("a well-formed pool")
            })
            .collect();
        pool_entries += pools.iter().map(|p| p.entries.len()).sum::<usize>();
        let owner = |page: usize| {
            pools
                .iter()
                .position(|p| p.entries.iter().any(|e| e.page == page))
                .expect("every winner came out of a pool")
        };
        let winners = SearchEngine::merge_pools(pools.clone(), K);
        // Fetch phase: one frame per shard that supplied a winner.
        let mut replayed: Vec<Option<WebResult>> = vec![None; winners.len()];
        for (shard, node) in nodes.iter().enumerate() {
            let mine: Vec<usize> = (0..winners.len())
                .filter(|&pos| owner(winners[pos].page) == shard)
                .collect();
            if mine.is_empty() {
                continue;
            }
            let pages: Vec<usize> = mine.iter().map(|&pos| winners[pos].page).collect();
            pages_asked += pages.len();
            let request = fetch_request(Vertical::Web, query, &config, &pages);
            let frame = node.handle(&request).expect("a healthy node answers");
            fetch_bytes += field_bytes(&frame);
            let fields = decode_fields(&frame).expect("well-formed fields");
            assert_eq!(fields.len(), pages.len());
            for (&pos, f) in mine.iter().zip(fields) {
                let w = &winners[pos];
                replayed[pos] = Some(f.into_result(w.url.clone(), w.score));
            }
        }
        // The frames weighed are the ones the cluster exchanged: they
        // assemble into exactly what the real scatter returned.
        let out = cluster.scatter(Vertical::Web, query, &config, K, 0);
        let replayed: Vec<WebResult> = replayed.into_iter().flatten().collect();
        assert_eq!(out.results, replayed, "{query:?}");
    }
    assert!(pool_entries > 4 * pages_asked, "the pools dwarf the page");
    let shipped = query_bytes + fetch_bytes;
    assert!(
        2 * shipped <= HYDRATED_POOL_BYTES,
        "lean frames ship {shipped} B ({query_bytes} query + {fetch_bytes} fetch) for \
         {pool_entries} pool entries and {pages_asked} fetched pages; the hydrated pools \
         shipped {HYDRATED_POOL_BYTES} B"
    );
}
