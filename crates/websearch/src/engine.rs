//! The simulated general web search engine ("Bing" in the paper).
//!
//! Four verticals (web / image / video / news) over the synthetic
//! corpus, each a `symphony-text` index blended with static rank.
//! The customization hooks Symphony exposes to designers — site
//! restriction, query augmentation, preferred-site boosts, result
//! count — are all per-request [`SearchConfig`] options, mirroring the
//! Google-Custom-Search-style knobs described in the paper's
//! introduction.

use crate::corpus::{Corpus, Page, PageKind};
use crate::logs::LogEntry;
use crate::pagerank::static_rank;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use symphony_text::query::{Clause, ClauseKind, Occur};
use symphony_text::snippet::SnippetGenerator;
use symphony_text::spell::SpellSuggester;
use symphony_text::{
    Doc, DocId, DocSet, FieldId, GlobalScoreStats, Index, IndexConfig, MaintenanceReport, Query,
    Searcher,
};

/// Search verticals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vertical {
    /// Web pages (articles + reviews).
    Web,
    /// Image objects.
    Image,
    /// Video objects.
    Video,
    /// Dated news articles.
    News,
}

impl Vertical {
    /// The vertical a page belongs to, by its object kind.
    pub fn of_kind(kind: &PageKind) -> Vertical {
        match kind {
            PageKind::Article | PageKind::Review { .. } => Vertical::Web,
            PageKind::Image { .. } => Vertical::Image,
            PageKind::Video { .. } => Vertical::Video,
            PageKind::News { .. } => Vertical::News,
        }
    }

    /// All verticals.
    pub const ALL: [Vertical; 4] = [
        Vertical::Web,
        Vertical::Image,
        Vertical::Video,
        Vertical::News,
    ];

    /// Lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Vertical::Web => "web",
            Vertical::Image => "image",
            Vertical::Video => "video",
            Vertical::News => "news",
        }
    }
}

/// Per-request customization (paper: "Most services support additional
/// configuration, such as site restriction").
#[derive(Debug, Clone, Default)]
pub struct SearchConfig {
    /// Only results from these domains (empty = unrestricted). A
    /// domain matches itself and its subdomains.
    pub site_restrict: Vec<String>,
    /// Terms appended to every query (custom-search-style query
    /// augmentation).
    pub augment_terms: Vec<String>,
    /// Domains whose results get a preference boost (custom-search
    /// style reordering).
    pub prefer_sites: Vec<String>,
}

impl SearchConfig {
    /// Restrict to the given domains.
    pub fn restrict_to<I, S>(mut self, domains: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.site_restrict = domains.into_iter().map(Into::into).collect();
        self
    }

    /// Append augmentation terms.
    pub fn augment<I, S>(mut self, terms: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.augment_terms = terms.into_iter().map(Into::into).collect();
        self
    }

    /// Prefer the given domains.
    pub fn prefer<I, S>(mut self, domains: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.prefer_sites = domains.into_iter().map(Into::into).collect();
        self
    }
}

/// One search result.
#[derive(Debug, Clone, PartialEq)]
pub struct WebResult {
    /// Result URL.
    pub url: String,
    /// Title.
    pub title: String,
    /// Highlighted snippet.
    pub snippet: String,
    /// Site domain.
    pub domain: String,
    /// Final blended score.
    pub score: f32,
    /// Image source URL (image vertical only).
    pub image_src: Option<String>,
    /// Video duration (video vertical only).
    pub duration_s: Option<u32>,
    /// Publication date, epoch seconds (news vertical only).
    pub date: Option<i64>,
}

/// One candidate in a shard's scatter-gather pool, lean: exactly what
/// the gather side's two sort orders read. The raw BM25 relevance
/// score (comparable across shards once corpus-wide statistics are
/// folded) and the global page index (the canonical tie-break, equal
/// to single-index doc order under strided partitioning) drive the
/// rank-safe merge; the blended score and the url drive the final page
/// order. Title, snippet, domain and media fields are fetched
/// afterwards, for the winners only
/// ([`SearchEngine::hydrate_pages`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PoolEntry {
    /// Global corpus page index.
    pub page: usize,
    /// Raw BM25 score from the vertical index, before blending.
    pub raw: f32,
    /// Final blended score.
    pub score: f32,
    /// Result URL (the final order's tie-break).
    pub url: String,
}

/// What hydration adds to a ranked `(url, score)` pair: the fields a
/// page shows but no sort order reads.
#[derive(Debug, Clone, PartialEq)]
pub struct PageFields {
    /// Title.
    pub title: String,
    /// Highlighted snippet.
    pub snippet: String,
    /// Site domain.
    pub domain: String,
    /// Image source URL (image vertical only).
    pub image_src: Option<String>,
    /// Video duration (video vertical only).
    pub duration_s: Option<u32>,
    /// Publication date, epoch seconds (news vertical only).
    pub date: Option<i64>,
}

impl PageFields {
    /// The finished result for the page these fields were hydrated
    /// from, given the two keys it was ranked by.
    pub fn into_result(self, url: String, score: f32) -> WebResult {
        WebResult {
            url,
            title: self.title,
            snippet: self.snippet,
            domain: self.domain,
            score,
            image_src: self.image_src,
            duration_s: self.duration_s,
            date: self.date,
        }
    }
}

/// One shard's candidate pool for a query, ordered (raw desc, page
/// asc), plus the shard searcher's final MaxScore threshold: every
/// document the shard did *not* return scores at or below `bound`,
/// which the gather side uses as a merge bound to certify that
/// truncating the merged pool is rank-safe.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPool {
    /// Pool entries, best first.
    pub entries: Vec<PoolEntry>,
    /// MaxScore threshold exported by the shard's searcher
    /// (`NEG_INFINITY` when the pool came back short — the shard is
    /// exhausted and withholds nothing).
    pub bound: f32,
}

impl Default for ShardPool {
    fn default() -> Self {
        ShardPool {
            entries: Vec::new(),
            bound: f32::NEG_INFINITY,
        }
    }
}

/// A blended candidate before hydration: global page index, raw BM25
/// score, final blended score.
struct Candidate {
    page: usize,
    raw: f32,
    score: f32,
}

/// What [`SearchEngine::candidates`] hands to `search` / `search_pool`.
struct CandidateStage {
    /// The parsed, augmented query (hydration highlights its words).
    query: Query,
    /// Candidates in (raw desc, page asc) order.
    pool: Vec<Candidate>,
    /// The relevance searcher's merge bound (see [`ShardPool::bound`]).
    bound: f32,
}

/// The query a request really runs: `raw_query` parsed, with the
/// config's augmentation terms appended as optional clauses. The
/// candidate stage ranks by it and hydration highlights its words, so
/// both phases of a scatter derive it the same way.
fn augmented_query(raw_query: &str, config: &SearchConfig) -> Query {
    let mut query = Query::parse(raw_query);
    for t in &config.augment_terms {
        query.clauses.push(Clause {
            occur: Occur::Should,
            kind: ClauseKind::Term(t.clone()),
            field: None,
        });
    }
    query
}

struct VerticalIndex {
    index: Index,
    /// Doc id -> page index.
    pages: Vec<usize>,
    /// Page index -> live doc id (reverse of `pages`, minus tombstones).
    doc_by_page: HashMap<usize, DocId>,
    /// Site index -> ascending ids of every document indexed for a page
    /// of that site: what a site restriction resolves through. Doc ids
    /// are append-only, so the lists only ever grow at the tail; ids of
    /// removed or superseded documents stay listed — they are
    /// tombstoned, and the executor skips tombstones.
    docs_by_site: Vec<Vec<u32>>,
}

impl VerticalIndex {
    /// Index a page of site `site` incrementally; a page already
    /// present (re-crawl) is refreshed via [`Index::update`] —
    /// tombstone plus re-add — so the vertical never rebuilds.
    fn add_page(&mut self, page_idx: usize, site: usize, doc: Doc<'_>) {
        let id = match self.doc_by_page.get(&page_idx) {
            Some(&old) => self
                .index
                .update(old, doc)
                .expect("doc_by_page only maps live doc ids"),
            None => self.index.add(doc),
        };
        debug_assert_eq!(id.as_usize(), self.pages.len());
        self.pages.push(page_idx);
        self.doc_by_page.insert(page_idx, id);
        self.docs_by_site[site].push(id.0);
    }

    /// Tombstone a page's document (no-op when absent).
    fn remove_page(&mut self, page_idx: usize) -> bool {
        match self.doc_by_page.remove(&page_idx) {
            Some(doc) => self.index.delete(doc),
            None => false,
        }
    }
}

/// The search engine over one corpus.
pub struct SearchEngine {
    /// Shared by every shard of a cluster; a live ingest copies it on
    /// write when shared (a single node's is unique, so it never does).
    corpus: Arc<Corpus>,
    rank: Vec<f64>,
    /// `rank.iter().sum()`, kept as pages are pushed so a new page's
    /// provisional rank (the corpus mean) costs O(1): adding each
    /// pushed value in turn is the same left fold `Sum` performs, so
    /// the mean is bit-identical to a from-scratch one.
    rank_sum: f64,
    web: VerticalIndex,
    image: VerticalIndex,
    video: VerticalIndex,
    news: VerticalIndex,
    /// Query-conditioned score multipliers learned from community
    /// click logs (paper §IV: application usage data "may eventually
    /// provide topic- or community-specific relevance signals to the
    /// general search engine"). Keyed by normalized query, then URL, so
    /// a URL popular for one query never distorts another — and so one
    /// query's boosts can be looked up per hit by borrowed URL without
    /// building an owned `(query, url)` key.
    click_boosts: HashMap<String, HashMap<String, f32>>,
    /// The web lexicon's spell suggester, built on the first
    /// [`SearchEngine::did_you_mean`] and dropped by `maintain`
    /// whenever the web vertical changes, so neither construction nor
    /// the write path pays for a snapshot no query asked for.
    speller: OnceLock<SpellSuggester>,
    /// Corpus-wide scoring statistics, one per vertical, set when this
    /// engine is a document-partitioned shard of a larger corpus (see
    /// [`SearchEngine::build_cluster`]). Shard searches then score
    /// with union df / live-doc / average-length values and stay
    /// bit-identical to a single-index build.
    global: Option<Arc<[GlobalScoreStats; 4]>>,
}

impl std::fmt::Debug for SearchEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchEngine")
            .field("pages", &self.corpus.pages.len())
            .field("web_docs", &self.web.pages.len())
            .finish_non_exhaustive()
    }
}

/// Field ids shared by every vertical index; `build_vertical` registers
/// title first and body second, so the ids are fixed and the routing
/// pass can construct documents before any index exists.
const TITLE_FIELD: FieldId = FieldId(0);
const BODY_FIELD: FieldId = FieldId(1);

/// One vertical's slice of the corpus: the documents to index (borrowing
/// their text from the corpus) plus the doc-id -> page-index mapping,
/// produced by [`route_pages`].
#[derive(Default)]
struct VerticalDocs<'a> {
    docs: Vec<Doc<'a>>,
    pages: Vec<usize>,
}

/// Single pass over the corpus routing each page `keep` accepts to its
/// vertical (replacing four full-corpus filter passes). A shard passes
/// its stride so only its own pages are ever projected into documents.
fn route_pages(corpus: &Corpus, keep: impl Fn(usize) -> bool) -> [VerticalDocs<'_>; 4] {
    let mut routed: [VerticalDocs<'_>; 4] = Default::default();
    for (i, page) in corpus.pages.iter().enumerate() {
        if !keep(i) {
            continue;
        }
        let v = Vertical::of_kind(&page.kind) as usize;
        routed[v].docs.push(page_doc(page));
        routed[v].pages.push(i);
    }
    routed
}

/// Project a page into an index document that borrows the page's
/// title and body (shared by bulk build and live ingest, so both paths
/// index identically; the corpus holds the only copy of the text).
fn page_doc(page: &Page) -> Doc<'_> {
    Doc::new()
        .field(TITLE_FIELD, &*page.title)
        .field(BODY_FIELD, &*page.body)
}

fn build_vertical(corpus: &Corpus, docs: VerticalDocs<'_>, threads: usize) -> VerticalIndex {
    let mut index = Index::new(IndexConfig::default());
    let title = index.register_field("title", 2.0);
    let body = index.register_field("body", 1.0);
    debug_assert_eq!((title, body), (TITLE_FIELD, BODY_FIELD));
    let ids = index.build_parallel(docs.docs, threads);
    index.optimize();
    let mut docs_by_site = vec![Vec::new(); corpus.sites.len()];
    let mut doc_by_page = HashMap::with_capacity(docs.pages.len());
    for (&page, id) in docs.pages.iter().zip(ids) {
        doc_by_page.insert(page, id);
        docs_by_site[corpus.pages[page].site].push(id.0);
    }
    VerticalIndex {
        index,
        pages: docs.pages,
        doc_by_page,
        docs_by_site,
    }
}

impl SearchEngine {
    /// Index a corpus (builds all four verticals and the static rank),
    /// using up to [`symphony_text::default_build_threads`] workers.
    pub fn new(corpus: Corpus) -> SearchEngine {
        Self::with_build_threads(corpus, symphony_text::default_build_threads())
    }

    /// Index a corpus with an explicit build-parallelism budget.
    ///
    /// With `threads <= 1` everything runs sequentially on the calling
    /// thread (the cold-start baseline). Otherwise the four verticals
    /// build concurrently on scoped threads — each splitting its
    /// documents across segment builders — while the static-rank power
    /// iteration runs on the calling thread. The resulting indexes
    /// are bit-identical to a sequential build (see
    /// `Index::build_parallel`).
    pub fn with_build_threads(corpus: Corpus, threads: usize) -> SearchEngine {
        let [web_d, image_d, video_d, news_d] = route_pages(&corpus, |_| true);
        let (rank, web, image, video, news) = if threads <= 1 {
            let rank = static_rank(&corpus, 30);
            let web = build_vertical(&corpus, web_d, 1);
            let image = build_vertical(&corpus, image_d, 1);
            let video = build_vertical(&corpus, video_d, 1);
            let news = build_vertical(&corpus, news_d, 1);
            (rank, web, image, video, news)
        } else {
            // Two layers of parallelism: one scoped thread per vertical,
            // each splitting its docs across `inner` segment builders.
            let inner = (threads / 2).max(1);
            let corpus = &corpus;
            std::thread::scope(|s| {
                let web_h = s.spawn(move || build_vertical(corpus, web_d, inner));
                let image_h = s.spawn(move || build_vertical(corpus, image_d, inner));
                let video_h = s.spawn(move || build_vertical(corpus, video_d, inner));
                let news_h = s.spawn(move || build_vertical(corpus, news_d, inner));
                // Static rank overlaps with the vertical builds.
                let rank = static_rank(corpus, 30);
                let web = web_h.join().expect("web vertical build panicked");
                let image = image_h.join().expect("image vertical build panicked");
                let video = video_h.join().expect("video vertical build panicked");
                let news = news_h.join().expect("news vertical build panicked");
                (rank, web, image, video, news)
            })
        };
        SearchEngine {
            corpus: Arc::new(corpus),
            rank_sum: rank.iter().sum(),
            rank,
            web,
            image,
            video,
            news,
            click_boosts: HashMap::new(),
            speller: OnceLock::new(),
            global: None,
        }
    }

    /// Build `num_shards` document-partitioned engines over one
    /// corpus: shard `s` indexes the pages with `page_idx % num_shards
    /// == s` (strided, so every shard's vertical doc order follows the
    /// global page order), while every shard sees the full page table
    /// (one copy, shared by all shards until a shard ingests) and the
    /// full static rank. After the per-shard builds, scoring
    /// statistics are folded across shards per vertical and attached
    /// to each engine, so shard-local searches score exactly as one
    /// index over the whole corpus would — the foundation of the
    /// rank-safe scatter-gather merge ([`SearchEngine::merge_pools`]).
    pub fn build_cluster(corpus: &Corpus, num_shards: usize, threads: usize) -> Vec<SearchEngine> {
        assert!(num_shards > 0, "cluster needs at least one shard");
        let rank = static_rank(corpus, 30);
        let rank_sum = rank.iter().sum();
        let shared = Arc::new(corpus.clone());
        let mut shards: Vec<SearchEngine> = (0..num_shards)
            .map(|s| {
                let [web_d, image_d, video_d, news_d] =
                    route_pages(corpus, |p| p % num_shards == s);
                let web = build_vertical(corpus, web_d, threads);
                let image = build_vertical(corpus, image_d, threads);
                let video = build_vertical(corpus, video_d, threads);
                let news = build_vertical(corpus, news_d, threads);
                SearchEngine {
                    corpus: Arc::clone(&shared),
                    rank: rank.clone(),
                    rank_sum,
                    web,
                    image,
                    video,
                    news,
                    click_boosts: HashMap::new(),
                    speller: OnceLock::new(),
                    global: None,
                }
            })
            .collect();
        let global = Arc::new([
            GlobalScoreStats::fold(shards.iter().map(|e| &e.web.index)),
            GlobalScoreStats::fold(shards.iter().map(|e| &e.image.index)),
            GlobalScoreStats::fold(shards.iter().map(|e| &e.video.index)),
            GlobalScoreStats::fold(shards.iter().map(|e| &e.news.index)),
        ]);
        for e in &mut shards {
            e.global = Some(Arc::clone(&global));
        }
        shards
    }

    /// "Did you mean": a corrected query when tokens look misspelled
    /// relative to the web vertical's lexicon, else `None`. The first
    /// call after construction or a web seal or merge snapshots the
    /// lexicon.
    pub fn did_you_mean(&self, raw_query: &str) -> Option<String> {
        self.speller
            .get_or_init(|| SpellSuggester::from_index(&self.web.index))
            .did_you_mean(raw_query)
    }

    /// Learn query-conditioned relevance boosts from community click
    /// logs (the paper's §IV feedback loop). Within each normalized
    /// query, a URL clicked `c` times gets a multiplier
    /// `1 + strength * ln(1 + c) / ln(1 + max_c)`, so that query's
    /// most-clicked URL gains exactly `1 + strength` and others scale
    /// logarithmically below it. Calling this again replaces the
    /// previous signal.
    pub fn apply_click_feedback(&mut self, logs: &[LogEntry], strength: f32) {
        self.click_boosts.clear();
        if strength <= 0.0 {
            return;
        }
        // (query, url) -> clicks, plus per-query maxima.
        let mut counts: HashMap<(String, String), u32> = HashMap::new();
        for l in logs {
            *counts
                .entry((normalize_query(&l.query), l.url.clone()))
                .or_insert(0) += 1;
        }
        let mut max_per_query: HashMap<String, u32> = HashMap::new();
        for ((q, _), c) in &counts {
            let m = max_per_query.entry(q.clone()).or_insert(0);
            *m = (*m).max(*c);
        }
        for ((q, url), c) in counts {
            let max = max_per_query[&q];
            let denom = (1.0 + max as f32).ln();
            let boost = 1.0 + strength * (1.0 + c as f32).ln() / denom;
            self.click_boosts.entry(q).or_default().insert(url, boost);
        }
    }

    /// Number of `(query, url)` pairs carrying a click-feedback boost.
    pub fn click_boosted_urls(&self) -> usize {
        self.click_boosts.values().map(|urls| urls.len()).sum()
    }

    /// The corpus behind the engine.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    fn vertical(&self, v: Vertical) -> &VerticalIndex {
        match v {
            Vertical::Web => &self.web,
            Vertical::Image => &self.image,
            Vertical::Video => &self.video,
            Vertical::News => &self.news,
        }
    }

    fn vertical_mut(&mut self, v: Vertical) -> &mut VerticalIndex {
        match v {
            Vertical::Web => &mut self.web,
            Vertical::Image => &mut self.image,
            Vertical::Video => &mut self.video,
            Vertical::News => &mut self.news,
        }
    }

    /// Ingest a crawled page without rebuilding any vertical: a new URL
    /// is appended to the corpus and indexed into its vertical's
    /// memtable; a known URL is replaced in place (tombstone + re-add,
    /// switching verticals when its object kind changed). Returns the
    /// vertical that now serves the page.
    ///
    /// New pages receive the corpus-mean static rank as a provisional
    /// score. No serving path re-runs the link analysis that would fold
    /// them into the link graph (only the tests' `recompute_static_rank`
    /// does).
    pub fn ingest_page(&mut self, page: Page) -> Vertical {
        let vertical = Vertical::of_kind(&page.kind);
        match self.corpus.page_index_by_url(&page.url) {
            Some(idx) => {
                let old = Vertical::of_kind(&self.corpus.pages[idx].kind);
                if old != vertical {
                    self.vertical_mut(old).remove_page(idx);
                }
                Arc::make_mut(&mut self.corpus).pages[idx] = page;
                self.index_page(vertical, idx);
            }
            None => {
                let idx = Arc::make_mut(&mut self.corpus).push_page(page);
                let mean = match self.rank.len() {
                    0 => 0.0,
                    n => self.rank_sum / n as f64,
                };
                self.rank.push(mean);
                self.rank_sum += mean;
                self.index_page(vertical, idx);
            }
        }
        vertical
    }

    /// Index corpus page `idx` into vertical `v`, borrowing its text
    /// from the corpus. The document borrows through a second handle on
    /// the corpus, so the vertical can be borrowed mutably meanwhile.
    fn index_page(&mut self, v: Vertical, idx: usize) {
        let corpus = Arc::clone(&self.corpus);
        let page = &corpus.pages[idx];
        self.vertical_mut(v)
            .add_page(idx, page.site, page_doc(page));
    }

    /// Drop a URL from search (tombstone; the posting data is purged by
    /// a later merge). Returns `false` for unknown or already-removed
    /// URLs. The corpus keeps the page record so existing page indexes
    /// stay stable.
    pub fn remove_page(&mut self, url: &str) -> bool {
        let Some(idx) = self.corpus.page_index_by_url(url) else {
            return false;
        };
        let v = Vertical::of_kind(&self.corpus.pages[idx].kind);
        self.vertical_mut(v).remove_page(idx)
    }

    /// One maintenance tick over all four verticals: each seals its
    /// memtable when over the policy's size cap or staleness window and
    /// runs at most one background merge. When the web vertical did
    /// anything, the spell suggester is dropped, so the next
    /// [`did_you_mean`](Self::did_you_mean) re-snapshots the live
    /// lexicon (freshly sealed terms become suggestible, purged terms
    /// stop suggesting). Deterministic for a fixed
    /// schedule of calls; hosting drives it on the virtual clock.
    pub fn maintain(&mut self, now_ms: u64) -> MaintenanceReport {
        let mut total = MaintenanceReport::default();
        for v in Vertical::ALL {
            let r = self.vertical_mut(v).index.maintain(now_ms);
            total.sealed |= r.sealed;
            total.merged_segments += r.merged_segments;
            total.purged_docs += r.purged_docs;
            if v == Vertical::Web && r.did_work() {
                self.speller = OnceLock::new();
            }
        }
        total
    }

    /// Apply a segment-lifecycle policy to every vertical index.
    #[cfg(test)]
    pub(crate) fn set_segment_policy(&mut self, policy: symphony_text::SegmentPolicy) {
        for v in Vertical::ALL {
            self.vertical_mut(v).index.set_policy(policy);
        }
    }

    /// Re-run the static-rank power iteration over the current corpus,
    /// replacing the provisional ranks that live-ingested pages carry.
    #[cfg(test)]
    pub(crate) fn recompute_static_rank(&mut self) {
        self.rank = static_rank(&self.corpus, 30);
        self.rank_sum = self.rank.iter().sum();
    }

    /// Search a vertical. `raw_query` uses the
    /// [`symphony_text::Query`] syntax; `config` applies the
    /// customization hooks; at most `k` results return, best first.
    ///
    /// Ranks the lean candidate pool by (score desc, url asc) and
    /// hydrates — url, title, snippet, media fields — only the `k`
    /// winners the page shows. The result equals the one-shard
    /// two-phase scatter — `merge_pools(vec![search_pool(..)], k)`,
    /// then [`hydrate_pages`](Self::hydrate_pages) over the winners —
    /// bit for bit; a property test holds the two together.
    pub fn search(
        &self,
        vertical: Vertical,
        raw_query: &str,
        config: &SearchConfig,
        k: usize,
    ) -> Vec<WebResult> {
        let Some(mut stage) = self.candidates(vertical, raw_query, config, k) else {
            return Vec::new();
        };
        let url = |c: &Candidate| self.corpus.pages[c.page].url.as_str();
        stage
            .pool
            .sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| url(a).cmp(url(b))));
        stage.pool.truncate(k);
        // One snippet generator for the whole result page: construction
        // analyzes the query terms, which is identical for every hit.
        let snippeter = SnippetGenerator::new(&stage.query.positive_words());
        stage
            .pool
            .iter()
            .map(|c| self.hydrate(&snippeter, c))
            .collect()
    }

    /// Depth of the relevance candidate pool for a final page of `k`
    /// results. Over-fetch: static-rank blending can reorder beyond
    /// position k, so rescoring pulls a deeper pool.
    fn pool_depth(k: usize) -> usize {
        (k * 4).max(32)
    }

    /// Produce this engine's candidate pool for one query: the top
    /// [`pool_depth`](Self::pool_depth) relevance hits, rescored with
    /// static rank / click / preference / recency blending, each
    /// carrying its raw BM25 score and global page index, plus the
    /// relevance searcher's MaxScore threshold as the shard's merge
    /// bound. On a shard built by [`SearchEngine::build_cluster`] the
    /// raw scores are computed under folded corpus-wide statistics, so
    /// pools from different shards are directly comparable — merging
    /// them reproduces the single-index pool exactly.
    ///
    /// This is the candidate stage as it stands — no snippeter, no
    /// hydration: the gather side picks the winners from the lean
    /// entries and asks for the fields of those alone.
    pub fn search_pool(
        &self,
        vertical: Vertical,
        raw_query: &str,
        config: &SearchConfig,
        k: usize,
    ) -> ShardPool {
        let Some(stage) = self.candidates(vertical, raw_query, config, k) else {
            return ShardPool::default();
        };
        let entries = stage
            .pool
            .iter()
            .map(|c| PoolEntry {
                page: c.page,
                raw: c.raw,
                score: c.score,
                url: self.corpus.pages[c.page].url.clone(),
            })
            .collect();
        ShardPool {
            entries,
            bound: stage.bound,
        }
    }

    /// The candidate stage shared by [`search`](Self::search) and
    /// [`search_pool`](Self::search_pool): parse + augment, resolve the
    /// site restriction into a [`DocSet`], run the relevance executor,
    /// and blend static rank / click / preference / recency into lean
    /// `(page, raw, score)` triples in canonical (raw desc, page asc)
    /// order. `None` when the query is empty or `k` is 0.
    fn candidates(
        &self,
        vertical: Vertical,
        raw_query: &str,
        config: &SearchConfig,
        k: usize,
    ) -> Option<CandidateStage> {
        let query = augmented_query(raw_query, config);
        if query.is_empty() || k == 0 {
            return None;
        }
        let vi = self.vertical(vertical);
        let depth = Self::pool_depth(k);
        let mut searcher = Searcher::new(&vi.index);
        if let Some(global) = &self.global {
            searcher = searcher.with_global_stats(&global[vertical as usize]);
        }
        let hits = if config.site_restrict.is_empty() {
            searcher.search(&query, depth)
        } else {
            let allowed = self.restricted_docs(vi, &config.site_restrict);
            searcher.search_docset(&query, depth, &allowed)
        };
        // The merge bound as `search_filtered_with_threshold` computes
        // it: the worst score kept when the pool is full.
        let bound = hits.get(depth - 1).map_or(f32::NEG_INFINITY, |h| h.score);

        // Resolve this query's boost table once; per-hit lookups then
        // borrow the URL instead of building an owned key.
        let per_query_boosts = if self.click_boosts.is_empty() {
            None
        } else {
            self.click_boosts.get(&normalize_query(raw_query))
        };
        let pool: Vec<Candidate> = hits
            .into_iter()
            .map(|h| {
                let page_idx = vi.pages[h.doc.as_usize()];
                let page = &self.corpus.pages[page_idx];
                let mut score = h.score * (0.4 + 1.6 * self.rank[page_idx] as f32);
                if let Some(boost) = per_query_boosts.and_then(|b| b.get(page.url.as_str())) {
                    score *= boost;
                }
                let domain = self.corpus.domain(page_idx);
                if config
                    .prefer_sites
                    .iter()
                    .any(|p| domain_matches(domain, p))
                {
                    score *= PREFER_BOOST;
                }
                if let PageKind::News { date } = &page.kind {
                    // Recency boost for news.
                    let rec = (*date as f32 / NEWS_SPAN_HINT).clamp(0.0, 1.0);
                    score *= 0.8 + 0.4 * rec;
                }
                Candidate {
                    page: page_idx,
                    raw: h.score,
                    score,
                }
            })
            .collect();
        // The searcher returns (score desc, doc asc); strided
        // partitioning keeps local doc order aligned with global page
        // order, so the pool is already in (raw desc, page asc) — the
        // canonical merge order.
        debug_assert!(pool
            .windows(2)
            .all(|w| w[1].raw < w[0].raw || (w[1].raw == w[0].raw && w[0].page < w[1].page)));
        Some(CandidateStage { query, pool, bound })
    }

    /// Resolve a site restriction into the set of documents it admits:
    /// match the allow-list against the site table once, then gather
    /// the matching sites' doc-id lists. Each list is ascending and a
    /// site is taken once however many entries match it, so sorting
    /// the concatenation yields a strictly increasing id list.
    fn restricted_docs(&self, vi: &VerticalIndex, allow: &[String]) -> DocSet {
        let lists: Vec<&[u32]> = self
            .corpus
            .sites
            .iter()
            .zip(&vi.docs_by_site)
            .filter(|(site, _)| allow.iter().any(|a| domain_matches(&site.domain, a)))
            .map(|(_, docs)| docs.as_slice())
            .collect();
        let mut ids = lists.concat();
        ids.sort_unstable();
        DocSet::from_sorted(ids)
    }

    /// Turn a blended candidate into the result a page shows: url,
    /// title, domain, highlighted snippet and the vertical's media
    /// fields.
    fn hydrate(&self, snippeter: &SnippetGenerator, c: &Candidate) -> WebResult {
        let url = self.corpus.pages[c.page].url.clone();
        self.page_fields(snippeter, c.page)
            .into_result(url, c.score)
    }

    /// The displayed fields of page `page_idx` (which must be in the
    /// page table): title, domain, highlighted snippet and the page
    /// kind's media fields. Hydration exists only here.
    fn page_fields(&self, snippeter: &SnippetGenerator, page_idx: usize) -> PageFields {
        let page = &self.corpus.pages[page_idx];
        let (image_src, duration_s, date) = match &page.kind {
            PageKind::Image { src, .. } => (Some(src.clone()), None, None),
            PageKind::Video { duration_s } => (None, Some(*duration_s), None),
            PageKind::News { date } => (None, None, Some(*date)),
            PageKind::Article | PageKind::Review { .. } => (None, None, None),
        };
        PageFields {
            title: page.title.clone(),
            snippet: snippeter.snippet(&page.body),
            domain: self.corpus.domain(page_idx).to_string(),
            image_src,
            duration_s,
            date,
        }
    }

    /// The fetch phase of a scatter: the displayed fields of `pages`
    /// (global page indexes, as [`PoolEntry::page`] carries them), in
    /// the order asked, for the query that ranked them. The snippeter
    /// is rebuilt once from the same augmented query the candidate
    /// stage parsed, so the highlights are the ones
    /// [`search`](Self::search) would have produced. `None` when a
    /// page index is outside the page table — the caller asked a node
    /// about a page it cannot know.
    pub fn hydrate_pages(
        &self,
        raw_query: &str,
        config: &SearchConfig,
        pages: &[usize],
    ) -> Option<Vec<PageFields>> {
        if pages.iter().any(|&p| p >= self.corpus.pages.len()) {
            return None;
        }
        let query = augmented_query(raw_query, config);
        let snippeter = SnippetGenerator::new(&query.positive_words());
        Some(
            pages
                .iter()
                .map(|&p| self.page_fields(&snippeter, p))
                .collect(),
        )
    }

    /// Rank-safe gather: merge per-shard candidate pools into the
    /// `k` winners of the final result page, lean, in final (score
    /// desc, url asc) order — what remains is to fetch their fields.
    ///
    /// Exactness argument (DESIGN.md "Distributed serving" has the
    /// full sketch): the shards partition the documents, and every
    /// member of the single-index pool ranks at least as high within
    /// its own shard as globally, so the union of per-shard pools is a
    /// superset of the single-index pool; truncating the union under
    /// the same canonical total order (raw BM25 desc, global page asc
    /// — page order *is* doc order under strided partitioning)
    /// therefore selects exactly the single-index pool, and rescoring
    /// is a pure per-(page, query) function, so the final (score desc,
    /// url asc) page is bit-identical. Nothing in the argument reads a
    /// title or a snippet, which is why the pools can travel without
    /// them. Each shard's exported MaxScore
    /// bound certifies the truncation: any document a shard withheld
    /// scores at or below its bound, and a debug assertion checks no
    /// withheld document could have displaced the merged cutoff.
    pub fn merge_pools(pools: Vec<ShardPool>, k: usize) -> Vec<PoolEntry> {
        let depth = Self::pool_depth(k);
        let mut merged: Vec<PoolEntry> =
            Vec::with_capacity(pools.iter().map(|p| p.entries.len()).sum());
        let mut bounds: Vec<(f32, usize)> = Vec::with_capacity(pools.len());
        for pool in pools {
            // A shard whose pool came back full may be withholding
            // docs scoring up to its bound; remember it for the
            // rank-safety certificate below.
            if pool.entries.len() >= depth {
                bounds.push((pool.bound, pool.entries.len()));
            }
            merged.extend(pool.entries);
        }
        merged.sort_by(|a, b| b.raw.total_cmp(&a.raw).then(a.page.cmp(&b.page)));
        merged.truncate(depth);
        if let Some(cutoff) = merged.last() {
            // Merge-bound certificate: every truncated shard's bound
            // must sit at or below the merged cutoff, i.e. nothing a
            // shard withheld could have entered the merged pool.
            debug_assert!(
                merged.len() < depth || bounds.iter().all(|&(b, _)| b <= cutoff.raw),
                "shard bound exceeds merged cutoff: rank safety violated"
            );
        }
        merged.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.url.cmp(&b.url)));
        merged.truncate(k);
        merged
    }

    /// Number of live (searchable) documents in a vertical.
    pub fn doc_count(&self, vertical: Vertical) -> usize {
        self.vertical(vertical).index.live_docs()
    }

    /// Static rank of a URL, when known (exposed for experiments).
    #[cfg(test)]
    pub(crate) fn static_rank_of(&self, url: &str) -> Option<f64> {
        let idx = self.corpus.page_index_by_url(url)?;
        Some(self.rank[idx])
    }
}

/// Rough upper bound on synthetic news timestamps, for recency
/// normalization (2010-01-01).
const NEWS_SPAN_HINT: f32 = 1_262_304_000.0;

/// Preferred-site score multiplier.
const PREFER_BOOST: f32 = 1.5;

/// Whitespace/case normalization for click-feedback keys.
fn normalize_query(q: &str) -> String {
    q.split_whitespace()
        .map(|w| w.to_lowercase())
        .collect::<Vec<_>>()
        .join(" ")
}

/// `domain` equals `allow` or is a subdomain of it.
pub fn domain_matches(domain: &str, allow: &str) -> bool {
    domain
        .strip_suffix(allow)
        .is_some_and(|rest| rest.is_empty() || rest.ends_with('.'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;
    use crate::topic::Topic;
    use proptest::prelude::*;
    use symphony_text::SegmentPolicy;

    fn engine() -> SearchEngine {
        let cfg = CorpusConfig {
            sites_per_topic: 3,
            pages_per_site: 6,
            ..CorpusConfig::default()
        }
        .with_entities(Topic::Games, ["Galactic Raiders", "Farm Story"]);
        SearchEngine::new(Corpus::generate(&cfg))
    }

    #[test]
    fn web_search_finds_reviews() {
        let e = engine();
        let rs = e.search(
            Vertical::Web,
            "Galactic Raiders review",
            &SearchConfig::default(),
            10,
        );
        assert!(!rs.is_empty());
        assert!(
            rs[0].title.contains("Galactic Raiders"),
            "{:?}",
            rs[0].title
        );
        assert!(rs[0].snippet.contains("<b>"));
    }

    #[test]
    fn site_restriction_filters_domains() {
        let e = engine();
        let cfg = SearchConfig::default().restrict_to(["gamespot.com", "ign.com"]);
        let rs = e.search(Vertical::Web, "Galactic Raiders", &cfg, 10);
        assert!(!rs.is_empty());
        assert!(rs
            .iter()
            .all(|r| r.domain == "gamespot.com" || r.domain == "ign.com"));
    }

    #[test]
    fn restriction_to_unknown_domain_is_empty() {
        let e = engine();
        let cfg = SearchConfig::default().restrict_to(["nosuchsite.example"]);
        assert!(e.search(Vertical::Web, "game", &cfg, 10).is_empty());
    }

    #[test]
    fn image_vertical_returns_media_meta() {
        let e = engine();
        let rs = e.search(
            Vertical::Image,
            "Galactic Raiders",
            &SearchConfig::default(),
            5,
        );
        assert!(!rs.is_empty());
        assert!(rs[0].image_src.as_deref().unwrap().ends_with(".jpg"));
        assert!(rs[0].duration_s.is_none());
    }

    #[test]
    fn video_vertical_returns_duration() {
        let e = engine();
        let rs = e.search(
            Vertical::Video,
            "Galactic Raiders trailer",
            &SearchConfig::default(),
            5,
        );
        assert!(!rs.is_empty());
        assert!(rs[0].duration_s.is_some());
    }

    #[test]
    fn news_vertical_returns_dates() {
        let e = engine();
        let rs = e.search(
            Vertical::News,
            "Galactic Raiders",
            &SearchConfig::default(),
            5,
        );
        assert!(!rs.is_empty());
        assert!(rs[0].date.is_some());
    }

    #[test]
    fn prefer_sites_boosts_ranking() {
        let e = engine();
        let neutral = e.search(Vertical::Web, "game review", &SearchConfig::default(), 20);
        let preferred_domain = "teamxbox.com";
        let boosted = e.search(
            Vertical::Web,
            "game review",
            &SearchConfig::default().prefer([preferred_domain]),
            20,
        );
        let pos = |rs: &[WebResult]| rs.iter().position(|r| r.domain == preferred_domain);
        if let (Some(a), Some(b)) = (pos(&neutral), pos(&boosted)) {
            assert!(b <= a, "boost must not demote ({a} -> {b})");
        }
    }

    #[test]
    fn augmentation_changes_results() {
        let e = engine();
        let plain = e.search(Vertical::Web, "review", &SearchConfig::default(), 10);
        let aug = e.search(
            Vertical::Web,
            "review",
            &SearchConfig::default().augment(["gameplay"]),
            10,
        );
        assert!(!plain.is_empty() && !aug.is_empty());
        let urls = |rs: &[WebResult]| rs.iter().map(|r| r.url.clone()).collect::<Vec<_>>();
        assert_ne!(urls(&plain), urls(&aug));
    }

    #[test]
    fn empty_query_is_empty() {
        let e = engine();
        assert!(e
            .search(Vertical::Web, "", &SearchConfig::default(), 10)
            .is_empty());
    }

    #[test]
    fn k_truncates() {
        let e = engine();
        let rs = e.search(Vertical::Web, "game", &SearchConfig::default(), 3);
        assert!(rs.len() <= 3);
    }

    #[test]
    fn results_sorted_by_score() {
        let e = engine();
        let rs = e.search(Vertical::Web, "game review", &SearchConfig::default(), 10);
        for w in rs.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn did_you_mean_corrects_entity_typos() {
        let e = engine();
        let dym = e.did_you_mean("galactik raiders reviw");
        assert_eq!(dym.as_deref(), Some("galactic raider review"));
        assert_eq!(e.did_you_mean("galactic raiders"), None);
    }

    #[test]
    fn click_feedback_promotes_clicked_urls() {
        let mut e = engine();
        let baseline = e.search(Vertical::Web, "game review", &SearchConfig::default(), 10);
        assert!(baseline.len() >= 2);
        // Fake a community that always clicks the currently-second
        // result.
        let target = baseline[1].url.clone();
        let logs: Vec<crate::logs::LogEntry> = (0..50)
            .map(|i| crate::logs::LogEntry {
                session: i,
                query: "game review".into(),
                url: target.clone(),
                domain: baseline[1].domain.clone(),
                position: 1,
                timestamp: 0,
            })
            .collect();
        e.apply_click_feedback(&logs, 1.0);
        assert_eq!(e.click_boosted_urls(), 1);
        let boosted = e.search(Vertical::Web, "game review", &SearchConfig::default(), 10);
        let pos = |rs: &[WebResult], url: &str| rs.iter().position(|r| r.url == url);
        assert!(
            pos(&boosted, &target).unwrap() < pos(&baseline, &target).unwrap()
                || pos(&boosted, &target) == Some(0),
            "clicked URL must rise"
        );
    }

    #[test]
    fn click_feedback_clears_on_empty_logs() {
        let mut e = engine();
        let logs = vec![crate::logs::LogEntry {
            session: 0,
            query: "q".into(),
            url: "http://x/y".into(),
            domain: "x".into(),
            position: 0,
            timestamp: 0,
        }];
        e.apply_click_feedback(&logs, 1.0);
        assert_eq!(e.click_boosted_urls(), 1);
        e.apply_click_feedback(&[], 1.0);
        assert_eq!(e.click_boosted_urls(), 0);
    }

    fn crawled_page(e: &SearchEngine, url: &str, title: &str, body: &str) -> Page {
        Page {
            site: 0,
            url: format!("http://{}/{}", e.corpus().sites[0].domain, url),
            title: title.into(),
            body: body.into(),
            links: Vec::new(),
            kind: PageKind::Article,
        }
    }

    #[test]
    fn ingest_makes_new_page_searchable_without_rebuild() {
        let mut e = engine();
        let before = e.doc_count(Vertical::Web);
        let p = crawled_page(&e, "zyx", "Zyxwvut Chronicle", "a zyxwvut adventure story");
        let url = p.url.clone();
        assert_eq!(e.ingest_page(p), Vertical::Web);
        assert_eq!(e.doc_count(Vertical::Web), before + 1);
        let rs = e.search(Vertical::Web, "zyxwvut", &SearchConfig::default(), 5);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].url, url);
        assert!(e.static_rank_of(&url).unwrap() > 0.0, "provisional rank");
    }

    #[test]
    fn provisional_rank_is_the_from_scratch_mean() {
        let mut e = engine();
        for round in 0..2 {
            for i in 0..5 {
                let mean = e.rank.iter().sum::<f64>() / e.rank.len() as f64;
                let p = crawled_page(&e, &format!("new{round}-{i}"), "Fresh", "fresh page body");
                let url = p.url.clone();
                e.ingest_page(p);
                assert_eq!(e.static_rank_of(&url).unwrap().to_bits(), mean.to_bits());
            }
            // The next round's means start from the recomputed ranks.
            e.recompute_static_rank();
        }
    }

    #[test]
    fn reingest_replaces_page_in_place() {
        let mut e = engine();
        let p = crawled_page(&e, "zyx", "Zyxwvut Chronicle", "original body");
        let url = p.url.clone();
        e.ingest_page(p);
        let before = e.doc_count(Vertical::Web);
        let mut p2 = crawled_page(&e, "zyx", "Zyxwvut Chronicle", "rewritten qqzzy body");
        p2.url = url.clone();
        e.ingest_page(p2);
        assert_eq!(e.doc_count(Vertical::Web), before, "replaced, not added");
        assert!(e
            .search(Vertical::Web, "original", &SearchConfig::default(), 5)
            .is_empty());
        let rs = e.search(Vertical::Web, "qqzzy", &SearchConfig::default(), 5);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].url, url);
    }

    #[test]
    fn remove_page_hides_url() {
        let mut e = engine();
        let p = crawled_page(&e, "zyx", "Zyxwvut Chronicle", "a zyxwvut story");
        let url = p.url.clone();
        e.ingest_page(p);
        assert!(e.remove_page(&url));
        assert!(!e.remove_page(&url), "second remove is a no-op");
        assert!(!e.remove_page("http://nosuch.example/x"));
        assert!(e
            .search(Vertical::Web, "zyxwvut", &SearchConfig::default(), 5)
            .is_empty());
    }

    #[test]
    fn maintain_seals_ingested_pages_and_refreshes_speller() {
        let mut e = engine();
        e.set_segment_policy(SegmentPolicy {
            memtable_max_docs: 4096,
            staleness_window_ms: 50,
            merge_fanin: 4,
            near_real_time: false,
        });
        assert_eq!(
            e.did_you_mean("zyxwvuq"),
            None,
            "unknown term, nothing close"
        );
        let p = crawled_page(&e, "zyx", "Zyxwvut Chronicle", "a zyxwvut story");
        e.ingest_page(p);
        let r = e.maintain(100);
        assert!(r.sealed, "staleness window elapsed");
        // The web vertical did work, so the speller was re-snapshotted
        // and now knows the freshly indexed term.
        assert_eq!(e.did_you_mean("zyxwvuq").as_deref(), Some("zyxwvut"));
        // Results are unchanged by sealing.
        let rs = e.search(Vertical::Web, "zyxwvut", &SearchConfig::default(), 5);
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn kind_change_moves_page_between_verticals() {
        let mut e = engine();
        let p = crawled_page(&e, "zyx", "Zyxwvut Trailer", "zyxwvut gameplay footage");
        let url = p.url.clone();
        e.ingest_page(p);
        let mut v = crawled_page(&e, "zyx", "Zyxwvut Trailer", "zyxwvut gameplay footage");
        v.url = url.clone();
        v.kind = PageKind::Video { duration_s: 120 };
        assert_eq!(e.ingest_page(v), Vertical::Video);
        assert!(e
            .search(Vertical::Web, "zyxwvut", &SearchConfig::default(), 5)
            .is_empty());
        let rs = e.search(Vertical::Video, "zyxwvut", &SearchConfig::default(), 5);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].duration_s, Some(120));
    }

    #[test]
    fn domain_matching_rules() {
        assert!(domain_matches("gamespot.com", "gamespot.com"));
        assert!(domain_matches("www.gamespot.com", "gamespot.com"));
        assert!(domain_matches("a.b.gamespot.com", "gamespot.com"));
        assert!(!domain_matches("notgamespot.com", "gamespot.com"));
        assert!(!domain_matches("evil-example.com", "example.com"));
        assert!(!domain_matches("example.com.evil.org", "example.com"));
        // An allow-list entry longer than the domain never matches,
        // even when the domain is its suffix.
        assert!(!domain_matches("spot.com", "gamespot.com"));
        assert!(!domain_matches("com", "gamespot.com"));
        // The empty entry matches only the empty domain (and a domain
        // written with a trailing dot), as `ends_with(".")` did.
        assert!(!domain_matches("gamespot.com", ""));
        assert!(domain_matches("", ""));
        assert!(domain_matches("gamespot.com.", ""));
        assert!(!domain_matches("", "gamespot.com"));
    }

    /// The pool as the engine built it before restriction pushdown and
    /// winners-only hydration — the site restriction an opaque closure
    /// the executor calls per candidate, every hit blended and hydrated
    /// in one pass — kept as the oracle for the properties below: the
    /// lean pool, and every member's finished result in pool order.
    fn closure_pool(
        e: &SearchEngine,
        vertical: Vertical,
        raw_query: &str,
        config: &SearchConfig,
        k: usize,
    ) -> (ShardPool, Vec<WebResult>) {
        let mut query = Query::parse(raw_query);
        for t in &config.augment_terms {
            query.clauses.push(Clause {
                occur: Occur::Should,
                kind: ClauseKind::Term(t.clone()),
                field: None,
            });
        }
        if query.is_empty() || k == 0 {
            return (ShardPool::default(), Vec::new());
        }
        let vi = e.vertical(vertical);
        let restrict = &config.site_restrict;
        let matches = |domain: &str, allow: &String| {
            domain == allow || domain.ends_with(&format!(".{allow}"))
        };
        let mut searcher = Searcher::new(&vi.index);
        if let Some(global) = &e.global {
            searcher = searcher.with_global_stats(&global[vertical as usize]);
        }
        let (hits, bound) =
            searcher.search_filtered_with_threshold(&query, (k * 4).max(32), |doc| {
                if restrict.is_empty() {
                    return true;
                }
                let domain = e.corpus.domain(vi.pages[doc.as_usize()]);
                restrict.iter().any(|allow| matches(domain, allow))
            });
        let boosts = e.click_boosts.get(&normalize_query(raw_query));
        let snippeter = SnippetGenerator::new(&query.positive_words());
        let (entries, hydrated) = hits
            .into_iter()
            .map(|h| {
                let page_idx = vi.pages[h.doc.as_usize()];
                let page = &e.corpus.pages[page_idx];
                let domain = e.corpus.domain(page_idx).to_string();
                let mut score = h.score * (0.4 + 1.6 * e.rank[page_idx] as f32);
                if let Some(boost) = boosts.and_then(|b| b.get(page.url.as_str())) {
                    score *= boost;
                }
                if config.prefer_sites.iter().any(|p| matches(&domain, p)) {
                    score *= PREFER_BOOST;
                }
                let (image_src, duration_s, date) = match &page.kind {
                    PageKind::Image { src, .. } => (Some(src.clone()), None, None),
                    PageKind::Video { duration_s } => (None, Some(*duration_s), None),
                    PageKind::News { date } => {
                        let rec = (*date as f32 / NEWS_SPAN_HINT).clamp(0.0, 1.0);
                        score *= 0.8 + 0.4 * rec;
                        (None, None, Some(*date))
                    }
                    _ => (None, None, None),
                };
                let entry = PoolEntry {
                    page: page_idx,
                    raw: h.score,
                    score,
                    url: page.url.clone(),
                };
                let result = WebResult {
                    url: page.url.clone(),
                    title: page.title.clone(),
                    snippet: snippeter.snippet(&page.body),
                    domain,
                    score,
                    image_src,
                    duration_s,
                    date,
                };
                (entry, result)
            })
            .unzip();
        (ShardPool { entries, bound }, hydrated)
    }

    /// The fetch phase over one engine: the winners' fields, assembled
    /// into the results a page shows.
    fn fetch(
        e: &SearchEngine,
        raw_query: &str,
        config: &SearchConfig,
        winners: Vec<PoolEntry>,
    ) -> Vec<WebResult> {
        let pages: Vec<usize> = winners.iter().map(|w| w.page).collect();
        let fields = e
            .hydrate_pages(raw_query, config, &pages)
            .expect("winners are corpus pages");
        winners
            .into_iter()
            .zip(fields)
            .map(|(w, f)| f.into_result(w.url, w.score))
            .collect()
    }

    /// Equal results, scores compared by bit pattern.
    fn assert_same_page(got: &[WebResult], want: &[WebResult], what: &str) {
        assert_eq!(got, want, "{what}");
        assert_eq!(result_bits(got), result_bits(want), "{what}");
    }

    fn entity_corpus(seed: u64) -> Corpus {
        let cfg = CorpusConfig {
            seed,
            sites_per_topic: 2,
            pages_per_site: 3,
            ..CorpusConfig::default()
        }
        .with_entities(Topic::Games, ["Galactic Raiders", "Farm Story"]);
        Corpus::generate(&cfg)
    }

    const CRAWL_WORDS: [&str; 6] = ["zyxwvut", "game", "review", "space", "farm", "raiders"];

    /// One step of a crawl schedule: `(kind, a, b)` with `a`/`b`
    /// resolved against whatever the engine holds when the step runs.
    type CrawlOp = (u8, prop::sample::Index, prop::sample::Index);

    fn apply_crawl_op(e: &mut SearchEngine, step: usize, now_ms: &mut u64, op: &CrawlOp) {
        let (kind, a, b) = op;
        let n_sites = e.corpus.sites.len();
        let n_pages = e.corpus.pages.len();
        let body = |salt: usize| {
            (0..4 + salt % 5)
                .map(|i| CRAWL_WORDS[(salt / (i + 1) + i) % CRAWL_WORDS.len()])
                .collect::<Vec<_>>()
                .join(" ")
        };
        let kind_of = |salt: usize| match salt % 4 {
            0 => PageKind::Article,
            1 => PageKind::Image {
                src: format!("http://img/{salt}.jpg"),
                alt: "shot".into(),
            },
            2 => PageKind::Video {
                duration_s: 30 + salt as u32 % 90,
            },
            _ => PageKind::News {
                date: 1_230_768_000 + (salt as i64 % 300) * 86_400,
            },
        };
        let salt = b.index(9973);
        match kind % 6 {
            // A URL the engine has never seen.
            0 => {
                let site = a.index(n_sites);
                e.ingest_page(Page {
                    site,
                    url: format!("http://{}/crawl/{step}", e.corpus.sites[site].domain),
                    title: format!("Crawl {}", CRAWL_WORDS[salt % CRAWL_WORDS.len()]),
                    body: body(salt),
                    links: Vec::new(),
                    kind: kind_of(salt),
                });
            }
            // Re-crawl: same URL and vertical, new text.
            1 => {
                let mut page = e.corpus.pages[a.index(n_pages)].clone();
                page.body = format!("{} {}", page.body, body(salt));
                e.ingest_page(page);
            }
            // Re-crawl that changes the page's vertical.
            2 => {
                let mut page = e.corpus.pages[a.index(n_pages)].clone();
                let old = Vertical::of_kind(&page.kind);
                page.kind = (salt..salt + 4)
                    .map(kind_of)
                    .find(|k| Vertical::of_kind(k) != old)
                    .expect("four kinds cover four verticals");
                e.ingest_page(page);
            }
            // Re-crawl that finds the page on another site.
            3 => {
                let mut page = e.corpus.pages[a.index(n_pages)].clone();
                page.site = b.index(n_sites);
                e.ingest_page(page);
            }
            4 => {
                let url = e.corpus.pages[a.index(n_pages)].url.clone();
                e.remove_page(&url);
            }
            _ => {
                *now_ms += 40;
                e.maintain(*now_ms);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Site restriction resolved through the per-vertical site
        /// tables into a `DocSet` returns what the per-candidate
        /// closure returned — pool, bound and page, bit for bit — on
        /// every vertical, at every point of a crawl schedule that
        /// adds, re-crawls, moves, removes, seals and merges.
        #[test]
        fn restricted_search_equals_closure(
            seed in 0u64..40,
            ops in proptest::collection::vec(
                (0u8..6, any::<prop::sample::Index>(), any::<prop::sample::Index>()),
                0..48,
            ),
            picks in proptest::collection::vec(any::<prop::sample::Index>(), 1..4),
            near_real_time in any::<bool>(),
        ) {
            let mut e = SearchEngine::new(entity_corpus(seed));
            e.set_segment_policy(SegmentPolicy {
                memtable_max_docs: 3,
                staleness_window_ms: 60,
                merge_fanin: 2,
                near_real_time,
            });
            let domains: Vec<String> = e.corpus.sites.iter().map(|s| s.domain.clone()).collect();
            let drawn: Vec<String> = picks
                .iter()
                .map(|i| domains[i.index(domains.len())].clone())
                .collect();
            let generic = domains
                .iter()
                .find(|d| d.ends_with(".example.com"))
                .expect("every topic has generic sites")
                .clone();
            let configs = [
                SearchConfig::default().restrict_to(["nosuchsite.example"]),
                // A parent domain and one of its own subdomains: the
                // subdomain's site matches twice and is listed once.
                SearchConfig::default().restrict_to(["example.com".to_string(), generic]),
                SearchConfig::default().restrict_to(drawn.clone()),
                SearchConfig::default()
                    .restrict_to(drawn.iter().cloned().chain(["gamespot.com".to_string()]))
                    .augment(["review"])
                    .prefer(["ign.com"]),
            ];
            let check = |e: &SearchEngine, at: usize| {
                for v in Vertical::ALL {
                    for q in ["Galactic Raiders", "game review", "+space farm", "zyxwvut -farm"] {
                        for (ci, config) in configs.iter().enumerate() {
                            let k = if ci % 2 == 0 { 10 } else { 3 };
                            let what = format!("after {at} ops: {v:?} {q:?} config {ci} k {k}");
                            let (want, mut page) = closure_pool(e, v, q, config, k);
                            prop_assert_eq!(&e.search_pool(v, q, config, k), &want, "{}", what);
                            page.sort_by(|a, b| {
                                b.score.total_cmp(&a.score).then_with(|| a.url.cmp(&b.url))
                            });
                            page.truncate(k);
                            assert_same_page(&e.search(v, q, config, k), &page, &what);
                        }
                    }
                }
            };
            let mut now_ms = 0u64;
            for (step, op) in ops.iter().enumerate() {
                apply_crawl_op(&mut e, step, &mut now_ms, op);
                if step % 12 == 11 {
                    check(&e, step + 1);
                }
            }
            check(&e, ops.len());
        }

        /// The two phases of a scatter add up to a search: `search`
        /// equals the one-shard gather over its own lean pool followed
        /// by the fetch of the winners' fields, for page sizes below,
        /// at and beyond the pool depth's floor, with click boosts and
        /// preferred sites reordering the pool and augmentation terms
        /// changing the highlights.
        #[test]
        fn search_equals_merge_of_own_pool(
            seed in 0u64..40,
            query in "(game|review|space|Galactic Raiders|farm story|\\+game level|player -boss)",
            picks in proptest::collection::vec(any::<prop::sample::Index>(), 0..3),
            clicks in proptest::collection::vec((any::<prop::sample::Index>(), 1usize..6), 0..5),
        ) {
            let mut e = SearchEngine::new(entity_corpus(seed));
            let domains: Vec<String> = e.corpus.sites.iter().map(|s| s.domain.clone()).collect();
            let pick = |i: &prop::sample::Index| domains[i.index(domains.len())].clone();
            let plain = SearchConfig::default();
            // Clicks land on results the query really returns, so the
            // boosts apply to pool members.
            let shown = e.search(Vertical::Web, &query, &plain, 50);
            let logs: Vec<LogEntry> = clicks
                .iter()
                .filter(|_| !shown.is_empty())
                .flat_map(|(i, times)| {
                    let r = &shown[i.index(shown.len())];
                    (0..*times).map(|t| LogEntry {
                        session: t as u32,
                        query: query.to_uppercase(),
                        url: r.url.clone(),
                        domain: r.domain.clone(),
                        position: 0,
                        timestamp: 0,
                    })
                })
                .collect();
            e.apply_click_feedback(&logs, 1.0);
            let configs = [
                plain,
                SearchConfig::default().prefer(picks.iter().map(pick)),
                SearchConfig::default()
                    .prefer(["example.com"])
                    .restrict_to(picks.iter().map(pick).chain(["gamespot.com".to_string()]))
                    .augment(["review"]),
            ];
            for v in Vertical::ALL {
                for (ci, config) in configs.iter().enumerate() {
                    for k in [0usize, 1, 3, 10, 50] {
                        let pool = e.search_pool(v, &query, config, k);
                        let winners = SearchEngine::merge_pools(vec![pool], k);
                        assert_same_page(
                            &e.search(v, &query, config, k),
                            &fetch(&e, &query, config, winners),
                            &format!("{v:?} {query:?} config {ci} k {k} clicks {}", logs.len()),
                        );
                    }
                }
            }
        }
    }

    fn result_bits(rs: &[WebResult]) -> Vec<(String, u32)> {
        rs.iter()
            .map(|r| (r.url.clone(), r.score.to_bits()))
            .collect()
    }

    #[test]
    fn cluster_merge_is_bit_identical_to_single_engine() {
        let cfg = CorpusConfig {
            sites_per_topic: 3,
            pages_per_site: 6,
            ..CorpusConfig::default()
        }
        .with_entities(Topic::Games, ["Galactic Raiders", "Farm Story"]);
        let corpus = Corpus::generate(&cfg);
        let single = SearchEngine::new(corpus.clone());
        let configs = [
            SearchConfig::default(),
            SearchConfig::default().restrict_to(["gamespot.com", "ign.com"]),
            SearchConfig::default()
                .augment(["review"])
                .prefer(["ign.com"]),
        ];
        for n in [1usize, 2, 3, 5] {
            let shards = SearchEngine::build_cluster(&corpus, n, 1);
            for v in Vertical::ALL {
                for q in [
                    "Galactic Raiders",
                    "game review",
                    "+space farm",
                    "\"Farm Story\"",
                ] {
                    for (ci, config) in configs.iter().enumerate() {
                        for k in [3usize, 10] {
                            let want = single.search(v, q, config, k);
                            let pools = shards
                                .iter()
                                .map(|e| e.search_pool(v, q, config, k))
                                .collect();
                            let got: Vec<(String, u32)> = SearchEngine::merge_pools(pools, k)
                                .into_iter()
                                .map(|w| (w.url, w.score.to_bits()))
                                .collect();
                            assert_eq!(
                                result_bits(&want),
                                got,
                                "vertical {v:?} query {q:?} config {ci} k {k} shards {n}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn shards_share_one_page_table_until_one_ingests() {
        let corpus = Corpus::generate(&CorpusConfig {
            sites_per_topic: 2,
            pages_per_site: 4,
            ..CorpusConfig::default()
        });
        let mut shards = SearchEngine::build_cluster(&corpus, 3, 1);
        let pages = corpus.pages.len();
        for e in &shards[1..] {
            assert!(std::ptr::eq(e.corpus(), shards[0].corpus()), "one copy");
        }
        let p = crawled_page(&shards[0], "new", "Fresh page", "fresh text");
        shards[0].ingest_page(p);
        assert_eq!(shards[0].corpus().pages.len(), pages + 1);
        for e in &shards[1..] {
            assert_eq!(e.corpus().pages.len(), pages, "copied on write");
        }
    }

    #[test]
    fn shard_pool_exports_threshold_bound() {
        let cfg = CorpusConfig {
            sites_per_topic: 4,
            pages_per_site: 8,
            ..CorpusConfig::default()
        };
        let corpus = Corpus::generate(&cfg);
        let e = SearchEngine::new(corpus);
        // k=1 → pool depth 32; a broad query fills the pool and the
        // bound equals the last raw score; a narrow one leaves it
        // short with an unbounded (NEG_INFINITY) certificate.
        let pool = e.search_pool(Vertical::Web, "game", &SearchConfig::default(), 1);
        if pool.entries.len() >= 32 {
            assert_eq!(pool.bound, pool.entries.last().unwrap().raw);
        } else {
            assert_eq!(pool.bound, f32::NEG_INFINITY);
        }
    }
}
