//! Seeded input generators: names, catalog rows, query streams, crawl
//! pages and click draws.
//!
//! Everything here is a pure function of the seed it is given. The
//! product code never sees a seed, only what these generators emit.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use symphony_store::{
    CmpOp, FieldType, Filter, IndexKind, IndexedTable, Record, Schema, Table, Value,
};
use symphony_web::topic::GENERAL_WORDS;
use symphony_web::zipf::Zipf;
use symphony_web::{Corpus, Page, PageKind, Topic};

/// One SplitMix64 step: derives independent sub-seeds (`seed`, `tag`)
/// so that two generators of one run never share a stream.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut x = seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

const NAME_FIRST: [&str; 40] = [
    "crimson", "silent", "iron", "golden", "frozen", "hidden", "savage", "lunar", "solar",
    "ancient", "electric", "velvet", "shadow", "turbo", "neon", "cosmic", "rogue", "mystic",
    "atomic", "scarlet", "emerald", "phantom", "thunder", "crystal", "obsidian", "radiant",
    "feral", "arcane", "stellar", "molten", "ivory", "cobalt", "amber", "sapphire", "onyx", "wild",
    "brave", "lost", "eternal", "infinite",
];

const NAME_SECOND: [&str; 40] = [
    "raiders",
    "kingdom",
    "harvest",
    "circuit",
    "odyssey",
    "frontier",
    "legends",
    "tactics",
    "drifters",
    "empire",
    "voyage",
    "outlaws",
    "garden",
    "fortress",
    "rally",
    "dungeon",
    "skies",
    "depths",
    "horizon",
    "citadel",
    "nomads",
    "requiem",
    "gambit",
    "pioneers",
    "tempest",
    "labyrinth",
    "bastion",
    "vanguard",
    "exodus",
    "eclipse",
    "dominion",
    "arena",
    "chronicle",
    "crusade",
    "colony",
    "expanse",
    "sentinel",
    "marauders",
    "vortex",
    "reckoning",
];

/// Catalog categories (hash-indexed column).
pub const CATEGORIES: [&str; 12] = [
    "shooter",
    "strategy",
    "puzzle",
    "racing",
    "adventure",
    "simulation",
    "sports",
    "platformer",
    "roleplaying",
    "arcade",
    "survival",
    "rhythm",
];

const DESC_WORDS: [&str; 48] = [
    "edition",
    "classic",
    "deluxe",
    "online",
    "coop",
    "campaign",
    "story",
    "open",
    "world",
    "fast",
    "tactical",
    "retro",
    "pixel",
    "orchestral",
    "soundtrack",
    "multiplayer",
    "solo",
    "challenge",
    "ranked",
    "casual",
    "hardcore",
    "expansion",
    "bundle",
    "remastered",
    "portable",
    "handheld",
    "console",
    "controller",
    "keyboard",
    "leaderboard",
    "achievement",
    "season",
    "pass",
    "crafting",
    "building",
    "stealth",
    "boss",
    "quest",
    "loot",
    "upgrade",
    "physics",
    "voxel",
    "procedural",
    "narrative",
    "squad",
    "duel",
    "tournament",
    "sandbox",
];

/// Catalog columns are `(title, body, category, price)`; this is the
/// title's position.
pub const COL_TITLE: usize = 0;
/// Position of the integer price column, uniform in `0..1000`
/// (ordered index). The hybrid apps filter on it.
pub const COL_PRICE: usize = 3;

/// The structured predicate of the hybrid apps: `price < cutoff`.
pub fn price_below(cutoff: i64) -> Filter {
    Filter::cmp(COL_PRICE, CmpOp::Lt, Value::Int(cutoff))
}

/// `n` distinct two-word product names, in seeded order.
///
/// # Panics
/// Panics when `n` exceeds the 1 600 combinations available.
pub fn name_pool(seed: u64, n: usize) -> Vec<String> {
    let mut all: Vec<(usize, usize)> = (0..NAME_FIRST.len())
        .flat_map(|a| (0..NAME_SECOND.len()).map(move |b| (a, b)))
        .collect();
    assert!(n <= all.len(), "name pool holds {} names", all.len());
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x4E41_4D45));
    for i in 0..n {
        let j = rng.gen_range(i..all.len());
        all.swap(i, j);
    }
    all[..n]
        .iter()
        .map(|&(a, b)| {
            format!(
                "{} {}",
                capitalize(NAME_FIRST[a]),
                capitalize(NAME_SECOND[b])
            )
        })
        .collect()
}

fn capitalize(w: &str) -> String {
    let mut cs = w.chars();
    match cs.next() {
        Some(c) => c.to_uppercase().chain(cs).collect(),
        None => String::new(),
    }
}

/// Build a catalog of `rows` products whose titles come from `names`:
/// `(title, body, category, price)`, with a hash index on category, an
/// ordered index on price and a full-text view over title and body.
pub fn catalog(seed: u64, rows: usize, names: &[String]) -> IndexedTable {
    let schema = Schema::of(&[
        ("title", FieldType::Text),
        ("body", FieldType::Text),
        ("category", FieldType::Text),
        ("price", FieldType::Int),
    ]);
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x4341_5441));
    let desc = Zipf::new(DESC_WORDS.len(), 1.0);
    // Prices are an exact spread over 0..1000 in shuffled row order,
    // not independent draws: `price < 50` then selects the same number
    // of rows for every seed. That cell sits on the planner's 5 %
    // threshold, and a count that wandered across it would flip the
    // plan, and the cost of a fifth of the workload, with the seed.
    let mut prices: Vec<i64> = (0..rows).map(|i| (i * 1000 / rows) as i64).collect();
    for i in (1..rows).rev() {
        prices.swap(i, rng.gen_range(0..=i));
    }
    let mut table = Table::new("catalog", schema);
    for price in prices {
        let title = &names[rng.gen_range(0..names.len())];
        let category = CATEGORIES[rng.gen_range(0..CATEGORIES.len())];
        let mut body = String::from(category);
        for _ in 0..rng.gen_range(8..16usize) {
            body.push(' ');
            body.push_str(DESC_WORDS[desc.sample(&mut rng)]);
        }
        table.insert(Record::new(vec![
            Value::Text(title.clone()),
            Value::Text(body),
            Value::Text(category.to_string()),
            Value::Int(price),
        ]));
    }
    let mut indexed = IndexedTable::new(table);
    indexed
        .create_index("category", IndexKind::Hash)
        .expect("category column exists");
    indexed
        .create_index("price", IndexKind::Ordered)
        .expect("price column exists");
    indexed
        .enable_fulltext(&[("title", 2.0), ("body", 1.0)])
        .expect("text columns exist");
    indexed.optimize_fulltext();
    indexed
}

/// A pool of shopper queries over the catalog vocabulary: one or two
/// words of a product name, sometimes narrowed by a category or a
/// description word.
pub fn catalog_query_pool(seed: u64, names: &[String], size: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x5155_4552));
    let mut pool = Vec::with_capacity(size);
    let mut seen = std::collections::HashSet::new();
    while pool.len() < size {
        let name = names[rng.gen_range(0..names.len())].to_lowercase();
        let (first, second) = name.split_once(' ').expect("names have two words");
        let q = match rng.gen_range(0..5u32) {
            0 => name.clone(),
            1 => first.to_string(),
            2 => second.to_string(),
            3 => format!(
                "{second} {}",
                CATEGORIES[rng.gen_range(0..CATEGORIES.len())]
            ),
            _ => format!("{first} {}", DESC_WORDS[rng.gen_range(0..DESC_WORDS.len())]),
        };
        if seen.insert(q.clone()) {
            pool.push(q);
        }
    }
    pool
}

/// One page view: a query against one app, then up to two clicks.
#[derive(Debug, Clone, PartialEq)]
pub struct View {
    /// Index into the world's app list.
    pub app: usize,
    /// Query text.
    pub query: String,
    /// One uniform draw in `[0, 1)` per click; each picks an
    /// impression with probability proportional to `1 / (rank + 1)`.
    pub click_draws: Vec<f64>,
}

/// One write-then-read cycle of the `live_ingest` workload.
#[derive(Debug, Clone)]
pub struct Cycle {
    /// Pages to ingest (new URLs and re-crawls of earlier ones).
    pub pages: Vec<Page>,
    /// URLs to remove.
    pub removes: Vec<String>,
    /// Page views served after the writes.
    pub reads: Vec<View>,
}

/// One operation of a workload's stream.
#[derive(Debug, Clone)]
pub enum Op {
    /// A page view.
    View(View),
    /// A crawl batch followed by page views.
    Cycle(Cycle),
}

/// An endless, seeded stream of operations.
pub trait OpStream: Send {
    /// The next operation.
    fn next_op(&mut self) -> Op;

    /// `(position of the next operation, lap length)` when the stream
    /// replays a fixed lap; `None` when every operation is new.
    fn lap(&self) -> Option<(usize, usize)> {
        None
    }
}

/// Storefront shoppers: tenant by Zipf(0.8), query by Zipf(1.0) over
/// the shared pool, zero to two position-biased clicks.
pub struct StorefrontStream {
    rng: StdRng,
    tenants: Zipf,
    queries: Zipf,
    pool: Arc<Vec<String>>,
}

impl StorefrontStream {
    /// Stream over `apps` storefront apps and the query `pool`.
    pub fn new(seed: u64, apps: usize, pool: Arc<Vec<String>>) -> Self {
        StorefrontStream {
            rng: StdRng::seed_from_u64(mix(seed, 0x5354_4F52)),
            tenants: Zipf::new(apps, 0.8),
            queries: Zipf::new(pool.len(), 1.0),
            pool,
        }
    }
}

impl OpStream for StorefrontStream {
    fn next_op(&mut self) -> Op {
        let app = self.tenants.sample(&mut self.rng);
        let query = self.pool[self.queries.sample(&mut self.rng)].clone();
        // 50 % of views click nothing, 35 % once, 15 % twice.
        let clicks = match self.rng.gen_range(0..20u32) {
            0..=9 => 0,
            10..=16 => 1,
            _ => 2,
        };
        let click_draws = (0..clicks).map(|_| self.rng.gen::<f64>()).collect();
        Op::View(View {
            app,
            query,
            click_draws,
        })
    }
}

/// Web searchers: 1–4 Zipf-ranked words of one topic's vocabulary
/// (sometimes a general word), 15 % with a quoted two-word phrase,
/// 10 % with a `+must` and a `-not` term. Alternates between `apps`
/// apps.
pub struct WebStream {
    rng: StdRng,
    words: Zipf,
    apps: usize,
}

impl WebStream {
    /// Stream over `apps` web-vertical apps.
    pub fn new(seed: u64, apps: usize) -> Self {
        WebStream {
            rng: StdRng::seed_from_u64(mix(seed, 0x5745_4221)),
            // Every topic vocabulary has 30 words.
            words: Zipf::new(30, 1.0),
            apps,
        }
    }

    /// The next query text (no app choice).
    pub fn next_query(&mut self) -> String {
        let rng = &mut self.rng;
        let topic = Topic::ALL[rng.gen_range(0..Topic::ALL.len())];
        let vocab = topic.words();
        let n = rng.gen_range(1..=4usize);
        let mut terms: Vec<&str> = Vec::with_capacity(n);
        while terms.len() < n {
            let w = if rng.gen_bool(0.15) {
                GENERAL_WORDS[rng.gen_range(0..GENERAL_WORDS.len())]
            } else {
                vocab[self.words.sample(rng).min(vocab.len() - 1)]
            };
            if !terms.contains(&w) {
                terms.push(w);
            }
        }
        let shape = rng.gen_range(0..100u32);
        if shape < 15 && terms.len() >= 2 {
            let rest = terms[2..].join(" ");
            format!("\"{} {}\" {rest}", terms[0], terms[1])
                .trim_end()
                .to_string()
        } else if shape < 25 && terms.len() >= 3 {
            let rest = terms[2..].join(" ");
            format!("+{} -{} {rest}", terms[0], terms[1])
        } else {
            terms.join(" ")
        }
    }

    fn next_view(&mut self) -> View {
        // 70 % of views go to the first (plain) app, so the median
        // view is a plain one and the tail a customised one; an even
        // split would park the median in the gap between the two.
        let app = if self.apps == 1 || self.rng.gen_bool(0.7) {
            0
        } else {
            self.rng.gen_range(1..self.apps)
        };
        View {
            app,
            query: self.next_query(),
            click_draws: Vec::new(),
        }
    }
}

impl OpStream for WebStream {
    fn next_op(&mut self) -> Op {
        Op::View(self.next_view())
    }
}

/// Every word the catalog's text is made of: name parts, categories
/// and description words.
fn catalog_vocabulary() -> Vec<&'static str> {
    NAME_FIRST
        .iter()
        .chain(&NAME_SECOND)
        .chain(&CATEGORIES)
        .chain(&DESC_WORDS)
        .copied()
        .collect()
}

/// How far down the vocabulary a word's partner in [`hybrid_queries`]
/// sits: far enough that name words meet description words and
/// description words meet name words.
const PAIR_SHIFT: usize = 61;

/// Queries in [`hybrid_queries`]: two per vocabulary word.
pub const HYBRID_QUERIES: usize =
    2 * (NAME_FIRST.len() + NAME_SECOND.len() + CATEGORIES.len() + DESC_WORDS.len());

/// The catalog analysts' queries: every word of the vocabulary once on
/// its own and once followed by the word [`PAIR_SHIFT`] places on, in
/// seeded order. The queries are the same for every seed; the catalog
/// they run against is not. A sample drawn word by word would carry
/// the few words most rows contain anywhere between never and a dozen
/// times, and the tail of the sweep is exactly those words.
pub fn hybrid_queries(seed: u64) -> Vec<String> {
    let words = catalog_vocabulary();
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x4859_4252));
    let mut queries: Vec<String> = Vec::with_capacity(2 * words.len());
    for (i, w) in words.iter().enumerate() {
        queries.push((*w).to_string());
        queries.push(format!("{w} {}", words[(i + PAIR_SHIFT) % words.len()]));
    }
    for i in (1..queries.len()).rev() {
        queries.swap(i, rng.gen_range(0..=i));
    }
    queries
}

/// The `hybrid_sweep` lap: every query of [`hybrid_queries`] against
/// every one of the `apps` apps, once. Neighbouring views differ in
/// both query and app.
pub fn hybrid_lap(seed: u64, apps: usize) -> Vec<Op> {
    let queries = hybrid_queries(seed);
    let n = queries.len();
    (0..n * apps)
        .map(|k| {
            Op::View(View {
                app: (k / n + k % n) % apps,
                query: queries[k % n].clone(),
                click_draws: Vec::new(),
            })
        })
        .collect()
}

/// A fixed list of operations replayed lap after lap.
pub struct LapStream {
    ops: Arc<Vec<Op>>,
    drawn: usize,
}

impl LapStream {
    /// Replay `ops`, from the first.
    ///
    /// # Panics
    /// Panics on an empty lap.
    pub fn new(ops: Arc<Vec<Op>>) -> Self {
        assert!(!ops.is_empty(), "a lap holds at least one operation");
        LapStream { ops, drawn: 0 }
    }

    /// The first `n` operations of `stream`, as a lap.
    pub fn first(mut stream: impl OpStream, n: usize) -> Self {
        Self::new(Arc::new((0..n).map(|_| stream.next_op()).collect()))
    }
}

impl OpStream for LapStream {
    fn next_op(&mut self) -> Op {
        let op = self.ops[self.drawn % self.ops.len()].clone();
        self.drawn += 1;
        op
    }

    fn lap(&self) -> Option<(usize, usize)> {
        Some((self.drawn % self.ops.len(), self.ops.len()))
    }
}

/// Pages ingested and views served per `live_ingest` cycle.
pub const CYCLE_PAGES: usize = 16;
/// URLs removed per cycle.
pub const CYCLE_REMOVES: usize = 2;
/// Page views per cycle.
pub const CYCLE_READS: usize = 8;

/// The crawler beside the searchers: each cycle ingests
/// [`CYCLE_PAGES`] pages (75 % new URLs, 25 % re-crawls of pages this
/// stream ingested earlier), removes [`CYCLE_REMOVES`] URLs (one of
/// its own, one of the seed corpus) and serves [`CYCLE_READS`] views.
/// The pages are new in every cycle; the views replay the first
/// `read_lap` views of the web query stream, so every lap of the
/// timed run asks the same questions of a different index.
pub struct IngestStream {
    rng: StdRng,
    reads: Vec<View>,
    next_read: usize,
    /// `(site index, domain, topic)` of every site a page may land on.
    sites: Vec<(usize, String, Topic)>,
    /// Article URLs of the seed corpus, consumed by removals.
    seed_urls: Vec<String>,
    /// Live URLs this stream ingested: `(url, site slot)`.
    own: Vec<(String, usize)>,
    next_page: u64,
    words: Zipf,
    general: Zipf,
}

impl IngestStream {
    /// Stream over `corpus`: pages land on its non-news sites (so
    /// every one is a web-vertical article), removals draw on its
    /// article URLs.
    pub fn over(seed: u64, apps: usize, read_lap: usize, corpus: &Corpus) -> Self {
        let sites = corpus
            .sites
            .iter()
            .enumerate()
            .filter(|(_, s)| s.topic != Topic::News)
            .map(|(i, s)| (i, s.domain.clone(), s.topic))
            .collect();
        let seed_urls = corpus
            .pages
            .iter()
            .filter(|p| p.kind == PageKind::Article)
            .map(|p| p.url.clone())
            .collect();
        Self::new(seed, apps, read_lap, sites, seed_urls)
    }

    /// Stream over a corpus described by its `sites` (index, domain,
    /// topic) and the removable `seed_urls`.
    pub fn new(
        seed: u64,
        apps: usize,
        read_lap: usize,
        sites: Vec<(usize, String, Topic)>,
        seed_urls: Vec<String>,
    ) -> Self {
        assert!(!sites.is_empty(), "ingest needs at least one site");
        assert!(read_lap > 0, "the read lap holds at least one view");
        let mut web = WebStream::new(seed, apps);
        IngestStream {
            rng: StdRng::seed_from_u64(mix(seed, 0x494E_4745)),
            reads: (0..read_lap).map(|_| web.next_view()).collect(),
            next_read: 0,
            sites,
            seed_urls,
            own: Vec::new(),
            next_page: 0,
            words: Zipf::new(30, 1.0),
            general: Zipf::new(GENERAL_WORDS.len(), 1.0),
        }
    }

    /// The unique token woven into the body of this stream's `n`-th
    /// page: searching for it must find exactly that page.
    pub fn token(n: u64) -> String {
        format!("zq{n}tok")
    }

    /// The number a page URL produced by this stream carries.
    pub fn page_number(url: &str) -> Option<u64> {
        url.rsplit_once("/live-")?.1.parse().ok()
    }

    fn text(&mut self, topic: Topic, len: usize) -> String {
        let vocab = topic.words();
        let mut out = String::with_capacity(len * 8);
        for i in 0..len {
            if i > 0 {
                out.push(' ');
            }
            if self.rng.gen_bool(0.7) {
                out.push_str(vocab[self.words.sample(&mut self.rng).min(vocab.len() - 1)]);
            } else {
                out.push_str(GENERAL_WORDS[self.general.sample(&mut self.rng)]);
            }
        }
        out
    }

    fn page(&mut self, url: String, slot: usize, n: u64) -> Page {
        let (site, _, topic) = self.sites[slot].clone();
        let title_len = self.rng.gen_range(3..=5usize);
        let title = self.text(topic, title_len);
        let body_len = self.rng.gen_range(40..120usize);
        let mut body = self.text(topic, body_len);
        body.push(' ');
        body.push_str(&Self::token(n));
        Page {
            site,
            url,
            title,
            body,
            links: Vec::new(),
            kind: PageKind::Article,
        }
    }
}

impl OpStream for IngestStream {
    fn next_op(&mut self) -> Op {
        let mut pages = Vec::with_capacity(CYCLE_PAGES);
        for _ in 0..CYCLE_PAGES {
            let recrawl = !self.own.is_empty() && self.rng.gen_bool(0.25);
            let (url, slot, n) = if recrawl {
                let (url, slot) = self.own[self.rng.gen_range(0..self.own.len())].clone();
                let n = Self::page_number(&url).expect("own URLs carry their number");
                (url, slot, n)
            } else {
                let slot = self.rng.gen_range(0..self.sites.len());
                let n = self.next_page;
                self.next_page += 1;
                let url = format!("http://{}/live-{n}", self.sites[slot].1);
                self.own.push((url.clone(), slot));
                (url, slot, n)
            };
            // A re-crawl inside one batch would make "which version
            // is live" depend on batch order; keep URLs distinct.
            if pages.iter().any(|p: &Page| p.url == url) {
                continue;
            }
            pages.push(self.page(url, slot, n));
        }
        let mut removes = Vec::with_capacity(CYCLE_REMOVES);
        let candidates: Vec<usize> = (0..self.own.len())
            .filter(|&i| pages.iter().all(|p| p.url != self.own[i].0))
            .collect();
        if !candidates.is_empty() {
            let i = candidates[self.rng.gen_range(0..candidates.len())];
            removes.push(self.own.swap_remove(i).0);
        }
        if !self.seed_urls.is_empty() {
            let i = self.rng.gen_range(0..self.seed_urls.len());
            removes.push(self.seed_urls.swap_remove(i));
        }
        let reads = (0..CYCLE_READS)
            .map(|_| {
                let view = self.reads[self.next_read % self.reads.len()].clone();
                self.next_read += 1;
                view
            })
            .collect();
        Op::Cycle(Cycle {
            pages,
            removes,
            reads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn views(stream: &mut dyn OpStream, n: usize) -> Vec<String> {
        (0..n)
            .map(|_| match stream.next_op() {
                Op::View(v) => format!("{}|{}|{:?}", v.app, v.query, v.click_draws),
                Op::Cycle(c) => format!(
                    "{:?}|{:?}|{:?}",
                    c.pages
                        .iter()
                        .map(|p| (&p.url, &p.body))
                        .collect::<Vec<_>>(),
                    c.removes,
                    c.reads
                ),
            })
            .collect()
    }

    fn ingest_stream(seed: u64) -> IngestStream {
        IngestStream::new(
            seed,
            2,
            64,
            vec![(0, "a.example.com".into(), Topic::Games)],
            (0..50)
                .map(|i| format!("http://a.example.com/p-{i}"))
                .collect(),
        )
    }

    #[test]
    fn equal_seeds_give_equal_streams_and_different_seeds_do_not() {
        let pool = Arc::new(catalog_query_pool(1, &name_pool(1, 100), 50));
        type Make = Box<dyn Fn(u64) -> Box<dyn OpStream>>;
        let make: [(&str, Make); 4] = [
            (
                "storefront",
                Box::new(move |s| Box::new(StorefrontStream::new(s, 8, pool.clone()))),
            ),
            ("web", Box::new(|s| Box::new(WebStream::new(s, 2)))),
            (
                "hybrid",
                Box::new(|s| Box::new(LapStream::new(Arc::new(hybrid_lap(s, 5))))),
            ),
            ("ingest", Box::new(|s| Box::new(ingest_stream(s)))),
        ];
        for (name, f) in &make {
            let a = views(f(7).as_mut(), 40);
            let b = views(f(7).as_mut(), 40);
            let c = views(f(8).as_mut(), 40);
            assert_eq!(a, b, "{name}: same seed, same stream");
            assert_ne!(a, c, "{name}: different seed, different stream");
        }
    }

    #[test]
    fn the_hybrid_lap_pairs_every_query_with_every_app_once() {
        let queries = hybrid_queries(7);
        assert_eq!(queries.len(), HYBRID_QUERIES);
        // The same queries for every seed, half of them one word;
        // only the order moves.
        let sorted = |mut qs: Vec<String>| {
            qs.sort();
            qs
        };
        let other = hybrid_queries(8);
        assert_ne!(queries, other);
        assert_eq!(sorted(queries.clone()), sorted(other));
        let alone = queries.iter().filter(|q| !q.contains(' ')).count();
        assert_eq!(alone, HYBRID_QUERIES / 2);

        let lap = hybrid_lap(7, 5);
        assert_eq!(lap.len(), HYBRID_QUERIES * 5);
        let mut seen = std::collections::HashSet::new();
        let mut last_app = usize::MAX;
        for op in &lap {
            let Op::View(v) = op else {
                panic!("the hybrid lap holds views")
            };
            assert!(seen.insert((v.app, v.query.clone())), "{v:?} twice");
            assert_ne!(v.app, last_app);
            last_app = v.app;
        }
    }

    #[test]
    fn a_lap_stream_replays_its_lap_and_knows_where_it_is() {
        let mut s = LapStream::first(WebStream::new(3, 2), 5);
        assert_eq!(s.lap(), Some((0, 5)));
        let first = views(&mut s, 5);
        assert_eq!(s.lap(), Some((0, 5)));
        assert_eq!(views(&mut s, 5), first);
        s.next_op();
        assert_eq!(s.lap(), Some((1, 5)));
        assert_eq!(first, views(&mut WebStream::new(3, 2), 5));
        // An endless stream has no lap, and its reads come round.
        let mut crawl = ingest_stream(3);
        assert_eq!(crawl.lap(), None);
        let reads = |s: &mut IngestStream| match s.next_op() {
            Op::Cycle(c) => c.reads,
            Op::View(_) => panic!("ingest stream yields cycles"),
        };
        let lap: Vec<_> = (0..64 / CYCLE_READS).map(|_| reads(&mut crawl)).collect();
        assert_eq!(reads(&mut crawl), lap[0]);
        assert_ne!(lap[0], lap[1]);
    }

    #[test]
    fn name_pool_is_distinct_and_seeded() {
        let a = name_pool(3, 1000);
        let mut sorted = a.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 1000);
        assert_eq!(a, name_pool(3, 1000));
        assert_ne!(a, name_pool(4, 1000));
    }

    #[test]
    fn catalog_has_the_stated_rows_and_indexes() {
        let names = name_pool(5, 200);
        let t = catalog(5, 1234, &names);
        assert_eq!(t.table().len(), 1234);
        assert!(t.secondary_index(COL_PRICE).is_some());
        assert!(t.secondary_index(2).is_some(), "category is indexed");
        assert_eq!(t.fulltext().expect("view enabled").live_records(), 1234);
        assert!(names.contains(
            &t.table()
                .iter()
                .next()
                .unwrap()
                .1
                .get(COL_TITLE)
                .display_string()
        ));
        // The price spread is exact: the same count under a cut-off
        // for every seed.
        let under_50 = |t: &IndexedTable| {
            t.table()
                .iter()
                .filter(|(_, r)| matches!(r.get(COL_PRICE), Value::Int(p) if *p < 50))
                .count()
        };
        assert_eq!(under_50(&t), 62);
        assert_eq!(under_50(&catalog(6, 1234, &names)), 62);
    }

    #[test]
    fn ingest_cycles_keep_urls_distinct_and_tokens_unique() {
        let mut s = ingest_stream(11);
        let mut tokens = std::collections::HashSet::new();
        for _ in 0..30 {
            let Op::Cycle(c) = s.next_op() else {
                panic!("ingest stream yields cycles")
            };
            let mut urls: Vec<&str> = c.pages.iter().map(|p| p.url.as_str()).collect();
            urls.sort_unstable();
            urls.dedup();
            assert_eq!(urls.len(), c.pages.len());
            assert_eq!(c.reads.len(), CYCLE_READS);
            for p in &c.pages {
                let n = IngestStream::page_number(&p.url).unwrap();
                assert!(p.body.ends_with(&IngestStream::token(n)));
                tokens.insert(n);
            }
            for r in &c.removes {
                assert!(c.pages.iter().all(|p| &p.url != r));
            }
        }
        assert!(tokens.len() > 200);
    }
}
