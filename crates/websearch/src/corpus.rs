//! Deterministic synthetic web corpus.
//!
//! The substitution for Bing's crawl (DESIGN.md): a seeded generator
//! produces topical sites with quality scores, pages with
//! Zipf-weighted topical text, a link graph, and media/news objects
//! for the image/video/news verticals. Application scenarios inject
//! *entities* (game titles, wines, movies) and the generator weaves
//! review pages, screenshots, trailers, and news mentions around them
//! on the authoritative sites — exactly the supplemental content the
//! paper's GamerQueen example retrieves.

use crate::topic::{Topic, GENERAL_WORDS};
use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Configuration for [`Corpus::generate`].
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// RNG seed; equal seeds produce byte-identical corpora.
    pub seed: u64,
    /// Generic (non-authoritative) sites generated per topic.
    pub sites_per_topic: usize,
    /// Article pages per site.
    pub pages_per_site: usize,
    /// Named entities to weave in, with their topic.
    pub entities: Vec<(Topic, String)>,
    /// Zipf exponent for word sampling.
    pub zipf_s: f64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            seed: 42,
            sites_per_topic: 6,
            pages_per_site: 12,
            entities: Vec::new(),
            zipf_s: 1.0,
        }
    }
}

impl CorpusConfig {
    /// Add entities for one topic.
    pub fn with_entities<I, S>(mut self, topic: Topic, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.entities
            .extend(names.into_iter().map(|n| (topic, n.into())));
        self
    }
}

/// A web site.
#[derive(Debug, Clone)]
pub struct Site {
    /// Domain ("gamespot.com").
    pub domain: String,
    /// Main topic.
    pub topic: Topic,
    /// Editorial quality in `[0, 1]`; authoritative sites are > 0.8.
    pub quality: f64,
}

/// What kind of object a page is (drives vertical membership).
#[derive(Debug, Clone, PartialEq)]
pub enum PageKind {
    /// Plain article (web vertical).
    Article,
    /// Editorial review of an entity (web vertical).
    Review {
        /// Reviewed entity name.
        entity: String,
    },
    /// An image object (image vertical).
    Image {
        /// Image file URL.
        src: String,
        /// Alt text.
        alt: String,
    },
    /// A video object (video vertical).
    Video {
        /// Duration in seconds.
        duration_s: u32,
    },
    /// A dated news article (news vertical).
    News {
        /// Publication time (epoch seconds).
        date: i64,
    },
}

/// One page of the synthetic web.
#[derive(Debug, Clone)]
pub struct Page {
    /// Index into [`Corpus::sites`].
    pub site: usize,
    /// Absolute URL.
    pub url: String,
    /// Title.
    pub title: String,
    /// Body text.
    pub body: String,
    /// Outgoing links (indexes into [`Corpus::pages`]).
    pub links: Vec<usize>,
    /// Object kind.
    pub kind: PageKind,
}

/// The generated web. Document-partitioned shard engines share one
/// copy of it (snippets, domains, static rank all key off global page
/// indexes) while indexing only their slice; `Clone` is what a live
/// ingest into a shard pays to copy it on write.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// All sites.
    pub sites: Vec<Site>,
    /// All pages.
    pub pages: Vec<Page>,
    by_url: HashMap<String, usize>,
}

/// Authoritative domains per topic — the sites the paper names
/// (gamespot/ign/teamxbox) plus analogues for the other scenarios.
pub(crate) fn authoritative_domains(topic: Topic) -> &'static [(&'static str, f64)] {
    match topic {
        Topic::Games => &[
            ("gamespot.com", 0.95),
            ("ign.com", 0.90),
            ("teamxbox.com", 0.85),
        ],
        Topic::Wine => &[("winespectator.com", 0.95), ("cellartracker.com", 0.88)],
        Topic::Movies => &[("imdb.com", 0.95), ("rottentomatoes.com", 0.90)],
        Topic::Health => &[("webmd.com", 0.95)],
        Topic::Travel => &[("expedia.com", 0.92)],
        Topic::News => &[("worldnews.com", 0.90)],
    }
}

/// Epoch of 2009-01-01, the base for synthetic news dates (the paper's
/// era).
const NEWS_EPOCH: i64 = 1_230_768_000;

impl Corpus {
    /// Generate a corpus from `config` (deterministic per seed).
    pub fn generate(config: &CorpusConfig) -> Corpus {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut sites = Vec::new();
        let mut pages: Vec<Page> = Vec::new();

        for topic in Topic::ALL {
            for (domain, quality) in authoritative_domains(topic) {
                sites.push(Site {
                    domain: domain.to_string(),
                    topic,
                    quality: *quality,
                });
            }
            for i in 0..config.sites_per_topic {
                let w1 = topic.words()[rng.gen_range(0..topic.words().len())];
                let w2 = GENERAL_WORDS[rng.gen_range(0..GENERAL_WORDS.len())];
                sites.push(Site {
                    domain: format!("{w1}{w2}{i}.example.com"),
                    topic,
                    quality: rng.gen_range(0.2..0.8),
                });
            }
        }

        // Article pages for every site.
        for (site_idx, site) in sites.iter().enumerate() {
            let zipf_topic = Zipf::new(site.topic.words().len(), config.zipf_s);
            let zipf_general = Zipf::new(GENERAL_WORDS.len(), config.zipf_s);
            for p in 0..config.pages_per_site {
                let title = title_words(&mut rng, site.topic, &zipf_topic);
                let body = body_text(&mut rng, site.topic, &zipf_topic, &zipf_general);
                let kind = if site.topic == Topic::News || rng.gen_bool(0.12) {
                    PageKind::News {
                        date: NEWS_EPOCH + rng.gen_range(0..300) * 86_400,
                    }
                } else {
                    PageKind::Article
                };
                pages.push(Page {
                    site: site_idx,
                    url: format!("http://{}/{}-{p}", site.domain, slug(&title)),
                    title,
                    body,
                    links: Vec::new(),
                    kind,
                });
            }
        }

        // Entity pages: reviews on authoritative sites, plus media and
        // news mentions.
        for (topic, entity) in &config.entities {
            let hosts: Vec<usize> = sites
                .iter()
                .enumerate()
                .filter(|(_, s)| s.topic == *topic && s.quality > 0.8)
                .map(|(i, _)| i)
                .collect();
            let zipf_topic = Zipf::new(topic.words().len(), config.zipf_s);
            let zipf_general = Zipf::new(GENERAL_WORDS.len(), config.zipf_s);
            for &host in &hosts {
                let domain = sites[host].domain.clone();
                // Review article.
                let mut body = format!(
                    "{entity} review. Our verdict on {entity}: {}. ",
                    if sites[host].quality > 0.9 {
                        "a must play"
                    } else {
                        "worth a look"
                    }
                );
                body.push_str(&body_text(&mut rng, *topic, &zipf_topic, &zipf_general));
                body.push_str(&format!(" More about {entity} inside."));
                pages.push(Page {
                    site: host,
                    url: format!("http://{domain}/review/{}", slug(entity)),
                    title: format!("{entity} review"),
                    body,
                    links: Vec::new(),
                    kind: PageKind::Review {
                        entity: entity.clone(),
                    },
                });
                // Screenshot / image object.
                pages.push(Page {
                    site: host,
                    url: format!("http://{domain}/media/{}.jpg.html", slug(entity)),
                    title: format!("{entity} screenshot"),
                    body: format!("official {entity} screenshot gallery"),
                    links: Vec::new(),
                    kind: PageKind::Image {
                        src: format!("http://{domain}/img/{}.jpg", slug(entity)),
                        alt: format!("{entity} screenshot"),
                    },
                });
                // Trailer / video object.
                pages.push(Page {
                    site: host,
                    url: format!("http://{domain}/video/{}", slug(entity)),
                    title: format!("{entity} trailer"),
                    body: format!("watch the {entity} trailer in high definition"),
                    links: Vec::new(),
                    kind: PageKind::Video {
                        duration_s: rng.gen_range(60..240),
                    },
                });
            }
            // One news mention on a news site.
            if let Some((news_host, _)) = sites
                .iter()
                .enumerate()
                .find(|(_, s)| s.topic == Topic::News)
            {
                pages.push(Page {
                    site: news_host,
                    url: format!("http://{}/story/{}", sites[news_host].domain, slug(entity)),
                    title: format!("{entity} makes headlines"),
                    body: format!(
                        "industry report: {entity} draws attention this week. analysts comment."
                    ),
                    links: Vec::new(),
                    kind: PageKind::News {
                        date: NEWS_EPOCH + rng.gen_range(0..300) * 86_400,
                    },
                });
            }
        }

        // Link graph: 2..5 outlinks per page, biased toward same-topic
        // high-quality targets (gives PageRank a signal correlated with
        // editorial quality).
        let n = pages.len();
        if n > 1 {
            for i in 0..n {
                let out = rng.gen_range(2..=5usize);
                let my_topic = sites[pages[i].site].topic;
                let mut links = Vec::with_capacity(out);
                for _ in 0..out {
                    // Rejection-sample a target preferring same topic
                    // and quality.
                    let mut best = None;
                    for _ in 0..6 {
                        let t = rng.gen_range(0..n);
                        if t == i {
                            continue;
                        }
                        let s = &sites[pages[t].site];
                        let affinity = if s.topic == my_topic { 0.6 } else { 0.1 };
                        if rng.gen_bool((affinity + 0.4 * s.quality).min(1.0)) {
                            best = Some(t);
                            break;
                        }
                        best.get_or_insert(t);
                    }
                    if let Some(t) = best {
                        if !links.contains(&t) {
                            links.push(t);
                        }
                    }
                }
                pages[i].links = links;
            }
        }

        let by_url = pages
            .iter()
            .enumerate()
            .map(|(i, p)| (p.url.clone(), i))
            .collect();
        Corpus {
            sites,
            pages,
            by_url,
        }
    }

    /// Append a freshly crawled page, registering its URL. The page's
    /// `site` must reference an existing site and its URL must be new
    /// (re-crawls of a known URL go through
    /// [`SearchEngine::ingest_page`](crate::engine::SearchEngine::ingest_page),
    /// which replaces the page in place instead).
    pub(crate) fn push_page(&mut self, page: Page) -> usize {
        assert!(page.site < self.sites.len(), "page references unknown site");
        let idx = self.pages.len();
        let prev = self.by_url.insert(page.url.clone(), idx);
        assert!(prev.is_none(), "URL already in corpus: {}", page.url);
        self.pages.push(page);
        idx
    }

    /// Look up a page by URL.
    pub fn page_by_url(&self, url: &str) -> Option<&Page> {
        self.by_url.get(url).map(|&i| &self.pages[i])
    }

    /// Position of a page in [`Corpus::pages`], looked up by URL.
    pub fn page_index_by_url(&self, url: &str) -> Option<usize> {
        self.by_url.get(url).copied()
    }

    /// Domain of the page at `idx`.
    pub(crate) fn domain(&self, idx: usize) -> &str {
        &self.sites[self.pages[idx].site].domain
    }

    /// Site quality of the page at `idx`.
    pub(crate) fn quality(&self, idx: usize) -> f64 {
        self.sites[self.pages[idx].site].quality
    }
}

fn slug(title: &str) -> String {
    let mut s: String = title
        .to_lowercase()
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '-' })
        .collect();
    while s.contains("--") {
        s = s.replace("--", "-");
    }
    s.trim_matches('-').to_string()
}

fn title_words(rng: &mut StdRng, topic: Topic, zipf: &Zipf) -> String {
    let n = rng.gen_range(3..=5);
    let words = topic.words();
    let mut title = String::new();
    for i in 0..n {
        if i > 0 {
            title.push(' ');
        }
        let w = words[zipf.sample(rng)];
        // Capitalize.
        let mut cs = w.chars();
        if let Some(c) = cs.next() {
            title.extend(c.to_uppercase());
            title.push_str(cs.as_str());
        }
    }
    title
}

fn body_text(rng: &mut StdRng, topic: Topic, zipf_topic: &Zipf, zipf_general: &Zipf) -> String {
    let len = rng.gen_range(40..120);
    let words = topic.words();
    let mut body = String::with_capacity(len * 8);
    for i in 0..len {
        if i > 0 {
            body.push(' ');
        }
        if rng.gen_bool(0.7) {
            body.push_str(words[zipf_topic.sample(rng)]);
        } else {
            body.push_str(GENERAL_WORDS[zipf_general.sample(rng)]);
        }
    }
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CorpusConfig {
        CorpusConfig {
            sites_per_topic: 2,
            pages_per_site: 4,
            ..CorpusConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Corpus::generate(&small());
        let b = Corpus::generate(&small());
        assert_eq!(a.pages.len(), b.pages.len());
        for (x, y) in a.pages.iter().zip(&b.pages) {
            assert_eq!(x.url, y.url);
            assert_eq!(x.body, y.body);
            assert_eq!(x.links, y.links);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Corpus::generate(&small());
        let b = Corpus::generate(&CorpusConfig {
            seed: 43,
            ..small()
        });
        assert!(a.pages.iter().zip(&b.pages).any(|(x, y)| x.body != y.body));
    }

    #[test]
    fn authoritative_sites_present() {
        let c = Corpus::generate(&small());
        assert!(c.sites.iter().any(|s| s.domain == "gamespot.com"));
        assert!(c.sites.iter().any(|s| s.domain == "winespectator.com"));
    }

    #[test]
    fn urls_are_unique_and_resolvable() {
        let c = Corpus::generate(&small());
        assert_eq!(c.by_url.len(), c.pages.len());
        for p in &c.pages {
            assert_eq!(c.page_by_url(&p.url).unwrap().url, p.url);
        }
    }

    #[test]
    fn entities_get_reviews_media_and_news() {
        let cfg = small().with_entities(Topic::Games, ["Galactic Raiders"]);
        let c = Corpus::generate(&cfg);
        let reviews: Vec<&Page> = c
            .pages
            .iter()
            .filter(
                |p| matches!(&p.kind, PageKind::Review { entity } if entity == "Galactic Raiders"),
            )
            .collect();
        // One review per authoritative games site.
        assert_eq!(reviews.len(), 3);
        assert!(reviews
            .iter()
            .any(|p| c.sites[p.site].domain == "gamespot.com"));
        assert!(c
            .pages
            .iter()
            .any(|p| matches!(&p.kind, PageKind::Image { alt, .. } if alt.contains("Galactic"))));
        assert!(c
            .pages
            .iter()
            .any(|p| matches!(&p.kind, PageKind::Video { .. }) && p.title.contains("Galactic")));
        assert!(c
            .pages
            .iter()
            .any(|p| matches!(&p.kind, PageKind::News { .. }) && p.title.contains("Galactic")));
    }

    #[test]
    fn links_point_to_valid_pages_and_not_self() {
        let c = Corpus::generate(&small());
        for (i, p) in c.pages.iter().enumerate() {
            for &l in &p.links {
                assert!(l < c.pages.len());
                assert_ne!(l, i);
            }
        }
    }

    #[test]
    fn news_sites_produce_dated_pages() {
        let c = Corpus::generate(&small());
        let news_pages = c
            .pages
            .iter()
            .filter(|p| matches!(p.kind, PageKind::News { .. }))
            .count();
        assert!(news_pages > 0);
    }

    #[test]
    fn slugs_are_url_safe() {
        assert_eq!(slug("Galactic Raiders!"), "galactic-raiders");
        assert_eq!(slug("  a  b  "), "a-b");
    }
}
