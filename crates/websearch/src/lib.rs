//! # symphony-web
//!
//! The simulated general web search engine — the reproduction's
//! substitute for the Bing infrastructure Symphony was built on
//! (see the substitution table in DESIGN.md).
//!
//! * [`topic`] — topical vocabularies for the synthetic web.
//! * `corpus` — deterministic site/page/link-graph generator with
//!   entity weaving (reviews, screenshots, trailers, news mentions).
//! * `pagerank` — static rank from the link graph + site quality.
//! * [`engine`] — the four verticals (web/image/video/news) with the
//!   customization hooks Symphony exposes: site restriction, query
//!   augmentation, preferred sites.
//! * `logs` — synthetic query/click sessions with position bias.
//! * `sitesuggest` — the paper's Site Suggest feature (ref [2]).
//! * `fetcher` — lets the store's crawler crawl the synthetic web.
//!
//! ## Quick example
//!
//! ```
//! use symphony_web::{Corpus, CorpusConfig, SearchConfig, SearchEngine, Topic, Vertical};
//!
//! let config = CorpusConfig::default().with_entities(Topic::Games, ["Galactic Raiders"]);
//! let engine = SearchEngine::new(Corpus::generate(&config));
//! let results = engine.search(
//!     Vertical::Web,
//!     "Galactic Raiders review",
//!     &SearchConfig::default().restrict_to(["gamespot.com", "ign.com"]),
//!     5,
//! );
//! assert!(results.iter().all(|r| r.domain == "gamespot.com" || r.domain == "ign.com"));
//! ```

#![warn(missing_docs)]

mod corpus;
pub mod engine;
mod fetcher;
mod logs;
mod pagerank;
mod sitesuggest;
pub mod topic;
pub mod zipf;

pub use corpus::{Corpus, CorpusConfig, Page, PageKind};
pub use engine::{
    PageFields, PoolEntry, SearchConfig, SearchEngine, ShardPool, Vertical, WebResult,
};
pub use fetcher::CorpusFetcher;
pub use logs::{generate_logs, LogConfig};
pub use sitesuggest::SiteSuggest;
pub use topic::Topic;
