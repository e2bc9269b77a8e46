//! # symphony-text
//!
//! Full-text indexing and retrieval substrate for the Symphony
//! reproduction.
//!
//! Symphony (Shafer, Agrawal, Lauw; ICDE 2010) runs on top of a general
//! web search engine and also provides "storage and indexing" for the
//! application designer's proprietary data. Both sides need the same
//! machinery: an analyzer, an inverted index, a ranking function, and
//! snippet generation. This crate provides that machinery; the
//! `symphony-web` crate builds the simulated web search engine on top of
//! it, and `symphony-store` uses it to make proprietary tables
//! searchable.
//!
//! ## Overview
//!
//! * [`analysis`] — tokenization, stopwords, light stemming.
//! * `lexicon` — term interning.
//! * [`postings`] — positional posting lists, raw in the memtable and
//!   block bit-packed once sealed.
//! * `index` — the inverted index, organized as a segment-lifecycle
//!   runtime: incremental add/update into a mutable memtable, tombstone
//!   delete, sealed immutable segments, tiered merges.
//! * [`query`] — the user-facing query language (`term`, `"a phrase"`,
//!   `+must`, `-not`, `field:term`).
//! * `search` — BM25 top-k execution.
//! * [`snippet`] — best-window snippet extraction with highlighting.
//! * [`spell`] — "did you mean" suggestions from the lexicon.
//!
//! ## Quick example
//!
//! ```
//! use symphony_text::{Doc, Index, IndexConfig, Query, Searcher};
//!
//! let mut index = Index::new(IndexConfig::default());
//! let title = index.register_field("title", 2.0);
//! let body = index.register_field("body", 1.0);
//! index.add(Doc::new().field(title, "Galactic Raiders").field(body, "a space shooter game"));
//! index.add(Doc::new().field(title, "Farm Story").field(body, "a calm farming game"));
//!
//! let hits = Searcher::new(&index).search(&Query::parse("space shooter"), 10);
//! assert_eq!(hits.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod analysis;
mod docset;
mod fx;
mod index;
mod lexicon;
pub mod postings;
pub mod query;
mod search;
mod segment;
pub mod snippet;
pub mod spell;

pub use analysis::TokenScratch;
pub use docset::DocSet;
pub use index::{
    default_build_threads, Doc, FieldId, Index, IndexConfig, MaintenanceReport, SegmentPolicy,
};
pub use lexicon::Lexicon;
pub use query::Query;
pub use search::{GlobalScoreStats, SearchHit, Searcher};

/// Identifier of a document inside one [`Index`].
///
/// Doc ids are dense, assigned in insertion order, and never reused;
/// deletion is a tombstone (see [`Index::delete`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DocId(pub u32);

impl DocId {
    /// The doc id as a usize, for indexing into per-document arrays.
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}
