//! Segment types for the index lifecycle and the parallel build.
//!
//! The index is a segment-lifecycle runtime: writes land in one
//! mutable in-memory [`ActiveSegment`] (the memtable), a seal turns it
//! into an immutable [`SealedSegment`] (compressed postings plus
//! precomputed score-bound stats), and tiered merges fold adjacent
//! sealed segments together, purging tombstoned documents and
//! rebuilding stats as they go. All segments share the index's global
//! lexicon and doc-id space, so a segment is purely a slice of the
//! posting data, and it is the unit reads run on: a [`SegmentView`]
//! answers, for either kind of segment, which doc range it covers and
//! — in one lookup per `(term, field)` — the list's cursor, doc count
//! and score-bound ingredients. The pruned executor runs segment by
//! segment in doc order with each segment's own bounds; the index-wide
//! accessors (`doc_freq`, `has_postings`, `for_each_posting`,
//! `term_score_stats`) fold over the same views.
//!
//! [`ActiveSegment`] is the one segment writer: [`ActiveSegment::add`]
//! analyses a document into raw lists and [`ActiveSegment::seal`] packs
//! them with [`seal_list`]. Both take the lexicon and the length
//! columns to write against, which is what lets two callers share them:
//!
//! - [`Index::add`](crate::Index::add) writes the memtable against the
//!   index's own lexicon and columns, and
//!   [`Index::seal`](crate::Index::seal) seals it;
//! - a worker of [`Index::build_parallel`](crate::Index::build_parallel)
//!   writes one contiguous chunk of at most
//!   [`SegmentPolicy::memtable_max_docs`](crate::SegmentPolicy::memtable_max_docs)
//!   documents into a private segment, against a private lexicon and the
//!   chunk's own columns (no shared locks on the hot loop), and seals it
//!   on the spot.
//!
//! A chunk is thus the segment a seal of the same documents produces,
//! except that its term ids are its own lexicon's. Folding the chunks in
//! doc order restores the sequential ids: a lexicon numbers terms in
//! first-encounter order, so replaying each chunk's lexicon in local-id
//! order through the index's append-if-absent `intern` meets every term
//! in the order a sequential pass over the documents meets it. A packed
//! list carries no term id, so the fold re-keys it and never re-encodes
//! it. The chunks cover adjacent doc ranges, so merging them key at a
//! time concatenates each term's lists into the one a sequential build
//! would have written.

use crate::analysis::{analyze_with, TokenScratch};
use crate::fx::FxHashMap;
use crate::index::{Doc, FieldId, TermScoreStats};
use crate::lexicon::{Lexicon, TermId};
use crate::postings::{CompressedPostings, PostingList, PostingsCursor, Source};
use crate::DocId;
use std::ops::Range;

/// A mutable in-memory segment: raw posting lists keyed by the term ids
/// of the lexicon it is written against, covering docs
/// `[base, base + docs)`. The index's memtable is one (global term ids);
/// a build worker writes its chunk into another.
#[derive(Debug, Default)]
pub(crate) struct ActiveSegment {
    /// Global doc id of the first document in this segment.
    pub(crate) base: u32,
    /// Documents added since the last seal.
    pub(crate) docs: u32,
    /// Raw doc-ordered posting lists.
    pub(crate) postings: FxHashMap<(TermId, FieldId), PostingList>,
    /// Per field, the smallest non-zero analysed length among this
    /// segment's documents; `u32::MAX` until one is noted. Shared by
    /// every list of the field: a lower bound over a superset of any one
    /// list's documents, which only loosens a score bound (rank-safe, as
    /// for tombstones).
    min_len: Vec<u32>,
}

impl ActiveSegment {
    /// Fresh empty segment starting at `base`.
    pub(crate) fn starting_at(base: u32) -> Self {
        ActiveSegment {
            base,
            ..ActiveSegment::default()
        }
    }

    /// Analyse `doc` as the segment's next document and return its id,
    /// interning its terms in `lexicon`. `lens` holds one column per
    /// registered field, with doc `d`'s length at `d - first` (the index
    /// passes its whole columns and `first = 0`, a build worker its
    /// chunk's and the chunk's first id). Every column grows by one, and
    /// a repeated field continues where its previous text ended.
    pub(crate) fn add(
        &mut self,
        scratch: &mut TokenScratch,
        lexicon: &mut Lexicon,
        lens: &mut [Vec<u32>],
        first: u32,
        doc: Doc<'_>,
    ) -> DocId {
        let id = DocId(self.base + self.docs);
        let slot = (id.0 - first) as usize;
        self.docs += 1;
        for column in lens.iter_mut() {
            column.push(0);
        }
        for (field, text) in doc.fields() {
            let field = *field;
            assert!(
                (field.0 as usize) < lens.len(),
                "field {} not registered with this index",
                field.0
            );
            let len = &mut lens[field.0 as usize][slot];
            let postings = &mut self.postings;
            let mut last_pos = None;
            analyze_with(text, scratch, |term, pos, _start, _end| {
                last_pos = Some(pos);
                postings
                    .entry((lexicon.intern(term), field))
                    .or_default()
                    .push_occurrence(id, *len + pos);
            });
            *len += last_pos.map_or(0, |p| p + 1);
        }
        // Repeated fields are concatenated by now: fold the document's
        // final lengths into the per-field minimum (a zero length — the
        // document lacks the field — bounds nothing).
        self.min_len.resize(lens.len(), u32::MAX);
        for (min, column) in self.min_len.iter_mut().zip(lens.iter()) {
            if column[slot] > 0 {
                *min = (*min).min(column[slot]);
            }
        }
        id
    }

    /// Freeze the segment: pack every list with [`seal_list`] against
    /// `lens` (indexed from `first`, as for [`ActiveSegment::add`]),
    /// dropping each raw list as soon as it is packed.
    pub(crate) fn seal(self, lens: &[Vec<u32>], first: u32) -> SealedSegment {
        let postings = self
            .postings
            .into_iter()
            .map(|(key, list)| (key, seal_list(&list, &lens[key.1 .0 as usize], first)))
            .collect();
        SealedSegment {
            base: self.base,
            docs: self.docs,
            purged: 0,
            postings,
        }
    }
}

/// An immutable sealed segment: block-compressed postings keyed by
/// **global** term id (a build chunk's by its own until the fold
/// re-keys them), each stored with the score-bound ingredients computed
/// when the segment was sealed or last merged.
#[derive(Debug)]
pub(crate) struct SealedSegment {
    /// Global doc id of the first document in the segment's range.
    pub(crate) base: u32,
    /// Width of the covered doc-id range (tombstoned docs included;
    /// purged docs leave holes, ids are never renumbered).
    pub(crate) docs: u32,
    /// Range docs that were already tombstoned *and purged from the
    /// lists* when this segment was built. The difference between the
    /// current tombstone count over the range and this number is the
    /// segment's pending-garbage count, which drives compaction.
    pub(crate) purged: u32,
    /// Compressed posting lists with their (exact, as of the build)
    /// score-bound ingredients; doc ids global.
    pub(crate) postings: FxHashMap<(TermId, FieldId), (CompressedPostings, TermScoreStats)>,
}

/// One segment as reads see it, sealed or memtable alike. The memtable
/// comes with the index's per-field length columns, which its lists'
/// cursors bound blocks with.
#[derive(Clone, Copy)]
pub(crate) enum SegmentView<'a> {
    Sealed(&'a SealedSegment),
    Active(&'a ActiveSegment, &'a [Vec<u32>]),
}

impl<'a> SegmentView<'a> {
    /// The doc-id range the segment covers.
    pub(crate) fn range(self) -> Range<u32> {
        let (base, docs) = match self {
            SegmentView::Sealed(s) => (s.base, s.docs),
            SegmentView::Active(a, _) => (a.base, a.docs),
        };
        base..base + docs
    }

    /// The segment's posting list for `(term, field)`, or `None` when
    /// no document of the segment contains it. A memtable list's stats
    /// are its exact `max_tf` and the segment-wide per-field `min_len`.
    pub(crate) fn list(self, term: TermId, field: FieldId) -> Option<SegmentList<'a>> {
        let key = (term, field);
        match self {
            SegmentView::Sealed(s) => s.postings.get(&key).map(|(packed, stats)| SegmentList {
                postings: Source::Packed(packed),
                stats: *stats,
            }),
            SegmentView::Active(a, lens) => a.postings.get(&key).map(|raw| {
                // A list in `field` means some document of the segment
                // has tokens there, and `Index::add` noted its length.
                let min_len = a.min_len[field.0 as usize];
                debug_assert_ne!(min_len, u32::MAX, "memtable list without a noted length");
                SegmentList {
                    postings: Source::Raw(raw, &lens[field.0 as usize]),
                    stats: TermScoreStats {
                        max_tf: raw.max_tf(),
                        min_len,
                    },
                }
            }),
        }
    }
}

/// One segment's posting list for a `(term, field)`, found with a
/// single map lookup: everything a reader sets up from it.
#[derive(Clone, Copy)]
pub(crate) struct SegmentList<'a> {
    postings: Source<'a>,
    /// Score-bound ingredients valid for every live document on this
    /// list (and only claimed for this segment's documents).
    pub(crate) stats: TermScoreStats,
}

impl<'a> SegmentList<'a> {
    /// Open a cursor positioned on the list's first posting.
    pub(crate) fn cursor(self) -> PostingsCursor<'a> {
        PostingsCursor::new(self.postings)
    }

    /// Documents on the list (tombstoned ones included until a merge).
    pub(crate) fn doc_count(self) -> usize {
        self.postings.doc_count()
    }
}

/// Freeze one raw list for a sealed segment: its packed form (block
/// peaks included) and exact score-bound ingredients, both read off
/// the raw list (nothing is decoded back). A document's length is
/// `lens[doc - first]`: the index passes a whole field column
/// (`first = 0`), a build worker its chunk's column. `min_len` is the
/// smallest *non-zero* length on the list (zero lengths are either
/// pre-registration backfill or reclaimed tombstones; excluding them
/// is rank-safe because every live document containing the term has
/// length >= 1).
pub(crate) fn seal_list(
    list: &PostingList,
    lens: &[u32],
    first: u32,
) -> (CompressedPostings, TermScoreStats) {
    let min_len = list
        .iter()
        .map(|(doc, _)| lens[(doc.0 - first) as usize])
        .filter(|&len| len > 0)
        .min()
        // All lengths zero can only happen on inconsistent input;
        // clamp to the smallest real length.
        .unwrap_or(1);
    let stats = TermScoreStats {
        max_tf: list.max_tf(),
        min_len,
    };
    (CompressedPostings::encode_at(list, lens, first), stats)
}

/// One bulk-build chunk as its worker sealed it: the segment a seal of
/// the same documents produces, keyed by the chunk's own term ids.
pub(crate) struct PackedChunk {
    /// Local term interner, in first-encounter order within the chunk.
    pub(crate) lexicon: Lexicon,
    /// Packed lists with exact stats, keyed by (local term id, field);
    /// doc ids are global.
    pub(crate) segment: SealedSegment,
    /// Per field, per chunk-local doc: analysed token count.
    pub(crate) lens: Vec<Vec<u32>>,
}
