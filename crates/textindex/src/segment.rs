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
//! Separately, [`SegmentBuilder`] is the per-thread builder for the
//! parallel batch build:
//!
//! [`Index::build_parallel`](crate::Index::build_parallel) partitions a
//! document batch into contiguous chunks, hands each chunk to one
//! [`SegmentBuilder`] on its own thread (independent lexicon and
//! postings — no shared locks on the hot loop), and then folds the
//! finished [`Segment`]s back into the single-`Index` representation
//! with a deterministic merge. Determinism falls out of two choices:
//!
//! 1. **Contiguous partitioning.** Chunk `i` holds global doc ids
//!    `[base_i, base_i + len_i)`, so concatenating each term's segment
//!    posting lists in chunk order yields exactly the doc-ordered list
//!    a sequential build would have produced.
//! 2. **First-encounter lexicon merge.** Each segment's local lexicon
//!    is in first-encounter order within its chunk; appending segments
//!    in chunk order with append-if-absent interning reproduces the
//!    global first-encounter order of a sequential pass, so merged
//!    term ids are bit-identical to sequential ones.

use crate::analysis::{Analyzer, TokenScratch};
use crate::fx::FxHashMap;
use crate::index::{Doc, FieldId, TermScoreStats};
use crate::lexicon::{Lexicon, TermId};
use crate::postings::{CompressedPostings, PostingList, PostingsCursor};
use crate::DocId;
use std::ops::Range;

/// The mutable in-memory segment (memtable): raw posting lists keyed
/// by **global** term id, covering docs `[base, base + docs)`.
#[derive(Debug, Default)]
pub(crate) struct ActiveSegment {
    /// Global doc id of the first document in this segment.
    pub(crate) base: u32,
    /// Documents added since the last seal.
    pub(crate) docs: u32,
    /// Raw doc-ordered posting lists, global term ids.
    pub(crate) postings: FxHashMap<(TermId, FieldId), PostingList>,
    /// Per field (grown on demand), the smallest non-zero analysed
    /// length among this segment's documents; `u32::MAX` until one is
    /// noted. Shared by every list of the field: a lower bound over a
    /// superset of any one list's documents, which only loosens a score
    /// bound (rank-safe, as for tombstones).
    min_len: Vec<u32>,
}

impl ActiveSegment {
    /// Fresh empty memtable starting at `base`.
    pub(crate) fn starting_at(base: u32) -> Self {
        ActiveSegment {
            base,
            ..ActiveSegment::default()
        }
    }

    /// Fold one document's analysed length of `field` into the
    /// segment's per-field minimum (zero lengths — the doc lacks the
    /// field — are skipped).
    pub(crate) fn note_len(&mut self, field: usize, len: u32) {
        if len == 0 {
            return;
        }
        if self.min_len.len() <= field {
            self.min_len.resize(field + 1, u32::MAX);
        }
        self.min_len[field] = self.min_len[field].min(len);
    }
}

/// An immutable sealed segment: block-compressed postings keyed by
/// **global** term id, each stored with the score-bound ingredients
/// computed when the segment was sealed or last merged.
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
    /// score-bound ingredients; doc ids global, term ids global.
    pub(crate) postings: FxHashMap<(TermId, FieldId), (CompressedPostings, TermScoreStats)>,
}

impl SealedSegment {
    /// Approximate heap bytes held by the segment's posting data.
    pub(crate) fn postings_bytes(&self) -> usize {
        self.postings.values().map(|(c, _)| c.byte_len()).sum()
    }
}

/// One segment as reads see it, sealed or memtable alike.
#[derive(Clone, Copy)]
pub(crate) enum SegmentView<'a> {
    Sealed(&'a SealedSegment),
    Active(&'a ActiveSegment),
}

impl<'a> SegmentView<'a> {
    /// The doc-id range the segment covers.
    pub(crate) fn range(self) -> Range<u32> {
        let (base, docs) = match self {
            SegmentView::Sealed(s) => (s.base, s.docs),
            SegmentView::Active(a) => (a.base, a.docs),
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
                postings: ListRef::Packed(packed),
                stats: *stats,
            }),
            SegmentView::Active(a) => a.postings.get(&key).map(|raw| {
                // A list in `field` means some document of the segment
                // has tokens there, and `Index::add` noted its length.
                let min_len = a.min_len[field.0 as usize];
                debug_assert_ne!(min_len, u32::MAX, "memtable list without a noted length");
                SegmentList {
                    postings: ListRef::Raw(raw),
                    stats: TermScoreStats {
                        max_tf: raw.max_tf(),
                        min_len,
                    },
                }
            }),
        }
    }
}

#[derive(Clone, Copy)]
enum ListRef<'a> {
    Raw(&'a PostingList),
    Packed(&'a CompressedPostings),
}

/// One segment's posting list for a `(term, field)`, found with a
/// single map lookup: everything a reader sets up from it.
#[derive(Clone, Copy)]
pub(crate) struct SegmentList<'a> {
    postings: ListRef<'a>,
    /// Score-bound ingredients valid for every live document on this
    /// list (and only claimed for this segment's documents).
    pub(crate) stats: TermScoreStats,
}

impl<'a> SegmentList<'a> {
    /// Open a cursor positioned on the list's first posting.
    pub(crate) fn cursor(self) -> PostingsCursor<'a> {
        match self.postings {
            ListRef::Raw(l) => PostingsCursor::Raw(l.cursor()),
            ListRef::Packed(c) => PostingsCursor::Compressed(c.cursor()),
        }
    }

    /// Documents on the list (tombstoned ones included until a merge).
    pub(crate) fn doc_count(self) -> usize {
        match self.postings {
            ListRef::Raw(l) => l.doc_count(),
            ListRef::Packed(c) => c.doc_count(),
        }
    }

    /// Visit every `(doc, positions)` pair in doc order.
    pub(crate) fn for_each(self, mut f: impl FnMut(DocId, &[u32])) {
        match self.postings {
            ListRef::Raw(l) => {
                for (doc, positions) in l.iter() {
                    f(doc, positions);
                }
            }
            ListRef::Packed(c) => c.for_each(f),
        }
    }
}

/// The output of one [`SegmentBuilder`]: a self-contained slice of the
/// index covering a contiguous global doc-id range. Term ids are local
/// to the segment's lexicon; doc ids are already global.
pub(crate) struct Segment {
    /// Local term interner, in first-encounter order within the chunk.
    pub(crate) lexicon: Lexicon,
    /// Postings keyed by (local term id, field); doc ids are global.
    pub(crate) postings: FxHashMap<(TermId, FieldId), PostingList>,
    /// Per field, per chunk-local doc: analyzed token count.
    pub(crate) field_len: Vec<Vec<u32>>,
    /// Per field: sum of analyzed lengths over the chunk.
    pub(crate) total_len: Vec<u64>,
    /// Stored field text per chunk-local doc (empty rows when the
    /// index does not store text, mirroring `Index::add`).
    pub(crate) stored: Vec<Vec<(FieldId, String)>>,
    /// Documents in this segment.
    pub(crate) docs: u32,
}

/// Builds one [`Segment`] over a contiguous chunk of documents. Owns
/// every mutable structure it touches, so the per-document hot loop
/// takes no locks and shares nothing with sibling builders.
pub(crate) struct SegmentBuilder<'a> {
    analyzer: &'a dyn Analyzer,
    store_text: bool,
    num_fields: usize,
    /// Global doc id of the chunk's first document.
    base: u32,
    seg: Segment,
    /// Reused analysis staging buffers (one per builder, shared across
    /// every document in the chunk).
    scratch: TokenScratch,
}

impl<'a> SegmentBuilder<'a> {
    pub(crate) fn new(
        analyzer: &'a dyn Analyzer,
        store_text: bool,
        num_fields: usize,
        base: u32,
    ) -> Self {
        SegmentBuilder {
            analyzer,
            store_text,
            num_fields,
            base,
            seg: Segment {
                lexicon: Lexicon::new(),
                postings: FxHashMap::default(),
                field_len: vec![Vec::new(); num_fields],
                total_len: vec![0; num_fields],
                stored: Vec::new(),
                docs: 0,
            },
            scratch: TokenScratch::default(),
        }
    }

    /// Add the next document of the chunk. Mirrors `Index::add`
    /// token-for-token so the merged result is bit-identical to a
    /// sequential build.
    pub(crate) fn add(&mut self, doc: Doc) {
        let local = self.seg.docs as usize;
        let id = DocId(self.base + self.seg.docs);
        self.seg.docs += 1;
        for lens in &mut self.seg.field_len {
            lens.push(0);
        }
        for (field, text) in doc.fields() {
            let field = *field;
            assert!(
                (field.0 as usize) < self.num_fields,
                "field {} not registered with this index",
                field.0
            );
            let base_pos = self.seg.field_len[field.0 as usize][local];
            let lexicon = &mut self.seg.lexicon;
            let postings = &mut self.seg.postings;
            let mut last_pos = None;
            self.analyzer
                .analyze_with(text, &mut self.scratch, &mut |term, pos, _start, _end| {
                    last_pos = Some(pos);
                    let term = lexicon.intern(term);
                    postings
                        .entry((term, field))
                        .or_default()
                        .push_occurrence(id, base_pos + pos);
                });
            let added = last_pos.map(|p| p + 1).unwrap_or(0);
            self.seg.field_len[field.0 as usize][local] += added;
            self.seg.total_len[field.0 as usize] += added as u64;
        }
        if self.store_text {
            self.seg.stored.push(doc.into_fields());
        } else {
            self.seg.stored.push(Vec::new());
        }
    }

    pub(crate) fn finish(self) -> Segment {
        self.seg
    }
}
