//! The inverted index — a segment-lifecycle runtime.
//!
//! Writes land in a mutable in-memory segment (the *memtable*);
//! [`Index::seal`] freezes it into an immutable, compressed
//! [`SealedSegment`] with precomputed score-bound stats, and
//! [`Index::maintain`] drives tiered background merges that fold
//! adjacent sealed segments together, purging tombstoned documents and
//! rebuilding document frequencies and score stats as they go. Reads
//! visit the segments in doc order (the pruned executor runs one
//! segment at a time with that segment's score bounds), so the segment
//! structure is invisible to query semantics.
//!
//! The lifecycle, in order:
//!
//! 1. **memtable** — [`Index::add`] appends to raw posting lists,
//!    which carry dominating [`TermScoreStats`] as they are written;
//!    documents are searchable immediately (or, under a
//!    near-real-time [`SegmentPolicy`], within the configured
//!    staleness window).
//! 2. **sealed** — [`Index::seal`] compresses the memtable's lists and
//!    computes exact per-list [`TermScoreStats`]; the segment never
//!    mutates again.
//! 3. **merged** — [`Index::maintain`] merges runs of same-tier
//!    adjacent segments (and rewrites tombstone-heavy ones), keeping
//!    the segment count — hence read amplification — flat while
//!    physically removing deleted documents.
//!
//! [`Index::optimize`] is the degenerate case: seal, then merge
//! everything into a single fully-compacted segment.

use crate::analysis::{Analyzer, StandardAnalyzer, TokenScratch};
use crate::fx::FxHashMap;
use crate::lexicon::{Lexicon, TermId};
use crate::postings::{CompressedPostings, PostingList, PostingsCursor};
use crate::segment::{
    ActiveSegment, SealedSegment, Segment, SegmentBuilder, SegmentList, SegmentView,
};
use crate::DocId;
use std::collections::hash_map::Entry;

/// Upper bound on worker threads for [`Index::build_parallel`],
/// mirroring the serving path's `MAX_FANOUT_WORKERS` cap.
pub const MAX_BUILD_WORKERS: usize = 16;

/// Default build parallelism: available cores, capped at
/// [`MAX_BUILD_WORKERS`].
pub fn default_build_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_BUILD_WORKERS)
}

/// Identifier of a registered field within one index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FieldId(pub u16);

/// Static configuration of an [`Index`].
pub struct IndexConfig {
    /// Analyzer applied to every field at index and query time.
    pub analyzer: Box<dyn Analyzer>,
    /// Whether original field text is retained (needed for snippets
    /// when the caller does not keep documents elsewhere).
    pub store_text: bool,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            analyzer: Box::new(StandardAnalyzer::new()),
            store_text: true,
        }
    }
}

impl std::fmt::Debug for IndexConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexConfig")
            .field("store_text", &self.store_text)
            .finish_non_exhaustive()
    }
}

/// Segment-lifecycle tuning knobs for one [`Index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentPolicy {
    /// [`Index::maintain`] seals the memtable once it holds this many
    /// documents, regardless of elapsed time.
    pub memtable_max_docs: u32,
    /// [`Index::maintain`] seals a non-empty memtable once this much
    /// (virtual) time has passed since the last seal. Under a
    /// near-real-time policy this is the staleness bound: a document
    /// becomes searchable no later than one window after it was added,
    /// provided maintenance ticks run.
    pub staleness_window_ms: u64,
    /// Merge whenever this many adjacent sealed segments occupy the
    /// same size tier (clamped to at least 2).
    pub merge_fanin: usize,
    /// When `true`, memtable documents stay invisible to search until
    /// the next seal, so queries only ever touch immutable segments
    /// (bounded staleness instead of read-your-writes). The default is
    /// `false`: adds are searchable immediately.
    pub near_real_time: bool,
}

impl Default for SegmentPolicy {
    fn default() -> Self {
        SegmentPolicy {
            memtable_max_docs: 4096,
            staleness_window_ms: 1_000,
            merge_fanin: 4,
            near_real_time: false,
        }
    }
}

/// What one [`Index::maintain`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// Whether the memtable was sealed into a new immutable segment.
    pub sealed: bool,
    /// Sealed segments folded together by this call's merge step
    /// (0 when no merge ran).
    pub merged_segments: usize,
    /// Tombstoned documents physically removed from posting lists.
    pub purged_docs: usize,
}

impl MaintenanceReport {
    /// Whether the call changed the segment structure at all.
    pub fn did_work(&self) -> bool {
        self.sealed || self.merged_segments > 0
    }
}

/// A document handed to [`Index::add`]: an ordered list of
/// `(field, text)` pairs. A field may appear more than once; the texts
/// are indexed as one logical field with position gaps.
#[derive(Debug, Default, Clone)]
pub struct Doc {
    fields: Vec<(FieldId, String)>,
}

impl Doc {
    /// Empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style field append.
    pub fn field(mut self, field: FieldId, text: impl Into<String>) -> Self {
        self.fields.push((field, text.into()));
        self
    }

    /// Borrow the field/text pairs.
    pub fn fields(&self) -> &[(FieldId, String)] {
        &self.fields
    }

    /// Consume the document, yielding its field/text pairs (the stored
    /// representation).
    pub(crate) fn into_fields(self) -> Vec<(FieldId, String)> {
        self.fields
    }
}

#[derive(Debug, Clone)]
struct FieldInfo {
    name: String,
    boost: f32,
    /// Sum of analyzed lengths of this field over live documents
    /// (deleting a document gives its length back immediately); used
    /// for the BM25 average length.
    total_len: u64,
}

/// Snapshot statistics for an [`Index`].
#[derive(Debug, Clone, PartialEq)]
pub struct IndexStats {
    /// Documents ever added (tombstoned ones included).
    pub total_docs: usize,
    /// Documents not deleted.
    pub live_docs: usize,
    /// Distinct terms.
    pub terms: usize,
    /// Distinct (term, field, segment) posting lists.
    pub posting_lists: usize,
    /// Approximate heap bytes held by posting lists.
    pub postings_bytes: usize,
    /// Whether every posting list lives in a sealed (compressed)
    /// segment — i.e. the memtable is empty.
    pub fully_compressed: bool,
    /// Immutable sealed segments currently serving reads.
    pub sealed_segments: usize,
    /// Documents sitting in the mutable memtable segment.
    pub memtable_docs: usize,
}

/// Per-`(term, field)` scoring ingredients every segment keeps next
/// to its posting list: exact for a sealed segment (computed when it
/// is sealed or merged), dominating for the memtable (kept as its
/// lists are written).
///
/// These are the two document-dependent quantities a BM25 score upper
/// bound needs: the score is monotonically increasing in term
/// frequency and decreasing in field length, so
/// `bm25(max_tf, min_len)` bounds every document's contribution. The
/// bound ingredients rather than a finished score are stored because
/// the final bound also depends on searcher-supplied parameters
/// (`k1`/`b`) and on index-wide statistics (`N`, average length) that
/// keep moving as documents are added; both are folded in at query
/// time so stored stats can never go stale in the unsafe direction.
/// The pruned executor bounds each segment's documents with that
/// segment's own ingredients; [`Index::term_score_stats`] folds them
/// rank-safely (max of `max_tf`, min of `min_len`) for callers that
/// want one index-wide answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TermScoreStats {
    /// At least the largest term frequency over live documents in the
    /// posting list (tombstoned documents included — an overestimate
    /// is rank-safe).
    pub max_tf: u32,
    /// At most the smallest non-zero field length among documents in
    /// the posting list. A memtable list reports the smallest length
    /// of the field over *all* memtable documents — a lower bound over
    /// a superset, safe for the same reason.
    pub min_len: u32,
}

/// An in-memory positional inverted index with field boosts, organized
/// as a segment-lifecycle runtime (see the module docs).
pub struct Index {
    config: IndexConfig,
    fields: Vec<FieldInfo>,
    field_by_name: FxHashMap<String, FieldId>,
    /// Global term interner shared by every segment.
    lexicon: Lexicon,
    /// Immutable segments in doc-range order.
    sealed: Vec<SealedSegment>,
    /// The mutable memtable segment receiving writes.
    active: ActiveSegment,
    /// Per field, per doc: analyzed token count (0 when the doc lacks
    /// the field, and zeroed again when the doc is tombstoned).
    field_len: Vec<Vec<u32>>,
    stored: Vec<Vec<(FieldId, String)>>,
    deleted: Vec<bool>,
    live_docs: usize,
    policy: SegmentPolicy,
    /// Virtual timestamp of the last seal, for the staleness window.
    last_seal_ms: u64,
    /// Docs below this id are visible to search under a near-real-time
    /// policy (advanced by [`Index::seal`]); ignored otherwise.
    visible_limit: u32,
    /// Reused analysis staging buffers for the incremental add path.
    scratch: TokenScratch,
}

impl std::fmt::Debug for Index {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Index")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Index {
    /// Create an empty index with the default [`SegmentPolicy`].
    pub fn new(config: IndexConfig) -> Self {
        Self::with_policy(config, SegmentPolicy::default())
    }

    /// Create an empty index with an explicit segment policy.
    pub fn with_policy(config: IndexConfig, policy: SegmentPolicy) -> Self {
        Index {
            config,
            fields: Vec::new(),
            field_by_name: FxHashMap::default(),
            lexicon: Lexicon::new(),
            sealed: Vec::new(),
            active: ActiveSegment::starting_at(0),
            field_len: Vec::new(),
            stored: Vec::new(),
            deleted: Vec::new(),
            live_docs: 0,
            policy,
            last_seal_ms: 0,
            visible_limit: 0,
            scratch: TokenScratch::default(),
        }
    }

    /// The segment policy in effect.
    pub fn policy(&self) -> SegmentPolicy {
        self.policy
    }

    /// Replace the segment policy. Documents already added stay
    /// visible; only documents added afterwards wait for a seal when
    /// switching to a near-real-time policy.
    pub fn set_policy(&mut self, policy: SegmentPolicy) {
        self.policy = policy;
        self.visible_limit = self.total_docs() as u32;
    }

    /// Register a field with a score boost, or return the existing id
    /// if `name` was registered before (the boost is left unchanged in
    /// that case).
    pub fn register_field(&mut self, name: &str, boost: f32) -> FieldId {
        if let Some(&id) = self.field_by_name.get(name) {
            return id;
        }
        let id = FieldId(self.fields.len() as u16);
        self.fields.push(FieldInfo {
            name: name.to_string(),
            boost,
            total_len: 0,
        });
        self.field_by_name.insert(name.to_string(), id);
        self.field_len.push(vec![0; self.deleted.len()]);
        id
    }

    /// Look up a field id by name.
    pub fn field_id(&self, name: &str) -> Option<FieldId> {
        self.field_by_name.get(name).copied()
    }

    /// Name of a registered field.
    pub fn field_name(&self, field: FieldId) -> &str {
        &self.fields[field.0 as usize].name
    }

    /// Boost of a registered field.
    pub fn field_boost(&self, field: FieldId) -> f32 {
        self.fields[field.0 as usize].boost
    }

    /// All registered fields in id order.
    pub fn field_ids(&self) -> impl Iterator<Item = FieldId> + '_ {
        (0..self.fields.len()).map(|i| FieldId(i as u16))
    }

    /// Add a document to the memtable segment, returning its id.
    pub fn add(&mut self, doc: Doc) -> DocId {
        let id = DocId(self.deleted.len() as u32);
        debug_assert_eq!(id.0, self.active.base + self.active.docs);
        self.deleted.push(false);
        self.live_docs += 1;
        for lens in &mut self.field_len {
            lens.push(0);
        }
        // Split the borrow so the token sink can mutate the lexicon and
        // memtable while the analyzer (behind `config`) stays shared.
        let Index {
            config,
            fields,
            lexicon,
            active,
            field_len,
            scratch,
            ..
        } = self;
        active.docs += 1;
        // Group occurrences per field so repeated fields concatenate.
        for (field, text) in doc.fields() {
            let field = *field;
            assert!(
                (field.0 as usize) < fields.len(),
                "field {} not registered with this index",
                field.0
            );
            let base = field_len[field.0 as usize][id.as_usize()];
            let mut last_pos = None;
            config
                .analyzer
                .analyze_with(text, scratch, &mut |term, pos, _start, _end| {
                    last_pos = Some(pos);
                    let term = lexicon.intern(term);
                    active
                        .postings
                        .entry((term, field))
                        .or_default()
                        .push_occurrence(id, base + pos);
                });
            let added = last_pos.map(|p| p + 1).unwrap_or(0);
            field_len[field.0 as usize][id.as_usize()] += added;
            fields[field.0 as usize].total_len += added as u64;
        }
        // Repeated fields are concatenated by now: fold the document's
        // final lengths into the memtable's score-bound ingredients.
        for (f, lens) in field_len.iter().enumerate() {
            active.note_len(f, lens[id.as_usize()]);
        }
        if self.config.store_text {
            self.stored.push(doc.fields);
        } else {
            self.stored.push(Vec::new());
        }
        id
    }

    /// Add a batch of documents using up to `threads` worker threads,
    /// returning their ids in batch order.
    ///
    /// The batch is partitioned into contiguous chunks, each built into
    /// an independent [`Segment`] on its own scoped thread (private
    /// lexicon and postings — the hot loop takes no locks), and the
    /// segments are folded back in chunk order by a deterministic merge
    /// into the memtable. The result is **bit-identical** to calling
    /// [`Index::add`] on each document in order: same doc ids, same
    /// term ids, same postings bytes after [`Index::optimize`] — see
    /// the differential property tests. `threads` is clamped to `1..=`
    /// [`MAX_BUILD_WORKERS`]; with one thread (or one document) the
    /// build degenerates to the sequential path.
    pub fn build_parallel(&mut self, docs: Vec<Doc>, threads: usize) -> Vec<DocId> {
        let n = docs.len();
        let first = self.deleted.len() as u32;
        let workers = threads.clamp(1, MAX_BUILD_WORKERS).min(n.max(1));
        if workers <= 1 {
            return docs.into_iter().map(|d| self.add(d)).collect();
        }
        let chunk_size = n.div_ceil(workers);
        // Carve the batch into owned contiguous chunks, back to front so
        // each split_off is cheap.
        let mut docs = docs;
        let mut parts: Vec<Vec<Doc>> = Vec::with_capacity(workers);
        for i in (0..workers).rev() {
            let start = (i * chunk_size).min(docs.len());
            parts.push(docs.split_off(start));
        }
        parts.reverse();
        let analyzer = self.config.analyzer.as_ref();
        let store_text = self.config.store_text;
        let num_fields = self.fields.len();
        let segments: Vec<Segment> = std::thread::scope(|s| {
            let handles: Vec<_> = parts
                .into_iter()
                .enumerate()
                .map(|(i, part)| {
                    let base = first + (i * chunk_size) as u32;
                    s.spawn(move || {
                        let mut builder =
                            SegmentBuilder::new(analyzer, store_text, num_fields, base);
                        for doc in part {
                            builder.add(doc);
                        }
                        builder.finish()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(seg) => seg,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        for seg in segments {
            self.merge_builder_segment(seg);
        }
        (0..n as u32).map(|i| DocId(first + i)).collect()
    }

    /// Fold one finished build segment into the memtable. Called in
    /// chunk order; determinism of the merged representation relies on
    /// iterating the segment's terms in local-id (first-encounter)
    /// order and fields in id order — never on hash-map iteration
    /// order.
    fn merge_builder_segment(&mut self, seg: Segment) {
        let Segment {
            lexicon,
            mut postings,
            field_len,
            total_len,
            stored,
            docs,
        } = seg;
        // Append-if-absent interning of the segment lexicon in local-id
        // order reproduces sequential first-encounter term ids.
        let mut remap: Vec<TermId> = Vec::with_capacity(lexicon.len());
        for (_, term) in lexicon.iter() {
            remap.push(self.lexicon.intern(term));
        }
        for (local, &global) in remap.iter().enumerate() {
            let local_id = TermId(local as u32);
            for f in 0..self.fields.len() {
                let field = FieldId(f as u16);
                let Some(list) = postings.remove(&(local_id, field)) else {
                    continue;
                };
                match self.active.postings.entry((global, field)) {
                    Entry::Vacant(slot) => {
                        slot.insert(list);
                    }
                    Entry::Occupied(mut slot) => {
                        slot.get_mut().append(list);
                    }
                }
            }
        }
        for (f, lens) in field_len.into_iter().enumerate() {
            let chunk_min = lens.iter().copied().filter(|&l| l > 0).min();
            self.active.note_len(f, chunk_min.unwrap_or(0));
            self.field_len[f].extend(lens);
            self.fields[f].total_len += total_len[f];
        }
        self.stored.extend(stored);
        self.deleted
            .resize(self.deleted.len() + docs as usize, false);
        self.live_docs += docs as usize;
        self.active.docs += docs;
    }

    /// Tombstone a document. Returns `false` if it was already deleted
    /// or the id is unknown.
    ///
    /// The posting entries stay in place until a merge purges them
    /// (deleted documents keep contributing to document frequencies
    /// until then — the usual tombstone-until-merge trade-off), but the
    /// document's per-field lengths and stored text are reclaimed
    /// immediately, so BM25 average lengths track the live corpus.
    pub fn delete(&mut self, doc: DocId) -> bool {
        match self.deleted.get_mut(doc.as_usize()) {
            Some(flag) if !*flag => {
                *flag = true;
                self.live_docs -= 1;
                for (f, lens) in self.field_len.iter_mut().enumerate() {
                    let len = std::mem::take(&mut lens[doc.as_usize()]);
                    self.fields[f].total_len -= len as u64;
                }
                if let Some(slot) = self.stored.get_mut(doc.as_usize()) {
                    *slot = Vec::new();
                }
                true
            }
            _ => false,
        }
    }

    /// Replace a live document in one step: tombstone `doc` and add
    /// `replacement` under a fresh id (the datastore refresh path
    /// uses this). Returns the new id, or `None` when `doc` is unknown
    /// or already deleted — nothing is added in that case.
    pub fn update(&mut self, doc: DocId, replacement: Doc) -> Option<DocId> {
        if !self.delete(doc) {
            return None;
        }
        Some(self.add(replacement))
    }

    /// Whether a document is tombstoned (unknown ids read as deleted).
    pub fn is_deleted(&self, doc: DocId) -> bool {
        self.deleted.get(doc.as_usize()).copied().unwrap_or(true)
    }

    /// Whether a document is visible to search. Always `true` outside
    /// near-real-time mode; under an NRT policy, memtable documents
    /// stay hidden until the next seal.
    #[inline]
    pub fn is_visible(&self, doc: DocId) -> bool {
        !self.policy.near_real_time || doc.0 < self.visible_limit
    }

    /// Number of live (non-deleted) documents.
    pub fn live_docs(&self) -> usize {
        self.live_docs
    }

    /// Number of documents ever added.
    pub fn total_docs(&self) -> usize {
        self.deleted.len()
    }

    /// Freeze the memtable into an immutable sealed segment:
    /// compress its posting lists, compute per-list score-bound stats,
    /// and open a fresh empty memtable. Returns `false` (and creates
    /// no segment) when the memtable holds no postings. Under a
    /// near-real-time policy this is also the moment pending documents
    /// become searchable.
    pub fn seal(&mut self) -> bool {
        self.visible_limit = self.total_docs() as u32;
        if self.active.postings.is_empty() {
            // Nothing indexed since the last seal (documents that
            // analyze to zero tokens leave no postings); just advance
            // the memtable's doc range.
            self.active = ActiveSegment::starting_at(self.total_docs() as u32);
            return false;
        }
        let next = ActiveSegment::starting_at(self.total_docs() as u32);
        let memtable = std::mem::replace(&mut self.active, next);
        let mut postings = FxHashMap::default();
        postings.reserve(memtable.postings.len());
        for (key, list) in memtable.postings {
            postings.insert(key, Self::sealed_list(&self.field_len, key.1, &list));
        }
        self.sealed.push(SealedSegment {
            base: memtable.base,
            docs: memtable.docs,
            purged: 0,
            postings,
        });
        true
    }

    /// One bounded maintenance step, driven by the caller's (virtual)
    /// clock: seal the memtable when it is over the size cap or older
    /// than the staleness window, then perform at most one tiered
    /// merge. Deterministic given the same schedule of calls, so
    /// replay/chaos harnesses reproduce segment layouts exactly.
    pub fn maintain(&mut self, now_ms: u64) -> MaintenanceReport {
        let mut report = MaintenanceReport::default();
        let overdue = now_ms.saturating_sub(self.last_seal_ms) >= self.policy.staleness_window_ms;
        if self.active.docs >= self.policy.memtable_max_docs || (self.active.docs > 0 && overdue) {
            report.sealed = self.seal();
            self.last_seal_ms = now_ms;
        }
        if let Some((start, end)) = self.pick_merge_run() {
            report.merged_segments = end - start;
            report.purged_docs = self.merge_run(start, end);
        }
        report
    }

    /// Choose the next merge: the oldest run of `merge_fanin` adjacent
    /// segments sharing a size tier (log2 of covered doc range), or —
    /// when no tier run exists — the first segment whose pending
    /// tombstones outnumber its live range (rewriting it reclaims a
    /// majority of its postings).
    fn pick_merge_run(&self) -> Option<(usize, usize)> {
        let fanin = self.policy.merge_fanin.max(2);
        if self.sealed.len() >= fanin {
            let tier = |seg: &SealedSegment| 32 - seg.docs.max(1).leading_zeros();
            'outer: for start in 0..=self.sealed.len() - fanin {
                let t = tier(&self.sealed[start]);
                for seg in &self.sealed[start + 1..start + fanin] {
                    if tier(seg) != t {
                        continue 'outer;
                    }
                }
                return Some((start, start + fanin));
            }
        }
        for (i, seg) in self.sealed.iter().enumerate() {
            let dead = self.dead_in_range(seg.base, seg.docs);
            if dead > seg.purged && (dead - seg.purged) * 2 > seg.docs {
                return Some((i, i + 1));
            }
        }
        None
    }

    /// Tombstoned documents in a doc-id range.
    fn dead_in_range(&self, base: u32, docs: u32) -> u32 {
        self.deleted[base as usize..(base + docs) as usize]
            .iter()
            .filter(|&&d| d)
            .count() as u32
    }

    /// Fold sealed segments `start..end` (a run adjacent in doc order)
    /// into one, physically removing tombstoned documents and
    /// recomputing score stats over the survivors. Doc ids are never
    /// renumbered — purged docs simply leave holes. Returns the number
    /// of newly purged documents.
    fn merge_run(&mut self, start: usize, end: usize) -> usize {
        let run: Vec<SealedSegment> = self.sealed.drain(start..end).collect();
        let base = run.first().map_or(0, |s| s.base);
        let docs = run.last().map_or(base, |s| s.base + s.docs) - base;
        let deleted = &self.deleted;
        let mut keys: Vec<(TermId, FieldId)> = run
            .iter()
            .flat_map(|s| s.postings.keys().copied())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        // One key at a time through one reused list: segments are
        // visited in doc-range order, so the appends stay doc-ordered
        // without a merge heap, and only one raw list is ever live.
        let mut list = PostingList::new();
        let mut postings = FxHashMap::default();
        postings.reserve(keys.len());
        for key in keys {
            list.clear();
            for (comp, _) in run.iter().filter_map(|s| s.postings.get(&key)) {
                comp.for_each(|doc, positions| {
                    if !deleted[doc.as_usize()] {
                        list.push_posting(doc, positions);
                    }
                });
            }
            if list.doc_count() > 0 {
                postings.insert(key, Self::sealed_list(&self.field_len, key.1, &list));
            }
        }
        let dead = self.dead_in_range(base, docs);
        let already: u32 = run.iter().map(|s| s.purged).sum();
        self.sealed.insert(
            start,
            SealedSegment {
                base,
                docs,
                purged: dead,
                postings,
            },
        );
        dead.saturating_sub(already) as usize
    }

    /// Compress every posting list and precompute score-bound stats by
    /// sealing the memtable and merging all sealed segments into one
    /// fully-compacted segment. Tombstoned documents are purged, so
    /// document frequencies, score stats, and spell-model popularity
    /// stop counting them — equivalent to a from-scratch rebuild of
    /// the live corpus (the differential tests prove bit-identical
    /// search results).
    pub fn optimize(&mut self) {
        self.seal();
        if !self.sealed.is_empty() {
            self.merge_run(0, self.sealed.len());
        }
    }

    /// Freeze one raw list of `field` for a sealed segment: its packed
    /// form (block peaks included) and exact score-bound ingredients,
    /// both read off the raw list (nothing is decoded back). `min_len`
    /// is the smallest *non-zero* field length on the list (zero
    /// lengths are either pre-registration backfill or reclaimed
    /// tombstones; excluding them is rank-safe because every live
    /// document containing the term has length >= 1).
    fn sealed_list(
        field_len: &[Vec<u32>],
        field: FieldId,
        list: &PostingList,
    ) -> (CompressedPostings, TermScoreStats) {
        let lens = &field_len[field.0 as usize];
        let min_len = list
            .iter()
            .map(|(doc, _)| lens[doc.as_usize()])
            .filter(|&len| len > 0)
            .min()
            // All lengths zero can only happen on inconsistent input;
            // clamp to the smallest real length.
            .unwrap_or(1);
        let stats = TermScoreStats {
            max_tf: list.max_tf(),
            min_len,
        };
        (CompressedPostings::encode(list, lens), stats)
    }

    /// The segments reads visit, in doc order: every sealed segment,
    /// then the memtable when it holds documents.
    pub(crate) fn segments(&self) -> impl Iterator<Item = SegmentView<'_>> {
        let active = (self.active.docs > 0).then_some(SegmentView::Active(&self.active));
        self.sealed.iter().map(SegmentView::Sealed).chain(active)
    }

    /// Every segment's list for `(term, field)`, in doc order.
    fn lists(&self, term: TermId, field: FieldId) -> impl Iterator<Item = SegmentList<'_>> {
        self.segments().filter_map(move |seg| seg.list(term, field))
    }

    /// Score-bound ingredients for `(term, field)`, folded rank-safely
    /// across every segment that holds the key, memtable included (max
    /// of `max_tf`, min of `min_len`): `Some` exactly when the key has
    /// postings. Exact on a fully compacted index; while the memtable
    /// holds the key the answer dominates (its `min_len` is a
    /// segment-wide lower bound). The pruned executor does not use the
    /// fold — it bounds each segment with that segment's own stats.
    pub fn term_score_stats(&self, term: TermId, field: FieldId) -> Option<TermScoreStats> {
        self.lists(term, field)
            .map(|list| list.stats)
            .reduce(|a, b| TermScoreStats {
                max_tf: a.max_tf.max(b.max_tf),
                min_len: a.min_len.min(b.min_len),
            })
    }

    /// Whether any segment holds postings for `(term, field)`.
    pub fn has_postings(&self, term: TermId, field: FieldId) -> bool {
        self.lists(term, field).next().is_some()
    }

    /// Visit every `(doc, positions)` pair for `(term, field)` in
    /// global doc order, across all segments.
    pub fn for_each_posting(&self, term: TermId, field: FieldId, mut f: impl FnMut(DocId, &[u32])) {
        for list in self.lists(term, field) {
            list.for_each(&mut f);
        }
    }

    /// A cursor on each segment's list for `(term, field)`, in doc
    /// order: the lists the pruned executor bounds one by one.
    pub fn segment_cursors(
        &self,
        term: TermId,
        field: FieldId,
    ) -> impl Iterator<Item = PostingsCursor<'_>> {
        self.lists(term, field).map(SegmentList::cursor)
    }

    /// Document frequency of `(term, field)`, summed over segments
    /// (tombstoned docs count until a merge purges them).
    pub fn doc_freq(&self, term: TermId, field: FieldId) -> usize {
        self.lists(term, field).map(|list| list.doc_count()).sum()
    }

    /// The single compressed posting list for `(term, field)` when the
    /// index is fully compacted — one sealed segment, empty memtable —
    /// and `None` otherwise. The build-determinism tests use this to
    /// compare byte streams between construction paths.
    pub fn compacted_postings(&self, term: TermId, field: FieldId) -> Option<&CompressedPostings> {
        if !self.active.postings.is_empty() || self.sealed.len() > 1 {
            return None;
        }
        let (packed, _) = self.sealed.first()?.postings.get(&(term, field))?;
        Some(packed)
    }

    /// Analyzed length of `field` in `doc` (0 once `doc` is deleted).
    pub fn field_len(&self, doc: DocId, field: FieldId) -> u32 {
        self.field_len[field.0 as usize][doc.as_usize()]
    }

    /// Per-document analyzed lengths of `field`, indexed by doc id —
    /// the column backing [`Index::field_len`], exposed whole so the
    /// scoring loop resolves it once per scorer instead of twice per
    /// document.
    pub fn field_lens(&self, field: FieldId) -> &[u32] {
        &self.field_len[field.0 as usize]
    }

    /// Mean analyzed length of `field` over live documents.
    pub fn avg_field_len(&self, field: FieldId) -> f32 {
        let n = self.live_docs;
        if n == 0 {
            return 0.0;
        }
        self.fields[field.0 as usize].total_len as f32 / n as f32
    }

    /// Total analyzed token count of `field` across live documents —
    /// the exact integer numerator behind [`Index::avg_field_len`].
    /// Exposed so a scatter-gather deployment can fold corpus-wide
    /// statistics across document-partitioned shards without f32
    /// rounding (see [`crate::search::GlobalScoreStats`]).
    pub fn total_field_len(&self, field: FieldId) -> u64 {
        self.fields[field.0 as usize].total_len
    }

    /// Stored original text of `field` in `doc`, when
    /// [`IndexConfig::store_text`] is on. Repeated fields return the
    /// first occurrence; deleted documents return `None` (their text
    /// is reclaimed at delete time).
    pub fn stored_text(&self, doc: DocId, field: FieldId) -> Option<&str> {
        self.stored
            .get(doc.as_usize())?
            .iter()
            .find(|(f, _)| *f == field)
            .map(|(_, t)| t.as_str())
    }

    /// The term lexicon.
    pub fn lexicon(&self) -> &Lexicon {
        &self.lexicon
    }

    /// The analyzer used by this index (query parsing must reuse it).
    pub fn analyzer(&self) -> &dyn Analyzer {
        self.config.analyzer.as_ref()
    }

    /// Snapshot statistics.
    pub fn stats(&self) -> IndexStats {
        let posting_lists = self.active.postings.len()
            + self.sealed.iter().map(|s| s.postings.len()).sum::<usize>();
        let postings_bytes = self
            .active
            .postings
            .values()
            .map(|l| l.heap_bytes())
            .sum::<usize>()
            + self
                .sealed
                .iter()
                .map(|s| s.postings_bytes())
                .sum::<usize>();
        IndexStats {
            total_docs: self.total_docs(),
            live_docs: self.live_docs,
            terms: self.lexicon.len(),
            posting_lists,
            postings_bytes,
            fully_compressed: posting_lists > 0 && self.active.postings.is_empty(),
            sealed_segments: self.sealed.len(),
            memtable_docs: self.active.docs as usize,
        }
    }

    /// Estimated heap footprint of the searchable state: packed
    /// posting streams plus their block directories (and raw memtable
    /// lists), the lexicon arena (term bytes, span table, hash table),
    /// and the stored text columns. A capacity-based estimate, not an
    /// allocator measurement — its job is tracking the relative cost
    /// of representations (`tests/footprint.rs` asserts the
    /// bit-packed format lands under the varint baseline).
    pub fn bytes_estimate(&self) -> usize {
        let postings = self
            .active
            .postings
            .values()
            .map(|l| l.heap_bytes())
            .sum::<usize>()
            + self
                .sealed
                .iter()
                .flat_map(|s| s.postings.values())
                .map(|(c, _)| c.heap_bytes())
                .sum::<usize>();
        let stored = self
            .stored
            .iter()
            .map(|fields| {
                fields.capacity() * std::mem::size_of::<(FieldId, String)>()
                    + fields.iter().map(|(_, t)| t.capacity()).sum::<usize>()
            })
            .sum::<usize>();
        postings + self.lexicon.heap_bytes() + stored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use crate::search::Searcher;

    fn small_index() -> (Index, FieldId, FieldId) {
        let mut idx = Index::new(IndexConfig::default());
        let title = idx.register_field("title", 2.0);
        let body = idx.register_field("body", 1.0);
        idx.add(
            Doc::new()
                .field(title, "Galactic Raiders")
                .field(body, "a fast space shooter with lasers"),
        );
        idx.add(
            Doc::new()
                .field(title, "Farm Story")
                .field(body, "calm farming and crops"),
        );
        idx.add(
            Doc::new()
                .field(title, "Space Trader")
                .field(body, "trade goods across space stations"),
        );
        (idx, title, body)
    }

    #[test]
    fn add_assigns_dense_ids() {
        let (idx, _, _) = small_index();
        assert_eq!(idx.total_docs(), 3);
        assert_eq!(idx.live_docs(), 3);
    }

    #[test]
    fn field_registration_is_idempotent() {
        let mut idx = Index::new(IndexConfig::default());
        let a = idx.register_field("title", 2.0);
        let b = idx.register_field("title", 9.0);
        assert_eq!(a, b);
        assert_eq!(idx.field_boost(a), 2.0);
    }

    #[test]
    fn doc_freq_counts_documents_not_occurrences() {
        let (idx, _, body) = small_index();
        let space = idx.lexicon().get("space").unwrap();
        assert_eq!(idx.doc_freq(space, body), 2);
    }

    #[test]
    fn field_lengths_track_analyzed_tokens() {
        let (idx, title, _) = small_index();
        assert_eq!(idx.field_len(DocId(0), title), 2);
        assert!(idx.avg_field_len(title) > 0.0);
    }

    #[test]
    fn delete_is_tombstone() {
        let (mut idx, _, _) = small_index();
        assert!(idx.delete(DocId(1)));
        assert!(!idx.delete(DocId(1)));
        assert!(idx.is_deleted(DocId(1)));
        assert_eq!(idx.live_docs(), 2);
        assert_eq!(idx.total_docs(), 3);
        // Deleted docs never surface in search results.
        let hits = Searcher::new(&idx).search(&Query::parse("farming"), 10);
        assert!(hits.is_empty());
    }

    #[test]
    fn delete_reclaims_lengths_and_stored_text() {
        let (mut idx, title, body) = small_index();
        let before = idx.avg_field_len(body);
        idx.delete(DocId(0));
        assert_eq!(idx.field_len(DocId(0), body), 0);
        assert_eq!(idx.stored_text(DocId(0), title), None);
        // The average now reflects only the two live docs.
        assert_ne!(idx.avg_field_len(body), before);
    }

    #[test]
    fn unknown_doc_reads_as_deleted() {
        let (idx, _, _) = small_index();
        assert!(idx.is_deleted(DocId(999)));
    }

    #[test]
    fn optimize_compresses_and_preserves_results() {
        let (mut idx, _, _) = small_index();
        let before = Searcher::new(&idx).search(&Query::parse("space"), 10);
        idx.optimize();
        assert!(idx.stats().fully_compressed);
        assert_eq!(idx.stats().sealed_segments, 1);
        let after = Searcher::new(&idx).search(&Query::parse("space"), 10);
        assert_eq!(
            before.iter().map(|h| h.doc).collect::<Vec<_>>(),
            after.iter().map(|h| h.doc).collect::<Vec<_>>()
        );
    }

    #[test]
    fn add_after_optimize_lands_in_fresh_memtable() {
        let (mut idx, title, body) = small_index();
        idx.optimize();
        idx.add(
            Doc::new()
                .field(title, "Space Farm")
                .field(body, "space farming hybrid"),
        );
        // The sealed segment is untouched; the new doc is served from
        // the memtable and unioned in at query time.
        let s = idx.stats();
        assert_eq!(s.sealed_segments, 1);
        assert_eq!(s.memtable_docs, 1);
        assert!(!s.fully_compressed);
        let hits = Searcher::new(&idx).search(&Query::parse("space"), 10);
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn stored_text_roundtrip() {
        let (idx, title, _) = small_index();
        assert_eq!(idx.stored_text(DocId(0), title), Some("Galactic Raiders"));
        assert_eq!(idx.stored_text(DocId(99), title), None);
    }

    #[test]
    fn repeated_field_concatenates_with_position_gap() {
        let mut idx = Index::new(IndexConfig::default());
        let body = idx.register_field("body", 1.0);
        idx.add(Doc::new().field(body, "alpha beta").field(body, "gamma"));
        // Phrase across the two fragments must not match (positions gap).
        let hits = Searcher::new(&idx).search(&Query::parse("\"beta gamma\""), 10);
        // beta is at position 1, gamma at position 2 (base 2 + 0)... they
        // are adjacent here because base advances by token count; that is
        // the documented concatenation semantics.
        assert_eq!(hits.len(), 1);
        let hits = Searcher::new(&idx).search(&Query::parse("gamma"), 10);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn optimize_computes_term_score_stats() {
        let mut idx = Index::new(IndexConfig::default());
        let body = idx.register_field("body", 1.0);
        idx.add(Doc::new().field(body, "space space space shooter"));
        idx.add(Doc::new().field(body, "space"));
        let space = idx.lexicon().get("space").unwrap();
        let shooter = idx.lexicon().get("shooter").unwrap();
        // In the memtable: exact max tf, and the field's smallest
        // length over the whole memtable — for "shooter" a lower bound
        // (doc 1 is shorter than the one doc "shooter" is in).
        let s = idx.term_score_stats(space, body).unwrap();
        assert_eq!((s.max_tf, s.min_len), (3, 1));
        let s = idx.term_score_stats(shooter, body).unwrap();
        assert_eq!((s.max_tf, s.min_len), (1, 1));
        // Sealed: exact per list.
        idx.optimize();
        let s = idx.term_score_stats(space, body).unwrap();
        assert_eq!(s.max_tf, 3);
        assert_eq!(s.min_len, 1); // doc 1's body is one token long
        let s = idx.term_score_stats(shooter, body).unwrap();
        assert_eq!(s.max_tf, 1);
        assert_eq!(s.min_len, 4);
    }

    #[test]
    fn add_after_optimize_invalidates_touched_stats_only() {
        let mut idx = Index::new(IndexConfig::default());
        let body = idx.register_field("body", 1.0);
        idx.add(Doc::new().field(body, "space shooter game"));
        idx.optimize();
        let space = idx.lexicon().get("space").unwrap();
        let shooter = idx.lexicon().get("shooter").unwrap();
        let sealed = TermScoreStats {
            max_tf: 1,
            min_len: 3,
        };
        assert_eq!(idx.term_score_stats(space, body), Some(sealed));
        idx.add(Doc::new().field(body, "space space trader"));
        idx.add(Doc::new().field(body, "trader"));
        // The memtable list folds in: its exact max tf, and the
        // memtable-wide field minimum (doc 2, which "space" is not in)
        // — dominating, not exact.
        let live = idx.term_score_stats(space, body).unwrap();
        assert_eq!((live.max_tf, live.min_len), (2, 1));
        assert_eq!(idx.term_score_stats(shooter, body), Some(sealed));
        // Re-optimizing tightens back to exact stats over the merged
        // list.
        idx.optimize();
        let exact = idx.term_score_stats(space, body).unwrap();
        assert_eq!((exact.max_tf, exact.min_len), (2, 3));
    }

    /// The invariant the per-segment executor prunes on: in every
    /// segment, every list's stats dominate each live posting on it.
    fn assert_segment_stats_dominate(idx: &Index) {
        for seg in idx.segments() {
            for (term, text) in idx.lexicon().iter() {
                for field in idx.field_ids() {
                    let Some(list) = seg.list(term, field) else {
                        continue;
                    };
                    let stats = list.stats;
                    list.for_each(|doc, positions| {
                        assert!(seg.range().contains(&doc.0));
                        if idx.is_deleted(doc) {
                            return;
                        }
                        let (tf, len) = (positions.len() as u32, idx.field_len(doc, field));
                        assert!(
                            tf <= stats.max_tf && len >= stats.min_len,
                            "{text:?} in {field:?} at {doc:?}: tf {tf} len {len} vs {stats:?}"
                        );
                    });
                }
            }
        }
    }

    #[test]
    fn every_segment_list_carries_dominating_stats() {
        let mut idx = Index::with_policy(
            IndexConfig::default(),
            SegmentPolicy {
                memtable_max_docs: 5,
                staleness_window_ms: u64::MAX,
                merge_fanin: 3,
                near_real_time: false,
            },
        );
        let body = idx.register_field("body", 1.0);
        let words = [
            "space",
            "space space",
            "trader",
            "space farm trader",
            "farm",
        ];
        let text = |i: u32| format!("{} doc{}", words[i as usize % words.len()], i % 7);
        for i in 0..60u32 {
            match i % 9 {
                // A batch appended to whatever the memtable holds.
                0 => {
                    let batch = (0..4)
                        .map(|j| Doc::new().field(body, text(i + j)))
                        .collect();
                    idx.build_parallel(batch, 2);
                }
                // A repeated field: the length that counts is the sum.
                2 => {
                    idx.add(Doc::new().field(body, "space").field(body, text(i)));
                }
                // A field registered after documents exist.
                4 => {
                    let tags = idx.register_field("tags", 1.5);
                    idx.add(Doc::new().field(tags, "space").field(body, text(i)));
                }
                // An update of the newest (memtable) doc, and a delete
                // that usually lands in a sealed segment.
                6 => {
                    let newest = DocId(idx.total_docs() as u32 - 1);
                    idx.update(newest, Doc::new().field(body, "space space space"));
                    idx.delete(DocId(i / 3));
                }
                _ => {
                    idx.add(Doc::new().field(body, text(i)));
                }
            }
            if i % 2 == 0 {
                idx.maintain(u64::from(i));
            }
            assert_segment_stats_dominate(&idx);
        }
        assert!(
            idx.stats().sealed_segments > 1,
            "schedule must leave several segments"
        );
        assert!(idx.stats().memtable_docs > 0, "and a live memtable");
    }

    #[test]
    fn delete_keeps_stats_as_safe_overestimate() {
        let mut idx = Index::new(IndexConfig::default());
        let body = idx.register_field("body", 1.0);
        let d0 = idx.add(Doc::new().field(body, "space space"));
        idx.add(Doc::new().field(body, "space and more words here"));
        idx.optimize();
        idx.delete(d0);
        let space = idx.lexicon().get("space").unwrap();
        let s = idx.term_score_stats(space, body).unwrap();
        // The tombstoned doc still backs max_tf/min_len: an upper bound
        // computed from it can only overestimate, never under-bound.
        assert_eq!(s.max_tf, 2);
        assert_eq!(s.min_len, 2);
    }

    #[test]
    fn merge_purges_tombstones_and_rebuilds_stats() {
        let mut idx = Index::new(IndexConfig::default());
        let body = idx.register_field("body", 1.0);
        let d0 = idx.add(Doc::new().field(body, "space space"));
        idx.add(Doc::new().field(body, "space and more words here"));
        idx.optimize();
        idx.delete(d0);
        let space = idx.lexicon().get("space").unwrap();
        assert_eq!(idx.doc_freq(space, body), 2, "df counts the tombstone");
        // Re-compacting purges the tombstone: df drops and the stats
        // are rebuilt from the surviving doc.
        idx.optimize();
        assert_eq!(idx.doc_freq(space, body), 1);
        let s = idx.term_score_stats(space, body).unwrap();
        assert_eq!(s.max_tf, 1);
        assert_eq!(s.min_len, 5);
    }

    #[test]
    fn purged_term_disappears_entirely() {
        let mut idx = Index::new(IndexConfig::default());
        let body = idx.register_field("body", 1.0);
        let d0 = idx.add(Doc::new().field(body, "unique sentinel"));
        idx.add(Doc::new().field(body, "other text"));
        idx.optimize();
        idx.delete(d0);
        idx.optimize();
        let uniq = idx.lexicon().get("uniqu").or(idx.lexicon().get("unique"));
        if let Some(t) = uniq {
            assert_eq!(idx.doc_freq(t, body), 0);
            assert!(!idx.has_postings(t, body));
            assert_eq!(idx.term_score_stats(t, body), None);
        }
    }

    #[test]
    fn stats_report_counts() {
        let (idx, _, _) = small_index();
        let s = idx.stats();
        assert_eq!(s.total_docs, 3);
        assert!(s.terms > 5);
        assert!(s.posting_lists >= s.terms); // each term in >=1 field
        assert!(!s.fully_compressed);
        assert_eq!(s.sealed_segments, 0);
        assert_eq!(s.memtable_docs, 3);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unregistered_field_panics() {
        let mut idx = Index::new(IndexConfig::default());
        idx.add(Doc::new().field(FieldId(3), "boom"));
    }

    #[test]
    fn optimize_min_len_excludes_zero_length_docs() {
        let mut idx = Index::new(IndexConfig::default());
        let body = idx.register_field("body", 1.0);
        idx.add(Doc::new().field(body, "space shooter game"));
        idx.add(Doc::new().field(body, "space"));
        // Simulate the late-`register_field` backfill inconsistency:
        // doc 1's length reads as the zero backfill even though the doc
        // sits in the posting list.
        idx.field_len[0][1] = 0;
        idx.optimize();
        let space = idx.lexicon().get("space").unwrap();
        let s = idx.term_score_stats(space, body).unwrap();
        // The zero is excluded; the bound uses doc 0's real length
        // instead of collapsing to 0 (which would blow up the
        // length-normalized score bound).
        assert_eq!(s.min_len, 3);
    }

    #[test]
    fn optimize_min_len_clamps_when_all_lengths_missing() {
        let mut idx = Index::new(IndexConfig::default());
        let body = idx.register_field("body", 1.0);
        idx.add(Doc::new().field(body, "space"));
        idx.field_len[0][0] = 0;
        idx.optimize();
        let space = idx.lexicon().get("space").unwrap();
        let s = idx.term_score_stats(space, body).unwrap();
        assert_eq!(s.min_len, 1);
    }

    #[test]
    fn late_registered_field_keeps_bounds_finite() {
        let mut idx = Index::new(IndexConfig::default());
        let body = idx.register_field("body", 1.0);
        idx.add(Doc::new().field(body, "space shooter"));
        // Registering after documents exist backfills zeros for doc 0.
        let title = idx.register_field("title", 2.0);
        idx.add(Doc::new().field(title, "space trader").field(body, "space"));
        idx.optimize();
        let space = idx.lexicon().get("space").unwrap();
        let s = idx.term_score_stats(space, title).unwrap();
        assert_eq!(s.min_len, 2);
        let hits = Searcher::new(&idx).search(&Query::parse("space"), 10);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn build_parallel_small_batch_matches_sequential() {
        let texts = [
            "galactic raiders in space",
            "calm farming and crops",
            "trade goods across space stations",
            "space shooter with lasers",
            "farm story crops again",
        ];
        let mut seq = Index::new(IndexConfig::default());
        let mut par = Index::new(IndexConfig::default());
        let sb = seq.register_field("body", 1.0);
        let pb = par.register_field("body", 1.0);
        for t in &texts {
            seq.add(Doc::new().field(sb, *t));
        }
        let ids = par.build_parallel(texts.iter().map(|t| Doc::new().field(pb, *t)).collect(), 3);
        assert_eq!(ids, (0..5).map(DocId).collect::<Vec<_>>());
        seq.optimize();
        par.optimize();
        assert_eq!(seq.stats(), par.stats());
        for q in ["space", "crops", "\"space stations\""] {
            let a = Searcher::new(&seq).search(&Query::parse(q), 10);
            let b = Searcher::new(&par).search(&Query::parse(q), 10);
            assert_eq!(
                a.iter()
                    .map(|h| (h.doc, h.score.to_bits()))
                    .collect::<Vec<_>>(),
                b.iter()
                    .map(|h| (h.doc, h.score.to_bits()))
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn build_parallel_appends_to_existing_index() {
        let mut idx = Index::new(IndexConfig::default());
        let body = idx.register_field("body", 1.0);
        idx.add(Doc::new().field(body, "space shooter"));
        idx.optimize();
        idx.add(Doc::new().field(body, "space farm"));
        let ids = idx.build_parallel(
            vec![
                Doc::new().field(body, "trader"),
                Doc::new().field(body, "space space space trader"),
            ],
            2,
        );
        assert_eq!(ids, vec![DocId(2), DocId(3)]);
        let hits = Searcher::new(&idx).search(&Query::parse("space"), 10);
        assert_eq!(hits.len(), 3);
        // The batch's lists carry their own ingredients — max tf folded
        // through the per-chunk `append`, min length per chunk — so
        // stats touched by it dominate every document, old and new.
        let space = idx.lexicon().get("space").unwrap();
        let s = idx.term_score_stats(space, body).unwrap();
        assert_eq!((s.max_tf, s.min_len), (3, 1));
        idx.optimize();
        let s = idx.term_score_stats(space, body).unwrap();
        assert_eq!((s.max_tf, s.min_len), (3, 2));
    }

    #[test]
    fn update_replaces_document_under_fresh_id() {
        let (mut idx, title, body) = small_index();
        let new_id = idx
            .update(
                DocId(1),
                Doc::new()
                    .field(title, "Farm Story Deluxe")
                    .field(body, "expanded farming with orchards"),
            )
            .unwrap();
        assert_eq!(new_id, DocId(3));
        assert!(idx.is_deleted(DocId(1)));
        assert_eq!(idx.live_docs(), 3);
        let hits = Searcher::new(&idx).search(&Query::parse("orchards"), 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, new_id);
        // The old version no longer matches anything.
        assert!(Searcher::new(&idx)
            .search(&Query::parse("calm"), 10)
            .is_empty());
    }

    #[test]
    fn update_of_deleted_or_unknown_doc_is_rejected() {
        let (mut idx, _, body) = small_index();
        idx.delete(DocId(0));
        assert_eq!(idx.update(DocId(0), Doc::new().field(body, "nope")), None);
        assert_eq!(idx.update(DocId(99), Doc::new().field(body, "nope")), None);
        assert_eq!(idx.total_docs(), 3, "rejected updates add nothing");
    }

    #[test]
    fn seal_freezes_memtable_and_reopens_empty() {
        let (mut idx, _, _) = small_index();
        assert!(idx.seal());
        let s = idx.stats();
        assert_eq!(s.sealed_segments, 1);
        assert_eq!(s.memtable_docs, 0);
        assert!(s.fully_compressed);
        // Sealing an empty memtable is a no-op.
        assert!(!idx.seal());
        assert_eq!(idx.stats().sealed_segments, 1);
        // Search is unchanged across the seal.
        let hits = Searcher::new(&idx).search(&Query::parse("space"), 10);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn search_unions_memtable_and_multiple_sealed_segments() {
        let mut idx = Index::new(IndexConfig::default());
        let body = idx.register_field("body", 1.0);
        idx.add(Doc::new().field(body, "space alpha"));
        idx.seal();
        idx.add(Doc::new().field(body, "space beta"));
        idx.seal();
        idx.add(Doc::new().field(body, "space gamma"));
        assert_eq!(idx.stats().sealed_segments, 2);
        let hits = Searcher::new(&idx).search(&Query::parse("space"), 10);
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn maintain_seals_on_size_and_staleness() {
        let mut idx = Index::with_policy(
            IndexConfig::default(),
            SegmentPolicy {
                memtable_max_docs: 2,
                staleness_window_ms: 100,
                ..SegmentPolicy::default()
            },
        );
        let body = idx.register_field("body", 1.0);
        idx.add(Doc::new().field(body, "one"));
        // Young and small: nothing happens.
        assert!(!idx.maintain(50).did_work());
        idx.add(Doc::new().field(body, "two"));
        // Size cap reached.
        let r = idx.maintain(60);
        assert!(r.sealed);
        assert_eq!(idx.stats().sealed_segments, 1);
        // Staleness window forces a seal even for a single doc.
        idx.add(Doc::new().field(body, "three"));
        assert!(!idx.maintain(100).sealed, "window measured from last seal");
        assert!(idx.maintain(160).sealed);
        assert_eq!(idx.stats().sealed_segments, 2);
    }

    #[test]
    fn maintain_merges_same_tier_runs() {
        let mut idx = Index::with_policy(
            IndexConfig::default(),
            SegmentPolicy {
                memtable_max_docs: 1,
                staleness_window_ms: u64::MAX,
                merge_fanin: 3,
                near_real_time: false,
            },
        );
        let body = idx.register_field("body", 1.0);
        let mut now = 0u64;
        for i in 0..3 {
            idx.add(Doc::new().field(body, format!("doc number {i} space")));
            now += 10;
            idx.maintain(now);
        }
        // Three one-doc segments share a tier; the third maintain call
        // merged them into one.
        let s = idx.stats();
        assert_eq!(s.sealed_segments, 1);
        let hits = Searcher::new(&idx).search(&Query::parse("space"), 10);
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn maintain_compacts_tombstone_heavy_segments() {
        let mut idx = Index::with_policy(
            IndexConfig::default(),
            SegmentPolicy {
                memtable_max_docs: 4,
                staleness_window_ms: u64::MAX,
                merge_fanin: 4,
                near_real_time: false,
            },
        );
        let body = idx.register_field("body", 1.0);
        let ids: Vec<DocId> = (0..4)
            .map(|i| idx.add(Doc::new().field(body, format!("space doc {i}"))))
            .collect();
        idx.maintain(10); // seals the 4-doc memtable
        assert_eq!(idx.stats().sealed_segments, 1);
        let space = idx.lexicon().get("space").unwrap();
        idx.delete(ids[0]);
        idx.delete(ids[1]);
        idx.delete(ids[2]);
        assert_eq!(idx.doc_freq(space, body), 4, "tombstones linger");
        let r = idx.maintain(20);
        assert_eq!(r.merged_segments, 1);
        assert_eq!(r.purged_docs, 3);
        assert_eq!(idx.doc_freq(space, body), 1);
        // A second tick finds no pending garbage and does nothing.
        assert!(!idx.maintain(30).did_work());
    }

    #[test]
    fn near_real_time_hides_memtable_until_seal() {
        let mut idx = Index::with_policy(
            IndexConfig::default(),
            SegmentPolicy {
                near_real_time: true,
                ..SegmentPolicy::default()
            },
        );
        let body = idx.register_field("body", 1.0);
        idx.add(Doc::new().field(body, "hidden until sealed"));
        assert!(Searcher::new(&idx)
            .search(&Query::parse("hidden"), 10)
            .is_empty());
        idx.seal();
        let hits = Searcher::new(&idx).search(&Query::parse("hidden"), 10);
        assert_eq!(hits.len(), 1);
        // The next write is hidden again; sealed docs stay visible.
        idx.add(Doc::new().field(body, "hidden again"));
        assert_eq!(
            Searcher::new(&idx)
                .search(&Query::parse("hidden"), 10)
                .len(),
            1
        );
    }

    #[test]
    fn maintain_is_deterministic_for_a_fixed_schedule() {
        let run = || {
            let mut idx = Index::with_policy(
                IndexConfig::default(),
                SegmentPolicy {
                    memtable_max_docs: 3,
                    staleness_window_ms: 40,
                    merge_fanin: 2,
                    near_real_time: false,
                },
            );
            let body = idx.register_field("body", 1.0);
            let mut reports = Vec::new();
            for i in 0..20u32 {
                idx.add(Doc::new().field(body, format!("space doc {i} word{}", i % 5)));
                if i % 3 == 0 {
                    idx.delete(DocId(i / 2));
                }
                reports.push(idx.maintain(u64::from(i) * 17));
            }
            (reports, idx.stats())
        };
        let (ra, sa) = run();
        let (rb, sb) = run();
        assert_eq!(ra, rb);
        assert_eq!(sa, sb);
    }
}
