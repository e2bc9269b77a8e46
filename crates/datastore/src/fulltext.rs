//! Full-text view over a table's text columns.
//!
//! The paper: "Symphony provides private and secure space to store
//! *and index* proprietary data". This module is the "index" half —
//! it mirrors chosen columns of a [`Table`](crate::table::Table) into a
//! `symphony-text` inverted index and maps hits back to record ids.

use crate::error::StoreError;
use crate::schema::Schema;
use crate::table::{Record, RecordId};
use symphony_text::postings::NO_DOC;
use symphony_text::query::Query;
use symphony_text::{
    Doc, DocId, DocSet, FieldId, Index, IndexConfig, MaintenanceReport, Searcher, SegmentPolicy,
};

/// A searchable projection of selected table columns.
pub struct FullTextView {
    index: Index,
    /// `(table column, text field)` pairs, in registration order.
    cols: Vec<(usize, FieldId)>,
    /// Doc id -> record id (dense, grows with adds).
    doc_to_record: Vec<RecordId>,
    /// Record id -> live doc id, indexed by record id (record ids are
    /// dense and never reused); [`NO_DOC`] marks a record the view does
    /// not hold.
    record_to_doc: Vec<u32>,
    /// Entries of `record_to_doc` that hold a doc id.
    live: usize,
}

impl std::fmt::Debug for FullTextView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FullTextView")
            .field("cols", &self.cols)
            .field("docs", &self.doc_to_record.len())
            .finish()
    }
}

/// One full-text hit mapped back to the table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TextHit {
    /// Matching record.
    pub record: RecordId,
    /// BM25 score.
    pub score: f32,
}

impl FullTextView {
    /// Create a view over `searchable` columns, given as
    /// `(column name, boost)`. Field names in the text index equal the
    /// column names, so `Query::parse("title:x")` works.
    pub(crate) fn new(
        schema: &Schema,
        searchable: &[(&str, f32)],
    ) -> Result<FullTextView, StoreError> {
        let mut index = Index::new(IndexConfig::default());
        let mut cols = Vec::with_capacity(searchable.len());
        for (name, boost) in searchable {
            let col = schema
                .col(name)
                .ok_or_else(|| StoreError::UnknownColumn(name.to_string()))?;
            let field = index.register_field(name, *boost);
            cols.push((col, field));
        }
        Ok(FullTextView {
            index,
            cols,
            doc_to_record: Vec::new(),
            record_to_doc: Vec::new(),
            live: 0,
        })
    }

    /// Project a record's searchable columns into an index document
    /// that borrows the record's text (the table holds the only copy).
    fn build_doc<'r>(cols: &[(usize, FieldId)], record: &'r Record) -> Doc<'r> {
        let mut doc = Doc::new();
        for &(col, field) in cols {
            let text = record.get(col).index_text();
            if !text.is_empty() {
                doc = doc.field(field, text);
            }
        }
        doc
    }

    /// Index a record, or refresh it in place after an update: a known
    /// record goes through [`Index::update`] (tombstone + re-add under
    /// a fresh doc id), so re-crawls and edits never rebuild the view.
    pub(crate) fn add(&mut self, id: RecordId, record: &Record) {
        let doc = Self::build_doc(&self.cols, record);
        let doc_id = match self.doc_of(id) {
            Some(old) => self
                .index
                .update(DocId(old), doc)
                .expect("record_to_doc only maps live doc ids"),
            None => self.index.add(doc),
        };
        self.map_record(id, doc_id);
    }

    /// The live doc id of `id`, when the view holds the record.
    fn doc_of(&self, id: RecordId) -> Option<u32> {
        self.record_to_doc
            .get(id.as_usize())
            .copied()
            .filter(|&d| d != NO_DOC)
    }

    /// Grow `record_to_doc` to hold a slot for `id`.
    fn cover(&mut self, id: RecordId) {
        if self.record_to_doc.len() <= id.as_usize() {
            self.record_to_doc.resize(id.as_usize() + 1, NO_DOC);
        }
    }

    /// Point `id` at its freshly assigned `doc_id` (both directions).
    fn map_record(&mut self, id: RecordId, doc_id: DocId) {
        debug_assert_eq!(doc_id.as_usize(), self.doc_to_record.len());
        self.doc_to_record.push(id);
        self.cover(id);
        let slot = &mut self.record_to_doc[id.as_usize()];
        if *slot == NO_DOC {
            self.live += 1;
        }
        *slot = doc_id.0;
    }

    /// Bulk-index a batch of records using up to `threads` worker
    /// threads (`Index::build_parallel` under the hood — after
    /// [`optimize`](Self::optimize) the result is bit-identical to
    /// calling [`add`](Self::add) per record in order). Used by table
    /// backfills, where the whole table arrives at once. The records'
    /// documents are built lazily as the build pulls them, so only the
    /// chunks of one build wave are ever held raw; the batch lands as
    /// sealed segments, searchable when the call returns.
    pub(crate) fn add_bulk<'a, I>(&mut self, rows: I, threads: usize)
    where
        I: IntoIterator<Item = (RecordId, &'a Record)>,
    {
        let rows: Vec<(RecordId, &Record)> = rows.into_iter().collect();
        for &(id, _) in &rows {
            self.remove(id);
        }
        // Size the record map for the batch in one step, before the
        // build: regrown record by record afterwards, its final block
        // lands among the build threads' freed arenas and pins tens of
        // MB of them (`peak_rss_mb` on the ledger's 100k-row catalog).
        if let Some(&(last, _)) = rows.iter().max_by_key(|(id, _)| *id) {
            self.cover(last);
        }
        let cols = &self.cols;
        let docs = rows
            .iter()
            .map(|&(_, record)| Self::build_doc(cols, record));
        let doc_ids = self.index.build_parallel(docs, threads);
        for (&(id, _), doc_id) in rows.iter().zip(doc_ids) {
            self.map_record(id, doc_id);
        }
    }

    /// Drop a record from the view (no-op when absent).
    pub(crate) fn remove(&mut self, id: RecordId) {
        if let Some(doc) = self.doc_of(id) {
            self.index.delete(DocId(doc));
            self.record_to_doc[id.as_usize()] = NO_DOC;
            self.live -= 1;
        }
    }

    /// Fully compact the view: compress posting lists, purge removed
    /// records from them, and precompute the per-term score bounds that
    /// let [`search`](Self::search) prune non-competitive records.
    /// Call after bulk loading; results are identical either way.
    pub(crate) fn optimize(&mut self) {
        self.index.optimize();
    }

    /// One incremental maintenance step: seal the memtable segment when
    /// it is over the policy's size cap or staleness window, then run
    /// at most one background merge (which also purges removed
    /// records). Hosting drives this on the platform's virtual clock,
    /// so replay is deterministic.
    pub(crate) fn maintain(&mut self, now_ms: u64) -> MaintenanceReport {
        self.index.maintain(now_ms)
    }

    /// Replace the underlying index's segment policy.
    pub(crate) fn set_policy(&mut self, policy: SegmentPolicy) {
        self.index.set_policy(policy);
    }

    /// Execute a full-text query, returning the top `k` records.
    pub(crate) fn search(&self, query: &Query, k: usize) -> Vec<TextHit> {
        self.map_hits(Searcher::new(&self.index).search(query, k))
    }

    /// Top `k` restricted to a pre-resolved [`DocSet`] — the pushdown
    /// path, where the set rides the executor as a non-scoring
    /// conjunctive cursor and selective sets skip posting blocks
    /// decode-free.
    pub(crate) fn search_docset(&self, query: &Query, k: usize, allowed: &DocSet) -> Vec<TextHit> {
        self.map_hits(Searcher::new(&self.index).search_docset(query, k, allowed))
    }

    /// Top `k` under a caller predicate on record ids, scored by the
    /// term-at-a-time reference (no pruning) — what the forced scan
    /// plan runs, so the differential tests compare the served plans
    /// against an independent executor.
    pub(crate) fn search_exhaustive_filtered<F: Fn(RecordId) -> bool>(
        &self,
        query: &Query,
        k: usize,
        accept: F,
    ) -> Vec<TextHit> {
        let hits = Searcher::new(&self.index)
            .search_exhaustive(query, k, |d| accept(self.doc_to_record[d.as_usize()]));
        self.map_hits(hits)
    }

    /// Translate a set of record ids into the live [`DocSet`] the
    /// pushdown cursor consumes. Records unknown to the view (never
    /// indexed, or removed) are silently dropped.
    pub(crate) fn doc_set_for<I: IntoIterator<Item = RecordId>>(&self, records: I) -> DocSet {
        DocSet::from_unsorted(
            records
                .into_iter()
                .filter_map(|id| self.doc_of(id))
                .collect(),
        )
    }

    /// Number of live (searchable) records in the view.
    pub fn live_records(&self) -> usize {
        self.live
    }

    fn map_hits(&self, hits: Vec<symphony_text::SearchHit>) -> Vec<TextHit> {
        hits.into_iter()
            .map(|h| TextHit {
                record: self.doc_to_record[h.doc.as_usize()],
                score: h.score,
            })
            .collect()
    }

    /// Borrow the underlying text index (stats, analyzer access).
    pub fn index(&self) -> &Index {
        &self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::FieldType;
    use crate::table::Table;
    use crate::value::Value;

    fn setup() -> (Table, FullTextView) {
        let schema = Schema::of(&[
            ("title", FieldType::Text),
            ("description", FieldType::Text),
            ("price", FieldType::Float),
        ]);
        let view = FullTextView::new(&schema, &[("title", 2.0), ("description", 1.0)]).unwrap();
        (Table::new("inv", schema), view)
    }

    fn add(t: &mut Table, v: &mut FullTextView, title: &str, desc: &str) -> RecordId {
        let id = t.insert(Record::new(vec![
            Value::Text(title.into()),
            Value::Text(desc.into()),
            Value::Float(10.0),
        ]));
        v.add(id, t.get(id).unwrap());
        id
    }

    #[test]
    fn search_maps_back_to_records() {
        let (mut t, mut v) = setup();
        let a = add(&mut t, &mut v, "Galactic Raiders", "space shooter");
        let _b = add(&mut t, &mut v, "Farm Story", "calm farming");
        let hits = v.search(&Query::parse("shooter"), 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].record, a);
        assert!(hits[0].score > 0.0);
    }

    #[test]
    fn unknown_column_errors() {
        let schema = Schema::of(&[("a", FieldType::Text)]);
        let err = FullTextView::new(&schema, &[("nope", 1.0)]).unwrap_err();
        assert_eq!(err, StoreError::UnknownColumn("nope".into()));
    }

    #[test]
    fn remove_hides_record() {
        let (mut t, mut v) = setup();
        let a = add(&mut t, &mut v, "Galactic Raiders", "space shooter");
        v.remove(a);
        assert!(v.search(&Query::parse("shooter"), 10).is_empty());
        v.remove(a); // idempotent
    }

    #[test]
    fn re_add_replaces_old_text() {
        let (mut t, mut v) = setup();
        let a = add(&mut t, &mut v, "Old Title", "old text");
        t.update(
            a,
            Record::new(vec![
                Value::Text("New Title".into()),
                Value::Text("new text".into()),
                Value::Float(1.0),
            ]),
        );
        v.add(a, t.get(a).unwrap());
        assert!(v.search(&Query::parse("old"), 10).is_empty());
        let hits = v.search(&Query::parse("new"), 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].record, a);
    }

    #[test]
    fn optimize_preserves_results_and_keeps_view_updatable() {
        let (mut t, mut v) = setup();
        let a = add(&mut t, &mut v, "Galactic Raiders", "space shooter game");
        let b = add(&mut t, &mut v, "Space Farm", "calm farming in space");
        add(&mut t, &mut v, "Puzzle Pack", "logic puzzles");
        let before = v.search(&Query::parse("space shooter"), 10);
        v.optimize();
        let after = v.search(&Query::parse("space shooter"), 10);
        assert_eq!(before, after);
        assert_eq!(after.len(), 2);
        // The view keeps accepting mutations after optimization.
        v.remove(b);
        let c = add(&mut t, &mut v, "Space Golf", "golf in space");
        let hits = v.search(&Query::parse("space"), 10);
        let records: Vec<RecordId> = hits.iter().map(|h| h.record).collect();
        assert!(records.contains(&a) && records.contains(&c));
        assert!(!records.contains(&b));
    }

    #[test]
    fn refresh_updates_in_place_without_rebuild() {
        let (mut t, mut v) = setup();
        let a = add(&mut t, &mut v, "Old Title", "old text");
        v.optimize();
        let sealed_before = v.index().stats().sealed_segments;
        t.update(
            a,
            Record::new(vec![
                Value::Text("New Title".into()),
                Value::Text("new text".into()),
                Value::Float(1.0),
            ]),
        );
        v.add(a, t.get(a).unwrap());
        // The refresh tombstoned the old doc and re-added into the
        // memtable; the sealed segment was not rebuilt.
        assert_eq!(v.index().stats().sealed_segments, sealed_before);
        assert_eq!(v.index().stats().memtable_docs, 1);
        assert!(v.search(&Query::parse("old"), 10).is_empty());
        assert_eq!(v.search(&Query::parse("new"), 10)[0].record, a);
    }

    #[test]
    fn maintain_seals_and_purges_removed_records() {
        let (mut t, mut v) = setup();
        v.set_policy(symphony_text::SegmentPolicy {
            memtable_max_docs: 2,
            staleness_window_ms: 100,
            merge_fanin: 4,
            near_real_time: false,
        });
        let a = add(&mut t, &mut v, "Galactic Raiders", "space shooter");
        let b = add(&mut t, &mut v, "Space Farm", "calm space farming");
        let r = v.maintain(10);
        assert!(r.sealed, "size cap reached");
        v.remove(a);
        v.remove(b);
        let c = add(&mut t, &mut v, "Space Golf", "golf in space");
        // Time passes: one tick seals the memtable (staleness window)
        // and rewrites the now majority-dead first segment, physically
        // purging both removed records.
        let r = v.maintain(200);
        assert!(r.sealed);
        assert_eq!(r.merged_segments, 1);
        assert_eq!(r.purged_docs, 2);
        let hits = v.search(&Query::parse("space"), 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].record, c);
    }

    #[test]
    fn field_restricted_query_uses_column_names() {
        let (mut t, mut v) = setup();
        add(&mut t, &mut v, "space opera", "a story");
        add(&mut t, &mut v, "farm tale", "set in space");
        let hits = v.search(&Query::parse("title:space"), 10);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn non_text_columns_index_their_display_form() {
        let schema = Schema::of(&[("name", FieldType::Text), ("year", FieldType::Int)]);
        let mut table = Table::new("t", schema.clone());
        let mut view = FullTextView::new(&schema, &[("name", 1.0), ("year", 1.0)]).unwrap();
        let id = table.insert(Record::new(vec![
            Value::Text("Classic".into()),
            Value::Int(2009),
        ]));
        view.add(id, table.get(id).unwrap());
        assert_eq!(view.search(&Query::parse("2009"), 10).len(), 1);
    }
}
