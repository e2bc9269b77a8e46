//! [`IndexedTable`]: a table plus its secondary indexes and optional
//! full-text view, kept in sync through one mutation interface, with a
//! small planner for structured queries.

use crate::error::StoreError;
use crate::filter::{CmpOp, Filter};
use crate::fulltext::{FullTextView, TextHit};
use crate::indexes::{IndexKind, SecondaryIndex};
use crate::table::{Record, RecordId, Table};
use crate::value::Value;
use std::ops::Bound;
use std::sync::{Arc, Mutex};
use symphony_text::DocSet;

/// Sort direction for [`TableQuery::sort`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortDir {
    /// Ascending.
    Asc,
    /// Descending.
    Desc,
}

/// A structured query: filter, then sort, then offset/limit.
#[derive(Debug, Clone)]
pub struct TableQuery {
    /// Row predicate.
    pub filter: Filter,
    /// Sort keys applied in order.
    pub sort: Vec<(usize, SortDir)>,
    /// Rows skipped after sorting.
    pub offset: usize,
    /// Maximum rows returned (`None` = all).
    pub limit: Option<usize>,
}

impl Default for TableQuery {
    fn default() -> Self {
        TableQuery {
            filter: Filter::True,
            sort: Vec::new(),
            offset: 0,
            limit: None,
        }
    }
}

impl TableQuery {
    /// Query with just a filter.
    pub fn filtered(filter: Filter) -> TableQuery {
        TableQuery {
            filter,
            ..TableQuery::default()
        }
    }
}

/// How the planner decided to fetch candidates (exposed for tests and
/// the EXPLAIN-style output in the experiments).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessPath {
    /// Point lookup on an index.
    IndexEq {
        /// Column of the chosen index.
        col: usize,
    },
    /// Range scan on an ordered index.
    IndexRange {
        /// Column of the chosen index.
        col: usize,
    },
    /// Full table scan.
    FullScan,
}

/// A fully-resolved access plan: the chosen index is borrowed and the
/// lookup values are extracted at plan time, so execution cannot
/// disagree with the plan (the old two-pass design re-derived the
/// values from the filter and panicked on mismatch).
enum PlannedAccess<'a> {
    /// Point lookup: `ix` is the index over `col`, `value` the literal
    /// pulled from the same conjunct the planner matched.
    Eq {
        ix: &'a SecondaryIndex,
        col: usize,
        value: Value,
    },
    /// Range scan on an ordered index, between the bounds of one lower
    /// and one upper conjunct on `col` (strict where the operator is).
    Range {
        ix: &'a SecondaryIndex,
        col: usize,
        low: Bound<Value>,
        high: Bound<Value>,
    },
    /// Full table scan.
    Scan,
}

impl PlannedAccess<'_> {
    /// The EXPLAIN-surface shape of this plan.
    fn path(&self) -> AccessPath {
        match self {
            PlannedAccess::Eq { col, .. } => AccessPath::IndexEq { col: *col },
            PlannedAccess::Range { col, .. } => AccessPath::IndexRange { col: *col },
            PlannedAccess::Scan => AccessPath::FullScan,
        }
    }
}

/// Filters remembered per table. A designer bakes a handful of filters
/// into an app's sources; `hybrid_sweep` (BENCHMARK.json) serves four
/// over one table.
const FILTER_MEMO_CAP: usize = 8;

/// What a table remembers of one filter between two writes.
#[derive(Debug)]
struct FilterMemo {
    filter: Filter,
    /// The filter's full-text doc set, once some query resolved it.
    set: Option<Arc<DocSet>>,
    /// Estimated over-fetch, in ns, that search-first queries have
    /// spent under this filter while it stayed unresolved (see
    /// [`IndexedTable::charge_overfetch`]).
    overfetch_ns: f64,
}

/// The entry of `filter`, appended (evicting the oldest at capacity)
/// when the memo does not hold one.
fn memo_entry<'m>(memo: &'m mut Vec<FilterMemo>, filter: &Filter) -> &'m mut FilterMemo {
    let at = memo
        .iter()
        .position(|m| m.filter == *filter)
        .unwrap_or_else(|| {
            if memo.len() == FILTER_MEMO_CAP {
                memo.remove(0);
            }
            memo.push(FilterMemo {
                filter: filter.clone(),
                set: None,
                overfetch_ns: 0.0,
            });
            memo.len() - 1
        });
    &mut memo[at]
}

/// A table with maintained secondary indexes and an optional full-text
/// view.
#[derive(Debug)]
pub struct IndexedTable {
    table: Table,
    secondary: Vec<SecondaryIndex>,
    fulltext: Option<FullTextView>,
    /// Recently served filters, oldest first. A resolved set is valid
    /// for the exact row set and record -> doc mapping it was built
    /// from, so every `&mut self` method that changes either clears the
    /// memo — no versions to compare, and a table under steady writes
    /// simply never reuses a set.
    filter_memo: Mutex<Vec<FilterMemo>>,
}

impl IndexedTable {
    /// Wrap an existing table (no indexes yet; existing rows are
    /// indexed when indexes are created).
    pub fn new(table: Table) -> IndexedTable {
        IndexedTable {
            table,
            secondary: Vec::new(),
            fulltext: None,
            filter_memo: Mutex::new(Vec::new()),
        }
    }

    /// Drop every memoised filter set (see `filter_memo`).
    fn clear_filter_memo(&mut self) {
        self.filter_memo
            .get_mut()
            .expect("filter memo lock poisoned")
            .clear();
    }

    /// Borrow the underlying table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Create a secondary index over `col_name`, backfilling existing
    /// rows.
    pub fn create_index(&mut self, col_name: &str, kind: IndexKind) -> Result<(), StoreError> {
        self.clear_filter_memo();
        let col = self
            .table
            .schema()
            .col(col_name)
            .ok_or_else(|| StoreError::UnknownColumn(col_name.to_string()))?;
        if self.secondary.iter().any(|ix| ix.col() == col) {
            return Err(StoreError::IndexExists(col_name.to_string()));
        }
        let mut ix = SecondaryIndex::new(kind, col);
        for (id, rec) in self.table.iter() {
            ix.insert(rec.get(col), id);
        }
        self.secondary.push(ix);
        Ok(())
    }

    /// Enable full-text search over `(column, boost)` pairs,
    /// backfilling existing rows (in parallel when the table is large
    /// enough to benefit). Replaces any previous view.
    pub fn enable_fulltext(&mut self, searchable: &[(&str, f32)]) -> Result<(), StoreError> {
        self.clear_filter_memo();
        let mut view = FullTextView::new(self.table.schema(), searchable)?;
        view.add_bulk(self.table.iter(), symphony_text::default_build_threads());
        self.fulltext = Some(view);
        Ok(())
    }

    /// Compress the full-text view's posting lists and precompute its
    /// score-bound stats (no-op without a view). The hosting layer
    /// calls this during warmup so first queries skip the raw-postings
    /// slow path.
    pub fn optimize_fulltext(&mut self) {
        if let Some(ft) = &mut self.fulltext {
            ft.optimize();
        }
    }

    /// Run one incremental maintenance step on the full-text view —
    /// seal the memtable when it is over the policy's size cap or
    /// staleness window, then at most one background merge. `None`
    /// without a view. The hosting layer calls this from its virtual
    /// clock so segment lifecycle is deterministic under replay.
    /// Sealing and merging never renumber a doc id (purged docs leave
    /// holes), so memoised filter sets stay valid across it.
    pub fn maintain_fulltext(&mut self, now_ms: u64) -> Option<symphony_text::MaintenanceReport> {
        self.fulltext.as_mut().map(|ft| ft.maintain(now_ms))
    }

    /// Replace the full-text view's segment policy (no-op without a
    /// view).
    pub fn set_fulltext_policy(&mut self, policy: symphony_text::SegmentPolicy) {
        if let Some(ft) = &mut self.fulltext {
            ft.set_policy(policy);
        }
    }

    /// Insert a record, maintaining all indexes.
    pub fn insert(&mut self, record: Record) -> RecordId {
        self.clear_filter_memo();
        let id = self.table.insert(record);
        let rec = self.table.get(id).expect("just inserted");
        for ix in &mut self.secondary {
            ix.insert(rec.get(ix.col()), id);
        }
        if let Some(ft) = &mut self.fulltext {
            ft.add(id, rec);
        }
        id
    }

    /// Insert from raw strings (see
    /// `Table::insert_raw`).
    pub fn insert_raw(&mut self, raw: &[String]) -> RecordId {
        self.clear_filter_memo();
        let id = self.table.insert_raw(raw);
        let rec = self.table.get(id).expect("just inserted");
        for ix in &mut self.secondary {
            ix.insert(rec.get(ix.col()), id);
        }
        if let Some(ft) = &mut self.fulltext {
            ft.add(id, rec);
        }
        id
    }

    /// Delete a record, maintaining all indexes.
    pub fn delete(&mut self, id: RecordId) -> Option<Record> {
        self.clear_filter_memo();
        let old = self.table.delete(id)?;
        for ix in &mut self.secondary {
            ix.remove(old.get(ix.col()), id);
        }
        if let Some(ft) = &mut self.fulltext {
            ft.remove(id);
        }
        Some(old)
    }

    /// Update a record, maintaining all indexes.
    pub fn update(&mut self, id: RecordId, record: Record) -> Option<Record> {
        self.clear_filter_memo();
        let old = self.table.update(id, record)?;
        let new = self.table.get(id).expect("just updated");
        for ix in &mut self.secondary {
            ix.remove(old.get(ix.col()), id);
            ix.insert(new.get(ix.col()), id);
        }
        if let Some(ft) = &mut self.fulltext {
            ft.add(id, new);
        }
        Some(old)
    }

    /// Plan the access path for a filter. The returned plan carries the
    /// resolved index reference and lookup values, so execution never
    /// re-derives them from the filter shape (a mismatch used to panic
    /// here; now it is unrepresentable — anything the planner cannot
    /// fully resolve degrades to [`PlannedAccess::Scan`]). The flag is
    /// true when the access path yields exactly the filter's rows, so
    /// no residual `eval` is needed: the filter is one non-null
    /// equality, or at most one lower and one upper non-null bound, on
    /// the planned column and nothing else.
    fn plan<'a>(&'a self, filter: &Filter) -> (PlannedAccess<'a>, bool) {
        // Flatten top-level conjunctions and look for a usable
        // conjunct. Preference: index equality, then ordered range.
        let mut conjuncts = Vec::new();
        flatten_and(filter, &mut conjuncts);
        let mut range: Option<(&SecondaryIndex, usize)> = None;
        for c in &conjuncts {
            if let Filter::Cmp { col, op, value } = c {
                let Some(ix) = self.secondary.iter().find(|ix| ix.col() == *col) else {
                    continue;
                };
                match op {
                    CmpOp::Eq => {
                        let access = PlannedAccess::Eq {
                            ix,
                            col: *col,
                            value: value.clone(),
                        };
                        return (access, conjuncts.len() == 1 && !value.is_null());
                    }
                    CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge
                        if ix.kind() == IndexKind::Ordered && range.is_none() =>
                    {
                        range = Some((ix, *col));
                    }
                    _ => {}
                }
            }
        }
        let Some((ix, col)) = range else {
            return (PlannedAccess::Scan, false);
        };
        // A comparison is false on a null cell and nulls sort first, so
        // an open lower end starts just past them. Each bound below is
        // one conjunct's, hence a superset of the filter's rows on its
        // own; with several on one side the last one stands.
        let mut low = Bound::Excluded(Value::Null);
        let mut high = Bound::Unbounded;
        let (mut lows, mut highs) = (0, 0);
        let mut exact = true;
        for c in &conjuncts {
            match c {
                Filter::Cmp { col: c, op, value } if *c == col && !value.is_null() => match op {
                    CmpOp::Gt | CmpOp::Ge => {
                        lows += 1;
                        low = if *op == CmpOp::Gt {
                            Bound::Excluded(value.clone())
                        } else {
                            Bound::Included(value.clone())
                        };
                    }
                    CmpOp::Lt | CmpOp::Le => {
                        highs += 1;
                        high = if *op == CmpOp::Lt {
                            Bound::Excluded(value.clone())
                        } else {
                            Bound::Included(value.clone())
                        };
                    }
                    _ => exact = false,
                },
                _ => exact = false,
            }
        }
        let access = PlannedAccess::Range { ix, col, low, high };
        (access, exact && lows <= 1 && highs <= 1)
    }

    /// The access path the planner would choose for a filter (exposed
    /// for tests and EXPLAIN output).
    pub(crate) fn explain(&self, filter: &Filter) -> AccessPath {
        self.plan(filter).0.path()
    }

    /// Run a structured query.
    pub fn query(&self, q: &TableQuery) -> Vec<(RecordId, &Record)> {
        self.query_explained(q).0
    }

    /// Run a structured query, returning the rows together with the
    /// access path that actually executed (plan and execution are one
    /// fused pass, so the reported path can never diverge from what
    /// ran).
    pub(crate) fn query_explained(&self, q: &TableQuery) -> (Vec<(RecordId, &Record)>, AccessPath) {
        let (plan, _) = self.plan(&q.filter);
        let path = plan.path();
        let matching = |id: RecordId| {
            self.table
                .get(id)
                .filter(|r| q.filter.eval(r))
                .map(|r| (id, r))
        };
        let mut rows: Vec<(RecordId, &Record)> = match plan {
            PlannedAccess::Eq { ix, value, .. } => ix
                .ids_eq(&value)
                .iter()
                .copied()
                .filter_map(matching)
                .collect(),
            PlannedAccess::Range { ix, low, high, .. } => ix
                .range_runs(low.as_ref(), high.as_ref())
                .into_iter()
                .flatten()
                .flatten()
                .copied()
                .filter_map(matching)
                .collect(),
            PlannedAccess::Scan => self
                .table
                .iter()
                .filter(|(_, r)| q.filter.eval(r))
                .collect(),
        };
        if !q.sort.is_empty() {
            rows.sort_by(|(ia, a), (ib, b)| {
                for &(col, dir) in &q.sort {
                    let ord = a.get(col).cmp_total(b.get(col));
                    let ord = match dir {
                        SortDir::Asc => ord,
                        SortDir::Desc => ord.reverse(),
                    };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                ia.cmp(ib)
            });
        } else {
            rows.sort_by_key(|(id, _)| *id);
        }
        let end = q
            .limit
            .map(|l| (q.offset + l).min(rows.len()))
            .unwrap_or(rows.len());
        let start = q.offset.min(end);
        (rows[start..end].to_vec(), path)
    }

    /// What the memo holds of `filter`: its doc set when resolved, and
    /// the over-fetch charged to it while it was not.
    pub(crate) fn memo_lookup(&self, filter: &Filter) -> (Option<Arc<DocSet>>, f64) {
        let memo = self.filter_memo.lock().expect("filter memo lock poisoned");
        memo.iter()
            .find(|m| m.filter == *filter)
            .map_or((None, 0.0), |m| (m.set.clone(), m.overfetch_ns))
    }

    /// Record that a search-first query under the still unresolved
    /// `filter` spent an estimated `ns` over-fetching. The planner
    /// resolves the set once these charges would have paid for it: on a
    /// table that is read between writes that happens after a few
    /// queries, on one written before every read never.
    pub(crate) fn charge_overfetch(&self, filter: &Filter, ns: f64) {
        let mut memo = self.filter_memo.lock().expect("filter memo lock poisoned");
        memo_entry(&mut memo, filter).overfetch_ns += ns;
    }

    /// Resolve the full-text doc ids of the live records matching
    /// `filter` through the access plan — ids only, no row is copied —
    /// and memoise them for the queries that follow.
    pub(crate) fn resolve_doc_set(&self, ft: &FullTextView, filter: &Filter) -> Arc<DocSet> {
        // Resolved outside the lock: readers that race on a cold filter
        // each build the same set, and the first one back in keeps its.
        let (plan, exact) = self.plan(filter);
        let residual = |id: &RecordId| exact || self.table.get(*id).is_some_and(|r| filter.eval(r));
        let built = Arc::new(match plan {
            PlannedAccess::Eq { ix, value, .. } => {
                ft.doc_set_for(ix.ids_eq(&value).iter().copied().filter(residual))
            }
            PlannedAccess::Range { ix, low, high, .. } => ft.doc_set_for(
                ix.range_runs(low.as_ref(), high.as_ref())
                    .into_iter()
                    .flatten()
                    .flatten()
                    .copied()
                    .filter(residual),
            ),
            PlannedAccess::Scan => ft.doc_set_for(
                self.table
                    .iter()
                    .filter(|(_, r)| filter.eval(r))
                    .map(|(id, _)| id),
            ),
        });
        let mut memo = self.filter_memo.lock().expect("filter memo lock poisoned");
        Arc::clone(memo_entry(&mut memo, filter).set.get_or_insert(built))
    }

    /// Exact number of records matching the most selective indexed
    /// conjunct of `filter` — an upper bound on the true match count,
    /// read off maintained index counters (no record is touched).
    /// `None` when no conjunct is index-backed.
    pub(crate) fn estimate_filter_matches(&self, filter: &Filter) -> Option<usize> {
        let mut conjuncts = Vec::new();
        flatten_and(filter, &mut conjuncts);
        let mut best: Option<usize> = None;
        for c in &conjuncts {
            if let Filter::Cmp { col, op, value } = c {
                let Some(ix) = self.secondary.iter().find(|ix| ix.col() == *col) else {
                    continue;
                };
                // `count_range` is inclusive; a strict bound sheds the
                // rows equal to it.
                let strict = |n: usize| match op {
                    CmpOp::Lt | CmpOp::Gt => n - ix.count_eq(value),
                    _ => n,
                };
                let est = match op {
                    CmpOp::Eq => Some(ix.count_eq(value)),
                    CmpOp::Lt | CmpOp::Le => ix.count_range(None, Some(value)).map(strict),
                    CmpOp::Gt | CmpOp::Ge => ix.count_range(Some(value), None).map(strict),
                    _ => None,
                };
                if let Some(e) = est {
                    best = Some(best.map_or(e, |b| b.min(e)));
                }
            }
        }
        best
    }

    /// Record ids whose `col` equals `key` — the index-backed side of a
    /// join between this table and an external result set keyed on a
    /// typed column. Falls back to a scan when `col` is unindexed.
    pub(crate) fn join_on_column(&self, col: usize, key: &Value) -> Vec<RecordId> {
        if let Some(ix) = self.secondary.iter().find(|ix| ix.col() == col) {
            return ix.lookup_eq(key);
        }
        self.table
            .iter()
            .filter(|(_, r)| r.get(col).cmp_total(key) == std::cmp::Ordering::Equal)
            .map(|(id, _)| id)
            .collect()
    }

    /// Borrow the secondary index over `col`, when one exists.
    pub fn secondary_index(&self, col: usize) -> Option<&SecondaryIndex> {
        self.secondary.iter().find(|ix| ix.col() == col)
    }

    /// Full-text search (errors when no view is enabled).
    pub fn search(
        &self,
        query: &symphony_text::Query,
        k: usize,
    ) -> Result<Vec<TextHit>, StoreError> {
        self.fulltext
            .as_ref()
            .map(|ft| ft.search(query, k))
            .ok_or(StoreError::NoFullText)
    }

    /// Borrow the full-text view when enabled.
    pub fn fulltext(&self) -> Option<&FullTextView> {
        self.fulltext.as_ref()
    }
}

fn flatten_and<'a>(f: &'a Filter, out: &mut Vec<&'a Filter>) {
    match f {
        Filter::And(a, b) => {
            flatten_and(a, out);
            flatten_and(b, out);
        }
        other => out.push(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{FieldType, Schema};

    fn inventory() -> IndexedTable {
        let schema = Schema::of(&[
            ("title", FieldType::Text),
            ("genre", FieldType::Text),
            ("price", FieldType::Float),
        ]);
        let mut it = IndexedTable::new(Table::new("inv", schema));
        for (t, g, p) in [
            ("Galactic Raiders", "shooter", 49.99),
            ("Farm Story", "sim", 19.99),
            ("Space Trader", "sim", 29.99),
            ("Laser Golf", "sports", 9.99),
            ("Puzzle Palace", "puzzle", 14.99),
        ] {
            it.insert(Record::new(vec![
                Value::Text(t.into()),
                Value::Text(g.into()),
                Value::Float(p),
            ]));
        }
        it
    }

    #[test]
    fn create_index_backfills() {
        let mut it = inventory();
        it.create_index("genre", IndexKind::Hash).unwrap();
        let q = TableQuery::filtered(Filter::eq(1, Value::Text("sim".into())));
        assert_eq!(it.explain(&q.filter), AccessPath::IndexEq { col: 1 });
        assert_eq!(it.query(&q).len(), 2);
    }

    #[test]
    fn duplicate_index_rejected() {
        let mut it = inventory();
        it.create_index("genre", IndexKind::Hash).unwrap();
        assert_eq!(
            it.create_index("genre", IndexKind::Ordered),
            Err(StoreError::IndexExists("genre".into()))
        );
    }

    #[test]
    fn unknown_column_index_rejected() {
        let mut it = inventory();
        assert_eq!(
            it.create_index("nope", IndexKind::Hash),
            Err(StoreError::UnknownColumn("nope".into()))
        );
    }

    #[test]
    fn range_plan_on_ordered_index() {
        let mut it = inventory();
        it.create_index("price", IndexKind::Ordered).unwrap();
        let f = Filter::cmp(2, CmpOp::Ge, Value::Float(15.0)).and(Filter::cmp(
            2,
            CmpOp::Lt,
            Value::Float(40.0),
        ));
        assert_eq!(it.explain(&f), AccessPath::IndexRange { col: 2 });
        let rows = it.query(&TableQuery::filtered(f));
        let titles: Vec<String> = rows
            .iter()
            .map(|(_, r)| r.get(0).display_string())
            .collect();
        assert_eq!(titles, vec!["Farm Story", "Space Trader"]);
    }

    #[test]
    fn strict_bounds_enforced_by_residual_filter() {
        let mut it = inventory();
        it.create_index("price", IndexKind::Ordered).unwrap();
        let f = Filter::cmp(2, CmpOp::Gt, Value::Float(19.99));
        let rows = it.query(&TableQuery::filtered(f));
        assert!(rows
            .iter()
            .all(|(_, r)| matches!(r.get(2), Value::Float(p) if *p > 19.99)));
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn full_scan_without_index() {
        let it = inventory();
        let f = Filter::eq(1, Value::Text("sim".into()));
        assert_eq!(it.explain(&f), AccessPath::FullScan);
        assert_eq!(it.query(&TableQuery::filtered(f)).len(), 2);
    }

    #[test]
    fn index_and_scan_agree() {
        let mut with_ix = inventory();
        with_ix.create_index("genre", IndexKind::Hash).unwrap();
        let without_ix = inventory();
        let f = Filter::eq(1, Value::Text("sim".into()));
        let a: Vec<RecordId> = with_ix
            .query(&TableQuery::filtered(f.clone()))
            .iter()
            .map(|(id, _)| *id)
            .collect();
        let b: Vec<RecordId> = without_ix
            .query(&TableQuery::filtered(f))
            .iter()
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn sort_offset_limit() {
        let it = inventory();
        let q = TableQuery {
            filter: Filter::True,
            sort: vec![(2, SortDir::Desc)],
            offset: 1,
            limit: Some(2),
        };
        let titles: Vec<String> = it
            .query(&q)
            .iter()
            .map(|(_, r)| r.get(0).display_string())
            .collect();
        assert_eq!(titles, vec!["Space Trader", "Farm Story"]);
    }

    #[test]
    fn offset_past_end_is_empty() {
        let it = inventory();
        let q = TableQuery {
            offset: 99,
            ..TableQuery::default()
        };
        assert!(it.query(&q).is_empty());
    }

    #[test]
    fn mutations_keep_indexes_consistent() {
        let mut it = inventory();
        it.create_index("genre", IndexKind::Hash).unwrap();
        it.enable_fulltext(&[("title", 1.0)]).unwrap();
        let id = it.insert(Record::new(vec![
            Value::Text("Star Farm".into()),
            Value::Text("sim".into()),
            Value::Float(5.0),
        ]));
        let sim = Filter::eq(1, Value::Text("sim".into()));
        assert_eq!(it.query(&TableQuery::filtered(sim.clone())).len(), 3);
        assert_eq!(
            it.search(&symphony_text::Query::parse("star"), 10)
                .unwrap()
                .len(),
            1
        );

        it.update(
            id,
            Record::new(vec![
                Value::Text("Star Farm".into()),
                Value::Text("strategy".into()),
                Value::Float(5.0),
            ]),
        );
        assert_eq!(it.query(&TableQuery::filtered(sim.clone())).len(), 2);

        it.delete(id);
        assert_eq!(it.query(&TableQuery::filtered(sim)).len(), 2);
        assert!(it
            .search(&symphony_text::Query::parse("star"), 10)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn maintain_fulltext_seals_and_purges_incrementally() {
        let mut it = inventory();
        assert!(it.maintain_fulltext(0).is_none(), "no view yet");
        it.enable_fulltext(&[("title", 1.0)]).unwrap();
        it.set_fulltext_policy(symphony_text::SegmentPolicy {
            memtable_max_docs: 2,
            staleness_window_ms: 100,
            merge_fanin: 4,
            near_real_time: false,
        });
        let id = it.insert(Record::new(vec![
            Value::Text("Star Farm".into()),
            Value::Text("sim".into()),
            Value::Float(5.0),
        ]));
        // The backfilled rows plus the fresh insert sit in the
        // memtable; the staleness window seals them without a rebuild.
        let r = it.maintain_fulltext(200).unwrap();
        assert!(r.sealed);
        assert_eq!(
            it.search(&symphony_text::Query::parse("star"), 10)
                .unwrap()
                .len(),
            1
        );
        it.delete(id);
        assert!(it
            .search(&symphony_text::Query::parse("star"), 10)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn every_mutator_clears_the_filter_memo() {
        let row = || {
            Record::new(vec![
                Value::Text("Star Farm".into()),
                Value::Text("sim".into()),
                Value::Float(5.0),
            ])
        };
        type Mutator = fn(&mut IndexedTable, Record);
        let mutators: [(&str, Mutator); 6] = [
            ("insert", |it, r| {
                it.insert(r);
            }),
            ("insert_raw", |it, _| {
                it.insert_raw(&["Star Farm".into(), "sim".into(), "5.0".into()]);
            }),
            ("delete", |it, _| {
                it.delete(RecordId(0));
            }),
            ("update", |it, r| {
                it.update(RecordId(1), r);
            }),
            ("create_index", |it, _| {
                it.create_index("genre", IndexKind::Hash).unwrap();
            }),
            ("enable_fulltext", |it, _| {
                it.enable_fulltext(&[("genre", 1.0)]).unwrap();
            }),
        ];
        for (name, mutate) in mutators {
            let mut it = inventory();
            it.create_index("price", IndexKind::Ordered).unwrap();
            it.enable_fulltext(&[("title", 1.0)]).unwrap();
            let cheap = Filter::cmp(2, CmpOp::Lt, Value::Float(20.0));
            let dear = Filter::cmp(2, CmpOp::Ge, Value::Float(20.0));
            let set = it.resolve_doc_set(it.fulltext().unwrap(), &cheap);
            assert_eq!(set.len(), 3);
            it.charge_overfetch(&dear, 1.0);
            assert!(it.memo_lookup(&cheap).0.is_some());
            assert_eq!(it.memo_lookup(&dear).1, 1.0);
            mutate(&mut it, row());
            assert!(
                it.filter_memo.lock().unwrap().is_empty(),
                "{name} left the memo standing"
            );
        }
    }

    #[test]
    fn filter_memo_evicts_the_oldest_at_capacity() {
        let mut it = inventory();
        it.enable_fulltext(&[("title", 1.0)]).unwrap();
        let f = |i: usize| Filter::cmp(2, CmpOp::Lt, Value::Float(i as f64));
        for i in 0..=FILTER_MEMO_CAP {
            it.resolve_doc_set(it.fulltext().unwrap(), &f(i));
        }
        assert_eq!(it.filter_memo.lock().unwrap().len(), FILTER_MEMO_CAP);
        assert!(it.memo_lookup(&f(0)).0.is_none());
        assert!(it.memo_lookup(&f(FILTER_MEMO_CAP)).0.is_some());
    }

    #[test]
    fn exact_index_bounds_match_the_residual_filter() {
        // One lower and one upper bound on the planned column need no
        // residual eval; nulls, strict bounds and inverted intervals
        // must still come out as `eval` would have them.
        let schema = Schema::of(&[("title", FieldType::Text), ("n", FieldType::Int)]);
        let mut it = IndexedTable::new(Table::new("t", schema));
        for n in [
            Value::Null,
            Value::Int(1),
            Value::Int(2),
            Value::Int(2),
            Value::Int(3),
        ] {
            it.insert(Record::new(vec![Value::Text("x".into()), n]));
        }
        it.create_index("n", IndexKind::Ordered).unwrap();
        it.enable_fulltext(&[("title", 1.0)]).unwrap();
        let cmp = |op, v| Filter::cmp(1, op, Value::Int(v));
        for f in [
            cmp(CmpOp::Lt, 2),
            cmp(CmpOp::Le, 2),
            cmp(CmpOp::Gt, 2),
            cmp(CmpOp::Ge, 2),
            cmp(CmpOp::Eq, 2),
            cmp(CmpOp::Gt, 1).and(cmp(CmpOp::Lt, 3)),
            cmp(CmpOp::Gt, 3).and(cmp(CmpOp::Lt, 1)),
            cmp(CmpOp::Gt, 2).and(cmp(CmpOp::Lt, 2)),
            cmp(CmpOp::Gt, 0).and(cmp(CmpOp::Gt, 2)),
            Filter::cmp(1, CmpOp::Lt, Value::Null),
        ] {
            let scanned = it.table().iter().filter(|(_, r)| f.eval(r)).count();
            assert_eq!(it.query(&TableQuery::filtered(f.clone())).len(), scanned);
            let set = it.resolve_doc_set(it.fulltext().unwrap(), &f);
            assert_eq!(set.len(), scanned, "{f:?}");
            assert!(it.estimate_filter_matches(&f).unwrap() >= scanned);
        }
    }

    #[test]
    fn search_without_fulltext_errors() {
        let it = inventory();
        assert_eq!(
            it.search(&symphony_text::Query::parse("x"), 5).unwrap_err(),
            StoreError::NoFullText
        );
    }
}
