//! Hybrid structured + full-text queries over an [`IndexedTable`].
//!
//! The paper composes *sources*; this module composes *predicates*: a
//! designer can ask "reviews mentioning 'oak' where price < 20 and
//! in_stock" as one query. A small cost-based planner reads exact
//! cardinalities off the maintained secondary-index counters and picks
//! one of two rank-equivalent strategies:
//!
//! * **filter-first** — resolve the structured predicate through the
//!   secondary indexes into an exact [`DocSet`](symphony_text::DocSet)
//!   and run pruned top-k restricted to it (the executor mounts the
//!   set as a driving gate or as a per-candidate probe, by density);
//! * **search-first** — pruned top-k with geometric over-fetch and a
//!   post-filter refill, for predicates too dense to enumerate for one
//!   query; a refill that keeps coming up short gives up and takes the
//!   set path.
//!
//! A third plan, **scan**, runs the term-at-a-time reference under a
//! closure. The planner never picks it, whatever the table's size; it
//! exists to be forced, as the oracle the other two are checked
//! against.
//!
//! A designer bakes the predicate into the source, so every query an
//! app serves carries the same one: the table memoises resolved sets
//! (see [`IndexedTable`]) and a memoised set is always the plan.
//!
//! All three return bit-identical `(record, score)` lists (see the
//! `hybrid_plan_invariance` proptest): the pruned executor is rank-safe
//! versus exhaustive scoring, and the over-fetch loop only stops once
//! the ranked prefix it holds is provably complete, so plan choice is
//! purely a performance decision — which is what lets the planner be
//! cost-based at all.

use crate::error::StoreError;
use crate::filter::Filter;
use crate::fulltext::FullTextView;
use crate::fulltext::TextHit;
use crate::indexed::{AccessPath, IndexedTable, TableQuery};
use crate::table::RecordId;
use crate::value::{Value, ValueKey};
use std::sync::Arc;
use symphony_text::query::Query;
use symphony_text::DocSet;

/// Planner's choice of execution strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HybridPlan {
    /// Resolve the filter via indexes, push the record set into the
    /// text executor as a skip cursor.
    FilterFirst,
    /// Pruned text search with over-fetch + post-filter refill.
    SearchFirst,
    /// The term-at-a-time reference under a closure filter; only ever
    /// forced, never planned.
    Scan,
}

impl HybridPlan {
    /// Stable lowercase name for EXPLAIN output and benchmarks.
    pub fn name(self) -> &'static str {
        match self {
            HybridPlan::FilterFirst => "filter-first",
            HybridPlan::SearchFirst => "search-first",
            HybridPlan::Scan => "scan",
        }
    }
}

/// A hybrid query: one text clause plus one structured predicate, with
/// a result budget and optional facet columns.
#[derive(Debug, Clone)]
pub struct HybridQuery {
    /// Full-text clause, run over the table's full-text view.
    pub text: Query,
    /// Structured predicate over the table's columns.
    pub filter: Filter,
    /// Maximum hits returned.
    pub k: usize,
    /// Columns to facet-count over the structured candidate set.
    pub facets: Vec<usize>,
}

impl HybridQuery {
    /// A query with no facets.
    pub fn new(text: Query, filter: Filter, k: usize) -> HybridQuery {
        HybridQuery {
            text,
            filter,
            k,
            facets: Vec::new(),
        }
    }
}

/// EXPLAIN output: what the planner saw and what it chose.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridExplain {
    /// Chosen strategy.
    pub plan: HybridPlan,
    /// Access path the structured side would use (meaningful for
    /// filter-first; recorded for all plans).
    pub access: AccessPath,
    /// Upper bound on filter matches off index counters (`None` when
    /// no conjunct is index-backed).
    pub estimated_matches: Option<usize>,
    /// Live rows in the table at plan time.
    pub table_rows: usize,
    /// `estimated_matches / table_rows`, when both are known.
    pub selectivity: Option<f64>,
    /// The filter's doc set came out of the table's memo (for a plan
    /// that was not run: it would).
    pub set_reused: bool,
    /// Members of the doc set the query ran on; `None` when it resolved
    /// none. `Some` under [`HybridPlan::SearchFirst`] means the refill
    /// loop gave up and took the set path.
    pub set_len: Option<usize>,
}

/// Facet counts for one column over the structured candidate set.
#[derive(Debug, Clone, PartialEq)]
pub struct FacetCounts {
    /// Faceted column.
    pub col: usize,
    /// `(value, count)` pairs, descending by count then value order.
    pub values: Vec<(Value, usize)>,
}

/// Result of a hybrid query.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridResult {
    /// Top-k `(record, score)` hits, best first.
    pub hits: Vec<TextHit>,
    /// Facet counts, one per requested column.
    pub facets: Vec<FacetCounts>,
    /// What the planner chose and why.
    pub explain: HybridExplain,
}

/// Cost of resolving one index row into a filter's doc set, and of one
/// ranked hit search-first over-fetches, in ns. Fitted from the
/// forced-plan probe over the ledger's `hybrid_sweep` world — the
/// cells behind its `datastore.hybrid_s05_us` / `_s20_us` / `_s50_us`
/// rows (EXPERIMENTS.md, E-hybrid, "cost constants"): a cold filter-first
/// query costs its set query plus 16–20 ns per estimated row (5 000–
/// 50 000 rows), a search-first one a plain search plus 4.6–7.5 µs per
/// hit of its expected `k / selectivity` over-fetch.
const SET_BUILD_NS_PER_ROW: f64 = 20.0;
const OVERFETCH_NS_PER_HIT: f64 = 5_000.0;

/// First over-fetch budget for search-first, as a function of `k`.
fn initial_overfetch(k: usize) -> usize {
    k * 4 + 8
}

/// Refills search-first runs (each doubling its fetch) before it stops
/// re-searching and resolves the filter's set instead: by then the
/// filter has proven sparser among the ranked hits than planned for,
/// and every further doubling re-runs the whole search.
const MAX_REFILLS: u32 = 2;

impl IndexedTable {
    /// Plan a hybrid query without running it.
    pub fn hybrid_explain(&self, q: &HybridQuery) -> HybridExplain {
        let (mut explain, memoised, _) = self.plan_hybrid(q);
        explain.set_reused = memoised.is_some();
        explain.set_len = memoised.map(|set| set.len());
        explain
    }

    /// The plan for `q`, the filter's memoised doc set when the table
    /// holds one, and the over-fetch a search-first run of `q` is
    /// expected to spend (0 when the index counters give no estimate).
    ///
    /// A memoised set is always the plan. An unresolved filter is
    /// resolved once that is estimated cheaper than the over-fetch
    /// search-first has spent under it since the last write plus what
    /// this query would add: a sparse filter on the first query, a
    /// dense one after as many queries as its set costs to build, and
    /// never on a table that is written before every read.
    fn plan_hybrid(&self, q: &HybridQuery) -> (HybridExplain, Option<Arc<DocSet>>, f64) {
        let table_rows = self.table().len();
        let access = self.explain(&q.filter);
        let estimated_matches = self.estimate_filter_matches(&q.filter);
        let selectivity = estimated_matches
            .filter(|_| table_rows > 0)
            .map(|e| e as f64 / table_rows as f64);
        let (memoised, spent_ns) = self.memo_lookup(&q.filter);
        let overfetch_ns = selectivity
            .filter(|&s| s > 0.0)
            .map_or(0.0, |s| q.k as f64 / s * OVERFETCH_NS_PER_HIT);
        let plan = if memoised.is_some() {
            HybridPlan::FilterFirst
        } else {
            match estimated_matches {
                // An estimate implies an index-backed access path, so
                // the set is `est` index rows away.
                Some(est) if est as f64 * SET_BUILD_NS_PER_ROW <= spent_ns + overfetch_ns => {
                    HybridPlan::FilterFirst
                }
                _ => HybridPlan::SearchFirst,
            }
        };
        let explain = HybridExplain {
            plan,
            access,
            estimated_matches,
            table_rows,
            selectivity,
            // Filled in by whoever resolves a set (or, for a plan that
            // is not run, reads the memo).
            set_reused: false,
            set_len: None,
        };
        (explain, memoised, overfetch_ns)
    }

    /// Run a hybrid query under the planner's chosen strategy.
    pub fn hybrid_query(&self, q: &HybridQuery) -> Result<HybridResult, StoreError> {
        self.hybrid_query_planned(q, None)
    }

    /// Run a hybrid query, optionally forcing a strategy (`None` lets
    /// the planner choose). Forcing exists for the differential tests
    /// and the `e-hybrid` experiment, which assert all three plans
    /// return bit-identical lists.
    pub fn hybrid_query_planned(
        &self,
        q: &HybridQuery,
        force: Option<HybridPlan>,
    ) -> Result<HybridResult, StoreError> {
        let ft = self.fulltext().ok_or(StoreError::NoFullText)?;
        let (mut explain, memoised, overfetch_ns) = self.plan_hybrid(q);
        if let Some(p) = force {
            explain.plan = p;
        }
        let hits = match explain.plan {
            HybridPlan::FilterFirst => self.search_in_set(ft, q, memoised, &mut explain),
            HybridPlan::SearchFirst => {
                let accept = |id: RecordId| self.table().get(id).is_some_and(|r| q.filter.eval(r));
                let mut fetch = initial_overfetch(q.k);
                let mut refills = 0;
                loop {
                    let ranked = ft.search(&q.text, fetch);
                    let complete = ranked.len() < fetch;
                    let mut kept: Vec<TextHit> =
                        ranked.into_iter().filter(|h| accept(h.record)).collect();
                    // Rank-safe stop: either k survivors inside a ranked
                    // prefix we fully hold, or the prefix is the whole
                    // match set.
                    if kept.len() >= q.k || complete {
                        if memoised.is_none() && overfetch_ns > 0.0 {
                            self.charge_overfetch(&q.filter, overfetch_ns);
                        }
                        kept.truncate(q.k);
                        break kept;
                    }
                    if refills == MAX_REFILLS {
                        break self.search_in_set(ft, q, memoised, &mut explain);
                    }
                    refills += 1;
                    fetch *= 2;
                }
            }
            HybridPlan::Scan => {
                let accept = |id: RecordId| self.table().get(id).is_some_and(|r| q.filter.eval(r));
                ft.search_exhaustive_filtered(&q.text, q.k, accept)
            }
        };
        let facets = self.facet_counts(&q.filter, &q.facets);
        Ok(HybridResult {
            hits,
            facets,
            explain,
        })
    }

    /// The set path: pruned top-k restricted to the filter's doc set,
    /// memoised or resolved (and memoised) now.
    fn search_in_set(
        &self,
        ft: &FullTextView,
        q: &HybridQuery,
        memoised: Option<Arc<DocSet>>,
        explain: &mut HybridExplain,
    ) -> Vec<TextHit> {
        explain.set_reused = memoised.is_some();
        let set = memoised.unwrap_or_else(|| self.resolve_doc_set(ft, &q.filter));
        explain.set_len = Some(set.len());
        ft.search_docset(&q.text, q.k, &set)
    }

    /// Facet counts over the structured candidate set. When the filter
    /// is trivial and the column has an ordered index, counts are read
    /// straight off the maintained per-key lists (no record touched);
    /// otherwise the candidate rows are tallied once for all columns.
    pub(crate) fn facet_counts(&self, filter: &Filter, cols: &[usize]) -> Vec<FacetCounts> {
        if cols.is_empty() {
            return Vec::new();
        }
        let trivial = matches!(filter, Filter::True);
        let mut out = Vec::with_capacity(cols.len());
        let mut candidates: Option<Vec<(RecordId, &crate::table::Record)>> = None;
        for &col in cols {
            // Fast path: whole-table facet off the index counters.
            if trivial {
                if let Some(counts) = self.secondary_index(col).and_then(|ix| ix.value_counts()) {
                    out.push(FacetCounts {
                        col,
                        values: sort_facet(counts),
                    });
                    continue;
                }
            }
            let rows =
                candidates.get_or_insert_with(|| self.query(&TableQuery::filtered(filter.clone())));
            let mut tally: Vec<(Value, usize)> = Vec::new();
            let mut seen: std::collections::HashMap<ValueKey, usize> =
                std::collections::HashMap::new();
            for (_, rec) in rows.iter() {
                let v = rec.get(col);
                match seen.entry(v.hash_key()) {
                    std::collections::hash_map::Entry::Occupied(e) => tally[*e.get()].1 += 1,
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(tally.len());
                        tally.push((v.clone(), 1));
                    }
                }
            }
            out.push(FacetCounts {
                col,
                values: sort_facet(tally),
            });
        }
        out
    }
}

/// Descending by count, then total value order for determinism.
fn sort_facet(mut values: Vec<(Value, usize)>) -> Vec<(Value, usize)> {
    values.sort_by(|(va, ca), (vb, cb)| cb.cmp(ca).then_with(|| va.cmp_total(vb)));
    values
}

/// Join a set of typed keys (e.g. pulled from a search vertical's
/// results) against a tenant table on column `col`: for each key, the
/// record ids whose `col` equals it — index-backed when `col` is
/// indexed, scan otherwise. Keys that match nothing are kept with an
/// empty id list so callers can see the miss.
pub fn join_on_column(
    table: &IndexedTable,
    col: usize,
    keys: &[Value],
) -> Vec<(Value, Vec<RecordId>)> {
    keys.iter()
        .map(|k| (k.clone(), table.join_on_column(col, k)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indexes::IndexKind;
    use crate::schema::{FieldType, Schema};
    use crate::table::{Record, Table};
    use crate::value::Value;
    use crate::CmpOp;

    /// A review corpus: `n` rows, price cycling 0..100, every third
    /// row in stock, text alternating vocabulary.
    fn reviews(n: usize) -> IndexedTable {
        let schema = Schema::of(&[
            ("product", FieldType::Text),
            ("body", FieldType::Text),
            ("price", FieldType::Int),
            ("in_stock", FieldType::Bool),
        ]);
        let mut it = IndexedTable::new(Table::new("reviews", schema));
        for i in 0..n {
            let body = match i % 3 {
                0 => "smoky oak finish with vanilla",
                1 => "bright citrus and melon",
                _ => "oak barrel aged, deep tannins",
            };
            it.insert(Record::new(vec![
                Value::Text(format!("product-{}", i % 10)),
                Value::Text(body.into()),
                Value::Int((i % 100) as i64),
                Value::Bool(i % 3 == 0),
            ]));
        }
        it.create_index("price", IndexKind::Ordered).unwrap();
        it.create_index("in_stock", IndexKind::Hash).unwrap();
        it.enable_fulltext(&[("product", 2.0), ("body", 1.0)])
            .unwrap();
        it.optimize_fulltext();
        it
    }

    fn price_under(v: i64) -> Filter {
        Filter::cmp(2, CmpOp::Lt, Value::Int(v))
    }

    #[test]
    fn planner_picks_filter_first_when_selective() {
        let it = reviews(500);
        let q = HybridQuery::new(Query::parse("oak"), price_under(3), 10);
        let ex = it.hybrid_explain(&q);
        assert_eq!(ex.plan, HybridPlan::FilterFirst);
        assert_eq!(ex.access, AccessPath::IndexRange { col: 2 });
        // The strict bound sheds price == 3: prices 0..=2 → 3 keys × 5 rows.
        assert_eq!(ex.estimated_matches, Some(15));
        assert_eq!((ex.set_reused, ex.set_len), (false, None));
    }

    #[test]
    fn dense_filter_is_resolved_once_overfetch_has_paid_for_it() {
        // 6 000 rows, 80 % pass: the set costs 4 800 rows x 20 ns to
        // build, one search-first query over-fetches 12.5 hits x 5 us.
        let it = reviews(6_000);
        let q = HybridQuery::new(Query::parse("oak"), price_under(80), 10);
        assert_eq!(it.hybrid_explain(&q).plan, HybridPlan::SearchFirst);
        let first = it.hybrid_query(&q).unwrap();
        assert_eq!(first.explain.plan, HybridPlan::SearchFirst);
        assert_eq!(first.explain.set_len, None);
        // The second query finds the first one's over-fetch on the
        // books, resolves the set, and every later one reuses it.
        let second = it.hybrid_query(&q).unwrap();
        assert_eq!(second.explain.plan, HybridPlan::FilterFirst);
        assert_eq!(
            (second.explain.set_reused, second.explain.set_len),
            (false, Some(4_800))
        );
        let third = it.hybrid_query(&q).unwrap();
        assert_eq!(
            (third.explain.set_reused, third.explain.set_len),
            (true, Some(4_800))
        );
        assert_eq!(first.hits, second.hits);
        assert_eq!(first.hits, third.hits);
        let planned = it.hybrid_explain(&q);
        assert_eq!(planned.plan, HybridPlan::FilterFirst);
        assert!(planned.set_reused);
    }

    #[test]
    fn a_write_between_reads_keeps_a_dense_filter_on_search_first() {
        let mut it = reviews(6_000);
        let q = HybridQuery::new(Query::parse("oak"), price_under(80), 10);
        for _ in 0..4 {
            let r = it.hybrid_query(&q).unwrap();
            assert_eq!(r.explain.plan, HybridPlan::SearchFirst);
            let id = it.insert(Record::new(vec![
                Value::Text("product-x".into()),
                Value::Text("plain".into()),
                Value::Int(99),
                Value::Bool(false),
            ]));
            it.delete(id);
        }
    }

    #[test]
    fn refill_that_keeps_coming_up_short_takes_the_set_path() {
        // Every row matches "oak" or "citrus"; 1 % pass the filter, so
        // 48, 96 and 192 ranked hits all hold fewer than k survivors.
        let it = reviews(6_000);
        let q = HybridQuery::new(Query::parse("oak citrus"), price_under(1), 10);
        let sf = it
            .hybrid_query_planned(&q, Some(HybridPlan::SearchFirst))
            .unwrap();
        assert_eq!(sf.explain.plan, HybridPlan::SearchFirst);
        assert_eq!(sf.explain.set_len, Some(60));
        let sc = it.hybrid_query_planned(&q, Some(HybridPlan::Scan)).unwrap();
        assert_eq!(sf.hits, sc.hits);
        assert_eq!(sf.hits.len(), 10);
    }

    #[test]
    fn concurrent_readers_of_one_cold_filter_agree() {
        fn shared<T: Send + Sync>(_: &T) {}
        let it = reviews(2_000);
        shared(&it);
        let q = HybridQuery::new(Query::parse("oak finish"), price_under(7), 10);
        let expect = it.hybrid_query_planned(&q, Some(HybridPlan::Scan)).unwrap();
        let start = std::sync::Barrier::new(4);
        let results: Vec<HybridResult> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        it.hybrid_query(&q).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let key = |r: &HybridResult| {
            r.hits
                .iter()
                .map(|h| (h.record, h.score.to_bits()))
                .collect::<Vec<_>>()
        };
        for r in &results {
            assert_eq!(key(r), key(&expect));
            assert_eq!(r.explain.set_len, Some(140));
        }
        // Whoever raced, one set was kept and the next reader reuses it.
        assert!(it.hybrid_query(&q).unwrap().explain.set_reused);
    }

    #[test]
    fn planner_never_picks_the_reference_scan() {
        for rows in [1, 20, 32] {
            let it = reviews(rows);
            let q = HybridQuery::new(Query::parse("oak"), price_under(3), 10);
            let planned = it.hybrid_query(&q).unwrap();
            assert_ne!(planned.explain.plan, HybridPlan::Scan, "{rows} rows");
            let sc = it.hybrid_query_planned(&q, Some(HybridPlan::Scan)).unwrap();
            let key = |r: &HybridResult| {
                r.hits
                    .iter()
                    .map(|h| (h.record, h.score.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(key(&planned), key(&sc), "{rows} rows");
            assert!(!sc.hits.is_empty(), "{rows} rows");
        }
    }

    #[test]
    fn unindexed_filter_falls_back_to_search_first() {
        let it = reviews(500);
        // in_stock AND product eq: product is unindexed, in_stock is
        // dense — estimate comes from in_stock only.
        let f = Filter::eq(0, Value::Text("product-1".into()));
        let q = HybridQuery::new(Query::parse("oak"), f, 10);
        let ex = it.hybrid_explain(&q);
        assert_eq!(ex.plan, HybridPlan::SearchFirst);
        assert_eq!(ex.estimated_matches, None);
    }

    #[test]
    fn all_three_plans_agree_bit_for_bit() {
        let it = reviews(400);
        for filt in [
            price_under(2),
            price_under(50),
            Filter::eq(3, Value::Bool(true)).and(price_under(30)),
            Filter::cmp(2, CmpOp::Ge, Value::Int(95)),
        ] {
            let q = HybridQuery::new(Query::parse("oak finish"), filt, 7);
            let key = |r: &HybridResult| {
                r.hits
                    .iter()
                    .map(|h| (h.record, h.score.to_bits()))
                    .collect::<Vec<_>>()
            };
            let ff = it
                .hybrid_query_planned(&q, Some(HybridPlan::FilterFirst))
                .unwrap();
            let sf = it
                .hybrid_query_planned(&q, Some(HybridPlan::SearchFirst))
                .unwrap();
            let sc = it.hybrid_query_planned(&q, Some(HybridPlan::Scan)).unwrap();
            assert_eq!(key(&ff), key(&sf));
            assert_eq!(key(&ff), key(&sc));
            assert!(!ff.hits.is_empty());
        }
    }

    #[test]
    fn empty_filter_set_returns_no_hits() {
        let it = reviews(200);
        let q = HybridQuery::new(Query::parse("oak"), price_under(0), 10);
        let r = it.hybrid_query(&q).unwrap();
        assert_eq!(r.explain.plan, HybridPlan::FilterFirst);
        assert!(r.hits.is_empty());
    }

    #[test]
    fn hybrid_without_fulltext_errors() {
        let schema = Schema::of(&[("a", FieldType::Text)]);
        let it = IndexedTable::new(Table::new("t", schema));
        let q = HybridQuery::new(Query::parse("x"), Filter::True, 5);
        assert_eq!(it.hybrid_query(&q).unwrap_err(), StoreError::NoFullText);
    }

    #[test]
    fn facets_over_candidate_set() {
        let it = reviews(300);
        let mut q = HybridQuery::new(Query::parse("oak"), price_under(10), 10);
        q.facets = vec![3]; // in_stock
        let r = it.hybrid_query(&q).unwrap();
        assert_eq!(r.facets.len(), 1);
        let total: usize = r.facets[0].values.iter().map(|(_, c)| c).sum();
        // 300 rows, price < 10 → prices 0..9 → 30 candidates.
        assert_eq!(total, 30);
    }

    #[test]
    fn trivial_filter_facet_uses_index_fast_path() {
        let it = reviews(300);
        let counts = it.facet_counts(&Filter::True, &[2]);
        let total: usize = counts[0].values.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 300);
        assert_eq!(counts[0].values.len(), 100);
    }

    #[test]
    fn join_on_column_uses_index_or_scan() {
        let it = reviews(100);
        let keys = vec![
            Value::Text("product-3".into()),
            Value::Text("product-nope".into()),
        ];
        // product (col 0) is unindexed → scan side.
        let joined = join_on_column(&it, 0, &keys);
        assert_eq!(joined[0].1.len(), 10);
        assert!(joined[1].1.is_empty());
        // price (col 2) is indexed → index side.
        let j2 = join_on_column(&it, 2, &[Value::Int(5)]);
        assert_eq!(j2[0].1.len(), 1);
    }
}
