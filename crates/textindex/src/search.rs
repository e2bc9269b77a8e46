//! BM25 top-k query execution.
//!
//! One executor serves every query: MaxScore over [`PostingsCursor`]s,
//! a window of candidates at a time. Term cursors are ordered by their
//! BM25 score upper bound; the cheap ("non essential") prefix whose
//! bounds cannot reach the current top-k threshold is only probed via
//! `seek`, while the essential cursors copy each window's term
//! frequencies into rows and mark a candidate mask — a window whose
//! block-max ceiling cannot reach the threshold is skipped whole, and
//! only candidates that pass the cheap rejections are scored. `+must`
//! clauses drive a non-scoring galloping intersection instead, and
//! `-must-not` clauses are seek-along exclusion cursors. The segment
//! is the unit of execution: the query is planned once (tokens, fields,
//! idf per `(term, field)`), then run over each segment in doc order —
//! sealed segments, memtable last — with cursors and score bounds from
//! that segment's own lists, while the heap, the threshold and a
//! pushed-down set's cursor carry over.
//! Every list has bound ingredients and per-block score peaks, a
//! memtable list included — its cursor reads it a block at a time like
//! a sealed one — so a live index prunes and skips windows like a
//! sealed one, and a few short fresh documents loosen no bound but
//! their own segment's and their own block's.
//!
//! Phrase clauses run under pruning too: each positive phrase becomes
//! a [`PhraseScorer`] whose *membership* is a per-field galloping
//! conjunction of the phrase's token cursors (docs where every token
//! co-occurs in some field), with contiguity verified lazily by
//! materializing positions through the cursors' block-addressed
//! position stream: a probed phrase verifies only candidates that
//! survive the cheap rejections, and an essential one verifies its
//! members in the window as it fills it (its cursors cannot come back
//! for them), so only verified matches become candidates. Its score
//! upper bound folds the per-token stats of the segment it runs on
//! (sum over fields of the minimum per-token max tf), so MaxScore can
//! make a phrase non-essential like any term.
//!
//! The executor is *rank-safe*: it returns bit-identical `(doc,
//! score)` lists to the term-at-a-time reference in
//! `search/exhaustive.rs`, which scores every matching document into a
//! hash map and extracts the top k; property-based differential tests
//! in `tests/prop.rs` assert the equality. Two details make it exact
//! rather than approximate. First, per-document scores are accumulated
//! in the same canonical (clause, token, field) order as the
//! reference's accumulator, so f32 addition rounds identically. Second,
//! score upper bounds are inflated by a small slack before any pruning
//! comparison, so bound arithmetic performed in a different
//! float-summation order can never under-bound a real score — and a
//! bound is only ever applied to documents of the segment whose stats
//! it was built from, against a threshold that is the true k-th best
//! score of the documents already seen. The essential partition is
//! fixed when a window opens and holds for every doc of the window: the
//! threshold only rises inside it, so a prefix that could not reach the
//! threshold at the start cannot reach it later. No served query runs
//! the reference.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

mod exhaustive;

use crate::analysis::analyze;
use crate::docset::{DocSet, FilterCursor};
use crate::fx::FxHashMap;
use crate::index::{FieldId, Index};
use crate::lexicon::TermId;
use crate::postings::{PostingsCursor, BLOCK_SIZE, NO_DOC};
use crate::query::{ClauseKind, Occur, Query};
use crate::segment::{SegmentList, SegmentView};
use crate::DocId;

/// BM25 term-frequency saturation.
const K1: f32 = 1.2;
/// BM25 length-normalization strength.
const B: f32 = 0.75;

fn bm25(tf: f32, len: f32, avg_len: f32, idf: f32) -> f32 {
    let norm = if avg_len > 0.0 {
        1.0 - B + B * len / avg_len
    } else {
        1.0
    };
    idf * tf * (K1 + 1.0) / (tf + K1 * norm)
}

/// One search result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    /// Matching document.
    pub doc: DocId,
    /// BM25 score (field-boost weighted, summed over clauses).
    pub score: f32,
}

/// Relative slack applied to every score upper bound before it is used
/// in a pruning comparison. BM25 is monotone in term frequency and
/// field length in exact arithmetic, and bound sums are accumulated in
/// a different order than canonical scores; the slack (many orders of
/// magnitude above f32 rounding noise) guarantees an inflated bound is
/// strictly above any achievable score, so a pruned document can never
/// have entered the top k — not even as an exact score tie.
const BOUND_SLACK_REL: f32 = 1e-3;
/// Absolute counterpart of [`BOUND_SLACK_REL`], keeping bounds
/// strictly positive even for zero-boost fields.
const BOUND_SLACK_ABS: f32 = 1e-5;

/// Widest candidate window, in doc ids: four posting blocks' worth. A
/// window ends earlier where an essential cursor it reaches leaves its
/// block.
const WINDOW: usize = 4 * BLOCK_SIZE;

/// Corpus-wide scoring statistics folded across document-partitioned
/// index shards.
///
/// BM25 mixes *per-document* quantities (tf, field length) with
/// *corpus-wide* ones (document frequency, live-doc count, average
/// field length). A shard searching only its slice would compute the
/// corpus-wide terms from local counts and disagree with a single
/// index over the union. Folding the integer numerators across shards
/// — `doc_freq` sums as `usize`, `total_field_len` as `u64`,
/// `live_docs` as `usize` — and only then evaluating the identical f32
/// expressions makes every per-document score **bit-identical** to the
/// single-index build: integer sums are exact, so the float inputs to
/// `idf`/`bm25` are the very same values.
///
/// Document frequencies are keyed by term *string* because term ids
/// are assigned per shard in first-encounter order and do not agree
/// across shards.
#[derive(Debug, Clone, Default)]
pub struct GlobalScoreStats {
    /// Live documents across all shards.
    pub live_docs: usize,
    /// Per-field total analyzed token count (indexed by `FieldId`).
    pub total_field_len: Vec<u64>,
    /// term -> per-field `(summed doc_freq, any-shard has_postings)`.
    terms: FxHashMap<String, Vec<(usize, bool)>>,
}

impl GlobalScoreStats {
    /// Fold statistics across shard indexes. Every shard must register
    /// the same fields in the same order (they are slices of one
    /// logical corpus); field shape mismatches are a construction bug.
    pub fn fold<'a>(shards: impl IntoIterator<Item = &'a Index>) -> GlobalScoreStats {
        let mut out = GlobalScoreStats::default();
        for index in shards {
            let nfields = index.field_ids().count();
            if out.total_field_len.len() < nfields {
                out.total_field_len.resize(nfields, 0);
            }
            out.live_docs += index.live_docs();
            for field in index.field_ids() {
                out.total_field_len[field.0 as usize] += index.total_field_len(field);
            }
            for (tid, term) in index.lexicon().iter() {
                let mut slot: Option<&mut Vec<(usize, bool)>> = None;
                for field in index.field_ids() {
                    let df = index.doc_freq(tid, field);
                    let present = index.has_postings(tid, field);
                    if df == 0 && !present {
                        continue;
                    }
                    let per_field = match slot {
                        Some(ref mut s) => s,
                        None => {
                            slot = Some(
                                out.terms
                                    .entry(term.to_string())
                                    .or_insert_with(|| vec![(0, false); nfields]),
                            );
                            slot.as_mut().expect("just set")
                        }
                    };
                    if per_field.len() < nfields {
                        per_field.resize(nfields, (0, false));
                    }
                    per_field[field.0 as usize].0 += df;
                    per_field[field.0 as usize].1 |= present;
                }
            }
        }
        out
    }

    /// Corpus-wide document frequency of `term` in `field`.
    pub(crate) fn doc_freq(&self, term: &str, field: FieldId) -> usize {
        self.terms
            .get(term)
            .and_then(|f| f.get(field.0 as usize))
            .map_or(0, |&(df, _)| df)
    }

    /// Whether any shard holds postings for `term` in `field`.
    pub(crate) fn has_postings(&self, term: &str, field: FieldId) -> bool {
        self.terms
            .get(term)
            .and_then(|f| f.get(field.0 as usize))
            .is_some_and(|&(_, present)| present)
    }

    /// Corpus-wide mean analyzed length of `field` — the same
    /// expression as [`Index::avg_field_len`], evaluated on the folded
    /// integers.
    pub(crate) fn avg_field_len(&self, field: FieldId) -> f32 {
        let n = self.live_docs;
        if n == 0 {
            return 0.0;
        }
        let total = self
            .total_field_len
            .get(field.0 as usize)
            .copied()
            .unwrap_or(0);
        total as f32 / n as f32
    }
}

/// Query executor over one [`Index`].
pub struct Searcher<'a> {
    index: &'a Index,
    /// When set, corpus-wide statistics (df / live docs / average
    /// lengths) come from here instead of the local index, so a shard
    /// scores its slice exactly as the single-index build would.
    global: Option<&'a GlobalScoreStats>,
}

impl<'a> Searcher<'a> {
    /// Searcher scoring with BM25 at k1 = 1.2, b = 0.75.
    pub fn new(index: &'a Index) -> Self {
        Searcher {
            index,
            global: None,
        }
    }

    /// Score with corpus-wide statistics folded across shards
    /// (builder-style). See [`GlobalScoreStats`].
    pub fn with_global_stats(mut self, global: &'a GlobalScoreStats) -> Self {
        self.global = Some(global);
        self
    }

    /// Execute `query`, returning at most `k` hits sorted by descending
    /// score (ties broken by ascending doc id, so results are
    /// deterministic).
    pub fn search(&self, query: &Query, k: usize) -> Vec<SearchHit> {
        self.search_filtered(query, k, |_| true)
    }

    /// Like [`Searcher::search`] but only documents accepted by
    /// `filter` are returned. This is the hook `symphony-store` uses
    /// for an opaque predicate on record ids (visibility scopes, the
    /// search-first hybrid plan); a restriction that resolves to a set
    /// of doc ids — `symphony-web`'s site restriction, a resolved table
    /// filter — goes through [`Searcher::search_docset`] instead.
    /// The filter must be pure: the executor calls it only for
    /// candidates that survive pruning, in no promised order.
    pub fn search_filtered(
        &self,
        query: &Query,
        k: usize,
        filter: impl Fn(DocId) -> bool,
    ) -> Vec<SearchHit> {
        if query.is_empty() || k == 0 {
            return Vec::new();
        }
        self.search_pruned(query, k, filter, None)
    }

    /// Like [`Searcher::search_filtered`], but the restriction is a
    /// materialized [`DocSet`] instead of an opaque closure. The pruned
    /// executor walks the set with a `FilterCursor` and mounts it one
    /// of two ways, by cardinality:
    ///
    /// * **gate** — a set sparser than the query's rarest positive
    ///   posting list drives the `+must` galloping intersection as a
    ///   non-scoring conjunctive cursor: the only candidates ever
    ///   considered are its members, and term cursors `seek` straight
    ///   to them, skipping whole posting blocks decode-free;
    /// * **probe** — any denser set would make the executor visit more
    ///   docs than the term lists themselves hold (and forgo block-max
    ///   skipping), so the term cursors keep driving and each candidate
    ///   they produce is checked against the cursor in O(1) amortized.
    ///
    /// Rank-safe either way: the set is conjunctive and exact, and
    /// surviving candidates are scored in canonical clause order.
    ///
    /// Returns bit-identical `(doc, score)` lists to
    /// `search_filtered(query, k, |d| allowed.contains(d))` (a
    /// property test asserts this for both mountings).
    pub fn search_docset(&self, query: &Query, k: usize, allowed: &DocSet) -> Vec<SearchHit> {
        if query.is_empty() || k == 0 || allowed.is_empty() {
            return Vec::new();
        }
        self.search_pruned(query, k, |_| true, Some(allowed))
    }

    /// Like [`Searcher::search_filtered`], additionally returning the
    /// executor's final MaxScore threshold: the k-th best score when
    /// the result list is full, `NEG_INFINITY` otherwise (the pruned
    /// executor's `threshold` variable ends at exactly this value —
    /// it is the min-heap's worst member once `k` docs are held).
    ///
    /// A scatter-gather merge uses it as a *merge bound*: every
    /// document this searcher did **not** return scores at or below
    /// the threshold, so a gather node that has already collected `k`
    /// docs above a shard's bound can prove the shard contributes
    /// nothing further — rank safety of the merged list reduces to
    /// rank safety of each shard's top-k.
    pub fn search_filtered_with_threshold(
        &self,
        query: &Query,
        k: usize,
        filter: impl Fn(DocId) -> bool,
    ) -> (Vec<SearchHit>, f32) {
        let hits = self.search_filtered(query, k, filter);
        let bound = if hits.len() == k && k > 0 {
            hits[k - 1].score
        } else {
            f32::NEG_INFINITY
        };
        (hits, bound)
    }

    /// Document-at-a-time MaxScore executor (see module docs): plan
    /// the query once, then run it over each segment in doc order with
    /// that segment's lists and bounds, carrying the heap, the
    /// threshold and the pushed-down set's cursor from one segment to
    /// the next.
    fn search_pruned(
        &self,
        query: &Query,
        k: usize,
        filter: impl Fn(DocId) -> bool,
        allowed: Option<&DocSet>,
    ) -> Vec<SearchHit> {
        let Some((plan, rarest)) = self.plan(query) else {
            return Vec::new();
        };
        let mut carried = Carried {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
            threshold: f32::NEG_INFINITY,
            filter_cursor: allowed.map(FilterCursor::new),
            // The pushed-down doc-id set: a gate in the conjunction
            // when it is sparser than every positive list, otherwise a
            // probe on the candidates the term cursors produce (see
            // `search_docset`). Decided once, on index-wide counts.
            gate_drives: allowed.is_some_and(|set| set.len() < rarest),
            // Deletions are rare; one flag check replaces a
            // per-candidate bitmap probe on the common all-live index.
            has_deleted: self.index.live_docs() < self.index.total_docs(),
        };
        let mut run = SegmentRun::default();
        for seg in self.index.segments() {
            if self.instantiate(&plan, seg, &mut run) {
                self.run_segment(&mut run, seg.range().end, &filter, &mut carried);
            }
        }
        let mut hits: Vec<SearchHit> = carried
            .heap
            .into_iter()
            .map(|e| SearchHit {
                doc: DocId(e.doc),
                score: e.score,
            })
            .collect();
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc)));
        hits
    }

    /// Resolve `query` against the index once: analysed tokens, the
    /// fields each clause covers, and the index-wide half of every
    /// score (idf, average length, boost) per `(term, field)`. Clauses
    /// stay in query order — the canonical (clause, token, field) order
    /// the exhaustive accumulator adds contributions in. Returns `None`
    /// when the query provably matches nothing, else the plan and the
    /// doc frequency of the shortest positive posting list (which
    /// decides how a pushed-down set is mounted).
    fn plan(&self, query: &Query) -> Option<(Vec<Planned>, usize)> {
        let mut plan: Vec<Planned> = Vec::new();
        let mut any_scorer = false;
        let mut rarest = usize::MAX;
        for clause in &query.clauses {
            let fields: Vec<FieldId> = match &clause.field {
                Some(name) => match self.index.field_id(name) {
                    Some(f) => vec![f],
                    // Unknown field: a Must clause can never match.
                    None if clause.occur == Occur::Must => return None,
                    None => continue,
                },
                None => self.index.field_ids().collect(),
            };
            match &clause.kind {
                ClauseKind::Term(raw) => {
                    // Must clauses that analyze to nothing are
                    // vacuously true, matching the exhaustive path.
                    for t in self.analyze_query_tokens(raw) {
                        let must = clause.occur == Occur::Must;
                        let Some(term) = t else {
                            // Remote token: matches nothing locally; a
                            // required one empties the conjunction.
                            if must {
                                return None;
                            }
                            continue;
                        };
                        if clause.occur == Occur::MustNot {
                            plan.push(Planned::Exclude {
                                term,
                                fields: fields.clone(),
                            });
                            continue;
                        }
                        let scored: Vec<FieldScore> = fields
                            .iter()
                            .filter_map(|&f| self.field_score(term, f, &mut rarest))
                            .collect();
                        if scored.is_empty() {
                            // No postings in these fields: a required
                            // token empties the conjunction.
                            if must {
                                return None;
                            }
                            continue;
                        }
                        any_scorer = true;
                        plan.push(Planned::Token {
                            term,
                            must,
                            fields: scored,
                        });
                    }
                }
                ClauseKind::Phrase(words) => {
                    let tokens: Vec<Option<TermId>> = words
                        .iter()
                        .flat_map(|w| self.analyze_query_tokens(w))
                        .collect();
                    if tokens.is_empty() {
                        continue;
                    }
                    let local: Option<Vec<TermId>> = tokens.into_iter().collect();
                    // A remote token means the phrase cannot occur in
                    // any local document (same rule as the exhaustive
                    // arm); otherwise it qualifies in every field where
                    // all its tokens have postings. Only a positive
                    // phrase's lists count towards `rarest`.
                    let mut unused = usize::MAX;
                    let shortest = match clause.occur {
                        Occur::MustNot => &mut unused,
                        _ => &mut rarest,
                    };
                    let scored: Vec<FieldScore> = match &local {
                        Some(toks) => fields
                            .iter()
                            .filter_map(|&f| self.phrase_field_score(toks, f, shortest))
                            .collect(),
                        None => Vec::new(),
                    };
                    let Some(tokens) = local.filter(|_| !scored.is_empty()) else {
                        // A required phrase that can never match.
                        if clause.occur == Occur::Must {
                            return None;
                        }
                        continue;
                    };
                    any_scorer |= clause.occur != Occur::MustNot;
                    plan.push(Planned::Phrase {
                        occur: clause.occur,
                        tokens,
                        fields: scored,
                    });
                }
            }
        }
        any_scorer.then_some((plan, rarest))
    }

    /// The query-constant scoring inputs of `(term, field)`, or `None`
    /// when no local document has the term in the field. Folds the
    /// list's local doc frequency into `rarest`.
    fn field_score(&self, term: TermId, field: FieldId, rarest: &mut usize) -> Option<FieldScore> {
        let df = self.index.doc_freq(term, field);
        if df == 0 {
            return None;
        }
        *rarest = (*rarest).min(df);
        let stat_df = match self.global {
            Some(g) => g.doc_freq(self.index.lexicon().term(term), field),
            None => df,
        };
        Some(FieldScore {
            field,
            idf: self.idf_of(stat_df),
            avg_len: self.stat_avg_field_len(field),
            boost: self.index.field_boost(field),
        })
    }

    /// [`Searcher::field_score`] for a phrase: `Some` when every token
    /// has postings in `field`, with the token idfs summed in token
    /// order — the same sum, hence the same f32, as the exhaustive
    /// `phrase_score`.
    fn phrase_field_score(
        &self,
        tokens: &[TermId],
        field: FieldId,
        rarest: &mut usize,
    ) -> Option<FieldScore> {
        let mut shortest = *rarest;
        let per_token: Vec<FieldScore> = tokens
            .iter()
            .map(|&t| self.field_score(t, field, &mut shortest))
            .collect::<Option<_>>()?;
        *rarest = shortest;
        let idf = per_token.iter().map(|c| c.idf).sum();
        per_token.first().map(|&c| FieldScore { idf, ..c })
    }

    /// Instantiate the plan over one segment: scorers, `+must` groups,
    /// exclusions and phrase conjunctions from *that segment's* lists,
    /// bounds from *that segment's* stats. A scorer whose term is
    /// absent from the segment is simply not built — its contribution
    /// to any document here is the exact `0.0` the canonical-order sum
    /// already relies on. Returns `false` when no document of the
    /// segment can match: a required token or phrase has no list here,
    /// or no positive clause has one.
    fn instantiate(
        &self,
        plan: &[Planned],
        seg: SegmentView<'a>,
        run: &mut SegmentRun<'a>,
    ) -> bool {
        run.clear();
        for clause in plan {
            match clause {
                Planned::Token { term, must, fields } => {
                    let mut group = UnionCursor::default();
                    for fs in fields {
                        let Some(list) = seg.list(*term, fs.field) else {
                            continue;
                        };
                        if *must {
                            group.push(list);
                        }
                        run.scorers.push(AnyScorer::Term(self.scorer(fs, list)));
                    }
                    if *must {
                        if group.is_empty() {
                            return false;
                        }
                        run.must_groups.push(group);
                    }
                }
                Planned::Exclude { term, fields } => {
                    let mut union = UnionCursor::default();
                    for list in fields.iter().filter_map(|&f| seg.list(*term, f)) {
                        union.push(list);
                    }
                    if !union.is_empty() {
                        run.exclusions.push(union);
                    }
                }
                Planned::Phrase {
                    occur,
                    tokens,
                    fields,
                } => match (self.phrase_scorer(tokens, fields, *occur, seg), occur) {
                    (Some(p), Occur::MustNot) => run.phrase_exclusions.push(p),
                    (Some(p), _) => run.scorers.push(AnyScorer::Phrase(p)),
                    (None, Occur::Must) => return false,
                    (None, _) => {}
                },
            }
        }
        // The intersection drives from the rarest `+must` list: with
        // groups in ascending doc-frequency order, the first seek of
        // every galloping round comes from the most selective cursor,
        // so the denser groups only ever seek to its (sparse)
        // candidates.
        run.must_groups.sort_by_key(|g| g.est);
        !run.scorers.is_empty()
    }

    /// The MaxScore window loop over one instantiated segment (docs
    /// below `end`), reading and raising the carried heap and threshold.
    ///
    /// Each round opens a window `[lo, hi]`: `lo` is the smallest
    /// essential doc and `hi` the least of `lo + WINDOW − 1`, the
    /// segment's last doc and the block end of every essential cursor
    /// at or before `hi`, so their block bounds hold across it. Under a
    /// `+must` gate the window is the gate's next candidate alone: must
    /// phrases share their cursors with scoring, so candidates cannot
    /// be enumerated ahead.
    ///
    /// Rank safety relies on four invariants: candidate docs skipped
    /// by the essential partition, the window ceiling or the
    /// partial-sum abandon check have true scores strictly below the
    /// threshold (inflated bounds, valid for the documents of the
    /// segment and the block they are applied to, and a partition
    /// fixed at the window's start, which the rising threshold only
    /// makes more conservative), surviving candidates are scored by
    /// summing per-scorer contributions in canonical clause order
    /// (bit-identical f32 rounding), every cursor only ever moves
    /// forward, and the carried threshold is the true k-th best score
    /// of the documents already seen — in this segment or an earlier
    /// one.
    fn run_segment(
        &self,
        run: &mut SegmentRun<'_>,
        end: u32,
        filter: &impl Fn(DocId) -> bool,
        carried: &mut Carried<'_>,
    ) {
        let SegmentRun {
            scorers,
            must_groups,
            exclusions,
            phrase_exclusions,
            order,
            contribs,
            rows,
        } = run;
        let Carried {
            k,
            heap,
            threshold,
            filter_cursor,
            gate_drives,
            has_deleted,
        } = carried;
        let (k, gate_drives, has_deleted) = (*k, *gate_drives, *has_deleted);

        // Evaluation order: `(scorer, bound prefix through it)` by
        // ascending bound. The prefix `order[..ness]` is the
        // non-essential set; probes run over it from the highest bound
        // downwards so the abandon check sheds the most remaining mass
        // first.
        order.clear();
        order.extend(scorers.iter().map(AnyScorer::bound).enumerate());
        order.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let mut acc = 0.0f32;
        for slot in order.iter_mut() {
            acc += slot.1;
            slot.1 = acc;
        }
        // A candidate writes every slot of `contribs` before it sums
        // them, so stale values need no reset.
        contribs.resize(scorers.len(), 0.0);
        // One row of `WINDOW` slots per scorer, all zero between
        // windows: a candidate reads its slots and clears them.
        rows.resize(scorers.len() * WINDOW, 0);
        let must_phrases = scorers.iter_mut().any(|s| s.must_phrase().is_some());
        let must_driven = !must_groups.is_empty() || must_phrases || gate_drives;
        let mut mask = [0u64; WINDOW / 64];
        // First doc the next window may open at.
        let mut next = 0u32;

        loop {
            // ---- Open a window ---------------------------------------
            // A threshold raised inside the window moves `ness` for the
            // next one only. Under a gate every scorer is probed.
            let ness = if must_driven {
                order.len()
            } else {
                order.partition_point(|&(_, p)| p <= *threshold)
            };
            let lo = if must_driven {
                // Must tokens, must phrases and a driving set gate
                // membership: a galloping intersection of the union
                // cursors, the phrase membership conjunctions and the
                // set yields the only docs that can appear at all.
                match must_candidate(
                    must_groups,
                    scorers,
                    filter_cursor.as_mut().filter(|_| gate_drives),
                    next,
                ) {
                    Some(d) => d,
                    None => break,
                }
            } else {
                // Docs appearing only in non-essential lists are bounded
                // by the non-essential prefix <= threshold, hence
                // strictly below it after slack.
                order[ness..]
                    .iter()
                    .map(|&(i, _)| scorers[i].doc())
                    .min()
                    .unwrap_or(NO_DOC)
            };
            // The segment's own cursors end with its range; a driving
            // set gate runs on into later segments, which pick it up
            // where it stands.
            if lo >= end {
                break;
            }
            let mut hi = if must_driven {
                lo
            } else {
                lo.saturating_add(WINDOW as u32 - 1).min(end - 1)
            };
            for &(i, _) in &order[ness..] {
                if scorers[i].doc() <= hi {
                    hi = hi.min(scorers[i].block_last_doc());
                }
            }
            next = hi + 1;

            // ---- Window skip -----------------------------------------
            // With a full heap, a ceiling of the non-essential mass plus
            // the block bound of each essential cursor inside the window
            // (one past `hi` adds nothing to it) that cannot reach the
            // threshold rules out the whole window: one seek per
            // essential cursor skips it without decoding it.
            if !must_driven && heap.len() == k {
                let mut ceil = if ness > 0 { order[ness - 1].1 } else { 0.0 };
                for &(i, _) in &order[ness..] {
                    if scorers[i].doc() <= hi {
                        ceil += self.block_bound(&mut scorers[i]);
                    }
                }
                if ceil <= *threshold {
                    for &(i, _) in &order[ness..] {
                        scorers[i].seek(next);
                    }
                    continue;
                }
            }

            // ---- Fill ------------------------------------------------
            // Essential cursors leave the window behind them: a term
            // copies its tfs into its row, a phrase verifies each member
            // (its cursors cannot come back) and stores a match's
            // contribution as f32 bits. Either marks its docs.
            let words = (hi - lo) as usize / 64 + 1;
            mask[..words].fill(0);
            if must_driven {
                mask[0] = 1;
            }
            for &(i, _) in &order[ness..] {
                let row = &mut rows[i * WINDOW..(i + 1) * WINDOW];
                let mut put = |d: u32, v: u32| {
                    let off = (d - lo) as usize;
                    row[off] = v;
                    mask[off / 64] |= 1 << (off % 64);
                };
                match &mut scorers[i] {
                    AnyScorer::Term(t) => t.cursor.drain_through(hi, &mut put),
                    AnyScorer::Phrase(p) => {
                        while p.member <= hi {
                            let m = p.member;
                            if let Some((count, first)) = p.verify(m) {
                                put(m, self.phrase_contribution(p, m, count, first).to_bits());
                            }
                            p.member_seek(m + 1);
                        }
                    }
                }
            }

            // ---- Candidates, in doc order ----------------------------
            for (w, &word) in mask[..words].iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let off = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let d = lo + off as u32;

                    // Cheap rejections. Positional checks (must /
                    // must-not phrase verification) run last: they decode
                    // positions, everything else is a cursor or bitmap
                    // probe. The set probe leads: it is the cheapest
                    // check and, when the set did not drive, the one that
                    // rejects most (a driving gate already sits on `d`,
                    // so it passes for free).
                    let rejected = filter_cursor.as_mut().is_some_and(|f| f.seek(d) != d)
                        || exclusions.iter_mut().any(|u| u.seek(d) == d)
                        || (has_deleted && self.index.is_deleted(DocId(d)))
                        || !self.index.is_visible(DocId(d))
                        || !filter(DocId(d))
                        || phrase_exclusions
                            .iter_mut()
                            .any(|p| p.member_seek(d) == d && p.verify(d).is_some())
                        || (must_phrases
                            && scorers
                                .iter_mut()
                                .filter_map(AnyScorer::must_phrase)
                                .any(|p| p.verify(d).is_none()));
                    if rejected {
                        for &(i, _) in &order[ness..] {
                            rows[i * WINDOW + off] = 0;
                        }
                        continue;
                    }

                    // ---- Score with partial-sum abandon --------------
                    // A doc enters the heap only if some positive clause
                    // actually matched it (a phrase candidate can fail
                    // verification everywhere and contribute nothing;
                    // the exhaustive accumulator has no entry for such
                    // docs). A mask bit set by the fill is a match; a
                    // gated candidate needs a probe to match.
                    let mut matched = !must_driven;
                    let mut running = 0.0f32;
                    for &(i, _) in &order[ness..] {
                        let slot = std::mem::take(&mut rows[i * WINDOW + off]);
                        let v = match &scorers[i] {
                            AnyScorer::Term(_) if slot == 0 => 0.0,
                            AnyScorer::Term(t) => self.clause_score(t, d, slot),
                            // +0.0 when absent, which adds exactly.
                            AnyScorer::Phrase(_) => f32::from_bits(slot),
                        };
                        contribs[i] = v;
                        running += v;
                    }
                    let mut abandoned = false;
                    for j in (0..ness).rev() {
                        if heap.len() == k && running + order[j].1 <= *threshold {
                            // Even granting every unprobed scorer its
                            // full bound, `d` stays (strictly) under the
                            // threshold.
                            abandoned = true;
                            break;
                        }
                        let i = order[j].0;
                        scorers[i].seek(d);
                        let v = self.score_at(&mut scorers[i], d, &mut matched);
                        contribs[i] = v;
                        running += v;
                    }
                    if abandoned || !matched {
                        continue;
                    }
                    // Canonical-order sum: bit-identical to the
                    // exhaustive accumulator (adding 0.0 for scorers that
                    // missed `d` — or were not built because the segment
                    // lacks their term — is exact for non-negative f32).
                    let score = contribs.iter().fold(0.0f32, |a, &b| a + b);
                    let entry = HeapEntry { score, doc: d };
                    // Admission: a full heap takes only an entry that
                    // beats its worst under the heap order — push-then-
                    // pop without the push, which would evict `entry`
                    // itself.
                    if heap.len() < k {
                        heap.push(entry);
                    } else if let Some(mut worst) = heap.peek_mut().filter(|w| entry < **w) {
                        *worst = entry;
                    }
                    if let Some(worst) = heap.peek().filter(|_| heap.len() == k) {
                        *threshold = threshold.max(worst.score);
                    }
                }
            }
        }
    }

    /// Inflated upper bound on `sc`'s contribution to any doc in the
    /// block its cursor currently sits on: the larger BM25 of the
    /// block's two `(tf, len)` peaks, never above the static `bound()`.
    /// Every term cursor on a block has peaks, on a sealed list or a
    /// memtable one alike; phrases, infinite bounds and an exhausted
    /// cursor keep the static bound. Rank safety: every live posting of
    /// the block has a tf at most, and a length at least, one peak's;
    /// BM25 rises with tf and falls with length, and the same slack
    /// inflation as the static bound applies, so every true
    /// contribution in the block is strictly below it. The peaks hold
    /// no idf or average length, so they never go stale.
    #[inline]
    fn block_bound(&self, sc: &mut AnyScorer<'_>) -> f32 {
        let AnyScorer::Term(t) = sc else {
            return sc.bound();
        };
        if !t.bound.is_finite() {
            return t.bound;
        }
        let last = t.cursor.block_last_doc();
        if last != t.block_memo_last {
            let Some(peaks) = t.cursor.block_peaks() else {
                return t.bound;
            };
            let raw = peaks
                .map(|(tf, len)| t.boost * bm25(tf as f32, len as f32, t.avg_len, t.idf))
                .into_iter()
                .fold(0.0f32, f32::max);
            t.block_memo_last = last;
            t.block_memo_bound = (raw * (1.0 + BOUND_SLACK_REL) + BOUND_SLACK_ABS).min(t.bound);
        }
        t.block_memo_bound
    }

    /// One scorer's BM25 contribution for document `d` — the same
    /// expression, in the same operation order, as the exhaustive
    /// path's `score_term`, so both produce identical f32 values.
    #[inline]
    fn clause_score(&self, sc: &Scorer<'_>, d: u32, tf: u32) -> f32 {
        let len = sc.lens[d as usize] as f32;
        let v = sc.boost * bm25(tf as f32, len, sc.avg_len, sc.idf);
        debug_assert!(v <= sc.bound, "doc {d}: {v} over its segment's bound");
        v
    }

    /// One scorer's contribution for candidate `d` (0.0 when the
    /// scorer misses `d`). Sets `matched` when the scorer's clause
    /// genuinely matches — for a phrase that means positional
    /// verification succeeded, not mere token co-occurrence.
    fn score_at(&self, sc: &mut AnyScorer<'_>, d: u32, matched: &mut bool) -> f32 {
        match sc {
            AnyScorer::Term(t) => {
                if t.cursor.doc() == d {
                    *matched = true;
                    self.clause_score(t, d, t.cursor.tf())
                } else {
                    0.0
                }
            }
            AnyScorer::Phrase(p) => {
                if p.member == d {
                    if let Some((count, first)) = p.verify(d) {
                        *matched = true;
                        return self.phrase_contribution(p, d, count, first);
                    }
                }
                0.0
            }
        }
    }

    /// A verified phrase's contribution at `d`, from its occurrence
    /// count and first matching field: the exhaustive `phrase_score`
    /// expression on the plan's precomputed idf sum.
    fn phrase_contribution(&self, p: &PhraseScorer<'_>, d: u32, count: u32, first: usize) -> f32 {
        let f = &p.fields[first];
        let len = f.lens[d as usize] as f32;
        f.boost * bm25(count as f32, len, f.avg_len, f.idf)
    }

    /// Build a phrase scorer over one segment: per-field conjunction
    /// cursors over every planned field where *all* tokens have a list
    /// in this segment (a field that qualifies index-wide but lacks a
    /// token here holds no match among this segment's documents), or
    /// `None` when no field qualifies.
    ///
    /// The score upper bound mirrors the exhaustive scoring shape: a
    /// verified phrase scores once, in the first qualifying field with
    /// a match, with the occurrence count summed across all fields.
    /// Per field the count is capped by the minimum per-token max tf
    /// (every contiguous run consumes one distinct position of each
    /// token), so the total is capped by the sum of those per-field
    /// minima; the per-field bound then takes that total count at the
    /// field's smallest possible length — at least the largest
    /// per-token `min_len`, a matching doc being on every token's
    /// list. All ingredients are this segment's.
    fn phrase_scorer(
        &self,
        tokens: &[TermId],
        fields: &[FieldScore],
        occur: Occur,
        seg: SegmentView<'a>,
    ) -> Option<PhraseScorer<'a>> {
        let mut pfields: Vec<PhraseField<'a>> = Vec::new();
        let mut min_lens: Vec<u32> = Vec::new();
        let mut cmax_total = 0u32;
        for fs in fields {
            let lists: Option<Vec<SegmentList<'a>>> =
                tokens.iter().map(|&t| seg.list(t, fs.field)).collect();
            let Some(lists) = lists else {
                continue;
            };
            cmax_total += lists.iter().map(|l| l.stats.max_tf).min().unwrap_or(0);
            min_lens.push(lists.iter().map(|l| l.stats.min_len).max().unwrap_or(1));
            let mut pf = PhraseField {
                cursors: lists.into_iter().map(SegmentList::cursor).collect(),
                at: 0,
                lens: self.index.field_lens(fs.field),
                idf: fs.idf,
                avg_len: fs.avg_len,
                boost: fs.boost,
            };
            pf.align(0);
            pfields.push(pf);
        }
        let member = pfields.iter().map(|f| f.at).min()?;
        let bound = pfields
            .iter()
            .zip(&min_lens)
            .map(|(f, &min_len)| {
                f.boost * bm25(cmax_total as f32, min_len as f32, f.avg_len, f.idf)
            })
            .fold(f32::NEG_INFINITY, f32::max);
        Some(PhraseScorer {
            fields: pfields,
            must: occur == Occur::Must,
            member,
            verified_doc: NO_DOC,
            verified: None,
            pos_bufs: vec![Vec::new(); tokens.len()],
            bound: inflated(bound),
        })
    }

    /// Build the scoring cursor for one segment's `(term, field)` list.
    /// The pruning bound comes from the stats stored with *that* list,
    /// so it holds for this segment's documents and for no others; a
    /// raw bound that is negative or not finite (negative idf, when
    /// tombstones outnumber live docs) becomes infinite, which keeps
    /// the scorer permanently essential — always evaluated, never
    /// pruned against, hence still exact.
    fn scorer(&self, fs: &FieldScore, list: SegmentList<'a>) -> Scorer<'a> {
        let st = list.stats;
        let raw = fs.boost * bm25(st.max_tf as f32, st.min_len as f32, fs.avg_len, fs.idf);
        let bound = inflated(raw);
        Scorer {
            cursor: list.cursor(),
            lens: self.index.field_lens(fs.field),
            idf: fs.idf,
            avg_len: fs.avg_len,
            boost: fs.boost,
            bound,
            block_memo_last: NO_DOC,
            block_memo_bound: bound,
        }
    }

    /// Analyze raw query text (the pipeline the index ran) against the
    /// *effective* corpus: a token survives only if some field holds
    /// postings for it. Never-seen tokens are dropped, and so are terms
    /// whose postings were entirely purged by merges (the lexicon never
    /// forgets a term, but a term surviving only in
    /// tombstoned-and-compacted documents must query exactly like one
    /// that was never indexed — otherwise a compacted index and a
    /// from-scratch rebuild would disagree on `+must` vacuousness).
    ///
    /// On a single index the presence test is local and every
    /// surviving token is `Some(local id)`. With global stats attached
    /// it runs over the union, and a token alive elsewhere but absent
    /// from this shard's lexicon is `None`: it matches no local
    /// document, yet keeps shaping the clause (`+must` vacuousness,
    /// phrase contiguity) exactly as the single-index build would,
    /// otherwise a shard would return docs the union search rejects.
    fn analyze_query_tokens(&self, raw: &str) -> Vec<Option<TermId>> {
        match self.global {
            None => analyze(raw)
                .into_iter()
                .filter_map(|t| self.index.lexicon().get(&t.term))
                .filter(|&t| {
                    self.index
                        .field_ids()
                        .any(|f| self.index.has_postings(t, f))
                })
                .map(Some)
                .collect(),
            Some(g) => analyze(raw)
                .into_iter()
                .filter_map(|t| {
                    if self.index.field_ids().any(|f| g.has_postings(&t.term, f)) {
                        Some(self.index.lexicon().get(&t.term))
                    } else {
                        // Dead in the whole union: dropped, exactly
                        // like a never-indexed term on a single index.
                        None
                    }
                })
                .collect(),
        }
    }

    /// Corpus-wide live-document count.
    fn stat_live_docs(&self) -> usize {
        match self.global {
            Some(g) => g.live_docs,
            None => self.index.live_docs(),
        }
    }

    /// Corpus-wide mean analyzed field length.
    fn stat_avg_field_len(&self, field: FieldId) -> f32 {
        match self.global {
            Some(g) => g.avg_field_len(field),
            None => self.index.avg_field_len(field),
        }
    }

    /// BM25 idf over the *live* corpus, for a corpus-wide document
    /// frequency `df`. `df` still counts tombstoned documents until a
    /// merge purges them, which can push idf negative when deletes
    /// outnumber live docs; negative idf makes the raw score bound
    /// negative, which [`Searcher::scorer`] routes to an infinite
    /// (always-essential) bound, so pruning stays rank-safe. Using the
    /// live count is what makes a fully-compacted index score
    /// bit-identically to a from-scratch rebuild of the live corpus.
    fn idf_of(&self, df: usize) -> f32 {
        if df == 0 {
            return 0.0;
        }
        let n = self.stat_live_docs() as f32;
        (1.0 + (n - df as f32 + 0.5) / (df as f32 + 0.5)).ln()
    }
}

/// The index-wide half of a score, constant for one query: what BM25
/// needs beyond a document's own tf and length. For a phrase `idf` is
/// the sum over its tokens.
#[derive(Clone, Copy)]
struct FieldScore {
    field: FieldId,
    idf: f32,
    avg_len: f32,
    boost: f32,
}

/// One query clause resolved against the index, ready to be
/// instantiated over any segment.
enum Planned {
    /// A positive token and the fields (in field order) where it has
    /// postings: one scorer per field, plus — under `+must` — one
    /// union-of-fields group result docs must appear in.
    Token {
        term: TermId,
        must: bool,
        fields: Vec<FieldScore>,
    },
    /// A `-must-not` token: result docs must appear in none of its
    /// fields' lists.
    Exclude { term: TermId, fields: Vec<FieldId> },
    /// A phrase and the fields where all its tokens have postings: a
    /// single contribution at its clause position; `+must` docs must
    /// pass its positional verification, `-must-not` ones fail it.
    Phrase {
        occur: Occur,
        tokens: Vec<TermId>,
        fields: Vec<FieldScore>,
    },
}

/// A plan instantiated over one segment (see
/// [`Searcher::instantiate`]), with the window loop's buffers; the
/// vectors are reused from segment to segment.
#[derive(Default)]
struct SegmentRun<'a> {
    /// In canonical (clause, token, field) order — the exact order the
    /// exhaustive accumulator adds contributions. `+must` phrases are
    /// among them, marked on the scorer.
    scorers: Vec<AnyScorer<'a>>,
    /// One non-scoring union-of-fields cursor per `+must` token.
    must_groups: Vec<UnionCursor<'a>>,
    /// One union cursor per `-must-not` token.
    exclusions: Vec<UnionCursor<'a>>,
    /// `-must-not` phrases exclude only positionally verified docs.
    phrase_exclusions: Vec<PhraseScorer<'a>>,
    /// `(scorer index, bound prefix through it)`, by ascending bound.
    order: Vec<(usize, f32)>,
    /// One candidate's per-scorer contributions, by scorer index.
    contribs: Vec<f32>,
    /// Window rows: scorer `i`'s entry for doc `lo + off` sits at
    /// `i * WINDOW + off` — a term's tf, a verified phrase's
    /// contribution as f32 bits — and is 0 where the scorer has none.
    rows: Vec<u32>,
}

impl SegmentRun<'_> {
    fn clear(&mut self) {
        self.scorers.clear();
        self.must_groups.clear();
        self.exclusions.clear();
        self.phrase_exclusions.clear();
    }
}

/// What one query carries from segment to segment.
struct Carried<'s> {
    k: usize,
    heap: BinaryHeap<HeapEntry>,
    /// Current k-th best score over every segment run so far; only
    /// leaves `NEG_INFINITY` once the heap is full, and only grows.
    threshold: f32,
    /// The pushed-down doc-id set, if any; forward-only, so segments
    /// must run in doc order.
    filter_cursor: Option<FilterCursor<'s>>,
    /// Whether the set drives the conjunction (gate) or is probed.
    gate_drives: bool,
    has_deleted: bool,
}

/// A raw score upper bound with the pruning slack applied; infinite
/// when the raw bound cannot be trusted as one (negative or not
/// finite).
fn inflated(raw: f32) -> f32 {
    if raw.is_finite() && raw >= 0.0 {
        raw * (1.0 + BOUND_SLACK_REL) + BOUND_SLACK_ABS
    } else {
        f32::INFINITY
    }
}

/// One scoring cursor of the pruned executor: a posting cursor plus
/// everything needed to turn a `(doc, tf)` pair into a BM25
/// contribution, and the (inflated) upper bound on that contribution.
struct Scorer<'a> {
    cursor: PostingsCursor<'a>,
    /// Per-doc analyzed lengths of the scorer's field (resolved once;
    /// the scoring loop reads one slot per candidate).
    lens: &'a [u32],
    idf: f32,
    avg_len: f32,
    boost: f32,
    /// Inflated upper bound on any single contribution from this
    /// segment's list, from the [`crate::index::TermScoreStats`]
    /// stored with it.
    bound: f32,
    /// Memoized block-max refinement: the last doc of the block the
    /// cached bound below was computed for ([`NO_DOC`] = nothing
    /// cached).
    block_memo_last: u32,
    /// Inflated bound over the peaks of block `block_memo_last`.
    block_memo_bound: f32,
}

/// The phrase's token cursors in one qualifying field, intersected by
/// a galloping conjunction (`at` is the current co-occurrence
/// candidate), with what scoring a match in this field needs.
struct PhraseField<'a> {
    /// One cursor per phrase token, all over the one field.
    cursors: Vec<PostingsCursor<'a>>,
    /// Current conjunction doc (all cursors aligned on it), or
    /// [`NO_DOC`] when the conjunction is exhausted.
    at: u32,
    /// Per-doc analyzed lengths of the field.
    lens: &'a [u32],
    /// Sum of the tokens' idfs in the field.
    idf: f32,
    avg_len: f32,
    boost: f32,
}

impl PhraseField<'_> {
    /// Unconditionally gallop to the smallest co-occurrence doc
    /// `>= target`.
    fn align(&mut self, target: u32) -> u32 {
        let mut d = target;
        loop {
            let mut changed = false;
            for c in self.cursors.iter_mut() {
                c.seek(d);
                let got = c.doc();
                if got == NO_DOC {
                    self.at = NO_DOC;
                    return NO_DOC;
                }
                if got > d {
                    d = got;
                    changed = true;
                }
            }
            if !changed {
                self.at = d;
                return d;
            }
        }
    }

    /// Smallest co-occurrence doc `>= target` (no-op when already
    /// there). Targets must be non-decreasing across calls.
    fn seek(&mut self, target: u32) -> u32 {
        if self.at >= target {
            // Covers exhaustion too: NO_DOC >= any target.
            return self.at;
        }
        self.align(target)
    }
}

/// A positive phrase clause under MaxScore: membership (all tokens
/// co-occur in some field) is a cheap cursor conjunction; contiguity
/// is verified positionally, lazily, at candidate docs only, with the
/// result cached per doc. Scoring reproduces the exhaustive shape
/// exactly: occurrence count summed across qualifying fields, scored
/// once in the first field (in field order) containing a match.
struct PhraseScorer<'a> {
    /// Per-field conjunctions, in field order.
    fields: Vec<PhraseField<'a>>,
    /// A `+must` phrase: its membership gates candidates and its
    /// verification rejects them.
    must: bool,
    /// Smallest per-field conjunction doc: the current (unverified)
    /// membership candidate.
    member: u32,
    /// Doc the cached verification below refers to ([`NO_DOC`] =
    /// none).
    verified_doc: u32,
    /// Cached verification: `Some((total count, index in `fields` of
    /// the first matching one))`, or `None` when no field matched
    /// positionally.
    verified: Option<(u32, usize)>,
    /// Reusable per-token position buffers (index = position offset).
    pos_bufs: Vec<Vec<u32>>,
    /// Inflated upper bound on the phrase contribution.
    bound: f32,
}

impl PhraseScorer<'_> {
    /// Smallest membership doc `>= target`. Targets must be
    /// non-decreasing across calls.
    fn member_seek(&mut self, target: u32) -> u32 {
        if self.member >= target {
            return self.member;
        }
        let mut min = NO_DOC;
        for f in &mut self.fields {
            min = min.min(f.seek(target));
        }
        self.member = min;
        min
    }

    /// Positionally verify the phrase at doc `d`, returning the total
    /// occurrence count and the first matching field's index in
    /// `fields` (identical to the exhaustive `phrase_matches`
    /// bookkeeping), or `None` when no field contains the contiguous
    /// sequence. Cached per doc, so the rejection pass and the scoring
    /// pass decode positions once.
    fn verify(&mut self, d: u32) -> Option<(u32, usize)> {
        if self.verified_doc == d {
            return self.verified;
        }
        self.verified_doc = d;
        let mut total = 0u32;
        let mut first: Option<usize> = None;
        for (at, f) in self.fields.iter_mut().enumerate() {
            if f.seek(d) != d {
                continue;
            }
            for (c, buf) in f.cursors.iter_mut().zip(self.pos_bufs.iter_mut()) {
                c.positions(buf);
            }
            let mut count = 0u32;
            'start: for &p in &self.pos_bufs[0] {
                for (offset, buf) in self.pos_bufs.iter().enumerate().skip(1) {
                    if buf.binary_search(&(p + offset as u32)).is_err() {
                        continue 'start;
                    }
                }
                count += 1;
            }
            if count > 0 {
                total += count;
                first = first.or(Some(at));
            }
        }
        // `first` is set exactly when some field counted a match.
        self.verified = first.map(|at| (total, at));
        self.verified
    }
}

/// Either scorer shape of the pruned executor, unified so the MaxScore
/// order/prefix machinery and the window loop treat them uniformly.
// Term scorers embed a posting cursor whose unpacked block buffer
// lives inline (see `PostingsCursor`); keeping it unboxed preserves
// that locality in the scoring loop.
#[allow(clippy::large_enum_variant)]
enum AnyScorer<'a> {
    Term(Scorer<'a>),
    Phrase(PhraseScorer<'a>),
}

impl<'a> AnyScorer<'a> {
    /// Inflated score upper bound.
    fn bound(&self) -> f32 {
        match self {
            AnyScorer::Term(t) => t.bound,
            AnyScorer::Phrase(p) => p.bound,
        }
    }

    /// Current candidate doc (for a phrase: the unverified membership
    /// candidate), or [`NO_DOC`].
    fn doc(&self) -> u32 {
        match self {
            AnyScorer::Term(t) => t.cursor.doc(),
            AnyScorer::Phrase(p) => p.member,
        }
    }

    /// Advance to the first candidate `>= target`.
    fn seek(&mut self, target: u32) {
        match self {
            AnyScorer::Term(t) => t.cursor.seek(target),
            AnyScorer::Phrase(p) => {
                p.member_seek(target);
            }
        }
    }

    /// Last doc id through which [`Searcher::block_bound`] holds: the
    /// end of a term cursor's block; a phrase's bound is static.
    fn block_last_doc(&self) -> u32 {
        match self {
            AnyScorer::Term(t) => t.cursor.block_last_doc(),
            AnyScorer::Phrase(_) => NO_DOC,
        }
    }

    /// The phrase scorer of a `+must` phrase clause.
    fn must_phrase(&mut self) -> Option<&mut PhraseScorer<'a>> {
        match self {
            AnyScorer::Phrase(p) if p.must => Some(p),
            _ => None,
        }
    }
}

/// Union-of-fields membership cursor: reports whether *any* field's
/// posting list contains a document. Used non-scoring, for `+must`
/// conjunctions and `-must-not` exclusions.
#[derive(Default)]
struct UnionCursor<'a> {
    members: Vec<PostingsCursor<'a>>,
    /// Summed document count across member lists — the sort key that
    /// puts the rarest `+must` group first in the conjunction.
    est: usize,
}

impl<'a> UnionCursor<'a> {
    fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Add one field's list of the cursor's term.
    fn push(&mut self, list: SegmentList<'a>) {
        self.est += list.doc_count();
        self.members.push(list.cursor());
    }

    /// Smallest member doc `>= target` (advancing lagging members),
    /// or [`NO_DOC`] when every member is exhausted. Targets must be
    /// non-decreasing across calls.
    fn seek(&mut self, target: u32) -> u32 {
        let mut min = NO_DOC;
        for c in &mut self.members {
            if c.doc() < target {
                c.seek(target);
            }
            min = min.min(c.doc());
        }
        min
    }
}

/// Multi-way galloping intersection step over every `+must` gate: the
/// smallest doc `>= target` present in every term group *and* every
/// must-phrase membership conjunction, or `None` once any gate is
/// exhausted.
///
/// `groups` is sorted rarest-first, so each round's first seek comes
/// from the most selective list and denser gates only gallop to its
/// sparse candidates. A round that advances the frontier restarts;
/// gates already at the frontier return immediately, so the rescan is
/// O(1) per unchanged gate.
fn must_candidate(
    groups: &mut [UnionCursor<'_>],
    scorers: &mut [AnyScorer<'_>],
    mut filter_gate: Option<&mut FilterCursor<'_>>,
    target: u32,
) -> Option<u32> {
    let mut d = target;
    loop {
        let mut changed = false;
        // The pushed-down filter seeks first: it is only mounted here
        // when it is the most selective gate, so the posting cursors
        // below only ever gallop to its members.
        if let Some(f) = filter_gate.as_deref_mut() {
            let got = f.seek(d);
            if got == NO_DOC {
                return None;
            }
            if got > d {
                d = got;
                changed = true;
            }
        }
        for g in groups.iter_mut() {
            let got = g.seek(d);
            if got == NO_DOC {
                return None;
            }
            if got > d {
                d = got;
                changed = true;
            }
        }
        for p in scorers.iter_mut().filter_map(AnyScorer::must_phrase) {
            let got = p.member_seek(d);
            if got == NO_DOC {
                return None;
            }
            if got > d {
                d = got;
                changed = true;
            }
        }
        if !changed {
            return Some(d);
        }
    }
}

/// Min-heap entry: the heap keeps the k highest scores by evicting the
/// smallest, so `Ord` is inverted on score.
struct HeapEntry {
    score: f32,
    doc: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse score order (BinaryHeap is a max-heap; we want to pop
        // the worst). Ties: larger doc id pops first so smaller ids are
        // kept, matching the final deterministic sort.
        other
            .score
            .total_cmp(&self.score)
            .then(self.doc.cmp(&other.doc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{Doc, IndexConfig};

    fn index() -> Index {
        let mut idx = Index::new(IndexConfig::default());
        let title = idx.register_field("title", 2.0);
        let body = idx.register_field("body", 1.0);
        let docs = [
            (
                "Galactic Raiders",
                "a fast space shooter with lasers and space battles",
            ),
            ("Farm Story", "calm farming with crops and animals"),
            ("Space Trader", "trade goods across space stations"),
            ("Puzzle Palace", "mind bending puzzle rooms"),
            ("Laser Golf", "golf with lasers a silly shooter"),
        ];
        for (t, b) in docs {
            idx.add(Doc::new().field(title, t).field(body, b));
        }
        idx
    }

    fn docs_of(hits: &[SearchHit]) -> Vec<u32> {
        hits.iter().map(|h| h.doc.0).collect()
    }

    #[test]
    fn single_term() {
        let idx = index();
        let hits = Searcher::new(&idx).search(&Query::parse("farming"), 10);
        assert_eq!(docs_of(&hits), vec![1]);
    }

    #[test]
    fn multi_term_ranks_doc_with_both_terms_above_single_match() {
        let idx = index();
        let hits = Searcher::new(&idx).search(&Query::parse("space shooter"), 10);
        let pos = |d: u32| hits.iter().position(|h| h.doc == DocId(d)).unwrap();
        // Doc 0 matches both terms; doc 4 only "shooter". Doc 2's
        // boosted title may legitimately compete with doc 0, but a
        // single-term match must not outrank the double match.
        assert!(pos(0) < pos(4));
        assert!(hits.len() >= 3);
    }

    #[test]
    fn title_boost_matters() {
        let idx = index();
        // "space" appears twice in doc 0's body but once in doc 2's
        // boosted title; the title match must not be buried.
        let hits = Searcher::new(&idx).search(&Query::parse("space"), 10);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn must_requires_presence() {
        let idx = index();
        let hits = Searcher::new(&idx).search(&Query::parse("+golf shooter"), 10);
        assert_eq!(docs_of(&hits), vec![4]);
    }

    #[test]
    fn mustnot_excludes() {
        // Both shooter docs (0 and 4) mention lasers, so excluding
        // "laser" (stemmed) leaves nothing.
        let idx = index();
        let hits = Searcher::new(&idx).search(&Query::parse("shooter -laser"), 10);
        assert!(hits.is_empty());
    }

    #[test]
    fn mustnot_excludes_all_docs_containing_term() {
        let idx = index();
        let hits = Searcher::new(&idx).search(&Query::parse("shooter -space"), 10);
        assert_eq!(docs_of(&hits), vec![4]);
    }

    #[test]
    fn phrase_matches_contiguous_only() {
        let idx = index();
        let hits = Searcher::new(&idx).search(&Query::parse("\"space shooter\""), 10);
        assert_eq!(docs_of(&hits), vec![0]);
        // Both words occur in doc 2? "space" yes, "shooter" no.
        let none = Searcher::new(&idx).search(&Query::parse("\"shooter space\""), 10);
        assert!(none.is_empty());
    }

    #[test]
    fn phrase_runs_pruned_and_matches_exhaustive() {
        // Phrases execute under MaxScore now (no exhaustive
        // fallback); results must stay bit-identical across modes on
        // raw, optimized, and mixed indexes.
        let mut idx = index();
        let phrase_queries = [
            "\"space shooter\"",
            "\"space shooter\" laser",
            "+\"space shooter\"",
            "+\"space shooter\" -golf",
            "laser -\"space shooter\"",
            "\"space battles\" \"puzzle rooms\"",
        ];
        for round in 0..3 {
            if round == 1 {
                idx.optimize();
            }
            if round == 2 {
                // Mixed: sealed segments plus a memtable doc that also
                // matches the phrase (a second, memtable-bounded run).
                idx.add(
                    Doc::new()
                        .field(FieldId(0), "Space Shooter Deluxe")
                        .field(FieldId(1), "another space shooter with space battles"),
                );
            }
            for q in phrase_queries {
                let query = Query::parse(q);
                for k in [1, 2, 10] {
                    let pruned = Searcher::new(&idx).search(&query, k);
                    let exhaustive = Searcher::new(&idx).search_exhaustive(&query, k, |_| true);
                    assert_eq!(pruned, exhaustive, "query {q:?} k={k} round={round}");
                }
            }
        }
    }

    #[test]
    fn phrase_counts_accumulate_across_fields() {
        // A phrase matching in both fields scores once (first field in
        // field order) with the count summed across fields — in both
        // executors.
        let mut idx = Index::new(IndexConfig::default());
        let a = idx.register_field("a", 1.0);
        let b = idx.register_field("b", 1.0);
        idx.add(
            Doc::new()
                .field(a, "deep space probe")
                .field(b, "the space probe saw a space probe"),
        );
        idx.add(Doc::new().field(a, "space station").field(b, "probe data"));
        idx.optimize();
        let q = Query::parse("\"space probe\"");
        let pruned = Searcher::new(&idx).search(&q, 10);
        let exhaustive = Searcher::new(&idx).search_exhaustive(&q, 10, |_| true);
        assert_eq!(pruned, exhaustive);
        assert_eq!(pruned.len(), 1);
        assert_eq!(pruned[0].doc, DocId(0));
    }

    #[test]
    fn phrase_pruning_activates_on_larger_corpus() {
        // Big enough that the threshold rises and non-essential
        // phrase/term scorers actually get skipped, at small k.
        let mut idx = Index::new(IndexConfig::default());
        let body = idx.register_field("body", 1.0);
        for i in 0..500u32 {
            let phrase = if i % 13 == 0 {
                " red planet"
            } else {
                " planet red"
            };
            let text = format!("common filler number {}{phrase} tail words", i % 11);
            idx.add(Doc::new().field(body, text));
        }
        idx.optimize();
        for q in [
            "\"red planet\" common",
            "+\"red planet\" common",
            "common -\"red planet\"",
            "\"red planet\" \"filler number\"",
        ] {
            let query = Query::parse(q);
            for k in [1, 5, 20] {
                let pruned = Searcher::new(&idx).search(&query, k);
                let exhaustive = Searcher::new(&idx).search_exhaustive(&query, k, |_| true);
                assert_eq!(pruned, exhaustive, "query {q:?} k={k}");
            }
        }
    }

    #[test]
    fn field_restricted_term() {
        let idx = index();
        let hits = Searcher::new(&idx).search(&Query::parse("title:space"), 10);
        assert_eq!(docs_of(&hits), vec![2]);
    }

    #[test]
    fn unknown_field_must_matches_nothing() {
        let idx = index();
        let hits = Searcher::new(&idx).search(&Query::parse("+nosuch:space"), 10);
        assert!(hits.is_empty());
    }

    #[test]
    fn unknown_term_matches_nothing() {
        let idx = index();
        assert!(Searcher::new(&idx)
            .search(&Query::parse("zzzzqqq"), 10)
            .is_empty());
    }

    #[test]
    fn only_mustnot_returns_nothing() {
        let idx = index();
        assert!(Searcher::new(&idx)
            .search(&Query::parse("-space"), 10)
            .is_empty());
    }

    #[test]
    fn k_limits_results_and_keeps_best() {
        let idx = index();
        let all = Searcher::new(&idx).search(&Query::parse("space shooter laser"), 10);
        let top1 = Searcher::new(&idx).search(&Query::parse("space shooter laser"), 1);
        assert_eq!(top1.len(), 1);
        assert_eq!(top1[0].doc, all[0].doc);
    }

    #[test]
    fn k_zero_is_empty() {
        let idx = index();
        assert!(Searcher::new(&idx)
            .search(&Query::parse("space"), 0)
            .is_empty());
    }

    #[test]
    fn filter_is_applied() {
        let idx = index();
        let hits = Searcher::new(&idx).search_filtered(&Query::parse("space"), 10, |d| d.0 != 0);
        assert_eq!(docs_of(&hits), vec![2]);
    }

    #[test]
    fn deterministic_tie_breaking() {
        let mut idx = Index::new(IndexConfig::default());
        let f = idx.register_field("t", 1.0);
        for _ in 0..5 {
            idx.add(Doc::new().field(f, "identical text here"));
        }
        let hits = Searcher::new(&idx).search(&Query::parse("identical"), 3);
        assert_eq!(docs_of(&hits), vec![0, 1, 2]);
    }

    #[test]
    fn stemming_unifies_query_and_doc_forms() {
        let idx = index();
        let hits = Searcher::new(&idx).search(&Query::parse("battle"), 10);
        assert_eq!(docs_of(&hits), vec![0]); // doc says "battles"
    }

    /// Every interesting query shape on the shared fixture, for the
    /// pruned-vs-exhaustive differential checks below.
    const QUERIES: &[&str] = &[
        "space",
        "space shooter",
        "space shooter laser golf farming",
        "+golf shooter",
        "+space +shooter",
        "shooter -laser",
        "shooter -space",
        "title:space",
        "title:space body:laser",
        "+title:space laser",
        "space space shooter",      // repeated term accumulates twice
        "\"space shooter\" laser",  // phrase scorer beside a term
        "\"space shooter\"",        // bare phrase
        "\"space battles\"",        // phrase matching one doc's body
        "\"shooter space\"",        // tokens co-occur, order never matches
        "+\"space shooter\" laser", // must-phrase gates membership
        "+\"space shooter\" +laser",
        "laser -\"space shooter\"", // must-not phrase excludes verified docs
        "\"space\" shooter",        // single-token phrase (counts every hit)
        "title:\"space trader\"",   // field-restricted phrase
        "\"space zzzzqqq shooter\"", // unknown token drops out of the phrase
        "+nosuch:space",
        "zzzzqqq",
        "-space",
    ];

    fn assert_modes_agree(idx: &Index, k: usize) {
        for q in QUERIES {
            let query = Query::parse(q);
            let pruned = Searcher::new(idx).search(&query, k);
            let exhaustive = Searcher::new(idx).search_exhaustive(&query, k, |_| true);
            assert_eq!(pruned, exhaustive, "query {q:?} k={k}");
        }
    }

    #[test]
    fn pruned_matches_exhaustive_on_raw_index() {
        let idx = index();
        for k in [1, 2, 3, 10] {
            assert_modes_agree(&idx, k);
        }
    }

    #[test]
    fn pruned_matches_exhaustive_on_optimized_index() {
        let mut idx = index();
        idx.optimize();
        for k in [1, 2, 3, 10] {
            assert_modes_agree(&idx, k);
        }
    }

    #[test]
    fn pruned_matches_exhaustive_with_deletes_and_mixed_segments() {
        let mut idx = index();
        idx.optimize();
        // Post-optimize adds re-expand some lists (mixed raw/compressed
        // segments with partially invalidated stats).
        idx.add(Doc::new().field(FieldId(0), "Space Golf").field(
            FieldId(1),
            "golf across space with lasers and farming puzzles",
        ));
        idx.delete(DocId(2));
        for k in [1, 3, 10] {
            assert_modes_agree(&idx, k);
        }
    }

    #[test]
    fn pruned_matches_exhaustive_under_filter() {
        let mut idx = index();
        idx.optimize();
        for q in QUERIES {
            let query = Query::parse(q);
            let filter = |d: DocId| d.0.is_multiple_of(2);
            let pruned = Searcher::new(&idx).search_filtered(&query, 3, filter);
            let exhaustive = Searcher::new(&idx).search_exhaustive(&query, 3, filter);
            assert_eq!(pruned, exhaustive, "query {q:?}");
        }
    }

    #[test]
    fn threshold_prunes_on_larger_corpus_without_changing_results() {
        // A corpus big enough that the MaxScore partition actually
        // activates (many docs share the common term, few the rare
        // one), checked at small k where pruning is strongest.
        let mut idx = Index::new(IndexConfig::default());
        let body = idx.register_field("body", 1.0);
        for i in 0..600u32 {
            let rare = if i % 97 == 0 { " meteor" } else { "" };
            let text = format!(
                "common{} padding tokens number {} filler text{rare}",
                if i % 3 == 0 { " common common" } else { "" },
                i % 7
            );
            idx.add(Doc::new().field(body, text));
        }
        idx.optimize();
        for q in ["common meteor", "common filler meteor", "+meteor common"] {
            let query = Query::parse(q);
            for k in [1, 5, 20] {
                let pruned = Searcher::new(&idx).search(&query, k);
                let exhaustive = Searcher::new(&idx).search_exhaustive(&query, k, |_| true);
                assert_eq!(pruned, exhaustive, "query {q:?} k={k}");
            }
        }
    }

    #[test]
    fn threshold_is_kth_score_when_full_and_neg_infinity_otherwise() {
        let idx = index();
        let q = Query::parse("space");
        let (hits, bound) = Searcher::new(&idx).search_filtered_with_threshold(&q, 2, |_| true);
        assert_eq!(hits.len(), 2);
        assert_eq!(bound, hits[1].score);
        let (hits, bound) = Searcher::new(&idx).search_filtered_with_threshold(&q, 50, |_| true);
        assert!(hits.len() < 50);
        assert_eq!(bound, f32::NEG_INFINITY);
    }

    /// The corpus from [`index`] split round-robin across `n` shards.
    fn shard_indexes(n: usize) -> Vec<Index> {
        let docs = [
            (
                "Galactic Raiders",
                "a fast space shooter with lasers and space battles",
            ),
            ("Farm Story", "calm farming with crops and animals"),
            ("Space Trader", "trade goods across space stations"),
            ("Puzzle Palace", "mind bending puzzle rooms"),
            ("Laser Golf", "golf with lasers a silly shooter"),
        ];
        let mut shards: Vec<Index> = (0..n)
            .map(|_| {
                let mut idx = Index::new(IndexConfig::default());
                idx.register_field("title", 2.0);
                idx.register_field("body", 1.0);
                idx
            })
            .collect();
        let title = FieldId(0);
        let body = FieldId(1);
        for (i, (t, b)) in docs.iter().enumerate() {
            shards[i % n].add(Doc::new().field(title, *t).field(body, *b));
        }
        for s in &mut shards {
            s.optimize();
        }
        shards
    }

    #[test]
    fn folded_global_stats_match_the_single_index() {
        let single = index();
        for n in 1..=4 {
            let shards = shard_indexes(n);
            let global = GlobalScoreStats::fold(shards.iter());
            assert_eq!(global.live_docs, single.live_docs());
            for field in single.field_ids() {
                assert_eq!(
                    global.total_field_len[field.0 as usize],
                    single.total_field_len(field),
                    "total_field_len shards={n} field={field:?}"
                );
                assert_eq!(global.avg_field_len(field), single.avg_field_len(field));
            }
            for (tid, term) in single.lexicon().iter() {
                for field in single.field_ids() {
                    assert_eq!(
                        global.doc_freq(term, field),
                        single.doc_freq(tid, field),
                        "df mismatch shards={n} term={term:?}"
                    );
                    assert_eq!(
                        global.has_postings(term, field),
                        single.has_postings(tid, field)
                    );
                }
            }
        }
    }

    #[test]
    fn global_stats_make_shard_scores_bit_identical_to_single() {
        // Per-shard search with folded stats must assign every doc the
        // exact score the single index does; gathering the per-shard
        // hits and resorting under the canonical order reproduces the
        // single top-k bit for bit.
        let single = index();
        for n in 1..=4 {
            let shards = shard_indexes(n);
            let global = GlobalScoreStats::fold(shards.iter());
            for q in [
                "space",
                "space shooter",
                "+space trade",
                "lasers -golf",
                "\"space shooter\"",
                "farming puzzle lasers",
            ] {
                let query = Query::parse(q);
                let want = Searcher::new(&single).search(&query, 10);
                let mut merged: Vec<(f32, usize, u32)> = Vec::new();
                for (si, shard) in shards.iter().enumerate() {
                    let hits = Searcher::new(shard)
                        .with_global_stats(&global)
                        .search(&query, 10);
                    for h in hits {
                        // Identify the doc by its stored title-less
                        // global position: local doc i on shard si is
                        // global doc si + i*n under round-robin.
                        let global_doc = si as u32 + h.doc.0 * n as u32;
                        merged.push((h.score, si, global_doc));
                    }
                }
                merged.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.2.cmp(&b.2)));
                merged.truncate(10);
                let want_pairs: Vec<(u32, u32)> =
                    want.iter().map(|h| (h.doc.0, h.score.to_bits())).collect();
                let got_pairs: Vec<(u32, u32)> = merged
                    .iter()
                    .map(|&(score, _, doc)| (doc, score.to_bits()))
                    .collect();
                assert_eq!(want_pairs, got_pairs, "query {q:?} shards={n}");
            }
        }
    }
}
