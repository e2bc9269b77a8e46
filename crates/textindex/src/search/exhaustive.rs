//! The term-at-a-time reference executor.
//!
//! Every positive clause walks its posting lists once, accumulating
//! scores into a hash map; `must` intersections, `must-not`
//! exclusions, tombstones and the caller's filter are applied
//! afterwards and the top k extracted. It shares nothing with the
//! pruned executor but the scoring arithmetic (analysis, idf, BM25),
//! which is what makes it an independent check of the pruning: the
//! differential properties, the forced hybrid scan plan and the
//! pruning experiments compare the served results against it. No
//! served query runs it.

use std::collections::BinaryHeap;

use super::{bm25, HeapEntry, SearchHit, Searcher};
use crate::fx::{FxHashMap, FxHashSet};
use crate::index::FieldId;
use crate::lexicon::TermId;
use crate::query::{ClauseKind, Occur, Query};
use crate::DocId;

impl Searcher<'_> {
    /// Top `k` hits of `query` among the documents `filter` accepts,
    /// scored term-at-a-time with no pruning: the reference the served
    /// executor is bit-identical to. Only the differential tests, the
    /// forced hybrid scan plan and the candidate work guards call it.
    pub fn search_exhaustive(
        &self,
        query: &Query,
        k: usize,
        filter: impl Fn(DocId) -> bool,
    ) -> Vec<SearchHit> {
        let mut scores: FxHashMap<u32, f32> = FxHashMap::default();
        let mut must_sets: Vec<FxHashSet<u32>> = Vec::new();
        let mut excluded: FxHashSet<u32> = FxHashSet::default();
        let mut any_positive = false;

        for clause in &query.clauses {
            let fields: Vec<FieldId> = match &clause.field {
                Some(name) => match self.index.field_id(name) {
                    Some(f) => vec![f],
                    None => {
                        // Unknown field: a Must clause can never match.
                        if clause.occur == Occur::Must {
                            return Vec::new();
                        }
                        continue;
                    }
                },
                None => self.index.field_ids().collect(),
            };
            match (&clause.kind, clause.occur) {
                (ClauseKind::Term(raw), occur) => {
                    let tokens = self.analyze_query_tokens(raw);
                    if tokens.is_empty() {
                        // A clause that analyzes to nothing (e.g. a
                        // stopword) is vacuously true, even under must.
                        continue;
                    }
                    match occur {
                        Occur::MustNot => {
                            for t in tokens.iter().flatten() {
                                self.collect_docs(*t, &fields, &mut excluded);
                            }
                        }
                        Occur::Should | Occur::Must => {
                            any_positive = true;
                            let mut clause_docs = FxHashSet::default();
                            for (i, t) in tokens.iter().enumerate() {
                                // A remote token (`None`) scores and
                                // matches nothing here; under `+must`
                                // its empty doc set empties the whole
                                // conjunction.
                                let mut term_docs = FxHashSet::default();
                                if let Some(t) = *t {
                                    self.score_term(t, &fields, &mut scores);
                                    if occur == Occur::Must {
                                        self.collect_docs(t, &fields, &mut term_docs);
                                    }
                                }
                                if occur == Occur::Must {
                                    if i == 0 {
                                        clause_docs = term_docs;
                                    } else {
                                        clause_docs.retain(|d| term_docs.contains(d));
                                    }
                                }
                            }
                            if occur == Occur::Must {
                                must_sets.push(clause_docs);
                            }
                        }
                    }
                }
                (ClauseKind::Phrase(words), occur) => {
                    let tokens: Vec<Option<TermId>> = words
                        .iter()
                        .flat_map(|w| self.analyze_query_tokens(w))
                        .collect();
                    if tokens.is_empty() {
                        continue;
                    }
                    // A phrase containing a remote token cannot occur
                    // contiguously in any local document.
                    let local: Option<Vec<TermId>> = tokens.iter().copied().collect();
                    let matches = match &local {
                        Some(toks) => self.phrase_matches(toks, &fields),
                        None => FxHashMap::default(),
                    };
                    match occur {
                        Occur::MustNot => {
                            excluded.extend(matches.keys().copied());
                        }
                        Occur::Should | Occur::Must => {
                            any_positive = true;
                            for (&doc, &(tf, field)) in &matches {
                                let toks = local.as_deref().expect("matches imply local tokens");
                                let s = self.phrase_score(toks, field, DocId(doc), tf);
                                *scores.entry(doc).or_insert(0.0) += s;
                            }
                            if occur == Occur::Must {
                                must_sets.push(matches.keys().copied().collect());
                            }
                        }
                    }
                }
            }
        }

        if !any_positive {
            return Vec::new();
        }

        // Apply must / must-not / tombstones / caller filter, extract
        // top-k with a min-heap of size k.
        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k + 1);
        'docs: for (&doc, &score) in &scores {
            if excluded.contains(&doc) {
                continue;
            }
            for m in &must_sets {
                if !m.contains(&doc) {
                    continue 'docs;
                }
            }
            let id = DocId(doc);
            if self.index.is_deleted(id) || !self.index.is_visible(id) || !filter(id) {
                continue;
            }
            heap.push(HeapEntry { score, doc });
            if heap.len() > k {
                heap.pop();
            }
        }
        let mut hits: Vec<SearchHit> = heap
            .into_iter()
            .map(|e| SearchHit {
                doc: DocId(e.doc),
                score: e.score,
            })
            .collect();
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc)));
        hits
    }

    /// Corpus-wide document frequency: folded when global stats are
    /// attached, local otherwise.
    fn stat_doc_freq(&self, term: TermId, field: FieldId) -> usize {
        match self.global {
            Some(g) => g.doc_freq(self.index.lexicon().term(term), field),
            None => self.index.doc_freq(term, field),
        }
    }

    /// The idf of `term` in `field`: [`Searcher::idf_of`] on its
    /// corpus-wide document frequency.
    fn idf(&self, term: TermId, field: FieldId) -> f32 {
        self.idf_of(self.stat_doc_freq(term, field))
    }

    fn score_term(&self, term: TermId, fields: &[FieldId], scores: &mut FxHashMap<u32, f32>) {
        for &field in fields {
            if !self.index.has_postings(term, field) {
                continue;
            }
            let idf = self.idf(term, field);
            let avg = self.stat_avg_field_len(field);
            let boost = self.index.field_boost(field);
            self.index.for_each_posting(term, field, |doc, positions| {
                let len = self.index.field_len(doc, field) as f32;
                let s = boost * bm25(positions.len() as f32, len, avg, idf);
                *scores.entry(doc.0).or_insert(0.0) += s;
            });
        }
    }

    fn collect_docs(&self, term: TermId, fields: &[FieldId], out: &mut FxHashSet<u32>) {
        for &field in fields {
            self.index.for_each_posting(term, field, |doc, _| {
                out.insert(doc.0);
            });
        }
    }

    /// Find documents containing the token sequence contiguously in any
    /// of `fields`. Returns doc -> (occurrence count, matching field).
    fn phrase_matches(
        &self,
        tokens: &[TermId],
        fields: &[FieldId],
    ) -> FxHashMap<u32, (u32, FieldId)> {
        let mut result: FxHashMap<u32, (u32, FieldId)> = FxHashMap::default();
        for &field in fields {
            // Load positions for each token in this field.
            let mut per_token: Vec<FxHashMap<u32, Vec<u32>>> = Vec::with_capacity(tokens.len());
            let mut missing = false;
            for &t in tokens {
                if !self.index.has_postings(t, field) {
                    missing = true;
                    break;
                }
                let mut map: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
                self.index.for_each_posting(t, field, |doc, positions| {
                    map.insert(doc.0, positions.to_vec());
                });
                per_token.push(map);
            }
            if missing {
                continue;
            }
            // Candidate docs = docs of the rarest token.
            let (seed_idx, seed) = per_token
                .iter()
                .enumerate()
                .min_by_key(|(_, m)| m.len())
                .expect("phrase has at least one token");
            'cand: for &doc in seed.keys() {
                for (i, map) in per_token.iter().enumerate() {
                    if i != seed_idx && !map.contains_key(&doc) {
                        continue 'cand;
                    }
                }
                // Count contiguous runs starting from token 0 positions.
                let first = &per_token[0][&doc];
                let mut count = 0u32;
                'start: for &p in first {
                    for (offset, map) in per_token.iter().enumerate().skip(1) {
                        let want = p + offset as u32;
                        if map[&doc].binary_search(&want).is_err() {
                            continue 'start;
                        }
                    }
                    count += 1;
                }
                if count > 0 {
                    let entry = result.entry(doc).or_insert((0, field));
                    entry.0 += count;
                }
            }
        }
        result
    }

    fn phrase_score(&self, tokens: &[TermId], field: FieldId, doc: DocId, tf: u32) -> f32 {
        let idf: f32 = tokens.iter().map(|&t| self.idf(t, field)).sum();
        let len = self.index.field_len(doc, field) as f32;
        let avg = self.stat_avg_field_len(field);
        self.index.field_boost(field) * bm25(tf as f32, len, avg, idf)
    }
}
