//! Property-based tests for the full-text substrate invariants.

use proptest::prelude::*;
use std::collections::HashMap;

use symphony_text::analysis::analyze;
use symphony_text::postings::{
    CompressedPostings, PostingList, PostingsCursor, BLOCK_SIZE, NO_DOC,
};
use symphony_text::{
    Doc, DocId, DocSet, Index, IndexConfig, Query, SearchHit, Searcher, SegmentPolicy,
};

/// One step of a random segment-lifecycle schedule for
/// `incremental_equals_rebuild`.
#[derive(Debug, Clone)]
enum LifecycleOp {
    /// Add a doc with this (title, body).
    Add(String, String),
    /// Tombstone doc `i` (no-op when out of range or already dead).
    Delete(u32),
    /// Replace doc `i` with a fresh (title, body) under a new id.
    Update(u32, String, String),
    /// Force-seal the memtable.
    Seal,
    /// One maintenance tick on the schedule's virtual clock.
    Maintain,
}

fn lifecycle_op() -> impl Strategy<Value = LifecycleOp> {
    // Selector-weighted: adds dominate (4/9) so schedules grow a
    // corpus, maintenance ticks are frequent (2/9), and deletes,
    // updates, and explicit seals each get 1/9.
    (
        0u8..9,
        0u32..40,
        "[ab]{2,3}( [ab]{2,3}){0,2}",
        "[ab]{2,3}( [ab]{2,3}){0,6}",
    )
        .prop_map(|(sel, target, t, b)| match sel {
            0..=3 => LifecycleOp::Add(t, b),
            4 => LifecycleOp::Delete(target),
            5 => LifecycleOp::Update(target, t, b),
            6 => LifecycleOp::Seal,
            _ => LifecycleOp::Maintain,
        })
}

/// One step of a *live* index's schedule for
/// `live_stats_dominate_and_prune_exactly`: the base lifecycle plus the
/// write shapes that reach the memtable's score-bound bookkeeping by a
/// different road.
#[derive(Debug, Clone)]
enum LiveOp {
    /// A step of the base schedule.
    Base(LifecycleOp),
    /// `build_parallel` of a small batch on this many threads, after
    /// whatever the memtable already holds (the memtable is sealed
    /// first, and the batch lands as sealed chunks of the policy's
    /// memtable cap).
    Batch(Vec<(String, String)>, usize),
    /// A doc whose body arrives in two parts (a repeated field).
    AddRepeated(String, String, String),
    /// A doc with a `tags` field, registered on first use — after the
    /// first documents exist.
    AddTagged(String, String),
    /// Replace the newest doc, which sits in the memtable unless a seal
    /// just ran.
    UpdateNewest(String, String),
}

fn live_op() -> impl Strategy<Value = LiveOp> {
    let text = "[ab]{2,3}( [ab]{2,3}){0,6}";
    prop_oneof![
        lifecycle_op().prop_map(LiveOp::Base),
        lifecycle_op().prop_map(LiveOp::Base),
        lifecycle_op().prop_map(LiveOp::Base),
        (proptest::collection::vec((text, text), 2..6), 2usize..5)
            .prop_map(|(docs, threads)| LiveOp::Batch(docs, threads)),
        (text, text, text).prop_map(|(t, b, b2)| LiveOp::AddRepeated(t, b, b2)),
        (text, text).prop_map(|(b, tags)| LiveOp::AddTagged(b, tags)),
        (text, text).prop_map(|(t, b)| LiveOp::UpdateNewest(t, b)),
    ]
}

/// Strategy: one textual query clause — optional occur prefix, optional
/// field restriction (including an unregistered field), and either a
/// tiny-alphabet token or a quoted phrase so queries actually collide
/// with document vocabulary and exercise the pruned phrase scorer.
fn clause() -> impl Strategy<Value = String> {
    (
        prop_oneof![Just(""), Just("+"), Just("-")],
        prop_oneof![Just(""), Just("title:"), Just("body:"), Just("nosuch:")],
        prop_oneof![
            "[ab]{2,3}".prop_map(|t| t.to_string()),
            "[ab]{2,3}".prop_map(|t| t.to_string()),
            "[ab]{2,3}".prop_map(|t| t.to_string()),
            "[ab]{2,3}( [ab]{2,3}){1,2}".prop_map(|p| format!("\"{p}\"")),
        ],
    )
        .prop_map(|(occur, field, tok)| format!("{occur}{field}{tok}"))
}

/// Words of the multi-window corpora, `v0` (most frequent) to `v11`.
const WINDOW_VOCAB: u64 = 12;

/// One splitmix64 step: the multi-window corpora are expanded from a
/// drawn seed rather than drawn word by word.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `len` words of [`WINDOW_VOCAB`] with a skewed (squared-uniform)
/// rank, so lists range from a few hundred docs to most of a corpus.
fn skewed_words(state: &mut u64, len: u64) -> String {
    let words: Vec<String> = (0..len)
        .map(|_| {
            let u = (splitmix(state) % 10_000) as f64 / 10_000.0;
            format!("v{}", (u * u * WINDOW_VOCAB as f64) as u64)
        })
        .collect();
    words.join(" ")
}

/// Strategy: one clause over [`WINDOW_VOCAB`] — a should term (three
/// times in seven), `+must`, `-not`, a phrase or a `-"phrase"`.
fn window_clause() -> impl Strategy<Value = String> {
    (0u8..7, 0..WINDOW_VOCAB, 0..WINDOW_VOCAB).prop_map(|(shape, a, b)| match shape {
        0..=2 => format!("v{a}"),
        3 => format!("+v{a}"),
        4 => format!("-v{a}"),
        5 => format!("\"v{a} v{b}\""),
        _ => format!("-\"v{a} v{b}\""),
    })
}

/// Hits as `(doc, score bits)`: equality is bit for bit.
fn bits(hits: &[SearchHit]) -> Vec<(DocId, u32)> {
    hits.iter().map(|h| (h.doc, h.score.to_bits())).collect()
}

/// The score peaks `CompressedPostings::encode` must record for a
/// block of `(tf, len)` postings, straight from their definition: B is
/// the smallest non-zero length `m` (`1` when there is none) at the
/// largest tf `s` found at that length; A is the block's largest tf at
/// the smallest non-zero length among the postings with tf above `s`
/// (`m` when there are none).
fn ref_peaks(block: &[(u32, u32)]) -> [(u32, u32); 2] {
    let m = block
        .iter()
        .map(|&(_, len)| len)
        .filter(|&len| len > 0)
        .min();
    let s = block
        .iter()
        .filter(|&&(_, len)| Some(len) == m)
        .map(|&(tf, _)| tf)
        .max()
        .unwrap_or(0);
    let m = m.unwrap_or(1);
    let rest = block
        .iter()
        .filter(|&&(tf, len)| tf > s && len > 0)
        .map(|&(_, len)| len)
        .min()
        .unwrap_or(m);
    let max_tf = block.iter().map(|&(tf, _)| tf).max().unwrap_or(0);
    [(max_tf, rest), (s, m)]
}

/// One block as a cursor reports it: its peaks and its `(doc, tf)`s.
type Block = ([(u32, u32); 2], Vec<(DocId, u32)>);

/// Walk `cursor` block by block.
fn blocks_of(mut cursor: PostingsCursor<'_>) -> Vec<Block> {
    let mut out: Vec<Block> = Vec::new();
    let mut last = NO_DOC;
    while let Some(peaks) = cursor.block_peaks() {
        if cursor.block_last_doc() != last {
            last = cursor.block_last_doc();
            out.push((peaks, Vec::new()));
        }
        out.last_mut()
            .unwrap()
            .1
            .push((DocId(cursor.doc()), cursor.tf()));
        cursor.next();
    }
    out
}

/// Strategy: a doc-ordered set of (doc, positions) postings.
fn posting_data() -> impl Strategy<Value = Vec<(u32, Vec<u32>)>> {
    proptest::collection::btree_map(
        0u32..10_000,
        proptest::collection::btree_set(0u32..5_000, 1..20),
        0..50,
    )
    .prop_map(|m| {
        m.into_iter()
            .map(|(doc, pos)| (doc, pos.into_iter().collect::<Vec<u32>>()))
            .collect()
    })
}

/// Strategy: postings spanning up to five [`BLOCK_SIZE`] blocks, with a
/// field length per doc id (zero for a tombstone) that the block peaks
/// of both cursors read.
fn multi_block_data() -> impl Strategy<Value = (Vec<(u32, Vec<u32>)>, Vec<u32>)> {
    (
        proptest::collection::btree_map(
            0u32..10_000,
            proptest::collection::btree_set(0u32..5_000, 1..8),
            0..5 * BLOCK_SIZE - 40,
        ),
        proptest::collection::vec(prop_oneof![Just(0u32), 1u32..5, 5u32..40], 10_000..10_001),
    )
        .prop_map(|(m, lens)| {
            let data = m
                .into_iter()
                .map(|(doc, pos)| (doc, pos.into_iter().collect()))
                .collect();
            (data, lens)
        })
}

/// Field lengths for encoding `list`: every document one token long
/// (the codec checks read no lengths).
fn ones(list: &PostingList) -> Vec<u32> {
    vec![1; list.iter().last().map_or(0, |(doc, _)| doc.as_usize() + 1)]
}

/// The list as owned `(doc, positions)` pairs, the shape of
/// [`posting_data`].
fn owned(list: &PostingList) -> Vec<(u32, Vec<u32>)> {
    list.iter().map(|(doc, p)| (doc.0, p.to_vec())).collect()
}

/// Append `v` to `out` as a LEB128 varint (reference implementation).
fn ref_varint_push(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Test-local reference encoder of the pre-packed varint posting
/// layout: per posting, a delta-varint doc id, a varint tf, then
/// delta-varint positions.
fn ref_varint_encode(list: &PostingList) -> Vec<u8> {
    let mut out = Vec::new();
    let mut prev_doc = 0u32;
    for (doc, positions) in list.iter() {
        ref_varint_push(&mut out, doc.0 - prev_doc);
        prev_doc = doc.0;
        ref_varint_push(&mut out, positions.len() as u32);
        let mut prev_pos = 0u32;
        for &pos in positions {
            ref_varint_push(&mut out, pos - prev_pos);
            prev_pos = pos;
        }
    }
    out
}

/// Decode the reference varint stream back into `(doc, positions)`.
fn ref_varint_decode(bytes: &[u8]) -> Vec<(u32, Vec<u32>)> {
    let mut read = {
        let mut at = 0usize;
        move |bytes: &[u8]| -> Option<u32> {
            if at >= bytes.len() {
                return None;
            }
            let mut v = 0u32;
            let mut shift = 0u32;
            loop {
                let b = bytes[at];
                at += 1;
                v |= u32::from(b & 0x7f) << shift;
                if b & 0x80 == 0 {
                    return Some(v);
                }
                shift += 7;
            }
        }
    };
    let mut out = Vec::new();
    let mut doc = 0u32;
    while let Some(delta) = read(bytes) {
        doc += delta;
        let tf = read(bytes).expect("tf follows doc delta");
        let mut positions = Vec::with_capacity(tf as usize);
        let mut pos = 0u32;
        for _ in 0..tf {
            pos += read(bytes).expect("position follows tf");
            positions.push(pos);
        }
        out.push((doc, positions));
    }
    out
}

proptest! {
    /// A raw list written an occurrence at a time holds exactly the
    /// generated postings, and packing it is lossless.
    #[test]
    fn compression_roundtrip(data in posting_data()) {
        let mut list = PostingList::new();
        for (doc, positions) in &data {
            for &p in positions {
                list.push_occurrence(DocId(*doc), p);
            }
        }
        let max_tf = data.iter().map(|(_, p)| p.len() as u32).max().unwrap_or(0);
        prop_assert_eq!(owned(&list), data.clone());
        prop_assert_eq!(list.max_tf(), max_tf);
        let decoded = CompressedPostings::encode(&list, &ones(&list)).decode();
        prop_assert_eq!(owned(&decoded), data);
    }

    /// Every block of an encoded list records exactly the reference
    /// peaks of its postings — zero lengths (tombstones) skipped, a
    /// block without a non-zero length clamped to length 1 — and one of
    /// them dominates each posting of non-zero length.
    #[test]
    fn block_peaks_match_reference(
        data in proptest::collection::btree_map(0u32..2_000, 1u32..6, 0..400),
        lens in proptest::collection::vec(prop_oneof![Just(0u32), 1u32..5, 5u32..40], 2_000..2_001),
    ) {
        let mut list = PostingList::new();
        for (&doc, &tf) in &data {
            list.push_posting(DocId(doc), &(0..tf).collect::<Vec<_>>());
        }
        let packed = CompressedPostings::encode(&list, &lens);
        let blocks = blocks_of(packed.cursor());
        prop_assert_eq!(blocks.len(), data.len().div_ceil(BLOCK_SIZE));
        prop_assert_eq!(&blocks_of(list.cursor(&lens)), &blocks);
        for (peaks, postings) in blocks {
            let block: Vec<(u32, u32)> =
                postings.iter().map(|&(d, tf)| (tf, lens[d.as_usize()])).collect();
            prop_assert_eq!(peaks, ref_peaks(&block));
            for (tf, len) in block.into_iter().filter(|&(_, len)| len > 0) {
                prop_assert!(peaks.iter().any(|&(ptf, plen)| tf <= ptf && len >= plen));
            }
        }
    }

    /// The bit-packed block format decodes to exactly what a reference
    /// varint codec of the old one-posting-at-a-time layout yields:
    /// same docs, same tfs, same positions.
    #[test]
    fn packed_decode_equals_varint_reference(data in posting_data()) {
        let mut list = PostingList::new();
        for (doc, positions) in &data {
            for &p in positions {
                list.push_occurrence(DocId(*doc), p);
            }
        }
        let reference = ref_varint_decode(&ref_varint_encode(&list));
        let packed = CompressedPostings::encode(&list, &ones(&list));
        prop_assert_eq!(owned(&packed.decode()), reference);
    }

    /// A cursor on a packed list and one on the raw list both agree
    /// with a model walk of the generated postings under arbitrary
    /// interleavings of `next` and forward `seek` — same doc ids, tfs,
    /// and positions at every step, and identical exhaustion behavior —
    /// and report the same block (its last doc) and the same block
    /// peaks from the same lengths. Lists span up to five blocks and
    /// three steps in four are `next`, so both cursors cross block
    /// boundaries by stepping as well as by seeking.
    #[test]
    fn packed_cursor_equals_raw_cursor(
        case in multi_block_data(),
        ops in proptest::collection::vec((0u8..8, 0u32..11_000), 1..400),
    ) {
        let (data, lens) = case;
        let mut list = PostingList::new();
        for (doc, positions) in &data {
            for &p in positions {
                list.push_occurrence(DocId(*doc), p);
            }
        }
        let packed = CompressedPostings::encode(&list, &lens);
        let mut a = packed.cursor();
        let mut b = list.cursor(&lens);
        // The model cursor: an index into `data`.
        let mut at = 0usize;
        let model_doc = |at: usize| data.get(at).map_or(NO_DOC, |(doc, _)| *doc);
        let model_block_last = |at: usize| {
            let end = (at / BLOCK_SIZE + 1) * BLOCK_SIZE;
            if at < data.len() { data[end.min(data.len()) - 1].0 } else { NO_DOC }
        };
        let (mut pa, mut pb) = (Vec::new(), Vec::new());
        for (op, target) in ops {
            if op < 6 {
                a.next();
                b.next();
                at = (at + 1).min(data.len());
            } else {
                // `op == 7` seeks relative to the current doc, so
                // in-block short hops get exercised, not just far jumps.
                let t = if op == 6 { target } else { a.doc().saturating_add(target % 7) };
                a.seek(t);
                b.seek(t);
                if model_doc(at) < t {
                    at = data.partition_point(|(doc, _)| *doc < t);
                }
            }
            prop_assert_eq!(a.doc(), model_doc(at));
            prop_assert_eq!(b.doc(), model_doc(at));
            prop_assert_eq!(a.block_last_doc(), model_block_last(at));
            prop_assert_eq!(b.block_last_doc(), model_block_last(at));
            prop_assert_eq!(a.block_peaks(), b.block_peaks());
            if let Some((_, positions)) = data.get(at) {
                prop_assert_eq!(a.tf(), positions.len() as u32);
                prop_assert_eq!(b.tf(), positions.len() as u32);
                a.positions(&mut pa);
                b.positions(&mut pb);
                prop_assert_eq!(&pa, positions);
                prop_assert_eq!(&pb, positions);
            }
        }
    }

    /// Analysis is deterministic and produces terms that re-analyze to
    /// themselves (idempotence of normalization).
    #[test]
    fn analyzer_idempotent(text in "\\PC{0,200}") {
        let once = analyze(&text);
        for tok in &once {
            let again = analyze(&tok.term);
            // A normalized term must analyze to at most one token and,
            // when it survives, to itself.
            prop_assert!(again.len() <= 1);
            if let Some(t) = again.first() {
                prop_assert_eq!(&t.term, &tok.term);
            }
        }
        let twice = analyze(&text);
        prop_assert_eq!(once, twice);
    }

    /// Token byte offsets always slice the original text cleanly.
    #[test]
    fn token_offsets_are_valid_slices(text in "\\PC{0,200}") {
        for tok in analyze(&text) {
            prop_assert!(tok.start < tok.end);
            prop_assert!(tok.end <= text.len());
            prop_assert!(text.is_char_boundary(tok.start));
            prop_assert!(text.is_char_boundary(tok.end));
        }
    }

    /// Every document that a single-term query returns really contains
    /// the term, and scores are positive and sorted.
    #[test]
    fn search_results_sound(
        docs in proptest::collection::vec("[a-z]{1,6}( [a-z]{1,6}){0,10}", 1..20),
        needle in "[a-z]{1,6}",
    ) {
        let mut idx = Index::new(IndexConfig::default());
        let body = idx.register_field("body", 1.0);
        for d in &docs {
            idx.add(Doc::new().field(body, d.clone()));
        }
        let hits = Searcher::new(&idx).search(&Query::parse(&needle), docs.len());
        let needle_terms: Vec<String> =
            analyze(&needle).into_iter().map(|t| t.term).collect();
        for w in hits.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
        for h in &hits {
            prop_assert!(h.score > 0.0);
            let text = &docs[h.doc.as_usize()];
            let doc_terms: Vec<String> =
                analyze(text).into_iter().map(|t| t.term).collect();
            prop_assert!(
                needle_terms.iter().any(|n| doc_terms.contains(n)),
                "doc {:?} ({text:?}) does not contain {needle_terms:?}",
                h.doc
            );
        }
    }

    /// Optimizing (compressing) an index never changes search results.
    #[test]
    fn optimize_preserves_results(
        docs in proptest::collection::vec("[a-z]{1,4}( [a-z]{1,4}){0,6}", 1..15),
        query in "[a-z]{1,4}( [a-z]{1,4}){0,2}",
    ) {
        let mut idx = Index::new(IndexConfig::default());
        let body = idx.register_field("body", 1.0);
        for d in &docs {
            idx.add(Doc::new().field(body, d.clone()));
        }
        let q = Query::parse(&query);
        let before = Searcher::new(&idx).search(&q, 100);
        idx.optimize();
        let after = Searcher::new(&idx).search(&q, 100);
        prop_assert_eq!(before.len(), after.len());
        for (a, b) in before.iter().zip(after.iter()) {
            prop_assert_eq!(a.doc, b.doc);
            prop_assert!((a.score - b.score).abs() < 1e-5);
        }
    }

    /// Rank safety of MaxScore pruning: the pruned executor returns the
    /// exact `(doc, score)` list of the exhaustive one — same docs,
    /// bit-identical scores, same tie-break order — across random
    /// corpora, query shapes (should/must/must-not, field-restricted,
    /// unknown fields), k values, index states (raw, optimized, mixed
    /// raw+compressed with stale bounds, tombstoned docs), and filters.
    #[test]
    fn pruned_equals_exhaustive(
        docs in proptest::collection::vec(
            ("[ab]{2,3}( [ab]{2,3}){0,2}", "[ab]{2,3}( [ab]{2,3}){0,8}"),
            1..25,
        ),
        clauses in proptest::collection::vec(clause(), 1..5),
        k in 1usize..8,
        optimize in 0u8..2,
        delete_first in 0u8..2,
        add_after in 0u8..2,
    ) {
        let mut idx = Index::new(IndexConfig::default());
        let title = idx.register_field("title", 2.0);
        let body = idx.register_field("body", 1.0);
        for (t, b) in &docs {
            idx.add(Doc::new().field(title, t.clone()).field(body, b.clone()));
        }
        if delete_first == 1 {
            idx.delete(DocId(0));
        }
        if optimize == 1 {
            idx.optimize();
            if add_after == 1 {
                // Mixed segments: re-expanded lists + stale score stats.
                idx.add(Doc::new().field(title, "ab ba").field(body, "aa bb ab aba"));
            }
        }
        let q = Query::parse(&clauses.join(" "));
        let searcher = Searcher::new(&idx);
        let pruned = searcher.search(&q, k);
        prop_assert_eq!(pruned, searcher.search_exhaustive(&q, k, |_| true));

        let filter = |d: DocId| d.0.is_multiple_of(2);
        let pruned = searcher.search_filtered(&q, k, filter);
        prop_assert_eq!(pruned, searcher.search_exhaustive(&q, k, filter));
    }

    /// Rank safety of the filter-cursor pushdown: for a random corpus,
    /// query, and allowed doc-id set, `search_docset` (the non-scoring
    /// conjunctive [`DocSet`] cursor riding the MaxScore executor)
    /// returns the exact `(doc, score)` list of the closure-filtered
    /// path and of the reference under the closure — three-way
    /// bit-identical. The set's
    /// density is drawn wide enough to cover both the sorted-vec and
    /// bitset representations, and both of its mountings: thinned to
    /// one member it is sparser than every posting list and drives the
    /// intersection as a gate; left whole it is denser than the rarest
    /// list of most queries and is probed per candidate.
    #[test]
    fn filter_cursor_equals_closure(
        docs in proptest::collection::vec(
            ("[ab]{2,3}( [ab]{2,3}){0,2}", "[ab]{2,3}( [ab]{2,3}){0,8}"),
            1..25,
        ),
        clauses in proptest::collection::vec(clause(), 1..5),
        k in 1usize..8,
        allowed_mask in proptest::collection::vec(any::<bool>(), 25..26),
        thin in 0u8..3,
        optimize in 0u8..2,
        delete_first in 0u8..2,
    ) {
        let mut idx = Index::new(IndexConfig::default());
        let title = idx.register_field("title", 2.0);
        let body = idx.register_field("body", 1.0);
        for (t, b) in &docs {
            idx.add(Doc::new().field(title, t.clone()).field(body, b.clone()));
        }
        if delete_first == 1 {
            idx.delete(DocId(0));
        }
        if optimize == 1 {
            idx.optimize();
        }
        let mut allowed: Vec<u32> = (0..docs.len() as u32)
            .filter(|&d| thin == 2 || allowed_mask[d as usize])
            .collect();
        if thin == 1 {
            allowed.truncate(1);
        }
        let set = symphony_text::DocSet::from_sorted(allowed.clone());
        let q = Query::parse(&clauses.join(" "));

        let searcher = Searcher::new(&idx);
        let via_set = searcher.search_docset(&q, k, &set);
        let closure = |d: DocId| allowed.binary_search(&d.0).is_ok();
        let via_closure = searcher.search_filtered(&q, k, closure);
        let via_closure_ex = searcher.search_exhaustive(&q, k, closure);

        let key = |hits: &[symphony_text::SearchHit]| {
            hits.iter().map(|h| (h.doc, h.score.to_bits())).collect::<Vec<_>>()
        };
        prop_assert_eq!(key(&via_set), key(&via_closure));
        prop_assert_eq!(key(&via_set), key(&via_closure_ex));
    }

    /// The contract a live index prunes under: after **every** step of
    /// a write schedule — adds, deletes, updates (of memtable docs
    /// too), seals, maintenance, `build_parallel` into a non-empty
    /// memtable, repeated fields, a field registered late — every
    /// `(term, field)` with postings has score-bound ingredients that
    /// dominate each of its live postings (`tf <= max_tf`,
    /// `field_len >= min_len`; checked through the folded public
    /// accessor — the per-segment form of the same check lives next to
    /// the segment types, in `index.rs`), and the pruned executor,
    /// which trusts them segment by segment, returns the exhaustive
    /// one's exact `(doc, score)` list: plain, `+must`, `-not` and
    /// phrase queries, under a `DocSet` in both its gate and its probe
    /// mounting, with near-real-time visibility on and off.
    ///
    /// Every block of every sealed list carries score peaks that
    /// dominate its live postings, match the reference peaks of its
    /// postings whenever none of them was tombstoned since the block
    /// was encoded, and never sit below length 1 or outside the
    /// lengths its documents had (the clamp for a block whose lengths
    /// all read zero).
    #[test]
    fn live_stats_dominate_and_prune_exactly(
        ops in proptest::collection::vec(live_op(), 1..25),
        nrt in any::<bool>(),
        k in 1usize..5,
    ) {
        let policy = SegmentPolicy {
            memtable_max_docs: 4,
            staleness_window_ms: 80,
            merge_fanin: 2,
            near_real_time: nrt,
        };
        let mut idx = Index::new(IndexConfig { policy });
        let title = idx.register_field("title", 2.0);
        let body = idx.register_field("body", 1.0);
        let mut clock = 0u64;
        // Each doc's lengths as first seen live: a tombstone zeroes
        // them, but a block sealed before the delete encoded these.
        let mut first_len: HashMap<(DocId, symphony_text::FieldId), u32> = HashMap::new();
        let doc = |t, b| Doc::new().field(title, t).field(body, b);
        for op in &ops {
            match op {
                LiveOp::Base(LifecycleOp::Add(t, b)) => {
                    idx.add(doc(t, b));
                }
                LiveOp::Base(LifecycleOp::Delete(i)) => {
                    idx.delete(DocId(*i));
                }
                LiveOp::Base(LifecycleOp::Update(i, t, b)) => {
                    idx.update(DocId(*i), doc(t, b));
                }
                LiveOp::Base(LifecycleOp::Seal) => {
                    idx.seal();
                }
                LiveOp::Base(LifecycleOp::Maintain) => {
                    clock += 37;
                    idx.maintain(clock);
                }
                LiveOp::Batch(docs, threads) => {
                    idx.build_parallel(docs.iter().map(|(t, b)| doc(t, b)), *threads);
                }
                LiveOp::AddRepeated(t, b, b2) => {
                    idx.add(doc(t, b).field(body, b2.as_str()));
                }
                LiveOp::AddTagged(b, tags) => {
                    let tag_field = idx.register_field("tags", 1.5);
                    idx.add(Doc::new().field(body, b.as_str()).field(tag_field, tags.as_str()));
                }
                LiveOp::UpdateNewest(t, b) => {
                    if let Some(newest) = idx.total_docs().checked_sub(1) {
                        idx.update(DocId(newest as u32), doc(t, b));
                    }
                }
            }
            prop_assert_eq!(idx.check(), Ok(()), "after {:?}", op);

            for (term, text) in idx.lexicon().iter() {
                for field in idx.field_ids() {
                    let stats = idx.term_score_stats(term, field);
                    prop_assert_eq!(stats.is_some(), idx.has_postings(term, field));
                    let Some(stats) = stats else { continue };
                    idx.for_each_posting(term, field, |d, positions| {
                        if idx.is_deleted(d) {
                            return;
                        }
                        let (tf, len) = (positions.len() as u32, idx.field_len(d, field));
                        assert!(
                            tf <= stats.max_tf && len >= stats.min_len,
                            "{text:?} in {field:?} at {d:?}: tf {tf} len {len} vs {stats:?}"
                        );
                    });
                }
            }

            for d in (0..idx.total_docs() as u32).map(DocId).filter(|&d| !idx.is_deleted(d)) {
                for field in idx.field_ids() {
                    first_len.entry((d, field)).or_insert_with(|| idx.field_len(d, field));
                }
            }
            for (term, text) in idx.lexicon().iter() {
                for field in idx.field_ids() {
                    for (peaks, postings) in idx.segment_cursors(term, field).flat_map(blocks_of) {
                        let block: Vec<(u32, u32)> =
                            postings.iter().map(|&(d, tf)| (tf, idx.field_len(d, field))).collect();
                        let at = format!("{text:?} in {field:?}, block {postings:?}: {peaks:?}");
                        for (&(d, _), &(tf, len)) in postings.iter().zip(&block) {
                            if !idx.is_deleted(d) {
                                prop_assert!(
                                    peaks.iter().any(|&(ptf, plen)| tf <= ptf && len >= plen),
                                    "{} misses tf {} len {}", at, tf, len
                                );
                            }
                        }
                        if postings.iter().all(|&(d, _)| !idx.is_deleted(d)) {
                            prop_assert_eq!(peaks, ref_peaks(&block), "{}", at);
                        }
                        for (_, plen) in peaks {
                            prop_assert!(
                                plen == 1 || postings.iter().any(|&(d, _)| first_len[&(d, field)] == plen),
                                "{} length {} is no document's", at, plen
                            );
                        }
                    }
                }
            }

            let total = idx.total_docs() as u32;
            // Two members: sparser than most positive lists (a gate).
            // Two docs in three: denser than the rarest (a probe).
            let sparse = symphony_text::DocSet::from_unsorted(vec![0, total.saturating_sub(1)]);
            let dense = symphony_text::DocSet::from_sorted(
                (0..total).filter(|d| d % 3 != 0).collect(),
            );
            for q in [
                "aa",
                "ab ba aa",
                "+ab aa",
                "ab -ba",
                "\"ab ba\"",
                "+\"ab aa\" ba",
                "aa -\"ab ab\"",
                "title:ab tags:aa",
            ] {
                let query = Query::parse(q);
                let searcher = Searcher::new(&idx);
                prop_assert_eq!(
                    searcher.search(&query, k),
                    searcher.search_exhaustive(&query, k, |_| true),
                    "{} after {:?}", q, op
                );
                for set in [&sparse, &dense] {
                    prop_assert_eq!(
                        searcher.search_docset(&query, k, set),
                        searcher.search_exhaustive(&query, k, |d| set.contains(d)),
                        "{} under a set of {} after {:?}", q, set.len(), op
                    );
                }
            }
        }
    }

    /// Query parser never panics and Display output reparses to the
    /// same clause structure.
    #[test]
    fn query_parse_total(input in "\\PC{0,100}") {
        let q = Query::parse(&input);
        let reparsed = Query::parse(&q.to_string());
        // Reparse of canonical form is a fixpoint.
        prop_assert_eq!(Query::parse(&reparsed.to_string()), reparsed);
    }

    /// The segmented parallel build is bit-identical to a sequential
    /// build: same lexicon (ids and strings), same postings bytes after
    /// `optimize()`, same score-bound stats, same `(doc, score)` search
    /// results — over random docs, fields, and thread counts 1..=8.
    #[test]
    fn built_parallel_equals_sequential(
        docs in proptest::collection::vec(
            ("[ab]{2,4}( [abc]{1,4}){0,3}", "[a-d]{1,5}( [a-d]{1,5}){0,8}"),
            0..40,
        ),
        threads in 1usize..9,
    ) {
        let make_docs = |title: symphony_text::FieldId, body: symphony_text::FieldId| {
            docs.iter()
                .map(|(t, b)| Doc::new().field(title, t.clone()).field(body, b.clone()))
                .collect::<Vec<Doc>>()
        };
        let mut seq = Index::new(IndexConfig::default());
        let title = seq.register_field("title", 2.0);
        let body = seq.register_field("body", 1.0);
        for d in make_docs(title, body) {
            seq.add(d);
        }
        seq.optimize();

        let mut par = Index::new(IndexConfig::default());
        let ptitle = par.register_field("title", 2.0);
        let pbody = par.register_field("body", 1.0);
        let ids = par.build_parallel(make_docs(ptitle, pbody), threads);
        par.optimize();

        prop_assert_eq!(&ids, &(0..docs.len() as u32).map(DocId).collect::<Vec<_>>());
        prop_assert_eq!(seq.stats(), par.stats());
        // Lexicon: identical term ids in identical first-encounter order.
        prop_assert_eq!(
            seq.lexicon().iter().collect::<Vec<_>>(),
            par.lexicon().iter().collect::<Vec<_>>()
        );
        // Postings: identical compressed bytes per (term, field) in the
        // fully-compacted segment; score stats identical too.
        for (term, _) in seq.lexicon().iter() {
            for field in [title, body] {
                let a = seq.compacted_postings(term, field);
                let b = par.compacted_postings(term, field);
                match (a, b) {
                    (None, None) => {}
                    (Some(ca), Some(cb)) => prop_assert_eq!(ca.bytes(), cb.bytes()),
                    (a, b) => prop_assert!(
                        false,
                        "postings shape mismatch: {} vs {}",
                        a.is_some(),
                        b.is_some()
                    ),
                }
                prop_assert_eq!(
                    seq.term_score_stats(term, field),
                    par.term_score_stats(term, field)
                );
            }
        }
        // Per-doc field lengths.
        for d in 0..docs.len() as u32 {
            for field in [title, body] {
                prop_assert_eq!(seq.field_len(DocId(d), field), par.field_len(DocId(d), field));
            }
        }
        // Search: identical (doc, score) lists, bit-for-bit.
        for q in ["ab", "aa bb", "+ab cd", "title:ab", "\"ab ab\""] {
            let query = Query::parse(q);
            let a = Searcher::new(&seq).search(&query, 10);
            let b = Searcher::new(&par).search(&query, 10);
            prop_assert_eq!(
                a.iter().map(|h| (h.doc, h.score.to_bits())).collect::<Vec<_>>(),
                b.iter().map(|h| (h.doc, h.score.to_bits())).collect::<Vec<_>>()
            );
        }
    }

    /// A bulk build past the memtable cap is a run of sealed chunks.
    /// With the cap drawn from 1..=8, a batch of up to 60 docs spans
    /// many chunks and, on few threads, many waves. After a prefix of
    /// adds and deletes, the chunked build (fed lazily, as a stream)
    /// seal exactly the chunks the cap implies (no chunk over the cap)
    /// and must search exactly like a sequential `add` loop before
    /// `optimize()`: same ids, same `(doc, score)` bits, every doc
    /// visible. After `optimize()` the two indexes are identical:
    /// lexicon, stats, compacted bytes, score stats and field lengths.
    #[test]
    fn chunked_build_equals_sequential(
        cap in 1u32..=8,
        prefix in proptest::collection::vec(
            (any::<bool>(), "[ab]{2,3}", "[a-d]{1,4}( [a-d]{1,4}){0,4}", 0u32..12),
            0..8,
        ),
        docs in proptest::collection::vec(
            ("[ab]{2,4}( [abc]{1,4}){0,3}", "[a-d]{1,5}( [a-d]{1,5}){0,8}"),
            0..60,
        ),
        threads in 1usize..=8,
    ) {
        let fresh = || {
            let policy = SegmentPolicy {
                memtable_max_docs: cap,
                staleness_window_ms: u64::MAX,
                merge_fanin: 4,
                near_real_time: false,
            };
            let mut idx = Index::new(IndexConfig { policy });
            let title = idx.register_field("title", 2.0);
            let body = idx.register_field("body", 1.0);
            for (add, t, b, target) in &prefix {
                if *add {
                    idx.add(Doc::new().field(title, t.as_str()).field(body, b.as_str()));
                } else {
                    idx.delete(DocId(*target));
                }
            }
            (idx, title, body)
        };
        let (mut seq, title, body) = fresh();
        let seq_ids: Vec<DocId> = docs
            .iter()
            .map(|(t, b)| seq.add(Doc::new().field(title, t.as_str()).field(body, b.as_str())))
            .collect();
        let (mut par, ptitle, pbody) = fresh();
        let stream = docs
            .iter()
            .map(|(t, b)| Doc::new().field(ptitle, t.as_str()).field(pbody, b.as_str()));
        let before = par.stats();
        let ids = par.build_parallel(stream, threads);
        prop_assert_eq!(&ids, &seq_ids);
        prop_assert_eq!(par.check(), Ok(()));
        if !docs.is_empty() {
            // A batch that fits in one wave splits evenly across the
            // workers; a longer one is carved at the cap. Every chunk
            // but the last is full, and each is one sealed segment,
            // after the one the non-empty memtable was sealed into.
            let chunk = docs.len().div_ceil(threads).clamp(1, cap as usize);
            let s = par.stats();
            prop_assert_eq!(s.memtable_docs, 0, "the memtable was sealed first");
            prop_assert_eq!(
                s.sealed_segments,
                before.sealed_segments
                    + usize::from(before.memtable_docs > 0)
                    + docs.len().div_ceil(chunk),
                "{} docs at cap {} on {} threads",
                docs.len(),
                cap,
                threads
            );
        }
        let queries = ["ab", "aa bb", "+ab cd", "title:ab", "\"ab ab\"", "ab -cd"];
        for q in queries {
            let query = Query::parse(q);
            prop_assert_eq!(
                bits(&Searcher::new(&seq).search(&query, 20)),
                bits(&Searcher::new(&par).search(&query, 20)),
                "{} before optimize", q
            );
        }

        seq.optimize();
        par.optimize();
        prop_assert_eq!(par.check(), Ok(()));
        prop_assert_eq!(seq.stats(), par.stats());
        prop_assert_eq!(
            seq.lexicon().iter().collect::<Vec<_>>(),
            par.lexicon().iter().collect::<Vec<_>>()
        );
        for (term, _) in seq.lexicon().iter() {
            for field in [title, body] {
                prop_assert_eq!(
                    seq.compacted_postings(term, field).map(|c| c.bytes()),
                    par.compacted_postings(term, field).map(|c| c.bytes())
                );
                prop_assert_eq!(
                    seq.term_score_stats(term, field),
                    par.term_score_stats(term, field)
                );
            }
        }
        for d in (0..seq.total_docs() as u32).map(DocId) {
            for field in [title, body] {
                prop_assert_eq!(seq.field_len(d, field), par.field_len(d, field));
            }
        }
        for q in queries {
            let query = Query::parse(q);
            prop_assert_eq!(
                bits(&Searcher::new(&seq).search(&query, 20)),
                bits(&Searcher::new(&par).search(&query, 20)),
                "{} after optimize", q
            );
        }
    }

    /// Differential proof of the segment lifecycle: ANY interleaving of
    /// add/delete/update/seal/maintain, once fully compacted, yields
    /// `(doc, score)` lists **bit-identical** to a from-scratch
    /// `build_parallel` of the surviving documents — across thread
    /// counts, under filters, in both executors. Tombstone purge, df
    /// and stats rebuild, live-corpus idf, and rank-safe pruning over
    /// mixed segments all have to be exact for this to hold (doc ids
    /// are compared through the order-preserving live-ordinal map,
    /// scores bit-for-bit).
    #[test]
    fn incremental_equals_rebuild(
        ops in proptest::collection::vec(lifecycle_op(), 1..40),
        threads in 1usize..9,
    ) {
        // Aggressive policy so short schedules still exercise seals and
        // tiered merges.
        let policy = SegmentPolicy {
            memtable_max_docs: 3,
            staleness_window_ms: 50,
            merge_fanin: 2,
            near_real_time: false,
        };
        let mut idx = Index::new(IndexConfig { policy });
        let title = idx.register_field("title", 2.0);
        let body = idx.register_field("body", 1.0);
        // Shadow model: doc id -> its (title, body) while live.
        let mut model: Vec<Option<(String, String)>> = Vec::new();
        let mut clock = 0u64;
        for op in &ops {
            match op {
                LifecycleOp::Add(t, b) => {
                    let id = idx.add(Doc::new().field(title, t.clone()).field(body, b.clone()));
                    prop_assert_eq!(id.as_usize(), model.len());
                    model.push(Some((t.clone(), b.clone())));
                }
                LifecycleOp::Delete(i) => {
                    let expect = (*i as usize) < model.len() && model[*i as usize].is_some();
                    prop_assert_eq!(idx.delete(DocId(*i)), expect);
                    if expect {
                        model[*i as usize] = None;
                    }
                }
                LifecycleOp::Update(i, t, b) => {
                    let live = (*i as usize) < model.len() && model[*i as usize].is_some();
                    let got = idx.update(
                        DocId(*i),
                        Doc::new().field(title, t.clone()).field(body, b.clone()),
                    );
                    prop_assert_eq!(got.is_some(), live);
                    if live {
                        prop_assert_eq!(got.unwrap().as_usize(), model.len());
                        model[*i as usize] = None;
                        model.push(Some((t.clone(), b.clone())));
                    }
                }
                LifecycleOp::Seal => {
                    idx.seal();
                }
                LifecycleOp::Maintain => {
                    clock += 37;
                    idx.maintain(clock);
                }
            }
            prop_assert_eq!(idx.check(), Ok(()), "after {:?}", op);
        }

        let queries = ["aa", "ab ba", "+ab aa", "ab -ba", "title:ab", "aa bb ab"];

        // Mid-lifecycle (mixed memtable + sealed segments, pending
        // tombstones): the two executors must already agree.
        for q in queries {
            let query = Query::parse(q);
            let searcher = Searcher::new(&idx);
            let pruned = searcher.search(&query, 7);
            let exhaustive = searcher.search_exhaustive(&query, 7, |_| true);
            prop_assert_eq!(pruned, exhaustive, "mixed-segment executors disagree on {}", q);
        }

        // Full compaction, then rebuild the live corpus from scratch.
        idx.optimize();
        prop_assert_eq!(idx.check(), Ok(()));
        let live_ids: Vec<u32> = model
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.as_ref().map(|_| i as u32))
            .collect();
        let mut rebuilt = Index::new(IndexConfig::default());
        let rtitle = rebuilt.register_field("title", 2.0);
        let rbody = rebuilt.register_field("body", 1.0);
        let live_docs: Vec<Doc> = model
            .iter()
            .flatten()
            .map(|(t, b)| Doc::new().field(rtitle, t.clone()).field(rbody, b.clone()))
            .collect();
        rebuilt.build_parallel(live_docs, threads);
        prop_assert_eq!(rebuilt.check(), Ok(()));
        rebuilt.optimize();
        prop_assert_eq!(rebuilt.check(), Ok(()));

        prop_assert_eq!(idx.live_docs(), rebuilt.live_docs());
        // Doc ids differ (the incremental index has holes where purged
        // docs sat), so hits are compared through the order-preserving
        // live-ordinal map; scores must match bit-for-bit.
        let ordinal = |d: DocId| live_ids.binary_search(&d.0).map(|i| i as u32);
        for q in queries {
            let query = Query::parse(q);
            let a = Searcher::new(&idx).search(&query, 50);
            let b = Searcher::new(&rebuilt).search(&query, 50);
            let a_mapped: Vec<(u32, u32)> = a
                .iter()
                .map(|h| (ordinal(h.doc).expect("hit must be live"), h.score.to_bits()))
                .collect();
            let b_mapped: Vec<(u32, u32)> =
                b.iter().map(|h| (h.doc.0, h.score.to_bits())).collect();
            prop_assert_eq!(a_mapped, b_mapped, "rebuild mismatch on {} ops={:?}", q, ops);

            // Same check under a caller filter (expressed in live
            // ordinals so both indexes accept the same documents).
            let fa = Searcher::new(&idx)
                .search_filtered(&query, 50, |d| ordinal(d).is_ok_and(|i| i % 2 == 0));
            let fb = Searcher::new(&rebuilt)
                .search_filtered(&query, 50, |d| d.0.is_multiple_of(2));
            prop_assert_eq!(
                fa.iter()
                    .map(|h| (ordinal(h.doc).unwrap(), h.score.to_bits()))
                    .collect::<Vec<_>>(),
                fb.iter().map(|h| (h.doc.0, h.score.to_bits())).collect::<Vec<_>>(),
                "filtered rebuild mismatch on {}",
                q
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Rank safety across posting blocks and candidate windows. The
    /// corpora above draw at most 25 documents: one block, one window.
    /// Here 300–3 000 documents over a dozen skewed words give lists of
    /// several blocks and windows, so the window ceiling, the window
    /// skip, a threshold raised inside a window and the `+must`
    /// one-candidate windows all run. The index is one to three sealed
    /// segments, optionally with a memtable tail (raw lists), with
    /// tombstones; `k` reaches past a result pool's depth. Every query
    /// mixes should terms, `+must`, `-not`, phrases and `-"phrase"`,
    /// and runs plain, under a closure filter and under a `DocSet`
    /// mounted as a probe (dense) and as a gate (sparse): each equals
    /// the reference bit for bit.
    #[test]
    fn windows_equal_reference(
        docs in 300u32..3_000,
        seed in any::<u64>(),
        k in 1usize..65,
        segments in 1u32..4,
        memtable in any::<bool>(),
        tombstone_every in 5u32..40,
        queries in proptest::collection::vec(proptest::collection::vec(window_clause(), 1..5), 3..4),
    ) {
        let mut idx = Index::new(IndexConfig::default());
        let title = idx.register_field("title", 2.0);
        let body = idx.register_field("body", 1.0);
        // The last tenth stays in the memtable when asked; the rest
        // seals into `segments` segments.
        let sealed = if memtable { docs - docs / 10 } else { docs };
        let mut state = seed;
        for i in 1..=docs {
            let (title_len, body_len) = (1 + splitmix(&mut state) % 4, 3 + splitmix(&mut state) % 22);
            let (t, b) = (skewed_words(&mut state, title_len), skewed_words(&mut state, body_len));
            idx.add(Doc::new().field(title, t).field(body, b));
            if (1..=segments).any(|s| i == sealed * s / segments) {
                idx.seal();
            }
        }
        for d in (seed as u32 % tombstone_every..docs).step_by(tombstone_every as usize) {
            idx.delete(DocId(d));
        }
        prop_assert_eq!(idx.stats().memtable_docs > 0, memtable);

        let dense = DocSet::from_sorted((0..docs).filter(|d| d % 3 != 0).collect());
        let sparse = DocSet::from_sorted((0..docs).step_by(97).collect());
        let filter = |d: DocId| d.0 % 5 != 1;
        let searcher = Searcher::new(&idx);
        for clauses in &queries {
            let q = Query::parse(&clauses.join(" "));
            let at = format!("{q} k={k} docs={docs} seed={seed}");
            prop_assert_eq!(
                bits(&searcher.search(&q, k)),
                bits(&searcher.search_exhaustive(&q, k, |_| true)),
                "{}", at
            );
            prop_assert_eq!(
                bits(&searcher.search_filtered(&q, k, filter)),
                bits(&searcher.search_exhaustive(&q, k, filter)),
                "{} filtered", at
            );
            for set in [&dense, &sparse] {
                prop_assert_eq!(
                    bits(&searcher.search_docset(&q, k, set)),
                    bits(&searcher.search_exhaustive(&q, k, |d| set.contains(d))),
                    "{} under a set of {}", at, set.len()
                );
            }
        }
    }
}

/// Pieces of hostile queries: the query grammar's metacharacters
/// (`+ - : "` and separators), other punctuation, multibyte text, and
/// long runs of one metacharacter.
const HOSTILE_PIECES: &[&str] = &[
    "\"", "+", "-", ":", ",", "\t", "\n", "[", "]", "{", "}", "<", ">", "/", "&", ";", "\\", "'",
    "*", "title:", "body:", ":\"", "+-", "-+", "--", "\"\"", "é", "中文", "🎮", "e\u{301}", "ß",
    "İ", "\u{0}", "\u{feff}", "\u{2028}", "space", "shooter", "the",
];

fn hostile_query() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        (0..HOSTILE_PIECES.len()).prop_map(|i| HOSTILE_PIECES[i].to_string()),
        "[a-z0-9 ]{1,6}",
        (0usize..4, 1usize..600).prop_map(|(kind, n)| ["\"", "+", "-", ":"][kind].repeat(n)),
    ];
    proptest::collection::vec(piece, 0..30).prop_map(|pieces| pieces.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any text parses to a query, and the query runs: no input panics
    /// the parser or the executor behind it.
    #[test]
    fn hostile_queries_never_panic(raw in hostile_query()) {
        let mut idx = Index::new(IndexConfig::default());
        let title = idx.register_field("title", 2.0);
        let body = idx.register_field("body", 1.0);
        idx.add(Doc::new().field(title, "Galactic Raiders").field(body, "a space shooter"));
        idx.add(Doc::new().field(title, "Farm Story").field(body, "the calm farming game"));
        let query = Query::parse(&raw);
        let hits = Searcher::new(&idx).search(&query, 10);
        prop_assert!(hits.len() <= 2);
    }
}
