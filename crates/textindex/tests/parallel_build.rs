//! Determinism tests for the segmented parallel index build.
//!
//! The differential *property* test (`tests/prop.rs`) covers random
//! corpora; these tests pin the two guarantees the build makes on a
//! fixed mid-size corpus:
//!
//! 1. a parallel build is bit-identical to a sequential build at every
//!    thread count 1..=8, and
//! 2. two parallel builds at the same thread count are bit-identical to
//!    each other (no dependence on thread scheduling), and
//! 3. a document that borrows its text indexes exactly like one that
//!    owns it, through `add` and through the parallel build.
//!
//! `default_thread_count_build_matches_sequential` builds at
//! [`default_build_threads`], which follows the CPU mask: run under
//! `taskset -c 0` it takes the one-worker path, where the caller builds
//! and packs every chunk itself.

use symphony_text::{
    default_build_threads, Doc, DocId, FieldId, Index, IndexConfig, Query, Searcher, SegmentPolicy,
};

/// Deterministic synthetic corpus: a small vocabulary recombined by a
/// fixed LCG, so every build sees the same documents.
fn corpus(n: usize) -> Vec<(String, String)> {
    const VOCAB: [&str; 24] = [
        "galactic", "raiders", "space", "shooter", "farm", "story", "calm", "crops", "trade",
        "stations", "laser", "golf", "puzzle", "palace", "quest", "racer", "drift", "arena",
        "battle", "craft", "pixel", "dungeon", "tower", "defense",
    ];
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut word = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        VOCAB[(state >> 33) as usize % VOCAB.len()]
    };
    (0..n)
        .map(|_| {
            let title = format!("{} {}", word(), word());
            let body = (0..12).map(|_| word()).collect::<Vec<_>>().join(" ");
            (title, body)
        })
        .collect()
}

/// Field ids in registration order.
const TITLE: FieldId = FieldId(0);
const BODY: FieldId = FieldId(1);

/// The corpus as documents that own copies of their text, or that
/// borrow it from `docs`.
fn batch(docs: &[(String, String)], owned: bool) -> Vec<Doc<'_>> {
    docs.iter()
        .map(|(t, b)| {
            if owned {
                Doc::new().field(TITLE, t.clone()).field(BODY, b.clone())
            } else {
                Doc::new().field(TITLE, t.as_str()).field(BODY, b.as_str())
            }
        })
        .collect()
}

fn build(docs: &[(String, String)], threads: Option<usize>) -> Index {
    build_batch(batch(docs, true), threads)
}

fn build_batch(batch: Vec<Doc<'_>>, threads: Option<usize>) -> Index {
    let mut idx = Index::new(IndexConfig::default());
    let title = idx.register_field("title", 2.0);
    let body = idx.register_field("body", 1.0);
    assert_eq!((title, body), (TITLE, BODY));
    match threads {
        Some(n) => {
            idx.build_parallel(batch, n);
        }
        None => {
            for d in batch {
                idx.add(d);
            }
        }
    }
    assert_eq!(idx.check(), Ok(()));
    idx.optimize();
    assert_eq!(idx.check(), Ok(()));
    idx
}

/// Bit-level equality: lexicon, per-list compressed bytes, score
/// stats, field lengths, and search results.
fn assert_identical(a: &Index, b: &Index) {
    assert_eq!(a.stats(), b.stats());
    assert_eq!(
        a.lexicon().iter().collect::<Vec<_>>(),
        b.lexicon().iter().collect::<Vec<_>>()
    );
    let fields = [TITLE, BODY];
    for (term, _) in a.lexicon().iter() {
        for field in fields {
            match (
                a.compacted_postings(term, field),
                b.compacted_postings(term, field),
            ) {
                (None, None) => {}
                (Some(ca), Some(cb)) => {
                    assert_eq!(ca.bytes(), cb.bytes(), "postings bytes differ");
                }
                (x, y) => panic!(
                    "postings shape mismatch: {:?} vs {:?}",
                    x.is_some(),
                    y.is_some()
                ),
            }
            assert_eq!(
                a.term_score_stats(term, field),
                b.term_score_stats(term, field)
            );
        }
    }
    for d in 0..a.total_docs() as u32 {
        for field in fields {
            assert_eq!(a.field_len(DocId(d), field), b.field_len(DocId(d), field));
        }
    }
    for q in ["space shooter", "farm", "+puzzle tower", "title:laser"] {
        let query = Query::parse(q);
        let ha = Searcher::new(a).search(&query, 20);
        let hb = Searcher::new(b).search(&query, 20);
        assert_eq!(
            ha.iter()
                .map(|h| (h.doc, h.score.to_bits()))
                .collect::<Vec<_>>(),
            hb.iter()
                .map(|h| (h.doc, h.score.to_bits()))
                .collect::<Vec<_>>(),
            "search results differ for {q:?}"
        );
    }
}

#[test]
fn parallel_build_matches_sequential_at_every_thread_count() {
    let docs = corpus(300);
    let seq = build(&docs, None);
    for threads in 1..=8 {
        let par = build(&docs, Some(threads));
        assert_identical(&seq, &par);
    }
}

#[test]
fn two_eight_thread_builds_are_bit_identical() {
    let docs = corpus(500);
    let a = build(&docs, Some(8));
    let b = build(&docs, Some(8));
    assert_identical(&a, &b);
}

#[test]
fn borrowed_text_builds_the_same_index_as_owned_text() {
    let docs = corpus(300);
    for threads in [None, Some(1), Some(2), Some(3), Some(4)] {
        let owned = build_batch(batch(&docs, true), threads);
        let borrowed = build_batch(batch(&docs, false), threads);
        assert_identical(&owned, &borrowed);
    }
}

#[test]
fn parallel_build_handles_ragged_and_empty_chunks() {
    // Under the default memtable cap each batch fits one wave and is
    // split evenly across the workers, so a small batch leaves some of
    // them idle (5 docs on 4 threads: chunks of 2, 2 and 1) and an
    // empty batch builds nothing; `prop.rs::chunked_build_equals_sequential`
    // draws ragged multi-chunk batches at small caps.
    for (n, threads) in [(5, 4), (1, 8), (0, 8), (7, 3)] {
        let docs = corpus(n);
        let seq = build(&docs, None);
        let par = build(&docs, Some(threads));
        assert_identical(&seq, &par);
    }
}

#[test]
fn default_thread_count_build_matches_sequential() {
    // A cap of 64 docs makes the batch at least five chunks: one wave
    // per chunk on one worker, fewer waves on more.
    let docs = corpus(300);
    let seq = build(&docs, None);
    let policy = SegmentPolicy {
        memtable_max_docs: 64,
        ..SegmentPolicy::default()
    };
    let mut idx = Index::new(IndexConfig { policy });
    let title = idx.register_field("title", 2.0);
    let body = idx.register_field("body", 1.0);
    assert_eq!((title, body), (TITLE, BODY));
    idx.build_parallel(batch(&docs, true), default_build_threads());
    assert_eq!(idx.check(), Ok(()));
    let stats = idx.stats();
    assert!(stats.sealed_segments >= 5, "{stats:?}");
    assert_eq!(stats.memtable_docs, 0);
    idx.optimize();
    assert_eq!(idx.check(), Ok(()));
    assert_identical(&seq, &idx);
}

#[test]
fn incremental_add_keeps_working_after_parallel_build() {
    let docs = corpus(40);
    let mut idx = build(&docs, Some(8));
    let title = idx.field_id("title").unwrap();
    let body = idx.field_id("body").unwrap();
    let id = idx.add(
        Doc::new()
            .field(title, "fresh entry")
            .field(body, "galactic space entry added incrementally"),
    );
    assert_eq!(id, DocId(40));
    assert_eq!(idx.check(), Ok(()));
    let hits = Searcher::new(&idx).search(&Query::parse("incrementally"), 5);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].doc, id);
}
