//! Allocation-count regression tests for the arena lexicon and the
//! streaming analysis chain.
//!
//! The pre-arena `HashMap<String, TermId>` lexicon allocated two
//! `String`s per first-sight intern (one map key, one id-to-term entry)
//! and one hashing-side allocation per borrowed lookup was only avoided
//! by accident of the raw-entry API not being used at all. The arena
//! representation must stay amortized: interning N fresh terms costs
//! O(log N) container growths, not O(N) allocations, and lookups cost
//! zero. `analyze_with`, the indexing hot path, borrows
//! every term from the text or from its reused scratch buffers, so once
//! a warm-up pass has grown those buffers a document costs zero
//! allocations. The index's write path stores each raw posting list
//! flat (doc ids, position end offsets and positions in three arenas),
//! so adding warm documents and merging sealed segments grow a few
//! arenas per list instead of allocating once per posting. A document
//! borrows its text and the index keeps none of it, so the bytes a
//! batch of borrowed documents requests, beyond its posting arenas'
//! growth, stay under the length of the text. A bulk build packs each
//! chunk before it pulls the next wave of documents, so its live heap
//! peaks within the packed index plus a bound proportional to one wave.
//!
//! This file is its own test binary so the counting `#[global_allocator]`
//! (`support/counting_alloc.rs`) cannot skew other suites; all
//! assertions live in a single `#[test]` so parallel test threads
//! cannot pollute the counters.

use symphony_text::analysis::analyze_with;
use symphony_text::{Doc, Index, IndexConfig, Lexicon, SegmentPolicy, TokenScratch};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, allocations_and_bytes, live_bytes, peak_live_bytes};

#[test]
fn intern_is_amortized_and_lookup_is_allocation_free() {
    const N: usize = 10_000;
    // Materialize the inputs first so only the lexicon's own heap
    // traffic is counted.
    let terms: Vec<String> = (0..N).map(|i| format!("term{i:05}")).collect();

    let mut lex = Lexicon::new();
    let (fresh_allocs, ids) =
        allocations(|| terms.iter().map(|t| lex.intern(t)).collect::<Vec<_>>());
    assert_eq!(lex.len(), N);

    // The old representation paid >= 2 String allocations per fresh
    // term (2N total). The arena pays only amortized container growth:
    // doubling the arena, the span table, and the hash table each cost
    // O(log N) allocations. Leave generous slack, but stay far below
    // even one allocation per term.
    assert!(
        fresh_allocs < N / 10,
        "interning {N} fresh terms performed {fresh_allocs} allocations; \
         expected amortized growth only"
    );
    assert!(fresh_allocs >= 1, "growth must allocate at least once");

    // Re-interning every existing term is pure lookup: zero allocations.
    let (hit_allocs, _) = allocations(|| {
        for (t, &id) in terms.iter().zip(&ids) {
            assert_eq!(lex.intern(t), id);
        }
    });
    assert_eq!(hit_allocs, 0, "intern hits must not allocate");

    // Borrowed-key lookup never allocates — present or absent.
    let (get_allocs, _) = allocations(|| {
        for (t, &id) in terms.iter().zip(&ids) {
            assert_eq!(lex.get(t), Some(id));
        }
        assert_eq!(lex.get("never-interned"), None);
    });
    assert_eq!(get_allocs, 0, "Lexicon::get must not allocate");

    // Resolving ids back to strings borrows from the arena.
    let (term_allocs, _) = allocations(|| {
        for (t, &id) in terms.iter().zip(&ids) {
            assert_eq!(lex.term(id), t.as_str());
        }
    });
    assert_eq!(term_allocs, 0, "Lexicon::term must not allocate");

    // A fixed text set that takes every branch of the lean path:
    // uppercase ASCII (lowercased into scratch), stopwords, suffix
    // stems including a rewrite (`stories`), digits, punctuation and
    // non-ASCII words that are already lowercase (borrowed).
    let words: Vec<&str> =
        "Galactic RAIDERS the stories of Played games café 2010 naïve Running and shooter's lasers"
            .split(' ')
            .collect();
    let texts: Vec<String> = (0..200)
        .map(|i| {
            let doc: Vec<&str> = (0..12)
                .map(|j| words[(i * 7 + j * 3) % words.len()])
                .collect();
            doc.join(if i % 2 == 0 { " " } else { ", " })
        })
        .collect();
    let analyze = |scratch: &mut TokenScratch| {
        let mut tokens = 0usize;
        for text in &texts {
            analyze_with(text, scratch, |_, _, _, _| tokens += 1);
        }
        tokens
    };
    let mut scratch = TokenScratch::default();
    let warm = analyze(&mut scratch);
    let (analysis_allocs, tokens) = allocations(|| analyze(&mut scratch));
    assert!(tokens > 0 && tokens == warm);
    assert_eq!(
        analysis_allocs,
        0,
        "analyze_with allocated over {} warm documents",
        texts.len()
    );

    // The index write path over a small vocabulary: every posting list
    // exists after the warm-up, so adding documents and merging two
    // sealed segments only grow list arenas.
    let mut index = Index::new(IndexConfig::default());
    let body = index.register_field("body", 1.0);
    let vocab: Vec<String> = (0..40).map(|i| format!("word{i:02}")).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut texts = |n: usize| -> Vec<String> {
        (0..n)
            .map(|_| {
                let words: Vec<&str> = (0..24)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        vocab[(state % vocab.len() as u64) as usize].as_str()
                    })
                    .collect();
                words.join(" ")
            })
            .collect()
    };
    let postings = |index: &Index| -> usize {
        let lex = index.lexicon();
        lex.iter().map(|(id, _)| index.doc_freq(id, body)).sum()
    };
    for text in texts(200) {
        index.add(Doc::new().field(body, text));
    }
    let batch = texts(3_000);
    let text_bytes: usize = batch.iter().map(String::len).sum();
    let before = postings(&index);
    let arenas_before = index.stats().postings_bytes;
    let (allocs, bytes, ()) = allocations_and_bytes(|| {
        for text in &batch {
            index.add(Doc::new().field(body, text.as_str()));
        }
    });
    // The posting arenas grow by what the postings need (their
    // capacity, which the growth bytes telescope to); everything else
    // building and adding the batch requested must stay under the text
    // it borrowed, so no document copies its text.
    let arena_growth = index.stats().postings_bytes - arenas_before;
    let other_bytes = bytes - arena_growth;
    assert!(
        other_bytes < text_bytes,
        "building and adding {} borrowed documents requested {other_bytes} B \
         beyond the posting arenas' growth, no less than their {text_bytes} B \
         of text: a document copies its text",
        batch.len()
    );
    // Each document allocates its field list once; adding it must
    // only grow a few arenas per list.
    let add_allocs = allocs.saturating_sub(batch.len());
    let added = postings(&index) - before;
    assert!(
        add_allocs * 10 < added,
        "Index::add of warm documents performed {add_allocs} allocations for {added} postings"
    );
    index.seal();
    for text in texts(1_000) {
        index.add(Doc::new().field(body, text));
    }
    index.seal();
    let (merge_allocs, ()) = allocations(|| index.optimize());
    let merged = postings(&index);
    assert!(
        merge_allocs * 10 < merged,
        "merging two sealed segments performed {merge_allocs} allocations for {merged} postings"
    );

    bulk_build_holds_one_wave_raw();
}

/// A bulk build seals as it goes: each worker packs its chunk of
/// `memtable_max_docs` documents before the next wave is pulled, so the
/// build's heap peak stays within the finished, packed index plus a
/// bound proportional to one wave. A wave's raw postings and documents
/// take two to three times its text; the sealed chunks' per-list
/// directories, which compaction folds into one, add some more per
/// chunk. Six times one wave's text covers both at this chunk count
/// (the peak lands about three waves' text above the packed index).
/// Holding the whole batch raw until `optimize` peaks at about five
/// times the packed index here, far past the bound.
fn bulk_build_holds_one_wave_raw() {
    const CAP: usize = 256;
    const WORKERS: usize = 2;
    const CHUNKS: usize = 40;
    let mut index = Index::new(IndexConfig {
        policy: SegmentPolicy {
            memtable_max_docs: CAP as u32,
            ..SegmentPolicy::default()
        },
    });
    let body = index.register_field("body", 1.0);
    // Long documents over a small, skewed vocabulary: every chunk holds
    // every list, so the packed postings, not per-list overhead,
    // dominate each sealed chunk.
    let vocab: Vec<String> = (0..64).map(|i| format!("word{i:02}")).collect();
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let texts: Vec<String> = (0..CHUNKS * CAP)
        .map(|_| {
            let words: Vec<&str> = (0..80)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let r = (state % 1024) as usize;
                    vocab[r * r * vocab.len() / (1024 * 1024)].as_str()
                })
                .collect();
            words.join(" ")
        })
        .collect();
    let wave_text: usize = texts[..WORKERS * CAP].iter().map(String::len).sum();
    let start = live_bytes();
    let (peak, ids) = peak_live_bytes(|| {
        let stream = texts.iter().map(|t| Doc::new().field(body, t.as_str()));
        index.build_parallel(stream, WORKERS)
    });
    index.optimize();
    let kept = live_bytes() - start;
    assert_eq!(ids.len(), texts.len());
    assert!(
        peak < kept + 6 * wave_text,
        "building {CHUNKS} chunks of {CAP} docs on {WORKERS} workers peaked {peak} B above \
         the start, past the packed index's {kept} B plus six times one wave's \
         {wave_text} B of text: raw postings outlived their wave"
    );
}
