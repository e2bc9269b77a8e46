//! Allocation-count regression tests for the arena lexicon and the
//! streaming analysis chain.
//!
//! The pre-arena `HashMap<String, TermId>` lexicon allocated two
//! `String`s per first-sight intern (one map key, one id-to-term entry)
//! and one hashing-side allocation per borrowed lookup was only avoided
//! by accident of the raw-entry API not being used at all. The arena
//! representation must stay amortized: interning N fresh terms costs
//! O(log N) container growths, not O(N) allocations, and lookups cost
//! zero. `Analyzer::analyze_with`, the indexing hot path, borrows
//! every term from the text or from its reused scratch buffers, so once
//! a warm-up pass has grown those buffers a document costs zero
//! allocations. The index's write path stores each raw posting list
//! flat (doc ids, position end offsets and positions in three arenas),
//! so adding warm documents and merging sealed segments grow a few
//! arenas per list instead of allocating once per posting.
//!
//! This file is its own test binary so the counting `#[global_allocator]`
//! (`support/counting_alloc.rs`) cannot skew other suites; all
//! assertions live in a single `#[test]` so parallel test threads
//! cannot pollute the counters.

use symphony_text::{Analyzer, Doc, Index, IndexConfig, Lexicon, StandardAnalyzer, TokenScratch};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

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
    let analyzer = StandardAnalyzer::new();
    let analyze = |scratch: &mut TokenScratch| {
        let mut tokens = 0usize;
        for text in &texts {
            analyzer.analyze_with(text, scratch, &mut |_, _, _, _| tokens += 1);
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
    let mut docs = |n: usize| -> Vec<Doc> {
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
                Doc::new().field(body, words.join(" "))
            })
            .collect()
    };
    let postings = |index: &Index| -> usize {
        let lex = index.lexicon();
        lex.iter().map(|(id, _)| index.doc_freq(id, body)).sum()
    };
    for doc in docs(200) {
        index.add(doc);
    }
    let batch = docs(3_000);
    let before = postings(&index);
    let (add_allocs, ()) = allocations(|| {
        for doc in batch {
            index.add(doc);
        }
    });
    let added = postings(&index) - before;
    assert!(
        add_allocs * 10 < added,
        "Index::add of warm documents performed {add_allocs} allocations for {added} postings"
    );
    index.seal();
    for doc in docs(1_000) {
        index.add(doc);
    }
    index.seal();
    let (merge_allocs, ()) = allocations(|| index.optimize());
    let merged = postings(&index);
    assert!(
        merge_allocs * 10 < merged,
        "merging two sealed segments performed {merge_allocs} allocations for {merged} postings"
    );
}
