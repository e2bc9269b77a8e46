//! Work guard for pruning on a live index: candidates, not clocks.
//!
//! `search_filtered_with_threshold`'s closure is called once per
//! candidate that survives the executor's block-max window skip (and
//! `search_exhaustive`'s once per matching document), so a counting
//! closure *is* the candidate counter — no hook in the product code.
//! Every figure is a count over a fixed corpus and query list and
//! repeats exactly on any host.
//!
//! The same 4 064 documents are laid out four ways: `compact` (one
//! sealed segment), `live` (4 000 sealed, then 64 short, dense ones in
//! the memtable that share every query's terms), `five` (five sealed
//! segments) and `fresh` (nothing sealed: every query term's list is
//! a memtable list of six blocks or more). A live or multi-segment
//! index must prune about as well as the compact one — within a
//! quarter, plus one visit per document of `live`'s memtable — and
//! never fall back to visiting what the exhaustive executor visits. Those two inequalities are the
//! contract; [`CANDIDATES`] additionally pins today's exact counts, as
//! ROADMAP item 3a's zero-variance cells do: a change that moves one
//! re-baselines the row in the same commit and says why (a threshold
//! dropped at a segment boundary heals after one candidate, so only
//! the exact row can see it).
//!
//! At the parent commit (daf6307) every term that also sat in the
//! memtable had an infinite bound, so the live count *was* the
//! exhaustive one, query for query: 3 643 / 3 235 / 3 802 / 2 934 /
//! 2 392 against the compact index's 1 436 / 946 / 1 284 / 971 /
//! 1 061 (its five-segment counts were the ones pinned below).
//!
//! Block bounds from each block's own `(tf, length)` peaks then moved
//! every pruned row down; at parent commit 6fc6ed0, whose block bound
//! paired the block's largest tf with the list's smallest length, the
//! rows read (compact, live, five) 1 436 / 1 436 / 1 436, 946 ×3,
//! 1 284 ×3, 971 / 971 / 926 and 1 061 ×3. [`CATALOG`] pins the same
//! effect on a catalog-shaped list, and [`PHRASES`] / [`MUST_PHRASE`]
//! count the executor's work on phrase queries.
//!
//! Scoring a window at a time then moved every pruned row up. At
//! parent commit 2cff7e1, a per-candidate loop, the rows read
//! 1 436 / 1 431 / 1 419, 930 ×3, 1 038 / 1 038 / 980, 874 ×3 and
//! 1 051 ×3. Two reasons, both the price of a cheaper loop per
//! candidate. First, a window is skipped only when the block bounds of
//! *every* essential cursor inside it, plus the non-essential mass,
//! cannot reach the threshold; the old skip at a candidate counted
//! only the cursors sitting on that doc, so it also ruled out docs
//! whose own lists fell short while another list's block did not.
//! Second, the essential partition is fixed when a
//! window opens, so a threshold raised inside the window prunes from
//! the next window on. The phrase rows moved for the first reason
//! (`"w1 w0" w3 w7`: 1 803) and against it (`"w0 w9" w5`: 1 421 → 450):
//! an essential phrase verifies its members while it fills the window,
//! so only verified matches reach the filter, where the old loop put
//! every co-occurrence to it first. The catalog and `+` phrase rows
//! did not move: a one-term query has nothing else in its windows, and
//! a gate drives one candidate at a time, as before. [`WEB`] pins a
//! web-shaped query, several terms at a result pool's depth.
//!
//! A cursor on a memtable list then came to read it a block at a time,
//! with each block's own peaks, as it reads a sealed list. At parent
//! commit db182a5 a memtable list was one block bounded by its
//! list-wide maximum, so no window inside the memtable was ever
//! skipped, and `fresh` (not pinned then) read 1 692 / 1 189 / 1 595 /
//! 1 158 / 1 206. Its lists now carve into the same blocks with the
//! same peaks as the compact index's, and its row reads the compact
//! one. No other row moved: `live`'s memtable lists hold 64 documents,
//! one partial block, which was the whole list before as well.
//!
//! The window ceiling then became exact: un-inflated bounds, so a
//! window whose documents can at most tie the threshold is skipped.
//! None of the rows above moved — their lengths and tfs vary, so
//! their windows rarely top out at an exact tie — and [`TIES`] pins a
//! catalog where they all do.

use std::cell::Cell;

use symphony_text::postings::BLOCK_SIZE;
use symphony_text::{Doc, DocId, FieldId, Index, IndexConfig, Query, Searcher};

const SEALED_DOCS: u32 = 4_000;
const MEMTABLE_DOCS: u32 = 64;
const K: usize = 10;

const QUERIES: [&str; 5] = [
    "w0 w9",
    "w1 w5 w30",
    "w0 w3 w17 w44",
    "w12 w2 w50",
    "w4 w4 w21",
];

/// Candidates per query of [`QUERIES`]: exhaustive (any layout), then
/// the pruned executor on `compact`, `live`, `five` and `fresh`.
const CANDIDATES: [[usize; 5]; 5] = [
    [3_643, 1_493, 1_488, 1_476, 1_493],
    [3_235, 1_000, 1_000, 1_000, 1_000],
    [3_802, 1_420, 1_420, 1_337, 1_420],
    [2_934, 1_128, 1_128, 1_073, 1_128],
    [2_392, 1_118, 1_118, 1_118, 1_118],
];

/// A splitmix64 stream: the corpus must not depend on any crate's RNG.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Document `i` of the fixed corpus. The first [`SEALED_DOCS`] are
/// 4–40 tokens over a 60-word vocabulary with a skewed
/// (squared-uniform) rank distribution, so lists range from a few
/// dozen to a few thousand documents and tf and length both vary. The
/// last [`MEMTABLE_DOCS`] are what a crawl adds: short and dense, one
/// of the queries' words three times over — they rank, and they carry
/// the loosest bound ingredients in the corpus.
fn body(i: u32) -> String {
    if i >= SEALED_DOCS {
        let words: Vec<&str> = QUERIES.iter().flat_map(|q| q.split_whitespace()).collect();
        let word = words[i as usize % words.len()];
        return format!("{word} {word} {word} fresh");
    }
    let mut state = u64::from(i).wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x5eed;
    let len = 4 + next(&mut state) % 37;
    let words: Vec<String> = (0..len)
        .map(|_| {
            let u = (next(&mut state) % 10_000) as f64 / 10_000.0;
            format!("w{}", (u * u * 60.0) as u32)
        })
        .collect();
    words.join(" ")
}

/// The corpus with a seal after each of `seal_after`'s doc counts.
fn index(seal_after: &[u32]) -> (Index, FieldId) {
    let mut idx = Index::new(IndexConfig::default());
    let field = idx.register_field("body", 1.0);
    for i in 0..SEALED_DOCS + MEMTABLE_DOCS {
        idx.add(Doc::new().field(field, body(i)));
        if seal_after.contains(&(i + 1)) {
            idx.seal();
        }
    }
    (idx, field)
}

/// Which executor [`candidates`] runs.
#[derive(Clone, Copy)]
enum Executor {
    /// The term-at-a-time reference, `Searcher::search_exhaustive`.
    Reference,
    /// The pruned executor every query is served by.
    Serving,
}
use Executor::{Reference, Serving};

/// Candidates the executor put to the filter for `query` at depth
/// `k`, and its hits.
fn candidates(
    idx: &Index,
    executor: Executor,
    query: &str,
    k: usize,
) -> (usize, Vec<(DocId, u32)>) {
    let seen = Cell::new(0usize);
    let count = |_: DocId| {
        seen.set(seen.get() + 1);
        true
    };
    let (searcher, query) = (Searcher::new(idx), Query::parse(query));
    let hits = match executor {
        Reference => searcher.search_exhaustive(&query, k, count),
        Serving => searcher.search_filtered_with_threshold(&query, k, count).0,
    };
    let hits = hits.iter().map(|h| (h.doc, h.score.to_bits())).collect();
    (seen.get(), hits)
}

#[test]
fn a_live_index_prunes_like_a_sealed_one() {
    let total = SEALED_DOCS + MEMTABLE_DOCS;
    let (mut compact, _) = index(&[]);
    compact.optimize();
    let (live, field) = index(&[SEALED_DOCS]);
    let fifth = total / 5;
    let (five, _) = index(&[fifth, 2 * fifth, 3 * fifth, 4 * fifth, total]);
    let (fresh, _) = index(&[]);
    assert_eq!(live.stats().memtable_docs, MEMTABLE_DOCS as usize);
    assert_eq!(
        (live.stats().sealed_segments, five.stats().sealed_segments),
        (1, 5)
    );
    assert_eq!(five.stats().memtable_docs, 0);
    assert_eq!(
        (fresh.stats().sealed_segments, fresh.stats().memtable_docs),
        (0, total as usize)
    );

    for (query, pinned) in QUERIES.into_iter().zip(CANDIDATES) {
        // The guard is about queries whose terms the memtable shares.
        for word in query.split_whitespace() {
            let term = live.lexicon().get(word).unwrap();
            let mut in_memtable = 0;
            live.for_each_posting(term, field, |doc, _| {
                in_memtable += u32::from(doc.0 >= SEALED_DOCS)
            });
            assert!(in_memtable > 0, "{word} must occur in the memtable");
            let term = fresh.lexicon().get(word).unwrap();
            assert!(
                fresh.doc_freq(term, field) > 5 * BLOCK_SIZE,
                "{word} must span six memtable blocks"
            );
        }
        let (exhaustive, want) = candidates(&compact, Reference, query, K);
        let (base, hits) = candidates(&compact, Serving, query, K);
        assert_eq!(hits, want, "{query}: compact");
        let allowed = base + base / 4 + MEMTABLE_DOCS as usize;
        let mut counts = vec![exhaustive, base];
        for (name, idx) in [("live", &live), ("five", &five), ("fresh", &fresh)] {
            let (seen, hits) = candidates(idx, Serving, query, K);
            assert_eq!(hits, want, "{query}: {name}");
            counts.push(seen);
            assert!(
                seen <= allowed,
                "{query}: {name} index considered {seen} candidates, compact {base} (allowed {allowed})"
            );
            assert!(
                2 * seen < exhaustive,
                "{query}: {name} index considered {seen} of the exhaustive {exhaustive}"
            );
        }
        assert_eq!(
            counts, pinned,
            "{query}: exhaustive, compact, live, five, fresh"
        );
    }
}

/// Catalog rows: a compact index of [`CATALOG_ROWS`] short bodies, 9–16
/// words drawn from a Zipf(1) law over [`CATALOG_VOCAB`] words — the
/// shape of a product catalog's descriptions. The query's word is on
/// most rows, one list spanning dozens of blocks, and every 128-doc
/// block holds a shortest body: a block bound from the block's largest
/// tf and the list's smallest length equals the list bound and never
/// skips, one from the block's own `(tf, length)` peaks does.
const CATALOG_ROWS: u32 = 8_000;
const CATALOG_VOCAB: usize = 400;
const CATALOG_QUERY: &str = "c0";

/// `(exhaustive, pruned)` candidates of [`CATALOG_QUERY`]. With the
/// block bound at `(block max tf, list min length)` and every scored
/// candidate pushed onto the heap (parent commit 6fc6ed0) the pruned
/// executor considered 6 272.
const CATALOG: (usize, usize) = (6_862, 4_224);

fn catalog() -> Index {
    let mut idx = Index::new(IndexConfig::default());
    let field = idx.register_field("body", 1.0);
    // Cumulative Zipf(1) weights, drawn by inverse CDF.
    let cdf: Vec<f64> = (1..=CATALOG_VOCAB)
        .scan(0.0, |acc, r| {
            *acc += 1.0 / r as f64;
            Some(*acc)
        })
        .collect();
    let total = cdf[CATALOG_VOCAB - 1];
    for i in 0..CATALOG_ROWS {
        let mut state = u64::from(i).wrapping_mul(0x9e6c_63d0_676a_9a99) ^ 0xca7a;
        let len = 9 + next(&mut state) % 8;
        let words: Vec<String> = (0..len)
            .map(|_| {
                let u = (next(&mut state) >> 11) as f64 / (1u64 << 53) as f64 * total;
                format!("c{}", cdf.partition_point(|&c| c <= u))
            })
            .collect();
        idx.add(Doc::new().field(field, words.join(" ")));
    }
    idx.optimize();
    idx
}

#[test]
fn a_catalog_query_skips_blocks() {
    let idx = catalog();
    let field = idx.field_id("body").unwrap();
    let term = idx.lexicon().get(CATALOG_QUERY).unwrap();
    assert!(
        idx.doc_freq(term, field) > 40 * 128,
        "one list, dozens of blocks"
    );
    let (exhaustive, want) = candidates(&idx, Reference, CATALOG_QUERY, K);
    let (pruned, hits) = candidates(&idx, Serving, CATALOG_QUERY, K);
    assert_eq!(hits, want);
    assert!(
        5 * pruned <= 4 * 6_272,
        "{pruned} candidates: not 20 % under 6 272"
    );
    assert_eq!((exhaustive, pruned), CATALOG);
}

/// A web-shaped query on the catalog corpus: three words of falling
/// frequency, OR-ed, at a result pool's depth, with its `(query,
/// depth, reference, serving)` candidates. Several lists share every
/// window, so this is the shape that pays the window ceiling's price:
/// the per-candidate loop of parent commit 2cff7e1 considered 887.
const WEB: (&str, usize, usize, usize) = ("c1 c6 c25", 40, 5_885, 979);

#[test]
fn a_web_query_prunes_at_pool_depth() {
    let idx = catalog();
    let (query, depth, reference, serving) = WEB;
    let (r, want) = candidates(&idx, Reference, query, depth);
    let (s, hits) = candidates(&idx, Serving, query, depth);
    assert_eq!(hits, want, "{query}");
    assert_eq!(hits.len(), depth);
    assert!(s < r, "{query}: serving considered {s}, the reference {r}");
    assert_eq!((r, s), (reference, serving), "{query}: reference, serving");
}

/// Phrase queries on the compact layout: `(query, reference, serving)`
/// candidates. A phrase that shares its query with terms is one more
/// MaxScore scorer, so the serving executor skips what cannot reach
/// the top ten and puts fewer candidates to the filter than the
/// reference has matching documents.
const PHRASES: [(&str, usize, usize); 2] = [
    ("\"w1 w0\" w3 w7", 2_826, 2_519),
    ("\"w0 w9\" w5", 1_904, 450),
];

/// A `+` phrase gates membership instead, and nothing is skipped under
/// a gate: the serving executor puts every document holding all the
/// phrase's words to the filter, then verifies positions, while the
/// reference calls the filter on verified matches only. So the guard
/// is that the serving count *is* that conjunction — the should term's
/// list adds nothing — with `(query, words, reference, serving)`.
const MUST_PHRASE: (&str, [&str; 2], usize, usize) = ("+\"w0 w9\" w2", ["w0", "w9"], 212, 1_322);

#[test]
fn phrases_prune_and_must_phrases_gate() {
    let (mut idx, field) = index(&[]);
    idx.optimize();
    for (query, reference, serving) in PHRASES {
        let (r, want) = candidates(&idx, Reference, query, K);
        let (s, hits) = candidates(&idx, Serving, query, K);
        assert_eq!(hits, want, "{query}");
        assert!(s < r, "{query}: serving considered {s}, the reference {r}");
        assert_eq!((r, s), (reference, serving), "{query}: reference, serving");
    }

    let (query, words, reference, serving) = MUST_PHRASE;
    let docs = |word: &str| {
        let mut out = Vec::new();
        let term = idx.lexicon().get(word).unwrap();
        idx.for_each_posting(term, field, |doc, _| out.push(doc));
        out
    };
    let second = docs(words[1]);
    let members = docs(words[0]).iter().filter(|d| second.contains(d)).count();
    let (r, want) = candidates(&idx, Reference, query, K);
    let (s, hits) = candidates(&idx, Serving, query, K);
    assert_eq!(hits, want, "{query}");
    assert_eq!(s, members, "{query}: serving visits the phrase's members");
    assert_eq!((r, s), (reference, serving), "{query}: reference, serving");
}

/// A catalog of exact ties: `n` rows whose bodies are all eight words
/// long, every other one holding [`TIE_QUERY`] once. Every matching
/// row scores the same, so once ten of them fill the heap every later
/// window's ceiling equals the threshold, and a tie loses to the
/// heap's smaller ids.
const TIE_QUERY: &str = "t";

fn ties(n: u32) -> Index {
    let mut idx = Index::new(IndexConfig::default());
    let field = idx.register_field("body", 1.0);
    for i in 0..n {
        let first = if i % 2 == 0 { TIE_QUERY } else { "u" };
        let body = format!("{first} p{} q{} r s v w x", i % 7, i % 11);
        idx.add(Doc::new().field(field, body));
    }
    idx.optimize();
    idx
}

/// `(n, reference, serving)` candidates of [`TIE_QUERY`] on
/// [`ties`]`(n)`. Before window ceilings were exact, every window of
/// the list was filled and scored, so the serving count was the
/// reference's, n / 2.
const TIES: [(u32, usize, usize); 2] = [(2_000, 1_000, 128), (8_000, 4_000, 128)];

#[test]
fn a_tie_heavy_query_visits_no_more_as_the_catalog_grows() {
    for (n, reference, serving) in TIES {
        let idx = ties(n);
        let (r, want) = candidates(&idx, Reference, TIE_QUERY, K);
        let (s, hits) = candidates(&idx, Serving, TIE_QUERY, K);
        assert_eq!(hits, want, "{n} rows");
        assert_eq!((r, s), (reference, serving), "{n} rows: reference, serving");
    }
    assert_eq!(TIES[0].2, TIES[1].2, "four times the rows, the same visits");
}
