//! Allocation-count guards for the web result path: what a result page
//! costs in heap traffic must not depend on how much text a snippet is
//! cut from, nor on how many documents the executor walks past under a
//! site restriction.
//!
//! The counts repeat exactly from run to run, so the comparisons are
//! equalities, not thresholds. This file is its own test binary (the
//! counting `#[global_allocator]` is shared with `symphony-text`'s
//! `tests/alloc.rs`) and keeps every counted region in one `#[test]`,
//! on one thread.

use symphony_text::snippet::SnippetGenerator;
use symphony_web::{Corpus, CorpusConfig, SearchConfig, SearchEngine, Topic, Vertical};

#[path = "../../textindex/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

fn engine(pages_per_site: usize) -> SearchEngine {
    // Sites are drawn before pages, so both sizes share one site table
    // and an allow-list selects the same sites in each.
    let cfg = CorpusConfig {
        sites_per_topic: 6,
        pages_per_site,
        ..CorpusConfig::default()
    }
    .with_entities(Topic::Games, ["Galactic Raiders"]);
    SearchEngine::with_build_threads(Corpus::generate(&cfg), 1)
}

#[test]
fn result_page_allocations_do_not_scale_with_text_or_candidates() {
    // ---- snippet(): constant in the length of the text -------------
    let snippeter = SnippetGenerator::new(&["space", "Shooters"]);
    let sentence = "A thrilling Space shooter for everyone, <b>bold</b> & loud; ";
    let short = sentence.repeat(4);
    let long = sentence.repeat(400);
    let (short_allocs, short_snippet) = allocations(|| snippeter.snippet(&short));
    let (long_allocs, long_snippet) = allocations(|| snippeter.snippet(&long));
    assert!(short_snippet.contains("<b>Space</b> <b>shooter</b>"));
    assert_eq!(
        short_allocs, long_allocs,
        "snippet() allocations grew with the text: {} bytes -> {short_allocs}, {} bytes -> {long_allocs}",
        short.len(),
        long.len()
    );
    assert!(
        long_allocs <= 8,
        "snippet() made {long_allocs} allocations; expected the token vector, \
         the per-term counts, the output and a little scratch"
    );
    assert_eq!(
        short_snippet, long_snippet,
        "same leading window either way"
    );

    // ---- site-restricted search: constant in candidates visited ----
    let small = engine(6);
    let large = engine(24);
    let docs = |e: &SearchEngine| e.doc_count(Vertical::Web);
    assert!(docs(&large) >= 3 * docs(&small));
    let k = 3;
    for (what, allow) in [
        // Two sites of forty-odd: a sparse set, mounted as a gate.
        ("two sites", vec!["gamespot.com", "ign.com"]),
        // Every generic site: a dense set, probed per candidate.
        ("most sites", vec!["example.com"]),
    ] {
        let config = SearchConfig::default().restrict_to(allow);
        let count = |e: &SearchEngine| {
            let (allocs, page) = allocations(|| e.search(Vertical::Web, "game review", &config, k));
            assert_eq!(page.len(), k, "{what}: a full page on either corpus");
            allocs
        };
        let (on_small, on_large) = (count(&small), count(&large));
        assert_eq!(
            on_small,
            on_large,
            "{what}: restricted search allocations grew with the corpus \
             ({} docs -> {on_small}, {} docs -> {on_large})",
            docs(&small),
            docs(&large)
        );
    }
}
