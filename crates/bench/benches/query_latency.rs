//! E4: BM25 top-k query latency against corpus size, raw vs
//! compressed postings (the decode cost of the E3 space win).
//!
//! E-topk: MaxScore pruned execution vs exhaustive scoring at
//! k ∈ {10, 100} on the optimized default corpus.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use symphony_bench::{corpus, zipf_queries, Scale};
use symphony_text::{Doc, Index, IndexConfig, Query, Searcher};

fn build_index(scale: Scale, optimize: bool) -> Index {
    let corpus = corpus(scale);
    let mut index = Index::new(IndexConfig::default());
    let title = index.register_field("title", 2.0);
    let body = index.register_field("body", 1.0);
    for p in &corpus.pages {
        index.add(Doc::new().field(title, &*p.title).field(body, &*p.body));
    }
    if optimize {
        index.optimize();
    }
    index
}

fn bench_query_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_query_latency");
    group.sample_size(20);
    let queries: Vec<Query> = zipf_queries(32, 1.0, 23)
        .iter()
        .map(|q| Query::parse(q))
        .collect();
    for scale in [Scale::Small, Scale::Medium, Scale::Large] {
        for (variant, optimize) in [("raw", false), ("compressed", true)] {
            let index = build_index(scale, optimize);
            group.bench_with_input(
                BenchmarkId::new(variant, scale.label()),
                &index,
                |b, index| {
                    let searcher = Searcher::new(index);
                    let mut i = 0usize;
                    b.iter(|| {
                        let q = &queries[i % queries.len()];
                        i += 1;
                        searcher.search(q, 10)
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_topk_pruning(c: &mut Criterion) {
    let mut group = c.benchmark_group("etopk_pruned_vs_exhaustive");
    // Query latency is microseconds; a few hundred iterations keep the
    // mean stable. CI's CRITERION_SAMPLE_SIZE=1 caps this for smoke.
    group.sample_size(400);
    let queries: Vec<Query> = zipf_queries(32, 1.0, 23)
        .iter()
        .map(|q| Query::parse(q))
        .collect();
    // Multi-term-only slice: single-term queries have no intersection
    // or non-essential terms to prune, so they dilute the signal the
    // packed-block + MaxScore work targets.
    let multi: Vec<Query> = zipf_queries(64, 1.0, 23)
        .iter()
        .filter(|q| q.split_whitespace().count() >= 2)
        .map(|q| Query::parse(q))
        .collect();
    let index = build_index(Scale::Large, true);
    for k in [10usize, 100] {
        for (variant, reference) in [("pruned", false), ("exhaustive", true)] {
            group.bench_with_input(
                BenchmarkId::new(variant, format!("k{k}")),
                &index,
                |b, index| {
                    let searcher = Searcher::new(index);
                    let mut i = 0usize;
                    b.iter(|| {
                        let q = &queries[i % queries.len()];
                        i += 1;
                        if reference {
                            searcher.search_exhaustive(q, k, |_| true)
                        } else {
                            searcher.search(q, k)
                        }
                    });
                },
            );
        }
    }
    group.bench_with_input(
        BenchmarkId::new("pruned-multi", "k10"),
        &index,
        |b, index| {
            let searcher = Searcher::new(index);
            let mut i = 0usize;
            b.iter(|| {
                let q = &multi[i % multi.len()];
                i += 1;
                searcher.search(q, 10)
            });
        },
    );
    group.finish();
}

criterion_group!(benches, bench_query_latency, bench_topk_pruning);
criterion_main!(benches);
