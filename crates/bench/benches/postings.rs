//! E-postings micro-benchmarks for the bit-packed posting format.
//!
//! `packed_decode`: full cursor walks and seek-heavy skip patterns over
//! bit-packed 128-doc blocks vs the raw (uncompressed) posting list —
//! the per-posting decode cost the packed format has to amortize away.
//!
//! `gallop_intersect`: conjunctive (`+a +b`) and phrase queries on the
//! optimized corpus, pruned vs exhaustive — the rarest-first galloping
//! intersection and the pruned phrase scorer are only reachable through
//! the pruned executor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use symphony_bench::{corpus, Scale};
use symphony_text::postings::{CompressedPostings, PostingList, NO_DOC};
use symphony_text::{Doc, DocId, Index, IndexConfig, Query, Searcher};

/// A synthetic posting list: `n` docs with a gap pattern wide enough to
/// spread across many blocks, a few positions per doc.
fn synthetic_list(n: u32) -> PostingList {
    let mut list = PostingList::new();
    let mut doc = 0u32;
    for i in 0..n {
        doc += 1 + (i % 7);
        for p in 0..(1 + i % 3) {
            list.push_occurrence(DocId(doc), p * 5 + i % 11);
        }
    }
    list
}

/// Reference encoding of the pre-packed sealed format: per posting, a
/// delta-varint doc id, a varint tf, then the position varints inline —
/// so walking docs had to skip every posting's position bytes.
fn varint_stream(list: &PostingList) -> Vec<u8> {
    fn push(out: &mut Vec<u8>, mut v: u32) {
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
    let mut out = Vec::new();
    let mut prev = 0u32;
    for p in list.postings() {
        push(&mut out, p.doc.0 - prev);
        prev = p.doc.0;
        push(&mut out, p.positions.len() as u32);
        let mut pp = 0u32;
        for &pos in &p.positions {
            push(&mut out, pos - pp);
            pp = pos;
        }
    }
    out
}

#[inline]
fn read_varint(data: &[u8], at: &mut usize) -> u32 {
    let mut v = 0u32;
    let mut shift = 0u32;
    loop {
        let b = data[*at];
        *at += 1;
        v |= u32::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

fn bench_packed_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("packed_decode");
    let list = synthetic_list(100_000);
    // The walk reads no lengths; every document is one token long.
    let lens = vec![1; list.postings().last().map_or(0, |p| p.doc.as_usize() + 1)];
    let packed = CompressedPostings::encode(&list, &lens);
    let varint = varint_stream(&list);

    group.bench_function(BenchmarkId::new("walk", "varint"), |b| {
        b.iter(|| {
            let mut at = 0usize;
            let mut doc = 0u32;
            let mut acc = 0u64;
            while at < varint.len() {
                doc += read_varint(&varint, &mut at);
                let tf = read_varint(&varint, &mut at);
                for _ in 0..tf {
                    read_varint(&varint, &mut at);
                }
                acc += u64::from(doc) + u64::from(tf);
            }
            acc
        });
    });

    group.bench_function(BenchmarkId::new("walk", "packed"), |b| {
        b.iter(|| {
            let mut cur = packed.cursor();
            let mut acc = 0u64;
            while cur.doc() != NO_DOC {
                acc += u64::from(cur.doc()) + u64::from(cur.tf());
                cur.next();
            }
            acc
        });
    });
    group.bench_function(BenchmarkId::new("walk", "raw"), |b| {
        b.iter(|| {
            let mut cur = list.cursor();
            let mut acc = 0u64;
            while cur.doc() != NO_DOC {
                acc += u64::from(cur.doc()) + u64::from(cur.tf());
                cur.next();
            }
            acc
        });
    });

    // Seek-heavy: long strides so the block directory (packed) and the
    // in-list binary search (raw) both skip most postings.
    let last = list.postings().last().unwrap().doc.0;
    group.bench_function(BenchmarkId::new("seek", "packed"), |b| {
        b.iter(|| {
            let mut cur = packed.cursor();
            let mut acc = 0u64;
            let mut target = 0u32;
            while cur.doc() != NO_DOC {
                target = (target + 997).min(last + 1);
                cur.seek(target);
                acc += u64::from(cur.doc());
                if target > last {
                    break;
                }
            }
            acc
        });
    });
    group.bench_function(BenchmarkId::new("seek", "raw"), |b| {
        b.iter(|| {
            let mut cur = list.cursor();
            let mut acc = 0u64;
            let mut target = 0u32;
            while cur.doc() != NO_DOC {
                target = (target + 997).min(last + 1);
                cur.seek(target);
                acc += u64::from(cur.doc());
                if target > last {
                    break;
                }
            }
            acc
        });
    });
    group.finish();
}

fn bench_gallop_intersect(c: &mut Criterion) {
    let mut group = c.benchmark_group("gallop_intersect");
    group.sample_size(60);
    let pages = corpus(Scale::Large);
    let mut index = Index::new(IndexConfig::default());
    let title = index.register_field("title", 2.0);
    let body = index.register_field("body", 1.0);
    for p in &pages.pages {
        index.add(Doc::new().field(title, &*p.title).field(body, &*p.body));
    }
    index.optimize();

    let conjunctions: Vec<Query> = [
        "+game +review",
        "+game +player +level",
        "+best +guide today",
    ]
    .iter()
    .map(|q| Query::parse(q))
    .collect();
    let phrases: Vec<Query> = [
        "\"game review\"",
        "\"best game\" player",
        "+\"game review\" +player",
    ]
    .iter()
    .map(|q| Query::parse(q))
    .collect();

    for (shape, queries) in [("conjunction", &conjunctions), ("phrase", &phrases)] {
        for (variant, reference) in [("pruned", false), ("exhaustive", true)] {
            group.bench_with_input(BenchmarkId::new(shape, variant), &index, |b, index| {
                let searcher = Searcher::new(index);
                let mut i = 0usize;
                b.iter(|| {
                    let q = &queries[i % queries.len()];
                    i += 1;
                    if reference {
                        searcher.search_exhaustive(q, 10, |_| true)
                    } else {
                        searcher.search(q, 10)
                    }
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_packed_decode, bench_gallop_intersect);
criterion_main!(benches);
