//! Index memory-footprint accounting: `Index::bytes_estimate()` must
//! reflect the packed representation, and the packed posting format
//! plus arena lexicon must be smaller than the varint-per-posting and
//! two-`String`s-per-term baseline they replaced.

use symphony_text::postings::PostingList;
use symphony_text::{Doc, Index, IndexConfig};

/// Append `v` as a LEB128 varint — the old per-posting codec.
fn varint_push(out: &mut Vec<u8>, mut v: u32) {
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

/// Byte size of a posting list under the pre-packed varint layout:
/// per posting, a delta-varint doc id, a varint tf, then delta-varint
/// positions.
fn varint_baseline_len(list: &PostingList) -> usize {
    let mut out = Vec::new();
    let mut prev_doc = 0u32;
    for (doc, positions) in list.iter() {
        varint_push(&mut out, doc.0 - prev_doc);
        prev_doc = doc.0;
        varint_push(&mut out, positions.len() as u32);
        let mut prev_pos = 0u32;
        for &pos in positions {
            varint_push(&mut out, pos - prev_pos);
            prev_pos = pos;
        }
    }
    out.len()
}

/// Deterministic pseudo-text: Zipf-ish draws from a fixed vocabulary so
/// common terms grow long, dense posting lists (where bit packing pays)
/// and rare terms stay short.
fn corpus(docs: usize) -> Vec<(String, String)> {
    const VOCAB: &[&str] = &[
        "the", "search", "engine", "index", "query", "score", "block", "packed", "cursor",
        "phrase", "term", "arena", "segment", "merge", "wine", "auction", "laser", "orbit",
        "probe", "quartz", "zephyr", "willow", "harbor", "signal",
    ];
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut word = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        // Square the draw so low indexes (common words) dominate.
        let r = (state >> 11) as f64 / (1u64 << 53) as f64;
        VOCAB[((r * r) * VOCAB.len() as f64) as usize % VOCAB.len()]
    };
    (0..docs)
        .map(|_| {
            let title: Vec<&str> = (0..3).map(|_| word()).collect();
            let body: Vec<&str> = (0..30).map(|_| word()).collect();
            (title.join(" "), body.join(" "))
        })
        .collect()
}

#[test]
fn packed_index_is_smaller_than_varint_baseline() {
    let mut idx = Index::new(IndexConfig::default());
    let title = idx.register_field("title", 2.0);
    let body = idx.register_field("body", 1.0);
    for (t, b) in corpus(400) {
        idx.add(Doc::new().field(title, t).field(body, b));
    }
    idx.optimize();

    let mut packed_postings = 0usize;
    let mut varint_postings = 0usize;
    for (term, _) in idx.lexicon().iter() {
        for field in [title, body] {
            if let Some(c) = idx.compacted_postings(term, field) {
                packed_postings += c.heap_bytes();
                varint_postings += varint_baseline_len(&c.decode());
            }
        }
    }
    assert!(packed_postings > 0, "corpus must produce postings");

    // Old lexicon: HashMap<String, TermId> keyed by an owned String
    // plus a Vec<String> id-to-term column — two String headers and two
    // byte copies per term, plus the map's (hash, key, value) entry.
    let string_header = std::mem::size_of::<String>();
    let varint_lexicon: usize = idx
        .lexicon()
        .iter()
        .map(|(_, t)| 2 * (string_header + t.len()) + std::mem::size_of::<(u64, u32)>())
        .sum();

    let packed_core = packed_postings + idx.lexicon().heap_bytes();
    let varint_core = varint_postings + varint_lexicon;
    assert!(
        packed_core < varint_core,
        "packed postings + arena lexicon ({packed_core} B) must undercut \
         the varint + owned-String baseline ({varint_core} B)"
    );

    // The accessor must account for at least the postings and lexicon
    // it reports on, plus the stored columns on top.
    let estimate = idx.bytes_estimate();
    assert!(
        estimate >= packed_core,
        "bytes_estimate ({estimate}) must cover postings + lexicon ({packed_core})"
    );
    let stored = estimate - packed_postings - idx.lexicon().heap_bytes();
    assert!(stored > 0, "stored columns must contribute to the estimate");
    assert!(
        estimate < varint_core + stored,
        "bytes_estimate ({estimate}) must beat the varint baseline plus \
         the same stored columns ({})",
        varint_core + stored
    );
}

#[test]
fn bytes_estimate_tracks_growth_and_optimize() {
    let mut idx = Index::new(IndexConfig::default());
    let body = idx.register_field("body", 1.0);
    let empty = idx.bytes_estimate();
    for (t, b) in corpus(100) {
        idx.add(Doc::new().field(body, format!("{t} {b}")));
    }
    let grown = idx.bytes_estimate();
    assert!(grown > empty, "adding docs must grow the estimate");
    idx.optimize();
    let optimized = idx.bytes_estimate();
    assert!(
        optimized < grown,
        "optimize must shrink the estimate (raw {grown} B -> packed {optimized} B)"
    );
}
