//! Positional posting lists.
//!
//! Two representations are provided:
//!
//! * [`PostingList`] — the mutable, indexing-time representation: a
//!   doc-ordered `Vec` of postings, each carrying its positions.
//! * [`CompressedPostings`] — an immutable bit-packed byte stream
//!   produced by [`Index::optimize`](crate::Index::optimize), carved
//!   into blocks of [`BLOCK_SIZE`] documents. Within a block, doc-id
//!   deltas and term frequencies are packed at the minimal fixed bit
//!   width for that block (chosen per block from its largest delta and
//!   largest `tf - 1`), so a whole block unpacks with one branchless
//!   fixed-width loop into the cursor's block buffer. Positions live in
//!   a separate varint stream addressed per block, so doc/tf decoding
//!   never touches position bytes and positional access skips straight
//!   to the enclosing block. Per-block metadata (last doc id, entry
//!   base, byte offsets, bit widths, score peaks) lets a
//!   [`PostingsCursor`] skip whole blocks during [`PostingsCursor::seek`]
//!   without decoding them.
//!
//! The memtable holds raw lists; sealing a segment packs every one of
//! them. The query executor opens a [`PostingsCursor`] per list (`doc`
//! / `next` / `seek`) over either form and materializes positions only
//! on demand ([`PostingsCursor::positions`]) for phrase verification.
//! The term-at-a-time reference walks whole lists through callbacks
//! ([`CompressedPostings::for_each`] on a packed list), which sidestep
//! lending-iterator gymnastics and decode without allocating.

use crate::DocId;

/// Documents per skip block in [`CompressedPostings`].
pub const BLOCK_SIZE: usize = 128;

/// Sentinel doc value a [`PostingsCursor`] reports once exhausted.
/// Real doc ids are dense from zero, so `u32::MAX` is never a valid
/// document in any index this substrate can build.
pub const NO_DOC: u32 = u32::MAX;

/// One document's entry in a posting list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Posting {
    /// The document.
    pub doc: DocId,
    /// Term positions within the field, strictly increasing. The term
    /// frequency is `positions.len()`.
    pub positions: Vec<u32>,
}

/// Mutable doc-ordered posting list.
#[derive(Debug, Default, Clone)]
pub struct PostingList {
    postings: Vec<Posting>,
    /// Largest term frequency among `postings`, kept as the list is
    /// written so a memtable list has its score-bound ingredient
    /// without a walk.
    max_tf: u32,
}

impl PostingList {
    /// Empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an occurrence of the term in `doc` at `position`.
    ///
    /// Documents must be added in increasing doc-id order (the index
    /// guarantees this: doc ids are assigned at insertion).
    pub fn push_occurrence(&mut self, doc: DocId, position: u32) {
        match self.postings.last_mut() {
            Some(last) if last.doc == doc => {
                last.positions.push(position);
                self.max_tf = self.max_tf.max(last.positions.len() as u32);
            }
            _ => self.push_posting(doc, &[position]),
        }
    }

    /// Append one document's whole posting. `doc` must be greater than
    /// every doc id already in the list and `positions` non-empty and
    /// strictly increasing.
    pub fn push_posting(&mut self, doc: DocId, positions: &[u32]) {
        debug_assert!(!positions.is_empty(), "a posting has at least one position");
        debug_assert!(
            self.postings.last().is_none_or(|last| last.doc < doc),
            "postings must be appended in doc order"
        );
        self.max_tf = self.max_tf.max(positions.len() as u32);
        self.postings.push(Posting {
            doc,
            positions: positions.to_vec(),
        });
    }

    /// Number of documents containing the term.
    pub fn doc_count(&self) -> usize {
        self.postings.len()
    }

    /// Largest term frequency in the list (`0` when empty).
    pub fn max_tf(&self) -> u32 {
        self.max_tf
    }

    /// Concatenate `other` onto the end of this list. The caller must
    /// guarantee every doc id in `other` is greater than every doc id
    /// here — segment merges satisfy this by construction because
    /// segments hold contiguous, increasing doc-id ranges.
    pub fn append(&mut self, mut other: PostingList) {
        if let (Some(last), Some(first)) = (self.postings.last(), other.postings.first()) {
            debug_assert!(
                last.doc < first.doc,
                "segment posting lists must concatenate in doc order"
            );
        }
        self.max_tf = self.max_tf.max(other.max_tf);
        self.postings.append(&mut other.postings);
    }

    /// Borrow the raw postings.
    pub fn postings(&self) -> &[Posting] {
        &self.postings
    }

    /// Open a document-at-a-time cursor positioned on the first
    /// posting.
    pub fn cursor(&self) -> RawCursor<'_> {
        RawCursor {
            postings: &self.postings,
            idx: 0,
        }
    }

    /// Approximate heap size in bytes (for footprint estimates).
    pub fn heap_bytes(&self) -> usize {
        self.postings.capacity() * std::mem::size_of::<Posting>()
            + self
                .postings
                .iter()
                .map(|p| p.positions.capacity() * 4)
                .sum::<usize>()
    }
}

/// Skip metadata for one block of up to [`BLOCK_SIZE`] postings.
#[derive(Debug, Clone)]
struct BlockMeta {
    /// Doc id of the block's last posting: a `seek(target)` may skip
    /// the whole block when `last_doc < target`.
    last_doc: u32,
    /// Delta-decoder base on block entry: the previous block's last
    /// doc id, or `0` for the first block (the first delta is then the
    /// absolute doc id).
    base_doc: u32,
    /// Byte offset of the block's packed doc deltas in `data`; the
    /// packed tfs follow immediately after.
    offset: u32,
    /// Byte offset of the block's first position varint in `pos_data`.
    pos_offset: u32,
    /// Two `(tf, len)` points dominating every posting of the block
    /// (see [`CompressedPostings::encode`]).
    peaks: [(u32, u32); 2],
    /// Fixed bit width of the block's packed doc deltas.
    doc_bits: u8,
    /// Fixed bit width of the block's packed `tf - 1` values.
    tf_bits: u8,
}

/// Minimal bit width able to represent `v` (`0` for `v == 0`).
#[inline]
fn bits_for(v: u32) -> u32 {
    32 - v.leading_zeros()
}

/// Bytes occupied by `count` values packed at `bits` bits each.
#[inline]
fn packed_len(count: usize, bits: u32) -> usize {
    (count * bits as usize).div_ceil(8)
}

/// Append `values` to `out`, each packed at `bits` bits, LSB first.
fn pack_bits(out: &mut Vec<u8>, values: &[u32], bits: u32) {
    if bits == 0 {
        return;
    }
    debug_assert!(values.iter().all(|&v| bits == 32 || v < (1u32 << bits)));
    let mut acc = 0u64;
    let mut nbits = 0u32;
    for &v in values {
        acc |= (v as u64) << nbits;
        nbits += bits;
        while nbits >= 8 {
            out.push(acc as u8);
            acc >>= 8;
            nbits -= 8;
        }
    }
    if nbits > 0 {
        out.push(acc as u8);
    }
}

/// Unpack `count` values of `bits` bits each from `data`, starting at
/// byte `start`, into `out[..count]`. A streaming `u64` accumulator is
/// refilled one byte at a time (LSB-first, mirroring [`pack_bits`]), so
/// each value is a shift and a mask and each input byte is touched
/// exactly once — no per-value wide loads or slice re-checks.
fn unpack_bits(data: &[u8], start: usize, bits: u32, count: usize, out: &mut [u32]) {
    if bits == 0 {
        out[..count].fill(0);
        return;
    }
    let mask = if bits == 32 {
        u32::MAX
    } else {
        (1u32 << bits) - 1
    };
    let bytes = &data[start..start + packed_len(count, bits)];
    let mut acc = 0u64;
    let mut have = 0u32;
    let mut at = 0usize;
    for slot in out[..count].iter_mut() {
        if have < bits {
            if at + 4 <= bytes.len() {
                // Bulk refill: `have < bits <= 32`, so 32 fresh bits top
                // out at bit 62 and never collide or overflow.
                let w = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte slice"));
                acc |= u64::from(w) << have;
                at += 4;
                have += 32;
            } else {
                while have < bits {
                    acc |= u64::from(bytes[at]) << have;
                    at += 1;
                    have += 8;
                }
            }
        }
        *slot = (acc as u32) & mask;
        acc >>= bits;
        have -= bits;
    }
}

/// Immutable bit-packed posting list with skip blocks.
///
/// Layout: postings are carved into blocks of [`BLOCK_SIZE`]
/// documents. Per block, `data` holds the doc-id deltas packed at the
/// block's minimal fixed bit width, immediately followed by the
/// `tf - 1` values packed likewise (a block where every tf is 1 spends
/// zero tf bytes). `pos_data` is a separate varint stream of position
/// deltas (first absolute, then gaps), addressed per block through
/// [`BlockMeta::pos_offset`], so doc/tf decoding never walks position
/// bytes. All widths, offsets, and entry bases live in the in-memory
/// block directory, which a cursor binary-searches to skip blocks
/// decode-free.
#[derive(Debug, Clone, Default)]
pub struct CompressedPostings {
    data: Vec<u8>,
    pos_data: Vec<u8>,
    doc_count: u32,
    blocks: Vec<BlockMeta>,
}

impl CompressedPostings {
    /// Compress a raw list whose documents' field lengths are
    /// `lens[doc]`. Pure function of the list contents and those
    /// lengths: equal inputs encode to bit-identical streams (the
    /// parallel-build determinism tests rely on this).
    ///
    /// Each block records two score peaks, `(tf, len)` points that
    /// between them dominate every posting of non-zero length (its tf
    /// at most, its length at least, one peak's): B = `(s, m)`, with
    /// `m` the block's smallest non-zero length (`1` when it has none,
    /// as for the list-wide `min_len`) and `s` the largest tf at length
    /// `m`; A = `(block max tf, smallest non-zero length among docs
    /// with tf > s)`, or `m` when there are none. BM25 rises with tf
    /// and falls with length, so the larger of the two peaks' scores
    /// bounds the block — under any `k1`/`b`, idf and average length.
    pub fn encode(list: &PostingList, lens: &[u32]) -> Self {
        let mut data = Vec::with_capacity(list.postings.len() * 2);
        let mut pos_data = Vec::with_capacity(list.postings.len());
        let mut blocks: Vec<BlockMeta> =
            Vec::with_capacity(list.postings.len().div_ceil(BLOCK_SIZE));
        let mut deltas = [0u32; BLOCK_SIZE];
        let mut tfs = [0u32; BLOCK_SIZE];
        let mut base = 0u32;
        for chunk in list.postings.chunks(BLOCK_SIZE) {
            let pos_offset = pos_data.len() as u32;
            let mut prev = base;
            let (mut block_max_tf, mut s, mut m) = (0u32, 0u32, u32::MAX);
            let mut max_delta = 0u32;
            let mut max_tfm1 = 0u32;
            for (i, p) in chunk.iter().enumerate() {
                deltas[i] = p.doc.0 - prev;
                prev = p.doc.0;
                let tf = p.positions.len() as u32;
                tfs[i] = tf - 1;
                max_delta = max_delta.max(deltas[i]);
                max_tfm1 = max_tfm1.max(tfs[i]);
                block_max_tf = block_max_tf.max(tf);
                let len = lens[p.doc.as_usize()];
                if len != 0 && len < m {
                    (m, s) = (len, tf);
                } else if len == m {
                    s = s.max(tf);
                }
                let mut prev_pos = 0u32;
                for (j, &pos) in p.positions.iter().enumerate() {
                    let d = if j == 0 { pos } else { pos - prev_pos };
                    prev_pos = pos;
                    write_varint(&mut pos_data, d);
                }
            }
            // No non-zero length (inconsistent input): clamp to the
            // smallest real length.
            let m = if m == u32::MAX { 1 } else { m };
            let rest = chunk
                .iter()
                .zip(&tfs)
                .filter(|&(_, &tfm1)| tfm1 + 1 > s)
                .map(|(p, _)| lens[p.doc.as_usize()])
                .filter(|&len| len > 0)
                .min()
                .unwrap_or(m);
            let doc_bits = bits_for(max_delta);
            let tf_bits = bits_for(max_tfm1);
            blocks.push(BlockMeta {
                last_doc: prev,
                base_doc: base,
                offset: data.len() as u32,
                pos_offset,
                peaks: [(block_max_tf, rest), (s, m)],
                doc_bits: doc_bits as u8,
                tf_bits: tf_bits as u8,
            });
            pack_bits(&mut data, &deltas[..chunk.len()], doc_bits);
            pack_bits(&mut data, &tfs[..chunk.len()], tf_bits);
            base = prev;
        }
        CompressedPostings {
            data,
            pos_data,
            doc_count: list.postings.len() as u32,
            blocks,
        }
    }

    /// Postings in block `b` (all blocks are full except possibly the
    /// last).
    #[inline]
    fn block_len(&self, b: usize) -> usize {
        (self.doc_count as usize - b * BLOCK_SIZE).min(BLOCK_SIZE)
    }

    /// Unpack block `b`'s absolute doc ids and tfs into the provided
    /// buffers, returning the block length.
    fn unpack_block(
        &self,
        b: usize,
        docs: &mut [u32; BLOCK_SIZE],
        tfs: &mut [u32; BLOCK_SIZE],
    ) -> usize {
        let meta = &self.blocks[b];
        let count = self.block_len(b);
        unpack_bits(
            &self.data,
            meta.offset as usize,
            meta.doc_bits as u32,
            count,
            docs,
        );
        let mut d = meta.base_doc;
        for slot in docs[..count].iter_mut() {
            d += *slot;
            *slot = d;
        }
        let tf_start = meta.offset as usize + packed_len(count, meta.doc_bits as u32);
        unpack_bits(&self.data, tf_start, meta.tf_bits as u32, count, tfs);
        for slot in tfs[..count].iter_mut() {
            *slot += 1;
        }
        count
    }

    /// Decode back into a raw list (used by tests and by re-indexing).
    pub fn decode(&self) -> PostingList {
        let mut list = PostingList::new();
        self.for_each(|doc, positions| list.push_posting(doc, positions));
        list
    }

    /// Number of documents containing the term.
    pub fn doc_count(&self) -> usize {
        self.doc_count as usize
    }

    /// Compressed size in bytes (doc/tf stream plus position stream;
    /// excludes the block directory — see [`heap_bytes`]).
    ///
    /// [`heap_bytes`]: CompressedPostings::heap_bytes
    pub fn byte_len(&self) -> usize {
        self.data.len() + self.pos_data.len()
    }

    /// Total heap footprint: packed streams plus the block directory.
    pub fn heap_bytes(&self) -> usize {
        self.data.len() + self.pos_data.len() + self.blocks.len() * std::mem::size_of::<BlockMeta>()
    }

    /// The packed doc/tf byte stream (the determinism tests assert
    /// parallel and sequential builds produce bit-identical streams).
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Open a document-at-a-time cursor positioned on the first
    /// posting.
    pub fn cursor(&self) -> CompressedCursor<'_> {
        let mut c = CompressedCursor {
            post: self,
            block: 0,
            idx: 0,
            len: 0,
            doc: NO_DOC,
            docs: [0; BLOCK_SIZE],
            tfs: [0; BLOCK_SIZE],
            pos_block: usize::MAX,
            pos_idx: 0,
            pos_at: 0,
        };
        if self.doc_count > 0 {
            c.len = self.unpack_block(0, &mut c.docs, &mut c.tfs);
            c.doc = c.docs[0];
        }
        c
    }

    /// Visit every posting, reusing one scratch buffer for positions.
    pub fn for_each(&self, mut f: impl FnMut(DocId, &[u32])) {
        let mut docs = [0u32; BLOCK_SIZE];
        let mut tfs = [0u32; BLOCK_SIZE];
        let mut positions: Vec<u32> = Vec::with_capacity(8);
        let mut pos_cursor = 0usize;
        for b in 0..self.blocks.len() {
            let count = self.unpack_block(b, &mut docs, &mut tfs);
            debug_assert_eq!(pos_cursor, self.blocks[b].pos_offset as usize);
            for i in 0..count {
                positions.clear();
                let mut pos = 0u32;
                for j in 0..tfs[i] {
                    let d = read_varint(&self.pos_data, &mut pos_cursor);
                    pos = if j == 0 { d } else { pos + d };
                    positions.push(pos);
                }
                f(DocId(docs[i]), &positions);
            }
        }
    }
}

/// Document-at-a-time cursor over a [`CompressedPostings`] stream.
///
/// Holds one unpacked block in inline buffers: block entry unpacks all
/// doc ids and tfs at once (branchless fixed-width loops), after which
/// `doc`/`tf`/`next` are plain array reads. [`CompressedCursor::seek`]
/// binary-searches the block directory and unpacks only the
/// destination block — skipped blocks are never decoded.
#[derive(Debug, Clone)]
pub struct CompressedCursor<'a> {
    post: &'a CompressedPostings,
    /// Index of the block currently held in the buffers.
    block: usize,
    /// Index of the current posting within the block.
    idx: usize,
    /// Postings in the current block.
    len: usize,
    /// Current doc id, or [`NO_DOC`] once exhausted.
    doc: u32,
    /// Unpacked absolute doc ids of the current block.
    docs: [u32; BLOCK_SIZE],
    /// Unpacked term frequencies of the current block.
    tfs: [u32; BLOCK_SIZE],
    /// Position-stream memo: block whose positions were last read.
    pos_block: usize,
    /// Posting index within `pos_block` that `pos_at` points at.
    pos_idx: usize,
    /// Byte offset into `pos_data` of posting `pos_idx`'s positions.
    pos_at: usize,
}

impl CompressedCursor<'_> {
    /// Current doc id, or [`NO_DOC`] when exhausted.
    #[inline]
    pub fn doc(&self) -> u32 {
        self.doc
    }

    /// Term frequency of the current posting.
    #[inline]
    pub fn tf(&self) -> u32 {
        self.tfs[self.idx]
    }

    /// Doc id of the list's final posting (independent of cursor
    /// position); [`NO_DOC`] for an empty list. Read from the block
    /// directory, so no decoding happens.
    pub fn last_doc(&self) -> u32 {
        self.post.blocks.last().map_or(NO_DOC, |b| b.last_doc)
    }

    /// Score peaks of the block holding the current posting (`None`
    /// once exhausted): two `(tf, len)` points, one of which dominates
    /// every posting of the block — see [`CompressedPostings::encode`].
    pub fn block_peaks(&self) -> Option<[(u32, u32); 2]> {
        (self.doc != NO_DOC).then(|| self.post.blocks[self.block].peaks)
    }

    /// Last doc id of the block holding the current posting — the
    /// range through which [`block_peaks`] hold. Read from the block
    /// directory, no decoding.
    ///
    /// [`block_peaks`]: CompressedCursor::block_peaks
    pub fn block_last_doc(&self) -> u32 {
        if self.doc == NO_DOC {
            return NO_DOC;
        }
        self.post.blocks[self.block].last_doc
    }

    /// Append the current posting's positions to `out` (which is
    /// cleared first). Walks only the current block's slice of the
    /// position stream: earlier blocks are skipped through the block
    /// directory, and within the block a streaming memo remembers where
    /// the last read stopped, so monotone per-doc reads (the phrase
    /// verifier's access pattern) cost amortized O(1) varint skips per
    /// posting instead of re-skipping from the block start every time.
    pub fn positions(&mut self, out: &mut Vec<u32>) {
        out.clear();
        debug_assert!(self.doc != NO_DOC, "positions() on an exhausted cursor");
        if self.pos_block != self.block || self.pos_idx > self.idx {
            self.pos_block = self.block;
            self.pos_idx = 0;
            self.pos_at = self.post.blocks[self.block].pos_offset as usize;
        }
        while self.pos_idx < self.idx {
            for _ in 0..self.tfs[self.pos_idx] {
                read_varint(&self.post.pos_data, &mut self.pos_at);
            }
            self.pos_idx += 1;
        }
        let mut cursor = self.pos_at;
        let mut pos = 0u32;
        for j in 0..self.tfs[self.idx] {
            let d = read_varint(&self.post.pos_data, &mut cursor);
            pos = if j == 0 { d } else { pos + d };
            out.push(pos);
        }
    }

    /// Advance to the next posting.
    #[inline]
    pub fn next(&mut self) {
        if self.doc == NO_DOC {
            return;
        }
        if self.idx + 1 < self.len {
            self.idx += 1;
            self.doc = self.docs[self.idx];
            return;
        }
        if self.block + 1 < self.post.blocks.len() {
            let b = self.block + 1;
            self.len = self.post.unpack_block(b, &mut self.docs, &mut self.tfs);
            self.block = b;
            self.idx = 0;
            self.doc = self.docs[0];
        } else {
            self.doc = NO_DOC;
        }
    }

    /// Advance to the first posting with `doc >= target` (no-op when
    /// already there). Skips whole blocks via the block directory —
    /// only the destination block is ever unpacked — then searches the
    /// unpacked doc ids: a short linear scan first (seeks in a DAAT
    /// loop usually hop a few postings), binary search for the rest.
    #[inline]
    pub fn seek(&mut self, target: u32) {
        if self.doc >= target {
            // Covers exhaustion too: NO_DOC >= any target.
            return;
        }
        if self.post.blocks[self.block].last_doc < target {
            let blocks = &self.post.blocks;
            // Adjacent-block fast path, then a directory binary search
            // for genuine long jumps.
            let next = self.block + 1;
            let dest = if next < blocks.len() && blocks[next].last_doc >= target {
                next
            } else {
                next + 1
                    + blocks[(next + 1).min(blocks.len())..]
                        .partition_point(|b| b.last_doc < target)
            };
            if dest >= blocks.len() {
                self.doc = NO_DOC;
                return;
            }
            self.len = self.post.unpack_block(dest, &mut self.docs, &mut self.tfs);
            self.block = dest;
            self.idx = 0;
        }
        // The current block's last doc is >= target, so the scan always
        // lands on a real posting.
        let mut i = self.idx;
        let stop = (i + 8).min(self.len);
        while i < stop && self.docs[i] < target {
            i += 1;
        }
        if i == stop && i < self.len && self.docs[i] < target {
            i += self.docs[i..self.len].partition_point(|&d| d < target);
        }
        debug_assert!(i < self.len, "block last_doc guarantee violated");
        self.idx = i;
        self.doc = self.docs[i];
    }
}

/// Document-at-a-time cursor over a raw [`PostingList`].
#[derive(Debug, Clone)]
pub struct RawCursor<'a> {
    postings: &'a [Posting],
    idx: usize,
}

impl RawCursor<'_> {
    /// Current doc id, or [`NO_DOC`] when exhausted.
    pub fn doc(&self) -> u32 {
        match self.postings.get(self.idx) {
            Some(p) => p.doc.0,
            None => NO_DOC,
        }
    }

    /// Doc id of the list's final posting (independent of cursor
    /// position); [`NO_DOC`] for an empty list.
    pub fn last_doc(&self) -> u32 {
        self.postings.last().map_or(NO_DOC, |p| p.doc.0)
    }

    /// Term frequency of the current posting.
    pub fn tf(&self) -> u32 {
        self.postings[self.idx].positions.len() as u32
    }

    /// Append the current posting's positions to `out` (cleared
    /// first). Takes `&mut self` for parity with the compressed
    /// cursor's streaming position memo.
    pub fn positions(&mut self, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(&self.postings[self.idx].positions);
    }

    /// Last doc id of the current "block": a raw list has no block
    /// directory, so the whole list is one block.
    pub fn block_last_doc(&self) -> u32 {
        self.last_doc()
    }

    /// Advance to the next posting.
    pub fn next(&mut self) {
        self.idx += 1;
    }

    /// Advance to the first posting with `doc >= target`.
    pub fn seek(&mut self, target: u32) {
        if self.doc() >= target {
            return;
        }
        self.idx += 1 + self.postings[self.idx + 1..].partition_point(|p| p.doc.0 < target);
    }
}

/// A document-at-a-time cursor over either posting representation.
///
/// The cursor walks doc ids and term frequencies in increasing doc
/// order; positions are materialized only on demand via
/// [`PostingsCursor::positions`] (phrase verification), which is what
/// keeps the scoring loop allocation-free. After the last
/// posting, [`PostingsCursor::doc`] reports [`NO_DOC`] (which compares
/// greater than every real doc id, so `seek`/min-merge loops need no
/// special casing).
// The size skew is the design: the compressed cursor carries its
// unpacked 128-doc block inline so the hot loop reads plain
// arrays with no heap indirection. Boxing it would trade that locality
// for a pointer chase on every doc()/tf() call.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum PostingsCursor<'a> {
    /// Cursor over the indexing-time representation.
    Raw(RawCursor<'a>),
    /// Cursor over the optimized block-packed representation.
    Compressed(CompressedCursor<'a>),
}

impl PostingsCursor<'_> {
    /// Current doc id, or [`NO_DOC`] when exhausted.
    #[inline]
    pub fn doc(&self) -> u32 {
        match self {
            PostingsCursor::Raw(c) => c.doc(),
            PostingsCursor::Compressed(c) => c.doc(),
        }
    }

    /// Term frequency of the current posting.
    #[inline]
    pub fn tf(&self) -> u32 {
        match self {
            PostingsCursor::Raw(c) => c.tf(),
            PostingsCursor::Compressed(c) => c.tf(),
        }
    }

    /// Append the current posting's positions to `out` (cleared
    /// first). Only valid while `doc() != NO_DOC`.
    pub fn positions(&mut self, out: &mut Vec<u32>) {
        match self {
            PostingsCursor::Raw(c) => c.positions(out),
            PostingsCursor::Compressed(c) => c.positions(out),
        }
    }

    /// Score peaks of the block holding the current posting: `None`
    /// for a raw list, which carries no block directory (callers fall
    /// back to the list-wide bound), and once exhausted.
    #[inline]
    pub fn block_peaks(&self) -> Option<[(u32, u32); 2]> {
        match self {
            PostingsCursor::Raw(_) => None,
            PostingsCursor::Compressed(c) => c.block_peaks(),
        }
    }

    /// Last doc id of the block holding the current posting: the
    /// range through which [`block_peaks`] hold for a block-packed
    /// list, the list's last doc for a raw one (a single block with no
    /// peaks). Lets the executor bound a whole window of candidates at
    /// once (block-max window skip).
    ///
    /// [`block_peaks`]: PostingsCursor::block_peaks
    #[inline]
    pub fn block_last_doc(&self) -> u32 {
        match self {
            PostingsCursor::Raw(c) => c.block_last_doc(),
            PostingsCursor::Compressed(c) => c.block_last_doc(),
        }
    }

    /// Advance to the next posting.
    #[inline]
    pub fn next(&mut self) {
        match self {
            PostingsCursor::Raw(c) => c.next(),
            PostingsCursor::Compressed(c) => c.next(),
        }
    }

    /// Hand `f` every posting with `doc <= last` as `(doc, tf)`, in
    /// doc order, leaving the cursor on the first posting past `last`
    /// (or exhausted).
    #[inline]
    pub(crate) fn drain_through(&mut self, last: u32, mut f: impl FnMut(u32, u32)) {
        match self {
            PostingsCursor::Raw(c) => {
                while c.doc() <= last && c.doc() != NO_DOC {
                    f(c.doc(), c.tf());
                    c.next();
                }
            }
            // A block at a time, straight from the unpacked arrays.
            PostingsCursor::Compressed(c) => {
                while c.doc <= last && c.doc != NO_DOC {
                    let (docs, tfs) = (&c.docs[c.idx..c.len], &c.tfs[c.idx..c.len]);
                    let n = docs.partition_point(|&d| d <= last);
                    for (&d, &tf) in docs[..n].iter().zip(&tfs[..n]) {
                        f(d, tf);
                    }
                    // `n >= 1`: the current posting is within `last`.
                    c.idx += n - 1;
                    c.next();
                }
            }
        }
    }

    /// Advance to the first posting with `doc >= target`.
    #[inline]
    pub fn seek(&mut self, target: u32) {
        match self {
            PostingsCursor::Raw(c) => c.seek(target),
            PostingsCursor::Compressed(c) => c.seek(target),
        }
    }
}

pub(crate) fn write_varint(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub(crate) fn read_varint(data: &[u8], cursor: &mut usize) -> u32 {
    let mut v = 0u32;
    let mut shift = 0;
    loop {
        let byte = data[*cursor];
        *cursor += 1;
        v |= ((byte & 0x7f) as u32) << shift;
        if byte & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PostingList {
        let mut l = PostingList::new();
        l.push_occurrence(DocId(0), 0);
        l.push_occurrence(DocId(0), 5);
        l.push_occurrence(DocId(3), 2);
        l.push_occurrence(DocId(300), 1);
        l.push_occurrence(DocId(300), 9);
        l.push_occurrence(DocId(300), 100);
        l
    }

    /// Encode with every document one token long.
    fn packed(l: &PostingList) -> CompressedPostings {
        let docs = l.postings().last().map_or(0, |p| p.doc.as_usize() + 1);
        CompressedPostings::encode(l, &vec![1; docs])
    }

    #[test]
    fn push_merges_same_doc_occurrences() {
        let l = sample();
        assert_eq!(l.doc_count(), 3);
        assert_eq!(l.postings()[0].positions, vec![0, 5]);
    }

    #[test]
    fn compression_roundtrip() {
        let l = sample();
        let c = packed(&l);
        assert_eq!(c.doc_count(), 3);
        let back = c.decode();
        assert_eq!(back.postings(), l.postings());
    }

    #[test]
    fn roundtrip_with_doc_zero_only() {
        let mut l = PostingList::new();
        l.push_occurrence(DocId(0), 7);
        let back = packed(&l).decode();
        assert_eq!(back.postings(), l.postings());
    }

    #[test]
    fn empty_list_roundtrip() {
        let l = PostingList::new();
        let c = packed(&l);
        assert_eq!(c.doc_count(), 0);
        assert_eq!(c.byte_len(), 0);
        assert_eq!(c.decode().doc_count(), 0);
    }

    #[test]
    fn compressed_is_smaller_for_clustered_docs() {
        let mut l = PostingList::new();
        for d in 0..1000u32 {
            l.push_occurrence(DocId(d), 3);
        }
        let c = packed(&l);
        assert!(c.byte_len() < l.heap_bytes());
    }

    #[test]
    fn pack_unpack_boundaries() {
        let mut out = [0u32; BLOCK_SIZE];
        for bits in 0..=32u32 {
            let max = if bits == 32 {
                u32::MAX
            } else {
                (1u64 << bits) as u32 - 1
            };
            let values: Vec<u32> = (0..BLOCK_SIZE as u32)
                .map(|i| {
                    if bits == 0 {
                        0
                    } else {
                        (i.wrapping_mul(2654435761)) & max
                    }
                })
                .collect();
            let mut buf = Vec::new();
            pack_bits(&mut buf, &values, bits);
            assert_eq!(buf.len(), packed_len(values.len(), bits), "bits {bits}");
            unpack_bits(&buf, 0, bits, values.len(), &mut out);
            assert_eq!(&out[..values.len()], &values[..], "bits {bits}");
        }
    }

    #[test]
    fn single_tf_block_spends_no_tf_bytes() {
        // 128 docs, every tf == 1, consecutive ids: deltas are 1 bit,
        // tfs are 0 bits -> exactly 16 bytes of doc data per block.
        let mut l = PostingList::new();
        for d in 0..BLOCK_SIZE as u32 {
            l.push_occurrence(DocId(d), 0);
        }
        let c = packed(&l);
        assert_eq!(c.bytes().len(), BLOCK_SIZE / 8);
        assert_eq!(c.blocks[0].tf_bits, 0);
        assert_eq!(c.blocks[0].doc_bits, 1);
    }

    #[test]
    fn for_each_visits_in_doc_order() {
        let l = sample();
        let mut seen = Vec::new();
        packed(&l).for_each(|d, positions| seen.push((d.0, positions.to_vec())));
        let want: Vec<(u32, Vec<u32>)> = l
            .postings()
            .iter()
            .map(|p| (p.doc.0, p.positions.clone()))
            .collect();
        assert_eq!(seen, want);
    }

    /// A cursor over `l` itself and one over its packed form `c`.
    fn both<'a>(l: &'a PostingList, c: &'a CompressedPostings) -> [PostingsCursor<'a>; 2] {
        [
            PostingsCursor::Raw(l.cursor()),
            PostingsCursor::Compressed(c.cursor()),
        ]
    }

    fn long_list(n: u32, stride: u32) -> PostingList {
        let mut l = PostingList::new();
        for d in 0..n {
            // tf varies so block peaks differ between blocks.
            for p in 0..=(d % 4) {
                l.push_occurrence(DocId(d * stride), p);
            }
        }
        l
    }

    #[test]
    fn cursor_walks_both_representations_identically() {
        let l = long_list(300, 3);
        let c = packed(&l);
        for mut cur in both(&l, &c) {
            for p in l.postings() {
                assert_eq!(cur.doc(), p.doc.0);
                assert_eq!(cur.tf(), p.positions.len() as u32);
                cur.next();
            }
            assert_eq!(cur.doc(), NO_DOC);
            cur.next();
            assert_eq!(cur.doc(), NO_DOC);
        }
    }

    #[test]
    fn cursor_positions_match_raw_postings() {
        let l = long_list(500, 7);
        let c = packed(&l);
        let mut buf = Vec::new();
        for (mut cur, mut seeker) in both(&l, &c).into_iter().zip(both(&l, &c)) {
            // Walk via next().
            for p in l.postings() {
                cur.positions(&mut buf);
                assert_eq!(buf, p.positions, "doc {}", p.doc.0);
                cur.next();
            }
            // And via seek() to scattered docs.
            for p in l.postings().iter().step_by(37) {
                seeker.seek(p.doc.0);
                seeker.positions(&mut buf);
                assert_eq!(buf, p.positions, "seek doc {}", p.doc.0);
            }
        }
    }

    #[test]
    fn cursor_seek_matches_linear_scan() {
        let l = long_list(1000, 7);
        let docs: Vec<u32> = l.postings().iter().map(|p| p.doc.0).collect();
        let c = packed(&l);
        for (mut cur, mut past) in both(&l, &c).into_iter().zip(both(&l, &c)) {
            // Seek to every third position plus off-list targets.
            for target in (0..7200).step_by(31) {
                if target < cur.doc() && cur.doc() != NO_DOC {
                    continue; // seek never goes backwards
                }
                cur.seek(target);
                let expect = docs.iter().copied().find(|&d| d >= target);
                assert_eq!(cur.doc(), expect.unwrap_or(NO_DOC), "target {target}");
                if let Some(d) = expect {
                    let p = &l.postings()[docs.iter().position(|&x| x == d).unwrap()];
                    assert_eq!(cur.tf(), p.positions.len() as u32);
                }
            }
            // Seeking past the end exhausts.
            past.seek(u32::MAX);
            assert_eq!(past.doc(), NO_DOC);
        }
    }

    #[test]
    fn seek_to_current_doc_is_a_noop() {
        let l = long_list(400, 2);
        let c = packed(&l);
        let mut cur = c.cursor();
        cur.seek(500);
        let at = cur.doc();
        let tf = cur.tf();
        cur.seek(500);
        cur.seek(at);
        assert_eq!(cur.doc(), at);
        assert_eq!(cur.tf(), tf);
    }

    #[test]
    fn exhausted_cursor_stays_exhausted() {
        let l = long_list(300, 3);
        let c = packed(&l);
        // Exhaust from the first block with a long-range seek; the
        // cursor must not resurrect on a subsequent next().
        let mut cur = c.cursor();
        cur.seek(u32::MAX);
        assert_eq!(cur.doc(), NO_DOC);
        cur.next();
        assert_eq!(cur.doc(), NO_DOC);
        cur.seek(0);
        assert_eq!(cur.doc(), NO_DOC);
    }

    #[test]
    fn block_peaks_dominate_from_two_points() {
        // (tf, len) per doc: the shortest doc (len 3) peaks at tf 2,
        // the docs above tf 2 are at least 5 long, and a zero length
        // (a tombstone) counts for neither.
        let docs = [(1, 4), (2, 3), (1, 3), (4, 6), (3, 5), (9, 0)];
        let mut l = PostingList::new();
        let mut lens = Vec::new();
        for (d, &(tf, len)) in docs.iter().enumerate() {
            l.push_posting(DocId(d as u32), &(0..tf).collect::<Vec<_>>());
            lens.push(len);
        }
        let c = CompressedPostings::encode(&l, &lens);
        let mut cur = c.cursor();
        assert_eq!(cur.block_peaks(), Some([(9, 5), (2, 3)]));
        cur.seek(NO_DOC);
        assert_eq!(cur.block_peaks(), None);
        assert_eq!(PostingsCursor::Raw(l.cursor()).block_peaks(), None);
        // No non-zero length at all: clamped to 1, as `min_len` is.
        let c = CompressedPostings::encode(&l, &[0; 6]);
        assert_eq!(c.cursor().block_peaks(), Some([(9, 1), (0, 1)]));
    }

    #[test]
    fn block_directory_records_widths_and_offsets() {
        let l = long_list(1000, 9);
        let c = packed(&l);
        let mut expected_offset = 0u32;
        for (b, meta) in c.blocks.iter().enumerate() {
            assert_eq!(meta.offset, expected_offset, "block {b}");
            let count = c.block_len(b);
            expected_offset += (packed_len(count, meta.doc_bits as u32)
                + packed_len(count, meta.tf_bits as u32)) as u32;
        }
        assert_eq!(expected_offset as usize, c.bytes().len());
    }

    #[test]
    fn empty_list_cursor_is_exhausted() {
        let c = packed(&PostingList::new());
        let mut cur = c.cursor();
        assert_eq!(cur.doc(), NO_DOC);
        cur.seek(7);
        assert_eq!(cur.doc(), NO_DOC);
    }

    #[test]
    fn cursor_last_doc_reads_metadata() {
        let l = long_list(300, 2);
        let c = packed(&l);
        let cur = c.cursor();
        assert_eq!(cur.last_doc(), l.postings().last().unwrap().doc.0);
        let raw = RawCursor {
            postings: l.postings(),
            idx: 0,
        };
        assert_eq!(raw.last_doc(), l.postings().last().unwrap().doc.0);
    }

    #[test]
    fn varint_boundaries() {
        let mut buf = Vec::new();
        for v in [0u32, 1, 127, 128, 16383, 16384, u32::MAX] {
            buf.clear();
            write_varint(&mut buf, v);
            let mut c = 0;
            assert_eq!(read_varint(&buf, &mut c), v);
            assert_eq!(c, buf.len());
        }
    }
}
