//! Materialized doc-id sets for conjunctive filter pushdown.
//!
//! A structured predicate resolved by a secondary index yields a set
//! of document ids. Handing that set to the executor as an opaque
//! `Fn(DocId) -> bool` closure (the historical path) still pays the
//! full candidate-selection tax: every posting block that contains a
//! candidate gets decoded and every candidate gets scored far enough
//! to call the closure. [`DocSet`] instead materializes the set in a
//! cursor-friendly shape so the pruned executor can treat it as a
//! *non-scoring conjunctive cursor* (see
//! [`Searcher::search_docset`](crate::search::Searcher::search_docset)):
//! the intersection drives from the filter when it is the rarest gate,
//! and term cursors `seek` straight to surviving candidates, skipping
//! whole posting blocks decode-free via their block directories.
//!
//! Two representations, chosen by density at construction:
//!
//! * **Sorted vec** for sparse sets: a galloping [`FilterCursor`]
//!   resumes from its last position, so a full intersection pass is
//!   O(|set| log gap) regardless of corpus size.
//! * **Bitset** for dense sets: one bit per doc plus a one-level
//!   summary bitmap (one bit per 64-doc word, i.e. a 4096-doc span per
//!   summary word) — the block-max-style skip metadata that lets
//!   `seek` hop empty regions word-at-a-time instead of bit-at-a-time.
//!
//! The crossover (1/16 dense) keeps the bitset's O(universe/8) bytes
//! no worse than ~2× the sorted vec it replaces while making `seek`
//! O(1) amortized.

use crate::postings::NO_DOC;
use crate::DocId;

/// Bits per bitset word.
const WORD_BITS: u32 = 64;
/// A set denser than one member per `DENSITY_CUTOFF` docs of its
/// universe is stored as a bitset.
const DENSITY_CUTOFF: u32 = 16;

/// An immutable set of document ids, stored sorted-vec or bitset by
/// density. Built once per query from a resolved structured predicate.
#[derive(Debug, Clone)]
pub enum DocSet {
    /// Sparse: strictly increasing doc ids.
    Sorted(Vec<u32>),
    /// Dense: one bit per doc id, plus a summary bitmap with one bit
    /// per word (set when the word has any member) for wide skips.
    Bits {
        /// Membership words; bit `d % 64` of word `d / 64`.
        words: Vec<u64>,
        /// Summary: bit `w % 64` of word `w / 64` set when `words[w]`
        /// is non-zero.
        summary: Vec<u64>,
        /// Member count (maintained, not recounted).
        count: usize,
    },
}

impl DocSet {
    /// Build from a sorted, deduplicated id list, choosing the
    /// representation by density over the `[0, max_id]` universe.
    ///
    /// Callers must pass strictly increasing ids (checked in debug
    /// builds); [`DocSet::from_unsorted`] sorts and dedups first.
    pub fn from_sorted(ids: Vec<u32>) -> DocSet {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be sorted");
        let Some(&max) = ids.last() else {
            return DocSet::Sorted(ids);
        };
        let universe = max.saturating_add(1);
        if (ids.len() as u64) * (DENSITY_CUTOFF as u64) < universe as u64 {
            return DocSet::Sorted(ids);
        }
        let nwords = universe.div_ceil(WORD_BITS) as usize;
        let mut words = vec![0u64; nwords];
        for &d in &ids {
            words[(d / WORD_BITS) as usize] |= 1u64 << (d % WORD_BITS);
        }
        let mut summary = vec![0u64; nwords.div_ceil(WORD_BITS as usize)];
        for (w, &word) in words.iter().enumerate() {
            if word != 0 {
                summary[w / WORD_BITS as usize] |= 1u64 << (w as u32 % WORD_BITS);
            }
        }
        DocSet::Bits {
            words,
            summary,
            count: ids.len(),
        }
    }

    /// Build from ids in any order (sorts and dedups).
    pub fn from_unsorted(mut ids: Vec<u32>) -> DocSet {
        ids.sort_unstable();
        ids.dedup();
        DocSet::from_sorted(ids)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        match self {
            DocSet::Sorted(v) => v.len(),
            DocSet::Bits { count, .. } => *count,
        }
    }

    /// True when the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test (used by the exhaustive executor, which scores
    /// hash-map entries in arbitrary order and cannot use a cursor).
    pub fn contains(&self, doc: DocId) -> bool {
        let d = doc.0;
        match self {
            DocSet::Sorted(v) => v.binary_search(&d).is_ok(),
            DocSet::Bits { words, .. } => {
                let w = (d / WORD_BITS) as usize;
                w < words.len() && words[w] & (1u64 << (d % WORD_BITS)) != 0
            }
        }
    }

    /// Iterate members in increasing order.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let mut cursor = FilterCursor::new(self);
        std::iter::from_fn(move || {
            let d = cursor.doc();
            if d == NO_DOC {
                None
            } else {
                cursor.seek(d + 1);
                Some(d)
            }
        })
    }
}

/// Forward-only cursor over a [`DocSet`], mirroring the seek contract
/// of [`PostingsCursor`](crate::postings::PostingsCursor): `doc()`
/// reports the current member ([`NO_DOC`] when exhausted), `seek`
/// moves to the smallest member `>= target` and requires
/// non-decreasing targets. This is what slots into the `+must`
/// galloping intersection as a non-scoring gate.
#[derive(Debug)]
pub(crate) struct FilterCursor<'a> {
    set: &'a DocSet,
    /// Sorted-vec representation: index of the current member.
    pos: usize,
    /// Current member doc, or [`NO_DOC`].
    at: u32,
}

impl<'a> FilterCursor<'a> {
    /// Cursor positioned on the set's first member.
    pub(crate) fn new(set: &'a DocSet) -> FilterCursor<'a> {
        let mut c = FilterCursor { set, pos: 0, at: 0 };
        c.at = c.first();
        c
    }

    fn first(&self) -> u32 {
        match self.set {
            DocSet::Sorted(v) => v.first().copied().unwrap_or(NO_DOC),
            DocSet::Bits { .. } => {
                let mut probe = FilterCursor {
                    set: self.set,
                    pos: 0,
                    at: 0,
                };
                probe.seek_bits(0)
            }
        }
    }

    /// Current member, or [`NO_DOC`] when exhausted.
    #[cfg(test)]
    pub(crate) fn doc(&self) -> u32 {
        self.at
    }

    /// Smallest member `>= target` (no-op when already there).
    /// Targets must be non-decreasing across calls.
    pub(crate) fn seek(&mut self, target: u32) -> u32 {
        if self.at >= target {
            // Covers exhaustion: NO_DOC >= any target.
            return self.at;
        }
        self.at = match self.set {
            DocSet::Sorted(_) => self.seek_sorted(target),
            DocSet::Bits { .. } => self.seek_bits(target),
        };
        self.at
    }

    /// Galloping search forward from the current position: doubling
    /// probe to bracket `target`, then a binary search inside the
    /// bracket. Resuming from `pos` makes a monotone seek sequence
    /// over the whole set O(len log gap) total.
    fn seek_sorted(&mut self, target: u32) -> u32 {
        let DocSet::Sorted(v) = self.set else {
            unreachable!("seek_sorted on sorted sets only");
        };
        let mut lo = self.pos;
        if lo >= v.len() {
            return NO_DOC;
        }
        if v[lo] >= target {
            self.pos = lo;
            return v[lo];
        }
        let mut step = 1usize;
        let mut hi = lo + 1;
        while hi < v.len() && v[hi] < target {
            lo = hi;
            step <<= 1;
            hi = (lo + step).min(v.len());
            if hi == v.len() {
                break;
            }
        }
        // Invariant: v[lo] < target, and (hi == len or v[hi] >= target).
        let rel = v[lo + 1..hi].partition_point(|&d| d < target);
        let idx = lo + 1 + rel;
        self.pos = idx;
        if idx < v.len() {
            v[idx]
        } else {
            NO_DOC
        }
    }

    /// Bitset seek: mask off bits below `target` in its word, then use
    /// the summary bitmap to skip runs of empty words (4096 docs per
    /// summary word) without touching them.
    fn seek_bits(&mut self, target: u32) -> u32 {
        let DocSet::Bits { words, summary, .. } = self.set else {
            unreachable!("seek_bits on bitsets only");
        };
        let mut w = (target / WORD_BITS) as usize;
        if w >= words.len() {
            return NO_DOC;
        }
        let masked = words[w] & (!0u64 << (target % WORD_BITS));
        if masked != 0 {
            return w as u32 * WORD_BITS + masked.trailing_zeros();
        }
        // Skip via the summary: find the next non-empty word > w.
        w += 1;
        let mut s = w / WORD_BITS as usize;
        while s < summary.len() {
            // Only the first summary word needs its low bits (words
            // before `w`) masked off.
            let mask = if s == w / WORD_BITS as usize {
                !0u64 << (w as u32 % WORD_BITS)
            } else {
                !0u64
            };
            let sm = summary[s] & mask;
            if sm != 0 {
                let nw = s * WORD_BITS as usize + sm.trailing_zeros() as usize;
                let word = words[nw];
                debug_assert_ne!(word, 0, "summary bit implies a member");
                return nw as u32 * WORD_BITS + word.trailing_zeros();
            }
            s += 1;
        }
        NO_DOC
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_stays_sorted_vec_dense_becomes_bits() {
        let sparse = DocSet::from_sorted(vec![5, 1000, 100_000]);
        assert!(matches!(sparse, DocSet::Sorted(_)));
        let dense = DocSet::from_sorted((0..1000).step_by(2).collect());
        assert!(matches!(dense, DocSet::Bits { .. }));
        assert_eq!(dense.len(), 500);
    }

    #[test]
    fn contains_and_iter_agree_on_both_reprs() {
        for ids in [
            vec![3u32, 9, 12, 500, 70_001],
            (0..4096).step_by(3).collect::<Vec<u32>>(),
            vec![],
            vec![0],
            vec![NO_DOC - 1],
        ] {
            let set = DocSet::from_sorted(ids.clone());
            assert_eq!(set.iter().collect::<Vec<_>>(), ids);
            for &d in &ids {
                assert!(set.contains(DocId(d)));
            }
            assert!(!set.contains(DocId(NO_DOC)));
        }
    }

    #[test]
    fn fresh_cursor_seek_matches_linear_scan() {
        let cases = [
            vec![2u32, 3, 64, 65, 127, 128, 4095, 4096, 9000],
            (0..600).map(|i| i * 7).collect::<Vec<u32>>(),
        ];
        for ids in cases {
            let set = DocSet::from_sorted(ids.clone());
            for t in 0..(ids.last().copied().unwrap_or(0) + 5) {
                let expect = ids.iter().copied().find(|&d| d >= t).unwrap_or(NO_DOC);
                let mut fresh = FilterCursor::new(&set);
                assert_eq!(fresh.seek(t), expect, "seek({t}) over {} ids", ids.len());
            }
        }
    }

    #[test]
    fn resumed_monotone_seeks_match_linear_scan() {
        for ids in [
            (0..500).map(|i| i * 13 + (i % 3)).collect::<Vec<u32>>(),
            (0..5000).step_by(2).collect::<Vec<u32>>(),
        ] {
            let set = DocSet::from_sorted(ids.clone());
            let mut cur = FilterCursor::new(&set);
            let last = ids.last().copied().unwrap_or(0);
            let targets = [0u32, 1, 26, 27, 130, 131, 1000, 2600, last, last + 1];
            for &t in &targets {
                let expect = ids.iter().copied().find(|&d| d >= t).unwrap_or(NO_DOC);
                // The resumed cursor honours the non-decreasing-target
                // contract: its answer is the linear-scan answer.
                assert_eq!(cur.seek(t), expect, "resumed seek({t})");
            }
        }
    }

    #[test]
    fn empty_set_cursor_is_exhausted() {
        let set = DocSet::from_sorted(vec![]);
        let mut cur = FilterCursor::new(&set);
        assert_eq!(cur.doc(), NO_DOC);
        assert_eq!(cur.seek(42), NO_DOC);
    }

    #[test]
    fn from_unsorted_sorts_and_dedups() {
        let set = DocSet::from_unsorted(vec![9, 3, 3, 7, 9]);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![3, 7, 9]);
    }
}
