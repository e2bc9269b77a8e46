//! A fast, non-cryptographic hasher (the `FxHash` algorithm used by
//! rustc), plus map/set type aliases.
//!
//! The default SipHash protects against HashDoS, which is irrelevant
//! here: every key hashed by the index is produced by our own analyzer
//! over our own corpora. Term-frequency accumulation during indexing and
//! score accumulation during search are the two hottest hash workloads
//! in the crate, and both use small integer or short-string keys where
//! FxHash wins decisively.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub(crate) type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub(crate) type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc `FxHash` word-at-a-time multiply-rotate hasher.
#[derive(Default, Clone)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = [0u8; 8];
            word[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_keys_hash_identically() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write(b"symphony");
        b.write(b"symphony");
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn different_keys_hash_differently() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write(b"symphony");
        b.write(b"symphonz");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<&str, u32> = FxHashMap::default();
        m.insert("a", 1);
        m.insert("b", 2);
        assert_eq!(m.get("a"), Some(&1));
        assert_eq!(m.get("b"), Some(&2));
        assert_eq!(m.get("c"), None);
    }

    #[test]
    fn integer_writes_match_byte_writes_semantics() {
        // Not required to be equal to `write`, just deterministic.
        let mut a = FxHasher::default();
        a.write_u32(42);
        let mut b = FxHasher::default();
        b.write_u32(42);
        assert_eq!(a.finish(), b.finish());
    }
}
