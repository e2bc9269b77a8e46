//! Secondary indexes: hash (point lookups) and ordered (ranges).

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

use crate::table::RecordId;
use crate::value::{Value, ValueKey};

/// [`Value`] wrapper whose `Ord` is [`Value::cmp_total`], so it can key
/// a `BTreeMap`.
#[derive(Debug, Clone)]
pub struct OrdValue(pub Value);

impl PartialEq for OrdValue {
    fn eq(&self, other: &Self) -> bool {
        self.0.cmp_total(&other.0) == std::cmp::Ordering::Equal
    }
}
impl Eq for OrdValue {}
impl PartialOrd for OrdValue {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdValue {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp_total(&other.0)
    }
}

/// An optional inclusive bound as a [`Bound`].
fn inclusive(v: Option<&Value>) -> Bound<&Value> {
    v.map_or(Bound::Unbounded, Bound::Included)
}

/// Which index structure backs a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Hash index: O(1) equality.
    Hash,
    /// Ordered index: equality + ranges.
    Ordered,
}

/// A secondary index over one column.
#[derive(Debug)]
pub enum SecondaryIndex {
    /// Hash-backed.
    Hash {
        /// Indexed column.
        col: usize,
        /// Value -> record ids (insertion-ordered).
        map: HashMap<ValueKey, Vec<RecordId>>,
        /// Total entries across all keys (maintained, O(1) to read).
        len: usize,
    },
    /// Ordered (B-tree-backed).
    Ordered {
        /// Indexed column.
        col: usize,
        /// Value -> record ids (insertion-ordered).
        map: BTreeMap<OrdValue, Vec<RecordId>>,
        /// Total entries across all keys (maintained, O(1) to read).
        len: usize,
    },
}

impl SecondaryIndex {
    /// Create an empty index of `kind` over `col`.
    pub(crate) fn new(kind: IndexKind, col: usize) -> SecondaryIndex {
        match kind {
            IndexKind::Hash => SecondaryIndex::Hash {
                col,
                map: HashMap::new(),
                len: 0,
            },
            IndexKind::Ordered => SecondaryIndex::Ordered {
                col,
                map: BTreeMap::new(),
                len: 0,
            },
        }
    }

    /// Indexed column.
    pub(crate) fn col(&self) -> usize {
        match self {
            SecondaryIndex::Hash { col, .. } | SecondaryIndex::Ordered { col, .. } => *col,
        }
    }

    /// The structure kind.
    pub(crate) fn kind(&self) -> IndexKind {
        match self {
            SecondaryIndex::Hash { .. } => IndexKind::Hash,
            SecondaryIndex::Ordered { .. } => IndexKind::Ordered,
        }
    }

    /// Register a record's value.
    pub(crate) fn insert(&mut self, value: &Value, id: RecordId) {
        match self {
            SecondaryIndex::Hash { map, len, .. } => {
                map.entry(value.hash_key()).or_default().push(id);
                *len += 1;
            }
            SecondaryIndex::Ordered { map, len, .. } => {
                map.entry(OrdValue(value.clone())).or_default().push(id);
                *len += 1;
            }
        }
    }

    /// Remove a record's value (no-op if absent).
    pub(crate) fn remove(&mut self, value: &Value, id: RecordId) {
        match self {
            SecondaryIndex::Hash { map, len, .. } => {
                if let Entry::Occupied(mut e) = map.entry(value.hash_key()) {
                    let before = e.get().len();
                    e.get_mut().retain(|&r| r != id);
                    *len -= before - e.get().len();
                    if e.get().is_empty() {
                        e.remove();
                    }
                }
            }
            SecondaryIndex::Ordered { map, len, .. } => {
                let key = OrdValue(value.clone());
                if let Some(ids) = map.get_mut(&key) {
                    let before = ids.len();
                    ids.retain(|&r| r != id);
                    *len -= before - ids.len();
                    if ids.is_empty() {
                        map.remove(&key);
                    }
                }
            }
        }
    }

    /// Total indexed entries (records with a value in this index),
    /// maintained as a counter — O(1), never a scan.
    #[cfg(test)]
    pub(crate) fn cardinality(&self) -> usize {
        match self {
            SecondaryIndex::Hash { len, .. } | SecondaryIndex::Ordered { len, .. } => *len,
        }
    }

    /// Exact number of records equal to `value` — O(1) hash probe or
    /// one B-tree descent; no list is cloned.
    pub(crate) fn count_eq(&self, value: &Value) -> usize {
        match self {
            SecondaryIndex::Hash { map, .. } => {
                map.get(&value.hash_key()).map_or(0, |ids| ids.len())
            }
            SecondaryIndex::Ordered { map, .. } => {
                map.get(&OrdValue(value.clone())).map_or(0, |ids| ids.len())
            }
        }
    }

    /// Exact number of records in `[low, high]` (inclusive bounds,
    /// `None` = unbounded). `None` for hash indexes, which cannot
    /// answer ranges. Costs one B-tree walk over the touched keys but
    /// copies no record ids.
    pub(crate) fn count_range(&self, low: Option<&Value>, high: Option<&Value>) -> Option<usize> {
        Some(
            self.range_runs(inclusive(low), inclusive(high))?
                .map(<[RecordId]>::len)
                .sum(),
        )
    }

    /// Record ids equal to `value`, borrowed from the index.
    pub(crate) fn ids_eq(&self, value: &Value) -> &[RecordId] {
        match self {
            SecondaryIndex::Hash { map, .. } => map.get(&value.hash_key()),
            SecondaryIndex::Ordered { map, .. } => map.get(&OrdValue(value.clone())),
        }
        .map_or(&[], Vec::as_slice)
    }

    /// Record ids equal to `value`.
    pub(crate) fn lookup_eq(&self, value: &Value) -> Vec<RecordId> {
        self.ids_eq(value).to_vec()
    }

    /// The per-key id lists between two bounds, in key order, borrowed
    /// from the index. `None` for hash indexes. An inverted interval
    /// (`x > 9 AND x < 3`) is empty, not a panic.
    pub(crate) fn range_runs(
        &self,
        low: Bound<&Value>,
        high: Bound<&Value>,
    ) -> Option<impl Iterator<Item = &[RecordId]>> {
        let SecondaryIndex::Ordered { map, .. } = self else {
            return None;
        };
        // `BTreeMap::range` panics on exactly these intervals.
        let inverted = match (low, high) {
            (Bound::Included(l) | Bound::Excluded(l), Bound::Included(h) | Bound::Excluded(h)) => {
                match l.cmp_total(h) {
                    Ordering::Less => false,
                    Ordering::Equal => {
                        matches!((low, high), (Bound::Excluded(_), Bound::Excluded(_)))
                    }
                    Ordering::Greater => true,
                }
            }
            _ => false,
        };
        let key = |b: Bound<&Value>| b.map(|v| OrdValue(v.clone()));
        Some(
            (!inverted)
                .then(|| map.range((key(low), key(high))))
                .into_iter()
                .flatten()
                .map(|(_, ids)| ids.as_slice()),
        )
    }

    /// Record ids in `[low, high]` (inclusive bounds; `None` =
    /// unbounded). Only ordered indexes support ranges.
    #[cfg(test)]
    pub(crate) fn lookup_range(
        &self,
        low: Option<&Value>,
        high: Option<&Value>,
    ) -> Option<Vec<RecordId>> {
        Some(
            self.range_runs(inclusive(low), inclusive(high))?
                .flatten()
                .copied()
                .collect(),
        )
    }

    /// Per-key `(value, count)` pairs in key order — the facet fast
    /// path: one tree walk over maintained lists, no record touched.
    /// `None` for hash indexes, whose keys are one-way hashes.
    pub(crate) fn value_counts(&self) -> Option<Vec<(Value, usize)>> {
        match self {
            SecondaryIndex::Hash { .. } => None,
            SecondaryIndex::Ordered { map, .. } => Some(
                map.iter()
                    .map(|(k, ids)| (k.0.clone(), ids.len()))
                    .collect(),
            ),
        }
    }

    /// Number of distinct keys.
    #[cfg(test)]
    pub(crate) fn distinct_keys(&self) -> usize {
        match self {
            SecondaryIndex::Hash { map, .. } => map.len(),
            SecondaryIndex::Ordered { map, .. } => map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: Vec<u32>) -> Vec<RecordId> {
        v.into_iter().map(RecordId).collect()
    }

    #[test]
    fn hash_index_eq_lookup() {
        let mut ix = SecondaryIndex::new(IndexKind::Hash, 0);
        ix.insert(&Value::Text("a".into()), RecordId(1));
        ix.insert(&Value::Text("a".into()), RecordId(2));
        ix.insert(&Value::Text("b".into()), RecordId(3));
        assert_eq!(ix.lookup_eq(&Value::Text("a".into())), ids(vec![1, 2]));
        assert_eq!(ix.lookup_eq(&Value::Text("zz".into())), ids(vec![]));
        assert!(ix.lookup_range(None, None).is_none());
    }

    #[test]
    fn ordered_index_range_lookup() {
        let mut ix = SecondaryIndex::new(IndexKind::Ordered, 1);
        for (i, v) in [10, 20, 30, 40].iter().enumerate() {
            ix.insert(&Value::Int(*v), RecordId(i as u32));
        }
        let got = ix
            .lookup_range(Some(&Value::Int(15)), Some(&Value::Int(35)))
            .unwrap();
        assert_eq!(got, ids(vec![1, 2]));
        let all = ix.lookup_range(None, None).unwrap();
        assert_eq!(all.len(), 4);
        let open_high = ix.lookup_range(Some(&Value::Int(30)), None).unwrap();
        assert_eq!(open_high, ids(vec![2, 3]));
    }

    #[test]
    fn ordered_index_mixed_numeric_keys_merge() {
        let mut ix = SecondaryIndex::new(IndexKind::Ordered, 0);
        ix.insert(&Value::Int(2), RecordId(0));
        ix.insert(&Value::Float(2.0), RecordId(1));
        // Int(2) and Float(2.0) compare equal under cmp_total, so they
        // share one key.
        assert_eq!(ix.distinct_keys(), 1);
        assert_eq!(ix.lookup_eq(&Value::Int(2)), ids(vec![0, 1]));
    }

    #[test]
    fn remove_cleans_up_empty_keys() {
        let mut ix = SecondaryIndex::new(IndexKind::Hash, 0);
        ix.insert(&Value::Int(1), RecordId(0));
        ix.remove(&Value::Int(1), RecordId(0));
        assert_eq!(ix.distinct_keys(), 0);
        // Removing again is a no-op.
        ix.remove(&Value::Int(1), RecordId(0));
    }

    #[test]
    fn remove_only_target_id() {
        let mut ix = SecondaryIndex::new(IndexKind::Ordered, 0);
        ix.insert(&Value::Int(1), RecordId(0));
        ix.insert(&Value::Int(1), RecordId(1));
        ix.remove(&Value::Int(1), RecordId(0));
        assert_eq!(ix.lookup_eq(&Value::Int(1)), ids(vec![1]));
    }

    #[test]
    fn cardinality_counter_tracks_inserts_and_removes() {
        for kind in [IndexKind::Hash, IndexKind::Ordered] {
            let mut ix = SecondaryIndex::new(kind, 0);
            assert_eq!(ix.cardinality(), 0);
            ix.insert(&Value::Int(1), RecordId(0));
            ix.insert(&Value::Int(1), RecordId(1));
            ix.insert(&Value::Int(2), RecordId(2));
            assert_eq!(ix.cardinality(), 3);
            assert_eq!(ix.count_eq(&Value::Int(1)), 2);
            assert_eq!(ix.count_eq(&Value::Int(9)), 0);
            ix.remove(&Value::Int(1), RecordId(0));
            assert_eq!(ix.cardinality(), 2);
            // Removing an absent (value, id) pair must not decrement.
            ix.remove(&Value::Int(1), RecordId(0));
            ix.remove(&Value::Int(7), RecordId(0));
            assert_eq!(ix.cardinality(), 2);
        }
    }

    #[test]
    fn count_range_matches_lookup_range() {
        let mut ix = SecondaryIndex::new(IndexKind::Ordered, 0);
        for (i, v) in [10, 20, 20, 30, 40].iter().enumerate() {
            ix.insert(&Value::Int(*v), RecordId(i as u32));
        }
        for (lo, hi) in [
            (None, None),
            (Some(15), None),
            (None, Some(25)),
            (Some(20), Some(20)),
            (Some(99), None),
        ] {
            let lo = lo.map(Value::Int);
            let hi = hi.map(Value::Int);
            let listed = ix.lookup_range(lo.as_ref(), hi.as_ref()).unwrap().len();
            assert_eq!(ix.count_range(lo.as_ref(), hi.as_ref()), Some(listed));
        }
        let hash = SecondaryIndex::new(IndexKind::Hash, 0);
        assert_eq!(hash.count_range(None, None), None);
    }

    #[test]
    fn null_values_are_indexable() {
        let mut ix = SecondaryIndex::new(IndexKind::Hash, 0);
        ix.insert(&Value::Null, RecordId(5));
        assert_eq!(ix.lookup_eq(&Value::Null), ids(vec![5]));
    }
}
