//! Hash indexes over base tables.
//!
//! Example 1 assumes "these keys have indexes"; a hash index maps a key
//! tuple to the row ids holding it, so an index join retrieves exactly
//! the matching tuples instead of scanning. Null key values are not
//! indexed — an equality predicate can never evaluate to `True` on a
//! null, so null-keyed rows are unreachable through the index by
//! construction (this matters for outerjoins over nullable columns).

use fro_algebra::{Relation, Value};
use std::collections::HashMap;

/// A hash index on one or more columns of a base table.
#[derive(Debug, Clone)]
pub struct HashIndex {
    key_cols: Vec<usize>,
    map: HashMap<Vec<Value>, Vec<usize>>,
}

impl HashIndex {
    /// Build an index over the given column positions of `rel`.
    #[must_use]
    pub fn build(rel: &Relation, key_cols: Vec<usize>) -> HashIndex {
        let mut idx = HashIndex {
            key_cols,
            map: HashMap::new(),
        };
        idx.insert_rows(rel, 0);
        idx
    }

    /// Index the rows of `rel` from position `from` onward — the
    /// O(|delta|) maintenance path behind base-table appends. Row ids
    /// already indexed stay untouched, so `from` must be the length
    /// the relation had when the index last saw it.
    pub fn insert_rows(&mut self, rel: &Relation, from: usize) {
        'rows: for (off, row) in rel.rows()[from..].iter().enumerate() {
            let mut key = Vec::with_capacity(self.key_cols.len());
            for &c in &self.key_cols {
                let v = row.get(c);
                if v.is_null() {
                    continue 'rows; // null keys never match equality
                }
                key.push(v.clone());
            }
            self.map.entry(key).or_default().push(from + off);
        }
    }

    /// Forget the rows at `sorted_positions` (ascending, distinct) of
    /// the indexed relation and renumber the survivors to the ids they
    /// have once those rows are removed in place. One pass over the
    /// stored ids and no key is rehashed; ids keep ascending within
    /// each key, and keys left with no row are dropped, exactly as
    /// [`HashIndex::build`] over the survivors would have them.
    pub fn remove_rows(&mut self, sorted_positions: &[usize]) {
        let Some(&first) = sorted_positions.first() else {
            return;
        };
        self.map.retain(|_, ids| {
            ids.retain_mut(|id| {
                if *id < first {
                    return true;
                }
                match sorted_positions.binary_search(id) {
                    Ok(_) => false,
                    Err(below) => {
                        *id -= below;
                        true
                    }
                }
            });
            !ids.is_empty()
        });
    }

    /// The indexed column positions.
    #[must_use]
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    /// Row ids matching a key (empty for unknown or null keys).
    #[must_use]
    pub fn lookup(&self, key: &[Value]) -> &[usize] {
        if key.iter().any(Value::is_null) {
            return &[];
        }
        self.map.get(key).map_or(&[], Vec::as_slice)
    }

    /// Number of distinct keys.
    #[must_use]
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel() -> Relation {
        Relation::from_values(
            "R",
            &["k", "v"],
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Int(20)],
                vec![Value::Int(1), Value::Int(11)],
                vec![Value::Null, Value::Int(99)],
            ],
        )
    }

    #[test]
    fn lookup_returns_matching_rows() {
        let idx = HashIndex::build(&rel(), vec![0]);
        assert_eq!(idx.lookup(&[Value::Int(1)]), &[0, 2]);
        assert_eq!(idx.lookup(&[Value::Int(2)]), &[1]);
        assert!(idx.lookup(&[Value::Int(7)]).is_empty());
    }

    #[test]
    fn null_keys_not_indexed_and_not_matched() {
        let idx = HashIndex::build(&rel(), vec![0]);
        assert!(idx.lookup(&[Value::Null]).is_empty());
        assert_eq!(idx.distinct_keys(), 2);
    }

    #[test]
    fn remove_rows_renumbers_like_a_rebuild() {
        let mut r = rel();
        let mut idx = HashIndex::build(&r, vec![0]);
        r.remove_rows(&[0, 1]);
        idx.remove_rows(&[0, 1]);
        let rebuilt = HashIndex::build(&r, vec![0]);
        assert_eq!(idx.lookup(&[Value::Int(1)]), &[0]);
        assert_eq!(
            idx.lookup(&[Value::Int(1)]),
            rebuilt.lookup(&[Value::Int(1)])
        );
        assert!(idx.lookup(&[Value::Int(2)]).is_empty());
        assert_eq!(idx.distinct_keys(), rebuilt.distinct_keys());
    }

    #[test]
    fn composite_keys() {
        let idx = HashIndex::build(&rel(), vec![0, 1]);
        assert_eq!(idx.lookup(&[Value::Int(1), Value::Int(11)]), &[2]);
        assert!(idx.lookup(&[Value::Int(1), Value::Int(12)]).is_empty());
        assert_eq!(idx.key_cols(), &[0, 1]);
    }
}
