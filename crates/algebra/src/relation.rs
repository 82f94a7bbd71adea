//! Relations: finite sets of tuples on a scheme (§1.2), with the
//! paper's padding/union conventions (§2.1) and set-level equivalence.

use crate::error::AlgebraError;
use crate::schema::{Schema, SchemaRef};
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A relation: a scheme plus a finite set of tuples.
///
/// Rows are stored in insertion order for cheap, deterministic
/// iteration; *set* semantics are enforced where the paper's
/// definitions require them — [`Relation::insert`] deduplicates, and
/// [`Relation::set_eq`] compares canonicalized sorted sets after
/// padding both sides to the union scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    schema: SchemaRef,
    rows: Vec<Tuple>,
}

impl Relation {
    /// An empty relation on the given scheme.
    #[must_use]
    pub fn empty(schema: SchemaRef) -> Relation {
        Relation {
            schema,
            rows: Vec::new(),
        }
    }

    /// Build a relation from a scheme and rows, deduplicating (hash
    /// set, not per-row scans — safe for millions of rows).
    ///
    /// # Errors
    /// Returns [`AlgebraError::BadArity`] if any row has the wrong
    /// number of values.
    pub fn new(schema: SchemaRef, rows: Vec<Tuple>) -> Result<Relation, AlgebraError> {
        let mut seen: std::collections::HashSet<Tuple> =
            std::collections::HashSet::with_capacity(rows.len());
        let mut kept = Vec::with_capacity(rows.len());
        for r in rows {
            if r.arity() != schema.len() {
                return Err(AlgebraError::BadArity {
                    expected: schema.len(),
                    got: r.arity(),
                });
            }
            if seen.insert(r.clone()) {
                kept.push(r);
            }
        }
        Ok(Relation { schema, rows: kept })
    }

    /// Convenience: a ground relation of integers.
    ///
    /// ```
    /// use fro_algebra::Relation;
    /// let r = Relation::from_ints("R", &["a", "b"], &[&[1, 2], &[3, 4]]);
    /// assert_eq!(r.len(), 2);
    /// ```
    #[must_use]
    pub fn from_ints(rel: &str, attrs: &[&str], rows: &[&[i64]]) -> Relation {
        let schema = Arc::new(Schema::of_relation(rel, attrs));
        let rows = rows
            .iter()
            .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
            .collect();
        Relation::new(schema, rows).expect("from_ints rows match schema arity")
    }

    /// Convenience: a ground relation from general values.
    #[must_use]
    pub fn from_values(rel: &str, attrs: &[&str], rows: Vec<Vec<Value>>) -> Relation {
        let schema = Arc::new(Schema::of_relation(rel, attrs));
        let rows = rows.into_iter().map(Tuple::new).collect();
        Relation::new(schema, rows).expect("from_values rows match schema arity")
    }

    /// The scheme of this relation.
    #[must_use]
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Number of tuples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the relation holds no tuples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The tuples, in insertion order.
    #[must_use]
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Iterate over tuples.
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.rows.iter()
    }

    /// Append rows the caller guarantees are distinct from each other
    /// and from every stored row — a pre-deduplicated base-table
    /// delta. Skips duplicate detection entirely (O(|delta|));
    /// distinctness and arity are checked in debug builds only, like
    /// [`Relation::from_distinct_rows`].
    pub fn extend_distinct(&mut self, rows: Vec<Tuple>) {
        debug_assert!(
            rows.iter().all(|t| t.arity() == self.schema.len()),
            "extend_distinct rows must match schema arity"
        );
        debug_assert!(
            {
                let mut seen: std::collections::HashSet<&Tuple> = self.rows.iter().collect();
                rows.iter().all(|t| seen.insert(t))
            },
            "extend_distinct rows must be distinct"
        );
        self.rows.extend(rows);
    }

    /// Remove the rows at `sorted_positions` (ascending, distinct, in
    /// range) by moving them out, returning them in stored order. The
    /// survivors keep their order; rows before the first position are
    /// not touched.
    pub fn remove_rows(&mut self, sorted_positions: &[usize]) -> Vec<Tuple> {
        debug_assert!(sorted_positions.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(sorted_positions.last().is_none_or(|&r| r < self.rows.len()));
        let Some(&first) = sorted_positions.first() else {
            return Vec::new();
        };
        let mut doomed = sorted_positions.iter().peekable();
        let mut r = first;
        self.rows
            .extract_if(first.., |_| {
                let hit = doomed.next_if_eq(&&r).is_some();
                r += 1;
                hit
            })
            .collect()
    }

    /// Insert a tuple (set semantics: duplicates are dropped).
    ///
    /// # Errors
    /// Returns [`AlgebraError::BadArity`] on arity mismatch.
    pub fn try_insert(&mut self, t: Tuple) -> Result<bool, AlgebraError> {
        if t.arity() != self.schema.len() {
            return Err(AlgebraError::BadArity {
                expected: self.schema.len(),
                got: t.arity(),
            });
        }
        if self.rows.contains(&t) {
            return Ok(false);
        }
        self.rows.push(t);
        Ok(true)
    }

    /// Insert a tuple, panicking on arity mismatch (builder use).
    pub fn insert(&mut self, t: Tuple) -> bool {
        self.try_insert(t).expect("tuple arity matches schema")
    }

    /// Build a relation from rows the caller guarantees are distinct
    /// (e.g. the output of a join over set-semantics inputs). Skips the
    /// per-row O(n) duplicate scan of [`Relation::insert`]; uniqueness
    /// and arity are checked in debug builds only.
    #[must_use]
    pub fn from_distinct_rows(schema: SchemaRef, rows: Vec<Tuple>) -> Relation {
        debug_assert!(
            rows.iter().all(|t| t.arity() == schema.len()),
            "row arity must match schema"
        );
        debug_assert_eq!(
            rows.iter().collect::<std::collections::HashSet<_>>().len(),
            rows.len(),
            "rows passed to from_distinct_rows must be distinct"
        );
        Relation { schema, rows }
    }

    /// The canonical form: attributes sorted, rows sorted and
    /// deduplicated. Two relations denote the same set of tuples iff
    /// their canonical forms are identical.
    #[must_use]
    pub fn canonical(&self) -> Relation {
        let (canon_schema, perm) = self.schema.canonical_order();
        let mut rows: Vec<Tuple> = self.rows.iter().map(|t| t.project(&perm)).collect();
        rows.sort();
        rows.dedup();
        Relation {
            schema: Arc::new(canon_schema),
            rows,
        }
    }

    /// Set equivalence under the paper's §2.1 comparison convention:
    /// pad both relations to the union of their schemes, then compare
    /// as sets.
    #[must_use]
    pub fn set_eq(&self, other: &Relation) -> bool {
        let union = self.schema.union(&other.schema);
        let a = self.pad_to(&union).canonical();
        let b = other.pad_to(&union).canonical();
        a.schema == b.schema && a.rows == b.rows
    }

    /// Pad every tuple to the larger scheme `to` (paper §1.2/§2.1).
    #[must_use]
    pub fn pad_to(&self, to: &Schema) -> Relation {
        if to == self.schema.as_ref() {
            return self.clone();
        }
        let to_ref = Arc::new(to.clone());
        let rows = self.rows.iter().map(|t| t.pad(&self.schema, to)).collect();
        Relation {
            schema: to_ref,
            rows,
        }
    }

    /// The set of rows as a `BTreeSet` (canonical layout), for diffing.
    #[must_use]
    pub fn row_set(&self) -> BTreeSet<Tuple> {
        self.canonical().rows.into_iter().collect()
    }

    /// Rename the ground-relation qualifier of every attribute
    /// (supports the paper's "several copies of the same relation with
    /// renamed attributes").
    #[must_use]
    pub fn renamed(&self, new_rel: &str) -> Relation {
        let attrs = self
            .schema
            .attrs()
            .iter()
            .map(|a| crate::schema::Attr::new(new_rel, a.name()))
            .collect();
        let schema = Arc::new(Schema::new(attrs).expect("renaming preserves distinctness"));
        Relation {
            schema,
            rows: self.rows.clone(),
        }
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for row in &self.rows {
            writeln!(f, "{row}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a Tuple;
    type IntoIter = std::slice::Iter<'a, Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.rows.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attr;

    #[test]
    fn insert_deduplicates() {
        let mut r = Relation::from_ints("R", &["a"], &[&[1]]);
        assert!(!r.insert(Tuple::new(vec![Value::Int(1)])));
        assert!(r.insert(Tuple::new(vec![Value::Int(2)])));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut r = Relation::from_ints("R", &["a"], &[]);
        let e = r.try_insert(Tuple::new(vec![Value::Int(1), Value::Int(2)]));
        assert!(matches!(
            e,
            Err(AlgebraError::BadArity {
                expected: 1,
                got: 2
            })
        ));
    }

    #[test]
    fn set_eq_ignores_row_and_column_order() {
        let a = Relation::from_ints("R", &["a", "b"], &[&[1, 2], &[3, 4]]);
        let schema = Arc::new(Schema::new(vec![Attr::parse("R.b"), Attr::parse("R.a")]).unwrap());
        let b = Relation::new(
            schema,
            vec![
                Tuple::new(vec![Value::Int(4), Value::Int(3)]),
                Tuple::new(vec![Value::Int(2), Value::Int(1)]),
            ],
        )
        .unwrap();
        assert!(a.set_eq(&b));
        assert!(b.set_eq(&a));
    }

    #[test]
    fn set_eq_pads_to_union_scheme() {
        // {(1)} over (R.a) equals {(1, null)} over (R.a, S.b) — the
        // paper's union/comparison convention.
        let a = Relation::from_ints("R", &["a"], &[&[1]]);
        let schema = Arc::new(Schema::new(vec![Attr::parse("R.a"), Attr::parse("S.b")]).unwrap());
        let b = Relation::new(schema, vec![Tuple::new(vec![Value::Int(1), Value::Null])]).unwrap();
        assert!(a.set_eq(&b));
    }

    #[test]
    fn set_eq_distinguishes_different_sets() {
        let a = Relation::from_ints("R", &["a"], &[&[1]]);
        let b = Relation::from_ints("R", &["a"], &[&[2]]);
        let c = Relation::from_ints("R", &["a"], &[&[1], &[2]]);
        assert!(!a.set_eq(&b));
        assert!(!a.set_eq(&c));
    }

    #[test]
    fn extend_distinct_appends_in_stored_order() {
        let mut r = Relation::from_ints("R", &["a"], &[&[1], &[2]]);
        r.extend_distinct(vec![
            Tuple::new(vec![Value::Int(3)]),
            Tuple::new(vec![Value::Int(4)]),
        ]);
        assert_eq!(r.len(), 4);
        assert_eq!(r.rows()[2], Tuple::new(vec![Value::Int(3)]));
        assert_eq!(r.rows()[3], Tuple::new(vec![Value::Int(4)]));
    }

    #[test]
    fn remove_rows_moves_out_in_stored_order() {
        let mut r = Relation::from_ints("R", &["a"], &[&[1], &[2], &[3], &[4], &[5]]);
        let removed = r.remove_rows(&[1, 3, 4]);
        let ints = |ts: &[Tuple]| -> Vec<Value> { ts.iter().map(|t| t.get(0).clone()).collect() };
        assert_eq!(
            ints(&removed),
            [Value::Int(2), Value::Int(4), Value::Int(5)]
        );
        assert_eq!(ints(r.rows()), [Value::Int(1), Value::Int(3)]);
        assert!(r.remove_rows(&[]).is_empty());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn canonical_sorts_and_dedups() {
        let r = Relation::from_ints("R", &["a"], &[&[3], &[1], &[2]]);
        let c = r.canonical();
        let vals: Vec<i64> = c
            .rows()
            .iter()
            .map(|t| match t.get(0) {
                Value::Int(v) => *v,
                _ => panic!(),
            })
            .collect();
        assert_eq!(vals, vec![1, 2, 3]);
    }

    #[test]
    fn renamed_changes_qualifier_only() {
        let r = Relation::from_ints("R", &["a"], &[&[1]]);
        let s = r.renamed("R2");
        assert!(s.schema().contains(&Attr::parse("R2.a")));
        assert_eq!(s.len(), 1);
        assert!(!r.set_eq(&s)); // different schemes → different sets
    }

    #[test]
    fn pad_to_same_scheme_is_clone() {
        let r = Relation::from_ints("R", &["a"], &[&[1]]);
        let p = r.pad_to(r.schema());
        assert_eq!(p, r);
    }

    #[test]
    fn display_prints_header_and_rows() {
        let r = Relation::from_ints("R", &["a"], &[&[1]]);
        let s = r.to_string();
        assert!(s.contains("R.a"));
        assert!(s.contains("(1)"));
    }
}
