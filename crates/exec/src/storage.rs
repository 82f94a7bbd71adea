//! In-memory storage: tables plus their hash indexes, resolved through
//! dense `RelId`-indexed **shards**.
//!
//! Tables live in fixed-size shards of [`SHARD_SIZE`] consecutive
//! [`RelId`]s: shard `i` holds ids `[i·SHARD_SIZE, (i+1)·SHARD_SIZE)`.
//! An id lookup is still two bounds-checked array reads (shard, slot) —
//! no hashing, no string compare — while [`Storage::shards`] exposes
//! the id-range decomposition so bulk passes (statistics refresh,
//! catalog scans, parallel loaders) can claim disjoint contiguous id
//! ranges without coordinating. Growing a new shard never moves
//! existing tables, unlike a reallocating flat vector.
//!
//! Names are interned exactly once, at [`Storage::insert`]; every later
//! lookup is an array index. Names legitimately enter at registration
//! time ([`Storage::insert`], [`Storage::create_index`]); the public
//! read surface is id-keyed, and name-keyed reads stay crate-private
//! (the engine resolves plan-embedded names through them).
//!
//! Storage carries its own epoch counter, bumped by every data or
//! index mutation, so a session can notice that its derived catalog
//! (and therefore the catalog's plan cache) is out of date.

use crate::engine::ExecError;
use crate::index::HashIndex;
use fro_algebra::{Attr, ColumnSet, Database, Interner, RelId, Relation, Tuple, Value};
use std::collections::HashSet;

/// A stored base table: the relation, its columnar mirror, and any
/// indexes built on it.
///
/// The [`ColumnSet`] is built at registration and kept alongside the
/// row-major relation (a hybrid layout): engines read the typed column
/// vectors for predicate scans, hash builds, and statistics, while
/// output assembly still clones `Tuple`s from the row store — which is
/// what keeps columnar execution bit-identical to the row-major paths.
/// Appends maintain the mirror and any indexes in place (O(|delta|))
/// instead of rebuilding them.
#[derive(Debug, Clone)]
pub struct Table {
    rel: Relation,
    columns: ColumnSet,
    indexes: Vec<HashIndex>,
    /// Append-acceleration state: an exact row set (novelty checks
    /// under set semantics) plus one value set per column (exact
    /// distinct counts), built O(base) on the first append and
    /// maintained O(|delta|) afterwards. `None` until a table sees its
    /// first append; dropped whenever the table is replaced wholesale.
    append_state: Option<AppendState>,
}

#[derive(Debug, Clone)]
struct AppendState {
    row_set: HashSet<Tuple>,
    value_sets: Vec<HashSet<Value>>,
}

impl AppendState {
    fn over(rel: &Relation) -> AppendState {
        let mut row_set = HashSet::with_capacity(rel.len());
        let mut value_sets = vec![HashSet::new(); rel.schema().len()];
        for t in rel.rows() {
            for (c, set) in value_sets.iter_mut().enumerate() {
                set.insert(t.get(c).clone());
            }
            row_set.insert(t.clone());
        }
        AppendState {
            row_set,
            value_sets,
        }
    }
}

impl Table {
    /// Wrap a relation with no indexes, building its columnar mirror.
    #[must_use]
    pub fn new(rel: Relation) -> Table {
        let columns = ColumnSet::build(&rel);
        Table {
            rel,
            columns,
            indexes: Vec::new(),
            append_state: None,
        }
    }

    /// Append `rows` under set semantics, returning the novel suffix
    /// actually stored (possibly empty if every row was already
    /// present) or `None` on an arity mismatch. Maintains the row
    /// store, the columnar mirror (typed vectors, validity, zones,
    /// exact distinct counts), and every index in place — O(|delta|)
    /// once the append state is warm. The columnar mirror falls back
    /// to a full rebuild only when a value cannot join its column's
    /// existing layout (new type, or a string the sealed dictionary
    /// has never seen).
    fn append_novel(&mut self, rows: Vec<Tuple>) -> Option<Vec<Tuple>> {
        let arity = self.rel.schema().len();
        if rows.iter().any(|t| t.arity() != arity) {
            return None;
        }
        let state = self
            .append_state
            .get_or_insert_with(|| AppendState::over(&self.rel));
        let mut novel = Vec::new();
        for t in rows {
            if state.row_set.insert(t.clone()) {
                for (c, set) in state.value_sets.iter_mut().enumerate() {
                    set.insert(t.get(c).clone());
                }
                novel.push(t);
            }
        }
        if novel.is_empty() {
            return Some(novel);
        }
        let distinct: Vec<u64> = state.value_sets.iter().map(|s| s.len() as u64).collect();
        let old_len = self.rel.len();
        self.rel.extend_distinct(novel.clone());
        if !self.columns.append_rows(&novel, &distinct) {
            self.columns = ColumnSet::build(&self.rel);
        }
        for ix in &mut self.indexes {
            ix.insert_rows(&self.rel, old_len);
        }
        Some(novel)
    }

    /// Remove every stored row that appears in `rows`, returning the
    /// removed rows (possibly none). The survivors keep their stored
    /// order; the columnar mirror and every index are rebuilt over them
    /// and the append state is dropped, as for a wholesale replacement.
    fn remove_rows(&mut self, rows: &[Tuple]) -> Vec<Tuple> {
        let doomed: HashSet<&Tuple> = rows.iter().collect();
        let (removed, kept): (Vec<Tuple>, Vec<Tuple>) = self
            .rel
            .rows()
            .iter()
            .cloned()
            .partition(|t| doomed.contains(t));
        if removed.is_empty() {
            return removed;
        }
        let rel = Relation::from_distinct_rows(self.rel.schema().clone(), kept);
        let indexes = self
            .indexes
            .iter()
            .map(|ix| HashIndex::build(&rel, ix.key_cols().to_vec()))
            .collect();
        *self = Table {
            indexes,
            ..Table::new(rel)
        };
        removed
    }

    /// The underlying relation.
    #[must_use]
    pub fn relation(&self) -> &Relation {
        &self.rel
    }

    /// The columnar mirror: typed per-attribute vectors with validity
    /// bitmaps, zone min/max metadata, and the per-table string
    /// dictionary.
    #[must_use]
    pub fn columns(&self) -> &ColumnSet {
        &self.columns
    }

    /// Build (or rebuild) an index on the given attributes.
    ///
    /// Returns `false` (building nothing) if any attribute is missing.
    pub fn create_index(&mut self, attrs: &[Attr]) -> bool {
        let mut cols = Vec::with_capacity(attrs.len());
        for a in attrs {
            match self.rel.schema().index_of(a) {
                Some(c) => cols.push(c),
                None => return false,
            }
        }
        cols.sort_unstable();
        self.indexes.push(HashIndex::build(&self.rel, cols));
        true
    }

    /// All indexes on this table.
    #[must_use]
    pub fn indexes(&self) -> &[HashIndex] {
        &self.indexes
    }

    /// An index whose key columns exactly match `cols` (sorted).
    #[must_use]
    pub fn index_on(&self, cols: &[usize]) -> Option<&HashIndex> {
        let mut want = cols.to_vec();
        want.sort_unstable();
        self.indexes.iter().find(|ix| ix.key_cols() == want)
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rel.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rel.is_empty()
    }
}

/// Id-range width of one storage shard: [`SHARD_SIZE`] consecutive
/// [`RelId`]s per shard, split off the id by shift/mask.
const SHARD_BITS: u32 = 4;
/// Tables per shard (`1 << SHARD_BITS`).
pub const SHARD_SIZE: usize = 1 << SHARD_BITS;
const SHARD_MASK: usize = SHARD_SIZE - 1;

/// A set of tables, stored densely by [`RelId`] across fixed-size
/// shards, with an interner owning the name mapping.
#[derive(Debug, Clone, Default)]
pub struct Storage {
    interner: Interner,
    /// `shards[s][i]` is the table with `RelId` `s * SHARD_SIZE + i`.
    /// All shards but the last are exactly `SHARD_SIZE` long.
    shards: Vec<Vec<Table>>,
    /// Total registered tables (dense: ids `0..n_tables` are all live).
    n_tables: usize,
    epoch: u64,
}

impl Storage {
    /// Empty storage.
    #[must_use]
    pub fn new() -> Storage {
        Storage::default()
    }

    /// Load every relation of a [`Database`] as an unindexed table.
    #[must_use]
    pub fn from_database(db: &Database) -> Storage {
        let mut s = Storage::new();
        for (name, rel) in db.iter() {
            s.insert(name, rel.clone());
        }
        s
    }

    /// Export as a [`Database`] (for cross-checking against the
    /// reference evaluator).
    #[must_use]
    pub fn to_database(&self) -> Database {
        let mut db = Database::new();
        for (name, t) in self.iter() {
            db.insert_named(name.to_owned(), t.relation().clone());
        }
        db
    }

    /// Register a table: interns the name (once) and places the table
    /// in the dense slot its [`RelId`] names — growing a fresh shard
    /// when the last one is full. Re-inserting a name replaces the
    /// table under the same id. Existing tables never move.
    pub fn insert(&mut self, name: impl Into<String>, rel: Relation) -> &mut Table {
        let name = name.into();
        let id = self.interner.register_relation(&name, rel.schema());
        let i = id.index();
        let table = Table::new(rel);
        if i == self.n_tables {
            if i >> SHARD_BITS == self.shards.len() {
                self.shards.push(Vec::with_capacity(SHARD_SIZE));
            }
            self.shards[i >> SHARD_BITS].push(table);
            self.n_tables += 1;
        } else {
            self.shards[i >> SHARD_BITS][i & SHARD_MASK] = table;
        }
        self.epoch += 1;
        &mut self.shards[i >> SHARD_BITS][i & SHARD_MASK]
    }

    /// Append `rows` to `name`'s table in place, returning the novel
    /// rows actually stored (set semantics absorb duplicates, so the
    /// result can be empty) or `None` when the table is unknown or a
    /// row's arity doesn't fit its scheme. Unlike [`Storage::insert`],
    /// nothing is rebuilt: the columnar mirror, indexes, and exact
    /// per-column distinct counts are all maintained O(|delta|). Bumps
    /// the epoch only when something was stored.
    pub fn append_rows(&mut self, name: &str, rows: Vec<Tuple>) -> Option<Vec<Tuple>> {
        let novel = self.get_named_mut(name)?.append_novel(rows)?;
        if !novel.is_empty() {
            self.epoch += 1;
        }
        Some(novel)
    }

    /// Delete `rows` from `name`'s table, returning the rows actually
    /// removed (rows not stored are ignored, so the result can be
    /// empty) or `None` when the table is unknown. The table keeps its
    /// indexes, rebuilt over the surviving rows. Bumps the epoch only
    /// when something was removed.
    pub fn delete_rows(&mut self, name: &str, rows: &[Tuple]) -> Option<Vec<Tuple>> {
        let removed = self.get_named_mut(name)?.remove_rows(rows);
        if !removed.is_empty() {
            self.epoch += 1;
        }
        Some(removed)
    }

    /// Name-keyed mutable table access for the in-place edit paths.
    fn get_named_mut(&mut self, name: &str) -> Option<&mut Table> {
        let i = self.interner.rel_id(name)?.index();
        self.shards
            .get_mut(i >> SHARD_BITS)
            .and_then(|s| s.get_mut(i & SHARD_MASK))
    }

    /// The data epoch: incremented by every table insert or index
    /// build. A session compares it against the epoch its derived
    /// catalog was built from to know when to refresh statistics.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The interner owning this storage's name ↔ id mapping.
    #[must_use]
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Resolve a table name to its dense id.
    #[must_use]
    pub fn rel_id(&self, name: &str) -> Option<RelId> {
        self.interner.rel_id(name)
    }

    /// Look up a table by dense id — the hot path: two bounds-checked
    /// array reads (shard, slot), no hashing, no string compare.
    #[must_use]
    pub fn get_by_id(&self, id: RelId) -> Option<&Table> {
        let i = id.index();
        self.shards
            .get(i >> SHARD_BITS)
            .and_then(|s| s.get(i & SHARD_MASK))
    }

    /// Number of registered tables (dense ids `0..n_tables()`).
    #[must_use]
    pub fn n_tables(&self) -> usize {
        self.n_tables
    }

    /// The id-range shards: `(first_id, tables)` pairs where `tables[i]`
    /// has id `first_id + i`. Shards partition `0..n_tables()` into
    /// contiguous runs of at most [`SHARD_SIZE`] ids, so bulk passes
    /// can fan out one worker per shard and cover every table exactly
    /// once with no coordination beyond the shard index.
    pub fn shards(&self) -> impl Iterator<Item = (RelId, &[Table])> {
        self.shards
            .iter()
            .enumerate()
            .map(|(s, tables)| (RelId::from_index(s << SHARD_BITS), tables.as_slice()))
    }

    /// Name-keyed table read, always available inside the crate (the
    /// engine resolves plan-embedded names through this).
    pub(crate) fn get_named(&self, name: &str) -> Option<&Table> {
        self.rel_id(name).and_then(|id| self.get_by_id(id))
    }

    /// Name-keyed lookup with a diagnosable error: the unknown name
    /// plus the nearest catalog name (by edit distance), when one is
    /// plausibly close.
    pub(crate) fn lookup_named(&self, name: &str) -> Result<&Table, ExecError> {
        self.get_named(name).ok_or_else(|| ExecError::UnknownTable {
            name: name.to_owned(),
            suggestion: self.interner.suggest(name).map(str::to_owned),
        })
    }

    /// Create an index on `rel_name(attrs…)`; `false` if missing.
    pub fn create_index(&mut self, rel_name: &str, attrs: &[Attr]) -> bool {
        let Some(t) = self.get_named_mut(rel_name) else {
            return false;
        };
        let built = t.create_index(attrs);
        if built {
            self.epoch += 1;
        }
        built
    }

    /// Iterate `(name, table)` pairs in name order (deterministic
    /// regardless of insertion order).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Table)> {
        let mut ids: Vec<RelId> = (0..self.n_tables).map(RelId::from_index).collect();
        ids.sort_by_key(|&id| self.interner.rel_name(id));
        ids.into_iter().map(|id| {
            let t = self.get_by_id(id).expect("dense id within n_tables");
            (self.interner.rel_name(id), t)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_database() {
        let mut db = Database::new();
        db.insert(Relation::from_ints("R", &["a"], &[&[1], &[2]]));
        let s = Storage::from_database(&db);
        assert_eq!(s.get_named("R").unwrap().len(), 2);
        let back = s.to_database();
        assert!(back.get("R").unwrap().set_eq(db.get("R").unwrap()));
    }

    #[test]
    fn index_creation_and_lookup() {
        let mut s = Storage::new();
        s.insert(
            "R",
            Relation::from_ints("R", &["k", "v"], &[&[1, 5], &[2, 6]]),
        );
        assert!(s.create_index("R", &[Attr::parse("R.k")]));
        assert!(!s.create_index("R", &[Attr::parse("R.zzz")]));
        assert!(!s.create_index("Q", &[Attr::parse("Q.k")]));
        let t = s.get_named("R").unwrap();
        assert!(t.index_on(&[0]).is_some());
        assert!(t.index_on(&[1]).is_none());
    }

    #[test]
    fn table_empty_check() {
        let t = Table::new(Relation::from_ints("R", &["a"], &[]));
        assert!(t.is_empty());
    }

    #[test]
    fn sharding_keeps_ids_dense_across_many_tables() {
        let mut s = Storage::new();
        let n = SHARD_SIZE * 3 + 5; // several full shards plus a partial
        for i in 0..n {
            s.insert(
                format!("T{i:03}"),
                Relation::from_ints(&format!("T{i:03}"), &["a"], &[&[i as i64]]),
            );
        }
        assert_eq!(s.n_tables(), n);
        assert_eq!(s.shards().count(), 4);
        // Every id resolves, and shards partition the id space in order.
        let mut seen = 0usize;
        for (first, tables) in s.shards() {
            assert_eq!(first.index(), seen);
            assert!(tables.len() <= SHARD_SIZE);
            for (off, t) in tables.iter().enumerate() {
                let id = RelId::from_index(first.index() + off);
                let via_id = s.get_by_id(id).unwrap();
                assert_eq!(via_id.len(), t.len());
            }
            seen += tables.len();
        }
        assert_eq!(seen, n);
        // Name-ordered iteration still covers everything exactly once.
        assert_eq!(s.iter().count(), n);
        // Replacement stays in place: same id, new contents, no growth.
        s.insert(
            "T001",
            Relation::from_ints("T001", &["a"], &[&[7], &[8], &[9]]),
        );
        assert_eq!(s.n_tables(), n);
        assert_eq!(s.get_named("T001").unwrap().len(), 3);
    }

    #[test]
    fn indexes_work_on_tables_beyond_first_shard() {
        let mut s = Storage::new();
        for i in 0..(SHARD_SIZE + 2) {
            s.insert(
                format!("T{i:03}"),
                Relation::from_ints(&format!("T{i:03}"), &["k"], &[&[1], &[2]]),
            );
        }
        let late = format!("T{:03}", SHARD_SIZE + 1);
        assert!(s.create_index(&late, &[Attr::parse(&format!("{late}.k"))]));
        assert!(s.get_named(&late).unwrap().index_on(&[0]).is_some());
    }

    #[test]
    fn append_rows_maintains_table_like_a_rebuild() {
        let mut s = Storage::new();
        s.insert(
            "R",
            Relation::from_ints("R", &["k", "v"], &[&[1, 10], &[2, 20]]),
        );
        assert!(s.create_index("R", &[Attr::parse("R.k")]));
        let e0 = s.epoch();
        // One duplicate (absorbed by set semantics) and two novel rows.
        let novel = s
            .append_rows(
                "R",
                vec![
                    Tuple::new(vec![Value::Int(1), Value::Int(10)]),
                    Tuple::new(vec![Value::Int(3), Value::Int(30)]),
                    Tuple::new(vec![Value::Int(3), Value::Int(31)]),
                ],
            )
            .unwrap();
        assert_eq!(novel.len(), 2);
        assert!(s.epoch() > e0);
        let t = s.get_named("R").unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!(t.columns().rows(), 4);
        // The maintained mirror agrees with a from-scratch rebuild.
        let rebuilt = Table::new(t.relation().clone());
        for c in 0..t.columns().width() {
            let (a, b) = (t.columns().column(c), rebuilt.columns().column(c));
            assert_eq!(a.distinct(), b.distinct(), "col {c}");
            assert_eq!(a.null_count(), b.null_count(), "col {c}");
            assert_eq!(a.min_max(), b.min_max(), "col {c}");
        }
        // The index sees the appended rows.
        assert_eq!(t.index_on(&[0]).unwrap().lookup(&[Value::Int(3)]), &[2, 3]);
        // An all-duplicate append changes nothing, not even the epoch.
        let e1 = s.epoch();
        let none = s
            .append_rows("R", vec![Tuple::new(vec![Value::Int(3), Value::Int(30)])])
            .unwrap();
        assert!(none.is_empty());
        assert_eq!(s.epoch(), e1);
        assert_eq!(s.get_named("R").unwrap().len(), 4);
    }

    #[test]
    fn append_rows_rejects_unknown_table_and_bad_arity() {
        let mut s = Storage::new();
        s.insert("R", Relation::from_ints("R", &["k"], &[&[1]]));
        assert!(s.append_rows("missing", vec![]).is_none());
        let e = s.epoch();
        assert!(s
            .append_rows("R", vec![Tuple::new(vec![Value::Int(1), Value::Int(2)])])
            .is_none());
        assert_eq!(s.epoch(), e);
        assert_eq!(s.get_named("R").unwrap().len(), 1);
    }

    #[test]
    fn append_rows_layout_fallback_keeps_mirror_consistent() {
        let mut s = Storage::new();
        s.insert("R", Relation::from_ints("R", &["k"], &[&[1]]));
        // A string can't extend a typed int column in place; the
        // mirror is rebuilt instead and reads stay consistent.
        let novel = s
            .append_rows("R", vec![Tuple::new(vec![Value::str("x")])])
            .unwrap();
        assert_eq!(novel.len(), 1);
        let t = s.get_named("R").unwrap();
        assert_eq!(t.columns().value_at(1, 0), Value::str("x"));
        assert_eq!(t.columns().column(0).distinct(), 2);
    }

    #[test]
    fn epoch_bumps_on_data_and_index_mutation() {
        let mut s = Storage::new();
        let e0 = s.epoch();
        s.insert("R", Relation::from_ints("R", &["k"], &[&[1]]));
        let e1 = s.epoch();
        assert!(e1 > e0);
        assert!(s.create_index("R", &[Attr::parse("R.k")]));
        let e2 = s.epoch();
        assert!(e2 > e1);
        // Failed index builds leave the epoch alone.
        assert!(!s.create_index("R", &[Attr::parse("R.zzz")]));
        assert!(!s.create_index("Q", &[Attr::parse("Q.k")]));
        assert_eq!(s.epoch(), e2);
    }
}
