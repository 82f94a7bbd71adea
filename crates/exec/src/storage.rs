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
//!
//! Each slot holds its table behind an [`Arc`], and every write goes
//! through [`Arc::make_mut`]: cloning a `Storage` copies pointers, and
//! a later edit copies only the table it edits, and only while a clone
//! still shares it. A table nobody else holds is edited in place.

use crate::engine::ExecError;
use crate::index::HashIndex;
use fro_algebra::{Attr, CellKey, ColumnSet, Database, Interner, RelId, Relation, Tuple};
use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};
use std::sync::{Arc, OnceLock};

/// A stored base table: the relation, its columnar mirror, any
/// indexes built on it, and, once it has been edited, its edit index.
///
/// The [`ColumnSet`] is built at registration and kept alongside the
/// row-major relation (a hybrid layout): engines read the typed column
/// vectors for predicate scans, hash builds, and statistics, while
/// output assembly still clones `Tuple`s from the row store — which is
/// what keeps columnar execution bit-identical to the row-major paths.
///
/// Appends and deletes edit every part in place, in O(|delta|) plus at
/// most one pass of plain moves over the table; neither rebuilds it.
/// After any edit, every observable (rows and their order, distinct
/// and null counts, zone min/max, index lookups, predicate masks)
/// equals that of [`Table::new`] over the same rows with the same
/// indexes. Only internals may differ: the dictionary keeps strings
/// whose rows were deleted, and a column may keep a wider layout.
#[derive(Debug, Clone)]
pub struct Table {
    rel: Relation,
    columns: ColumnSet,
    indexes: Vec<HashIndex>,
    /// Built in O(rows) on the table's first edit (or
    /// [`Table::contains`] probe), then kept up to date by every
    /// append and delete.
    edit: OnceLock<EditIndex>,
}

/// What row edits need to stay O(|delta|), holding no copy of a row
/// or of a value: row hash → row id, for novelty checks and for
/// finding doomed rows, and per column the multiplicity of every value
/// (the ℕ-annotated column projection), whose support size is the
/// exact distinct count. An edit moves a count by one; a value counts
/// toward `distinct` while its count is above 0.
#[derive(Debug, Clone)]
struct EditIndex {
    /// Seeds the row hash, afresh for each index, so rows cannot be
    /// chosen to collide.
    hasher: RandomState,
    /// Row hash → the id of a stored row with that hash. Lookups
    /// compare the row in the row store, so a hash never stands in for
    /// a row.
    ids: HashMap<u64, usize>,
    /// `(hash, id)` of further stored rows whose hash is already in
    /// `ids`: the side list for hash collisions, almost always empty.
    collided: Vec<(u64, usize)>,
    /// Per column: stored rows holding each non-null value.
    counts: Vec<HashMap<CellKey, usize>>,
    /// Per column: stored rows holding null.
    nulls: Vec<usize>,
}

#[cfg(test)]
thread_local! {
    /// Edit indexes built on this thread (each test runs on its own).
    static EDIT_INDEX_BUILDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl EditIndex {
    fn build(rel: &Relation, columns: &ColumnSet) -> EditIndex {
        #[cfg(test)]
        EDIT_INDEX_BUILDS.with(|n| n.set(n.get() + 1));
        let mut ix = EditIndex {
            hasher: RandomState::new(),
            ids: HashMap::with_capacity(rel.len()),
            collided: Vec::new(),
            counts: Vec::new(),
            nulls: Vec::new(),
        };
        for (id, t) in rel.rows().iter().enumerate() {
            ix.insert(ix.row_hash(t), id);
        }
        ix.recount(columns);
        ix
    }

    /// Recount every value from scratch (after the mirror was rebuilt,
    /// which renumbers dictionary codes).
    fn recount(&mut self, columns: &ColumnSet) {
        self.counts = vec![HashMap::new(); columns.width()];
        self.nulls = vec![0; columns.width()];
        self.count(columns, 0..columns.rows(), true);
    }

    /// Add (`up`) or subtract the values of the stored rows `rows`.
    fn count(&mut self, columns: &ColumnSet, rows: impl Iterator<Item = usize> + Clone, up: bool) {
        for (c, (counts, nulls)) in self.counts.iter_mut().zip(&mut self.nulls).enumerate() {
            for r in rows.clone() {
                match (columns.cell_key(r, c), up) {
                    (None, true) => *nulls += 1,
                    (None, false) => *nulls -= 1,
                    (Some(k), true) => *counts.entry(k).or_default() += 1,
                    (Some(k), false) => {
                        let n = counts.get_mut(&k).expect("a stored value is counted");
                        *n -= 1;
                        if *n == 0 {
                            counts.remove(&k);
                        }
                    }
                }
            }
        }
    }

    /// The hash this index keys `t` by.
    fn row_hash(&self, t: &Tuple) -> u64 {
        self.hasher.hash_one(t)
    }

    /// Each column's exact distinct count, null counting as one value.
    fn distinct(&self) -> Vec<u64> {
        self.counts
            .iter()
            .zip(&self.nulls)
            .map(|(counts, &nulls)| counts.len() as u64 + u64::from(nulls > 0))
            .collect()
    }

    /// The id of the stored row equal to `t`, whose hash is `h`;
    /// `row(id)` reads the row store.
    fn find<'r>(&self, h: u64, t: &Tuple, row: impl Fn(usize) -> &'r Tuple) -> Option<usize> {
        let &id = self.ids.get(&h)?;
        if row(id) == t {
            return Some(id);
        }
        self.collided
            .iter()
            .find(|&&(ch, cid)| ch == h && row(cid) == t)
            .map(|&(_, cid)| cid)
    }

    /// Index a stored row not indexed yet.
    fn insert(&mut self, h: u64, id: usize) {
        if let Some(&first) = self.ids.get(&h) {
            debug_assert_ne!(first, id);
            self.collided.push((h, id));
        } else {
            self.ids.insert(h, id);
        }
    }

    /// Forget the stored rows `doomed` (`(hash, id)`, ids ascending)
    /// and renumber the survivors to their ids once those rows are
    /// removed in place: one pass over the ids, no row rehashed.
    fn remove(&mut self, doomed: &[(u64, usize)]) {
        for &(h, id) in doomed {
            if self.ids.get(&h) == Some(&id) {
                match self.collided.iter().position(|&(ch, _)| ch == h) {
                    Some(k) => {
                        let (_, next) = self.collided.swap_remove(k);
                        self.ids.insert(h, next);
                    }
                    None => {
                        self.ids.remove(&h);
                    }
                }
            } else {
                let k = self
                    .collided
                    .iter()
                    .position(|&p| p == (h, id))
                    .expect("a stored row is indexed");
                self.collided.swap_remove(k);
            }
        }
        let first = doomed[0].1;
        let renumber = |id: &mut usize| {
            if *id > first {
                *id -= doomed.partition_point(|&(_, d)| d < *id);
            }
        };
        self.ids.values_mut().for_each(renumber);
        self.collided.iter_mut().for_each(|(_, id)| renumber(id));
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
            edit: OnceLock::new(),
        }
    }

    fn edit_index(&self) -> &EditIndex {
        self.edit
            .get_or_init(|| EditIndex::build(&self.rel, &self.columns))
    }

    /// Whether `t` is a stored row. O(1), after one O(rows) build of
    /// the edit index on the table's first edit or probe.
    #[must_use]
    pub fn contains(&self, t: &Tuple) -> bool {
        let rows = self.rel.rows();
        let edit = self.edit_index();
        t.arity() == self.rel.schema().len()
            && edit.find(edit.row_hash(t), t, |id| &rows[id]).is_some()
    }

    /// Append `rows` under set semantics, returning the novel suffix
    /// actually stored (possibly empty if every row was already
    /// present) or `None` on an arity mismatch. The row store, the
    /// columnar mirror (typed vectors, validity, zones, dictionary,
    /// exact distinct counts), every index and the edit index all grow
    /// in place, O(|delta|). The mirror is rebuilt only when a value's
    /// type cannot join its typed column.
    fn append_novel(&mut self, rows: Vec<Tuple>) -> Option<Vec<Tuple>> {
        let arity = self.rel.schema().len();
        if rows.iter().any(|t| t.arity() != arity) {
            return None;
        }
        self.edit_index();
        let edit = self.edit.get_mut().expect("built above");
        let stored = self.rel.rows();
        let old_len = stored.len();
        let mut novel: Vec<Tuple> = Vec::new();
        for t in rows {
            let h = edit.row_hash(&t);
            let row = |id: usize| match id.checked_sub(old_len) {
                None => &stored[id],
                Some(i) => &novel[i],
            };
            if edit.find(h, &t, row).is_none() {
                edit.insert(h, old_len + novel.len());
                novel.push(t);
            }
        }
        if novel.is_empty() {
            return Some(novel);
        }
        self.rel.extend_distinct(novel.clone());
        if self.columns.append_rows(&novel) {
            edit.count(&self.columns, old_len..self.rel.len(), true);
        } else {
            // A value's type does not fit its typed column; the rebuilt
            // mirror numbers its dictionary afresh.
            self.columns = ColumnSet::build(&self.rel);
            edit.recount(&self.columns);
        }
        self.columns.set_distinct(&edit.distinct());
        for ix in &mut self.indexes {
            ix.insert_rows(&self.rel, old_len);
        }
        Some(novel)
    }

    /// Remove every stored row that appears in `rows`, returning the
    /// removed rows (possibly none) in stored order. The doomed rows
    /// are found through the edit index in O(|delta|); the row store,
    /// the columnar mirror, every index and the edit index then drop
    /// them in place, the survivors keeping their order.
    fn remove_rows(&mut self, rows: &[Tuple]) -> Vec<Tuple> {
        self.edit_index();
        let edit = self.edit.get_mut().expect("built above");
        let stored = self.rel.rows();
        let mut doomed: Vec<(u64, usize)> = rows
            .iter()
            .filter_map(|t| {
                let h = edit.row_hash(t);
                edit.find(h, t, |id| &stored[id]).map(|id| (h, id))
            })
            .collect();
        if doomed.is_empty() {
            return Vec::new();
        }
        doomed.sort_unstable_by_key(|&(_, id)| id);
        doomed.dedup_by_key(|&mut (_, id)| id);
        let positions: Vec<usize> = doomed.iter().map(|&(_, id)| id).collect();
        edit.count(&self.columns, positions.iter().copied(), false);
        edit.remove(&doomed);
        self.columns.remove_rows(&positions, &edit.distinct());
        for ix in &mut self.indexes {
            ix.remove_rows(&positions);
        }
        self.rel.remove_rows(&positions)
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
    shards: Vec<Vec<Arc<Table>>>,
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
        let table = Arc::new(Table::new(rel));
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
        Arc::make_mut(&mut self.shards[i >> SHARD_BITS][i & SHARD_MASK])
    }

    /// Append `rows` to `name`'s table in place, returning the novel
    /// rows actually stored (set semantics absorb duplicates, so the
    /// result can be empty) or `None` when the table is unknown or a
    /// row's arity doesn't fit its scheme. Unlike [`Storage::insert`],
    /// nothing is rebuilt: the columnar mirror, indexes, and exact
    /// per-column distinct counts are all maintained O(|delta|) (see
    /// [`Table`]). A table still shared with a clone of this storage
    /// is copied first; no other table is. Bumps the epoch only when
    /// something was stored.
    pub fn append_rows(&mut self, name: &str, rows: Vec<Tuple>) -> Option<Vec<Tuple>> {
        let novel = self.get_named_mut(name)?.append_novel(rows)?;
        if !novel.is_empty() {
            self.epoch += 1;
        }
        Some(novel)
    }

    /// Delete `rows` from `name`'s table, returning the rows actually
    /// removed in stored order (rows not stored are ignored, so the
    /// result can be empty) or `None` when the table is unknown. The
    /// doomed rows are found through the table's edit index in
    /// O(|delta|) and removed in place: the survivors keep their order,
    /// and the columnar mirror, the indexes and the edit index drop the
    /// rows without a rebuild (see [`Table`]). A table still shared
    /// with a clone of this storage is copied first; no other table is.
    /// Bumps the epoch only when something was removed.
    pub fn delete_rows(&mut self, name: &str, rows: &[Tuple]) -> Option<Vec<Tuple>> {
        let removed = self.get_named_mut(name)?.remove_rows(rows);
        if !removed.is_empty() {
            self.epoch += 1;
        }
        Some(removed)
    }

    /// Name-keyed mutable table access for the in-place edit paths;
    /// copies the table first while a clone of this storage shares it.
    fn get_named_mut(&mut self, name: &str) -> Option<&mut Table> {
        let i = self.interner.rel_id(name)?.index();
        self.shards
            .get_mut(i >> SHARD_BITS)
            .and_then(|s| s.get_mut(i & SHARD_MASK))
            .map(Arc::make_mut)
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
            .map(Arc::as_ref)
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
    pub fn shards(&self) -> impl Iterator<Item = (RelId, &[Arc<Table>])> {
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
    use fro_algebra::Value;

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

    fn int_row(k: i64, v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(k), Value::Int(v)])
    }

    #[test]
    fn edits_build_the_edit_index_once() {
        let mut s = Storage::new();
        let rows: Vec<&[i64]> = vec![&[1, 10], &[2, 20], &[3, 30]];
        s.insert("R", Relation::from_ints("R", &["k", "v"], &rows));
        assert!(s.create_index("R", &[Attr::parse("R.k")]));
        let before = EDIT_INDEX_BUILDS.with(std::cell::Cell::get);
        for i in 0..50 {
            let row = int_row(100 + i, i);
            assert_eq!(s.append_rows("R", vec![row.clone()]).unwrap().len(), 1);
            assert_eq!(s.delete_rows("R", &[row]).unwrap().len(), 1);
        }
        assert_eq!(EDIT_INDEX_BUILDS.with(std::cell::Cell::get) - before, 1);
        let t = s.get_named("R").unwrap();
        assert_eq!(
            t.relation().rows(),
            Relation::from_ints("R", &["k", "v"], &rows).rows()
        );
        assert_eq!(t.index_on(&[0]).unwrap().lookup(&[Value::Int(3)]), &[2]);
    }

    #[test]
    fn delete_rows_edits_in_place_like_a_rebuild() {
        let mut s = Storage::new();
        let rows: Vec<Vec<Value>> = (0..2500)
            .map(|i| {
                let v = if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::str(format!("s{}", i % 11))
                };
                vec![Value::Int(i % 300), v, Value::Int(i)]
            })
            .collect();
        s.insert("R", Relation::from_values("R", &["k", "s", "i"], rows));
        assert!(s.create_index("R", &[Attr::parse("R.k")]));
        let stored = s.get_named("R").unwrap().relation().rows().to_vec();
        // Absent, repeated and present rows, out of stored order.
        let doomed = vec![
            stored[2400].clone(),
            int_row(-1, -1),
            stored[3].clone(),
            stored[1024].clone(),
            stored[3].clone(),
        ];
        let removed = s.delete_rows("R", &doomed).unwrap();
        assert_eq!(
            removed,
            [
                stored[3].clone(),
                stored[1024].clone(),
                stored[2400].clone()
            ]
        );
        let t = s.get_named("R").unwrap();
        let mut want = Table::new(Relation::from_distinct_rows(
            t.relation().schema().clone(),
            stored
                .iter()
                .enumerate()
                .filter(|(i, _)| ![3, 1024, 2400].contains(i))
                .map(|(_, r)| r.clone())
                .collect(),
        ));
        assert!(want.create_index(&[Attr::parse("R.k")]));
        assert_eq!(t.relation(), want.relation());
        for c in 0..3 {
            let (a, b) = (t.columns().column(c), want.columns().column(c));
            assert_eq!(a.distinct(), b.distinct(), "col {c}");
            assert_eq!(a.null_count(), b.null_count(), "col {c}");
            let zones = |z: &[fro_algebra::column::Zone]| -> Vec<_> {
                z.iter()
                    .map(|z| (z.min_max().map(|(a, b)| (a.clone(), b.clone())), z.nulls()))
                    .collect()
            };
            assert_eq!(zones(a.zones()), zones(b.zones()), "col {c}");
        }
        for k in [0, 3, 124, 299] {
            let key = [Value::Int(k)];
            assert_eq!(
                t.index_on(&[0]).unwrap().lookup(&key),
                want.index_on(&[0]).unwrap().lookup(&key)
            );
        }
        assert!(t.contains(&stored[0]) && !t.contains(&stored[3]));
    }

    #[test]
    fn colliding_row_hashes_resolve_against_the_row_store() {
        let rows: Vec<Tuple> = (0..4).map(|i| int_row(i, i)).collect();
        let mut ix = EditIndex {
            hasher: RandomState::new(),
            ids: HashMap::new(),
            collided: Vec::new(),
            counts: Vec::new(),
            nulls: Vec::new(),
        };
        // Rows 0, 1 and 3 share one hash; row 2 has its own.
        for (id, h) in [(0, 7), (1, 7), (2, 9), (3, 7)] {
            ix.insert(h, id);
        }
        let at = |id: usize| &rows[id];
        for (id, h) in [(0, 7), (1, 7), (2, 9), (3, 7)] {
            assert_eq!(ix.find(h, &rows[id], at), Some(id));
        }
        assert_eq!(ix.find(7, &int_row(5, 5), at), None);
        // Dropping the row `ids` holds for hash 7 promotes a collided
        // one; the survivors renumber to 0, 1, 2.
        ix.remove(&[(7, 0)]);
        let rest = &rows[1..];
        let at = |id: usize| &rest[id];
        for (id, h) in [(0, 7), (1, 9), (2, 7)] {
            assert_eq!(ix.find(h, &rest[id], at), Some(id));
        }
        assert_eq!(ix.find(7, &rows[0], at), None);
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
