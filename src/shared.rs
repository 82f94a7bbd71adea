//! Shared database state for concurrent sessions.
//!
//! A [`SharedDb`] owns the catalog (statistics, epoch, plan cache) and
//! the storage behind one copy-on-write cell: readers grab an
//! [`Arc`]-shared [`DbState`] snapshot and work against it lock-free,
//! while writers clone-and-swap under a short write lock
//! ([`SharedDb::mutate`]). An in-flight reader therefore never
//! observes a torn catalog — it either sees the whole pre-mutation
//! generation or the whole post-mutation one, and the catalog epoch
//! inside each generation keeps the plan cache honest exactly as it
//! does single-threaded: a statistics change bumps the epoch, so a
//! plan costed under old statistics is never served against new ones.
//!
//! Cheap per-connection [`Session`] handles ([`SharedDb::session`])
//! carry only policy + execution config and all share this state — and
//! with it the cross-query plan cache, so one connection's warm plan
//! is every connection's warm plan (Theorem 1 makes the signature a
//! sound cross-session key; alpha-equivalent queries from different
//! clients collapse onto one cache entry).
//!
//! §5 text queries keep their ground relations (one stored table per
//! alias) in the same storage. A small **stamp table** records, per
//! alias, which entity model and which [`Ground`] spec the stored
//! table was last found equal to, valid at exactly one generation:
//! every [`SharedDb::mutate`] bumps the generation. The front doors
//! that know which tables they rewrite (table loads, appends, deletes,
//! index and statistics changes) carry every other stamp over to the
//! new generation; a raw `mutate` carries none. A text query whose
//! aliases are all stamped for its model at the current generation
//! plans on that snapshot without reading a row.
//!
//! [`Session`]: crate::Session

use crate::standing::{self, Registry};
use fro_algebra::{Attr, Relation, Tuple};
use fro_core::Catalog;
use fro_exec::{ExecStats, RowDelta, Storage, Table};
use fro_lang::{EntityDb, Ground, LangError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, Weak};

/// One immutable generation of the database: catalog + storage,
/// derived together so ids, statistics and stored rows always agree.
#[derive(Debug, Clone, Default)]
pub struct DbState {
    catalog: Catalog,
    storage: Storage,
    /// Bumped by every mutation; ground stamps name the generation
    /// they hold at.
    generation: u64,
}

impl DbState {
    /// The catalog of this generation (statistics, epoch, plan cache).
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The storage of this generation.
    #[must_use]
    pub fn storage(&self) -> &Storage {
        &self.storage
    }
}

/// The shared, concurrently-usable database: a copy-on-write
/// [`DbState`] cell. See the module docs for the consistency story.
#[derive(Debug, Default)]
pub struct SharedDb {
    state: RwLock<Arc<DbState>>,
    /// Standing-query views and their maintenance machinery. Lock
    /// order: `standing` strictly before `state` — mutation front
    /// doors hold the registry lock around the whole
    /// mutate-then-fan-out sequence so base deltas reach every view in
    /// publication order.
    standing: Mutex<Registry>,
    /// Which stored tables hold which model's ground relations. Lock
    /// order: after `state`.
    stamps: Mutex<Stamps>,
    /// Ground rows read from entity models by [`SharedDb::sync_ground`].
    ground_rows: AtomicU64,
}

/// The ground stamp table: alias → the model and spec its stored table
/// was found equal to, at one generation.
#[derive(Debug, Default)]
struct Stamps {
    generation: u64,
    by_alias: HashMap<String, Stamp>,
}

#[derive(Debug)]
struct Stamp {
    /// The model's identity. A `Weak` keeps the allocation, so the
    /// address cannot be reused by another model while stamped.
    model: Weak<EntityDb>,
    ground: Ground,
}

impl Stamps {
    /// Whether `alias`'s stored table at `generation` is known to equal
    /// `ground` materialized from `model`.
    fn holds(&self, generation: u64, model: &Arc<EntityDb>, alias: &str, ground: &Ground) -> bool {
        self.generation == generation
            && self.by_alias.get(alias).is_some_and(|s| {
                std::ptr::eq(s.model.as_ptr(), Arc::as_ptr(model)) && s.ground == *ground
            })
    }

    /// Record that every alias of `grounds` held at `generation`. A
    /// table already moved to a later generation keeps its stamps.
    fn record(&mut self, generation: u64, model: &Arc<EntityDb>, grounds: &[(String, Ground)]) {
        if generation < self.generation {
            return;
        }
        if generation > self.generation {
            self.generation = generation;
            self.by_alias.clear();
        }
        for (alias, ground) in grounds {
            let stamp = Stamp {
                model: Arc::downgrade(model),
                ground: ground.clone(),
            };
            self.by_alias.insert(alias.clone(), stamp);
        }
    }

    /// Carry the stamps across one mutation to `generation` that
    /// rewrote only the tables in `touched`; `None` (unknown tables)
    /// carries nothing, leaving every stamp at a past generation.
    fn carry(&mut self, generation: u64, touched: Option<&[String]>) {
        if let (Some(touched), true) = (touched, self.generation + 1 == generation) {
            self.generation = generation;
            for name in touched {
                self.by_alias.remove(name);
            }
        }
    }
}

/// Store each relation whose table differs from it, registering its
/// statistics (which bumps the catalog epoch).
fn load_differing(db: &mut DbState, rels: Vec<(String, Relation)>) {
    for (name, rel) in rels {
        if !stored_as(&db.storage, &name, &rel) {
            register_stats(
                &mut db.catalog,
                &name,
                db.storage.insert(name.as_str(), rel),
            );
        }
    }
}

/// Whether `storage` holds `rel` under `name`.
fn stored_as(storage: &Storage, name: &str, rel: &Relation) -> bool {
    storage
        .rel_id(name)
        .and_then(|id| storage.get_by_id(id))
        .is_some_and(|table| table.relation() == rel)
}

impl SharedDb {
    /// An empty shared database.
    #[must_use]
    pub fn new() -> Arc<SharedDb> {
        Arc::new(SharedDb::default())
    }

    /// A shared database over existing storage; the catalog is derived
    /// with exact statistics ([`Catalog::from_storage`]).
    #[must_use]
    pub fn from_storage(storage: Storage) -> Arc<SharedDb> {
        Arc::new(SharedDb {
            state: RwLock::new(Arc::new(DbState {
                catalog: Catalog::from_storage(&storage),
                storage,
                generation: 0,
            })),
            ..SharedDb::default()
        })
    }

    /// A consistent snapshot of the current generation. Cheap (one
    /// `Arc` clone under a read lock) and stable: later mutations
    /// produce new generations, they never alter this one.
    #[must_use]
    pub fn snapshot(&self) -> Arc<DbState> {
        Arc::clone(&self.state.read().expect("shared db lock never poisoned"))
    }

    /// Run a mutation against catalog and storage atomically,
    /// publishing the result as the next generation. Readers holding
    /// earlier snapshots are unaffected; new snapshots see every
    /// effect of `f` or none of it.
    ///
    /// Every call bumps the generation, and since `f` may rewrite any
    /// table, no ground stamp carries over: the next text query
    /// compares its ground tables against its model again.
    ///
    /// The closure runs under the write lock — keep it short and never
    /// call back into this [`SharedDb`] from inside it.
    pub fn mutate<R>(&self, f: impl FnOnce(&mut Catalog, &mut Storage) -> R) -> R {
        self.write(None, |state| f(&mut state.catalog, &mut state.storage))
            .0
    }

    /// [`SharedDb::mutate`] for a front door that rewrites only the
    /// tables in `touched`: every other table's ground stamp carries
    /// over to the new generation.
    fn mutate_tables<R>(
        &self,
        touched: &[String],
        f: impl FnOnce(&mut Catalog, &mut Storage) -> R,
    ) -> R {
        self.write(Some(touched), |state| {
            f(&mut state.catalog, &mut state.storage)
        })
        .0
    }

    /// The one write path: run `f` on the current generation (which it
    /// sees) under the write lock, publish the next generation, and
    /// return it. Ground stamps of tables outside `touched` carry over;
    /// `None` carries none.
    fn write<R>(
        &self,
        touched: Option<&[String]>,
        f: impl FnOnce(&mut DbState) -> R,
    ) -> (R, Arc<DbState>) {
        let mut guard = self.state.write().expect("shared db lock never poisoned");
        // Clone-on-write: outstanding snapshot holders keep the old
        // generation; we mutate a fresh copy (or in place when nobody
        // else holds the Arc) and publish it on unlock.
        let state = Arc::make_mut(&mut guard);
        let out = f(state);
        state.generation += 1;
        self.stamps_lock().carry(state.generation, touched);
        (out, Arc::clone(&guard))
    }

    fn stamps_lock(&self) -> MutexGuard<'_, Stamps> {
        self.stamps
            .lock()
            .expect("ground stamp lock never poisoned")
    }

    /// Make the stored table of every alias in `grounds` equal to its
    /// spec materialized from `model`, and return the generation that
    /// holds them.
    ///
    /// An alias stamped for `model` and the same spec at the current
    /// generation is trusted without reading a row, so a warm text
    /// query costs nothing here. Every other alias is materialized and
    /// compared with what is stored; only the tables that differ are
    /// loaded, so an untouched database keeps its epoch and the plan
    /// cache stays warm. Then the aliases are stamped.
    ///
    /// # Errors
    /// [`LangError`] when a spec does not fit `model` (prevented by
    /// `translate_shape`, which resolved every spec against it).
    pub(crate) fn sync_ground(
        &self,
        model: &Arc<EntityDb>,
        grounds: &[(String, Ground)],
    ) -> Result<Arc<DbState>, LangError> {
        let state = self.snapshot();
        let stale: Vec<&(String, Ground)> = {
            let stamps = self.stamps_lock();
            grounds
                .iter()
                .filter(|(alias, ground)| !stamps.holds(state.generation, model, alias, ground))
                .collect()
        };
        if stale.is_empty() {
            return Ok(state);
        }
        let mut differing = Vec::new();
        for (alias, ground) in stale {
            let rel = self.materialize(model, alias, ground)?;
            if !stored_as(state.storage(), alias, &rel) {
                differing.push((alias.clone(), rel));
            }
        }
        if differing.is_empty() {
            self.stamps_lock().record(state.generation, model, grounds);
            return Ok(state);
        }
        // Load what differs — unless another writer got in since
        // `state` was taken: then neither its stamps nor the
        // comparisons above hold, and every alias is compared afresh.
        let touched: Vec<String> = differing.iter().map(|(a, _)| a.clone()).collect();
        let (loaded, next) = self.write(Some(&touched), |db| {
            if db.generation != state.generation {
                return false;
            }
            load_differing(db, differing);
            true
        });
        let next = if loaded {
            next
        } else {
            let all = grounds
                .iter()
                .map(|(alias, ground)| Ok((alias.clone(), self.materialize(model, alias, ground)?)))
                .collect::<Result<Vec<_>, LangError>>()?;
            let touched: Vec<String> = grounds.iter().map(|(a, _)| a.clone()).collect();
            self.write(Some(&touched), |db| load_differing(db, all)).1
        };
        self.stamps_lock().record(next.generation, model, grounds);
        Ok(next)
    }

    /// Materialize one ground relation, counting its rows.
    fn materialize(
        &self,
        model: &EntityDb,
        alias: &str,
        ground: &Ground,
    ) -> Result<Relation, LangError> {
        let rel = ground.materialize(model, alias)?;
        self.ground_rows
            .fetch_add(rel.len() as u64, Ordering::Relaxed);
        Ok(rel)
    }

    /// Ground rows materialized by text-query syncs so far.
    #[cfg(test)]
    pub(crate) fn ground_rows_materialized(&self) -> u64 {
        self.ground_rows.load(Ordering::Relaxed)
    }

    /// A new session handle over this shared state (Paper policy,
    /// sequential execution — adjust with the [`Session`] builders).
    ///
    /// [`Session`]: crate::Session
    #[must_use]
    pub fn session(self: &Arc<Self>) -> crate::Session {
        crate::Session::connect(self)
    }

    /// Load (or replace) a table: stores the relation and registers
    /// exact statistics — row count and per-column distinct counts —
    /// in the catalog, bumping the epoch.
    pub fn insert_table(&self, name: impl Into<String>, rel: Relation) {
        let name = name.into();
        self.mutate_tables(std::slice::from_ref(&name), |catalog, storage| {
            register_stats(catalog, &name, storage.insert(name.as_str(), rel));
        });
    }

    /// Append rows to an existing table, republishing it with
    /// refreshed statistics. Rows that duplicate existing ones are
    /// absorbed by set semantics. Returns `false` (doing nothing) when
    /// the table is unknown or a row doesn't fit the scheme.
    ///
    /// Unlike a table replacement, an append bumps only the relation's
    /// **row epoch**, not the catalog epoch: plans over *other*
    /// relations stay cached, plans over this one re-cost, and every
    /// standing view on it folds the novel rows in incrementally
    /// (O(|delta|), no re-execution).
    pub fn append_rows(&self, name: &str, rows: Vec<Tuple>) -> bool {
        self.append_rows_traced(name, rows).0
    }

    /// [`SharedDb::append_rows`] plus the maintenance work it
    /// triggered, so session handles can attribute their share.
    pub(crate) fn append_rows_traced(&self, name: &str, rows: Vec<Tuple>) -> (bool, ExecStats) {
        // O(|delta|) storage path: the table's row store, columnar
        // mirror, indexes, and exact distinct counts are extended in
        // place — no rebuild, no re-dedup of the base.
        self.edit_rows(name, |storage| {
            storage.append_rows(name, rows).map(RowDelta::from_inserts)
        })
    }

    /// Delete rows from an existing table (rows not present are
    /// ignored), republishing it with refreshed statistics. Returns
    /// `false` (doing nothing) when the table is unknown. Like
    /// [`SharedDb::append_rows`], bumps only the relation's row epoch;
    /// standing views retract the removed rows incrementally — an
    /// outerjoin view re-emits the null-padded row when a preserved
    /// row's last match dies.
    pub fn delete_rows(&self, name: &str, rows: &[Tuple]) -> bool {
        self.delete_rows_traced(name, rows).0
    }

    /// [`SharedDb::delete_rows`] plus the maintenance work it
    /// triggered.
    pub(crate) fn delete_rows_traced(&self, name: &str, rows: &[Tuple]) -> (bool, ExecStats) {
        self.edit_rows(name, |storage| {
            storage.delete_rows(name, rows).map(RowDelta::from_deletes)
        })
    }

    /// The one row-edit path behind appends and deletes: under the
    /// registry lock, apply `edit` to storage; when it changed rows,
    /// refresh the table's statistics quietly, bump its row epoch, and
    /// fan the delta out to the standing views. An edit that changed
    /// nothing keeps every epoch as it was. Returns `false` (doing
    /// nothing) when `edit` found no such table.
    fn edit_rows(
        &self,
        name: &str,
        edit: impl FnOnce(&mut Storage) -> Option<RowDelta>,
    ) -> (bool, ExecStats) {
        let mut reg = self.standing_lock();
        let delta = self.mutate_tables(&[name.to_owned()], |catalog, storage| {
            let delta = edit(storage)?;
            if !delta.is_empty() {
                let table = storage
                    .rel_id(name)
                    .and_then(|id| storage.get_by_id(id))
                    .expect("table exists: its rows were just edited");
                refresh_stats_quiet(catalog, name, table);
                catalog.bump_row_epoch(name);
            }
            Some(delta)
        });
        match delta {
            None => (false, ExecStats::new()),
            Some(d) => {
                let stats = standing::apply_base_delta(&mut reg, &self.snapshot(), name, &d);
                (true, stats)
            }
        }
    }

    /// The standing-query registry, for the maintenance code in
    /// [`crate::standing`]. Lock order: this lock strictly before any
    /// `state` access.
    pub(crate) fn standing_lock(&self) -> MutexGuard<'_, Registry> {
        self.standing
            .lock()
            .expect("standing registry lock never poisoned")
    }

    /// Build a hash index on `rel(attrs…)` in storage and declare it
    /// to the catalog. Returns `false` (doing nothing) when the table
    /// or an attribute is unknown.
    pub fn create_index(&self, rel: &str, attrs: &[Attr]) -> bool {
        // An index leaves every table's rows as they were.
        self.mutate_tables(&[], |catalog, storage| {
            let built = storage.create_index(rel, attrs);
            if built {
                catalog.add_index(rel, attrs);
            }
            built
        })
    }

    /// Override a column's distinct count (what-if statistics). Bumps
    /// the catalog epoch, so cached plans costed under the old
    /// statistics are invalidated automatically.
    pub fn set_distinct(&self, attr: &Attr, distinct: u64) {
        self.mutate_tables(&[], |catalog, _| catalog.set_distinct(attr, distinct));
    }
}

/// Register exact statistics for one stored table: row count plus the
/// exact per-column distinct counts its columnar mirror computed at
/// load (null, when present, counts as one value).
pub(crate) fn register_stats(catalog: &mut Catalog, name: &str, table: &Table) {
    let schema = table.relation().schema();
    catalog.add_table(name, schema.clone(), table.len() as u64);
    for (c, a) in schema.attrs().iter().enumerate() {
        catalog.set_distinct(a, table.columns().column(c).distinct());
    }
}

/// Refresh an *already-registered* relation's statistics without
/// bumping the catalog epoch — row appends/deletes invalidate at
/// row-epoch granularity instead ([`Catalog::bump_row_epoch`]).
///
/// Reads the exact distinct counts the table's columnar mirror already
/// maintains (the same counts [`register_stats`] reads), so refreshing
/// statistics is O(columns), not O(rows) — which is what keeps the
/// whole append path O(|delta|).
fn refresh_stats_quiet(catalog: &mut Catalog, name: &str, table: &Table) {
    catalog.set_rows_quiet(name, table.len() as u64);
    for (c, a) in table.relation().schema().attrs().iter().enumerate() {
        catalog.set_distinct_quiet(a, table.columns().column(c).distinct());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fro_algebra::Value;

    #[test]
    fn snapshots_are_stable_across_mutations() {
        let db = SharedDb::new();
        db.insert_table("R", Relation::from_ints("R", &["a"], &[&[1], &[2]]));
        let before = db.snapshot();
        let epoch_before = before.catalog().epoch();
        db.insert_table("S", Relation::from_ints("S", &["b"], &[&[7]]));
        // The old snapshot still sees exactly one table at its epoch.
        assert!(before.catalog().table("S").is_none());
        assert_eq!(before.catalog().epoch(), epoch_before);
        // A fresh snapshot sees the whole mutation.
        let after = db.snapshot();
        assert!(after.catalog().table("S").is_some());
        assert!(after.catalog().epoch() > epoch_before);
    }

    #[test]
    fn append_rows_refreshes_stats_and_dedups() {
        let db = SharedDb::new();
        db.insert_table("R", Relation::from_ints("R", &["a"], &[&[1], &[2]]));
        assert!(db.append_rows(
            "R",
            vec![
                Tuple::new(vec![Value::Int(2)]),
                Tuple::new(vec![Value::Int(3)]),
            ],
        ));
        let s = db.snapshot();
        assert_eq!(s.catalog().table("R").unwrap().rows, 3);
        let id = s.storage().rel_id("R").unwrap();
        assert_eq!(s.storage().get_by_id(id).unwrap().relation().len(), 3);
        assert!(!db.append_rows("missing", vec![]));
    }

    #[test]
    fn delete_rows_keeps_hash_indexes() {
        use fro_testkit::workloads::{star, star5_skew};
        let (storage, _, q) = star(&star5_skew());
        let db = SharedDb::from_storage(storage);
        let session = db.session();
        assert_eq!(session.prepare(&q).unwrap().run().unwrap().len(), 48);
        // Each dimension's last row is a stray no good fact row joins,
        // so deleting it leaves the answer as it was.
        for i in 1..=4 {
            let name = format!("D{i}");
            let s = db.snapshot();
            let id = s.storage().rel_id(&name).unwrap();
            let victim = s
                .storage()
                .get_by_id(id)
                .unwrap()
                .relation()
                .rows()
                .last()
                .cloned();
            assert!(db.delete_rows(&name, &[victim.unwrap()]));
            let s = db.snapshot();
            let table = s.storage().get_by_id(id).unwrap();
            assert_eq!(table.indexes().len(), 1, "{name} keeps its index");
        }
        // The plan still uses the dimension indexes, which must exist.
        let rows = session.prepare(&q).unwrap().run().unwrap();
        assert_eq!(rows.len(), 48);
    }

    #[test]
    fn mutations_are_atomic_to_new_snapshots() {
        let db = SharedDb::new();
        db.insert_table("A", Relation::from_ints("A", &["x"], &[&[1]]));
        db.insert_table("B", Relation::from_ints("B", &["y"], &[&[1]]));
        // Swap both tables' contents in one mutation; any snapshot
        // sees either both old or both new, never a mix.
        db.mutate(|catalog, storage| {
            let a = Relation::from_ints("A", &["x"], &[&[2], &[3]]);
            let b = Relation::from_ints("B", &["y"], &[&[2], &[3]]);
            register_stats(catalog, "A", storage.insert("A", a));
            register_stats(catalog, "B", storage.insert("B", b));
        });
        let s = db.snapshot();
        assert_eq!(s.catalog().table("A").unwrap().rows, 2);
        assert_eq!(s.catalog().table("B").unwrap().rows, 2);
    }
}
