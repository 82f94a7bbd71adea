//! The unified front door: a [`Session`] is a cheap per-connection
//! handle over an [`Arc`]-shared [`SharedDb`] (catalog + storage +
//! cross-query plan cache), carrying only the reordering policy, the
//! execution configuration and its own cache counters. Handles clone
//! freely, move across threads, and all observe the same data: one
//! connection's warm plan is every connection's warm plan.
//!
//! Two entry points produce a [`Prepared`] statement:
//!
//! * [`Session::query`] — §5 UnNest/Link source text, for sessions
//!   built over an [`EntityDb`];
//! * [`Session::prepare`] — an algebra [`Query`] over tables loaded
//!   with [`Session::insert_table`] / [`Session::from_storage`].
//!
//! Both optimize against a consistent [`DbState`] snapshot: the
//! cost-based optimizer consults the shared plan cache (repeating a
//! query — or an alpha-equivalent one — skips enumeration entirely),
//! and any statistics change bumps the catalog epoch so stale plans
//! are never served. [`Prepared`] owns its snapshot, so it keeps
//! running correctly even while other connections mutate the database.
//! [`Prepared::explain`] surfaces the cache counters;
//! [`Prepared::run`] executes against the snapshot's storage.

use crate::error::FroError;
use crate::shared::{DbState, SharedDb};
use crate::standing::{Registered, StandingCounters, StandingId};
use fro_algebra::{Attr, Query, Relation, Tuple};
use fro_core::optimizer::{optimize_with_reduce, CacheLoad, CacheStats, Optimized};
use fro_core::{Catalog, Policy, ReducePolicy};
use fro_exec::{execute_with, ExecConfig, ExecStats, PhysPlan, Storage};
use fro_lang::{parse, translate_shape, EntityDb, LangError};
use fro_trees::some_implementing_tree;
use std::cell::Cell;
use std::sync::Arc;

/// A query session: a per-connection handle over shared database
/// state, plus this connection's policy, execution config and
/// plan-cache counters.
#[derive(Debug, Clone, Default)]
pub struct Session {
    db: Arc<SharedDb>,
    policy: Policy,
    reduce_policy: ReducePolicy,
    exec_config: ExecConfig,
    /// Shared, so cloning a session never copies the model; its `Arc`
    /// identity is what the ground stamps record.
    edb: Option<Arc<EntityDb>>,
    local: Cell<CacheStats>,
    local_maint: Cell<ExecStats>,
}

impl Session {
    /// A session over its own fresh database (Paper policy, sequential
    /// execution). For multiple sessions over one database, build a
    /// [`SharedDb`] and call [`SharedDb::session`] (or
    /// [`Session::connect`]) per connection.
    #[must_use]
    pub fn new() -> Session {
        Session::default()
    }

    /// A session over existing storage; the catalog is derived with
    /// exact statistics ([`Catalog::from_storage`]).
    #[must_use]
    pub fn from_storage(storage: Storage) -> Session {
        Session {
            db: SharedDb::from_storage(storage),
            ..Session::default()
        }
    }

    /// A session over an entity model, enabling [`Session::query`].
    #[must_use]
    pub fn from_entity_db(edb: EntityDb) -> Session {
        Session::default().with_entity_db(edb)
    }

    /// A new handle over an existing shared database. Handles are
    /// cheap (an `Arc` clone plus plain-old-data config) and carry
    /// their own policy/config/counters.
    #[must_use]
    pub fn connect(db: &Arc<SharedDb>) -> Session {
        Session {
            db: Arc::clone(db),
            ..Session::default()
        }
    }

    /// Replace the reordering policy (builder style).
    #[must_use]
    pub fn with_policy(mut self, policy: Policy) -> Session {
        self.policy = policy;
        self
    }

    /// Replace the semijoin-reduction policy (builder style). `Auto`
    /// (the default) applies reduction only where the cost model says
    /// it pays; `Always`/`Never` force it for testing and benchmarks.
    /// Any policy yields bit-identical results — reduction only
    /// removes rows that could never reach the output.
    #[must_use]
    pub fn with_reduce_policy(mut self, policy: ReducePolicy) -> Session {
        self.reduce_policy = policy;
        self
    }

    /// Replace the execution configuration (builder style).
    #[must_use]
    pub fn with_exec_config(mut self, cfg: ExecConfig) -> Session {
        self.exec_config = cfg;
        self
    }

    /// Pin the partition count for parallel hash joins (builder
    /// style); `0` restores the automatic choice. Shorthand for
    /// adjusting the execution config's `partitions` knob.
    #[must_use]
    pub fn with_partitions(mut self, partitions: usize) -> Session {
        self.exec_config = self.exec_config.partitions(partitions);
        self
    }

    /// Attach an entity model (builder style), enabling
    /// [`Session::query`].
    #[must_use]
    pub fn with_entity_db(self, edb: EntityDb) -> Session {
        self.with_shared_entity_db(Arc::new(edb))
    }

    /// Attach an entity model shared with other sessions, so all of
    /// them find each other's ground stamps valid.
    pub(crate) fn with_shared_entity_db(mut self, edb: Arc<EntityDb>) -> Session {
        self.edb = Some(edb);
        self
    }

    /// The shared database behind this session — connect further
    /// sessions with [`SharedDb::session`], or mutate it directly.
    #[must_use]
    pub fn shared(&self) -> &Arc<SharedDb> {
        &self.db
    }

    /// The current catalog generation (statistics, epoch, plan cache).
    /// The returned guard dereferences to [`Catalog`] and pins a
    /// consistent snapshot: concurrent mutations don't alter it.
    #[must_use]
    pub fn catalog(&self) -> CatalogRef {
        CatalogRef {
            state: self.db.snapshot(),
        }
    }

    /// The current storage generation. Same snapshot semantics as
    /// [`Session::catalog`].
    #[must_use]
    pub fn storage(&self) -> StorageRef {
        StorageRef {
            state: self.db.snapshot(),
        }
    }

    /// The reordering policy in effect.
    #[must_use]
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The semijoin-reduction policy in effect.
    #[must_use]
    pub fn reduce_policy(&self) -> ReducePolicy {
        self.reduce_policy
    }

    /// The execution configuration in effect.
    #[must_use]
    pub fn exec_config(&self) -> ExecConfig {
        self.exec_config
    }

    /// Cumulative plan-cache counters of the shared cache (all
    /// sessions). For this handle's share, see
    /// [`Session::local_cache_stats`].
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.db.snapshot().catalog().cache_stats()
    }

    /// Plan-cache counters accumulated by this session handle alone.
    /// Across concurrent sessions over one [`SharedDb`], the per-handle
    /// counters sum to the shared cache's cumulative totals.
    #[must_use]
    pub fn local_cache_stats(&self) -> CacheStats {
        self.local.get()
    }

    fn absorb(&self, stats: &CacheStats) {
        let mut local = self.local.get();
        local.merge(stats);
        self.local.set(local);
    }

    fn absorb_maint(&self, stats: &ExecStats) {
        let mut local = self.local_maint.get();
        local.merge(stats);
        self.local_maint.set(local);
    }

    /// Persist the plan cache to `path` so a future process over the
    /// same data can start warm ([`Session::load_plan_cache`]).
    /// Returns the number of entries written.
    ///
    /// # Errors
    /// [`FroError::Wire`] on filesystem failure.
    pub fn save_plan_cache(&self, path: impl AsRef<std::path::Path>) -> Result<usize, FroError> {
        Ok(self.db.snapshot().catalog().save_cache(path)?)
    }

    /// Load a plan-cache snapshot written by
    /// [`Session::save_plan_cache`]. The snapshot is revalidated
    /// against the current catalog: if the tables/statistics changed
    /// since the save (different fingerprint or epoch), nothing is
    /// loaded and the cache stays cold — a mismatched snapshot can
    /// never surface a wrong or stale plan. Returns how the snapshot
    /// related to this catalog ([`CacheLoad`]).
    ///
    /// # Errors
    /// [`FroError::Wire`] when the file cannot be read or a
    /// matching snapshot is corrupt.
    pub fn load_plan_cache(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<CacheLoad, FroError> {
        Ok(self.db.snapshot().catalog().load_cache(path)?)
    }

    /// Load (or replace) a table: stores the relation and registers
    /// exact statistics — row count and per-column distinct counts —
    /// in the catalog, bumping the epoch. Visible to every session on
    /// the shared database.
    pub fn insert_table(&self, name: impl Into<String>, rel: Relation) {
        self.db.insert_table(name, rel);
    }

    /// Append rows to an existing table (set semantics absorb
    /// duplicates), refreshing its statistics. Returns `false` when
    /// the table is unknown or a row doesn't fit the scheme.
    ///
    /// Appends bump only the relation's row epoch (not the catalog
    /// epoch) and fold into every standing view on the relation
    /// incrementally; the maintenance work is attributed to this
    /// handle ([`Session::local_maintenance_stats`]).
    pub fn append_rows(&self, name: &str, rows: Vec<Tuple>) -> bool {
        let (ok, stats) = self.db.append_rows_traced(name, rows);
        self.absorb_maint(&stats);
        ok
    }

    /// Delete rows from an existing table (absent rows are ignored),
    /// refreshing its statistics. Returns `false` when the table is
    /// unknown. Standing views retract the rows incrementally — an
    /// outerjoin view re-emits its null-padded row when a preserved
    /// row's last match dies.
    pub fn delete_rows(&self, name: &str, rows: &[Tuple]) -> bool {
        let (ok, stats) = self.db.delete_rows_traced(name, rows);
        self.absorb_maint(&stats);
        ok
    }

    /// Build a hash index on `rel(attrs…)` in storage and declare it
    /// to the catalog. Returns `false` (doing nothing) when the table
    /// or an attribute is unknown.
    pub fn create_index(&self, rel: &str, attrs: &[Attr]) -> bool {
        self.db.create_index(rel, attrs)
    }

    /// Override a column's distinct count (what-if statistics
    /// experiments). Bumps the catalog epoch, so cached plans costed
    /// under the old statistics are invalidated automatically.
    pub fn set_distinct(&self, attr: &Attr, distinct: u64) {
        self.db.set_distinct(attr, distinct);
    }

    /// Optimize an algebra query against the current catalog
    /// generation.
    ///
    /// The optimizer consults the shared plan cache first: preparing
    /// the same (or an alpha-equivalent) query again on an unchanged
    /// catalog — from *any* session — returns the cached plan with
    /// zero enumeration.
    ///
    /// # Errors
    /// [`FroError::Opt`] when the query is disconnected or uses an
    /// operator the engine cannot run.
    pub fn prepare(&self, q: &Query) -> Result<Prepared, FroError> {
        let state = self.db.snapshot();
        let optimized = optimize_with_reduce(q, state.catalog(), self.policy, self.reduce_policy)?;
        self.absorb(&optimized.cache);
        Ok(Prepared {
            state,
            exec_config: self.exec_config,
            optimized,
        })
    }

    /// Parse, translate and optimize a §5 UnNest/Link query block.
    ///
    /// Translation builds only the block's graph and the spec of each
    /// ground relation (one stored table per alias); by Theorem 1 the
    /// graph alone picks the plan. The shared database stamps each
    /// ground table with the model and spec it was last found equal
    /// to, valid at one storage generation. When every alias is
    /// stamped for this session's model at the current generation, the
    /// query plans on that snapshot without reading a row. Otherwise
    /// the unstamped relations are materialized and compared with
    /// storage, only the ones that differ are loaded, and the aliases
    /// are stamped again. Every [`SharedDb::mutate`] bumps the
    /// generation; appends, deletes and table loads invalidate the
    /// stamps of the tables they touch, and a raw `mutate` all of
    /// them — so a ground table someone else edited is reloaded from
    /// the model, which stays the source of truth. Repeating a query
    /// keeps the epoch, and with it the plan cache, warm across every
    /// session. Where-List restrictions are applied as filters above
    /// the reordered join tree, exactly where the reference evaluator
    /// puts them.
    ///
    /// # Errors
    /// [`FroError::NoEntityModel`] without an entity model;
    /// [`FroError::Lang`] for parse/translation failures;
    /// [`FroError::Opt`] from the optimizer.
    pub fn query(&self, src: &str) -> Result<Prepared, FroError> {
        let (state, optimized) = self.optimize_src(src)?;
        Ok(Prepared {
            state,
            exec_config: self.exec_config,
            optimized,
        })
    }

    /// Parse/translate/optimize a §5 block and fold its Where-List
    /// restrictions on top of the chosen plan — the same placement as
    /// the reference evaluator's `plan_query`, so results coincide
    /// tree by tree. Shared by [`Session::query`] and
    /// [`Session::register_standing_src`].
    fn optimize_src(&self, src: &str) -> Result<(Arc<DbState>, Optimized), FroError> {
        let edb = self.edb.as_ref().ok_or(FroError::NoEntityModel)?;
        let block = parse(src)?;
        let t = translate_shape(&block, edb)?;
        let tree =
            some_implementing_tree(&t.graph).ok_or(FroError::Lang(LangError::Disconnected))?;
        let state = self.db.sync_ground(edb, &t.grounds)?;
        let optimized =
            optimize_with_reduce(&tree, state.catalog(), self.policy, self.reduce_policy)?;
        self.absorb(&optimized.cache);
        let Optimized {
            plan,
            est_cost,
            mut est_rows,
            analysis,
            reordered,
            pairs_examined,
            cache,
            suggested_partitions,
            reduction,
        } = optimized;
        let plan = t.restrictions.iter().fold(plan, |p, r| PhysPlan::Filter {
            input: Box::new(p),
            pred: r.clone(),
        });
        for r in &t.restrictions {
            est_rows *= state.catalog().selectivity(r);
        }
        Ok((
            state,
            Optimized {
                plan,
                est_cost,
                est_rows,
                analysis,
                reordered,
                pairs_examined,
                cache,
                suggested_partitions,
                reduction,
            },
        ))
    }

    /// Register an algebra query as a **standing view**: plan it once
    /// (through the shared plan cache), materialize the result and the
    /// per-join state deltas need, and keep it maintained under every
    /// [`Session::append_rows`] / [`Session::delete_rows`] on its base
    /// relations. Registering an alpha-equivalent query — from *any*
    /// session over this database — returns the **same** view
    /// ([`Registered::shared`]): one materialization, another
    /// subscriber, exactly the sharing Theorem 1 licenses.
    ///
    /// # Errors
    /// [`FroError::Opt`] when the optimizer rejects the query;
    /// [`FroError::Exec`] when the initial materialization fails.
    pub fn register_standing(&self, q: &Query) -> Result<Registered, FroError> {
        let state = self.db.snapshot();
        let optimized = optimize_with_reduce(q, state.catalog(), self.policy, self.reduce_policy)?;
        self.absorb(&optimized.cache);
        let (reg, stats) = self.db.register_standing_with(&optimized, self.policy)?;
        self.absorb_maint(&stats);
        Ok(reg)
    }

    /// Register a §5 UnNest/Link query block as a standing view (the
    /// text-protocol twin of [`Session::register_standing`]; the
    /// server's `Register` frame lands here).
    ///
    /// # Errors
    /// [`FroError::NoEntityModel`] without an entity model;
    /// [`FroError::Lang`] for parse/translation failures;
    /// [`FroError::Opt`] / [`FroError::Exec`] from planning and
    /// materialization.
    pub fn register_standing_src(&self, src: &str) -> Result<Registered, FroError> {
        let (_state, optimized) = self.optimize_src(src)?;
        let (reg, stats) = self.db.register_standing_with(&optimized, self.policy)?;
        self.absorb_maint(&stats);
        Ok(reg)
    }

    /// Serve a standing view's current result in canonical row order,
    /// with the work counters of *this* poll (all zero on the
    /// steady-state fast path; a full refresh shows up as
    /// `views_refreshed = 1` plus the re-execution's engine counters).
    ///
    /// # Errors
    /// [`FroError::UnknownStanding`] for an id this database never
    /// issued; [`FroError::Exec`] when a refresh fails.
    pub fn poll_standing(&self, id: StandingId) -> Result<(Relation, ExecStats), FroError> {
        let (rel, stats) = self.db.poll_standing(id)?;
        self.absorb_maint(&stats);
        Ok((rel, stats))
    }

    /// Cumulative standing-query registry counters (all sessions).
    #[must_use]
    pub fn standing_counters(&self) -> StandingCounters {
        self.db.standing_counters()
    }

    /// Cumulative view-maintenance work across all sessions
    /// ([`SharedDb::maintenance_stats`]).
    #[must_use]
    pub fn maintenance_stats(&self) -> ExecStats {
        self.db.maintenance_stats()
    }

    /// View-maintenance work attributed to this handle alone
    /// (registrations, polls and mutations it issued). Across
    /// concurrent sessions over one [`SharedDb`] these sum to
    /// [`Session::maintenance_stats`], like the plan-cache counters.
    #[must_use]
    pub fn local_maintenance_stats(&self) -> ExecStats {
        self.local_maint.get()
    }
}

/// A pinned catalog generation, returned by [`Session::catalog`].
/// Dereferences to [`Catalog`].
#[derive(Debug)]
pub struct CatalogRef {
    state: Arc<DbState>,
}

impl std::ops::Deref for CatalogRef {
    type Target = Catalog;
    fn deref(&self) -> &Catalog {
        self.state.catalog()
    }
}

/// A pinned storage generation, returned by [`Session::storage`].
/// Dereferences to [`Storage`].
#[derive(Debug)]
pub struct StorageRef {
    state: Arc<DbState>,
}

impl std::ops::Deref for StorageRef {
    type Target = Storage;
    fn deref(&self) -> &Storage {
        self.state.storage()
    }
}

/// An optimized statement bound to the database generation it was
/// planned against, ready to run. Owning its snapshot, it stays valid
/// — and its results stay consistent with its plan — even while other
/// sessions mutate the shared database.
#[derive(Debug)]
pub struct Prepared {
    state: Arc<DbState>,
    exec_config: ExecConfig,
    optimized: Optimized,
}

impl Prepared {
    /// The optimizer's full outcome (plan, estimates, analysis,
    /// cache counters).
    #[must_use]
    pub fn optimized(&self) -> &Optimized {
        &self.optimized
    }

    /// The chosen physical plan.
    #[must_use]
    pub fn plan(&self) -> &PhysPlan {
        &self.optimized.plan
    }

    /// EXPLAIN: plan tree, cost estimates, reordering verdict, and
    /// plan-cache counters for this optimization.
    #[must_use]
    pub fn explain(&self) -> String {
        self.optimized.explain()
    }

    /// Execute against the snapshot this statement was planned on.
    ///
    /// # Errors
    /// [`FroError::Exec`] on engine failures.
    pub fn run(&self) -> Result<Relation, FroError> {
        Ok(self.run_with_stats()?.0)
    }

    /// Execute, additionally returning the engine's work counters.
    ///
    /// # Errors
    /// [`FroError::Exec`] on engine failures.
    pub fn run_with_stats(&self) -> Result<(Relation, ExecStats), FroError> {
        let mut stats = ExecStats::new();
        // When the session config leaves partitioning on "auto", bind
        // the optimizer's catalog-statistics hint now; the engine's
        // per-join build-cardinality fallback only kicks in for configs
        // that bypass the session. Either choice yields bit-identical
        // results — partitioning only moves work, never output.
        let mut cfg = self.exec_config;
        if cfg.partitions == 0 {
            cfg.partitions = self.optimized.suggested_partitions;
        }
        let out = execute_with(&self.optimized.plan, self.state.storage(), &mut stats, &cfg)?;
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fro_algebra::Pred;
    use fro_lang::model::paper_world;

    fn algebra_session() -> Session {
        let s = Session::new();
        s.insert_table("R1", Relation::from_ints("R1", &["k1"], &[&[0]]));
        s.insert_table(
            "R2",
            Relation::from_ints("R2", &["k2"], &[&[0], &[1], &[2]]),
        );
        s.insert_table(
            "R3",
            Relation::from_ints("R3", &["k3"], &[&[1], &[2], &[9]]),
        );
        s
    }

    fn example1() -> Query {
        Query::rel("R1").join(
            Query::rel("R2").outerjoin(Query::rel("R3"), Pred::eq_attr("R2.k2", "R3.k3")),
            Pred::eq_attr("R1.k1", "R2.k2"),
        )
    }

    #[test]
    fn prepare_runs_and_warms_the_cache() {
        let s = algebra_session();
        let q = example1();
        let cold = s.prepare(&q).unwrap();
        let cold_out = cold.run().unwrap();
        assert!(cold.optimized().pairs_examined > 0);
        let warm = s.prepare(&q).unwrap();
        assert_eq!(warm.optimized().pairs_examined, 0, "full-set cache hit");
        assert!(warm.optimized().cache.hits >= 1);
        assert!(warm.run().unwrap().set_eq(&cold_out));
        assert_eq!(cold.explain(), {
            // Cache counters differ between the two runs; plans agree.
            let c = cold.plan().explain();
            let w = warm.plan().explain();
            assert_eq!(c, w);
            cold.explain()
        });
    }

    #[test]
    fn stats_mutation_through_session_invalidates_plans() {
        let s = algebra_session();
        let q = example1();
        let _ = s.prepare(&q).unwrap();
        s.set_distinct(&Attr::parse("R2.k2"), 1_000_000);
        let replanned = s.prepare(&q).unwrap();
        assert!(
            replanned.optimized().pairs_examined > 0,
            "stale plan evicted"
        );
        assert!(replanned.optimized().cache.stale >= 1);
    }

    #[test]
    fn connected_sessions_share_data_and_plans() {
        let a = algebra_session();
        let b = Session::connect(a.shared());
        let q = example1();
        let cold = a.prepare(&q).unwrap();
        assert!(cold.optimized().pairs_examined > 0);
        // The second session sees the first session's tables *and* its
        // warm plan.
        let warm = b.prepare(&q).unwrap();
        assert_eq!(warm.optimized().pairs_examined, 0, "cross-session hit");
        assert!(warm.optimized().cache.hits >= 1);
        assert!(warm.run().unwrap().set_eq(&cold.run().unwrap()));
        // Per-handle counters stay separate and sum into the shared
        // cumulative stats.
        assert_eq!(b.local_cache_stats().hits, warm.optimized().cache.hits);
        let total = a.cache_stats();
        let (la, lb) = (a.local_cache_stats(), b.local_cache_stats());
        assert_eq!(total.hits, la.hits + lb.hits);
        assert_eq!(total.misses, la.misses + lb.misses);
    }

    #[test]
    fn prepared_statements_pin_their_generation() {
        let s = algebra_session();
        let q = example1();
        let prepared = s.prepare(&q).unwrap();
        let before = prepared.run().unwrap();
        // Mutating the shared database after preparing doesn't disturb
        // the pinned snapshot: the statement replays identically.
        s.insert_table("R2", Relation::from_ints("R2", &["k2"], &[&[999]]));
        assert_eq!(prepared.run().unwrap(), before);
        // A fresh prepare sees the new generation (and re-plans, since
        // the epoch moved).
        let fresh = s.prepare(&q).unwrap();
        assert!(!fresh.run().unwrap().set_eq(&before));
    }

    #[test]
    fn query_requires_an_entity_model() {
        let s = Session::new();
        let e = s.query("Select All From EMPLOYEE*ChildName").unwrap_err();
        assert_eq!(e.code(), "SESSION_NO_ENTITY_MODEL");
    }

    #[test]
    fn lang_query_matches_reference_and_warms() {
        let src = "Select All From EMPLOYEE*ChildName, DEPARTMENT \
                   Where EMPLOYEE.D# = DEPARTMENT.D# and DEPARTMENT.Location = 'Queretaro'";
        let s = Session::from_entity_db(paper_world());
        let out = s.query(src).unwrap().run().unwrap();
        assert_eq!(out.len(), 3);
        // Re-issuing the same block hits the cache: the tables are
        // already in sync, so the epoch (and cache) hold.
        let again = s.query(src).unwrap();
        assert_eq!(again.optimized().pairs_examined, 0);
        assert!(again.optimized().cache.hits >= 1);
        assert!(again.run().unwrap().set_eq(&out));
    }

    /// The perfbench mix plus blocks with links, aliases and a
    /// same-alias restriction. No alias names two different ground
    /// relations: one that did would reload its table on every switch.
    const MIX: [&str; 8] = [
        "Select All From EMPLOYEE*ChildName, DEPARTMENT \
         Where EMPLOYEE.D# = DEPARTMENT.D# and DEPARTMENT.Location = 'Queretaro'",
        "Select All From DEPARTMENT, EMPLOYEE*ChildName \
         Where DEPARTMENT.D# = EMPLOYEE.D# and DEPARTMENT.Location = 'Queretaro'",
        "Select All From EMPLOYEE*ChildName, DEPARTMENT-->Manager \
         Where EMPLOYEE.D# = DEPARTMENT.D# and EMPLOYEE.Rank > 10",
        "Select All From DEPARTMENT-->Audit",
        "Select All From DEPARTMENT-->Manager, EMPLOYEE \
         Where DEPARTMENT.D# = EMPLOYEE.D# and EMPLOYEE.Rank > 17",
        "Select All From EMPLOYEE*ChildName Where EMPLOYEE.Rank > 15",
        "Select All From EMPLOYEE AS E, DEPARTMENT AS D-->Manager Where E.D# = D.D#",
        "Select All From DEPARTMENT AS X-->Audit Where X.D# = X.D#",
    ];

    #[test]
    fn warm_text_queries_read_no_ground_rows() {
        let world = fro_testkit::workloads::synthetic_entity_world(50, 20, 7);
        let s = Session::from_entity_db(world);
        let warm: Vec<Relation> = MIX
            .iter()
            .map(|q| s.query(q).unwrap().run().unwrap())
            .collect();
        let read = s.shared().ground_rows_materialized();
        assert!(read > 0, "the warm pass loads the ground tables");
        let epoch = s.storage().epoch();
        let mut k = 7usize;
        for _ in 0..100 {
            k = (k * 5 + 3) % MIX.len();
            let out = s.query(MIX[k]).unwrap().run().unwrap();
            assert_eq!(out, warm[k], "{}", MIX[k]);
        }
        assert_eq!(s.shared().ground_rows_materialized(), read, "no row read");
        assert_eq!(s.storage().epoch(), epoch, "no table reloaded");
    }

    #[test]
    fn an_append_rematerializes_only_the_touched_alias_once() {
        use fro_algebra::Value;
        let src = MIX[0];
        let s = Session::from_entity_db(paper_world());
        let before = s.query(src).unwrap().run().unwrap();
        let read = s.shared().ground_rows_materialized();
        // A Queretaro employee the model does not have.
        let stray = Tuple::new(vec![
            Value::Int(99),
            Value::str("Zed"),
            Value::Int(1),
            Value::Int(5),
        ]);
        assert!(s.append_rows("EMPLOYEE", vec![stray.clone()]));
        let after = s.query(src).unwrap().run().unwrap();
        assert_eq!(after, before, "the model stays the source of truth");
        let employees = paper_world().instances("EMPLOYEE").len() as u64;
        assert_eq!(
            s.shared().ground_rows_materialized() - read,
            employees,
            "only EMPLOYEE is read again; EMPLOYEE_ChildName and DEPARTMENT stay stamped"
        );
        let storage = s.storage();
        let table = storage
            .get_by_id(storage.rel_id("EMPLOYEE").unwrap())
            .unwrap();
        assert!(!table.relation().rows().contains(&stray), "stray row gone");
        drop(storage);
        let read = s.shared().ground_rows_materialized();
        s.query(src).unwrap().run().unwrap();
        assert_eq!(s.shared().ground_rows_materialized(), read, "stamped again");
    }

    #[test]
    fn lang_query_surfaces_parse_errors_with_codes() {
        let s = Session::from_entity_db(paper_world());
        let e = s.query("From nothing").unwrap_err();
        assert_eq!(e.code(), "LANG_PARSE");
    }
}
