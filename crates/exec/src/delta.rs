//! Incremental delta maintenance for standing views.
//!
//! A [`DeltaPlan`] is a maintenance-shaped mirror of a [`PhysPlan`]:
//! scans, filters, and joins (every physical join flavor collapses to
//! one delta join node; [`PhysPlan::SemiReduce`] wrappers are dropped
//! because reduction is semantically transparent).
//!
//! ## One rule for every join kind
//!
//! Identity (10), `X → Y = (X − Y) ∪ (X ▷ Y)`, splits a left outerjoin
//! into its matched pairs plus a fixed action for each row with zero
//! matches. Every kind maintained here has that shape: over relations
//! annotated with match counts `m`, outer-, semi- and antijoin differ
//! only in a row's *lone* output, which comes and goes as `m` crosses
//! `0 ↔ 1`:
//!
//! | kind       | pairs | left row `l`            | right row `r`           |
//! |------------|-------|-------------------------|-------------------------|
//! | inner      | yes   | —                       | —                       |
//! | left outer | yes   | `l∘null` while `m(l)=0` | —                       |
//! | full outer | yes   | `l∘null` while `m(l)=0` | `null∘r` while `m(r)=0` |
//! | semi       | no    | `l` while `m(l)>0`      | —                       |
//! | anti       | no    | `l` while `m(l)=0`      | —                       |
//!
//! So each join keeps its inputs as two annotated sides and applies a
//! signed batch arriving on either side with one function. The delta
//! algebra it implements, writing `Δ` for a signed row set:
//!
//! * **Inner** — `Δ(L ⋈ R) = L ⋈ ΔR ∪ ΔL ⋈ R'` (`R'` is `R` after
//!   `ΔR` is applied: batches apply sequentially, right input first).
//! * **Left outer** — as inner, plus the pad `l∘null`: retracted when
//!   `m(l)` crosses `0 → 1`, emitted when it crosses `1 → 0`.
//! * **Full outer** — left-outer bookkeeping on both sides.
//! * **Semi** — output is the left rows with `m(l) > 0`; only the
//!   `0 ↔ 1` transitions of `m(l)` emit or retract `l`.
//! * **Anti** — output is the left rows with `m(l) = 0`; the same
//!   transitions act in reverse.
//!
//! A null equi-key never matches (3VL, like every join in the engine),
//! so null-keyed rows only ever contribute lone rows.
//!
//! Views are registered and owned one level up (the `fro` facade);
//! this module is pure mechanism: build a [`DeltaPlan`] from a
//! physical plan, [`DeltaPlan::initialize`] it against storage (with
//! leaf build sides optionally cloned from a [`BuildSidePool`] instead
//! of rebuilt — Finkelstein-style reuse between standing queries whose
//! graphs overlap), then [`DeltaPlan::apply`] base-relation deltas and
//! fold the returned root delta into the maintained result.

use crate::engine::ExecError;
use crate::plan::{JoinKind, PhysPlan};
use crate::stats::ExecStats;
use crate::storage::Storage;
use fro_algebra::schema::SchemaRef;
use fro_algebra::{Pred, Tuple, Value};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A signed, set-level change to one relation: rows that became
/// present and rows that ceased to be. A tuple never appears in both
/// lists ([`RowDelta::normalize`] cancels oscillations), matching the
/// set semantics of every relation in the engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowDelta {
    /// Rows that became present.
    pub inserts: Vec<Tuple>,
    /// Rows that ceased to be present.
    pub deletes: Vec<Tuple>,
}

impl RowDelta {
    /// A pure-insert delta.
    #[must_use]
    pub fn from_inserts(inserts: Vec<Tuple>) -> RowDelta {
        RowDelta {
            inserts,
            deletes: Vec::new(),
        }
    }

    /// A pure-delete delta.
    #[must_use]
    pub fn from_deletes(deletes: Vec<Tuple>) -> RowDelta {
        RowDelta {
            deletes,
            inserts: Vec::new(),
        }
    }

    /// True when the delta changes nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Number of signed rows (inserts plus deletes).
    #[must_use]
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Cancel insert/delete oscillations of the same tuple so the
    /// delta is a minimal set-level change, and sort both lists so
    /// downstream processing order is deterministic.
    #[must_use]
    pub fn normalize(self) -> RowDelta {
        let mut net: HashMap<Tuple, i64> = HashMap::new();
        for t in self.inserts {
            *net.entry(t).or_insert(0) += 1;
        }
        for t in self.deletes {
            *net.entry(t).or_insert(0) -= 1;
        }
        let mut inserts = Vec::new();
        let mut deletes = Vec::new();
        for (t, n) in net {
            debug_assert!((-1..=1).contains(&n), "set-level delta amplitude");
            if n > 0 {
                inserts.push(t);
            } else if n < 0 {
                deletes.push(t);
            }
        }
        inserts.sort_unstable();
        deletes.sort_unstable();
        RowDelta { inserts, deletes }
    }
}

/// The equi-key of a row: `None` when any key column is null (a null
/// key never matches). An empty key list yields `Some([])` — every row
/// in one bucket, matching decided by the residual alone (how
/// nested-loop joins are modelled).
fn key_of(t: &Tuple, cols: &[usize]) -> Option<Vec<Value>> {
    cols.iter()
        .map(|&c| Some(t.get(c)).filter(|v| !v.is_null()).cloned())
        .collect()
}

/// Index of a join's left input in its per-side arrays.
const LEFT: usize = 0;
/// Index of a join's right input in its per-side arrays.
const RIGHT: usize = 1;

/// The module docs' table: whether a kind outputs matched pairs, and
/// when each side's rows have a lone output — `Some(true)` while the
/// row has matches, `Some(false)` while it has none. A lone output is
/// the row null-extended to the join's output scheme: its pad when the
/// kind outputs pairs, the row itself when it does not.
fn rule(kind: JoinKind) -> (bool, [Option<bool>; 2]) {
    match kind {
        JoinKind::Inner => (true, [None, None]),
        JoinKind::LeftOuter => (true, [Some(false), None]),
        JoinKind::FullOuter => (true, [Some(false), Some(false)]),
        JoinKind::Semi => (false, [Some(true), None]),
        JoinKind::Anti => (false, [Some(false), None]),
    }
}

/// One annotated side of a delta join: key → row → the row's match
/// count on the other side. Null-keyed rows never match, so they are
/// held apart, uncounted.
#[derive(Debug, Clone, Default)]
struct Side {
    by_key: HashMap<Vec<Value>, HashMap<Tuple, u64>>,
    null_keyed: HashSet<Tuple>,
}

impl Side {
    fn insert(&mut self, key: Option<Vec<Value>>, t: Tuple, count: u64) {
        let fresh = match key {
            Some(k) => self.by_key.entry(k).or_default().insert(t, count).is_none(),
            None => self.null_keyed.insert(t),
        };
        debug_assert!(fresh, "side rows are sets; duplicate insert");
    }

    /// Remove `t`, returning the match count it held.
    fn remove(&mut self, key: Option<&Vec<Value>>, t: &Tuple) -> u64 {
        let Some(k) = key else {
            self.null_keyed.remove(t);
            return 0;
        };
        let Some(bucket) = self.by_key.get_mut(k) else {
            return 0;
        };
        let count = bucket.remove(t).unwrap_or(0);
        if bucket.is_empty() {
            self.by_key.remove(k);
        }
        count
    }
}

/// Identity of a poolable leaf build side: the base relation, the
/// resolved key columns, and the filter predicate applied on top of
/// the scan (rendered — predicate display is injective enough for a
/// cache key, and a miss only costs a rebuild).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SideKey {
    rel: String,
    cols: Vec<usize>,
    pred: String,
}

/// A cross-view pool of finished leaf build sides. When two standing
/// queries' graphs overlap (one a prefix or extension of the other, in
/// Finkelstein's sense), the shared base relations produce identical
/// `(rel, keys, filter)` leaf sides — the second registration clones
/// the pooled side (every match count zero) instead of re-scanning,
/// re-filtering and re-hashing the base table. The owner invalidates
/// pooled entries whenever their base relation mutates.
#[derive(Debug, Default)]
pub struct BuildSidePool {
    sides: HashMap<SideKey, Arc<Side>>,
    hits: u64,
}

impl BuildSidePool {
    /// An empty pool.
    #[must_use]
    pub fn new() -> BuildSidePool {
        BuildSidePool::default()
    }

    /// Number of pooled sides.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sides.len()
    }

    /// True when nothing is pooled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sides.is_empty()
    }

    /// How many registrations reused a pooled side instead of
    /// rebuilding it.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Drop every pooled side built over `rel` (its contents changed).
    pub fn invalidate_rel(&mut self, rel: &str) {
        self.sides.retain(|k, _| k.rel != rel);
    }

    /// Drop everything (a structural change of unknown scope).
    pub fn clear(&mut self) {
        self.sides.clear();
    }
}

/// Per-node state of a delta join; arrays are indexed by [`LEFT`] and
/// [`RIGHT`].
#[derive(Debug)]
struct JoinNode {
    /// Whether matched pairs are output ([`rule`]).
    pairs: bool,
    /// When each side's rows have a lone output ([`rule`]).
    lone: [Option<bool>; 2],
    inputs: [usize; 2],
    /// Equi-key columns of each side.
    cols: [Vec<usize>; 2],
    residual: Pred,
    /// `left ++ right` — the schema residuals evaluate against.
    pair_schema: SchemaRef,
    widths: [usize; 2],
    sides: [Side; 2],
    /// Derivation refcount per output tuple: pads and real rows can
    /// collide on all-null tuples, exactly like in the engine.
    out: HashMap<Tuple, i64>,
    /// Set when the right subtree is a bare or filtered scan — the
    /// shapes eligible for cross-view build-side pooling.
    right_leaf: Option<SideKey>,
}

impl JoinNode {
    /// The one delta rule: push `rows` arriving on `side` — inserted
    /// when `insert`, else deleted — through the join, recording the
    /// output change in `d`. Deleted rows must be present and inserted
    /// rows novel (the mutation APIs guarantee it).
    fn push(
        &mut self,
        side: usize,
        rows: Vec<Tuple>,
        insert: bool,
        d: &mut RowDelta,
    ) -> Result<(), ExecError> {
        let other = 1 - side;
        for t in rows {
            let key = key_of(&t, &self.cols[side]);
            let mut matched = 0;
            let bucket = key
                .as_ref()
                .and_then(|k| self.sides[other].by_key.get_mut(k));
            for (m, count) in bucket.into_iter().flatten() {
                let (l, r) = if side == LEFT { (&t, m) } else { (m, &t) };
                let pair = l.concat(r);
                let hit = self.residual.eval(&pair, &self.pair_schema);
                if !hit.map_err(ExecError::Algebra)?.is_true() {
                    continue;
                }
                matched += 1;
                if self.pairs {
                    derive(&mut self.out, pair, insert, d);
                }
                *count = if insert { *count + 1 } else { *count - 1 };
                let crossed = if insert { *count == 1 } else { *count == 0 };
                if let Some(when_matched) = self.lone[other].filter(|_| crossed) {
                    let row = lone_row(self.pairs, other, m, self.widths);
                    derive(&mut self.out, row, insert == when_matched, d);
                }
            }
            if let Some(when_matched) = self.lone[side] {
                if (matched > 0) == when_matched {
                    let row = lone_row(self.pairs, side, &t, self.widths);
                    derive(&mut self.out, row, insert, d);
                }
            }
            if insert {
                self.sides[side].insert(key, t, matched);
            } else {
                let held = self.sides[side].remove(key.as_ref(), &t);
                debug_assert_eq!(held, matched, "match count drifted");
            }
        }
        Ok(())
    }

    /// Emit the lone rows of a right side adopted from the pool: its
    /// rows arrived without being pushed, all unmatched since the left
    /// side is still empty. (Without an adopted side, a no-op.)
    fn emit_adopted(&mut self, d: &mut RowDelta) {
        if self.lone[RIGHT] == Some(false) {
            let right = &self.sides[RIGHT];
            for r in right
                .by_key
                .values()
                .flat_map(HashMap::keys)
                .chain(&right.null_keyed)
            {
                let pad = lone_row(true, RIGHT, r, self.widths);
                derive(&mut self.out, pad, true, d);
            }
        }
    }
}

/// Row `t` of `side` as its lone output: null-extended to the pair
/// scheme when the join outputs `pairs`, else the row itself.
fn lone_row(pairs: bool, side: usize, t: &Tuple, widths: [usize; 2]) -> Tuple {
    match (pairs, side) {
        (false, _) => t.clone(),
        (true, LEFT) => t.concat(&Tuple::nulls(widths[RIGHT])),
        (true, _) => Tuple::nulls(widths[LEFT]).concat(t),
    }
}

/// Add (`up`) or drop one derivation of output tuple `t`, recording a
/// set-level insert or delete when its refcount crosses `0 ↔ 1`.
fn derive(out: &mut HashMap<Tuple, i64>, t: Tuple, up: bool, d: &mut RowDelta) {
    let c = out.entry(t.clone()).or_insert(0);
    *c += if up { 1 } else { -1 };
    debug_assert!(*c >= 0, "retract of underived tuple");
    match (*c, up) {
        (1, true) => d.inserts.push(t),
        (0, false) => {
            out.remove(&t);
            d.deletes.push(t);
        }
        _ => {}
    }
}

#[derive(Debug)]
enum DeltaNode {
    Scan { rel: String },
    Filter { input: usize, pred: Pred },
    Join(Box<JoinNode>),
}

/// What one pass over the plan feeds its scans.
enum Feed<'a> {
    /// Maintenance: `delta` at scans of `base`, nothing elsewhere.
    Delta { base: &'a str, delta: &'a RowDelta },
    /// Seeding: every stored row at every scan not `skip`ped (the
    /// scans under right sides adopted from `pool`); built leaf right
    /// sides are contributed to `pool`.
    Seed {
        storage: &'a Storage,
        pool: &'a mut BuildSidePool,
        skip: Vec<bool>,
    },
}

/// A maintenance plan: the delta-operator mirror of one physical plan,
/// plus all per-join state. Nodes live in a post-order arena (children
/// strictly before parents; the root is last).
#[derive(Debug)]
pub struct DeltaPlan {
    nodes: Vec<DeltaNode>,
    schemas: Vec<SchemaRef>,
    rels: Vec<String>,
}

impl DeltaPlan {
    /// Mirror `plan` into delta operators, resolving key attributes to
    /// column offsets against `storage`'s schemas. Returns `None` when
    /// the plan contains an operator with no delta form (`Project`,
    /// `GroupCount`, `Goj`) or references an unknown table/attribute —
    /// the caller then falls back to refresh-on-poll maintenance.
    #[must_use]
    pub fn try_build(plan: &PhysPlan, storage: &Storage) -> Option<DeltaPlan> {
        let mut dp = DeltaPlan {
            nodes: Vec::new(),
            schemas: Vec::new(),
            rels: Vec::new(),
        };
        dp.build(plan, storage)?;
        dp.rels.sort();
        dp.rels.dedup();
        Some(dp)
    }

    /// The distinct base relations the plan reads (sorted).
    #[must_use]
    pub fn rels(&self) -> &[String] {
        &self.rels
    }

    /// The output schema of the maintained result.
    #[must_use]
    pub fn schema(&self) -> &SchemaRef {
        self.schemas.last().expect("plan has at least one node")
    }

    fn push(&mut self, node: DeltaNode, schema: SchemaRef) -> usize {
        self.nodes.push(node);
        self.schemas.push(schema);
        self.nodes.len() - 1
    }

    fn build_scan(&mut self, rel: &str, storage: &Storage) -> Option<usize> {
        let schema = storage.get_named(rel)?.relation().schema().clone();
        self.rels.push(rel.to_string());
        Some(self.push(
            DeltaNode::Scan {
                rel: rel.to_string(),
            },
            schema,
        ))
    }

    fn build(&mut self, plan: &PhysPlan, storage: &Storage) -> Option<usize> {
        match plan {
            PhysPlan::Scan { rel } => self.build_scan(rel, storage),
            PhysPlan::Filter { input, pred } => {
                let child = self.build(input, storage)?;
                let schema = self.schemas[child].clone();
                Some(self.push(
                    DeltaNode::Filter {
                        input: child,
                        pred: pred.clone(),
                    },
                    schema,
                ))
            }
            // Reduction is semantically transparent: the reduced plan
            // computes the same relation, so the delta mirror simply
            // maintains the unreduced input.
            PhysPlan::SemiReduce { input, .. } => self.build(input, storage),
            PhysPlan::HashJoin {
                kind,
                probe,
                build,
                probe_keys,
                build_keys,
                residual,
            } => self.build_join(
                storage, *kind, probe, build, probe_keys, build_keys, residual,
            ),
            PhysPlan::IndexJoin {
                kind,
                outer,
                inner,
                outer_keys,
                inner_keys,
                residual,
            } => {
                let inner_plan = PhysPlan::scan(inner.clone());
                self.build_join(
                    storage,
                    *kind,
                    outer,
                    &inner_plan,
                    outer_keys,
                    inner_keys,
                    residual,
                )
            }
            PhysPlan::MergeJoin {
                kind,
                left,
                right,
                left_keys,
                right_keys,
                residual,
            } => self.build_join(storage, *kind, left, right, left_keys, right_keys, residual),
            PhysPlan::NlJoin {
                kind,
                left,
                right,
                pred,
            } => self.build_join(storage, *kind, left, right, &[], &[], pred),
            PhysPlan::Project { .. } | PhysPlan::GroupCount { .. } | PhysPlan::Goj { .. } => None,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn build_join(
        &mut self,
        storage: &Storage,
        kind: JoinKind,
        left: &PhysPlan,
        right: &PhysPlan,
        left_keys: &[fro_algebra::Attr],
        right_keys: &[fro_algebra::Attr],
        residual: &Pred,
    ) -> Option<usize> {
        let l = self.build(left, storage)?;
        let r = self.build(right, storage)?;
        let ls = self.schemas[l].clone();
        let rs = self.schemas[r].clone();
        let left_cols: Option<Vec<usize>> = left_keys.iter().map(|a| ls.index_of(a)).collect();
        let right_cols: Option<Vec<usize>> = right_keys.iter().map(|a| rs.index_of(a)).collect();
        let (left_cols, right_cols) = (left_cols?, right_cols?);
        if left_cols.len() != right_cols.len() {
            return None;
        }
        let pair_schema: SchemaRef = Arc::new(ls.concat(&rs).ok()?);
        let (pairs, lone) = rule(kind);
        let out_schema = if pairs {
            pair_schema.clone()
        } else {
            ls.clone()
        };
        let node = JoinNode {
            pairs,
            lone,
            inputs: [l, r],
            right_leaf: leaf_side_key(right, &right_cols),
            cols: [left_cols, right_cols],
            residual: residual.clone(),
            pair_schema,
            widths: [ls.len(), rs.len()],
            sides: Default::default(),
            out: HashMap::new(),
        };
        Some(self.push(DeltaNode::Join(Box::new(node)), out_schema))
    }

    /// Drop all maintained join state (before a fresh
    /// [`DeltaPlan::initialize`]).
    pub fn reset(&mut self) {
        for node in &mut self.nodes {
            if let DeltaNode::Join(jn) = node {
                jn.sides = Default::default();
                jn.out.clear();
            }
        }
    }

    /// Materialize the view from scratch against `storage`, seeding
    /// every join's annotated sides along the way. Leaf build sides
    /// found in `pool` are cloned instead of rebuilt (and freshly built
    /// ones are contributed back). Returns the full result rows
    /// (deduplicated, unordered).
    pub fn initialize(
        &mut self,
        storage: &Storage,
        pool: &mut BuildSidePool,
        stats: &mut ExecStats,
    ) -> Result<Vec<Tuple>, ExecError> {
        self.reset();
        // Resolve pool hits up front: a hit lets the join skip
        // computing its (leaf) right subtree entirely.
        let mut skip = vec![false; self.nodes.len()];
        for id in 0..self.nodes.len() {
            let DeltaNode::Join(jn) = &mut self.nodes[id] else {
                continue;
            };
            let Some(side) = jn.right_leaf.as_ref().and_then(|k| pool.sides.get(k)) else {
                continue;
            };
            pool.hits += 1;
            jn.sides[RIGHT] = Side::clone(side);
            // A leaf is a scan, perhaps under a filter: skip the scan.
            let mut leaf = jn.inputs[RIGHT];
            while let DeltaNode::Filter { input, .. } = &self.nodes[leaf] {
                leaf = *input;
            }
            skip[leaf] = true;
        }
        let feed = Feed::Seed {
            storage,
            pool,
            skip,
        };
        Ok(self.propagate(feed, stats)?.inserts)
    }

    /// Propagate one base-relation delta through the plan, updating
    /// every join's maintained state, and return the set-level delta
    /// of the view result. `delta` must be exact (inserts really novel,
    /// deletes really present) — the mutation APIs guarantee this.
    pub fn apply(
        &mut self,
        base: &str,
        delta: &RowDelta,
        stats: &mut ExecStats,
    ) -> Result<RowDelta, ExecError> {
        Ok(self
            .propagate(Feed::Delta { base, delta }, stats)?
            .normalize())
    }

    /// The one post-order pass behind [`DeltaPlan::initialize`] and
    /// [`DeltaPlan::apply`]: scans take what `feed` gives them, filters
    /// keep what their predicate accepts, and joins push their right
    /// then their left input through the delta rule — right first, so
    /// seeding a left outerjoin never emits a pad only to retract it,
    /// and a built leaf side is pooled before any count moves. Seeding
    /// charges the rows it retrieves and hashes into sides; maintenance
    /// charges every delta row a node ingests. Returns the root's delta.
    fn propagate(
        &mut self,
        mut feed: Feed<'_>,
        stats: &mut ExecStats,
    ) -> Result<RowDelta, ExecError> {
        let seeding = matches!(feed, Feed::Seed { .. });
        let mut deltas: Vec<RowDelta> = Vec::with_capacity(self.nodes.len());
        for (id, node) in self.nodes.iter_mut().enumerate() {
            let d = match node {
                DeltaNode::Scan { rel } => {
                    let d = match &feed {
                        Feed::Delta { base, delta } if rel == base => (*delta).clone(),
                        Feed::Seed { storage, skip, .. } if !skip[id] => RowDelta::from_inserts(
                            storage.lookup_named(rel)?.relation().rows().to_vec(),
                        ),
                        _ => RowDelta::default(),
                    };
                    let ingested = if seeding {
                        &mut stats.tuples_retrieved
                    } else {
                        &mut stats.delta_rows_in
                    };
                    *ingested += d.len() as u64;
                    d
                }
                DeltaNode::Filter { input, pred } => {
                    let child = std::mem::take(&mut deltas[*input]);
                    if !seeding {
                        stats.delta_rows_in += child.len() as u64;
                    }
                    let schema = &self.schemas[*input];
                    let keep = |rows: Vec<Tuple>| -> Result<Vec<Tuple>, ExecError> {
                        let mut kept = Vec::new();
                        for t in rows {
                            if pred.eval(&t, schema).map_err(ExecError::Algebra)?.is_true() {
                                kept.push(t);
                            }
                        }
                        Ok(kept)
                    };
                    RowDelta {
                        inserts: keep(child.inserts)?,
                        deletes: keep(child.deletes)?,
                    }
                }
                DeltaNode::Join(jn) => {
                    let [dl, dr] = jn.inputs.map(|i| std::mem::take(&mut deltas[i]));
                    let ingested = if seeding {
                        &mut stats.hash_build_rows
                    } else {
                        &mut stats.delta_rows_in
                    };
                    *ingested += (dl.len() + dr.len()) as u64;
                    let mut d = RowDelta::default();
                    if seeding {
                        jn.emit_adopted(&mut d);
                    }
                    jn.push(RIGHT, dr.deletes, false, &mut d)?;
                    jn.push(RIGHT, dr.inserts, true, &mut d)?;
                    if let (Feed::Seed { pool, .. }, Some(key)) = (&mut feed, &jn.right_leaf) {
                        // All counts are zero: the left side is empty.
                        let right = &jn.sides[RIGHT];
                        pool.sides
                            .entry(key.clone())
                            .or_insert_with(|| Arc::new(right.clone()));
                    }
                    jn.push(LEFT, dl.deletes, false, &mut d)?;
                    jn.push(LEFT, dl.inserts, true, &mut d)?;
                    d.normalize()
                }
            };
            deltas.push(d);
        }
        Ok(deltas.pop().expect("plan has at least one node"))
    }
}

/// The pool key of a right subtree that is a bare or filtered scan.
fn leaf_side_key(plan: &PhysPlan, cols: &[usize]) -> Option<SideKey> {
    let (rel, pred) = match plan {
        PhysPlan::Scan { rel } => (rel, String::new()),
        PhysPlan::Filter { input, pred } => match input.as_ref() {
            PhysPlan::Scan { rel } => (rel, pred.to_string()),
            _ => return None,
        },
        _ => return None,
    };
    Some(SideKey {
        rel: rel.clone(),
        cols: cols.to_vec(),
        pred,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::execute;
    use fro_algebra::{Attr, Relation};
    use std::collections::BTreeSet;

    fn storage_rs() -> Storage {
        let mut storage = Storage::new();
        storage.insert(
            "R",
            Relation::from_ints("R", &["k", "a"], &[&[1, 10], &[2, 20], &[3, 30]]),
        );
        storage.insert(
            "S",
            Relation::from_ints("S", &["k", "b"], &[&[2, 200], &[4, 400]]),
        );
        storage
    }

    fn join_plan(kind: JoinKind) -> PhysPlan {
        PhysPlan::HashJoin {
            kind,
            probe: Box::new(PhysPlan::scan("R")),
            build: Box::new(PhysPlan::scan("S")),
            probe_keys: vec![Attr::parse("R.k")],
            build_keys: vec![Attr::parse("S.k")],
            residual: Pred::always(),
        }
    }

    /// Maintained rows after a mutation must equal a fresh engine run.
    fn check_against_engine(
        plan: &PhysPlan,
        storage: &Storage,
        dp: &DeltaPlan,
        view: &BTreeSet<Tuple>,
    ) {
        let mut stats = ExecStats::new();
        let expect = execute(plan, storage, &mut stats).unwrap();
        let mut rows: Vec<Tuple> = expect.rows().to_vec();
        rows.sort_unstable();
        let got: Vec<Tuple> = view.iter().cloned().collect();
        assert_eq!(got, rows, "maintained view diverged for {:?}", dp.rels());
    }

    fn apply_to_view(view: &mut BTreeSet<Tuple>, d: &RowDelta) {
        for t in &d.deletes {
            assert!(view.remove(t), "delete of absent view row");
        }
        for t in &d.inserts {
            assert!(view.insert(t.clone()), "insert of present view row");
        }
    }

    #[test]
    fn all_kinds_maintain_under_appends_and_deletes() {
        for kind in [
            JoinKind::Inner,
            JoinKind::LeftOuter,
            JoinKind::FullOuter,
            JoinKind::Semi,
            JoinKind::Anti,
        ] {
            let mut storage = storage_rs();
            let plan = join_plan(kind);
            let mut dp = DeltaPlan::try_build(&plan, &storage).unwrap();
            let mut pool = BuildSidePool::new();
            let mut stats = ExecStats::new();
            let init = dp.initialize(&storage, &mut pool, &mut stats).unwrap();
            let mut view: BTreeSet<Tuple> = init.into_iter().collect();
            check_against_engine(&plan, &storage, &dp, &view);

            // Append a matching and a non-matching S row.
            let add = vec![
                Tuple::new(vec![Value::Int(1), Value::Int(100)]),
                Tuple::new(vec![Value::Int(9), Value::Int(900)]),
            ];
            let mut rel = storage.get_named("S").unwrap().relation().clone();
            let mut rows = rel.rows().to_vec();
            rows.extend(add.clone());
            rel = Relation::new(rel.schema().clone(), rows).unwrap();
            storage.insert("S", rel);
            let d = dp
                .apply("S", &RowDelta::from_inserts(add), &mut stats)
                .unwrap();
            apply_to_view(&mut view, &d);
            check_against_engine(&plan, &storage, &dp, &view);
            assert!(stats.delta_rows_in > 0);

            // Delete the last match of R.k=2 — the outerjoin pad must
            // come back, the semi row must die, the anti row appear.
            let del = vec![Tuple::new(vec![Value::Int(2), Value::Int(200)])];
            let rel = storage.get_named("S").unwrap().relation().clone();
            let rows: Vec<Tuple> = rel
                .rows()
                .iter()
                .filter(|t| **t != del[0])
                .cloned()
                .collect();
            storage.insert("S", Relation::new(rel.schema().clone(), rows).unwrap());
            let d = dp
                .apply("S", &RowDelta::from_deletes(del), &mut stats)
                .unwrap();
            apply_to_view(&mut view, &d);
            check_against_engine(&plan, &storage, &dp, &view);
        }
    }

    #[test]
    fn initialize_counters_are_pinned_per_kind() {
        // R has 3 rows, S has 2: seeding retrieves every base row once
        // and hashes every row into its join side once (S as the build
        // side, R as the probe side), for every kind alike. Seeding is
        // not maintenance, so the delta counters stay at zero.
        for (kind, rows) in [
            (JoinKind::Inner, 1),
            (JoinKind::LeftOuter, 3),
            (JoinKind::FullOuter, 4),
            (JoinKind::Semi, 1),
            (JoinKind::Anti, 2),
        ] {
            let storage = storage_rs();
            let mut dp = DeltaPlan::try_build(&join_plan(kind), &storage).unwrap();
            let mut stats = ExecStats::new();
            let init = dp
                .initialize(&storage, &mut BuildSidePool::new(), &mut stats)
                .unwrap();
            assert_eq!(init.len(), rows, "{kind:?} rows");
            assert_eq!(stats.tuples_retrieved, 5, "{kind:?} tuples_retrieved");
            assert_eq!(stats.hash_build_rows, 5, "{kind:?} hash_build_rows");
            assert_eq!(stats.delta_rows_in, 0, "{kind:?} delta_rows_in");
            assert_eq!(stats.delta_rows_out, 0, "{kind:?} delta_rows_out");
        }
    }

    #[test]
    fn full_outer_all_null_pad_collision_is_refcounted() {
        // L = {allnull}, R = {allnull}: both pads are the same all-null
        // output tuple; one derivation must survive deleting one side.
        let mut storage = Storage::new();
        let l = Relation::new(
            Arc::new(fro_algebra::Schema::new(vec![Attr::parse("L.x")]).unwrap()),
            vec![Tuple::new(vec![Value::Null])],
        )
        .unwrap();
        let r = Relation::new(
            Arc::new(fro_algebra::Schema::new(vec![Attr::parse("Rr.y")]).unwrap()),
            vec![Tuple::new(vec![Value::Null])],
        )
        .unwrap();
        storage.insert("L", l);
        storage.insert("Rr", r);
        let plan = PhysPlan::HashJoin {
            kind: JoinKind::FullOuter,
            probe: Box::new(PhysPlan::scan("L")),
            build: Box::new(PhysPlan::scan("Rr")),
            probe_keys: vec![Attr::parse("L.x")],
            build_keys: vec![Attr::parse("Rr.y")],
            residual: Pred::always(),
        };
        let mut dp = DeltaPlan::try_build(&plan, &storage).unwrap();
        let mut pool = BuildSidePool::new();
        let mut stats = ExecStats::new();
        let init = dp.initialize(&storage, &mut pool, &mut stats).unwrap();
        assert_eq!(init.len(), 1, "two pads collide into one all-null row");
        let mut view: BTreeSet<Tuple> = init.into_iter().collect();
        // Deleting the L row drops one derivation; the row survives.
        let d = dp
            .apply(
                "L",
                &RowDelta::from_deletes(vec![Tuple::new(vec![Value::Null])]),
                &mut stats,
            )
            .unwrap();
        assert!(d.is_empty(), "refcount absorbs the collision: {d:?}");
        apply_to_view(&mut view, &d);
        assert_eq!(view.len(), 1);
    }

    #[test]
    fn unsupported_operators_refuse_a_delta_plan() {
        let storage = storage_rs();
        let plan = PhysPlan::GroupCount {
            input: Box::new(PhysPlan::scan("R")),
            group_attrs: vec![Attr::parse("R.k")],
            counted: None,
        };
        assert!(DeltaPlan::try_build(&plan, &storage).is_none());
        assert!(DeltaPlan::try_build(&PhysPlan::scan("missing"), &storage).is_none());
    }

    #[test]
    fn pool_reuses_leaf_build_sides() {
        let storage = storage_rs();
        let plan = join_plan(JoinKind::Inner);
        let mut pool = BuildSidePool::new();
        let mut stats = ExecStats::new();
        let mut dp1 = DeltaPlan::try_build(&plan, &storage).unwrap();
        dp1.initialize(&storage, &mut pool, &mut stats).unwrap();
        assert_eq!(pool.hits(), 0);
        assert_eq!(pool.len(), 1);
        let built_before = stats.hash_build_rows;
        let mut dp2 = DeltaPlan::try_build(&plan, &storage).unwrap();
        dp2.initialize(&storage, &mut pool, &mut stats).unwrap();
        assert_eq!(pool.hits(), 1, "second registration reuses the side");
        // The pooled side's rows were not re-hashed; only left rows were.
        assert_eq!(stats.hash_build_rows - built_before, 3);
        pool.invalidate_rel("S");
        assert!(pool.is_empty());
    }

    #[test]
    fn normalize_cancels_oscillations() {
        let t = Tuple::new(vec![Value::Int(1)]);
        let d = RowDelta {
            inserts: vec![t.clone()],
            deletes: vec![t.clone()],
        };
        assert!(d.normalize().is_empty());
    }
}
