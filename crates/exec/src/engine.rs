//! The materializing, morsel-driven executor.
//!
//! Join probes are **morsel-driven**: the probe side is split into
//! fixed-size contiguous row ranges (morsels), a pool of scoped
//! `std::thread` workers claims morsels from a shared atomic counter,
//! and each worker probes into a private output buffer. Buffers are
//! concatenated in morsel-index order, so the output rows — order
//! included — are bit-identical to a sequential probe regardless of
//! scheduling. The hash-join build side is materialized into a shared
//! immutable [`JoinTable`] of **radix partitions**: the high 32 bits of
//! each key's 64-bit hash select a partition-local bucket map, the full
//! hash selects the bucket. Only key *hashes* and row ids are stored
//! (no key values are copied); candidates are re-checked for exact key
//! equality against the pinned build rows. The build itself is
//! morsel-parallel: workers scatter `(hash, row id)` pairs into
//! per-morsel buffers, the buffers are replayed in morsel-index order
//! (morsels are contiguous ascending row ranges, so replay order is
//! ascending row order), and each partition's bucket map is then built
//! independently — bucket chains, and with them output rows, order,
//! and every counter, are bit-identical to a sequential single-table
//! build at any partition count, thread count, and morsel size.
//! Probes compute each key hash once and reuse it for both partition
//! selection and bucket lookup.
//!
//! Residual predicates are bound through the storage interner when
//! possible ([`fro_algebra::ops::BoundPred::bind_interned`]): attribute
//! resolution is then a dense `AttrId`-indexed array read instead of a
//! name lookup, with the name-based path kept as the fallback for
//! derived attributes.
//!
//! Counter semantics (Example 1's accounting):
//! * `Scan` retrieves every tuple of its table;
//! * `IndexJoin` issues one probe per outer row and *retrieves exactly
//!   the matching inner tuples*;
//! * `HashJoin` retrieves nothing by itself (its inputs do) but counts
//!   build rows and candidate comparisons;
//! * every operator adds its output size to `rows_materialized`.
//!
//! Results are plain [`Relation`]s; the test-suite cross-checks every
//! plan against the reference evaluator in `fro-algebra`.

use crate::config::ExecConfig;
use crate::plan::{JoinKind, PhysPlan};
use crate::stats::ExecStats;
use crate::storage::Storage;
use fro_algebra::ops::{AttrCols, BoundPred, IPred};
use fro_algebra::{AlgebraError, Attr, ColumnSet, Interner, Pred, Relation, Schema, Tuple, Value};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Execution failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A scan or index join referenced an unknown table. Carries the
    /// nearest interned name (by edit distance) when one is close.
    UnknownTable {
        /// The name that failed to resolve.
        name: String,
        /// The closest known table name, if any is plausibly close.
        suggestion: Option<String>,
    },
    /// An index join required an index that does not exist.
    MissingIndex {
        /// Table that lacks the index.
        table: String,
        /// The attributes that needed indexing.
        attrs: String,
    },
    /// Key lists of a hash/index join have different lengths.
    KeyArityMismatch,
    /// An attribute failed to resolve against an input schema.
    Algebra(AlgebraError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownTable { name, suggestion } => {
                write!(f, "unknown table `{name}`")?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean `{s}`?)")?;
                }
                Ok(())
            }
            ExecError::MissingIndex { table, attrs } => {
                write!(f, "table `{table}` has no index on ({attrs})")
            }
            ExecError::KeyArityMismatch => write!(f, "probe/build key lists differ in length"),
            ExecError::Algebra(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<AlgebraError> for ExecError {
    fn from(e: AlgebraError) -> Self {
        ExecError::Algebra(e)
    }
}

/// Bind a predicate for evaluation against `schema`, preferring the
/// interned path: when every attribute of `pred` is known to the
/// storage interner, binding is `AttrId`-indexed array reads (the
/// precomputed resolutions carried by [`IPred`]); otherwise — derived
/// attributes, or no interner in scope — fall back to name-based
/// [`BoundPred::bind`], which also owns the diagnosable error. Both
/// paths bind to identical column offsets.
pub(crate) fn bind_pred(
    pred: &Pred,
    schema: &Schema,
    interner: Option<&Interner>,
) -> Result<BoundPred, ExecError> {
    if let Some(it) = interner {
        if let Some(ip) = IPred::from_pred(pred, it) {
            let cols = AttrCols::for_schema(schema, it);
            if let Some(bound) = BoundPred::bind_interned(&ip, &cols) {
                return Ok(bound);
            }
        }
    }
    BoundPred::bind(pred, schema).map_err(ExecError::from)
}

pub(crate) fn resolve_cols(schema: &Schema, attrs: &[Attr]) -> Result<Vec<usize>, ExecError> {
    attrs
        .iter()
        .map(|a| {
            schema.index_of(a).ok_or_else(|| {
                ExecError::Algebra(AlgebraError::UnknownAttr {
                    attr: a.to_string(),
                    schema: schema.to_string(),
                })
            })
        })
        .collect()
}

/// An all-null unmatched row on each side of a full outerjoin pads to
/// the identical all-null wide row; dedup before materializing. Keeps
/// the first occurrence; dedups by reference (no tuple is cloned).
pub(crate) fn dedup_rows(rows: &mut Vec<Tuple>) {
    let mut keep = Vec::with_capacity(rows.len());
    {
        let mut seen: HashSet<&Tuple> = HashSet::with_capacity(rows.len());
        for t in rows.iter() {
            keep.push(seen.insert(t));
        }
    }
    let mut flags = keep.into_iter();
    rows.retain(|_| flags.next().expect("one flag per row"));
}

fn key_of(row: &Tuple, cols: &[usize]) -> Option<Vec<Value>> {
    let mut key = Vec::with_capacity(cols.len());
    for &c in cols {
        let v = row.get(c);
        if v.is_null() {
            return None; // equality on null never matches
        }
        key.push(v.clone());
    }
    Some(key)
}

/// Fill `out` with the key columns of `row`, reusing its allocation.
/// Returns `false` (and leaves `out` cleared) when any key value is
/// null — SQL equality never matches on null.
fn key_into(row: &Tuple, cols: &[usize], out: &mut Vec<Value>) -> bool {
    out.clear();
    for &c in cols {
        let v = row.get(c);
        if v.is_null() {
            out.clear();
            return false;
        }
        out.push(v.clone());
    }
    true
}

/// Hash of the key columns of `row`, or `None` when any is null. The
/// values are hashed in place — no per-row `Vec<Value>` key is ever
/// materialized.
fn hash_key(row: &Tuple, cols: &[usize]) -> Option<u64> {
    let mut h = DefaultHasher::new();
    for &c in cols {
        let v = row.get(c);
        if v.is_null() {
            return None;
        }
        v.hash(&mut h);
    }
    Some(h.finish())
}

/// Column-wise key equality between a probe row and a build row.
fn keys_eq(a: &Tuple, a_cols: &[usize], b: &Tuple, b_cols: &[usize]) -> bool {
    a_cols
        .iter()
        .zip(b_cols)
        .all(|(&ac, &bc)| a.get(ac) == b.get(bc))
}

/// Which of `p` radix partitions a key hash lands in: the **high** 32
/// bits pick the partition, leaving the low bits (which `HashMap`
/// consumes first) for bucket selection inside the partition. The
/// partition is a pure function of the hash, so a partitioned table
/// holds exactly the buckets of a single global table, just spread
/// over `p` maps — which is what makes every partition count produce
/// identical join results.
#[inline]
fn partition_of(h: u64, p: usize) -> usize {
    if p <= 1 {
        0
    } else {
        #[allow(clippy::cast_possible_truncation)]
        let hi = (h >> 32) as usize;
        hi % p
    }
}

/// One build row scattered during the parallel build: its key hash and
/// row id, in row order within the morsel.
type ScatterEntry = (u64, u32);

/// A build worker's take-home: per-morsel scatter buffers tagged with
/// their morsel index, plus its private counter accumulator.
type BuildWorkerOutput = (Vec<(usize, Vec<ScatterEntry>)>, ExecStats);

/// The shared, immutable build side of a hash join: the pinned build
/// rows plus, per radix partition, a map from key *hash* to the row
/// ids in that bucket. Build keys are borrowed from the pinned rows —
/// nothing is cloned — and every bucket candidate is re-checked for
/// exact key equality against the probe row, so a 64-bit hash
/// collision can never yield a wrong match (or a wrong `comparisons`
/// count: the counter ticks only on exact-key candidates, exactly as
/// the value-keyed table did). With one partition this is the original
/// global table, bit for bit.
pub(crate) struct JoinTable<'a> {
    rows: &'a [Tuple],
    key_cols: &'a [usize],
    parts: Vec<HashMap<u64, Vec<u32>>>,
}

impl<'a> JoinTable<'a> {
    /// Build the partitioned table. Determinism: morsels are contiguous
    /// ascending row ranges, scatter buffers are replayed in
    /// morsel-index order, and rows scatter in row order within each
    /// morsel — so every bucket's row-id chain is ascending, exactly
    /// the chain a sequential pass over `rows` builds, no matter how
    /// many workers ran or how the scheduler interleaved them.
    ///
    /// When the build side is a base table, `cols` carries its columnar
    /// mirror and key hashes are computed straight off the typed column
    /// vectors ([`ColumnSet::hash_key_at`]) — no wide-row indirection,
    /// dictionary codes resolved once per string key. The hashes are
    /// value-identical to [`hash_key`] over the rows, so buckets,
    /// partitions, and every counter are unchanged.
    pub(crate) fn build(
        rows: &'a [Tuple],
        key_cols: &'a [usize],
        p: usize,
        cfg: &ExecConfig,
        stats: &mut ExecStats,
        cols: Option<&ColumnSet>,
    ) -> JoinTable<'a> {
        assert!(
            u32::try_from(rows.len()).is_ok(),
            "build side exceeds u32 row ids"
        );
        let hash_at = |rid: usize, row: &Tuple| -> Option<u64> {
            match cols {
                Some(cs) => cs.hash_key_at(key_cols, rid),
                None => hash_key(row, key_cols),
            }
        };
        stats.partition.note_partitions(p);
        let morsel = cfg.morsel_rows.max(1);
        let n_morsels = rows.len().div_ceil(morsel);
        let threads = cfg.effective_threads().min(n_morsels.max(1));
        if threads <= 1 {
            // Sequential fast path: scatter straight into the bucket
            // maps — no worker spawn, no scatter buffers.
            let mut parts: Vec<HashMap<u64, Vec<u32>>> = vec![HashMap::new(); p];
            for (rid, row) in rows.iter().enumerate() {
                if let Some(h) = hash_at(rid, row) {
                    let pt = partition_of(h, p);
                    stats.partition.add_build(pt);
                    #[allow(clippy::cast_possible_truncation)]
                    parts[pt].entry(h).or_default().push(rid as u32);
                }
                // Null-keyed rows still count: Example 1 charges the
                // build for every row it reads.
                stats.hash_build_rows += 1;
            }
            return JoinTable {
                rows,
                key_cols,
                parts,
            };
        }

        // Phase 1 — parallel scatter: workers claim morsels and emit
        // (hash, row id) pairs in row order, tagged by morsel index.
        let next = AtomicUsize::new(0);
        let results: Vec<BuildWorkerOutput> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut produced: Vec<(usize, Vec<ScatterEntry>)> = Vec::new();
                        let mut local = ExecStats::new();
                        loop {
                            let m = next.fetch_add(1, Ordering::Relaxed);
                            if m >= n_morsels {
                                break;
                            }
                            let lo = m * morsel;
                            let hi = (lo + morsel).min(rows.len());
                            let mut buf: Vec<ScatterEntry> = Vec::with_capacity(hi - lo);
                            for (rid, row) in rows[lo..hi].iter().enumerate() {
                                if let Some(h) = hash_at(lo + rid, row) {
                                    local.partition.add_build(partition_of(h, p));
                                    #[allow(clippy::cast_possible_truncation)]
                                    buf.push((h, (lo + rid) as u32));
                                }
                                local.hash_build_rows += 1;
                            }
                            produced.push((m, buf));
                        }
                        (produced, local)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("build worker panicked"))
                .collect()
        });
        let mut scatters: Vec<(usize, Vec<ScatterEntry>)> = Vec::with_capacity(n_morsels);
        for (produced, local) in results {
            stats.merge(&local);
            scatters.extend(produced);
        }
        scatters.sort_unstable_by_key(|&(m, _)| m);

        // Phase 2 — per-partition merge: partitions are disjoint, so
        // workers build whole bucket maps independently, each replaying
        // the scatter buffers in the same morsel order.
        let build_part = |pt: usize| -> HashMap<u64, Vec<u32>> {
            let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
            for (_, buf) in &scatters {
                for &(h, rid) in buf {
                    if partition_of(h, p) == pt {
                        buckets.entry(h).or_default().push(rid);
                    }
                }
            }
            buckets
        };
        let merge_threads = threads.min(p);
        let parts: Vec<HashMap<u64, Vec<u32>>> = if merge_threads <= 1 {
            (0..p).map(build_part).collect()
        } else {
            let next_part = AtomicUsize::new(0);
            let mut built: Vec<(usize, HashMap<u64, Vec<u32>>)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..merge_threads)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut mine = Vec::new();
                            loop {
                                let pt = next_part.fetch_add(1, Ordering::Relaxed);
                                if pt >= p {
                                    break;
                                }
                                mine.push((pt, build_part(pt)));
                            }
                            mine
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("merge worker panicked"))
                    .collect()
            });
            built.sort_unstable_by_key(|&(pt, _)| pt);
            built.into_iter().map(|(_, buckets)| buckets).collect()
        };
        JoinTable {
            rows,
            key_cols,
            parts,
        }
    }

    /// The partition a probe-key hash selects.
    #[inline]
    pub(crate) fn partition_index(&self, h: u64) -> usize {
        partition_of(h, self.parts.len())
    }

    /// The bucket of build-row ids a probe-key hash selects (empty when
    /// the key was null or nothing hashed there). Candidates still need
    /// the exact-key recheck — the pipelined prober does its own,
    /// fragment-mapped equivalent of [`keys_eq`].
    #[inline]
    pub(crate) fn bucket(&self, h: Option<u64>) -> &[u32] {
        h.and_then(|h| self.parts[self.partition_index(h)].get(&h))
            .map_or(&[][..], Vec::as_slice)
    }

    /// The pinned build row behind a bucket id, at the *build-side*
    /// lifetime — a pipelined fragment stack can hold it beyond the
    /// borrow of the table itself.
    #[inline]
    pub(crate) fn row(&self, rid: u32) -> &'a Tuple {
        &self.rows[rid as usize]
    }

    /// Exact-key candidates for `probe_row` given its precomputed key
    /// hash (`None` when any key value was null), in build-row order.
    /// The hash is computed once per probe row and reused for both
    /// partition selection and bucket lookup.
    fn candidates_hashed<'t>(
        &'t self,
        h: Option<u64>,
        probe_row: &'t Tuple,
        probe_cols: &'t [usize],
    ) -> impl Iterator<Item = (usize, &'t Tuple)> + 't {
        h.and_then(|h| self.parts[self.partition_index(h)].get(&h))
            .map_or(&[][..], Vec::as_slice)
            .iter()
            .map(|&rid| (rid as usize, &self.rows[rid as usize]))
            .filter(move |&(_, brow)| keys_eq(probe_row, probe_cols, brow, self.key_cols))
    }
}

/// The per-probe-row join kernel shared by the hash, index, and
/// nested-loop paths: given one probe-side row and an iterator of
/// candidate matches, emit the output rows for `kind` and report each
/// residual-passing candidate through `on_match` (full outerjoins use
/// it to flag matched build rows).
struct JoinKernel<'a> {
    kind: JoinKind,
    residual: &'a BoundPred,
    /// Null pad on the non-probe scheme (wide kinds only).
    pad: Tuple,
}

impl JoinKernel<'_> {
    fn probe_row<'t>(
        &self,
        prow: &Tuple,
        candidates: impl Iterator<Item = (usize, &'t Tuple)>,
        out: &mut Vec<Tuple>,
        stats: &mut ExecStats,
        mut on_match: impl FnMut(usize),
    ) {
        let mut matched = false;
        for (rid, crow) in candidates {
            stats.comparisons += 1;
            // Evaluate the residual on the virtual concatenation; the
            // wide tuple is only allocated for rows actually emitted.
            if self.residual.eval_split(prow, crow).is_true() {
                matched = true;
                on_match(rid);
                match self.kind {
                    JoinKind::Inner | JoinKind::LeftOuter | JoinKind::FullOuter => {
                        out.push(prow.concat(crow));
                    }
                    JoinKind::Semi => {
                        out.push(prow.clone());
                        break;
                    }
                    JoinKind::Anti => break,
                }
            }
        }
        match self.kind {
            JoinKind::LeftOuter | JoinKind::FullOuter if !matched => {
                out.push(prow.concat(&self.pad));
            }
            JoinKind::Anti if !matched => out.push(prow.clone()),
            _ => {}
        }
    }
}

/// A worker's take-home: output rows tagged with their morsel index,
/// plus its private counter accumulator.
type WorkerOutput = (Vec<(usize, Vec<Tuple>)>, ExecStats);

/// Run `work` over `0..n_rows` split into fixed-size morsels, fanning
/// out to `cfg`-many scoped worker threads when it pays, and append the
/// produced rows to `out` **in morsel-index order**. Each worker gets a
/// private output buffer per morsel and a private [`ExecStats`]; since
/// morsels partition the probe range in order and every counter is a
/// plain sum, both the row order and the merged totals are identical to
/// a sequential run.
fn probe_in_morsels<F>(
    n_rows: usize,
    cfg: &ExecConfig,
    stats: &mut ExecStats,
    out: &mut Vec<Tuple>,
    work: F,
) where
    F: Fn(Range<usize>, &mut Vec<Tuple>, &mut ExecStats) + Sync,
{
    let morsel = cfg.morsel_rows.max(1);
    let n_morsels = n_rows.div_ceil(morsel);
    let threads = cfg.effective_threads().min(n_morsels.max(1));
    if threads <= 1 || n_morsels <= 1 {
        // Degenerate path (one worker or one morsel): a single pass on
        // the calling thread, writing straight into the caller's buffer
        // and counters — no spawn, no scratch allocation at all.
        work(0..n_rows, out, stats);
        return;
    }
    let next = AtomicUsize::new(0);
    let results: Vec<WorkerOutput> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut produced: Vec<(usize, Vec<Tuple>)> = Vec::new();
                    let mut local = ExecStats::new();
                    loop {
                        let m = next.fetch_add(1, Ordering::Relaxed);
                        if m >= n_morsels {
                            break;
                        }
                        let lo = m * morsel;
                        let hi = (lo + morsel).min(n_rows);
                        // Most joins emit about one row per probe row.
                        let mut buf = Vec::with_capacity(hi - lo);
                        work(lo..hi, &mut buf, &mut local);
                        produced.push((m, buf));
                    }
                    (produced, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe worker panicked"))
            .collect()
    });
    let mut morsels: Vec<(usize, Vec<Tuple>)> = Vec::with_capacity(n_morsels);
    for (produced, local) in results {
        stats.merge(&local);
        morsels.extend(produced);
    }
    morsels.sort_unstable_by_key(|&(m, _)| m);
    for (_, buf) in morsels {
        out.extend(buf);
    }
}

/// Execute a plan against storage, accumulating counters into `stats`.
///
/// # Errors
/// [`ExecError`] for unknown tables, missing indexes, or unresolved
/// attributes.
pub fn execute(
    plan: &PhysPlan,
    storage: &Storage,
    stats: &mut ExecStats,
) -> Result<Relation, ExecError> {
    execute_with(plan, storage, stats, &ExecConfig::default())
}

/// [`execute`] with explicit [`ExecConfig`] — executor mode, thread
/// count, and morsel size. `cfg.mode` selects the engine: the default
/// [`crate::ExecMode::Pipelined`] fuses scan→filter→probe→project
/// spines into push-based pipelines; [`crate::ExecMode::Materializing`]
/// runs the classic operator-at-a-time path. Both produce bit-identical
/// rows, order, and work counters at any thread count.
///
/// # Errors
/// Same failure modes as [`execute`].
pub fn execute_with(
    plan: &PhysPlan,
    storage: &Storage,
    stats: &mut ExecStats,
    cfg: &ExecConfig,
) -> Result<Relation, ExecError> {
    let mut slots = vec![0u64; n_nodes(plan)];
    execute_counted(plan, storage, stats, cfg, &mut slots, &mut Vec::new())
}

/// [`execute_with`] that also leaves each plan node's output rows in
/// `slots` (pre-order indexed, see [`n_nodes`]) and, under the
/// pipelined engine, the pipeline breakdown in `trace`.
fn execute_counted(
    plan: &PhysPlan,
    storage: &Storage,
    stats: &mut ExecStats,
    cfg: &ExecConfig,
    slots: &mut [u64],
    trace: &mut Vec<String>,
) -> Result<Relation, ExecError> {
    let out = match cfg.mode {
        crate::ExecMode::Pipelined => {
            crate::pipeline::run_pipelined(plan, storage, stats, cfg, slots, trace)?
        }
        crate::ExecMode::Materializing => run(plan, 0, storage, stats, cfg, slots)?,
    };
    stats.rows_output = out.len() as u64;
    Ok(out)
}

/// Number of plan nodes, counted exactly as the explain walk does
/// (an `IndexJoin`'s inner table is not a node). Node `i` of the
/// pre-order walk owns row slot `i`; a node at slot `base` has its
/// first child at `base + 1` and its second at
/// `base + 1 + n_nodes(first)`.
pub(crate) fn n_nodes(plan: &PhysPlan) -> usize {
    1 + match plan {
        PhysPlan::Scan { .. } => 0,
        PhysPlan::Filter { input, .. }
        | PhysPlan::Project { input, .. }
        | PhysPlan::GroupCount { input, .. } => n_nodes(input),
        PhysPlan::IndexJoin { outer, .. } => n_nodes(outer),
        PhysPlan::HashJoin { probe, build, .. } => n_nodes(probe) + n_nodes(build),
        PhysPlan::SemiReduce { input, source, .. } => n_nodes(input) + n_nodes(source),
        PhysPlan::MergeJoin { left, right, .. }
        | PhysPlan::NlJoin { left, right, .. }
        | PhysPlan::Goj { left, right, .. } => n_nodes(left) + n_nodes(right),
    }
}

/// A join operand in the materializing engine: either a base table
/// borrowed straight out of storage (columnar mirror included) or an
/// owned intermediate from a recursive [`run`].
enum Operand<'a> {
    Table(&'a crate::storage::Table),
    Owned(Relation),
}

impl Operand<'_> {
    fn rel(&self) -> &Relation {
        match self {
            Operand::Table(t) => t.relation(),
            Operand::Owned(r) => r,
        }
    }

    fn columns(&self) -> Option<&ColumnSet> {
        match self {
            Operand::Table(t) => Some(t.columns()),
            Operand::Owned(_) => None,
        }
    }
}

/// Evaluate a join operand, borrowing base tables instead of cloning
/// them when the columnar kernels are on. The borrow replicates the
/// counters the recursive scan would have ticked (`tuples_retrieved`
/// plus the operator epilogue's `rows_materialized`), so totals are
/// identical to the plain recursion — it only skips the defensive
/// clone of the stored relation and keeps the columnar mirror in
/// reach for the hash build.
fn run_operand<'a>(
    plan: &PhysPlan,
    base: usize,
    storage: &'a Storage,
    stats: &mut ExecStats,
    cfg: &ExecConfig,
    slots: &mut [u64],
) -> Result<Operand<'a>, ExecError> {
    if cfg.columnar {
        if let PhysPlan::Scan { rel } = plan {
            let t = storage.lookup_named(rel)?;
            stats.tuples_retrieved += t.len() as u64;
            stats.rows_materialized += t.len() as u64;
            slots[base] = t.len() as u64;
            return Ok(Operand::Table(t));
        }
    }
    run(plan, base, storage, stats, cfg, slots).map(Operand::Owned)
}

/// The materializing walk: evaluate the subtree at pre-order slot
/// `base` operator at a time, recording every node's output rows in
/// `slots`.
fn run(
    plan: &PhysPlan,
    base: usize,
    storage: &Storage,
    stats: &mut ExecStats,
    cfg: &ExecConfig,
    slots: &mut [u64],
) -> Result<Relation, ExecError> {
    // Pre-order slot of the first child; a second child follows the
    // first one's subtree.
    let first = base + 1;
    let out = match plan {
        PhysPlan::Scan { rel } => {
            let t = storage.lookup_named(rel)?;
            stats.tuples_retrieved += t.len() as u64;
            t.relation().clone()
        }
        PhysPlan::Filter { input, pred }
            if cfg.columnar && matches!(input.as_ref(), PhysPlan::Scan { .. }) =>
        {
            // Vectorized scan-filter: evaluate the predicate over the
            // table's columnar mirror as one selection bitmap (zone
            // metadata skipping whole morsels where it can), then clone
            // only the selected rows. Counters replicate the recursive
            // path exactly: the child scan's `tuples_retrieved` and
            // `rows_materialized`, then one comparison per input row.
            let PhysPlan::Scan { rel } = input.as_ref() else {
                unreachable!("guard matched a scan input")
            };
            let t = storage.lookup_named(rel)?;
            stats.tuples_retrieved += t.len() as u64;
            stats.rows_materialized += t.len() as u64;
            slots[first] = t.len() as u64;
            let r = t.relation();
            let bound = bind_pred(pred, r.schema(), Some(storage.interner()))?;
            stats.comparisons += t.len() as u64;
            let mut skipped = 0u64;
            let mask = t.columns().eval_pred(&bound, &mut skipped).into_trues();
            stats.morsels_skipped += skipped;
            let mut rows = Vec::with_capacity(mask.count_ones());
            mask.for_each_one_in(0, t.len(), |i| rows.push(r.rows()[i].clone()));
            Relation::from_distinct_rows(r.schema().clone(), rows)
        }
        PhysPlan::Filter { input, pred } => {
            let rel = run(input, first, storage, stats, cfg, slots)?;
            let bound = bind_pred(pred, rel.schema(), Some(storage.interner()))?;
            let rows: Vec<Tuple> = rel
                .iter()
                .filter(|t| {
                    stats.comparisons += 1;
                    bound.eval(t).is_true()
                })
                .cloned()
                .collect();
            Relation::from_distinct_rows(rel.schema().clone(), rows)
        }
        PhysPlan::Project { input, attrs } => {
            let rel = run(input, first, storage, stats, cfg, slots)?;
            fro_algebra::ops::project(&rel, attrs, true).map_err(ExecError::from)?
        }
        PhysPlan::HashJoin {
            kind,
            probe,
            build,
            probe_keys,
            build_keys,
            residual,
        } => {
            if probe_keys.len() != build_keys.len() || probe_keys.is_empty() {
                return Err(ExecError::KeyArityMismatch);
            }
            let probe_rel = run(probe, first, storage, stats, cfg, slots)?;
            let build_op = run_operand(build, first + n_nodes(probe), storage, stats, cfg, slots)?;
            hash_join(
                *kind,
                &probe_rel,
                build_op.rel(),
                probe_keys,
                build_keys,
                residual,
                Some(storage.interner()),
                stats,
                cfg,
                build_op.columns(),
            )?
        }
        PhysPlan::SemiReduce {
            input,
            source,
            input_keys,
            source_keys,
            pass: _,
        } => {
            if input_keys.len() != source_keys.len() || input_keys.is_empty() {
                return Err(ExecError::KeyArityMismatch);
            }
            let input_rel = run(input, first, storage, stats, cfg, slots)?;
            let source_op =
                run_operand(source, first + n_nodes(input), storage, stats, cfg, slots)?;
            let n_in = input_rel.len() as u64;
            let out = hash_join(
                JoinKind::Semi,
                &input_rel,
                source_op.rel(),
                input_keys,
                source_keys,
                &Pred::always(),
                Some(storage.interner()),
                stats,
                cfg,
                source_op.columns(),
            )?;
            stats.rows_reduced += n_in - out.len() as u64;
            stats.reducer_passes += 1;
            out
        }
        PhysPlan::IndexJoin {
            kind,
            outer,
            inner,
            outer_keys,
            inner_keys,
            residual,
        } => {
            if outer_keys.len() != inner_keys.len() || outer_keys.is_empty() {
                return Err(ExecError::KeyArityMismatch);
            }
            let outer_rel = run(outer, first, storage, stats, cfg, slots)?;
            index_join(
                *kind,
                &outer_rel,
                inner,
                outer_keys,
                inner_keys,
                residual,
                Some(storage.interner()),
                storage,
                stats,
                cfg,
            )?
        }
        PhysPlan::MergeJoin {
            kind,
            left,
            right,
            left_keys,
            right_keys,
            residual,
        } => {
            if left_keys.len() != right_keys.len() || left_keys.is_empty() {
                return Err(ExecError::KeyArityMismatch);
            }
            let l = run(left, first, storage, stats, cfg, slots)?;
            let r = run(right, first + n_nodes(left), storage, stats, cfg, slots)?;
            merge_join(
                *kind,
                &l,
                &r,
                left_keys,
                right_keys,
                residual,
                Some(storage.interner()),
                stats,
            )?
        }
        PhysPlan::NlJoin {
            kind,
            left,
            right,
            pred,
        } => {
            let l = run(left, first, storage, stats, cfg, slots)?;
            let r = run(right, first + n_nodes(left), storage, stats, cfg, slots)?;
            nl_join(*kind, &l, &r, pred, Some(storage.interner()), stats, cfg)?
        }
        PhysPlan::GroupCount {
            input,
            group_attrs,
            counted,
        } => {
            let rel = run(input, first, storage, stats, cfg, slots)?;
            group_count_partitioned(&rel, group_attrs, counted.as_ref(), cfg)?
        }
        PhysPlan::Goj {
            left,
            right,
            pred,
            subset,
        } => {
            let l = run(left, first, storage, stats, cfg, slots)?;
            let r = run(right, first + n_nodes(left), storage, stats, cfg, slots)?;
            stats.comparisons += (l.len() * r.len()) as u64;
            fro_algebra::ops::goj(&l, &r, pred, subset).map_err(ExecError::from)?
        }
    };
    stats.rows_materialized += out.len() as u64;
    slots[base] = out.len() as u64;
    Ok(out)
}

/// Deterministic partitioned parallel group-by-count, reusing the
/// hash-join split: the radix partition of a group key is a pure
/// function of its hash ([`partition_of`]), so per-partition count
/// maps hold exactly the groups of one global map, just spread over
/// `p` maps.
///
/// Output is **bit-identical** to [`fro_algebra::ops::group_count`]
/// at every thread/partition/morsel setting. The sequential operator
/// emits groups in first-seen input order; here each partition records
/// the global row index at which it first saw a group, and the final
/// merge sorts all groups by that index — which *is* first-seen input
/// order, because a group's key hash (hence partition) never changes,
/// so the partition that owns a group saw every one of its rows.
///
/// Like the sequential operator, this ticks no [`ExecStats`] counters;
/// [`run`] adds `rows_materialized` for the output afterwards.
pub(crate) fn group_count_partitioned(
    input: &Relation,
    group_attrs: &[Attr],
    counted: Option<&Attr>,
    cfg: &ExecConfig,
) -> Result<Relation, ExecError> {
    let rows = input.rows();
    let morsel = cfg.morsel_rows.max(1);
    let n_morsels = rows.len().div_ceil(morsel);
    let threads = cfg.effective_threads().min(n_morsels.max(1));
    if threads <= 1 || n_morsels <= 1 {
        // Degenerate parallelism: the sequential operator *is* the
        // specification — run it directly.
        return fro_algebra::ops::group_count(input, group_attrs, counted).map_err(ExecError::from);
    }

    // Resolve columns exactly as the sequential operator does, so the
    // error surface is identical.
    let mut group_cols = Vec::with_capacity(group_attrs.len());
    for a in group_attrs {
        group_cols.push(
            input
                .schema()
                .index_of(a)
                .ok_or_else(|| AlgebraError::BadProjection(a.to_string()))
                .map_err(ExecError::from)?,
        );
    }
    let counted_col = match counted {
        None => None,
        Some(a) => Some(
            input
                .schema()
                .index_of(a)
                .ok_or_else(|| AlgebraError::BadProjection(a.to_string()))
                .map_err(ExecError::from)?,
        ),
    };
    let mut attrs = group_attrs.to_vec();
    attrs.push(Attr::new("agg", "count"));
    let schema = Arc::new(Schema::new(attrs).map_err(ExecError::from)?);

    let p = cfg.effective_partitions(rows.len());

    // Phase 1 — parallel scatter: workers claim morsels and emit each
    // row's group-key hash. Group keys may legitimately contain nulls
    // (unlike join keys), so the hash covers the projected values
    // as-is.
    let group_hash = |row: &Tuple| -> u64 {
        let mut h = DefaultHasher::new();
        for &c in &group_cols {
            row.get(c).hash(&mut h);
        }
        h.finish()
    };
    let next = AtomicUsize::new(0);
    let results: Vec<(usize, Vec<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut produced: Vec<(usize, Vec<u64>)> = Vec::new();
                    loop {
                        let m = next.fetch_add(1, Ordering::Relaxed);
                        if m >= n_morsels {
                            break;
                        }
                        let lo = m * morsel;
                        let hi = (lo + morsel).min(rows.len());
                        produced.push((m, rows[lo..hi].iter().map(group_hash).collect()));
                    }
                    produced
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("group scatter worker panicked"))
            .collect()
    });
    let mut scatters: Vec<(usize, Vec<u64>)> = results;
    scatters.sort_unstable_by_key(|&(m, _)| m);

    // Phase 2 — per-partition counting: partitions are disjoint, so
    // workers fold whole partitions independently. Each group records
    // the global index of its first row.
    type Part = Vec<(usize, Tuple, i64)>; // (first_rid, key, count)
    let count_part = |pt: usize| -> Part {
        let mut counts: HashMap<Tuple, (usize, i64)> = HashMap::new();
        for (m, hashes) in &scatters {
            let lo = m * morsel;
            for (i, &h) in hashes.iter().enumerate() {
                if partition_of(h, p) != pt {
                    continue;
                }
                let rid = lo + i;
                let row = &rows[rid];
                let contributes = match counted_col {
                    None => true,
                    Some(c) => !row.get(c).is_null(),
                };
                match counts.entry(row.project(&group_cols)) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert((rid, i64::from(contributes)));
                    }
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        e.get_mut().1 += i64::from(contributes);
                    }
                }
            }
        }
        counts
            .into_iter()
            .map(|(key, (first, n))| (first, key, n))
            .collect()
    };
    let count_threads = threads.min(p);
    let mut groups: Vec<(usize, Tuple, i64)> = if count_threads <= 1 {
        (0..p).flat_map(count_part).collect()
    } else {
        let next_part = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..count_threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine: Part = Vec::new();
                        loop {
                            let pt = next_part.fetch_add(1, Ordering::Relaxed);
                            if pt >= p {
                                break;
                            }
                            mine.extend(count_part(pt));
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("group count worker panicked"))
                .collect()
        })
    };

    // Merge: first-occurrence global row indices are unique, and
    // sorting by them reproduces the sequential first-seen emission
    // order exactly.
    groups.sort_unstable_by_key(|&(first, _, _)| first);
    let out_rows = groups
        .into_iter()
        .map(|(_, key, n)| key.concat(&Tuple::new(vec![Value::Int(n)])))
        .collect();
    Ok(Relation::from_distinct_rows(schema, out_rows))
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn hash_join(
    kind: JoinKind,
    probe: &Relation,
    build: &Relation,
    probe_keys: &[Attr],
    build_keys: &[Attr],
    residual: &Pred,
    it: Option<&Interner>,
    stats: &mut ExecStats,
    cfg: &ExecConfig,
    build_colset: Option<&ColumnSet>,
) -> Result<Relation, ExecError> {
    hash_join_phased(
        kind,
        probe,
        build,
        probe_keys,
        build_keys,
        residual,
        it,
        stats,
        cfg,
        build_colset,
    )
    .map(|(rel, _, _)| rel)
}

/// [`hash_join`] exposed for the engine bench with per-phase wall-clock:
/// returns the join result plus `(build_secs, probe_secs)`. The timings
/// are measurement side-channels only — they never enter [`ExecStats`],
/// so counter equality across configurations is unaffected.
///
/// # Errors
/// Same failure modes as [`execute`]: unresolved key attributes or an
/// unconcatenable pair of schemas.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn hash_join_timed(
    kind: JoinKind,
    probe: &Relation,
    build: &Relation,
    probe_keys: &[Attr],
    build_keys: &[Attr],
    residual: &Pred,
    stats: &mut ExecStats,
    cfg: &ExecConfig,
) -> Result<(Relation, f64, f64), ExecError> {
    hash_join_phased(
        kind, probe, build, probe_keys, build_keys, residual, None, stats, cfg, None,
    )
}

#[allow(clippy::too_many_arguments)]
fn hash_join_phased(
    kind: JoinKind,
    probe: &Relation,
    build: &Relation,
    probe_keys: &[Attr],
    build_keys: &[Attr],
    residual: &Pred,
    it: Option<&Interner>,
    stats: &mut ExecStats,
    cfg: &ExecConfig,
    build_colset: Option<&ColumnSet>,
) -> Result<(Relation, f64, f64), ExecError> {
    let probe_cols = resolve_cols(probe.schema(), probe_keys)?;
    let build_cols = resolve_cols(build.schema(), build_keys)?;

    let wide = matches!(
        kind,
        JoinKind::Inner | JoinKind::LeftOuter | JoinKind::FullOuter
    );
    // Semi/anti joins evaluate the residual on the concatenated scheme
    // even though they output only the probe side.
    let concat_schema = Arc::new(probe.schema().concat(build.schema())?);
    let out_schema: Arc<Schema> = if wide {
        concat_schema.clone()
    } else {
        probe.schema().clone()
    };
    let residual_bound = bind_pred(residual, &concat_schema, it)?;

    // Build once into a shared immutable partitioned table; probe
    // workers only ever read it. The partition count resolves against
    // the actual build cardinality when the config says "auto".
    let p = cfg.effective_partitions(build.len());
    let build_start = Instant::now();
    let table = JoinTable::build(build.rows(), &build_cols, p, cfg, stats, build_colset);
    let build_secs = build_start.elapsed().as_secs_f64();
    let kernel = JoinKernel {
        kind,
        residual: &residual_bound,
        pad: Tuple::nulls(build.schema().len()),
    };
    // Full outerjoins must emit build rows no probe morsel matched;
    // matches are flagged through atomics so workers need no locks.
    // Relaxed suffices: the flags are only read after the scope joins.
    let build_matched: Option<Vec<AtomicBool>> = (kind == JoinKind::FullOuter)
        .then(|| (0..build.len()).map(|_| AtomicBool::new(false)).collect());

    let probe_start = Instant::now();
    let mut rows = Vec::new();
    probe_in_morsels(probe.len(), cfg, stats, &mut rows, |range, buf, local| {
        for prow in &probe.rows()[range] {
            // One hash per probe row, reused for partition selection
            // and bucket lookup.
            let h = hash_key(prow, &probe_cols);
            if let Some(h) = h {
                local.partition.add_probe(table.partition_index(h));
            }
            kernel.probe_row(
                prow,
                table.candidates_hashed(h, prow, &probe_cols),
                buf,
                local,
                |rid| {
                    if let Some(flags) = &build_matched {
                        flags[rid].store(true, Ordering::Relaxed);
                    }
                },
            );
        }
    });

    if let Some(flags) = build_matched {
        let probe_pad = Tuple::nulls(probe.schema().len());
        for (rid, brow) in build.rows().iter().enumerate() {
            if !flags[rid].load(Ordering::Relaxed) {
                rows.push(probe_pad.concat(brow));
            }
        }
        dedup_rows(&mut rows);
    }
    let probe_secs = probe_start.elapsed().as_secs_f64();
    Ok((
        Relation::from_distinct_rows(out_schema, rows),
        build_secs,
        probe_secs,
    ))
}

#[allow(clippy::too_many_arguments)]
fn index_join(
    kind: JoinKind,
    outer: &Relation,
    inner_name: &str,
    outer_keys: &[Attr],
    inner_keys: &[Attr],
    residual: &Pred,
    it: Option<&Interner>,
    storage: &Storage,
    stats: &mut ExecStats,
    cfg: &ExecConfig,
) -> Result<Relation, ExecError> {
    if kind == JoinKind::FullOuter {
        return Err(ExecError::Algebra(fro_algebra::AlgebraError::BadUnion(
            "index join cannot implement a full outerjoin (unmatched inner rows are unreachable)"
                .into(),
        )));
    }
    let inner_table = storage.lookup_named(inner_name)?;
    let inner_rel = inner_table.relation();
    let mut inner_cols = resolve_cols(inner_rel.schema(), inner_keys)?;
    // The index stores sorted key columns; align outer key order with it.
    let mut outer_cols = resolve_cols(outer.schema(), outer_keys)?;
    let mut pairs: Vec<(usize, usize)> = inner_cols
        .iter()
        .copied()
        .zip(outer_cols.iter().copied())
        .collect();
    pairs.sort_unstable_by_key(|&(ic, _)| ic);
    inner_cols = pairs.iter().map(|&(ic, _)| ic).collect();
    outer_cols = pairs.iter().map(|&(_, oc)| oc).collect();

    let index = inner_table
        .index_on(&inner_cols)
        .ok_or_else(|| ExecError::MissingIndex {
            table: inner_name.to_owned(),
            attrs: inner_keys
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(","),
        })?;

    let wide = matches!(kind, JoinKind::Inner | JoinKind::LeftOuter);
    let concat_schema = Arc::new(outer.schema().concat(inner_rel.schema())?);
    let out_schema = if wide {
        concat_schema.clone()
    } else {
        outer.schema().clone()
    };
    let residual_bound = bind_pred(residual, &concat_schema, it)?;

    let kernel = JoinKernel {
        kind,
        residual: &residual_bound,
        pad: Tuple::nulls(inner_rel.schema().len()),
    };
    let inner_rows = inner_rel.rows();
    let mut rows = Vec::new();
    probe_in_morsels(outer.len(), cfg, stats, &mut rows, |range, buf, local| {
        // One key scratch buffer per morsel, reused across its rows.
        let mut key: Vec<Value> = Vec::with_capacity(outer_cols.len());
        for orow in &outer.rows()[range] {
            local.index_probes += 1;
            let rids: &[usize] = if key_into(orow, &outer_cols, &mut key) {
                index.lookup(&key)
            } else {
                &[]
            };
            local.tuples_retrieved += rids.len() as u64;
            kernel.probe_row(
                orow,
                rids.iter().map(|&rid| (rid, &inner_rows[rid])),
                buf,
                local,
                |_| {},
            );
        }
    });
    Ok(Relation::from_distinct_rows(out_schema, rows))
}

/// Sort-merge join: sort row indices of both inputs on their key
/// columns, then merge equal-key groups. Rows with a null key never
/// match (SQL equality) and are emitted padded/kept for the outer/anti
/// flavors.
#[allow(clippy::too_many_arguments)]
pub(crate) fn merge_join(
    kind: JoinKind,
    left: &Relation,
    right: &Relation,
    left_keys: &[Attr],
    right_keys: &[Attr],
    residual: &Pred,
    it: Option<&Interner>,
    stats: &mut ExecStats,
) -> Result<Relation, ExecError> {
    let lcols = resolve_cols(left.schema(), left_keys)?;
    let rcols = resolve_cols(right.schema(), right_keys)?;
    let wide = matches!(
        kind,
        JoinKind::Inner | JoinKind::LeftOuter | JoinKind::FullOuter
    );
    let concat_schema = Arc::new(left.schema().concat(right.schema())?);
    let out_schema = if wide {
        concat_schema.clone()
    } else {
        left.schema().clone()
    };
    let bound = bind_pred(residual, &concat_schema, it)?;

    // Sorted index runs over non-null-keyed rows; null-keyed rows go
    // straight to the unmatched sets.
    let key_at = |rel: &Relation, cols: &[usize], i: usize| -> Option<Vec<Value>> {
        key_of(&rel.rows()[i], cols)
    };
    let mut lsorted: Vec<(Vec<Value>, usize)> = Vec::with_capacity(left.len());
    let mut lnull: Vec<usize> = Vec::new();
    for i in 0..left.len() {
        match key_at(left, &lcols, i) {
            Some(k) => lsorted.push((k, i)),
            None => lnull.push(i),
        }
    }
    lsorted.sort();
    let mut rsorted: Vec<(Vec<Value>, usize)> = Vec::with_capacity(right.len());
    let mut rnull: Vec<usize> = Vec::new();
    for i in 0..right.len() {
        match key_at(right, &rcols, i) {
            Some(k) => rsorted.push((k, i)),
            None => rnull.push(i),
        }
    }
    rsorted.sort();
    stats.comparisons += (lsorted.len() + rsorted.len()) as u64; // sort work proxy

    let pad_r = Tuple::nulls(right.schema().len());
    let pad_l = Tuple::nulls(left.schema().len());
    let mut left_matched = vec![false; left.len()];
    let mut right_matched = vec![false; right.len()];
    let mut rows = Vec::new();

    let (mut i, mut j) = (0usize, 0usize);
    while i < lsorted.len() && j < rsorted.len() {
        match lsorted[i].0.cmp(&rsorted[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                // Group boundaries.
                let key = lsorted[i].0.clone();
                let i0 = i;
                while i < lsorted.len() && lsorted[i].0 == key {
                    i += 1;
                }
                let j0 = j;
                while j < rsorted.len() && rsorted[j].0 == key {
                    j += 1;
                }
                for &(_, li) in &lsorted[i0..i] {
                    for &(_, rj) in &rsorted[j0..j] {
                        let cat = left.rows()[li].concat(&right.rows()[rj]);
                        stats.comparisons += 1;
                        if bound.eval(&cat).is_true() {
                            left_matched[li] = true;
                            right_matched[rj] = true;
                            if wide {
                                rows.push(cat);
                            }
                        }
                    }
                }
            }
        }
    }

    match kind {
        JoinKind::Inner | JoinKind::FullOuter | JoinKind::LeftOuter => {
            if kind != JoinKind::Inner {
                for (li, lrow) in left.rows().iter().enumerate() {
                    if !left_matched[li] {
                        rows.push(lrow.concat(&pad_r));
                    }
                }
            }
            if kind == JoinKind::FullOuter {
                for (rj, rrow) in right.rows().iter().enumerate() {
                    if !right_matched[rj] {
                        rows.push(pad_l.concat(rrow));
                    }
                }
            }
        }
        JoinKind::Semi => {
            for (li, lrow) in left.rows().iter().enumerate() {
                if left_matched[li] {
                    rows.push(lrow.clone());
                }
            }
        }
        JoinKind::Anti => {
            for (li, lrow) in left.rows().iter().enumerate() {
                if !left_matched[li] {
                    rows.push(lrow.clone());
                }
            }
        }
    }
    let _ = (lnull, rnull); // null-keyed rows are covered by the unmatched passes
    if kind == JoinKind::FullOuter {
        dedup_rows(&mut rows);
    }
    Ok(Relation::from_distinct_rows(out_schema, rows))
}

pub(crate) fn nl_join(
    kind: JoinKind,
    left: &Relation,
    right: &Relation,
    pred: &Pred,
    it: Option<&Interner>,
    stats: &mut ExecStats,
    cfg: &ExecConfig,
) -> Result<Relation, ExecError> {
    let concat_schema = Arc::new(left.schema().concat(right.schema())?);
    let wide = matches!(
        kind,
        JoinKind::Inner | JoinKind::LeftOuter | JoinKind::FullOuter
    );
    let out_schema = if wide {
        concat_schema.clone()
    } else {
        left.schema().clone()
    };
    let bound = bind_pred(pred, &concat_schema, it)?;
    let kernel = JoinKernel {
        kind,
        residual: &bound,
        pad: Tuple::nulls(right.schema().len()),
    };
    // Nested loops are the degenerate kernel: every right row is a
    // candidate, so `comparisons` ticks once per pair, as before.
    let right_matched: Option<Vec<AtomicBool>> = (kind == JoinKind::FullOuter)
        .then(|| (0..right.len()).map(|_| AtomicBool::new(false)).collect());
    let mut rows = Vec::new();
    probe_in_morsels(left.len(), cfg, stats, &mut rows, |range, buf, local| {
        for lrow in &left.rows()[range] {
            kernel.probe_row(lrow, right.rows().iter().enumerate(), buf, local, |ri| {
                if let Some(flags) = &right_matched {
                    flags[ri].store(true, Ordering::Relaxed);
                }
            });
        }
    });
    if let Some(flags) = right_matched {
        let left_pad = Tuple::nulls(left.schema().len());
        for (ri, rrow) in right.rows().iter().enumerate() {
            if !flags[ri].load(Ordering::Relaxed) {
                rows.push(left_pad.concat(rrow));
            }
        }
        dedup_rows(&mut rows);
    }
    Ok(Relation::from_distinct_rows(out_schema, rows))
}

/// Execute a plan and render an `EXPLAIN ANALYZE`-style report: the
/// plan tree annotated with each operator's *actual* output rows.
///
/// # Errors
/// Same failure modes as [`execute`].
pub fn explain_analyze(
    plan: &PhysPlan,
    storage: &Storage,
) -> Result<(Relation, String), ExecError> {
    explain_analyze_with(plan, storage, &ExecConfig::default())
}

/// [`explain_analyze`] with explicit [`ExecConfig`]. The report —
/// per-operator row counts and counter totals — is identical at any
/// thread count, and its totals are exactly what [`execute_with`]
/// counts under the same config. Under the (default) pipelined mode the
/// report gains a trailing pipeline breakdown: which operators fused
/// into each pipeline and where breakers cut the plan.
///
/// # Errors
/// Same failure modes as [`execute`].
pub fn explain_analyze_with(
    plan: &PhysPlan,
    storage: &Storage,
    cfg: &ExecConfig,
) -> Result<(Relation, String), ExecError> {
    let mut stats = ExecStats::new();
    let mut slots = vec![0u64; n_nodes(plan)];
    let mut trace = Vec::new();
    let rel = execute_counted(plan, storage, &mut stats, cfg, &mut slots, &mut trace)?;
    let mut out = render_report(plan, &slots, &stats);
    if cfg.mode == crate::ExecMode::Pipelined {
        out.push_str(&format!(
            "pipelines: {} (rows pipelined={}, rows materialized={})\n",
            stats.pipelines, stats.rows_pipelined, stats.rows_materialized
        ));
        for t in &trace {
            out.push_str("  ");
            out.push_str(t);
            out.push('\n');
        }
    }
    Ok((rel, out))
}

/// The node label `explain_analyze` prints.
pub(crate) fn label_of(plan: &PhysPlan) -> String {
    match plan {
        PhysPlan::Scan { rel } => format!("Scan {rel}"),
        PhysPlan::Filter { pred, .. } => format!("Filter [{pred}]"),
        PhysPlan::Project { .. } => "Project".to_owned(),
        PhysPlan::HashJoin { kind, .. } => format!("HashJoin({kind})"),
        PhysPlan::IndexJoin { kind, inner, .. } => format!("IndexJoin({kind}) {inner}"),
        PhysPlan::MergeJoin { kind, .. } => format!("MergeJoin({kind})"),
        PhysPlan::NlJoin { kind, .. } => format!("NlJoin({kind})"),
        PhysPlan::GroupCount { .. } => "GroupCount".to_owned(),
        PhysPlan::SemiReduce { pass, .. } => format!("SemiReduce({pass})"),
        PhysPlan::Goj { .. } => "Goj".to_owned(),
    }
}

/// Pre-order `(depth, label)` walk, in row-slot order.
fn collect_lines(plan: &PhysPlan, depth: usize, lines: &mut Vec<(usize, String)>) {
    lines.push((depth, label_of(plan)));
    match plan {
        PhysPlan::Scan { .. } => {}
        PhysPlan::Filter { input, .. }
        | PhysPlan::Project { input, .. }
        | PhysPlan::GroupCount { input, .. } => collect_lines(input, depth + 1, lines),
        PhysPlan::IndexJoin { outer, .. } => collect_lines(outer, depth + 1, lines),
        PhysPlan::HashJoin { probe, build, .. } => {
            collect_lines(probe, depth + 1, lines);
            collect_lines(build, depth + 1, lines);
        }
        PhysPlan::SemiReduce { input, source, .. } => {
            collect_lines(input, depth + 1, lines);
            collect_lines(source, depth + 1, lines);
        }
        PhysPlan::MergeJoin { left, right, .. }
        | PhysPlan::NlJoin { left, right, .. }
        | PhysPlan::Goj { left, right, .. } => {
            collect_lines(left, depth + 1, lines);
            collect_lines(right, depth + 1, lines);
        }
    }
}

/// Render the `EXPLAIN ANALYZE` body shared by both executors: the
/// indented per-operator row counts, the counter totals, and (when any
/// hash join ran) the per-partition build/probe breakdown. The
/// breakdown is thread-count and morsel-size invariant (counters merge
/// deterministically); it *does* change shape with the partition count,
/// which is exactly what it is for.
fn render_report(plan: &PhysPlan, slots: &[u64], stats: &ExecStats) -> String {
    let mut lines = Vec::new();
    collect_lines(plan, 0, &mut lines);
    let mut out = String::new();
    for ((depth, label), rows) in lines.iter().zip(slots) {
        out.push_str(&"  ".repeat(*depth));
        out.push_str(label);
        out.push_str(&format!("  (rows={rows})\n"));
    }
    out.push_str(&format!("totals: {stats}\n"));
    if stats.partition.used() > 0 {
        out.push_str(&format!(
            "partitions: P={} build={:?} probe={:?}\n",
            stats.partition.used(),
            stats.partition.build_rows(),
            stats.partition.probe_rows()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fro_algebra::ops;

    fn storage() -> Storage {
        let mut s = Storage::new();
        s.insert("R1", Relation::from_ints("R1", &["k1"], &[&[1]]));
        s.insert(
            "R2",
            Relation::from_ints("R2", &["k2"], &[&[1], &[2], &[3]]),
        );
        s.insert(
            "R3",
            Relation::from_ints("R3", &["k3"], &[&[2], &[3], &[4]]),
        );
        s.create_index("R1", &[Attr::parse("R1.k1")]);
        s.create_index("R2", &[Attr::parse("R2.k2")]);
        s.create_index("R3", &[Attr::parse("R3.k3")]);
        s
    }

    #[test]
    fn scan_counts_tuples() {
        let s = storage();
        let mut st = ExecStats::new();
        let out = execute(&PhysPlan::scan("R2"), &s, &mut st).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(st.tuples_retrieved, 3);
        assert_eq!(st.rows_output, 3);
    }

    #[test]
    fn unknown_table_errors() {
        let s = storage();
        let mut st = ExecStats::new();
        assert!(matches!(
            execute(&PhysPlan::scan("nope"), &s, &mut st),
            Err(ExecError::UnknownTable { .. })
        ));
    }

    #[test]
    fn hash_join_matches_reference_join() {
        let s = storage();
        let mut st = ExecStats::new();
        let plan = PhysPlan::HashJoin {
            kind: JoinKind::Inner,
            probe: Box::new(PhysPlan::scan("R2")),
            build: Box::new(PhysPlan::scan("R3")),
            probe_keys: vec![Attr::parse("R2.k2")],
            build_keys: vec![Attr::parse("R3.k3")],
            residual: Pred::always(),
        };
        let out = execute(&plan, &s, &mut st).unwrap();
        let expect = ops::join(
            s.get_named("R2").unwrap().relation(),
            s.get_named("R3").unwrap().relation(),
            &Pred::eq_attr("R2.k2", "R3.k3"),
        )
        .unwrap();
        assert!(out.set_eq(&expect));
        assert_eq!(st.hash_build_rows, 3);
    }

    #[test]
    fn hash_left_outer_pads() {
        let s = storage();
        let mut st = ExecStats::new();
        let plan = PhysPlan::HashJoin {
            kind: JoinKind::LeftOuter,
            probe: Box::new(PhysPlan::scan("R2")),
            build: Box::new(PhysPlan::scan("R3")),
            probe_keys: vec![Attr::parse("R2.k2")],
            build_keys: vec![Attr::parse("R3.k3")],
            residual: Pred::always(),
        };
        let out = execute(&plan, &s, &mut st).unwrap();
        let expect = ops::outerjoin(
            s.get_named("R2").unwrap().relation(),
            s.get_named("R3").unwrap().relation(),
            &Pred::eq_attr("R2.k2", "R3.k3"),
        )
        .unwrap();
        assert!(out.set_eq(&expect));
    }

    #[test]
    fn hash_semi_and_anti() {
        let s = storage();
        for (kind, expect_len) in [(JoinKind::Semi, 2), (JoinKind::Anti, 1)] {
            let mut st = ExecStats::new();
            let plan = PhysPlan::HashJoin {
                kind,
                probe: Box::new(PhysPlan::scan("R2")),
                build: Box::new(PhysPlan::scan("R3")),
                probe_keys: vec![Attr::parse("R2.k2")],
                build_keys: vec![Attr::parse("R3.k3")],
                residual: Pred::always(),
            };
            let out = execute(&plan, &s, &mut st).unwrap();
            assert_eq!(out.len(), expect_len, "{kind}");
            assert_eq!(out.schema().len(), 1);
        }
    }

    #[test]
    fn index_join_counts_retrievals_not_scans() {
        let s = storage();
        let mut st = ExecStats::new();
        // R1 (1 row) index-joins into R2: 1 scan + 1 probe + 1 match.
        let plan = PhysPlan::IndexJoin {
            kind: JoinKind::Inner,
            outer: Box::new(PhysPlan::scan("R1")),
            inner: "R2".into(),
            outer_keys: vec![Attr::parse("R1.k1")],
            inner_keys: vec![Attr::parse("R2.k2")],
            residual: Pred::always(),
        };
        let out = execute(&plan, &s, &mut st).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(st.tuples_retrieved, 2); // scan R1 (1) + retrieved match (1)
        assert_eq!(st.index_probes, 1);
    }

    #[test]
    fn index_join_missing_index_errors() {
        let mut s = storage();
        s.insert("R4", Relation::from_ints("R4", &["k4"], &[&[1]]));
        let mut st = ExecStats::new();
        let plan = PhysPlan::IndexJoin {
            kind: JoinKind::Inner,
            outer: Box::new(PhysPlan::scan("R1")),
            inner: "R4".into(),
            outer_keys: vec![Attr::parse("R1.k1")],
            inner_keys: vec![Attr::parse("R4.k4")],
            residual: Pred::always(),
        };
        assert!(matches!(
            execute(&plan, &s, &mut st),
            Err(ExecError::MissingIndex { .. })
        ));
    }

    #[test]
    fn index_left_outer_join() {
        let s = storage();
        let mut st = ExecStats::new();
        let plan = PhysPlan::IndexJoin {
            kind: JoinKind::LeftOuter,
            outer: Box::new(PhysPlan::scan("R2")),
            inner: "R3".into(),
            outer_keys: vec![Attr::parse("R2.k2")],
            inner_keys: vec![Attr::parse("R3.k3")],
            residual: Pred::always(),
        };
        let out = execute(&plan, &s, &mut st).unwrap();
        let expect = ops::outerjoin(
            s.get_named("R2").unwrap().relation(),
            s.get_named("R3").unwrap().relation(),
            &Pred::eq_attr("R2.k2", "R3.k3"),
        )
        .unwrap();
        assert!(out.set_eq(&expect));
        // Scan R2 (3) + retrieved matches (2).
        assert_eq!(st.tuples_retrieved, 5);
    }

    #[test]
    fn nl_join_arbitrary_predicate() {
        let s = storage();
        let mut st = ExecStats::new();
        let plan = PhysPlan::NlJoin {
            kind: JoinKind::Inner,
            left: Box::new(PhysPlan::scan("R2")),
            right: Box::new(PhysPlan::scan("R3")),
            pred: Pred::cmp_attr("R2.k2", fro_algebra::CmpOp::Gt, "R3.k3"),
        };
        let out = execute(&plan, &s, &mut st).unwrap();
        // R2 values {1,2,3} vs R3 {2,3,4}: pairs with k2 > k3: (3,2).
        assert_eq!(out.len(), 1);
        assert_eq!(st.comparisons, 9);
    }

    #[test]
    fn filter_and_project() {
        let s = storage();
        let mut st = ExecStats::new();
        let plan = PhysPlan::Project {
            input: Box::new(PhysPlan::Filter {
                input: Box::new(PhysPlan::scan("R2")),
                pred: Pred::cmp_lit("R2.k2", fro_algebra::CmpOp::Ge, 2),
            }),
            attrs: vec![Attr::parse("R2.k2")],
        };
        let out = execute(&plan, &s, &mut st).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn example1_cost_asymmetry_in_miniature() {
        // Same plans as Example 1 with |R1|=1, |R2|=|R3|=3.
        let s = storage();

        // Plan A: (R2 → R3) first (scan R2, index into R3), then index
        // into R1 — retrieves 2·|R2|-ish tuples.
        let oj = PhysPlan::IndexJoin {
            kind: JoinKind::LeftOuter,
            outer: Box::new(PhysPlan::scan("R2")),
            inner: "R3".into(),
            outer_keys: vec![Attr::parse("R2.k2")],
            inner_keys: vec![Attr::parse("R3.k3")],
            residual: Pred::always(),
        };
        let plan_a = PhysPlan::IndexJoin {
            kind: JoinKind::Semi, // R1 − (…) with R1 single row: emulate via probe into R1
            outer: Box::new(oj),
            inner: "R1".into(),
            outer_keys: vec![Attr::parse("R2.k2")],
            inner_keys: vec![Attr::parse("R1.k1")],
            residual: Pred::always(),
        };
        let mut st_a = ExecStats::new();
        execute(&plan_a, &s, &mut st_a).unwrap();

        // Plan B: (R1 − R2) → R3 driven from the single-row R1.
        let jn = PhysPlan::IndexJoin {
            kind: JoinKind::Inner,
            outer: Box::new(PhysPlan::scan("R1")),
            inner: "R2".into(),
            outer_keys: vec![Attr::parse("R1.k1")],
            inner_keys: vec![Attr::parse("R2.k2")],
            residual: Pred::always(),
        };
        let plan_b = PhysPlan::IndexJoin {
            kind: JoinKind::LeftOuter,
            outer: Box::new(jn),
            inner: "R3".into(),
            outer_keys: vec![Attr::parse("R2.k2")],
            inner_keys: vec![Attr::parse("R3.k3")],
            residual: Pred::always(),
        };
        let mut st_b = ExecStats::new();
        execute(&plan_b, &s, &mut st_b).unwrap();

        assert!(
            st_b.tuples_retrieved < st_a.tuples_retrieved,
            "join-first should retrieve fewer tuples: {st_b} vs {st_a}"
        );
        // Exact miniature numbers: plan B = scan R1 (1) + R2 match (1)
        // + R3 lookup for k=1 (0 matches) = 2.
        assert_eq!(st_b.tuples_retrieved, 2);
    }

    #[test]
    fn key_arity_mismatch_rejected() {
        let s = storage();
        let mut st = ExecStats::new();
        let plan = PhysPlan::HashJoin {
            kind: JoinKind::Inner,
            probe: Box::new(PhysPlan::scan("R2")),
            build: Box::new(PhysPlan::scan("R3")),
            probe_keys: vec![],
            build_keys: vec![],
            residual: Pred::always(),
        };
        assert!(matches!(
            execute(&plan, &s, &mut st),
            Err(ExecError::KeyArityMismatch)
        ));
    }

    #[test]
    fn goj_plan_matches_reference() {
        let s = storage();
        let mut st = ExecStats::new();
        let plan = PhysPlan::Goj {
            left: Box::new(PhysPlan::scan("R2")),
            right: Box::new(PhysPlan::scan("R3")),
            pred: Pred::eq_attr("R2.k2", "R3.k3"),
            subset: vec![Attr::parse("R2.k2")],
        };
        let out = execute(&plan, &s, &mut st).unwrap();
        let expect = fro_algebra::ops::goj(
            s.get_named("R2").unwrap().relation(),
            s.get_named("R3").unwrap().relation(),
            &Pred::eq_attr("R2.k2", "R3.k3"),
            &[Attr::parse("R2.k2")],
        )
        .unwrap();
        assert!(out.set_eq(&expect));
    }

    #[test]
    fn full_outer_hash_join_matches_reference() {
        let s = storage();
        let mut st = ExecStats::new();
        let plan = PhysPlan::HashJoin {
            kind: JoinKind::FullOuter,
            probe: Box::new(PhysPlan::scan("R2")),
            build: Box::new(PhysPlan::scan("R3")),
            probe_keys: vec![Attr::parse("R2.k2")],
            build_keys: vec![Attr::parse("R3.k3")],
            residual: Pred::always(),
        };
        let out = execute(&plan, &s, &mut st).unwrap();
        let expect = ops::full_outerjoin(
            s.get_named("R2").unwrap().relation(),
            s.get_named("R3").unwrap().relation(),
            &Pred::eq_attr("R2.k2", "R3.k3"),
        )
        .unwrap();
        assert!(out.set_eq(&expect));
        // R2 {1,2,3} vs R3 {2,3,4}: matches (2,3) + R2-unmatched (1) +
        // R3-unmatched (4) = 4 rows.
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn full_outer_nl_join_matches_reference() {
        let s = storage();
        let mut st = ExecStats::new();
        let plan = PhysPlan::NlJoin {
            kind: JoinKind::FullOuter,
            left: Box::new(PhysPlan::scan("R2")),
            right: Box::new(PhysPlan::scan("R3")),
            pred: Pred::eq_attr("R2.k2", "R3.k3"),
        };
        let out = execute(&plan, &s, &mut st).unwrap();
        let expect = ops::full_outerjoin(
            s.get_named("R2").unwrap().relation(),
            s.get_named("R3").unwrap().relation(),
            &Pred::eq_attr("R2.k2", "R3.k3"),
        )
        .unwrap();
        assert!(out.set_eq(&expect));
    }

    #[test]
    fn full_outer_index_join_rejected() {
        let s = storage();
        let mut st = ExecStats::new();
        let plan = PhysPlan::IndexJoin {
            kind: JoinKind::FullOuter,
            outer: Box::new(PhysPlan::scan("R2")),
            inner: "R3".into(),
            outer_keys: vec![Attr::parse("R2.k2")],
            inner_keys: vec![Attr::parse("R3.k3")],
            residual: Pred::always(),
        };
        assert!(execute(&plan, &s, &mut st).is_err());
    }

    #[test]
    fn explain_analyze_reports_actual_rows() {
        let s = storage();
        let plan = PhysPlan::Filter {
            input: Box::new(PhysPlan::IndexJoin {
                kind: JoinKind::LeftOuter,
                outer: Box::new(PhysPlan::scan("R2")),
                inner: "R3".into(),
                outer_keys: vec![Attr::parse("R2.k2")],
                inner_keys: vec![Attr::parse("R3.k3")],
                residual: Pred::always(),
            }),
            pred: Pred::cmp_lit("R2.k2", fro_algebra::CmpOp::Ge, 2),
        };
        let (rel, report) = explain_analyze(&plan, &s).unwrap();
        // Agreement with the plain executor.
        let mut st = ExecStats::new();
        let expect = execute(&plan, &s, &mut st).unwrap();
        assert!(rel.set_eq(&expect));
        assert!(report.contains("Filter"), "{report}");
        assert!(report.contains("Scan R2  (rows=3)"), "{report}");
        assert!(
            report.contains("IndexJoin(left-outer) R3  (rows=3)"),
            "{report}"
        );
        assert!(report.contains("(rows=2)"), "{report}"); // filter output
        assert!(report.contains("totals:"), "{report}");
    }

    #[test]
    fn merge_join_all_kinds_match_hash_join() {
        let s = storage();
        for kind in [
            JoinKind::Inner,
            JoinKind::LeftOuter,
            JoinKind::FullOuter,
            JoinKind::Semi,
            JoinKind::Anti,
        ] {
            let merge = PhysPlan::MergeJoin {
                kind,
                left: Box::new(PhysPlan::scan("R2")),
                right: Box::new(PhysPlan::scan("R3")),
                left_keys: vec![Attr::parse("R2.k2")],
                right_keys: vec![Attr::parse("R3.k3")],
                residual: Pred::always(),
            };
            let hash = PhysPlan::HashJoin {
                kind,
                probe: Box::new(PhysPlan::scan("R2")),
                build: Box::new(PhysPlan::scan("R3")),
                probe_keys: vec![Attr::parse("R2.k2")],
                build_keys: vec![Attr::parse("R3.k3")],
                residual: Pred::always(),
            };
            let mut st1 = ExecStats::new();
            let a = execute(&merge, &s, &mut st1).unwrap();
            let mut st2 = ExecStats::new();
            let b = execute(&hash, &s, &mut st2).unwrap();
            assert!(a.set_eq(&b), "kind {kind}");
        }
    }

    #[test]
    fn merge_join_with_residual_and_duplicate_keys() {
        let mut s = Storage::new();
        s.insert(
            "L",
            Relation::from_ints("L", &["k", "v"], &[&[1, 10], &[1, 11], &[2, 20]]),
        );
        s.insert(
            "R",
            Relation::from_ints("R", &["k", "w"], &[&[1, 10], &[1, 99], &[3, 30]]),
        );
        let plan = PhysPlan::MergeJoin {
            kind: JoinKind::LeftOuter,
            left: Box::new(PhysPlan::scan("L")),
            right: Box::new(PhysPlan::scan("R")),
            left_keys: vec![Attr::parse("L.k")],
            right_keys: vec![Attr::parse("R.k")],
            residual: Pred::eq_attr("L.v", "R.w"),
        };
        let mut st = ExecStats::new();
        let out = execute(&plan, &s, &mut st).unwrap();
        let expect = ops::outerjoin(
            s.get_named("L").unwrap().relation(),
            s.get_named("R").unwrap().relation(),
            &Pred::eq_attr("L.k", "R.k").and(Pred::eq_attr("L.v", "R.w")),
        )
        .unwrap();
        assert!(out.set_eq(&expect));
    }

    #[test]
    fn explain_analyze_covers_merge_and_group_count() {
        let s = storage();
        let plan = PhysPlan::GroupCount {
            input: Box::new(PhysPlan::MergeJoin {
                kind: JoinKind::LeftOuter,
                left: Box::new(PhysPlan::scan("R2")),
                right: Box::new(PhysPlan::scan("R3")),
                left_keys: vec![Attr::parse("R2.k2")],
                right_keys: vec![Attr::parse("R3.k3")],
                residual: Pred::always(),
            }),
            group_attrs: vec![Attr::parse("R2.k2")],
            counted: Some(Attr::parse("R3.k3")),
        };
        let (rel, report) = explain_analyze(&plan, &s).unwrap();
        let mut st = ExecStats::new();
        let expect = execute(&plan, &s, &mut st).unwrap();
        assert!(rel.set_eq(&expect));
        assert!(report.contains("GroupCount"), "{report}");
        assert!(report.contains("MergeJoin(left-outer)"), "{report}");
        // Counts: k2 ∈ {1,2,3}, k3 ∈ {2,3,4} ⇒ (1,0), (2,1), (3,1).
        assert_eq!(rel.len(), 3);
    }

    #[test]
    fn full_outer_all_null_rows_do_not_duplicate() {
        // Regression: an all-null row on each side pads to the same
        // all-null wide row.
        let mut s = Storage::new();
        s.insert(
            "L",
            Relation::from_values("L", &["k"], vec![vec![Value::Null], vec![Value::Int(1)]]),
        );
        s.insert(
            "R",
            Relation::from_values("R", &["k"], vec![vec![Value::Null], vec![Value::Int(2)]]),
        );
        for plan in [
            PhysPlan::HashJoin {
                kind: JoinKind::FullOuter,
                probe: Box::new(PhysPlan::scan("L")),
                build: Box::new(PhysPlan::scan("R")),
                probe_keys: vec![Attr::parse("L.k")],
                build_keys: vec![Attr::parse("R.k")],
                residual: Pred::always(),
            },
            PhysPlan::MergeJoin {
                kind: JoinKind::FullOuter,
                left: Box::new(PhysPlan::scan("L")),
                right: Box::new(PhysPlan::scan("R")),
                left_keys: vec![Attr::parse("L.k")],
                right_keys: vec![Attr::parse("R.k")],
                residual: Pred::always(),
            },
            PhysPlan::NlJoin {
                kind: JoinKind::FullOuter,
                left: Box::new(PhysPlan::scan("L")),
                right: Box::new(PhysPlan::scan("R")),
                pred: Pred::eq_attr("L.k", "R.k"),
            },
        ] {
            let mut st = ExecStats::new();
            let out = execute(&plan, &s, &mut st).unwrap();
            let expect = ops::full_outerjoin(
                s.get_named("L").unwrap().relation(),
                s.get_named("R").unwrap().relation(),
                &Pred::eq_attr("L.k", "R.k"),
            )
            .unwrap();
            assert!(out.set_eq(&expect));
            // (null, null-pad) appears once, not twice.
            assert_eq!(out.len(), 3);
        }
    }

    #[test]
    fn null_keys_fall_out_of_hash_join_but_pad_in_outer() {
        let mut s = Storage::new();
        s.insert(
            "L",
            Relation::from_values("L", &["k"], vec![vec![Value::Null], vec![Value::Int(1)]]),
        );
        s.insert(
            "R",
            Relation::from_values("R", &["k"], vec![vec![Value::Null], vec![Value::Int(1)]]),
        );
        let mut st = ExecStats::new();
        let plan = PhysPlan::HashJoin {
            kind: JoinKind::LeftOuter,
            probe: Box::new(PhysPlan::scan("L")),
            build: Box::new(PhysPlan::scan("R")),
            probe_keys: vec![Attr::parse("L.k")],
            build_keys: vec![Attr::parse("R.k")],
            residual: Pred::always(),
        };
        let out = execute(&plan, &s, &mut st).unwrap();
        let expect = ops::outerjoin(
            s.get_named("L").unwrap().relation(),
            s.get_named("R").unwrap().relation(),
            &Pred::eq_attr("L.k", "R.k"),
        )
        .unwrap();
        assert!(out.set_eq(&expect));
        assert_eq!(out.len(), 2); // (null,null-pad) and (1,1)
    }

    /// A probe/build pair with duplicate keys, null keys, and a
    /// residual — enough structure that any ordering or counting bug in
    /// the parallel path shows up.
    fn skewed_storage() -> Storage {
        let mut s = Storage::new();
        let probe_rows: Vec<Vec<Value>> = (0..100)
            .map(|i| {
                let k = if i % 10 == 9 {
                    Value::Null
                } else {
                    Value::Int(i % 7)
                };
                vec![Value::Int(i), k]
            })
            .collect();
        let build_rows: Vec<Vec<Value>> = (0..30)
            .map(|i| {
                let k = if i % 6 == 5 {
                    Value::Null
                } else {
                    Value::Int(i % 9)
                };
                vec![Value::Int(1000 + i), k]
            })
            .collect();
        s.insert("P", Relation::from_values("P", &["id", "k"], probe_rows));
        s.insert("B", Relation::from_values("B", &["id", "k"], build_rows));
        s
    }

    const ALL_KINDS: [JoinKind; 5] = [
        JoinKind::Inner,
        JoinKind::LeftOuter,
        JoinKind::FullOuter,
        JoinKind::Semi,
        JoinKind::Anti,
    ];

    #[test]
    fn parallel_hash_join_is_bit_identical_to_sequential() {
        let s = skewed_storage();
        for kind in ALL_KINDS {
            let plan = PhysPlan::HashJoin {
                kind,
                probe: Box::new(PhysPlan::scan("P")),
                build: Box::new(PhysPlan::scan("B")),
                probe_keys: vec![Attr::parse("P.k")],
                build_keys: vec![Attr::parse("B.k")],
                residual: Pred::cmp_attr("P.id", fro_algebra::CmpOp::Lt, "B.id"),
            };
            let mut seq_stats = ExecStats::new();
            let seq = execute(&plan, &s, &mut seq_stats).unwrap();
            for threads in [2, 3, 8] {
                for morsel in [1, 7, 64, 100_000] {
                    let cfg = ExecConfig::with_threads(threads).morsel_rows(morsel);
                    let mut st = ExecStats::new();
                    let par = execute_with(&plan, &s, &mut st, &cfg).unwrap();
                    assert_eq!(
                        par.rows(),
                        seq.rows(),
                        "{kind} threads={threads} morsel={morsel}"
                    );
                    assert_eq!(st, seq_stats, "{kind} threads={threads} morsel={morsel}");
                }
            }
        }
    }

    #[test]
    fn partitioned_hash_join_is_bit_identical_to_sequential() {
        let s = skewed_storage();
        for kind in ALL_KINDS {
            let plan = PhysPlan::HashJoin {
                kind,
                probe: Box::new(PhysPlan::scan("P")),
                build: Box::new(PhysPlan::scan("B")),
                probe_keys: vec![Attr::parse("P.k")],
                build_keys: vec![Attr::parse("B.k")],
                residual: Pred::cmp_attr("P.id", fro_algebra::CmpOp::Lt, "B.id"),
            };
            let mut seq_stats = ExecStats::new();
            let seq = execute(&plan, &s, &mut seq_stats).unwrap();
            for partitions in [1, 2, 8, 64] {
                // morsel=7 splits the 30-row build into 5 morsels, so
                // threads≥2 exercises the two-phase parallel build.
                for (threads, morsel) in [(1, 7), (2, 7), (8, 1), (3, 100_000)] {
                    let cfg = ExecConfig::with_threads(threads)
                        .morsel_rows(morsel)
                        .partitions(partitions);
                    let mut st = ExecStats::new();
                    let par = execute_with(&plan, &s, &mut st, &cfg).unwrap();
                    assert_eq!(
                        par.rows(),
                        seq.rows(),
                        "{kind} P={partitions} threads={threads} morsel={morsel}"
                    );
                    assert_eq!(
                        st, seq_stats,
                        "{kind} P={partitions} threads={threads} morsel={morsel}"
                    );
                    assert_eq!(st.partition.used(), partitions, "{kind} P={partitions}");
                    // 25 of 30 build rows carry a non-null key; the
                    // breakdown redistributes them but never loses one.
                    assert_eq!(
                        st.partition.build_rows().iter().sum::<u64>(),
                        25,
                        "{kind} P={partitions}"
                    );
                    // 90 of 100 probe rows carry a non-null key.
                    assert_eq!(
                        st.partition.probe_rows().iter().sum::<u64>(),
                        90,
                        "{kind} P={partitions}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_nl_join_is_bit_identical_to_sequential() {
        let s = skewed_storage();
        for kind in ALL_KINDS {
            let plan = PhysPlan::NlJoin {
                kind,
                left: Box::new(PhysPlan::scan("P")),
                right: Box::new(PhysPlan::scan("B")),
                pred: Pred::eq_attr("P.k", "B.k"),
            };
            let mut seq_stats = ExecStats::new();
            let seq = execute(&plan, &s, &mut seq_stats).unwrap();
            let cfg = ExecConfig::with_threads(4).morsel_rows(9);
            let mut st = ExecStats::new();
            let par = execute_with(&plan, &s, &mut st, &cfg).unwrap();
            assert_eq!(par.rows(), seq.rows(), "{kind}");
            assert_eq!(st, seq_stats, "{kind}");
        }
    }

    #[test]
    fn parallel_index_join_is_bit_identical_to_sequential() {
        let s = storage();
        for kind in [
            JoinKind::Inner,
            JoinKind::LeftOuter,
            JoinKind::Semi,
            JoinKind::Anti,
        ] {
            let plan = PhysPlan::IndexJoin {
                kind,
                outer: Box::new(PhysPlan::scan("R2")),
                inner: "R3".into(),
                outer_keys: vec![Attr::parse("R2.k2")],
                inner_keys: vec![Attr::parse("R3.k3")],
                residual: Pred::always(),
            };
            let mut seq_stats = ExecStats::new();
            let seq = execute(&plan, &s, &mut seq_stats).unwrap();
            let cfg = ExecConfig::with_threads(8).morsel_rows(1);
            let mut st = ExecStats::new();
            let par = execute_with(&plan, &s, &mut st, &cfg).unwrap();
            assert_eq!(par.rows(), seq.rows(), "{kind}");
            assert_eq!(st, seq_stats, "{kind}");
        }
    }

    #[test]
    fn parallel_join_on_empty_inputs() {
        let mut s = Storage::new();
        s.insert("E", Relation::from_values("E", &["k"], vec![]));
        s.insert(
            "F",
            Relation::from_values("F", &["j"], vec![vec![Value::Int(1)]]),
        );
        for (probe, build) in [("E", "F"), ("F", "E"), ("E", "E")] {
            for kind in ALL_KINDS {
                let plan = PhysPlan::HashJoin {
                    kind,
                    probe: Box::new(PhysPlan::scan(probe)),
                    build: Box::new(PhysPlan::scan(build)),
                    probe_keys: vec![Attr::parse(&format!(
                        "{probe}.{}",
                        if probe == "E" { "k" } else { "j" }
                    ))],
                    build_keys: vec![Attr::parse(&format!(
                        "{build}.{}",
                        if build == "E" { "k" } else { "j" }
                    ))],
                    residual: Pred::always(),
                };
                // E joined with itself overlaps schemes; skip that
                // combination for wide kinds (it errors identically in
                // both engines, which is all we need).
                let mut seq_stats = ExecStats::new();
                let seq = execute(&plan, &s, &mut seq_stats);
                let cfg = ExecConfig::with_threads(8).morsel_rows(4);
                let mut st = ExecStats::new();
                let par = execute_with(&plan, &s, &mut st, &cfg);
                match (seq, par) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.rows(), b.rows(), "{kind} {probe}/{build}");
                        assert_eq!(st, seq_stats, "{kind} {probe}/{build}");
                    }
                    (Err(ea), Err(eb)) => assert_eq!(ea, eb, "{kind} {probe}/{build}"),
                    (a, b) => panic!("engines disagree on {kind} {probe}/{build}: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn auto_thread_config_runs() {
        let s = skewed_storage();
        let plan = PhysPlan::HashJoin {
            kind: JoinKind::LeftOuter,
            probe: Box::new(PhysPlan::scan("P")),
            build: Box::new(PhysPlan::scan("B")),
            probe_keys: vec![Attr::parse("P.k")],
            build_keys: vec![Attr::parse("B.k")],
            residual: Pred::always(),
        };
        let mut st = ExecStats::new();
        let cfg = ExecConfig::with_threads(0).morsel_rows(8);
        let out = execute_with(&plan, &s, &mut st, &cfg).unwrap();
        let mut seq_st = ExecStats::new();
        let seq = execute(&plan, &s, &mut seq_st).unwrap();
        assert_eq!(out.rows(), seq.rows());
    }

    #[test]
    fn dedup_rows_keeps_first_occurrence_without_cloning() {
        let t = |v: i64| Tuple::new(vec![Value::Int(v)]);
        let mut rows = vec![t(1), t(2), t(1), t(3), t(2), t(1)];
        dedup_rows(&mut rows);
        assert_eq!(rows, vec![t(1), t(2), t(3)]);
        let mut empty: Vec<Tuple> = Vec::new();
        dedup_rows(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn explain_analyze_report_is_thread_count_invariant() {
        let s = skewed_storage();
        let plan = PhysPlan::HashJoin {
            kind: JoinKind::FullOuter,
            probe: Box::new(PhysPlan::scan("P")),
            build: Box::new(PhysPlan::scan("B")),
            probe_keys: vec![Attr::parse("P.k")],
            build_keys: vec![Attr::parse("B.k")],
            residual: Pred::always(),
        };
        let (seq_rel, seq_report) = explain_analyze(&plan, &s).unwrap();
        let cfg = ExecConfig::with_threads(8).morsel_rows(16);
        let (par_rel, par_report) = explain_analyze_with(&plan, &s, &cfg).unwrap();
        assert_eq!(seq_rel.rows(), par_rel.rows());
        assert_eq!(seq_report, par_report);
    }

    #[test]
    fn explain_analyze_reports_partition_breakdown() {
        let s = skewed_storage();
        let plan = PhysPlan::HashJoin {
            kind: JoinKind::Inner,
            probe: Box::new(PhysPlan::scan("P")),
            build: Box::new(PhysPlan::scan("B")),
            probe_keys: vec![Attr::parse("P.k")],
            build_keys: vec![Attr::parse("B.k")],
            residual: Pred::always(),
        };
        let cfg = ExecConfig::new().partitions(8);
        let (_, report) = explain_analyze_with(&plan, &s, &cfg).unwrap();
        assert!(report.contains("partitions: P=8 build=["), "{report}");
        // The breakdown line is thread-count invariant at a fixed P.
        let par_cfg = ExecConfig::with_threads(8).morsel_rows(16).partitions(8);
        let (_, par_report) = explain_analyze_with(&plan, &s, &par_cfg).unwrap();
        assert_eq!(report, par_report);
    }

    #[test]
    fn explain_totals_equal_execute_stats_in_both_modes() {
        // Sorted keys: zone maps prune 19 of the filter's 20 morsels.
        let keys: Vec<Vec<i64>> = (0..20_000).map(|k| vec![k]).collect();
        let rows: Vec<&[i64]> = keys.iter().map(Vec::as_slice).collect();
        let mut s = Storage::new();
        s.insert("R", Relation::from_ints("R", &["k"], &rows));
        let plan = PhysPlan::Filter {
            input: Box::new(PhysPlan::scan("R")),
            pred: Pred::cmp_lit("R.k", fro_algebra::CmpOp::Lt, 100),
        };
        for cfg in [
            ExecConfig::new().pipelined(),
            ExecConfig::new().materializing(),
        ] {
            let mut stats = ExecStats::new();
            let rel = execute_with(&plan, &s, &mut stats, &cfg).unwrap();
            let (explained, report) = explain_analyze_with(&plan, &s, &cfg).unwrap();
            assert_eq!(rel.rows(), explained.rows());
            assert_eq!(stats.morsels_skipped, 19, "{:?}", cfg.mode);
            assert!(
                report.contains(&format!("totals: {stats}\n")),
                "{:?}: {report}",
                cfg.mode
            );
        }
    }
}
