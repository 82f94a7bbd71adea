//! Property suite for in-place row edits in storage.
//!
//! Random storages of a few tables mix int, string, bool and mixed
//! columns with nulls, and carry random hash indexes. Random
//! interleavings of `Storage::append_rows` and `Storage::delete_rows`
//! then run against them, some while clones of the storage (pinned
//! snapshots) are alive:
//!
//! * appends carry duplicates inside the batch and of stored rows,
//!   nulls, strings the table has never held, and now and then a value
//!   whose type does not fit its column;
//! * deletes carry present, absent and repeated rows.
//!
//! After every step each table must equal `Table::new` over a model of
//! its rows, plus the same indexes, on every observable: rows and their
//! order, cells, distinct and null counts, zone min/max and null
//! counts, index lookups and predicate masks (with their zone-skip
//! counts). Each edit must return what set semantics say: the novel
//! suffix of an append in batch order, and the removed rows of a delete
//! in stored order. Every pinned clone must still hold what it held
//! when it was taken.

use fro::exec::{Storage, Table};
use fro_algebra::ops::{BoundPred, BoundScalar};
use fro_algebra::{Attr, CmpOp, Relation, Tuple, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The value kinds a generated column draws from.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Int,
    Str,
    Bool,
    Mixed,
}

/// One generated table: its columns' kinds, its indexed column sets,
/// and the model of its rows (stored order).
struct Model {
    name: String,
    attrs: Vec<String>,
    kinds: Vec<Kind>,
    indexes: Vec<Vec<usize>>,
    rows: Vec<Tuple>,
}

impl Model {
    fn relation(&self) -> Relation {
        let attrs: Vec<&str> = self.attrs.iter().map(String::as_str).collect();
        Relation::from_values(
            &self.name,
            &attrs,
            self.rows.iter().map(|t| t.values().to_vec()).collect(),
        )
    }

    fn index_attrs(&self, cols: &[usize]) -> Vec<Attr> {
        cols.iter()
            .map(|&c| Attr::new(&self.name, &self.attrs[c]))
            .collect()
    }

    /// The reference table: a fresh build over the model's rows with
    /// the same indexes.
    fn rebuilt(&self) -> Table {
        let mut t = Table::new(self.relation());
        for cols in &self.indexes {
            assert!(t.create_index(&self.index_attrs(cols)));
        }
        t
    }
}

/// A value of `kind`: null one time in six; small domains so values and
/// rows repeat; `fresh` strings the table has never held.
fn value(rng: &mut StdRng, kind: Kind, fresh: &mut u32) -> Value {
    if rng.gen_ratio(1, 6) {
        return Value::Null;
    }
    let kind = match kind {
        Kind::Mixed => [Kind::Int, Kind::Str, Kind::Bool][rng.gen_range(0..3usize)],
        k => k,
    };
    match kind {
        Kind::Int => Value::Int(rng.gen_range(-4..8i64)),
        Kind::Bool => Value::Bool(rng.gen_bool(0.5)),
        _ if rng.gen_ratio(1, 5) => {
            *fresh += 1;
            Value::str(format!("new{fresh:03}"))
        }
        _ => Value::str(format!("s{}", rng.gen_range(0..6u32))),
    }
}

fn row(rng: &mut StdRng, kinds: &[Kind], fresh: &mut u32) -> Tuple {
    Tuple::new(kinds.iter().map(|&k| value(rng, k, fresh)).collect())
}

/// A stored row of `m`, if it has any.
fn stored(rng: &mut StdRng, m: &Model) -> Option<Tuple> {
    (!m.rows.is_empty()).then(|| m.rows[rng.gen_range(0..m.rows.len())].clone())
}

/// One to three tables; with `long`, the first spans several zones.
fn gen_storage(rng: &mut StdRng, fresh: &mut u32, long: bool) -> (Storage, Vec<Model>) {
    let mut storage = Storage::new();
    let mut models = Vec::new();
    for t in 0..rng.gen_range(1..4usize) {
        let width = rng.gen_range(1..5usize);
        let kinds: Vec<Kind> = (0..width)
            .map(|_| [Kind::Int, Kind::Str, Kind::Bool, Kind::Mixed][rng.gen_range(0..4usize)])
            .collect();
        // Now and then a table long enough for several zones.
        let n = if (long && t == 0) || rng.gen_ratio(1, 6) {
            rng.gen_range(1000..2600usize)
        } else {
            rng.gen_range(0..40usize)
        };
        let mut m = Model {
            name: format!("T{t}"),
            attrs: (0..width).map(|c| format!("c{c}")).collect(),
            kinds,
            indexes: Vec::new(),
            rows: Vec::new(),
        };
        // Long tables get an int counter column so rows stay distinct.
        let rows: Vec<Tuple> = (0..n)
            .map(|i| {
                let mut t = row(rng, &m.kinds, fresh).values().to_vec();
                if n >= 1000 {
                    t[0] = Value::Int(i as i64);
                }
                Tuple::new(t)
            })
            .collect();
        if n >= 1000 {
            m.kinds[0] = Kind::Int;
        }
        m.rows = Relation::from_values(
            &m.name,
            &m.attrs.iter().map(String::as_str).collect::<Vec<_>>(),
            rows.into_iter().map(|t| t.values().to_vec()).collect(),
        )
        .rows()
        .to_vec();
        storage.insert(m.name.clone(), m.relation());
        for _ in 0..rng.gen_range(0..3usize) {
            let mut cols: Vec<usize> = (0..width).filter(|_| rng.gen_bool(0.5)).collect();
            if cols.is_empty() {
                cols.push(rng.gen_range(0..width));
            }
            assert!(storage.create_index(&m.name, &m.index_attrs(&cols)));
            m.indexes.push(cols);
        }
        models.push(m);
    }
    (storage, models)
}

/// An append batch: fresh rows, stored rows, repeats inside the batch,
/// and one time in eight a value whose type does not fit its column.
fn gen_append(rng: &mut StdRng, m: &Model, fresh: &mut u32) -> Vec<Tuple> {
    let mut batch: Vec<Tuple> = Vec::new();
    for _ in 0..rng.gen_range(1..6usize) {
        let t = match rng.gen_range(0..6u32) {
            0 => stored(rng, m).unwrap_or_else(|| row(rng, &m.kinds, fresh)),
            1 if !batch.is_empty() => batch[rng.gen_range(0..batch.len())].clone(),
            _ => row(rng, &m.kinds, fresh),
        };
        batch.push(t);
    }
    if rng.gen_ratio(1, 8) {
        let c = rng.gen_range(0..m.kinds.len());
        let odd = match m.kinds[c] {
            Kind::Int => Value::str("odd"),
            Kind::Str => Value::Int(77),
            Kind::Bool | Kind::Mixed => Value::Int(78),
        };
        let mut vals = row(rng, &m.kinds, fresh).values().to_vec();
        vals[c] = odd;
        batch.push(Tuple::new(vals));
    }
    batch
}

/// A delete batch: stored rows (some repeated) and absent rows.
fn gen_delete(rng: &mut StdRng, m: &Model, fresh: &mut u32) -> Vec<Tuple> {
    let mut batch: Vec<Tuple> = Vec::new();
    for _ in 0..rng.gen_range(0..6usize) {
        match rng.gen_range(0..5u32) {
            0 => batch.push(row(rng, &m.kinds, fresh)),
            1 if !batch.is_empty() => batch.push(batch[rng.gen_range(0..batch.len())].clone()),
            _ => batch.extend(stored(rng, m)),
        }
    }
    batch
}

/// Apply an append to the model: the novel rows, in batch order.
fn model_append(m: &mut Model, batch: &[Tuple]) -> Vec<Tuple> {
    let mut novel: Vec<Tuple> = Vec::new();
    for t in batch {
        if !m.rows.contains(t) && !novel.contains(t) {
            novel.push(t.clone());
        }
    }
    m.rows.extend(novel.iter().cloned());
    novel
}

/// Apply a delete to the model: the removed rows, in stored order.
fn model_delete(m: &mut Model, batch: &[Tuple]) -> Vec<Tuple> {
    let (removed, kept) = m.rows.iter().cloned().partition(|t| batch.contains(t));
    m.rows = kept;
    removed
}

/// Predicates over every column and column pair, with literals drawn
/// from the value domains (so zones are both decided and ambiguous).
fn preds(width: usize) -> Vec<BoundPred> {
    use BoundPred as P;
    use BoundScalar as S;
    let lits = [
        Value::Int(0),
        Value::Int(5),
        Value::str("s2"),
        Value::str("new"),
        Value::Bool(true),
        Value::Null,
    ];
    let mut out = Vec::new();
    for c in 0..width {
        out.push(P::IsNull(S::Col(c)));
        for (k, lit) in lits.iter().enumerate() {
            let op = [
                CmpOp::Eq,
                CmpOp::Lt,
                CmpOp::Ge,
                CmpOp::Ne,
                CmpOp::Gt,
                CmpOp::Le,
            ][k];
            out.push(P::Cmp(op, S::Col(c), S::Lit(lit.clone())));
        }
        for d in 0..width {
            if c != d {
                out.push(P::Cmp(CmpOp::Lt, S::Col(c), S::Col(d)));
                out.push(P::Cmp(CmpOp::Eq, S::Col(c), S::Col(d)));
            }
        }
    }
    out
}

fn zones(t: &Table, c: usize) -> Vec<(Option<(Value, Value)>, usize)> {
    t.columns()
        .column(c)
        .zones()
        .iter()
        .map(|z| (z.min_max().map(|(a, b)| (a.clone(), b.clone())), z.nulls()))
        .collect()
}

/// Every observable of `got` equals `want`'s.
fn assert_same_table(got: &Table, want: &Table, m: &Model, at: &str) {
    assert_eq!(got.relation(), want.relation(), "{at}: rows");
    assert_eq!(got.len(), want.len(), "{at}: len");
    let (gc, wc) = (got.columns(), want.columns());
    assert_eq!(gc.rows(), wc.rows(), "{at}: mirror rows");
    for c in 0..gc.width() {
        let (g, w) = (gc.column(c), wc.column(c));
        assert_eq!(g.distinct(), w.distinct(), "{at}: col {c} distinct");
        assert_eq!(g.null_count(), w.null_count(), "{at}: col {c} nulls");
        assert_eq!(g.min_max(), w.min_max(), "{at}: col {c} min/max");
        assert_eq!(zones(got, c), zones(want, c), "{at}: col {c} zones");
        for r in 0..gc.rows() {
            assert_eq!(gc.value_at(r, c), wc.value_at(r, c), "{at}: cell {r},{c}");
        }
    }
    for p in preds(gc.width()) {
        let (mut gs, mut ws) = (0, 0);
        let (g, w) = (gc.eval_pred(&p, &mut gs), wc.eval_pred(&p, &mut ws));
        assert_eq!(g.trues(), w.trues(), "{at}: {p:?} trues");
        assert_eq!(g.falses(), w.falses(), "{at}: {p:?} falses");
        assert_eq!(gs, ws, "{at}: {p:?} zones skipped");
    }
    assert_eq!(got.indexes().len(), want.indexes().len(), "{at}: indexes");
    for cols in &m.indexes {
        let (g, w) = (got.index_on(cols).unwrap(), want.index_on(cols).unwrap());
        assert_eq!(g.distinct_keys(), w.distinct_keys(), "{at}: {cols:?} keys");
        let probe = |t: &Tuple| -> Vec<Value> { cols.iter().map(|&c| t.get(c).clone()).collect() };
        for t in want.relation().rows() {
            let key = probe(t);
            assert_eq!(g.lookup(&key), w.lookup(&key), "{at}: {cols:?} {key:?}");
        }
    }
}

fn table<'s>(s: &'s Storage, name: &str) -> &'s Table {
    s.get_by_id(s.rel_id(name).unwrap()).unwrap()
}

/// A pinned clone of the storage and each table's rows when pinned.
struct Pin {
    storage: Storage,
    rows: Vec<(String, Relation)>,
}

fn check_pins(pins: &[Pin], at: &str) {
    for pin in pins {
        for (name, rel) in &pin.rows {
            let t = table(&pin.storage, name);
            assert_eq!(t.relation(), rel, "{at}: pinned {name}");
            assert_eq!(t.columns().rows(), rel.len(), "{at}: pinned {name} mirror");
        }
    }
}

fn interleave(seed: u64, steps: usize, long: bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fresh = 0u32;
    let (mut storage, mut models) = gen_storage(&mut rng, &mut fresh, long);
    let mut pins: Vec<Pin> = Vec::new();
    for step in 0..steps {
        if rng.gen_ratio(1, 4) {
            if pins.len() == 2 || (!pins.is_empty() && rng.gen_bool(0.3)) {
                pins.remove(0);
            } else {
                let rows = models
                    .iter()
                    .map(|m| (m.name.clone(), m.relation()))
                    .collect();
                pins.push(Pin {
                    storage: storage.clone(),
                    rows,
                });
            }
        }
        let k = rng.gen_range(0..models.len());
        let m = &mut models[k];
        let at = format!("seed {seed} step {step} {}", m.name);
        let epoch = storage.epoch();
        let changed = if rng.gen_bool(0.55) {
            let batch = gen_append(&mut rng, m, &mut fresh);
            let width = m.kinds.len();
            // A type change is a value, not an arity: it must be stored.
            assert!(batch.iter().all(|t| t.arity() == width));
            let novel = storage.append_rows(&m.name, batch.clone());
            let want = model_append(m, &batch);
            assert_eq!(novel.as_ref(), Some(&want), "{at}: appended");
            !want.is_empty()
        } else {
            let batch = gen_delete(&mut rng, m, &mut fresh);
            let removed = storage.delete_rows(&m.name, &batch);
            let want = model_delete(m, &batch);
            assert_eq!(removed.as_ref(), Some(&want), "{at}: removed");
            !want.is_empty()
        };
        assert_eq!(storage.epoch() > epoch, changed, "{at}: epoch");
        for m in &models {
            assert_same_table(table(&storage, &m.name), &m.rebuilt(), m, &at);
        }
        check_pins(&pins, &at);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_edits_match_a_rebuild(seed in 0u64..1_000_000) {
        interleave(seed, 30, false);
    }
}

/// Fixed seeds, each with a first table of 1000–2600 rows, so edits
/// shift rows across zone boundaries.
#[test]
fn edits_across_zones_match_a_rebuild() {
    for seed in [1, 2, 3] {
        interleave(seed * 7919, 60, true);
    }
}
