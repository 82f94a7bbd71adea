//! Property suite for standing queries with incremental delta
//! maintenance:
//!
//! * random append/delete interleavings over every join kind (inner,
//!   left outer, full outer, semi, anti) keep the maintained view
//!   bit-identical — rows, order AND schema — to a cold re-execution
//!   of the same query, under both execution modes;
//! * the same holds for three-relation nests `(L ⋈ M) k R` and
//!   `L k (M ⋈ R)` with all three tables mutating, so deltas reach a
//!   join's input through the join below it — also when the view was
//!   seeded from a pooled build side (compared up to the column order
//!   a re-plan picks once statistics move);
//! * outerjoin bookkeeping retracts the null-padded row the instant
//!   the last matching partner dies, and re-emits it when a match
//!   returns;
//! * empty and all-null inputs are safe: null keys never join, so an
//!   all-null append flows through the delta pipeline without
//!   fabricating matches;
//! * alpha-equivalent registrations (different associations of one
//!   query graph) share a single materialized view;
//! * maintenance counters attribute exactly: with all mutations driven
//!   through session handles, the per-handle sums equal the shared
//!   totals, and the work per append is O(delta), not O(base).

use fro::prelude::*;
use fro_algebra::{Pred, Query, Relation, Tuple, Value};
use std::collections::BTreeSet;
use std::sync::{Arc, Barrier};
use std::thread;

/// Deterministic xorshift-multiply generator so the interleavings are
/// reproducible without any external crate.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Lcg {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Sort a result into the canonical order standing views serve:
/// distinct rows in ascending tuple order under the same schema.
fn canonical(rel: &Relation) -> Relation {
    let rows: BTreeSet<Tuple> = rel.rows().iter().cloned().collect();
    Relation::from_distinct_rows(rel.schema().clone(), rows.into_iter().collect())
}

/// `cold` in `view`'s column order, canonicalized. A nested query may
/// be re-planned in another join order once statistics move, which
/// permutes the result columns but not the relation they hold.
fn aligned(cold: &Relation, view: &Relation) -> Relation {
    canonical(&cold.pad_to(view.schema()))
}

fn int_row(vals: &[i64]) -> Tuple {
    Tuple::new(vals.iter().map(|v| Value::Int(*v)).collect())
}

fn null_key_row(payload: i64) -> Tuple {
    Tuple::new(vec![Value::Null, Value::Int(payload)])
}

/// Two-column tables (join key, payload) so null padding is visible.
/// Returns a shadow copy of each table's rows — the test's own model
/// of storage, kept in sync through every append/delete.
fn seed_tables(
    session: &Session,
    rng: &mut Lcg,
    names: &[&str],
    rows_each: usize,
) -> Vec<Vec<Tuple>> {
    let mut shadows = Vec::with_capacity(names.len());
    for &name in names {
        let rows: Vec<Vec<i64>> = (0..rows_each)
            .map(|i| vec![rng.below(8) as i64, (i as i64) << 1])
            .collect();
        let refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        let key = format!("k{name}");
        let pay = format!("p{name}");
        session.insert_table(name, Relation::from_ints(name, &[&key, &pay], &refs));
        shadows.push(rows.iter().map(|r| int_row(r)).collect());
    }
    shadows
}

/// `l k r` for join kind `k` (an index into [`KINDS`]).
fn kind_join(kind: usize, l: Query, r: Query, p: Pred) -> Query {
    match kind {
        0 => l.join(r, p),
        1 => l.outerjoin(r, p),
        2 => l.full_outerjoin(r, p),
        3 => l.semijoin(r, p),
        _ => l.antijoin(r, p),
    }
}

fn joined(kind: usize) -> Query {
    kind_join(
        kind,
        Query::rel("L"),
        Query::rel("R"),
        Pred::eq_attr("L.kL", "R.kR"),
    )
}

/// Three-relation nests of join kind `kind` over an inner join: with
/// `inner_left` the inner join feeds the outer join's left input,
/// `(L ⋈ M) k R`; otherwise its right input, `L k (M ⋈ R)`. Either way
/// a delta reaches the outer join through the join below it.
fn nested(kind: usize, inner_left: bool) -> Query {
    let (l, m, r) = (Query::rel("L"), Query::rel("M"), Query::rel("R"));
    if inner_left {
        let lm = l.join(m, Pred::eq_attr("L.kL", "M.kM"));
        kind_join(kind, lm, r, Pred::eq_attr("M.kM", "R.kR"))
    } else {
        let mr = m.join(r, Pred::eq_attr("M.kM", "R.kR"));
        kind_join(kind, l, mr, Pred::eq_attr("L.kL", "M.kM"))
    }
}

/// One random mutation of one of `names`: append a small batch
/// (sometimes duplicating an existing row, a no-op under set
/// semantics) or delete an existing row (maybe the last match of some
/// partner — exercises retraction). `shadows` tracks the new contents.
fn mutate_randomly(
    session: &Session,
    rng: &mut Lcg,
    names: &[&str],
    shadows: &mut [Vec<Tuple>],
    next_pay: &mut i64,
) {
    let slot = rng.below(names.len() as u64) as usize;
    let table = names[slot];
    if rng.below(3) < 2 {
        let mut batch = Vec::new();
        for _ in 0..=rng.below(3) {
            batch.push(int_row(&[rng.below(10) as i64, *next_pay]));
            *next_pay += 1;
        }
        if rng.below(4) == 0 {
            if let Some(t) = shadows[slot].first() {
                batch.push(t.clone());
            }
        }
        for t in &batch {
            if !shadows[slot].contains(t) {
                shadows[slot].push(t.clone());
            }
        }
        assert!(session.append_rows(table, batch));
    } else if !shadows[slot].is_empty() {
        let at = rng.below(shadows[slot].len() as u64) as usize;
        let victim = shadows[slot].remove(at);
        assert!(session.delete_rows(table, &[victim]));
    }
}

/// A join shape of the interleaving suite: its name, its tables, its
/// query per join kind, and the base of its random seeds.
type Shape = (
    &'static str,
    &'static [&'static str],
    fn(usize) -> Query,
    u64,
);

const KINDS: [&str; 5] = ["inner", "leftouter", "fullouter", "semi", "anti"];

#[test]
fn random_interleavings_stay_bit_identical_to_reexecution() {
    // A bare pair, and three-relation nests in which a delta reaches
    // the outer join through the inner join below it.
    let shapes: [Shape; 3] = [
        ("L k R", &["L", "R"], joined, 0xF0),
        ("(L ⋈ M) k R", &["L", "M", "R"], |k| nested(k, true), 0x3F8),
        ("L k (M ⋈ R)", &["L", "M", "R"], |k| nested(k, false), 0x3F0),
    ];
    for (shape, names, query, seed) in shapes {
        for (kind, kind_name) in KINDS.iter().enumerate() {
            for (mode, cfg) in [
                ("materializing", ExecConfig::default().materializing()),
                ("pipelined", ExecConfig::default().pipelined()),
            ] {
                let db = SharedDb::new();
                let session = db.session().with_exec_config(cfg);
                let mut rng = Lcg::new(seed + kind as u64);
                let mut shadows = seed_tables(&session, &mut rng, names, 12);

                let q = query(kind);
                let reg = session.register_standing(&q).unwrap();
                let case = format!("{shape}/{kind_name}/{mode}");
                assert!(!reg.shared, "{case}: first registration");
                assert!(
                    db.standing_info(reg.id).unwrap().incremental,
                    "{case}: delta-maintained"
                );

                let mut next_pay = 1_000;
                for step in 0..40 {
                    mutate_randomly(&session, &mut rng, names, &mut shadows, &mut next_pay);

                    let (view, _) = session.poll_standing(reg.id).unwrap();
                    let cold = session.prepare(&q).unwrap().run().unwrap();
                    // A pair must match exactly; a nest may be
                    // re-planned in another join order.
                    let want = if names.len() == 2 {
                        canonical(&cold)
                    } else {
                        aligned(&cold, &view)
                    };
                    assert_eq!(view, want, "{case}: view diverged at step {step}");
                }
                // Every mutation was folded in as a delta: only the
                // registration materialized the view.
                assert_eq!(session.maintenance_stats().views_refreshed, 1, "{case}");
            }
        }
    }
}

#[test]
fn nested_view_seeded_from_a_pooled_side_is_then_maintained() {
    const NAMES: [&str; 3] = ["L", "M", "R"];
    for (kind, kind_name) in KINDS.iter().enumerate() {
        let db = SharedDb::new();
        let session = db.session();
        let mut rng = Lcg::new(0x5EED + kind as u64);
        let mut shadows = seed_tables(&session, &mut rng, &NAMES, 10);

        // The prefix pools its R build side; the nest `(L ⋈ M) k R`
        // builds on the same R side (as the outer join's right input,
        // or the inner one's once reassociated), initializes from the
        // pool instead of rebuilding, and then maintains deltas.
        let prefix = Query::rel("M").join(Query::rel("R"), Pred::eq_attr("M.kM", "R.kR"));
        let q = nested(kind, true);
        let first = session.register_standing(&prefix).unwrap();
        let second = session.register_standing(&q).unwrap();
        assert_ne!(first.id, second.id);
        assert_eq!(
            db.standing_counters().build_sides_reused,
            1,
            "{kind_name}: the nest reused the prefix's pooled side"
        );

        let mut next_pay = 1_000;
        for step in 0..40 {
            mutate_randomly(&session, &mut rng, &NAMES, &mut shadows, &mut next_pay);
            for (reg, query) in [(first, &prefix), (second, &q)] {
                let (view, _) = session.poll_standing(reg.id).unwrap();
                let cold = session.prepare(query).unwrap().run().unwrap();
                assert_eq!(
                    view,
                    aligned(&cold, &view),
                    "{kind_name}/{}: diverged at step {step}",
                    reg.id
                );
            }
        }
        assert_eq!(
            session.maintenance_stats().views_refreshed,
            2,
            "{kind_name}: only the two registrations materialized"
        );
    }
}

#[test]
fn outerjoin_null_rows_retract_when_the_last_match_dies() {
    for kind in [1, 2] {
        // left outer, full outer
        let db = SharedDb::new();
        let session = db.session();
        session.insert_table(
            "L",
            Relation::from_ints("L", &["kL", "pL"], &[&[1, 10], &[2, 20]]),
        );
        session.insert_table("R", Relation::from_ints("R", &["kR", "pR"], &[&[1, 91]]));
        let q = joined(kind);
        let reg = session.register_standing(&q).unwrap();

        let padded = |view: &Relation| {
            view.rows()
                .iter()
                .filter(|t| t.values()[2..].iter().all(|v| *v == Value::Null))
                .count()
        };

        let (view, _) = session.poll_standing(reg.id).unwrap();
        // L.k=2 has no partner: exactly one null-padded row.
        assert_eq!(padded(&view), 1, "kind {kind}: baseline padding");

        // Kill L.k=1's only partner: its padded row must APPEAR…
        assert!(session.delete_rows("R", &[int_row(&[1, 91])]));
        let (view, _) = session.poll_standing(reg.id).unwrap();
        assert_eq!(
            padded(&view),
            2,
            "kind {kind}: padding after last match died"
        );

        // …and a returning match must retract it again.
        assert!(session.append_rows("R", vec![int_row(&[1, 91])]));
        let (view, _) = session.poll_standing(reg.id).unwrap();
        assert_eq!(
            padded(&view),
            1,
            "kind {kind}: padding after match returned"
        );

        // Each poll was served incrementally, never by re-running the
        // plan: only the registration itself counted as a refresh.
        assert_eq!(
            session.maintenance_stats().views_refreshed,
            1,
            "kind {kind}"
        );
    }
}

#[test]
fn empty_and_all_null_inputs_never_fabricate_matches() {
    for (kind, kind_name) in KINDS.iter().enumerate() {
        let db = SharedDb::new();
        let session = db.session();
        // Empty left, all-null-key right.
        session.insert_table("L", Relation::from_ints("L", &["kL", "pL"], &[]));
        session.insert_table(
            "R",
            Relation::from_values("R", &["kR", "pR"], vec![null_key_row(7).values().to_vec()]),
        );
        let q = joined(kind);
        let reg = session.register_standing(&q).unwrap();

        // Null keys never join; appends of null-key rows on either
        // side flow through the delta path without inventing matches.
        assert!(session.append_rows("L", vec![null_key_row(1), null_key_row(2)]));
        assert!(session.append_rows("R", vec![null_key_row(8)]));
        let (view, _) = session.poll_standing(reg.id).unwrap();
        let cold = session.prepare(&q).unwrap().run().unwrap();
        assert_eq!(view, canonical(&cold), "kind {kind_name}");

        // Deleting back to empty also matches re-execution.
        assert!(session.delete_rows("L", &[null_key_row(1), null_key_row(2)]));
        let (view, _) = session.poll_standing(reg.id).unwrap();
        let cold = session.prepare(&q).unwrap().run().unwrap();
        assert_eq!(view, canonical(&cold), "kind {kind_name} after delete");
    }
}

#[test]
fn alpha_equivalent_registrations_share_one_view_across_sessions() {
    let db = SharedDb::new();
    let a = db.session();
    a.insert_table("R1", Relation::from_ints("R1", &["k1"], &[&[0], &[1]]));
    a.insert_table("R2", Relation::from_ints("R2", &["k2"], &[&[0], &[2]]));
    a.insert_table("R3", Relation::from_ints("R3", &["k3"], &[&[0], &[3]]));
    let p12 = Pred::eq_attr("R1.k1", "R2.k2");
    let p23 = Pred::eq_attr("R2.k2", "R3.k3");
    let left_assoc = Query::rel("R1")
        .join(Query::rel("R2"), p12.clone())
        .join(Query::rel("R3"), p23.clone());
    let right_assoc = Query::rel("R1").join(Query::rel("R2").join(Query::rel("R3"), p23), p12);

    let first = a.register_standing(&left_assoc).unwrap();
    let b = db.session();
    let second = b.register_standing(&right_assoc).unwrap();

    // Theorem 1: one query graph, one signature, ONE materialization.
    assert_eq!(first.id, second.id);
    assert!(!first.shared);
    assert!(second.shared);
    let info = db.standing_info(first.id).unwrap();
    assert_eq!(info.subscribers, 2);
    assert_eq!(db.standing_counters().registered, 1);
    assert_eq!(db.standing_counters().shared_hits, 1);

    // Both subscribers observe maintenance driven from either handle.
    assert!(b.append_rows("R3", vec![int_row(&[2])]));
    let (va, _) = a.poll_standing(first.id).unwrap();
    let (vb, _) = b.poll_standing(second.id).unwrap();
    assert_eq!(va, vb);
    let cold = a.prepare(&left_assoc).unwrap().run().unwrap();
    assert_eq!(va, canonical(&cold));
}

#[test]
fn concurrent_appends_from_many_handles_converge_and_counters_sum() {
    for threads in [1usize, 2, 8] {
        let db = SharedDb::new();
        let setup = db.session();
        let mut rng = Lcg::new(threads as u64);
        seed_tables(&setup, &mut rng, &["L", "R"], 8);
        let q = joined(1); // left outer: padding makes divergence loud
        let reg = setup.register_standing(&q).unwrap();

        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let db = Arc::clone(&db);
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    let session = db.session();
                    let mut rng = Lcg::new((t as u64) << 7 | 3);
                    barrier.wait();
                    for i in 0..12 {
                        let table = if rng.below(2) == 0 { "L" } else { "R" };
                        // Unique payload per (thread, step): every row
                        // is novel, so each lands in exactly one delta.
                        let pay = 10_000 + (t * 1_000 + i) as i64;
                        assert!(
                            session.append_rows(table, vec![int_row(&[rng.below(9) as i64, pay])])
                        );
                        if i % 4 == 3 {
                            let (view, _) = session.poll_standing(reg.id).unwrap();
                            assert!(view.schema().attrs().len() == 4);
                        }
                    }
                    session.local_maintenance_stats()
                })
            })
            .collect();
        let locals: Vec<ExecStats> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        // Quiesced: the view equals a cold re-execution of the final
        // state, whatever the interleaving was.
        let (view, _) = setup.poll_standing(reg.id).unwrap();
        let cold = setup.prepare(&q).unwrap().run().unwrap();
        assert_eq!(view, canonical(&cold), "{threads} threads");

        // Per-handle maintenance counters sum to the shared totals.
        let mut sum = setup.local_maintenance_stats();
        for l in &locals {
            sum.merge(l);
        }
        let total = setup.maintenance_stats();
        assert_eq!(sum.delta_rows_in, total.delta_rows_in, "{threads} threads");
        assert_eq!(
            sum.delta_rows_out, total.delta_rows_out,
            "{threads} threads"
        );
        assert_eq!(
            sum.views_refreshed, total.views_refreshed,
            "{threads} threads"
        );
    }
}

#[test]
fn maintenance_work_is_proportional_to_the_delta_not_the_base() {
    let db = SharedDb::new();
    let session = db.session();
    const BASE: i64 = 4_000;
    let l_rows: Vec<Vec<i64>> = (0..BASE).map(|i| vec![i % 97, i]).collect();
    let r_rows: Vec<Vec<i64>> = (0..BASE).map(|i| vec![i % 97, i + BASE]).collect();
    let l_refs: Vec<&[i64]> = l_rows.iter().map(Vec::as_slice).collect();
    let r_refs: Vec<&[i64]> = r_rows.iter().map(Vec::as_slice).collect();
    session.insert_table("L", Relation::from_ints("L", &["kL", "pL"], &l_refs));
    session.insert_table("R", Relation::from_ints("R", &["kR", "pR"], &r_refs));

    let q = joined(0);
    let reg = session.register_standing(&q).unwrap();
    let before = session.maintenance_stats();

    // One appended row: the delta the pipeline ingests must be O(1)
    // per node — nowhere near the 4000-row base.
    assert!(session.append_rows("L", vec![int_row(&[5, 900_000])]));
    let (_, _) = session.poll_standing(reg.id).unwrap();
    let after = session.maintenance_stats();
    let ingested = after.delta_rows_in - before.delta_rows_in;
    assert!(ingested >= 1, "the delta actually flowed");
    assert!(
        ingested < BASE as u64 / 10,
        "delta_rows_in {ingested} looks O(base), not O(delta)"
    );
    assert_eq!(
        after.views_refreshed, before.views_refreshed,
        "the append was absorbed incrementally, not by re-running"
    );
}
