//! Property suite for §5 text queries over one shared database.
//!
//! Two sessions with different entity models — the paper's world and a
//! synthetic one — share a single `SharedDb`, so the stored ground
//! tables (one per alias) keep changing under each of them. Random
//! interleavings mix:
//!
//! * text queries from either session, including `AS` aliases that
//!   name different entity types from query to query (`E` is an
//!   `EMPLOYEE` in one block and a `DEPARTMENT` in the next);
//! * `insert_table` over a ground alias;
//! * `append_rows` / `delete_rows` on a ground table;
//! * raw `SharedDb::mutate` calls, one replacing the whole storage and
//!   one changing nothing.
//!
//! Every query result must be set-equal to the reference evaluator run
//! on the querying session's own model (`plan_query(&translate(..))`),
//! and every translation error must surface unchanged: the model stays
//! the source of truth whatever happened to the stored tables.

use fro::lang::model::paper_world;
use fro::lang::{parse, plan_query, translate, EntityDb, LangError};
use fro::prelude::*;
use fro_testkit::workloads::{block_source, synthetic_entity_world};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every table name a generated block can use as an alias.
const GROUND_TABLES: [&str; 12] = [
    "EMPLOYEE",
    "DEPARTMENT",
    "EMPLOYEE_ChildName",
    "DEPARTMENT_Manager",
    "DEPARTMENT_Secretary",
    "DEPARTMENT_Audit",
    "E",
    "D",
    "X",
    "E_ChildName",
    "E_Manager",
    "D_Manager",
];

/// The reference result of `src` on `edb`, or its translation error.
fn reference(src: &str, edb: &EntityDb) -> Result<Relation, LangError> {
    let t = translate(&parse(src)?, edb)?;
    Ok(plan_query(&t)?
        .eval(&t.database)
        .expect("reference evaluates"))
}

/// Rename `base`'s From-item to `alias`, in the From-List and in the
/// Where-List.
fn aliased(src: &str, base: &str, alias: &str) -> String {
    let (from, conds) = src.split_once(" Where ").unwrap_or((src, ""));
    let from = from.replacen(&format!(" {base}"), &format!(" {base} AS {alias}"), 1);
    if conds.is_empty() {
        return from;
    }
    let conds = conds.replace(&format!("{base}."), &format!("{alias}."));
    format!("{from} Where {conds}")
}

/// A random block: `block_source`'s grammar, with each base sometimes
/// renamed. `E` may name either base, so the table `E` switches entity
/// types between blocks (and two `E`s in one block are a clean
/// duplicate-alias error).
fn random_source(rng: &mut StdRng) -> String {
    let mut steps = |max_len: usize| -> Vec<usize> {
        let n = rng.gen_range(0..=max_len);
        (0..n).map(|_| rng.gen_range(0..4usize)).collect()
    };
    let emp = steps(1);
    let dept = steps(2);
    let rank = rng.gen_bool(0.5).then(|| rng.gen_range(0..20i64));
    let loc = rng.gen_bool(0.5).then(|| rng.gen_bool(0.5));
    let mut src = block_source(&emp, &dept, rng.gen_bool(0.9), rank, loc);
    if rng.gen_bool(0.5) {
        src = aliased(&src, "EMPLOYEE", ["E", "X"][rng.gen_range(0..2usize)]);
    }
    if rng.gen_bool(0.5) {
        src = aliased(&src, "DEPARTMENT", ["E", "D"][rng.gen_range(0..2usize)]);
    }
    src
}

/// Run `src` through `session` and hold it to the reference on `edb`.
fn check_query(session: &Session, edb: &EntityDb, src: &str) {
    match (session.query(src), reference(src, edb)) {
        (Ok(prepared), Ok(want)) => {
            let got = prepared.run().expect("runs");
            assert!(
                got.set_eq(&want),
                "{src}: {} rows, reference {}",
                got.len(),
                want.len()
            );
        }
        (Err(FroError::Lang(got)), Err(want)) => assert_eq!(got, want, "{src}"),
        (got, want) => panic!("{src}: session {got:?}, reference {want:?}"),
    }
}

/// The stored relation named `name`, if any.
fn stored(db: &SharedDb, name: &str) -> Option<Relation> {
    let state = db.snapshot();
    let storage = state.storage();
    let id = storage.rel_id(name)?;
    Some(storage.get_by_id(id)?.relation().clone())
}

/// One random write to the shared database behind the sessions' backs.
fn random_write(db: &SharedDb, rng: &mut StdRng, step: i64) {
    let name = GROUND_TABLES[rng.gen_range(0..GROUND_TABLES.len())];
    let table = stored(db, name);
    match rng.gen_range(0..5u32) {
        // Replace the table: drop its first row, or swap in a foreign
        // scheme when there is nothing to drop.
        0 => {
            let rel = match table {
                Some(t) if !t.is_empty() => {
                    Relation::from_distinct_rows(t.schema().clone(), t.rows()[1..].to_vec())
                }
                _ => Relation::from_ints(name, &["junk"], &[&[step]]),
            };
            db.insert_table(name, rel);
        }
        // Append a copy of a stored row under a fresh surrogate.
        1 => {
            if let Some(row) = table.and_then(|t| t.rows().first().cloned()) {
                let mut values = row.values().to_vec();
                values[0] = Value::Int(1_000 + step);
                assert!(db.append_rows(name, vec![Tuple::new(values)]));
            }
        }
        // Delete a stored row.
        2 => {
            if let Some(t) = table.filter(|t| !t.is_empty()) {
                let victim = t.rows()[rng.gen_range(0..t.len())].clone();
                assert!(db.delete_rows(name, &[victim]));
            }
        }
        // Replace the whole storage: one junk ground table, nothing
        // else.
        3 => db.mutate(|catalog, storage| {
            let mut fresh = Storage::new();
            fresh.insert(name, Relation::from_ints(name, &["junk"], &[&[step]]));
            *catalog = Catalog::from_storage(&fresh);
            *storage = fresh;
        }),
        // A raw mutation that changes nothing still moves the
        // generation.
        _ => db.mutate(|_, _| {}),
    }
}

/// One interleaving of `steps` operations from `seed`.
fn interleave(seed: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let paper = paper_world();
    let synthetic = synthetic_entity_world(4, 3, seed);
    let db = SharedDb::new();
    let a = db.session().with_entity_db(paper.clone());
    let b = db.session().with_entity_db(synthetic.clone());
    // A clone shares its model with `a`.
    let a2 = a.clone();
    for step in 0..steps {
        if rng.gen_bool(0.6) {
            let src = random_source(&mut rng);
            match rng.gen_range(0..3u32) {
                0 => check_query(&a, &paper, &src),
                1 => check_query(&a2, &paper, &src),
                _ => check_query(&b, &synthetic, &src),
            }
        } else {
            random_write(&db, &mut rng, step as i64);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_interleavings_match_each_models_reference(seed in 0u64..1_000_000) {
        interleave(seed, 40);
    }
}

#[test]
fn one_alias_over_two_entity_types_and_two_models() {
    let paper = paper_world();
    let synthetic = synthetic_entity_world(4, 3, 11);
    let db = SharedDb::new();
    let a = db.session().with_entity_db(paper.clone());
    let b = db.session().with_entity_db(synthetic.clone());
    let emp = "Select All From EMPLOYEE AS E*ChildName, DEPARTMENT \
               Where E.D# = DEPARTMENT.D#";
    let dept = "Select All From DEPARTMENT AS E-->Manager Where E.Location = 'Zurich'";
    for _ in 0..3 {
        for (session, edb) in [(&a, &paper), (&b, &synthetic)] {
            check_query(session, edb, emp);
            check_query(session, edb, dept);
        }
    }
    // Both sources, repeated on one session, keep matching too.
    for _ in 0..3 {
        check_query(&a, &paper, dept);
        check_query(&a, &paper, dept);
        check_query(&a, &paper, emp);
    }
}
