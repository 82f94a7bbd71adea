//! The interned pipeline (dense `RelId`/`AttrId`, `RelSet` bitsets)
//! must be observationally identical to the name-keyed compatibility
//! shims it replaced: same split decisions, same plans (to the
//! `explain()` string), same results, same `ExecStats`, and
//! insertion-order-independent — plus diagnosable storage misses.
//!
//! The name-keyed side of every oracle pair is `#[doc(hidden)]`: it is
//! also `lower`'s fallback past `RelSet::MAX_MEMBERS` relations, so it
//! is always compiled and these oracles always run.

use fro_algebra::{Pred, RelSet};
use fro_core::optimizer::{
    dp_optimize, lower, lower_by_name, split_equi, split_equi_by_name, RelMap,
};
use fro_core::{Catalog, Policy};
use fro_exec::{execute, ExecError, ExecStats, PhysPlan, Storage};
use fro_testkit::{db_for_graph, random_implementing_tree, random_nice_graph, GraphSpec};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn spec(core: usize, oj: usize) -> GraphSpec {
    GraphSpec {
        core,
        oj_nodes: oj,
        extra_core_edges: 1,
        strong: true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bitset predicate splitting answers exactly like the
    /// `BTreeSet<String>` shim on every 2-partition of a random graph.
    #[test]
    fn split_equi_matches_name_keyed_shim(
        core in 1usize..5,
        oj in 0usize..3,
        gseed in 0u64..10_000,
        cut in 1u64..u64::MAX,
    ) {
        let g = random_nice_graph(&spec(core, oj), gseed);
        let n = g.n_nodes();
        let catalog = Catalog::new();
        let relmap = RelMap::from_graph(&g, &catalog);
        let full = RelSet::full(n);
        let left = RelSet::from_bits(cut & full.bits());
        prop_assume!(!left.is_empty() && left != full);
        let right = full.minus(left);

        // The conjunction of every crossing edge predicate.
        let crossing = Pred::from_conjuncts(g.edges().iter().filter_map(|e| {
            let cross = (left.contains(e.a()) && right.contains(e.b()))
                || (left.contains(e.b()) && right.contains(e.a()));
            cross.then(|| e.pred().clone())
        }));

        let (pairs, residual) = split_equi(&crossing, left, right, &relmap);
        let lnames: BTreeSet<String> =
            left.iter().map(|i| g.node_name(i).to_owned()).collect();
        let rnames: BTreeSet<String> =
            right.iter().map(|i| g.node_name(i).to_owned()).collect();
        let (pairs_n, residual_n) = split_equi_by_name(&crossing, &lnames, &rnames);
        prop_assert_eq!(pairs, pairs_n);
        prop_assert_eq!(residual, residual_n);
    }

    /// The interned lowering path builds the same plan as the
    /// name-keyed walk on every random implementing tree, and both run
    /// to identical relations with identical `ExecStats`.
    #[test]
    fn interned_lowering_matches_name_keyed(
        core in 1usize..4,
        oj in 0usize..3,
        gseed in 0u64..10_000,
        tseed in 0u64..10_000,
        dseed in 0u64..10_000,
        rows in 1usize..8,
    ) {
        let g = random_nice_graph(&spec(core, oj), gseed);
        let q = random_implementing_tree(&g, tseed).expect("connected");
        let db = db_for_graph(&g, rows, 4, 0.1, dseed);
        let mut storage = Storage::from_database(&db);
        for name in g.node_names() {
            storage.create_index(name, &[fro_algebra::Attr::new(name, "k")]);
        }
        let catalog = Catalog::from_storage(&storage);

        let interned = lower(&q, &catalog).expect("interned lowering");
        let named = lower_by_name(&q, &catalog).expect("name-keyed lowering");
        prop_assert_eq!(interned.explain(), named.explain(), "plans diverged");

        let mut st_a = ExecStats::new();
        let a = execute(&interned, &storage, &mut st_a).expect("interned runs");
        let mut st_b = ExecStats::new();
        let b = execute(&named, &storage, &mut st_b).expect("named runs");
        prop_assert_eq!(a.rows(), b.rows(), "results diverged");
        prop_assert_eq!(st_a, st_b, "stats diverged");
        prop_assert!(a.set_eq(&q.eval(&db).expect("reference")));
    }

    /// Interning is insertion-order independent: loading the same
    /// tables in reverse order changes every dense id, but plans,
    /// results, and stats are unchanged.
    #[test]
    fn plans_independent_of_interning_order(
        core in 2usize..5,
        gseed in 0u64..10_000,
        dseed in 0u64..10_000,
        rows in 1usize..8,
    ) {
        let g = random_nice_graph(&spec(core, 1), gseed);
        let db = db_for_graph(&g, rows, 4, 0.1, dseed);
        let mut fwd = Storage::new();
        let mut rev = Storage::new();
        let names: Vec<&str> = g.node_names().iter().map(String::as_str).collect();
        for &name in &names {
            fwd.insert(name, db.get(name).unwrap().clone());
        }
        for &name in names.iter().rev() {
            rev.insert(name, db.get(name).unwrap().clone());
        }
        prop_assume!(fwd.rel_id(names[0]) != rev.rel_id(names[0]) || names.len() == 1);

        let plan_f = dp_optimize(&g, &Catalog::from_storage(&fwd)).expect("dp fwd");
        let plan_r = dp_optimize(&g, &Catalog::from_storage(&rev)).expect("dp rev");
        prop_assert_eq!(plan_f.plan.explain(), plan_r.plan.explain());
        prop_assert_eq!(plan_f.pairs_examined, plan_r.pairs_examined);

        let mut st_f = ExecStats::new();
        let a = execute(&plan_f.plan, &fwd, &mut st_f).expect("runs fwd");
        let mut st_r = ExecStats::new();
        let b = execute(&plan_r.plan, &rev, &mut st_r).expect("runs rev");
        prop_assert_eq!(a.rows(), b.rows());
        prop_assert_eq!(st_f, st_r);
    }
}

/// The full `optimize()` entry point agrees with the reference
/// evaluator through a storage → database → storage round trip.
#[test]
fn optimize_survives_storage_roundtrip() {
    let g = random_nice_graph(&spec(3, 2), 17);
    let q = random_implementing_tree(&g, 5).expect("connected");
    let db = db_for_graph(&g, 6, 4, 0.1, 17);
    let storage = Storage::from_database(&db);
    let round = Storage::from_database(&storage.to_database());
    let reference = q.eval(&db).expect("reference");
    for s in [&storage, &round] {
        let cat = Catalog::from_storage(s);
        let out = fro_core::optimize(&q, &cat, Policy::Paper).expect("optimizes");
        let mut st = ExecStats::new();
        let got = out.run(s, &mut st).expect("runs");
        assert!(got.set_eq(&reference));
    }
}

/// A plan referencing an unknown table fails with the unknown name and
/// a nearest-name suggestion, not a bare miss.
#[test]
fn unknown_table_reports_suggestion() {
    let g = random_nice_graph(&spec(2, 0), 3);
    let db = db_for_graph(&g, 3, 4, 0.0, 3);
    let storage = Storage::from_database(&db);
    let mut st = ExecStats::new();
    let err = execute(&PhysPlan::scan("R00"), &storage, &mut st).unwrap_err();
    match err {
        ExecError::UnknownTable { name, suggestion } => {
            assert_eq!(name, "R00");
            assert_eq!(suggestion.as_deref(), Some("R0"));
        }
        other => panic!("expected UnknownTable, got {other:?}"),
    }
    // A hopelessly distant name gets no suggestion.
    let err = execute(&PhysPlan::scan("zzzzzzzzzz"), &storage, &mut st).unwrap_err();
    match err {
        ExecError::UnknownTable { suggestion, .. } => assert_eq!(suggestion, None),
        other => panic!("expected UnknownTable, got {other:?}"),
    }
}
