//! Property tests for the §5 language: *every* well-formed query block
//! the grammar can produce over the paper's entity world translates to
//! a freely-reorderable graph whose implementing trees all agree —
//! §5.3 with the quantifier made real.

use fro_lang::model::paper_world;
use fro_lang::{parse, translate, LangError};
use fro_testkit::workloads::{block_source, synthetic_entity_world};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_wellformed_block_is_freely_reorderable(
        emp_steps in proptest::collection::vec(0usize..4, 0..2),
        dept_steps in proptest::collection::vec(0usize..4, 0..3),
        rank in proptest::option::of(0i64..20),
        loc in proptest::option::of(any::<bool>()),
        world_seed in 0u64..50,
    ) {
        let src = block_source(&emp_steps, &dept_steps, true, rank, loc);
        let world = if world_seed % 2 == 0 {
            paper_world()
        } else {
            synthetic_entity_world(4, 3, world_seed)
        };
        let block = parse(&src).expect("generated source parses");
        match translate(&block, &world) {
            Ok(t) => {
                // §5.3: always freely reorderable.
                prop_assert!(t.analysis.is_freely_reorderable(), "{src}");
                // All implementing trees agree (restrictions applied on
                // top of each).
                let trees = fro_trees::enumerate_trees(
                    &t.graph,
                    fro_trees::EnumLimit { max_trees: 5_000 },
                )
                .expect("connected");
                let results: Vec<_> = trees
                    .iter()
                    .map(|q| {
                        let q = t
                            .restrictions
                            .iter()
                            .fold(q.clone(), |acc, r| acc.restrict(r.clone()));
                        q.eval(&t.database).expect("eval")
                    })
                    .collect();
                prop_assert!(fro_testkit::all_set_eq(&results), "{src}");
            }
            // Repeated steps may collide on aliases (e.g. *ChildName
            // twice) or pick an entity-less path — fine, but it must be
            // a *clean* error, never a panic or a wrong result.
            Err(
                LangError::DuplicateAlias(_)
                | LangError::UnknownField { .. }
                | LangError::AmbiguousField(_)
                | LangError::WrongFieldKind { .. },
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error {other} for {src}"),
        }
    }

    /// Evaluating the planned block equals evaluating *any*
    /// implementing tree with the restrictions applied — the reference
    /// path never depends on tree choice.
    #[test]
    fn run_is_tree_choice_independent(
        dept_steps in proptest::collection::vec(0usize..3, 1..3),
        world_seed in 0u64..20,
    ) {
        let src = block_source(&[], &dept_steps, true, None, None);
        let world = synthetic_entity_world(3, 2, world_seed);
        let block = parse(&src).expect("parses");
        let Ok(t) = translate(&block, &world) else { return; };
        let via_run = fro_lang::plan_query(&t)
            .expect("plans")
            .eval(&t.database)
            .expect("runs");
        let trees =
            fro_trees::enumerate_trees(&t.graph, fro_trees::EnumLimit::default()).unwrap();
        for tree in trees.iter().take(5) {
            let q = t
                .restrictions
                .iter()
                .fold(tree.clone(), |acc, r| acc.restrict(r.clone()));
            prop_assert!(q.eval(&t.database).unwrap().set_eq(&via_run), "{src}");
        }
    }
}
