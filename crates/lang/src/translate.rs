//! §5.2: expressing UnNest and Link with outerjoins.
//!
//! Each From-item step introduces a fresh derived relation and one
//! directed outerjoin edge toward it:
//!
//! * `A*F`  ⇒ relation `A_F(@owner, F)` and edge
//!   `A → A_F` labeled `NestedIn ≡ (A.@id = A_F.@owner)`;
//! * `A-->F` ⇒ relation `A_F` (a fresh copy of `F`'s target entity
//!   type) and edge `A → A_F` labeled
//!   `LinkedTo ≡ (A.@F = A_F.@id)`.
//!
//! Where-List equalities between base aliases become undirected join
//! edges; literal comparisons become restrictions (applied after the
//! block, per §4's "restrictions after all outerjoins" discipline —
//! they only reference base aliases, which are never null-supplied).
//!
//! The §5.3 observation is then checked, not assumed: the resulting
//! graph must be nice with strong predicates, i.e. *freely
//! reorderable*, so the evaluator may pick any implementing tree.
//!
//! The walk reads type schemas only ([`translate_shape`]): each alias
//! comes back as a [`Ground`] spec, and [`translate`] materializes the
//! specs' rows afterwards. By Theorem 1 the graph is the block's
//! identity, so a caller whose ground tables are already loaded plans
//! from the shape alone and never touches an instance.

use crate::ast::{PathOp, QueryBlock, Rhs};
use crate::error::LangError;
use crate::model::{EntityDb, FieldType, Ground};
use fro_algebra::{Database, Interner, Pred, Scalar, Schema};
use fro_core::reorder::{analyze_graph, Analysis, Policy};
use fro_graph::QueryGraph;
use std::collections::BTreeMap;

/// The output of translating one query block.
#[derive(Debug, Clone)]
pub struct TranslatedBlock {
    /// The join/outerjoin query graph of the block.
    pub graph: QueryGraph,
    /// Ground relations (bases and derived), keyed by alias.
    pub database: Database,
    /// Post-block restrictions (literal comparisons and same-alias
    /// conditions from the Where-List).
    pub restrictions: Vec<Pred>,
    /// The Theorem 1 analysis (always freely reorderable per §5.3).
    pub analysis: Analysis,
    /// Aliases introduced as From-item bases (joinable in WHERE).
    pub base_aliases: Vec<String>,
    /// Aliases introduced by `*`/`-->` (not mentionable in WHERE).
    pub derived_aliases: Vec<String>,
    /// Name ↔ id resolution for the block's relations and attributes,
    /// built exactly once here, where the query enters the system.
    /// `RelId(i)` is graph node `i`, so downstream bitset work needs
    /// no further name lookups.
    pub interner: Interner,
}

/// The instance-free part of a translation ([`translate_shape`]): every
/// [`TranslatedBlock`] field but the ground rows, plus the spec each
/// alias's relation is read from.
#[derive(Debug, Clone)]
pub struct BlockShape {
    /// The join/outerjoin query graph of the block.
    pub graph: QueryGraph,
    /// Post-block restrictions, as in [`TranslatedBlock`].
    pub restrictions: Vec<Pred>,
    /// The Theorem 1 analysis (always freely reorderable per §5.3).
    pub analysis: Analysis,
    /// Aliases introduced as From-item bases.
    pub base_aliases: Vec<String>,
    /// Aliases introduced by `*`/`-->`.
    pub derived_aliases: Vec<String>,
    /// Name ↔ id resolution, built from the type schemas.
    pub interner: Interner,
    /// One ground spec per alias, in graph-node order.
    pub grounds: Vec<(String, Ground)>,
}

/// A relation accumulated while walking one From-item: its alias and,
/// when it is an entity relation, its type (UnNest results carry no
/// further fields).
struct Accumulated {
    alias: String,
    entity_type: Option<String>,
}

/// Translate a parsed block against an entity database: the
/// [`translate_shape`] walk, then each alias's relation materialized
/// from its [`Ground`] spec.
///
/// # Errors
/// Any [`LangError`] from name resolution, the §5.1 Where-List
/// restriction, or (defensively) a failed §5.3 check.
pub fn translate(block: &QueryBlock, edb: &EntityDb) -> Result<TranslatedBlock, LangError> {
    let BlockShape {
        graph,
        restrictions,
        analysis,
        base_aliases,
        derived_aliases,
        interner,
        grounds,
    } = translate_shape(block, edb)?;
    let mut database = Database::new();
    for (alias, ground) in grounds {
        let rel = ground.materialize(edb, &alias)?;
        database.insert_named(alias, rel);
    }
    Ok(TranslatedBlock {
        graph,
        database,
        restrictions,
        analysis,
        base_aliases,
        derived_aliases,
        interner,
    })
}

/// The §5.2 translation from type schemas alone: graph, restrictions,
/// §5.3 analysis, alias lists and interner, plus one [`Ground`] spec
/// per alias. No entity instance is read, so the cost is O(query)
/// whatever the size of the model.
///
/// # Errors
/// As [`translate`].
pub fn translate_shape(block: &QueryBlock, edb: &EntityDb) -> Result<BlockShape, LangError> {
    let mut grounds: Vec<(String, Ground)> = Vec::new();
    let mut interner = Interner::new();
    let mut base_aliases = Vec::new();
    let mut derived_aliases = Vec::new();
    // alias -> (attr names available), for WHERE validation.
    let mut base_attrs: BTreeMap<String, Vec<String>> = BTreeMap::new();
    // Edges gathered before graph construction.
    struct OjEdge {
        from: String,
        to: String,
        pred: Pred,
    }
    let mut oj_edges: Vec<OjEdge> = Vec::new();

    // Claim an alias for a ground relation: reject a duplicate, resolve
    // the relation's scheme, and intern it. Claim order is graph-node
    // order, so relation ids and node ids coincide; attributes resolve
    // to (rel, column) here and never again.
    let mut claim = |alias: &str, ground: Ground| -> Result<Schema, LangError> {
        if grounds.iter().any(|(a, _)| a == alias) {
            return Err(LangError::DuplicateAlias(alias.to_owned()));
        }
        let schema = ground.schema(edb, alias)?;
        interner.register_relation(alias, &schema);
        grounds.push((alias.to_owned(), ground));
        Ok(schema)
    };

    for item in &block.from {
        let ty = edb
            .entity_type(&item.base)
            .ok_or_else(|| LangError::UnknownType(item.base.clone()))?;
        let ground = Ground::Base {
            ty: ty.name.clone(),
        };
        let schema = claim(&item.alias, ground)?;
        base_aliases.push(item.alias.clone());
        base_attrs.insert(
            item.alias.clone(),
            schema.attrs().iter().map(|a| a.name().to_owned()).collect(),
        );

        let mut acc = vec![Accumulated {
            alias: item.alias.clone(),
            entity_type: Some(ty.name.clone()),
        }];

        for op in &item.ops {
            let (field, want_set) = match op {
                PathOp::UnNest(f) => (f, true),
                PathOp::Link(f) => (f, false),
            };
            // Resolve the owner among accumulated entity relations.
            let mut owners: Vec<(&Accumulated, &FieldType)> = Vec::new();
            for a in &acc {
                if let Some(tname) = &a.entity_type {
                    if let Some(ft) = edb.entity_type(tname).and_then(|t| t.field(field)) {
                        owners.push((a, ft));
                    }
                }
            }
            if owners.is_empty() {
                return Err(LangError::UnknownField {
                    field: field.clone(),
                    item: item.alias.clone(),
                });
            }
            if owners.len() > 1 {
                return Err(LangError::AmbiguousField(field.clone()));
            }
            let (owner, ftype) = owners.pop().expect("exactly one");
            let owner_alias = owner.alias.clone();
            let owner_type = owner.entity_type.clone().expect("entity owner");
            let derived_alias = format!("{owner_alias}_{field}");

            match (ftype, want_set) {
                (FieldType::SetValued, true) => {
                    let ground = Ground::UnNest {
                        ty: owner_type,
                        field: field.clone(),
                    };
                    claim(&derived_alias, ground)?;
                    derived_aliases.push(derived_alias.clone());
                    // NestedIn(@r, @value): owner.@id = derived.@owner.
                    oj_edges.push(OjEdge {
                        from: owner_alias,
                        to: derived_alias.clone(),
                        pred: Pred::eq_attr(
                            &format!("{}.@id", owner.alias),
                            &format!("{derived_alias}.@owner"),
                        ),
                    });
                    acc.push(Accumulated {
                        alias: derived_alias,
                        entity_type: None,
                    });
                }
                (FieldType::EntityRef(target), false) => {
                    claim(&derived_alias, Ground::Base { ty: target.clone() })?;
                    derived_aliases.push(derived_alias.clone());
                    // LinkedTo(@r, @value): owner.@F = derived.@id.
                    oj_edges.push(OjEdge {
                        from: owner_alias.clone(),
                        to: derived_alias.clone(),
                        pred: Pred::eq_attr(
                            &format!("{owner_alias}.@{field}"),
                            &format!("{derived_alias}.@id"),
                        ),
                    });
                    acc.push(Accumulated {
                        alias: derived_alias,
                        entity_type: Some(target.clone()),
                    });
                }
                (FieldType::SetValued | FieldType::Scalar, false) => {
                    return Err(LangError::WrongFieldKind {
                        field: field.clone(),
                        expected: "entity-valued (only `-->` traverses references)",
                    })
                }
                (_, true) => {
                    return Err(LangError::WrongFieldKind {
                        field: field.clone(),
                        expected: "set-valued (only `*` unnests a set)",
                    })
                }
            }
        }
    }

    // Where-List.
    let mut join_conds: Vec<(String, String, Pred)> = Vec::new();
    let mut restrictions: Vec<Pred> = Vec::new();
    for cond in &block.conds {
        let pred_of = |alias: &str, attr: &str| -> Result<Scalar, LangError> {
            if derived_aliases.iter().any(|d| d == alias) {
                return Err(LangError::RestrictionOnDerived(format!("{alias}.{attr}")));
            }
            let attrs = base_attrs
                .get(alias)
                .ok_or_else(|| LangError::UnknownAttr(format!("{alias}.{attr}")))?;
            if !attrs.iter().any(|a| a == attr) {
                return Err(LangError::UnknownAttr(format!("{alias}.{attr}")));
            }
            Ok(Scalar::attr(&format!("{alias}.{attr}")))
        };
        let lhs = pred_of(&cond.alias, &cond.attr)?;
        match &cond.rhs {
            Rhs::Attr(alias2, attr2) => {
                let rhs = pred_of(alias2, attr2)?;
                let p = Pred::cmp(cond.op, lhs, rhs);
                if cond.alias == *alias2 {
                    restrictions.push(p);
                } else {
                    join_conds.push((cond.alias.clone(), alias2.clone(), p));
                }
            }
            Rhs::Lit(v) => {
                restrictions.push(Pred::cmp(cond.op, lhs, Scalar::Lit(v.clone())));
            }
        }
    }

    // Assemble the graph.
    let mut graph = QueryGraph::new(grounds.iter().map(|(a, _)| a.clone()).collect());
    for (a, b, p) in join_conds {
        let ia = graph.node_id(&a).expect("alias registered");
        let ib = graph.node_id(&b).expect("alias registered");
        graph
            .add_join_edge(ia, ib, p)
            .map_err(|e| LangError::Parse(e.to_string()))?;
    }
    for e in oj_edges {
        let ia = graph.node_id(&e.from).expect("alias registered");
        let ib = graph.node_id(&e.to).expect("alias registered");
        graph
            .add_outerjoin_edge(ia, ib, e.pred)
            .map_err(|e| LangError::Parse(e.to_string()))?;
    }

    if !graph.is_connected() {
        return Err(LangError::Disconnected);
    }

    // §5.3: every block is freely reorderable. Verified, not assumed.
    let analysis = analyze_graph(&graph, Policy::Paper);
    if !analysis.is_freely_reorderable() {
        return Err(LangError::NotReorderable(analysis.to_string()));
    }

    Ok(BlockShape {
        graph,
        restrictions,
        analysis,
        base_aliases,
        derived_aliases,
        interner,
        grounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::paper_world;
    use crate::parser::parse;
    use fro_graph::EdgeKind;

    fn tb(src: &str) -> TranslatedBlock {
        translate(&parse(src).unwrap(), &paper_world()).unwrap()
    }

    #[test]
    fn queretaro_block_builds_expected_graph() {
        let t = tb("Select All From EMPLOYEE*ChildName, DEPARTMENT \
             Where EMPLOYEE.D# = DEPARTMENT.D# and DEPARTMENT.Location = 'Queretaro'");
        assert_eq!(t.graph.n_nodes(), 3); // EMPLOYEE, EMPLOYEE_ChildName, DEPARTMENT
        let oj: Vec<_> = t
            .graph
            .edges()
            .iter()
            .filter(|e| e.kind() == EdgeKind::OuterJoin)
            .collect();
        assert_eq!(oj.len(), 1);
        assert_eq!(t.graph.node_name(oj[0].b()), "EMPLOYEE_ChildName");
        assert_eq!(t.restrictions.len(), 1);
        assert!(t.analysis.is_freely_reorderable());
    }

    #[test]
    fn zurich_block_chains_links() {
        let t =
            tb("Select All From DEPARTMENT-->Manager-->Audit Where DEPARTMENT.Location = 'Zurich'");
        // DEPARTMENT, DEPARTMENT_Manager (EMPLOYEE copy),
        // DEPARTMENT_Audit (REPORT copy). Both links resolve to
        // DEPARTMENT fields, so both edges leave DEPARTMENT.
        assert_eq!(t.graph.n_nodes(), 3);
        let oj_out_of_dept = t
            .graph
            .edges()
            .iter()
            .filter(|e| e.kind() == EdgeKind::OuterJoin && t.graph.node_name(e.a()) == "DEPARTMENT")
            .count();
        assert_eq!(oj_out_of_dept, 2);
        assert_eq!(t.derived_aliases.len(), 2);
    }

    #[test]
    fn where_on_derived_rejected() {
        let e = translate(
            &parse(
                "Select All From EMPLOYEE*ChildName \
                 Where EMPLOYEE_ChildName.ChildName = 'Luz'",
            )
            .unwrap(),
            &paper_world(),
        );
        assert!(matches!(e, Err(LangError::RestrictionOnDerived(_))));
    }

    #[test]
    fn unknown_names_rejected() {
        let w = paper_world();
        assert!(matches!(
            translate(&parse("Select All From GHOST").unwrap(), &w),
            Err(LangError::UnknownType(_))
        ));
        assert!(matches!(
            translate(&parse("Select All From EMPLOYEE*Ghost").unwrap(), &w),
            Err(LangError::UnknownField { .. })
        ));
        assert!(matches!(
            translate(
                &parse("Select All From EMPLOYEE Where EMPLOYEE.Ghost = 1").unwrap(),
                &w
            ),
            Err(LangError::UnknownAttr(_))
        ));
        assert!(matches!(
            translate(
                &parse("Select All From EMPLOYEE Where GHOST.x = 1").unwrap(),
                &w
            ),
            Err(LangError::UnknownAttr(_))
        ));
    }

    #[test]
    fn wrong_step_kinds_rejected() {
        let w = paper_world();
        assert!(matches!(
            translate(&parse("Select All From EMPLOYEE-->ChildName").unwrap(), &w),
            Err(LangError::WrongFieldKind { .. })
        ));
        assert!(matches!(
            translate(&parse("Select All From DEPARTMENT*Manager").unwrap(), &w),
            Err(LangError::WrongFieldKind { .. })
        ));
    }

    #[test]
    fn duplicate_alias_rejected_and_alias_resolves() {
        let w = paper_world();
        assert!(matches!(
            translate(&parse("Select All From EMPLOYEE, EMPLOYEE").unwrap(), &w),
            Err(LangError::DuplicateAlias(_))
        ));
        let t = translate(
            &parse("Select All From EMPLOYEE AS E, EMPLOYEE AS M Where E.D# = M.D#").unwrap(),
            &w,
        )
        .unwrap();
        assert_eq!(t.graph.n_nodes(), 2);
    }

    #[test]
    fn disconnected_block_rejected() {
        let e = translate(
            &parse("Select All From EMPLOYEE, DEPARTMENT").unwrap(),
            &paper_world(),
        );
        assert!(matches!(e, Err(LangError::Disconnected)));
    }

    #[test]
    fn same_alias_condition_is_a_restriction() {
        let t =
            tb("Select All From EMPLOYEE Where EMPLOYEE.Rank > 10 and EMPLOYEE.D# = EMPLOYEE.Rank");
        assert_eq!(t.restrictions.len(), 2);
        assert_eq!(t.graph.edges().len(), 0);
    }

    #[test]
    fn interner_ids_align_with_graph_nodes() {
        let t = tb("Select All From EMPLOYEE*ChildName, DEPARTMENT \
             Where EMPLOYEE.D# = DEPARTMENT.D#");
        assert_eq!(t.interner.n_rels(), t.graph.n_nodes());
        for i in 0..t.graph.n_nodes() {
            let name = t.graph.node_name(i);
            let id = t.interner.rel_id(name).expect("alias interned");
            assert_eq!(id.index(), i, "RelId must equal graph node id");
            // Every attribute of the alias resolved to a column.
            let rel = t.database.get(name).unwrap();
            for a in rel.schema().attrs() {
                assert!(t.interner.attr_id(a).is_some(), "unresolved {a}");
            }
        }
    }

    #[test]
    fn shape_needs_only_type_schemas() {
        let block = parse(
            "Select All From EMPLOYEE*ChildName, DEPARTMENT-->Manager-->Audit \
             Where EMPLOYEE.D# = DEPARTMENT.D#",
        )
        .unwrap();
        let world = paper_world();
        let full = translate(&block, &world).unwrap();
        // The same types without a single instance.
        let mut bare = EntityDb::new();
        for name in ["EMPLOYEE", "DEPARTMENT", "REPORT"] {
            let ty = world.entity_type(name).unwrap();
            let fields = ty.fields.iter().map(|(f, t)| (f.as_str(), t.clone()));
            bare.declare(name, fields.collect());
        }
        let shape = translate_shape(&block, &bare).unwrap();
        assert_eq!(format!("{:?}", shape.graph), format!("{:?}", full.graph));
        assert_eq!(shape.restrictions, full.restrictions);
        assert_eq!(shape.grounds.len(), full.graph.n_nodes());
        for (i, (alias, ground)) in shape.grounds.iter().enumerate() {
            assert_eq!(full.graph.node_name(i), alias);
            assert_eq!(shape.interner.rel_id(alias).unwrap().index(), i);
            let stored = full.database.get(alias).unwrap();
            assert_eq!(&ground.materialize(&world, alias).unwrap(), stored);
            assert_eq!(&ground.schema(&bare, alias).unwrap(), &**stored.schema());
        }
    }

    #[test]
    fn all_blocks_freely_reorderable_surrogate_preds_strong() {
        let t = tb(
            "Select All From EMPLOYEE*ChildName, DEPARTMENT-->Manager-->Audit \
             Where EMPLOYEE.D# = DEPARTMENT.D#",
        );
        assert!(t.analysis.is_freely_reorderable());
        for e in t.graph.edges() {
            if e.kind() == EdgeKind::OuterJoin {
                assert!(e.pred().is_strong_on_rel(t.graph.node_name(e.a())));
                assert!(e.pred().is_strong_on_rel(t.graph.node_name(e.b())));
            }
        }
    }
}
