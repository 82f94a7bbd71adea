//! The nested / entity data model of §5.1.
//!
//! Tuples ("entities") have identity, repeating (set-valued) fields,
//! and entity-valued fields. This module stores entity instances and
//! materializes the *ground relations* the §5.2 translation needs:
//!
//! * a base relation per alias, with a surrogate `@id` column, one
//!   column per scalar field, and a surrogate `@Field` column per
//!   entity-valued field (null when the reference is null);
//! * a `ValueOfField`-style relation per unnested set field, with
//!   columns `(@owner, Field)` — one row per element of each entity's
//!   set. The paper's abstract `NestedIn(@r, @value)` predicate
//!   becomes the strong equality `alias.@id = derived.@owner`;
//!   `LinkedTo(@r, @value)` becomes `alias.@Field = derived.@id`.

use crate::error::LangError;
use fro_algebra::{Relation, Schema, Value};
use std::collections::BTreeMap;

/// Kinds of entity fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldType {
    /// A single atomic value.
    Scalar,
    /// A set of atomic values (UnNest's domain).
    SetValued,
    /// A reference to an entity of the named type (Link's domain).
    EntityRef(String),
}

/// An entity-type declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntityType {
    /// Type name (also the default relation alias).
    pub name: String,
    /// Field declarations, in order.
    pub fields: Vec<(String, FieldType)>,
}

impl EntityType {
    /// Field type by name.
    #[must_use]
    pub fn field(&self, name: &str) -> Option<&FieldType> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }
}

/// A field value on an instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    /// A scalar (possibly null).
    Scalar(Value),
    /// A set of values.
    Set(Vec<Value>),
    /// An entity reference (by per-type id), or null.
    Ref(Option<u64>),
}

/// One entity instance: per-type id plus field values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entity {
    /// Identity within its type (the paper's `@` object identifier).
    pub id: u64,
    /// Field assignments (missing fields read as null/empty).
    pub values: BTreeMap<String, FieldValue>,
}

/// A database of entity types and instances.
#[derive(Debug, Clone, Default)]
pub struct EntityDb {
    types: BTreeMap<String, EntityType>,
    instances: BTreeMap<String, Vec<Entity>>,
}

impl EntityDb {
    /// Empty database.
    #[must_use]
    pub fn new() -> EntityDb {
        EntityDb::default()
    }

    /// Declare an entity type.
    pub fn declare(&mut self, name: &str, fields: Vec<(&str, FieldType)>) -> &mut Self {
        self.types.insert(
            name.to_owned(),
            EntityType {
                name: name.to_owned(),
                fields: fields.into_iter().map(|(n, t)| (n.to_owned(), t)).collect(),
            },
        );
        self.instances.entry(name.to_owned()).or_default();
        self
    }

    /// Insert an instance; its id is its insertion position.
    ///
    /// # Panics
    /// If the type was not declared.
    pub fn insert(&mut self, type_name: &str, values: Vec<(&str, FieldValue)>) -> u64 {
        assert!(
            self.types.contains_key(type_name),
            "type `{type_name}` not declared"
        );
        let list = self.instances.get_mut(type_name).expect("declared");
        let id = list.len() as u64;
        list.push(Entity {
            id,
            values: values.into_iter().map(|(n, v)| (n.to_owned(), v)).collect(),
        });
        id
    }

    /// Look up a type.
    #[must_use]
    pub fn entity_type(&self, name: &str) -> Option<&EntityType> {
        self.types.get(name)
    }

    /// Instances of a type.
    #[must_use]
    pub fn instances(&self, name: &str) -> &[Entity] {
        self.instances.get(name).map_or(&[], Vec::as_slice)
    }

    /// Materialize the base ground relation of `type_name` under the
    /// qualifier `alias`: columns `@id`, each scalar field, and `@F`
    /// for each entity-valued field `F`. Set-valued fields have no
    /// base column (they live in the derived relation).
    ///
    /// # Errors
    /// [`LangError::UnknownType`] when undeclared.
    pub fn base_relation(&self, type_name: &str, alias: &str) -> Result<Relation, LangError> {
        Ground::Base {
            ty: type_name.to_owned(),
        }
        .materialize(self, alias)
    }

    /// Materialize the unnest relation for set field `field` of
    /// `type_name`, under qualifier `alias`: columns `(@owner, field)`,
    /// one row per set element (empty sets contribute no rows — the
    /// outerjoin supplies their null).
    ///
    /// # Errors
    /// [`LangError`] for unknown types/fields or non-set fields.
    pub fn unnest_relation(
        &self,
        type_name: &str,
        field: &str,
        alias: &str,
    ) -> Result<Relation, LangError> {
        Ground::UnNest {
            ty: type_name.to_owned(),
            field: field.to_owned(),
        }
        .materialize(self, alias)
    }

    /// The columns of `ground`'s relation in stored order — the one
    /// place column names and order are decided, read by both the
    /// schema-only path ([`Ground::schema`]) and materialization.
    fn columns<'a>(&'a self, ground: &'a Ground) -> Result<Vec<Column<'a>>, LangError> {
        let ty = ground.entity_type();
        let ty = self
            .types
            .get(ty)
            .ok_or_else(|| LangError::UnknownType(ty.to_owned()))?;
        match ground {
            Ground::Base { .. } => {
                let mut cols = vec![Column::Id];
                for (fname, ftype) in &ty.fields {
                    match ftype {
                        FieldType::Scalar => cols.push(Column::Scalar(fname)),
                        FieldType::EntityRef(_) => cols.push(Column::Ref(fname)),
                        FieldType::SetValued => {}
                    }
                }
                Ok(cols)
            }
            Ground::UnNest { field, .. } => match ty.field(field) {
                Some(FieldType::SetValued) => Ok(vec![Column::Owner, Column::Element(field)]),
                Some(_) => Err(LangError::WrongFieldKind {
                    field: field.clone(),
                    expected: "set-valued",
                }),
                None => Err(LangError::UnknownField {
                    field: field.clone(),
                    item: ty.name.clone(),
                }),
            },
        }
    }
}

/// The ground relation one alias of a §5.2 translation stands for,
/// as a spec over the model's type schemas: its columns are known
/// without reading an instance, its rows only when
/// [`Ground::materialize`] reads them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Ground {
    /// The base relation of an entity type (a From-item base or a
    /// `-->` link target).
    Base {
        /// The entity type.
        ty: String,
    },
    /// The unnest relation of a set-valued field (a `*` step).
    UnNest {
        /// The owning entity type.
        ty: String,
        /// The set-valued field.
        field: String,
    },
}

impl Ground {
    /// The entity type whose instances feed this relation.
    fn entity_type(&self) -> &str {
        match self {
            Ground::Base { ty } | Ground::UnNest { ty, .. } => ty,
        }
    }

    /// The relation's scheme under qualifier `alias`, from the type
    /// schemas alone.
    ///
    /// # Errors
    /// [`LangError`] for unknown types/fields or non-set fields.
    pub(crate) fn schema(&self, edb: &EntityDb, alias: &str) -> Result<Schema, LangError> {
        let names: Vec<String> = edb.columns(self)?.iter().map(Column::name).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        Ok(Schema::of_relation(alias, &names))
    }

    /// Read the relation's rows from `edb`, under qualifier `alias`.
    /// A base relation has one row per instance; an unnest relation
    /// one row per set element, so an empty set contributes none.
    ///
    /// # Errors
    /// [`LangError`] for unknown types/fields or non-set fields.
    pub fn materialize(&self, edb: &EntityDb, alias: &str) -> Result<Relation, LangError> {
        let cols = edb.columns(self)?;
        let row = |e: &Entity, element: Option<&Value>| -> Vec<Value> {
            cols.iter().map(|c| c.value(e, element)).collect()
        };
        let entities = edb.instances(self.entity_type());
        let rows: Vec<Vec<Value>> = match self {
            Ground::Base { .. } => entities.iter().map(|e| row(e, None)).collect(),
            Ground::UnNest { field, .. } => entities
                .iter()
                .flat_map(|e| {
                    let items = match e.values.get(field) {
                        Some(FieldValue::Set(items)) => items.as_slice(),
                        _ => &[],
                    };
                    items.iter().map(move |v| row(e, Some(v)))
                })
                .collect(),
        };
        let names: Vec<String> = cols.iter().map(Column::name).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        Ok(Relation::from_values(alias, &names, rows))
    }
}

/// One column of a ground relation and the entity data it reads.
enum Column<'a> {
    /// The surrogate `@id` of a base relation.
    Id,
    /// A scalar field, null when unset.
    Scalar(&'a str),
    /// `@F` for entity-valued field `F`: the referenced id, or null.
    Ref(&'a str),
    /// The surrogate `@owner` of an unnest relation.
    Owner,
    /// The set element of an unnest relation, named after its field.
    Element(&'a str),
}

impl Column<'_> {
    fn name(&self) -> String {
        match self {
            Column::Id => "@id".to_owned(),
            Column::Owner => "@owner".to_owned(),
            Column::Scalar(f) | Column::Element(f) => (*f).to_owned(),
            Column::Ref(f) => format!("@{f}"),
        }
    }

    /// This column's value on entity `e` (and, in an unnest relation,
    /// on one `element` of its set).
    fn value(&self, e: &Entity, element: Option<&Value>) -> Value {
        match self {
            Column::Id | Column::Owner => Value::Int(e.id as i64),
            Column::Scalar(f) => match e.values.get(*f) {
                Some(FieldValue::Scalar(v)) => v.clone(),
                _ => Value::Null,
            },
            Column::Ref(f) => match e.values.get(*f) {
                Some(FieldValue::Ref(Some(id))) => Value::Int(*id as i64),
                _ => Value::Null,
            },
            Column::Element(_) => element.cloned().unwrap_or(Value::Null),
        }
    }
}

/// A small world modeled directly on the paper's §5 examples:
/// `EMPLOYEE` (scalar `Name`, `D#`, `Rank`; set `ChildName`),
/// `DEPARTMENT` (scalar `D#`, `Location`; refs `Manager`, `Secretary`
/// to `EMPLOYEE`, `Audit` to `REPORT`), `REPORT` (scalar `Title`,
/// `Findings`).
#[must_use]
pub fn paper_world() -> EntityDb {
    let mut db = EntityDb::new();
    db.declare(
        "EMPLOYEE",
        vec![
            ("Name", FieldType::Scalar),
            ("D#", FieldType::Scalar),
            ("Rank", FieldType::Scalar),
            ("ChildName", FieldType::SetValued),
        ],
    );
    db.declare(
        "DEPARTMENT",
        vec![
            ("D#", FieldType::Scalar),
            ("Location", FieldType::Scalar),
            ("Manager", FieldType::EntityRef("EMPLOYEE".into())),
            ("Secretary", FieldType::EntityRef("EMPLOYEE".into())),
            ("Audit", FieldType::EntityRef("REPORT".into())),
        ],
    );
    db.declare(
        "REPORT",
        vec![
            ("Title", FieldType::Scalar),
            ("Findings", FieldType::Scalar),
        ],
    );

    let e0 = db.insert(
        "EMPLOYEE",
        vec![
            ("Name", FieldValue::Scalar(Value::str("Ana"))),
            ("D#", FieldValue::Scalar(Value::Int(1))),
            ("Rank", FieldValue::Scalar(Value::Int(12))),
            (
                "ChildName",
                FieldValue::Set(vec![Value::str("Luz"), Value::str("Rio")]),
            ),
        ],
    );
    let e1 = db.insert(
        "EMPLOYEE",
        vec![
            ("Name", FieldValue::Scalar(Value::str("Ben"))),
            ("D#", FieldValue::Scalar(Value::Int(1))),
            ("Rank", FieldValue::Scalar(Value::Int(3))),
            ("ChildName", FieldValue::Set(vec![])),
        ],
    );
    let e2 = db.insert(
        "EMPLOYEE",
        vec![
            ("Name", FieldValue::Scalar(Value::str("Cy"))),
            ("D#", FieldValue::Scalar(Value::Int(2))),
            ("Rank", FieldValue::Scalar(Value::Int(11))),
            ("ChildName", FieldValue::Set(vec![Value::str("Max")])),
        ],
    );
    let r0 = db.insert(
        "REPORT",
        vec![
            ("Title", FieldValue::Scalar(Value::str("FY89"))),
            ("Findings", FieldValue::Scalar(Value::str("clean"))),
        ],
    );
    db.insert(
        "DEPARTMENT",
        vec![
            ("D#", FieldValue::Scalar(Value::Int(1))),
            ("Location", FieldValue::Scalar(Value::str("Queretaro"))),
            ("Manager", FieldValue::Ref(Some(e0))),
            ("Secretary", FieldValue::Ref(Some(e1))),
            ("Audit", FieldValue::Ref(Some(r0))),
        ],
    );
    db.insert(
        "DEPARTMENT",
        vec![
            ("D#", FieldValue::Scalar(Value::Int(2))),
            ("Location", FieldValue::Scalar(Value::str("Zurich"))),
            ("Manager", FieldValue::Ref(Some(e2))),
            ("Secretary", FieldValue::Ref(None)),
            ("Audit", FieldValue::Ref(None)),
        ],
    );
    // A department with no employees at all (the motivating example).
    db.insert(
        "DEPARTMENT",
        vec![
            ("D#", FieldValue::Scalar(Value::Int(3))),
            ("Location", FieldValue::Scalar(Value::str("Queretaro"))),
            ("Manager", FieldValue::Ref(None)),
            ("Secretary", FieldValue::Ref(None)),
            ("Audit", FieldValue::Ref(None)),
        ],
    );
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use fro_algebra::Attr;

    #[test]
    fn base_relation_has_surrogates() {
        let db = paper_world();
        let dept = db.base_relation("DEPARTMENT", "DEPARTMENT").unwrap();
        assert_eq!(dept.len(), 3);
        let s = dept.schema();
        assert!(s.contains(&Attr::new("DEPARTMENT", "@id")));
        assert!(s.contains(&Attr::new("DEPARTMENT", "@Manager")));
        assert!(s.contains(&Attr::new("DEPARTMENT", "Location")));
        // Set-valued fields never materialize on the base.
        let emp = db.base_relation("EMPLOYEE", "E").unwrap();
        assert!(!emp.schema().contains(&Attr::new("E", "ChildName")));
    }

    #[test]
    fn null_refs_are_null_surrogates() {
        let db = paper_world();
        let dept = db.base_relation("DEPARTMENT", "D").unwrap();
        let mgr_col = dept.schema().index_of(&Attr::new("D", "@Manager")).unwrap();
        let nulls = dept
            .rows()
            .iter()
            .filter(|t| t.get(mgr_col).is_null())
            .count();
        assert_eq!(nulls, 1);
    }

    #[test]
    fn unnest_relation_one_row_per_element() {
        let db = paper_world();
        let kids = db.unnest_relation("EMPLOYEE", "ChildName", "E_Ch").unwrap();
        assert_eq!(kids.len(), 3); // Luz, Rio, Max; Ben's empty set absent
        assert!(kids.schema().contains(&Attr::new("E_Ch", "@owner")));
        assert!(kids.schema().contains(&Attr::new("E_Ch", "ChildName")));
    }

    #[test]
    fn unnest_rejects_wrong_kinds() {
        let db = paper_world();
        assert!(matches!(
            db.unnest_relation("EMPLOYEE", "Name", "x"),
            Err(LangError::WrongFieldKind { .. })
        ));
        assert!(matches!(
            db.unnest_relation("EMPLOYEE", "Nope", "x"),
            Err(LangError::UnknownField { .. })
        ));
        assert!(matches!(
            db.unnest_relation("GHOST", "f", "x"),
            Err(LangError::UnknownType(_))
        ));
    }

    #[test]
    fn entity_type_lookup() {
        let db = paper_world();
        let t = db.entity_type("DEPARTMENT").unwrap();
        assert!(matches!(t.field("Manager"), Some(FieldType::EntityRef(n)) if n == "EMPLOYEE"));
        assert!(t.field("Ghost").is_none());
        assert_eq!(db.instances("EMPLOYEE").len(), 3);
        assert!(db.instances("GHOST").is_empty());
    }
}
