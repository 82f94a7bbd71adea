//! # fro-lang — a language that generates freely-reorderable queries
//!
//! §5 of the paper reconstructs J. Bauer's unpublished SQL extension:
//! two operators in the From-List over entity data,
//!
//! * **UnNest / Flatten** `R*Field` — unnest a set-valued attribute;
//!   an entity with `n > 0` elements yields `n` tuples, an entity with
//!   an empty set yields one tuple with a null `Field`;
//! * **Link via** `R-->Field` — complete each tuple with the entity
//!   its entity-valued `Field` references, concatenating nulls when
//!   the reference is null.
//!
//! Both translate to **outerjoins** with the surrogate predicates
//! `NestedIn(@r, @value)` / `LinkedTo(@r, @value)` (§5.2).
//! Because every derived relation is a fresh tuple variable that is
//! null-supplied by exactly one outerjoin edge, can never acquire a
//! join edge (the Where-List may not mention it), and the surrogate
//! predicates are strong equalities, *every query block satisfies
//! Theorem 1* — the §5.3 observation, which this crate re-checks on
//! every translation and the test-suite asserts can never fail.
//!
//! Pipeline: [`parse()`], then [`translate()`] (ground relations + query
//! graph + restrictions, with the Theorem 1 analysis attached; its
//! instance-free half is [`translate_shape()`], which names each ground
//! relation by a [`Ground`] spec instead of reading its rows), then
//! [`run::plan_query()`] — pick any implementing tree, they are all
//! equivalent, and evaluate — or hand the graph to `fro-core`'s
//! optimizer (the `fro::Session` front door does the latter).

//! ## Example
//!
//! Parse and translate, then evaluate any implementing tree (the
//! `fro::Session` front door does this — plus optimization and plan
//! caching — in one call):
//!
//! ```
//! use fro_lang::{model::paper_world, parse, run::plan_query, translate};
//!
//! let block = parse(
//!     "Select All From DEPARTMENT-->Manager Where DEPARTMENT.Location = 'Zurich'",
//! )
//! .unwrap();
//! let t = translate(&block, &paper_world()).unwrap();
//! let out = plan_query(&t).unwrap().eval(&t.database).unwrap();
//! assert_eq!(out.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod model;
pub mod parser;
pub mod run;
pub mod translate;

pub use ast::{FromItem, PathOp, QueryBlock, Rhs, WhereCond};
pub use error::LangError;
pub use model::{EntityDb, EntityType, FieldType, FieldValue, Ground};
pub use parser::parse;
pub use run::plan_query;
pub use translate::{translate, translate_shape, BlockShape, TranslatedBlock};
