//! `wave-spec`: web application specifications for the wave verifier.
//!
//! The [`model`] mirrors the paper's Section 2.1 notion of a Web site
//! specification (page schemas with input option, state, action and target
//! rules over a database/state schema); the [`dsl`] parses the textual
//! format; [`compiled`] turns a validated spec into schemas and prepared
//! plans; [`dataflow`] implements the Section 3.2 potential-comparison
//! analysis that powers the core- and extension-pruning heuristics.

pub mod compiled;
pub mod dataflow;
pub mod dsl;
pub mod model;

pub use compiled::{
    sections, spec_kinds, CompileSpecError, CompiledComponent, CompiledPage, CompiledRule,
    CompiledSpec, CompiledTarget, IbReport, PageId, ReadProfile, RuleExec, TargetExec,
};
pub use dataflow::{analyze, Dataflow, InputSrc, OptVar, Pos};
pub use dsl::{parse_spec, print_spec};
pub use model::{
    ActionRule, InputDecl, OptionRule, PageSchema, Spec, SpecError, StateRule, TargetRule,
};
