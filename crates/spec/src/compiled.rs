//! Compilation of a validated [`Spec`] into executable form.
//!
//! [`CompiledSpec`] owns everything the verifier needs per session:
//!
//! * the working [`Schema`] covering database, state, action and input
//!   relations, the previous-input shadow relations (`prev$R`), and the
//!   nullary page markers (`page$V`) used to evaluate `@V` tests,
//! * the [`SymbolTable`] with all specification constants interned
//!   (the paper's `C_W`), plus a sentinel for unbound input fields,
//! * per page, each rule compiled to a parameterized prepared plan via the
//!   Section-4 input-quantifier elimination — or kept as an interpreted
//!   formula when the body falls outside the safe-range fragment,
//! * the input-boundedness verdict that decides whether verification is
//!   complete or the tool runs in incomplete mode.

use crate::model::{Spec, SpecError};
use std::collections::HashMap;
use std::sync::Arc;
use wave_fol::{
    check_input_bounded, check_option_rule, compile_bool, compile_query,
    eliminate_input_quantifiers, free_vars, prev_shadow_name, CompileCtx, CompileError, Formula,
    IbViolation, OptionRuleViolation, RelKinds, SlotMap,
};
use wave_relalg::{Instance, Params, PreparedQuery, RelId, RelKind, Schema, SymbolTable, Value};

/// Dense page identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u32);

impl PageId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Bit flags naming the pseudoconfiguration sections a compiled query
/// can read. The verifier's delta-driven memo keys a cached result on
/// the epochs of exactly these sections — everything else a query
/// touches (the per-core base database, the interned constants) is
/// fixed for the lifetime of one search.
pub mod sections {
    /// Extension tuples layered over the base database relations.
    pub const EXT: u8 = 1 << 0;
    /// The current step's input choice (also the source of value/empty
    /// parameter slots).
    pub const INPUT: u8 = 1 << 1;
    /// The previous step's inputs (`prev$R` shadows).
    pub const PREV: u8 = 1 << 2;
    /// State relations.
    pub const STATE: u8 = 1 << 3;
    /// Action relations.
    pub const ACTIONS: u8 = 1 << 4;
    /// The nullary `page$V` markers (i.e. the configuration's page).
    pub const PAGE: u8 = 1 << 5;
    /// Every section — the conservative profile for interpreted rules.
    pub const ALL: u8 = (1 << 6) - 1;
    /// Number of distinct section bits.
    pub const COUNT: usize = 6;
}

/// A query's identity and read-set for the delta-driven memo: a dense id
/// (unique across all rules and targets of one spec, and past them the
/// property components of one check) plus a bitmask over [`sections`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadProfile {
    /// Dense query id: `0..CompiledSpec::num_queries` for rules and
    /// targets, `num_queries + i` for a check's `i`-th FO component.
    pub qid: u32,
    /// Which sections the query's result depends on.
    pub mask: u8,
}

impl ReadProfile {
    /// Conservative placeholder until the compile post-pass assigns the
    /// real profile.
    fn unassigned() -> Self {
        ReadProfile { qid: 0, mask: sections::ALL }
    }
}

/// How a rule body is executed at each step.
#[derive(Debug, Clone)]
pub enum RuleExec {
    /// Compiled to a parameterized plan (the prepared-statement path).
    Plan(PreparedQuery),
    /// Direct evaluation of the original body (fallback; also the baseline
    /// for the query-evaluation ablation benchmark).
    Interp,
}

/// A compiled rule with head relation and variables.
#[derive(Debug, Clone)]
pub struct CompiledRule {
    pub head: RelId,
    pub head_vars: Vec<String>,
    /// Original body (used by the interpreter and analyses).
    pub body: Formula,
    pub exec: RuleExec,
    /// For state rules: insertion (`true`) or deletion.
    pub insert: bool,
    /// Query id and section read-set (assigned by the compile post-pass).
    pub reads: ReadProfile,
}

/// A compiled target rule.
#[derive(Debug, Clone)]
pub struct CompiledTarget {
    pub target: PageId,
    pub condition: Formula,
    pub exec: TargetExec,
    /// Query id and section read-set (assigned by the compile post-pass).
    pub reads: ReadProfile,
}

/// Execution mode of a target condition or property component (a
/// sentence).
#[derive(Debug, Clone)]
pub enum TargetExec {
    Plan(PreparedQuery),
    Interp,
}

/// An instantiated FO component of a property, compiled for the search
/// the way target conditions are (see [`CompiledSpec::compile_component`]).
#[derive(Debug, Clone)]
pub struct CompiledComponent {
    /// The instantiated sentence (what the interpreter evaluates).
    pub formula: Formula,
    pub exec: TargetExec,
    /// Query id (`num_queries + i` for component `i`) and read-set.
    pub reads: ReadProfile,
}

/// The section each relation and parameter slot of a spec reads — the
/// mapping behind every plan's [`ReadProfile`] mask.
#[derive(Debug, Clone)]
struct SectionMap {
    /// Section bit by relation id.
    rels: Vec<u8>,
    /// Section bit by parameter slot: the input (or previous-input)
    /// section its binding derives from.
    slots: Vec<u8>,
}

impl SectionMap {
    fn new(schema: &Schema, shadows: &[RelId], markers: &[RelId], slots: &SlotMap) -> SectionMap {
        let rels = (0..schema.len() as u32)
            .map(RelId)
            .map(|r| match schema.kind(r) {
                RelKind::Database if markers.contains(&r) => sections::PAGE,
                RelKind::Database => sections::EXT,
                RelKind::State => sections::STATE,
                RelKind::Action => sections::ACTIONS,
                RelKind::Input | RelKind::InputConstant if shadows.contains(&r) => sections::PREV,
                RelKind::Input | RelKind::InputConstant => sections::INPUT,
            })
            .collect();
        let slots = slots
            .slot_origins()
            .iter()
            .map(|(_, prev)| if *prev { sections::PREV } else { sections::INPUT })
            .collect();
        SectionMap { rels, slots }
    }

    /// Sections a plan's result depends on: those of the relations it
    /// scans and of the parameter slots it consults.
    fn mask(&self, q: &PreparedQuery) -> u8 {
        let reads = q.reads();
        let rels = reads.rels.iter().map(|r| self.rels[r.index()]);
        let slots = reads.value_slots.iter().chain(&reads.empty_slots).map(|&s| self.slots[s]);
        rels.chain(slots).fold(0, |mask, bit| mask | bit)
    }
}

/// A compiled page schema.
#[derive(Debug, Clone)]
pub struct CompiledPage {
    pub name: String,
    /// Input relations (including input constants) available on the page.
    pub inputs: Vec<RelId>,
    /// Option rules; head is the input relation.
    pub option_rules: Vec<CompiledRule>,
    pub state_rules: Vec<CompiledRule>,
    pub action_rules: Vec<CompiledRule>,
    pub target_rules: Vec<CompiledTarget>,
    /// The page's nullary marker relation.
    pub marker: RelId,
}

/// Why a spec is outside the complete fragment (informational; the
/// verifier still runs, as an incomplete verifier, when these are present).
#[derive(Debug, Clone)]
pub enum IbReport {
    Rule { page: String, rel: String, violation: IbViolation },
    OptionRule { page: String, input: String, violation: OptionRuleViolation },
}

/// Compilation failure.
#[derive(Debug)]
pub enum CompileSpecError {
    /// Structural validation failed.
    Invalid(Vec<SpecError>),
    /// Internal plan-compilation error that is not a safe-range fallback.
    Plan(CompileError),
}

impl std::fmt::Display for CompileSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileSpecError::Invalid(errs) => {
                writeln!(f, "specification is invalid:")?;
                for e in errs {
                    writeln!(f, "  - {e}")?;
                }
                Ok(())
            }
            CompileSpecError::Plan(e) => write!(f, "plan compilation failed: {e}"),
        }
    }
}

impl std::error::Error for CompileSpecError {}

/// Fully compiled specification.
pub struct CompiledSpec {
    pub spec: Spec,
    pub schema: Arc<Schema>,
    pub symbols: SymbolTable,
    /// Interned specification constants, `C_W`.
    pub constants: Vec<Value>,
    /// Sentinel bound to field parameters of empty inputs.
    pub none_value: Value,
    pub pages: Vec<CompiledPage>,
    pub home: PageId,
    pub slots: SlotMap,
    /// Input-boundedness violations (empty ⇒ complete verification).
    pub ib_report: Vec<IbReport>,
    /// Total number of query ids handed out (rules + targets); memo
    /// tables size their per-query storage from this plus the number of
    /// property components.
    pub num_queries: u32,
    section_map: SectionMap,
}

impl CompiledSpec {
    /// Validate and compile a specification.
    pub fn compile(spec: Spec) -> Result<CompiledSpec, CompileSpecError> {
        spec.validate().map_err(CompileSpecError::Invalid)?;

        // schema: db, state, action, inputs, prev shadows, page markers
        let mut schema = Schema::new();
        let declare = |schema: &mut Schema, name: &str, arity: usize, kind: RelKind| {
            schema.declare(name, arity, kind).expect("validated names are unique")
        };
        for (n, a) in &spec.database {
            declare(&mut schema, n, *a, RelKind::Database);
        }
        for (n, a) in &spec.states {
            declare(&mut schema, n, *a, RelKind::State);
        }
        for (n, a) in &spec.actions {
            declare(&mut schema, n, *a, RelKind::Action);
        }
        for i in &spec.inputs {
            let kind = if i.constant { RelKind::InputConstant } else { RelKind::Input };
            declare(&mut schema, &i.name, i.arity, kind);
            declare(&mut schema, &prev_shadow_name(&i.name), i.arity, kind);
        }
        let mut markers = HashMap::new();
        for p in &spec.pages {
            let id =
                declare(&mut schema, &CompileCtx::page_marker_name(&p.name), 0, RelKind::Database);
            markers.insert(p.name.clone(), id);
        }
        let schema = Arc::new(schema);

        // intern constants (C_W) and the empty-field sentinel
        let mut symbols = SymbolTable::new();
        let constants: Vec<Value> =
            spec.all_constants().iter().map(|c| symbols.constant(c)).collect();
        let none_value = symbols.fresh("$none", 0);

        let page_ids: HashMap<&str, PageId> = spec
            .pages
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.as_str(), PageId(i as u32)))
            .collect();

        let input_names: Vec<String> = spec.inputs.iter().map(|i| i.name.clone()).collect();
        let state_names: Vec<String> = spec.states.iter().map(|(n, _)| n.clone()).collect();
        let action_names: Vec<String> = spec.actions.iter().map(|(n, _)| n.clone()).collect();
        let kinds = (
            move |r: &str| input_names.iter().any(|n| n == r),
            move |r: &str| state_names.iter().any(|n| n == r),
            move |r: &str| action_names.iter().any(|n| n == r),
        );
        let mut ib_report = Vec::new();
        let mut slots = SlotMap::new();
        let mut pages = Vec::with_capacity(spec.pages.len());
        for p in &spec.pages {
            let inputs: Vec<RelId> =
                p.inputs.iter().map(|n| schema.lookup(n).expect("validated")).collect();
            let mut compile_rule =
                |head: &str, head_vars: &[String], body: &Formula, insert: bool| -> CompiledRule {
                    let rewritten = eliminate_input_quantifiers(body, &|r: &str| kinds.is_input(r));
                    let exec = {
                        let mut ctx =
                            CompileCtx { schema: &schema, symbols: &symbols, slots: &mut slots };
                        match compile_query(&rewritten, head_vars, &mut ctx) {
                            Ok(c) => match PreparedQuery::prepare(&schema, c.plan) {
                                Ok(q) => RuleExec::Plan(q),
                                Err(_) => RuleExec::Interp,
                            },
                            Err(_) => RuleExec::Interp,
                        }
                    };
                    CompiledRule {
                        head: schema.lookup(head).expect("validated"),
                        head_vars: head_vars.to_vec(),
                        body: body.clone(),
                        exec,
                        insert,
                        reads: ReadProfile::unassigned(),
                    }
                };
            let option_rules: Vec<CompiledRule> = p
                .option_rules
                .iter()
                .map(|r| {
                    if let Err(v) = check_option_rule(&r.body, &kinds) {
                        ib_report.push(IbReport::OptionRule {
                            page: p.name.clone(),
                            input: r.input.clone(),
                            violation: v,
                        });
                    }
                    compile_rule(&r.input, &r.head, &r.body, true)
                })
                .collect();
            let state_rules: Vec<CompiledRule> = p
                .state_rules
                .iter()
                .map(|r| {
                    if let Err(v) = check_input_bounded(&r.body, &kinds) {
                        ib_report.push(IbReport::Rule {
                            page: p.name.clone(),
                            rel: r.state.clone(),
                            violation: v,
                        });
                    }
                    compile_rule(&r.state, &r.head, &r.body, r.insert)
                })
                .collect();
            let action_rules: Vec<CompiledRule> = p
                .action_rules
                .iter()
                .map(|r| {
                    if let Err(v) = check_input_bounded(&r.body, &kinds) {
                        ib_report.push(IbReport::Rule {
                            page: p.name.clone(),
                            rel: r.action.clone(),
                            violation: v,
                        });
                    }
                    compile_rule(&r.action, &r.head, &r.body, true)
                })
                .collect();
            let target_rules: Vec<CompiledTarget> = p
                .target_rules
                .iter()
                .map(|r| {
                    if let Err(v) = check_input_bounded(&r.condition, &kinds) {
                        ib_report.push(IbReport::Rule {
                            page: p.name.clone(),
                            rel: format!("target {}", r.target),
                            violation: v,
                        });
                    }
                    let rewritten =
                        eliminate_input_quantifiers(&r.condition, &|x: &str| kinds.is_input(x));
                    let exec = {
                        let mut ctx =
                            CompileCtx { schema: &schema, symbols: &symbols, slots: &mut slots };
                        match compile_bool(&rewritten, &mut ctx) {
                            Ok(plan) => match PreparedQuery::prepare(&schema, plan) {
                                Ok(q) => TargetExec::Plan(q),
                                Err(_) => TargetExec::Interp,
                            },
                            Err(_) => TargetExec::Interp,
                        }
                    };
                    CompiledTarget {
                        target: page_ids[r.target.as_str()],
                        condition: r.condition.clone(),
                        exec,
                        reads: ReadProfile::unassigned(),
                    }
                })
                .collect();
            pages.push(CompiledPage {
                name: p.name.clone(),
                inputs,
                option_rules,
                state_rules,
                action_rules,
                target_rules,
                marker: markers[&p.name],
            });
        }
        let home = page_ids[spec.home.as_str()];

        // Post-pass: assign every rule/target a dense query id and
        // compute its section read-set from the plan's scans and
        // parameter slots. Interpreted rules conservatively read
        // everything (they consult the active domain too).
        let shadows: Vec<RelId> = spec
            .inputs
            .iter()
            .map(|i| schema.lookup(&prev_shadow_name(&i.name)).expect("declared above"))
            .collect();
        let markers: Vec<RelId> = markers.values().copied().collect();
        let section_map = SectionMap::new(&schema, &shadows, &markers, &slots);
        let mut num_queries = 0u32;
        for page in &mut pages {
            for r in page
                .option_rules
                .iter_mut()
                .chain(page.state_rules.iter_mut())
                .chain(page.action_rules.iter_mut())
            {
                let mask = match &r.exec {
                    RuleExec::Plan(q) => section_map.mask(q),
                    RuleExec::Interp => sections::ALL,
                };
                r.reads = ReadProfile { qid: num_queries, mask };
                num_queries += 1;
            }
            for t in page.target_rules.iter_mut() {
                let mask = match &t.exec {
                    TargetExec::Plan(q) => section_map.mask(q),
                    TargetExec::Interp => sections::ALL,
                };
                t.reads = ReadProfile { qid: num_queries, mask };
                num_queries += 1;
            }
        }

        Ok(CompiledSpec {
            spec,
            schema,
            symbols,
            constants,
            none_value,
            pages,
            home,
            slots,
            ib_report,
            num_queries,
            section_map,
        })
    }

    /// Compile an instantiated property component — a sentence whose
    /// constants are interned in the check's session table `symbols` —
    /// along the path target conditions take: input-quantifier
    /// elimination, [`compile_bool`], [`PreparedQuery::prepare`]. The
    /// component keeps the interpreter when the sentence is open, falls
    /// outside the safe-range fragment, or would need a parameter slot
    /// the spec never allocated ([`CompiledSpec::bind_params`] binds
    /// only the spec's own slots).
    pub fn compile_component(
        &self,
        formula: &Formula,
        symbols: &SymbolTable,
        qid: u32,
    ) -> CompiledComponent {
        let plan = if free_vars(formula).is_empty() {
            let kinds = self.kinds();
            let rewritten = eliminate_input_quantifiers(formula, &|r: &str| kinds.is_input(r));
            let mut slots = self.slots.clone();
            let mut ctx = CompileCtx { schema: &self.schema, symbols, slots: &mut slots };
            compile_bool(&rewritten, &mut ctx)
                .ok()
                .filter(|_| slots.len() == self.slots.len())
                .and_then(|plan| PreparedQuery::prepare(&self.schema, plan).ok())
        } else {
            None
        };
        let (exec, mask) = match plan {
            Some(q) => {
                let mask = self.section_map.mask(&q);
                (TargetExec::Plan(q), mask)
            }
            None => (TargetExec::Interp, sections::ALL),
        };
        CompiledComponent { formula: formula.clone(), exec, reads: ReadProfile { qid, mask } }
    }

    /// True when the whole specification is input-bounded (verification is
    /// complete if the property is too).
    pub fn is_input_bounded(&self) -> bool {
        self.ib_report.is_empty()
    }

    /// Page id by name.
    pub fn page_id(&self, name: &str) -> Option<PageId> {
        self.pages.iter().position(|p| p.name == name).map(|i| PageId(i as u32))
    }

    /// Page data.
    pub fn page(&self, id: PageId) -> &CompiledPage {
        &self.pages[id.index()]
    }

    /// A [`RelKinds`] oracle over this spec (for property checks).
    pub fn kinds(&self) -> impl RelKinds + '_ {
        spec_kinds(&self.spec)
    }

    /// Bind the parameter slots from the current instance: each input
    /// field slot gets the component of the input's unique tuple (or the
    /// sentinel when empty); each empty-flag slot gets the emptiness bit.
    pub fn bind_params(&self, inst: &Instance) -> Params {
        let mut params = Params::with_slots(self.slots.len());
        for ((rel, col, prev), slot) in self.slots.fields() {
            let name = if *prev { prev_shadow_name(rel) } else { rel.clone() };
            let id = self.schema.lookup(&name).expect("slots come from compiled rules");
            match inst.rel(id).only() {
                Some(t) => params.bind(slot, t.get(*col)),
                None => params.bind(slot, self.none_value),
            }
        }
        for ((rel, prev), slot) in self.slots.empties() {
            let name = if *prev { prev_shadow_name(rel) } else { rel.clone() };
            let id = self.schema.lookup(&name).expect("slots come from compiled rules");
            params.set_empty(slot, inst.rel(id).is_empty());
        }
        params
    }

    /// Count of rules compiled to plans vs interpreted (for diagnostics and
    /// the ablation benchmark).
    pub fn plan_coverage(&self) -> (usize, usize) {
        let mut plans = 0;
        let mut interp = 0;
        for p in &self.pages {
            for r in p.option_rules.iter().chain(&p.state_rules).chain(&p.action_rules) {
                match r.exec {
                    RuleExec::Plan(_) => plans += 1,
                    RuleExec::Interp => interp += 1,
                }
            }
            for t in &p.target_rules {
                match t.exec {
                    TargetExec::Plan(_) => plans += 1,
                    TargetExec::Interp => interp += 1,
                }
            }
        }
        (plans, interp)
    }
}

/// Relation-kind oracle derived from spec declarations.
pub fn spec_kinds(spec: &Spec) -> impl RelKinds + '_ {
    (
        move |r: &str| spec.inputs.iter().any(|i| i.name == r),
        move |r: &str| spec.states.iter().any(|(n, _)| n == r),
        move |r: &str| spec.actions.iter().any(|(n, _)| n == r),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::parse_spec;

    fn tiny() -> Spec {
        parse_spec(
            r#"
            spec tiny {
              database { user(n, p); }
              state { logged(u); }
              action { greet(u); }
              inputs { button(x); constant uname; constant pass; }
              home HP;
              page HP {
                inputs { button, uname, pass }
                options button(x) <- x = "login";
                insert logged(u) <- uname(u) & (exists q: pass(q) & user(u, q))
                                    & button("login");
                target CP <- exists u: uname(u) & exists q: pass(q) & user(u, q);
                target HP <- true;
              }
              page CP {
                inputs { button }
                options button(x) <- x = "logout";
                action greet(u) <- logged(u) & button("logout");
                target HP <- button("logout");
              }
            }
        "#,
        )
        .unwrap()
    }

    #[test]
    fn compiles_and_is_input_bounded() {
        let c = CompiledSpec::compile(tiny()).unwrap();
        assert!(c.is_input_bounded(), "{:?}", c.ib_report);
        assert_eq!(c.pages.len(), 2);
        assert_eq!(c.home, PageId(0));
    }

    #[test]
    fn schema_contains_shadows_and_markers() {
        let c = CompiledSpec::compile(tiny()).unwrap();
        assert!(c.schema.lookup("prev$button").is_some());
        assert!(c.schema.lookup("prev$uname").is_some());
        assert!(c.schema.lookup("page$HP").is_some());
        assert!(c.schema.lookup("page$CP").is_some());
    }

    #[test]
    fn constants_interned_in_order() {
        let c = CompiledSpec::compile(tiny()).unwrap();
        let names: Vec<String> = c.constants.iter().map(|&v| c.symbols.display(v)).collect();
        assert_eq!(names, vec!["\"login\"", "\"logout\""]);
    }

    #[test]
    fn most_rules_compile_to_plans() {
        let c = CompiledSpec::compile(tiny()).unwrap();
        let (plans, interp) = c.plan_coverage();
        assert!(plans >= 5, "expected most rules compiled, got {plans} plans / {interp} interp");
        assert_eq!(interp, 0, "tiny spec is fully within the safe-range fragment");
    }

    #[test]
    fn bind_params_uses_sentinel_for_empty_inputs() {
        let c = CompiledSpec::compile(tiny()).unwrap();
        let inst = Instance::empty(Arc::clone(&c.schema));
        // all inputs empty: every field slot must be bound (to the sentinel)
        let params = c.bind_params(&inst);
        // executing any compiled rule must not hit UnboundParam
        for p in &c.pages {
            for r in &p.option_rules {
                if let RuleExec::Plan(q) = &r.exec {
                    q.run(&inst, &params).expect("no unbound params");
                }
            }
        }
    }

    #[test]
    fn read_profiles_are_dense_and_section_accurate() {
        let c = CompiledSpec::compile(tiny()).unwrap();
        let mut qids = Vec::new();
        for p in &c.pages {
            for r in p.option_rules.iter().chain(&p.state_rules).chain(&p.action_rules) {
                qids.push(r.reads.qid);
            }
            for t in &p.target_rules {
                qids.push(t.reads.qid);
            }
        }
        qids.sort_unstable();
        assert_eq!(qids, (0..c.num_queries).collect::<Vec<_>>(), "qids dense and unique");

        let hp = c.page(c.page_id("HP").unwrap());
        // options button(x) <- x = "login": no relations, no input slots.
        assert_eq!(hp.option_rules[0].reads.mask, 0, "constant option rule reads nothing");
        // insert logged(u) <- uname(u) & (exists q: pass(q) & user(u,q)) & button("login"):
        // database scan (user) + input-bound slots, no state/prev/action reads.
        let insert = &hp.state_rules[0];
        assert_ne!(insert.reads.mask & sections::INPUT, 0, "reads input slots");
        assert_eq!(insert.reads.mask & sections::STATE, 0, "does not read state");
        assert_eq!(insert.reads.mask & sections::PREV, 0, "does not read prev inputs");
        // action greet(u) <- logged(u) & button("logout"): state + input.
        let cp = c.page(c.page_id("CP").unwrap());
        let action = &cp.action_rules[0];
        assert_ne!(action.reads.mask & sections::STATE, 0);
        assert_ne!(action.reads.mask & sections::INPUT, 0);
    }

    #[test]
    fn components_compile_like_targets_or_keep_the_interpreter() {
        let c = CompiledSpec::compile(tiny()).unwrap();
        let mut symbols = c.symbols.clone();
        symbols.constant("?0");
        let qid = c.num_queries;
        let compile =
            |src: &str| c.compile_component(&wave_fol::parse_formula(src).unwrap(), &symbols, qid);

        let page = compile("@CP");
        assert!(matches!(page.exec, TargetExec::Plan(_)));
        assert_eq!(page.reads, ReadProfile { qid, mask: sections::PAGE });
        // a ground atom over a parameter constant the spec never saw
        let state = compile(r#"logged("?0") -> (exists u: greet(u))"#);
        assert!(matches!(state.exec, TargetExec::Plan(_)));
        assert_eq!(state.reads.mask, sections::STATE | sections::ACTIONS);
        // input atoms go through the spec's own parameter slots
        let input = compile(r#"button("logout")"#);
        let TargetExec::Plan(q) = &input.exec else { panic!("input test compiles") };
        assert!(q.param_slots() > 0);
        assert_eq!(input.reads.mask, sections::INPUT);

        // interpreted: unsafe, open, or needing a slot the spec lacks
        // (no rule reads the previous step's password)
        for src in ["exists u: !logged(u)", "logged(u)", "exists q: prev pass(q) & user(q, q)"] {
            let comp = compile(src);
            assert!(matches!(comp.exec, TargetExec::Interp), "{src}");
            assert_eq!(comp.reads, ReadProfile { qid, mask: sections::ALL }, "{src}");
        }
    }

    #[test]
    fn non_input_bounded_rule_is_reported_not_rejected() {
        let mut spec = tiny();
        // quantifier over a database relation — not input-bounded
        spec.pages[0].target_rules[0].condition =
            wave_fol::parse_formula("forall u, q: user(u, q) -> logged(u)").unwrap();
        let c = CompiledSpec::compile(spec).unwrap();
        assert!(!c.is_input_bounded());
        assert_eq!(c.ib_report.len(), 1);
    }

    #[test]
    fn invalid_spec_rejected_with_all_errors() {
        let mut spec = tiny();
        spec.home = "NOPE".into();
        match CompiledSpec::compile(spec) {
            Err(CompileSpecError::Invalid(errs)) => assert!(!errs.is_empty()),
            Err(other) => panic!("unexpected error {other}"),
            Ok(_) => panic!("invalid spec must not compile"),
        }
    }
}
