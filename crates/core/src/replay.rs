//! Counterexample replay and validation.
//!
//! Section 7 of the paper describes adapting wave to an incomplete
//! verifier: "Whenever a candidate pseudorun counterexample to the
//! property is produced in the course of the ndfs search, wave needs to
//! check that this in fact corresponds to a genuine run violating the
//! property."
//!
//! [`replay`] re-derives every step of a reported counterexample against
//! the successor relation and the property automaton:
//!
//! 1. the first configuration is among the start pseudoconfigurations,
//! 2. every following configuration is a `succP` successor of its
//!    predecessor,
//! 3. the recorded FO-component assignments match re-evaluation,
//! 4. the automaton can follow the recorded state sequence under those
//!    assignments, the cycle closes (the last step can reach the
//!    `cycle_start` step), and the cycle visits an accepting state.
//!
//! The verifier runs this check in tests and exposes it publicly so
//! downstream users can audit any counterexample they are handed.

use crate::config::PseudoConfig;
use crate::ndfs::CounterExample;
use crate::succ::{SearchCtx, SuccError};
use std::fmt;
use wave_ltl::Buchi;

/// Why a counterexample failed validation.
#[derive(Debug)]
pub enum ReplayError {
    Empty,
    BadCycleStart { cycle_start: usize, len: usize },
    NotAStartConfig,
    NotASuccessor { step: usize },
    AssignmentMismatch { step: usize, recorded: u64, recomputed: u64 },
    NoAutomatonTransition { step: usize },
    CycleDoesNotClose,
    CycleNotAccepting,
    Succ(SuccError),
    Prepare(crate::VerifyError),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Empty => write!(f, "counterexample has no steps"),
            ReplayError::BadCycleStart { cycle_start, len } => {
                write!(f, "cycle start {cycle_start} out of range for {len} steps")
            }
            ReplayError::NotAStartConfig => {
                write!(f, "first step is not a start pseudoconfiguration")
            }
            ReplayError::NotASuccessor { step } => {
                write!(f, "step {step} is not a successor of step {}", step - 1)
            }
            ReplayError::AssignmentMismatch { step, recorded, recomputed } => write!(
                f,
                "step {step}: recorded assignment {recorded:#b} != recomputed {recomputed:#b}"
            ),
            ReplayError::NoAutomatonTransition { step } => {
                write!(f, "no automaton transition into step {step}")
            }
            ReplayError::CycleDoesNotClose => {
                write!(f, "last step cannot reach the cycle start")
            }
            ReplayError::CycleNotAccepting => {
                write!(f, "the cycle visits no accepting automaton state")
            }
            ReplayError::Succ(e) => write!(f, "replay failed to expand: {e}"),
            ReplayError::Prepare(e) => write!(f, "cannot prepare the property: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<SuccError> for ReplayError {
    fn from(e: SuccError) -> Self {
        ReplayError::Succ(e)
    }
}

/// Validate a counterexample against the search context and automaton it
/// was produced under.
pub fn replay(
    ctx: &SearchCtx<'_>,
    buchi: &Buchi,
    components: &[wave_fol::Formula],
    ce: &CounterExample,
) -> Result<(), ReplayError> {
    if ce.steps.is_empty() {
        return Err(ReplayError::Empty);
    }
    if ce.cycle_start >= ce.steps.len() {
        return Err(ReplayError::BadCycleStart {
            cycle_start: ce.cycle_start,
            len: ce.steps.len(),
        });
    }

    // (1) start configuration (replay is not observed: scratch profile,
    // quiet observer)
    let mut prof = crate::profile::SearchProfile::default();
    let starts = ctx.initial_configs(&mut prof, &mut ())?;
    if !starts.contains(&ce.steps[0].config) {
        return Err(ReplayError::NotAStartConfig);
    }
    if ce.steps[0].auto_state != buchi.initial {
        return Err(ReplayError::NoAutomatonTransition { step: 0 });
    }

    // (2) successor relation + (3) assignments + (4) automaton steps
    for (i, step) in ce.steps.iter().enumerate() {
        let recomputed = assignment(ctx, components, &step.config)?;
        if recomputed != step.assignment {
            return Err(ReplayError::AssignmentMismatch {
                step: i,
                recorded: step.assignment,
                recomputed,
            });
        }
        if i + 1 < ce.steps.len() {
            let next = &ce.steps[i + 1];
            let succs = ctx.successors(&step.config, &mut prof, &mut ())?;
            if !succs.contains(&next.config) {
                return Err(ReplayError::NotASuccessor { step: i + 1 });
            }
            if !buchi.successors(step.auto_state, step.assignment).any(|t| t == next.auto_state) {
                return Err(ReplayError::NoAutomatonTransition { step: i + 1 });
            }
        }
    }

    // (4) the cycle closes: the last step can step back to cycle_start
    let last = ce.steps.last().expect("nonempty");
    let back = &ce.steps[ce.cycle_start];
    let succs = ctx.successors(&last.config, &mut prof, &mut ())?;
    let closes = succs.contains(&back.config)
        && buchi.successors(last.auto_state, last.assignment).any(|t| t == back.auto_state);
    if !closes {
        return Err(ReplayError::CycleDoesNotClose);
    }

    // the cycle must visit an accepting state (it is the candy phase, whose
    // base — the first cycle step — is accepting by construction)
    if !ce.steps[ce.cycle_start..].iter().any(|s| buchi.accepting[s.auto_state]) {
        return Err(ReplayError::CycleNotAccepting);
    }
    Ok(())
}

fn assignment(
    ctx: &SearchCtx<'_>,
    components: &[wave_fol::Formula],
    cfg: &PseudoConfig,
) -> Result<u64, ReplayError> {
    use wave_fol::{eval, Bindings, EvalCtx, SchemaResolver};
    let inst = cfg.materialize(ctx.spec, &ctx.base);
    let mut domain = inst.active_domain();
    domain.extend_from_slice(&ctx.c_values);
    domain.sort_unstable();
    domain.dedup();
    let page_name = &ctx.spec.page(cfg.page).name;
    let ectx = EvalCtx {
        instance: &inst,
        symbols: ctx.symbols,
        current_page: Some(page_name),
        domain: &domain,
    };
    let resolver = SchemaResolver(&ctx.spec.schema);
    let mut assign = 0u64;
    for (i, f) in components.iter().enumerate() {
        let v = eval(f, &ectx, &resolver, &mut Bindings::new())
            .map_err(|e| ReplayError::Succ(SuccError::Eval(e)))?;
        if v {
            assign |= 1 << i;
        }
    }
    Ok(assign)
}
