//! The shared lint context: the process, the policy, stable label
//! ordinals, and a lazily-built semantic layer (solver runs, provenance,
//! abstract kind facts).
//!
//! Syntactic passes never touch the semantic layer, so `lint` on a
//! process with only syntactic findings pays zero solver cost — the
//! `bench_lint` binary measures exactly this. Semantic passes share one
//! [`SemanticCtx`] built on first use, and with it one
//! [`ConfinementVerdict`] and one memo of rendered productions.
//!
//! Witness productions are chosen by [`SemanticCtx::pick_witness`], which
//! renders each candidate at most once per context and none when a name
//! already sorts below every constructor.
//!
//! ## Determinism across solver layouts
//!
//! Verdicts (does `κ(c)` contain a secret-kind production?) are read off
//! the *decision* solution — sharded when [`LintConfig::shards`] `> 1` —
//! while witness traces always come from a *traced sequential* solve,
//! because only the sequential solver records [`Provenance`]. The two
//! solutions have provably equal production sets (the differential suite
//! covers this), so the emitted diagnostics are byte-identical whichever
//! layout decided them. Facts indexed by [`VarId`](nuspi_cfa::VarId) are
//! never mixed across the two solutions: each gets its own
//! [`AbstractKind`] fixpoint.

use crate::diag::{Span, WitnessStep};
use nuspi_cfa::{
    accept, analyze_with_attacker_parallel, analyze_with_attacker_traced,
    attacker::attacker_confounder, AttackedSolution, EdgeKind, FlowStepKind, FlowVar, Prod,
    Provenance, Solution,
};
use nuspi_security::{AbstractKind, Policy};
use nuspi_semantics::ExecConfig;
use nuspi_syntax::{Label, Name, Process, Symbol};
use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

/// Tunables for a lint run.
#[derive(Clone, Copy, Debug)]
pub struct LintConfig {
    /// Solver shards for the decision solution. `1` solves sequentially;
    /// `> 1` uses the sharded parallel solver. Diagnostics are identical
    /// either way.
    pub shards: usize,
    /// Budgets for the bounded carefulness monitor.
    pub exec: ExecConfig,
}

impl Default for LintConfig {
    fn default() -> LintConfig {
        LintConfig {
            shards: 1,
            exec: ExecConfig::default(),
        }
    }
}

/// Everything a lint pass may consult. Construction is cheap; the
/// semantic layer (solver, provenance, kind facts) is built on first
/// use via [`LintContext::semantic`].
pub struct LintContext {
    process: Process,
    policy: Policy,
    config: LintConfig,
    ordinals: HashMap<Label, usize>,
    semantic: OnceCell<SemanticCtx>,
}

/// The solver-derived layer shared by the semantic passes.
pub struct SemanticCtx {
    /// Sequential traced solve of `P` + most powerful attacker; the
    /// source of every witness trace and rendered production.
    pub traced: AttackedSolution,
    /// First-cause flow provenance of the traced solve.
    pub provenance: Provenance,
    /// Kind facts over the traced solution's nonterminals.
    pub traced_kinds: AbstractKind,
    /// The decision solution when sharded solving was requested; `None`
    /// means the traced solution doubles as the decision solution.
    pub decision: Option<AttackedSolution>,
    /// Kind facts over the decision solution's nonterminals (its own
    /// fixpoint — `VarId`s are not portable across solutions).
    pub decision_kinds: AbstractKind,
    /// The static confinement verdict, built on first use.
    confinement: OnceCell<ConfinementVerdict>,
    /// Depth-4 renderings of traced-solution productions, shared by
    /// every witness choice of the run.
    renders: RefCell<HashMap<Prod, Rc<str>>>,
}

/// The static confinement check of Definition 4, computed once per
/// [`SemanticCtx`] and shared by the `confinement` pass (which reports
/// it as E001–E004) and the `carefulness` pass (which, by Theorem 3,
/// runs its monitor only when this verdict is not confined).
#[derive(Debug)]
pub struct ConfinementVerdict {
    /// Free names of the process that the policy declares secret
    /// (E003), sorted by name.
    pub free_secrets: Vec<Name>,
    /// Table 2 re-validation failures of the decision solution (E004).
    pub unacceptable: Vec<accept::Violation>,
    /// Public channels, the attacker's knowledge included, whose `κ`
    /// may hold a secret-kind value (E001/E002).
    pub leaks: Vec<Symbol>,
}

impl ConfinementVerdict {
    /// Whether the process is confined: no E001–E004 finding.
    pub fn is_confined(&self) -> bool {
        self.free_secrets.is_empty() && self.unacceptable.is_empty() && self.leaks.is_empty()
    }
}

impl SemanticCtx {
    /// The solution verdicts are read from.
    pub fn decision_solution(&self) -> &Solution {
        match &self.decision {
            Some(att) => &att.solution,
            None => &self.traced.solution,
        }
    }

    /// The solution witnesses and renders are read from.
    pub fn traced_solution(&self) -> &Solution {
        &self.traced.solution
    }

    /// The depth-4 rendering of a traced-solution production, memoised
    /// for the lifetime of the context.
    pub fn render(&self, p: &Prod) -> Rc<str> {
        if let Some(r) = self.renders.borrow().get(p) {
            return Rc::clone(r);
        }
        let r: Rc<str> = self.traced_solution().render_production(p, 4).into();
        self.renders.borrow_mut().insert(p.clone(), Rc::clone(&r));
        r
    }

    /// The witness among `candidates` (traced-solution productions): the
    /// least by *(interesting first, rendered form)* when
    /// `prefer_interesting`, by rendered form alone otherwise, the first
    /// candidate winning an exact tie. A constructor is rendered only
    /// when its known first characters do not already place it above
    /// the least name or numeral, so a name below `{` beats every
    /// ciphertext unrendered.
    pub fn pick_witness<'a>(
        &self,
        candidates: impl IntoIterator<Item = &'a Prod>,
        prefer_interesting: bool,
    ) -> Option<Prod> {
        let tier = |p: &Prod| prefer_interesting && !is_interesting(p);
        let mut tied: Vec<&Prod> = candidates.into_iter().collect();
        let best_tier = tied.iter().map(|p| tier(p)).min()?;
        tied.retain(|p| tier(p) == best_tier);
        let least_known = tied
            .iter()
            .filter_map(|p| match render_floor(p) {
                Floor::Exact(s) => Some(s),
                Floor::Prefix(_) => None,
            })
            .min();
        tied.into_iter()
            .filter_map(|p| match render_floor(p) {
                Floor::Exact(s) => Some((p, Rc::from(s))),
                // Every rendering that starts with `prefix` sorts above
                // a known string that sorts below `prefix`.
                Floor::Prefix(prefix) if least_known.is_some_and(|k| k < prefix) => None,
                Floor::Prefix(_) => Some((p, self.render(p))),
            })
            .min_by(|a, b| a.1.cmp(&b.1))
            .map(|(p, _)| p.clone())
    }
}

/// Plain names and honest ciphertexts, as opposed to numerals, pairs
/// and attacker-synthesised ciphertexts.
fn is_interesting(p: &Prod) -> bool {
    match p {
        Prod::Name(_) => true,
        Prod::Enc { confounder, .. } => *confounder != attacker_confounder(),
        _ => false,
    }
}

/// What a production's rendering is known to be without rendering it.
enum Floor {
    /// The whole rendering.
    Exact(&'static str),
    /// A prefix of it.
    Prefix(&'static str),
}

fn render_floor(p: &Prod) -> Floor {
    match p {
        Prod::Name(n) => Floor::Exact(n.as_str()),
        Prod::Zero => Floor::Exact("0"),
        Prod::Suc(_) => Floor::Prefix("suc("),
        Prod::Pair(..) => Floor::Prefix("("),
        Prod::Enc { .. } => Floor::Prefix("{"),
    }
}

impl LintContext {
    /// Builds a context with the default configuration.
    pub fn new(process: &Process, policy: &Policy) -> LintContext {
        LintContext::with_config(process, policy, LintConfig::default())
    }

    /// Builds a context with an explicit configuration.
    ///
    /// The policy is augmented with the process's `hide`-bound names
    /// (secret by construction, no entry required) — a no-op for
    /// `hide`-free processes, which keeps their diagnostics byte-stable.
    pub fn with_config(process: &Process, policy: &Policy, config: LintConfig) -> LintContext {
        let ordinals = process
            .labels()
            .into_iter()
            .enumerate()
            .map(|(i, l)| (l, i))
            .collect();
        LintContext {
            policy: policy.with_hidden_of(process),
            process: process.clone(),
            config,
            ordinals,
            semantic: OnceCell::new(),
        }
    }

    /// The process under analysis.
    pub fn process(&self) -> &Process {
        &self.process
    }

    /// The secrecy policy.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The run configuration.
    pub fn config(&self) -> &LintConfig {
        &self.config
    }

    /// The stable ordinal of a label (its position in the pre-order
    /// label traversal), if the label belongs to this process.
    pub fn ordinal(&self, l: Label) -> Option<usize> {
        self.ordinals.get(&l).copied()
    }

    /// The span for a labelled program point; falls back to the whole
    /// process for labels minted outside it (e.g. attacker-internal).
    pub fn span_of(&self, l: Label) -> Span {
        match self.ordinal(l) {
            Some(ordinal) => Span::Point { ordinal },
            None => Span::Process,
        }
    }

    /// The semantic layer, built on first call. Syntactic passes must
    /// not call this.
    pub fn semantic(&self) -> &SemanticCtx {
        self.semantic.get_or_init(|| {
            // The attacker's opaque set: bare secrets plus graded names
            // above the clearance. Identical to `secrets()` on ungraded
            // policies, so binary-lattice transcripts do not move.
            let secret = self.policy.opaque_names().into_iter().collect();
            let (traced, provenance) = analyze_with_attacker_traced(&self.process, &secret);
            let traced_kinds = AbstractKind::compute(&traced.solution, &self.policy);
            let (decision, decision_kinds) = if self.config.shards > 1 {
                let att =
                    analyze_with_attacker_parallel(&self.process, &secret, self.config.shards);
                let kinds = AbstractKind::compute(&att.solution, &self.policy);
                (Some(att), kinds)
            } else {
                (None, traced_kinds.clone())
            };
            SemanticCtx {
                traced,
                provenance,
                traced_kinds,
                decision,
                decision_kinds,
                confinement: OnceCell::new(),
                renders: RefCell::new(HashMap::new()),
            }
        })
    }

    /// The static confinement verdict of Definition 4, read off the
    /// decision solution and built once per context.
    pub fn confinement(&self) -> &ConfinementVerdict {
        let sem = self.semantic();
        sem.confinement.get_or_init(|| {
            let mut free_secrets = self.policy.free_secret_names(&self.process);
            free_secrets.sort_by_key(|n| n.to_string());
            let sol = sem.decision_solution();
            let unacceptable = accept::verify(sol, &self.process);
            let leaks = sol
                .channels()
                .into_iter()
                .filter(|&chan| self.policy.is_public(chan))
                .filter(|&chan| {
                    sol.var_id(FlowVar::Kappa(chan))
                        .is_some_and(|id| sem.decision_kinds.facts(id).may_secret)
                })
                .collect();
            ConfinementVerdict {
                free_secrets,
                unacceptable,
                leaks,
            }
        })
    }

    /// Whether the semantic layer has been built (used by the overhead
    /// bench to assert syntactic-only runs stay solver-free).
    pub fn semantic_built(&self) -> bool {
        self.semantic.get().is_some()
    }

    /// Renders a flow variable with run-stable coordinates: `ζ` entries
    /// print their label *ordinal*, not the raw (run-varying) label.
    pub fn display_flow_var(&self, fv: FlowVar) -> String {
        match fv {
            FlowVar::Zeta(l) => match self.ordinal(l) {
                Some(ordinal) => format!("ζ(ℓ#{ordinal})"),
                None => "ζ(ℓ?)".to_owned(),
            },
            FlowVar::Aux(u32::MAX) => "the attacker's knowledge".to_owned(),
            FlowVar::Aux(_) => "an embedded-value nonterminal".to_owned(),
            other => other.to_string(), // ρ(x), κ(n): already stable
        }
    }

    /// Builds a seed-rooted witness trace for `prod ∈ L(fv)` from the
    /// traced solve's provenance. Every step names the Table 2 clause or
    /// Dolev–Yao closure rule that justifies the hop.
    pub fn witness_from_flow(&self, fv: FlowVar, prod: &Prod) -> Vec<WitnessStep> {
        let sem = self.semantic();
        let sol = sem.traced_solution();
        let rendered = sol.render_production(prod, 2);
        let mut out = Vec::new();
        for step in sem.provenance.explain_steps(sol, fv, prod) {
            let at = self.display_flow_var(step.at);
            out.push(match step.kind {
                FlowStepKind::Introduced => {
                    if step.at == FlowVar::Aux(u32::MAX) {
                        WitnessStep {
                            rule: "Dolev–Yao closure (Lemma 1 attacker)",
                            detail: format!("{rendered} is seeded or synthesised in {at}"),
                        }
                    } else {
                        WitnessStep {
                            rule: "Table 2 production (constructor occurrence)",
                            detail: format!("{rendered} is produced at {at}"),
                        }
                    }
                }
                FlowStepKind::Propagated { from, via } => WitnessStep {
                    rule: rule_for_edge(via),
                    detail: format!(
                        "reaches {at} from {} via {via}",
                        self.display_flow_var(from)
                    ),
                },
                FlowStepKind::Absent => WitnessStep {
                    rule: "provenance",
                    detail: format!("{rendered} is not recorded at {at}"),
                },
                FlowStepKind::Cycle => WitnessStep {
                    rule: "provenance",
                    detail: "provenance chain closed a cycle".to_owned(),
                },
            });
        }
        out
    }
}

/// The Table 2 clause behind a propagation edge.
fn rule_for_edge(via: EdgeKind) -> &'static str {
    match via {
        EdgeKind::Sub => "Table 2 subset constraint (variable occurrence / embedded value)",
        EdgeKind::Output(_) => "Table 2 output clause (∀n ∈ ζ(chan): ζ(msg) ⊆ κ(n))",
        EdgeKind::Input(_) => "Table 2 input clause (∀n ∈ ζ(chan): κ(n) ⊆ ρ(x))",
        EdgeKind::Split => "Table 2 pair-splitting clause",
        EdgeKind::CaseSuc => "Table 2 integer-case clause",
        EdgeKind::Decrypt => "Table 2 decryption clause (key languages intersect)",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuspi_syntax::parse_process;

    #[test]
    fn context_construction_is_solver_free() {
        let p = parse_process("(new m) c<m>.0").unwrap();
        let policy = Policy::with_secrets(["m"]);
        let ctx = LintContext::new(&p, &policy);
        assert!(!ctx.semantic_built());
        assert_eq!(ctx.ordinal(p.labels()[0]), Some(0));
    }

    #[test]
    fn semantic_layer_is_built_once_on_demand() {
        let p = parse_process("(new m) c<m>.0").unwrap();
        let policy = Policy::with_secrets(["m"]);
        let ctx = LintContext::new(&p, &policy);
        let first = ctx.semantic() as *const SemanticCtx;
        let second = ctx.semantic() as *const SemanticCtx;
        assert_eq!(first, second);
        assert!(ctx.semantic_built());
    }

    #[test]
    fn witness_for_a_leaked_secret_is_seed_rooted() {
        let p = parse_process("(new m) c<m>.0").unwrap();
        let policy = Policy::with_secrets(["m"]);
        let ctx = LintContext::new(&p, &policy);
        let witness = ctx.witness_from_flow(
            FlowVar::Kappa(nuspi_syntax::Symbol::intern("c")),
            &Prod::Name(nuspi_syntax::Symbol::intern("m")),
        );
        assert!(!witness.is_empty());
        assert!(witness[0].rule.contains("production"), "{:?}", witness[0]);
        assert!(witness.last().unwrap().detail.contains("κ(c)"));
    }

    #[test]
    fn pick_witness_matches_a_full_sort_of_the_renderings() {
        let cases = [
            ("(new m) c<m>.0", vec!["m"]),
            (
                "(new k) (new m) (c<{m, new r}:k>.0 | c(x). case x of {y}:k in d<y>.0)",
                vec!["k", "m"],
            ),
            (
                "(new k) (new m) (c<({m, new r}:k, suc(0))>.0 | c(x). let (a, b) = x in d<a>.0)",
                vec!["m"],
            ),
        ];
        for (src, secrets) in cases {
            let p = parse_process(src).unwrap();
            let policy = Policy::with_secrets(secrets);
            let ctx = LintContext::new(&p, &policy);
            let sem = ctx.semantic();
            let sol = sem.traced_solution();
            for (_, fv) in sol.flow_vars() {
                for prefer_interesting in [true, false] {
                    let mut sorted: Vec<&Prod> = sol.prods_of(fv).iter().collect();
                    sorted.sort_by_cached_key(|p| {
                        (
                            prefer_interesting && !is_interesting(p),
                            sol.render_production(p, 4),
                        )
                    });
                    assert_eq!(
                        sem.pick_witness(sol.prods_of(fv), prefer_interesting),
                        sorted.first().map(|p| (*p).clone()),
                        "{src}: {fv}"
                    );
                }
            }
        }
    }

    #[test]
    fn confined_verdict_is_built_once() {
        let p = parse_process("(new k) (new m) c<{m, new r}:k>.0").unwrap();
        let policy = Policy::with_secrets(["k", "m"]);
        let ctx = LintContext::new(&p, &policy);
        assert!(ctx.confinement().is_confined());
        assert!(std::ptr::eq(ctx.confinement(), ctx.confinement()));
        let leaky = parse_process("(new m) c<m>.0").unwrap();
        let ctx = LintContext::new(&leaky, &policy);
        assert!(!ctx.confinement().is_confined());
    }

    #[test]
    fn sharded_config_builds_a_separate_decision_solution() {
        let p = parse_process("(new m) c<m>.0").unwrap();
        let policy = Policy::with_secrets(["m"]);
        let cfg = LintConfig {
            shards: 4,
            ..LintConfig::default()
        };
        let ctx = LintContext::with_config(&p, &policy, cfg);
        assert!(ctx.semantic().decision.is_some());
    }
}
