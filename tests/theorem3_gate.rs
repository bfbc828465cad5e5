//! The Theorem 3 wall for the lint's carefulness gate.
//!
//! The `carefulness` pass runs the bounded monitor only when the static
//! confinement verdict fails: Theorem 3 (confined ⟹ careful) says the
//! monitor cannot find anything on a confined process. This suite checks
//! the gate against the monitor itself, at the default exploration
//! budget, over the closed protocol suite, the tracked open examples,
//! the lowered `examples/lang/` ladder, the explicit two-point-lattice
//! twins of every binary policy, and a seeded random corpus. For each
//! case:
//!
//! * (a) whenever the gate says confined, a direct `carefulness` call
//!   reports no violation;
//! * (b) the E005 findings of `lint` are exactly the deduplicated
//!   violations of that direct call;
//! * N005 appears exactly when the process is not confined and the
//!   direct exploration was truncated — so the only difference from an
//!   ungated run is the N005 note a confined process no longer gets.

use nuspi::diagnostics::{LintContext, PassRegistry, Span};
use nuspi::security::carefulness;
use nuspi::semantics::ExecConfig;
use nuspi::Policy;
use nuspi_bench::genproc::{random_process, GenConfig};
use nuspi_protocols::{open_examples, suite};
use nuspi_security::{n_star, n_star_name, SecLattice};
use nuspi_syntax::{builder, Process, Value};
use std::path::PathBuf;

/// The explicit two-point-lattice twin of a binary policy (as in
/// `tests/lattice_wall.rs`): same secrets, constructed lattice.
fn two_point_twin(policy: &Policy) -> Policy {
    let mut twin = Policy::with_lattice(SecLattice::two_point());
    let mut secrets: Vec<String> = policy.secrets().map(|s| s.as_str().to_owned()).collect();
    secrets.sort();
    for s in secrets {
        twin.add_secret(s.as_str());
    }
    twin
}

/// The closed suite, the tracked open examples and the lowered ladder,
/// each under its own policy.
fn shipped_cases() -> Vec<(String, Process, Policy)> {
    let mut out = Vec::new();
    for spec in suite() {
        out.push((spec.name.to_owned(), spec.process, spec.policy));
    }
    for ex in open_examples() {
        let tracked = builder::restrict(
            n_star_name(),
            ex.process.subst(ex.var, &Value::name(n_star_name())),
        );
        let mut policy = ex.policy.clone();
        policy.add_secret(n_star());
        out.push((format!("open-{}", ex.name), tracked, policy));
    }
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/lang");
    let mut rungs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("examples/lang is readable")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "nu"))
        .collect();
    rungs.sort();
    for path in rungs {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path).unwrap();
        let compiled = nuspi_lang::compile(&name, &src)
            .unwrap_or_else(|e| panic!("{name}: ladder program failed to compile: {e:?}"));
        out.push((format!("lang-{name}"), compiled.process, compiled.policy));
    }
    out
}

/// Checks the gate on one case; returns whether it was confined.
fn check_gate(name: &str, process: &Process, policy: &Policy) -> bool {
    let ctx = LintContext::new(process, policy);
    let confined = ctx.confinement().is_confined();
    let diags = PassRegistry::with_defaults().run(&ctx);
    assert_eq!(
        confined,
        !diags
            .iter()
            .any(|d| matches!(d.code, "E001" | "E002" | "E003" | "E004")),
        "{name}: the shared verdict disagrees with the reported E001–E004"
    );

    let direct = carefulness(process, ctx.policy(), &ExecConfig::default());
    if confined {
        assert!(
            direct.violations.is_empty(),
            "{name}: confined but careless (Theorem 3): {:?}",
            direct.violations
        );
    }

    let mut expected: Vec<(String, String)> = direct
        .violations
        .iter()
        .map(|v| (v.channel.to_string(), v.value.canonicalize().to_string()))
        .collect();
    expected.sort();
    expected.dedup();
    let mut reported: Vec<(String, String)> = diags
        .iter()
        .filter(|d| d.code == "E005")
        .map(|d| {
            let Span::Channel(chan) = d.span else {
                panic!("{name}: E005 without a channel span: {d:?}");
            };
            let value = d
                .message
                .split_once("secret value ")
                .and_then(|(_, rest)| rest.split_once(" in clear on"))
                .map(|(value, _)| value.to_owned())
                .unwrap_or_else(|| panic!("{name}: unexpected E005 message: {}", d.message));
            (chan.to_string(), value)
        })
        .collect();
    reported.sort();
    assert_eq!(
        reported, expected,
        "{name}: lint's E005 set differs from the monitor's violations"
    );

    let noted = diags.iter().any(|d| d.code == "N005");
    assert_eq!(
        noted,
        !confined && direct.stats.truncated,
        "{name}: N005 must mark exactly the truncated explorations of non-confined processes"
    );
    confined
}

#[test]
fn gate_agrees_with_the_monitor_on_the_shipped_cases_and_their_twins() {
    let cases = shipped_cases();
    assert_eq!(cases.len(), suite().len() + open_examples().len() + 12);
    let mut confined = 0;
    for (name, process, policy) in &cases {
        confined += usize::from(check_gate(name, process, policy));
        if !policy.is_graded() {
            check_gate(
                &format!("{name} (two-point twin)"),
                process,
                &two_point_twin(policy),
            );
        }
    }
    assert!(
        confined > 0,
        "the corpus must exercise the gate's skip path"
    );
    assert!(
        confined < cases.len(),
        "the corpus must exercise the monitor"
    );
}

#[test]
fn gate_agrees_with_the_monitor_on_random_processes() {
    let gcfg = GenConfig::default();
    let policy = Policy::with_secrets(["fresh0", "fresh1", "fresh2", "key0", "key1"]);
    let mut confined = 0;
    for seed in 3000..3080 {
        let p = random_process(seed, &gcfg);
        confined += usize::from(check_gate(&format!("seed {seed}"), &p, &policy));
    }
    assert!(
        confined > 0,
        "the corpus must exercise the gate's skip path"
    );
}
