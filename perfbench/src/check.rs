//! Known-answer checks of response lines.

use crate::gen::{edit_base_seed, edit_source, Check, Req, CORPUS_DEPTH, EDIT_SESSIONS};
use crate::util::{codes, field, is_ok};
use nuspi_bench::workloads::interleaved_source;
use nuspi_cfa::{solve, solve_reference, Constraints};
use nuspi_syntax::parse_process;

/// Checks one reply against its request's known answer. `Ok(decided)`
/// tells whether the verdict was conclusive (no N005 truncation note,
/// no `unknown` equivalence verdict).
pub fn check(req: &Req, reply: &str) -> Result<bool, String> {
    if !is_ok(reply) {
        return Err(format!("error reply: {}", clip(reply)));
    }
    let want = |got: Option<String>, want: &str| match got {
        Some(g) if g == want => Ok(()),
        got => Err(format!("expected {want}, got {got:?}")),
    };
    match &req.check {
        Check::Lint(golden) => {
            let got = codes(reply, "");
            if &got != golden {
                return Err(format!("lint codes {got:?}, golden {golden:?}"));
            }
            Ok(!got.iter().any(|c| c == "N005"))
        }
        Check::Rung(verdict) => {
            want(field(reply, "verdict"), verdict)?;
            Ok(!codes(reply, "").iter().any(|c| c == "N005"))
        }
        Check::Audit(secure) => {
            want(
                field(reply, "secure"),
                if *secure { "true" } else { "false" },
            )?;
            Ok(true)
        }
        Check::Distinguished => {
            want(field(reply, "verdict"), "distinguished")?;
            Ok(true)
        }
        Check::Corpus { .. } | Check::Edit { .. } => {
            if field(reply, "estimate").is_none() {
                return Err("no estimate".into());
            }
            Ok(true)
        }
    }
}

/// The νSPI source a solve-type request carries.
fn corpus_source(check: &Check, run_seed: u64) -> Option<String> {
    match check {
        Check::Corpus { sessions, seed } => {
            Some(interleaved_source(*sessions, CORPUS_DEPTH, *seed))
        }
        Check::Edit { session, tag } => {
            let base = interleaved_source(EDIT_SESSIONS, CORPUS_DEPTH, edit_base_seed(run_seed));
            Some(if *session == usize::MAX {
                base
            } else {
                edit_source(&base, *session, tag)
            })
        }
        _ => None,
    }
}

/// Checks a solve reply against the reference solver: the reply must
/// be the rendering of an estimate equal to `solve_reference`'s. The
/// two solvers' estimates are compared semantically (`estimate_eq`),
/// since renderings of equal estimates may differ between solvers.
pub fn check_reference(req: &Req, reply: &str, run_seed: u64) -> Result<(), String> {
    let src = corpus_source(&req.check, run_seed).ok_or("not a solve request")?;
    let p = parse_process(&src).map_err(|e| e.to_string())?;
    let solved = solve(Constraints::generate(&p));
    solved
        .estimate_eq(&solve_reference(Constraints::generate(&p)))
        .map_err(|e| {
            format!(
                "{}: solve differs from solve_reference: {e}",
                clip(&req.line)
            )
        })?;
    match field(reply, "estimate") {
        Some(got) if got == solved.render_estimate_for(&p, 3) => Ok(()),
        _ => Err(format!(
            "{}: estimate is not the reference estimate",
            clip(&req.line)
        )),
    }
}

pub fn clip(s: &str) -> String {
    s.chars().take(160).collect()
}
