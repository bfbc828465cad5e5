//! The seeded request streams. A stream is a sequence of passes; pass
//! `k` of a workload is a pure function of `(workload, seed, k)`, so the
//! same seed gives a byte-identical stream. Each pass sends every case
//! of the workload once, in a seed-shuffled order.

use crate::cases::{Cases, Rung, Spec};
use crate::util::{esc, Rng};
use std::collections::HashMap;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    LintCold,
    AuditCold,
    SolveCorpus,
    EditSession,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "lint-cold" => Workload::LintCold,
            "audit-cold" => Workload::AuditCold,
            "solve-corpus" => Workload::SolveCorpus,
            "edit-session" => Workload::EditSession,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::LintCold => "lint-cold",
            Workload::AuditCold => "audit-cold",
            Workload::SolveCorpus => "solve-corpus",
            Workload::EditSession => "edit-session",
        }
    }

    /// `solve-corpus` uses the stdin/stdout pipe; the rest use TCP.
    pub fn pipe(self) -> bool {
        self == Workload::SolveCorpus
    }

    /// Seconds one pass takes on the reference host (2 cores, release
    /// build). A run of `--seconds S` sends `ceil(S / this)` whole
    /// passes: a fixed, seed-determined request list that takes about
    /// `S` seconds there.
    fn nominal_pass_seconds(self) -> f64 {
        match self {
            Workload::LintCold => 1.1,
            Workload::AuditCold => 6.0,
            Workload::SolveCorpus => 4.8,
            Workload::EditSession => 0.3,
        }
    }

    pub fn passes(self, seconds: f64) -> usize {
        ((seconds / self.nominal_pass_seconds()).ceil() as usize).max(1)
    }

    /// The fixed percentile reported as `latency_tail_ms`: at the
    /// benchmark's 15-second runs, the highest whole percentile with at
    /// least 10 samples beyond it (462, 75, 48 and 1000 samples).
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::LintCold => 0.97,
            Workload::AuditCold => 0.86,
            Workload::SolveCorpus => 0.79,
            Workload::EditSession => 0.99,
        }
    }
}

/// The known answer a response is checked against.
#[derive(Clone, Debug)]
pub enum Check {
    /// Lint: the golden report's code multiset.
    Lint(Vec<String>),
    /// `analyze_source`: the rung's expected verdict.
    Rung(String),
    /// Audit: `secure` must equal the spec's `expect_confined`.
    Audit(bool),
    /// Equiv of broken twins: `distinguished`.
    Distinguished,
    /// Solve of `interleaved_source(sessions, 4, seed)`: status ok,
    /// and on a seeded sample, the reference solver's estimate.
    Corpus { sessions: usize, seed: u64 },
    /// `solve_incremental` of a one-component edit of the base corpus.
    Edit { session: usize, tag: String },
}

#[derive(Clone, Debug)]
pub struct Req {
    pub line: String,
    pub check: Check,
    /// The generator means this request to be a cache hit.
    pub hit: bool,
    /// The connection that must carry it (`None`: whichever is free).
    pub lane: Option<usize>,
}

/// Sessions and hop depth of the `edit-session` base corpus.
pub const EDIT_SESSIONS: usize = 250;
pub const CORPUS_DEPTH: usize = 4;
/// Requests per `solve-corpus` pass, with session counts stratified
/// over 250..=1000 so every pass carries the same size mix.
const CORPUS_PER_PASS: usize = 12;
/// Per `edit-session` pass: 14 resubmissions, 5 edits, 1 equiv (70/25/5).
const EDIT_RESUBMITS: usize = 14;
const EDIT_EDITS: usize = 5;

pub struct Generator<'a> {
    pub workload: Workload,
    pub seed: u64,
    cases: &'a Cases,
}

fn lint_line(id: &str, src: &str, secrets: &[String]) -> String {
    format!(
        "{{\"id\":\"{id}\",\"op\":\"lint\",\"process\":\"{}\",\"secrets\":[{}]}}",
        esc(src),
        str_list(secrets)
    )
}

fn audit_line(id: &str, src: &str, secrets: &[String]) -> String {
    format!(
        "{{\"id\":\"{id}\",\"op\":\"audit\",\"process\":\"{}\",\"secrets\":[{}]}}",
        esc(src),
        str_list(secrets)
    )
}

fn source_line(id: &str, file: &str, src: &str) -> String {
    format!(
        "{{\"id\":\"{id}\",\"op\":\"analyze_source\",\"file\":\"{}\",\"source\":\"{}\"}}",
        esc(file),
        esc(src)
    )
}

fn equiv_line(id: &str, left: &str, right: &str) -> String {
    format!(
        "{{\"id\":\"{id}\",\"op\":\"equiv\",\"left\":\"{}\",\"right\":\"{}\"}}",
        esc(left),
        esc(right)
    )
}

fn str_list(v: &[String]) -> String {
    v.iter()
        .map(|s| format!("\"{}\"", esc(s)))
        .collect::<Vec<_>>()
        .join(",")
}

/// The base corpus of `edit-session` for a seed.
pub fn edit_base_seed(seed: u64) -> u64 {
    Rng::derive(seed, 0xED17).next_u64()
}

/// The base corpus with session `session`'s payload renamed to `tag`:
/// exactly one top-level component differs from the base.
pub fn edit_source(base: &str, session: usize, tag: &str) -> String {
    let mut map = HashMap::new();
    map.insert(format!("v{session}"), tag.to_owned());
    crate::cases::rename(base, &map)
}

/// A `lint` (else `audit`) request over `src`, a variant of `spec`,
/// with the spec's known answer.
fn spec_request(spec: &Spec, lint: bool, id: &str, src: &str, secrets: &[String]) -> Req {
    let (line, check) = if lint {
        (
            lint_line(id, src, secrets),
            Check::Lint(spec.lint_codes.clone()),
        )
    } else {
        (
            audit_line(id, src, secrets),
            Check::Audit(spec.expect_confined),
        )
    };
    Req {
        line,
        check,
        hit: false,
        lane: None,
    }
}

impl<'a> Generator<'a> {
    pub fn new(workload: Workload, seed: u64, cases: &'a Cases) -> Generator<'a> {
        Generator {
            workload,
            seed,
            cases,
        }
    }

    fn rung_req(&self, rung: &Rung, id: &str, file: &str, src: &str, hit: bool) -> Req {
        Req {
            line: source_line(id, file, src),
            check: Check::Rung(rung.expect.clone()),
            hit,
            lane: None,
        }
    }

    /// The untimed requests that fill the `edit-session` store in an
    /// earlier server life: every base case in its committed form.
    pub fn warm_set(&self) -> Vec<Req> {
        let c = self.cases;
        let mut out = Vec::new();
        for (i, s) in c.specs.iter().enumerate() {
            out.push(spec_request(
                s,
                true,
                &format!("w.l{i}"),
                &s.source,
                &s.secrets,
            ));
            out.push(spec_request(
                s,
                false,
                &format!("w.a{i}"),
                &s.source,
                &s.secrets,
            ));
        }
        for (i, r) in c.rungs.iter().enumerate() {
            out.push(self.rung_req(r, &format!("w.s{i}"), &r.file, &r.source, false));
        }
        for (i, t) in c.twins.iter().enumerate() {
            out.push(Req {
                line: equiv_line(&format!("w.e{i}"), &t.left, &t.right),
                check: Check::Distinguished,
                hit: false,
                lane: None,
            });
        }
        out
    }

    /// The untimed request that primes the server's incremental solver
    /// with the `edit-session` base corpus (a miss: it is not stored).
    pub fn priming(&self) -> Req {
        let base = self.edit_base();
        Req {
            line: format!(
                "{{\"id\":\"prime\",\"op\":\"solve_incremental\",\"process\":\"{}\"}}",
                esc(&base)
            ),
            check: Check::Edit {
                session: usize::MAX,
                tag: String::new(),
            },
            hit: false,
            lane: Some(0),
        }
    }

    pub fn edit_base(&self) -> String {
        nuspi_bench::workloads::interleaved_source(
            EDIT_SESSIONS,
            CORPUS_DEPTH,
            edit_base_seed(self.seed),
        )
    }

    /// Pass `k` of the stream.
    pub fn pass(&self, k: usize) -> Vec<Req> {
        let mut rng = Rng::derive(self.seed, k as u64 + 1);
        let c = self.cases;
        let tag = format!("s{}p{k}", self.seed);
        let mut out = Vec::new();
        match self.workload {
            Workload::LintCold => {
                for (i, s) in c.specs.iter().enumerate() {
                    let (src, secrets) = s.cold(&format!("{tag}l{i}"));
                    out.push(spec_request(s, true, &format!("{k}.l{i}"), &src, &secrets));
                }
                // The file name is part of `analyze_source`'s key, so a
                // fresh one makes the request a miss with the same work.
                for (i, r) in c.rungs.iter().enumerate() {
                    let file = r.file.replace(".nu", &format!("_{tag}.nu"));
                    out.push(self.rung_req(r, &format!("{k}.s{i}"), &file, &r.source, false));
                }
                rng.shuffle(&mut out);
            }
            Workload::AuditCold => {
                for (i, s) in c.specs.iter().enumerate() {
                    let (src, secrets) = s.cold(&format!("{tag}a{i}"));
                    out.push(spec_request(s, false, &format!("{k}.a{i}"), &src, &secrets));
                }
                for (i, t) in c.twins.iter().enumerate() {
                    for (o, flip) in [false, true].into_iter().enumerate() {
                        let (l, r) = t.cold(&format!("{tag}e{i}o{o}"));
                        let (l, r) = if flip { (r, l) } else { (l, r) };
                        out.push(Req {
                            line: equiv_line(&format!("{k}.e{i}o{o}"), &l, &r),
                            check: Check::Distinguished,
                            hit: false,
                            lane: None,
                        });
                    }
                }
                rng.shuffle(&mut out);
            }
            Workload::SolveCorpus => {
                for j in 0..CORPUS_PER_PASS {
                    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                    let sessions =
                        250 + ((750.0 * (j as f64 + u)) / CORPUS_PER_PASS as f64) as usize;
                    let seed = rng.next_u64();
                    let src =
                        nuspi_bench::workloads::interleaved_source(sessions, CORPUS_DEPTH, seed);
                    out.push(Req {
                        line: format!(
                            "{{\"id\":\"{k}.c{j}\",\"op\":\"solve\",\"process\":\"{}\"}}",
                            esc(&src)
                        ),
                        check: Check::Corpus { sessions, seed },
                        hit: false,
                        lane: Some(0),
                    });
                }
                rng.shuffle(&mut out);
            }
            Workload::EditSession => {
                // Resubmissions are laned by base case, so one key is
                // never first fetched by both connections at once, and
                // the hit/miss meters stay exact. Lane 0 is the editor.
                let base = self.edit_base();
                for lane in 0..2 {
                    let mut lane_reqs = Vec::new();
                    let pool: Vec<usize> = (0..c.specs.len() * 2 + c.rungs.len())
                        .filter(|i| i % 2 == lane)
                        .collect();
                    for r in 0..EDIT_RESUBMITS / 2 {
                        let pick = pool[rng.below(pool.len())];
                        let id = format!("{k}.r{lane}.{r}");
                        let suffix = format!("{tag}r{lane}x{r}");
                        let mut req = if pick < c.specs.len() * 2 {
                            let s = &c.specs[pick / 2];
                            let src = s.alpha(&suffix);
                            spec_request(s, pick.is_multiple_of(2), &id, &src, &s.secrets)
                        } else {
                            let rung = &c.rungs[pick - c.specs.len() * 2];
                            let src = rung.reformat(1 + rng.below(3));
                            self.rung_req(rung, &id, &rung.file, &src, false)
                        };
                        req.hit = true;
                        req.lane = Some(lane);
                        lane_reqs.push(req);
                    }
                    // One editor: every edit rides lane 0, so edits queue
                    // behind each other the way one client's would.
                    let edits = if lane == 0 { EDIT_EDITS } else { 0 };
                    for e in 0..edits {
                        let session = rng.below(EDIT_SESSIONS);
                        let tag = format!("v{session}q{k}l{lane}e{e}");
                        lane_reqs.push(Req {
                            line: format!(
                                "{{\"id\":\"{k}.d{lane}.{e}\",\"op\":\"solve_incremental\",\
                                 \"process\":\"{}\"}}",
                                esc(&edit_source(&base, session, &tag))
                            ),
                            check: Check::Edit { session, tag },
                            hit: false,
                            lane: Some(lane),
                        });
                    }
                    // Twin `t`'s pair key lives on lane `t`; the warm life
                    // stored it as (left, right), so (right, left) hits.
                    if lane == k % 2 {
                        let t = &c.twins[lane % c.twins.len()];
                        lane_reqs.push(Req {
                            line: equiv_line(&format!("{k}.e{lane}"), &t.right, &t.left),
                            check: Check::Distinguished,
                            hit: true,
                            lane: Some(lane),
                        });
                    }
                    rng.shuffle(&mut lane_reqs);
                    out.extend(lane_reqs);
                }
            }
        }
        out
    }
}
