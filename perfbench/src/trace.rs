//! The traced run. It sends one pass of the seeded stream to the
//! server (for round-trip times and the server's own meters), then
//! replays the same requests in-process twice:
//!
//! * through a fresh [`AnalysisEngine`] (`answer_line`, the server's
//!   own entry point), for the in-process service time of each request;
//! * through each layer's public functions in the engine's order, every
//!   call wrapped in a span (name, start, end, parent, request).
//!
//! Spans live in memory and are written as JSON lines when the run
//! ends. No span is recorded inside the crates themselves.

use crate::check::check;
use crate::e2e::{check_all, session};
use crate::gen::{Check, Generator, Req, Workload};
use crate::util::{esc, ms, num, section};
use crate::{metric, Ctx, Metric, Outcome};
use nuspi_cfa::{solve, Constraints, IncrementalSolver, SolverStats};
use nuspi_diagnostics::{
    sort_diagnostics, to_json_compact, Diagnostic, LintConfig, LintContext, PassRegistry, Severity,
};
use nuspi_engine::jsonio::Json;
use nuspi_engine::{answer_line, AnalysisEngine, EngineConfig};
use nuspi_equiv::EquivConfig;
use nuspi_lang::{check_to_json_compact, CheckReport, SourcedDiagnostic, Verdict};
use nuspi_net::{DiskStore, StoreConfig};
use nuspi_security::{carefulness, confinement, reveals, Audit, IntruderConfig, Knowledge, Policy};
use nuspi_semantics::ExecConfig;
use nuspi_syntax::{canonical_digest, parse_process, Process, Symbol};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded call.
struct Span {
    name: String,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    req: usize,
}

/// An in-memory span recorder with an explicit parent stack.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    req: usize,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    fn begin(&mut self, name: impl Into<String>) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start: self.t0.elapsed(),
            end: Duration::ZERO,
            parent: self.stack.last().copied(),
            req: self.req,
        });
        self.stack.push(idx);
        idx
    }

    fn end(&mut self, idx: usize) {
        self.stack.pop();
        self.spans[idx].end = self.t0.elapsed();
    }

    fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.begin(name);
        let out = std::hint::black_box(f(self));
        self.end(idx);
        out
    }

    fn jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"req\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                esc(&s.name),
                s.req,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        out
    }
}

/// Counters the replay accumulates besides span times.
#[derive(Default)]
struct Meters {
    decoded_bytes: usize,
    parsed_bytes: usize,
    solutions: usize,
    productions: usize,
    firings: usize,
    rounds: usize,
    memo_hits: usize,
    memo_misses: usize,
    dolevyao_calls: usize,
    careful_states: usize,
    careful_truncated: usize,
    equiv_plays: usize,
    equiv_unknown: usize,
    lint_over_solve: f64,
}

impl Meters {
    fn solution(&mut self, st: &SolverStats) {
        self.solutions += 1;
        self.productions += st.productions;
        self.firings += st.conditional_firings;
        self.rounds += st.rounds;
        self.memo_hits += st.cache_hits;
        self.memo_misses += st.cache_misses;
    }
}

struct Replayer {
    tr: Tracer,
    m: Meters,
    incremental: IncrementalSolver,
    registry: PassRegistry,
}

/// A linted process, for the side measurements taken once its
/// request's span has closed.
struct Linted {
    process: Process,
    policy: Policy,
    lint: Duration,
}

fn secrets_of(v: &Json, key: &str) -> Vec<String> {
    v.get(key).and_then(Json::as_str_arr).unwrap_or_default()
}

fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key).and_then(Json::as_str).unwrap_or("")
}

impl Replayer {
    fn parse(&mut self, src: &str) -> Result<Process, String> {
        self.m.parsed_bytes += src.len();
        self.tr
            .span("syntax.parse", |_| parse_process(src))
            .map_err(|e| e.to_string())
    }

    fn digest(&mut self, p: &Process) {
        self.tr.span("syntax.digest", |_| canonical_digest(p));
    }

    /// `LintContext::with_config` → `semantic()` → each pass →
    /// `sort_diagnostics`; returns the sorted diagnostics and the time
    /// the chain took.
    fn lint_chain(&mut self, p: &Process, policy: &Policy) -> (Vec<Diagnostic>, Duration) {
        let t = Instant::now();
        let ctx = self.tr.span("diagnostics.context", |_| {
            LintContext::with_config(p, policy, LintConfig::default())
        });
        self.tr.span("cfa.attacker", |_| {
            ctx.semantic();
        });
        self.m.solution(ctx.semantic().traced_solution().stats());
        let mut diags = Vec::new();
        for pass in self.registry.passes() {
            let found = self
                .tr
                .span(format!("diagnostics.pass.{}", pass.name()), |_| {
                    pass.run(&ctx)
                });
            diags.extend(found);
        }
        self.tr
            .span("diagnostics.render", |_| sort_diagnostics(&mut diags));
        (diags, t.elapsed())
    }

    /// Outside any request span: the solve a lint is compared with (the
    /// attacker-composed solve, as `BENCH_lint`'s ratio uses), and the
    /// carefulness monitor's exploration size.
    fn lint_side(&mut self, linted: Linted) {
        let p = &linted.process;
        let policy = linted.policy.with_hidden_of(p);
        let opaque = policy.opaque_names().into_iter().collect();
        let t = Instant::now();
        self.tr.span("side.solve", |_| {
            nuspi_cfa::analyze_with_attacker(p, &opaque)
        });
        let solve = t.elapsed();
        self.m.lint_over_solve = self
            .m
            .lint_over_solve
            .max(linted.lint.as_secs_f64() / solve.as_secs_f64().max(1e-9));
        let report = self.tr.span("side.careful", |_| {
            carefulness(p, &policy, &ExecConfig::default())
        });
        self.m.careful_states += report.stats.states;
        self.m.careful_truncated += usize::from(report.stats.truncated);
    }

    /// Replays one request line; `req` carries the known answer. A lint
    /// request returns its process for the side measurements.
    fn replay(&mut self, req: &Req) -> Result<Option<Linted>, String> {
        let line = req.line.as_str();
        self.m.decoded_bytes += line.len();
        let v = self.tr.span("engine.json_decode", |_| Json::parse(line))?;
        let op = str_of(&v, "op").to_owned();
        if req.hit {
            // The engine's hit path: derive the cache key, nothing more.
            match op.as_str() {
                "analyze_source" => {
                    let src = str_of(&v, "source");
                    let c = self
                        .tr
                        .span("lang.compile", |_| {
                            nuspi_lang::compile(str_of(&v, "file"), src)
                        })
                        .map_err(|e| e.message)?;
                    self.digest(&c.process);
                }
                "equiv" => {
                    for side in ["left", "right"] {
                        let p = self.parse(str_of(&v, side))?;
                        self.digest(&p);
                    }
                }
                _ => {
                    let p = self.parse(str_of(&v, "process"))?;
                    self.digest(&p);
                }
            }
            return Ok(None);
        }
        match op.as_str() {
            "lint" => {
                let p = self.parse(str_of(&v, "process"))?;
                self.digest(&p);
                let policy =
                    Policy::with_secrets(secrets_of(&v, "secrets").iter().map(String::as_str));
                let (diags, lint) = self.lint_chain(&p, &policy);
                self.tr
                    .span("diagnostics.render", |_| to_json_compact(&diags));
                if let Check::Lint(golden) = &req.check {
                    let mut got: Vec<String> = diags.iter().map(|d| d.code.to_owned()).collect();
                    got.sort();
                    if &got != golden {
                        return Err(format!("replayed lint codes {got:?}, golden {golden:?}"));
                    }
                }
                return Ok(Some(Linted {
                    process: p,
                    policy,
                    lint,
                }));
            }
            "analyze_source" => {
                let (file, src) = (str_of(&v, "file"), str_of(&v, "source"));
                let c = self
                    .tr
                    .span("lang.compile", |_| nuspi_lang::compile(file, src))
                    .map_err(|e| e.message)?;
                self.digest(&c.process);
                let (diags, lint) = self.lint_chain(&c.process, &c.policy);
                let insecure = diags.iter().any(|d| d.severity == Severity::Error);
                let report = CheckReport {
                    file: file.to_owned(),
                    verdict: if insecure {
                        Verdict::Insecure
                    } else {
                        Verdict::Secure
                    },
                    diags: diags
                        .into_iter()
                        .map(|d| SourcedDiagnostic {
                            message: d.message.clone(),
                            diag: d,
                            origin: None,
                            sink: None,
                        })
                        .collect(),
                };
                self.tr
                    .span("diagnostics.render", |_| check_to_json_compact(&report));
                if let Check::Rung(want) = &req.check {
                    if report.verdict.as_str() != want {
                        return Err(format!("replayed verdict {}", report.verdict.as_str()));
                    }
                }
                return Ok(Some(Linted {
                    process: c.process,
                    policy: c.policy,
                    lint,
                }));
            }
            "audit" => {
                let p = self.parse(str_of(&v, "process"))?;
                self.digest(&p);
                let policy =
                    Policy::with_secrets(secrets_of(&v, "secrets").iter().map(String::as_str));
                let conf = self
                    .tr
                    .span("security.confine", |_| confinement(&p, &policy));
                self.m.solution(conf.solution.stats());
                let care = self.tr.span("security.careful", |_| {
                    carefulness(&p, &policy, &ExecConfig::default())
                });
                self.m.careful_states += care.stats.states;
                self.m.careful_truncated += usize::from(care.stats.truncated);
                let public: Vec<Symbol> = p
                    .free_names()
                    .into_iter()
                    .map(|n| n.canonical())
                    .filter(|n| policy.is_public(*n))
                    .collect();
                let k0 = Knowledge::from_names(public);
                let mut attacks = Vec::new();
                for s in policy.secrets() {
                    self.m.dolevyao_calls += 1;
                    let found = self.tr.span("security.dolevyao", |_| {
                        reveals(&p, &k0, s, &IntruderConfig::default())
                    });
                    attacks.extend(found.map(|a| (s, a)));
                }
                let report = Audit {
                    confinement: conf,
                    carefulness: care,
                    attacks,
                };
                self.tr.span("diagnostics.render", |_| report.to_string());
                if let Check::Audit(secure) = req.check {
                    if report.is_secure() != secure {
                        return Err(format!("replayed audit secure={}", report.is_secure()));
                    }
                }
            }
            "solve" => {
                let p = self.parse(str_of(&v, "process"))?;
                self.digest(&p);
                let c = self.tr.span("cfa.generate", |_| Constraints::generate(&p));
                let sol = self.tr.span("cfa.solve", |_| solve(c));
                self.m.solution(sol.stats());
                self.tr
                    .span("diagnostics.render", |_| sol.render_estimate_for(&p, 3));
            }
            "solve_incremental" => {
                let p = self.parse(str_of(&v, "process"))?;
                self.digest(&p);
                let inc = &mut self.incremental;
                let (sol, _) = self.tr.span("cfa.incremental", |_| inc.solve(&p));
                self.m.solution(sol.stats());
                self.tr
                    .span("diagnostics.render", |_| sol.render_estimate_for(&p, 3));
            }
            "equiv" => {
                let l = self.parse(str_of(&v, "left"))?;
                let r = self.parse(str_of(&v, "right"))?;
                let dl = self.tr.span("syntax.digest", |_| canonical_digest(&l).0);
                let dr = self.tr.span("syntax.digest", |_| canonical_digest(&r).0);
                let (lo, hi) = if dl <= dr { (&l, &r) } else { (&r, &l) };
                let mut public: Vec<Symbol> = lo
                    .free_names()
                    .into_iter()
                    .chain(hi.free_names())
                    .map(|n| n.canonical())
                    .collect();
                public.sort_by_key(|s| s.as_str().to_owned());
                public.dedup();
                let report = self.tr.span("equiv.check", |_| {
                    nuspi_equiv::check(lo, hi, &public, &EquivConfig::default())
                });
                self.m.equiv_plays += report.plays;
                let tag = report.verdict.tag();
                self.m.equiv_unknown += usize::from(tag == "unknown");
                if tag != "distinguished" {
                    return Err(format!("replayed equiv verdict {tag}"));
                }
            }
            other => return Err(format!("unexpected op `{other}`")),
        }
        Ok(None)
    }
}

fn dur(s: &Span) -> Duration {
    s.end.saturating_sub(s.start)
}

pub fn run(ctx: &Ctx, cases: &crate::cases::Cases) -> Result<Outcome, String> {
    let gen = Generator::new(ctx.workload, ctx.seed, cases);
    let s = session(ctx, &gen, 1)?;
    let (mut failures, _) = check_all(ctx, &s);
    let n = s.sent.len().max(1) as f64;

    // In-process service time: the server's own entry point on a fresh
    // engine in the same state (same store contents, same priming).
    let mut engine = AnalysisEngine::new(EngineConfig {
        jobs: 2,
        ..EngineConfig::default()
    });
    if let Some(dir) = &s.store_snapshot {
        let store = DiskStore::open(StoreConfig {
            dir: dir.clone(),
            max_bytes: 0,
            min_compute: Duration::ZERO,
            fsync: true,
        })
        .map_err(|e| format!("store snapshot: {e}"))?;
        engine.set_store(Arc::new(store));
    }
    if let Some(p) = &s.priming {
        answer_line(&engine, &p.req.line);
    }
    if ctx.workload != Workload::EditSession {
        // One untimed request of the next pass first, so the engine's
        // threads and heap are warm like the server's; cold workloads
        // never share a key between passes.
        if let Some(r) = gen.pass(1).first() {
            answer_line(&engine, &r.line);
        }
    }
    let mut submit = Vec::new();
    for x in &s.sent {
        let t = Instant::now();
        let out = answer_line(&engine, &x.req.line);
        submit.push(t.elapsed());
        let line = out.first().map(|r| r.to_line()).unwrap_or_default();
        if let Err(e) = check(&x.req, &line) {
            failures.push(format!(
                "in-process {}: {e}",
                crate::check::clip(&x.req.line)
            ));
        }
    }
    drop(engine);

    // The layer replay.
    let mut rp = Replayer {
        tr: Tracer::new(),
        m: Meters::default(),
        incremental: IncrementalSolver::new(2),
        registry: PassRegistry::with_defaults(),
    };
    if ctx.workload == Workload::EditSession {
        let base = parse_process(&gen.edit_base()).map_err(|e| e.to_string())?;
        rp.incremental.solve(&base);
    }
    for (i, x) in s.sent.iter().enumerate() {
        rp.tr.req = i;
        let root = rp.tr.begin("request");
        let res = rp.replay(&x.req);
        rp.tr.end(root);
        match res {
            Ok(Some(linted)) => rp.lint_side(linted),
            Ok(None) => {}
            Err(e) => failures.push(format!("replay {}: {e}", crate::check::clip(&x.req.line))),
        }
    }

    // Span accounting: per-name totals inside requests, and each root's
    // time not covered by its direct children.
    let spans = &rp.tr.spans;
    let mut total: BTreeMap<&str, Duration> = BTreeMap::new();
    let (mut root_sum, mut unattributed) = (Duration::ZERO, Duration::ZERO);
    let mut covered = vec![Duration::ZERO; spans.len()];
    let mut in_requests = 0usize;
    for sp in spans.iter() {
        if let Some(p) = sp.parent {
            covered[p] += dur(sp);
        }
    }
    for (i, sp) in spans.iter().enumerate() {
        if sp.name.starts_with("side.") {
            continue;
        }
        in_requests += 1;
        if sp.name == "request" {
            root_sum += dur(sp);
            unattributed += dur(sp).saturating_sub(covered[i]);
        } else {
            *total.entry(sp.name.as_str()).or_default() += dur(sp);
        }
    }
    let per_req = |name: &str| total.get(name).map_or(0.0, |d| ms(*d) / n);
    let rate = |bytes: usize, name: &str| {
        let secs = total.get(name).map_or(0.0, Duration::as_secs_f64);
        if secs > 0.0 {
            bytes as f64 / 1e6 / secs
        } else {
            0.0
        }
    };
    let mut cal = Tracer::new();
    let t = Instant::now();
    for _ in 0..20_000 {
        cal.span("calibration", |_| ());
    }
    let per_span = t.elapsed().as_secs_f64() / 20_000.0;

    let stats = &s.stats;
    let cache = section(stats, "cache").unwrap_or("");
    let lookups = num(cache, "hits") + num(cache, "misses");
    let store = section(stats, "store").unwrap_or("");
    let store_lookups = num(store, "hits") + num(store, "misses");
    let inc = section(stats, "incremental").unwrap_or("");
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let submit_ms: Vec<f64> = submit.iter().map(|d| ms(*d)).collect();
    let transport: f64 = s
        .sent
        .iter()
        .zip(&submit_ms)
        .map(|(x, sub)| ms(x.rtt) - sub)
        .sum::<f64>()
        / n;
    let reply_bytes: usize = s
        .sent
        .iter()
        .map(|x| x.reply.as_ref().map_or(0, String::len))
        .sum();
    let m = &rp.m;
    let sols = m.solutions.max(1) as f64;
    let mut metrics: Vec<Metric> = vec![
        metric("engine.json_decode.ms", per_req("engine.json_decode"), "ms"),
        metric(
            "engine.json_decode.mb_per_s",
            rate(m.decoded_bytes, "engine.json_decode"),
            "MB/s",
        ),
        metric("engine.submit.ms", submit_ms.iter().sum::<f64>() / n, "ms"),
        // Hits of either tier: a disk hit is a memory miss in `cache`.
        metric(
            "engine.cache.hit_ratio",
            ratio(num(cache, "hits") + num(store, "hits"), lookups),
            "share",
        ),
        metric("engine.response.bytes", reply_bytes as f64 / n, "bytes"),
        metric("net.transport.ms", transport, "ms"),
        metric(
            "net.store.hit_ratio",
            ratio(num(store, "hits"), store_lookups),
            "share",
        ),
        metric("net.store.admits", num(store, "admits"), "count"),
        metric("syntax.parse.ms", per_req("syntax.parse"), "ms"),
        metric(
            "syntax.parse.mb_per_s",
            rate(m.parsed_bytes, "syntax.parse"),
            "MB/s",
        ),
        metric("syntax.digest.ms", per_req("syntax.digest"), "ms"),
        metric("lang.compile.ms", per_req("lang.compile"), "ms"),
        metric("cfa.generate.ms", per_req("cfa.generate"), "ms"),
        metric("cfa.solve.ms", per_req("cfa.solve"), "ms"),
        metric("cfa.attacker.ms", per_req("cfa.attacker"), "ms"),
        metric("cfa.productions", m.productions as f64 / sols, "count"),
        metric("cfa.conditional_firings", m.firings as f64 / sols, "count"),
        metric(
            "cfa.memo.hit_ratio",
            ratio(m.memo_hits as f64, (m.memo_hits + m.memo_misses) as f64),
            "share",
        ),
        metric("cfa.rounds", m.rounds as f64 / sols, "count"),
        metric("cfa.incremental.ms", per_req("cfa.incremental"), "ms"),
        metric(
            "cfa.incremental.reuse_ratio",
            ratio(num(inc, "reuse_hits"), num(inc, "components")),
            "share",
        ),
        metric("security.dolevyao.ms", per_req("security.dolevyao"), "ms"),
        metric("security.dolevyao.calls", m.dolevyao_calls as f64, "count"),
        metric(
            "security.careful.ms",
            per_req("security.careful") + per_req("diagnostics.pass.carefulness"),
            "ms",
        ),
        metric("security.careful.states", m.careful_states as f64, "count"),
        metric(
            "security.careful.truncated",
            m.careful_truncated as f64,
            "count",
        ),
        metric("security.confine.ms", per_req("security.confine"), "ms"),
        metric(
            "diagnostics.context.ms",
            per_req("diagnostics.context"),
            "ms",
        ),
    ];
    for pass in rp.registry.passes() {
        let name = format!("diagnostics.pass.{}", pass.name());
        metrics.push(metric(format!("{name}.ms"), per_req(&name), "ms"));
    }
    metrics.extend([
        metric("diagnostics.render.ms", per_req("diagnostics.render"), "ms"),
        metric("diagnostics.lint_over_solve", m.lint_over_solve, "ratio"),
        metric("equiv.check.ms", per_req("equiv.check"), "ms"),
        metric("equiv.plays", m.equiv_plays as f64, "count"),
        metric("equiv.unknown", m.equiv_unknown as f64, "count"),
        metric("trace.request.ms", ms(root_sum) / n, "ms"),
        metric(
            "trace.unattributed_share",
            ratio(unattributed.as_secs_f64(), root_sum.as_secs_f64()),
            "share",
        ),
        metric(
            "trace.replay_over_submit",
            ratio(ms(root_sum), submit_ms.iter().sum()),
            "ratio",
        ),
        metric(
            "trace.overhead_share",
            ratio(per_span * in_requests as f64, root_sum.as_secs_f64()),
            "share",
        ),
    ]);

    // The breakdown, largest layer first, and the spans as JSON lines.
    let mut layers: Vec<(&str, Duration)> = total.into_iter().collect();
    layers.sort_by_key(|l| std::cmp::Reverse(l.1));
    let shares: Vec<String> = layers
        .iter()
        .take(6)
        .map(|(name, d)| {
            format!(
                "\"{name}\":{:.3}",
                ratio(d.as_secs_f64(), root_sum.as_secs_f64())
            )
        })
        .collect();
    let dir = ctx.root.join(".perfbench_work").join("traces");
    let path = dir.join(format!("{}-seed{}.jsonl", ctx.workload.name(), ctx.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, rp.tr.jsonl()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "# breakdown: {{\"workload\":\"{}\",\"requests\":{},\"spans\":{},\"dominant\":\"{}\",\
         \"shares\":{{{}}}}}",
        ctx.workload.name(),
        s.sent.len(),
        spans.len(),
        layers.first().map_or("none", |l| l.0),
        shares.join(",")
    );
    Ok(Outcome {
        attempted: s.prelude.len() + usize::from(s.priming.is_some()) + s.sent.len(),
        failures,
        metrics,
    })
}
