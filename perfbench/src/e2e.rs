//! The end-to-end run: set the server up several times, send the
//! seeded stream in a closed loop for the measured time, then check
//! every reply and the server's hit/miss meters.

use crate::check::{check, check_reference, clip};
use crate::drive::{run_pass, run_stream, Sent};
use crate::gen::{Check, Generator, Workload};
use crate::server::{Conn, Server, ServerOpts};
use crate::util::{lines_digest, median, ms, num, quantile, section, Rng};
use crate::{metric, Ctx, Outcome};
use std::path::PathBuf;
use std::time::Duration;

/// Server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Solve replies checked against `solve_reference` per run.
const REFERENCE_SAMPLES: usize = 2;

/// Everything one server session produced.
pub struct Session {
    /// The timed requests, in send order.
    pub sent: Vec<Sent>,
    /// Untimed requests (the earlier life that fills the store, the
    /// incremental solver's priming), in send order.
    pub prelude: Vec<Sent>,
    /// The priming request, answered by the timed server life.
    pub priming: Option<Sent>,
    pub elapsed: Duration,
    pub setups: Vec<Duration>,
    pub cpu: Duration,
    pub rss_mb: f64,
    /// The server's `stats` reply after the timed phase.
    pub stats: String,
    /// Digest of pass 0 of the request stream.
    pub digest: String,
    pub passes: usize,
    /// A copy of the store as the timed life found it (`edit-session`).
    pub store_snapshot: Option<PathBuf>,
}

fn connections(server: &mut Server, pipe: bool) -> Result<Vec<Box<dyn Conn>>, String> {
    if pipe {
        Ok(vec![Box::new(
            server.pipe.take().ok_or("pipe already taken")?,
        )])
    } else {
        let mut v: Vec<Box<dyn Conn>> = Vec::new();
        for _ in 0..2 {
            v.push(Box::new(server.connect().map_err(|e| e.to_string())?));
        }
        Ok(v)
    }
}

/// Runs one server session of the workload, timing `passes` passes.
pub fn session(ctx: &Ctx, gen: &Generator<'_>, passes: usize) -> Result<Session, String> {
    let pipe = ctx.workload.pipe();
    let edit = ctx.workload == Workload::EditSession;
    let store = ctx.work.join("store");
    let opts = ServerOpts {
        binary: &ctx.nuspi,
        pipe,
        cache_dir: edit.then(|| store.clone()),
    };
    let start = |opts: &ServerOpts<'_>| {
        Server::start(opts).map_err(|e| format!("starting {}: {e}", ctx.nuspi.display()))
    };
    let mut prelude = Vec::new();
    let mut store_snapshot = None;
    if edit {
        // An earlier, untimed server life fills the store.
        let (mut warm, _) = start(&opts)?;
        let mut conns = connections(&mut warm, pipe)?;
        prelude = run_pass(&mut conns, gen.warm_set()).0;
        drop(conns);
        warm.stop();
        let snap = ctx.work.join("store-snapshot");
        std::fs::create_dir_all(&snap).map_err(|e| e.to_string())?;
        for entry in std::fs::read_dir(&store).map_err(|e| e.to_string())? {
            let entry = entry.map_err(|e| e.to_string())?;
            std::fs::copy(entry.path(), snap.join(entry.file_name())).map_err(|e| e.to_string())?;
        }
        store_snapshot = Some(snap);
    }
    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..SETUPS {
        let (s, d) = start(&opts)?;
        setups.push(d);
        if i + 1 < SETUPS {
            s.stop();
        } else {
            server = Some(s);
        }
    }
    let mut server = server.expect("at least one set-up");
    let mut conns = connections(&mut server, pipe)?;
    let priming = if edit {
        run_pass(&mut conns, vec![gen.priming()]).0.pop()
    } else {
        None
    };
    let cpu0 = server.cpu();
    let mut digest = String::new();
    let mut k = 0;
    let (sent, elapsed) = run_stream(&mut conns, || {
        if k == passes {
            return None;
        }
        let pass = gen.pass(k);
        if k == 0 {
            digest = lines_digest(pass.iter().map(|r| r.line.as_str()));
        }
        k += 1;
        Some(pass)
    });
    let cpu = server.cpu().saturating_sub(cpu0);
    let rss_mb = server.peak_rss_mb();
    let stats = conns[0]
        .round_trip("{\"op\":\"stats\"}")
        .map_err(|e| format!("final stats: {e}"))?;
    drop(conns);
    server.stop();
    Ok(Session {
        sent,
        prelude,
        priming,
        elapsed,
        setups,
        cpu,
        rss_mb,
        stats,
        digest,
        passes,
        store_snapshot,
    })
}

/// Checks every reply of the session (prelude included) against its
/// known answer; returns the failures and the timed requests' decided
/// count.
pub fn check_all(ctx: &Ctx, s: &Session) -> (Vec<String>, usize) {
    let mut failures = Vec::new();
    let mut decided = 0;
    let untimed = s.prelude.iter().chain(s.priming.as_ref());
    for (timed, x) in untimed
        .map(|x| (false, x))
        .chain(s.sent.iter().map(|x| (true, x)))
    {
        let verdict = x
            .reply
            .as_ref()
            .map_err(|e| format!("transport: {e}"))
            .and_then(|r| check(&x.req, r));
        match verdict {
            Ok(d) => decided += usize::from(d && timed),
            Err(e) => failures.push(format!("{}: {e}", clip(&x.req.line))),
        }
    }
    // Solve estimates against the reference solver, on a seeded sample,
    // outside the timed phase.
    let solves: Vec<&Sent> = s
        .sent
        .iter()
        .filter(|x| matches!(x.req.check, Check::Corpus { .. } | Check::Edit { .. }))
        .collect();
    let mut rng = Rng::derive(ctx.seed, 0x5A3F);
    for _ in 0..REFERENCE_SAMPLES.min(solves.len()) {
        let x = solves[rng.below(solves.len())];
        if let Ok(reply) = &x.reply {
            if let Err(e) = check_reference(&x.req, reply, ctx.seed) {
                failures.push(e);
            }
        }
    }
    if let Err(e) = check_meters(ctx.workload, s) {
        failures.push(e);
    }
    (failures, decided)
}

/// Cold and warm by construction: the server's meters must agree with
/// what the generator meant to be misses and hits.
fn check_meters(workload: Workload, s: &Session) -> Result<(), String> {
    let cache = section(&s.stats, "cache").ok_or("stats without a cache section")?;
    let (hits, misses) = (num(cache, "hits"), num(cache, "misses"));
    let uncacheable = num(&s.stats, "uncacheable");
    let meant_hits = s.sent.iter().filter(|x| x.req.hit).count() as f64;
    let meant_misses = (s.sent.len() + usize::from(s.priming.is_some())) as f64 - meant_hits;
    let ok = if workload == Workload::EditSession {
        // A disk hit is a memory miss; hits and misses are judged across
        // both tiers.
        let st = section(&s.stats, "store").ok_or("stats without a store section")?;
        let (disk_hits, disk_misses) = (num(st, "hits"), num(st, "misses"));
        hits + disk_hits == meant_hits && disk_misses == meant_misses && uncacheable == 0.0
    } else {
        hits == meant_hits && misses == meant_misses && uncacheable == 0.0
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "meters disagree with the stream: meant {meant_hits} hits / {meant_misses} misses, \
             server stats {}",
            clip(&s.stats)
        ))
    }
}

pub fn run(ctx: &Ctx, cases: &crate::cases::Cases) -> Result<Outcome, String> {
    let gen = Generator::new(ctx.workload, ctx.seed, cases);
    // Seed determinism: pass 0 regenerated from scratch is byte-identical.
    let again = lines_digest(
        Generator::new(ctx.workload, ctx.seed, cases)
            .pass(0)
            .iter()
            .map(|r| r.line.as_str()),
    );
    let s = session(ctx, &gen, ctx.workload.passes(ctx.seconds))?;
    let (mut failures, decided) = check_all(ctx, &s);
    if again != s.digest {
        failures.push("request stream is not a function of the seed".into());
    }
    println!(
        "# stream: {{\"workload\":\"{}\",\"seed\":{},\"pass0_digest\":\"{}\",\"passes\":{},\
         \"requests\":{},\"holdout_seed\":{}}}",
        ctx.workload.name(),
        ctx.seed,
        s.digest,
        s.passes,
        s.sent.len(),
        crate::HOLDOUT_SEED
    );
    let n = s.sent.len() as f64;
    let timed_failed = s
        .sent
        .iter()
        .filter(|x| x.reply.as_ref().map_or(true, |r| check(&x.req, r).is_err()))
        .count() as f64;
    let mut rtts: Vec<f64> = s.sent.iter().map(|x| ms(x.rtt)).collect();
    let mut setups: Vec<f64> = s.setups.iter().map(Duration::as_secs_f64).collect();
    let metrics = vec![
        metric("setup_s", median(&mut setups), "s"),
        metric("throughput_rps", n / s.elapsed.as_secs_f64(), "1/s"),
        metric("latency_p50_ms", median(&mut rtts), "ms"),
        metric(
            "latency_tail_ms",
            quantile(&mut rtts, ctx.workload.tail_percentile()),
            "ms",
        ),
        metric("server_cpu_ms_per_req", ms(s.cpu) / n, "ms"),
        metric("peak_rss_mb", s.rss_mb, "MiB"),
        metric("decided_share", decided as f64 / n, "share"),
        metric("answered_share", 1.0 - timed_failed / n, "share"),
    ];
    Ok(Outcome {
        attempted: s.prelude.len() + usize::from(s.priming.is_some()) + s.sent.len(),
        failures,
        metrics,
    })
}
