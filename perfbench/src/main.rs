//! `perfbench`: the end-to-end benchmark of `nuspi serve`.
//!
//! ```text
//! perfbench --workload <lint-cold|audit-cold|solve-corpus|edit-session>
//!           --seed N --seconds S --trace 0|1 --nuspi PATH
//! ```
//!
//! With `--trace 0` it drives the release server in a closed loop and
//! reports the end-to-end metrics; with `--trace 1` it sends one pass
//! of the same seeded stream, then replays it in-process through each
//! layer's public functions and reports the per-layer metrics. The last
//! stdout line is the result object; `#` lines before it are the header.
//! See `perfbench/README.md` for every metric's definition.

mod cases;
mod check;
mod drive;
mod e2e;
mod gen;
mod server;
mod trace;
mod util;

use gen::Workload;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// The seed held out for checking claims on data not used while
/// writing a change (see README).
pub const HOLDOUT_SEED: u64 = 7919;

pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nuspi: PathBuf,
    pub root: PathBuf,
    /// Scratch space inside the checkout, removed at exit.
    pub work: PathBuf,
}

/// A metric value with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a run reports.
pub struct Outcome {
    pub attempted: usize,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

fn usage() -> String {
    "usage: perfbench --workload <lint-cold|audit-cold|solve-corpus|edit-session> \
     --seed N --seconds S --trace 0|1 --nuspi PATH"
        .to_owned()
}

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut nuspi) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned().ok_or_else(usage);
        match a.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    val()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(val()?),
            "--nuspi" => nuspi = Some(PathBuf::from(val()?)),
            _ => return Err(usage()),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    let workload =
        Workload::parse(&workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let trace = match trace.as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(t) => return Err(format!("--trace must be 0 or 1, not `{t}`")),
    };
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let seed = seed.ok_or_else(usage)?;
    let work = root.join(".perfbench_work").join(format!(
        "{}-{seed}-{}-{}",
        workload.name(),
        u8::from(trace),
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    Ok(Ctx {
        workload,
        seed,
        seconds: seconds.ok_or_else(usage)?,
        trace,
        nuspi: nuspi.ok_or_else(usage)?,
        root,
        work,
    })
}

fn header(ctx: &Ctx) {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_owned());
    let conns = if ctx.workload.pipe() { 1 } else { 2 };
    println!(
        "# host: {{\"cores\":{cores},\"profile\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\
         \"generator_threads\":{conns},\"connections\":{conns},\"server_jobs\":2}}",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        util::esc(&env("PERFBENCH_RUSTC")),
        util::esc(&env("PERFBENCH_COMMIT")),
    );
}

fn render(o: &Outcome) -> String {
    let mut m = String::new();
    for (i, x) in o.metrics.iter().enumerate() {
        let v = if x.value.is_finite() { x.value } else { 0.0 };
        let _ = write!(
            m,
            "{}\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}",
            if i > 0 { "," } else { "" },
            x.name,
            x.unit
        );
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{m}}}}}",
        o.failures.is_empty(),
        o.attempted.max(1),
        o.failures.len()
    )
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    header(&ctx);
    // A run must end well inside three minutes; a server that stops
    // answering on the pipe (which has no read timeout) must not hang it.
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(170));
        eprintln!("perfbench: run exceeded 170 s");
        std::process::exit(3);
    });
    let result = cases::load(&ctx.root).and_then(|cases| {
        if ctx.trace {
            trace::run(&ctx, &cases)
        } else {
            e2e::run(&ctx, &cases)
        }
    });
    let _ = std::fs::remove_dir_all(&ctx.work);
    let _ = std::fs::remove_dir(ctx.work.parent().expect("work has a parent"));
    match result {
        Ok(outcome) => {
            for f in outcome.failures.iter().take(20) {
                eprintln!("perfbench: FAILED {f}");
            }
            println!("{}", render(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
