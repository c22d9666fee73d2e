//! `yalibench`: the repository's end-to-end benchmark.
//!
//! ```text
//! yalibench --workload <sweep-resume|serve-mixed> --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints one line per metric (name, value, unit, sample count), a
//! provenance line, and as its last line one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics with nothing traced; `--trace 1` is the
//! separate traced run that reports the per-layer metrics. README.md
//! describes the workloads and what each metric should move.

mod child;
mod probe;
mod serve;
mod sweep;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use yalibench::{Metric, END_TO_END, PER_LAYER};

use child::Ctx;

const USAGE: &str =
    "usage: yalibench --workload <sweep-resume|serve-mixed> --seed N --seconds S --trace 0|1";

/// `--flag value` pairs.
struct Args(Vec<(String, String)>);

impl Args {
    fn parse() -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            let name = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {a:?}\n{USAGE}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.push((name.to_string(), value));
        }
        Ok(Args(flags))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required\n{USAGE}"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let v = self.require(name)?;
        v.parse()
            .map_err(|_| format!("--{name} {v:?} is not a number"))
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("yalibench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let started = Instant::now();
    let args = Args::parse()?;
    // Set before any thread exists; children get it from `Ctx::child`.
    std::env::set_var("YALI_THREADS", child::THREADS);
    if let Some(role) = args.get("role") {
        match role {
            "pass" => sweep::pass_main(
                args.num("seed")?,
                args.require("traced")? == "1",
                args.require("setup-only")? == "1",
            ),
            "check" => {
                let points = args
                    .require("points")?
                    .split(',')
                    .map(|p| p.parse().map_err(|_| format!("bad point {p:?}")))
                    .collect::<Result<Vec<usize>, String>>()?;
                sweep::check_main(args.num("seed")?, &points);
            }
            "daemon" => serve::daemon_main(args.num("seed")?)?,
            other => return Err(format!("unknown role {other:?}")),
        }
        return Ok(ExitCode::SUCCESS);
    }

    let workload = args.require("workload")?.to_string();
    let seconds: f64 = args.num("seconds")?;
    let trace = match args.require("trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace {t:?} is not 0 or 1")),
    };
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let scratch = PathBuf::from("yalibench")
        .join(".scratch")
        .join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let ctx = Ctx {
        exe: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
        scratch: scratch.clone(),
        seed: args.num("seed")?,
        seconds,
        started,
        trace,
    };
    let ticks = child::cpu_ticks();
    let result = match workload.as_str() {
        "sweep-resume" => sweep::run(&ctx),
        "serve-mixed" => serve::run(&ctx),
        w => Err(format!("unknown workload {w:?}\n{USAGE}")),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    // Only empty once no other run is using it.
    let _ = std::fs::remove_dir(scratch.parent().expect("scratch has a parent"));
    let (metrics, attempted, failed) = result?;
    // The share of the machine's CPU time its host took back during the
    // run: runs on a contended host read slower, whatever the code does.
    let steal = ticks
        .zip(child::cpu_ticks())
        .filter(|((_, t0), (_, t1))| t1 > t0)
        .map(|((s0, t0), (s1, t1))| (s1 - s0) as f64 / (t1 - t0) as f64);
    report(&ctx, &workload, metrics, attempted, failed, steal)?;
    Ok(ExitCode::SUCCESS)
}

/// Prints the human-readable table, the provenance line and the final
/// JSON object. The reported set must match the catalogue exactly.
fn report(
    ctx: &Ctx,
    workload: &str,
    mut metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    steal: Option<f64>,
) -> Result<(), String> {
    let catalogue: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    if ctx.trace {
        // Layers this workload does not exercise read 0 over 0 samples.
        for (name, _) in catalogue {
            if !metrics.iter().any(|m| m.name == *name) {
                metrics.push(Metric {
                    name: name.to_string(),
                    value: 0.0,
                    n: 0,
                });
            }
        }
    }
    let mut rows = Vec::new();
    for (name, unit) in catalogue {
        let m = metrics
            .iter()
            .find(|m| m.name == *name)
            .ok_or_else(|| format!("workload {workload} did not measure {name}"))?;
        if !m.value.is_finite() {
            return Err(format!("{name} is not finite: {}", m.value));
        }
        println!("{workload} {name} = {:.6} {unit} (n={})", m.value, m.n);
        rows.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            m.value
        ));
    }
    if let Some(extra) = metrics
        .iter()
        .find(|m| !catalogue.iter().any(|(n, _)| *n == m.name))
    {
        return Err(format!("{} is not in the catalogue", extra.name));
    }
    println!(
        "{workload} failed_frac = {:.6} frac (n={attempted})",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "provenance {{\"workload\": \"{workload}\", \"seed\": {}, \"trace\": {}, \"commit\": \"{}\", \
         \"gemm_kernel\": \"{:?}\", \"worker_count\": {}, \"nproc\": {}, \"host_steal_frac\": {}}}",
        ctx.seed,
        ctx.trace as u8,
        commit(),
        yali_ml::active_kernel(),
        yali_par::worker_count(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        steal.map_or("null".to_string(), |f| format!("{f:.4}")),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        rows.join(", ")
    );
    Ok(())
}

/// The commit under test: `git rev-parse HEAD` where the working
/// directory is a repository root, else "unknown".
fn commit() -> String {
    std::path::Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}
