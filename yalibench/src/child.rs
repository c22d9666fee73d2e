//! Child processes: every measured pass, the output check and the serve
//! daemon run as a fresh copy of this binary (`--role ...`), so each
//! starts with empty memory caches and its own peak-RSS counter.
//!
//! A child talks to its parent in stdout lines of space-separated fields
//! led by a tag; `ready` marks the end of its set-up.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use yalibench::Metric;

/// Worker threads every measured process runs with.
pub const THREADS: &str = "2";

/// What every workload needs to know.
pub struct Ctx {
    /// This binary, re-executed for child roles.
    pub exe: PathBuf,
    /// Per-run scratch directory inside the checkout.
    pub scratch: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// When the run started.
    pub started: Instant,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Ctx {
    /// A child command for `role`, with a clean `YALI_*` environment and
    /// the benchmark's thread count.
    pub fn child(&self, role_args: &[&str]) -> Command {
        let mut cmd = Command::new(&self.exe);
        cmd.arg("--role").args(role_args);
        // Every measured process runs on the defaults, whatever the
        // caller's environment holds.
        for var in [
            "YALI_CACHE",
            "YALI_STORE",
            "YALI_OBS",
            "YALI_TRACE",
            "YALI_SCALE",
            "YALI_SERVE_QUEUE",
            "YALI_SERVE_DEADLINE_US",
            "YALI_SERVE_SLO_P99_MS",
        ] {
            cmd.env_remove(var);
        }
        cmd.env("YALI_THREADS", THREADS)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        cmd
    }
}

/// One stdout line of a child.
pub struct Line(String);

impl Line {
    /// The leading tag.
    pub fn tag(&self) -> &str {
        self.0.split(' ').next().unwrap_or("")
    }

    /// All fields, tag first.
    pub fn fields(&self) -> Vec<&str> {
        self.0.split(' ').collect()
    }

    /// Field `i` as a number.
    pub fn num(&self, i: usize) -> Result<f64, String> {
        self.fields()
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("child line {:?}: field {i} is not a number", self.0))
    }

    /// An `m <name> <value> <n>` line as a metric.
    pub fn metric(&self) -> Result<Metric, String> {
        let f = self.fields();
        Ok(Metric {
            name: f.get(1).ok_or("metric line without a name")?.to_string(),
            value: self.num(2)?,
            n: self.num(3)? as usize,
        })
    }
}

/// A finished child's report.
pub struct Output {
    /// Seconds from spawn to the child's `ready` line.
    pub ready_s: Option<f64>,
    /// Every stdout line.
    pub lines: Vec<Line>,
}

/// Runs `cmd` to completion, timing spawn → `ready`.
pub fn run(mut cmd: Command) -> Result<Output, String> {
    let t = Instant::now();
    let mut proc = cmd.spawn().map_err(|e| format!("spawn child: {e}"))?;
    let stdout = proc.stdout.take().expect("stdout is piped");
    let mut out = Output {
        ready_s: None,
        lines: Vec::new(),
    };
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("read child: {e}"))?;
        if line == "ready" && out.ready_s.is_none() {
            out.ready_s = Some(t.elapsed().as_secs_f64());
        }
        out.lines.push(Line(line));
    }
    let status = proc.wait().map_err(|e| format!("wait child: {e}"))?;
    if !status.success() {
        return Err(format!("child {cmd:?} failed: {status}"));
    }
    Ok(out)
}

/// Spawns a long-lived child and returns it once it prints a line
/// starting with `ready`, with the seconds that took and that line.
pub fn spawn_ready(mut cmd: Command) -> Result<(Child, f64, String), String> {
    let t = Instant::now();
    let mut proc = cmd.spawn().map_err(|e| format!("spawn child: {e}"))?;
    let stdout = proc.stdout.take().expect("stdout is piped");
    let mut line = String::new();
    let read = BufReader::new(stdout).read_line(&mut line);
    let elapsed = t.elapsed().as_secs_f64();
    match read {
        Ok(_) if line.starts_with("ready") => Ok((proc, elapsed, line.trim_end().to_string())),
        other => {
            let _ = proc.kill();
            let _ = proc.wait();
            Err(format!("child never said ready ({other:?}, {line:?})"))
        }
    }
}

/// Writes one line to the parent.
pub fn say(line: &str) {
    println!("{line}");
}

/// A human-readable note on stderr.
pub fn note(msg: &str) {
    eprintln!("yalibench: {msg}");
}

/// Peak resident set (`VmHWM`) of process `pid` (or `"self"`) in KiB;
/// 0 where `/proc` is unavailable.
pub fn peak_rss_kb(pid: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// CPU time stolen from this machine by its hypervisor, and all CPU
/// time, in clock ticks summed over CPUs since boot (`/proc/stat`);
/// `None` where that file is missing.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// CPU time (user and system, all threads) process `pid` has used so
/// far, in seconds, from `/proc/<pid>/stat`; `None` where that is
/// unreadable. Counts `USER_HZ` ticks of 1/100 s, the value on every
/// mainstream Linux architecture.
pub fn cpu_s(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name, from field 3 (state):
    // utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}
