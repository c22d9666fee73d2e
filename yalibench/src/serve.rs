//! The `serve-mixed` workload: a `yali-serve` daemon in its own process
//! (tenants lr, mlp and cnn trained from scratch, plus the signature
//! anti-virus), driven open-loop over one pipelined connection by one
//! sender and one receiver thread.
//!
//! The mix is classify rows spread over the three model lanes —
//! histograms of corpus programs untransformed, under ollvm and under
//! O3 — plus `SCAN_SHARE` scan requests carrying MiniC source. Every
//! request is timed from its due time, so a generator stall is charged
//! to the requests behind it, and every verdict is checked against a
//! local oracle trained with the daemon's own arguments.

use std::io::{BufReader, BufWriter, ErrorKind, Write};
use std::net::TcpStream;
use std::process::Child;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use yali_core::{Corpus, SignatureScanner, Transformer};
use yali_ml::{ModelKind, VectorClassifier};
use yali_serve::protocol::{self, Reply, Request};
use yali_serve::{train_tenants, Batcher, Client, Trigger};
use yalibench::stats::{self, Summary};
use yalibench::Metric;

use crate::child::{self, Ctx};
use crate::probe;

/// The daemon's tenant lanes, in roster order.
const MODELS: [ModelKind; 3] = [ModelKind::Lr, ModelKind::Mlp, ModelKind::Cnn];
const CLASSES: usize = 8;
const PER_CLASS: usize = 12;
/// Share of requests that are `Scan`s.
const SCAN_SHARE: f64 = 0.05;
/// The light rate (requests/s): each lane sees one or two rows per
/// batching deadline, so batches dispatch on the deadline nearly empty.
const LIGHT_RATE: f64 = 2_000.0;
/// The operating rate (requests/s): batches carry several rows, well
/// below the knee.
const OPERATING_RATE: f64 = 6_000.0;
/// The latency limit of the max-rate search, in milliseconds, on the
/// windowed classify median: far above the operating rate's (about
/// 2 ms), so a rate misses it only once a backlog builds. A limit on the
/// p99 instead measured how often the shared machine stalled threads,
/// which moved the found rate by half between runs.
const LIMIT_MS: f64 = 25.0;
/// A rate that refuses (or times out) more than this share of its
/// classify requests is not met.
const MAX_REFUSED_FRAC: f64 = 0.01;
/// The max-rate search bisects between these rates (requests/s). The
/// knee sits near 25 000/s on a 2-core machine; the ceiling leaves room
/// for a faster daemon to show.
const SEARCH_LO: f64 = OPERATING_RATE;
const SEARCH_HI: f64 = 60_000.0;
const SEARCH_STEPS: usize = 6;
/// Independent searches per run; the reported rate is their median.
/// More, shorter searches did worse: a probe of under half a second
/// can end before a slowly growing backlog crosses the limit, and such
/// probes met rates half again above the knee.
const SEARCHES: usize = 3;
/// A request sent this long after its due time is late.
const LATE_MS: f64 = 2.5;
/// A rate whose generator sent more than this share late fell behind
/// and is not met. A generator that cannot keep up sends nearly every
/// request late; wake-up delays of a sleeping sender on a busy shared
/// machine made up to a third late at the light rate, and those delays
/// are already charged to the latencies, which run from the due time.
const MAX_LATE_FRAC: f64 = 0.5;
/// Rounds per timed run. Each starts a fresh daemon (one `setup_s`
/// sample) and drives a light and an operating sub-phase, so a slow
/// spell of a shared machine is spread over every metric instead of
/// landing on one.
const ROUNDS: usize = 5;
/// Latency statistics are medians over windows of this many requests,
/// each window's tail by the ten-beyond rule: p90. Medians over many
/// short windows hold steady through the stalls of a shared machine;
/// p99 windows of 1000 requests did not.
const WINDOW: usize = 100;
/// How long the generator waits for outstanding replies after the last
/// send before counting the rest as timed out.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Child role `daemon`: trains the tenants from scratch, binds an
/// ephemeral port, says `ready <addr>`, and serves until `SHUTDOWN`.
pub fn daemon_main(seed: u64) -> Result<(), String> {
    let tenants = train_tenants(&MODELS, CLASSES, PER_CLASS, seed);
    let server = yali_serve::Server::bind_with(
        "127.0.0.1:0",
        tenants,
        yali_serve::config_from_env(),
        yali_serve::live_config_from_env(),
    )
    .map_err(|e| format!("bind: {e}"))?;
    child::say(&format!("ready {}", server.local_addr()));
    server.run().map_err(|e| format!("serve: {e}"))
}

/// A running daemon; killed and reaped on drop if not shut down.
struct Daemon {
    proc: Child,
    addr: String,
    setup_s: f64,
}

impl Daemon {
    fn start(ctx: &Ctx) -> Result<Daemon, String> {
        let mut cmd = ctx.child(&["daemon", "--seed", &ctx.seed.to_string()]);
        // Overload probes trigger flight-recorder dumps; keep them in scratch.
        cmd.env("YALI_SERVE_DUMP_DIR", &ctx.scratch);
        let (proc, setup_s, line) = child::spawn_ready(cmd)?;
        let addr = line
            .strip_prefix("ready ")
            .ok_or("daemon ready line without an address")?
            .to_string();
        Ok(Daemon {
            proc,
            addr,
            setup_s,
        })
    }

    fn peak_rss_mb(&self) -> f64 {
        child::peak_rss_kb(&self.proc.id().to_string()) as f64 / 1024.0
    }

    fn cpu_s(&self) -> Result<f64, String> {
        child::cpu_s(&self.proc.id().to_string()).ok_or_else(|| "daemon CPU time unreadable".into())
    }

    fn shutdown(mut self) -> Result<(), String> {
        let mut c = Client::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        // The daemon may exit before its ack reaches the socket; its
        // exit status is the answer that counts.
        match c.shutdown() {
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::UnexpectedEof | ErrorKind::ConnectionReset
                ) => {}
            Err(e) => return Err(format!("shutdown: {e}")),
        }
        let status = self.proc.wait().map_err(|e| format!("wait daemon: {e}"))?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.proc.try_wait() {
            let _ = self.proc.kill();
            let _ = self.proc.wait();
        }
    }
}

/// The workload's inputs and the oracle's verdict for each.
struct Mix {
    /// Feature rows (histograms under none, ollvm, O3).
    rows: Vec<Vec<f64>>,
    /// `labels[lane][row]`: the oracle's label.
    labels: Vec<Vec<u32>>,
    /// Scan sources and the oracle's `(malware, ratio bits)`.
    sources: Vec<(String, bool, u64)>,
    /// The oracle, kept for the traced run's layer probes.
    models: Vec<VectorClassifier>,
    scanner: SignatureScanner,
}

impl Mix {
    fn build(seed: u64) -> Mix {
        let tenants = train_tenants(&MODELS, CLASSES, PER_CLASS, seed);
        let corpus = Corpus::poj(CLASSES, PER_CLASS, seed ^ 0x5E12);
        let transformers = [
            Transformer::None,
            Transformer::Ir(yali_obf::IrObf::Ollvm),
            Transformer::Opt(yali_opt::OptLevel::O3),
        ];
        let rows: Vec<Vec<f64>> =
            transformers
                .iter()
                .flat_map(|t| {
                    corpus.samples.iter().enumerate().map(move |(i, s)| {
                        yali_embed::histogram(&t.apply(&s.program, seed ^ i as u64))
                    })
                })
                .collect();
        let models: Vec<VectorClassifier> = tenants.models.into_iter().map(|(_, m)| m).collect();
        let labels = models
            .iter()
            .map(|m| {
                m.predict_batch(&rows)
                    .into_iter()
                    .map(|l| l as u32)
                    .collect()
            })
            .collect();
        let scanner = tenants.scanner.expect("train_tenants builds the scanner");
        let sources = (0..16u64)
            .flat_map(|k| {
                [
                    yali_dataset::mirai_variant(seed ^ (0x3000 + k)),
                    yali_dataset::benign_program(seed ^ (0x4000 + k)),
                ]
            })
            .map(|p| {
                let src = yali_minic::print(&p);
                let m = yali_minic::compile(&src).expect("printed MiniC compiles");
                let verdict = scanner.is_malware(&m);
                (src, verdict, scanner.match_ratio(&m).to_bits())
            })
            .collect();
        Mix {
            rows,
            labels,
            sources,
            models,
            scanner,
        }
    }

    /// The request stream of one phase: `n` requests, seeded per phase.
    fn requests(&self, seed: u64, phase: u64, n: usize) -> Vec<Req> {
        let mut rng =
            rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ phase.wrapping_mul(0x9E37_79B9));
        (0..n)
            .map(|_| {
                if rng.gen_bool(SCAN_SHARE) {
                    Req::Scan(rng.gen_range(0..self.sources.len()))
                } else {
                    Req::Classify(
                        rng.gen_range(0..MODELS.len()) as u8,
                        rng.gen_range(0..self.rows.len()),
                    )
                }
            })
            .collect()
    }

    fn request(&self, r: Req) -> Request {
        match r {
            Req::Classify(lane, row) => Request::Classify {
                model: lane,
                features: self.rows[row].clone(),
            },
            Req::Scan(i) => Request::Scan {
                source: self.sources[i].0.clone(),
            },
        }
    }

    fn correct(&self, r: Req, reply: &Reply) -> bool {
        match (r, reply) {
            (Req::Classify(lane, row), Reply::Label(l)) => self.labels[lane as usize][row] == *l,
            (Req::Scan(i), Reply::Scan { malware, ratio }) => {
                let (_, want_malware, want_ratio) = self.sources[i];
                *malware == want_malware && ratio.to_bits() == want_ratio
            }
            _ => false,
        }
    }
}

/// One request of the mix: a classify `(lane, row)` or a scan source.
#[derive(Debug, Clone, Copy)]
enum Req {
    Classify(u8, usize),
    Scan(usize),
}

/// How one request fared.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    /// Correct verdict, with its latency from the due time.
    Ok(f64),
    /// Refused as overloaded, or no reply in time.
    Refused,
    /// A verdict that disagrees with the oracle, or a malformed reply.
    Wrong,
}

/// The outcome of one open-loop phase.
struct Phase {
    rate: f64,
    reqs: Vec<Req>,
    fates: Vec<Fate>,
    /// Send time minus due time, per request.
    late_ms: Vec<f64>,
    /// Correct replies per second from the first due time to the last
    /// reply.
    achieved_per_s: f64,
}

impl Phase {
    /// Latencies (ms) of the requests matching `scan`, refused and wrong
    /// ones as infinity: they miss any limit.
    fn latencies(&self, scan: bool) -> Vec<f64> {
        self.reqs
            .iter()
            .zip(&self.fates)
            .filter(|(r, _)| matches!(r, Req::Scan(_)) == scan)
            .map(|(_, f)| match f {
                Fate::Ok(ms) => *ms,
                _ => f64::INFINITY,
            })
            .collect()
    }

    /// Requests that got a correct verdict.
    fn served(&self) -> usize {
        self.fates
            .iter()
            .filter(|f| matches!(f, Fate::Ok(_)))
            .count()
    }

    fn failed(&self) -> u64 {
        self.fates
            .iter()
            .filter(|f| !matches!(f, Fate::Ok(_)))
            .count() as u64
    }

    fn wrong(&self) -> u64 {
        self.fates.iter().filter(|f| **f == Fate::Wrong).count() as u64
    }

    fn late_frac(&self) -> f64 {
        self.late_ms.iter().filter(|&&l| l > LATE_MS).count() as f64
            / self.late_ms.len().max(1) as f64
    }

    fn max_late_ms(&self) -> f64 {
        self.late_ms.iter().copied().fold(0.0, f64::max)
    }

    /// Mean latency of the requests that got a correct verdict.
    fn mean_ok_ms(&self) -> f64 {
        let ok: Vec<f64> = self
            .fates
            .iter()
            .filter_map(|f| match f {
                Fate::Ok(ms) => Some(*ms),
                _ => None,
            })
            .collect();
        ok.iter().sum::<f64>() / ok.len().max(1) as f64
    }
}

/// Classify latencies of each phase, one series per phase.
fn classify_series(phases: &[&Phase]) -> Vec<Vec<f64>> {
    phases.iter().map(|p| p.latencies(false)).collect()
}

/// Whether `phases` meet the limit together: the windowed classify
/// median within `LIMIT_MS` over all windows and over each phase's
/// second half (no growing backlog), at most `MAX_REFUSED_FRAC` of
/// classify requests refused or wrong (they count as infinitely late),
/// and a generator that kept up.
fn slo_met(phases: &[&Phase]) -> bool {
    let series = classify_series(phases);
    let second_halves: Vec<Vec<f64>> = series.iter().map(|l| l[l.len() / 2..].to_vec()).collect();
    let within = |s: &[Vec<f64>]| stats::windowed(s, WINDOW).is_some_and(|w| w.p50 <= LIMIT_MS);
    let total = |f: &dyn Fn(&Phase) -> f64| phases.iter().map(|p| f(p)).sum::<f64>();
    let classify = total(&|p| p.latencies(false).len() as f64).max(1.0);
    let refused = total(&|p| {
        p.latencies(false)
            .iter()
            .filter(|l| l.is_infinite())
            .count() as f64
    });
    let late =
        total(&|p| p.late_frac() * p.reqs.len() as f64) / total(&|p| p.reqs.len() as f64).max(1.0);
    within(&series)
        && within(&second_halves)
        && refused / classify <= MAX_REFUSED_FRAC
        && late <= MAX_LATE_FRAC
}

/// Drives one open-loop phase at `rate` for `seconds` over a fresh
/// connection: the sender writes each request at its due time (all
/// overdue ones in one flush), the receiver stamps each reply.
fn drive(
    addr: &str,
    mix: &Mix,
    seed: u64,
    phase: u64,
    rate: f64,
    seconds: f64,
    traced: bool,
) -> Result<Phase, String> {
    let n = ((rate * seconds) as usize).max(1);
    let reqs = mix.requests(seed, phase, n);
    let frames: Vec<Vec<u8>> = reqs
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            let id = i as u64;
            let ctx = traced.then(|| yali_obs::TraceContext::derive(seed ^ phase, id));
            protocol::encode_request_traced(id, &mix.request(r), ctx)
        })
        .collect();
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let read_half = stream.try_clone().map_err(|e| e.to_string())?;
    let (fin_tx, fin_rx) = mpsc::channel::<()>();

    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let (replies, late_ms) = std::thread::scope(|s| {
        // Blocks on the socket until every reply is in or the socket is
        // shut down under it.
        let receiver = s.spawn(move || {
            let mut replies: Vec<Option<(Instant, Reply)>> = vec![None; n];
            let mut reader = BufReader::new(read_half);
            let mut got = 0;
            while got < n {
                let Ok(Some(payload)) = protocol::read_frame(&mut reader) else {
                    break;
                };
                let at = Instant::now();
                if let Ok((id, reply)) = protocol::decode_reply(&payload) {
                    if let Some(slot) = replies.get_mut(id as usize) {
                        got += usize::from(slot.is_none());
                        *slot = Some((at, reply));
                    }
                }
            }
            let _ = fin_tx.send(());
            replies
        });

        let mut writer = BufWriter::new(&stream);
        let mut late_ms = Vec::with_capacity(n);
        let mut i = 0;
        let mut send_err = None;
        while i < n {
            let now = Instant::now();
            let next = due(i);
            if next > now {
                std::thread::sleep(next - now);
                continue;
            }
            // Everything already due goes out in one flush.
            while i < n && due(i) <= now {
                if let Err(e) = protocol::write_frame(&mut writer, &frames[i]) {
                    send_err = Some(e);
                    break;
                }
                i += 1;
            }
            if send_err.is_some() || writer.flush().is_err() {
                break;
            }
            let sent = Instant::now();
            while late_ms.len() < i {
                let d = due(late_ms.len());
                late_ms.push(sent.saturating_duration_since(d).as_secs_f64() * 1e3);
            }
        }
        drop(writer);
        if fin_rx.recv_timeout(REPLY_TIMEOUT).is_err() {
            // Unblock the receiver; what has not arrived is refused.
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let replies = receiver.join().expect("receiver thread does not panic");
        (replies, late_ms)
    });
    let _ = stream.shutdown(std::net::Shutdown::Both);
    let last_reply = replies
        .iter()
        .flatten()
        .map(|(at, _)| *at)
        .max()
        .unwrap_or(start);
    let fates: Vec<Fate> = reqs
        .iter()
        .zip(&replies)
        .enumerate()
        .map(|(i, (&r, got))| match got {
            None | Some((_, Reply::Overloaded)) => Fate::Refused,
            Some((at, reply)) if mix.correct(r, reply) => {
                Fate::Ok(at.saturating_duration_since(due(i)).as_secs_f64() * 1e3)
            }
            Some(_) => Fate::Wrong,
        })
        .collect();
    let mut late_ms = late_ms;
    late_ms.resize(n, f64::INFINITY);
    let ok = fates.iter().filter(|f| matches!(f, Fate::Ok(_))).count();
    let span = last_reply.saturating_duration_since(start).as_secs_f64();
    Ok(Phase {
        rate,
        reqs,
        fates,
        late_ms,
        achieved_per_s: ok as f64 / span.max(1e-9),
    })
}

fn summary(series: &[Vec<f64>], window: usize, what: &str) -> Result<Summary, String> {
    stats::windowed(series, window).ok_or_else(|| format!("too few {what} samples for a tail"))
}

/// One bisection for the highest rate that meets the limit, its probes
/// appended to `probes`. Returns the completed-request rate at the rate
/// found (`floor`, the operating phases, when no probe met).
fn search(
    addr: &str,
    mix: &Mix,
    seed: u64,
    id: u64,
    probe_s: f64,
    floor: &[Phase],
    probes: &mut Vec<Phase>,
) -> f64 {
    let first = probes.len();
    let rate = stats::bisect_max_rate(SEARCH_LO, SEARCH_HI, SEARCH_STEPS, |rate| {
        let phase = 1000 * (id + 1) + (probes.len() - first) as u64;
        match drive(addr, mix, seed, phase, rate, probe_s, false) {
            Ok(p) => {
                let met = slo_met(&[&p]);
                let w = stats::windowed(&classify_series(&[&p]), WINDOW);
                child::note(&format!(
                    "probe {rate:.0}/s: {} (windowed p50 {:.2} ms, failed {}, late_frac {:.4})",
                    if met { "met" } else { "missed" },
                    w.map_or(f64::NAN, |w| w.p50),
                    p.failed(),
                    p.late_frac()
                ));
                probes.push(p);
                met
            }
            Err(e) => {
                child::note(&format!("probe {rate:.0}/s failed: {e}"));
                false
            }
        }
    });
    let achieved: Vec<f64> = probes[first..]
        .iter()
        .chain(floor)
        .filter(|p| p.rate == rate)
        .map(|p| p.achieved_per_s)
        .collect();
    stats::median(&achieved)
}

/// Runs `serve-mixed` and returns its metrics plus `(attempted, failed)`.
pub fn run(ctx: &Ctx) -> Result<(Vec<Metric>, u64, u64), String> {
    let mix = Mix::build(ctx.seed);
    if ctx.trace {
        return run_traced(ctx, &mix);
    }
    let s = ctx.seconds;
    // Shares of the run: light 35%, operating 50%; daemon start-ups and
    // warm-ups take the rest.
    let (light_s, op_s) = (0.35 * s / ROUNDS as f64, 0.5 * s / ROUNDS as f64);
    let mut setups = Vec::new();
    let mut rss = Vec::new();
    let (mut served, mut cpu_s) = (0usize, 0.0);
    let (mut lights, mut ops) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS as u64 {
        let d = Daemon::start(ctx)?;
        setups.push(d.setup_s);
        // Warm the connection path and page the models in; not measured.
        drive(
            &d.addr,
            &mix,
            ctx.seed,
            100 + round,
            OPERATING_RATE,
            0.01 * s,
            false,
        )?;
        lights.push(drive(
            &d.addr,
            &mix,
            ctx.seed,
            2 * round + 1,
            LIGHT_RATE,
            light_s,
            false,
        )?);
        // Throughput is requests served per second of daemon CPU time at
        // the operating rate. The highest rate that meets the limit (the
        // traced run's `serve.max_rate_per_s`) read 19 000/s in one run
        // and 30 000/s a minute later on a shared 2-core machine; CPU
        // time leaves out the time the host takes the CPUs away.
        let cpu_before = d.cpu_s()?;
        let op = drive(
            &d.addr,
            &mix,
            ctx.seed,
            2 * round + 2,
            OPERATING_RATE,
            op_s,
            false,
        )?;
        cpu_s += d.cpu_s()? - cpu_before;
        served += op.served();
        ops.push(op);
        rss.push(d.peak_rss_mb());
        d.shutdown()?;
    }
    for (name, phases) in [("light", &lights), ("operating", &ops)] {
        let late = phases.iter().map(|p| p.late_frac()).fold(0.0, f64::max);
        let max_late = phases.iter().map(|p| p.max_late_ms()).fold(0.0, f64::max);
        child::note(&format!(
            "{name}: worst load.late_frac {late:.5}, load.max_late_ms {max_late:.3}, failed {}",
            phases.iter().map(|p| p.failed()).sum::<u64>()
        ));
    }
    let all = || lights.iter().chain(&ops);
    let attempted = all().map(|p| p.reqs.len() as u64).sum();
    let failed = all().map(Phase::failed).sum::<u64>();

    if cpu_s <= 0.0 {
        return Err("the daemon used no CPU time at the operating rate".into());
    }
    let op_refs: Vec<&Phase> = ops.iter().collect();
    let classify = summary(&classify_series(&op_refs), WINDOW, "classify")?;
    let scans: Vec<Vec<f64>> = ops.iter().map(|p| p.latencies(true)).collect();
    let scan = summary(&scans, WINDOW, "scan")?;
    let light_refs: Vec<&Phase> = lights.iter().collect();
    let light_c = summary(&classify_series(&light_refs), WINDOW, "light classify")?;
    for (what, s) in [
        ("tail_ms", classify),
        ("heavy_tail_ms", scan),
        ("light_tail_ms", light_c),
    ] {
        child::note(&format!(
            "{what} is the median p{} over windows, {} requests",
            s.tail_p, s.n
        ));
    }
    let m = |name: &str, value: f64, n: usize| Metric {
        name: name.into(),
        value,
        n,
    };
    Ok((
        vec![
            m("setup_s", stats::median(&setups), setups.len()),
            m("peak_rss_mb", stats::median(&rss), rss.len()),
            m("throughput_per_s", served as f64 / cpu_s, served),
            m("p50_ms", classify.p50, classify.n),
            m("tail_ms", classify.tail, classify.n),
            m("heavy_p50_ms", scan.p50, scan.n),
            m("heavy_tail_ms", scan.tail, scan.n),
            m("light_p50_ms", light_c.p50, light_c.n),
            m("light_tail_ms", light_c.tail, light_c.n),
        ],
        attempted,
        failed,
    ))
}

/// The traced run: the operating rate untraced and then with trace
/// contexts on every request, the daemon's own counters, and each
/// layer's public functions timed on the operating phase's requests.
fn run_traced(ctx: &Ctx, mix: &Mix) -> Result<(Vec<Metric>, u64, u64), String> {
    use std::hint::black_box;
    let daemon = Daemon::start(ctx)?;
    let s = ctx.seconds;
    drive(
        &daemon.addr,
        mix,
        ctx.seed,
        0,
        OPERATING_RATE,
        0.05 * s,
        false,
    )?;
    // Untraced phases on both sides of the traced one, all on the same
    // requests, so a slow spell does not pass for tracing overhead.
    let op = |traced: bool| {
        drive(
            &daemon.addr,
            mix,
            ctx.seed,
            2,
            OPERATING_RATE,
            0.2 * s,
            traced,
        )
    };
    let plain = op(false)?;
    let traced = op(true)?;
    let after = op(false)?;
    let metrics = match Client::connect(&daemon.addr).and_then(|mut c| c.metrics()) {
        Ok(Reply::Metrics(m)) => m,
        other => return Err(format!("metrics request failed: {other:?}")),
    };
    // The max-rate search overloads the daemon, so it runs after the
    // counters above are read.
    let floor = [plain, after];
    if !slo_met(&floor.iter().collect::<Vec<_>>()) {
        child::note("the operating rate misses the limit; a search that meets nothing reports its completed rate");
    }
    let probe_s = 0.5 * s / (SEARCHES * SEARCH_STEPS) as f64;
    let mut probes: Vec<Phase> = Vec::new();
    let found: Vec<f64> = (0..SEARCHES as u64)
        .map(|k| search(&daemon.addr, mix, ctx.seed, k, probe_s, &floor, &mut probes))
        .collect();
    daemon.shutdown()?;
    let [plain, after] = floor;
    let attempted =
        (3 * plain.reqs.len() + probes.iter().map(|p| p.reqs.len()).sum::<usize>()) as u64;
    // Refusals count as failures at the operating rate only: the probes
    // above the knee are meant to overload the daemon.
    let failed = plain.failed()
        + traced.failed()
        + after.failed()
        + probes.iter().map(Phase::wrong).sum::<u64>();

    let mut out = Vec::new();
    let mut put = |name: &str, value: f64, n: usize| {
        out.push(Metric {
            name: name.into(),
            value,
            n,
        })
    };
    let reqs = &plain.reqs;
    let n = reqs.len();
    put(
        "obs.trace_overhead_pct",
        (2.0 * traced.mean_ok_ms() / (plain.mean_ok_ms() + after.mean_ok_ms()) - 1.0) * 100.0,
        3 * n,
    );
    put("serve.max_rate_per_s", stats::median(&found), probes.len());
    put("load.late_frac", plain.late_frac(), n);
    put("load.max_late_ms", plain.max_late_ms(), n);
    put(
        "serve.overloaded",
        metrics.overloaded as f64,
        metrics.requests as usize,
    );
    put(
        "serve.batch_rows_mean",
        metrics.batched_rows as f64 / metrics.batches.max(1) as f64,
        metrics.batches as usize,
    );
    put(
        "obs.recorder_dropped_frac",
        metrics.recorder_dropped as f64 / metrics.recorder_events.max(1) as f64,
        metrics.recorder_events as usize,
    );

    // Protocol codecs on the phase's own requests and replies.
    let requests: Vec<Request> = reqs.iter().map(|&r| mix.request(r)).collect();
    let replies: Vec<Reply> = reqs
        .iter()
        .map(|&r| match r {
            Req::Classify(lane, row) => Reply::Label(mix.labels[lane as usize][row]),
            Req::Scan(i) => Reply::Scan {
                malware: mix.sources[i].1,
                ratio: f64::from_bits(mix.sources[i].2),
            },
        })
        .collect();
    let t = Instant::now();
    let frames: Vec<(Vec<u8>, Vec<u8>)> = requests
        .iter()
        .zip(&replies)
        .enumerate()
        .map(|(i, (req, reply))| {
            let id = i as u64;
            (
                protocol::encode_request(id, req),
                protocol::encode_reply(id, reply),
            )
        })
        .collect();
    let encode_us = t.elapsed().as_secs_f64() * 1e6 / n as f64;
    let t = Instant::now();
    for (req, reply) in &frames {
        black_box(protocol::decode_request(req).expect("own frame decodes"));
        black_box(protocol::decode_reply(reply).expect("own reply decodes"));
    }
    let decode_us = t.elapsed().as_secs_f64() * 1e6 / n as f64;
    put("serve.encode_us", encode_us, n);
    put("serve.decode_us", decode_us, n);

    // Server-side MiniC compile of the scan requests.
    let scans: Vec<usize> = reqs
        .iter()
        .filter_map(|r| if let Req::Scan(i) = r { Some(*i) } else { None })
        .collect();
    let t = Instant::now();
    let modules: Vec<yali_ir::Module> = scans
        .iter()
        .map(|&i| yali_minic::compile(&mix.sources[i].0).expect("mix source compiles"))
        .collect();
    let compile_ns = t.elapsed().as_nanos() as u64;
    let compile_us = compile_ns as f64 / 1e3 / scans.len().max(1) as f64;
    put("minic.compile_us", compile_us, scans.len());

    // The batcher on a synthetic clock replaying the phase's arrival
    // schedule; each dispatched batch then runs its lane's inference or
    // the scanner, as the dispatcher would.
    let mut batcher: Batcher<usize> = Batcher::new(yali_serve::config_from_env());
    let arrival = |i: usize| (i as f64 * 1e9 / plain.rate) as u64;
    let mut batches = Vec::new();
    let mut batcher_ns = 0u64;
    // Arrival `i` at its due time, then a sentinel that expires every
    // deadline left.
    let events = reqs
        .iter()
        .enumerate()
        .map(|(i, &r)| (arrival(i), Some((i, r))))
        .chain([(u64::MAX, None)]);
    for (now, arrival) in events {
        let t = Instant::now();
        // Deadlines that expire before this arrival dispatch at expiry.
        while let Some(at) = batcher.next_deadline_ns().filter(|&d| d <= now) {
            let b = batcher
                .pop_ready(at)
                .expect("a batch is due at its deadline");
            batches.push((at, b));
        }
        if let Some((i, r)) = arrival {
            let lane = match r {
                Req::Classify(lane, _) => lane as u32,
                Req::Scan(_) => yali_serve::SCAN_LANE,
            };
            assert!(
                batcher.offer(lane, i, now),
                "the replay stays under the queue cap"
            );
            // A lane this arrival filled dispatches at once.
            while let Some(b) = batcher.pop_ready(now) {
                batches.push((now, b));
            }
        }
        batcher_ns += t.elapsed().as_nanos() as u64;
    }
    put("serve.batcher_ns", batcher_ns as f64 / n as f64, n);
    let full = batches
        .iter()
        .filter(|(_, b)| b.trigger == Trigger::Full)
        .count();
    put(
        "serve.full_batch_frac",
        full as f64 / batches.len() as f64,
        batches.len(),
    );
    let wait_ns: u64 = batches
        .iter()
        .flat_map(|(at, b)| b.items.iter().map(move |p| at - p.enqueued_ns))
        .sum();
    let queue_ms = wait_ns as f64 / n as f64 / 1e6;
    put("serve.queue_wait_ms", queue_ms, n);

    let threads = yali_par::worker_count();
    let mut lane_ns = vec![0u64; MODELS.len()];
    let mut lane_rows = vec![0usize; MODELS.len()];
    let mut scan_ns = 0u64;
    // Per-request compute: the whole batch's time, paid by each row in
    // it, plus each scan's own compile in the reader.
    let mut compute_ns_per_request = compile_ns;
    // The scan lane is FIFO, so its batches take `modules` in order.
    let mut scan_k = 0usize;
    for (_, b) in &batches {
        let ns = if b.lane == yali_serve::SCAN_LANE {
            let ms = &modules[scan_k..scan_k + b.items.len()];
            scan_k += b.items.len();
            let t = Instant::now();
            black_box(mix.scanner.is_malware_all(ms));
            let ns = t.elapsed().as_nanos() as u64;
            scan_ns += ns;
            ns
        } else {
            let rows: Vec<&[f64]> = b
                .items
                .iter()
                .map(|p| match reqs[p.item] {
                    Req::Classify(_, row) => mix.rows[row].as_slice(),
                    Req::Scan(_) => unreachable!("scan rows ride the scan lane"),
                })
                .collect();
            let t = Instant::now();
            black_box(mix.models[b.lane as usize].predict_batch_refs(&rows, threads));
            let ns = t.elapsed().as_nanos() as u64;
            lane_ns[b.lane as usize] += ns;
            lane_rows[b.lane as usize] += rows.len();
            ns
        };
        compute_ns_per_request += ns * b.items.len() as u64;
    }
    for (k, kind) in MODELS.iter().enumerate() {
        put(
            &format!("ml.infer_us_per_row.{}", kind.name()),
            lane_ns[k] as f64 / 1e3 / lane_rows[k].max(1) as f64,
            lane_rows[k],
        );
    }
    put(
        "core.scan_us",
        scan_ns as f64 / 1e3 / scans.len().max(1) as f64,
        scans.len(),
    );

    // What one request's mean latency is made of.
    let mean_ms = plain.mean_ok_ms();
    let codec = (encode_us + decode_us) / 1e3 / mean_ms;
    let queue = queue_ms / mean_ms;
    let compute = compute_ns_per_request as f64 / n as f64 / 1e6 / mean_ms;
    put("trace.share.codec", codec, n);
    put("trace.share.queue", queue, n);
    put("trace.share.compute", compute, n);
    put("trace.unattributed_frac", 1.0 - codec - queue - compute, n);

    // Daemon set-up, re-run in-process: corpus, lowering, embedding, fits.
    let t = Instant::now();
    let corpus = Corpus::poj(CLASSES, PER_CLASS, ctx.seed);
    put("dataset.corpus_ms", t.elapsed().as_secs_f64() * 1e3, 1);
    let (train, _) = corpus.split(0.8, 7);
    let t = Instant::now();
    let lowered: Vec<yali_ir::Module> = train
        .iter()
        .map(|s| yali_minic::lower(&s.program))
        .collect();
    put(
        "minic.lower_us",
        t.elapsed().as_secs_f64() * 1e6 / train.len() as f64,
        train.len(),
    );
    let t = Instant::now();
    let x: Vec<Vec<f64>> = lowered.iter().map(yali_embed::histogram).collect();
    put(
        "embed.histogram_us",
        t.elapsed().as_secs_f64() * 1e6 / x.len() as f64,
        x.len(),
    );
    let y: Vec<usize> = train.iter().map(|s| s.class).collect();
    out.extend(probe::fits(&MODELS, &x, &y, CLASSES));
    Ok((out, attempted, failed))
}
