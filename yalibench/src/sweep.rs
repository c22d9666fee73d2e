//! The `sweep-resume` workload: games 0–3 × the nine evaders × five
//! models on the histogram embedding, `ROUNDS` rounds, played with
//! `yali_core::play` in fresh processes.
//!
//! One cold pass first populates a store (a fixture step, not measured);
//! the measured passes then replay the same grid in fresh processes
//! against it, so store reads, codec decode, corpus generation and the
//! uncached Game 3 normalization dominate. The cold side — transforms,
//! fits and store writes — is timed layer by layer in the traced run.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use rand::seq::SliceRandom;
use rand::SeedableRng;
use yali_core::arena::fit_classifier_cached;
use yali_core::store::{self, ArtifactStore, Namespace};
use yali_core::{
    play, transform_all, ClassifierSpec, Corpus, Game, GameConfig, GameResult, Transformer,
};
use yali_ml::ModelKind;
use yalibench::Metric;

use crate::child::{self, Ctx};
use crate::probe::{self, mean_us};

/// Rounds per pass, one corpus each. Three would give the Game 3 tail
/// (p90 of 45 × `ROUNDS` points) its ten samples beyond; five spread the
/// tails over more programs. Six would move the all-points tail to a p99
/// with barely ten beyond.
const ROUNDS: u64 = 5;
/// A run plays one resumed pass per `PASS_EVERY_S` seconds of its
/// length, rounded up: a count that depends on the run length alone, so
/// every run of a workload takes its fastest of the same number of
/// passes. A pass takes 8–15 s on a 2-core machine, depending on the
/// load other tenants put on it.
const PASS_EVERY_S: f64 = 6.0;
/// Passes a run plays however slow the machine is.
const MIN_PASSES: usize = 3;
/// Seconds after which a run plays no pass beyond `MIN_PASSES` that its
/// slowest pass so far says would end past them, so that a run on a host
/// slowed two- or threefold still ends within three minutes.
const RUN_BUDGET_S: f64 = 120.0;
/// Extra start-ups (store open, no points) per timed run, so `setup_s`
/// is a median over more than the passes' own start-ups.
const SETUP_SAMPLES: usize = 9;
const CLASSES: usize = 8;
const PER_CLASS: usize = 12;
/// cnn is left out: its one-second fits would swamp every other layer.
const MODELS: [ModelKind; 5] = [
    ModelKind::Rf,
    ModelKind::Svm,
    ModelKind::Knn,
    ModelKind::Lr,
    ModelKind::Mlp,
];
/// Points per pass replayed by the uncached single-threaded output check.
const CHECK_POINTS: usize = 4;

/// One design point of the grid.
#[derive(Debug, Clone, Copy)]
struct Point {
    round: u64,
    game: Game,
    evader: Transformer,
    model: ModelKind,
}

fn grid(rounds: std::ops::Range<u64>) -> Vec<Point> {
    let mut points = Vec::new();
    for round in rounds {
        for game in Game::ALL {
            for evader in Transformer::EVADERS {
                for model in MODELS {
                    points.push(Point {
                        round,
                        game,
                        evader,
                        model,
                    });
                }
            }
        }
    }
    points
}

/// Round `round`'s corpus. It does not depend on the workload seed,
/// which drives each round's train/test split and the evaders' choices
/// (`config`): the corpora a seed drew set how much work a run did, and
/// with five of them per seed throughput spread by a quarter (IQR over
/// median) over ten seeds.
fn corpus(round: u64) -> Corpus {
    Corpus::poj(CLASSES, PER_CLASS, round)
}

fn config(seed: u64, p: &Point) -> GameConfig {
    GameConfig::game0(ClassifierSpec::histogram(p.model), seed + p.round)
        .with_game(p.game, p.evader)
}

/// A `GameResult` as text with every float bit pattern, so two results
/// compare equal exactly when they are bit-identical.
fn result_key(r: &GameResult) -> String {
    format!(
        "{:016x}:{:016x}:{}:{}:{}",
        r.accuracy.to_bits(),
        r.f1.to_bits(),
        r.n_train,
        r.n_test,
        r.model_bytes
    )
}

// ---------------------------------------------------------------------------
// Child side: one pass over the grid in this process.
// ---------------------------------------------------------------------------

/// The steps of `play`, timed one by one in the traced pass.
#[derive(Default)]
struct Steps {
    ns: BTreeMap<&'static str, u64>,
    calls: BTreeMap<&'static str, usize>,
}

impl Steps {
    fn time<T>(&mut self, step: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        *self.ns.entry(step).or_default() += t.elapsed().as_nanos() as u64;
        *self.calls.entry(step).or_default() += 1;
        out
    }
}

/// `play` replayed through its public steps with a timer around each.
/// The caller checks that the result equals `play`'s.
fn play_traced(seed: u64, p: &Point, st: &mut Steps) -> GameResult {
    let cfg = config(seed, p);
    let corpus = st.time("corpus", || corpus(p.round));
    let (train, test) = st.time("split", || corpus.split(cfg.train_fraction, cfg.seed));
    let train_labels: Vec<usize> = train.iter().map(|s| s.class).collect();
    let test_labels: Vec<usize> = test.iter().map(|s| s.class).collect();
    let train_transform = match cfg.game {
        Game::Game0 | Game::Game1 => Transformer::None,
        Game::Game2 => cfg.evader,
        Game::Game3 => cfg.normalizer,
    };
    let train_modules = st.time("transform", || {
        transform_all(&train, train_transform, cfg.seed ^ 0x7431)
    });
    let clf = st.time("fit", || {
        fit_classifier_cached(
            &cfg.classifier,
            &train_modules,
            &train_labels,
            corpus.n_classes,
        )
    });
    let evader = match cfg.game {
        Game::Game0 => Transformer::None,
        _ => cfg.evader,
    };
    let mut challenges = st.time("transform", || {
        transform_all(&test, evader, cfg.seed ^ 0xEEAD)
    });
    if cfg.game == Game::Game3 {
        if let Transformer::Opt(level) = cfg.normalizer {
            st.time("normalize", || {
                yali_core::engine::par_for_each_mut(&mut challenges, |_, m| {
                    yali_opt::optimize(m, level);
                })
            });
        }
    }
    let pred = st.time("classify", || clf.classify_all(&challenges));
    GameResult {
        accuracy: yali_ml::accuracy(&pred, &test_labels),
        f1: yali_ml::macro_f1(&pred, &test_labels, corpus.n_classes),
        n_train: train.len(),
        n_test: test.len(),
        model_bytes: clf.memory_bytes(),
    }
}

/// Child role `pass`: opens the store named by `YALI_STORE`, says
/// `ready`, plays the grid, and reports per-point
/// times and results. A traced pass replays `play` step by step and then
/// times each layer's public functions on this workload's inputs.
/// `setup_only` stops after `ready`.
pub fn pass_main(seed: u64, traced: bool, setup_only: bool) {
    let t = Instant::now();
    let opened = store::active().is_some();
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    child::say("ready");
    if setup_only {
        return;
    }
    if traced {
        // Counts (par regions) come from the obs registry.
        yali_obs::set_enabled(true);
    }
    let points = grid(0..ROUNDS);
    let mut steps = Steps::default();
    let mut rows = Vec::with_capacity(points.len());
    let wall = Instant::now();
    for p in &points {
        let t0 = Instant::now();
        let r = if traced {
            play_traced(seed, p, &mut steps)
        } else {
            play(&corpus(p.round), &config(seed, p))
        };
        rows.push((t0.elapsed().as_nanos() as u64, result_key(&r)));
    }
    let wall_ns = wall.elapsed().as_nanos() as u64;
    for (i, (ns, key)) in rows.iter().enumerate() {
        child::say(&format!("point {i} {} {ns} {key}", points[i].game.name()));
    }
    child::say(&format!("wall_ns {wall_ns}"));
    child::say(&format!("rss_kb {}", child::peak_rss_kb("self")));
    if !traced {
        return;
    }
    let m = |name: &str, value: f64, n: usize| child::say(&format!("m {name} {value} {n}"));
    let wall_f = wall_ns as f64;
    let mut attributed = 0u64;
    for step in [
        "corpus",
        "split",
        "transform",
        "fit",
        "normalize",
        "classify",
    ] {
        let ns = steps.ns.get(step).copied().unwrap_or(0);
        attributed += ns;
        // The corpus step is the dataset layer's share.
        let name = match step {
            "corpus" => "dataset.share".to_string(),
            _ => format!("trace.share.{step}"),
        };
        m(
            &name,
            ns as f64 / wall_f,
            steps.calls.get(step).copied().unwrap_or(0),
        );
    }
    m(
        "trace.unattributed_frac",
        1.0 - attributed as f64 / wall_f,
        points.len(),
    );
    let per_call = |step: &str, scale: f64| {
        let calls = steps.calls.get(step).copied().unwrap_or(0);
        let ns = steps.ns.get(step).copied().unwrap_or(0) as f64;
        (
            if calls == 0 {
                0.0
            } else {
                ns / calls as f64 / scale
            },
            calls,
        )
    };
    let (corpus_ms, n) = per_call("corpus", 1e6);
    m("dataset.corpus_ms", corpus_ms, n);
    let (normalize_ms, n) = per_call("normalize", 1e6);
    m("opt.normalize_ms", normalize_ms, n);

    let caches = [
        (
            "core.transform_hit_ratio",
            yali_core::TransformCache::global().stats(),
        ),
        (
            "core.embed_hit_ratio",
            yali_core::EmbedCache::global().stats(),
        ),
        (
            "core.model_hit_ratio",
            yali_core::engine::ModelCache::global().stats(),
        ),
    ];
    for (name, s) in caches {
        m(name, s.hit_ratio(), (s.hits + s.misses) as usize);
    }
    let regions = yali_obs::counter("par.regions").get();
    m(
        "par.regions_per_point",
        regions as f64 / points.len() as f64,
        regions as usize,
    );
    if let (true, Some(s)) = (opened, store::active_stats()) {
        let lookups = (s.disk_hits + s.disk_misses) as usize;
        let ratio = if lookups == 0 {
            0.0
        } else {
            s.disk_hits as f64 / lookups as f64
        };
        m("store.open_ms", open_ms, 1);
        m("store.disk_hit_ratio", ratio, lookups);
        m(
            "store.read_mb",
            s.bytes_read as f64 / 1e6,
            s.disk_hits as usize,
        );
        m(
            "store.write_mb",
            s.bytes_written as f64 / 1e6,
            s.published as usize,
        );
    }
    yali_obs::set_enabled(false);
    for p in layer_probes(seed) {
        m(&p.name, p.value, p.n);
    }
}

/// Times each layer's public functions on the workload's own inputs
/// (round 0's corpus), outside the pass so the pass stays comparable.
fn layer_probes(seed: u64) -> Vec<Metric> {
    use std::hint::black_box;
    let mut out = Vec::new();
    let mut put = |name: &str, (value, n): (f64, usize)| {
        out.push(Metric {
            name: name.to_string(),
            value,
            n,
        })
    };
    let corpus = corpus(0);
    let programs: Vec<&yali_minic::Program> = corpus.samples.iter().map(|s| &s.program).collect();
    let sources: Vec<String> = programs.iter().map(|p| yali_minic::print(p)).collect();

    put(
        "minic.lower_us",
        mean_us(&programs, |p| {
            black_box(yali_minic::lower(p));
        }),
    );
    put(
        "minic.compile_us",
        mean_us(&sources, |s| {
            black_box(yali_minic::compile(s).expect("printed corpus source compiles"));
        }),
    );
    let lowered: Vec<yali_ir::Module> = programs.iter().map(|p| yali_minic::lower(p)).collect();
    put(
        "opt.o3_us",
        mean_us(&lowered, |m| {
            let mut m = m.clone();
            yali_opt::optimize(&mut m, yali_opt::OptLevel::O3);
            black_box(m);
        }),
    );
    let ir_jobs: Vec<(usize, yali_obf::IrObf)> = (0..lowered.len())
        .flat_map(|i| {
            [
                yali_obf::IrObf::Ollvm,
                yali_obf::IrObf::Bcf,
                yali_obf::IrObf::Fla,
                yali_obf::IrObf::Sub,
            ]
            .map(|pass| (i, pass))
        })
        .collect();
    put(
        "obf.ir_us",
        mean_us(&ir_jobs, |&(i, pass)| {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ i as u64);
            let mut m = lowered[i].clone();
            pass.apply(&mut m, &mut rng);
            black_box(m);
        }),
    );
    let src_jobs: Vec<(usize, u8)> = (0..programs.len().min(24))
        .flat_map(|i| [0u8, 1, 2].map(|s| (i, s)))
        .collect();
    let (us, n) = mean_us(&src_jobs, |&(i, s)| {
        let p = programs[i];
        let t = match s {
            0 => yali_obf::rs(p, seed ^ i as u64),
            1 => yali_obf::mcmc(p, seed ^ i as u64, 6),
            _ => yali_obf::drlsg(p, seed ^ i as u64, 3),
        };
        black_box(t);
    });
    put("obf.source_ms", (us / 1e3, n));
    put(
        "embed.histogram_us",
        mean_us(&lowered, |m| {
            black_box(yali_embed::histogram(m));
        }),
    );

    // Fits and decodes on round 0's Game 0 training set.
    let (train, _) = corpus.split(0.8, seed);
    let x: Vec<Vec<f64>> = transform_all(&train, Transformer::None, seed ^ 0x7431)
        .iter()
        .map(yali_embed::histogram)
        .collect();
    let y: Vec<usize> = train.iter().map(|s| s.class).collect();
    let fits = probe::fits(&MODELS, &x, &y, CLASSES);

    // Store codec and I/O on the workload's transformed modules.
    let transformed: Vec<yali_ir::Module> = lowered
        .iter()
        .cloned()
        .map(|mut m| {
            yali_opt::optimize(&mut m, yali_opt::OptLevel::O3);
            m
        })
        .chain(lowered.iter().cloned())
        .collect();
    let encoded: Vec<Vec<u8>> = transformed.iter().map(store::encode_module).collect();
    put(
        "ir.parse_us",
        mean_us(&encoded, |b| {
            black_box(store::decode_module(b).expect("encoded module decodes"));
        }),
    );
    let dir = std::env::var("YALI_STORE").expect("the parent sets YALI_STORE");
    let probe_dir = Path::new(&dir).with_extension("probe");
    let probe = ArtifactStore::open(&probe_dir).expect("probe store opens");
    let keyed: Vec<(u64, &Vec<u8>)> = encoded
        .iter()
        .enumerate()
        .map(|(i, b)| (i as u64, b))
        .collect();
    put(
        "store.write_us",
        mean_us(&keyed, |&(k, b)| {
            assert!(
                probe.put(Namespace::Transform, k, b),
                "fresh key is published"
            );
        }),
    );
    put(
        "store.read_us",
        mean_us(&keyed, |&(k, _)| {
            black_box(
                probe
                    .get(Namespace::Transform, k)
                    .expect("published key reads back"),
            );
        }),
    );
    drop(probe);
    let _ = std::fs::remove_dir_all(&probe_dir);

    // The workload's transform batches (the grid's evaders over the
    // corpus, uncached) at two threads against one.
    let samples: Vec<&yali_core::Sample> = corpus.samples.iter().collect();
    let batch = |threads: usize| {
        let t = Instant::now();
        for (k, ev) in Transformer::EVADERS.iter().enumerate() {
            black_box(yali_par::par_map_with(threads, &samples, |i, s| {
                ev.apply(&s.program, seed ^ ((i as u64) << 16) ^ k as u64)
            }));
        }
        t.elapsed().as_secs_f64()
    };
    let serial = batch(1);
    let parallel = batch(2);
    put(
        "par.speedup",
        (serial / parallel, Transformer::EVADERS.len()),
    );
    out.extend(fits);
    out
}

/// Child role `check`: replays `points` (indices into the grid) with
/// whatever cache, store and thread settings the parent put in the
/// environment.
pub fn check_main(seed: u64, points: &[usize]) {
    let grid = grid(0..ROUNDS);
    for &i in points {
        let p = &grid[i];
        let r = play(&corpus(p.round), &config(seed, p));
        child::say(&format!("check {i} {}", result_key(&r)));
    }
}

// ---------------------------------------------------------------------------
// Parent side.
// ---------------------------------------------------------------------------

/// What one pass child reported.
struct Pass {
    setup_s: f64,
    wall_s: f64,
    rss_mb: f64,
    /// `(game, ms, result key)` per point, in grid order.
    points: Vec<(String, f64, String)>,
    layers: Vec<Metric>,
}

impl Pass {
    fn keys(&self) -> Vec<String> {
        self.points.iter().map(|p| p.2.clone()).collect()
    }
}

fn pass_cmd(ctx: &Ctx, store_dir: &Path, traced: bool, setup_only: bool) -> std::process::Command {
    let flag = |b: bool| if b { "1" } else { "0" };
    let seed = ctx.seed.to_string();
    let mut cmd = ctx.child(&[
        "pass",
        "--seed",
        &seed,
        "--traced",
        flag(traced),
        "--setup-only",
        flag(setup_only),
    ]);
    cmd.env("YALI_STORE", store_dir);
    cmd
}

fn run_pass(ctx: &Ctx, store_dir: &Path, traced: bool) -> Result<Pass, String> {
    let out = child::run(pass_cmd(ctx, store_dir, traced, false))?;
    let setup_s = out.ready_s.ok_or("pass child never said ready")?;
    let mut pass = Pass {
        setup_s,
        wall_s: 0.0,
        rss_mb: 0.0,
        points: Vec::new(),
        layers: Vec::new(),
    };
    for line in &out.lines {
        match line.tag() {
            "point" => {
                let f = line.fields();
                let ms = f[3].parse::<f64>().map_err(|e| e.to_string())? / 1e6;
                pass.points.push((f[2].to_string(), ms, f[4].to_string()));
            }
            "wall_ns" => pass.wall_s = line.num(1)? / 1e9,
            "rss_kb" => pass.rss_mb = line.num(1)? / 1024.0,
            "m" => pass.layers.push(line.metric()?),
            _ => {}
        }
    }
    if pass.points.len() != grid(0..ROUNDS).len() || pass.wall_s <= 0.0 {
        return Err(format!("pass child reported {} points", pass.points.len()));
    }
    Ok(pass)
}

/// Points of `pass` whose result differs from `reference`.
fn mismatches(pass: &Pass, reference: &[String]) -> u64 {
    pass.points
        .iter()
        .zip(reference)
        .filter(|((_, _, key), want)| key != *want)
        .count() as u64
}

/// Replays a seeded sample of points uncached, storeless and
/// single-threaded, and counts those whose result differs from
/// `reference` (the grid's results, in grid order).
fn output_check(ctx: &Ctx, reference: &[String]) -> Result<(u64, u64), String> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(ctx.seed ^ 0xC4EC);
    let mut idx: Vec<usize> = (0..reference.len()).collect();
    idx.shuffle(&mut rng);
    idx.truncate(CHECK_POINTS);
    let list: Vec<String> = idx.iter().map(usize::to_string).collect();
    let seed = ctx.seed.to_string();
    let mut cmd = ctx.child(&["check", "--seed", &seed, "--points", &list.join(",")]);
    cmd.env("YALI_CACHE", "0").env("YALI_THREADS", "1");
    let out = child::run(cmd)?;
    let mut failed = 0;
    let mut seen = 0;
    for line in out.lines.iter().filter(|l| l.tag() == "check") {
        let f = line.fields();
        let i: usize = f[1].parse().map_err(|_| "bad check index")?;
        seen += 1;
        if reference.get(i).map(String::as_str) != Some(f[2]) {
            child::note(&format!("output check: point {i} differs uncached"));
            failed += 1;
        }
    }
    failed += (idx.len() - seen) as u64;
    Ok((idx.len() as u64, failed))
}

/// Runs `sweep-resume` and returns its metrics plus `(attempted,
/// failed)`.
pub fn run(ctx: &Ctx) -> Result<(Vec<Metric>, u64, u64), String> {
    let store_dir = ctx.scratch.join("store");
    child::note("fixture: populating the store with one cold pass");
    let reference = run_pass(ctx, &store_dir, false)?.keys();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    if ctx.trace {
        // Untraced passes on both sides of the traced one, so a slow
        // spell or a first pass that pays for the fixture's write-back
        // does not pass for tracing overhead.
        let before = run_pass(ctx, &store_dir, false)?;
        let traced = run_pass(ctx, &store_dir, true)?;
        let after = run_pass(ctx, &store_dir, false)?;
        for pass in [&before, &traced, &after] {
            attempted += pass.points.len() as u64;
            failed += mismatches(pass, &reference);
        }
        let untraced_s = (before.wall_s + after.wall_s) / 2.0;
        let mut layers = traced.layers;
        layers.push(Metric {
            name: "obs.trace_overhead_pct".into(),
            value: (traced.wall_s / untraced_s - 1.0) * 100.0,
            n: 3,
        });
        return Ok((layers, attempted, failed));
    }

    let mut setups = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        let out = child::run(pass_cmd(ctx, &store_dir, false, true))?;
        setups.push(out.ready_s.ok_or("setup child never said ready")?);
    }
    let n_passes = ((ctx.seconds / PASS_EVERY_S).ceil() as usize).max(MIN_PASSES);
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < n_passes {
        let slowest = passes.iter().map(|p| p.wall_s).fold(0.0, f64::max);
        if passes.len() >= MIN_PASSES
            && ctx.started.elapsed().as_secs_f64() + slowest > RUN_BUDGET_S
        {
            child::note(&format!(
                "the machine is slow: {} passes of {n_passes} fit the run budget",
                passes.len()
            ));
            break;
        }
        passes.push(run_pass(ctx, &store_dir, false)?);
    }
    for pass in &passes {
        attempted += pass.points.len() as u64;
        failed += mismatches(pass, &reference);
    }
    let (a, f) = output_check(ctx, &reference)?;
    attempted += a;
    failed += f;

    setups.extend(passes.iter().map(|p| p.setup_s));
    // Every pass replays the same grid, so speed figures take each
    // point's fastest pass and the fastest pass wall: a slow spell of a
    // shared machine lasts seconds and rarely covers every pass.
    let best = yalibench::stats::best_of(
        &passes
            .iter()
            .map(|p| p.points.iter().map(|(_, ms, _)| *ms).collect())
            .collect::<Vec<_>>(),
    )
    .ok_or("passes differ in length")?;
    let fastest_s = passes
        .iter()
        .map(|p| p.wall_s)
        .fold(f64::INFINITY, f64::min);
    let rss: Vec<f64> = passes.iter().map(|p| p.rss_mb).collect();
    let n = passes.len();
    let mut metrics = vec![
        Metric {
            name: "setup_s".into(),
            value: yalibench::stats::median(&setups),
            n: setups.len(),
        },
        Metric {
            name: "peak_rss_mb".into(),
            value: yalibench::stats::median(&rss),
            n,
        },
        Metric {
            name: "throughput_per_s".into(),
            value: best.len() as f64 / fastest_s,
            n,
        },
    ];
    let games = &passes[0].points;
    // Heavy points are Game 3's, the only game that normalizes its
    // challenges; light points are the rest.
    for (prefix, heavy) in [("", None), ("heavy_", Some(true)), ("light_", Some(false))] {
        let lat: Vec<f64> = best
            .iter()
            .zip(games)
            .filter(|(_, (g, _, _))| heavy.is_none_or(|h| (g == "game3") == h))
            .map(|(ms, _)| *ms)
            .collect();
        let s = yalibench::stats::summarize(&lat).ok_or("too few points for a tail")?;
        child::note(&format!(
            "{prefix}tail_ms is the p{} of {} points' fastest of {n} passes",
            s.tail_p, s.n
        ));
        metrics.push(Metric {
            name: format!("{prefix}p50_ms"),
            value: s.p50,
            n: s.n * n,
        });
        metrics.push(Metric {
            name: format!("{prefix}tail_ms"),
            value: s.tail,
            n: s.n * n,
        });
    }
    Ok((metrics, attempted, failed))
}
