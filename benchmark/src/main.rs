//! The repository benchmark. See `README.md` beside `Cargo.toml` for what
//! is measured and why; `run.sh` builds and runs this binary.
//!
//! A run of one workload drives the whole ProteusTM stack once: the
//! application on every backend ([`tm`]), `PolyTm::apply` under that
//! application's load ([`storm`]) and the RecTM tuner ([`tuner`]); a traced
//! run adds the differential probes ([`probes`]). Every timing is divided
//! by the frozen reference kernel ([`refkernel`]) run around it.

mod alloc;
mod compare;
mod host;
mod json;
mod probes;
mod refkernel;
mod report;
mod spec;
mod stats;
mod storm;
mod tm;
mod trace;
mod tuner;
mod world;

use json::{num, obj, string, Value};
use polytm::BackendId;
use report::Measured;
use spec::Spec;
use stats::{median, summarize};
use std::process::ExitCode;
use std::time::Instant;
use world::{Oracle, Workload, World, VOLATILE, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const OUT_DIR: &str = "benchmark/out";
/// `benchmark.ref_spread_pct` above this marks the run as noisy.
const NOISY_SPREAD_PCT: f64 = 30.0;
/// Consecutive set-ups in one burst.
const SETUPS_PER_BURST: usize = 3;
/// Measured slices per configuration a full end-to-end run should reach.
const WANTED_SLICES: usize = 40;

const USAGE: &str = "usage: run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]]
              [--smoke] [--out FILE] [--break-oracle]
       run.sh --compare A.json B.json";

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    /// `None`: not given (end-to-end, or both under `--smoke` for all).
    trace: Option<bool>,
    smoke: bool,
    out: Option<String>,
    break_oracle: bool,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        out: None,
        break_oracle: false,
        compare: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            // `--trace` alone is `--trace 1`.
            "--trace" => {
                let given = it.next_if(|v| matches!(v.as_str(), "0" | "1"));
                args.trace = Some(given.is_none_or(|v| v == "1"));
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value("a file")?),
            "--break-oracle" => args.break_oracle = true,
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// How much of everything one run does.
struct Plan {
    /// Bursts of timed set-ups: the first builds the world that is measured,
    /// the rest are spread between the sections and thrown away.
    setup_bursts: usize,
    tm: tm::TmPlan,
    storm_slices: usize,
    tuner: tuner::TunerPlan,
    probe_rounds: usize,
}

/// Every count is a function of `--seconds` alone, never of the clock: a
/// parent commit and a change do identical work, the tuner's quality
/// numbers repeat exactly for a seed, and faster code shortens the run
/// instead of lengthening what is measured. The factors make a run of the
/// slowest workload last about `--seconds` on the host the benchmark was
/// written on (ref ≈ 25 ns).
fn plan(seconds: f64, trace: bool, smoke: bool) -> Plan {
    let count = |per_second: f64| (seconds * per_second).round().max(1.0) as usize;
    // [set-up bursts, data-plane rounds, storm slices, fits, decision
    // batches, repetitions of the tuner's pieces, probe rounds]
    let [setup_bursts, rounds, storm_slices, fits, batches, piece_reps, probe_rounds] =
        match (smoke, trace) {
            // One measured slice per configuration (two where tracing
            // alternates), one of everything else.
            (true, false) => [1, 1, 1, 1, 1, 0, 0],
            (true, true) => [1, 2, 1, 1, 1, 1, 1],
            (false, false) => [5, count(2.0), count(2.5), 9, count(1.25), 0, 0],
            (false, true) => [1, count(1.0), count(1.0), 3, count(0.4), 3, 7],
        };
    Plan {
        setup_bursts,
        tm: tm::TmPlan {
            backends: if trace {
                BackendId::ALL.to_vec()
            } else {
                VOLATILE.to_vec()
            },
            rounds,
            alternate_tracing: trace,
        },
        storm_slices,
        tuner: tuner::TunerPlan {
            fits,
            batches,
            piece_reps,
        },
        probe_rounds,
    }
}

/// Drive the whole stack once: set-up, the three sections, the probes of a
/// traced run, the end-of-run checks.
fn measure(
    w: &Workload,
    seed: u64,
    plan: &Plan,
    rec: &mut trace::Recorder,
    oracle: &mut Oracle,
) -> Result<Measured, String> {
    let root = rec.begin(w.name, 0, 0);

    // Set-up, timed many times over: in bursts of a few consecutive set-ups,
    // the first burst building the world that is measured and the others
    // spread over the run and dropped at once. `setup_s` is the fastest of
    // them all (see `report::end_to_end`).
    let mut setup_s = Vec::new();
    let mut timed_setup = || {
        let mut world = None;
        for _ in 0..SETUPS_PER_BURST {
            drop(world.take());
            let t0 = Instant::now();
            world = Some(World::build(w, seed));
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        world.expect("at least one set-up per burst")
    };
    let world = timed_setup();
    let mut spare = 1..plan.setup_bursts;

    let tm = tm::run(&world, w, seed, &plan.tm, rec, root, oracle);
    spare.by_ref().take(1).for_each(|_| drop(timed_setup()));
    let storm_span = rec.begin("switch_storm", root, 0);
    let storm = storm::run(&world, seed, plan.storm_slices, rec, storm_span, oracle);
    rec.end(storm_span, &[]);
    spare.by_ref().take(1).for_each(|_| drop(timed_setup()));
    let tuner_span = rec.begin("tuner_online", root, 0);
    let tuner = tuner::run(seed, &plan.tuner, rec, tuner_span, oracle);
    rec.end(tuner_span, &[]);
    spare.for_each(|_| drop(timed_setup()));
    let probes = if plan.probe_rounds > 0 {
        probes::run(&world, plan.probe_rounds, oracle)
    } else {
        probes::Series::new()
    };
    world.final_checks(w, seed, oracle);
    rec.end(
        root,
        &[("attempted", oracle.attempted), ("failed", oracle.failed)],
    );
    Ok(Measured {
        setup_s,
        tm,
        storm,
        tuner,
        probes,
        peak_rss_mb: host::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?,
    })
}

fn run_workload(w: &Workload, args: &Args, spec: &Spec) -> Result<ExitCode, String> {
    let trace = args.trace.unwrap_or(false);
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let plan = plan(seconds, trace, args.smoke);
    let need = w.threads.max(2); // the storm always needs a second thread
    if need > host::nproc() {
        return Err(format!(
            "{} needs {need} runnable threads and this host has {} processors",
            w.name,
            host::nproc()
        ));
    }
    let load_before = host::load_average();
    let steal_before = host::steal_ticks();
    if trace {
        alloc::enable();
    }
    let mut oracle = Oracle {
        skew: u64::from(args.break_oracle),
        ..Oracle::default()
    };
    let mut rec = trace::Recorder::new(trace);
    let measured = measure(w, args.seed, &plan, &mut rec, &mut oracle)?;
    let metrics = if trace {
        report::per_layer(&measured)
    } else {
        report::end_to_end(&measured)
    };
    let declared = spec.metrics(trace);
    report::check_names(&metrics, declared)?;
    if let Some((name, _)) = metrics.iter().find(|(_, s)| !s.median.is_finite()) {
        oracle.fail(1, format!("metric {name} is not a number"));
    }

    let reference = summarize(&measured.tm.ref_ns);
    let ref_spread_pct = reference.spread() * 100.0;
    let noisy = ref_spread_pct > NOISY_SPREAD_PCT;
    let slices = measured.tm.series[0].1.tx_per_kref.len();
    let unit_of = |name: &str| {
        declared
            .iter()
            .find(|d| d.name == name)
            .map_or("", |d| d.unit.as_str())
    };

    // Every metric by name, with its unit.
    println!(
        "# {} seed {} seconds {} trace {} — {} processors, load {:?}, ref {:.2} ns (spread {:.1}%{})",
        w.name,
        args.seed,
        seconds,
        u8::from(trace),
        host::nproc(),
        load_before,
        reference.median,
        ref_spread_pct,
        if noisy { ", NOISY" } else { "" }
    );
    println!(
        "# {} measured slices per configuration; {} latency samples per slice; {} decisions",
        slices,
        measured.tm.series[0].1.latency_samples,
        measured.tuner.dfo_pct.len()
    );
    if !args.smoke && !trace && slices < WANTED_SLICES {
        println!("# warning: fewer than {WANTED_SLICES} measured slices per configuration");
    }
    for (name, s) in &metrics {
        println!(
            "{name:<34} {:>14.4} {:<7} [{:.4} .. {:.4}] n={}",
            s.median,
            unit_of(name),
            s.q1,
            s.q3,
            s.n
        );
    }
    if trace {
        for (name, values) in &measured.probes {
            if name.starts_with(report::BARE_PREFIX) {
                println!("# context {name:<24} {:>14.4} ref", median(values));
            }
        }
        if let Some((_, durable)) = measured.tm.series.last() {
            println!(
                "# context allocs_per_ktx.durable   {:>14.4} 1/ktx",
                durable.allocs as f64 * 1000.0 / durable.stats.commits.max(1) as f64
            );
        }
    }
    for note in &oracle.notes {
        println!("# FAILED {note}");
    }

    let metric_values = |full: bool| {
        Value::Obj(
            metrics
                .iter()
                .map(|(name, s)| {
                    let mut members =
                        vec![("value", num(s.median)), ("unit", string(unit_of(name)))];
                    if full {
                        members.extend([
                            ("q1", num(s.q1)),
                            ("q3", num(s.q3)),
                            ("n", num(s.n as f64)),
                        ]);
                    }
                    (name.clone(), obj(members))
                })
                .collect(),
        )
    };
    let correct = oracle.failed == 0;
    let opt = |v: Option<f64>| v.map_or(Value::Null, Value::Num);
    let detail = obj(vec![
        ("workload", string(w.name)),
        ("seed", num(args.seed as f64)),
        ("seconds", num(seconds)),
        ("trace", Value::Bool(trace)),
        ("smoke", Value::Bool(args.smoke)),
        (
            "host",
            obj(vec![
                ("nproc", num(host::nproc() as f64)),
                ("load_avg_before", opt(load_before)),
                ("load_avg_after", opt(host::load_average())),
                (
                    "steal_ticks",
                    opt(steal_before
                        .zip(host::steal_ticks())
                        .map(|(a, b)| b.saturating_sub(a) as f64)),
                ),
                ("ref_ns", num(reference.median)),
                ("ref_spread_pct", num(ref_spread_pct)),
                ("noisy", Value::Bool(noisy)),
            ]),
        ),
        ("slices_per_config", num(slices as f64)),
        ("correct", Value::Bool(correct)),
        ("attempted", num(oracle.attempted as f64)),
        ("failed", num(oracle.failed as f64)),
        (
            "notes",
            Value::Arr(oracle.notes.iter().map(|n| string(n.as_str())).collect()),
        ),
        ("metrics", metric_values(true)),
    ]);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let suffix = if trace { ".trace" } else { "" };
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| format!("{OUT_DIR}/{}{suffix}.json", w.name));
    std::fs::write(&out, detail.to_json() + "\n").map_err(|e| format!("{out}: {e}"))?;
    if trace {
        let path = format!("{OUT_DIR}/trace.jsonl");
        std::fs::write(&path, rec.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
        println!("# {} spans in {path}", rec.len());
    }
    println!("# result in {out}");

    // The contract's result: the last line of standard output.
    let line = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", num(oracle.attempted.max(1) as f64)),
        ("failed", num(oracle.failed as f64)),
        ("metrics", metric_values(false)),
    ]);
    println!("{}", line.to_json());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Run every workload, each in a process of its own (set-up time and peak
/// memory are per process), and gather the results into one set file.
/// Under `--smoke` without an explicit `--trace`, both kinds of run.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let traces: Vec<bool> = match args.trace {
        Some(t) => vec![t],
        None if args.smoke => vec![false, true],
        None => vec![false],
    };
    let mut common = vec!["--seed".to_string(), args.seed.to_string()];
    if let Some(seconds) = args.seconds {
        common.extend(["--seconds".to_string(), seconds.to_string()]);
    }
    if args.smoke {
        common.push("--smoke".to_string());
    }
    if args.break_oracle {
        common.push("--break-oracle".to_string());
    }
    let started = Instant::now();
    let mut worst = ExitCode::SUCCESS;
    let mut runs = Vec::new();
    for trace in traces {
        for w in &WORKLOADS {
            let suffix = if trace { ".trace" } else { "" };
            let out = format!("{OUT_DIR}/{}{suffix}.json", w.name);
            let status = std::process::Command::new(&exe)
                .args(&common)
                .args(["--workload", w.name, "--out", &out])
                .args(["--trace", if trace { "1" } else { "0" }])
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            if !status.success() {
                worst = ExitCode::FAILURE;
            }
            if let Ok(text) = std::fs::read_to_string(&out) {
                runs.push(json::parse(&text)?);
            }
        }
    }
    let set = args
        .out
        .clone()
        .unwrap_or_else(|| format!("{OUT_DIR}/result.json"));
    let doc = obj(vec![("set", Value::Arr(runs))]);
    std::fs::write(&set, doc.to_json() + "\n").map_err(|e| format!("{set}: {e}"))?;
    println!(
        "# set of results in {set} after {:.1} s",
        started.elapsed().as_secs_f64()
    );
    Ok(worst)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::embedded();
    if !spec
        .workloads
        .iter()
        .map(String::as_str)
        .eq(WORKLOADS.iter().map(|w| w.name))
    {
        eprintln!("proteus-benchmark: workloads differ from BENCHMARK.json");
        return ExitCode::from(2);
    }
    let result = if let Some((a, b)) = &args.compare {
        let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        read(a)
            .and_then(|a| Ok((a, read(b)?)))
            .and_then(|(a, b)| compare::compare(&spec, &a, &b))
            .map(|(report, breached)| {
                print!("{report}");
                if breached {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            })
    } else if args.workload == "all" {
        run_all(&args)
    } else {
        match WORKLOADS.iter().find(|w| w.name == args.workload) {
            Some(w) => run_workload(w, &args, &spec),
            None => Err(format!(
                "unknown workload {:?}; known: {:?}",
                args.workload,
                WORKLOADS.map(|w| w.name)
            )),
        }
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("proteus-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
