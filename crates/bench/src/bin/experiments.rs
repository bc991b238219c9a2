//! Regenerate the ProteusTM paper's tables and figures.
//!
//! ```text
//! experiments all               # everything (a few minutes in --release)
//! experiments fig4 fig5         # selected experiments
//! experiments --quick all       # reduced corpus sizes (CI-friendly)
//! experiments --jobs 4 fig5     # evaluation worker threads (or PROTEUS_JOBS)
//! experiments --trace-out t.jsonl fig4   # JSONL telemetry trace
//! experiments vtime             # virtual-time scalability (byte-identical everywhere)
//! ```
//!
//! Results are bit-identical at every `--jobs` value: the evaluation
//! pipeline derives all randomness from per-task seeds and folds results
//! in a fixed order (see the `parx` crate). With `--trace-out PATH` every
//! adaptation-layer event — quiescence epochs, configuration switches,
//! CUSUM alarms, EI steps, per-backend abort counters — is written to PATH
//! as JSON Lines; `proteus-trace report|perf|conflicts PATH` reads it.

use bench::opts::Options;
use std::collections::BTreeMap;

type Runner = (&'static str, fn(bool));

/// The canonical experiments, in the paper's order.
const RUNNERS: [Runner; 11] = [
    ("table23", |_| bench::table23::run()),
    ("fig1", |_| bench::fig1::run()),
    ("table4", |quick| {
        bench::table4::run_with(if quick { 2_000 } else { 40_000 })
    }),
    ("table5", |quick| {
        bench::table5::run_with(if quick { 5 } else { 20 })
    }),
    ("fig4", |quick| {
        bench::fig4::run_with(if quick { 60 } else { 300 })
    }),
    ("fig5", |quick| {
        bench::fig5::run_with(if quick { 36 } else { 120 })
    }),
    ("fig6", |quick| {
        bench::fig6::run_with(if quick { 36 } else { 120 })
    }),
    ("fig7", |quick| {
        bench::fig7::run_with(if quick { 60 } else { 300 })
    }),
    ("fig8", |_| bench::fig8::run()),
    // Virtual-time scalability: deterministic by construction, so --quick
    // never scales it down (same bytes on every host or it is a bug).
    ("vtime", |_| bench::vtime::run()),
    // Durability tax + crash-recovery drill: same exact-integer contract.
    ("durable", |_| bench::durable::run()),
];

/// Aliases: paper artifact name → canonical experiment.
const ALIASES: [(&str, &str); 3] = [
    ("table2", "table23"),
    ("table3", "table23"),
    ("table6", "fig8"),
];

fn fail_usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn main() {
    let mut index: BTreeMap<&str, fn(bool)> = RUNNERS.iter().cloned().collect();
    index.insert("fig9", |_| bench::fig9::run());
    for (alias, canon) in ALIASES {
        let f = *index.get(canon).expect("alias target exists");
        index.insert(alias, f);
    }

    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = Options::parse(&args).unwrap_or_else(|e| fail_usage(&e));
    opts.apply_jobs();

    if opts.targets.is_empty() {
        fail_usage(&format!(
            "usage: experiments [--quick] [--jobs N] [--trace-out PATH] \
             <all | {} ...>",
            index.keys().cloned().collect::<Vec<_>>().join(" | ")
        ));
    }
    // Resolve every target *before* a trace starts: `std::process::exit`
    // skips destructors, so bailing out on an unknown name mid-run would
    // lose the BufWriter's buffered tail and silently truncate a
    // partially-written trace file.
    let mut plan: Vec<Runner> = Vec::new();
    for target in &opts.targets {
        if target.as_str() == "all" {
            plan.extend(RUNNERS);
            plan.push(("fig9", |_| bench::fig9::run()));
        } else if let Some((&name, &f)) = index.get_key_value(target.as_str()) {
            plan.push((name, f));
        } else {
            fail_usage(&format!("unknown experiment: {target}"));
        }
    }
    let tracing = match &opts.trace_out {
        Some(path) => {
            if let Err(e) = obs::start_trace_file(path) {
                fail_usage(&format!("cannot open trace file {}: {e}", path.display()));
            }
            true
        }
        None => false,
    };
    for (name, f) in plan {
        banner(name);
        f(opts.quick);
    }
    if tracing {
        let audit = obs::finish_trace().overhead;
        if let Some(path) = &opts.trace_out {
            let (path, n, b) = (path.display(), audit.events, audit.bytes);
            println!("\ntrace written to {path} ({n} records, {b} bytes)");
        }
    }
}

fn banner(name: &str) {
    println!("\n{}", "=".repeat(72));
    println!("EXPERIMENT {name}");
    println!("{}", "=".repeat(72));
}
