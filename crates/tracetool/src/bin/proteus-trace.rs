//! `proteus-trace` — decision-quality analyzer for ProteusTM JSONL traces;
//! [`USAGE`] lists the subcommands.
//!
//! Exit codes: `report`, `perf` and `conflicts` exit 0 on success, 1 on
//! schema violations, empty traces, or I/O errors. `diff` exits 0 when the
//! traces are structurally identical, 1 when they differ or fail to parse.
//! `perf-diff` exits 0 when no KPI degraded beyond the noise band, 1 on a
//! regression, a parse failure or a trace without its end-of-trace
//! trailer (which the single-trace views report as `INCOMPLETE`, exit 0).
//! Missing or unknown subcommands, missing or surplus operands and
//! unusable flag values print the usage block or one line naming the
//! flag, and exit 2.

use std::process::ExitCode;
use tracetool::{conflicts, diff, perf, report, Trace};

const USAGE: &str = "usage:
  proteus-trace report <trace.jsonl> [--epsilon E] [--json]   single-trace report
  proteus-trace diff <a.jsonl> <b.jsonl>                      structural comparison
  proteus-trace perf <trace.jsonl>                            KPI time-series & overhead audit
  proteus-trace perf-diff <a.jsonl> <b.jsonl> [--noise F]     window-by-window KPI gate
  proteus-trace conflicts <trace.jsonl> [--json]              abort attribution & hot stripes

The trace must start with a {\"kind\":\"trace.meta\",\"schema\":N} header
(written by obs::trace::start); schemas outside the supported range are
rejected.";

/// Every subcommand: its name, how many trace paths it takes, and the
/// flags it understands.
const SUBCOMMANDS: [(&str, usize, &[&str]); 5] = [
    ("report", 1, &["--epsilon", "--json"]),
    ("diff", 2, &[]),
    ("perf", 1, &[]),
    ("perf-diff", 2, &["--noise"]),
    ("conflicts", 1, &["--json"]),
];

/// A parsed command line.
struct Args {
    paths: Vec<String>,
    json: bool,
    epsilon: f64,
    noise: f64,
}

/// A fraction (`--epsilon`, `--noise`). A comparison against NaN is always
/// false and one against a negative band always true: either would decide
/// the verdict by itself.
fn fraction(name: &str, value: Option<&str>) -> Result<f64, String> {
    let v: f64 = value
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{name} needs a numeric argument"))?;
    if v.is_finite() && v >= 0.0 {
        Ok(v)
    } else {
        Err(format!("{name} must be finite and non-negative, got {v}"))
    }
}

/// Parse the arguments after the subcommand name: exactly `paths` trace
/// paths and any of `flags`. The error is what to print before exiting 2.
fn parse_args(paths: usize, flags: &[&str], rest: &[String]) -> Result<Args, String> {
    let mut args = Args {
        paths: Vec::new(),
        json: false,
        epsilon: 0.05,
        noise: 0.05,
    };
    let mut rest = rest.iter();
    while let Some(arg) = rest.next() {
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (arg.as_str(), None),
        };
        if !flags.contains(&name) || (name == "--json" && inline.is_some()) {
            if args.paths.len() == paths {
                return Err(format!("unexpected argument {arg:?}\n{USAGE}"));
            }
            args.paths.push(arg.clone());
            continue;
        }
        let mut value = || inline.or_else(|| rest.next().map(String::as_str));
        match name {
            "--json" => args.json = true,
            "--epsilon" => args.epsilon = fraction(name, value())?,
            "--noise" => args.noise = fraction(name, value())?,
            _ => unreachable!("{name} is in the subcommand table but not parsed"),
        }
    }
    if args.paths.len() < paths {
        return Err(USAGE.to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        None => Err(USAGE.to_string()),
        Some((name, rest)) => match SUBCOMMANDS.iter().find(|sub| sub.0 == name) {
            None => Err(format!("unknown subcommand {name:?}\n{USAGE}")),
            Some(&(name, paths, flags)) => parse_args(paths, flags, rest).map(|a| run(name, &a)),
        },
    };
    match outcome {
        Err(usage) => {
            eprintln!("{usage}");
            ExitCode::from(2)
        }
        Ok(Ok(true)) => ExitCode::SUCCESS,
        Ok(Ok(false)) => ExitCode::from(1),
        Ok(Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// Run one subcommand. `Ok(false)` is a verdict that fails a gate: the
/// traces differ (`diff`) or a KPI regressed (`perf-diff`).
fn run(name: &str, args: &Args) -> Result<bool, String> {
    let path = &args.paths[0];
    let (text, ok) = match name {
        "perf" => (perf::render(&load(path)?), true),
        "report" | "conflicts" => {
            let trace = load(path)?;
            if trace.records.is_empty() && trace.counters.is_empty() {
                return Err(format!(
                    "{path}: trace holds a header but no records — nothing to report"
                ));
            }
            let text = match (name, args.json) {
                ("report", true) => report::json(&report::Report::new(&trace, args.epsilon)),
                ("report", false) => report::plain(&report::Report::new(&trace, args.epsilon)),
                (_, true) => conflicts::json(&conflicts::Conflicts::new(&trace)),
                (_, false) => conflicts::plain(&conflicts::Conflicts::new(&trace)),
            };
            (text, true)
        }
        _ => {
            let (a, b) = match (load(path), load(&args.paths[1])) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(a), Err(b)) => return Err(format!("{a}\nerror: {b}")),
                (Err(e), _) | (_, Err(e)) => return Err(e),
            };
            match name {
                "diff" => diff::render(&a, &b),
                // A run that died half-way must not pass the gate by absence.
                _ if !(a.complete && b.complete) => {
                    let cut = if a.complete { &args.paths[1] } else { path };
                    return Err(format!("{cut}: incomplete trace, no end-of-trace trailer"));
                }
                _ => perf::render_diff(&a, &b, args.noise),
            }
        }
    };
    print!("{text}");
    Ok(ok)
}

fn load(path: &str) -> Result<Trace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    tracetool::parse_trace(&text).map_err(|e| format!("{path}: {e}"))
}
