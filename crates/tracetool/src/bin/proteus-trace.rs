//! `proteus-trace` — decision-quality analyzer for ProteusTM JSONL traces;
//! [`USAGE`] lists the subcommands.
//!
//! Exit codes: 0 on success (a trace without its end-of-trace trailer
//! included: the views report it as `INCOMPLETE`), 1 on schema violations,
//! empty traces, or I/O errors. Missing or unknown subcommands, missing or
//! surplus operands and unusable flag values print the usage block or one
//! line naming the flag, and exit 2.

use std::process::ExitCode;
use tracetool::{conflicts, perf, report, Trace};

const USAGE: &str = "usage:
  proteus-trace report <trace.jsonl> [--epsilon E] [--json]   single-trace report
  proteus-trace perf <trace.jsonl>                            KPI time-series & overhead audit
  proteus-trace conflicts <trace.jsonl> [--json]              abort attribution & hot stripes

The trace must start with a {\"kind\":\"trace.meta\",\"schema\":4} header
(written by obs::trace::start); any other schema is rejected.";

/// Every subcommand and the flags it understands.
const SUBCOMMANDS: [(&str, &[&str]); 3] = [
    ("report", &["--epsilon", "--json"]),
    ("perf", &[]),
    ("conflicts", &["--json"]),
];

/// A parsed command line.
struct Args {
    path: String,
    json: bool,
    epsilon: f64,
}

/// `--epsilon`, a fraction. A comparison against NaN is always false and
/// one against a negative band always true: either would decide every
/// verdict by itself.
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

/// Parse the arguments after the subcommand name: exactly one trace path
/// and any of `flags`. The error is what to print before exiting 2.
fn parse_args(flags: &[&str], rest: &[String]) -> Result<Args, String> {
    let (mut path, mut json, mut epsilon) = (None, false, 0.05);
    let mut rest = rest.iter();
    while let Some(arg) = rest.next() {
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (arg.as_str(), None),
        };
        if !flags.contains(&name) || (name == "--json" && inline.is_some()) {
            if path.is_some() {
                return Err(format!("unexpected argument {arg:?}\n{USAGE}"));
            }
            path = Some(arg.clone());
            continue;
        }
        match name {
            "--json" => json = true,
            "--epsilon" => {
                epsilon = fraction(name, inline.or_else(|| rest.next().map(String::as_str)))?
            }
            _ => unreachable!("{name} is in the subcommand table but not parsed"),
        }
    }
    let path = path.ok_or(USAGE)?;
    Ok(Args {
        path,
        json,
        epsilon,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        None => Err(USAGE.to_string()),
        Some((name, rest)) => match SUBCOMMANDS.iter().find(|sub| sub.0 == name) {
            None => Err(format!("unknown subcommand {name:?}\n{USAGE}")),
            Some(&(name, flags)) => parse_args(flags, rest).map(|a| run(name, &a)),
        },
    };
    match outcome {
        Err(usage) => {
            eprintln!("{usage}");
            ExitCode::from(2)
        }
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// Run one subcommand.
fn run(name: &str, args: &Args) -> Result<(), String> {
    let path = &args.path;
    let trace = load(path)?;
    let text = match (name, args.json) {
        ("perf", _) => perf::render(&trace),
        _ if trace.records.is_empty() && trace.counters.is_empty() => {
            return Err(format!(
                "{path}: trace holds a header but no records — nothing to report"
            ));
        }
        ("report", true) => report::json(&report::Report::new(&trace, args.epsilon)),
        ("report", false) => report::plain(&report::Report::new(&trace, args.epsilon)),
        (_, true) => conflicts::json(&conflicts::Conflicts::new(&trace)),
        (_, false) => conflicts::plain(&conflicts::Conflicts::new(&trace)),
    };
    print!("{text}");
    Ok(())
}

fn load(path: &str) -> Result<Trace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    tracetool::parse_trace(&text).map_err(|e| format!("{path}: {e}"))
}
