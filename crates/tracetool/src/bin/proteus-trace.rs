//! `proteus-trace` — decision-quality analyzer for ProteusTM JSONL traces;
//! [`USAGE`] lists the subcommands.
//!
//! Exit codes: 0 on success (a trace without its end-of-trace trailer
//! included: the views report it as `INCOMPLETE`), 1 on schema violations,
//! empty traces, or I/O errors. Missing or unknown subcommands and missing
//! or surplus operands print the usage block and exit 2.

use std::process::ExitCode;
use tracetool::{conflicts, perf, report, Trace};

const USAGE: &str = "usage:
  proteus-trace report <trace.jsonl> [--json]      single-trace report
  proteus-trace perf <trace.jsonl>                 KPI time-series & overhead audit
  proteus-trace conflicts <trace.jsonl> [--json]   abort attribution & hot stripes

The trace must start with a {\"kind\":\"trace.meta\",\"schema\":4} header
(written by obs::trace::start); any other schema is rejected.";

/// Every subcommand and whether it understands `--json`, its one flag.
const SUBCOMMANDS: [(&str, bool); 3] = [("report", true), ("perf", false), ("conflicts", true)];

/// A parsed command line.
struct Args {
    path: String,
    json: bool,
}

/// Parse the arguments after the subcommand name: exactly one trace path,
/// and `--json` where `json_flag` allows it. The error is what to print
/// before exiting 2.
fn parse_args(json_flag: bool, rest: &[String]) -> Result<Args, String> {
    let (mut path, mut json) = (None, false);
    for arg in rest {
        if json_flag && arg == "--json" {
            json = true;
        } else if path.is_some() {
            return Err(format!("unexpected argument {arg:?}\n{USAGE}"));
        } else {
            path = Some(arg.clone());
        }
    }
    let path = path.ok_or(USAGE)?;
    Ok(Args { path, json })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        None => Err(USAGE.to_string()),
        Some((name, rest)) => match SUBCOMMANDS.iter().find(|sub| sub.0 == name) {
            None => Err(format!("unknown subcommand {name:?}\n{USAGE}")),
            Some(&(name, json_flag)) => parse_args(json_flag, rest).map(|a| run(name, &a)),
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
        ("report", true) => report::json(&report::Report::new(&trace)),
        ("report", false) => report::plain(&report::Report::new(&trace)),
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
