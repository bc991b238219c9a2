//! `proteus-trace` — decision-quality analyzer for ProteusTM JSONL traces;
//! [`USAGE`] lists the subcommands.
//!
//! Exit codes: 0 on success (a trace without its end-of-trace trailer
//! included: the views report it as `INCOMPLETE`), 1 on schema violations,
//! empty traces, or I/O errors. Missing or unknown subcommands and missing
//! or surplus operands print the usage block and exit 2.

use std::process::ExitCode;
use tracetool::{conflicts, report, Trace};

const USAGE: &str = "usage:
  proteus-trace report <trace.jsonl>      single-trace report
  proteus-trace conflicts <trace.jsonl>   abort attribution & hot stripes

The trace must start with a {\"kind\":\"trace.meta\",\"schema\":4} header
(written by obs::trace::start); any other schema is rejected.";

/// The view a subcommand prints.
fn view(name: &str) -> Option<fn(&Trace) -> String> {
    match name {
        "report" => Some(report::render),
        "conflicts" => Some(conflicts::render),
        _ => None,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        None => Err(USAGE.to_string()),
        Some((name, rest)) => match view(name) {
            None => Err(format!("unknown subcommand {name:?}\n{USAGE}")),
            Some(view) => match rest {
                [path] => Ok(run(view, path)),
                [] => Err(USAGE.to_string()),
                [_, extra, ..] => Err(format!("unexpected argument {extra:?}\n{USAGE}")),
            },
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

/// Run one subcommand: read the trace at `path` and print its `view`.
fn run(view: fn(&Trace) -> String, path: &str) -> Result<(), String> {
    let trace = load(path)?;
    if trace.records.is_empty() && trace.counters.is_empty() {
        return Err(format!(
            "{path}: trace holds a header but no records — nothing to report"
        ));
    }
    print!("{}", view(&trace));
    Ok(())
}

fn load(path: &str) -> Result<Trace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    tracetool::parse_trace(&text).map_err(|e| format!("{path}: {e}"))
}
