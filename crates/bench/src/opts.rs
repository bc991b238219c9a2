//! Flag handling for the `experiments` binary.
//!
//! Every knob is a flag, and no flag has an environment twin. `--jobs N`
//! becomes a [`parx::with_jobs`] scope around the whole plan.

use std::path::PathBuf;

/// Parsed `experiments` command line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Options {
    /// `--quick`: reduced corpus sizes (CI-friendly).
    pub quick: bool,
    /// `--jobs N`: evaluation worker threads. `None` leaves the `parx`
    /// default (one per core) in place.
    pub jobs: Option<usize>,
    /// `--trace-out PATH`: JSONL telemetry trace.
    pub trace_out: Option<PathBuf>,
    /// Every argument no flag above claimed, in order: experiment names.
    pub targets: Vec<String>,
}

impl Options {
    /// Parse `args` (without the program name).
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options::default();
        let mut iter = args.iter();
        while let Some(a) = iter.next() {
            // Each flag is spelled once; `--x V` and `--x=V` both land here.
            let (name, inline) = match a.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (a.as_str(), None),
            };
            let mut value = || {
                inline
                    .or_else(|| iter.next().map(String::as_str))
                    .ok_or_else(|| format!("{name} expects a value"))
            };
            match name {
                "--quick" if inline.is_none() => opts.quick = true,
                "--jobs" => opts.jobs = Some(parse_jobs(value()?)?),
                "--trace-out" => opts.trace_out = Some(PathBuf::from(value()?)),
                _ => opts.targets.push(a.clone()),
            }
        }
        if let Some(a) = opts.targets.iter().find(|a| a.starts_with("--")) {
            return Err(format!("unknown flag {a}"));
        }
        Ok(opts)
    }
}

fn parse_jobs(v: &str) -> Result<usize, String> {
    v.parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| "--jobs expects a positive integer".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_override_environment() {
        // The environment has no say: every knob is a flag.
        let o = parse(&["--jobs", "2", "--trace-out=flag.jsonl", "fig4"]).unwrap();
        assert_eq!(o.jobs, Some(2));
        assert_eq!(o.trace_out.as_deref(), Some("flag.jsonl".as_ref()));
        assert_eq!(o.targets, vec!["fig4".to_string()]);
        let o = parse(&["fig4"]).unwrap();
        assert_eq!((o.jobs, o.trace_out), (None, None));
    }

    #[test]
    fn both_flag_spellings_parse() {
        let o = parse(&["--jobs=3", "--quick", "all"]).unwrap();
        assert_eq!(o.jobs, Some(3));
        assert!(o.quick);
        let o = parse(&["--jobs", "3", "all"]).unwrap();
        assert_eq!(o.jobs, Some(3));
        assert_eq!(o.targets, vec!["all".to_string()]);
        for flag in ["--jobs", "--trace-out"] {
            let spaced = parse(&[flag, "3", "all"]).unwrap();
            let inline = parse(&[&format!("{flag}=3"), "all"]).unwrap();
            assert_eq!(spaced, inline, "{flag}");
            assert_eq!(spaced.targets, ["all"], "{flag} swallowed its value");
            assert_ne!(spaced, parse(&["all"]).unwrap());
        }
    }

    #[test]
    fn errors_on_missing_or_bad_values() {
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--jobs=none"]).is_err());
        assert!(parse(&["--trace-out"]).is_err());
    }

    #[test]
    fn unknown_flags_are_errors() {
        for stray in [
            &["--slo", "default", "fig4"][..],
            &["--slo=default", "fig4"],
            &["--health-out", "x", "fig4"],
            &["--metrics-out", "x", "fig4"],
            &["--metrics-out=x", "fig4"],
            &["--faults", "plan.json", "fig5"],
            &["--trace_out=x", "fig4"],
            &["--quick=1", "fig5"],
            &["--update-baseline", "fig4"],
        ] {
            let err = parse(stray).unwrap_err();
            assert_eq!(err, format!("unknown flag {}", stray[0]));
        }
    }
}
