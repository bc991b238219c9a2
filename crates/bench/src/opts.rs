//! Shared flag/environment handling for the `experiments` binary.
//!
//! Every knob is a flag. The worker count alone also has an environment
//! twin (`--jobs`/`PROTEUS_JOBS`, which `parx` and CI's determinism leg
//! read); the flag always wins so a CI matrix can export a default and
//! individual legs can still override it. Parsing is pure (`parse_with`
//! takes the environment as a closure) so the precedence rule is
//! unit-testable without mutating the process environment.

use std::ffi::OsString;
use std::path::PathBuf;

/// Parsed `experiments` command line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Options {
    /// `--quick`: reduced corpus sizes (CI-friendly).
    pub quick: bool,
    /// `--jobs N` / `PROTEUS_JOBS`: evaluation worker threads. `None`
    /// leaves the `parx` default (one per core) in place.
    pub jobs: Option<usize>,
    /// `--trace-out PATH`: JSONL telemetry trace.
    pub trace_out: Option<PathBuf>,
    /// Every argument no flag above claimed, in order: experiment names.
    pub targets: Vec<String>,
}

impl Options {
    /// Parse `args` (without the program name) against the process
    /// environment.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        Self::parse_with(args, |k| std::env::var_os(k))
    }

    /// Parse `args` against an explicit environment (for tests).
    pub fn parse_with(
        args: &[String],
        env: impl Fn(&str) -> Option<OsString>,
    ) -> Result<Options, String> {
        let mut opts = Options {
            jobs: env("PROTEUS_JOBS").and_then(|v| {
                let parsed = v.to_str().and_then(|s| s.parse::<usize>().ok());
                match parsed {
                    Some(n) if n > 0 => Some(n),
                    // Invalid env values are diagnosed (and ignored) by
                    // parx::jobs_from_env; don't double-report here.
                    _ => None,
                }
            }),
            ..Options::default()
        };
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

    /// Install the side-effecting options (worker count) into the process.
    pub fn apply_jobs(&self) {
        if let Some(n) = self.jobs {
            parx::set_jobs(n);
        }
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

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn no_env(_: &str) -> Option<OsString> {
        None
    }

    #[test]
    fn flags_override_environment() {
        let env = |k: &str| (k == "PROTEUS_JOBS").then(|| OsString::from("8"));
        let args = s(&["--jobs", "2", "--trace-out=flag.jsonl", "fig4"]);
        let o = Options::parse_with(&args, env).unwrap();
        assert_eq!(o.jobs, Some(2), "flag beats PROTEUS_JOBS");
        assert_eq!(o.trace_out.as_deref(), Some("flag.jsonl".as_ref()));
        assert_eq!(o.targets, vec!["fig4".to_string()]);

        // Without the flag the environment fills the slot; the other
        // knobs have no environment twin.
        let o = Options::parse_with(&s(&["fig4"]), env).unwrap();
        assert_eq!(o.jobs, Some(8));
        assert_eq!(o.trace_out, None);
    }

    #[test]
    fn both_flag_spellings_parse() {
        let o = Options::parse_with(&s(&["--jobs=3", "--quick", "all"]), no_env).unwrap();
        assert_eq!(o.jobs, Some(3));
        assert!(o.quick);
        let o = Options::parse_with(&s(&["--jobs", "3", "all"]), no_env).unwrap();
        assert_eq!(o.jobs, Some(3));
        assert_eq!(o.targets, vec!["all".to_string()]);
        for flag in ["--jobs", "--trace-out"] {
            let spaced = Options::parse_with(&s(&[flag, "3", "all"]), no_env).unwrap();
            let inline = Options::parse_with(&s(&[&format!("{flag}=3"), "all"]), no_env).unwrap();
            assert_eq!(spaced, inline, "{flag}");
            assert_eq!(spaced.targets, ["all"], "{flag} swallowed its value");
            assert_ne!(spaced, Options::parse_with(&s(&["all"]), no_env).unwrap());
        }
    }

    #[test]
    fn errors_on_missing_or_bad_values() {
        assert!(Options::parse_with(&s(&["--jobs"]), no_env).is_err());
        assert!(Options::parse_with(&s(&["--jobs", "0"]), no_env).is_err());
        assert!(Options::parse_with(&s(&["--jobs=none"]), no_env).is_err());
        assert!(Options::parse_with(&s(&["--trace-out"]), no_env).is_err());
    }

    #[test]
    fn invalid_env_jobs_is_ignored_not_fatal() {
        let env =
            |k: &str| -> Option<OsString> { (k == "PROTEUS_JOBS").then(|| OsString::from("zero")) };
        let o = Options::parse_with(&s(&["fig4"]), env).unwrap();
        assert_eq!(o.jobs, None);
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
            let err = Options::parse_with(&s(stray), no_env).unwrap_err();
            assert_eq!(err, format!("unknown flag {}", stray[0]));
        }
    }
}
