//! Exit-code contract of the `proteus-trace` binary: missing/unknown
//! subcommands print the full usage block and exit 2, analysis failures
//! exit 1, and a trace without its trailer is a visible state — an
//! `INCOMPLETE` line in the single-trace views, exit 1 from `perf-diff`.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_proteus-trace"))
}

fn complete_trace() -> String {
    let mut t = format!(
        "{{\"kind\":\"trace.meta\",\"schema\":{}}}\n",
        obs::SCHEMA_VERSION
    );
    t.push_str(
        "{\"seq\":0,\"kind\":\"metrics.window\",\"series\":\"kpi.x\",\"window\":0,\
         \"tick\":8,\"n\":8,\"mean\":0.5,\"min\":0,\"max\":1,\"last\":1}\n",
    );
    t.push_str(
        "{\"seq\":1,\"kind\":\"obs.overhead\",\"subsystem\":\"total\",\"events\":1,\
         \"bytes\":10}\n",
    );
    t
}

fn tmp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("proteus_cli_{}_{name}", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn no_subcommand_prints_usage_and_exits_2() {
    let out = bin().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for sub in ["report", "diff", "perf", "perf-diff", "conflicts"] {
        assert!(
            stderr.contains(&format!("proteus-trace {sub} ")),
            "usage must list {sub}: {stderr}"
        );
    }
}

#[test]
fn unknown_subcommand_names_itself_and_exits_2() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown subcommand \"frobnicate\""),
        "{stderr}"
    );
    assert!(stderr.contains("usage:"), "{stderr}");
    // `watch` was a subcommand once; now it is unknown like any other.
    let out = bin().args(["watch", "t.jsonl"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown subcommand \"watch\"\nusage:"));
}

#[test]
fn every_subcommand_rejects_missing_operands_with_2() {
    for sub in ["report", "diff", "perf", "perf-diff", "conflicts"] {
        let out = bin().arg(sub).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{sub} without operands");
    }
}

#[test]
fn unreadable_trace_exits_1() {
    for sub in ["report", "perf", "conflicts"] {
        let out = bin()
            .args([sub, "/nonexistent/trace.jsonl"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{sub} on a missing file");
        assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
    }
}

const WHOLE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/all_sections.jsonl"
);

#[test]
fn a_trace_without_its_trailer_is_a_visible_state() {
    // The fixture cut after line 60 of 100: the writer "died" before the
    // counter dump and the `obs.overhead total` trailer.
    let text = std::fs::read_to_string(WHOLE).unwrap();
    let cut = tmp(
        "cut.jsonl",
        &text.split_inclusive('\n').take(60).collect::<String>(),
    );
    let cut = cut.to_str().unwrap();
    let stdout = |args: &[&str]| {
        let out = bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    for view in ["report", "perf", "conflicts"] {
        let text = stdout(&[view, cut]);
        let under_banner = text.lines().nth(1).unwrap();
        assert!(under_banner.starts_with("INCOMPLETE: no end-of-"), "{text}");
        assert!(!stdout(&[view, WHOLE]).contains("INCOMPLETE"), "{view}");
        if view != "perf" {
            let json = stdout(&[view, cut, "--json"]);
            assert!(json.starts_with("{\"schema\":4,\"incomplete\":true,"));
            assert!(!stdout(&[view, WHOLE, "--json"]).contains("incomplete"));
        }
    }
    // A run that died half-way must not pass the gate by absence.
    for (a, b) in [(WHOLE, cut), (cut, WHOLE), (cut, cut)] {
        let out = bin().args(["perf-diff", a, b]).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(stderr.contains(&format!("{cut}: incomplete")), "{stderr}");
    }
    let _ = std::fs::remove_file(cut);
}

#[test]
fn a_gate_cannot_be_talked_out_of_failing() {
    // NaN makes every comparison false and a negative band makes every one
    // true: either would decide the verdict without looking at the trace.
    let path = tmp("gate.jsonl", &complete_trace());
    let path = path.to_str().unwrap();
    for args in [
        ["perf-diff", path, path, "--noise", "nan"],
        ["perf-diff", path, path, "--noise", "-1"],
        ["report", path, "--json", "--epsilon", "nan"],
    ] {
        let out = bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("must be finite and non-negative"),
            "{stderr}"
        );
        assert_eq!(
            stderr.lines().count(),
            1,
            "one line, not the usage: {stderr}"
        );
    }
    let _ = std::fs::remove_file(path);
}
