//! Exit-code contract of the `proteus-trace` binary (ISSUE 10 satellite):
//! missing/unknown subcommands print the full usage block and exit 2,
//! analysis failures exit 1, and `watch` distinguishes a completed trace
//! (0) from a stalled one (1).

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
    for sub in ["report", "diff", "perf", "perf-diff", "conflicts", "watch"] {
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
}

#[test]
fn every_subcommand_rejects_missing_operands_with_2() {
    for sub in ["report", "diff", "perf", "perf-diff", "conflicts", "watch"] {
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

#[test]
fn watch_on_a_complete_trace_renders_frames_and_exits_0() {
    let path = tmp("complete.jsonl", &complete_trace());
    let out = bin()
        .args(["watch", path.to_str().unwrap(), "--idle-timeout-ms", "5000"])
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("frame 1  window 0  tick 8"), "{stdout}");
    assert!(stdout.contains("kpi.x"), "{stdout}");
}

#[test]
fn watch_json_twin_is_one_object_per_frame() {
    let path = tmp("json.jsonl", &complete_trace());
    let out = bin()
        .args([
            "watch",
            path.to_str().unwrap(),
            "--json",
            "--idle-timeout-ms",
            "5000",
        ])
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("{\"frame\":1,\"window\":0,\"tick\":8,"),
        "{stdout}"
    );
}

#[test]
fn watch_without_trailer_times_out_with_1() {
    // Header + one window but no obs.overhead total: the writer "died".
    let truncated: String = complete_trace()
        .lines()
        .filter(|l| !l.contains("obs.overhead"))
        .map(|l| format!("{l}\n"))
        .collect();
    let path = tmp("stalled.jsonl", &truncated);
    let out = bin()
        .args([
            "watch",
            path.to_str().unwrap(),
            "--poll-ms",
            "10",
            "--idle-timeout-ms",
            "200",
        ])
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1), "{:?}", out);
    assert!(String::from_utf8_lossy(&out.stderr).contains("trailer"));
    // The open window is still flushed before exiting, so a truncated
    // trace shows its last frame.
    assert!(String::from_utf8_lossy(&out.stdout).contains("frame 1"));
}

#[test]
fn watch_rejects_bad_schema_with_1() {
    let path = tmp("schema.jsonl", "{\"kind\":\"trace.meta\",\"schema\":99}\n");
    let out = bin()
        .args(["watch", path.to_str().unwrap(), "--idle-timeout-ms", "5000"])
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("schema"));
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
